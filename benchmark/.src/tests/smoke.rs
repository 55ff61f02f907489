//! Runs the benchmark at smoke size, as `cargo test` of this package, and
//! holds what it prints equal to what `BENCHMARK.json` declares.

use netmax_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn declared(manifest: &Json, key: &str) -> BTreeMap<String, String> {
    manifest
        .field(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let get = |k: &str| m.field(k).and_then(Json::as_str).unwrap().to_string();
            (get("name"), get("unit"))
        })
        .collect()
}

/// The checks every run of the workload must have made, smoke size
/// included (`reproduces_bench_sanity` needs the full-size cell).
fn expected_checks(workload: &str, traced: bool) -> Vec<&'static str> {
    let mut checks = vec!["passes_repeat_exactly", "all_metrics_measured", "all_metrics_finite"];
    if !traced {
        checks.extend(match workload {
            "paper8_fast" => vec!["fast_matches_strict"],
            "fleet64" | "fleet256" => vec!["netmax_not_dominated_by_adpsgd"],
            "snap1024" => {
                vec!["reconstruct_equals_fresh_snapshot", "restored_run_equals_uninterrupted"]
            }
            _ => vec![],
        });
    }
    checks
}

#[test]
fn smoke_run_prints_exactly_what_benchmark_json_declares() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let manifest = Json::parse(&text).unwrap();
    let workloads: Vec<String> = manifest
        .field("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.field("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    assert_eq!(workloads.len(), 6);

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let t0 = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_netmax-benchmark"))
        .current_dir(&root)
        .args(["--smoke", "--trace", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // ≤ 3 s in a release build; the test profile and a busy machine get slack.
    assert!(elapsed < 60.0, "smoke run took {elapsed:.1} s");

    // Every child's last line is the contract's result object.
    let finals: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(finals.len(), 2 * workloads.len());
    for line in &finals {
        let Json::Obj(pairs) = line else { panic!("result is not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.field("correct").unwrap().as_bool().unwrap());
        assert!(line.field("attempted").unwrap().as_usize().unwrap() >= 1);
        assert_eq!(line.field("failed").unwrap().as_usize().unwrap(), 0);
        let Json::Obj(metrics) = line.field("metrics").unwrap() else { panic!("metrics") };
        for (_, m) in metrics {
            let Json::Obj(fields) = m else { panic!("metric is not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }

    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let runs = doc.field("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * workloads.len());
    for workload in &workloads {
        for traced in [false, true] {
            let run = runs
                .iter()
                .find(|r| {
                    r.field("workload").and_then(Json::as_str).unwrap() == workload
                        && r.field("trace").and_then(Json::as_bool).unwrap() == traced
                })
                .unwrap_or_else(|| panic!("no run of {workload} (trace {traced})"));
            let Json::Obj(metrics) = run.field("metrics").unwrap() else { panic!("metrics") };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.field("value").and_then(Json::as_f64).unwrap();
                    assert!(value.is_finite(), "{workload}: {name} is not finite");
                    assert!(
                        name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{workload}: bad metric name `{name}`"
                    );
                    (name.clone(), m.field("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            // Names and units, in both directions.
            assert_eq!(&printed, if traced { &per_layer } else { &end_to_end }, "{workload}");
            if !traced {
                for (name, m) in metrics {
                    let value = m.field("value").and_then(Json::as_f64).unwrap();
                    assert!(value != 0.0, "{workload}: end-to-end metric {name} is 0");
                }
            }
            let Json::Obj(checks) = run.field("checks").unwrap() else { panic!("checks") };
            for expected in expected_checks(workload, traced) {
                let ran = checks.iter().find(|(name, _)| name == expected);
                assert_eq!(
                    ran.map(|(_, ok)| ok),
                    Some(&Json::Bool(true)),
                    "{workload} (trace {traced}): check `{expected}` did not run or failed"
                );
            }
        }
    }
}
