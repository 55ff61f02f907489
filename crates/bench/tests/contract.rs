//! The contract: every simulated value of the committed artifacts,
//! re-derived in-process and compared with the files.
//!
//! * `BENCH_sanity.json` (the paper's 8-worker heterogeneous cell) and
//!   `BENCH_scale_tiny.json` / `BENCH_scale.json` (the 32 → 4 096-worker
//!   extension) hold simulated values only and must match a fresh
//!   document whole: every field, and every object's key list. A
//!   mismatch names the row and the field.
//! * `BENCH_registry_tiny.json` maps every `registry(Mode::Tiny)`
//!   experiment, in registry order, to the FNV-1a 64 digest of its run
//!   record in compact JSON. A mismatch names the experiments that moved.
//! * Three cells suspended mid-run, packed into a checkpoint container,
//!   parsed back and resumed must reproduce their committed digests.
//!
//! Each check uses at most two worker threads. The full scale sweep
//! (about a minute in release) is ignored by default:
//! `cargo test --release -p netmax-bench --test contract -- --ignored`.

use netmax_bench::experiments::scale;
use netmax_bench::runner::{self, RunOptions};
use netmax_bench::{registry, Mode};
use netmax_json::Json;
use std::path::Path;

/// Worker threads for every runner call.
const THREADS: usize = 2;

/// A committed artifact at the repository root, parsed.
fn committed(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Appends to `out` every difference between `want` and `got` at path
/// `at`. An array element that has an `algorithm` is named by it too.
fn diff(at: &str, want: &Json, got: &Json, out: &mut Vec<String>) {
    let keys = |pairs: &[(String, Json)]| pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    match (want, got) {
        (Json::Obj(w), Json::Obj(g)) if keys(w) != keys(g) => {
            out.push(format!("{at}: keys {:?}, fresh {:?}", keys(w), keys(g)));
        }
        (Json::Obj(w), Json::Obj(g)) => {
            for ((key, wv), (_, gv)) in w.iter().zip(g) {
                diff(&format!("{at}.{key}"), wv, gv, out);
            }
        }
        (Json::Arr(w), Json::Arr(g)) if w.len() != g.len() => {
            out.push(format!("{at}: {} entries, fresh {}", w.len(), g.len()));
        }
        (Json::Arr(w), Json::Arr(g)) => {
            for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                let name = wv.get("algorithm").and_then(|a| a.as_str().ok());
                let name = name.map_or(String::new(), |a| format!(" ({a})"));
                diff(&format!("{at}[{i}]{name}"), wv, gv, out);
            }
        }
        _ if want == got => {}
        _ => out.push(format!("{at}: committed {want}, fresh {got}")),
    }
}

/// Fails naming every difference between the committed `name` and
/// `fresh`.
fn assert_matches_committed(name: &str, fresh: &Json) {
    let mut moved = Vec::new();
    diff(name, &committed(name), fresh, &mut moved);
    assert!(
        moved.is_empty(),
        "{} simulated value(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A run record's digest: [`fnv1a64`] of its compact JSON, as a string
/// of 16 hex digits.
fn digest(record: &Json) -> Json {
    Json::Str(format!("{:016x}", fnv1a64(record.to_string().as_bytes())))
}

fn opts() -> RunOptions<'static> {
    RunOptions {
        threads: THREADS,
        ..RunOptions::default()
    }
}

#[test]
fn digest_is_fnv1a_64() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    let quoted_a = format!("{:016x}", fnv1a64(b"\"a\""));
    assert_eq!(digest(&Json::Str("a".into())), Json::Str(quoted_a));
}

#[test]
fn sanity_document_matches_the_committed_file() {
    assert_matches_committed(
        "BENCH_sanity.json",
        &runner::sanity_doc(Mode::Full, |_, _| {}),
    );
}

#[test]
fn tiny_scale_document_matches_the_committed_file() {
    let p = scale::Params::for_mode(Mode::Tiny);
    assert_matches_committed(
        "BENCH_scale_tiny.json",
        &scale::scale_doc(&p, &scale::run(&p)),
    );
}

#[test]
#[ignore = "the full sweep takes about a minute in release; run with --ignored"]
fn full_scale_document_matches_the_committed_file() {
    let p = scale::Params::full();
    assert_matches_committed("BENCH_scale.json", &scale::scale_doc(&p, &scale::run(&p)));
}

#[test]
fn tiny_registry_matches_the_committed_digests() {
    let committed = committed("BENCH_registry_tiny.json");
    let fresh: Vec<(String, Json)> = registry(Mode::Tiny)
        .iter()
        .map(|spec| {
            let result =
                runner::try_execute(spec, &opts()).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            (spec.name.clone(), digest(&result.to_record()))
        })
        .collect();
    let Json::Obj(want) = &committed else {
        panic!("BENCH_registry_tiny.json is not an object");
    };
    let mut moved: Vec<String> = fresh
        .iter()
        .filter(|(name, d)| committed.get(name) != Some(d))
        .map(|(name, d)| {
            let was = committed.get(name).unwrap_or(&Json::Null);
            format!("{name}: committed {was}, fresh {d}")
        })
        .collect();
    moved.extend(
        want.iter()
            .filter(|(name, _)| fresh.iter().all(|(n, _)| n != name))
            .map(|(name, _)| format!("{name}: no longer registered")),
    );
    assert!(
        moved.is_empty(),
        "{} of {} experiments moved:\n{}",
        moved.len(),
        want.len(),
        moved.join("\n")
    );
    let names = |pairs: &[(String, Json)]| pairs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&fresh), names(want), "registry order");
    // The rest of the run artifact: its schema tag and key order.
    assert_eq!(
        runner::artifact(&[]).to_string(),
        r#"{"schema":"netmax-bench/run-report/v1","experiments":[]}"#
    );
}

#[test]
fn suspended_cells_resume_to_the_committed_digests() {
    let committed = committed("BENCH_registry_tiny.json");
    let specs = registry(Mode::Tiny);
    // (experiment, global steps before suspension): the headline four at
    // n = 8, the n = 256 torus where node blobs dominate the container,
    // and the registry's one AD-PSGD+Monitor cell, whose step 400 falls
    // after its first monitor round.
    for (name, steps) in [
        ("sanity/resnet18-cifar10", 300),
        ("scale/ridge/n256", 1000),
        ("fig15/resnet18-cifar100", 400),
    ] {
        let spec = specs.iter().find(|s| s.name == name).expect(name);
        let suspended = runner::execute_suspended(spec, THREADS, steps).expect(name);
        for cell in &suspended.cells {
            assert!(
                cell.global_step >= steps,
                "{name} [{}] finished before step {steps}",
                cell.label
            );
        }
        let bytes = runner::checkpoint_bytes(&suspended).expect(name);
        let parsed = runner::parse_checkpoint_bytes(&bytes).expect(name);
        let resumed = runner::resume(&parsed, &opts()).expect(name);
        let got = digest(&resumed.to_record());
        assert_eq!(
            Some(&got),
            committed.get(name),
            "{name} resumed at step {steps}"
        );
    }
}
