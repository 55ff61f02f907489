//! `netmax-benchmark` — end-to-end and per-layer benchmark of the NetMax
//! simulator. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! netmax-benchmark [--workload NAME] [--seed S] [--seconds X] [--trace [0|1]]
//!                  [--smoke] [--out PATH]
//! netmax-benchmark compare A B      # result files, or directories of them
//! ```
//!
//! With `--workload` the process runs that workload and prints, as its
//! last line, the one-line JSON result of the builder's contract. Without
//! it, every workload runs in a fresh child process (so `peak_rss_mb` is
//! per workload), untraced and — with `--trace` — traced as well, and the
//! set is written to `--out`.

mod layers;
mod report;
mod trace;
mod workloads;

use layers::ControlPlaneReplay;
use netmax_core::engine::{AlgorithmKind, Environment, SessionError};
use netmax_json::Json;
use report::{MetricSet, RunResult, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{span, Off, Tracer};
use workloads::{Cell, Pass, Workload};

/// Default measuring time per run; this package's unit tests hold it equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Calls per micro-probe of a traced run.
const PROBE_CALLS: usize = 2_000;

struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: netmax-benchmark [--workload NAME] [--seed S] [--seconds X] \
[--trace [0|1]] [--smoke] [--out PATH]\n       netmax-benchmark compare A B   (result files or directories of them)\n\
workloads: paper8 paper8_fast fleet64 fleet256 gossip1024 snap1024";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                o.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => o.smoke = true,
            // `--trace` alone turns tracing on; the driver writes `--trace 0|1`.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// The repository root: the working directory when the command is run as
/// documented, else the parent of this package as it was built.
fn repo_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("BENCHMARK.json").is_file() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("compare") => run_compare(&args[1..]),
        _ => parse_options(&args).and_then(|o| match o.workload {
            Some(w) => run_one(w, &o),
            None => run_all(&o),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("netmax-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs two result files (or directories of them)".into());
    };
    let manifest = report::read_manifest(&repo_root().join("BENCHMARK.json"))?;
    let a = report::read_results(Path::new(a))?;
    let b = report::read_results(Path::new(b))?;
    let (table, any_worse) = report::compare(&manifest, &a, &b);
    print!("{table}");
    Ok(!any_worse)
}

/// Every workload, each in a fresh process on one thread.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in Workload::ALL {
        for traced in [false, true] {
            if traced && !o.trace {
                continue;
            }
            let part = out_dir().join(format!("run-{}-{}.json", w.name(), u8::from(traced)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", if traced { "1" } else { "0" }])
                .args(["--seconds", &o.seconds.to_string()])
                .arg("--out")
                .arg(&part);
            if let Some(seed) = o.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            if o.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            // A child that died before writing its part has nothing to merge.
            if let Ok(mut part_runs) = report::read_result_doc(&part) {
                runs.append(&mut part_runs);
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    let out = o.out.clone().unwrap_or_else(|| out_dir().join("result.json"));
    write_file(&out, &(report::result_doc(&runs).pretty() + "\n"))?;
    eprintln!("wrote {}", out.display());
    Ok(all_ok)
}

/// Operations attempted and failed, and the named correctness checks.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
    checks: Vec<(String, bool)>,
}

impl Ledger {
    /// A correctness check is an operation: a mismatch is a failure.
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
        self.checks.push((name.to_string(), ok));
    }

    /// Runs one pass, turning a typed error or a panic into a failed
    /// operation.
    fn pass(&mut self, run: impl FnOnce() -> Result<Pass, SessionError>) -> Option<Pass> {
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(pass)) => {
                self.attempted += pass.operations;
                Some(pass)
            }
            Ok(Err(e)) => {
                eprintln!("pass failed: {e}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("pass panicked");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }
}

/// How many passes a run makes: as many as fit in `seconds`, at least
/// `min`; a smoke run makes exactly `min`.
struct Budget {
    seconds: f64,
    min: usize,
    smoke: bool,
}

impl Budget {
    fn more(&self, start: Instant, done: usize) -> bool {
        done < self.min || (!self.smoke && start.elapsed().as_secs_f64() < self.seconds)
    }
}

fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_one(w: Workload, o: &Options) -> Result<bool, String> {
    let seed = o.seed.unwrap_or(w.default_seed());
    let cell = w.cell(seed, o.smoke);
    let result = if o.trace { traced_run(&cell, seed, o) } else { untraced_run(&cell, seed, o) };
    print!("{}", result.listing());
    if let Some(out) = &o.out {
        write_file(out, &(report::result_doc(std::slice::from_ref(&result)).pretty() + "\n"))?;
    }
    println!("{}", result.final_line());
    Ok(result.correct)
}

fn finish(
    cell: &Cell,
    seed: u64,
    trace: bool,
    passes: usize,
    mut ledger: Ledger,
    metrics: MetricSet,
) -> RunResult {
    let missing = metrics.missing();
    if !missing.is_empty() {
        eprintln!("metrics not measured: {missing:?}");
    }
    ledger.check("all_metrics_measured", missing.is_empty());
    ledger.check("all_metrics_finite", metrics.all_finite());
    RunResult {
        workload: cell.workload.name().into(),
        seed,
        trace,
        passes,
        correct: ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        checks: ledger.checks,
        metrics: metrics.into_values(),
    }
}

/// The end-to-end run: tracing off, as many passes as the budget holds.
fn untraced_run(cell: &Cell, seed: u64, o: &Options) -> RunResult {
    let w = cell.workload;
    let mut ledger = Ledger::default();
    // Reference work, off the clock. It also warms caches and the
    // allocator before the first measured pass.
    let mut expected_digest = None;
    match w {
        Workload::Paper8Fast => {
            let strict = Workload::Paper8.cell(seed, o.smoke);
            let reference = ledger.pass(|| workloads::run_pass(&strict, 0, &mut Off, None, false));
            let fast = ledger.pass(|| workloads::run_pass(cell, 0, &mut Off, None, false));
            if let (Some(s), Some(f)) = (&reference, &fast) {
                ledger.check("fast_matches_strict", fast_matches_strict(s, f));
            }
            expected_digest = fast.map(|p| p.digest);
        }
        Workload::Snap1024 => {
            let verified = ledger.pass(|| workloads::run_pass(cell, 0, &mut Off, None, true));
            if let Some(snap) = verified.as_ref().and_then(|p| p.snap.as_ref()) {
                ledger.check("reconstruct_equals_fresh_snapshot", snap.reconstruct_mismatches == 0);
                let straight = workloads::uninterrupted_snapshot(cell, snap.final_global_step);
                ledger.check(
                    "restored_run_equals_uninterrupted",
                    straight.is_ok_and(|bytes| bytes == snap.final_snapshot),
                );
            }
            expected_digest = verified.map(|p| p.digest);
        }
        _ => {}
    }

    let budget = Budget { seconds: o.seconds, min: if o.smoke { 2 } else { 3 }, smoke: o.smoke };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut tried = 0;
    while budget.more(start, tried) {
        tried += 1;
        passes.extend(ledger.pass(|| workloads::run_pass(cell, tried, &mut Off, None, false)));
    }

    let mut metrics = MetricSet::new(END_TO_END);
    if let Some(first) = passes.first() {
        let expected = expected_digest.unwrap_or(first.digest);
        ledger.check("passes_repeat_exactly", passes.iter().all(|p| p.digest == expected));
        workload_checks(cell, seed, o.smoke, first, &mut ledger);
        // Host times are the fastest reading of the run, arm by arm: the
        // simulator is deterministic and single-threaded, so every reading
        // is the true cost plus whatever the machine's other tenants
        // added, and the minimum is the steadiest estimate of the cost
        // (measured in README.md: 3x steadier than the median here).
        let fastest_arms: f64 = (0..first.arms.len())
            .map(|a| trace::fastest(passes.iter().map(|p| p.arms[a].real_s)))
            .sum();
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        metrics.fastest(
            "real_s",
            fastest_arms,
            &passes.iter().map(|p| p.real_s).collect::<Vec<_>>(),
        );
        metrics.fastest("setup_s", trace::fastest(setups.iter().copied()), &setups);
        if let Some(arm) = first.arm(w.report_arm()) {
            metrics.set("sim_s", arm.report.wall_clock_s);
            metrics.set("final_loss", arm.report.final_train_loss);
        }
    }
    if let Some(mb) = peak_rss_mb() {
        metrics.set("peak_rss_mb", mb);
    }
    finish(cell, seed, false, passes.len(), ledger, metrics)
}

fn fast_matches_strict(strict: &Pass, fast: &Pass) -> bool {
    strict.arms.len() == fast.arms.len()
        && strict.arms.iter().zip(&fast.arms).all(|(s, f)| {
            s.report.global_steps == f.report.global_steps
                && s.report.wall_clock_s == f.report.wall_clock_s
                && (s.report.final_train_loss - f.report.final_train_loss).abs() <= 0.02
        })
}

/// The checks that read one pass's reports.
fn workload_checks(cell: &Cell, seed: u64, smoke: bool, pass: &Pass, ledger: &mut Ledger) {
    let netmax = pass.arm(AlgorithmKind::NetMax).map(|a| &a.report);
    let adpsgd = pass.arm(AlgorithmKind::AdPsgd).map(|a| &a.report);
    match cell.workload {
        // The committed rows were produced at the default seed and full size.
        Workload::Paper8 if seed == Workload::Paper8.default_seed() && !smoke => {
            let ok = sanity_rows_match(pass).unwrap_or_else(|e| {
                eprintln!("BENCH_sanity.json: {e}");
                false
            });
            ledger.check("reproduces_bench_sanity", ok);
        }
        // The step-budgeted torus cells end at a fixed number of global
        // steps, and the adaptive policy must buy something by then. At
        // n = 256 NetMax gets there sooner in simulated time; at n = 64
        // it does not (nor does it in the registry's own
        // `scale/ridge/n64` cell) but is further down the loss. So the
        // check is that AD-PSGD does not beat it on both.
        Workload::Fleet64 | Workload::Fleet256 => {
            if let (Some(n), Some(a)) = (netmax, adpsgd) {
                let wins_somewhere =
                    n.wall_clock_s < a.wall_clock_s || n.final_train_loss < a.final_train_loss;
                ledger.check("netmax_not_dominated_by_adpsgd", wins_somewhere);
            }
        }
        _ => {}
    }
}

/// Compares the pass with the simulated fields of the committed
/// `BENCH_sanity.json` rows, at that file's printed precision.
fn sanity_rows_match(pass: &Pass) -> Result<bool, String> {
    let path = repo_root().join("BENCH_sanity.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let rows = doc.field("results").and_then(Json::as_arr).map_err(|e| e.to_string())?;
    if rows.len() != pass.arms.len() {
        return Ok(false);
    }
    let mut all = true;
    for (row, arm) in rows.iter().zip(&pass.arms) {
        let r = &arm.report;
        let same = |key: &str, ours: f64, digits: usize| -> bool {
            let printed: f64 = format!("{ours:.digits$}").parse().unwrap_or(f64::NAN);
            let ok = row.get(key).and_then(|v| v.as_f64().ok()) == Some(printed);
            if !ok {
                eprintln!("BENCH_sanity.json: {} `{key}` differs (ours {printed})", r.algorithm);
            }
            ok
        };
        all &= row.get("algorithm").and_then(|v| v.as_str().ok()) == Some(arm.kind.label());
        all &= same("simulated_wall_clock_s", r.wall_clock_s, 3);
        all &= same("epoch_time_avg_s", r.epoch_time_avg_s(), 4);
        all &= same("comp_cost_per_epoch_s", r.comp_cost_per_epoch_s(), 4);
        all &= same("comm_cost_per_epoch_s", r.comm_cost_per_epoch_s(), 4);
        all &= same("final_train_loss", r.final_train_loss, 6);
        all &= same("final_test_accuracy", r.final_test_accuracy, 4);
        all &= same("global_steps", r.global_steps as f64, 0);
        all &= match r.time_to_loss(0.40) {
            Some(t) => same("time_to_loss_0_40_s", t, 2),
            None => row.get("time_to_loss_0_40_s") == Some(&Json::Null),
        };
    }
    Ok(all)
}

/// The per-layer run: untraced and traced passes alternate within the
/// budget (their difference is the tracing overhead), then the
/// control-plane replay and the probes run on spare state.
///
/// Counts and shares come from the workload's own passes only, so a layer
/// off its path reads count 0 and share 0. Every *time* is measured on
/// every workload: where the passes do not call a layer, a probe drives
/// the same public calls on this workload's scenario (a few Allreduce
/// rounds with a sample after each, one snapshot chain, the monitor round
/// an attached monitor would have run) and says what one call costs at
/// this workload's size.
fn traced_run(cell: &Cell, seed: u64, o: &Options) -> RunResult {
    let w = cell.workload;
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let has_monitor = cell.replay_arm() == AlgorithmKind::NetMax;
    let mut replay = ControlPlaneReplay::new(cell.scenario.workers(), has_monitor);

    let budget = Budget { seconds: o.seconds, min: if o.smoke { 1 } else { 2 }, smoke: o.smoke };
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut pairs = 0;
    while budget.more(start, pairs) {
        pairs += 1;
        plain.extend(ledger.pass(|| workloads::run_pass(cell, pairs, &mut Off, None, false)));
        traced.extend(
            ledger.pass(|| workloads::run_pass(cell, pairs, &mut tracer, Some(&mut replay), false)),
        );
    }

    let mut metrics = MetricSet::new(PER_LAYER);
    if let (Some(first), false) = (traced.first(), plain.is_empty()) {
        ledger.check(
            "passes_repeat_exactly",
            plain.iter().chain(&traced).all(|p| p.digest == first.digest),
        );
        // Probe passes for the layers the workload's own passes never call.
        let mut probes = Tracer::new();
        let mut probe_snap = None;
        if tracer.count(span::ROUND) == 0 || tracer.count(span::SAMPLE) == 0 {
            ledger.pass(|| workloads::run_pass(&cell.rounds_probe(), 0, &mut probes, None, false));
        }
        if tracer.count(span::FULL_ENCODE) == 0 {
            probe_snap = ledger
                .pass(|| workloads::run_pass(&cell.snapshot_probe(), 0, &mut probes, None, false));
        }
        let spans = Spans { passes: &tracer, probes: &probes };
        span_metrics(&spans, &plain, &traced, &mut metrics);
        let snap = first.snap.as_ref().or(probe_snap.as_ref().and_then(|p| p.snap.as_ref()));
        snapshot_metrics(&spans, snap, &mut metrics, &mut ledger);
        // Spare state of this workload's scenario for the replay and the
        // micro-probes.
        let mut spare = cell.scenario.build_env();
        control_plane_metrics(&spare, &spans, &replay, &mut metrics);
        if let Err(e) = probe_metrics(&mut spare, &mut metrics) {
            eprintln!("probe failed: {e}");
            ledger.check("probes_ran", false);
        }
        let speedup = match (first.arm(AlgorithmKind::AdPsgd), first.arm(AlgorithmKind::NetMax)) {
            (Some(a), Some(n)) => a.report.wall_clock_s / n.report.wall_clock_s,
            _ => 0.0,
        };
        metrics.set("netmax.sim_speedup_x", speedup);
    }
    let trace_path = out_dir().join(format!("trace-{}.json", w.name()));
    if let Err(e) = write_file(&trace_path, &tracer.to_json(w.name())) {
        eprintln!("trace not written: {e}");
    }
    finish(cell, seed, true, traced.len(), ledger, metrics)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn scaled(values: &[f64], factor: f64) -> Vec<f64> {
    values.iter().map(|v| v * factor).collect()
}

/// The spans of the workload's own traced passes, and those of the probe
/// passes that stand in for layers the workload never calls.
struct Spans<'a> {
    passes: &'a Tracer,
    probes: &'a Tracer,
}

impl Spans<'_> {
    /// Durations (s) of a layer's calls: the workload's own if it made
    /// any, else the probe's.
    fn seconds(&self, name: &str) -> Vec<f64> {
        let own = self.passes.seconds(name);
        if own.is_empty() {
            self.probes.seconds(name)
        } else {
            own
        }
    }
}

/// The metrics read off the step, set-up and arm spans.
fn span_metrics(spans: &Spans, plain: &[Pass], traced: &[Pass], m: &mut MetricSet) {
    let tracer = spans.passes;
    let per_pass = |name: &str| tracer.count(name) as f64 / traced.len() as f64;
    let arm_s = tracer.total_s(span::ARM);
    let steps_us = scaled(&spans.seconds(span::STEP), 1e6);
    m.set("engine.steps", per_pass(span::STEP));
    m.sample("engine.step_us.p50", &steps_us);
    m.set("engine.step_us.p99", trace::percentile(&steps_us, 99.0));
    m.set("engine.step_share", share(tracer.total_s(span::STEP), arm_s));
    m.sample("engine.finish_ms", &scaled(&spans.seconds(span::FINISH), 1e3));
    m.sample("engine.env_build_ms", &scaled(&spans.seconds(span::ENV_BUILD), 1e3));
    m.sample("engine.session_new_ms", &scaled(&spans.seconds(span::SESSION_NEW), 1e3));
    m.sample("ml.workload_build_ms", &scaled(&spans.seconds(span::WORKLOAD_BUILD), 1e3));
    m.sample("baselines.round_us.p50", &scaled(&spans.seconds(span::ROUND), 1e6));
    m.set("baselines.round_share", share(tracer.total_s(span::ROUND), arm_s));
    m.set("recorder.samples", per_pass(span::SAMPLE));
    m.sample("recorder.sample_ms.p50", &scaled(&spans.seconds(span::SAMPLE), 1e3));
    m.set("recorder.share", share(tracer.total_s(span::SAMPLE), arm_s));
    m.set("monitor.rounds", per_pass(span::MONITOR));
    // The monitor's share is of the NetMax arm alone: the other arms
    // have no control plane to spend time in.
    let netmax_arm_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == span::ARM && tracer.run_label(s).ends_with("/netmax"))
        .map(trace::Span::seconds)
        .sum();
    m.set("monitor.share", share(tracer.total_s(span::MONITOR), netmax_arm_s));
    m.set("trace.unattributed_pct", 100.0 * share(tracer.arm_self_s(), arm_s));
    // Fastest against fastest, like the end-to-end `real_s`.
    let real = |passes: &[Pass]| trace::fastest(passes.iter().map(|p| p.real_s));
    m.set("trace.overhead_pct", 100.0 * (real(traced) / real(plain) - 1.0));
}

/// The checkpoint layer's spans and the snapshot sizes.
fn snapshot_metrics(
    spans: &Spans,
    snap: Option<&workloads::SnapStats>,
    m: &mut MetricSet,
    ledger: &mut Ledger,
) {
    let layer = [span::FULL_ENCODE, span::DELTA_ENCODE, span::RECONSTRUCT, span::RESTORE];
    for (metric, name) in [
        "checkpoint.full_encode_ms",
        "checkpoint.delta_encode_ms",
        "checkpoint.reconstruct_ms",
        "checkpoint.restore_ms",
    ]
    .into_iter()
    .zip(layer)
    {
        m.sample(metric, &scaled(&spans.seconds(name), 1e3));
    }
    let busy: f64 = layer.iter().map(|name| spans.passes.total_s(name)).sum();
    m.set("checkpoint.share", share(busy, spans.passes.total_s(span::ARM)));
    m.set("checkpoint.full_kb", snap.map_or(0.0, |s| s.full_bytes as f64 / 1024.0));
    m.sample(
        "checkpoint.delta_kb",
        &snap.map_or(Vec::new(), |s| scaled(&s.delta_bytes, 1.0 / 1024.0)),
    );
    m.sample("checkpoint.changed_nodes", &snap.map_or(Vec::new(), |s| s.changed_nodes.clone()));
    let decode_ms = match snap {
        Some(s) => layers::codec_decode_ms(&s.final_snapshot).unwrap_or_else(|e| {
            eprintln!("snapshot does not decode: {e}");
            ledger.check("snapshot_decodes", false);
            0.0
        }),
        None => 0.0,
    };
    m.set("json.codec_decode_ms", decode_ms);
}

/// The monitor's rounds and the replayed round's attribution.
fn control_plane_metrics(
    spare: &Environment,
    spans: &Spans,
    replay: &ControlPlaneReplay,
    m: &mut MetricSet,
) {
    let l = replay.measure(&spare.topology).unwrap_or_default();
    // Rounds the arm really ran; on an arm without a monitor, the one
    // replayed round.
    let mut rounds_ms = scaled(&spans.passes.seconds(span::MONITOR), 1e3);
    if rounds_ms.is_empty() {
        rounds_ms.push(l.assemble_ms + l.generate_ms);
    }
    m.sample("monitor.round_ms.p50", &rounds_ms);
    m.set("monitor.round_ms.max", rounds_ms.iter().copied().fold(0.0, f64::max));
    let attributed = l.lp_ms + l.build_y_ms + l.lambda2_ms;
    m.set("monitor.assemble_ms", l.assemble_ms);
    m.set("policy.generate_ms", l.generate_ms);
    m.set("policy.candidates", l.candidates as f64);
    m.set("policy.lp_ms", l.lp_ms);
    m.set("policy.build_y_ms", l.build_y_ms);
    m.set("policy.lambda2_ms", l.lambda2_ms);
    m.set("policy.unattributed_pct", 100.0 * share(l.generate_ms - attributed, l.generate_ms));
    m.set("lp.row_solve_us", 1e3 * share(l.lp_ms, (l.candidates * l.nodes) as f64));
    m.sample("linalg.lambda2_call_ms", &l.lambda2_calls_ms);
    m.sample("linalg.power_iters", &l.power_iters);
    m.set("linalg.power_converged", share(l.power_converged as f64, l.power_iters.len() as f64));
}

/// Micro-probes of single public calls on a spare environment.
fn probe_metrics(env: &mut Environment, m: &mut MetricSet) -> Result<(), SessionError> {
    m.set("engine.pull_us", layers::pull_us(env, PROBE_CALLS)?);
    m.set("net.comm_time_ns", layers::comm_time_ns(env, PROBE_CALLS));
    m.set("net.queue_hold_ns", layers::queue_hold_ns(env.num_nodes(), 100 * PROBE_CALLS));
    m.set("ml.grad_step_us", layers::grad_step_us(env, PROBE_CALLS));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_defaults_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = report::read_manifest(&path).unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(manifest.workloads, names);
        let pairs = |d: &[report::Declared]| -> Vec<(String, String)> {
            d.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs(&manifest.end_to_end), table(END_TO_END));
        assert_eq!(pairs(&manifest.per_layer), table(PER_LAYER));
        assert!(manifest.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(manifest.per_layer.iter().all(|m| m.bound.is_none()));
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.field("run_seconds").unwrap().as_f64().unwrap(), DEFAULT_SECONDS);
    }

    #[test]
    fn driver_and_human_flag_forms_parse() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            parse_options(&args("--workload fleet64 --seed 3 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(o.workload, Some(Workload::Fleet64));
        assert_eq!((o.seed, o.seconds, o.trace), (Some(3), 2.5, true));
        assert!(!parse_options(&args("--trace 0 --smoke")).unwrap().trace);
        assert!(parse_options(&args("--trace --smoke")).unwrap().trace);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seconds -1")).is_err());
    }
}
