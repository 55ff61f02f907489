//! Metric names and units, the result documents, and `compare`.
//!
//! The tables here are the benchmark's own statement of what it prints;
//! `.src/tests/smoke.rs` holds them equal to `BENCHMARK.json` in both
//! directions. Bounds and directions live only in `BENCHMARK.json`, which
//! `compare` reads.

use netmax_json::{Json, JsonError};
use std::fmt::Write as _;
use std::path::Path;

/// `(name, unit)` of every end-to-end metric, printed by an untraced run
/// of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("real_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_s", "sim_s"),
    ("final_loss", "loss"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run of
/// every workload. A layer that is not on a workload's path reads 0 there
/// (zero calls, zero time).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.steps", "count"),
    ("engine.step_us.p50", "us"),
    ("engine.step_us.p99", "us"),
    ("engine.step_share", "share"),
    ("engine.finish_ms", "ms"),
    ("engine.env_build_ms", "ms"),
    ("engine.session_new_ms", "ms"),
    ("engine.pull_us", "us"),
    ("baselines.round_us.p50", "us"),
    ("baselines.round_share", "share"),
    ("recorder.samples", "count"),
    ("recorder.sample_ms.p50", "ms"),
    ("recorder.share", "share"),
    ("monitor.rounds", "count"),
    ("monitor.round_ms.p50", "ms"),
    ("monitor.round_ms.max", "ms"),
    ("monitor.share", "share"),
    ("monitor.assemble_ms", "ms"),
    ("policy.generate_ms", "ms"),
    ("policy.candidates", "count"),
    ("policy.lp_ms", "ms"),
    ("policy.build_y_ms", "ms"),
    ("policy.lambda2_ms", "ms"),
    ("policy.unattributed_pct", "%"),
    ("lp.row_solve_us", "us"),
    ("linalg.lambda2_call_ms", "ms"),
    ("linalg.power_iters", "count"),
    ("linalg.power_converged", "share"),
    ("net.queue_hold_ns", "ns"),
    ("net.comm_time_ns", "ns"),
    ("ml.workload_build_ms", "ms"),
    ("ml.grad_step_us", "us"),
    ("checkpoint.full_encode_ms", "ms"),
    ("checkpoint.delta_encode_ms", "ms"),
    ("checkpoint.reconstruct_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.full_kb", "kB"),
    ("checkpoint.delta_kb", "kB"),
    ("checkpoint.changed_nodes", "count"),
    ("checkpoint.share", "share"),
    ("json.codec_decode_ms", "ms"),
    ("netmax.sim_speedup_x", "x"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// One reported metric: a median (or single reading) with the sample
/// count and quartiles behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

/// Collects the metrics of one run against one of the tables above.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Measured>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self { table, values: Vec::new() }
    }

    /// A single reading.
    pub fn set(&mut self, name: &str, value: f64) {
        self.push(name, value, 1, value, value);
    }

    /// The median of a sample, with its quartiles.
    pub fn sample(&mut self, name: &str, values: &[f64]) {
        let q = crate::trace::quartiles(values);
        self.push(name, q.median, q.n, q.q1, q.q3);
    }

    /// A host time of a run: `fastest` is what is reported, `passes` are
    /// the per-pass readings whose count and quartiles go beside it.
    pub fn fastest(&mut self, name: &str, fastest: f64, passes: &[f64]) {
        let q = crate::trace::quartiles(passes);
        self.push(name, fastest, q.n, q.q1, q.q3);
    }

    fn push(&mut self, name: &str, value: f64, n: usize, q1: f64, q3: f64) {
        let unit = self
            .table
            .iter()
            .find(|(m, _)| *m == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's table"))
            .1;
        assert!(self.values.iter().all(|m| m.name != name), "metric `{name}` set twice");
        self.values.push(Measured { name: name.into(), unit: unit.into(), value, n, q1, q3 });
    }

    /// The measured metrics in the table's order.
    pub fn into_values(mut self) -> Vec<Measured> {
        let at = |m: &Measured| self.table.iter().position(|(n, _)| *n == m.name);
        self.values.sort_by_key(at);
        self.values
    }

    /// Names of the table not set yet.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|m| m.value.is_finite())
    }

    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.values.iter().all(|m| m.name != *n))
            .collect()
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub passes: usize,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`. Numbers are written as the
    /// shortest text that reads back to the same `f64`: every digit
    /// measured, nothing rounded away.
    pub fn final_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = [("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.clone()))];
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i128)),
            ("failed", Json::Int(self.failed as i128)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The human listing: every metric by name with its unit and the
    /// sample count beside every median, then every check.
    pub fn listing(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}  passes {}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.passes
        );
        for m in &self.metrics {
            let _ = write!(out, "  {:<28} {:>16.6} {:<6}", m.name, m.value, m.unit);
            if m.n > 1 {
                let _ = write!(out, " n={} q1={:.6} q3={:.6}", m.n, m.q1, m.q3);
            }
            out.push('\n');
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "  check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(
            out,
            "  operations: {} attempted, {} failed{}",
            self.attempted,
            self.failed,
            if self.correct { "" } else { "  ** INCORRECT **" }
        );
        out
    }

    pub fn to_json(&self) -> Json {
        let checks = self.checks.iter().map(|(n, ok)| (n.clone(), Json::Bool(*ok))).collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = [
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                    ("n", Json::Int(m.n as i128)),
                    ("q1", Json::Num(m.q1)),
                    ("q3", Json::Num(m.q3)),
                ];
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("trace", Json::Bool(self.trace)),
            ("passes", Json::Int(self.passes as i128)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i128)),
            ("failed", Json::Int(self.failed as i128)),
            ("checks", Json::Obj(checks)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Obj(metrics) = v.field("metrics")? else {
            return Err(JsonError::schema("`metrics` must be an object".into()));
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                Ok(Measured {
                    name: name.clone(),
                    unit: m.field("unit")?.as_str()?.to_string(),
                    value: m.field("value")?.as_f64()?,
                    n: m.field("n")?.as_usize()?,
                    q1: m.field("q1")?.as_f64()?,
                    q3: m.field("q3")?.as_f64()?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let Json::Obj(checks) = v.field("checks")? else {
            return Err(JsonError::schema("`checks` must be an object".into()));
        };
        let checks = checks
            .iter()
            .map(|(name, ok)| Ok((name.clone(), ok.as_bool()?)))
            .collect::<Result<_, JsonError>>()?;
        Ok(Self {
            workload: v.field("workload")?.as_str()?.to_string(),
            seed: v.field("seed")?.as_u64()?,
            trace: v.field("trace")?.as_bool()?,
            passes: v.field("passes")?.as_usize()?,
            correct: v.field("correct")?.as_bool()?,
            attempted: v.field("attempted")?.as_usize()?,
            failed: v.field("failed")?.as_usize()?,
            checks,
            metrics,
        })
    }
}

pub const RESULT_SCHEMA: &str = "netmax-benchmark/result/v1";

/// A set of runs as written by `--out`.
pub fn result_doc(runs: &[RunResult]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("schema", Json::Str(RESULT_SCHEMA.into())),
        ("nproc", Json::Int(nproc as i128)),
        ("runs", Json::Arr(runs.iter().map(RunResult::to_json).collect())),
    ])
}

/// Every run in a result file, or in every `*.json` of a directory.
pub fn read_results(path: &Path) -> Result<Vec<RunResult>, String> {
    if !path.is_dir() {
        return read_result_doc(path);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for file in files {
        runs.append(&mut read_result_doc(&file)?);
    }
    Ok(runs)
}

pub fn read_result_doc(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parse = || -> Result<Vec<RunResult>, JsonError> {
        let doc = Json::parse(&text)?;
        let schema = doc.field("schema")?.as_str()?;
        if schema != RESULT_SCHEMA {
            return Err(JsonError::schema(format!("unknown schema `{schema}`")));
        }
        doc.field("runs")?.as_arr()?.iter().map(RunResult::from_json).collect()
    };
    parse().map_err(|e| format!("{}: {e}", path.display()))
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse; `None`
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

pub fn read_manifest(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parse = || -> Result<Manifest, JsonError> {
        let doc = Json::parse(&text)?;
        let declared = |key: &str| -> Result<Vec<Declared>, JsonError> {
            doc.field(key)?
                .as_arr()?
                .iter()
                .map(|m| {
                    let better = m.field("better")?.as_str()?;
                    if better != "lower" && better != "higher" {
                        return Err(JsonError::schema(format!("bad direction `{better}`")));
                    }
                    Ok(Declared {
                        name: m.field("name")?.as_str()?.to_string(),
                        unit: m.field("unit")?.as_str()?.to_string(),
                        lower_is_better: better == "lower",
                        bound: m.get("bound").map(Json::as_f64).transpose()?,
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: doc
                .field("workloads")?
                .as_arr()?
                .iter()
                .map(|w| Ok(w.field("name")?.as_str()?.to_string()))
                .collect::<Result<_, JsonError>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    };
    parse().map_err(|e| format!("{}: {e}", path.display()))
}

/// Verdict of `compare` on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    WithinBound,
    Worse,
    /// The spread of either side's passes is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
    /// A per-layer metric (no bound) that differs.
    Moved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Moved => "moved",
        }
    }
}

/// One side of a comparison: a metric on a workload over every run the
/// side holds.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median over the side's runs.
    pub value: f64,
    /// The range the side's readings span: min..max over its runs, or
    /// the pass quartiles of its only run.
    pub low: f64,
    pub high: f64,
    /// Run-to-run spread as a share of the value: the distance between
    /// the quartiles of the runs' values. With one run it is estimated
    /// from its passes: between their quartiles for a median, and from
    /// the reported value up to their lower quartile for a fastest
    /// reading (how far the next-fastest passes are from it).
    pub spread: f64,
}

impl Side {
    pub fn of(readings: &[&Measured]) -> Option<Side> {
        let values: Vec<f64> = readings.iter().map(|m| m.value).collect();
        let q = crate::trace::quartiles(&values);
        let (low, high, q1, q3) = match readings {
            [] => return None,
            [one] if one.value <= one.q1 => (one.value, one.q3, one.value, one.q1),
            [one] => (one.q1, one.q3, one.q1, one.q3),
            _ => (
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                q.q1,
                q.q3,
            ),
        };
        let spread = if q.median == 0.0 { 0.0 } else { (q3 - q1) / q.median.abs() };
        Some(Side { value: q.median, low, high, spread })
    }
}

pub fn verdict(decl: &Declared, a: &Side, b: &Side) -> Verdict {
    if a.value == b.value {
        return Verdict::Identical;
    }
    let Some(bound) = decl.bound else { return Verdict::Moved };
    let worse_by = if decl.lower_is_better { b.value - a.value } else { a.value - b.value };
    let worse_share = if a.value == 0.0 { f64::INFINITY } else { worse_by / a.value.abs() };
    // Every reading of B better than every reading of A resolves the
    // pair whatever the spread.
    let clearly_better = if decl.lower_is_better { b.high < a.low } else { b.low > a.high };
    if !clearly_better && a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_share > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// `compare A B`: one row per (metric, workload), A being the baseline.
/// Each side is every run found in a result file, or in every result
/// file of a directory. Returns the table and whether any row is `WORSE`.
pub fn compare(manifest: &Manifest, a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = format!(
        "{:<12} {:<28} {:>16} {:>16} {:<6} {:>9} {:>8}  {}\n",
        "workload", "metric", "A", "B", "unit", "B/A", "spread%", "verdict"
    );
    let mut any_worse = false;
    let sections = [(false, &manifest.end_to_end), (true, &manifest.per_layer)];
    for workload in &manifest.workloads {
        for (traced, declared) in sections {
            for decl in declared {
                let side = |runs: &[RunResult]| {
                    let readings: Vec<&Measured> = runs
                        .iter()
                        .filter(|r| r.workload == *workload && r.trace == traced)
                        .filter_map(|r| r.metrics.iter().find(|m| m.name == decl.name))
                        .collect();
                    Side::of(&readings)
                };
                let (Some(sa), Some(sb)) = (side(a), side(b)) else { continue };
                let v = verdict(decl, &sa, &sb);
                any_worse |= v == Verdict::Worse;
                let _ = writeln!(
                    out,
                    "{:<12} {:<28} {:>16.6} {:>16.6} {:<6} {:>9.4} {:>8.2}  {}",
                    workload,
                    decl.name,
                    sa.value,
                    sb.value,
                    decl.unit,
                    sb.value / sa.value,
                    100.0 * sa.spread.max(sb.spread),
                    v.label()
                );
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, q1: f64, q3: f64) -> Side {
        let one = Measured { name: "real_s".into(), unit: "s".into(), value, n: 5, q1, q3 };
        Side::of(&[&one]).unwrap()
    }

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "real_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let d = lower(0.08);
        assert_eq!(verdict(&d, &m(1.0, 0.99, 1.01), &m(1.0, 0.9, 1.1)), Verdict::Identical);
        assert_eq!(verdict(&d, &m(1.0, 0.99, 1.01), &m(1.05, 1.04, 1.06)), Verdict::WithinBound);
        assert_eq!(verdict(&d, &m(1.0, 0.99, 1.01), &m(1.2, 1.19, 1.21)), Verdict::Worse);
        assert_eq!(verdict(&d, &m(1.0, 0.9, 1.1), &m(1.2, 1.19, 1.21)), Verdict::Unresolved);
        // Wide spread, but every reading of B beats every reading of A.
        assert_eq!(verdict(&d, &m(1.0, 0.9, 1.1), &m(0.5, 0.45, 0.55)), Verdict::WithinBound);
        let higher = Declared { lower_is_better: false, ..lower(0.01) };
        assert_eq!(verdict(&higher, &m(1.2, 1.2, 1.2), &m(1.1, 1.1, 1.1)), Verdict::Worse);
        assert_eq!(verdict(&higher, &m(1.2, 1.2, 1.2), &m(1.3, 1.3, 1.3)), Verdict::WithinBound);
        let unbounded = Declared { bound: None, ..lower(0.0) };
        assert_eq!(verdict(&unbounded, &m(1.0, 1.0, 1.0), &m(2.0, 2.0, 2.0)), Verdict::Moved);
    }

    #[test]
    fn a_side_of_several_runs_takes_its_spread_across_them() {
        let runs: Vec<Measured> = [1.00, 1.01, 1.02, 1.03, 1.30]
            .iter()
            // Wide pass quartiles, which several runs make irrelevant.
            .map(|&v| Measured {
                name: "real_s".into(),
                unit: "s".into(),
                value: v,
                n: 7,
                q1: 0.5,
                q3: 2.0,
            })
            .collect();
        let side = Side::of(&runs.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(side.value, 1.02);
        assert_eq!((side.low, side.high), (1.00, 1.30));
        // statistics.quantiles([1.00, 1.01, 1.02, 1.03, 1.30], n=4) == [1.005, 1.02, 1.165]
        assert!((side.spread - 0.16 / 1.02).abs() < 1e-12);
        assert!(Side::of(&[]).is_none());
        // One run reporting its fastest pass: spread up to the lower quartile.
        let one = Measured { value: 1.0, q1: 1.04, q3: 1.5, ..runs[0].clone() };
        let side = Side::of(&[&one]).unwrap();
        assert!((side.spread - 0.04).abs() < 1e-12);
        assert_eq!((side.low, side.high), (1.0, 1.5));
    }

    #[test]
    fn result_documents_round_trip() {
        let mut set = MetricSet::new(END_TO_END);
        set.sample("real_s", &[1.0, 1.2, 1.1]);
        set.set("sim_s", 960.769);
        assert_eq!(set.missing(), vec!["setup_s", "peak_rss_mb", "final_loss"]);
        let run = RunResult {
            workload: "paper8".into(),
            seed: 7,
            trace: false,
            passes: 3,
            correct: true,
            attempted: 12,
            failed: 0,
            checks: vec![("repeat_digest".into(), true)],
            metrics: set.into_values(),
        };
        let line = run.final_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.field("attempted").unwrap().as_usize().unwrap(), 12);
        let real = parsed.field("metrics").unwrap().field("real_s").unwrap();
        assert_eq!(real.field("value").unwrap().as_f64().unwrap(), 1.1);
        assert_eq!(real.field("unit").unwrap().as_str().unwrap(), "s");
        let back = RunResult::from_json(&Json::parse(&run.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back.checks, run.checks);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[0].name, "real_s", "table order");
        assert_eq!(back.metrics[0].q3, run.metrics[0].q3);
    }
}
