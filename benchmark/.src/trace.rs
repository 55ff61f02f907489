//! The span recorder and the order statistics every metric is built from.
//!
//! Spans are recorded from the benchmark's own files, around public calls
//! into each layer; nothing inside the workspace is instrumented. The
//! measuring code is generic over [`Probe`]: an untraced pass runs it with
//! [`Off`], whose methods are empty and compile away, so end-to-end
//! numbers never pay for tracing and both kinds of pass execute the same
//! source.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names. The prefix before the first `.` is the layer (a module of
/// the workspace); [`Tracer`] aggregates by exact name.
pub mod span {
    pub const PASS: &str = "pass";
    pub const SETUP: &str = "setup";
    /// One arm from its first `Session::step()` to `Finished` (for
    /// `snap1024`: the snapshot-cycle loop). Step spans are its children.
    pub const ARM: &str = "arm";
    pub const WORKLOAD_BUILD: &str = "ml.workload_build";
    pub const ENV_BUILD: &str = "engine.env_build";
    pub const SESSION_NEW: &str = "engine.session_new";
    pub const STEP: &str = "engine.step";
    pub const FINISH: &str = "engine.finish";
    pub const MEMBERSHIP: &str = "engine.membership";
    pub const ROUND: &str = "baselines.round";
    pub const SAMPLE: &str = "recorder.sample";
    pub const MONITOR: &str = "monitor.round";
    pub const FULL_ENCODE: &str = "checkpoint.full_encode";
    pub const DELTA_ENCODE: &str = "checkpoint.delta_encode";
    pub const RECONSTRUCT: &str = "checkpoint.reconstruct";
    pub const RESTORE: &str = "checkpoint.restore";
}

/// Where the measuring code reports a layer boundary.
pub trait Probe {
    /// Whether spans are kept (lets measuring code skip bookkeeping that
    /// only a trace needs).
    const ON: bool;
    /// Opens a span and returns its token.
    fn enter(&mut self) -> usize;
    /// Closes the span; the name is given here because a step is named
    /// after the event it returned.
    fn exit(&mut self, token: usize, name: &'static str);
    /// Labels the spans that follow with `workload/pass/arm`.
    fn set_run(&mut self, label: &dyn Fn() -> String);
}

/// The probe of an untraced pass: does nothing.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _token: usize, _name: &'static str) {}
    #[inline(always)]
    fn set_run(&mut self, _label: &dyn Fn() -> String) {}
}

/// One recorded span. `parent` is the enclosing span's id (`None` for a
/// pass); `run` indexes [`Tracer::runs`].
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub run: usize,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store of the traced passes of one process.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: Vec<String>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: vec![String::new()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn run_label(&self, span: &Span) -> &str {
        &self.runs[span.run]
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span with this name, in seconds.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::seconds).collect()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        // An empty f64 sum is -0.0; adding 0.0 keeps "no time" printing as 0.
        self.named(name).map(Span::seconds).sum::<f64>() + 0.0
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Time inside `arm` spans that none of their child spans cover — the
    /// benchmark's own loop overhead plus anything the span set misses.
    pub fn arm_self_s(&self) -> f64 {
        let is_arm = |id: usize| self.spans[id].name == span::ARM;
        let children: f64 =
            self.spans.iter().filter(|s| s.parent.is_some_and(is_arm)).map(Span::seconds).sum();
        self.total_s(span::ARM) - children
    }

    /// The spans of the first traced pass as a JSON document (later
    /// passes only feed the aggregates; one pass keeps the file readable).
    pub fn to_json(&self, workload: &str) -> String {
        let first_pass_end = self.named(span::PASS).next().map_or(u64::MAX, |p| p.end_ns);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"netmax-benchmark/trace/v1\",\"workload\":\"{workload}\",\"runs\":["
        );
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(out, "{}\"{r}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("],\"spans\":[\n");
        let mut first = true;
        for s in self.spans.iter().filter(|s| s.end_ns <= first_pass_end) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"run\":{}}}",
                if first { "" } else { ",\n" },
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.run
            );
            first = false;
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for Tracer {
    const ON: bool = true;
    fn enter(&mut self) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: "",
            start_ns: self.now_ns(),
            end_ns: 0,
            run: self.runs.len() - 1,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, token: usize, name: &'static str) {
        let end = self.now_ns();
        // A pass that failed part-way leaves spans open above this one.
        if let Some(at) = self.open.iter().rposition(|&t| t == token) {
            self.open.truncate(at);
        }
        let s = &mut self.spans[token];
        s.end_ns = end;
        s.name = name;
    }

    fn set_run(&mut self, label: &dyn Fn() -> String) {
        self.runs.push(label());
    }
}

/// Median and quartiles of a sample, as Python's
/// `statistics.median` / `statistics.quantiles(values, n=4)` give them
/// (the driver computes its spreads with those).
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Quartiles { n, q1: 0.0, median: 0.0, q3: 0.0 };
    }
    let median = if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) };
    if n == 1 {
        return Quartiles { n, q1: median, median, q3: median };
    }
    // statistics.quantiles, method="exclusive".
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles { n, q1: cut(1), median, q3: cut(3) }
}

/// The smallest reading; what a host time is reported as (see
/// `untraced_run`).
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let arm = t.enter();
        let step = t.enter();
        t.exit(step, span::STEP);
        t.exit(arm, span::ARM);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let expect = spans[0].seconds() - spans[1].seconds();
        assert!((t.arm_self_s() - expect).abs() < 1e-12);
        assert!(t.to_json("w").contains("\"name\":\"engine.step\""));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
