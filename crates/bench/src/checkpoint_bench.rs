//! `checkpoint` — the checkpoint I/O benchmark behind
//! `BENCH_checkpoint.json`.
//!
//! Measures, per fleet size, the cost of snapshotting a live session
//! three ways: the in-memory logical `session-checkpoint/v2` document
//! rendered as pretty JSON (encode = build + render, decode = parse),
//! the NMXB `session-checkpoint/v3` container (encode =
//! [`Session::checkpoint_binary`] on a warm scratch, decode =
//! [`decode_session_v3`]), and a node-granular incremental delta taken a
//! few training steps after the previous full snapshot — on a gossip arm
//! only the nodes that actually stepped re-serialize. NMXB is the only
//! format anything writes or restores; the JSON columns stay so the
//! numbers that retired the JSON file format remain reproducible.
//! Timings are best-of-`repeats`; sizes come from the best-timed
//! repetition. The fixture mirrors the `scale/*` group: AD-PSGD on a
//! torus over the heterogeneous dynamic network, ridge workload.

use crate::common;
use crate::experiments::scale;
use crate::spec::Arm;
use netmax_core::engine::{
    decode_session_v3, AlgorithmKind, CheckpointScratch, Scenario, Session, StopCondition,
    TopologyKind,
};
use netmax_json::{codec, Json, ToJson};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;
use std::time::Instant;

/// Schema tag of `BENCH_checkpoint.json`; bump on breaking changes.
pub const CHECKPOINT_BENCH_SCHEMA: &str = "netmax-bench/checkpoint-bench/v1";

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Fleet sizes to measure (each needs a balanced torus shape).
    pub node_counts: Vec<usize>,
    /// Timing repetitions per point (best, i.e. minimum, kept).
    pub repeats: usize,
    /// Training steps between a full snapshot and its delta — the number
    /// of nodes that can have changed.
    pub delta_steps: u64,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// The committed `BENCH_checkpoint.json` baseline.
    pub fn full() -> Self {
        Self { node_counts: vec![8, 256, 1024], repeats: 3, delta_steps: 4, seed: 11 }
    }

    /// CI smoke scale.
    pub fn quick() -> Self {
        Self { node_counts: vec![8, 256], repeats: 1, ..Self::full() }
    }
}

/// One measured fleet size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Fleet size.
    pub nodes: usize,
    /// Pretty-JSON document size in bytes.
    pub json_bytes: usize,
    /// Binary full-snapshot size in bytes.
    pub binary_bytes: usize,
    /// Incremental delta size in bytes.
    pub delta_bytes: usize,
    /// Nodes whose state changed within the delta window.
    pub changed_nodes: usize,
    /// JSON encode (build + render) milliseconds, best repetition.
    pub json_encode_ms: f64,
    /// JSON parse milliseconds, best repetition.
    pub json_decode_ms: f64,
    /// Binary full encode milliseconds, best repetition.
    pub binary_encode_ms: f64,
    /// Binary full decode milliseconds, best repetition.
    pub binary_decode_ms: f64,
    /// Delta encode milliseconds, best repetition.
    pub delta_encode_ms: f64,
}

impl Row {
    /// JSON bytes per binary byte.
    pub fn size_ratio(&self) -> f64 {
        self.json_bytes as f64 / self.binary_bytes as f64
    }

    /// JSON encode+decode time per binary encode+decode time.
    pub fn speed_ratio(&self) -> f64 {
        (self.json_encode_ms + self.json_decode_ms)
            / (self.binary_encode_ms + self.binary_decode_ms)
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Changed-node count of a delta document (the leading `u32` of its
/// `nodes` section).
fn delta_changed_count(delta: &[u8]) -> usize {
    codec::read_document(delta)
        .ok()
        .and_then(|doc| doc.section("nodes")?.get(..4).map(|b| b.try_into().ok()))
        .flatten()
        .map_or(0, |b| u32::from_le_bytes(b) as usize)
}

/// The benchmark scenario at fleet size `n`: AD-PSGD (pure gossip, no
/// monitor rounds to dodge) on the scale group's torus fabric.
fn scenario(p: &Params, n: usize) -> Scenario {
    let (rows, cols) = scale::torus_dims(n);
    let mut cfg = common::train_config(1e6, p.seed);
    cfg.stop = Some(StopCondition::MaxGlobalSteps(10_000_000));
    cfg.record_every_steps = u64::MAX / 2;
    Scenario::builder()
        .workers(n)
        .topology(TopologyKind::Torus { rows, cols })
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(p.seed).lr_scaled(scale::SCALE_LR_SCALE))
        .slowdown(common::slowdown())
        .train_config(cfg)
        .build()
}

fn measure_point(p: &Params, n: usize) -> Row {
    let sc = scenario(p, n);
    let workload = sc.workload();
    let alpha = workload.optim.lr;
    let mut algo = Arm::new(AlgorithmKind::AdPsgd).instantiate(alpha);
    let mut env = sc.build_env_with(workload);
    let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
    // Warm-up: roughly one step per node, so every sampler, clock, and
    // parameter vector carries live state.
    while session.env().global_step < n as u64 {
        session.step();
    }

    let mut row = Row {
        nodes: n,
        json_bytes: 0,
        binary_bytes: 0,
        delta_bytes: 0,
        changed_nodes: 0,
        json_encode_ms: f64::INFINITY,
        json_decode_ms: f64::INFINITY,
        binary_encode_ms: f64::INFINITY,
        binary_decode_ms: f64::INFINITY,
        delta_encode_ms: f64::INFINITY,
    };
    let mut scratch = CheckpointScratch::new();
    let mut bin = Vec::new();
    let mut delta = Vec::new();
    for _ in 0..p.repeats {
        let t0 = Instant::now();
        let doc = session.checkpoint();
        let text = doc.pretty();
        let json_encode = ms(t0);
        let t0 = Instant::now();
        let parsed = Json::parse(&text).expect("checkpoint JSON parses");
        let json_decode = ms(t0);
        drop(parsed);
        if json_encode + json_decode < row.json_encode_ms + row.json_decode_ms {
            row.json_encode_ms = json_encode;
            row.json_decode_ms = json_decode;
            row.json_bytes = text.len();
        }

        let t0 = Instant::now();
        session.checkpoint_binary(&mut scratch, &mut bin).expect("binary encode");
        let binary_encode = ms(t0);
        let t0 = Instant::now();
        let decoded = decode_session_v3(&bin).expect("binary decode");
        let binary_decode = ms(t0);
        drop(decoded);
        if binary_encode + binary_decode < row.binary_encode_ms + row.binary_decode_ms {
            row.binary_encode_ms = binary_encode;
            row.binary_decode_ms = binary_decode;
            row.binary_bytes = bin.len();
        }

        // The delta window: a handful of gossip steps, each mutating one
        // puller's node state — the snapshot re-serializes only those.
        let resume_at = session.env().global_step + p.delta_steps;
        while session.env().global_step < resume_at {
            session.step();
        }
        let t0 = Instant::now();
        session.checkpoint_delta(&mut scratch, &mut delta).expect("delta encode");
        let delta_encode = ms(t0);
        if delta_encode < row.delta_encode_ms {
            row.delta_encode_ms = delta_encode;
            row.delta_bytes = delta.len();
            row.changed_nodes = delta_changed_count(&delta);
        }
    }
    eprintln!(
        "  n={n}: json {} B, binary {} B ({:.1}x smaller), delta {} B ({} node(s) changed), \
         encode+decode {:.2}ms vs {:.2}ms ({:.1}x faster)",
        row.json_bytes,
        row.binary_bytes,
        row.size_ratio(),
        row.delta_bytes,
        row.changed_nodes,
        row.json_encode_ms + row.json_decode_ms,
        row.binary_encode_ms + row.binary_decode_ms,
        row.speed_ratio(),
    );
    row
}

/// Runs the benchmark point by point (sequentially: timings are real).
pub fn run(p: &Params) -> Vec<Row> {
    assert!(p.repeats > 0, "need at least one repetition");
    p.node_counts.iter().map(|&n| measure_point(p, n)).collect()
}

/// Assembles the versioned `netmax-bench/checkpoint-bench/v1` document.
pub fn checkpoint_bench_doc(p: &Params, rows: &[Row]) -> Json {
    Json::obj([
        ("schema", Json::Str(CHECKPOINT_BENCH_SCHEMA.into())),
        (
            "bench",
            Json::obj([
                ("algorithm", Json::Str("ad-psgd".into())),
                ("workload", Json::Str("ridge".into())),
                ("topology", Json::Str("torus".into())),
                ("node_counts", p.node_counts.to_json()),
                ("repeats", p.repeats.to_json()),
                ("delta_steps", p.delta_steps.to_json()),
                ("seed", p.seed.to_json()),
            ]),
        ),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("nodes", r.nodes.to_json()),
                            ("json_bytes", r.json_bytes.to_json()),
                            ("binary_bytes", r.binary_bytes.to_json()),
                            ("delta_bytes", r.delta_bytes.to_json()),
                            ("changed_nodes", r.changed_nodes.to_json()),
                            ("json_encode_ms", r.json_encode_ms.to_json()),
                            ("json_decode_ms", r.json_decode_ms.to_json()),
                            ("binary_encode_ms", r.binary_encode_ms.to_json()),
                            ("binary_decode_ms", r.binary_decode_ms.to_json()),
                            ("delta_encode_ms", r.delta_encode_ms.to_json()),
                            ("size_ratio", r.size_ratio().to_json()),
                            ("speed_ratio", r.speed_ratio().to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Plain-text table for the CLI.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:>6} {:>12} {:>12} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}\n",
        "n", "json(B)", "binary(B)", "delta(B)", "changed", "json-e(ms)", "json-d(ms)",
        "bin-e(ms)", "bin-d(ms)", "dlt-e(ms)", "size-x", "speed-x"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>12} {:>12} {:>10} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.1} {:>7.1}\n",
            r.nodes,
            r.json_bytes,
            r.binary_bytes,
            r.delta_bytes,
            r.changed_nodes,
            r.json_encode_ms,
            r.json_decode_ms,
            r.binary_encode_ms,
            r.binary_decode_ms,
            r.delta_encode_ms,
            r.size_ratio(),
            r.speed_ratio(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::runner::RunOptions;

    #[test]
    fn small_point_orders_the_three_formats() {
        let p = Params { node_counts: vec![8], repeats: 1, delta_steps: 4, seed: 11 };
        let rows = run(&p);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.binary_bytes < r.json_bytes, "{} !< {}", r.binary_bytes, r.json_bytes);
        assert!(r.delta_bytes < r.binary_bytes, "{} !< {}", r.delta_bytes, r.binary_bytes);
        assert!(r.changed_nodes >= 1 && r.changed_nodes <= p.delta_steps as usize);
        let doc = checkpoint_bench_doc(&p, &rows);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(
            parsed.field("schema").unwrap().as_str().unwrap(),
            CHECKPOINT_BENCH_SCHEMA
        );
        assert_eq!(parsed.field("results").unwrap().as_arr().unwrap().len(), 1);
        assert!(render_table(&rows).contains("speed-x"));
    }

    /// The acceptance scale point: binary suspend → resume at n = 1024 is
    /// byte-identical to the uninterrupted run, through the same
    /// `scale/*` spec the sweep uses (budget shortened, gossip arm only).
    #[test]
    fn scale_point_binary_suspend_resume_is_byte_identical_at_n_1024() {
        let p = scale::Params {
            node_counts: vec![1024],
            steps_per_node: 2,
            repeats: 1,
            seed: 11,
        };
        let mut spec = scale::specs(&p).remove(0);
        spec.arms.retain(|a| a.algorithm == AlgorithmKind::AdPsgd);
        assert_eq!(spec.arms.len(), 1);

        let direct = runner::execute_with_threads(&spec, 2);
        let suspended = runner::execute_suspended(&spec, 2, 512).unwrap();
        let bytes = runner::checkpoint_bytes(&suspended).unwrap();
        let parsed = runner::parse_checkpoint_bytes(&bytes).unwrap();
        let resumed =
            runner::resume(&parsed, &RunOptions { threads: 2, ..Default::default() }).unwrap();

        let (a, b) = (runner::artifact(&[direct]), runner::artifact(&[resumed]));
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "n=1024 binary suspend + resume must reproduce the uninterrupted artifact"
        );
    }
}
