//! `scale/*` — fleet-scale sweep: the headline four on sparse torus
//! fabrics from 32 to 4 096 workers.
//!
//! This group exists to demonstrate (and regression-guard) that every
//! per-step and per-monitor-round cost scales with the topology's edge
//! set, not n²: the control plane is edge-list code throughout (edge-map
//! trackers, per-row Eq. 14 LPs, sparse `Y_P`), beyond
//! [`DENSE_CONTROL_THRESHOLD`](netmax_core::DENSE_CONTROL_THRESHOLD)
//! nodes λ₂ comes from power iteration instead of Jacobi, and the
//! engine's event queue is a binary heap, so dispatch is O(log n) per
//! step whatever the spread of the link speeds.
//!
//! Unlike the figure reproductions, the sweep is **step-budgeted**: each
//! run executes a fixed number of global steps *per node* instead of a
//! fixed epoch count, so the simulated work per worker — and therefore
//! the monitor-round count — stays comparable while n grows and per-node
//! shards shrink. The document records simulated values only (steps,
//! simulated seconds, final training loss); the CLI's table and stderr
//! lines add real throughput (global steps per real second of the step
//! loop) and a peak-RSS proxy per fleet size.

use crate::common::{self, Mode};
use crate::runner::{self, RunOptions};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario, StopCondition, TopologyKind};
use netmax_json::{Json, ToJson};
use netmax_ml::profile::ModelProfile;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{NetworkKind, Topology};

/// Schema tag of `BENCH_scale.json`; bump on breaking changes.
pub const SCALE_SCHEMA: &str = "netmax-bench/scale-report/v1";

/// The ridge workload's training-set size (`mnist_like`), used to derive
/// per-node shard and batch sizes without instantiating datasets.
const RIDGE_TRAIN_EXAMPLES: usize = 20_000;

/// The ridge workload's configured mini-batch size.
const RIDGE_BATCH: usize = 32;

/// Monitor rounds targeted per run (the paper runs many rounds per
/// training job; ~10 keeps that shape at every fleet size).
const TARGET_MONITOR_ROUNDS: f64 = 10.0;

/// Learning-rate scale applied to every arm of every sweep cell
/// (0.05 → 0.01). The ridge rate is tuned for 8-node shards of ~2 500
/// examples; at n = 4 096 a shard holds ~5, every batch re-samples those
/// few points, and 0.05 sits at the edge of the stability region of the
/// worst single-shard Hessian — weakly-mixed nodes (a concentrated
/// NetMax policy, unlucky gossip draws) can then diverge and poison the
/// fleet. At 0.01 each SGD step is contractive for every realizable
/// batch at every swept n, so convergence columns compare optimization
/// quality, not stability luck. All four arms share the scaled rate.
pub const SCALE_LR_SCALE: f64 = 0.2;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Worker counts to sweep (each must have a balanced torus shape).
    pub node_counts: Vec<usize>,
    /// Global steps executed per node (total budget = `n ×` this).
    pub steps_per_node: u64,
    /// Timing repetitions per cell (best, i.e. minimum, real time kept).
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full sweep — the committed `BENCH_scale.json` baseline.
    pub fn full() -> Self {
        Self { node_counts: vec![32, 128, 512, 1024, 4096], steps_per_node: 96, repeats: 1, seed: 11 }
    }

    /// Mode-scaled parameters (tiny is the CI smoke scale: n ≤ 256).
    pub fn for_mode(mode: Mode) -> Self {
        let mut p = Self::full();
        match mode {
            Mode::Full => {}
            Mode::Quick => p.steps_per_node = 48,
            Mode::Tiny => {
                p.steps_per_node = 24;
                p.node_counts = vec![32, 256];
            }
        }
        p
    }
}

/// The near-square torus factorization of `n`: rows is the largest
/// divisor ≤ √n. Panics when no balanced shape exists (`rows < 2`, e.g.
/// a prime worker count) — the sweep only accepts fleets that form a
/// genuine 2-D fabric.
pub fn torus_dims(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    assert!(rows >= 2, "fleet size {n} has no balanced torus factorization (rows ≥ 2)");
    (rows, n / rows)
}

/// Compressed monitor period `Ts` for an `n`-node step-budgeted run.
///
/// The harness-standard 30 s period assumes multi-minute simulated runs;
/// a scale run lasts roughly `steps_per_node × (compute + exchange)`
/// simulated seconds, which *shrinks* as n grows (shards, and with them
/// batches, get smaller). `Ts` is therefore derived from the workload
/// profile's nominal iteration estimate so ~10 rounds fire at every
/// fleet size — the same timescale compression the crate docs describe,
/// applied per n.
pub fn monitor_period_for(n: usize, steps_per_node: u64) -> f64 {
    let shard = (RIDGE_TRAIN_EXAMPLES / n.max(1)).max(1);
    let batch = shard.min(RIDGE_BATCH);
    let profile = ModelProfile::mobilenet();
    // Nominal iteration: local compute on the shard-clamped batch plus a
    // mostly intra-machine parameter exchange (10 GB/s class) with a
    // small latency allowance. Real runs are slower (inter-machine and
    // slowed links), which only yields *more* rounds, never zero.
    let exchange_s = profile.param_bytes() as f64 / 10e9 + 3e-3;
    let iter_s = profile.compute_time(batch) + exchange_s;
    (steps_per_node as f64 * iter_s / TARGET_MONITOR_ROUNDS).max(0.05)
}

/// The registry entries: one spec per worker count, named
/// `scale/ridge/n{N}`.
pub fn specs(p: &Params) -> Vec<ExperimentSpec> {
    let mut out = Vec::new();
    for &n in &p.node_counts {
        let (rows, cols) = torus_dims(n);
        let workload = WorkloadSpec::convex_ridge(p.seed).lr_scaled(SCALE_LR_SCALE);
        let name = format!("scale/{}/n{n}", workload.kind.name());
        let total_steps = p.steps_per_node * n as u64;
        // Step-budgeted: the stop condition governs; the epoch cap is an
        // unreachable sentinel. Recording cadence is scaled so every run
        // keeps ~100 samples regardless of its step budget.
        let mut cfg = common::train_config(1e6, p.seed);
        cfg.stop = Some(StopCondition::MaxGlobalSteps(total_steps));
        cfg.record_every_steps = (total_steps / 100).max(50);
        let scenario = Scenario::builder()
            .workers(n)
            .topology(TopologyKind::Torus { rows, cols })
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(workload)
            .slowdown(common::slowdown())
            .train_config(cfg)
            .build();
        out.push(ExperimentSpec {
            name,
            group: "scale".into(),
            title: format!(
                "Scale — {rows}×{cols} torus, {} steps/node, headline four on the sparse control plane",
                p.steps_per_node
            ),
            scenario,
            arms: AlgorithmKind::headline_four()
                .map(|k| Arm::new(k).monitor_period(monitor_period_for(n, p.steps_per_node)))
                .to_vec(),
            seeds: vec![p.seed],
            metrics: vec![MetricKind::TimeToTarget],
        });
    }
    out
}

/// One measured `(n, algorithm)` cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Arm label (`NetMax`, `AD-PSGD`, …).
    pub algorithm: String,
    /// Fleet size.
    pub nodes: usize,
    /// Undirected edge count of the torus fabric.
    pub edges: usize,
    /// Global steps executed.
    pub global_steps: u64,
    /// Simulated wall-clock seconds of the run.
    pub sim_wall_s: f64,
    /// Final training loss (the convergence column).
    pub final_train_loss: f64,
    /// Best (minimum) real seconds of the step loop across repetitions.
    pub best_real_s: f64,
    /// Global steps per real second (best repetition).
    pub steps_per_sec: f64,
    /// `VmHWM` from `/proc/self/status` after this fleet size's cells, in
    /// KiB (0 when unavailable): monotone within the ascending sweep, so
    /// each value reflects the largest fleet so far.
    pub peak_rss_kb: u64,
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the sweep through the runner on one thread, so a cell's real
/// seconds (its step loop) and RSS are not polluted by sibling runs;
/// each cell keeps its fastest of `repeats`.
pub fn run(p: &Params) -> Vec<Row> {
    assert!(p.repeats > 0, "need at least one repetition");
    let one_thread = RunOptions { threads: 1, ..RunOptions::default() };
    let mut rows = Vec::new();
    for spec in specs(p) {
        let n = spec.scenario.workers();
        let (r, c) = torus_dims(n);
        let edges = Topology::torus(r, c).num_edges();
        let timed = || {
            runner::execute_timed(&spec, &one_thread)
                .unwrap_or_else(|e| panic!("{}: invalid session: {e}", spec.name))
        };
        let mut best = timed();
        for _ in 1..p.repeats {
            for (kept, cell) in best.iter_mut().zip(timed()) {
                if cell.1 < kept.1 {
                    *kept = cell;
                }
            }
        }
        let peak_rss_kb = peak_rss_kb().unwrap_or(0);
        for (cell, real_s) in best {
            let report = cell.report;
            let dt = real_s.max(1e-9);
            let row = Row {
                algorithm: cell.label,
                nodes: n,
                edges,
                global_steps: report.global_steps,
                sim_wall_s: report.wall_clock_s,
                final_train_loss: report.final_train_loss,
                best_real_s: dt,
                steps_per_sec: report.global_steps as f64 / dt,
                peak_rss_kb,
            };
            eprintln!(
                "  {} n={} [{}]: {} steps in {:.2}s real ({:.0} steps/s), loss {:.4}",
                spec.name, n, row.algorithm, row.global_steps, dt, row.steps_per_sec,
                row.final_train_loss
            );
            rows.push(row);
        }
    }
    rows
}

/// Assembles the versioned `netmax-bench/scale-report/v1` document: the
/// rows' simulated columns, none of their real time or memory.
pub fn scale_doc(p: &Params, rows: &[Row]) -> Json {
    Json::obj([
        ("schema", Json::Str(SCALE_SCHEMA.into())),
        (
            "sweep",
            Json::obj([
                ("workload", Json::Str("ridge".into())),
                ("topology", Json::Str("torus".into())),
                ("node_counts", p.node_counts.to_json()),
                ("steps_per_node", p.steps_per_node.to_json()),
                ("lr_scale", SCALE_LR_SCALE.to_json()),
                ("repeats", p.repeats.to_json()),
                ("seed", p.seed.to_json()),
            ]),
        ),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("algorithm", r.algorithm.to_json()),
                            ("nodes", r.nodes.to_json()),
                            ("edges", r.edges.to_json()),
                            ("global_steps", r.global_steps.to_json()),
                            ("sim_wall_s", r.sim_wall_s.to_json()),
                            ("final_train_loss", r.final_train_loss.to_json()),
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
        "{:<16} {:>6} {:>7} {:>9} {:>9} {:>10} {:>9} {:>11} {:>9}\n",
        "algorithm", "n", "edges", "steps", "sim(s)", "loss", "real(s)", "steps/sec", "rss(MB)"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>7} {:>9} {:>9.2} {:>10.4} {:>9.2} {:>11.0} {:>9.1}\n",
            r.algorithm,
            r.nodes,
            r.edges,
            r.global_steps,
            r.sim_wall_s,
            r.final_train_loss,
            r.best_real_s,
            r.steps_per_sec,
            r.peak_rss_kb as f64 / 1024.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_dims_balance_the_declared_sweep() {
        assert_eq!(torus_dims(32), (4, 8));
        assert_eq!(torus_dims(128), (8, 16));
        assert_eq!(torus_dims(256), (16, 16));
        assert_eq!(torus_dims(512), (16, 32));
        assert_eq!(torus_dims(1024), (32, 32));
        assert_eq!(torus_dims(4096), (64, 64));
    }

    #[test]
    #[should_panic(expected = "balanced torus")]
    fn torus_dims_reject_prime_fleets() {
        let _ = torus_dims(13);
    }

    #[test]
    fn monitor_period_shrinks_with_fleet_size() {
        // Bigger fleets mean smaller shards and shorter runs; Ts must
        // compress with them so rounds keep firing.
        let p = Params::full();
        let periods: Vec<f64> =
            p.node_counts.iter().map(|&n| monitor_period_for(n, p.steps_per_node)).collect();
        for w in periods.windows(2) {
            assert!(w[1] <= w[0], "period grew with n: {periods:?}");
        }
        assert!(periods.iter().all(|&t| t >= 0.05));
    }

    #[test]
    fn specs_declare_the_scale_group() {
        let p = Params::full();
        let specs = specs(&p);
        assert_eq!(specs.len(), p.node_counts.len());
        for (spec, &n) in specs.iter().zip(&p.node_counts) {
            assert_eq!(spec.name, format!("scale/ridge/n{n}"));
            assert_eq!(spec.group, "scale");
            assert_eq!(spec.scenario.workers(), n);
            assert_eq!(spec.scenario.workload_spec().lr_scale, SCALE_LR_SCALE);
            assert_eq!(spec.arms.len(), 4);
            for arm in &spec.arms {
                assert_eq!(arm.monitor_period_s, Some(monitor_period_for(n, p.steps_per_node)));
            }
            assert_eq!(
                spec.scenario.cfg().stop,
                Some(StopCondition::MaxGlobalSteps(p.steps_per_node * n as u64))
            );
        }
    }

    #[test]
    fn tiny_sweep_produces_consistent_rows_and_doc() {
        let p = Params { node_counts: vec![16], steps_per_node: 24, repeats: 1, seed: 11 };
        let rows = run(&p);
        assert_eq!(rows.len(), 4, "one row per headline arm");
        for r in &rows {
            assert_eq!(r.nodes, 16);
            assert_eq!(r.edges, 32, "4×4 torus has 2n edges");
            // Round-granular drivers may overshoot the budget slightly.
            assert!(r.global_steps >= 24 * 16, "{}: {} steps", r.algorithm, r.global_steps);
            assert!(r.sim_wall_s > 0.0 && r.best_real_s > 0.0);
            assert!(r.final_train_loss.is_finite());
            assert!(r.steps_per_sec > 0.0);
        }
        let doc = scale_doc(&p, &rows);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed.field("schema").unwrap().as_str().unwrap(), SCALE_SCHEMA);
        assert_eq!(parsed.field("results").unwrap().as_arr().unwrap().len(), 4);
        assert!(render_table(&rows).contains("steps/sec"));
    }
}
