//! Engine-throughput measurement: real global-steps/sec and samples/sec
//! per algorithm on the sanity workload.
//!
//! Two modes are measured per arm:
//!
//! * **pipeline** — the sanity scenario exactly as benchmarked in
//!   `BENCH_sanity.json` (metric recording at its configured cadence);
//!   comparable to the `steps_per_real_second` column `netmax-bench
//!   sanity` records.
//! * **engine** — the same training run with the recording cadence pushed
//!   beyond the step budget, isolating the simulation step loop itself.
//!
//! Runs are repeated and the best repetition is kept (standard practice
//! for wall-clock microbenchmarks on shared machines — the minimum is the
//! least-noise estimate). Simulated results are unaffected by any of
//! this: the measurement drives the same deterministic sessions the
//! experiment runner uses.

use crate::registry::sanity_spec;
use crate::Mode;
use netmax_core::engine::StopCondition;
use netmax_json::{Json, ToJson};
use netmax_ml::NumericsTier;
use std::time::Instant;

/// Schema tag of `BENCH_throughput.json`; bump on breaking changes.
/// v2 added the numerics-tier dimension (one row per
/// `(algorithm, tier, mode)` cell).
pub const THROUGHPUT_SCHEMA: &str = "netmax-bench/throughput/v2";

/// One measured `(algorithm, tier, mode)` cell.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Arm label (`NetMax`, `AD-PSGD`, …).
    pub algorithm: String,
    /// Numerics tier the cell's gradient hot path ran under.
    pub tier: NumericsTier,
    /// `"pipeline"` (recording on) or `"engine"` (recording off).
    pub mode: &'static str,
    /// Global steps executed per repetition.
    pub global_steps: u64,
    /// Best (minimum) real seconds across repetitions.
    pub best_real_s: f64,
    /// Global steps per real second (best repetition).
    pub steps_per_sec: f64,
    /// Training examples consumed per real second (best repetition).
    pub samples_per_sec: f64,
}

/// Measurement options.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputOptions {
    /// Global steps per repetition.
    pub steps: u64,
    /// Repetitions per cell (best one is reported).
    pub repeats: usize,
    /// Restrict the grid to one numerics tier (`None` measures both).
    pub tier: Option<NumericsTier>,
}

impl ThroughputOptions {
    /// Full measurement (the committed `BENCH_throughput.json` baseline).
    pub fn full() -> Self {
        Self { steps: 20_000, repeats: 3, tier: None }
    }

    /// CI smoke scale.
    pub fn quick() -> Self {
        Self { steps: 2_000, repeats: 2, tier: None }
    }

    /// The tiers this measurement covers, in grid order.
    pub fn tiers(&self) -> Vec<NumericsTier> {
        match self.tier {
            Some(t) => vec![t],
            None => vec![NumericsTier::Strict, NumericsTier::Fast],
        }
    }
}

/// Runs the measurement grid: every sanity arm × numerics tier ×
/// {pipeline, engine}.
pub fn measure(opts: &ThroughputOptions) -> Vec<ThroughputRow> {
    assert!(opts.steps > 0 && opts.repeats > 0, "empty measurement grid");
    let spec = sanity_spec(Mode::Full);
    let workload = spec.scenario.workload();
    let alpha = workload.optim.lr;
    let mut rows = Vec::new();
    for arm in &spec.arms {
        for tier in opts.tiers() {
            for mode in ["pipeline", "engine"] {
                let mut best: Option<(f64, u64, f64)> = None;
                for _ in 0..opts.repeats {
                    let mut scenario = spec.scenario.clone();
                    scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(opts.steps));
                    scenario.cfg_mut().tier = tier;
                    if mode == "engine" {
                        // Push the recording cadence beyond the step budget so
                        // only the step loop is timed.
                        scenario.cfg_mut().record_every_steps = u64::MAX / 2;
                    }
                    let mut algo = arm.instantiate(alpha);
                    let mut env = scenario.build_env_with(workload.clone());
                    let t0 = Instant::now();
                    let report = algo.run(&mut env);
                    let dt = t0.elapsed().as_secs_f64().max(1e-9);
                    let samples: f64 = env
                        .nodes
                        .iter()
                        .map(|n| n.epochs() * n.sampler.shard_len() as f64)
                        .sum();
                    if best.is_none_or(|(b, _, _)| dt < b) {
                        best = Some((dt, report.global_steps, samples));
                    }
                }
                let (dt, steps, samples) = best.expect("at least one repetition");
                rows.push(ThroughputRow {
                    algorithm: arm.label(),
                    tier,
                    mode,
                    global_steps: steps,
                    best_real_s: dt,
                    steps_per_sec: steps as f64 / dt,
                    samples_per_sec: samples / dt,
                });
            }
        }
    }
    rows
}

/// Assembles the versioned `netmax-bench/throughput/v2` document.
pub fn throughput_doc(opts: &ThroughputOptions, rows: &[ThroughputRow]) -> Json {
    Json::obj([
        ("schema", Json::Str(THROUGHPUT_SCHEMA.into())),
        (
            "scenario",
            Json::obj([
                ("benchmark", Json::Str("sanity/resnet18-cifar10".into())),
                ("steps_per_run", opts.steps.to_json()),
                ("repeats", opts.repeats.to_json()),
                (
                    "tiers",
                    Json::Arr(opts.tiers().iter().map(|t| t.to_json()).collect()),
                ),
            ]),
        ),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("algorithm", r.algorithm.to_json()),
                            ("tier", r.tier.to_json()),
                            ("mode", Json::Str(r.mode.into())),
                            ("global_steps", r.global_steps.to_json()),
                            ("best_real_s", r.best_real_s.to_json()),
                            ("steps_per_sec", r.steps_per_sec.to_json()),
                            ("samples_per_sec", r.samples_per_sec.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Plain-text table for the CLI.
pub fn render_table(rows: &[ThroughputRow]) -> String {
    let mut out = format!(
        "{:<16} {:<7} {:<9} {:>10} {:>10} {:>14} {:>16}\n",
        "algorithm", "tier", "mode", "steps", "best(s)", "steps/sec", "samples/sec"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<7} {:<9} {:>10} {:>10.3} {:>14.0} {:>16.0}\n",
            r.algorithm,
            r.tier.tier_name(),
            r.mode,
            r.global_steps,
            r.best_real_s,
            r.steps_per_sec,
            r.samples_per_sec
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_consistent_rows() {
        let opts = ThroughputOptions { steps: 50, repeats: 1, tier: None };
        let rows = measure(&opts);
        // Four arms × two tiers × two modes.
        assert_eq!(rows.len(), 16);
        for r in &rows {
            // Round-granular drivers overshoot the step budget by at most
            // one round.
            assert!(
                r.global_steps >= 50 && r.global_steps < 50 + 16,
                "{}: {} steps",
                r.algorithm,
                r.global_steps
            );
            assert!(r.steps_per_sec > 0.0);
            assert!(r.samples_per_sec > 0.0);
            assert!(["pipeline", "engine"].contains(&r.mode));
        }
        // Both tiers appear, and both run the same step budget.
        for tier in [NumericsTier::Strict, NumericsTier::Fast] {
            assert_eq!(rows.iter().filter(|r| r.tier == tier).count(), 8);
        }
        let doc = throughput_doc(&opts, &rows);
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.field("schema").unwrap().as_str().unwrap(),
            THROUGHPUT_SCHEMA
        );
        let results = parsed.field("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 16);
        for row in results {
            assert!(["strict", "fast"]
                .contains(&row.field("tier").unwrap().as_str().unwrap()));
        }
        let table = render_table(&rows);
        assert!(table.contains("steps/sec") && table.contains("strict") && table.contains("fast"));
    }

    #[test]
    fn tier_restriction_halves_the_grid() {
        let opts =
            ThroughputOptions { steps: 50, repeats: 1, tier: Some(NumericsTier::Fast) };
        let rows = measure(&opts);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.tier == NumericsTier::Fast));
        let doc = throughput_doc(&opts, &rows);
        let tiers = doc
            .field("scenario")
            .unwrap()
            .field("tiers")
            .unwrap()
            .as_arr()
            .unwrap()
            .len();
        assert_eq!(tiers, 1);
    }
}
