//! `equivalence/*` — statistical-equivalence gates between the numerics
//! tiers.
//!
//! The fast tier reassociates floating-point reductions and replaces
//! `exp`/`ln` with bounded-error polynomials, so its trajectories are not
//! bit-identical to the strict tier's. What the tier seam *does* promise
//! is that every paper-level claim survives the switch: the headline four
//! converge to the same plateau, the adaptive-selection ordering holds,
//! and the simulated schedule (which numerics must never influence) is
//! byte-identical. This group runs the sanity workload once per tier so
//! those promises are checked as registry experiments, not just unit
//! tests; the claim tests below are the gate CI runs at tiny scale.

use crate::common::Mode;
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario, TrainConfig};
use netmax_ml::workload::WorkloadSpec;
use netmax_ml::NumericsTier;
use netmax_net::{NetworkKind, SlowdownConfig};

/// The sanity scenario pinned to one numerics tier. Everything except the
/// tier matches `sanity/resnet18-cifar10`, so the strict cell doubles as
/// a scaled-down sanity rerun.
fn scenario(epochs: f64, seed: u64, tier: NumericsTier) -> Scenario {
    Scenario::builder()
        .workers(8)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::resnet18_cifar10(42))
        .slowdown(SlowdownConfig { change_period_s: 120.0, ..SlowdownConfig::default() })
        .train_config(TrainConfig {
            max_epochs: epochs,
            record_every_steps: 40,
            seed,
            tier,
            ..TrainConfig::default()
        })
        .build()
}

fn spec(epochs: f64, seed: u64, tier: NumericsTier) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("equivalence/{}", tier.tier_name()),
        group: "equivalence".into(),
        title: format!(
            "Equivalence — headline four on the sanity workload, {} numerics tier",
            tier.tier_name()
        ),
        scenario: scenario(epochs, seed, tier),
        arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
        seeds: vec![seed],
        metrics: vec![MetricKind::TimeToTarget, MetricKind::EpochCost, MetricKind::Accuracy],
    }
}

/// The registry entries: one sanity-shaped run per numerics tier.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(12.0);
    let seed = 7;
    vec![spec(epochs, seed, NumericsTier::Strict), spec(epochs, seed, NumericsTier::Fast)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    fn run_tier(tier: NumericsTier) -> runner::ExperimentResult {
        let spec = specs(Mode::Tiny)
            .into_iter()
            .find(|s| s.name.ends_with(tier.tier_name()))
            .expect("registered experiment");
        runner::try_execute(&spec, &Default::default()).unwrap()
    }

    /// The simulated schedule must be *independent* of numerics: peer
    /// selection, round timing, and recording cadence are driven by the
    /// network model, never by loss values. Both tiers therefore take
    /// exactly the same steps at exactly the same simulated times.
    #[test]
    fn tiers_share_the_simulated_schedule_exactly() {
        let strict = run_tier(NumericsTier::Strict);
        let fast = run_tier(NumericsTier::Fast);
        assert_eq!(strict.cells.len(), 4);
        assert_eq!(fast.cells.len(), 4);
        for (s, f) in strict.cells.iter().zip(&fast.cells) {
            assert_eq!(s.label, f.label);
            assert_eq!(s.report.global_steps, f.report.global_steps, "{}", s.label);
            assert_eq!(s.report.wall_clock_s, f.report.wall_clock_s, "{}", s.label);
            assert_eq!(s.report.samples.len(), f.report.samples.len(), "{}", s.label);
            for (a, b) in s.report.samples.iter().zip(&f.report.samples) {
                assert_eq!(a.time_s, b.time_s, "{}", s.label);
                assert_eq!(a.global_step, b.global_step, "{}", s.label);
            }
        }
    }

    /// Statistical closeness: the fast tier's loss curve tracks the
    /// strict tier's sample for sample within a small sup-norm, and the
    /// plateaus agree.
    #[test]
    fn fast_tier_loss_curves_track_strict_within_tolerance() {
        let strict = run_tier(NumericsTier::Strict);
        let fast = run_tier(NumericsTier::Fast);
        for (s, f) in strict.cells.iter().zip(&fast.cells) {
            let mut sup = 0.0f64;
            for (a, b) in s.report.samples.iter().zip(&f.report.samples) {
                sup = sup.max((a.train_loss - b.train_loss).abs());
            }
            assert!(
                sup <= 0.02 * (1.0 + s.report.final_train_loss.abs()),
                "{}: loss sup-norm {sup} across tiers",
                s.label
            );
            let df = (s.report.final_train_loss - f.report.final_train_loss).abs();
            assert!(
                df <= 0.01 * (1.0 + s.report.final_train_loss.abs()),
                "{}: final losses diverged by {df}",
                s.label
            );
            let da = (s.report.final_test_accuracy - f.report.final_test_accuracy).abs();
            assert!(da <= 0.02, "{}: final accuracies diverged by {da}", s.label);
        }
    }

    /// The paper-claim shape survives the tier switch: adaptive selection
    /// beats the synchronous collective by simulated wall-clock in *both*
    /// tiers (the claim outcome is identical, not merely similar).
    #[test]
    fn paper_claims_hold_in_both_tiers() {
        for tier in [NumericsTier::Strict, NumericsTier::Fast] {
            let result = run_tier(tier);
            let wall = |kind: AlgorithmKind| {
                result.cell(kind).expect("arm present").report.wall_clock_s
            };
            assert!(
                wall(AlgorithmKind::NetMax) < wall(AlgorithmKind::AllreduceSgd),
                "{}: NetMax must finish before the synchronous collective",
                tier.tier_name()
            );
            for cell in &result.cells {
                assert!(cell.report.global_steps > 0, "{}: no progress", cell.label);
                assert!(
                    cell.report.final_train_loss.is_finite(),
                    "{}: loss diverged",
                    cell.label
                );
            }
        }
    }

    #[test]
    fn equivalence_specs_round_trip_through_json() {
        use netmax_json::{FromJson, Json, ToJson};
        for s in specs(Mode::Tiny) {
            let text = s.to_json().pretty();
            let back = ExperimentSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s, "{}", s.name);
            assert_eq!(back.scenario.cfg().tier.tier_name(), {
                let (_, t) = s.name.split_once('/').unwrap();
                t
            });
        }
    }
}
