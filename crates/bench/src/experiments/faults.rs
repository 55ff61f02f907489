//! `faults/*` — elastic-network stress suite: drifting links, node
//! crash, rolling churn, and straggler compute, far beyond the paper's
//! single re-drawn slow link.
//!
//! The paper's thesis is that adaptive selection should track a network
//! whose condition drifts (§I, §V-H). This group turns that claim into
//! measurable results under regimes the paper never ran: Markov-modulated
//! links drifting slower/faster than the Monitor period, a worker crash
//! mid-run, rolling crash/rejoin churn, and permanent compute
//! stragglers. Every experiment compares the headline four (NetMax,
//! AD-PSGD, Allreduce, Prague); the paper-claim tests assert that
//! adaptive selection degrades most gracefully — synchronous collectives
//! pay for every fault, NetMax routes around them.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{
    FaultPlan, LinkDynamics, MarkovConfig, NetworkKind, NodeFault, Straggler,
};

/// Rough simulated seconds per epoch of the scaled ResNet18 workload on
/// the heterogeneous fabric for the *fastest* arm (NetMax; the
/// synchronous arms take longer) — used to place fault times mid-run.
const SEC_PER_EPOCH_EST: f64 = 15.0;

fn base(epochs: f64, seed: u64, dynamics: Option<LinkDynamics>, faults: FaultPlan) -> Scenario {
    let mut b = Scenario::builder()
        .workers(8)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::resnet18_cifar10(seed).time_scaled(0.25))
        .slowdown(common::slowdown())
        .train_config(common::train_config(epochs, seed))
        .faults(faults);
    if let Some(d) = dynamics {
        b = b.dynamics(d);
    }
    b.build()
}

/// The crash experiment's victim worker (exposed for the claim tests).
pub const CRASHED_NODE: usize = 5;

/// The registry entries: slow-drift and fast-drift Markov links, a
/// single mid-run crash, rolling churn, and a permanent straggler.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(12.0);
    let seed = 23;
    // Virtual time roughly `frac` of the way through the run.
    let at = |frac: f64| frac * epochs * SEC_PER_EPOCH_EST;
    let spec = |name: &str, title: &str, dynamics: Option<LinkDynamics>, faults: FaultPlan| {
        ExperimentSpec {
            name: format!("faults/{name}"),
            group: "faults".into(),
            title: title.into(),
            scenario: base(epochs, seed, dynamics, faults),
            arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
            seeds: vec![seed],
            metrics: vec![MetricKind::TimeToTarget, MetricKind::EpochCost],
        }
    };
    let churn = FaultPlan {
        node_faults: (0..3)
            .map(|k| NodeFault {
                node: 1 + 2 * k,
                crash_s: at(0.25) + k as f64 * at(0.15),
                rejoin_s: Some(at(0.25) + k as f64 * at(0.15) + at(0.2)),
            })
            .collect(),
        ..FaultPlan::none()
    };
    vec![
        spec(
            "slow-drift",
            "Faults — Markov-modulated links drifting slower than the Monitor period",
            Some(LinkDynamics::MarkovModulated(MarkovConfig::slow_drift())),
            FaultPlan::none(),
        ),
        spec(
            "fast-drift",
            "Faults — Markov-modulated links drifting faster than the Monitor period",
            Some(LinkDynamics::MarkovModulated(MarkovConfig::fast_drift())),
            FaultPlan::none(),
        ),
        spec(
            "crash",
            "Faults — one worker crashes mid-run and never returns",
            None,
            FaultPlan {
                node_faults: vec![NodeFault {
                    node: CRASHED_NODE,
                    crash_s: at(0.4),
                    rejoin_s: None,
                }],
                ..FaultPlan::none()
            },
        ),
        spec(
            "churn",
            "Faults — rolling churn: three workers crash and rejoin in sequence",
            None,
            churn,
        ),
        spec(
            "straggler",
            "Faults — one worker computes 4x slower for the whole run",
            None,
            FaultPlan {
                stragglers: vec![Straggler { node: 2, factor: 4.0 }],
                ..FaultPlan::none()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    fn tiny_spec(name: &str) -> ExperimentSpec {
        specs(Mode::Tiny)
            .into_iter()
            .find(|s| s.name.ends_with(name))
            .expect("registered experiment")
    }

    fn run_named(name: &str) -> runner::ExperimentResult {
        runner::try_execute(&tiny_spec(name), &Default::default()).unwrap()
    }

    fn wall(result: &runner::ExperimentResult, kind: AlgorithmKind) -> f64 {
        result.cell(kind).expect("arm present").report.wall_clock_s
    }

    #[test]
    fn crash_run_completes_truthfully_for_every_algorithm() {
        let result = run_named("crash");
        assert_eq!(result.cells.len(), 4);
        for cell in &result.cells {
            let r = &cell.report;
            assert!(r.global_steps > 0, "{}: no progress", cell.label);
            assert!(
                r.epochs_completed >= 2.0,
                "{}: live fleet stopped at {} epochs",
                cell.label,
                r.epochs_completed
            );
            // The dead worker's clock froze at the crash; the survivors
            // ran on.
            let dead = r.per_node[CRASHED_NODE].clock_s;
            let live_max = r
                .per_node
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != CRASHED_NODE)
                .map(|(_, n)| n.clock_s)
                .fold(0.0f64, f64::max);
            assert!(
                dead < live_max,
                "{}: dead clock {dead} does not trail the fleet ({live_max})",
                cell.label
            );
        }
    }

    #[test]
    fn adaptive_selection_degrades_most_gracefully_under_crash() {
        // The paper-claim shape: the synchronous collectives pay for the
        // crash (and the heterogeneous fabric) every round; adaptive
        // asynchronous selection routes around both.
        let result = run_named("crash");
        let netmax = wall(&result, AlgorithmKind::NetMax);
        assert!(
            netmax < wall(&result, AlgorithmKind::AllreduceSgd),
            "NetMax must finish before the synchronous collective"
        );
        assert!(
            netmax < wall(&result, AlgorithmKind::Prague),
            "NetMax must finish before Prague's contended partial-allreduces"
        );
    }

    #[test]
    fn drifting_links_favour_the_adaptive_policy() {
        for name in ["slow-drift", "fast-drift"] {
            let result = run_named(name);
            let netmax = wall(&result, AlgorithmKind::NetMax);
            assert!(
                netmax < wall(&result, AlgorithmKind::AllreduceSgd),
                "{name}: NetMax must beat the synchronous collective"
            );
            assert!(
                netmax < wall(&result, AlgorithmKind::Prague),
                "{name}: NetMax must beat Prague"
            );
        }
    }

    #[test]
    fn churn_run_completes_and_rejoined_workers_resume() {
        let result = run_named("churn");
        for cell in &result.cells {
            let r = &cell.report;
            assert!(
                r.epochs_completed >= 2.0,
                "{}: stopped at {} epochs",
                cell.label,
                r.epochs_completed
            );
            // Every churned worker rejoined and kept accumulating clock.
            for k in 0..3usize {
                let node = 1 + 2 * k;
                assert!(
                    r.per_node[node].epochs > 0.0,
                    "{}: churned node {node} never trained",
                    cell.label
                );
            }
        }
    }

    #[test]
    fn straggler_slows_the_synchronous_round_most() {
        let strag_spec = tiny_spec("straggler");
        let strag = runner::try_execute(&strag_spec, &Default::default()).unwrap();
        // Same scenario without the straggler.
        let cfg = strag_spec.scenario.cfg();
        let clean_spec = ExperimentSpec {
            scenario: base(cfg.max_epochs, cfg.seed, None, FaultPlan::none()),
            ..strag_spec.clone()
        };
        let clean = runner::try_execute(&clean_spec, &Default::default()).unwrap();
        let ratio = |k: AlgorithmKind| wall(&strag, k) / wall(&clean, k);
        // Allreduce pays the 4x straggler in every round; NetMax only
        // when it visits the straggler.
        assert!(
            ratio(AlgorithmKind::AllreduceSgd) > ratio(AlgorithmKind::NetMax),
            "the synchronous collective must degrade more than the adaptive policy \
             (allreduce {:.2}x vs netmax {:.2}x)",
            ratio(AlgorithmKind::AllreduceSgd),
            ratio(AlgorithmKind::NetMax)
        );
    }

    #[test]
    fn fault_specs_round_trip_through_json() {
        use netmax_json::{FromJson, Json, ToJson};
        for s in specs(Mode::Tiny) {
            let text = s.to_json().pretty();
            let back = ExperimentSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s, "{}", s.name);
        }
    }
}
