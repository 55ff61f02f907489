//! Fig. 7 — source of NetMax's improvement: serial vs parallel execution
//! × uniform vs adaptive neighbour selection (§V-C).
//!
//! The paper's finding: adaptive probabilities contribute the majority of
//! the gain; the compute/communication overlap is marginal because GPU
//! compute is much shorter than communication.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, ExecutionMode, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per (workload, execution mode), each
/// with the uniform and adaptive arms.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let workers = 8;
    let epochs = mode.epochs(24.0);
    let seed = 11;
    let mut out = Vec::new();
    for workload in [WorkloadSpec::resnet18_cifar10(seed), WorkloadSpec::vgg19_cifar10(seed)] {
        for exec in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            let mut cfg = common::train_config(epochs, seed);
            cfg.execution = exec;
            let scenario = Scenario::builder()
                .workers(workers)
                .network(NetworkKind::HeterogeneousDynamic)
                .workload(workload.clone())
                .slowdown(common::slowdown())
                .train_config(cfg)
                .build();
            out.push(ExperimentSpec {
                name: format!("fig07/{}/{}", workload.kind.name(), exec.name()),
                group: "fig07".into(),
                title: "Fig. 7 — execution/selection ablation (heterogeneous, 8 workers)".into(),
                scenario,
                arms: vec![
                    Arm::new(AlgorithmKind::NetMaxUniform)
                        .labeled(format!("{}+uniform", exec.name())),
                    Arm::new(AlgorithmKind::NetMax).labeled(format!("{}+adaptive", exec.name())),
                ],
                seeds: vec![seed],
                metrics: vec![MetricKind::EpochCost, MetricKind::TimeToTarget],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn adaptive_beats_uniform_and_parallel_beats_serial() {
        let results: Vec<_> = specs(Mode::Full)
            .into_iter()
            .map(|mut s| {
                s.scenario.cfg_mut().max_epochs = 8.0;
                runner::try_execute(&s, &Default::default()).unwrap()
            })
            .collect();
        let get = |model: &str, setting: &str| {
            results
                .iter()
                .flat_map(|r| &r.cells)
                .find(|c| c.report.workload == model && c.label == setting)
                .map(|c| c.report.epoch_time_avg_s())
                .unwrap()
        };
        for model in ["resnet18/cifar10", "vgg19/cifar10"] {
            // Full NetMax (parallel+adaptive) is the fastest setting.
            let full = get(model, "parallel+adaptive");
            assert!(full <= get(model, "serial+uniform") * 1.02, "{model}");
            // Parallel beats serial within the same selection policy.
            assert!(get(model, "parallel+uniform") <= get(model, "serial+uniform"));
            // Adaptive beats uniform within the same execution mode.
            assert!(
                get(model, "parallel+adaptive") <= get(model, "parallel+uniform") * 1.05,
                "{model}: adaptive should not lose to uniform"
            );
        }
    }
}
