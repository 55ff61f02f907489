//! Table II / Table III — test accuracy of the trained models across
//! worker counts (heterogeneous and homogeneous networks).
//!
//! The paper's point is parity: "all the approaches can achieve around
//! 90% test accuracy for both ResNet18 and VGG19, while NetMax performs
//! slightly better" (§V-D). Accuracy must *not* be the axis NetMax wins
//! on — time is.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per (table, workload, node count),
/// Table II (heterogeneous: 4/8/16 workers) before Table III
/// (homogeneous: 4/6/8); tiny mode keeps each table's smallest count.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(24.0);
    let seed = 5;
    let mut out = Vec::new();
    for (heterogeneous, mut node_counts) in [(true, vec![4, 8, 16]), (false, vec![4, 6, 8])] {
        if mode == Mode::Tiny {
            node_counts.truncate(1);
        }
        let group = if heterogeneous { "tab02" } else { "tab03" };
        for make in [
            WorkloadSpec::resnet18_cifar10 as fn(u64) -> WorkloadSpec,
            WorkloadSpec::vgg19_cifar10,
        ] {
            for &nodes in &node_counts {
                let workload = make(seed);
                let name = format!("{group}/{}/n{nodes}", workload.kind.name());
                let scenario = Scenario::builder()
                    .workers(nodes)
                    .network(if heterogeneous {
                        NetworkKind::HeterogeneousDynamic
                    } else {
                        NetworkKind::Homogeneous
                    })
                    .workload(workload)
                    .slowdown(common::slowdown())
                    .train_config(common::train_config(epochs, seed))
                    .build();
                out.push(ExperimentSpec {
                    name,
                    group: group.into(),
                    title: format!(
                        "{} — test accuracy over a {} network",
                        if heterogeneous { "Table II" } else { "Table III" },
                        if heterogeneous { "heterogeneous" } else { "homogeneous" }
                    ),
                    scenario,
                    arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                    seeds: vec![seed],
                    metrics: vec![MetricKind::Accuracy],
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn all_algorithms_reach_comparable_accuracy() {
        let panel = specs(Mode::Full)
            .into_iter()
            .filter(|s| s.group == "tab02" && s.scenario.workers() == 4);
        for mut spec in panel {
            spec.scenario.cfg_mut().max_epochs = 8.0;
            let result = runner::try_execute(&spec, &Default::default()).unwrap();
            let accs: Vec<f64> =
                result.cells.iter().map(|c| c.report.final_test_accuracy).collect();
            let lo = accs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = accs.iter().copied().fold(0.0f64, f64::max);
            assert!(lo > 0.70, "{}: accuracy too low {accs:?}", spec.name);
            assert!(hi - lo < 0.10, "{}: accuracy spread too wide {accs:?}", spec.name);
        }
    }
}
