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

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Heterogeneous (Table II) or homogeneous (Table III).
    pub heterogeneous: bool,
    /// Worker counts (paper: 4/8/16 heterogeneous, 4/6/8 homogeneous).
    pub node_counts: Vec<usize>,
    /// Epoch budget per run.
    pub epochs: f64,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full reproduction scale.
    pub fn full(heterogeneous: bool) -> Self {
        Self {
            heterogeneous,
            node_counts: if heterogeneous { vec![4, 8, 16] } else { vec![4, 6, 8] },
            epochs: 24.0,
            seed: 5,
        }
    }

    /// Mode-scaled parameters.
    pub fn for_mode(mode: Mode, heterogeneous: bool) -> Self {
        let mut p = Self::full(heterogeneous);
        p.epochs = mode.epochs(p.epochs);
        if mode == Mode::Tiny {
            p.node_counts.truncate(1);
        }
        p
    }
}

/// The registry entries: one spec per (workload, node count).
pub fn specs(p: &Params) -> Vec<ExperimentSpec> {
    let group = if p.heterogeneous { "tab02" } else { "tab03" };
    let mut out = Vec::new();
    for make in [WorkloadSpec::resnet18_cifar10 as fn(u64) -> WorkloadSpec, WorkloadSpec::vgg19_cifar10] {
        for &nodes in &p.node_counts {
            let workload = make(p.seed);
            let name = format!("{group}/{}/n{nodes}", workload.kind.name());
            let scenario = Scenario::builder()
                .workers(nodes)
                .network(if p.heterogeneous {
                    NetworkKind::HeterogeneousDynamic
                } else {
                    NetworkKind::Homogeneous
                })
                .workload(workload)
                .slowdown(common::slowdown())
                .train_config(common::train_config(p.epochs, p.seed))
                .build();
            out.push(ExperimentSpec {
                name,
                group: group.into(),
                title: format!(
                    "{} — test accuracy over a {} network",
                    if p.heterogeneous { "Table II" } else { "Table III" },
                    if p.heterogeneous { "heterogeneous" } else { "homogeneous" }
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![p.seed],
                metrics: vec![MetricKind::Accuracy],
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
    fn all_algorithms_reach_comparable_accuracy() {
        let p = Params { heterogeneous: true, node_counts: vec![4], epochs: 8.0, seed: 5 };
        for spec in specs(&p) {
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
