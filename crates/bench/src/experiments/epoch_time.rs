//! Fig. 5 / Fig. 6 — average epoch time split into computation and
//! communication cost, 8 workers, ResNet18 and VGG19.
//!
//! Heterogeneous (Fig. 5): NetMax must incur the lowest communication
//! cost, Prague the highest, computation costs near-identical across
//! algorithms. Homogeneous (Fig. 6): everything compresses, NetMax and
//! AD-PSGD nearly tie.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per (figure, workload panel), Fig. 5
/// (heterogeneous) before Fig. 6 (homogeneous).
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let workers = 8;
    let epochs = mode.epochs(24.0);
    let seed = 7;
    let mut out = Vec::new();
    for heterogeneous in [true, false] {
        let group = if heterogeneous { "fig05" } else { "fig06" };
        for workload in [WorkloadSpec::resnet18_cifar10(seed), WorkloadSpec::vgg19_cifar10(seed)] {
            let name = format!("{group}/{}", workload.kind.name());
            let scenario = Scenario::builder()
                .workers(workers)
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
                    "{} — average epoch time split, {workers} workers, {} network",
                    if heterogeneous { "Fig. 5" } else { "Fig. 6" },
                    if heterogeneous { "heterogeneous" } else { "homogeneous" }
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![seed],
                metrics: vec![MetricKind::EpochCost],
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
    fn hetero_ordering_matches_paper() {
        // The heterogeneous ResNet18 panel.
        let mut spec = specs(Mode::Full).swap_remove(0);
        spec.scenario.cfg_mut().max_epochs = 6.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        let get = |kind: AlgorithmKind| &result.cell(kind).expect("arm present").report;
        let comm = |kind: AlgorithmKind| get(kind).comm_cost_per_epoch_s();
        // Communication ordering for ResNet18: NetMax < AD-PSGD and
        // Prague the worst (Fig. 5's headline).
        assert_eq!(get(AlgorithmKind::NetMax).workload, "resnet18/cifar10");
        assert!(comm(AlgorithmKind::NetMax) <= comm(AlgorithmKind::AdPsgd) * 1.05);
        assert!(comm(AlgorithmKind::Prague) > comm(AlgorithmKind::NetMax));
        assert!(comm(AlgorithmKind::AllreduceSgd) > comm(AlgorithmKind::AdPsgd));
        // Computation costs nearly identical across algorithms.
        let comps: Vec<f64> = AlgorithmKind::headline_four()
            .iter()
            .map(|&k| get(k).comp_cost_per_epoch_s())
            .collect();
        let (lo, hi) = (
            comps.iter().copied().fold(f64::INFINITY, f64::min),
            comps.iter().copied().fold(0.0f64, f64::max),
        );
        assert!(hi / lo < 1.25, "comp costs should be near-identical: {comps:?}");
    }

    #[test]
    fn mode_scaling_applies() {
        for spec in specs(Mode::Tiny) {
            assert_eq!(spec.scenario.cfg().max_epochs, 2.0, "{}", spec.name);
        }
    }
}
