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

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Heterogeneous (Fig. 5) or homogeneous (Fig. 6).
    pub heterogeneous: bool,
    /// Worker count (paper: 8).
    pub workers: usize,
    /// Epoch budget per run.
    pub epochs: f64,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full reproduction scale.
    pub fn full(heterogeneous: bool) -> Self {
        Self { heterogeneous, workers: 8, epochs: 24.0, seed: 7 }
    }

    /// Mode-scaled parameters.
    pub fn for_mode(mode: Mode, heterogeneous: bool) -> Self {
        let mut p = Self::full(heterogeneous);
        p.epochs = mode.epochs(p.epochs);
        p
    }
}

/// The registry entries: one spec per workload panel.
pub fn specs(p: &Params) -> Vec<ExperimentSpec> {
    let group = if p.heterogeneous { "fig05" } else { "fig06" };
    [WorkloadSpec::resnet18_cifar10(p.seed), WorkloadSpec::vgg19_cifar10(p.seed)]
        .into_iter()
        .map(|workload| {
            let name = format!("{group}/{}", workload.kind.name());
            let scenario = Scenario::builder()
                .workers(p.workers)
                .network(if p.heterogeneous {
                    NetworkKind::HeterogeneousDynamic
                } else {
                    NetworkKind::Homogeneous
                })
                .workload(workload)
                .slowdown(common::slowdown())
                .train_config(common::train_config(p.epochs, p.seed))
                .build();
            ExperimentSpec {
                name,
                group: group.into(),
                title: format!(
                    "{} — average epoch time split, {} workers, {} network",
                    if p.heterogeneous { "Fig. 5" } else { "Fig. 6" },
                    p.workers,
                    if p.heterogeneous { "heterogeneous" } else { "homogeneous" }
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![p.seed],
                metrics: vec![MetricKind::EpochCost],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn hetero_ordering_matches_paper() {
        let p = Params { heterogeneous: true, workers: 8, epochs: 6.0, seed: 7 };
        // The ResNet18 panel.
        let result = runner::try_execute(&specs(&p)[0], &Default::default()).unwrap();
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
        let p = Params::for_mode(Mode::Tiny, true);
        assert_eq!(p.epochs, 2.0);
    }
}
