//! Fig. 8 / Fig. 9 — training loss versus wall-clock time, 8 workers,
//! ResNet18 and VGG19 on CIFAR10.
//!
//! This is the paper's headline result: on the heterogeneous network
//! NetMax reaches the convergence target ~3.7× / 3.4× / 1.9× faster than
//! Prague / Allreduce-SGD / AD-PSGD (§V-D). On the homogeneous network
//! NetMax and AD-PSGD nearly coincide, and both beat the collectives.

use crate::common::{self, Mode};
use crate::runner;
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, RunReport, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Heterogeneous (Fig. 8) or homogeneous (Fig. 9).
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
        Self { heterogeneous, workers: 8, epochs: 48.0, seed: 7 }
    }

    /// Mode-scaled parameters.
    pub fn for_mode(mode: Mode, heterogeneous: bool) -> Self {
        let mut p = Self::full(heterogeneous);
        p.epochs = mode.epochs(p.epochs);
        p
    }
}

/// Results for one workload panel.
pub struct Panel {
    /// Workload name.
    pub model: String,
    /// Per-algorithm full run reports (loss curves inside).
    pub results: Vec<(AlgorithmKind, RunReport)>,
}

/// The registry entries: one spec per workload panel.
pub fn specs(p: &Params) -> Vec<ExperimentSpec> {
    let group = if p.heterogeneous { "fig08" } else { "fig09" };
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
                    "{} — training loss vs time ({} network, {} workers)",
                    if p.heterogeneous { "Fig. 8" } else { "Fig. 9" },
                    if p.heterogeneous { "heterogeneous" } else { "homogeneous" },
                    p.workers
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![p.seed],
                metrics: vec![MetricKind::TimeToTarget, MetricKind::EpochCost, MetricKind::Accuracy],
            }
        })
        .collect()
}

/// Runs both panels (ResNet18 and VGG19) through the spec executor.
pub fn run(p: &Params) -> Vec<Panel> {
    specs(p)
        .iter()
        .map(|spec| {
            let result = runner::execute_with_threads(spec, runner::default_threads());
            Panel {
                model: result.cells[0].report.workload.clone(),
                results: result
                    .cells
                    .into_iter()
                    .map(|c| (c.algorithm, c.report))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmax_fastest_to_target_on_heterogeneous() {
        let p = Params { heterogeneous: true, workers: 8, epochs: 12.0, seed: 7 };
        let panels = run(&p);
        for panel in &panels {
            // Claim 1 (Fig. 8): among the asynchronous gossip family,
            // NetMax reaches the common loss target first. (Allreduce can
            // win *shallow* targets in the early transient through its
            // 8×-batch averaged gradients; the paper's speedup is read at
            // the convergence plateau, checked by the full harness.)
            let rows = common::speedup_rows(&panel.results);
            let t = |name: &str| rows.iter().find(|(n, _, _)| n == name).unwrap().1;
            assert!(
                t("NetMax") <= t("AD-PSGD") * 1.02,
                "{}: NetMax {} vs AD-PSGD {}",
                panel.model,
                t("NetMax"),
                t("AD-PSGD")
            );
            assert!(t("NetMax") <= t("Prague") * 1.02, "{}", panel.model);
            // Claim 2 (Fig. 5): NetMax has the lowest wall-clock for the
            // fixed epoch budget.
            let wall = |kind: AlgorithmKind| {
                panel.results.iter().find(|(k, _)| *k == kind).unwrap().1.wall_clock_s
            };
            let nm = wall(AlgorithmKind::NetMax);
            assert!(nm <= wall(AlgorithmKind::AdPsgd), "{}", panel.model);
            assert!(nm <= wall(AlgorithmKind::AllreduceSgd), "{}", panel.model);
            assert!(nm <= wall(AlgorithmKind::Prague), "{}", panel.model);
        }
    }

    #[test]
    fn homogeneous_netmax_and_adpsgd_comparable() {
        let p = Params { heterogeneous: false, workers: 8, epochs: 8.0, seed: 7 };
        let panels = run(&p);
        let panel = &panels[0];
        let rows = common::speedup_rows(&panel.results);
        let t = |name: &str| rows.iter().find(|(n, _, _)| n == name).unwrap().1;
        // Within 40% of each other (the paper's curves nearly coincide).
        let (nm, ad) = (t("NetMax"), t("AD-PSGD"));
        assert!(nm / ad < 1.4 && ad / nm < 1.4, "NetMax {nm} vs AD-PSGD {ad}");
        // And the gossip pair beats the collectives on wall-clock for the
        // same epoch budget (the Fig. 6 epoch-time view; on this fast
        // network every curve hits the loss target within the first few
        // samples, so time-to-target cannot separate the families).
        let wall = |kind: AlgorithmKind| {
            panel.results.iter().find(|(k, _)| *k == kind).unwrap().1.wall_clock_s
        };
        let nm_wall = wall(AlgorithmKind::NetMax);
        assert!(wall(AlgorithmKind::AllreduceSgd) > nm_wall);
        assert!(wall(AlgorithmKind::Prague) > nm_wall);
    }
}
