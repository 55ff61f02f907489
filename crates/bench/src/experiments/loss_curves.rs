//! Fig. 8 / Fig. 9 — training loss versus wall-clock time, 8 workers,
//! ResNet18 and VGG19 on CIFAR10.
//!
//! This is the paper's headline result: on the heterogeneous network
//! NetMax reaches the convergence target ~3.7× / 3.4× / 1.9× faster than
//! Prague / Allreduce-SGD / AD-PSGD (§V-D). On the homogeneous network
//! NetMax and AD-PSGD nearly coincide, and both beat the collectives.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per (figure, workload panel), Fig. 8
/// (heterogeneous) before Fig. 9 (homogeneous).
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let workers = 8;
    let epochs = mode.epochs(48.0);
    let seed = 7;
    let mut out = Vec::new();
    for heterogeneous in [true, false] {
        let group = if heterogeneous { "fig08" } else { "fig09" };
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
                    "{} — training loss vs time ({} network, {workers} workers)",
                    if heterogeneous { "Fig. 8" } else { "Fig. 9" },
                    if heterogeneous { "heterogeneous" } else { "homogeneous" }
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![seed],
                metrics: vec![MetricKind::TimeToTarget, MetricKind::EpochCost, MetricKind::Accuracy],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{self, ExperimentResult};

    /// Seconds to the panel's common loss target (the whole run when the
    /// arm never reaches it).
    fn time_to_target(result: &ExperimentResult, kind: AlgorithmKind) -> f64 {
        let r = &result.cell(kind).expect("arm present").report;
        r.time_to_loss(result.loss_target()).unwrap_or(r.wall_clock_s)
    }

    fn wall(result: &ExperimentResult, kind: AlgorithmKind) -> f64 {
        result.cell(kind).expect("arm present").report.wall_clock_s
    }

    #[test]
    fn netmax_fastest_to_target_on_heterogeneous() {
        for mut spec in specs(Mode::Full).into_iter().filter(|s| s.group == "fig08") {
            spec.scenario.cfg_mut().max_epochs = 12.0;
            let panel = runner::try_execute(&spec, &Default::default()).unwrap();
            // Claim 1 (Fig. 8): among the asynchronous gossip family,
            // NetMax reaches the common loss target first. (Allreduce can
            // win *shallow* targets in the early transient through its
            // 8×-batch averaged gradients; the paper's speedup is read at
            // the convergence plateau, checked by the full harness.)
            let t = |kind: AlgorithmKind| time_to_target(&panel, kind);
            assert!(
                t(AlgorithmKind::NetMax) <= t(AlgorithmKind::AdPsgd) * 1.02,
                "{}: NetMax {} vs AD-PSGD {}",
                spec.name,
                t(AlgorithmKind::NetMax),
                t(AlgorithmKind::AdPsgd)
            );
            assert!(t(AlgorithmKind::NetMax) <= t(AlgorithmKind::Prague) * 1.02, "{}", spec.name);
            // Claim 2 (Fig. 5): NetMax has the lowest wall-clock for the
            // fixed epoch budget.
            let nm = wall(&panel, AlgorithmKind::NetMax);
            assert!(nm <= wall(&panel, AlgorithmKind::AdPsgd), "{}", spec.name);
            assert!(nm <= wall(&panel, AlgorithmKind::AllreduceSgd), "{}", spec.name);
            assert!(nm <= wall(&panel, AlgorithmKind::Prague), "{}", spec.name);
        }
    }

    #[test]
    fn homogeneous_netmax_and_adpsgd_comparable() {
        // The homogeneous ResNet18 panel.
        let mut spec = specs(Mode::Full).into_iter().find(|s| s.group == "fig09").unwrap();
        spec.scenario.cfg_mut().max_epochs = 8.0;
        let panel = runner::try_execute(&spec, &Default::default()).unwrap();
        // Within 40% of each other (the paper's curves nearly coincide).
        let (nm, ad) = (
            time_to_target(&panel, AlgorithmKind::NetMax),
            time_to_target(&panel, AlgorithmKind::AdPsgd),
        );
        assert!(nm / ad < 1.4 && ad / nm < 1.4, "NetMax {nm} vs AD-PSGD {ad}");
        // And the gossip pair beats the collectives on wall-clock for the
        // same epoch budget (the Fig. 6 epoch-time view; on this fast
        // network every curve hits the loss target within the first few
        // samples, so time-to-target cannot separate the families).
        let nm_wall = wall(&panel, AlgorithmKind::NetMax);
        assert!(wall(&panel, AlgorithmKind::AllreduceSgd) > nm_wall);
        assert!(wall(&panel, AlgorithmKind::Prague) > nm_wall);
    }
}
