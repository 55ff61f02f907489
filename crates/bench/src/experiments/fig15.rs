//! Fig. 15 — extending AD-PSGD with the NetMax Network Monitor (§III-D,
//! §V-H).
//!
//! Three curves: plain AD-PSGD, AD-PSGD+Monitor, NetMax. The paper's
//! findings: the monitor cuts AD-PSGD's wall-clock; its per-epoch
//! convergence dips slightly below plain AD-PSGD *and* below NetMax —
//! because AD-PSGD keeps the fixed 1/2 averaging weight while NetMax
//! up-weights rarely-pulled (slow) neighbours.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, PartitionKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entry.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    // The §V-F CIFAR100 setting.
    let epochs = mode.epochs(30.0);
    let seed = 19;
    let scenario = Scenario::builder()
        .workers(8)
        .servers(2)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::resnet18_cifar100(seed).time_scaled(0.25))
        .partition(PartitionKind::Paper8Segments)
        .slowdown(common::slowdown())
        .train_config(common::train_config(epochs, seed))
        .build();
    vec![ExperimentSpec {
        name: "fig15/resnet18-cifar100".into(),
        group: "fig15".into(),
        title: "Fig. 15 — AD-PSGD extended with the Network Monitor (§III-D, §V-H)".into(),
        scenario,
        arms: vec![
            Arm::new(AlgorithmKind::AdPsgd),
            Arm::new(AlgorithmKind::AdPsgdMonitored),
            Arm::new(AlgorithmKind::NetMax),
        ],
        seeds: vec![seed],
        metrics: vec![MetricKind::TimeToTarget],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn monitor_cuts_adpsgd_wall_clock() {
        let mut spec = specs(Mode::Full).swap_remove(0);
        spec.scenario.cfg_mut().max_epochs = 6.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        let wall =
            |kind: AlgorithmKind| result.cell(kind).expect("arm present").report.wall_clock_s;
        // The §V-H finding: the monitored variant trains faster on the
        // wall clock than plain AD-PSGD.
        assert!(
            wall(AlgorithmKind::AdPsgdMonitored) < wall(AlgorithmKind::AdPsgd) * 1.02,
            "monitored {m} vs plain {p}",
            m = wall(AlgorithmKind::AdPsgdMonitored),
            p = wall(AlgorithmKind::AdPsgd)
        );
    }
}
