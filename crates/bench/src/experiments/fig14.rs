//! Fig. 14 + Table VI — training a small model (MobileNet) on a complex
//! dataset (CIFAR100), with parameter-server baselines included (§V-G).
//!
//! The paper's findings reproduced here: PS-async has the worst
//! convergence *per epoch* (fast co-located workers dominate the global
//! model), PS-sync the worst *wall-clock* (slowest-link pacing plus the
//! central bottleneck), and NetMax leads on time at comparable accuracy
//! (Table VI: all six approaches within ~1%).

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, PartitionKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The six algorithms of Fig. 14.
fn algorithms() -> [AlgorithmKind; 6] {
    [
        AlgorithmKind::Prague,
        AlgorithmKind::AllreduceSgd,
        AlgorithmKind::AdPsgd,
        AlgorithmKind::PsSync,
        AlgorithmKind::PsAsync,
        AlgorithmKind::NetMax,
    ]
}

/// The registry entry.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    // The paper's 120-epoch schedule compressed 4×.
    let epochs = mode.epochs(30.0);
    let seed = 17;
    let scenario = Scenario::builder()
        .workers(8)
        .servers(2)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::mobilenet_cifar100(seed).time_scaled(0.25))
        .partition(PartitionKind::Paper8Segments)
        .slowdown(common::slowdown())
        .train_config(common::train_config(epochs, seed))
        .build();
    vec![ExperimentSpec {
        name: "fig14/mobilenet-cifar100".into(),
        group: "fig14".into(),
        title: "Fig. 14 + Table VI — MobileNet on CIFAR100 incl. PS baselines (§V-G)".into(),
        scenario,
        arms: algorithms().map(Arm::new).to_vec(),
        seeds: vec![seed],
        metrics: vec![MetricKind::TimeToTarget, MetricKind::Accuracy],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn six_algorithms_run_and_ps_sync_is_slowest_family() {
        let mut spec = specs(Mode::Full).swap_remove(0);
        spec.scenario.cfg_mut().max_epochs = 3.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        assert_eq!(result.cells.len(), 6);
        let wall =
            |kind: AlgorithmKind| result.cell(kind).expect("arm present").report.wall_clock_s;
        // PS-sync pays the central bottleneck *and* slowest-link pacing:
        // it must be slower than NetMax by a clear margin.
        assert!(wall(AlgorithmKind::PsSync) > 1.5 * wall(AlgorithmKind::NetMax));
        // Async PS escapes the round barrier.
        assert!(wall(AlgorithmKind::PsAsync) < wall(AlgorithmKind::PsSync));
    }
}
