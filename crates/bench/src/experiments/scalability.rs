//! Fig. 10 / Fig. 11 — speedup versus number of worker nodes.
//!
//! The paper's baseline is "the training time after finishing a specified
//! epoch in Allreduce-SGD with 4 worker nodes"; every other run's speedup
//! is that time divided by its own time to the same per-node epoch count
//! (§V-E) — each spec's cells carry the wall-clock times the ratio is
//! read from. Heterogeneous sweeps 4–16 nodes, homogeneous 4–8.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per (figure, workload, node count),
/// Fig. 10 (heterogeneous: 4–16 workers) before Fig. 11 (homogeneous:
/// 4–8); tiny mode keeps each figure's two smallest counts.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(16.0);
    let seed = 3;
    let mut out = Vec::new();
    for (heterogeneous, mut node_counts) in [(true, vec![4, 8, 12, 16]), (false, vec![4, 6, 8])] {
        if mode == Mode::Tiny {
            node_counts.truncate(2);
        }
        let group = if heterogeneous { "fig10" } else { "fig11" };
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
                        "{} — speedup vs worker count ({}; baseline: Allreduce@4)",
                        if heterogeneous { "Fig. 10" } else { "Fig. 11" },
                        if heterogeneous { "heterogeneous" } else { "homogeneous" }
                    ),
                    scenario,
                    arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                    seeds: vec![seed],
                    metrics: vec![MetricKind::TimeToTarget],
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
    fn netmax_speedup_dominates_at_every_node_count() {
        let node_counts = [4, 8];
        // The heterogeneous ResNet18 sweep; the §V-E baseline is its
        // Allreduce run at 4 workers.
        let results: Vec<_> = specs(Mode::Full)
            .into_iter()
            .filter(|s| s.group == "fig10" && s.name.contains("resnet18"))
            .filter(|s| node_counts.contains(&s.scenario.workers()))
            .map(|mut s| {
                s.scenario.cfg_mut().max_epochs = 5.0;
                runner::try_execute(&s, &Default::default()).unwrap()
            })
            .collect();
        assert_eq!(results.len(), node_counts.len());
        let wall = |r: &runner::ExperimentResult, kind: AlgorithmKind| {
            r.cell(kind).expect("arm present").report.wall_clock_s
        };
        assert_eq!(results[0].spec.scenario.workers(), 4);
        let baseline = wall(&results[0], AlgorithmKind::AllreduceSgd);
        for result in &results {
            let nodes = result.spec.scenario.workers();
            let speedup = |kind: AlgorithmKind| baseline / wall(result, kind);
            let netmax = speedup(AlgorithmKind::NetMax);
            assert!(netmax >= speedup(AlgorithmKind::Prague), "nodes={nodes}");
            assert!(netmax >= speedup(AlgorithmKind::AllreduceSgd), "nodes={nodes}");
        }
    }
}
