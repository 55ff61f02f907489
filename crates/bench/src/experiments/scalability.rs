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

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Heterogeneous (Fig. 10) or homogeneous (Fig. 11).
    pub heterogeneous: bool,
    /// Worker counts to sweep.
    pub node_counts: Vec<usize>,
    /// Epoch budget per run.
    pub epochs: f64,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full reproduction scale (paper's node counts).
    pub fn full(heterogeneous: bool) -> Self {
        Self {
            heterogeneous,
            node_counts: if heterogeneous { vec![4, 8, 12, 16] } else { vec![4, 6, 8] },
            epochs: 16.0,
            seed: 3,
        }
    }

    /// Mode-scaled parameters.
    pub fn for_mode(mode: Mode, heterogeneous: bool) -> Self {
        let mut p = Self::full(heterogeneous);
        p.epochs = mode.epochs(p.epochs);
        if mode == Mode::Tiny {
            p.node_counts.truncate(2);
        }
        p
    }
}

/// The registry entries: one spec per (workload, node count).
pub fn specs(p: &Params) -> Vec<ExperimentSpec> {
    let group = if p.heterogeneous { "fig10" } else { "fig11" };
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
                    "{} — speedup vs worker count ({}; baseline: Allreduce@4)",
                    if p.heterogeneous { "Fig. 10" } else { "Fig. 11" },
                    if p.heterogeneous { "heterogeneous" } else { "homogeneous" }
                ),
                scenario,
                arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
                seeds: vec![p.seed],
                metrics: vec![MetricKind::TimeToTarget],
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
    fn netmax_speedup_dominates_at_every_node_count() {
        let p = Params {
            heterogeneous: true,
            node_counts: vec![4, 8],
            epochs: 5.0,
            seed: 3,
        };
        // The ResNet18 sweep; the §V-E baseline is its Allreduce run at
        // 4 workers.
        let results: Vec<_> = specs(&p)
            .iter()
            .filter(|s| s.name.contains("resnet18"))
            .map(|s| runner::try_execute(s, &Default::default()).unwrap())
            .collect();
        assert_eq!(results.len(), p.node_counts.len());
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
