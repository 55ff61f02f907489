//! Fig. 10 / Fig. 11 — speedup versus number of worker nodes.
//!
//! The paper's baseline is "the training time after finishing a specified
//! epoch in Allreduce-SGD with 4 worker nodes"; every other run's speedup
//! is that time divided by its own time to the same per-node epoch count
//! (§V-E). Heterogeneous sweeps 4–16 nodes, homogeneous 4–8.

use crate::common::{self, Mode};
use crate::runner;
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

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub model: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Worker count.
    pub nodes: usize,
    /// Wall-clock seconds to the epoch target.
    pub time_s: f64,
    /// Speedup over Allreduce-SGD with 4 workers.
    pub speedup: f64,
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

/// Runs the sweep for both workloads. The speedup baseline is the
/// Allreduce-SGD run at 4 workers (§V-E); when 4 is not among the
/// requested node counts an extra baseline spec is executed unregistered.
pub fn run(p: &Params) -> Vec<Row> {
    let mut rows = Vec::new();
    for make in [WorkloadSpec::resnet18_cifar10 as fn(u64) -> WorkloadSpec, WorkloadSpec::vgg19_cifar10] {
        let workload_name = make(p.seed).kind.name().to_string();
        let results: Vec<_> = specs(p)
            .into_iter()
            .filter(|s| s.name.contains(&workload_name))
            .map(|s| runner::execute_with_threads(&s, runner::default_threads()))
            .collect();
        let baseline = results
            .iter()
            .find(|r| r.spec.scenario.workers() == 4)
            .and_then(|r| r.cell(AlgorithmKind::AllreduceSgd))
            .map(|c| c.report.wall_clock_s)
            .unwrap_or_else(|| {
                let mut bp = p.clone();
                bp.node_counts = vec![4];
                let spec = specs(&bp)
                    .into_iter()
                    .find(|s| s.name.contains(&workload_name))
                    .expect("baseline spec");
                let r = runner::execute_with_threads(&spec, runner::default_threads());
                r.cell(AlgorithmKind::AllreduceSgd).expect("allreduce arm").report.wall_clock_s
            });
        for result in results {
            for c in result.cells {
                rows.push(Row {
                    model: c.report.workload.clone(),
                    algorithm: c.label,
                    nodes: result.spec.scenario.workers(),
                    time_s: c.report.wall_clock_s,
                    speedup: baseline / c.report.wall_clock_s,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmax_speedup_dominates_at_every_node_count() {
        let p = Params {
            heterogeneous: true,
            node_counts: vec![4, 8],
            epochs: 5.0,
            seed: 3,
        };
        let rows = run(&p);
        for &nodes in &p.node_counts {
            {
                let model = "resnet18/cifar10";
                let get = |algo: &str| {
                    rows.iter()
                        .find(|r| r.model == model && r.nodes == nodes && r.algorithm == algo)
                        .unwrap()
                        .speedup
                };
                let netmax = get("NetMax");
                assert!(netmax >= get("Prague"), "nodes={nodes}");
                assert!(netmax >= get("Allreduce"), "nodes={nodes}");
            }
        }
    }

    #[test]
    fn allreduce4_speedup_is_exactly_one() {
        let p = Params { heterogeneous: false, node_counts: vec![4], epochs: 3.0, seed: 3 };
        let rows = run(&p);
        let base = rows
            .iter()
            .find(|r| r.nodes == 4 && r.algorithm == "Allreduce" && r.model == "resnet18/cifar10")
            .unwrap();
        assert!((base.speedup - 1.0).abs() < 1e-9);
    }
}
