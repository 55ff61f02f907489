//! Prague \[14\]: heterogeneity-aware training via randomized
//! partial-allreduce groups.
//!
//! Every round the workers are randomly partitioned into groups; each
//! group runs a ring partial-allreduce that averages its members' *models*
//! (after each member's local SGD step). Groups proceed independently,
//! which tolerates member slowdown — but the grouping is **link-speed
//! agnostic**, and concurrent group collectives contend for the shared
//! fabric. The paper identifies exactly these two effects as the source of
//! Prague's high communication cost (§V-B): they are modelled here by the
//! slowest-ring-link pacing inside [`ring_allreduce_time`] and by dividing
//! bandwidth across the concurrently active groups.

use crate::collectives::ring_allreduce_time;
use netmax_core::engine::{Algorithm, DriverEvent, Environment, SessionDriver};
use rand::seq::SliceRandom;

/// Randomized partial-allreduce training.
pub struct Prague {
    group_size: usize,
}

impl Prague {
    /// Creates Prague with the given target group size (≥ 2); the last
    /// group of a round absorbs the remainder.
    ///
    /// # Panics
    /// Panics if `group_size < 2`.
    pub fn new(group_size: usize) -> Self {
        assert!(group_size >= 2, "groups need at least 2 members");
        Self { group_size }
    }
}

impl Algorithm for Prague {
    fn name(&self) -> &'static str {
        "prague"
    }

    fn driver(&mut self) -> Box<dyn SessionDriver + '_> {
        Box::new(PragueDriver {
            group_size: self.group_size,
            order: Vec::new(),
            bounds: Vec::new(),
            compute: Vec::new(),
        })
    }
}

/// Round-granular session driver: one advance = one full round of random
/// grouping plus every group's partial-allreduce. The only *checkpointed*
/// mutable state is the environment's (the grouping draws from
/// `env.rng`); the work buffers below are per-round scratch that persists
/// across advances so steady-state rounds allocate nothing.
struct PragueDriver {
    group_size: usize,
    /// This round's shuffled node order (groups are contiguous ranges).
    order: Vec<usize>,
    /// `(start, end)` group boundaries into `order`.
    bounds: Vec<(usize, usize)>,
    /// Per-member compute times of the current group.
    compute: Vec<f64>,
}

impl SessionDriver for PragueDriver {
    fn name(&self) -> &str {
        "prague"
    }

    fn advance(&mut self, env: &mut Environment) -> DriverEvent {
        let n = env.num_nodes();
        let bytes = env.workload.profile.param_bytes();

        // Random group assignment for this round, over the *live* fleet:
        // Prague re-forms its groups from whoever is up (crashed workers
        // simply stop being drawn; a lone survivor trains in a singleton
        // "group" without a collective).
        self.order.clear();
        self.order.extend((0..n).filter(|&i| env.is_active(i)));
        let live = self.order.len();
        if live == 0 {
            return DriverEvent::Exhausted;
        }
        self.order.shuffle(&mut env.rng);
        partition_groups(live, self.group_size, &mut self.bounds);
        let n_groups = self.bounds.len().max(1);
        // Concurrent partial-allreduces contend for the shared fabric.
        // Contention is partial — groups overlap in time but not
        // fully, and only cross-server hops share physical links — so
        // each extra concurrent group costs 25% extra transfer time.
        let share = 1.0 / (1.0 + 0.25 * (n_groups as f64 - 1.0));

        for b in 0..self.bounds.len() {
            let (gs, ge) = self.bounds[b];
            // Group rendezvous: members wait for the latest member.
            let start = self.order[gs..ge]
                .iter()
                .map(|&i| env.nodes[i].clock)
                .fold(0.0f64, f64::max);

            // Local SGD step on every member (models, not gradients).
            self.compute.clear();
            for k in gs..ge {
                let i = self.order[k];
                self.compute.push(env.gradient_step(i));
            }
            let group = &self.order[gs..ge];
            let c_max = self.compute.iter().copied().fold(0.0, f64::max);

            let comm = if group.len() >= 2 {
                ring_allreduce_time(&env.network, group, bytes, start + c_max, share)
            } else {
                0.0
            };

            // Partial-allreduce: group-average the member models (into a
            // pooled parameter buffer).
            if group.len() >= 2 {
                let dim = env.nodes[group[0]].model.num_params();
                let mut mean = env.take_param_buf();
                mean.clear();
                mean.resize(dim, 0.0);
                let inv = 1.0 / group.len() as f32;
                for &i in group {
                    for (a, p) in mean.iter_mut().zip(env.nodes[i].model.params()) {
                        *a += p * inv;
                    }
                }
                for &i in group {
                    env.nodes[i].model.params_mut().copy_from_slice(&mean);
                }
                env.recycle_param_buf(mean);
            }

            for (slot, &i) in group.iter().enumerate() {
                // Rendezvous wait is booked as exposed communication.
                let wait = start - env.nodes[i].clock;
                env.book_iteration(i, self.compute[slot], wait + c_max + comm);
            }
            env.global_step += group.len() as u64;
        }
        DriverEvent::Round { steps: live as u64, time_s: env.wall_clock() }
    }
}

/// Splits a shuffled order of `n` nodes into contiguous groups of `size`,
/// folding a trailing single node into the previous group; boundaries are
/// written into `bounds`.
fn partition_groups(n: usize, size: usize, bounds: &mut Vec<(usize, usize)>) {
    bounds.clear();
    let mut start = 0;
    while start < n {
        let end = (start + size).min(n);
        bounds.push((start, end));
        start = end;
    }
    if bounds.len() >= 2 && bounds.last().is_some_and(|&(s, e)| e - s == 1) {
        let (_, end) = bounds.pop().expect("checked non-empty");
        bounds.last_mut().expect("checked len >= 2").1 = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_core::engine::{Scenario, TrainConfig};
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    fn scenario(kind: NetworkKind, seed: u64) -> Scenario {
        Scenario::builder()
            .workers(8)
            .network(kind)
            .workload(WorkloadSpec::convex_ridge(7))
            .train_config(TrainConfig { seed, max_epochs: 2.0, ..TrainConfig::quick_test() })
            .build()
    }

    #[test]
    fn partitioning_covers_everyone_without_singletons() {
        let mut bounds = Vec::new();
        partition_groups(9, 4, &mut bounds);
        let total: usize = bounds.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(total, 9);
        assert!(bounds.iter().all(|&(s, e)| e - s >= 2));
        // Contiguous cover of 0..9.
        assert_eq!(bounds.first().map(|&(s, _)| s), Some(0));
        assert!(bounds.windows(2).all(|w| w[0].1 == w[1].0));

        partition_groups(8, 4, &mut bounds);
        assert_eq!(bounds.len(), 2);
    }

    #[test]
    fn prague_trains_and_reduces_loss() {
        let report = scenario(NetworkKind::Homogeneous, 1).run_with(&mut Prague::new(4));
        let first = report.samples.first().unwrap().train_loss;
        assert!(report.final_train_loss < first);
        assert!(report.epochs_completed >= 2.0);
    }

    #[test]
    fn group_members_agree_after_partial_allreduce() {
        let sc = scenario(NetworkKind::Homogeneous, 2);
        let mut env = sc.build_env();
        let _ = Prague::new(8).run(&mut env); // one group = everyone
        let d = netmax_ml::metrics::consensus_diameter(
            &env.nodes.iter().map(|x| x.model.clone_box()).collect::<Vec<_>>(),
        );
        assert_eq!(d, 0.0, "a full group partial-allreduce is exact consensus");
    }

    #[test]
    fn deterministic() {
        let r1 = scenario(NetworkKind::HeterogeneousDynamic, 5).run_with(&mut Prague::new(4));
        let r2 = scenario(NetworkKind::HeterogeneousDynamic, 5).run_with(&mut Prague::new(4));
        assert_eq!(r1.final_train_loss, r2.final_train_loss);
        assert_eq!(r1.wall_clock_s, r2.wall_clock_s);
    }
}
