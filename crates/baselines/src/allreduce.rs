//! Allreduce-SGD \[8\]: fully synchronous data-parallel SGD.
//!
//! Every round, all workers compute a mini-batch gradient, ring-allreduce
//! the gradients to their mean, and apply the identical averaged update.
//! Replicas stay bit-identical, so this is exactly large-batch SGD over
//! the union of shards. On a heterogeneous network the round is paced by
//! the slowest straggler *and* the slowest ring link — the weakness the
//! paper's Fig. 5/8 exposes.

use crate::collectives::ring_allreduce_time;
use netmax_core::engine::{Algorithm, DriverEvent, Environment, SessionDriver};
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Synchronous ring-allreduce SGD.
pub struct AllreduceSgd {
    _private: (),
}

impl AllreduceSgd {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl Default for AllreduceSgd {
    fn default() -> Self {
        Self::new()
    }
}

impl Algorithm for AllreduceSgd {
    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn driver(&mut self) -> Box<dyn SessionDriver + '_> {
        Box::new(AllreduceDriver {
            started: false,
            ring: Vec::new(),
            compute: Vec::new(),
            mean_grad: Vec::new(),
        })
    }
}

/// Round-granular session driver: one advance = one fully synchronous
/// round (compute, ring-allreduce, identical averaged update on every
/// replica). The per-round work buffers persist across advances so a
/// steady-state round allocates nothing; they are transient scratch, not
/// checkpointed state.
///
/// Failure semantics: every round re-derives its membership from the
/// environment — crashed workers are excluded from the ring, the
/// gradient average, and the update (their clocks freeze), while
/// straggler workers pace the whole round (`c_max`), exactly the
/// synchronous weakness the paper's Fig. 5/8 exposes. A rejoining worker
/// is warm-started by the engine from a live replica, so the surviving
/// fleet's replicas stay bit-identical throughout.
struct AllreduceDriver {
    started: bool,
    /// This round's ring membership (the active workers).
    ring: Vec<usize>,
    compute: Vec<f64>,
    mean_grad: Vec<f32>,
}

impl SessionDriver for AllreduceDriver {
    fn name(&self) -> &str {
        "allreduce"
    }

    fn advance(&mut self, env: &mut Environment) -> DriverEvent {
        let n = env.num_nodes();
        self.ring.clear();
        self.ring.extend((0..n).filter(|&i| env.is_active(i)));
        let Some(&lead) = self.ring.first() else {
            // Every worker is down: nothing left to train.
            return DriverEvent::Exhausted;
        };
        if !self.started {
            self.started = true;
            // Real allreduce training broadcasts rank 0's initialisation
            // so the replicas are identical from the first step.
            let init = env.pull_params(lead).expect("broadcast source is active");
            for &i in &self.ring[1..] {
                env.nodes[i].model.params_mut().copy_from_slice(&init);
            }
        }
        let bytes = env.workload.profile.param_bytes();
        let members = self.ring.len();
        // Member clocks advance in lockstep; a freshly rejoined worker may
        // lag the fleet, so the round rendezvous at the latest member.
        let now = self.ring.iter().map(|&i| env.nodes[i].clock).fold(0.0f64, f64::max);

        // Parallel gradient computation; the round waits for the slowest
        // member.
        self.compute.clear();
        self.mean_grad.clear();
        for k in 0..members {
            let c = env.compute_gradient(self.ring[k]);
            self.compute.push(c);
            let g = env.grad(self.ring[k]);
            if self.mean_grad.is_empty() {
                self.mean_grad.extend_from_slice(g);
            } else {
                for (a, b) in self.mean_grad.iter_mut().zip(g) {
                    *a += b;
                }
            }
        }
        let inv = 1.0 / members as f32;
        for a in &mut self.mean_grad {
            *a *= inv;
        }
        let c_max = self.compute.iter().copied().fold(0.0, f64::max);
        let ar = if members >= 2 {
            ring_allreduce_time(&env.network, &self.ring, bytes, now + c_max, 1.0)
        } else {
            0.0
        };

        for (slot, &c) in self.compute.iter().enumerate() {
            let i = self.ring[slot];
            env.apply_gradient(i, &self.mean_grad);
            // Rendezvous wait (zero in lockstep) is booked as exposed
            // communication.
            let wait = now - env.nodes[i].clock;
            env.book_iteration(i, c, wait + c_max + ar);
        }
        env.global_step += members as u64;
        DriverEvent::Round { steps: members as u64, time_s: env.nodes[lead].clock }
    }

    fn checkpoint_state(&self) -> Json {
        Json::obj([("started", self.started.to_json())])
    }

    fn restore_state(&mut self, _env: &mut Environment, state: &Json) -> Result<(), JsonError> {
        // Replicas come back from the environment checkpoint; the
        // broadcast must not rerun (mid-run it would be a no-op anyway —
        // allreduce keeps replicas bit-identical — but skipping is the
        // honest restore).
        self.started = bool::from_json(state.field("started")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_core::engine::{Scenario, TrainConfig};
    use netmax_ml::metrics::consensus_diameter;
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    fn scenario(kind: NetworkKind, seed: u64) -> Scenario {
        Scenario::builder()
            .workers(4)
            .network(kind)
            .workload(WorkloadSpec::convex_ridge(7))
            .train_config(TrainConfig { seed, max_epochs: 3.0, ..TrainConfig::quick_test() })
            .build()
    }

    #[test]
    fn allreduce_trains_and_reduces_loss() {
        let report = scenario(NetworkKind::Homogeneous, 1).run_with(&mut AllreduceSgd::new());
        let first = report.samples.first().unwrap().train_loss;
        assert!(report.final_train_loss < first);
        assert!(report.epochs_completed >= 3.0);
    }

    #[test]
    fn replicas_stay_identical() {
        let sc = scenario(NetworkKind::Homogeneous, 2);
        let mut env = sc.build_env();
        let _ = AllreduceSgd::new().run(&mut env);
        let models: Vec<_> = env.nodes.iter().map(|x| x.model.clone_box()).collect();
        // Broadcast init + identical averaged updates ⇒ exact consensus
        // throughout.
        assert_eq!(consensus_diameter(&models), 0.0);
    }

    #[test]
    fn clocks_advance_in_lockstep() {
        let sc = scenario(NetworkKind::HeterogeneousDynamic, 3);
        let mut env = sc.build_env();
        let _ = AllreduceSgd::new().run(&mut env);
        let c0 = env.nodes[0].clock;
        for node in &env.nodes {
            assert!((node.clock - c0).abs() < 1e-9, "sync rounds must stay in lockstep");
        }
    }

    #[test]
    fn heterogeneous_network_slows_allreduce() {
        let fast = scenario(NetworkKind::Homogeneous, 4).run_with(&mut AllreduceSgd::new());
        let slow =
            scenario(NetworkKind::HeterogeneousDynamic, 4).run_with(&mut AllreduceSgd::new());
        assert!(
            slow.wall_clock_s > fast.wall_clock_s,
            "slow links must hurt the synchronous collective"
        );
    }
}
