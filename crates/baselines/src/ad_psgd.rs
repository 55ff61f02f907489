//! AD-PSGD (Lian et al. \[11\]) and its Network-Monitor extension (§III-D).
//!
//! Plain AD-PSGD: each worker repeatedly picks a neighbour **uniformly at
//! random** and averages models half-half — the `γ = 1/2` special case of
//! the gossip update. It is communication-agnostic: on a heterogeneous
//! network it keeps paying for slow links (the Fig. 2 motivation).
//!
//! AD-PSGD+Monitor (§V-H): the same averaging rule, but neighbour
//! selection follows the probabilities produced by a NetMax Network
//! Monitor — the same [`Steering`] NetMax owns, run by the gossip driver.
//! The paper finds this cuts wall-clock time below plain AD-PSGD but
//! converges slightly slower per epoch than NetMax because the merge
//! weight stays at 1/2 instead of NetMax's `αργ_{i,m}` compensation —
//! this implementation reproduces exactly that difference.

use netmax_core::engine::{
    Algorithm, Environment, GossipBehavior, GossipDriver, PeerChoice, SessionDriver,
};
use netmax_core::monitor::{MonitorConfig, Steering};

/// AD-PSGD, optionally steered by a Network Monitor.
pub struct AdPsgd {
    steering: Option<Steering>,
}

impl AdPsgd {
    /// Plain AD-PSGD: uniform neighbour selection.
    pub fn new() -> Self {
        Self { steering: None }
    }

    /// AD-PSGD with a NetMax Network Monitor steering neighbour selection
    /// (§III-D).
    pub fn monitored_with(cfg: MonitorConfig) -> Self {
        Self { steering: Some(Steering::new(cfg)) }
    }

    /// Number of policies applied in the last run (monitored mode).
    pub fn policies_applied(&self) -> u64 {
        self.steering.as_ref().map_or(0, Steering::policies_applied)
    }
}

impl Default for AdPsgd {
    fn default() -> Self {
        Self::new()
    }
}

impl GossipBehavior for AdPsgd {
    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        match env.sample_active_neighbor(i) {
            Some(m) => PeerChoice::Peer(m),
            // Every neighbour is down: a gradient-only iteration.
            None => PeerChoice::SelfStep,
        }
    }

    fn merge(&mut self, env: &mut Environment, i: usize, _m: usize, pulled: &[f32]) {
        // AD-PSGD always averages half-half — including in monitored mode;
        // that fixed weight is exactly what §V-H blames for its slower
        // per-epoch convergence versus NetMax.
        netmax_ml::params::blend(0.5, env.nodes[i].model.params_mut(), pulled);
    }

    fn steering(&self) -> Option<&Steering> {
        self.steering.as_ref()
    }

    fn steering_mut(&mut self) -> Option<&mut Steering> {
        self.steering.as_mut()
    }
}

impl Algorithm for AdPsgd {
    fn name(&self) -> &'static str {
        if self.steering.is_some() {
            "ad-psgd+monitor"
        } else {
            "ad-psgd"
        }
    }

    fn driver(&mut self) -> Box<dyn SessionDriver + '_> {
        let name = self.name();
        Box::new(GossipDriver::new(self, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_core::engine::{Scenario, TrainConfig};
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder()
            .workers(4)
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(WorkloadSpec::convex_ridge(7))
            .train_config(TrainConfig { seed, max_epochs: 3.0, ..TrainConfig::quick_test() })
            .build()
    }

    #[test]
    fn plain_adpsgd_trains() {
        let report = scenario(1).run_with(&mut AdPsgd::new());
        assert!(report.epochs_completed >= 3.0);
        let first = report.samples.first().unwrap().train_loss;
        assert!(report.final_train_loss < first);
        assert_eq!(report.algorithm, "ad-psgd");
    }

    #[test]
    fn monitored_variant_applies_policies() {
        let mut algo = AdPsgd::monitored_with(MonitorConfig {
            period_s: 2.0,
            ..MonitorConfig::paper_default(0.05)
        });
        let _ = scenario(2).run_with(&mut algo);
        assert!(algo.policies_applied() > 0, "monitor never produced a policy");
    }

    #[test]
    fn deterministic() {
        let r1 = scenario(3).run_with(&mut AdPsgd::new());
        let r2 = scenario(3).run_with(&mut AdPsgd::new());
        assert_eq!(r1.final_train_loss, r2.final_train_loss);
        assert_eq!(r1.wall_clock_s, r2.wall_clock_s);
    }
}
