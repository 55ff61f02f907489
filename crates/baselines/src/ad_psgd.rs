//! AD-PSGD (Lian et al. \[11\]) and its Network-Monitor extension (§III-D).
//!
//! Plain AD-PSGD: each worker repeatedly picks a neighbour **uniformly at
//! random** and averages models half-half — the `γ = 1/2` special case of
//! the gossip update. It is communication-agnostic: on a heterogeneous
//! network it keeps paying for slow links (the Fig. 2 motivation).
//!
//! AD-PSGD+Monitor (§V-H): the same averaging rule, but neighbour
//! selection follows the probabilities produced by a NetMax Network
//! Monitor. The paper finds this cuts wall-clock time below plain AD-PSGD
//! but converges slightly slower per epoch than NetMax because the merge
//! weight stays at 1/2 instead of NetMax's `αργ_{i,m}` compensation —
//! this implementation reproduces exactly that difference.

use netmax_core::engine::{
    Algorithm, Environment, GossipBehavior, GossipDriver, PeerChoice, SessionDriver,
};
use netmax_core::monitor::{EmaTimeTracker, MonitorConfig, NetworkMonitor};
use netmax_core::SparsePolicy;
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// AD-PSGD, optionally steered by a Network Monitor.
pub struct AdPsgd {
    monitored: bool,
    monitor_cfg: Option<MonitorConfig>,
    monitor: Option<NetworkMonitor>,
    tracker: Option<EmaTimeTracker>,
    policy: Option<SparsePolicy>,
    policies_applied: u64,
}

impl AdPsgd {
    /// Plain AD-PSGD: uniform neighbour selection.
    pub fn new() -> Self {
        Self {
            monitored: false,
            monitor_cfg: None,
            monitor: None,
            tracker: None,
            policy: None,
            policies_applied: 0,
        }
    }

    /// AD-PSGD with a NetMax Network Monitor steering neighbour selection
    /// (§III-D); `alpha` seeds the policy search.
    pub fn monitored(alpha: f64) -> Self {
        Self::monitored_with(MonitorConfig::paper_default(alpha))
    }

    /// Monitored AD-PSGD with an explicit monitor configuration.
    pub fn monitored_with(cfg: MonitorConfig) -> Self {
        Self {
            monitored: true,
            monitor_cfg: Some(cfg),
            monitor: None,
            tracker: None,
            policy: None,
            policies_applied: 0,
        }
    }

    /// Number of policies applied in the last run (monitored mode).
    pub fn policies_applied(&self) -> u64 {
        self.policies_applied
    }

    fn reset(&mut self, n: usize) {
        if self.monitored {
            let cfg = self.monitor_cfg.clone().expect("monitored without config");
            self.tracker = Some(EmaTimeTracker::for_fleet(n, cfg.beta));
            self.monitor = Some(NetworkMonitor::new(cfg));
        }
        self.policy = None;
        self.policies_applied = 0;
    }
}

impl Default for AdPsgd {
    fn default() -> Self {
        Self::new()
    }
}

impl GossipBehavior for AdPsgd {
    fn on_start(&mut self, env: &mut Environment) {
        self.reset(env.num_nodes());
    }

    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        if let Some(policy) = &self.policy {
            // Monitor-steered selection: the sampler NetMax uses.
            policy.sample_peer(env, i)
        } else {
            match env.sample_active_neighbor(i) {
                Some(m) => PeerChoice::Peer(m),
                // Every neighbour is down: a gradient-only iteration.
                None => PeerChoice::SelfStep,
            }
        }
    }

    fn merge(&mut self, env: &mut Environment, i: usize, _m: usize, pulled: &[f32]) {
        // AD-PSGD always averages half-half — including in monitored mode;
        // that fixed weight is exactly what §V-H blames for its slower
        // per-epoch convergence versus NetMax.
        netmax_ml::params::blend(0.5, env.nodes[i].model.params_mut(), pulled);
    }

    fn on_iteration(&mut self, _env: &Environment, i: usize, peer: Option<usize>, t: f64) {
        if let (Some(tracker), Some(m)) = (self.tracker.as_mut(), peer) {
            tracker.record(i, m, t);
        }
    }

    fn monitor_period(&self) -> Option<f64> {
        if self.monitored {
            self.monitor_cfg.as_ref().map(|c| c.period_s)
        } else {
            None
        }
    }

    fn on_monitor(&mut self, env: &mut Environment, _now: f64) {
        let (Some(monitor), Some(tracker)) = (self.monitor.as_mut(), self.tracker.as_ref())
        else {
            return;
        };
        let alpha = env.workload.optim.lr_at(env.mean_epoch());
        if let Some(res) = monitor.round(tracker, &env.topology, alpha, env.active_flags()) {
            self.policy = Some(res.policy);
            self.policies_applied += 1;
        }
    }

    fn checkpoint_state(&self) -> Json {
        Json::obj([
            (
                "tracker",
                match &self.tracker {
                    Some(t) => t.checkpoint(),
                    None => Json::Null,
                },
            ),
            (
                "monitor",
                match &self.monitor {
                    Some(m) => m.checkpoint(),
                    None => Json::Null,
                },
            ),
            (
                "policy",
                match &self.policy {
                    Some(p) => p.checkpoint(),
                    None => Json::Null,
                },
            ),
            ("policies_applied", self.policies_applied.to_json()),
        ])
    }

    fn restore_state(&mut self, env: &Environment, state: &Json) -> Result<(), JsonError> {
        let n = env.num_nodes();
        self.tracker = match state.field("tracker")? {
            Json::Null => None,
            t => Some(EmaTimeTracker::restore(t, n)?),
        };
        if let (Some(monitor), m @ Json::Obj(_)) = (self.monitor.as_mut(), state.field("monitor")?)
        {
            monitor.restore(m)?;
        }
        self.policy = match state.field("policy")? {
            Json::Null => None,
            p => Some(SparsePolicy::restore(p, n)?),
        };
        self.policies_applied = u64::from_json(state.field("policies_applied")?)?;
        Ok(())
    }
}

impl Algorithm for AdPsgd {
    fn name(&self) -> &'static str {
        if self.monitored {
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
        let mut algo = AdPsgd::monitored(0.05);
        if let Some(cfg) = algo.monitor_cfg.as_mut() {
            cfg.period_s = 2.0;
        }
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
