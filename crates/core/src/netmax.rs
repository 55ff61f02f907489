//! NetMax — the consensus SGD worker algorithm (Algorithm 2) wired to the
//! Network Monitor (Algorithm 1) and policy generator (Algorithm 3).
//!
//! Per iteration, a worker:
//! 1. samples a neighbour `m` with probability `p_{i,m}` (line 9),
//! 2. requests `x_m` and *concurrently* computes local gradients (10–11),
//! 3. applies the second-step update
//!    `x_i ← x_i − α · (ρ/2) · (d_{i,m}+d_{m,i})/p_{i,m} · (x_i − x_m)`
//!    (lines 13–14) — note the `1/p_{i,m}` factor: neighbours chosen
//!    *rarely* are merged *strongly*, which is what lets NetMax starve
//!    slow links of traffic without starving them of influence (§V-H),
//! 4. EMA-updates its iteration-time vector (line 16).
//!
//! Every `Ts` the Network Monitor collects the EMA matrix and disseminates
//! a freshly optimised `(P, ρ)`. Steps 1 and 4 and the monitor rounds are
//! the gossip driver's work on the [`Steering`] NetMax owns; NetMax itself
//! supplies the initial uniform draw and the step-3 merge.

use crate::engine::{
    Algorithm, Environment, GossipBehavior, GossipDriver, PeerChoice, SessionDriver, SessionError,
};
use crate::monitor::{MonitorConfig, Steering};
use crate::sparse_policy::SparsePolicy;
use rand::Rng;

/// Merge weight before the first policy arrives (and forever without a
/// monitor). Plays the role of `αρ/p` with the uniform policy; 0.4
/// behaves like slightly-damped AD-PSGD averaging.
const INITIAL_MERGE_WEIGHT: f64 = 0.4;

/// Upper clamp on the merge weight `αρ(d+d)/(2p)` for numerical safety
/// under stale policies (feasible policies keep it < 0.5).
const MAX_MERGE_WEIGHT: f64 = 0.9;

/// How the second-step update weights the pulled model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeWeighting {
    /// The paper's rule: `w = αρ(d_{i,m}+d_{m,i}) / (2 p_{i,m})` —
    /// rarely-selected neighbours merge strongly (Algorithm 2 line 13).
    InverseProbability,
    /// Fixed weight regardless of selection probability (what AD-PSGD
    /// does with 0.5); exists for the weighting ablation that isolates
    /// the §V-H effect. A blend weight, so in [0, 1]: anything else fails
    /// [`Session::new`](crate::engine::Session::new).
    Fixed(f64),
}

/// NetMax configuration.
#[derive(Debug, Clone)]
pub struct NetMaxConfig {
    /// Network Monitor settings (period `Ts`, EMA β, search resolution).
    /// `None` never runs a monitor and keeps the initial uniform policy —
    /// the "uniform" arm of the Fig. 7 ablation.
    pub monitor: Option<MonitorConfig>,
    /// Second-step weighting rule (paper default: inverse probability).
    pub weighting: MergeWeighting,
}

impl NetMaxConfig {
    /// Paper defaults (Ts = 120 s, β = 0.5, K = R = 10), for learning
    /// rate `alpha`.
    pub fn paper_default(alpha: f64) -> Self {
        Self {
            monitor: Some(MonitorConfig::paper_default(alpha)),
            weighting: MergeWeighting::InverseProbability,
        }
    }

    /// The non-adaptive (fixed uniform policy) variant.
    pub fn uniform() -> Self {
        Self { monitor: None, weighting: MergeWeighting::InverseProbability }
    }
}

/// The NetMax algorithm.
pub struct NetMax {
    weighting: MergeWeighting,
    steering: Option<Steering>,
}

impl NetMax {
    /// Creates a NetMax instance.
    pub fn new(cfg: NetMaxConfig) -> Self {
        Self { weighting: cfg.weighting, steering: cfg.monitor.map(Steering::new) }
    }

    /// Convenience constructor with paper defaults.
    pub fn paper_default(alpha: f64) -> Self {
        Self::new(NetMaxConfig::paper_default(alpha))
    }

    /// Number of policy updates applied during the last run.
    pub fn policies_applied(&self) -> u64 {
        self.steering.as_ref().map_or(0, Steering::policies_applied)
    }

    /// The currently active policy, if the monitor has produced one.
    pub fn current_policy(&self) -> Option<&SparsePolicy> {
        self.steering.as_ref()?.policy()
    }
}

impl GossipBehavior for NetMax {
    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        // Initial uniform policy of Algorithm 2 line 2: each of the M
        // entries (self included) gets equal probability; on sparse
        // graphs the mass is spread over {self} ∪ active neighbours
        // (with everyone alive this is the classic full-degree draw).
        let degree = env.active_degree(i);
        let k = env.node_rng(i).gen_range(0..=degree);
        if k == degree {
            PeerChoice::SelfStep
        } else {
            PeerChoice::Peer(env.nth_active_neighbor(i, k))
        }
    }

    fn merge(&mut self, env: &mut Environment, i: usize, m: usize, pulled: &[f32]) {
        let steered = self.steering.as_ref().and_then(|s| s.policy().zip(s.rho()));
        let w = match (self.weighting, steered) {
            (MergeWeighting::Fixed(w), _) => w,
            (MergeWeighting::InverseProbability, Some((policy, rho))) => {
                let p_im = policy.get(i, m);
                let d_sum = env.topology.d(i, m) + env.topology.d(m, i);
                if p_im > 0.0 {
                    let alpha = env.lr(i);
                    (alpha * rho * d_sum / (2.0 * p_im)).min(MAX_MERGE_WEIGHT)
                } else {
                    // Selected despite zero probability (cannot happen
                    // via sampling); merge conservatively.
                    INITIAL_MERGE_WEIGHT
                }
            }
            (MergeWeighting::InverseProbability, None) => INITIAL_MERGE_WEIGHT,
        };
        netmax_ml::params::blend(w as f32, env.nodes[i].model.params_mut(), pulled);
    }

    fn validate(&self) -> Result<(), SessionError> {
        match self.weighting {
            MergeWeighting::Fixed(w) if !(0.0..=1.0).contains(&w) => Err(
                SessionError::InvalidConfig(format!("fixed merge weight must be in [0, 1], got {w}")),
            ),
            _ => Ok(()),
        }
    }

    fn steering(&self) -> Option<&Steering> {
        self.steering.as_ref()
    }

    fn steering_mut(&mut self) -> Option<&mut Steering> {
        self.steering.as_mut()
    }
}

impl Algorithm for NetMax {
    fn name(&self) -> &'static str {
        if self.steering.is_some() {
            "netmax"
        } else {
            "netmax-uniform"
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
    use crate::engine::{decode_session_v3, CheckpointScratch, Scenario, Session, TrainConfig};
    use netmax_json::Json;
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    fn scenario(seed: u64, kind: NetworkKind) -> Scenario {
        Scenario::builder()
            .workers(4)
            .network(kind)
            .workload(WorkloadSpec::convex_ridge(7))
            .train_config(TrainConfig { seed, max_epochs: 3.0, ..TrainConfig::quick_test() })
            .build()
    }

    #[test]
    fn netmax_trains_to_completion() {
        let sc = scenario(1, NetworkKind::Homogeneous);
        let mut algo = NetMax::paper_default(0.05);
        let report = sc.run_with(&mut algo);
        assert!(report.epochs_completed >= 3.0);
        let first = report.samples.first().unwrap().train_loss;
        assert!(report.final_train_loss < first, "loss should drop");
    }

    #[test]
    fn netmax_is_deterministic() {
        let sc = scenario(5, NetworkKind::HeterogeneousDynamic);
        let r1 = sc.run_with(&mut NetMax::paper_default(0.05));
        let r2 = sc.run_with(&mut NetMax::paper_default(0.05));
        assert_eq!(r1.wall_clock_s, r2.wall_clock_s);
        assert_eq!(r1.final_train_loss, r2.final_train_loss);
        assert_eq!(r1.global_steps, r2.global_steps);
    }

    #[test]
    fn adaptive_policy_kicks_in_on_heterogeneous_network() {
        // Short monitor period so policies fire within the test run.
        let sc = scenario(3, NetworkKind::HeterogeneousDynamic);
        let mut algo = NetMax::new(NetMaxConfig {
            monitor: Some(MonitorConfig { period_s: 2.0, ..MonitorConfig::paper_default(0.05) }),
            ..NetMaxConfig::paper_default(0.05)
        });
        let _ = sc.run_with(&mut algo);
        assert!(
            algo.policies_applied() > 0,
            "monitor should have produced at least one policy"
        );
        let p = algo.current_policy().expect("policy exists");
        for i in 0..4 {
            assert!((p.row_sum(i) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_variant_never_updates_policy() {
        let sc = scenario(3, NetworkKind::HeterogeneousDynamic);
        let mut algo = NetMax::new(NetMaxConfig::uniform());
        let _ = sc.run_with(&mut algo);
        assert_eq!(algo.policies_applied(), 0);
        assert!(algo.current_policy().is_none());
        assert_eq!(algo.name(), "netmax-uniform");
    }

    #[test]
    fn uniform_checkpoint_has_no_steering() {
        let steering = |mut algo: NetMax| {
            let mut env = scenario(3, NetworkKind::HeterogeneousDynamic).build_env();
            let mut session = Session::new(&mut env, algo.driver()).unwrap();
            for _ in 0..50 {
                session.step();
            }
            let mut bytes = Vec::new();
            session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes).unwrap();
            let doc = decode_session_v3(&bytes).unwrap();
            doc.field("driver").and_then(|d| d.field("steering")).unwrap().clone()
        };
        assert_eq!(steering(NetMax::new(NetMaxConfig::uniform())), Json::Null);
        assert!(steering(NetMax::paper_default(0.05)).field("tracker").is_ok());
    }

    #[test]
    fn replicas_reach_consensus_neighbourhood() {
        let sc = scenario(9, NetworkKind::Homogeneous);
        let mut algo = NetMax::paper_default(0.05);
        let report = sc.run_with(&mut algo);
        let first = report.samples.first().unwrap().consensus_diameter;
        let last = report.samples.last().unwrap().consensus_diameter;
        assert!(last < first, "consensus diameter should shrink: {first} -> {last}");
    }
}
