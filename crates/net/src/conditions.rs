//! Network conditions: the composable [`ElasticNetwork`], one of three
//! base fabrics with [`LinkDynamics`] and a [`FaultPlan`] layered on.
//!
//! The base fabric is a uniform link ([`ElasticNetwork::uniform`] — the
//! reserved server with a 10 Gbps virtual switch, §V-A), a cluster
//! placement with intra/inter links ([`ElasticNetwork::cluster`]), or the
//! six-region EC2 latency/bandwidth matrix of Appendix G
//! ([`ElasticNetwork::wan`]). The paper's regimes are special cases: the
//! heterogeneous-dynamic one is the cluster fabric with
//! [`LinkDynamics::PeriodicRedraw`] ([`ElasticNetwork::new`]); the
//! homogeneous and WAN ones are their fabric with
//! [`LinkDynamics::Static`] and no faults.
//!
//! Everything is **pure in virtual time**: the cost of a link at time
//! `t` is a deterministic function of `(seed, t)`, never of call order.
//! This keeps every simulation exactly reproducible and lets the engine
//! query link costs speculatively.

use crate::dynamics::LinkDynamics;
use crate::faults::FaultPlan;
use crate::link::LinkQuality;
use crate::topology::Placement;
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Which of the paper's network regimes to instantiate (used by the
/// scenario builder and the figure harnesses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkKind {
    /// §V-A homogeneous: single server, 10 Gbps virtual switch.
    Homogeneous,
    /// §V-A heterogeneous with the dynamic 2×–100× slow link.
    HeterogeneousDynamic,
    /// §V-A heterogeneous but with the slow link frozen at its first draw
    /// (the static assumption SAPS-PSGD makes; used in ablations).
    HeterogeneousStatic,
    /// Appendix G: six EC2 regions.
    Wan,
}

impl NetworkKind {
    /// Stable CLI/JSON identifier (`hetero`, `homo`, `static`, `wan`).
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::Homogeneous => "homo",
            NetworkKind::HeterogeneousDynamic => "hetero",
            NetworkKind::HeterogeneousStatic => "static",
            NetworkKind::Wan => "wan",
        }
    }

    /// Inverse of [`NetworkKind::name`].
    pub fn by_name(name: &str) -> Option<NetworkKind> {
        [
            NetworkKind::Homogeneous,
            NetworkKind::HeterogeneousDynamic,
            NetworkKind::HeterogeneousStatic,
            NetworkKind::Wan,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

impl ToJson for NetworkKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for NetworkKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str()?;
        NetworkKind::by_name(name)
            .ok_or_else(|| JsonError::schema(format!("unknown network kind `{name}`")))
    }
}

/// Physical cluster description: how many workers per server and the two
/// link classes.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Workers hosted by each server, e.g. `\[4, 4\]` for the paper's
    /// two-server, 8-worker deployments.
    pub workers_per_server: Vec<usize>,
    /// Link used between workers on the same server.
    pub intra: LinkQuality,
    /// Link used between workers on different servers.
    pub inter: LinkQuality,
}

impl ClusterSpec {
    /// The paper's default fabric: intra-machine GPU-class links and
    /// 1000 Mbps Ethernet between servers.
    pub fn paper_default(workers_per_server: Vec<usize>) -> Self {
        Self {
            workers_per_server,
            intra: LinkQuality::intra_machine(),
            inter: LinkQuality::gbit_ethernet(),
        }
    }

    /// The worker→server placement implied by the per-server counts.
    pub fn placement(&self) -> Placement {
        Placement::from_counts(&self.workers_per_server)
    }
}

/// Configuration of the paper's dynamic slow-link regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownConfig {
    /// Minimum slowdown factor (paper: 2).
    pub min_factor: f64,
    /// Maximum slowdown factor (paper: 100).
    pub max_factor: f64,
    /// How often the slowed link is re-drawn, in seconds of virtual time
    /// (paper: every 5 minutes).
    pub change_period_s: f64,
    /// When `false`, the link drawn in window 0 stays slowed forever
    /// (models the static-subgraph assumption of SAPS-PSGD).
    pub dynamic: bool,
}

impl Default for SlowdownConfig {
    fn default() -> Self {
        Self { min_factor: 2.0, max_factor: 100.0, change_period_s: 300.0, dynamic: true }
    }
}

impl ToJson for SlowdownConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("min_factor", self.min_factor.to_json()),
            ("max_factor", self.max_factor.to_json()),
            ("change_period_s", self.change_period_s.to_json()),
            ("dynamic", self.dynamic.to_json()),
        ])
    }
}

impl FromJson for SlowdownConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            min_factor: f64::from_json(v.field("min_factor")?)?,
            max_factor: f64::from_json(v.field("max_factor")?)?,
            change_period_s: f64::from_json(v.field("change_period_s")?)?,
            dynamic: bool::from_json(v.field("dynamic")?)?,
        })
    }
}

/// The base fabric an [`ElasticNetwork`] modulates: who is placed where
/// and what the healthy link between each pair looks like.
#[derive(Debug, Clone)]
enum BaseFabric {
    /// Every distinct pair shares one link class.
    Uniform {
        /// Worker count.
        n: usize,
        /// The shared link.
        link: LinkQuality,
    },
    /// Workers placed on servers: intra-machine vs inter-machine links.
    Cluster {
        /// The cluster description.
        spec: ClusterSpec,
        /// Worker→server placement derived from it.
        placement: Placement,
    },
    /// The 6-region WAN matrix of Appendix G (boxed: the latency and
    /// bandwidth tables dwarf the other variants).
    Wan(Box<WanTables>),
}

impl BaseFabric {
    fn num_nodes(&self) -> usize {
        match self {
            BaseFabric::Uniform { n, .. } => *n,
            BaseFabric::Cluster { placement, .. } => placement.len(),
            BaseFabric::Wan(w) => w.region_of.len(),
        }
    }

    fn link(&self, from: usize, to: usize) -> LinkQuality {
        match self {
            BaseFabric::Uniform { link, .. } => *link,
            BaseFabric::Cluster { spec, placement } => {
                if placement.same_server(from, to) {
                    spec.intra
                } else {
                    spec.inter
                }
            }
            BaseFabric::Wan(w) => w.link(from, to),
        }
    }
}

/// A composable network: a base fabric whose links are modulated by
/// [`LinkDynamics`] and degraded by the link faults of a [`FaultPlan`],
/// all pure functions of `(seed, link, t)`.
///
/// The paper's dynamic regime is the cluster fabric with
/// [`LinkDynamics::PeriodicRedraw`], which [`ElasticNetwork::new`]
/// constructs.
#[derive(Debug, Clone)]
pub struct ElasticNetwork {
    base: BaseFabric,
    dynamics: LinkDynamics,
    faults: FaultPlan,
    seed: u64,
}

impl ElasticNetwork {
    /// Cluster fabric with the paper's periodic slow-link redraw (the
    /// heterogeneous-dynamic regime). `seed` drives the slow-link
    /// schedule.
    pub fn new(spec: ClusterSpec, slowdown: SlowdownConfig, seed: u64) -> Self {
        Self::cluster(spec, LinkDynamics::PeriodicRedraw(slowdown), seed)
    }

    /// Cluster fabric with explicit link dynamics.
    ///
    /// # Panics
    /// Panics on fewer than two workers or a dynamics description that
    /// fails validation (a bad config must fail at construction with a
    /// named error, not mid-simulation).
    pub fn cluster(spec: ClusterSpec, dynamics: LinkDynamics, seed: u64) -> Self {
        let placement = spec.placement();
        assert!(placement.len() >= 2, "need at least two workers");
        dynamics
            .validate(placement.len())
            .unwrap_or_else(|e| panic!("invalid link dynamics: {e}"));
        Self {
            base: BaseFabric::Cluster { spec, placement },
            dynamics,
            faults: FaultPlan::none(),
            seed,
        }
    }

    /// Uniform fabric (every pair shares `link`), statically healthy
    /// until dynamics or faults are layered on.
    pub fn uniform(n: usize, link: LinkQuality) -> Self {
        assert!(n > 0);
        Self {
            base: BaseFabric::Uniform { n, link },
            dynamics: LinkDynamics::Static,
            faults: FaultPlan::none(),
            seed: 0,
        }
    }

    /// WAN fabric over an explicit worker→region assignment (region
    /// order: US-West, US-East, Ireland, Mumbai, Singapore, Tokyo —
    /// matching Table VII), statically healthy until dynamics or faults
    /// are layered on.
    ///
    /// Bandwidth model: intra-region 1.25 GB/s; inter-region bandwidth
    /// decays with latency (long fat pipes are throughput-limited by
    /// congestion control), from ~150 MB/s for near regions down to
    /// ~30 MB/s for antipodal ones.
    pub fn wan(region_of: Vec<usize>) -> Self {
        Self {
            base: BaseFabric::Wan(Box::new(WanTables::new(region_of))),
            dynamics: LinkDynamics::Static,
            faults: FaultPlan::none(),
            seed: 0,
        }
    }

    /// Paper defaults for `n` workers spread over `servers` machines.
    pub fn paper_default(n: usize, servers: usize, seed: u64) -> Self {
        let per = n.div_ceil(servers);
        let mut counts = vec![per; servers];
        let excess: usize = per * servers - n;
        for c in counts.iter_mut().take(excess) {
            *c -= 1;
        }
        counts.retain(|&c| c > 0);
        Self::new(ClusterSpec::paper_default(counts), SlowdownConfig::default(), seed)
    }

    /// Replaces the link dynamics.
    ///
    /// # Panics
    /// Panics if the dynamics description fails validation.
    pub fn with_dynamics(mut self, dynamics: LinkDynamics) -> Self {
        dynamics
            .validate(self.base.num_nodes())
            .unwrap_or_else(|e| panic!("invalid link dynamics: {e}"));
        self.dynamics = dynamics;
        self
    }

    /// Attaches a fault plan (its link faults degrade this network's
    /// links; node faults are interpreted by the engine).
    ///
    /// # Panics
    /// Panics if the plan fails validation against this fleet size.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults
            .validate(self.base.num_nodes())
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        self.faults = faults;
        self
    }

    /// Replaces the dynamics seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Seconds to transfer `bytes` from node `from` to node `to`, starting
    /// at virtual time `now`.
    pub fn comm_time(&self, from: usize, to: usize, bytes: u64, now: f64) -> f64 {
        if from == to {
            return 0.0;
        }
        self.link(from, to, now).transfer_time(bytes)
    }

    /// The link quality between two nodes at time `now` (diagnostics and
    /// collectives that need bandwidth directly, e.g. ring allreduce).
    pub fn link(&self, from: usize, to: usize, now: f64) -> LinkQuality {
        let base = self.base.link(from, to);
        let n = self.base.num_nodes();
        let factor = self.dynamics.factor(self.seed, n, from, to, now)
            * self.faults.link_factor(from, to, now);
        if factor > 1.0 {
            base.slowed(factor)
        } else {
            base
        }
    }
}

/// The data of the six-region wide-area fabric (Appendix G deployment).
#[derive(Debug, Clone)]
struct WanTables {
    /// `region_of[i]` = region index of worker `i`.
    region_of: Vec<usize>,
    /// Upper-triangular one-way latency matrix in seconds, 6×6.
    latency: [[f64; 6]; 6],
    /// Inter-region bandwidth in bytes/s, 6×6 (diagonal = intra-region).
    bandwidth: [[f64; 6]; 6],
}

/// One-way latencies (seconds) between the six EC2 regions, derived from
/// published inter-region RTT measurements (half-RTT). The geographic
/// spread gives the up-to-~12× ratio the paper cites from \[5\].
const WAN_LATENCY_MS: [[f64; 6]; 6] = [
    // us-west us-east ireland mumbai singapore tokyo
    [0.5, 35.0, 65.0, 115.0, 85.0, 55.0],    // us-west
    [35.0, 0.5, 40.0, 95.0, 115.0, 80.0],    // us-east
    [65.0, 40.0, 0.5, 60.0, 90.0, 105.0],    // ireland
    [115.0, 95.0, 60.0, 0.5, 30.0, 60.0],    // mumbai
    [85.0, 115.0, 90.0, 30.0, 0.5, 35.0],    // singapore
    [55.0, 80.0, 105.0, 60.0, 35.0, 0.5],    // tokyo
];

impl WanTables {
    fn new(region_of: Vec<usize>) -> Self {
        assert!(!region_of.is_empty());
        assert!(region_of.iter().all(|&r| r < 6), "region index out of range");
        let mut bandwidth = [[0.0; 6]; 6];
        for (r, row) in bandwidth.iter_mut().enumerate() {
            for (c, bw) in row.iter_mut().enumerate() {
                if r == c {
                    *bw = 1.25e9;
                } else {
                    let lat = WAN_LATENCY_MS[r][c];
                    // 150 MB/s at 30 ms down to ~30 MB/s at 115 ms.
                    *bw = (150e6 * 30.0 / lat).clamp(30e6, 150e6);
                }
            }
        }
        let mut latency = [[0.0; 6]; 6];
        for (r, row) in latency.iter_mut().enumerate() {
            for (c, l) in row.iter_mut().enumerate() {
                *l = WAN_LATENCY_MS[r][c] / 1e3;
            }
        }
        Self { region_of, latency, bandwidth }
    }

    fn link(&self, from: usize, to: usize) -> LinkQuality {
        let (a, b) = (self.region_of[from], self.region_of[to]);
        LinkQuality::new(self.latency[a][b], self.bandwidth[a][b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1_000_000;

    #[test]
    fn homogeneous_is_uniform_and_symmetric() {
        let net = ElasticNetwork::uniform(8, LinkQuality::virtual_switch_10g());
        let t01 = net.comm_time(0, 1, 10 * MB, 0.0);
        let t67 = net.comm_time(6, 7, 10 * MB, 1234.5);
        assert!((t01 - t67).abs() < 1e-12);
        assert_eq!(net.comm_time(3, 3, 10 * MB, 0.0), 0.0);
    }

    #[test]
    fn hetero_intra_faster_than_inter() {
        let net = ElasticNetwork::paper_default(8, 2, 7);
        // Workers 0..3 on server 0, 4..7 on server 1.
        let intra = net.comm_time(0, 1, 40 * MB, 0.0);
        let inter = net.comm_time(0, 4, 40 * MB, 0.0);
        // The slowed pair might be (0,1) or (0,4); check with a pair that is
        // not slowed in window 0.
        let (a, b, _) = crate::dynamics::periodic_slowed_pair(&SlowdownConfig::default(), 7, 8, 0);
        let (i1, i2) = if (a, b) == (0, 1) { (1, 2) } else { (0, 1) };
        let (j1, j2) = if (a, b) == (0, 4) { (1, 5) } else { (0, 4) };
        let intra_clean = net.comm_time(i1, i2, 40 * MB, 0.0);
        let inter_clean = net.comm_time(j1, j2, 40 * MB, 0.0);
        assert!(
            inter_clean > 3.0 * intra_clean,
            "inter {inter_clean} should dwarf intra {intra_clean} (raw {intra}/{inter})"
        );
    }

    #[test]
    fn slow_link_changes_between_windows() {
        let cfg = SlowdownConfig::default();
        let pairs: Vec<_> =
            (0..20).map(|w| crate::dynamics::periodic_slowed_pair(&cfg, 42, 8, w)).collect();
        // Factors in range.
        for &(_, _, f) in &pairs {
            assert!((2.0..=100.0).contains(&f), "factor {f} out of paper range");
        }
        // At least two distinct pairs over 20 windows (overwhelmingly likely).
        let distinct: std::collections::HashSet<(usize, usize)> =
            pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        assert!(distinct.len() > 1, "slow link never moved");
    }

    #[test]
    fn static_mode_freezes_slow_link() {
        let sd = SlowdownConfig { dynamic: false, ..SlowdownConfig::default() };
        let p0 = crate::dynamics::periodic_slowed_pair(&sd, 42, 8, 0);
        for w in 1..10 {
            assert_eq!(crate::dynamics::periodic_slowed_pair(&sd, 42, 8, w), p0);
        }
        // And the network built from it serves identical links across
        // windows.
        let spec = ClusterSpec::paper_default(vec![4, 4]);
        let net = ElasticNetwork::new(spec, sd, 42);
        let t0 = net.comm_time(0, 4, 40 * MB, 0.0);
        assert_eq!(net.comm_time(0, 4, 40 * MB, 10_000.0), t0);
    }

    #[test]
    fn new_is_the_cluster_fabric_with_periodic_redraw_bit_for_bit() {
        // The paper-regime constructor and the decomposed dynamics must
        // serve the same schedule bit-for-bit: same base links, same
        // slowed pair, same factor, at every time.
        let spec = ClusterSpec::paper_default(vec![3, 3, 2]);
        let sd = SlowdownConfig { change_period_s: 120.0, ..SlowdownConfig::default() };
        let regime = ElasticNetwork::new(spec.clone(), sd, 7);
        let composed =
            ElasticNetwork::cluster(spec, LinkDynamics::PeriodicRedraw(sd), 7);
        for t in [0.0, 55.5, 119.9, 120.0, 3600.0, 12345.6] {
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(
                        regime.comm_time(i, j, 40 * MB, t).to_bits(),
                        composed.comm_time(i, j, 40 * MB, t).to_bits(),
                        "({i},{j}) at t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_faults_degrade_only_their_window() {
        use crate::faults::{LinkFault, LinkFaultKind};
        let net = ElasticNetwork::uniform(4, LinkQuality::gbit_ethernet()).with_faults(FaultPlan {
            link_faults: vec![LinkFault {
                a: 0,
                b: 2,
                start_s: 100.0,
                end_s: 200.0,
                kind: LinkFaultKind::Degrade(10.0),
            }],
            ..FaultPlan::none()
        });
        let healthy = net.comm_time(0, 2, 10 * MB, 50.0);
        let faulty = net.comm_time(0, 2, 10 * MB, 150.0);
        assert!((faulty / healthy - 10.0).abs() < 1e-9, "{faulty} vs {healthy}");
        assert_eq!(net.comm_time(0, 2, 10 * MB, 200.0), healthy, "window end is exclusive");
        assert_eq!(net.comm_time(1, 3, 10 * MB, 150.0), healthy, "other links untouched");
    }

    #[test]
    fn outage_composes_with_dynamics() {
        use crate::faults::{LinkFault, LinkFaultKind, OUTAGE_FACTOR};
        let spec = ClusterSpec::paper_default(vec![2, 2]);
        let net = ElasticNetwork::cluster(spec, LinkDynamics::Static, 1).with_faults(FaultPlan {
            link_faults: vec![LinkFault {
                a: 0,
                b: 3,
                start_s: 0.0,
                end_s: 1e6,
                kind: LinkFaultKind::Outage,
            }],
            ..FaultPlan::none()
        });
        let clean = net.comm_time(1, 2, 40 * MB, 10.0); // same inter class
        let dead = net.comm_time(0, 3, 40 * MB, 10.0);
        assert!((dead / clean - OUTAGE_FACTOR).abs() / OUTAGE_FACTOR < 1e-9);
    }

    #[test]
    fn markov_dynamics_build_a_working_cluster_network() {
        let spec = ClusterSpec::paper_default(vec![4, 4]);
        let net = ElasticNetwork::cluster(
            spec,
            LinkDynamics::MarkovModulated(crate::dynamics::MarkovConfig::fast_drift()),
            3,
        );
        // Pure in time, positive, and bounded by the worst state.
        let base = LinkQuality::gbit_ethernet().transfer_time(40 * MB);
        for t in [0.0, 7.0, 500.0] {
            let a = net.comm_time(0, 5, 40 * MB, t);
            assert!(a > 0.0 && a <= base * 16.0 * 1.001);
            assert_eq!(a, net.comm_time(0, 5, 40 * MB, t));
        }
    }

    #[test]
    fn dynamics_are_pure_in_time() {
        let net = ElasticNetwork::paper_default(8, 2, 3);
        let t1 = net.comm_time(0, 5, 40 * MB, 100.0);
        // Query other times in between; then re-query.
        let _ = net.comm_time(0, 5, 40 * MB, 900.0);
        let _ = net.comm_time(2, 6, 40 * MB, 1500.0);
        let t1_again = net.comm_time(0, 5, 40 * MB, 100.0);
        assert_eq!(t1, t1_again);
    }

    #[test]
    fn wan_heterogeneity_ratio() {
        let net = ElasticNetwork::wan((0..6).collect());
        // Mumbai↔Singapore (close) vs US-West↔Mumbai (far).
        let near = net.comm_time(3, 4, 4 * MB, 0.0);
        let far = net.comm_time(0, 3, 4 * MB, 0.0);
        assert!(far > 2.0 * near, "far {far} vs near {near}");
        assert_eq!(net.num_nodes(), 6);
    }

    #[test]
    fn wan_latency_matrix_is_symmetric() {
        let net = ElasticNetwork::wan((0..6).collect());
        for i in 0..6 {
            for j in 0..6 {
                let a = net.comm_time(i, j, MB, 0.0);
                let b = net.comm_time(j, i, MB, 0.0);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cluster_spec_placement() {
        let spec = ClusterSpec::paper_default(vec![4, 4]);
        let p = spec.placement();
        assert_eq!(p.len(), 8);
        assert!(p.same_server(0, 3));
        assert!(!p.same_server(0, 4));
    }
}
