//! Declarative experiment construction.
//!
//! A [`Scenario`] captures everything that defines one of the paper's
//! experiments — worker count, network regime, workload, data partitioning,
//! seed — and builds a fresh [`Environment`] per run so different
//! algorithms can be compared on byte-identical initial conditions.
//!
//! A scenario is *pure data*: the workload is referenced by a
//! [`WorkloadSpec`] rather than held as instantiated datasets, every field
//! is plain configuration, and the whole struct round-trips through JSON
//! ([`ToJson`]/[`FromJson`]). That makes scenarios storable in experiment
//! registries and run artifacts; the datasets are materialised only at
//! [`Scenario::build_env`] time.

use super::config::TrainConfig;
use super::environment::Environment;
use super::recorder::RunReport;
use super::Algorithm;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_ml::partition::Partition;
use netmax_ml::workload::{Workload, WorkloadSpec};
use netmax_net::{
    ClusterSpec, ElasticNetwork, FaultPlan, LinkDynamics, LinkQuality, NetworkKind,
    SlowdownConfig, Topology,
};

/// Which communication graph shape connects the workers.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyKind {
    /// Complete graph (the paper's default; Appendix B assumes it).
    FullyConnected,
    /// Ring graph.
    Ring,
    /// 2-D torus (`rows × cols` must equal the worker count).
    Torus {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Random connected graph with extra-edge probability `p`.
    Random {
        /// Probability of each non-tree edge.
        p: f64,
    },
}

impl ToJson for TopologyKind {
    fn to_json(&self) -> Json {
        match self {
            TopologyKind::FullyConnected => Json::Str("fully_connected".into()),
            TopologyKind::Ring => Json::Str("ring".into()),
            TopologyKind::Torus { rows, cols } => Json::obj([
                ("torus", Json::obj([("rows", rows.to_json()), ("cols", cols.to_json())])),
            ]),
            TopologyKind::Random { p } => Json::obj([("random", Json::obj([("p", p.to_json())]))]),
        }
    }
}

impl FromJson for TopologyKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => match s.as_str() {
                "fully_connected" => Ok(TopologyKind::FullyConnected),
                "ring" => Ok(TopologyKind::Ring),
                other => Err(JsonError::schema(format!("unknown topology `{other}`"))),
            },
            Json::Obj(_) => {
                if let Some(t) = v.get("torus") {
                    Ok(TopologyKind::Torus {
                        rows: usize::from_json(t.field("rows")?)?,
                        cols: usize::from_json(t.field("cols")?)?,
                    })
                } else if let Some(r) = v.get("random") {
                    Ok(TopologyKind::Random { p: f64::from_json(r.field("p")?)? })
                } else {
                    Err(JsonError::schema("unknown topology variant".into()))
                }
            }
            other => Err(JsonError::schema(format!("expected topology, got {}", other.kind()))),
        }
    }
}

/// Which data partitioning scheme to apply (§V-A vs §V-F).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionKind {
    /// Even split (§V-B–E).
    Uniform,
    /// Segmented non-uniform split with explicit per-node segment counts.
    Segments(Vec<usize>),
    /// The paper's 8-node ⟨1,1,1,1,2,1,2,1⟩ pattern.
    Paper8Segments,
    /// The paper's 16-node pattern.
    Paper16Segments,
    /// Non-IID label removal with explicit lost labels per node.
    LabelSkew(Vec<Vec<u32>>),
    /// Table IV (8-node MNIST).
    PaperTable4,
    /// Table VII (6-region cross-cloud).
    PaperTable7,
}

impl ToJson for PartitionKind {
    fn to_json(&self) -> Json {
        match self {
            PartitionKind::Uniform => Json::Str("uniform".into()),
            PartitionKind::Paper8Segments => Json::Str("paper_8_segments".into()),
            PartitionKind::Paper16Segments => Json::Str("paper_16_segments".into()),
            PartitionKind::PaperTable4 => Json::Str("paper_table4".into()),
            PartitionKind::PaperTable7 => Json::Str("paper_table7".into()),
            PartitionKind::Segments(segs) => Json::obj([("segments", segs.to_json())]),
            PartitionKind::LabelSkew(lost) => Json::obj([("label_skew", lost.to_json())]),
        }
    }
}

impl FromJson for PartitionKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => match s.as_str() {
                "uniform" => Ok(PartitionKind::Uniform),
                "paper_8_segments" => Ok(PartitionKind::Paper8Segments),
                "paper_16_segments" => Ok(PartitionKind::Paper16Segments),
                "paper_table4" => Ok(PartitionKind::PaperTable4),
                "paper_table7" => Ok(PartitionKind::PaperTable7),
                other => Err(JsonError::schema(format!("unknown partition `{other}`"))),
            },
            Json::Obj(_) => {
                if let Some(segs) = v.get("segments") {
                    Ok(PartitionKind::Segments(Vec::from_json(segs)?))
                } else if let Some(lost) = v.get("label_skew") {
                    Ok(PartitionKind::LabelSkew(Vec::from_json(lost)?))
                } else {
                    Err(JsonError::schema("unknown partition variant".into()))
                }
            }
            other => Err(JsonError::schema(format!("expected partition, got {}", other.kind()))),
        }
    }
}

/// A fully specified experiment. Pure data — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    workers: usize,
    servers: usize,
    network: NetworkKind,
    workload: WorkloadSpec,
    partition: PartitionKind,
    cfg: TrainConfig,
    slowdown: SlowdownConfig,
    topology: TopologyKind,
    /// Link-dynamics override: `None` keeps the regime the network kind
    /// implies (the paper's periodic redraw for the heterogeneous kinds,
    /// static links otherwise).
    dynamics: Option<LinkDynamics>,
    /// Declarative fault schedule (empty by default).
    faults: FaultPlan,
}

/// Builder for [`Scenario`]. Field order never matters: every setter
/// stores its value and [`ScenarioBuilder::build`] assembles the scenario,
/// so e.g. `.profile(..)` may precede `.workload(..)`.
pub struct ScenarioBuilder {
    workers: usize,
    servers: Option<usize>,
    network: NetworkKind,
    workload: Option<WorkloadSpec>,
    profile: Option<netmax_ml::profile::ModelProfile>,
    partition: PartitionKind,
    cfg: TrainConfig,
    slowdown: SlowdownConfig,
    topology: TopologyKind,
    dynamics: Option<LinkDynamics>,
    faults: FaultPlan,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Starts a builder with the paper's defaults (8 workers,
    /// heterogeneous dynamic network, uniform partitioning).
    pub fn new() -> Self {
        Self {
            workers: 8,
            servers: None,
            network: NetworkKind::HeterogeneousDynamic,
            workload: None,
            profile: None,
            partition: PartitionKind::Uniform,
            cfg: TrainConfig::default(),
            slowdown: SlowdownConfig::default(),
            topology: TopologyKind::FullyConnected,
            dynamics: None,
            faults: FaultPlan::none(),
        }
    }

    /// Selects the communication graph shape (default: fully connected).
    pub fn topology(mut self, t: TopologyKind) -> Self {
        self.topology = t;
        self
    }

    /// Overrides the slow-link regime (factor range and change period) of
    /// the heterogeneous network kinds.
    pub fn slowdown(mut self, sd: SlowdownConfig) -> Self {
        self.slowdown = sd;
        self
    }

    /// Overrides the link dynamics (Markov-modulated bandwidth, trace
    /// replay, …). `None`/unset keeps the regime the network kind implies
    /// — the paper's periodic slow-link redraw for the heterogeneous
    /// kinds.
    pub fn dynamics(mut self, d: LinkDynamics) -> Self {
        self.dynamics = Some(d);
        self
    }

    /// Attaches a declarative fault schedule (link degradation/outage
    /// windows, node crash/rejoin times, straggler compute multipliers).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the number of worker nodes.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two workers");
        self.workers = n;
        self
    }

    /// Overrides the number of physical servers (defaults to the paper's
    /// mapping: 4 workers → 2 servers, 8 → 3, 16 → 4).
    pub fn servers(mut self, s: usize) -> Self {
        assert!(s >= 1);
        self.servers = Some(s);
        self
    }

    /// Selects the network regime.
    pub fn network(mut self, kind: NetworkKind) -> Self {
        self.network = kind;
        self
    }

    /// Sets the workload reference.
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = Some(w);
        self
    }

    /// Overrides the timing profile of the workload. May be called before
    /// or after [`ScenarioBuilder::workload`]; the override is applied at
    /// [`ScenarioBuilder::build`] time.
    pub fn profile(mut self, p: netmax_ml::profile::ModelProfile) -> Self {
        self.profile = Some(p);
        self
    }

    /// Selects the data partitioning scheme.
    pub fn partition(mut self, p: PartitionKind) -> Self {
        self.partition = p;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Overrides the stop/recording configuration.
    pub fn train_config(mut self, cfg: TrainConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Caps the run at `epochs` mean epochs.
    pub fn max_epochs(mut self, epochs: f64) -> Self {
        self.cfg.max_epochs = epochs;
        self
    }

    /// Finalises the scenario.
    ///
    /// # Panics
    /// Panics if no workload was provided.
    pub fn build(self) -> Scenario {
        let mut workload = self.workload.expect("scenario needs a workload");
        if let Some(p) = self.profile {
            workload.profile = Some(p);
        }
        let servers = self.servers.unwrap_or(match self.workers {
            0..=4 => 2,
            5..=8 => 3,
            _ => 4,
        });
        Scenario {
            workers: self.workers,
            servers,
            network: self.network,
            workload,
            partition: self.partition,
            cfg: self.cfg,
            slowdown: self.slowdown,
            topology: self.topology,
            dynamics: self.dynamics,
            faults: self.faults,
        }
    }
}

impl Scenario {
    /// Starts a builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The training config.
    pub fn cfg(&self) -> &TrainConfig {
        &self.cfg
    }

    /// The training config (mutable for harness tweaks).
    pub fn cfg_mut(&mut self) -> &mut TrainConfig {
        &mut self.cfg
    }

    /// The workload reference.
    pub fn workload_spec(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// The network regime.
    pub fn network_kind(&self) -> NetworkKind {
        self.network
    }

    /// The declarative fault schedule (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Instantiates the workload (datasets included). Pure: repeated calls
    /// return identical workloads. Prefer [`Scenario::build_env_with`] when
    /// running many cells of the same scenario to share the datasets.
    pub fn workload(&self) -> Workload {
        self.workload.instantiate()
    }

    /// Builds a fresh environment for one run. Identical scenarios build
    /// byte-identical environments.
    pub fn build_env(&self) -> Environment {
        self.build_env_with(self.workload())
    }

    /// Builds a fresh environment around an already-instantiated workload.
    ///
    /// The caller is responsible for passing a workload equal to
    /// `self.workload()`; the executor uses this to instantiate the
    /// datasets once per experiment and share them (via their internal
    /// `Arc`s) across `(arm, seed)` cells.
    ///
    /// # Panics
    /// Panics if the fleet cannot be built: too few workers or servers,
    /// link dynamics or a fault plan that fail validation, or a topology
    /// or partition of another shape. A parsed scenario never does.
    pub fn build_env_with(&self, workload: Workload) -> Environment {
        let valid = self.validate();
        assert!(valid.is_ok(), "invalid scenario: {}", valid.err().unwrap_or_default());
        let n = self.workers;
        let topology = match &self.topology {
            TopologyKind::FullyConnected => Topology::fully_connected(n),
            TopologyKind::Ring => Topology::ring(n),
            TopologyKind::Torus { rows, cols } => Topology::torus(*rows, *cols),
            TopologyKind::Random { p } => Topology::random_connected(n, *p, self.cfg.seed),
        };
        // One network type for every regime: a base fabric, the link
        // dynamics in force, and the (possibly empty) fault plan.
        let cluster = || ClusterSpec::paper_default(per_server_counts(n, self.servers));
        let base = match self.network {
            NetworkKind::Homogeneous => ElasticNetwork::uniform(n, LinkQuality::virtual_switch_10g()),
            NetworkKind::HeterogeneousDynamic | NetworkKind::HeterogeneousStatic => {
                ElasticNetwork::cluster(cluster(), LinkDynamics::Static, 0)
            }
            NetworkKind::Wan => ElasticNetwork::wan((0..n).map(|i| i % 6).collect()),
        };
        let network = base
            .with_seed(self.cfg.seed)
            .with_dynamics(self.link_dynamics())
            .with_faults(self.faults.clone());
        let partition = match &self.partition {
            PartitionKind::Uniform => {
                Partition::uniform(&workload.train, n, self.cfg.seed)
            }
            PartitionKind::Segments(segs) => {
                Partition::segmented(&workload.train, segs, self.cfg.seed)
            }
            PartitionKind::Paper8Segments => {
                Partition::paper_8node_segments(&workload.train, self.cfg.seed)
            }
            PartitionKind::Paper16Segments => {
                Partition::paper_16node_segments(&workload.train, self.cfg.seed)
            }
            PartitionKind::LabelSkew(lost) => Partition::label_skew(&workload.train, lost),
            PartitionKind::PaperTable4 => Partition::paper_table4(&workload.train),
            PartitionKind::PaperTable7 => Partition::paper_table7(&workload.train),
        };
        let mut env =
            Environment::new(topology, network, workload, partition, self.cfg.clone());
        env.set_fault_plan(self.faults.clone());
        env
    }

    /// The link dynamics in force: the scenario's override, or else the
    /// regime its network kind implies (the paper's periodic slow-link
    /// redraw for the heterogeneous kinds, static links otherwise).
    fn link_dynamics(&self) -> LinkDynamics {
        self.dynamics.clone().unwrap_or(match self.network {
            NetworkKind::Homogeneous | NetworkKind::Wan => LinkDynamics::Static,
            NetworkKind::HeterogeneousDynamic => LinkDynamics::PeriodicRedraw(self.slowdown),
            NetworkKind::HeterogeneousStatic => {
                LinkDynamics::PeriodicRedraw(SlowdownConfig { dynamic: false, ..self.slowdown })
            }
        })
    }

    /// Checks that the fleet can be built: at least two workers and a
    /// server, link dynamics in force and a fault plan valid for the
    /// worker count, and a topology and partition of the fleet's shape.
    /// [`Scenario::build_env_with`] asserts it, and a document that fails
    /// it does not parse.
    fn validate(&self) -> Result<(), String> {
        let (n, servers) = (self.workers, self.servers);
        if n < 2 || servers < 1 {
            return Err(format!("a scenario needs two workers and a server, got {n} and {servers}"));
        }
        self.link_dynamics().validate(n)?;
        self.faults.validate(n)?;
        match self.topology {
            TopologyKind::Torus { rows, cols } if rows < 2 || cols < 2 || rows * cols != n => {
                return Err(format!("a {rows}×{cols} torus does not cover {n} workers"));
            }
            TopologyKind::Random { p } if !(0.0..=1.0).contains(&p) => {
                return Err(format!("random topology edge probability {p} is outside [0, 1]"));
            }
            _ => {}
        }
        let entries = |what: &str, len: usize| match len {
            len if len == n => Ok(()),
            len => Err(format!("{what} has {len} entries for {n} workers")),
        };
        let fixed = |what: &str, len: usize| match len {
            len if len == n => Ok(()),
            len => Err(format!("{what} requires {len} workers, got {n}")),
        };
        match &self.partition {
            PartitionKind::Uniform => Ok(()),
            PartitionKind::Segments(segs) if segs.contains(&0) => {
                Err("every worker needs at least one segment".into())
            }
            PartitionKind::Segments(segs) => entries("segment list", segs.len()),
            PartitionKind::LabelSkew(lost) => entries("lost-label list", lost.len()),
            PartitionKind::Paper8Segments => fixed("Paper8Segments", 8),
            PartitionKind::Paper16Segments => fixed("Paper16Segments", 16),
            PartitionKind::PaperTable4 => fixed("Table IV", 8),
            PartitionKind::PaperTable7 => fixed("Table VII", 6),
        }
    }

    /// Builds an environment and runs `algorithm` on it.
    pub fn run_with(&self, algorithm: &mut dyn Algorithm) -> RunReport {
        let mut env = self.build_env();
        algorithm.run(&mut env)
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workers", self.workers.to_json()),
            ("servers", self.servers.to_json()),
            ("network", self.network.to_json()),
            ("workload", self.workload.to_json()),
            ("partition", self.partition.to_json()),
            ("train", self.cfg.to_json()),
            ("slowdown", self.slowdown.to_json()),
            ("topology", self.topology.to_json()),
        ];
        // Elastic extensions are emitted only when used, so pre-fault
        // scenario documents stay byte-identical.
        if let Some(d) = &self.dynamics {
            fields.push(("dynamics", d.to_json()));
        }
        if !self.faults.is_empty() {
            fields.push(("faults", self.faults.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for Scenario {
    /// Parses a scenario document. One whose fleet cannot be built is a
    /// typed error here, not a panic later in
    /// [`Scenario::build_env_with`].
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let scenario = Self {
            workers: usize::from_json(v.field("workers")?)?,
            servers: usize::from_json(v.field("servers")?)?,
            network: NetworkKind::from_json(v.field("network")?)?,
            workload: WorkloadSpec::from_json(v.field("workload")?)?,
            partition: PartitionKind::from_json(v.field("partition")?)?,
            cfg: TrainConfig::from_json(v.field("train")?)?,
            slowdown: SlowdownConfig::from_json(v.field("slowdown")?)?,
            topology: TopologyKind::from_json(v.field("topology")?)?,
            // Absent in pre-elastic documents; tolerate for compatibility.
            dynamics: match v.get("dynamics") {
                None | Some(Json::Null) => None,
                Some(d) => Some(LinkDynamics::from_json(d)?),
            },
            faults: match v.get("faults") {
                None | Some(Json::Null) => FaultPlan::none(),
                Some(f) => FaultPlan::from_json(f)?,
            },
        };
        scenario.validate().map_err(JsonError::schema)?;
        Ok(scenario)
    }
}

/// The paper's worker→server placement: `n` workers spread as evenly as
/// possible over `servers` machines, larger groups last, empty servers
/// dropped. Exposed so harnesses can assert placement invariants for the
/// worker counts they register.
pub fn per_server_counts(n: usize, servers: usize) -> Vec<usize> {
    let per = n.div_ceil(servers);
    let mut counts = vec![per; servers];
    let excess = per * servers - n;
    for c in counts.iter_mut().take(excess) {
        *c -= 1;
    }
    counts.retain(|&c| c > 0);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_env() {
        let sc = Scenario::builder()
            .workers(4)
            .workload(WorkloadSpec::convex_ridge(1))
            .max_epochs(1.0)
            .seed(9)
            .build();
        let env = sc.build_env();
        assert_eq!(env.num_nodes(), 4);
        assert!(env.topology.is_connected());
    }

    #[test]
    fn identical_scenarios_build_identical_envs() {
        let mk = || {
            Scenario::builder()
                .workers(4)
                .workload(WorkloadSpec::convex_ridge(2))
                .seed(5)
                .build()
                .build_env()
        };
        let a = mk();
        let b = mk();
        for i in 0..4 {
            assert_eq!(a.nodes[i].model.params(), b.nodes[i].model.params());
            assert_eq!(a.nodes[i].sampler.indices(), b.nodes[i].sampler.indices());
        }
    }

    #[test]
    fn profile_override_is_order_independent() {
        use netmax_ml::profile::ModelProfile;
        let before = Scenario::builder()
            .profile(ModelProfile::vgg19())
            .workload(WorkloadSpec::convex_ridge(1))
            .build();
        let after = Scenario::builder()
            .workload(WorkloadSpec::convex_ridge(1))
            .profile(ModelProfile::vgg19())
            .build();
        assert_eq!(before, after);
        assert_eq!(before.workload().profile, ModelProfile::vgg19());
    }

    #[test]
    fn network_kinds_build() {
        for kind in [
            NetworkKind::Homogeneous,
            NetworkKind::HeterogeneousDynamic,
            NetworkKind::HeterogeneousStatic,
            NetworkKind::Wan,
        ] {
            let sc = Scenario::builder()
                .workers(6)
                .network(kind)
                .workload(WorkloadSpec::convex_ridge(1))
                .build();
            let env = sc.build_env();
            assert!(env.comm_time(0, 1, 0.0) > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn paper_partitions_validate_worker_counts() {
        let sc = Scenario::builder()
            .workers(8)
            .workload(WorkloadSpec::mobilenet_mnist(1))
            .partition(PartitionKind::PaperTable4)
            .build();
        let env = sc.build_env();
        assert_eq!(env.num_nodes(), 8);
    }

    #[test]
    #[should_panic(expected = "Table IV requires 8 workers")]
    fn table4_wrong_worker_count_panics() {
        let sc = Scenario::builder()
            .workers(4)
            .workload(WorkloadSpec::mobilenet_mnist(1))
            .partition(PartitionKind::PaperTable4)
            .build();
        let _ = sc.build_env();
    }

    #[test]
    fn sparse_topologies_build_and_train() {
        for kind in [
            TopologyKind::Ring,
            TopologyKind::Torus { rows: 2, cols: 3 },
            TopologyKind::Random { p: 0.3 },
        ] {
            let sc = Scenario::builder()
                .workers(6)
                .topology(kind.clone())
                .workload(WorkloadSpec::convex_ridge(1))
                .max_epochs(1.0)
                .seed(4)
                .build();
            let env = sc.build_env();
            assert!(env.topology.is_connected(), "{kind:?}");
            assert!(env.topology.num_edges() <= 15, "{kind:?} should be sparser than K6");
        }
    }

    #[test]
    fn per_server_counts_cover_all_workers() {
        assert_eq!(per_server_counts(8, 3), vec![2, 3, 3]);
        assert_eq!(per_server_counts(4, 2), vec![2, 2]);
        assert_eq!(per_server_counts(16, 4), vec![4, 4, 4, 4]);
        assert_eq!(per_server_counts(8, 3).iter().sum::<usize>(), 8);
    }

    #[test]
    fn scenario_json_round_trip_builds_identical_env() {
        let sc = Scenario::builder()
            .workers(6)
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(WorkloadSpec::convex_ridge(2).time_scaled(0.5))
            .partition(PartitionKind::Segments(vec![1, 2, 1, 1, 2, 1]))
            .topology(TopologyKind::Random { p: 0.4 })
            .max_epochs(1.0)
            .seed(11)
            .build();
        let text = sc.to_json().pretty();
        let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, sc);
        let (a, b) = (sc.build_env(), back.build_env());
        assert_eq!(a.num_nodes(), b.num_nodes());
        for i in 0..a.num_nodes() {
            assert_eq!(a.nodes[i].model.params(), b.nodes[i].model.params());
            assert_eq!(a.nodes[i].sampler.indices(), b.nodes[i].sampler.indices());
        }
    }

    #[test]
    fn a_scenario_document_the_fleet_cannot_build_is_a_parse_error() {
        // A 4-worker scenario whose fault plan crashes `node`, or whose
        // trace slows the link {0, `node`}.
        let docs = |node| {
            let plan = FaultPlan {
                node_faults: vec![netmax_net::NodeFault { node, crash_s: 1.0, rejoin_s: None }],
                ..FaultPlan::none()
            };
            let w = netmax_net::TraceWindow { a: 0, b: node, start_s: 0.0, end_s: 1.0, factor: 2.0 };
            let sc = || Scenario::builder().workers(4).workload(WorkloadSpec::convex_ridge(1));
            [sc().faults(plan).build(), sc().dynamics(LinkDynamics::Trace(vec![w])).build()]
                .map(|sc| sc.to_json())
        };
        assert!(docs(3).iter().all(|doc| Scenario::from_json(doc).is_ok()));
        let Json::Obj(mut one_worker) = docs(3)[0].clone() else { panic!("not an object") };
        one_worker[0].1 = 1usize.to_json();
        let [faults, trace] = docs(9);
        for (doc, needle) in [
            (Json::Obj(one_worker), "needs two workers and a server, got 1 and"),
            (faults, "node fault names node 9 of 4"),
            (trace, "trace window names link {0, 9} of a 4-node fabric"),
        ] {
            let err = Scenario::from_json(&doc).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn a_scenario_document_of_the_wrong_shape_is_a_parse_error() {
        // Each document is the heterogeneous 4-worker cell with one field
        // its fleet cannot be built from: the redraw period of the slow
        // links the network kind implies, the torus, or the partition.
        let sc = || {
            Scenario::builder()
                .workers(4)
                .network(NetworkKind::HeterogeneousDynamic)
                .workload(WorkloadSpec::convex_ridge(1))
        };
        let no_period = SlowdownConfig { change_period_s: 0.0, ..SlowdownConfig::default() };
        assert!(Scenario::from_json(&sc().build().to_json()).is_ok());
        for (bad, needle) in [
            (sc().slowdown(no_period).build(), "redraw period must be finite and positive, got 0"),
            (
                sc().network(NetworkKind::HeterogeneousStatic).slowdown(no_period).build(),
                "redraw period must be finite and positive, got 0",
            ),
            (sc().topology(TopologyKind::Torus { rows: 2, cols: 3 }).build(), "2×3 torus does not cover 4"),
            (sc().topology(TopologyKind::Random { p: 1.5 }).build(), "probability 1.5 is outside"),
            (sc().partition(PartitionKind::Segments(vec![1, 2])).build(), "segment list has 2 entries for 4"),
            (sc().partition(PartitionKind::Segments(vec![1, 0, 1, 1])).build(), "at least one segment"),
            (sc().partition(PartitionKind::LabelSkew(vec![vec![1]; 5])).build(), "lost-label list has 5 entries"),
            (sc().partition(PartitionKind::Paper8Segments).build(), "Paper8Segments requires 8 workers, got 4"),
            (sc().partition(PartitionKind::PaperTable7).build(), "Table VII requires 6 workers, got 4"),
        ] {
            let err = Scenario::from_json(&bad.to_json()).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn enum_kind_json_round_trips() {
        for t in [
            TopologyKind::FullyConnected,
            TopologyKind::Ring,
            TopologyKind::Torus { rows: 2, cols: 4 },
            TopologyKind::Random { p: 0.25 },
        ] {
            let back =
                TopologyKind::from_json(&Json::parse(&t.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back, t);
        }
        for p in [
            PartitionKind::Uniform,
            PartitionKind::Segments(vec![1, 2]),
            PartitionKind::Paper8Segments,
            PartitionKind::Paper16Segments,
            PartitionKind::LabelSkew(vec![vec![0, 1], vec![2]]),
            PartitionKind::PaperTable4,
            PartitionKind::PaperTable7,
        ] {
            let back =
                PartitionKind::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(back, p);
        }
    }
}
