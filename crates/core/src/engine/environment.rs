//! Shared simulation state: node replicas, data shards, network, clocks.

use super::config::TrainConfig;
use super::session::{rng_from_json, rng_to_json, SessionError};
use netmax_json::{codec, FromJson, Json, JsonError, ToJson};
use netmax_ml::batch::BatchSampler;
use netmax_ml::model::{Model, Scratch};
use netmax_ml::optim::SgdState;
use netmax_ml::partition::Partition;
use netmax_ml::workload::Workload;
use netmax_net::{ElasticNetwork, FaultPlan, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-worker simulation state: one model replica plus its optimiser,
/// shard sampler, and virtual clock.
pub struct NodeState {
    /// The node's model replica (`x_i` in the paper).
    pub model: Box<dyn Model>,
    /// Momentum state.
    pub opt: SgdState,
    /// Mini-batch sampler over this node's shard.
    pub sampler: BatchSampler,
    /// The node's virtual clock (seconds).
    pub clock: f64,
    /// Accumulated gradient-computation time (`Σ C_i`).
    pub comp_time_total: f64,
    /// Accumulated *exposed* communication time: iteration time minus
    /// compute. Under parallel execution this is the non-overlapped part.
    pub comm_exposed_total: f64,
    /// Local iteration counter (`n` of Algorithm 2).
    pub local_steps: u64,
    /// The node's last gradient from the split compute/apply path
    /// ([`Environment::compute_gradient`]) — per-node because the
    /// synchronous baselines hold every node's gradient at once before
    /// aggregating. Empty until that path is first used; the fused
    /// [`Environment::gradient_step`] never touches it.
    grad: Vec<f32>,
    /// Learning rate captured by [`Environment::compute_gradient`] *before*
    /// its batch draw, consumed by [`Environment::apply_gradient`] — the
    /// split compute/apply path of the synchronous baselines charges the
    /// same lr as the fused [`Environment::gradient_step`]. Transient
    /// within one driver advance, so it is not checkpointed.
    pending_lr: f64,
}

impl NodeState {
    /// Fractional epochs this node has completed over its own shard.
    pub fn epochs(&self) -> f64 {
        self.sampler.epochs_elapsed()
    }
}

/// Everything an algorithm needs to run one simulated training job.
pub struct Environment {
    /// Communication graph `G` (who may gossip with whom).
    pub topology: Topology,
    /// Ground-truth link timing.
    pub network: ElasticNetwork,
    /// Dataset + model + hyper-parameters.
    pub workload: Workload,
    /// Per-node state. Node `i`'s sampler owns its shard of the
    /// partition and its batch size.
    pub nodes: Vec<NodeState>,
    /// Engine configuration.
    pub cfg: TrainConfig,
    /// Seeded RNG for *global* algorithmic randomness (e.g. Prague's
    /// group matching). Per-node decisions must use [`Environment::node_rng`]
    /// instead so random streams stay aligned across runs that differ only
    /// in event interleaving (common random numbers).
    pub rng: StdRng,
    /// Per-node RNG streams for peer selection and other per-node
    /// decisions. Keyed by node, not by dispatch order: node `i`'s `k`-th
    /// draw is identical across execution modes, which is what makes e.g.
    /// the Fig. 7 serial-vs-parallel comparison a paired experiment rather
    /// than two independent samples.
    node_rngs: Vec<StdRng>,
    /// Global step counter `k` (advanced by drivers).
    pub global_step: u64,
    /// Pool of parameter-sized buffers for transient pulls/aggregations
    /// ([`Environment::take_param_buf`]); transient, never checkpointed.
    param_pool: Vec<Vec<f32>>,
    /// The scenario's declarative fault schedule (empty by default). Link
    /// faults are interpreted by the network; node faults and stragglers
    /// by this environment and the [`Session`](super::session::Session)
    /// walking its membership schedule.
    fault_plan: FaultPlan,
    /// Active-membership flags: `active[i]` is `false` while node `i` is
    /// crashed. Driven by the session on the virtual clock.
    active: Vec<bool>,
    /// Count of `false` entries in `active`, kept in sync by
    /// [`Environment::set_active`] — the zero check is the fast path that
    /// keeps fault-free peer draws at the old one-index cost.
    num_inactive: usize,
    /// Per-node compute-time multipliers from the fault plan's straggler
    /// entries (1.0 everywhere by default).
    compute_factors: Vec<f64>,
    /// Shared gradient workspace (forward/backward buffers plus the
    /// batch-mean gradient). The engine dispatches exactly one node at a
    /// time, every kernel fully overwrites what it reads, and all
    /// replicas share one model shape — so a single pooled workspace is
    /// bit-identical to the former per-node copies while shrinking an
    /// n = 4096 fleet's transient memory from O(n · workspace) to O(1).
    scratch: Scratch,
}

impl Environment {
    /// Builds an environment: one replica per partition shard.
    ///
    /// # Panics
    /// Panics if the partition, topology, and network disagree on the
    /// number of nodes, or if any shard is empty.
    pub fn new(
        topology: Topology,
        network: ElasticNetwork,
        workload: Workload,
        partition: Partition,
        cfg: TrainConfig,
    ) -> Self {
        let n = topology.len();
        assert_eq!(partition.num_nodes(), n, "partition/topology node count mismatch");
        assert_eq!(network.num_nodes(), n, "network/topology node count mismatch");

        let batches: Vec<usize> =
            (0..n).map(|i| partition.batch_size(i, workload.batch_size)).collect();
        let nodes = partition
            .into_shards()
            .into_iter()
            .zip(batches)
            .enumerate()
            .map(|(i, (shard, batch))| {
                assert!(!shard.is_empty(), "node {i} received an empty shard");
                let model = workload.build_model(cfg.seed.wrapping_add(i as u64));
                let num_params = model.num_params();
                NodeState {
                    model,
                    opt: SgdState::new(num_params),
                    sampler: BatchSampler::new(
                        shard,
                        batch,
                        cfg.seed.wrapping_add(1000 + i as u64),
                    ),
                    clock: 0.0,
                    comp_time_total: 0.0,
                    comm_exposed_total: 0.0,
                    local_steps: 0,
                    grad: Vec::new(),
                    pending_lr: workload.optim.lr_at(0.0),
                }
            })
            .collect();

        let cfg_tier = cfg.tier;
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let node_rngs = (0..n)
            .map(|i| {
                StdRng::seed_from_u64(
                    cfg.seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(0xD1B5_4A32_D192_ED03_u64.wrapping_mul(1 + i as u64)),
                )
            })
            .collect();
        Self {
            topology,
            network,
            workload,
            nodes,
            cfg,
            rng,
            node_rngs,
            global_step: 0,
            param_pool: Vec::new(),
            fault_plan: FaultPlan::none(),
            active: vec![true; n],
            num_inactive: 0,
            compute_factors: vec![1.0; n],
            scratch: Scratch::for_tier(cfg_tier),
        }
    }

    /// Installs the scenario's fault plan: straggler compute multipliers
    /// take effect immediately; crash/rejoin transitions are walked by
    /// the session on the virtual clock.
    ///
    /// # Panics
    /// Panics if the plan fails validation against this fleet size (same
    /// convention as the other construction-time shape checks).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        plan.validate(self.num_nodes())
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        for (i, f) in self.compute_factors.iter_mut().enumerate() {
            *f = plan.compute_factor(i);
        }
        self.fault_plan = plan;
    }

    /// The installed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether node `i` is currently alive (crashed nodes are excluded
    /// from scheduling, peer selection, and fleet metrics).
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// The active-membership flags, indexed by node.
    pub fn active_flags(&self) -> &[bool] {
        &self.active
    }

    /// Number of currently active nodes.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.active.len() - self.num_inactive
    }

    /// Flips node `i`'s membership flag (driven by the session walking
    /// the fault plan's schedule).
    pub fn set_active(&mut self, i: usize, active: bool) {
        if self.active[i] != active {
            if active {
                self.num_inactive -= 1;
            } else {
                self.num_inactive += 1;
            }
            self.active[i] = active;
        }
    }

    /// Number of *active* neighbours of `i` in the communication graph.
    pub fn active_degree(&self, i: usize) -> usize {
        let nbrs = self.topology.neighbors(i);
        if self.num_inactive == 0 {
            return nbrs.len();
        }
        nbrs.iter().filter(|&&m| self.active[m]).count()
    }

    /// The `k`-th active neighbour of `i` (in neighbour-list order).
    ///
    /// # Panics
    /// Panics if fewer than `k + 1` active neighbours exist.
    pub fn nth_active_neighbor(&self, i: usize, k: usize) -> usize {
        self.topology
            .neighbors(i)
            .iter()
            .copied()
            .filter(|&m| self.active[m])
            .nth(k)
            .expect("active neighbour index out of range")
    }

    /// Draws a uniformly random *active* neighbour of `i` from the node's
    /// private RNG stream, or `None` when every neighbour is down. With
    /// all nodes active this consumes exactly the same draw as the
    /// classic `gen_range(0..degree)` over the full neighbour list at the
    /// same one-index cost, and it allocates nothing.
    pub fn sample_active_neighbor(&mut self, i: usize) -> Option<usize> {
        draw_active(
            self.topology.neighbors(i),
            &self.active,
            self.num_inactive == 0,
            &mut self.node_rngs[i],
        )
    }

    /// [`Environment::sample_active_neighbor`] over an arbitrary
    /// neighbour list (e.g. SAPS-PSGD's frozen fast subgraph) instead of
    /// the environment's own topology. Same guarantees: the all-active
    /// draw is the classic full-list `gen_range` on the same RNG stream,
    /// allocation-free.
    pub fn sample_active_from(&mut self, i: usize, nbrs: &[usize]) -> Option<usize> {
        draw_active(nbrs, &self.active, self.num_inactive == 0, &mut self.node_rngs[i])
    }

    /// Warm-starts a rejoining node from a live peer's replica: copies
    /// the parameters *and* momentum buffer of the lowest-indexed active
    /// donor (a full optimiser-state clone — the lockstep drivers rely
    /// on identical velocity to keep replicas bit-identical after a
    /// rejoin), and advances the node's clock to the rejoin time.
    /// Returns the donor, or `None` (cold restart from its own stale
    /// replica) when no other node is alive.
    pub fn warm_start(&mut self, i: usize, now: f64) -> Option<usize> {
        let donor = (0..self.num_nodes()).find(|&j| j != i && self.active[j]);
        if let Some(d) = donor {
            let (src, dst) = if d < i {
                let (a, b) = self.nodes.split_at_mut(i);
                (&a[d], &mut b[0])
            } else {
                let (a, b) = self.nodes.split_at_mut(d);
                (&b[0], &mut a[i])
            };
            dst.model.params_mut().copy_from_slice(src.model.params());
            dst.opt.velocity_mut().copy_from_slice(src.opt.velocity());
        }
        let node = &mut self.nodes[i];
        node.clock = node.clock.max(now);
        donor
    }

    /// Nominal per-node gradient-compute times (fixed batch size ⇒ fixed
    /// `C_i`, scaled by the fault plan's straggler multipliers) — the
    /// schedule basis every event-driven session driver derives at
    /// start/restore.
    pub fn nominal_compute_times(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .zip(&self.compute_factors)
            .map(|(node, factor)| {
                factor * self.workload.profile.compute_time(node.sampler.batch_size())
            })
            .collect()
    }

    /// Node `i`'s private RNG stream. All randomness attributable to a
    /// single node (peer selection above all) must come from here, so that
    /// the node's decision sequence is independent of the global event
    /// interleaving — see the `node_rngs` field docs.
    pub fn node_rng(&mut self, i: usize) -> &mut StdRng {
        &mut self.node_rngs[i]
    }

    /// Performs one local SGD step on node `i` (Algorithm 2 line 11):
    /// draws a mini-batch, computes the gradient, applies the momentum SGD
    /// update at the scheduled learning rate. Returns the simulated
    /// compute time `C_i`.
    ///
    /// The learning rate is read **before** the batch draw advances the
    /// epoch counter, so a milestone at epoch `E` first applies to the
    /// first step *of* epoch `E` — not to the step that completes epoch
    /// `E − 1`. [`Environment::compute_gradient`] captures the lr at the
    /// same point, so the fused and the split compute/apply paths cross
    /// milestones on exactly the same step.
    pub fn gradient_step(&mut self, i: usize) -> f64 {
        let lr = self.workload.optim.lr_at(self.nodes[i].epochs());
        let node = &mut self.nodes[i];
        let batch = node.sampler.next_batch();
        let _loss = node
            .model
            .loss_grad_scratch(&self.workload.train, batch, &mut self.scratch);
        node.opt
            .step(&self.workload.optim, lr, node.model.params_mut(), &self.scratch.grad);
        node.local_steps += 1;
        self.compute_factors[i] * self.workload.profile.compute_time(batch.len())
    }

    /// Computes a mini-batch gradient on node `i` **without** applying it
    /// — the primitive the synchronous baselines (Allreduce-SGD, PS-sync)
    /// need to average gradients before updating. The gradient lands in
    /// the node's reusable buffer ([`Environment::grad`]); no allocation.
    /// Also captures the pre-draw learning rate for
    /// [`Environment::apply_gradient`]. Returns the simulated compute
    /// time `C_i`.
    pub fn compute_gradient(&mut self, i: usize) -> f64 {
        let lr = self.workload.optim.lr_at(self.nodes[i].epochs());
        let node = &mut self.nodes[i];
        node.pending_lr = lr;
        let batch = node.sampler.next_batch();
        let _loss = node
            .model
            .loss_grad_scratch(&self.workload.train, batch, &mut self.scratch);
        // Park the result in the node's own buffer: the synchronous
        // drivers compute every node's gradient before reading any of
        // them, so the shared workspace cannot hold it. Steady-state
        // cost is a copy into retained capacity, not an allocation.
        node.grad.clear();
        node.grad.extend_from_slice(&self.scratch.grad);
        node.local_steps += 1;
        self.compute_factors[i] * self.workload.profile.compute_time(batch.len())
    }

    /// The gradient computed by the last [`Environment::compute_gradient`]
    /// on node `i`.
    pub fn grad(&self, i: usize) -> &[f32] {
        &self.nodes[i].grad
    }

    /// Applies a (possibly aggregated) gradient to node `i` through its
    /// momentum optimiser, at the learning rate captured when the node's
    /// gradient was computed (see [`Environment::gradient_step`] for the
    /// milestone semantics).
    pub fn apply_gradient(&mut self, i: usize, grad: &[f32]) {
        let node = &mut self.nodes[i];
        node.opt
            .step(&self.workload.optim, node.pending_lr, node.model.params_mut(), grad);
    }

    /// Learning rate currently in effect for node `i`.
    pub fn lr(&self, i: usize) -> f64 {
        self.workload.optim.lr_at(self.nodes[i].epochs())
    }

    /// The learning rate captured by node `i`'s last
    /// [`Environment::compute_gradient`] (the rate its pending gradient
    /// must be applied at).
    pub fn pending_lr(&self, i: usize) -> f64 {
        self.nodes[i].pending_lr
    }

    /// Communication time to pull one full model from `m` to `i` starting
    /// at `now` (`N_{i,m}` of §II-B).
    pub fn comm_time(&self, i: usize, m: usize, now: f64) -> f64 {
        self.network
            .comm_time(m, i, self.workload.profile.param_bytes(), now)
    }

    /// Checks that node `m` exists and is alive — the gate on every pull
    /// path, so an out-of-range index or a peer that crashed mid-transfer
    /// surfaces as a typed [`SessionError`] instead of a panic.
    fn check_peer(&self, m: usize) -> Result<(), SessionError> {
        if m >= self.nodes.len() {
            return Err(SessionError::NodeUnavailable {
                node: m,
                fleet: Some(self.nodes.len()),
            });
        }
        if !self.active[m] {
            return Err(SessionError::NodeUnavailable { node: m, fleet: None });
        }
        Ok(())
    }

    /// Snapshot of node `m`'s parameters (the pulled `x_m`). Fails with a
    /// typed error when `m` is out of range or currently down.
    pub fn pull_params(&self, m: usize) -> Result<Vec<f32>, SessionError> {
        self.check_peer(m)?;
        Ok(self.nodes[m].model.params().to_vec())
    }

    /// Copies node `m`'s parameters into `out` (cleared first) — the
    /// allocation-free pull used with the
    /// [`Environment::take_param_buf`] pool. Fails with a typed error
    /// when `m` is out of range or currently down (the caller decides
    /// whether a failed pull skips the merge or aborts).
    pub fn pull_params_into(&self, m: usize, out: &mut Vec<f32>) -> Result<(), SessionError> {
        self.check_peer(m)?;
        out.clear();
        out.extend_from_slice(self.nodes[m].model.params());
        Ok(())
    }

    /// Checks a parameter-sized buffer out of the pool (empty on first
    /// use; warm afterwards). Return it with
    /// [`Environment::recycle_param_buf`] so steady-state gossip steps
    /// allocate nothing.
    pub fn take_param_buf(&mut self) -> Vec<f32> {
        self.param_pool.pop().unwrap_or_default()
    }

    /// Returns a buffer obtained from [`Environment::take_param_buf`] to
    /// the pool, retaining its capacity.
    pub fn recycle_param_buf(&mut self, buf: Vec<f32>) {
        self.param_pool.push(buf);
    }

    /// Mean fractional epoch across *active* nodes (the paper's per-epoch
    /// x-axes average over workers with unequal shard sizes; crashed
    /// nodes' frozen counters would otherwise stall every epoch-driven
    /// stop condition). With everyone active this is exactly the historic
    /// all-nodes mean.
    pub fn mean_epoch(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (node, &alive) in self.nodes.iter().zip(&self.active) {
            if alive {
                sum += node.epochs();
                n += 1;
            }
        }
        if n == 0 {
            // Whole fleet down: report the frozen all-nodes mean rather
            // than pretending no training ever happened.
            return self.nodes.iter().map(NodeState::epochs).sum::<f64>()
                / self.nodes.len() as f64;
        }
        sum / n as f64
    }

    /// Largest node clock = simulated wall-clock so far.
    pub fn wall_clock(&self) -> f64 {
        self.nodes.iter().map(|n| n.clock).fold(0.0, f64::max)
    }

    /// Books the timing of one completed iteration on node `i`:
    /// advances its clock and cost accumulators.
    pub fn book_iteration(&mut self, i: usize, compute_s: f64, iteration_s: f64) {
        debug_assert!(iteration_s >= compute_s - 1e-12 || iteration_s >= 0.0);
        let node = &mut self.nodes[i];
        node.clock += iteration_s;
        node.comp_time_total += compute_s;
        node.comm_exposed_total += (iteration_s - compute_s).max(0.0);
    }

    /// The environment's checkpoint *without* the per-node state —
    /// `global_step`, the global RNG stream and one RNG stream per node.
    /// The node state (replicas, optimiser buffers, samplers, clocks,
    /// cost accumulators) is streamed separately into the container's
    /// `nodes` section; the immutable parts (topology, network, datasets,
    /// config) are pure data reconstructed from the scenario at restore
    /// time.
    pub(crate) fn checkpoint_meta(&self) -> Json {
        Json::obj([
            ("global_step", self.global_step.to_json()),
            ("rng", rng_to_json(&self.rng)),
            ("node_rngs", Json::Arr(self.node_rngs.iter().map(rng_to_json).collect())),
        ])
    }

    /// Restores this (freshly built, same-scenario) environment from a
    /// checkpoint's `env` object and its `nodes` section: counts checked
    /// against the fleet first, then every node blob decoded and applied
    /// through [`restore_node`] in fleet order — one node's [`Json`] at a
    /// time, the fleet is never a tree — then the RNG streams and the
    /// step counter.
    pub(crate) fn restore_from(
        &mut self,
        state: &Json,
        blobs: &[&[u8]],
    ) -> Result<(), SessionError> {
        // The container's section is the only node source: a `nodes`
        // array inside `meta` as well would be a second, ignored one.
        if state.get("nodes").is_some() {
            return Err(JsonError::schema(
                "checkpoint carries env.nodes beside its nodes section".into(),
            )
            .into());
        }
        if blobs.len() != self.nodes.len() {
            return Err(JsonError::schema(format!(
                "checkpoint has {} nodes, environment has {}",
                blobs.len(),
                self.nodes.len()
            ))
            .into());
        }
        let node_rngs = state.field("node_rngs")?.as_arr()?;
        if node_rngs.len() != self.node_rngs.len() {
            return Err(JsonError::schema("node rng stream count mismatch".into()).into());
        }
        let examples = self.workload.train.len();
        for (node, blob) in self.nodes.iter_mut().zip(blobs) {
            restore_node(node, &codec::decode_value(blob)?, examples)?;
        }
        self.rng = rng_from_json(state.field("rng")?)?;
        self.node_rngs = node_rngs.iter().map(rng_from_json).collect::<Result<_, _>>()?;
        self.global_step = u64::from_json(state.field("global_step")?)?;
        Ok(())
    }
}

/// Restores one node from its decoded checkpoint object. `examples` is the
/// training set's length, which every sampler index must stay below.
fn restore_node(node: &mut NodeState, saved: &Json, examples: usize) -> Result<(), JsonError> {
    let params: Vec<f32> = Vec::from_json(saved.field("params")?)?;
    if params.len() != node.model.num_params() {
        return Err(JsonError::schema(format!(
            "checkpoint has {} parameters, model has {}",
            params.len(),
            node.model.num_params()
        )));
    }
    node.model.params_mut().copy_from_slice(&params);
    let velocity: Vec<f32> = Vec::from_json(saved.field("velocity")?)?;
    if velocity.len() != node.opt.velocity().len() {
        return Err(JsonError::schema("optimiser state length mismatch".into()));
    }
    node.opt.velocity_mut().copy_from_slice(&velocity);
    let sampler = BatchSampler::restore(saved.field("sampler")?)?;
    // Reject what the gradient step would otherwise panic on — corrupt
    // checkpoints surface as typed errors, not as out-of-bounds panics
    // mid-run (same convention as `check_node_index`).
    if let Some(&bad) = sampler.indices().iter().find(|&&i| i >= examples) {
        return Err(JsonError::schema(format!(
            "sampler references example {bad}, dataset has {examples}"
        )));
    }
    node.sampler = sampler;
    node.clock = f64::from_json(saved.field("clock")?)?;
    node.comp_time_total = f64::from_json(saved.field("comp_time_total")?)?;
    node.comm_exposed_total = f64::from_json(saved.field("comm_exposed_total")?)?;
    node.local_steps = u64::from_json(saved.field("local_steps")?)?;
    Ok(())
}

/// The shared active-neighbour draw: the classic full-list index when
/// everyone is up (`all_active` — the caller's O(1) fleet-level check),
/// a filtered count/draw/walk otherwise. One implementation serves both
/// the topology and external neighbour lists so the "same RNG stream
/// when all nodes are up" invariant has exactly one home.
fn draw_active(
    nbrs: &[usize],
    active: &[bool],
    all_active: bool,
    rng: &mut StdRng,
) -> Option<usize> {
    if all_active {
        if nbrs.is_empty() {
            return None;
        }
        let k = rng.gen_range(0..nbrs.len());
        return Some(nbrs[k]);
    }
    let degree = nbrs.iter().filter(|&&m| active[m]).count();
    if degree == 0 {
        return None;
    }
    let k = rng.gen_range(0..degree);
    nbrs.iter().copied().filter(|&m| active[m]).nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_net::LinkQuality;

    fn tiny_env() -> Environment {
        let workload = Workload::convex_ridge(1);
        let n = 4;
        let topology = Topology::fully_connected(n);
        let network = ElasticNetwork::uniform(n, LinkQuality::virtual_switch_10g());
        let partition = Partition::uniform(&workload.train, n, 7);
        Environment::new(topology, network, workload, partition, TrainConfig::quick_test())
    }

    #[test]
    fn environment_builds_replicas() {
        let env = tiny_env();
        assert_eq!(env.num_nodes(), 4);
        assert_eq!(env.mean_epoch(), 0.0);
        assert_eq!(env.wall_clock(), 0.0);
        // Replicas start from different seeds.
        assert_ne!(env.nodes[0].model.params(), env.nodes[1].model.params());
    }

    #[test]
    fn gradient_step_changes_params_and_returns_compute_time() {
        let mut env = tiny_env();
        let before = env.nodes[0].model.params().to_vec();
        let c = env.gradient_step(0);
        assert!(c > 0.0);
        assert_ne!(env.nodes[0].model.params(), before.as_slice());
        assert_eq!(env.nodes[0].local_steps, 1);
        assert!(env.nodes[0].epochs() > 0.0);
    }

    #[test]
    fn booking_advances_clock_and_costs() {
        let mut env = tiny_env();
        env.book_iteration(0, 0.2, 0.5);
        assert_eq!(env.nodes[0].clock, 0.5);
        assert_eq!(env.nodes[0].comp_time_total, 0.2);
        assert!((env.nodes[0].comm_exposed_total - 0.3).abs() < 1e-12);
        assert_eq!(env.wall_clock(), 0.5);
    }

    #[test]
    fn stop_condition_trips_on_wall_clock() {
        let mut env = tiny_env();
        env.cfg.max_wall_clock_s = 1.0;
        let stop = env.cfg.effective_stop();
        assert!(!stop.satisfied(&env, None));
        env.book_iteration(0, 0.5, 2.0);
        assert!(stop.satisfied(&env, None));
    }

    /// The lr schedule must be read *before* the batch draw, identically
    /// in the fused (`gradient_step`) and split (`compute_gradient` +
    /// `apply_gradient`) paths: a milestone at epoch E first applies to
    /// the first step *of* epoch E. The old code read the lr after the
    /// draw, so the step that completed epoch E−1 already decayed — one
    /// step early — and only on some paths.
    #[test]
    fn lr_milestone_applies_first_step_of_new_epoch_on_both_paths() {
        let mut fused = tiny_env();
        let mut split = tiny_env();
        let mut control = tiny_env(); // no milestone
        let b = fused.nodes[0].sampler.batch_size();
        let l = fused.nodes[0].sampler.shard_len();
        let k = 2u64; // decay milestone falls exactly after k draws
        let milestone = (k * b as u64) as f64 / l as f64;
        for env in [&mut fused, &mut split] {
            env.workload.optim.lr_milestones = vec![milestone];
            env.workload.optim.lr_decay = 0.1;
        }

        for step in 1..=k {
            let _ = fused.gradient_step(0);
            let _ = split.compute_gradient(0);
            let g = split.grad(0).to_vec();
            split.apply_gradient(0, &g);
            let _ = control.gradient_step(0);
            // Step k's draw reaches the milestone exactly; read-before-draw
            // means the decay must NOT be charged to it yet.
            assert_eq!(
                fused.nodes[0].model.params(),
                control.nodes[0].model.params(),
                "decay applied early at step {step}"
            );
            assert_eq!(
                fused.nodes[0].model.params(),
                split.nodes[0].model.params(),
                "fused and split paths disagree at step {step}"
            );
        }
        assert!(fused.nodes[0].epochs() >= milestone, "milestone not reached in test setup");

        // Step k+1 opens the post-milestone epoch: the decayed lr kicks in,
        // on both paths identically.
        let _ = fused.gradient_step(0);
        let _ = split.compute_gradient(0);
        let g = split.grad(0).to_vec();
        split.apply_gradient(0, &g);
        let _ = control.gradient_step(0);
        assert_ne!(
            fused.nodes[0].model.params(),
            control.nodes[0].model.params(),
            "decay never applied"
        );
        assert_eq!(
            fused.nodes[0].model.params(),
            split.nodes[0].model.params(),
            "fused and split paths cross the milestone differently"
        );
    }

    #[test]
    fn comm_time_positive_between_distinct_nodes() {
        let env = tiny_env();
        assert!(env.comm_time(0, 1, 0.0) > 0.0);
        assert_eq!(env.comm_time(2, 2, 0.0), 0.0);
    }
}
