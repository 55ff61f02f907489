//! Every workspace item the benchmark touches *below* `Session`,
//! `Scenario`, the registry and `scale::specs` is named in this file and
//! nowhere else, so a refactor that renames one of them edits one file of
//! the benchmark. Each is a public call timed from outside.
//!
//! | call | layer | per-layer metric | ROADMAP item that may rename it |
//! |---|---|---|---|
//! | `Environment::pull_params_into` | engine | `engine.pull_us` | — |
//! | `Environment::gradient_step` | ml | `ml.grad_step_us` | 4c keeps the scratch entry point this calls |
//! | `Environment::comm_time` | net | `net.comm_time_ns` | 4d (alias retirement) |
//! | `EventQueue::{push, pop}` | net | `net.queue_hold_ns` | — |
//! | `EmaTimeTracker::{for_fleet, record, coverage}` | monitor | replay input | 3 (one tracker layout) |
//! | `EmaTimeTracker::matrix_for` (n ≤ 64) / `edge_times_for` (n > 64) | monitor | `monitor.assemble_ms` | 3 keeps `edge_times_for` |
//! | `PolicyGenerator::generate` (n ≤ 64) / `generate_sparse` (n > 64) | policy | `policy.generate_ms` | 2, 3 keep `generate_sparse` |
//! | `rho_upper_bound{,_sparse}`, `t_bar_bounds{,_sparse}` | policy | grid of `policy.candidates` | 2 (grid pruning), 3 |
//! | `solve_policy_lp` / `solve_policy_lp_rowwise` | policy, lp | `policy.lp_ms`, `lp.row_solve_us` | 2, 3 keep `_rowwise` |
//! | `build_y` / `build_y_sparse` | policy | `policy.build_y_ms` | 3 keeps `_sparse` |
//! | `second_largest_eigenvalue` / `_sparse` | linalg | `policy.lambda2_ms`, `linalg.*` | 2 (warm start); 3 keeps Jacobi for n ≤ 64 only |
//! | `Session::checkpoint_binary`, `Session::checkpoint_delta`, `CheckpointScratch` | checkpoint | `checkpoint.full_encode_ms`, `checkpoint.delta_encode_ms` | 4a keeps NMXB |
//! | `reconstruct_chain` | checkpoint | `checkpoint.reconstruct_ms` | 4a |
//! | `decode_session_v3` | json | `json.codec_decode_ms` | 4a |
//! | `codec::read_document` | json | `checkpoint.changed_nodes` | 4a |
//!
//! Where ROADMAP items 3–4 keep one of a pair, the surviving side is the
//! one on the clock of a bounded metric: the edge-list control plane above
//! n = 64 (`fleet256`), NMXB binary checkpoints (`snap1024`), and
//! `Environment::gradient_step` rather than `Model::loss_grad*`. The dense
//! side is timed only where the repository still runs it in production
//! (n ≤ 64: `paper8*`, `fleet64`).

use netmax_core::engine::{
    decode_session_v3, reconstruct_chain, CheckpointScratch, Environment, Session, SessionError,
};
use netmax_core::monitor::{EmaTimeTracker, MonitorConfig};
use netmax_core::policy::{rho_upper_bound, solve_policy_lp, t_bar_bounds};
use netmax_core::sparse_policy::{
    rho_upper_bound_sparse, solve_policy_lp_rowwise, t_bar_bounds_sparse, DENSE_CONTROL_THRESHOLD,
};
use netmax_core::{build_y, build_y_sparse, PolicyGenerator, PolicySearchConfig};
use netmax_json::codec;
use netmax_linalg::{second_largest_eigenvalue, second_largest_eigenvalue_sparse};
use netmax_net::{EventQueue, Topology};
use std::hint::black_box;
use std::time::Instant;

/// The bounded-effort settings `generate_sparse` passes to the sparse λ₂
/// solver (private constants of `sparse_policy.rs`, repeated here so the
/// replay times the call production makes).
const SPARSE_L2_MAX_ITERS: usize = 5_000;
const SPARSE_L2_TOL: f64 = 1e-12;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Follows a traced gossip arm from outside and keeps the EMA state a
/// monitor attached to it sees at the first round it would act on. On a
/// NetMax arm that is the first `MonitorRound` with enough coverage; an
/// arm without a monitor (AD-PSGD) is looked at once per fleet-wide sweep
/// of steps, which is what `AD-PSGD+Monitor` would have recorded.
pub struct ControlPlaneReplay {
    tracker: EmaTimeTracker,
    has_monitor: bool,
    steps: usize,
    captured: Option<(EmaTimeTracker, f64)>,
}

/// What one replayed monitor round cost, attributed from outside.
#[derive(Debug, Clone, Default)]
pub struct ControlPlaneLedger {
    pub assemble_ms: f64,
    pub generate_ms: f64,
    /// (ρ, t̄) grid points whose LP was attempted.
    pub candidates: usize,
    pub lp_ms: f64,
    pub build_y_ms: f64,
    pub lambda2_ms: f64,
    /// Per-call λ₂ times (ms), one per feasible candidate.
    pub lambda2_calls_ms: Vec<f64>,
    /// Power-iteration counts per call (empty on the dense Jacobi path).
    pub power_iters: Vec<f64>,
    pub power_converged: usize,
    pub nodes: usize,
}

impl ControlPlaneReplay {
    /// `n` workers; β is what `Arm::instantiate` gives the monitor.
    pub fn new(n: usize, has_monitor: bool) -> Self {
        let beta = MonitorConfig::paper_default(1.0).beta;
        let tracker = EmaTimeTracker::for_fleet(n, beta);
        Self { tracker, has_monitor, steps: 0, captured: None }
    }

    /// Mirrors `GossipBehavior::on_iteration` of the followed arm.
    pub fn on_step(
        &mut self,
        env: &Environment,
        node: usize,
        peer: Option<usize>,
        iteration_s: f64,
    ) {
        if self.captured.is_some() {
            return;
        }
        if let Some(m) = peer {
            self.tracker.record(node, m, iteration_s);
        }
        self.steps += 1;
        if !self.has_monitor && self.steps.is_multiple_of(env.num_nodes()) {
            self.on_monitor(env);
        }
    }

    /// Call at a `MonitorRound` event: keeps the tracker if this is the
    /// first round the monitor does not skip for coverage.
    pub fn on_monitor(&mut self, env: &Environment) {
        if self.captured.is_none() && self.tracker.coverage(&env.topology) >= 0.5 {
            let alpha = env.workload.optim.lr_at(env.mean_epoch());
            self.captured = Some((self.tracker.clone(), alpha));
        }
    }

    /// Replays that round: one production `generate` call, then the same
    /// K×R grid candidate by candidate with the LP, `Y_P` assembly and λ₂
    /// timed apart. `None` when no round was captured.
    pub fn measure(&self, topo: &Topology) -> Option<ControlPlaneLedger> {
        let (tracker, alpha) = self.captured.as_ref()?;
        let alpha = *alpha;
        let search = PolicySearchConfig::new(alpha);
        let generator = PolicyGenerator::new(search.clone());
        let n = topo.len();
        let p_node = vec![1.0 / n as f64; n];
        let mut out = ControlPlaneLedger { nodes: n, ..Default::default() };
        if n > DENSE_CONTROL_THRESHOLD {
            let t0 = Instant::now();
            let times = tracker.edge_times_for(topo);
            out.assemble_ms = ms_since(t0);
            let t0 = Instant::now();
            black_box(generator.generate_sparse(&times, topo));
            out.generate_ms = ms_since(t0);
            sweep(
                &search,
                rho_upper_bound_sparse(alpha, &times, topo),
                |rho| t_bar_bounds_sparse(alpha, rho, &times, topo),
                |rho, t_bar| {
                    let t0 = Instant::now();
                    let policy = solve_policy_lp_rowwise(alpha, rho, t_bar, &times, topo);
                    out.lp_ms += ms_since(t0);
                    out.candidates += 1;
                    let Some(policy) = policy else { return };
                    let t0 = Instant::now();
                    let y = build_y_sparse(&policy, topo, &p_node, alpha, rho);
                    out.build_y_ms += ms_since(t0);
                    let t0 = Instant::now();
                    let l2 =
                        second_largest_eigenvalue_sparse(&y, SPARSE_L2_MAX_ITERS, SPARSE_L2_TOL);
                    let dt = ms_since(t0);
                    out.lambda2_ms += dt;
                    out.lambda2_calls_ms.push(dt);
                    out.power_iters.push(l2.iterations as f64);
                    out.power_converged += usize::from(l2.converged);
                    black_box(l2.eigenvalue);
                },
            );
        } else {
            let t0 = Instant::now();
            let times = tracker.matrix_for(topo);
            out.assemble_ms = ms_since(t0);
            let t0 = Instant::now();
            black_box(generator.generate(&times, topo));
            out.generate_ms = ms_since(t0);
            sweep(
                &search,
                rho_upper_bound(alpha, &times, topo),
                |rho| t_bar_bounds(alpha, rho, &times, topo),
                |rho, t_bar| {
                    let t0 = Instant::now();
                    let policy = solve_policy_lp(alpha, rho, t_bar, &times, topo);
                    out.lp_ms += ms_since(t0);
                    out.candidates += 1;
                    let Some(policy) = policy else { return };
                    let t0 = Instant::now();
                    let y = build_y(&policy, topo, &p_node, alpha, rho);
                    out.build_y_ms += ms_since(t0);
                    let t0 = Instant::now();
                    black_box(second_largest_eigenvalue(&y));
                    let dt = ms_since(t0);
                    out.lambda2_ms += dt;
                    out.lambda2_calls_ms.push(dt);
                },
            );
        }
        Some(out)
    }
}

/// Walks Algorithm 3's (ρ, t̄) grid exactly as `generate{,_sparse}` does.
fn sweep(
    search: &PolicySearchConfig,
    u_rho: Option<f64>,
    bounds: impl Fn(f64) -> Option<(f64, f64)>,
    mut candidate: impl FnMut(f64, f64),
) {
    let Some(u_rho) = u_rho else { return };
    let delta_rho = u_rho / search.outer_k as f64;
    for k in 1..=search.outer_k {
        let rho = k as f64 * delta_rho;
        let Some((lower, upper)) = bounds(rho) else { continue };
        let delta = (upper - lower) / search.inner_r as f64;
        for r in 1..=search.inner_r {
            candidate(rho, lower + r as f64 * delta);
        }
    }
}

/// A periodic-snapshot writer: one full NMXB snapshot, then deltas against
/// it through the same scratch, with every buffer reused across chains.
#[derive(Default)]
pub struct SnapshotChain {
    scratch: CheckpointScratch,
    base: Vec<u8>,
    deltas: Vec<Vec<u8>>,
    used: usize,
}

impl SnapshotChain {
    /// Starts a new chain with a full snapshot; returns its size in bytes.
    pub fn full(&mut self, session: &Session<'_>) -> Result<usize, SessionError> {
        self.used = 0;
        session.checkpoint_binary(&mut self.scratch, &mut self.base)?;
        Ok(self.base.len())
    }

    /// Appends a delta; returns its size in bytes.
    pub fn delta(&mut self, session: &Session<'_>) -> Result<usize, SessionError> {
        if self.used == self.deltas.len() {
            self.deltas.push(Vec::new());
        }
        session.checkpoint_delta(&mut self.scratch, &mut self.deltas[self.used])?;
        self.used += 1;
        Ok(self.deltas[self.used - 1].len())
    }

    /// Nodes re-serialized by the latest delta (the leading `u32` of its
    /// `nodes` section); 0 when there is none.
    pub fn last_changed_nodes(&self) -> usize {
        self.used
            .checked_sub(1)
            .and_then(|i| codec::read_document(&self.deltas[i]).ok())
            .and_then(|doc| doc.section("nodes")?.get(..4)?.try_into().ok())
            .map_or(0, |b: [u8; 4]| u32::from_le_bytes(b) as usize)
    }

    /// Replays base + deltas into the bytes of a full snapshot.
    pub fn reconstruct(&self) -> Result<Vec<u8>, SessionError> {
        Ok(reconstruct_chain(&self.base, &self.deltas[..self.used])?)
    }
}

/// Milliseconds to decode a full binary snapshot back into its document.
pub fn codec_decode_ms(snapshot: &[u8]) -> Result<f64, SessionError> {
    let t0 = Instant::now();
    black_box(decode_session_v3(snapshot)?);
    Ok(ms_since(t0))
}

/// Microseconds per `Environment::pull_params_into`, round-robin over the
/// fleet into one warm buffer.
pub fn pull_us(env: &Environment, calls: usize) -> Result<f64, SessionError> {
    let n = env.num_nodes();
    let mut buf = Vec::new();
    env.pull_params_into(0, &mut buf)?;
    let t0 = Instant::now();
    for c in 0..calls {
        env.pull_params_into(c % n, &mut buf)?;
        black_box(&buf);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / calls as f64)
}

/// Microseconds per `Environment::gradient_step` (batch draw, gradient
/// kernel at the environment's numerics tier, momentum update),
/// round-robin over the fleet.
pub fn grad_step_us(env: &mut Environment, calls: usize) -> f64 {
    let n = env.num_nodes();
    let t0 = Instant::now();
    for c in 0..calls {
        black_box(env.gradient_step(c % n));
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Nanoseconds per pop + push on an `EventQueue` holding one pending
/// event per worker, each re-scheduled one iteration ahead — the shape of
/// the gossip driver's queue.
pub fn queue_hold_ns(n: usize, cycles: usize) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.push(i as f64 / n as f64, i);
    }
    let t0 = Instant::now();
    for _ in 0..cycles {
        if let Some((t, node)) = q.pop() {
            q.push(t + 1.0, node);
        }
    }
    black_box(q.len());
    t0.elapsed().as_secs_f64() * 1e9 / cycles as f64
}

/// Nanoseconds per `Environment::comm_time` over the topology's directed
/// edges at advancing virtual times.
pub fn comm_time_ns(env: &Environment, calls: usize) -> f64 {
    let n = env.num_nodes();
    let mut acc = 0.0;
    let t0 = Instant::now();
    for c in 0..calls {
        let i = c % n;
        let nbrs = env.topology.neighbors(i);
        let m = nbrs[(c / n) % nbrs.len()];
        acc += env.comm_time(i, m, c as f64 * 0.01);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / calls as f64
}
