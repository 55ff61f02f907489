//! The Network Monitor — Algorithm 1.
//!
//! The monitor is the only centralised component of NetMax, and it is
//! deliberately *not* a parameter server: "it only collects a small amount
//! of time-related statistics for evaluating the network condition"
//! (§III-A). Every period `Ts` it gathers the workers' EMA iteration-time
//! vectors into the matrix `[t_{i,m}]`, runs the policy generator
//! (Algorithm 3), and disseminates the resulting `(P, ρ)`.
//!
//! [`EmaTimeTracker`] implements the worker-side `UPDATETIMEVECTOR`
//! procedure (Algorithm 2 lines 19–22): an exponential moving average per
//! (node, neighbour) pair whose smoothing factor β trades recency against
//! stability.
//!
//! [`Steering`] is the monitor as a gossip arm carries it (§III-D): the
//! tracker, the monitor and the `(P, ρ)` it last disseminated. NetMax and
//! AD-PSGD+Monitor hold one each; the gossip driver feeds and runs it.

use crate::engine::SessionError;
use crate::policy::{PolicyGenerator, PolicySearchConfig};
use crate::sparse_policy::{EdgeTimes, SparsePolicy, SparsePolicyResult};
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_linalg::Matrix;
use netmax_net::Topology;
use std::collections::BTreeMap;

/// Worker-side EMA iteration-time state for the whole fleet (the
/// simulation keeps all workers' vectors in one place; on a real
/// deployment each row lives on its worker).
///
/// Estimates live in a map keyed by ordered pair: entries only ever exist
/// for pairs that actually gossiped, so the tracker holds O(edges)
/// entries at any fleet size.
#[derive(Debug, Clone)]
pub struct EmaTimeTracker {
    times: BTreeMap<(usize, usize), f64>,
    beta: f64,
    n: usize,
}

impl EmaTimeTracker {
    /// Creates a tracker for a fleet of `n` workers with smoothing factor
    /// `beta` (`T[m] ← β·T[m] + (1−β)·t`; smaller β forgets faster).
    pub fn for_fleet(n: usize, beta: f64) -> Self {
        assert!((0.0..1.0).contains(&beta), "β must be in [0, 1)");
        Self { times: BTreeMap::new(), beta, n }
    }

    /// Records a completed iteration of worker `i` with neighbour `m`
    /// taking `t` seconds (Algorithm 2 line 16 / lines 19–22).
    pub fn record(&mut self, i: usize, m: usize, t: f64) {
        assert!(i < self.n && m < self.n && i != m, "bad record indices");
        assert!(t.is_finite() && t >= 0.0, "bad iteration time");
        if let Some(v) = self.times.get_mut(&(i, m)) {
            *v = self.beta * *v + (1.0 - self.beta) * t;
        } else {
            self.times.insert((i, m), t);
        }
    }

    /// Current EMA estimate for the pair, if any observation exists.
    pub fn get(&self, i: usize, m: usize) -> Option<f64> {
        self.times.get(&(i, m)).copied()
    }

    /// The estimate for edge `(i, m)` as the policy generator sees it: a
    /// pair observed in one direction only borrows the reverse direction's
    /// estimate, and a never-observed pair takes the worst time observed
    /// anywhere (1.0 before the first observation) — a pessimistic prior
    /// keeps the LP from over-committing to links nobody has measured.
    fn filled(&self, fallback: f64, i: usize, m: usize) -> f64 {
        self.get(i, m).or_else(|| self.get(m, i)).unwrap_or(fallback)
    }

    /// The worst (largest) estimate observed anywhere, or 1.0 before the
    /// first positive observation.
    fn fallback(&self) -> f64 {
        let worst = self.times.values().copied().fold(0.0f64, f64::max);
        if worst > 0.0 {
            worst
        } else {
            1.0
        }
    }

    /// Assembles the iteration-time edge list for the policy generator
    /// over the topology's live edges (O(edges) work and memory), with the
    /// reverse-borrow and pessimistic-fill rules applied.
    pub fn edge_times_for(&self, topo: &Topology) -> EdgeTimes {
        let fallback = self.fallback();
        EdgeTimes::from_fn(topo, |i, m| self.filled(fallback, i, m))
    }

    /// Dense reference for [`EmaTimeTracker::edge_times_for`]: the same
    /// estimates as a full `n × n` matrix (zero off the topology's edges),
    /// the input of the dense reference generator.
    pub fn matrix_for(&self, topo: &Topology) -> Matrix {
        let n = self.n;
        let fallback = self.fallback();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for m in 0..n {
                if i != m && topo.is_edge(i, m) {
                    out[(i, m)] = self.filled(fallback, i, m);
                }
            }
        }
        out
    }

    /// Serializes the tracker's full state for checkpoint/resume: β, `n`
    /// and an `entries` list of `[i, m, t]` triples.
    pub fn checkpoint(&self) -> Json {
        let entry = |(&(i, m), &t): (&(usize, usize), &f64)| {
            Json::Arr(vec![i.to_json(), m.to_json(), t.to_json()])
        };
        Json::obj([
            ("beta", self.beta.to_json()),
            ("n", self.n.to_json()),
            ("entries", Json::Arr(self.times.iter().map(entry).collect())),
        ])
    }

    /// Rebuilds the tracker of a `fleet`-node environment from
    /// [`EmaTimeTracker::checkpoint`] state. A tracker of any other size,
    /// values [`EmaTimeTracker::record`] could never have produced — and
    /// the retired `{times, observed}` matrix layout, which has no
    /// `entries` — are schema errors.
    pub fn restore(state: &Json, fleet: usize) -> Result<Self, JsonError> {
        let n = usize::from_json(state.field("n")?)?;
        if n != fleet {
            return Err(JsonError::schema(format!(
                "tracker is for {n} nodes, environment has {fleet}"
            )));
        }
        let beta = f64::from_json(state.field("beta")?)?;
        if !(0.0..1.0).contains(&beta) {
            return Err(JsonError::schema(format!("tracker β {beta} outside [0, 1)")));
        }
        let mut times = BTreeMap::new();
        for e in state.field("entries")?.as_arr()? {
            let [i, m, t] = e.as_arr()? else {
                return Err(JsonError::schema("tracker entry must be [i, m, t]".into()));
            };
            let (i, m, t) = (usize::from_json(i)?, usize::from_json(m)?, f64::from_json(t)?);
            if i >= n || m >= n || i == m {
                return Err(JsonError::schema(format!("bad tracker entry ({i}, {m})")));
            }
            if !(t.is_finite() && t >= 0.0) {
                return Err(JsonError::schema(format!("bad tracker time {t} for ({i}, {m})")));
            }
            times.insert((i, m), t);
        }
        Ok(Self { times, beta, n })
    }

    /// Fraction of (ordered, adjacent) pairs with at least one observation.
    pub fn coverage(&self, topo: &Topology) -> f64 {
        self.coverage_over(topo, None)
    }

    /// [`EmaTimeTracker::coverage`] restricted to pairs whose endpoints
    /// are both active (dead rows must not drag coverage below the
    /// monitor's threshold after a crash).
    pub fn coverage_over(&self, topo: &Topology, active: Option<&[bool]>) -> f64 {
        let alive = |i: usize| active.is_none_or(|a| a[i]);
        let mut seen = 0usize;
        let mut total = 0usize;
        for i in 0..self.n {
            if !alive(i) {
                continue;
            }
            for &m in topo.neighbors(i) {
                if alive(m) {
                    total += 1;
                    if self.get(i, m).is_some() {
                        seen += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            seen as f64 / total as f64
        }
    }
}

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Collection/scheduling period `Ts` in simulated seconds (paper: the
    /// policy is recomputed every 2 minutes).
    pub period_s: f64,
    /// EMA smoothing factor β for the worker-side trackers.
    pub beta: f64,
    /// Policy search resolution.
    pub search: PolicySearchConfig,
}

impl MonitorConfig {
    /// Paper defaults: Ts = 120 s, β = 0.5, K = R = 10.
    pub fn paper_default(alpha: f64) -> Self {
        Self { period_s: 120.0, beta: 0.5, search: PolicySearchConfig::new(alpha) }
    }
}

/// The Network Monitor: wraps the policy generator with collection logic.
#[derive(Debug, Clone)]
pub struct NetworkMonitor {
    cfg: MonitorConfig,
    rounds: u64,
    last: Option<LastSolve>,
}

/// The inputs and output of the last generator call: everything the pure
/// search reads besides the monitor's fixed config.
#[derive(Debug, Clone)]
struct LastSolve {
    alpha: f64,
    active: Vec<bool>,
    times: EdgeTimes,
    result: Option<SparsePolicyResult>,
}

impl LastSolve {
    fn solved(&self, alpha: f64, active: &[bool], times: &EdgeTimes) -> bool {
        self.alpha.to_bits() == alpha.to_bits()
            && self.active == active
            && self.times.bit_eq(times)
    }
}

impl NetworkMonitor {
    /// Creates a monitor.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self { cfg, rounds: 0, last: None }
    }

    /// Number of completed monitor rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// One monitor round (Algorithm 1 lines 3–6): collect the iteration
    /// times from the tracker, regenerate the policy at the given current
    /// learning rate α, and return the new `(P, ρ)` for dissemination.
    /// Every step is O(edges): the times are an edge list, the LP is
    /// solved row by row, and the masked path compacts live nodes by
    /// walking neighbour lists.
    ///
    /// `active` masks dead workers out of the optimisation: the LP of
    /// Eq. 14 is solved over the *live* subgraph only, and the returned
    /// policy assigns exactly zero probability to every link touching a
    /// dead node (dead rows are identity, with no off-diagonal entries) —
    /// the policy layer routes around outages. With everyone active this
    /// is exactly the classic full-fleet round.
    ///
    /// Returns `None` (keeping the previous policy) when coverage is too
    /// poor, fewer than two live nodes remain, the live subgraph is
    /// disconnected, or the search finds no feasible candidate.
    ///
    /// A round past those gates whose α, mask and edge times equal the
    /// previous generator call's bit for bit returns that call's output
    /// again: the search is a pure function of them and of the fixed
    /// config, so the reuse is exact, and the cache is not checkpointed —
    /// a restored monitor re-solves to the same bits.
    pub fn round(
        &mut self,
        tracker: &EmaTimeTracker,
        topo: &Topology,
        current_alpha: f64,
        active: &[bool],
    ) -> Option<SparsePolicyResult> {
        self.rounds += 1;
        let n = topo.len();
        // Masked rounds compact the live nodes via neighbour lists,
        // optimise over their subgraph, and expand back to fleet indices
        // with identity rows for the dead.
        let live = if active.iter().all(|&a| a) {
            None
        } else {
            assert_eq!(active.len(), n, "active mask/topology node count mismatch");
            let idx: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
            if idx.len() < 2 {
                return None;
            }
            let mut pos = vec![usize::MAX; n];
            for (a, &i) in idx.iter().enumerate() {
                pos[i] = a;
            }
            let mut sub = Topology::empty(idx.len());
            for (a, &i) in idx.iter().enumerate() {
                for &j in topo.neighbors(i) {
                    if j > i && active[j] {
                        sub.set_edge(a, pos[j], true);
                    }
                }
            }
            if !sub.is_connected() {
                return None;
            }
            Some((idx, pos, sub))
        };
        // Until workers have touched a reasonable share of their links
        // the pessimistic fill dominates and the LP would chase noise.
        if tracker.coverage_over(topo, live.is_some().then_some(active)) < 0.5 {
            return None;
        }
        let times = tracker.edge_times_for(topo);
        if let Some(last) = self.last.as_ref().filter(|l| l.solved(current_alpha, active, &times))
        {
            return last.result.clone();
        }
        let generator = PolicyGenerator::new(PolicySearchConfig {
            alpha: current_alpha,
            ..self.cfg.search.clone()
        });
        let result = match &live {
            None => generator.generate_sparse(&times, topo),
            Some((idx, pos, sub)) => {
                let rows = idx
                    .iter()
                    .map(|&i| {
                        times
                            .row(i)
                            .iter()
                            .filter(|&&(j, _)| active[j])
                            .map(|&(j, t)| (pos[j], t))
                            .collect()
                    })
                    .collect();
                let compact = EdgeTimes::from_rows(idx.len(), rows);
                generator.generate_sparse(&compact, sub).map(|result| SparsePolicyResult {
                    policy: result.policy.expanded(idx, n),
                    ..result
                })
            }
        };
        self.last = Some(LastSolve {
            alpha: current_alpha,
            active: active.to_vec(),
            times,
            result: result.clone(),
        });
        result
    }
}

/// The Network Monitor one gossip arm carries: the workers' EMA time
/// vectors, the monitor, and the `(P, ρ)` of its last applied round with
/// the count of such rounds. Until a round applies, the arm's own peer
/// choice and merge weight stand in for the policy. Only the gossip
/// driver feeds, runs and checkpoints it; an arm just owns it and
/// returns it from
/// [`GossipBehavior::steering`](crate::engine::GossipBehavior::steering).
#[derive(Debug)]
pub struct Steering {
    tracker: EmaTimeTracker,
    monitor: NetworkMonitor,
    policy: Option<SparsePolicy>,
    rho: Option<f64>,
    policies_applied: u64,
}

impl Steering {
    /// A monitor with configuration `cfg`; the gossip driver sizes it to
    /// the fleet when the run starts.
    pub fn new(cfg: MonitorConfig) -> Self {
        let tracker = EmaTimeTracker { times: BTreeMap::new(), beta: cfg.beta, n: 0 };
        let monitor = NetworkMonitor::new(cfg);
        Self { tracker, monitor, policy: None, rho: None, policies_applied: 0 }
    }

    /// The configured period `Ts`.
    pub(crate) fn period_s(&self) -> f64 {
        self.monitor.cfg.period_s
    }

    /// Checks the configuration before a run: `Ts` finite and positive,
    /// β in [0, 1) (the range [`EmaTimeTracker::for_fleet`] asserts), and
    /// the search's K, R positive and ε in (0, 1) (what
    /// [`PolicyGenerator::new`] asserts at the first round that solves).
    pub(crate) fn validate(&self) -> Result<(), SessionError> {
        let MonitorConfig { period_s, beta, .. } = self.monitor.cfg;
        let search = &self.monitor.cfg.search;
        if !(period_s.is_finite() && period_s > 0.0) {
            return Err(SessionError::InvalidConfig(format!(
                "monitor period must be finite and positive, got {period_s}"
            )));
        }
        if !(0.0..1.0).contains(&beta) {
            return Err(SessionError::InvalidConfig(format!(
                "monitor EMA β must be in [0, 1), got {beta}"
            )));
        }
        if search.outer_k == 0 || search.inner_r == 0 {
            return Err(SessionError::InvalidConfig(format!(
                "monitor search resolutions K and R must be positive, got K = {}, R = {}",
                search.outer_k, search.inner_r
            )));
        }
        let epsilon = search.epsilon;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SessionError::InvalidConfig(format!(
                "monitor search ε must be in (0, 1), got {epsilon}"
            )));
        }
        Ok(())
    }

    /// The policy `P` of the last applied round.
    pub(crate) fn policy(&self) -> Option<&SparsePolicy> {
        self.policy.as_ref()
    }

    /// ρ of the last applied round.
    pub(crate) fn rho(&self) -> Option<f64> {
        self.rho
    }

    /// Number of rounds that applied a policy since the run started.
    pub fn policies_applied(&self) -> u64 {
        self.policies_applied
    }

    /// Resets everything for a fresh run over `n` workers.
    pub(crate) fn start(&mut self, n: usize) {
        self.tracker = EmaTimeTracker::for_fleet(n, self.tracker.beta);
        self.monitor.rounds = 0;
        self.monitor.last = None;
        self.policy = None;
        self.rho = None;
        self.policies_applied = 0;
    }

    /// Feeds worker `i`'s `t`-second iteration with neighbour `m` to the
    /// EMA (Algorithm 2 line 16).
    pub(crate) fn record(&mut self, i: usize, m: usize, t: f64) {
        self.tracker.record(i, m, t);
    }

    /// One [`NetworkMonitor::round`] at learning rate `alpha`; a round
    /// that produces a policy replaces `(P, ρ)`, any other keeps them.
    pub(crate) fn round(&mut self, topo: &Topology, alpha: f64, active: &[bool]) {
        if let Some(res) = self.monitor.round(&self.tracker, topo, alpha, active) {
            self.policy = Some(res.policy);
            self.rho = Some(res.rho);
            self.policies_applied += 1;
        }
    }

    /// Serializes the mutable state. The monitor's reuse cache is left
    /// out: a restored monitor re-solves to the same bits.
    pub(crate) fn checkpoint(&self) -> Json {
        Json::obj([
            ("tracker", self.tracker.checkpoint()),
            ("monitor", Json::obj([("rounds", self.monitor.rounds.to_json())])),
            ("policy", self.policy.as_ref().map_or(Json::Null, SparsePolicy::checkpoint)),
            ("rho", self.rho.to_json()),
            ("policies_applied", self.policies_applied.to_json()),
        ])
    }

    /// Restores [`Steering::checkpoint`] state into a steering started
    /// for an `n`-worker fleet. The tracker and the monitor are required.
    pub(crate) fn restore(&mut self, state: &Json, n: usize) -> Result<(), JsonError> {
        self.tracker = EmaTimeTracker::restore(state.field("tracker")?, n)?;
        self.monitor.rounds = u64::from_json(state.field("monitor")?.field("rounds")?)?;
        self.policy = match state.field("policy")? {
            Json::Null => None,
            p => Some(SparsePolicy::restore(p, n)?),
        };
        self.rho = Option::from_json(state.field("rho")?)?;
        self.policies_applied = u64::from_json(state.field("policies_applied")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_first_observation_is_exact() {
        let mut t = EmaTimeTracker::for_fleet(3, 0.5);
        assert_eq!(t.get(0, 1), None);
        t.record(0, 1, 2.0);
        assert_eq!(t.get(0, 1), Some(2.0));
    }

    #[test]
    fn ema_smooths_subsequent_observations() {
        let mut t = EmaTimeTracker::for_fleet(3, 0.5);
        t.record(0, 1, 2.0);
        t.record(0, 1, 4.0);
        // 0.5·2 + 0.5·4 = 3.
        assert_eq!(t.get(0, 1), Some(3.0));
    }

    #[test]
    fn low_beta_tracks_changes_faster() {
        let run = |beta: f64| {
            let mut t = EmaTimeTracker::for_fleet(2, beta);
            t.record(0, 1, 1.0);
            for _ in 0..5 {
                t.record(0, 1, 10.0);
            }
            t.get(0, 1).unwrap()
        };
        assert!(run(0.2) > run(0.9) - 9.0); // sanity
        assert!((run(0.2) - 10.0).abs() < (run(0.9) - 10.0).abs());
    }

    #[test]
    fn unobserved_pairs_are_filled_pessimistically_in_both_views() {
        let topo = Topology::fully_connected(3);
        let mut t = EmaTimeTracker::for_fleet(3, 0.5);
        t.record(0, 1, 1.0);
        t.record(0, 2, 5.0);
        let m = t.matrix_for(&topo);
        assert_eq!(m[(0, 1)], 1.0);
        // (1, 0) borrows the reverse direction.
        assert_eq!(m[(1, 0)], 1.0);
        // (1, 2) never observed in either direction → worst observed (5.0).
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(1, 1)], 0.0);
        // The edge list the monitor runs on is the matrix on every edge.
        let e = t.edge_times_for(&topo);
        for i in 0..3 {
            assert_eq!(e.row(i).len(), topo.neighbors(i).len());
            for &(j, time) in e.row(i) {
                assert_eq!(time, m[(i, j)], "edge ({i}, {j})");
            }
        }
    }

    #[test]
    fn coverage_counts_ordered_pairs() {
        let topo = Topology::fully_connected(3);
        let mut t = EmaTimeTracker::for_fleet(3, 0.5);
        assert_eq!(t.coverage(&topo), 0.0);
        t.record(0, 1, 1.0);
        assert!((t.coverage(&topo) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_checkpoint_round_trips() {
        let mut t = EmaTimeTracker::for_fleet(80, 0.5);
        t.record(0, 1, 2.0);
        t.record(0, 1, 4.0);
        t.record(79, 3, 0.25);
        let restored = EmaTimeTracker::restore(&t.checkpoint(), 80).expect("restore");
        assert_eq!(restored.get(0, 1), Some(3.0));
        assert_eq!(restored.get(79, 3), Some(0.25));
        assert_eq!(restored.get(1, 0), None);
        // And the restored tracker keeps smoothing with the same β.
        let mut r = restored;
        r.record(0, 1, 5.0);
        assert_eq!(r.get(0, 1), Some(4.0));
    }

    #[test]
    fn tracker_restore_rejects_malformed_and_retired_documents() {
        // Each of these used to restore "successfully" and then trip an
        // assert inside the next monitor round (or, for the retired
        // layout, select a second store implementation).
        let bad = [
            (r#"{"beta": 0.5, "n": 3, "entries": [[0, 1, -1.0]]}"#, "bad tracker time"),
            (r#"{"beta": 0.5, "n": 3, "entries": [[0, 1, 1e999]]}"#, "bad tracker time"),
            (r#"{"beta": 1.0, "n": 3, "entries": []}"#, "outside [0, 1)"),
            (r#"{"beta": -0.1, "n": 3, "entries": []}"#, "outside [0, 1)"),
            (r#"{"beta": 0.5, "n": 3, "entries": [[0, 3, 1.0]]}"#, "bad tracker entry"),
            (r#"{"beta": 0.5, "n": 3, "entries": [[1, 1, 1.0]]}"#, "bad tracker entry"),
            (r#"{"beta": 0.5, "n": 3, "entries": [[0, 1]]}"#, "[i, m, t]"),
            (
                r#"{"beta": 0.5, "n": 2, "times": {"rows": 2, "cols": 2, "data": [0, 1, 1, 0]},
                    "observed": [false, true, true, false]}"#,
                "missing field `entries`",
            ),
        ];
        for (doc, needle) in bad {
            let state = Json::parse(doc).expect("test document parses");
            let fleet = usize::from_json(state.field("n").expect("n")).expect("n");
            let err = EmaTimeTracker::restore(&state, fleet).expect_err(doc).to_string();
            assert!(err.contains(needle), "{doc}: {err}");
        }
        // Sound in itself, but another fleet's: the next `record` would
        // assert on node 3, or the next round on the edge list's shape.
        let other = EmaTimeTracker::for_fleet(3, 0.5).checkpoint();
        for fleet in [2, 4] {
            let err = EmaTimeTracker::restore(&other, fleet).expect_err("size").to_string();
            assert!(err.contains("tracker is for 3 nodes"), "{err}");
        }
    }

    /// Two-server cluster shape: {0,1,2} and {3,4,5} are fast triads, the
    /// nine cross links are slow.
    fn fast(i: usize, m: usize) -> bool {
        (i / 3) == (m / 3)
    }

    fn two_triad_tracker() -> EmaTimeTracker {
        let mut tracker = EmaTimeTracker::for_fleet(6, 0.5);
        for i in 0..6 {
            for m in 0..6 {
                if i != m {
                    tracker.record(i, m, if fast(i, m) { 0.1 } else { 1.0 });
                }
            }
        }
        tracker
    }

    #[test]
    fn monitor_skips_round_on_poor_coverage() {
        let topo = Topology::fully_connected(4);
        let tracker = EmaTimeTracker::for_fleet(4, 0.5);
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        assert!(mon.round(&tracker, &topo, 0.1, &[true; 4]).is_none());
        assert_eq!(mon.rounds(), 1);
    }

    #[test]
    fn monitor_generates_policy_with_coverage() {
        // Every node has fast options and the optimised policy must favour
        // them (slow links sit at or near their Eq. 11 floor; fast links
        // get the surplus mass).
        let topo = Topology::fully_connected(6);
        let tracker = two_triad_tracker();
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let res = mon.round(&tracker, &topo, 0.1, &[true; 6]).expect("policy expected");
        // Aggregate preference per node (simplex optima are vertices, so
        // per-link comparisons are not meaningful).
        for i in 0..6 {
            let (mut fast_sum, mut slow_sum) = (0.0, 0.0);
            for m in 0..6 {
                if i == m {
                    continue;
                }
                if fast(i, m) {
                    fast_sum += res.policy.get(i, m);
                } else {
                    slow_sum += res.policy.get(i, m);
                }
            }
            assert!(fast_sum / 2.0 > slow_sum / 3.0, "node {i}: {:?}", res.policy);
        }
    }

    #[test]
    fn masked_round_zeroes_dead_links_and_keeps_live_rows_stochastic() {
        // Node 5 is down: the policy must solve the LP over {0..4} only,
        // give node 5 an identity row, and assign exactly zero mass to
        // every link touching it.
        let topo = Topology::fully_connected(6);
        let tracker = two_triad_tracker();
        let mut active = [true; 6];
        active[5] = false;
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let res = mon.round(&tracker, &topo, 0.1, &active).expect("masked policy expected");
        for i in 0..5 {
            assert_eq!(res.policy.get(i, 5), 0.0, "live node {i} steered to the dead node");
            assert_eq!(res.policy.get(5, i), 0.0);
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-6, "row {i} not stochastic");
        }
        // The dead row carries no off-diagonal entries at all — the
        // structural guarantee the n = 4096 fleet relies on for O(edges)
        // memory.
        assert_eq!(res.policy.row(5), &[(5, 1.0)], "dead row must be identity");
        assert!(res.lambda2 < 1.0 && res.lambda2 > 0.0);
    }

    #[test]
    fn masked_round_equals_the_dense_reference_on_the_live_subgraph() {
        // The masked round is compaction → production generator →
        // expansion. Compacting by hand and running the dense reference
        // generator on the live subgraph must give the same bits.
        let topo = Topology::fully_connected(6);
        let tracker = two_triad_tracker();
        let mut active = [true; 6];
        active[5] = false;
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let res = mon.round(&tracker, &topo, 0.1, &active).expect("masked policy expected");

        let sub = Topology::fully_connected(5);
        let full = tracker.matrix_for(&topo);
        let mut times = Matrix::zeros(5, 5);
        for a in 0..5 {
            for b in 0..5 {
                times[(a, b)] = full[(a, b)];
            }
        }
        let reference = PolicyGenerator::new(PolicySearchConfig::new(0.1))
            .generate(&times, &sub)
            .expect("reference policy");
        assert_eq!(
            (res.rho, res.t_bar, res.lambda2),
            (reference.rho, reference.t_bar, reference.lambda2)
        );
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(res.policy.get(a, b), reference.policy[(a, b)], "P[{a},{b}]");
            }
        }
    }

    #[test]
    fn masked_round_needs_two_live_nodes_and_a_connected_live_subgraph() {
        let mut tracker = EmaTimeTracker::for_fleet(4, 0.5);
        for i in 0..4 {
            for m in 0..4 {
                if i != m {
                    tracker.record(i, m, 1.0);
                }
            }
        }
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        // One live node: nothing to optimise.
        assert!(mon
            .round(&tracker, &Topology::fully_connected(4), 0.1, &[true, false, false, false])
            .is_none());
        // Live nodes 0 and 2 on the 4-ring are not adjacent: the live
        // subgraph is disconnected.
        assert!(mon
            .round(&tracker, &Topology::ring(4), 0.1, &[true, false, true, false])
            .is_none());
    }

    /// Every field of two round results, floats compared by bits.
    fn assert_same_bits(a: &SparsePolicyResult, b: &SparsePolicyResult) {
        let bits = |r: &SparsePolicyResult| {
            let rows: Vec<Vec<(usize, u64)>> = (0..r.policy.len())
                .map(|i| r.policy.row(i).iter().map(|&(j, p)| (j, p.to_bits())).collect())
                .collect();
            let floats = [r.rho, r.lambda2, r.t_bar, r.t_convergence].map(f64::to_bits);
            (rows, floats, r.lambda2_iterations, r.exact_solves)
        };
        assert_eq!(bits(a), bits(b));
    }

    /// Runs a round with a marker planted in the cached result: `true`
    /// when the round handed the cached result back instead of solving.
    fn reuses(
        mon: &mut NetworkMonitor,
        tracker: &EmaTimeTracker,
        topo: &Topology,
        alpha: f64,
        active: &[bool],
    ) -> bool {
        let cached = mon.last.as_mut().and_then(|l| l.result.as_mut()).expect("a cached policy");
        let rho = std::mem::replace(&mut cached.rho, -1.0);
        let reused = mon.round(tracker, topo, alpha, active).expect("a policy").rho == -1.0;
        if reused {
            mon.last.as_mut().and_then(|l| l.result.as_mut()).expect("kept").rho = rho;
        }
        reused
    }

    #[test]
    fn repeated_round_returns_the_fresh_round_bit_for_bit() {
        let topo = Topology::fully_connected(6);
        let tracker = two_triad_tracker();
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        mon.round(&tracker, &topo, 0.1, &[true; 6]).expect("policy");
        assert!(reuses(&mut mon, &tracker, &topo, 0.1, &[true; 6]));
        let again = mon.round(&tracker, &topo, 0.1, &[true; 6]).expect("reused policy");
        assert_eq!(mon.rounds(), 3);
        let fresh = NetworkMonitor::new(MonitorConfig::paper_default(0.1))
            .round(&tracker, &topo, 0.1, &[true; 6])
            .expect("fresh policy");
        assert_same_bits(&again, &fresh);
    }

    #[test]
    fn every_input_of_the_search_invalidates_the_reuse() {
        let topo = Topology::fully_connected(6);
        let all = [true; 6];
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));

        // One edge time one ulp away.
        let mut tracker = two_triad_tracker();
        mon.round(&tracker, &topo, 0.1, &all).expect("policy");
        let t = tracker.times.get_mut(&(0, 1)).expect("observed");
        *t = f64::from_bits(t.to_bits() + 1);
        assert!(!reuses(&mut mon, &tracker, &topo, 0.1, &all));
        assert!(reuses(&mut mon, &tracker, &topo, 0.1, &all));

        // A new learning rate.
        assert!(!reuses(&mut mon, &tracker, &topo, 0.05, &all));
        assert!(reuses(&mut mon, &tracker, &topo, 0.05, &all));

        // Node 5 down, then back up.
        let mut down = all;
        down[5] = false;
        assert!(!reuses(&mut mon, &tracker, &topo, 0.05, &down));
        assert!(!reuses(&mut mon, &tracker, &topo, 0.05, &all));
        assert!(reuses(&mut mon, &tracker, &topo, 0.05, &all));

        // A link first observed after the last solve: its pessimistic
        // fill (the worst time, 1.0) gives way to its fast time.
        let mut tracker = EmaTimeTracker::for_fleet(6, 0.5);
        for i in 0..6 {
            for m in (0..6).filter(|&m| m != i && (i, m) != (0, 1) && (i, m) != (1, 0)) {
                tracker.record(i, m, if fast(i, m) { 0.1 } else { 1.0 });
            }
        }
        assert!(!reuses(&mut mon, &tracker, &topo, 0.1, &all));
        assert!(reuses(&mut mon, &tracker, &topo, 0.1, &all));
        tracker.record(0, 1, 0.1);
        assert!(!reuses(&mut mon, &tracker, &topo, 0.1, &all));
    }

    #[test]
    fn the_coverage_gate_runs_before_the_reuse() {
        // Uniform times: the pessimistic fill equals every observed time,
        // so the edge list is the same below and above the gate.
        let topo = Topology::fully_connected(4);
        let pairs: Vec<(usize, usize)> =
            (0..4).flat_map(|i| (0..4).filter(move |&m| m != i).map(move |m| (i, m))).collect();
        let observed = |k: usize| {
            let mut tracker = EmaTimeTracker::for_fleet(4, 0.5);
            for &(i, m) in &pairs[..k] {
                tracker.record(i, m, 1.0);
            }
            tracker
        };
        let (below, above, full) = (observed(5), observed(7), observed(12));
        assert!(below.edge_times_for(&topo).bit_eq(&full.edge_times_for(&topo)));

        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        assert!(mon.round(&below, &topo, 0.1, &[true; 4]).is_none());
        assert!(mon.last.is_none(), "a gated round must not be cached");
        mon.round(&above, &topo, 0.1, &[true; 4]).expect("policy above the gate");
        // A cached solve on the same edge list must not lift the gate.
        assert!(mon.round(&below, &topo, 0.1, &[true; 4]).is_none());
        assert!(reuses(&mut mon, &full, &topo, 0.1, &[true; 4]));
    }

    #[test]
    fn masked_round_reuses_only_under_the_same_mask() {
        let topo = Topology::fully_connected(6);
        let tracker = two_triad_tracker();
        let mut mon = NetworkMonitor::new(MonitorConfig::paper_default(0.1));
        let mut down5 = [true; 6];
        down5[5] = false;
        let mut down4 = [true; 6];
        down4[4] = false;
        mon.round(&tracker, &topo, 0.1, &down5).expect("masked policy");
        assert!(reuses(&mut mon, &tracker, &topo, 0.1, &down5));
        let again = mon.round(&tracker, &topo, 0.1, &down5).expect("reused policy");
        let fresh = NetworkMonitor::new(MonitorConfig::paper_default(0.1))
            .round(&tracker, &topo, 0.1, &down5)
            .expect("fresh policy");
        assert_same_bits(&again, &fresh);
        assert!(!reuses(&mut mon, &tracker, &topo, 0.1, &down4));
        assert_eq!(mon.last.as_ref().map(|l| l.active.as_slice()), Some(&down4[..]));
    }

    #[test]
    fn edge_times_compare_by_bits() {
        let zero = EdgeTimes::from_rows(2, vec![vec![(1, 0.0)], vec![(0, 1.0)]]);
        let neg = EdgeTimes::from_rows(2, vec![vec![(1, -0.0)], vec![(0, 1.0)]]);
        assert!(zero.bit_eq(&zero.clone()));
        assert!(!zero.bit_eq(&neg), "−0.0 and 0.0 are different inputs");
    }
}
