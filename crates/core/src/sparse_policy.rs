//! The control plane's policy generation — Algorithm 3 over the edge set.
//!
//! This is the only generator any [`Session`](crate::engine::Session)
//! runs, at every fleet size:
//!
//! * iteration times live in an [`EdgeTimes`] edge list and policies in a
//!   [`SparsePolicy`], never an M×M matrix;
//! * the Eq. (14) LP is block diagonal — each row of `P` has its own
//!   variables and exactly two constraints — so it is solved **row by
//!   row** from one per-node block template that is built once per search
//!   and re-stamped per `(ρ, t̄)` candidate (see
//!   [`solve_policy_lp_rowwise`] for why this is the joint solution bit
//!   for bit);
//! * λ₂ of the candidate's `Y_P` comes from one of two eigensolvers,
//!   chosen from the node count alone: see [`DENSE_CONTROL_THRESHOLD`].
//!   On either side a candidate that provably cannot beat the incumbent
//!   is dropped before its score is finished — same selection, bit for
//!   bit, as scoring each to the end. Up to the threshold a Lanczos
//!   screen ([`LanczosScreen`]) bounds the true λ₂ from below and only
//!   the candidates it cannot place above the incumbent's ceiling pay
//!   for the exact solve, so every incumbent and the winner carry a
//!   Jacobi λ₂. Past it the sweep streams candidates through the lanes of
//!   one power-iteration kernel — each into the lane the last one left,
//!   the step it left — and retires a lane once its own, monotone,
//!   estimate crosses its ceiling, which moves down whenever a finished
//!   lane becomes the incumbent;
//! * both early exits live on the incumbent's ceiling, so the grid is
//!   visited **best first**: the first t̄ column from the top ρ row down,
//!   then the rest row-major (`best_first_order`). `T_convergence` falls
//!   with ρ and rises with t̄, and in every search logged from n = 8 to
//!   n = 512 the winner sat in that column — up to the threshold in the
//!   last feasible ρ row, so the first candidate scored is the winner and
//!   an 8×8-torus round pays 1–2 exact solves where a row-major walk paid
//!   7–10 building incumbents it discarded; under the capped power score
//!   of n = 256 in rows 1 and 6, which is why the column and not the
//!   reversed rows (those double the power steps there). The order is
//!   cost only: the incumbent is the minimum under `(T_convergence,
//!   canonical index (k − 1)·R + (r − 1))`, so the selection is Algorithm
//!   3's row-major arg-min in whatever order candidates arrive — a tested
//!   property of the private order-parametrised sweep, not an option.
//!
//! [`crate::policy`] keeps the dense-matrix formulation as the reference
//! the equivalence suites compare this module against.

use crate::engine::{Environment, PeerChoice};
use crate::gossip_matrix::{build_y_sparse, y_entries};
use crate::lp::{solve_with, LpProblem, LpWorkspace};
use crate::policy::{PolicyGenerator, POLICY_MARGIN};
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_linalg::{second_largest_eigenvalue, LanczosScreen, LaneOutcome, Matrix, PowerLanes};
use netmax_net::Topology;
use rand::Rng;

/// The eigensolver switch, and the only size-dependent decision in the
/// control plane: fleets of up to this many nodes score a candidate
/// with the cyclic Jacobi solver on the densified `Y_P` (exact, O(M³),
/// and the solver `BENCH_sanity.json`'s bytes were recorded with);
/// strictly larger fleets use the deflated power iteration, whose
/// per-iteration cost is the edge count. Everything else — tracker,
/// sweep bounds, LP, `Y_P` assembly, the policy workers sample from — is
/// the same edge-list code at every size.
///
/// The Lanczos screen runs on the Jacobi side only, and must: its Ritz
/// values bound the *true* λ₂, which is what Jacobi returns. Past the
/// threshold the score is the capped power estimate itself — below the
/// true λ₂ by an amount that differs from candidate to candidate — so a
/// bound on the true value proves nothing about which estimate wins.
pub const DENSE_CONTROL_THRESHOLD: usize = 64;

/// Iteration cap for the power-iteration λ₂ inside the candidate sweep.
/// Power iteration's convergence rate degrades as the spectral gap closes
/// (large diameters push λ₂ → 1), so at scale the sweep ranks candidates
/// by a bounded-effort estimate rather than a fully converged eigenvalue —
/// the ranking, not the tenth digit, is what the search consumes.
pub const SPARSE_L2_MAX_ITERS: usize = 5_000;

/// Convergence tolerance for the power-iteration λ₂.
pub const SPARSE_L2_TOL: f64 = 1e-12;

/// Candidates the power-iteration sweep scores side by side
/// ([`PowerLanes`]). A measured constant, not an option. Wider lanes
/// amortise the kernel's sequential reductions further, but a lane loaded
/// beside the incumbent-to-be runs under an older, looser ceiling: on the
/// 16×16 torus, default grid, the search took 155–180, 110–130, 82–111 and
/// 98–127 ms at 1, 2, 4 and 8 lanes, the last with 6 % more power steps
/// (two link-time seeds, two runs each, one 2-vCPU x86-64-v3 host).
const SWEEP_LANES: usize = 4;

/// How far above `λ* = exp(t̄·ln ε / T_best)` a candidate's lower bound
/// on its score must climb before the sweep drops it. In exact arithmetic
/// crossing `λ*` already means `T_convergence > T_best`: a lane's running
/// estimate never decreases (see [`netmax_linalg::sparse`]) and a Ritz
/// value never exceeds λ₂ (see [`netmax_linalg::lanczos`]). The band
/// absorbs the float jitter of either bound (≲ 1e-12 at n = 4 096), the
/// Jacobi solver's own error and the rounding of `exp`/`ln`, and moves
/// `T_convergence` by parts in 10⁹ — far more than float rounding could
/// hide.
const ABANDON_GUARD: f64 = 1e-9;

/// Directed iteration times `t_{i,m}` stored per live topology edge.
///
/// Row `i` holds `(m, t_{i,m})` pairs in strictly ascending `m` order —
/// the same visit order a dense row scan produces, so reductions over a
/// row yield floats identical to the dense code's (absent entries
/// contribute exactly `+0.0`).
#[derive(Debug, Clone)]
pub struct EdgeTimes {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl EdgeTimes {
    /// Builds from per-row `(neighbour, time)` lists.
    ///
    /// # Panics
    /// Panics unless every row is strictly ascending with in-range
    /// neighbour indices.
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(rows.len(), n, "row count mismatch");
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            for &(j, t) in row {
                assert!(j < n && j != i, "row {i}: bad neighbour {j}");
                assert!(prev.is_none_or(|p| p < j), "row {i} not strictly ascending");
                assert!(t.is_finite() && t >= 0.0, "row {i}: bad time {t}");
                prev = Some(j);
            }
        }
        Self { n, rows }
    }

    /// Evaluates `time(i, m)` on every directed edge of the topology.
    pub fn from_fn(topo: &Topology, time: impl Fn(usize, usize) -> f64) -> Self {
        let rows = (0..topo.len())
            .map(|i| topo.neighbors(i).iter().map(|&m| (m, time(i, m))).collect())
            .collect();
        Self::from_rows(topo.len(), rows)
    }

    /// Extracts the topology's edge entries from a dense time matrix (the
    /// dense-signature reference functions and the equivalence tests).
    pub fn from_dense(times: &Matrix, topo: &Topology) -> Self {
        assert_eq!(times.rows(), topo.len(), "times shape mismatch");
        Self::from_fn(topo, |i, j| times[(i, j)])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for a zero-node fleet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The time for `(i, m)`, or 0.0 when the pair holds no entry.
    pub fn get(&self, i: usize, m: usize) -> f64 {
        match self.rows[i].binary_search_by_key(&m, |&(j, _)| j) {
            Ok(k) => self.rows[i][k].1,
            Err(_) => 0.0,
        }
    }

    /// Row `i` as ascending `(neighbour, time)` pairs.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Same edges and the same time bits on each: unlike `==` on `f64`,
    /// −0.0 and 0.0 differ.
    pub(crate) fn bit_eq(&self, other: &Self) -> bool {
        let same = |&(j, s): &(usize, f64), &(k, t): &(usize, f64)| {
            j == k && s.to_bits() == t.to_bits()
        };
        self.n == other.n
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
            })
    }
}

/// A row-stochastic communication policy stored over the edge set — the
/// policy NetMax and AD-PSGD+Monitor hold, sample from and checkpoint.
///
/// Each row holds ascending `(column, probability)` pairs and **always
/// contains its diagonal** (the self-selection probability), mirroring the
/// dense `P` whose diagonal is structural. Dense↔sparse conversions are
/// exact: entries are the same `f64`s, absent pairs are exactly zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePolicy {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparsePolicy {
    /// The identity policy: every node selects itself with probability 1.
    pub fn identity(n: usize) -> Self {
        Self { n, rows: (0..n).map(|i| vec![(i, 1.0)]).collect() }
    }

    /// Builds from per-row ascending `(column, probability)` lists, or
    /// says which row breaks the invariants: strictly ascending in-range
    /// columns, the diagonal present, finite non-negative probabilities.
    pub fn from_rows(n: usize, rows: Vec<Vec<(usize, f64)>>) -> Result<Self, String> {
        if rows.len() != n {
            return Err(format!("policy has {} rows, expected {n}", rows.len()));
        }
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            let mut has_diag = false;
            for &(j, p) in row {
                if j >= n {
                    return Err(format!("policy row {i}: column {j} out of range"));
                }
                if prev.is_some_and(|q| q >= j) {
                    return Err(format!("policy row {i} not strictly ascending"));
                }
                if !(p.is_finite() && p >= 0.0) {
                    return Err(format!("policy row {i}: bad probability {p}"));
                }
                has_diag |= j == i;
                prev = Some(j);
            }
            if !has_diag {
                return Err(format!("policy row {i} is missing its diagonal entry"));
            }
        }
        Ok(Self { n, rows })
    }

    /// Re-indexes a policy over a compacted sub-fleet back to the `n`-node
    /// fleet: compact node `a` is fleet node `live[a]` (`live` ascending,
    /// so mapped rows stay ascending); every node outside `live` gets an
    /// identity row with no off-diagonal entries.
    pub fn expanded(&self, live: &[usize], n: usize) -> Self {
        let mut fleet = Self::identity(n);
        for (row, &i) in self.rows.iter().zip(live) {
            fleet.rows[i] = row.iter().map(|&(b, p)| (live[b], p)).collect();
        }
        fleet
    }

    /// Checkpoint form: `{n, rows: [[[j, p], ...], ...]}`.
    pub fn checkpoint(&self) -> Json {
        let row_json = |row: &Vec<(usize, f64)>| {
            Json::Arr(row.iter().map(|&(j, p)| Json::Arr(vec![j.to_json(), p.to_json()])).collect())
        };
        Json::obj([
            ("n", self.n.to_json()),
            ("rows", Json::Arr(self.rows.iter().map(row_json).collect())),
        ])
    }

    /// Rebuilds the policy of a `fleet`-node environment from
    /// [`SparsePolicy::checkpoint`] state. A policy of any other size,
    /// rows that break the invariants — and the retired dense-matrix
    /// layout, which has no `n` — are schema errors.
    pub fn restore(state: &Json, fleet: usize) -> Result<Self, JsonError> {
        let n = usize::from_json(state.field("n")?)?;
        if n != fleet {
            return Err(JsonError::schema(format!(
                "policy is for {n} nodes, environment has {fleet}"
            )));
        }
        let mut rows = Vec::new();
        for row_json in state.field("rows")?.as_arr()? {
            let mut row = Vec::new();
            for entry in row_json.as_arr()? {
                let [j, p] = entry.as_arr()? else {
                    return Err(JsonError::schema("policy entry must be [j, p]".into()));
                };
                row.push((usize::from_json(j)?, f64::from_json(p)?));
            }
            rows.push(row);
        }
        Self::from_rows(n, rows).map_err(JsonError::schema)
    }

    /// Draws node `i`'s choice for one iteration from its policy row
    /// (neighbours + self), walking the support in ascending column order.
    /// Mass a *stale* policy still assigns to a since-crashed peer is
    /// skipped — those draws fall through to the self-step tail, so no
    /// worker ever commits an iteration to a dead node (the next masked
    /// monitor round removes the mass entirely).
    pub fn sample_peer(&self, env: &mut Environment, i: usize) -> PeerChoice {
        let u: f64 = env.node_rng(i).gen();
        let mut acc = 0.0;
        for &(m, p) in &self.rows[i] {
            if p <= 0.0 || (m != i && !env.is_active(m)) {
                continue;
            }
            acc += p;
            if u < acc {
                return if m == i { PeerChoice::SelfStep } else { PeerChoice::Peer(m) };
            }
        }
        // Round-off tail (or mass stranded on dead peers): fall back to
        // self.
        PeerChoice::SelfStep
    }

    /// Converts a dense policy, keeping the topology-supported pattern:
    /// every non-zero off-diagonal plus every diagonal entry.
    pub fn from_dense(p: &Matrix) -> Self {
        let n = p.rows();
        assert_eq!(p.cols(), n, "policy must be square");
        let rows = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j == i || p[(i, j)] != 0.0)
                    .map(|j| (j, p[(i, j)]))
                    .collect()
            })
            .collect();
        Self { n, rows }
    }

    /// Expands to a dense matrix (reference comparisons and printing).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, p) in row {
                m[(i, j)] = p;
            }
        }
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for a zero-node fleet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `p_{i,m}`, or 0.0 outside the stored pattern.
    pub fn get(&self, i: usize, m: usize) -> f64 {
        match self.rows[i].binary_search_by_key(&m, |&(j, _)| j) {
            Ok(k) => self.rows[i][k].1,
            Err(_) => 0.0,
        }
    }

    /// Row `i` as ascending `(column, probability)` pairs, diagonal
    /// included — the exact order a dense row scan visits the support in.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// The self-selection probability `p_{i,i}`.
    pub fn self_p(&self, i: usize) -> f64 {
        self.get(i, i)
    }

    /// Sum of row `i`, accumulated in ascending-column order (identical to
    /// the dense row sum: absent columns contribute exactly `+0.0`).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.rows[i].iter().map(|&(_, p)| p).sum()
    }

    /// Total stored entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// A feasible policy produced by [`PolicyGenerator::generate_sparse`].
#[derive(Debug, Clone)]
pub struct SparsePolicyResult {
    /// The communication policy over the edge set.
    pub policy: SparsePolicy,
    /// The disagreement weight ρ to run consensus SGD with.
    pub rho: f64,
    /// Second-largest eigenvalue of `Y_P` for the chosen policy: exact
    /// (Jacobi) up to [`DENSE_CONTROL_THRESHOLD`] nodes, a bounded-effort
    /// power-iteration estimate above — [`SPARSE_L2_MAX_ITERS`] steps for
    /// this policy and for every candidate that could still have beaten
    /// it. On either side a candidate shown to have lost was dropped
    /// there, its λ₂ never computed.
    pub lambda2: f64,
    /// The target mean iteration time t̄ the LP was solved for.
    pub t_bar: f64,
    /// Estimated total convergence time `t̄ · ln ε / ln λ₂`.
    pub t_convergence: f64,
    /// Iterative-solver steps the sweep ran, summed over its candidates:
    /// Lanczos steps of the screen up to [`DENSE_CONTROL_THRESHOLD`]
    /// nodes, power-iteration steps above. With [`Self::exact_solves`], a
    /// function of the inputs alone: the machine-independent record of
    /// what the sweep cost.
    pub lambda2_iterations: u64,
    /// Jacobi solves the sweep paid for — the candidates the screen could
    /// not drop, incumbents and winner among them (0 past the threshold).
    pub exact_solves: u64,
}

/// One `(ρ, t̄)` point of the K × R grid.
#[derive(Clone, Copy)]
struct Candidate {
    /// Canonical position `(k − 1)·R + (r − 1)`: where Algorithm 3's
    /// row-major enumeration meets this candidate, whatever order the
    /// sweep visits it in.
    index: usize,
    rho: f64,
    t_bar: f64,
}

/// The sweep's incumbent. Scalars only: the row LPs are deterministic,
/// so the winner's policy is solved again once the sweep is over rather
/// than carried through it.
#[derive(Clone, Copy)]
struct Incumbent {
    candidate: Candidate,
    lambda2: f64,
    t_convergence: f64,
}

/// The order the production sweep visits the K × R grid in, as 1-based
/// `(k, r)`: the first t̄ column from the top ρ row down, then everything
/// else row-major — best first, for the reasons in the module docs.
fn best_first_order(outer_k: usize, inner_r: usize) -> Vec<(usize, usize)> {
    let first_column = (1..=outer_k).rev().map(|k| (k, 1));
    let rest = (1..=outer_k).flat_map(|k| (2..=inner_r).map(move |r| (k, r)));
    first_column.chain(rest).collect()
}

/// The Eq. (14) LP for one `(times, topology)` pair as its independent
/// per-node blocks — the one place the LP is written down.
///
/// Every coefficient row is fixed across the policy search's `(ρ, t̄)`
/// grid, so the blocks are built once and only the Eq. 11 lower bounds
/// and Eq. 10 right-hand sides are re-stamped per candidate — stamping
/// writes exactly the values per-candidate construction would.
struct PolicyLpTemplate {
    /// Block `i`: variables are node `i`'s out-edges in ascending
    /// neighbour order, then its diagonal (self-selection) variable — the
    /// same relative order as the joint LP's (edge block, then diag).
    blocks: Vec<LpProblem>,
}

impl PolicyLpTemplate {
    /// Builds the per-node constraint structure: in each block, row 0 is
    /// the Eq. 13 stochasticity row and row 1 the Eq. 10 time row.
    fn build(times: &EdgeTimes, topo: &Topology) -> Self {
        let blocks = (0..topo.len())
            .map(|i| {
                let nbrs = topo.neighbors(i);
                let diag = nbrs.len();
                let mut lp = LpProblem::new(diag + 1);
                // Objective: minimize p_{i,i} (the joint objective Σᵢ p_{i,i}
                // separates into these per-block terms).
                lp.set_objective(diag, 1.0);
                let mut sum_row = Vec::with_capacity(diag + 1);
                sum_row.push((diag, 1.0));
                let mut time_row = Vec::with_capacity(diag);
                for (v, &j) in nbrs.iter().enumerate() {
                    sum_row.push((v, 1.0));
                    time_row.push((v, times.get(i, j)));
                }
                // Eq. (13): Σₘ p_{i,m} = 1.
                lp.add_constraint(sum_row, 1.0);
                // Eq. (10): Σₘ t_{i,m} p_{i,m} d_{i,m} = M t̄ (rhs stamped).
                lp.add_constraint(time_row, 0.0);
                lp
            })
            .collect();
        Self { blocks }
    }

    /// Stamps one `(α, ρ, t̄)` candidate's lower bounds and right-hand
    /// sides into every block.
    fn stamp(&mut self, alpha: f64, rho: f64, t_bar: f64, topo: &Topology) {
        let m = topo.len();
        for (i, lp) in self.blocks.iter_mut().enumerate() {
            for (v, &j) in topo.neighbors(i).iter().enumerate() {
                // Eq. (11): p_{i,m} > αρ (d_{i,m} + d_{m,i}).
                lp.set_lower_bound(v, alpha * rho * (topo.d(i, j) + topo.d(j, i)) + POLICY_MARGIN);
            }
            lp.set_constraint_rhs(1, m as f64 * t_bar);
        }
    }

    /// Solves the stamped candidate. Returns `None` on the first
    /// infeasible block — exactly when the joint LP is infeasible.
    fn solve(&self, topo: &Topology, ws: &mut LpWorkspace) -> Option<SparsePolicy> {
        let m = topo.len();
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for (i, lp) in self.blocks.iter().enumerate() {
            let sol = solve_with(lp, ws).optimal()?;
            let nbrs = topo.neighbors(i);
            // Assemble the merged ascending row (diagonal in sorted
            // position) and normalise away solver round-off in the dense
            // column order, so rows are exactly stochastic and divide by
            // the sum a dense row scan would produce.
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(nbrs.len() + 1);
            for (v, &j) in nbrs.iter().enumerate() {
                row.push((j, sol.x[v].max(0.0)));
            }
            let at = row.partition_point(|&(j, _)| j < i);
            row.insert(at, (i, sol.x[nbrs.len()].max(0.0)));
            let s: f64 = row.iter().map(|&(_, p)| p).sum();
            debug_assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
            for e in &mut row {
                e.1 /= s;
            }
            rows.push(row);
        }
        Some(SparsePolicy { n: m, rows })
    }
}

/// Solves the LP of Eq. (14) for a fixed `(α, ρ, t̄)`, row by row over
/// the edge set.
///
/// The joint LP — variables `p_{i,m}` for every directed edge plus the
/// self-selection probabilities `p_{i,i}` — is block diagonal: row `i`'s
/// variables (its out-edges plus its diagonal) appear in exactly row
/// `i`'s two constraints and nowhere else. Under the two-phase
/// Bland's-rule simplex this makes the per-row solves **bit identical**
/// to the joint solve:
///
/// * reduced costs never couple across blocks, so a block's eligible
///   entering set is independent of other blocks' pivots;
/// * Bland's rule picks the smallest eligible index, which within a block
///   is the block's own smallest — the same choice the per-row solve
///   makes, because the relative variable order (edges ascending, then
///   the diagonal last, then the artificials) is preserved;
/// * ratio-test ties break on basis-variable index, and only same-block
///   rows can tie (other blocks have zero pivot-column entries);
/// * the phase-2 artificial price is `1 + max|c|·10⁶` with `max|c| = 1`
///   in both formulations.
///
/// Solving M tiny 2-row tableaus instead of one `2M`-row tableau cuts
/// every pivot from `O(M · M·deg)` to `O(deg)` work.
pub fn solve_policy_lp_rowwise(
    alpha: f64,
    rho: f64,
    t_bar: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<SparsePolicy> {
    assert_eq!(times.len(), topo.len(), "times/topology node count mismatch");
    let mut template = PolicyLpTemplate::build(times, topo);
    template.stamp(alpha, rho, t_bar, topo);
    template.solve(topo, &mut LpWorkspace::new())
}

/// `Σₘ t_{i,m} (d_{i,m} + d_{m,i})` over row `i`'s edges — the Eq. 26
/// row term both sweep bounds scale.
fn row_exchange_time(times: &EdgeTimes, topo: &Topology, i: usize) -> f64 {
    times.row(i).iter().map(|&(j, t)| t * (topo.d(i, j) + topo.d(j, i))).sum()
}

/// `U = minᵢ (1/M) maxₘ t_{i,m} d_{i,m}` (Eq. 28).
fn t_bar_upper(times: &EdgeTimes, topo: &Topology) -> f64 {
    let mf = topo.len() as f64;
    (0..topo.len())
        .map(|i| {
            (1.0 / mf)
                * times.row(i).iter().map(|&(j, t)| t * topo.d(i, j)).fold(0.0f64, f64::max)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Upper bound of the feasible ρ interval swept by the outer loop.
///
/// Appendix A bounds ρ by 0.5/α. Two further caps keep every outer
/// candidate *feasible* (the paper sweeps [0, 0.5/α] blindly, which under
/// a severely slowed link makes L(ρ) ≥ U for every candidate and stalls
/// the policy exactly when adaptation matters most):
///
/// 1. Eq. 26 vs Eq. 28 — L(ρ) = ρ · maxᵢ (α/M) Σₘ t_{i,m}(d+d) must
///    stay below U, giving ρ < U / maxᵢ (α/M) Σₘ t_{i,m}(d+d).
/// 2. Eq. 11 row mass — Σₘ αρ(d+d) ≤ 1 needs ρ ≤ 1/(2α·deg).
///
/// Returns `None` when the interval is empty or ill-defined.
/// Float-identical to the dense reference
/// [`crate::policy::rho_upper_bound`] (absent pairs contribute exactly
/// `+0.0` to the row reductions).
pub fn rho_upper_bound_sparse(alpha: f64, times: &EdgeTimes, topo: &Topology) -> Option<f64> {
    let m = topo.len();
    let mf = m as f64;
    let u_time = t_bar_upper(times, topo);
    let l_coef = (0..m)
        .map(|i| (alpha / mf) * row_exchange_time(times, topo, i))
        .fold(0.0f64, f64::max);
    let max_deg = (0..m).map(|i| topo.degree(i)).max().unwrap_or(1) as f64;
    let mut u_rho = 0.5 / alpha;
    if l_coef > 0.0 {
        u_rho = u_rho.min(0.95 * u_time / l_coef);
    }
    u_rho = u_rho.min(0.95 / (2.0 * alpha * max_deg));
    if u_rho > 0.0 && u_rho.is_finite() {
        Some(u_rho)
    } else {
        None
    }
}

/// The `[L, U]` interval the inner loop sweeps t̄ over for a fixed ρ:
/// `L = maxᵢ (αρ/M) Σₘ t_{i,m}(d_{i,m}+d_{m,i})` (Eq. 26) and
/// `U = minᵢ (1/M) maxₘ t_{i,m} d_{i,m}` (Eq. 28). `None` when empty.
/// Float-identical to the dense reference [`crate::policy::t_bar_bounds`].
pub fn t_bar_bounds_sparse(
    alpha: f64,
    rho: f64,
    times: &EdgeTimes,
    topo: &Topology,
) -> Option<(f64, f64)> {
    let m = topo.len();
    let mf = m as f64;
    let lower = (0..m)
        .map(|i| (alpha * rho / mf) * row_exchange_time(times, topo, i))
        .fold(f64::NEG_INFINITY, f64::max);
    let upper = t_bar_upper(times, topo);
    if lower.is_finite() && upper.is_finite() && upper > lower {
        Some((lower, upper))
    } else {
        None
    }
}

impl PolicyGenerator {
    /// Runs `GENERATEPOLICYMATRIX(α, K, R, T)` (Algorithm 3) over the edge
    /// set: a grid of K values of ρ over `(0, U_ρ]` by R values of t̄ over
    /// each row's `(L, U]`; each candidate's LP is solved row-wise, its
    /// `Y_P` scored by λ₂, and the candidate with minimal
    /// `T_convergence = t̄ · ln ε / ln λ₂` wins (the first such in the
    /// algorithm's row-major enumeration — though the grid is visited
    /// best first, see the module docs).
    ///
    /// Returns `None` when no (ρ, t̄) pair admits a feasible LP — the
    /// caller (Network Monitor) then keeps the previous policy.
    ///
    /// # Panics
    /// Panics if `times` does not match the topology's node count or the
    /// topology is disconnected.
    pub fn generate_sparse(
        &self,
        times: &EdgeTimes,
        topo: &Topology,
    ) -> Option<SparsePolicyResult> {
        self.sweep(times, topo, &best_first_order(self.cfg.outer_k, self.cfg.inner_r))
    }

    /// The sweep behind [`Self::generate_sparse`], visiting the grid's
    /// `(k, r)` candidates (1-based ρ row and t̄ column) in `order`. The
    /// order decides what the sweep costs and nothing else: the incumbent
    /// is the minimum under `(T_convergence, canonical index)`, a total
    /// order on candidates, and a candidate is dropped only once it is
    /// shown strictly above some incumbent.
    fn sweep(
        &self,
        times: &EdgeTimes,
        topo: &Topology,
        order: &[(usize, usize)],
    ) -> Option<SparsePolicyResult> {
        let m = topo.len();
        assert_eq!(times.len(), m, "iteration-time edge list shape mismatch");
        assert!(topo.is_connected(), "Assumption 1 requires a connected graph");

        let alpha = self.cfg.alpha;
        let (outer_k, inner_r) = (self.cfg.outer_k, self.cfg.inner_r);
        let u_rho = rho_upper_bound_sparse(alpha, times, topo)?;
        let delta_rho = u_rho / outer_k as f64;
        // Row k's t̄ grid as (L, Δ): the bounds are a pass over the edge
        // set, taken once per ρ row however the order interleaves rows.
        let t_bar_grid: Vec<Option<(f64, f64)>> = (1..=outer_k)
            .map(|k| {
                let (lower, upper) = t_bar_bounds_sparse(alpha, k as f64 * delta_rho, times, topo)?;
                Some((lower, (upper - lower) / inner_r as f64))
            })
            .collect();

        // The K·R candidate LPs share every coefficient row, so the
        // template and solver workspace are built once and re-stamped per
        // candidate; feasible policies fire uniformly (Lemma 1).
        let mut template = PolicyLpTemplate::build(times, topo);
        let mut ws = LpWorkspace::new();
        let p_node = vec![1.0 / m as f64; m];

        let mut best: Option<Incumbent> = None;
        let mut screen = LanczosScreen::new();
        let mut lanes: Option<LaneSweep> = None;
        let (mut lambda2_iterations, mut exact_solves) = (0u64, 0u64);
        for &(k, r) in order {
            // A row whose t̄ interval is empty holds no candidate.
            let Some(&Some((lower, delta))) = t_bar_grid.get(k - 1) else {
                continue;
            };
            let candidate = Candidate {
                index: (k - 1) * inner_r + (r - 1),
                rho: k as f64 * delta_rho,
                t_bar: lower + r as f64 * delta,
            };
            template.stamp(alpha, candidate.rho, candidate.t_bar, topo);
            let Some(policy) = template.solve(topo, &mut ws) else {
                continue;
            };
            let y_p = || y_entries(&policy, topo, &p_node, alpha, candidate.rho);
            debug_assert!(
                rows_sum_to_one(m, y_p()),
                "feasible policy must give doubly stochastic Y (Lemma 1)"
            );
            if m <= DENSE_CONTROL_THRESHOLD {
                let y = build_y_sparse(&policy, topo, &p_node, alpha, candidate.rho);
                // Only a candidate the screen cannot show above the
                // ceiling pays for its exact λ₂ — and every candidate
                // while there is no incumbent to lose to.
                if let Some(ceiling) = self.ceiling(&candidate, best) {
                    let screened = screen.screen(&y, ceiling);
                    lambda2_iterations += screened.steps as u64;
                    if screened.exceeds {
                        continue;
                    }
                }
                exact_solves += 1;
                self.consider(&mut best, candidate, second_largest_eigenvalue(&y.to_dense()));
                continue;
            }
            // Every candidate's Y_P has the topology's pattern, so the
            // lanes are laid out over the first and kept for the sweep.
            let sweep = lanes.get_or_insert_with(|| LaneSweep {
                lanes: PowerLanes::for_pattern(
                    m,
                    y_p().map(|(i, j, _)| (i, j)),
                    SPARSE_L2_MAX_ITERS,
                    SPARSE_L2_TOL,
                ),
                held: [None; SWEEP_LANES],
            });
            // The candidate takes the first lane to free up, under the
            // incumbent of that step.
            let lane = loop {
                if let Some(lane) = sweep.lanes.free_lane() {
                    break lane;
                }
                lambda2_iterations += self.retire(sweep, &mut best);
            };
            let ceiling = self.ceiling(&candidate, best).unwrap_or(f64::INFINITY);
            sweep.lanes.load_lane(lane, y_p(), ceiling);
            if let Some(held) = sweep.held.get_mut(lane) {
                *held = Some(candidate);
            }
        }
        if let Some(sweep) = &mut lanes {
            while sweep.held.iter().any(Option::is_some) {
                lambda2_iterations += self.retire(sweep, &mut best);
            }
        }

        let Incumbent { candidate: Candidate { rho, t_bar, .. }, lambda2, t_convergence } = best?;
        template.stamp(alpha, rho, t_bar, topo);
        let policy = template.solve(topo, &mut ws)?;
        Some(SparsePolicyResult {
            policy,
            rho,
            lambda2,
            t_bar,
            t_convergence,
            lambda2_iterations,
            exact_solves,
        })
    }

    /// Scores one candidate against the incumbent: the minimal
    /// `T_convergence` wins, and among equals the lowest canonical index —
    /// the first of them a row-major sweep meets — whichever is offered
    /// first.
    fn consider(&self, best: &mut Option<Incumbent>, candidate: Candidate, lambda2: f64) {
        if lambda2 >= 1.0 - 1e-12 || lambda2 <= 0.0 {
            return;
        }
        // T_convergence = t̄ · ln ε / ln λ₂  (both logs negative).
        let t_convergence = candidate.t_bar * self.cfg.epsilon.ln() / lambda2.ln();
        if best.is_none_or(|b| {
            t_convergence < b.t_convergence
                || (t_convergence == b.t_convergence && candidate.index < b.candidate.index)
        }) {
            *best = Some(Incumbent { candidate, lambda2, t_convergence });
        }
    }

    /// The λ₂ at which `candidate`'s `T_convergence` would equal the
    /// incumbent's, plus the guard band: a λ₂ above it has lost. `None`
    /// while there is no incumbent to lose to.
    fn ceiling(&self, candidate: &Candidate, best: Option<Incumbent>) -> Option<f64> {
        best.map(|b| {
            (candidate.t_bar * self.cfg.epsilon.ln() / b.t_convergence).exp() + ABANDON_GUARD
        })
    }

    /// Steps the lanes until one stops and scores what stopped: a finished
    /// lane is offered to the incumbent, and a new incumbent moves every
    /// running lane's ceiling down to it. Returns the power steps the
    /// stopped lanes took.
    fn retire(&self, sweep: &mut LaneSweep, best: &mut Option<Incumbent>) -> u64 {
        let before = best.map(|b| b.candidate.index);
        let mut steps = 0;
        for (outcome, held) in sweep.lanes.advance().into_iter().zip(&mut sweep.held) {
            let (Some(outcome), Some(candidate)) = (outcome, *held) else {
                continue;
            };
            *held = None;
            steps += match outcome {
                LaneOutcome::Finished(power) => {
                    self.consider(best, candidate, power.eigenvalue);
                    power.iterations
                }
                // Its λ₂ would have ended above the ceiling: it had lost.
                LaneOutcome::Abandoned { iterations } => iterations,
            } as u64;
        }
        if best.map(|b| b.candidate.index) != before {
            for (lane, held) in sweep.held.iter().enumerate() {
                if let Some(ceiling) = held.and_then(|c| self.ceiling(&c, *best)) {
                    sweep.lanes.set_ceiling(lane, ceiling);
                }
            }
        }
        steps
    }
}

/// The power lanes of a sweep past the eigensolver threshold and the
/// candidate each lane is scoring.
struct LaneSweep {
    lanes: PowerLanes<SWEEP_LANES>,
    held: [Option<Candidate>; SWEEP_LANES],
}

/// Whether every row of the `m`-row matrix `entries` lists sums to 1.
fn rows_sum_to_one(m: usize, entries: impl Iterator<Item = (usize, usize, f64)>) -> bool {
    let mut sums = vec![0.0; m];
    for (i, _, v) in entries {
        if let Some(sum) = sums.get_mut(i) {
            *sum += v;
        }
    }
    sums.iter().all(|s: &f64| (s - 1.0).abs() < 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{solve_policy_lp, PolicySearchConfig};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn hetero_times_dense(m: usize, fast: f64, slow: f64) -> Matrix {
        let mut t = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    t[(i, j)] = if (i, j) == (0, 1) || (i, j) == (1, 0) { fast } else { slow };
                }
            }
        }
        t
    }

    /// Eq. (14) written as the paper states it: **one** LP over every
    /// directed edge variable (row-major) followed by the M diagonal
    /// variables, with each node's Eq. 13 and Eq. 10 rows. Test-only
    /// oracle for the block decomposition.
    fn solve_joint_lp(
        alpha: f64,
        rho: f64,
        t_bar: f64,
        times: &Matrix,
        topo: &Topology,
    ) -> Option<Matrix> {
        let m = topo.len();
        let edges: Vec<(usize, usize)> =
            (0..m).flat_map(|i| topo.neighbors(i).iter().map(move |&j| (i, j))).collect();
        let mut lp = LpProblem::new(edges.len() + m);
        for (v, &(i, j)) in edges.iter().enumerate() {
            lp.set_lower_bound(v, alpha * rho * (topo.d(i, j) + topo.d(j, i)) + POLICY_MARGIN);
        }
        for i in 0..m {
            let diag = edges.len() + i;
            lp.set_objective(diag, 1.0);
            let mut sum_row = vec![(diag, 1.0)];
            let mut time_row = Vec::new();
            for (v, &(a, j)) in edges.iter().enumerate() {
                if a == i {
                    sum_row.push((v, 1.0));
                    time_row.push((v, times[(i, j)]));
                }
            }
            lp.add_constraint(sum_row, 1.0);
            lp.add_constraint(time_row, m as f64 * t_bar);
        }
        let sol = crate::lp::solve(&lp).optimal()?;
        let mut p = Matrix::zeros(m, m);
        for (v, &(i, j)) in edges.iter().enumerate() {
            p[(i, j)] = sol.x[v].max(0.0);
        }
        for i in 0..m {
            p[(i, i)] = sol.x[edges.len() + i].max(0.0);
            let s = p.row_sum(i);
            for j in 0..m {
                p[(i, j)] /= s;
            }
        }
        Some(p)
    }

    #[test]
    fn rowwise_lp_matches_the_joint_lp_exactly() {
        let (alpha, rho) = (0.05, 1.0);
        let full = Topology::fully_connected(5);
        let ring = Topology::ring(6);
        let mut ring_times = Matrix::zeros(6, 6);
        for i in 0..6 {
            for &j in ring.neighbors(i) {
                ring_times[(i, j)] = 0.5 + 0.1 * i as f64 + 0.05 * j as f64;
            }
        }
        for (topo, dense_times) in [(&full, hetero_times_dense(5, 0.2, 1.5)), (&ring, ring_times)] {
            let times = EdgeTimes::from_dense(&dense_times, topo);
            let (lower, upper) = t_bar_bounds_sparse(alpha, rho, &times, topo).expect("bounds");
            let t_bar = 0.5 * (lower + upper);
            let joint =
                solve_joint_lp(alpha, rho, t_bar, &dense_times, topo).expect("joint feasible");
            let rowwise = solve_policy_lp_rowwise(alpha, rho, t_bar, &times, topo)
                .expect("rowwise feasible");
            assert_eq!(rowwise.to_dense().as_slice(), joint.as_slice(), "bit-exact equivalence");
            // The dense-signature face is the same solve.
            let dense = solve_policy_lp(alpha, rho, t_bar, &dense_times, topo).expect("feasible");
            assert_eq!(dense.as_slice(), joint.as_slice());
        }
    }

    #[test]
    fn sweep_bounds_match_dense_exactly() {
        let topo = Topology::ring(8);
        let mut dense_times = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                if topo.is_edge(i, j) {
                    dense_times[(i, j)] = 0.3 + 0.1 * (i as f64) + 0.05 * (j as f64);
                }
            }
        }
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let alpha = 0.05;
        let d = crate::policy::rho_upper_bound(alpha, &dense_times, &topo).unwrap();
        let s = rho_upper_bound_sparse(alpha, &times, &topo).unwrap();
        assert_eq!(d, s);
        let (dl, du) = crate::policy::t_bar_bounds(alpha, d * 0.5, &dense_times, &topo).unwrap();
        let (sl, su) = t_bar_bounds_sparse(alpha, s * 0.5, &times, &topo).unwrap();
        assert_eq!(dl, sl);
        assert_eq!(du, su);
    }

    #[test]
    fn generate_sparse_produces_feasible_policy() {
        let topo = Topology::fully_connected(4);
        let dense_times = hetero_times_dense(4, 0.1, 1.0);
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let res = gen.generate_sparse(&times, &topo).expect("feasible");
        for i in 0..4 {
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-9, "row {i} not stochastic");
        }
        assert!(res.lambda2 > 0.0 && res.lambda2 < 1.0);
        assert!(res.t_convergence > 0.0 && res.rho > 0.0);
    }

    #[test]
    fn generate_sparse_equals_the_dense_reference_exactly() {
        // Below the eigensolver threshold the two formulations share no
        // approximation: same grid, same LP, same Y_P, same Jacobi — so
        // the selected candidate and its λ₂ must agree to the last bit.
        // (The registry-wide version lives in `lp_equivalence.rs`.)
        let topo = Topology::fully_connected(6);
        let mut dense_times = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    dense_times[(i, j)] = if (i / 3) == (j / 3) { 0.1 } else { 1.0 };
                }
            }
        }
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let dense = gen.generate(&dense_times, &topo).expect("dense feasible");
        let sparse = gen.generate_sparse(&times, &topo).expect("sparse feasible");
        assert_eq!(sparse.policy.to_dense().as_slice(), dense.policy.as_slice());
        assert_eq!(
            (sparse.rho, sparse.t_bar, sparse.lambda2, sparse.t_convergence),
            (dense.rho, dense.t_bar, dense.lambda2, dense.t_convergence)
        );
    }

    /// `lp_equivalence.rs`'s link times (the sweep's order-parametrised
    /// core is private, so its table is rebuilt here): a slow tier on
    /// about a fifth of the directed edges, jitter on all of them.
    fn seeded_times(topo: &Topology, seed: u64) -> EdgeTimes {
        let n = topo.len();
        EdgeTimes::from_fn(topo, |i, j| {
            let mut z = (seed << 32 | (i * n + j) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            if z.is_multiple_of(5) {
                1.0 + 2.0 * u
            } else {
                0.1 + 0.3 * u
            }
        })
    }

    fn ring_with_chords(n: usize, stride: usize) -> Topology {
        let mut topo = Topology::ring(n);
        for i in (0..n).step_by(stride) {
            topo.set_edge(i, (i + n / 2) % n, true);
        }
        topo
    }

    fn row_major_order(outer_k: usize, inner_r: usize) -> Vec<(usize, usize)> {
        (1..=outer_k).flat_map(|k| (1..=inner_r).map(move |r| (k, r))).collect()
    }

    /// Everything a search selects, as bits.
    fn selected(res: &SparsePolicyResult) -> (Vec<u64>, [u64; 4]) {
        let policy = (0..res.policy.len())
            .flat_map(|i| res.policy.row(i).iter().map(|&(_, p)| p.to_bits()))
            .collect();
        (policy, [res.rho, res.t_bar, res.lambda2, res.t_convergence].map(f64::to_bits))
    }

    #[test]
    fn production_order_opens_with_the_first_column_from_the_top_row() {
        assert_eq!(
            best_first_order(3, 3),
            [(3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
        );
        let mut sorted = best_first_order(10, 10);
        sorted.sort_unstable();
        assert_eq!(sorted, row_major_order(10, 10));
    }

    #[test]
    fn the_selection_does_not_depend_on_the_visit_order() {
        // `lp_equivalence.rs`'s fabrics × seeds on either side of the
        // eigensolver switch. Row-major is Algorithm 3 as written and what
        // the equivalence suites' reference walks; production, the
        // enumeration reversed and a seeded shuffle of it must select the
        // same bits, and production must not cost more than row-major.
        let fabrics = [
            Topology::fully_connected(8),
            Topology::fully_connected(16),
            Topology::ring(8),
            Topology::ring(33),
            Topology::star(9, 0),
            Topology::torus(4, 4),
            Topology::torus(6, 6),
            Topology::torus(8, 8),
            ring_with_chords(64, 4),
            Topology::random_connected(20, 0.15, 3),
            Topology::random_connected(48, 0.06, 7),
            Topology::random_connected(64, 0.05, 11),
            // Past the threshold: the lanes.
            Topology::torus(8, 9),
            Topology::torus(10, 10),
            ring_with_chords(70, 7),
            Topology::random_connected(96, 0.03, 9),
        ];
        let lax = PolicySearchConfig {
            outer_k: 6,
            inner_r: 2,
            epsilon: 0.5,
            ..PolicySearchConfig::new(0.02)
        };
        let searches = [PolicySearchConfig::new(0.05), PolicySearchConfig::new(0.1), lax];
        // (exact solves, lane steps), summed over the table.
        let (mut row_major_cost, mut production_cost) = ((0, 0), (0, 0));
        for topo in &fabrics {
            let lane_side = topo.len() > DENSE_CONTROL_THRESHOLD;
            for seed in 0..3u64 {
                let times = seeded_times(topo, seed);
                for cfg in &searches {
                    let gen = PolicyGenerator::new(cfg.clone());
                    let row_major = row_major_order(cfg.outer_k, cfg.inner_r);
                    let reversed: Vec<_> = row_major.iter().rev().copied().collect();
                    let mut shuffled = row_major.clone();
                    shuffled.shuffle(&mut StdRng::seed_from_u64(seed));

                    let reference = gen.sweep(&times, topo, &row_major).expect("feasible");
                    // Production's order through production's door.
                    let production = gen.generate_sparse(&times, topo).expect("feasible");
                    let reversed = gen.sweep(&times, topo, &reversed).expect("feasible");
                    let shuffled = gen.sweep(&times, topo, &shuffled).expect("feasible");
                    for res in [&production, &reversed, &shuffled] {
                        assert_eq!(
                            selected(res),
                            selected(&reference),
                            "n = {}, seed {seed}, K = {}, α = {}",
                            topo.len(),
                            cfg.outer_k,
                            cfg.alpha
                        );
                    }
                    for (cost, res) in
                        [(&mut row_major_cost, &reference), (&mut production_cost, &production)]
                    {
                        cost.0 += res.exact_solves;
                        cost.1 += if lane_side { res.lambda2_iterations } else { 0 };
                    }
                }
            }
        }
        assert!(
            production_cost.0 <= row_major_cost.0 && production_cost.1 <= row_major_cost.1,
            "best first cost {production_cost:?}, row-major {row_major_cost:?}"
        );
    }

    #[test]
    fn equal_scores_keep_the_lower_canonical_index() {
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let at = |index| Candidate { index, rho: 0.5, t_bar: 0.2 };
        for offered in [[7, 3], [3, 7]] {
            let mut best = None;
            for index in offered {
                gen.consider(&mut best, at(index), 0.9);
            }
            assert_eq!(best.map(|b| b.candidate.index), Some(3), "offered {offered:?}");
        }
        // A strictly better score wins from any index.
        let mut best = None;
        gen.consider(&mut best, at(3), 0.9);
        gen.consider(&mut best, at(7), 0.8);
        assert_eq!(best.map(|b| b.candidate.index), Some(7));
    }

    #[test]
    fn policy_checkpoint_round_trips() {
        let topo = Topology::ring(5);
        let times = EdgeTimes::from_fn(&topo, |i, _| 1.0 + 0.1 * i as f64);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        let p = gen.generate_sparse(&times, &topo).expect("feasible").policy;
        assert_eq!(SparsePolicy::restore(&p.checkpoint(), 5).expect("restore"), p);
    }

    #[test]
    fn policy_restore_rejects_malformed_and_retired_documents() {
        // Each malformed row used to reach `from_rows`' asserts and abort
        // the restoring process.
        let bad = [
            (r#"{"n": 2, "rows": [[[0, 1.0]], [[1, 0.5], [2, 0.5]]]}"#, "out of range"),
            (r#"{"n": 2, "rows": [[[1, 0.5], [0, 0.5]], [[1, 1.0]]]}"#, "not strictly ascending"),
            (r#"{"n": 2, "rows": [[[0, 0.5], [0, 0.5]], [[1, 1.0]]]}"#, "not strictly ascending"),
            (r#"{"n": 2, "rows": [[[1, 1.0]], [[1, 1.0]]]}"#, "missing its diagonal"),
            (r#"{"n": 2, "rows": [[[0, -0.5], [1, 1.5]], [[1, 1.0]]]}"#, "bad probability"),
            (r#"{"n": 3, "rows": [[[0, 1.0]], [[1, 1.0]]]}"#, "expected 3"),
            (r#"{"n": 1, "rows": [[[0]]]}"#, "[j, p]"),
            // The dense-matrix layout NetMax and AD-PSGD+Monitor used to
            // write at n ≤ 64.
            (r#"{"rows": 2, "cols": 2, "data": [0.5, 0.5, 0.5, 0.5]}"#, "missing field `n`"),
        ];
        for (doc, needle) in bad {
            let state = Json::parse(doc).expect("test document parses");
            let fleet = state.get("n").map_or(Ok(2), usize::from_json).expect("test n");
            let err = SparsePolicy::restore(&state, fleet).expect_err(doc).to_string();
            assert!(err.contains(needle), "{doc}: {err}");
        }
        // Sound in itself, but another fleet's: `sample_peer` would index
        // past its rows, or steer a worker to a node that does not exist.
        let other = SparsePolicy::identity(3).checkpoint();
        for fleet in [2, 4] {
            let err = SparsePolicy::restore(&other, fleet).expect_err("size").to_string();
            assert!(err.contains("policy is for 3 nodes"), "{err}");
        }
    }

    #[test]
    fn sparse_policy_round_trips_through_dense() {
        let topo = Topology::ring(6);
        let dense_times = {
            let mut t = Matrix::zeros(6, 6);
            for i in 0..6 {
                for j in 0..6 {
                    if topo.is_edge(i, j) {
                        t[(i, j)] = 1.0;
                    }
                }
            }
            t
        };
        let times = EdgeTimes::from_dense(&dense_times, &topo);
        // t̄ must land inside (L, U) = (αρ·2·2/6, 1/6) for this ring.
        let p = solve_policy_lp_rowwise(0.05, 1.0, 0.12, &times, &topo).expect("feasible");
        let back = SparsePolicy::from_dense(&p.to_dense());
        assert_eq!(p, back);
        // Non-edges carry no mass.
        assert_eq!(p.get(0, 2), 0.0);
        assert_eq!(p.get(0, 3), 0.0);
        assert!(p.self_p(0) >= 0.0);
    }

    #[test]
    fn identity_policy_shape() {
        let p = SparsePolicy::identity(3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.get(1, 1), 1.0);
        assert_eq!(p.get(1, 2), 0.0);
        assert_eq!(p.row_sum(2), 1.0);
    }

    #[test]
    fn scale_smoke_generate_on_large_ring() {
        // A coarse search on a 128-ring — past the eigensolver threshold,
        // so nothing n² is ever built — completes quickly and yields a
        // stochastic policy.
        let n = 128;
        let topo = Topology::ring(n);
        let times = EdgeTimes::from_fn(&topo, |i, j| 0.5 + 0.01 * ((i + j) % 7) as f64);
        let gen = PolicyGenerator::new(PolicySearchConfig {
            alpha: 0.05,
            outer_k: 3,
            inner_r: 3,
            epsilon: 0.01,
        });
        let res = gen.generate_sparse(&times, &topo).expect("feasible at scale");
        for i in 0..n {
            assert!((res.policy.row_sum(i) - 1.0).abs() < 1e-9);
            assert!(res.policy.row(i).len() <= 3, "ring rows have ≤ 2 edges + diag");
        }
    }
}
