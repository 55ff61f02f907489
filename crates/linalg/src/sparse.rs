//! Sparse symmetric matrices and the sparse λ₂ solver.
//!
//! The dense Jacobi path in [`crate::eig`] is exact but O(n²) in storage
//! and O(n³) in time — fine for the paper's 8–16 workers, a dead end at
//! n = 4096. The policy search only ever builds `Y_P` over the live edge
//! set of a sparse fabric (torus, random-connected), so this module stores
//! exactly those nonzeros and estimates λ₂ with deflated power iteration.
//!
//! ## Why the `(Y + I)/2` shift
//!
//! Power iteration finds the eigenvalue of **largest magnitude** on the
//! deflated subspace. `Y_P`'s spectrum lives in `[-1, 1]`, so a strongly
//! negative eigenvalue near −1 could masquerade as λ₂. Iterating on
//! `B = (Y + I)/2` maps the spectrum affinely to `[0, 1]` — order
//! preserved, eigenvectors unchanged — so the dominant deflated eigenvalue
//! of `B` is exactly `(1 + λ₂)/2`, and `λ₂ = 2μ − 1` is sign-safe.
//! Near-degenerate λ₂ ≈ λ₃ pairs are benign: any mixture of their
//! eigenvectors has a Rayleigh quotient within the pair's spread, which is
//! all the policy search needs to rank candidates.
//!
//! ## Why the shift makes the estimate monotone
//!
//! The shift also makes `B` positive semidefinite, and it commutes with
//! the deflation (`B·1 = 1`), so every iterate stays in the subspace
//! where `B`'s spectrum is `[0, (1 + λ₂)/2]`. On a positive-semidefinite
//! operator a power step never lowers the Rayleigh quotient (expand the
//! iterate in eigenvectors: the step re-weights them by their own
//! non-negative eigenvalues, towards the larger). The running estimate
//! `2μ − 1` therefore only climbs towards λ₂: once it has passed some
//! ceiling, the value the lane would have ended on — at the cap or on
//! convergence — lies above that ceiling too. That is what lets a caller
//! ranking matrices by an increasing function of λ₂ (the policy search's
//! `T_convergence`) stop a lane early. In floats consecutive quotients
//! can dip by their own rounding, about `n·ε`; the caller's ceiling must
//! carry a guard band wider than that (the `power_lanes` suite bounds the
//! dip at 1e-13 on its graphs; the search uses 1e-9).
//!
//! ## Why lanes
//!
//! One power step is a sparse product and three length-`n` reductions —
//! the mean the deflation subtracts, the norm, the Rayleigh quotient —
//! and each reduction is a chain of dependent additions the CPU cannot
//! overlap, so a single iteration is bound by add latency, not by
//! arithmetic. The policy search scores many `Y_P` over **one** sparsity
//! pattern (the topology's edges plus the diagonal), so [`PowerLanes`]
//! advances `L` of them in lock step: columns stored once in flat CSR
//! form, values and iterates lane-major (`[f64; L]` per entry), every
//! reduction `L` independent chains side by side in one vector register.
//! Lanes never mix — lane `l` of every sum sees exactly the terms, in
//! exactly the order, a single iteration on that matrix would — so the
//! result of a lane is bit-identical whatever its neighbours hold, and
//! [`second_largest_eigenvalue_sparse`] is simply the kernel with one
//! lane. Each step applies `B` once: the product that closes step `k`'s
//! Rayleigh quotient is, operation for operation, the product step
//! `k + 1` would open with, so it is carried over.
//!
//! ## Why not the lanes below the eigensolver threshold
//!
//! Up to 64 nodes the policy search scores with Jacobi and screens with
//! [`crate::lanczos`], although a lane's monotone estimate is a lower
//! bound on λ₂ just as a Ritz value is. The reason is the spectrum. The
//! search's `Y_P` is `I` minus a small multiple of a weighted Laplacian:
//! on the 8×8 torus of the equivalence table `1 − λ₂` runs from 1.4·10⁻⁵
//! to 1.6·10⁻⁴ over the default grid, so the eigenvalues of `B` next to
//! its largest sit within 10⁻⁴ of it and one power step shrinks the
//! unwanted components by a factor that close to 1. Measured on that sweep
//! (two seeds, 151 dropped candidates): the ceilings the Lanczos screen
//! crosses after 2–27 steps (median 5–6) take a lane 5 800 to more than
//! 260 000 steps (median 19 600) — past the sweep's 5 000-step cap, at
//! which a lane has proved nothing. Lanczos is invariant under the shift
//! and converges in the *relative* spread of the spectrum; a power
//! iteration pays for the absolute one. Past the threshold the lanes are
//! not a screen at all: the capped estimate *is* the score.

use crate::eig::{splitmix_start, PowerIterationResult};
use crate::matrix::Matrix;

/// A symmetric `n × n` matrix stored as per-row nonzero lists.
///
/// Rows keep their `(column, value)` entries in **ascending column
/// order**, so a matvec accumulates terms in the same order as a dense
/// row scan restricted to the nonzeros — which is what makes the sparse
/// and dense paths agree bit-for-bit when the dense matrix is zero
/// outside the stored pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSymmetric {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseSymmetric {
    /// Creates an `n × n` all-zero matrix (no stored entries).
    pub fn zeros(n: usize) -> Self {
        Self { n, rows: vec![Vec::new(); n] }
    }

    /// Builds a matrix from explicit per-row `(column, value)` lists.
    ///
    /// # Panics
    /// Panics if a row's columns are out of range or not strictly
    /// ascending. Symmetry of the stored pattern is the caller's
    /// responsibility and is checked in debug builds.
    pub fn from_rows(rows: Vec<Vec<(usize, f64)>>) -> Self {
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            let mut prev = None;
            for &(j, _) in row {
                assert!(j < n, "row {i}: column {j} out of range");
                assert!(prev.is_none_or(|p| p < j), "row {i}: columns must be strictly ascending");
                prev = Some(j);
            }
        }
        let m = Self { n, rows };
        debug_assert!(m.is_pattern_symmetric(), "stored pattern is not symmetric");
        m
    }

    /// Sets `a[i][j]` (and `a[j][i]` for `i ≠ j`), inserting or updating
    /// the stored entry. Zero values are stored too — the pattern, not
    /// the value, defines the structure.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "set: index out of range");
        for (r, c) in [(i, j), (j, i)] {
            match self.rows[r].binary_search_by_key(&c, |&(col, _)| col) {
                Ok(pos) => self.rows[r][pos].1 = v,
                Err(pos) => self.rows[r].insert(pos, (c, v)),
            }
            if i == j {
                break;
            }
        }
    }

    /// The stored value at `(i, j)`, or `0.0` when outside the pattern.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.rows[i]
            .binary_search_by_key(&j, |&(col, _)| col)
            .map_or(0.0, |pos| self.rows[i][pos].1)
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate 0 × 0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored entries (both triangles plus the diagonal).
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The nonzero entries of row `i` in ascending column order.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }

    /// Extracts the sparse pattern-and-values of a dense symmetric matrix
    /// (entries exactly equal to `0.0` are dropped).
    pub fn from_dense(a: &Matrix) -> Self {
        assert!(a.is_square(), "from_dense: matrix must be square");
        let n = a.rows();
        let rows = (0..n)
            .map(|i| (0..n).filter(|&j| a[(i, j)] != 0.0).map(|j| (j, a[(i, j)])).collect())
            .collect();
        Self { n, rows }
    }

    /// Expands back to a dense matrix (small-n tests and oracles).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                m[(i, j)] = v;
            }
        }
        m
    }

    fn is_pattern_symmetric(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, row)| {
            row.iter().all(|&(j, v)| (self.get(j, i) - v).abs() <= 1e-9 * (1.0 + v.abs()))
        })
    }
}

/// What became of one lane of a [`PowerLanes::run_lanes`] batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOutcome {
    /// The lane met its tolerance or the iteration cap: exactly what
    /// [`second_largest_eigenvalue_sparse`] returns for that matrix alone.
    Finished(PowerIterationResult),
    /// The lane's running estimate crossed its ceiling after `iterations`
    /// steps and was retired; its λ₂ was never computed.
    Abandoned {
        /// Steps the lane ran before it was retired.
        iterations: usize,
    },
}

/// Where [`Iterator::sum`] starts an `f64` fold. The kernel's reductions
/// start from the same value so that a lane's sums are, bit for bit, the
/// `.sum()` calls of the textbook loop.
const SUM_START: f64 = -0.0;

/// One lane's bookkeeping: what it is doing and, once it has stopped,
/// where it stood.
#[derive(Debug, Clone, Copy)]
struct Lane {
    state: LaneState,
    ceiling: f64,
    /// The Rayleigh quotient of `B` at the last step.
    mu: f64,
    /// Meaningful once `state` is `Finished` or `Abandoned`.
    end: PowerIterationResult,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneState {
    Idle,
    Running,
    Finished,
    Abandoned,
}

impl Lane {
    const IDLE: Self = Self {
        state: LaneState::Idle,
        ceiling: f64::INFINITY,
        mu: 0.0,
        end: PowerIterationResult { eigenvalue: -1.0, iterations: 0, converged: false },
    };

    fn is_running(&self) -> bool {
        self.state == LaneState::Running
    }

    fn stop(&mut self, state: LaneState, eigenvalue: f64, iterations: usize, converged: bool) {
        self.state = state;
        self.end = PowerIterationResult { eigenvalue, iterations, converged };
    }
}

/// `L` deflated power iterations advanced in lock step over one shared
/// sparsity pattern (see the module docs). Built once per policy search
/// with [`PowerLanes::for_pattern`], then filled and run batch by batch.
#[derive(Debug)]
pub struct PowerLanes<const L: usize> {
    /// Stored entries per row.
    row_len: Vec<u32>,
    /// Flat CSR columns, ascending within each row.
    cols: Vec<u32>,
    /// Lane-major values in `cols` order.
    vals: Vec<[f64; L]>,
    lanes: [Lane; L],
}

impl<const L: usize> PowerLanes<L> {
    /// Empty lanes over `y`'s sparsity pattern.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn for_pattern(y: &SparseSymmetric) -> Self {
        let n = y.len();
        assert!(n > 0, "PowerLanes: empty matrix");
        assert!(u32::try_from(n).is_ok(), "PowerLanes: dimension exceeds u32");
        let cols: Vec<u32> = y.rows.iter().flatten().map(|&(j, _)| j as u32).collect();
        Self {
            row_len: y.rows.iter().map(|row| row.len() as u32).collect(),
            vals: vec![[0.0; L]; cols.len()],
            cols,
            lanes: [Lane::IDLE; L],
        }
    }

    /// Copies `y`'s values into lane `lane`. The next
    /// [`run_lanes`](Self::run_lanes) retires the lane as soon as its λ₂
    /// estimate exceeds `ceiling` (`f64::INFINITY`: never).
    ///
    /// # Panics
    /// Panics if `lane ≥ L` or `y`'s pattern is not the one the lanes
    /// were built over.
    pub fn load_lane(&mut self, lane: usize, y: &SparseSymmetric, ceiling: f64) {
        assert!(lane < L, "load_lane: lane {lane} of {L}");
        let entries = || y.rows.iter().flatten();
        assert!(
            y.rows.iter().map(Vec::len).eq(self.row_len.iter().map(|&len| len as usize))
                && entries().map(|&(j, _)| j).eq(self.cols.iter().map(|&j| j as usize)),
            "load_lane: matrix does not have the lanes' sparsity pattern"
        );
        let column = self.vals.iter_mut().filter_map(|slot| slot.get_mut(lane));
        for (slot, &(_, v)) in column.zip(entries()) {
            *slot = v;
        }
        if let Some(state) = self.lanes.get_mut(lane) {
            *state = Lane { state: LaneState::Running, ceiling, ..Lane::IDLE };
        }
    }

    /// Runs every loaded lane to its end — tolerance, iteration cap or
    /// ceiling — and empties the lanes. Entry `l` is `None` when lane `l`
    /// was not loaded.
    ///
    /// Lanes never interact: each performs the float operations of
    /// [`second_largest_eigenvalue_sparse`] on its own matrix, in that
    /// order, whatever its neighbours hold or however early they retire.
    pub fn run_lanes(&mut self, max_iters: usize, tol: f64) -> [Option<LaneOutcome>; L] {
        self.advance_lanes(max_iters, tol);
        let mut outcomes = [None; L];
        for (out, lane) in outcomes.iter_mut().zip(&mut self.lanes) {
            *out = match lane.state {
                LaneState::Idle | LaneState::Running => None,
                LaneState::Finished => Some(LaneOutcome::Finished(lane.end)),
                LaneState::Abandoned => {
                    Some(LaneOutcome::Abandoned { iterations: lane.end.iterations })
                }
            };
            *lane = Lane::IDLE;
        }
        outcomes
    }

    /// The iteration itself: on return no lane is `Running`.
    fn advance_lanes(&mut self, max_iters: usize, tol: f64) {
        // The unit iterates `x` and `bx = B·x`. The product is the Rayleigh
        // quotient's second factor and — because the next step would
        // compute exactly it again — the next step's raw iterate. They live
        // for this call only: between batches the caller is assembling the
        // next candidates, and the round's peak memory is there.
        let n = self.row_len.len();
        let (mut x, mut bx) = (vec![[0.0; L]; n], vec![[0.0; L]; n]);

        // Every lane starts from the dense `power_iteration`'s start vector,
        // deflated and normalised by the passes every later iterate goes
        // through.
        let mut sum = SUM_START;
        for (w, v) in bx.iter_mut().zip((0u64..).map(splitmix_start)) {
            sum += v;
            *w = [v; L];
        }
        let norm = deflate_and_measure(&mut bx, [sum; L]);
        if norm.iter().all(|&norm| norm > 0.0) {
            rescale_into_iterate(&mut x, &bx, norm);
        } else {
            // n = 1: nothing survives the deflation.
            x.copy_from_slice(&bx);
        }

        let (mut sum, _) = self.shifted_matvec(&x, &mut bx);
        for it in 0..max_iters {
            if !self.lanes.iter().any(Lane::is_running) {
                return;
            }
            let norm = deflate_and_measure(&mut bx, sum);
            for (lane, &norm) in self.lanes.iter_mut().zip(&norm) {
                if lane.is_running() && norm < 1e-300 {
                    // The deflated shifted operator annihilated the iterate: the
                    // deflated spectrum of B is 0, i.e. λ₂ = −1.
                    lane.stop(LaneState::Finished, -1.0, it, true);
                }
            }
            rescale_into_iterate(&mut x, &bx, norm);
            let (next_sum, rayleigh) = self.shifted_matvec(&x, &mut bx);
            sum = next_sum;
            for (lane, &mu) in self.lanes.iter_mut().zip(&rayleigh) {
                if !lane.is_running() {
                    continue;
                }
                let delta = (mu - lane.mu).abs();
                lane.mu = mu;
                let eigenvalue = 2.0 * mu - 1.0;
                if it > 0 && delta < tol {
                    lane.stop(LaneState::Finished, eigenvalue, it + 1, true);
                } else if eigenvalue > lane.ceiling {
                    lane.stop(LaneState::Abandoned, eigenvalue, it + 1, false);
                }
            }
        }
        for lane in self.lanes.iter_mut().filter(|lane| lane.is_running()) {
            lane.stop(LaneState::Finished, 2.0 * lane.mu - 1.0, max_iters, false);
        }
    }

    /// `bx ← (Y·x + x)/2` in every lane, each row's terms accumulated in
    /// ascending column order. Returns `(Σᵢ bxᵢ, Σᵢ xᵢ·bxᵢ)`: the sum the
    /// next deflation divides by `n`, and the Rayleigh quotient of `x`.
    fn shifted_matvec(&self, x: &[[f64; L]], bx: &mut [[f64; L]]) -> ([f64; L], [f64; L]) {
        let (mut vals, mut cols): (&[[f64; L]], &[u32]) = (&self.vals, &self.cols);
        let mut sum = [SUM_START; L];
        let mut dot = [SUM_START; L];
        for ((&len, xi), out) in self.row_len.iter().zip(x).zip(bx) {
            let (row_vals, rest_vals) = vals.split_at(len as usize);
            let (row_cols, rest_cols) = cols.split_at(len as usize);
            (vals, cols) = (rest_vals, rest_cols);
            let mut yx = [SUM_START; L];
            for (a, &j) in row_vals.iter().zip(row_cols) {
                for ((acc, &a), &xj) in yx.iter_mut().zip(a).zip(&x[j as usize]) {
                    *acc += a * xj;
                }
            }
            for ((out, &yx), &xi) in out.iter_mut().zip(&yx).zip(xi) {
                *out = 0.5 * (yx + xi);
            }
            for ((sum, dot), (&b, &xi)) in sum.iter_mut().zip(&mut dot).zip(out.iter().zip(xi)) {
                *sum += b;
                *dot += xi * b;
            }
        }
        (sum, dot)
    }
}

/// Orthogonalises `bx` against the all-ones vector (subtracts each lane's
/// mean, `sum / n`) and returns the lanes' Euclidean norms.
fn deflate_and_measure<const L: usize>(bx: &mut [[f64; L]], sum: [f64; L]) -> [f64; L] {
    let n = bx.len() as f64;
    let mean = sum.map(|s| s / n);
    let mut sq = [SUM_START; L];
    for w in bx {
        for ((w, &mean), sq) in w.iter_mut().zip(&mean).zip(&mut sq) {
            *w -= mean;
            *sq += *w * *w;
        }
    }
    sq.map(f64::sqrt)
}

/// `x ← bx / norm`, lane by lane.
fn rescale_into_iterate<const L: usize>(x: &mut [[f64; L]], bx: &[[f64; L]], norm: [f64; L]) {
    for (x, w) in x.iter_mut().zip(bx) {
        for ((x, &w), &norm) in x.iter_mut().zip(w).zip(&norm) {
            *x = w / norm;
        }
    }
}

/// Second-largest eigenvalue of a symmetric doubly-stochastic sparse
/// matrix via deflated power iteration on the shifted operator
/// `B = (Y + I)/2` (see the module docs for why the shift is needed):
/// one lane of [`PowerLanes`] with no ceiling.
///
/// Deflation is against the all-ones vector — the known dominant
/// eigenvector of any doubly-stochastic `Y`. The returned
/// [`PowerIterationResult::eigenvalue`] is `λ₂` itself (already mapped
/// back from `B`'s spectrum).
///
/// # Panics
/// Panics on an empty matrix.
pub fn second_largest_eigenvalue_sparse(
    y: &SparseSymmetric,
    max_iters: usize,
    tol: f64,
) -> PowerIterationResult {
    let mut lanes = PowerLanes::<1>::for_pattern(y);
    lanes.load_lane(0, y, f64::INFINITY);
    lanes.advance_lanes(max_iters, tol);
    // Nothing exceeds an infinite ceiling, so the lane ran to its end.
    let [lane] = lanes.lanes;
    lane.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::second_largest_eigenvalue;

    fn lazy_walk_triangle() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, 0.25, 0.25],
            vec![0.25, 0.5, 0.25],
            vec![0.25, 0.25, 0.5],
        ])
    }

    #[test]
    fn roundtrip_dense_sparse_dense() {
        let d = lazy_walk_triangle();
        let s = SparseSymmetric::from_dense(&d);
        assert_eq!(s.nnz(), 9);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.get(0, 1), 0.25);
        assert_eq!(s.get(2, 2), 0.5);
    }

    #[test]
    fn set_and_get_maintain_symmetry() {
        let mut s = SparseSymmetric::zeros(4);
        s.set(0, 2, 0.7);
        s.set(1, 1, 0.3);
        assert_eq!(s.get(0, 2), 0.7);
        assert_eq!(s.get(2, 0), 0.7);
        assert_eq!(s.get(1, 1), 0.3);
        assert_eq!(s.get(3, 3), 0.0);
        s.set(0, 2, 0.1);
        assert_eq!(s.get(2, 0), 0.1);
        assert_eq!(s.nnz(), 3);
    }

    #[test]
    fn lambda2_matches_jacobi_on_lazy_walk() {
        let d = lazy_walk_triangle();
        let s = SparseSymmetric::from_dense(&d);
        let dense = second_largest_eigenvalue(&d);
        let sparse = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!(sparse.converged);
        assert!((sparse.eigenvalue - dense).abs() < 1e-8, "{} vs {dense}", sparse.eigenvalue);
    }

    #[test]
    fn lambda2_is_sign_safe_near_minus_one() {
        // Two-node averaging: spectrum {1, -1}; plain deflated power
        // iteration on Y would report magnitude 1 with the wrong sign.
        let d = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let s = SparseSymmetric::from_dense(&d);
        let r = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!(r.converged);
        assert!((r.eigenvalue - (-1.0)).abs() < 1e-8, "λ₂ should be -1, got {}", r.eigenvalue);
    }

    #[test]
    fn disconnected_graph_reports_lambda2_one() {
        // Block-diagonal doubly stochastic: eigenvalue 1 has multiplicity
        // 2, so λ₂ = 1 — deflating only the global all-ones vector must
        // still surface the second invariant subspace.
        let d = Matrix::from_rows(&[
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.5, 0.5],
        ]);
        let s = SparseSymmetric::from_dense(&d);
        let r = second_largest_eigenvalue_sparse(&s, 50_000, 1e-13);
        assert!((r.eigenvalue - 1.0).abs() < 1e-8, "λ₂ should be 1, got {}", r.eigenvalue);
    }
}
