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
//! advances `L` of them side by side: columns stored once in flat CSR
//! form, values and iterates lane-major (`[f64; L]` per entry), every
//! reduction `L` independent chains in one vector register. Lanes never
//! mix — lane `l` of every sum sees exactly the terms, in exactly the
//! order, a single iteration on that matrix would — so the result of a
//! lane is bit-identical whatever its neighbours hold, and
//! [`second_largest_eigenvalue_sparse`] is simply the kernel with one
//! lane. Each step applies `B` once: the product that closes step `k`'s
//! Rayleigh quotient is, operation for operation, the product step
//! `k + 1` would open with, so it is carried over.
//!
//! ## Why the lanes stream
//!
//! Every lane keeps its own step counter and stops on its own — at the
//! tolerance, at the cap, or on crossing its ceiling — so the candidates
//! of one search end thousands of steps apart. The kernel therefore holds
//! its iterates for the whole search and hands a lane back the step it
//! stops ([`PowerLanes::advance`]): the caller loads the next candidate
//! into it there ([`PowerLanes::load_lane`]), and the new lane starts
//! from the shared start vector while its neighbours run on. A lane's
//! ceiling can also move down while it runs ([`PowerLanes::set_ceiling`]):
//! the estimate only climbs, so the lane is retired at the first step it
//! exceeds the new value, exactly as if it had been loaded under it. No
//! lane waits for a slower one, and none runs under a ceiling older than
//! the caller's best.
//!
//! ## Why torus rows are unrolled
//!
//! Every row of a torus holds 5 stored entries (four neighbours and the
//! diagonal), and every fabric the sweep scores above 64 nodes is a
//! torus. When all rows hold 5 — a property of the pattern, read once
//! when the lanes are built — the product walks fixed-size rows whose
//! inner loop the compiler unrolls, instead of a loop whose length is
//! read per row. Any other pattern, rings included, takes that loop.
//! Each row's terms are added in ascending column order from the same
//! start either way, so the two paths produce the same floats.
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

    /// Every stored entry as `(row, column, value)`, row by row, columns
    /// ascending: the order [`PowerLanes`] takes a matrix in.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, row)| row.iter().map(move |&(j, v)| (i, j, v)))
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

/// What became of a lane of [`PowerLanes`] that stopped.
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

/// Stored entries in every row of a torus pattern: four neighbours and
/// the diagonal.
const TORUS_ROW: usize = 5;

/// One lane's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Lane {
    state: LaneState,
    ceiling: f64,
    /// The Rayleigh quotient of `B` at the last counted step.
    mu: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneState {
    /// Holds no matrix. Its columns keep whatever the last matrix left,
    /// stepped along unnormalised and never read, until the lane is
    /// loaded again and every one of them is overwritten.
    Free,
    /// Loaded with the start vector: the next step normalises it and
    /// applies `B`, the product the lane's first counted step opens with.
    Priming,
    /// `steps` counted steps done.
    Running { steps: usize },
}

impl Lane {
    const FREE: Self = Self { state: LaneState::Free, ceiling: f64::INFINITY, mu: 0.0 };
}

/// `L` deflated power iterations over one shared sparsity pattern,
/// advanced a step at a time, each lane with its own matrix, ceiling and
/// step counter (see the module docs). Built once per policy search with
/// [`PowerLanes::for_pattern`]; a lane is loaded whenever it is free and
/// freed the step it stops.
#[derive(Debug)]
pub struct PowerLanes<const L: usize> {
    /// Stored entries per row.
    row_len: Vec<u32>,
    /// Every row holds [`TORUS_ROW`] entries: the matvec unrolls them.
    torus_rows: bool,
    /// Flat CSR columns, ascending within each row.
    cols: Vec<u32>,
    /// Lane-major values in `cols` order.
    vals: Vec<[f64; L]>,
    /// The unit iterates.
    x: Vec<[f64; L]>,
    /// `B·x`: the Rayleigh quotient's second factor and — because the next
    /// step would compute exactly it again — the next step's raw iterate.
    bx: Vec<[f64; L]>,
    /// `Σᵢ bxᵢ`, the sum the next deflation divides by `n`.
    sum: [f64; L],
    lanes: [Lane; L],
    max_iters: usize,
    tol: f64,
}

impl<const L: usize> PowerLanes<L> {
    /// Free lanes over the `n × n` pattern whose stored `(row, column)`
    /// positions `pattern` lists row by row, columns ascending within a
    /// row. Every lane stops at `max_iters` steps, or earlier once two
    /// consecutive Rayleigh quotients differ by less than `tol`.
    ///
    /// # Panics
    /// Panics on `n = 0` or a position out of range or out of order.
    pub fn for_pattern(
        n: usize,
        pattern: impl IntoIterator<Item = (usize, usize)>,
        max_iters: usize,
        tol: f64,
    ) -> Self {
        assert!(n > 0, "PowerLanes: empty matrix");
        assert!(u32::try_from(n).is_ok(), "PowerLanes: dimension exceeds u32");
        let (mut row_len, mut cols) = (vec![0u32; n], Vec::new());
        let mut last: Option<(usize, usize)> = None;
        for (i, j) in pattern {
            assert!(i < n && j < n, "PowerLanes: position ({i}, {j}) out of range");
            assert!(last < Some((i, j)), "PowerLanes: position ({i}, {j}) out of order");
            last = Some((i, j));
            if let Some(len) = row_len.get_mut(i) {
                *len += 1;
            }
            cols.push(j as u32);
        }
        let torus_rows = row_len.iter().all(|&len| len as usize == TORUS_ROW);
        Self {
            row_len,
            torus_rows,
            vals: vec![[0.0; L]; cols.len()],
            cols,
            x: vec![[0.0; L]; n],
            bx: vec![[0.0; L]; n],
            sum: [0.0; L],
            lanes: [Lane::FREE; L],
            max_iters,
            tol,
        }
    }

    /// The lowest free lane, if any.
    pub fn free_lane(&self) -> Option<usize> {
        self.lanes.iter().position(|lane| lane.state == LaneState::Free)
    }

    /// Loads a matrix into the free lane `lane`: `entries` are its
    /// `(row, column, value)` triples in the lanes' pattern order. From the
    /// next step on the lane iterates from the start vector, and is retired
    /// as soon as its λ₂ estimate exceeds `ceiling` (`f64::INFINITY`:
    /// never).
    ///
    /// # Panics
    /// Panics if `lane` is not a free lane or `entries` do not follow the
    /// lanes' sparsity pattern.
    pub fn load_lane(
        &mut self,
        lane: usize,
        entries: impl IntoIterator<Item = (usize, usize, f64)>,
        ceiling: f64,
    ) {
        assert!(
            self.lanes.get(lane).is_some_and(|l| l.state == LaneState::Free),
            "load_lane: lane {lane} of {L} is not free"
        );
        let mut entries = entries.into_iter();
        let mut slots = self.vals.iter_mut().zip(&self.cols);
        let mut same_pattern = true;
        for (i, &len) in self.row_len.iter().enumerate() {
            for (slot, &j) in slots.by_ref().take(len as usize) {
                match (entries.next(), slot.get_mut(lane)) {
                    (Some((r, c, v)), Some(slot)) if (r, c) == (i, j as usize) => *slot = v,
                    _ => same_pattern = false,
                }
            }
        }
        assert!(
            same_pattern && entries.next().is_none(),
            "load_lane: matrix does not have the lanes' sparsity pattern"
        );
        // The dense `power_iteration`'s start vector, deflated and
        // normalised by the next step as every later iterate is.
        let mut sum = SUM_START;
        for (w, v) in self.bx.iter_mut().zip((0u64..).map(splitmix_start)) {
            sum += v;
            if let Some(w) = w.get_mut(lane) {
                *w = v;
            }
        }
        if let (Some(s), Some(state)) = (self.sum.get_mut(lane), self.lanes.get_mut(lane)) {
            *s = sum;
            *state = Lane { state: LaneState::Priming, ceiling, mu: 0.0 };
        }
    }

    /// Moves a loaded lane's ceiling. A lane's estimate only climbs, so a
    /// lower ceiling retires it at the first step its estimate exceeds
    /// the new value, and never earlier.
    pub fn set_ceiling(&mut self, lane: usize, ceiling: f64) {
        if let Some(lane) = self.lanes.get_mut(lane) {
            lane.ceiling = ceiling;
        }
    }

    /// Steps every lane until at least one stops — tolerance, iteration
    /// cap or ceiling — and frees the lanes that did. Entry `l` is lane
    /// `l`'s outcome if it stopped on that step; all entries are `None`
    /// only when no lane was loaded.
    ///
    /// Lanes never interact: each performs the float operations of
    /// [`second_largest_eigenvalue_sparse`] on its own matrix, in that
    /// order, whatever its neighbours hold and whenever it was loaded.
    pub fn advance(&mut self) -> [Option<LaneOutcome>; L] {
        let mut stopped = [None; L];
        while self.lanes.iter().any(|lane| lane.state != LaneState::Free) {
            self.step_lanes(&mut stopped);
            if stopped.iter().any(Option::is_some) {
                for (lane, stop) in self.lanes.iter_mut().zip(&stopped) {
                    if stop.is_some() {
                        *lane = Lane::FREE;
                    }
                }
                break;
            }
        }
        stopped
    }

    /// One step of every lane; a lane that stops on it gets its outcome.
    fn step_lanes(&mut self, stopped: &mut [Option<LaneOutcome>; L]) {
        let norm = deflate_and_measure(&mut self.bx, self.sum);
        let mut divisor = [1.0; L];
        for ((lane, divisor), (&norm, stop)) in
            self.lanes.iter().zip(&mut divisor).zip(norm.iter().zip(stopped.iter_mut()))
        {
            match lane.state {
                LaneState::Free => {}
                // n = 1: nothing survives the deflation of the start
                // vector, which is then used as it is.
                LaneState::Priming => {
                    if norm > 0.0 {
                        *divisor = norm;
                    }
                }
                // The deflated shifted operator annihilated the iterate:
                // the deflated spectrum of B is 0, i.e. λ₂ = −1.
                LaneState::Running { steps } if norm < 1e-300 => {
                    *stop = finished(-1.0, steps, true);
                }
                LaneState::Running { .. } => *divisor = norm,
            }
        }
        rescale_into_iterate(&mut self.x, &self.bx, divisor);
        let (sum, rayleigh) = self.shifted_matvec();
        self.sum = sum;
        for (lane, (&mu, stop)) in self.lanes.iter_mut().zip(rayleigh.iter().zip(stopped)) {
            let steps = match lane.state {
                LaneState::Free => continue,
                _ if stop.is_some() => continue,
                // The start vector's product: not a step of the count.
                LaneState::Priming => 0,
                LaneState::Running { steps } => {
                    let delta = (mu - lane.mu).abs();
                    lane.mu = mu;
                    let eigenvalue = 2.0 * mu - 1.0;
                    if steps > 0 && delta < self.tol {
                        *stop = finished(eigenvalue, steps + 1, true);
                        continue;
                    }
                    if eigenvalue > lane.ceiling {
                        *stop = Some(LaneOutcome::Abandoned { iterations: steps + 1 });
                        continue;
                    }
                    steps + 1
                }
            };
            if steps == self.max_iters {
                *stop = finished(2.0 * lane.mu - 1.0, steps, false);
            } else {
                lane.state = LaneState::Running { steps };
            }
        }
    }

    /// `bx ← (Y·x + x)/2` in every lane, each row's terms accumulated in
    /// ascending column order. Returns `(Σᵢ bxᵢ, Σᵢ xᵢ·bxᵢ)`: the sum the
    /// next deflation divides by `n`, and the Rayleigh quotient of `x`.
    /// Torus rows take an unrolled loop; the floats are the same either
    /// way.
    fn shifted_matvec(&mut self) -> ([f64; L], [f64; L]) {
        let (x, bx) = (&self.x, &mut self.bx);
        if self.torus_rows {
            return equal_rows::<L, TORUS_ROW>(&self.vals, &self.cols, x, bx);
        }
        let mut entries = self.vals.iter().zip(&self.cols);
        let mut totals = ([SUM_START; L], [SUM_START; L]);
        for ((&len, xi), out) in self.row_len.iter().zip(x).zip(bx) {
            *out = shifted_row(entries.by_ref().take(len as usize), x, xi);
            add_to_totals(&mut totals, out, xi);
        }
        totals
    }
}

/// A lane that ran to its end.
fn finished(eigenvalue: f64, iterations: usize, converged: bool) -> Option<LaneOutcome> {
    Some(LaneOutcome::Finished(PowerIterationResult { eigenvalue, iterations, converged }))
}

/// [`PowerLanes::shifted_matvec`] over rows of `D` entries each.
fn equal_rows<const L: usize, const D: usize>(
    vals: &[[f64; L]],
    cols: &[u32],
    x: &[[f64; L]],
    bx: &mut [[f64; L]],
) -> ([f64; L], [f64; L]) {
    let rows = vals.chunks_exact(D).zip(cols.chunks_exact(D));
    let mut totals = ([SUM_START; L], [SUM_START; L]);
    for (((row_vals, row_cols), xi), out) in rows.zip(x).zip(bx) {
        *out = shifted_row(row_vals.iter().zip(row_cols), x, xi);
        add_to_totals(&mut totals, out, xi);
    }
    totals
}

/// Row `i` of `(Y·x + x)/2` in every lane: the row's `(value, column)`
/// terms summed in their order from [`SUM_START`], then the shift.
#[inline(always)]
fn shifted_row<'a, const L: usize>(
    row: impl Iterator<Item = (&'a [f64; L], &'a u32)>,
    x: &[[f64; L]],
    xi: &[f64; L],
) -> [f64; L] {
    let mut yx = [SUM_START; L];
    for (a, &j) in row {
        for ((acc, &a), &xj) in yx.iter_mut().zip(a).zip(&x[j as usize]) {
            *acc += a * xj;
        }
    }
    for (yx, &xi) in yx.iter_mut().zip(xi) {
        *yx = 0.5 * (*yx + xi);
    }
    yx
}

/// Adds row `i`'s `bxᵢ` and `xᵢ·bxᵢ` to the matvec's two running sums,
/// which run in row order.
#[inline(always)]
fn add_to_totals<const L: usize>(
    (sum, dot): &mut ([f64; L], [f64; L]),
    b: &[f64; L],
    xi: &[f64; L],
) {
    for ((sum, dot), (&b, &xi)) in sum.iter_mut().zip(dot.iter_mut()).zip(b.iter().zip(xi)) {
        *sum += b;
        *dot += xi * b;
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

/// `x ← bx / divisor`, lane by lane.
fn rescale_into_iterate<const L: usize>(x: &mut [[f64; L]], bx: &[[f64; L]], divisor: [f64; L]) {
    for (x, w) in x.iter_mut().zip(bx) {
        for ((x, &w), &divisor) in x.iter_mut().zip(w).zip(&divisor) {
            *x = w / divisor;
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
    let pattern = y.entries().map(|(i, j, _)| (i, j));
    let mut lanes = PowerLanes::<1>::for_pattern(y.len(), pattern, max_iters, tol);
    lanes.load_lane(0, y.entries(), f64::INFINITY);
    loop {
        // Nothing exceeds an infinite ceiling, so the lane runs to its end.
        if let [Some(LaneOutcome::Finished(end))] = lanes.advance() {
            return end;
        }
    }
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
