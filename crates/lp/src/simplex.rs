//! Two-phase primal simplex on a dense tableau.
//!
//! Pipeline: shift variables by their lower bounds so everything is ≥ 0,
//! add slack/surplus columns for inequality rows, flip rows to make the
//! right-hand side non-negative, then run phase 1 (minimize the sum of
//! artificial variables) and, if feasible, phase 2 on the real objective.
//!
//! Pivoting uses **Bland's rule** (smallest eligible index), which
//! guarantees termination at the cost of a few extra pivots — a good trade
//! for a solver embedded in a long-running training loop where a cycling
//! hang would stall the Network Monitor.

// Index-based loops are kept where they mirror the matrix maths.
#![allow(clippy::needless_range_loop)]

use crate::problem::{LpProblem, Relation};
use crate::LP_EPS;

/// A primal-optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal values of the original decision variables.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Total simplex pivots across both phases (diagnostics).
    pub pivots: usize,
}

/// Outcome of solving an LP.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal(LpSolution),
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Returns the solution if optimal, `None` otherwise.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Dense simplex tableau in standard form `A y = b, y ≥ 0`.
struct Tableau {
    /// m × n coefficient matrix, row-major.
    a: Vec<f64>,
    /// Right-hand side, length m (kept ≥ 0 by pivoting invariant).
    b: Vec<f64>,
    m: usize,
    n: usize,
    /// `basis[r]` = column currently basic in row r.
    basis: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * self.n + c]
    }

    /// Gauss-Jordan pivot on (row, col): normalizes the pivot row and
    /// eliminates the pivot column from every other row.
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.at(row, col);
        debug_assert!(p.abs() > LP_EPS, "pivot on (near-)zero element");
        let inv = 1.0 / p;
        for c in 0..self.n {
            *self.at_mut(row, c) *= inv;
        }
        self.b[row] *= inv;
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f == 0.0 {
                continue;
            }
            for c in 0..self.n {
                let v = self.at(row, c);
                *self.at_mut(r, c) -= f * v;
            }
            self.b[r] -= f * self.b[row];
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Reduced costs `r_j = c_j - Σ_r c_basis[r] * a[r][j]` for the column
    /// chunk `j0..j1`, written into `red[j0..j1]`. Rows are accumulated in
    /// ascending order with the same zero-cost skip as a full-width pass,
    /// so each entry is bit-identical whether computed chunked or whole.
    fn reduced_costs_chunk(&self, c: &[f64], red: &mut [f64], j0: usize, j1: usize) {
        red[j0..j1].copy_from_slice(&c[j0..j1]);
        for r in 0..self.m {
            let cb = c[self.basis[r]];
            if cb == 0.0 {
                continue;
            }
            let row = &self.a[r * self.n + j0..r * self.n + j1];
            for (rj, &arj) in red[j0..j1].iter_mut().zip(row) {
                *rj -= cb * arj;
            }
        }
    }

    /// Bland's entering column: the smallest index with negative reduced
    /// cost, or `None` at optimality. Columns are priced in chunks so the
    /// scan stops at the first chunk containing an eligible column —
    /// pricing the full tableau every pivot is the dominant cost of the
    /// dense simplex, and Bland's rule usually enters a low-index column.
    fn entering_column(&self, c: &[f64], red: &mut [f64]) -> Option<usize> {
        const CHUNK: usize = 16;
        let mut j0 = 0;
        while j0 < self.n {
            let j1 = (j0 + CHUNK).min(self.n);
            self.reduced_costs_chunk(c, red, j0, j1);
            if let Some(j) = (j0..j1).find(|&j| red[j] < -LP_EPS) {
                return Some(j);
            }
            j0 = j1;
        }
        None
    }

    /// Runs simplex minimization of `c^T y` from the current basic feasible
    /// solution. `red` is scratch for reduced costs (length ≥ n). Returns
    /// `false` if unbounded.
    fn minimize(&mut self, c: &[f64], max_pivots: usize, red: &mut [f64]) -> bool {
        for _ in 0..max_pivots {
            // Bland: entering column = smallest index with negative reduced cost.
            let Some(col) = self.entering_column(c, red) else {
                return true; // optimal
            };
            // Ratio test, Bland tie-break on basis index.
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis_var, row)
            for r in 0..self.m {
                let arc = self.at(r, col);
                if arc > LP_EPS {
                    let ratio = self.b[r] / arc;
                    let key = (ratio, self.basis[r]);
                    match best {
                        None => best = Some((key.0, key.1, r)),
                        Some((br, bv, _)) => {
                            if ratio < br - LP_EPS || ((ratio - br).abs() <= LP_EPS && key.1 < bv) {
                                best = Some((key.0, key.1, r));
                            }
                        }
                    }
                }
            }
            let Some((_, _, row)) = best else {
                return false; // unbounded along `col`
            };
            self.pivot(row, col);
        }
        // Pivot cap exhausted: treat as optimal-enough. With Bland's rule
        // this is unreachable for well-posed inputs; the cap is a safety net.
        true
    }

}

/// Reusable buffers for [`solve_with`]: the tableau, objective rows, and
/// pricing scratch survive across solves, so a caller sweeping many LPs of
/// the same shape (the policy generator's `(ρ, t̄)` grid) performs no
/// steady-state allocation. Every buffer is re-stamped from the problem
/// before use — reuse changes memory traffic only, never a computed value.
#[derive(Debug, Default)]
pub struct LpWorkspace {
    a: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
    phase1_c: Vec<f64>,
    phase2_c: Vec<f64>,
    red: Vec<f64>,
    /// `pos[col]` = row in which `col` is basic (`usize::MAX` if nonbasic).
    pos: Vec<usize>,
}

impl LpWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves the LP with the two-phase simplex method.
///
/// Returns [`LpOutcome::Infeasible`] when phase 1 cannot drive the
/// artificial variables to zero, and [`LpOutcome::Unbounded`] when phase 2
/// finds a descent ray.
pub fn solve(problem: &LpProblem) -> LpOutcome {
    solve_with(problem, &mut LpWorkspace::new())
}

/// [`solve`] with caller-provided scratch buffers. Results are identical
/// to a fresh-workspace solve; only allocation traffic differs.
pub fn solve_with(problem: &LpProblem, ws: &mut LpWorkspace) -> LpOutcome {
    let n_orig = problem.num_vars();
    let rows = problem.constraints();
    let m = rows.len();
    let lb = problem.lower_bounds();

    // Count slack columns needed (one per inequality row).
    let n_slack = rows
        .iter()
        .filter(|r| r.relation != Relation::Eq)
        .count();
    // Layout: [ structural (shifted) | slack/surplus | artificial ].
    let n_struct = n_orig;
    let n_total_no_art = n_struct + n_slack;
    let n_total = n_total_no_art + m; // one artificial per row (some unused)

    let mut a = std::mem::take(&mut ws.a);
    a.clear();
    a.resize(m * n_total, 0.0);
    let mut b = std::mem::take(&mut ws.b);
    b.clear();
    b.resize(m, 0.0);

    let mut slack_cursor = 0usize;
    for (r, row) in rows.iter().enumerate() {
        // Shift x = lb + y: rhs' = rhs - Σ a_j lb_j.
        let mut rhs = row.rhs;
        for &(v, coef) in &row.coeffs {
            a[r * n_total + v] = coef;
            rhs -= coef * lb[v];
        }
        match row.relation {
            Relation::Le => {
                a[r * n_total + n_struct + slack_cursor] = 1.0;
                slack_cursor += 1;
            }
            Relation::Ge => {
                a[r * n_total + n_struct + slack_cursor] = -1.0;
                slack_cursor += 1;
            }
            Relation::Eq => {}
        }
        b[r] = rhs;
    }
    debug_assert_eq!(slack_cursor, n_slack);

    // Flip rows with negative rhs so b ≥ 0 (required for the initial
    // artificial basis to be feasible).
    for r in 0..m {
        if b[r] < 0.0 {
            for c in 0..n_total {
                a[r * n_total + c] = -a[r * n_total + c];
            }
            b[r] = -b[r];
        }
    }

    // Install artificial columns: artificial for row r is column
    // n_total_no_art + r, forming an identity basis.
    let mut basis = std::mem::take(&mut ws.basis);
    basis.clear();
    for r in 0..m {
        a[r * n_total + n_total_no_art + r] = 1.0;
        basis.push(n_total_no_art + r);
    }

    let mut tab = Tableau { a, b, m, n: n_total, basis, pivots: 0 };
    // Hand the tableau buffers back to the workspace whatever path exits.
    macro_rules! finish {
        ($outcome:expr) => {{
            ws.a = tab.a;
            ws.b = tab.b;
            ws.basis = tab.basis;
            return $outcome;
        }};
    }

    // Phase 1: minimize the sum of artificials.
    let phase1_c = &mut ws.phase1_c;
    phase1_c.clear();
    phase1_c.resize(n_total, 0.0);
    for c in phase1_c.iter_mut().skip(n_total_no_art) {
        *c = 1.0;
    }
    let max_pivots = 50 * (n_total + m + 10);
    let red = &mut ws.red;
    red.clear();
    red.resize(n_total, 0.0);
    if !tab.minimize(phase1_c, max_pivots, red) {
        // Phase 1 objective is bounded below by 0; unbounded is impossible
        // for well-formed input, treat defensively as infeasible.
        finish!(LpOutcome::Infeasible);
    }
    let phase1_obj: f64 = (0..m)
        .filter(|&r| tab.basis[r] >= n_total_no_art)
        .map(|r| tab.b[r])
        .sum();
    if phase1_obj > 1e-7 {
        finish!(LpOutcome::Infeasible);
    }

    // Drive any residual artificial variables out of the basis (they are at
    // zero level; pivot them out on any non-artificial column, or drop the
    // redundant row by leaving it — the zero level keeps it harmless).
    for r in 0..m {
        if tab.basis[r] >= n_total_no_art {
            if let Some(col) = (0..n_total_no_art).find(|&j| tab.at(r, j).abs() > 1e-7) {
                tab.pivot(r, col);
            }
        }
    }

    // Phase 2: original objective on shifted variables (constant offset
    // Σ c_j lb_j added back at extraction). Forbid re-entry of artificials
    // by pricing them prohibitively.
    let phase2_c = &mut ws.phase2_c;
    phase2_c.clear();
    phase2_c.resize(n_total, 0.0);
    phase2_c[..n_orig].copy_from_slice(problem.objective());
    // Large positive cost keeps artificial columns out of the basis.
    let big = 1.0
        + problem
            .objective()
            .iter()
            .fold(0.0f64, |acc, &v| acc.max(v.abs()))
            * 1e6;
    for c in phase2_c.iter_mut().skip(n_total_no_art) {
        *c = big;
    }
    if !tab.minimize(phase2_c, max_pivots, red) {
        finish!(LpOutcome::Unbounded);
    }

    // Extract solution: x_j = lb_j + y_j. A column is basic in at most
    // one row, so the row map reads off the same value `value_of` finds
    // by scanning.
    let pos = &mut ws.pos;
    pos.clear();
    pos.resize(n_total, usize::MAX);
    for r in 0..m {
        if pos[tab.basis[r]] == usize::MAX {
            pos[tab.basis[r]] = r;
        }
    }
    let x: Vec<f64> = (0..n_orig)
        .map(|j| {
            let y = if pos[j] == usize::MAX { 0.0 } else { tab.b[pos[j]] };
            lb[j] + y
        })
        .collect();
    let objective = problem.objective_value(&x);
    finish!(LpOutcome::Optimal(LpSolution { x, objective, pivots: tab.pivots }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Relation};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (classic Dantzig)
        // -> min -3x -5y; optimum x=2, y=6, obj = -36.
        let mut p = LpProblem::new(2);
        p.set_objective(0, -3.0).set_objective(1, -5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).optimal().expect("should be optimal");
        assert_close(s.x[0], 2.0, 1e-8);
        assert_close(s.x[1], 6.0, 1e-8);
        assert_close(s.objective, -36.0, 1e-8);
        assert!(p.is_feasible(&s.x, 1e-8));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 1, x - y = 0 -> x = y = 0.5.
        let mut p = LpProblem::new(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
        let s = solve(&p).optimal().expect("optimal");
        assert_close(s.x[0], 0.5, 1e-8);
        assert_close(s.x[1], 0.5, 1e-8);
    }

    #[test]
    fn ge_constraints_and_lower_bounds() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 (via bounds).
        // Optimum: push the cheap variable: x = 7, y = 3, obj = 23.
        let mut p = LpProblem::new(2);
        p.set_objective(0, 2.0).set_objective(1, 3.0);
        p.set_lower_bound(0, 2.0).set_lower_bound(1, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        let s = solve(&p).optimal().expect("optimal");
        assert_close(s.x[0], 7.0, 1e-8);
        assert_close(s.x[1], 3.0, 1e-8);
        assert_close(s.objective, 23.0, 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        // x >= 5 and x <= 1 simultaneously.
        let mut p = LpProblem::new(1);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        assert!(matches!(solve(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x with only x >= 0: unbounded below.
        let mut p = LpProblem::new(1);
        p.set_objective(0, -1.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 0.0);
        assert!(matches!(solve(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut p = LpProblem::new(1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, -1.0)], Relation::Le, -3.0);
        let s = solve(&p).optimal().expect("optimal");
        assert_close(s.x[0], 3.0, 1e-8);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classically degenerate instance (Beale-like); Bland must terminate.
        let mut p = LpProblem::new(4);
        p.set_objective(0, -0.75)
            .set_objective(1, 150.0)
            .set_objective(2, -0.02)
            .set_objective(3, 6.0);
        p.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0);
        let out = solve(&p);
        let s = out.optimal().expect("Beale instance has optimum -1/20");
        assert_close(s.objective, -0.05, 1e-6);
    }

    #[test]
    fn stochastic_row_structure_like_netmax() {
        // A miniature of the NetMax LP: 3 nodes in a triangle, probabilities
        // per row summing to 1, per-row expected time fixed, minimize the
        // self-selection mass. Variables: p01 p02 p10 p12 p20 p21 p00 p11 p22.
        let t = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]];
        let target = 0.8; // per-row expected iteration time (must be ≤ min_i max_m t_im = 1.0)
        let lb = 0.05;
        let mut p = LpProblem::new(9);
        let idx = |i: usize, j: usize| -> usize {
            // off-diagonals first (row-major skipping diagonal), then diagonal.
            let off = [[usize::MAX, 0, 1], [2, usize::MAX, 3], [4, 5, usize::MAX]];
            if i == j {
                6 + i
            } else {
                off[i][j]
            }
        };
        for i in 0..3 {
            p.set_objective(idx(i, i), 1.0);
            let mut sum_row = vec![(idx(i, i), 1.0)];
            let mut time_row = Vec::new();
            for j in 0..3 {
                if i != j {
                    sum_row.push((idx(i, j), 1.0));
                    time_row.push((idx(i, j), t[i][j]));
                    p.set_lower_bound(idx(i, j), lb);
                }
            }
            p.add_constraint(sum_row, Relation::Eq, 1.0);
            p.add_constraint(time_row, Relation::Eq, target);
        }
        let s = solve(&p).optimal().expect("netmax-like LP is feasible");
        assert!(p.is_feasible(&s.x, 1e-7));
        // Row sums are 1 and time rows hit the target.
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| s.x[idx(i, j)]).sum();
            assert_close(row_sum, 1.0, 1e-7);
            let row_time: f64 = (0..3).filter(|&j| j != i).map(|j| t[i][j] * s.x[idx(i, j)]).sum();
            assert_close(row_time, target, 1e-7);
        }
    }
}
