//! The solver behind the communication-policy LP of Eq. (14): a two-phase
//! primal simplex on a dense tableau, for problems in equality form
//!
//! ```text
//!   minimize    cᵀx
//!   subject to  A x = b
//!               x ≥ lb
//! ```
//!
//! which is every row the policy generator writes: each node's Eq. (13)
//! stochasticity row and Eq. (10) time row are equalities, and Eq. (11)
//! is a per-variable lower bound. An inequality is an equality with an
//! explicit slack variable appended after the structural ones.
//!
//! Pipeline: shift variables by their lower bounds so everything is ≥ 0,
//! flip rows to make the right-hand side non-negative, then run phase 1
//! (minimize the sum of one artificial variable per row) and, if
//! feasible, phase 2 on the real objective. Column layout:
//! `[ structural (shifted) | artificial ]`.
//!
//! Pivoting uses **Bland's rule** (smallest eligible index), which
//! guarantees termination at the cost of a few extra pivots — a good trade
//! for a solver embedded in a long-running training loop where a cycling
//! hang would stall the Network Monitor. Blocks are tiny (one node's
//! out-edges plus its diagonal, two rows), so a dense tableau is simple
//! and plenty fast.

/// Numerical tolerance used for pivoting and feasibility classification.
const LP_EPS: f64 = 1e-9;

/// One sparse equality row `Σ aⱼ xⱼ = rhs`.
#[derive(Debug, Clone)]
struct Row {
    /// `(variable index, coefficient)` pairs; indices are unique.
    coeffs: Vec<(usize, f64)>,
    rhs: f64,
}

/// A linear program: minimize `cᵀx` subject to equality rows and
/// per-variable lower bounds.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
    lower_bounds: Vec<f64>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` variables, zero objective, no
    /// rows, and lower bounds of 0 for every variable.
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
            lower_bounds: vec![0.0; num_vars],
        }
    }

    /// Sets the objective coefficient of variable `var` (minimization).
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub(crate) fn set_objective(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.num_vars, "set_objective: variable out of range");
        self.objective[var] = coeff;
        self
    }

    /// Sets the lower bound of variable `var` (default 0).
    ///
    /// # Panics
    /// Panics if `var` is out of range or `lb` is not finite.
    pub(crate) fn set_lower_bound(&mut self, var: usize, lb: f64) -> &mut Self {
        assert!(
            var < self.num_vars,
            "set_lower_bound: variable out of range"
        );
        assert!(lb.is_finite(), "set_lower_bound: bound must be finite");
        self.lower_bounds[var] = lb;
        self
    }

    /// Adds the equality row `Σ coeffs = rhs`.
    ///
    /// # Panics
    /// Panics if any referenced variable is out of range, a variable is
    /// referenced twice, or any coefficient / the rhs is not finite.
    pub(crate) fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) -> &mut Self {
        assert!(rhs.is_finite(), "add_constraint: rhs must be finite");
        let mut seen = vec![false; self.num_vars];
        for &(v, c) in &coeffs {
            assert!(
                v < self.num_vars,
                "add_constraint: variable {v} out of range"
            );
            assert!(c.is_finite(), "add_constraint: coefficient must be finite");
            assert!(!seen[v], "add_constraint: duplicate variable {v}");
            seen[v] = true;
        }
        self.rows.push(Row { coeffs, rhs });
        self
    }

    /// Overwrites the right-hand side of row `row`.
    ///
    /// The policy generator solves the same row *structure* for a grid of
    /// `(ρ, t̄)` candidates; re-stamping the rhs (and lower bounds) in
    /// place avoids rebuilding every coefficient row per candidate.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub(crate) fn set_constraint_rhs(&mut self, row: usize, rhs: f64) -> &mut Self {
        assert!(
            row < self.rows.len(),
            "set_constraint_rhs: row out of range"
        );
        assert!(rhs.is_finite(), "set_constraint_rhs: rhs must be finite");
        self.rows[row].rhs = rhs;
        self
    }

    /// Evaluates the objective at a point.
    #[cfg(test)]
    fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`, to
    /// validate solver output independently of the solver.
    #[cfg(test)]
    fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.num_vars
            && x.iter()
                .zip(&self.lower_bounds)
                .all(|(xi, lb)| *xi >= lb - tol)
            && self.rows.iter().all(|row| {
                let lhs: f64 = row.coeffs.iter().map(|&(v, a)| a * x[v]).sum();
                (lhs - row.rhs).abs() <= tol
            })
    }
}

/// A primal-optimal LP solution.
#[derive(Debug, Clone)]
pub(crate) struct LpSolution {
    /// Optimal values of the decision variables.
    pub(crate) x: Vec<f64>,
}

/// Outcome of solving an LP.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// A finite optimum was found.
    Optimal(LpSolution),
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Returns the solution if optimal, `None` otherwise.
    pub(crate) fn optimal(self) -> Option<LpSolution> {
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
pub(crate) struct LpWorkspace {
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
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// [`solve_with`] on a fresh workspace.
#[cfg(test)]
pub(crate) fn solve(problem: &LpProblem) -> LpOutcome {
    solve_with(problem, &mut LpWorkspace::new())
}

/// Solves the LP with the two-phase simplex method, in caller-provided
/// scratch buffers.
///
/// Returns [`LpOutcome::Infeasible`] when phase 1 cannot drive the
/// artificial variables to zero, and [`LpOutcome::Unbounded`] when phase 2
/// finds a descent ray.
pub(crate) fn solve_with(problem: &LpProblem, ws: &mut LpWorkspace) -> LpOutcome {
    let n_struct = problem.num_vars;
    let rows = &problem.rows;
    let m = rows.len();
    let lb = &problem.lower_bounds;
    let n_total = n_struct + m; // one artificial per row (some unused)

    let mut a = std::mem::take(&mut ws.a);
    a.clear();
    a.resize(m * n_total, 0.0);
    let mut b = std::mem::take(&mut ws.b);
    b.clear();
    b.resize(m, 0.0);

    for (r, row) in rows.iter().enumerate() {
        // Shift x = lb + y: rhs' = rhs - Σ a_j lb_j.
        let mut rhs = row.rhs;
        for &(v, coef) in &row.coeffs {
            a[r * n_total + v] = coef;
            rhs -= coef * lb[v];
        }
        b[r] = rhs;
    }

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
    // n_struct + r, forming an identity basis.
    let mut basis = std::mem::take(&mut ws.basis);
    basis.clear();
    for r in 0..m {
        a[r * n_total + n_struct + r] = 1.0;
        basis.push(n_struct + r);
    }

    let mut tab = Tableau {
        a,
        b,
        m,
        n: n_total,
        basis,
    };
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
    for c in phase1_c.iter_mut().skip(n_struct) {
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
        .filter(|&r| tab.basis[r] >= n_struct)
        .map(|r| tab.b[r])
        .sum();
    if phase1_obj > 1e-7 {
        finish!(LpOutcome::Infeasible);
    }

    // Drive any residual artificial variables out of the basis (they are at
    // zero level; pivot them out on any non-artificial column, or drop the
    // redundant row by leaving it — the zero level keeps it harmless).
    for r in 0..m {
        if tab.basis[r] >= n_struct {
            if let Some(col) = (0..n_struct).find(|&j| tab.at(r, j).abs() > 1e-7) {
                tab.pivot(r, col);
            }
        }
    }

    // Phase 2: original objective on shifted variables. Forbid re-entry
    // of artificials by pricing them prohibitively.
    let phase2_c = &mut ws.phase2_c;
    phase2_c.clear();
    phase2_c.resize(n_total, 0.0);
    phase2_c[..n_struct].copy_from_slice(&problem.objective);
    // Large positive cost keeps artificial columns out of the basis.
    let big = 1.0
        + problem
            .objective
            .iter()
            .fold(0.0f64, |acc, &v| acc.max(v.abs()))
            * 1e6;
    for c in phase2_c.iter_mut().skip(n_struct) {
        *c = big;
    }
    if !tab.minimize(phase2_c, max_pivots, red) {
        finish!(LpOutcome::Unbounded);
    }

    // Extract solution: x_j = lb_j + y_j. A column is basic in at most
    // one row, so the row map reads off the same value a column scan
    // would find.
    let pos = &mut ws.pos;
    pos.clear();
    pos.resize(n_total, usize::MAX);
    for r in 0..m {
        if pos[tab.basis[r]] == usize::MAX {
            pos[tab.basis[r]] = r;
        }
    }
    let x: Vec<f64> = (0..n_struct)
        .map(|j| {
            let y = if pos[j] == usize::MAX {
                0.0
            } else {
                tab.b[pos[j]]
            };
            lb[j] + y
        })
        .collect();
    finish!(LpOutcome::Optimal(LpSolution { x }));
}

#[cfg(test)]
mod tests {
    //! Inequalities are written with explicit slack (`+s`) and surplus
    //! (`−s`) variables after the structural ones: the tableau a general
    //! `≤ / ≥` solver would build, so each textbook optimum carries over.

    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn builder_roundtrip() {
        let mut p = LpProblem::new(3);
        p.set_objective(0, 1.0)
            .set_objective(2, -2.0)
            .set_lower_bound(1, 0.5)
            .add_constraint(vec![(0, 1.0), (1, 1.0)], 4.0)
            .add_constraint(vec![(2, 3.0)], 6.0)
            .set_constraint_rhs(0, 5.0);
        assert_eq!(p.num_vars, 3);
        assert_eq!(p.objective, [1.0, 0.0, -2.0]);
        assert_eq!(p.lower_bounds, [0.0, 0.5, 0.0]);
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.rows[0].rhs, 5.0);
    }

    #[test]
    fn feasibility_check() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], 1.0);
        p.set_lower_bound(0, 0.1);
        assert!(p.is_feasible(&[0.4, 0.6], 1e-9));
        assert!(!p.is_feasible(&[0.05, 0.95], 1e-9)); // violates lb
        assert!(!p.is_feasible(&[0.5, 0.6], 1e-9)); // violates equality
        assert!(!p.is_feasible(&[0.5], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value() {
        let mut p = LpProblem::new(2);
        p.set_objective(0, 2.0).set_objective(1, -1.0);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn rejects_duplicate_vars() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(0, 1.0), (0, 2.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut p = LpProblem::new(2);
        p.add_constraint(vec![(5, 1.0)], 1.0);
    }

    /// Dantzig's example: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18,
    /// as min −3x − 5y over `[x, y, s0, s1, s2]`; optimum x = 2, y = 6.
    fn dantzig() -> LpProblem {
        let mut p = LpProblem::new(5);
        p.set_objective(0, -3.0).set_objective(1, -5.0);
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], 4.0);
        p.add_constraint(vec![(1, 2.0), (3, 1.0)], 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0), (4, 1.0)], 18.0);
        p
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        let p = dantzig();
        let s = solve(&p).optimal().expect("should be optimal");
        assert_close(s.x[0], 2.0, 1e-8);
        assert_close(s.x[1], 6.0, 1e-8);
        assert_close(p.objective_value(&s.x), -36.0, 1e-8);
        assert!(p.is_feasible(&s.x, 1e-8));
    }

    /// min x + y s.t. x + y = 1, x − y = 0 → x = y = 0.5.
    fn two_equalities() -> LpProblem {
        let mut p = LpProblem::new(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], 1.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], 0.0);
        p
    }

    #[test]
    fn equality_constraints() {
        let s = solve(&two_equalities()).optimal().expect("optimal");
        assert_close(s.x[0], 0.5, 1e-8);
        assert_close(s.x[1], 0.5, 1e-8);
    }

    #[test]
    fn ge_constraints_and_lower_bounds() {
        // min 2x + 3y s.t. x + y − s = 10 (x + y ≥ 10), x ≥ 2, y ≥ 3.
        // Optimum: push the cheap variable: x = 7, y = 3, obj = 23.
        let mut p = LpProblem::new(3);
        p.set_objective(0, 2.0).set_objective(1, 3.0);
        p.set_lower_bound(0, 2.0).set_lower_bound(1, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, -1.0)], 10.0);
        let s = solve(&p).optimal().expect("optimal");
        assert_close(s.x[0], 7.0, 1e-8);
        assert_close(s.x[1], 3.0, 1e-8);
        assert_close(p.objective_value(&s.x), 23.0, 1e-8);
    }

    /// x ≥ 5 and x ≤ 1 simultaneously, over `[x, s0, s1]`.
    fn infeasible() -> LpProblem {
        let mut p = LpProblem::new(3);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], 5.0);
        p.add_constraint(vec![(0, 1.0), (2, 1.0)], 1.0);
        p
    }

    #[test]
    fn detects_infeasible() {
        assert!(matches!(solve(&infeasible()), LpOutcome::Infeasible));
    }

    /// min −x with only x − s = 0 (x ≥ 0): unbounded below.
    fn unbounded() -> LpProblem {
        let mut p = LpProblem::new(2);
        p.set_objective(0, -1.0);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], 0.0);
        p
    }

    #[test]
    fn detects_unbounded() {
        assert!(matches!(solve(&unbounded()), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. −x + s = −3 (−x ≤ −3, i.e. x ≥ 3).
        let mut p = LpProblem::new(2);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, -1.0), (1, 1.0)], -3.0);
        let s = solve(&p).optimal().expect("optimal");
        assert_close(s.x[0], 3.0, 1e-8);
    }

    /// Beale's classically degenerate instance over `[x0..x3, s0, s1, s2]`;
    /// optimum −1/20.
    fn beale() -> LpProblem {
        let mut p = LpProblem::new(7);
        p.set_objective(0, -0.75)
            .set_objective(1, 150.0)
            .set_objective(2, -0.02)
            .set_objective(3, 6.0);
        p.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0), (4, 1.0)],
            0.0,
        );
        p.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0), (5, 1.0)],
            0.0,
        );
        p.add_constraint(vec![(2, 1.0), (6, 1.0)], 1.0);
        p
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Bland must terminate.
        let p = beale();
        let s = solve(&p)
            .optimal()
            .expect("Beale instance has optimum -1/20");
        assert_close(p.objective_value(&s.x), -0.05, 1e-6);
    }

    /// A miniature of the NetMax LP: 3 nodes in a triangle, probabilities
    /// per row summing to 1, per-row expected time fixed, minimize the
    /// self-selection mass. Variables: p01 p02 p10 p12 p20 p21 p00 p11 p22.
    const TRIANGLE_T: [[f64; 3]; 3] = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]];

    fn triangle_idx(i: usize, j: usize) -> usize {
        // off-diagonals first (row-major skipping diagonal), then diagonal.
        let off = [[usize::MAX, 0, 1], [2, usize::MAX, 3], [4, 5, usize::MAX]];
        if i == j {
            6 + i
        } else {
            off[i][j]
        }
    }

    /// `target` is the per-row expected iteration time (must be
    /// ≤ minᵢ maxₘ t_im = 1.0).
    fn triangle(target: f64) -> LpProblem {
        let lb = 0.05;
        let mut p = LpProblem::new(9);
        for i in 0..3 {
            p.set_objective(triangle_idx(i, i), 1.0);
            let mut sum_row = vec![(triangle_idx(i, i), 1.0)];
            let mut time_row = Vec::new();
            for j in 0..3 {
                if i != j {
                    sum_row.push((triangle_idx(i, j), 1.0));
                    time_row.push((triangle_idx(i, j), TRIANGLE_T[i][j]));
                    p.set_lower_bound(triangle_idx(i, j), lb);
                }
            }
            p.add_constraint(sum_row, 1.0);
            p.add_constraint(time_row, target);
        }
        p
    }

    #[test]
    fn stochastic_row_structure_like_netmax() {
        let target = 0.8;
        let p = triangle(target);
        let s = solve(&p).optimal().expect("netmax-like LP is feasible");
        assert!(p.is_feasible(&s.x, 1e-7));
        // Row sums are 1 and time rows hit the target.
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| s.x[triangle_idx(i, j)]).sum();
            assert_close(row_sum, 1.0, 1e-7);
            let row_time: f64 = (0..3)
                .filter(|&j| j != i)
                .map(|j| TRIANGLE_T[i][j] * s.x[triangle_idx(i, j)])
                .sum();
            assert_close(row_time, target, 1e-7);
        }
    }

    /// An outcome as comparable bits: the solution's `x` bit patterns, or
    /// the name of the non-optimal exit.
    fn bits(outcome: &LpOutcome) -> Result<Vec<u64>, &'static str> {
        match outcome {
            LpOutcome::Optimal(s) => Ok(s.x.iter().map(|v| v.to_bits()).collect()),
            LpOutcome::Infeasible => Err("infeasible"),
            LpOutcome::Unbounded => Err("unbounded"),
        }
    }

    #[test]
    fn a_reused_workspace_solves_every_block_to_the_bits_of_a_fresh_one() {
        // Blocks that grow, shrink, and follow an early exit, whose
        // buffers the workspace still holds when the next solve starts.
        let sequence = [
            ("two equalities", two_equalities()),
            ("dantzig (grows)", dantzig()),
            ("infeasible", infeasible()),
            ("beale (after infeasible)", beale()),
            ("unbounded", unbounded()),
            (
                "two equalities (after unbounded, shrinks)",
                two_equalities(),
            ),
            ("triangle (grows)", triangle(0.8)),
            ("dantzig (shrinks)", dantzig()),
            ("triangle at another target", triangle(0.6)),
        ];
        let mut ws = LpWorkspace::new();
        for (name, p) in &sequence {
            let reused = solve_with(p, &mut ws);
            assert_eq!(bits(&reused), bits(&solve(p)), "{name}");
        }
        let exits: Vec<_> = sequence
            .iter()
            .filter_map(|(_, p)| bits(&solve(p)).err())
            .collect();
        assert_eq!(exits, ["infeasible", "unbounded"]);
    }

    /// Rows through a known point: `(witness, objective, rows)` where each
    /// row is `(coefficients, kind, slackness)` — kind 0 is `≤`, 1 is `≥`,
    /// anything else `=`.
    type SeededRows = (Vec<f64>, Vec<f64>, Vec<(Vec<f64>, usize, f64)>);

    fn seeded_rows(n: usize, rows: usize) -> impl Strategy<Value = SeededRows> {
        (
            proptest::collection::vec(0.1f64..5.0, n),  // witness point
            proptest::collection::vec(-3.0f64..3.0, n), // objective
            proptest::collection::vec(
                (
                    proptest::collection::vec(-2.0f64..2.0, n),
                    0usize..3,
                    0.0f64..2.0,
                ),
                rows,
            ),
        )
    }

    /// The nonzero coefficients of a dense row, and the row's value at `x`.
    fn sparse_row(coeffs: &[f64], x: &[f64]) -> (Vec<(usize, f64)>, f64) {
        let lhs = coeffs.iter().zip(x).map(|(a, x)| a * x).sum();
        let sparse = coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(j, &c)| (j, c));
        (sparse.collect(), lhs)
    }

    /// Builds the LP of `seeded` with every `≤`/`≥` row given its own slack
    /// or surplus column after the structural ones, and the witness
    /// extended by those columns' values, so the witness is feasible.
    fn with_slacks((mut witness, obj, raw_rows): SeededRows) -> (LpProblem, Vec<f64>) {
        let n = witness.len();
        let mut rows = Vec::new();
        for (coeffs, kind, slackness) in raw_rows {
            let (mut sparse, lhs) = sparse_row(&coeffs, &witness[..n]);
            if sparse.is_empty() {
                continue;
            }
            // Choose rhs so the witness satisfies the row.
            let sign = match kind {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            };
            if sign != 0.0 {
                sparse.push((witness.len(), sign));
                witness.push(slackness);
            }
            rows.push((sparse, lhs + sign * slackness));
        }
        let mut p = LpProblem::new(witness.len());
        for (j, &c) in obj.iter().enumerate() {
            p.set_objective(j, c);
        }
        for (coeffs, rhs) in rows {
            p.add_constraint(coeffs, rhs);
        }
        (p, witness)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// An LP constructed around a feasible witness is never infeasible, and
        /// any reported optimum is feasible and at least as good as the witness.
        #[test]
        fn solver_respects_witness(seeded in seeded_rows(5, 4)) {
            let (p, witness) = with_slacks(seeded);
            let witness_obj = p.objective_value(&witness);
            prop_assert!(p.is_feasible(&witness, 1e-7),
                "generator bug: witness must be feasible");
            match solve(&p) {
                LpOutcome::Optimal(s) => {
                    prop_assert!(p.is_feasible(&s.x, 1e-5),
                        "optimal point not primal-feasible: {:?}", s.x);
                    let obj = p.objective_value(&s.x);
                    prop_assert!(obj <= witness_obj + 1e-6,
                        "optimum {} worse than witness {}", obj, witness_obj);
                }
                LpOutcome::Unbounded => { /* legitimate: random objectives can descend forever */ }
                LpOutcome::Infeasible => {
                    prop_assert!(false, "solver claimed infeasible despite witness");
                }
            }
        }

        /// Pure equality systems with witness: solution must satisfy all rows.
        #[test]
        fn equality_systems(seeded in seeded_rows(4, 3)) {
            let (witness, _, raw_rows) = seeded;
            let mut p = LpProblem::new(4);
            for (row_i, (coeffs, _, _)) in raw_rows.iter().enumerate() {
                let (sparse, lhs) = sparse_row(coeffs, &witness);
                if sparse.is_empty() {
                    continue;
                }
                p.add_constraint(sparse, lhs);
                // Vary objective a bit per row for coverage.
                p.set_objective(row_i % 4, 1.0);
            }
            match solve(&p) {
                LpOutcome::Optimal(s) => prop_assert!(p.is_feasible(&s.x, 1e-5)),
                LpOutcome::Unbounded => {}
                LpOutcome::Infeasible => prop_assert!(false, "infeasible despite witness"),
            }
        }
    }
}
