//! The Lanczos screen: is λ₂ above a ceiling?
//!
//! A caller ranking matrices by an increasing function of λ₂ (the policy
//! search's `T_convergence`) does not need the λ₂ of a matrix that has
//! already lost — only the fact that it has. [`LanczosScreen`] answers
//! that question for a symmetric doubly-stochastic `Y` far more cheaply
//! than an eigensolve, and can only err on the safe side.
//!
//! ## What it runs
//!
//! The Lanczos recurrence on `Y` restricted to 1⊥, the complement of the
//! known dominant eigenvector: the start vector (the power iterations'
//! hashed start) has its mean removed, and every new vector is
//! re-orthogonalised against the all-ones vector **and every earlier
//! Lanczos vector**, twice over ("twice is enough": the first pass leaves
//! components of the size of its own rounding, the second removes them).
//! After `j` steps the orthonormal `v₁ … v_j` span a Krylov subspace of
//! 1⊥ and the tridiagonal `T_j = VᵀYV` (diagonal `α`, off-diagonal `β`)
//! is `Y` projected onto it, so by Cauchy interlacing every eigenvalue of
//! `T_j` — every *Ritz value* — is a **lower bound on λ₂**, the largest
//! eigenvalue of `Y` on 1⊥, and the largest Ritz value only grows with
//! `j`. Full re-orthogonalisation is what makes that true in floats: left
//! alone, the recurrence lets the vectors drift back towards the all-ones
//! direction and a Ritz value creeps up to λ₁ = 1.
//!
//! ## How it decides
//!
//! Without computing a single Ritz value. The LDLᵀ pivots of `T_j − c·I`,
//! `d₁ = α₁ − c`, `d_k = (α_k − c) − β²_{k−1} / d_{k−1}`, have as many
//! positive members as `T_j` has eigenvalues above `c` (Sylvester's law of
//! inertia), and `T_{j+1}` extends the sequence of `T_j` by one term. So
//! each step costs one O(1) update, and the **first positive pivot**
//! proves a Ritz value above the ceiling, hence `λ₂ > c`. No positive
//! pivot after `n − 1` steps (the dimension of 1⊥) or at a breakdown
//! (`β` vanishes: the Krylov subspace is invariant and cannot grow)
//! proves nothing — the start vector may simply carry no weight on λ₂'s
//! eigenvector — and the answer is "not shown", never "below".
//!
//! A pivot that lands exactly on zero means `c` *is* the largest Ritz
//! value: not above it. The next pivot would divide by that zero, so it is
//! replaced by the smallest negative number, which makes the next pivot
//! `+∞` — correct, because the largest eigenvalue of an unreduced
//! tridiagonal strictly exceeds that of its leading block.
//!
//! ## Why it is fast where it is used
//!
//! Lanczos is invariant under shifts of `Y`; only the *relative* spread of
//! the deflated spectrum matters. The policy search's `Y_P ≈ I − small`
//! has `1 − λ₂` between 10⁻⁵ and 10⁻⁴, where a power iteration crawls
//! (see [`crate::sparse`] for the measured step counts) and Lanczos
//! crosses a ceiling a few percent of the gap below λ₂ in a handful of
//! steps.

use crate::eig::splitmix_start;
use crate::sparse::SparseSymmetric;

/// A residual shorter than this ends the recurrence: the Krylov subspace
/// is invariant to rounding, and what remains of the vector is the noise
/// of the subtractions that produced it (≲ 1e-15 for a `Y` of norm 1),
/// not a direction. Stopping early is always safe — the screen then
/// proves nothing — so the value only has to sit above that noise and
/// below the `β` of a step that still has something to find.
const BREAKDOWN: f64 = 1e-12;

/// What [`LanczosScreen::screen`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Screened {
    /// `true`: a Ritz value on 1⊥ lies strictly above the ceiling, so λ₂
    /// does. `false` proves nothing about λ₂.
    pub exceeds: bool,
    /// Lanczos steps taken: at most `n − 1`.
    pub steps: usize,
}

/// The screen's workspace: the Lanczos vectors of the matrix in hand.
/// Sized by the first matrix and reused for every later one, whatever its
/// dimension or pattern; at most `n²` floats, the dense copy an
/// eigensolve of the same matrix would start from.
#[derive(Debug, Default)]
pub struct LanczosScreen {
    /// `v₁ … v_j`, `n` floats each.
    basis: Vec<f64>,
    /// The vector under construction: `Y·v_j`, then what survives
    /// orthogonalisation of it.
    w: Vec<f64>,
}

impl LanczosScreen {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Lanczos on `y` restricted to 1⊥ until a Ritz value exceeds
    /// `ceiling`, the subspace is exhausted, or the recurrence breaks
    /// down. `y` must be symmetric with unit row sums (the all-ones vector
    /// an eigenvector), which is what makes 1⊥ invariant.
    ///
    /// A function of `(y, ceiling)` alone — the workspace carries nothing
    /// from one call to the next — and monotone in the ceiling: a lower
    /// one is exceeded no later.
    pub fn screen(&mut self, y: &SparseSymmetric, ceiling: f64) -> Screened {
        let n = y.len();
        self.basis.clear();
        self.w.clear();
        self.w.extend((0..n as u64).map(splitmix_start));
        // d₀ = −∞ makes the first pivot α₁ − c: T₁ has no off-diagonal.
        let mut pivot = f64::NEG_INFINITY;
        for steps in 1..n {
            reorthogonalize(&mut self.w, &self.basis);
            let beta = inner_product(&self.w, &self.w).sqrt();
            if beta < BREAKDOWN {
                return Screened { exceeds: false, steps: steps - 1 };
            }
            self.basis.extend(self.w.iter().map(|x| x / beta));
            let (_, v) = self.basis.split_at(self.basis.len() - n);
            let alpha = apply(y, v, &mut self.w);
            pivot = (alpha - ceiling) - beta * beta / pivot;
            if pivot > 0.0 {
                return Screened { exceeds: true, steps };
            }
            if pivot == 0.0 {
                pivot = -f64::MIN_POSITIVE;
            }
        }
        Screened { exceeds: false, steps: n.saturating_sub(1) }
    }
}

/// `inline(never)`: the three call sites share one copy of the unrolled
/// chain (`screen` is 4.2 kB of text with it, 5.0 kB without), and a call
/// is nothing beside an `n`-long chain of dependent additions.
#[inline(never)]
fn inner_product(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// `w ← Y·v`, each row's terms in ascending column order; returns the
/// Rayleigh quotient `v·Y·v` of the unit vector `v`.
fn apply(y: &SparseSymmetric, v: &[f64], w: &mut [f64]) -> f64 {
    let rows = (0..y.len()).map(|i| y.row(i));
    for (row, out) in rows.zip(w.iter_mut()) {
        *out = row.iter().map(|&(j, a)| a * v[j]).sum();
    }
    inner_product(v, w)
}

/// Removes from `w` its mean (its component along the all-ones vector)
/// and its components along the `w.len()`-long unit vectors of `basis`,
/// one after the other, in two passes.
fn reorthogonalize(w: &mut [f64], basis: &[f64]) {
    let n = w.len();
    for _pass in 0..2 {
        let mean = w.iter().sum::<f64>() / n as f64;
        w.iter_mut().for_each(|x| *x -= mean);
        for v in basis.chunks_exact(n) {
            let along = inner_product(v, w);
            w.iter_mut().zip(v).for_each(|(x, v)| *x -= along * v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn the_triangle_walk_is_screened_on_both_sides_of_its_lambda2() {
        // Lazy walk on the triangle: λ₂ = 0.25, twice — on 1⊥ it is a
        // multiple of the identity, so the first step sees all of it and
        // the recurrence breaks down there.
        let y = SparseSymmetric::from_dense(&Matrix::from_rows(&[
            vec![0.5, 0.25, 0.25],
            vec![0.25, 0.5, 0.25],
            vec![0.25, 0.25, 0.5],
        ]));
        let mut screen = LanczosScreen::new();
        assert_eq!(screen.screen(&y, 0.2), Screened { exceeds: true, steps: 1 });
        assert_eq!(screen.screen(&y, 0.3), Screened { exceeds: false, steps: 1 });
    }
}
