//! Eigenvalue routines for symmetric matrices.
//!
//! The policy search evaluates λ₂ of `Y_P` for hundreds of candidate
//! policies per Network-Monitor round, so the eigensolver must be robust on
//! symmetric (near-)doubly-stochastic matrices. We use the classical
//! **cyclic Jacobi** method: it is unconditionally convergent on symmetric
//! matrices, needs no shifts or balancing, and for the small M (number of
//! worker nodes) in this problem it is also fast.
//!
//! [`power_iteration`] is provided as an independent cross-check used by the
//! property tests (dominant eigenvalue of a doubly stochastic matrix must
//! be 1, and deflation by the all-ones vector must recover λ₂).

use crate::matrix::Matrix;

/// Hard cap on Jacobi sweeps; convergence is typically reached in < 15
/// sweeps for matrices of this size.
const MAX_SWEEPS: usize = 100;

/// Off-diagonal magnitude at which the Jacobi iteration stops.
const JACOBI_TOL: f64 = 1e-12;

/// Computes all eigenvalues of a symmetric matrix, sorted **descending**.
///
/// Uses the cyclic Jacobi method. The input must be square and symmetric;
/// symmetry is checked with a loose tolerance in debug builds.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigenvalues(a: &Matrix) -> Vec<f64> {
    assert!(a.is_square(), "symmetric_eigenvalues: matrix must be square");
    debug_assert!(
        crate::stochastic::is_symmetric(a, 1e-7),
        "symmetric_eigenvalues: matrix is not symmetric"
    );
    let n = a.rows();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![a[(0, 0)]];
    }

    let mut m = a.clone();
    for _sweep in 0..MAX_SWEEPS {
        if m.max_offdiag_abs() < JACOBI_TOL {
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                jacobi_rotate(&mut m, p, q);
            }
        }
    }

    let mut eigs = m.diagonal();
    eigs.sort_by(|a, b| b.total_cmp(a));
    eigs
}

/// Applies one Jacobi rotation zeroing `m[(p, q)]` (and `m[(q, p)]`).
///
/// The iterate stays *exactly* symmetric (both triangles are written with
/// the same value), so the rotation reads row `p`/`q` contiguously where
/// the textbook form walks columns: `m[(k, p)] == m[(p, k)]` bit-for-bit,
/// and `c·a_kp − s·a_kq` is computed from the same inputs either way. The
/// row walk turns the strided, branchy column update into two slice
/// passes the compiler vectorises.
///
/// `inline(always)`: once `second_largest_eigenvalue` has callers in more
/// than one crate LLVM stops inlining this into the sweep loop, which
/// costs ~13 % on a 64×64 solve; the attribute changes no computed bit.
#[inline(always)]
fn jacobi_rotate(m: &mut Matrix, p: usize, q: usize) {
    debug_assert!(p < q, "jacobi_rotate: requires p < q");
    let apq = m[(p, q)];
    if apq.abs() < f64::MIN_POSITIVE {
        return;
    }
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let theta = (aqq - app) / (2.0 * apq);
    // Stable computation of t = tan(rotation angle): the smaller root of
    // t^2 + 2*theta*t - 1 = 0.
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;

    let n = m.rows();
    {
        let data = m.as_mut_slice();
        let (lo, hi) = data.split_at_mut(q * n);
        let rp = &mut lo[p * n..p * n + n];
        let rq = &mut hi[..n];
        for (a, b) in rp.iter_mut().zip(rq.iter_mut()) {
            let akp = *a;
            let akq = *b;
            *a = c * akp - s * akq;
            *b = s * akp + c * akq;
        }
    }
    // The four entries in rows p/q that the closed forms govern were
    // rotated along with the rest of the rows; overwrite them.
    m[(p, p)] = app - t * apq;
    m[(q, q)] = aqq + t * apq;
    m[(p, q)] = 0.0;
    m[(q, p)] = 0.0;
    // Mirror the rotated rows back onto columns p and q so the exact
    // symmetry invariant survives for the next rotation.
    for k in 0..n {
        if k != p && k != q {
            m[(k, p)] = m[(p, k)];
            m[(k, q)] = m[(q, k)];
        }
    }
}

/// Returns the second largest eigenvalue of a symmetric matrix.
///
/// This is the λ (or λ₂) of the paper's Eq. (7)/(9): the quantity that
/// bounds the convergence rate of any consensus algorithm expressible as
/// `x^{k+1} = D^k (x^k - α g^k)`.
///
/// # Panics
/// Panics if the matrix has fewer than 2 rows.
pub fn second_largest_eigenvalue(a: &Matrix) -> f64 {
    let eigs = symmetric_eigenvalues(a);
    assert!(eigs.len() >= 2, "second_largest_eigenvalue: need at least a 2x2 matrix");
    eigs[1]
}

/// Result of a [`power_iteration`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerIterationResult {
    /// The estimated dominant eigenvalue (Rayleigh quotient at termination).
    pub eigenvalue: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// `true` if the iteration met its tolerance before the iteration cap.
    pub converged: bool,
}

/// Component `i` of the power iterations' deterministic start vector:
/// the SplitMix64 finaliser of `i`, mapped to (0.5, 1.5). The dense and
/// the sparse solver both start here, so they are paired draws in tests.
pub(crate) fn splitmix_start(i: u64) -> f64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.5 + (z as f64 / u64::MAX as f64)
}

/// Power iteration for the dominant eigenvalue of a symmetric matrix,
/// optionally deflated against a fixed vector.
///
/// If `deflate` is `Some(v)`, every iterate is orthogonalised against `v`,
/// so the returned value estimates the dominant eigenvalue on the subspace
/// orthogonal to `v`. For a doubly stochastic symmetric matrix, deflating
/// against the all-ones vector yields λ₂. This is used as an independent
/// cross-check of the Jacobi solver in tests.
pub fn power_iteration(
    a: &Matrix,
    deflate: Option<&[f64]>,
    max_iters: usize,
    tol: f64,
) -> PowerIterationResult {
    assert!(a.is_square(), "power_iteration: matrix must be square");
    let n = a.rows();
    assert!(n > 0, "power_iteration: empty matrix");

    // Deterministic start vector. A nonlinear (hashed) sequence is used
    // instead of an affine one: affine sequences can be exactly orthogonal
    // to structured eigenvectors (e.g. of block-diagonal gossip matrices).
    let mut v: Vec<f64> = (0..n as u64).map(splitmix_start).collect();
    orthogonalize(&mut v, deflate);
    normalize(&mut v);

    let mut lambda = 0.0;
    for it in 0..max_iters {
        let mut w = a.matvec(&v);
        orthogonalize(&mut w, deflate);
        let norm = l2(&w);
        if norm < 1e-300 {
            // The deflated operator annihilated the iterate: eigenvalue 0.
            return PowerIterationResult { eigenvalue: 0.0, iterations: it, converged: true };
        }
        for x in &mut w {
            *x /= norm;
        }
        // Rayleigh quotient.
        let av = a.matvec(&w);
        let new_lambda: f64 = w.iter().zip(&av).map(|(a, b)| a * b).sum();
        let delta = (new_lambda - lambda).abs();
        lambda = new_lambda;
        v = w;
        if it > 0 && delta < tol {
            return PowerIterationResult { eigenvalue: lambda, iterations: it + 1, converged: true };
        }
    }
    PowerIterationResult { eigenvalue: lambda, iterations: max_iters, converged: false }
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = l2(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

fn orthogonalize(v: &mut [f64], against: Option<&[f64]>) {
    if let Some(u) = against {
        let uu: f64 = u.iter().map(|x| x * x).sum();
        if uu == 0.0 {
            return;
        }
        let uv: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        let coef = uv / uu;
        for (x, &y) in v.iter_mut().zip(u) {
            *x -= coef * y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let e = symmetric_eigenvalues(&m);
        assert!(approx(e[0], 3.0, 1e-12));
        assert!(approx(e[1], 2.0, 1e-12));
        assert!(approx(e[2], -1.0, 1e-12));
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigenvalues(&m);
        assert!(approx(e[0], 3.0, 1e-10));
        assert!(approx(e[1], 1.0, 1e-10));
        assert!(approx(second_largest_eigenvalue(&m), 1.0, 1e-10));
    }

    #[test]
    fn trace_is_preserved() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let e = symmetric_eigenvalues(&m);
        let sum: f64 = e.iter().sum();
        assert!(approx(sum, m.trace(), 1e-9));
    }

    #[test]
    fn doubly_stochastic_has_top_eigenvalue_one() {
        // Lazy random-walk matrix on a triangle: symmetric, doubly stochastic.
        let m = Matrix::from_rows(&[
            vec![0.5, 0.25, 0.25],
            vec![0.25, 0.5, 0.25],
            vec![0.25, 0.25, 0.5],
        ]);
        let e = symmetric_eigenvalues(&m);
        assert!(approx(e[0], 1.0, 1e-10));
        // Complete-graph lazy walk: the other eigenvalues are 0.25.
        assert!(approx(e[1], 0.25, 1e-10));
        assert!(approx(e[2], 0.25, 1e-10));
    }

    #[test]
    fn power_iteration_matches_jacobi_on_dominant() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let jac = symmetric_eigenvalues(&m);
        let pow = power_iteration(&m, None, 10_000, 1e-13);
        assert!(pow.converged);
        assert!(approx(pow.eigenvalue, jac[0], 1e-8));
    }

    #[test]
    fn deflated_power_iteration_recovers_lambda2() {
        let m = Matrix::from_rows(&[
            vec![0.6, 0.3, 0.1],
            vec![0.3, 0.4, 0.3],
            vec![0.1, 0.3, 0.6],
        ]);
        let ones = vec![1.0; 3];
        let jac2 = second_largest_eigenvalue(&m);
        let pow = power_iteration(&m, Some(&ones), 10_000, 1e-13);
        assert!(pow.converged);
        assert!(approx(pow.eigenvalue, jac2, 1e-8));
    }

    #[test]
    fn one_by_one() {
        let m = Matrix::from_rows(&[vec![7.0]]);
        assert_eq!(symmetric_eigenvalues(&m), vec![7.0]);
    }
}
