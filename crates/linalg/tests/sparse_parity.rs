//! Parity suite: the sparse λ₂ solver against the dense Jacobi oracle.
//!
//! Random connected topologies (n ≤ 64, densities from spanning-tree to
//! near-complete) are turned into Metropolis-weighted gossip matrices —
//! symmetric, doubly stochastic, with the graph's sparsity pattern —
//! exactly the matrix class `Y_P` belongs to. The sparse power-iteration
//! λ₂ must match the dense Jacobi eigenvalue within tolerance, including
//! the adversarial shapes: near-degenerate λ₂ ≈ λ₃ spectra, graphs that
//! fall apart after masking nodes, and a single live edge.

mod common;

use common::{connected_edges, metropolis};
use netmax_linalg::{
    second_largest_eigenvalue, second_largest_eigenvalue_sparse, symmetric_eigenvalues,
    Matrix, SparseSymmetric,
};
use proptest::prelude::*;

const MAX_ITERS: usize = 200_000;
const TOL: f64 = 1e-12;
/// Comparison tolerance between the two solvers. Power iteration's
/// Rayleigh-quotient error is quadratic in the residual, so this is loose
/// relative to the stopping tolerance but tight in absolute terms.
const PARITY_TOL: f64 = 1e-6;

fn assert_parity(dense: &Matrix, label: &str) {
    let sparse = SparseSymmetric::from_dense(dense);
    let jacobi = second_largest_eigenvalue(dense);
    let power = second_largest_eigenvalue_sparse(&sparse, MAX_ITERS, TOL);
    assert!(
        (power.eigenvalue - jacobi).abs() < PARITY_TOL,
        "{label}: sparse λ₂ {} vs dense {jacobi} ({} iters, converged={})",
        power.eigenvalue,
        power.iterations,
        power.converged
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random connected topologies across the density spectrum: sparse λ₂
    /// matches dense Jacobi.
    #[test]
    fn lambda2_parity_on_random_connected_graphs(
        n in 2usize..65,
        parents in proptest::collection::vec(0usize..64, 63),
        extra in proptest::collection::vec(0u8..2, 0..256),
        density in 0.0f64..1.0,
    ) {
        // Thin the extra edges by the drawn density so the suite covers
        // spanning trees through near-complete graphs.
        let extra: Vec<u8> = extra
            .iter()
            .enumerate()
            .map(|(k, &e)| u8::from(e == 1 && ((k % 17) as f64 / 17.0) < density))
            .collect();
        let edges = connected_edges(n, &parents, &extra);
        let m = metropolis(n, &edges);
        assert_parity(&m, "random-connected");
    }

    /// Masking a random subset of nodes (dropping their edges, keeping
    /// them as isolated self-loop rows) can disconnect the graph; the
    /// sparse solver must still agree — λ₂ = 1 for disconnected patterns.
    #[test]
    fn lambda2_parity_on_disconnected_after_masking(
        n in 4usize..33,
        parents in proptest::collection::vec(0usize..32, 31),
        dead in proptest::collection::vec(0u8..2, 32),
    ) {
        let edges = connected_edges(n, &parents, &[]);
        let live: Vec<(usize, usize)> = edges
            .iter()
            .copied()
            .filter(|&(i, j)| dead[i] == 0 && dead[j] == 0)
            .collect();
        // Masked-out nodes keep identity rows (the monitor's convention
        // for crashed nodes), which leaves the matrix doubly stochastic.
        let m = metropolis(n, &live);
        assert_parity(&m, "masked");
    }
}

#[test]
fn single_live_edge_parity() {
    // After churn only one edge may remain live: a 2-block averaging pair
    // embedded in identity rows. λ₂ = 1 (the isolated nodes), and the
    // spectrum also contains the pair's −1-like mode under full mixing.
    for n in [2usize, 3, 8, 17] {
        let m = metropolis(n, &[(0, 1)]);
        assert_parity(&m, &format!("single-edge n={n}"));
    }
}

#[test]
fn near_degenerate_lambda2_lambda3_parity() {
    // A ring's λ₂/λ₃ pair is exactly degenerate (the cos(2πk/n) modes for
    // k and n−k coincide); one chord breaks the symmetry only slightly,
    // leaving λ₂ ≈ λ₃ with a tiny gap — the worst case for power
    // iteration's eigenvector separation. Rayleigh-quotient convergence
    // must still land within the degenerate pair.
    let n = 16;
    let mut edges: Vec<(usize, usize)> =
        (0..n).map(|i| (i.min((i + 1) % n), i.max((i + 1) % n))).collect();
    edges.push((0, 2));
    let m = metropolis(n, &edges);
    let eigs = symmetric_eigenvalues(&m);
    assert!(
        (eigs[1] - eigs[2]).abs() < 0.05,
        "test graph should be near-degenerate: {} vs {}",
        eigs[1],
        eigs[2]
    );
    assert_parity(&m, "near-degenerate");
}

#[test]
fn exactly_degenerate_pair_parity() {
    // Two disjoint identical components: λ₂ = λ₃ exactly... actually
    // λ₂ = 1 exactly with multiplicity ≥ 2 once both blocks are closed.
    let m = metropolis(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    assert_parity(&m, "exact-degenerate");
}

#[test]
fn ring_and_torus_like_patterns_parity() {
    for n in [4usize, 9, 16, 25, 36, 64] {
        // Ring.
        let ring: Vec<(usize, usize)> = (0..n).map(|i| (i.min((i + 1) % n), i.max((i + 1) % n))).collect();
        assert_parity(&metropolis(n, &ring), &format!("ring n={n}"));
        // Torus over the square grid when n is a perfect square ≥ 3×3.
        let side = (n as f64).sqrt() as usize;
        if side * side == n && side >= 3 {
            let mut edges = Vec::new();
            let id = |r: usize, c: usize| r * side + c;
            for r in 0..side {
                for c in 0..side {
                    let (a, b) = (id(r, c), id((r + 1) % side, c));
                    edges.push((a.min(b), a.max(b)));
                    let (a, b) = (id(r, c), id(r, (c + 1) % side));
                    edges.push((a.min(b), a.max(b)));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            assert_parity(&metropolis(n, &edges), &format!("torus {side}x{side}"));
        }
    }
}
