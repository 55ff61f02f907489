//! The expected gossip matrix `Y_P = E[(D^k)^T D^k]` and the convergence
//! bound it induces.
//!
//! Section IV of the paper shows that one NetMax global step is the linear
//! map `x^{k+1} = D^k (x^k − α g^k)` with
//! `D^k = I + αρ γ_{i,m} e_i (e_m − e_i)^T` (Eq. 18–19), where worker `i`
//! fires with probability `p_i` and picks neighbour `m` with probability
//! `p_{i,m}`. The expectation over both random indices gives the entries
//! of Eq. (22), assembled over the edge set by [`build_y_sparse`] and
//! reproduced verbatim over dense matrices by the reference [`build_y`].
//!
//! For any **feasible** policy (rows of equal expected iteration time and
//! `p_{i,m} > αρ(d_{i,m}+d_{m,i})`), Lemmas 1–3 guarantee `Y_P` is
//! symmetric, doubly stochastic, non-negative, and irreducible, so its
//! second eigenvalue λ₂ < 1 bounds the convergence rate via Eq. (23).

use crate::sparse_policy::SparsePolicy;
use netmax_linalg::{Matrix, SparseSymmetric};
use netmax_net::Topology;

/// Computes the per-node firing probabilities `p_i` of Eq. (3) from an
/// iteration-time matrix and a policy.
///
/// `p_i = (1/t̄_i) / Σ_m (1/t̄_m)` where `t̄_i = Σ_m t_{i,m} p_{i,m} d_{i,m}`
/// (Eq. 2). For a feasible policy all `t̄_i` are equal and this returns the
/// uniform vector `1/M`.
///
/// # Panics
/// Panics if shapes disagree or a node has zero expected iteration time.
pub fn node_probabilities(times: &Matrix, policy: &Matrix, topo: &Topology) -> Vec<f64> {
    let m = topo.len();
    assert_eq!(times.rows(), m, "times shape mismatch");
    assert_eq!(policy.rows(), m, "policy shape mismatch");
    let mut inv_t = Vec::with_capacity(m);
    for i in 0..m {
        let ti: f64 = (0..m)
            .map(|j| times[(i, j)] * policy[(i, j)] * topo.d(i, j))
            .sum();
        assert!(
            ti > 0.0,
            "node {i} has zero expected iteration time — policy gives it no neighbours"
        );
        inv_t.push(1.0 / ti);
    }
    let z: f64 = inv_t.iter().sum();
    inv_t.iter().map(|&x| x / z).collect()
}

/// Builds `Y_P` from a dense policy matrix per Eq. (22) — the reference
/// [`build_y_sparse`] is held to, entry for entry.
///
/// * `policy` — `p_{i,m}`, an `M × M` row-stochastic matrix whose diagonal
///   holds the self-selection probability.
/// * `p_node` — firing probabilities `p_i` (uniform `1/M` for feasible
///   policies, per Lemma 1).
/// * `alpha`, `rho` — learning rate α and disagreement weight ρ.
///
/// # Panics
/// Panics if shapes disagree.
pub fn build_y(
    policy: &Matrix,
    topo: &Topology,
    p_node: &[f64],
    alpha: f64,
    rho: f64,
) -> Matrix {
    let m = topo.len();
    assert_eq!(policy.rows(), m, "policy shape mismatch");
    assert_eq!(p_node.len(), m, "p_node length mismatch");
    let ar = alpha * rho;

    // γ_{i,m} = (d_{i,m} + d_{m,i}) / (2 p_{i,m}); undefined when
    // p_{i,m} = 0, but every such term is multiplied by p_{i,m} — we fold
    // the product analytically:  p_{i,m} γ_{i,m}     = (d+d)/2
    //                            p_{i,m} γ_{i,m}²   = ((d+d)/2)² / p_{i,m}
    let half_d = |i: usize, j: usize| (topo.d(i, j) + topo.d(j, i)) / 2.0;

    let mut y = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            if i == j || !topo.is_edge(i, j) {
                continue;
            }
            let (pij, pji) = (policy[(i, j)], policy[(j, i)]);
            // First-order terms: p_i p_{i,j} γ_{i,j} = p_i (d+d)/2.
            let lin = p_node[i] * half_d(i, j) * ind(pij)
                + p_node[j] * half_d(j, i) * ind(pji);
            // Second-order: p_i p_{i,j} γ² = p_i ((d+d)/2)² / p_{i,j}.
            let quad = p_node[i] * sq(half_d(i, j)) * safe_div(pij)
                + p_node[j] * sq(half_d(j, i)) * safe_div(pji);
            y[(i, j)] = ar * lin - ar * ar * quad;
        }
    }
    // Diagonal from Eq. (22): row-local subtraction plus quadratic term.
    for i in 0..m {
        let mut lin = 0.0;
        let mut quad = 0.0;
        for j in 0..m {
            if i == j || !topo.is_edge(i, j) {
                continue;
            }
            lin += p_node[i] * half_d(i, j) * ind(policy[(i, j)]);
            quad += p_node[i] * sq(half_d(i, j)) * safe_div(policy[(i, j)])
                + p_node[j] * sq(half_d(j, i)) * safe_div(policy[(j, i)]);
        }
        y[(i, i)] = 1.0 - 2.0 * ar * lin + ar * ar * quad;
    }
    y
}

/// Assembles `Y_P` (Eq. 22) for the policy generator as a
/// [`SparseSymmetric`] whose pattern is the topology's edges plus the
/// diagonal: the entries of `y_entries`, row by row. Every stored entry
/// is float-identical to the dense [`build_y`] output (both iterate the
/// support in ascending column order; absent pairs are exactly zero), so
/// either eigensolver sees the matrix the dense formulation defines.
///
/// # Panics
/// Panics if shapes disagree.
pub fn build_y_sparse(
    policy: &SparsePolicy,
    topo: &Topology,
    p_node: &[f64],
    alpha: f64,
    rho: f64,
) -> SparseSymmetric {
    let m = topo.len();
    assert_eq!(policy.len(), m, "policy shape mismatch");
    assert_eq!(p_node.len(), m, "p_node length mismatch");
    let mut rows: Vec<Vec<(usize, f64)>> =
        (0..m).map(|i| Vec::with_capacity(topo.degree(i) + 1)).collect();
    for (i, j, v) in y_entries(policy, topo, p_node, alpha, rho) {
        if let Some(row) = rows.get_mut(i) {
            row.push((j, v));
        }
    }
    SparseSymmetric::from_rows(rows)
}

/// The one place Eq. (22) is evaluated over the edge set: `Y_P`'s entries
/// as `(i, j, y_ij)`, row by row, each row's columns ascending with the
/// diagonal in its sorted place. [`build_y_sparse`] collects them; the
/// policy search past the eigensolver threshold writes them straight into
/// a power lane.
pub(crate) fn y_entries<'a>(
    policy: &'a SparsePolicy,
    topo: &'a Topology,
    p_node: &'a [f64],
    alpha: f64,
    rho: f64,
) -> impl Iterator<Item = (usize, usize, f64)> + 'a {
    let ar = alpha * rho;
    let half_d = move |i: usize, j: usize| (topo.d(i, j) + topo.d(j, i)) / 2.0;
    (0..topo.len()).flat_map(move |i| {
        let nbrs = topo.neighbors(i);
        // Diagonal, accumulated over neighbours in the same ascending
        // order the dense loop uses.
        let mut lin = 0.0;
        let mut quad = 0.0;
        for &j in nbrs {
            lin += p_node[i] * half_d(i, j) * ind(policy.get(i, j));
            quad += p_node[i] * sq(half_d(i, j)) * safe_div(policy.get(i, j))
                + p_node[j] * sq(half_d(j, i)) * safe_div(policy.get(j, i));
        }
        let diagonal = (i, i, 1.0 - 2.0 * ar * lin + ar * ar * quad);
        let off_diagonal = move |&j: &usize| {
            let (pij, pji) = (policy.get(i, j), policy.get(j, i));
            let lin = p_node[i] * half_d(i, j) * ind(pij) + p_node[j] * half_d(j, i) * ind(pji);
            let quad = p_node[i] * sq(half_d(i, j)) * safe_div(pij)
                + p_node[j] * sq(half_d(j, i)) * safe_div(pji);
            (i, j, ar * lin - ar * ar * quad)
        };
        let (below, above) = nbrs.split_at(nbrs.partition_point(|&j| j < i));
        below.iter().map(off_diagonal).chain([diagonal]).chain(above.iter().map(off_diagonal))
    })
}

/// Indicator that the probability is positive (a worker that never selects
/// a neighbour contributes nothing through that term).
fn ind(p: f64) -> f64 {
    if p > 0.0 {
        1.0
    } else {
        0.0
    }
}

fn safe_div(p: f64) -> f64 {
    if p > 0.0 {
        1.0 / p
    } else {
        0.0
    }
}

fn sq(x: f64) -> f64 {
    x * x
}

/// Evaluates the convergence bound of Theorem 1 (Eq. 23):
/// `E‖x^k − x*1‖² ≤ λᵏ ‖x⁰ − x*1‖² + α²σ² λ/(1−λ)`.
///
/// Returns the bound value; callers compare successive `k` or policies.
///
/// # Panics
/// Panics unless `0 ≤ lambda < 1`.
pub fn convergence_bound(
    lambda: f64,
    k: u64,
    initial_deviation_sq: f64,
    alpha: f64,
    sigma_sq: f64,
) -> f64 {
    assert!((0.0..1.0).contains(&lambda), "bound requires 0 ≤ λ < 1, got {lambda}");
    lambda.powi(k.min(i32::MAX as u64) as i32) * initial_deviation_sq
        + alpha * alpha * sigma_sq * lambda / (1.0 - lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_linalg::{
        is_doubly_stochastic, is_irreducible, is_nonnegative, is_symmetric,
        second_largest_eigenvalue,
    };

    /// A feasible uniform policy on the complete graph: every node picks
    /// each neighbour with probability q and itself with 1 − (M−1) q.
    fn uniform_policy(m: usize, q: f64) -> Matrix {
        let mut p = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                p[(i, j)] = if i == j { 1.0 - (m as f64 - 1.0) * q } else { q };
            }
        }
        p
    }

    #[test]
    fn uniform_policy_yields_doubly_stochastic_y() {
        let m = 5;
        let topo = Topology::fully_connected(m);
        let policy = uniform_policy(m, 0.2);
        let p_node = vec![1.0 / m as f64; m];
        let (alpha, rho) = (0.05, 1.0);
        // Feasibility: q = 0.2 > 2αρ = 0.1. ✓
        let y = build_y(&policy, &topo, &p_node, alpha, rho);
        assert!(is_symmetric(&y, 1e-12), "Lemma 1 symmetry violated:\n{y:?}");
        assert!(is_nonnegative(&y, 1e-12), "Lemma 2 violated");
        assert!(is_doubly_stochastic(&y, 1e-9), "Lemma 1 stochasticity violated:\n{y:?}");
        assert!(is_irreducible(&y, 1e-12), "Lemma 3 violated");
        let l2 = second_largest_eigenvalue(&y);
        assert!(l2 < 1.0, "Theorem 3: λ₂ must be < 1, got {l2}");
        assert!(l2 > 0.0);
    }

    #[test]
    fn infeasible_policy_breaks_nonnegativity() {
        // q < 2αρ violates Eq. (11); y_{i,m} goes negative.
        let m = 4;
        let topo = Topology::fully_connected(m);
        let policy = uniform_policy(m, 0.05);
        let p_node = vec![0.25; m];
        let y = build_y(&policy, &topo, &p_node, 0.1, 1.0); // 2αρ = 0.2 > 0.05
        assert!(!is_nonnegative(&y, 1e-12), "expected a negative off-diagonal");
    }

    #[test]
    fn ring_topology_keeps_zero_pattern() {
        let m = 6;
        let topo = Topology::ring(m);
        // Each node: two neighbours at 0.3, self 0.4.
        let mut policy = Matrix::zeros(m, m);
        for i in 0..m {
            policy[(i, i)] = 0.4;
            policy[(i, (i + 1) % m)] = 0.3;
            policy[(i, (i + m - 1) % m)] = 0.3;
        }
        let p_node = vec![1.0 / m as f64; m];
        let y = build_y(&policy, &topo, &p_node, 0.05, 1.0);
        // Non-adjacent pairs must stay zero.
        assert_eq!(y[(0, 2)], 0.0);
        assert_eq!(y[(0, 3)], 0.0);
        assert!(y[(0, 1)] > 0.0);
        assert!(is_doubly_stochastic(&y, 1e-9));
        assert!(is_irreducible(&y, 1e-12));
    }

    #[test]
    fn node_probabilities_uniform_for_equal_times() {
        let m = 4;
        let topo = Topology::fully_connected(m);
        let policy = uniform_policy(m, 0.2);
        let mut times = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    times[(i, j)] = 2.0;
                }
            }
        }
        let p = node_probabilities(&times, &policy, &topo);
        for pi in p {
            assert!((pi - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn node_probabilities_favor_fast_nodes() {
        // Node 0 has much faster links: it fires more often.
        let m = 3;
        let topo = Topology::fully_connected(m);
        let policy = uniform_policy(m, 0.3);
        let mut times = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    times[(i, j)] = if i == 0 { 0.1 } else { 1.0 };
                }
            }
        }
        let p = node_probabilities(&times, &policy, &topo);
        assert!(p[0] > p[1] && p[0] > p[2]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_y_matches_dense_entrywise() {
        // Ring: the sparse assembly must reproduce the dense Eq. 22
        // entries bit for bit over the pattern, and zero elsewhere.
        let m = 8;
        let topo = Topology::ring(m);
        let mut policy = Matrix::zeros(m, m);
        for i in 0..m {
            policy[(i, i)] = 0.4;
            policy[(i, (i + 1) % m)] = 0.25 + 0.01 * i as f64;
            policy[(i, (i + m - 1) % m)] = 0.35 - 0.01 * i as f64;
        }
        let p_node = vec![1.0 / m as f64; m];
        let (alpha, rho) = (0.05, 1.0);
        let dense = build_y(&policy, &topo, &p_node, alpha, rho);
        let sparse = build_y_sparse(
            &crate::sparse_policy::SparsePolicy::from_dense(&policy),
            &topo,
            &p_node,
            alpha,
            rho,
        );
        for i in 0..m {
            for j in 0..m {
                assert_eq!(sparse.get(i, j), dense[(i, j)], "Y[{i},{j}] differs");
            }
        }
    }

    #[test]
    fn smaller_lambda_gives_tighter_bound() {
        let b_small = convergence_bound(0.5, 50, 100.0, 0.1, 1.0);
        let b_large = convergence_bound(0.99, 50, 100.0, 0.1, 1.0);
        assert!(b_small < b_large);
    }

    #[test]
    fn bound_decays_in_k() {
        let b10 = convergence_bound(0.9, 10, 100.0, 0.1, 1.0);
        let b100 = convergence_bound(0.9, 100, 100.0, 0.1, 1.0);
        assert!(b100 < b10);
        // Floor: the α²σ²λ/(1−λ) noise ball.
        let floor = 0.1 * 0.1 * 1.0 * 0.9 / 0.1;
        assert!(convergence_bound(0.9, 10_000, 100.0, 0.1, 1.0) >= floor);
    }

    #[test]
    #[should_panic(expected = "λ")]
    fn bound_rejects_lambda_one() {
        let _ = convergence_bound(1.0, 10, 1.0, 0.1, 1.0);
    }
}
