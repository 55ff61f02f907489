//! The Lanczos screen against the dense Jacobi oracle.
//!
//! [`LanczosScreen`] may be wrong in one direction only. **Sound**: it
//! never reports a matrix above a ceiling its λ₂ is not above — the policy
//! search drops such a candidate unscored. **Complete enough**: a ceiling
//! below λ₂ is crossed within the `n − 1` steps 1⊥ allows, or the screen
//! would be sound and useless. And monotone in the ceiling, which is what
//! lets the search reason about "the first candidate that …". The corner
//! table holds the shapes where a Lanczos recurrence ends early or a
//! pivot recurrence divides by zero.

mod common;

use common::{connected_edges, metropolis};
use netmax_linalg::{
    second_largest_eigenvalue, second_largest_eigenvalue_sparse, LanczosScreen, Matrix, Screened,
    SparseSymmetric,
};
use proptest::prelude::*;

fn sparse(rows: &[Vec<f64>]) -> SparseSymmetric {
    SparseSymmetric::from_dense(&Matrix::from_rows(rows))
}

fn screen(y: &SparseSymmetric, ceiling: f64) -> Screened {
    LanczosScreen::new().screen(y, ceiling)
}

/// The Metropolis matrix of a random connected graph, or the lazy walk
/// `(I + W)/2` over it — the second has no negative eigenvalues.
fn gossip_matrix(n: usize, parents: &[usize], extra: &[u8], lazy: bool) -> Matrix {
    let mut w = metropolis(n, &connected_edges(n, parents, extra));
    if lazy {
        for i in 0..n {
            for j in 0..n {
                w[(i, j)] = 0.5 * (w[(i, j)] + if i == j { 1.0 } else { 0.0 });
            }
        }
    }
    w
}

/// `I − scale·L` for the graph Laplacian of the `side × side` torus.
fn damped_torus(side: usize, scale: f64) -> SparseSymmetric {
    let n = side * side;
    let mut y = SparseSymmetric::zeros(n);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            y.set(i, i, 1.0 - 4.0 * scale);
            y.set(i, r * side + (c + 1) % side, scale);
            y.set(i, ((r + 1) % side) * side + c, scale);
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sound_complete_and_monotone_on_random_gossip_matrices(
        n in 2usize..65,
        parents in proptest::collection::vec(0usize..64, 63),
        extra in proptest::collection::vec(0u8..2, 0..256),
        lazy in 0u8..2,
    ) {
        let dense = gossip_matrix(n, &parents, &extra, lazy == 1);
        let lambda2 = second_largest_eigenvalue(&dense);
        let y = SparseSymmetric::from_dense(&dense);
        let mut kernel = LanczosScreen::new();

        // Sound: the sweep's guard band above the exact value is never
        // reported exceeded, however many steps the screen takes.
        let above = kernel.screen(&y, lambda2 + 1e-9);
        prop_assert!(!above.exceeds, "λ₂ = {}: {:?}", lambda2, above);
        prop_assert!(above.steps < n);

        // Complete: a ceiling below λ₂ is crossed before 1⊥ runs out.
        let below = kernel.screen(&y, lambda2 - 1e-6);
        prop_assert!(below.exceeds && below.steps < n, "λ₂ = {}: {:?}", lambda2, below);

        // Monotone: the lower the ceiling, the sooner it is crossed.
        let mut latest = below.steps;
        for drop in [1e-4, 1e-2, 0.3, 3.0] {
            let lower = kernel.screen(&y, lambda2 - drop);
            prop_assert!(
                lower.exceeds && (1..=latest).contains(&lower.steps),
                "λ₂ − {}: {:?} after {} steps at the ceiling above", drop, lower, latest
            );
            latest = lower.steps;
        }
    }
}

#[test]
fn one_and_two_nodes() {
    // n = 1: 1⊥ is empty, there is nothing to bound.
    let one = sparse(&[vec![1.0]]);
    assert_eq!(screen(&one, -5.0), Screened { exceeds: false, steps: 0 });
    // n = 2: 1⊥ is one direction and the first Ritz value is λ₂ itself.
    let two = sparse(&[vec![0.7, 0.3], vec![0.3, 0.7]]);
    assert_eq!(screen(&two, 0.3), Screened { exceeds: true, steps: 1 });
    assert_eq!(screen(&two, 0.5), Screened { exceeds: false, steps: 1 });
    // The swap: λ₂ = −1, the value the shifted power iteration needs its
    // `(Y + I)/2` for. Lanczos sees the sign as it is.
    let swap = sparse(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
    assert_eq!(screen(&swap, -1.5), Screened { exceeds: true, steps: 1 });
    assert_eq!(screen(&swap, -0.5), Screened { exceeds: false, steps: 1 });
}

#[test]
fn the_complete_graph_breaks_down_at_once_without_a_false_alarm() {
    // Lazy walk on K₆: on 1⊥ the matrix is 0.4·I, so the start vector is
    // an eigenvector, T₁ = [0.4] is all there is to learn and the second
    // Lanczos vector would be rounding noise.
    let n = 6;
    let rows: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|j| if i == j { 0.5 } else { 0.1 }).collect()).collect();
    let y = sparse(&rows);
    assert!((second_largest_eigenvalue(&y.to_dense()) - 0.4).abs() < 1e-12);
    assert_eq!(screen(&y, 0.4 - 1e-6), Screened { exceeds: true, steps: 1 });
    assert_eq!(screen(&y, 0.4 + 1e-9), Screened { exceeds: false, steps: 1 });
    assert_eq!(screen(&y, 0.99), Screened { exceeds: false, steps: 1 });
}

#[test]
fn a_disconnected_matrix_exceeds_every_ceiling_below_one() {
    // Two components: eigenvalue 1 twice, so λ₂ = 1 — the candidate the
    // sweep must never keep.
    let y = sparse(&[
        vec![0.5, 0.5, 0.0, 0.0, 0.0],
        vec![0.5, 0.5, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.6, 0.3, 0.1],
        vec![0.0, 0.0, 0.3, 0.4, 0.3],
        vec![0.0, 0.0, 0.1, 0.3, 0.6],
    ]);
    for ceiling in [-1.0, 0.0, 0.9, 1.0 - 1e-9] {
        let got = screen(&y, ceiling);
        assert!(got.exceeds && got.steps <= 4, "ceiling {ceiling}: {got:?}");
    }
    assert!(!screen(&y, 1.0 + 1e-9).exceeds);
}

#[test]
fn a_pivot_that_lands_exactly_on_zero_is_not_a_crossing() {
    let y = SparseSymmetric::from_dense(&gossip_matrix(9, &[0, 0, 1, 2, 2, 4, 5, 3], &[], false));
    // The first pivot is α₁ − c and float subtraction gives zero only for
    // equal operands, so α₁ is the smallest ceiling the first step does
    // not cross. Bisect for it over the floats.
    let first_step = |c: f64| screen(&y, c) == Screened { exceeds: true, steps: 1 };
    let (mut crossed, mut held) = (-1.0f64, 1.0f64);
    assert!(first_step(crossed) && !first_step(held));
    loop {
        let mid = 0.5 * (crossed + held);
        if mid == crossed || mid == held {
            break;
        }
        if first_step(mid) {
            crossed = mid;
        } else {
            held = mid;
        }
    }
    let alpha1 = held;
    // At c = α₁ the first pivot is 0: c is T₁'s eigenvalue, not below it.
    // T₂'s largest eigenvalue is strictly larger (β₁ ≠ 0 on a path-like
    // tree), so the second pivot must come out positive — not NaN, and
    // not of whichever sign a division by ±0 happens to produce.
    assert_eq!(screen(&y, alpha1), Screened { exceeds: true, steps: 2 });
}

#[test]
fn the_near_identity_regime_is_crossed_in_a_handful_of_steps() {
    // The policy search's Y_P at n = 64: I − 10⁻⁴·L on the 8×8 torus, the
    // whole deflated spectrum within 10⁻³ of 1.
    let y = damped_torus(8, 1e-4);
    let lambda2 = second_largest_eigenvalue(&y.to_dense());
    assert!((1.0 - lambda2 - 1e-4 * (2.0 - 2.0f64.sqrt())).abs() < 1e-12, "λ₂ = {lambda2}");
    let ceiling = lambda2 - 0.05 * (1.0 - lambda2);
    let got = screen(&y, ceiling);
    assert!(got.exceeds && got.steps <= 16, "{got:?}");
    // The shifted power iteration's estimate converges like (λ₃'/λ₂')ᵏ
    // with both within 10⁻³ of 1: it needs hundreds of steps to get there.
    let lane = |k: usize| second_largest_eigenvalue_sparse(&y, k, 0.0).eigenvalue;
    assert!(lane(200) <= ceiling, "a power lane crossed within 200 steps: {}", lane(200));
}

#[test]
fn a_reused_workspace_answers_like_a_fresh_one() {
    let tree = [0, 1, 2, 0, 4, 5, 0, 7, 8, 2, 5];
    let mats = [
        damped_torus(8, 1e-4),
        sparse(&[vec![0.7, 0.3], vec![0.3, 0.7]]),
        SparseSymmetric::from_dense(&gossip_matrix(33, &[0; 32], &[1; 40], true)),
        sparse(&[vec![1.0]]),
        damped_torus(5, 0.1),
        SparseSymmetric::from_dense(&gossip_matrix(12, &tree, &[], false)),
    ];
    let mut kernel = LanczosScreen::new();
    for round in 0..2 {
        for (k, y) in mats.iter().enumerate() {
            let lambda2 = if y.len() > 1 { second_largest_eigenvalue(&y.to_dense()) } else { 0.0 };
            for ceiling in [lambda2 - 0.1, lambda2 - 1e-6, lambda2 + 1e-9, 2.0] {
                assert_eq!(
                    kernel.screen(y, ceiling),
                    screen(y, ceiling),
                    "matrix {k}, ceiling {ceiling}, round {round}"
                );
            }
        }
    }
}
