//! The lock-step λ₂ kernel against the loop it replaced.
//!
//! [`PowerLanes`] promises that a lane is indifferent to its neighbours:
//! whatever the batch width, however many lanes are filled, whenever the
//! others retire, a lane that runs to its end returns the bits
//! [`second_largest_eigenvalue_sparse`] returns for that matrix alone —
//! and that function, now one lane of the same kernel, still performs the
//! float operations of the two-products-per-step loop written out below.
//! The last test writes down the premise of early abandonment, that the
//! estimate never decreases, where it can fail.

mod common;

use common::{connected_edges, metropolis};
use netmax_linalg::eig::PowerIterationResult;
use netmax_linalg::{second_largest_eigenvalue_sparse, LaneOutcome, PowerLanes, SparseSymmetric};
use proptest::prelude::*;

/// The sweep's settings, with a cap small enough to bind on the rings.
const MAX_ITERS: usize = 300;
const TOL: f64 = 1e-12;

/// Deflated power iteration on `B = (Y + I)/2` as the textbook has it:
/// deflate, normalise, apply `B` once for the iterate and once more for
/// the Rayleigh quotient, every reduction a plain `.sum()`.
fn textbook_lambda2(y: &SparseSymmetric, max_iters: usize, tol: f64) -> PowerIterationResult {
    let n = y.len();
    let apply = |v: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| 0.5 * (y.row(i).iter().map(|&(j, a)| a * v[j]).sum::<f64>() + v[i]))
            .collect()
    };
    let deflate = |v: &mut [f64]| {
        let mean = v.iter().sum::<f64>() / n as f64;
        v.iter_mut().for_each(|x| *x -= mean);
    };
    let l2 = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();

    let mut v: Vec<f64> = (0..n as u64)
        .map(|i| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.5 + (z as f64 / u64::MAX as f64)
        })
        .collect();
    deflate(&mut v);
    let norm = l2(&v);
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }

    let mut mu = 0.0;
    for it in 0..max_iters {
        let mut w = apply(&v);
        deflate(&mut w);
        let norm = l2(&w);
        if norm < 1e-300 {
            return PowerIterationResult { eigenvalue: -1.0, iterations: it, converged: true };
        }
        w.iter_mut().for_each(|x| *x /= norm);
        let new_mu: f64 = w.iter().zip(&apply(&w)).map(|(a, b)| a * b).sum();
        let delta = (new_mu - mu).abs();
        mu = new_mu;
        v = w;
        if it > 0 && delta < tol {
            let eigenvalue = 2.0 * mu - 1.0;
            return PowerIterationResult { eigenvalue, iterations: it + 1, converged: true };
        }
    }
    PowerIterationResult { eigenvalue: 2.0 * mu - 1.0, iterations: max_iters, converged: false }
}

fn bits(r: PowerIterationResult) -> (u64, usize, bool) {
    (r.eigenvalue.to_bits(), r.iterations, r.converged)
}

/// Symmetric doubly-stochastic matrices that all have the pattern of
/// `edges` plus the diagonal: per-edge weights drawn from `seed`, the
/// diagonal taking what is left of each row.
fn weighted_family(n: usize, edges: &[(usize, usize)], seeds: u64) -> Vec<SparseSymmetric> {
    let degree = |i: usize| edges.iter().filter(|&&(a, b)| a == i || b == i).count();
    let max_degree = (0..n).map(degree).max().unwrap_or(1) as f64;
    (0..seeds)
        .map(|seed| {
            let mut rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
            for (e, &(a, b)) in edges.iter().enumerate() {
                let mix = ((e as u64 + 1) * (seed + 3) * 2_654_435_761) % 1_000;
                let w = (0.2 + 0.8 * mix as f64 / 1_000.0) / (max_degree + 1.0);
                rows[a].push((b, w));
                rows[b].push((a, w));
            }
            for (i, row) in rows.iter_mut().enumerate() {
                row.sort_by_key(|&(j, _)| j);
                let off: f64 = row.iter().filter(|&&(j, _)| j != i).map(|&(_, w)| w).sum();
                for entry in row.iter_mut().filter(|entry| entry.0 == i) {
                    entry.1 = 1.0 - off;
                }
            }
            SparseSymmetric::from_rows(rows)
        })
        .collect()
}

fn ring_with_chords(n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend([(0, n / 2), (1, n / 3 + 2)]);
    edges
}

/// The 3×3 full pattern holding every way a lane can end early: the lazy
/// walk on the triangle (degenerate deflated spectrum: converges on the
/// second step), `2J/3 − I` (deflated `B` is zero up to the rounding of
/// 2/3: annihilated within a few steps, λ₂ = −1),
/// a block-diagonal matrix (λ₂ = 1), and one ordinary matrix.
fn full_pattern_corner_cases() -> Vec<SparseSymmetric> {
    let full = |m: [[f64; 3]; 3]| {
        SparseSymmetric::from_rows(
            m.iter().map(|r| r.iter().copied().enumerate().collect()).collect(),
        )
    };
    let t = 2.0 / 3.0;
    vec![
        full([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]),
        full([[t - 1.0, t, t], [t, t - 1.0, t], [t, t, t - 1.0]]),
        full([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
        full([[0.6, 0.3, 0.1], [0.3, 0.2, 0.5], [0.1, 0.5, 0.4]]),
    ]
}

/// Loads `mats[k]` into lane `lanes[k]` with no ceiling and demands the
/// solo result for each, `None` everywhere else.
fn assert_lanes_match_solo<const L: usize>(mats: &[SparseSymmetric], lanes: &[usize]) {
    let mut kernel = PowerLanes::<L>::for_pattern(&mats[0]);
    // Twice over: a batch must leave nothing behind for the next.
    for round in 0..2 {
        for (y, &lane) in mats.iter().zip(lanes) {
            kernel.load_lane(lane, y, f64::INFINITY);
        }
        let outcomes = kernel.run_lanes(MAX_ITERS, TOL);
        for (lane, outcome) in outcomes.iter().enumerate() {
            let expected = lanes
                .iter()
                .position(|&l| l == lane)
                .map(|k| second_largest_eigenvalue_sparse(&mats[k], MAX_ITERS, TOL));
            match (outcome, expected) {
                (Some(LaneOutcome::Finished(got)), Some(solo)) => assert_eq!(
                    bits(*got),
                    bits(solo),
                    "L = {L}, lane {lane} of {lanes:?}, round {round}: {got:?} vs {solo:?}"
                ),
                (None, None) => {}
                other => panic!("L = {L}, lane {lane} of {lanes:?}: {other:?}"),
            }
        }
    }
    assert_eq!(kernel.run_lanes(MAX_ITERS, TOL), [None; L], "run_lanes empties the lanes");
}

/// Every fill of an `L`-wide batch: the first `k` lanes for each `k`, and
/// the same matrices pushed to the far end of the batch.
fn assert_every_fill_matches_solo<const L: usize>(mats: &[SparseSymmetric]) {
    for fill in 1..=L.min(mats.len()) {
        let front: Vec<usize> = (0..fill).collect();
        let back: Vec<usize> = (L - fill..L).rev().collect();
        assert_lanes_match_solo::<L>(&mats[..fill], &front);
        assert_lanes_match_solo::<L>(&mats[mats.len() - fill..], &back);
    }
}

#[test]
fn one_lane_is_the_textbook_loop_bit_for_bit() {
    let n = 12;
    let mut all = weighted_family(n, &ring_with_chords(n), 5);
    all.extend(full_pattern_corner_cases());
    all.push(SparseSymmetric::from_rows(vec![vec![(0, 1.0)]]));
    all.push(SparseSymmetric::from_rows(vec![vec![(0, 0.0), (1, 1.0)], vec![(0, 1.0), (1, 0.0)]]));
    for (k, y) in all.iter().enumerate() {
        for cap in [0, 1, 2, 17, MAX_ITERS] {
            assert_eq!(
                bits(second_largest_eigenvalue_sparse(y, cap, TOL)),
                bits(textbook_lambda2(y, cap, TOL)),
                "matrix {k}, cap {cap}"
            );
        }
    }
}

#[test]
fn every_lane_of_every_width_returns_the_solo_bits() {
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 8);
    // The cap binds on this family: these are the lanes of a real sweep.
    assert!(ring.iter().all(|y| !second_largest_eigenvalue_sparse(y, MAX_ITERS, TOL).converged));
    assert_every_fill_matches_solo::<1>(&ring);
    assert_every_fill_matches_solo::<2>(&ring);
    assert_every_fill_matches_solo::<4>(&ring);
    assert_every_fill_matches_solo::<8>(&ring);
}

#[test]
fn lanes_that_end_early_do_not_disturb_the_rest() {
    let corners = full_pattern_corner_cases();
    let solo: Vec<_> =
        corners.iter().map(|y| second_largest_eigenvalue_sparse(y, MAX_ITERS, TOL)).collect();
    // The cases are what they claim to be, and they end at different steps.
    assert!(solo[0].converged && solo[0].iterations == 2, "lazy walk: {:?}", solo[0]);
    assert!(solo[1].eigenvalue == -1.0 && solo[1].iterations < 4, "annihilated: {:?}", solo[1]);
    assert!((solo[2].eigenvalue - 1.0).abs() < 1e-9, "disconnected: {:?}", solo[2]);
    assert!(solo[3].iterations > solo[0].iterations, "ordinary lane: {:?}", solo[3]);
    assert_every_fill_matches_solo::<1>(&corners);
    assert_every_fill_matches_solo::<2>(&corners);
    assert_every_fill_matches_solo::<4>(&corners);
    assert_every_fill_matches_solo::<8>(&corners);
}

#[test]
fn a_capped_lane_stops_and_its_neighbours_run_on() {
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 4);
    let solo: Vec<_> =
        ring.iter().map(|y| second_largest_eigenvalue_sparse(y, MAX_ITERS, TOL)).collect();
    // With a zero tolerance nothing converges, so a cap of `k` reads the
    // estimate after `k` steps.
    let estimate =
        |y: &SparseSymmetric, k: usize| second_largest_eigenvalue_sparse(y, k, 0.0).eigenvalue;
    let ceiling = estimate(&ring[1], 40);
    let crossing = (1..=MAX_ITERS)
        .find(|&k| estimate(&ring[1], k) > ceiling)
        .expect("the estimate keeps climbing past its value at step 40");
    assert!(crossing > 40 && crossing < MAX_ITERS, "crossing at {crossing}");

    let mut kernel = PowerLanes::<4>::for_pattern(&ring[0]);
    for (lane, y) in ring.iter().enumerate() {
        kernel.load_lane(lane, y, if lane == 1 { ceiling } else { f64::INFINITY });
    }
    let outcomes = kernel.run_lanes(MAX_ITERS, TOL);
    for (lane, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Some(LaneOutcome::Abandoned { iterations }) => {
                assert_eq!((lane, *iterations), (1, crossing));
            }
            Some(LaneOutcome::Finished(got)) => {
                assert_ne!(lane, 1, "the capped lane ran on: {got:?}");
                assert_eq!(bits(*got), bits(solo[lane]), "lane {lane}");
            }
            None => panic!("lane {lane} was loaded"),
        }
    }

    // A ceiling the estimate never exceeds retires nothing — equality is
    // not a crossing.
    let last = solo[1].eigenvalue;
    kernel.load_lane(0, &ring[1], last);
    assert_eq!(kernel.run_lanes(MAX_ITERS, TOL)[0], Some(LaneOutcome::Finished(solo[1])));
}

#[test]
#[should_panic(expected = "sparsity pattern")]
fn a_matrix_with_another_pattern_is_refused() {
    let ring = weighted_family(6, &ring_with_chords(6), 1);
    let path = weighted_family(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 1);
    PowerLanes::<2>::for_pattern(&ring[0]).load_lane(0, &path[0], f64::INFINITY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power iteration on a positive-semidefinite operator never lowers
    /// its Rayleigh quotient, and `B = (Y + I)/2` is one whenever `Y`'s
    /// spectrum lies in [−1, 1] — every symmetric doubly-stochastic
    /// non-negative `Y`. Early abandonment rests on this: a lane whose
    /// estimate has crossed the ceiling would have finished above it.
    /// In floats the sequence may dip by rounding; 1e-13 bounds that here
    /// and the sweep's guard band is four orders wider.
    #[test]
    fn the_lambda2_estimate_never_decreases(
        n in 3usize..25,
        parents in proptest::collection::vec(0usize..24, 23),
        extra in proptest::collection::vec(0u8..2, 0..300),
    ) {
        let y = SparseSymmetric::from_dense(&metropolis(n, &connected_edges(n, &parents, &extra)));
        let mut previous = f64::NEG_INFINITY;
        for k in 1..=60 {
            let estimate = second_largest_eigenvalue_sparse(&y, k, 0.0).eigenvalue;
            prop_assert!(
                estimate >= previous - 1e-13,
                "step {}: {} after {}", k, estimate, previous
            );
            previous = estimate;
        }
    }
}
