//! The streaming λ₂ kernel against the loop it replaced.
//!
//! [`PowerLanes`] promises that a lane is indifferent to its neighbours
//! and to the moment it is loaded: whatever the width, whenever the others
//! were loaded or retire, a lane that runs to its end returns the bits
//! [`second_largest_eigenvalue_sparse`] returns for that matrix alone —
//! and that function, one lane of the same kernel, still performs the
//! float operations of the two-products-per-step loop written out below,
//! on torus rows (unrolled) and on rows of any other length alike. A
//! ceiling, set at load or moved down later, retires a lane at the first
//! step its estimate exceeds it. The last test writes down the premise of
//! early abandonment, that the estimate never decreases, where it can
//! fail.

mod common;

use common::{connected_edges, metropolis};
use netmax_linalg::eig::PowerIterationResult;
use netmax_linalg::{second_largest_eigenvalue_sparse, LaneOutcome, PowerLanes, SparseSymmetric};
use proptest::prelude::*;
use std::sync::OnceLock;

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

fn solo(y: &SparseSymmetric) -> PowerIterationResult {
    second_largest_eigenvalue_sparse(y, MAX_ITERS, TOL)
}

/// The estimate after exactly `k` steps: with a zero tolerance nothing
/// converges, so a cap of `k` reads it.
fn estimate(y: &SparseSymmetric, k: usize) -> f64 {
    second_largest_eigenvalue_sparse(y, k, 0.0).eigenvalue
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

fn ring(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

fn ring_with_chords(n: usize) -> Vec<(usize, usize)> {
    let mut edges = ring(n);
    edges.extend([(0, n / 2), (1, n / 3 + 2)]);
    edges
}

fn torus(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let at = |r: usize, c: usize| (r % rows) * cols + c % cols;
    (0..rows)
        .flat_map(|r| {
            (0..cols).flat_map(move |c| [(at(r, c), at(r, c + 1)), (at(r, c), at(r + 1, c))])
        })
        .collect()
}

/// `y` with a stored zero at `(i, j)` and `(j, i)`: the same matrix, two
/// rows one entry longer than the rest.
fn with_stored_zero(y: &SparseSymmetric, i: usize, j: usize) -> SparseSymmetric {
    let mut rows: Vec<Vec<(usize, f64)>> = (0..y.len()).map(|r| y.row(r).to_vec()).collect();
    for (r, c) in [(i, j), (j, i)] {
        assert_eq!(y.get(r, c), 0.0, "({r}, {c}) is already stored");
        rows[r].push((c, 0.0));
        rows[r].sort_by_key(|&(col, _)| col);
    }
    SparseSymmetric::from_rows(rows)
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

fn lanes_over<const L: usize>(y: &SparseSymmetric) -> PowerLanes<L> {
    PowerLanes::for_pattern(y.len(), y.entries().map(|(i, j, _)| (i, j)), MAX_ITERS, TOL)
}

/// Feeds `jobs` — matrices with the ceiling each is loaded under — through
/// one `L`-lane kernel in order, each into the lowest free lane as soon as
/// one frees, and returns what became of each.
fn stream<const L: usize>(jobs: &[(&SparseSymmetric, f64)]) -> Vec<LaneOutcome> {
    let mut kernel = lanes_over::<L>(jobs[0].0);
    let mut held: [Option<usize>; L] = [None; L];
    let mut outcomes = vec![None; jobs.len()];
    let mut queue = jobs.iter().enumerate();
    loop {
        while let Some(lane) = kernel.free_lane() {
            let Some((k, &(y, ceiling))) = queue.next() else { break };
            kernel.load_lane(lane, y.entries(), ceiling);
            held[lane] = Some(k);
        }
        let stopped = kernel.advance();
        if stopped.iter().all(Option::is_none) {
            break;
        }
        for (lane, outcome) in stopped.iter().enumerate() {
            if let Some(outcome) = outcome {
                let k = held[lane].take().expect("a stopped lane was loaded");
                outcomes[k] = Some(*outcome);
            }
        }
    }
    assert_eq!(held, [None; L], "advance came back empty with lanes loaded");
    assert_eq!(kernel.free_lane(), Some(0), "a drained kernel has every lane free");
    outcomes.into_iter().map(|o| o.expect("every job ran")).collect()
}

/// Streams `mats` with no ceilings, in order and rotated, and demands the
/// solo bits for every one.
fn assert_stream_matches_solo<const L: usize>(mats: &[SparseSymmetric]) {
    for shift in 0..mats.len() {
        let jobs: Vec<(&SparseSymmetric, f64)> =
            mats.iter().cycle().skip(shift).take(mats.len()).map(|y| (y, f64::INFINITY)).collect();
        for (k, (outcome, &(y, _))) in stream::<L>(&jobs).iter().zip(&jobs).enumerate() {
            assert_eq!(*outcome, LaneOutcome::Finished(solo(y)), "L = {L}, shift {shift}, job {k}");
        }
    }
}

/// A matrix from the ring family under the ceiling that retires it at
/// exactly step `at`: its own estimate one step earlier.
fn timer(y: &SparseSymmetric, at: usize) -> f64 {
    let ceiling = estimate(y, at - 1);
    assert!(estimate(y, at) > ceiling, "the estimate does not climb at step {at}");
    ceiling
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
fn equal_length_and_ragged_rows_are_both_the_textbook_loop() {
    // Every row of a torus has 5 entries, the unrolled rows; a ring's 3
    // take the row-by-row loop. A stored zero makes two rows one longer —
    // the same matrix through that loop.
    let equal: Vec<SparseSymmetric> = weighted_family(12, &ring(12), 3)
        .into_iter()
        .chain(weighted_family(20, &torus(4, 5), 3))
        .collect();
    for (k, y) in equal.iter().enumerate() {
        let ragged = with_stored_zero(y, 0, 2);
        assert_ne!(ragged.row(0).len(), ragged.row(1).len());
        for cap in [0, 1, 2, 17, MAX_ITERS] {
            let textbook = bits(textbook_lambda2(y, cap, TOL));
            assert_eq!(bits(second_largest_eigenvalue_sparse(y, cap, TOL)), textbook, "{k}, {cap}");
            assert_eq!(
                bits(second_largest_eigenvalue_sparse(&ragged, cap, TOL)),
                bits(textbook_lambda2(&ragged, cap, TOL)),
                "matrix {k} with a stored zero, cap {cap}"
            );
        }
    }
    assert_stream_matches_solo::<4>(&equal[..3]);
    assert_stream_matches_solo::<4>(&equal[3..]);
}

#[test]
fn the_degenerate_exits_report_what_they_did() {
    // n = 1 and the two-node swap leave nothing after the deflation: the
    // `norm < 1e-300` exit at step 0, λ₂ = −1, converged — unless the cap
    // is 0. `2J/3 − I` is annihilated at step 2, after an uncounted one.
    let one = SparseSymmetric::from_rows(vec![vec![(0, 1.0)]]);
    let swap = SparseSymmetric::from_rows(vec![vec![(0, 0.0), (1, 1.0)], vec![(0, 1.0), (1, 0.0)]]);
    let annihilated = &full_pattern_corner_cases()[1];
    let at = |eigenvalue: f64, iterations, converged| {
        bits(PowerIterationResult { eigenvalue, iterations, converged })
    };
    for y in [&one, &swap] {
        assert_eq!(bits(second_largest_eigenvalue_sparse(y, 0, TOL)), at(-1.0, 0, false));
        for cap in [1, 2, MAX_ITERS] {
            assert_eq!(bits(second_largest_eigenvalue_sparse(y, cap, TOL)), at(-1.0, 0, true));
        }
    }
    for (cap, expected) in [
        (0, at(-1.0, 0, false)),
        (1, at(-1.0, 1, false)),
        (2, at(-1.0, 2, true)),
        (MAX_ITERS, at(-1.0, 2, true)),
    ] {
        assert_eq!(bits(second_largest_eigenvalue_sparse(annihilated, cap, TOL)), expected);
    }
    // The same exits, from lanes loaded into a running stream.
    assert_stream_matches_solo::<2>(&[one.clone(), one]);
    assert_stream_matches_solo::<2>(&[swap.clone(), swap]);
}

#[test]
fn every_lane_of_every_width_returns_the_solo_bits() {
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 8);
    // The cap binds on this family: these are the lanes of a real sweep.
    assert!(ring.iter().all(|y| !solo(y).converged));
    assert_stream_matches_solo::<1>(&ring);
    assert_stream_matches_solo::<2>(&ring);
    assert_stream_matches_solo::<4>(&ring);
    assert_stream_matches_solo::<8>(&ring);
}

#[test]
fn lanes_that_end_early_do_not_disturb_the_rest() {
    let corners = full_pattern_corner_cases();
    let solo: Vec<_> = corners.iter().map(solo).collect();
    // The cases are what they claim to be, and they end at different steps.
    assert!(solo[0].converged && solo[0].iterations == 2, "lazy walk: {:?}", solo[0]);
    assert!(solo[1].eigenvalue == -1.0 && solo[1].iterations < 4, "annihilated: {:?}", solo[1]);
    assert!((solo[2].eigenvalue - 1.0).abs() < 1e-9, "disconnected: {:?}", solo[2]);
    assert!(solo[3].iterations > solo[0].iterations, "ordinary lane: {:?}", solo[3]);
    let twice: Vec<SparseSymmetric> = corners.iter().chain(&corners).cloned().collect();
    assert_stream_matches_solo::<1>(&twice);
    assert_stream_matches_solo::<2>(&twice);
    assert_stream_matches_solo::<4>(&twice);
    assert_stream_matches_solo::<8>(&twice);
}

#[test]
fn a_lane_loaded_at_any_step_returns_the_solo_bits() {
    // Lane 0 opens with a matrix retired at step `at`; lane 1 runs one
    // matrix to the cap meanwhile, and the matrix loaded into lane 0 at
    // step `at` must not notice where the stream stood.
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 3);
    for at in (1..=40).chain([99, 150, MAX_ITERS - 1]) {
        let jobs =
            [(&ring[0], timer(&ring[0], at)), (&ring[1], f64::INFINITY), (&ring[2], f64::INFINITY)];
        let outcomes = stream::<2>(&jobs);
        assert_eq!(outcomes[0], LaneOutcome::Abandoned { iterations: at }, "timer at {at}");
        assert_eq!(outcomes[1], LaneOutcome::Finished(solo(&ring[1])), "loaded at 0 beside {at}");
        assert_eq!(outcomes[2], LaneOutcome::Finished(solo(&ring[2])), "loaded at step {at}");
    }
}

#[test]
fn a_capped_lane_stops_and_its_neighbours_run_on() {
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 4);
    let ceiling = estimate(&ring[1], 40);
    let crossing = (1..=MAX_ITERS)
        .find(|&k| estimate(&ring[1], k) > ceiling)
        .expect("the estimate keeps climbing past its value at step 40");
    assert!(crossing > 40 && crossing < MAX_ITERS, "crossing at {crossing}");

    let jobs: Vec<_> = ring
        .iter()
        .enumerate()
        .map(|(k, y)| (y, if k == 1 { ceiling } else { f64::INFINITY }))
        .collect();
    for (k, outcome) in stream::<4>(&jobs).into_iter().enumerate() {
        if k == 1 {
            assert_eq!(outcome, LaneOutcome::Abandoned { iterations: crossing });
        } else {
            assert_eq!(outcome, LaneOutcome::Finished(solo(&ring[k])), "lane {k}");
        }
    }

    // A ceiling the estimate never exceeds retires nothing — equality is
    // not a crossing.
    let last = solo(&ring[1]);
    assert_eq!(stream::<4>(&[(&ring[1], last.eigenvalue)]), [LaneOutcome::Finished(last)]);
}

#[test]
fn a_lowered_ceiling_retires_a_running_lane_at_its_first_crossing() {
    let n = 12;
    let ring = weighted_family(n, &ring_with_chords(n), 2);
    let (clock, y) = (&ring[0], &ring[1]);
    let ceiling = estimate(y, 40);
    let crossing = (1..=MAX_ITERS).find(|&k| estimate(y, k) > ceiling).expect("a crossing");
    assert!(crossing > 40 && crossing + 1 < MAX_ITERS, "crossing at {crossing}");
    // The ceiling moves while the lane runs: at step `at`, when the clock
    // lane beside it is retired.
    let lowered_at = |at: usize| {
        let mut kernel = lanes_over::<2>(y);
        kernel.load_lane(0, clock.entries(), timer(clock, at));
        kernel.load_lane(1, y.entries(), f64::INFINITY);
        assert_eq!(kernel.advance(), [Some(LaneOutcome::Abandoned { iterations: at }), None]);
        kernel.set_ceiling(1, ceiling);
        let outcome = kernel.advance();
        assert_eq!(kernel.advance(), [None, None], "one lane was loaded");
        outcome
    };
    // Lowered before the crossing: retired on it, not a step before.
    for at in [1, 20, crossing - 1] {
        assert_eq!(lowered_at(at), [None, Some(LaneOutcome::Abandoned { iterations: crossing })]);
    }
    // Lowered below an estimate that is already past it: retired on the
    // next step, the first that checks.
    for at in [crossing, crossing + 1] {
        assert_eq!(lowered_at(at), [None, Some(LaneOutcome::Abandoned { iterations: at + 1 })]);
    }
}

#[test]
#[should_panic(expected = "sparsity pattern")]
fn a_matrix_with_another_pattern_is_refused() {
    let ring = weighted_family(6, &ring_with_chords(6), 1);
    let path = weighted_family(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 1);
    lanes_over::<2>(&ring[0]).load_lane(0, path[0].entries(), f64::INFINITY);
}

#[test]
#[should_panic(expected = "not free")]
fn a_busy_lane_is_not_reloaded() {
    let ring = weighted_family(6, &ring_with_chords(6), 2);
    let mut kernel = lanes_over::<2>(&ring[0]);
    kernel.load_lane(0, ring[0].entries(), f64::INFINITY);
    kernel.load_lane(0, ring[1].entries(), f64::INFINITY);
}

/// The streaming property's matrices, each with its estimate after every
/// step count up to the cap and its solo result: fixed, so computed once
/// for all cases.
struct StreamFixture {
    ring: Vec<SparseSymmetric>,
    trajectories: Vec<Vec<f64>>,
    solo: Vec<PowerIterationResult>,
}

fn stream_fixture() -> &'static StreamFixture {
    static FIXTURE: OnceLock<StreamFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let n = 12;
        let ring = weighted_family(n, &ring_with_chords(n), 6);
        let trajectories =
            ring.iter().map(|y| (0..=MAX_ITERS).map(|k| estimate(y, k)).collect()).collect();
        let solo = ring.iter().map(solo).collect();
        StreamFixture { ring, trajectories, solo }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mix of matrices that run to the cap (`at` = 0) and matrices
    /// under a ceiling their estimate crosses near step `at`, through 3 or
    /// 4 lanes: every lane ends where it would have ended alone, whatever
    /// was loaded around it and when.
    #[test]
    fn any_stream_ends_every_lane_where_it_ends_alone(
        jobs in proptest::collection::vec((0usize..6, 0usize..MAX_ITERS), 1..14),
    ) {
        let StreamFixture { ring, trajectories, solo } = stream_fixture();
        let ceilings: Vec<(usize, f64)> = jobs
            .iter()
            .map(|&(m, at)| (m, if at == 0 { f64::INFINITY } else { trajectories[m][at - 1] }))
            .collect();
        let expected: Vec<LaneOutcome> = ceilings
            .iter()
            .map(|&(m, ceiling)| match (1..=MAX_ITERS).find(|&k| trajectories[m][k] > ceiling) {
                Some(iterations) => LaneOutcome::Abandoned { iterations },
                None => LaneOutcome::Finished(solo[m]),
            })
            .collect();
        let jobs: Vec<(&SparseSymmetric, f64)> =
            ceilings.iter().map(|&(m, ceiling)| (&ring[m], ceiling)).collect();
        prop_assert_eq!(&stream::<3>(&jobs), &expected);
        prop_assert_eq!(&stream::<4>(&jobs), &expected);
    }
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
            let estimate = estimate(&y, k);
            prop_assert!(
                estimate >= previous - 1e-13,
                "step {}: {} after {}", k, estimate, previous
            );
            previous = estimate;
        }
    }
}
