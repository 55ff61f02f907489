//! The pruned consensus diameter is the *same float* as the all-pairs
//! reference — not close, `to_bits()`-equal — on the inputs built to break
//! a triangle-inequality bound evaluated in floating point.

use netmax_ml::metrics::{consensus_diameter, ConsensusBlock, GuardBand};
use netmax_ml::model::{Model, ModelKind};
use netmax_ml::params::distance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fleet sizes: empty, the degenerate ones, an odd one, and one large
/// enough for the pruning to skip most rows.
const FLEETS: [usize; 6] = [0, 1, 2, 3, 17, 200];

/// Parameter counts: one, the ridge model's 33, and the `PAIRWISE_BLOCK`
/// boundary from below, just past it and past two blocks (an uneven
/// three-leaf tree).
const DIMS: [usize; 5] = [1, 33, 4096, 4097, 8195];

const SHAPES: usize = 9;

fn cloud(rng: &mut StdRng, n: usize, dim: usize, scale: f32) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                .collect()
        })
        .collect()
}

/// Index pair of the farthest two replicas (by the reference distance).
fn farthest_pair(replicas: &[Vec<f32>]) -> (usize, usize) {
    let mut best = (0.0f32, 0, 0);
    for i in 0..replicas.len() {
        for j in i + 1..replicas.len() {
            let d = distance(&replicas[i], &replicas[j]);
            if d > best.0 {
                best = (d, i, j);
            }
        }
    }
    (best.1, best.2)
}

fn replicas(shape: usize, n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape {
        // Isotropic cloud.
        0 => cloud(&mut rng, n, dim, 1.0),
        // Tight cluster and two outliers on opposite sides.
        1 => {
            let base: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut out: Vec<Vec<f32>> = cloud(&mut rng, n, dim, 1e-3)
                .into_iter()
                .map(|v| v.iter().zip(&base).map(|(e, b)| b + e).collect())
                .collect();
            for (slot, sign) in [(n / 3, 1.0f32), (2 * n / 3, -1.0)] {
                if let Some(v) = out.get_mut(slot) {
                    v.iter_mut().for_each(|x| *x += sign * 0.75);
                }
            }
            out
        }
        // Collinear with the pivot between them: a quarter of the fleet on
        // one side, the rest on the other at 0.37 of the distance, radii
        // on each side agreeing to a few ulps. ‖x − y‖ = r_x + r_y in
        // exact arithmetic and every cross pair is within rounding of the
        // maximum, so only the guard band keeps the bound above the
        // computed distances (the ratio is no power of two, so the three
        // roundings are not copies of one another).
        2 => {
            let centre: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let dir: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            (0..n)
                .map(|i| {
                    let side = if i % 4 == 0 { 1.0 } else { -0.37 };
                    let t = side * (1.0 + rng.gen_range(-1.0f32..1.0) * 3e-7);
                    centre.iter().zip(&dir).map(|(c, v)| c + t * v).collect()
                })
                .collect()
        }
        // All identical: diameter exactly 0.
        3 => {
            let one: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            vec![one; n]
        }
        // Duplicates of the arg-max pair: ties for the maximum.
        4 => {
            let mut out = cloud(&mut rng, n, dim, 1.0);
            if n >= 4 {
                let (a, b) = farthest_pair(&out);
                let (pa, pb) = (out[a].clone(), out[b].clone());
                let spare: Vec<usize> = (0..n).filter(|&i| i != a && i != b).take(2).collect();
                out[spare[0]] = pa;
                out[spare[1]] = pb;
            }
            out
        }
        // One NaN or infinite coordinate in one replica.
        5 | 6 => {
            let mut out = cloud(&mut rng, n, dim, 1.0);
            if n > 0 {
                let (i, k) = (rng.gen_range(0..n), rng.gen_range(0..dim));
                out[i][k] = if shape == 5 { f32::NAN } else { f32::INFINITY };
            }
            out
        }
        // Coordinates so large that some squared distances overflow.
        7 => cloud(&mut rng, n, dim, 3e19),
        // Differences so small that their squares underflow.
        _ => cloud(&mut rng, n, dim, 3e-23),
    }
}

fn as_models(replicas: &[Vec<f32>], dim: usize) -> Vec<Box<dyn Model>> {
    replicas
        .iter()
        .map(|p| {
            // The ridge model has `features + 1` flat parameters.
            let mut m = ModelKind::LeastSquares { l2: 0.0 }.build(dim - 1, 2, 0);
            m.params_mut().copy_from_slice(p);
            m
        })
        .collect()
}

fn pruned(block: &mut ConsensusBlock, replicas: &[Vec<f32>]) -> f64 {
    block.diameter(replicas.len(), |i| &replicas[i])
}

proptest! {
    // One case walks the whole (shape, n, d) grid; PROPTEST_SHIM_SEED redraws it.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn pruned_diameter_is_the_all_pairs_float(seed in 0u64..u64::MAX) {
        // One block reused throughout, as the recorder reuses its own.
        let mut block = ConsensusBlock::new();
        for shape in 0..SHAPES {
            for n in FLEETS {
                for dim in DIMS {
                    let replicas = replicas(shape, n, dim, seed);
                    let reference = consensus_diameter(&as_models(&replicas, dim));
                    let got = pruned(&mut block, &replicas);
                    prop_assert_eq!(
                        got.to_bits(), reference.to_bits(),
                        "shape {}, n {}, d {}, seed {}: pruned {} vs all-pairs {}",
                        shape, n, dim, seed, got, reference
                    );
                    // The second sweep may look at a row again, no more.
                    let all_pairs = (n * n.saturating_sub(1) / 2) as u64;
                    prop_assert!(block.pairs_evaluated() <= all_pairs + n as u64);
                    if shape == 3 {
                        prop_assert_eq!(got, 0.0);
                        prop_assert_eq!(block.pairs_evaluated(), 0);
                    }
                }
            }
        }
    }
}

#[test]
fn pruning_skips_most_pairs_of_a_contracted_fleet() {
    // A fleet near consensus with a few stragglers — what a training run
    // looks like after its first samples: the maximum is settled by the
    // stragglers' rows and the bulk is never compared with itself.
    let (n, dim) = (200, 33);
    let mut rng = StdRng::seed_from_u64(5);
    let mut fleet = cloud(&mut rng, n, dim, 1e-2);
    for v in fleet.iter_mut().take(4) {
        v.iter_mut().for_each(|x| *x *= 50.0);
    }
    let mut block = ConsensusBlock::new();
    let got = pruned(&mut block, &fleet);
    assert_eq!(
        got.to_bits(),
        consensus_diameter(&as_models(&fleet, dim)).to_bits()
    );
    let all_pairs = (n * (n - 1) / 2) as u64;
    assert!(
        block.pairs_evaluated() * 10 < all_pairs,
        "{} of {all_pairs} pairs evaluated",
        block.pairs_evaluated()
    );
    // The count is a function of the values alone.
    let first = block.pairs_evaluated();
    pruned(&mut block, &fleet);
    assert_eq!(block.pairs_evaluated(), first);
}

#[test]
fn copies_of_a_replica_are_not_compared_with_each_other() {
    // A fleet that averaged in groups (Prague) or all at once (Allreduce):
    // eight distinct vectors, eight copies of each, interleaved.
    let (dim, groups, copies) = (33, 8, 8);
    let distinct = cloud(&mut StdRng::seed_from_u64(9), groups, dim, 1.0);
    let fleet: Vec<Vec<f32>> = (0..groups * copies)
        .map(|i| distinct[i % groups].clone())
        .collect();
    let mut block = ConsensusBlock::new();
    let got = pruned(&mut block, &fleet);
    assert_eq!(
        got.to_bits(),
        consensus_diameter(&as_models(&fleet, dim)).to_bits()
    );
    assert_eq!(
        got.to_bits(),
        consensus_diameter(&as_models(&distinct, dim)).to_bits()
    );
    // At most the distinct vectors' own pairs and the second sweep.
    assert!(block.pairs_evaluated() <= (groups * (groups - 1) / 2 + groups) as u64);
}

#[test]
fn guard_band_covers_the_collinear_case_and_is_needed_there() {
    // On a line through the pivot the triangle inequality is an equality,
    // so the computed pair distance lands on either side of the computed
    // r_x + r_y: the bare sum is *not* a bound between floats (some pairs
    // exceed it), the banded one is (none does).
    let (mut over_bare_sum, mut pairs) = (0u32, 0u32);
    for dim in [1usize, 33, 4097] {
        let band = GuardBand::new(dim);
        for seed in 0..8 {
            let fleet = replicas(2, 24, dim, seed);
            // Any pivot on the line will do; the fleet's own f32 mean is
            // the one the block uses.
            let mut pivot = vec![0.0f32; dim];
            for v in &fleet {
                pivot
                    .iter_mut()
                    .zip(v)
                    .for_each(|(p, x)| *p += x / fleet.len() as f32);
            }
            let radii: Vec<f32> = fleet.iter().map(|v| distance(v, &pivot)).collect();
            for i in 0..fleet.len() {
                for j in i + 1..fleet.len() {
                    let d = f64::from(distance(&fleet[i], &fleet[j]));
                    assert!(
                        d <= band.pair_bound(radii[i], radii[j]),
                        "dim {dim}, seed {seed}, pair ({i}, {j}): {d} above the banded bound"
                    );
                    pairs += 1;
                    over_bare_sum += u32::from(d > f64::from(radii[i]) + f64::from(radii[j]));
                }
            }
        }
    }
    assert!(
        over_bare_sum > 0,
        "none of {pairs} collinear pairs exceeded r_x + r_y"
    );
}
