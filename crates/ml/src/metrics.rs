//! Evaluation metrics: loss and accuracy over datasets or subsamples, and
//! the consensus diameter of a fleet of replicas.
//!
//! The plain functions ([`subsampled_loss`], [`mean_loss_across_replicas`],
//! [`consensus_diameter`], [`accuracy`]) are the definitions — and the
//! independent references the tests compare against. The metric recorder
//! samples a whole fleet a hundred times a run, so it goes through two
//! shared, caller-owned blocks instead, each returning the *same float* as
//! the plain function:
//!
//! * **Loss** — [`gather_subsample`] gathers the `max_n` stride-subsample
//!   into a feature-major [`EvalBlock`] **once per run** (it is a pure
//!   function of the immutable training set); each sample is then one
//!   [`Model::loss_fleet`] pass over the live fleet. Shared by all
//!   replicas: the block. Per replica: its parameters, read in place
//!   through their slice, and one loss chain. Nothing is gathered,
//!   transposed, cloned or allocated per replica. The floats are the same
//!   because every `w·x` accumulates its terms in the plain kernels'
//!   order from their start value, multiply and add separate, and the
//!   loss chain adds the examples' terms in the plain order — a kernel
//!   only changes *where* the accumulators live (registers, a tile of
//!   examples at a time), never what is added to what.
//! * **Consensus** — [`ConsensusBlock`] reads the live replicas' flat
//!   parameters in place and returns the maximum pairwise [`distance`] as an exact
//!   *pruned* maximum: most of the `n(n−1)/2` pairs are proved unable to
//!   beat the incumbent and never evaluated; the survivors are computed
//!   by a lane-across-pairs kernel whose every lane is the float
//!   `distance` returns.
//!
//! # The pruning rule and its guard band
//!
//! With a pivot `c` (the f32 centroid of the replicas — any vector works)
//! and radii `rᵢ = distance(xᵢ, c)`, the triangle inequality gives
//! `‖xᵢ − xⱼ‖ ≤ rᵢ + rⱼ` for the exact norms of the stored f32 vectors.
//! The comparison is made between *computed* values, so the bound carries
//! a guard band: a pair is skipped only if
//!
//! ```text
//! (r̂ᵢ + r̂ⱼ)·(1 + g) + η  <  the incumbent (a computed distance)
//! ```
//!
//! * One [`distance`] rounds each `(a − b)²` term (two roundings), adds
//!   them in sequential runs of at most `k = min(d, 4096)` terms and
//!   `t ≤ 64` tree levels, and takes one square root: its relative error
//!   is at most `(k + t + 2)·2⁻²⁴` to first order. Three computed
//!   distances enter the comparison (`r̂ᵢ`, `r̂ⱼ` and the pair's own), so
//!   `3·(k + t + 2)·2⁻²⁴` would do; `g = 8·(k + 64 + 8)·2⁻²³` is more
//!   than five times that, and also absorbs the f64 arithmetic of the
//!   bound itself.
//! * A squared term below the f32 subnormal range rounds by up to
//!   `2⁻¹⁵⁰` absolutely rather than relatively; over `d` terms and three
//!   distances that is at most `4·√d·2⁻⁷⁵` in distance, which is `η`.
//! * A pair that is skipped cannot have overflowed either: its exact
//!   distance is below the incumbent by the factor `1 + g`, the incumbent
//!   is a finite f32, and the rounding of a sum of squares is far smaller
//!   than `g`.
//! * A radius that is NaN or infinite makes the bound meaningless: then
//!   **every** pair is evaluated, which keeps the NaN-skipping semantics
//!   of the `f64::max` fold in [`consensus_diameter`].
//!
//! Replicas are visited in (radius descending, index) order — an exact
//! copy of the replica before it dropped, since ties at the maximum are
//! the one thing a bound cannot skip — so for each
//! `x` the pairs that can still matter are a contiguous prefix of the
//! `y` after it, and the first `x` whose own bound `2·r̂ₓ·(1 + g) + η`
//! falls below the incumbent ends the search. The incumbent is seeded by
//! a double sweep: the farthest replica's whole row, then the whole row
//! of the replica farthest from *it*. Correctly rounded `sqrt` is
//! monotone, so the maximum is taken over squared distances and rooted
//! once.

use crate::dataset::Dataset;
use crate::model::{EvalBlock, Model, Scratch};
use crate::params::{self, dist_sq_lanes, distance, gather_feature_major};

/// Classification accuracy of `model` over the whole `data` set.
pub fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "accuracy over empty dataset");
    let correct = (0..data.len())
        .filter(|&i| model.predict(data.feature(i)) == data.label(i))
        .count();
    correct as f64 / data.len() as f64
}

/// [`accuracy`] through a reusable workspace (bitwise identical).
pub fn accuracy_scratch(model: &dyn Model, data: &Dataset, scratch: &mut Scratch) -> f64 {
    assert!(!data.is_empty(), "accuracy over empty dataset");
    model.count_correct_scratch(data, scratch) as f64 / data.len() as f64
}

/// Mean loss of `model` over the whole `data` set.
pub fn full_loss(model: &dyn Model, data: &Dataset) -> f64 {
    let all: Vec<usize> = (0..data.len()).collect();
    model.loss(data, &all) as f64
}

/// Mean loss over an evenly-spaced subsample of at most `max_n` examples —
/// the engine records loss curves frequently, and full evaluation at every
/// record point would dominate simulation run time.
pub fn subsampled_loss(model: &dyn Model, data: &Dataset, max_n: usize) -> f64 {
    assert!(max_n > 0);
    if data.len() <= max_n {
        return full_loss(model, data);
    }
    let stride = data.len() / max_n;
    let idx: Vec<usize> = (0..max_n).map(|k| k * stride).collect();
    model.loss(data, &idx) as f64
}

/// Gathers the examples [`subsampled_loss`] evaluates — all of `data`, or
/// `max_n` of them at an even stride — into `block`, once for every
/// replica and every sample that will be scored on them. A
/// `loss_fleet(block, …)` loss as `f64` is then the same float as
/// `subsampled_loss(model, data, max_n)` on that replica.
pub fn gather_subsample(data: &Dataset, max_n: usize, block: &mut EvalBlock) {
    assert!(max_n > 0);
    let (count, stride) =
        if data.len() <= max_n { (data.len(), 1) } else { (max_n, data.len() / max_n) };
    block.gather(data, (0..count).map(|k| k * stride));
}

/// Mean of per-node losses — the global objective `F` of Eq. (1) without
/// the (vanishing-at-consensus) disagreement term.
pub fn mean_loss_across_replicas(models: &[Box<dyn Model>], data: &Dataset, max_n: usize) -> f64 {
    assert!(!models.is_empty());
    models.iter().map(|m| subsampled_loss(m.as_ref(), data, max_n)).sum::<f64>()
        / models.len() as f64
}

/// Maximum pairwise parameter distance among replicas — the consensus
/// residual that Theorems 1–3 drive to (a neighbourhood of) zero.
pub fn consensus_diameter(models: &[Box<dyn Model>]) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..models.len() {
        for j in (i + 1)..models.len() {
            let d = crate::params::distance(models[i].params(), models[j].params()) as f64;
            worst = worst.max(d);
        }
    }
    worst
}

/// The guard band of the pruning rule (module docs): what turns the
/// triangle inequality on exact norms into one that holds between
/// *computed* [`distance`]s of `dim`-element vectors.
#[derive(Debug, Clone, Copy)]
pub struct GuardBand {
    /// Relative part `g`.
    guard: f64,
    /// Absolute part `η` (squares that underflow).
    slack: f64,
}

impl GuardBand {
    /// The band for vectors of `dim` elements.
    pub fn new(dim: usize) -> Self {
        Self {
            guard: 8.0 * (dim.min(4096) + 72) as f64 / (1u64 << 23) as f64,
            slack: (dim as f64).sqrt() * 2.0f64.powi(-73),
        }
    }

    /// Upper bound on the computed distance between two vectors whose
    /// computed distances to a common pivot are the finite `r_x` and
    /// `r_y`.
    pub fn pair_bound(&self, r_x: f32, r_y: f32) -> f64 {
        (f64::from(r_x) + f64::from(r_y)) * (1.0 + self.guard) + self.slack
    }
}

/// The consensus diameter of a fleet as an exact pruned maximum — the
/// same float as [`consensus_diameter`] over the same replicas, for a
/// fraction of its `n(n−1)/2` distance evaluations (see the module docs
/// for the rule and its guard band).
///
/// One block serves a whole run: its buffers only ever grow, so a call
/// allocates nothing once the first one has sized them.
#[derive(Debug, Clone, Default)]
pub struct ConsensusBlock {
    /// The pivot.
    centroid: Vec<f32>,
    /// `radii[i]` = distance of replica `i` to the pivot.
    radii: Vec<f32>,
    /// Position → replica index, by (radius descending, index), exact
    /// copies of the position before dropped; `m` positions.
    order: Vec<usize>,
    /// The replicas feature-major in `order`:
    /// `cols[k·m + pos] = replica(order[pos])[k]`.
    cols: Vec<f32>,
    /// One squared distance per lane of the current row, and the tree
    /// workspace of [`dist_sq_lanes`].
    lanes: Vec<f32>,
    spare: Vec<f32>,
    pairs_evaluated: u64,
}

impl ConsensusBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Squared distances the last [`diameter`](Self::diameter) call
    /// evaluated — of the `n(n−1)/2` an all-pairs loop would have. A
    /// deterministic function of the replicas' values.
    pub fn pairs_evaluated(&self) -> u64 {
        self.pairs_evaluated
    }

    /// Maximum pairwise [`distance`] among the `n` flat parameter vectors
    /// `replica(0) … replica(n − 1)` (0 for fewer than two) — bit for bit
    /// what [`consensus_diameter`] returns. The replicas are read in
    /// place; nothing but the feature-major layout copies them.
    ///
    /// # Panics
    /// Panics if the replicas differ in length.
    pub fn diameter<'a>(&mut self, n: usize, replica: impl Fn(usize) -> &'a [f32]) -> f64 {
        self.pairs_evaluated = 0;
        if n < 2 {
            return 0.0;
        }
        let dim = replica(0).len();

        // Pivot and radii.
        self.centroid.clear();
        self.centroid.resize(dim, 0.0);
        for i in 0..n {
            assert_eq!(replica(i).len(), dim, "replica parameter count mismatch");
            for (c, &v) in self.centroid.iter_mut().zip(replica(i)) {
                *c += v;
            }
        }
        params::scale(1.0 / n as f32, &mut self.centroid);
        self.radii.clear();
        let mut prune = true;
        for i in 0..n {
            let r = distance(replica(i), &self.centroid);
            prune &= r.is_finite();
            self.radii.push(r);
        }

        // Visit order, and the feature-major layout in that order.
        self.order.clear();
        self.order.extend(0..n);
        let radii = &self.radii;
        self.order.sort_unstable_by(|&a, &b| radii[b].total_cmp(&radii[a]).then(a.cmp(&b)));
        // An exact copy of the replica before it in the visit order adds
        // nothing: it is at distance 0 from that one and at that one's
        // distance from every other. Left in, copies tie at the maximum —
        // a fleet that has just averaged is n copies of one vector with
        // incumbent 0, and no bound is *below* 0, so every pair would be
        // evaluated to learn that the diameter is 0.
        self.order.dedup_by(|this, kept| replica(*this) == replica(*kept));
        let m = self.order.len();
        if m < 2 {
            return 0.0;
        }
        self.cols.resize(dim * m, 0.0);
        let order = &self.order;
        gather_feature_major(m, dim, |pos| replica(order[pos]), &mut self.cols);

        let band = GuardBand::new(dim);
        let mut best_sq = 0.0f32;
        // Positions `x + 1..end` can still beat the incumbent against `x`.
        let mut end = m;
        for x in 0..m - 1 {
            if prune {
                let incumbent = f64::from(best_sq.sqrt());
                while end > x + 1
                    && band.pair_bound(self.radius(x), self.radius(end - 1)) < incumbent
                {
                    end -= 1;
                }
                if end == x + 1 {
                    break;
                }
            }
            let farthest = self.row_max(replica(self.order[x]), x + 1, end, &mut best_sq);
            if prune && x == 0 {
                // Second sweep, from the replica farthest from the
                // farthest one (its own lane reads 0 and changes nothing).
                self.row_max(replica(self.order[farthest]), 1, m, &mut best_sq);
            }
        }
        f64::from(best_sq.sqrt())
    }

    /// Radius of the replica at position `pos` of the visit order.
    fn radius(&self, pos: usize) -> f32 {
        self.radii[self.order[pos]]
    }

    /// Evaluates the replica `x` against positions `lo..hi`, folds their
    /// squared distances into `best_sq` (NaNs skipped, as `f64::max`
    /// skips them) and returns the position of the row's largest.
    fn row_max(&mut self, x: &[f32], lo: usize, hi: usize, best_sq: &mut f32) -> usize {
        let m = self.order.len();
        self.lanes.resize(hi - lo, 0.0);
        dist_sq_lanes(x, &self.cols, m, lo, &mut self.lanes, &mut self.spare);
        self.pairs_evaluated += (hi - lo) as u64;
        let (mut row_best, mut farthest) = (f32::NEG_INFINITY, lo);
        for (s, &sq) in self.lanes.iter().enumerate() {
            if sq > row_best {
                (row_best, farthest) = (sq, lo + s);
            }
        }
        if row_best > *best_sq {
            *best_sq = row_best;
        }
        farthest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{gaussian_mixture, MixtureSpec};
    use crate::model::{ModelKind, SoftmaxRegression};

    fn spec() -> MixtureSpec {
        MixtureSpec { num_classes: 3, dim: 6, train_n: 120, test_n: 60, mean_scale: 2.0, noise: 0.3 }
    }

    #[test]
    fn untrained_accuracy_near_chance() {
        let (train, _) = gaussian_mixture(spec(), 1);
        let m = SoftmaxRegression::new(6, 3, 0);
        let acc = accuracy(&m, &train);
        assert!(acc < 0.7, "untrained model unexpectedly accurate: {acc}");
    }

    #[test]
    fn subsample_approximates_full_loss() {
        let (train, _) = gaussian_mixture(spec(), 2);
        let m = SoftmaxRegression::new(6, 3, 0);
        let full = full_loss(&m, &train);
        let sub = subsampled_loss(&m, &train, 40);
        assert!((full - sub).abs() < 0.3 * full.max(0.1), "sub {sub} vs full {full}");
        // When max_n exceeds dataset size they must agree exactly.
        assert_eq!(subsampled_loss(&m, &train, 10_000), full);
    }

    #[test]
    fn consensus_diameter_zero_iff_identical() {
        let a = ModelKind::Softmax.build(6, 3, 1);
        let b = a.clone();
        let mut c = a.clone();
        assert_eq!(consensus_diameter(&[a.clone(), b]), 0.0);
        c.params_mut()[0] += 2.0;
        assert!(consensus_diameter(&[a, c]) >= 2.0 - 1e-6);
    }

    #[test]
    fn replica_mean_loss_is_mean() {
        let (train, _) = gaussian_mixture(spec(), 3);
        let a = ModelKind::Softmax.build(6, 3, 1);
        let b = ModelKind::Softmax.build(6, 3, 2);
        let la = subsampled_loss(a.as_ref(), &train, 1000);
        let lb = subsampled_loss(b.as_ref(), &train, 1000);
        let mean = mean_loss_across_replicas(&[a, b], &train, 1000);
        assert!((mean - (la + lb) / 2.0).abs() < 1e-9);
    }
}
