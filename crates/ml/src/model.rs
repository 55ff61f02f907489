//! Trainable models.
//!
//! Every model exposes its parameters as one flat `f32` slice — that flat
//! vector is the `x_i` of the paper: it is what SGD updates, what gossip
//! partners exchange, and what the consensus distance ‖x_i − x_m‖ is
//! measured on.
//!
//! Three models are provided:
//!
//! * [`SoftmaxRegression`] — multinomial logistic regression; convex, the
//!   workhorse for the figure reproductions.
//! * [`Mlp`] — a one-hidden-layer ReLU network; non-convex, used where the
//!   paper's point involves escaping sharp minima (§V-D's accuracy
//!   discussion) and for the larger "model" workloads.
//! * [`LeastSquares`] — L2-regularised linear regression; **µ-strongly
//!   convex with L-Lipschitz gradients**, exactly Assumption 1 of the
//!   paper, so the convergence-theory tests (Theorems 1–3) can be checked
//!   against a model that satisfies their hypotheses.

use crate::dataset::Dataset;
use crate::fast::{
    axpy_fast, dot_fast, exp_fast, ln_fast, norm_sq_fast, softmax_xent_grad_fast,
    transpose_block_fast,
};
use crate::libm::{expf, logf};
use crate::params::{
    axpy_rows, dot_group_tile, dot_rows, gather_feature_major, DOT_GROUP, DOT_ROWS, DOT_TILE,
};
use crate::tier::NumericsTier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reusable workspace for the gradient hot path.
///
/// One `Scratch` per worker replica makes `loss_grad_scratch` free of
/// heap traffic at steady state: the forward/backward buffers (`h`,
/// `logits`, `dh`) and the batch-mean gradient (`grad`) are sized on
/// first use and reused on every subsequent call. Buffers only ever grow,
/// so a scratch can be shared across models of different shapes (the
/// largest shape wins).
///
/// The scratch also carries the session's [`NumericsTier`]: gradient
/// entry points branch **once** on it and dispatch either to the strict
/// cores (bit-stable, the default) or to the fast-tier cores, which call
/// the reassociated kernels of [`crate::fast`] by name. Evaluation
/// entry points (`loss_fleet`, `count_correct_scratch`, `predict`) stay
/// strict under both tiers, so recorded metric curves differ between
/// tiers only through the trained parameters.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Batch-mean gradient output of the last
    /// [`Model::loss_grad_scratch`] call (`num_params` long).
    pub grad: Vec<f32>,
    /// Hidden activations (MLP forward pass).
    h: Vec<f32>,
    /// Logits / class probabilities.
    logits: Vec<f32>,
    /// Backpropagated hidden-layer gradient.
    dh: Vec<f32>,
    /// Feature-major (transposed) batch block for [`batch_logits`].
    xb: Vec<f32>,
    /// Per-batch logits block (`classes × chunk`).
    logits_all: Vec<f32>,
    /// Per-sample running maxima for [`softmax_block`].
    maxs: Vec<f32>,
    /// Per-sample exp-sums for [`softmax_block`].
    sums: Vec<f32>,
    /// Example-index buffer of the batched accuracy kernel.
    idx: Vec<usize>,
    /// Hidden-activation block of the MLP's batched forward
    /// (`hidden × chunk`).
    hb: Vec<f32>,
    /// Per-sample coefficient row for the fast-tier backward
    /// ([`softmax_xent_grad_fast`]).
    coefs: Vec<f32>,
    /// Per-chunk label buffer for the fast-tier forward.
    labels: Vec<u32>,
    /// Feature-major weights of one replica group of the ridge fleet
    /// loss ([`dot_group_tile`]).
    wt: Vec<f32>,
    /// The numerics tier the gradient entry points run under; chosen
    /// once at construction.
    pub tier: NumericsTier,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::for_tier(NumericsTier::Strict)
    }
}

impl Scratch {
    /// Creates an empty strict-tier workspace; buffers are sized lazily
    /// by the first `loss_grad_scratch` call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty workspace whose gradients run under `tier`.
    pub fn for_tier(tier: NumericsTier) -> Self {
        Self {
            grad: Vec::new(),
            h: Vec::new(),
            logits: Vec::new(),
            dh: Vec::new(),
            xb: Vec::new(),
            logits_all: Vec::new(),
            maxs: Vec::new(),
            sums: Vec::new(),
            idx: Vec::new(),
            hb: Vec::new(),
            coefs: Vec::new(),
            labels: Vec::new(),
            wt: Vec::new(),
            tier,
        }
    }
}

/// Samples per block in the batched forward kernels: bounds the
/// feature-major scratch block (`BATCH_CHUNK · dim` floats) to stay
/// cache-resident regardless of batch size.
const BATCH_CHUNK: usize = 256;

/// Writes the feature-major transpose of a batch block into `xb`:
/// `xb[d·B + s] = feature(batch[s])[d]`.
fn transpose_batch(data: &Dataset, batch: &[usize], dim: usize, xb: &mut Vec<f32>) {
    xb.resize(dim * batch.len(), 0.0);
    gather_feature_major(batch.len(), dim, |s| data.feature(batch[s]), xb);
}

/// An evaluation batch gathered once and shared by every replica that is
/// scored on it: the examples' features in the feature-major layout of
/// `batch_logits`, cut into chunks of at most `BATCH_CHUNK` columns,
/// with their labels.
///
/// The metric recorder scores every live replica on the same
/// `loss_sample_size` subsample: the block is filled once a run by
/// [`EvalBlock::gather`] and streamed by [`Model::loss_fleet`], instead of
/// each replica re-reading the same strided dataset rows.
#[derive(Debug, Clone, Default)]
pub struct EvalBlock {
    dim: usize,
    /// Chunk after chunk; the chunk of `nb` columns starting at example
    /// `s0` occupies `xb[s0·dim .. (s0 + nb)·dim]`, and inside it
    /// `[d·nb + s]` is feature `d` of its `s`-th example.
    xb: Vec<f32>,
    labels: Vec<u32>,
    /// Example indices of the current gather.
    idx: Vec<usize>,
}

impl EvalBlock {
    /// Creates an empty block; buffers are sized by the first gather and
    /// only ever grow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of gathered examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when nothing is gathered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality of the gathered examples.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Replaces the block's contents by `examples` (indices into `data`,
    /// in evaluation order).
    pub fn gather(&mut self, data: &Dataset, examples: impl Iterator<Item = usize>) {
        let dim = data.dim();
        self.dim = dim;
        self.idx.clear();
        self.idx.extend(examples);
        self.labels.clear();
        self.labels.extend(self.idx.iter().map(|&i| data.label(i)));
        self.xb.resize(self.idx.len() * dim, 0.0);
        for (chunk, out) in self.idx.chunks(BATCH_CHUNK).zip(self.xb.chunks_mut(BATCH_CHUNK * dim)) {
            gather_feature_major(chunk.len(), dim, |s| data.feature(chunk[s]), out);
        }
    }

    /// The chunks in evaluation order: each chunk's feature-major block
    /// (`dim × nb`) and its `nb` labels.
    fn blocks(&self) -> impl Iterator<Item = (&[f32], &[u32])> {
        self.xb.chunks(BATCH_CHUNK * self.dim.max(1)).zip(self.labels.chunks(BATCH_CHUNK))
    }
}

/// Width of the strict kernels' register tiles: 32 `f32` lanes per class
/// (four AVX2 vectors), two classes a tile.
const LANES: usize = 32;

/// The strict loss's clamp of a probability before its log: the same
/// float as `p.max(1e-12)` for every non-NaN `p`, but a NaN stays NaN, so
/// a replica with NaN parameters scores a NaN loss instead of
/// `−ln 1e-12 = 27.63`.
#[inline(always)]
fn clamp_prob(p: f32) -> f32 {
    if p < 1e-12 {
        1e-12
    } else {
        p
    }
}

/// In-place softmax over a `classes × nb` logits block, one sample per
/// column.
///
/// For each sample the operations and their order are exactly those of
/// [`softmax_inplace`] on its logit column — max-fold over ascending
/// class index from `NEG_INFINITY`, exp-and-accumulate in class order
/// from `0.0`, then one divide per class — so every probability is
/// **bitwise identical**. Laying the loops class-outer makes every pass
/// vectorise across the contiguous sample dimension, the exponentials
/// included: a class row whose shifted logits are all inside
/// [`expf`]'s domain (finite, `|x| < 88`) runs through that port, which
/// returns libm's bits there; any other row calls `f32::exp`.
fn softmax_block(
    block: &mut [f32],
    nb: usize,
    maxs: &mut Vec<f32>,
    sums: &mut Vec<f32>,
) {
    debug_assert_eq!(block.len() % nb, 0);
    maxs.clear();
    maxs.resize(nb, f32::NEG_INFINITY);
    for row in block.chunks(nb) {
        for (m, &v) in maxs.iter_mut().zip(row) {
            *m = m.max(v);
        }
    }
    sums.clear();
    sums.resize(nb, 0.0);
    for row in block.chunks_mut(nb) {
        let mut in_domain = true;
        for (l, &m) in row.iter_mut().zip(&*maxs) {
            *l -= m;
            in_domain &= l.abs() < 88.0;
        }
        if in_domain {
            for (l, s) in row.iter_mut().zip(sums.iter_mut()) {
                *l = expf(*l);
                *s += *l;
            }
        } else {
            for (l, s) in row.iter_mut().zip(sums.iter_mut()) {
                *l = l.exp();
                *s += *l;
            }
        }
    }
    for row in block.chunks_mut(nb) {
        for (l, &s) in row.iter_mut().zip(&*sums) {
            *l /= s;
        }
    }
}

/// Logits for a whole batch block at once:
/// `out[c·nb + s] = Σ_d w[c·dim + d] · xb[d·nb + s] + b[c]`.
///
/// Every logit starts from `0.0`, adds its terms in ascending-`d` order
/// and then `b[c]` — the sequential `dot(row, x) + b[c]` of the
/// per-example path, so each is **bitwise identical**. The work runs in
/// register tiles of a class pair × [`LANES`] samples ([`logit_tile`]):
/// a tile's accumulators stay in registers across the whole `d` loop, and
/// each segment of a feature row is loaded once for both classes. An odd
/// last class is paired with itself.
fn batch_logits(w: &[f32], b: &[f32], xb: &[f32], dim: usize, nb: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), b.len() * nb);
    debug_assert_eq!(xb.len(), dim * nb);
    let classes = b.len();
    for c0 in (0..classes).step_by(2) {
        let pair = [c0, (c0 + 1).min(classes - 1)];
        let rows = pair.map(|c| &w[c * dim..(c + 1) * dim]);
        let mut s0 = 0;
        while s0 < nb {
            s0 = match nb - s0 {
                r if r >= LANES => logit_tile::<LANES>(rows, b, xb, nb, out, pair, s0),
                r if r >= 8 => logit_tile::<8>(rows, b, xb, nb, out, pair, s0),
                _ => logit_tile::<1>(rows, b, xb, nb, out, pair, s0),
            };
        }
    }
}

/// One register tile of [`batch_logits`]: the weight `rows` of the
/// classes `pair` × samples `s0 .. s0 + W`. Returns `s0 + W`.
#[inline(always)]
fn logit_tile<const W: usize>(
    [r0, r1]: [&[f32]; 2],
    b: &[f32],
    xb: &[f32],
    nb: usize,
    out: &mut [f32],
    [c0, c1]: [usize; 2],
    s0: usize,
) -> usize {
    let (mut a0, mut a1) = ([0.0f32; W], [0.0f32; W]);
    for ((xrow, &w0), &w1) in xb.chunks_exact(nb).zip(r0).zip(r1) {
        for ((p, q), &x) in a0.iter_mut().zip(&mut a1).zip(&xrow[s0..s0 + W]) {
            *p += w0 * x;
            *q += w1 * x;
        }
    }
    for (c, acc) in [(c1, a1), (c0, a0)] {
        for (o, a) in out[c * nb + s0..c * nb + s0 + W].iter_mut().zip(acc) {
            *o = a + b[c];
        }
    }
    s0 + W
}

/// The strict backward of one chunk, off its coefficient block
/// `coefs[c·nb + s] = (p_cs − 1{c = y_s}) · inv`: for every (class,
/// sample) whose coefficient is nonzero, `gw[c·dim + d] += coef · x_s[d]`
/// and `gb[c] += coef`, each in ascending sample order — the adds of the
/// plain class-outer loop, so every gradient float is the same. Register
/// tiles of a class pair × [`LANES`] features ([`grad_tile`]) keep the
/// gradient rows in registers across the chunk instead of loading and
/// storing them once per sample. An odd last class is paired with itself:
/// both halves of its tile compute the same floats.
fn grad_block(coefs: &[f32], data: &Dataset, chunk: &[usize], gw: &mut [f32], gb: &mut [f32]) {
    let (nb, dim, classes) = (chunk.len(), data.dim(), gb.len());
    for c0 in (0..classes).step_by(2) {
        let pair = [c0, (c0 + 1).min(classes - 1)];
        let rows = pair.map(|c| &coefs[c * nb..(c + 1) * nb]);
        let mut d0 = 0;
        while d0 < dim {
            d0 = match dim - d0 {
                r if r >= LANES => grad_tile::<LANES>(rows, data, chunk, gw, gb, pair, d0),
                r if r >= 8 => grad_tile::<8>(rows, data, chunk, gw, gb, pair, d0),
                _ => grad_tile::<1>(rows, data, chunk, gw, gb, pair, d0),
            };
        }
    }
}

/// One register tile of [`grad_block`]: the coefficient `rows` of the
/// classes `pair` × features `d0 .. d0 + W`, plus their `gb` entries
/// when `d0 == 0`. Returns `d0 + W`.
#[inline(always)]
fn grad_tile<const W: usize>(
    [r0, r1]: [&[f32]; 2],
    data: &Dataset,
    chunk: &[usize],
    gw: &mut [f32],
    gb: &mut [f32],
    [c0, c1]: [usize; 2],
    d0: usize,
) -> usize {
    let dim = data.dim();
    let lanes = |c: usize| c * dim + d0..c * dim + d0 + W;
    let (mut a0, mut a1) = ([0.0f32; W], [0.0f32; W]);
    a0.copy_from_slice(&gw[lanes(c0)]);
    a1.copy_from_slice(&gw[lanes(c1)]);
    let (mut b0, mut b1) = (gb[c0], gb[c1]);
    for ((&i, &k0), &k1) in chunk.iter().zip(r0).zip(r1) {
        let x = &data.feature(i)[d0..d0 + W];
        skip_axpy(&mut a0, &mut b0, k0, x);
        skip_axpy(&mut a1, &mut b1, k1, x);
    }
    for (c, acc, bias) in [(c1, a1, b1), (c0, a0, b0)] {
        gw[lanes(c)].copy_from_slice(&acc);
        if d0 == 0 {
            gb[c] = bias;
        }
    }
    d0 + W
}

/// `acc += coef · x` and `bias += coef`, skipped when `coef == 0` (as the
/// per-sample backward skips it).
#[inline(always)]
fn skip_axpy<const W: usize>(acc: &mut [f32; W], bias: &mut f32, coef: f32, x: &[f32]) {
    if coef != 0.0 {
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a += coef * xv;
        }
        *bias += coef;
    }
}

/// The first `G` slices of `items`, and how many there were: a shorter
/// run is padded with its last slice (with empty slices if there is
/// none), so every lane of a group kernel reads a real vector.
fn padded_group<'a, const G: usize>(
    items: impl Iterator<Item = &'a [f32]>,
) -> ([&'a [f32]; G], usize) {
    let mut group = [&[][..]; G];
    let (mut items, mut taken, mut last) = (items.take(G), 0, &[][..]);
    for member in group.iter_mut() {
        if let Some(item) = items.next() {
            (last, taken) = (item, taken + 1);
        }
        *member = last;
    }
    (group, taken)
}

/// The loop every [`Model::loss_fleet`] runs: checks the block against
/// the model's shape and each replica's length, scores the replicas in
/// order `G` at a time with `score`, and checks that there was one per
/// loss slot. The losses of a short last group's padded lanes are
/// dropped.
fn score_fleet<const G: usize>(
    block: &EvalBlock,
    (dim, num_params): (usize, usize),
    replicas: &mut dyn Iterator<Item = &[f32]>,
    losses: &mut [f32],
    mut score: impl FnMut(&[&[f32]; G]) -> [f32; G],
) {
    assert!(!block.is_empty(), "empty batch");
    assert_eq!(block.dim(), dim, "dataset dim mismatch");
    for slots in losses.chunks_mut(G) {
        let (group, taken) = padded_group(replicas.take(slots.len()));
        assert!(taken == slots.len(), "one loss slot per replica");
        for params in &group {
            assert_eq!(params.len(), num_params, "replica parameter count mismatch");
        }
        for (slot, loss) in slots.iter_mut().zip(score(&group)) {
            *slot = loss;
        }
    }
    assert!(replicas.next().is_none(), "one loss slot per replica");
}

/// A supervised model with flat parameters.
pub trait Model: Send {
    /// Number of parameters.
    fn num_params(&self) -> usize;

    /// Flat parameter vector.
    fn params(&self) -> &[f32];

    /// Mutable flat parameter vector.
    fn params_mut(&mut self) -> &mut [f32];

    /// Computes the mean loss over `batch` (example indices into `data`)
    /// and leaves the mean gradient in `scratch.grad` (`num_params`
    /// long). Nothing allocates once `scratch` is warm, and a warm
    /// scratch gives the same bits as a fresh one.
    ///
    /// # Panics
    /// Implementations panic on an empty batch or a dataset whose shape
    /// does not match the model.
    fn loss_grad_scratch(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32;

    /// Mean loss over `batch` without computing gradients.
    fn loss(&self, data: &Dataset, batch: &[usize]) -> f32;

    /// Mean loss over a gathered [`EvalBlock`] of every replica of a
    /// fleet of same-shaped ones, each read in place through its flat
    /// parameter slice: `losses[r]` is the **same float** as
    /// [`Model::loss`] over the block's examples on a model of `self`'s
    /// shape holding the `r`-th of `replicas`. `self` supplies the shape
    /// and hyper-parameters only; its own parameters are not read.
    /// Computed by the batched kernels straight off the shared
    /// feature-major block: nothing is gathered, transposed or cloned per
    /// replica, and nothing allocates once the scratch is warm. The metric
    /// recorder evaluates loss curves through this entry point, one call
    /// per sample over the live fleet.
    ///
    /// # Panics
    /// Implementations panic on an empty block, one whose feature
    /// dimension does not match the model, a replica that is not
    /// `num_params` long, or a replica count other than `losses.len()`.
    fn loss_fleet(
        &self,
        block: &EvalBlock,
        replicas: &mut dyn Iterator<Item = &[f32]>,
        scratch: &mut Scratch,
        losses: &mut [f32],
    );

    /// Number of correctly classified examples over the whole `data` set,
    /// through the reusable workspace — bitwise identical to counting
    /// [`Model::predict`] hits, without the per-sample temporaries.
    fn count_correct_scratch(&self, data: &Dataset, scratch: &mut Scratch) -> usize {
        let _ = scratch;
        (0..data.len())
            .filter(|&i| self.predict(data.feature(i)) == data.label(i))
            .count()
    }

    /// Predicted class for a feature vector. Regression models return 0.
    fn predict(&self, x: &[f32]) -> u32;

    /// Clones the model behind a trait object (each worker node holds its
    /// own replica).
    fn clone_box(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which model a workload trains; a cheap, serialisable factory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// Multinomial logistic regression.
    Softmax,
    /// One-hidden-layer ReLU MLP with the given hidden width.
    Mlp {
        /// Hidden-layer width.
        hidden: usize,
    },
    /// Ridge regression with the given L2 coefficient.
    LeastSquares {
        /// L2 regularisation weight (µ-strong convexity constant).
        l2: f64,
    },
}

impl ModelKind {
    /// Instantiates the model for a dataset shape with seeded init.
    pub fn build(self, dim: usize, num_classes: usize, seed: u64) -> Box<dyn Model> {
        match self {
            ModelKind::Softmax => Box::new(SoftmaxRegression::new(dim, num_classes, seed)),
            ModelKind::Mlp { hidden } => Box::new(Mlp::new(dim, hidden, num_classes, seed)),
            ModelKind::LeastSquares { l2 } => Box::new(LeastSquares::new(dim, l2 as f32, seed)),
        }
    }
}

fn seeded_init(n: usize, scale: f32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
}

// ---------------------------------------------------------------------------
// Softmax regression
// ---------------------------------------------------------------------------

/// Multinomial logistic regression: `logit_c = W_c · x + b_c`.
///
/// Parameter layout: `[W (C×D row-major) | b (C)]`.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    dim: usize,
    classes: usize,
    params: Vec<f32>,
}

impl SoftmaxRegression {
    /// Creates a model with small seeded random weights.
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        assert!(classes >= 2, "softmax needs ≥ 2 classes");
        let scale = (1.0 / dim as f32).sqrt() * 0.1;
        let mut params = seeded_init(dim * classes, scale, seed);
        params.extend(std::iter::repeat_n(0.0f32, classes));
        Self { dim, classes, params }
    }

    /// Class probabilities for a feature vector (softmax of the logits).
    pub fn probabilities(&self, x: &[f32]) -> Vec<f32> {
        let mut logits = self.logits(x);
        softmax_inplace(&mut logits);
        logits
    }

    fn logits(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.logits_into(x, &mut out);
        out
    }

    fn logits_into(&self, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.dim);
        let (w, b) = self.params.split_at(self.dim * self.classes);
        out.clear();
        out.extend(
            w.chunks_exact(self.dim)
                .zip(b)
                .map(|(row, &bc)| crate::params::dot_sequential(row, x) + bc),
        );
    }

    /// The strict gradient kernel behind `loss_grad_scratch`: the batched
    /// forward ([`batch_logits`], [`softmax_block`]) and backward
    /// ([`grad_block`]), each bitwise identical to its per-sample loop.
    fn loss_grad_core(
        &self,
        data: &Dataset,
        batch: &[usize],
        grad: &mut [f32],
        scratch_bufs: (&mut Vec<f32>, &mut Vec<f32>, &mut Vec<f32>, &mut Vec<f32>),
    ) -> f32 {
        let (xb, logits_all, maxs, sums) = scratch_bufs;
        assert_eq!(grad.len(), self.num_params(), "grad buffer size mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dim mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let (w, b) = self.params.split_at(self.dim * self.classes);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        let (gw, gb) = grad.split_at_mut(self.dim * self.classes);
        for chunk in batch.chunks(BATCH_CHUNK) {
            let nb = chunk.len();
            transpose_batch(data, chunk, self.dim, xb);
            logits_all.resize(self.classes * nb, 0.0);
            batch_logits(w, b, xb, self.dim, nb, logits_all);
            softmax_block(logits_all, nb, maxs, sums);
            // The loss, then the probabilities become the backward's
            // coefficients `(p − 1{c = y}) · inv` in place (`p − 0.0` is
            // `p`, so only the label entries need the subtraction).
            for (s, &i) in chunk.iter().enumerate() {
                let py = &mut logits_all[data.label(i) as usize * nb + s];
                loss -= logf(clamp_prob(*py));
                *py -= 1.0;
            }
            for p in logits_all.iter_mut() {
                *p *= inv;
            }
            grad_block(logits_all, data, chunk, gw, gb);
        }
        loss * inv
    }

    /// The loss kernel behind [`Model::loss_fleet`], at the parameters
    /// `params`; bitwise identical to [`Model::loss`] over the block's
    /// examples.
    fn loss_core(
        &self,
        params: &[f32],
        block: &EvalBlock,
        logits_all: &mut Vec<f32>,
        maxs: &mut Vec<f32>,
        sums: &mut Vec<f32>,
    ) -> f32 {
        let (w, b) = params.split_at(self.dim * self.classes);
        let mut loss = 0.0f32;
        for (xb, labels) in block.blocks() {
            let nb = labels.len();
            logits_all.resize(self.classes * nb, 0.0);
            batch_logits(w, b, xb, self.dim, nb, logits_all);
            softmax_block(logits_all, nb, maxs, sums);
            for (s, &y) in labels.iter().enumerate() {
                loss -= logf(clamp_prob(logits_all[y as usize * nb + s]));
            }
        }
        loss / block.len() as f32
    }

    /// Fast-tier gradient core: same chunking as [`Self::loss_grad_core`],
    /// but the whole forward/backward runs through the reassociated block
    /// kernel ([`softmax_xent_grad_fast`]). Statistically equivalent to
    /// the strict core, not bit-equal.
    fn loss_grad_fast(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        let Scratch { grad, xb, logits_all, maxs, sums, coefs, labels, .. } = scratch;
        grad.resize(self.num_params(), 0.0);
        assert_eq!(data.dim(), self.dim, "dataset dim mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let (w, b) = self.params.split_at(self.dim * self.classes);
        let (gw, gb) = grad.split_at_mut(self.dim * self.classes);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        for chunk in batch.chunks(BATCH_CHUNK) {
            let nb = chunk.len();
            transpose_block_fast(data.features(), chunk, self.dim, xb);
            labels.clear();
            labels.extend(chunk.iter().map(|&i| data.label(i)));
            loss += softmax_xent_grad_fast(
                w,
                b,
                xb,
                data.features(),
                chunk,
                labels,
                self.dim,
                nb,
                logits_all,
                maxs,
                sums,
                coefs,
                gw,
                gb,
                inv,
            );
        }
        loss * inv
    }
}

/// Numerically stable in-place softmax over a compile-time length —
/// identical operations in identical order to the dynamic loop (bitwise
/// equal), but the known trip count lets the compiler unroll the max
/// fold and the normalisation.
#[inline]
fn softmax_fixed<const N: usize>(logits: &mut [f32; N]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// Numerically stable in-place softmax.
#[inline]
fn softmax_inplace(logits: &mut [f32]) {
    // Class counts of the benchmark registry get unrolled bodies.
    match logits.len() {
        10 => softmax_fixed::<10>(logits.try_into().expect("len checked")),
        100 => softmax_fixed::<100>(logits.try_into().expect("len checked")),
        _ => {
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for l in logits.iter_mut() {
                *l = (*l - max).exp();
                sum += *l;
            }
            for l in logits.iter_mut() {
                *l /= sum;
            }
        }
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn loss_grad_scratch(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        if scratch.tier == NumericsTier::Fast {
            return self.loss_grad_fast(data, batch, scratch);
        }
        let Scratch { grad, xb, logits_all, maxs, sums, .. } = scratch;
        grad.resize(self.num_params(), 0.0);
        self.loss_grad_core(data, batch, grad, (xb, logits_all, maxs, sums))
    }

    fn loss(&self, data: &Dataset, batch: &[usize]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let mut loss = 0.0f32;
        for &i in batch {
            let p = self.probabilities(data.feature(i));
            loss -= clamp_prob(p[data.label(i) as usize]).ln();
        }
        loss / batch.len() as f32
    }

    fn loss_fleet(
        &self,
        block: &EvalBlock,
        replicas: &mut dyn Iterator<Item = &[f32]>,
        scratch: &mut Scratch,
        losses: &mut [f32],
    ) {
        let Scratch { logits_all, maxs, sums, .. } = scratch;
        score_fleet(block, (self.dim, self.num_params()), replicas, losses, |&[params]| {
            [self.loss_core(params, block, logits_all, maxs, sums)]
        });
    }

    fn count_correct_scratch(&self, data: &Dataset, scratch: &mut Scratch) -> usize {
        let Scratch { logits, xb, logits_all, idx, .. } = scratch;
        logits.resize(self.classes, 0.0);
        let (w, b) = self.params.split_at(self.dim * self.classes);
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < data.len() {
            let end = (start + BATCH_CHUNK).min(data.len());
            let nb = end - start;
            idx.clear();
            idx.extend(start..end);
            transpose_batch(data, idx, self.dim, xb);
            logits_all.resize(self.classes * nb, 0.0);
            batch_logits(w, b, xb, self.dim, nb, logits_all);
            for s in 0..nb {
                for (c, lc) in logits.iter_mut().enumerate() {
                    *lc = logits_all[c * nb + s];
                }
                if argmax(logits) == data.label(start + s) {
                    correct += 1;
                }
            }
            start = end;
        }
        correct
    }

    fn predict(&self, x: &[f32]) -> u32 {
        let logits = self.logits(x);
        argmax(&logits)
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

fn argmax(v: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best as u32
}

// ---------------------------------------------------------------------------
// One-hidden-layer MLP
// ---------------------------------------------------------------------------

/// One-hidden-layer ReLU network: `logits = W2 · relu(W1 x + b1) + b2`.
///
/// Parameter layout: `[W1 (H×D) | b1 (H) | W2 (C×H) | b2 (C)]`.
#[derive(Debug, Clone)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    params: Vec<f32>,
}

impl Mlp {
    /// Creates a model with He-style seeded init.
    pub fn new(dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        assert!(hidden > 0 && classes >= 2);
        let s1 = (2.0 / dim as f32).sqrt() * 0.5;
        let s2 = (2.0 / hidden as f32).sqrt() * 0.5;
        let mut params = seeded_init(hidden * dim, s1, seed);
        params.extend(std::iter::repeat_n(0.0f32, hidden));
        params.extend(seeded_init(classes * hidden, s2, seed.wrapping_add(1)));
        params.extend(std::iter::repeat_n(0.0f32, classes));
        Self { dim, hidden, classes, params }
    }

    /// `(W1, b1, W2, b2)` of a flat parameter vector of this shape.
    fn split<'p>(&self, params: &'p [f32]) -> (&'p [f32], &'p [f32], &'p [f32], &'p [f32]) {
        let (w1, rest) = params.split_at(self.hidden * self.dim);
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.classes * self.hidden);
        (w1, b1, w2, b2)
    }

    /// Forward pass; returns (hidden activations post-ReLU, logits).
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut h = vec![0.0f32; self.hidden];
        let mut logits = vec![0.0f32; self.classes];
        self.forward_into(x, &mut h, &mut logits);
        (h, logits)
    }

    /// Forward pass into caller-provided buffers (`h` and `logits` must
    /// already have the right lengths).
    fn forward_into(&self, x: &[f32], h: &mut [f32], logits: &mut [f32]) {
        let (w1, b1, w2, b2) = self.split(&self.params);
        for ((hj, row), &bj) in h.iter_mut().zip(w1.chunks_exact(self.dim)).zip(b1) {
            *hj = (crate::params::dot_sequential(row, x) + bj).max(0.0);
        }
        for ((lc, row), &bc) in logits.iter_mut().zip(w2.chunks_exact(self.hidden)).zip(b2) {
            *lc = crate::params::dot_sequential(row, h) + bc;
        }
    }

    /// The strict gradient kernel behind `loss_grad_scratch`; `h`,
    /// `logits`, and `dh` are the only temporaries it needs.
    fn loss_grad_core(
        &self,
        data: &Dataset,
        batch: &[usize],
        grad: &mut [f32],
        h: &mut Vec<f32>,
        logits: &mut Vec<f32>,
        dh: &mut Vec<f32>,
    ) -> f32 {
        assert_eq!(grad.len(), self.num_params(), "grad buffer size mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dim mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        h.resize(self.hidden, 0.0);
        logits.resize(self.classes, 0.0);
        dh.resize(self.hidden, 0.0);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;

        let (w1_len, b1_len, w2_len) =
            (self.hidden * self.dim, self.hidden, self.classes * self.hidden);
        // `grad` is caller-owned, so the weight views below coexist with
        // it without copies (the old implementation cloned `w2` here).
        let (_, _, w2, _) = self.split(&self.params);
        let (gw1, rest) = grad.split_at_mut(w1_len);
        let (gb1, rest) = rest.split_at_mut(b1_len);
        let (gw2, gb2) = rest.split_at_mut(w2_len);

        for &i in batch {
            let x = data.feature(i);
            let y = data.label(i) as usize;
            self.forward_into(x, h, logits);
            softmax_inplace(logits);
            loss -= logf(clamp_prob(logits[y]));

            // dL/dlogit_c = p_c - 1{c=y}; output layer grads + backprop
            // into the hidden layer.
            dh.fill(0.0);
            let out_layer = gw2
                .chunks_exact_mut(self.hidden)
                .zip(&mut *gb2)
                .zip(w2.chunks_exact(self.hidden));
            for (c, (&p, ((row, g), w2row))) in logits.iter().zip(out_layer).enumerate() {
                let d = (p - if c == y { 1.0 } else { 0.0 }) * inv;
                if d == 0.0 {
                    continue;
                }
                crate::params::axpy(d, h, row);
                *g += d;
                crate::params::axpy(d, w2row, dh);
            }
            // ReLU gate, then input layer grads.
            let in_layer = gw1.chunks_exact_mut(self.dim).zip(&mut *gb1);
            for ((&hj, &dhj), (row, g)) in h.iter().zip(&*dh).zip(in_layer) {
                if hj <= 0.0 || dhj == 0.0 {
                    continue;
                }
                crate::params::axpy(dhj, x, row);
                *g += dhj;
            }
        }
        loss * inv
    }

    /// Fast-tier gradient core: the per-sample structure of
    /// [`Self::loss_grad_core`], but every dot/axpy/exp/ln is the
    /// [`crate::fast`] kernel, so the whole pass runs on the reassociated
    /// family without touching the strict kernels.
    fn loss_grad_fast(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        let Scratch { grad, h, logits, dh, .. } = scratch;
        grad.resize(self.num_params(), 0.0);
        assert_eq!(data.dim(), self.dim, "dataset dim mismatch");
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        h.resize(self.hidden, 0.0);
        logits.resize(self.classes, 0.0);
        dh.resize(self.hidden, 0.0);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;

        let (w1_len, b1_len, w2_len) =
            (self.hidden * self.dim, self.hidden, self.classes * self.hidden);
        let (w1, b1, w2, b2) = self.split(&self.params);
        let (gw1, rest) = grad.split_at_mut(w1_len);
        let (gb1, rest) = rest.split_at_mut(b1_len);
        let (gw2, gb2) = rest.split_at_mut(w2_len);

        for &i in batch {
            let x = data.feature(i);
            let y = data.label(i) as usize;
            for (j, hj) in h.iter_mut().enumerate() {
                let row = &w1[j * self.dim..(j + 1) * self.dim];
                *hj = (dot_fast(row, x) + b1[j]).max(0.0);
            }
            for (c, lc) in logits.iter_mut().enumerate() {
                let row = &w2[c * self.hidden..(c + 1) * self.hidden];
                *lc = dot_fast(row, h) + b2[c];
            }
            let maxv = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for l in logits.iter_mut() {
                *l = exp_fast(*l - maxv);
                sum += *l;
            }
            let isum = 1.0 / sum;
            for l in logits.iter_mut() {
                *l *= isum;
            }
            loss -= ln_fast(if logits[y] < 1e-12 { 1e-12 } else { logits[y] });

            dh.fill(0.0);
            for c in 0..self.classes {
                let d = (logits[c] - if c == y { 1.0 } else { 0.0 }) * inv;
                if d == 0.0 {
                    continue;
                }
                let row = &mut gw2[c * self.hidden..(c + 1) * self.hidden];
                axpy_fast(d, h, row);
                gb2[c] += d;
                let w2row = &w2[c * self.hidden..(c + 1) * self.hidden];
                axpy_fast(d, w2row, dh);
            }
            for (j, dhj) in dh.iter().enumerate() {
                if h[j] <= 0.0 || *dhj == 0.0 {
                    continue;
                }
                let row = &mut gw1[j * self.dim..(j + 1) * self.dim];
                axpy_fast(*dhj, x, row);
                gb1[j] += *dhj;
            }
        }
        loss * inv
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn loss_grad_scratch(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        if scratch.tier == NumericsTier::Fast {
            return self.loss_grad_fast(data, batch, scratch);
        }
        let Scratch { grad, h, logits, dh, .. } = scratch;
        grad.resize(self.num_params(), 0.0);
        self.loss_grad_core(data, batch, grad, h, logits, dh)
    }

    fn loss(&self, data: &Dataset, batch: &[usize]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let mut loss = 0.0f32;
        for &i in batch {
            let (_, mut p) = self.forward(data.feature(i));
            softmax_inplace(&mut p);
            loss -= clamp_prob(p[data.label(i) as usize]).ln();
        }
        loss / batch.len() as f32
    }

    fn loss_fleet(
        &self,
        block: &EvalBlock,
        replicas: &mut dyn Iterator<Item = &[f32]>,
        scratch: &mut Scratch,
        losses: &mut [f32],
    ) {
        let Scratch { hb, logits_all, maxs, sums, .. } = scratch;
        score_fleet(block, (self.dim, self.num_params()), replicas, losses, |&[params]| {
            let (w1, b1, w2, b2) = self.split(params);
            let mut loss = 0.0f32;
            for (xb, labels) in block.blocks() {
                let nb = labels.len();
                // Both layers through the batched kernel: every hidden
                // unit and logit accumulates in the order of
                // `forward_into`.
                hb.resize(self.hidden * nb, 0.0);
                batch_logits(w1, b1, xb, self.dim, nb, hb);
                for h in hb.iter_mut() {
                    *h = h.max(0.0);
                }
                logits_all.resize(self.classes * nb, 0.0);
                batch_logits(w2, b2, hb, self.hidden, nb, logits_all);
                softmax_block(logits_all, nb, maxs, sums);
                for (s, &y) in labels.iter().enumerate() {
                    loss -= logf(clamp_prob(logits_all[y as usize * nb + s]));
                }
            }
            [loss / block.len() as f32]
        });
    }

    fn count_correct_scratch(&self, data: &Dataset, scratch: &mut Scratch) -> usize {
        let Scratch { h, logits, .. } = scratch;
        h.resize(self.hidden, 0.0);
        logits.resize(self.classes, 0.0);
        (0..data.len())
            .filter(|&i| {
                self.forward_into(data.feature(i), h, logits);
                argmax(logits) == data.label(i)
            })
            .count()
    }

    fn predict(&self, x: &[f32]) -> u32 {
        let (_, logits) = self.forward(x);
        argmax(&logits)
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Ridge regression (the Assumption-1 model)
// ---------------------------------------------------------------------------

/// L2-regularised least squares: `loss = ½(w·x + b − y)² + ½λ‖w‖²`,
/// treating the integer label as the regression target.
///
/// With `λ > 0` this loss is λ-strongly convex with Lipschitz gradients —
/// the exact hypotheses of the paper's Assumption 1 — so the convergence
/// bound of Theorem 1 can be tested against it quantitatively.
#[derive(Debug, Clone)]
pub struct LeastSquares {
    dim: usize,
    l2: f32,
    /// Layout: `[w (dim) | b]`.
    params: Vec<f32>,
}

impl LeastSquares {
    /// Creates a model with small seeded random weights.
    pub fn new(dim: usize, l2: f32, seed: u64) -> Self {
        assert!(l2 >= 0.0);
        let mut params = seeded_init(dim, 0.1, seed);
        params.push(0.0);
        Self { dim, l2, params }
    }

    fn value(&self, x: &[f32]) -> f32 {
        crate::params::dot(&self.params[..self.dim], x) + self.params[self.dim]
    }

    /// The loss kernel behind [`Model::loss_fleet`]: the losses of a
    /// group of [`DOT_GROUP`] replicas, `wt` their weights laid out
    /// feature-major. Per tile of [`DOT_TILE`] examples,
    /// [`dot_group_tile`] leaves every replica's `w·x` (each the float
    /// [`Self::value`] computes) in registers, reading each feature row
    /// of the tile once for the whole group. Each replica's terms
    /// `0.5·r·r` are formed side by side and its own chain `loss += term`
    /// advances over them in example order, so it adds the terms
    /// [`Model::loss`] adds, in its order; the group's chains are
    /// independent, and the adds are the only serial work.
    fn loss_group(
        &self,
        group: &[&[f32]; DOT_GROUP],
        block: &EvalBlock,
        wt: &mut Vec<f32>,
    ) -> [f32; DOT_GROUP] {
        // Row `dim` of the gathered block is the group's biases.
        wt.resize(DOT_GROUP * (self.dim + 1), 0.0);
        gather_feature_major(DOT_GROUP, self.dim + 1, |r| group[r], wt);
        let (wt, biases) = wt.split_at(DOT_GROUP * self.dim);
        let mut losses = [0.0f32; DOT_GROUP];
        for (xb, labels) in block.blocks() {
            for (tile, ys) in labels.chunks(DOT_TILE).enumerate() {
                let wx = dot_group_tile(wt, xb, labels.len(), tile * DOT_TILE, ys.len());
                for ((loss, wx), &b) in losses.iter_mut().zip(wx.chunks_exact(DOT_TILE)).zip(biases) {
                    let mut terms = [0.0f32; DOT_TILE];
                    for ((term, &wx), &y) in terms.iter_mut().zip(wx).zip(ys) {
                        let r = wx + b - y as f32;
                        *term = 0.5 * r * r;
                    }
                    for &term in terms.iter().take(ys.len()) {
                        *loss += term;
                    }
                }
            }
        }
        for (loss, params) in losses.iter_mut().zip(group) {
            let w = &params[..self.dim];
            *loss = *loss / block.len() as f32 + 0.5 * self.l2 * crate::params::norm_sq(w);
        }
        losses
    }

    /// Fast-tier gradient core: the strict body's structure with every
    /// dot/axpy/norm the [`crate::fast`] kernel.
    fn loss_grad_fast(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        let grad = &mut scratch.grad;
        grad.resize(self.num_params(), 0.0);
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        for &i in batch {
            let x = data.feature(i);
            let y = data.label(i) as f32;
            let r = dot_fast(&self.params[..self.dim], x) + self.params[self.dim] - y;
            loss += 0.5 * r * r;
            axpy_fast(r * inv, x, &mut grad[..self.dim]);
            grad[self.dim] += r * inv;
        }
        let w = &self.params[..self.dim];
        loss += 0.5 * self.l2 * norm_sq_fast(w) * batch.len() as f32;
        axpy_fast(self.l2, w, &mut grad[..self.dim]);
        loss * inv
    }
}

impl Model for LeastSquares {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn loss_grad_scratch(&self, data: &Dataset, batch: &[usize], scratch: &mut Scratch) -> f32 {
        if scratch.tier == NumericsTier::Fast {
            return self.loss_grad_fast(data, batch, scratch);
        }
        let grad = &mut scratch.grad;
        grad.resize(self.num_params(), 0.0);
        assert!(!batch.is_empty(), "empty batch");
        grad.fill(0.0);
        let (w, b) = self.params.split_at(self.dim);
        let (gw, gb) = grad.split_at_mut(self.dim);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        // The examples' dots advance `DOT_ROWS` at a time; then the
        // group's `loss +=`, axpy and bias adds run in batch order, each
        // accumulator receiving the adds of the per-example loop in its
        // order. A short last group pads its dots with its last example.
        for group in batch.chunks(DOT_ROWS) {
            let (xs, _) = padded_group(group.iter().map(|&i| data.feature(i)));
            let mut coefs = [0.0f32; DOT_ROWS];
            for ((coef, wx), &i) in coefs.iter_mut().zip(dot_rows(w, &xs)).zip(group) {
                let r = (wx + b[0]) - data.label(i) as f32;
                loss += 0.5 * r * r;
                *coef = r * inv;
            }
            if group.len() == DOT_ROWS {
                axpy_rows(&coefs, &xs, gw);
            } else {
                for (&coef, x) in coefs.iter().zip(&xs).take(group.len()) {
                    crate::params::axpy(coef, x, gw);
                }
            }
            for &coef in coefs.iter().take(group.len()) {
                gb[0] += coef;
            }
        }
        // L2 term on weights (not bias).
        loss += 0.5 * self.l2 * crate::params::norm_sq(w) * batch.len() as f32;
        crate::params::axpy(self.l2, w, gw);
        loss * inv
    }

    fn loss(&self, data: &Dataset, batch: &[usize]) -> f32 {
        assert!(!batch.is_empty(), "empty batch");
        let mut loss = 0.0f32;
        for &i in batch {
            let r = self.value(data.feature(i)) - data.label(i) as f32;
            loss += 0.5 * r * r;
        }
        loss / batch.len() as f32
            + 0.5 * self.l2 * crate::params::norm_sq(&self.params[..self.dim])
    }

    fn loss_fleet(
        &self,
        block: &EvalBlock,
        replicas: &mut dyn Iterator<Item = &[f32]>,
        scratch: &mut Scratch,
        losses: &mut [f32],
    ) {
        score_fleet(block, (self.dim, self.num_params()), replicas, losses, |group| {
            self.loss_group(group, block, &mut scratch.wt)
        });
    }

    fn predict(&self, x: &[f32]) -> u32 {
        self.value(x).round().max(0.0) as u32
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{gaussian_mixture, MixtureSpec};

    fn small_data() -> Dataset {
        gaussian_mixture(
            MixtureSpec {
                num_classes: 3,
                dim: 8,
                train_n: 120,
                test_n: 30,
                mean_scale: 2.0,
                noise: 0.3,
            },
            42,
        )
        .0
    }

    /// Loss and gradient through a fresh scratch — what a first call sees.
    fn loss_grad(model: &dyn Model, data: &Dataset, batch: &[usize]) -> (f32, Vec<f32>) {
        let mut scratch = Scratch::new();
        let loss = model.loss_grad_scratch(data, batch, &mut scratch);
        (loss, scratch.grad)
    }

    /// `loss_fleet` on a fleet of one: the model at its own parameters.
    fn block_loss(model: &dyn Model, block: &EvalBlock, scratch: &mut Scratch) -> f32 {
        let mut loss = [f32::NAN];
        model.loss_fleet(block, &mut std::iter::once(model.params()), scratch, &mut loss);
        loss[0]
    }

    /// Central-difference gradient check for any model.
    fn grad_check(model: &mut dyn Model, data: &Dataset, tol: f32) {
        let batch: Vec<usize> = (0..16).collect();
        let n = model.num_params();
        let (_, grad) = loss_grad(model, data, &batch);
        let eps = 1e-3f32;
        // Check a spread of parameter coordinates.
        for k in (0..n).step_by((n / 13).max(1)) {
            let orig = model.params()[k];
            model.params_mut()[k] = orig + eps;
            let lp = model.loss(data, &batch);
            model.params_mut()[k] = orig - eps;
            let lm = model.loss(data, &batch);
            model.params_mut()[k] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad[k]).abs() < tol * (1.0 + num.abs()),
                "param {k}: numeric {num} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn softmax_gradient_is_correct() {
        let data = small_data();
        let mut m = SoftmaxRegression::new(8, 3, 7);
        grad_check(&mut m, &data, 2e-2);
    }

    #[test]
    fn mlp_gradient_is_correct() {
        let data = small_data();
        let mut m = Mlp::new(8, 12, 3, 7);
        grad_check(&mut m, &data, 3e-2);
    }

    #[test]
    fn least_squares_gradient_is_correct() {
        let data = small_data();
        let mut m = LeastSquares::new(8, 0.01, 7);
        grad_check(&mut m, &data, 2e-2);
    }

    #[test]
    fn sgd_reduces_softmax_loss() {
        let data = small_data();
        let mut m = SoftmaxRegression::new(8, 3, 1);
        let batch: Vec<usize> = (0..data.len()).collect();
        let mut scratch = Scratch::new();
        let l0 = m.loss(&data, &batch);
        for _ in 0..50 {
            m.loss_grad_scratch(&data, &batch, &mut scratch);
            crate::params::axpy(-0.5, &scratch.grad, m.params_mut());
        }
        let l1 = m.loss(&data, &batch);
        assert!(l1 < 0.5 * l0, "full-batch GD failed to reduce loss: {l0} -> {l1}");
    }

    #[test]
    fn trained_softmax_beats_chance() {
        let (train, test) = gaussian_mixture(
            MixtureSpec {
                num_classes: 4,
                dim: 10,
                train_n: 400,
                test_n: 200,
                mean_scale: 1.5,
                noise: 0.5,
            },
            3,
        );
        let mut m = SoftmaxRegression::new(10, 4, 1);
        let batch: Vec<usize> = (0..train.len()).collect();
        let mut scratch = Scratch::new();
        for _ in 0..200 {
            m.loss_grad_scratch(&train, &batch, &mut scratch);
            crate::params::axpy(-0.5, &scratch.grad, m.params_mut());
        }
        let correct = (0..test.len())
            .filter(|&i| m.predict(test.feature(i)) == test.label(i))
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.8, "test accuracy {acc} too low");
    }

    #[test]
    fn model_kind_builds_expected_sizes() {
        let s = ModelKind::Softmax.build(10, 4, 0);
        assert_eq!(s.num_params(), 10 * 4 + 4);
        let m = ModelKind::Mlp { hidden: 16 }.build(10, 4, 0);
        assert_eq!(m.num_params(), 16 * 10 + 16 + 4 * 16 + 4);
        let l = ModelKind::LeastSquares { l2: 0.1 }.build(10, 4, 0);
        assert_eq!(l.num_params(), 11);
    }

    #[test]
    fn clone_box_is_independent() {
        let m = SoftmaxRegression::new(4, 2, 9);
        let mut c = m.clone_box();
        c.params_mut()[0] += 1.0;
        assert_ne!(m.params()[0], c.params()[0]);
    }

    #[test]
    fn scratch_path_is_bitwise_identical_for_all_models() {
        let data = small_data();
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(SoftmaxRegression::new(8, 3, 7)),
            Box::new(Mlp::new(8, 12, 3, 7)),
            Box::new(LeastSquares::new(8, 0.01, 7)),
        ];
        let mut rng = StdRng::seed_from_u64(99);
        for m in &models {
            // One scratch reused across trials against a fresh one per
            // trial: what a warm buffer holds never reaches the result.
            let mut scratch = Scratch::new();
            for trial in 0..8 {
                let len = rng.gen_range(1..=32usize);
                let batch: Vec<usize> =
                    (0..len).map(|_| rng.gen_range(0..data.len())).collect();
                let (loss, grad) = loss_grad(m.as_ref(), &data, &batch);
                let loss_s = m.loss_grad_scratch(&data, &batch, &mut scratch);
                assert_eq!(
                    loss.to_bits(),
                    loss_s.to_bits(),
                    "trial {trial}: loss mismatch {loss} vs {loss_s}"
                );
                assert_eq!(scratch.grad.len(), grad.len());
                for (k, (a, b)) in grad.iter().zip(&scratch.grad).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "trial {trial}, param {k}: {a} vs {b}"
                    );
                }
            }
            let correct = (0..data.len())
                .filter(|&i| m.predict(data.feature(i)) == data.label(i))
                .count();
            assert_eq!(m.count_correct_scratch(&data, &mut scratch), correct);
        }
    }

    #[test]
    fn loss_fleet_is_the_plain_loss_of_every_replica_bit_for_bit() {
        // Fleets of 1–9, blocks around one tile and one `BATCH_CHUNK` plus
        // the recorder's 384, dims around the registry's 32 and one past
        // the pairwise block, where `LeastSquares`' `dot` becomes a tree.
        let mut rng = StdRng::seed_from_u64(17);
        let mut block = EvalBlock::new();
        let mut scratch = Scratch::new();
        for dim in [1usize, 31, 32, 33, crate::params::PAIRWISE_BLOCK + 1] {
            let spec = MixtureSpec {
                num_classes: 3,
                dim,
                train_n: 40,
                test_n: 3,
                mean_scale: 1.0,
                noise: 0.5,
            };
            let (data, _) = gaussian_mixture(spec, 5);
            for kind in [
                ModelKind::Softmax,
                ModelKind::Mlp { hidden: 5 },
                ModelKind::LeastSquares { l2: 0.01 },
            ] {
                let fleet: Vec<Box<dyn Model>> =
                    (0..9).map(|r| kind.build(dim, 3, 100 + r)).collect();
                for len in [1usize, 15, 16, 17, 255, 256, 257, 384] {
                    let batch: Vec<usize> =
                        (0..len).map(|_| rng.gen_range(0..data.len())).collect();
                    block.gather(&data, batch.iter().copied());
                    assert_eq!((block.len(), block.dim()), (len, dim));
                    let want: Vec<u32> =
                        fleet.iter().map(|m| m.loss(&data, &batch).to_bits()).collect();
                    for n in 1..=fleet.len() {
                        let mut got = vec![f32::NAN; n];
                        // The last replica lends its shape; its own
                        // parameters are read only where it is in the run.
                        let mut replicas = fleet[..n].iter().map(|m| m.params());
                        fleet[8].loss_fleet(&block, &mut replicas, &mut scratch, &mut got);
                        let got: Vec<u32> = got.iter().map(|l| l.to_bits()).collect();
                        assert_eq!(got, want[..n], "{kind:?}, dim {dim}, {len} examples, {n} replicas");
                    }
                }
            }
        }
    }

    #[test]
    fn loss_fleet_of_all_negative_zero_terms_is_the_plain_loss() {
        // Every `w·x` term is -0.0, so every dot is the `-0.0` an f32
        // `sum` starts from, in a full tile and a narrow one.
        let (dim, n) = (3usize, 21usize);
        let data = Dataset::new(vec![1.5; dim * n], vec![0; n], dim, 3);
        let batch: Vec<usize> = (0..n).collect();
        let mut block = EvalBlock::new();
        block.gather(&data, batch.iter().copied());
        let mut m = LeastSquares::new(dim, 0.01, 1);
        m.params_mut().fill(-0.0);
        let mut got = [f32::NAN; 5];
        m.loss_fleet(&block, &mut [m.params(); 5].into_iter(), &mut Scratch::new(), &mut got);
        for l in got {
            assert_eq!(l.to_bits(), m.loss(&data, &batch).to_bits());
        }
    }

    #[test]
    fn scratch_parity_holds_beyond_the_pairwise_block() {
        // Feature dims wider than params::PAIRWISE_BLOCK must not break
        // the bitwise guarantee: the forward kernels accumulate strictly
        // sequentially on every path (plain `loss`/`predict` included),
        // never through the pairwise `dot`.
        let (data, _) = gaussian_mixture(
            MixtureSpec {
                num_classes: 3,
                dim: 4100,
                train_n: 12,
                test_n: 3,
                mean_scale: 1.0,
                noise: 0.5,
            },
            5,
        );
        let batch: Vec<usize> = (0..data.len()).collect();
        let mut block = EvalBlock::new();
        block.gather(&data, batch.iter().copied());
        let mut scratch = Scratch::new();
        // `LeastSquares` is the one model whose forward *is* the pairwise
        // `dot`: its tile kernel reproduces the tree instead.
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(SoftmaxRegression::new(4100, 3, 7)),
            Box::new(Mlp::new(4100, 5, 3, 7)),
            Box::new(LeastSquares::new(4100, 0.01, 7)),
        ];
        for m in &models {
            let plain = m.loss(&data, &batch);
            let blocked = block_loss(m.as_ref(), &block, &mut scratch);
            assert_eq!(plain.to_bits(), blocked.to_bits(), "{plain} vs {blocked}");
            let correct = (0..data.len())
                .filter(|&i| m.predict(data.feature(i)) == data.label(i))
                .count();
            assert_eq!(m.count_correct_scratch(&data, &mut scratch), correct);
        }
    }

    #[test]
    fn scratch_is_reusable_across_model_shapes() {
        // A warm scratch from a big model serves a smaller one (buffers
        // resize down logically; capacity is retained).
        let data = small_data();
        let big = Mlp::new(8, 24, 3, 1);
        let small = SoftmaxRegression::new(8, 3, 1);
        let batch: Vec<usize> = (0..16).collect();
        let mut scratch = Scratch::new();
        let _ = big.loss_grad_scratch(&data, &batch, &mut scratch);
        let (loss, grad) = loss_grad(&small, &data, &batch);
        let loss_s = small.loss_grad_scratch(&data, &batch, &mut scratch);
        assert_eq!(loss.to_bits(), loss_s.to_bits());
        assert_eq!(scratch.grad, grad);
    }

    #[test]
    fn fast_tier_tracks_the_strict_gradient() {
        // The fast tier reassociates sums and uses polynomial exp/ln, so
        // it is *not* bit-equal — but every loss and gradient coordinate
        // must stay within a tight relative band of the strict tier.
        let data = small_data();
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(SoftmaxRegression::new(8, 3, 7)),
            Box::new(Mlp::new(8, 12, 3, 7)),
            Box::new(LeastSquares::new(8, 0.01, 7)),
        ];
        let batch: Vec<usize> = (0..64).collect();
        for m in &models {
            let mut strict = Scratch::new();
            let mut fast = Scratch::for_tier(NumericsTier::Fast);
            let ls = m.loss_grad_scratch(&data, &batch, &mut strict);
            let lf = m.loss_grad_scratch(&data, &batch, &mut fast);
            assert!((ls - lf).abs() <= 5e-4 * (1.0 + ls.abs()), "loss {ls} vs {lf}");
            assert_eq!(strict.grad.len(), fast.grad.len());
            for (k, (a, b)) in strict.grad.iter().zip(&fast.grad).enumerate() {
                assert!((a - b).abs() <= 5e-4 * (1.0 + a.abs()), "param {k}: {a} vs {b}");
            }
            // Evaluation stays strict under both tiers: bit-equal curves
            // for identical parameters.
            let mut block = EvalBlock::new();
            block.gather(&data, batch.iter().copied());
            let es = block_loss(m.as_ref(), &block, &mut strict);
            let ef = block_loss(m.as_ref(), &block, &mut fast);
            assert_eq!(es.to_bits(), ef.to_bits());
        }
    }

    #[test]
    fn fast_softmax_handles_ragged_and_chunked_batches() {
        // Batch lengths around BATCH_CHUNK exercise the multi-chunk path
        // and a ragged tail; every chunk must contribute exactly once.
        let data = small_data();
        let m = SoftmaxRegression::new(8, 3, 7);
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 2, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 5] {
            let batch: Vec<usize> =
                (0..len).map(|_| rng.gen_range(0..data.len())).collect();
            let mut strict = Scratch::new();
            let mut fast = Scratch::for_tier(NumericsTier::Fast);
            let ls = m.loss_grad_scratch(&data, &batch, &mut strict);
            let lf = m.loss_grad_scratch(&data, &batch, &mut fast);
            assert!((ls - lf).abs() <= 5e-4 * (1.0 + ls.abs()), "len {len}: {ls} vs {lf}");
            for (k, (a, b)) in strict.grad.iter().zip(&fast.grad).enumerate() {
                assert!(
                    (a - b).abs() <= 5e-4 * (1.0 + a.abs()),
                    "len {len}, param {k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_init() {
        let a = SoftmaxRegression::new(6, 3, 5);
        let b = SoftmaxRegression::new(6, 3, 5);
        assert_eq!(a.params(), b.params());
        let c = SoftmaxRegression::new(6, 3, 6);
        assert_ne!(a.params(), c.params());
    }

    // ------------------------------------------------------------------
    // Oracles: the plain loops the production kernels replaced, kept
    // here only, so the tiles and the in-crate `expf`/`logf` are checked
    // against them bit for bit.
    // ------------------------------------------------------------------

    /// The class-outer `batch_logits` loop (one accumulator row per
    /// class, one feature row at a time).
    fn batch_logits_reference(w: &[f32], b: &[f32], xb: &[f32], dim: usize, nb: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; b.len() * nb];
        for (c, &bc) in b.iter().enumerate() {
            let acc = &mut out[c * nb..(c + 1) * nb];
            for (d, &wcd) in w[c * dim..(c + 1) * dim].iter().enumerate() {
                for (a, &xv) in acc.iter_mut().zip(&xb[d * nb..(d + 1) * nb]) {
                    *a += wcd * xv;
                }
            }
            for a in acc.iter_mut() {
                *a += bc;
            }
        }
        out
    }

    /// The class-outer softmax with one `f32::exp` call per element.
    fn softmax_block_reference(block: &mut [f32], nb: usize) {
        let mut maxs = vec![f32::NEG_INFINITY; nb];
        for row in block.chunks(nb) {
            for (m, &v) in maxs.iter_mut().zip(row) {
                *m = m.max(v);
            }
        }
        let mut sums = vec![0.0f32; nb];
        for row in block.chunks_mut(nb) {
            for ((l, &m), s) in row.iter_mut().zip(&maxs).zip(sums.iter_mut()) {
                *l = (*l - m).exp();
                *s += *l;
            }
        }
        for row in block.chunks_mut(nb) {
            for (l, &s) in row.iter_mut().zip(&sums) {
                *l /= s;
            }
        }
    }

    /// The class-outer backward: one gradient-row axpy per (class,
    /// sample), off the probabilities.
    fn backward_reference(
        probs: &[f32],
        data: &Dataset,
        chunk: &[usize],
        inv: f32,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        let (nb, dim) = (chunk.len(), data.dim());
        for (c, g) in gb.iter_mut().enumerate() {
            let prow = &probs[c * nb..(c + 1) * nb];
            let row = &mut gw[c * dim..(c + 1) * dim];
            for (s, &i) in chunk.iter().enumerate() {
                let y = data.label(i) as usize;
                let coef = (prow[s] - if c == y { 1.0 } else { 0.0 }) * inv;
                if coef == 0.0 {
                    continue;
                }
                for (yi, xi) in row.iter_mut().zip(data.feature(i)) {
                    *yi += coef * xi;
                }
                *g += coef;
            }
        }
    }

    /// `loss_grad_core` as the plain loops wrote it: reference forward,
    /// `f32::exp`/`f32::ln`, reference backward.
    fn loss_grad_reference(
        m: &SoftmaxRegression,
        data: &Dataset,
        batch: &[usize],
    ) -> (f32, Vec<f32>) {
        let mut grad = vec![0.0f32; m.num_params()];
        let (w, b) = m.params.split_at(m.dim * m.classes);
        let (gw, gb) = grad.split_at_mut(m.dim * m.classes);
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        let mut xb = Vec::new();
        for chunk in batch.chunks(BATCH_CHUNK) {
            let nb = chunk.len();
            transpose_batch(data, chunk, m.dim, &mut xb);
            let mut probs = batch_logits_reference(w, b, &xb, m.dim, nb);
            softmax_block_reference(&mut probs, nb);
            for (s, &i) in chunk.iter().enumerate() {
                loss -= (probs[data.label(i) as usize * nb + s].max(1e-12)).ln();
            }
            backward_reference(&probs, data, chunk, inv, gw, gb);
        }
        (loss * inv, grad)
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, element {k}: {g} vs {w}");
        }
    }

    fn random_dataset(rng: &mut StdRng, n: usize, dim: usize, classes: usize) -> Dataset {
        let feats = (0..n * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let labels = (0..n).map(|_| rng.gen_range(0..classes as u32)).collect();
        Dataset::new(feats, labels, dim, classes)
    }

    #[test]
    fn tiles_equal_the_plain_loops_bit_for_bit() {
        // Dims and batch sizes on both sides of the 32-lane tile and its
        // 8-lane tail, odd class counts (the self-paired last class).
        let mut rng = StdRng::seed_from_u64(23);
        let (mut xb, mut maxs, mut sums) = (Vec::new(), Vec::new(), Vec::new());
        for dim in [1usize, 7, 31, 32, 33, 65] {
            for classes in [2usize, 3, 10, 11, 100] {
                let data = random_dataset(&mut rng, 300, dim, classes);
                let w: Vec<f32> =
                    (0..classes * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let b: Vec<f32> = (0..classes).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                for nb in [1usize, 31, 32, 33, 128, 256] {
                    let what = format!("dim {dim}, {classes} classes, batch {nb}");
                    let chunk: Vec<usize> = (0..nb).map(|_| rng.gen_range(0..data.len())).collect();
                    transpose_batch(&data, &chunk, dim, &mut xb);
                    let mut got = vec![f32::NAN; classes * nb];
                    batch_logits(&w, &b, &xb, dim, nb, &mut got);
                    let mut want = batch_logits_reference(&w, &b, &xb, dim, nb);
                    assert_bits(&got, &want, &format!("logits, {what}"));

                    softmax_block(&mut got, nb, &mut maxs, &mut sums);
                    softmax_block_reference(&mut want, nb);
                    assert_bits(&got, &want, &format!("probabilities, {what}"));

                    // Accumulate onto a gradient that is already nonzero,
                    // as every chunk after the first does.
                    let inv = 1.0 / (nb + 3) as f32;
                    let gw0: Vec<f32> =
                        (0..classes * dim).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
                    let gb0: Vec<f32> = (0..classes).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
                    let (mut gw_want, mut gb_want) = (gw0.clone(), gb0.clone());
                    backward_reference(&want, &data, &chunk, inv, &mut gw_want, &mut gb_want);
                    for (s, &i) in chunk.iter().enumerate() {
                        got[data.label(i) as usize * nb + s] -= 1.0;
                    }
                    for p in got.iter_mut() {
                        *p *= inv;
                    }
                    let (mut gw, mut gb) = (gw0, gb0);
                    grad_block(&got, &data, &chunk, &mut gw, &mut gb);
                    assert_bits(&gw, &gw_want, &format!("weight gradient, {what}"));
                    assert_bits(&gb, &gb_want, &format!("bias gradient, {what}"));
                }
            }
        }
    }

    #[test]
    fn the_zero_coefficient_skip_keeps_a_negative_zero_gradient() {
        // Every sample is classified with probability exactly 1, so every
        // coefficient is 0 and skipped: a −0.0 accumulator stays −0.0,
        // where adding `0 · x` would make it +0.0.
        let (dim, classes, nb) = (40usize, 3usize, 37usize);
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_dataset(&mut rng, nb, dim, classes);
        let chunk: Vec<usize> = (0..nb).collect();
        let mut probs = vec![0.0f32; classes * nb];
        for (s, &i) in chunk.iter().enumerate() {
            probs[data.label(i) as usize * nb + s] = 1.0;
        }
        let inv = 1.0 / nb as f32;
        let (mut gw_want, mut gb_want) = (vec![-0.0f32; classes * dim], vec![-0.0f32; classes]);
        backward_reference(&probs, &data, &chunk, inv, &mut gw_want, &mut gb_want);
        for (s, &i) in chunk.iter().enumerate() {
            probs[data.label(i) as usize * nb + s] -= 1.0;
        }
        for p in probs.iter_mut() {
            *p *= inv;
        }
        let (mut gw, mut gb) = (vec![-0.0f32; classes * dim], vec![-0.0f32; classes]);
        grad_block(&probs, &data, &chunk, &mut gw, &mut gb);
        assert_bits(&gw, &gw_want, "weight gradient");
        assert_bits(&gb, &gb_want, "bias gradient");
        assert!(gw.iter().chain(&gb).all(|g| g.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn softmax_rows_outside_the_expf_domain_fall_back_to_libm() {
        // One sample per column; the rows (classes) mix in-domain values
        // with NaN, ±∞, exactly −88, below −88 and far below it.
        let nb = 9;
        let rows: [[f32; 9]; 4] = [
            [0.0, 1.0, f32::NAN, 0.0, 0.0, 0.0, 0.0, f32::INFINITY, 3.0],
            [0.5, 89.0, 0.0, f32::INFINITY, 0.0, 88.0, 0.0, f32::INFINITY, 2.0],
            [1.0, -0.5, 1.0, 0.0, f32::NEG_INFINITY, 0.0, -87.9, 0.0, 1.0],
            [-3.0, 0.0, 2.0, 1.0, 0.0, -1.0e30, 0.0, 0.0, f32::NEG_INFINITY],
        ];
        let mut got: Vec<f32> = rows.iter().flatten().copied().collect();
        let mut want = got.clone();
        let (mut maxs, mut sums) = (Vec::new(), Vec::new());
        softmax_block(&mut got, nb, &mut maxs, &mut sums);
        softmax_block_reference(&mut want, nb);
        assert_bits(&got, &want, "probabilities");
        // Shifted logits of −89 and −88.1 sit in rows of their own.
        let mut got = vec![0.0f32, 0.0, -89.0, -88.1, 0.0, -1.0];
        let mut want = got.clone();
        softmax_block(&mut got, 2, &mut maxs, &mut sums);
        softmax_block_reference(&mut want, 2);
        assert_bits(&got, &want, "probabilities near the edge");
    }

    #[test]
    fn loss_grad_equals_the_plain_loops_bit_for_bit() {
        // Random models, and one whose huge bias drives the other classes'
        // shifted logits below −88 (the `f32::exp` rows) and the winning
        // probability to exactly 1 (zero coefficients).
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = Scratch::new();
        for (dim, classes) in [(32usize, 10usize), (33, 3), (7, 11), (64, 100)] {
            let data = random_dataset(&mut rng, 600, dim, classes);
            for trial in 0..3 {
                let mut m = SoftmaxRegression::new(dim, classes, 3 + trial);
                if trial == 2 {
                    m.params[dim * classes] = 200.0;
                }
                for len in [1usize, 33, 128, 300] {
                    let batch: Vec<usize> =
                        (0..len).map(|_| rng.gen_range(0..data.len())).collect();
                    let (loss, grad) = loss_grad_reference(&m, &data, &batch);
                    let got = m.loss_grad_scratch(&data, &batch, &mut scratch);
                    let what = format!("dim {dim}, {classes} classes, trial {trial}, batch {len}");
                    assert_eq!(got.to_bits(), loss.to_bits(), "loss, {what}: {got} vs {loss}");
                    assert_bits(&scratch.grad, &grad, &format!("gradient, {what}"));
                }
            }
        }
    }

    /// `LeastSquares`' strict gradient as the per-example loop wrote it:
    /// one `dot`, loss add, `axpy` and bias add per example.
    fn ridge_grad_reference(m: &LeastSquares, data: &Dataset, batch: &[usize]) -> (f32, Vec<f32>) {
        let mut grad = vec![0.0f32; m.num_params()];
        let inv = 1.0 / batch.len() as f32;
        let mut loss = 0.0f32;
        for &i in batch {
            let x = data.feature(i);
            let r = crate::params::dot(&m.params[..m.dim], x) + m.params[m.dim] - data.label(i) as f32;
            loss += 0.5 * r * r;
            crate::params::axpy(r * inv, x, &mut grad[..m.dim]);
            grad[m.dim] += r * inv;
        }
        let w = &m.params[..m.dim];
        loss += 0.5 * m.l2 * crate::params::norm_sq(w) * batch.len() as f32;
        crate::params::axpy(m.l2, w, &mut grad[..m.dim]);
        (loss * inv, grad)
    }

    #[test]
    fn ridge_kernels_equal_the_plain_loops_at_their_edges() {
        // Dims around the registry's 32 and on both sides of the pairwise
        // block; gradient batches of every length up to two example
        // groups and one past; fleets of 1–9 replicas (replica groups of
        // four, then a last group of one to three), blocks that are not a
        // multiple of the 16-example tile.
        let pb = crate::params::PAIRWISE_BLOCK;
        let mut rng = StdRng::seed_from_u64(45);
        let mut scratch = Scratch::new();
        let mut block = EvalBlock::new();
        for dim in [1usize, 31, 33, pb, pb + 1] {
            let data = random_dataset(&mut rng, 300, dim, 5);
            let fleet: Vec<LeastSquares> = (0..9).map(|r| LeastSquares::new(dim, 0.01, 200 + r)).collect();
            for len in (1..=17).chain([32, 33]) {
                let batch: Vec<usize> = (0..len).map(|_| rng.gen_range(0..data.len())).collect();
                let m = &fleet[len % fleet.len()];
                let (loss, grad) = ridge_grad_reference(m, &data, &batch);
                let got = m.loss_grad_scratch(&data, &batch, &mut scratch);
                let what = format!("dim {dim}, batch {len}");
                assert_eq!(got.to_bits(), loss.to_bits(), "loss, {what}: {got} vs {loss}");
                assert_bits(&scratch.grad, &grad, &format!("gradient, {what}"));
            }
            for len in [1usize, 7, 17, 40, 257] {
                let batch: Vec<usize> = (0..len).map(|_| rng.gen_range(0..data.len())).collect();
                block.gather(&data, batch.iter().copied());
                let want: Vec<f32> = fleet.iter().map(|m| m.loss(&data, &batch)).collect();
                for n in 1..=fleet.len() {
                    let mut got = vec![f32::NAN; n];
                    let mut replicas = fleet[..n].iter().map(|m| m.params());
                    fleet[0].loss_fleet(&block, &mut replicas, &mut scratch, &mut got);
                    assert_bits(&got, &want[..n], &format!("fleet loss, dim {dim}, {len} examples, {n} replicas"));
                }
            }
        }
    }

    #[test]
    fn a_nan_replica_scores_nan_and_leaves_its_group_mates_alone() {
        // Seven replicas: a full group of four, then three padded with the
        // first of them. The NaN replicas are one inside the full group
        // and the one that pads the short group.
        let mut rng = StdRng::seed_from_u64(46);
        let data = random_dataset(&mut rng, 50, 32, 5);
        let batch: Vec<usize> = (0..37).collect();
        let mut block = EvalBlock::new();
        block.gather(&data, batch.iter().copied());
        let mut fleet: Vec<LeastSquares> = (0..7).map(|r| LeastSquares::new(32, 0.01, 300 + r)).collect();
        fleet[2].params[3] = f32::NAN;
        fleet[4].params[32] = f32::NAN;
        let mut got = [0.0f32; 7];
        fleet[0].loss_fleet(&block, &mut fleet.iter().map(|m| m.params()), &mut Scratch::new(), &mut got);
        for (r, (l, m)) in got.iter().zip(&fleet).enumerate() {
            if r == 2 || r == 4 {
                assert!(l.is_nan(), "replica {r}: {l}");
            } else {
                assert_eq!(l.to_bits(), m.loss(&data, &batch).to_bits(), "replica {r}");
            }
        }
    }

    #[test]
    fn ridge_gradient_of_all_negative_zero_terms_is_the_plain_loop() {
        // Every `w·x` term is -0.0, in two full example groups and a
        // short one.
        let (dim, n) = (3usize, 21usize);
        let data = Dataset::new(vec![1.5; dim * n], vec![0; n], dim, 3);
        let batch: Vec<usize> = (0..n).collect();
        let mut m = LeastSquares::new(dim, 0.01, 1);
        m.params_mut().fill(-0.0);
        let mut scratch = Scratch::new();
        let (loss, grad) = ridge_grad_reference(&m, &data, &batch);
        let got = m.loss_grad_scratch(&data, &batch, &mut scratch);
        assert_eq!(got.to_bits(), loss.to_bits());
        assert_bits(&scratch.grad, &grad, "gradient");
    }

    #[test]
    fn a_nan_weight_gives_a_nan_loss_in_both_tiers() {
        // A diverged replica must not draw a finite curve: the clamp
        // before the log used to turn every NaN probability into
        // −ln 1e-12 = 27.63.
        let data = small_data();
        let batch: Vec<usize> = (0..40).collect();
        let mut block = EvalBlock::new();
        block.gather(&data, batch.iter().copied());
        // The MLP's NaN sits in its output layer: a NaN first-layer weight
        // is zeroed by the ReLU wherever its unit is inactive.
        let models: Vec<(Box<dyn Model>, usize)> = vec![
            (Box::new(SoftmaxRegression::new(8, 3, 7)), 0),
            (Box::new(Mlp::new(8, 12, 3, 7)), 12 * 8 + 12),
            (Box::new(LeastSquares::new(8, 0.01, 7)), 0),
        ];
        for (mut m, k) in models {
            m.params_mut()[k] = f32::NAN;
            assert!(m.loss(&data, &batch).is_nan(), "loss");
            for tier in [NumericsTier::Strict, NumericsTier::Fast] {
                let mut scratch = Scratch::for_tier(tier);
                let l = block_loss(m.as_ref(), &block, &mut scratch);
                assert!(l.is_nan(), "loss_fleet, {tier:?}: {l}");
                let l = m.loss_grad_scratch(&data, &batch, &mut scratch);
                assert!(l.is_nan(), "loss_grad_scratch, {tier:?}: {l}");
            }
        }
    }
}
