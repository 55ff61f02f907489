//! Flat parameter-vector arithmetic.
//!
//! Model parameters travel between workers as flat `f32` buffers (that is
//! exactly what goes over the wire in the paper — `xm` in Algorithm 2
//! line 10). These helpers are the hot loops of the whole simulation, so
//! they are written as simple slice iterations the compiler auto-vectorises.

use std::ops::Range;

/// Known-length axpy kernel (see [`dot_fixed`] for why the compile-time
/// trip count matters; bitwise identical to the dynamic loop).
#[inline]
fn axpy_fixed<const N: usize>(a: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y[..N].iter_mut().zip(&x[..N]) {
        *yi += a * xi;
    }
}

/// `y += a * x` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match x.len() {
        16 => axpy_fixed::<16>(a, x, y),
        32 => axpy_fixed::<32>(a, x, y),
        48 => axpy_fixed::<48>(a, x, y),
        64 => axpy_fixed::<64>(a, x, y),
        96 => axpy_fixed::<96>(a, x, y),
        128 => axpy_fixed::<128>(a, x, y),
        _ => {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi += a * xi;
            }
        }
    }
}

/// `y = a * y`.
#[inline]
pub fn scale(a: f32, y: &mut [f32]) {
    for yi in y.iter_mut() {
        *yi *= a;
    }
}

/// Block size below which reductions accumulate sequentially. Vectors at
/// or under this length produce **bitwise-identical** results to a plain
/// sequential sum (every model in the benchmark registry is far smaller,
/// which keeps recorded baselines stable); longer vectors combine their
/// blocks pairwise, so the rounding error of [`dot`]/[`norm_sq`]/
/// [`distance`] grows as `O(log(n/B))` instead of `O(n)` — at 10⁶-element
/// parameter vectors a naive sequential f32 sum visibly drifts from the
/// f64 reference, which corrupts the monitor's `‖x_i − x_m‖` distances.
pub(crate) const PAIRWISE_BLOCK: usize = 4096;

/// Known-length dot kernel: the `[..N]` bounds give LLVM a compile-time
/// trip count, so the chain is fully unrolled and software-pipelined.
/// Rust/LLVM float semantics are strict (no reassociation without
/// fast-math), so the result is bitwise identical to the dynamic loop —
/// only the instruction schedule changes.
#[inline]
fn dot_fixed<const N: usize>(x: &[f32], y: &[f32]) -> f32 {
    x[..N].iter().zip(&y[..N]).map(|(a, b)| a * b).sum()
}

/// Strictly sequential dot product — the accumulation order of the
/// model forward kernels. Model code must use this (not [`dot`]) so the
/// plain and batched/scratch evaluation paths stay bitwise identical at
/// *every* dimension: [`dot`] switches to pairwise accumulation above
/// [`PAIRWISE_BLOCK`], which would silently diverge from the batched
/// kernels' sequential order for very wide feature vectors.
#[inline]
pub(crate) fn dot_sequential(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    dot_seq(x, y)
}

#[inline]
fn dot_seq(x: &[f32], y: &[f32]) -> f32 {
    // Length specialisation for the model dimensions of the benchmark
    // registry (feature dims 32/64/96, MLP hidden widths 48/64): the
    // models' forward passes are dominated by these dots, and the
    // runtime-length loop is latency-bound where the unrolled one is not.
    match x.len() {
        16 => dot_fixed::<16>(x, y),
        32 => dot_fixed::<32>(x, y),
        48 => dot_fixed::<48>(x, y),
        64 => dot_fixed::<64>(x, y),
        96 => dot_fixed::<96>(x, y),
        128 => dot_fixed::<128>(x, y),
        _ => x.iter().zip(y).map(|(a, b)| a * b).sum(),
    }
}

#[inline]
fn dot_pairwise(x: &[f32], y: &[f32]) -> f32 {
    if x.len() <= PAIRWISE_BLOCK {
        return dot_seq(x, y);
    }
    let mid = x.len() / 2;
    dot_pairwise(&x[..mid], &y[..mid]) + dot_pairwise(&x[mid..], &y[mid..])
}

/// Dot product (chunked pairwise accumulation; blocks of 4096 sum
/// sequentially, block results combine pairwise).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    dot_pairwise(x, y)
}

/// Squared L2 norm.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

#[inline]
fn dist_sq_seq(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

#[inline]
fn dist_sq_pairwise(x: &[f32], y: &[f32]) -> f32 {
    if x.len() <= PAIRWISE_BLOCK {
        return dist_sq_seq(x, y);
    }
    let mid = x.len() / 2;
    dist_sq_pairwise(&x[..mid], &y[..mid]) + dist_sq_pairwise(&x[mid..], &y[mid..])
}

/// Euclidean distance between two parameter vectors — the paper's model
/// difference `‖x_i − x_m‖` from Eq. (1). Accumulates chunked-pairwise
/// like [`dot`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn distance(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "distance: length mismatch");
    dist_sq_pairwise(x, y).sqrt()
}

/// Rows per tile of [`gather_feature_major`]: one cache line of `f32`.
const GATHER_TILE: usize = 16;

/// Lays `n` equally long vectors out feature-major — the layout the lane
/// kernels below read: `out[k·n + s] = row(s)[k]`.
///
/// The transpose runs in tiles of `GATHER_TILE` vectors so that each
/// feature row is written a cache line at a time: writing one vector
/// down a column strides by `n`, and a few hundred such columns evict
/// each other from their cache sets.
///
/// # Panics
/// Panics if `out.len() != dim * n` or a vector is shorter than `dim`.
pub fn gather_feature_major<'a>(
    n: usize,
    dim: usize,
    row: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    assert_eq!(out.len(), dim * n, "gather_feature_major: block size mismatch");
    for s0 in (0..n).step_by(GATHER_TILE) {
        let width = GATHER_TILE.min(n - s0);
        let mut rows: [&[f32]; GATHER_TILE] = [&[]; GATHER_TILE];
        for (t, r) in rows.iter_mut().enumerate().take(width) {
            *r = row(s0 + t);
        }
        for k in 0..dim {
            for (o, r) in out[k * n + s0..k * n + s0 + width].iter_mut().zip(&rows) {
                *o = r[k];
            }
        }
    }
}

/// The value an `f32` `Iterator::sum` chain starts from (`-0.0` in
/// current std). The lane kernels below seed their accumulators with it
/// so a lane is the same float as [`dot_seq`]/[`dist_sq_seq`] even when
/// every term is a negative zero.
#[inline]
fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Splits of the pairwise tree on its deepest path for vectors of `len`
/// elements: 0 at or below [`PAIRWISE_BLOCK`], where reductions are
/// sequential. The right half (`len − len/2`) is never the shorter one.
fn pairwise_depth(mut len: usize) -> usize {
    let mut depth = 0;
    while len > PAIRWISE_BLOCK {
        len -= len / 2;
        depth += 1;
    }
    depth
}

/// One reduction per lane over the element range `lo..hi`, combined by
/// the split-at-mid tree of [`dot_pairwise`]/[`dist_sq_pairwise`]:
/// `leaf(lo, hi, out)` writes each lane's sequential sum over a block,
/// sibling blocks add left + right. `spare` holds one lane row per tree
/// level below this call.
fn pairwise_lanes(
    lo: usize,
    hi: usize,
    out: &mut [f32],
    spare: &mut [f32],
    leaf: &mut impl FnMut(usize, usize, &mut [f32]),
) {
    if hi - lo <= PAIRWISE_BLOCK {
        return leaf(lo, hi, out);
    }
    let mid = lo + (hi - lo) / 2;
    pairwise_lanes(lo, mid, out, spare, leaf);
    let (right, deeper) = spare.split_at_mut(out.len());
    pairwise_lanes(mid, hi, right, deeper, leaf);
    for (o, r) in out.iter_mut().zip(right.iter()) {
        *o += r;
    }
}

/// The split-at-mid tree of [`dot_pairwise`] over `features`, for a
/// kernel with `L` independent lanes: `leaf` reduces a block of at most
/// [`PAIRWISE_BLOCK`] features sequentially, sibling blocks add left +
/// right lane by lane.
fn pairwise_tree<const L: usize>(
    features: Range<usize>,
    leaf: &mut impl FnMut(Range<usize>) -> [f32; L],
) -> [f32; L] {
    if features.len() <= PAIRWISE_BLOCK {
        return leaf(features);
    }
    let mid = features.start + features.len() / 2;
    let mut acc = pairwise_tree(features.start..mid, leaf);
    let right = pairwise_tree(mid..features.end, leaf);
    for (a, r) in acc.iter_mut().zip(&right) {
        *a += r;
    }
    acc
}

/// Columns per register tile of [`dot_group_tile`]: one cache line of `f32`.
pub(crate) const DOT_TILE: usize = 16;

/// Weight vectors per register tile of [`dot_group_tile`]: four
/// replicas' accumulators for one tile are eight AVX2 registers.
pub(crate) const DOT_GROUP: usize = 4;

/// The accumulators of one [`dot_group_tile`]: weight vector `r`'s dot
/// with column `j` of the tile is lane `r·DOT_TILE + j`.
pub(crate) type GroupTile = [f32; DOT_GROUP * DOT_TILE];

/// One sequential run of [`dot_group_tile`] over `features`, every lane
/// from the start value of `dot_seq`. Each feature row of the tile is
/// loaded once and multiplied into all [`DOT_GROUP`] weight vectors'
/// accumulators; with the width known at compile time they stay in
/// vector registers for the whole run. A narrower tile leaves its lanes
/// past `width` at the start value.
#[inline(always)]
fn dot_group_run(
    wt: &[f32],
    cols: &[f32],
    nb: usize,
    first: usize,
    width: usize,
    features: Range<usize>,
) -> GroupTile {
    let mut acc = [sum_start(); DOT_GROUP * DOT_TILE];
    let weights = wt.chunks_exact(DOT_GROUP).skip(features.start).take(features.len());
    let rows = cols.chunks_exact(nb).skip(features.start);
    for (wk, row) in weights.zip(rows) {
        let row = &row[first..first + width];
        for (lanes, &w) in acc.chunks_exact_mut(DOT_TILE).zip(wk) {
            for (a, &xv) in lanes.iter_mut().zip(row) {
                *a += w * xv;
            }
        }
    }
    acc
}

/// [`dot`] of each of [`DOT_GROUP`] weight vectors against `width ≤
/// DOT_TILE` neighbouring columns of a feature-major block: lane
/// `r·DOT_TILE + j` is `dot(w_r, column first + j)`, where column `s` is
/// `cols[k·nb + s]` over `k` and the weights are laid out feature-major
/// too, `wt[k·DOT_GROUP + r] = w_r[k]` (as [`gather_feature_major`]
/// writes them). Lanes `width..` of each weight vector are unspecified.
///
/// Each lane accumulates its terms in ascending `k` from the start value
/// of `dot_seq`, multiply and add kept separate, and combines blocks by
/// the same tree as `dot_pairwise`, so every output is the **same float**
/// as the per-column `dot`. The lanes are independent, so the step
/// vectorises across columns instead of serialising one latency-bound
/// add chain per dot product, and each feature row is read once for the
/// whole group instead of once per weight vector.
///
/// # Panics
/// Panics if `wt` is not `DOT_GROUP` vectors of one length `dim`, if
/// `cols.len() != dim * nb`, or if the tile reaches past a row (`width`
/// outside `1..=DOT_TILE`, or `first + width > nb`).
#[inline]
pub(crate) fn dot_group_tile(wt: &[f32], cols: &[f32], nb: usize, first: usize, width: usize) -> GroupTile {
    let dim = wt.len() / DOT_GROUP;
    assert_eq!(wt.len(), dim * DOT_GROUP, "dot_group_tile: weight block size mismatch");
    assert_eq!(cols.len(), dim * nb, "dot_group_tile: block size mismatch");
    assert!((1..=DOT_TILE).contains(&width) && first + width <= nb, "dot_group_tile: tile past the row");
    if dim > PAIRWISE_BLOCK {
        pairwise_tree(0..dim, &mut |f| dot_group_run(wt, cols, nb, first, width, f))
    } else if width == DOT_TILE {
        dot_group_run(wt, cols, nb, first, DOT_TILE, 0..dim)
    } else {
        dot_group_run(wt, cols, nb, first, width, 0..dim)
    }
}

/// Row vectors per interleaved group of [`dot_rows`] and [`axpy_rows`].
pub(crate) const DOT_ROWS: usize = 8;

/// Element `k` of every row: one column of a row group.
#[inline(always)]
fn rows_at(xs: &[&[f32]; DOT_ROWS], k: usize) -> [f32; DOT_ROWS] {
    xs.map(|x| x[k])
}

/// Panics unless every row is `len` long.
#[inline(always)]
fn assert_rows(xs: &[&[f32]; DOT_ROWS], len: usize, what: &str) {
    for x in xs {
        assert_eq!(x.len(), len, "{what}: length mismatch");
    }
}

/// One sequential run of [`dot_rows`] over `features`.
#[inline(always)]
fn dot_rows_run(w: &[f32], xs: &[&[f32]; DOT_ROWS], features: Range<usize>) -> [f32; DOT_ROWS] {
    let mut acc = [sum_start(); DOT_ROWS];
    for (k, &wk) in w.iter().enumerate().skip(features.start).take(features.len()) {
        for (a, x) in acc.iter_mut().zip(rows_at(xs, k)) {
            *a += wk * x;
        }
    }
    acc
}

/// `out[g] = dot(w, xs[g])` for [`DOT_ROWS`] vectors, advanced side by
/// side: each dot adds its terms in ascending `k` from the start value
/// of `dot_seq`, multiply and add kept separate, with the tree of
/// `dot_pairwise` above [`PAIRWISE_BLOCK`], so each output is the **same
/// float** as [`dot`]. The add chains are independent, so their
/// latencies overlap instead of following one another.
///
/// # Panics
/// Panics if a vector's length differs from `w`'s.
pub(crate) fn dot_rows(w: &[f32], xs: &[&[f32]; DOT_ROWS]) -> [f32; DOT_ROWS] {
    assert_rows(xs, w.len(), "dot_rows");
    if w.len() > PAIRWISE_BLOCK {
        pairwise_tree(0..w.len(), &mut |f| dot_rows_run(w, xs, f))
    } else {
        dot_rows_run(w, xs, 0..w.len())
    }
}

/// `axpy(a[g], xs[g], y)` for `g` in `0..DOT_ROWS`, in that order: each
/// `y[k]` receives the same adds in the same order as the row-by-row
/// axpys, so it is the **same float**, but it is held in a register
/// across the group instead of stored and reloaded once per row.
///
/// # Panics
/// Panics if a vector's length differs from `y`'s.
pub(crate) fn axpy_rows(a: &[f32; DOT_ROWS], xs: &[&[f32]; DOT_ROWS], y: &mut [f32]) {
    assert_rows(xs, y.len(), "axpy_rows");
    for (k, yk) in y.iter_mut().enumerate() {
        let mut v = *yk;
        for (&ag, x) in a.iter().zip(rows_at(xs, k)) {
            v += ag * x;
        }
        *yk = v;
    }
}

/// Squared distances from `x` to a run of vectors stored feature-major:
/// `out[s] = Σ_k (x[k] − cols[k·stride + first + s])²`, one lane per
/// vector, `out.len()` lanes.
///
/// Each lane accumulates `(a − b)²` in ascending `k` from the start
/// value of `dist_sq_seq` and reproduces `dist_sq_pairwise`'s
/// split-at-mid tree above `PAIRWISE_BLOCK`, so `out[s].sqrt()` is the
/// **same float** as [`distance`] between the two vectors in either
/// argument order (`(a − b)²` and `(b − a)²` are the same float).
/// `spare` is caller-owned workspace, sized here.
///
/// # Panics
/// Panics if the lanes reach past a row: `first + out.len() > stride`,
/// or `cols.len() != x.len() * stride`.
pub fn dist_sq_lanes(
    x: &[f32],
    cols: &[f32],
    stride: usize,
    first: usize,
    out: &mut [f32],
    spare: &mut Vec<f32>,
) {
    let lanes = out.len();
    assert!(first + lanes <= stride, "dist_sq_lanes: lanes past the row");
    assert_eq!(cols.len(), x.len() * stride, "dist_sq_lanes: block size mismatch");
    spare.resize(pairwise_depth(x.len()) * lanes, 0.0);
    let start = sum_start();
    pairwise_lanes(0, x.len(), out, spare, &mut |lo, hi, acc: &mut [f32]| {
        acc.fill(start);
        for (&xk, row) in x[lo..hi].iter().zip(cols[lo * stride..hi * stride].chunks_exact(stride))
        {
            for (a, &c) in acc.iter_mut().zip(&row[first..first + lanes]) {
                let d = xk - c;
                *a += d * d;
            }
        }
    });
}

/// In-place convex blend `x = (1 - w) * x + w * y` — the gossip averaging
/// step used by AD-PSGD, SAPS-PSGD and NetMax's second update.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn blend(w: f32, x: &mut [f32], y: &[f32]) {
    assert_eq!(x.len(), y.len(), "blend: length mismatch");
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = (1.0 - w) * *xi + w * yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn blend_endpoints() {
        let mut x = [1.0, 1.0];
        blend(0.0, &mut x, &[5.0, 5.0]);
        assert_eq!(x, [1.0, 1.0]);
        blend(1.0, &mut x, &[5.0, 7.0]);
        assert_eq!(x, [5.0, 7.0]);
        blend(0.5, &mut x, &[1.0, 1.0]);
        assert_eq!(x, [3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_checked() {
        let mut y = [0.0f32; 2];
        axpy(1.0, &[1.0; 3], &mut y);
    }

    #[test]
    fn scale_basic() {
        let mut y = [2.0f32, -4.0];
        scale(0.5, &mut y);
        assert_eq!(y, [1.0, -2.0]);
    }

    /// Deterministic pseudo-random f32s in [0, 1) (splitmix-style; no RNG
    /// dependency so the drift fixtures are stable forever).
    fn pseudo(n: usize, mut seed: u64) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let bits = (seed >> 40) as u32;
                bits as f32 / (1u32 << 24) as f32
            })
            .collect()
    }

    #[test]
    fn small_vectors_match_sequential_bitwise() {
        // Below the block size the chunked reductions must be the exact
        // historical sequential sums — recorded benchmark baselines
        // (BENCH_sanity.json) depend on it.
        let x = pseudo(PAIRWISE_BLOCK, 1);
        let y = pseudo(PAIRWISE_BLOCK, 2);
        assert_eq!(dot(&x, &y).to_bits(), dot_seq(&x, &y).to_bits());
        assert_eq!(
            distance(&x, &y).to_bits(),
            dist_sq_seq(&x, &y).sqrt().to_bits()
        );
    }

    #[test]
    fn chunked_dot_tracks_f64_reference_at_1e6_elements() {
        let n = 1_000_000;
        let x = pseudo(n, 3);
        let y = pseudo(n, 4);
        let reference: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| f64::from(*a) * f64::from(*b))
            .sum();
        let chunked_err = (f64::from(dot(&x, &y)) - reference).abs() / reference;
        let seq_err = (f64::from(dot_seq(&x, &y)) - reference).abs() / reference;
        assert!(chunked_err < 1e-6, "chunked dot drifted: rel err {chunked_err:e}");
        assert!(
            chunked_err <= seq_err,
            "pairwise accumulation must not be worse than sequential: {chunked_err:e} vs {seq_err:e}"
        );
        // norm_sq goes through the same reduction.
        let norm_ref: f64 = x.iter().map(|a| f64::from(*a) * f64::from(*a)).sum();
        let norm_err = (f64::from(norm_sq(&x)) - norm_ref).abs() / norm_ref;
        assert!(norm_err < 1e-6, "chunked norm_sq drifted: rel err {norm_err:e}");
    }

    #[test]
    fn chunked_distance_tracks_f64_reference_at_1e6_elements() {
        let n = 1_000_000;
        let x = pseudo(n, 5);
        let y = pseudo(n, 6);
        let reference: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| {
                let d = f64::from(*a) - f64::from(*b);
                d * d
            })
            .sum::<f64>()
            .sqrt();
        let err = (f64::from(distance(&x, &y)) - reference).abs() / reference;
        assert!(err < 1e-6, "chunked distance drifted: rel err {err:e}");
    }

    /// The dims the lane kernels are pinned at: below, at and just past
    /// one block, and past two (a three-leaf tree with uneven halves).
    const LANE_DIMS: [usize; 5] = [1, 33, PAIRWISE_BLOCK, PAIRWISE_BLOCK + 1, 2 * PAIRWISE_BLOCK + 3];

    /// `columns` laid out feature-major: `out[k·n + s] = columns[s][k]`.
    fn feature_major(columns: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![0.0f32; columns.first().map_or(0, Vec::len) * columns.len()];
        gather_feature_major(columns.len(), out.len() / columns.len(), |s| &columns[s], &mut out);
        out
    }

    #[test]
    fn dot_group_tile_is_the_same_float_as_dot_per_column() {
        for dim in LANE_DIMS {
            let ws: Vec<Vec<f32>> = (0..DOT_GROUP).map(|r| pseudo(dim, 7 + r as u64)).collect();
            let wt = feature_major(&ws);
            // A full tile and a ragged one; one full tile; one narrow tile.
            for nb in [DOT_TILE + 5, DOT_TILE, 3] {
                let columns: Vec<Vec<f32>> = (0..nb)
                    .map(|s| pseudo(dim, 20 + s as u64).iter().map(|x| x - 0.5).collect())
                    .collect();
                let cols = feature_major(&columns);
                for first in (0..nb).step_by(DOT_TILE) {
                    let width = DOT_TILE.min(nb - first);
                    let out = dot_group_tile(&wt, &cols, nb, first, width);
                    for (r, w) in ws.iter().enumerate() {
                        for j in 0..width {
                            let want = dot(w, &columns[first + j]);
                            let got = out[r * DOT_TILE + j];
                            assert_eq!(got.to_bits(), want.to_bits(), "dim {dim}, weights {r}, column {}", first + j);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_rows_is_the_same_float_as_dot_per_row() {
        for dim in LANE_DIMS {
            let w: Vec<f32> = pseudo(dim, 8).iter().map(|x| x - 0.5).collect();
            let rows: Vec<Vec<f32>> = (0..DOT_ROWS).map(|g| pseudo(dim, 60 + g as u64)).collect();
            let xs: [&[f32]; DOT_ROWS] = std::array::from_fn(|g| rows[g].as_slice());
            let out = dot_rows(&w, &xs);
            for (g, x) in xs.iter().enumerate() {
                assert_eq!(out[g].to_bits(), dot(&w, x).to_bits(), "dim {dim}, row {g}");
            }
        }
    }

    #[test]
    fn axpy_rows_is_the_same_float_as_one_axpy_per_row() {
        // Registry widths with and without a fixed-length axpy, onto a
        // nonzero `y`, with coefficients of both signs and a zero of each.
        for dim in [1usize, 31, 32, 33, 96, 129] {
            let rows: Vec<Vec<f32>> =
                (0..DOT_ROWS).map(|g| pseudo(dim, 80 + g as u64).iter().map(|x| x - 0.5).collect()).collect();
            let xs: [&[f32]; DOT_ROWS] = std::array::from_fn(|g| rows[g].as_slice());
            let a = [0.3f32, -1.7, 0.0, -0.0, 2.5e-3, -8.0, 1.0, 0.125];
            let y0: Vec<f32> = pseudo(dim, 99).iter().map(|x| 1e3 * (x - 0.5)).collect();
            let mut want = y0.clone();
            for (&ag, x) in a.iter().zip(&xs) {
                axpy(ag, x, &mut want);
            }
            let mut got = y0;
            axpy_rows(&a, &xs, &mut got);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "dim {dim}, element {k}");
            }
        }
    }

    #[test]
    fn dist_sq_lanes_is_the_same_float_as_distance_per_vector() {
        let mut spare = Vec::new();
        for dim in LANE_DIMS {
            let (stride, first, lanes) = (7, 2, 4);
            let x = pseudo(dim, 9);
            let vectors: Vec<Vec<f32>> = (0..stride).map(|s| pseudo(dim, 40 + s as u64)).collect();
            let mut cols = vec![0.0f32; dim * stride];
            for (s, v) in vectors.iter().enumerate() {
                for (k, &c) in v.iter().enumerate() {
                    cols[k * stride + s] = c;
                }
            }
            let mut out = vec![f32::NAN; lanes];
            dist_sq_lanes(&x, &cols, stride, first, &mut out, &mut spare);
            for s in 0..lanes {
                let y = &vectors[first + s];
                assert_eq!(out[s].sqrt().to_bits(), distance(&x, y).to_bits(), "dim {dim}, lane {s}");
                assert_eq!(out[s].sqrt().to_bits(), distance(y, &x).to_bits(), "dim {dim}, lane {s}");
            }
        }
    }

    #[test]
    fn the_lane_dots_keep_the_sign_of_an_all_negative_zero_sum() {
        // `Iterator::sum` starts from -0.0, so a dot whose every term is
        // -0.0 is -0.0; a lane seeded with +0.0 would return +0.0.
        let (w, x) = ([-0.0f32, -0.0], [1.0f32, 2.0]);
        let want = dot(&w, &x).to_bits();
        let out = dot_group_tile(&[-0.0; 2 * DOT_GROUP], &x, 1, 0, 1);
        for r in 0..DOT_GROUP {
            assert_eq!(out[r * DOT_TILE].to_bits(), want, "weights {r}");
        }
        for g in dot_rows(&w, &[&x[..]; DOT_ROWS]) {
            assert_eq!(g.to_bits(), want);
        }
    }
}
