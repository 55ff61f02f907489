//! Property-based tests for the ML substrate: gradient correctness on
//! random models/data, optimiser invariants, partitioner conservation
//! laws, and sampler coverage.

use netmax_ml::batch::BatchSampler;
use netmax_ml::dataset::Dataset;
use netmax_ml::fast;
use netmax_ml::model::{ModelKind, Scratch};
use netmax_ml::optim::{SgdConfig, SgdState};
use netmax_ml::partition::Partition;
use proptest::prelude::*;

/// Strategy: a small random dataset with the given shape bounds.
fn dataset(max_n: usize, dim: usize, classes: usize) -> impl Strategy<Value = Dataset> {
    (4..max_n).prop_flat_map(move |n| {
        (
            proptest::collection::vec(-2.0f32..2.0, n * dim),
            proptest::collection::vec(0u32..classes as u32, n),
        )
            .prop_map(move |(feats, labels)| Dataset::new(feats, labels, dim, classes))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Analytic gradients of every model match central differences on
    /// random data (the foundation every training result rests on).
    #[test]
    fn gradients_match_finite_differences(
        data in dataset(24, 6, 3),
        kind_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kind = [
            ModelKind::Softmax,
            ModelKind::Mlp { hidden: 8 },
            ModelKind::LeastSquares { l2: 0.01 },
        ][kind_idx];
        let mut model = kind.build(6, 3, seed);
        let batch: Vec<usize> = (0..data.len().min(8)).collect();
        let mut scratch = Scratch::new();
        model.loss_grad_scratch(&data, &batch, &mut scratch);
        let grad = scratch.grad;

        let eps = 1e-2f32;
        let n = model.num_params();
        for k in (0..n).step_by((n / 7).max(1)) {
            let orig = model.params()[k];
            model.params_mut()[k] = orig + eps;
            let lp = model.loss(&data, &batch);
            model.params_mut()[k] = orig - eps;
            let lm = model.loss(&data, &batch);
            model.params_mut()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!(
                (numeric - grad[k]).abs() < 0.05 * (1.0 + numeric.abs()),
                "param {k}: numeric {numeric} vs analytic {}", grad[k]
            );
        }
    }

    /// A gradient step at a small learning rate does not increase the
    /// batch loss (descent property on the sampled batch).
    #[test]
    fn small_step_descends(data in dataset(32, 6, 3), seed in 0u64..1000) {
        let mut model = ModelKind::Softmax.build(6, 3, seed);
        let batch: Vec<usize> = (0..data.len().min(16)).collect();
        let mut scratch = Scratch::new();
        let before = model.loss_grad_scratch(&data, &batch, &mut scratch);
        let cfg = SgdConfig::plain(1e-3);
        let mut st = SgdState::new(model.num_params());
        st.step(&cfg, cfg.lr, model.params_mut(), &scratch.grad);
        let after = model.loss(&data, &batch);
        prop_assert!(after <= before + 1e-4, "loss rose: {before} -> {after}");
    }

    /// Uniform partitioning conserves every example exactly once.
    #[test]
    fn uniform_partition_conserves_examples(
        data in dataset(64, 4, 2),
        nodes in 2usize..9,
        seed in 0u64..1000,
    ) {
        let p = Partition::uniform(&data, nodes, seed);
        let mut all: Vec<usize> = (0..nodes).flat_map(|i| p.node(i).to_vec()).collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..data.len()).collect();
        prop_assert_eq!(all, expected);
    }

    /// Segmented partitioning conserves examples and respects ratios.
    #[test]
    fn segmented_partition_conserves_examples(
        data in dataset(96, 4, 2),
        seed in 0u64..1000,
    ) {
        let segments = vec![1usize, 2, 1];
        prop_assume!(data.len() >= 8);
        let p = Partition::segmented(&data, &segments, seed);
        let total: usize = (0..p.num_nodes()).map(|i| p.node(i).len()).sum();
        prop_assert_eq!(total, data.len());
        // Weights mirror segment counts.
        prop_assert_eq!(p.weight(1), 2.0);
        prop_assert_eq!(p.batch_size(1, 32), 64);
    }

    /// Label-skew partitioning never assigns an example with a lost label.
    #[test]
    fn label_skew_excludes_lost_labels(data in dataset(64, 4, 4), seed in 0u64..4) {
        let lost: Vec<Vec<u32>> = vec![vec![0], vec![1], vec![seed as u32 % 4]];
        let p = Partition::label_skew(&data, &lost);
        for (node, lost_set) in lost.iter().enumerate() {
            for &i in p.node(node) {
                prop_assert!(!lost_set.contains(&data.label(i)));
            }
        }
    }

    /// The batch sampler visits every shard element exactly once per epoch.
    #[test]
    fn sampler_covers_shard_each_epoch(
        shard_len in 2usize..64,
        batch in 1usize..16,
        seed in 0u64..1000,
    ) {
        let mut s = BatchSampler::new((0..shard_len).collect(), batch, seed);
        for epoch in 0..3 {
            let mut seen: Vec<usize> = Vec::new();
            while seen.len() < shard_len {
                seen.extend(s.next_batch());
            }
            seen.sort_unstable();
            prop_assert_eq!(seen.len(), shard_len, "epoch {}", epoch);
            prop_assert_eq!(seen, (0..shard_len).collect::<Vec<_>>());
        }
    }

    /// Fast-tier dot stays within its reassociation error bound of an
    /// f64 sequential reference: `|fast − ref| ≤ 1e-5·Σ|xᵢyᵢ|`. Lengths
    /// straddle the FAST_CHUNK lane width (the chunking threshold), so
    /// the tail-only, exactly-one-chunk, and chunk+tail paths all run.
    #[test]
    fn fast_dot_tracks_f64_reference(
        len in 0usize..20 * fast::FAST_CHUNK,
        extra in proptest::collection::vec(-3.0f32..3.0, 640),
    ) {
        let x = &extra[..len.min(extra.len() / 2)];
        let y = &extra[extra.len() / 2..][..x.len()];
        let reference: f64 = x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let bound: f64 = x.iter().zip(y).map(|(&a, &b)| (a as f64 * b as f64).abs()).sum();
        let got = fast::dot_fast(x, y) as f64;
        prop_assert!(
            (got - reference).abs() <= 1e-5 * bound + 1e-30,
            "n={}: {got} vs {reference}", x.len()
        );
    }

    /// Fast-tier norm_sq stays within the same bound (all terms
    /// positive, so the bound is relative to the result itself).
    #[test]
    fn fast_norm_sq_tracks_f64_reference(
        x in proptest::collection::vec(-3.0f32..3.0, 0..5 * fast::FAST_CHUNK),
    ) {
        let reference: f64 = x.iter().map(|&a| a as f64 * a as f64).sum();
        let got = fast::norm_sq_fast(&x) as f64;
        prop_assert!(
            (got - reference).abs() <= 1e-5 * reference + 1e-30,
            "n={}: {got} vs {reference}", x.len()
        );
    }

    /// Polynomial exp stays within 1e-6 relative error of the f64
    /// reference over the whole clamp domain.
    #[test]
    fn fast_exp_relative_error_bounded(x in -87.0f32..88.0) {
        let got = fast::exp_fast(x) as f64;
        let reference = (x as f64).exp();
        let rel = ((got - reference) / reference).abs();
        prop_assert!(rel < 1e-6, "x={x}: {got} vs {reference} (rel {rel})");
    }

    /// Polynomial ln stays within its stated mixed absolute/relative
    /// bound of the f64 reference across thirty decades.
    #[test]
    fn fast_ln_error_bounded(mantissa in 0.01f32..10.0, exp10 in -15i32..15) {
        let x = mantissa * 10.0f32.powi(exp10);
        prop_assume!(x.is_finite() && x > 0.0 && x >= f32::MIN_POSITIVE);
        let got = fast::ln_fast(x) as f64;
        let reference = (x as f64).ln();
        let tol = 1e-6 * reference.abs().max(1.0);
        prop_assert!((got - reference).abs() <= tol, "x={x}: {got} vs {reference}");
    }

    /// Momentum state keeps parameter updates finite for sane inputs.
    #[test]
    fn sgd_stays_finite(
        lr in 1e-4f64..0.5,
        momentum in 0.0f64..0.99,
        g in proptest::collection::vec(-10.0f32..10.0, 8),
    ) {
        let cfg = SgdConfig { lr, momentum, weight_decay: 1e-4, lr_milestones: vec![], lr_decay: 1.0 };
        let mut st = SgdState::new(8);
        let mut params = vec![1.0f32; 8];
        for _ in 0..50 {
            st.step(&cfg, cfg.lr, &mut params, &g);
        }
        prop_assert!(params.iter().all(|p| p.is_finite()));
    }
}
