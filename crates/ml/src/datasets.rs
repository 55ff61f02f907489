//! Seeded synthetic dataset generators.
//!
//! The paper evaluates on MNIST, CIFAR10, CIFAR100, Tiny-ImageNet, and
//! ImageNet. Those corpora are unavailable here, and the results never
//! depend on pixel statistics — only on class counts, dataset sizes, and
//! separability (which drives the achievable accuracy plateau). Each
//! generator below produces a Gaussian-mixture classification problem with
//! the class count of its namesake and a noise level tuned so that the
//! models in [`crate::model`] plateau in a realistic accuracy band.
//!
//! The noise levels were tuned against a centralized run per dataset
//! (seed 1, SGD with momentum 0.9, step decay, 30–40 epochs); the
//! test-accuracy plateaus they give, beside the paper's band:
//!
//! | generator | noise | model | test accuracy | paper |
//! |---|---|---|---|---|
//! | [`mnist_like`] | 1.1 | softmax | 0.996 | ≈ 99 % |
//! | [`cifar10_like`] | 1.9 | softmax | 0.878 | ≈ 90 % |
//! | [`cifar100_like`] | 2.3 | MLP (64 hidden) | 0.614 | ≈ 64 % (MobileNet) |
//! | [`cifar100_like`] | 2.3 | softmax | 0.749 | ≈ 72 % (ResNet18) |
//! | [`tiny_imagenet_like`] | 2.6 | softmax | 0.500 | ≈ 57 % |
//! | [`imagenet_like`] | 2.1 | softmax | 0.718 | ≈ 73 % |
//!
//! All generators are seeded and fully deterministic.

// Index-based loops are kept where they mirror the matrix maths.
#![allow(clippy::needless_range_loop)]

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a Gaussian-mixture classification problem.
#[derive(Debug, Clone, Copy)]
pub struct MixtureSpec {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Training examples (total across all classes).
    pub train_n: usize,
    /// Test examples.
    pub test_n: usize,
    /// Distance of class means from the origin.
    pub mean_scale: f32,
    /// Standard deviation of the within-class noise; the ratio
    /// `mean_scale / noise` controls the accuracy ceiling.
    pub noise: f32,
}

/// Generates `(train, test)` datasets from a mixture spec.
///
/// Class means are drawn once from a scaled normal; train and test sets are
/// sampled from the same mixture so test accuracy measures generalisation
/// over the noise, not distribution shift.
pub fn gaussian_mixture(spec: MixtureSpec, seed: u64) -> (Dataset, Dataset) {
    assert!(spec.num_classes >= 2, "need at least two classes");
    assert!(spec.dim > 0 && spec.train_n > 0 && spec.test_n > 0);
    let mut rng = StdRng::seed_from_u64(seed);

    // Class means.
    let means: Vec<Vec<f32>> = (0..spec.num_classes)
        .map(|_| (0..spec.dim).map(|_| normal(&mut rng) * spec.mean_scale).collect())
        .collect();

    let sample = |n: usize, rng: &mut StdRng| -> (Vec<f32>, Vec<u32>) {
        let mut feats = Vec::with_capacity(n * spec.dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Round-robin over classes keeps class balance exact.
            let c = i % spec.num_classes;
            labels.push(c as u32);
            for d in 0..spec.dim {
                feats.push(means[c][d] + normal(rng) * spec.noise);
            }
        }
        (feats, labels)
    };

    let (tf, tl) = sample(spec.train_n, &mut rng);
    let (vf, vl) = sample(spec.test_n, &mut rng);
    (
        Dataset::new(tf, tl, spec.dim, spec.num_classes),
        Dataset::new(vf, vl, spec.dim, spec.num_classes),
    )
}

/// Standard normal via Box–Muller (avoids needing `rand_distr`).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// MNIST-like: 10 well-separated classes (the paper reaches ~99% IID /
/// ~93% non-IID on MNIST).
pub fn mnist_like(seed: u64) -> (Dataset, Dataset) {
    gaussian_mixture(
        MixtureSpec {
            num_classes: 10,
            dim: 32,
            train_n: 20_000,
            test_n: 2500,
            mean_scale: 1.0,
            noise: 1.1,
        },
        seed,
    )
}

/// CIFAR10-like: 10 moderately separated classes (paper plateau ~90%).
pub fn cifar10_like(seed: u64) -> (Dataset, Dataset) {
    gaussian_mixture(
        MixtureSpec {
            num_classes: 10,
            dim: 32,
            train_n: 24_000,
            test_n: 2500,
            mean_scale: 1.0,
            noise: 1.9,
        },
        seed,
    )
}

/// CIFAR100-like: 100 classes, harder (paper plateau ~72% with ResNet18,
/// ~64% with MobileNet).
pub fn cifar100_like(seed: u64) -> (Dataset, Dataset) {
    gaussian_mixture(
        MixtureSpec {
            num_classes: 100,
            dim: 64,
            train_n: 24_000,
            test_n: 4000,
            mean_scale: 1.0,
            noise: 2.3,
        },
        seed,
    )
}

/// Tiny-ImageNet-like: 200 classes, few examples per class (paper plateau
/// ~57%).
pub fn tiny_imagenet_like(seed: u64) -> (Dataset, Dataset) {
    gaussian_mixture(
        MixtureSpec {
            num_classes: 200,
            dim: 64,
            train_n: 20_000,
            test_n: 4000,
            mean_scale: 1.0,
            noise: 2.6,
        },
        seed,
    )
}

/// ImageNet-like: 1000 classes (paper plateau ~73% with ResNet50).
pub fn imagenet_like(seed: u64) -> (Dataset, Dataset) {
    gaussian_mixture(
        MixtureSpec {
            num_classes: 1000,
            dim: 96,
            train_n: 30_000,
            test_n: 5000,
            mean_scale: 1.0,
            noise: 2.1,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let (a, _) = cifar10_like(7);
        let (b, _) = cifar10_like(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.feature(13), b.feature(13));
        assert_eq!(a.label(13), b.label(13));
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = cifar10_like(1);
        let (b, _) = cifar10_like(2);
        assert_ne!(a.feature(0), b.feature(0));
    }

    #[test]
    fn class_balance_exact() {
        let (train, test) = mnist_like(3);
        let h = train.class_histogram();
        assert!(h.iter().all(|&c| c == train.len() / 10));
        assert_eq!(test.class_histogram().iter().sum::<usize>(), test.len());
    }

    #[test]
    fn shapes_match_spec() {
        let (train, test) = cifar100_like(5);
        assert_eq!(train.num_classes(), 100);
        assert_eq!(train.dim(), 64);
        assert_eq!(train.len(), 24_000);
        assert_eq!(test.len(), 4000);
    }

    #[test]
    fn mixture_is_separable() {
        // Nearest-class-mean on the *noiseless* means classifies training
        // data far above chance, i.e. the generator really encodes classes.
        let spec = MixtureSpec {
            num_classes: 5,
            dim: 16,
            train_n: 500,
            test_n: 100,
            mean_scale: 1.5,
            noise: 0.5,
        };
        let (train, _) = gaussian_mixture(spec, 11);
        // Estimate class means from data.
        let mut means = vec![vec![0.0f32; 16]; 5];
        let mut counts = vec![0usize; 5];
        for i in 0..train.len() {
            let c = train.label(i) as usize;
            counts[c] += 1;
            for (m, x) in means[c].iter_mut().zip(train.feature(i)) {
                *m += x;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        let mut correct = 0;
        for i in 0..train.len() {
            let x = train.feature(i);
            let pred = (0..5)
                .min_by(|&a, &b| {
                    let da: f32 = x.iter().zip(&means[a]).map(|(u, v)| (u - v).powi(2)).sum();
                    let db: f32 = x.iter().zip(&means[b]).map(|(u, v)| (u - v).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if pred == train.label(i) as usize {
                correct += 1;
            }
        }
        let acc = correct as f64 / train.len() as f64;
        assert!(acc > 0.8, "nearest-mean accuracy {acc} too low — generator broken");
    }
}
