//! # netmax-ml
//!
//! Machine-learning substrate for the NetMax reproduction.
//!
//! The paper trains PyTorch CNNs (MobileNet, ResNet18/50, VGG19, GoogLeNet)
//! on MNIST/CIFAR/ImageNet over a GPU cluster. The Rust deep-learning
//! ecosystem is not a viable substrate for that, and none of the paper's
//! conclusions depend on convolutions: what the evaluation measures is
//! (a) the *timing* of iterations — a function of parameter bytes on the
//! wire and per-batch compute — and (b) the *convergence dynamics* of
//! distributed SGD — a function of the consensus algorithm. This crate
//! therefore supplies:
//!
//! * real, trainable models ([`model::SoftmaxRegression`], [`model::Mlp`],
//!   [`model::LeastSquares`]) optimised with a from-scratch SGD
//!   ([`optim`]) so every loss/accuracy curve in the reproduction is a
//!   genuine optimisation trajectory, and
//! * [`profile::ModelProfile`]s carrying the paper's exact parameter
//!   counts (4.2M…143.7M) so message sizes and compute times on the
//!   simulated network match the paper's setup.
//!
//! Datasets are seeded synthetic Gaussian mixtures ([`datasets`]) with the
//! class counts of the originals, partitioned by the paper's three schemes
//! ([`partition`]): uniform, segmented non-uniform (§V-F), and non-IID
//! label removal (Tables IV and VII).
//!
//! Gradient numerics run under an explicit [`tier::NumericsTier`]: the
//! default **strict** tier is bit-stable against the committed baselines,
//! while the opt-in **fast** tier runs the gradient cores on the
//! reassociated kernel family in [`fast`] (bounded-error polynomial
//! `exp`/`ln`, multi-lane reductions). The two families never share
//! accumulation code paths.

#![forbid(unsafe_code)]

pub mod batch;
pub mod dataset;
pub mod datasets;
pub mod fast;
pub mod libm;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod params;
pub mod partition;
pub mod profile;
pub mod tier;
pub mod workload;

pub use dataset::Dataset;
pub use model::{LeastSquares, Mlp, Model, ModelKind, SoftmaxRegression};
pub use tier::NumericsTier;
pub use optim::{SgdConfig, SgdState};
pub use partition::Partition;
pub use profile::ModelProfile;
pub use workload::{Workload, WorkloadKind, WorkloadSpec};
