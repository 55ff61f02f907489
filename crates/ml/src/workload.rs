//! Named training workloads: dataset + model + hyper-parameters.
//!
//! A [`Workload`] bundles everything a distributed-training run needs
//! other than the network and the algorithm: the (synthetic stand-in)
//! dataset, the trainable model kind, the SGD configuration, and the
//! communication [`ModelProfile`]. The constructors mirror the paper's
//! experiment table: `resnet18_cifar10`, `resnet50_imagenet`, etc.

use crate::dataset::Dataset;
use crate::datasets;
use crate::model::{Model, ModelKind};
use crate::optim::SgdConfig;
use crate::profile::ModelProfile;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use std::sync::Arc;

/// A *reference* to one of the named workloads — pure data, no datasets.
///
/// [`Workload`] carries the instantiated (synthetic) datasets and is
/// therefore neither cheap to clone deeply nor serializable; scenario
/// specs store a `WorkloadKind` (inside a [`WorkloadSpec`]) instead and
/// instantiate the real thing at environment-build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// ResNet18 on CIFAR10 (§V-B–E headline workload).
    Resnet18Cifar10,
    /// VGG19 on CIFAR10.
    Vgg19Cifar10,
    /// ResNet18 on CIFAR100 (§V-F).
    Resnet18Cifar100,
    /// ResNet18 on Tiny-ImageNet (§V-F).
    Resnet18TinyImagenet,
    /// ResNet50 on ImageNet (§V-F, 16 workers).
    Resnet50Imagenet,
    /// MobileNet on MNIST (§V-F non-IID).
    MobilenetMnist,
    /// MobileNet on CIFAR100 (§V-G).
    MobilenetCifar100,
    /// GoogLeNet on MNIST (Appendix G cross-cloud).
    GooglenetMnist,
    /// Convex ridge regression (theory tests and quick benches).
    ConvexRidge,
}

impl WorkloadKind {
    /// Every named workload, in paper order.
    pub fn all() -> [WorkloadKind; 9] {
        [
            WorkloadKind::Resnet18Cifar10,
            WorkloadKind::Vgg19Cifar10,
            WorkloadKind::Resnet18Cifar100,
            WorkloadKind::Resnet18TinyImagenet,
            WorkloadKind::Resnet50Imagenet,
            WorkloadKind::MobilenetMnist,
            WorkloadKind::MobilenetCifar100,
            WorkloadKind::GooglenetMnist,
            WorkloadKind::ConvexRidge,
        ]
    }

    /// Stable CLI/JSON identifier (`resnet18-cifar10`, …).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Resnet18Cifar10 => "resnet18-cifar10",
            WorkloadKind::Vgg19Cifar10 => "vgg19-cifar10",
            WorkloadKind::Resnet18Cifar100 => "resnet18-cifar100",
            WorkloadKind::Resnet18TinyImagenet => "resnet18-tiny-imagenet",
            WorkloadKind::Resnet50Imagenet => "resnet50-imagenet",
            WorkloadKind::MobilenetMnist => "mobilenet-mnist",
            WorkloadKind::MobilenetCifar100 => "mobilenet-cifar100",
            WorkloadKind::GooglenetMnist => "googlenet-mnist",
            WorkloadKind::ConvexRidge => "ridge",
        }
    }

    /// Inverse of [`WorkloadKind::name`].
    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Instantiates the workload (datasets included) with `seed`.
    pub fn instantiate(self, seed: u64) -> Workload {
        match self {
            WorkloadKind::Resnet18Cifar10 => Workload::resnet18_cifar10(seed),
            WorkloadKind::Vgg19Cifar10 => Workload::vgg19_cifar10(seed),
            WorkloadKind::Resnet18Cifar100 => Workload::resnet18_cifar100(seed),
            WorkloadKind::Resnet18TinyImagenet => Workload::resnet18_tiny_imagenet(seed),
            WorkloadKind::Resnet50Imagenet => Workload::resnet50_imagenet(seed),
            WorkloadKind::MobilenetMnist => Workload::mobilenet_mnist(seed),
            WorkloadKind::MobilenetCifar100 => Workload::mobilenet_cifar100(seed),
            WorkloadKind::GooglenetMnist => Workload::googlenet_mnist(seed),
            WorkloadKind::ConvexRidge => Workload::convex_ridge(seed),
        }
    }
}

impl ToJson for WorkloadKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for WorkloadKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str()?;
        WorkloadKind::by_name(name)
            .ok_or_else(|| JsonError::schema(format!("unknown workload kind `{name}`")))
    }
}

/// A fully serializable workload description: which named workload, the
/// dataset seed, an optional epoch-schedule compression, an optional
/// learning-rate scale, and an optional communication-profile override.
/// Identical specs instantiate byte-identical [`Workload`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which named workload.
    pub kind: WorkloadKind,
    /// Dataset-generation seed (distinct from the training seed).
    pub seed: u64,
    /// Epoch-budget compression applied via [`Workload::time_scaled`]
    /// (1.0 = the paper's schedule).
    pub time_scale: f64,
    /// Multiplier on the workload's base learning rate (1.0 = the
    /// paper's rate). Scenarios that shrink per-node shards far below
    /// the workloads' tuning point (the fleet-scale sweeps) use this to
    /// stay inside the SGD stability region for every arm.
    pub lr_scale: f64,
    /// Overrides the workload's communication/compute profile when set.
    pub profile: Option<ModelProfile>,
}

impl WorkloadSpec {
    /// A spec for `kind` with dataset seed `seed` and no overrides.
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        Self { kind, seed, time_scale: 1.0, lr_scale: 1.0, profile: None }
    }

    /// ResNet18 on CIFAR10.
    pub fn resnet18_cifar10(seed: u64) -> Self {
        Self::new(WorkloadKind::Resnet18Cifar10, seed)
    }

    /// VGG19 on CIFAR10.
    pub fn vgg19_cifar10(seed: u64) -> Self {
        Self::new(WorkloadKind::Vgg19Cifar10, seed)
    }

    /// ResNet18 on CIFAR100.
    pub fn resnet18_cifar100(seed: u64) -> Self {
        Self::new(WorkloadKind::Resnet18Cifar100, seed)
    }

    /// ResNet18 on Tiny-ImageNet.
    pub fn resnet18_tiny_imagenet(seed: u64) -> Self {
        Self::new(WorkloadKind::Resnet18TinyImagenet, seed)
    }

    /// ResNet50 on ImageNet.
    pub fn resnet50_imagenet(seed: u64) -> Self {
        Self::new(WorkloadKind::Resnet50Imagenet, seed)
    }

    /// MobileNet on MNIST.
    pub fn mobilenet_mnist(seed: u64) -> Self {
        Self::new(WorkloadKind::MobilenetMnist, seed)
    }

    /// MobileNet on CIFAR100.
    pub fn mobilenet_cifar100(seed: u64) -> Self {
        Self::new(WorkloadKind::MobilenetCifar100, seed)
    }

    /// GoogLeNet on MNIST.
    pub fn googlenet_mnist(seed: u64) -> Self {
        Self::new(WorkloadKind::GooglenetMnist, seed)
    }

    /// Convex ridge regression.
    pub fn convex_ridge(seed: u64) -> Self {
        Self::new(WorkloadKind::ConvexRidge, seed)
    }

    /// CIFAR10-like convenience spec matching [`Workload::cifar10_like`].
    pub fn cifar10_like() -> Self {
        Self::resnet18_cifar10(0xC1FA_0010)
    }

    /// Returns a copy with the epoch schedule compressed by `f`
    /// (multiplied into any scale already present).
    pub fn time_scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0, "scale must be positive");
        self.time_scale *= f;
        self
    }

    /// Returns a copy with the base learning rate scaled by `f`
    /// (multiplied into any scale already present).
    pub fn lr_scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0, "scale must be positive");
        self.lr_scale *= f;
        self
    }

    /// Instantiates the described [`Workload`] (pure: same spec, same
    /// datasets and hyper-parameters).
    pub fn instantiate(&self) -> Workload {
        let mut w = self.kind.instantiate(self.seed);
        if self.time_scale != 1.0 {
            w = w.time_scaled(self.time_scale);
        }
        if self.lr_scale != 1.0 {
            w.optim.lr *= self.lr_scale;
        }
        if let Some(p) = &self.profile {
            w.profile = p.clone();
        }
        w
    }
}

impl ToJson for WorkloadSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", self.kind.to_json()),
            ("seed", self.seed.to_json()),
            ("time_scale", self.time_scale.to_json()),
            ("lr_scale", self.lr_scale.to_json()),
            ("profile", self.profile.to_json()),
        ])
    }
}

impl FromJson for WorkloadSpec {
    /// Parses a workload spec. A `time_scale` or `lr_scale` that is not
    /// finite and positive is a typed error: the builders assert it, and
    /// a zero rate would reach the policy generator as α = 0.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let spec = Self {
            kind: WorkloadKind::from_json(v.field("kind")?)?,
            seed: u64::from_json(v.field("seed")?)?,
            time_scale: f64::from_json(v.field("time_scale")?)?,
            // Absent in pre-scale-sweep documents: those specs never
            // scaled the rate.
            lr_scale: match v.field("lr_scale") {
                Ok(f) => f64::from_json(f)?,
                Err(_) => 1.0,
            },
            profile: Option::from_json(v.field("profile")?)?,
        };
        for (name, f) in [("time_scale", spec.time_scale), ("lr_scale", spec.lr_scale)] {
            if !(f.is_finite() && f > 0.0) {
                return Err(JsonError::schema(format!("{name} must be finite and positive, got {f}")));
            }
        }
        Ok(spec)
    }
}

/// A complete training workload.
#[derive(Clone)]
pub struct Workload {
    /// Human-readable name, e.g. `"resnet18/cifar10"`.
    pub name: String,
    /// Training data (shared across all simulated workers).
    pub train: Arc<Dataset>,
    /// Held-out test data.
    pub test: Arc<Dataset>,
    /// Which trainable model each replica instantiates.
    pub model: ModelKind,
    /// Optimiser configuration.
    pub optim: SgdConfig,
    /// Base batch size (per-node batches may scale with data share).
    pub batch_size: usize,
    /// Target epochs for a full run (paper: 64 for ResNet18, 82 for VGG19…).
    pub target_epochs: f64,
    /// Communication/compute profile used for simulated timing.
    pub profile: ModelProfile,
}

impl Workload {
    /// Builds one model replica with replica-specific init seed.
    pub fn build_model(&self, seed: u64) -> Box<dyn Model> {
        self.model.build(self.train.dim(), self.train.num_classes(), seed)
    }

    /// ResNet18 on CIFAR10 (the main §V-B–E workload; 64 epochs).
    pub fn resnet18_cifar10(seed: u64) -> Self {
        let (train, test) = datasets::cifar10_like(seed);
        Self {
            name: "resnet18/cifar10".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig::paper_default(),
            batch_size: 128,
            target_epochs: 64.0,
            profile: ModelProfile::resnet18(),
        }
    }

    /// VGG19 on CIFAR10 (82 epochs).
    pub fn vgg19_cifar10(seed: u64) -> Self {
        let (train, test) = datasets::cifar10_like(seed);
        Self {
            name: "vgg19/cifar10".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig::paper_default(),
            batch_size: 128,
            target_epochs: 82.0,
            profile: ModelProfile::vgg19(),
        }
    }

    /// ResNet18 on CIFAR100 (§V-F non-uniform runs; 120 epochs, lr decay
    /// at 80).
    pub fn resnet18_cifar100(seed: u64) -> Self {
        let (train, test) = datasets::cifar100_like(seed);
        Self {
            name: "resnet18/cifar100".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig {
                lr_milestones: vec![80.0],
                ..SgdConfig::paper_default()
            },
            batch_size: 64,
            target_epochs: 120.0,
            profile: ModelProfile::resnet18(),
        }
    }

    /// ResNet18 on Tiny-ImageNet (§V-F).
    pub fn resnet18_tiny_imagenet(seed: u64) -> Self {
        let (train, test) = datasets::tiny_imagenet_like(seed);
        Self {
            name: "resnet18/tiny-imagenet".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig {
                lr_milestones: vec![40.0],
                ..SgdConfig::paper_default()
            },
            batch_size: 64,
            target_epochs: 60.0,
            profile: ModelProfile::resnet18(),
        }
    }

    /// ResNet50 on ImageNet with 16 workers (§V-F; 75 epochs, decay at 40).
    pub fn resnet50_imagenet(seed: u64) -> Self {
        let (train, test) = datasets::imagenet_like(seed);
        Self {
            name: "resnet50/imagenet".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig {
                lr_milestones: vec![40.0],
                ..SgdConfig::paper_default()
            },
            batch_size: 64,
            target_epochs: 75.0,
            profile: ModelProfile::resnet50(),
        }
    }

    /// MobileNet on MNIST non-IID (§V-F extreme condition; batch 32,
    /// lr 0.01).
    pub fn mobilenet_mnist(seed: u64) -> Self {
        let (train, test) = datasets::mnist_like(seed);
        Self {
            name: "mobilenet/mnist".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Softmax,
            optim: SgdConfig {
                lr: 0.01,
                lr_milestones: vec![],
                ..SgdConfig::paper_default()
            },
            batch_size: 32,
            target_epochs: 30.0,
            profile: ModelProfile::mobilenet(),
        }
    }

    /// MobileNet on CIFAR100 (§V-G small-model-complex-data study).
    pub fn mobilenet_cifar100(seed: u64) -> Self {
        let (train, test) = datasets::cifar100_like(seed);
        Self {
            name: "mobilenet/cifar100".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            // Deliberately weaker trainable model than the
            // ResNet18/CIFAR100 workload (it plateaus lower on this
            // mixture), matching the paper's ~63% vs ~72% gap.
            model: ModelKind::Mlp { hidden: 64 },
            optim: SgdConfig {
                lr_milestones: vec![80.0],
                ..SgdConfig::paper_default()
            },
            batch_size: 64,
            target_epochs: 120.0,
            profile: ModelProfile::mobilenet(),
        }
    }

    /// GoogLeNet on MNIST for the cross-cloud run (Appendix G).
    pub fn googlenet_mnist(seed: u64) -> Self {
        let (train, test) = datasets::mnist_like(seed);
        Self {
            name: "googlenet/mnist".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::Mlp { hidden: 48 },
            optim: SgdConfig {
                lr: 0.01,
                lr_milestones: vec![],
                ..SgdConfig::paper_default()
            },
            batch_size: 32,
            target_epochs: 30.0,
            profile: ModelProfile::googlenet(),
        }
    }

    /// Small convex workload used by theory tests and quick benches: ridge
    /// regression, which satisfies the paper's Assumption 1 exactly.
    pub fn convex_ridge(seed: u64) -> Self {
        let (train, test) = datasets::mnist_like(seed);
        Self {
            name: "ridge/synthetic".into(),
            train: Arc::new(train),
            test: Arc::new(test),
            model: ModelKind::LeastSquares { l2: 0.05 },
            optim: SgdConfig::plain(0.05),
            batch_size: 32,
            target_epochs: 10.0,
            profile: ModelProfile::mobilenet(),
        }
    }

    /// CIFAR10-like convenience constructor used in doc examples.
    pub fn cifar10_like() -> Self {
        Self::resnet18_cifar10(0xC1FA_0010)
    }

    /// Returns a copy with the epoch budget (and learning-rate milestones)
    /// scaled by `f`. The figure harness runs time-compressed versions of
    /// the paper's schedules — e.g. the 120-epoch CIFAR100 runs at
    /// `f = 0.25` become 30 epochs with the decay at epoch 20 — preserving
    /// the schedule's *shape* while keeping the full sweep tractable.
    pub fn time_scaled(mut self, f: f64) -> Self {
        assert!(f > 0.0, "scale must be positive");
        self.target_epochs *= f;
        for m in &mut self.optim.lr_milestones {
            *m *= f;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workloads_build() {
        for w in [
            Workload::resnet18_cifar10(1),
            Workload::vgg19_cifar10(1),
            Workload::resnet18_cifar100(1),
            Workload::resnet18_tiny_imagenet(1),
            Workload::resnet50_imagenet(1),
            Workload::mobilenet_mnist(1),
            Workload::mobilenet_cifar100(1),
            Workload::googlenet_mnist(1),
            Workload::convex_ridge(1),
        ] {
            let m = w.build_model(7);
            assert!(m.num_params() > 0, "{}: no params", w.name);
            assert!(!w.train.is_empty() && !w.test.is_empty(), "{}: empty data", w.name);
            assert!(w.batch_size > 0 && w.target_epochs > 0.0);
        }
    }

    #[test]
    fn replica_seeds_differ() {
        let w = Workload::resnet18_cifar10(1);
        let a = w.build_model(0);
        let b = w.build_model(1);
        assert_ne!(a.params(), b.params());
    }

    #[test]
    fn workload_kinds_cover_constructors_and_round_trip() {
        for kind in WorkloadKind::all() {
            let w = kind.instantiate(3);
            assert!(!w.name.is_empty());
            assert_eq!(WorkloadKind::by_name(kind.name()), Some(kind), "{}", kind.name());
            let spec = WorkloadSpec::new(kind, 3);
            let json = spec.to_json().to_string();
            let back = WorkloadSpec::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn spec_instantiation_is_pure_and_applies_overrides() {
        let mut spec = WorkloadSpec::resnet18_cifar100(9).time_scaled(0.25);
        spec.profile = Some(ModelProfile::mobilenet());
        let a = spec.instantiate();
        let b = spec.instantiate();
        assert_eq!(a.target_epochs, 30.0, "120-epoch schedule compressed 4x");
        assert_eq!(a.optim.lr_milestones, vec![20.0]);
        assert_eq!(a.profile, ModelProfile::mobilenet());
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.build_model(7).params(), b.build_model(7).params());
    }

    #[test]
    fn lr_scale_applies_and_round_trips() {
        let spec = WorkloadSpec::convex_ridge(11).lr_scaled(0.2);
        let w = spec.instantiate();
        assert!((w.optim.lr - 0.01).abs() < 1e-12, "0.05 scaled by 0.2");
        let back = WorkloadSpec::from_json(&Json::parse(&spec.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap(), spec);
        // Documents written before the field existed parse at scale 1.
        let legacy =
            WorkloadSpec::convex_ridge(11).to_json().to_string().replace("lr_scale", "lr_scale_v0");
        let back = WorkloadSpec::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back, WorkloadSpec::convex_ridge(11));
    }

    #[test]
    fn a_scale_that_is_not_finite_and_positive_does_not_parse() {
        for name in ["time_scale", "lr_scale"] {
            for bad in [0.0, -0.5, f64::INFINITY] {
                let Json::Obj(mut fields) = WorkloadSpec::convex_ridge(11).to_json() else {
                    panic!("not an object")
                };
                for (key, value) in fields.iter_mut() {
                    if key == name {
                        *value = Json::Num(bad);
                    }
                }
                let err = WorkloadSpec::from_json(&Json::Obj(fields)).unwrap_err();
                assert!(err.to_string().contains(&format!("{name} must be finite and positive")), "{err}");
            }
        }
    }

    #[test]
    fn paper_hyperparams_respected() {
        let w = Workload::mobilenet_mnist(1);
        assert_eq!(w.batch_size, 32);
        assert!((w.optim.lr - 0.01).abs() < 1e-12);
        let w = Workload::resnet18_cifar10(1);
        assert_eq!(w.batch_size, 128);
        assert!((w.optim.lr - 0.1).abs() < 1e-12);
        assert_eq!(w.target_epochs, 64.0);
        let w = Workload::vgg19_cifar10(1);
        assert_eq!(w.target_epochs, 82.0);
    }
}
