//! Communication/compute profiles of the paper's deep-learning models.
//!
//! The evaluation's *timing* behaviour depends on two numbers per model:
//! how many bytes a parameter pull moves (Algorithm 2 line 10) and how
//! long one mini-batch gradient computation takes (`C_i` of §II-B). The
//! parameter counts below are the paper's own (§V-A: "MobileNet, ResNet18,
//! ResNet50, and VGG19 whose numbers of parameters are approximately 4.2M,
//! 11.7M, 25.6M, and 143.7M"; Appendix G adds GoogLeNet at 6.8M).
//!
//! Per-batch GPU compute times are calibrated so the simulated Fig. 3
//! (intra- vs inter-machine iteration time on 1000 Mbps Ethernet)
//! reproduces the paper's shape: communication dominates, and the gap is
//! several-fold on slow links.

use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Timing profile of a training model: message size and per-batch compute.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name ("resnet18", …).
    pub name: String,
    /// Number of trainable parameters.
    pub param_count: u64,
    /// Seconds of GPU compute for one mini-batch of `reference_batch`.
    pub compute_time_s: f64,
    /// Batch size at which `compute_time_s` was calibrated.
    pub reference_batch: usize,
}

impl ModelProfile {
    /// ResNet18 (11.7M parameters).
    pub fn resnet18() -> Self {
        Self {
            name: "resnet18".into(),
            param_count: 11_700_000,
            compute_time_s: 0.25,
            reference_batch: 128,
        }
    }

    /// ResNet50 (25.6M parameters).
    pub fn resnet50() -> Self {
        Self {
            name: "resnet50".into(),
            param_count: 25_600_000,
            compute_time_s: 0.40,
            reference_batch: 128,
        }
    }

    /// VGG19 (143.7M parameters).
    pub fn vgg19() -> Self {
        Self {
            name: "vgg19".into(),
            param_count: 143_700_000,
            compute_time_s: 0.90,
            reference_batch: 128,
        }
    }

    /// MobileNet (4.2M parameters).
    pub fn mobilenet() -> Self {
        Self {
            name: "mobilenet".into(),
            param_count: 4_200_000,
            compute_time_s: 0.08,
            reference_batch: 128,
        }
    }

    /// GoogLeNet (6.8M parameters), used in the cross-cloud experiment.
    pub fn googlenet() -> Self {
        Self {
            name: "googlenet".into(),
            param_count: 6_800_000,
            compute_time_s: 0.09,
            reference_batch: 128,
        }
    }

    /// Bytes on the wire for one full-model transfer (fp32).
    pub fn param_bytes(&self) -> u64 {
        self.param_count * 4
    }

    /// Compute time `C_i` for a mini-batch of `batch` examples (linear in
    /// batch size, as GPU throughput saturates at the paper's batch 128).
    pub fn compute_time(&self, batch: usize) -> f64 {
        self.compute_time_s * batch as f64 / self.reference_batch as f64
    }

    /// Looks a profile up by name (used by the CLI harnesses).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "resnet18" => Some(Self::resnet18()),
            "resnet50" => Some(Self::resnet50()),
            "vgg19" => Some(Self::vgg19()),
            "mobilenet" => Some(Self::mobilenet()),
            "googlenet" => Some(Self::googlenet()),
            _ => None,
        }
    }
}

impl ToJson for ModelProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("param_count", self.param_count.to_json()),
            ("compute_time_s", self.compute_time_s.to_json()),
            ("reference_batch", self.reference_batch.to_json()),
        ])
    }
}

impl FromJson for ModelProfile {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: String::from_json(v.field("name")?)?,
            param_count: u64::from_json(v.field("param_count")?)?,
            compute_time_s: f64::from_json(v.field("compute_time_s")?)?,
            reference_batch: usize::from_json(v.field("reference_batch")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let p = ModelProfile::vgg19();
        let back =
            ModelProfile::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn paper_parameter_counts() {
        assert_eq!(ModelProfile::mobilenet().param_count, 4_200_000);
        assert_eq!(ModelProfile::resnet18().param_count, 11_700_000);
        assert_eq!(ModelProfile::resnet50().param_count, 25_600_000);
        assert_eq!(ModelProfile::vgg19().param_count, 143_700_000);
        assert_eq!(ModelProfile::googlenet().param_count, 6_800_000);
    }

    #[test]
    fn bytes_are_fp32() {
        assert_eq!(ModelProfile::resnet18().param_bytes(), 46_800_000);
    }

    #[test]
    fn compute_scales_with_batch() {
        let p = ModelProfile::resnet18();
        assert!((p.compute_time(128) - 0.25).abs() < 1e-12);
        assert!((p.compute_time(64) - 0.125).abs() < 1e-12);
        assert!((p.compute_time(256) - 0.50).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(ModelProfile::by_name("vgg19").unwrap().name, "vgg19");
        assert!(ModelProfile::by_name("transformer").is_none());
    }

    /// The core premise of Fig. 3: on 1 Gbps Ethernet, communication time
    /// dominates compute for every paper model.
    #[test]
    fn communication_dominates_on_gbit() {
        let gbit_bw = 125e6; // bytes/s
        for p in [
            ModelProfile::mobilenet(),
            ModelProfile::resnet18(),
            ModelProfile::resnet50(),
            ModelProfile::vgg19(),
        ] {
            let comm = p.param_bytes() as f64 / gbit_bw;
            assert!(
                comm > p.compute_time(128),
                "{}: comm {comm} should exceed compute {}",
                p.name,
                p.compute_time(128)
            );
        }
    }
}
