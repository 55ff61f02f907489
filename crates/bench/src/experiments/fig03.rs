//! Fig. 3 — average iteration time for intra-machine (fast) and
//! inter-machine (slow) communication, ResNet18 and VGG19.
//!
//! The paper measures these on its real cluster; here they follow from
//! the calibrated link presets and model profiles. The claim under test:
//! inter-machine iterations are several-fold slower, so "network
//! communication through a fast link can result in reduced iteration
//! time" (§II-B).

use crate::spec::{ExperimentSpec, MetricKind};
use netmax_core::engine::{ExecutionMode, Scenario};
use netmax_ml::profile::ModelProfile;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::LinkQuality;

/// One bar pair of the figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Iteration time over an intra-machine link (s).
    pub intra_s: f64,
    /// Iteration time over an inter-machine link (s).
    pub inter_s: f64,
}

impl Row {
    /// Inter/intra slowdown factor.
    pub fn ratio(&self) -> f64 {
        self.inter_s / self.intra_s
    }
}

/// The registry entry. Fig. 3 is a timing identity computed from the
/// calibrated profiles, so the spec declares no arms — the executor runs
/// zero training cells and the artifact carries the
/// [`MetricKind::IterationTime`] summary.
pub fn specs() -> Vec<ExperimentSpec> {
    vec![ExperimentSpec {
        name: "fig03/iteration-time".into(),
        group: "fig03".into(),
        title: "Fig. 3 — iteration time, intra- vs inter-machine (batch 128)".into(),
        scenario: Scenario::builder()
            .workers(2)
            .workload(WorkloadSpec::resnet18_cifar10(1))
            .max_epochs(0.1)
            .build(),
        arms: Vec::new(),
        seeds: Vec::new(),
        metrics: vec![MetricKind::IterationTime],
    }]
}

/// Computes the figure (no training needed — this is a timing identity).
pub fn run() -> Vec<Row> {
    let intra = LinkQuality::intra_machine();
    let inter = LinkQuality::gbit_ethernet();
    [ModelProfile::resnet18(), ModelProfile::vgg19()]
        .into_iter()
        .map(|p| {
            let c = p.compute_time(128);
            let bytes = p.param_bytes();
            Row {
                model: p.name.clone(),
                intra_s: ExecutionMode::Parallel.iteration_time(c, intra.transfer_time(bytes)),
                inter_s: ExecutionMode::Parallel.iteration_time(c, inter.transfer_time(bytes)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_is_severalfold_slower() {
        let rows = run();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.ratio() > 2.0, "{}: ratio {} too small", r.model, r.ratio());
        }
        // ResNet18's ratio lands near the paper's "up to 4×".
        let resnet = &rows[0];
        assert!(resnet.ratio() > 3.0 && resnet.ratio() < 5.0, "ratio {}", resnet.ratio());
    }

    #[test]
    fn vgg_is_slower_than_resnet_on_both_links() {
        let rows = run();
        assert!(rows[1].intra_s > rows[0].intra_s);
        assert!(rows[1].inter_s > rows[0].inter_s);
    }
}
