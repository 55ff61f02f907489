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
use netmax_json::{Json, ToJson};
use netmax_ml::profile::ModelProfile;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::LinkQuality;

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

/// The figure as the artifact's `iteration_time` summary: one object per
/// model with its intra- and inter-machine iteration times (s) and their
/// ratio. No training needed — this is a timing identity.
pub fn iteration_time_summary() -> Json {
    let intra = LinkQuality::intra_machine();
    let inter = LinkQuality::gbit_ethernet();
    Json::Arr(
        [ModelProfile::resnet18(), ModelProfile::vgg19()]
            .into_iter()
            .map(|p| {
                let c = p.compute_time(128);
                let bytes = p.param_bytes();
                let intra_s = ExecutionMode::Parallel.iteration_time(c, intra.transfer_time(bytes));
                let inter_s = ExecutionMode::Parallel.iteration_time(c, inter.transfer_time(bytes));
                Json::obj([
                    ("model", p.name.to_json()),
                    ("intra_s", intra_s.to_json()),
                    ("inter_s", inter_s.to_json()),
                    ("ratio", (inter_s / intra_s).to_json()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summary's `key` for each model, in figure order.
    fn column(key: &str) -> Vec<f64> {
        let summary = iteration_time_summary();
        let rows = summary.as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        rows.iter().map(|r| r.field(key).unwrap().as_f64().unwrap()).collect()
    }

    #[test]
    fn inter_is_severalfold_slower() {
        let ratios = column("ratio");
        for r in &ratios {
            assert!(*r > 2.0, "ratio {r} too small");
        }
        // ResNet18's ratio lands near the paper's "up to 4×".
        assert!(ratios[0] > 3.0 && ratios[0] < 5.0, "ratio {}", ratios[0]);
    }

    #[test]
    fn vgg_is_slower_than_resnet_on_both_links() {
        let (intra, inter) = (column("intra_s"), column("inter_s"));
        assert!(intra[1] > intra[0]);
        assert!(inter[1] > inter[0]);
    }
}
