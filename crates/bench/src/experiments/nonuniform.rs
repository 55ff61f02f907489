//! Figs. 12, 13, 16, 17, 18 — non-uniform data partitioning (§V-F and
//! Appendix F): loss versus epochs *and* versus time.
//!
//! The paper's claim: with segmented (⟨2,1,2,1⟩-style) or non-IID
//! label-removed data, NetMax matches the baselines per epoch and beats
//! them decisively on wall-clock. Each figure is one case of this module:
//!
//! * Fig. 12 — ResNet18 / CIFAR100, 8 workers, segments;
//! * Fig. 13 — ResNet50 / ImageNet, 16 workers, segments;
//! * Fig. 16 — ResNet18 / CIFAR10, 8 workers, segments;
//! * Fig. 17 — ResNet18 / Tiny-ImageNet, 8 workers, segments;
//! * Fig. 18 — MobileNet / MNIST, 8 workers, Table IV non-IID labels.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, PartitionKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// Which paper figure to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Case {
    /// Fig. 12: ResNet18 on CIFAR100.
    Cifar100,
    /// Fig. 13: ResNet50 on ImageNet (16 workers).
    ImageNet,
    /// Fig. 16: ResNet18 on CIFAR10.
    Cifar10,
    /// Fig. 17: ResNet18 on Tiny-ImageNet.
    TinyImageNet,
    /// Fig. 18: MobileNet on MNIST with Table IV label removal.
    MnistNonIid,
}

impl Case {
    /// Figure number in the paper.
    fn figure(&self) -> &'static str {
        match self {
            Case::Cifar100 => "Fig. 12",
            Case::ImageNet => "Fig. 13",
            Case::Cifar10 => "Fig. 16",
            Case::TinyImageNet => "Fig. 17",
            Case::MnistNonIid => "Fig. 18",
        }
    }

    /// Registry group of the case's own figure.
    fn group(&self) -> &'static str {
        match self {
            Case::Cifar100 => "fig12",
            Case::ImageNet => "fig13",
            Case::Cifar10 => "fig16",
            Case::TinyImageNet => "fig17",
            Case::MnistNonIid => "fig18",
        }
    }

    fn workers(&self) -> usize {
        match self {
            Case::ImageNet => 16,
            _ => 8,
        }
    }

    fn workload(&self, seed: u64) -> WorkloadSpec {
        // The paper's 120/75-epoch schedules compressed 4× (decay
        // milestones scale along, see `Workload::time_scaled`).
        match self {
            Case::Cifar100 => WorkloadSpec::resnet18_cifar100(seed).time_scaled(0.25),
            Case::ImageNet => WorkloadSpec::resnet50_imagenet(seed).time_scaled(0.25),
            Case::Cifar10 => WorkloadSpec::resnet18_cifar10(seed).time_scaled(0.5),
            Case::TinyImageNet => WorkloadSpec::resnet18_tiny_imagenet(seed).time_scaled(0.5),
            Case::MnistNonIid => WorkloadSpec::mobilenet_mnist(seed),
        }
    }

    fn partition(&self) -> PartitionKind {
        match self {
            Case::ImageNet => PartitionKind::Paper16Segments,
            Case::MnistNonIid => PartitionKind::PaperTable4,
            _ => PartitionKind::Paper8Segments,
        }
    }
}

/// The registry entry for one case under `group`: the case's own figure
/// group, or `tab05`, which re-registers the same runs as table rows.
pub(crate) fn case_spec(case: Case, mode: Mode, group: &str) -> ExperimentSpec {
    // The case workload's own scaled epoch target.
    let epochs = mode.epochs(case.workload(1).instantiate().target_epochs);
    let seed = 13;
    let mut cfg = common::train_config(epochs, seed);
    if case == Case::ImageNet {
        // 16-node ImageNet runs are the most expensive; sample lighter.
        cfg.record_every_steps = 100;
        cfg.loss_sample_size = 256;
    }
    let scenario = Scenario::builder()
        .workers(case.workers())
        .servers(2)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(case.workload(seed))
        .partition(case.partition())
        .slowdown(common::slowdown())
        .train_config(cfg)
        .build();
    ExperimentSpec {
        name: format!("{group}/{}", case.workload(seed).kind.name()),
        group: group.into(),
        title: format!(
            "{} — non-uniform partitioning, {} workers on 2 servers",
            case.figure(),
            case.workers()
        ),
        scenario,
        arms: AlgorithmKind::headline_four().map(Arm::new).to_vec(),
        seeds: vec![seed],
        metrics: vec![MetricKind::TimeToTarget, MetricKind::Accuracy],
    }
}

/// The registry entries: every case under its own figure group, in
/// figure order.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    [
        Case::Cifar100,
        Case::ImageNet,
        Case::Cifar10,
        Case::TinyImageNet,
        Case::MnistNonIid,
    ]
    .into_iter()
    .map(|case| case_spec(case, mode, case.group()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn mnist_noniid_runs_and_netmax_leads_on_time() {
        let mut spec = case_spec(Case::MnistNonIid, Mode::Full, "fig18");
        spec.scenario.cfg_mut().max_epochs = 4.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        let target = result.loss_target();
        let t = |kind: AlgorithmKind| {
            let r = &result.cell(kind).expect("arm present").report;
            r.time_to_loss(target).unwrap_or(r.wall_clock_s)
        };
        assert!(
            t(AlgorithmKind::NetMax) <= t(AlgorithmKind::AllreduceSgd),
            "NetMax should beat Allreduce on time"
        );
        assert!(t(AlgorithmKind::NetMax) <= t(AlgorithmKind::Prague));
    }

    #[test]
    fn segmented_case_loses_no_data() {
        let spec = case_spec(Case::Cifar100, Mode::Tiny, "fig12");
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        for c in &result.cells {
            assert!(c.report.final_train_loss.is_finite());
            assert!(c.report.epochs_completed >= 2.0);
        }
    }

    #[test]
    fn cases_have_expected_worker_counts() {
        assert_eq!(Case::ImageNet.workers(), 16);
        assert_eq!(Case::Cifar100.workers(), 8);
        assert_eq!(Case::MnistNonIid.partition(), PartitionKind::PaperTable4);
    }
}
