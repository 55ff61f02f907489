//! Fig. 19 — distributed training across six cloud regions (Appendix G):
//! test accuracy versus time for MobileNet and GoogLeNet on MNIST with
//! the Table VII per-region label skew.
//!
//! Paper finding: NetMax converges 1.9× / 1.9× / 2.1× faster than
//! AD-PSGD / PS-async / PS-sync over the WAN.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, PartitionKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// The registry entries: one spec per model panel.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(20.0);
    let seed = 23;
    [WorkloadSpec::mobilenet_mnist(seed), WorkloadSpec::googlenet_mnist(seed)]
        .into_iter()
        .map(|workload| {
            let mut cfg = common::train_config(epochs, seed);
            // Accuracy-vs-time curves need dense test evaluation.
            cfg.test_eval_every_records = 1;
            let name = format!("fig19/{}", workload.kind.name());
            let scenario = Scenario::builder()
                .workers(6)
                .network(NetworkKind::Wan)
                .workload(workload)
                .partition(PartitionKind::PaperTable7)
                .train_config(cfg)
                .build();
            ExperimentSpec {
                name,
                group: "fig19".into(),
                title: "Fig. 19 — cross-cloud training over six EC2 regions (Table VII skew)"
                    .into(),
                scenario,
                arms: vec![
                    Arm::new(AlgorithmKind::NetMax),
                    Arm::new(AlgorithmKind::AdPsgd),
                    Arm::new(AlgorithmKind::PsAsync),
                    Arm::new(AlgorithmKind::PsSync),
                ],
                seeds: vec![seed],
                metrics: vec![MetricKind::TimeToAccuracy, MetricKind::Accuracy],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn netmax_reaches_accuracy_before_ps_sync() {
        let mut spec = specs(Mode::Full).swap_remove(0);
        spec.scenario.cfg_mut().max_epochs = 5.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        let target = result.accuracy_target();
        let t = |kind: AlgorithmKind| {
            let r = &result.cell(kind).expect("arm present").report;
            runner::time_to_accuracy(r, target).unwrap_or(r.wall_clock_s)
        };
        assert!(
            t(AlgorithmKind::NetMax) < t(AlgorithmKind::PsSync),
            "NetMax {n} vs PS-sync {p}",
            n = t(AlgorithmKind::NetMax),
            p = t(AlgorithmKind::PsSync)
        );
    }

    #[test]
    fn wan_panels_cover_both_models() {
        let models: Vec<String> = specs(Mode::Tiny)
            .iter()
            .map(|s| runner::try_execute(s, &Default::default()).unwrap())
            .map(|r| r.cells[0].report.workload.clone())
            .collect();
        assert_eq!(models.len(), 2);
        assert!(models[0].contains("mobilenet"));
        assert!(models[1].contains("googlenet"));
    }
}
