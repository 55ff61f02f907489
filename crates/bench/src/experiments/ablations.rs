//! Ablations beyond the paper's figures, validating the design choices
//! DESIGN.md calls out:
//!
//! 1. **Inverse-probability merge weighting** (Algorithm 2 line 13) vs a
//!    fixed 1/2 weight, under non-IID data — isolates the §V-H effect.
//! 2. **Monitor period Ts** sensitivity around the link-change period.
//! 3. **EMA smoothing β** sensitivity under fast network dynamics.
//! 4. **Static vs adaptive link selection** — the §I Fig. 2 narrative:
//!    SAPS-PSGD's initially-fast subgraph against NetMax's re-measured
//!    policy, on static and dynamic networks.

use crate::common::{self, Mode};
use crate::spec::{Arm, ExperimentSpec, MetricKind};
use netmax_core::engine::{AlgorithmKind, PartitionKind, Scenario};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

/// Non-IID scenario used by the weighting ablation (Table IV labels).
fn noniid_scenario(epochs: f64, seed: u64) -> Scenario {
    Scenario::builder()
        .workers(8)
        .servers(2)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::mobilenet_mnist(seed))
        .partition(PartitionKind::PaperTable4)
        .slowdown(common::slowdown())
        .train_config(common::train_config(epochs, seed))
        .build()
}

/// Heterogeneous uniform-data scenario used by the Ts and β sweeps.
fn hetero_scenario(epochs: f64, seed: u64) -> Scenario {
    Scenario::builder()
        .workers(8)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::resnet18_cifar10(seed))
        .slowdown(common::slowdown())
        .train_config(common::train_config(epochs, seed))
        .build()
}

fn abl_spec(
    name: &str,
    title: &str,
    scenario: Scenario,
    arms: Vec<Arm>,
    seeds: Vec<u64>,
    metrics: Vec<MetricKind>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: format!("abl/{name}"),
        group: "abl".into(),
        title: title.into(),
        scenario,
        arms,
        seeds,
        metrics,
    }
}

/// The registry entries for all four design-choice ablations.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    let epochs = mode.epochs(16.0);
    let seed = 29;
    let mut out = vec![
        abl_spec(
            "weighting",
            "Ablation 1 — second-step merge weighting (non-IID MNIST, Table IV)",
            noniid_scenario(epochs, seed),
            vec![
                Arm::new(AlgorithmKind::NetMax).labeled("inverse-probability (paper)"),
                Arm::new(AlgorithmKind::NetMax).fixed_weight(0.5).labeled("fixed 0.5 (AD-PSGD style)"),
                Arm::new(AlgorithmKind::NetMax).fixed_weight(0.25).labeled("fixed 0.25"),
            ],
            vec![seed],
            vec![MetricKind::Accuracy],
        ),
        abl_spec(
            "ts-period",
            "Ablation 2 — Network Monitor period Ts (link change every 120 s)",
            hetero_scenario(epochs, seed),
            [10.0, 30.0, 60.0, 120.0, 300.0]
                .into_iter()
                .map(|ts| {
                    Arm::new(AlgorithmKind::NetMax).monitor_period(ts).labeled(format!("Ts={ts}s"))
                })
                .collect(),
            vec![seed],
            vec![MetricKind::Accuracy],
        ),
        abl_spec(
            "ema-beta",
            "Ablation 3 — EMA smoothing factor β",
            hetero_scenario(epochs, seed),
            [0.1, 0.3, 0.5, 0.7, 0.9]
                .into_iter()
                .map(|b| Arm::new(AlgorithmKind::NetMax).beta(b).labeled(format!("beta={b}")))
                .collect(),
            vec![seed],
            vec![MetricKind::Accuracy],
        ),
    ];
    out.extend(static_vs_adaptive_specs(epochs.max(48.0), seed));
    out
}

/// The two static/dynamic specs of ablation 4: SAPS-PSGD (fixed
/// initially-fast subgraph) vs NetMax — the Fig. 2 story quantified. On
/// the static network the frozen subgraph is competitive (often faster:
/// it ignores slow links entirely and pays no Eq. 11 floors); under
/// dynamics the slow link eventually lands *inside* the frozen subgraph,
/// which cannot route around it, while NetMax re-measures and
/// re-optimises. The runs are deliberately long (≥ 48 epochs ⇒ ≥ 10
/// slow-link windows) and span several network seeds, and the
/// [`MetricKind::Straggler`] summary reads them by the slowest node's
/// time per epoch.
fn static_vs_adaptive_specs(epochs: f64, seed: u64) -> Vec<ExperimentSpec> {
    // Faster re-draws than the harness default so each run sees many
    // windows; whether any one window lands on the sparse subgraph is a
    // coin flip, and the straggler metric surfaces the hits.
    let slowdown = netmax_net::SlowdownConfig {
        change_period_s: 60.0,
        ..netmax_net::SlowdownConfig::default()
    };
    [
        ("static", NetworkKind::HeterogeneousStatic),
        ("dynamic", NetworkKind::HeterogeneousDynamic),
    ]
    .into_iter()
    .map(|(net_label, kind)| {
        let scenario = Scenario::builder()
            .workers(8)
            .network(kind)
            .workload(WorkloadSpec::resnet18_cifar10(seed))
            .slowdown(slowdown)
            .train_config(common::train_config(epochs, seed))
            .build();
        abl_spec(
            &format!("static-vs-adaptive/{net_label}"),
            "Ablation 4 — static subgraph (SAPS-PSGD) vs adaptive NetMax (Fig. 2 narrative)",
            scenario,
            vec![Arm::new(AlgorithmKind::SapsPsgd), Arm::new(AlgorithmKind::NetMax)],
            vec![seed, seed + 1, seed + 2],
            vec![MetricKind::Straggler, MetricKind::Accuracy],
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn weighting_variants_all_train() {
        let mut spec = specs(Mode::Full).swap_remove(0);
        spec.scenario.cfg_mut().max_epochs = 3.0;
        let result = runner::try_execute(&spec, &Default::default()).unwrap();
        assert_eq!(result.cells.len(), 3);
        for c in &result.cells {
            let loss = c.report.final_train_loss;
            assert!(loss.is_finite() && loss < 2.5, "{}: loss {}", c.label, loss);
        }
    }

    #[test]
    fn ts_sweep_produces_monotone_labels() {
        let result = runner::try_execute(&specs(Mode::Tiny)[1], &Default::default()).unwrap();
        assert_eq!(result.cells.len(), 5);
        assert!(result.cells[0].label.contains("10"));
        assert!(result.cells[4].label.contains("300"));
    }
}
