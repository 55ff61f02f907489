//! Table V — test accuracy with non-uniform data partitioning across all
//! five datasets.
//!
//! Accuracy parity again (NetMax comparable or slightly ahead), with the
//! paper's two notable absolute levels preserved in shape: MNIST non-IID
//! lands well below the usual ~99% (the label-removal cost), and
//! Tiny-ImageNet sits lowest overall.

use crate::common::Mode;
use crate::experiments::nonuniform::{self, Case};
use crate::spec::ExperimentSpec;

/// The registry entries: the non-uniform cases re-registered as Table V
/// rows (same scenarios as the per-figure `nonuniform` entries, but under
/// Table V's own budgets); tiny mode keeps two cheap datasets.
pub fn specs(mode: Mode) -> Vec<ExperimentSpec> {
    // Each case's own budget in full mode, one shared budget otherwise.
    let epochs = match mode {
        Mode::Full => None,
        Mode::Quick => Some(6.0),
        Mode::Tiny => Some(2.0),
    };
    let cases: &[Case] = if mode == Mode::Tiny {
        &[Case::Cifar10, Case::MnistNonIid]
    } else {
        &[
            Case::Cifar10,
            Case::Cifar100,
            Case::MnistNonIid,
            Case::TinyImageNet,
            Case::ImageNet,
        ]
    };
    cases
        .iter()
        .map(|&case| {
            let mut spec = nonuniform::case_spec(case, mode, "tab05");
            if let Some(e) = epochs {
                spec.scenario.cfg_mut().max_epochs = e;
            }
            spec.title = "Table V — accuracy with non-uniform data partitioning".into();
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    #[test]
    fn produces_one_row_per_case() {
        let specs = specs(Mode::Tiny);
        assert_eq!(specs.len(), 2);
        for spec in &specs {
            let result = runner::try_execute(spec, &Default::default()).unwrap();
            assert_eq!(result.cells.len(), 4);
            for c in &result.cells {
                assert!((0.0..=1.0).contains(&c.report.final_test_accuracy));
            }
        }
    }
}
