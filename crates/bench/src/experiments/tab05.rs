//! Table V — test accuracy with non-uniform data partitioning across all
//! five datasets.
//!
//! Accuracy parity again (NetMax comparable or slightly ahead), with the
//! paper's two notable absolute levels preserved in shape: MNIST non-IID
//! lands well below the usual ~99% (the label-removal cost), and
//! Tiny-ImageNet sits lowest overall.

use crate::common::Mode;
use crate::experiments::nonuniform::{self, Case};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which dataset rows to produce (all five by default).
    pub cases: Vec<Case>,
    /// Epoch budget override; `None` keeps each case's own budget.
    pub epochs: Option<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full reproduction scale: all five datasets.
    pub fn full() -> Self {
        Self {
            cases: vec![
                Case::Cifar10,
                Case::Cifar100,
                Case::MnistNonIid,
                Case::TinyImageNet,
                Case::ImageNet,
            ],
            epochs: None,
            seed: 13,
        }
    }

    /// Mode-scaled parameters (tiny keeps two cheap datasets).
    pub fn for_mode(mode: Mode) -> Self {
        let mut p = Self::full();
        match mode {
            crate::common::Mode::Full => {}
            crate::common::Mode::Quick => p.epochs = Some(6.0),
            Mode::Tiny => {
                p.cases = vec![Case::Cifar10, Case::MnistNonIid];
                p.epochs = Some(2.0);
            }
        }
        p
    }
}

/// The registry entries: the five non-uniform cases re-registered as
/// Table V rows (same scenarios as the per-figure `nonuniform` entries,
/// but under each case's own Table V budget/seed).
pub fn specs(p: &Params) -> Vec<crate::spec::ExperimentSpec> {
    p.cases
        .iter()
        .map(|&case| {
            let mut np = nonuniform::Params::full(case);
            np.seed = p.seed;
            if let Some(e) = p.epochs {
                np.epochs = e;
            }
            let mut spec = nonuniform::spec_for(&np, "tab05");
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
        let p = Params {
            cases: vec![Case::Cifar10, Case::MnistNonIid],
            epochs: Some(2.0),
            seed: 13,
        };
        let specs = specs(&p);
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
