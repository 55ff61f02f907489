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

/// One row of Table V.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset/model label.
    pub workload: String,
    /// `(algorithm, accuracy)` cells.
    pub accuracy: Vec<(String, f64)>,
}

/// Runs every case and extracts final accuracies.
pub fn run(p: &Params) -> Vec<Row> {
    p.cases
        .iter()
        .map(|&case| {
            let mut np = nonuniform::Params::full(case);
            np.seed = p.seed;
            if let Some(e) = p.epochs {
                np.epochs = e;
            }
            let out = nonuniform::run(&np);
            Row {
                workload: out.model,
                accuracy: out
                    .results
                    .into_iter()
                    .map(|(k, r)| (k.label().to_string(), r.final_test_accuracy))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_case() {
        let p = Params {
            cases: vec![Case::Cifar10, Case::MnistNonIid],
            epochs: Some(2.0),
            seed: 13,
        };
        let rows = run(&p);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.accuracy.len(), 4);
            for (_, acc) in &r.accuracy {
                assert!((0.0..=1.0).contains(acc));
            }
        }
    }
}
