//! Shared machinery for the figure/table harnesses.

use netmax_core::engine::{RunReport, TrainConfig};
use netmax_net::SlowdownConfig;

/// Compressed Network-Monitor period `Ts` (paper: 120 s — see the crate
/// docs for the timescale-compression rationale).
pub const MONITOR_PERIOD_S: f64 = 30.0;

/// Compressed slow-link re-draw period (paper: 300 s).
pub const LINK_CHANGE_PERIOD_S: f64 = 120.0;

/// Execution scale of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full reproduction (tens of simulated minutes per run).
    Full,
    /// ~4× shorter runs; shapes survive, absolute values noisier.
    Quick,
    /// Minimal runs for smoke tests and CI.
    Tiny,
}

impl Mode {
    /// Scales an epoch budget to the mode.
    pub fn epochs(self, full: f64) -> f64 {
        match self {
            Mode::Full => full,
            Mode::Quick => (full * 0.25).max(3.0),
            Mode::Tiny => 2.0,
        }
    }
}

/// The harness-standard slowdown regime (paper factors 2–100×, compressed
/// change period).
pub fn slowdown() -> SlowdownConfig {
    SlowdownConfig { change_period_s: LINK_CHANGE_PERIOD_S, ..SlowdownConfig::default() }
}

/// The harness-standard training config for curve experiments.
pub fn train_config(epochs: f64, seed: u64) -> TrainConfig {
    TrainConfig {
        max_epochs: epochs,
        record_every_steps: 50,
        loss_sample_size: 384,
        test_eval_every_records: 4,
        seed,
        ..TrainConfig::default()
    }
}

/// A loss target every run in the set has reached, placed in the *descent*
/// region of the curves rather than at the plateau.
///
/// The synthetic workloads converge to their plateau within a few epochs,
/// after which the recorded losses fluctuate with sampling noise; a target
/// put right at the worst plateau loss would measure when each curve's
/// *noise* first dips below it, not convergence speed. Instead the target
/// sits 10% of the way up from the worst final loss towards the initial
/// loss — low enough that reaching it requires essentially full
/// convergence, high enough to sit clear of plateau noise. (The paper
/// reads its Fig. 8 speedups off the curves at a common loss level the
/// same way.)
pub fn common_loss_target_of<'a>(results: impl Iterator<Item = &'a RunReport>) -> f64 {
    let (mut worst_final, mut initial) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for r in results {
        worst_final = worst_final.max(r.final_train_loss);
        if let Some(first) = r.samples.first() {
            initial = initial.max(first.train_loss);
        }
    }
    let floor = worst_final * 1.02 + 1e-4;
    if initial > worst_final {
        floor.max(worst_final + 0.10 * (initial - worst_final))
    } else {
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_epoch_scaling() {
        assert_eq!(Mode::Full.epochs(24.0), 24.0);
        assert_eq!(Mode::Quick.epochs(24.0), 6.0);
        assert_eq!(Mode::Tiny.epochs(24.0), 2.0);
        // Quick never goes below 3 epochs.
        assert_eq!(Mode::Quick.epochs(4.0), 3.0);
    }

    #[test]
    fn loss_target_covers_all_runs() {
        let mk = |loss: f64| RunReport {
            algorithm: "x".into(),
            workload: "w".into(),
            num_nodes: 2,
            samples: vec![],
            wall_clock_s: 1.0,
            epochs_completed: 1.0,
            global_steps: 1,
            final_train_loss: loss,
            final_test_accuracy: 0.5,
            per_node: vec![],
        };
        let results = [mk(0.30), mk(0.35)];
        let t = common_loss_target_of(results.iter());
        assert!(t > 0.35);
    }
}
