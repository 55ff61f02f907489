//! The recorder's one-pass sample path on the registry's own cells: every
//! field of every `Sample` of the sanity `Tiny` cell (n = 8, softmax) and
//! of the `scale --tiny` n = 256 cell (ridge on the 16×16 torus), under all
//! four headline arms, equals `reference_sample` to the last bit — and the
//! pruning behind the consensus diameter is a pinned, repeatable count.

use netmax_bench::experiments::scale;
use netmax_bench::spec::ExperimentSpec;
use netmax_bench::{registry, Mode};
use netmax_core::engine::{reference_sample, AlgorithmKind, PairCount, Sample, Session, StepEvent};

fn same_bits(got: &Sample, want: &Sample) -> bool {
    got.time_s.to_bits() == want.time_s.to_bits()
        && got.global_step == want.global_step
        && got.epoch.to_bits() == want.epoch.to_bits()
        && got.train_loss.to_bits() == want.train_loss.to_bits()
        && got.consensus_diameter.to_bits() == want.consensus_diameter.to_bits()
        && got.test_accuracy.map(f64::to_bits) == want.test_accuracy.map(f64::to_bits)
}

/// Steps one arm of `spec` to the end, holding every sample to the
/// reference; returns the samples taken and the recorder's pair count.
fn run_arm(spec: &ExperimentSpec, kind: AlgorithmKind) -> (usize, PairCount) {
    let arm = spec
        .arms
        .iter()
        .find(|a| a.algorithm == kind)
        .expect("arm is registered");
    let workload = spec.scenario.workload();
    let mut algo = arm.instantiate(workload.optim.lr);
    let mut env = spec.scenario.build_env_with(workload);
    let mut session = Session::new(&mut env, algo.driver()).expect("registered cells validate");
    let mut samples = 0;
    loop {
        let (got, want) = match session.step() {
            StepEvent::Sampled { sample } => (
                sample,
                reference_sample(session.env(), sample.test_accuracy.is_some()),
            ),
            StepEvent::Finished { report } => {
                let last = *report
                    .samples
                    .last()
                    .expect("a finished run has a final sample");
                assert_eq!(report.samples.len(), samples + 1);
                (last, reference_sample(session.env(), true))
            }
            _ => continue,
        };
        assert!(
            same_bits(&got, &want),
            "{} [{}] sample {samples}:\n  recorder  {got:?}\n  reference {want:?}",
            spec.name,
            arm.label()
        );
        samples += 1;
        if session.is_finished() {
            return (samples, session.recorder().pairs_total());
        }
    }
}

fn tiny_scale_cell(n: usize) -> ExperimentSpec {
    registry(Mode::Tiny)
        .into_iter()
        .find(|s| s.name == format!("scale/ridge/n{n}"))
        .expect("the tiny registry carries the cell")
}

#[test]
fn sanity_tiny_cell_samples_are_the_reference_floats() {
    let spec = netmax_bench::registry::sanity_spec(Mode::Tiny);
    for kind in AlgorithmKind::headline_four() {
        let (samples, _) = run_arm(&spec, kind);
        assert!(samples >= 3, "{kind:?}: only {samples} samples");
    }
}

#[test]
fn scale_tiny_n256_cell_samples_are_the_reference_floats_and_the_pruning_is_pinned() {
    let spec = tiny_scale_cell(256);
    assert_eq!(spec.scenario.workers(), 256);
    assert_eq!(scale::torus_dims(256), (16, 16));
    for kind in AlgorithmKind::headline_four() {
        let (samples, pairs) = run_arm(&spec, kind);
        assert!(samples >= 20, "{kind:?}: only {samples} samples");
        assert_eq!(pairs.all_pairs, samples as u64 * 256 * 255 / 2);
        // Every arm's pruned diameter evaluates at most a quarter of all pairs.
        assert!(pairs.share() <= 0.25, "{kind:?}: share {:.4}", pairs.share());
        if kind == AlgorithmKind::AdPsgd {
            // The deterministic count behind the speed-up: strict f32
            // arithmetic, so the same on every machine and every run.
            assert_eq!(
                pairs.evaluated,
                PINNED_ADPSGD_N256_PAIRS,
                "share {:.4}",
                pairs.share()
            );
            assert!(pairs.share() < 0.10, "share {:.4}", pairs.share());
            assert_eq!(
                run_arm(&spec, kind).1,
                pairs,
                "the count must repeat exactly"
            );
        }
    }
}

/// Squared distances evaluated over the 102 samples of the `scale --tiny`
/// n = 256 AD-PSGD arm, of 102 · 32 640 pairs.
const PINNED_ADPSGD_N256_PAIRS: u64 = 146_142;
