//! The recorder's one-pass sample path against the definition: every field
//! of every `Sample` equals `reference_sample` — the live replicas cloned,
//! each scored by the plain metric functions, every pair's distance taken
//! — to the last bit, with the fleet shrinking under it.

use netmax_core::engine::{
    reference_sample, Algorithm, Sample, Scenario, Session, StepEvent, TopologyKind, TrainConfig,
};
use netmax_core::netmax::NetMax;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{FaultPlan, NetworkKind, NodeFault};

fn torus(rows: usize, cols: usize, faults: FaultPlan) -> Scenario {
    Scenario::builder()
        .workers(rows * cols)
        .topology(TopologyKind::Torus { rows, cols })
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig {
            seed: 5,
            max_epochs: 3.0,
            record_every_steps: 16,
            test_eval_every_records: 3,
            ..TrainConfig::quick_test()
        })
        .faults(faults)
        .build()
}

fn assert_same_sample(got: &Sample, want: &Sample, what: &str) {
    assert_eq!(
        got.time_s.to_bits(),
        want.time_s.to_bits(),
        "{what}: time_s"
    );
    assert_eq!(got.global_step, want.global_step, "{what}: global_step");
    assert_eq!(got.epoch.to_bits(), want.epoch.to_bits(), "{what}: epoch");
    assert_eq!(
        got.train_loss.to_bits(),
        want.train_loss.to_bits(),
        "{what}: train_loss {} vs {}",
        got.train_loss,
        want.train_loss
    );
    assert_eq!(
        got.consensus_diameter.to_bits(),
        want.consensus_diameter.to_bits(),
        "{what}: consensus_diameter {} vs {}",
        got.consensus_diameter,
        want.consensus_diameter
    );
    assert_eq!(
        got.test_accuracy.map(f64::to_bits),
        want.test_accuracy.map(f64::to_bits),
        "{what}: test_accuracy"
    );
}

/// Runs the scenario under NetMax and checks every sample against the
/// reference; returns (samples taken, fewest live nodes any sample read,
/// live nodes at the final sample).
fn run_and_compare(sc: &Scenario) -> (usize, usize, usize) {
    let mut env = sc.build_env();
    let mut algo = NetMax::paper_default(0.05);
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let (mut samples, mut fewest_live) = (0, usize::MAX);
    loop {
        match session.step() {
            StepEvent::Sampled { sample } => {
                let env = session.env();
                let want = reference_sample(env, sample.test_accuracy.is_some());
                assert_same_sample(&sample, &want, &format!("sample {samples}"));
                samples += 1;
                fewest_live = fewest_live.min(env.num_active());
            }
            StepEvent::Finished { report } => {
                // The forced final sample always evaluates the test set.
                let last = report
                    .samples
                    .last()
                    .expect("a finished run has a final sample");
                assert_same_sample(last, &reference_sample(session.env(), true), "final sample");
                assert_eq!(report.samples.len(), samples + 1);
                return (samples + 1, fewest_live, session.env().num_active());
            }
            _ => {}
        }
    }
}

#[test]
fn every_sample_field_is_the_reference_float_while_the_fleet_dies() {
    // Fault-free first, for the horizon the crash times are placed on.
    let calm = torus(4, 4, FaultPlan::none());
    let horizon = calm.run_with(&mut NetMax::paper_default(0.05)).wall_clock_s;
    let (calm_samples, calm_fewest, calm_final) = run_and_compare(&calm);
    assert!(calm_samples > 20, "only {calm_samples} samples");
    assert_eq!((calm_fewest, calm_final), (16, 16));

    // Three nodes crash a third of the way in, every other node at 70 %:
    // samples over 16, then 13 live replicas, and a final one over a
    // fleet that is entirely down (the frozen replicas are read).
    let early = [1usize, 6, 11];
    let node_faults = (0..16)
        .map(|node| NodeFault {
            node,
            crash_s: horizon * if early.contains(&node) { 0.33 } else { 0.7 },
            rejoin_s: None,
        })
        .collect();
    let dying = torus(
        4,
        4,
        FaultPlan {
            node_faults,
            ..FaultPlan::none()
        },
    );
    let (samples, fewest, at_final) = run_and_compare(&dying);
    assert!(samples > 10, "only {samples} samples");
    assert_eq!(
        fewest, 13,
        "no sample was taken between the two crash waves"
    );
    assert_eq!(
        at_final, 0,
        "the final sample should read a fleet that is entirely down"
    );
}

#[test]
fn an_odd_fleet_with_survivors_matches_the_reference() {
    // 15 replicas, then 12, then 7 that outlive the run: the fleet pass
    // over live counts that are not multiples of anything convenient, with
    // crashed replicas skipped in the middle of the node order.
    let calm = torus(3, 5, FaultPlan::none());
    let horizon = calm.run_with(&mut NetMax::paper_default(0.05)).wall_clock_s;
    let node_faults = [(1usize, 0.33), (6, 0.33), (11, 0.33), (0, 0.7), (2, 0.7), (4, 0.7), (8, 0.7), (13, 0.7)]
        .into_iter()
        .map(|(node, at)| NodeFault { node, crash_s: horizon * at, rejoin_s: None })
        .collect();
    let thinning = torus(3, 5, FaultPlan { node_faults, ..FaultPlan::none() });
    let (samples, fewest, at_final) = run_and_compare(&thinning);
    assert!(samples > 10, "only {samples} samples");
    assert_eq!((fewest, at_final), (7, 7));
}
