//! The determinism guarantee of the step-wise session API, asserted for
//! every algorithm variant the paper evaluates: *checkpoint at step `k`,
//! restore into a fresh session, run to completion* must produce a
//! [`RunReport`] byte-identical (as serialized JSON) to an uninterrupted
//! run. Checkpoints travel as NMXB bytes — what the CLI writes to disk is
//! what must restore.

use netmax_baselines::algorithm_for;
use netmax_core::engine::{
    decode_session_v3, AlgorithmKind, CheckpointScratch, Scenario, Session, StepEvent,
    StopCondition, TrainConfig,
};
use netmax_core::monitor::EmaTimeTracker;
use netmax_json::{Json, ToJson};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;

const ALPHA: f64 = 0.05;

fn scenario(kind: AlgorithmKind) -> Scenario {
    // Heterogeneous dynamic network: the hardest regime (time-varying
    // links, monitor activity). Short monitor runs matter for the
    // monitor-bearing variants, so keep 3 epochs.
    Scenario::builder()
        .workers(4)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig {
            seed: 23 + kind as u64,
            max_epochs: 2.0,
            ..TrainConfig::quick_test()
        })
        .build()
}

/// The session's checkpoint in its serialized form.
fn snapshot(session: &Session<'_>) -> Vec<u8> {
    let mut bytes = Vec::new();
    session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes).expect("binary encode");
    bytes
}

/// Runs `kind` uninterrupted, then re-runs with a checkpoint/restore split
/// after `k` global steps, and compares the serialized reports.
fn assert_resume_identical(kind: AlgorithmKind, k: u64) {
    let sc = scenario(kind);

    let mut algo = algorithm_for(kind, ALPHA);
    let mut env = sc.build_env();
    let full = algo.run(&mut env);

    // Interrupted run: step to >= k global steps, checkpoint, drop.
    let mut algo1 = algorithm_for(kind, ALPHA);
    let mut env1 = sc.build_env();
    let bytes = {
        let mut session = Session::new(&mut env1, algo1.driver()).expect("valid session");
        while session.env().global_step < k {
            if let StepEvent::Finished { .. } = session.step() {
                break;
            }
        }
        snapshot(&session)
    };

    let mut algo2 = algorithm_for(kind, ALPHA);
    let mut env2 = sc.build_env();
    let mut resumed =
        Session::restore_bytes(&mut env2, algo2.driver(), &bytes).expect("checkpoint restores");
    let report = resumed.run();

    assert_eq!(
        report.to_json().to_string(),
        full.to_json().to_string(),
        "{kind:?}: resume after {k} steps must match the uninterrupted run"
    );
}

#[test]
fn every_variant_resumes_byte_identically() {
    for kind in AlgorithmKind::all() {
        assert_resume_identical(kind, 60);
    }
}

/// Every driver family restores alike through both entry points: the
/// container's bytes (node blobs decoded one at a time) and the decoded
/// logical document leave sessions whose next snapshots are identical to
/// each other and to the bytes restored from.
#[test]
fn restore_bytes_equals_restoring_the_decoded_document() {
    for kind in AlgorithmKind::all() {
        let sc = scenario(kind);
        let mut algo = algorithm_for(kind, ALPHA);
        let mut env = sc.build_env();
        let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
        while session.env().global_step < 60 {
            if let StepEvent::Finished { .. } = session.step() {
                break;
            }
        }
        let bytes = snapshot(&session);

        let mut algo1 = algorithm_for(kind, ALPHA);
        let mut env1 = sc.build_env();
        let from_bytes = snapshot(
            &Session::restore_bytes(&mut env1, algo1.driver(), &bytes).expect("bytes restore"),
        );
        let document = decode_session_v3(&bytes).expect("the snapshot decodes");
        let mut algo2 = algorithm_for(kind, ALPHA);
        let mut env2 = sc.build_env();
        let from_document = snapshot(
            &Session::restore(&mut env2, algo2.driver(), &document).expect("document restores"),
        );
        assert!(from_bytes == from_document, "{kind:?}: the two restore paths disagree");
        assert!(from_bytes == bytes, "{kind:?}: a restore does not re-snapshot to its bytes");
    }
}

#[test]
fn resume_immediately_after_start_matches() {
    // k = 1 exercises the checkpoint with warm-up state barely populated.
    for kind in [AlgorithmKind::NetMax, AlgorithmKind::Prague, AlgorithmKind::PsAsync] {
        assert_resume_identical(kind, 1);
    }
}

#[test]
fn resume_of_finished_session_is_the_final_report() {
    let sc = scenario(AlgorithmKind::AdPsgd);
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, ALPHA);
    let mut env = sc.build_env();
    let (full, bytes) = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        let report = session.run();
        (report, snapshot(&session))
    };
    let mut algo2 = algorithm_for(AlgorithmKind::AdPsgd, ALPHA);
    let mut env2 = sc.build_env();
    let mut resumed = Session::restore_bytes(&mut env2, algo2.driver(), &bytes).unwrap();
    assert!(resumed.is_finished());
    let report = resumed.run();
    assert_eq!(report.to_json().to_string(), full.to_json().to_string());
}

#[test]
fn restore_rejects_algorithm_mismatch() {
    let sc = scenario(AlgorithmKind::AdPsgd);
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, ALPHA);
    let mut env = sc.build_env();
    let ckpt = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        for _ in 0..10 {
            session.step();
        }
        session.checkpoint()
    };
    let mut other = algorithm_for(AlgorithmKind::GoSgd, ALPHA);
    let mut env2 = sc.build_env();
    let err = match Session::restore(&mut env2, other.driver(), &ckpt) {
        Err(e) => e,
        Ok(_) => panic!("algorithm mismatch must be rejected"),
    };
    assert!(err.to_string().contains("ad-psgd"), "{err}");
}

#[test]
fn restore_rejects_monitor_state_of_another_fleet_size() {
    // AD-PSGD+Monitor restores the tracker and policy NetMax does, through
    // its own `restore_state`: a tracker sized for three nodes used to
    // restore into this four-node fleet and assert at the next `record`.
    let kind = AlgorithmKind::AdPsgdMonitored;
    let sc = scenario(kind);
    let mut algo = algorithm_for(kind, ALPHA);
    let mut env = sc.build_env();
    let mut ckpt = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        for _ in 0..10 {
            session.step();
        }
        session.checkpoint()
    };
    let mut at = &mut ckpt;
    for key in ["driver", "behavior", "tracker"] {
        let Json::Obj(pairs) = at else { panic!("`{key}` sits in an object") };
        at = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("checkpoint field").1;
    }
    *at = EmaTimeTracker::for_fleet(3, 0.5).checkpoint();
    let mut other = algorithm_for(kind, ALPHA);
    let mut env2 = sc.build_env();
    let err = match Session::restore(&mut env2, other.driver(), &ckpt) {
        Err(e) => e,
        Ok(_) => panic!("a three-node tracker must not restore into a four-node fleet"),
    };
    assert!(err.to_string().contains("tracker is for 3 nodes, environment has 4"), "{err}");
}

#[test]
fn loss_target_stop_condition_ends_the_run_early() {
    let mut sc = scenario(AlgorithmKind::AdPsgd);
    // Stop once the recorded training loss dips under the initial loss —
    // guaranteed mid-run for this convex workload.
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, ALPHA);
    let mut env = sc.build_env();
    let unbounded = algo.run(&mut env);
    let first = unbounded.samples.first().unwrap().train_loss;
    let target = (first + unbounded.final_train_loss) / 2.0;

    sc.cfg_mut().stop = Some(StopCondition::LossBelow(target));
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, ALPHA);
    let mut env = sc.build_env();
    let report = algo.run(&mut env);
    assert!(report.global_steps < unbounded.global_steps, "loss stop must cut the run short");
    assert!(
        report.samples.iter().any(|s| s.train_loss <= target),
        "stopping sample must have crossed the target"
    );
}
