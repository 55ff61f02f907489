//! The determinism guarantee of the step-wise session API, asserted for
//! every algorithm variant the paper evaluates: *checkpoint at step `k`,
//! restore into a fresh session, run to completion* must produce a
//! [`RunReport`] byte-identical (as serialized JSON) to an uninterrupted
//! run. Checkpoints travel as NMXB bytes — what the CLI writes to disk is
//! what must restore.

use netmax_baselines::{algorithm_for, AdPsgd};
use netmax_core::engine::{
    Algorithm, AlgorithmKind, CheckpointScratch, Scenario, Session, SessionError, StepEvent,
    StopCondition, TrainConfig,
};
use netmax_core::netmax::{NetMax, NetMaxConfig};
use netmax_core::monitor::{EmaTimeTracker, MonitorConfig};
use netmax_json::{codec, Json, ToJson};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{FaultPlan, NetworkKind, NodeFault};

const ALPHA: f64 = 0.05;

/// The paper's monitor, run every `period_s` simulated seconds.
fn monitor_every(period_s: f64) -> MonitorConfig {
    MonitorConfig { period_s, ..MonitorConfig::paper_default(ALPHA) }
}

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

/// Every driver family restores to exactly the state it snapshotted: a
/// restored session's next snapshot is the bytes it was restored from.
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
        assert!(from_bytes == bytes, "{kind:?}: a restore does not re-snapshot to its bytes");
    }
}

/// Resume after *every* event of a small faulted run: gossip steps and
/// monitor rounds (NetMax, AD-PSGD+Monitor), synchronous rounds (Allreduce) and the
/// server's own event queue (PS-async), each through a crash, a rejoin
/// and the recorder's samples. Every snapshot must restore to a session
/// that re-snapshots to the same bytes and finishes with the
/// uninterrupted run's report.
#[test]
fn resume_after_every_event_is_byte_identical() {
    type MakeAlgo = fn() -> Box<dyn Algorithm>;
    let cases: [(&str, MakeAlgo, &[&str]); 5] = [
        (
            "netmax",
            || {
                Box::new(NetMax::new(NetMaxConfig {
                    monitor: Some(monitor_every(1.0)),
                    ..NetMaxConfig::paper_default(ALPHA)
                }))
            },
            &["step", "sampled", "monitor", "down", "up"],
        ),
        (
            // Four rounds a second: node 1's outage spans masked rounds
            // whose inputs repeat, and a round that reuses the last solve
            // is not checkpointed, so resumes land before, between and
            // after reused masked rounds.
            "netmax-reused-masked",
            || {
                Box::new(NetMax::new(NetMaxConfig {
                    monitor: Some(monitor_every(0.25)),
                    ..NetMaxConfig::paper_default(ALPHA)
                }))
            },
            &["step", "sampled", "monitor", "down", "up"],
        ),
        (
            "ad-psgd-monitor",
            || Box::new(AdPsgd::monitored_with(monitor_every(1.0))),
            &["step", "sampled", "monitor", "down", "up"],
        ),
        (
            "allreduce",
            || algorithm_for(AlgorithmKind::AllreduceSgd, ALPHA),
            &["round", "sampled", "down", "up"],
        ),
        (
            "ps-async",
            || algorithm_for(AlgorithmKind::PsAsync, ALPHA),
            &["step", "sampled", "down", "up"],
        ),
    ];
    let sc = Scenario::builder()
        .workers(4)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig {
            seed: 41,
            stop: Some(StopCondition::MaxGlobalSteps(150)),
            ..TrainConfig::quick_test()
        })
        .faults(FaultPlan {
            node_faults: vec![NodeFault { node: 1, crash_s: 1.0, rejoin_s: Some(2.0) }],
            ..FaultPlan::none()
        })
        .build();
    let workload = sc.workload();
    for (name, make, kinds) in cases {
        let full = {
            let mut env = sc.build_env_with(workload.clone());
            let mut algo = make();
            let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
            session.run().to_json().to_string()
        };
        let mut env = sc.build_env_with(workload.clone());
        let mut algo = make();
        let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
        let mut seen = Vec::new();
        for at in 0.. {
            let event = session.step();
            seen.push(match event {
                StepEvent::GlobalStep { .. } => "step",
                StepEvent::RoundComplete { .. } => "round",
                StepEvent::Sampled { .. } => "sampled",
                StepEvent::MonitorRound { .. } => "monitor",
                StepEvent::NodeDown { .. } => "down",
                StepEvent::NodeUp { .. } => "up",
                StepEvent::Finished { .. } => break,
            });
            let bytes = snapshot(&session);
            let mut env2 = sc.build_env_with(workload.clone());
            let mut algo2 = make();
            let mut resumed = Session::restore_bytes(&mut env2, algo2.driver(), &bytes)
                .unwrap_or_else(|e| panic!("{name}: restore after event {at} failed: {e}"));
            assert!(
                snapshot(&resumed) == bytes,
                "{name}: the restore after event {at} ({event:?}) does not re-snapshot to its bytes"
            );
            assert_eq!(
                resumed.run().to_json().to_string(),
                full,
                "{name}: resume after event {at} ({event:?}) diverged"
            );
        }
        for kind in kinds {
            assert!(seen.contains(kind), "{name}: the run never produced a `{kind}` event");
        }
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
    let bytes = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        for _ in 0..10 {
            session.step();
        }
        snapshot(&session)
    };
    let mut other = algorithm_for(AlgorithmKind::SapsPsgd, ALPHA);
    let mut env2 = sc.build_env();
    let err = match Session::restore_bytes(&mut env2, other.driver(), &bytes) {
        Err(e) => e,
        Ok(_) => panic!("algorithm mismatch must be rejected"),
    };
    assert!(err.to_string().contains("ad-psgd"), "{err}");
}

/// An AD-PSGD+Monitor checkpoint after ten events.
fn monitored_adpsgd_checkpoint() -> Vec<u8> {
    let kind = AlgorithmKind::AdPsgdMonitored;
    let mut algo = algorithm_for(kind, ALPHA);
    let mut env = scenario(kind).build_env();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    for _ in 0..10 {
        session.step();
    }
    snapshot(&session)
}

/// `bytes` with the value at `path` in its `meta` section replaced.
fn with_meta_value(bytes: &[u8], path: &[&str], value: Json) -> Vec<u8> {
    let doc = codec::read_document(bytes).unwrap();
    let mut meta = codec::decode_value(doc.require("meta").unwrap()).unwrap();
    let mut at = &mut meta;
    for key in path {
        let Json::Obj(pairs) = at else { panic!("`{key}` sits in an object") };
        at = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("checkpoint field").1;
    }
    *at = value;
    let mut meta_bytes = Vec::new();
    codec::encode_value(&mut meta_bytes, &meta).unwrap();
    let mut out = Vec::new();
    codec::write_document(
        &mut out,
        doc.schema,
        &[("meta", &meta_bytes), ("nodes", doc.require("nodes").unwrap())],
    )
    .unwrap();
    out
}

/// Restores `bytes` into a fresh AD-PSGD+Monitor session.
fn restore_monitored_adpsgd(bytes: &[u8]) -> Result<(), SessionError> {
    let kind = AlgorithmKind::AdPsgdMonitored;
    let mut algo = algorithm_for(kind, ALPHA);
    let mut env = scenario(kind).build_env();
    Session::restore_bytes(&mut env, algo.driver(), bytes).map(|_| ())
}

#[test]
fn restore_rejects_monitor_state_of_another_fleet_size() {
    // AD-PSGD+Monitor restores the tracker and policy NetMax does: a
    // tracker sized for three nodes used to restore into this four-node
    // fleet and assert at the next `record`.
    let foreign = with_meta_value(
        &monitored_adpsgd_checkpoint(),
        &["driver", "steering", "tracker"],
        EmaTimeTracker::for_fleet(3, 0.5).checkpoint(),
    );
    let err = restore_monitored_adpsgd(&foreign)
        .expect_err("a three-node tracker must not restore into a four-node fleet");
    assert!(err.to_string().contains("tracker is for 3 nodes, environment has 4"), "{err}");
}

#[test]
fn restore_rejects_a_monitored_adpsgd_checkpoint_without_its_monitor() {
    // A `null` monitor used to be skipped, so the resumed run counted its
    // monitor rounds from zero again.
    let bytes = monitored_adpsgd_checkpoint();
    restore_monitored_adpsgd(&bytes).expect("the intact checkpoint restores");
    let headless = with_meta_value(&bytes, &["driver", "steering", "monitor"], Json::Null);
    match restore_monitored_adpsgd(&headless) {
        Err(SessionError::BadCheckpoint(msg)) => {
            assert!(msg.contains("missing field `rounds`"), "{msg}")
        }
        other => panic!("expected BadCheckpoint, got {other:?}"),
    }
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
