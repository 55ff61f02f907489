//! Failure semantics of every baseline driver under the declarative
//! fault plan: synchronous rounds stall on stragglers and exclude
//! crashed workers, asynchronous drivers drop dead-worker events, Prague
//! re-forms its groups, and checkpoint/resume stays byte-identical
//! through a crash for every driver family.

use netmax_baselines::{AdPsgd, AllreduceSgd, ParameterServer, Prague, SapsPsgd};
use netmax_core::engine::{
    Algorithm, CheckpointScratch, Scenario, Session, StepEvent, TrainConfig,
};
use netmax_json::ToJson;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{FaultPlan, NetworkKind, NodeFault, Straggler};

fn crash_plan(node: usize, crash_s: f64, rejoin_s: Option<f64>) -> FaultPlan {
    FaultPlan {
        node_faults: vec![NodeFault { node, crash_s, rejoin_s }],
        ..FaultPlan::none()
    }
}

fn scenario(seed: u64, workers: usize, faults: FaultPlan) -> Scenario {
    Scenario::builder()
        .workers(workers)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig { seed, max_epochs: 3.0, ..TrainConfig::quick_test() })
        .faults(faults)
        .build()
}

/// Runs to completion and asserts the truthfulness basics every fault
/// run must satisfy: progress happened, the epoch target was reached by
/// the live fleet, and the dead node's accounting is frozen.
fn run_and_check_crash(algo: &mut dyn Algorithm, sc: &Scenario, dead: usize) {
    let mut env = sc.build_env();
    let report = algo.run(&mut env);
    assert!(report.global_steps > 0, "{}: no progress", report.algorithm);
    assert!(
        report.epochs_completed >= sc.cfg().max_epochs,
        "{}: live fleet stopped at {} epochs",
        report.algorithm,
        report.epochs_completed
    );
    let live_min = report
        .per_node
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != dead)
        .map(|(_, n)| n.clock_s)
        .fold(f64::INFINITY, f64::min);
    assert!(
        report.per_node[dead].clock_s < live_min,
        "{}: dead node clock {} does not trail live fleet {}",
        report.algorithm,
        report.per_node[dead].clock_s,
        live_min
    );
    // The dead node computed nothing after the crash: its local steps
    // are far below the live fleet's.
    let live_steps = env
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != dead)
        .map(|(_, n)| n.local_steps)
        .min()
        .unwrap();
    assert!(
        env.nodes[dead].local_steps < live_steps,
        "{}: dead node kept iterating",
        report.algorithm
    );
}

#[test]
fn allreduce_excludes_the_crashed_worker_and_survivors_stay_identical() {
    let sc = scenario(1, 4, crash_plan(2, 0.4, None));
    run_and_check_crash(&mut AllreduceSgd::new(), &sc, 2);

    let mut env = sc.build_env();
    let _ = AllreduceSgd::new().run(&mut env);
    // The surviving replicas remain bit-identical (identical averaged
    // updates every round); the dead replica is frozen and different.
    assert_eq!(env.nodes[0].model.params(), env.nodes[1].model.params());
    assert_eq!(env.nodes[0].model.params(), env.nodes[3].model.params());
    assert_ne!(env.nodes[0].model.params(), env.nodes[2].model.params());
}

#[test]
fn allreduce_rejoin_restores_exact_replica_identity() {
    // The warm start clones the donor's *full* optimiser state (params
    // and momentum): after the rejoin, identical mean gradients through
    // identical velocity keep every live replica bit-identical — the
    // synchronous-SGD invariant survives churn.
    let sc = scenario(10, 4, crash_plan(2, 0.4, Some(1.0)));
    let mut env = sc.build_env();
    let _ = AllreduceSgd::new().run(&mut env);
    for i in 1..4 {
        assert_eq!(
            env.nodes[0].model.params(),
            env.nodes[i].model.params(),
            "replica {i} drifted after the rejoin"
        );
    }
}

#[test]
fn fleet_wide_outage_with_scheduled_rejoins_resumes_training() {
    // Every worker goes down in an overlapping window, then rejoins: the
    // run must idle through the gap and resume at the rejoin times, not
    // silently finish the moment the drivers drain.
    let faults = FaultPlan {
        node_faults: (0..4)
            .map(|node| NodeFault {
                node,
                crash_s: 0.4 + 0.05 * node as f64,
                rejoin_s: Some(2.0 + 0.1 * node as f64),
            })
            .collect(),
        ..FaultPlan::none()
    };
    let sc = scenario(11, 4, faults);
    let mut env = sc.build_env();
    let mut algo = AdPsgd::new();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut ups = 0;
    let report = loop {
        match session.step() {
            StepEvent::NodeUp { .. } => ups += 1,
            StepEvent::Finished { report } => break report,
            _ => {}
        }
    };
    assert_eq!(ups, 4, "every scheduled rejoin must apply");
    assert!(
        report.epochs_completed >= sc.cfg().max_epochs,
        "training must resume after the outage, got {} epochs",
        report.epochs_completed
    );
    assert!(report.wall_clock_s > 2.0, "the clock must advance past the outage gap");
}

#[test]
fn allreduce_round_is_paced_by_the_straggler() {
    let plain = scenario(2, 4, FaultPlan::none());
    let strag = scenario(
        2,
        4,
        FaultPlan { stragglers: vec![Straggler { node: 1, factor: 8.0 }], ..FaultPlan::none() },
    );
    let fast = plain.run_with(&mut AllreduceSgd::new());
    let slow = strag.run_with(&mut AllreduceSgd::new());
    assert!(
        slow.wall_clock_s > 2.0 * fast.wall_clock_s,
        "an 8x straggler must dominate every synchronous round: {} vs {}",
        slow.wall_clock_s,
        fast.wall_clock_s
    );
}

#[test]
fn ps_sync_excludes_the_crashed_worker() {
    let sc = scenario(3, 4, crash_plan(1, 0.4, None));
    run_and_check_crash(&mut ParameterServer::synchronous(), &sc, 1);
}

#[test]
fn ps_async_drops_dead_worker_events() {
    let sc = scenario(4, 4, crash_plan(3, 0.4, None));
    run_and_check_crash(&mut ParameterServer::asynchronous(), &sc, 3);
}

#[test]
fn ps_async_rejoin_pulls_the_global_model() {
    let sc = scenario(5, 4, crash_plan(2, 0.4, Some(1.0)));
    let mut env = sc.build_env();
    let mut algo = ParameterServer::asynchronous();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut rejoined = false;
    loop {
        match session.step() {
            StepEvent::NodeUp { node, .. } => {
                assert_eq!(node, 2);
                rejoined = true;
            }
            StepEvent::GlobalStep { node, .. } if rejoined && node == 2 => {
                // The rejoined worker is back in the schedule.
                break;
            }
            StepEvent::Finished { .. } => panic!("run ended before node 2 re-entered"),
            _ => {}
        }
    }
}

#[test]
fn prague_reforms_groups_around_the_crash() {
    let sc = scenario(6, 8, crash_plan(5, 0.4, None));
    run_and_check_crash(&mut Prague::new(4), &sc, 5);
}

#[test]
fn gossip_family_tolerates_crash_and_rejoin() {
    for (name, algo) in [
        ("ad-psgd", &mut AdPsgd::new() as &mut dyn Algorithm),
        ("saps-psgd", &mut SapsPsgd::new(2, 1.0)),
    ] {
        let sc = scenario(8, 4, crash_plan(1, 0.4, Some(1.2)));
        let mut env = sc.build_env();
        let report = algo.run(&mut env);
        assert!(
            report.epochs_completed >= sc.cfg().max_epochs,
            "{name}: stopped at {} epochs",
            report.epochs_completed
        );
        // The rejoined node resumed iterating after the rejoin.
        assert!(
            env.nodes[1].local_steps > 0 && env.nodes[1].clock > 1.2,
            "{name}: node 1 never resumed (steps {}, clock {})",
            env.nodes[1].local_steps,
            env.nodes[1].clock
        );
    }
}

#[test]
fn faulted_checkpoint_resume_is_byte_identical_for_every_driver_family() {
    // One round driver (allreduce), one event driver (ps-async), one
    // gossip driver (ad-psgd): suspend after the crash, resume, and
    // require the byte-identical report.
    type MakeAlgo = fn() -> Box<dyn Algorithm>;
    let cases: Vec<(&str, MakeAlgo)> = vec![
        ("allreduce", || Box::new(AllreduceSgd::new())),
        ("ps-asyn", || Box::new(ParameterServer::asynchronous())),
        ("ad-psgd", || Box::new(AdPsgd::new())),
    ];
    for (name, make) in cases {
        let sc = scenario(9, 4, crash_plan(2, 0.4, Some(1.2)));
        let full = {
            let mut env = sc.build_env();
            let mut algo = make();
            let mut session = Session::new(&mut env, algo.driver()).unwrap();
            session.run()
        };
        let bytes = {
            let mut env = sc.build_env();
            let mut algo = make();
            let mut session = Session::new(&mut env, algo.driver()).unwrap();
            let mut saw_down = false;
            loop {
                match session.step() {
                    StepEvent::NodeDown { .. } => saw_down = true,
                    StepEvent::GlobalStep { .. } | StepEvent::RoundComplete { .. }
                        if saw_down =>
                    {
                        break;
                    }
                    StepEvent::Finished { .. } => panic!("{name}: finished before crash"),
                    _ => {}
                }
            }
            let mut bytes = Vec::new();
            session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes).unwrap();
            bytes
        };
        let resumed = {
            let mut env = sc.build_env();
            let mut algo = make();
            let mut session = Session::restore_bytes(&mut env, algo.driver(), &bytes)
                .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
            session.run()
        };
        assert_eq!(
            full.to_json().to_string(),
            resumed.to_json().to_string(),
            "{name}: resume through a crash diverged"
        );
    }
}
