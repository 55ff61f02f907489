//! End-to-end integration tests: full NetMax pipeline (consensus SGD +
//! Network Monitor + policy generation) against the baselines over the
//! simulated heterogeneous network.

use netmax::prelude::*;

fn hetero_scenario(epochs: f64, seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .workers(8)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::resnet18_cifar10(7))
        .train_config(TrainConfig {
            max_epochs: epochs,
            record_every_steps: 40,
            seed,
            ..TrainConfig::default()
        })
        .build()
}

#[test]
fn netmax_beats_adpsgd_to_the_loss_target() {
    // The §V-D headline (≈1.9× in the paper, measured at the convergence
    // target on loss-vs-time curves). Use a mid-length run and a target
    // both reached.
    let sc = hetero_scenario(16.0, 7);
    let mut netmax = NetMax::paper_default(0.1);
    let r_netmax = sc.run_with(&mut netmax);
    let mut adpsgd = algorithm_for(AlgorithmKind::AdPsgd, 0.1);
    let r_adpsgd = sc.run_with(adpsgd.as_mut());

    let target = r_netmax.final_train_loss.max(r_adpsgd.final_train_loss) * 1.02 + 1e-4;
    let t_netmax = r_netmax.time_to_loss(target).expect("NetMax reaches target");
    let t_adpsgd = r_adpsgd.time_to_loss(target).expect("AD-PSGD reaches target");
    assert!(
        t_netmax < t_adpsgd,
        "NetMax {t_netmax:.1}s should beat AD-PSGD {t_adpsgd:.1}s to loss {target:.3}"
    );
}

#[test]
fn netmax_beats_collectives_on_wall_clock() {
    let sc = hetero_scenario(8.0, 3);
    let walls: Vec<(AlgorithmKind, f64)> = [
        AlgorithmKind::NetMax,
        AlgorithmKind::AllreduceSgd,
        AlgorithmKind::Prague,
    ]
    .into_iter()
    .map(|kind| {
        let mut algo = algorithm_for(kind, 0.1);
        (kind, sc.run_with(algo.as_mut()).wall_clock_s)
    })
    .collect();
    let netmax = walls[0].1;
    assert!(netmax < walls[1].1, "NetMax {} vs Allreduce {}", netmax, walls[1].1);
    assert!(netmax < walls[2].1, "NetMax {} vs Prague {}", netmax, walls[2].1);
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let sc = hetero_scenario(4.0, 99);
        let mut algo = NetMax::paper_default(0.1);
        sc.run_with(&mut algo)
    };
    let a = run();
    let b = run();
    assert_eq!(a.wall_clock_s, b.wall_clock_s);
    assert_eq!(a.global_steps, b.global_steps);
    assert_eq!(a.final_train_loss, b.final_train_loss);
    assert_eq!(a.final_test_accuracy, b.final_test_accuracy);
    assert_eq!(a.samples.len(), b.samples.len());
}

#[test]
fn all_algorithms_converge_to_similar_accuracy() {
    // Table II's parity claim across the full algorithm roster.
    let sc = hetero_scenario(10.0, 5);
    let mut accs = Vec::new();
    for kind in [
        AlgorithmKind::NetMax,
        AlgorithmKind::AdPsgd,
        AlgorithmKind::AdPsgdMonitored,
        AlgorithmKind::AllreduceSgd,
        AlgorithmKind::Prague,
        AlgorithmKind::PsSync,
        AlgorithmKind::PsAsync,
    ] {
        let mut algo = algorithm_for(kind, 0.1);
        let r = sc.run_with(algo.as_mut());
        assert!(
            r.final_test_accuracy > 0.75,
            "{}: accuracy {} too low",
            kind.label(),
            r.final_test_accuracy
        );
        accs.push((kind.label(), r.final_test_accuracy));
    }
    let lo = accs.iter().map(|(_, a)| *a).fold(f64::INFINITY, f64::min);
    let hi = accs.iter().map(|(_, a)| *a).fold(0.0f64, f64::max);
    assert!(hi - lo < 0.08, "accuracy spread too wide: {accs:?}");
}

#[test]
fn consensus_diameter_contracts_after_transient() {
    // Replicas start near-identical (small random init), spread out while
    // SGD pulls them towards the optimum at different rates, then the
    // gossip terms contract them again (Theorem 1's consensus claim).
    // The check: the final diameter sits well below the mid-run peak.
    let sc = hetero_scenario(8.0, 11);
    for kind in [AlgorithmKind::NetMax, AlgorithmKind::AdPsgd] {
        let mut algo = algorithm_for(kind, 0.1);
        let r = sc.run_with(algo.as_mut());
        let peak = r
            .samples
            .iter()
            .map(|s| s.consensus_diameter)
            .fold(0.0f64, f64::max);
        let last = r.samples.last().unwrap().consensus_diameter;
        assert!(
            last < 0.8 * peak,
            "{}: final diameter {last} did not contract from peak {peak}",
            kind.label()
        );
    }
}

#[test]
fn workers_scale_from_4_to_16() {
    for n in [4usize, 16] {
        let sc = ScenarioBuilder::new()
            .workers(n)
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(WorkloadSpec::resnet18_cifar10(7))
            .max_epochs(2.0)
            .seed(1)
            .build();
        let mut algo = NetMax::paper_default(0.1);
        let r = sc.run_with(&mut algo);
        assert_eq!(r.num_nodes, n);
        assert!(r.epochs_completed >= 2.0);
        assert!(r.final_train_loss.is_finite());
    }
}

#[test]
fn serial_execution_is_never_faster() {
    let mk = |exec| {
        let mut sc = hetero_scenario(4.0, 2);
        sc.cfg_mut().execution = exec;
        let mut algo = NetMax::paper_default(0.1);
        sc.run_with(&mut algo).wall_clock_s
    };
    let parallel = mk(netmax::core::engine::ExecutionMode::Parallel);
    let serial = mk(netmax::core::engine::ExecutionMode::Serial);
    assert!(
        parallel <= serial,
        "overlapping compute/comm cannot be slower: parallel {parallel} vs serial {serial}"
    );
}
