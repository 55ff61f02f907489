//! Property-based tests for the NetMax core: policy feasibility over
//! random heterogeneous time matrices, Y_P structure for random feasible
//! policies, EMA tracker behaviour, and the session checkpoint/resume
//! determinism guarantee over random scenarios.

use netmax_core::engine::{
    reconstruct_chain, Algorithm, CheckpointScratch,
    Scenario, Session, StepEvent, TrainConfig,
};
use netmax_core::gossip_matrix::{build_y, node_probabilities};
use netmax_core::monitor::{EmaTimeTracker, MonitorConfig};
use netmax_core::netmax::{NetMax, NetMaxConfig};
use netmax_core::policy::{PolicyGenerator, PolicySearchConfig};
use netmax_json::{codec, ToJson};
use netmax_linalg::{
    is_doubly_stochastic, is_irreducible, is_nonnegative, is_symmetric,
    second_largest_eigenvalue, Matrix,
};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{NetworkKind, Topology};
use proptest::prelude::*;

/// Strategy: a random symmetric iteration-time matrix over `m` nodes with
/// entries in [0.05, 5.0].
fn time_matrix(m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.05f64..5.0, m * (m - 1) / 2).prop_map(move |vals| {
        let mut t = Matrix::zeros(m, m);
        let mut it = vals.into_iter();
        for i in 0..m {
            for j in (i + 1)..m {
                let v = it.next().unwrap();
                t[(i, j)] = v;
                t[(j, i)] = v;
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For *any* heterogeneous time matrix, the generated policy (when one
    /// exists) is row-stochastic, respects the Eq. 11 floors, equalises
    /// row expected times (Eq. 10), and yields a doubly stochastic,
    /// irreducible Y_P with λ₂ < 1 — the full Theorem-3 pipeline.
    #[test]
    fn generated_policy_always_feasible(times in time_matrix(5)) {
        let m = 5;
        let topo = Topology::fully_connected(m);
        let alpha = 0.1;
        let gen = PolicyGenerator::new(PolicySearchConfig::new(alpha));
        let Some(res) = gen.generate(&times, &topo) else {
            // Legitimate for extreme matrices; nothing further to check.
            return Ok(());
        };
        let p = &res.policy;

        // Row stochasticity + floors.
        for i in 0..m {
            prop_assert!((p.row_sum(i) - 1.0).abs() < 1e-7);
            for j in 0..m {
                if i != j {
                    prop_assert!(
                        p[(i, j)] >= 2.0 * alpha * res.rho - 1e-7,
                        "floor violated at ({i},{j}): {} < {}",
                        p[(i, j)], 2.0 * alpha * res.rho
                    );
                }
            }
        }

        // Eq. 10: equal expected row times.
        let row_time = |i: usize| -> f64 {
            (0..m).filter(|&j| j != i).map(|j| times[(i, j)] * p[(i, j)]).sum()
        };
        let t0 = row_time(0);
        for i in 1..m {
            prop_assert!((row_time(i) - t0).abs() < 1e-5, "row {i} time {} vs {t0}", row_time(i));
        }

        // Y_P structure.
        let p_node = vec![1.0 / m as f64; m];
        let y = build_y(p, &topo, &p_node, alpha, res.rho);
        prop_assert!(is_symmetric(&y, 1e-8));
        prop_assert!(is_nonnegative(&y, 1e-9));
        prop_assert!(is_doubly_stochastic(&y, 1e-6));
        prop_assert!(is_irreducible(&y, 1e-12));
        let l2 = second_largest_eigenvalue(&y);
        prop_assert!(l2 < 1.0 && l2 > 0.0);
        prop_assert!((l2 - res.lambda2).abs() < 1e-9);
    }

    /// Node firing probabilities (Eq. 3) always form a distribution and
    /// are uniform exactly when row expected times are equal.
    #[test]
    fn node_probabilities_form_distribution(times in time_matrix(4)) {
        let m = 4;
        let topo = Topology::fully_connected(m);
        // Uniform policy over neighbours.
        let mut p = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    p[(i, j)] = 1.0 / (m as f64 - 1.0);
                }
            }
        }
        let probs = node_probabilities(&times, &p, &topo);
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|&x| x > 0.0));
    }

    /// The EMA tracker's estimate always lies within the min/max of the
    /// observations it has seen (a convex-combination invariant).
    #[test]
    fn ema_stays_within_observed_range(
        beta in 0.0f64..0.99,
        obs in proptest::collection::vec(0.01f64..100.0, 1..30),
    ) {
        let mut t = EmaTimeTracker::for_fleet(2, beta);
        for &o in &obs {
            t.record(0, 1, o);
        }
        let est = t.get(0, 1).unwrap();
        let lo = obs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = obs.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "{est} outside [{lo}, {hi}]");
    }

    /// With β = 0 the tracker reports exactly the latest observation.
    #[test]
    fn beta_zero_tracks_latest(obs in proptest::collection::vec(0.01f64..100.0, 1..20)) {
        let mut t = EmaTimeTracker::for_fleet(2, 0.0);
        for &o in &obs {
            t.record(0, 1, o);
        }
        prop_assert!((t.get(0, 1).unwrap() - obs.last().unwrap()).abs() < 1e-12);
    }
}

/// A small random scenario: 2–5 workers, random seed and network regime.
fn small_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..6, 0u64..1000, 0usize..3).prop_map(|(workers, seed, net)| {
        let network = match net {
            0 => NetworkKind::Homogeneous,
            1 => NetworkKind::HeterogeneousStatic,
            _ => NetworkKind::HeterogeneousDynamic,
        };
        Scenario::builder()
            .workers(workers)
            .network(network)
            .workload(WorkloadSpec::convex_ridge(seed % 17))
            .train_config(TrainConfig { seed, max_epochs: 1.5, ..TrainConfig::quick_test() })
            .build()
    })
}

/// NetMax with a monitor period short enough to fire within the tiny runs,
/// so checkpoints capture mid-run policy/tracker state too.
fn netmax_algo() -> NetMax {
    NetMax::new(NetMaxConfig {
        monitor: Some(MonitorConfig { period_s: 2.0, ..MonitorConfig::paper_default(0.05) }),
        ..NetMaxConfig::paper_default(0.05)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The checkpoint round-trip guarantee over random scenarios:
    /// `Session::restore_bytes(checkpoint-at-step-k)` resumes to a
    /// `RunReport` byte-identical to the uninterrupted run, for arbitrary k.
    #[test]
    fn checkpoint_round_trip_resumes_byte_identically(
        sc in small_scenario(),
        k in 0u64..200,
    ) {
        // Uninterrupted reference run.
        let mut algo = netmax_algo();
        let mut env = sc.build_env();
        let full = {
            let mut session = Session::new(&mut env, algo.driver()).unwrap();
            session.run()
        };

        // Interrupted: step to >= k global steps (or completion),
        // checkpoint through the serialized form, restore, finish.
        let mut algo1 = netmax_algo();
        let mut env1 = sc.build_env();
        let bytes = {
            let mut session = Session::new(&mut env1, algo1.driver()).unwrap();
            while session.env().global_step < k {
                if let StepEvent::Finished { .. } = session.step() {
                    break;
                }
            }
            let mut bytes = Vec::new();
            session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes).unwrap();
            bytes
        };

        let mut algo2 = netmax_algo();
        let mut env2 = sc.build_env();
        let mut resumed = Session::restore_bytes(&mut env2, algo2.driver(), &bytes).unwrap();
        let report = resumed.run();
        prop_assert_eq!(
            report.to_json().to_string(),
            full.to_json().to_string(),
            "resume at k={} diverged for {:?}", k, sc
        );
    }

    /// A restore leaves exactly the state that was snapshotted: the
    /// restored session's next snapshot is the bytes it was restored from.
    #[test]
    fn restore_bytes_equals_restoring_the_decoded_document(
        sc in small_scenario(),
        k in 0u64..200,
    ) {
        let mut algo = netmax_algo();
        let mut env = sc.build_env();
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        while session.env().global_step < k {
            if let StepEvent::Finished { .. } = session.step() {
                break;
            }
        }
        let mut bytes = Vec::new();
        session.checkpoint_binary(&mut CheckpointScratch::new(), &mut bytes).unwrap();

        let mut from_bytes = Vec::new();
        let mut algo1 = netmax_algo();
        let mut env1 = sc.build_env();
        Session::restore_bytes(&mut env1, algo1.driver(), &bytes)
            .unwrap()
            .checkpoint_binary(&mut CheckpointScratch::new(), &mut from_bytes)
            .unwrap();
        prop_assert_eq!(&from_bytes, &bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The binary checkpoint guarantees, over random scenarios and
    /// suspend points:
    /// 1. a base + delta chain reconstructs **bit-identically** to a
    ///    fresh full snapshot taken at the chain's end; a delta taken `g`
    ///    gossip steps after the previous snapshot re-serializes between
    ///    1 and `g` nodes, and is smaller than a full snapshot of the
    ///    same state whenever it leaves a node out, and
    /// 2. restoring from the reconstructed bytes resumes to a report
    ///    byte-identical to the uninterrupted run.
    #[test]
    fn binary_checkpoints_and_delta_chains_are_bit_exact(
        sc in small_scenario(),
        k in 0u64..120,
    ) {
        let mut algo = netmax_algo();
        let mut env = sc.build_env();
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        while session.env().global_step < k {
            if let StepEvent::Finished { .. } = session.step() {
                break;
            }
        }

        let mut scratch = CheckpointScratch::new();
        let mut base = Vec::new();
        session.checkpoint_binary(&mut scratch, &mut base).unwrap();

        // (1) run on, emitting a delta every few steps; the replayed
        // chain must equal a fresh full snapshot bit-for-bit.
        let mut deltas = Vec::new();
        let mut fresh = Vec::new();
        let mut done = false;
        for _ in 0..3 {
            let mut gossip_steps = 0usize;
            for _ in 0..7 {
                if done {
                    break;
                }
                match session.step() {
                    StepEvent::GlobalStep { .. } => gossip_steps += 1,
                    StepEvent::Finished { .. } => done = true,
                    _ => {}
                }
            }
            let mut d = Vec::new();
            session.checkpoint_delta(&mut scratch, &mut d).unwrap();
            session.checkpoint_binary(&mut CheckpointScratch::new(), &mut fresh).unwrap();
            // The changed-node count is the leading u32 of the delta's
            // `nodes` section: a gossip step rewrites one node (the
            // puller), so `g` steps touch between 1 and `g` of them.
            let doc = codec::read_document(&d).unwrap();
            let head: [u8; 4] = doc.section("nodes").unwrap()[..4].try_into().unwrap();
            let changed = u32::from_le_bytes(head) as usize;
            prop_assert!(changed <= gossip_steps, "{} nodes after {} steps", changed, gossip_steps);
            prop_assert_eq!(changed == 0, gossip_steps == 0);
            if changed < sc.workers() {
                prop_assert!(d.len() < fresh.len(), "delta {} !< full {}", d.len(), fresh.len());
            }
            deltas.push(d);
        }
        let rebuilt = reconstruct_chain(&base, &deltas).unwrap();
        prop_assert_eq!(&rebuilt, &fresh);

        // (2) the reconstructed bytes restore and finish identically to
        // the uninterrupted run.
        let full_report = session.run();
        let mut algo2 = netmax_algo();
        let mut env2 = sc.build_env();
        let mut resumed = Session::restore_bytes(&mut env2, algo2.driver(), &rebuilt).unwrap();
        prop_assert_eq!(
            resumed.run().to_json().to_string(),
            full_report.to_json().to_string()
        );
    }
}
