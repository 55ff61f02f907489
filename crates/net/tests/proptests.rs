//! Property-based tests for the network substrate: timing positivity and
//! monotonicity, purity of every network implementation in virtual time
//! (old regimes and the new composable dynamics alike), exact fault-plan
//! JSON round-trips, topology invariants, and event-queue ordering.

use netmax_net::{
    ClusterSpec, ElasticNetwork, EventQueue, FaultPlan, LinkDynamics, LinkFault, LinkFaultKind,
    LinkQuality, MarkovConfig, NodeFault, SlowdownConfig, Straggler, Topology, TraceWindow,
};
use netmax_json::{FromJson, Json, ToJson};
use proptest::prelude::*;

/// Builds one network of every family for an 8-worker fleet: the two
/// static regimes (homogeneous and WAN, never faulted) plus each
/// composable dynamics variant with an optional fault plan layered on.
fn all_networks(seed: u64, faults: FaultPlan) -> Vec<(&'static str, ElasticNetwork)> {
    let spec = || ClusterSpec::paper_default(vec![3, 3, 2]);
    let with = |net: ElasticNetwork| net.with_faults(faults.clone());
    vec![
        (
            "homogeneous",
            ElasticNetwork::uniform(8, LinkQuality::virtual_switch_10g()).with_seed(seed),
        ),
        ("wan", ElasticNetwork::wan((0..8).map(|i| i % 6).collect()).with_seed(seed)),
        (
            "periodic-redraw",
            with(ElasticNetwork::new(spec(), SlowdownConfig::default(), seed)),
        ),
        (
            "static-cluster",
            with(ElasticNetwork::cluster(spec(), LinkDynamics::Static, seed)),
        ),
        (
            "markov",
            with(ElasticNetwork::cluster(
                spec(),
                LinkDynamics::MarkovModulated(MarkovConfig::fast_drift()),
                seed,
            )),
        ),
        (
            "trace",
            with(ElasticNetwork::cluster(
                spec(),
                LinkDynamics::Trace(vec![
                    TraceWindow { a: 0, b: 4, start_s: 100.0, end_s: 900.0, factor: 7.0 },
                    TraceWindow { a: 2, b: 6, start_s: 0.0, end_s: 2500.0, factor: 3.5 },
                ]),
                seed,
            )),
        ),
        (
            "elastic-uniform",
            with(ElasticNetwork::uniform(8, LinkQuality::virtual_switch_10g()).with_seed(seed)),
        ),
    ]
}

/// An arbitrary (valid) fault plan over an 8-worker fleet. Distinct link
/// endpoints come from an offset draw; the optional rejoin from a coin
/// tuple (the offline proptest shim has no `option::of`/`filter_map`).
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let link = ((0usize..8, 1usize..8), (0.0f64..2000.0, 1.0f64..1000.0), (1.0f64..50.0, 0u8..2))
        .prop_map(|((a, delta), (start, len), (factor, outage))| LinkFault {
            a,
            b: (a + delta) % 8,
            start_s: start,
            end_s: start + len,
            kind: if outage == 1 {
                LinkFaultKind::Outage
            } else {
                LinkFaultKind::Degrade(factor)
            },
        });
    let node = (0usize..8, 0.0f64..2000.0, 0u8..2, 1.0f64..1000.0).prop_map(
        |(node, crash_s, rejoin, rejoin_after)| NodeFault {
            node,
            crash_s,
            rejoin_s: (rejoin == 1).then_some(crash_s + rejoin_after),
        },
    );
    let straggler =
        (0usize..8, 1.0f64..32.0).prop_map(|(node, factor)| Straggler { node, factor });
    (
        proptest::collection::vec(link, 0..4),
        proptest::collection::vec(node, 0..3),
        proptest::collection::vec(straggler, 0..3),
    )
        .prop_map(|(link_faults, mut node_faults, stragglers)| {
            // One crash/rejoin schedule per node (the plan's validation
            // rejects overlapping entries).
            let mut seen = [false; 8];
            node_faults.retain(|nf: &NodeFault| !std::mem::replace(&mut seen[nf.node], true));
            FaultPlan { link_faults, node_faults, stragglers }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfer time is positive and increases with message size.
    #[test]
    fn transfer_time_monotone_in_bytes(
        lat in 0.0f64..0.1,
        bw in 1e6f64..1e10,
        a in 1u64..1_000_000,
        b in 1u64..1_000_000,
    ) {
        let l = LinkQuality::new(lat, bw);
        prop_assert!(l.transfer_time(a) > 0.0);
        if a < b {
            prop_assert!(l.transfer_time(a) <= l.transfer_time(b));
        }
    }

    /// Slowdown by factor f multiplies the transfer time by exactly f.
    #[test]
    fn slowdown_scales_linearly(f in 1.0f64..100.0, bytes in 1u64..100_000_000) {
        let l = LinkQuality::gbit_ethernet();
        let ratio = l.slowed(f).transfer_time(bytes) / l.transfer_time(bytes);
        prop_assert!((ratio - f).abs() < 1e-9 * f);
    }

    /// The dynamic heterogeneous network is a pure function of time: the
    /// same query at the same instant always returns the same cost, in
    /// any interleaving.
    #[test]
    fn dynamic_network_is_pure(
        seed in 0u64..1000,
        queries in proptest::collection::vec((0usize..8, 0usize..8, 0.0f64..5000.0), 1..20),
    ) {
        let net = ElasticNetwork::paper_default(8, 3, seed);
        let bytes = 10_000_000;
        let first: Vec<f64> = queries
            .iter()
            .map(|&(i, j, t)| net.comm_time(i, j, bytes, t))
            .collect();
        // Re-query in reverse order — results must be identical.
        let second: Vec<f64> = queries
            .iter()
            .rev()
            .map(|&(i, j, t)| net.comm_time(i, j, bytes, t))
            .collect();
        for (a, b) in first.iter().zip(second.iter().rev()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Slowdown factors stay inside the configured \[2, 100\] band at all
    /// times and for all links.
    #[test]
    fn slowdown_factors_bounded(seed in 0u64..500, t in 0.0f64..100_000.0) {
        let net = ElasticNetwork::paper_default(8, 2, seed);
        let bytes = 46_800_000; // resnet18
        let base_inter = LinkQuality::gbit_ethernet().transfer_time(bytes);
        for i in 0..8usize {
            for j in 0..8usize {
                if i == j { continue; }
                let t_ij = net.comm_time(i, j, bytes, t);
                // Never faster than intra-machine, never slower than
                // 100× the inter-machine base.
                prop_assert!(t_ij > 0.0);
                prop_assert!(t_ij <= base_inter * 100.0 * 1.001, "({i},{j}) {t_ij}");
            }
        }
    }

    /// Homogeneous network: all distinct pairs cost the same at any time.
    #[test]
    fn homogeneous_is_symmetric_and_uniform(t in 0.0f64..10_000.0, bytes in 1u64..1_000_000_000) {
        let net = ElasticNetwork::uniform(6, LinkQuality::virtual_switch_10g());
        let base = net.comm_time(0, 1, bytes, t);
        for i in 0..6usize {
            for j in 0..6usize {
                if i != j {
                    prop_assert_eq!(net.comm_time(i, j, bytes, t), base);
                }
            }
        }
    }

    /// WAN: costs are symmetric and self-communication is free.
    #[test]
    fn wan_symmetric(bytes in 1u64..100_000_000) {
        let net = ElasticNetwork::wan((0..6).collect());
        for i in 0..6usize {
            prop_assert_eq!(net.comm_time(i, i, bytes, 0.0), 0.0);
            for j in 0..6usize {
                let a = net.comm_time(i, j, bytes, 0.0);
                let b = net.comm_time(j, i, bytes, 0.0);
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// Fully-connected topologies are connected with degree M−1; removing
    /// one edge keeps them connected for M ≥ 3.
    #[test]
    fn fully_connected_robust_to_edge_removal(m in 3usize..12, e1 in 0usize..12, e2 in 0usize..12) {
        let mut t = Topology::fully_connected(m);
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.num_edges(), m * (m - 1) / 2);
        let (a, b) = (e1 % m, e2 % m);
        if a != b {
            t.set_edge(a, b, false);
            prop_assert!(t.is_connected(), "removing one edge from K_{m} must keep it connected");
        }
    }

    /// The homogeneous and WAN regimes are the uniform and WAN fabrics
    /// with static links and no faults: whatever the seed, they serve the
    /// `comm_time` bits the dedicated types they replaced served
    /// (recorded from those types before they were deleted).
    #[test]
    fn static_regimes_serve_the_recorded_bits(seed in 0u64..500) {
        // (from, to, bytes, t, homogeneous bits, WAN bits)
        let recorded: [(usize, usize, u64, f64, u64, u64); 4] = [
            (0, 1, 1, 0.0, 0x3f1a36f0a98c3019, 0x3fa1eb856187d58f),
            (3, 7, 44_700_000, 123.456, 0x3fa25c3dee781840, 0x3ff09e60f04c756b),
            (6, 2, 999_999_937, 9_999.5, 0x3fe99a6b35a20621, 0x402d04d5c86f31f0),
            (5, 5, 1_000, 7.0, 0, 0),
        ];
        let nets = all_networks(seed, FaultPlan::none());
        for (from, to, bytes, t, homogeneous, wan) in recorded {
            for (name, bits) in [("homogeneous", homogeneous), ("wan", wan)] {
                let (_, net) = nets.iter().find(|(n, _)| *n == name).unwrap();
                prop_assert_eq!(
                    net.comm_time(from, to, bytes, t).to_bits(), bits,
                    "{} ({}, {}, {} B, t = {})", name, from, to, bytes, t
                );
            }
        }
    }

    /// Every network family — the static regimes and every composable
    /// dynamics variant, with and without a fault plan — is pure in
    /// virtual time: identical `comm_time` and `link` answers regardless
    /// of query order or history.
    #[test]
    fn every_network_impl_is_pure_in_virtual_time(
        seed in 0u64..500,
        faulted in 0u8..2,
        queries in proptest::collection::vec((0usize..8, 0usize..8, 0.0f64..5000.0), 1..16),
    ) {
        let faults = if faulted == 1 {
            FaultPlan {
                link_faults: vec![LinkFault {
                    a: 1, b: 5, start_s: 200.0, end_s: 1500.0,
                    kind: LinkFaultKind::Degrade(9.0),
                }],
                ..FaultPlan::none()
            }
        } else {
            FaultPlan::none()
        };
        let bytes = 10_000_000;
        for (name, net) in all_networks(seed, faults) {
            // First pass in given order; second pass reversed, with extra
            // interleaved probes as "history".
            let first: Vec<(u64, u64, u64)> = queries
                .iter()
                .map(|&(i, j, t)| {
                    let l = net.link(i, j, t);
                    (
                        net.comm_time(i, j, bytes, t).to_bits(),
                        l.latency_s.to_bits(),
                        l.bandwidth_bps.to_bits(),
                    )
                })
                .collect();
            let second: Vec<(u64, u64, u64)> = queries
                .iter()
                .rev()
                .map(|&(i, j, t)| {
                    let _ = net.comm_time(j, i, bytes / 2, t + 17.0);
                    let l = net.link(i, j, t);
                    (
                        net.comm_time(i, j, bytes, t).to_bits(),
                        l.latency_s.to_bits(),
                        l.bandwidth_bps.to_bits(),
                    )
                })
                .collect();
            for (a, b) in first.iter().zip(second.iter().rev()) {
                prop_assert_eq!(a, b, "{} answered differently on re-query", name);
            }
        }
    }

    /// Fault plans round-trip through JSON *exactly* (bit-for-bit on
    /// every f64 — the writer emits shortest-round-trip forms).
    #[test]
    fn fault_plan_json_round_trips_exactly(plan in fault_plan_strategy()) {
        let text = plan.to_json().pretty();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &plan);
        // And through the compact form too.
        let compact = plan.to_json().to_string();
        let back = FaultPlan::from_json(&Json::parse(&compact).unwrap()).unwrap();
        prop_assert_eq!(&back, &plan);
    }

    /// The composed factor pipeline never speeds a link up: with any
    /// dynamics and fault plan, the elastic link is at least as slow as
    /// its base class at every time.
    #[test]
    fn dynamics_and_faults_only_slow_links_down(
        seed in 0u64..200,
        plan in fault_plan_strategy(),
        t in 0.0f64..3000.0,
    ) {
        let spec = ClusterSpec::paper_default(vec![4, 4]);
        let base = ElasticNetwork::cluster(spec.clone(), LinkDynamics::Static, seed);
        let net = ElasticNetwork::cluster(
            spec,
            LinkDynamics::MarkovModulated(MarkovConfig::slow_drift()),
            seed,
        )
        .with_faults(plan);
        let bytes = 1_000_000;
        for i in 0..8usize {
            for j in 0..8usize {
                if i == j { continue; }
                prop_assert!(net.comm_time(i, j, bytes, t) >= base.comm_time(i, j, bytes, t));
            }
        }
    }

    /// Event queue pops in non-decreasing time order with FIFO ties.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last_t = f64::NEG_INFINITY;
        let mut popped = 0;
        let mut last_seq_at_time: Option<(f64, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_t);
            if let Some((lt, lidx)) = last_seq_at_time {
                if lt == t {
                    // FIFO among equal timestamps: insertion index grows.
                    prop_assert!(idx > lidx);
                }
            }
            last_seq_at_time = Some((t, idx));
            last_t = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }
}
