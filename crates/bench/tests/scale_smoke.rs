//! Satellite suite: every `scale/*` registry entry must actually build
//! its Environment at the declared fleet size — topology, network,
//! partition, and models materialised, not just a spec that parses. The
//! full sweep sizes (up to 4 096 workers) are exercised here so a
//! mis-factored torus or an empty shard fails in tests, not mid-sweep.

use netmax_bench::experiments::scale;
use netmax_bench::runner::{self, RunOptions};
use netmax_bench::{registry, Mode};
use netmax_core::engine::AlgorithmKind;

#[test]
fn every_full_sweep_entry_builds_its_environment_at_declared_n() {
    let p = scale::Params::full();
    assert_eq!(p.node_counts, vec![32, 128, 512, 1024, 4096]);
    for (spec, &n) in scale::specs(&p).iter().zip(&p.node_counts) {
        let env = spec.scenario.build_env();
        assert_eq!(env.num_nodes(), n, "{}", spec.name);
        assert!(env.topology.is_connected(), "{}", spec.name);
        // A balanced torus is 4-regular with exactly 2n undirected edges.
        assert_eq!(env.topology.num_edges(), 2 * n, "{}", spec.name);
        for i in 0..n {
            assert_eq!(env.topology.degree(i), 4, "{}: node {i}", spec.name);
            assert!(!env.nodes[i].sampler.indices().is_empty(), "{}: empty shard", spec.name);
        }
    }
}

#[test]
fn registry_exposes_the_scale_group_at_every_mode() {
    // Tiny is the CI smoke scale: the 256-node fleet must be registered
    // there (it is what `netmax-bench run scale --tiny` executes), while
    // the full registry carries the 1 024- and 4 096-node fleets.
    let tiny: Vec<String> = registry(Mode::Tiny)
        .into_iter()
        .filter(|s| s.group == "scale")
        .map(|s| s.name)
        .collect();
    assert_eq!(tiny, vec!["scale/ridge/n32", "scale/ridge/n256"]);
    let full: Vec<String> = registry(Mode::Full)
        .into_iter()
        .filter(|s| s.group == "scale")
        .map(|s| s.name)
        .collect();
    assert!(full.contains(&"scale/ridge/n1024".to_string()));
    assert!(full.contains(&"scale/ridge/n4096".to_string()));
}

#[test]
fn scale_arms_override_the_monitor_period() {
    // The default 30 s Ts would never fire inside a step-budgeted scale
    // run; every registered scale arm must carry the compressed per-n
    // period.
    for spec in registry(Mode::Tiny).into_iter().filter(|s| s.group == "scale") {
        for arm in &spec.arms {
            let period = arm.monitor_period_s.expect("scale arms must override Ts");
            assert!(period > 0.0 && period < 30.0, "{}: Ts = {period}", spec.name);
        }
    }
}

/// The acceptance scale point: binary suspend → resume at n = 1024 is
/// byte-identical to the uninterrupted run, through the same
/// `scale/*` spec the sweep uses (budget shortened, gossip arm only).
#[test]
fn scale_point_binary_suspend_resume_is_byte_identical_at_n_1024() {
    let p = scale::Params {
        node_counts: vec![1024],
        steps_per_node: 2,
        repeats: 1,
        seed: 11,
    };
    let mut spec = scale::specs(&p).remove(0);
    spec.arms.retain(|a| a.algorithm == AlgorithmKind::AdPsgd);
    assert_eq!(spec.arms.len(), 1);

    let direct =
        runner::try_execute(&spec, &RunOptions { threads: 2, ..Default::default() }).unwrap();
    let suspended = runner::execute_suspended(&spec, 2, 512).unwrap();
    let bytes = runner::checkpoint_bytes(&suspended).unwrap();
    let parsed = runner::parse_checkpoint_bytes(&bytes).unwrap();
    let resumed =
        runner::resume(&parsed, &RunOptions { threads: 2, ..Default::default() }).unwrap();

    let (a, b) = (runner::artifact(&[direct]), runner::artifact(&[resumed]));
    assert_eq!(
        a.to_string(),
        b.to_string(),
        "n=1024 binary suspend + resume must reproduce the uninterrupted artifact"
    );
}
