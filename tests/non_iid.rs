//! Integration tests for the non-IID / non-uniform regimes (§V-F): data
//! partitioning, label propagation through gossip, and batch scaling.

use netmax::ml::partition::Partition;
use netmax::prelude::*;

#[test]
fn gossip_recovers_labels_a_single_worker_never_sees() {
    // Table IV: worker 0 has no examples of digits 0, 1, 2. After
    // decentralized training, the *consensus* model must still classify
    // those digits well above chance — the information can only have
    // arrived through gossip. This exercises partitioning, the engine,
    // merging, and metrics together.
    let workload = WorkloadSpec::mobilenet_mnist(5);
    let test = workload.instantiate().test.clone();
    let sc = ScenarioBuilder::new()
        .workers(8)
        .servers(2)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(workload)
        .partition(PartitionKind::PaperTable4)
        .max_epochs(8.0)
        .seed(5)
        .build();

    let mut env = sc.build_env();
    let mut algo = NetMax::paper_default(0.01);
    use netmax::core::engine::Algorithm;
    let _report = algo.run(&mut env);

    // Evaluate worker 0's own replica on ONLY the labels it never saw.
    let lost: Vec<u32> = vec![0, 1, 2];
    let lost_idx: Vec<usize> = (0..test.len())
        .filter(|&i| lost.contains(&test.label(i)))
        .collect();
    assert!(!lost_idx.is_empty());
    let model = &env.nodes[0].model;
    let correct = lost_idx
        .iter()
        .filter(|&&i| model.predict(test.feature(i)) == test.label(i))
        .count();
    let acc = correct as f64 / lost_idx.len() as f64;
    assert!(
        acc > 0.5,
        "worker 0 classifies its never-seen labels at {acc:.2} — gossip failed to propagate"
    );
}

#[test]
fn segmented_batches_scale_with_data_share() {
    // §V-F: "The batch size of each worker node is set to 64 × the
    // segment number" — verify through the environment.
    let workload = WorkloadSpec::resnet18_cifar100(1);
    let sc = ScenarioBuilder::new()
        .workers(8)
        .servers(2)
        .workload(workload)
        .partition(PartitionKind::Paper8Segments)
        .max_epochs(1.0)
        .seed(1)
        .build();
    let env = sc.build_env();
    // Nodes 4 and 6 hold two segments: double batch and double shard.
    let b = |i: usize| env.nodes[i].sampler.batch_size();
    assert_eq!(b(4), 2 * b(0));
    assert_eq!(b(6), 2 * b(1));
    let shard = |i: usize| env.nodes[i].sampler.shard_len() as f64;
    let ratio = shard(4) / shard(0);
    assert!((ratio - 2.0).abs() < 0.2, "shard ratio {ratio}");
}

#[test]
fn noniid_accuracy_does_not_beat_iid() {
    // Table V reports MNIST non-IID at ~93% vs the usual ~99% IID. On the
    // synthetic mixture the gossip fully recovers the removed labels (the
    // problem is linearly separable), so the *magnitude* of the gap does
    // not reproduce — documented in EXPERIMENTS.md. The invariant that
    // must hold: removing labels can't help, and accuracy stays high
    // (i.e. gossip did its job).
    let run = |partition: PartitionKind| {
        let sc = ScenarioBuilder::new()
            .workers(8)
            .servers(2)
            .network(NetworkKind::HeterogeneousDynamic)
            .workload(WorkloadSpec::mobilenet_mnist(5))
            .partition(partition)
            .max_epochs(6.0)
            .seed(5)
            .build();
        let mut algo = algorithm_for(AlgorithmKind::NetMax, 0.01);
        sc.run_with(algo.as_mut()).final_test_accuracy
    };
    let iid = run(PartitionKind::Uniform);
    let noniid = run(PartitionKind::PaperTable4);
    assert!(iid >= noniid - 0.005, "non-IID {noniid:.3} should not beat IID {iid:.3}");
    assert!(noniid > 0.90, "non-IID accuracy collapsed: {noniid:.3}");
}

#[test]
fn table7_partition_covers_six_regions_with_all_labels() {
    let workload = Workload::mobilenet_mnist(2);
    let part = Partition::paper_table7(&workload.train);
    assert_eq!(part.num_nodes(), 6);
    let mut covered = [false; 10];
    for node in 0..6 {
        for &i in part.node(node) {
            covered[workload.train.label(i) as usize] = true;
        }
    }
    assert!(covered.iter().all(|&c| c), "a label is lost from every region");
}

#[test]
fn wan_cross_cloud_training_runs() {
    let sc = ScenarioBuilder::new()
        .workers(6)
        .network(NetworkKind::Wan)
        .workload(WorkloadSpec::googlenet_mnist(3))
        .partition(PartitionKind::PaperTable7)
        .max_epochs(3.0)
        .seed(3)
        .build();
    let mut algo = NetMax::paper_default(0.01);
    let r = sc.run_with(&mut algo);
    assert!(r.epochs_completed >= 3.0);
    assert!(r.final_test_accuracy > 0.6, "WAN run accuracy {}", r.final_test_accuracy);
    // WAN latencies are high: communication must dominate compute.
    let (comm, comp) =
        r.per_node.iter().fold((0.0, 0.0), |(comm, comp), n| (comm + n.comm_s, comp + n.comp_s));
    assert!(comm > comp, "comm {comm} s vs comp {comp} s");
}
