// A global allocator shim is inherently `unsafe`; this is the one test
// harness in the workspace that needs it.
#![allow(unsafe_code)]

//! Proof that the steady-state training hot path allocates nothing.
//!
//! A counting global allocator tracks every allocation on this thread;
//! after a warm-up phase (buffers sized, pools filled, event-queue
//! capacity reached) a window of pure `GlobalStep` events must perform
//! **zero** heap allocations. Metric samples and monitor rounds are
//! excluded by construction (their cadences are pushed past the window)
//! — monitor rounds are allowed to allocate, bounded per round, not per
//! step. The metric sample has its own proof below: once the first
//! sample has sized the recorder's two shared blocks, a sample allocates
//! nothing but the growth of the sample list.

use netmax_core::engine::{
    CheckpointScratch, Environment, GossipBehavior, GossipDriver, PeerChoice, Sample, Session,
    StepEvent, StopCondition, TrainConfig,
};
use netmax_json::Json;
use netmax_ml::partition::Partition;
use netmax_ml::workload::Workload;
use netmax_net::{ElasticNetwork, LinkQuality, Topology};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Uniform gossip averaging — the AD-PSGD-shaped exercise of the full
/// gossip hot path (sampler, gradient, pull pool, blend, event queue).
struct UniformAveraging;

impl GossipBehavior for UniformAveraging {
    fn select_peer(&mut self, env: &mut Environment, i: usize) -> PeerChoice {
        let degree = env.topology.neighbors(i).len();
        let k = env.node_rng(i).gen_range(0..degree);
        PeerChoice::Peer(env.topology.neighbors(i)[k])
    }

    fn merge(&mut self, env: &mut Environment, i: usize, _m: usize, pulled: &[f32]) {
        netmax_ml::params::blend(0.5, env.nodes[i].model.params_mut(), pulled);
    }
}

fn build_env(workload: Workload) -> Environment {
    // Push sampling far past the measurement window; steps 100..600
    // must be pure GlobalStep events.
    build_env_sampling(workload, u64::MAX / 2)
}

fn build_env_sampling(workload: Workload, record_every_steps: u64) -> Environment {
    let n = 4;
    let partition = Partition::uniform(&workload.train, n, 7);
    let cfg = TrainConfig {
        record_every_steps,
        stop: Some(StopCondition::MaxGlobalSteps(10_000)),
        ..TrainConfig::quick_test()
    };
    Environment::new(
        Topology::fully_connected(n),
        ElasticNetwork::uniform(n, LinkQuality::virtual_switch_10g()),
        workload,
        partition,
        cfg,
    )
}

fn assert_steady_state_alloc_free(workload: Workload, label: &str) {
    let mut env = build_env(workload);
    let mut behavior = UniformAveraging;
    let mut session =
        Session::new(&mut env, Box::new(GossipDriver::new(&mut behavior, "no-alloc"))).unwrap();

    // Warm-up: size every scratch buffer, fill the pull-buffer pool, let
    // the event queue and samplers reach steady capacity (including at
    // least one epoch-boundary reshuffle).
    let mut steps = 0;
    while steps < 100 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }

    let before = alloc_count();
    let mut measured = 0;
    while measured < 500 {
        match session.step() {
            StepEvent::GlobalStep { .. } => measured += 1,
            other => panic!("{label}: unexpected event in steady-state window: {other:?}"),
        }
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "{label}: {allocs} allocation(s) in 500 steady-state global steps"
    );
}

#[test]
fn gossip_steady_state_is_allocation_free_ridge() {
    // LeastSquares: exercises the default `loss_grad_scratch` path.
    assert_steady_state_alloc_free(Workload::convex_ridge(3), "ridge");
}

#[test]
fn gossip_steady_state_is_allocation_free_softmax() {
    // Softmax: exercises the batched forward/softmax kernels.
    assert_steady_state_alloc_free(Workload::resnet18_cifar10(11), "softmax");
}

#[test]
fn gossip_steady_state_is_allocation_free_mlp() {
    // MLP: exercises the hidden-layer scratch buffers.
    assert_steady_state_alloc_free(Workload::mobilenet_cifar100(12), "mlp");
}

/// The sample path in steady state. The first samples size the
/// recorder's loss block, consensus block and averaged replica (the test
/// evaluation runs on records 0, 5, 10, …); after that a window of steps
/// and samples may allocate only where the recorder's sample list grows.
/// That growth is counted exactly by a mirror list fed the same samples
/// from the session's start: equal push sequences grow at equal pushes, so
/// the window must show two allocations per mirror growth and no other.
fn assert_sample_path_alloc_free(workload: Workload, label: &str) {
    let mut env = build_env_sampling(workload, 10);
    let mut behavior = UniformAveraging;
    let mut session =
        Session::new(&mut env, Box::new(GossipDriver::new(&mut behavior, "no-alloc"))).unwrap();
    let mut mirror: Vec<Sample> = Vec::new();

    while mirror.len() < 7 {
        if let StepEvent::Sampled { sample } = session.step() {
            mirror.push(sample);
        }
    }

    let before = alloc_count();
    let mut growths = 0;
    while mirror.len() < 47 {
        match session.step() {
            StepEvent::GlobalStep { .. } => {}
            StepEvent::Sampled { sample } => {
                let capacity = mirror.capacity();
                mirror.push(sample);
                growths += u64::from(mirror.capacity() != capacity);
            }
            other => panic!("{label}: unexpected event in the sampling window: {other:?}"),
        }
    }
    let allocs = alloc_count() - before;
    assert!(growths > 0, "{label}: the window should cross a growth of the sample list");
    assert_eq!(
        allocs,
        2 * growths,
        "{label}: {allocs} allocation(s) across 40 samples, of which the sample list and its \
         mirror account for {}",
        2 * growths
    );
    assert!(session.recorder().pairs_total().evaluated > 0);
}

#[test]
fn sample_path_is_allocation_free_after_the_first_samples_ridge() {
    // LeastSquares: the lane-across-samples dot kernel.
    assert_sample_path_alloc_free(Workload::convex_ridge(3), "ridge");
}

#[test]
fn sample_path_is_allocation_free_after_the_first_samples_softmax() {
    assert_sample_path_alloc_free(Workload::resnet18_cifar10(11), "softmax");
}

#[test]
fn sample_path_is_allocation_free_after_the_first_samples_mlp() {
    // MLP: both layers through the batched kernel, hidden block included.
    assert_sample_path_alloc_free(Workload::mobilenet_cifar100(12), "mlp");
}

/// The checkpoint fast path in steady state: once the scratch buffers are
/// warm, streaming every node's parameters, momentum, sampler, and clock
/// state into a binary snapshot — full or delta — performs **zero** heap
/// allocations, interleaved with live training steps. This is the fix for
/// the old `Session::checkpoint()` behaviour of rebuilding per-node
/// `Json` vectors on every periodic snapshot. (The fleet-size-independent
/// `meta` document is built outside the window here; its cost is bounded
/// per snapshot, not proportional to model or fleet size.)
#[test]
fn binary_checkpoint_cycle_is_allocation_free_in_steady_state() {
    let mut env = build_env(Workload::convex_ridge(3));
    let mut behavior = UniformAveraging;
    let mut session =
        Session::new(&mut env, Box::new(GossipDriver::new(&mut behavior, "no-alloc"))).unwrap();

    // Warm-up: steady-state training buffers plus one full snapshot to
    // size the scratch (per-node blobs, section payloads, output buffer)
    // and seed the delta chain.
    let mut steps = 0;
    while steps < 100 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    let meta = Json::obj([("probe", Json::Str("no-alloc".into()))]);
    let mut scratch = CheckpointScratch::new();
    let mut out = Vec::new();
    scratch.encode_full(&meta, session.env(), &mut out).unwrap();
    // An all-nodes-changed delta is the largest payload either emitter
    // produces (full framing plus a 4-byte index per node); warm the
    // shared payload buffer to that worst case before measuring.
    while steps < 110 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    scratch.encode_delta(&meta, session.env(), &mut out).unwrap();

    let before = alloc_count();
    let mut measured = 0;
    while measured < 200 {
        match session.step() {
            StepEvent::GlobalStep { .. } => measured += 1,
            other => panic!("unexpected event in steady-state window: {other:?}"),
        }
        match measured % 100 {
            // Deltas mid-cycle (every node changed since the chain last
            // advanced), full snapshots at the cycle boundary.
            50 => scratch.encode_delta(&meta, session.env(), &mut out).unwrap(),
            0 => scratch.encode_full(&meta, session.env(), &mut out).unwrap(),
            _ => {}
        }
    }
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocation(s) across 200 steady-state steps with 2 full + 2 delta snapshots"
    );
}
