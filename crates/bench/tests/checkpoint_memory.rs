// A global allocator shim is inherently `unsafe`; it is what lets this
// test measure live heap bytes instead of trusting asymptotic claims.
#![allow(unsafe_code)]

//! Satellite suite: the checkpoint layer's *transient* memory stays near
//! the size of the snapshot it handles. On the n = 1 024 torus AD-PSGD
//! cell of the periodic-snapshot benchmark (recorder off, one full
//! snapshot then seven deltas 64 steps apart), a byte-tracking global
//! allocator bounds the peak heap growth of
//!
//! * a chain replay below 2× the snapshot it re-emits: the chain state is
//!   views into the input documents and the output is written once, at
//!   its exact size;
//! * a restore from bytes below 1.5× the snapshot: the node blobs are
//!   decoded one at a time, never as one fleet-sized `Json` tree;
//! * a restore whose `nodes` section claims a blob per byte below the
//!   same bound: the impossible count fails before anything is reserved
//!   for it.
//!
//! The tests hold [`WINDOW`] while they measure so the parallel test
//! harness cannot interleave foreign allocations into a window.

use netmax_baselines::algorithm_for;
use netmax_bench::experiments::scale;
use netmax_core::engine::{
    reconstruct_chain, AlgorithmKind, CheckpointScratch, Scenario, Session, StepEvent,
    StopCondition,
};
use netmax_json::codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// Serializes the measuring tests: the allocator's counters are global.
static WINDOW: Mutex<()> = Mutex::new(());

struct ByteTrackingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn bump(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for ByteTrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TRACKER: ByteTrackingAlloc = ByteTrackingAlloc;

/// Resets the peak watermark to the current live count and returns the
/// baseline, so a subsequent [`peak_above`] reads the window's transient.
fn start_window() -> isize {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn peak_above(baseline: isize) -> isize {
    PEAK.load(Ordering::Relaxed) - baseline
}

const NODES: usize = 1024;
const DELTAS: usize = 7;
const STEPS_BETWEEN: u64 = 64;

/// The `scale/ridge/n1024` cell as the periodic-snapshot benchmark runs
/// it: recorder off, and no stop the snapshot loop could reach.
fn snapshot_cell() -> (Scenario, f64) {
    let params =
        scale::Params { node_counts: vec![NODES], steps_per_node: 8, repeats: 1, seed: 11 };
    let spec = scale::specs(&params).pop().expect("one spec per node count");
    let mut scenario = spec.scenario;
    scenario.cfg_mut().record_every_steps = u64::MAX / 2;
    scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(10_000_000));
    let alpha = scenario.workload().optim.lr;
    (scenario, alpha)
}

fn step_to(session: &mut Session<'_>, global_step: u64) {
    while session.env().global_step < global_step {
        if let StepEvent::Finished { .. } = session.step() {
            panic!("the snapshot cell finished at step {}", session.env().global_step);
        }
    }
}

#[test]
fn chain_replay_and_restore_stay_near_the_snapshot_size_at_n_1024() {
    let _window = WINDOW.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (scenario, alpha) = snapshot_cell();

    // One full snapshot, then seven deltas, after about one warm-up step
    // per node.
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, alpha);
    let mut env = scenario.build_env();
    let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
    step_to(&mut session, NODES as u64);
    let mut scratch = CheckpointScratch::new();
    let mut base = Vec::new();
    session.checkpoint_binary(&mut scratch, &mut base).expect("full snapshot");
    let mut deltas = vec![Vec::new(); DELTAS];
    for delta in &mut deltas {
        let until = session.env().global_step + STEPS_BETWEEN;
        step_to(&mut session, until);
        session.checkpoint_delta(&mut scratch, delta).expect("delta snapshot");
    }
    let mut fresh = Vec::new();
    session.checkpoint_binary(&mut CheckpointScratch::new(), &mut fresh).expect("fresh snapshot");
    drop(session);

    let baseline = start_window();
    let rebuilt = reconstruct_chain(&base, &deltas).expect("the chain replays");
    let replay_peak = peak_above(baseline);
    assert!(rebuilt == fresh, "the replayed chain is not the fresh snapshot");
    let snapshot = rebuilt.len() as isize;
    assert!(
        replay_peak < 2 * snapshot,
        "replaying a full snapshot plus {DELTAS} deltas peaked at {replay_peak} transient bytes \
         for a {snapshot}-byte snapshot (bound: 2×)"
    );

    // The restore target is built before the window opens, as a caller
    // holding a fresh environment would have it.
    let mut env = scenario.build_env();
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, alpha);
    let driver = algo.driver();
    let baseline = start_window();
    let restored = Session::restore_bytes(&mut env, driver, &rebuilt);
    let restore_peak = peak_above(baseline);
    let restored = restored.expect("the replayed chain restores");
    assert_eq!(restored.env().global_step, NODES as u64 + DELTAS as u64 * STEPS_BETWEEN);
    drop(restored);
    assert!(
        2 * restore_peak < 3 * snapshot,
        "restoring a {snapshot}-byte snapshot peaked at {restore_peak} transient bytes \
         (bound: 1.5×)"
    );

    // A `nodes` section whose leading count claims one blob per byte.
    let doc = codec::read_document(&rebuilt).expect("the snapshot parses");
    let nodes = doc.require("nodes").expect("the snapshot has a nodes section");
    let start = nodes.as_ptr() as usize - rebuilt.as_ptr() as usize;
    let mut inflated = rebuilt.clone();
    let claimed = (nodes.len() - 4) as u32;
    inflated[start..start + 4].copy_from_slice(&claimed.to_le_bytes());
    let mut env = scenario.build_env();
    let mut algo = algorithm_for(AlgorithmKind::AdPsgd, alpha);
    let driver = algo.driver();
    let baseline = start_window();
    let refused = Session::restore_bytes(&mut env, driver, &inflated);
    let refused_peak = peak_above(baseline);
    assert!(refused.is_err(), "a nodes section claiming {claimed} blobs restored");
    drop(refused);
    assert!(
        2 * refused_peak < 3 * snapshot,
        "refusing a nodes section that claims {claimed} blobs peaked at {refused_peak} transient \
         bytes (bound: 1.5× the {snapshot}-byte snapshot)"
    );
}
