// A global allocator shim is inherently `unsafe`; it is what lets this
// test measure live heap bytes instead of trusting asymptotic claims.
#![allow(unsafe_code)]

//! Satellite suite: the control plane's *memory* must scale with the
//! edge set, not n². A byte-tracking global allocator measures the
//! live-heap footprint of the edge-map tracker and the peak transient of
//! a full monitor round (LP search + λ₂) on a 256-node torus, and of the
//! monitor rounds inside a monitored AD-PSGD session just past the
//! eigensolver threshold; all must stay far below the 8·n² bytes a single
//! dense `f64` matrix of the historical control plane would occupy.
//!
//! The tests hold [`WINDOW`] while they measure so the parallel test
//! harness cannot interleave foreign allocations into a window.

use netmax_baselines::AdPsgd;
use netmax_bench::experiments::scale;
use netmax_core::engine::{Session, StepEvent};
use netmax_core::monitor::EmaTimeTracker;
use netmax_core::{Algorithm, MonitorConfig, NetworkMonitor, PolicySearchConfig};
use netmax_net::Topology;
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

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the peak watermark to the current live count and returns the
/// baseline, so a subsequent [`peak_above`] reads the window's transient.
fn start_window() -> isize {
    let now = live_bytes();
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn peak_above(baseline: isize) -> isize {
    PEAK.load(Ordering::Relaxed) - baseline
}

#[test]
fn sparse_control_plane_memory_is_edge_bounded_at_n_256() {
    let _window = WINDOW.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 256usize;
    let topo = Topology::torus(16, 16);
    let dense_matrix_bytes = (8 * n * n) as isize; // one n×n f64 matrix

    // --- Steady-state tracker footprint: O(observed pairs). -------------
    let before_tracker = live_bytes();
    let mut tracker = EmaTimeTracker::for_fleet(n, 0.5);
    for i in 0..n {
        for &m in topo.neighbors(i) {
            tracker.record(i, m, 0.25 + 0.05 * ((i * 31 + m * 17) % 9) as f64);
        }
    }
    let tracker_bytes = live_bytes() - before_tracker;
    assert!(
        tracker_bytes > 0,
        "tracker footprint measured as {tracker_bytes} bytes — allocator shim broken?"
    );
    assert!(
        tracker_bytes < dense_matrix_bytes / 4,
        "edge-map tracker holds {tracker_bytes} bytes live; a dense control plane's time \
         matrix alone would be {dense_matrix_bytes}"
    );
    assert_eq!(tracker.coverage(&topo), 1.0, "every directed pair recorded");

    // --- Peak transient of one full monitor round. ----------------------
    // Small search resolution keeps the test fast; peak memory per
    // candidate is what is bounded, and it does not grow with K·R.
    let search = PolicySearchConfig { outer_k: 4, inner_r: 4, ..PolicySearchConfig::new(0.05) };
    let mut monitor = NetworkMonitor::new(MonitorConfig { period_s: 1.0, beta: 0.5, search });
    let active = vec![true; n];
    let baseline = start_window();
    let result = monitor.round(&tracker, &topo, 0.05, &active);
    let round_peak = peak_above(baseline);
    let result = result.expect("full coverage on a connected torus must produce a policy");
    assert_eq!(result.policy.len(), n);
    assert!(
        round_peak > 0,
        "round peak measured as {round_peak} bytes — allocator shim broken?"
    );
    assert!(
        round_peak < dense_matrix_bytes / 2,
        "monitor round peaked at {round_peak} transient bytes; a dense round would \
         allocate multiple {dense_matrix_bytes}-byte matrices"
    );
}

#[test]
fn monitored_adpsgd_rounds_are_edge_bounded_at_n_72() {
    let _window = WINDOW.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // AD-PSGD+Monitor used to build the n×n tracker and run the dense
    // round at every fleet size: on the 8×9 torus — the smallest
    // registry-shaped fleet past the eigensolver threshold — one round
    // peaked at 287 kB, seven n×n matrices (time matrix, policy, Y_P,
    // Jacobi work copy, …). The edge-list round costs about 1 kB per
    // node at degree 4 (LP block template, three policy copies, Y_P,
    // edge times), so at n = 72 it cannot dip under one 41 kB matrix the
    // way it does at n = 256; what it must not do is grow with n².
    let n = 72usize;
    let steps_per_node = 24;
    let params =
        scale::Params { node_counts: vec![n], steps_per_node, repeats: 1, seed: 11 };
    let spec = scale::specs(&params).pop().expect("one spec per node count");
    let workload = spec.scenario.workload();
    let search =
        PolicySearchConfig { outer_k: 4, inner_r: 4, ..PolicySearchConfig::new(workload.optim.lr) };
    let mut algo = AdPsgd::monitored_with(MonitorConfig {
        period_s: scale::monitor_period_for(n, steps_per_node),
        beta: 0.5,
        search,
    });
    let mut env = spec.scenario.build_env_with(workload);
    let dense_matrix_bytes = (8 * n * n) as isize;

    let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
    let mut rounds = 0usize;
    let mut worst_round_peak = 0isize;
    loop {
        let baseline = start_window();
        match session.step() {
            StepEvent::MonitorRound { .. } => {
                rounds += 1;
                worst_round_peak = worst_round_peak.max(peak_above(baseline));
            }
            StepEvent::Finished { .. } => break,
            _ => {}
        }
    }
    drop(session);
    assert!(rounds > 0, "no monitor round fired");
    assert!(algo.policies_applied() > 0, "no monitor round of {rounds} produced a policy");
    assert!(
        worst_round_peak < 2 * dense_matrix_bytes,
        "a monitored AD-PSGD round peaked at {worst_round_peak} transient bytes; one dense \
         n×n matrix is {dense_matrix_bytes} and the dense round used seven"
    );
}
