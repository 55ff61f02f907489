// A global allocator shim is inherently `unsafe`; this is the one test
// harness in this crate that needs it.
#![allow(unsafe_code)]

//! Steady-state allocation-freedom of every baseline driver.
//!
//! Counterpart of `netmax-core`'s `no_alloc` harness: each algorithm's
//! session is warmed up (scratch buffers, pull-buffer pool, event-queue
//! capacity, driver work buffers), then a window of pure step/round
//! events must allocate nothing. Monitor-bearing variants are exercised
//! in uniform (monitor-off) mode — monitor rounds allocate by design,
//! bounded per round, not per step.

use netmax_baselines::{AdPsgd, AllreduceSgd, ParameterServer, Prague, SapsPsgd};
use netmax_core::engine::{Algorithm, Scenario, Session, StepEvent, StopCondition, TrainConfig};
use netmax_core::{NetMax, NetMaxConfig};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;
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

fn scenario() -> Scenario {
    Scenario::builder()
        .workers(4)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig {
            record_every_steps: u64::MAX / 2,
            stop: Some(StopCondition::MaxGlobalSteps(100_000)),
            ..TrainConfig::quick_test()
        })
        .build()
}

/// Warm `warm` counted events, then require `measure` further events to
/// allocate nothing. Steps and rounds both count as one event.
fn assert_driver_alloc_free(algo: &mut dyn Algorithm, warm: usize, measure: usize) {
    let name = algo.name();
    let sc = scenario();
    let mut env = sc.build_env();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut events = 0;
    while events < warm {
        match session.step() {
            StepEvent::GlobalStep { .. } | StepEvent::RoundComplete { .. } => events += 1,
            // The recorder always samples once at global step 1; the
            // cadence is pushed past the window after that.
            StepEvent::Sampled { .. } => {}
            other => panic!("{name}: unexpected warm-up event {other:?}"),
        }
    }
    let before = alloc_count();
    let mut measured = 0;
    while measured < measure {
        match session.step() {
            StepEvent::GlobalStep { .. } | StepEvent::RoundComplete { .. } => measured += 1,
            other => panic!("{name}: unexpected steady-state event {other:?}"),
        }
    }
    let allocs = alloc_count() - before;
    assert_eq!(allocs, 0, "{name}: {allocs} allocation(s) in {measure} steady-state events");
}

#[test]
fn ad_psgd_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut AdPsgd::new(), 100, 400);
}

#[test]
fn saps_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut SapsPsgd::paper_default(), 100, 400);
}

#[test]
fn netmax_uniform_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut NetMax::new(NetMaxConfig::uniform()), 100, 400);
}

#[test]
fn allreduce_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut AllreduceSgd::new(), 20, 100);
}

#[test]
fn ps_sync_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut ParameterServer::synchronous(), 20, 100);
}

#[test]
fn ps_async_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut ParameterServer::asynchronous(), 100, 400);
}

#[test]
fn prague_steady_state_is_allocation_free() {
    assert_driver_alloc_free(&mut Prague::new(2), 20, 100);
}
