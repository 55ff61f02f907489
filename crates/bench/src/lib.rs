//! # netmax-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§V and Appendices F–G), plus the ablations, the fault
//! suite, the fleet-scale sweep and the numerics-tier equivalence gates.
//! Each experiment module exposes `specs(Mode)`: its declarative
//! [`ExperimentSpec`]s at that scale, collected by the
//! [`registry`](mod@registry). `fig03` has no scale, and `scale` takes a
//! `scale::Params`, the one preset whose callers choose other values. A
//! module's paper-claim tests execute its specs through the [`runner`]
//! and assert on the [`ExperimentResult`] the run artifact publishes.
//!
//! The `netmax-bench` binary is the only executable: `run` executes
//! registry entries through the [`runner`] and writes the versioned run
//! artifact, and `sanity` and `scale` write the committed `BENCH_*.json`
//! documents. The experiment scale ([`Mode`]) comes from its `--quick` /
//! `--tiny` flags. Real time per layer is the business of `benchmark/`
//! (see `BENCHMARK.json`), not of this crate.
//!
//! ## Timescale compression
//!
//! The synthetic workloads complete an epoch in a few simulated seconds
//! versus the paper's ~1–2 minutes, so the two time constants of the
//! dynamic regime are compressed by the same factor while preserving
//! their ratio and ordering: the slow link is re-drawn every 120 s
//! (paper: 300 s) and the Network Monitor runs every 30 s (paper: 120 s).
//! `Ts < change period` still holds, so the monitor can track the network
//! exactly as in §III-A.

#![forbid(unsafe_code)]

pub mod common;
pub mod experiments;
pub mod registry;
pub mod runner;
pub mod spec;

pub use common::{Mode, LINK_CHANGE_PERIOD_S, MONITOR_PERIOD_S};
pub use registry::{registry, registry_json};
pub use runner::{
    checkpoint_bytes, execute_suspended, parse_checkpoint_bytes, resume, try_execute, CellProgress,
    CellResult, ExperimentResult, RunOptions, SuspendedCell, SuspendedExperiment,
};
pub use spec::{Arm, ExperimentSpec, MetricKind};
