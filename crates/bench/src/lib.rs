//! # netmax-bench
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation (§V and Appendices F–G), plus the ablations DESIGN.md calls
//! out. Each experiment exposes
//!
//! * `Params` with `full()` / `quick()` / `tiny()` presets,
//! * `run(&Params) -> …` returning structured results, and
//! * a `print` helper producing the same rows/series the paper reports.
//!
//! Binaries in `src/bin/` (one per figure/table) call `run` with the mode
//! selected by `NETMAX_MODE` (`full` default, `quick`, `tiny`) or the
//! `--quick` / `--tiny` flags, print the rows, and write CSV under
//! `results/`. Criterion benches in `benches/` execute the `tiny` presets.
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

pub mod checkpoint_bench;
pub mod common;
pub mod experiments;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod throughput;

pub use common::{ExpCtx, Mode, LINK_CHANGE_PERIOD_S, MONITOR_PERIOD_S};
pub use registry::{registry, registry_json};
pub use runner::{
    checkpoint_bytes, execute, execute_suspended, execute_with_threads, parse_checkpoint_bytes, resume,
    try_execute, CellProgress, CellResult, ExperimentResult, RunOptions, SuspendedCell,
    SuspendedExperiment,
};
pub use spec::{Arm, ExperimentSpec, MetricKind};
