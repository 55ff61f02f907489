//! # netmax-core
//!
//! The primary contribution of the paper, implemented in full:
//!
//! * [`gossip_matrix`] — construction of the expected gossip matrix
//!   `Y_P = E[(D^k)^T D^k]` from a communication policy (Eq. 19–22) and
//!   the convergence-bound arithmetic of Theorems 1–2.
//! * [`sparse_policy`] — the communication-policy generation of
//!   Algorithm 3 as every session runs it: the nested (ρ, t̄) search over
//!   an edge list, per-row Eq. (14) LPs solved by the crate's private
//!   equality-form simplex, sparse `Y_P` assembly, and λ₂ from
//!   `netmax-linalg` — Jacobi up to
//!   [`sparse_policy::DENSE_CONTROL_THRESHOLD`] nodes, power iteration
//!   above, the control plane's one size-dependent choice.
//! * [`policy`] — the search configuration and generator type, plus the
//!   dense-matrix formulation of the same search, kept as the reference
//!   the equivalence suites compare the edge-list code against.
//! * [`monitor`] — the Network Monitor of Algorithm 1: periodic iteration-
//!   time collection and policy dissemination.
//! * [`netmax`] — the consensus SGD worker algorithm of Algorithm 2: the
//!   two-step update, probabilistic neighbour selection, and EMA
//!   iteration-time tracking.
//! * [`engine`] — the discrete-event training engine that executes NetMax
//!   and the baselines over a simulated network, with full metric
//!   recording (loss/accuracy/consensus/time breakdowns).
//! * [`diagnostics`] — policy audits: predicted speedup over uniform
//!   selection, mixing rate, and the spectral bottleneck cut.
//!
//! The engine follows the paper's own execution model (§IV): worker nodes
//! iterate asynchronously, and at every *global step* exactly one worker
//! completes an iteration. The engine dispatches workers in completion-time
//! order on a virtual clock, so asynchrony, staleness, and heterogeneous
//! link speeds are all captured while runs remain fully deterministic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod engine;
pub mod gossip_matrix;
mod lp;
pub mod monitor;
pub mod netmax;
pub mod policy;
pub mod sparse_policy;

pub use diagnostics::{audit_policy, PolicyAudit};
pub use engine::{
    Algorithm, AlgorithmKind, Environment, ExecutionMode, Recorder, RunReport, Sample, Scenario,
    ScenarioBuilder, TrainConfig,
};
pub use gossip_matrix::{build_y, build_y_sparse, convergence_bound, node_probabilities};
pub use monitor::{MonitorConfig, NetworkMonitor};
pub use netmax::{MergeWeighting, NetMax, NetMaxConfig};
pub use policy::{PolicyGenerator, PolicyResult, PolicySearchConfig};
pub use sparse_policy::{
    solve_policy_lp_rowwise, EdgeTimes, SparsePolicy, SparsePolicyResult,
    DENSE_CONTROL_THRESHOLD,
};
