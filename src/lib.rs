//! # netmax
//!
//! Umbrella crate for the Rust reproduction of **NetMax** —
//! *Communication-efficient Decentralized Machine Learning over
//! Heterogeneous Networks* (Zhou et al., ICDE 2021).
//!
//! This crate re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! * [`linalg`] — dense matrices and the symmetric eigensolver behind λ₂.
//! * [`net`] — the discrete-event heterogeneous network simulator.
//! * [`ml`] — models, optimisers, synthetic datasets, and partitioners.
//! * [`core`] — NetMax itself: consensus SGD, the Network Monitor, the
//!   communication-policy generator (with its LP solver), and the
//!   simulation engine.
//! * [`baselines`] — AD-PSGD, Allreduce-SGD, Prague, SAPS-PSGD, and
//!   parameter-server baselines.
//!
//! ## Quickstart
//!
//! This example runs as a doctest on every `cargo test --doc` (a small
//! worker count and `TrainConfig::quick_test`'s 2-epoch budget keep it to
//! well under a second):
//!
//! ```
//! use netmax::prelude::*;
//!
//! // 4 workers, fully connected, heterogeneous dynamic network,
//! // CIFAR10-like synthetic workload, ResNet18 communication profile.
//! // The scenario is pure data (see `WorkloadSpec`): it serializes to
//! // JSON and instantiates its datasets only when an environment is
//! // built.
//! let scenario = ScenarioBuilder::new()
//!     .workers(4)
//!     .network(NetworkKind::HeterogeneousDynamic)
//!     .workload(WorkloadSpec::cifar10_like())
//!     .profile(ModelProfile::resnet18())
//!     .train_config(TrainConfig::quick_test())
//!     .seed(42)
//!     .build();
//!
//! let mut algo = algorithm_for(AlgorithmKind::NetMax, 0.1);
//! let report = scenario.run_with(algo.as_mut());
//! println!("trained for {:.1} simulated seconds", report.wall_clock_s);
//! assert!(report.epochs_completed >= 2.0);
//! assert!(report.final_train_loss.is_finite());
//! ```
//!
//! ## Step-wise sessions
//!
//! `run_with` blocks to completion; the full execution surface is the
//! resumable [`Session`](netmax_core::engine::Session) state machine —
//! observe a run in flight, stop it on a declarative condition, or
//! checkpoint and resume it byte-identically:
//!
//! ```
//! use netmax::prelude::*;
//!
//! let mut scenario = ScenarioBuilder::new()
//!     .workers(4)
//!     .workload(WorkloadSpec::convex_ridge(7))
//!     .train_config(TrainConfig::quick_test())
//!     .seed(42)
//!     .build();
//! // Serializable stop condition: 150 global steps, whichever of it and
//! // the simulated-time safety net comes first.
//! scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(150));
//!
//! let mut algo = algorithm_for(AlgorithmKind::AdPsgd, 0.1);
//! let mut env = scenario.build_env();
//! let mut session = Session::new(&mut env, algo.driver())?;
//! let report = loop {
//!     match session.step() {
//!         StepEvent::Sampled { sample } => assert!(sample.train_loss.is_finite()),
//!         StepEvent::Finished { report } => break report,
//!         _ => {} // GlobalStep / RoundComplete / MonitorRound
//!     }
//! };
//! assert_eq!(report.global_steps, 150);
//!
//! // The checkpoint is one NMXB container; `Session::restore_bytes` into
//! // a fresh session resumes byte-identically (see ARCHITECTURE.md §3).
//! let mut checkpoint = Vec::new();
//! let mut scratch = netmax::core::engine::CheckpointScratch::new();
//! session.checkpoint_binary(&mut scratch, &mut checkpoint)?;
//! assert!(checkpoint.starts_with(b"NMXB"));
//! # Ok::<(), netmax::core::engine::SessionError>(())
//! ```
//!
//! Scale up the same scenario (8+ workers, 48-epoch budgets, the paper's
//! network regimes) with `netmax-bench run <figure>` from `crates/bench`
//! — see the README's figure map.

#![forbid(unsafe_code)]

pub use netmax_baselines as baselines;
pub use netmax_core as core;
pub use netmax_linalg as linalg;
pub use netmax_ml as ml;
pub use netmax_net as net;

/// Convenience re-exports covering the common experiment-driving surface.
pub mod prelude {
    pub use netmax_baselines::{algorithm_for, AdPsgd, AllreduceSgd, ParameterServer, Prague};
    pub use netmax_core::engine::{
        Algorithm, AlgorithmKind, PartitionKind, RunReport, Sample, Scenario, ScenarioBuilder,
        Session, SessionError, StepEvent, StopCondition, TrainConfig,
    };
    pub use netmax_core::netmax::{NetMax, NetMaxConfig};
    pub use netmax_core::policy::{PolicyGenerator, PolicySearchConfig};
    pub use netmax_ml::profile::ModelProfile;
    pub use netmax_ml::workload::{Workload, WorkloadKind, WorkloadSpec};
    pub use netmax_net::{
        FaultPlan, LinkDynamics, LinkFault, LinkFaultKind, MarkovConfig, NetworkKind, NodeFault,
        Straggler,
    };
}
