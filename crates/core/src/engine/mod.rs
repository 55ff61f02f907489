//! The discrete-event distributed-training engine.
//!
//! The engine executes a training algorithm over a simulated heterogeneous
//! network following the paper's global-step model (§IV): worker nodes own
//! private virtual clocks, and the engine dispatches whichever worker
//! completes its iteration first. One dispatch = one global step `k`.
//!
//! Layout:
//! * [`checkpoint`] — the serialized checkpoint form: NMXB snapshot
//!   containers and incremental deltas ([`CheckpointScratch`]).
//! * [`config`] — run-level knobs ([`TrainConfig`], [`ExecutionMode`]).
//! * [`environment`] — per-node state and the shared [`Environment`]
//!   (models, shards, network, clocks).
//! * [`recorder`] — metric sampling and the final [`RunReport`].
//! * [`session`] — the step-wise execution surface: [`Session`],
//!   [`SessionDriver`], [`StepEvent`], checkpoint/resume.
//! * [`stop`] — serializable [`StopCondition`] expressions.
//! * [`gossip`] — the asynchronous gossip driver shared by NetMax,
//!   AD-PSGD, and SAPS-PSGD ([`GossipBehavior`]).
//! * [`scenario`] — declarative experiment construction
//!   ([`ScenarioBuilder`]).

pub mod checkpoint;
pub mod config;
pub mod environment;
pub mod gossip;
pub mod recorder;
pub mod scenario;
pub mod session;
pub mod stop;

pub use checkpoint::{
    decode_session_v3, reconstruct_chain, CheckpointFormat, CheckpointScratch,
    SESSION_CHECKPOINT_SCHEMA_V3, SESSION_DELTA_SCHEMA,
};
pub use config::{ExecutionMode, TrainConfig};
pub use environment::{Environment, NodeState};
pub use gossip::{
    check_node_index, purge_events, queue_from_json, queue_to_json, GossipBehavior, GossipDriver,
    PeerChoice,
};
pub use recorder::{reference_sample, PairCount, Recorder, RunReport, Sample};
pub use scenario::{PartitionKind, Scenario, ScenarioBuilder, TopologyKind};
pub use session::{
    DriverEvent, Session, SessionDriver, SessionError, StepEvent, SESSION_CHECKPOINT_SCHEMA,
};
pub use stop::StopCondition;

use netmax_json::{FromJson, Json, JsonError, ToJson};

/// A distributed training algorithm executable by the engine.
///
/// The execution surface is the step-wise [`Session`]: an algorithm's job
/// is to provide a [`SessionDriver`] via [`Algorithm::driver`], and
/// [`Algorithm::run`] is a one-line blocking convenience over it.
pub trait Algorithm {
    /// Short identifier used in reports and figures ("netmax", "ad-psgd" …).
    fn name(&self) -> &'static str;

    /// Wraps this algorithm in a [`SessionDriver`] (borrowing `self` for
    /// the duration of the session).
    fn driver(&mut self) -> Box<dyn SessionDriver + '_>;

    /// Runs to completion (per the environment's
    /// [`TrainConfig::effective_stop`]) and returns the recorded metrics.
    ///
    /// # Panics
    /// Panics if the configuration fails session validation; use
    /// [`Session::new`] directly for a typed error.
    fn run(&mut self, env: &mut Environment) -> RunReport {
        let driver = self.driver();
        let mut session =
            Session::new(env, driver).unwrap_or_else(|e| panic!("invalid session: {e}"));
        session.run()
    }
}

/// The algorithms evaluated in the paper, for declarative selection in
/// harnesses and configs. Constructors live in `netmax-core` (NetMax) and
/// `netmax-baselines` (everything else — see
/// `netmax_baselines::algorithm_for`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// The paper's contribution (Algorithms 1–3).
    NetMax,
    /// NetMax with the Network Monitor disabled (fixed uniform policy);
    /// the "uniform" arm of the Fig. 7 ablation.
    NetMaxUniform,
    /// Asynchronous decentralized PSGD, Lian et al. \[11\].
    AdPsgd,
    /// AD-PSGD steered by a NetMax Network Monitor (§III-D / §V-H).
    AdPsgdMonitored,
    /// Synchronous ring-allreduce SGD \[8\].
    AllreduceSgd,
    /// Prague: randomized partial-allreduce groups \[14\].
    Prague,
    /// Synchronous parameter server.
    PsSync,
    /// Asynchronous parameter server.
    PsAsync,
    /// SAPS-PSGD: fixed initially-fast-subgraph gossip \[15\].
    SapsPsgd,
}

impl AlgorithmKind {
    /// Canonical display name (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::NetMax => "NetMax",
            AlgorithmKind::NetMaxUniform => "NetMax-uniform",
            AlgorithmKind::AdPsgd => "AD-PSGD",
            AlgorithmKind::AdPsgdMonitored => "AD-PSGD+Monitor",
            AlgorithmKind::AllreduceSgd => "Allreduce",
            AlgorithmKind::Prague => "Prague",
            AlgorithmKind::PsSync => "PS-syn",
            AlgorithmKind::PsAsync => "PS-asyn",
            AlgorithmKind::SapsPsgd => "SAPS-PSGD",
        }
    }

    /// The four headline competitors of §V-B.
    pub fn headline_four() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::Prague,
            AlgorithmKind::AllreduceSgd,
            AlgorithmKind::AdPsgd,
            AlgorithmKind::NetMax,
        ]
    }

    /// Every algorithm kind, in paper order.
    pub fn all() -> [AlgorithmKind; 9] {
        [
            AlgorithmKind::NetMax,
            AlgorithmKind::NetMaxUniform,
            AlgorithmKind::AdPsgd,
            AlgorithmKind::AdPsgdMonitored,
            AlgorithmKind::AllreduceSgd,
            AlgorithmKind::Prague,
            AlgorithmKind::PsSync,
            AlgorithmKind::PsAsync,
            AlgorithmKind::SapsPsgd,
        ]
    }

    /// Stable CLI/JSON identifier (`netmax`, `ad-psgd`, …).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::NetMax => "netmax",
            AlgorithmKind::NetMaxUniform => "netmax-uniform",
            AlgorithmKind::AdPsgd => "ad-psgd",
            AlgorithmKind::AdPsgdMonitored => "ad-psgd-monitor",
            AlgorithmKind::AllreduceSgd => "allreduce",
            AlgorithmKind::Prague => "prague",
            AlgorithmKind::PsSync => "ps-sync",
            AlgorithmKind::PsAsync => "ps-async",
            AlgorithmKind::SapsPsgd => "saps-psgd",
        }
    }

    /// Inverse of [`AlgorithmKind::name`].
    pub fn by_name(name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::all().into_iter().find(|k| k.name() == name)
    }
}

impl ToJson for AlgorithmKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for AlgorithmKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str()?;
        AlgorithmKind::by_name(name)
            .ok_or_else(|| JsonError::schema(format!("unknown algorithm `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_kinds_round_trip_and_old_names_are_schema_errors() {
        for kind in AlgorithmKind::all() {
            assert_eq!(AlgorithmKind::by_name(kind.name()), Some(kind));
            assert_eq!(AlgorithmKind::from_json(&kind.to_json()).unwrap(), kind);
        }
        for name in ["gosgd", "bounded-staleness"] {
            assert_eq!(AlgorithmKind::by_name(name), None);
            let err = AlgorithmKind::from_json(&Json::Str(name.into())).unwrap_err();
            assert_eq!(err.to_string(), format!("json schema error: unknown algorithm `{name}`"));
        }
    }
}
