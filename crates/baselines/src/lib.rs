//! # netmax-baselines
//!
//! From-scratch implementations of every algorithm the paper compares
//! NetMax against (§V):
//!
//! * [`AdPsgd`] — asynchronous decentralized PSGD (Lian et al. \[11\]):
//!   uniform random neighbour selection, half-half model averaging. The
//!   monitored variant ([`AdPsgd::monitored_with`]) steers its selection
//!   probabilities with a NetMax Network Monitor, reproducing §III-D and
//!   the §V-H experiment.
//! * [`AllreduceSgd`] — synchronous ring-allreduce SGD \[8\].
//! * [`Prague`] — randomized partial-allreduce groups \[14\].
//! * [`ParameterServer`] — centralized PSGD in synchronous
//!   ([`ParameterServer::synchronous`]) and asynchronous
//!   ([`ParameterServer::asynchronous`]) flavours (§V-G).
//! * [`SapsPsgd`] — the fixed initially-fast-subgraph strategy of
//!   SAPS-PSGD \[15\], the §I foil for NetMax's dynamic adaptation.
//!
//! All of them run on the same engine, network simulator, and workloads
//! as NetMax, so every comparison in the figure harnesses is apples to
//! apples.

#![forbid(unsafe_code)]

pub mod ad_psgd;
pub mod allreduce;
pub mod collectives;
pub mod param_server;
pub mod prague;
pub mod saps;

pub use ad_psgd::AdPsgd;
pub use allreduce::AllreduceSgd;
pub use param_server::ParameterServer;
pub use prague::Prague;
pub use saps::SapsPsgd;

use netmax_core::engine::{Algorithm, AlgorithmKind};
use netmax_core::monitor::MonitorConfig;
use netmax_core::netmax::{NetMax, NetMaxConfig};

/// Instantiates any of the paper's algorithms by kind.
///
/// `alpha` seeds the policy search of the monitor-bearing algorithms
/// (NetMax and AD-PSGD+Monitor); the others ignore it.
pub fn algorithm_for(kind: AlgorithmKind, alpha: f64) -> Box<dyn Algorithm> {
    match kind {
        AlgorithmKind::NetMax => Box::new(NetMax::new(NetMaxConfig::paper_default(alpha))),
        AlgorithmKind::NetMaxUniform => Box::new(NetMax::new(NetMaxConfig::uniform())),
        AlgorithmKind::AdPsgd => Box::new(AdPsgd::new()),
        AlgorithmKind::AdPsgdMonitored => Box::new(AdPsgd::monitored_with(MonitorConfig::paper_default(alpha))),
        AlgorithmKind::AllreduceSgd => Box::new(AllreduceSgd::new()),
        AlgorithmKind::Prague => Box::new(Prague::new(4)),
        AlgorithmKind::PsSync => Box::new(ParameterServer::synchronous()),
        AlgorithmKind::PsAsync => Box::new(ParameterServer::asynchronous()),
        AlgorithmKind::SapsPsgd => Box::new(SapsPsgd::paper_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_instantiate() {
        for kind in AlgorithmKind::all() {
            let algo = algorithm_for(kind, 0.1);
            assert!(!algo.name().is_empty());
        }
    }
}
