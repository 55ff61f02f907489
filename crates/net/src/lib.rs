//! # netmax-net
//!
//! Discrete-event heterogeneous network substrate for the NetMax
//! reproduction.
//!
//! The paper evaluates NetMax on a multi-tenant GPU cluster whose links are
//! purposely slowed down ("we randomly slow down one of the communication
//! links among nodes by 2× to 100×  ... we further change the slow link
//! every 5 minutes", §V-A) and on a 6-region AWS deployment (Appendix G).
//! Neither testbed is reproducible directly, so this crate provides the
//! simulation equivalents:
//!
//! * [`Topology`] — the communication graph `G` of §II-A (who may gossip
//!   with whom), with the constructors used across the evaluation
//!   (fully-connected, ring, two-server cluster placement, star for the
//!   parameter-server baselines).
//! * [`LinkQuality`] — a `latency + bytes/bandwidth` cost model per
//!   directed pair.
//! * [`ElasticNetwork`] — the ground-truth communication cost between
//!   worker nodes: a base fabric (the uniform virtual-switch link of
//!   §V-A, a cluster placement, or the 6-region EC2 matrix of Appendix G)
//!   composed with per-link [`dynamics::LinkDynamics`] and a
//!   [`faults::FaultPlan`] — the slowed-link regime above is its
//!   [`dynamics::LinkDynamics::PeriodicRedraw`] special case.
//! * [`dynamics`] — composable per-link dynamics: static, the paper's
//!   periodic redraw, Markov-modulated bandwidth, and trace replay.
//! * [`faults`] — declarative fault injection: link degradation/outage
//!   windows, node crash/rejoin schedules, straggler compute multipliers.
//! * [`EventQueue`] — a binary min-heap of timestamped events with stable
//!   FIFO tie-breaking (property-tested to pop the exact (time, seq) order
//!   of a naive sorted list), used by the simulation engine in
//!   `netmax-core`.
//!
//! All dynamics are **pure functions of virtual time and the seed**: asking
//! the network for a link cost at time `t` never mutates it, so simulation
//! runs are exactly reproducible and events may be replayed.

#![forbid(unsafe_code)]

pub mod conditions;
pub mod dynamics;
pub mod event;
pub mod faults;
pub mod link;
pub mod topology;

pub use conditions::{ClusterSpec, ElasticNetwork, NetworkKind, SlowdownConfig};
pub use dynamics::{LinkDynamics, MarkovConfig, TraceWindow};
pub use event::EventQueue;
pub use faults::{
    FaultPlan, LinkFault, LinkFaultKind, MembershipEvent, NodeFault, Straggler, OUTAGE_FACTOR,
};
pub use link::LinkQuality;
pub use topology::Topology;
