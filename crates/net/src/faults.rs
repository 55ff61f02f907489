//! Declarative fault injection: link degradation/outage windows, node
//! crash/rejoin times, and per-node straggler compute multipliers.
//!
//! A [`FaultPlan`] is pure data — it round-trips through JSON exactly and
//! every query is a pure function of virtual time — so fault scenarios
//! are storable in experiment specs and replayable byte-for-byte. The
//! plan is interpreted in two places:
//!
//! * **link faults** by [`ElasticNetwork`](crate::conditions::ElasticNetwork),
//!   which multiplies the affected link's cost during the fault window
//!   (an [`LinkFaultKind::Outage`] is an effectively unusable link at
//!   [`OUTAGE_FACTOR`]× cost: traffic already committed to it crawls, and
//!   adaptive policies must route around it);
//! * **node faults and stragglers** by the engine's `Environment`/
//!   `Session` in `netmax-core`, which drive the active-membership set on
//!   the virtual clock and scale per-node gradient-compute times.

use netmax_json::{FromJson, Json, JsonError, ToJson};

/// The cost multiplier standing in for a link that is *down*: large
/// enough that any traffic committed to the link dominates the sender's
/// clock, finite so the discrete-event engine's timeline stays valid.
pub const OUTAGE_FACTOR: f64 = 1.0e3;

/// What happens to a link during a fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// The link is slowed by the given factor (≥ 1).
    Degrade(f64),
    /// The link is down; modelled as an [`OUTAGE_FACTOR`]× degradation.
    Outage,
}

impl LinkFaultKind {
    /// The multiplicative cost factor this fault applies while active.
    pub fn factor(self) -> f64 {
        match self {
            LinkFaultKind::Degrade(f) => f,
            LinkFaultKind::Outage => OUTAGE_FACTOR,
        }
    }
}

impl ToJson for LinkFaultKind {
    fn to_json(&self) -> Json {
        match self {
            LinkFaultKind::Degrade(f) => Json::obj([("degrade", f.to_json())]),
            LinkFaultKind::Outage => Json::Str("outage".into()),
        }
    }
}

impl FromJson for LinkFaultKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "outage" => Ok(LinkFaultKind::Outage),
            Json::Obj(_) => Ok(LinkFaultKind::Degrade(f64::from_json(v.field("degrade")?)?)),
            other => Err(JsonError::schema(format!("expected link fault, got {}", other.kind()))),
        }
    }
}

/// One link fault: the unordered link `{a, b}` suffers `kind` during
/// `[start_s, end_s)` of virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// One endpoint of the affected link.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Fault window start (inclusive), virtual seconds.
    pub start_s: f64,
    /// Fault window end (exclusive), virtual seconds.
    pub end_s: f64,
    /// Degradation or outage.
    pub kind: LinkFaultKind,
}

impl ToJson for LinkFault {
    fn to_json(&self) -> Json {
        Json::obj([
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("start_s", self.start_s.to_json()),
            ("end_s", self.end_s.to_json()),
            ("kind", self.kind.to_json()),
        ])
    }
}

impl FromJson for LinkFault {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            a: usize::from_json(v.field("a")?)?,
            b: usize::from_json(v.field("b")?)?,
            start_s: f64::from_json(v.field("start_s")?)?,
            end_s: f64::from_json(v.field("end_s")?)?,
            kind: LinkFaultKind::from_json(v.field("kind")?)?,
        })
    }
}

/// One node fault: the node crashes at `crash_s` and, if `rejoin_s` is
/// set, rejoins at that time (warm-starting from a live peer's replica).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFault {
    /// The crashing worker.
    pub node: usize,
    /// Crash time, virtual seconds.
    pub crash_s: f64,
    /// Optional rejoin time (must be after the crash).
    pub rejoin_s: Option<f64>,
}

impl ToJson for NodeFault {
    fn to_json(&self) -> Json {
        Json::obj([
            ("node", self.node.to_json()),
            ("crash_s", self.crash_s.to_json()),
            ("rejoin_s", self.rejoin_s.to_json()),
        ])
    }
}

impl FromJson for NodeFault {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            node: usize::from_json(v.field("node")?)?,
            crash_s: f64::from_json(v.field("crash_s")?)?,
            rejoin_s: Option::from_json(v.field("rejoin_s")?)?,
        })
    }
}

/// A permanent per-node compute slowdown (straggler hardware, noisy
/// co-tenant): the node's gradient-compute times are multiplied by
/// `factor` for the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// The slowed worker.
    pub node: usize,
    /// Compute-time multiplier (≥ 1).
    pub factor: f64,
}

impl ToJson for Straggler {
    fn to_json(&self) -> Json {
        Json::obj([("node", self.node.to_json()), ("factor", self.factor.to_json())])
    }
}

impl FromJson for Straggler {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            node: usize::from_json(v.field("node")?)?,
            factor: f64::from_json(v.field("factor")?)?,
        })
    }
}

/// A membership transition derived from a [`FaultPlan`]: node `node`
/// goes down (`up == false`) or comes back (`up == true`) at `time_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipEvent {
    /// Virtual time of the transition.
    pub time_s: f64,
    /// The affected worker.
    pub node: usize,
    /// `true` for a rejoin, `false` for a crash.
    pub up: bool,
}

/// The full declarative fault schedule of one scenario. Empty by default;
/// see the module docs for who interprets which part.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Link degradation/outage windows.
    pub link_faults: Vec<LinkFault>,
    /// Node crash (and optional rejoin) times.
    pub node_faults: Vec<NodeFault>,
    /// Permanent per-node compute multipliers.
    pub stragglers: Vec<Straggler>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.node_faults.is_empty() && self.stragglers.is_empty()
    }

    /// Validates the plan against a fleet of `num_nodes` workers.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        for f in &self.link_faults {
            if f.a >= num_nodes || f.b >= num_nodes || f.a == f.b {
                return Err(format!("link fault names bad link {{{}, {}}}", f.a, f.b));
            }
            if !(f.start_s >= 0.0 && f.end_s > f.start_s && f.end_s.is_finite()) {
                return Err(format!(
                    "link fault window must have 0 ≤ start < end, got {}..{}",
                    f.start_s, f.end_s
                ));
            }
            if let LinkFaultKind::Degrade(factor) = f.kind {
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(format!("link degradation factor must be ≥ 1, got {factor}"));
                }
            }
        }
        for (k, nf) in self.node_faults.iter().enumerate() {
            if nf.node >= num_nodes {
                return Err(format!("node fault names node {} of {num_nodes}", nf.node));
            }
            // One fault per node: overlapping schedules would let a
            // later rejoin resurrect a node an earlier fault declared
            // down forever, and `active_at` would disagree with the
            // event walk.
            if self.node_faults[..k].iter().any(|other| other.node == nf.node) {
                return Err(format!(
                    "node {} has multiple fault entries; one crash/rejoin schedule per node",
                    nf.node
                ));
            }
            if !(nf.crash_s.is_finite() && nf.crash_s >= 0.0) {
                return Err(format!("crash time must be finite and ≥ 0, got {}", nf.crash_s));
            }
            if let Some(r) = nf.rejoin_s {
                if !(r.is_finite() && r > nf.crash_s) {
                    return Err(format!(
                        "rejoin time must follow the crash, got crash {} rejoin {r}",
                        nf.crash_s
                    ));
                }
            }
        }
        for s in &self.stragglers {
            if s.node >= num_nodes {
                return Err(format!("straggler names node {} of {num_nodes}", s.node));
            }
            if !(s.factor.is_finite() && s.factor >= 1.0) {
                return Err(format!("straggler factor must be ≥ 1, got {}", s.factor));
            }
        }
        Ok(())
    }

    /// The multiplicative cost factor (≥ 1) every active fault imposes on
    /// the unordered link `{from, to}` at time `now` (factors compose
    /// multiplicatively when windows overlap). Pure in `(link, now)`.
    pub fn link_factor(&self, from: usize, to: usize, now: f64) -> f64 {
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let mut factor = 1.0;
        for f in &self.link_faults {
            let (fa, fb) = if f.a < f.b { (f.a, f.b) } else { (f.b, f.a) };
            if (fa, fb) == (lo, hi) && f.start_s <= now && now < f.end_s {
                factor *= f.kind.factor();
            }
        }
        factor
    }

    /// The permanent compute-time multiplier of `node` (1.0 when not a
    /// straggler; overlapping entries compose multiplicatively).
    pub fn compute_factor(&self, node: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.factor)
            .product()
    }

    /// Whether `node` is alive at time `now` per the crash/rejoin
    /// schedule.
    pub fn active_at(&self, node: usize, now: f64) -> bool {
        for nf in &self.node_faults {
            if nf.node == node && now >= nf.crash_s {
                match nf.rejoin_s {
                    Some(r) if now >= r => continue,
                    _ => return false,
                }
            }
        }
        true
    }

    /// Every membership transition the plan implies, sorted by time
    /// (crashes before rejoins on ties, then by node index) — the
    /// schedule the engine's session walks on the virtual clock.
    pub fn membership_events(&self) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for nf in &self.node_faults {
            events.push(MembershipEvent { time_s: nf.crash_s, node: nf.node, up: false });
            if let Some(r) = nf.rejoin_s {
                events.push(MembershipEvent { time_s: r, node: nf.node, up: true });
            }
        }
        events.sort_by(|x, y| {
            x.time_s.total_cmp(&y.time_s).then(x.up.cmp(&y.up)).then(x.node.cmp(&y.node))
        });
        events
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("link_faults", self.link_faults.to_json()),
            ("node_faults", self.node_faults.to_json()),
            ("stragglers", self.stragglers.to_json()),
        ])
    }
}

impl FromJson for FaultPlan {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            link_faults: Vec::from_json(v.field("link_faults")?)?,
            node_faults: Vec::from_json(v.field("node_faults")?)?,
            stragglers: Vec::from_json(v.field("stragglers")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            link_faults: vec![
                LinkFault { a: 0, b: 4, start_s: 10.0, end_s: 20.0, kind: LinkFaultKind::Degrade(5.0) },
                LinkFault { a: 1, b: 2, start_s: 15.0, end_s: 25.0, kind: LinkFaultKind::Outage },
            ],
            node_faults: vec![
                NodeFault { node: 3, crash_s: 30.0, rejoin_s: Some(50.0) },
                NodeFault { node: 5, crash_s: 40.0, rejoin_s: None },
            ],
            stragglers: vec![Straggler { node: 2, factor: 4.0 }],
        }
    }

    #[test]
    fn link_factor_respects_windows_and_kinds() {
        let p = plan();
        assert_eq!(p.link_factor(0, 4, 9.99), 1.0);
        assert_eq!(p.link_factor(0, 4, 10.0), 5.0);
        assert_eq!(p.link_factor(4, 0, 15.0), 5.0, "unordered match");
        assert_eq!(p.link_factor(0, 4, 20.0), 1.0, "end is exclusive");
        assert_eq!(p.link_factor(1, 2, 20.0), OUTAGE_FACTOR);
        assert_eq!(p.link_factor(0, 1, 15.0), 1.0, "unlisted links untouched");
    }

    #[test]
    fn overlapping_link_faults_compose() {
        let mut p = plan();
        p.link_faults.push(LinkFault {
            a: 4,
            b: 0,
            start_s: 0.0,
            end_s: 100.0,
            kind: LinkFaultKind::Degrade(2.0),
        });
        assert_eq!(p.link_factor(0, 4, 15.0), 10.0);
    }

    #[test]
    fn membership_schedule_is_sorted_and_complete() {
        let p = plan();
        let events = p.membership_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], MembershipEvent { time_s: 30.0, node: 3, up: false });
        assert_eq!(events[1], MembershipEvent { time_s: 40.0, node: 5, up: false });
        assert_eq!(events[2], MembershipEvent { time_s: 50.0, node: 3, up: true });
        // active_at agrees with the schedule.
        assert!(p.active_at(3, 29.9));
        assert!(!p.active_at(3, 30.0));
        assert!(p.active_at(3, 50.0), "rejoined");
        assert!(!p.active_at(5, 1e6), "no rejoin ⇒ down forever");
        assert!(p.active_at(0, 1e6));
    }

    #[test]
    fn straggler_factors_compose() {
        let mut p = plan();
        assert_eq!(p.compute_factor(2), 4.0);
        assert_eq!(p.compute_factor(0), 1.0);
        p.stragglers.push(Straggler { node: 2, factor: 2.0 });
        assert_eq!(p.compute_factor(2), 8.0);
    }

    #[test]
    fn json_round_trips_exactly() {
        let p = plan();
        let text = p.to_json().pretty();
        let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        // Empty plans round-trip too (the default in every old scenario).
        let empty = FaultPlan::none();
        assert!(empty.is_empty());
        let back = FaultPlan::from_json(&Json::parse(&empty.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn validation_names_the_problem() {
        let ok = plan();
        assert!(ok.validate(8).is_ok());
        assert!(ok.validate(4).is_err(), "node 5 out of a 4-node fleet");
        let mut bad = FaultPlan::none();
        bad.node_faults.push(NodeFault { node: 0, crash_s: 10.0, rejoin_s: Some(5.0) });
        assert!(bad.validate(4).unwrap_err().contains("rejoin"));
        // Overlapping schedules for one node would let a later rejoin
        // resurrect a node an earlier fault declared down forever.
        let mut bad = FaultPlan::none();
        bad.node_faults.push(NodeFault { node: 2, crash_s: 10.0, rejoin_s: None });
        bad.node_faults.push(NodeFault { node: 2, crash_s: 20.0, rejoin_s: Some(30.0) });
        assert!(bad.validate(4).unwrap_err().contains("multiple fault entries"));
        let mut bad = FaultPlan::none();
        bad.stragglers.push(Straggler { node: 0, factor: 0.5 });
        assert!(bad.validate(4).unwrap_err().contains("straggler"));
        let mut bad = FaultPlan::none();
        bad.link_faults.push(LinkFault {
            a: 0,
            b: 0,
            start_s: 0.0,
            end_s: 1.0,
            kind: LinkFaultKind::Outage,
        });
        assert!(bad.validate(4).unwrap_err().contains("link"));
    }
}
