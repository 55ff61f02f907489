//! Composable per-link dynamics.
//!
//! The paper evaluates exactly one dynamic regime — a single slow link
//! re-drawn on a fixed period — but a network substrate worth stress-
//! testing against needs a *vocabulary* of dynamics, not a hardcoded
//! special case. [`LinkDynamics`] is that vocabulary: a pure-data,
//! JSON-round-tripping description of how every link's quality evolves
//! over virtual time, evaluated by [`ElasticNetwork`]:
//!
//! * [`LinkDynamics::Static`] — links never change.
//! * [`LinkDynamics::PeriodicRedraw`] — the paper's §V-A regime (one
//!   random link slowed 2×–100×, re-drawn every window).
//! * [`LinkDynamics::MarkovModulated`] — every link walks its own Markov
//!   chain over a set of slowdown states; short dwell times produce
//!   fast-drifting links that stress the Monitor → LP → policy loop far
//!   harder than the paper's single slow link.
//! * [`LinkDynamics::Trace`] — an explicit piecewise-constant schedule of
//!   per-link slowdown windows loaded from JSON (replay of a measured
//!   trace).
//!
//! Every variant is a **pure function of `(seed, link, t)`**: querying a
//! factor never mutates anything, so simulations stay exactly
//! reproducible and costs may be queried speculatively in any order.
//!
//! [`ElasticNetwork`]: crate::conditions::ElasticNetwork

use crate::conditions::SlowdownConfig;
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// SplitMix64: deterministic, platform-independent hash step (shared by
/// every dynamics variant so schedules are identical across platforms).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The unordered pair slowed during `window` of the periodic-redraw
/// regime, and its factor — the paper's "randomly slow down one of the
/// communication links by 2× to 100×, change it every 5 minutes".
///
/// Exposed so tests can assert schedule properties without a network.
pub fn periodic_slowed_pair(
    cfg: &SlowdownConfig,
    seed: u64,
    n: usize,
    window: u64,
) -> (usize, usize, f64) {
    let w = if cfg.dynamic { window } else { 0 };
    let h1 = splitmix64(seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let h2 = splitmix64(h1);
    let h3 = splitmix64(h2);
    // Draw an unordered pair (i < j) uniformly.
    let i = (h1 % n as u64) as usize;
    let mut j = (h2 % (n as u64 - 1)) as usize;
    if j >= i {
        j += 1;
    }
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    let u = (h3 >> 11) as f64 / (1u64 << 53) as f64; // uniform [0,1)
    let factor = cfg.min_factor + u * (cfg.max_factor - cfg.min_factor);
    (a, b, factor)
}

/// Markov-modulated bandwidth configuration: every link independently
/// walks a Markov chain over `factors`, holding each state for `dwell_s`
/// virtual seconds and transitioning with probability `change_prob` at
/// each window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovConfig {
    /// The slowdown states (each ≥ 1; include 1.0 for a healthy state).
    pub factors: Vec<f64>,
    /// Seconds of virtual time each state is held before a transition is
    /// considered.
    pub dwell_s: f64,
    /// Probability of leaving the current state at a window boundary
    /// (the new state is drawn uniformly from `factors`).
    pub change_prob: f64,
}

impl MarkovConfig {
    /// A slowly drifting regime: mostly healthy, occasionally degraded,
    /// states held for minutes.
    pub fn slow_drift() -> Self {
        Self { factors: vec![1.0, 4.0, 16.0], dwell_s: 60.0, change_prob: 0.5 }
    }

    /// A fast-drifting regime: the same states re-drawn every few
    /// seconds — faster than any monitor period, the worst case for
    /// adaptation.
    pub fn fast_drift() -> Self {
        Self { factors: vec![1.0, 4.0, 16.0], dwell_s: 5.0, change_prob: 0.5 }
    }

    /// The state of one link's chain at time `now`. Pure in
    /// `(seed, link_key, now)`, and cheap on the simulation hot path:
    /// each window's transition draw is an independent hash of
    /// `(chain_seed, window)`, so the current state is found by scanning
    /// *backward* to the most recent change window — expected
    /// `1 / change_prob` hash steps, independent of how far the virtual
    /// clock has advanced (a forward replay from window zero would make
    /// late-run queries linearly more expensive).
    fn state_at(&self, chain_seed: u64, now: f64) -> f64 {
        let window = (now / self.dwell_s).floor().max(0.0) as u64;
        let k = self.factors.len() as u64;
        if self.change_prob > 0.0 {
            let mut w = window;
            while w > 0 {
                let h = splitmix64(chain_seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < self.change_prob {
                    // The chain last transitioned at window `w`; the draw
                    // itself determines the state entered.
                    return self.factors[(splitmix64(h) % k) as usize];
                }
                w -= 1;
            }
        }
        // No transition since the start: the initial state.
        self.factors[(splitmix64(chain_seed) % k) as usize]
    }

    fn validate(&self) -> Result<(), String> {
        if self.factors.is_empty() {
            return Err("markov dynamics need at least one state".into());
        }
        if let Some(f) = self.factors.iter().find(|f| !(f.is_finite() && **f >= 1.0)) {
            return Err(format!("markov state factor must be finite and ≥ 1, got {f}"));
        }
        if !(self.dwell_s.is_finite() && self.dwell_s > 0.0) {
            return Err(format!("markov dwell must be finite and positive, got {}", self.dwell_s));
        }
        if !(0.0..=1.0).contains(&self.change_prob) {
            return Err(format!("markov change probability must be in [0, 1], got {}", self.change_prob));
        }
        Ok(())
    }
}

impl ToJson for MarkovConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("factors", self.factors.to_json()),
            ("dwell_s", self.dwell_s.to_json()),
            ("change_prob", self.change_prob.to_json()),
        ])
    }
}

impl FromJson for MarkovConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            factors: Vec::from_json(v.field("factors")?)?,
            dwell_s: f64::from_json(v.field("dwell_s")?)?,
            change_prob: f64::from_json(v.field("change_prob")?)?,
        })
    }
}

/// One window of a trace schedule: the unordered link `{a, b}` is slowed
/// by `factor` during `[start_s, end_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWindow {
    /// One endpoint of the affected link.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Window start (inclusive), virtual seconds.
    pub start_s: f64,
    /// Window end (exclusive), virtual seconds.
    pub end_s: f64,
    /// Slowdown factor applied during the window (≥ 1).
    pub factor: f64,
}

impl ToJson for TraceWindow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("start_s", self.start_s.to_json()),
            ("end_s", self.end_s.to_json()),
            ("factor", self.factor.to_json()),
        ])
    }
}

impl FromJson for TraceWindow {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            a: usize::from_json(v.field("a")?)?,
            b: usize::from_json(v.field("b")?)?,
            start_s: f64::from_json(v.field("start_s")?)?,
            end_s: f64::from_json(v.field("end_s")?)?,
            factor: f64::from_json(v.field("factor")?)?,
        })
    }
}

/// How every link's quality evolves over virtual time. See the module
/// docs for the variants.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkDynamics {
    /// Links never change.
    Static,
    /// The paper's §V-A regime: one random link slowed, re-drawn per
    /// window (bit-identical to the historical behaviour).
    PeriodicRedraw(SlowdownConfig),
    /// Per-link Markov chains over slowdown states.
    MarkovModulated(MarkovConfig),
    /// Explicit piecewise-constant schedule of slowdown windows.
    Trace(Vec<TraceWindow>),
}

impl LinkDynamics {
    /// The multiplicative slowdown factor (≥ 1) on the unordered link
    /// `{from, to}` of an `n`-node fabric at virtual time `now`. Pure in
    /// `(seed, link, now)`.
    pub fn factor(&self, seed: u64, n: usize, from: usize, to: usize, now: f64) -> f64 {
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        match self {
            LinkDynamics::Static => 1.0,
            LinkDynamics::PeriodicRedraw(cfg) => {
                let window = (now / cfg.change_period_s).floor().max(0.0) as u64;
                let (a, b, factor) = periodic_slowed_pair(cfg, seed, n, window);
                if (lo, hi) == (a, b) {
                    factor
                } else {
                    1.0
                }
            }
            LinkDynamics::MarkovModulated(cfg) => {
                let link_key = splitmix64(
                    seed ^ (lo as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                        ^ (hi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                cfg.state_at(link_key, now)
            }
            LinkDynamics::Trace(windows) => windows
                .iter()
                .filter(|w| {
                    let (wa, wb) = if w.a < w.b { (w.a, w.b) } else { (w.b, w.a) };
                    (wa, wb) == (lo, hi) && w.start_s <= now && now < w.end_s
                })
                .map(|w| w.factor)
                .fold(1.0f64, f64::max),
        }
    }

    /// Validates the dynamics description against a fleet of
    /// `num_nodes` workers (state factors ≥ 1, positive periods,
    /// well-ordered trace windows naming real nodes — an out-of-range
    /// trace endpoint would otherwise be silently inert).
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        match self {
            LinkDynamics::Static => Ok(()),
            LinkDynamics::PeriodicRedraw(cfg) => {
                if !(cfg.change_period_s.is_finite() && cfg.change_period_s > 0.0) {
                    return Err(format!(
                        "redraw period must be finite and positive, got {}",
                        cfg.change_period_s
                    ));
                }
                if !(cfg.min_factor >= 1.0 && cfg.max_factor >= cfg.min_factor) {
                    return Err(format!(
                        "slowdown factors must satisfy 1 ≤ min ≤ max, got {}..{}",
                        cfg.min_factor, cfg.max_factor
                    ));
                }
                Ok(())
            }
            LinkDynamics::MarkovModulated(cfg) => cfg.validate(),
            LinkDynamics::Trace(windows) => {
                for w in windows {
                    if w.a == w.b {
                        return Err("trace window needs two distinct endpoints".into());
                    }
                    if w.a >= num_nodes || w.b >= num_nodes {
                        return Err(format!(
                            "trace window names link {{{}, {}}} of a {num_nodes}-node fabric",
                            w.a, w.b
                        ));
                    }
                    if !(w.start_s >= 0.0 && w.end_s > w.start_s && w.end_s.is_finite()) {
                        return Err(format!(
                            "trace window must have 0 ≤ start < end, got {}..{}",
                            w.start_s, w.end_s
                        ));
                    }
                    if !(w.factor.is_finite() && w.factor >= 1.0) {
                        return Err(format!("trace factor must be finite and ≥ 1, got {}", w.factor));
                    }
                }
                Ok(())
            }
        }
    }
}

impl ToJson for LinkDynamics {
    fn to_json(&self) -> Json {
        match self {
            LinkDynamics::Static => Json::Str("static".into()),
            LinkDynamics::PeriodicRedraw(cfg) => Json::obj([("periodic_redraw", cfg.to_json())]),
            LinkDynamics::MarkovModulated(cfg) => Json::obj([("markov", cfg.to_json())]),
            LinkDynamics::Trace(ws) => Json::obj([("trace", ws.to_json())]),
        }
    }
}

impl FromJson for LinkDynamics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "static" => Ok(LinkDynamics::Static),
            Json::Obj(_) => {
                if let Some(cfg) = v.get("periodic_redraw") {
                    Ok(LinkDynamics::PeriodicRedraw(SlowdownConfig::from_json(cfg)?))
                } else if let Some(cfg) = v.get("markov") {
                    Ok(LinkDynamics::MarkovModulated(MarkovConfig::from_json(cfg)?))
                } else if let Some(ws) = v.get("trace") {
                    Ok(LinkDynamics::Trace(Vec::from_json(ws)?))
                } else {
                    Err(JsonError::schema("unknown link dynamics variant".into()))
                }
            }
            other => {
                Err(JsonError::schema(format!("expected link dynamics, got {}", other.kind())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_dynamics_never_slow_anything() {
        let d = LinkDynamics::Static;
        for t in [0.0, 17.5, 9999.0] {
            assert_eq!(d.factor(42, 8, 0, 5, t), 1.0);
        }
    }

    #[test]
    fn periodic_redraw_matches_slowed_pair_helper() {
        let cfg = SlowdownConfig::default();
        let d = LinkDynamics::PeriodicRedraw(cfg);
        let (a, b, f) = periodic_slowed_pair(&cfg, 7, 8, 0);
        assert_eq!(d.factor(7, 8, a, b, 0.0), f);
        assert_eq!(d.factor(7, 8, b, a, 0.0), f, "factor must be direction-agnostic");
        // Some other pair in the same window is unslowed.
        let (oa, ob) = if (a, b) == (0, 1) { (2, 3) } else { (0, 1) };
        assert_eq!(d.factor(7, 8, oa, ob, 0.0), 1.0);
    }

    #[test]
    fn markov_holds_state_within_a_window_and_visits_states() {
        let cfg = MarkovConfig { factors: vec![1.0, 8.0], dwell_s: 10.0, change_prob: 0.9 };
        let d = LinkDynamics::MarkovModulated(cfg.clone());
        // Constant inside one dwell window.
        let f0 = d.factor(3, 8, 0, 1, 0.0);
        assert_eq!(d.factor(3, 8, 0, 1, 9.999), f0);
        // Over many windows both states appear.
        let seen: std::collections::HashSet<u64> = (0..200)
            .map(|w| d.factor(3, 8, 0, 1, w as f64 * 10.0).to_bits())
            .collect();
        assert_eq!(seen.len(), 2, "chain should visit both states");
        // Factors always come from the configured state set.
        for w in 0..50 {
            let f = d.factor(3, 8, 2, 5, w as f64 * 10.0);
            assert!(cfg.factors.contains(&f), "{f} not a configured state");
        }
    }

    #[test]
    fn markov_links_are_independent() {
        let d = LinkDynamics::MarkovModulated(MarkovConfig::fast_drift());
        let a: Vec<u64> = (0..40).map(|w| d.factor(9, 8, 0, 1, w as f64 * 5.0).to_bits()).collect();
        let b: Vec<u64> = (0..40).map(|w| d.factor(9, 8, 2, 3, w as f64 * 5.0).to_bits()).collect();
        assert_ne!(a, b, "distinct links must walk distinct chains");
    }

    #[test]
    fn trace_applies_only_inside_its_window() {
        let d = LinkDynamics::Trace(vec![TraceWindow {
            a: 1,
            b: 4,
            start_s: 10.0,
            end_s: 20.0,
            factor: 6.0,
        }]);
        assert_eq!(d.factor(0, 8, 1, 4, 9.99), 1.0);
        assert_eq!(d.factor(0, 8, 1, 4, 10.0), 6.0);
        assert_eq!(d.factor(0, 8, 4, 1, 15.0), 6.0, "unordered match");
        assert_eq!(d.factor(0, 8, 1, 4, 20.0), 1.0, "end is exclusive");
        assert_eq!(d.factor(0, 8, 1, 5, 15.0), 1.0, "other links untouched");
    }

    #[test]
    fn overlapping_trace_windows_take_the_worst_factor() {
        let w = |f: f64| TraceWindow { a: 0, b: 1, start_s: 0.0, end_s: 10.0, factor: f };
        let d = LinkDynamics::Trace(vec![w(3.0), w(7.0)]);
        assert_eq!(d.factor(0, 4, 0, 1, 5.0), 7.0);
    }

    #[test]
    fn dynamics_json_round_trip() {
        for d in [
            LinkDynamics::Static,
            LinkDynamics::PeriodicRedraw(SlowdownConfig::default()),
            LinkDynamics::MarkovModulated(MarkovConfig::slow_drift()),
            LinkDynamics::Trace(vec![TraceWindow {
                a: 0,
                b: 3,
                start_s: 5.5,
                end_s: 60.25,
                factor: 12.5,
            }]),
        ] {
            let text = d.to_json().pretty();
            let back = LinkDynamics::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(LinkDynamics::MarkovModulated(MarkovConfig {
            factors: vec![],
            dwell_s: 1.0,
            change_prob: 0.5
        })
        .validate(8)
        .is_err());
        assert!(LinkDynamics::MarkovModulated(MarkovConfig {
            factors: vec![0.5],
            dwell_s: 1.0,
            change_prob: 0.5
        })
        .validate(8)
        .is_err());
        assert!(LinkDynamics::Trace(vec![TraceWindow {
            a: 0,
            b: 0,
            start_s: 0.0,
            end_s: 1.0,
            factor: 2.0
        }])
        .validate(8)
        .is_err());
        assert!(LinkDynamics::MarkovModulated(MarkovConfig::slow_drift()).validate(8).is_ok());
    }
}
