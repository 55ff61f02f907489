//! The declarative experiment API: [`ExperimentSpec`] and [`Arm`].
//!
//! An experiment is a *grid*: one serializable [`Scenario`] run under
//! every `(arm, seed)` combination, where an arm is an algorithm (plus
//! optional NetMax-internal overrides for the ablation sweeps) and each
//! seed re-derives the scenario's RNG streams. Every figure/table of the
//! paper's evaluation is declared once as one or more specs in
//! [`mod@crate::registry`]; the executor in [`crate::runner`] turns a spec
//! into reports, and the whole structure round-trips through JSON so run
//! artifacts embed the exact spec that produced them.

use crate::common::MONITOR_PERIOD_S;
use netmax_baselines::{algorithm_for, AdPsgd};
use netmax_core::engine::{Algorithm, AlgorithmKind, Scenario};
use netmax_core::monitor::MonitorConfig;
use netmax_core::netmax::{MergeWeighting, NetMax, NetMaxConfig};
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// One algorithm column of an experiment grid.
///
/// For the standard comparisons an arm is just an [`AlgorithmKind`]; the
/// ablation experiments additionally override NetMax's internals (merge
/// weighting, monitor period, EMA β). `monitor_period_s` and `ema_beta`
/// configure the Network Monitor and so apply to the whole monitor-bearing
/// family (NetMax, NetMax-uniform, and
/// [`AlgorithmKind::AdPsgdMonitored`]); `merge_weight` applies to the
/// NetMax variants only. All overrides are ignored by the remaining
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Which algorithm runs this column.
    pub algorithm: AlgorithmKind,
    /// Display-label override (defaults to the algorithm's paper label).
    pub label: Option<String>,
    /// Network-Monitor period override (NetMax family; defaults to the
    /// harness-tuned [`MONITOR_PERIOD_S`]).
    pub monitor_period_s: Option<f64>,
    /// EMA smoothing β override (NetMax family).
    pub ema_beta: Option<f64>,
    /// Fixed merge weight override (NetMax; `None` keeps the paper's
    /// inverse-probability weighting).
    pub merge_weight: Option<f64>,
}

impl Arm {
    /// A standard arm: the algorithm with harness-tuned defaults.
    pub fn new(algorithm: AlgorithmKind) -> Self {
        Self { algorithm, label: None, monitor_period_s: None, ema_beta: None, merge_weight: None }
    }

    /// Sets the display label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Overrides the Network-Monitor period.
    pub fn monitor_period(mut self, period_s: f64) -> Self {
        self.monitor_period_s = Some(period_s);
        self
    }

    /// Overrides the EMA smoothing factor β.
    pub fn beta(mut self, beta: f64) -> Self {
        self.ema_beta = Some(beta);
        self
    }

    /// Replaces inverse-probability merging with a fixed weight.
    pub fn fixed_weight(mut self, w: f64) -> Self {
        self.merge_weight = Some(w);
        self
    }

    /// The label shown in tables and artifacts.
    pub fn label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.algorithm.label().to_string())
    }

    /// Instantiates the algorithm with the harness-tuned monitor period
    /// and this arm's overrides applied. `alpha` seeds the policy search
    /// of the monitor-bearing algorithms.
    pub fn instantiate(&self, alpha: f64) -> Box<dyn Algorithm> {
        let monitor = MonitorConfig {
            period_s: self.monitor_period_s.unwrap_or(MONITOR_PERIOD_S),
            beta: self.ema_beta.unwrap_or(MonitorConfig::paper_default(alpha).beta),
            ..MonitorConfig::paper_default(alpha)
        };
        let netmax_cfg = |base: NetMaxConfig| {
            let weighting = match self.merge_weight {
                Some(w) => MergeWeighting::Fixed(w),
                None => base.weighting,
            };
            NetMaxConfig { monitor: base.monitor.map(|_| monitor.clone()), weighting }
        };
        match self.algorithm {
            AlgorithmKind::NetMax => {
                Box::new(NetMax::new(netmax_cfg(NetMaxConfig::paper_default(alpha))))
            }
            AlgorithmKind::NetMaxUniform => {
                Box::new(NetMax::new(netmax_cfg(NetMaxConfig::uniform())))
            }
            AlgorithmKind::AdPsgdMonitored => Box::new(AdPsgd::monitored_with(monitor)),
            other => algorithm_for(other, alpha),
        }
    }
}

impl From<AlgorithmKind> for Arm {
    fn from(kind: AlgorithmKind) -> Self {
        Arm::new(kind)
    }
}

impl ToJson for Arm {
    fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", self.algorithm.to_json()),
            ("label", self.label.to_json()),
            ("monitor_period_s", self.monitor_period_s.to_json()),
            ("ema_beta", self.ema_beta.to_json()),
            ("merge_weight", self.merge_weight.to_json()),
        ])
    }
}

impl FromJson for Arm {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            algorithm: AlgorithmKind::from_json(v.field("algorithm")?)?,
            label: Option::from_json(v.field("label")?)?,
            monitor_period_s: Option::from_json(v.field("monitor_period_s")?)?,
            ema_beta: Option::from_json(v.field("ema_beta")?)?,
            merge_weight: Option::from_json(v.field("merge_weight")?)?,
        })
    }
}

/// Which summary metrics an experiment's artifact reports (the full loss
/// curves are always recorded inside each cell's `RunReport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Simulated seconds to the common loss target (Fig. 8/9-style).
    TimeToTarget,
    /// Per-epoch computation/communication cost split (Fig. 5/6-style).
    EpochCost,
    /// Final test accuracy (Table II/III/V-style).
    Accuracy,
    /// Seconds to a common test-accuracy target (Fig. 19-style).
    TimeToAccuracy,
    /// Straggler view: the slowest node's seconds-per-epoch (ablation 4).
    Straggler,
    /// Intra- vs inter-machine iteration-time identity (Fig. 3; computed
    /// from the model profiles, no training cells needed).
    IterationTime,
}

impl MetricKind {
    /// Stable JSON identifier.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::TimeToTarget => "time_to_target",
            MetricKind::EpochCost => "epoch_cost",
            MetricKind::Accuracy => "accuracy",
            MetricKind::TimeToAccuracy => "time_to_accuracy",
            MetricKind::Straggler => "straggler",
            MetricKind::IterationTime => "iteration_time",
        }
    }

    /// Inverse of [`MetricKind::name`].
    pub fn by_name(name: &str) -> Option<MetricKind> {
        [
            MetricKind::TimeToTarget,
            MetricKind::EpochCost,
            MetricKind::Accuracy,
            MetricKind::TimeToAccuracy,
            MetricKind::Straggler,
            MetricKind::IterationTime,
        ]
        .into_iter()
        .find(|m| m.name() == name)
    }
}

impl ToJson for MetricKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for MetricKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str()?;
        MetricKind::by_name(name)
            .ok_or_else(|| JsonError::schema(format!("unknown metric `{name}`")))
    }
}

/// One declared experiment: a scenario run under every `(arm, seed)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Unique name (`fig08/resnet18-cifar10`, `abl/ts-period`, …).
    pub name: String,
    /// Group shared by the specs of one figure/table (`fig08`); `run
    /// <group>` executes them together.
    pub group: String,
    /// Human-readable description (paper reference).
    pub title: String,
    /// The scenario every cell runs.
    pub scenario: Scenario,
    /// Algorithm columns.
    pub arms: Vec<Arm>,
    /// Training seeds; each cell overrides the scenario's master seed with
    /// one of these. Empty means "use the scenario's own seed".
    pub seeds: Vec<u64>,
    /// Which summary metrics the artifact reports.
    pub metrics: Vec<MetricKind>,
}

impl ExperimentSpec {
    /// The effective seed list (the scenario's own seed when none given).
    pub fn effective_seeds(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![self.scenario.cfg().seed]
        } else {
            self.seeds.clone()
        }
    }

    /// Number of `(arm, seed)` cells the executor will run.
    pub fn num_cells(&self) -> usize {
        self.arms.len() * self.effective_seeds().len()
    }
}

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("group", self.group.to_json()),
            ("title", self.title.to_json()),
            ("scenario", self.scenario.to_json()),
            ("arms", self.arms.to_json()),
            ("seeds", self.seeds.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for ExperimentSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: String::from_json(v.field("name")?)?,
            group: String::from_json(v.field("group")?)?,
            title: String::from_json(v.field("title")?)?,
            scenario: Scenario::from_json(v.field("scenario")?)?,
            arms: Vec::from_json(v.field("arms")?)?,
            seeds: Vec::from_json(v.field("seeds")?)?,
            metrics: Vec::from_json(v.field("metrics")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_ml::workload::WorkloadSpec;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "test/one".into(),
            group: "test".into(),
            title: "round-trip fixture".into(),
            scenario: Scenario::builder()
                .workers(4)
                .workload(WorkloadSpec::convex_ridge(1))
                .max_epochs(1.0)
                .seed(5)
                .build(),
            arms: vec![
                Arm::new(AlgorithmKind::NetMax),
                Arm::new(AlgorithmKind::NetMax).labeled("Ts=10s").monitor_period(10.0),
                Arm::new(AlgorithmKind::AdPsgd),
            ],
            seeds: vec![5, 6],
            metrics: vec![MetricKind::TimeToTarget, MetricKind::Accuracy],
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let s = spec();
        let text = s.to_json().pretty();
        let back = ExperimentSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Round-tripped specs build equivalent environments.
        let (a, b) = (s.scenario.build_env(), back.scenario.build_env());
        assert_eq!(a.num_nodes(), b.num_nodes());
        for i in 0..a.num_nodes() {
            assert_eq!(a.nodes[i].model.params(), b.nodes[i].model.params());
        }
    }

    #[test]
    fn arm_overrides_change_the_algorithm() {
        let plain = Arm::new(AlgorithmKind::NetMax);
        assert_eq!(plain.instantiate(0.1).name(), "netmax");
        let tweaked = Arm::new(AlgorithmKind::NetMax).fixed_weight(0.5).beta(0.3);
        assert_eq!(tweaked.instantiate(0.1).name(), "netmax");
        assert_eq!(tweaked.label(), "NetMax");
        assert_eq!(tweaked.clone().labeled("fixed 0.5").label(), "fixed 0.5");
    }

    #[test]
    fn monitor_beta_outside_the_unit_interval_is_a_typed_construction_error() {
        use netmax_core::engine::{Session, SessionError};
        for kind in [AlgorithmKind::NetMax, AlgorithmKind::AdPsgdMonitored] {
            for beta in [1.0, f64::NAN] {
                let s = spec();
                let mut algo = Arm::new(kind).beta(beta).instantiate(0.1);
                let mut env = s.scenario.build_env();
                match Session::new(&mut env, algo.driver()) {
                    Err(err) => {
                        assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");
                        assert!(err.to_string().contains("β"), "{kind:?} β = {beta}: {err}");
                    }
                    Ok(mut session) => {
                        session.step();
                        panic!("{kind:?} with β = {beta} passed construction");
                    }
                }
                // The runner's pre-flight check refuses the spec before
                // any cell trains.
                let bad = ExperimentSpec {
                    arms: vec![Arm::new(kind).beta(beta)],
                    ..s
                };
                let opts = crate::runner::RunOptions::default();
                assert!(
                    crate::runner::try_execute(&bad, &opts).is_err(),
                    "{kind:?} β = {beta}"
                );
            }
        }
    }

    #[test]
    fn a_fixed_merge_weight_outside_the_unit_interval_is_a_typed_construction_error() {
        use netmax_core::engine::{Session, SessionError};
        let opens = |arm: &Arm| {
            let s = spec();
            let mut env = s.scenario.build_env();
            let mut algo = arm.instantiate(0.1);
            Session::new(&mut env, algo.driver()).map(drop)
        };
        // A spec document — a suspended run's, say — can carry any finite
        // number; 7.0 used to blend every replica into a NaN curve.
        let parsed = |kind: AlgorithmKind, w: f64| {
            let text = Arm::new(kind).to_json().pretty();
            let text = text.replace("\"merge_weight\": null", &format!("\"merge_weight\": {w:?}"));
            let arm = Arm::from_json(&Json::parse(&text).expect("the document parses"));
            let arm = arm.expect("an arm document");
            assert_eq!(arm.merge_weight, Some(w), "{text}");
            arm
        };
        for kind in [AlgorithmKind::NetMax, AlgorithmKind::NetMaxUniform] {
            for w in [f64::NAN, f64::INFINITY, -0.1, 1.5, 7.0] {
                let from_document = w.is_finite().then(|| parsed(kind, w));
                for arm in [Some(Arm::new(kind).fixed_weight(w)), from_document].iter().flatten() {
                    let err = opens(arm).expect_err("an out-of-range weight opens no session");
                    assert!(matches!(err, SessionError::InvalidConfig(_)), "{err}");
                    assert!(err.to_string().contains("merge weight"), "{kind:?} w = {w}: {err}");
                }
                let bad = ExperimentSpec { arms: vec![Arm::new(kind).fixed_weight(w)], ..spec() };
                let opts = crate::runner::RunOptions::default();
                assert!(crate::runner::try_execute(&bad, &opts).is_err(), "{kind:?} w = {w}");
            }
            // The ablation's weights, and the ends of the interval.
            for w in [0.0, 0.25, 0.5, 1.0] {
                assert!(opens(&Arm::new(kind).fixed_weight(w)).is_ok(), "{kind:?} w = {w}");
                assert!(opens(&parsed(kind, w)).is_ok(), "{kind:?} w = {w} from a document");
            }
        }
    }

    #[test]
    fn cell_count_and_seed_defaults() {
        let mut s = spec();
        assert_eq!(s.num_cells(), 6);
        s.seeds.clear();
        assert_eq!(s.effective_seeds(), vec![5], "falls back to the scenario seed");
        assert_eq!(s.num_cells(), 3);
    }
}
