//! Run-level engine configuration.

use super::session::SessionError;
use super::stop::StopCondition;
use netmax_json::{FromJson, Json, JsonError, ToJson};
use netmax_ml::NumericsTier;

/// Whether gradient computation and parameter communication overlap.
///
/// Algorithm 2 issues the pull request *before* computing gradients so the
/// two run concurrently and the iteration time is `max(C_i, N_{i,m})`
/// (§II-B). The serial mode (`C_i + N_{i,m}`) exists for the Fig. 7
/// ablation, which quantifies how much that overlap buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Overlapped compute/communication: `t = max(C, N)` (NetMax default).
    Parallel,
    /// Sequential compute then communication: `t = C + N`.
    Serial,
}

impl ExecutionMode {
    /// Iteration time for compute time `c` and communication time `n`.
    #[inline]
    pub fn iteration_time(self, c: f64, n: f64) -> f64 {
        match self {
            ExecutionMode::Parallel => c.max(n),
            ExecutionMode::Serial => c + n,
        }
    }
}

impl ExecutionMode {
    /// Stable JSON identifier.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::Parallel => "parallel",
            ExecutionMode::Serial => "serial",
        }
    }
}

impl ToJson for ExecutionMode {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for ExecutionMode {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "parallel" => Ok(ExecutionMode::Parallel),
            "serial" => Ok(ExecutionMode::Serial),
            other => Err(JsonError::schema(format!("unknown execution mode `{other}`"))),
        }
    }
}

/// Stop conditions and recording cadence for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Stop when the mean per-node epoch count reaches this.
    pub max_epochs: f64,
    /// Hard stop on simulated wall-clock seconds (safety net; generous).
    pub max_wall_clock_s: f64,
    /// Record a metric sample every this many global steps.
    pub record_every_steps: u64,
    /// Examples used for the subsampled training-loss estimate.
    pub loss_sample_size: usize,
    /// Evaluate test accuracy every this many recorded samples
    /// (test evaluation is the most expensive part of recording).
    pub test_eval_every_records: usize,
    /// Compute/communication overlap mode.
    pub execution: ExecutionMode,
    /// Master seed; node init seeds, batch order, and peer selection all
    /// derive from it deterministically.
    pub seed: u64,
    /// Optional declarative stop condition. When set it *replaces* the
    /// `max_epochs` criterion (the `max_wall_clock_s` safety net always
    /// applies on top) — see [`TrainConfig::effective_stop`].
    pub stop: Option<StopCondition>,
    /// Numerics tier the gradient hot path runs under. `Strict` (the
    /// default) is bit-stable against the committed baselines; `Fast`
    /// opts in to the reassociated kernel family. The tier is recorded in
    /// checkpoints so a resume can never silently cross tiers.
    pub tier: NumericsTier,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_epochs: 10.0,
            max_wall_clock_s: 1e7,
            record_every_steps: 50,
            loss_sample_size: 512,
            test_eval_every_records: 5,
            execution: ExecutionMode::Parallel,
            seed: 42,
            stop: None,
            tier: NumericsTier::Strict,
        }
    }
}

impl ToJson for TrainConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("max_epochs", self.max_epochs.to_json()),
            ("max_wall_clock_s", self.max_wall_clock_s.to_json()),
            ("record_every_steps", self.record_every_steps.to_json()),
            ("loss_sample_size", self.loss_sample_size.to_json()),
            ("test_eval_every_records", self.test_eval_every_records.to_json()),
            ("execution", self.execution.to_json()),
            ("seed", self.seed.to_json()),
            ("stop", self.stop.to_json()),
            ("tier", self.tier.to_json()),
        ])
    }
}

impl FromJson for TrainConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            max_epochs: f64::from_json(v.field("max_epochs")?)?,
            max_wall_clock_s: f64::from_json(v.field("max_wall_clock_s")?)?,
            record_every_steps: u64::from_json(v.field("record_every_steps")?)?,
            loss_sample_size: usize::from_json(v.field("loss_sample_size")?)?,
            test_eval_every_records: usize::from_json(v.field("test_eval_every_records")?)?,
            execution: ExecutionMode::from_json(v.field("execution")?)?,
            seed: u64::from_json(v.field("seed")?)?,
            // Absent in pre-session documents; tolerate for compatibility.
            stop: match v.get("stop") {
                None | Some(Json::Null) => None,
                Some(s) => Some(StopCondition::from_json(s)?),
            },
            // Absent in pre-tier documents; they were all strict.
            tier: match v.get("tier") {
                None | Some(Json::Null) => NumericsTier::Strict,
                Some(t) => NumericsTier::from_json(t)?,
            },
        })
    }
}

impl TrainConfig {
    /// Config scaled for fast unit/integration tests.
    pub fn quick_test() -> Self {
        Self {
            max_epochs: 2.0,
            record_every_steps: 20,
            loss_sample_size: 128,
            ..Self::default()
        }
    }

    /// The stop condition a [`Session`](super::session::Session) runs
    /// under: the explicit [`TrainConfig::stop`] when set (otherwise the
    /// classic `max_epochs` criterion), always composed with the
    /// `max_wall_clock_s` simulated-time safety net so no condition — e.g.
    /// an unreachable loss target — can run a session forever.
    pub fn effective_stop(&self) -> StopCondition {
        let primary = match &self.stop {
            Some(s) => s.clone(),
            None => StopCondition::MaxEpochs(self.max_epochs),
        };
        StopCondition::Any(vec![primary, StopCondition::MaxSimSeconds(self.max_wall_clock_s)])
    }

    /// Validates the configuration, surfacing problems as typed errors at
    /// session construction instead of mid-run panics.
    pub fn validate(&self) -> Result<(), SessionError> {
        let bad = |msg: String| Err(SessionError::InvalidConfig(msg));
        if !(self.max_epochs.is_finite() && self.max_epochs > 0.0) {
            return bad(format!("max_epochs must be finite and positive, got {}", self.max_epochs));
        }
        if !(self.max_wall_clock_s.is_finite() && self.max_wall_clock_s > 0.0) {
            return bad(format!(
                "max_wall_clock_s must be finite and positive, got {}",
                self.max_wall_clock_s
            ));
        }
        if self.record_every_steps == 0 {
            return bad("record_every_steps must be positive".into());
        }
        if self.loss_sample_size == 0 {
            return bad("loss_sample_size must be positive".into());
        }
        if self.test_eval_every_records == 0 {
            return bad("test_eval_every_records must be positive".into());
        }
        if let Some(stop) = &self.stop {
            stop.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_time_modes() {
        assert_eq!(ExecutionMode::Parallel.iteration_time(0.2, 0.5), 0.5);
        assert_eq!(ExecutionMode::Parallel.iteration_time(0.7, 0.5), 0.7);
        assert_eq!(ExecutionMode::Serial.iteration_time(0.2, 0.5), 0.7);
    }

    #[test]
    fn defaults_sane() {
        let c = TrainConfig::default();
        assert!(c.max_epochs > 0.0);
        assert!(c.record_every_steps > 0);
        assert_eq!(c.execution, ExecutionMode::Parallel);
    }

    #[test]
    fn train_config_json_round_trip() {
        let cfg = TrainConfig {
            execution: ExecutionMode::Serial,
            seed: u64::MAX,
            stop: Some(StopCondition::All(vec![
                StopCondition::MaxGlobalSteps(500),
                StopCondition::LossBelow(0.3),
            ])),
            ..TrainConfig::quick_test()
        };
        let back = TrainConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, cfg);
        // Pre-session documents (no `stop` key) still parse.
        let mut legacy = cfg.to_json();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "stop");
        }
        let back = TrainConfig::from_json(&legacy).unwrap();
        assert_eq!(back.stop, None);
    }

    #[test]
    fn tier_round_trips_and_legacy_documents_default_to_strict() {
        let cfg = TrainConfig { tier: NumericsTier::Fast, ..TrainConfig::quick_test() };
        let back =
            TrainConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.tier, NumericsTier::Fast);
        // Pre-tier documents (no `tier` key) parse as strict.
        let mut legacy = cfg.to_json();
        if let Json::Obj(pairs) = &mut legacy {
            pairs.retain(|(k, _)| k != "tier");
        }
        let back = TrainConfig::from_json(&legacy).unwrap();
        assert_eq!(back.tier, NumericsTier::Strict);
        // Unknown tags are typed schema errors, not silent strict.
        let mut bad = cfg.to_json();
        if let Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "tier" {
                    *v = Json::Str("ludicrous".into());
                }
            }
        }
        assert!(TrainConfig::from_json(&bad).is_err());
    }

    #[test]
    fn effective_stop_keeps_the_time_safety_net() {
        let cfg = TrainConfig { stop: Some(StopCondition::LossBelow(0.1)), ..TrainConfig::default() };
        let stop = cfg.effective_stop();
        assert_eq!(
            stop,
            StopCondition::Any(vec![
                StopCondition::LossBelow(0.1),
                StopCondition::MaxSimSeconds(cfg.max_wall_clock_s),
            ])
        );
        assert!(stop.validate().is_ok());
    }

    #[test]
    fn validation_names_the_bad_field() {
        let cfg = TrainConfig { record_every_steps: 0, ..TrainConfig::default() };
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("record_every_steps"), "{err}");
        assert!(TrainConfig::default().validate().is_ok());
    }
}
