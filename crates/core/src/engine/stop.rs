//! Declarative stop conditions for training sessions.
//!
//! The paper's harness stops a run on "epochs reached" or a generous
//! simulated-time safety net; a production control loop needs richer
//! vocabulary — step budgets, loss targets, accuracy targets, and
//! compositions of all of them. [`StopCondition`] is that vocabulary: a
//! pure-data expression tree evaluated by the
//! [`Session`](super::session::Session) after every global step and after
//! every recorded sample, serializable like every other piece of
//! configuration.

use super::environment::Environment;
use super::recorder::Sample;
use super::session::SessionError;
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// When a training session should stop.
///
/// Environment-derived conditions (`MaxEpochs`, `MaxSimSeconds`,
/// `MaxGlobalSteps`) are checked after every global step. Metric-derived
/// conditions (`LossBelow`, `AccuracyAtLeast`) are checked against the most
/// recent recorded [`Sample`], so they take effect at the recording cadence
/// of [`TrainConfig`](super::config::TrainConfig) (and, for accuracy, at
/// the test-evaluation cadence within it).
#[derive(Debug, Clone, PartialEq)]
pub enum StopCondition {
    /// Stop when the mean per-node epoch count reaches the bound.
    MaxEpochs(f64),
    /// Stop when the simulated wall-clock reaches the bound (seconds).
    MaxSimSeconds(f64),
    /// Stop when the global step counter `k` reaches the bound.
    MaxGlobalSteps(u64),
    /// Stop when a recorded sample's training loss is at or below the
    /// target.
    LossBelow(f64),
    /// Stop when a recorded sample's test accuracy is at or above the
    /// target (only samples that evaluated accuracy count).
    AccuracyAtLeast(f64),
    /// Stop when *every* sub-condition holds.
    All(Vec<StopCondition>),
    /// Stop when *any* sub-condition holds.
    Any(Vec<StopCondition>),
}

impl StopCondition {
    /// Evaluates the condition against the environment and the most recent
    /// recorded sample (if any).
    pub fn satisfied(&self, env: &Environment, latest: Option<&Sample>) -> bool {
        match self {
            StopCondition::MaxEpochs(e) => env.mean_epoch() >= *e,
            StopCondition::MaxSimSeconds(s) => env.wall_clock() >= *s,
            StopCondition::MaxGlobalSteps(k) => env.global_step >= *k,
            StopCondition::LossBelow(l) => latest.is_some_and(|s| s.train_loss <= *l),
            StopCondition::AccuracyAtLeast(a) => {
                latest.and_then(|s| s.test_accuracy).is_some_and(|x| x >= *a)
            }
            StopCondition::All(cs) => cs.iter().all(|c| c.satisfied(env, latest)),
            StopCondition::Any(cs) => cs.iter().any(|c| c.satisfied(env, latest)),
        }
    }

    /// Validates the condition tree: budgets must be finite and positive,
    /// targets finite, and compositions must not be empty — an empty
    /// `All` is vacuously true (stops before the first step), an empty
    /// `Any` is never satisfiable (a session stopped by nothing else
    /// would run forever).
    pub fn validate(&self) -> Result<(), SessionError> {
        let bad = |msg: String| Err(SessionError::InvalidConfig(msg));
        match self {
            StopCondition::MaxEpochs(e) if !(e.is_finite() && *e > 0.0) => {
                bad(format!("max_epochs bound must be finite and positive, got {e}"))
            }
            StopCondition::MaxSimSeconds(s) if !(s.is_finite() && *s > 0.0) => {
                bad(format!("max_sim_seconds bound must be finite and positive, got {s}"))
            }
            StopCondition::MaxGlobalSteps(0) => {
                bad("max_global_steps bound must be positive".into())
            }
            StopCondition::LossBelow(l) if !l.is_finite() => {
                bad(format!("loss target must be finite, got {l}"))
            }
            StopCondition::AccuracyAtLeast(a) if !a.is_finite() => {
                bad(format!("accuracy target must be finite, got {a}"))
            }
            StopCondition::All(cs) => {
                if cs.is_empty() {
                    return bad("empty `all` stop condition is vacuously true".into());
                }
                cs.iter().try_for_each(StopCondition::validate)
            }
            StopCondition::Any(cs) => {
                if cs.is_empty() {
                    return bad("empty `any` stop condition is never satisfiable".into());
                }
                cs.iter().try_for_each(StopCondition::validate)
            }
            _ => Ok(()),
        }
    }
}

impl ToJson for StopCondition {
    fn to_json(&self) -> Json {
        match self {
            StopCondition::MaxEpochs(e) => Json::obj([("max_epochs", e.to_json())]),
            StopCondition::MaxSimSeconds(s) => Json::obj([("max_sim_seconds", s.to_json())]),
            StopCondition::MaxGlobalSteps(k) => Json::obj([("max_global_steps", k.to_json())]),
            StopCondition::LossBelow(l) => Json::obj([("loss_below", l.to_json())]),
            StopCondition::AccuracyAtLeast(a) => {
                Json::obj([("accuracy_at_least", a.to_json())])
            }
            StopCondition::All(cs) => Json::obj([("all", cs.to_json())]),
            StopCondition::Any(cs) => Json::obj([("any", cs.to_json())]),
        }
    }
}

impl FromJson for StopCondition {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(e) = v.get("max_epochs") {
            Ok(StopCondition::MaxEpochs(f64::from_json(e)?))
        } else if let Some(s) = v.get("max_sim_seconds") {
            Ok(StopCondition::MaxSimSeconds(f64::from_json(s)?))
        } else if let Some(k) = v.get("max_global_steps") {
            Ok(StopCondition::MaxGlobalSteps(u64::from_json(k)?))
        } else if let Some(l) = v.get("loss_below") {
            Ok(StopCondition::LossBelow(f64::from_json(l)?))
        } else if let Some(a) = v.get("accuracy_at_least") {
            Ok(StopCondition::AccuracyAtLeast(f64::from_json(a)?))
        } else if let Some(cs) = v.get("all") {
            Ok(StopCondition::All(Vec::from_json(cs)?))
        } else if let Some(cs) = v.get("any") {
            Ok(StopCondition::Any(Vec::from_json(cs)?))
        } else {
            Err(JsonError::schema("unknown stop condition variant".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let cond = StopCondition::Any(vec![
            StopCondition::All(vec![
                StopCondition::MaxEpochs(12.5),
                StopCondition::LossBelow(0.42),
            ]),
            StopCondition::MaxSimSeconds(3600.0),
            StopCondition::MaxGlobalSteps(100_000),
            StopCondition::AccuracyAtLeast(0.9),
        ]);
        let text = cond.to_json().pretty();
        let back = StopCondition::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cond);
    }

    #[test]
    fn validation_rejects_degenerate_conditions() {
        assert!(StopCondition::MaxEpochs(0.0).validate().is_err());
        assert!(StopCondition::MaxSimSeconds(f64::INFINITY).validate().is_err());
        assert!(StopCondition::MaxGlobalSteps(0).validate().is_err());
        assert!(StopCondition::LossBelow(f64::NAN).validate().is_err());
        assert!(StopCondition::All(vec![]).validate().is_err());
        assert!(StopCondition::Any(vec![]).validate().is_err());
        assert!(StopCondition::Any(vec![StopCondition::MaxEpochs(-1.0)])
            .validate()
            .is_err());
        assert!(StopCondition::Any(vec![
            StopCondition::MaxEpochs(2.0),
            StopCondition::MaxSimSeconds(10.0)
        ])
        .validate()
        .is_ok());
    }
}
