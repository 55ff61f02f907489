//! The numerics-tier seam: [`NumericsTier`].
//!
//! The reproduction's headline guarantee is *byte-identity*: the strict
//! tier re-runs the committed `BENCH_sanity.json` bit-for-bit, which pins
//! glibc's `exp`/`ln` bits and the exact FP accumulation order of every
//! kernel. The strict softmax kernels compute those bits with the
//! in-crate ports of [`crate::libm`], which match glibc on every input
//! they see, rather than calling the platform's libm.
//! The paper's claims, however, are statistical — loss/accuracy
//! trajectories and time-to-target orderings — so an opt-in **fast** tier
//! may reassociate sums and use polynomial `exp`/`ln` with bounded error,
//! as long as the two tiers are validated against each other by the
//! `equivalence/*` benchmark group.
//!
//! The seam is a tag, not a per-call-site flag: a
//! [`Scratch`](crate::model::Scratch) carries the tier chosen once from
//! the training configuration, each model's gradient entry point branches
//! a single time on it, and the fast cores call the [`crate::fast`]
//! kernels by name. The strict and fast kernel families never share
//! accumulation code paths — an invariant the audit's `tier-isolation`
//! closure rule enforces statically over those call edges.

use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Which numerics contract the training hot path runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NumericsTier {
    /// Bit-stable reference numerics: glibc's `exp`/`ln` bits (in-crate
    /// ports in the softmax kernels), strictly sequential accumulation
    /// order. Re-runs the committed baselines byte-for-byte; the CI
    /// reference tier.
    #[default]
    Strict,
    /// Reassociated throughput numerics: multi-accumulator reductions and
    /// polynomial `exp`/`ln` with bounded relative error
    /// (see [`crate::fast`]). Statistically equivalent, not bit-equal.
    Fast,
}

impl NumericsTier {
    /// Stable lowercase name (JSON tag and CLI value).
    pub fn tier_name(self) -> &'static str {
        match self {
            NumericsTier::Strict => "strict",
            NumericsTier::Fast => "fast",
        }
    }

    /// Parses a CLI/JSON tag; `None` for anything but `strict`/`fast`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(NumericsTier::Strict),
            "fast" => Some(NumericsTier::Fast),
            _ => None,
        }
    }
}

impl ToJson for NumericsTier {
    fn to_json(&self) -> Json {
        Json::Str(self.tier_name().into())
    }
}

impl FromJson for NumericsTier {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let name = v.as_str()?;
        NumericsTier::from_name(name).ok_or_else(|| {
            JsonError::schema(format!("unknown numerics tier `{name}` (strict|fast)"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for t in [NumericsTier::Strict, NumericsTier::Fast] {
            assert_eq!(NumericsTier::from_name(t.tier_name()), Some(t));
            let back = NumericsTier::from_json(&t.to_json()).unwrap();
            assert_eq!(back, t);
        }
        assert_eq!(NumericsTier::from_name("fastest"), None);
        assert!(NumericsTier::from_json(&Json::Str("ludicrous".into())).is_err());
        assert!(NumericsTier::from_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn default_is_strict() {
        assert_eq!(NumericsTier::default(), NumericsTier::Strict);
    }
}
