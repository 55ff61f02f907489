//! The numerics-tier seam: [`NumericsTier`] and the tier-carrying
//! [`KernelTable`].
//!
//! The reproduction's headline guarantee is *byte-identity*: the strict
//! tier re-runs the committed `BENCH_sanity.json` bit-for-bit, which pins
//! scalar `exp`/`ln` and the exact FP accumulation order of every kernel.
//! The paper's claims, however, are statistical — loss/accuracy
//! trajectories and time-to-target orderings — so an opt-in **fast** tier
//! may reassociate sums and use polynomial `exp`/`ln` with bounded error,
//! as long as the two tiers are validated against each other by the
//! `equivalence/*` benchmark group.
//!
//! The seam is a *kernel table*, not a per-call-site flag: a
//! [`Scratch`](crate::model::Scratch) carries a `&'static KernelTable`
//! chosen once from the training configuration, model entry points branch
//! a single time on [`KernelTable::tier`], and everything downstream
//! dispatches through the table's function pointers. The strict and fast
//! kernel families never share accumulation code paths — an invariant the
//! audit's `tier-isolation` closure rule enforces statically.

use crate::{fast, params};
use netmax_json::{FromJson, Json, JsonError, ToJson};

/// Which numerics contract the training hot path runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NumericsTier {
    /// Bit-stable reference numerics: scalar `exp`/`ln`, strictly
    /// sequential accumulation order. Re-runs the committed baselines
    /// byte-for-byte; the CI reference tier.
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

    /// The kernel table this tier dispatches through.
    pub fn kernels(self) -> &'static KernelTable {
        match self {
            NumericsTier::Strict => &STRICT,
            NumericsTier::Fast => &FAST,
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

/// One tier's kernel family behind function pointers.
///
/// A table is selected once (per [`Scratch`](crate::model::Scratch), from
/// the session's `TrainConfig`) and threaded through the hot path; model
/// code calls `(table.dot)(…)` instead of branching on the tier at every
/// call site. The `STRICT` table points at the crate's public strict
/// kernels ([`crate::params`]); the `FAST` table points at the
/// reassociated family ([`crate::fast`]). The two families are disjoint
/// by construction and by audit.
#[derive(Debug)]
pub struct KernelTable {
    /// Which tier these kernels implement.
    pub tier: NumericsTier,
    /// Dot product.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Squared L2 norm.
    pub norm_sq: fn(&[f32]) -> f32,
    /// `y += a · x`.
    pub axpy: fn(f32, &[f32], &mut [f32]),
    /// Elementwise mean of equally-long vectors into `out`.
    pub mean_into: fn(&[&[f32]], &mut [f32]),
    /// Scalar `eˣ`.
    pub exp: fn(f32) -> f32,
    /// Scalar `ln x`.
    pub ln: fn(f32) -> f32,
}

#[inline]
fn exp_strict(x: f32) -> f32 {
    x.exp()
}

#[inline]
fn ln_strict(x: f32) -> f32 {
    x.ln()
}

/// The bit-stable reference kernels.
pub static STRICT: KernelTable = KernelTable {
    tier: NumericsTier::Strict,
    dot: params::dot,
    norm_sq: params::norm_sq,
    axpy: params::axpy,
    mean_into: params::mean_into,
    exp: exp_strict,
    ln: ln_strict,
};

/// The reassociated throughput kernels.
pub static FAST: KernelTable = KernelTable {
    tier: NumericsTier::Fast,
    dot: fast::dot_fast,
    norm_sq: fast::norm_sq_fast,
    axpy: fast::axpy_fast,
    mean_into: fast::mean_into_fast,
    exp: fast::exp_fast,
    ln: fast::ln_fast,
};

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

    #[test]
    fn tables_carry_their_tier() {
        assert_eq!(STRICT.tier, NumericsTier::Strict);
        assert_eq!(FAST.tier, NumericsTier::Fast);
        assert_eq!(NumericsTier::Strict.kernels().tier, NumericsTier::Strict);
        assert_eq!(NumericsTier::Fast.kernels().tier, NumericsTier::Fast);
    }

    #[test]
    fn strict_table_matches_the_reference_kernels() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let y = [0.5f32, -1.0, 2.0, 0.25];
        assert_eq!((STRICT.dot)(&x, &y).to_bits(), params::dot(&x, &y).to_bits());
        assert_eq!((STRICT.norm_sq)(&x).to_bits(), params::norm_sq(&x).to_bits());
        assert_eq!((STRICT.exp)(1.5).to_bits(), 1.5f32.exp().to_bits());
        assert_eq!((STRICT.ln)(1.5).to_bits(), 1.5f32.ln().to_bits());
    }
}
