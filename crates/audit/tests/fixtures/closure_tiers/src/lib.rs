//! Tier-isolation fixture: a strict root and a fast root that both reach
//! one shared numeric helper. The `tier-isolation` rule must flag the
//! helper, and a policy `prune` must silence it.

/// The `strict_numerics` root.
pub fn strict_root(xs: &mut [f64]) {
    shared_accum(xs);
}

/// The `fast_numerics` root.
pub fn fast_root(xs: &mut [f64]) {
    shared_accum(xs);
}

/// The helper both tiers reach — the isolation violation.
fn shared_accum(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x *= 2.0;
    }
}
