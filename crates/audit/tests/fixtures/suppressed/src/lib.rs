//! Suppressed fixture: the same violations as the violating fixture, each
//! excused with a reasoned `audit: allow` directive.

// audit: allow(determinism-time) -- fixture: exercises line-above placement on a use item
use std::time::Instant;

pub fn clock() -> f64 {
    // audit: allow(determinism-time) -- fixture: exercises line-above placement in a body
    Instant::now().elapsed().as_secs_f64()
}

pub fn tally(seen: &mut std::collections::HashSet<u32>, v: u32) -> bool { // audit: allow(determinism-hash) -- fixture: exercises same-line placement
    seen.insert(v)
}

pub fn hot(xs: &[u32]) -> u32 {
    // audit: allow(closure-alloc) -- fixture: the collect below is the point
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
    doubled.iter().sum()
}
