//! Violating fixture: every rule fires at least once on this file.

use std::collections::HashMap;
use std::time::Instant;

pub enum Mode {
    Fast,
    Slow,
    Off,
}

pub fn clock() -> f64 {
    Instant::now().elapsed().as_secs_f64()
}

pub fn count(m: &HashMap<u32, u32>) -> usize {
    m.len()
}

pub fn dispatch(m: Mode) -> u32 {
    // `Mode::Off` is swallowed by the wildcard arm — exactly the
    // omission the enum-exhaustive rule exists to catch.
    match m {
        Mode::Fast => 1,
        Mode::Slow => 2,
        _ => 0,
    }
}

pub fn hot(xs: &[u32]) -> u32 {
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect(); // audit: allow(closure-alloc) -- x
    doubled.iter().sum()
}

pub fn risky(o: Option<u32>, xs: &[u32]) -> u32 {
    o.unwrap() + o.expect("present") + xs[0]
}
