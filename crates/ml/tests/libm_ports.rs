//! The strict tier's in-crate `expf`/`logf` against the platform libm.
//!
//! `netmax_ml::libm` ports glibc's algorithms so that the strict softmax
//! kernels can vectorise without moving a bit. These tests hold the ports
//! to that: on glibc x86-64 (the platform of `BENCH_sanity.json` and CI)
//! they must equal `f32::exp`/`f32::ln` on every input of their domains,
//! exhaustively in the ignored test,
//!
//! ```text
//! cargo test --release -p netmax-ml --test libm_ports -- --ignored
//! ```
//!
//! and on every 251st bit pattern by default. The digest test runs on
//! every host: it pins the ports' own outputs, so a changed port fails
//! even where no glibc is there to compare with.

use netmax_ml::libm::{expf, logf};
use std::ops::Range;

/// A port, the libm function it must equal, and its domain as bit
/// patterns.
struct Port {
    name: &'static str,
    port: fn(f32) -> f32,
    libm: fn(f32) -> f32,
    domain: &'static [Range<u32>],
}

/// Finite `x` with `|x| < 88`, both signs.
const EXPF: Port = Port {
    name: "expf",
    port: expf,
    libm: f32::exp,
    domain: &[0..0x42b0_0000, 0x8000_0000..0xc2b0_0000],
};

/// The positive normal floats, below 2 and from 2 up.
const LOGF: Port = Port {
    name: "logf",
    port: logf,
    libm: f32::ln,
    domain: &[0x0080_0000..0x4000_0000, 0x4000_0000..0x7f80_0000],
};

/// The two inputs where glibc's `expf` rounds differently when its steps
/// are not fused.
const EXP_FMA_SENSITIVE: [u32; 2] = [0x4202_422f, 0xc27c_65d9];

/// Stride of the default tests: prime, so it visits every residue of the
/// table index bits.
const STRIDE: usize = 251;

fn strided(domain: &[Range<u32>]) -> impl Iterator<Item = u32> + '_ {
    domain.iter().flat_map(|r| r.clone().step_by(STRIDE))
}

/// How many bit patterns of `bits` the port maps to other bits than libm,
/// with the first few for the failure message.
fn mismatches(p: &Port, bits: impl Iterator<Item = u32>) -> (u64, Vec<u32>) {
    let mut count = 0u64;
    let mut first = Vec::new();
    for b in bits {
        // Opaque to the optimiser: LLVM folds a libm call on a constant
        // argument with its own arithmetic, not the platform's.
        let x = std::hint::black_box(f32::from_bits(b));
        if (p.port)(x).to_bits() != (p.libm)(x).to_bits() {
            count += 1;
            if first.len() < 8 {
                first.push(b);
            }
        }
    }
    (count, first)
}

#[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
mod against_glibc {
    use super::*;

    fn assert_equal(p: &Port, bits: impl Iterator<Item = u32>) {
        let (count, first) = mismatches(p, bits);
        assert_eq!(
            count, 0,
            "{}: {count} inputs differ from libm, first {first:08x?}",
            p.name
        );
    }

    #[test]
    fn expf_equals_libm_on_a_stride_of_its_domain() {
        assert_equal(&EXPF, strided(EXPF.domain));
        assert_equal(&EXPF, EXP_FMA_SENSITIVE.into_iter());
    }

    #[test]
    fn logf_equals_libm_on_a_stride_of_its_domain() {
        assert_equal(&LOGF, strided(LOGF.domain));
    }

    /// All 4 368 367 616 inputs of both domains, each range split in two
    /// halves on threads of their own (~15 s in a release build on two
    /// cores).
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn ports_equal_libm_on_every_input_of_their_domains() {
        let halves = [&EXPF, &LOGF].into_iter().flat_map(|p| {
            p.domain.iter().flat_map(move |r| {
                let mid = r.start + (r.end - r.start) / 2;
                [(p, r.start..mid), (p, mid..r.end)]
            })
        });
        std::thread::scope(|scope| {
            let runs: Vec<_> = halves
                .map(|(p, r)| scope.spawn(move || (p.name, r.clone(), mismatches(p, r))))
                .collect();
            for run in runs {
                let (name, r, (count, first)) = run.join().expect("comparison thread panicked");
                assert_eq!(
                    count, 0,
                    "{name} over {r:08x?}: {count} differ, first {first:08x?}"
                );
            }
        });
    }
}

/// FNV-1a over the output bits of both ports on the strided domains.
fn port_digest() -> u64 {
    let outputs = strided(EXPF.domain)
        .chain(EXP_FMA_SENSITIVE)
        .map(|b| expf(f32::from_bits(b)))
        .chain(strided(LOGF.domain).map(|b| logf(f32::from_bits(b))));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for y in outputs {
        for byte in y.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn port_outputs_match_their_pinned_digest_on_every_host() {
    let digest = port_digest();
    assert_eq!(
        digest, 0x6153_570f_ec7a_edb6,
        "the ports' outputs moved: {digest:#018x}"
    );
}

#[test]
fn logf_propagates_nan() {
    assert!(logf(f32::NAN).is_nan());
    assert!(logf(-f32::NAN).is_nan());
}
