//! In-crate `expf` and `logf`: the strict tier's transcendentals.
//!
//! `f32::exp` and `f32::ln` are calls into the platform's libm, one opaque
//! call per element, so a softmax row cannot vectorise around them. These
//! are ports of glibc's algorithms (`sysdeps/ieee754/flt-32/e_expf.c` and
//! `e_logf.c`, unchanged since glibc 2.28) as glibc's x86-64 FMA build
//! computes them: every step that build fuses is a [`f64::mul_add`] here,
//! and every other step is the same IEEE operation in the same order. On
//! its domain each port returns glibc's bits:
//!
//! * [`expf`]: every finite `x` with `|x| < 88`, glibc's fast path;
//! * [`logf`]: every positive normal `x`.
//!
//! `crates/ml/tests/libm_ports.rs` compares both with libm over those
//! domains exhaustively (an ignored test that CI runs) and over a stride by
//! default. Both are table-driven, branch-free and inline into the
//! kernels that call them.
//!
//! The bits do not depend on the host: `mul_add` is a fused multiply-add
//! where the target has one and a correctly rounded libm `fma` call where
//! it does not, and both round once. glibc's own `expf` picks its build by
//! the host's FMA support, and evaluated with no step fused the same
//! algorithm differs at two inputs of the domain above (`0x4202422f` and
//! `0xc27c65d9`).

/// `2^(i/32)` as `f64` bits, less `i << 47`: adding `k << 47` for any
/// integer `k ≡ i (mod 32)` yields the bits of `2^(k/32)`.
#[rustfmt::skip]
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5·2⁵²`: adding it rounds a double of magnitude below 2⁵¹ to an
/// integer, which then sits in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// Cubic for `2^(r/32)`, `r ∈ [−½, ½]`: `1 + C2·r + C1·r² + C0·r³`.
const EXP_C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const EXP_C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const EXP_C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);

/// glibc's `expf` on finite `|x| < 88`, bit for bit.
///
/// `x·32/ln 2 = k + r` with integer `k` and `|r| ≤ ½`; then
/// `eˣ = 2^(k/32) · 2^(r/32)`, the first factor from a 32-entry table and
/// the exponent bits, the second from a cubic, all in `f64`, rounded to
/// `f32` once. Outside that domain (NaN, ±∞, `|x| ≥ 88`) the result is
/// unspecified: callers check the domain and call `f32::exp` there.
#[inline(always)]
pub fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = r.mul_add(EXP_C0, EXP_C1);
    let r2 = r * r;
    let y = r.mul_add(EXP_C2, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// `(1/c, ln c)` for the centre `c` of each of the 16 subintervals of
/// `[OFF, 2·OFF)` that [`logf`] reduces its argument to, as `f64` bits.
const LOGF_TAB: [(u64, u64); 16] = [
    (0x3ff661ec79f8f3be, 0xbfd57bf7808caade),
    (0x3ff571ed4aaf883d, 0xbfd2bef0a7c06ddb),
    (0x3ff49539f0f010b0, 0xbfd01eae7f513a67),
    (0x3ff3c995b0b80385, 0xbfcb31d8a68224e9),
    (0x3ff30d190c8864a5, 0xbfc6574f0ac07758),
    (0x3ff25e227b0b8ea0, 0xbfc1aa2bc79c8100),
    (0x3ff1bb4a4a1a343f, 0xbfba4e76ce8c0e5e),
    (0x3ff12358f08ae5ba, 0xbfb1973c5a611ccc),
    (0x3ff0953f419900a7, 0xbfa252f438e10c1e),
    (0x3ff0000000000000, 0x0000000000000000),
    (0x3fee608cfd9a47ac, 0x3faaa5aa5df25984),
    (0x3feca4b31f026aa0, 0x3fbc5e53aa362eb4),
    (0x3feb2036576afce6, 0x3fc526e57720db08),
    (0x3fe9c2d163a1aa2d, 0x3fcbc2860d224770),
    (0x3fe886e6037841ed, 0x3fd1058bc8a07ee1),
    (0x3fe767dcf5534862, 0x3fd4043057b6ee09),
];

/// Bits of `OFF ≈ 0.7`, the bottom of the reduced range.
const LOGF_OFF: u32 = 0x3f33_0000;
/// `ln 2`.
const LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);
/// Quadratic-and-cubic part of `ln(1 + r)`: `r + A2·r² + A1·r³ + A0·r⁴`.
const LOG_A0: f64 = f64::from_bits(0xbfd00ea348b88334);
const LOG_A1: f64 = f64::from_bits(0x3fd5575b0be00b6a);
const LOG_A2: f64 = f64::from_bits(0xbfdffffef20a4123);

/// glibc's `logf` on positive normal `x`, bit for bit; NaN returns NaN.
///
/// `x = 2ᵏ·z` with `z ∈ [OFF, 2·OFF)` exact; with `c` the centre of
/// `z`'s subinterval, `ln x = ln(1 + (z/c − 1)) + ln c + k·ln 2`, the log1p
/// by a polynomial in `f64`, rounded to `f32` once. Zero, negatives,
/// subnormals and `+∞` are outside the domain and give unspecified
/// results; the strict loss only takes the log of a clamped probability
/// in `[1e-12, 1]`.
#[inline(always)]
pub fn logf(x: f32) -> f32 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LOGF_OFF);
    let (invc, logc) = LOGF_TAB[((tmp >> 19) % 16) as usize];
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z.mul_add(f64::from_bits(invc), -1.0);
    let y0 = f64::from(k).mul_add(LN2, f64::from_bits(logc));
    let r2 = r * r;
    let y = r.mul_add(LOG_A1, LOG_A2);
    let y = r2.mul_add(LOG_A0, y);
    let y = r2.mul_add(y, r + y0) as f32;
    if x.is_nan() {
        x
    } else {
        y
    }
}
