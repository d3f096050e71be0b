//! Vectorization-friendly math kernels for the columnar hot path.
//!
//! Three families live here, all shared by **every** execution engine —
//! the columnar tile, the lockstep oracle, and the abstract interpreter's
//! constant folder — so that bitwise parity between engines is automatic:
//!
//! 1. **Polynomial transcendentals** ([`sin`], [`cos`], [`tan`], [`asin`],
//!    [`acos`], [`atan`], [`exp`], [`ln`]): classic
//!    fdlibm/musl-style range reduction + minimax polynomials, written as
//!    straight-line, branch-light scalar code that inlines into the plane
//!    loops. [`exp_plane`], [`sin_plane`], [`cos_plane`], and [`ln_plane`]
//!    are two-pass plane variants whose first pass is fully branch-free
//!    (selects only), so the autovectorizer can chew through the whole
//!    `[f64; n_stocks]` cross-section; a second pass patches the rare
//!    inputs the branch-free core does not cover (huge trig arguments,
//!    non-positive logs) with bit-identical scalar results.
//! 2. **Blocked `mat_mul`** ([`mat_mul_planes`]): register-blocked over
//!    the stock axis. Each output plane is produced strip-by-strip with
//!    the running sums held in a stack array (registers) instead of
//!    read-modify-writing the scratch plane once per inner-product term.
//! 3. **Reusable ranking** ([`RankCache`], [`rank_key`]): `rel_rank*`
//!    sorts are keyed by a monotone `u64` image of `f64` and seeded from
//!    the previous cross-section's permutation. When consecutive
//!    cross-sections are near-identical the O(K log K) argsort collapses
//!    to an O(K) sortedness check; otherwise the full sort runs as the
//!    correctness fallback.
//!
//! # Range-reduction strategy
//!
//! * `exp`: `k = round(x·log2 e)` via the 1.5·2^52 magic-number trick
//!   (round-to-nearest-even without `roundsd`, which baseline x86-64
//!   lacks), two-part Cody–Waite `ln 2`, fdlibm's rational kernel for
//!   `e^r`, then an exact two-step power-of-two scale that covers the
//!   whole binade range including subnormal results. Fully branch-free:
//!   inputs are pre-clamped to `[-746, 710]`, which only saturates inputs
//!   whose results are exactly `0`/`+∞` anyway, and NaN propagates.
//! * `ln`: decompose `x = 2^k·m` with `m ∈ [√2/2, √2)` by exponent-bit
//!   surgery (subnormals pre-scaled by `2^54`), then fdlibm's
//!   `s = f/(2+f)` polynomial with two-part Cody–Waite `ln 2`.
//! * `sin`/`cos`/`tan`: `n = round(x·2/π)` with a **three-part**
//!   Cody–Waite π/2 (run unconditionally — branch-free and exact while
//!   `n` fits 20 bits), then the musl `__sin`/`__cos`/`__tan` kernels on
//!   the reduced argument and its low word. Arguments with
//!   `|x| ≥ 2^20·π/2 ≈ 1.6e6` (where `n·π/2` splits stop being exact)
//!   fall back to the host libm; the plane variants patch those lanes in
//!   the second pass.
//! * `asin`/`acos`: fdlibm rational kernel for `|x| ≤ 0.5`, the
//!   `√((1−x)/2)` identity with a split-word correction beyond.
//! * `atan`: fdlibm four-interval reduction onto `[0, 7/16)` plus an
//!   11-term odd polynomial; total for every input (no fallback).
//!
//! # ULP bounds
//!
//! Every kernel is accurate to **≤ 2 ULP** of the correctly rounded
//! result (the fdlibm/musl kernels are proven < 1 ULP; our unconditional
//! reduction only tightens their error). The proptest battery
//! (`crates/core/tests/kernels_ulp.rs`) enforces **≤ 4 ULP against the
//! host libm** across the full domain, including NaN/±∞/subnormal edges
//! — two ≤ 2 ULP implementations can legitimately differ by 4.
//!
//! # Bit-pattern policy
//!
//! These kernels intentionally do **not** reproduce the host libm bit
//! patterns — they replace them. What is contractual:
//!
//! * the columnar tile and the lockstep oracle call the *same* kernel
//!   functions in the same per-stock order, so the two engines stay
//!   bit-identical to each other;
//! * the abstract interpreter's constant folder
//!   ([`crate::absint`]) folds through the same kernels, so
//!   canonicalization-time arithmetic equals run-time arithmetic;
//! * ranking output bits are **unchanged**: the keyed order differs from
//!   the old comparator only inside equal-value tie groups, and ranks are
//!   averaged over tie groups.
//!
//! Swapping libm for these kernels may therefore change evaluation bit
//! patterns wherever a transcendental executes, which would require
//! re-pinning the fixed-seed fingerprint regression (the legitimacy
//! rules for such re-pins are documented in `results/README.md`). For
//! this swap no re-pin was needed: the pinned search's winning alpha has
//! no transcendental on its live path, and the rank and `mat_mul`
//! kernels are bit-identical to the loops they replaced by construction.

// The fdlibm/musl coefficients are written with every decimal digit of
// their source bit patterns; the extra digits are what makes the literal
// round to the exact intended f64. Constants resembling π/2, 2/π, … are
// *deliberately* not the std consts: they are Cody–Waite split parts
// whose exact bit patterns the reduction depends on. And the negated
// comparisons (`!(x < LIMIT)`) are load-bearing: unlike `x >= LIMIT`,
// they route NaN lanes into the patch pass.
#![allow(
    clippy::excessive_precision,
    clippy::approx_constant,
    clippy::neg_cmp_op_on_partial_ord
)]

use crate::relation::GroupSlices;

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

/// 1.5·2^52: adding then subtracting rounds to nearest-even and leaves the
/// integer in the low mantissa bits (SSE2 has no `roundsd`).
const MAGIC: f64 = 6_755_399_441_055_744.0;

const LOG2E: f64 = 1.442_695_040_888_963_87e0;
const EXP_LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
const EXP_LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const EXP_P1: f64 = 1.666_666_666_666_660_190_37e-1;
const EXP_P2: f64 = -2.777_777_777_701_559_338_42e-3;
const EXP_P3: f64 = 6.613_756_321_437_934_361_17e-5;
const EXP_P4: f64 = -1.653_390_220_546_525_153_90e-6;
const EXP_P5: f64 = 4.138_136_797_057_238_460_39e-8;

/// `2^n` for `|n| ≤ 1023` by exponent construction (no `ldexp` call).
#[inline]
fn pow2i(n: i64) -> f64 {
    f64::from_bits(((1023 + n) as u64) << 52)
}

/// `e^x`, branch-free. ≤ 1 ULP; overflows to `+∞` above ~709.78,
/// underflows through the subnormals to `0` below ~−745.13; NaN
/// propagates.
#[inline]
pub fn exp(x: f64) -> f64 {
    // Saturating clamp: outside [-746, 710] the result is exactly 0/+inf,
    // which the scaled tail below produces from the clamped input too.
    let xc = if x > 710.0 { 710.0 } else { x };
    let xc = if xc < -746.0 { -746.0 } else { xc };
    let kd = xc * LOG2E + MAGIC;
    let k = kd.to_bits() as u32 as i32 as i64;
    let kf = kd - MAGIC;
    let hi = xc - kf * EXP_LN2_HI;
    let lo = kf * EXP_LN2_LO;
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (EXP_P1 + t * (EXP_P2 + t * (EXP_P3 + t * (EXP_P4 + t * EXP_P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // Exact two-step 2^k scale: k ∈ [-1076, 1025] splits into halves that
    // both stay inside the normal exponent range, so only the final
    // multiply can round (into the subnormals) or saturate (to +inf).
    let k1 = k >> 1;
    y * pow2i(k1) * pow2i(k - k1)
}

/// Plane `exp`: the branch-free scalar kernel is total, so this is one
/// autovectorizable pass. `dst` and `src` may fully alias.
#[inline]
pub fn exp_plane(src: &[f64], dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = exp(x);
    }
}

// ---------------------------------------------------------------------------
// ln
// ---------------------------------------------------------------------------

const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const LG1: f64 = 6.666_666_666_666_735_13e-1;
const LG2: f64 = 3.999_999_999_940_941_908e-1;
const LG3: f64 = 2.857_142_874_366_239_149e-1;
const LG4: f64 = 2.222_219_843_214_978_396e-1;
const LG5: f64 = 1.818_357_216_161_805_012e-1;
const LG6: f64 = 1.531_383_769_920_937_332e-1;
const LG7: f64 = 1.479_819_860_511_658_591e-1;

/// Branch-free log core for *normal* positive finite `x` (at least
/// [`f64::MIN_POSITIVE`]). Subnormal / non-positive / non-finite inputs
/// produce garbage without panicking; callers patch them via [`ln_core`]
/// and [`ln_special`]. For normal inputs this is bit-identical to
/// [`ln_core`] (whose subnormal pre-scale selects are no-ops there).
#[inline]
fn ln_norm(x: f64) -> f64 {
    ln_with_k0(x, 0)
}

/// Branch-free (selects only) log core, valid for positive finite `x`
/// including subnormals. Other inputs produce garbage without panicking;
/// callers patch them via [`ln_special`].
#[inline]
fn ln_core(x: f64) -> f64 {
    // Subnormal pre-scale by 2^54 (exact), folded in via selects.
    let sub = x < f64::MIN_POSITIVE;
    let x = if sub { x * 18_014_398_509_481_984.0 } else { x };
    let k0: i64 = if sub { -54 } else { 0 };
    ln_with_k0(x, k0)
}

/// Shared log tail: `x` must be normal positive finite; `k0` is the
/// caller's exponent adjustment from any exact pre-scale.
#[inline]
fn ln_with_k0(x: f64, k0: i64) -> f64 {
    let bits = x.to_bits();
    let mut k = k0 + ((bits >> 52) as i64) - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Normalize the mantissa from [1, 2) to [√2/2, √2): halving is exact.
    let hi = m > std::f64::consts::SQRT_2;
    let m = if hi { m * 0.5 } else { m };
    k += hi as i64;
    let kf = k as f64;
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    kf * LN2_HI - ((hfsq - (s * (hfsq + r) + kf * LN2_LO)) - f)
}

/// The non-positive / non-finite cases of `ln`.
#[inline]
fn ln_special(x: f64) -> f64 {
    if x == 0.0 {
        f64::NEG_INFINITY
    } else if x < 0.0 {
        f64::NAN
    } else {
        // +inf -> +inf, NaN -> NaN.
        x
    }
}

/// Natural log. ≤ 1 ULP; `ln(0) = −∞`, `ln(x<0) = NaN`, total otherwise.
#[inline]
pub fn ln(x: f64) -> f64 {
    if x > 0.0 && x < f64::INFINITY {
        ln_core(x)
    } else {
        ln_special(x)
    }
}

/// Plane `ln`: branch-free first pass over every lane, then a patch pass
/// for non-positive / non-finite lanes. `src` must not alias `dst` (the
/// interpreter stages the input through its lane scratch).
#[inline]
pub fn ln_plane(src: &[f64], dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = ln_norm(x);
    }
    // Non-short-circuiting OR fold: the scan vectorizes, and the branchy
    // per-lane patch loop (subnormal, non-positive, non-finite) only runs
    // on planes that contain such lanes. `ln` reproduces the exact bits of
    // the subnormal pre-scale path, so plane and scalar agree everywhere.
    let normal = f64::MIN_POSITIVE..f64::INFINITY;
    let any_special = src.iter().fold(false, |acc, x| acc | !normal.contains(x));
    if any_special {
        for (d, x) in dst.iter_mut().zip(src) {
            if !normal.contains(x) {
                *d = ln(*x);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// sin / cos / tan
// ---------------------------------------------------------------------------

/// Reduction validity limit: `n = round(x·2/π)` must stay below 2^20 so
/// the `n·π/2` Cody–Waite products are exact (20 + 33 mantissa bits).
const REDUCE_MAX: f64 = 1.0e6;

const INV_PIO2: f64 = 6.366_197_723_675_813_824_33e-1;
const PIO2_1: f64 = 1.570_796_326_734_125_614_17e0;
const PIO2_2: f64 = 6.077_100_506_303_965_976_60e-11;
const PIO2_3: f64 = 2.022_266_248_711_166_455_80e-21;
const PIO2_3T: f64 = 8.478_427_660_368_899_569_97e-32;

/// `x mod π/2` with a three-part Cody–Waite split, run unconditionally
/// (branch-free). Returns the quadrant `n` and the reduced argument as a
/// high/low pair. Exact only for `|x| < ` [`REDUCE_MAX`].
#[inline]
fn rem_pio2(x: f64) -> (i64, f64, f64) {
    let kd = x * INV_PIO2 + MAGIC;
    let n = kd.to_bits() as u32 as i32 as i64;
    let fnn = kd - MAGIC;
    // Three Cody–Waite rounds, run unconditionally. Round 1 is exact
    // (Sterbenz: x and fn·pio2_1 agree to within π/4; the product itself
    // is exact because fn has ≤ 20 and pio2_1 has 33 mantissa bits). Each
    // split's tail equals the next split pair (pio2_1t ≈ pio2_2 + pio2_2t,
    // pio2_2t ≈ pio2_3 + pio2_3t), so later rounds re-derive the
    // correction at higher precision; the subtraction rounding errors of
    // rounds 2 and 3 are carried into the final correction term.
    let r1 = x - fnn * PIO2_1;
    let w2 = fnn * PIO2_2;
    let r2 = r1 - w2;
    let e2 = (r1 - r2) - w2;
    let w3 = fnn * PIO2_3;
    let r = r2 - w3;
    let e3 = (r2 - r) - w3;
    let w = (fnn * PIO2_3T - e3) - e2;
    let y0 = r - w;
    let y1 = (r - y0) - w;
    (n, y0, y1)
}

const S1: f64 = -1.666_666_666_666_663_243_48e-1;
const S2: f64 = 8.333_333_333_322_489_461_24e-3;
const S3: f64 = -1.984_126_982_985_794_931_34e-4;
const S4: f64 = 2.755_731_370_707_006_767_89e-6;
const S5: f64 = -2.505_076_025_340_686_341_95e-8;
const S6: f64 = 1.589_690_995_211_550_102_21e-10;

/// musl `__sin` on a reduced argument pair, `|x| ≤ π/4`.
#[inline]
fn k_sin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

const C1: f64 = 4.166_666_666_666_660_190_37e-2;
const C2: f64 = -1.388_888_888_887_410_957_49e-3;
const C3: f64 = 2.480_158_728_947_672_941_78e-5;
const C4: f64 = -2.755_731_435_139_066_330_35e-7;
const C5: f64 = 2.087_572_321_298_174_827_90e-9;
const C6: f64 = -1.135_964_755_778_819_482_65e-11;

/// musl `__cos` on a reduced argument pair, `|x| ≤ π/4`.
#[inline]
fn k_cos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// Branch-free sine core: unconditional reduction, both kernels, quadrant
/// select. Valid for `|x| < ` [`REDUCE_MAX`]; garbage (but finite/NaN,
/// never a panic) outside.
#[inline]
fn sin_core(x: f64) -> f64 {
    let (n, y0, y1) = rem_pio2(x);
    let s = k_sin(y0, y1);
    let c = k_cos(y0, y1);
    let r = if n & 1 == 0 { s } else { c };
    let sign = if n & 2 != 0 { -1.0 } else { 1.0 };
    r * sign
}

/// Branch-free cosine core (see [`sin_core`]).
#[inline]
fn cos_core(x: f64) -> f64 {
    let (n, y0, y1) = rem_pio2(x);
    let s = k_sin(y0, y1);
    let c = k_cos(y0, y1);
    let r = if n & 1 == 0 { c } else { s };
    // cos quadrants: +c, -s, -c, +s — negate for n mod 4 in {1, 2}.
    let sign = if (n + 1) & 2 != 0 { -1.0 } else { 1.0 };
    r * sign
}

/// Sine. ≤ 1 ULP for `|x| < 1e6`; host-libm fallback beyond (and for
/// ±∞/NaN, which correctly yield NaN).
#[inline]
pub fn sin(x: f64) -> f64 {
    if x.abs() < REDUCE_MAX {
        sin_core(x)
    } else {
        host_sin(x)
    }
}

/// Cosine (see [`sin`]).
#[inline]
pub fn cos(x: f64) -> f64 {
    if x.abs() < REDUCE_MAX {
        cos_core(x)
    } else {
        host_cos(x)
    }
}

#[inline(never)]
fn host_sin(x: f64) -> f64 {
    x.sin()
}

#[inline(never)]
fn host_cos(x: f64) -> f64 {
    x.cos()
}

#[inline(never)]
fn host_tan(x: f64) -> f64 {
    x.tan()
}

/// Whether any lane falls outside the trig reduction range — a
/// non-short-circuiting OR fold, so the scan itself vectorizes and the
/// per-lane patch branch is only ever taken on planes that need it.
#[inline]
fn any_outside_reduce_range(src: &[f64]) -> bool {
    src.iter()
        .fold(false, |acc, &x| acc | !(x.abs() < REDUCE_MAX))
}

/// Plane sine: branch-free vectorizable pass, then a patch pass for the
/// rare huge/non-finite lanes. `src` must not alias `dst`.
#[inline]
pub fn sin_plane(src: &[f64], dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = sin_core(x);
    }
    if any_outside_reduce_range(src) {
        for (d, &x) in dst.iter_mut().zip(src) {
            if !(x.abs() < REDUCE_MAX) {
                *d = host_sin(x);
            }
        }
    }
}

/// Plane cosine (see [`sin_plane`]).
#[inline]
pub fn cos_plane(src: &[f64], dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = cos_core(x);
    }
    if any_outside_reduce_range(src) {
        for (d, &x) in dst.iter_mut().zip(src) {
            if !(x.abs() < REDUCE_MAX) {
                *d = host_cos(x);
            }
        }
    }
}

const T0: f64 = 3.333_333_333_333_340_919_86e-1;
const T1: f64 = 1.333_333_333_332_012_426_99e-1;
const T2: f64 = 5.396_825_397_622_605_213_77e-2;
const T3: f64 = 2.186_948_829_485_954_245_99e-2;
const T4: f64 = 8.863_239_823_599_300_057_37e-3;
const T5: f64 = 3.592_079_107_591_312_353_56e-3;
const T6: f64 = 1.456_209_454_325_290_255_16e-3;
const T7: f64 = 5.880_412_408_202_640_968_74e-4;
const T8: f64 = 2.464_631_348_184_699_068_12e-4;
const T9: f64 = 7.817_944_429_395_570_923_00e-5;
const T10: f64 = 7.140_724_913_826_081_903_05e-5;
const T11: f64 = -1.855_863_748_552_754_566_54e-5;
const T12: f64 = 2.590_730_518_636_337_128_84e-5;

const PIO4: f64 = 7.853_981_633_974_482_789_99e-1;
const PIO4_LO: f64 = 3.061_616_997_868_383_017_93e-17;

/// musl `__tan` on a reduced argument pair. `odd` selects `tan` (false)
/// or `-1/tan` (true) for odd quadrants.
#[inline]
fn k_tan(mut x: f64, mut y: f64, odd: bool) -> f64 {
    let big = x.abs() >= 0.674_509_803_921_568_6; // 0x3FE59428 high word
    let neg = x.is_sign_negative();
    if big {
        if neg {
            x = -x;
            y = -y;
        }
        x = (PIO4 - x) + (PIO4_LO - y);
        y = 0.0;
    }
    let z = x * x;
    let w = z * z;
    let r = T1 + w * (T3 + w * (T5 + w * (T7 + w * (T9 + w * T11))));
    let v = z * (T2 + w * (T4 + w * (T6 + w * (T8 + w * (T10 + w * T12)))));
    let s = z * x;
    let r = y + z * (s * (r + v) + y) + s * T0;
    let w = x + r;
    if big {
        let sgn = 1.0 - 2.0 * odd as i64 as f64;
        let v = sgn - 2.0 * (x + (r - w * w / (w + sgn)));
        return if neg { -v } else { v };
    }
    if !odd {
        return w;
    }
    // -1/(x+r) with a split-word correction (a plain divide is ~2 ULP).
    let w0 = f64::from_bits(w.to_bits() & 0xFFFF_FFFF_0000_0000);
    let v = r - (w0 - x);
    let a = -1.0 / w;
    let a0 = f64::from_bits(a.to_bits() & 0xFFFF_FFFF_0000_0000);
    a0 + a * (1.0 + a0 * w0 + a0 * v)
}

/// Tangent. ≤ 2 ULP for `|x| < 1e6`; host-libm fallback beyond.
#[inline]
pub fn tan(x: f64) -> f64 {
    if !(x.abs() < REDUCE_MAX) {
        return host_tan(x);
    }
    if x.abs() < std::f64::consts::FRAC_PI_4 {
        return k_tan(x, 0.0, false);
    }
    let (n, y0, y1) = rem_pio2(x);
    k_tan(y0, y1, n & 1 != 0)
}

// ---------------------------------------------------------------------------
// asin / acos / atan
// ---------------------------------------------------------------------------

const PIO2_HI: f64 = 1.570_796_326_794_896_558_00e0;
const PIO2_LO: f64 = 6.123_233_995_736_766_035_87e-17;
const PIO4_HI: f64 = 7.853_981_633_974_482_789_99e-1;
const PS0: f64 = 1.666_666_666_666_666_574_15e-1;
const PS1: f64 = -3.255_658_186_224_009_154_05e-1;
const PS2: f64 = 2.012_125_321_348_629_258_81e-1;
const PS3: f64 = -4.005_553_450_067_941_140_27e-2;
const PS4: f64 = 7.915_349_942_898_145_321_76e-4;
const PS5: f64 = 3.479_331_075_960_211_675_70e-5;
const QS1: f64 = -2.403_394_911_734_414_218_78e0;
const QS2: f64 = 2.020_945_760_233_505_694_71e0;
const QS3: f64 = -6.882_839_716_054_532_930_30e-1;
const QS4: f64 = 7.703_815_055_590_193_527_91e-2;

/// The shared asin/acos rational kernel `R(t) ≈ (asin(√t·…))`.
#[inline]
fn asin_r(t: f64) -> f64 {
    let p = t * (PS0 + t * (PS1 + t * (PS2 + t * (PS3 + t * (PS4 + t * PS5)))));
    let q = 1.0 + t * (QS1 + t * (QS2 + t * (QS3 + t * QS4)));
    p / q
}

/// Arcsine. ≤ 1 ULP; `NaN` outside `[-1, 1]`.
#[inline]
pub fn asin(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= 1.0 {
        if ax == 1.0 {
            // asin(±1) = ±π/2 exactly (to double precision).
            return x * PIO2_HI + x * PIO2_LO;
        }
        return f64::NAN;
    }
    if ax < 0.5 {
        if ax < 7.450_580_596_923_828e-9 {
            // |x| < 2^-27: asin(x) rounds to x.
            return x;
        }
        let t = x * x;
        return x + x * asin_r(t);
    }
    // |x| in [0.5, 1): asin(x) = π/2 - 2·asin(√((1-|x|)/2)).
    let w = 1.0 - ax;
    let t = w * 0.5;
    let r = asin_r(t);
    let s = t.sqrt();
    let t = if ax >= 0.975 {
        PIO2_HI - (2.0 * (s + s * r) - PIO2_LO)
    } else {
        let f = f64::from_bits(s.to_bits() & 0xFFFF_FFFF_0000_0000);
        let c = (t - f * f) / (s + f);
        let p = 2.0 * s * r - (PIO2_LO - 2.0 * c);
        let q = PIO4_HI - 2.0 * f;
        PIO4_HI - (p - q)
    };
    if x.is_sign_negative() {
        -t
    } else {
        t
    }
}

const PI: f64 = 3.141_592_653_589_793_116_00e0;

/// Arccosine. ≤ 1 ULP; `NaN` outside `[-1, 1]`.
#[inline]
pub fn acos(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= 1.0 {
        if x == 1.0 {
            return 0.0;
        }
        if x == -1.0 {
            return PI + 2.0 * PIO2_LO;
        }
        return f64::NAN;
    }
    if ax < 0.5 {
        if ax < 6.938_893_903_907_228e-18 {
            // |x| < 2^-57: acos(x) rounds to π/2.
            return PIO2_HI + PIO2_LO;
        }
        let z = x * x;
        let r = asin_r(z);
        return PIO2_HI - (x - (PIO2_LO - x * r));
    }
    if x <= -0.5 {
        let z = (1.0 + x) * 0.5;
        let r = asin_r(z);
        let s = z.sqrt();
        let w = r * s - PIO2_LO;
        return PI - 2.0 * (s + w);
    }
    // x > 0.5.
    let z = (1.0 - x) * 0.5;
    let s = z.sqrt();
    let df = f64::from_bits(s.to_bits() & 0xFFFF_FFFF_0000_0000);
    let c = (z - df * df) / (s + df);
    let r = asin_r(z);
    let w = r * s + c;
    2.0 * (df + w)
}

const ATAN_HI: [f64; 4] = [
    4.636_476_090_008_060_935_15e-1,
    7.853_981_633_974_482_789_99e-1,
    9.827_937_232_473_290_540_82e-1,
    1.570_796_326_794_896_558_00e0,
];
const ATAN_LO: [f64; 4] = [
    2.269_877_745_296_168_709_24e-17,
    3.061_616_997_868_383_017_93e-17,
    1.390_331_103_123_099_845_16e-17,
    6.123_233_995_736_766_035_87e-17,
];
const AT: [f64; 11] = [
    3.333_333_333_333_293_180_27e-1,
    -1.999_999_999_987_648_324_76e-1,
    1.428_571_427_250_346_637_11e-1,
    -1.111_111_040_546_235_578_80e-1,
    9.090_887_133_436_506_561_96e-2,
    -7.691_876_205_044_829_994_95e-2,
    6.661_073_137_387_531_206_69e-2,
    -5.833_570_133_790_573_486_45e-2,
    4.976_877_994_615_932_360_17e-2,
    -3.653_157_274_421_691_552_70e-2,
    1.628_582_011_536_578_236_23e-2,
];

/// Arctangent. ≤ 1 ULP; total (`atan(±∞) = ±π/2`).
#[inline]
pub fn atan(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= 7.378_697_629_483_820_6e19 {
        // |x| >= 2^66 (or inf): π/2 to the last bit; NaN propagates.
        if x.is_nan() {
            return x;
        }
        let z = ATAN_HI[3] + ATAN_LO[3];
        return if x.is_sign_negative() { -z } else { z };
    }
    let (id, xr): (i64, f64) = if ax < 0.4375 {
        if ax < 1.862_645_149_230_957e-9 {
            // |x| < 2^-29: atan(x) rounds to x.
            return x;
        }
        (-1, x)
    } else if ax < 1.1875 {
        if ax < 0.6875 {
            (0, (2.0 * ax - 1.0) / (2.0 + ax))
        } else {
            (1, (ax - 1.0) / (ax + 1.0))
        }
    } else if ax < 2.4375 {
        (2, (ax - 1.5) / (1.0 + 1.5 * ax))
    } else {
        (3, -1.0 / ax)
    };
    let z = xr * xr;
    let w = z * z;
    let s1 = z * (AT[0] + w * (AT[2] + w * (AT[4] + w * (AT[6] + w * (AT[8] + w * AT[10])))));
    let s2 = w * (AT[1] + w * (AT[3] + w * (AT[5] + w * (AT[7] + w * AT[9]))));
    if id < 0 {
        return x - x * (s1 + s2);
    }
    let zz = ATAN_HI[id as usize] - ((xr * (s1 + s2) - ATAN_LO[id as usize]) - xr);
    if x.is_sign_negative() {
        -zz
    } else {
        zz
    }
}

// ---------------------------------------------------------------------------
// Blocked mat_mul
// ---------------------------------------------------------------------------

/// Stock-strip width: 8 f64 accumulators live in registers across the
/// whole inner-product loop.
const MM_STRIP: usize = 8;

/// `out = A · B` over `d×d` matrix planes of `k` stocks, accumulated into
/// `scratch` (so the output register may alias an input) and copied to
/// `m[o..]`. Register-blocked: each output plane is produced in strips of
/// `MM_STRIP` (8) stocks whose running sums stay in a stack array for the
/// entire `kk` loop, eliminating the per-term scratch read-modify-write of
/// the naive triple loop. Per (row, column, stock) the products are still
/// added in ascending `kk` order — bit-identical to the naive loop and to
/// the lockstep kernel.
#[inline]
pub fn mat_mul_planes(
    m: &mut [f64],
    scratch: &mut [f64],
    a: usize,
    b: usize,
    o: usize,
    d: usize,
    k: usize,
) {
    let d2k = d * d * k;
    let sm = &mut scratch[..d2k];
    for r in 0..d {
        for c in 0..d {
            let so = (r * d + c) * k;
            let mut i0 = 0;
            while i0 + MM_STRIP <= k {
                let mut acc = [0.0f64; MM_STRIP];
                for kk in 0..d {
                    let ma = a + (r * d + kk) * k + i0;
                    let mb = b + (kk * d + c) * k + i0;
                    let (xa, xb) = (&m[ma..ma + MM_STRIP], &m[mb..mb + MM_STRIP]);
                    for j in 0..MM_STRIP {
                        acc[j] += xa[j] * xb[j];
                    }
                }
                sm[so + i0..so + i0 + MM_STRIP].copy_from_slice(&acc);
                i0 += MM_STRIP;
            }
            if i0 < k {
                let w = k - i0;
                let mut acc = [0.0f64; MM_STRIP];
                for kk in 0..d {
                    let ma = a + (r * d + kk) * k + i0;
                    let mb = b + (kk * d + c) * k + i0;
                    for j in 0..w {
                        acc[j] += m[ma + j] * m[mb + j];
                    }
                }
                sm[so + i0..so + i0 + w].copy_from_slice(&acc[..w]);
            }
        }
    }
    m[o..o + d2k].copy_from_slice(sm);
}

// ---------------------------------------------------------------------------
// Reusable ranking
// ---------------------------------------------------------------------------

/// Monotone `u64` image of an `f64` for rank sorting: finite values map
/// order-preservingly (sign-magnitude flipped into unsigned order), every
/// NaN maps to `u64::MAX` so NaNs sort last deterministically. `-0.0`
/// keys strictly below `+0.0`, which is harmless for ranks: the two are
/// `==` and tie groups are averaged over equal *values*.
#[inline]
pub fn rank_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let b = x.to_bits();
    let m = ((b as i64) >> 63) as u64;
    b ^ (m | 0x8000_0000_0000_0000)
}

/// Per-instruction argsort permutation cache for the `rel_rank*` kernels.
///
/// Each rank instruction in a compiled program owns a *row* (assigned at
/// lower time, [`crate::compile::CompiledInstr::slot`]); a row stores the
/// concatenated per-group permutations from the instruction's previous
/// execution plus the group kind they were built for. Because the sort
/// order — `(rank_key(value), stock index)` — is a *strict total order*,
/// the sorted permutation is unique, so reusing (or discarding) a cached
/// permutation can never change the output bits: a still-sorted cache is
/// verified in O(group len) and reused, anything else falls back to the
/// full `sort_unstable`. Fixed-capacity: all storage is allocated at
/// construction (the evaluation hot path is pinned allocation-free).
#[derive(Debug)]
pub struct RankCache {
    k: usize,
    rows: usize,
    /// `rows × k` permutation storage (group-segment concatenation).
    perms: Vec<u32>,
    /// Group kind each row was last seeded for (`u8::MAX` = unseeded).
    kinds: Vec<u8>,
    /// `k` scratch plane of sort keys for the current instruction.
    keys: Vec<u64>,
    /// Group segments served from a still-sorted cached permutation
    /// (telemetry; no-op without the `obs` feature).
    reused: crate::telemetry::Count,
    /// Group segments that fell back to the full argsort.
    resorted: crate::telemetry::Count,
}

impl RankCache {
    /// A cache with `rows` permutation rows over `k` stocks.
    pub fn new(rows: usize, k: usize) -> RankCache {
        RankCache {
            k,
            rows,
            perms: vec![0; rows * k],
            kinds: vec![u8::MAX; rows],
            keys: vec![0; k],
            reused: crate::telemetry::Count::default(),
            resorted: crate::telemetry::Count::default(),
        }
    }

    /// Number of permutation rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Takes the `(reused, resorted)` group-segment counts accumulated
    /// since the last call (always `(0, 0)` without the `obs` feature).
    pub fn take_rank_stats(&mut self) -> (u64, u64) {
        let stats = (self.reused.get(), self.resorted.get());
        self.reused = crate::telemetry::Count::default();
        self.resorted = crate::telemetry::Count::default();
        stats
    }

    /// Writes normalized average ranks of `values[member]` into
    /// `out[member]` for every group, reusing row `row`'s cached
    /// permutations when they are still sorted for today's values.
    /// Output-bit-identical to [`crate::relation::rank_within`] over the
    /// same groups.
    pub fn rank_groups(
        &mut self,
        row: usize,
        kind: u8,
        groups: &GroupSlices<'_>,
        values: &[f64],
        out: &mut [f64],
    ) {
        debug_assert!(row < self.rows);
        debug_assert_eq!(values.len(), self.k);
        for (key, &x) in self.keys.iter_mut().zip(values) {
            *key = rank_key(x);
        }
        let keys = &self.keys[..];
        let row_buf = &mut self.perms[row * self.k..(row + 1) * self.k];
        if self.kinds[row] != kind {
            // (Re)seed the row with the group member lists — any valid
            // permutation works as a starting point.
            let mut off = 0;
            for members in groups.iter() {
                row_buf[off..off + members.len()].copy_from_slice(members);
                off += members.len();
            }
            self.kinds[row] = kind;
        }
        let mut off = 0;
        for members in groups.iter() {
            let n = members.len();
            let seg = &mut row_buf[off..off + n];
            off += n;
            if n == 1 {
                out[members[0] as usize] = 0.5;
                continue;
            }
            let sorted = seg.windows(2).all(|w| {
                let (p, q) = (w[0], w[1]);
                (keys[p as usize], p) <= (keys[q as usize], q)
            });
            if sorted {
                self.reused.inc();
            } else {
                // Correctness fallback: the full argsort. The comparator
                // is the same strict total order, so it lands on the same
                // unique permutation a fresh sort would.
                self.resorted.inc();
                seg.sort_unstable_by(|&p, &q| {
                    keys[p as usize].cmp(&keys[q as usize]).then(p.cmp(&q))
                });
            }
            let denom = (n - 1) as f64;
            let mut i = 0;
            while i < n {
                let mut j = i;
                let xi = values[seg[i] as usize];
                while j + 1 < n && values[seg[j + 1] as usize] == xi {
                    j += 1;
                }
                let avg = (i + j) as f64 / 2.0 / denom;
                for t in i..=j {
                    out[seg[t] as usize] = avg;
                }
                i = j + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_edges() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert_eq!(exp(-1000.0), 0.0);
        assert!(exp(f64::NAN).is_nan());
        // exp(1) lands within the documented 1-ULP bound of E.
        let ulps = exp(1.0).to_bits().abs_diff(std::f64::consts::E.to_bits());
        assert!(ulps <= 1, "exp(1) is {ulps} ULP from E");
    }

    #[test]
    fn ln_edges() {
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert!(ln(f64::NEG_INFINITY).is_nan());
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(f64::NAN).is_nan());
        assert_eq!(ln(std::f64::consts::E), 1.0);
        // Subnormal pre-scale path.
        let sub = f64::from_bits(123);
        assert!((ln(sub) - sub.ln()).abs() < 1e-12);
    }

    #[test]
    fn trig_edges() {
        assert_eq!(sin(0.0), 0.0);
        assert_eq!(cos(0.0), 1.0);
        assert_eq!(tan(0.0), 0.0);
        assert!(sin(f64::INFINITY).is_nan());
        assert!(cos(f64::NEG_INFINITY).is_nan());
        assert!(tan(f64::NAN).is_nan());
        // Fallback region agrees with libm bitwise.
        for &x in &[1.0e7, -3.9e12, 1.0e300] {
            assert_eq!(sin(x).to_bits(), x.sin().to_bits());
            assert_eq!(cos(x).to_bits(), x.cos().to_bits());
            assert_eq!(tan(x).to_bits(), x.tan().to_bits());
        }
    }

    #[test]
    fn inverse_trig_edges() {
        assert_eq!(asin(1.0), std::f64::consts::FRAC_PI_2);
        assert_eq!(asin(-1.0), -std::f64::consts::FRAC_PI_2);
        assert!(asin(1.5).is_nan());
        assert!(asin(f64::NAN).is_nan());
        assert_eq!(acos(1.0), 0.0);
        assert!((acos(-1.0) - std::f64::consts::PI).abs() < 1e-15);
        assert!(acos(-1.0000000001).is_nan());
        assert_eq!(atan(f64::INFINITY), std::f64::consts::FRAC_PI_2);
        assert_eq!(atan(f64::NEG_INFINITY), -std::f64::consts::FRAC_PI_2);
        assert!(atan(f64::NAN).is_nan());
        assert_eq!(atan(0.0), 0.0);
    }

    #[test]
    fn rank_key_orders_like_total_order_with_nan_last() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0e-308,
            2.5,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(rank_key(w[0]) < rank_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(rank_key(f64::NAN), u64::MAX);
        assert_eq!(rank_key(-f64::NAN), u64::MAX);
        assert!(rank_key(f64::INFINITY) < u64::MAX);
    }

    #[test]
    fn mat_mul_planes_matches_naive() {
        let (d, k) = (5, 11); // k deliberately not a strip multiple
        let d2k = d * d * k;
        // m holds planes A (offset 0), B (offset d2k), out (offset 2·d2k).
        let mut m = vec![0.0; 3 * d2k];
        for (i, x) in m.iter_mut().take(2 * d2k).enumerate() {
            *x = ((i * 37 % 101) as f64 - 50.0) / 7.0;
        }
        let mut naive = vec![0.0; d2k];
        for r in 0..d {
            for c in 0..d {
                for kk in 0..d {
                    for i in 0..k {
                        naive[(r * d + c) * k + i] +=
                            m[(r * d + kk) * k + i] * m[d2k + (kk * d + c) * k + i];
                    }
                }
            }
        }
        let mut scratch = vec![0.0; d2k];
        mat_mul_planes(&mut m, &mut scratch, 0, d2k, 2 * d2k, d, k);
        for (a, b) in m[2 * d2k..].iter().zip(&naive) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rank_cache_reuse_is_bit_identical_to_fresh_sort() {
        use crate::relation::rank_within;
        let k = 16;
        let group: Vec<u32> = (0..k as u32).collect();
        let mut cache = RankCache::new(2, k);
        let mut vals: Vec<f64> = (0..k).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        vals[3] = f64::NAN;
        vals[7] = vals[2]; // a tie
        let mut out_cached = vec![0.0; k];
        let mut out_fresh = vec![0.0; k];
        for round in 0..4 {
            // Perturb slightly without changing much order; round 2 shuffles hard.
            if round == 2 {
                vals.reverse();
            }
            let groups = GroupSlices::Single(&group);
            cache.rank_groups(0, 0, &groups, &vals, &mut out_cached);
            rank_within(&group, &vals, &mut out_fresh, &mut Vec::new());
            for (a, b) in out_cached.iter().zip(&out_fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
        }
    }
}
