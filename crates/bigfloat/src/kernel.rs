//! Shared round-to-nearest-even cores for the batch emulation kernels.
//!
//! [`Format::round_f64`](crate::Format::round_f64) resolves its widths at
//! run time; the batch kernel layer in `raptor-core` instead wants the
//! compiler to constant-fold the bias, the drop count, and the masks so a
//! whole slice can run through an auto-vectorizable loop. Both callers
//! share [`round_rne_core`]: the `Format` path passes its fields, the
//! kernels instantiate [`round_rne`] with const-generic widths. One
//! algorithm, one set of differential tests, bit-identical results by
//! construction.

/// Round a finite or non-finite `f64` to nearest-even in the format
/// `(exp_bits, man_bits)`, returning the result widened back to `f64`.
///
/// Semantics match `Format::round_f64(x, RoundMode::NearestEven)` exactly:
/// non-finite values pass through, overflow goes to signed infinity, and
/// underflow is gradual down to the format's minimum subnormal. Requires
/// `man_bits <= 52` and `2 <= exp_bits <= 11` (checked by debug assertion
/// only; this is the hot loop).
#[inline(always)]
pub fn round_rne_core(x: f64, exp_bits: u32, man_bits: u32) -> f64 {
    debug_assert!(man_bits >= 1 && man_bits <= 52 && exp_bits >= 2 && exp_bits <= 11);
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & (1 << 63);
    let mag = bits & !(1 << 63);
    if mag == 0 {
        return x;
    }
    let bias = (1i32 << (exp_bits - 1)) - 1;
    let emax = bias;
    let (exp, mant, drop) = decompose(mag, exp_bits, man_bits);
    if drop <= 0 {
        if exp > emax {
            return f64::from_bits(sign | f64::INFINITY.to_bits());
        }
        return x;
    }
    if drop >= 54 {
        // |x| < half of the minimum subnormal: rounds to zero.
        return f64::from_bits(sign);
    }
    let drop = drop as u32;
    let half = 1u64 << (drop - 1);
    let low = mant & ((1u64 << drop) - 1);
    let trunc = mant >> drop;
    let round_up = low > half || (low == half && trunc & 1 == 1);
    let rmant = trunc + round_up as u64;
    if rmant == 0 {
        return f64::from_bits(sign);
    }
    // Reconstruct exactly: the kept significand times the ulp of the
    // kept position. Both factors are exact f64s and the product is
    // representable (<= 53 bits at lsb exponent >= emin - man_bits
    // >= -1074 for every format this path accepts).
    let res = (rmant as f64) * exp2i(exp - 52 + drop as i32);
    // Overflow check without materializing max_finite (powi is a
    // function call; this path is the op-mode hot loop): the result
    // sits on the format's mantissa grid, so it exceeds max_finite
    // exactly when its unbiased exponent exceeds emax.
    let e_res = ((res.to_bits() >> 52) & 0x7FF) as i32 - 1023;
    if e_res > emax {
        return f64::from_bits(sign | f64::INFINITY.to_bits());
    }
    f64::from_bits(res.to_bits() | sign)
}

/// Split a nonzero finite magnitude `mag` (f64 bits, sign cleared) into
/// `|x| = mant * 2^(exp - 52)` with `mant` in `[2^52, 2^53)` (subnormal
/// f64 inputs are normalized first), plus the number of low significand
/// bits the format `(exp_bits, man_bits)` drops: precision loss plus the
/// extra loss below its normal range (gradual underflow).
#[inline(always)]
fn decompose(mag: u64, exp_bits: u32, man_bits: u32) -> (i32, u64, i32) {
    let emin = 2 - (1i32 << (exp_bits - 1));
    let biased = (mag >> 52) as i32;
    let (exp, mant) = if biased == 0 {
        let lz = mag.leading_zeros(); // >= 12 for subnormals
        (-1011 - lz as i32, mag << (lz - 11))
    } else {
        (biased - 1023, (1u64 << 52) | (mag & ((1u64 << 52) - 1)))
    };
    (exp, mant, (52 - man_bits as i32) + (emin - exp).max(0))
}

/// Whether `x` lies exactly halfway between two neighbours of the format
/// `(exp_bits, man_bits)` — a round-to-nearest tie, including half the
/// minimum subnormal and the overflow threshold half an ulp past the
/// largest finite value. An `f64` result that lands on such a midpoint
/// may have been rounded onto it from either side, so rounding it again
/// into the format can go the wrong way; the fma short-cuts check this
/// and re-run ties exactly.
#[inline]
pub fn is_midpoint_core(x: f64, exp_bits: u32, man_bits: u32) -> bool {
    let mag = x.to_bits() & !(1 << 63);
    if !x.is_finite() || mag == 0 {
        return false;
    }
    let (_, mant, drop) = decompose(mag, exp_bits, man_bits);
    (1..=53).contains(&drop) && mant & ((1u64 << drop) - 1) == 1u64 << (drop - 1)
}

/// Monomorphized round-to-nearest-even: [`round_rne_core`] with the widths
/// baked in at compile time, so the bias/drop/mask arithmetic constant-folds
/// and slice loops over it auto-vectorize.
#[inline(always)]
pub fn round_rne<const E: u32, const M: u32>(x: f64) -> f64 {
    round_rne_core(x, E, M)
}

/// Exact power of two as f64 for exponents representable in f64's range.
#[inline(always)]
fn exp2i(e: i32) -> f64 {
    if e >= -1022 && e <= 1023 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e < -1022 && e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else if e < -1074 {
        0.0
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Format, RoundMode};

    fn reference(fmt: Format, x: f64) -> f64 {
        fmt.round_f64(x, RoundMode::NearestEven)
    }

    #[test]
    fn midpoints_are_detected_and_their_neighbours_are_not() {
        let formats = [
            Format::new(4, 3),
            Format::FP8_E5M2,
            Format::BF16,
            Format::FP16,
            Format::new(11, 12),
            Format::new(5, 14),
            Format::FP32,
        ];
        let next_f64 = |x: f64| f64::from_bits(x.to_bits() + 1);
        let prev_f64 = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for fmt in formats {
            let (e, m) = (fmt.exp_bits(), fmt.man_bits());
            // Half the minimum subnormal and the overflow threshold.
            let specials = [
                exp2i(fmt.emin() - m as i32 - 1),
                fmt.max_finite() + exp2i(fmt.emax() - m as i32 - 1),
            ];
            for t in specials {
                assert!(is_midpoint_core(t, e, m), "{fmt} special {t:e}");
                assert!(is_midpoint_core(-t, e, m), "{fmt} special -{t:e}");
            }
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Magnitudes across the format's whole range, subnormals
                // included.
                let span = (fmt.emax() - fmt.emin() + m as i32 + 1) as u64;
                let k = fmt.emin() - m as i32 + (state >> 40) as i32 % span as i32;
                let v = f64::from_bits((state >> 12) | 0x3FF0_0000_0000_0000) * exp2i(k);
                let lo = fmt.round_f64(v, RoundMode::TowardZero);
                let hi = fmt.round_f64(next_f64(lo), RoundMode::Up);
                if !hi.is_finite() {
                    continue;
                }
                let mid = lo + (hi - lo) / 2.0;
                assert!(is_midpoint_core(mid, e, m), "{fmt} mid of {lo:e}..{hi:e}");
                assert!(!is_midpoint_core(next_f64(mid), e, m), "{fmt} above {mid:e}");
                assert!(!is_midpoint_core(prev_f64(mid), e, m), "{fmt} below {mid:e}");
                assert!(lo == 0.0 || !is_midpoint_core(lo, e, m), "{fmt} grid point {lo:e}");
            }
        }
        assert!(!is_midpoint_core(f64::NAN, 11, 12));
        assert!(!is_midpoint_core(f64::INFINITY, 11, 12));
        assert!(!is_midpoint_core(0.0, 11, 12));
    }

    #[test]
    fn core_matches_format_round_on_random_sweep() {
        let formats = [
            Format::new(4, 3),
            Format::FP8_E5M2,
            Format::BF16,
            Format::FP16,
            Format::new(8, 10),
            Format::new(11, 12),
            Format::new(5, 14),
            Format::FP32,
        ];
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..20000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            for fmt in formats {
                let want = reference(fmt, v);
                let got = round_rne_core(v, fmt.exp_bits(), fmt.man_bits());
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{fmt} rounding of {v:e} ({state:#x})"
                );
            }
        }
    }

    #[test]
    fn core_matches_format_round_on_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e-310,
            f64::MAX,
            -f64::MAX,
            65504.0,
            65519.0,
            65520.0,
            Format::FP16.min_subnormal(),
            Format::FP16.min_subnormal() / 2.0,
            Format::FP16.min_subnormal() * 0.75,
        ];
        for fmt in [Format::FP8_E4M3, Format::FP16, Format::BF16, Format::new(11, 12)] {
            for &v in &edges {
                let want = reference(fmt, v);
                let got = round_rne_core(v, fmt.exp_bits(), fmt.man_bits());
                assert_eq!(got.to_bits(), want.to_bits(), "{fmt} rounding of {v:e}");
            }
        }
    }

    #[test]
    fn const_generic_wrapper_is_the_same_function() {
        let vals = [0.1, 1.0, -2.5, 6.1e-5, 1e30, -1e-30];
        for &v in &vals {
            assert_eq!(
                round_rne::<5, 10>(v).to_bits(),
                round_rne_core(v, 5, 10).to_bits()
            );
        }
    }
}
