//! Input sets for the mem-mode slot-tier tests, shared by the integration
//! test `tests/mem_tiers.rs` (f64 tier against op-mode) and the unit tests
//! in `src/memmode/tier_tests.rs` (f64 tier against the general tier).
//!
//! Release builds use every case; debug builds take every 61st.

use bigfloat::Format;

/// Case stride: every case in release builds, a subset in debug builds.
pub const STRIDE: usize = if cfg!(debug_assertions) { 61 } else { 1 };

/// Every value of an 8-bit IEEE-style format, decoded from its encodings
/// (the all-ones exponent holds the infinities and NaNs).
pub fn fp8_values(fmt: Format) -> Vec<f64> {
    let (e, m) = (fmt.exp_bits(), fmt.man_bits());
    (0u32..256)
        .map(|code| {
            let sign = if code >> 7 == 1 { -1.0 } else { 1.0 };
            let exp = (code >> m) & ((1 << e) - 1);
            let frac = f64::from(code & ((1 << m) - 1));
            let mag = if exp == (1 << e) - 1 {
                if frac == 0.0 {
                    f64::INFINITY
                } else {
                    f64::NAN
                }
            } else if exp == 0 {
                frac * 2f64.powi(fmt.emin() - m as i32)
            } else {
                (1.0 + frac * 2f64.powi(-(m as i32))) * 2f64.powi(exp as i32 - fmt.bias())
            };
            sign * mag
        })
        .collect()
}

/// All 65,536 operand pairs of an 8-bit format, strided.
pub fn fp8_pairs(fmt: Format) -> Vec<[f64; 2]> {
    let vals = fp8_values(fmt);
    let mut pairs = Vec::with_capacity(vals.len() * vals.len());
    for &a in &vals {
        for &b in &vals {
            pairs.push([a, b]);
        }
    }
    pairs.into_iter().step_by(STRIDE).collect()
}

/// Every value of a 16-bit format, every midpoint between positive
/// neighbours (the last one is the overflow threshold), their ±1-f64-ulp
/// neighbours, and the negatives of all of them, plus the specials;
/// strided.
pub fn fp16_inputs(fmt: Format) -> Vec<f64> {
    let mut pos = vec![0.0];
    while let Some(&v) = pos.last() {
        if v >= fmt.max_finite() {
            break;
        }
        // The next format value: one ulp at v's exponent, or the smallest
        // subnormal's spacing below the normal range.
        let e = if v < fmt.min_normal() {
            fmt.emin()
        } else {
            (v.to_bits() >> 52) as i32 - 1023
        };
        pos.push(v + 2f64.powi(e - fmt.man_bits() as i32));
    }
    // Zero plus every finite positive encoding.
    assert_eq!(pos.len(), ((1 << fmt.exp_bits()) - 1) << fmt.man_bits());
    let ulp_max = 2f64.powi(fmt.emax() - fmt.man_bits() as i32);
    let mut points = Vec::new();
    for (i, &v) in pos.iter().enumerate() {
        let next = pos.get(i + 1).copied().unwrap_or(v + ulp_max);
        for p in [v, v + (next - v) / 2.0] {
            points.extend([p, f64::from_bits(p.to_bits() + 1)]);
            if p > 0.0 {
                points.push(f64::from_bits(p.to_bits() - 1));
            }
        }
    }
    let mut all: Vec<f64> = points.iter().flat_map(|&p| [p, -p]).collect();
    all.extend([
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
    ]);
    all.into_iter().step_by(STRIDE).collect()
}

/// Flag threshold of a relative half ulp of the format.
pub fn threshold(fmt: Format) -> f64 {
    2f64.powi(-(fmt.precision() as i32))
}
