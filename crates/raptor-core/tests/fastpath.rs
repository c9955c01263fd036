//! Fast-path correctness: the optimised op-mode pipeline (decision cache +
//! innocuous-double-rounding hardware short-cut) must be bit-identical to
//! the naive BigFloat-per-op oracle, across formats, magnitudes, and
//! specials — "the fast path must not change rounding".
//!
//! No external property-test crate is available offline, so the generator
//! is a deterministic SplitMix64 stream over structured magnitude classes
//! (normals, format-subnormal range, overflow boundary, exact ties).

use bigfloat::Format;
use raptor_core::{Config, EmulPath, OpKind, Real, Session, Tracked};

/// SplitMix64: deterministic, well-distributed 64-bit stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A finite f64 whose exponent is drawn uniformly from `[emin, emax]`.
    fn f64_in_exp_range(&mut self, emin: i32, emax: i32) -> f64 {
        let frac = self.next() >> 12;
        let span = (emax - emin + 1) as u64;
        let e = emin + (self.next() % span) as i32;
        let x = (1.0 + frac as f64 * 2f64.powi(-52)) * 2f64.powi(e);
        if self.next() & 1 == 1 {
            -x
        } else {
            x
        }
    }
}

fn run_op(path: EmulPath, fmt: Format, kind: OpKind, a: f64, b: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op2(kind, a, b))
}

fn run_sqrt(path: EmulPath, fmt: Format, a: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op_sqrt(a))
}

fn run_fma(path: EmulPath, fmt: Format, a: f64, b: f64, c: f64) -> u64 {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    canonical_bits(raptor_core::ops::op_fma(a, b, c))
}

/// NaN payloads/signs are platform noise (x86 produces a negative quiet
/// NaN for inf-inf and 0/0); fold every NaN to the canonical bits.
fn canonical_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Differential test: optimised Soft path (with the hardware short-cut
/// where it applies) against the naive Big oracle, over random operands
/// spanning each format's normal range, its subnormal/underflow boundary,
/// and its overflow boundary.
#[test]
fn soft_path_matches_naive_oracle_randomized() {
    let formats = [
        Format::new(11, 12), // Table 3 config (short-cut applies)
        Format::new(5, 14),  // the paper's 64_to_5_14
        Format::FP16,
        Format::BF16,
        Format::FP8_E5M2,
        Format::FP8_E4M3,
        Format::new(8, 16),
        Format::new(11, 24), // short-cut does NOT apply: soft kernel path
    ];
    let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div];
    let mut rng = Rng(0x00C0_FFEE_D15C_0DE5);
    for fmt in formats {
        let emin = fmt.emin();
        let emax = fmt.emax();
        // Magnitude classes: mid-range, underflow fringe, overflow fringe.
        let classes: [(i32, i32); 3] = [
            (emin / 2, emax / 2),
            ((emin - fmt.man_bits() as i32 - 2).max(-1021), emin + 2),
            (emax - 2, emax),
        ];
        for (lo, hi) in classes {
            for _ in 0..400 {
                let a = rng.f64_in_exp_range(lo, hi);
                let b = rng.f64_in_exp_range(lo, hi);
                for kind in kinds {
                    let s = run_op(EmulPath::Soft, fmt, kind, a, b);
                    let n = run_op(EmulPath::Big, fmt, kind, a, b);
                    assert_eq!(
                        s, n,
                        "{fmt} {kind:?} {a:e} {b:e}: soft {:e} vs naive {:e}",
                        f64::from_bits(s),
                        f64::from_bits(n)
                    );
                }
                let aa = a.abs();
                let s = run_sqrt(EmulPath::Soft, fmt, aa);
                let n = run_sqrt(EmulPath::Big, fmt, aa);
                assert_eq!(s, n, "{fmt} sqrt {aa:e}");
                let c = rng.f64_in_exp_range(lo, hi);
                let s = run_fma(EmulPath::Soft, fmt, a, b, c);
                let n = run_fma(EmulPath::Big, fmt, a, b, c);
                assert_eq!(
                    s, n,
                    "{fmt} fma {a:e} {b:e} {c:e}: soft {:e} vs naive {:e}",
                    f64::from_bits(s),
                    f64::from_bits(n)
                );
            }
        }
    }
    // Pinned: in e11m12 the f64 fma of (5, 1639, -2^-60) lands on the
    // midpoint 8195, but the exact value lies just below it, so the
    // answer is 8194, not the 8196 a tie-to-even of the f64 result gives.
    let (e11m12, c) = (Format::new(11, 12), -(2f64.powi(-60)));
    let s = run_fma(EmulPath::Soft, e11m12, 5.0, 1639.0, c);
    assert_eq!(f64::from_bits(s), 8194.0);
    assert_eq!(s, run_fma(EmulPath::Big, e11m12, 5.0, 1639.0, c));
}

/// fma operands whose exact result sits a hair off a format midpoint
/// (the fma cases of `soft_path_matches_naive_oracle_at_ties`):
/// `(d * 2^k) * q + c` with `d * q = T` an odd integer in `[2^p, 2^(p+1))`
/// (a midpoint of the format's grid there) and `c = ±2^(k-60)`, far below
/// half an f64 ulp of the result. The f64 fma rounds every such result
/// onto the midpoint itself, so only an exact fallback can round it the
/// way the exact value says.
fn fma_midpoint_cases(fmt: Format) -> Vec<(f64, f64, f64)> {
    let p = fmt.precision();
    let mut cases = Vec::new();
    for t in ((1u64 << p) + 1..1u64 << (p + 1)).step_by(2).take(400) {
        let Some(d) = (3..64).step_by(2).find(|d| t % d == 0) else { continue };
        for k in [-30i32, 0, 20] {
            for sign in [1.0, -1.0] {
                cases.push((d as f64 * 2f64.powi(k), (t / d) as f64, sign * 2f64.powi(k - 60)));
            }
        }
    }
    cases
}

/// Adversarial ties: operands engineered so the exact result sits exactly
/// on or next to a format rounding boundary (the cases double rounding
/// could corrupt).
#[test]
fn soft_path_matches_naive_oracle_at_ties() {
    let fmt = Format::new(11, 12);
    let p = fmt.precision() as i32;
    let mut cases: Vec<(f64, f64)> = Vec::new();
    for e in [-30i32, -1, 0, 1, 17] {
        let big = 2f64.powi(e);
        // b at the guard-bit position and one ulp around it.
        for db in [-(p + 1), -p, -(p - 1)] {
            let tiny = 2f64.powi(e + db);
            cases.push((big, tiny));
            cases.push((big, tiny + tiny * 2f64.powi(-40)));
            cases.push((big, -tiny));
            cases.push((big + big * 2f64.powi(-(p - 1)), tiny));
        }
    }
    for (a, b) in cases {
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let s = run_op(EmulPath::Soft, fmt, kind, a, b);
            let n = run_op(EmulPath::Big, fmt, kind, a, b);
            assert_eq!(s, n, "{kind:?} {a:e} {b:e}");
        }
    }
    // Specials flow through identically.
    for (a, b) in [
        (f64::NAN, 1.0),
        (f64::INFINITY, -1.0),
        (f64::INFINITY, f64::NEG_INFINITY),
        (0.0, -0.0),
        (-0.0, -0.0),
        (1.0, 0.0),
    ] {
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let s = run_op(EmulPath::Soft, fmt, kind, a, b);
            let n = run_op(EmulPath::Big, fmt, kind, a, b);
            assert_eq!(s, n, "{kind:?} {a} {b}");
        }
    }
    // fma results the f64 short-cut rounds onto a format midpoint, in
    // short-cut formats whose exponent range admits them; the cases must
    // include results a naive second rounding gets wrong.
    for fmt in [fmt, Format::new(11, 4), Format::BF16, Format::new(8, 10), Format::FP32] {
        assert!(fmt.double_round_safe(), "{fmt} takes the short-cut");
        let mut flipped = 0;
        for (a, b, c) in fma_midpoint_cases(fmt) {
            let s = run_fma(EmulPath::Soft, fmt, a, b, c);
            let n = run_fma(EmulPath::Big, fmt, a, b, c);
            assert_eq!(s, n, "{fmt} fma {a:e} {b:e} {c:e}");
            let naive = fmt.round_f64(a.mul_add(b, c), bigfloat::RoundMode::NearestEven);
            flipped += (s != naive.to_bits()) as usize;
        }
        assert!(flipped > 0, "{fmt}: some case defeats naive double rounding");
    }
}

/// The ISSUE's property test: `Tracked` under a 52-bit-mantissa format,
/// forced through the SoftFloat kernels, is bit-identical to plain `f64`
/// across add/sub/mul/div/sqrt/fma — exact-op-plus-one-rounding at
/// precision 53 with f64's exponent range IS f64 arithmetic.
#[test]
fn tracked_52bit_soft_kernels_bit_identical_to_f64() {
    let fmt = Format::new(11, 52);
    let sess = Session::new(Config::op_all(fmt).with_path(EmulPath::Soft)).unwrap();
    let _g = sess.install();
    let mut rng = Rng(0x5EED_CAFE_F00D_D00D);
    let check = |a: f64, b: f64| {
        let (ta, tb) = (Tracked::from_f64(a), Tracked::from_f64(b));
        let cb = canonical_bits;
        assert_eq!(cb((ta + tb).to_f64()), cb(a + b), "add {a:e} {b:e}");
        assert_eq!(cb((ta - tb).to_f64()), cb(a - b), "sub {a:e} {b:e}");
        assert_eq!(cb((ta * tb).to_f64()), cb(a * b), "mul {a:e} {b:e}");
        assert_eq!(cb((ta / tb).to_f64()), cb(a / b), "div {a:e} {b:e}");
        let aa = a.abs();
        assert_eq!(cb(Tracked::from_f64(aa).sqrt().to_f64()), cb(aa.sqrt()), "sqrt {aa:e}");
        assert_eq!(
            cb(ta.mul_add(tb, Tracked::from_f64(0.5)).to_f64()),
            cb(a.mul_add(b, 0.5)),
            "fma {a:e} {b:e}"
        );
    };
    for _ in 0..2500 {
        let a = rng.f64_in_exp_range(-400, 400);
        let b = rng.f64_in_exp_range(-400, 400);
        check(a, b);
    }
    // Near f64's own boundaries (overflow, subnormal results).
    for _ in 0..500 {
        let a = rng.f64_in_exp_range(1000, 1023);
        let b = rng.f64_in_exp_range(1000, 1023);
        check(a, b);
        let c = rng.f64_in_exp_range(-1022, -990);
        let d = rng.f64_in_exp_range(-1022, -990);
        check(c, d);
    }
    // Specials.
    check(f64::INFINITY, 1.0);
    check(0.0, -0.0);
    check(1.0, 0.0);
}

/// Directed-rounding sign of exact zero: `x + (-x)` is `-0` under
/// round-toward-negative on every emulation path (the TZ+sticky scheme
/// must not launder the final mode's zero sign).
#[test]
fn directed_rounding_preserves_zero_sign_on_cancellation() {
    use bigfloat::RoundMode;
    let fmt = Format::new(11, 12);
    for path in [EmulPath::Soft, EmulPath::Big] {
        for (mode, want_neg) in [
            (RoundMode::Down, true),
            (RoundMode::Up, false),
            (RoundMode::TowardZero, false),
            (RoundMode::NearestEven, false),
        ] {
            let mut cfg = Config::op_all(fmt).with_path(path);
            cfg.round = mode;
            let sess = Session::new(cfg).unwrap();
            let _g = sess.install();
            let r = raptor_core::ops::op2(OpKind::Add, 1.5, -1.5);
            assert_eq!(
                r.is_sign_negative(),
                want_neg,
                "{path:?} {mode:?}: 1.5 + -1.5 gave {r:?} ({:#x})",
                r.to_bits()
            );
            let r = raptor_core::ops::op_fma(2.0, 0.75, -1.5);
            assert_eq!(
                r.is_sign_negative(),
                want_neg,
                "{path:?} {mode:?}: fma(2, 0.75, -1.5) gave {r:?}"
            );
        }
    }
}
