//! The two mem-mode slot tiers must agree bit for bit. Each case runs in a
//! qualifying session twice: once in the f64 tier the session picks, and
//! once with its parameters switched to the general SoftFloat tier before
//! the first slot is made. Every case compares the stored value and shadow
//! bits, and each run's per-location flag rows (op and flag counts,
//! `max_dev`/`sum_dev` bits).
//!
//! * fp8 e4m3 and e5m2: all 65,536 operand pairs for add, sub, mul, div
//!   and fma (two fixed addends), plus every sqrt input;
//! * fp16 and bf16: every representable value, every midpoint and their
//!   ±1-f64-ulp neighbours through `mem_pre`;
//! * seeded chains through every mem-mode entry point.
//!
//! `tests/mem_tiers.rs` checks the f64 tier against op-mode on the same
//! inputs. Release builds run every case:
//! `cargo test --release -p raptor-core --lib memmode::tier_tests`.

use super::*;
use crate::context::{Session, ACTIVE};
use crate::ops::{self, MathFn};
use crate::{region, OpKind};

#[path = "../../tests/common/mod.rs"]
mod common;
use common::{fp16_inputs, fp8_pairs, fp8_values, threshold, STRIDE};

/// Slots allocated between slab clears.
const CLEAR_EVERY: usize = 4096;

/// Flag row of one call site: ops, flags, `max_dev` bits, `sum_dev` bits.
type Row = (u64, u64, u64, u64);

#[derive(Clone, Copy, Debug)]
enum Tier {
    F64,
    General,
}

/// Run `op` on every case in mem-mode in the given tier; per case the
/// stored `(value, shadow)` bits, plus the session's flag rows.
fn mem_run<C>(
    fmt: Format,
    tier: Tier,
    cases: &[C],
    op: impl Fn(&C) -> f64,
) -> (Vec<(u64, u64)>, Vec<Row>) {
    let sess = Session::new(Config::mem_functions(fmt, ["T"], threshold(fmt))).unwrap();
    let guard = sess.install();
    ACTIVE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let mp = &mut slot.as_mut().expect("session installed").mem_params;
        assert_eq!(mp.f64_tier, Some(fmt), "{fmt} qualifies for the f64 tier");
        if let Tier::General = tier {
            mp.f64_tier = None;
        }
    });
    let slots = {
        let _r = region("T");
        cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i % CLEAR_EVERY == 0 {
                    sess.mem_clear_slab();
                }
                let h = op(c);
                let (val, shadow) = sess.debug_mem_slot(h).expect("op returns a live handle");
                assert_eq!(
                    ops::mem_post(h).to_bits(),
                    val.to_bits(),
                    "mem_post is the slot value"
                );
                (val.to_bits(), shadow.to_bits())
            })
            .collect()
    };
    let rows = sess
        .mem_flags()
        .iter()
        .map(|r| {
            (
                r.stats.ops,
                r.stats.flags,
                r.stats.max_dev.to_bits(),
                r.stats.sum_dev.to_bits(),
            )
        })
        .collect();
    drop(guard);
    (slots, rows)
}

fn check_tiers<C: std::fmt::Debug>(what: &str, fmt: Format, cases: &[C], op: impl Fn(&C) -> f64) {
    let (fast, fast_rows) = mem_run(fmt, Tier::F64, cases, &op);
    let (general, general_rows) = mem_run(fmt, Tier::General, cases, &op);
    for ((c, f), g) in cases.iter().zip(&fast).zip(&general) {
        let show = |(v, s): (u64, u64)| (f64::from_bits(v), f64::from_bits(s));
        assert_eq!(
            f,
            g,
            "{fmt} {what} {c:?}: f64 tier {:?} vs general tier {:?}",
            show(*f),
            show(*g)
        );
    }
    assert_eq!(
        fast_rows, general_rows,
        "{fmt} {what}: flag rows of the two tiers"
    );
}

#[test]
fn fp8_binary_ops_agree_across_tiers() {
    for fmt in [Format::FP8_E4M3, Format::FP8_E5M2] {
        let pairs = fp8_pairs(fmt);
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            check_tiers(&format!("{kind:?}"), fmt, &pairs, |&[a, b]| {
                ops::op2(kind, ops::mem_pre(a), ops::mem_pre(b))
            });
        }
    }
}

#[test]
fn fp8_fma_and_sqrt_agree_across_tiers() {
    for fmt in [Format::FP8_E4M3, Format::FP8_E5M2] {
        let pairs = fp8_pairs(fmt);
        // A mid-range addend that is not a format value, and the smallest
        // negative subnormal.
        for c in [0.3, -fmt.min_subnormal()] {
            check_tiers(&format!("fma(., ., {c:e})"), fmt, &pairs, |&[a, b]| {
                ops::op_fma(ops::mem_pre(a), ops::mem_pre(b), ops::mem_pre(c))
            });
        }
        check_tiers("sqrt", fmt, &fp8_values(fmt), |&a| {
            ops::op_sqrt(ops::mem_pre(a))
        });
    }
}

#[test]
fn fp16_and_bf16_promotion_agrees_across_tiers() {
    for fmt in [Format::FP16, Format::BF16] {
        check_tiers("mem_pre", fmt, &fp16_inputs(fmt), |&x| ops::mem_pre(x));
    }
}

/// Raw values entering without `mem_pre` auto-promote through the same
/// rounding in both tiers, and mixed chains through every mem-mode entry
/// point (sign ops, math functions, pow, atan2, fma) store the same bits.
#[test]
fn mixed_chains_agree_across_tiers() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 * 2f64.powi(-53)
    };
    let cases: Vec<[f64; 3]> = (0..2000 / STRIDE.min(20))
        .map(|_| [4.0 * next() - 2.0, 3.0 * next() + 0.1, 1e-3 * next()])
        .collect();
    for fmt in [Format::new(11, 12), Format::FP16, Format::BF16] {
        check_tiers("chain", fmt, &cases, |&[a, b, c]| {
            let (x, y) = (ops::mem_pre(a), ops::mem_pre(b));
            let s = ops::op2(OpKind::Add, x, c); // c auto-promotes
            let n = ops::op_sign(s, SignOp::Neg);
            let e = ops::op_math(MathFn::Exp, n);
            let p = ops::op_powf(y, ops::op_sign(x, SignOp::Abs));
            let t = ops::op_atan2(e, p);
            let f = ops::op_fma(t, y, x);
            ops::op_sqrt(ops::op2(OpKind::Div, ops::op2(OpKind::Mul, f, f), y))
        });
    }
}

/// The value stored by one mem-mode evaluation of `op` in each tier.
fn both_tiers<C>(fmt: Format, case: C, op: impl Fn(&C) -> f64) -> [f64; 2] {
    [Tier::F64, Tier::General].map(|tier| {
        let (slots, _) = mem_run(fmt, tier, std::slice::from_ref(&case), &op);
        f64::from_bits(slots[0].0)
    })
}

/// fp16 promotion just above half the smallest subnormal rounds once, up
/// to the subnormal (rounding to 11 bits first would land on the tie and
/// round to zero).
#[test]
fn fp16_promotion_rounds_once_in_both_tiers() {
    let x = f64::from_bits(2f64.powi(-25).to_bits() + 1);
    assert_eq!(
        both_tiers(Format::FP16, x, |&x| ops::mem_pre(x)),
        [2f64.powi(-24); 2]
    );
}

/// mem-mode fma rounds into the format's exponent range: fp16 300 * 300
/// overflows, as op-mode fma and mem-mode `a * b` do.
#[test]
fn fp16_fma_overflows_in_both_tiers() {
    let got = both_tiers(Format::FP16, 300.0, |&x| {
        let h = ops::mem_pre(x);
        ops::op_fma(h, h, ops::mem_pre(0.0))
    });
    assert_eq!(got, [f64::INFINITY; 2]);
}

/// mem-mode fma rounds once from the exact result even where an f64 fma
/// lands on a format midpoint: 5 * 1639 - 2^-60 is just below the e11m12
/// tie 8195, so it rounds down to 8194, not to the even neighbour 8196.
#[test]
fn fma_rounds_once_below_a_midpoint() {
    let c = -(2f64.powi(-60));
    let got = both_tiers(Format::new(11, 12), [5.0, 1639.0], |&[a, b]| {
        ops::op_fma(ops::mem_pre(a), ops::mem_pre(b), ops::mem_pre(c))
    });
    assert_eq!(got, [8194.0; 2]);
}

/// Below the format's precision, mem-mode fma rounds at `mem_precision`
/// bits: e11m12 at 8 bits gives 1 * 1 + 2^-9 = 1 (half an 8-bit ulp is
/// 2^-8), where the format's 12 bits would keep 1 + 2^-9.
#[test]
fn fma_below_the_format_precision_rounds_at_mem_precision() {
    let cfg =
        Config::mem_functions(Format::new(11, 12), ["T"], f64::INFINITY).with_mem_precision(8);
    let sess = Session::new(cfg).unwrap();
    let _g = sess.install();
    let _r = region("T");
    let h = ops::op_fma(
        ops::mem_pre(1.0),
        ops::mem_pre(1.0),
        ops::mem_pre(2f64.powi(-9)),
    );
    assert_eq!(sess.debug_mem_slot(h), Some((1.0, 1.0 + 2f64.powi(-9))));
}
