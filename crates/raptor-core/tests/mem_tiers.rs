//! mem-mode in a qualifying session (the f64 slot tier) must store exactly
//! what op-mode's Soft and Big paths compute for the same operation, keep
//! the plain f64 result as the shadow, and report the flag row that
//! follows from the two. Per case it compares the stored value bits with
//! both op-mode paths and the shadow bits with the native op; per run it
//! compares the call site's flag row (op and flag counts, `max_dev` and
//! `sum_dev` bits) with the row built from those results.
//!
//! * fp8 e4m3 and e5m2: all 65,536 operand pairs for add, sub, mul, div
//!   and fma (two fixed addends), plus every sqrt input;
//! * fp16 and bf16: every representable value, every midpoint between
//!   neighbours (including the overflow threshold), and the ±1-f64-ulp
//!   neighbours of both, through `mem_pre`.
//!
//! The unit tests in `src/memmode/tier_tests.rs` compare the f64 tier with
//! the general SoftFloat tier on the same inputs. Release builds run every
//! case: `cargo test --release -p raptor-core --test mem_tiers`. Debug
//! builds run a strided subset.

mod common;

use bigfloat::{Format, RoundMode, SoftFloat};
use common::{fp16_inputs, fp8_pairs, fp8_values, threshold};
use raptor_core::ops;
use raptor_core::{region, Config, EmulPath, OpKind, Session};

/// Slots allocated between slab clears.
const CLEAR_EVERY: usize = 4096;

/// Flag row of one call site: ops, flags, `max_dev` bits, `sum_dev` bits.
type Row = (u64, u64, u64, u64);

/// Run `op` on every case in mem-mode; per case the stored `(value,
/// shadow)` bits, plus the session's flag rows.
fn mem_run<C>(fmt: Format, cases: &[C], op: impl Fn(&C) -> f64) -> (Vec<(u64, u64)>, Vec<Row>) {
    let sess = Session::new(Config::mem_functions(fmt, ["T"], threshold(fmt))).unwrap();
    let guard = sess.install();
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

/// Run `op` on every case in op-mode under `path`; per case the result bits.
fn op_run<C>(fmt: Format, path: EmulPath, cases: &[C], op: impl Fn(&C) -> f64) -> Vec<u64> {
    let sess = Session::new(Config::op_all(fmt).with_path(path)).unwrap();
    let _g = sess.install();
    cases.iter().map(|c| op(c).to_bits()).collect()
}

/// Relative deviation of a truncated result from its FP64 shadow, as
/// mem-mode defines it: 0 for equal values or two NaNs, infinite when one
/// side is not finite, else relative to `max(|shadow|, sqrt(MIN_POSITIVE))`.
fn rel_deviation(truncated: f64, shadow: f64) -> f64 {
    if truncated == shadow || (truncated.is_nan() && shadow.is_nan()) {
        0.0
    } else if !truncated.is_finite() || !shadow.is_finite() {
        f64::INFINITY
    } else {
        (truncated - shadow).abs() / shadow.abs().max(f64::MIN_POSITIVE.sqrt())
    }
}

/// The flag row of one call site that ran once per `(truncated, shadow)`
/// pair, in order.
fn expected_row(fmt: Format, results: impl Iterator<Item = (f64, f64)>) -> Row {
    let (mut ops, mut flags, mut max_dev, mut sum_dev) = (0, 0, 0.0f64, 0.0);
    for (truncated, shadow) in results {
        let dev = rel_deviation(truncated, shadow);
        ops += 1;
        sum_dev += dev;
        if dev > max_dev {
            max_dev = dev;
        }
        if dev > threshold(fmt) {
            flags += 1;
        }
    }
    (ops, flags, max_dev.to_bits(), sum_dev.to_bits())
}

/// Compare mem-mode `mem_op` with op-mode `op_op` under its Soft and Big
/// paths, and its shadows with `native`. `counted` says whether `mem_op`
/// is one counted op at one call site (a flag row is expected) or only a
/// conversion (no row).
fn check<C: std::fmt::Debug>(
    what: &str,
    fmt: Format,
    cases: &[C],
    mem_op: impl Fn(&C) -> f64,
    op_op: impl Fn(&C) -> f64,
    native: impl Fn(&C) -> f64,
    counted: bool,
) {
    let (mem, rows) = mem_run(fmt, cases, mem_op);
    let soft = op_run(fmt, EmulPath::Soft, cases, &op_op);
    let big = op_run(fmt, EmulPath::Big, cases, &op_op);
    for (i, c) in cases.iter().enumerate() {
        let (val, shadow) = mem[i];
        let show = f64::from_bits;
        assert_eq!(
            (val, val),
            (soft[i], big[i]),
            "{fmt} {what} {c:?}: mem-mode {:e} vs op-mode soft {:e} / big {:e}",
            show(val),
            show(soft[i]),
            show(big[i])
        );
        assert_eq!(shadow, native(c).to_bits(), "{fmt} {what} {c:?}: shadow");
    }
    let expected: Vec<Row> = if counted {
        vec![expected_row(
            fmt,
            mem.iter()
                .map(|&(v, s)| (f64::from_bits(v), f64::from_bits(s))),
        )]
    } else {
        Vec::new()
    };
    assert_eq!(rows, expected, "{fmt} {what}: flag rows");
}

#[test]
fn fp8_binary_ops_match_op_mode() {
    for fmt in [Format::FP8_E4M3, Format::FP8_E5M2] {
        let pairs = fp8_pairs(fmt);
        for kind in [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div] {
            let native = |&[a, b]: &[f64; 2]| match kind {
                OpKind::Add => a + b,
                OpKind::Sub => a - b,
                OpKind::Mul => a * b,
                _ => a / b,
            };
            check(
                &format!("{kind:?}"),
                fmt,
                &pairs,
                |&[a, b]| ops::op2(kind, ops::mem_pre(a), ops::mem_pre(b)),
                |&[a, b]| ops::op2(kind, a, b),
                native,
                true,
            );
        }
    }
}

#[test]
fn fp8_fma_matches_op_mode() {
    for fmt in [Format::FP8_E4M3, Format::FP8_E5M2] {
        let pairs = fp8_pairs(fmt);
        // A mid-range addend that is not a format value, and the smallest
        // negative subnormal.
        for c in [0.3, -fmt.min_subnormal()] {
            check(
                &format!("fma(., ., {c:e})"),
                fmt,
                &pairs,
                |&[a, b]| ops::op_fma(ops::mem_pre(a), ops::mem_pre(b), ops::mem_pre(c)),
                |&[a, b]| ops::op_fma(a, b, c),
                |&[a, b]| a.mul_add(b, c),
                true,
            );
        }
    }
}

#[test]
fn fp8_sqrt_matches_op_mode() {
    for fmt in [Format::FP8_E4M3, Format::FP8_E5M2] {
        check(
            "sqrt",
            fmt,
            &fp8_values(fmt),
            |&a| ops::op_sqrt(ops::mem_pre(a)),
            |&a| ops::op_sqrt(a),
            |&a| a.sqrt(),
            true,
        );
    }
}

#[test]
fn fp16_and_bf16_promotion_matches_op_mode() {
    for fmt in [Format::FP16, Format::BF16] {
        let inputs = fp16_inputs(fmt);
        // op-mode rounds its operands the same way; `x * 1` returns that
        // rounding unchanged (signed zeros included).
        check(
            "mem_pre",
            fmt,
            &inputs,
            |&x| ops::mem_pre(x),
            |&x| ops::op2(OpKind::Mul, x, 1.0),
            |&x| x,
            false,
        );
        // And both equal one SoftFloat rounding into the format.
        let (mem, _) = mem_run(fmt, &inputs, |&x| ops::mem_pre(x));
        for (&x, &(val, _)) in inputs.iter().zip(&mem) {
            let once = fmt
                .round_soft(&SoftFloat::from_f64(x), RoundMode::NearestEven)
                .to_f64();
            assert_eq!(val, once.to_bits(), "{fmt} mem_pre({x:e})");
        }
    }
}
