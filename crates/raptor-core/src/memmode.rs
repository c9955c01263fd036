//! mem-mode: shadow-value storage, handle encoding, and deviation flags
//! (paper §3.5, Fig. 5b, and the §6.3 debugging workflow).
//!
//! In mem-mode a value is not converted back to the carrier type after each
//! operation. Instead the truncated representation is *memorized* in a slab
//! and the carrier `f64`'s bit pattern holds an integer handle (the paper
//! bitcasts an id into the float). Every slot also carries an FP64 shadow
//! updated at full precision, so each operation can compare its truncated
//! result against "what the whole application would have computed in FP64"
//! and flag deviations beyond a threshold, grouped by source location.
//!
//! Handles are NaN-boxed: quiet-NaN bit patterns with a distinctive tag
//! nibble, so stray un-converted values are detectable (the runtime
//! auto-promotes them and counts the event, where the paper would crash or
//! warn).
//!
//! ## Slot tiers
//!
//! A session's slots live in one of two slabs, chosen once per installed
//! context from the immutable [`Config`] (`MemParams::new`):
//!
//! * the **f64 tier** stores each truncated value as a plain `f64` next to
//!   its shadow. A session qualifies when it rounds to nearest-even, its
//!   format passes [`Format::double_round_safe`], and `mem_precision`
//!   equals the format's precision. Such formats embed in `f64`, so the
//!   stored value is exact, and add/sub/mul/div/sqrt run as one hardware
//!   op plus one rounding into the format (op-mode's short-cut, canonical
//!   NaN) — bit-identical to the SoftFloat format kernels of the general
//!   tier. Every Table 2/3 config (`e11m12`), fp16, bf16 and the fp8
//!   formats qualify.
//! * the **general tier** stores [`SoftFloat`]/[`BigFloat`] values and
//!   serves everything else: precision increase (`with_mem_precision`),
//!   directed rounding, and wide formats such as `e11m24`.
//!
//! fma and the math functions run through the SoftFloat kernels in both
//! tiers; the f64 tier converts its operands exactly. The tier is not
//! observable through the public API; `memmode::tier_tests` compares the
//! two on every fp8 operand pair and every fp16/bf16 rounding boundary.
//!
//! ## Sharding
//!
//! A `MemState` instance serves two roles: each thread's `ActiveCtx`
//! owns one as its private *shard* (slots + pending flag statistics,
//! accessed with no synchronization on the op path), and the session owns
//! one as the *merged* repository (statistics only; its slabs stay empty).
//! Shards merge into the session via `MemState::merge_stats` when a
//! session guard drops or a report is requested. Slots never merge:
//! handles are thread-local and die at the slab-clear barrier. See the
//! "Runtime hot path" section of the crate docs for the invariants kernels
//! may rely on.

use crate::config::Config;
use crate::ops::SignOp;
use bigfloat::kernel::round_rne_core;
use bigfloat::{BigFloat, Format, RoundMode, SoftFloat};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Source location of an instrumented operation (from `#[track_caller]`,
/// the analog of LLVM debug locations like `"f.cpp:10:11"` in Fig. 4a).
///
/// Equality is by content; hashing covers `(line, col, file.len())` only,
/// which is consistent with that equality and skips the file bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SrcLoc {
    /// Source file path.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Hash for SrcLoc {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.line) << 32 | u64::from(self.col));
        state.write_usize(self.file.len());
    }
}

impl From<&'static std::panic::Location<'static>> for SrcLoc {
    fn from(l: &'static std::panic::Location<'static>) -> Self {
        SrcLoc { file: l.file(), line: l.line(), col: l.column() }
    }
}

impl core::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

/// Multiply-rotate hasher for the flag map, fed only by [`SrcLoc`]'s
/// integer words. The keys are the program's own call sites, so there is
/// no outside input to craft collisions. Deterministic across processes
/// (no per-process seed, no addresses), so map iteration — and with it
/// every merge — is reproducible.
#[derive(Default)]
pub(crate) struct LocHasher(u64);

impl Hasher for LocHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the bucket-index bits.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type LocMap = HashMap<SrcLoc, LocStats, BuildHasherDefault<LocHasher>>;

/// A session's mem-mode parameters, resolved once per installed context
/// (the op path never goes back to the [`Config`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemParams {
    /// Significand bits of stored values.
    pub(crate) prec: u32,
    /// The format whose exponent range bounds stored values, when
    /// `prec` does not exceed its precision.
    pub(crate) clamp: Option<Format>,
    pub(crate) round: RoundMode,
    /// Relative deviation above which an op is flagged.
    pub(crate) threshold: f64,
    /// `Some(format)` when slots use the f64 tier (see the module docs).
    pub(crate) f64_tier: Option<Format>,
}

impl MemParams {
    pub(crate) fn new(cfg: &Config) -> MemParams {
        let fmt = cfg.format;
        let f64_tier = cfg.round == RoundMode::NearestEven
            && fmt.double_round_safe()
            && cfg.mem_precision == fmt.precision();
        MemParams {
            prec: cfg.mem_precision,
            clamp: (cfg.mem_precision <= fmt.precision()).then_some(fmt),
            round: cfg.round,
            threshold: cfg.mem_threshold,
            f64_tier: f64_tier.then_some(fmt),
        }
    }
}

/// The f64 tier's rounding: `x` rounded to nearest-even into a
/// [`Format::double_round_safe`] format, NaN canonicalized (the SoftFloat
/// kernels only ever produce the positive quiet NaN).
#[inline(always)]
pub(crate) fn round_tier(fmt: Format, x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        round_rne_core(x, fmt.exp_bits(), fmt.man_bits())
    }
}

const HANDLE_TAG: u64 = 0x7FFA_0000_0000_0000;
const HANDLE_MASK: u64 = 0xFFFF_0000_0000_0000;
const HANDLE_IDX: u64 = !HANDLE_MASK;

/// Encode a slab index as a NaN-boxed handle.
#[inline]
pub(crate) fn encode_handle(idx: usize) -> f64 {
    debug_assert!((idx as u64) <= HANDLE_IDX);
    f64::from_bits(HANDLE_TAG | idx as u64)
}

/// Decode a handle back to a slab index, if the bit pattern is one.
#[inline]
pub(crate) fn decode_handle(x: f64) -> Option<usize> {
    let bits = x.to_bits();
    if bits & HANDLE_MASK == HANDLE_TAG {
        Some((bits & HANDLE_IDX) as usize)
    } else {
        None
    }
}

/// Cheap handle test: one mask-and-compare on the bit pattern. The
/// inactive mem-mode dispatch uses this to skip the shard borrow entirely
/// for plain values.
#[inline(always)]
pub(crate) fn is_handle(x: f64) -> bool {
    x.to_bits() & HANDLE_MASK == HANDLE_TAG
}

/// The truncated representation stored per value: allocation-free for
/// precisions the SoftFloat path covers, limb-based beyond (mem-mode
/// precision *increase*).
#[derive(Clone, Debug)]
pub(crate) enum SlotVal {
    Soft(SoftFloat),
    Big(BigFloat),
}

impl SlotVal {
    pub(crate) fn to_f64(&self) -> f64 {
        match self {
            SlotVal::Soft(s) => s.to_f64(),
            SlotVal::Big(b) => b.to_f64(),
        }
    }
}

/// One general-tier shadow slot: truncated value + FP64 shadow (Fig. 5b's
/// `_raptor_fp`).
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) val: SlotVal,
    pub(crate) shadow: f64,
}

/// One f64-tier shadow slot: the truncated value, exact in `f64`, and the
/// FP64 shadow.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotF64 {
    pub(crate) val: f64,
    pub(crate) shadow: f64,
}

/// Per-location flag statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocStats {
    /// Operations executed at this location.
    pub ops: u64,
    /// Operations whose truncated result deviated from the FP64 shadow by
    /// more than the configured threshold.
    pub flags: u64,
    /// Largest relative deviation observed.
    pub max_dev: f64,
    /// Sum of relative deviations (for the mean).
    pub sum_dev: f64,
}

/// A per-location entry of the mem-mode debugging report.
#[derive(Clone, Debug)]
pub struct LocReport {
    /// Source location.
    pub loc: SrcLoc,
    /// Statistics collected at that location.
    pub stats: LocStats,
}

impl LocReport {
    /// Mean relative deviation at this location.
    pub fn mean_dev(&self) -> f64 {
        if self.stats.ops == 0 {
            0.0
        } else {
            self.stats.sum_dev / self.stats.ops as f64
        }
    }
}

/// Shared mem-mode state of a session.
#[derive(Default)]
pub(crate) struct MemState {
    /// General-tier slab.
    pub(crate) slots: Vec<Slot>,
    /// f64-tier slab. A shard only ever fills the slab of its session's
    /// tier.
    pub(crate) slots_f64: Vec<SlotF64>,
    pub(crate) stats: LocMap,
    /// One-entry write-back cache in front of `stats`: consecutive ops at
    /// one location (a repeated call site, or `powi`'s multiply chain)
    /// accumulate here and reach the map as one run. Most consecutive ops
    /// of an expression sit at different columns, so most `record` calls
    /// miss and go to the map, which is why its hasher is cheap. The
    /// run-grouped sums fix the `sum_dev` addition order. Flushed on
    /// merge/reset/report.
    last_loc: Option<SrcLoc>,
    last_stats: LocStats,
    pub(crate) auto_promotions: u64,
}

impl MemState {
    pub(crate) fn live_slots(&self) -> usize {
        self.slots.len() + self.slots_f64.len()
    }

    pub(crate) fn clear_slab(&mut self) {
        self.slots.clear();
        self.slots_f64.clear();
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats.clear();
        self.last_loc = None;
        self.last_stats = LocStats::default();
        self.auto_promotions = 0;
    }

    /// Write the one-entry cache back into the map.
    fn flush_last(&mut self) {
        if let Some(loc) = self.last_loc.take() {
            let s = self.last_stats;
            self.last_stats = LocStats::default();
            let e = self.stats.entry(loc).or_default();
            e.ops += s.ops;
            e.flags += s.flags;
            e.sum_dev += s.sum_dev;
            if s.max_dev > e.max_dev {
                e.max_dev = s.max_dev;
            }
        }
    }

    /// Insert a general-tier slot and return its handle.
    pub(crate) fn push(&mut self, slot: Slot) -> f64 {
        let idx = self.slots.len();
        self.slots.push(slot);
        encode_handle(idx)
    }

    /// Insert an f64-tier slot and return its handle.
    #[inline]
    pub(crate) fn push_f64(&mut self, val: f64, shadow: f64) -> f64 {
        let idx = self.slots_f64.len();
        self.slots_f64.push(SlotF64 { val, shadow });
        encode_handle(idx)
    }

    /// Insert a value computed by the SoftFloat/BigFloat kernels into the
    /// slab of the session's tier and return its handle.
    pub(crate) fn push_val(&mut self, val: SlotVal, shadow: f64, mp: &MemParams) -> f64 {
        if mp.f64_tier.is_some() {
            self.push_f64(val.to_f64(), shadow)
        } else {
            self.push(Slot { val, shadow })
        }
    }

    /// The `pre()` conversion: a fresh slot holding `x` rounded into the
    /// session's storage precision, with `x` as its shadow.
    pub(crate) fn pre(&mut self, x: f64, mp: &MemParams) -> f64 {
        match mp.f64_tier {
            Some(fmt) => self.push_f64(round_tier(fmt, x), x),
            None => self.push(Slot { val: make_val(x, mp.prec, mp.clamp, mp.round), shadow: x }),
        }
    }

    /// `(truncated value, shadow)` of a live slot of the given tier.
    pub(crate) fn lookup(&self, idx: usize, mp: &MemParams) -> Option<(f64, f64)> {
        if mp.f64_tier.is_some() {
            self.slots_f64.get(idx).map(|s| (s.val, s.shadow))
        } else {
            self.slots.get(idx).map(|s| (s.val.to_f64(), s.shadow))
        }
    }

    /// Resolve a carrier value into (truncated value, shadow), auto-
    /// promoting raw values that never went through `pre()`. Serves both
    /// tiers: f64-tier values convert exactly into `SoftFloat`.
    pub(crate) fn resolve(&mut self, x: f64, mp: &MemParams) -> (SlotVal, f64) {
        if let Some(idx) = decode_handle(x) {
            if mp.f64_tier.is_some() {
                if let Some(s) = self.slots_f64.get(idx) {
                    return (SlotVal::Soft(SoftFloat::from_f64(s.val)), s.shadow);
                }
            } else if let Some(slot) = self.slots.get(idx) {
                return (slot.val.clone(), slot.shadow);
            }
        }
        self.auto_promotions += 1;
        (make_val(x, mp.prec, mp.clamp, mp.round), x)
    }

    /// f64-tier [`MemState::resolve`]: the stored pair, or the auto-
    /// promoted raw value rounded into `fmt`.
    #[inline]
    pub(crate) fn resolve_f64(&mut self, x: f64, fmt: Format) -> (f64, f64) {
        if let Some(idx) = decode_handle(x) {
            if let Some(s) = self.slots_f64.get(idx) {
                return (s.val, s.shadow);
            }
        }
        self.auto_promotions += 1;
        (round_tier(fmt, x), x)
    }

    /// A sign op on a live slot: a fresh slot with the sign applied to both
    /// the value and the shadow. Exact, so nothing is recorded. `None` when
    /// `x` is not a live handle of the session's tier.
    pub(crate) fn sign(&mut self, x: f64, op: SignOp, mp: &MemParams) -> Option<f64> {
        let idx = decode_handle(x)?;
        if mp.f64_tier.is_some() {
            let s = *self.slots_f64.get(idx)?;
            // The stored NaN stays the canonical one, as the SoftFloat
            // tier's sign ops leave it.
            let val = if s.val.is_nan() { s.val } else { op.apply(s.val) };
            Some(self.push_f64(val, op.apply(s.shadow)))
        } else {
            let s = self.slots.get(idx)?;
            let val = match (&s.val, op) {
                (SlotVal::Soft(v), SignOp::Neg) => SlotVal::Soft(v.neg()),
                (SlotVal::Soft(v), SignOp::Abs) => SlotVal::Soft(v.abs()),
                (SlotVal::Big(b), SignOp::Neg) => SlotVal::Big(b.neg()),
                (SlotVal::Big(b), SignOp::Abs) => SlotVal::Big(b.abs()),
            };
            let shadow = op.apply(s.shadow);
            Some(self.push(Slot { val, shadow }))
        }
    }

    /// Record an operation's deviation at a location, accumulating runs of
    /// one location in the write-back cache.
    #[inline]
    pub(crate) fn record(&mut self, loc: SrcLoc, rel_dev: f64, threshold: f64) {
        if self.last_loc != Some(loc) {
            self.flush_last();
            self.last_loc = Some(loc);
        }
        let e = &mut self.last_stats;
        e.ops += 1;
        e.sum_dev += rel_dev;
        if rel_dev > e.max_dev {
            e.max_dev = rel_dev;
        }
        if rel_dev > threshold {
            e.flags += 1;
        }
    }

    /// Drain another shard's flag statistics and auto-promotion count into
    /// this (merged) state. Called at sweep barriers and on session-guard
    /// drop; the shard's *slots* are never merged — handles are strictly
    /// thread-local and die at the barrier.
    pub(crate) fn merge_stats(&mut self, shard: &mut MemState) {
        shard.flush_last();
        for (loc, s) in shard.stats.drain() {
            let e = self.stats.entry(loc).or_default();
            e.ops += s.ops;
            e.flags += s.flags;
            e.sum_dev += s.sum_dev;
            if s.max_dev > e.max_dev {
                e.max_dev = s.max_dev;
            }
        }
        self.auto_promotions += shard.auto_promotions;
        shard.auto_promotions = 0;
    }

    /// Sorted report: most-flagged locations first (the §6.3 heatmap).
    pub(crate) fn report(&self) -> Vec<LocReport> {
        let mut v: Vec<LocReport> = self
            .stats
            .iter()
            .map(|(loc, stats)| LocReport { loc: *loc, stats: *stats })
            .collect();
        // Fold in a pending cache entry (only shards carry one; the merged
        // session state is fed exclusively through `merge_stats`).
        if let Some(loc) = self.last_loc {
            let s = self.last_stats;
            if let Some(r) = v.iter_mut().find(|r| r.loc == loc) {
                r.stats.ops += s.ops;
                r.stats.flags += s.flags;
                r.stats.sum_dev += s.sum_dev;
                if s.max_dev > r.stats.max_dev {
                    r.stats.max_dev = s.max_dev;
                }
            } else {
                v.push(LocReport { loc, stats: s });
            }
        }
        v.sort_by(|a, b| {
            b.stats
                .flags
                .cmp(&a.stats.flags)
                .then(b.stats.max_dev.partial_cmp(&a.stats.max_dev).unwrap_or(core::cmp::Ordering::Equal))
                .then(a.loc.cmp(&b.loc))
        });
        v
    }
}

/// Build a truncated representation of a raw f64 at `prec` bits, optionally
/// clamped to a format's exponent range. At the format's own precision the
/// value is rounded once, so the subnormal range sees a single rounding
/// (rounding to `prec` bits first and then into the format would round
/// those values twice).
pub(crate) fn make_val(x: f64, prec: u32, clamp: Option<Format>, round: RoundMode) -> SlotVal {
    if prec <= 62 {
        let s = SoftFloat::from_f64(x);
        let r = match clamp {
            Some(fmt) if prec == fmt.precision() => fmt.round_soft(&s, round),
            Some(fmt) => fmt.round_soft(&s.round_to_prec_checked_pub(prec, round), round),
            None => s.round_to_prec_checked_pub(prec, round),
        };
        SlotVal::Soft(r)
    } else {
        SlotVal::Big(BigFloat::from_f64(x).round_to_prec(prec, round))
    }
}

/// Relative deviation between a truncated result and its FP64 shadow.
pub(crate) fn rel_deviation(truncated: f64, shadow: f64) -> f64 {
    if truncated == shadow {
        return 0.0;
    }
    if truncated.is_nan() && shadow.is_nan() {
        return 0.0;
    }
    if !truncated.is_finite() || !shadow.is_finite() {
        return f64::INFINITY;
    }
    let denom = shadow.abs().max(f64::MIN_POSITIVE.sqrt());
    (truncated - shadow).abs() / denom
}

// Small helper so make_val can round non-normal values safely.
trait RoundChecked {
    fn round_to_prec_checked_pub(&self, prec: u32, mode: RoundMode) -> SoftFloat;
}

impl RoundChecked for SoftFloat {
    fn round_to_prec_checked_pub(&self, prec: u32, mode: RoundMode) -> SoftFloat {
        if self.is_finite() && !self.is_zero() {
            self.round_to_prec(prec, mode)
        } else {
            *self
        }
    }
}

#[cfg(test)]
mod tier_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip_and_detection() {
        for idx in [0usize, 1, 42, 1 << 20, (1 << 40) + 7] {
            let h = encode_handle(idx);
            assert!(h.is_nan(), "handles are NaN-boxed");
            assert_eq!(decode_handle(h), Some(idx));
        }
        assert_eq!(decode_handle(1.5), None);
        assert_eq!(decode_handle(f64::NAN), None, "genuine NaN is not a handle");
        assert_eq!(decode_handle(f64::INFINITY), None);
        assert_eq!(decode_handle(0.0), None);
    }

    /// General-tier parameters at `prec` bits, unclamped.
    fn general(prec: u32) -> MemParams {
        MemParams { prec, clamp: None, round: RoundMode::NearestEven, threshold: 0.0, f64_tier: None }
    }

    #[test]
    fn resolve_auto_promotes_raw_values() {
        let mut m = MemState::default();
        let (v, sh) = m.resolve(0.1, &general(11));
        assert_eq!(sh, 0.1);
        // 0.1 at 11 bits is visibly coarser.
        assert!((v.to_f64() - 0.1).abs() > 1e-6);
        assert_eq!(m.auto_promotions, 1);
    }

    #[test]
    fn slab_push_and_resolve() {
        let mut m = MemState::default();
        let h = m.push(Slot { val: make_val(2.5, 24, None, RoundMode::NearestEven), shadow: 2.5 });
        let (v, sh) = m.resolve(h, &general(24));
        assert_eq!(v.to_f64(), 2.5);
        assert_eq!(sh, 2.5);
        assert_eq!(m.auto_promotions, 0);
        assert_eq!(m.live_slots(), 1);
        m.clear_slab();
        assert_eq!(m.live_slots(), 0);
    }

    #[test]
    fn high_precision_slots_use_bigfloat() {
        let v = make_val(1.0 / 3.0, 120, None, RoundMode::NearestEven);
        assert!(matches!(v, SlotVal::Big(_)));
        let v2 = make_val(1.0 / 3.0, 24, None, RoundMode::NearestEven);
        assert!(matches!(v2, SlotVal::Soft(_)));
    }

    #[test]
    fn deviation_metric() {
        assert_eq!(rel_deviation(1.0, 1.0), 0.0);
        assert!((rel_deviation(1.01, 1.0) - 0.01).abs() < 1e-12);
        assert_eq!(rel_deviation(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(rel_deviation(f64::NAN, f64::NAN), 0.0);
    }

    #[test]
    fn flag_recording_and_report_order() {
        let mut m = MemState::default();
        let l1 = SrcLoc { file: "a.rs", line: 1, col: 1 };
        let l2 = SrcLoc { file: "b.rs", line: 2, col: 2 };
        m.record(l1, 0.5, 0.1); // flag
        m.record(l1, 0.0, 0.1);
        m.record(l2, 0.2, 0.1); // flag
        m.record(l2, 0.3, 0.1); // flag
        let rep = m.report();
        assert_eq!(rep[0].loc, l2);
        assert_eq!(rep[0].stats.flags, 2);
        assert_eq!(rep[1].loc, l1);
        assert_eq!(rep[1].stats.flags, 1);
        assert_eq!(rep[1].stats.ops, 2);
        assert!((rep[1].mean_dev() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn f64_tier_eligibility_follows_the_config() {
        let e11m12 = Format::new(11, 12);
        let tier = |cfg: Config| MemParams::new(&cfg).f64_tier;
        let mem = |fmt| Config::mem_functions(fmt, ["K"], 1e-4);
        for fmt in [e11m12, Format::FP16, Format::BF16, Format::FP8_E4M3, Format::FP8_E5M2] {
            assert_eq!(tier(mem(fmt)), Some(fmt), "{fmt} qualifies");
        }
        assert_eq!(tier(mem(e11m12).with_mem_precision(120)), None, "precision increase");
        assert_eq!(tier(mem(e11m12).with_mem_precision(8)), None, "precision below the format");
        let mut directed = mem(e11m12);
        directed.round = RoundMode::TowardZero;
        assert_eq!(tier(directed), None, "directed rounding");
        assert_eq!(tier(mem(Format::new(11, 24))), None, "not double-round safe");
    }

    #[test]
    fn loc_hash_is_consistent_with_content_equality() {
        let hash = |l: &SrcLoc| {
            let mut h = LocHasher::default();
            l.hash(&mut h);
            h.finish()
        };
        let file = String::from("src/a.rs").leak();
        let a = SrcLoc { file: "src/a.rs", line: 3, col: 9 };
        let b = SrcLoc { file, line: 3, col: 9 };
        assert_eq!(a, b, "equal by content at different addresses");
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, SrcLoc { file: "src/b.rs", line: 3, col: 9 });
        assert_ne!(hash(&a), hash(&SrcLoc { col: 10, ..a }));
    }
}
