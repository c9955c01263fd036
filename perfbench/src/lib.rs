//! # perfbench — RAPTOR's profiling cost and study throughput
//!
//! One command runs one workload for a fixed time and prints its metrics:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sedov-opt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (closed loop: each timed run starts when the previous one
//! ends; one process, at most two threads):
//!
//! * `sedov-opt` — Sedov blast, native `f64` vs op-mode SoftFloat e11m12
//!   M-0 over `Hydro` (the batch-tier row of Table 3);
//! * `sedov-mem` — the same problem family, native vs mem-mode over
//!   `Hydro` with counting (scalar `Tracked` dispatch, shadow slab, flag
//!   tables, SoftFloat rounding);
//! * `study` — the whole scenario registry at mini scale through
//!   `run_study_resumed` at two ranks, cold then warm.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]); `--trace 1`
//! runs the separate traced loop and prints the per-layer metrics
//! ([`PER_LAYER`]), writing its spans to `perfbench/out/`. The last line of
//! standard output is the result object; the line before it carries the
//! provenance and every sample's median, quartiles and count.

pub mod report;
pub mod sedov;
pub mod study;
pub mod trace;

use report::{Metric, Metrics, Samples, Tally};
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by every workload from its
/// untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("native_s", "s"),
    ("profile_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload from its
/// traced run; a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hydro.sweep_axis.self_s", "s"),
    ("hydro.sweep_axis.calls", "count"),
    ("hydro.ns_per_cell_update", "ns"),
    ("hydro.compute_dt.self_s", "s"),
    ("hydro.compute_dt.calls", "count"),
    ("amr.fill_guards.self_s", "s"),
    ("amr.fill_guards.calls", "count"),
    ("amr.adapt.self_s", "s"),
    ("amr.adapt.calls", "count"),
    ("amr.adapt.refined", "count"),
    ("amr.adapt.coarsened", "count"),
    ("amr.leaves_final", "count"),
    ("raptor-core.trunc_ops", "count"),
    ("raptor-core.full_ops", "count"),
    ("raptor-core.trunc_frac", "ratio"),
    ("raptor-core.ns_per_op", "ns"),
    ("raptor-core.overhead_x", "ratio"),
    ("raptor-core.mem_flag_rows", "count"),
    ("raptor-core.warnings", "count"),
    ("study.hydro.run_s", "s"),
    ("study.incomp.run_s", "s"),
    ("study.eos.run_s", "s"),
    ("study.raptor-ir.run_s", "s"),
    ("study.baseline.run_s", "s"),
    ("study.pairs", "count"),
    ("raptor-lab.queue_wait_s", "s"),
    ("raptor-lab.stealers", "count"),
    ("raptor-lab.rank_imbalance", "ratio"),
    ("raptor-lab.pool_efficiency", "ratio"),
    ("raptor-lab.cache.load_s", "s"),
    ("raptor-lab.cache.rows", "count"),
    ("raptor-lab.cache.bytes", "bytes"),
    ("raptor-lab.cache.recovered", "count"),
    ("trace.overhead_s", "s"),
    ("failed_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sedov under op-mode SoftFloat M-0.
    SedovOpt,
    /// Sedov under mem-mode with counting.
    SedovMem,
    /// The full-registry study, cold and warm.
    Study,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SedovOpt, Workload::SedovMem, Workload::Study];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SedovOpt => "sedov-opt",
            Workload::SedovMem => "sedov-mem",
            Workload::Study => "study",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The time budget of one invocation: keep starting timed runs until
/// `seconds` have passed, and run at least `min` of them.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
    min: usize,
}

impl Deadline {
    /// A budget of `seconds` with at least `min` runs.
    pub fn new(seconds: f64, min: usize) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            min,
        }
    }

    /// Whether another run should start after `done` runs.
    pub fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed() < self.budget
    }
}

/// Run `f`, turning a panic into an error message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panic: {msg}")
    })
}

/// What one invocation measured.
pub struct Outcome {
    /// The metrics of the requested kind, in declaration order.
    pub metrics: Metrics,
    /// Attempted and failed runs.
    pub tally: Tally,
    /// Every sampled timing, by metric name.
    pub samples: Vec<(&'static str, Samples)>,
}

/// Run `workload` for `seconds`; with a trace, run the traced loop and
/// report per-layer metrics instead of end-to-end ones.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: Option<&mut trace::Trace>,
) -> Result<Outcome, String> {
    let traced = trace.is_some();
    let deadline = Deadline::new(seconds, if traced { 1 } else { 3 });
    let work_dir = report::package_dir().join("out");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let (measured, tally, samples) = match workload {
        Workload::SedovOpt => sedov::run(sedov::Kind::Opt, seed, deadline, trace),
        Workload::SedovMem => sedov::run(sedov::Kind::Mem, seed, deadline, trace),
        Workload::Study => study::run(seed, deadline, trace, &work_dir),
    };
    let get = |name: &str| measured.iter().find(|p| p.0 == name).map(|p| p.1);
    let mut metrics = Vec::new();
    for &(name, unit) in if traced { PER_LAYER } else { END_TO_END } {
        let value = match (name, traced) {
            ("failed_frac", true) => tally.failed_frac(),
            (_, true) => get(name).unwrap_or(0.0),
            (_, false) => get(name).ok_or_else(|| format!("{name} was not measured"))?,
        };
        metrics.push(Metric { name, value, unit });
    }
    Ok(Outcome {
        metrics: Metrics(metrics),
        tally,
        samples,
    })
}

/// SplitMix64: the seeded generator behind every generated input.
pub mod rng {
    /// Generator state.
    pub struct SplitMix(u64);

    impl SplitMix {
        /// Seed the generator.
        pub fn new(seed: u64) -> SplitMix {
            SplitMix(seed)
        }

        /// Next 64 random bits.
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_core::Json;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = report::package_dir().join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.str_field("name").unwrap().to_string(),
                        m.str_field("unit").unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
