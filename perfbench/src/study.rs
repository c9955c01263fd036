//! The `study` workload: the full scenario registry (13 scenarios, four
//! workload crates) at mini scale over a seeded 12-candidate lattice,
//! through `run_study_resumed` at two ranks — cold into a fresh cache
//! directory, then warm replays of the completed directory.

use crate::report::{medians, Samples, Tally, Values};
use crate::rng::SplitMix;
use crate::trace::Trace;
use crate::Deadline;
use bigfloat::Format;
use raptor_core::Session;
use raptor_lab::{
    run_study_resumed, study_scenarios, CampaignSpec, CandidateSpec, LabParams, OutcomeCache,
    Scenario, StudyReport, StudyStats,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ranks of the distributed study (and its stealer budget).
const RANKS: usize = 2;
/// Warm replays after each cold study.
const WARM_PER_COLD: usize = 8;
/// Timed set-ups per round.
const SETUP_REPS: usize = 8;
/// Formats drawn per lattice.
const FORMATS: usize = 6;

/// The formats the batch tier ships monomorphized kernels for
/// (`raptor_core::batch`'s static kernel table).
const KERNEL_TABLE_FORMATS: [(u32, u32); 14] = [
    (4, 3),
    (5, 2),
    (5, 10),
    (5, 14),
    (8, 7),
    (8, 10),
    (8, 23),
    (11, 4),
    (11, 6),
    (11, 8),
    (11, 10),
    (11, 12),
    (11, 14),
    (11, 16),
];

/// The seeded candidate lattice: six distinct kernel-table formats, widest
/// mantissa first, each static and M-1.
fn lattice(seed: u64) -> Vec<CandidateSpec> {
    let mut pool: Vec<(u32, u32)> = KERNEL_TABLE_FORMATS.to_vec();
    let mut r = SplitMix::new(seed);
    let mut picked = Vec::new();
    for _ in 0..FORMATS {
        picked.push(pool.swap_remove((r.next() % pool.len() as u64) as usize));
    }
    picked.sort_by_key(|&(e, m)| (std::cmp::Reverse(m), std::cmp::Reverse(e)));
    picked
        .into_iter()
        .flat_map(|(e, m)| {
            let f = Format::new(e, m);
            [CandidateSpec::op(f), CandidateSpec::op(f).with_cutoff(1)]
        })
        .collect()
}

/// The study specification for a seed: mini scale, the seeded lattice,
/// one stealer per rank.
fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::sweep(LabParams::mini());
    spec.candidates = lattice(seed);
    spec.workers = RANKS;
    spec
}

fn eligible<'a>(
    s: &dyn Scenario,
    spec: &'a CampaignSpec,
) -> impl Iterator<Item = &'a CandidateSpec> {
    let refined = s.max_level(&spec.params) > 1;
    spec.candidates
        .iter()
        .filter(move |c| c.cutoff.is_none() || refined)
}

/// Number of `(scenario, candidate)` pairs of a study (M-1 candidates are
/// dropped for unrefined scenarios).
fn pair_count(scenarios: &[Box<dyn Scenario>], spec: &CampaignSpec) -> usize {
    scenarios
        .iter()
        .map(|s| eligible(s.as_ref(), spec).count())
        .sum()
}

fn check_cold(
    report: &StudyReport,
    stats: &StudyStats,
    pairs: usize,
    dir: &Path,
) -> Result<(), String> {
    for s in &report.scenarios {
        if s.baseline_fidelity != 1.0 {
            return Err(format!(
                "{}: baseline fidelity {}",
                s.scenario, s.baseline_fidelity
            ));
        }
        if let Some(o) = s.outcomes.iter().find(|o| o.error.is_some()) {
            return Err(format!("{} {}: {:?}", s.scenario, o.spec.label(), o.error));
        }
    }
    if (stats.computed, stats.cached) != (pairs, 0) {
        return Err(format!(
            "cold study computed {} cached {} of {pairs} pairs",
            stats.computed, stats.cached
        ));
    }
    if stats.pairs_by_rank.len() != RANKS
        || stats.pairs_by_rank.iter().sum::<usize>() != stats.computed
    {
        return Err(format!(
            "pairs_by_rank {:?} does not sum to {}",
            stats.pairs_by_rank, stats.computed
        ));
    }
    let cache = OutcomeCache::load(dir)?;
    if cache.recovered() != 0 || cache.len() != pairs {
        return Err(format!(
            "cache holds {} rows of {pairs}, {} recovered",
            cache.len(),
            cache.recovered()
        ));
    }
    Ok(())
}

fn check_warm(
    cold_json: &str,
    report: &StudyReport,
    stats: &StudyStats,
    pairs: usize,
) -> Result<(), String> {
    if (stats.computed, stats.cached) != (0, pairs) {
        return Err(format!(
            "warm study computed {} cached {} of {pairs} pairs",
            stats.computed, stats.cached
        ));
    }
    if report.to_json().render() != cold_json {
        return Err("warm report differs from the cold one".into());
    }
    Ok(())
}

/// Timings and checks of one workload run.
struct Run {
    spec: CampaignSpec,
    scenarios: Vec<Box<dyn Scenario>>,
    pairs: usize,
    dir: PathBuf,
    setup: Samples,
    cold: Samples,
    warm: Samples,
    rss: Samples,
    tally: Tally,
    first_json: Option<String>,
}

impl Run {
    /// Registry, spec and a fresh cache directory. Set-up takes a fraction
    /// of a millisecond, so it is repeated to give its median enough
    /// samples; the last repeat is used.
    fn set_up(&mut self, seed: u64) -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            reset_dir(&self.dir)?;
            let t = Instant::now();
            self.scenarios = study_scenarios(None)?;
            self.spec = spec(seed);
            self.pairs = pair_count(&self.scenarios, &self.spec);
            std::fs::create_dir_all(&self.dir)
                .map_err(|e| format!("{}: {e}", self.dir.display()))?;
            self.setup.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// One cold study; returns its wall time.
    fn cold_study(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let (report, stats) = run_study_resumed(&self.scenarios, &self.spec, RANKS, &self.dir)?;
        let wall = t.elapsed().as_secs_f64();
        self.cold.push(wall);
        let json = report.to_json().render();
        let check = check_cold(&report, &stats, self.pairs, &self.dir).and_then(|()| {
            match &self.first_json {
                Some(first) if *first != json => {
                    Err("cold report differs from the first cold run".to_string())
                }
                _ => Ok(()),
            }
        });
        self.first_json.get_or_insert(json);
        self.tally.record(check);
        Ok(wall)
    }

    /// One warm replay of the completed directory.
    fn warm_study(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let (report, stats) = run_study_resumed(&self.scenarios, &self.spec, RANKS, &self.dir)?;
        let wall = t.elapsed().as_secs_f64();
        self.warm.push(wall);
        let cold = self.first_json.as_deref().unwrap_or_default();
        self.tally
            .record(check_warm(cold, &report, &stats, self.pairs));
        Ok(wall)
    }

    /// Set up, run one cold study and its warm replays.
    fn round(&mut self, seed: u64) -> Result<f64, String> {
        self.set_up(seed)?;
        let cold = self.cold_study()?;
        for _ in 0..WARM_PER_COLD {
            self.warm_study()?;
        }
        // The process footprint grows by a few hundred kB per repeated
        // round, so the peak is read after the first round, at the same
        // point of every run.
        if self.rss.is_empty() {
            self.rss.push(crate::report::peak_rss_mb()?);
        }
        Ok(cold)
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Span name of a scenario crate's replayed pairs.
fn crate_span(crate_name: &str) -> &'static str {
    match crate_name {
        "hydro" => "study.hydro",
        "incomp" => "study.incomp",
        "eos" => "study.eos",
        "raptor-ir" => "study.raptor-ir",
        _ => "study.other",
    }
}

/// Run the study workload for `deadline` and return its metrics and tally.
/// Cache directories live under `work_dir` and are removed afterwards.
pub fn run(
    seed: u64,
    deadline: Deadline,
    trace: Option<&mut Trace>,
    work_dir: &Path,
) -> (Values, Tally, Vec<(&'static str, Samples)>) {
    let mut run = Run {
        spec: spec(seed),
        scenarios: Vec::new(),
        pairs: 0,
        dir: work_dir.join(format!("study-cache-{}", std::process::id())),
        setup: Samples::default(),
        cold: Samples::default(),
        warm: Samples::default(),
        rss: Samples::default(),
        tally: Tally::default(),
        first_json: None,
    };
    let measured = match trace {
        None => {
            while deadline.more(run.cold.len()) && run.tally.failed == 0 {
                if let Err(e) = crate::catch(|| run.round(seed)).and_then(|r| r) {
                    run.tally.record(Err(e));
                }
            }
            vec![
                ("setup_s", run.setup.trimmed_mean()),
                ("native_s", run.warm.trimmed_mean()),
                ("profile_s", run.cold.trimmed_mean()),
                ("peak_rss_mb", run.rss.median()),
            ]
        }
        Some(tr) => {
            let mut untraced_cold = Samples::default();
            let mut traced: Vec<Values> = Vec::new();
            let mut traced_cold = Samples::default();
            while deadline.more(traced.len()) && run.tally.failed == 0 {
                match crate::catch(|| run.round(seed)).and_then(|r| r) {
                    Ok(wall) => untraced_cold.push(wall),
                    Err(e) => run.tally.record(Err(e)),
                }
                let i = traced.len();
                match crate::catch(|| traced_round(&mut run, seed, tr, i)).and_then(|r| r) {
                    Ok((wall, layers)) => {
                        traced_cold.push(wall);
                        traced.push(layers);
                    }
                    Err(e) => run.tally.record(Err(e)),
                }
            }
            let mut layers = medians(&traced);
            layers.push((
                "trace.overhead_s",
                traced_cold.median() - untraced_cold.median(),
            ));
            layers.push((
                "raptor-core.overhead_x",
                run.cold.trimmed_mean() / run.warm.trimmed_mean(),
            ));
            layers
        }
    };
    let _ = reset_dir(&run.dir);
    let samples = vec![
        ("setup_s", run.setup),
        ("native_s", run.warm),
        ("profile_s", run.cold),
        ("peak_rss_mb", run.rss),
    ];
    (measured, run.tally, samples)
}

/// One traced round: a cold study and a warm replay under spans, the
/// completed cache loaded under a span, then every pair replayed serially
/// with its time summed by crate. Returns the traced cold wall time and
/// the round's per-layer values.
fn traced_round(
    run: &mut Run,
    seed: u64,
    tr: &mut Trace,
    i: usize,
) -> Result<(f64, Values), String> {
    tr.set_run(i);
    run.set_up(seed)?;
    let t = Instant::now();
    let (report, stats) = tr.span("raptor-lab.run_study_resumed.cold", |_| {
        run_study_resumed(&run.scenarios, &run.spec, RANKS, &run.dir)
    })?;
    let cold_wall = t.elapsed().as_secs_f64();
    run.tally
        .record(check_cold(&report, &stats, run.pairs, &run.dir));
    let cache = tr.span("raptor-lab.cache.load", |_| OutcomeCache::load(&run.dir))?;
    let (warm, wstats) = tr.span("raptor-lab.run_study_resumed.warm", |_| {
        run_study_resumed(&run.scenarios, &run.spec, RANKS, &run.dir)
    })?;
    let cold_json = report.to_json().render();
    run.tally
        .record(check_warm(&cold_json, &warm, &wstats, run.pairs));

    // Serial replay of every pair: the same build → run → fidelity the
    // pool performs, so the per-crate times split the cold study's work.
    let params = run.spec.params;
    let mut replay_err = None;
    for s in &run.scenarios {
        let baseline = tr.span("study.baseline", |_| {
            s.build(&params).run(&Session::passthrough())
        });
        let max_level = s.max_level(&params);
        let section = report
            .scenario(s.name())
            .ok_or_else(|| format!("{} missing from report", s.name()))?;
        for cand in eligible(s.as_ref(), &run.spec) {
            let session = Session::new(cand.config(s.as_ref(), max_level)?)?;
            let trial = tr.span(crate_span(s.crate_name()), |_| {
                s.build(&params).run(&session)
            });
            let fidelity = s.fidelity(&trial, &baseline);
            let label = cand.label();
            let reported = section
                .outcomes
                .iter()
                .find(|o| o.spec.label() == label)
                .map(|o| o.fidelity);
            if reported.map(f64::to_bits) != Some(fidelity.to_bits()) && replay_err.is_none() {
                replay_err = Some(format!(
                    "{} {label}: replay fidelity {fidelity} vs study {reported:?}",
                    s.name()
                ));
            }
        }
    }
    run.tally.record(replay_err.map_or(Ok(()), Err));

    let agg = tr.aggregate(i);
    let total = |n: &str| agg.get(n).map_or(0.0, |a| a.total_s);
    let pair_s: f64 = agg
        .iter()
        .filter(|(name, _)| name.starts_with("study."))
        .map(|(_, a)| a.total_s)
        .sum();
    let by_rank = &stats.pairs_by_rank;
    let mean = by_rank.iter().sum::<usize>() as f64 / by_rank.len().max(1) as f64;
    let imbalance = by_rank.iter().copied().max().unwrap_or(0) as f64 / mean.max(f64::MIN_POSITIVE);
    Ok((
        cold_wall,
        vec![
            ("study.hydro.run_s", total("study.hydro")),
            ("study.incomp.run_s", total("study.incomp")),
            ("study.eos.run_s", total("study.eos")),
            ("study.raptor-ir.run_s", total("study.raptor-ir")),
            ("study.baseline.run_s", total("study.baseline")),
            ("study.pairs", run.pairs as f64),
            ("raptor-lab.queue_wait_s", stats.queue_wait_s),
            ("raptor-lab.stealers", stats.stealers as f64),
            ("raptor-lab.rank_imbalance", imbalance),
            (
                "raptor-lab.pool_efficiency",
                pair_s / (stats.stealers.max(1) as f64 * cold_wall),
            ),
            ("raptor-lab.cache.load_s", total("raptor-lab.cache.load")),
            (
                "raptor-lab.cache.rows",
                (cache.len() + cache.probes_len()) as f64,
            ),
            ("raptor-lab.cache.bytes", dir_bytes(&run.dir) as f64),
            ("raptor-lab.cache.recovered", cache.recovered() as f64),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_is_seeded_and_well_formed() {
        let a = lattice(3);
        assert_eq!(a.len(), 2 * FORMATS);
        assert_eq!(a, lattice(3));
        let labels: Vec<String> = a.iter().map(CandidateSpec::label).collect();
        let mut uniq = labels.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), labels.len(), "{labels:?}");
        for c in &a {
            let (e, m) = (c.format.exp_bits(), c.format.man_bits());
            assert!(KERNEL_TABLE_FORMATS.contains(&(e, m)));
        }
        assert!(
            (0..16).any(|s| lattice(s) != a),
            "seeds draw different lattices"
        );
    }

    #[test]
    fn full_registry_pair_count() {
        let scenarios = study_scenarios(None).unwrap();
        assert_eq!(scenarios.len(), 13);
        let spec = spec(0);
        let refined = scenarios
            .iter()
            .filter(|s| s.max_level(&spec.params) > 1)
            .count();
        assert_eq!(
            pair_count(&scenarios, &spec),
            13 * FORMATS + refined * FORMATS
        );
    }
}
