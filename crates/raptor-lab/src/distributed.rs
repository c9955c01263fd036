//! The two drivers: [`execute_study`] sweeps a candidate lattice over
//! one or more scenarios, [`execute_search`] runs the greedy precision
//! hunt over one scenario. Both take an [`Exec`] — how many [`minimpi`]
//! ranks to spread the work over, and which cache directory (if any) to
//! resume from — and return the merged result plus the [`StudyStats`] of
//! the run. Everything they schedule goes through the shared
//! work-stealing [`TaskPool`] (see the [`crate::queue`] module docs for
//! the protocol).
//!
//! A study flattens every `(scenario, candidate)` pair into one task
//! list; a campaign is the one-scenario study. Each pair is one task, so
//! skewed per-pair costs (a Kelvin–Helmholtz run next to a 16-call IR
//! kernel) never idle a rank. Per-scenario full-precision baselines are
//! lazy pool *resources*: the first stealer to need one computes and
//! uploads it bit-exactly, and a scenario whose pairs are all cached
//! never runs one. Finished [`CandidateOutcome`] rows return to rank 0 as
//! JSON payloads whose finite `f64` fields round-trip exactly, and are
//! reassembled **in lattice order** before the deterministic re-gate and
//! stable ranking sort — so the merged [`StudyReport`] is byte-identical
//! to [`crate::run_study`] (and each section to [`crate::run_campaign`])
//! for any rank count.
//!
//! A search steals at **probe** granularity: each greedy-bisection probe
//! is one task, and the per-cutoff chain state (a `campaign::ProbeChain`)
//! lives with the row owner — the rank-0 queue server — which readies a
//! chain's next probe the moment its pending one completes. Probe chains
//! are the most skewed work in the repo (their lengths differ per
//! cutoff); stealing probes keeps every rank busy until the last chain
//! dries up, while the shared `ProbeChain` machine keeps the rows
//! identical to [`crate::precision_search`] probe for probe.
//!
//! With `Exec::cache` set, both drivers load the [`OutcomeCache`]
//! directory, serve what it already holds, write back what they compute,
//! save, and append one [`StatsRecord`] to the `stats_history.jsonl`
//! inside it (labelled `campaign:<scenario>`, `study:<n> scenarios`, or
//! `hunt:<scenario>`). Only missing pairs enter the queue, and cached
//! `accepted` verdicts are re-gated against the live fidelity floor at
//! merge time. Every bisection probe is a deterministic
//! `(scenario, scale, cutoff, m)` point, so cached probes advance the
//! chains without granting tasks. A warm resume of a completed study or
//! hunt performs **zero** scenario runs, baselines included.

use crate::cache::OutcomeCache;
use crate::campaign::{
    eligible_candidates, regate_and_rank, run_candidate, run_probe, CampaignReport, CampaignSpec,
    CandidateOutcome, CandidateSpec, ProbeChain, SearchRow, SearchSpec,
};
use crate::queue::{FixedTasks, Task, TaskCtx, TaskPool, TaskSource};
use crate::scenario::{Observable, Scenario};
use crate::study::{append_stats_history, StatsRecord, StudyReport, StudyStats};
use minimpi::Json;
use raptor_core::Session;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::Instant;

/// Where a study or search runs: the rank count and the resume cache.
/// The worker budget stays in the spec ([`CampaignSpec::workers`],
/// [`SearchSpec::workers`]).
#[derive(Clone, Copy, Debug)]
pub struct Exec<'a> {
    /// minimpi rank count (`0` is treated as `1`).
    pub ranks: usize,
    /// Outcome-cache directory to resume from and write back to; `None`
    /// runs without a cache and records no stats history.
    pub cache: Option<&'a Path>,
}

/// Run `body` against the cache `exec` names, if any: load it, run,
/// save the staged rows, and append one [`StatsRecord`] labelled `label`
/// to its stats history. The append is best-effort observability — a
/// failure there is reported on stderr, never allowed to discard the
/// completed (and already saved) run.
fn with_cache<T>(
    exec: &Exec<'_>,
    label: String,
    body: impl FnOnce(Option<&mut OutcomeCache>) -> (T, StudyStats),
) -> Result<(T, StudyStats), String> {
    let Some(path) = exec.cache else {
        return Ok(body(None));
    };
    let mut cache = OutcomeCache::load(path)?;
    let (out, stats) = body(Some(&mut cache));
    cache.save()?;
    if let Err(e) =
        append_stats_history(cache.path(), &StatsRecord::now(label, exec.ranks, &stats))
    {
        eprintln!("warning: scheduler stats history not recorded: {e}");
    }
    Ok((out, stats))
}

/// Run `f` against the baseline [`Observable`] for pool resource `key`,
/// materializing it from the raw resource vector at most once per
/// stealer (via [`TaskCtx::memo`], so the memo lives and dies with the
/// stealer's pool run) — tasks are whole scenario runs, but there is no
/// reason to re-clone the resource vector into an `Observable` for every
/// one of them.
fn with_baseline<T>(ctx: &TaskCtx<'_>, key: u64, f: impl FnOnce(&Observable) -> T) -> T {
    ctx.memo(key, |ctx| Observable { values: (*ctx.resource(key)).clone() }, f)
}

// ---------------------------------------------------------------------------
// Studies (and campaigns: the one-scenario study)
// ---------------------------------------------------------------------------

/// Sweep `spec`'s candidate lattice over `scenarios` across `exec.ranks`
/// ranks, resuming from `exec.cache` if set. The report is
/// byte-identical (JSON) to [`crate::run_study`] for any rank count and
/// cache state; a one-scenario study's single section is the campaign
/// [`crate::run_campaign`] reports. Errors come only from the cache
/// (load or save).
pub fn execute_study(
    scenarios: &[Box<dyn Scenario>],
    spec: &CampaignSpec,
    exec: &Exec<'_>,
) -> Result<(StudyReport, StudyStats), String> {
    let label = match scenarios {
        [one] => format!("campaign:{}", one.name()),
        _ => format!("study:{} scenarios", scenarios.len()),
    };
    with_cache(exec, label, |cache| study_pairs(scenarios, spec, exec.ranks, cache))
}

/// One entry of the flattened `(scenario, candidate)` pair lattice.
struct Pair {
    /// Index into the study's scenario list.
    scenario: usize,
    candidate: CandidateSpec,
}

/// The study merge: serve cached pairs, steal the missing ones, and
/// reassemble every section in lattice order.
fn study_pairs(
    scenarios: &[Box<dyn Scenario>],
    spec: &CampaignSpec,
    nranks: usize,
    mut cache: Option<&mut OutcomeCache>,
) -> (StudyReport, StudyStats) {
    let t0 = Instant::now();
    let nranks = nranks.max(1);
    let max_levels: Vec<u32> = scenarios.iter().map(|s| s.max_level(&spec.params)).collect();

    // The flattened pair lattice, in (scenario, candidate) order — the
    // deterministic spine every merge below reassembles along.
    let mut pairs: Vec<Pair> = Vec::new();
    for (si, _) in scenarios.iter().enumerate() {
        for c in eligible_candidates(spec, max_levels[si]) {
            pairs.push(Pair { scenario: si, candidate: c.clone() });
        }
    }
    let mut cached: Vec<Option<CandidateOutcome>> = pairs
        .iter()
        .map(|p| {
            cache.as_deref().and_then(|k| {
                k.get(scenarios[p.scenario].name(), &spec.params, &p.candidate).cloned()
            })
        })
        .collect();
    let missing: Vec<&Pair> =
        pairs.iter().zip(&cached).filter(|(_, hit)| hit.is_none()).map(|(p, _)| p).collect();

    let mut stats = StudyStats {
        cached: pairs.len() - missing.len(),
        computed: missing.len(),
        pairs_by_rank: vec![0; nranks],
        ..StudyStats::default()
    };

    // Baselines of scenarios some stealer actually touched (keyed by
    // scenario index); fully-cached scenarios stay `None` and fall back
    // to their cached baseline self-fidelity.
    let (computed, baselines): (Vec<CandidateOutcome>, Vec<Option<Observable>>) =
        if missing.is_empty() {
            (Vec::new(), vec![None; scenarios.len()])
        } else {
            let pool = TaskPool::new(nranks, spec.workers);
            let missing_ref = &missing;
            let run = pool.run(
                scenarios.len(),
                FixedTasks::new(missing.len()),
                // Stealers are plain threads, not pool workers: mark each
                // pair run as in-sweep so a scenario's interior mesh
                // sweeps (params.threads > 1) run inline instead of
                // serializing all stealers on the process-wide pool's
                // submit lock — the same one-level-of-parallelism rule
                // pool workers get implicitly.
                &|ctx, task, _detail| {
                    let Pair { scenario: si, candidate } = missing_ref[task as usize];
                    with_baseline(ctx, *si as u64, |baseline| {
                        amr::run_inline(|| {
                            run_candidate(
                                scenarios[*si].as_ref(),
                                spec,
                                candidate,
                                max_levels[*si],
                                baseline,
                            )
                        })
                        .to_json()
                    })
                },
                &|key| {
                    amr::run_inline(|| {
                        scenarios[key as usize].build(&spec.params).run(&Session::passthrough())
                    })
                    .values
                },
            );
            stats.absorb_pool(run.stats);
            let computed = run
                .source
                .into_payloads()
                .into_iter()
                .map(|p| {
                    CandidateOutcome::from_json(&p.expect("server collected a done per grant"))
                        .expect("outcome rows round-trip the wire")
                })
                .collect();
            let baselines =
                run.resources.into_iter().map(|r| r.map(|values| Observable { values })).collect();
            (computed, baselines)
        };

    // Reassemble in pair-lattice order: cached rows slot back in where
    // they came from, stolen rows by their pair index.
    let mut fresh = computed.into_iter();
    let outcomes: Vec<CandidateOutcome> = cached
        .iter_mut()
        .map(|slot| match slot.take() {
            Some(o) => o,
            None => fresh.next().expect("every missing pair was stolen and completed"),
        })
        .collect();
    debug_assert!(fresh.next().is_none(), "stolen rows fully consumed");

    // Per-scenario sections: group along the spine, re-gate, rank. A
    // scenario can legitimately own zero pairs (e.g. a cutoff-only
    // lattice on an unrefined workload); its section is just empty.
    let mut counts = vec![0usize; scenarios.len()];
    for p in &pairs {
        counts[p.scenario] += 1;
    }
    let mut reports: Vec<CampaignReport> = Vec::with_capacity(scenarios.len());
    let mut rows = outcomes.into_iter();
    for (si, scenario) in scenarios.iter().enumerate() {
        let mut section: Vec<CandidateOutcome> =
            (0..counts[si]).map(|_| rows.next().expect("one outcome per pair")).collect();
        regate_and_rank(&mut section, spec);
        let baseline_fidelity = match &baselines[si] {
            Some(obs) => scenario.fidelity(obs, obs),
            None => cache
                .as_deref()
                .and_then(|k| k.baseline(scenario.name(), &spec.params))
                .unwrap_or(1.0),
        };
        if let Some(k) = cache.as_deref_mut() {
            for o in &section {
                k.insert(scenario.name(), &spec.params, o);
            }
            k.set_baseline(scenario.name(), &spec.params, baseline_fidelity);
        }
        reports.push(CampaignReport {
            scenario: scenario.name().to_string(),
            crate_name: scenario.crate_name().to_string(),
            params: spec.params,
            fidelity_floor: spec.fidelity_floor,
            baseline_fidelity,
            outcomes: section,
        });
    }

    stats.wall_s = t0.elapsed().as_secs_f64();
    (StudyReport::assemble(spec, reports), stats)
}

// ---------------------------------------------------------------------------
// Probe-granularity precision search
// ---------------------------------------------------------------------------

/// The dynamic [`TaskSource`] of a distributed precision search: one
/// [`ProbeChain`] per M-l cutoff, each exposing its single pending probe
/// as a task. Completing a probe advances the owning chain and readies
/// its next probe; the source is exhausted when every chain has reached
/// its answer. Chain state never leaves the server, so the merged rows
/// are the serial rows by construction.
struct ChainSource {
    chains: Vec<ProbeChain>,
    /// The cutoff of each chain (index-aligned with `chains`).
    cutoffs: Vec<u32>,
    /// `(chain index, mantissa)` probes ready to grant.
    ready: VecDeque<(usize, u32)>,
    /// Granted-but-unfinished probes, by task id.
    inflight: HashMap<u64, (usize, u32)>,
    next_id: u64,
    /// Probes computed by pool workers this run.
    probes: usize,
    /// Probes served from the cache snapshot without running anything.
    cached: usize,
    /// Cached `(cutoff, m) -> (fidelity, truncated_fraction)` points,
    /// snapshotted before the pool starts (the source lives on the
    /// rank-0 server thread; it cannot touch the caller's cache).
    snapshot: HashMap<(u32, u32), (f64, f64)>,
    /// Probes computed this run, for write-back after the pool drains:
    /// `(cutoff, m, fidelity, truncated_fraction)`.
    fresh: Vec<(u32, u32, f64, f64)>,
}

impl ChainSource {
    fn new(spec: &SearchSpec, snapshot: HashMap<(u32, u32), (f64, f64)>) -> ChainSource {
        let mut chains = Vec::with_capacity(spec.cutoffs.len());
        let mut ready = VecDeque::with_capacity(spec.cutoffs.len());
        for (ci, &cutoff) in spec.cutoffs.iter().enumerate() {
            let (chain, first) = ProbeChain::new(cutoff, spec.mantissa, spec.fidelity_floor);
            chains.push(chain);
            ready.push_back((ci, first));
        }
        let mut source = ChainSource {
            chains,
            cutoffs: spec.cutoffs.clone(),
            ready,
            inflight: HashMap::new(),
            next_id: 0,
            probes: 0,
            cached: 0,
            snapshot,
            fresh: Vec::new(),
        };
        source.drain_cached();
        source
    }

    /// Advance every chain through consecutively-cached probes without
    /// granting them as tasks. Runs at construction (so a fully-warm
    /// source is exhausted before the pool even starts) and after every
    /// completion (a computed probe's successor may well be cached —
    /// partial warmth from an interrupted hunt).
    fn drain_cached(&mut self) {
        let mut pending = std::mem::take(&mut self.ready);
        while let Some((ci, m)) = pending.pop_front() {
            match self.snapshot.get(&(self.cutoffs[ci], m)) {
                Some(&(fid, frac)) => {
                    self.cached += 1;
                    if let Some(next) = self.chains[ci].advance(m, fid, frac) {
                        pending.push_back((ci, next));
                    }
                }
                None => self.ready.push_back((ci, m)),
            }
        }
    }

    fn into_rows(self) -> Vec<SearchRow> {
        debug_assert!(self.inflight.is_empty(), "no probe left in flight");
        self.chains.into_iter().map(ProbeChain::into_row).collect()
    }
}

impl TaskSource for ChainSource {
    fn next(&mut self) -> Option<Task> {
        let (ci, m) = self.ready.pop_front()?;
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.insert(id, (ci, m));
        Some(Task { id, detail: Json::obj().set("chain", ci).set("m", m) })
    }

    fn complete(&mut self, task: u64, payload: Json) -> Result<(), String> {
        let (ci, m) =
            self.inflight.remove(&task).ok_or_else(|| format!("unknown probe task {task}"))?;
        self.probes += 1;
        let fid = payload.f64_field_lossless("fidelity")?;
        let frac = payload.f64_field_lossless("truncated_fraction")?;
        self.fresh.push((self.cutoffs[ci], m, fid, frac));
        if let Some(next_m) = self.chains[ci].advance(m, fid, frac) {
            self.ready.push_back((ci, next_m));
            self.drain_cached();
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.chains.iter().all(ProbeChain::finished)
    }
}

/// Run the greedy precision hunt of `spec` over `scenario` across
/// `exec.ranks` ranks, resuming from `exec.cache` if set. Rows come back
/// in cutoff order, row-for-row identical to [`crate::precision_search`].
/// In the stats, `pairs_by_rank` counts completed *probes* per rank and
/// `cached`/`computed` count probes served from the cache vs. run. When
/// every chain drains from cached probes — a warm re-hunt — the pool
/// (and the baseline reference run) is skipped entirely.
pub fn execute_search(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    exec: &Exec<'_>,
) -> Result<(Vec<SearchRow>, StudyStats), String> {
    with_cache(exec, format!("hunt:{}", scenario.name()), |cache| {
        search_probes(scenario, spec, exec.ranks, cache)
    })
}

/// The search driver's body: snapshot cached probes into a
/// [`ChainSource`], steal the rest, and record fresh probes back.
fn search_probes(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    nranks: usize,
    cache: Option<&mut OutcomeCache>,
) -> (Vec<SearchRow>, StudyStats) {
    let t0 = Instant::now();
    let nranks = nranks.max(1);
    let max_level = scenario.max_level(&spec.params);
    let mut snapshot = HashMap::new();
    if let Some(c) = cache.as_deref() {
        for &cutoff in &spec.cutoffs {
            for m in spec.mantissa.0..=spec.mantissa.1 {
                if let Some(v) =
                    c.get_probe(scenario.name(), &spec.params, spec.exp_bits, cutoff, m)
                {
                    snapshot.insert((cutoff, m), v);
                }
            }
        }
    }
    let source = ChainSource::new(spec, snapshot);
    if source.exhausted() {
        // Fully warm: every chain reached its answer from cached probes.
        // No pool, no baseline run, no scenario runs at all. Per-rank
        // counts stay sized by the rank count (all zero: no pool ran).
        let mut stats =
            StudyStats { cached: source.cached, computed: 0, ..StudyStats::default() };
        stats.pairs_by_rank = vec![0; nranks];
        stats.wall_s = t0.elapsed().as_secs_f64();
        return (source.into_rows(), stats);
    }
    // One pool resource, key 0: the scenario's baseline observable.
    let pool = TaskPool::new(nranks, spec.workers);
    let run = pool.run(
        1,
        source,
        &|ctx, _task, detail| {
            let ci = detail.u64_field("chain").expect("grant carries the chain index") as usize;
            let m = detail.u64_field("m").expect("grant carries the probe width") as u32;
            let (fid, frac) = with_baseline(ctx, 0, |baseline| {
                amr::run_inline(|| {
                    run_probe(scenario, spec, spec.cutoffs[ci], m, max_level, baseline)
                })
            });
            Json::obj()
                .set("fidelity", Json::from_f64_lossless(fid))
                .set("truncated_fraction", Json::from_f64_lossless(frac))
        },
        &|_key| {
            amr::run_inline(|| scenario.build(&spec.params).run(&Session::passthrough())).values
        },
    );
    if let Some(c) = cache {
        for &(cutoff, m, fid, frac) in &run.source.fresh {
            c.insert_probe(scenario.name(), &spec.params, spec.exp_bits, cutoff, m, fid, frac);
        }
    }
    let mut stats = StudyStats {
        cached: run.source.cached,
        computed: run.source.probes,
        ..StudyStats::default()
    };
    stats.absorb_pool(run.stats);
    stats.wall_s = t0.elapsed().as_secs_f64();
    (run.source.into_rows(), stats)
}

#[cfg(test)]
mod tests {
    /// The retired static block partition, kept only as the reference
    /// the balance tests compare against: rank `rank` of `nranks` owned
    /// `[rank·n/nranks, (rank+1)·n/nranks)`.
    fn block_range(n: usize, nranks: usize, rank: usize) -> (usize, usize) {
        (rank * n / nranks, (rank + 1) * n / nranks)
    }

    #[test]
    fn block_partition_reference_covers_everything_once_with_balanced_remainders() {
        for n in [0usize, 1, 3, 7, 12, 13] {
            for nranks in 1..=6usize {
                let mut covered = Vec::new();
                let mut sizes = Vec::new();
                for r in 0..nranks {
                    let (lo, hi) = block_range(n, nranks, r);
                    assert!(lo <= hi && hi <= n);
                    covered.extend(lo..hi);
                    sizes.push(hi - lo);
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} ranks={nranks}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: n={n} ranks={nranks} sizes={sizes:?}");
            }
        }
    }
}
