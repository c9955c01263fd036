//! Campaign and search acceptance tests through the two drivers:
//! one-scenario studies (campaigns) and probe-stolen searches
//! content-identical to the in-process references at any rank count,
//! lossless outcome JSON round-trips, warm resume with zero re-runs,
//! remainder sharding on the Kelvin–Helmholtz lattice, and label
//! injectivity (the resume/merge key).

use bigfloat::Format;
use raptor_core::Json;
use raptor_lab::{
    default_candidates, execute_search, execute_study, find, native_candidates, precision_search,
    run_campaign, shear_candidates, CampaignReport, CampaignSpec, CandidateOutcome, CandidateSpec,
    Exec, LabParams, OutcomeCache, SearchSpec, StudyStats,
};
use std::path::{Path, PathBuf};

fn mini_spec(candidates: Vec<CandidateSpec>) -> CampaignSpec {
    CampaignSpec {
        params: LabParams::mini(),
        candidates,
        fidelity_floor: 0.999,
        workers: 4,
        machine: codesign::Machine::default(),
    }
}

fn tmp_cache(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("raptor-dist-test-{}-{name}-cache", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn exec(ranks: usize, cache: Option<&Path>) -> Exec<'_> {
    Exec { ranks, cache }
}

/// A campaign is the one-scenario study: its single section plus the
/// run's stats.
fn campaign(name: &str, spec: &CampaignSpec, exec: &Exec<'_>) -> (CampaignReport, StudyStats) {
    let (mut study, stats) = execute_study(&[find(name).unwrap()], spec, exec).unwrap();
    assert_eq!(study.scenarios.len(), 1, "one section per scenario");
    (study.scenarios.remove(0), stats)
}

/// The acceptance criterion: same candidate labels, fidelities, predicted
/// speedups, and ranking. Comparing the rendered JSON compares all of it
/// at once (labels, every f64 bit-exactly, and row order).
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.to_json().render(), b.to_json().render(), "{what}");
    assert_eq!(a, b, "{what} (structural)");
}

#[test]
fn distributed_matches_single_rank_across_three_scenarios() {
    // >= 3 scenarios x ranks in {1, 2, 3}: the merged report must be
    // content-identical to the plain sweep, and a cacheless run computes
    // every candidate. The 3-candidate lattice does not divide evenly by
    // 2 ranks, so remainders are exercised here too.
    let lattice = || {
        vec![
            CandidateSpec::op(Format::new(11, 24)),
            CandidateSpec::op(Format::new(11, 12)),
            CandidateSpec::op(Format::new(11, 6)),
        ]
    };
    for name in ["ir/horner", "ir/norm3", "eos/cellular"] {
        let scenario = find(name).unwrap();
        let spec = mini_spec(lattice());
        let single = run_campaign(scenario.as_ref(), &spec);
        for ranks in [1usize, 2, 3] {
            let (merged, stats) = campaign(name, &spec, &exec(ranks, None));
            assert_eq!((stats.cached, stats.computed), (0, 3), "{name} at {ranks} ranks");
            assert_eq!(stats.pairs_by_rank.len(), ranks);
            assert_reports_identical(&merged, &single, &format!("{name} at {ranks} ranks"));
        }
    }
}

#[test]
fn kelvin_helmholtz_prime_lattice_shards_with_remainders() {
    // The KH scenario's natural lattice has 7 candidates — prime, so no
    // rank count in 2..=6 divides it and the work distribution is always
    // uneven. 7 = 5 static + 2 M-1 rows (KH refines: max_level 2
    // at mini scale, so the cutoff rows survive dedup).
    let scenario = find("hydro/kelvin-helmholtz").unwrap();
    assert_eq!(shear_candidates().len(), 7);
    let spec = mini_spec(shear_candidates());
    let single = run_campaign(scenario.as_ref(), &spec);
    assert_eq!(single.outcomes.len(), 7, "refinement hierarchy keeps all 7");
    assert_eq!(single.baseline_fidelity, 1.0);
    for ranks in [2usize, 3] {
        let (merged, _) = campaign(scenario.name(), &spec, &exec(ranks, None));
        assert_reports_identical(&merged, &single, &format!("KH at {ranks} ranks"));
    }
}

#[test]
fn outcome_json_round_trips_losslessly() {
    // to_json -> render -> parse -> from_json == original, for op-mode,
    // mem-mode (deviation flags in the report), and error rows alike.
    let scenario = find("eos/cellular").unwrap();
    let spec = mini_spec(vec![
        CandidateSpec::op(Format::new(11, 24)),
        CandidateSpec::op(Format::new(11, 10)).mem(1e-3),
        // Program-scope mem-mode is invalid: produces an error row.
        CandidateSpec::op(Format::new(11, 10)).mem(1e-3).program_scope(),
    ]);
    let report = run_campaign(scenario.as_ref(), &spec);
    assert!(report.outcomes.iter().any(|o| o.error.is_some()), "error row present");
    assert!(
        report.outcomes.iter().any(|o| !o.report.flags.is_empty()),
        "mem-mode flags present"
    );
    for o in &report.outcomes {
        let text = o.to_json().render();
        let back = CandidateOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, o, "outcome row round-trips: {}", o.spec.label());
    }
    let text = report.to_json().render();
    let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report, "whole campaign report round-trips");
}

#[test]
fn resume_serves_cached_rows_and_reruns_only_missing_ones() {
    let spec = mini_spec(vec![
        CandidateSpec::op(Format::new(11, 30)),
        CandidateSpec::op(Format::new(11, 16)),
        CandidateSpec::op(Format::new(11, 8)),
        CandidateSpec::op(Format::new(11, 4)),
    ]);
    let path = tmp_cache("resume");

    // Cold run: everything computes.
    let (cold, s1) = campaign("ir/horner", &spec, &exec(2, Some(&path)));
    assert_eq!((s1.cached, s1.computed), (0, 4));

    // Warm resume of a completed campaign: ZERO candidate re-runs, same
    // report (served entirely from the cache, baseline included).
    let (warm, s2) = campaign("ir/horner", &spec, &exec(2, Some(&path)));
    assert_eq!((s2.cached, s2.computed), (4, 0));
    assert_reports_identical(&warm, &cold, "warm resume");

    // Evict half: only the evicted half recomputes, and the merged
    // report is still identical to the cold run.
    let mut cache = OutcomeCache::load(&path).unwrap();
    assert_eq!(cache.len(), 4);
    cache.evict_half();
    assert_eq!(cache.len(), 2);
    cache.save().unwrap();
    let (half, s3) = campaign("ir/horner", &spec, &exec(3, Some(&path)));
    assert_eq!((s3.cached, s3.computed), (2, 2));
    assert_reports_identical(&half, &cold, "half-warm resume");

    // A resumed sweep under a *stricter* floor re-gates cached rows
    // instead of replaying stale verdicts.
    let mut strict = spec.clone();
    strict.fidelity_floor = 1.0;
    let (regated, s4) = campaign("ir/horner", &strict, &exec(1, Some(&path)));
    assert_eq!(s4.computed, 0, "re-gating needs no re-runs");
    assert!(
        regated.outcomes.iter().all(|o| !o.accepted || o.fidelity >= 1.0),
        "cached rows re-gated against the live floor"
    );
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn distributed_precision_search_matches_single_rank() {
    let scenario = find("ir/horner").unwrap();
    let mut spec = SearchSpec::new(LabParams::mini(), 0.9999);
    spec.cutoffs = vec![0, 1, 2];
    let single = precision_search(scenario.as_ref(), &spec);
    for ranks in [1usize, 2, 3] {
        let (dist, stats) = execute_search(scenario.as_ref(), &spec, &exec(ranks, None)).unwrap();
        assert_eq!(dist, single, "search rows identical at {ranks} ranks");
        assert_eq!(stats.cached, 0, "nothing is cached without a cache");
    }
}

#[test]
fn warm_hunt_replays_probes_with_zero_runs() {
    // The acceptance criterion of the probe cache: a warm resume of a
    // completed precision search performs ZERO scenario runs — every
    // probe is served from the cache, the chains drain before the pool
    // starts, and even the baseline reference run is skipped.
    let scenario = find("ir/horner").unwrap();
    let mut spec = SearchSpec::new(LabParams::mini(), 0.9999);
    spec.cutoffs = vec![0, 1, 2];
    let path = tmp_cache("hunt");

    let (cold, s1) = execute_search(scenario.as_ref(), &spec, &exec(2, Some(&path))).unwrap();
    assert_eq!(s1.cached, 0);
    assert!(s1.computed > 0, "cold hunt computes probes");

    let (warm, s2) = execute_search(scenario.as_ref(), &spec, &exec(3, Some(&path))).unwrap();
    assert_eq!(s2.computed, 0, "warm re-hunt performs zero scenario runs");
    assert_eq!(s2.cached, s1.computed, "every probe served from the cache");
    assert!(s2.pairs_by_rank.iter().all(|&n| n == 0), "{:?}", s2.pairs_by_rank);
    assert_eq!(warm, cold, "warm rows identical to the cold hunt");

    // And the plain (uncached) search still agrees.
    assert_eq!(precision_search(scenario.as_ref(), &spec), cold);
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn probe_stealing_balances_skewed_chains_and_matches_serial() {
    // hydro/sedov at mini scale produces deliberately skewed probe
    // chains: M-0 bisects the full mantissa ladder (8 probes) while M-1
    // and M-2 spare the refined levels and finish after their 2 bracket
    // probes. The retired block partition pinned one whole chain per
    // rank — [8, 2, 2] at 3 ranks, a spread of 6 — because a chain's
    // probes are sequential and could never leave their rank. Stealing
    // at probe granularity keeps the merged rows identical to the serial
    // search while the sequential tail rotates through parked stealers.
    let scenario = find("hydro/sedov").unwrap();
    let mut spec = SearchSpec::new(LabParams::mini(), 0.999);
    spec.cutoffs = vec![0, 1, 2];
    let single = precision_search(scenario.as_ref(), &spec);
    let lengths: Vec<usize> = single.iter().map(|r| r.probes.len()).collect();
    let total: usize = lengths.iter().sum();
    assert!(
        lengths.iter().max().unwrap() - lengths.iter().min().unwrap() >= 4,
        "chains are skewed enough to matter: {lengths:?}"
    );
    for ranks in [2usize, 3] {
        spec.workers = ranks; // one stealer per rank
        let (rows, stats) = execute_search(scenario.as_ref(), &spec, &exec(ranks, None)).unwrap();
        assert_eq!(rows, single, "rows row-for-row identical at {ranks} ranks");
        assert_eq!(stats.stealers, ranks);
        assert_eq!((stats.cached, stats.computed), (0, total));
        assert_eq!(stats.pairs_by_rank.len(), ranks);
        assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), total);
        assert!(
            stats.pairs_by_rank.iter().all(|&n| n >= 1),
            "fair start feeds every rank at {ranks} ranks: {:?}",
            stats.pairs_by_rank
        );
        if ranks == 3 {
            // The bound the block partition deterministically fails:
            // chain-per-rank pinning yields a spread of 6 ([8, 2, 2]);
            // probe stealing must stay well under it.
            let (min, max) = (
                *stats.pairs_by_rank.iter().min().unwrap(),
                *stats.pairs_by_rank.iter().max().unwrap(),
            );
            assert!(
                max - min <= 4,
                "probe stealing beats chain pinning: {:?}",
                stats.pairs_by_rank
            );
        }
    }
}

#[test]
fn distributed_search_handles_empty_and_single_chain_lattices() {
    let scenario = find("ir/horner").unwrap();
    let mut spec = SearchSpec::new(LabParams::mini(), 0.9999);

    // Empty lattice: the pool dismisses every stealer at the fair start
    // without a deadlock; no baseline ever runs.
    spec.cutoffs = Vec::new();
    let (rows, stats) = execute_search(scenario.as_ref(), &spec, &exec(2, None)).unwrap();
    assert!(rows.is_empty());
    assert_eq!((stats.cached, stats.computed), (0, 0));
    assert_eq!(stats.pairs_by_rank, vec![0, 0]);

    // Single chain on more stealers than ever-ready probes: the chain's
    // sequential probes drain one at a time and the result still matches
    // the serial row.
    spec.cutoffs = vec![1];
    let single = precision_search(scenario.as_ref(), &spec);
    let (rows, stats) = execute_search(scenario.as_ref(), &spec, &exec(3, None)).unwrap();
    assert_eq!(rows, single);
    assert_eq!(stats.pairs_by_rank.iter().sum::<usize>(), single[0].probes.len());
}

#[test]
fn native_lattice_answers_the_gpu_question() {
    // fp64/fp32 on the hardware path only: fp64 rows are exact (identity
    // truncation), and every row runs without error on the native path.
    let scenario = find("ir/horner").unwrap();
    let spec = mini_spec(native_candidates());
    let (report, _) = campaign(scenario.name(), &spec, &exec(2, None));
    // ir has no refinement hierarchy: the M-1 twins dedup away, leaving
    // the two static native rows.
    assert_eq!(report.outcomes.len(), 2);
    for o in &report.outcomes {
        assert!(o.error.is_none(), "{}: {:?}", o.spec.label(), o.error);
        assert!(o.spec.native);
        assert!(o.spec.format.is_native());
        assert!(o.spec.label().contains("native"));
    }
    let fp64 = report.outcomes.iter().find(|o| o.spec.format == Format::FP64).unwrap();
    assert_eq!(fp64.fidelity, 1.0, "fp64 native is the identity");
    // A native-path spec on a non-native format is rejected as an error
    // row, not silently soft-floated.
    let bad = mini_spec(vec![CandidateSpec::op(Format::FP16).native_path()]);
    let r = run_campaign(scenario.as_ref(), &bad);
    assert!(r.outcomes[0].error.is_some());
}

#[test]
fn candidate_labels_are_injective_across_all_shipped_lattices() {
    // The label is the resume/merge key: every distinct spec must render
    // a distinct label. Sweep the shipped lattices plus targeted
    // near-collisions on every axis.
    let mut specs: Vec<CandidateSpec> = Vec::new();
    specs.extend(default_candidates());
    specs.extend(native_candidates());
    specs.extend(shear_candidates());
    // mem thresholds differing only in the threshold.
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(1e-3));
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(1e-6));
    specs.push(CandidateSpec::op(Format::new(11, 10)).mem(2.5e-4));
    // op vs mem at the same format.
    specs.push(CandidateSpec::op(Format::new(11, 10)));
    // native vs soft at the same format/cutoff.
    specs.push(CandidateSpec::op(Format::FP32));
    // scope axis.
    specs.push(CandidateSpec::op(Format::new(11, 10)).program_scope());
    // cutoff axis (M-0 is distinct from static).
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(0));
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(1));
    specs.push(CandidateSpec::op(Format::new(11, 10)).with_cutoff(12));
    // e/m boundary confusion: e11m1 vs e1... (Format forbids e<2, but
    // e2m11 vs e21m1 would collide if tokens concatenated digits).
    specs.push(CandidateSpec::op(Format::new(2, 11)));
    specs.push(CandidateSpec::op(Format::new(11, 2)));

    // Drop exact duplicates the shipped lattices share (e.g. FP32 static
    // appears in both default and shear lattices) — those SHOULD share a
    // label; what must never happen is distinct specs sharing one.
    let mut seen: Vec<(CandidateSpec, String)> = Vec::new();
    for s in specs {
        let label = s.label();
        if let Some((other, _)) = seen.iter().find(|(_, l)| *l == label) {
            assert_eq!(
                other, &s,
                "distinct specs collide on label `{label}`: {other:?} vs {s:?}"
            );
        } else {
            seen.push((s, label));
        }
    }
    assert!(seen.len() >= 25, "lattice coverage: {} distinct labels", seen.len());

    // And the label survives the spec's own JSON round-trip.
    for (s, label) in &seen {
        let back = CandidateSpec::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
        assert_eq!(&back, s);
        assert_eq!(&back.label(), label);
    }
}
