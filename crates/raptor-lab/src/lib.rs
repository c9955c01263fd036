//! # raptor-lab — the unified scenario layer and campaign engine
//!
//! The paper's headline result is not a single truncated run but a
//! *sweep*: many (scope, format, mode, AMR-cutoff) configurations
//! evaluated per workload, quality-of-result metrics deciding which
//! truncations are safe, and the §7.2 co-design model ranking the
//! survivors by predicted speedup. This crate turns that methodology
//! into two layers:
//!
//! * the [`Scenario`] trait + [`registry()`] — every workload crate
//!   (hydro, incomp, eos, raptor-ir) behind one `build → run(&Session) →
//!   fidelity` contract;
//! * the campaign engine — the sweep itself: the in-process references
//!   [`run_campaign`], [`run_study`] and [`precision_search`] on the
//!   persistent sweep pool, and the two drivers [`execute_study`] and
//!   [`execute_search`] that spread the same work over ranks and resume
//!   it from a cache.
//!
//! ## Running campaigns
//!
//! An enumerative sweep — 12 default configurations (format ladder ×
//! static/M-1 cutoff), run in parallel, ranked by fidelity-gated
//! predicted speedup. Scenarios without a refinement hierarchy (like the
//! IR kernels here) keep only the 6 static configurations — their M-1
//! twins would be bit-identical duplicates and are dropped:
//!
//! ```
//! use raptor_lab::{find, run_campaign, CampaignSpec, LabParams};
//!
//! let scenario = find("ir/horner").expect("registered");
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! assert_eq!(spec.candidates.len(), 12);
//! let report = run_campaign(scenario.as_ref(), &spec);
//!
//! assert_eq!(report.baseline_fidelity, 1.0);
//! assert_eq!(report.outcomes.len(), 6); // unrefined: cutoffs deduped
//! println!("{}", report.render_table());          // human table
//! let json = report.to_json().render();           // machine summary
//! assert!(raptor_core::Json::parse(&json).is_ok());
//! ```
//!
//! A greedy precision hunt — per M-l cutoff, bisect for the minimal
//! mantissa width whose fidelity clears the floor:
//!
//! ```no_run
//! use raptor_lab::{find, precision_search, LabParams, SearchSpec};
//!
//! let scenario = find("hydro/sedov").expect("registered");
//! let spec = SearchSpec::new(LabParams::demo(), 0.999);
//! for row in precision_search(scenario.as_ref(), &spec) {
//!     println!("M-{}: minimal mantissa {:?}", row.cutoff, row.minimal_m);
//! }
//! ```
//!
//! Campaign candidates are the unit of parallelism: each runs on a
//! worker of the process-wide sweep pool ([`amr::pool_run`]), and any
//! mesh sweep *inside* a candidate runs inline on that worker — so a
//! 12-candidate campaign keeps 12 CPUs busy without oversubscription.
//! Fidelity is scenario-defined ([`Scenario::fidelity`]); `1.0` means
//! bit-identical to the cached full-precision baseline, and the default
//! metric maps relative-L1 distance through `1 / (1 + e)`.
//!
//! ## The drivers: ranks and resume
//!
//! Two drivers run everything beyond the in-process references above,
//! both configured by one [`Exec`] — the [`minimpi`] rank count and an
//! optional resume cache directory — and both returning their result
//! with the run's [`StudyStats`]:
//!
//! * [`execute_study`] sweeps a lattice over a list of scenarios. Every
//!   `(scenario, candidate)` pair is one task on the shared
//!   work-stealing [`queue::TaskPool`]: each rank contributes stealer
//!   threads that pull pairs from a rank-0 queue server, and each
//!   scenario's full-precision baseline is a lazily-computed pool
//!   resource. A *campaign* is the one-scenario study. The merged
//!   [`StudyReport`] is byte-identical to [`run_study`] for any rank
//!   count, and each section to [`run_campaign`].
//! * [`execute_search`] runs the greedy hunt with every bisection probe
//!   of every M-l cutoff as one task, the per-cutoff chain state held by
//!   the rank-0 row owner, so skewed probe chains never pin to one rank.
//!   Its rows equal [`precision_search`]'s.
//!
//! ```
//! use raptor_lab::{execute_study, find, run_campaign, CampaignSpec, Exec, LabParams};
//!
//! let scenarios = vec![find("ir/horner").expect("registered")];
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! let single = run_campaign(scenarios[0].as_ref(), &spec);
//! let (study, stats) = execute_study(&scenarios, &spec, &Exec { ranks: 2, cache: None }).unwrap();
//! assert_eq!(study.scenarios[0].to_json().render(), single.to_json().render());
//! assert_eq!((stats.cached, stats.computed), (0, 6));
//! ```
//!
//! With `Exec::cache` set, outcomes persist to an [`OutcomeCache`]
//! directory keyed by `(scenario, params, candidate label)`, and
//! bisection probes by `(scenario, scale, cutoff, m)`, so an interrupted
//! or repeated run restarts warm and only recomputes what is missing: a
//! warm resume of a completed study or hunt performs zero scenario runs.
//! Each cached run appends its [`StudyStats`] to the `stats_history.jsonl`
//! inside the cache ([`append_stats_history`]). The directory holds
//! per-scenario, per-shard JSONL files that any number of concurrent
//! processes append to under advisory locks (see the [`cache`] module
//! docs). [`native_candidates`] restricts the lattice to the hardware
//! formats a GPU port could execute (the §3.6 constraint). The CLI flow
//! through the example binaries:
//!
//! ```sh
//! # Shard the sweep over 4 ranks, persisting outcomes as they complete.
//! codesign_advisor hydro/sod --ranks 4 --resume sweep-cache
//! # Re-run after an interrupt: cached rows are served, the rest computed.
//! codesign_advisor hydro/sod --ranks 4 --resume sweep-cache
//! # Fan the greedy bisection probes out across ranks, caching them too.
//! sedov_precision_hunt hydro/sedov --ranks 3 --resume sweep-cache
//! # GPU-native lattice: what would a GPU port tolerate (fp32/fp64 only)?
//! codesign_advisor hydro/sod --native
//! ```
//!
//! ## Studies: the whole registry in one table
//!
//! A *study* sweeps **every** scenario (or a `--scenarios` subset, see
//! [`study_scenarios`]) over one candidate lattice and merges the results
//! into a single cross-scenario codesign ranking — the paper's headline
//! Table-1-style artifact:
//!
//! ```
//! use raptor_lab::{execute_study, study_scenarios, CampaignSpec, Exec, LabParams};
//!
//! let scenarios = study_scenarios(Some("ir/horner,eos/cellular")).unwrap();
//! let spec = CampaignSpec::sweep(LabParams::mini());
//! let (study, _) = execute_study(&scenarios, &spec, &Exec { ranks: 2, cache: None }).unwrap();
//! assert_eq!(study.scenarios.len(), 2);
//! assert_eq!(study.ranking.len(), 2);   // one codesign row per scenario
//! println!("{}", study.render_markdown());
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod distributed;
pub mod queue;
pub mod registry;
pub mod scenario;
pub mod study;

pub use cache::OutcomeCache;
pub use campaign::{
    default_candidates, format_ladder, native_candidates, precision_search, run_campaign,
    search_to_json, shear_candidates, CampaignReport, CampaignSpec, CandidateOutcome,
    CandidateSpec, ScopeAxis, SearchRow, SearchSpec,
};
pub use distributed::{execute_search, execute_study, Exec};
pub use queue::{FixedTasks, PoolRun, PoolStats, Task, TaskCtx, TaskPool, TaskSource};
pub use registry::{find, registry, study_scenarios};
pub use scenario::{
    fidelity_from_error, relative_l1, LabParams, Observable, Runnable, Scenario,
};
pub use study::{
    append_stats_history, load_stats_history, render_stats_history, run_study, run_study_resumed,
    stats_history_path, StatsRecord, StudyReport, StudyRow, StudyStats,
};
