//! The precision-search campaign engine (§6–§7.2 as one API call).
//!
//! A campaign takes one scenario, a set of candidate truncation
//! configurations (format ladder × scope × mode × AMR-level cutoff), and:
//!
//! 1. runs the scenario once at full precision and caches the baseline
//!    observable;
//! 2. runs every candidate **in parallel on the persistent sweep pool**
//!    ([`amr::pool_run`] — campaign items share workers with mesh sweeps;
//!    a candidate's own nested sweeps run inline, so candidates, not
//!    blocks, are the unit of parallelism);
//! 3. scores each candidate's fidelity against the baseline
//!    ([`Scenario::fidelity`]) and folds the live op/byte counters into
//!    the §7.2 co-design model ([`codesign::predicted_speedup`]);
//! 4. ranks survivors by `(accepted, predicted speedup, fidelity)` and
//!    emits both a human table and a machine-readable JSON summary
//!    through the shared [`raptor_core::json`] serializer.
//!
//! [`precision_search`] is the greedy refinement mode: per cutoff, bisect
//! the mantissa ladder for the minimal width that stays above the
//! fidelity floor — the `sedov_precision_hunt` workflow as a library.

use crate::scenario::{LabParams, Observable, Scenario};
use bigfloat::Format;
use codesign::{estimate_speedup, predicted_speedup, Machine};
use raptor_core::{Config, Counters, EmulPath, Json, Mode, Report, Session};
use std::sync::Mutex;

/// Scope axis of a candidate configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeAxis {
    /// Truncate the scenario's declared regions (file scope) — the
    /// module-targeted workflow of §6.
    Regions,
    /// Truncate everything (`--raptor-truncate-all`, program scope).
    Program,
}

/// One point of the campaign's configuration lattice.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateSpec {
    /// Target format.
    pub format: Format,
    /// op-mode or mem-mode.
    pub mode: Mode,
    /// Truncation scope.
    pub scope: ScopeAxis,
    /// AMR cutoff `l` of an M-l strategy (`None` = static truncation).
    pub cutoff: Option<u32>,
    /// mem-mode deviation threshold (ignored in op-mode).
    pub mem_threshold: f64,
    /// Restrict emulation to the hardware-native path ([`EmulPath::Native`])
    /// — the §3.6 GPU constraint. Only fp32/fp64 formats qualify.
    pub native: bool,
}

impl CandidateSpec {
    /// Op-mode candidate over the scenario regions, no cutoff.
    pub fn op(format: Format) -> CandidateSpec {
        CandidateSpec {
            format,
            mode: Mode::Op,
            scope: ScopeAxis::Regions,
            cutoff: None,
            mem_threshold: 1e-6,
            native: false,
        }
    }

    /// Builder-style: set the M-l cutoff.
    pub fn with_cutoff(mut self, l: u32) -> CandidateSpec {
        self.cutoff = Some(l);
        self
    }

    /// Builder-style: program scope.
    pub fn program_scope(mut self) -> CandidateSpec {
        self.scope = ScopeAxis::Program;
        self
    }

    /// Builder-style: mem-mode at the given deviation threshold
    /// (function-scoped over the scenario regions, per Fig. 2b).
    pub fn mem(mut self, threshold: f64) -> CandidateSpec {
        self.mode = Mode::Mem;
        self.mem_threshold = threshold;
        self
    }

    /// Builder-style: restrict to the hardware-native emulation path (the
    /// GPU-port constraint of §3.6). The format must be fp32 or fp64.
    pub fn native_path(mut self) -> CandidateSpec {
        self.native = true;
        self
    }

    /// Display label, e.g. `"e11m12 op regions M-1"`.
    ///
    /// The label is the resume/merge key of cached and distributed
    /// campaigns, so it is **injective**: every field that changes the
    /// outcome appears as its own token. The format token `e{e}m{m}`
    /// encodes both widths; the mode token carries the mem-mode threshold
    /// (`mem@1e-3`) because distinct thresholds flag differently; the
    /// native-path restriction gets its own token. Tokens are
    /// space-separated and none contains a space, so no two distinct
    /// specs can render identically (checked by the uniqueness test over
    /// the shipped lattices).
    pub fn label(&self) -> String {
        let native = if self.native { " native" } else { "" };
        let mode = match self.mode {
            Mode::Op => "op".to_string(),
            Mode::Mem => format!("mem@{:e}", self.mem_threshold),
        };
        let scope = match self.scope {
            ScopeAxis::Regions => "regions",
            ScopeAxis::Program => "program",
        };
        let cutoff = match self.cutoff {
            Some(l) => format!(" M-{l}"),
            None => String::new(),
        };
        format!("{}{native} {mode} {scope}{cutoff}", self.format)
    }

    /// Resolve to a full [`Config`] against a scenario (counting always
    /// on — the co-design model needs both op populations).
    pub fn config(&self, scenario: &dyn Scenario, max_level: u32) -> Result<Config, String> {
        if self.native && !self.format.is_native() {
            return Err(format!(
                "native-path candidate requires a hardware format (fp32/fp64), got {}",
                self.format
            ));
        }
        let mut cfg = match (self.mode, self.scope) {
            (Mode::Op, ScopeAxis::Regions) => {
                Config::op_files(self.format, scenario.regions().iter().copied())
            }
            (Mode::Op, ScopeAxis::Program) => Config::op_all(self.format),
            (Mode::Mem, ScopeAxis::Regions) => Config::mem_functions(
                self.format,
                scenario.regions().iter().copied(),
                self.mem_threshold,
            ),
            (Mode::Mem, ScopeAxis::Program) => {
                return Err("mem-mode is only supported at function scope (Fig. 2b)".into())
            }
        };
        if let Some(l) = self.cutoff {
            cfg = cfg.with_cutoff(max_level, l);
        }
        if self.native {
            cfg = cfg.with_path(EmulPath::Native);
        }
        cfg = cfg.with_counting();
        cfg.validate()?;
        Ok(cfg)
    }

    /// Machine-readable spec through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("label", self.label())
            .set("exp_bits", self.format.exp_bits())
            .set("man_bits", self.format.man_bits())
            .set(
                "mode",
                match self.mode {
                    Mode::Op => "op",
                    Mode::Mem => "mem",
                },
            )
            .set(
                "scope",
                match self.scope {
                    ScopeAxis::Regions => "regions",
                    ScopeAxis::Program => "program",
                },
            )
            .set(
                "cutoff",
                match self.cutoff {
                    Some(l) => Json::from(l),
                    None => Json::Null,
                },
            )
            .set("mem_threshold", self.mem_threshold)
            .set("native", self.native)
    }

    /// Parse back a document produced by [`CandidateSpec::to_json`] (the
    /// derived `label` field is ignored).
    pub fn from_json(doc: &Json) -> Result<CandidateSpec, String> {
        let exp_bits = doc.u64_field("exp_bits")? as u32;
        let man_bits = doc.u64_field("man_bits")? as u32;
        if !(2..=19).contains(&exp_bits) || !(1..=236).contains(&man_bits) {
            return Err(format!("format widths out of range: e={exp_bits} m={man_bits}"));
        }
        let mode = match doc.str_field("mode")? {
            "op" => Mode::Op,
            "mem" => Mode::Mem,
            other => return Err(format!("unknown mode `{other}`")),
        };
        let scope = match doc.str_field("scope")? {
            "regions" => ScopeAxis::Regions,
            "program" => ScopeAxis::Program,
            other => return Err(format!("unknown scope `{other}`")),
        };
        let cutoff = match doc.req("cutoff")? {
            Json::Null => None,
            c => Some(
                c.as_u64().ok_or_else(|| "cutoff is not an integer".to_string())? as u32,
            ),
        };
        Ok(CandidateSpec {
            format: Format::new(exp_bits, man_bits),
            mode,
            scope,
            cutoff,
            mem_threshold: doc.f64_field("mem_threshold")?,
            native: doc.bool_field("native")?,
        })
    }
}

/// The default format ladder, widest to narrowest storage.
pub fn format_ladder() -> Vec<Format> {
    vec![
        Format::FP32,
        Format::new(11, 20),
        Format::new(11, 12),
        Format::FP16,
        Format::BF16,
        Format::FP8_E5M2,
    ]
}

/// The default candidate lattice: the format ladder crossed with the
/// static (no cutoff) and M-1 dynamic-truncation strategies — 12 configs,
/// the §6.1 sweep shape.
pub fn default_candidates() -> Vec<CandidateSpec> {
    let mut out = Vec::new();
    for fmt in format_ladder() {
        out.push(CandidateSpec::op(fmt));
        out.push(CandidateSpec::op(fmt).with_cutoff(1));
    }
    out
}

/// The GPU-native lattice (ROADMAP §3.6): only formats a GPU port could
/// execute without the soft-float ladder — fp64 and fp32 on the
/// [`EmulPath::Native`] hardware path — each static and M-1. A campaign
/// over these answers "what would a GPU port tolerate": fp64 is the
/// identity reference, and the fp32 rows report whether single precision
/// clears the fidelity floor (and at what predicted speedup).
pub fn native_candidates() -> Vec<CandidateSpec> {
    let mut out = Vec::new();
    for fmt in [Format::FP64, Format::FP32] {
        out.push(CandidateSpec::op(fmt).native_path());
        out.push(CandidateSpec::op(fmt).with_cutoff(1).native_path());
    }
    out
}

/// The shear-layer lattice: 7 configs — a deliberately *prime* count
/// (no rank count from 2 to 6 divides it), so distributing it across
/// the typical 2/3/4-rank campaigns always exercises an uneven split.
/// Used by the Kelvin–Helmholtz scenario's campaign tests and anywhere
/// an uneven lattice is wanted.
pub fn shear_candidates() -> Vec<CandidateSpec> {
    let mut out: Vec<CandidateSpec> = [
        Format::FP32,
        Format::new(11, 20),
        Format::new(11, 12),
        Format::FP16,
        Format::BF16,
    ]
    .into_iter()
    .map(CandidateSpec::op)
    .collect();
    out.push(CandidateSpec::op(Format::FP32).with_cutoff(1));
    out.push(CandidateSpec::op(Format::new(11, 12)).with_cutoff(1));
    out
}

/// A full campaign specification.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Scenario scale knobs.
    pub params: LabParams,
    /// The configuration lattice to sweep.
    pub candidates: Vec<CandidateSpec>,
    /// Acceptance threshold on fidelity (quality-of-result gate).
    pub fidelity_floor: f64,
    /// Parallel candidate runs on the sweep pool (including the calling
    /// thread).
    pub workers: usize,
    /// Hardware model for the §7.2 speedup ranking.
    pub machine: Machine,
}

impl CampaignSpec {
    /// The default sweep at the given scale: [`default_candidates`],
    /// a 0.99 fidelity floor, one worker per available CPU (capped by
    /// the candidate count at run time), the default machine.
    pub fn sweep(params: LabParams) -> CampaignSpec {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        CampaignSpec {
            params,
            candidates: default_candidates(),
            fidelity_floor: 0.99,
            workers,
            machine: Machine::default(),
        }
    }
}

/// The outcome of one candidate run.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateOutcome {
    /// The configuration swept.
    pub spec: CandidateSpec,
    /// Fidelity vs the cached full-precision baseline (`1.0` = exact).
    pub fidelity: f64,
    /// Whether fidelity cleared the campaign floor.
    pub accepted: bool,
    /// The roofline-resolved predicted speedup (ranking key).
    pub predicted_speedup: f64,
    /// Compute-bound panel of the Fig. 8 estimate.
    pub speedup_compute: f64,
    /// Memory-bound panel.
    pub speedup_memory: f64,
    /// Live counters of the run.
    pub counters: Counters,
    /// The session's full profiling report.
    pub report: Report,
    /// Set when the candidate could not run (e.g. invalid config for the
    /// scenario); such rows rank last.
    pub error: Option<String>,
}

impl CandidateOutcome {
    /// Machine-readable outcome row: the spec's fields plus the scores,
    /// counters, and embedded profiling report. This is the row format of
    /// campaign summaries, the distributed gather, and the resume cache.
    pub fn to_json(&self) -> Json {
        // Speedup panels can go non-finite on degenerate counter
        // populations: encode every score losslessly.
        let mut doc = self
            .spec
            .to_json()
            .set("fidelity", Json::from_f64_lossless(self.fidelity))
            .set("accepted", self.accepted)
            .set("predicted_speedup", Json::from_f64_lossless(self.predicted_speedup))
            .set("speedup_compute", Json::from_f64_lossless(self.speedup_compute))
            .set("speedup_memory", Json::from_f64_lossless(self.speedup_memory))
            .set("truncated_fraction", self.counters.truncated_fraction())
            .set("counters", self.counters.to_json())
            .set("report", self.report.to_json());
        if let Some(e) = &self.error {
            doc = doc.set("error", e.as_str());
        }
        doc
    }

    /// Parse back a document produced by [`CandidateOutcome::to_json`]
    /// — lossless for every finite field, so a row that crosses the
    /// minimpi wire (or sleeps in a resume cache) compares equal to the
    /// locally computed one.
    pub fn from_json(doc: &Json) -> Result<CandidateOutcome, String> {
        Ok(CandidateOutcome {
            spec: CandidateSpec::from_json(doc)?,
            fidelity: doc.f64_field_lossless("fidelity")?,
            accepted: doc.bool_field("accepted")?,
            predicted_speedup: doc.f64_field_lossless("predicted_speedup")?,
            speedup_compute: doc.f64_field_lossless("speedup_compute")?,
            speedup_memory: doc.f64_field_lossless("speedup_memory")?,
            counters: Counters::from_json(doc.req("counters")?)?,
            report: Report::from_json(doc.req("report")?)?,
            error: match doc.get("error") {
                Some(e) => Some(
                    e.as_str()
                        .ok_or_else(|| "error field is not a string".to_string())?
                        .to_string(),
                ),
                None => None,
            },
        })
    }
}

/// A completed campaign over one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario crate.
    pub crate_name: String,
    /// Scale the campaign ran at.
    pub params: LabParams,
    /// The acceptance floor used.
    pub fidelity_floor: f64,
    /// Baseline scored against itself — `1.0` by construction; kept as a
    /// harness self-check.
    pub baseline_fidelity: f64,
    /// Outcomes ranked by `(accepted, predicted speedup, fidelity)`.
    pub outcomes: Vec<CandidateOutcome>,
}

impl CampaignReport {
    /// The best accepted candidate, if any survived the fidelity gate.
    pub fn best(&self) -> Option<&CandidateOutcome> {
        self.outcomes.iter().find(|o| o.accepted && o.error.is_none())
    }

    /// Machine-readable summary through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("scenario", self.scenario.as_str())
            .set("crate", self.crate_name.as_str())
            .set(
                "params",
                Json::obj()
                    .set("scale", self.params.scale)
                    .set("threads", self.params.threads),
            )
            .set("fidelity_floor", self.fidelity_floor)
            .set("baseline_fidelity", self.baseline_fidelity)
            .set(
                "candidates",
                Json::Arr(self.outcomes.iter().map(|o| o.to_json()).collect()),
            )
    }

    /// Parse back a document produced by [`CampaignReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<CampaignReport, String> {
        let params = doc.req("params")?;
        Ok(CampaignReport {
            scenario: doc.str_field("scenario")?.to_string(),
            crate_name: doc.str_field("crate")?.to_string(),
            params: LabParams {
                scale: params.u64_field("scale")? as u32,
                threads: params.u64_field("threads")? as usize,
            },
            fidelity_floor: doc.f64_field("fidelity_floor")?,
            baseline_fidelity: doc.f64_field("baseline_fidelity")?,
            outcomes: doc
                .arr_field("candidates")?
                .iter()
                .map(CandidateOutcome::from_json)
                .collect::<Result<Vec<CandidateOutcome>, String>>()?,
        })
    }

    /// Human-readable ranking table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign: {} ({} candidates, fidelity floor {})\n",
            self.scenario,
            self.outcomes.len(),
            self.fidelity_floor
        ));
        out.push_str(&format!(
            "{:>26} {:>10} {:>9} {:>9} {:>8}  verdict\n",
            "config", "fidelity", "speedup", "trunc %", "Gops"
        ));
        for o in &self.outcomes {
            if let Some(e) = &o.error {
                out.push_str(&format!("{:>26} failed: {e}\n", o.spec.label()));
                continue;
            }
            let (tg, fg) = o.counters.giga_ops();
            out.push_str(&format!(
                "{:>26} {:>10.6} {:>8.2}x {:>8.1}% {:>8.3}  {}\n",
                o.spec.label(),
                o.fidelity,
                o.predicted_speedup,
                100.0 * o.counters.truncated_fraction(),
                tg + fg,
                if o.accepted { "OK" } else { "too coarse" }
            ));
        }
        out
    }
}

/// Run every candidate of `spec` against `scenario` in parallel on the
/// persistent sweep pool, rank, and report.
///
/// Cutoff candidates are dropped for scenarios without a refinement
/// hierarchy (`max_level <= 1`): with no levels to spare, an M-l config
/// is bit-identical to its static twin, and reporting it as a distinct
/// strategy would be misleading.
pub fn run_campaign(scenario: &dyn Scenario, spec: &CampaignSpec) -> CampaignReport {
    // Cached full-precision baseline (run once, shared by every worker).
    let baseline = scenario.build(&spec.params).run(&Session::passthrough());
    let baseline_fidelity = scenario.fidelity(&baseline, &baseline);
    let max_level = scenario.max_level(&spec.params);

    let candidates = eligible_candidates(spec, max_level);
    let slots: Vec<Mutex<Option<CandidateOutcome>>> =
        candidates.iter().map(|_| Mutex::new(None)).collect();
    amr::pool_run(candidates.len(), spec.workers.max(1), &|i| {
        let outcome = run_candidate(scenario, spec, candidates[i], max_level, &baseline);
        *slots[i].lock().unwrap() = Some(outcome);
    });
    let mut outcomes: Vec<CandidateOutcome> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("pool ran every candidate"))
        .collect();
    rank_outcomes(&mut outcomes);
    CampaignReport {
        scenario: scenario.name().to_string(),
        crate_name: scenario.crate_name().to_string(),
        params: spec.params,
        fidelity_floor: spec.fidelity_floor,
        baseline_fidelity,
        outcomes,
    }
}

/// The candidates a campaign actually runs at `max_level`: cutoff
/// candidates are dropped for scenarios without a refinement hierarchy
/// (their static twins are bit-identical). Shared by [`run_campaign`]
/// and [`crate::execute_study`] so both see the same lattice in the same
/// order.
pub(crate) fn eligible_candidates(
    spec: &CampaignSpec,
    max_level: u32,
) -> Vec<&CandidateSpec> {
    spec.candidates.iter().filter(|c| c.cutoff.is_none() || max_level > 1).collect()
}

pub(crate) fn run_candidate(
    scenario: &dyn Scenario,
    spec: &CampaignSpec,
    cand: &CandidateSpec,
    max_level: u32,
    baseline: &Observable,
) -> CandidateOutcome {
    let failed = |err: String, session: &Session| CandidateOutcome {
        spec: cand.clone(),
        fidelity: 0.0,
        accepted: false,
        predicted_speedup: 1.0,
        speedup_compute: 1.0,
        speedup_memory: 1.0,
        counters: Counters::default(),
        report: session.report(),
        error: Some(err),
    };
    let cfg = match cand.config(scenario, max_level) {
        Ok(cfg) => cfg,
        Err(e) => return failed(e, &Session::passthrough()),
    };
    let session = match Session::new(cfg) {
        Ok(s) => s,
        Err(e) => return failed(e, &Session::passthrough()),
    };
    let trial = scenario.build(&spec.params).run(&session);
    let fidelity = scenario.fidelity(&trial, baseline);
    let counters = session.counters();
    let s = estimate_speedup(&spec.machine, cand.format, &counters);
    CandidateOutcome {
        spec: cand.clone(),
        fidelity,
        accepted: fidelity >= spec.fidelity_floor,
        predicted_speedup: predicted_speedup(&spec.machine, cand.format, &counters),
        speedup_compute: s.compute_bound,
        speedup_memory: s.memory_bound,
        counters,
        report: session.report(),
        error: None,
    }
}

/// Re-gate and re-score a merged outcome vector, then rank it.
///
/// Cached rows may predate the calling spec: acceptance is recomputed
/// against the live fidelity floor and speedups against the live machine
/// model (the counters in every row make this free). Freshly computed
/// rows are unchanged by the recompute — it is deterministic on the same
/// inputs — so a merged report stays identical to [`run_campaign`].
/// Used by [`crate::execute_study`]'s merge.
pub(crate) fn regate_and_rank(outcomes: &mut [CandidateOutcome], spec: &CampaignSpec) {
    for o in outcomes.iter_mut() {
        if o.error.is_none() {
            o.accepted = o.fidelity >= spec.fidelity_floor;
            let s = estimate_speedup(&spec.machine, o.spec.format, &o.counters);
            o.predicted_speedup = predicted_speedup(&spec.machine, o.spec.format, &o.counters);
            o.speedup_compute = s.compute_bound;
            o.speedup_memory = s.memory_bound;
        }
    }
    rank_outcomes(outcomes);
}

/// Rank: accepted first (by predicted speedup, then fidelity), rejected
/// after (by fidelity — the least-bad first), errors last. The sort is
/// stable, so outcome vectors assembled in candidate-lattice order rank
/// identically whether they were computed locally, gathered from minimpi
/// ranks, or merged out of a resume cache.
pub(crate) fn rank_outcomes(outcomes: &mut [CandidateOutcome]) {
    outcomes.sort_by(|a, b| {
        let key = |o: &CandidateOutcome| (o.error.is_none(), o.accepted);
        key(b)
            .cmp(&key(a))
            .then_with(|| {
                if a.accepted && b.accepted {
                    b.predicted_speedup
                        .partial_cmp(&a.predicted_speedup)
                        .unwrap_or(core::cmp::Ordering::Equal)
                } else {
                    core::cmp::Ordering::Equal
                }
            })
            .then_with(|| b.fidelity.partial_cmp(&a.fidelity).unwrap_or(core::cmp::Ordering::Equal))
    });
}

// ---------------------------------------------------------------------------
// Greedy refinement: minimal-precision search
// ---------------------------------------------------------------------------

/// Greedy precision-search specification.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Scenario scale knobs.
    pub params: LabParams,
    /// Exponent width of every probed format (11 = FP64's).
    pub exp_bits: u32,
    /// Inclusive mantissa-bit search range.
    pub mantissa: (u32, u32),
    /// Acceptance threshold on fidelity.
    pub fidelity_floor: f64,
    /// The M-l cutoffs to search independently (each gets its own row).
    pub cutoffs: Vec<u32>,
    /// Parallel rows on the sweep pool.
    pub workers: usize,
}

impl SearchSpec {
    /// Default search: mantissa 2..=52 at exponent 11, cutoffs M-0..M-2.
    pub fn new(params: LabParams, fidelity_floor: f64) -> SearchSpec {
        SearchSpec {
            params,
            exp_bits: 11,
            mantissa: (2, 52),
            fidelity_floor,
            cutoffs: vec![0, 1, 2],
            workers: 4,
        }
    }
}

/// One row of a precision search: the minimal safe mantissa width for a
/// cutoff strategy, plus every probe the bisection took.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchRow {
    /// The cutoff `l` of this row's M-l strategy.
    pub cutoff: u32,
    /// Minimal mantissa bits with fidelity >= the floor (`None` when even
    /// the widest probe fails).
    pub minimal_m: Option<u32>,
    /// Fidelity at `minimal_m` (or at the widest probe when `None`).
    pub fidelity: f64,
    /// Truncated-op fraction at the minimal width.
    pub truncated_fraction: f64,
    /// Every `(mantissa, fidelity)` probe, in probe order.
    pub probes: Vec<(u32, f64)>,
}

impl SearchRow {
    /// Machine-readable row through the shared serializer.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("cutoff", self.cutoff)
            .set(
                "minimal_mantissa",
                match self.minimal_m {
                    Some(m) => Json::from(m),
                    None => Json::Null,
                },
            )
            .set("fidelity", self.fidelity)
            .set("truncated_fraction", self.truncated_fraction)
            .set(
                "probes",
                Json::Arr(
                    self.probes
                        .iter()
                        .map(|&(m, f)| Json::obj().set("mantissa", m).set("fidelity", f))
                        .collect(),
                ),
            )
    }

    /// Parse back a document produced by [`SearchRow::to_json`] — search
    /// rows gathered from minimpi ranks travel in this form.
    pub fn from_json(doc: &Json) -> Result<SearchRow, String> {
        let minimal_m = match doc.req("minimal_mantissa")? {
            Json::Null => None,
            m => Some(
                m.as_u64().ok_or_else(|| "minimal_mantissa is not an integer".to_string())?
                    as u32,
            ),
        };
        let probes = doc
            .arr_field("probes")?
            .iter()
            .map(|p| Ok((p.u64_field("mantissa")? as u32, p.f64_field("fidelity")?)))
            .collect::<Result<Vec<(u32, f64)>, String>>()?;
        Ok(SearchRow {
            cutoff: doc.u64_field("cutoff")? as u32,
            minimal_m,
            fidelity: doc.f64_field("fidelity")?,
            truncated_fraction: doc.f64_field("truncated_fraction")?,
            probes,
        })
    }
}

/// Greedily bisect the mantissa ladder per cutoff for the minimal width
/// that clears the fidelity floor. Rows run in parallel on the sweep
/// pool; each probe is one full scenario run. The in-process reference
/// [`crate::execute_search`] is tested against.
pub fn precision_search(scenario: &dyn Scenario, spec: &SearchSpec) -> Vec<SearchRow> {
    let max_level = scenario.max_level(&spec.params);
    let baseline = scenario.build(&spec.params).run(&Session::passthrough());
    let slots: Vec<Mutex<Option<SearchRow>>> =
        spec.cutoffs.iter().map(|_| Mutex::new(None)).collect();
    amr::pool_run(spec.cutoffs.len(), spec.workers.max(1), &|i| {
        let cutoff = spec.cutoffs[i];
        let (mut chain, first) = ProbeChain::new(cutoff, spec.mantissa, spec.fidelity_floor);
        let mut pending = Some(first);
        while let Some(m) = pending {
            let (fid, frac) = run_probe(scenario, spec, cutoff, m, max_level, &baseline);
            pending = chain.advance(m, fid, frac);
        }
        *slots[i].lock().unwrap() = Some(chain.into_row());
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("pool ran every row")).collect()
}

/// The greedy-bisection decision machine of one M-l search row,
/// decoupled from *where* its probes run: feed it probe results, it
/// answers with the next mantissa width to probe (or finishes).
///
/// Both search drivers run this exact machine — [`precision_search`]
/// inline on a pool worker, [`crate::execute_search`] with each pending
/// probe as a work-stealing task and the chain state held by the rank-0
/// server — so their rows are identical **by construction**, probe for
/// probe.
///
/// Probe order (the serial contract): bracket at `hi` (if even the
/// widest mantissa fails, report and bail), check `lo` (if the narrowest
/// passes, it is minimal), then bisect. Fidelity is monotone enough in
/// the mantissa width for bisection (the §6.1 error ladders); occasional
/// non-monotone blips (the Fig. 7b AMR anomaly) cost at most a
/// slightly-wider answer, never an infinite loop.
pub(crate) struct ProbeChain {
    cutoff: u32,
    floor: f64,
    lo: u32,
    hi: u32,
    phase: ChainPhase,
    probes: Vec<(u32, f64)>,
    /// Narrowest passing probe so far: `(m, fidelity, truncated_fraction)`.
    best: Option<(u32, f64, f64)>,
    /// Set once the chain finishes: `(minimal_m, fidelity, fraction)`.
    result: Option<(Option<u32>, f64, f64)>,
}

enum ChainPhase {
    /// Waiting on the widest probe (`hi`).
    Bracket,
    /// Waiting on the narrowest probe (`lo`).
    Narrow,
    /// Waiting on a bisection midpoint.
    Bisect,
    Finished,
}

impl ProbeChain {
    /// Start a chain; returns the machine and its first probe width.
    pub(crate) fn new(cutoff: u32, mantissa: (u32, u32), floor: f64) -> (ProbeChain, u32) {
        let (lo, hi) = mantissa;
        let chain = ProbeChain {
            cutoff,
            floor,
            lo,
            hi,
            phase: ChainPhase::Bracket,
            probes: Vec::new(),
            best: None,
            result: None,
        };
        (chain, hi)
    }

    /// Feed the result of the pending probe at width `m`; returns the
    /// next width to probe, or `None` once the chain is finished.
    pub(crate) fn advance(&mut self, m: u32, fid: f64, frac: f64) -> Option<u32> {
        self.probes.push((m, fid));
        match self.phase {
            ChainPhase::Bracket => {
                if fid < self.floor {
                    self.finish(None, fid, frac);
                    None
                } else {
                    self.best = Some((self.hi, fid, frac));
                    self.phase = ChainPhase::Narrow;
                    Some(self.lo)
                }
            }
            ChainPhase::Narrow => {
                if fid >= self.floor {
                    self.finish(Some(self.lo), fid, frac);
                    None
                } else {
                    self.bisect_or_finish()
                }
            }
            ChainPhase::Bisect => {
                if fid >= self.floor {
                    self.hi = m;
                    self.best = Some((m, fid, frac));
                } else {
                    self.lo = m;
                }
                self.bisect_or_finish()
            }
            ChainPhase::Finished => unreachable!("no probe is pending on a finished chain"),
        }
    }

    fn bisect_or_finish(&mut self) -> Option<u32> {
        if self.hi - self.lo > 1 {
            self.phase = ChainPhase::Bisect;
            Some(self.lo + (self.hi - self.lo) / 2)
        } else {
            let (m, fid, frac) = self.best.expect("bracket probe passed");
            self.finish(Some(m), fid, frac);
            None
        }
    }

    fn finish(&mut self, minimal_m: Option<u32>, fid: f64, frac: f64) {
        self.phase = ChainPhase::Finished;
        self.result = Some((minimal_m, fid, frac));
    }

    /// Whether the chain has reached its answer.
    pub(crate) fn finished(&self) -> bool {
        matches!(self.phase, ChainPhase::Finished)
    }

    /// The finished chain as its search row (panics on an unfinished
    /// chain — a scheduler bug, not a data condition).
    pub(crate) fn into_row(self) -> SearchRow {
        let (minimal_m, fidelity, truncated_fraction) =
            self.result.expect("chain ran to completion");
        SearchRow {
            cutoff: self.cutoff,
            minimal_m,
            fidelity,
            truncated_fraction,
            probes: self.probes,
        }
    }
}

/// Run one bisection probe: a full scenario run at `e{exp_bits}m{m}`
/// under the M-`cutoff` strategy, scored against the baseline. Returns
/// `(fidelity, truncated_fraction)`. Shared by the serial rows and the
/// stolen probe tasks of [`crate::execute_search`].
pub(crate) fn run_probe(
    scenario: &dyn Scenario,
    spec: &SearchSpec,
    cutoff: u32,
    m: u32,
    max_level: u32,
    baseline: &Observable,
) -> (f64, f64) {
    let cand = CandidateSpec::op(Format::new(spec.exp_bits, m)).with_cutoff(cutoff);
    let cfg = cand.config(scenario, max_level).expect("op candidates validate");
    let session = Session::new(cfg).expect("validated");
    let trial = scenario.build(&spec.params).run(&session);
    (scenario.fidelity(&trial, baseline), session.counters().truncated_fraction())
}

/// JSON summary of a precision search.
pub fn search_to_json(scenario: &str, rows: &[SearchRow]) -> Json {
    Json::obj()
        .set("scenario", scenario)
        .set("rows", Json::Arr(rows.iter().map(|r| r.to_json()).collect()))
}
