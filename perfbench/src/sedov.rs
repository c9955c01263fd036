//! The `sedov-opt` and `sedov-mem` workloads: one Sedov blast problem,
//! run natively (`f64`) and instrumented (`Tracked`) under the workload's
//! RAPTOR session, with single-threaded sweeps.
//!
//! Untraced runs go through [`Simulation::run`], the program's own driver.
//! The traced run drives the same step loop from public calls
//! ([`drive`]) so spans can sit around each layer's functions; the
//! driver-equivalence test and the per-run fingerprint check hold the two
//! loops to bit-identical results.

use crate::report::{medians, Samples, Tally, Values};
use crate::trace::Trace;
use crate::{rng, Deadline};
use amr::{init_with_refinement, sfocu, AdaptSpec, BcSpec, Mesh, MeshParams};
use bigfloat::Format;
use hydro::{GammaLaw, HydroParams, Problem, ReconKind, Simulation, DENS, ENER, NVAR};
use raptor_core::{Config, Counters, EmulPath, Real, Session, Tracked};
use std::time::Instant;

/// Cells per block side (the Table-3 block size).
const NX: usize = 8;
/// Adiabatic index of the blast problem.
const GAMMA: f64 = 1.4;
/// Step cap, far above what either problem takes.
const MAX_STEPS: usize = 100_000;
/// The instrumented format of both workloads.
const FORMAT: Format = Format::new(11, 12);
/// Accepted relative-L1 density error of the instrumented run against the
/// same run's native mesh: Fig. 7's range for a 12-bit mantissa at M-0
/// (nonzero, because truncation must show, and well below 1 %).
const L1_RANGE: (f64, f64) = (1e-9, 1e-2);

/// Problem size of a Sedov workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Finest AMR level.
    pub max_level: u32,
    /// Root blocks per side.
    pub roots: usize,
    /// Simulated end time.
    pub t_end: f64,
}

/// Which instrumented mode a Sedov workload profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// op-mode, optimised SoftFloat path, `Hydro` truncated at every
    /// level (M-0): the batch-tier row of Table 3.
    Opt,
    /// mem-mode over `Hydro` with a 1e-4 deviation threshold and full op
    /// counting: per-op scalar dispatch, shadow slab and flag tables.
    Mem,
}

impl Kind {
    /// The problem this workload runs. Both are the Table-3 mesh (4x4
    /// roots, level 3); mem-mode runs a shorter simulated time so one
    /// instrumented run stays a few seconds.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Opt => Shape {
                max_level: 3,
                roots: 4,
                t_end: 0.015,
            },
            Kind::Mem => Shape {
                max_level: 3,
                roots: 4,
                t_end: 0.0025,
            },
        }
    }

    /// Native runs per instrumented run: enough that the native samples
    /// of a timed run add up to a few tenths of a second.
    pub fn native_reps(self) -> usize {
        match self {
            Kind::Opt => 3,
            Kind::Mem => 12,
        }
    }

    /// The workload's RAPTOR configuration.
    pub fn config(self) -> Config {
        match self {
            Kind::Opt => Config::op_files(FORMAT, ["Hydro"])
                .with_cutoff(self.shape().max_level, 0)
                .with_path(EmulPath::Soft),
            Kind::Mem => Config::mem_functions(FORMAT, ["Hydro"], 1e-4).with_counting(),
        }
    }

    /// A fresh session over [`Kind::config`].
    pub fn session(self) -> Session {
        Session::new(self.config()).expect("the workload configs are valid")
    }
}

/// The seeded blast-centre offset: each coordinate uniform in half a
/// finest cell either way, so the centre moves by less than one cell.
fn blast_offset(seed: u64, shape: &Shape) -> (f64, f64) {
    let dx_f = finest_cell(shape);
    let mut r = rng::SplitMix::new(seed);
    ((r.unit() - 0.5) * dx_f, (r.unit() - 0.5) * dx_f)
}

fn finest_cell(shape: &Shape) -> f64 {
    1.0 / (shape.roots * NX * (1 << (shape.max_level - 1))) as f64
}

/// Build the blast problem with its centre moved by `offset`: the
/// shipped Sedov initial condition, shifted, refined by the shipped
/// initialisation loop. A zero offset reproduces
/// [`hydro::setup_with_roots`].
fn build_at(shape: &Shape, offset: (f64, f64)) -> Simulation {
    let recon = ReconKind::Plm;
    let params = MeshParams {
        nx: NX,
        ny: NX,
        ng: recon.guard_cells(),
        nvar: NVAR,
        nbx: shape.roots,
        nby: shape.roots,
        max_level: shape.max_level,
        domain: (0.0, 1.0, 0.0, 1.0),
    };
    let mut mesh = Mesh::new(params);
    let bc = BcSpec::all_outflow(NVAR);
    let adapt = AdaptSpec {
        vars: vec![DENS, ENER],
        ..Default::default()
    };
    let r_init = 3.5 * finest_cell(shape);
    let ic = hydro::initial_condition(Problem::Sedov, GAMMA, r_init);
    let (ox, oy) = offset;
    init_with_refinement(
        &mut mesh,
        &adapt,
        &bc,
        (shape.max_level + 2) as usize,
        move |x, y, v| ic(x - ox, y - oy, v),
    );
    Simulation {
        mesh,
        bc,
        adapt,
        hydro: HydroParams {
            recon,
            ..Default::default()
        },
        eos: GammaLaw { gamma: GAMMA },
        t: 0.0,
        nstep: 0,
        adapt_every: 2,
        fixed_dt: None,
    }
}

/// Build the seeded problem.
pub fn build(shape: &Shape, seed: u64) -> Simulation {
    build_at(shape, blast_offset(seed, shape))
}

/// Work counts of one [`drive`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveStats {
    /// Interior cells updated, summed over sweeps.
    pub cell_updates: u64,
    /// Blocks refined by `amr::adapt`.
    pub refined: usize,
    /// Parents coarsened by `amr::adapt`.
    pub coarsened: usize,
}

/// The step loop of [`Simulation::run`] with one thread, spelled out
/// from public calls with a span around each: `hydro::compute_dt`, then
/// per axis (in the flip order) `amr::fill_guards` and
/// `hydro::sweep_axis`, then `amr::adapt` every `adapt_every` steps.
pub fn drive<R: Real>(
    sim: &mut Simulation,
    t_end: f64,
    max_steps: usize,
    session: &Session,
    tr: &mut Trace,
) -> DriveStats {
    let mut st = DriveStats::default();
    let cells = (sim.mesh.params.nx * sim.mesh.params.ny) as u64;
    while sim.t < t_end && sim.nstep < max_steps {
        let dt = match sim.fixed_dt {
            Some(dt) => dt,
            None => tr.span("hydro.compute_dt", |_| {
                let _g = session.install();
                hydro::compute_dt::<R, _>(&sim.mesh, &sim.eos, &sim.hydro)
            }),
        };
        let dt = dt.min(t_end - sim.t).max(1e-12);
        let axes = if sim.nstep % 2 == 1 { [1, 0] } else { [0, 1] };
        for axis in axes {
            tr.span("amr.fill_guards", |_| {
                amr::fill_guards(&mut sim.mesh, &sim.bc)
            });
            st.cell_updates += sim.mesh.leaf_count() as u64 * cells;
            tr.span("hydro.sweep_axis", |_| {
                hydro::sweep_axis::<R, _>(&mut sim.mesh, &sim.eos, &sim.hydro, dt, axis, 1, session)
            });
        }
        sim.t += dt;
        sim.nstep += 1;
        if sim.adapt_every > 0 && sim.nstep.is_multiple_of(sim.adapt_every) {
            let r = tr.span("amr.adapt", |_| {
                amr::adapt(&mut sim.mesh, &sim.adapt, &sim.bc)
            });
            st.refined += r.refined;
            st.coarsened += r.coarsened;
        }
    }
    st
}

/// A mem-mode flag row in comparable form: location, op and flag counts,
/// and the bit patterns of the deviation statistics.
pub type FlagRow = (String, u64, u64, u64, u64);

/// The session's mem-mode flag rows, sorted.
pub fn flag_rows(session: &Session) -> Vec<FlagRow> {
    let mut rows: Vec<FlagRow> = session
        .mem_flags()
        .iter()
        .map(|r| {
            (
                format!("{}:{}:{}", r.loc.file, r.loc.line, r.loc.col),
                r.stats.ops,
                r.stats.flags,
                r.stats.max_dev.to_bits(),
                r.stats.sum_dev.to_bits(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// FNV-1a over the leaf structure and interior values of a mesh.
fn mesh_digest(mesh: &Mesh) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let p = mesh.params;
    for idx in mesh.leaves() {
        let b = mesh.block(idx);
        eat(u64::from(b.pos.level));
        eat(u64::from(b.pos.ix));
        eat(u64::from(b.pos.iy));
        for var in 0..p.nvar {
            for j in 0..p.ny {
                for i in 0..p.nx {
                    eat(b.data[mesh.index_int(var, i, j)].to_bits());
                }
            }
        }
    }
    h
}

fn check_finite(mesh: &Mesh, what: &str) -> Result<(), String> {
    let p = mesh.params;
    for idx in mesh.leaves() {
        let b = mesh.block(idx);
        for var in 0..p.nvar {
            for j in 0..p.ny {
                for i in 0..p.nx {
                    let x = b.data[mesh.index_int(var, i, j)];
                    if !x.is_finite() {
                        return Err(format!(
                            "{what}: non-finite {x} in block {:?} var {var}",
                            b.pos
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Everything a repeat of the same seeded problem must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    /// Digest of the native final mesh.
    native_mesh: u64,
    /// Digest of the instrumented final mesh.
    profile_mesh: u64,
    /// The instrumented session's counters.
    counters: Counters,
    /// The instrumented session's mem-mode flag rows.
    flags: Vec<FlagRow>,
    /// Bits of the instrumented-vs-native relative L1 density error.
    l1_bits: u64,
}

/// Check one native/instrumented pair and fingerprint it.
fn check_pair(
    native: &Simulation,
    profiled: &Simulation,
    session: &Session,
) -> Result<Fingerprint, String> {
    check_finite(&native.mesh, "native run")?;
    check_finite(&profiled.mesh, "instrumented run")?;
    let l1 = sfocu(&profiled.mesh, &native.mesh, DENS).l1;
    if !(L1_RANGE.0..=L1_RANGE.1).contains(&l1) {
        return Err(format!(
            "instrumented density L1 {l1:e} outside {L1_RANGE:?}"
        ));
    }
    Ok(Fingerprint {
        native_mesh: mesh_digest(&native.mesh),
        profile_mesh: mesh_digest(&profiled.mesh),
        counters: session.counters(),
        flags: flag_rows(session),
        l1_bits: l1.to_bits(),
    })
}

/// Compare a repeat's fingerprint against the first one of the run.
fn check_repeat(first: &mut Option<Fingerprint>, fp: Fingerprint) -> Result<(), String> {
    match first {
        None => {
            *first = Some(fp);
            Ok(())
        }
        Some(f) if *f == fp => Ok(()),
        Some(f) => Err(format!(
            "repeat differs from the first run: counters {} flag rows {} meshes {} l1 {}",
            f.counters == fp.counters,
            f.flags == fp.flags,
            (f.native_mesh, f.profile_mesh) == (fp.native_mesh, fp.profile_mesh),
            f.l1_bits == fp.l1_bits,
        )),
    }
}

/// Timings and checks of one workload run.
struct Run {
    kind: Kind,
    shape: Shape,
    seed: u64,
    setup: Samples,
    native: Samples,
    profile: Samples,
    rss: Samples,
    tally: Tally,
    first: Option<Fingerprint>,
}

impl Run {
    fn new(kind: Kind, seed: u64) -> Run {
        Run {
            kind,
            shape: kind.shape(),
            seed,
            setup: Samples::default(),
            native: Samples::default(),
            profile: Samples::default(),
            rss: Samples::default(),
            tally: Tally::default(),
            first: None,
        }
    }

    /// Build both problems and the session; the set-up time is sampled.
    fn set_up(&mut self) -> (Simulation, Simulation, Session) {
        let t = Instant::now();
        let out = (
            build(&self.shape, self.seed),
            build(&self.shape, self.seed),
            self.kind.session(),
        );
        self.setup.push(t.elapsed().as_secs_f64());
        out
    }

    /// One untraced native + instrumented pair through the program's
    /// driver; returns the pair's wall time.
    fn untraced(&mut self) -> f64 {
        let (mut nat, mut sim, sess) = self.set_up();
        let t = Instant::now();
        nat.run::<f64>(self.shape.t_end, MAX_STEPS, 1, &Session::passthrough());
        let native_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.run::<Tracked>(self.shape.t_end, MAX_STEPS, 1, &sess);
        let profile_s = t.elapsed().as_secs_f64();
        self.native.push(native_s);
        self.profile.push(profile_s);
        let check = check_pair(&nat, &sim, &sess).and_then(|fp| check_repeat(&mut self.first, fp));
        self.tally.record(check);
        // The native run is short: repeat it so its median rests on as
        // many samples as the instrumented one's.
        let digest = mesh_digest(&nat.mesh);
        for _ in 1..self.kind.native_reps() {
            let mut again = build(&self.shape, self.seed);
            let t = Instant::now();
            again.run::<f64>(self.shape.t_end, MAX_STEPS, 1, &Session::passthrough());
            self.native.push(t.elapsed().as_secs_f64());
            let same = mesh_digest(&again.mesh) == digest;
            self.tally.record(if same {
                Ok(())
            } else {
                Err("native repeat differs".into())
            });
        }
        // Later iterations repeat the same work, so the process peak
        // after the first one is the workload's footprint.
        if self.rss.is_empty() {
            match crate::report::peak_rss_mb() {
                Ok(mb) => self.rss.push(mb),
                Err(e) => self.tally.record(Err(e)),
            }
        }
        native_s + profile_s
    }
}

/// Run a Sedov workload for `deadline` and return its metrics and tally.
pub fn run(
    kind: Kind,
    seed: u64,
    deadline: Deadline,
    trace: Option<&mut Trace>,
) -> (Values, Tally, Vec<(&'static str, Samples)>) {
    let mut run = Run::new(kind, seed);
    let measured = match trace {
        None => {
            while deadline.more(run.profile.len()) && run.tally.failed == 0 {
                if let Err(e) = crate::catch(|| run.untraced()) {
                    run.tally.record(Err(e));
                }
            }
            vec![
                ("setup_s", run.setup.trimmed_mean()),
                ("native_s", run.native.trimmed_mean()),
                ("profile_s", run.profile.trimmed_mean()),
                ("peak_rss_mb", run.rss.median()),
            ]
        }
        Some(tr) => {
            let mut untraced_wall = Samples::default();
            let mut traced_wall = Samples::default();
            let mut traced: Vec<Values> = Vec::new();
            while deadline.more(traced.len()) && run.tally.failed == 0 {
                match crate::catch(|| run.untraced()) {
                    Ok(w) => untraced_wall.push(w),
                    Err(e) => run.tally.record(Err(e)),
                }
                let i = traced.len();
                match crate::catch(|| traced_pair(&mut run, tr, i)) {
                    Ok((wall, layers)) => {
                        traced_wall.push(wall);
                        traced.push(layers);
                    }
                    Err(e) => run.tally.record(Err(e)),
                }
            }
            let mut layers = medians(&traced);
            layers.push((
                "trace.overhead_s",
                traced_wall.median() - untraced_wall.median(),
            ));
            layers.push((
                "raptor-core.overhead_x",
                run.profile.trimmed_mean() / run.native.trimmed_mean(),
            ));
            layers
        }
    };
    let samples = vec![
        ("setup_s", run.setup),
        ("native_s", run.native),
        ("profile_s", run.profile),
        ("peak_rss_mb", run.rss),
    ];
    (measured, run.tally, samples)
}

/// One traced native + instrumented pair through [`drive`]. Native spans
/// carry run index `2i`, instrumented spans `2i + 1`.
fn traced_pair(run: &mut Run, tr: &mut Trace, i: usize) -> (f64, Values) {
    let (mut nat, mut sim, sess) = run.set_up();
    let t = Instant::now();
    tr.set_run(2 * i);
    tr.span("sedov.native", |tr| {
        drive::<f64>(
            &mut nat,
            run.shape.t_end,
            MAX_STEPS,
            &Session::passthrough(),
            tr,
        )
    });
    tr.set_run(2 * i + 1);
    let st = tr.span("sedov.profile", |tr| {
        drive::<Tracked>(&mut sim, run.shape.t_end, MAX_STEPS, &sess, tr)
    });
    let wall_s = t.elapsed().as_secs_f64();
    // The traced loop must reproduce the untraced program run exactly.
    let fp = check_pair(&nat, &sim, &sess);
    let counters = sess.counters();
    let (flag_rows, warnings) = match &fp {
        Ok(f) => (f.flags.len(), sess.warnings().len()),
        Err(_) => (0, 0),
    };
    run.tally
        .record(fp.and_then(|fp| check_repeat(&mut run.first, fp)));

    let nat_agg = tr.aggregate(2 * i);
    let agg = tr.aggregate(2 * i + 1);
    let get = |a: &std::collections::BTreeMap<&str, crate::trace::Agg>, n: &str| {
        a.get(n).copied().unwrap_or_default()
    };
    let sweep = get(&agg, "hydro.sweep_axis");
    let dt = get(&agg, "hydro.compute_dt");
    let guards = get(&agg, "amr.fill_guards");
    let adapt = get(&agg, "amr.adapt");
    let native_kernel =
        get(&nat_agg, "hydro.sweep_axis").self_s + get(&nat_agg, "hydro.compute_dt").self_s;
    let ops = counters.total_ops();
    (
        wall_s,
        vec![
            ("hydro.sweep_axis.self_s", sweep.self_s),
            ("hydro.sweep_axis.calls", sweep.calls as f64),
            (
                "hydro.ns_per_cell_update",
                1e9 * sweep.self_s / st.cell_updates.max(1) as f64,
            ),
            ("hydro.compute_dt.self_s", dt.self_s),
            ("hydro.compute_dt.calls", dt.calls as f64),
            ("amr.fill_guards.self_s", guards.self_s),
            ("amr.fill_guards.calls", guards.calls as f64),
            ("amr.adapt.self_s", adapt.self_s),
            ("amr.adapt.calls", adapt.calls as f64),
            ("amr.adapt.refined", st.refined as f64),
            ("amr.adapt.coarsened", st.coarsened as f64),
            ("amr.leaves_final", sim.mesh.leaf_count() as f64),
            ("raptor-core.trunc_ops", counters.trunc.total() as f64),
            ("raptor-core.full_ops", counters.full.total() as f64),
            ("raptor-core.trunc_frac", counters.truncated_fraction()),
            (
                "raptor-core.ns_per_op",
                1e9 * (sweep.self_s + dt.self_s - native_kernel) / ops.max(1) as f64,
            ),
            ("raptor-core.mem_flag_rows", flag_rows as f64),
            ("raptor-core.warnings", warnings as f64),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_offset_reproduces_the_shipped_setup() {
        let shape = Kind::Opt.shape();
        let ours = build_at(&shape, (0.0, 0.0));
        let shipped = hydro::setup_with_roots(
            Problem::Sedov,
            shape.max_level,
            NX,
            ReconKind::Plm,
            shape.roots,
        );
        assert_eq!(amr::bitwise_diff(&ours.mesh, &shipped.mesh), None);
    }

    #[test]
    fn seeds_move_the_centre_by_less_than_a_cell() {
        let shape = Kind::Opt.shape();
        let dx = finest_cell(&shape);
        for seed in 0..64 {
            let (ox, oy) = blast_offset(seed, &shape);
            assert!(ox.hypot(oy) < dx, "seed {seed}: ({ox}, {oy}) vs cell {dx}");
            assert_eq!(blast_offset(seed, &shape), (ox, oy));
        }
        assert_ne!(blast_offset(1, &shape), blast_offset(2, &shape));
        let a = build(&shape, 7);
        let b = build(&shape, 7);
        assert_eq!(mesh_digest(&a.mesh), mesh_digest(&b.mesh));
    }
}
