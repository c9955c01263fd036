//! Driver equivalence: the step loop the traced run drives from public
//! calls (`perfbench::sedov::drive`) must reproduce `Simulation::run` bit
//! for bit — final mesh, counters and mem-mode flag rows — under both
//! Sedov sessions, so the per-layer split measures the real program.

use perfbench::sedov::{build, drive, flag_rows, Kind};
use perfbench::trace::Trace;
use raptor_core::{Real, Session, Tracked};

/// Enough steps for both sweep orders and several regrids.
const STEPS: usize = 6;

fn assert_equivalent<R: Real>(
    kind: Kind,
    seed: u64,
    program_session: &Session,
    driven_session: &Session,
) {
    let shape = kind.shape();
    let mut program = build(&shape, seed);
    let mut driven = build(&shape, seed);
    program.run::<R>(shape.t_end, STEPS, 1, program_session);
    let mut tr = Trace::new("driver-equivalence");
    let stats = drive::<R>(&mut driven, shape.t_end, STEPS, driven_session, &mut tr);

    assert_eq!(
        (program.nstep, program.t.to_bits()),
        (driven.nstep, driven.t.to_bits())
    );
    assert_eq!(
        amr::bitwise_diff(&program.mesh, &driven.mesh),
        None,
        "{kind:?} seed {seed}"
    );
    assert_eq!(
        program_session.counters(),
        driven_session.counters(),
        "{kind:?} seed {seed}"
    );
    assert_eq!(
        flag_rows(program_session),
        flag_rows(driven_session),
        "{kind:?} seed {seed}"
    );

    let agg = tr.aggregate(0);
    assert_eq!(agg["hydro.compute_dt"].calls, STEPS);
    assert_eq!(agg["hydro.sweep_axis"].calls, 2 * STEPS);
    assert_eq!(agg["amr.fill_guards"].calls, 2 * STEPS);
    assert_eq!(agg["amr.adapt"].calls, STEPS / driven.adapt_every);
    assert!(stats.cell_updates > 0);
}

#[test]
fn op_mode_loop_matches_simulation_run() {
    for seed in [0, 5] {
        let (a, b) = (Kind::Opt.session(), Kind::Opt.session());
        assert_equivalent::<Tracked>(Kind::Opt, seed, &a, &b);
        assert!(
            a.counters().trunc.total() > 0,
            "op-mode truncated something"
        );
    }
}

#[test]
fn mem_mode_loop_matches_simulation_run() {
    for seed in [0, 5] {
        let (a, b) = (Kind::Mem.session(), Kind::Mem.session());
        assert_equivalent::<Tracked>(Kind::Mem, seed, &a, &b);
        assert!(
            a.counters().full.total() > 0,
            "mem-mode counted full-precision ops"
        );
        assert!(!flag_rows(&a).is_empty(), "mem-mode flagged locations");
    }
}

#[test]
fn native_loop_matches_simulation_run() {
    for kind in [Kind::Opt, Kind::Mem] {
        assert_equivalent::<f64>(kind, 3, &Session::passthrough(), &Session::passthrough());
    }
}
