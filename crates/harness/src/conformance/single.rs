//! The single-op suite: one transfer op between the two MBs of the
//! standard scenario, over an MB type also drawn from the seed. The
//! full fault schedule runs in BOTH transfer modes — content-addressed
//! and plain streaming — each against its own same-mode unfaulted
//! reference, and the two modes' references must end byte-identical:
//! how chunks crossed the wire must not leak into state.

use openmb_apps::scenarios::layout::{MB_A, MB_A_ID, MB_B, MB_B_ID};
use openmb_apps::scenarios::{two_mb_scenario, ScenarioParams};

use super::*;
use crate::report::Table;

/// Normal fault windows close here; the op deadline (4 s) is far past.
pub(crate) const WINDOW_END_MS: u64 = 700;

/// Expand `seed` into a schedule. Same seed, same schedule, always.
pub fn generate(seed: u64) -> Schedule<ConfOp> {
    let mut g = ScheduleGen::new(seed, seed ^ 0xC0FF_EE00);
    let op = ALL_OPS[g.rng.below(3) as usize];
    let mb = ALL_MBS[g.rng.below(ALL_MBS.len() as u64) as usize];
    let harsh = g.rng.chance(15);
    let links = ctl_links(MB_A, MB_B);
    if harsh {
        g.storm(&links);
    } else {
        for _ in 0..(1 + g.rng.below(3)) {
            g.drop(&links, WINDOW_END_MS - OP_AT_MS - 50, |from| WINDOW_END_MS - from);
        }
        for _ in 0..g.rng.below(3) {
            g.delay(&links, 40, WINDOW_END_MS);
        }
        for _ in 0..g.rng.below(3) {
            g.duplicate(&links, WINDOW_END_MS);
        }
        if g.rng.chance(30) {
            g.partition(MB_A, MB_B, 400);
        }
        if g.rng.chance(30) {
            g.mb_crash((MB_A, MB_A_ID), (MB_B, MB_B_ID), WINDOW_END_MS - OP_AT_MS - 5, (20, 100));
        }
        if g.rng.chance(20) {
            g.controller_crash(WINDOW_END_MS - OP_AT_MS - 5);
        }
    }
    g.finish(seed, mb, harsh, op)
}

/// The standard two-MB scenario with `op` scheduled and the conformance
/// tunables set, ready for [`drive`].
pub(crate) fn build<M: Middlebox + 'static>(
    mk: &mut impl FnMut() -> M,
    op: ConfOp,
    content_cache: bool,
) -> Scenario {
    Scenario::new(vec![Request::Op(op, MB_A_ID, MB_B_ID)], 1024, |app| {
        let (src, dst) = fresh_pair(mk);
        let mut sim = two_mb_scenario(src, dst, app, ScenarioParams::default()).sim;
        // Every seed runs in both transfer modes: content-addressed
        // (references negotiate against the destination's store) and
        // plain streaming.
        let ctrl = sim.node_as_mut::<ControllerNode>(CONTROLLER);
        ctrl.core.update_config(|c| tune(c, content_cache));
        (sim, vec![(MB_A, MB_B)])
    })
}

/// Run the schedule's (mb type, op) pair — faulted when `faulted`, the
/// unfaulted reference otherwise. `content_cache` on negotiates chunk
/// references against the destination's store, off streams every body.
pub fn run_schedule(s: &Schedule<ConfOp>, faulted: bool, content_cache: bool) -> Run {
    fn run<M: Middlebox + 'static>(
        mut mk: impl FnMut() -> M,
        s: &Schedule<ConfOp>,
        faulted: bool,
        content_cache: bool,
    ) -> Run {
        let mut sc = build(&mut mk, s.shape, content_cache);
        drive::<M>(&mut sc, s.faults(faulted))
    }
    with_mb!(s.mb, run, s, faulted, content_cache)
}

/// Outcome summary for the report table.
pub struct SeedOutcome {
    pub harsh: bool,
    pub completed: bool,
}

/// Run one seed end-to-end and assert every invariant, panicking with
/// the replay command on violation.
pub fn check_seed(seed: u64) -> SeedOutcome {
    let s = generate(seed);
    let how = format!("replay with:\n  {}", replay_command("single", seed));
    let (on_ref, on_faulted) = check_mode(&s, true, &how);
    let (off_ref, _) = check_mode(&s, false, &how);
    assert_matches_reference(&on_ref.pairs[0], &off_ref.pairs[0], || {
        format!(
            "seed {seed} ({:?} over {:?}): content-addressed and streaming reference runs \
             diverged — {how}",
            s.shape, s.mb,
        )
    });
    SeedOutcome { harsh: s.harsh, completed: on_faulted.outcome(0).0 }
}

/// One transfer mode's half of [`check_seed`]: faulted run vs its own
/// same-mode reference. Returns `(reference, faulted)`.
fn check_mode(s: &Schedule<ConfOp>, content_cache: bool, how: &str) -> (Run, Run) {
    let reference = run_schedule(s, false, content_cache);
    let faulted = run_schedule(s, true, content_cache);
    check_runs(s, content_cache, &reference, &faulted, how);
    (reference, faulted)
}

/// Every single-op invariant of one faulted run against its same-mode
/// reference. `how` says how to reproduce the faulted run.
pub(crate) fn check_runs(
    s: &Schedule<ConfOp>,
    content_cache: bool,
    reference: &Run,
    faulted: &Run,
    how: &str,
) {
    // A violation dumps the faulted run's flight recorder right next to
    // the replay command: the Parked/Resumed/Aborted transitions across
    // controller and MB nodes are usually enough to localize the bug
    // before replaying.
    let ctx = || {
        format!(
            "seed {} ({:?} over {:?}{}, {} mode) violated an invariant — {how}\nfaulted-run {}",
            s.seed,
            s.shape,
            s.mb,
            if s.harsh { ", harsh" } else { "" },
            if content_cache { "content-addressed" } else { "streaming" },
            faulted.timeline,
        )
    };
    // The online oracle: no run — faulted or reference — may emit a
    // span stream that violates the protocol invariants.
    for (name, run) in [("reference", reference), ("faulted", faulted)] {
        assert!(
            run.violations.is_empty(),
            "{}\n{name} run violated protocol invariants: {:?}",
            ctx(),
            run.violations
        );
        assert_eq!(run.open_ops, 0, "{}\n{name} bookkeeping leaked", ctx());
    }
    assert_eq!(
        reference.outcome(0),
        (true, false),
        "{}\nreference run must complete cleanly: {reference:?}",
        ctx()
    );
    let (completed, failed) = faulted.outcome(0);
    assert!(
        completed != failed,
        "{}\nexactly one terminal outcome expected (completed={completed}, failed={failed})",
        ctx()
    );
    if completed {
        assert_matches_reference(&faulted.pairs[0], &reference.pairs[0], ctx);
    } else {
        assert_pristine(&faulted.pairs[0], &initial_images(s.mb), ctx);
    }
}

/// Regenerate the conformance summary over a fixed seed range (the
/// EXPERIMENTS.md table).
pub fn conformance_table() -> Table {
    let outcomes: Vec<SeedOutcome> = (0..24).map(check_seed).collect();
    let completed = outcomes.iter().filter(|o| o.completed).count();
    let mut t = Table::new(
        "Fault-schedule conformance: random drop/delay/duplicate/partition/crash schedules \
         against one transfer op per seed",
        &["seeds", "completed = reference", "aborted, rollback clean", "harsh (drop-storm)"],
    );
    t.row(vec![
        outcomes.len().to_string(),
        completed.to_string(),
        (outcomes.len() - completed).to_string(),
        outcomes.iter().filter(|o| o.harsh).count().to_string(),
    ]);
    t.note(
        "every seed satisfied the invariants: completion reproduces the unfaulted run's \
         endpoint state byte-for-byte; aborts leave no orphaned shared state and no \
         partially-put chunks. Failing seeds replay byte-identically via CONFORMANCE_SEED.",
    );
    t
}
