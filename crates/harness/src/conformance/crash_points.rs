//! Exhaustive controller-crash-point sweep (DESIGN.md §10): instead of
//! one random crash instant on ~15–20 % of seeds, kill the controller
//! after *every* step it takes through an op and hold each run to the
//! suite's full invariants.
//!
//! An *instant* is a distinct virtual time at or after the op's issue at
//! which the controller, in an unfaulted run, recorded a span event or
//! handled a southbound message — i.e. a time the controller did
//! something and journaled the result. Some handlings record no span (a
//! `ChunkNeed` answered with its body, a `GetAck` that does not close
//! its get), so the handled times come from a second run, read off the
//! core's message counter without the recorder; they also floor the
//! enumeration. Crashing 1 ns later lands strictly after everything it
//! did at that instant and strictly before its next event (the DES
//! clock is integer nanoseconds and no two controller steps are closer
//! than the per-message service cost), so the set of instants
//! enumerates every distinct journal state a crash can restore. The
//! 10 ms downtime outlasts the 100 µs control latency, so
//! every frame in flight towards the controller at the crash is lost.

use openmb_middleboxes::Monitor;

use super::single::{build, check_runs};
use super::*;
use crate::conformance_chain::{chain_request, check_chain_run, run_chain};
use crate::conformance_concurrent::build_pairs;

const DOWNTIME: SimDuration = SimDuration::from_millis(10);

/// Every instant of the reference run just driven on `sim`, given the
/// `handled` times of a second unfaulted run.
fn controller_instants(sim: &Sim, handled: &[u64]) -> Vec<u64> {
    let dump = sim.recorder().dump();
    assert_eq!(dump.evicted, 0, "the ring must retain the whole reference run");
    let mut instants: Vec<u64> = dump
        .events
        .iter()
        .filter(|e| e.node == "controller" && e.t_ns >= ms(OP_AT_MS).0)
        .map(|e| e.t_ns)
        .chain(handled.iter().copied())
        .collect();
    instants.sort_unstable();
    instants.dedup();
    instants
}

/// The distinct times at or after the op's issue at which the
/// controller handled a southbound message in an unfaulted run of `sc`
/// ([`ControllerCore::messages_handled`] rose across one event), read
/// without the recorder. Each journals a new state, so each must be an
/// instant.
///
/// [`ControllerCore::messages_handled`]: openmb_core::controller::ControllerCore::messages_handled
fn handled_times(mut sc: Scenario) -> Vec<u64> {
    let sim = &mut sc.sim;
    let (mut handled, mut times) = (0, Vec::new());
    while sim.run(1) == 1 {
        let now = sim.now().0;
        let n = sim.node_as::<ControllerNode>(CONTROLLER).core.messages_handled();
        if n > handled && now >= ms(OP_AT_MS).0 && times.last() != Some(&now) {
            times.push(now);
        }
        handled = n;
    }
    times
}

/// The enumeration's floor: it must hold every time the recorder-free
/// count found.
fn assert_exhaustive(instants: &[u64], handled: &[u64]) {
    let missed: Vec<_> = handled.iter().filter(|t| instants.binary_search(t).is_err()).collect();
    assert!(
        missed.is_empty(),
        "enumeration collapsed: {} instants for {} handled times, missing {missed:?}",
        instants.len(),
        handled.len()
    );
}

/// A schedule whose only fault is one controller crash just after `t`.
fn crash_after<S>(t: u64, shape: S) -> Schedule<S> {
    let down = SimTime(t + 1);
    Schedule {
        seed: t,
        mb: ConfMb::Monitor,
        harsh: false,
        plan: FaultPlan::seeded(t).crash_restart(CONTROLLER, down, down.after(DOWNTIME)),
        mb_crashes: Vec::new(),
        shape,
    }
}

/// The crash must really have happened; returns whether it cost the
/// controller anything (a frame or timer addressed to it while down).
fn crash_bit(faulted: &Run) -> bool {
    assert!(faulted.fault_log.contains("Crashed") && faulted.fault_log.contains("Restarted"));
    faulted.fault_log.contains("LostToCrash")
}

/// The 60-flow Monitor `moveInternal`, both transfer modes, every
/// instant.
#[test]
fn move_survives_a_controller_crash_at_every_instant() {
    for content_cache in [true, false] {
        let mut sc = build(&mut Monitor::new, ConfOp::Move, content_cache);
        let reference = drive::<Monitor>(&mut sc, None);
        let handled = handled_times(build(&mut Monitor::new, ConfOp::Move, content_cache));
        let instants = controller_instants(&sc.sim, &handled);
        assert_exhaustive(&instants, &handled);
        let (mut completed, mut lossy) = (0, 0);
        for &t in &instants {
            let s = crash_after(t, ConfOp::Move);
            let faulted = run_schedule(&s, true, content_cache);
            check_runs(&s, content_cache, &reference, &faulted, &format!("crash at {t} ns"));
            completed += faulted.outcome(0).0 as usize;
            lossy += crash_bit(&faulted) as usize;
        }
        eprintln!(
            "move crash points (content_cache={content_cache}): {} instants ({lossy} lost \
             frames or timers to the crash), {completed} completed = reference, {} aborted \
             pristine",
            instants.len(),
            instants.len() - completed
        );
    }
}

/// A 3-hop Monitor chain move crashed after every `stride`-th instant.
fn sweep_chain(stride: usize) {
    const HOPS: usize = 3;
    let mut sc = build_pairs(&mut Monitor::new, HOPS, chain_request(HOPS));
    let reference = drive::<Monitor>(&mut sc, None);
    let handled = handled_times(build_pairs(&mut Monitor::new, HOPS, chain_request(HOPS)));
    let instants = controller_instants(&sc.sim, &handled);
    assert_exhaustive(&instants, &handled);
    let (mut committed, mut lossy) = (0, 0);
    for &t in instants.iter().step_by(stride) {
        let s = crash_after(t, HOPS);
        let faulted = run_chain(&s, true);
        committed +=
            check_chain_run(&s, &faulted, || &reference, &format!("crash at {t} ns")) as usize;
        lossy += crash_bit(&faulted) as usize;
    }
    let runs = instants.len().div_ceil(stride);
    eprintln!(
        "chain crash points: {runs} of {} instants ({lossy} lost frames or timers to the \
         crash), {committed} committed = reference, {} rolled back pristine",
        instants.len(),
        runs - committed
    );
}

#[test]
fn chain_survives_a_controller_crash_at_every_eighth_instant() {
    sweep_chain(8);
}

/// Nightly: every instant of the chain.
#[test]
#[ignore = "long_range: exhaustive chain crash points; run with --include-ignored"]
fn chain_crash_points_long_range() {
    sweep_chain(1);
}
