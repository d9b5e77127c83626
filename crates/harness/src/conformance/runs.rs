//! Transfer runs under faults (DESIGN §13 "Runs"): a Dummy `moveInternal`
//! — `get_batch` = 64, so its 60 preloaded flows leave the source as
//! 30 runs of `wire::run_len(60)` = 2 records, one put each — hit by one fault
//! at every instant of its unfaulted reference run, in both transfer
//! modes, and held to the single-op suite's full invariants.
//!
//! A Monitor `moveInternal` covers the other shape: `get_batch` = 1, so
//! each of its runs of 2 spans two service quanta, and a source crashed
//! between them loses the record its first quantum serialized.
//!
//! A *send* is a `(time, link)` at which the reference run put a control
//! frame on the wire, read off a probe run whose only rules delay every
//! control frame by 0 ns and so log each one without moving it. A rule
//! active for `[t, t + 1 ns)` on that link hits exactly the frames it
//! carried at `t` — a run's reference, its body, the `ChunkNeed` between
//! them or its ack — and a middlebox crashed at `t + 1 ns` goes down
//! between one frame and the next.

use openmb_apps::scenarios::layout::{MB_A, MB_A_ID, MB_B, MB_B_ID};
use openmb_middleboxes::{DummyMb, Monitor};
use openmb_simnet::obs::SpanEvent;
use openmb_simnet::{FaultRecord, Frame};
use openmb_types::wire::{self, Message};

use super::single::{build, check_runs};
use super::*;

/// One control frame of the reference run: when it was sent, on which
/// directed link.
type Send = (u64, (NodeId, NodeId));

/// The reference run of a move of `mk`'s type in one transfer mode, its
/// sends, and its sim for inspection.
fn reference<M: Middlebox + 'static>(
    mut mk: impl FnMut() -> M,
    content_cache: bool,
) -> (Run, Vec<Send>, Sim) {
    let mut sc = build(&mut mk, ConfOp::Move, content_cache);
    let run = drive::<M>(&mut sc, None);

    let mut probe = build(&mut mk, ConfOp::Move, content_cache);
    let log_every_frame =
        ctl_links(MB_A, MB_B).into_iter().fold(FaultPlan::seeded(0), |p, (a, b)| {
            p.rule(FaultRule::on_link(a, b, FaultAction::Delay(SimDuration::ZERO)))
        });
    let logged = drive::<M>(&mut probe, Some((&log_every_frame, &[])));
    assert_eq!(logged.completions, run.completions, "a 0 ns delay moves nothing");
    let mut sends: Vec<Send> = probe
        .sim
        .fault_log()
        .iter()
        .filter_map(|r| match *r {
            FaultRecord::Delayed { at, from, to, .. } if at >= ms(OP_AT_MS) => {
                Some((at.0, (from, to)))
            }
            _ => None,
        })
        .collect();
    sends.dedup();
    (run, sends, sc.sim)
}

/// A Dummy move whose only faults are `plan` and `mb_crashes`.
fn faulted(seed: u64, plan: FaultPlan, mb_crashes: Vec<MbCrash>) -> Schedule<ConfOp> {
    Schedule { mb: ConfMb::Dummy, ..monitor_faulted(seed, plan, mb_crashes) }
}

/// A Monitor move whose only faults are `plan` and `mb_crashes`.
fn monitor_faulted(seed: u64, plan: FaultPlan, mb_crashes: Vec<MbCrash>) -> Schedule<ConfOp> {
    Schedule { seed, mb: ConfMb::Monitor, harsh: false, plan, mb_crashes, shape: ConfOp::Move }
}

/// One rule on one link for frames sent at exactly `t`.
fn at_instant(t: u64, (a, b): (NodeId, NodeId), action: FaultAction) -> FaultPlan {
    let rule = FaultRule::on_link(a, b, action).between(SimTime(t), SimTime(t + 1));
    FaultPlan::seeded(t).rule(rule)
}

/// The reference run really moved runs: fewer acked puts than flows.
#[test]
fn the_dummy_move_travels_as_runs() {
    for content_cache in [true, false] {
        let (run, _, sim) = reference(DummyMb::new, content_cache);
        let acks = sim
            .recorder()
            .dump()
            .events
            .iter()
            .filter(|e| matches!(e.event, SpanEvent::ChunkAcked { .. }))
            .count();
        let flows = run.pairs[0].dst_entries;
        assert_eq!(flows, PRELOAD, "every preloaded flow lands");
        let len = wire::run_len(flows);
        assert!(len > 1, "runs of one");
        assert_eq!(acks, flows.div_ceil(len), "one put per run of {len}");
    }
}

/// Drop, then duplicate, every control frame of the reference run, one
/// per run: whichever run's reference, body, need or ack is lost or
/// doubled, the move ends byte-identical to the reference or aborts
/// pristine.
#[test]
fn runs_survive_a_dropped_or_duplicated_frame_at_every_send() {
    for content_cache in [true, false] {
        let (reference, sends, _) = reference(DummyMb::new, content_cache);
        assert!(sends.len() >= 10, "enumeration collapsed: {} sends", sends.len());
        for &(t, link) in &sends {
            for action in [FaultAction::Drop, FaultAction::Duplicate] {
                let s = faulted(t, at_instant(t, link, action), Vec::new());
                let run = run_schedule(&s, true, content_cache);
                assert!(run.fault_log.contains("at: SimTime"), "no fault landed at {t} ns");
                let how = format!("{action:?} on {link:?} at {t} ns");
                check_runs(&s, content_cache, &reference, &run, &how);
            }
        }
    }
}

/// Crash either middlebox just after every send, for 30 ms: a source
/// down between two runs of its get reply, a destination down with a
/// run's reference or body in flight.
#[test]
fn runs_survive_a_middlebox_crash_after_every_send() {
    for content_cache in [true, false] {
        let (reference, sends, _) = reference(DummyMb::new, content_cache);
        let mut instants: Vec<u64> = sends.iter().map(|s| s.0).collect();
        instants.dedup();
        for &t in &instants {
            for (node, id) in [(MB_A, MB_A_ID), (MB_B, MB_B_ID)] {
                let (down, up) =
                    (SimTime(t + 1), SimTime(t + 1).after(SimDuration::from_millis(30)));
                let plan = FaultPlan::seeded(t).crash_restart(node, down, up);
                let s = faulted(t, plan, vec![(id, down, up)]);
                let run = run_schedule(&s, true, content_cache);
                check_runs(&s, content_cache, &reference, &run, &format!("{id} down at {t} ns"));
            }
        }
    }
}

/// The destination's first `ChunkNeed` is lost: the controller never
/// streams that run's body, the stall timer resumes the transfer, and
/// the move still lands the reference state.
#[test]
fn a_lost_chunk_need_is_recovered_by_resume() {
    let (reference, sends, _) = reference(DummyMb::new, true);
    // The destination's store starts cold: its first frame answers the
    // first run's reference with a need.
    let first_ref = sends
        .iter()
        .find(|&&(_, link)| link == (MB_B, CONTROLLER))
        .expect("the destination answered a reference")
        .0;
    let s =
        faulted(first_ref, at_instant(first_ref, (MB_B, CONTROLLER), FaultAction::Drop), vec![]);
    let run = run_schedule(&s, true, true);
    let need = Frame::control(Message::ChunkNeed { op: OpId(0), hash: [0; 32] }).wire_len();
    assert!(
        run.fault_log.contains("Dropped") && run.fault_log.contains(&format!("wire_len: {need}")),
        "the dropped frame is a lone ChunkNeed: {}",
        run.fault_log
    );
    check_runs(&s, true, &reference, &run, "first ChunkNeed lost");
    assert_eq!(run.outcome(0), (true, false), "a lost need costs a resume, not the op");
    assert!(run.timeline.contains("resumed(from_seq="), "{}", run.timeline);
}

/// A `get_batch` = 1 Monitor cuts its 60 flows into runs of 2, each
/// spanning two service quanta. Crash the source 1 ns before the middle
/// run leaves, while it serializes the run's second record: the first,
/// serialized a quantum earlier and held for the run, is lost with the
/// work queue. The move ends equal to the reference or aborts pristine.
#[test]
fn a_source_crash_between_the_quanta_of_one_run() {
    let costs = Monitor::new().costs();
    assert_eq!((costs.get_batch, wire::run_len(PRELOAD)), (1, 2));
    let quantum = costs.serialize_cost(1).0;
    for content_cache in [true, false] {
        let (reference, sends, _) = reference(Monitor::new, content_cache);
        let runs: Vec<u64> =
            sends.iter().filter(|&&(_, link)| link == (MB_A, CONTROLLER)).map(|s| s.0).collect();
        assert!(runs.len() >= PRELOAD / 2, "one send per run: {} sends", runs.len());
        let i = runs.len() / 2;
        let t = runs[i];
        assert!(
            t - runs[i - 1] >= 2 * quantum,
            "the run sent at {t} ns took two quanta, and nothing left in between"
        );
        let (down, up) = (SimTime(t - 1), SimTime(t - 1).after(SimDuration::from_millis(30)));
        let plan = FaultPlan::seeded(t).crash_restart(MB_A, down, up);
        let s = monitor_faulted(t, plan, vec![(MB_A_ID, down, up)]);
        let run = run_schedule(&s, true, content_cache);
        assert!(run.fault_log.contains("Crashed"), "the source went down: {}", run.fault_log);
        let how = format!("source down 1 ns before its run at {t} ns");
        check_runs(&s, content_cache, &reference, &run, &how);
    }
}
