//! Direct tests of the controller state machine: drive
//! [`ControllerCore`] against real middlebox logic through the pure
//! southbound dispatcher, no simulator in between.

use openmb_core::controller::{
    Action, Completion, ControllerConfig, ControllerCore, TableSizes, RETIRED_RING,
};
use openmb_core::Request;
use openmb_core::{ChainHop, ChainSpec, Phase, ShardRouter};
use openmb_mb::{handle_southbound, handle_southbound_logged};
use openmb_mb::{Effects, Middlebox, SharedPutLog};
use openmb_middleboxes::{DummyMb, Ips, Monitor, Proxy};
use openmb_obs::{Recorder, SpanEvent};
use openmb_simnet::{SimDuration, SimTime};
use openmb_store::{ContentStore, MemoryContentStore};
use openmb_types::crypto::VendorKey;
use openmb_types::wire::{self, Message};
use openmb_types::{
    EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix, MbId, OpId, Packet,
    StateChunk,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Run `actions` until the queue drains: every southbound request goes
/// to `mb_handle(to, request)`, whose replies feed back into the
/// controller; completions are collected.
fn drive(
    core: &ControllerCore,
    mut actions: Vec<Action>,
    now: SimTime,
    completions: &mut Vec<Completion>,
    mut mb_handle: impl FnMut(MbId, Message) -> Vec<Message>,
) {
    while let Some(act) = actions.pop() {
        match act {
            Action::Notify(c) => completions.push(c),
            Action::ToMb(mb, msg) => {
                for r in mb_handle(mb, msg) {
                    core.handle_mb_message(mb, r, now, &mut actions);
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
}

/// A two-MB world: actions fan out to the logic, replies feed back, until
/// the queue drains. Returns all completions.
struct World<A: Middlebox, B: Middlebox> {
    core: ControllerCore,
    a: A,
    b: B,
    a_id: MbId,
    b_id: MbId,
    now: SimTime,
    completions: Vec<Completion>,
}

impl<A: Middlebox, B: Middlebox> World<A, B> {
    fn new(a: A, b: B) -> Self {
        let core = ControllerCore::new(ControllerConfig {
            quiesce_after: SimDuration::from_millis(10),
            buffer_events: true,
            ..ControllerConfig::default()
        });
        let a_id = core.register_mb();
        let b_id = core.register_mb();
        World { core, a, b, a_id, b_id, now: SimTime(0), completions: Vec::new() }
    }

    fn pump(&mut self, actions: Vec<Action>) {
        drive(&self.core, actions, self.now, &mut self.completions, |mb, msg| {
            if mb == self.a_id {
                handle_southbound(&mut self.a, msg, self.now)
            } else {
                handle_southbound(&mut self.b, msg, self.now)
            }
        });
    }

    /// `moveInternal(a, b, *)`.
    fn move_all(&self) -> Request {
        Request::Move { src: self.a_id, dst: self.b_id, key: HeaderFieldList::any() }
    }

    fn quiesce(&mut self) {
        self.now = self.now.after(SimDuration::from_secs(1));
        let mut out = Vec::new();
        self.core.tick(self.now, &mut out);
        self.pump(out);
    }
}

fn http_key(i: u16) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, (i % 250) as u8 + 1),
        1000 + i,
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    )
}

fn seed_monitor(m: &mut Monitor, n: u16) {
    let mut fx = Effects::normal();
    for i in 0..n {
        m.process_packet(
            SimTime(u64::from(i)),
            &Packet::new(u64::from(i), http_key(i), vec![0u8; 64]),
            &mut fx,
        );
    }
}

#[test]
fn move_then_quiesce_deletes_source() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 20);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    w.pump(out);
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 20 } if *o == op)));
    assert_eq!(w.b.perflow_entries(), 20);
    assert_eq!(w.a.perflow_entries(), 20, "delete only after quiescence");
    w.quiesce();
    assert_eq!(w.a.perflow_entries(), 0, "quiescence deletes the source");
    assert_eq!(w.core.chunks_moved(op), 20);
}

#[test]
fn clone_with_no_shared_state_completes_cleanly() {
    // Monitors have no shared *supporting* state: the get answers OpAck
    // and the clone completes with nothing to put.
    let mut w = World::new(Monitor::new(), Monitor::new());
    let mut out = Vec::new();
    let op = w.core.submit(Request::Clone { src: w.a_id, dst: w.b_id }, w.now, &mut out);
    w.pump(out);
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::CloneComplete { op: o } if *o == op)));
}

#[test]
fn merge_transfers_both_shared_classes() {
    // Proxies hold shared supporting (object cache) AND shared reporting
    // (counters): mergeInternal must move both.
    let mut a = Proxy::new(32);
    let mut b = Proxy::new(32);
    let mut fx = Effects::normal();
    let req = |i: u64, url: &str| {
        Packet::new(i, http_key(i as u16), format!("GET {url} HTTP/1.1\r\n").into_bytes())
    };
    a.process_packet(SimTime(0), &req(1, "/x"), &mut fx);
    a.process_packet(SimTime(1), &req(2, "/x"), &mut fx);
    b.process_packet(SimTime(2), &req(3, "/y"), &mut fx);
    let mut w = World::new(a, b);
    let mut out = Vec::new();
    let op = w.core.submit(Request::Merge { src: w.a_id, dst: w.b_id }, w.now, &mut out);
    w.pump(out);
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MergeComplete { op: o } if *o == op)));
    // Cache union with hit metadata; counters summed.
    assert!(w.b.cache_sorted().iter().any(|o| o.url == "/x" && o.hits == 1));
    assert!(w.b.cache_sorted().iter().any(|o| o.url == "/y"));
    assert_eq!(w.b.requests, 3);
}

#[test]
fn vendor_mismatch_surfaces_as_failed_completion() {
    // Moving monitor state into an IPS: the destination cannot decrypt
    // the chunks; the put errors and the operation reports failure.
    let mut w = World::new(Monitor::new(), Ips::new());
    seed_monitor(&mut w.a, 3);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    w.pump(out);
    let failed =
        w.completions.iter().any(|c| matches!(c, Completion::Failed { op: o, .. } if *o == op));
    assert!(failed, "cross-vendor put must fail the operation: {:?}", w.completions);
}

#[test]
fn events_after_completion_are_still_forwarded() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 5);
    let mut out = Vec::new();
    let _op = w.core.submit(w.move_all(), w.now, &mut out);
    w.pump(out);
    // Post-completion, a packet hits the source (routing not yet
    // effective): the reprocess event must reach the destination.
    let mut fx = Effects::normal();
    w.a.process_packet(SimTime(100), &Packet::new(99, http_key(1), vec![0u8; 64]), &mut fx);
    let events = fx.take_events();
    assert_eq!(events.len(), 1);
    let before = w.b.assets_sorted().iter().map(|r| r.packets).sum::<u64>();
    for ev in events {
        let mut out = Vec::new();
        w.core.handle_mb_message(w.a_id, Message::EventMsg { event: ev }, w.now, &mut out);
        w.pump(out);
    }
    let after = w.b.assets_sorted().iter().map(|r| r.packets).sum::<u64>();
    assert_eq!(after, before + 1, "replay landed at the destination");
}

#[test]
fn read_write_config_roundtrip_through_controller() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    let mut out = Vec::new();
    let op = w.core.submit(
        Request::ReadConfig { mb: w.a_id, key: openmb_types::HierarchicalKey::parse("*") },
        w.now,
        &mut out,
    );
    w.pump(out);
    let pairs = w
        .completions
        .iter()
        .find_map(|c| match c {
            Completion::Config { op: o, pairs } if *o == op => Some(pairs.clone()),
            _ => None,
        })
        .expect("config read");
    assert!(!pairs.is_empty());
    for (k, v) in pairs {
        let mut out = Vec::new();
        w.core.submit(Request::WriteConfig { mb: w.b_id, key: k, values: v }, w.now, &mut out);
        w.pump(out);
    }
    assert_eq!(
        w.a.get_config(&openmb_types::HierarchicalKey::parse("*")).unwrap(),
        w.b.get_config(&openmb_types::HierarchicalKey::parse("*")).unwrap(),
    );
}

#[test]
fn stats_and_enable_events_complete() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 7);
    let mut out = Vec::new();
    let sop =
        w.core.submit(Request::Stats { mb: w.a_id, key: HeaderFieldList::any() }, w.now, &mut out);
    let eop = w.core.submit(
        Request::EnableEvents { mb: w.a_id, filter: openmb_types::wire::EventFilter::all() },
        w.now,
        &mut out,
    );
    w.pump(out);
    assert!(w.completions.iter().any(
        |c| matches!(c, Completion::Stats { op, stats } if *op == sop && stats.perflow_report_chunks == 7)
    ));
    assert!(w.completions.iter().any(|c| matches!(c, Completion::Ack { op } if *op == eop)));
    // The MB now generates introspection events.
    let mut fx = Effects::normal();
    w.a.process_packet(SimTime(50), &Packet::new(500, http_key(200), vec![0u8; 10]), &mut fx);
    let evs = fx.take_events();
    assert!(
        evs.iter().any(|e| matches!(e, openmb_types::wire::Event::Introspection { .. })),
        "introspection enabled through the controller"
    );
    // And the controller forwards them to the application.
    let mut out = Vec::new();
    for ev in evs {
        w.core.handle_mb_message(w.a_id, Message::EventMsg { event: ev }, w.now, &mut out);
    }
    w.pump(out);
    assert!(w.completions.iter().any(|c| matches!(c, Completion::MbEvent { .. })));
}

#[test]
fn duplicate_put_ack_after_completion_is_ignored() {
    // A late-retransmitted PutAck landing after the move has completed
    // (or even after quiescence deleted the op) must be dropped: no
    // panic, no duplicate completion, no resurrected transfer state.
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 8);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    // Keep a copy of every PutAck the destination sends, so one can be
    // replayed after the op completes.
    let mut acks: Vec<Message> = Vec::new();
    drive(&w.core, out, w.now, &mut w.completions, |mb, msg| {
        let replies = if mb == w.a_id {
            handle_southbound(&mut w.a, msg, w.now)
        } else {
            handle_southbound(&mut w.b, msg, w.now)
        };
        acks.extend(replies.iter().filter(|r| matches!(r, Message::PutAck { .. })).cloned());
        replies
    });
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, .. } if *o == op)));
    let n_completions = w.completions.len();
    let dst_entries = w.b.perflow_entries();
    let dup = acks.last().expect("move produced puts").clone();

    // Duplicate while the op still exists (completed, pre-quiescence).
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, dup.clone(), w.now, &mut out);
    w.pump(out);
    assert_eq!(w.completions.len(), n_completions, "no completion resurrected");

    // And again after quiescence has deleted the op entirely: its
    // deletes acked, it is retired — gone from the op and sub-op
    // tables, one tombstone left. (The router prunes its conflict entry
    // at the next admission.)
    w.quiesce();
    let retired = TableSizes { tombstones: 1, conflicts: 1, ..TableSizes::default() };
    assert_eq!(w.core.table_sizes(), retired);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, dup, w.now, &mut out);
    w.pump(out);
    assert_eq!(w.completions.len(), n_completions);
    assert_eq!(w.a.perflow_entries(), 0, "quiescence delete still happened");
    assert_eq!(w.b.perflow_entries(), dst_entries);
    assert_eq!(w.core.open_ops(), 0);
    assert_eq!(w.core.table_sizes(), retired, "nothing resurrected");
}

/// Every late message a retired move can receive, replayed after its
/// retirement: each gets the reaction the closed op got before ops
/// were retired — the replies and the rejection are dropped, a
/// reprocess event tagged with a get sub-op (or the op) still reaches
/// the destination — and none resurrects a table entry. Once
/// [`RETIRED_RING`] later ops have retired, the tombstone is gone and
/// the event is dropped too.
#[test]
fn late_messages_for_a_retired_op_get_the_closed_ops_reaction() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 6);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let gets: Vec<OpId> = out
        .iter()
        .filter_map(|a| match a {
            Action::ToMb(
                _,
                Message::GetSupportPerflow { op, .. } | Message::GetReportPerflow { op, .. },
            ) => Some(*op),
            _ => None,
        })
        .collect();
    // One of each reply the move elicited, from the MB that sent it.
    let mut late: Vec<(MbId, Message)> = Vec::new();
    drive(&w.core, out, w.now, &mut w.completions, |mb, msg| {
        let replies = if mb == w.a_id {
            handle_southbound(&mut w.a, msg, w.now)
        } else {
            handle_southbound(&mut w.b, msg, w.now)
        };
        for r in &replies {
            if !late.iter().any(|(_, m)| m.kind_name() == r.kind_name()) {
                late.push((mb, r.clone()));
            }
        }
        replies
    });
    let sub_of = |kind: &str| {
        let (_, m) = late.iter().find(|(_, m)| m.kind_name() == kind).expect(kind);
        m.op_id().expect("a reply names its sub-op")
    };
    // A rejection naming a put whose ack was accepted.
    let acked_put = sub_of("putAck");
    late.push((w.b_id, Message::ErrorMsg { op: acked_put, error: Error::OpFailed("late".into()) }));
    for kind in ["putAck", "chunkNeed", "chunk", "getAck", "error"] {
        assert!(late.iter().any(|(_, m)| m.kind_name() == kind), "no {kind} in {late:?}");
    }
    w.quiesce();
    let retired = w.core.table_sizes();
    assert_eq!((retired.ops, retired.sub_ops, retired.tombstones), (0, 0, 1));
    let n_completions = w.completions.len();

    for (mb, msg) in &late {
        let mut out = Vec::new();
        w.core.handle_mb_message(*mb, msg.clone(), w.now, &mut out);
        assert!(out.is_empty(), "{msg:?} → {out:?}");
        assert_eq!(w.core.table_sizes(), retired, "{msg:?}");
    }
    let key = http_key(1);
    let packet = Packet::new(99, key, vec![0u8; 64]);
    let reprocess = |tag: OpId| Message::EventMsg {
        event: wire::Event::Reprocess { op: tag, key, packet: packet.clone() },
    };
    let forwarded =
        Action::ToMb(w.b_id, Message::ReprocessPacket { op, key, packet: packet.clone() });
    for tag in [gets[0], gets[1], op] {
        let mut out = Vec::new();
        w.core.handle_mb_message(w.a_id, reprocess(tag), w.now, &mut out);
        assert_eq!(out, std::slice::from_ref(&forwarded), "event tagged {tag:?}");
    }
    assert_eq!(w.core.events_forwarded(op), 3);
    assert_eq!(w.core.chunks_moved(op), 6);
    assert_eq!(w.completions.len(), n_completions);

    // RETIRED_RING transfers retire after it (simple ops leave no
    // tombstone): the move's is evicted, its phase still reads Closed,
    // and its events are dropped.
    let mut out = Vec::new();
    w.core.submit(Request::Stats { mb: w.a_id, key: HeaderFieldList::any() }, w.now, &mut out);
    w.pump(out);
    assert_eq!(w.core.table_sizes().tombstones, 1);
    for _ in 0..RETIRED_RING {
        let mut out = Vec::new();
        w.core.submit(Request::Clone { src: w.a_id, dst: w.b_id }, w.now, &mut out);
        w.pump(out);
        w.quiesce();
    }
    assert_eq!(w.core.table_sizes().tombstones, RETIRED_RING);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    assert_eq!(w.core.chunks_moved(op), 0);
    let mut out = Vec::new();
    w.core.handle_mb_message(w.a_id, reprocess(gets[0]), w.now, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

/// Pinned: a rejection naming a put whose ack was already accepted does
/// not abort the live transfer. The put's outcome was decided by its
/// ack (a rejection can only come from a re-sent copy), so the sub-op
/// no longer routes anywhere and the move completes.
#[test]
fn rejection_of_an_acked_put_leaves_the_live_move_running() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.content_cache = false);
    seed_monitor(&mut w.a, 5);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    // Serve the source; hold the puts addressed to the destination.
    let mut held = Vec::new();
    while let Some(act) = out.pop() {
        match act {
            Action::ToMb(mb, msg) if mb == w.a_id => {
                for r in handle_southbound(&mut w.a, msg, w.now) {
                    w.core.handle_mb_message(mb, r, w.now, &mut out);
                }
            }
            other => held.push(other),
        }
    }
    // Apply one put and accept its ack.
    let Action::ToMb(_, put) = held.remove(0) else { panic!("a put first: {held:?}") };
    let mut replies = handle_southbound(&mut w.b, put, w.now);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let ack = replies.remove(0);
    let Message::PutAck { op: sub, .. } = ack else { panic!("an ack: {ack:?}") };
    w.core.handle_mb_message(w.b_id, ack, w.now, &mut held);
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));

    let stale = Message::ErrorMsg { op: sub, error: Error::OpFailed("stale".into()) };
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, stale, w.now, &mut out);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));
    w.pump(held);
    assert!(failures(&w, op).is_empty(), "{:?}", w.completions);
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 5 } if *o == op)));
}

/// A move aborted with its puts in flight retires every sub-op: the
/// open puts' ids leave with the op, as its gets and deletes do.
#[test]
fn a_move_aborted_with_puts_in_flight_leaves_no_sub_op_routable() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 5);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    // Serve the source; hold the puts addressed to the destination.
    let mut held = Vec::new();
    while let Some(act) = out.pop() {
        match act {
            Action::ToMb(mb, msg) if mb == w.a_id => {
                for r in handle_southbound(&mut w.a, msg, w.now) {
                    w.core.handle_mb_message(mb, r, w.now, &mut out);
                }
            }
            other => held.push(other),
        }
    }
    let Some(Action::ToMb(_, put)) = held.first() else { panic!("a put: {held:?}") };
    let sub = put.op_id().expect("a put names its sub-op");
    let rejected = Message::ErrorMsg { op: sub, error: Error::OpFailed("full".into()) };
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, rejected, w.now, &mut out);
    w.pump(out);
    assert_eq!(failures(&w, op).len(), 1, "{:?}", w.completions);
    let tables = w.core.table_sizes();
    assert_eq!((tables.ops, tables.sub_ops, tables.tombstones), (0, 0, 1));
}

#[test]
fn duplicated_config_or_stats_reply_completes_the_op_once() {
    // A `ConfigValues` / `Stats` reply delivered twice — a retry racing
    // a slow reply, or the fault plan duplicating the frame — must
    // complete the op once: the second copy finds it closed.
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 3);
    let rec = Recorder::enabled(256);
    w.core.set_recorder(rec.clone());
    let mut out = Vec::new();
    let cfg = w.core.submit(
        Request::ReadConfig { mb: w.a_id, key: HierarchicalKey::parse("*") },
        w.now,
        &mut out,
    );
    let stats =
        w.core.submit(Request::Stats { mb: w.a_id, key: HeaderFieldList::any() }, w.now, &mut out);
    assert_eq!(w.core.op_phase(cfg), Some(Phase::Running));
    let mut notified = Vec::new();
    for act in out {
        let Action::ToMb(mb, request) = act else { panic!("unexpected action {act:?}") };
        for reply in handle_southbound(&mut w.a, request, w.now) {
            w.core.handle_mb_message(mb, reply.clone(), w.now, &mut notified);
            w.core.handle_mb_message(mb, reply, w.now, &mut notified);
        }
    }
    let spans = rec.dump().events;
    for op in [cfg, stats] {
        let completions =
            notified.iter().filter(|a| matches!(a, Action::Notify(c) if c.op() == Some(op)));
        assert_eq!(completions.count(), 1, "one completion for {op:?}: {notified:?}");
        let completed =
            spans.iter().filter(|e| e.op == Some(op.0) && e.event == SpanEvent::Completed);
        assert_eq!(completed.count(), 1, "one Completed span for {op:?}");
        assert_eq!(w.core.op_phase(op), Some(Phase::Closed), "simple op: Running → Closed");
    }
}

/// Retiring an op drops its own sub-ops, not a scan of every live op's:
/// on a one-shard core, 2 000 `Stats` ops that complete and retire beside
/// N open ones leave exactly those N sub-ops routable, and cost little
/// more at N = 50 000 than at N = 0 (min of 3 rounds, at most 10x).
#[test]
fn retiring_an_op_does_not_scan_the_other_ops_sub_ops() {
    const RETIRED: usize = 2_000;
    let round = |open: usize| {
        let core = ControllerCore::new(ControllerConfig::default());
        let (mb, mut dummy) = (core.register_mb(), DummyMb::new());
        let stats = Request::Stats { mb, key: HeaderFieldList::any() };
        let now = SimTime(0);
        for _ in 0..open {
            // Never answered: these ops stay open.
            core.submit(stats.clone(), now, &mut Vec::new());
        }
        let mut fastest = std::time::Duration::MAX;
        for _ in 0..3 {
            let started = std::time::Instant::now();
            let mut done = Vec::new();
            for _ in 0..RETIRED {
                let mut out = Vec::new();
                core.submit(stats.clone(), now, &mut out);
                drive(&core, out, now, &mut done, |_, m| handle_southbound(&mut dummy, m, now));
            }
            fastest = fastest.min(started.elapsed());
            assert_eq!(done.len(), RETIRED, "every answered op completes");
        }
        let tables = core.table_sizes();
        assert_eq!((tables.ops, tables.sub_ops), (open, open), "N = {open}");
        fastest
    };
    let (alone, beside) = (round(0), round(50_000));
    println!("{RETIRED} retirements: {alone:?} at N = 0, {beside:?} at N = 50 000");
    assert!(beside <= alone * 10, "{beside:?} beside 50 000 open ops vs {alone:?} alone");
}

#[test]
fn transfer_ledger_stays_bounded_by_window() {
    // With a transfer window of 4, a 120-flow move (30 runs of 4) must
    // never have more than 4 unacked puts in flight, and the acked seqs
    // above the lowest unacked one must stay within the window too — at
    // every step, not just at the end. FIFO delivery keeps acks in seq
    // order, the common wire case.
    use std::collections::VecDeque;
    const W: u32 = 4;
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.transfer_window = W);
    seed_monitor(&mut w.a, 120);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let mut actions: VecDeque<Action> = out.into();
    while let Some(act) = actions.pop_front() {
        match act {
            Action::Notify(c) => w.completions.push(c),
            Action::ToMb(mb, msg) => {
                let replies = if mb == w.a_id {
                    handle_southbound(&mut w.a, msg, w.now)
                } else {
                    handle_southbound(&mut w.b, msg, w.now)
                };
                for r in replies {
                    let mut o = Vec::new();
                    w.core.handle_mb_message(mb, r, w.now, &mut o);
                    actions.extend(o);
                    let stats = w.core.transfer_ledger_stats(op);
                    assert!(
                        stats.puts_in_flight <= W as usize,
                        "ledger exceeded window mid-transfer: {}",
                        stats.puts_in_flight
                    );
                    assert!(
                        stats.ack_set_size <= W as usize,
                        "ack set beyond the window: {}",
                        stats.ack_set_size
                    );
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 120 } if *o == op)));
    let stats = w.core.transfer_ledger_stats(op);
    assert_eq!(stats.in_flight_peak, W as usize, "window was exercised and respected");
    assert_eq!(stats.puts_in_flight, 0);
    assert_eq!(stats.puts_queued, 0);
    assert_eq!(stats.ack_set_size, 0, "no ack left above an unacked put");
    assert_eq!(stats.bodies_in_flight, 0, "every needed body was streamed and acked");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        120u64.div_ceil(wire::run_len(120) as u64),
        "every run's reference resolved as a hit or a miss"
    );
}

/// A repeated move against one destination content store answers every
/// reference from the cache: over 1 KiB chunk bodies, the bytes the
/// controller puts on the destination's wire fall to under a tenth of
/// the cold pass's.
#[test]
fn ack_set_size_counts_the_acks_that_overtook_the_lowest_unacked_put() {
    // The sibling of `transfer_ledger_stays_bounded_by_window` with each
    // window's acks delivered in reverse: the ledger's derived ack-set
    // size must equal the acked seqs above the lowest unacked seq,
    // counted here from the acks the test itself delivered.
    use std::collections::{BTreeSet, VecDeque};
    const W: u32 = 4;
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.transfer_window = W);
    seed_monitor(&mut w.a, 120);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let mut actions: VecDeque<Action> = out.into();
    // Put sub-ops in admission order, so a sub-op's index is its seq.
    let mut seqs: Vec<OpId> = Vec::new();
    let mut held: Vec<Message> = Vec::new();
    let mut acked = BTreeSet::new();
    let mut largest = 0;
    loop {
        let in_flight = w.core.transfer_ledger_stats(op).puts_in_flight;
        if !held.is_empty() && (held.len() == in_flight || actions.is_empty()) {
            for ack in held.drain(..).rev() {
                let sub = ack.op_id().expect("an ack names its sub-op");
                acked.insert(seqs.iter().position(|s| *s == sub).expect("an admitted put"));
                let mut o = Vec::new();
                w.core.handle_mb_message(w.b_id, ack, w.now, &mut o);
                actions.extend(o);
                let base = (0..).find(|s| !acked.contains(s)).expect("a seq is unacked");
                let size = w.core.transfer_ledger_stats(op).ack_set_size;
                assert_eq!(size, acked.range(base..).count(), "acked {acked:?}");
                assert!(size <= W as usize, "ack set beyond the window: {size}");
                largest = largest.max(size);
            }
            continue;
        }
        let Some(act) = actions.pop_front() else { break };
        match act {
            Action::Notify(c) => w.completions.push(c),
            Action::ToMb(mb, msg) => {
                let replies = if mb == w.a_id {
                    handle_southbound(&mut w.a, msg, w.now)
                } else {
                    let sub = msg.op_id().expect("a put names its sub-op");
                    if !seqs.contains(&sub) {
                        seqs.push(sub);
                    }
                    handle_southbound(&mut w.b, msg, w.now)
                };
                for r in replies {
                    if matches!(r, Message::PutAck { .. }) {
                        held.push(r);
                        continue;
                    }
                    let mut o = Vec::new();
                    w.core.handle_mb_message(mb, r, w.now, &mut o);
                    actions.extend(o);
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 120 } if *o == op)));
    assert!(largest > 0, "no ack ever overtook another");
    assert_eq!(w.core.transfer_ledger_stats(op).ack_set_size, 0);
}

#[test]
fn an_ack_for_a_put_still_queued_behind_the_window_is_ignored() {
    // Window 1: the first run's reference is in flight and the next
    // run's waits in the queue under the next sub-op id — one flipped
    // bit away. An ack naming that queued put, arriving before the first
    // reference lands, is not the destination's and must change nothing:
    // accepted, it retires the queued put's sub-op, so once that put is
    // sent its need and ack route nowhere and the move can only time out.
    use std::collections::VecDeque;
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.transfer_window = 1);
    seed_monitor(&mut w.a, 40);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let mut actions: VecDeque<Action> = out.into();
    let mut forged = false;
    while let Some(act) = actions.pop_front() {
        match act {
            Action::Notify(c) => w.completions.push(c),
            Action::ToMb(mb, msg) => {
                if mb == w.b_id && !forged {
                    forged = true;
                    let first = msg.op_id().expect("a put names its sub-op");
                    assert!(matches!(msg, Message::ChunkRef { .. }), "{msg:?}");
                    let ack = Message::PutAck { op: OpId(first.0 + 1), key: None };
                    let mut o = Vec::new();
                    w.core.handle_mb_message(w.b_id, ack, w.now, &mut o);
                    assert!(o.is_empty(), "the forged ack acted: {o:?}");
                    assert_eq!(w.core.transfer_ledger_stats(op).puts_in_flight, 1);
                }
                let replies = if mb == w.a_id {
                    handle_southbound(&mut w.a, msg, w.now)
                } else {
                    handle_southbound(&mut w.b, msg, w.now)
                };
                for r in replies {
                    let mut o = Vec::new();
                    w.core.handle_mb_message(mb, r, w.now, &mut o);
                    actions.extend(o);
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
    assert!(forged, "no put reached the destination");
    assert!(
        w.completions
            .iter()
            .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 40 } if *o == op)),
        "{:?}",
        w.completions
    );
    assert_eq!(w.b.perflow_entries(), 40);
}

#[test]
fn warm_move_puts_under_a_tenth_of_the_cold_bytes_on_the_destination_wire() {
    const FLOWS: usize = 64;
    let vendor = VendorKey::derive("dummy");
    let store: Arc<dyn ContentStore> = Arc::new(MemoryContentStore::new());
    let pass = || {
        // A fresh source seals the same state to the same bytes, the
        // way a repeated or resumed move re-offers chunks the
        // destination already holds.
        let mut src = DummyMb::new();
        for i in 0..FLOWS {
            let key = HeaderFieldList::exact(DummyMb::flow_for(i));
            let body = EncryptedChunk::seal(&vendor, 0, &[i as u8; 1024]);
            src.put_report_perflow(StateChunk::new(key, body)).unwrap();
        }
        let mut w = World::new(src, DummyMb::new());
        let mut dst_log = SharedPutLog::with_store(Arc::clone(&store));
        let mut out = Vec::new();
        let op = w.core.submit(w.move_all(), w.now, &mut out);
        let mut bytes_to_dst = 0;
        drive(&w.core, out, w.now, &mut w.completions, |mb, msg| {
            if mb == w.a_id {
                handle_southbound(&mut w.a, msg, w.now)
            } else {
                bytes_to_dst += wire::encoded_len(&msg);
                handle_southbound_logged(&mut w.b, &mut dst_log, msg, w.now)
            }
        });
        assert!(w.completions.iter().any(
            |c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: FLOWS } if *o == op)
        ));
        assert_eq!(w.b.perflow_entries(), FLOWS);
        bytes_to_dst
    };
    let cold = pass();
    let warm = pass();
    assert!(cold > FLOWS * 1024, "the cold pass streams every body: {cold} bytes");
    assert!(warm * 10 <= cold, "warm pass sent {warm} bytes, over 10% of the cold pass's {cold}");
}

/// Flows inside `10.b.0.0/16` on both sides: disjoint `b`s are disjoint
/// flowspaces even direction-insensitively.
fn subnet(b: u8) -> HeaderFieldList {
    let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
    HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
}

const PAIR_FLOWS: usize = 40;

/// A (source, destination) monitor pair: the source holds
/// [`PAIR_FLOWS`] flows inside `subnet(b)`, the destination none.
fn monitor_pair(b: u8) -> [Monitor; 2] {
    let mut src = Monitor::new();
    let mut fx = Effects::normal();
    for j in 0..PAIR_FLOWS as u16 {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, b, 0, j as u8 + 1),
            1000 + j,
            Ipv4Addr::new(10, b, 255, 1),
            80,
        );
        src.process_packet(SimTime(0), &Packet::new(u64::from(j), key, vec![0u8; 64]), &mut fx);
    }
    [src, Monitor::new()]
}

/// Model check (the message count `ControllerCosts` prices into a
/// per-shard makespan): four disjoint moves — disjoint MB pairs,
/// disjoint subnets — spread their southbound messages over four
/// shards instead of queueing on one, and the total is the same
/// workload at either shard count.
#[test]
fn four_disjoint_moves_spread_their_messages_over_four_shards() {
    let handled_per_shard = |shards: u32| {
        let core = ControllerCore::new(ControllerConfig { shards, ..ControllerConfig::default() });
        let ids: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        // Pair i moves the first subnet that hash-places it on shard i
        // of 4, so the spread is pinned rather than left to hash luck.
        let subnets: Vec<u8> = (0..4)
            .map(|i| {
                (0..=255u8)
                    .find(|&b| {
                        ShardRouter::hash_placement(4, &subnet(b), ids[2 * i], ids[2 * i + 1]) == i
                    })
                    .expect("some subnet places on every shard")
            })
            .collect();
        let mut mbs: Vec<Monitor> = subnets.iter().flat_map(|&b| monitor_pair(b)).collect();
        let mut out = Vec::new();
        for (pair, &b) in ids.chunks(2).zip(&subnets) {
            core.submit(
                Request::Move { src: pair[0], dst: pair[1], key: subnet(b) },
                SimTime(0),
                &mut out,
            );
        }
        let mut per_shard = vec![0u64; shards as usize];
        let mut completions = Vec::new();
        drive(&core, out, SimTime(0), &mut completions, |mb, msg| {
            let at = ids.iter().position(|&id| id == mb).expect("a registered MB");
            let replies = handle_southbound(&mut mbs[at], msg, SimTime(0));
            for r in &replies {
                per_shard[core.shard_of_message(mb, r)] += 1;
            }
            replies
        });
        let moved = |c: &&Completion| {
            matches!(c, Completion::MoveComplete { chunks_moved: PAIR_FLOWS, .. })
        };
        assert_eq!(completions.iter().filter(moved).count(), 4, "{completions:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), core.messages_handled());
        per_shard
    };
    let one = handled_per_shard(1);
    let four = handled_per_shard(4);
    let total: u64 = four.iter().sum();
    assert_eq!(one, [total], "both shard counts broker the identical workload");
    let busiest = four.iter().copied().max().unwrap();
    assert!(busiest <= total / 3, "busiest of 4 shards handled {busiest} of {total}: {four:?}");
}

/// Model check (the old "orchestration tax"): a 4-hop chain brokers
/// four single hops' worth of southbound messages — the chain layer
/// re-streams nothing and its commit adds at most 5%.
#[test]
fn four_hop_chain_brokers_four_single_hops_of_messages() {
    let brokered = |hops: usize| {
        let core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let ids: Vec<MbId> = (0..2 * hops).map(|_| core.register_mb()).collect();
        let mut mbs: Vec<Monitor> = (0..hops).flat_map(|_| monitor_pair(0)).collect();
        let spec = ChainSpec::new(
            HeaderFieldList::any(),
            ids.chunks(2).map(|p| ChainHop { src: p[0], dst: p[1] }).collect(),
        );
        let mut out = Vec::new();
        let chain = core.submit(Request::ChainMove(spec), SimTime(0), &mut out);
        let mut completions = Vec::new();
        drive(&core, out, SimTime(0), &mut completions, |mb, msg| {
            let at = ids.iter().position(|&id| id == mb).expect("a registered MB");
            handle_southbound(&mut mbs[at], msg, SimTime(0))
        });
        let moved = hops * PAIR_FLOWS;
        assert!(
            completions.iter().any(|c| matches!(
                c,
                Completion::ChainComplete { op, hops: h, chunks_moved }
                    if *op == chain && *h == hops && *chunks_moved == moved
            )),
            "{hops}-hop chain must commit every hop's chunks once: {completions:?}"
        );
        assert_eq!(core.open_chains(), 0, "chain must settle");
        core.messages_handled()
    };
    let one = brokered(1);
    let four = brokered(4);
    assert!(four >= 4 * one, "4 hops brokered {four} messages, one hop {one}");
    assert!((four - 4 * one) * 20 <= 4 * one, "4 hops brokered {four} messages, one hop {one}");
}

#[test]
fn end_op_skips_quiescence_wait() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 4);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    w.pump(out);
    assert_eq!(w.a.perflow_entries(), 4);
    let mut out = Vec::new();
    w.core.end_op(op, w.now, &mut out);
    w.pump(out);
    assert_eq!(w.a.perflow_entries(), 0, "explicit end_op deletes immediately");
    // Idempotent.
    let mut out = Vec::new();
    w.core.end_op(op, w.now, &mut out);
    assert!(out.is_empty());
    let _ = OpId(0);
}

// ---- the op lifecycle (DESIGN §10): one `Phase` per op ----------------

/// `Completion::Failed`s delivered for `op` so far.
fn failures<A: Middlebox, B: Middlebox>(w: &World<A, B>, op: OpId) -> Vec<&Error> {
    w.completions
        .iter()
        .filter_map(|c| match c {
            Completion::Failed { op: o, error, .. } if *o == op => Some(error),
            _ => None,
        })
        .collect()
}

#[test]
fn phase_rule_admits_exactly_the_documented_edges() {
    use Phase::*;
    const ALL: [Phase; 5] = [Deferred, Running, Suspended, Completed, Closed];
    const LEGAL: [(Phase, Phase); 9] = [
        (Deferred, Running),
        (Deferred, Closed),
        (Running, Suspended),
        (Running, Completed),
        (Running, Closed),
        (Suspended, Running),
        (Suspended, Completed),
        (Suspended, Closed),
        (Completed, Closed),
    ];
    for from in ALL {
        for to in ALL {
            assert_eq!(from.can_become(to), LEGAL.contains(&(from, to)), "{from:?} → {to:?}");
        }
    }
}

#[test]
fn move_walks_running_completed_closed() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 6);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));
    w.pump(out);
    assert!(w.completions.iter().any(|c| matches!(c, Completion::MoveComplete { .. })));
    assert_eq!(w.core.op_phase(op), Some(Phase::Completed), "awaiting quiescence");
    // A rejection arriving now is too late to abort: the outcome is
    // decided and was reported.
    let late = Message::ErrorMsg { op: OpId(op.0 + 1), error: Error::OpFailed("late".into()) };
    let mut out = Vec::new();
    w.core.handle_mb_message(w.a_id, late, w.now, &mut out);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(w.core.op_phase(op), Some(Phase::Completed));
    w.quiesce();
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    assert!(failures(&w, op).is_empty());
    assert_eq!(w.core.op_phase(OpId(op.0 + 1_000)), None, "never issued");
}

#[test]
fn simple_op_walks_running_closed_and_fails_fast_closed() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    let mut out = Vec::new();
    let op = w.core.submit(
        Request::ReadConfig { mb: w.a_id, key: HierarchicalKey::parse("*") },
        w.now,
        &mut out,
    );
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));
    w.pump(out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    // Validation failure: born closed, one typed failure.
    let mut out = Vec::new();
    let bad = w.core.submit(
        Request::Stats { mb: MbId(99), key: HeaderFieldList::any() },
        w.now,
        &mut out,
    );
    w.pump(out);
    assert_eq!(w.core.op_phase(bad), Some(Phase::Closed));
    assert_eq!(failures(&w, bad), [&Error::UnknownMb(MbId(99))]);
}

#[test]
fn running_transfer_without_resume_budget_aborts_closed_once() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 4);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let mut out = Vec::new();
    w.core.mark_unreachable(w.b_id, w.now, &mut out);
    // Reported again (the embedding may) and ticked past the deadline:
    // a closed op fails exactly once.
    w.core.mark_unreachable(w.b_id, w.now, &mut out);
    w.core.tick(SimTime(60_000_000_000), &mut out);
    w.pump(out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    assert_eq!(failures(&w, op), [&Error::MbUnreachable(w.b_id)]);
}

#[test]
fn unreachable_transfer_suspends_resumes_and_the_deadline_closes_it() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.max_transfer_resumes = 2);
    seed_monitor(&mut w.a, 4);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    out.clear(); // the gets are lost with the link
    w.core.mark_unreachable(w.b_id, w.now, &mut out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Suspended));
    assert!(out.is_empty(), "a parked op sends nothing: {out:?}");
    w.core.mark_reachable(w.b_id, w.now, &mut out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));
    assert_eq!(out.len(), 2, "resume re-sends both gets: {out:?}");
    out.clear();
    // Parked again, and this time the endpoint never returns.
    w.core.mark_unreachable(w.a_id, w.now, &mut out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Suspended));
    w.core.tick(SimTime(60_000_000_000), &mut out);
    w.pump(out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    assert_eq!(failures(&w, op), [&Error::Timeout { op }]);
}

#[test]
fn transfer_parked_on_its_source_completes_when_the_destination_acks() {
    // The one edge out of `Suspended` that is not a resume or an abort:
    // the source goes down after streaming everything, the live
    // destination acks the puts already in flight.
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.max_transfer_resumes = 1);
    seed_monitor(&mut w.a, 5);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    // Serve the source; hold everything addressed to the destination.
    let mut held = Vec::new();
    while let Some(act) = out.pop() {
        match act {
            Action::ToMb(mb, msg) if mb == w.a_id => {
                for r in handle_southbound(&mut w.a, msg, w.now) {
                    w.core.handle_mb_message(mb, r, w.now, &mut out);
                }
            }
            other => held.push(other),
        }
    }
    assert_eq!(w.core.op_phase(op), Some(Phase::Running));
    let mut out = Vec::new();
    w.core.mark_unreachable(w.a_id, w.now, &mut out);
    assert_eq!(w.core.op_phase(op), Some(Phase::Suspended));
    w.pump(held);
    assert_eq!(w.core.op_phase(op), Some(Phase::Completed));
    assert!(w
        .completions
        .iter()
        .any(|c| matches!(c, Completion::MoveComplete { op: o, chunks_moved: 5 } if *o == op)));
    assert_eq!(w.b.perflow_entries(), 5);
}

#[test]
fn deferred_transfer_runs_on_release_or_closes_on_its_deadline() {
    // Two moves on different shards and a wildcard clone bridging
    // them: the clone defers behind both.
    let deferred_clone = |clone_deadline: SimDuration| {
        let mut core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let place =
            |i: usize| ShardRouter::hash_placement(4, &subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("subnets spread over more than one shard");
        let mut out = Vec::new();
        for k in [i, j] {
            core.submit(
                Request::Move { src: mbs[2 * k], dst: mbs[2 * k + 1], key: subnet(k as u8) },
                SimTime(0),
                &mut out,
            );
        }
        core.update_config(|c| c.op_deadline = clone_deadline);
        out.clear();
        let clone = core.submit(
            Request::Clone { src: mbs[2 * i + 1], dst: mbs[2 * j] },
            SimTime(0),
            &mut out,
        );
        assert_eq!(core.op_phase(clone), Some(Phase::Deferred));
        assert!(out.is_empty(), "a deferred op sends nothing: {out:?}");
        (core, clone)
    };
    let failed = |out: &[Action], op: OpId| {
        out.iter()
            .filter(|a| matches!(a, Action::Notify(Completion::Failed { op: o, .. }) if *o == op))
            .count()
    };

    // Its own deadline (1 s) falls before the blockers' (10 s): closed
    // from `Deferred`, one timeout, nothing ever sent.
    let (core, clone) = deferred_clone(SimDuration::from_secs(1));
    let mut out = Vec::new();
    core.tick(SimTime(2_000_000_000), &mut out);
    assert_eq!(core.op_phase(clone), Some(Phase::Closed));
    assert_eq!(failed(&out, clone), 1, "{out:?}");
    assert!(out.iter().all(|a| matches!(a, Action::Notify(_))), "{out:?}");
    core.tick(SimTime(30_000_000_000), &mut out);
    assert_eq!(failed(&out, clone), 1, "a closed op fails once: {out:?}");

    // The blockers time out first (10 s against 30 s): released.
    let (core, clone) = deferred_clone(SimDuration::from_secs(30));
    let mut out = Vec::new();
    core.tick(SimTime(11_000_000_000), &mut out);
    assert_eq!(core.op_phase(clone), Some(Phase::Running));
    assert_eq!(failed(&out, clone), 0, "{out:?}");
    assert!(out.iter().any(|a| matches!(a, Action::ToMb(_, Message::GetSupportShared { .. }))));
}

#[test]
fn end_op_before_completion_closes_the_op_silently() {
    // Pinned, not endorsed: `end_op` on a transfer still in progress
    // closes it on the spot — source deletes and EndSync go out, the
    // chunks then streaming are dropped at the controller, and the
    // application hears nothing further about the op (no completion,
    // no failure). Applications call it only after the completion.
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 4);
    let mut out = Vec::new();
    let op = w.core.submit(w.move_all(), w.now, &mut out);
    let mut ended = Vec::new();
    w.core.end_op(op, w.now, &mut ended);
    assert_eq!(w.core.op_phase(op), Some(Phase::Closed));
    // Gets first (they were sent first), then the deletes: `pump` pops
    // from the back.
    ended.extend(out);
    w.pump(ended);
    w.core.tick(SimTime(60_000_000_000), &mut Vec::new());
    assert!(w.completions.iter().all(|c| c.op() != Some(op)), "{:?}", w.completions);
    assert_eq!((w.a.perflow_entries(), w.b.perflow_entries()), (0, 0));
    assert_eq!(w.core.open_ops(), 0);
}

// ---- transfer runs (DESIGN §13 "Runs") --------------------------------

/// Pinned: the exchange a caller feeding lone chunks sees is the one it saw
/// before runs — the benchmark's two-thread move drives exactly this.
/// `Batch`es of 16 single `Chunk`s go in with the `GetAck` counts; each
/// chunk earns one run-of-one `ChunkRef`, answered `ChunkNeed` →
/// `ChunkBody` → `PutAck { key: Some(key) }`; the move completes with
/// every flow, the window is never exceeded, and nothing stays open.
#[test]
fn single_chunk_drive_sees_the_pinned_exchange() {
    use openmb_core::ShardedController;
    use std::collections::HashSet;
    const FLOWS: usize = 2_000;
    const WINDOW: u32 = 64;
    const FRAME: usize = 16;
    const BURST: usize = 4 * WINDOW as usize;
    const NOW: SimTime = SimTime(0);

    let config = ControllerConfig { shards: 2, transfer_window: WINDOW, ..Default::default() };
    let ctrl = ShardedController::new(config);
    let (src, dst) = (ctrl.register_mb(), ctrl.register_mb());
    let vendor = VendorKey::derive("prads");
    let chunks: Vec<StateChunk> = (0..FLOWS)
        .map(|j| {
            let flow = FlowKey::tcp(
                Ipv4Addr::new(10, 0, (j >> 8) as u8, j as u8),
                1000,
                Ipv4Addr::new(10, 0, 255, 1),
                80,
            );
            let body = EncryptedChunk::seal(&vendor, j as u64, &[j as u8; 96]);
            StateChunk::new(HeaderFieldList::exact(flow), body)
        })
        .collect();

    let mut out = Vec::new();
    let op = ctrl.submit(Request::Move { src, dst, key: HeaderFieldList::any() }, NOW, &mut out);
    let get = |want: fn(&Message) -> bool| {
        out.iter()
            .find_map(|a| match a {
                Action::ToMb(_, m) if want(m) => m.op_id(),
                _ => None,
            })
            .expect("both gets issued")
    };
    let gs = get(|m| matches!(m, Message::GetSupportPerflow { .. }));
    let gr = get(|m| matches!(m, Message::GetReportPerflow { .. }));

    let mut out = ctrl.handle_mb_message(src, Message::GetAck { op: gs, count: 0 }, NOW);
    let (mut refs, mut bodies, mut in_flight, mut peak) = (HashSet::new(), 0, 0usize, 0);
    let mut moved = None;
    let mut stored = HashSet::new();
    let mut sent = 0;
    let mut it = chunks.iter().cloned();
    while sent < FLOWS {
        let msgs: Vec<Message> =
            it.by_ref().take(FRAME).map(|chunk| Message::Chunk { op: gr, chunk }).collect();
        sent += msgs.len();
        out.extend(ctrl.handle_mb_message(src, Message::Batch { msgs }, NOW));
        if sent % BURST != 0 && sent != FLOWS {
            continue;
        }
        if sent == FLOWS {
            let ack = Message::GetAck { op: gr, count: FLOWS as u32 };
            out.extend(ctrl.handle_mb_message(src, ack, NOW));
        }
        loop {
            let mut replies = Vec::new();
            for a in out.drain(..) {
                match a {
                    Action::ToMb(to, Message::ChunkRef { op, key, hash, rest, .. }) => {
                        assert_eq!(to, dst);
                        assert!(rest.is_empty(), "a lone chunk is a run of one");
                        assert!(refs.insert(key), "one reference per chunk: {key:?}");
                        in_flight += 1;
                        peak = peak.max(in_flight);
                        assert!(!stored.contains(&hash), "every body is new");
                        replies.push(Message::ChunkNeed { op, hash });
                    }
                    Action::ToMb(to, Message::ChunkBody { op, key, hash, rest, .. }) => {
                        assert_eq!(to, dst);
                        assert!(rest.is_empty(), "a run of one streams one body");
                        bodies += 1;
                        stored.insert(hash);
                        in_flight -= 1;
                        replies.push(Message::PutAck { op, key: Some(key) });
                    }
                    Action::Notify(Completion::MoveComplete { chunks_moved, .. }) => {
                        moved = Some(chunks_moved)
                    }
                    other => panic!("unexpected action {other:?}"),
                }
            }
            if replies.is_empty() {
                break;
            }
            out = ctrl.handle_mb_message(dst, Message::Batch { msgs: replies }, NOW);
        }
    }
    assert_eq!(moved, Some(FLOWS));
    assert_eq!((refs.len(), bodies), (FLOWS, FLOWS));
    assert!(peak <= WINDOW as usize, "window exceeded: {peak}");
    assert_eq!(ctrl.chunks_moved(op), FLOWS);

    let later = SimTime(ctrl.config().quiesce_after.0 + 1);
    for a in ctrl.tick(later) {
        if let Action::ToMb(
            mb,
            Message::DelSupportPerflow { op, .. } | Message::DelReportPerflow { op, .. },
        ) = a
        {
            ctrl.handle_mb_message(mb, Message::OpAck { op }, later);
        }
    }
    assert_eq!(ctrl.open_ops(), 0);
}

/// Events for a flow wait while the run carrying its key is unacked, in
/// either direction, and — while the get is open — while no run has
/// carried it yet; they go straight through once the run is acked,
/// whether the op's keys are exact flows (the set-probe path) or
/// wildcards (the walk). One ack releases every event its run
/// unblocks, in arrival order; completion releases the rest.
#[test]
fn events_wait_for_their_runs_ack_for_exact_and_wildcard_keys() {
    fn flow(i: u16) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1000 + i, Ipv4Addr::new(1, 2, 3, 4), 8000 + i)
    }
    fn exact(i: u16) -> HeaderFieldList {
        HeaderFieldList::exact(flow(i))
    }
    fn wildcard(i: u16) -> HeaderFieldList {
        HeaderFieldList { tp_dst: Some(8000 + i), ..HeaderFieldList::any() }
    }
    for key_of in [exact as fn(u16) -> HeaderFieldList, wildcard] {
        let core = ControllerCore::new(ControllerConfig {
            buffer_events: true,
            content_cache: false,
            ..ControllerConfig::default()
        });
        let (src, dst) = (core.register_mb(), core.register_mb());
        let now = SimTime(0);
        let mut out = Vec::new();
        let op =
            core.submit(Request::Move { src, dst, key: HeaderFieldList::any() }, now, &mut out);
        let gets: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(
                    _,
                    m @ (Message::GetSupportPerflow { .. } | Message::GetReportPerflow { .. }),
                ) => m.op_id(),
                _ => None,
            })
            .collect();
        let (gs, gr) = (gets[0], gets[1]);
        let vendor = VendorKey::derive("t");
        let record = |i: u16| StateChunk::new(key_of(i), EncryptedChunk::seal(&vendor, 0, b"x"));
        let mut out = Vec::new();
        core.handle_mb_message(src, Message::GetAck { op: gs, count: 0 }, now, &mut out);
        let run =
            Message::ChunkRun { op: gr, chunk: record(0), rest: (1..4).map(record).collect() };
        core.handle_mb_message(src, run, now, &mut out);
        let put = out
            .iter()
            .find_map(|a| match a {
                Action::ToMb(_, Message::PutReportPerflow { op, rest, .. }) => {
                    assert_eq!(rest.len(), 3, "one put carries the run");
                    Some(*op)
                }
                _ => None,
            })
            .expect("the run's put");

        let event = |id: u64, key: FlowKey| Message::EventMsg {
            event: wire::Event::Reprocess { op, key, packet: Packet::new(id, key, vec![]) },
        };
        let replayed = |out: &[Action]| -> Vec<u64> {
            out.iter()
                .filter_map(|a| match a {
                    Action::ToMb(to, Message::ReprocessPacket { packet, .. }) if *to == dst => {
                        Some(packet.id)
                    }
                    _ => None,
                })
                .collect()
        };
        let mut out = Vec::new();
        core.handle_mb_message(src, event(1, flow(2)), now, &mut out);
        core.handle_mb_message(src, event(2, flow(0).reversed()), now, &mut out);
        core.handle_mb_message(src, event(3, flow(9)), now, &mut out);
        core.handle_mb_message(src, event(4, flow(3)), now, &mut out);
        assert_eq!(replayed(&out), [], "unacked, or not streamed while the get is open");
        let mut out = Vec::new();
        core.handle_mb_message(
            dst,
            Message::PutAck { op: put, key: Some(key_of(0)) },
            now,
            &mut out,
        );
        assert_eq!(replayed(&out), [1, 2, 4], "one ack releases the run's events in order");
        let mut out = Vec::new();
        core.handle_mb_message(src, event(5, flow(1).reversed()), now, &mut out);
        assert_eq!(replayed(&out), [5], "an acked flow's event goes straight through");
        let mut out = Vec::new();
        core.handle_mb_message(src, Message::GetAck { op: gr, count: 4 }, now, &mut out);
        assert_eq!(replayed(&out), [3], "the get closed with every put acked");
        let mut out = Vec::new();
        core.handle_mb_message(src, event(6, flow(9)), now, &mut out);
        assert_eq!(replayed(&out), [6], "a flow in no run goes through once the get is done");
        assert_eq!(core.events_forwarded(op), 6);
    }
}
