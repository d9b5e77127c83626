//! Direct tests of the controller state machine: drive
//! [`ControllerCore`] against real middlebox logic through the pure
//! southbound dispatcher, no simulator in between.

use openmb_core::controller::{Action, Completion, ControllerConfig, ControllerCore};
use openmb_core::tcp::handle_southbound;
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{Ips, Monitor, Proxy};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::Message;
use openmb_types::{FlowKey, HeaderFieldList, MbId, OpId, Packet};
use std::net::Ipv4Addr;

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
            compress_transfers: false,
            buffer_events: true,
            ..ControllerConfig::default()
        });
        let a_id = core.register_mb();
        let b_id = core.register_mb();
        World { core, a, b, a_id, b_id, now: SimTime(0), completions: Vec::new() }
    }

    fn pump(&mut self, mut actions: Vec<Action>) {
        while let Some(act) = actions.pop() {
            match act {
                Action::Notify(c) => self.completions.push(c),
                Action::ToMb(mb, msg) => {
                    let replies = if mb == self.a_id {
                        handle_southbound(&mut self.a, msg, self.now)
                    } else {
                        handle_southbound(&mut self.b, msg, self.now)
                    };
                    for r in replies {
                        let mut out = Vec::new();
                        self.core.handle_mb_message(mb, r, self.now, &mut out);
                        actions.extend(out);
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
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
    let op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
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
    let op = w.core.clone_support(w.a_id, w.b_id, w.now, &mut out);
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
    let op = w.core.merge_internal(w.a_id, w.b_id, w.now, &mut out);
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
    let op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
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
    let _op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
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
    let op = w.core.read_config(w.a_id, openmb_types::HierarchicalKey::parse("*"), w.now, &mut out);
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
        w.core.write_config(w.b_id, k, v, w.now, &mut out);
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
    let sop = w.core.stats(w.a_id, HeaderFieldList::any(), w.now, &mut out);
    let eop = w.core.enable_events(w.a_id, openmb_types::wire::EventFilter::all(), w.now, &mut out);
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
    let op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
    // Hand-rolled pump that keeps a copy of every PutAck the destination
    // sends, so one can be replayed after the op completes.
    let mut acks: Vec<Message> = Vec::new();
    let mut actions = out;
    while let Some(act) = actions.pop() {
        match act {
            Action::Notify(c) => w.completions.push(c),
            Action::ToMb(mb, msg) => {
                let replies = if mb == w.a_id {
                    handle_southbound(&mut w.a, msg, w.now)
                } else {
                    handle_southbound(&mut w.b, msg, w.now)
                };
                for r in replies {
                    if matches!(r, Message::PutAck { .. }) {
                        acks.push(r.clone());
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
        .any(|c| matches!(c, Completion::MoveComplete { op: o, .. } if *o == op)));
    let n_completions = w.completions.len();
    let dst_entries = w.b.perflow_entries();
    let dup = acks.last().expect("move produced puts").clone();

    // Duplicate while the op still exists (completed, pre-quiescence).
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, dup.clone(), w.now, &mut out);
    w.pump(out);
    assert_eq!(w.completions.len(), n_completions, "no completion resurrected");

    // And again after quiescence has deleted the op entirely.
    w.quiesce();
    let mut out = Vec::new();
    w.core.handle_mb_message(w.b_id, dup, w.now, &mut out);
    w.pump(out);
    assert_eq!(w.completions.len(), n_completions);
    assert_eq!(w.a.perflow_entries(), 0, "quiescence delete still happened");
    assert_eq!(w.b.perflow_entries(), dst_entries);
    assert_eq!(w.core.open_ops(), 0);
}

#[test]
fn transfer_ledger_stays_bounded_by_window() {
    // With a transfer window of 4, a 120-chunk move must never have more
    // than 4 unacked puts in flight, and the watermark-compacted ack set
    // must stay within the window too — at every step, not just at the
    // end. FIFO delivery keeps acks in seq order, the common wire case.
    use std::collections::VecDeque;
    const W: u32 = 4;
    let mut w = World::new(Monitor::new(), Monitor::new());
    w.core.update_config(|c| c.transfer_window = W);
    seed_monitor(&mut w.a, 120);
    let mut out = Vec::new();
    let op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
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
                        "ack set not compacted: {}",
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
    assert_eq!(stats.ack_set_size, 0, "all acks drained into the watermark");
    assert_eq!(stats.bodies_in_flight, 0, "every needed body was streamed and acked");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        120,
        "every reference resolved as a hit or a miss"
    );
}

#[test]
fn end_op_skips_quiescence_wait() {
    let mut w = World::new(Monitor::new(), Monitor::new());
    seed_monitor(&mut w.a, 4);
    let mut out = Vec::new();
    let op = w.core.move_internal(w.a_id, w.b_id, HeaderFieldList::any(), w.now, &mut out);
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
