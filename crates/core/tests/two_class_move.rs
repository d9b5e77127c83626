//! A flow whose state lives in both per-flow classes moves in two puts,
//! one per class. An event for it must wait until *both* are acked: if
//! the support put's ack released it, the replayed packet would land
//! at the destination before the report put, and the report put would
//! overwrite what the replay did (§4.2.1). That holds whether the event
//! is raised before the first ack or after it. No in-tree middlebox
//! keeps both classes per flow, so this file brings its own.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use openmb_core::controller::{Action, Completion, ControllerConfig, ControllerCore};
use openmb_core::Request;
use openmb_mb::{handle_southbound, state, CostModel, Effects, Middlebox, Record};
use openmb_mb::{Sealer, SyncTracker};
use openmb_simnet::SimTime;
use openmb_types::wire::Message;
use openmb_types::{
    record, ConfigTree, ConfigValue, Error, FlowKey, HeaderFieldList, HierarchicalKey, MbId, OpId,
    Packet, Result, StateChunk, StateStats,
};

/// A packet count.
struct Seen(u64);

record! { Seen { 0 } }

impl Record for Seen {}

/// Counts each flow's packets twice: once as supporting state, once as
/// reporting state.
struct TwoClass {
    config: ConfigTree,
    support: HashMap<FlowKey, Seen>,
    report: HashMap<FlowKey, Seen>,
    sealer: Sealer,
    sync: SyncTracker,
}

impl TwoClass {
    fn new() -> Self {
        TwoClass {
            config: ConfigTree::new(),
            support: HashMap::new(),
            report: HashMap::new(),
            sealer: Sealer::new("two-class"),
            sync: SyncTracker::new(),
        }
    }

    fn counts(&self, flow: &FlowKey) -> (Option<u64>, Option<u64>) {
        (self.support.get(flow).map(|s| s.0), self.report.get(flow).map(|s| s.0))
    }

    fn open(&mut self, chunk: &StateChunk) -> Result<(FlowKey, Seen)> {
        let flow = chunk.key.as_exact().ok_or_else(|| Error::MalformedChunk("inexact".into()))?;
        Ok((flow, self.sealer.open_row(&chunk.data)?))
    }
}

impl Middlebox for TwoClass {
    fn mb_type(&self) -> &'static str {
        "two-class"
    }
    fn get_config(&self, k: &HierarchicalKey) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(k)
    }
    fn set_config(&mut self, k: &HierarchicalKey, v: Vec<ConfigValue>) -> Result<()> {
        self.config.set(k, v);
        Ok(())
    }
    fn del_config(&mut self, k: &HierarchicalKey) -> Result<()> {
        self.config.remove(k)
    }
    fn get_support_perflow(&mut self, op: OpId, k: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.support, &self.sealer, &mut self.sync, op, k))
    }
    fn put_support_perflow(&mut self, c: StateChunk) -> Result<()> {
        let (flow, seen) = self.open(&c)?;
        state::import(&mut self.support, &mut self.sync, flow, seen);
        Ok(())
    }
    fn del_support_perflow(&mut self, k: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.support, &mut self.sync, k, drop))
    }
    fn get_report_perflow(&mut self, op: OpId, k: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.report, &self.sealer, &mut self.sync, op, k))
    }
    fn put_report_perflow(&mut self, c: StateChunk) -> Result<()> {
        let (flow, seen) = self.open(&c)?;
        state::import(&mut self.report, &mut self.sync, flow, seen);
        Ok(())
    }
    fn del_report_perflow(&mut self, k: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.report, &mut self.sync, k, drop))
    }
    fn stats(&self, k: &HeaderFieldList) -> StateStats {
        let (perflow_support_chunks, perflow_support_bytes) = state::count(&self.support, k);
        let (perflow_report_chunks, perflow_report_bytes) = state::count(&self.report, k);
        StateStats {
            perflow_support_chunks,
            perflow_support_bytes,
            perflow_report_chunks,
            perflow_report_bytes,
            ..Default::default()
        }
    }
    fn process_packet(&mut self, _: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.support.entry(pkt.key).or_insert(Seen(0)).0 += 1;
        self.report.entry(pkt.key).or_insert(Seen(0)).0 += 1;
        self.sync.on_perflow_update(pkt.key, pkt, fx);
        fx.forward(pkt.clone());
    }
    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op)
    }
    fn costs(&self) -> CostModel {
        CostModel::default()
    }
    fn perflow_entries(&self) -> usize {
        self.support.len()
    }
}

/// The controller and the two middleboxes, driven by hand.
struct World {
    core: ControllerCore,
    a: TwoClass,
    b: TwoClass,
    /// What each middlebox was sent, and the puts it acked, in order.
    log: Vec<(MbId, &'static str)>,
    completions: Vec<Completion>,
    /// Puts to B of the kinds in `hold`, held back.
    held: Vec<Message>,
    hold: Vec<&'static str>,
}

const SUPPORT: &str = "putSupportPerflow";
const REPORT: &str = "putReportPerflow";

impl World {
    /// Deliver `actions` and everything they lead to.
    fn run(&mut self, mut actions: Vec<Action>) {
        let now = SimTime(0);
        while let Some(action) = actions.pop() {
            let (to, msg) = match action {
                Action::Notify(c) => {
                    self.completions.push(c);
                    continue;
                }
                Action::ToMb(to, msg) => (to, msg),
                other => panic!("unexpected action {other:?}"),
            };
            if to == MbId(1) && self.hold.contains(&msg.kind_name()) {
                self.held.push(msg);
                continue;
            }
            self.log.push((to, msg.kind_name()));
            let replies = match to {
                MbId(0) => handle_southbound(&mut self.a, msg, now),
                _ => handle_southbound(&mut self.b, msg, now),
            };
            for reply in replies {
                if let Message::PutAck { .. } = reply {
                    self.log.push((to, "putAck"));
                }
                self.core.handle_mb_message(to, reply, now, &mut actions);
            }
        }
    }

    /// Stop holding and deliver the held puts of `kind`.
    fn release(&mut self, kind: &str) {
        self.hold.retain(|&k| k != kind);
        let (go, held): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.held).into_iter().partition(|m| m.kind_name() == kind);
        self.held = held;
        self.run(go.into_iter().map(|m| Action::ToMb(MbId(1), m)).collect());
    }

    fn sent(&self, to: MbId, kind: &str) -> Vec<usize> {
        (0..self.log.len()).filter(|&i| self.log[i] == (to, kind)).collect()
    }
}

/// Move one flow A → B with B's puts of the kinds in `hold` held back,
/// then let a packet of the flow reach A. Its event must wait: a put
/// carrying the flow is open.
fn move_and_raise_an_event(hold: &[&'static str]) -> (World, OpId, FlowKey) {
    let core = ControllerCore::new(ControllerConfig {
        buffer_events: true,
        content_cache: false,
        ..ControllerConfig::default()
    });
    let (a_id, b_id) = (core.register_mb(), core.register_mb());
    assert_eq!((a_id, b_id), (MbId(0), MbId(1)));
    let mut w = World {
        core,
        a: TwoClass::new(),
        b: TwoClass::new(),
        log: Vec::new(),
        completions: Vec::new(),
        held: Vec::new(),
        hold: hold.to_vec(),
    };
    let flow = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, Ipv4Addr::new(10, 0, 0, 2), 80);
    let packet = |id| Packet::new(id, flow, vec![0u8; 8]);
    let now = SimTime(0);
    w.a.process_packet(now, &packet(1), &mut Effects::normal());

    let mut actions = Vec::new();
    let op = w.core.submit(
        Request::Move { src: a_id, dst: b_id, key: HeaderFieldList::any() },
        now,
        &mut actions,
    );
    w.run(actions);
    assert_eq!(w.held.len(), hold.len(), "held {hold:?}: {:?}", w.log);
    assert_eq!(w.sent(b_id, "putAck").len(), 2 - hold.len(), "{:?}", w.log);

    // A live packet of the moved flow at the source raises its event.
    let mut fx = Effects::normal();
    w.a.process_packet(now, &packet(2), &mut fx);
    let events = fx.take_events();
    assert_eq!(events.len(), 1, "the flow is marked moved");
    let mut actions = Vec::new();
    for event in events {
        w.core.handle_mb_message(a_id, Message::EventMsg { event }, now, &mut actions);
    }
    let replayed = |a: &Action| matches!(a, Action::ToMb(_, Message::ReprocessPacket { .. }));
    assert!(!actions.iter().any(replayed), "the event waits for the open puts");
    w.run(actions);
    (w, op, flow)
}

/// The replay reached B once, after both puts' acks, the move completed,
/// and B ends with A's counts.
fn assert_replayed_after_both_puts(w: &World, op: OpId, flow: &FlowKey) {
    let b_id = MbId(1);
    let (replays, acks) = (w.sent(b_id, "reprocessPacket"), w.sent(b_id, "putAck"));
    assert_eq!((replays.len(), acks.len()), (1, 2), "{:?}", w.log);
    assert!(replays[0] > acks[1], "replayed after both puts were acked: {:?}", w.log);
    let done = |c: &Completion| matches!(c, Completion::MoveComplete { op: o, .. } if *o == op);
    assert!(w.completions.iter().any(done));
    assert_eq!(w.b.counts(flow), (Some(2), Some(2)), "the destination has the source's counts");
    assert_eq!(w.a.counts(flow), (Some(2), Some(2)));
}

/// The support put is delivered and acked while the report put is held;
/// the event is raised after that ack, and waits for the report put's.
#[test]
fn an_event_waits_for_both_classes_puts() {
    let (mut w, op, flow) = move_and_raise_an_event(&[REPORT]);
    w.release(REPORT);
    assert_replayed_after_both_puts(&w, op, &flow);
}

/// Both puts are held when the event is raised. The support put's ack
/// matches the event's key, but must not release it while the report
/// put still carries the key.
#[test]
fn the_first_classes_ack_does_not_release_an_event_the_other_still_holds() {
    let (mut w, op, flow) = move_and_raise_an_event(&[SUPPORT, REPORT]);
    w.release(SUPPORT);
    assert!(w.sent(MbId(1), "reprocessPacket").is_empty(), "{:?}", w.log);
    w.release(REPORT);
    assert_replayed_after_both_puts(&w, op, &flow);
}
