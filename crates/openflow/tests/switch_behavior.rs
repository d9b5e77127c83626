//! Behavioral tests of the OpenFlow-style switch inside the simulator:
//! rule-driven forwarding, table-miss handling (drop or packet-in),
//! barriers, and mid-run rule updates with in-flight packets.

use openmb_openflow::Switch;
use openmb_simnet::obs::{Recorder, SpanEvent};
use openmb_simnet::{Ctx, FaultPlan, Frame, Node, Sim, SimDuration, SimTime};
use openmb_types::sdn::{FlowRule, SdnAction, SdnMessage};
use openmb_types::{FlowKey, HeaderFieldList, NodeId, Packet};
use std::net::Ipv4Addr;

/// Records every frame it receives.
#[derive(Default)]
struct Probe {
    data: Vec<(SimTime, u64)>,
    sdn: Vec<SdnMessage>,
}

impl Node for Probe {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, frame: Frame) {
        match frame {
            Frame::Data(p) => self.data.push((ctx.now(), p.id)),
            Frame::Sdn(m) => self.sdn.push(m),
            Frame::Control(_) => {}
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn key(port: u16) -> FlowKey {
    FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 5000, Ipv4Addr::new(20, 0, 0, 1), port)
}

fn pkt(id: u64, port: u16) -> Packet {
    Packet::new(id, key(port), vec![0u8; 50])
}

/// Topology: probe_a(0) — switch(1) — probe_b(2), controller probe(3).
fn world(switch: Switch) -> (Sim, NodeId, NodeId, NodeId, NodeId) {
    let mut sim = Sim::new();
    let a = sim.add_node(Box::new(Probe::default()));
    let s = sim.add_node(Box::new(switch));
    let b = sim.add_node(Box::new(Probe::default()));
    let c = sim.add_node(Box::new(Probe::default()));
    sim.add_link(a, s, SimDuration::from_micros(10), 0);
    sim.add_link(s, b, SimDuration::from_micros(10), 0);
    sim.add_link(s, c, SimDuration::from_micros(10), 0);
    (sim, a, s, b, c)
}

#[test]
fn forwards_by_rule_and_counts_misses() {
    let mut sw = Switch::new("t");
    sw.preinstall(FlowRule::new(
        HeaderFieldList::from_dst_port(80),
        5,
        SdnAction::Forward(NodeId(2)),
    ));
    let (mut sim, a, s, b, _c) = world(sw);
    sim.inject_frame(SimTime(0), a, s, Frame::Data(pkt(1, 80)));
    sim.inject_frame(SimTime(1), a, s, Frame::Data(pkt(2, 443))); // miss
    sim.run(1000);
    let probe: &Probe = sim.node_as(b);
    assert_eq!(probe.data.iter().map(|(_, id)| *id).collect::<Vec<_>>(), vec![1]);
    let sw: &Switch = sim.node_as(s);
    assert_eq!(sw.dropped, 1, "miss without controller drops");
    assert_eq!(sw.table().hits, 1);
    assert_eq!(sw.table().misses, 1);
}

#[test]
fn miss_becomes_packet_in_when_controller_attached() {
    let sw = Switch::new("t").with_controller(NodeId(3));
    let (mut sim, a, s, _b, c) = world(sw);
    sim.inject_frame(SimTime(0), a, s, Frame::Data(pkt(7, 9999)));
    sim.run(1000);
    let ctrl: &Probe = sim.node_as(c);
    assert_eq!(ctrl.sdn.len(), 1);
    assert!(matches!(&ctrl.sdn[0], SdnMessage::PacketIn { packet } if packet.id == 7));
}

#[test]
fn flow_mod_takes_effect_between_packets() {
    // First packet dropped (no rule); a FlowMod lands; second forwarded.
    let sw = Switch::new("t");
    let (mut sim, a, s, b, _c) = world(sw);
    sim.inject_frame(SimTime(0), a, s, Frame::Data(pkt(1, 80)));
    sim.inject_frame(
        SimTime(1_000),
        a,
        s,
        Frame::Sdn(SdnMessage::FlowMod(FlowRule::new(
            HeaderFieldList::from_dst_port(80),
            5,
            SdnAction::Forward(NodeId(2)),
        ))),
    );
    sim.inject_frame(SimTime(2_000), a, s, Frame::Data(pkt(2, 80)));
    sim.run(1000);
    let probe: &Probe = sim.node_as(b);
    assert_eq!(probe.data.iter().map(|(_, id)| *id).collect::<Vec<_>>(), vec![2]);
}

#[test]
fn barrier_replies_after_mods() {
    let sw = Switch::new("t");
    let (mut sim, _a, s, _b, c) = world(sw);
    sim.inject_frame(
        SimTime(0),
        c,
        s,
        Frame::Sdn(SdnMessage::FlowMod(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Drop))),
    );
    sim.inject_frame(SimTime(1), c, s, Frame::Sdn(SdnMessage::BarrierRequest { token: 42 }));
    sim.run(1000);
    let ctrl: &Probe = sim.node_as(c);
    assert_eq!(ctrl.sdn, vec![SdnMessage::BarrierReply { token: 42 }]);
    let sw: &Switch = sim.node_as(s);
    assert_eq!(sw.table().len(), 1);
}

#[test]
fn packet_out_injects_directly() {
    let sw = Switch::new("t");
    let (mut sim, _a, s, b, c) = world(sw);
    sim.inject_frame(
        SimTime(0),
        c,
        s,
        Frame::Sdn(SdnMessage::PacketOut {
            packet: pkt(9, 80),
            action: SdnAction::Forward(NodeId(2)),
        }),
    );
    sim.run(1000);
    let probe: &Probe = sim.node_as(b);
    assert_eq!(probe.data.len(), 1);
    assert_eq!(probe.data[0].1, 9);
}

#[test]
fn pipeline_delay_preserves_fifo_order() {
    let mut sw = Switch::new("t").with_forwarding_delay(SimDuration::from_micros(5));
    sw.preinstall(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Forward(NodeId(2))));
    let (mut sim, a, s, b, _c) = world(sw);
    for i in 0..20u64 {
        sim.inject_frame(SimTime(i * 1_000), a, s, Frame::Data(pkt(i + 1, 80)));
    }
    sim.run(10_000);
    let probe: &Probe = sim.node_as(b);
    let ids: Vec<u64> = probe.data.iter().map(|(_, id)| *id).collect();
    assert_eq!(ids, (1..=20).collect::<Vec<_>>(), "FIFO through the pipeline");
}

/// `k` packets are inside the pipeline when the switch crashes; after
/// the restart `n` more enter. Returns what the far probe saw and the
/// ids the recorder counts as dropped.
fn crash_mid_pipeline(restart_after: SimDuration) -> (Vec<(SimTime, u64)>, Vec<u64>) {
    const CRASH: SimTime = SimTime(100_000);
    let mut sw = Switch::new("t").with_forwarding_delay(SimDuration::from_micros(5));
    sw.preinstall(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Forward(NodeId(2))));
    let (mut sim, a, s, b, _c) = world(sw);
    sim.set_recorder(Recorder::enabled(4096));
    let restart = CRASH.after(restart_after);
    sim.set_fault_plan(FaultPlan::seeded(1).crash_restart(s, CRASH, restart));
    // k = 3, each 1 µs apart, the first 3 µs before the crash.
    for i in 0..3u64 {
        sim.inject_frame(SimTime(CRASH.0 - 3_000 + i * 1_000), a, s, Frame::Data(pkt(i + 1, 80)));
    }
    // n = 4 from 1 µs after the restart, 2 µs apart.
    for i in 0..4u64 {
        sim.inject_frame(
            SimTime(restart.0 + 1_000 + i * 2_000),
            a,
            s,
            Frame::Data(pkt(i + 10, 80)),
        );
    }
    sim.run(10_000);
    let dropped = sim
        .recorder()
        .dump()
        .events
        .iter()
        .filter_map(|e| match e.event {
            SpanEvent::PacketDropped { pkt_id } => Some(pkt_id),
            _ => None,
        })
        .collect();
    (sim.node_as::<Probe>(b).data.clone(), dropped)
}

#[test]
fn crash_empties_the_pipeline() {
    // Restarting 1 ms later (the crash-era timers are long discarded)
    // and 1 µs later (two of them fire after the restart, before any
    // post-restart packet is due).
    for restart_after in [SimDuration::from_millis(1), SimDuration::from_micros(1)] {
        let (seen, dropped) = crash_mid_pipeline(restart_after);
        let restart = 100_000 + restart_after.as_nanos();
        // In at restart + 1, 3, 5, 7 µs; out 5 µs pipeline + 10 µs link later.
        let want: Vec<(SimTime, u64)> =
            (0..4u64).map(|i| (SimTime(restart + 16_000 + i * 2_000), i + 10)).collect();
        assert_eq!(seen, want, "exactly the post-restart packets, none late or early");
        assert_eq!(dropped, vec![1, 2, 3], "the crash accounts for what it lost");
    }
}
