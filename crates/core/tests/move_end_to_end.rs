//! End-to-end `moveInternal` through the full stack: traffic source →
//! switch → monitor MBs, controller orchestrating the Figure 5 sequence
//! while packets keep flowing, routing updated after completion, and the
//! atomicity properties of §4.2.1 checked on the outcome.

use std::net::Ipv4Addr;

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::nodes::{ControllerCosts, ControllerNode, Host, MbNode};
use openmb_core::ControllerCore;
use openmb_core::Request;
use openmb_mb::Middlebox;
use openmb_middleboxes::Monitor;
use openmb_openflow::{ElementKind, Switch, Topology};
use openmb_simnet::{Frame, Sim, SimDuration, SimTime};
use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{FlowKey, HeaderFieldList, MbId, NodeId, OpId, Packet};

/// Scale-up app: at T_START, move all HTTP state from mb0 to mb1 and,
/// when the move completes, redirect HTTP traffic to mb1.
struct ScaleUpApp {
    mb0: MbId,
    mb1: MbId,
    switch: NodeId,
    src_host: NodeId,
    mb0_node: NodeId,
    mb1_node: NodeId,
    dst_host: NodeId,
    move_op: Option<OpId>,
    pub move_done_at: Option<SimTime>,
}

const T_START: u64 = 1;

impl ControlApp for ScaleUpApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(SimDuration::from_millis(100), T_START);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_START {
            self.move_op = Some(api.submit(Request::Move {
                src: self.mb0,
                dst: self.mb1,
                key: HeaderFieldList::from_dst_port(80),
            }));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if let Completion::MoveComplete { op, .. } = c {
            if Some(*op) == self.move_op {
                self.move_done_at = Some(api.now());
                // R4: only now update routing.
                let ok = api.route(
                    HeaderFieldList::from_dst_port(80),
                    10,
                    self.src_host,
                    &[self.mb1_node],
                    self.dst_host,
                );
                assert!(ok, "route must exist");
                let _ = self.switch;
                let _ = self.mb0_node;
            }
        }
    }
}

/// Build: host_src -- switch -- host_dst, with mb0 and mb1 hanging off
/// the switch; controller linked to everything control-plane.
#[test]
fn move_between_monitors_with_live_traffic() {
    let mut sim = Sim::new();

    // Create placeholder nodes to learn ids, then wire up.
    let controller_id = NodeId(0);
    let switch_id = NodeId(1);

    let app = ScaleUpApp {
        mb0: MbId(0),
        mb1: MbId(1),
        switch: switch_id,
        src_host: NodeId(4),
        mb0_node: NodeId(2),
        mb1_node: NodeId(3),
        dst_host: NodeId(5),
        move_op: None,
        move_done_at: None,
    };
    let mut controller = ControllerNode::new(
        ControllerConfig {
            quiesce_after: SimDuration::from_millis(200),
            buffer_events: true,
            ..ControllerConfig::default()
        },
        ControllerCosts::default(),
        Box::new(app),
    );
    controller.register_mb(NodeId(2));
    controller.register_mb(NodeId(3));

    let topo = &mut controller.topo;
    for (id, kind) in [
        (controller_id, ElementKind::Host),
        (switch_id, ElementKind::Switch),
        (NodeId(2), ElementKind::Middlebox),
        (NodeId(3), ElementKind::Middlebox),
        (NodeId(4), ElementKind::Host),
        (NodeId(5), ElementKind::Host),
    ] {
        topo.add_element(id, kind);
    }
    topo.add_link(switch_id, NodeId(2));
    topo.add_link(switch_id, NodeId(3));
    topo.add_link(switch_id, NodeId(4));
    topo.add_link(switch_id, NodeId(5));

    let cid = sim.add_node(Box::new(controller));
    assert_eq!(cid, controller_id);

    let mut switch = Switch::new("s1");
    // Initial routing: HTTP via mb0; everything to dst after MB.
    switch.preinstall(
        FlowRule::new(HeaderFieldList::from_dst_port(80), 5, SdnAction::Forward(NodeId(2)))
            .from_port(NodeId(4)),
    );
    switch.preinstall(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Forward(NodeId(5))));
    let sid = sim.add_node(Box::new(switch));
    assert_eq!(sid, switch_id);

    let mb0 =
        MbNode::new("mon0", Monitor::new()).with_controller(controller_id).with_egress(switch_id);
    let mb0_id = sim.add_node(Box::new(mb0));
    assert_eq!(mb0_id, NodeId(2));
    let mb1 =
        MbNode::new("mon1", Monitor::new()).with_controller(controller_id).with_egress(switch_id);
    let mb1_id = sim.add_node(Box::new(mb1));
    assert_eq!(mb1_id, NodeId(3));

    let src = sim.add_node(Box::new(Host::new("src")));
    assert_eq!(src, NodeId(4));
    let dst = sim.add_node(Box::new(Host::new("dst")));
    assert_eq!(dst, NodeId(5));

    // Data links (1 Gbps, 50 µs latency) + control links (no bw limit).
    for n in [NodeId(2), NodeId(3), NodeId(4), NodeId(5)] {
        sim.add_link(switch_id, n, SimDuration::from_micros(50), 1_000_000_000);
    }
    for n in [NodeId(1), NodeId(2), NodeId(3)] {
        sim.add_link(controller_id, n, SimDuration::from_micros(100), 1_000_000_000);
    }

    // Traffic: 40 HTTP flows, 25 packets each, 8 ms apart per flow with
    // staggered offsets — a continuous ~5 pkt/ms aggregate that spans the
    // move window (move starts at 100 ms, completes ~10 ms later).
    let mut pkt_id = 0u64;
    let mut total = 0u32;
    for f in 0..40u16 {
        let key = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, (f % 200) as u8 + 1),
            1000 + f,
            Ipv4Addr::new(192, 168, 1, 1),
            80,
        );
        for p in 0..25u64 {
            let t = SimTime((u64::from(f) * 200_000) + p * 8_000_000);
            pkt_id += 1;
            total += 1;
            sim.inject_frame(
                t,
                src,
                switch_id,
                Frame::Data(Packet::new(pkt_id, key, vec![0u8; 100])),
            );
        }
    }

    sim.run(5_000_000);
    assert!(sim.is_idle(), "simulation should drain");

    // The app observed completion and updated routing.
    let ctrl: &ControllerNode = sim.node_as(controller_id);
    let app = ctrl.completions.iter().find(|(_, c)| matches!(c, Completion::MoveComplete { .. }));
    assert!(app.is_some(), "move must complete: {:?}", ctrl.completions);

    // All packets were processed by exactly one MB (atomicity (i)+(ii)):
    // none dropped, and the union of both monitors' packet counters is
    // the injected total.
    let m0: &MbNode<Monitor> = sim.node_as(mb0_id);
    let m1: &MbNode<Monitor> = sim.node_as(mb1_id);
    assert_eq!(
        m0.packets_processed + m1.packets_processed,
        u64::from(total),
        "every packet processed exactly once"
    );
    assert!(m1.packets_processed > 0, "traffic shifted to mb1 after the move");

    // Atomicity (iii)+(iv): no per-flow observations lost. Merge both
    // monitors' views: per-flow packet counts must sum to 10 per flow.
    // mb0's copies were deleted at quiescence, so remaining records live
    // at mb1, *updated* via puts + replayed events.
    assert_eq!(m0.logic.perflow_entries(), 0, "source state deleted after quiescence");
    let total_counted: u64 = m1.logic.assets_sorted().iter().map(|r| r.packets).sum();
    assert_eq!(
        total_counted,
        u64::from(total),
        "destination accounts for every packet (replays filled the gap)"
    );

    // Events were raised and replayed (the move overlapped live traffic).
    assert!(m0.logic.events_raised() > 0, "source raised reprocess events");
    assert!(m1.events_replayed > 0, "destination replayed them");

    // Every packet reached the sink exactly once (side effects once).
    let sink: &Host = sim.node_as(dst);
    let mut ids = sink.received_ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u32, total, "each packet delivered exactly once");

    let _ = ControllerCore::new(ControllerConfig::default());
    let _ = Topology::new();
}
