//! Reusable simulation scenario builders.
//!
//! Every experiment in the paper runs on a small set of topology shapes;
//! this module builds them: a source host, one OpenFlow switch, two
//! middleboxes hanging off it, a destination host, and the controller
//! (hosting the control application) wired to the switch and both MBs.

use openmb_core::app::ControlApp;
use openmb_core::controller::ControllerConfig;
use openmb_core::nodes::{ControllerCosts, ControllerNode, Host, MbNode};
use openmb_mb::Middlebox;
use openmb_openflow::{ElementKind, Switch};
use openmb_simnet::{Sim, SimDuration};
use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{HeaderFieldList, MbId, NodeId};

/// Node handles for the standard two-middlebox scenario.
pub struct TwoMbSetup {
    pub sim: Sim,
    pub controller: NodeId,
    pub switch: NodeId,
    pub mb_a: NodeId,
    pub mb_b: NodeId,
    pub src: NodeId,
    pub dst: NodeId,
    pub mb_a_id: MbId,
    pub mb_b_id: MbId,
}

/// Tunables for [`two_mb_scenario`].
pub struct ScenarioParams {
    /// Data-plane link latency.
    pub link_latency: SimDuration,
    /// Data-plane link bandwidth (bits/s, 0 = infinite).
    pub bandwidth: u64,
    /// Control-plane link latency (controller ↔ switch/MBs).
    pub control_latency: SimDuration,
    /// Controller quiescence window.
    pub quiesce_after: SimDuration,
    /// Controller per-message costs.
    pub controller_costs: ControllerCosts,
    /// Install the default route (all traffic src → mb_a → dst)?
    pub default_route_via_a: bool,
    /// Buffer reprocess events until their put ACKs (disable only for
    /// the atomicity ablation).
    pub buffer_events: bool,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            link_latency: SimDuration::from_micros(50),
            bandwidth: 1_000_000_000,
            control_latency: SimDuration::from_micros(100),
            quiesce_after: SimDuration::from_millis(300),
            controller_costs: ControllerCosts::default(),
            default_route_via_a: true,
            buffer_events: true,
        }
    }
}

/// Node-id layout produced by [`two_mb_scenario`]: the ids are fixed so
/// apps can be constructed before the simulation exists.
pub mod layout {
    use openmb_types::{MbId, NodeId};
    pub const CONTROLLER: NodeId = NodeId(0);
    pub const SWITCH: NodeId = NodeId(1);
    pub const MB_A: NodeId = NodeId(2);
    pub const MB_B: NodeId = NodeId(3);
    pub const SRC: NodeId = NodeId(4);
    pub const DST: NodeId = NodeId(5);
    pub const MB_A_ID: MbId = MbId(0);
    pub const MB_B_ID: MbId = MbId(1);
}

/// Build the standard scenario:
///
/// ```text
///            controller (+app)
///           /     |     \
/// src --- switch --- dst
///          |   |
///        mb_a mb_b
/// ```
///
/// Initial routing (when `default_route_via_a`): all traffic entering
/// from `src` goes through `mb_a`, then on to `dst`.
pub fn two_mb_scenario<A: Middlebox + 'static, B: Middlebox + 'static>(
    mb_a_logic: A,
    mb_b_logic: B,
    app: Box<dyn ControlApp>,
    params: ScenarioParams,
) -> TwoMbSetup {
    use layout::*;
    let mut sim = Sim::new();

    let mut controller = ControllerNode::new(
        ControllerConfig {
            quiesce_after: params.quiesce_after,
            buffer_events: params.buffer_events,
            ..ControllerConfig::default()
        },
        params.controller_costs,
        app,
    );
    controller.register_mb(MB_A);
    controller.register_mb(MB_B);
    {
        let topo = &mut controller.topo;
        topo.add_element(CONTROLLER, ElementKind::Host);
        topo.add_element(SWITCH, ElementKind::Switch);
        topo.add_element(MB_A, ElementKind::Middlebox);
        topo.add_element(MB_B, ElementKind::Middlebox);
        topo.add_element(SRC, ElementKind::Host);
        topo.add_element(DST, ElementKind::Host);
        for n in [MB_A, MB_B, SRC, DST] {
            topo.add_link(SWITCH, n);
        }
    }
    let cid = sim.add_node(Box::new(controller));
    assert_eq!(cid, CONTROLLER);

    let mut switch = Switch::new("s1");
    if params.default_route_via_a {
        switch.preinstall(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(MB_A)).from_port(SRC),
        );
        switch.preinstall(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(DST)).from_port(MB_A),
        );
        switch.preinstall(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(DST)).from_port(MB_B),
        );
    }
    let sid = sim.add_node(Box::new(switch));
    assert_eq!(sid, SWITCH);

    let a = MbNode::new("mb_a", mb_a_logic).with_controller(CONTROLLER).with_egress(SWITCH);
    assert_eq!(sim.add_node(Box::new(a)), MB_A);
    let b = MbNode::new("mb_b", mb_b_logic).with_controller(CONTROLLER).with_egress(SWITCH);
    assert_eq!(sim.add_node(Box::new(b)), MB_B);
    assert_eq!(sim.add_node(Box::new(Host::new("src").with_forward(SWITCH))), SRC);
    assert_eq!(sim.add_node(Box::new(Host::new("dst"))), DST);

    for n in [MB_A, MB_B, SRC, DST] {
        sim.add_link(SWITCH, n, params.link_latency, params.bandwidth);
    }
    for n in [SWITCH, MB_A, MB_B] {
        sim.add_link(CONTROLLER, n, params.control_latency, 1_000_000_000);
    }

    TwoMbSetup {
        sim,
        controller: CONTROLLER,
        switch: SWITCH,
        mb_a: MB_A,
        mb_b: MB_B,
        src: SRC,
        dst: DST,
        mb_a_id: MB_A_ID,
        mb_b_id: MB_B_ID,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_core::app::NullApp;
    use openmb_core::nodes::Host;
    use openmb_middleboxes::Monitor;
    use openmb_simnet::Frame;
    use openmb_simnet::SimTime;
    use openmb_types::{FlowKey, Packet};
    use std::net::Ipv4Addr;

    #[test]
    fn default_route_carries_traffic_through_mb_a() {
        let mut setup = two_mb_scenario(
            Monitor::new(),
            Monitor::new(),
            Box::new(NullApp),
            ScenarioParams::default(),
        );
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1234, Ipv4Addr::new(192, 168, 1, 1), 80);
        for i in 0..5u64 {
            setup.sim.inject_frame(
                SimTime(i * 1_000_000),
                setup.src,
                setup.switch,
                Frame::Data(Packet::new(i + 1, key, vec![0u8; 64])),
            );
        }
        setup.sim.run(100_000);
        let dst: &Host = setup.sim.node_as(setup.dst);
        assert_eq!(dst.received.len(), 5, "all packets delivered via mb_a");
        use openmb_core::nodes::MbNode;
        let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
        assert_eq!(a.packets_processed, 5);
    }
}

/// Node handles for the RE live-migration scenario (§6.1, Fig 6a).
pub struct ReSetup {
    pub sim: Sim,
    pub controller: NodeId,
    pub switch: NodeId,
    pub encoder: NodeId,
    pub dec_a: NodeId,
    pub dec_b: NodeId,
    pub src: NodeId,
    pub host_a: NodeId,
    pub host_b: NodeId,
    pub encoder_id: MbId,
    pub dec_a_id: MbId,
    pub dec_b_id: MbId,
}

/// Fixed layout for [`re_scenario`].
pub mod re_layout {
    use openmb_types::{MbId, NodeId};
    pub const CONTROLLER: NodeId = NodeId(0);
    pub const SWITCH: NodeId = NodeId(1);
    pub const ENCODER: NodeId = NodeId(2);
    pub const DEC_A: NodeId = NodeId(3);
    pub const DEC_B: NodeId = NodeId(4);
    pub const SRC: NodeId = NodeId(5);
    pub const HOST_A: NodeId = NodeId(6);
    pub const HOST_B: NodeId = NodeId(7);
    pub const ENCODER_ID: MbId = MbId(0);
    pub const DEC_A_ID: MbId = MbId(1);
    pub const DEC_B_ID: MbId = MbId(2);
}

/// Build the §6.1 RE scenario:
///
/// ```text
/// src -- switch -- host_a (DC A, dst_a_prefix)
///          |   \-- host_b (DC B, dst_b_prefix)
///   enc, dec_a, dec_b hang off the switch
/// ```
///
/// Initial routing: everything src → encoder → dec_a → host by
/// destination prefix (pre-migration, both DCs' traffic decodes at A).
pub fn re_scenario(
    cache_size: usize,
    dst_a_prefix: openmb_types::IpPrefix,
    dst_b_prefix: openmb_types::IpPrefix,
    app: Box<dyn ControlApp>,
    params: ScenarioParams,
) -> ReSetup {
    use openmb_middleboxes::{ReDecoder, ReEncoder};
    use re_layout::*;
    let mut sim = Sim::new();

    let mut controller = ControllerNode::new(
        ControllerConfig {
            quiesce_after: params.quiesce_after,
            buffer_events: params.buffer_events,
            ..ControllerConfig::default()
        },
        params.controller_costs,
        app,
    );
    controller.register_mb(ENCODER);
    controller.register_mb(DEC_A);
    controller.register_mb(DEC_B);
    {
        let topo = &mut controller.topo;
        topo.add_element(CONTROLLER, ElementKind::Host);
        topo.add_element(SWITCH, ElementKind::Switch);
        topo.add_element(ENCODER, ElementKind::Middlebox);
        topo.add_element(DEC_A, ElementKind::Middlebox);
        topo.add_element(DEC_B, ElementKind::Middlebox);
        topo.add_element(SRC, ElementKind::Host);
        topo.add_element(HOST_A, ElementKind::Host);
        topo.add_element(HOST_B, ElementKind::Host);
        for n in [ENCODER, DEC_A, DEC_B, SRC, HOST_A, HOST_B] {
            topo.add_link(SWITCH, n);
        }
    }
    let cid = sim.add_node(Box::new(controller));
    assert_eq!(cid, CONTROLLER);

    let mut switch = Switch::new("s1");
    let any = HeaderFieldList::any();
    let to_a = HeaderFieldList::from_dst_subnet(dst_a_prefix);
    let to_b = HeaderFieldList::from_dst_subnet(dst_b_prefix);
    switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(ENCODER)).from_port(SRC));
    switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(DEC_A)).from_port(ENCODER));
    switch.preinstall(FlowRule::new(to_a, 5, SdnAction::Forward(HOST_A)).from_port(DEC_A));
    switch.preinstall(FlowRule::new(to_b, 5, SdnAction::Forward(HOST_B)).from_port(DEC_A));
    switch.preinstall(FlowRule::new(to_b, 5, SdnAction::Forward(HOST_B)).from_port(DEC_B));
    assert_eq!(sim.add_node(Box::new(switch)), SWITCH);

    let enc = MbNode::new("enc", ReEncoder::new(cache_size))
        .with_controller(CONTROLLER)
        .with_egress(SWITCH);
    assert_eq!(sim.add_node(Box::new(enc)), ENCODER);
    let da = MbNode::new("dec_a", ReDecoder::new(cache_size))
        .with_controller(CONTROLLER)
        .with_egress(SWITCH);
    assert_eq!(sim.add_node(Box::new(da)), DEC_A);
    let db = MbNode::new("dec_b", ReDecoder::new(cache_size))
        .with_controller(CONTROLLER)
        .with_egress(SWITCH);
    assert_eq!(sim.add_node(Box::new(db)), DEC_B);
    assert_eq!(sim.add_node(Box::new(Host::new("src").with_forward(SWITCH))), SRC);
    assert_eq!(sim.add_node(Box::new(Host::new("host_a"))), HOST_A);
    assert_eq!(sim.add_node(Box::new(Host::new("host_b"))), HOST_B);

    for n in [ENCODER, DEC_A, DEC_B, SRC, HOST_A, HOST_B] {
        sim.add_link(SWITCH, n, params.link_latency, params.bandwidth);
    }
    for n in [SWITCH, ENCODER, DEC_A, DEC_B] {
        sim.add_link(CONTROLLER, n, params.control_latency, 1_000_000_000);
    }

    ReSetup {
        sim,
        controller: CONTROLLER,
        switch: SWITCH,
        encoder: ENCODER,
        dec_a: DEC_A,
        dec_b: DEC_B,
        src: SRC,
        host_a: HOST_A,
        host_b: HOST_B,
        encoder_id: ENCODER_ID,
        dec_a_id: DEC_A_ID,
        dec_b_id: DEC_B_ID,
    }
}

/// Node handles for the K-pair concurrent-transfer scenario.
pub struct MultiPairSetup {
    pub sim: Sim,
    pub controller: NodeId,
    /// `(src node, dst node, src mb id, dst mb id)` per pair, in pair
    /// order.
    pub pairs: Vec<(NodeId, NodeId, MbId, MbId)>,
}

/// Fixed layout for [`multi_pair_scenario`]: ids are derivable from the
/// pair index alone, so apps and fault plans can be built before the
/// simulation exists.
pub mod multi_layout {
    use openmb_types::{MbId, NodeId};
    pub const CONTROLLER: NodeId = NodeId(0);
    pub const fn src_node(pair: u32) -> NodeId {
        NodeId(1 + 2 * pair)
    }
    pub const fn dst_node(pair: u32) -> NodeId {
        NodeId(2 + 2 * pair)
    }
    pub const fn src_mb(pair: u32) -> MbId {
        MbId(2 * pair)
    }
    pub const fn dst_mb(pair: u32) -> MbId {
        MbId(2 * pair + 1)
    }
}

/// Build a control-plane-only scenario with `pairs` disjoint
/// source/destination middlebox pairs hanging off one controller:
///
/// ```text
///              controller (+app)
///        /   |   |   |   ...   \
///     src0 dst0 src1 dst1 ... dst(K-1)
/// ```
///
/// No switch and no data plane: transfer choreographies are pure
/// control-plane exchanges, and endpoints are preloaded through their
/// logic before construction. `mk_pair(i)` builds pair `i`'s
/// `(source, destination)` logic; `config` reaches the controller as-is
/// (set `shards` here to exercise the sharded core).
pub fn multi_pair_scenario<M: Middlebox + 'static>(
    mut mk_pair: impl FnMut(usize) -> (M, M),
    pairs: usize,
    config: ControllerConfig,
    app: Box<dyn ControlApp>,
    params: ScenarioParams,
) -> MultiPairSetup {
    use multi_layout::*;
    let mut sim = Sim::new();

    let mut controller = ControllerNode::new(config, params.controller_costs, app);
    controller.topo.add_element(CONTROLLER, ElementKind::Host);
    for i in 0..pairs as u32 {
        for n in [src_node(i), dst_node(i)] {
            controller.register_mb(n);
            controller.topo.add_element(n, ElementKind::Middlebox);
            controller.topo.add_link(CONTROLLER, n);
        }
    }
    assert_eq!(sim.add_node(Box::new(controller)), CONTROLLER);

    let mut out_pairs = Vec::with_capacity(pairs);
    for i in 0..pairs as u32 {
        let (src_logic, dst_logic) = mk_pair(i as usize);
        let s = MbNode::new(format!("src{i}"), src_logic).with_controller(CONTROLLER);
        assert_eq!(sim.add_node(Box::new(s)), src_node(i));
        let d = MbNode::new(format!("dst{i}"), dst_logic).with_controller(CONTROLLER);
        assert_eq!(sim.add_node(Box::new(d)), dst_node(i));
        for n in [src_node(i), dst_node(i)] {
            sim.add_link(CONTROLLER, n, params.control_latency, 1_000_000_000);
        }
        out_pairs.push((src_node(i), dst_node(i), src_mb(i), dst_mb(i)));
    }

    MultiPairSetup { sim, controller: CONTROLLER, pairs: out_pairs }
}
