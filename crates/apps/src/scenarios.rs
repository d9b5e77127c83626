//! The DES testbed, and the scenarios declared over it.
//!
//! The paper's §8 testbed is an OpenFlow switch, a controller and a few
//! middleboxes; simnet stands in for it (DESIGN §1). [`Testbed`] builds
//! such a network one node at a time, and one declaration writes
//! everything about its node: the sim node, its element in the
//! controller's topology, its MB registration, its data link (into the
//! topology and the sim at once) and its control link. The controller's
//! picture of the network is therefore the network. Every experiment
//! runs on one of four declarations over it:
//!
//! * [`two_mb_scenario`]: a source host, one switch, two middleboxes and
//!   a destination host;
//! * [`re_scenario`]: the §6.1 RE encoder and two decoders behind one
//!   switch, with a host per data centre;
//! * [`multi_pair_scenario`]: K disjoint middlebox pairs on the control
//!   plane only;
//! * [`crate::chains::two_rack_chain_scenario`]: a chain and its
//!   standbys in two racks behind a costed spine.
//!
//! [`SubmitAt`] is the control app that submits a fixed list of
//! requests at one instant, for runs that only need the ops issued.

use std::sync::{Arc, Mutex};

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{ControllerConfig, Request};
use openmb_core::nodes::{ControllerCosts, ControllerNode, Host, MbNode};
use openmb_mb::Middlebox;
use openmb_openflow::{ElementKind, Switch};
use openmb_simnet::{Node, Sim, SimDuration};
use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{HeaderFieldList, MbId, NodeId, OpId};

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

/// Tunables of the testbed's links and controller.
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

impl ScenarioParams {
    /// The controller configuration these parameters ask for: the
    /// default, with their quiescence window and event buffering.
    pub fn controller_config(&self) -> ControllerConfig {
        ControllerConfig {
            quiesce_after: self.quiesce_after,
            buffer_events: self.buffer_events,
            ..ControllerConfig::default()
        }
    }
}

/// Bandwidth of every control link (controller ↔ switch/MB).
const CONTROL_BANDWIDTH: u64 = 1_000_000_000;

/// A DES network under construction: the [`Sim`], with the
/// [`ControllerNode`] at `NodeId(0)` ([`layout::CONTROLLER`] in every
/// layout), and one call per further node.
/// Nodes get ids, and middleboxes `MbId`s, in declaration order, so a
/// scenario can assert them against its layout constants.
pub struct Testbed {
    sim: Sim,
    link_latency: SimDuration,
    bandwidth: u64,
    control_latency: SimDuration,
}

impl Testbed {
    /// The controller, running `config` at `params`' costs and hosting
    /// `app`; later links take `params`' latencies and bandwidth.
    pub fn new(
        config: ControllerConfig,
        params: &ScenarioParams,
        app: Box<dyn ControlApp>,
    ) -> Self {
        let mut controller = ControllerNode::new(config, params.controller_costs, app);
        controller.topo.add_element(layout::CONTROLLER, ElementKind::Host);
        let mut sim = Sim::new();
        assert_eq!(sim.add_node(Box::new(controller)), layout::CONTROLLER);
        Testbed {
            sim,
            link_latency: params.link_latency,
            bandwidth: params.bandwidth,
            control_latency: params.control_latency,
        }
    }

    fn controller(&mut self) -> &mut ControllerNode {
        self.sim.node_as_mut(layout::CONTROLLER)
    }

    /// Add `node` as a topology element of `kind`, with its data link to
    /// `switch`, if any.
    fn node(&mut self, node: Box<dyn Node>, kind: ElementKind, switch: Option<NodeId>) -> NodeId {
        let id = self.sim.add_node(node);
        self.controller().topo.add_element(id, kind);
        if let Some(sw) = switch {
            self.trunk(sw, id, 1);
        }
        id
    }

    fn control_link(&mut self, id: NodeId) {
        self.sim.add_link(layout::CONTROLLER, id, self.control_latency, CONTROL_BANDWIDTH);
    }

    /// A switch and its control link.
    pub fn switch(&mut self, switch: Switch) -> NodeId {
        let id = self.node(Box::new(switch), ElementKind::Switch, None);
        self.control_link(id);
        id
    }

    /// A data link between two declared nodes, written into the
    /// topology at `cost` and into the sim. Between two switches it is
    /// a trunk; a node's link to its own switch costs 1.
    pub fn trunk(&mut self, a: NodeId, b: NodeId, cost: u64) {
        self.controller().topo.add_link_with_cost(a, b, cost);
        self.sim.add_link(a, b, self.link_latency, self.bandwidth);
    }

    /// A middlebox running `logic`, registered with the controller, with
    /// its control link and, on `switch`, its data link and egress.
    /// `None` keeps it on the control plane only.
    pub fn middlebox<M: Middlebox + 'static>(
        &mut self,
        label: impl Into<String>,
        logic: M,
        switch: Option<NodeId>,
    ) -> (NodeId, MbId) {
        let mut node = MbNode::new(label, logic).with_controller(layout::CONTROLLER);
        if let Some(sw) = switch {
            node = node.with_egress(sw);
        }
        let id = self.node(Box::new(node), ElementKind::Middlebox, switch);
        let mb = self.controller().register_mb(id);
        self.control_link(id);
        (id, mb)
    }

    /// A host on `switch`.
    pub fn host(&mut self, host: Host, switch: NodeId) -> NodeId {
        self.node(Box::new(host), ElementKind::Host, Some(switch))
    }

    /// The built network.
    pub fn finish(self) -> Sim {
        self.sim
    }
}

/// A control app that submits a fixed list of requests at one virtual
/// instant and records the op ids they were given, in request order.
/// It submits once: a second firing of its timer issues nothing.
pub struct SubmitAt {
    at: SimDuration,
    requests: Vec<Request>,
    issued: Arc<Mutex<Vec<OpId>>>,
}

impl SubmitAt {
    pub fn new(at: SimDuration, requests: Vec<Request>) -> Self {
        SubmitAt { at, requests, issued: Arc::default() }
    }

    /// The issued op ids, readable after the app is boxed into the
    /// controller.
    pub fn issued(&self) -> Arc<Mutex<Vec<OpId>>> {
        Arc::clone(&self.issued)
    }
}

impl ControlApp for SubmitAt {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.at, 1);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        let mut ids = self.issued.lock().expect("no reader panics holding the issued ids");
        if !ids.is_empty() {
            return;
        }
        for r in &self.requests {
            ids.push(api.submit(r.clone()));
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
    let mut tb = Testbed::new(params.controller_config(), &params, app);
    let mut switch = Switch::new("s1");
    if params.default_route_via_a {
        let any = HeaderFieldList::any();
        switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(MB_A)).from_port(SRC));
        switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(DST)).from_port(MB_A));
        switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(DST)).from_port(MB_B));
    }
    assert_eq!(tb.switch(switch), SWITCH);
    assert_eq!(tb.middlebox("mb_a", mb_a_logic, Some(SWITCH)), (MB_A, MB_A_ID));
    assert_eq!(tb.middlebox("mb_b", mb_b_logic, Some(SWITCH)), (MB_B, MB_B_ID));
    assert_eq!(tb.host(Host::new("src").with_forward(SWITCH), SWITCH), SRC);
    assert_eq!(tb.host(Host::new("dst"), SWITCH), DST);

    TwoMbSetup {
        sim: tb.finish(),
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
    let mut tb = Testbed::new(params.controller_config(), &params, app);
    let mut switch = Switch::new("s1");
    let any = HeaderFieldList::any();
    let to_a = HeaderFieldList::from_dst_subnet(dst_a_prefix);
    let to_b = HeaderFieldList::from_dst_subnet(dst_b_prefix);
    switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(ENCODER)).from_port(SRC));
    switch.preinstall(FlowRule::new(any, 5, SdnAction::Forward(DEC_A)).from_port(ENCODER));
    switch.preinstall(FlowRule::new(to_a, 5, SdnAction::Forward(HOST_A)).from_port(DEC_A));
    switch.preinstall(FlowRule::new(to_b, 5, SdnAction::Forward(HOST_B)).from_port(DEC_A));
    switch.preinstall(FlowRule::new(to_b, 5, SdnAction::Forward(HOST_B)).from_port(DEC_B));
    assert_eq!(tb.switch(switch), SWITCH);
    let enc = ReEncoder::new(cache_size);
    assert_eq!(tb.middlebox("enc", enc, Some(SWITCH)), (ENCODER, ENCODER_ID));
    assert_eq!(tb.middlebox("dec_a", ReDecoder::new(cache_size), Some(SWITCH)), (DEC_A, DEC_A_ID));
    assert_eq!(tb.middlebox("dec_b", ReDecoder::new(cache_size), Some(SWITCH)), (DEC_B, DEC_B_ID));
    assert_eq!(tb.host(Host::new("src").with_forward(SWITCH), SWITCH), SRC);
    assert_eq!(tb.host(Host::new("host_a"), SWITCH), HOST_A);
    assert_eq!(tb.host(Host::new("host_b"), SWITCH), HOST_B);

    ReSetup {
        sim: tb.finish(),
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
    let mut tb = Testbed::new(config, &params, app);
    let mut out_pairs = Vec::with_capacity(pairs);
    for i in 0..pairs as u32 {
        let (src_logic, dst_logic) = mk_pair(i as usize);
        assert_eq!(tb.middlebox(format!("src{i}"), src_logic, None), (src_node(i), src_mb(i)));
        assert_eq!(tb.middlebox(format!("dst{i}"), dst_logic, None), (dst_node(i), dst_mb(i)));
        out_pairs.push((src_node(i), dst_node(i), src_mb(i), dst_mb(i)));
    }
    MultiPairSetup { sim: tb.finish(), controller: CONTROLLER, pairs: out_pairs }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use openmb_core::app::NullApp;
    use openmb_middleboxes::Monitor;
    use openmb_simnet::{Frame, SimTime};
    use openmb_types::{FlowKey, IpPrefix, Packet};
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
        let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
        assert_eq!(a.packets_processed, 5);
    }

    /// Installs, on start, the route the controller computes from its
    /// own topology: `src` through `waypoint` to `dst`, for every flow,
    /// above any preinstalled rule.
    pub(crate) struct RouteOnStart(pub NodeId, pub NodeId, pub NodeId);

    impl ControlApp for RouteOnStart {
        fn on_start(&mut self, api: &mut Api<'_>) {
            let RouteOnStart(src, way, dst) = *self;
            let ok = api.route(HeaderFieldList::any(), 10, src, &[way], dst);
            assert!(ok, "the controller's topology has no path {src} → {way} → {dst}");
        }
    }

    /// Send three packets out of `src`'s own access link once the
    /// [`RouteOnStart`] rules have landed, and count what `dst` got.
    pub(crate) fn delivered(mut sim: Sim, src: NodeId, dst: NodeId) -> usize {
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1234, Ipv4Addr::new(10, 2, 0, 9), 80);
        for i in 1..=3u64 {
            let pkt = Packet::new(i, key, vec![i as u8; 64]);
            sim.inject_frame(SimTime(i * 1_000_000), src, src, Frame::Data(pkt));
        }
        sim.run(100_000);
        sim.node_as::<Host>(dst).received.len()
    }

    #[test]
    fn two_mb_topology_routes_over_sim_links() {
        use layout::*;
        let app = Box::new(RouteOnStart(SRC, MB_B, DST));
        let params = ScenarioParams { default_route_via_a: false, ..ScenarioParams::default() };
        let setup = two_mb_scenario(Monitor::new(), Monitor::new(), app, params);
        assert_eq!(delivered(setup.sim, SRC, DST), 3, "src → mb_b → dst over the sim's links");
    }

    #[test]
    fn re_topology_routes_over_sim_links() {
        use re_layout::*;
        // Through the encoder: a decoder drops what no encoder wrote.
        let app = Box::new(RouteOnStart(SRC, ENCODER, HOST_B));
        let dc = |b| IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
        let setup = re_scenario(64, dc(1), dc(2), app, ScenarioParams::default());
        assert_eq!(delivered(setup.sim, SRC, HOST_B), 3, "src → enc → host_b over the sim's links");
    }
}
