//! Chain-wide relocation scenarios: an MB chain (stage 1 → stage 2)
//! whose state moves atomically to replacement instances picked by
//! network-aware placement, with routing repointed only on commit.
//!
//! The paper's control applications move flows between *single*
//! middleboxes; deployed traffic traverses chains, and operations like
//! scale-out, rolling upgrades, and rack-level rebalancing must
//! relocate *every* stage of the chain or none (see
//! [`openmb_core::chain`]). [`ChainRelocateApp`] is the Stratos-style
//! orchestration loop over that primitive:
//!
//! 1. at the trigger, pick each stage's destination with
//!    [`openmb_core::placement::select_destination`] — topology
//!    distance plus weighted load, dead standbys excluded;
//! 2. issue one [`openmb_core::ChainSpec`] move for the whole chain;
//! 3. repoint routing through the new instances only on
//!    [`Completion::ChainComplete`] — per-hop `MoveComplete`s are
//!    explicitly NOT acted on, so a chain that aborts mid-way leaves
//!    routing (and, after rollback, state) exactly as it was.
//!
//! [`two_rack_chain_scenario`] builds the standard two-rack topology
//! the scenario tests run on: the active chain and warm standbys in
//! rack A, cross-rack standbys in rack B behind a costed spine link.

use openmb_core::app::{Api, ControlApp};
use openmb_core::chain::{ChainHop, ChainSpec};
use openmb_core::controller::{Completion, Request};
use openmb_core::placement::{select_destination, PlacementCandidate};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::{Error, HeaderFieldList, MbId, NodeId, OpId};

const T_TRIGGER: u64 = 1;

/// One chain stage as the orchestrator sees it: the active instance
/// and the standbys that could replace it, with their measured loads
/// (in deployment: their `queue_depth`/`busy` gauges, see
/// [`openmb_core::placement::gauge_load`]).
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// The instance currently holding this stage's state.
    pub current: PlacementCandidate,
    /// Replacement candidates for this stage.
    pub candidates: Vec<PlacementCandidate>,
    /// Measured load per candidate; missing candidates read as 0.
    pub loads: Vec<(MbId, u64)>,
}

impl StagePlan {
    fn load_of(&self, mb: MbId) -> u64 {
        self.loads.iter().find(|(m, _)| *m == mb).map(|&(_, l)| l).unwrap_or(0)
    }
}

/// Relocates a two-or-more-stage chain's flow group to placed
/// replacements, atomically, then repoints routing.
pub struct ChainRelocateApp {
    /// The flow group to relocate (the spiking subset, or `any` for a
    /// whole-chain upgrade).
    pattern: HeaderFieldList,
    stages: Vec<StagePlan>,
    trigger: SimDuration,
    load_weight: u64,
    /// `(traffic source, traffic sink, initial rule priority)`; the
    /// post-move route installs at `priority + 1` so it shadows the
    /// initial rules for `pattern` only.
    route: (NodeId, NodeId, u16),
    /// Install the initial route through the current instances at
    /// start-up (disable when the scenario preinstalls rules).
    install_initial: bool,
    chain: Option<OpId>,
    /// The destination picked for each stage, in stage order.
    pub placed: Vec<PlacementCandidate>,
    pub chunks_moved: Option<usize>,
    pub done_at: Option<SimTime>,
    pub failed: Option<Error>,
}

impl ChainRelocateApp {
    pub fn new(
        pattern: HeaderFieldList,
        stages: Vec<StagePlan>,
        trigger: SimDuration,
        load_weight: u64,
        route: (NodeId, NodeId, u16),
    ) -> Self {
        assert!(stages.len() >= 2, "a chain has at least two stages");
        ChainRelocateApp {
            pattern,
            stages,
            trigger,
            load_weight,
            route,
            install_initial: true,
            chain: None,
            placed: Vec::new(),
            chunks_moved: None,
            done_at: None,
            failed: None,
        }
    }

    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }
}

impl ControlApp for ChainRelocateApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        if self.install_initial {
            let (src, dst, prio) = self.route;
            let way: Vec<NodeId> = self.stages.iter().map(|s| s.current.node).collect();
            let ok = api.route(HeaderFieldList::any(), prio, src, &way, dst);
            assert!(ok, "initial chain route must exist");
        }
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token != T_TRIGGER || self.chain.is_some() {
            return;
        }
        // Place every stage before issuing anything: a chain where one
        // stage has no viable destination must not move at all.
        let mut placed = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            // Reachability is read through the API before borrowing the
            // topology; placement itself is a pure function.
            let down: Vec<MbId> =
                stage.candidates.iter().map(|c| c.mb).filter(|&m| api.is_unreachable(m)).collect();
            let pick = select_destination(
                api.topology(),
                stage.current.node,
                &stage.candidates,
                self.load_weight,
                |mb| stage.load_of(mb),
                |mb| down.contains(&mb),
            );
            match pick {
                Some(c) => placed.push(c),
                None => {
                    self.failed =
                        Some(Error::OpFailed("no viable destination for chain stage".into()));
                    return;
                }
            }
        }
        let hops = self
            .stages
            .iter()
            .zip(&placed)
            .map(|(s, c)| ChainHop { src: s.current.mb, dst: c.mb })
            .collect();
        self.placed = placed;
        self.chain = Some(api.submit(Request::ChainMove(ChainSpec::new(self.pattern, hops))));
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        match c {
            Completion::ChainComplete { op, chunks_moved, .. } if Some(*op) == self.chain => {
                self.chunks_moved = Some(*chunks_moved);
                let (src, dst, prio) = self.route;
                let way: Vec<NodeId> = self.placed.iter().map(|c| c.node).collect();
                let ok = api.route(self.pattern, prio + 1, src, &way, dst);
                assert!(ok, "post-move chain route must exist");
                self.done_at = Some(api.now());
            }
            Completion::Failed { op, error, .. } if Some(*op) == self.chain => {
                // The chain rolled itself back; routing stays on the
                // old instances, which still hold the restored state.
                self.failed = Some(error.clone());
            }
            // Per-hop MoveCompletes arrive for a chain in progress;
            // repointing on them would split the chain across
            // generations mid-transaction.
            _ => {}
        }
    }
}

/// Node handles for [`two_rack_chain_scenario`].
pub struct ChainSetup {
    pub sim: openmb_simnet::Sim,
    pub controller: NodeId,
    pub tor_a: NodeId,
    pub tor_b: NodeId,
    /// Active chain instances in rack A, in stage order.
    pub active: Vec<(NodeId, MbId)>,
    /// Warm standbys in rack A, in stage order.
    pub standby_a: Vec<(NodeId, MbId)>,
    /// Standbys in rack B, in stage order.
    pub standby_b: Vec<(NodeId, MbId)>,
    pub src: NodeId,
    pub dst: NodeId,
}

/// Fixed layout for [`two_rack_chain_scenario`], so apps can be built
/// before the simulation exists.
pub mod chain_layout {
    use openmb_types::{MbId, NodeId};
    pub const CONTROLLER: NodeId = NodeId(0);
    pub const TOR_A: NodeId = NodeId(1);
    pub const TOR_B: NodeId = NodeId(2);
    /// Stage-1 / stage-2 active instances (rack A).
    pub const M1: NodeId = NodeId(3);
    pub const M2: NodeId = NodeId(4);
    /// Rack-A standbys.
    pub const S1: NodeId = NodeId(5);
    pub const S2: NodeId = NodeId(6);
    /// Rack-B standbys.
    pub const R1: NodeId = NodeId(7);
    pub const R2: NodeId = NodeId(8);
    pub const SRC: NodeId = NodeId(9);
    pub const DST: NodeId = NodeId(10);
    pub const M1_ID: MbId = MbId(0);
    pub const M2_ID: MbId = MbId(1);
    pub const S1_ID: MbId = MbId(2);
    pub const S2_ID: MbId = MbId(3);
    pub const R1_ID: MbId = MbId(4);
    pub const R2_ID: MbId = MbId(5);
    /// Link cost of the rack A ↔ rack B spine; everything else is 1.
    pub const SPINE_COST: u64 = 10;
}

/// Build the two-rack chain scenario:
///
/// ```text
///                controller (+app)
/// src ── tor_a ═══ tor_b ── dst          (spine: cost 10)
///        / | \        |  \
///      m1 m2 s1 s2   r1  r2
/// ```
///
/// The active chain is `m1 → m2`; `s1/s2` are same-rack standbys,
/// `r1/r2` cross-rack. All six run `mk(i)`'s logic (i = node order
/// above). No rules are preinstalled — the app installs the initial
/// route `src → m1 → m2 → dst` on start.
pub fn two_rack_chain_scenario<M: openmb_mb::Middlebox + 'static>(
    mut mk: impl FnMut(usize) -> M,
    app: Box<dyn ControlApp>,
    params: crate::scenarios::ScenarioParams,
) -> ChainSetup {
    use crate::scenarios::Testbed;
    use chain_layout::*;
    use openmb_core::nodes::Host;
    use openmb_openflow::Switch;
    let mut tb = Testbed::new(params.controller_config(), &params, app);
    assert_eq!(tb.switch(Switch::new("tor_a")), TOR_A);
    assert_eq!(tb.switch(Switch::new("tor_b")), TOR_B);
    tb.trunk(TOR_A, TOR_B, SPINE_COST);
    let mbs = [
        (M1, M1_ID, TOR_A),
        (M2, M2_ID, TOR_A),
        (S1, S1_ID, TOR_A),
        (S2, S2_ID, TOR_A),
        (R1, R1_ID, TOR_B),
        (R2, R2_ID, TOR_B),
    ];
    for (i, (n, id, tor)) in mbs.into_iter().enumerate() {
        assert_eq!(tb.middlebox(format!("mb{i}"), mk(i), Some(tor)), (n, id));
    }
    assert_eq!(tb.host(Host::new("src").with_forward(TOR_A), TOR_A), SRC);
    assert_eq!(tb.host(Host::new("dst"), TOR_B), DST);

    ChainSetup {
        sim: tb.finish(),
        controller: CONTROLLER,
        tor_a: TOR_A,
        tor_b: TOR_B,
        active: vec![(M1, M1_ID), (M2, M2_ID)],
        standby_a: vec![(S1, S1_ID), (S2, S2_ID)],
        standby_b: vec![(R1, R1_ID), (R2, R2_ID)],
        src: SRC,
        dst: DST,
    }
}

#[cfg(test)]
mod tests {
    use super::chain_layout::*;
    use super::*;
    use openmb_core::nodes::{ControllerNode, Host, MbNode};
    use openmb_middleboxes::Monitor;
    use openmb_simnet::Frame;
    use openmb_types::{FlowKey, IpPrefix, Packet};
    use std::net::Ipv4Addr;

    /// Candidate lists every scenario shares: both standby tiers for
    /// each stage.
    fn stages(loads: &[(MbId, u64)]) -> Vec<StagePlan> {
        vec![
            StagePlan {
                current: PlacementCandidate { mb: M1_ID, node: M1 },
                candidates: vec![
                    PlacementCandidate { mb: S1_ID, node: S1 },
                    PlacementCandidate { mb: R1_ID, node: R1 },
                ],
                loads: loads.to_vec(),
            },
            StagePlan {
                current: PlacementCandidate { mb: M2_ID, node: M2 },
                candidates: vec![
                    PlacementCandidate { mb: S2_ID, node: S2 },
                    PlacementCandidate { mb: R2_ID, node: R2 },
                ],
                loads: loads.to_vec(),
            },
        ]
    }

    /// Drive a scenario: traffic every millisecond for `packets`
    /// packets per key group, app triggered at 20ms. Returns the setup
    /// after running to quiescence.
    fn drive(app: ChainRelocateApp, keys: &[FlowKey], packets: u64) -> (ChainSetup, Vec<SimTime>) {
        let mut setup =
            two_rack_chain_scenario(|_| Monitor::new(), Box::new(app), Default::default());
        let mut sent = Vec::new();
        let mut id = 0u64;
        // First injection at 1ms: the app's initial flow mods need one
        // control-latency beat to reach the switches.
        for i in 0..packets {
            for key in keys {
                let t = SimTime((i + 1) * 1_000_000);
                id += 1;
                setup.sim.inject_frame(
                    t,
                    setup.src,
                    setup.tor_a,
                    Frame::Data(Packet::new(id, *key, vec![0u8; 64])),
                );
                sent.push(t);
            }
        }
        setup.sim.run(2_000_000);
        (setup, sent)
    }

    fn spike_subset() -> HeaderFieldList {
        HeaderFieldList::from_src_subnet(IpPrefix::new(Ipv4Addr::new(10, 1, 0, 0), 16))
    }

    fn chain_completion(setup: &ChainSetup) -> (Option<SimTime>, Option<usize>, bool) {
        let ctrl: &ControllerNode = setup.sim.node_as(setup.controller);
        let mut done = (None, None, false);
        for (t, c) in &ctrl.completions {
            match c {
                Completion::ChainComplete { chunks_moved, .. } => {
                    done.0 = Some(*t);
                    done.1 = Some(*chunks_moved);
                }
                Completion::Failed { op, .. } if op.0 >= openmb_core::chain::CHAIN_OP_BASE => {
                    done.2 = true;
                }
                _ => {}
            }
        }
        done
    }

    /// Loss/latency acceptance for a scenario run: every sent packet
    /// delivered (the buffering design means a relocation drops
    /// nothing), none slower than `max_latency`.
    fn assert_delivery(setup: &ChainSetup, sent: &[SimTime], max_latency: SimDuration) {
        let dst: &Host = setup.sim.node_as(setup.dst);
        assert_eq!(dst.received.len(), sent.len(), "zero-loss threshold violated");
        let worst = dst
            .received
            .iter()
            .map(|&(at, ref p)| at.0 - sent[(p.id - 1) as usize].0)
            .max()
            .unwrap_or(0);
        assert!(
            worst <= max_latency.as_nanos(),
            "latency threshold violated: worst {}µs > {}µs",
            worst / 1_000,
            max_latency.as_nanos() / 1_000,
        );
    }

    fn processed(setup: &ChainSetup, node: NodeId) -> u64 {
        let mb: &MbNode<Monitor> = setup.sim.node_as(node);
        mb.packets_processed
    }

    #[test]
    fn two_rack_topology_routes_over_sim_links() {
        use crate::scenarios::tests::{delivered, RouteOnStart};
        // Across the spine to a rack-B standby and back to dst.
        let app = Box::new(RouteOnStart(SRC, R1, DST));
        let setup = two_rack_chain_scenario(|_| Monitor::new(), app, Default::default());
        assert_eq!(delivered(setup.sim, SRC, DST), 3, "src → r1 → dst over the sim's links");
    }

    #[test]
    fn chain_scale_out_under_traffic_spike_moves_subset_to_same_rack() {
        // A spiking /16 is split off the active chain onto the warm
        // same-rack standbys; the rest of the traffic never moves.
        // Lightly-loaded near candidates must beat the cross-rack tier.
        let app = ChainRelocateApp::new(
            spike_subset(),
            stages(&[(S1_ID, 1), (S2_ID, 1)]),
            SimDuration::from_millis(20),
            1,
            (SRC, DST, 5),
        );
        let spike = FlowKey::tcp(Ipv4Addr::new(10, 1, 0, 1), 40_000, Ipv4Addr::new(9, 9, 9, 9), 80);
        let rest = FlowKey::tcp(Ipv4Addr::new(10, 9, 0, 1), 40_001, Ipv4Addr::new(9, 9, 9, 9), 80);
        let (setup, sent) = drive(app, &[spike, rest], 100);
        let (done_at, chunks, failed) = chain_completion(&setup);
        assert!(!failed, "scale-out chain must commit");
        let done_at = done_at.expect("chain committed");
        assert!(done_at.0 < 100_000_000, "commit inside the traffic window");
        assert!(chunks.unwrap() > 0, "spike flow state must actually move");
        // Zero loss, and no packet slower than 2ms (6 hops × 50µs plus
        // processing and the transition window).
        assert_delivery(&setup, &sent, SimDuration::from_millis(2));
        // The spike now flows through the same-rack standbys...
        assert!(processed(&setup, S1) > 0, "stage-1 standby takes the spike");
        assert!(processed(&setup, S2) > 0, "stage-2 standby takes the spike");
        // ...while the cross-rack tier was never selected.
        assert_eq!(processed(&setup, R1), 0);
        assert_eq!(processed(&setup, R2), 0);
    }

    #[test]
    fn rolling_chain_upgrade_drains_old_instances() {
        // Whole-chain relocation (pattern = any): the "new version"
        // standbys take over every flow; the old generation drains and
        // sees no traffic after the cut-over.
        let app = ChainRelocateApp::new(
            HeaderFieldList::any(),
            stages(&[]),
            SimDuration::from_millis(20),
            1,
            (SRC, DST, 5),
        );
        let key = FlowKey::tcp(Ipv4Addr::new(10, 1, 0, 2), 40_002, Ipv4Addr::new(9, 9, 9, 9), 80);
        let (setup, sent) = drive(app, &[key], 100);
        let (done_at, _, failed) = chain_completion(&setup);
        assert!(!failed, "upgrade chain must commit");
        let done_at = done_at.expect("chain committed");
        assert_delivery(&setup, &sent, SimDuration::from_millis(2));
        assert!(processed(&setup, S1) > 0 && processed(&setup, S2) > 0);
        // Old instances processed only the pre-cut-over packets: with
        // one packet per ms and the cut-over at `done_at`, everything
        // injected ≥ 1ms after it must be handled by the new chain.
        let before = sent.iter().filter(|t| t.0 <= done_at.0 + 1_000_000).count() as u64;
        assert!(
            processed(&setup, M1) <= before,
            "old stage 1 must drain after cut-over: {} processed, {} sent before",
            processed(&setup, M1),
            before,
        );
    }

    #[test]
    fn cross_rack_rebalance_prefers_remote_rack_when_local_is_loaded() {
        // Same-rack standbys are saturated: weighted load outweighs the
        // spine cost and placement sends both stages to rack B. The
        // acceptance thresholds absorb the longer path.
        let app = ChainRelocateApp::new(
            spike_subset(),
            stages(&[(S1_ID, 50), (S2_ID, 50)]),
            SimDuration::from_millis(20),
            1,
            (SRC, DST, 5),
        );
        let key = FlowKey::tcp(Ipv4Addr::new(10, 1, 0, 3), 40_003, Ipv4Addr::new(9, 9, 9, 9), 80);
        let (setup, sent) = drive(app, &[key], 100);
        let (done_at, _, failed) = chain_completion(&setup);
        assert!(!failed, "rebalance chain must commit");
        done_at.expect("chain committed");
        assert_delivery(&setup, &sent, SimDuration::from_millis(2));
        // Rack B runs the chain now; the loaded local standbys never
        // saw a packet.
        assert!(processed(&setup, R1) > 0, "stage 1 rebalanced across the spine");
        assert!(processed(&setup, R2) > 0, "stage 2 rebalanced across the spine");
        assert_eq!(processed(&setup, S1), 0);
        assert_eq!(processed(&setup, S2), 0);
    }
}
