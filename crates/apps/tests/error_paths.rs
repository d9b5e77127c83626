//! Error paths driven through the *full* `moveInternal` choreography —
//! app → controller → simulated MBs and back — asserting the abort
//! contract each time: a typed [`Completion::Failed`] reaches the
//! application, `open_ops()` returns to 0, and no state is left behind
//! at the destination.

use std::net::Ipv4Addr;

use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_core::nodes::{ControllerNode, MbNode};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{LoadBalancer, Monitor};
use openmb_simnet::{FaultPlan, Frame, SimDuration, SimTime};
use openmb_types::{Error, FlowKey, HeaderFieldList, MbId, Packet};

const T_MOVE: u64 = 1;

/// Issues one `moveInternal` at t=100 ms; outcomes are read back from
/// the controller's completion log.
struct MoveOnce {
    src: MbId,
    dst: MbId,
    pattern: HeaderFieldList,
}

impl ControlApp for MoveOnce {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(SimDuration::from_millis(100), T_MOVE);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_MOVE {
            let _ = api.submit(Request::Move { src: self.src, dst: self.dst, key: self.pattern });
        }
    }
}

fn failed_error(ctrl: &ControllerNode) -> Option<Error> {
    ctrl.completions.iter().find_map(|(_, c)| match c {
        Completion::Failed { error, .. } => Some(error.clone()),
        _ => None,
    })
}

fn flow(i: usize) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 2, (i >> 8) as u8, (i & 0xff) as u8),
        20_000 + i as u16,
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    )
}

/// A monitor holding `n` per-flow records, so the get/put stream is
/// still in flight when a mid-move crash lands.
fn preloaded_monitor(n: usize) -> Monitor {
    let mut m = Monitor::new();
    let mut fx = Effects::normal();
    for i in 0..n {
        m.process_packet(
            SimTime(i as u64),
            &Packet::new(i as u64 + 1, flow(i), vec![0u8; 100]),
            &mut fx,
        );
    }
    m
}

#[test]
fn move_to_unknown_mb_fails_fast() {
    use layout::*;
    let app = MoveOnce { src: MbId(42), dst: MB_B_ID, pattern: HeaderFieldList::any() };
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    setup.sim.run(10_000_000);
    assert!(setup.sim.is_idle());

    let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
    assert!(
        matches!(failed_error(ctrl), Some(Error::UnknownMb(MbId(42)))),
        "typed unknown-MB error: {:?}",
        ctrl.completions
    );
    assert_eq!(ctrl.core.open_ops(), 0, "fail-fast op released immediately");
    let dst: &MbNode<Monitor> = setup.sim.node_as(MB_B);
    assert_eq!(dst.logic.perflow_entries(), 0, "nothing reached the destination");
}

#[test]
fn granularity_too_fine_aborts_through_southbound_error() {
    use layout::*;
    // The balancer keys state by client address; a destination-port
    // pattern is finer than its native granularity, so the southbound
    // get returns GranularityTooFine and the controller must abort.
    let vip = Ipv4Addr::new(10, 0, 0, 100);
    let backends = [Ipv4Addr::new(10, 9, 0, 1), Ipv4Addr::new(10, 9, 0, 2)];
    let app = MoveOnce { src: MB_A_ID, dst: MB_B_ID, pattern: HeaderFieldList::from_dst_port(80) };
    let mut setup = two_mb_scenario(
        LoadBalancer::new(vip, &backends),
        LoadBalancer::new(vip, &backends),
        Box::new(app),
        ScenarioParams::default(),
    );
    // Give the source balancer live assignments before the move.
    for i in 0..20u64 {
        setup.sim.inject_frame(
            SimTime(i * 1_000_000),
            SRC,
            SWITCH,
            Frame::Data(Packet::new(i + 1, flow(i as usize), vec![0u8; 80])),
        );
    }
    setup.sim.run(10_000_000);
    assert!(setup.sim.is_idle());

    let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
    assert!(
        matches!(failed_error(ctrl), Some(Error::GranularityTooFine { .. })),
        "typed granularity error: {:?}",
        ctrl.completions
    );
    assert_eq!(ctrl.core.open_ops(), 0, "aborted op released");
    let dst: &MbNode<LoadBalancer> = setup.sim.node_as(MB_B);
    assert!(dst.logic.assignments_sorted().is_empty(), "no state leaked to the destination");
    let src: &MbNode<LoadBalancer> = setup.sim.node_as(MB_A);
    assert!(!src.logic.assignments_sorted().is_empty(), "source keeps its state after the abort");
}

#[test]
fn mid_move_crash_aborts_and_rolls_back_destination() {
    use layout::*;
    let app = MoveOnce { src: MB_A_ID, dst: MB_B_ID, pattern: HeaderFieldList::any() };
    let mut setup = two_mb_scenario(
        preloaded_monitor(300),
        Monitor::new(),
        Box::new(app),
        ScenarioParams::default(),
    );
    // Live traffic across the move start so reprocess events are raised
    // (and buffered) before the crash.
    for i in 0..40u64 {
        setup.sim.inject_frame(
            SimTime(95_000_000 + i * 150_000),
            SRC,
            SWITCH,
            Frame::Data(Packet::new(9_000_000 + i, flow(i as usize), vec![0u8; 100])),
        );
    }
    // Crash the source 2 ms into the move: some chunks are already put
    // at the destination, most are not.
    let crash_at = SimTime(SimDuration::from_millis(102).as_nanos());
    setup.sim.set_fault_plan(FaultPlan::seeded(11).crash(MB_A, crash_at));
    // The transport notices the dead connection (sim stand-in).
    ControllerNode::report_reachability(&mut setup.sim, CONTROLLER, crash_at, MB_A_ID, false);
    setup.sim.run(10_000_000);
    assert!(setup.sim.is_idle());

    let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
    assert!(
        matches!(failed_error(ctrl), Some(Error::MbUnreachable(mb)) if mb == MB_A_ID),
        "typed unreachable error: {:?}",
        ctrl.completions
    );
    assert_eq!(ctrl.core.open_ops(), 0, "aborted move released its bookkeeping");
    let dst: &MbNode<Monitor> = setup.sim.node_as(MB_B);
    assert_eq!(
        dst.logic.perflow_entries(),
        0,
        "partially-put destination state rolled back on abort"
    );
    // No MoveComplete ever surfaced for the aborted op.
    assert!(
        !ctrl.completions.iter().any(|(_, c)| matches!(c, Completion::MoveComplete { .. })),
        "aborted move must not also complete"
    );
}
