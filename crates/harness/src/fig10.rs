//! Figure 10: MB controller performance with trace-replay dummy MBs.
//!
//! * 10(a) — time to complete a single `moveInternal` vs the number of
//!   202-byte state chunks, with and without a concurrent event stream;
//!   both linear, events adding a bounded overhead (paper: ≤9 %).
//! * 10(b) — average time per move vs the number of simultaneous move
//!   operations (distinct dummy-MB pairs sharing one controller), for
//!   1000/2000/3000 chunks; linear in both dimensions.

use openmb_apps::migration::{FlowMoveApp, RouteSpec};
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig, Request};
use openmb_core::nodes::{ControllerCosts, ControllerNode, MbNode};
use openmb_middleboxes::DummyMb;
use openmb_openflow::ElementKind;
use openmb_simnet::{Frame, Sim, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, NodeId, OpId, Packet};

use crate::report::{f, Table};

/// Measure one move of `chunks` dummy chunks; `pkt_rate` > 0 adds the
/// event-generating packet stream. Returns the move duration in ms.
pub fn single_move_ms(chunks: usize, pkt_rate: u64) -> f64 {
    use layout::*;
    let trigger = SimDuration::from_millis(10);
    let app = FlowMoveApp::new(
        MB_A_ID,
        MB_B_ID,
        HeaderFieldList::any(),
        trigger,
        RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup = two_mb_scenario(
        DummyMb::preloaded(chunks),
        DummyMb::new(),
        Box::new(app),
        ScenarioParams::default(),
    );
    if let Some(gap) = 1_000_000_000u64.checked_div(pkt_rate) {
        // Packets touching the preloaded flows throughout a window that
        // comfortably covers the move.
        let window_ns = 4_000_000_000u64;
        let total = (window_ns / gap.max(1)) as usize;
        for i in 0..total {
            let key = DummyMb::flow_for(i % chunks.max(1));
            setup.sim.inject_frame(
                SimTime(gap * i as u64),
                setup.src,
                setup.switch,
                Frame::Data(Packet::new(5_000_000 + i as u64, key, vec![0u8; 96])),
            );
        }
    }
    setup.sim.run(2_000_000_000);
    assert!(setup.sim.is_idle());
    let ctrl: &ControllerNode = setup.sim.node_as(setup.controller);
    let (done, _) = ctrl
        .completions
        .iter()
        .find(|(_, c)| matches!(c, Completion::MoveComplete { .. }))
        .expect("move completed");
    done.since(SimTime(trigger.as_nanos())).as_millis_f64()
}

/// The multi-pair move driver for Fig 10(b).
struct MultiMoveApp {
    pairs: Vec<(MbId, MbId)>,
    trigger: SimDuration,
    ops: Vec<OpId>,
}

impl ControlApp for MultiMoveApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, 1);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == 1 {
            for &(src, dst) in &self.pairs.clone() {
                self.ops.push(api.submit(Request::Move { src, dst, key: HeaderFieldList::any() }));
            }
        }
    }
}

/// Run `n_moves` simultaneous moves of `chunks` chunks each; returns the
/// average move duration in ms.
pub fn concurrent_moves_avg_ms(n_moves: usize, chunks: usize) -> f64 {
    let trigger = SimDuration::from_millis(10);
    let mut sim = Sim::new();
    let controller_id = NodeId(0);

    let pairs: Vec<(MbId, MbId)> =
        (0..n_moves).map(|i| (MbId(2 * i as u32), MbId(2 * i as u32 + 1))).collect();
    let mut controller = ControllerNode::new(
        ControllerConfig {
            quiesce_after: SimDuration::from_millis(100),
            buffer_events: true,
            ..ControllerConfig::default()
        },
        ControllerCosts::default(),
        Box::new(MultiMoveApp { pairs, trigger, ops: Vec::new() }),
    );
    controller.topo.add_element(controller_id, ElementKind::Host);
    for i in 0..2 * n_moves {
        let node = NodeId(1 + i as u32);
        controller.register_mb(node);
        controller.topo.add_element(node, ElementKind::Middlebox);
    }
    let cid = sim.add_node(Box::new(controller));
    assert_eq!(cid, controller_id);
    for i in 0..n_moves {
        let src = sim.add_node(Box::new(
            MbNode::new(format!("src{i}"), DummyMb::preloaded(chunks))
                .with_controller(controller_id),
        ));
        let dst = sim.add_node(Box::new(
            MbNode::new(format!("dst{i}"), DummyMb::new()).with_controller(controller_id),
        ));
        sim.add_link(controller_id, src, SimDuration::from_micros(100), 1_000_000_000);
        sim.add_link(controller_id, dst, SimDuration::from_micros(100), 1_000_000_000);
    }
    sim.run(200_000_000);
    assert!(sim.is_idle());
    let ctrl: &ControllerNode = sim.node_as(controller_id);
    let done: Vec<f64> = ctrl
        .completions
        .iter()
        .filter(|(_, c)| matches!(c, Completion::MoveComplete { .. }))
        .map(|(t, _)| t.since(SimTime(trigger.as_nanos())).as_millis_f64())
        .collect();
    assert_eq!(done.len(), n_moves, "all moves complete");
    done.iter().sum::<f64>() / done.len() as f64
}

/// Regenerate Figure 10(a).
pub fn fig10a() -> Table {
    let mut t = Table::new(
        "Figure 10(a): time per moveInternal vs state chunks (dummy MBs)",
        &["chunks", "w/o events (ms)", "with events (ms)", "event overhead"],
    );
    for chunks in [1000usize, 5000, 10000, 15000, 20000, 25000] {
        let quiet = single_move_ms(chunks, 0);
        let noisy = single_move_ms(chunks, 1000);
        let overhead = (noisy - quiet) / quiet * 100.0;
        t.row(vec![chunks.to_string(), f(quiet), f(noisy), format!("{overhead:+.1}%")]);
    }
    t.note("paper: linear in chunks; events increase processing time by at most ~9%");
    t
}

/// Regenerate Figure 10(b).
pub fn fig10b() -> Table {
    let mut t = Table::new(
        "Figure 10(b): avg time per move vs simultaneous moves (dummy MBs)",
        &["simultaneous moves", "1000 chunks (ms)", "2000 chunks (ms)", "3000 chunks (ms)"],
    );
    for n in [1usize, 2, 4, 8, 12, 16, 20] {
        let mut row = vec![n.to_string()];
        for chunks in [1000usize, 2000, 3000] {
            row.push(f(concurrent_moves_avg_ms(n, chunks)));
        }
        t.row(row);
    }
    t.note("paper: avg time per move increases linearly with both the number of simultaneous operations and chunks per operation");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_move_scales_linearly() {
        let small = single_move_ms(1000, 0);
        let big = single_move_ms(5000, 0);
        let ratio = big / small;
        assert!(
            (3.0..7.0).contains(&ratio),
            "5x chunks should be ~5x time: {small} -> {big} (x{ratio:.1})"
        );
    }

    #[test]
    fn events_add_bounded_overhead() {
        let quiet = single_move_ms(2000, 0);
        let noisy = single_move_ms(2000, 1000);
        assert!(noisy >= quiet, "events cannot make the move faster");
        assert!(
            noisy <= quiet * 1.35,
            "event overhead should be bounded (paper ~9%): {quiet} -> {noisy}"
        );
    }

    #[test]
    fn concurrent_moves_slow_down_linearly() {
        let one = concurrent_moves_avg_ms(1, 1000);
        let four = concurrent_moves_avg_ms(4, 1000);
        assert!(
            four > one * 2.0,
            "contention at the controller must slow concurrent moves: {one} vs {four}"
        );
    }
}
