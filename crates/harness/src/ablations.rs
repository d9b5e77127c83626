//! Ablations of OpenMB's design choices (beyond the paper's evaluation).
//!
//! The paper argues for three mechanisms qualitatively; these experiments
//! remove each one and measure what breaks:
//!
//! 1. **Event buffering** (§4.2.1 / Fig 5): forward reprocess events
//!    immediately instead of holding them until the matching put ACKs.
//!    The put then overwrites the replayed updates at the destination —
//!    lost state updates, the atomicity-(iii) violation.
//! 2. **Get interleaving** (the `get_batch` quantum): serialize the whole
//!    get in one block instead of chunk-at-a-time. Packet latency during
//!    the get explodes (toward the Split/Merge regime) while the move
//!    itself barely speeds up.
//!
//! (The quiescence window is a third knob, exposed via `quiesce` below;
//! premature deletion is prevented *by construction* — the controller
//! only quiesces once the event stream is silent and its buffer is empty
//! — so there is no failure mode to measure, only a latency trade
//! covered by `end_op` tests in `openmb-core`.)

use openmb_apps::migration::{FlowMoveApp, RouteSpec};
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::nodes::MbNode;
use openmb_middleboxes::Monitor;
use openmb_simnet::{Frame, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, Packet};

use crate::common::{preload_flow, preloaded_monitor, record_timeline, timeline};
use crate::report::{f, Table};

/// Outcome of one ablation run over monitors.
#[derive(Debug, Clone, Copy)]
pub struct AblationOutcome {
    /// Packets injected.
    pub injected: u64,
    /// Packets accounted for by the destination's per-flow records after
    /// the move (injected − accounted = lost updates).
    pub accounted: u64,
    /// Mean per-packet processing latency at the source during the get
    /// window (ms).
    pub latency_during_get_ms: f64,
    /// Move duration (ms).
    pub move_ms: f64,
}

fn run(
    chunks: usize,
    pkt_rate: u64,
    buffer_events: bool,
    get_batch: Option<usize>,
    quiesce: SimDuration,
) -> AblationOutcome {
    use layout::*;
    let trigger = SimDuration::from_millis(100);
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
    let params =
        ScenarioParams { buffer_events, quiesce_after: quiesce, ..ScenarioParams::default() };
    let mut setup =
        two_mb_scenario(preloaded_monitor(chunks), Monitor::new(), Box::new(app), params);
    record_timeline(&mut setup.sim);
    if let Some(batch) = get_batch {
        let mut c = openmb_mb::CostModel::prads_like();
        c.get_batch = batch;
        setup.sim.node_as_mut::<MbNode<Monitor>>(setup.mb_a).set_cost_override(c);
        setup.sim.node_as_mut::<MbNode<Monitor>>(setup.mb_b).set_cost_override(c);
    }
    // Traffic over the preloaded flows for 1.5 s.
    let gap = 1_000_000_000 / pkt_rate;
    let total = 1_500_000_000 / gap;
    for i in 0..total {
        let key = preload_flow((i as usize) % chunks);
        setup.sim.inject_frame(
            SimTime(gap * i),
            setup.src,
            setup.switch,
            Frame::Data(Packet::new(3_000_000 + i, key, vec![0u8; 120])),
        );
    }
    setup.sim.run(500_000_000);
    assert!(setup.sim.is_idle());

    let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
    let b: &MbNode<Monitor> = setup.sim.node_as(setup.mb_b);
    // Each preloaded record starts with 1 packet; subtract the preload.
    let accounted: u64 = a
        .logic
        .assets_sorted()
        .iter()
        .chain(b.logic.assets_sorted().iter())
        .map(|r| r.packets)
        .sum::<u64>()
        .saturating_sub(chunks as u64);
    let latency =
        crate::latency::split_latency(&timeline(&setup.sim), "mb:mb_a").map_or(0.0, |l| l.1);
    let ctrl: &openmb_core::nodes::ControllerNode = setup.sim.node_as(setup.controller);
    let move_ms = ctrl
        .completions
        .iter()
        .find_map(|(t, c)| {
            matches!(c, openmb_core::Completion::MoveComplete { .. })
                .then(|| t.since(SimTime(trigger.as_nanos())).as_millis_f64())
        })
        .unwrap_or(f64::NAN);
    AblationOutcome { injected: total, accounted, latency_during_get_ms: latency, move_ms }
}

/// Ablation 1: event buffering on vs off.
pub fn event_buffering() -> (AblationOutcome, AblationOutcome) {
    let with = run(500, 2000, true, None, SimDuration::from_millis(300));
    let without = run(500, 2000, false, None, SimDuration::from_millis(300));
    (with, without)
}

/// Ablation 2: get interleaving quantum sweep.
pub fn get_batch_sweep() -> Vec<(usize, AblationOutcome)> {
    [1usize, 16, 64, 100_000]
        .into_iter()
        .map(|b| (b, run(1000, 500, true, Some(b), SimDuration::from_millis(300))))
        .collect()
}

/// Regenerate the ablation tables.
pub fn ablations_table() -> Table {
    let (with, without) = event_buffering();
    let mut t = Table::new(
        "Ablations: what breaks without each mechanism",
        &["configuration", "updates lost", "latency during get (ms)", "move (ms)"],
    );
    t.row(vec![
        "event buffering ON (OpenMB)".into(),
        (with.injected - with.accounted).to_string(),
        f(with.latency_during_get_ms),
        f(with.move_ms),
    ]);
    t.row(vec![
        "event buffering OFF".into(),
        (without.injected - without.accounted).to_string(),
        f(without.latency_during_get_ms),
        f(without.move_ms),
    ]);
    for (batch, o) in get_batch_sweep() {
        let label = if batch >= 100_000 {
            "get_batch = ∞ (blocking get)".to_owned()
        } else {
            format!("get_batch = {batch}")
        };
        t.row(vec![
            label,
            (o.injected - o.accounted).to_string(),
            f(o.latency_during_get_ms),
            f(o.move_ms),
        ]);
    }
    t.note("buffering OFF loses the updates replayed before their chunk's put (atomicity (iii)); a blocking get trades packet latency for little move-time gain (the Split/Merge regime)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_off_loses_updates() {
        let (with, without) = event_buffering();
        assert_eq!(with.injected, with.accounted, "with buffering, every update lands");
        assert!(
            without.accounted < without.injected,
            "without buffering, puts overwrite replayed updates: {} of {}",
            without.accounted,
            without.injected
        );
    }

    #[test]
    fn blocking_get_inflates_latency() {
        let sweep = get_batch_sweep();
        let fine = sweep.iter().find(|(b, _)| *b == 1).unwrap().1;
        let blocking = sweep.iter().find(|(b, _)| *b >= 100_000).unwrap().1;
        assert!(
            blocking.latency_during_get_ms > 3.0 * fine.latency_during_get_ms.max(0.05),
            "blocking get must hurt packet latency: {} vs {}",
            fine.latency_during_get_ms,
            blocking.latency_during_get_ms
        );
        // No update loss in either: interleaving is a latency trade, not
        // a correctness one.
        assert_eq!(fine.injected, fine.accounted);
        assert_eq!(blocking.injected, blocking.accounted);
    }
}
