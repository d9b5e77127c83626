//! Figure 9: southbound get/put performance and event generation.
//!
//! * 9(a) — time per `getPerflow*` operation on PRADS and Bro vs the
//!   number of per-flow state chunks (250/500/1000); linear, Bro higher.
//! * 9(b) — time for all corresponding puts; collectively ≈6× lower
//!   than the get.
//! * 9(c,d) — reprocess events generated during a `moveInternal` as a
//!   function of the packet rate (500–2500 pkt/s), for each chunk count;
//!   linear in rate.

use openmb_apps::migration::{FlowMoveApp, RouteSpec};
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::nodes::MbNode;
use openmb_mb::Middlebox;
use openmb_middleboxes::{Ips, Monitor};
use openmb_simnet::{Frame, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, Packet};

use crate::common::{
    op_duration_ms, preload_flow, preloaded_ips, preloaded_monitor, record_timeline, timeline,
};
use crate::report::{f, Table};

/// Which middlebox a measurement ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbKind {
    Prads,
    Bro,
}

impl MbKind {
    pub fn label(self) -> &'static str {
        match self {
            MbKind::Prads => "Prads",
            MbKind::Bro => "Bro",
        }
    }

    /// The per-flow get operation this MB's state class uses.
    fn get_op(self) -> &'static str {
        match self {
            MbKind::Prads => "getReportPerflow", // reporting records
            MbKind::Bro => "getSupportPerflow",  // connection records
        }
    }
}

/// One (MB, chunk-count) measurement.
#[derive(Debug, Clone, Copy)]
pub struct GetPutSample {
    pub mb: MbKind,
    pub chunks: usize,
    pub get_ms: f64,
    pub puts_ms: f64,
}

fn run_move<M: Middlebox + Clone + 'static>(
    logic: M,
    pkt_rate: u64,
    chunks: usize,
    window: SimDuration,
    costs: Option<openmb_mb::CostModel>,
) -> (openmb_simnet::Sim, SimTime) {
    use layout::*;
    let trigger = SimDuration::from_millis(20);
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
    let mut setup = two_mb_scenario(logic.clone(), logic, Box::new(app), ScenarioParams::default());
    record_timeline(&mut setup.sim);
    if let Some(c) = costs {
        // Event-generation runs must keep the MB below saturation at the
        // tested packet rates; the override trims only the per-packet
        // service time.
        setup.sim.node_as_mut::<MbNode<M>>(setup.mb_a).set_cost_override(c);
        setup.sim.node_as_mut::<MbNode<M>>(setup.mb_b).set_cost_override(c);
    }
    // Optional traffic: round-robin over the preloaded flows.
    if let Some(gap) = 1_000_000_000u64.checked_div(pkt_rate).map(SimDuration) {
        let total = (window.as_nanos() / gap.as_nanos().max(1)) as usize;
        for i in 0..total {
            let key = preload_flow(i % chunks.max(1));
            let t = SimTime(gap.as_nanos() * i as u64);
            setup.sim.inject_frame(
                t,
                setup.src,
                setup.switch,
                Frame::Data(Packet::new(1_000_000 + i as u64, key, vec![0u8; 120])),
            );
        }
    }
    setup.sim.run(200_000_000);
    assert!(setup.sim.is_idle());
    (setup.sim, SimTime(trigger.as_nanos()))
}

/// Measure one (MB, chunks) get/put pair with no competing traffic.
pub fn measure_get_put(mb: MbKind, chunks: usize) -> GetPutSample {
    let (sim, _) = match mb {
        MbKind::Prads => run_move(preloaded_monitor(chunks), 0, chunks, SimDuration::ZERO, None),
        MbKind::Bro => run_move(preloaded_ips(chunks), 0, chunks, SimDuration::ZERO, None),
    };
    let get_ms =
        op_duration_ms(&timeline(&sim), "mb:mb_a", mb.get_op()).expect("get must have run");
    // All puts: the destination's busy time executing them. (Wall-clock
    // span would just mirror the get, which paces chunk arrivals.)
    let dst: &MbNode<Monitor> = match mb {
        MbKind::Prads => sim.node_as(layout::MB_B),
        MbKind::Bro => {
            let dst: &MbNode<Ips> = sim.node_as(layout::MB_B);
            let puts_ms = dst.busy_put_ns as f64 / 1e6;
            return GetPutSample { mb, chunks, get_ms, puts_ms };
        }
    };
    let puts_ms = dst.busy_put_ns as f64 / 1e6;
    GetPutSample { mb, chunks, get_ms, puts_ms }
}

/// Count reprocess events generated during a move with live traffic.
pub fn measure_events(mb: MbKind, chunks: usize, pkt_rate: u64) -> u64 {
    let window = SimDuration::from_secs(2);
    let (sim, _) = match mb {
        MbKind::Prads => run_move(preloaded_monitor(chunks), pkt_rate, chunks, window, None),
        MbKind::Bro => {
            // At 6.9 ms/packet a Bro-like MB saturates at ~145 pkt/s and
            // every later packet would queue behind the move forever.
            // The paper's rates (500-2500 pkt/s) imply a faster per-
            // packet path in their replay; we trim the modeled service
            // time so event counts reflect the window, not overload.
            let mut c = openmb_mb::CostModel::bro_like();
            c.per_packet = openmb_simnet::SimDuration::from_micros(250);
            run_move(preloaded_ips(chunks), pkt_rate, chunks, window, Some(c))
        }
    };
    sim.metrics.counter("mb_a.events_raised")
}

/// Regenerate Figure 9(a) and 9(b).
pub fn fig9ab() -> (Table, Table) {
    let chunk_counts = [250usize, 500, 1000];
    let mut a = Table::new(
        "Figure 9(a): getPerflow time per operation (ms)",
        &["MB", "250 chunks", "500 chunks", "1000 chunks"],
    );
    let mut b = Table::new(
        "Figure 9(b): putPerflow time for all puts (ms)",
        &["MB", "250 chunks", "500 chunks", "1000 chunks"],
    );
    for mb in [MbKind::Prads, MbKind::Bro] {
        let samples: Vec<GetPutSample> =
            chunk_counts.iter().map(|&n| measure_get_put(mb, n)).collect();
        a.row(
            std::iter::once(mb.label().to_owned())
                .chain(samples.iter().map(|s| f(s.get_ms)))
                .collect(),
        );
        b.row(
            std::iter::once(mb.label().to_owned())
                .chain(samples.iter().map(|s| f(s.puts_ms)))
                .collect(),
        );
    }
    a.note("paper: linear in chunk count; Bro > Prads (larger, more complex state)");
    b.note("paper: collective put time ~6x lower than get (linear search on get)");
    (a, b)
}

/// Regenerate Figure 9(c) (PRADS) or 9(d) (Bro).
pub fn fig9cd(mb: MbKind) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 9({}): reprocess events generated by {} during moveInternal",
            if mb == MbKind::Prads { "c" } else { "d" },
            mb.label()
        ),
        &["pkt rate (pkt/s)", "250 chunks", "500 chunks", "1000 chunks"],
    );
    for rate in [500u64, 1000, 1500, 2000, 2500] {
        let mut row = vec![rate.to_string()];
        for chunks in [250usize, 500, 1000] {
            row.push(measure_events(mb, chunks, rate).to_string());
        }
        t.row(row);
    }
    t.note("paper: events increase linearly with packet rate");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_time_scales_linearly_and_exceeds_put() {
        let s250 = measure_get_put(MbKind::Prads, 250);
        let s1000 = measure_get_put(MbKind::Prads, 1000);
        assert!(
            s1000.get_ms > 3.0 * s250.get_ms && s1000.get_ms < 5.0 * s250.get_ms,
            "get should scale ~linearly: {} vs {}",
            s250.get_ms,
            s1000.get_ms
        );
        // §8.2: put collectively ~6x lower than get.
        let ratio = s1000.get_ms / s1000.puts_ms.max(0.001);
        assert!(
            (2.0..20.0).contains(&ratio),
            "get/put ratio should be >1 in the ~6x regime, got {ratio}"
        );
    }

    #[test]
    fn bro_get_slower_than_prads() {
        let p = measure_get_put(MbKind::Prads, 250);
        let b = measure_get_put(MbKind::Bro, 250);
        assert!(b.get_ms > p.get_ms, "Bro {} vs Prads {}", b.get_ms, p.get_ms);
    }

    #[test]
    fn events_increase_with_packet_rate() {
        let low = measure_events(MbKind::Prads, 250, 500);
        let high = measure_events(MbKind::Prads, 250, 2000);
        assert!(high > low * 2, "events should grow with rate: {low} @500pps vs {high} @2000pps");
    }
}
