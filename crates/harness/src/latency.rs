//! §8.2 performance: per-packet processing latency during southbound
//! get calls.
//!
//! Paper: "For Bro, there is no significant change in the average
//! per-packet processing latency: 6.93 ms during normal operation and
//! 7.06 ms when processing a get call" (≈2 %). "For RE ... 0.781 ms
//! during normal operation and 0.790 ms when processing a get call."

use openmb_apps::migration::{FlowMoveApp, RouteSpec};
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_middleboxes::ReDecoder;
use openmb_simnet::obs::{RecorderDump, SpanEvent};
use openmb_simnet::{Frame, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, Packet};

use crate::common::{
    get_window, is_state_get, preload_flow, preloaded_ips, record_timeline, timeline,
};
use crate::report::{f, Table};

/// Latency summary for one MB kind.
#[derive(Debug, Clone, Copy)]
pub struct LatencyResult {
    pub normal_ms: f64,
    pub during_get_ms: f64,
}

impl LatencyResult {
    pub fn increase_pct(&self) -> f64 {
        (self.during_get_ms - self.normal_ms) / self.normal_ms * 100.0
    }
}

/// Mean processing latency of packets that arrived at `node` outside /
/// inside its get window; `None` when it served no get.
pub fn split_latency(dump: &RecorderDump, node: &str) -> Option<(f64, f64)> {
    let (from, to) = get_window(dump, node, is_state_get)?;
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for e in dump.events.iter().filter(|e| e.node == node) {
        let SpanEvent::PacketProcessed { latency_ns, .. } = e.event else { continue };
        // Classify by *arrival* time (processing-completion minus the
        // latency): a packet that arrives during the get but is
        // delayed past its end still belongs to the get window.
        let arrived = SimTime(e.t_ns.saturating_sub(latency_ns));
        let ms = SimDuration(latency_ns).as_millis_f64();
        if arrived >= from && arrived <= to {
            inside.push(ms);
        } else {
            outside.push(ms);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Some((mean(&outside), mean(&inside)))
}

/// Measure the Bro-like IPS: steady traffic, one `getSupportPerflow` of
/// `chunks` records mid-run.
pub fn bro_latency(chunks: usize) -> LatencyResult {
    use layout::*;
    let trigger = SimDuration::from_millis(500);
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
        preloaded_ips(chunks),
        preloaded_ips(0),
        Box::new(app),
        ScenarioParams::default(),
    );
    record_timeline(&mut setup.sim);
    // Sparse traffic (Bro's 6.93 ms service time saturates at ~144 pps;
    // the paper replays a trace, so the MB is not overloaded).
    let gap = 25_000_000u64; // 40 pkt/s
    for i in 0..120usize {
        setup.sim.inject_frame(
            SimTime(gap * i as u64),
            setup.src,
            setup.switch,
            Frame::Data(Packet::new(
                9_000_000 + i as u64,
                preload_flow(i % chunks),
                vec![0u8; 200],
            )),
        );
    }
    setup.sim.run(500_000_000);
    assert!(setup.sim.is_idle());
    let (normal, during) = split_latency(&timeline(&setup.sim), "mb:mb_a").expect("get ran");
    LatencyResult { normal_ms: normal, during_get_ms: during }
}

/// Driver that clones the decoder's cache mid-run (RE latency probe).
struct CloneOnce {
    src: MbId,
    dst: MbId,
    trigger: SimDuration,
}

impl ControlApp for CloneOnce {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, 1);
    }
    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == 1 {
            api.submit(Request::Clone { src: self.src, dst: self.dst });
        }
    }
    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if let Completion::CloneComplete { op } = c {
            api.end_op(*op);
        }
    }
}

/// Measure the RE decoder: encoded stream, one shared-cache get mid-run.
pub fn re_latency(cache_size: usize) -> LatencyResult {
    use layout::*;
    let app = CloneOnce { src: MB_A_ID, dst: MB_B_ID, trigger: SimDuration::from_millis(500) };
    let mut setup = two_mb_scenario(
        ReDecoder::new(cache_size),
        ReDecoder::new(cache_size),
        Box::new(app),
        ScenarioParams::default(),
    );
    record_timeline(&mut setup.sim);
    // An encoder feeding the decoder realistic encoded traffic would
    // need the full RE topology; for the latency probe, raw (unencoded)
    // packets exercise the same decode-and-append path.
    let gap = 5_000_000u64; // 200 pkt/s, decoder service 0.78 ms
    for i in 0..400usize {
        setup.sim.inject_frame(
            SimTime(gap * i as u64),
            setup.src,
            setup.switch,
            Frame::Data(Packet::new(9_500_000 + i as u64, preload_flow(i % 50), vec![0x55u8; 800])),
        );
    }
    setup.sim.run(500_000_000);
    assert!(setup.sim.is_idle());
    let (normal, during) = split_latency(&timeline(&setup.sim), "mb:mb_a").expect("get ran");
    LatencyResult { normal_ms: normal, during_get_ms: during }
}

/// Regenerate the §8.2 latency comparison.
pub fn latency_table() -> Table {
    let bro = bro_latency(1000);
    let re = re_latency(1 << 20);
    let mut t = Table::new(
        "§8.2: per-packet latency, normal vs during get (ms)",
        &["MB", "normal", "during get", "increase"],
    );
    t.row(vec![
        "Bro".into(),
        f(bro.normal_ms),
        f(bro.during_get_ms),
        format!("{:+.1}%", bro.increase_pct()),
    ]);
    t.row(vec![
        "RE".into(),
        f(re.normal_ms),
        f(re.during_get_ms),
        format!("{:+.1}%", re.increase_pct()),
    ]);
    t.note(
        "paper: Bro 6.93 → 7.06 ms (+1.9%); RE 0.781 → 0.790 ms (+1.2%) — no significant change",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bro_latency_impact_is_small() {
        let r = bro_latency(1000);
        assert!(r.normal_ms > 1.0, "Bro-like base latency in the ms regime");
        assert!(
            r.increase_pct() >= 0.0 && r.increase_pct() < 15.0,
            "latency impact during get should be small: {:+.1}% ({} -> {})",
            r.increase_pct(),
            r.normal_ms,
            r.during_get_ms
        );
    }

    #[test]
    fn re_latency_impact_is_small() {
        let r = re_latency(1 << 20);
        assert!(
            r.increase_pct().abs() < 10.0,
            "shared export runs off the packet path: {:+.1}%",
            r.increase_pct()
        );
    }
}
