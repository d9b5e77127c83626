//! Figure 7: MB actions during the scale-up scenario.
//!
//! The paper captures "the packet processing, event raising/processing,
//! and operation handling that occurs over a 3-second window at the
//! original (bottom) and new (top) Prads MBs": HTTP packets are
//! processed by the original MB until slightly after the final put
//! completes, then shift to the new MB; re-process events are raised
//! from soon after the get begins until slightly after it completes, and
//! are processed by the new MB after the corresponding state was put.
//!
//! We regenerate the same timeline, bucketed at 100 ms.

use openmb_apps::migration::RouteSpec;
use openmb_apps::scaling::ScaleUpApp;
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams, TwoMbSetup};
use openmb_middleboxes::Monitor;
use openmb_simnet::obs::{RecorderDump, SpanEvent};
use openmb_simnet::{Frame, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, Packet};

use crate::common::{get_window, is_state_get, preload_flow, record_timeline, timeline};
use crate::report::Table;

/// The per-bucket activity counts of the Figure 7 timeline.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    pub old_pkts: u64,
    pub old_events_raised: u64,
    pub new_pkts: u64,
    pub new_events_processed: u64,
}

/// The regenerated timeline plus the op landmarks the paper annotates.
pub struct Fig7 {
    pub buckets: Vec<(f64, Bucket)>,
    pub get_start_s: Option<f64>,
    pub get_end_s: Option<f64>,
    pub first_put_s: Option<f64>,
    pub last_put_s: Option<f64>,
}

/// Packets the scale-up run injects at the switch.
const PACKETS: usize = 2800;

/// Run the §6.2 scale-up scenario to quiescence, with the flight
/// recorder on when `record`.
fn scale_up(record: bool) -> TwoMbSetup {
    use layout::*;
    let subset = HeaderFieldList::any();
    let app = ScaleUpApp::new(
        MB_A_ID,
        MB_B_ID,
        subset,
        SimDuration::from_millis(1000),
        RouteSpec { pattern: subset, priority: 10, src: SRC, waypoints: vec![MB_B], dst: DST },
    );
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    if record {
        record_timeline(&mut setup.sim);
    }
    // Steady HTTP traffic at ~800 pkt/s over 400 flows for 3.5 s.
    let gap = 1_250_000u64; // 1.25 ms
    for i in 0..PACKETS {
        let key = preload_flow(i % 400);
        let mut pkt = Packet::new(i as u64 + 1, key, vec![0u8; 200]);
        pkt.meta.http_request = true;
        setup.sim.inject_frame(SimTime(gap * i as u64), setup.src, setup.switch, Frame::Data(pkt));
    }
    setup.sim.run(200_000_000);
    assert!(setup.sim.is_idle());
    setup
}

/// Run the scale-up scenario and extract the timeline.
pub fn run(window_start_ms: u64, window_ms: u64, bucket_ms: u64) -> Fig7 {
    let dump = timeline(&scale_up(true).sim);
    extract(&dump, "mb:mb_a", "mb:mb_b", window_start_ms, window_ms, bucket_ms)
}

fn extract(
    dump: &RecorderDump,
    old: &str,
    new: &str,
    window_start_ms: u64,
    window_ms: u64,
    bucket_ms: u64,
) -> Fig7 {
    let start = SimTime(window_start_ms * 1_000_000);
    let end = start.after(SimDuration::from_millis(window_ms));
    let n_buckets = (window_ms / bucket_ms) as usize;
    let mut buckets = vec![Bucket::default(); n_buckets];
    for e in &dump.events {
        let (time, at_old, at_new) = (SimTime(e.t_ns), e.node == old, e.node == new);
        if time < start || time >= end {
            continue;
        }
        let idx = ((time.since(start).as_millis_f64()) / bucket_ms as f64) as usize;
        let b = &mut buckets[idx.min(n_buckets - 1)];
        match e.event {
            SpanEvent::PacketProcessed { .. } if at_old => b.old_pkts += 1,
            SpanEvent::PacketProcessed { .. } if at_new => b.new_pkts += 1,
            SpanEvent::EventRaised if at_old => b.old_events_raised += 1,
            SpanEvent::EventReplayed if at_new => b.new_events_processed += 1,
            _ => {}
        }
    }
    // Landmarks are read regardless of window.
    let get = get_window(dump, old, is_state_get);
    let mut puts = dump
        .events
        .iter()
        .filter(|e| {
            e.node == new
                && matches!(
                    e.event,
                    SpanEvent::Handled {
                        msg: "putSupportPerflow" | "putReportPerflow" | "chunkRef" | "chunkBody"
                    }
                )
        })
        .map(|e| SimTime(e.t_ns).as_secs_f64());
    let first_put = puts.next();
    Fig7 {
        buckets: buckets
            .into_iter()
            .enumerate()
            .map(|(i, b)| ((window_start_ms + i as u64 * bucket_ms) as f64 / 1000.0, b))
            .collect(),
        get_start_s: get.map(|(s, _)| s.as_secs_f64()),
        get_end_s: get.map(|(_, e)| e.as_secs_f64()),
        first_put_s: first_put,
        last_put_s: puts.next_back().or(first_put),
    }
}

/// Regenerate Figure 7 as a table.
pub fn fig7() -> Table {
    let r = run(500, 3000, 100);
    let mut t = Table::new(
        "Figure 7: MB actions during scale-up (100 ms buckets)",
        &["t (s)", "old pkts", "old events raised", "new pkts", "new events processed"],
    );
    for (ts, b) in &r.buckets {
        t.row(vec![
            format!("{ts:.1}"),
            b.old_pkts.to_string(),
            b.old_events_raised.to_string(),
            b.new_pkts.to_string(),
            b.new_events_processed.to_string(),
        ]);
    }
    if let (Some(gs), Some(ge)) = (r.get_start_s, r.get_end_s) {
        t.note(format!("get at original MB: {gs:.3}s .. {ge:.3}s"));
    }
    if let (Some(fp), Some(lp)) = (r.first_put_s, r.last_put_s) {
        t.note(format!("puts at new MB: {fp:.3}s .. {lp:.3}s"));
    }
    t.note("paper: old MB processes HTTP until slightly after the final put; events are raised from the get start until slightly after it completes, and processed at the new MB after the corresponding puts");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_matches_papers_narrative() {
        let r = run(500, 3000, 100);
        let (gs, ge) = (r.get_start_s.unwrap(), r.get_end_s.unwrap());
        let (fp, lp) = (r.first_put_s.unwrap(), r.last_put_s.unwrap());
        assert!(gs < ge && fp < lp);
        assert!(fp >= gs, "puts begin after the get begins");
        // Old MB processes packets until (slightly after) the last put;
        // then the new MB takes over.
        let handover = lp;
        let old_after: u64 =
            r.buckets.iter().filter(|(t, _)| *t > handover + 0.3).map(|(_, b)| b.old_pkts).sum();
        let new_after: u64 =
            r.buckets.iter().filter(|(t, _)| *t > handover + 0.3).map(|(_, b)| b.new_pkts).sum();
        assert_eq!(old_after, 0, "old MB quiet after handover");
        assert!(new_after > 0, "new MB carries the traffic after handover");
        // Events raised during the get window, processed at the new MB.
        let events_total: u64 = r.buckets.iter().map(|(_, b)| b.old_events_raised).sum();
        let processed_total: u64 = r.buckets.iter().map(|(_, b)| b.new_events_processed).sum();
        assert!(events_total > 0, "events raised during the move");
        assert!(processed_total > 0, "events processed at the new MB");
    }

    /// Observation does not perturb, and the stream adds up: the same
    /// run with the recorder off and on ends in the same place, and
    /// the recorded events account for every counter and every packet.
    #[test]
    fn recording_does_not_perturb_and_the_stream_adds_up() {
        use openmb_core::nodes::{Host, MbNode};
        use openmb_simnet::obs::TimelineEvent;
        let (off, on) = (scale_up(false), scale_up(true));
        assert!(off.sim.recorder().dump().events.is_empty());
        let received = |s: &TwoMbSetup| s.sim.node_as::<Host>(s.dst).received.clone();
        assert_eq!(received(&off), received(&on));
        for mb in [off.mb_a, off.mb_b] {
            let logs = |s: &TwoMbSetup| s.sim.node_as::<MbNode<Monitor>>(mb).logs.clone();
            assert_eq!(logs(&off), logs(&on));
        }
        let counters = |s: &TwoMbSetup| -> Vec<(String, u64)> {
            s.sim.metrics.registry().counters().map(|(k, v)| (k.to_owned(), v)).collect()
        };
        assert_eq!(counters(&off), counters(&on));

        let dump = timeline(&on.sim);
        let reg = on.sim.metrics.registry();
        let count = |node: Option<&str>, is: fn(&SpanEvent) -> bool| {
            let at = |e: &&TimelineEvent| node.is_none_or(|n| e.node == n) && is(&e.event);
            dump.events.iter().filter(at).count() as u64
        };
        let is_packet = |e: &SpanEvent| matches!(e, SpanEvent::PacketProcessed { .. });
        for label in ["mb_a", "mb_b"] {
            let node = format!("mb:{label}");
            let counter = |name: &str| reg.counter(&format!("{label}.{name}"));
            assert_eq!(count(Some(&node), is_packet), counter("packets"));
            assert_eq!(
                count(Some(&node), |e| *e == SpanEvent::EventRaised),
                counter("events_raised")
            );
            assert_eq!(
                count(Some(&node), |e| *e == SpanEvent::EventReplayed),
                counter("events_replayed")
            );
            let latency_ms: f64 = dump
                .events
                .iter()
                .filter(|e| e.node == node)
                .filter_map(|e| match e.event {
                    SpanEvent::PacketProcessed { latency_ns, .. } => {
                        Some(SimDuration(latency_ns).as_millis_f64())
                    }
                    _ => None,
                })
                .sum();
            let h = reg.histogram(&format!("{label}.pkt_latency")).expect("packets sampled");
            assert_eq!(h.count(), counter("packets"));
            assert!((h.sum() - latency_ms).abs() < 1e-9, "{} vs {latency_ms}", h.sum());
        }
        // Every injected packet is processed by exactly one MB or
        // dropped by exactly one node.
        let dropped = count(None, |e| matches!(e, SpanEvent::PacketDropped { .. }));
        assert_eq!(count(None, is_packet) + dropped, PACKETS as u64, "{dropped} dropped");
    }
}
