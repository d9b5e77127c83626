//! Helpers shared by the experiment runners.

use std::net::Ipv4Addr;

use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{Ips, Monitor};
use openmb_simnet::obs::{Recorder, RecorderDump, SpanEvent};
use openmb_simnet::{Sim, SimTime};
use openmb_types::packet::tcp_flags;
use openmb_types::{FlowKey, Packet};

/// The synthetic flow key used for preloaded state piece `i`
/// (same scheme across monitors and IPSes so traffic generators can
/// target them).
pub fn preload_flow(i: usize) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 1, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8),
        10_000 + (i % 50_000) as u16,
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    )
}

/// A monitor holding `n` per-flow reporting records.
pub fn preloaded_monitor(n: usize) -> Monitor {
    let mut m = Monitor::new();
    let mut fx = Effects::normal();
    for i in 0..n {
        let pkt = Packet::new(i as u64 + 1, preload_flow(i), vec![0u8; 120]);
        m.process_packet(SimTime(i as u64), &pkt, &mut fx);
    }
    assert_eq!(m.perflow_entries(), n);
    m
}

/// An IPS holding `n` open connections (SYN+handshake, no FIN).
pub fn preloaded_ips(n: usize) -> Ips {
    let mut ips = Ips::new();
    let mut fx = Effects::normal();
    for i in 0..n {
        let key = preload_flow(i);
        ips.process_packet(
            SimTime(i as u64 * 2),
            &Packet::tcp(i as u64 * 2 + 1, key, tcp_flags::SYN, Vec::new()),
            &mut fx,
        );
        ips.process_packet(
            SimTime(i as u64 * 2 + 1),
            &Packet::tcp(
                i as u64 * 2 + 2,
                key.reversed(),
                tcp_flags::SYN | tcp_flags::ACK,
                Vec::new(),
            ),
            &mut fx,
        );
    }
    assert_eq!(ips.perflow_entries(), n);
    ips
}

/// Ring size for experiment runs that cut a figure from the flight
/// recorder: an order of magnitude above the largest of them (Fig 7,
/// ≈10 k events); [`timeline`] asserts nothing was evicted.
const TIMELINE_RING: usize = 1 << 17;

/// Turn the flight recorder on for a run whose timeline will be read.
pub fn record_timeline(sim: &mut Sim) {
    sim.set_recorder(Recorder::enabled(TIMELINE_RING));
}

/// The complete recorded timeline of a run started under
/// [`record_timeline`].
pub fn timeline(sim: &Sim) -> RecorderDump {
    let dump = sim.recorder().dump();
    assert!(dump.capacity > 0, "the run was not recorded");
    assert_eq!(dump.evicted, 0, "the ring must retain the whole run");
    dump
}

/// The four gets an MB answers asynchronously, closing each with a
/// `Served` (config and stats reads are `get*` too, but atomic).
pub fn is_state_get(msg: &str) -> bool {
    matches!(msg, "getSupportPerflow" | "getReportPerflow" | "getSupportShared" | "getReportShared")
}

/// The window in which `node` served the gets `is_op` selects: from
/// the first matching `Handled` to the last matching `Served`. `None`
/// unless both were recorded.
pub fn get_window(
    dump: &RecorderDump,
    node: &str,
    is_op: impl Fn(&str) -> bool,
) -> Option<(SimTime, SimTime)> {
    let mut start = None;
    let mut end = None;
    for e in dump.events.iter().filter(|e| e.node == node) {
        match e.event {
            SpanEvent::Handled { msg } if is_op(msg) && start.is_none() => start = Some(e.t_ns),
            SpanEvent::Served { msg } if is_op(msg) => end = Some(e.t_ns),
            _ => {}
        }
    }
    Some((SimTime(start?), SimTime(end?)))
}

/// Milliseconds `node` spent serving `op` (see [`get_window`]).
pub fn op_duration_ms(dump: &RecorderDump, node: &str, op: &str) -> Option<f64> {
    get_window(dump, node, |m| m == op).map(|(s, e)| e.since(s).as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_monitor_has_records() {
        let m = preloaded_monitor(50);
        assert_eq!(m.perflow_entries(), 50);
    }

    #[test]
    fn preloaded_ips_has_open_conns() {
        let ips = preloaded_ips(25);
        assert_eq!(ips.perflow_entries(), 25);
    }

    #[test]
    fn op_duration_from_trace() {
        use openmb_simnet::obs::TimelineEvent;
        let ev = |t_ns, event| TimelineEvent {
            t_ns,
            node: "mb:1".to_owned(),
            op: None,
            sub: Some(5),
            event,
        };
        let dump = RecorderDump {
            events: vec![
                ev(1_000_000, SpanEvent::Handled { msg: "get" }),
                ev(5_000_000, SpanEvent::Served { msg: "get" }),
            ],
            evicted: 0,
            capacity: 16,
        };
        assert_eq!(op_duration_ms(&dump, "mb:1", "get"), Some(4.0));
        assert_eq!(op_duration_ms(&dump, "mb:2", "get"), None);
    }
}
