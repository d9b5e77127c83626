//! Per-run metrics export: drive the §6.2 scale-up scenario with the
//! flight recorder and the online invariant monitor attached, then
//! export the run's unified metrics registry as JSON and Prometheus
//! text, the scale-up operation's rendered cross-node timeline, and
//! the periodic health snapshots captured while the run progressed.
//!
//! The `metrics_export` binary writes the artifacts (`metrics.json`,
//! `metrics.prom`, `timeline.txt`, `health.txt`, `health.json`) to a
//! directory; CI runs it and validates that the JSON parses and
//! carries the expected counter keys.

use openmb_apps::migration::RouteSpec;
use openmb_apps::scaling::ScaleUpApp;
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::nodes::ControllerNode;
use openmb_middleboxes::Monitor;
use openmb_simnet::obs::{
    export_chain_phases, export_op_phases, percentile, HealthSnapshot, Registry, SpanEvent,
};
use openmb_simnet::{Frame, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, Packet};

use crate::common::preload_flow;
use crate::conformance::attach_oracle;
use crate::report::op_timeline;

/// The artifacts one exported run produces.
pub struct ExportedRun {
    /// The registry as a JSON object (counters, gauges, histograms) —
    /// including the per-phase latency histograms and their percentile
    /// gauges derived from the invariant monitor's attribution.
    pub json: String,
    /// The registry in the Prometheus text exposition format.
    pub prometheus: String,
    /// The scale-up operation's span rendered as a Fig-7-style table
    /// (empty when the run recorded no operation — a bug the export
    /// test catches).
    pub timeline: String,
    /// Periodic health snapshots as a concatenated text dashboard.
    pub health_text: String,
    /// The same snapshots as one JSON array.
    pub health_json: String,
    /// Invariant violations detected by the monitor (rendered); must
    /// be empty for a healthy run — the test and CI assert this.
    pub violations: Vec<String>,
}

/// Interval between health captures while the run drains.
const HEALTH_EVERY: SimDuration = SimDuration::from_millis(250);

/// Run a short scale-up (move Monitor state mb_a → mb_b under steady
/// HTTP traffic) with the recorder and invariant monitor attached, and
/// export it.
pub fn export_scale_up() -> ExportedRun {
    use layout::*;
    let subset = HeaderFieldList::any();
    let app = ScaleUpApp::new(
        MB_A_ID,
        MB_B_ID,
        subset,
        SimDuration::from_millis(800),
        RouteSpec { pattern: subset, priority: 10, src: SRC, waypoints: vec![MB_B], dst: DST },
    );
    // The scenario runs the stock controller tunables; mirror its
    // transfer window into the monitor's I1 bound.
    let window = openmb_core::controller::ControllerConfig::default().transfer_window;
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    // The monitor rides the span stream as a sink: it sees every event
    // (including ones later evicted from the ring) live, so its
    // verdicts and phase attribution are wraparound-proof. The ring
    // holds the whole run (≈4.4 k events: 2 000 packets, the events
    // they raise, and the move's ≈2 k control-plane spans), so the
    // exported packet count can be held to the MBs' counters.
    let monitor = attach_oracle(&mut setup.sim, 1, window, 8192);

    // Steady HTTP traffic at ~800 pkt/s over 400 flows for 2.5 s: the
    // handover lands mid-window, so both MBs process packets.
    let gap = 1_250_000u64; // 1.25 ms
    for i in 0..2000usize {
        let key = preload_flow(i % 400);
        let mut pkt = Packet::new(i as u64 + 1, key, vec![0u8; 200]);
        pkt.meta.http_request = true;
        setup.sim.inject_frame(SimTime(gap * i as u64), setup.src, setup.switch, Frame::Data(pkt));
    }
    // Drive the run in fixed slices, capturing a health snapshot at
    // each boundary — the dashboard an operator would tail.
    let mut snapshots: Vec<HealthSnapshot> = Vec::new();
    let mut until = HEALTH_EVERY;
    loop {
        setup.sim.run_until(SimTime(until.0), 200_000_000);
        let node = setup.sim.node_as::<ControllerNode>(setup.controller);
        snapshots.push(node.health_snapshot(setup.sim.now().0, monitor.violation_count() as u64));
        if setup.sim.is_idle() {
            break;
        }
        until = SimDuration(until.0 + HEALTH_EVERY.0);
    }
    assert!(setup.sim.is_idle(), "export run must drain");

    let end_ms = setup.sim.now().as_secs_f64() * 1e3;
    let dump = setup.sim.recorder().dump();

    // Phase attribution: feed each shard's ops into its own registry
    // and fold them into the run registry with `absorb_all` — the same
    // merge path a sharded embedding uses for its per-shard registries.
    let op_phases = monitor.op_phases();
    let mut shard_regs: Vec<(Option<u32>, Registry)> = Vec::new();
    for p in &op_phases {
        let reg = match shard_regs.iter_mut().find(|(s, _)| *s == p.shard) {
            Some((_, reg)) => reg,
            None => {
                shard_regs.push((p.shard, Registry::new()));
                &mut shard_regs.last_mut().expect("just pushed").1
            }
        };
        export_op_phases(reg, std::slice::from_ref(p));
    }
    {
        let reg = setup.sim.metrics.registry_mut();
        for (_, shard_reg) in &shard_regs {
            reg.absorb_all(shard_reg);
        }
        export_chain_phases(reg, &monitor.chain_phases());
        // Percentile summaries over the aggregate phase histograms.
        for key in ["phase.admit_ms", "phase.transfer_ms", "phase.total_ms"] {
            if let Some(h) = reg.histogram(key).cloned() {
                for (q, tag) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    reg.set_gauge(&format!("{key}.{tag}"), percentile(&h, q));
                }
            }
        }
        // Run-level gauges ride along with the counters the nodes
        // accumulated during the run.
        reg.set_gauge("sim.end_ms", end_ms);
        reg.set_gauge("recorder.events_retained", dump.events.len() as f64);
        reg.set_gauge("recorder.events_evicted", dump.evicted as f64);
        let packets = dump
            .events
            .iter()
            .filter(|e| matches!(e.event, SpanEvent::PacketProcessed { .. }))
            .count();
        reg.set_gauge("recorder.packets_processed", packets as f64);
        reg.set_gauge("monitor.violations", monitor.violation_count() as f64);
    }

    // The scale-up's state transfer (not the config reads it performs
    // first) is the operation worth a timeline.
    let op = dump
        .events
        .iter()
        .find(|e| e.op.is_some() && matches!(e.event, SpanEvent::Issued { kind: "moveInternal" }))
        .and_then(|e| e.op);
    let timeline = op.map(|o| op_timeline(&dump, o).to_string()).unwrap_or_default();

    let health_text = snapshots.iter().map(|s| s.render_text()).collect::<String>();
    let mut health_json = String::from("[");
    for (i, s) in snapshots.iter().enumerate() {
        if i > 0 {
            health_json.push(',');
        }
        health_json.push_str(&s.to_json());
    }
    health_json.push(']');

    ExportedRun {
        json: setup.sim.metrics.registry().to_json(),
        prometheus: setup.sim.metrics.registry().to_prometheus_text(),
        timeline,
        health_text,
        health_json,
        violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny recursive-descent JSON reader: `validate` returns the
    /// byte offset past one complete value, or panics with the reason.
    /// Enough to prove the hand-rolled exporter emits well-formed JSON
    /// without an external parser dependency.
    fn validate(b: &[u8], mut i: usize) -> usize {
        fn ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn string(b: &[u8], mut i: usize) -> usize {
            assert_eq!(b[i], b'"', "expected string at {i}");
            i += 1;
            while b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i + 1
        }
        i = ws(b, i);
        assert!(i < b.len(), "truncated value");
        match b[i] {
            b'{' => {
                i = ws(b, i + 1);
                if b[i] == b'}' {
                    return i + 1;
                }
                loop {
                    i = string(b, ws(b, i));
                    i = ws(b, i);
                    assert_eq!(b[i], b':', "expected ':' at {i}");
                    i = validate(b, i + 1);
                    i = ws(b, i);
                    match b[i] {
                        b',' => i += 1,
                        b'}' => return i + 1,
                        c => panic!("expected ',' or '}}' at {i}, got {}", c as char),
                    }
                }
            }
            b'[' => {
                i = ws(b, i + 1);
                if b[i] == b']' {
                    return i + 1;
                }
                loop {
                    i = validate(b, i);
                    i = ws(b, i);
                    match b[i] {
                        b',' => i += 1,
                        b']' => return i + 1,
                        c => panic!("expected ',' or ']' at {i}, got {}", c as char),
                    }
                }
            }
            b'"' => string(b, i),
            _ => {
                for lit in ["true", "false", "null"] {
                    if b[i..].starts_with(lit.as_bytes()) {
                        return i + lit.len();
                    }
                }
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                assert!(i > start, "expected a value at {start}");
                i
            }
        }
    }

    #[test]
    fn export_parses_and_contains_expected_keys() {
        let r = export_scale_up();

        // The JSON is one complete well-formed value.
        let b = r.json.as_bytes();
        let end = validate(b, 0);
        assert_eq!(end, b.len(), "trailing bytes after the JSON value");

        // Counters from every layer: MBs, switch, hosts.
        for key in ["mb_a.packets", "mb_b.packets", "switch.flow_mods", "dst.delivered"] {
            assert!(r.json.contains(&format!("\"{key}\"")), "missing counter {key}:\n{}", r.json);
        }
        // Run-level gauges and the mirrored latency histogram.
        for key in ["recorder.events_retained", "sim.end_ms"] {
            assert!(r.json.contains(&format!("\"{key}\"")), "missing gauge {key}");
        }
        // Nothing fell out of the ring, and each of the 2 000 injected
        // packets is in it as one packet-processed event.
        assert!(r.json.contains("\"recorder.events_evicted\":0"), "{}", r.json);
        assert!(r.json.contains("\"recorder.packets_processed\":2000"), "{}", r.json);
        assert!(r.json.contains("\"mb_a.pkt_latency\""), "latency histogram exported");

        // Prometheus text carries the sanitized equivalents.
        assert!(r.prometheus.contains("# TYPE mb_a_packets counter"), "{}", r.prometheus);
        assert!(r.prometheus.contains("mb_a_pkt_latency_count"), "{}", r.prometheus);
        assert!(r.prometheus.contains("# TYPE recorder_events_retained gauge"));

        // The op timeline rendered with both endpoints as columns.
        assert!(r.timeline.contains("issued("), "{}", r.timeline);
        assert!(r.timeline.contains("mb:mb_a"), "{}", r.timeline);
        assert!(r.timeline.contains("mb:mb_b"), "{}", r.timeline);

        // The online invariant monitor verified the whole run.
        assert!(r.violations.is_empty(), "invariant violations: {:?}", r.violations);

        // Phase attribution made it into the registry: the move's
        // transfer phase was observed and summarized.
        for key in ["phase.transfer_ms", "phase.total_ms", "phase.commit_delete_ms"] {
            assert!(r.json.contains(&format!("\"{key}\"")), "missing histogram {key}");
        }
        assert!(r.json.contains("\"phase.total_ms.p95\""), "missing percentile gauge");
        assert!(r.json.contains("\"monitor.violations\""), "missing violations gauge");

        // Health snapshots were captured while the run progressed and
        // serialize as balanced JSON.
        assert!(r.health_text.contains("== health @"), "{}", r.health_text);
        assert!(r.health_text.contains("shard0:"), "{}", r.health_text);
        let hb = r.health_json.as_bytes();
        assert_eq!(validate(hb, 0), hb.len(), "health JSON has trailing bytes");
        assert!(r.health_json.contains("\"violations\":0"), "{}", r.health_json);
    }

    /// A hand-rolled reader for the Prometheus text exposition format,
    /// strict about the histogram contract: every `# TYPE x histogram`
    /// must be followed by `x_bucket{le="..."}` series with
    /// non-decreasing cumulative counts, a final `le="+Inf"` bucket,
    /// and `x_sum` / `x_count` samples where `x_count` equals the
    /// `+Inf` bucket.
    fn check_histogram_exposition(prom: &str) -> usize {
        let lines: Vec<&str> = prom.lines().collect();
        let mut checked = 0;
        for (i, line) in lines.iter().enumerate() {
            let Some(rest) = line.strip_prefix("# TYPE ") else { continue };
            let Some(name) = rest.strip_suffix(" histogram") else { continue };
            let mut buckets: Vec<(f64, u64)> = Vec::new();
            let mut sum = None;
            let mut count = None;
            for l in &lines[i + 1..] {
                if l.starts_with("# TYPE ") {
                    break;
                }
                if let Some(r) = l.strip_prefix(&format!("{name}_bucket{{le=\"")) {
                    let (le, c) = r.split_once("\"} ").expect("bucket sample shape");
                    let bound =
                        if le == "+Inf" { f64::INFINITY } else { le.parse().expect("le bound") };
                    buckets.push((bound, c.trim().parse().expect("bucket count")));
                } else if let Some(r) = l.strip_prefix(&format!("{name}_sum ")) {
                    sum = Some(r.trim().parse::<f64>().expect("sum"));
                } else if let Some(r) = l.strip_prefix(&format!("{name}_count ")) {
                    count = Some(r.trim().parse::<u64>().expect("count"));
                }
            }
            assert!(!buckets.is_empty(), "{name}: no _bucket series");
            for w in buckets.windows(2) {
                assert!(w[0].0 < w[1].0, "{name}: le bounds must increase");
                assert!(w[0].1 <= w[1].1, "{name}: cumulative counts must not decrease");
            }
            let (last_le, last_count) = *buckets.last().expect("nonempty");
            assert!(last_le.is_infinite(), "{name}: missing +Inf bucket");
            assert_eq!(count, Some(last_count), "{name}: _count must equal the +Inf bucket");
            assert!(sum.is_some(), "{name}: missing _sum");
            checked += 1;
        }
        checked
    }

    /// Satellite: the exported exposition text satisfies the histogram
    /// contract for every histogram family — including the per-phase
    /// latency histograms this PR adds.
    #[test]
    fn prometheus_exposition_histograms_are_well_formed() {
        let r = export_scale_up();
        let checked = check_histogram_exposition(&r.prometheus);
        assert!(checked >= 3, "expected several histogram families, checked {checked}");
        assert!(
            r.prometheus.contains("phase_transfer_ms_bucket{le=\"+Inf\"}"),
            "phase histogram missing from exposition:\n{}",
            r.prometheus
        );
    }
}
