//! Behavioral tests of the `MbNode` processing model: queueing and
//! service times, get/packet interleaving, replay side-effect
//! suppression, and off-path shared exports.

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::nodes::{ControllerCosts, ControllerNode, Host, MbNode};
use openmb_core::Request;
use openmb_mb::{CostModel, Middlebox};
use openmb_middleboxes::{DummyMb, Firewall, Ips, LoadBalancer, Monitor, Nat, Proxy, ReDecoder};
use openmb_simnet::obs::{Recorder, SpanEvent};
use openmb_simnet::{Ctx, Frame, Metrics, Node, Sim, SimDuration, SimTime};
use openmb_types::crypto::VendorKey;
use openmb_types::wire::{self, ChunkClass, Message};
use openmb_types::{
    ConfigValue, EncryptedChunk, FlowKey, HeaderFieldList, HierarchicalKey, MbId, NodeId, OpId,
    Packet, StateChunk, StateStats,
};
use std::net::Ipv4Addr;

/// Captures control messages the MB sends "to the controller".
#[derive(Default)]
struct CtrlProbe {
    msgs: Vec<(SimTime, Message)>,
    /// Messages per received frame, in arrival order.
    frames: Vec<usize>,
}

impl Node for CtrlProbe {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, frame: Frame) {
        if let Frame::Control(m) = frame {
            // Mirror the real controller: a coalesced frame counts as
            // its contents.
            let before = self.msgs.len();
            match *m {
                Message::Batch { msgs } => {
                    self.msgs.extend(msgs.into_iter().map(|m| (ctx.now(), m)));
                }
                m => self.msgs.push((ctx.now(), m)),
            }
            self.frames.push(self.msgs.len() - before);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn key(i: u16) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, (i % 250) as u8 + 1),
        1000 + i,
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    )
}

/// Per-packet processing latencies (ns) the run recorded, in order.
fn latencies(sim: &Sim) -> Vec<u64> {
    let dump = sim.recorder().dump();
    assert_eq!(dump.evicted, 0);
    dump.events
        .iter()
        .filter_map(|e| match e.event {
            SpanEvent::PacketProcessed { latency_ns, .. } => Some(latency_ns),
            _ => None,
        })
        .collect()
}

/// ctrl(0) — mb(1) — sink(2)
fn world<M: Middlebox + 'static>(logic: M) -> (Sim, NodeId, NodeId, NodeId) {
    let mut sim = Sim::new();
    sim.set_recorder(Recorder::enabled(4096));
    let ctrl = sim.add_node(Box::new(CtrlProbe::default()));
    let mb = sim
        .add_node(Box::new(MbNode::new("mb", logic).with_controller(ctrl).with_egress(NodeId(2))));
    let sink = sim.add_node(Box::new(Host::new("sink")));
    sim.add_link(ctrl, mb, SimDuration::from_micros(10), 0);
    sim.add_link(mb, sink, SimDuration::from_micros(10), 0);
    (sim, ctrl, mb, sink)
}

#[test]
fn packets_are_serviced_fifo_with_service_time() {
    // Monitor service time = 90 µs; 3 packets arriving together leave
    // 90 µs apart and latency grows with queue position.
    let (mut sim, _ctrl, mb, sink) = world(Monitor::new());
    for i in 0..3u64 {
        sim.inject_frame(
            SimTime(0),
            NodeId(9_999_999 % 3),
            mb,
            Frame::Data(Packet::new(i + 1, key(i as u16), vec![0u8; 10])),
        );
    }
    sim.run(10_000);
    let s: &Host = sim.node_as(sink);
    let times: Vec<u64> = s.received.iter().map(|(t, _)| t.0).collect();
    assert_eq!(times.len(), 3);
    assert_eq!(times[1] - times[0], 90_000, "one service time apart");
    assert_eq!(times[2] - times[1], 90_000);
    let lats = latencies(&sim);
    assert_eq!(lats[0], 90_000);
    assert_eq!(lats[1], 180_000, "queueing included in latency");
}

#[test]
fn unrecorded_run_keeps_no_per_packet_table() {
    // With the recorder off (the default), what a run leaves behind is
    // the registry, keyed by metric name: ten times the packets bump
    // the same keys and nothing else grows.
    let keys = |n: u64| {
        let (mut sim, _ctrl, mb, sink) = world(Monitor::new());
        // `world` records for the latency tests; back to `Sim::new()`'s default.
        sim.set_recorder(Recorder::disabled());
        for i in 0..n {
            let pkt = Packet::new(i + 1, key((i % 50) as u16), vec![0u8; 10]);
            sim.inject_frame(SimTime(i * 100_000), NodeId(0), mb, Frame::Data(pkt));
        }
        sim.run(1_000_000);
        assert_eq!(sim.node_as::<Host>(sink).received.len() as u64, n);
        assert!(sim.recorder().is_empty());
        let reg = sim.metrics.registry();
        assert_eq!(reg.counter("mb.packets"), n);
        assert_eq!(reg.histogram("mb.pkt_latency").unwrap().count(), n);
        reg.counters().count() + reg.gauges().count() + reg.histograms().count()
    };
    assert_eq!(keys(100), keys(1000));
}

#[test]
fn node_metrics_follow_a_replaced_registry() {
    // A benchmark replaces `sim.metrics` between ops. The names the node
    // and the sink resolved against the old registry must write the new
    // one from its first packet on.
    let (mut sim, _ctrl, mb, _sink) = world(Monitor::new());
    let mut id = 0;
    let mut send = |sim: &mut Sim, n: u64| {
        let start = sim.now().0;
        for i in 0..n {
            id += 1;
            let pkt = Packet::new(id, key(id as u16), vec![0u8; 10]);
            sim.inject_frame(SimTime(start + i * 100_000), NodeId(0), mb, Frame::Data(pkt));
        }
        sim.run(1_000_000);
    };
    send(&mut sim, 3);
    let old = std::mem::replace(&mut sim.metrics, Metrics::new());
    assert_eq!(old.counter("mb.packets"), 3);
    send(&mut sim, 2);
    let reg = sim.metrics.registry();
    assert_eq!(reg.counter("mb.packets"), 2);
    assert_eq!(reg.counter("sink.delivered"), 2);
    assert_eq!(reg.gauge("mb.queue_depth"), Some(0.0));
    assert_eq!(reg.gauge("mb.busy"), Some(0.0));
    assert_eq!(reg.histogram("mb.pkt_latency").map(|h| h.count()), Some(2));
    assert_eq!(old.counter("mb.packets"), 3);
}

#[test]
fn get_streams_chunks_then_acks() {
    let mut monitor = Monitor::new();
    let mut fx = openmb_mb::Effects::normal();
    for i in 0..10u16 {
        monitor.process_packet(
            SimTime(u64::from(i)),
            &Packet::new(u64::from(i), key(i), vec![0u8; 10]),
            &mut fx,
        );
    }
    let (mut sim, ctrl, mb, _sink) = world(monitor);
    sim.inject_frame(
        SimTime(0),
        ctrl,
        mb,
        Frame::control(Message::GetReportPerflow { op: OpId(5), key: HeaderFieldList::any() }),
    );
    sim.run(100_000);
    let probe: &CtrlProbe = sim.node_as(ctrl);
    let chunks =
        probe.msgs.iter().filter(|(_, m)| matches!(m, Message::Chunk { op: OpId(5), .. })).count();
    assert_eq!(chunks, 10);
    let last = probe.msgs.last().unwrap();
    assert!(
        matches!(last.1, Message::GetAck { op: OpId(5), count: 10 }),
        "GetAck terminates the stream: {:?}",
        last.1
    );
    // Chunks are spaced by the serialization cost (batch = 1 for prads).
    let chunk_times: Vec<u64> = probe
        .msgs
        .iter()
        .filter(|(_, m)| matches!(m, Message::Chunk { .. }))
        .map(|(t, _)| t.0)
        .collect();
    assert!(chunk_times.windows(2).all(|w| w[1] > w[0]), "streamed, not batched");
}

/// A Monitor holding `n` flows.
fn monitor_with(n: u16) -> Monitor {
    let mut monitor = Monitor::new();
    let mut fx = openmb_mb::Effects::normal();
    for i in 0..n {
        let pkt = Packet::new(u64::from(i), key(i), vec![0u8; 10]);
        monitor.process_packet(SimTime(u64::from(i)), &pkt, &mut fx);
    }
    monitor
}

/// Whatever the service quantum, a DES get sends the runs
/// `wire::RunCutter` cuts over the whole get: a record waits for the
/// quantum that serializes its run's last record, and the `GetAck`
/// rides in the frame with the final runs.
#[test]
fn get_runs_span_service_quanta() {
    const N: usize = 70;
    let op = OpId(5);
    let run_len = wire::run_len(N);
    assert_eq!(run_len, 3);
    let chunks = monitor_with(N as u16).get_report_perflow(op, &HeaderFieldList::any()).unwrap();
    let mut cut = wire::RunCutter::new(op, N);
    let mut expected: Vec<Message> = chunks.into_iter().filter_map(|c| cut.push(c)).collect();
    expected.extend(cut.finish());
    assert_eq!(expected.len(), N.div_ceil(run_len));
    expected.push(Message::GetAck { op, count: N as u32 });
    let link = SimDuration::from_micros(10);

    for get_batch in [1, 16] {
        let logic = monitor_with(N as u16);
        let costs = CostModel { get_batch, ..logic.costs() };
        let (mut sim, ctrl, mb, _sink) = world(logic);
        sim.node_as_mut::<MbNode<Monitor>>(mb).set_cost_override(costs);
        let get = Message::GetReportPerflow { op, key: HeaderFieldList::any() };
        sim.inject_frame(SimTime(0), ctrl, mb, Frame::control(get));
        sim.run(1_000_000);
        let probe: &CtrlProbe = sim.node_as(ctrl);
        let sent: Vec<&Message> = probe.msgs.iter().map(|(_, m)| m).collect();
        assert_eq!(sent, expected.iter().collect::<Vec<_>>(), "get_batch {get_batch}");

        // A frame leaves no earlier than the serialization of its first
        // run's last record: the scan, then one serialization per record
        // up to and including it.
        let (mut first, mut records) = (0, 0);
        for &len in &probe.frames {
            let (at, head) = &probe.msgs[first];
            let done = records + head.run_keys().count();
            let ready = link + costs.scan_cost(N) + costs.serialize_cost(done);
            assert!(*at >= SimTime(ready.0), "get_batch {get_batch}: run {done} left early");
            let frame = &probe.msgs[first..first + len];
            records += frame.iter().map(|(_, m)| m.run_keys().count()).sum::<usize>();
            first += len;
        }
        let last = *probe.frames.last().unwrap();
        assert!(last >= 2, "get_batch {get_batch}: the GetAck rides with the final runs");
    }
}

#[test]
fn replay_suppresses_external_side_effects() {
    // A reprocess event carries a packet; the replay must not forward it
    // to the egress, but must update state.
    let (mut sim, ctrl, mb, sink) = world(Monitor::new());
    let pkt = Packet::new(77, key(1), vec![0u8; 10]);
    sim.inject_frame(
        SimTime(0),
        ctrl,
        mb,
        Frame::control(Message::ReprocessPacket { op: OpId(1), key: pkt.key, packet: pkt }),
    );
    sim.run(10_000);
    let s: &Host = sim.node_as(sink);
    assert!(s.received.is_empty(), "replayed packet must not be emitted");
    let node: &MbNode<Monitor> = sim.node_as(mb);
    assert_eq!(node.events_replayed, 1);
    assert_eq!(node.logic.perflow_entries(), 1, "state still updated");
    assert_eq!(node.logic.stat().total_packets, 0, "shared counters untouched by replay");
    // Replay appears in the timeline as EventReplayed.
    assert!(sim.recorder().dump().events.iter().any(|e| e.event == SpanEvent::EventReplayed));
}

/// A packet of a flow still marked moved replays alike on the DES and
/// through the dispatch that serves `ReprocessPacket` over TCP: both
/// run `replay_packet`, so they send the same events.
#[test]
fn a_replayed_packet_raises_the_same_events_in_both_embeddings() {
    let marked = || {
        let mut m = Monitor::new();
        let first = Packet::new(1, key(1), vec![0u8; 10]);
        m.process_packet(SimTime(0), &first, &mut openmb_mb::Effects::normal());
        m.get_report_perflow(OpId(9), &HeaderFieldList::any()).unwrap();
        m
    };
    let pkt = Packet::new(2, key(1), vec![0u8; 10]);
    let replay = Message::ReprocessPacket { op: OpId(9), key: pkt.key, packet: pkt };
    let want = openmb_mb::handle_southbound(&mut marked(), replay.clone(), SimTime::ZERO);
    assert!(
        matches!(
            want[..],
            [Message::EventMsg { event: wire::Event::Reprocess { op: OpId(9), .. } }]
        ),
        "{want:?}"
    );
    let (mut sim, ctrl, mb, sink) = world(marked());
    sim.inject_frame(SimTime(0), ctrl, mb, Frame::control(replay));
    sim.run(10_000);
    let sent: Vec<&Message> = sim.node_as::<CtrlProbe>(ctrl).msgs.iter().map(|(_, m)| m).collect();
    assert_eq!(sent, want.iter().collect::<Vec<_>>());
    assert!(sim.node_as::<Host>(sink).received.is_empty());
}

#[test]
fn shared_export_runs_off_the_packet_path() {
    // A decoder with a 4 MiB cache: exporting takes ~290 ms of modeled
    // serialization, during which packets must keep flowing at normal
    // latency.
    let mut dec = ReDecoder::new(4 << 20);
    let mut fx = openmb_mb::Effects::normal();
    // Fill the cache so the export is heavy.
    for i in 0..(2 << 10) {
        dec.process_packet(
            SimTime(i),
            &Packet::new(i, key((i % 100) as u16), vec![0xAB; 1024]),
            &mut fx,
        );
    }
    let (mut sim, ctrl, mb, sink) = world(dec);
    sim.inject_frame(
        SimTime(0),
        ctrl,
        mb,
        Frame::control(Message::GetSupportShared { op: OpId(9) }),
    );
    // Packets during the export window.
    for i in 0..50u64 {
        sim.inject_frame(
            SimTime(1_000_000 + i * 2_000_000),
            NodeId(0),
            mb,
            Frame::Data(Packet::new(1000 + i, key((i % 20) as u16), vec![0u8; 100])),
        );
    }
    sim.run(1_000_000);
    let probe: &CtrlProbe = sim.node_as(ctrl);
    let shared_at = probe
        .msgs
        .iter()
        .find(|(_, m)| matches!(m, Message::SharedChunk { op: OpId(9), .. }))
        .map(|(t, _)| *t)
        .expect("shared chunk exported");
    assert!(
        shared_at > SimTime(100_000_000),
        "a multi-MiB export takes its serialization time: {shared_at}"
    );
    let s: &Host = sim.node_as(sink);
    assert_eq!(s.received.len(), 50, "packets flowed during the export");
    let max = latencies(&sim).iter().map(|&ns| ns as f64 / 1e6).fold(0.0f64, f64::max);
    assert!(max < 2.0, "export must not block packets (max latency {max} ms)");
}

/// ctrl(0) — mb(1, batch_max=n) — sink(2)
fn world_batched<M: Middlebox + 'static>(logic: M, batch_max: usize) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new();
    sim.set_recorder(Recorder::enabled(4096));
    let ctrl = sim.add_node(Box::new(CtrlProbe::default()));
    let mb = sim.add_node(Box::new(
        MbNode::new("mb", logic)
            .with_controller(ctrl)
            .with_egress(NodeId(2))
            .with_batch_max(batch_max),
    ));
    let sink = sim.add_node(Box::new(Host::new("sink")));
    sim.add_link(ctrl, mb, SimDuration::from_micros(10), 0);
    sim.add_link(mb, sink, SimDuration::from_micros(10), 0);
    (sim, mb, sink)
}

#[test]
fn batched_delivery_matches_serial() {
    // The same bursty trace through batch_max 1 and batch_max 8 must
    // deliver the identical packet sequence, write identical logs, and
    // leave the middlebox in identical state — batching changes how the
    // queue drains, never what the middlebox computes.
    let run = |batch_max: usize| {
        let (mut sim, mb, sink) = world_batched(Monitor::new(), batch_max);
        let mut id = 0u64;
        for burst in 0..5u64 {
            let pkts: Vec<Packet> = (0..16)
                .map(|i| {
                    id += 1;
                    Packet::new(id, key((i % 4) as u16), vec![0u8; 20])
                })
                .collect();
            sim.inject_burst(SimTime(burst * 3_000_000), NodeId(0), mb, pkts);
        }
        sim.run(100_000_000);
        let delivered: Vec<Packet> =
            sim.node_as::<Host>(sink).received.iter().map(|(_, p)| p.clone()).collect();
        let node: &MbNode<Monitor> = sim.node_as(mb);
        let logs: Vec<_> = node.logs.clone();
        let processed = node.packets_processed;
        let entries = node.logic.perflow_entries();
        let stats = node.logic.stats(&HeaderFieldList::any());
        let latency_samples = latencies(&sim).len();
        (delivered, logs, processed, entries, stats, latency_samples)
    };
    let serial = run(1);
    let batched = run(8);
    assert_eq!(serial.0, batched.0, "delivered packet sequence must be identical");
    assert_eq!(serial.1, batched.1, "log lines must be identical");
    assert_eq!(serial.2, batched.2, "packets_processed must match");
    assert_eq!(serial.3, batched.3, "per-flow entry counts must match");
    assert_eq!(serial.4, batched.4, "state stats must match");
    assert_eq!(serial.5, batched.5, "per-packet latency samples must be per-packet");
    assert_eq!(serial.2, 80);
}

#[test]
fn batch_run_occupies_one_service_slot() {
    // A burst of 8 at batch_max 8: the first frame's arrival finds an
    // idle node (claimed alone), the remaining 7 queue behind it and
    // drain as one 7-packet slot — so the tail emerges together at
    // 1×90µs + 7×90µs, not spaced one service time apart.
    let (mut sim, mb, sink) = world_batched(Monitor::new(), 8);
    let pkts: Vec<Packet> =
        (0..8u64).map(|i| Packet::new(i + 1, key((i % 2) as u16), vec![0u8; 10])).collect();
    sim.inject_burst(SimTime(0), NodeId(0), mb, pkts);
    sim.run(10_000_000);
    let s: &Host = sim.node_as(sink);
    let times: Vec<u64> = s.received.iter().map(|(t, _)| t.0).collect();
    assert_eq!(times.len(), 8);
    assert_eq!(times[0], 90_000 + 10_000, "head of the burst serviced alone");
    for t in &times[1..] {
        assert_eq!(*t, 8 * 90_000 + 10_000, "tail drains in one combined slot");
    }
    let node: &MbNode<Monitor> = sim.node_as(mb);
    assert_eq!(node.packets_processed, 8);
    assert_eq!(latencies(&sim).len(), 8, "latency stays per-packet");
}

#[test]
fn errors_propagate_as_error_msgs() {
    let (mut sim, ctrl, mb, _sink) = world(Monitor::new());
    // Monitors keep no per-flow *supporting* state: a put is an error.
    let vendor = openmb_types::crypto::VendorKey::derive("prads");
    let chunk = openmb_types::StateChunk::new(
        HeaderFieldList::exact(key(1)),
        openmb_types::EncryptedChunk::seal(&vendor, 1, b"x"),
    );
    sim.inject_frame(
        SimTime(0),
        ctrl,
        mb,
        Frame::control(Message::PutSupportPerflow { op: OpId(3), chunk, rest: Vec::new() }),
    );
    sim.run(10_000);
    let probe: &CtrlProbe = sim.node_as(ctrl);
    assert!(probe.msgs.iter().any(|(_, m)| matches!(m, Message::ErrorMsg { op: OpId(3), .. })));
}

/// A middlebox that answers a per-flow get only through
/// `export_perflow`, which the trait says is enough: its `Vec` gets are
/// the trait's defaults, which find nothing. It exports `flows`
/// supporting records and keeps the keys of the records put into it.
struct ExportOnly {
    flows: u16,
    put: Vec<HeaderFieldList>,
}

impl ExportOnly {
    fn new(flows: u16) -> Self {
        ExportOnly { flows, put: Vec::new() }
    }
}

impl Middlebox for ExportOnly {
    fn mb_type(&self) -> &'static str {
        "export-only"
    }
    fn get_config(
        &self,
        _key: &HierarchicalKey,
    ) -> openmb_types::Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        Ok(Vec::new())
    }
    fn set_config(
        &mut self,
        _key: &HierarchicalKey,
        _values: Vec<ConfigValue>,
    ) -> openmb_types::Result<()> {
        Ok(())
    }
    fn del_config(&mut self, _key: &HierarchicalKey) -> openmb_types::Result<()> {
        Ok(())
    }
    fn export_perflow(
        &mut self,
        class: ChunkClass,
        _op: OpId,
        _key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> openmb_types::Result<()> {
        if class == ChunkClass::Support {
            let vendor = VendorKey::derive("export-only");
            for i in 0..self.flows {
                let body = EncryptedChunk::seal(&vendor, u64::from(i), &i.to_le_bytes());
                out(usize::from(self.flows), StateChunk::new(HeaderFieldList::exact(key(i)), body));
            }
        }
        Ok(())
    }
    fn put_support_perflow(&mut self, chunk: StateChunk) -> openmb_types::Result<()> {
        self.put.push(chunk.key);
        Ok(())
    }
    fn stats(&self, _key: &HeaderFieldList) -> StateStats {
        StateStats::default()
    }
    fn process_packet(&mut self, _now: SimTime, _pkt: &Packet, _fx: &mut openmb_mb::Effects) {}
    fn end_sync(&mut self, _op: OpId) {}
    fn costs(&self) -> CostModel {
        CostModel::default()
    }
    fn perflow_entries(&self) -> usize {
        usize::from(self.flows)
    }
}

/// Moves everything from MB 0 to MB 1 as soon as it starts.
struct MoveAll;

impl ControlApp for MoveAll {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.submit(Request::Move { src: MbId(0), dst: MbId(1), key: HeaderFieldList::any() });
    }
}

/// A DES move reaches the get a middlebox implements: one that
/// overrides only `export_perflow` moves every record.
#[test]
fn an_export_only_middlebox_moves_over_the_des() {
    const FLOWS: u16 = 40;
    let mut sim = Sim::new();
    let mut ctrl = ControllerNode::new(
        ControllerConfig { quiesce_after: SimDuration::from_millis(5), ..Default::default() },
        ControllerCosts::default(),
        Box::new(MoveAll),
    );
    let (src, dst) = (NodeId(1), NodeId(2));
    ctrl.register_mb(src);
    ctrl.register_mb(dst);
    let ctrl = sim.add_node(Box::new(ctrl));
    for (node, logic) in [(src, ExportOnly::new(FLOWS)), (dst, ExportOnly::new(0))] {
        assert_eq!(sim.add_node(Box::new(MbNode::new("mb", logic).with_controller(ctrl))), node);
        sim.add_link(ctrl, node, SimDuration::from_micros(100), 1_000_000_000);
    }
    sim.run(u64::MAX);
    let done = &sim.node_as::<ControllerNode>(ctrl).completions;
    assert!(
        matches!(done[..], [(_, Completion::MoveComplete { chunks_moved, .. })] if chunks_moved == FLOWS.into()),
        "{done:?}"
    );
    let want: Vec<HeaderFieldList> = (0..FLOWS).map(|i| HeaderFieldList::exact(key(i))).collect();
    assert_eq!(sim.node_as::<MbNode<ExportOnly>>(dst).logic.put, want);
}

/// Packets that leave per-flow state in every type below: web flows,
/// some to the load balancer's VIP, HTTP request lines on some.
fn with_flows<M: Middlebox>(mut mb: M) -> M {
    let mut fx = openmb_mb::Effects::normal();
    for i in 0..40u16 {
        let dst = if i % 2 == 0 { lb_vip() } else { Ipv4Addr::new(93, 184, 216, 1) };
        let flow = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1 + i as u8), 3000 + i, dst, 80);
        let mut pkt = Packet::new(u64::from(i) + 1, flow, b"GET /index.html HTTP/1.1".to_vec());
        pkt.meta.http_request = true;
        mb.process_packet(SimTime(u64::from(i)), &pkt, &mut fx);
        fx.reset();
    }
    mb
}

fn lb_vip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 100)
}

/// For each class, each service quantum of 1 and 16 records: the
/// messages a DES get sends, in order, are what the shared dispatch
/// emits for the same get on an identical copy of the middlebox.
fn check_des_get<M: Middlebox + 'static>(name: &str, mk: impl Fn() -> M) {
    let mut records = 0;
    for get in [
        Message::GetSupportPerflow { op: OpId(5), key: HeaderFieldList::any() },
        Message::GetReportPerflow { op: OpId(5), key: HeaderFieldList::any() },
    ] {
        let want = openmb_mb::southbound::handle_southbound(&mut mk(), get.clone(), SimTime::ZERO);
        records += want.iter().map(|m| m.run_keys().count()).sum::<usize>();
        for get_batch in [1, 16] {
            let logic = mk();
            let costs = CostModel { get_batch, ..logic.costs() };
            let (mut sim, ctrl, mb, _sink) = world(logic);
            sim.node_as_mut::<MbNode<M>>(mb).set_cost_override(costs);
            sim.inject_frame(SimTime(0), ctrl, mb, Frame::control(get.clone()));
            sim.run(1_000_000);
            let sent: Vec<&Message> =
                sim.node_as::<CtrlProbe>(ctrl).msgs.iter().map(|(_, m)| m).collect();
            assert_eq!(
                sent,
                want.iter().collect::<Vec<_>>(),
                "{name} {}, get_batch {get_batch}",
                get.kind_name()
            );
        }
    }
    assert!(records > 0, "{name}: the gets carry records");
}

#[test]
fn des_gets_send_what_the_dispatch_emits() {
    let backends = [Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2)];
    check_des_get("monitor", || with_flows(Monitor::new()));
    check_des_get("ips", || with_flows(Ips::new()));
    check_des_get("firewall", || with_flows(Firewall::new()));
    check_des_get("nat", || with_flows(Nat::new(Ipv4Addr::new(198, 51, 100, 1))));
    check_des_get("proxy", || with_flows(Proxy::new(64)));
    check_des_get("lb", || with_flows(LoadBalancer::new(lb_vip(), &backends)));
    check_des_get("dummy", || with_flows(DummyMb::new()));
    check_des_get("export-only", || ExportOnly::new(40));
}
