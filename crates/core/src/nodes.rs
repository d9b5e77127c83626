//! Simulation embeddings: middleboxes, the controller, and hosts as
//! discrete-event [`Node`]s.
//!
//! [`MbNode`] wraps a [`Middlebox`] with the processing model the
//! evaluation measures: a single work queue with per-item service times
//! from the MB's [`openmb_mb::CostModel`]. Data packets, southbound operations, and
//! event replays all share the queue, and a per-flow `get` is split into
//! service quanta that *interleave* with packet processing — which is
//! why the paper sees only a ≤2 % packet-latency impact during a get
//! (§8.2) instead of a stall, while the get itself scales linearly
//! (Fig 9). Its runs leave each when the quantum that serializes its
//! last record ends.
//! Only that timing lives here (streamed gets, background shared
//! exports, queued replays); what every request *does* to the
//! middlebox, a get's runs and replies included, is
//! [`openmb_mb::southbound::handle_southbound_logged`], the dispatch
//! the TCP embedding runs too.
//!
//! [`ControllerNode`] embeds the [`ControllerCore`] plus the SDN
//! topology/routing module and one control application, mirroring the
//! paper's deployment of the MB controller as a Floodlight module.

use std::collections::VecDeque;

use openmb_mb::{Effects, Middlebox, SharedPutLog};
use openmb_obs::{CounterSlot, GaugeSlot, SpanEvent};
use openmb_openflow::Topology;
use openmb_simnet::{Ctx, Frame, Node, Sim, SimDuration, SimTime};
use openmb_types::sdn::SdnMessage;
use openmb_types::wire::Message;
use openmb_types::{MbId, NodeId, OpId, Packet, StateChunk};

use crate::app::{Api, ApiCtx, ControlApp};
use crate::controller::{coalesce, Action, ControllerConfig, ControllerCore};

const TIMER_WORK: u64 = 1;
/// Timer tokens >= this deliver a completed background shared-state
/// export (serialization runs off the packet path, as in Bro/SmartRE
/// where a helper thread walks the state while the event loop keeps
/// processing packets).
const TIMER_SHARED_BASE: u64 = 1 << 20;

/// One queued unit of middlebox work.
enum Work {
    /// A data packet (normal processing).
    Packet { pkt: Packet, arrived: SimTime },
    /// A reprocess event to replay (§4.2.1 step 3).
    Replay { pkt: Packet },
    /// One service quantum of a streaming per-flow get: serialize up
    /// to `get_batch` more records, then send every run whose last
    /// record is serialized (all of `runs` on the last quantum).
    GetBatch {
        sub: OpId,
        /// The dispatch's reply not sent yet: runs, then the `GetAck`.
        runs: VecDeque<Message>,
        /// Records not serialized yet.
        records: usize,
        /// Records serialized but not sent: the head of `runs`.
        done: usize,
        /// Entries resident at scan time; the first quantum pays their
        /// linear scan, later ones 0.
        scanned_entries: usize,
        /// The request's name, for its `Served` span.
        kind: &'static str,
    },
    /// Any other southbound message, processed atomically.
    Msg(Message),
}

/// A middlebox embedded in the simulation.
///
/// Generic over the concrete middlebox type so experiments can downcast
/// (`sim.node_as::<MbNode<Monitor>>(id)`) and inspect internal state
/// after a run.
pub struct MbNode<M: Middlebox> {
    /// The middlebox logic (public: experiments inspect it post-run).
    pub logic: M,
    /// Controller attachment (protocol messages + events go here).
    controller: Option<NodeId>,
    /// Where processed packets are emitted (usually the attached switch).
    egress: Option<NodeId>,
    queue: VecDeque<Work>,
    busy: bool,
    label: String,
    /// Collected log lines (conn.log etc.), keyed by log name — the
    /// §8.2 correctness experiments diff these.
    pub logs: Vec<openmb_mb::LogEntry>,
    /// Packets processed (normal, not replay).
    pub packets_processed: u64,
    /// Events replayed.
    pub events_replayed: u64,
    /// Background shared exports awaiting their serialization delay,
    /// keyed by timer token: the reply and the request's name.
    pending_shared: std::collections::HashMap<u64, (Message, &'static str)>,
    next_shared_token: u64,
    /// Optional override of the logic's cost model (experiments use
    /// this to, e.g., measure event generation below saturation).
    cost_override: Option<openmb_mb::CostModel>,
    /// Service time of the work item currently in progress.
    current_service: SimDuration,
    /// Accumulated busy time executing puts (ns) — Fig 9(b) measures the
    /// destination's put-processing time, independent of how fast the
    /// source's get stream paces chunk arrivals.
    pub busy_put_ns: u64,
    /// Accumulated busy time processing packets (ns).
    pub busy_packet_ns: u64,
    /// Shared-put dedup + pre-put snapshots for `DeleteState` rollback.
    /// Lives with the logic tables (survives a crash of the volatile
    /// runtime state — see `on_crash`).
    shared_log: SharedPutLog,
    /// Per-node metric names, formatted once at construction so the
    /// per-packet/per-event hot paths never allocate a key string, and
    /// resolved to registry slots on their first write so they never
    /// look one up.
    metric_names: MetricNames,
    /// Largest packet train handed to `process_batch` in one service
    /// slot (1 by default).
    batch_max: usize,
    /// Packets claimed by the in-progress service slot: pump counts the
    /// run of consecutive `Work::Packet` items at the queue front and
    /// on_timer pops exactly that many (0 when it claimed other work).
    pending_batch: usize,
    /// Reused packet buffer for batched delivery (no per-batch Vec).
    batch_buf: Vec<Packet>,
    /// Arrival times matching `batch_buf`, for per-packet latency.
    batch_arrivals: Vec<SimTime>,
    /// Reused effects collector for batched delivery.
    fx_scratch: Effects,
}

/// Precomputed `"<label>.<metric>"` names for [`MbNode`]'s hot paths.
/// The histogram is observed by name once per service slot.
struct MetricNames {
    events_raised: CounterSlot,
    events_replayed: CounterSlot,
    packets: CounterSlot,
    queue_depth: GaugeSlot,
    busy: GaugeSlot,
    pkt_latency: String,
}

impl MetricNames {
    fn new(label: &str) -> Self {
        MetricNames {
            events_raised: CounterSlot::new(format!("{label}.events_raised")),
            events_replayed: CounterSlot::new(format!("{label}.events_replayed")),
            packets: CounterSlot::new(format!("{label}.packets")),
            queue_depth: GaugeSlot::new(format!("{label}.queue_depth")),
            busy: GaugeSlot::new(format!("{label}.busy")),
            pkt_latency: format!("{label}.pkt_latency"),
        }
    }
}

impl<M: Middlebox + 'static> MbNode<M> {
    /// Wrap `logic`; connect it with the `with_controller`/`with_egress`
    /// builders.
    pub fn new(label: impl Into<String>, logic: M) -> Self {
        let label = label.into();
        MbNode {
            logic,
            controller: None,
            egress: None,
            queue: VecDeque::new(),
            busy: false,
            metric_names: MetricNames::new(&label),
            label,
            logs: Vec::new(),
            packets_processed: 0,
            events_replayed: 0,
            pending_shared: std::collections::HashMap::new(),
            next_shared_token: TIMER_SHARED_BASE,
            cost_override: None,
            current_service: SimDuration::ZERO,
            busy_put_ns: 0,
            busy_packet_ns: 0,
            shared_log: SharedPutLog::new(),
            batch_max: 1,
            pending_batch: 0,
            batch_buf: Vec::new(),
            batch_arrivals: Vec::new(),
            fx_scratch: Effects::normal(),
        }
    }

    /// Let the node coalesce up to `n` consecutive queued packets into
    /// one `process_batch` call. Service time stays `n × per_packet`
    /// (batching amortizes the middlebox's own lookup work, not the
    /// modeled wire cost), so event order is unchanged at `n = 1`.
    pub fn with_batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Set the controller node events and replies are sent to.
    pub fn with_controller(mut self, controller: NodeId) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Set the egress neighbor processed packets are forwarded to.
    pub fn with_egress(mut self, egress: NodeId) -> Self {
        self.egress = Some(egress);
        self
    }

    /// Override the cost model on an already-built node (experiments).
    pub fn set_cost_override(&mut self, costs: openmb_mb::CostModel) {
        self.cost_override = Some(costs);
    }

    fn costs(&self) -> openmb_mb::CostModel {
        self.cost_override.unwrap_or_else(|| self.logic.costs())
    }

    /// Lines of a named log, in order.
    pub fn log_lines(&self, name: &str) -> Vec<&str> {
        self.logs.iter().filter(|l| l.log == name).map(|l| l.line.as_str()).collect()
    }

    fn service_time(&self, w: &Work) -> SimDuration {
        let c = self.costs();
        match w {
            Work::Packet { .. } | Work::Replay { .. } => c.per_packet,
            Work::GetBatch { records, scanned_entries, .. } => {
                c.serialize_cost((*records).min(c.get_batch)) + c.scan_cost(*scanned_entries)
            }
            Work::Msg(m) => match m {
                // A run is priced per record.
                Message::PutSupportPerflow { rest, .. }
                | Message::PutReportPerflow { rest, .. }
                | Message::ChunkBody { rest, .. } => {
                    c.deserialize_per_chunk.scaled(1 + rest.len() as u64)
                }
                Message::PutSupportShared { chunk, .. }
                | Message::PutReportShared { chunk, .. } => c.shared_cost(chunk.len()),
                Message::ChunkRef { rest, .. } => {
                    SimDuration::from_micros(10).scaled(1 + rest.len() as u64)
                }
                Message::GetStats { .. } => c.scan_cost(self.logic.perflow_entries()),
                Message::GetConfig { .. }
                | Message::SetConfig { .. }
                | Message::DelConfig { .. } => SimDuration::from_micros(100),
                _ => SimDuration::from_micros(10),
            },
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // Publish the load gauges placement reads
        // (`openmb_core::placement::gauge_load`): instantaneous queue
        // depth and busy flag. Pump runs after every enqueue/dequeue,
        // so this is the one place that sees every transition.
        let reg = ctx.metrics.registry_mut();
        reg.set_gauge_at(&mut self.metric_names.queue_depth, self.queue.len() as f64);
        if self.busy {
            reg.set_gauge_at(&mut self.metric_names.busy, 1.0);
            return;
        }
        if let Some(front) = self.queue.front() {
            let mut d = self.service_time(front);
            let mut n = 0;
            if matches!(front, Work::Packet { .. }) {
                // Claim the whole run of consecutive packets at the
                // front: one service slot, K × per_packet long, so
                // the aggregate modeled cost matches serial delivery.
                n = 1;
                while n < self.batch_max && matches!(self.queue.get(n), Some(Work::Packet { .. })) {
                    n += 1;
                }
                d = SimDuration(d.0 * n as u64);
            }
            self.pending_batch = n;
            self.current_service = d;
            self.busy = true;
            ctx.set_timer(d, TIMER_WORK);
        }
        ctx.metrics
            .registry_mut()
            .set_gauge_at(&mut self.metric_names.busy, if self.busy { 1.0 } else { 0.0 });
    }

    fn emit_effects(&mut self, ctx: &mut Ctx<'_>, fx: &mut Effects) {
        for out in fx.drain_outputs() {
            if let Some(egress) = self.egress {
                ctx.send(egress, Frame::Data(out));
            }
        }
        self.logs.extend(fx.take_logs());
        for ev in fx.take_events() {
            ctx.record(None, None, SpanEvent::EventRaised);
            ctx.metrics.incr_at(&mut self.metric_names.events_raised, 1);
            if let Some(c) = self.controller {
                ctx.send(c, Frame::control(Message::EventMsg { event: ev }));
            }
        }
    }

    fn execute(&mut self, ctx: &mut Ctx<'_>, w: Work) {
        match w {
            Work::Packet { .. } => unreachable!("pump claims packets as a batch"),
            Work::Replay { pkt } => {
                let mut fx = openmb_mb::replay_packet(&mut self.logic, ctx.now(), &pkt);
                self.events_replayed += 1;
                ctx.record(None, None, SpanEvent::EventReplayed);
                ctx.metrics.incr_at(&mut self.metric_names.events_replayed, 1);
                self.emit_effects(ctx, &mut fx);
            }
            Work::GetBatch { sub, mut runs, records, done, kind, .. } => {
                let n = records.min(self.costs().get_batch);
                let (records, mut done) = (records - n, done + n);
                // A run spans quanta: the runs this quantum completed
                // leave in one coalesced frame (one length prefix, one
                // scheduler event), and a record of an unfinished run
                // waits for the quantum that serializes the run's last
                // record. The closing GetAck rides with the final runs.
                let last = records == 0;
                let mut msgs = Vec::new();
                while let Some(run) = runs.front() {
                    let len = run.run_keys().count();
                    if !last && len > done {
                        break;
                    }
                    done -= len;
                    msgs.extend(runs.pop_front());
                }
                if !last {
                    // Re-queue at the back so packets interleave.
                    self.queue.push_back(Work::GetBatch {
                        sub,
                        runs,
                        records,
                        done,
                        scanned_entries: 0,
                        kind,
                    });
                }
                let controller = self.controller.expect("get requires a controller");
                match msgs.len() {
                    0 => {}
                    1 => ctx.send(controller, Frame::control(msgs.pop().expect("len 1"))),
                    n => {
                        ctx.record(None, Some(sub.0), SpanEvent::BatchFlushed { count: n as u32 });
                        ctx.send(controller, Frame::control(Message::Batch { msgs }));
                    }
                }
                if last {
                    ctx.record(None, Some(sub.0), SpanEvent::Served { msg: kind });
                }
            }
            Work::Msg(msg) => self.execute_msg(ctx, msg),
        }
    }

    /// Deliver the `n` packets pump claimed as one `process_batch`
    /// call. Per-packet accounting (spans, latency samples, counters)
    /// is unchanged; only the middlebox sees the train at once, and the
    /// latency histogram is looked up once for all of it. All buffers
    /// are reused so the steady state allocates nothing.
    fn execute_packet_batch(&mut self, ctx: &mut Ctx<'_>, n: usize) {
        self.busy_packet_ns += self.current_service.0;
        self.batch_buf.clear();
        self.batch_arrivals.clear();
        for _ in 0..n {
            match self.queue.pop_front() {
                Some(Work::Packet { pkt, arrived }) => {
                    self.batch_arrivals.push(arrived);
                    self.batch_buf.push(pkt);
                }
                _ => unreachable!("pump claimed a run of {n} queued packets"),
            }
        }
        let now = ctx.now();
        let mut fx = std::mem::take(&mut self.fx_scratch);
        fx.reset();
        let pkts = std::mem::take(&mut self.batch_buf);
        self.logic.process_batch(now, &pkts, &mut fx);
        self.batch_buf = pkts;
        self.packets_processed += n as u64;
        let done = self
            .batch_buf
            .iter()
            .zip(&self.batch_arrivals)
            .map(|(pkt, arrived)| (pkt.id, now.since(*arrived)));
        self.packets_done(ctx, done);
        ctx.metrics.incr_at(&mut self.metric_names.packets, n as u64);
        self.emit_effects(ctx, &mut fx);
        self.fx_scratch = fx;
    }

    /// Packets' completions, `(id, latency)` in packet order: a span
    /// each (exact latency, for the timeline readers), then the
    /// `<label>.pkt_latency` histogram, observed in the same order.
    fn packets_done(
        &self,
        ctx: &mut Ctx<'_>,
        done: impl Iterator<Item = (u64, SimDuration)> + Clone,
    ) {
        for (pkt_id, latency) in done.clone() {
            ctx.record(
                None,
                None,
                SpanEvent::PacketProcessed { pkt_id, latency_ns: latency.as_nanos() },
            );
        }
        ctx.metrics.sample_all(&self.metric_names.pkt_latency, done.map(|(_, latency)| latency));
    }

    fn reply(&self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(c) = self.controller {
            ctx.send(c, Frame::control(msg));
        }
    }

    /// The one MB-side dispatch every embedding shares.
    fn dispatch(&mut self, ctx: &Ctx<'_>, msg: Message) -> Vec<Message> {
        openmb_mb::southbound::handle_southbound_logged(
            &mut self.logic,
            &mut self.shared_log,
            msg,
            ctx.now(),
        )
    }

    fn execute_msg(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        for r in self.dispatch(ctx, msg) {
            self.reply(ctx, r);
        }
    }

    /// A state get is answered at arrival, so its moved marks and clone
    /// flags are set at that instant; only when the answer leaves is
    /// the DES's. A per-flow get's runs stream out in service quanta
    /// that interleave with packets. A shared get's reply leaves after
    /// the serialization delay without occupying the packet path: the
    /// export runs on a background thread, as in Bro/SmartRE (the §8.2
    /// RE result: exporting a 500 MB cache leaves per-packet latency
    /// essentially unchanged). An error leaves at once.
    fn serve_get(&mut self, ctx: &mut Ctx<'_>, get: Message) {
        let kind = get.kind_name();
        let scanned_entries = self.logic.perflow_entries();
        let mut replies = self.dispatch(ctx, get);
        match replies.last() {
            Some(&Message::GetAck { op, .. }) => self.queue.push_back(Work::GetBatch {
                sub: op,
                records: replies.iter().map(|m| m.run_keys().count()).sum(),
                runs: replies.into(),
                done: 0,
                scanned_entries,
                kind,
            }),
            Some(shared @ (Message::SharedChunk { .. } | Message::OpAck { .. })) => {
                let len = match shared {
                    Message::SharedChunk { chunk, .. } => chunk.len(),
                    _ => 0,
                };
                let token = self.next_shared_token;
                self.next_shared_token += 1;
                ctx.set_timer(self.costs().shared_cost(len), token);
                self.pending_shared.insert(token, (replies.pop().expect("one reply"), kind));
            }
            _ => replies.into_iter().for_each(|r| self.reply(ctx, r)),
        }
    }

    /// The node's shared-put log, which also owns the destination-side
    /// content store (fault-injection tests poison or pre-warm it).
    pub fn shared_log(&self) -> &SharedPutLog {
        &self.shared_log
    }
}

impl<M: Middlebox + 'static> Node for MbNode<M> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, frame: Frame) {
        match frame {
            Frame::Data(pkt) => {
                self.queue.push_back(Work::Packet { pkt, arrived: ctx.now() });
            }
            Frame::Control(msg) => {
                // A batched frame is its contents: unpack before
                // dispatch so every inner message records its own
                // `Handled` span (keyed by its own sub-op id) and is
                // costed as its own work item — only the wire framing
                // is shared.
                (*msg).for_each_unbatched(|msg| {
                    // One `Handled` span per southbound request, keyed by
                    // the wire message's sub-op id: the controller records
                    // the same id as the `sub` of its parent op, so one op
                    // id yields a cross-node timeline.
                    ctx.record(
                        None,
                        msg.op_id().map(|o| o.0),
                        SpanEvent::Handled { msg: msg.kind_name() },
                    );
                    match msg {
                        get @ (Message::GetSupportPerflow { .. }
                        | Message::GetReportPerflow { .. }
                        | Message::GetSupportShared { .. }
                        | Message::GetReportShared { .. }) => self.serve_get(ctx, get),
                        Message::ReprocessPacket { op: _, key: _, packet } => {
                            self.queue.push_back(Work::Replay { pkt: packet });
                        }
                        other => self.queue.push_back(Work::Msg(other)),
                    }
                });
            }
            Frame::Sdn(_) => panic!("SDN frame delivered to middlebox {}", self.label),
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token >= TIMER_SHARED_BASE {
            if let Some((reply, msg)) = self.pending_shared.remove(&token) {
                let op = reply.op_id().map(|o| o.0);
                self.reply(ctx, reply);
                ctx.record(None, op, SpanEvent::Served { msg });
            }
            return;
        }
        if token != TIMER_WORK {
            return;
        }
        self.busy = false;
        let claimed = std::mem::replace(&mut self.pending_batch, 0);
        if claimed > 0 {
            self.execute_packet_batch(ctx, claimed);
        } else if let Some(w) = self.queue.pop_front() {
            if let Work::Msg(
                Message::PutSupportPerflow { .. }
                | Message::PutReportPerflow { .. }
                | Message::ChunkBody { .. }
                | Message::PutSupportShared { .. }
                | Message::PutReportShared { .. },
            ) = &w
            {
                self.busy_put_ns += self.current_service.0;
            }
            self.execute(ctx, w);
        }
        self.pump(ctx);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile runtime state dies with the process: queued work,
        // in-progress service, and background exports all vanish. The
        // middlebox `logic` keeps its tables — modeling state that a
        // restarted instance recovers from its own checkpoint is out of
        // scope; what matters here is that in-flight protocol exchanges
        // stop mid-stream.
        self.queue.clear();
        self.busy = false;
        self.pending_batch = 0;
        self.batch_buf.clear();
        self.batch_arrivals.clear();
        self.current_service = SimDuration::ZERO;
        self.pending_shared.clear();
        let reg = ctx.metrics.registry_mut();
        reg.set_gauge_at(&mut self.metric_names.queue_depth, 0.0);
        reg.set_gauge_at(&mut self.metric_names.busy, 0.0);
    }

    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        // Nothing to re-arm: the node resumes idle and processes the
        // next frame it receives.
    }

    fn name(&self) -> String {
        format!("mb:{}", self.label)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Per-message processing costs at the controller, driving the Fig 10
/// scalability results (the paper's profile: most controller time is
/// socket reads + synchronization per state chunk).
#[derive(Debug, Clone, Copy)]
pub struct ControllerCosts {
    /// Base handling cost per message.
    pub per_message: SimDuration,
    /// Extra per state chunk brokered (bookkeeping, thread handoff).
    pub per_chunk: SimDuration,
    /// Extra per KiB of chunk payload (the §8.3 profile: "threads are
    /// busy reading from sockets" — byte-proportional work, which is
    /// what state compression reduces).
    pub per_kib: SimDuration,
    /// Extra per event buffered/forwarded.
    pub per_event: SimDuration,
}

impl ControllerCosts {
    /// What one streamed per-flow record costs on top of its message's
    /// `per_message`.
    fn per_record(&self, c: &StateChunk) -> SimDuration {
        self.per_chunk + SimDuration(self.per_kib.0 * c.data.len() as u64 / 1024)
    }
}

impl Default for ControllerCosts {
    fn default() -> Self {
        ControllerCosts {
            per_message: SimDuration::from_micros(8),
            per_chunk: SimDuration::from_micros(10),
            per_kib: SimDuration::from_micros(220),
            per_event: SimDuration::from_micros(12),
        }
    }
}

const TIMER_QUIESCE: u64 = 3;
/// Timer tokens `TIMER_CTRL_WORK_BASE + s` complete the message in
/// service on controller shard `s` — each shard is its own modeled
/// server with its own queue and busy flag, which is where the
/// multi-op speedup comes from in virtual time.
const TIMER_CTRL_WORK_BASE: u64 = 16;
/// Timer tokens `TIMER_REACHABILITY_BASE + 2 × mb + reachable` deliver a
/// reachability report ([`ControllerNode::report_reachability`]).
const TIMER_REACHABILITY_BASE: u64 = 1 << 24;
/// App timer tokens are offset to avoid collisions.
pub const APP_TIMER_BASE: u64 = 1 << 32;

/// The controller node: MB controller + SDN routing module + control
/// application (the Figure 1 stack, co-located as in the prototype).
pub struct ControllerNode {
    /// The controller state machine (public for post-run inspection).
    pub core: ControllerCore,
    /// The SDN controller's topology view.
    pub topo: Topology,
    app: Box<dyn ControlApp>,
    /// mb handle -> node id of the MbNode.
    mb_nodes: Vec<NodeId>,
    costs: ControllerCosts,
    /// Per-shard message work queues: the controller models one event
    /// loop (server) per shard, so messages for disjoint ops are
    /// serviced concurrently in virtual time.
    queues: Vec<VecDeque<(MbId, Message)>>,
    busy: Vec<bool>,
    /// Highest depth each shard queue has reached (exported as the
    /// `ctrl.shard<N>.queue_depth_peak` gauge).
    pub queue_depth_peak: Vec<usize>,
    /// Gauge names, formatted once so the hot path never allocates.
    shard_gauges: Vec<String>,
    quiesce_timer_set: bool,
    started: bool,
    /// Completions delivered, with their virtual times (post-run
    /// inspection; experiments read operation latencies from here).
    pub completions: Vec<(SimTime, crate::controller::Completion)>,
    /// Crash-durable image of `core`, checkpointed after every processed
    /// event when enabled (see [`ControllerNode::enable_journal`]).
    journal: Option<Box<ControllerCore>>,
}

impl ControllerNode {
    /// Build a controller hosting `app`.
    pub fn new(config: ControllerConfig, costs: ControllerCosts, app: Box<dyn ControlApp>) -> Self {
        let core = ControllerCore::new(config);
        let n = core.num_shards();
        ControllerNode {
            core,
            topo: Topology::new(),
            app,
            mb_nodes: Vec::new(),
            costs,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            busy: vec![false; n],
            queue_depth_peak: vec![0; n],
            shard_gauges: (0..n).map(|s| format!("ctrl.shard{s}.queue_depth_peak")).collect(),
            quiesce_timer_set: false,
            started: false,
            completions: Vec::new(),
            journal: None,
        }
    }

    /// Turn on write-ahead journaling of the controller state machine:
    /// `core` is checkpointed (cloned) after every fully-processed event
    /// and an injected crash restores the last checkpoint in `on_crash`,
    /// so choreography progress — per-chunk ack sets, buffered events,
    /// pending rollbacks — survives a controller crash/restart while the
    /// volatile runtime (work queue, in-flight timers and frames) is
    /// lost, exactly the durability split a real controller gets from
    /// journaling transitions to disk. Off by default: an un-journaled
    /// crash also wipes `core` back to the registration-time image, so
    /// every in-flight operation is forgotten (its MB-side sync windows
    /// leak until quiescence timeouts fire — the failure mode the
    /// journal exists to prevent).
    pub fn enable_journal(&mut self) {
        self.journal = Some(Box::new(self.core.clone()));
    }

    fn checkpoint(&mut self) {
        if self.journal.is_some() {
            self.journal = Some(Box::new(self.core.clone()));
        }
    }

    /// Report at `at` that `mb`'s southbound connection to the
    /// controller node `ctrl` dropped (`reachable == false`, the
    /// sim-side stand-in for a TCP reset) or came back. The report is a
    /// timer on the controller, so it takes effect at the virtual
    /// instant it is made, not on the controller's next unrelated
    /// event; a controller that is down at `at` never sees it, as a
    /// dead process misses a reset.
    ///
    /// Unreachable: the MB's in-flight operations abort with
    /// [`openmb_types::Error::MbUnreachable`], and any new op naming it
    /// fails fast until it is reported reachable. Reachable: ops naming
    /// it are accepted again, shared-state rollbacks deferred while it
    /// was down are sent, and transfers parked on its account resume.
    pub fn report_reachability(
        sim: &mut Sim,
        ctrl: NodeId,
        at: SimTime,
        mb: MbId,
        reachable: bool,
    ) {
        let slot = 2 * mb.0 as u64 + reachable as u64;
        assert!(slot < APP_TIMER_BASE - TIMER_REACHABILITY_BASE, "MB id {mb} out of timer range");
        sim.inject_timer(at, ctrl, TIMER_REACHABILITY_BASE + slot);
    }

    /// One point-in-time health capture: the core's view
    /// ([`ControllerCore::health_snapshot`]) plus the per-shard service
    /// queues this node models (depth, peak, busy). `violations` comes
    /// from the harness's invariant monitor (0 when none is attached).
    pub fn health_snapshot(&self, t_ns: u64, violations: u64) -> openmb_obs::HealthSnapshot {
        let mut snap = self.core.health_snapshot(t_ns, violations);
        for (i, s) in snap.shards.iter_mut().enumerate() {
            s.queue_depth = self.queues[i].len() as u64;
            s.queue_depth_peak = self.queue_depth_peak[i] as u64;
            s.busy = self.busy[i];
        }
        snap
    }

    /// Register a middlebox's sim node; returns the MB handle used in
    /// the northbound API.
    pub fn register_mb(&mut self, node: NodeId) -> MbId {
        let id = self.core.register_mb();
        self.mb_nodes.push(node);
        id
    }

    fn mb_of(&self, node: NodeId) -> Option<MbId> {
        self.mb_nodes.iter().position(|n| *n == node).map(|i| MbId(i as u32))
    }

    fn dispatch_actions(&mut self, ctx: &mut Ctx<'_>, actions: Vec<Action>) {
        // One wire frame — one scheduler event — per destination MB.
        let mb_nodes = &self.mb_nodes;
        let pending_completions = coalesce(actions, |mb, frame, flushed| {
            if let Some((sub, ev)) = flushed {
                ctx.record(None, sub, ev);
            }
            ctx.send(mb_nodes[mb.0 as usize], Frame::control(frame));
        });
        for c in pending_completions {
            self.completions.push((ctx.now(), c.clone()));
            self.with_api(ctx, |app, api| app.on_completion(api, &c));
        }
        self.arm_quiesce(ctx);
    }

    fn arm_quiesce(&mut self, ctx: &mut Ctx<'_>) {
        if !self.quiesce_timer_set && self.core.open_ops() > 0 {
            self.quiesce_timer_set = true;
            let d = SimDuration(self.core.config().quiesce_after.0 / 4 + 1);
            ctx.set_timer(d, TIMER_QUIESCE);
        }
    }

    /// Enqueue one southbound message onto its owning shard's queue.
    fn enqueue(&mut self, ctx: &mut Ctx<'_>, mb: MbId, msg: Message) {
        let s = self.core.shard_of_message(mb, &msg);
        self.queues[s].push_back((mb, msg));
        if self.queues[s].len() > self.queue_depth_peak[s] {
            self.queue_depth_peak[s] = self.queues[s].len();
            ctx.metrics
                .registry_mut()
                .set_gauge(&self.shard_gauges[s], self.queue_depth_peak[s] as f64);
        }
    }

    /// Start service on shard `s` if it is idle and has queued work.
    /// Each shard is an independent modeled server: its own queue, its
    /// own busy flag, its own completion timer.
    fn pump_shard(&mut self, ctx: &mut Ctx<'_>, s: usize) {
        if self.busy[s] {
            return;
        }
        if let Some((_, msg)) = self.queues[s].front() {
            let mut d = self.costs.per_message;
            match msg {
                // A streamed run is priced per record; the message
                // overhead once.
                Message::Chunk { chunk, .. } => d = d + self.costs.per_record(chunk),
                Message::ChunkRun { chunk, rest, .. } => {
                    for c in std::iter::once(chunk).chain(rest) {
                        d = d + self.costs.per_record(c);
                    }
                }
                Message::SharedChunk { chunk, .. } => {
                    d = d
                        + self.costs.per_chunk
                        + SimDuration(self.costs.per_kib.0 * chunk.len() as u64 / 1024);
                }
                Message::EventMsg { .. } => d = d + self.costs.per_event,
                _ => {}
            }
            self.busy[s] = true;
            ctx.set_timer(d, TIMER_CTRL_WORK_BASE + s as u64);
        }
    }

    fn pump_all(&mut self, ctx: &mut Ctx<'_>) {
        for s in 0..self.queues.len() {
            self.pump_shard(ctx, s);
        }
    }

    /// Run an app-level callback with a fresh [`Api`].
    fn with_api<F: FnOnce(&mut dyn ControlApp, &mut Api<'_>)>(&mut self, ctx: &mut Ctx<'_>, f: F) {
        let mut actions = Vec::new();
        let mut sdn = Vec::new();
        let mut timers = Vec::new();
        {
            let mut api = Api::new(ApiCtx {
                core: &mut self.core,
                topo: &mut self.topo,
                now: ctx.now(),
                actions: &mut actions,
                sdn: &mut sdn,
                timers: &mut timers,
            });
            f(self.app.as_mut(), &mut api);
        }
        for (sw, msg) in sdn {
            ctx.send(sw, Frame::Sdn(msg));
        }
        for (delay, token) in timers {
            ctx.set_timer(delay, APP_TIMER_BASE + token);
        }
        self.dispatch_actions(ctx, actions);
    }
}

impl Node for ControllerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.started {
            return;
        }
        self.started = true;
        // Adopt the simulation's flight recorder (no-op while disabled):
        // op lifecycles record under the node name "controller".
        if ctx.recorder().is_enabled() && !self.core.recorder().is_enabled() {
            self.core.set_recorder(ctx.recorder().clone());
        }
        self.with_api(ctx, |app, api| app.on_start(api));
        self.checkpoint();
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
        match frame {
            Frame::Control(msg) => {
                let mb = self.mb_of(from).unwrap_or(MbId(u32::MAX));
                // A batched frame shares one wire frame but not one
                // work item: flatten it so each inner message is priced
                // individually and routed to its own op's shard queue.
                msg.for_each_unbatched(|m| self.enqueue(ctx, mb, m));
                self.pump_all(ctx);
            }
            Frame::Sdn(SdnMessage::BarrierReply { .. }) => {
                // Barriers are currently fire-and-forget confirmations.
            }
            Frame::Sdn(SdnMessage::PacketIn { packet }) => {
                ctx.record(None, None, SpanEvent::PacketDropped { pkt_id: packet.id });
                ctx.metrics.incr("controller.packet_in", 1);
            }
            Frame::Sdn(_) => {}
            Frame::Data(_) => panic!("data packet delivered to controller"),
        }
        self.checkpoint();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if (TIMER_CTRL_WORK_BASE..TIMER_CTRL_WORK_BASE + self.queues.len() as u64).contains(&token)
        {
            let s = (token - TIMER_CTRL_WORK_BASE) as usize;
            self.busy[s] = false;
            if let Some((mb, msg)) = self.queues[s].pop_front() {
                let mut actions = Vec::new();
                self.core.handle_mb_message(mb, msg, ctx.now(), &mut actions);
                self.dispatch_actions(ctx, actions);
            }
            self.pump_shard(ctx, s);
        } else if token == TIMER_QUIESCE {
            self.quiesce_timer_set = false;
            let mut actions = Vec::new();
            self.core.tick(ctx.now(), &mut actions);
            self.dispatch_actions(ctx, actions);
            self.arm_quiesce(ctx);
        } else if (TIMER_REACHABILITY_BASE..APP_TIMER_BASE).contains(&token) {
            let slot = token - TIMER_REACHABILITY_BASE;
            let mb = MbId((slot / 2) as u32);
            let mut actions = Vec::new();
            if slot % 2 == 1 {
                self.core.mark_reachable(mb, ctx.now(), &mut actions);
            } else {
                self.core.mark_unreachable(mb, ctx.now(), &mut actions);
            }
            self.dispatch_actions(ctx, actions);
        } else if token >= APP_TIMER_BASE {
            let app_token = token - APP_TIMER_BASE;
            self.with_api(ctx, |app, api| app.on_timer(api, app_token));
        }
        self.checkpoint();
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        // Volatile runtime dies with the process either way: queued
        // messages, the in-service ones, and every armed timer (the
        // engine discards timers addressed to a crashed node).
        for q in &mut self.queues {
            q.clear();
        }
        self.busy.iter_mut().for_each(|b| *b = false);
        self.quiesce_timer_set = false;
        match &self.journal {
            Some(j) => self.core = (**j).clone(),
            None => {
                // Amnesia: every in-flight operation is forgotten (the
                // leaked MB-side sync windows only close when their
                // quiescence timeouts fire). MB handles index
                // `mb_nodes`, so the fresh core re-registers the same
                // count to keep them valid. The shard count is pinned
                // to the queue fan-out sized at construction — a
                // post-construction `config.shards` mutation must not
                // desynchronize the two.
                let mut config = self.core.config();
                config.shards = self.queues.len() as u32;
                let fresh = ControllerCore::new(config);
                for _ in 0..self.mb_nodes.len() {
                    fresh.register_mb();
                }
                // The flight recorder outlives the amnesia: its buffer
                // is shared with the simulation, not part of op state.
                if self.core.recorder().is_enabled() {
                    fresh.set_recorder(self.core.recorder());
                }
                self.core = fresh;
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Restart the event loop: the quiescence tick drives journaled
        // in-flight operations to resume (stall detection) or abort
        // (deadline); nothing is queued yet, so pump is a no-op until
        // the next frame lands.
        self.pump_all(ctx);
        self.arm_quiesce(ctx);
    }

    fn name(&self) -> String {
        "controller".to_owned()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A traffic endpoint that records everything it receives, and — when
/// configured as a source — emits self-injected packets onto its access
/// link (so link-level effects like Split/Merge suspension apply to
/// them).
pub struct Host {
    /// `(arrival time, packet)` in order.
    pub received: Vec<(SimTime, Packet)>,
    /// Where self-injected packets are sent (the access switch).
    forward_to: Option<NodeId>,
    label: String,
    /// `"<label>.delivered"`, formatted once and resolved on its first
    /// write, so a delivered packet neither allocates nor looks up a
    /// key string.
    delivered: CounterSlot,
}

impl Host {
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        let delivered = CounterSlot::new(format!("{label}.delivered"));
        Host { received: Vec::new(), forward_to: None, label, delivered }
    }

    /// Configure as a traffic source: frames injected *at this host*
    /// (via `Sim::inject_frame` with `target == from == host`) are sent
    /// out over the link to `next` instead of being recorded.
    pub fn with_forward(mut self, next: NodeId) -> Self {
        self.forward_to = Some(next);
        self
    }

    /// Ids of received packets.
    pub fn received_ids(&self) -> Vec<u64> {
        self.received.iter().map(|(_, p)| p.id).collect()
    }
}

impl Node for Host {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
        if let Frame::Data(pkt) = frame {
            if from == ctx.id() {
                if let Some(next) = self.forward_to {
                    ctx.send(next, Frame::Data(pkt));
                    return;
                }
            }
            ctx.metrics.incr_at(&mut self.delivered, 1);
            self.received.push((ctx.now(), pkt));
        }
    }

    fn name(&self) -> String {
        format!("host:{}", self.label)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
