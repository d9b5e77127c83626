//! `move_live_1400B`: the paper's headline scenario in wall time.
//!
//! `src`, one switch, two `Ips` instances and `dst`, with a
//! `ControllerNode` hosting the benchmark's own control application.
//! Each op sends single-packet arrivals of 1 400-byte HTTP-like payload
//! over 2 048 long-lived connections and, a quarter of the way in, moves
//! every flow to the other IPS and repoints the route; ops alternate
//! direction. Application work dominates (the IPS scans every payload
//! and keeps a large record per flow), so per-packet fixed-cost fixes
//! should not show here while IPS and record-tree fixes should. It is
//! also the only workload with the DES control path under the clock:
//! `ControllerNode`, `MbNode` southbound get/put, event buffering and
//! replay, sealing and content hashing.
//!
//! To keep ops alike, a rotating 1/16 of the connections is closed and
//! reopened in every op (FIN, SYN, SYN-ACK, GET), so no record grows
//! without bound and `conn.log`/`http.log` get lines in every op.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::nodes::{ControllerCosts, ControllerNode, Host, MbNode, APP_TIMER_BASE};
use openmb_mb::{Effects, LogEntry, Middlebox};
use openmb_middleboxes::Ips;
use openmb_openflow::Switch;
use openmb_simnet::{Frame, Metrics, Sim, SimDuration, SimTime};
use openmb_types::packet::tcp_flags;
use openmb_types::sdn::{FlowRule, SdnAction, SdnMessage};
use openmb_types::{
    EncryptedChunk, FlowKey, HeaderFieldList, HierarchicalKey, MbId, NodeId, OpId, Packet,
};

use crate::gen::Rng;
use crate::stats::median;
use crate::trace::{ratio, Counters, MbCounters, Peel, Span, SpanLog, Tracing, SAMPLE_EVERY};
use crate::{OpOutcome, Workload};

const FLOWS: usize = 2048;
/// Connections closed and reopened per op (four packets each).
const RECYCLED: usize = FLOWS / 16;
/// Arrivals per op, sized so that packet processing is about 70 % and
/// the move about 30 % of an op (`move_live.pkt_share_frac`).
const SLOTS: usize = 56 * RECYCLED;
const PAYLOAD: usize = 1400;
/// Virtual time between arrivals: three times the IPS's 6.9 ms service
/// time, so the get interleaves without a backlog and consecutive
/// packets of a flow never race each other across the route change.
const SLOT_GAP: SimDuration = SimDuration(20_000_000);
const STRIDE: usize = 683;

const CONTROLLER: NodeId = NodeId(0);
const SWITCH: NodeId = NodeId(1);
const MB: [NodeId; 2] = [NodeId(2), NodeId(3)];
const SRC: NodeId = NodeId(4);
const DST: NodeId = NodeId(5);
const T_MOVE: u64 = 1;

/// Traffic from `src` goes through `mb`.
fn ingress_rule(mb: NodeId) -> FlowRule {
    FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(mb)).from_port(SRC)
}

/// On its timer, move every flow from the IPS that holds them to the
/// other one; when the move completes, repoint the route (R4: the
/// network update strictly after the move returns).
struct MoveApp {
    holder: usize,
}

impl ControlApp for MoveApp {
    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_MOVE {
            let (src, dst) = (MbId(self.holder as u32), MbId(1 - self.holder as u32));
            api.move_internal(src, dst, HeaderFieldList::any());
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if matches!(c, Completion::MoveComplete { .. }) {
            self.holder = 1 - self.holder;
            api.send_sdn(SWITCH, SdnMessage::FlowMod(ingress_rule(MB[self.holder])));
        }
    }
}

struct Flow {
    key: FlowKey,
    get: Packet,
    data: Packet,
}

struct Probes {
    controller: Arc<Counters>,
    switch: Arc<Counters>,
    nodes: [Arc<Counters>; 2],
    mbs: [MbCounters; 2],
    hosts: [Arc<Counters>; 2],
}

impl Probes {
    fn new() -> Self {
        let node = |n: &str| Counters::new(n, "simnet.run", SAMPLE_EVERY);
        Probes {
            controller: Counters::new("core.nodes.controller", "simnet.run", 1),
            switch: node("openflow.switch"),
            nodes: [node("core.nodes.mbnode.ips_a"), node("core.nodes.mbnode.ips_b")],
            mbs: [
                MbCounters::new("middleboxes.ips_a", "core.nodes.mbnode.ips_a"),
                MbCounters::new("middleboxes.ips_b", "core.nodes.mbnode.ips_b"),
            ],
            hosts: [node("core.nodes.host.src"), node("core.nodes.host.dst")],
        }
    }

    fn drain(&self, op: u64, log: &mut SpanLog) {
        let all = [&self.controller, &self.switch]
            .into_iter()
            .chain(&self.nodes)
            .chain(&self.hosts)
            .chain(self.mbs.iter().flat_map(|m| m.all()));
        log.spans.extend(all.map(|c| c.take(op)).filter(|s| s.calls > 0));
    }
}

pub struct MoveLive<T: Tracing> {
    sim: Sim,
    flows: Vec<Flow>,
    recycled: usize,
    slots: usize,
    /// Which IPS holds the flows before the next op.
    holder: usize,
    /// Data packets sent so far; picks the next data packet's flow.
    data_sent: usize,
    /// The oracle: an IPS that sees every packet and is never moved.
    reference: Ips,
    probes: Probes,
    _tracing: std::marker::PhantomData<T>,
}

type IpsNode<T> = <T as Tracing>::Node<MbNode<<T as Tracing>::Mb<Ips>>>;

/// `conn.log` and `http.log` lines without their leading virtual
/// timestamps (two and one): a moved run services packets at other
/// instants than the reference, and must still log the same things.
fn log_lines(logs: &[LogEntry], out: &mut Vec<String>) -> bool {
    for l in logs {
        let stamps = match l.log.as_str() {
            "conn.log" => 2,
            "http.log" => 1,
            _ => return false, // an alert: the traffic holds no signature
        };
        let rest = l.line.splitn(stamps + 1, ' ').last().unwrap_or_default();
        out.push(format!("{} {rest}", l.log));
    }
    true
}

impl<T: Tracing> MoveLive<T> {
    fn ips(&self, i: usize) -> &MbNode<T::Mb<Ips>> {
        self.sim.node_as::<IpsNode<T>>(MB[i]).peel()
    }

    /// The op's arrivals in order. Recycle group `g` takes four
    /// consecutive slots starting at `g · slots/recycled`; every other
    /// slot carries a data packet.
    fn arrivals(&mut self, idx: u64) -> Vec<Packet> {
        let stride = self.slots / self.recycled;
        let mut out = Vec::with_capacity(self.slots);
        for slot in 0..self.slots {
            let id = idx * self.slots as u64 + slot as u64;
            let (group, phase) = (slot / stride, slot % stride);
            let pkt = if phase < 4 {
                let f = &self.flows[(idx as usize * self.recycled + group) % self.flows.len()];
                match phase {
                    0 => Packet::tcp(id, f.key, tcp_flags::FIN, Vec::new()),
                    1 => Packet::tcp(id, f.key, tcp_flags::SYN, Vec::new()),
                    2 => {
                        let flags = tcp_flags::SYN | tcp_flags::ACK;
                        Packet::tcp(id, f.key.reversed(), flags, Vec::new())
                    }
                    _ => Packet { id, ..f.get.clone() },
                }
            } else {
                let f = &self.flows[self.data_sent * STRIDE % self.flows.len()];
                self.data_sent += 1;
                Packet { id, ..f.data.clone() }
            };
            out.push(pkt);
        }
        out
    }

    /// One op, with or without the move (the traced run times a few
    /// without, to split op time into packets and move).
    fn run_op(&mut self, idx: u64, with_move: bool, log: &mut SpanLog) -> OpOutcome {
        let arrivals = self.arrivals(idx);
        let first = self.sim.now().after(SLOT_GAP);
        let at = |slot: usize| SimTime(first.0 + slot as u64 * SLOT_GAP.0);
        let frames: Vec<Frame> = arrivals.iter().cloned().map(Frame::Data).collect();

        let t0 = Instant::now();
        for (slot, frame) in frames.into_iter().enumerate() {
            self.sim.inject_frame(at(slot), SRC, SRC, frame);
        }
        if with_move {
            // Half a slot before the recycle group that starts a quarter
            // of the way in, so every connection is open when the get
            // scans them.
            let trigger = SimTime(at(self.slots / 4).0 - SLOT_GAP.0 / 2);
            self.sim.inject_timer(trigger, CONTROLLER, APP_TIMER_BASE + T_MOVE);
        }
        let t_run = Instant::now();
        let events = self.sim.run(u64::MAX);
        let run_secs = t_run.elapsed().as_secs_f64();
        let secs = t0.elapsed().as_secs_f64();

        let ok = self.verify(&arrivals, at, with_move);
        self.reset();
        if T::ON && with_move {
            log.spans.push(Span::timed("op", "", idx, t0, secs, self.slots as u64));
            log.spans.push(Span::timed("simnet.run", "op", idx, t_run, run_secs, events));
            self.probes.drain(idx, log);
        }
        OpOutcome::checked(secs, ok)
    }

    fn verify(&mut self, arrivals: &[Packet], at: impl Fn(usize) -> SimTime, moved: bool) -> bool {
        // The reference sees the same packets at their arrival times.
        let mut want = Vec::new();
        let mut fx = Effects::normal();
        for (slot, pkt) in arrivals.iter().enumerate() {
            self.reference.process_packet(at(slot), pkt, &mut fx);
        }
        let mut ok = log_lines(&fx.take_logs(), &mut want);

        let ctrl: &ControllerNode = self.sim.node_as::<T::Node<ControllerNode>>(CONTROLLER).peel();
        let done = |c: &Completion| matches!(c, Completion::MoveComplete { chunks_moved, .. } if *chunks_moved == self.flows.len());
        ok &= self.sim.is_idle()
            && ctrl.completions.len() == usize::from(moved)
            && ctrl.completions.iter().all(|(_, c)| done(c));
        if moved {
            self.holder = 1 - self.holder;
        }

        // Zero loss and per-flow order at the sink.
        let dst: &Host = self.sim.node_as::<T::Node<Host>>(DST).peel();
        let mut last: HashMap<FlowKey, u64> = HashMap::with_capacity(self.flows.len());
        ok &= dst.received.len() == arrivals.len()
            && dst
                .received
                .iter()
                .all(|(_, p)| last.insert(p.key.canonical(), p.id).is_none_or(|prev| prev < p.id));

        // Both instances together logged what the unmoved reference did.
        let mut got = Vec::new();
        for i in 0..2 {
            ok &= log_lines(&self.ips(i).logs, &mut got);
        }
        want.sort_unstable();
        got.sort_unstable();
        ok &= want == got;

        // The state is where the route now points, and nowhere else.
        ok && self.ips(self.holder).logic.perflow_entries() == self.flows.len()
            && self.ips(1 - self.holder).logic.perflow_entries() == 0
    }

    fn reset(&mut self) {
        self.sim.node_as_mut::<T::Node<Host>>(DST).peel_mut().received.clear();
        for mb in MB {
            self.sim.node_as_mut::<IpsNode<T>>(mb).peel_mut().logs.clear();
        }
        self.sim.node_as_mut::<T::Node<ControllerNode>>(CONTROLLER).peel_mut().completions.clear();
        self.sim.metrics = Metrics::counters_only();
    }
}

impl<T: Tracing> Workload for MoveLive<T> {
    const NAME: &'static str = "move_live_1400B";
    const THREADS: u32 = 1;
    const OPS_PER_SECOND: usize = 6;

    fn setup(seed: u64, div: u32) -> Self {
        let n_flows = (FLOWS / div as usize).max(16) / 16 * 16;
        let recycled = n_flows / 16;
        let slots = SLOTS / RECYCLED * recycled;
        let mut rng = Rng::new(seed);
        let server = Ipv4Addr::new(192, 168, 1, 1);
        let flows: Vec<Flow> = rng
            .hosts(2, n_flows)
            .into_iter()
            .map(|client| {
                let key = FlowKey::tcp(client, rng.port(), server, 80);
                // A request line as long as the packet, so every record
                // carries a kilobyte of HTTP analyzer state.
                let mut get = b"GET /".to_vec();
                get.extend(rng.hex(PAYLOAD - 5 - 11));
                get.extend(b" HTTP/1.1\r\n");
                // Not a request: the analyzer drops the line it finds.
                let mut data = b"X-Seq: ".to_vec();
                data.extend(rng.hex(8));
                data.extend(b"\r\n");
                data.extend(rng.hex(PAYLOAD - 17));
                Flow { key, get: Packet::new(0, key, get), data: Packet::new(0, key, data) }
            })
            .collect();

        // Every connection open, one request seen, on the first IPS and
        // on the reference. The reference runs without signatures: they
        // only ever add alert lines, which `log_lines` rejects, and
        // scanning for them is most of an IPS packet's cost.
        let mut ips_a = Ips::new();
        let mut reference = Ips::new();
        reference
            .set_config(&HierarchicalKey::parse("rules/signatures"), Vec::new())
            .expect("the IPS accepts an empty signature list");
        let mut fx = Effects::normal();
        for f in &flows {
            for pkt in [
                Packet::tcp(0, f.key, tcp_flags::SYN, Vec::new()),
                Packet::tcp(0, f.key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Vec::new()),
                f.get.clone(),
            ] {
                ips_a.process_packet(SimTime::ZERO, &pkt, &mut fx);
                reference.process_packet(SimTime::ZERO, &pkt, &mut fx);
            }
        }

        let probes = Probes::new();
        let mut sim = Sim::new_counters_only();
        let mut controller = ControllerNode::new(
            ControllerConfig {
                quiesce_after: SimDuration::from_millis(300),
                ..ControllerConfig::default()
            },
            ControllerCosts::default(),
            Box::new(MoveApp { holder: 0 }),
        );
        for mb in MB {
            controller.register_mb(mb);
        }
        assert_eq!(sim.add_node(Box::new(T::node(controller, &probes.controller))), CONTROLLER);
        let mut switch = Switch::new("s1");
        switch.preinstall(ingress_rule(MB[0]));
        for mb in MB {
            switch.preinstall(
                FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(DST)).from_port(mb),
            );
        }
        assert_eq!(sim.add_node(Box::new(T::node(switch, &probes.switch))), SWITCH);
        for (i, logic) in [ips_a, Ips::new()].into_iter().enumerate() {
            let node = MbNode::new(["ips_a", "ips_b"][i], T::mb(logic, &probes.mbs[i]))
                .with_controller(CONTROLLER)
                .with_egress(SWITCH);
            assert_eq!(sim.add_node(Box::new(T::node(node, &probes.nodes[i]))), MB[i]);
        }
        let src = Host::new("src").with_forward(SWITCH);
        assert_eq!(sim.add_node(Box::new(T::node(src, &probes.hosts[0]))), SRC);
        assert_eq!(sim.add_node(Box::new(T::node(Host::new("dst"), &probes.hosts[1]))), DST);
        for n in [MB[0], MB[1], SRC, DST] {
            sim.add_link(SWITCH, n, SimDuration::from_micros(50), 1_000_000_000);
        }
        for n in [SWITCH, MB[0], MB[1]] {
            sim.add_link(CONTROLLER, n, SimDuration::from_micros(100), 1_000_000_000);
        }

        MoveLive {
            sim,
            flows,
            recycled,
            slots,
            holder: 0,
            data_sent: 0,
            reference,
            probes,
            _tracing: Default::default(),
        }
    }

    fn items_per_op(&self) -> u64 {
        self.slots as u64
    }

    fn op(&mut self, idx: u64, log: &mut SpanLog) -> OpOutcome {
        self.run_op(idx, true, log)
    }

    fn layer_metrics(&mut self, log: &SpanLog, ops: &[OpOutcome]) -> Vec<(&'static str, f64)> {
        let moved = (ops.len() * self.flows.len()) as f64;
        let ips = |what: &str| log.total_of(what).ns_per_item();

        // The same packets without the move, on this same instance.
        let next = ops.len() as u64 + 1_000;
        let bare: Vec<f64> =
            (0..5).map(|i| self.run_op(next + i, false, &mut SpanLog::default()).secs).collect();
        let with_move: Vec<f64> = ops.iter().map(|o| o.secs).collect();

        let ctrl: &ControllerNode = self.sim.node_as::<T::Node<ControllerNode>>(CONTROLLER).peel();
        let ledger = ctrl.core.transfer_ledger_stats(OpId(0));
        // The bodies a move of the current records would carry.
        let bodies: Vec<EncryptedChunk> = self
            .reference
            .clone()
            .get_support_perflow(OpId(1), &HeaderFieldList::any())
            .expect("an IPS exports at any granularity")
            .into_iter()
            .map(|c| c.data)
            .collect();
        let (seal_ns, hash_ns) = super::seal_and_hash_ns("bro", &bodies);
        let mut m = super::des_layer_metrics(log);
        m.extend([
            ("core.nodes.batch_len_mean", 1.0),
            ("middleboxes.ips.ns_per_pkt", ips("process")),
            ("middleboxes.ips.replay_ns_per_pkt", ips("replay")),
            ("move_live.pkt_share_frac", ratio(median(&bare), median(&with_move))),
            ("mb.southbound.get_ns_per_chunk", ips("get")),
            ("mb.southbound.put_ns_per_chunk", ips("put")),
            ("mb.southbound.del_ns_per_flow", ips("del")),
            ("types.crypto.seal_ns_per_chunk", seal_ns),
            ("store.hash_ns_per_chunk", hash_ns),
            (
                "store.hit_frac",
                ratio(ledger.cache_hits as f64, (ledger.cache_hits + ledger.cache_misses) as f64),
            ),
            (
                "core.nodes.controller_busy_ns_per_flow",
                ratio(log.total("core.nodes.controller").busy_ns as f64, moved),
            ),
        ]);
        m
    }
}
