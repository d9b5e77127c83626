//! `chain_fwd_64B`: the DES data plane alone.
//!
//! `src → Switch → Firewall → NAT → Monitor → dst`, every hop back
//! through the one switch. 64-byte payloads over 8 192 concurrent
//! flows, one flow in 16 denied by the firewall, arriving as 32-packet
//! equal-timestamp trains (same-flow runs of 4) into batching MB nodes.
//! Smallest packets and cheap middleboxes: the per-packet fixed cost of
//! the engine, the switch and flow table, `MbNode` and the
//! `process_batch` lane is nearly all the work. No controller, no state
//! transfer.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use openmb_core::nodes::{Host, MbNode};
use openmb_middleboxes::{Firewall, Monitor, Nat};
use openmb_openflow::{FlowTable, Switch};
use openmb_simnet::{Metrics, Sim, SimDuration, SimTime};
use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{FlowKey, HeaderFieldList, NodeId, Packet};

use crate::gen::Rng;
use crate::trace::{ratio, Counters, MbCounters, Peel, Span, SpanLog, Tracing, SAMPLE_EVERY};
use crate::{OpOutcome, Workload};

/// Concurrent flows; every op sends one same-flow run to three in four.
const FLOWS: usize = 8192;
const PACKETS_PER_OP: usize = 24_576;
/// Consecutive packets of one flow inside a train.
const RUN: usize = 4;
/// Packets per equal-timestamp train, and the MB nodes' `batch_max`.
const TRAIN: usize = 32;
/// One flow in this many targets a port the firewall denies.
const DENY_EVERY: usize = 16;
const PAYLOAD: usize = 64;
/// Virtual time between trains: above the monitor's 32 × 90 µs service
/// time, so queues stay short and NAT mappings (30 s timeout) stay live.
const TRAIN_GAP: SimDuration = SimDuration(4_000_000);
/// Flows are visited in this stride (odd, so a permutation of the power
/// of two) rather than in address order.
const STRIDE: usize = 2731;

const SWITCH: NodeId = NodeId(0);
const FW: NodeId = NodeId(1);
const NAT: NodeId = NodeId(2);
const MON: NodeId = NodeId(3);
const SRC: NodeId = NodeId(4);
const DST: NodeId = NodeId(5);
const EXT_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// The four rules that thread the chain through the switch by in-port.
fn rules() -> [FlowRule; 4] {
    let hop =
        |from, to| FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(to)).from_port(from);
    [hop(SRC, FW), hop(FW, NAT), hop(NAT, MON), hop(MON, DST)]
}

struct Probes {
    switch: Arc<Counters>,
    nodes: [Arc<Counters>; 3],
    mbs: [MbCounters; 3],
    hosts: [Arc<Counters>; 2],
}

impl Probes {
    fn new() -> Self {
        let node = |n: &str| Counters::new(n, "simnet.run", SAMPLE_EVERY);
        let mb = |n: &str, parent| MbCounters::new(&format!("middleboxes.{n}"), parent);
        Probes {
            switch: node("openflow.switch"),
            nodes: [
                node("core.nodes.mbnode.firewall"),
                node("core.nodes.mbnode.nat"),
                node("core.nodes.mbnode.monitor"),
            ],
            mbs: [
                mb("firewall", "core.nodes.mbnode.firewall"),
                mb("nat", "core.nodes.mbnode.nat"),
                mb("monitor", "core.nodes.mbnode.monitor"),
            ],
            hosts: [node("core.nodes.host.src"), node("core.nodes.host.dst")],
        }
    }

    fn drain(&self, op: u64, log: &mut SpanLog) {
        let all = std::iter::once(&self.switch)
            .chain(&self.nodes)
            .chain(&self.hosts)
            .chain(self.mbs.iter().flat_map(|m| m.all()));
        log.spans.extend(all.map(|c| c.take(op)).filter(|s| s.calls > 0));
    }
}

pub struct ChainFwd<T: Tracing> {
    sim: Sim,
    /// Per flow: a packet with its key and 64-byte payload, cloned (the
    /// payload is refcounted) and given an id for every send.
    flows: Vec<Packet>,
    trains_per_op: usize,
    probes: Probes,
    _tracing: std::marker::PhantomData<T>,
}

type FwNode<T> = <T as Tracing>::Node<MbNode<<T as Tracing>::Mb<Firewall>>>;
type NatNode<T> = <T as Tracing>::Node<MbNode<<T as Tracing>::Mb<Nat>>>;
type MonNode<T> = <T as Tracing>::Node<MbNode<<T as Tracing>::Mb<Monitor>>>;

impl<T: Tracing> ChainFwd<T> {
    fn packets_per_op(&self) -> usize {
        self.trains_per_op * TRAIN
    }

    /// The op's trains and how many of its packets the firewall denies.
    /// Packet ids are `idx · packets_per_op + position`, so per-flow id
    /// order is send order.
    fn trains(&self, idx: u64) -> (Vec<Vec<Packet>>, usize) {
        let runs_per_op = self.packets_per_op() / RUN;
        let mut denied = 0;
        let mut id = idx * self.packets_per_op() as u64;
        let trains = (0..self.trains_per_op)
            .map(|t| {
                let mut train = Vec::with_capacity(TRAIN);
                for r in 0..TRAIN / RUN {
                    let run = idx as usize * runs_per_op + t * (TRAIN / RUN) + r;
                    let flow = run * STRIDE % FLOWS;
                    if flow % DENY_EVERY == DENY_EVERY - 1 {
                        denied += RUN;
                    }
                    for _ in 0..RUN {
                        train.push(Packet { id, ..self.flows[flow].clone() });
                        id += 1;
                    }
                }
                train
            })
            .collect();
        (trains, denied)
    }

    /// Delivered count, NAT rewrite and per-flow order at `dst`.
    fn delivered_ok(&self, expect: usize) -> bool {
        let dst: &Host = self.sim.node_as::<T::Node<Host>>(DST).peel();
        let mut last: HashMap<FlowKey, u64> = HashMap::with_capacity(FLOWS);
        dst.received.len() == expect
            && dst.received.iter().all(|(_, p)| {
                let in_order = last.insert(p.key, p.id).is_none_or(|prev| prev < p.id);
                p.key.src_ip == EXT_IP && p.payload.len() == PAYLOAD && in_order
            })
    }

    /// Between ops: empty the sink, the MB logs and the metric samples,
    /// which all grow per packet.
    fn reset(&mut self) {
        self.sim.node_as_mut::<T::Node<Host>>(DST).peel_mut().received.clear();
        self.sim.node_as_mut::<FwNode<T>>(FW).peel_mut().logs.clear();
        self.sim.node_as_mut::<NatNode<T>>(NAT).peel_mut().logs.clear();
        self.sim.node_as_mut::<MonNode<T>>(MON).peel_mut().logs.clear();
        self.sim.metrics = Metrics::counters_only();
    }

    /// Direct `FlowTable` lookups replaying one op's keys at the chain's
    /// four in-ports, on a table holding the chain's rules.
    fn flowtable_lookup_ns(&self) -> f64 {
        let mut table = FlowTable::new();
        for rule in rules() {
            table.install(rule);
        }
        let (trains, _) = self.trains(0);
        let keys: Vec<FlowKey> = trains.iter().flatten().map(|p| p.key).collect();
        let pass = |table: &mut FlowTable| {
            for key in &keys {
                for port in [SRC, FW, NAT, MON] {
                    black_box(table.lookup(black_box(key), port));
                }
            }
        };
        pass(&mut table); // fill the exact-match cache, as warm-up ops do
        let t0 = Instant::now();
        pass(&mut table);
        ratio(t0.elapsed().as_nanos() as f64, (keys.len() * 4) as f64)
    }
}

impl<T: Tracing> Workload for ChainFwd<T> {
    const NAME: &'static str = "chain_fwd_64B";
    const THREADS: u32 = 1;
    const OPS_PER_SECOND: usize = 7;

    fn setup(seed: u64, div: u32) -> Self {
        let mut rng = Rng::new(seed);
        let srcs = rng.hosts(1, FLOWS);
        let flows = srcs
            .into_iter()
            .enumerate()
            .map(|(i, src)| {
                // Port 80 passes the firewall's default rules; telnet
                // falls to its default-deny policy.
                let dport = if i % DENY_EVERY == DENY_EVERY - 1 { 23 } else { 80 };
                let dst = Ipv4Addr::new(172, 16, rng.next_u64() as u8, rng.next_u64() as u8);
                Packet::new(0, FlowKey::tcp(src, rng.port(), dst, dport), rng.bytes(PAYLOAD))
            })
            .collect();

        let probes = Probes::new();
        let mut sim = Sim::new_counters_only();
        let mut switch = Switch::new("s1");
        for rule in rules() {
            switch.preinstall(rule);
        }
        assert_eq!(sim.add_node(Box::new(T::node(switch, &probes.switch))), SWITCH);
        let fw = MbNode::new("fw", T::mb(Firewall::new(), &probes.mbs[0]));
        let nat = MbNode::new("nat", T::mb(Nat::new(EXT_IP), &probes.mbs[1]));
        let mon = MbNode::new("mon", T::mb(Monitor::new(), &probes.mbs[2]));
        let fw = fw.with_egress(SWITCH).with_batch_max(TRAIN);
        let nat = nat.with_egress(SWITCH).with_batch_max(TRAIN);
        let mon = mon.with_egress(SWITCH).with_batch_max(TRAIN);
        assert_eq!(sim.add_node(Box::new(T::node(fw, &probes.nodes[0]))), FW);
        assert_eq!(sim.add_node(Box::new(T::node(nat, &probes.nodes[1]))), NAT);
        assert_eq!(sim.add_node(Box::new(T::node(mon, &probes.nodes[2]))), MON);
        let src = Host::new("src").with_forward(SWITCH);
        assert_eq!(sim.add_node(Box::new(T::node(src, &probes.hosts[0]))), SRC);
        assert_eq!(sim.add_node(Box::new(T::node(Host::new("dst"), &probes.hosts[1]))), DST);
        for n in [FW, NAT, MON, SRC, DST] {
            sim.add_link(SWITCH, n, SimDuration::from_micros(50), 1_000_000_000);
        }

        let trains_per_op = (PACKETS_PER_OP / TRAIN / div as usize).max(1);
        ChainFwd { sim, flows, trains_per_op, probes, _tracing: Default::default() }
    }

    fn items_per_op(&self) -> u64 {
        self.packets_per_op() as u64
    }

    fn op(&mut self, idx: u64, log: &mut SpanLog) -> OpOutcome {
        let (trains, denied) = self.trains(idx);
        let first = self.sim.now().after(TRAIN_GAP);

        let t0 = Instant::now();
        for (i, train) in trains.into_iter().enumerate() {
            let at = SimTime(first.0 + i as u64 * TRAIN_GAP.0);
            self.sim.inject_burst(at, SRC, SRC, train);
        }
        let t_run = Instant::now();
        let events = self.sim.run(u64::MAX);
        let run_secs = t_run.elapsed().as_secs_f64();
        let secs = t0.elapsed().as_secs_f64();

        let ok = self.sim.is_idle() && self.delivered_ok(self.packets_per_op() - denied);
        self.reset();
        if T::ON {
            log.spans.push(Span::timed("op", "", idx, t0, secs, self.items_per_op()));
            log.spans.push(Span::timed("simnet.run", "op", idx, t_run, run_secs, events));
            self.probes.drain(idx, log);
        }
        OpOutcome::checked(secs, ok)
    }

    fn layer_metrics(&mut self, log: &SpanLog, _ops: &[OpOutcome]) -> Vec<(&'static str, f64)> {
        let batches = log.total_of("process");
        let per_pkt = |mb: &str| log.total(&format!("middleboxes.{mb}.process")).ns_per_item();
        let mut m = super::des_layer_metrics(log);
        m.extend([
            ("openflow.flowtable.lookup_ns", self.flowtable_lookup_ns()),
            ("core.nodes.batch_len_mean", ratio(batches.items as f64, batches.calls as f64)),
            ("middleboxes.firewall.ns_per_pkt", per_pkt("firewall")),
            ("middleboxes.nat.ns_per_pkt", per_pkt("nat")),
            ("middleboxes.monitor.ns_per_pkt", per_pkt("monitor")),
        ]);
        m
    }
}
