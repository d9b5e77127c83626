//! `move_tcp_10k`: real I/O on the loopback interface.
//!
//! A `TcpController` and two `Monitor`s, each served by
//! `serve_middlebox` over a `TcpTransport` on 127.0.0.1 (loopback, not
//! a real link). Each op is one blocking `move_internal` of every flow,
//! alternating A→B and B→A; the monitors' seal nonces advance, so every
//! move is a cold reference + need + body transfer. The wire codec, the
//! transport (a flush per message, reader threads), the controller's
//! pump (1 ms idle sleep) and the MB-side southbound dispatch do most of
//! the work; the packet path does none.
//!
//! The controller keeps every finished op's bookkeeping and the
//! monitors' content stores are unbounded, so `peak_rss_mb` grows with
//! the op count here by design.

use std::hint::black_box;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::TcpTransport;
use openmb_types::wire::{self, Message};
use openmb_types::{FlowKey, HeaderFieldList, MbId, Packet, StateStats};

use crate::gen::Rng;
use crate::trace::{msgs_in, ratio, LinkCounters, MbCounters, Span, SpanLog, Tracing};
use crate::{OpOutcome, Workload, OP_TIMEOUT_S};

/// Flows moved per op. The name keeps the issue's 10 000; this is what
/// fits a 100 ms op on the 2-core runner (see README).
const FLOWS: usize = 4000;

struct Probes {
    /// Controller end and MB end of each of the two connections.
    links: [Arc<LinkCounters>; 4],
    mbs: [MbCounters; 2],
}

impl Probes {
    fn new() -> Self {
        Probes {
            links: ["ctrl_a", "ctrl_b", "mb_a", "mb_b"].map(LinkCounters::new),
            mbs: [
                MbCounters::new("middleboxes.monitor_a", "core.tcp.serve_middlebox"),
                MbCounters::new("middleboxes.monitor_b", "core.tcp.serve_middlebox"),
            ],
        }
    }

    fn drain(&self, op: u64, log: &mut SpanLog) {
        let links = self.links.iter().flat_map(|l| [&l.send, &l.recv]);
        let all = links.chain(self.mbs.iter().flat_map(|m| m.all()));
        log.spans.extend(all.map(|c| c.take(op)).filter(|s| s.calls > 0));
    }
}

pub struct MoveTcp<T: Tracing> {
    ctrl: TcpController,
    mbs: [MbId; 2],
    servers: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    flows: usize,
    /// What the holder reports before a move and the destination must
    /// report after it: the records never change, only their place.
    expect: StateStats,
    holder: usize,
    probes: Probes,
    _tracing: std::marker::PhantomData<T>,
}

fn timeout() -> Duration {
    Duration::from_secs_f64(OP_TIMEOUT_S)
}

impl<T: Tracing> MoveTcp<T> {
    fn stats(&self, mb: MbId) -> Option<StateStats> {
        match self.ctrl.stats(mb, HeaderFieldList::any(), timeout()) {
            Ok(Completion::Stats { stats, .. }) => Some(stats),
            _ => None,
        }
    }

    /// The quiescence deletes run on the controller's maintenance tick;
    /// wait (outside the timer) until the source has been emptied.
    fn source_emptied(&self, src: MbId) -> bool {
        let deadline = Instant::now() + timeout();
        while Instant::now() < deadline {
            match self.stats(src) {
                Some(s) if s.perflow_report_chunks == 0 => return true,
                Some(_) => std::thread::sleep(Duration::from_millis(2)),
                None => return false,
            }
        }
        false
    }

    fn move_once(&mut self) -> (Instant, f64, bool) {
        let (src, dst) = (self.mbs[self.holder], self.mbs[1 - self.holder]);
        let t0 = Instant::now();
        let done = self.ctrl.move_internal(src, dst, HeaderFieldList::any(), timeout());
        let secs = t0.elapsed().as_secs_f64();
        let moved = matches!(done, Ok(Completion::MoveComplete { chunks_moved, .. }) if chunks_moved == self.flows);
        let ok = moved && self.source_emptied(src) && self.stats(dst) == Some(self.expect);
        self.holder = 1 - self.holder;
        (t0, secs, ok)
    }
}

impl<T: Tracing> Workload for MoveTcp<T> {
    const NAME: &'static str = "move_tcp_10k";
    const THREADS: u32 = 2;
    const OPS_PER_SECOND: usize = 8;

    fn setup(seed: u64, div: u32) -> Self {
        let flows = (FLOWS / div as usize).max(1);
        let mut rng = Rng::new(seed);
        let mut monitor_a = Monitor::new();
        let mut fx = Effects::normal();
        let server = Ipv4Addr::new(192, 168, 1, 1);
        for (i, client) in rng.hosts(3, flows).into_iter().enumerate() {
            let key = FlowKey::tcp(client, rng.port(), server, 80);
            let pkt = Packet::new(i as u64 + 1, key, rng.bytes(120));
            monitor_a.process_packet(SimTime(i as u64), &pkt, &mut fx);
            fx.reset();
        }
        assert_eq!(monitor_a.perflow_entries(), flows);

        let probes = Probes::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut servers = Vec::new();
        let mut ctrl = TcpController::new(ControllerConfig {
            // Finished moves are closed on the next maintenance tick.
            quiesce_after: SimDuration::from_millis(1),
            ..ControllerConfig::default()
        });
        let mut mbs = Vec::new();
        for (i, monitor) in [monitor_a, Monitor::new()].into_iter().enumerate() {
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
            let addr = listener.local_addr().expect("bound socket has an address");
            let (stop, link, mbc) =
                (Arc::clone(&stop), Arc::clone(&probes.links[2 + i]), probes.mbs[i].clone());
            servers.push(std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("controller connects");
                let transport = T::link(TcpTransport::new(stream).expect("wrap stream"), &link);
                let mut mb = T::mb(monitor, &mbc);
                serve_middlebox(&mut mb, &transport, &stop).expect("serve loop");
            }));
            let transport = TcpTransport::connect(addr).expect("connect to MB");
            mbs.push(ctrl.register_mb(Arc::new(T::link(transport, &probes.links[i]))));
        }
        ctrl.start();

        let mut w = MoveTcp {
            ctrl,
            mbs: [mbs[0], mbs[1]],
            servers,
            stop,
            flows,
            expect: StateStats::default(),
            holder: 0,
            probes,
            _tracing: Default::default(),
        };
        w.expect = w.stats(w.mbs[0]).expect("preloaded monitor answers stats");
        assert_eq!(w.expect.perflow_report_chunks, flows);
        w
    }

    fn items_per_op(&self) -> u64 {
        self.flows as u64
    }

    fn op(&mut self, idx: u64, log: &mut SpanLog) -> OpOutcome {
        if T::ON {
            // What ran between the ops is the checks' stats traffic,
            // dropped, and the previous move's quiescence deletes, kept.
            let mut between = SpanLog::default();
            self.probes.drain(idx.saturating_sub(1), &mut between);
            log.spans.extend(between.spans.into_iter().filter(|s| s.name.ends_with(".del")));
        }
        let (t0, secs, ok) = self.move_once();
        if T::ON {
            log.spans.push(Span::timed("op", "", idx, t0, secs, self.flows as u64));
            self.probes.drain(idx, log);
        }
        OpOutcome::checked(secs, ok)
    }

    fn layer_metrics(&mut self, log: &SpanLog, ops: &[OpOutcome]) -> Vec<(&'static str, f64)> {
        let flows = (ops.len() * self.flows) as f64;
        let op_ns = log.total("op").busy_ns as f64;
        let (send, recv) = (log.total_of("send"), log.total_of("recv"));
        // The deletes run after the move returned: not part of the op.
        let mb_ns = (log.total("middleboxes").busy_ns - log.total_of("del").busy_ns) as f64;
        let busy = send.busy_ns as f64 + mb_ns;

        // One more move with every endpoint keeping what it sends: the
        // messages the codec timings and the hit ratio are taken from.
        for l in &self.probes.links {
            l.capture(true);
        }
        self.move_once();
        let sent: Vec<Message> = self.probes.links.iter().flat_map(|l| l.capture(false)).collect();
        let codec = codec_ns(&sent);
        let mut kinds = (0.0, 0.0);
        let mut bodies = Vec::new();
        for m in sent.into_iter().flat_map(Message::into_unbatched) {
            match m {
                Message::ChunkRef { .. } => kinds.0 += 1.0,
                Message::ChunkNeed { .. } => kinds.1 += 1.0,
                Message::ChunkBody { data, .. } => bodies.push(data),
                _ => {}
            }
        }
        let (seal_ns, hash_ns) = super::seal_and_hash_ns("prads", &bodies);

        let per_item = |what: &str| log.total_of(what).ns_per_item();
        vec![
            ("mb.southbound.get_ns_per_chunk", per_item("get")),
            ("mb.southbound.put_ns_per_chunk", per_item("put")),
            ("mb.southbound.del_ns_per_flow", per_item("del")),
            ("types.crypto.seal_ns_per_chunk", seal_ns),
            ("store.hash_ns_per_chunk", hash_ns),
            ("store.hit_frac", 1.0 - ratio(kinds.1, kinds.0)),
            ("types.wire.encode_ns_per_msg", codec.0),
            ("types.wire.decode_ns_per_msg", codec.1),
            ("types.wire.bytes_per_flow", ratio(codec.2, self.flows as f64)),
            ("types.transport.send_busy_ns_per_msg", send.ns_per_item()),
            ("types.transport.recv_wait_ns_per_msg", recv.ns_per_item()),
            ("types.transport.frames_per_flow", ratio(send.calls as f64, flows)),
            ("types.transport.bytes_per_flow", ratio(send.bytes as f64, flows)),
            ("core.tcp.pump_residual_ms_per_op", ratio(op_ns - busy, ops.len() as f64) / 1e6),
            // The share of the blocking call the timed layers account
            // for; the rest is the pump's polling and thread hand-offs.
            ("model.coverage_frac", ratio(busy, op_ns)),
        ]
    }

    fn teardown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.ctrl.shutdown();
        // Closing the controller's sockets ends both serve loops.
        drop(self.ctrl);
        for s in self.servers {
            s.join().expect("MB server thread panicked");
        }
    }
}

/// Direct `encode`/`decode` calls on captured frames: ns per carried
/// message each way, and the frames' total size on the wire.
fn codec_ns(frames: &[Message]) -> (f64, f64, f64) {
    let msgs: u64 = frames.iter().map(msgs_in).sum();
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|m| wire::encode(black_box(m))).collect();
    let enc = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for buf in &encoded {
        black_box(wire::decode(black_box(buf)).expect("own encoding decodes"));
    }
    let dec = t0.elapsed().as_nanos() as f64;
    let bytes: usize = encoded.iter().map(|b| 4 + b.len()).sum();
    (ratio(enc, msgs as f64), ratio(dec, msgs as f64), bytes as f64)
}
