//! `move_threads_2x`: the thread-parallel controller alone.
//!
//! One `ShardedController` with two shards and two OS threads (the
//! generator thread and one more) released by a barrier, each driving
//! one move over its own MB pair and its own subnet, chosen to land on
//! different shards. The drive is `scale_bench`'s windowed one: `Batch`
//! frames of 16 pre-sealed chunks in, synthesized `ChunkNeed`/`PutAck`
//! back, window 512, acks round-tripping once per 2 048 chunks. No
//! middleboxes, no codec, no sockets: shard bookkeeping, router
//! admission and the per-shard locks are the whole cost.
//!
//! Each thread times its own move from the barrier to its
//! `MoveComplete`, and the op's time is the shorter of the two. The
//! move that ends first ran all of its length beside the other, so its
//! time is that of a move contending with a second one, which is what
//! this workload is for. The longer time is the wrong figure on this
//! runner: its host slows one vCPU at a time by half, for seconds on
//! end, so waiting for the slower thread measures the host.
//!
//! The controller keeps every finished op's bookkeeping, so each op
//! gets a fresh one (built outside the timer).

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use openmb_core::controller::{Action, Completion, ControllerConfig};
use openmb_core::{ShardRouter, ShardedController};
use openmb_simnet::SimTime;
use openmb_types::crypto::VendorKey;
use openmb_types::wire::Message;
use openmb_types::{EncryptedChunk, FlowKey, HeaderFieldList, IpPrefix, MbId, StateChunk};

use crate::gen::Rng;
use crate::stats::median;
use crate::trace::{msgs_in, ratio, Counters, Span, SpanLog, Tracing};
use crate::{OpOutcome, Workload};

const SHARDS: u32 = 2;
/// Flows per move; an op is two moves.
const FLOWS: usize = 48_000;
const WINDOW: u32 = 512;
/// Chunks per coalesced frame fed to the controller.
const FRAME: usize = 16;
/// Chunks streamed between ack round-trips: several windows' worth, so
/// the window fills and the overflow queues, as under a fast source.
const BURST: usize = 4 * WINDOW as usize;
/// A sealed monitor-sized record.
const BODY: usize = 96;
const NOW: SimTime = SimTime(0);

/// Flows inside `10.b.0.0/16` on both sides: disjoint `b`s are disjoint
/// even direction-insensitively, so the router may place them apart.
fn subnet(b: u8) -> HeaderFieldList {
    let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
    HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
}

fn config() -> ControllerConfig {
    ControllerConfig { shards: SHARDS, transfer_window: WINDOW, ..ControllerConfig::default() }
}

/// One thread's move: its MB pair, flowspace and pre-sealed chunks.
struct Lane {
    src: MbId,
    dst: MbId,
    pattern: HeaderFieldList,
    chunks: Vec<StateChunk>,
    calls: Arc<Counters>,
    admit: Arc<Counters>,
}

/// What a drive observed at the controller's boundary, and how long
/// it took.
#[derive(Default)]
struct Drive {
    completed: Option<usize>,
    refs: u64,
    needs: u64,
    ledger_peak: usize,
    secs: f64,
}

impl Lane {
    fn new(i: usize, b: u8, flows: usize, rng: &mut Rng) -> Self {
        let key = VendorKey::derive("prads");
        let chunks = (0..flows)
            .map(|j| {
                let flow = FlowKey::tcp(
                    Ipv4Addr::new(10, b, (j >> 8) as u8, j as u8),
                    1000 + (j >> 16) as u16,
                    Ipv4Addr::new(10, b, 255, 1),
                    80,
                );
                let body = EncryptedChunk::seal(&key, j as u64, &rng.bytes(BODY));
                StateChunk::new(HeaderFieldList::exact(flow), body)
            })
            .collect();
        Lane {
            src: MbId(2 * i as u32),
            dst: MbId(2 * i as u32 + 1),
            pattern: subnet(b),
            chunks,
            calls: Counters::new(format!("core.parallel.handle_mb_message.t{i}"), "op", 1),
            admit: Counters::new(format!("core.parallel.move_internal.t{i}"), "op", 1),
        }
    }

    /// Drive this lane's move to completion on `ctrl`. `chunks` is a
    /// copy of the lane's, made outside the timer.
    fn drive<T: Tracing>(&self, ctrl: &ShardedController, chunks: Vec<StateChunk>) -> Drive {
        let t0 = Instant::now();
        let mut d = Drive::default();
        let handle = |from: MbId, msg: Message| {
            if T::ON {
                let n = msgs_in(&msg);
                let clock = self.calls.begin_exact();
                let out = ctrl.handle_mb_message(from, msg, NOW);
                self.calls.end(clock, n, 0);
                out
            } else {
                ctrl.handle_mb_message(from, msg, NOW)
            }
        };

        let clock = T::ON.then(|| self.admit.begin_exact());
        let (_, mut out) = ctrl.move_internal(self.src, self.dst, self.pattern, NOW);
        if let Some(clock) = clock {
            self.admit.end(clock, 1, 0);
        }
        let (mut gs, mut gr) = (None, None);
        for a in out.drain(..) {
            match a {
                Action::ToMb(_, Message::GetSupportPerflow { op, .. }) => gs = Some(op),
                Action::ToMb(_, Message::GetReportPerflow { op, .. }) => gr = Some(op),
                _ => {}
            }
        }
        let (Some(gs), Some(gr)) = (gs, gr) else { return d };

        // A monitor-style source: no per-flow supporting state.
        out = handle(self.src, Message::GetAck { op: gs, count: 0 });
        let total = chunks.len();
        let mut stored: HashSet<[u8; 32]> = HashSet::with_capacity(total);
        let mut in_flight = 0usize;
        let mut sent = 0;
        let mut chunks = chunks.into_iter();
        while sent < total {
            let msgs: Vec<Message> =
                chunks.by_ref().take(FRAME).map(|chunk| Message::Chunk { op: gr, chunk }).collect();
            sent += msgs.len();
            out.extend(handle(self.src, Message::Batch { msgs }));
            if sent % BURST == 0 || sent == total {
                if sent == total {
                    let ack = Message::GetAck { op: gr, count: total as u32 };
                    out.extend(handle(self.src, ack));
                }
                // The destination answers everything it was sent, one
                // coalesced frame per round, until the controller is quiet.
                loop {
                    let mut replies = Vec::new();
                    for a in out.drain(..) {
                        match a {
                            Action::ToMb(_, Message::ChunkRef { op, key, hash, .. }) => {
                                d.refs += 1;
                                in_flight += 1;
                                d.ledger_peak = d.ledger_peak.max(in_flight);
                                if stored.contains(&hash) {
                                    in_flight -= 1;
                                    replies.push(Message::PutAck { op, key: Some(key) });
                                } else {
                                    d.needs += 1;
                                    replies.push(Message::ChunkNeed { op, hash });
                                }
                            }
                            Action::ToMb(_, Message::ChunkBody { op, key, hash, .. }) => {
                                stored.insert(hash);
                                in_flight -= 1;
                                replies.push(Message::PutAck { op, key: Some(key) });
                            }
                            Action::Notify(Completion::MoveComplete { chunks_moved, .. }) => {
                                d.completed = Some(chunks_moved);
                            }
                            _ => {}
                        }
                    }
                    if replies.is_empty() {
                        break;
                    }
                    out = handle(self.dst, Message::Batch { msgs: replies });
                }
            }
        }
        d.secs = t0.elapsed().as_secs_f64();
        d
    }
}

/// A fresh two-shard controller with both lanes' MBs registered.
fn controller() -> Arc<ShardedController> {
    let ctrl = ShardedController::new(config());
    for _ in 0..4 {
        ctrl.register_mb();
    }
    Arc::new(ctrl)
}

/// After both moves: run the quiescence tick, acknowledge the source
/// deletes it sends, and require that nothing stays open or deferred.
fn closes_cleanly(ctrl: &ShardedController) -> bool {
    let later = SimTime(config().quiesce_after.0 + 1);
    for a in ctrl.tick(later) {
        if let Action::ToMb(
            mb,
            Message::DelSupportPerflow { op, .. } | Message::DelReportPerflow { op, .. },
        ) = a
        {
            ctrl.handle_mb_message(mb, Message::OpAck { op }, later);
        }
    }
    ctrl.open_ops() == 0 && ctrl.deferred_transfers() == 0
}

pub struct MoveThreads<T: Tracing> {
    lanes: [Arc<Lane>; 2],
    barrier: Arc<Barrier>,
    jobs: Sender<Arc<ShardedController>>,
    results: Receiver<Drive>,
    worker: JoinHandle<()>,
    flows: usize,
    _tracing: std::marker::PhantomData<T>,
}

impl<T: Tracing> Workload for MoveThreads<T> {
    const NAME: &'static str = "move_threads_2x";
    const THREADS: u32 = 2;
    const OPS_PER_SECOND: usize = 9;

    fn setup(seed: u64, div: u32) -> Self {
        let flows = (FLOWS / div as usize).max(FRAME);
        // Two subnets whose moves hash to different shards.
        let place = |i: u32, b: u8| {
            ShardRouter::hash_placement(SHARDS as usize, &subnet(b), MbId(2 * i), MbId(2 * i + 1))
        };
        let b1 = (1..=255).find(|&b| place(1, b) != place(0, 0)).expect("some subnet lands apart");
        let mut rng = Rng::new(seed);
        let lanes = [
            Arc::new(Lane::new(0, 0, flows, &mut rng)),
            Arc::new(Lane::new(1, b1, flows, &mut rng)),
        ];

        let barrier = Arc::new(Barrier::new(2));
        let (jobs, job_rx) = channel::<Arc<ShardedController>>();
        let (result_tx, results) = channel();
        let (lane, gate) = (Arc::clone(&lanes[1]), Arc::clone(&barrier));
        let worker = std::thread::spawn(move || {
            for ctrl in job_rx {
                let chunks = lane.chunks.clone();
                gate.wait();
                if result_tx.send(lane.drive::<T>(&ctrl, chunks)).is_err() {
                    return;
                }
            }
        });
        MoveThreads { lanes, barrier, jobs, results, worker, flows, _tracing: Default::default() }
    }

    fn items_per_op(&self) -> u64 {
        2 * self.flows as u64
    }

    fn op(&mut self, idx: u64, log: &mut SpanLog) -> OpOutcome {
        let ctrl = controller();
        self.jobs.send(Arc::clone(&ctrl)).expect("worker is alive");
        let chunks = self.lanes[0].chunks.clone();

        self.barrier.wait();
        let t0 = Instant::now();
        let mine = self.lanes[0].drive::<T>(&ctrl, chunks);
        let theirs = self.results.recv().expect("worker is alive");
        let secs = mine.secs.min(theirs.secs);

        let done = |d: &Drive| d.completed == Some(self.flows) && d.ledger_peak <= WINDOW as usize;
        let ok = done(&mine) && done(&theirs) && closes_cleanly(&ctrl);
        if T::ON {
            log.spans.push(Span::timed("op", "", idx, t0, secs, self.items_per_op()));
            for d in [&mine, &theirs] {
                log.spans.push(Span::timed("drive.lane", "op", idx, t0, d.secs, self.flows as u64));
            }
            for lane in &self.lanes {
                log.spans.extend([lane.calls.take(idx), lane.admit.take(idx)]);
            }
            let count = |name, n| Span::count(name, "op", idx, n);
            log.spans.extend([
                count("core.shard.messages", ctrl.messages_handled()),
                count("drive.refs", mine.refs + theirs.refs),
                count("drive.needs", mine.needs + theirs.needs),
                count("drive.ledger_peak", mine.ledger_peak.max(theirs.ledger_peak) as u64),
            ]);
        }
        OpOutcome::checked(secs, ok)
    }

    fn layer_metrics(&mut self, log: &SpanLog, ops: &[OpOutcome]) -> Vec<(&'static str, f64)> {
        let flows = ops.len() as f64 * self.items_per_op() as f64;
        let calls = log.total("core.parallel.handle_mb_message");
        let admit = log.total("core.parallel.move_internal");
        let lanes_ns = log.total("drive.lane").busy_ns as f64;
        let items = |name: &str| log.total(name).items as f64;
        let peak =
            log.spans.iter().filter(|s| s.name == "drive.ledger_peak").map(|s| s.items).max();
        let peak = peak.unwrap_or(0);

        // One thread driving one move alone, on a controller of its own.
        let alone: Vec<f64> = (0..10)
            .map(|_| self.lanes[0].drive::<T>(&controller(), self.lanes[0].chunks.clone()).secs)
            .collect();
        for lane in &self.lanes {
            lane.calls.take(0);
            lane.admit.take(0);
        }
        let together: Vec<f64> = ops.iter().map(|o| o.secs).collect();

        vec![
            ("core.parallel.call_ns_per_msg", calls.ns_per_item()),
            ("core.shard.msgs_per_flow", ratio(items("core.shard.messages"), flows)),
            ("core.shard.ledger_peak", peak as f64),
            ("core.shard.cache_hit_frac", 1.0 - ratio(items("drive.needs"), items("drive.refs"))),
            ("core.router.admit_ns", ratio(admit.busy_ns as f64, admit.calls as f64)),
            // A move beside another as fast as a move alone is 1.0; two
            // moves taking turns, 0.5.
            ("core.parallel.scaling_eff", ratio(median(&alone), median(&together))),
            // Time inside controller calls over both threads' move time.
            ("model.coverage_frac", ratio((calls.busy_ns + admit.busy_ns) as f64, lanes_ns)),
        ]
    }

    fn teardown(self) {
        drop(self.jobs);
        self.worker.join().expect("worker thread panicked");
    }
}
