//! Transfer-pipeline scale benchmark: drives [`ControllerCore`] through
//! moves of 10k / 100k / 1M flows and measures per-op completion time,
//! chunk throughput, and peak ledger occupancy under the sliding
//! transfer window.
//!
//! The baseline column reproduces the pre-windowing ledger at the data
//! structure level — a put `Vec` `retain`ed on every ack, an
//! ever-growing acked-seq `HashSet`, a pending-key `Vec` scanned per
//! ack — fed the same all-puts-then-all-acks pattern the simulator
//! produces, so the speedup isolates the O(n²)→O(n log n) ledger
//! change. The optimized column runs the *real* controller (sub-op
//! allocation, span hooks, dedup sets included), so the comparison is
//! conservative.
//!
//! The bytes-on-wire axis measures the content-addressed transfer: the
//! same move driven twice against one destination [`ContentStore`]. The
//! cold pass streams every chunk body (ref + miss + body per chunk);
//! the warm pass — a repeated or resumed move — answers every reference
//! from the cache, so only the ~55-byte refs cross the wire.
//!
//! The multi-op axis measures the sharded controller: K disjoint
//! 100k-flow moves (disjoint MB pairs, disjoint two-sided subnets)
//! driven through the same windowed pipeline at `shards = 1` vs
//! `shards = K`, with every southbound message priced by the
//! [`ControllerCosts`] model the simulator uses and attributed to its
//! owning shard. Shards are independent modeled servers, so the
//! *virtual-time makespan* of the run is the busiest shard's total
//! service time — deterministic, machine-independent, and therefore
//! gateable in CI. The speedup is the 1-shard makespan over the
//! K-shard makespan: it collapses to ~1x the moment routing or the
//! conflict detector wrongly serializes disjoint ops onto one shard.
//!
//! The chain axis measures the chain-move layer: one K-hop
//! [`ChainSpec`] (K disjoint MB pairs, one wildcard flow group) driven
//! through `chain_move`, every southbound message priced by the same
//! [`ControllerCosts`] model. Hops run serially by design, so the ideal
//! virtual-time makespan is K × a single hop's; the gate bounds the
//! *orchestration tax* — how far the chain's actual makespan sits above
//! that ideal. The tax is pure virtual time (deterministic), so the
//! acceptance threshold itself is the gate: it trips the moment the
//! chain layer starts re-streaming chunks, duplicating southbound
//! chatter, or serializing against itself.
//!
//! Usage:
//!   scale_bench [OUT.json]        full run: 10k + 100k comparisons,
//!                                 10k/100k/1M scale table, cold/warm
//!                                 bytes at 10k/100k, 4x100k multi-op
//!                                 axis, 4x100k chain axis, write JSON
//!   scale_bench --smoke           10k windowed drive + 4x5k multi-op
//!                                 drive + 4x5k chain drive, invariant
//!                                 asserts only (fast; per-commit CI)
//!   scale_bench --check BASE.json re-measure the gated benches and
//!                                 fail (exit 1) if the ledger speedup
//!                                 regressed >20% vs the committed
//!                                 baseline, warm-move bytes savings
//!                                 fell below the 90% floor, the
//!                                 multi-op virtual-time speedup fell
//!                                 below the 3x floor, or the chain
//!                                 orchestration tax rose above the 5%
//!                                 ceiling

use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use openmb_core::chain::{ChainHop, ChainSpec};
use openmb_core::controller::{Action, Completion, ControllerConfig, ControllerCore};
use openmb_core::nodes::ControllerCosts;
use openmb_simnet::{SimDuration, SimTime};
use openmb_store::{ContentStore, MemoryContentStore};
use openmb_types::crypto::VendorKey;
use openmb_types::wire::{self, Message};
use openmb_types::{EncryptedChunk, FlowKey, HeaderFieldList, IpPrefix, MbId, OpId, StateChunk};

/// Sliding window used for every windowed drive.
const WINDOW: u32 = 512;
/// Chunks per coalesced southbound frame fed to the controller.
const BATCH: usize = 16;
/// Chunks streamed between ack round-trips: several windows' worth, so
/// the ledger fills to the window and the overflow queues.
const BURST: u32 = 4 * WINDOW;
/// CI gate: same-run speedup may fall at most this far below the
/// committed baseline's (machine-speed independent, like perf_baseline).
const MAX_REGRESSION: f64 = 0.20;
/// CI gate: a warm (cache-primed) repeated move must put at least this
/// many percent fewer bytes on the destination's wire than a cold one.
const MIN_SAVINGS: f64 = 90.0;
/// Simultaneous disjoint moves (and shards) in the multi-op axis.
const MULTI_OPS: usize = 4;
/// CI gate: virtual-time makespan speedup floor for [`MULTI_OPS`]
/// disjoint moves at `shards = MULTI_OPS` vs `shards = 1`. Virtual time
/// is deterministic (no machine speed in it), so the acceptance
/// threshold itself is the gate, like the bytes-savings floor.
const MIN_MULTI_SPEEDUP: f64 = 3.0;
/// Hops in the chain axis.
const CHAIN_HOPS: usize = 4;
/// CI gate: a [`CHAIN_HOPS`]-hop chain's virtual-time makespan may sit
/// at most this many percent above the serial ideal (hops × a single
/// hop's makespan). Deterministic, so the ceiling is the gate.
const MAX_CHAIN_OVERHEAD_PCT: f64 = 5.0;

fn key(i: u32) -> FlowKey {
    FlowKey::tcp(Ipv4Addr::from(0x0a00_0000 + i), 4000, Ipv4Addr::new(192, 168, 1, 1), 80)
}

fn chunk(i: u32, blob: &EncryptedChunk) -> StateChunk {
    StateChunk::new(HeaderFieldList::exact(key(i)), blob.clone())
}

/// What a windowed drive observed.
struct Drive {
    wall_ns: u128,
    peak_ledger: usize,
    peak_queue: usize,
    peak_ack_set: usize,
    frames_in: u64,
    /// Σ `encoded_len` over every controller→destination message — the
    /// bytes-on-wire axis the content-addressed transfer optimizes.
    bytes_to_dst: u64,
    completed: bool,
}

/// Reply to every message the controller just issued to the destination
/// and feed the replies back as one coalesced frame, until the action
/// queue is quiet. Mirrors a destination MB that batches its replies per
/// frame and keeps its chunk bodies in `store`: references hit the store
/// or come back as `ChunkNeed`, streamed bodies populate it.
fn pump_acks(
    core: &mut ControllerCore,
    dst: openmb_types::MbId,
    op: OpId,
    store: &MemoryContentStore,
    out: &mut Vec<Action>,
    d: &mut Drive,
) {
    let now = SimTime(0);
    loop {
        let mut acks: Vec<Message> = Vec::new();
        for a in out.drain(..) {
            match a {
                Action::ToMb(to, m) => {
                    if to == dst {
                        d.bytes_to_dst += wire::encoded_len(&m) as u64;
                    }
                    match m {
                        Message::PutSupportPerflow { op, chunk }
                        | Message::PutReportPerflow { op, chunk } => {
                            acks.push(Message::PutAck { op, key: Some(chunk.key) });
                        }
                        Message::ChunkRef { op, key, hash, .. } => {
                            if store.contains(&hash) {
                                acks.push(Message::PutAck { op, key: Some(key) });
                            } else {
                                acks.push(Message::ChunkNeed { op, hash });
                            }
                        }
                        Message::ChunkBody { op, key, data, .. } => {
                            store.put(data.as_wire());
                            acks.push(Message::PutAck { op, key: Some(key) });
                        }
                        Message::PutSupportShared { op, .. }
                        | Message::PutReportShared { op, .. } => {
                            acks.push(Message::PutAck { op, key: None });
                        }
                        _ => {}
                    }
                }
                Action::Notify(c) => {
                    if matches!(c, Completion::MoveComplete { .. }) {
                        d.completed = true;
                    }
                }
                _ => {}
            }
        }
        if acks.is_empty() {
            return;
        }
        let stats = core.transfer_ledger_stats(op);
        d.peak_ledger = d.peak_ledger.max(stats.puts_in_flight);
        d.peak_queue = d.peak_queue.max(stats.puts_queued);
        let frame = if acks.len() == 1 {
            acks.pop().expect("len 1")
        } else {
            Message::Batch { msgs: acks }
        };
        core.handle_mb_message(dst, frame, now, out);
        d.peak_ack_set = d.peak_ack_set.max(core.transfer_ledger_stats(op).ack_set_size);
    }
}

/// Move `n` report chunks through the real controller with the sliding
/// window, batched frames both ways, acks flowing while chunks stream.
/// With `content_cache` on, the destination model answers references
/// from `store`; with it off the controller streams plain puts and the
/// store is untouched. `mk_chunk` builds flow `i`'s chunk — the bytes
/// benches give every flow a distinct body so content addressing can't
/// dedup within a single cold run.
fn windowed_move(
    n: u32,
    mk_chunk: &dyn Fn(u32) -> StateChunk,
    content_cache: bool,
    store: &MemoryContentStore,
) -> Drive {
    let mut core = ControllerCore::new(ControllerConfig {
        transfer_window: WINDOW,
        content_cache,
        ..Default::default()
    });
    let src = core.register_mb();
    let dst = core.register_mb();
    let now = SimTime(0);
    let mut d = Drive {
        wall_ns: 0,
        peak_ledger: 0,
        peak_queue: 0,
        peak_ack_set: 0,
        frames_in: 0,
        bytes_to_dst: 0,
        completed: false,
    };

    let t = Instant::now();
    let mut out = Vec::new();
    let op = core.move_internal(src, dst, HeaderFieldList::any(), now, &mut out);
    let (mut gs, mut gr) = (None, None);
    for a in out.drain(..) {
        if let Action::ToMb(_, m) = a {
            match m {
                Message::GetSupportPerflow { op, .. } => gs = Some(op),
                Message::GetReportPerflow { op, .. } => gr = Some(op),
                _ => {}
            }
        }
    }
    let (gs, gr) = (gs.expect("support get"), gr.expect("report get"));
    // Monitor-style source: no per-flow supporting state.
    core.handle_mb_message(src, Message::GetAck { op: gs, count: 0 }, now, &mut out);
    pump_acks(&mut core, dst, op, store, &mut out, &mut d);

    // Chunks stream in BATCH-sized frames; acks only round-trip every
    // BURST chunks, so the window genuinely fills and the put queue
    // grows past it — the shape a fast source and a slower destination
    // produce — before each drain.
    let mut base = 0u32;
    while base < n {
        let hi = (base + BATCH as u32).min(n);
        let msgs: Vec<Message> =
            (base..hi).map(|i| Message::Chunk { op: gr, chunk: mk_chunk(i) }).collect();
        core.handle_mb_message(src, Message::Batch { msgs }, now, &mut out);
        d.frames_in += 1;
        if hi.is_multiple_of(BURST) || hi == n {
            pump_acks(&mut core, dst, op, store, &mut out, &mut d);
        }
        base = hi;
    }
    core.handle_mb_message(src, Message::GetAck { op: gr, count: n }, now, &mut out);
    pump_acks(&mut core, dst, op, store, &mut out, &mut d);
    d.wall_ns = t.elapsed().as_nanos();

    assert!(d.completed, "move of {n} chunks must complete");
    let stats = core.transfer_ledger_stats(op);
    assert_eq!(stats.puts_in_flight, 0);
    assert_eq!(stats.puts_queued, 0);
    assert_eq!(stats.ack_set_size, 0, "watermark must drain the ack set");
    d.peak_ledger = d.peak_ledger.max(stats.in_flight_peak);
    d
}

/// The pre-windowing ledger, reproduced at the data-structure level:
/// every put retained in a Vec scanned per ack, acked seqs accumulated
/// in a set that never shrinks, pending keys in a Vec retained per ack.
struct LegacyLedger {
    puts: Vec<(u64, Message)>,
    pending_keys: Vec<HeaderFieldList>,
    acked: HashSet<u64>,
}

/// Feed the legacy ledger the pattern the simulator produced: every put
/// issued while the acks round-trip, then the acks drain one by one.
fn legacy_move(n: u32, blob: &EncryptedChunk) -> u128 {
    let t = Instant::now();
    let mut l = LegacyLedger { puts: Vec::new(), pending_keys: Vec::new(), acked: HashSet::new() };
    for i in 0..n {
        let c = chunk(i, blob);
        let k = c.key;
        l.puts.push((u64::from(i), Message::PutReportPerflow { op: OpId(u64::from(i)), chunk: c }));
        l.pending_keys.push(k);
    }
    for i in 0..u64::from(n) {
        if !l.acked.insert(i) {
            continue;
        }
        let k = HeaderFieldList::exact(key(i as u32));
        l.puts.retain(|(s, _)| *s != i);
        l.pending_keys.retain(|p| p != &k);
    }
    black_box((l.puts.len(), l.pending_keys.len(), l.acked.len()));
    t.elapsed().as_nanos()
}

/// Best of `reps` runs, in ns.
fn best_of(reps: usize, mut f: impl FnMut() -> u128) -> f64 {
    (0..reps).map(|_| f()).min().expect("reps > 0") as f64
}

struct Bench {
    name: &'static str,
    gated: bool,
    baseline_ns: f64,
    optimized_ns: f64,
}

struct ScaleRow {
    flows: u32,
    wall_ms: f64,
    chunks_per_sec: f64,
    peak_ledger: usize,
    peak_ack_set: usize,
    frames_in: u64,
}

/// Cold/warm bytes-on-wire for one flow count: the same move driven
/// twice against one destination store.
struct BytesRow {
    flows: u32,
    cold_bytes: u64,
    warm_bytes: u64,
    savings_pct: f64,
}

fn bytes_row(n: u32, vendor: &VendorKey) -> BytesRow {
    // Every flow carries a distinct 1 KiB body (sealing is deterministic,
    // so the warm pass re-produces the same bytes): the cold pass can't
    // dedup across flows, and the warm pass hits on all of them.
    let mk = |i: u32| {
        StateChunk::new(
            HeaderFieldList::exact(key(i)),
            EncryptedChunk::seal(vendor, u64::from(i) + 1, &vec![(i % 251) as u8; 1024]),
        )
    };
    let store = MemoryContentStore::new();
    let cold = windowed_move(n, &mk, true, &store);
    let warm = windowed_move(n, &mk, true, &store);
    assert!(
        warm.bytes_to_dst < cold.bytes_to_dst,
        "{n} flows: warm move must put fewer bytes on the wire than cold"
    );
    BytesRow {
        flows: n,
        cold_bytes: cold.bytes_to_dst,
        warm_bytes: warm.bytes_to_dst,
        savings_pct: 100.0 * (1.0 - warm.bytes_to_dst as f64 / cold.bytes_to_dst as f64),
    }
}

fn scale_row(n: u32, blob: &EncryptedChunk) -> ScaleRow {
    // Streaming mode: the scale table measures the transfer pipeline
    // itself, continuous with the PR-5 baseline.
    let d = windowed_move(n, &|i| chunk(i, blob), false, &MemoryContentStore::new());
    assert!(
        d.peak_ledger <= WINDOW as usize,
        "{n} flows: peak ledger {} exceeded window {WINDOW}",
        d.peak_ledger
    );
    ScaleRow {
        flows: n,
        wall_ms: d.wall_ns as f64 / 1e6,
        chunks_per_sec: f64::from(n) / (d.wall_ns as f64 / 1e9),
        peak_ledger: d.peak_ledger,
        peak_ack_set: d.peak_ack_set,
        frames_in: d.frames_in,
    }
}

// ----------------------------------------------------------------------
// Multi-op axis: K disjoint moves, virtual-time makespan per shard count
// ----------------------------------------------------------------------

/// Two-sided "within subnet `10.b.0.0/16`" pattern: flows whose src
/// *and* dst stay inside one tenant subnet. Disjoint `b`s are disjoint
/// even direction-insensitively, which is what lets the conflict
/// detector hash them to different shards.
fn multi_subnet(b: u8) -> HeaderFieldList {
    let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
    HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
}

/// Flow `j` of tenant `b`: both endpoints inside `10.b.0.0/16`.
fn multi_key(b: u8, j: u32) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, b, (j >> 8) as u8, j as u8),
        (1000 + (j >> 16)) as u16,
        Ipv4Addr::new(10, b, 255, 1),
        80,
    )
}

/// Pick `k` subnet bytes whose (flowspace, MB pair `i`) hashes land on
/// `k` distinct shards. Placement is a deterministic hash, so the
/// search always converges in a handful of probes; pinning the spread
/// makes the gate measure the per-shard service model (and regressions
/// where routing or conflict detection wrongly serializes disjoint
/// ops), not hash luck over arbitrary subnets.
fn pick_spread_subnets(shards: u32, k: usize) -> Vec<u8> {
    let mut bs = Vec::new();
    let mut b: u16 = 0;
    for i in 0..k {
        loop {
            assert!(b < 256, "no subnet byte hashes pair {i} to shard {i}");
            let cand = b as u8;
            b += 1;
            let core =
                ControllerCore::new(ControllerConfig { shards, ..ControllerConfig::default() });
            let pairs: Vec<(MbId, MbId)> =
                (0..k).map(|_| (core.register_mb(), core.register_mb())).collect();
            let mut out = Vec::new();
            let op = core.move_internal(
                pairs[i].0,
                pairs[i].1,
                multi_subnet(cand),
                SimTime(0),
                &mut out,
            );
            if core.shard_of_op(op) == i % shards as usize {
                bs.push(cand);
                break;
            }
        }
    }
    bs
}

/// Virtual service cost of one southbound message at the controller —
/// the same pricing `ControllerNode::pump_shard` applies in the
/// simulator, so the makespan here is the virtual time a sim run with
/// these shards would charge.
fn service_ns(costs: &ControllerCosts, msg: &Message) -> u64 {
    let mut d = costs.per_message;
    match msg {
        Message::Chunk { chunk, .. } => {
            d = d + costs.per_chunk + SimDuration(costs.per_kib.0 * chunk.data.len() as u64 / 1024);
        }
        Message::SharedChunk { chunk, .. } => {
            d = d + costs.per_chunk + SimDuration(costs.per_kib.0 * chunk.len() as u64 / 1024);
        }
        Message::EventMsg { .. } => d = d + costs.per_event,
        _ => {}
    }
    d.0
}

/// Price `msg` (per inner message, the way the sim's per-shard queues
/// do), attribute the cost to the owning shard, then deliver it.
fn feed(
    core: &mut ControllerCore,
    from: MbId,
    msg: Message,
    costs: &ControllerCosts,
    virt: &mut [u64],
    out: &mut Vec<Action>,
) {
    match &msg {
        Message::Batch { msgs } => {
            for m in msgs {
                virt[core.shard_of_message(from, m)] += service_ns(costs, m);
            }
        }
        m => virt[core.shard_of_message(from, m)] += service_ns(costs, m),
    }
    core.handle_mb_message(from, msg, SimTime(0), out);
}

/// One in-flight move of the multi-op drive.
struct OpStream {
    src: MbId,
    dst: MbId,
    op: OpId,
    gs: OpId,
    gr: OpId,
    subnet: u8,
    completed: bool,
}

/// Ack every outstanding put across all streams, re-pricing the ack
/// frames, until the action queue quiets. Mirrors [`pump_acks`] with K
/// destinations (streaming mode only — no content store).
fn multi_pump(
    core: &mut ControllerCore,
    streams: &mut [OpStream],
    costs: &ControllerCosts,
    virt: &mut [u64],
    out: &mut Vec<Action>,
) {
    loop {
        let mut acks: Vec<Vec<Message>> = streams.iter().map(|_| Vec::new()).collect();
        for a in out.drain(..) {
            match a {
                Action::ToMb(to, m) => match m {
                    Message::PutSupportPerflow { op, chunk }
                    | Message::PutReportPerflow { op, chunk } => {
                        let i = streams
                            .iter()
                            .position(|s| s.dst == to)
                            .expect("puts only target a stream's destination");
                        acks[i].push(Message::PutAck { op, key: Some(chunk.key) });
                    }
                    Message::PutSupportShared { op, .. } | Message::PutReportShared { op, .. } => {
                        let i = streams.iter().position(|s| s.dst == to).expect("dst");
                        acks[i].push(Message::PutAck { op, key: None });
                    }
                    _ => {}
                },
                Action::Notify(Completion::MoveComplete { op, .. }) => {
                    if let Some(s) = streams.iter_mut().find(|s| s.op == op) {
                        s.completed = true;
                    }
                }
                _ => {}
            }
        }
        if acks.iter().all(Vec::is_empty) {
            return;
        }
        for (i, mut msgs) in acks.into_iter().enumerate() {
            if msgs.is_empty() {
                continue;
            }
            let dst = streams[i].dst;
            let frame =
                if msgs.len() == 1 { msgs.pop().expect("len 1") } else { Message::Batch { msgs } };
            feed(core, dst, frame, costs, virt, out);
        }
    }
}

/// What one multi-op drive observed.
struct MultiDrive {
    wall_ns: u128,
    /// Virtual-time makespan: the busiest shard's total service time.
    virt_makespan_ns: u64,
    /// Total virtual service time across shards (identical workload
    /// check: must match across shard counts).
    virt_total_ns: u64,
    /// Distinct shards the K ops landed on.
    shards_used: usize,
}

/// Drive `k` disjoint `n`-flow moves simultaneously through one
/// controller at the given shard count, interleaving the streams
/// round-robin so every shard's queue stays busy — the concurrent
/// traffic shape `ControllerNode` services with one modeled server per
/// shard.
fn multi_move(shards: u32, n: u32, subnets: &[u8], blob: &EncryptedChunk) -> MultiDrive {
    let costs = ControllerCosts::default();
    let mut core = ControllerCore::new(ControllerConfig {
        shards,
        transfer_window: WINDOW,
        content_cache: false,
        ..ControllerConfig::default()
    });
    let pairs: Vec<(MbId, MbId)> =
        subnets.iter().map(|_| (core.register_mb(), core.register_mb())).collect();
    let now = SimTime(0);
    let mut virt = vec![0u64; shards.max(1) as usize];

    let t = Instant::now();
    let mut out = Vec::new();
    let mut streams: Vec<OpStream> = Vec::new();
    for (&(src, dst), &subnet) in pairs.iter().zip(subnets) {
        let op = core.move_internal(src, dst, multi_subnet(subnet), now, &mut out);
        let (mut gs, mut gr) = (None, None);
        for a in out.drain(..) {
            if let Action::ToMb(_, m) = a {
                match m {
                    Message::GetSupportPerflow { op, .. } => gs = Some(op),
                    Message::GetReportPerflow { op, .. } => gr = Some(op),
                    _ => {}
                }
            }
        }
        streams.push(OpStream {
            src,
            dst,
            op,
            gs: gs.expect("support get"),
            gr: gr.expect("report get"),
            subnet,
            completed: false,
        });
    }
    let shards_used: HashSet<usize> = streams.iter().map(|s| core.shard_of_op(s.op)).collect();
    let shards_used = shards_used.len();

    // Monitor-style sources: no per-flow supporting state.
    let acks: Vec<(MbId, OpId)> = streams.iter().map(|s| (s.src, s.gs)).collect();
    for (src, gs) in acks {
        feed(&mut core, src, Message::GetAck { op: gs, count: 0 }, &costs, &mut virt, &mut out);
    }
    multi_pump(&mut core, &mut streams, &costs, &mut virt, &mut out);

    // All k chunk streams interleave round-robin in BATCH-sized frames,
    // with the shared ack round-trip every BURST chunks — every op's
    // window fills and refills concurrently with the others'.
    let mut base = 0u32;
    while base < n {
        let hi = (base + BATCH as u32).min(n);
        let frames: Vec<(MbId, OpId, u8)> =
            streams.iter().map(|s| (s.src, s.gr, s.subnet)).collect();
        for (src, gr, subnet) in frames {
            let msgs: Vec<Message> = (base..hi)
                .map(|j| Message::Chunk {
                    op: gr,
                    chunk: StateChunk::new(
                        HeaderFieldList::exact(multi_key(subnet, j)),
                        blob.clone(),
                    ),
                })
                .collect();
            feed(&mut core, src, Message::Batch { msgs }, &costs, &mut virt, &mut out);
        }
        if hi.is_multiple_of(BURST) || hi == n {
            multi_pump(&mut core, &mut streams, &costs, &mut virt, &mut out);
        }
        base = hi;
    }
    let finals: Vec<(MbId, OpId)> = streams.iter().map(|s| (s.src, s.gr)).collect();
    for (src, gr) in finals {
        feed(&mut core, src, Message::GetAck { op: gr, count: n }, &costs, &mut virt, &mut out);
    }
    multi_pump(&mut core, &mut streams, &costs, &mut virt, &mut out);
    let wall_ns = t.elapsed().as_nanos();

    for s in &streams {
        assert!(s.completed, "move {:?} of {n} chunks must complete", s.op);
        let stats = core.transfer_ledger_stats(s.op);
        assert_eq!(stats.puts_in_flight, 0);
        assert_eq!(stats.puts_queued, 0);
        assert!(
            stats.in_flight_peak <= WINDOW as usize,
            "op {:?}: peak ledger {} exceeded window {WINDOW}",
            s.op,
            stats.in_flight_peak
        );
    }
    MultiDrive {
        wall_ns,
        virt_makespan_ns: virt.iter().copied().max().unwrap_or(0),
        virt_total_ns: virt.iter().sum(),
        shards_used,
    }
}

// ----------------------------------------------------------------------
// Chain axis: one K-hop chain move, virtual-time makespan vs serial ideal
// ----------------------------------------------------------------------

/// Sink state the chain pump accumulates across a hop: put acks flow
/// back, the *next* hop's gets (pushed by the chain layer the moment
/// the previous hop's `MoveComplete` lands) are stashed instead of
/// dropped, and the terminal `ChainComplete` is captured.
struct ChainSink {
    next_gs: Option<OpId>,
    next_gr: Option<OpId>,
    committed: bool,
    chunks_moved: usize,
}

/// Ack every outstanding put, stashing gets and the chain completion —
/// the chain-layer analog of [`pump_acks`] (streaming mode, no store).
fn chain_pump(
    core: &mut ControllerCore,
    costs: &ControllerCosts,
    virt: &mut [u64],
    out: &mut Vec<Action>,
    sink: &mut ChainSink,
) {
    loop {
        let mut acks: Vec<(MbId, Message)> = Vec::new();
        for a in out.drain(..) {
            match a {
                Action::ToMb(to, m) => match m {
                    Message::PutSupportPerflow { op, chunk }
                    | Message::PutReportPerflow { op, chunk } => {
                        acks.push((to, Message::PutAck { op, key: Some(chunk.key) }));
                    }
                    Message::PutSupportShared { op, .. } | Message::PutReportShared { op, .. } => {
                        acks.push((to, Message::PutAck { op, key: None }));
                    }
                    Message::GetSupportPerflow { op, .. } => sink.next_gs = Some(op),
                    Message::GetReportPerflow { op, .. } => sink.next_gr = Some(op),
                    _ => {}
                },
                Action::Notify(Completion::ChainComplete { chunks_moved, .. }) => {
                    sink.committed = true;
                    sink.chunks_moved = chunks_moved;
                }
                _ => {}
            }
        }
        if acks.is_empty() {
            return;
        }
        for (to, ack) in acks {
            feed(core, to, ack, costs, virt, out);
        }
    }
}

/// What one chain drive observed.
struct ChainDrive {
    wall_ns: u128,
    /// Virtual-time makespan (busiest shard — a chain pins to one).
    virt_makespan_ns: u64,
    chunks_moved: usize,
}

/// Drive one `hops`-long chain of `n`-flow moves through `chain_move`,
/// hop by hop as the chain layer issues them, pricing every southbound
/// message. The sources stream the same windowed, batched traffic shape
/// as [`windowed_move`].
fn chain_drive(hops: usize, n: u32, blob: &EncryptedChunk) -> ChainDrive {
    let costs = ControllerCosts::default();
    let mut core = ControllerCore::new(ControllerConfig {
        shards: MULTI_OPS as u32,
        transfer_window: WINDOW,
        content_cache: false,
        ..ControllerConfig::default()
    });
    let pairs: Vec<(MbId, MbId)> =
        (0..hops).map(|_| (core.register_mb(), core.register_mb())).collect();
    let now = SimTime(0);
    let mut virt = vec![0u64; MULTI_OPS];
    let mut out = Vec::new();
    let mut sink = ChainSink { next_gs: None, next_gr: None, committed: false, chunks_moved: 0 };

    let t = Instant::now();
    let chain = core.chain_move(
        ChainSpec::new(
            HeaderFieldList::any(),
            pairs.iter().map(|&(src, dst)| ChainHop { src, dst }).collect(),
        ),
        now,
        &mut out,
    );
    for &(src, _) in &pairs {
        // Collect this hop's gets — issued by `chain_move` for hop 0,
        // by the previous hop's completion (inside the last pump) for
        // every later hop.
        chain_pump(&mut core, &costs, &mut virt, &mut out, &mut sink);
        let gs = sink.next_gs.take().expect("hop support get");
        let gr = sink.next_gr.take().expect("hop report get");
        // Monitor-style source: no per-flow supporting state.
        feed(&mut core, src, Message::GetAck { op: gs, count: 0 }, &costs, &mut virt, &mut out);
        chain_pump(&mut core, &costs, &mut virt, &mut out, &mut sink);
        let mut base = 0u32;
        while base < n {
            let hi = (base + BATCH as u32).min(n);
            let msgs: Vec<Message> =
                (base..hi).map(|i| Message::Chunk { op: gr, chunk: chunk(i, blob) }).collect();
            feed(&mut core, src, Message::Batch { msgs }, &costs, &mut virt, &mut out);
            if hi.is_multiple_of(BURST) || hi == n {
                chain_pump(&mut core, &costs, &mut virt, &mut out, &mut sink);
            }
            base = hi;
        }
        feed(&mut core, src, Message::GetAck { op: gr, count: n }, &costs, &mut virt, &mut out);
        chain_pump(&mut core, &costs, &mut virt, &mut out, &mut sink);
    }
    let wall_ns = t.elapsed().as_nanos();

    assert!(sink.committed, "{hops}-hop chain of {n}-flow moves must commit");
    assert_eq!(core.open_chains(), 0, "chain must settle");
    assert_eq!(
        sink.chunks_moved,
        hops * n as usize,
        "chain must report every hop's chunks exactly once"
    );
    let stats = core.transfer_ledger_stats(chain);
    assert!(
        stats.in_flight_peak <= WINDOW as usize,
        "chain: peak ledger {} exceeded window {WINDOW}",
        stats.in_flight_peak
    );
    ChainDrive {
        wall_ns,
        virt_makespan_ns: virt.iter().copied().max().unwrap_or(0),
        chunks_moved: sink.chunks_moved,
    }
}

/// The chain comparison: a [`CHAIN_HOPS`]-hop chain vs the serial ideal
/// of `CHAIN_HOPS` × one single-hop chain's makespan.
struct ChainRow {
    hops: usize,
    flows_per_hop: u32,
    virt_ms_chain: f64,
    virt_ms_ideal: f64,
    wall_ms: f64,
    overhead_pct: f64,
}

fn chain_row(n: u32, blob: &EncryptedChunk) -> ChainRow {
    let one = chain_drive(1, n, blob);
    let full = chain_drive(CHAIN_HOPS, n, blob);
    assert_eq!(full.chunks_moved, CHAIN_HOPS * one.chunks_moved);
    let ideal = one.virt_makespan_ns * CHAIN_HOPS as u64;
    ChainRow {
        hops: CHAIN_HOPS,
        flows_per_hop: n,
        virt_ms_chain: full.virt_makespan_ns as f64 / 1e6,
        virt_ms_ideal: ideal as f64 / 1e6,
        wall_ms: full.wall_ns as f64 / 1e6,
        overhead_pct: 100.0 * (full.virt_makespan_ns as f64 / ideal as f64 - 1.0),
    }
}

fn print_chain(c: &ChainRow) {
    println!(
        "chain {}x{} flows: virtual makespan {:>10.1} ms (ideal {:>10.1} ms)  orchestration tax {:>5.2}%",
        c.hops, c.flows_per_hop, c.virt_ms_chain, c.virt_ms_ideal, c.overhead_pct
    );
}

/// The multi-op comparison: identical workload at 1 shard vs
/// [`MULTI_OPS`] shards; speedup is the virtual-time makespan ratio.
struct MultiRow {
    ops: usize,
    flows_per_op: u32,
    virt_ms_1shard: f64,
    virt_ms_sharded: f64,
    wall_ms_1shard: f64,
    wall_ms_sharded: f64,
    speedup: f64,
}

fn multi_row(n: u32, blob: &EncryptedChunk) -> MultiRow {
    let shards = MULTI_OPS as u32;
    let subnets = pick_spread_subnets(shards, MULTI_OPS);
    let d1 = multi_move(1, n, &subnets, blob);
    let dn = multi_move(shards, n, &subnets, blob);
    assert_eq!(d1.shards_used, 1);
    assert_eq!(
        dn.shards_used, MULTI_OPS,
        "probed subnets {subnets:?} must spread over all {MULTI_OPS} shards"
    );
    assert_eq!(
        d1.virt_total_ns, dn.virt_total_ns,
        "both shard counts must service the identical workload"
    );
    MultiRow {
        ops: MULTI_OPS,
        flows_per_op: n,
        virt_ms_1shard: d1.virt_makespan_ns as f64 / 1e6,
        virt_ms_sharded: dn.virt_makespan_ns as f64 / 1e6,
        wall_ms_1shard: d1.wall_ns as f64 / 1e6,
        wall_ms_sharded: dn.wall_ns as f64 / 1e6,
        speedup: d1.virt_makespan_ns as f64 / dn.virt_makespan_ns as f64,
    }
}

fn print_multi(m: &MultiRow) {
    println!(
        "multi {}x{} flows: virtual makespan {:>10.1} ms @1 shard  {:>10.1} ms @{} shards  speedup {:>5.2}x",
        m.ops,
        m.flows_per_op,
        m.virt_ms_1shard,
        m.virt_ms_sharded,
        m.ops,
        m.speedup
    );
}

fn to_json(
    benches: &[Bench],
    scale: &[ScaleRow],
    bytes: &[BytesRow],
    multi: &[MultiRow],
    chain: &[ChainRow],
) -> String {
    let mut s = String::from("{\n  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"gated\": {}, \"baseline_ns\": {:.2}, \"optimized_ns\": {:.2}, \"speedup\": {:.2}}}{}\n",
            b.name,
            b.gated,
            b.baseline_ns,
            b.optimized_ns,
            b.baseline_ns / b.optimized_ns,
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"scale\": [\n");
    for (i, r) in scale.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"flows\": {}, \"wall_ms\": {:.2}, \"chunks_per_sec\": {:.0}, \"peak_ledger\": {}, \"window\": {}, \"peak_ack_set\": {}, \"frames_in\": {}}}{}\n",
            r.flows,
            r.wall_ms,
            r.chunks_per_sec,
            r.peak_ledger,
            WINDOW,
            r.peak_ack_set,
            r.frames_in,
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"bytes\": [\n");
    for (i, b) in bytes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"bytes_{}k\", \"flows\": {}, \"cold_bytes\": {}, \"warm_bytes\": {}, \"savings_pct\": {:.2}}}{}\n",
            b.flows / 1000,
            b.flows,
            b.cold_bytes,
            b.warm_bytes,
            b.savings_pct,
            if i + 1 < bytes.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"multi\": [\n");
    for (i, m) in multi.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"multi_{}x{}k\", \"ops\": {}, \"flows_per_op\": {}, \"virt_ms_1shard\": {:.2}, \"virt_ms_sharded\": {:.2}, \"wall_ms_1shard\": {:.2}, \"wall_ms_sharded\": {:.2}, \"speedup\": {:.2}}}{}\n",
            m.ops,
            m.flows_per_op / 1000,
            m.ops,
            m.flows_per_op,
            m.virt_ms_1shard,
            m.virt_ms_sharded,
            m.wall_ms_1shard,
            m.wall_ms_sharded,
            m.speedup,
            if i + 1 < multi.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"chain\": [\n");
    for (i, c) in chain.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"chain_{}x{}k\", \"hops\": {}, \"flows_per_hop\": {}, \"virt_ms_chain\": {:.2}, \"virt_ms_ideal\": {:.2}, \"wall_ms\": {:.2}, \"overhead_pct\": {:.2}}}{}\n",
            c.hops,
            c.flows_per_hop / 1000,
            c.hops,
            c.flows_per_hop,
            c.virt_ms_chain,
            c.virt_ms_ideal,
            c.wall_ms,
            c.overhead_pct,
            if i + 1 < chain.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `"field": <number>` for the `"name": "<name>"` object (same format
/// and parser as perf_baseline; no serde in-tree).
fn json_field(json: &str, name: &str, field: &str) -> Option<f64> {
    let obj_start = json.find(&format!("\"name\": \"{name}\""))?;
    let obj = &json[obj_start..json[obj_start..].find('}')? + obj_start];
    let f = obj.find(&format!("\"{field}\":"))?;
    let rest = obj[f..].split(':').nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

fn print_bench(b: &Bench) {
    println!(
        "{:<18} legacy {:>12.0} ns/op   windowed {:>12.0} ns/op   speedup {:>6.2}x",
        b.name,
        b.baseline_ns,
        b.optimized_ns,
        b.baseline_ns / b.optimized_ns
    );
}

fn print_bytes(b: &BytesRow) {
    println!(
        "bytes {:>8} flows: cold {:>12} B   warm {:>12} B   savings {:>6.2}%",
        b.flows, b.cold_bytes, b.warm_bytes, b.savings_pct
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let vendor = VendorKey::derive("scale-bench");
    // Ledger/scale benches keep the PR-5 blob size for continuity; the
    // bytes axis seals per-flow 1 KiB payloads — the regime where
    // bodies dwarf the ~60-byte references.
    let blob = EncryptedChunk::seal(&vendor, 1, &vec![7u8; 202]);

    if args.first().map(String::as_str) == Some("--smoke") {
        let r = scale_row(10_000, &blob);
        println!(
            "smoke: 10k flows in {:.1} ms ({:.0} chunks/s), peak ledger {}/{}, peak ack set {}",
            r.wall_ms, r.chunks_per_sec, r.peak_ledger, WINDOW, r.peak_ack_set
        );
        let b = bytes_row(10_000, &vendor);
        print_bytes(&b);
        assert!(
            b.savings_pct >= MIN_SAVINGS,
            "warm 10k move saved only {:.2}% of bytes on the wire (floor {MIN_SAVINGS}%)",
            b.savings_pct
        );
        let m = multi_row(5_000, &blob);
        print_multi(&m);
        assert!(
            m.speedup >= MIN_MULTI_SPEEDUP,
            "{} disjoint 5k moves sped up only {:.2}x at {} shards (floor {MIN_MULTI_SPEEDUP}x)",
            m.ops,
            m.speedup,
            m.ops
        );
        let c = chain_row(5_000, &blob);
        print_chain(&c);
        assert!(
            c.overhead_pct <= MAX_CHAIN_OVERHEAD_PCT,
            "{}-hop 5k chain orchestration tax {:.2}% above ceiling {MAX_CHAIN_OVERHEAD_PCT}%",
            c.hops,
            c.overhead_pct
        );
        return;
    }

    // The gated comparison CI re-measures; kept small so --check is fast.
    let gated = Bench {
        name: "move_10k_ledger",
        gated: true,
        baseline_ns: best_of(3, || legacy_move(10_000, &blob)),
        optimized_ns: best_of(3, || {
            windowed_move(10_000, &|i| chunk(i, &blob), false, &MemoryContentStore::new()).wall_ns
        }),
    };
    print_bench(&gated);

    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).expect("--check requires a baseline path");
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let Some(committed_speedup) = json_field(&committed, gated.name, "speedup") else {
            eprintln!("FAIL {}: not present in committed baseline", gated.name);
            std::process::exit(1);
        };
        let speedup = gated.baseline_ns / gated.optimized_ns;
        let floor = committed_speedup * (1.0 - MAX_REGRESSION);
        if speedup < floor {
            eprintln!(
                "FAIL {}: speedup {speedup:.2}x fell below {floor:.2}x (committed {committed_speedup:.2}x - {:.0}%)",
                gated.name,
                MAX_REGRESSION * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "ok   {}: speedup {speedup:.2}x (committed {committed_speedup:.2}x, floor {floor:.2}x)",
            gated.name
        );
        // The warm-move savings gate is an absolute floor, not a
        // baseline delta: bytes-on-wire is deterministic (no machine
        // speed in it), so the acceptance threshold itself is the gate.
        let b = bytes_row(10_000, &vendor);
        if b.savings_pct < MIN_SAVINGS {
            eprintln!(
                "FAIL bytes_10k: warm move saved only {:.2}% of bytes on the wire (floor {MIN_SAVINGS}%)",
                b.savings_pct
            );
            std::process::exit(1);
        }
        if json_field(&committed, "bytes_10k", "savings_pct").is_none() {
            eprintln!("FAIL bytes_10k: not present in committed baseline");
            std::process::exit(1);
        }
        println!("ok   bytes_10k: warm move saved {:.2}% (floor {MIN_SAVINGS}%)", b.savings_pct);
        // The multi-op gate is also an absolute floor: the makespan
        // ratio is pure virtual time, so the acceptance threshold is
        // the gate. Re-measured at 4x25k — the ratio is size-
        // independent, and --check stays fast.
        let m = multi_row(25_000, &blob);
        print_multi(&m);
        if m.speedup < MIN_MULTI_SPEEDUP {
            eprintln!(
                "FAIL multi: {} disjoint moves sped up only {:.2}x at {} shards (floor {MIN_MULTI_SPEEDUP}x)",
                m.ops, m.speedup, m.ops
            );
            std::process::exit(1);
        }
        if json_field(&committed, &format!("multi_{MULTI_OPS}x100k"), "speedup").is_none() {
            eprintln!("FAIL multi_{MULTI_OPS}x100k: not present in committed baseline");
            std::process::exit(1);
        }
        println!(
            "ok   multi: virtual-time speedup {:.2}x at {} shards (floor {MIN_MULTI_SPEEDUP}x)",
            m.speedup, m.ops
        );
        // The chain gate is an absolute ceiling on the orchestration
        // tax, same reasoning: pure virtual time. Re-measured at
        // 4x10k — the tax is size-independent, and --check stays fast.
        let c = chain_row(10_000, &blob);
        print_chain(&c);
        if c.overhead_pct > MAX_CHAIN_OVERHEAD_PCT {
            eprintln!(
                "FAIL chain: {}-hop chain orchestration tax {:.2}% above ceiling {MAX_CHAIN_OVERHEAD_PCT}%",
                c.hops, c.overhead_pct
            );
            std::process::exit(1);
        }
        if json_field(&committed, &format!("chain_{CHAIN_HOPS}x100k"), "overhead_pct").is_none() {
            eprintln!("FAIL chain_{CHAIN_HOPS}x100k: not present in committed baseline");
            std::process::exit(1);
        }
        println!(
            "ok   chain: orchestration tax {:.2}% at {} hops (ceiling {MAX_CHAIN_OVERHEAD_PCT}%)",
            c.overhead_pct, c.hops
        );
        return;
    }

    // Acceptance evidence: the 100k-chunk move must complete at least
    // 5x faster than the legacy ledger. One run each — at this size the
    // ledger dominates and run-to-run noise is far below the margin.
    let big = Bench {
        name: "move_100k_ledger",
        gated: false,
        baseline_ns: best_of(1, || legacy_move(100_000, &blob)),
        optimized_ns: best_of(1, || {
            windowed_move(100_000, &|i| chunk(i, &blob), false, &MemoryContentStore::new()).wall_ns
        }),
    };
    print_bench(&big);
    let big_speedup = big.baseline_ns / big.optimized_ns;
    assert!(
        big_speedup >= 5.0,
        "100k-chunk move must be ≥5x faster than the legacy ledger, got {big_speedup:.2}x"
    );

    let mut scale = Vec::new();
    for n in [10_000u32, 100_000, 1_000_000] {
        let r = scale_row(n, &blob);
        println!(
            "scale {:>9} flows: {:>9.1} ms  {:>11.0} chunks/s  peak ledger {:>3}/{}  ack set {:>3}  frames in {}",
            r.flows, r.wall_ms, r.chunks_per_sec, r.peak_ledger, WINDOW, r.peak_ack_set, r.frames_in
        );
        scale.push(r);
    }

    // Bytes-on-wire: cold vs warm against one destination store. The
    // acceptance bar (≥90% savings on a repeated 100k-flow move) is
    // asserted here so a full run is itself the evidence.
    let mut bytes = Vec::new();
    for n in [10_000u32, 100_000] {
        let b = bytes_row(n, &vendor);
        print_bytes(&b);
        assert!(
            b.savings_pct >= MIN_SAVINGS,
            "{n} flows: warm move saved only {:.2}% of bytes on the wire (floor {MIN_SAVINGS}%)",
            b.savings_pct
        );
        bytes.push(b);
    }

    // Multi-op axis: 4 disjoint 100k-flow moves, 1 shard vs 4. The
    // acceptance bar (≥3x virtual-time speedup) is asserted here so a
    // full run is itself the evidence.
    let m = multi_row(100_000, &blob);
    print_multi(&m);
    assert!(
        m.speedup >= MIN_MULTI_SPEEDUP,
        "{} disjoint 100k moves sped up only {:.2}x at {} shards (floor {MIN_MULTI_SPEEDUP}x)",
        m.ops,
        m.speedup,
        m.ops
    );

    // Chain axis: one 4-hop 100k-flow chain vs the serial ideal. The
    // acceptance bar (orchestration tax ≤ 5%) is asserted here so a
    // full run is itself the evidence.
    let c = chain_row(100_000, &blob);
    print_chain(&c);
    assert!(
        c.overhead_pct <= MAX_CHAIN_OVERHEAD_PCT,
        "{}-hop 100k chain orchestration tax {:.2}% above ceiling {MAX_CHAIN_OVERHEAD_PCT}%",
        c.hops,
        c.overhead_pct
    );

    let out = args.first().map(String::as_str).unwrap_or("BENCH_PR8.json");
    std::fs::write(out, to_json(&[gated, big], &scale, &bytes, &[m], &[c]))
        .expect("write baseline");
    println!("wrote {out}");
}
