//! Steady-state allocation audit for the batched packet path.
//!
//! A counting global allocator wraps `System`; the test drives the
//! Firewall established exact-match path, the NAT outbound established
//! path, the Monitor known-flow path and the IPS established-connection
//! data path through `process_batch` at two batch sizes with pre-warmed
//! buffers. Each train is one flow, so the Firewall, NAT and Monitor see
//! one `process_run` of n and the IPS n runs of one. It asserts the
//! allocation count does not grow with the batch size — i.e. zero
//! allocations *per packet* once
//! conntrack/mapping/asset/connection entries exist and the `Effects`
//! buffers have reached their high-water mark. (Packet clones are
//! refcount bumps on the shared payload, log lines only form on the
//! deny/drop/request/alert paths, and the NAT neither reads its config
//! tree nor walks its table while nothing can have expired.) None of
//! the four allocates per *batch* either: the Monitor, like the NAT,
//! reads a service table compiled when its config was written, and
//! classifies only a flow it has not seen.
//!
//! The same counter audits the control path's import side: opening a
//! sealed 1 520-byte chunk (the size `move_live_1400B` moves) allocates
//! exactly once — the plaintext it returns — and an
//! `Ips::put_support_perflow` of that chunk allocates no second buffer
//! of the body's size.
//!
//! The export side is audited too: a Monitor `export_perflow` of N
//! records allocates N buffers (each record's sealed chunk) plus a
//! constant, and a `ChunkRef` that hits the destination's content store
//! applies a 16-record run without allocating a buffer the size of its
//! content. On the destination, a Monitor put and a `ChunkRef` hit
//! allocate nothing per record: a record's labels decode inline. A
//! `FileContentStore` hit reads its entry into the one
//! buffer it returns, and the source's quiescence delete (a Monitor
//! `del_report_perflow` of N records) makes no allocation that grows
//! with N.
//!
//! One `#[test]` only: the counter is process-global, and a single test
//! keeps other harness threads from muddying the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use openmb_mb::{handle_southbound_logged, Effects, Middlebox, SharedPutLog};
use openmb_middleboxes::ips::{ConnRecord, ConnState, HttpAnalyzer};
use openmb_middleboxes::{Firewall, Ips, Monitor, Nat};
use openmb_simnet::SimTime;
use openmb_types::codec;
use openmb_types::crypto::VendorKey;
use openmb_types::wire::{self, ChunkClass, Message};
use openmb_types::{EncryptedChunk, FlowKey, HeaderFieldList, OpId, Packet, StateChunk};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least [`BODY`] bytes: buffers that can hold a
/// whole chunk body.
static BODY_SIZED: AtomicU64 = AtomicU64::new(0);

/// Plaintext bytes in a 1 520-byte sealed chunk (nonce and checksum
/// take 16).
const BODY: usize = 1504;

/// Allocations of at least [`LARGE`] bytes, a size a check sets.
static LARGE_SIZED: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= BODY {
        BODY_SIZED.fetch_add(1, Ordering::Relaxed);
    }
    if size >= LARGE.load(Ordering::Relaxed) {
        LARGE_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted_during(counter: &AtomicU64, f: impl FnOnce()) -> u64 {
    let before = counter.load(Ordering::Relaxed);
    f();
    counter.load(Ordering::Relaxed) - before
}

fn allocs_during(f: impl FnOnce()) -> u64 {
    counted_during(&ALLOCS, f)
}

fn train(key: FlowKey, n: usize) -> Vec<Packet> {
    (0..n).map(|i| Packet::new(i as u64 + 1, key, vec![0u8; 32])).collect()
}

/// Allocations of one `process_batch` of `small` and of one of `large`,
/// after a warm-up batch of `large` has created the flow's entry and
/// grown the `Effects` buffers to their high-water mark.
fn batch_allocs(
    mb: &mut impl Middlebox,
    small: &[Packet],
    large: &[Packet],
    fx: &mut Effects,
) -> (u64, u64) {
    let now = SimTime(1_000_000_000);
    mb.process_batch(now, large, fx);
    fx.reset();
    let at_small = allocs_during(|| mb.process_batch(now, small, fx));
    fx.reset();
    let at_large = allocs_during(|| mb.process_batch(now, large, fx));
    fx.reset();
    (at_small, at_large)
}

#[test]
fn steady_state_batch_path_allocates_nothing_per_packet() {
    let mut fx = Effects::normal();
    let dst = |d: u8| Ipv4Addr::new(93, 184, 216, d);

    // Firewall: one allowed flow (tcp/80), conntrack entry established
    // by the warm-up batch.
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 3001, dst(1), 80);
    let (fw_32, fw_256) =
        batch_allocs(&mut Firewall::new(), &train(key, 32), &train(key, 256), &mut fx);
    assert_eq!(
        fw_32, fw_256,
        "firewall exact-match batch path allocates per packet ({fw_32} at 32 vs {fw_256} at 256)"
    );
    assert_eq!(fw_32, 0, "firewall exact-match batch path should be allocation-free");

    // NAT: one outbound flow, mapping established by the warm-up batch.
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 2), 4002, dst(2), 80);
    let mut nat = Nat::new(Ipv4Addr::new(198, 51, 100, 1));
    let (nat_32, nat_256) = batch_allocs(&mut nat, &train(key, 32), &train(key, 256), &mut fx);
    assert_eq!(
        nat_32, nat_256,
        "nat outbound established batch path allocates per packet ({nat_32} at 32 vs {nat_256} at 256)"
    );
    assert_eq!(nat_32, 0, "nat outbound established batch path should be allocation-free");

    // Monitor: one known flow, asset record created by the warm-up
    // batch.
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 5), 7005, dst(5), 80);
    let (mon_32, mon_256) =
        batch_allocs(&mut Monitor::new(), &train(key, 32), &train(key, 256), &mut fx);
    assert_eq!(
        mon_32, mon_256,
        "monitor known-flow batch path allocates per packet ({mon_32} at 32 vs {mon_256} at 256)"
    );
    assert_eq!(mon_32, 0, "monitor known-flow batch path should be allocation-free");

    // IPS: data packets of one open port-80 connection — a line that is
    // not a request, then filler, 1 400 bytes in all. The analyzer's
    // line buffer, the signature tail and the hit list are at their
    // high-water marks after the warm-up batch.
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 3), 5003, dst(3), 80);
    let mut payload = b"X-Seq: 0123abcd\r\n".to_vec();
    payload.resize(1400, b'e');
    let data = |n: usize| -> Vec<Packet> {
        (0..n).map(|i| Packet::new(i as u64 + 1, key, payload.clone())).collect()
    };
    let (ips_32, ips_256) = batch_allocs(&mut Ips::new(), &data(32), &data(256), &mut fx);
    assert_eq!(
        ips_32, ips_256,
        "ips data-packet path allocates per packet ({ips_32} at 32 vs {ips_256} at 256)"
    );
    assert_eq!(ips_32, 0, "ips data-packet path should be allocation-free");

    chunk_import_copies_the_body_once();
    export_allocates_one_buffer_per_record();
    chunk_ref_hit_copies_no_run_content();
    put_and_hit_allocate_nothing_per_record();
    file_store_hit_reads_into_one_buffer();
    delete_allocates_nothing_per_record();
}

/// The control path's import side, on a record shaped like the ones
/// `move_live_1400B` moves: many short request lines, no single field
/// anywhere near the body's size, 1 504 bytes serialized.
fn chunk_import_copies_the_body_once() {
    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 4), 6004, Ipv4Addr::new(93, 184, 216, 4), 80);
    let mut rec = ConnRecord {
        key,
        start_ns: 1,
        last_ns: 2,
        state: ConnState::S1,
        history: String::new(),
        orig_pkts: 40,
        resp_pkts: 0,
        orig_bytes: 56_000,
        resp_bytes: 0,
        http: Some(HttpAnalyzer::default()),
        sig_tail: vec![b'e'; 15],
        fired: Default::default(),
    };
    // As many request lines as fit, then a few history letters to land
    // on the exact size.
    let request = "GET /a/rather/long/path/to/some/object/0123456789abcdef".to_string();
    let mut requests = 0;
    while codec::encoded_len(&rec) <= BODY {
        requests += 1;
        rec.http.as_mut().unwrap().requests.resize(requests, request.clone());
    }
    rec.http.as_mut().unwrap().requests.pop();
    rec.history = "d".repeat(BODY - codec::encoded_len(&rec));
    let plain = codec::encode(&rec);
    assert_eq!(plain.len(), BODY);

    let vendor = VendorKey::derive("bro");
    let sealed = EncryptedChunk::seal(&vendor, 7, &plain);
    assert_eq!(sealed.len(), 1520);

    let mut opened = None;
    let open_allocs = allocs_during(|| opened = Some(sealed.open(&vendor)));
    assert_eq!(opened.unwrap().unwrap(), plain);
    assert_eq!(open_allocs, 1, "open allocates the plaintext it returns and nothing else");

    let mut ips = Ips::new();
    let chunk = StateChunk::new(HeaderFieldList::exact(key), sealed);
    let mut put = None;
    let body_sized = counted_during(&BODY_SIZED, || put = Some(ips.put_support_perflow(chunk)));
    put.unwrap().unwrap();
    assert_eq!(ips.conns_sorted(), vec![rec]);
    assert_eq!(body_sized, 1, "put_support_perflow holds the body in one buffer: open's plaintext");
}

/// A Monitor holding `n` flows, one packet each, and its pattern.
fn monitor_with(n: u32) -> Monitor {
    let mut mon = Monitor::new();
    let pkts: Vec<Packet> = (0..n)
        .map(|i| {
            let src = Ipv4Addr::from(0x0a00_0000 | (i >> 8));
            let key =
                FlowKey::tcp(src, 1024 + (i & 0xff) as u16, Ipv4Addr::new(93, 184, 216, 7), 80);
            Packet::new(u64::from(i) + 1, key, vec![0u8; 32])
        })
        .collect();
    mon.process_batch(openmb_simnet::SimTime(1_000), &pkts, &mut Effects::normal());
    assert_eq!(mon.perflow_entries(), n as usize);
    mon
}

/// Allocations beyond one per record of a Monitor export of `n` flows.
fn export_overhead(n: u32) -> u64 {
    let mut mon = monitor_with(n);
    let mut records = 0;
    let allocs = allocs_during(|| {
        mon.export_perflow(ChunkClass::Report, OpId(1), &HeaderFieldList::any(), &mut |_, c| {
            records += 1;
            drop(c);
        })
        .unwrap();
    });
    assert_eq!(records, n);
    allocs.checked_sub(u64::from(n)).unwrap_or_else(|| panic!("{allocs} for {n} records"))
}

/// The source side: one writer for the whole export, each record sealed
/// straight into its chunk, the moved marks grown once.
fn export_allocates_one_buffer_per_record() {
    let (c_1000, c_4000) = (export_overhead(1_000), export_overhead(4_000));
    assert!(c_1000 <= 16, "a 1 000-record export allocates 1 000 + {c_1000}");
    assert!(c_4000 <= c_1000, "the constant grows with N: {c_1000} at 1 000, {c_4000} at 4 000");
}

/// The destination side of a repeat move: a `ChunkRef` whose run the
/// store holds is applied from the stored bytes themselves.
fn chunk_ref_hit_copies_no_run_content() {
    let mut src = monitor_with(16);
    let chunks = src.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
    let (first, rest) = chunks.split_first().unwrap();
    assert_eq!(rest.len(), 15);
    let content = wire::run_content(&first.data, rest);
    let hash = openmb_store::content_hash(&content);
    let mut log = SharedPutLog::new();
    log.store().insert_unchecked(hash, content.clone().into());
    let reference = Message::ChunkRef {
        op: OpId(2),
        class: ChunkClass::Report,
        key: first.key,
        hash,
        rest: rest.iter().map(|c| c.key).collect(),
    };
    let mut dst = Monitor::new();
    let now = openmb_simnet::SimTime(2_000);
    // The first hit creates the destination's records; the second finds
    // them in place, so nothing but the hit itself is measured.
    let ack = handle_southbound_logged(&mut dst, &mut log, reference.clone(), now);
    assert!(matches!(ack[..], [Message::PutAck { .. }]), "{ack:?}");
    LARGE.store(content.len(), Ordering::Relaxed);
    let mut ack = Vec::new();
    let large = counted_during(&LARGE_SIZED, || {
        ack = handle_southbound_logged(&mut dst, &mut log, reference, now);
    });
    LARGE.store(usize::MAX, Ordering::Relaxed);
    assert!(matches!(ack[..], [Message::PutAck { .. }]), "{ack:?}");
    assert_eq!(dst.perflow_entries(), 16);
    assert_eq!(large, 0, "a hit allocated a buffer of the run's {} content bytes", content.len());
}

/// Allocations of a Monitor destination applying a run of `n` records,
/// sent as a put or as a `ChunkRef` whose run its store holds. The
/// destination already holds the records, so its table neither grows
/// nor shrinks and only the apply is measured.
fn apply_allocs(n: u32, reference: bool) -> u64 {
    let chunks = monitor_with(n).get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
    let (first, rest) = chunks.split_first().unwrap();
    let mut log = SharedPutLog::new();
    let msg = if reference {
        let content = wire::run_content(&first.data, rest);
        let hash = openmb_store::content_hash(&content);
        log.store().insert_unchecked(hash, content.into());
        let keys = rest.iter().map(|c| c.key).collect();
        Message::ChunkRef {
            op: OpId(2),
            class: ChunkClass::Report,
            key: first.key,
            hash,
            rest: keys,
        }
    } else {
        Message::PutReportPerflow { op: OpId(2), chunk: first.clone(), rest: rest.to_vec() }
    };
    let mut dst = Monitor::new();
    let now = openmb_simnet::SimTime(2_000);
    let ack = handle_southbound_logged(&mut dst, &mut log, msg.clone(), now);
    assert!(matches!(ack[..], [Message::PutAck { .. }]), "{ack:?}");
    let mut ack = Vec::new();
    let allocs = allocs_during(|| ack = handle_southbound_logged(&mut dst, &mut log, msg, now));
    assert!(matches!(ack[..], [Message::PutAck { .. }]), "{ack:?}");
    assert_eq!(dst.perflow_entries(), n as usize);
    allocs
}

/// The destination side of every move: opening, decoding and landing a
/// Monitor record allocates nothing, so a run costs the same few
/// allocations at 16 records as at 64.
fn put_and_hit_allocate_nothing_per_record() {
    for (reference, what) in [(false, "put"), (true, "ChunkRef hit")] {
        let (a_16, a_64) = (apply_allocs(16, reference), apply_allocs(64, reference));
        assert_eq!(a_16, a_64, "a {what} allocates per record: {a_16} at 16, {a_64} at 64");
        assert!(a_64 <= 4, "a {what} of 64 records allocates {a_64} times");
    }
}

/// A `FileContentStore` hit of a 1 520-byte entry: the file is read
/// straight into the `Arc<[u8]>` returned, not into a `Vec` first.
fn file_store_hit_reads_into_one_buffer() {
    use openmb_store::{ContentStore, FileContentStore};
    let dir = std::env::temp_dir().join(format!("openmb-alloc-audit-{}", std::process::id()));
    let store = FileContentStore::open(&dir).unwrap();
    let body: Vec<u8> = (0..1520u32).map(|i| (i * 131 + 89) as u8).collect();
    let hash = openmb_store::content_hash(&body);
    store.insert_unchecked(hash, body.clone().into());
    let mut got = None;
    let body_sized = counted_during(&BODY_SIZED, || got = store.get(&hash));
    assert_eq!(got.as_deref(), Some(&body[..]));
    assert_eq!(body_sized, 1, "a file store hit holds the entry in one buffer");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Allocations of a Monitor `del_report_perflow` of all its `n` flows.
fn delete_allocs(n: u32) -> u64 {
    let mut mon = monitor_with(n);
    let mut deleted = 0;
    let allocs = allocs_during(|| {
        deleted = mon.del_report_perflow(&HeaderFieldList::any()).unwrap();
    });
    assert_eq!((deleted, mon.perflow_entries()), (n as usize, 0));
    allocs
}

/// The source's quiescence delete counts what it removes and frees it;
/// it collects nothing.
fn delete_allocates_nothing_per_record() {
    let (d_1000, d_4000) = (delete_allocs(1_000), delete_allocs(4_000));
    assert!(d_4000 <= d_1000, "a delete allocates with N: {d_1000} at 1 000, {d_4000} at 4 000");
    assert_eq!(d_4000, 0, "a 4 000-record delete allocates {d_4000} times");
}
