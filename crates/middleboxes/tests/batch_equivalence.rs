//! Batch/serial equivalence property tests.
//!
//! The `Middlebox::process_batch` contract: feeding a train through one
//! batch call produces byte-identical side effects, events, and state to
//! calling `process_packet` on each packet in order with the same `now`.
//! The trait's `process_batch` cuts the train into same-`FlowKey` runs
//! and hands each to `process_run`, so the subject is a run of n against
//! n runs of one. These tests drive two copies of every middlebox type
//! through the same randomized packet trains — one copy per-packet, one
//! copy batched — and diff everything observable after every chunk:
//! forwarded packets, log lines, raised events, the replay-suppression
//! counter, per-flow entry counts, stats, and the sealed state exports.
//! Both the trait's default run loop (DummyMb, Ips, LoadBalancer, Proxy,
//! ReDecoder, ReEncoder) and the middleboxes that write their packet
//! logic as `process_run` (Firewall, Monitor, Nat) are covered, in live
//! and replay mode, with and without moved marks (the sync-window raise
//! path and the quiet one-check-per-run path).
//!
//! `export_perflow_matches_the_vec_gets` holds the streamed per-flow
//! get (`Middlebox::export_perflow`, overridden by the middleboxes on
//! the state kit) to the `Vec` one on every type.
//!
//! A last pass over the same nine types pins each one's state-export
//! behaviour across builds (`export_digests_are_pinned`): the sealed
//! bytes, their order, every error string and the stats accounting are
//! hashed into one constant per type. The same transcript with every
//! chunk opened (`export_plaintext_digests_are_pinned`) pins what is
//! exported apart from how it is sealed.

use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{
    DummyMb, Firewall, Ips, LoadBalancer, Monitor, Nat, Proxy, ReDecoder, ReEncoder,
};
use openmb_simnet::SimTime;
use openmb_types::crypto::VendorKey;
use openmb_types::wire::ChunkClass;
use openmb_types::{
    EncryptedChunk, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix, OpId, Packet, Proto,
    Result, StateChunk,
};
use std::net::Ipv4Addr;

/// Deterministic xorshift64* PRNG — no external crates, reproducible
/// failures (the seed is in the panic message).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A small flow pool: few enough that trains revisit flows (exercising
/// the same-flow run fast path), varied enough to hit allow/deny,
/// HTTP/non-HTTP, and multiple NAT directions.
fn flow_pool() -> Vec<FlowKey> {
    let mut flows = Vec::new();
    for h in 1..=3u8 {
        let inside = Ipv4Addr::new(10, 0, 0, h);
        let outside = Ipv4Addr::new(93, 184, 216, h);
        flows.push(FlowKey::tcp(inside, 3000 + h as u16, outside, 80));
        flows.push(FlowKey::tcp(inside, 4000 + h as u16, outside, 22));
        flows.push(FlowKey {
            src_ip: inside,
            dst_ip: outside,
            src_port: 5000 + h as u16,
            dst_port: 53,
            proto: Proto::Udp,
        });
    }
    flows
}

fn gen_train(rng: &mut Rng, flows: &[FlowKey], len: usize, next_id: &mut u64) -> Vec<Packet> {
    let mut pkts = Vec::with_capacity(len);
    let mut cur = rng.below(flows.len() as u64) as usize;
    for _ in 0..len {
        // 70%: stay on the same flow (runs are what batching amortizes);
        // otherwise hop, so run boundaries are exercised too.
        if rng.below(10) >= 7 {
            cur = rng.below(flows.len() as u64) as usize;
        }
        let key = flows[cur];
        let paylen = 8 + rng.below(48) as usize;
        let mut payload = vec![0u8; paylen];
        for b in payload.iter_mut() {
            *b = rng.below(256) as u8;
        }
        // Sprinkle an HTTP request line on some port-80 packets so the
        // monitor/IPS HTTP paths run.
        if key.dst_port == 80 && rng.below(2) == 0 {
            payload[..4.min(paylen)].copy_from_slice(&b"GET "[..4.min(paylen)]);
        }
        let mut p = Packet::new(*next_id, key, payload);
        p.meta.http_request = key.dst_port == 80;
        p.meta.seq = rng.next() as u32;
        *next_id += 1;
        pkts.push(p);
    }
    pkts
}

/// Everything observable from an `Effects` after a run, owned.
#[derive(Debug, PartialEq)]
struct FxSnapshot {
    outputs: Vec<Packet>,
    logs: Vec<openmb_mb::LogEntry>,
    events: Vec<openmb_types::wire::Event>,
    suppressed: u64,
}

fn snap(fx: &mut Effects) -> FxSnapshot {
    FxSnapshot {
        outputs: fx.take_outputs(),
        logs: fx.take_logs(),
        events: fx.take_events(),
        suppressed: fx.suppressed,
    }
}

/// Drive `serial` per-packet and `batched` via `process_batch` through
/// identical trains and assert every observable matches after each
/// chunk and at the end.
fn check_equivalence<M: Middlebox>(
    name: &str,
    mut serial: M,
    mut batched: M,
    seed: u64,
    batch: usize,
    replay: bool,
) {
    let flows = flow_pool();
    let mut rng = Rng::new(seed);
    let mut next_id = 1u64;
    let mut now = SimTime(1_000_000);
    let mark_op = OpId(7);

    for round in 0..12 {
        // Halfway through, mark all per-flow state moved on both copies
        // (opens the sync window: updates must raise Reprocess events);
        // three rounds later close it again (back to the quiet path).
        if round == 6 {
            let a = serial.get_support_perflow(mark_op, &HeaderFieldList::any());
            let b = batched.get_support_perflow(mark_op, &HeaderFieldList::any());
            assert_eq!(
                a.as_ref().map(Vec::len).ok(),
                b.as_ref().map(Vec::len).ok(),
                "{name} seed={seed}: mark-moved export diverged"
            );
            assert_eq!(a.ok(), b.ok(), "{name} seed={seed}: exported chunks diverged");
        }
        if round == 9 {
            serial.end_sync(mark_op);
            batched.end_sync(mark_op);
        }

        let train = gen_train(&mut rng, &flows, batch, &mut next_id);
        let mut fx_s = if replay { Effects::replay() } else { Effects::normal() };
        let mut fx_b = if replay { Effects::replay() } else { Effects::normal() };

        for pkt in &train {
            serial.process_packet(now, pkt, &mut fx_s);
        }
        batched.process_batch(now, &train, &mut fx_b);

        assert_eq!(
            snap(&mut fx_s),
            snap(&mut fx_b),
            "{name} seed={seed} batch={batch} replay={replay} round={round}: effects diverged"
        );

        assert_eq!(
            serial.perflow_entries(),
            batched.perflow_entries(),
            "{name} seed={seed} round={round}: perflow entry counts diverged"
        );
        assert_eq!(
            serial.stats(&HeaderFieldList::any()),
            batched.stats(&HeaderFieldList::any()),
            "{name} seed={seed} round={round}: stats diverged"
        );

        // Advance time between rounds; occasionally jump far enough to
        // trigger timeout sweeps (NAT expiry) on both copies alike.
        now = SimTime(now.0 + if rng.below(4) == 0 { 120_000_000_000 } else { 50_000 });
    }

    // Final deep compare: sealing is convergent (equal state seals to
    // equal bytes) — byte-identical chunks mean identical tables.
    let export_op = OpId(99);
    let a = serial.get_support_perflow(export_op, &HeaderFieldList::any()).ok();
    let b = batched.get_support_perflow(export_op, &HeaderFieldList::any()).ok();
    assert_eq!(a, b, "{name} seed={seed}: final supporting state diverged");
    let a = serial.get_report_perflow(OpId(100), &HeaderFieldList::any()).ok();
    let b = batched.get_report_perflow(OpId(100), &HeaderFieldList::any()).ok();
    assert_eq!(a, b, "{name} seed={seed}: final reporting state diverged");
}

fn vip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 100)
}

fn backends() -> Vec<Ipv4Addr> {
    vec![Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2)]
}

/// Run every MB type through the harness at one batch size.
fn sweep_all(seed: u64, batch: usize, replay: bool) {
    check_equivalence("dummy", DummyMb::new(), DummyMb::new(), seed, batch, replay);
    check_equivalence("firewall", Firewall::new(), Firewall::new(), seed, batch, replay);
    check_equivalence("ips", Ips::new(), Ips::new(), seed, batch, replay);
    check_equivalence(
        "lb",
        LoadBalancer::new(vip(), &backends()),
        LoadBalancer::new(vip(), &backends()),
        seed,
        batch,
        replay,
    );
    check_equivalence("monitor", Monitor::new(), Monitor::new(), seed, batch, replay);
    let ext = Ipv4Addr::new(198, 51, 100, 1);
    check_equivalence("nat", Nat::new(ext), Nat::new(ext), seed, batch, replay);
    check_equivalence("proxy", Proxy::new(64), Proxy::new(64), seed, batch, replay);
    check_equivalence(
        "re-encoder",
        ReEncoder::new(1 << 16),
        ReEncoder::new(1 << 16),
        seed,
        batch,
        replay,
    );
    check_equivalence(
        "re-decoder",
        ReDecoder::new(1 << 16),
        ReDecoder::new(1 << 16),
        seed,
        batch,
        replay,
    );
}

#[test]
fn batch_matches_serial_live() {
    for seed in [2, 3, 5, 7, 11] {
        for batch in [1, 2, 8, 32] {
            sweep_all(seed, batch, false);
        }
    }
}

#[test]
fn batch_matches_serial_replay() {
    for seed in [13, 17, 19] {
        for batch in [1, 8, 32] {
            sweep_all(seed, batch, true);
        }
    }
}

#[test]
fn batch_matches_serial_large_trains() {
    // Big enough that every specialization's run-detection loop crosses
    // multiple runs and the Effects buffers grow past initial capacity.
    for seed in [23, 29] {
        sweep_all(seed, 256, false);
    }
}

/// Nightly sweep (CI runs `--include-ignored` on the scheduled job):
/// batch 1024 across every MB type, live and replay.
#[test]
#[ignore = "nightly: large-batch sweep"]
fn nightly_batch_1024_sweep() {
    for seed in [31, 37, 41, 43] {
        sweep_all(seed, 1024, false);
        sweep_all(seed, 1024, true);
    }
}

/// The streamed per-flow get (`export_perflow`) against the `Vec` one
/// (`get_*_perflow`) on two identical instances of `mk`'s type, for both
/// per-flow classes and three patterns: the same records — keys, sealed
/// bytes, order — each handed over with the get's size, or the same
/// error with nothing handed over; and the same moved marks, read as
/// what a follow-up train does on each.
fn check_export_perflow<M: Middlebox>(name: &str, mk: impl Fn() -> M) {
    let flows = flow_pool();
    let now = SimTime(1_000_000);
    let any = HeaderFieldList::any();
    let subnet = HeaderFieldList::from_src_subnet(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 2), 32));
    for class in [ChunkClass::Support, ChunkClass::Report] {
        for pattern in [any, subnet, HeaderFieldList::exact(flows[0])] {
            let ctx = format!("{name} {class:?} {pattern:?}");
            let (mut gets, mut streams) = (mk(), mk());
            let (mut rng, mut next_id) = (Rng::new(20), 1);
            let train = gen_train(&mut rng, &flows, 128, &mut next_id);
            let mut fx = Effects::normal();
            gets.process_batch(now, &train, &mut fx);
            streams.process_batch(now, &train, &mut fx);
            fx.reset();

            let op = OpId(7);
            let want = match class {
                ChunkClass::Support => gets.get_support_perflow(op, &pattern),
                _ => gets.get_report_perflow(op, &pattern),
            };
            let mut got = Vec::new();
            let streamed =
                streams.export_perflow(class, op, &pattern, &mut |n, c| got.push((n, c)));
            match want {
                Ok(chunks) => {
                    streamed.expect(&ctx);
                    assert!(got.iter().all(|(n, _)| *n == chunks.len()), "{ctx}: get size");
                    let got: Vec<StateChunk> = got.into_iter().map(|(_, c)| c).collect();
                    assert_eq!(got, chunks, "{ctx}: records");
                }
                Err(e) => {
                    assert_eq!(streamed, Err(e), "{ctx}: error");
                    assert!(got.is_empty(), "{ctx}: records handed over before the error");
                }
            }

            let after = gen_train(&mut rng, &flows, 64, &mut next_id);
            let (mut a, mut b) = (Effects::normal(), Effects::normal());
            gets.process_batch(now, &after, &mut a);
            streams.process_batch(now, &after, &mut b);
            assert_eq!(snap(&mut a), snap(&mut b), "{ctx}: moved marks");
            assert_eq!(gets.stats(&any), streams.stats(&any), "{ctx}: stats");
        }
    }
}

#[test]
fn export_perflow_matches_the_vec_gets() {
    let ext = Ipv4Addr::new(198, 51, 100, 1);
    check_export_perflow("dummy", DummyMb::new);
    check_export_perflow("dummy, compressed", || {
        let mut d = DummyMb::new();
        d.compress_exports = true;
        d
    });
    check_export_perflow("firewall", Firewall::new);
    check_export_perflow("ips", Ips::new);
    check_export_perflow("lb", || LoadBalancer::new(vip(), &backends()));
    check_export_perflow("monitor", Monitor::new);
    check_export_perflow("nat", || Nat::new(ext));
    check_export_perflow("proxy", || Proxy::new(64));
    check_export_perflow("re-encoder", || ReEncoder::new(1 << 16));
    check_export_perflow("re-decoder", || ReDecoder::new(1 << 16));
}

/// Everything a state operation can return, appended to a transcript:
/// `Debug` for shapes, keys, counts and error strings, raw wire bytes
/// for sealed chunks (`Debug` of a chunk shows only its first 32 bytes).
/// With a key, the transcript is the plaintext view instead: each
/// sealed chunk is noted as its key, sealed length and opened bytes, so
/// it reads the same under any nonce rule.
struct Transcript {
    bytes: Vec<u8>,
    open: Option<VendorKey>,
}

impl Transcript {
    fn note(&mut self, label: &str, v: &dyn std::fmt::Debug) {
        self.bytes.extend_from_slice(format!("{label} {v:?}\n").as_bytes());
    }
    fn chunk(&mut self, c: &EncryptedChunk) {
        match &self.open {
            None => self.bytes.extend_from_slice(c.as_wire()),
            Some(key) => {
                let plain = c.open(key).expect("the plaintext view opens every chunk it notes");
                self.note("  sealed", &(c.len(), plain));
            }
        }
    }
    fn perflow(&mut self, label: &str, r: &Result<Vec<StateChunk>>) {
        match (&self.open, r) {
            (None, _) | (Some(_), Err(_)) => self.note(label, r),
            (Some(_), Ok(chunks)) => {
                let keys: Vec<_> = chunks.iter().map(|c| c.key).collect();
                self.note(label, &keys);
            }
        }
        for c in r.iter().flatten() {
            self.chunk(&c.data);
        }
    }
    fn shared(&mut self, label: &str, r: &Result<Option<EncryptedChunk>>) {
        match (&self.open, r) {
            (None, _) | (Some(_), Err(_)) => self.note(label, r),
            (Some(_), Ok(c)) => self.note(label, &c.is_some()),
        }
        if let Ok(Some(c)) = r {
            self.chunk(c);
        }
    }
    /// The five exports and `stats`, in the order a controller issues
    /// them; returns the exports so the caller can put them elsewhere.
    fn export<M: Middlebox>(&mut self, who: &str, mb: &mut M, op: u64) -> Exports {
        let any = HeaderFieldList::any();
        let support_perflow = mb.get_support_perflow(OpId(op), &any);
        self.perflow(&format!("{who}.get_support_perflow"), &support_perflow);
        let report_perflow = mb.get_report_perflow(OpId(op + 1), &any);
        self.perflow(&format!("{who}.get_report_perflow"), &report_perflow);
        let support_shared = mb.get_support_shared(OpId(op + 2));
        self.shared(&format!("{who}.get_support_shared"), &support_shared);
        let report_shared = mb.get_report_shared();
        self.shared(&format!("{who}.get_report_shared"), &report_shared);
        let snapshot = mb.snapshot_shared().expect("snapshot_shared");
        self.shared(&format!("{who}.snapshot.support"), &Ok(snapshot.support.clone()));
        self.shared(&format!("{who}.snapshot.report"), &Ok(snapshot.report.clone()));
        self.note(&format!("{who}.stats"), &mb.stats(&any));
        self.note(&format!("{who}.entries"), &mb.perflow_entries());
        Exports { support_perflow, report_perflow, support_shared, report_shared, snapshot }
    }
}

/// What [`Transcript::export`] took from a middlebox.
struct Exports {
    support_perflow: Result<Vec<StateChunk>>,
    report_perflow: Result<Vec<StateChunk>>,
    support_shared: Result<Option<EncryptedChunk>>,
    report_shared: Result<Option<EncryptedChunk>>,
    snapshot: openmb_mb::SharedSnapshot,
}

/// One type's state-export transcript, hashed: a fixed-seed train into
/// the source, every export, every put into a fresh destination, the
/// snapshot restored there, the destination re-exported, traffic on
/// both sides of the open sync window, a partial and a full delete on
/// the source — plus what a fresh instance answers to foreign chunks,
/// an exact-flow get and config reads.
fn export_digest<M: Middlebox>(mk: impl Fn() -> M) -> u64 {
    transcript_digest(mk, None)
}

/// [`export_digest`]'s plaintext view: every sealed chunk opened under
/// `vendor`'s key and noted with its sealed length, so a change to how
/// chunks are sealed (not to what they hold) leaves it unmoved.
fn export_plaintext_digest<M: Middlebox>(vendor: &str, mk: impl Fn() -> M) -> u64 {
    transcript_digest(mk, Some(VendorKey::derive(vendor)))
}

fn transcript_digest<M: Middlebox>(mk: impl Fn() -> M, open: Option<VendorKey>) -> u64 {
    let flows = flow_pool();
    let mut rng = Rng::new(20);
    let mut next_id = 1u64;
    let now = SimTime(1_000_000);
    let mut t = Transcript { bytes: Vec::new(), open };
    let any = HeaderFieldList::any();

    let mut src = mk();
    let mut fx = Effects::normal();
    for _ in 0..4 {
        let train = gen_train(&mut rng, &flows, 32, &mut next_id);
        src.process_batch(now, &train, &mut fx);
    }
    fx.reset();
    let got = t.export("src", &mut src, 1);

    let mut dst = mk();
    for c in got.support_perflow.into_iter().flatten() {
        t.note("dst.put_support_perflow", &dst.put_support_perflow(c));
    }
    for c in got.report_perflow.into_iter().flatten() {
        t.note("dst.put_report_perflow", &dst.put_report_perflow(c));
    }
    if let Ok(Some(c)) = got.support_shared {
        t.note("dst.put_support_shared", &dst.put_support_shared(c));
    }
    if let Ok(Some(c)) = got.report_shared {
        t.note("dst.put_report_shared", &dst.put_report_shared(c));
    }
    t.export("dst.merged", &mut dst, 11);
    dst.end_sync(OpId(11));
    dst.end_sync(OpId(12));
    dst.end_sync(OpId(13));
    t.note("dst.restore_shared", &dst.restore_shared(got.snapshot));
    t.export("dst.restored", &mut dst, 21);

    // Inside the sync windows: the source's marks raise events, the
    // destination's second export re-marked what the puts had cleared.
    let train = gen_train(&mut rng, &flows, 16, &mut next_id);
    for (who, mb) in [("src", &mut src), ("dst", &mut dst)] {
        mb.process_batch(now, &train, &mut fx);
        t.note(&format!("{who}.events"), &fx.take_events());
        fx.reset();
    }

    let subnet = HeaderFieldList::from_src_subnet(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 2), 32));
    t.note("src.del_support_perflow(subnet)", &src.del_support_perflow(&subnet));
    t.note("src.del_report_perflow(subnet)", &src.del_report_perflow(&subnet));
    t.note("src.stats", &src.stats(&any));
    t.note("src.del_support_perflow", &src.del_support_perflow(&any));
    t.note("src.del_report_perflow", &src.del_report_perflow(&any));
    t.note("src.stats", &src.stats(&any));
    t.note("src.entries", &src.perflow_entries());

    // A fresh instance: chunks sealed under a foreign key (a class the
    // type lacks refuses by name, one it has fails to open), an exact
    // key (finer than the load balancer's native granularity), config.
    let mut probe = mk();
    let foreign = || EncryptedChunk::seal(&VendorKey::derive("not-a-middlebox"), 1, b"x");
    let exact = HeaderFieldList::exact(flows[0]);
    t.note(
        "probe.put_support_perflow",
        &probe.put_support_perflow(StateChunk::new(exact, foreign())),
    );
    t.note(
        "probe.put_report_perflow",
        &probe.put_report_perflow(StateChunk::new(exact, foreign())),
    );
    t.note("probe.put_support_shared", &probe.put_support_shared(foreign()));
    t.note("probe.put_report_shared", &probe.put_report_shared(foreign()));
    probe.process_batch(now, &train, &mut fx);
    fx.reset();
    let r = probe.get_support_perflow(OpId(31), &exact);
    t.perflow("probe.get_support_perflow(exact)", &r);
    let r = probe.get_report_perflow(OpId(32), &exact);
    t.perflow("probe.get_report_perflow(exact)", &r);
    t.note("probe.stats(exact)", &probe.stats(&exact));
    t.note("probe.del_support_perflow(exact)", &probe.del_support_perflow(&exact));
    t.note("probe.get_config(*)", &probe.get_config(&HierarchicalKey::root()));
    t.note("probe.get_config(missing)", &probe.get_config(&HierarchicalKey::parse("no/such")));

    let h = openmb_store::content_hash(&t.bytes);
    u64::from_le_bytes(h[..8].try_into().unwrap())
}

/// Cross-build oracle, pinned twice. The constants were first computed
/// at the commit before the state-export kit (`openmb_mb::state`)
/// replaced the nine hand-written copies, so they pin export sort
/// order, record bytes, error strings and the `+16` accounting per
/// type, and the sealed bytes of every chunk. They were re-pinned once
/// when sealing became convergent (a chunk's nonce derived from the
/// vendor key and its plaintext instead of a per-instance counter):
/// every nonce and keystream moved, and nothing else did —
/// [`export_plaintext_digests_are_pinned`], whose constants are equal at
/// the counter build and the convergent one, reads the same transcript
/// with every chunk opened. A mismatch names the type that drifted.
#[test]
fn export_digests_are_pinned() {
    let ext = Ipv4Addr::new(198, 51, 100, 1);
    let got = [
        ("dummy", export_digest(DummyMb::new)),
        ("firewall", export_digest(Firewall::new)),
        ("ips", export_digest(Ips::new)),
        ("lb", export_digest(|| LoadBalancer::new(vip(), &backends()))),
        ("monitor", export_digest(Monitor::new)),
        ("nat", export_digest(|| Nat::new(ext))),
        ("proxy", export_digest(|| Proxy::new(64))),
        ("re-encoder", export_digest(|| ReEncoder::new(1 << 16))),
        ("re-decoder", export_digest(|| ReDecoder::new(1 << 16))),
    ];
    assert_pinned(
        "state-export transcript",
        got,
        [
            ("dummy", 0xB089F7A1774703AB),
            ("firewall", 0xD69B5C7B7A8A968F),
            ("ips", 0x0015D7A06B6A0A1C),
            ("lb", 0xCD7A16AF514E7894),
            ("monitor", 0x15F08AD4FC774D1B),
            ("nat", 0x59DEDA7FA67A951F),
            ("proxy", 0xA35764B91E61E2A8),
            ("re-encoder", 0xB99FDA1BB735F70C),
            ("re-decoder", 0xFA3407285AC37C7F),
        ],
    );
}

/// [`export_digests_are_pinned`]'s transcript in the plaintext view
/// ([`export_plaintext_digest`]): pins what each type exports — order,
/// opened record bytes, sealed lengths, error strings, stats — apart
/// from how chunks are sealed. The constants were computed at the
/// counter-nonce build and are unchanged by convergent sealing.
#[test]
fn export_plaintext_digests_are_pinned() {
    let ext = Ipv4Addr::new(198, 51, 100, 1);
    let got = [
        ("dummy", export_plaintext_digest("dummy", DummyMb::new)),
        ("firewall", export_plaintext_digest("firewall", Firewall::new)),
        ("ips", export_plaintext_digest("bro", Ips::new)),
        ("lb", export_plaintext_digest("balance", || LoadBalancer::new(vip(), &backends()))),
        ("monitor", export_plaintext_digest("prads", Monitor::new)),
        ("nat", export_plaintext_digest("nat", || Nat::new(ext))),
        ("proxy", export_plaintext_digest("squid", || Proxy::new(64))),
        ("re-encoder", export_plaintext_digest("re", || ReEncoder::new(1 << 16))),
        ("re-decoder", export_plaintext_digest("re", || ReDecoder::new(1 << 16))),
    ];
    assert_pinned(
        "plaintext state-export transcript",
        got,
        [
            ("dummy", 0x9B53CAD513635B49),
            ("firewall", 0x83280B49F88D9615),
            ("ips", 0x1A284F0510FBFD6C),
            ("lb", 0x6BCD519EBB4245FC),
            ("monitor", 0x698FE86577513066),
            ("nat", 0x1627FEC47B57E18A),
            ("proxy", 0x3452879E75D95B2F),
            ("re-encoder", 0x5F9AC51044F92463),
            ("re-decoder", 0x7AFA764E7B37756F),
        ],
    );
}

fn assert_pinned(what: &str, got: [(&str, u64); 9], want: [(&str, u64); 9]) {
    let drifted: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), _)| format!("(\"{name}\", {got:#018x})"))
        .collect();
    assert!(drifted.is_empty(), "{what} drifted for: {}", drifted.join(", "));
}
