//! Batch/serial equivalence property tests.
//!
//! The `Middlebox::process_batch` contract: feeding a train through one
//! batch call produces byte-identical side effects, events, and state to
//! calling `process_packet` on each packet in order with the same `now`.
//! These tests drive two copies of every middlebox type through the same
//! randomized packet trains — one copy per-packet, one copy batched —
//! and diff everything observable after every chunk: forwarded packets,
//! log lines, raised events, the replay-suppression counter, per-flow
//! entry counts, stats, and the sealed state exports. Both the default
//! trait implementation (DummyMb, Ips, LoadBalancer, Proxy, ReDecoder,
//! ReEncoder) and the specialized overrides (Firewall, Monitor, Nat)
//! are covered, in live and replay mode, with and without moved marks
//! (the sync-window raise path and the quiet fast-skip path).

use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{
    DummyMb, Firewall, Ips, LoadBalancer, Monitor, Nat, Proxy, ReDecoder, ReEncoder,
};
use openmb_simnet::SimTime;
use openmb_types::{FlowKey, HeaderFieldList, OpId, Packet, Proto};
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

    // Final deep compare: sealed exports are deterministic (both copies
    // performed identical sequences of state ops, so their nonce
    // counters agree) — byte-identical chunks mean identical tables.
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
