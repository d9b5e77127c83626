//! Steady-state allocation audit for the batched packet path.
//!
//! A counting global allocator wraps `System`; the test drives the
//! Firewall established exact-match path, the NAT outbound established
//! path and the IPS established-connection data path through
//! `process_batch` at two batch sizes with pre-warmed buffers, and
//! asserts the allocation count does not grow with the batch size —
//! i.e. zero allocations *per packet* once conntrack/mapping/connection
//! entries exist and the `Effects` buffers have reached their
//! high-water mark. (Packet clones are refcount bumps on the shared
//! payload, log lines only form on the deny/drop/request/alert paths,
//! and the per-batch expire sweep collects nothing when nothing
//! expires.)
//!
//! One `#[test]` only: the counter is process-global, and a single test
//! keeps other harness threads from muddying the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{Firewall, Ips, Nat};
use openmb_simnet::SimTime;
use openmb_types::{FlowKey, Packet};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn train(key: FlowKey, n: usize) -> Vec<Packet> {
    (0..n).map(|i| Packet::new(i as u64 + 1, key, vec![0u8; 32])).collect()
}

#[test]
fn steady_state_batch_path_allocates_nothing_per_packet() {
    let now = SimTime(1_000_000_000);

    // Firewall: one allowed flow (tcp/80), conntrack entry established
    // by the warmup batch, Effects buffers grown to the larger size.
    let fw_key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 3001, Ipv4Addr::new(93, 184, 216, 1), 80);
    let small = train(fw_key, 32);
    let large = train(fw_key, 256);
    let mut fw = Firewall::new();
    let mut fx = Effects::normal();
    fw.process_batch(now, &large, &mut fx);
    fx.reset();

    let fw_32 = allocs_during(|| fw.process_batch(now, &small, &mut fx));
    fx.reset();
    let fw_256 = allocs_during(|| fw.process_batch(now, &large, &mut fx));
    fx.reset();
    assert_eq!(
        fw_32, fw_256,
        "firewall exact-match batch path allocates per packet ({fw_32} at 32 vs {fw_256} at 256)"
    );
    assert_eq!(fw_32, 0, "firewall exact-match batch path should be allocation-free");

    // NAT: one outbound flow, mapping established by the warmup batch.
    // The per-batch expire sweep may read config (constant per call),
    // so the assertion is per-packet flatness, not absolute zero.
    let nat_key =
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 2), 4002, Ipv4Addr::new(93, 184, 216, 2), 80);
    let small = train(nat_key, 32);
    let large = train(nat_key, 256);
    let mut nat = Nat::new(Ipv4Addr::new(198, 51, 100, 1));
    nat.process_batch(now, &large, &mut fx);
    fx.reset();

    let nat_32 = allocs_during(|| nat.process_batch(now, &small, &mut fx));
    fx.reset();
    let nat_256 = allocs_during(|| nat.process_batch(now, &large, &mut fx));
    fx.reset();
    assert_eq!(
        nat_32, nat_256,
        "nat outbound established batch path allocates per packet ({nat_32} at 32 vs {nat_256} at 256)"
    );

    // IPS: data packets of one open port-80 connection — a line that is
    // not a request, then filler, 1 400 bytes in all. The analyzer's
    // line buffer, the signature tail and the hit list are at their
    // high-water marks after the warmup batch.
    let ips_key =
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 3), 5003, Ipv4Addr::new(93, 184, 216, 3), 80);
    let mut payload = b"X-Seq: 0123abcd\r\n".to_vec();
    payload.resize(1400, b'e');
    let data = |n: usize| -> Vec<Packet> {
        (0..n).map(|i| Packet::new(i as u64 + 1, ips_key, payload.clone())).collect()
    };
    let (small, large) = (data(32), data(256));
    let mut ips = Ips::new();
    ips.process_batch(now, &large, &mut fx);
    fx.reset();

    let ips_32 = allocs_during(|| ips.process_batch(now, &small, &mut fx));
    fx.reset();
    let ips_256 = allocs_during(|| ips.process_batch(now, &large, &mut fx));
    fx.reset();
    assert_eq!(
        ips_32, ips_256,
        "ips data-packet path allocates per packet ({ips_32} at 32 vs {ips_256} at 256)"
    );
    assert_eq!(ips_32, 0, "ips data-packet path should be allocation-free");
}
