//! Allocation audit for the wire decoder: "never allocate past the
//! frame" as a measured property.
//!
//! A counting global allocator wraps `System`; the test runs the wire
//! corpus's damaged encodings (every strict prefix, every 4-byte window
//! overwritten with boundary values) through `decode` and
//! `decode_bytes` and asserts the bytes each call allocates are bounded
//! by the frame's own length — a small constant times it, plus what the
//! clamped `Vec::with_capacity(n.min(1024))` reservations can take on a
//! count the body does not back. A hostile 30-byte frame can therefore
//! cost kilobytes, never the megabytes an unclamped count would reserve.
//! One more input is the deepest hierarchical key a frame may carry,
//! whose segments must be collected once, not copied per segment.
//!
//! One `#[test]` only: the counter is process-global, and a single test
//! keeps other harness threads from muddying the deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use openmb_types::wire::{decode, decode_bytes, encode, Message};
use openmb_types::{ConfigValue, HierarchicalKey, OpId, StateChunk};

mod wire_corpus;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

/// Bytes allocated per frame byte the decoder is allowed: the worst
/// honest ratio is a vector of minimal elements (a 2-byte `Bool`
/// config value becomes a 32-byte `ConfigValue`, a 13-byte batched
/// `OpAck` a whole `Message`), with `Vec` doubling on top.
const PER_FRAME_BYTE: u64 = 64;

#[test]
fn decode_allocates_in_proportion_to_the_frame() {
    // What the clamped reservations can take before the first element
    // fails to parse. They nest three deep at most: a batch of
    // messages, one of them `ConfigValues`, one of its pairs' values —
    // or two deep, a batch and one run's records or keys, which the
    // same sum covers.
    let reserve = 1024
        * (size_of::<Message>()
            + size_of::<(HierarchicalKey, Vec<ConfigValue>)>()
            + size_of::<ConfigValue>()
            + size_of::<StateChunk>()) as u64;
    let mut rng = proptest::test_runner::TestRng::from_name("decode_alloc");
    let (mut frames, mut worst) = (0u64, 0u64);
    let mut check = |frame: &[u8]| {
        let shared = Bytes::from(frame.to_vec());
        let copied = bytes_during(|| drop(decode(frame)));
        let aliased = bytes_during(|| drop(decode_bytes(&shared)));
        let bound = PER_FRAME_BYTE * frame.len() as u64 + reserve;
        assert!(
            copied <= bound && aliased <= bound,
            "a {}-byte frame allocated {copied} B (decode) / {aliased} B (decode_bytes), \
             bound {bound}: {frame:?}",
            frame.len()
        );
        frames += 1;
        worst = worst.max(copied.max(aliased));
    };
    wire_corpus::for_each_damaged(&mut rng, 8, |frame, _| check(frame));
    // The deepest key a frame may carry: 1 024 empty segments.
    let deep = HierarchicalKey::parse(&"/".repeat(1023));
    assert_eq!(deep.segments().len(), 1024);
    check(&encode(&Message::GetConfig { op: OpId(1), key: deep }));
    assert!(frames > 50_000, "the corpus collapsed: {frames} frames");
    eprintln!(
        "decode alloc audit: {frames} damaged frames, worst call {worst} B, reserve {reserve} B"
    );
}
