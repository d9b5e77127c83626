//! The wire codec's test corpus, shared (via `#[path]`) by the unit
//! tests in `src/wire.rs` and the allocation audit in
//! `tests/decode_alloc.rs`: a randomized instance of every message
//! variant, and the damaged encodings a hostile or cut-off peer would
//! send.

use std::net::Ipv4Addr;

use openmb_types::crypto::VendorKey;
use openmb_types::wire::{encode, ChunkClass, Event, EventFilter, Message, MAX_MESSAGE};
use openmb_types::{
    ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix, MbId,
    OpId, Packet, Proto, StateChunk, StateStats,
};
use proptest::test_runner::TestRng;

pub fn string(rng: &mut TestRng) -> String {
    let len = rng.below(24) as usize;
    (0..len).map(|_| char::from(b'a' + rng.below(26) as u8)).collect()
}

pub fn flow_key(rng: &mut TestRng) -> FlowKey {
    let ip = |rng: &mut TestRng| Ipv4Addr::from(rng.next_u64() as u32);
    let key = FlowKey::tcp(ip(rng), rng.next_u64() as u16, ip(rng), rng.next_u64() as u16);
    match rng.below(3) {
        0 => key,
        1 => FlowKey { proto: Proto::Udp, ..key },
        _ => FlowKey { proto: Proto::Icmp, ..key },
    }
}

pub fn hfl(rng: &mut TestRng) -> HeaderFieldList {
    HeaderFieldList {
        nw_src: IpPrefix::new(Ipv4Addr::from(rng.next_u64() as u32), rng.below(33) as u8),
        nw_dst: IpPrefix::new(Ipv4Addr::from(rng.next_u64() as u32), rng.below(33) as u8),
        tp_src: (rng.below(2) == 0).then(|| rng.next_u64() as u16),
        tp_dst: (rng.below(2) == 0).then(|| rng.next_u64() as u16),
        proto: match rng.below(4) {
            0 => None,
            1 => Some(Proto::Tcp),
            2 => Some(Proto::Udp),
            _ => Some(Proto::Icmp),
        },
    }
}

pub fn shared_chunk(rng: &mut TestRng) -> EncryptedChunk {
    let key = VendorKey::derive("gen");
    let n = rng.below(64) as usize;
    let plain: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    EncryptedChunk::seal(&key, rng.next_u64(), &plain)
}

pub fn chunk(rng: &mut TestRng) -> StateChunk {
    StateChunk::new(hfl(rng), shared_chunk(rng))
}

/// A run's further items: usually none (a run of one), else up to
/// three.
pub fn rest<T>(rng: &mut TestRng, item: fn(&mut TestRng) -> T) -> Vec<T> {
    let n = rng.below(6).saturating_sub(2);
    (0..n).map(|_| item(rng)).collect()
}

pub fn hkey(rng: &mut TestRng) -> HierarchicalKey {
    let depth = rng.below(4);
    let path: Vec<String> = (0..depth).map(|_| string(rng)).collect();
    HierarchicalKey::parse(&path.join("/"))
}

pub fn values(rng: &mut TestRng) -> Vec<ConfigValue> {
    (0..rng.below(5))
        .map(|_| match rng.below(3) {
            0 => ConfigValue::Str(string(rng)),
            1 => ConfigValue::Int(rng.next_u64() as i64),
            _ => ConfigValue::Bool(rng.below(2) == 0),
        })
        .collect()
}

pub fn packet(rng: &mut TestRng) -> Packet {
    let n = rng.below(256) as usize;
    let payload: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    Packet::new(rng.next_u64(), flow_key(rng), payload)
}

pub fn error(rng: &mut TestRng) -> Error {
    match rng.below(12) {
        0 => Error::GranularityTooFine { requested: hfl(rng), native: string(rng) },
        1 => Error::NoSuchConfigKey(string(rng)),
        2 => Error::InvalidConfigValue { key: string(rng), reason: string(rng) },
        3 => Error::UnknownMb(MbId(rng.next_u64() as u32)),
        4 => Error::UnsupportedStateClass(string(rng)),
        5 => Error::MalformedChunk(string(rng)),
        6 => Error::MergeNotPermitted(string(rng)),
        7 => Error::Codec(string(rng)),
        8 => Error::Transport(string(rng)),
        9 => Error::Timeout { op: OpId(rng.next_u64()) },
        10 => Error::MbUnreachable(MbId(rng.next_u64() as u32)),
        _ => Error::OpFailed(string(rng)),
    }
}

pub fn filter(rng: &mut TestRng) -> EventFilter {
    EventFilter {
        codes: (rng.below(2) == 0)
            .then(|| (0..rng.below(5)).map(|_| rng.next_u64() as u32).collect()),
        key: (rng.below(2) == 0).then(|| hfl(rng)),
    }
}

/// Content hashes are never all-zero on the wire (decode rejects
/// the null hash), so the generator forces one nonzero byte.
pub fn hash(rng: &mut TestRng) -> [u8; 32] {
    let mut h = [0u8; 32];
    for chunk in h.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    h[0] |= 1;
    h
}

pub fn chunk_class(rng: &mut TestRng) -> ChunkClass {
    if rng.below(2) == 0 {
        ChunkClass::Support
    } else {
        ChunkClass::Report
    }
}

/// One randomized message of the variant at `idx` (0..=34 covers
/// the whole enum; keep in sync with `Message`).
pub const VARIANTS: u64 = 35;
pub fn message(rng: &mut TestRng, idx: u64) -> Message {
    let op = OpId(rng.next_u64());
    match idx {
        0 => Message::GetConfig { op, key: hkey(rng) },
        1 => Message::SetConfig { op, key: hkey(rng), values: values(rng) },
        2 => Message::DelConfig { op, key: hkey(rng) },
        3 => Message::GetSupportPerflow { op, key: hfl(rng) },
        4 => Message::PutSupportPerflow { op, chunk: chunk(rng), rest: rest(rng, chunk) },
        5 => Message::DelSupportPerflow { op, key: hfl(rng) },
        6 => Message::GetReportPerflow { op, key: hfl(rng) },
        7 => Message::PutReportPerflow { op, chunk: chunk(rng), rest: rest(rng, chunk) },
        8 => Message::DelReportPerflow { op, key: hfl(rng) },
        9 => Message::GetSupportShared { op },
        10 => Message::PutSupportShared { op, chunk: shared_chunk(rng) },
        11 => Message::GetReportShared { op },
        12 => Message::PutReportShared { op, chunk: shared_chunk(rng) },
        13 => Message::GetStats { op, key: hfl(rng) },
        14 => Message::EnableEvents { op, filter: filter(rng) },
        15 => Message::DisableEvents { op },
        16 => Message::ReprocessPacket { op, key: flow_key(rng), packet: packet(rng) },
        17 => Message::EndSync { op },
        18 => Message::Chunk { op, chunk: chunk(rng) },
        19 => Message::GetAck { op, count: rng.next_u64() as u32 },
        20 => Message::SharedChunk { op, chunk: shared_chunk(rng) },
        21 => Message::PutAck { op, key: (rng.below(2) == 0).then(|| hfl(rng)) },
        22 => Message::OpAck { op },
        23 => Message::ConfigValues {
            op,
            pairs: (0..rng.below(4)).map(|_| (hkey(rng), values(rng))).collect(),
        },
        24 => Message::Stats {
            op,
            stats: StateStats {
                perflow_support_chunks: rng.below(100) as usize,
                perflow_support_bytes: rng.below(10_000) as usize,
                perflow_report_chunks: rng.below(100) as usize,
                perflow_report_bytes: rng.below(10_000) as usize,
                shared_support_bytes: rng.below(10_000) as usize,
                shared_report_bytes: rng.below(10_000) as usize,
            },
        },
        25 => Message::EventMsg {
            event: Event::Reprocess { op, key: flow_key(rng), packet: packet(rng) },
        },
        26 => Message::EventMsg {
            event: Event::Introspection {
                code: rng.next_u64() as u32,
                key: flow_key(rng),
                values: (0..rng.below(4)).map(|_| (string(rng), string(rng))).collect(),
            },
        },
        27 => Message::ErrorMsg { op, error: error(rng) },
        28 => Message::DeleteState {
            op,
            puts: (0..rng.below(6)).map(|_| OpId(rng.next_u64())).collect(),
        },
        29 => Message::DeleteAck { op, restored: rng.next_u64() as u32 },
        30 => Message::ChunkRef {
            op,
            class: chunk_class(rng),
            key: hfl(rng),
            hash: hash(rng),
            rest: rest(rng, hfl),
        },
        31 => Message::ChunkNeed { op, hash: hash(rng) },
        32 => Message::ChunkBody {
            op,
            class: chunk_class(rng),
            key: hfl(rng),
            hash: hash(rng),
            data: shared_chunk(rng),
            rest: rest(rng, chunk),
        },
        33 => {
            let more = 1 + rng.below(4) as usize;
            Message::ChunkRun {
                op,
                chunk: chunk(rng),
                rest: (0..more).map(|_| chunk(rng)).collect(),
            }
        }
        // Batch: 0..=3 inner messages drawn from the non-batch
        // variants (nesting is rejected by the codec).
        _ => Message::Batch {
            msgs: (0..rng.below(4))
                .map(|_| {
                    let inner = rng.below(34);
                    message(rng, inner)
                })
                .collect(),
        },
    }
}

/// Start from a valid encoding of every variant (`cases` of each) and
/// damage it: `f(frame, true)` for every strict prefix, `f(frame,
/// false)` for every 4-byte window (lengths, counts, tags, hashes
/// alike) overwritten with boundary values.
pub fn for_each_damaged(rng: &mut TestRng, cases: usize, mut f: impl FnMut(&[u8], bool)) {
    for variant in 0..VARIANTS {
        for _ in 0..cases {
            let enc = encode(&message(rng, variant));
            for cut in 0..enc.len() {
                f(&enc[..cut], true);
            }
            let mut bad = enc.clone();
            for at in 0..enc.len().saturating_sub(3) {
                for v in [0, u32::MAX, 65_537, MAX_MESSAGE as u32 + 1] {
                    bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
                    f(&bad, false);
                }
                bad[at..at + 4].copy_from_slice(&enc[at..at + 4]);
            }
        }
    }
}
