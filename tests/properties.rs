//! Property-based tests on core data structures and invariants,
//! spanning crates.

use openmb::mb::Sealer;
use openmb::types::compress;
use openmb::types::crypto::{self, VendorKey};
use openmb::types::wire::{self, EventFilter, Message};
use openmb::types::{
    EncryptedChunk, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix, OpId, Packet, Proto,
    StateChunk,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Icmp)]
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>(), arb_proto()).prop_map(
        |(s, d, sp, dp, proto)| FlowKey {
            src_ip: Ipv4Addr::from(s),
            dst_ip: Ipv4Addr::from(d),
            src_port: sp,
            dst_port: dp,
            proto,
        },
    )
}

fn arb_hfl() -> impl Strategy<Value = HeaderFieldList> {
    (
        any::<u32>(),
        0u8..=32,
        any::<u32>(),
        0u8..=32,
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_proto()),
    )
        .prop_map(|(sa, sl, da, dl, ts, td, p)| HeaderFieldList {
            nw_src: IpPrefix::new(Ipv4Addr::from(sa), sl),
            nw_dst: IpPrefix::new(Ipv4Addr::from(da), dl),
            tp_src: ts,
            tp_dst: td,
            proto: p,
        })
}

proptest! {
    /// The wire codec roundtrips every message we can build.
    #[test]
    fn wire_roundtrip_chunks(key in arb_flow_key(), hfl in arb_hfl(), data in proptest::collection::vec(any::<u8>(), 0..512), op in any::<u64>()) {
        let vendor = VendorKey::derive("prop");
        let chunk = StateChunk::new(hfl, EncryptedChunk::seal(&vendor, op, &data));
        for msg in [
            Message::PutSupportPerflow { op: OpId(op), chunk: chunk.clone(), rest: Vec::new() },
            Message::PutReportPerflow { op: OpId(op), chunk: chunk.clone(), rest: vec![chunk.clone()] },
            Message::ChunkRun { op: OpId(op), chunk: chunk.clone(), rest: vec![chunk.clone()] },
            Message::Chunk { op: OpId(op), chunk },
            Message::GetSupportPerflow { op: OpId(op), key: hfl },
            Message::ReprocessPacket { op: OpId(op), key, packet: Packet::new(op, key, data.clone()) },
            Message::PutAck { op: OpId(op), key: Some(hfl) },
            Message::EnableEvents { op: OpId(op), filter: EventFilter { codes: Some(vec![1]), key: Some(hfl) } },
        ] {
            let enc = wire::encode(&msg);
            prop_assert_eq!(wire::decode(&enc).unwrap(), msg);
        }
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::decode(&bytes);
    }

    /// Compression roundtrips arbitrary data.
    #[test]
    fn compress_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&c).unwrap(), data);
    }

    /// Decompressing garbage never panics.
    #[test]
    fn decompress_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = compress::decompress(&bytes);
    }

    /// Sealing roundtrips; wrong keys are always rejected.
    #[test]
    fn crypto_roundtrip_and_key_separation(data in proptest::collection::vec(any::<u8>(), 0..512), nonce in any::<u64>()) {
        let k1 = VendorKey::derive("alpha");
        let k2 = VendorKey::derive("beta");
        let ct = crypto::seal(&k1, nonce, &data);
        prop_assert_eq!(crypto::open(&k1, &ct).unwrap(), data);
        prop_assert!(crypto::open(&k2, &ct).is_none());
    }

    /// Convergent sealing: two sealers of one vendor give byte-equal
    /// chunks for equal plaintexts; plaintexts one byte apart get
    /// different nonces and both open; another vendor opens neither.
    #[test]
    fn convergent_seal_is_equal_for_equal_state_and_private_to_the_vendor(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        pick in any::<u64>(),
        flip in 1..=255u8,
    ) {
        let (a, b) = (Sealer::new("alpha"), Sealer::new("alpha"));
        let ct = a.seal(&data);
        prop_assert_eq!(&ct, &b.seal(&data));
        let mut other = data.clone();
        other[(pick % data.len() as u64) as usize] ^= flip;
        let ct2 = b.seal(&other);
        prop_assert_ne!(&ct.as_wire()[..8], &ct2.as_wire()[..8]);
        prop_assert_eq!(a.open(&ct).unwrap(), data);
        prop_assert_eq!(a.open(&ct2).unwrap(), other);
        let beta = Sealer::new("beta");
        prop_assert!(beta.open(&ct).is_err());
        prop_assert!(beta.open(&ct2).is_err());
    }

    /// The integrity kernel behind both checks: one flipped bit
    /// anywhere changes a body's content hash and makes the sealed
    /// chunk fail to open, and a trailing zero byte changes the hash.
    #[test]
    fn integrity_checks_catch_a_flipped_bit_and_a_trailing_zero(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        nonce in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let key = VendorKey::derive("alpha");
        let clean = openmb_store::content_hash(&data);
        let mut sealed = crypto::seal(&key, nonce, &data);
        let mut data = data;
        let bit = (pick % (data.len() as u64 * 8)) as usize;
        data[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(openmb_store::content_hash(&data), clean);
        data[bit / 8] ^= 1 << (bit % 8);
        data.push(0);
        prop_assert_ne!(openmb_store::content_hash(&data), clean);
        let bit = (pick % (sealed.len() as u64 * 8)) as usize;
        sealed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(crypto::open(&key, &sealed).is_none());
    }

    /// Granularity is a partial order: coarser-than is transitive through
    /// `covers`, and `matches` respects it.
    #[test]
    fn hfl_covers_implies_matches(a in arb_hfl(), b in arb_hfl(), key in arb_flow_key()) {
        if a.covers(&b) && b.matches(&key) {
            prop_assert!(a.matches(&key), "cover must match everything the covered matches");
        }
    }

    /// exact() matches its own flow and is covered by any().
    #[test]
    fn hfl_exact_laws(key in arb_flow_key()) {
        let e = HeaderFieldList::exact(key);
        prop_assert!(e.matches(&key));
        prop_assert!(HeaderFieldList::any().covers(&e));
    }

    /// Canonicalization is idempotent and direction-insensitive.
    #[test]
    fn flowkey_canonical_laws(key in arb_flow_key()) {
        let c = key.canonical();
        prop_assert_eq!(c.canonical(), c);
        prop_assert_eq!(key.reversed().canonical(), c);
    }

    /// Hierarchical keys parse/print roundtrip (for non-empty segments
    /// without '/' or '*').
    #[test]
    fn hkey_roundtrip(segs in proptest::collection::vec("[a-z0-9_]{1,12}", 1..5)) {
        let s = segs.join("/");
        let k = HierarchicalKey::parse(&s);
        prop_assert_eq!(k.to_string(), s);
    }
}

mod cache_properties {
    use super::*;
    use openmb::middleboxes::re::PacketCache;

    proptest! {
        /// Whatever was appended last (within capacity) reads back
        /// exactly; evicted ranges read as None.
        #[test]
        fn cache_reads_recent_appends(
            appends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..300), 1..20)
        ) {
            let mut cache = PacketCache::new(1024);
            let mut offsets = Vec::new();
            for a in &appends {
                offsets.push((cache.append(a), a.clone()));
            }
            let total = cache.total();
            for (off, data) in offsets {
                let resident = off + 1024 >= total && data.len() <= 1024;
                match cache.read(off, data.len()) {
                    Some(read) if resident => prop_assert_eq!(read, data),
                    Some(_) => prop_assert!(false, "read succeeded outside window"),
                    None => prop_assert!(!resident, "resident range must read back"),
                }
            }
        }

        /// Serialization roundtrips the cache exactly.
        #[test]
        fn cache_serialize_roundtrip(
            appends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 0..10)
        ) {
            let mut cache = PacketCache::new(512);
            for a in &appends {
                cache.append(a);
            }
            let rt: PacketCache =
                openmb::mb::state::decode(&openmb::types::codec::encode(&cache)).unwrap();
            prop_assert_eq!(cache, rt);
        }
    }
}

mod config_properties {
    use super::*;
    use openmb::types::{ConfigTree, ConfigValue};

    proptest! {
        /// flatten → apply_flat reproduces the tree exactly.
        #[test]
        fn config_clone_is_exact(
            entries in proptest::collection::vec(
                (proptest::collection::vec("[a-z]{1,6}", 1..3), proptest::collection::vec(any::<i64>(), 0..4)),
                0..12,
            )
        ) {
            let mut src = ConfigTree::new();
            for (segs, vals) in &entries {
                let key = HierarchicalKey::parse(&segs.join("/"));
                // A segment may collide with an interior node from an
                // earlier entry; `set` overwrites, which is fine — we
                // compare against the final tree.
                src.set(&key, vals.iter().map(|v| ConfigValue::Int(*v)).collect());
            }
            let mut dst = ConfigTree::new();
            dst.apply_flat(&src.flatten());
            prop_assert_eq!(src, dst);
        }
    }
}

mod router_chain_properties {
    use super::*;
    use openmb::core::chain::CHAIN_OP_BASE;
    use openmb::core::{Admission, ShardRouter};
    use openmb::types::MbId;

    const SHARDS: usize = 4;
    const CHAIN_A: OpId = OpId(CHAIN_OP_BASE + 1);

    /// Hop `i` of every generated chain moves `MbId(2i) → MbId(2i+1)` —
    /// pairwise-disjoint MB pairs, the shape a chain move's admission validates.
    fn hop_pairs(n: usize) -> Vec<(MbId, MbId)> {
        (0..n as u32).map(|i| (MbId(2 * i), MbId(2 * i + 1))).collect()
    }

    fn entries(
        pattern: &HeaderFieldList,
        hops: &[(MbId, MbId)],
    ) -> Vec<(HeaderFieldList, MbId, MbId)> {
        hops.iter().map(|&(s, d)| (*pattern, s, d)).collect()
    }

    proptest! {
        /// A registered chain's conflict footprint is the union of its
        /// hops: a later single-pair admission pins to the chain's
        /// shard iff it shares a middlebox with ANY hop and its
        /// flowspace overlaps the chain's (direction-insensitively);
        /// otherwise the hash places it unpinned. One chain sits on one
        /// shard, so a lone chain can never force a deferral.
        #[test]
        fn chain_footprint_is_union_of_hops(
            chain_pat in arb_hfl(),
            op_pat in arb_hfl(),
            hops in 2usize..=4,
            src in 0u32..12,
            dst in 0u32..12,
        ) {
            // Distinct endpoints, as `move_internal` requires.
            let dst = if src == dst { (dst + 1) % 12 } else { dst };
            let mut r = ShardRouter::new(SHARDS);
            let hp = hop_pairs(hops);
            let ent = entries(&chain_pat, &hp);
            let shard = match r.admit_chain(&ent) {
                Admission::Run { shard, pinned: false } => shard,
                adm => panic!("empty table must hash-place the chain, got {adm:?}"),
            };
            r.register_chain(CHAIN_A, &ent, shard);

            let (s, d) = (MbId(src), MbId(dst));
            let shares_mb =
                hp.iter().any(|&(hs, hd)| hs == s || hs == d || hd == s || hd == d);
            let expected = shares_mb && chain_pat.overlaps_bidi(&op_pat);
            match r.admit(&op_pat, s, d) {
                Admission::Run { shard: got, pinned: true } => {
                    prop_assert!(expected, "pinned with no hop conflict");
                    prop_assert_eq!(got, shard, "must pin to the chain's shard");
                }
                Admission::Run { pinned: false, .. } => {
                    prop_assert!(!expected, "conflicting op must serialize behind the chain");
                }
                adm @ Admission::Defer { .. } => {
                    panic!("one chain on one shard can never defer an op: {adm:?}");
                }
            }
        }

        /// Two chains over the same middleboxes with REVERSED hop
        /// orders never deadlock: the second chain's admission sees the
        /// first's whole footprint at once (registration is all-hops-
        /// before-any-traffic, never incremental), so the verdict is a
        /// strict serialization — pin behind the first, or independent
        /// hash placement — never a cyclic wait. Once the first chain
        /// closes, the reversed chain is free-placed.
        #[test]
        fn reversed_hop_orders_cannot_deadlock(
            pat_a in arb_hfl(),
            pat_b in arb_hfl(),
            hops in 2usize..=4,
        ) {
            let mut r = ShardRouter::new(SHARDS);
            let fwd = hop_pairs(hops);
            let mut rev = fwd.clone();
            rev.reverse();

            let ea = entries(&pat_a, &fwd);
            let shard = match r.admit_chain(&ea) {
                Admission::Run { shard, pinned: false } => shard,
                adm => panic!("empty table must hash-place the first chain, got {adm:?}"),
            };
            r.register_chain(CHAIN_A, &ea, shard);

            let eb = entries(&pat_b, &rev);
            let conflict = pat_a.overlaps_bidi(&pat_b);
            match r.admit_chain(&eb) {
                Admission::Run { shard: got, pinned: true } => {
                    prop_assert!(conflict, "pinned with disjoint flowspaces");
                    prop_assert_eq!(got, shard, "reversed chain must serialize behind the first");
                }
                Admission::Run { pinned: false, .. } => {
                    prop_assert!(!conflict, "overlapping reversed chain must not run free");
                }
                adm @ Admission::Defer { .. } => {
                    panic!(
                        "two chains can only wait one way — a deferral here would be \
                         the deadlock shape: {adm:?}"
                    );
                }
            }

            // The first chain closes: nothing holds the reversed chain.
            r.prune(|_, op| op == CHAIN_A);
            let adm = r.admit_chain(&eb);
            prop_assert!(
                matches!(adm, Admission::Run { pinned: false, .. }),
                "after its blocker closes the reversed chain must be free-placed: {:?}",
                adm
            );
        }
    }
}

mod controller_robustness {
    use super::*;
    use openmb::core::controller::{ControllerConfig, ControllerCore, Request};
    use openmb::simnet::SimTime;
    use openmb::types::MbId;

    fn arb_message() -> impl Strategy<Value = Message> {
        let vendor = VendorKey::derive("prop");
        (any::<u64>(), arb_hfl(), arb_flow_key(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_flat_map(move |(op, hfl, fk, data)| {
                let chunk = StateChunk::new(hfl, EncryptedChunk::seal(&vendor, op, &data));
                let shared = EncryptedChunk::seal(&vendor, op, &data);
                prop_oneof![
                    Just(Message::Chunk { op: OpId(op), chunk: chunk.clone() }),
                    Just(Message::GetAck { op: OpId(op), count: (op % 100) as u32 }),
                    Just(Message::SharedChunk { op: OpId(op), chunk: shared }),
                    Just(Message::PutAck { op: OpId(op), key: Some(hfl) }),
                    Just(Message::PutAck { op: OpId(op), key: None }),
                    Just(Message::OpAck { op: OpId(op) }),
                    Just(Message::Stats { op: OpId(op), stats: Default::default() }),
                    Just(Message::ErrorMsg {
                        op: OpId(op),
                        error: openmb::types::Error::OpFailed("x".into()),
                    }),
                    Just(Message::EventMsg {
                        event: openmb::types::wire::Event::Reprocess {
                            op: OpId(op),
                            key: fk,
                            packet: Packet::new(op, fk, data.clone()),
                        },
                    }),
                    Just(Message::EventMsg {
                        event: openmb::types::wire::Event::Introspection {
                            code: (op % 7) as u32,
                            key: fk,
                            values: vec![],
                        },
                    }),
                ]
            })
    }

    proptest! {
        /// The controller must survive any interleaving of (possibly
        /// stale, duplicated, or unsolicited) MB messages: unknown
        /// sub-op ids are dropped, duplicate ACKs don't underflow,
        /// events for finished ops don't panic.
        #[test]
        fn controller_never_panics_on_arbitrary_messages(
            msgs in proptest::collection::vec(arb_message(), 0..60),
            issue_ops in proptest::collection::vec(any::<bool>(), 0..6),
        ) {
            let core = ControllerCore::new(ControllerConfig::default());
            let a = core.register_mb();
            let b = core.register_mb();
            let mut out = Vec::new();
            for (i, mv) in issue_ops.iter().enumerate() {
                let req = if *mv {
                    Request::Move { src: a, dst: b, key: HeaderFieldList::any() }
                } else {
                    Request::Clone { src: a, dst: b }
                };
                core.submit(req, SimTime(i as u64), &mut out);
            }
            for (i, m) in msgs.into_iter().enumerate() {
                core.handle_mb_message(
                    if i % 2 == 0 { a } else { b },
                    m,
                    SimTime(1000 + i as u64),
                    &mut out,
                );
            }
            core.tick(SimTime(1_000_000_000_000), &mut out);
            // Sanity: actions reference registered MBs only.
            for act in &out {
                if let openmb::core::Action::ToMb(mb, _) = act {
                    prop_assert!(mb.0 < 2, "action to unregistered {mb:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_mb_messages_are_ignored() {
        let core = ControllerCore::new(ControllerConfig::default());
        let _ = core.register_mb();
        let mut out = Vec::new();
        core.handle_mb_message(MbId(99), Message::OpAck { op: OpId(12345) }, SimTime(0), &mut out);
        assert!(out.is_empty());
    }
}

/// The chunk integrity path end to end: `seal`/`open`'s checksum and
/// the destination's content-hash re-verification.
mod chunk_integrity {
    use std::sync::Arc;

    use openmb::mb::{handle_southbound_logged, Middlebox, SharedPutLog};
    use openmb::middleboxes::DummyMb;
    use openmb::simnet::SimTime;
    use openmb::types::crypto::{self, VendorKey};
    use openmb::types::wire::{ChunkClass, Message};
    use openmb::types::{HeaderFieldList, OpId};
    use openmb_store::{content_hash, ContentStore, FileContentStore};

    /// Exhaustive over a sealed chunk of the size `move_live_1400B`
    /// moves: a flip in the nonce garbles the whole keystream, one in
    /// the checksum or the body is caught by the kernel's guarantee that
    /// a single changed word changes the digest. A truncated chunk is
    /// rejected too.
    #[test]
    fn every_single_bit_flip_of_a_sealed_chunk_fails_to_open() {
        let key = VendorKey::derive("bro");
        let plain: Vec<u8> = (0..1504usize).map(|i| (i * 131 + 89) as u8).collect();
        let mut sealed = crypto::seal(&key, 7, &plain);
        assert_eq!(sealed.len(), 1520);
        assert_eq!(crypto::open(&key, &sealed).as_deref(), Some(&plain[..]));
        for bit in 0..sealed.len() * 8 {
            sealed[bit / 8] ^= 1 << (bit % 8);
            assert!(crypto::open(&key, &sealed).is_none(), "bit {bit}");
            sealed[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(crypto::open(&key, &sealed[..sealed.len() - 1]).is_none());
    }

    /// A `FileContentStore` outlives the build that wrote it. An entry
    /// filed under a hash the current kernel does not derive from its
    /// bytes — what a build with a different `content_hash` left on
    /// disk — must read as a miss: the reference is answered with
    /// `ChunkNeed`, the re-streamed body is verified, applied and filed
    /// under the current hash, and no state is ever imported on the
    /// stale name's say-so.
    #[test]
    fn file_store_entry_under_a_stale_hash_degrades_to_need_and_restream() {
        let dir = std::env::temp_dir()
            .join(format!("openmb-properties-stale-hash-{}", std::process::id()));
        let store: Arc<dyn ContentStore> = Arc::new(FileContentStore::open(&dir).unwrap());
        let chunk = DummyMb::preloaded(1)
            .get_report_perflow(OpId(1), &HeaderFieldList::any())
            .unwrap()
            .remove(0);
        let current = content_hash(chunk.data.as_wire());
        let stale = [0x5a; 32];
        store.insert_unchecked(stale, chunk.data.as_wire().into());

        let mut dst = DummyMb::new();
        let mut log = SharedPutLog::with_store(Arc::clone(&store));
        let now = SimTime(0);
        let (class, key) = (ChunkClass::Report, chunk.key);
        let mut send = |dst: &mut DummyMb, msg| handle_southbound_logged(dst, &mut log, msg, now);

        // An old controller still refers to the body by the stale name:
        // the entry is there, fails re-verification, and is not applied.
        let rest = Vec::new;
        let reply = send(
            &mut dst,
            Message::ChunkRef { op: OpId(2), class, key, hash: stale, rest: rest() },
        );
        assert_eq!(reply, vec![Message::ChunkNeed { op: OpId(2), hash: stale }]);
        // This build's controller refers to it by the current hash: a
        // plain miss, then the streamed body.
        let reply = send(
            &mut dst,
            Message::ChunkRef { op: OpId(3), class, key, hash: current, rest: rest() },
        );
        assert_eq!(reply, vec![Message::ChunkNeed { op: OpId(3), hash: current }]);
        assert_eq!(dst.perflow_entries(), 0, "nothing imported before a verified body arrives");
        let body = Message::ChunkBody {
            op: OpId(3),
            class,
            key,
            hash: current,
            data: chunk.data,
            rest: Vec::new(),
        };
        assert_eq!(send(&mut dst, body), vec![Message::PutAck { op: OpId(3), key: Some(key) }]);
        assert_eq!(dst.perflow_entries(), 1);
        assert_eq!(store.get(&current).map(|b| content_hash(&b)), Some(current));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
