//! Redundancy-elimination encoder/decoder — the SmartRE [16] stand-in.
//!
//! §7: "RE maintains a cache object that includes cached content, size of
//! cache state, a pointer `current_pos` indicating where to insert a new
//! cache entry, and a `max_reached` indicating if cache is full. ... An
//! encoder maintains multiple cache objects. Each of them corresponds to
//! a decoder. An encoder also maintains a `num_of_decoder` ... and a
//! `fingerprint_table` for each decoder."
//!
//! The invariant the experiments revolve around (§6.1, Table 3): the
//! encoder-side and decoder-side packet caches must be **byte-identical
//! and offset-synchronized** — a shim says "these N bytes are at stream
//! offset F in our common history", so any divergence makes encoded
//! packets unrecoverable.
//!
//! Encoding: payload windows are fingerprinted with a Karp–Rabin rolling
//! hash; sampled fingerprints index a table of stream offsets; matches
//! are verified against cache bytes and extended maximally; matched
//! regions become `(offset, len)` shims; every packet's *original*
//! payload is then appended to the cache (on both sides).

use std::collections::HashMap;

use bytes::Bytes;
use openmb_mb::{state, CostModel, Effects, Middlebox, Sealer, SharedSnapshot, SyncTracker};
use openmb_simnet::SimTime;
use openmb_types::codec;
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, HeaderFieldList, HierarchicalKey,
    IpPrefix, OpId, Packet, Result, StateStats,
};

/// Fingerprint window size (bytes).
const FP_WINDOW: usize = 16;
/// Sampling modulus: ~1/16 of positions are indexed.
const FP_SAMPLE: u64 = 16;
/// Minimum matched region worth a shim (a shim costs 11 bytes).
const MIN_MATCH: usize = 24;
/// Marker prefix distinguishing encoded payloads from raw ones.
const ENCODED_MAGIC: u8 = 0xE5;
/// Only payloads at least this long are considered for encoding.
const MIN_ENCODE: usize = 64;

/// FNV-1a over the original payload, carried in every encoded packet so
/// the decoder detects cache desynchronization (shims that read *wrong*
/// bytes, not just evicted ones) instead of silently corrupting traffic.
fn payload_checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The packet cache: a ring buffer addressed by monotonic stream offset.
///
/// A stream offset `o` is valid while `total - capacity <= o < total`;
/// its bytes live at `o % capacity`. Appends on the encoder and decoder
/// (and on a clone replaying reprocess events) are byte-identical, which
/// preserves the synchronization invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketCache {
    data: Vec<u8>,
    /// Total bytes ever appended (the stream offset of the next byte).
    total: u64,
}

impl PacketCache {
    /// An empty cache of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= FP_WINDOW, "cache must hold at least one window");
        PacketCache { data: vec![0; capacity], total: 0 }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Total bytes ever appended (`current_pos` in stream coordinates).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Append `bytes`, returning the stream offset of their first byte.
    pub fn append(&mut self, bytes: &[u8]) -> u64 {
        let start = self.total;
        let cap = self.data.len();
        for (i, &b) in bytes.iter().enumerate() {
            self.data[((start + i as u64) % cap as u64) as usize] = b;
        }
        self.total += bytes.len() as u64;
        start
    }

    /// Is the byte range `[offset, offset+len)` still resident?
    pub fn in_window(&self, offset: u64, len: usize) -> bool {
        let cap = self.data.len() as u64;
        offset + len as u64 <= self.total && offset + cap >= self.total
    }

    /// Read `len` bytes at stream offset `offset`; `None` if evicted.
    pub fn read(&self, offset: u64, len: usize) -> Option<Vec<u8>> {
        if !self.in_window(offset, len) {
            return None;
        }
        let cap = self.data.len() as u64;
        Some((0..len).map(|i| self.data[((offset + i as u64) % cap) as usize]).collect())
    }

    /// Byte at a stream offset (must be in window).
    fn at(&self, offset: u64) -> u8 {
        self.data[(offset % self.data.len() as u64) as usize]
    }

    /// A cache from a shared chunk: its row, holding at least one
    /// window.
    fn open(sealer: &mut Sealer, chunk: &EncryptedChunk) -> Result<Self> {
        let cache: PacketCache = sealer.open_row(chunk)?;
        if cache.data.len() < FP_WINDOW {
            return Err(Error::MalformedChunk("cache too small".into()));
        }
        Ok(cache)
    }
}

// Counters, then the ring contents.
record! { PacketCache { total, data } }

/// Karp–Rabin rolling hash over [`FP_WINDOW`]-byte windows.
struct RollingHash {
    hash: u64,
    /// BASE^(FP_WINDOW-1) mod 2^64, for removing the outgoing byte.
    pow: u64,
}

const RH_BASE: u64 = 1_000_003;

impl RollingHash {
    fn new(window: &[u8]) -> Self {
        debug_assert_eq!(window.len(), FP_WINDOW);
        let mut hash = 0u64;
        let mut pow = 1u64;
        for (i, &b) in window.iter().enumerate() {
            hash = hash.wrapping_mul(RH_BASE).wrapping_add(u64::from(b));
            if i + 1 < FP_WINDOW {
                pow = pow.wrapping_mul(RH_BASE);
            }
        }
        RollingHash { hash, pow }
    }

    fn roll(&mut self, out: u8, inc: u8) {
        self.hash = self
            .hash
            .wrapping_sub(u64::from(out).wrapping_mul(self.pow))
            .wrapping_mul(RH_BASE)
            .wrapping_add(u64::from(inc));
    }

    fn sampled(&self) -> bool {
        self.hash.is_multiple_of(FP_SAMPLE)
    }
}

/// One encoder-side cache: ring + fingerprint table.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    pub cache: PacketCache,
    /// fingerprint → stream offset of the window it hashes.
    fingerprints: HashMap<u64, u64>,
}

impl EncoderCache {
    fn new(capacity: usize) -> Self {
        EncoderCache { cache: PacketCache::new(capacity), fingerprints: HashMap::new() }
    }

    /// Append payload to the ring and index its sampled fingerprints.
    fn append_and_index(&mut self, payload: &[u8]) {
        let start = self.cache.append(payload);
        if payload.len() < FP_WINDOW {
            return;
        }
        let mut rh = RollingHash::new(&payload[..FP_WINDOW]);
        let mut i = 0usize;
        loop {
            if rh.sampled() {
                self.fingerprints.insert(rh.hash, start + i as u64);
            }
            if i + FP_WINDOW >= payload.len() {
                break;
            }
            rh.roll(payload[i], payload[i + FP_WINDOW]);
            i += 1;
        }
    }

    /// Encode `payload` into a token stream; returns `(encoded, saved)`
    /// where `saved` is the number of payload bytes replaced by shims.
    fn encode(&mut self, payload: &[u8]) -> (Vec<u8>, usize) {
        let mut out = Vec::with_capacity(payload.len() / 2 + 8);
        out.push(ENCODED_MAGIC);
        out.extend_from_slice(&payload_checksum(payload).to_le_bytes());
        let mut saved = 0usize;
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let flush_lit = |out: &mut Vec<u8>, from: usize, to: usize, payload: &[u8]| {
            let mut s = from;
            while s < to {
                let n = (to - s).min(65535);
                out.push(0x00);
                out.extend_from_slice(&(n as u16).to_le_bytes());
                out.extend_from_slice(&payload[s..s + n]);
                s += n;
            }
        };

        if payload.len() >= FP_WINDOW {
            let mut rh = RollingHash::new(&payload[..FP_WINDOW]);
            while i + FP_WINDOW <= payload.len() {
                let mut matched = 0usize;
                let mut match_off = 0u64;
                if rh.sampled() {
                    if let Some(&off) = self.fingerprints.get(&rh.hash) {
                        if self.cache.in_window(off, FP_WINDOW) {
                            // Verify (hash collisions + ring eviction).
                            let ok = (0..FP_WINDOW)
                                .all(|k| self.cache.at(off + k as u64) == payload[i + k]);
                            if ok {
                                // Extend right as far as cache window and
                                // payload allow.
                                let mut l = FP_WINDOW;
                                while i + l < payload.len()
                                    && self.cache.in_window(off, l + 1)
                                    && self.cache.at(off + l as u64) == payload[i + l]
                                {
                                    l += 1;
                                }
                                if l >= MIN_MATCH {
                                    matched = l;
                                    match_off = off;
                                }
                            }
                        }
                    }
                }
                if matched > 0 {
                    flush_lit(&mut out, lit_start, i, payload);
                    out.push(0x01);
                    out.extend_from_slice(&match_off.to_le_bytes());
                    out.extend_from_slice(&(matched as u16).to_le_bytes());
                    saved += matched.saturating_sub(11);
                    i += matched;
                    lit_start = i;
                    if i + FP_WINDOW <= payload.len() {
                        rh = RollingHash::new(&payload[i..i + FP_WINDOW]);
                    }
                } else {
                    if i + FP_WINDOW < payload.len() {
                        rh.roll(payload[i], payload[i + FP_WINDOW]);
                    }
                    i += 1;
                }
            }
        }
        flush_lit(&mut out, lit_start, payload.len(), payload);
        (out, saved)
    }
}

/// Decode a token stream against a cache. Returns the original payload,
/// or `Err(bytes_lost)` when a shim referenced content the cache does not
/// hold (the Table 3 "undecodable" case).
pub fn decode_tokens(cache: &PacketCache, encoded: &[u8]) -> std::result::Result<Vec<u8>, usize> {
    if encoded.first() != Some(&ENCODED_MAGIC) {
        return Ok(encoded.to_vec());
    }
    if encoded.len() < 5 {
        return Err(encoded.len());
    }
    let want = u32::from_le_bytes(encoded[1..5].try_into().unwrap());
    let mut out = Vec::with_capacity(encoded.len() * 2);
    let mut i = 5usize;
    while i < encoded.len() {
        match encoded[i] {
            0x00 => {
                if i + 3 > encoded.len() {
                    return Err(encoded.len());
                }
                let n = u16::from_le_bytes(encoded[i + 1..i + 3].try_into().unwrap()) as usize;
                i += 3;
                if i + n > encoded.len() {
                    return Err(encoded.len());
                }
                out.extend_from_slice(&encoded[i..i + n]);
                i += n;
            }
            0x01 => {
                if i + 11 > encoded.len() {
                    return Err(encoded.len());
                }
                let off = u64::from_le_bytes(encoded[i + 1..i + 9].try_into().unwrap());
                let len = u16::from_le_bytes(encoded[i + 9..i + 11].try_into().unwrap()) as usize;
                i += 11;
                match cache.read(off, len) {
                    Some(bytes) => out.extend_from_slice(&bytes),
                    None => return Err(encoded.len()),
                }
            }
            _ => return Err(encoded.len()),
        }
    }
    if payload_checksum(&out) != want {
        // Shims resolved against a desynchronized cache: the bytes read
        // were resident but wrong.
        return Err(encoded.len());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Encoder middlebox
// ---------------------------------------------------------------------------

/// The RE encoder. Configuration drives the §6.1 migration recipe:
/// `NumCaches` (growing it clones cache 0 — "the encoder will clone its
/// original cache to create a new second cache") and `CacheFlows`
/// (destination prefixes; the i-th prefix selects cache i).
#[derive(Clone)]
pub struct ReEncoder {
    config: ConfigTree,
    caches: Vec<EncoderCache>,
    cache_size: usize,
    sync: SyncTracker,
    sealer: Sealer,
    /// Total payload bytes replaced by shims (Table 3 "Encoded Bytes").
    pub bytes_saved: u64,
    /// Packets encoded.
    pub packets_encoded: u64,
}

impl ReEncoder {
    /// An encoder with one cache of `cache_size` bytes.
    pub fn new(cache_size: usize) -> Self {
        let mut config = ConfigTree::new();
        config.set(&HierarchicalKey::parse("CacheSize"), vec![ConfigValue::Int(cache_size as i64)]);
        config.set(&HierarchicalKey::parse("NumCaches"), vec![ConfigValue::Int(1)]);
        config
            .set(&HierarchicalKey::parse("CacheFlows"), vec![ConfigValue::Str("0.0.0.0/0".into())]);
        ReEncoder {
            config,
            caches: vec![EncoderCache::new(cache_size)],
            cache_size,
            sync: SyncTracker::new(),
            sealer: Sealer::new("re"),
            bytes_saved: 0,
            packets_encoded: 0,
        }
    }

    /// The shared reporting counters, in wire order.
    fn counters(&mut self) -> [&mut u64; 2] {
        [&mut self.bytes_saved, &mut self.packets_encoded]
    }

    fn cache_flows(&self) -> Vec<IpPrefix> {
        self.config
            .get_leaf(&HierarchicalKey::parse("CacheFlows"))
            .map(|vs| vs.iter().filter_map(|v| v.as_str()).filter_map(parse_prefix).collect())
            .unwrap_or_default()
    }

    fn select_cache(&self, pkt: &Packet) -> usize {
        let flows = self.cache_flows();
        for (i, p) in flows.iter().enumerate() {
            if p.contains(pkt.key.dst_ip) && i < self.caches.len() {
                return i;
            }
        }
        0
    }

    /// Direct cache access (tests / experiments).
    pub fn cache(&self, i: usize) -> &PacketCache {
        &self.caches[i].cache
    }
}

fn parse_prefix(s: &str) -> Option<IpPrefix> {
    let (addr, len) = s.split_once('/')?;
    Some(IpPrefix::new(addr.parse().ok()?, len.parse().ok()?))
}

impl Middlebox for ReEncoder {
    fn mb_type(&self) -> &'static str {
        "re-encoder"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        match key.to_string().as_str() {
            "NumCaches" => {
                let n = values.first().and_then(ConfigValue::as_int).ok_or_else(|| {
                    Error::InvalidConfigValue {
                        key: key.to_string(),
                        reason: "NumCaches needs an integer".into(),
                    }
                })?;
                if !(1..=64).contains(&n) {
                    return Err(Error::InvalidConfigValue {
                        key: key.to_string(),
                        reason: format!("NumCaches out of range: {n}"),
                    });
                }
                // §6.1 step 3: growing the count clones the original
                // cache (content AND fingerprint table) for each new
                // decoder.
                while (self.caches.len() as i64) < n {
                    let clone = self.caches[0].clone();
                    self.caches.push(clone);
                }
                while (self.caches.len() as i64) > n {
                    self.caches.pop();
                }
            }
            "NumCachesEmpty" => {
                // The config+routing baseline (§8.1.2) cannot clone
                // caches: new caches start empty ("we create an empty
                // encoder at the remote site").
                let n = values.first().and_then(ConfigValue::as_int).unwrap_or(0);
                if !(1..=64).contains(&n) {
                    return Err(Error::InvalidConfigValue {
                        key: key.to_string(),
                        reason: format!("NumCachesEmpty out of range: {n}"),
                    });
                }
                while (self.caches.len() as i64) < n {
                    self.caches.push(EncoderCache::new(self.cache_size));
                }
                while (self.caches.len() as i64) > n {
                    self.caches.pop();
                }
            }
            "CacheSize" => {
                let sz = values.first().and_then(ConfigValue::as_int).unwrap_or(0);
                if sz < FP_WINDOW as i64 {
                    return Err(Error::InvalidConfigValue {
                        key: key.to_string(),
                        reason: "CacheSize too small".into(),
                    });
                }
                // Resizing evicts: caches restart empty at the new size.
                self.cache_size = sz as usize;
                let n = self.caches.len();
                self.caches = (0..n).map(|_| EncoderCache::new(self.cache_size)).collect();
            }
            "CacheFlows" => {
                for v in &values {
                    let ok = v.as_str().map(parse_prefix).unwrap_or(None).is_some();
                    if !ok {
                        return Err(Error::InvalidConfigValue {
                            key: key.to_string(),
                            reason: format!("bad prefix: {v}"),
                        });
                    }
                }
            }
            _ => {}
        }
        self.config.set(key, values);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.sync.mark_shared(op);
        Ok(Some(self.sealer.seal(&codec::encode(&self.caches[0].cache))))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let cache = PacketCache::open(&mut self.sealer, &chunk)?;
        if self.caches[0].cache.total() != 0 {
            return Err(Error::MergeNotPermitted(
                "RE caches are position-sensitive and cannot be merged".into(),
            ));
        }
        self.caches[0] = EncoderCache { cache, fingerprints: HashMap::new() };
        Ok(())
    }

    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        let counters = state::encode_counters(self.counters());
        Ok(Some(self.sealer.seal(&counters)))
    }

    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = self.sealer.open(&chunk)?;
        state::merge_counters(self.counters(), &plain)
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let counters = state::encode_counters(self.counters());
        Ok(self.sealer.snapshot(Some(codec::encode(&self.caches[0].cache)), Some(counters)))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.caches[0] = match snap.support {
            Some(c) => EncoderCache {
                cache: PacketCache::open(&mut self.sealer, &c)?,
                fingerprints: HashMap::new(),
            },
            None => EncoderCache::new(self.cache_size),
        };
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.counters(), plain.as_deref())
    }

    // Bare sizes, without the seal overhead the other types add: these
    // numbers are printed by `repro` (DESIGN §18).
    fn stats(&self, _key: &HeaderFieldList) -> StateStats {
        StateStats {
            shared_support_bytes: self.caches.iter().map(|c| codec::encoded_len(&c.cache)).sum(),
            shared_report_bytes: 2 * 8,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, _now: SimTime, pkt: &Packet, fx: &mut Effects) {
        if pkt.payload.len() < MIN_ENCODE {
            fx.forward(pkt.clone());
            return;
        }
        let idx = self.select_cache(pkt);
        let (encoded, saved) = self.caches[idx].encode(&pkt.payload);
        self.caches[idx].append_and_index(&pkt.payload);
        self.bytes_saved += saved as u64;
        self.packets_encoded += 1;
        // Every encoded packet updates shared (cache) state.
        self.sync.on_shared_update(pkt, fx);
        let mut out = pkt.clone();
        out.payload = Bytes::from(encoded);
        fx.forward(out);
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::re_like()
    }

    fn perflow_entries(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Decoder middlebox
// ---------------------------------------------------------------------------

/// The RE decoder: reconstructs packets from shims against its replica of
/// the encoder's cache, then appends the reconstruction so the caches
/// advance in lockstep.
#[derive(Clone)]
pub struct ReDecoder {
    config: ConfigTree,
    cache: PacketCache,
    cache_size: usize,
    sync: SyncTracker,
    sealer: Sealer,
    /// Packets fully reconstructed.
    pub packets_decoded: u64,
    /// Encoded packets that referenced content this cache did not hold
    /// (Table 3 "Undecodable bytes" counts their encoded sizes).
    pub packets_undecodable: u64,
    /// Total encoded bytes that could not be reconstructed.
    pub bytes_undecodable: u64,
}

impl ReDecoder {
    /// A decoder with an empty cache of `cache_size` bytes.
    pub fn new(cache_size: usize) -> Self {
        let mut config = ConfigTree::new();
        config.set(&HierarchicalKey::parse("CacheSize"), vec![ConfigValue::Int(cache_size as i64)]);
        ReDecoder {
            config,
            cache: PacketCache::new(cache_size),
            cache_size,
            sync: SyncTracker::new(),
            sealer: Sealer::new("re"),
            packets_decoded: 0,
            packets_undecodable: 0,
            bytes_undecodable: 0,
        }
    }

    /// The shared reporting counters, in wire order.
    fn counters(&mut self) -> [&mut u64; 3] {
        [&mut self.packets_decoded, &mut self.packets_undecodable, &mut self.bytes_undecodable]
    }

    /// Direct cache access (tests / experiments).
    pub fn cache(&self) -> &PacketCache {
        &self.cache
    }
}

impl Middlebox for ReDecoder {
    fn mb_type(&self) -> &'static str {
        "re-decoder"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        if key.to_string() == "CacheSize" {
            let sz = values.first().and_then(ConfigValue::as_int).unwrap_or(0);
            if sz < FP_WINDOW as i64 {
                return Err(Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "CacheSize too small".into(),
                });
            }
            self.cache_size = sz as usize;
            self.cache = PacketCache::new(self.cache_size);
        }
        self.config.set(key, values);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.sync.mark_shared(op);
        Ok(Some(self.sealer.seal(&codec::encode(&self.cache))))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let cache = PacketCache::open(&mut self.sealer, &chunk)?;
        if self.cache.total() != 0 {
            // §4.1.2's shared-state constraint: we cannot overwrite live
            // shared state, and RE caches cannot be merged.
            return Err(Error::MergeNotPermitted(
                "RE caches are position-sensitive and cannot be merged".into(),
            ));
        }
        self.cache = cache;
        Ok(())
    }

    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        let counters = state::encode_counters(self.counters());
        Ok(Some(self.sealer.seal(&counters)))
    }

    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let plain = self.sealer.open(&chunk)?;
        state::merge_counters(self.counters(), &plain)
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let counters = state::encode_counters(self.counters());
        Ok(self.sealer.snapshot(Some(codec::encode(&self.cache)), Some(counters)))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.cache = match snap.support {
            Some(c) => PacketCache::open(&mut self.sealer, &c)?,
            None => PacketCache::new(self.cache_size),
        };
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.counters(), plain.as_deref())
    }

    // Bare sizes, like the encoder's.
    fn stats(&self, _key: &HeaderFieldList) -> StateStats {
        StateStats {
            shared_support_bytes: codec::encoded_len(&self.cache),
            shared_report_bytes: 3 * 8,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, _now: SimTime, pkt: &Packet, fx: &mut Effects) {
        match decode_tokens(&self.cache, &pkt.payload) {
            Ok(original) => {
                // Lockstep append: identical to what the encoder appended.
                if original.len() >= MIN_ENCODE {
                    self.cache.append(&original);
                    self.sync.on_shared_update(pkt, fx);
                }
                self.packets_decoded += 1;
                let mut out = pkt.clone();
                out.payload = Bytes::from(original);
                fx.forward(out);
            }
            Err(lost) => {
                self.packets_undecodable += 1;
                self.bytes_undecodable += lost as u64;
                fx.log("re.log", format!("undecodable packet {} ({} bytes)", pkt.id, lost));
                // The packet cannot be reconstructed; it is dropped.
            }
        }
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::re_like()
    }

    fn perflow_entries(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn pkt(id: u64, payload: Vec<u8>) -> Packet {
        let key = openmb_types::FlowKey::tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            40000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        );
        Packet::new(id, key, payload)
    }

    fn redundant_payload(seed: u8) -> Vec<u8> {
        // 600 bytes with strong internal structure.
        format!(
            "HTTP/1.1 200 OK\r\nServer: apache\r\nContent-Type: text/html\r\n\r\n\
             <html><body>page {seed} {}</body></html>",
            "lorem ipsum dolor sit amet consectetur adipiscing elit ".repeat(8)
        )
        .into_bytes()
    }

    /// Run a packet through encoder then decoder; return decoded payload.
    fn roundtrip_once(enc: &mut ReEncoder, dec: &mut ReDecoder, p: Packet) -> Option<Packet> {
        let mut fx = Effects::normal();
        enc.process_packet(SimTime(0), &p, &mut fx);
        let encoded = fx.take_output().unwrap();
        let mut fx2 = Effects::normal();
        dec.process_packet(SimTime(0), &encoded, &mut fx2);
        fx2.take_output()
    }

    #[test]
    fn first_packet_passes_and_caches() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut dec = ReDecoder::new(1 << 16);
        let p = pkt(1, redundant_payload(1));
        let out = roundtrip_once(&mut enc, &mut dec, p.clone()).unwrap();
        assert_eq!(out.payload, p.payload);
        assert_eq!(enc.cache(0).total(), dec.cache().total(), "caches in lockstep");
    }

    #[test]
    fn repeated_content_is_compressed_and_reconstructed() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut dec = ReDecoder::new(1 << 16);
        let body = redundant_payload(7);
        let _ = roundtrip_once(&mut enc, &mut dec, pkt(1, body.clone())).unwrap();
        // Second packet with the same content: heavy shim usage.
        let mut fx = Effects::normal();
        enc.process_packet(SimTime(1), &pkt(2, body.clone()), &mut fx);
        let encoded = fx.take_output().unwrap();
        assert!(
            encoded.payload.len() < body.len() / 2,
            "redundant packet should shrink: {} vs {}",
            encoded.payload.len(),
            body.len()
        );
        assert!(enc.bytes_saved > 0);
        let mut fx2 = Effects::normal();
        dec.process_packet(SimTime(1), &encoded, &mut fx2);
        let out = fx2.take_output().unwrap();
        assert_eq!(out.payload, Bytes::from(body));
        assert_eq!(dec.packets_undecodable, 0);
    }

    #[test]
    fn desynchronized_decoder_cannot_decode() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut warm_dec = ReDecoder::new(1 << 16);
        let body = redundant_payload(3);
        let _ = roundtrip_once(&mut enc, &mut warm_dec, pkt(1, body.clone())).unwrap();
        // A fresh decoder (empty cache) receives the shim-bearing packet.
        let mut fx = Effects::normal();
        enc.process_packet(SimTime(1), &pkt(2, body), &mut fx);
        let encoded = fx.take_output().unwrap();
        let mut cold_dec = ReDecoder::new(1 << 16);
        let mut fx2 = Effects::normal();
        cold_dec.process_packet(SimTime(1), &encoded, &mut fx2);
        assert!(fx2.take_output().is_none(), "must drop undecodable packet");
        assert_eq!(cold_dec.packets_undecodable, 1);
        assert!(cold_dec.bytes_undecodable > 0);
    }

    #[test]
    fn clone_support_brings_decoder_in_sync() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut dec = ReDecoder::new(1 << 16);
        let body = redundant_payload(5);
        let _ = roundtrip_once(&mut enc, &mut dec, pkt(1, body.clone())).unwrap();
        // Clone the warm decoder's cache into a new decoder.
        let chunk = dec.get_support_shared(OpId(1)).unwrap().unwrap();
        let mut new_dec = ReDecoder::new(1 << 16);
        new_dec.put_support_shared(chunk).unwrap();
        assert_eq!(dec.cache(), new_dec.cache());
        // The new decoder can decode shims against the cloned history.
        let mut fx = Effects::normal();
        enc.process_packet(SimTime(2), &pkt(2, body.clone()), &mut fx);
        let encoded = fx.take_output().unwrap();
        let mut fx2 = Effects::normal();
        new_dec.process_packet(SimTime(2), &encoded, &mut fx2);
        assert_eq!(fx2.take_output().unwrap().payload, Bytes::from(body));
    }

    #[test]
    fn a_cache_with_trailing_bytes_is_refused() {
        let mut enc = ReEncoder::new(1 << 10);
        let mut dec = ReDecoder::new(1 << 10);
        let _ = roundtrip_once(&mut enc, &mut dec, pkt(1, redundant_payload(3))).unwrap();
        for chunk in [enc.get_support_shared(OpId(1)), dec.get_support_shared(OpId(2))] {
            let chunk = chunk.unwrap().unwrap();
            let longer = crate::rows::with_trailing_byte("re", &chunk);
            let put = ReDecoder::new(1 << 10).put_support_shared(longer.clone());
            assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
            let put = ReEncoder::new(1 << 10).put_support_shared(longer);
            assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
            assert!(ReDecoder::new(1 << 10).put_support_shared(chunk).is_ok());
        }
    }

    #[test]
    fn put_onto_warm_decoder_is_rejected() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut dec = ReDecoder::new(1 << 16);
        let _ = roundtrip_once(&mut enc, &mut dec, pkt(1, redundant_payload(1)));
        let chunk = dec.get_support_shared(OpId(1)).unwrap().unwrap();
        let mut warm = ReDecoder::new(1 << 16);
        // Warm it directly with a raw (unencoded) packet so its cache is
        // non-empty and diverged.
        let mut fxw = Effects::normal();
        warm.process_packet(SimTime(0), &pkt(2, redundant_payload(2)), &mut fxw);
        assert!(warm.cache().total() > 0);
        assert!(matches!(warm.put_support_shared(chunk), Err(Error::MergeNotPermitted(_))));
    }

    #[test]
    fn num_caches_clones_original() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut dec = ReDecoder::new(1 << 16);
        let _ = roundtrip_once(&mut enc, &mut dec, pkt(1, redundant_payload(9)));
        enc.set_config(&HierarchicalKey::parse("NumCaches"), vec![ConfigValue::Int(2)]).unwrap();
        assert_eq!(enc.cache(0), enc.cache(1), "new cache is a clone of cache 0");
    }

    #[test]
    fn cache_flows_select_cache_by_dst_prefix() {
        let mut enc = ReEncoder::new(1 << 16);
        enc.set_config(&HierarchicalKey::parse("NumCaches"), vec![ConfigValue::Int(2)]).unwrap();
        enc.set_config(
            &HierarchicalKey::parse("CacheFlows"),
            vec![ConfigValue::Str("10.0.0.0/24".into()), ConfigValue::Str("10.0.1.0/24".into())],
        )
        .unwrap();
        let mut p = pkt(1, redundant_payload(1));
        p.key.dst_ip = Ipv4Addr::new(10, 0, 1, 5);
        assert_eq!(enc.select_cache(&p), 1);
        p.key.dst_ip = Ipv4Addr::new(10, 0, 0, 5);
        assert_eq!(enc.select_cache(&p), 0);
    }

    #[test]
    fn ring_wraparound_evicts_old_content() {
        let mut c = PacketCache::new(64);
        let off = c.append(&[1u8; 40]);
        assert!(c.in_window(off, 40));
        c.append(&[2u8; 40]);
        assert!(!c.in_window(off, 40), "first append partially evicted");
        assert_eq!(c.read(40, 40), Some(vec![2u8; 40]));
    }

    #[test]
    fn cache_serialization_roundtrip() {
        let mut c = PacketCache::new(128);
        c.append(b"the quick brown fox jumps over the lazy dog");
        let rt: PacketCache = state::decode(&codec::encode(&c)).unwrap();
        assert_eq!(c, rt);
    }

    #[test]
    fn short_payloads_bypass_encoding() {
        let mut enc = ReEncoder::new(1 << 16);
        let mut fx = Effects::normal();
        let p = pkt(1, b"tiny".to_vec());
        enc.process_packet(SimTime(0), &p, &mut fx);
        assert_eq!(fx.take_output().unwrap().payload, p.payload);
        assert_eq!(enc.packets_encoded, 0);
        assert_eq!(enc.cache(0).total(), 0);
    }

    #[test]
    fn clone_events_raised_during_sync_window() {
        let mut enc = ReEncoder::new(1 << 16);
        let _ = enc.get_support_shared(OpId(5)).unwrap();
        let mut fx = Effects::normal();
        enc.process_packet(SimTime(0), &pkt(1, redundant_payload(1)), &mut fx);
        assert_eq!(fx.take_events().len(), 1);
        enc.end_sync(OpId(5));
        let mut fx2 = Effects::normal();
        enc.process_packet(SimTime(1), &pkt(2, redundant_payload(2)), &mut fx2);
        assert!(fx2.take_events().is_empty());
    }
}
