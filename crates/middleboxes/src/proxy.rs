//! A caching HTTP proxy — the Squid [13] stand-in.
//!
//! The proxy exists to exercise the §4.1.2 shared-state *merge* example
//! verbatim: "if two content caches ... are being merged, the MB may
//! require extra meta-data (e.g. hit counts) for each cache entry to
//! determine from which piece of state a particular entry should be
//! retained." Our object cache stores a hit count per entry; merging two
//! caches under a capacity bound keeps the hottest entries from either
//! side.
//!
//! State classes:
//! * **per-flow supporting**: in-flight request parsing state per
//!   connection;
//! * **shared supporting**: the object cache (URL → size, hit count) —
//!   cloned on subset-moves, hit-count-merged on consolidation;
//! * **shared reporting**: request/hit/miss counters, additive merge.

use std::collections::{BTreeMap, HashMap};

use openmb_mb::{
    state, CostModel, Effects, Middlebox, Record, Sealer, SharedSnapshot, SyncTracker,
};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::codec::{self, Field, Sink};
use openmb_types::wire::ChunkClass;
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList,
    HierarchicalKey, OpId, Packet, Result, StateChunk, StateStats,
};

/// One cached object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheObject {
    pub url: String,
    pub size: u32,
    /// The §4.1.2 merge meta-data.
    pub hits: u64,
}

/// A cached object's size and hits; its URL is its key in the [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cached {
    pub(crate) size: u32,
    pub(crate) hits: u64,
}

/// The object cache (shared supporting state), URL → object: it travels
/// as its objects in URL order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Cache(pub(crate) BTreeMap<String, Cached>);

/// Per-connection request-parsing state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnState {
    /// Bytes of a request line split across packets.
    pub partial: Vec<u8>,
    pub requests: u64,
}

record! {
    ConnState { partial, requests }
    Cached { size, hits }
    Cache { 0 [10_000_000, "absurd cache size"] }
}

/// A connection's state does not hold its key: it travels as the pair
/// `(key, state)`.
impl Record for ConnState {
    fn encode<S: Sink>(&self, key: &FlowKey, s: &mut S) {
        key.put(s);
        self.put(s);
    }
}

/// The caching proxy middlebox.
#[derive(Clone)]
pub struct Proxy {
    config: ConfigTree,
    conns: HashMap<FlowKey, ConnState>,
    cache: Cache,
    sync: SyncTracker,
    sealer: Sealer,
    /// Shared reporting counters.
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
}

impl Default for Proxy {
    fn default() -> Self {
        Self::new(256)
    }
}

impl Proxy {
    /// A proxy caching up to `capacity` objects.
    pub fn new(capacity: usize) -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("params/cache_capacity"),
            vec![ConfigValue::Int(capacity as i64)],
        );
        Proxy {
            config,
            conns: HashMap::new(),
            cache: Cache::default(),
            sync: SyncTracker::new(),
            sealer: Sealer::new("squid"),
            requests: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The shared reporting counters, in wire order.
    fn counters(&mut self) -> [&mut u64; 3] {
        [&mut self.requests, &mut self.hits, &mut self.misses]
    }

    fn capacity(&self) -> usize {
        self.config
            .get_leaf(&HierarchicalKey::parse("params/cache_capacity"))
            .and_then(|v| v.first().and_then(ConfigValue::as_int))
            .unwrap_or(256)
            .max(1) as usize
    }

    /// Evict the coldest entries until the cache fits its capacity.
    fn enforce_capacity(&mut self) {
        let cap = self.capacity();
        while self.cache.0.len() > cap {
            let coldest = self
                .cache
                .0
                .iter()
                .min_by_key(|(url, o)| (o.hits, *url))
                .map(|(url, _)| url.clone())
                .expect("cache non-empty");
            self.cache.0.remove(&coldest);
        }
    }

    /// Merge another instance's cache into this one.
    fn merge_cache(&mut self, other: Cache) {
        for (url, theirs) in other.0 {
            // The §4.1.2 rule: on collision, keep the entry with more
            // hits (sum would double-count a shared history; these are
            // independent observations of the same object).
            let ours = self.cache.0.entry(url).or_insert(theirs);
            if theirs.hits > ours.hits {
                *ours = theirs;
            }
        }
        self.enforce_capacity();
    }

    /// Cached objects sorted by URL (tests/experiments).
    pub fn cache_sorted(&self) -> Vec<CacheObject> {
        let object = |(url, o): (&String, &Cached)| CacheObject {
            url: url.clone(),
            size: o.size,
            hits: o.hits,
        };
        self.cache.0.iter().map(object).collect()
    }

    /// Number of cached objects.
    pub fn cache_len(&self) -> usize {
        self.cache.0.len()
    }
}

impl Middlebox for Proxy {
    fn mb_type(&self) -> &'static str {
        "squid"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        if key.to_string() == "params/cache_capacity" {
            let v = values.first().and_then(ConfigValue::as_int).unwrap_or(0);
            if v < 1 {
                return Err(Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "cache_capacity must be positive".into(),
                });
            }
        }
        self.config.set(key, values);
        self.enforce_capacity();
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)
    }

    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.conns, &self.sealer, &mut self.sync, op, key))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Support {
            let (table, sealer) = (&self.conns, &self.sealer);
            state::export_into(table, sealer, &mut self.sync, op, key, Record::encode, out);
        }
        Ok(())
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let (key, c): (FlowKey, ConnState) = self.sealer.open_row(&chunk.data)?;
        state::import(&mut self.conns, &mut self.sync, key.canonical(), c);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.conns, &mut self.sync, key, drop))
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.sync.mark_shared(op);
        Ok(Some(self.sealer.seal(&codec::encode(&self.cache))))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let other = self.sealer.open_row(&chunk)?;
        self.merge_cache(other);
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
        self.cache.0.clear();
        if let Some(c) = snap.support {
            // Merging into an empty cache reproduces it exactly.
            let cache = self.sealer.open_row(&c)?;
            self.merge_cache(cache);
        }
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.counters(), plain.as_deref())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let (chunks, bytes) = state::count(&self.conns, key);
        StateStats {
            perflow_support_chunks: chunks,
            perflow_support_bytes: bytes,
            shared_support_bytes: codec::encoded_len(&self.cache) + state::SEAL_OVERHEAD,
            shared_report_bytes: 3 * 8 + state::SEAL_OVERHEAD,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, _now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let key = pkt.key.canonical();
        let is_orig = pkt.key == key;
        let conn = self.conns.entry(key).or_default();
        // Parse complete request lines (CRLF-terminated) out of the
        // per-connection buffer first, then apply cache effects — the
        // split avoids aliasing the connection entry while mutating the
        // shared cache.
        let mut urls = Vec::new();
        if is_orig && !pkt.payload.is_empty() {
            conn.partial.extend_from_slice(&pkt.payload);
            while let Some(pos) = conn.partial.windows(2).position(|w| w == b"\r\n") {
                let line: Vec<u8> = conn.partial.drain(..pos + 2).collect();
                if let Some(url) = parse_get(&line[..line.len() - 2]) {
                    conn.requests += 1;
                    urls.push(url);
                }
            }
        }
        for url in urls {
            {
                if !fx.is_replay() {
                    self.requests += 1;
                }
                if let Some(o) = self.cache.0.get_mut(&url) {
                    o.hits += 1;
                    if !fx.is_replay() {
                        self.hits += 1;
                    }
                } else {
                    if !fx.is_replay() {
                        self.misses += 1;
                    }
                    self.cache.0.insert(url.clone(), Cached { size: 1400, hits: 0 });
                    self.enforce_capacity();
                    fx.log("proxy.log", format!("MISS {url}"));
                }
                // Cache insertion/hit updated shared state.
                self.sync.on_shared_update(pkt, fx);
            }
        }
        self.sync.on_perflow_update(key, pkt, fx);
        fx.forward(pkt.clone());
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel { per_packet: SimDuration::from_micros(60), ..CostModel::default() }
    }

    fn perflow_entries(&self) -> usize {
        self.conns.len()
    }
}

fn parse_get(line: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(line).ok()?;
    let mut toks = text.split_whitespace();
    if toks.next()? != "GET" {
        return None;
    }
    Some(toks.next()?.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn req(id: u64, sp: u16, url: &str) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), sp, Ipv4Addr::new(93, 184, 216, 34), 80);
        Packet::new(id, key, format!("GET {url} HTTP/1.1\r\n").into_bytes())
    }

    #[test]
    fn hit_miss_accounting() {
        let mut p = Proxy::new(16);
        let mut fx = Effects::normal();
        p.process_packet(SimTime(0), &req(1, 1000, "/a"), &mut fx);
        p.process_packet(SimTime(1), &req(2, 1001, "/a"), &mut fx);
        p.process_packet(SimTime(2), &req(3, 1002, "/b"), &mut fx);
        assert_eq!(p.requests, 3);
        assert_eq!(p.hits, 1);
        assert_eq!(p.misses, 2);
        assert_eq!(p.cache_len(), 2);
    }

    #[test]
    fn request_split_across_packets() {
        let mut p = Proxy::new(16);
        let mut fx = Effects::normal();
        let key =
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 2000, Ipv4Addr::new(93, 184, 216, 34), 80);
        p.process_packet(SimTime(0), &Packet::new(1, key, b"GET /split".to_vec()), &mut fx);
        assert_eq!(p.requests, 0, "incomplete request not yet counted");
        p.process_packet(SimTime(1), &Packet::new(2, key, b" HTTP/1.1\r\n".to_vec()), &mut fx);
        assert_eq!(p.requests, 1);
        assert!(p.cache_sorted().iter().any(|o| o.url == "/split"));
    }

    #[test]
    fn merge_keeps_hotter_entry_on_collision() {
        // The §4.1.2 example: hit counts decide which copy survives.
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        // /x is hot at a (3 hits), cold at b (1 hit).
        for (i, sp) in [(1u64, 1000u16), (2, 1001), (3, 1002), (4, 1003)] {
            a.process_packet(SimTime(i), &req(i, sp, "/x"), &mut fx);
        }
        b.process_packet(SimTime(0), &req(10, 2000, "/x"), &mut fx);
        b.process_packet(SimTime(1), &req(11, 2001, "/x"), &mut fx);
        b.process_packet(SimTime(2), &req(12, 2002, "/only-b"), &mut fx);
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        let merged = b.cache_sorted();
        let x = merged.iter().find(|o| o.url == "/x").unwrap();
        assert_eq!(x.hits, 3, "the hotter copy's hit count wins");
        assert!(merged.iter().any(|o| o.url == "/only-b"), "union of keys");
    }

    #[test]
    fn merge_respects_capacity_by_hits() {
        let mut a = Proxy::new(64);
        let mut b = Proxy::new(64);
        let mut fx = Effects::normal();
        // a has 3 hot objects (1 hit each); b has 2 cold objects.
        for (i, url) in ["/h1", "/h2", "/h3"].iter().enumerate() {
            a.process_packet(SimTime(i as u64), &req(i as u64, 1000 + i as u16, url), &mut fx);
            a.process_packet(
                SimTime(10 + i as u64),
                &req(10 + i as u64, 1100 + i as u16, url),
                &mut fx,
            );
        }
        b.process_packet(SimTime(0), &req(50, 2000, "/c1"), &mut fx);
        b.process_packet(SimTime(1), &req(51, 2001, "/c2"), &mut fx);
        // Consolidate into b with capacity 3: the three hot entries win.
        b.set_config(&HierarchicalKey::parse("params/cache_capacity"), vec![ConfigValue::Int(3)])
            .unwrap();
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        let urls: Vec<String> = b.cache_sorted().iter().map(|o| o.url.clone()).collect();
        assert_eq!(urls, vec!["/h1", "/h2", "/h3"], "hottest entries retained: {urls:?}");
    }

    #[test]
    fn perflow_state_moves() {
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        let key =
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 3000, Ipv4Addr::new(93, 184, 216, 34), 80);
        // Half a request at a.
        a.process_packet(SimTime(0), &Packet::new(1, key, b"GET /moved".to_vec()), &mut fx);
        for c in a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap() {
            b.put_support_perflow(c).unwrap();
        }
        a.del_support_perflow(&HeaderFieldList::any()).unwrap();
        // The second half completes at b: the partial buffer moved.
        b.process_packet(SimTime(1), &Packet::new(2, key, b" HTTP/1.1\r\n".to_vec()), &mut fx);
        assert!(b.cache_sorted().iter().any(|o| o.url == "/moved"));
    }

    #[test]
    fn a_connection_or_cache_with_trailing_bytes_is_refused() {
        let mut a = Proxy::new(16);
        let key =
            FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 3000, Ipv4Addr::new(93, 184, 216, 34), 80);
        a.process_packet(
            SimTime(0),
            &Packet::new(1, key, b"GET /a HTTP/1.1\r\nGET".to_vec()),
            &mut Effects::normal(),
        );
        let c = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap().remove(0);
        let cache = a.get_support_shared(OpId(2)).unwrap().unwrap();
        let mut b = Proxy::new(16);
        let longer = StateChunk::new(c.key, crate::rows::with_trailing_byte("squid", &c.data));
        let put = b.put_support_perflow(longer);
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        let put = b.put_support_shared(crate::rows::with_trailing_byte("squid", &cache));
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        assert_eq!(b.cache_len(), 0, "a refused cache merges nothing");
        assert!(b.put_support_perflow(c).is_ok() && b.put_support_shared(cache).is_ok());
        assert_eq!(b.cache_len(), 1);
    }

    /// The cache travels in URL order whatever order it was filled in:
    /// equal caches seal to equal bytes, so a content store can answer
    /// a repeat transfer.
    #[test]
    fn caches_filled_in_opposite_orders_seal_to_the_same_bytes() {
        let urls: Vec<String> = (0..40).map(|i| format!("/object/{}", (i * 7919) % 1000)).collect();
        let filled = |urls: &mut dyn Iterator<Item = &String>| {
            let mut p = Proxy::new(256);
            for (i, url) in urls.enumerate() {
                p.process_packet(
                    SimTime(0),
                    &req(i as u64, 1000 + i as u16, url),
                    &mut Effects::normal(),
                );
            }
            p.get_support_shared(OpId(1)).unwrap().unwrap()
        };
        assert_eq!(filled(&mut urls.iter()), filled(&mut urls.iter().rev()));
    }

    #[test]
    fn shared_report_merges_additively() {
        let mut a = Proxy::new(16);
        let mut b = Proxy::new(16);
        let mut fx = Effects::normal();
        a.process_packet(SimTime(0), &req(1, 1000, "/a"), &mut fx);
        b.process_packet(SimTime(0), &req(2, 2000, "/b"), &mut fx);
        let chunk = a.get_report_shared().unwrap().unwrap();
        b.put_report_shared(chunk).unwrap();
        assert_eq!(b.requests, 2);
        assert_eq!(b.misses, 2);
    }
}
