//! A passive asset/service monitor — the PRADS [10] stand-in.
//!
//! §7 of the paper: "PRADS maintains a connection object for each flow as
//! well as a `prads_stat` object that is shared across all flows." We
//! reproduce that structure: per-flow **reporting** state
//! ([`AssetRecord`], one per connection, detected service + OS guess +
//! packet/byte counters) and shared **reporting** state ([`MonitorStat`],
//! whole-MB counters merged additively on consolidation: "we add the
//! counter values stored in the `prads_stat` structure provided in the
//! put call to the counter values ... already residing at the PRADS
//! instance").
//!
//! Configuration state: `service_rules/<name>` (port → service label)
//! and the `params/os_fingerprinting` toggle, exercising the
//! hierarchical config API. Packets read them compiled, never from the
//! tree.

use std::collections::HashMap;

use openmb_mb::{
    state, CostModel, Effects, Middlebox, Record, Sealer, SharedSnapshot, SyncTracker,
};
use openmb_simnet::SimTime;
use openmb_types::codec::Label;
use openmb_types::wire::{ChunkClass, Event};
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList,
    HierarchicalKey, OpId, Packet, Proto, Result, StateChunk, StateStats,
};

/// Introspection event code: a new asset (flow endpoint + service) was
/// detected (§4.2.2: "points in internal MB logic where information is
/// written to a log file are likely places for triggering events").
pub const EVENT_ASSET_DETECTED: u32 = 101;

/// Per-flow reporting record (the `connection` object of PRADS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssetRecord {
    pub key: FlowKey,
    pub first_seen_ns: u64,
    pub last_seen_ns: u64,
    pub packets: u64,
    pub bytes: u64,
    /// Identified service ("http", "dns", "unknown", ...).
    pub service: Label,
    /// Crude OS guess derived from header heuristics.
    pub os_guess: Label,
    /// HTTP request count (service-specific detail).
    pub http_requests: u64,
}

record! {
    AssetRecord as "an asset record" {
        key,
        first_seen_ns,
        last_seen_ns,
        packets,
        bytes,
        service,
        os_guess,
        http_requests
    }
}

impl Record for AssetRecord {}

/// Shared reporting state (the `prads_stat` struct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorStat {
    pub total_packets: u64,
    pub total_bytes: u64,
    pub tcp_packets: u64,
    pub udp_packets: u64,
    pub icmp_packets: u64,
    pub http_requests: u64,
    pub flows_seen: u64,
}

impl MonitorStat {
    /// The counters in wire order.
    fn counters(&mut self) -> [&mut u64; 7] {
        [
            &mut self.total_packets,
            &mut self.total_bytes,
            &mut self.tcp_packets,
            &mut self.udp_packets,
            &mut self.icmp_packets,
            &mut self.http_requests,
            &mut self.flows_seen,
        ]
    }
}

/// What packets need from the config tree, parsed when it is written.
#[derive(Clone)]
struct Compiled {
    /// `service_rules/<name>` → ports, in `subkeys` order: the first
    /// rule naming either port of a flow classifies it.
    services: Vec<(Label, Vec<i64>)>,
    /// `params/os_fingerprinting`.
    os_fingerprinting: bool,
}

impl Compiled {
    /// The service a new flow is recorded under.
    fn classify(&self, key: &FlowKey) -> Label {
        for (name, ports) in &self.services {
            for &port in ports {
                if i64::from(key.dst_port) == port || i64::from(key.src_port) == port {
                    return name.clone();
                }
            }
        }
        Label::new("unknown")
    }

    /// Deterministic heuristic stand-in for p0f-style matching; empty
    /// while fingerprinting is off.
    fn os_fingerprint(&self, pkt: &Packet) -> Label {
        if !self.os_fingerprinting {
            return Label::default();
        }
        Label::new(match pkt.key.src_ip.octets()[3] % 3 {
            0 => "Linux",
            1 => "Windows",
            _ => "BSD",
        })
    }
}

/// The monitor middlebox.
#[derive(Clone)]
pub struct Monitor {
    config: ConfigTree,
    /// [`Monitor::compile_config`] of `config`.
    compiled: Compiled,
    /// Per-flow reporting state, keyed canonically (bidirectional).
    assets: HashMap<FlowKey, AssetRecord>,
    stat: MonitorStat,
    sync: SyncTracker,
    sealer: Sealer,
    /// Introspection-event generation gate (None = disabled).
    pub introspection: Option<openmb_types::wire::EventFilter>,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A monitor with the default service-rule configuration.
    pub fn new() -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("service_rules/http"),
            vec![ConfigValue::Int(80), ConfigValue::Int(8080)],
        );
        config.set(&HierarchicalKey::parse("service_rules/https"), vec![ConfigValue::Int(443)]);
        config.set(&HierarchicalKey::parse("service_rules/dns"), vec![ConfigValue::Int(53)]);
        config.set(&HierarchicalKey::parse("service_rules/ssh"), vec![ConfigValue::Int(22)]);
        config.set(
            &HierarchicalKey::parse("params/os_fingerprinting"),
            vec![ConfigValue::Bool(true)],
        );
        Monitor {
            compiled: Self::compile_config(&config),
            config,
            assets: HashMap::new(),
            stat: MonitorStat::default(),
            sync: SyncTracker::new(),
            sealer: Sealer::new("prads"),
            introspection: None,
        }
    }

    /// Every writer of `config` ends by storing this, so packets never
    /// parse it.
    fn compile_config(config: &ConfigTree) -> Compiled {
        let rules = HierarchicalKey::parse("service_rules");
        let services = config
            .subkeys(&rules)
            .into_iter()
            .map(|name| {
                let ports = config
                    .get_leaf(&rules.child(&name))
                    .map(|vals| vals.iter().filter_map(ConfigValue::as_int).collect())
                    .unwrap_or_default();
                (Label::new(&name), ports)
            })
            .collect();
        let os_fingerprinting = config
            .get_leaf(&HierarchicalKey::parse("params/os_fingerprinting"))
            .and_then(|v| v.first().and_then(ConfigValue::as_int))
            .unwrap_or(0)
            != 0;
        Compiled { services, os_fingerprinting }
    }

    /// Read the shared counters (experiments compare these across runs).
    pub fn stat(&self) -> &MonitorStat {
        &self.stat
    }

    /// Number of reprocess events this MB has raised (experiments).
    pub fn events_raised(&self) -> u64 {
        self.sync.events_raised
    }

    /// All asset records, sorted by flow key (experiments).
    pub fn assets_sorted(&self) -> Vec<AssetRecord> {
        let mut v: Vec<AssetRecord> = self.assets.values().cloned().collect();
        v.sort_by_key(|r| r.key);
        v
    }
}

impl Middlebox for Monitor {
    fn mb_type(&self) -> &'static str {
        "prads"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        let written = if key.is_root() {
            Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: "cannot set the root key; set individual keys".into(),
            })
        } else {
            self.config.set(key, values);
            Ok(())
        };
        self.compiled = Self::compile_config(&self.config);
        written
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        let removed = self.config.remove(key);
        self.compiled = Self::compile_config(&self.config);
        removed
    }

    // The monitor keeps no supporting state: its records exist purely to
    // report observations (§3.1's Reporting role). Native granularity is
    // the full (canonical) 5-tuple, so any pattern is valid.
    fn get_report_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.assets, &self.sealer, &mut self.sync, op, key))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Report {
            let (table, sealer) = (&self.assets, &self.sealer);
            state::export_into(table, sealer, &mut self.sync, op, key, Record::encode, out);
        }
        Ok(())
    }

    fn put_report_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let rec: AssetRecord = self.sealer.open_row(&chunk.data)?;
        state::import(&mut self.assets, &mut self.sync, rec.key.canonical(), rec);
        Ok(())
    }

    fn del_report_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.assets, &mut self.sync, key, drop))
    }

    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        Ok(Some(self.sealer.seal(&state::encode_counters(self.stat.counters()))))
    }

    // §7: counters are summed on consolidation.
    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        state::merge_counters(self.stat.counters(), &self.sealer.open(&chunk)?)
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let counters = state::encode_counters(self.stat.counters());
        Ok(self.sealer.snapshot(None, Some(counters)))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.stat.counters(), plain.as_deref())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let (chunks, bytes) = state::count(&self.assets, key);
        StateStats {
            perflow_report_chunks: chunks,
            perflow_report_bytes: bytes,
            shared_report_bytes: 7 * 8 + state::SEAL_OVERHEAD,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.process_run(now, std::slice::from_ref(pkt), fx);
    }

    /// A same-flow run shares one record lookup and bumps the record and
    /// stat counters in one step; a flow is classified only when it is
    /// new, and its asset line and introspection event belong to the
    /// run's first packet.
    fn process_run(&mut self, now: SimTime, run: &[Packet], fx: &mut Effects) {
        let flow = run[0].key;
        let key = flow.canonical();
        let n = run.len() as u64;
        let bytes: u64 = run.iter().map(|pkt| pkt.wire_len() as u64).sum();
        let http = run.iter().filter(|pkt| pkt.meta.http_request).count() as u64;

        let mut new_service = None;
        if let Some(rec) = self.assets.get_mut(&key) {
            rec.last_seen_ns = now.0;
            rec.packets += n;
            rec.bytes += bytes;
            rec.http_requests += http;
        } else {
            let service = self.compiled.classify(&flow);
            let rec = AssetRecord {
                key,
                first_seen_ns: now.0,
                last_seen_ns: now.0,
                packets: n,
                bytes,
                service: service.clone(),
                os_guess: self.compiled.os_fingerprint(&run[0]),
                http_requests: http,
            };
            self.assets.insert(key, rec);
            new_service = Some(service);
        }

        // Shared counters. Shared reporting state is never cloned or
        // replayed (§4.1.3: double reporting): a replayed packet was
        // already counted at the source, whose counters remain there (or
        // arrive via merge); only the *moved* per-flow record needs the
        // update.
        if !fx.is_replay() {
            self.stat.total_packets += n;
            self.stat.total_bytes += bytes;
            match flow.proto {
                Proto::Tcp => self.stat.tcp_packets += n,
                Proto::Udp => self.stat.udp_packets += n,
                Proto::Icmp => self.stat.icmp_packets += n,
            }
            self.stat.http_requests += http;
            if let Some(service) = new_service {
                self.stat.flows_seen += 1;
                fx.log("prads.log", format!("asset {key} service={service}"));
                let gate = self
                    .introspection
                    .as_ref()
                    .is_some_and(|f| f.accepts(EVENT_ASSET_DETECTED, &key));
                if gate {
                    fx.raise(Event::Introspection {
                        code: EVENT_ASSET_DETECTED,
                        key,
                        values: vec![("service".into(), service.into())],
                    });
                }
            }
        }

        // Reprocess events: each packet updated per-flow reporting state
        // (and the shared stat — but PRADS consolidation moves shared
        // reporting state only at scale-down, never cloning it, so only
        // per-flow marks matter here).
        self.sync.on_perflow_run(key, run, fx);

        // Passive monitor: forward the packets unmodified.
        fx.forward_all(run);
    }

    fn set_introspection(&mut self, filter: Option<openmb_types::wire::EventFilter>) {
        self.introspection = filter;
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::prads_like()
    }

    fn perflow_entries(&self) -> usize {
        self.assets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_mb::{handle_southbound_logged, SharedPutLog};
    use openmb_store::{ContentStore, FileContentStore, MemoryContentStore};
    use openmb_types::wire::Message;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn http_pkt(id: u64, src_last: u8) -> Packet {
        let key = FlowKey::tcp(
            ip(10, 0, 0, src_last),
            40000 + u16::from(src_last),
            ip(192, 168, 1, 1),
            80,
        );
        let mut p = Packet::new(id, key, b"GET / HTTP/1.1".to_vec());
        p.meta.http_request = true;
        p
    }

    #[test]
    fn records_and_counters_update() {
        let mut m = Monitor::new();
        let mut fx = Effects::normal();
        m.process_packet(SimTime(0), &http_pkt(1, 1), &mut fx);
        m.process_packet(SimTime(10), &http_pkt(2, 1), &mut fx);
        m.process_packet(SimTime(20), &http_pkt(3, 2), &mut fx);
        assert_eq!(m.perflow_entries(), 2);
        assert_eq!(m.stat().total_packets, 3);
        assert_eq!(m.stat().flows_seen, 2);
        assert_eq!(m.stat().http_requests, 3);
        let recs = m.assets_sorted();
        assert_eq!(recs[0].service, "http");
    }

    #[test]
    fn an_asset_record_with_trailing_bytes_is_refused() {
        let mut src = Monitor::new();
        src.process_packet(SimTime(0), &http_pkt(1, 1), &mut Effects::normal());
        let rec = src.assets_sorted().pop().unwrap();
        let honest = openmb_types::codec::encode(&rec);
        let put = |plain: &[u8]| {
            let chunk = Sealer::new("prads").seal(plain);
            Monitor::new()
                .put_report_perflow(StateChunk::new(HeaderFieldList::exact(rec.key), chunk))
        };
        assert!(put(&honest).is_ok());
        let trailing = [&honest[..], &[0]].concat();
        assert!(matches!(put(&trailing), Err(Error::MalformedChunk(_))));
    }

    /// A source holding three flows, the content of its one run, and a
    /// repeat move's reference to that run.
    fn three_flows_and_their_reference(
    ) -> (Monitor, Arc<[u8]>, openmb_store::ContentHash, HeaderFieldList, Message) {
        let mut src = Monitor::new();
        for i in 1..=3 {
            src.process_packet(SimTime(0), &http_pkt(u64::from(i), i), &mut Effects::normal());
        }
        let chunks = src.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        let (first, rest) = chunks.split_first().unwrap();
        let content: Arc<[u8]> = openmb_types::wire::run_content(&first.data, rest).into();
        let hash = openmb_store::content_hash(&content);
        let reference = Message::ChunkRef {
            op: OpId(2),
            class: ChunkClass::Report,
            key: first.key,
            hash,
            rest: rest.iter().map(|c| c.key).collect(),
        };
        (src, content, hash, first.key, reference)
    }

    /// A repeat move's reference against either store: a stored run is
    /// applied from the bytes `get` returns; the same hash filed over
    /// other bytes fails the re-hash and is asked for (`ChunkNeed`).
    #[test]
    fn chunk_refs_apply_stored_runs_and_need_poisoned_ones() {
        let (src, content, hash, first_key, reference) = three_flows_and_their_reference();
        let dir = std::env::temp_dir().join(format!("openmb-monitor-ref-{}", std::process::id()));
        let stores: [Arc<dyn ContentStore>; 2] =
            [Arc::new(MemoryContentStore::new()), Arc::new(FileContentStore::open(&dir).unwrap())];
        for store in stores {
            let mut log = SharedPutLog::with_store(Arc::clone(&store));
            let mut put = |store_as: Arc<[u8]>| {
                store.insert_unchecked(hash, store_as);
                let mut dst = Monitor::new();
                let reply =
                    handle_southbound_logged(&mut dst, &mut log, reference.clone(), SimTime(5));
                (reply, dst.assets_sorted())
            };
            let (reply, landed) = put(content.clone());
            assert_eq!(reply, [Message::PutAck { op: OpId(2), key: Some(first_key) }], "{store:?}");
            assert_eq!(landed, src.assets_sorted());
            let (reply, landed) = put(b"poison"[..].into());
            assert_eq!(reply, [Message::ChunkNeed { op: OpId(2), hash }], "{store:?}");
            assert!(landed.is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file entry cut short on disk reads back as what is there, so
    /// the re-hash fails and the reference is asked for (`ChunkNeed`):
    /// nothing of the partial run is applied.
    #[test]
    fn a_truncated_file_entry_degrades_to_a_chunk_need() {
        let (_, content, hash, _, reference) = three_flows_and_their_reference();
        let dir = std::env::temp_dir().join(format!("openmb-monitor-cut-{}", std::process::id()));
        let store = Arc::new(FileContentStore::open(&dir).unwrap());
        store.insert_unchecked(hash, content.clone());
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        let [entry] = &entries[..] else { panic!("{entries:?}") };
        let file = std::fs::OpenOptions::new().write(true).open(entry).unwrap();
        file.set_len(content.len() as u64 - 1).unwrap();
        drop(file);
        assert_eq!(store.get(&hash).as_deref(), Some(&content[..content.len() - 1]));

        let mut log = SharedPutLog::with_store(store);
        let mut dst = Monitor::new();
        let reply = handle_southbound_logged(&mut dst, &mut log, reference, SimTime(5));
        assert_eq!(reply, [Message::ChunkNeed { op: OpId(2), hash }]);
        assert!(dst.assets_sorted().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Labels take a `String`'s room: the record is no larger than with
    /// `String` fields.
    #[test]
    fn an_asset_record_is_no_larger_than_with_strings() {
        #[allow(dead_code)]
        struct WithStrings {
            key: FlowKey,
            counters: [u64; 5],
            service: String,
            os_guess: String,
        }
        let size = std::mem::size_of::<AssetRecord>();
        assert!(size <= std::mem::size_of::<WithStrings>(), "{size} bytes");
    }

    #[test]
    fn bidirectional_packets_hit_same_record() {
        let mut m = Monitor::new();
        let mut fx = Effects::normal();
        let p = http_pkt(1, 1);
        let mut rev = p.clone();
        rev.key = p.key.reversed();
        m.process_packet(SimTime(0), &p, &mut fx);
        m.process_packet(SimTime(1), &rev, &mut fx);
        assert_eq!(m.perflow_entries(), 1);
        assert_eq!(m.assets_sorted()[0].packets, 2);
    }

    #[test]
    fn move_roundtrip_preserves_records() {
        let mut src = Monitor::new();
        let mut dst = Monitor::new();
        let mut fx = Effects::normal();
        for i in 0..5 {
            src.process_packet(SimTime(i), &http_pkt(i, i as u8 + 1), &mut fx);
        }
        let chunks = src.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert_eq!(chunks.len(), 5);
        for c in chunks {
            dst.put_report_perflow(c).unwrap();
        }
        assert_eq!(src.assets_sorted(), dst.assets_sorted());
        let n = src.del_report_perflow(&HeaderFieldList::any()).unwrap();
        assert_eq!(n, 5);
        assert_eq!(src.perflow_entries(), 0);
    }

    #[test]
    fn moved_state_raises_reprocess_event() {
        let mut m = Monitor::new();
        let mut fx = Effects::normal();
        m.process_packet(SimTime(0), &http_pkt(1, 1), &mut fx);
        let _ = m.get_report_perflow(OpId(9), &HeaderFieldList::any()).unwrap();
        let mut fx2 = Effects::normal();
        m.process_packet(SimTime(1), &http_pkt(2, 1), &mut fx2);
        let events = fx2.take_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Reprocess { op: OpId(9), .. }));
        m.end_sync(OpId(9));
        let mut fx3 = Effects::normal();
        m.process_packet(SimTime(2), &http_pkt(3, 1), &mut fx3);
        assert!(fx3.take_events().is_empty());
    }

    #[test]
    fn shared_report_merges_additively() {
        let mut a = Monitor::new();
        let mut b = Monitor::new();
        let mut fx = Effects::normal();
        a.process_packet(SimTime(0), &http_pkt(1, 1), &mut fx);
        a.process_packet(SimTime(1), &http_pkt(2, 1), &mut fx);
        b.process_packet(SimTime(2), &http_pkt(3, 9), &mut fx);
        let chunk = a.get_report_shared().unwrap().unwrap();
        b.put_report_shared(chunk).unwrap();
        assert_eq!(b.stat().total_packets, 3);
        assert_eq!(b.stat().flows_seen, 2);
    }

    #[test]
    fn config_clone_via_wildcard() {
        let mut a = Monitor::new();
        a.set_config(&HierarchicalKey::parse("service_rules/gopher"), vec![ConfigValue::Int(70)])
            .unwrap();
        let values = a.get_config(&HierarchicalKey::parse("*")).unwrap();
        let mut b = Monitor::new();
        b.del_config(&HierarchicalKey::parse("service_rules")).unwrap();
        for (k, v) in values {
            b.set_config(&k, v).unwrap();
        }
        assert_eq!(
            b.get_config(&HierarchicalKey::parse("service_rules/gopher")).unwrap(),
            a.get_config(&HierarchicalKey::parse("service_rules/gopher")).unwrap()
        );
    }

    /// One new flow (source `10.0.1.<src>`, destination port `dport`)
    /// through the serial or the batch path: its `service=` label in
    /// prads.log and its record's `os_guess`.
    fn first_sight(m: &mut Monitor, batch: bool, src: u8, dport: u16) -> (String, String) {
        let key = FlowKey::tcp(ip(10, 0, 1, src), 5000, ip(192, 168, 1, 1), dport);
        let pkt = Packet::new(u64::from(src), key, b"x".to_vec());
        let mut fx = Effects::normal();
        if batch {
            m.process_batch(SimTime(0), &[pkt.clone(), pkt], &mut fx);
        } else {
            m.process_packet(SimTime(0), &pkt, &mut fx);
        }
        let logs = fx.take_logs();
        assert_eq!(logs.len(), 1, "one asset line per new flow");
        let service = logs[0].line.rsplit_once("service=").expect("asset line").1.to_owned();
        (service, m.assets[&key.canonical()].os_guess.to_string())
    }

    #[test]
    fn config_writes_reach_the_next_new_flow() {
        let key = HierarchicalKey::parse;
        let fingerprint = "params/os_fingerprinting";
        let linux = |s: &str| (s.to_owned(), "Linux".to_owned());
        let blind = |s: &str| (s.to_owned(), String::new());
        for batch in [false, true] {
            let mut m = Monitor::new();
            // Sources 10.0.1.3, .6, .9, ... all fingerprint as Linux.
            let mut src = 0;
            let mut sight = |m: &mut Monitor, dport| {
                src += 3;
                first_sight(m, batch, src, dport)
            };
            assert_eq!(sight(&mut m, 70), linux("unknown"));

            m.set_config(&key("service_rules/gopher"), vec![ConfigValue::Int(70)]).unwrap();
            assert_eq!(sight(&mut m, 70), linux("gopher"));
            m.set_config(&key("service_rules/http"), vec![ConfigValue::Int(8081)]).unwrap();
            assert_eq!(sight(&mut m, 80), linux("unknown"));
            assert_eq!(sight(&mut m, 8081), linux("http"));

            m.set_config(&key(fingerprint), vec![ConfigValue::Bool(false)]).unwrap();
            assert_eq!(sight(&mut m, 70), blind("gopher"));
            m.set_config(&key(fingerprint), vec![ConfigValue::Bool(true)]).unwrap();
            assert_eq!(sight(&mut m, 70), linux("gopher"));
            m.del_config(&key(fingerprint)).unwrap();
            assert_eq!(sight(&mut m, 70), blind("gopher"));
            m.del_config(&key("service_rules/gopher")).unwrap();
            assert_eq!(sight(&mut m, 70), blind("unknown"));

            // Refused writes leave the compiled table as it was.
            assert!(m.set_config(&key("*"), vec![ConfigValue::Int(1)]).is_err());
            assert!(m.del_config(&key(fingerprint)).is_err());
            assert_eq!(sight(&mut m, 8081), blind("http"));

            // A clone classifies the same way.
            let mut c = m.clone();
            for (i, dport) in [22, 53, 70, 80, 443, 8080, 8081].into_iter().enumerate() {
                let src = 200 + i as u8;
                let want = first_sight(&mut m, batch, src, dport);
                assert_eq!(first_sight(&mut c, batch, src, dport), want, "port {dport}");
            }

            // Reads still come from the tree, as written.
            let int = |v: i64| vec![ConfigValue::Int(v)];
            assert_eq!(
                m.get_config(&key("*")).unwrap(),
                vec![
                    (key("service_rules/dns"), int(53)),
                    (key("service_rules/http"), int(8081)),
                    (key("service_rules/https"), int(443)),
                    (key("service_rules/ssh"), int(22)),
                ]
            );
        }
    }

    #[test]
    fn foreign_chunks_rejected() {
        let mut m = Monitor::new();
        let key = FlowKey::tcp(ip(1, 1, 1, 1), 1, ip(2, 2, 2, 2), 80);
        let chunk =
            StateChunk::new(HeaderFieldList::exact(key), Sealer::new("bro").seal(b"not ours"));
        assert!(matches!(m.put_report_perflow(chunk), Err(Error::MalformedChunk(_))));
    }

    #[test]
    fn introspection_event_on_new_asset() {
        let mut m = Monitor::new();
        m.introspection = Some(openmb_types::wire::EventFilter::all());
        let mut fx = Effects::normal();
        m.process_packet(SimTime(0), &http_pkt(1, 1), &mut fx);
        let evs = fx.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::Introspection { code: EVENT_ASSET_DETECTED, .. })));
    }

    #[test]
    fn stats_report_matching_state() {
        let mut m = Monitor::new();
        let mut fx = Effects::normal();
        for i in 0..4 {
            m.process_packet(SimTime(i), &http_pkt(i, i as u8 + 1), &mut fx);
        }
        let s = m.stats(&HeaderFieldList::any());
        assert_eq!(s.perflow_report_chunks, 4);
        assert!(s.perflow_report_bytes > 0);
        assert!(s.shared_report_bytes > 0);
        // Narrow key matches fewer.
        let narrow =
            HeaderFieldList::from_src_subnet(openmb_types::IpPrefix::new(ip(10, 0, 0, 1), 32));
        assert_eq!(m.stats(&narrow).perflow_report_chunks, 1);
    }
}
