//! A network address/port translator.
//!
//! The NAT exists for the failure-recovery scenario of §2 (R6): its
//! address/port mappings are the canonical example of *critical* state —
//! "keep (and move upon failure) a minimal live snapshot of only critical
//! state (e.g. IP address and port mappings from a NAT), with
//! non-critical state (e.g. mapping timeouts) set to default values when
//! a failed MB instance is replaced" — and mapping creation/expiry are
//! the canonical introspection events (§4.2: "a control application may
//! be interested in knowing when a NAT has created a new IP address/port
//! mapping").
//!
//! State classes: per-flow supporting (one [`NatMapping`] per internal
//! flow), shared supporting (the external-port allocator), no reporting
//! state beyond counters embedded in mappings.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use openmb_mb::{
    state, CostModel, Effects, Middlebox, Record, Sealer, SharedSnapshot, SyncTracker,
};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::codec;
use openmb_types::wire::{ChunkClass, Event};
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList,
    HierarchicalKey, OpId, Packet, Result, StateChunk, StateStats,
};

/// Introspection event: a new mapping was created. Values carry the
/// external port assigned.
pub const EVENT_MAPPING_CREATED: u32 = 201;
/// Introspection event: a mapping expired from inactivity.
pub const EVENT_MAPPING_EXPIRED: u32 = 202;

/// One address/port translation entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NatMapping {
    /// The internal flow (private source).
    pub internal: FlowKey,
    /// The external port this flow is translated to.
    pub external_port: u16,
    /// Critical state ends here; the rest is non-critical and may be
    /// reset to defaults on failover (§2).
    pub last_used_ns: u64,
    pub packets: u64,
}

record! { NatMapping { internal, external_port, last_used_ns, packets } }

impl Record for NatMapping {
    /// Mappings are keyed by the internal flow as it was first seen, so
    /// patterns select them directionally.
    fn selected(pattern: &HeaderFieldList, key: &FlowKey) -> bool {
        pattern.matches(key)
    }
}

/// Parse "src_ip:src_port>dst_ip:dst_port" (TCP assumed).
fn parse_mapping_spec(s: &str) -> Option<FlowKey> {
    let (src, dst) = s.split_once('>')?;
    let (sip, sport) = src.split_once(':')?;
    let (dip, dport) = dst.split_once(':')?;
    Some(FlowKey::tcp(
        sip.parse().ok()?,
        sport.parse().ok()?,
        dip.parse().ok()?,
        dport.parse().ok()?,
    ))
}

/// What packets need from the config tree, parsed when it is written.
#[derive(Clone, Copy)]
struct Compiled {
    external_ip: Option<Ipv4Addr>,
    timeout: SimDuration,
    /// `port_range/start` and `/end`, both allocatable.
    ports: (u16, u16),
}

/// The NAT middlebox.
#[derive(Clone)]
pub struct Nat {
    config: ConfigTree,
    /// [`Nat::compile_config`] of `config`.
    compiled: Compiled,
    /// internal flow → mapping.
    mappings: HashMap<FlowKey, NatMapping>,
    /// external port → internal flow (reverse path).
    by_port: HashMap<u16, FlowKey>,
    /// No resident mapping has an older `last_used_ns`. A touch only
    /// moves a mapping forward, so packets leave it alone; every insert
    /// lowers it and a sweep recomputes it. While the expiry cutoff has
    /// not passed it, [`Nat::expire`] has nothing to find.
    oldest_bound_ns: u64,
    /// Shared supporting state: the port allocator cursor.
    next_port: u16,
    sync: SyncTracker,
    sealer: Sealer,
    /// Introspection-event generation gate (None = disabled).
    pub introspection: Option<openmb_types::wire::EventFilter>,
    /// Packets dropped for lack of a reverse mapping.
    pub dropped_unknown: u64,
}

impl Nat {
    /// A NAT translating to `external_ip`, allocating ports from 20000.
    pub fn new(external_ip: Ipv4Addr) -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("external_ip"),
            vec![ConfigValue::Str(external_ip.to_string())],
        );
        config.set(&HierarchicalKey::parse("port_range/start"), vec![ConfigValue::Int(20000)]);
        config.set(&HierarchicalKey::parse("port_range/end"), vec![ConfigValue::Int(60000)]);
        config.set(&HierarchicalKey::parse("mapping_timeout_ms"), vec![ConfigValue::Int(30_000)]);
        Nat {
            compiled: Self::compile_config(&config),
            config,
            mappings: HashMap::new(),
            by_port: HashMap::new(),
            oldest_bound_ns: u64::MAX,
            next_port: 20000,
            sync: SyncTracker::new(),
            sealer: Sealer::new("nat"),
            introspection: None,
            dropped_unknown: 0,
        }
    }

    /// Every writer of `config` ends by storing this, so packets never
    /// parse it.
    fn compile_config(config: &ConfigTree) -> Compiled {
        let int = |key: &str, default: i64| {
            config
                .get_leaf(&HierarchicalKey::parse(key))
                .and_then(|v| v.first().and_then(ConfigValue::as_int))
                .unwrap_or(default)
        };
        Compiled {
            external_ip: config
                .get_leaf(&HierarchicalKey::parse("external_ip"))
                .and_then(|v| v.first().and_then(ConfigValue::as_str))
                .and_then(|s| s.parse().ok()),
            timeout: SimDuration::from_millis(int("mapping_timeout_ms", 30_000).max(1) as u64),
            ports: (int("port_range/start", 20000) as u16, int("port_range/end", 60000) as u16),
        }
    }

    fn external_ip(&self) -> Ipv4Addr {
        self.compiled.external_ip.expect("external_ip always configured")
    }

    fn alloc_port(&mut self) -> u16 {
        let (start, end) = self.compiled.ports;
        for _ in 0..=(end - start) {
            let p = self.next_port;
            self.next_port = if self.next_port >= end { start } else { self.next_port + 1 };
            if !self.by_port.contains_key(&p) {
                return p;
            }
        }
        panic!("NAT port pool exhausted");
    }

    /// What the side tables hold about `m`, on its way into `mappings`:
    /// the reverse index and the expiry bound. Every insert path calls
    /// this.
    fn index_mapping(&mut self, m: &NatMapping) {
        self.by_port.insert(m.external_port, m.internal);
        self.oldest_bound_ns = self.oldest_bound_ns.min(m.last_used_ns);
    }

    /// A mapping for the outbound flow `key`, first seen at `now`, on a
    /// freshly allocated external port (returned).
    fn create_mapping(&mut self, key: FlowKey, now: SimTime) -> u16 {
        let external_port = self.alloc_port();
        let m = NatMapping { internal: key, external_port, last_used_ns: now.0, packets: 0 };
        self.index_mapping(&m);
        self.mappings.insert(key, m);
        external_port
    }

    /// Expire idle mappings (called per same-flow run, like a real NAT's
    /// timer wheel would on packet-driven ticks). The table is walked only
    /// once the cutoff has passed `oldest_bound_ns`.
    fn expire(&mut self, now: SimTime, fx: &mut Effects) {
        let cutoff = now.0.saturating_sub(self.compiled.timeout.as_nanos());
        if cutoff > self.oldest_bound_ns {
            self.sweep(cutoff, fx);
        }
        // Every touch this call goes on to make stamps `now`; only a
        // clock that stepped back makes this lower the bound.
        self.oldest_bound_ns = self.oldest_bound_ns.min(now.0);
    }

    /// Remove every mapping last used before `cutoff` and make the
    /// bound exact again.
    fn sweep(&mut self, cutoff: u64, fx: &mut Effects) {
        let mut oldest_kept = u64::MAX;
        let mut expired: Vec<FlowKey> = Vec::new();
        for m in self.mappings.values() {
            if m.last_used_ns < cutoff {
                expired.push(m.internal);
            } else {
                oldest_kept = oldest_kept.min(m.last_used_ns);
            }
        }
        self.oldest_bound_ns = oldest_kept;
        for key in expired {
            if let Some(m) = self.mappings.remove(&key) {
                self.by_port.remove(&m.external_port);
                self.sync.clear_flow(&key);
                let gate = self
                    .introspection
                    .as_ref()
                    .is_some_and(|f| f.accepts(EVENT_MAPPING_EXPIRED, &key));
                if gate {
                    fx.raise(Event::Introspection {
                        code: EVENT_MAPPING_EXPIRED,
                        key,
                        values: vec![("external_port".into(), m.external_port.to_string())],
                    });
                }
            }
        }
    }

    /// Format a mapping spec string for `static_mappings` config writes.
    pub fn mapping_spec(internal: &FlowKey) -> String {
        format!(
            "{}:{}>{}:{}",
            internal.src_ip, internal.src_port, internal.dst_ip, internal.dst_port
        )
    }

    /// Resident mappings, sorted (tests/experiments).
    pub fn mappings_sorted(&self) -> Vec<NatMapping> {
        let mut v: Vec<NatMapping> = self.mappings.values().cloned().collect();
        v.sort_by_key(|m| m.internal);
        v
    }
}

impl Middlebox for Nat {
    fn mb_type(&self) -> &'static str {
        "nat"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        // Static mappings: `static_mappings/<ext_port>` with value
        // "src_ip:src_port>dst_ip:dst_port". Written by the failure-
        // recovery application to restore critical state on a
        // replacement instance (§2: "a minimal live snapshot of only
        // critical state ... with non-critical state set to default
        // values when a failed MB instance is replaced").
        if key.segments().first().map(String::as_str) == Some("static_mappings") {
            let ext_port: u16 =
                key.segments().get(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                    Error::InvalidConfigValue {
                        key: key.to_string(),
                        reason: "static_mappings key must be static_mappings/<port>".into(),
                    }
                })?;
            let spec = values.first().and_then(|v| v.as_str()).ok_or_else(|| {
                Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "static mapping value must be a string".into(),
                }
            })?;
            let internal = parse_mapping_spec(spec).ok_or_else(|| Error::InvalidConfigValue {
                key: key.to_string(),
                reason: format!("unparseable mapping spec: {spec}"),
            })?;
            let m = NatMapping {
                internal,
                external_port: ext_port,
                // Non-critical state at defaults: fresh timestamps.
                last_used_ns: 0,
                packets: 0,
            };
            self.index_mapping(&m);
            self.mappings.insert(internal, m);
        }
        if key.to_string() == "external_ip" {
            let ok = values
                .first()
                .and_then(|v| v.as_str())
                .map(|s| s.parse::<Ipv4Addr>().is_ok())
                .unwrap_or(false);
            if !ok {
                return Err(Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "external_ip must be an IPv4 address".into(),
                });
            }
        }
        self.config.set(key, values);
        self.compiled = Self::compile_config(&self.config);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)?;
        self.compiled = Self::compile_config(&self.config);
        Ok(())
    }

    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.mappings, &self.sealer, &mut self.sync, op, key))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Support {
            let (table, sealer) = (&self.mappings, &self.sealer);
            state::export_into(table, sealer, &mut self.sync, op, key, Record::encode, out);
        }
        Ok(())
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let m: NatMapping = self.sealer.open_row(&chunk.data)?;
        self.index_mapping(&m);
        state::import(&mut self.mappings, &mut self.sync, m.internal, m);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.mappings, &mut self.sync, key, |m| {
            self.by_port.remove(&m.external_port);
        }))
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.sync.mark_shared(op);
        Ok(Some(self.sealer.seal(&codec::encode(&self.next_port))))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        let other: u16 = self.sealer.open_row(&chunk)?;
        // Merge: take the further-advanced allocator cursor to avoid
        // collisions after consolidation.
        self.next_port = self.next_port.max(other);
        Ok(())
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        Ok(self.sealer.snapshot(Some(codec::encode(&self.next_port)), None))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.next_port = match snap.support {
            Some(c) => self.sealer.open_row(&c)?,
            None => self.compiled.ports.0,
        };
        Ok(())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let (chunks, bytes) = state::count(&self.mappings, key);
        StateStats {
            perflow_support_chunks: chunks,
            perflow_support_bytes: bytes,
            shared_support_bytes: 2 + state::SEAL_OVERHEAD,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.process_run(now, std::slice::from_ref(pkt), fx);
    }

    /// A same-flow run shares one mapping lookup and one expiry sweep.
    /// Every packet of a batch carries the same `now`, so once a run has
    /// swept, a later run's sweep finds nothing the serial loop's would
    /// have: a mapping touched at `now` has `last_used_ns = now` and
    /// cannot cross the cutoff, which sits at least one timeout before
    /// `now`.
    fn process_run(&mut self, now: SimTime, run: &[Packet], fx: &mut Effects) {
        self.expire(now, fx);
        let flow = run[0].key;
        let n = run.len() as u64;
        let ext_ip = self.external_ip();
        if flow.dst_ip == ext_ip {
            // Inbound: translate external port back to the internal flow.
            let Some(internal) = self.by_port.get(&flow.dst_port).copied() else {
                // The drop counter advances in replay too: only the log
                // line is an external side effect.
                self.dropped_unknown += n;
                let line = format!("{} drop inbound to unknown port {}", now.0, flow.dst_port);
                for _ in run {
                    fx.log("nat.log", line.clone());
                }
                return;
            };
            if let Some(m) = self.mappings.get_mut(&internal) {
                m.last_used_ns = now.0;
                m.packets += n;
            }
            self.sync.on_perflow_run(internal, run, fx);
            for pkt in run {
                let mut out = pkt.clone();
                out.key.dst_ip = internal.src_ip;
                out.key.dst_port = internal.src_port;
                fx.forward(out);
            }
            return;
        }
        // Outbound: find or create a mapping for the internal flow.
        let created = !self.mappings.contains_key(&flow);
        let external_port = if created {
            self.create_mapping(flow, now)
        } else {
            self.mappings[&flow].external_port
        };
        {
            let m = self.mappings.get_mut(&flow).expect("mapping exists");
            m.last_used_ns = now.0;
            m.packets += n;
        }
        let gate = created
            && self.introspection.as_ref().is_some_and(|f| f.accepts(EVENT_MAPPING_CREATED, &flow));
        if gate {
            fx.raise(Event::Introspection {
                code: EVENT_MAPPING_CREATED,
                key: flow,
                values: vec![("external_port".into(), external_port.to_string())],
            });
        }
        self.sync.on_perflow_run(flow, run, fx);
        for pkt in run {
            let mut out = pkt.clone();
            out.key.src_ip = ext_ip;
            out.key.src_port = external_port;
            fx.forward(out);
        }
    }

    fn set_introspection(&mut self, filter: Option<openmb_types::wire::EventFilter>) {
        self.introspection = filter;
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel { per_packet: SimDuration::from_micros(20), ..CostModel::default() }
    }

    fn perflow_entries(&self) -> usize {
        self.mappings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn outbound(id: u64, sp: u16) -> Packet {
        Packet::new(id, FlowKey::tcp(ip(10, 0, 0, 1), sp, ip(8, 8, 8, 8), 80), vec![1u8; 10])
    }

    #[test]
    fn outbound_rewrites_source() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let mut fx = Effects::normal();
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
        let out = fx.take_output().unwrap();
        assert_eq!(out.key.src_ip, ip(5, 5, 5, 5));
        assert_eq!(out.key.src_port, 20000);
        assert_eq!(nat.perflow_entries(), 1);
    }

    #[test]
    fn inbound_translates_back() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let mut fx = Effects::normal();
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
        let translated = fx.take_output().unwrap();
        // Reply arrives addressed to the external (ip, port).
        let reply = Packet::new(2, translated.key.reversed(), vec![2u8; 10]);
        let mut fx2 = Effects::normal();
        nat.process_packet(SimTime(1), &reply, &mut fx2);
        let back = fx2.take_output().unwrap();
        assert_eq!(back.key.dst_ip, ip(10, 0, 0, 1));
        assert_eq!(back.key.dst_port, 1000);
    }

    #[test]
    fn unknown_inbound_dropped() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let mut fx = Effects::normal();
        let stray = Packet::new(1, FlowKey::tcp(ip(8, 8, 8, 8), 80, ip(5, 5, 5, 5), 33333), vec![]);
        nat.process_packet(SimTime(0), &stray, &mut fx);
        assert!(fx.take_output().is_none());
        assert_eq!(nat.dropped_unknown, 1);
    }

    #[test]
    fn mapping_expires_after_timeout() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        nat.introspection = Some(openmb_types::wire::EventFilter::all());
        let mut fx = Effects::normal();
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
        // 31 seconds later (timeout is 30s) another flow's packet
        // triggers lazy expiry.
        let mut fx2 = Effects::normal();
        nat.process_packet(SimTime(31_000_000_000), &outbound(2, 2000), &mut fx2);
        assert_eq!(nat.perflow_entries(), 1, "old mapping expired");
        let evs = fx2.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::Introspection { code: EVENT_MAPPING_EXPIRED, .. })));
    }

    #[test]
    fn introspection_event_on_creation_carries_port() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        nat.introspection = Some(openmb_types::wire::EventFilter::all());
        let mut fx = Effects::normal();
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
        let evs = fx.take_events();
        match &evs[0] {
            Event::Introspection { code, values, .. } => {
                assert_eq!(*code, EVENT_MAPPING_CREATED);
                assert_eq!(values[0].1, "20000");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn failover_move_preserves_mappings() {
        let mut a = Nat::new(ip(5, 5, 5, 5));
        let mut b = Nat::new(ip(5, 5, 5, 5));
        let mut fx = Effects::normal();
        a.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
        a.process_packet(SimTime(1), &outbound(2, 2000), &mut fx);
        let chunks = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        let shared = a.get_support_shared(OpId(1)).unwrap().unwrap();
        for c in chunks {
            b.put_support_perflow(c).unwrap();
        }
        b.put_support_shared(shared).unwrap();
        // Same flow gets the SAME external port at the replacement — an
        // in-progress connection survives failover.
        let mut fx2 = Effects::normal();
        b.process_packet(SimTime(2), &outbound(3, 1000), &mut fx2);
        assert_eq!(fx2.take_output().unwrap().key.src_port, 20000);
        // And new flows do not collide with migrated ports.
        let mut fx3 = Effects::normal();
        b.process_packet(SimTime(3), &outbound(4, 3000), &mut fx3);
        assert_eq!(fx3.take_output().unwrap().key.src_port, 20002);
    }

    #[test]
    fn a_mapping_or_cursor_with_trailing_bytes_is_refused() {
        let mut a = Nat::new(ip(5, 5, 5, 5));
        a.process_packet(SimTime(0), &outbound(1, 1000), &mut Effects::normal());
        let c = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap().remove(0);
        let cursor = a.get_support_shared(OpId(2)).unwrap().unwrap();
        let mut b = Nat::new(ip(5, 5, 5, 5));
        let longer = StateChunk::new(c.key, crate::rows::with_trailing_byte("nat", &c.data));
        let put = b.put_support_perflow(longer);
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        let put = b.put_support_shared(crate::rows::with_trailing_byte("nat", &cursor));
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        assert!(b.put_support_perflow(c).is_ok() && b.put_support_shared(cursor).is_ok());
    }

    #[test]
    fn static_mapping_restores_critical_state() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let internal = FlowKey::tcp(ip(10, 0, 0, 1), 1000, ip(8, 8, 8, 8), 80);
        nat.set_config(
            &HierarchicalKey::parse("static_mappings/20077"),
            vec![ConfigValue::Str(Nat::mapping_spec(&internal))],
        )
        .unwrap();
        // Inbound to the restored port reaches the internal host.
        let reply = Packet::new(1, FlowKey::tcp(ip(8, 8, 8, 8), 80, ip(5, 5, 5, 5), 20077), vec![]);
        let mut fx = Effects::normal();
        nat.process_packet(SimTime(0), &reply, &mut fx);
        let back = fx.take_output().unwrap();
        assert_eq!(back.key.dst_ip, ip(10, 0, 0, 1));
        assert_eq!(back.key.dst_port, 1000);
        // Malformed specs rejected.
        assert!(nat
            .set_config(
                &HierarchicalKey::parse("static_mappings/20078"),
                vec![ConfigValue::Str("garbage".into())],
            )
            .is_err());
    }

    #[test]
    fn port_allocator_skips_in_use() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let mut fx = Effects::normal();
        for sp in 1000..1005u16 {
            nat.process_packet(SimTime(0), &outbound(u64::from(sp), sp), &mut fx);
        }
        let ports: Vec<u16> = nat.mappings_sorted().iter().map(|m| m.external_port).collect();
        let mut dedup = ports.clone();
        dedup.dedup();
        assert_eq!(ports.len(), dedup.len(), "no duplicate external ports");
    }

    /// A packet of some other flow at `now`: what drives lazy expiry.
    fn tick(nat: &mut Nat, now: SimTime) {
        nat.process_packet(now, &outbound(99, 9999), &mut Effects::normal());
    }

    fn ports(nat: &Nat) -> Vec<u16> {
        nat.mappings_sorted().iter().map(|m| m.internal.src_port).collect()
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn imported_old_mapping_expires_at_next_packet() {
        let mut a = Nat::new(ip(5, 5, 5, 5));
        a.process_packet(SimTime(0), &outbound(1, 1000), &mut Effects::normal());
        let chunks = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        // The destination has only fresh mappings of its own when the
        // 31-second-old one lands.
        let mut b = Nat::new(ip(5, 5, 5, 5));
        tick(&mut b, SimTime(31 * SEC));
        for c in chunks {
            b.put_support_perflow(c).unwrap();
        }
        assert_eq!(ports(&b), vec![1000, 9999]);
        tick(&mut b, SimTime(31 * SEC));
        assert_eq!(ports(&b), vec![9999], "imported with last_used_ns 0: idle past the timeout");
    }

    #[test]
    fn static_mapping_expires_one_timeout_after_zero() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        tick(&mut nat, SimTime(29 * SEC));
        let internal = FlowKey::tcp(ip(10, 0, 0, 1), 1000, ip(8, 8, 8, 8), 80);
        nat.set_config(
            &HierarchicalKey::parse("static_mappings/20077"),
            vec![ConfigValue::Str(Nat::mapping_spec(&internal))],
        )
        .unwrap();
        // Its timestamp is 0, not the time of the write.
        tick(&mut nat, SimTime(30 * SEC));
        assert_eq!(ports(&nat), vec![1000, 9999], "idle for exactly the timeout: kept");
        tick(&mut nat, SimTime(30 * SEC + 1));
        assert_eq!(ports(&nat), vec![9999]);
    }

    #[test]
    fn shorter_timeout_applies_at_the_next_packet() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut Effects::normal());
        tick(&mut nat, SimTime(10 * SEC));
        assert_eq!(ports(&nat), vec![1000, 9999]);
        let key = HierarchicalKey::parse("mapping_timeout_ms");
        nat.set_config(&key, vec![ConfigValue::Int(5_000)]).unwrap();
        tick(&mut nat, SimTime(10 * SEC));
        assert_eq!(ports(&nat), vec![9999]);
        // Deleting the leaf falls back to the 30 s default.
        nat.del_config(&key).unwrap();
        tick(&mut nat, SimTime(20 * SEC));
        assert_eq!(ports(&nat), vec![9999], "touched at 10 s, 30 s timeout again");
    }

    #[test]
    fn sweep_after_deleting_the_oldest_still_expires_the_next_oldest() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        for (at, sp) in [(0, 1000), (SEC, 2000), (20 * SEC, 3000)] {
            nat.process_packet(SimTime(at), &outbound(1, sp), &mut Effects::normal());
        }
        let oldest = HeaderFieldList::exact(outbound(1, 1000).key);
        assert_eq!(nat.del_support_perflow(&oldest).unwrap(), 1);
        tick(&mut nat, SimTime(31 * SEC + SEC / 2));
        assert_eq!(ports(&nat), vec![3000, 9999]);
    }

    #[test]
    fn sweep_that_removes_nothing_still_finds_the_next_to_expire() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        nat.process_packet(SimTime(0), &outbound(1, 1000), &mut Effects::normal());
        nat.process_packet(SimTime(10 * SEC), &outbound(2, 2000), &mut Effects::normal());
        nat.process_packet(SimTime(20 * SEC), &outbound(3, 1000), &mut Effects::normal());
        // 31 s: the flow created at 0 was touched at 20 s — nothing goes.
        nat.process_packet(SimTime(31 * SEC), &outbound(4, 1000), &mut Effects::normal());
        assert_eq!(ports(&nat), vec![1000, 2000]);
        // 41 s: the one idle since 10 s does.
        nat.process_packet(SimTime(41 * SEC), &outbound(5, 1000), &mut Effects::normal());
        assert_eq!(ports(&nat), vec![1000]);
    }

    #[test]
    fn touch_with_an_earlier_clock_can_still_expire() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        nat.process_packet(SimTime(100 * SEC), &outbound(1, 1000), &mut Effects::normal());
        // `now` is the caller's: a touch may stamp an earlier time.
        nat.process_packet(SimTime(50 * SEC), &outbound(2, 1000), &mut Effects::normal());
        tick(&mut nat, SimTime(81 * SEC));
        assert_eq!(ports(&nat), vec![9999], "last used at 50 s, cutoff 51 s");
    }

    #[test]
    fn external_ip_write_applies_at_the_next_packet_or_not_at_all() {
        let mut nat = Nat::new(ip(5, 5, 5, 5));
        let key = HierarchicalKey::parse("external_ip");
        let src_ip = |nat: &mut Nat| {
            let mut fx = Effects::normal();
            nat.process_packet(SimTime(0), &outbound(1, 1000), &mut fx);
            fx.take_output().unwrap().key.src_ip
        };
        nat.set_config(&key, vec![ConfigValue::Str("6.6.6.6".into())]).unwrap();
        assert_eq!(src_ip(&mut nat), ip(6, 6, 6, 6));
        assert!(nat.set_config(&key, vec![ConfigValue::Str("six".into())]).is_err());
        assert_eq!(src_ip(&mut nat), ip(6, 6, 6, 6), "a rejected write changes nothing");
        assert_eq!(nat.get_config(&key).unwrap()[0].1, vec![ConfigValue::Str("6.6.6.6".into())]);
    }
}
