//! A source-affinity load balancer — the Balance [1] stand-in.
//!
//! §4.1.2 uses Balance as the example of *coarse* native granularity:
//! "Balance only maintains a chunk of per-flow state based on source
//! IP/port, since the destination IP/port is the same for all
//! connections." Our variant keys its state by **source IP alone**
//! (client affinity), which exercises the granularity rule: a
//! `getSupportPerflow` for anything finer than a source-IP pattern
//! returns [`Error::GranularityTooFine`].
//!
//! Per-flow supporting state: source IP → backend assignment. Config:
//! the backend list and VIP. Introspection: `EVENT_FLOW_ASSIGNED` when a
//! new source is bound to a backend (§4.2.2's "when a load balancer has
//! assigned a new flow to a server").

use std::collections::HashMap;
use std::net::Ipv4Addr;

use openmb_mb::{state, CostModel, Effects, Middlebox, Sealer, SyncTracker};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::codec;
use openmb_types::wire::Event;
use openmb_types::{
    record, ConfigTree, ConfigValue, Error, FlowKey, HeaderFieldList, HierarchicalKey, IpPrefix,
    OpId, Packet, Result, StateChunk, StateStats,
};

/// Introspection event: a source was assigned to a backend.
pub const EVENT_FLOW_ASSIGNED: u32 = 301;

/// One source's assignment record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub source: Ipv4Addr,
    pub backend: Ipv4Addr,
    pub connections: u64,
    pub last_used_ns: u64,
}

record! { Assignment { source, backend, connections, last_used_ns } }

impl Assignment {
    /// The native-granularity key of this record: everything from the
    /// source, regardless of ports or destination.
    fn native_key(&self) -> HeaderFieldList {
        HeaderFieldList::from_src_subnet(IpPrefix::host(self.source))
    }
}

/// The load balancer middlebox.
#[derive(Clone)]
pub struct LoadBalancer {
    config: ConfigTree,
    assignments: HashMap<Ipv4Addr, Assignment>,
    /// Round-robin cursor over the backend list.
    rr: usize,
    sync: SyncTracker,
    sealer: Sealer,
    pub introspection: Option<openmb_types::wire::EventFilter>,
}

impl LoadBalancer {
    /// A balancer for `vip` distributing across `backends`.
    pub fn new(vip: Ipv4Addr, backends: &[Ipv4Addr]) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        let mut config = ConfigTree::new();
        config.set(&HierarchicalKey::parse("vip"), vec![ConfigValue::Str(vip.to_string())]);
        config.set(
            &HierarchicalKey::parse("backends"),
            backends.iter().map(|b| ConfigValue::Str(b.to_string())).collect(),
        );
        LoadBalancer {
            config,
            assignments: HashMap::new(),
            rr: 0,
            sync: SyncTracker::new(),
            sealer: Sealer::new("balance"),
            introspection: None,
        }
    }

    fn backends(&self) -> Vec<Ipv4Addr> {
        self.config
            .get_leaf(&HierarchicalKey::parse("backends"))
            .map(|vs| vs.iter().filter_map(|v| v.as_str()).filter_map(|s| s.parse().ok()).collect())
            .unwrap_or_default()
    }

    /// The finest granularity this MB supports is "all traffic from one
    /// source IP". A pattern is *finer* when it constrains anything else.
    fn check_granularity(key: &HeaderFieldList) -> Result<()> {
        if key.tp_src.is_some()
            || key.tp_dst.is_some()
            || key.proto.is_some()
            || !key.nw_dst.is_any()
        {
            return Err(Error::GranularityTooFine {
                requested: *key,
                native: "source IP only (Balance keys state by client address)".into(),
            });
        }
        Ok(())
    }

    /// Assignments sorted by source (tests/experiments).
    pub fn assignments_sorted(&self) -> Vec<Assignment> {
        let mut v: Vec<Assignment> = self.assignments.values().cloned().collect();
        v.sort_by_key(|a| a.source);
        v
    }

    /// Per-backend connection counts (load-balance quality metrics).
    pub fn load_by_backend(&self) -> HashMap<Ipv4Addr, u64> {
        let mut out = HashMap::new();
        for a in self.assignments.values() {
            *out.entry(a.backend).or_insert(0) += a.connections;
        }
        out
    }
}

impl Middlebox for LoadBalancer {
    fn mb_type(&self) -> &'static str {
        "balance"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        if key.to_string() == "backends" {
            let parsed: Vec<Option<Ipv4Addr>> =
                values.iter().map(|v| v.as_str().and_then(|s| s.parse().ok())).collect();
            if parsed.is_empty() || parsed.iter().any(Option::is_none) {
                return Err(Error::InvalidConfigValue {
                    key: key.to_string(),
                    reason: "backends must be a non-empty list of IPv4 addresses".into(),
                });
            }
            // R3 in action: reconfiguring the backend list (e.g. to only
            // the backends in this data center after migration) keeps
            // existing assignments — in-progress transactions stay put —
            // but future assignments use the new list.
            self.rr = 0;
        }
        self.config.set(key, values);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)
    }

    // The table is keyed by source address, not by flow, and its chunks
    // carry source-prefix keys tracked as patterns rather than moved
    // marks: none of the kit's per-flow decisions apply, so the export
    // and delete loops are this MB's own and only sealing is shared.
    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Self::check_granularity(key)?;
        let mut matching: Vec<&Assignment> =
            self.assignments.values().filter(|a| key.nw_src.contains(a.source)).collect();
        // Export in key order so map iteration order never leaks into
        // the wire.
        matching.sort_unstable_by_key(|a| a.source);
        let mut out = Vec::with_capacity(matching.len());
        for a in matching {
            let native = a.native_key();
            self.sync.mark_move_pattern(op, native);
            out.push(StateChunk::new(native, self.sealer.seal(&codec::encode(a))));
        }
        self.sync.mark_move_pattern(op, *key);
        Ok(out)
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let a: Assignment = self.sealer.open_row(&chunk.data)?;
        self.assignments.insert(a.source, a);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Self::check_granularity(key)?;
        let before = self.assignments.len();
        self.assignments.retain(|ip, _| !key.nw_src.contains(*ip));
        Ok(before - self.assignments.len())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let mut s = StateStats::default();
        for a in self.assignments.values().filter(|a| key.nw_src.contains(a.source)) {
            s.perflow_support_chunks += 1;
            s.perflow_support_bytes += codec::encoded_len(a) + state::SEAL_OVERHEAD;
        }
        s
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let src = pkt.key.src_ip;
        let backends = self.backends();
        let is_new = !self.assignments.contains_key(&src);
        if is_new {
            let backend = backends[self.rr % backends.len()];
            self.rr += 1;
            self.assignments.insert(
                src,
                Assignment { source: src, backend, connections: 0, last_used_ns: now.0 },
            );
            let gate = self
                .introspection
                .as_ref()
                .is_some_and(|f| f.accepts(EVENT_FLOW_ASSIGNED, &pkt.key));
            if gate {
                fx.raise(Event::Introspection {
                    code: EVENT_FLOW_ASSIGNED,
                    key: pkt.key,
                    values: vec![("backend".into(), backend.to_string())],
                });
            }
        }
        let backend = {
            let a = self.assignments.get_mut(&src).expect("assignment exists");
            a.last_used_ns = now.0;
            if pkt.has_flag(openmb_types::packet::tcp_flags::SYN) || a.connections == 0 {
                a.connections += 1;
            }
            a.backend
        };
        // Reprocess events use the record's native (source-IP) key: we
        // route them through the pattern tracker.
        let probe = FlowKey { ..pkt.key };
        self.sync.on_perflow_update(probe, pkt, fx);
        let mut out = pkt.clone();
        out.key.dst_ip = backend;
        fx.forward(out);
    }

    fn set_introspection(&mut self, filter: Option<openmb_types::wire::EventFilter>) {
        self.introspection = filter;
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel { per_packet: SimDuration::from_micros(15), ..CostModel::default() }
    }

    fn perflow_entries(&self) -> usize {
        self.assignments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn lb() -> LoadBalancer {
        LoadBalancer::new(ip(1, 2, 3, 4), &[ip(10, 0, 0, 1), ip(10, 0, 0, 2)])
    }

    fn pkt(id: u64, src_last: u8, sp: u16) -> Packet {
        Packet::new(id, FlowKey::tcp(ip(99, 0, 0, src_last), sp, ip(1, 2, 3, 4), 80), vec![0u8; 4])
    }

    #[test]
    fn sources_are_sticky_across_connections() {
        let mut lb = lb();
        let mut fx = Effects::normal();
        lb.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let first = fx.take_output().unwrap().key.dst_ip;
        lb.process_packet(SimTime(1), &pkt(2, 1, 2000), &mut fx);
        let second = fx.take_output().unwrap().key.dst_ip;
        assert_eq!(first, second, "same source -> same backend");
    }

    #[test]
    fn round_robin_over_sources() {
        let mut lb = lb();
        let mut fx = Effects::normal();
        lb.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let a = fx.take_output().unwrap().key.dst_ip;
        lb.process_packet(SimTime(1), &pkt(2, 2, 1000), &mut fx);
        let b = fx.take_output().unwrap().key.dst_ip;
        assert_ne!(a, b, "distinct sources spread across backends");
    }

    #[test]
    fn finer_than_native_granularity_is_error() {
        let mut lb = lb();
        let fine = HeaderFieldList::from_dst_port(80);
        assert!(matches!(
            lb.get_support_perflow(OpId(1), &fine),
            Err(Error::GranularityTooFine { .. })
        ));
        let exact = HeaderFieldList::exact(FlowKey::tcp(ip(99, 0, 0, 1), 1000, ip(1, 2, 3, 4), 80));
        assert!(matches!(
            lb.get_support_perflow(OpId(1), &exact),
            Err(Error::GranularityTooFine { .. })
        ));
    }

    #[test]
    fn coarser_patterns_export_all_matching() {
        let mut lb = lb();
        let mut fx = Effects::normal();
        for i in 1..=4u8 {
            lb.process_packet(SimTime(0), &pkt(u64::from(i), i, 1000), &mut fx);
        }
        let subnet = HeaderFieldList::from_src_subnet(IpPrefix::new(ip(99, 0, 0, 0), 24));
        let chunks = lb.get_support_perflow(OpId(1), &subnet).unwrap();
        assert_eq!(chunks.len(), 4);
        // Chunk keys are native-granularity: source-host patterns.
        assert!(chunks.iter().all(|c| c.key.nw_src.len() == 32 && c.key.tp_src.is_none()));
    }

    #[test]
    fn move_preserves_affinity() {
        let mut a = lb();
        let mut b = lb();
        let mut fx = Effects::normal();
        a.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let backend = fx.take_output().unwrap().key.dst_ip;
        let chunks = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        for c in chunks {
            b.put_support_perflow(c).unwrap();
        }
        // New connection from the same source at the new LB keeps its
        // backend (R1's whole point: an in-progress transaction isn't
        // reassigned to a different server).
        let mut fx2 = Effects::normal();
        b.process_packet(SimTime(1), &pkt(2, 1, 3000), &mut fx2);
        assert_eq!(fx2.take_output().unwrap().key.dst_ip, backend);
    }

    #[test]
    fn an_assignment_with_trailing_bytes_is_refused() {
        let mut a = lb();
        a.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut Effects::normal());
        let c = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap().remove(0);
        let longer = StateChunk::new(c.key, crate::rows::with_trailing_byte("balance", &c.data));
        let put = lb().put_support_perflow(longer);
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        assert!(lb().put_support_perflow(c).is_ok());
    }

    #[test]
    fn introspection_announces_assignment() {
        let mut lb = lb();
        lb.introspection = Some(openmb_types::wire::EventFilter::all());
        let mut fx = Effects::normal();
        lb.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let evs = fx.take_events();
        match &evs[0] {
            Event::Introspection { code, values, .. } => {
                assert_eq!(*code, EVENT_FLOW_ASSIGNED);
                assert_eq!(values[0].0, "backend");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backend_reconfig_keeps_existing_assignments() {
        let mut lb = lb();
        let mut fx = Effects::normal();
        lb.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let before = fx.take_output().unwrap().key.dst_ip;
        lb.set_config(
            &HierarchicalKey::parse("backends"),
            vec![ConfigValue::Str("10.0.0.9".into())],
        )
        .unwrap();
        // Existing source keeps its backend...
        lb.process_packet(SimTime(1), &pkt(2, 1, 2000), &mut fx);
        assert_eq!(fx.take_output().unwrap().key.dst_ip, before);
        // ...new sources use the new list.
        lb.process_packet(SimTime(2), &pkt(3, 7, 1000), &mut fx);
        assert_eq!(fx.take_output().unwrap().key.dst_ip, ip(10, 0, 0, 9));
    }

    #[test]
    fn invalid_backend_config_rejected() {
        let mut lb = lb();
        assert!(lb
            .set_config(
                &HierarchicalKey::parse("backends"),
                vec![ConfigValue::Str("not-an-ip".into())],
            )
            .is_err());
        assert!(lb.set_config(&HierarchicalKey::parse("backends"), vec![]).is_err());
    }

    #[test]
    fn reprocess_event_for_moved_source() {
        let mut lb = lb();
        let mut fx = Effects::normal();
        lb.process_packet(SimTime(0), &pkt(1, 1, 1000), &mut fx);
        let _ = lb.get_support_perflow(OpId(5), &HeaderFieldList::any()).unwrap();
        let mut fx2 = Effects::normal();
        // Different port, same source: still covered by the source-IP
        // native key.
        lb.process_packet(SimTime(1), &pkt(2, 1, 4000), &mut fx2);
        assert_eq!(fx2.take_events().len(), 1);
    }
}
