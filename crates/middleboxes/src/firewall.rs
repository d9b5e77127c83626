//! A stateful firewall with a configuration-heavy rule hierarchy.
//!
//! The firewall primarily exercises the §4.1.1 configuration API: rules
//! live in ordered chains (`chains/inbound`, `chains/outbound`), each
//! rule a single configuration value with iptables-like syntax
//! (`"allow tcp dport 80"`, `"deny any"`), plus a default policy
//! parameter. Connection tracking (per-flow supporting state) lets
//! replies of allowed connections through regardless of rules — and is
//! exactly the state that must move when flows are shifted between
//! firewall instances (R1).

use std::collections::HashMap;

use openmb_mb::{
    state, CostModel, Effects, Middlebox, Record, Sealer, SharedSnapshot, SyncTracker,
};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::ChunkClass;
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList,
    HierarchicalKey, OpId, Packet, Proto, Result, StateChunk, StateStats,
};

/// A parsed firewall rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub allow: bool,
    /// `None` = any protocol.
    pub proto: Option<Proto>,
    /// `None` = any destination port.
    pub dport: Option<u16>,
}

impl Rule {
    /// Parse `"allow tcp dport 80"` / `"deny udp"` / `"allow any"`.
    pub fn parse(s: &str) -> Option<Rule> {
        let mut toks = s.split_whitespace();
        let allow = match toks.next()? {
            "allow" => true,
            "deny" => false,
            _ => return None,
        };
        let mut proto = None;
        let mut dport = None;
        while let Some(t) = toks.next() {
            match t {
                "tcp" => proto = Some(Proto::Tcp),
                "udp" => proto = Some(Proto::Udp),
                "icmp" => proto = Some(Proto::Icmp),
                "any" => {}
                "dport" => dport = Some(toks.next()?.parse().ok()?),
                _ => return None,
            }
        }
        Some(Rule { allow, proto, dport })
    }

    fn matches(&self, key: &FlowKey) -> bool {
        self.proto.is_none_or(|p| p == key.proto) && self.dport.is_none_or(|p| p == key.dst_port)
    }
}

/// A connection-tracking entry (per-flow supporting state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnTrack {
    pub key: FlowKey,
    pub packets: u64,
    pub last_ns: u64,
}

record! { ConnTrack { key, packets, last_ns } }

impl Record for ConnTrack {}

/// What packets need from the config tree, parsed when it is written.
#[derive(Clone)]
struct Compiled {
    /// `chains/inbound`, in order: the first matching rule decides.
    rules: Vec<Rule>,
    /// `params/default_policy` is `"allow"`.
    default_allow: bool,
}

/// The firewall middlebox.
#[derive(Clone)]
pub struct Firewall {
    config: ConfigTree,
    /// [`Firewall::compile_config`] of `config`.
    compiled: Compiled,
    conntrack: HashMap<FlowKey, ConnTrack>,
    sync: SyncTracker,
    sealer: Sealer,
    /// Packets allowed / denied (shared reporting counters).
    pub allowed: u64,
    pub denied: u64,
}

impl Default for Firewall {
    fn default() -> Self {
        Self::new()
    }
}

impl Firewall {
    /// A firewall allowing HTTP/HTTPS/DNS and denying everything else.
    pub fn new() -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("chains/inbound"),
            vec![
                "allow tcp dport 80".into(),
                "allow tcp dport 443".into(),
                "allow udp dport 53".into(),
            ],
        );
        config.set(
            &HierarchicalKey::parse("params/default_policy"),
            vec![ConfigValue::Str("deny".into())],
        );
        Firewall {
            compiled: Self::compile_config(&config),
            config,
            conntrack: HashMap::new(),
            sync: SyncTracker::new(),
            sealer: Sealer::new("firewall"),
            allowed: 0,
            denied: 0,
        }
    }

    /// Every writer of `config` ends by storing this, so packets never
    /// parse it.
    fn compile_config(config: &ConfigTree) -> Compiled {
        let rules = config
            .get_leaf(&HierarchicalKey::parse("chains/inbound"))
            .map(|vs| vs.iter().filter_map(|v| v.as_str()).filter_map(Rule::parse).collect())
            .unwrap_or_default();
        let default_allow = config
            .get_leaf(&HierarchicalKey::parse("params/default_policy"))
            .and_then(|v| v.first().and_then(ConfigValue::as_str))
            == Some("allow");
        Compiled { rules, default_allow }
    }

    fn decide(&self, key: &FlowKey) -> bool {
        let rule = self.compiled.rules.iter().find(|rule| rule.matches(key));
        rule.map_or(self.compiled.default_allow, |rule| rule.allow)
    }

    /// The shared reporting counters, in wire order.
    fn counters(&mut self) -> [&mut u64; 2] {
        [&mut self.allowed, &mut self.denied]
    }

    /// Conntrack entries sorted by key (tests/experiments).
    pub fn conntrack_sorted(&self) -> Vec<ConnTrack> {
        let mut v: Vec<ConnTrack> = self.conntrack.values().cloned().collect();
        v.sort_by_key(|c| c.key);
        v
    }
}

impl Middlebox for Firewall {
    fn mb_type(&self) -> &'static str {
        "firewall"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        // Rule chains are validated value-by-value: a single malformed
        // rule rejects the whole set (ordered sets are atomic units).
        let chains = key.segments().first().map(String::as_str) == Some("chains");
        let bad = values.iter().find(|v| chains && v.as_str().and_then(Rule::parse).is_none());
        let written = match bad {
            Some(v) => Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: format!("unparseable rule: {v}"),
            }),
            None => {
                self.config.set(key, values);
                Ok(())
            }
        };
        self.compiled = Self::compile_config(&self.config);
        written
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        let removed = self.config.remove(key);
        self.compiled = Self::compile_config(&self.config);
        removed
    }

    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.conntrack, &self.sealer, &mut self.sync, op, key))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Support {
            let (table, sealer) = (&self.conntrack, &self.sealer);
            state::export_into(table, sealer, &mut self.sync, op, key, Record::encode, out);
        }
        Ok(())
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let c: ConnTrack = self.sealer.open_row(&chunk.data)?;
        state::import(&mut self.conntrack, &mut self.sync, c.key.canonical(), c);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.conntrack, &mut self.sync, key, drop))
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
        Ok(self.sealer.snapshot(None, Some(counters)))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.counters(), plain.as_deref())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let (chunks, bytes) = state::count(&self.conntrack, key);
        StateStats {
            perflow_support_chunks: chunks,
            perflow_support_bytes: bytes,
            shared_report_bytes: 2 * 8 + state::SEAL_OVERHEAD,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.process_run(now, std::slice::from_ref(pkt), fx);
    }

    /// A same-flow run shares one conntrack lookup or one rule decision:
    /// a deny mutates no state, so the first decision covers the run and
    /// every deny line (same `now`, same key) is the same.
    fn process_run(&mut self, now: SimTime, run: &[Packet], fx: &mut Effects) {
        let flow = run[0].key;
        let key = flow.canonical();
        let n = run.len() as u64;
        // Established connections pass without re-evaluating rules.
        if let Some(c) = self.conntrack.get_mut(&key) {
            c.packets += n;
            c.last_ns = now.0;
        } else if self.decide(&flow) {
            self.conntrack.insert(key, ConnTrack { key, packets: n, last_ns: now.0 });
        } else {
            if !fx.is_replay() {
                self.denied += n;
            }
            let line = format!("{} deny {}", now.0, flow);
            for _ in run {
                fx.log("firewall.log", line.clone());
            }
            return;
        }
        if !fx.is_replay() {
            self.allowed += n;
        }
        self.sync.on_perflow_run(key, run, fx);
        fx.forward_all(run);
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel { per_packet: SimDuration::from_micros(10), ..CostModel::default() }
    }

    fn perflow_entries(&self) -> usize {
        self.conntrack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn pkt(id: u64, dport: u16, proto: Proto) -> Packet {
        let key = FlowKey {
            src_ip: ip(99, 0, 0, 1),
            dst_ip: ip(10, 0, 0, 1),
            src_port: 5000,
            dst_port: dport,
            proto,
        };
        Packet::new(id, key, vec![0u8; 4])
    }

    #[test]
    fn rule_parsing() {
        assert_eq!(
            Rule::parse("allow tcp dport 80"),
            Some(Rule { allow: true, proto: Some(Proto::Tcp), dport: Some(80) })
        );
        assert_eq!(Rule::parse("deny any"), Some(Rule { allow: false, proto: None, dport: None }));
        assert!(Rule::parse("frobnicate").is_none());
        assert!(Rule::parse("allow tcp dport notaport").is_none());
    }

    #[test]
    fn default_deny_blocks_unlisted_ports() {
        let mut fw = Firewall::new();
        let mut fx = Effects::normal();
        fw.process_packet(SimTime(0), &pkt(1, 80, Proto::Tcp), &mut fx);
        assert!(fx.take_output().is_some());
        fw.process_packet(SimTime(1), &pkt(2, 23, Proto::Tcp), &mut fx);
        assert!(fx.take_output().is_none());
        assert_eq!(fw.allowed, 1);
        assert_eq!(fw.denied, 1);
        let logs = fx.take_logs();
        assert!(logs.iter().any(|l| l.log == "firewall.log"));
    }

    #[test]
    fn conntrack_allows_reply_direction() {
        let mut fw = Firewall::new();
        let mut fx = Effects::normal();
        let fwd = pkt(1, 80, Proto::Tcp);
        fw.process_packet(SimTime(0), &fwd, &mut fx);
        assert!(fx.take_output().is_some());
        // Reply: dst_port 5000 matches no allow rule, but the canonical
        // conntrack entry lets it through.
        let reply = Packet::new(2, fwd.key.reversed(), vec![0u8; 4]);
        fw.process_packet(SimTime(1), &reply, &mut fx);
        assert!(fx.take_output().is_some(), "reply must pass via conntrack");
    }

    #[test]
    fn rule_update_changes_decisions() {
        let mut fw = Firewall::new();
        fw.set_config(
            &HierarchicalKey::parse("chains/inbound"),
            vec!["deny tcp dport 80".into(), "allow any".into()],
        )
        .unwrap();
        let mut fx = Effects::normal();
        fw.process_packet(SimTime(0), &pkt(1, 80, Proto::Tcp), &mut fx);
        assert!(fx.take_output().is_none(), "first matching rule wins");
        fw.process_packet(SimTime(1), &pkt(2, 9999, Proto::Udp), &mut fx);
        assert!(fx.take_output().is_some());
    }

    #[test]
    fn deleting_the_chain_leaves_new_flows_to_the_default_policy() {
        let key = HierarchicalKey::parse;
        for policy in ["deny", "allow"] {
            let mut fw = Firewall::new();
            let value = vec![ConfigValue::Str(policy.into())];
            fw.set_config(&key("params/default_policy"), value).unwrap();
            let mut fx = Effects::normal();
            fw.process_packet(SimTime(0), &pkt(1, 80, Proto::Tcp), &mut fx);
            assert!(fx.take_output().is_some());

            fw.del_config(&key("chains/inbound")).unwrap();
            // Port 443 was allowed by the deleted chain.
            fw.process_packet(SimTime(1), &pkt(2, 443, Proto::Tcp), &mut fx);
            assert_eq!(fx.take_output().is_some(), policy == "allow", "policy {policy}");
            // The established flow passes on its conntrack entry.
            fw.process_packet(SimTime(2), &pkt(3, 80, Proto::Tcp), &mut fx);
            assert!(fx.take_output().is_some(), "policy {policy}");

            // With no policy left, a new flow is denied; a refused
            // delete changes nothing.
            fw.del_config(&key("params/default_policy")).unwrap();
            assert!(fw.del_config(&key("params/default_policy")).is_err());
            fw.process_packet(SimTime(3), &pkt(4, 53, Proto::Udp), &mut fx);
            assert!(fx.take_output().is_none(), "policy {policy}");
        }
    }

    #[test]
    fn malformed_rule_rejected_atomically() {
        let mut fw = Firewall::new();
        let err = fw.set_config(
            &HierarchicalKey::parse("chains/inbound"),
            vec!["allow tcp dport 80".into(), "gibberish".into()],
        );
        assert!(matches!(err, Err(Error::InvalidConfigValue { .. })));
        // Original chain intact.
        assert_eq!(fw.get_config(&HierarchicalKey::parse("chains/inbound")).unwrap()[0].1.len(), 3);
    }

    #[test]
    fn conntrack_moves_between_instances() {
        let mut a = Firewall::new();
        let mut b = Firewall::new();
        let mut fx = Effects::normal();
        let fwd = pkt(1, 80, Proto::Tcp);
        a.process_packet(SimTime(0), &fwd, &mut fx);
        let chunks = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert_eq!(chunks.len(), 1);
        for c in chunks {
            b.put_support_perflow(c).unwrap();
        }
        // b, whose rules would deny the reply direction, passes it via
        // the migrated conntrack entry.
        let reply = Packet::new(2, fwd.key.reversed(), vec![0u8; 4]);
        let mut fx2 = Effects::normal();
        b.process_packet(SimTime(1), &reply, &mut fx2);
        assert!(fx2.take_output().is_some());
    }

    #[test]
    fn a_conntrack_entry_with_trailing_bytes_is_refused() {
        let mut a = Firewall::new();
        a.process_packet(SimTime(0), &pkt(1, 80, Proto::Tcp), &mut Effects::normal());
        let c = a.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap().remove(0);
        let longer = StateChunk::new(c.key, crate::rows::with_trailing_byte("firewall", &c.data));
        let put = Firewall::new().put_support_perflow(longer);
        assert!(matches!(put, Err(Error::MalformedChunk(_))), "{put:?}");
        assert!(Firewall::new().put_support_perflow(c).is_ok());
    }
}
