//! An OpenFlow-style flow table: prioritized wildcard rules, fronted by
//! a cache of flow classes so steady-state forwarding is one hash probe
//! into a table as small as the traffic's classes.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use openmb_types::sdn::{FlowRule, SdnAction};
use openmb_types::{FlowKey, HeaderFieldList, NodeId, Proto};

/// Cache entries are bounded; on overflow the cache is cleared
/// wholesale (the table rebuilds it on subsequent lookups).
const CACHE_CAP: usize = 65_536;

/// What the installed rules read of a flow key: the netmasks of the
/// longest source and destination prefix any rule names, and whether
/// any rule names a port or the protocol. Two flows that agree on these
/// bits form one *class*, and every installed rule matches all of a
/// class or none of it (the invariant the Open vSwitch megaflow cache
/// rests on).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Mask {
    src: u32,
    dst: u32,
    tp_src: bool,
    tp_dst: bool,
    proto: bool,
}

/// The netmask of a prefix `len` bits long. A longer prefix's is the
/// larger number.
fn netmask(len: u8) -> u32 {
    u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
}

impl Mask {
    /// The union of what `patterns` read.
    fn of<'a>(patterns: impl Iterator<Item = &'a HeaderFieldList>) -> Self {
        patterns.fold(Mask::default(), |m, p| Mask {
            src: m.src.max(netmask(p.nw_src.len())),
            dst: m.dst.max(netmask(p.nw_dst.len())),
            tp_src: m.tp_src || p.tp_src.is_some(),
            tp_dst: m.tp_dst || p.tp_dst.is_some(),
            proto: m.proto || p.proto.is_some(),
        })
    }

    /// `key`'s class, named by one of its members: the bits no rule
    /// reads are cleared (an unread protocol reads as TCP).
    fn class_of(self, key: &FlowKey) -> FlowKey {
        FlowKey {
            src_ip: Ipv4Addr::from(u32::from(key.src_ip) & self.src),
            dst_ip: Ipv4Addr::from(u32::from(key.dst_ip) & self.dst),
            src_port: if self.tp_src { key.src_port } else { 0 },
            dst_port: if self.tp_dst { key.dst_port } else { 0 },
            proto: if self.proto { key.proto } else { Proto::Tcp },
        }
    }
}

/// A switch's flow table. Lookup returns the matching rule with the
/// highest priority; ties are broken by specificity (fewer wildcarded
/// bits wins) and then by most-recent installation — the semantics OpenMB
/// relies on when a control application overrides a subnet-wide route
/// with flow-specific ones during a move.
///
/// Wildcard rules are scanned only on the first packet of a `(class,
/// in-port)` pair, where a class is every flow that agrees on the bits
/// the installed rules read (see `Mask`); the resolved action
/// (including "no match") is then served from the cache until a rule
/// change touches that class. Rules that read no flow field (a chain's
/// in-port steering) make one class of all traffic; per-flow rules make
/// every flow its own class.
#[derive(Debug, Default, Clone)]
pub struct FlowTable {
    /// Rules with install sequence numbers.
    entries: Vec<(u64, FlowRule)>,
    next_seq: u64,
    /// What `entries` read; the cache's keys are cut down to it.
    mask: Mask,
    /// `(class, in-port) → resolved action`, the class named by
    /// `mask.class_of` a member. `None` caches a miss (important:
    /// miss-heavy traffic would otherwise rescan every wildcard rule
    /// per packet). A rule change that moves the mask clears it; any
    /// other install/modify/remove evicts only the classes the changed
    /// rule matches.
    cache: HashMap<(FlowKey, NodeId), Option<SdnAction>>,
    /// Lookups served from the class cache (perf accounting).
    pub cache_hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Lookups that matched a rule.
    pub hits: u64,
}

impl FlowTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a rule. A rule with an identical pattern, in-port, and
    /// priority is overwritten (OpenFlow `OFPFC_MODIFY` semantics for an
    /// exact duplicate).
    pub fn install(&mut self, rule: FlowRule) {
        let (pattern, in_port) = (rule.pattern, rule.in_port);
        if let Some((_, existing)) = self.entries.iter_mut().find(|(_, e)| {
            e.pattern == rule.pattern && e.priority == rule.priority && e.in_port == rule.in_port
        }) {
            existing.action = rule.action;
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((seq, rule));
        }
        // Any cached class the new rule matches may now resolve
        // differently (including cached misses that would now hit).
        self.rules_changed(&pattern, in_port);
    }

    /// Remove all rules whose pattern equals `pattern` exactly.
    /// Returns how many were removed.
    pub fn remove(&mut self, pattern: &HeaderFieldList) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, e)| e.pattern != *pattern);
        let removed = before - self.entries.len();
        if removed > 0 {
            // Removed rules may have had in-port constraints; `None`
            // here evicts the pattern's classes on every port, a
            // superset of what the removed rules served.
            self.rules_changed(pattern, None);
        }
        removed
    }

    /// After a rule with `pattern` on `in_port` (every port when
    /// `None`) was installed, modified or removed: a new mask renames
    /// every class, so the cache starts over; under the same mask, only
    /// the classes the pattern matches can resolve differently, and
    /// since the mask covers the pattern's fields, it matches a class's
    /// name exactly when it matches the class.
    fn rules_changed(&mut self, pattern: &HeaderFieldList, in_port: Option<NodeId>) {
        let mask = Mask::of(self.entries.iter().map(|(_, e)| &e.pattern));
        if mask != self.mask {
            self.mask = mask;
            self.cache.clear();
        } else {
            self.cache.retain(|(class, port), _| {
                !(pattern.matches(class) && in_port.is_none_or(|p| p == *port))
            });
        }
    }

    /// Look up the action for a packet's flow key arriving from
    /// `in_port`. Specificity tie-breaking counts an `in_port` match as
    /// more specific than a wildcard port.
    ///
    /// Steady state is a single hash probe; only the first packet of a
    /// `(class, in-port)` pair (or the first after a rule change
    /// touching it) pays the full wildcard scan.
    pub fn lookup(&mut self, key: &FlowKey, in_port: NodeId) -> Option<SdnAction> {
        let class = (self.mask.class_of(key), in_port);
        let resolved = match self.cache.get(&class) {
            Some(&cached) => {
                self.cache_hits += 1;
                cached
            }
            None => {
                let resolved = self.lookup_uncached(key, in_port);
                if self.cache.len() >= CACHE_CAP {
                    self.cache.clear();
                }
                self.cache.insert(class, resolved);
                resolved
            }
        };
        match resolved {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        resolved
    }

    /// The full prioritized wildcard scan, bypassing (and not
    /// populating) the class cache. Public so tests and benches can
    /// compare cached and cold resolution.
    pub fn lookup_uncached(&self, key: &FlowKey, in_port: NodeId) -> Option<SdnAction> {
        self.entries
            .iter()
            .filter(|(_, e)| e.pattern.matches(key) && e.in_port.is_none_or(|p| p == in_port))
            .max_by_key(|(seq, e)| {
                let score = e.pattern.wildcard_score() + u32::from(e.in_port.is_none());
                (e.priority, std::cmp::Reverse(score), *seq)
            })
            .map(|(_, e)| e.action)
    }

    /// Number of `(class, in-port)` resolutions currently cached.
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over installed rules (install order).
    pub fn rules(&self) -> impl Iterator<Item = &FlowRule> {
        self.entries.iter().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::IpPrefix;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn key() -> FlowKey {
        FlowKey::tcp(ip("1.1.1.5"), 1234, ip("2.2.2.2"), 80)
    }

    const PORT: NodeId = NodeId(99);

    #[test]
    fn priority_wins() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Forward(NodeId(1))));
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24)),
            10,
            SdnAction::Forward(NodeId(2)),
        ));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(2))));
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.0.0.0"), 8)),
            5,
            SdnAction::Forward(NodeId(1)),
        ));
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24)),
            5,
            SdnAction::Forward(NodeId(2)),
        ));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(2))));
    }

    #[test]
    fn newest_breaks_full_ties() {
        let mut t = FlowTable::new();
        let pat_a = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24));
        let pat_b = HeaderFieldList::from_dst_subnet(IpPrefix::new(ip("2.2.2.0"), 24));
        t.install(FlowRule::new(pat_a, 5, SdnAction::Forward(NodeId(1))));
        t.install(FlowRule::new(pat_b, 5, SdnAction::Forward(NodeId(2))));
        // Same priority, same wildcard score -> later install wins.
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(2))));
    }

    #[test]
    fn identical_pattern_overwrites() {
        let mut t = FlowTable::new();
        let pat = HeaderFieldList::exact(key());
        t.install(FlowRule::new(pat, 5, SdnAction::Forward(NodeId(1))));
        t.install(FlowRule::new(pat, 5, SdnAction::Drop));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Drop));
    }

    #[test]
    fn in_port_disambiguates_mb_traversal() {
        // Pre-MB packets (from upstream port) go to the MB; post-MB
        // packets (from the MB port) continue downstream — same 5-tuple.
        let mut t = FlowTable::new();
        let upstream = NodeId(1);
        let mb = NodeId(2);
        let downstream = NodeId(3);
        t.install(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(mb)).from_port(upstream),
        );
        t.install(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(downstream)).from_port(mb),
        );
        assert_eq!(t.lookup(&key(), upstream), Some(SdnAction::Forward(mb)));
        assert_eq!(t.lookup(&key(), mb), Some(SdnAction::Forward(downstream)));
        assert_eq!(t.lookup(&key(), NodeId(7)), None);
    }

    #[test]
    fn port_match_is_more_specific() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Drop));
        t.install(
            FlowRule::new(HeaderFieldList::any(), 5, SdnAction::Forward(NodeId(1))).from_port(PORT),
        );
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(1))));
        assert_eq!(t.lookup(&key(), NodeId(7)), Some(SdnAction::Drop));
    }

    #[test]
    fn miss_counts() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(&key(), PORT), None);
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 0);
    }

    #[test]
    fn remove_by_pattern() {
        let mut t = FlowTable::new();
        let pat = HeaderFieldList::exact(key());
        t.install(FlowRule::new(pat, 5, SdnAction::Drop));
        assert_eq!(t.remove(&pat), 1);
        assert!(t.is_empty());
        assert_eq!(t.remove(&pat), 0);
    }

    // ---- cache ----

    #[test]
    fn cache_hit_repeats_cold_result() {
        // Same fixture as `priority_wins`: the cached answer must equal
        // the wildcard-scan answer, and the repeat must be served from
        // the cache.
        let mut t = FlowTable::new();
        t.install(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Forward(NodeId(1))));
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24)),
            10,
            SdnAction::Forward(NodeId(2)),
        ));
        let cold = t.lookup(&key(), PORT);
        assert_eq!(cold, Some(SdnAction::Forward(NodeId(2))));
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.lookup(&key(), PORT), cold);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.hits, 2);
    }

    #[test]
    fn cached_miss_counts_as_miss() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(&key(), PORT), None);
        assert_eq!(t.lookup(&key(), PORT), None);
        assert_eq!(t.misses, 2);
        assert_eq!(t.cache_hits, 1);
    }

    #[test]
    fn higher_priority_install_invalidates_stale_entry() {
        // Same fixture as `specificity_breaks_priority_ties`, built
        // incrementally: a cached resolution must not survive the
        // install of an overlapping rule that wins.
        let mut t = FlowTable::new();
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.0.0.0"), 8)),
            5,
            SdnAction::Forward(NodeId(1)),
        ));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(1))));
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24)),
            5,
            SdnAction::Forward(NodeId(2)),
        ));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(2))));
        // A flow the new rule does NOT match keeps its cache entry.
        let other = FlowKey::tcp(ip("9.9.9.9"), 1, ip("2.2.2.2"), 80);
        t.lookup(&other, PORT);
        let hits_before = t.cache_hits;
        t.install(FlowRule::new(
            HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24)),
            7,
            SdnAction::Drop,
        ));
        t.lookup(&other, PORT);
        assert_eq!(t.cache_hits, hits_before + 1, "unrelated entry was evicted");
    }

    #[test]
    fn modify_and_remove_invalidate() {
        let mut t = FlowTable::new();
        let pat = HeaderFieldList::exact(key());
        t.install(FlowRule::new(pat, 5, SdnAction::Forward(NodeId(1))));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(1))));
        // OFPFC_MODIFY (identical pattern/priority/port) rewrites the
        // action — the cached action must follow.
        t.install(FlowRule::new(pat, 5, SdnAction::Drop));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Drop));
        // Removal must expose the now-empty table, not the stale hit.
        t.remove(&pat);
        assert_eq!(t.lookup(&key(), PORT), None);
    }

    #[test]
    fn cached_misses_heal_after_install() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(&key(), PORT), None);
        t.install(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Drop));
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Drop));
    }

    #[test]
    fn in_port_restricted_install_spares_other_ports() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(HeaderFieldList::any(), 1, SdnAction::Drop));
        t.lookup(&key(), NodeId(7));
        let hits_before = t.cache_hits;
        // New rule pinned to PORT: the NodeId(7) cache entry survives.
        t.install(
            FlowRule::new(HeaderFieldList::any(), 9, SdnAction::Forward(NodeId(1))).from_port(PORT),
        );
        assert_eq!(t.lookup(&key(), NodeId(7)), Some(SdnAction::Drop));
        assert_eq!(t.cache_hits, hits_before + 1);
        assert_eq!(t.lookup(&key(), PORT), Some(SdnAction::Forward(NodeId(1))));
    }

    /// Randomized interleaving of installs, removes, and lookups: every
    /// cached lookup must agree with a fresh wildcard scan of the same
    /// table state.
    #[test]
    fn cache_agrees_with_cold_lookup_under_random_churn() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::from_name("cache_agrees_with_cold_lookup_under_random_churn");
        let mut t = FlowTable::new();

        // Small universes force overlap between rules and traffic.
        let rand_ip = |rng: &mut TestRng| ip(&format!("10.0.{}.{}", rng.below(2), rng.below(4)));
        let rand_key =
            |rng: &mut TestRng| FlowKey::tcp(rand_ip(rng), rng.below(3) as u16, rand_ip(rng), 80);
        let rand_pattern = |rng: &mut TestRng| match rng.below(4) {
            0 => HeaderFieldList::any(),
            1 => HeaderFieldList::from_src_subnet(IpPrefix::new(rand_ip(rng), 24)),
            2 => HeaderFieldList::from_dst_subnet(IpPrefix::new(rand_ip(rng), 30)),
            _ => HeaderFieldList::exact(rand_key(rng)),
        };

        for step in 0..2000 {
            match rng.below(10) {
                0..=1 => {
                    let rule = FlowRule::new(
                        rand_pattern(&mut rng),
                        rng.below(4) as u16,
                        SdnAction::Forward(NodeId(rng.below(4) as u32)),
                    );
                    let rule = if rng.below(3) == 0 {
                        rule.from_port(NodeId(rng.below(3) as u32))
                    } else {
                        rule
                    };
                    t.install(rule);
                }
                2 => {
                    let pat = rand_pattern(&mut rng);
                    t.remove(&pat);
                }
                _ => {
                    let key = rand_key(&mut rng);
                    let port = NodeId(rng.below(3) as u32);
                    assert_eq!(
                        t.lookup(&key, port),
                        t.lookup_uncached(&key, port),
                        "step {step}: cache diverged from cold lookup"
                    );
                }
            }
        }
        assert!(t.cache_hits > 0, "churn test never exercised the cache fast path");
    }

    // ---- class cache ----

    /// Seeded churn over rules that read every field kind — both
    /// prefixes at several lengths, both ports, the protocol, the
    /// in-port — installed, modified (`OFPFC_MODIFY`: the same
    /// pattern, priority and port with a new action) and removed. After
    /// every step, a batch of lookups must equal the cold scan.
    #[test]
    fn class_cache_agrees_with_cold_lookup_over_every_field() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::from_name("class_cache_agrees_with_cold_lookup_over_every_field");
        let mut t = FlowTable::new();

        let rand_ip = |rng: &mut TestRng, net: u8| {
            Ipv4Addr::new(10, net, rng.below(2) as u8, rng.below(8) as u8)
        };
        let rand_key = |rng: &mut TestRng| FlowKey {
            src_ip: rand_ip(rng, 0),
            dst_ip: rand_ip(rng, 1),
            src_port: rng.below(3) as u16,
            dst_port: 80 + rng.below(2) as u16,
            proto: [Proto::Tcp, Proto::Udp][rng.below(2) as usize],
        };
        let rand_prefix = |rng: &mut TestRng, net: u8| {
            let len = [0, 16, 23, 24, 29, 30, 31, 32][rng.below(8) as usize];
            IpPrefix::new(rand_ip(rng, net), len)
        };
        let rand_pattern = |rng: &mut TestRng| {
            let key = rand_key(rng);
            HeaderFieldList {
                nw_src: rand_prefix(rng, 0),
                nw_dst: rand_prefix(rng, 1),
                tp_src: (rng.below(4) == 0).then_some(key.src_port),
                tp_dst: (rng.below(4) == 0).then_some(key.dst_port),
                proto: (rng.below(4) == 0).then_some(key.proto),
            }
        };
        let rand_rule = |rng: &mut TestRng, pattern: HeaderFieldList| {
            let rule = FlowRule::new(
                pattern,
                rng.below(4) as u16,
                SdnAction::Forward(NodeId(rng.below(8) as u32)),
            );
            if rng.below(3) == 0 {
                rule.from_port(NodeId(rng.below(3) as u32))
            } else {
                rule
            }
        };

        let (mut installs, mut modifies, mut removes) = (0, 0, 0);
        for step in 0..2000 {
            match rng.below(8) {
                0..=2 => {
                    let pattern = rand_pattern(&mut rng);
                    t.install(rand_rule(&mut rng, pattern));
                    installs += 1;
                }
                3..=4 if !t.is_empty() => {
                    // Rewrite an installed rule's action in place.
                    let i = rng.below(t.len() as u64) as usize;
                    let mut rule = t.rules().nth(i).unwrap().clone();
                    rule.action = SdnAction::Forward(NodeId(8 + rng.below(4) as u32));
                    let before = t.len();
                    t.install(rule);
                    assert_eq!(t.len(), before, "a modify added a rule");
                    modifies += 1;
                }
                _ if !t.is_empty() => {
                    let i = rng.below(t.len() as u64) as usize;
                    let pattern = t.rules().nth(i).unwrap().pattern;
                    assert!(t.remove(&pattern) > 0);
                    removes += 1;
                }
                _ => {}
            }
            for _ in 0..16 {
                let key = rand_key(&mut rng);
                let port = NodeId(rng.below(3) as u32);
                assert_eq!(
                    t.lookup(&key, port),
                    t.lookup_uncached(&key, port),
                    "step {step}: {key} on {port} diverged from the cold scan"
                );
            }
        }
        assert!(
            installs > 500 && modifies > 300 && removes > 300,
            "installs {installs}, modifies {modifies}, removes {removes}"
        );
        assert!(t.cache_hits > 1000, "the churn served {} lookups from the cache", t.cache_hits);
    }

    /// `chain_fwd`'s rule shape: four in-port rules on `any`. All
    /// traffic is then one class per in-port, however many flows it
    /// holds; one exact-match rule makes every flow its own class, and
    /// removing it makes them one again.
    #[test]
    fn in_port_rules_on_any_cache_one_class_per_port() {
        let ports = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let mut t = FlowTable::new();
        for (i, &p) in ports.iter().enumerate() {
            let next = SdnAction::Forward(ports[(i + 1) % ports.len()]);
            t.install(FlowRule::new(HeaderFieldList::any(), 10, next).from_port(p));
        }
        let flows: Vec<FlowKey> = (0..8192u32)
            .map(|i| {
                let src = Ipv4Addr::from(0x0a00_0000 | (i >> 4));
                FlowKey::tcp(src, 1024 + (i & 15) as u16, ip("93.184.216.34"), 80)
            })
            .collect();
        let pass = |t: &mut FlowTable| {
            for key in &flows {
                for &p in &ports {
                    assert_eq!(t.lookup(key, p), t.lookup_uncached(key, p));
                }
            }
        };
        pass(&mut t);
        assert_eq!(t.cached_len(), 4, "one class per in-port");
        assert_eq!(t.cache_hits as usize, flows.len() * 4 - 4);

        let pinned = flows[100];
        let exact = HeaderFieldList::exact(pinned);
        t.install(FlowRule::new(exact, 20, SdnAction::Drop).from_port(ports[0]));
        pass(&mut t);
        assert_eq!(t.cached_len(), flows.len() * 4, "an exact rule makes lookups exact");
        assert_eq!(t.lookup(&pinned, ports[0]), Some(SdnAction::Drop));
        assert_eq!(t.lookup(&flows[101], ports[0]), Some(SdnAction::Forward(ports[1])));

        assert_eq!(t.remove(&exact), 1);
        pass(&mut t);
        assert!(t.cached_len() <= 4, "{} classes after the exact rule left", t.cached_len());
        assert_eq!(t.lookup(&pinned, ports[0]), Some(SdnAction::Forward(ports[1])));
    }
}
