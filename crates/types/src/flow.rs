//! Flow identification: exact 5-tuples ([`FlowKey`]) and the wildcardable
//! `HeaderFieldList` abstraction from §4.1.2 of the paper.
//!
//! Per-flow state is exported/imported as `[HeaderFieldList : Chunk]`
//! pairs. A `HeaderFieldList` may be *coarser* than the granularity a
//! middlebox keeps state at (e.g. "everything from 1.1.1.0/24") — such a
//! request returns all matching finest-granularity chunks. A request
//! *finer* than the MB's native granularity is an error.

use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// Transport protocol carried in the 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    Tcp,
    Udp,
    Icmp,
}

impl Proto {
    /// IANA protocol number, used on the wire.
    pub fn number(self) -> u8 {
        match self {
            Proto::Icmp => 1,
            Proto::Tcp => 6,
            Proto::Udp => 17,
        }
    }

    /// Parse from an IANA protocol number.
    pub fn from_number(n: u8) -> Option<Self> {
        match n {
            1 => Some(Proto::Icmp),
            6 => Some(Proto::Tcp),
            17 => Some(Proto::Udp),
            _ => None,
        }
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Proto::Tcp => write!(f, "tcp"),
            Proto::Udp => write!(f, "udp"),
            Proto::Icmp => write!(f, "icmp"),
        }
    }
}

/// An exact transport-level flow identifier (the finest granularity any
/// middlebox in this workspace keys state by).
///
/// `Hash` writes `FlowKey::packed`: two words instead of the derived
/// impl's per-field writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: Proto,
}

impl FlowKey {
    /// Construct a TCP flow key; the common case in tests and examples.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey { src_ip, dst_ip, src_port, dst_port, proto: Proto::Tcp }
    }

    /// Construct a UDP flow key.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey { src_ip, dst_ip, src_port, dst_port, proto: Proto::Udp }
    }

    /// The same flow viewed from the opposite direction.
    pub fn reversed(&self) -> Self {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// A direction-insensitive canonical form: the (src, dst) pair is
    /// ordered so both directions of a connection map to the same key.
    /// Middleboxes that track bidirectional connections (IPS, monitor)
    /// index their state by this form.
    pub fn canonical(&self) -> Self {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// Every field in two words, injectively: the addresses in the
    /// first, ports and protocol number in the second. Equal keys pack
    /// equal and distinct keys pack apart, so hashing the packing with
    /// a keyed hasher is as collision-resistant as hashing the fields.
    pub(crate) fn packed(&self) -> [u64; 2] {
        [
            (u64::from(u32::from(self.src_ip)) << 32) | u64::from(u32::from(self.dst_ip)),
            (u64::from(self.src_port) << 24)
                | (u64::from(self.dst_port) << 8)
                | u64::from(self.proto.number()),
        ]
    }
}

impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b] = self.packed();
        state.write_u64(a);
        state.write_u64(b);
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} {}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.proto
        )
    }
}

/// An IPv4 prefix (`addr/len`), used for wildcard matching on source or
/// destination addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpPrefix {
    addr: Ipv4Addr,
    len: u8,
}

impl IpPrefix {
    /// Create a prefix; the address is masked down to `len` bits so that
    /// equal prefixes compare equal regardless of host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        let masked = u32::from(addr) & Self::mask(len);
        IpPrefix { addr: Ipv4Addr::from(masked), len }
    }

    /// A host prefix (/32).
    pub fn host(addr: Ipv4Addr) -> Self {
        IpPrefix::new(addr, 32)
    }

    /// The all-matching prefix (0.0.0.0/0).
    pub fn any() -> Self {
        IpPrefix::new(Ipv4Addr::UNSPECIFIED, 0)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address of the prefix.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is `is_any`, not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the /0 prefix.
    pub fn is_any(&self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain `ip`?
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask(self.len)) == u32::from(self.addr)
    }

    /// Is `self` a superset (coarser or equal) of `other`?
    pub fn covers(&self, other: &IpPrefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Do the two prefixes share at least one address? For prefixes this
    /// is exactly "one covers the other": adjacent same-length prefixes
    /// (10.0.0.0/24 vs 10.0.1.0/24) are disjoint even though their
    /// address ranges touch, and that holds across the 255.255.255.255 →
    /// 0.0.0.0 wrap because prefixes never wrap.
    pub fn overlaps(&self, other: &IpPrefix) -> bool {
        self.covers(other) || other.covers(self)
    }
}

impl std::fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// How two `HeaderFieldList`s relate in granularity; used to implement the
/// §4.1.2 rule that requests finer than an MB's native key granularity are
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// `self` matches a superset of the flows `other` matches.
    Coarser,
    /// Identical match sets.
    Equal,
    /// `self` matches a strict subset.
    Finer,
    /// Neither contains the other.
    Incomparable,
}

/// A wildcardable flow pattern: the `HeaderFieldList` of the paper's
/// southbound API. `None` fields and `/0` prefixes match anything.
///
/// `Hash` writes `HeaderFieldList::packed`: two words instead of the
/// derived impl's dozen small writes. The derived `Ord` compares the
/// fields in [`FlowKey`]'s order, so exact patterns sort as their flows
/// do: `exact(a) < exact(b)` exactly when `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeaderFieldList {
    pub nw_src: IpPrefix,
    pub nw_dst: IpPrefix,
    pub tp_src: Option<u16>,
    pub tp_dst: Option<u16>,
    pub proto: Option<Proto>,
}

impl Default for HeaderFieldList {
    fn default() -> Self {
        Self::any()
    }
}

impl HeaderFieldList {
    /// Matches every flow — the `[]` argument of
    /// `moveInternal(Prads2, Prads1, [])` in §6.2.
    pub fn any() -> Self {
        HeaderFieldList {
            nw_src: IpPrefix::any(),
            nw_dst: IpPrefix::any(),
            tp_src: None,
            tp_dst: None,
            proto: None,
        }
    }

    /// An exact match for one flow.
    pub fn exact(key: FlowKey) -> Self {
        HeaderFieldList {
            nw_src: IpPrefix::host(key.src_ip),
            nw_dst: IpPrefix::host(key.dst_ip),
            tp_src: Some(key.src_port),
            tp_dst: Some(key.dst_port),
            proto: Some(key.proto),
        }
    }

    /// The one flow this pattern names, when it constrains every field
    /// to a single value — the inverse of [`exact`](Self::exact).
    pub fn as_exact(&self) -> Option<FlowKey> {
        if self.nw_src.len() != 32 || self.nw_dst.len() != 32 {
            return None;
        }
        Some(FlowKey {
            src_ip: self.nw_src.addr(),
            dst_ip: self.nw_dst.addr(),
            src_port: self.tp_src?,
            dst_port: self.tp_dst?,
            proto: self.proto?,
        })
    }

    /// Match all flows from a source subnet — the
    /// `[nw_src=1.1.1.0/24]` argument of §6.2.
    pub fn from_src_subnet(prefix: IpPrefix) -> Self {
        HeaderFieldList { nw_src: prefix, ..Self::any() }
    }

    /// Match all flows to a destination subnet.
    pub fn from_dst_subnet(prefix: IpPrefix) -> Self {
        HeaderFieldList { nw_dst: prefix, ..Self::any() }
    }

    /// Match all flows with a given destination port (e.g. HTTP = 80).
    pub fn from_dst_port(port: u16) -> Self {
        HeaderFieldList { tp_dst: Some(port), ..Self::any() }
    }

    /// Does this pattern match an exact flow key (directionally)?
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.nw_src.contains(key.src_ip)
            && self.nw_dst.contains(key.dst_ip)
            && self.tp_src.is_none_or(|p| p == key.src_port)
            && self.tp_dst.is_none_or(|p| p == key.dst_port)
            && self.proto.is_none_or(|p| p == key.proto)
    }

    /// Does this pattern match either direction of a connection? Used by
    /// middleboxes that key state by [`FlowKey::canonical`].
    pub fn matches_bidi(&self, key: &FlowKey) -> bool {
        self.matches(key) || self.matches(&key.reversed())
    }

    /// Number of wildcarded "dimensions"; lower = more specific. Used for
    /// flow-table priority tie-breaking.
    pub fn wildcard_score(&self) -> u32 {
        let mut s = 0;
        s += u32::from(32 - self.nw_src.len());
        s += u32::from(32 - self.nw_dst.len());
        if self.tp_src.is_none() {
            s += 16;
        }
        if self.tp_dst.is_none() {
            s += 16;
        }
        if self.proto.is_none() {
            s += 8;
        }
        s
    }

    /// Compare the granularity of two patterns (see [`Granularity`]).
    pub fn granularity(&self, other: &HeaderFieldList) -> Granularity {
        let self_covers = self.covers(other);
        let other_covers = other.covers(self);
        match (self_covers, other_covers) {
            (true, true) => Granularity::Equal,
            (true, false) => Granularity::Coarser,
            (false, true) => Granularity::Finer,
            (false, false) => Granularity::Incomparable,
        }
    }

    /// Is every flow matched by `other` also matched by `self`?
    pub fn covers(&self, other: &HeaderFieldList) -> bool {
        fn port_covers(a: Option<u16>, b: Option<u16>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(x), Some(y)) => x == y,
                (Some(_), None) => false,
            }
        }
        self.nw_src.covers(&other.nw_src)
            && self.nw_dst.covers(&other.nw_dst)
            && port_covers(self.tp_src, other.tp_src)
            && port_covers(self.tp_dst, other.tp_dst)
            && match (self.proto, other.proto) {
                (None, _) => true,
                (Some(x), Some(y)) => x == y,
                (Some(_), None) => false,
            }
    }

    /// The same pattern viewed from the opposite direction (source and
    /// destination constraints swapped), mirroring [`FlowKey::reversed`].
    pub fn reversed(&self) -> Self {
        HeaderFieldList {
            nw_src: self.nw_dst,
            nw_dst: self.nw_src,
            tp_src: self.tp_dst,
            tp_dst: self.tp_src,
            proto: self.proto,
        }
    }

    /// Can any single flow be matched by both patterns (directionally)?
    ///
    /// Every field constrains independently, so the match sets intersect
    /// iff each field's constraint sets intersect: prefixes intersect iff
    /// one covers the other, and optional exact fields intersect iff
    /// either side is a wildcard or both agree.
    pub fn overlaps(&self, other: &HeaderFieldList) -> bool {
        fn opt_overlaps<T: PartialEq>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
        }
        self.nw_src.overlaps(&other.nw_src)
            && self.nw_dst.overlaps(&other.nw_dst)
            && opt_overlaps(self.tp_src, other.tp_src)
            && opt_overlaps(self.tp_dst, other.tp_dst)
            && opt_overlaps(self.proto, other.proto)
    }

    /// Direction-insensitive overlap: middleboxes key state by
    /// [`FlowKey::canonical`], so two patterns can select the same state
    /// chunk even when they only intersect after reversing one of them.
    /// This is the conflict test the shard router uses.
    pub fn overlaps_bidi(&self, other: &HeaderFieldList) -> bool {
        self.overlaps(other) || self.overlaps(&other.reversed())
    }

    /// Every field in two words, injectively: the two (masked) prefix
    /// addresses in the first; in the second, from bit 0, each port as
    /// 17 bits (`None` is 0, `Some(p)` is `1 << 16 | p`), the protocol
    /// number (`None` is 0, no protocol's number is), and the two
    /// prefix lengths, 6 bits each. Equal patterns pack equal and
    /// distinct ones pack apart, so hashing the packing with a keyed
    /// hasher is as collision-resistant as hashing the fields.
    pub(crate) fn packed(&self) -> [u64; 2] {
        let port = |p: Option<u16>| p.map_or(0, |p| (1 << 16) | u64::from(p));
        [
            (u64::from(u32::from(self.nw_src.addr)) << 32) | u64::from(u32::from(self.nw_dst.addr)),
            port(self.tp_src)
                | (port(self.tp_dst) << 17)
                | (u64::from(self.proto.map_or(0, Proto::number)) << 34)
                | (u64::from(self.nw_src.len) << 42)
                | (u64::from(self.nw_dst.len) << 48),
        ]
    }
}

impl Hash for HeaderFieldList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b] = self.packed();
        state.write_u64(a);
        state.write_u64(b);
    }
}

impl std::fmt::Display for HeaderFieldList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if !self.nw_src.is_any() {
            parts.push(format!("nw_src={}", self.nw_src));
        }
        if !self.nw_dst.is_any() {
            parts.push(format!("nw_dst={}", self.nw_dst));
        }
        if let Some(p) = self.tp_src {
            parts.push(format!("tp_src={p}"));
        }
        if let Some(p) = self.tp_dst {
            parts.push(format!("tp_dst={p}"));
        }
        if let Some(p) = self.proto {
            parts.push(format!("proto={p}"));
        }
        write!(f, "[{}]", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = IpPrefix::new(ip("10.1.2.3"), 24);
        assert_eq!(p.addr(), ip("10.1.2.0"));
        assert_eq!(p, IpPrefix::new(ip("10.1.2.99"), 24));
    }

    #[test]
    fn prefix_contains() {
        let p = IpPrefix::new(ip("10.1.0.0"), 16);
        assert!(p.contains(ip("10.1.255.255")));
        assert!(!p.contains(ip("10.2.0.0")));
        assert!(IpPrefix::any().contains(ip("255.255.255.255")));
    }

    #[test]
    fn prefix_covers() {
        let wide = IpPrefix::new(ip("10.0.0.0"), 8);
        let narrow = IpPrefix::new(ip("10.1.0.0"), 16);
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn flowkey_canonical_is_direction_insensitive() {
        let k = FlowKey::tcp(ip("1.1.1.1"), 1234, ip("2.2.2.2"), 80);
        assert_eq!(k.canonical(), k.reversed().canonical());
    }

    #[test]
    fn hfl_exact_matches_only_that_flow() {
        let k = FlowKey::tcp(ip("1.1.1.1"), 1234, ip("2.2.2.2"), 80);
        let h = HeaderFieldList::exact(k);
        assert!(h.matches(&k));
        let other = FlowKey::tcp(ip("1.1.1.1"), 1235, ip("2.2.2.2"), 80);
        assert!(!h.matches(&other));
    }

    #[test]
    fn hfl_as_exact_inverts_exact_and_rejects_wildcards() {
        let k = FlowKey::tcp(ip("1.1.1.1"), 1234, ip("2.2.2.2"), 80);
        let h = HeaderFieldList::exact(k);
        assert_eq!(h.as_exact(), Some(k));
        assert_eq!(HeaderFieldList::exact(k.reversed()).as_exact(), Some(k.reversed()));
        assert_eq!(HeaderFieldList::any().as_exact(), None);
        assert_eq!(HeaderFieldList { tp_src: None, ..h }.as_exact(), None);
        assert_eq!(HeaderFieldList { tp_dst: None, ..h }.as_exact(), None);
        assert_eq!(HeaderFieldList { proto: None, ..h }.as_exact(), None);
        assert_eq!(HeaderFieldList { nw_src: IpPrefix::new(k.src_ip, 31), ..h }.as_exact(), None);
        assert_eq!(HeaderFieldList { nw_dst: IpPrefix::new(k.dst_ip, 24), ..h }.as_exact(), None);
    }

    #[test]
    fn hfl_subnet_matches_all_in_subnet() {
        let h = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24));
        assert!(h.matches(&FlowKey::tcp(ip("1.1.1.200"), 5, ip("9.9.9.9"), 80)));
        assert!(!h.matches(&FlowKey::tcp(ip("1.1.2.1"), 5, ip("9.9.9.9"), 80)));
    }

    #[test]
    fn hfl_bidi_matches_reverse_direction() {
        let h = HeaderFieldList::from_dst_port(80);
        let fwd = FlowKey::tcp(ip("1.1.1.1"), 1234, ip("2.2.2.2"), 80);
        assert!(h.matches_bidi(&fwd));
        assert!(h.matches_bidi(&fwd.reversed()));
        assert!(!h.matches(&fwd.reversed()));
    }

    #[test]
    fn granularity_ordering() {
        let any = HeaderFieldList::any();
        let subnet = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.1.0"), 24));
        let exact = HeaderFieldList::exact(FlowKey::tcp(ip("1.1.1.5"), 99, ip("2.2.2.2"), 80));
        assert_eq!(any.granularity(&subnet), Granularity::Coarser);
        assert_eq!(subnet.granularity(&any), Granularity::Finer);
        assert_eq!(subnet.granularity(&subnet), Granularity::Equal);
        assert_eq!(subnet.granularity(&exact), Granularity::Coarser);
        let other_subnet = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("1.1.2.0"), 24));
        assert_eq!(subnet.granularity(&other_subnet), Granularity::Incomparable);
    }

    #[test]
    fn wildcard_score_orders_specificity() {
        let any = HeaderFieldList::any();
        let exact = HeaderFieldList::exact(FlowKey::tcp(ip("1.1.1.5"), 99, ip("2.2.2.2"), 80));
        assert!(exact.wildcard_score() < any.wildcard_score());
    }

    #[test]
    fn prefix_overlap_is_cover_either_way() {
        let wide = IpPrefix::new(ip("10.0.0.0"), 16);
        let narrow = IpPrefix::new(ip("10.0.1.0"), 24);
        assert!(wide.overlaps(&narrow));
        assert!(narrow.overlaps(&wide));
        // Adjacent same-length prefixes touch but never share an address.
        assert!(!IpPrefix::new(ip("10.0.0.0"), 24).overlaps(&IpPrefix::new(ip("10.0.1.0"), 24)));
        // /0 overlaps everything, including itself.
        assert!(IpPrefix::any().overlaps(&narrow));
        assert!(IpPrefix::any().overlaps(&IpPrefix::any()));
    }

    #[test]
    fn prefix_overlap_at_address_space_edges() {
        // Prefixes at the top and bottom of the v4 space are adjacent
        // only through the 255.255.255.255 → 0.0.0.0 wrap, which prefix
        // ranges never cross: they must stay disjoint.
        let top = IpPrefix::new(ip("255.255.255.0"), 24);
        let bottom = IpPrefix::new(ip("0.0.0.0"), 24);
        assert!(!top.overlaps(&bottom));
        assert!(top.overlaps(&IpPrefix::new(ip("255.255.255.128"), 25)));
    }

    #[test]
    fn hfl_overlap_requires_every_field_to_intersect() {
        let a = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("10.0.0.0"), 24));
        let b = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("10.0.1.0"), 24));
        let cover = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("10.0.0.0"), 16));
        assert!(!a.overlaps(&b), "adjacent subnets are disjoint");
        assert!(a.overlaps(&cover) && b.overlaps(&cover));
        // Same subnet, disjoint exact ports.
        let http = HeaderFieldList { tp_dst: Some(80), ..a };
        let tls = HeaderFieldList { tp_dst: Some(443), ..a };
        assert!(!http.overlaps(&tls));
        assert!(http.overlaps(&a), "wildcard port intersects an exact one");
        // Disjoint protocols.
        let tcp = HeaderFieldList { proto: Some(Proto::Tcp), ..a };
        let udp = HeaderFieldList { proto: Some(Proto::Udp), ..a };
        assert!(!tcp.overlaps(&udp));
    }

    #[test]
    fn hfl_bidi_overlap_catches_reversed_patterns() {
        // A pattern on traffic *from* a subnet and a pattern on traffic
        // *to* the same subnet select the same canonical-keyed state.
        let from = HeaderFieldList::from_src_subnet(IpPrefix::new(ip("10.7.0.0"), 16));
        let to = HeaderFieldList::from_dst_subnet(IpPrefix::new(ip("10.7.0.0"), 16));
        assert!(!from.overlaps(&to) || from.nw_dst.is_any());
        assert!(from.overlaps_bidi(&to));
        let elsewhere = HeaderFieldList::from_dst_subnet(IpPrefix::new(ip("10.8.0.0"), 16));
        // Still overlaps: `from` leaves nw_dst wildcarded. Pin both ends
        // to get true bidi disjointness.
        assert!(from.overlaps_bidi(&elsewhere));
        let pinned_a = HeaderFieldList {
            nw_src: IpPrefix::new(ip("10.7.0.0"), 16),
            nw_dst: IpPrefix::new(ip("10.7.0.0"), 16),
            ..HeaderFieldList::any()
        };
        let pinned_b = HeaderFieldList {
            nw_src: IpPrefix::new(ip("10.8.0.0"), 16),
            nw_dst: IpPrefix::new(ip("10.8.0.0"), 16),
            ..HeaderFieldList::any()
        };
        assert!(!pinned_a.overlaps_bidi(&pinned_b));
        assert!(pinned_a.overlaps_bidi(&pinned_a.reversed()));
    }

    mod packed {
        use super::*;
        use proptest::prelude::*;
        use std::collections::hash_map::RandomState;
        use std::fmt::Debug;
        use std::hash::BuildHasher;

        /// Addresses from a small set, so generated values collide often
        /// (host bits set under a short prefix, the all-zero and all-one
        /// addresses), plus arbitrary ones.
        fn addr() -> impl Strategy<Value = Ipv4Addr> {
            prop_oneof![
                Just(0u32),
                Just(u32::MAX),
                Just(0x0a00_0005),
                Just(0x0a00_0009),
                Just(0x0a00_0100),
                any::<u32>(),
            ]
            .prop_map(Ipv4Addr::from)
        }

        fn port() -> impl Strategy<Value = u16> {
            prop_oneof![Just(0u16), Just(1), Just(u16::MAX), any::<u16>()]
        }

        fn proto() -> impl Strategy<Value = Proto> {
            prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Icmp)]
        }

        fn prefix() -> impl Strategy<Value = IpPrefix> {
            (addr(), prop_oneof![Just(0u8), Just(32u8), Just(24u8), 0u8..=32])
                .prop_map(|(a, len)| IpPrefix::new(a, len))
        }

        fn flow_key() -> impl Strategy<Value = FlowKey> {
            (addr(), addr(), port(), port(), proto()).prop_map(
                |(src_ip, dst_ip, src_port, dst_port, proto)| FlowKey {
                    src_ip,
                    dst_ip,
                    src_port,
                    dst_port,
                    proto,
                },
            )
        }

        fn pattern() -> impl Strategy<Value = HeaderFieldList> {
            use proptest::option::of;
            (prefix(), prefix(), of(port()), of(port()), of(proto())).prop_map(
                |(nw_src, nw_dst, tp_src, tp_dst, proto)| HeaderFieldList {
                    nw_src,
                    nw_dst,
                    tp_src,
                    tp_dst,
                    proto,
                },
            )
        }

        /// Over every pair: equal exactly when the packings are, and
        /// equal values hash equal under one `RandomState`.
        fn injective<T: Eq + Hash + Debug>(vals: &[T], packed: impl Fn(&T) -> [u64; 2]) {
            let s = RandomState::new();
            for a in vals {
                for b in vals {
                    prop_assert_eq!(a == b, packed(a) == packed(b), "{:?} vs {:?}", a, b);
                    if a == b {
                        prop_assert_eq!(s.hash_one(a), s.hash_one(b));
                    }
                }
            }
        }

        /// The edges every case includes: `None` against `Some(0)`
        /// ports, every protocol and none, `/0` against `0.0.0.0/32`,
        /// and one prefix built with two different host parts.
        fn edge_patterns() -> Vec<HeaderFieldList> {
            let any = HeaderFieldList::any();
            let net = |host| IpPrefix::new(Ipv4Addr::new(10, 1, 2, host), 24);
            let mut v = vec![
                any,
                HeaderFieldList { tp_src: Some(0), ..any },
                HeaderFieldList { tp_dst: Some(0), ..any },
                HeaderFieldList { nw_src: IpPrefix::host(Ipv4Addr::UNSPECIFIED), ..any },
                HeaderFieldList { nw_dst: IpPrefix::host(Ipv4Addr::UNSPECIFIED), ..any },
                HeaderFieldList { nw_src: net(3), ..any },
                HeaderFieldList { nw_src: net(99), ..any },
            ];
            v.extend(
                [Proto::Tcp, Proto::Udp, Proto::Icmp]
                    .map(|p| HeaderFieldList { proto: Some(p), ..any }),
            );
            v
        }

        proptest! {
            #[test]
            fn flow_key_packing_is_injective(
                mut keys in proptest::collection::vec(flow_key(), 1..24),
            ) {
                keys.extend(keys.clone().iter().map(FlowKey::reversed));
                injective(&keys, FlowKey::packed);
            }

            #[test]
            fn pattern_packing_is_injective(
                mut pats in proptest::collection::vec(pattern(), 1..24),
            ) {
                pats.extend(edge_patterns());
                pats.extend(pats.clone().iter().map(HeaderFieldList::reversed));
                injective(&pats, HeaderFieldList::packed);
            }

            #[test]
            fn exact_patterns_order_as_their_flow_keys(a in flow_key(), b in flow_key()) {
                // A shared address pair makes the ports and protocol decide.
                let near = FlowKey { src_ip: a.src_ip, dst_ip: a.dst_ip, ..b };
                for b in [b, near, a.reversed()] {
                    let exact = HeaderFieldList::exact;
                    prop_assert_eq!(exact(a).cmp(&exact(b)), a.cmp(&b), "{:?} vs {:?}", a, b);
                }
            }
        }
    }
}
