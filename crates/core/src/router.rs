//! Shard routing and flowspace conflict detection for the sharded
//! controller.
//!
//! The [`ShardRouter`] answers two questions:
//!
//! 1. **Admission** — which shard should a new operation run on? The
//!    default answer is a deterministic hash of `(flowspace, MB pair)`
//!    modulo the shard count, but an operation that can touch the same
//!    middlebox state as one already in flight is pinned to that
//!    operation's shard instead. Two transfers can collide only when
//!    (a) their MB sets intersect — state lives *on* middleboxes, so
//!    disjoint `{src, dst}` pairs share nothing by construction — and
//!    (b) their flowspaces can select a common canonical flow key
//!    ([`HeaderFieldList::overlaps_bidi`], mirroring the MBs'
//!    `matches_bidi` state selection). Every shard processes its
//!    messages in FIFO order, so two conflicting operations on one
//!    shard observe each other's effects in a single well-defined
//!    order — the same correctness argument as the old single-stream
//!    controller, now holding per shard instead of globally.
//!
//!    Pinning only works when the whole conflict set sits on ONE shard.
//!    A bridging op can conflict with live transfers on two different
//!    shards at once (a wildcard clone touching the endpoints of two
//!    mutually-disjoint moves): joining either shard would leave it
//!    running concurrently with the conflicting op on the other. Such
//!    an op is [`Admission::Defer`]red — reserved on the earliest
//!    conflicting transfer's shard with no southbound traffic, queued
//!    with the conflicting ops on *other* shards as blockers, and
//!    released only once every blocker has fully closed. By then its
//!    remaining conflicts all live on its own shard, where FIFO
//!    ordering serializes them as usual.
//! 2. **Demux** — which shard owns an incoming southbound message?
//!    Shards allocate op ids from disjoint residue classes
//!    (shard `s` of `N` hands out ids `≡ s + 1 (mod N)`), so ownership
//!    of any op-carrying message is `(id - 1) % N`: O(1), no shared
//!    table, nothing to lock on the hot path. Only `Introspection`
//!    events carry no op id; those route via the subscription table
//!    written at `enableEvents` time.
//!
//! The conflict table holds one entry per *live* transfer (or chain
//! hop, under the chain's id) and is pruned against the engine's
//! chain-aware "has it closed?" predicate — a shard's
//! [`crate::shard::ControllerShard::op_closed`] for shard ops, the
//! chain table for chain ids — so a flowspace stays pinned while its op
//! can still emit southbound traffic (including post-quiescence
//! deletes) and not a tick longer. The router itself holds no lock and
//! knows no threads: [`crate::controller::ControllerCore`] keeps it
//! behind one mutex and is its only caller.

use openmb_types::wire::{Event, Message};
use openmb_types::{HeaderFieldList, MbId, OpId};

/// Where an incoming southbound message must be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard owns the message.
    Shard(usize),
    /// No shard can be determined (unattributed message, e.g. an
    /// introspection event from an MB with no recorded subscription):
    /// deliver to every shard; non-owners drop it.
    Broadcast,
}

/// The router's verdict on a new transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Run now on `shard` — hash placement, or (`pinned`) the single
    /// shard holding every conflicting live transfer.
    Run { shard: usize, pinned: bool },
    /// The conflict set spans more than one shard, so no placement can
    /// serialize the op against all of it. Reserve the op on `shard`
    /// (the earliest conflicting transfer's) without issuing southbound
    /// traffic, and hold it until every `blockers` entry — the
    /// conflicting ops on *other* shards — has closed.
    Defer { shard: usize, blockers: Vec<(usize, OpId)> },
}

/// One transfer admitted with a cross-shard conflict set, reserved on
/// its shard and awaiting release.
#[derive(Debug, Clone)]
struct DeferredOp {
    op: OpId,
    shard: usize,
    /// `(shard, op)` of every conflicting transfer on another shard at
    /// admission time; entries are removed as they close.
    blockers: Vec<(usize, OpId)>,
}

/// One live transfer the router is keeping pinned to a shard.
#[derive(Debug, Clone)]
struct ActiveOp {
    op: OpId,
    pattern: HeaderFieldList,
    src: MbId,
    dst: MbId,
    shard: usize,
}

impl ActiveOp {
    /// Can a new transfer `(pattern, src, dst)` touch state this one
    /// is moving? Requires both a shared middlebox and a flowspace
    /// intersection — either alone is harmless.
    fn conflicts(&self, pattern: &HeaderFieldList, src: MbId, dst: MbId) -> bool {
        let shares_mb = self.src == src || self.src == dst || self.dst == src || self.dst == dst;
        shares_mb && self.pattern.overlaps_bidi(pattern)
    }
}

/// Deterministic shard assignment with flowspace conflict detection.
///
/// `Clone` so the engine (which journals itself wholesale) can snapshot
/// and restore routing state together with the shards it describes.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    active: Vec<ActiveOp>,
    /// Transfers admitted with a cross-shard conflict set, in admission
    /// order, awaiting release.
    deferred: Vec<DeferredOp>,
    /// Shard that ran `enableEvents` per MB — the destination for
    /// op-less introspection events from that MB.
    subs: Vec<(MbId, usize)>,
}

/// FNV-1a, the workspace's standing choice for small deterministic
/// hashes (seeded, platform-independent — `DefaultHasher` is neither
/// guaranteed stable across releases nor seedable).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable byte encoding of the shard key `(flowspace, MB pair)`.
fn shard_key_bytes(pattern: &HeaderFieldList, src: MbId, dst: MbId) -> Vec<u8> {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&u32::from(pattern.nw_src.addr()).to_be_bytes());
    v.push(pattern.nw_src.len());
    v.extend_from_slice(&u32::from(pattern.nw_dst.addr()).to_be_bytes());
    v.push(pattern.nw_dst.len());
    for p in [pattern.tp_src, pattern.tp_dst] {
        match p {
            Some(p) => {
                v.push(1);
                v.extend_from_slice(&p.to_be_bytes());
            }
            None => v.push(0),
        }
    }
    // Tag byte like the ports: a bare 0xff sentinel for "any" would
    // hash identically to an explicit IP protocol 255.
    match pattern.proto {
        Some(p) => {
            v.push(1);
            v.push(p.number());
        }
        None => v.push(0),
    }
    v.extend_from_slice(&src.0.to_be_bytes());
    v.extend_from_slice(&dst.0.to_be_bytes());
    v
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.max(1),
            active: Vec::new(),
            deferred: Vec::new(),
            subs: Vec::new(),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of transfers currently pinned in the conflict table.
    pub fn active_transfers(&self) -> usize {
        self.active.len()
    }

    /// The hash-only placement for `(flowspace, src, dst)` given a
    /// shard count — where an op goes when nothing conflicts. Pure
    /// arithmetic over the key: needs no router state, so concurrent
    /// embeddings call it without any lock.
    pub fn hash_placement(shards: usize, pattern: &HeaderFieldList, src: MbId, dst: MbId) -> usize {
        // FNV-1a's low bits disperse poorly when only a byte or two of
        // the key varies (a small shard count reduces mod a power of
        // two, i.e. reads only those bits), so fold the high half down
        // before taking the residue.
        let h = fnv1a(shard_key_bytes(pattern, src, dst));
        ((h ^ (h >> 32)) % shards.max(1) as u64) as usize
    }

    /// [`ShardRouter::hash_placement`] over this router's shard count.
    pub fn hash_shard(&self, pattern: &HeaderFieldList, src: MbId, dst: MbId) -> usize {
        Self::hash_placement(self.shards, pattern, src, dst)
    }

    /// Placement for a simple (non-transfer) request against one MB:
    /// hash of the MB pair degenerated to `(mb, mb)` with a wildcard
    /// flowspace. Simple requests are self-contained and idempotent, so
    /// they need no conflict entry — and, being pure arithmetic, no
    /// router lock.
    pub fn place_simple(shards: usize, mb: MbId) -> usize {
        Self::hash_placement(shards, &HeaderFieldList::any(), mb, mb)
    }

    /// Admit a transfer. With no conflicting live transfer the hash
    /// decides and disjoint ops spread across shards. When every
    /// conflicting transfer (shares a middlebox *and* overlaps the
    /// flowspace, direction-insensitively) sits on one shard, the op is
    /// pinned there, where per-shard FIFO ordering serializes them. But
    /// when the conflict set spans several shards no placement is safe,
    /// and the verdict is [`Admission::Defer`]: reserve the op on the
    /// earliest-admitted conflicting transfer's shard and hold it until
    /// the conflicting ops on the *other* shards close.
    pub fn admit(&self, pattern: &HeaderFieldList, src: MbId, dst: MbId) -> Admission {
        let mut conflicts = self.active.iter().filter(|a| a.conflicts(pattern, src, dst));
        let Some(first) = conflicts.next() else {
            return Admission::Run { shard: self.hash_shard(pattern, src, dst), pinned: false };
        };
        let shard = first.shard;
        let blockers: Vec<(usize, OpId)> =
            conflicts.filter(|a| a.shard != shard).map(|a| (a.shard, a.op)).collect();
        if blockers.is_empty() {
            Admission::Run { shard, pinned: true }
        } else {
            Admission::Defer { shard, blockers }
        }
    }

    /// Admit a whole *chain* of transfers atomically: the verdict is
    /// computed over the union of every hop's conflict set, so the
    /// chain either runs with all hops pinned to ONE shard's FIFO or
    /// defers until every cross-shard blocker closes. Registering all
    /// hops before any hop's traffic is issued (see
    /// [`ShardRouter::register_chain`]) is what makes two chains with
    /// reversed hop orders deadlock-free: the later admission sees the
    /// earlier chain's full footprint at once and serializes behind it,
    /// instead of the two acquiring hops incrementally in opposite
    /// orders. With no conflicts anywhere, placement is the hash of the
    /// first hop's key.
    pub fn admit_chain(&self, hops: &[(HeaderFieldList, MbId, MbId)]) -> Admission {
        let mut first: Option<usize> = None;
        let mut blockers: Vec<(usize, OpId)> = Vec::new();
        for a in &self.active {
            if hops.iter().any(|(p, s, d)| a.conflicts(p, *s, *d)) {
                match first {
                    None => first = Some(a.shard),
                    Some(shard) if a.shard != shard => {
                        if !blockers.contains(&(a.shard, a.op)) {
                            blockers.push((a.shard, a.op));
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        match first {
            None => {
                let (p, s, d) = &hops[0];
                Admission::Run { shard: self.hash_shard(p, *s, *d), pinned: false }
            }
            Some(shard) if blockers.is_empty() => Admission::Run { shard, pinned: true },
            Some(shard) => Admission::Defer { shard, blockers },
        }
    }

    /// Record every hop of an admitted chain in the conflict table
    /// under the chain's own id, all on `shard`. Later single-pair or
    /// chain admissions that can touch any hop's state then serialize
    /// behind the chain (pin to `shard`, or defer blocked on the chain
    /// id) until the *whole* chain closes — hop completions in the
    /// middle of the chain release nothing.
    pub fn register_chain(
        &mut self,
        chain: OpId,
        hops: &[(HeaderFieldList, MbId, MbId)],
        shard: usize,
    ) {
        for (pattern, src, dst) in hops {
            self.register_transfer(chain, *pattern, *src, *dst, shard);
        }
    }

    /// Record an admitted transfer in the conflict table.
    pub fn register_transfer(
        &mut self,
        op: OpId,
        pattern: HeaderFieldList,
        src: MbId,
        dst: MbId,
        shard: usize,
    ) {
        debug_assert!(shard < self.shards);
        self.active.push(ActiveOp { op, pattern, src, dst, shard });
    }

    /// Drop conflict entries whose op has fully closed, as answered by
    /// `closed(shard, op)` — which may be conservative (`false` when it
    /// cannot tell): the entry is simply retained until a later prune.
    pub fn prune(&mut self, mut closed: impl FnMut(usize, OpId) -> bool) {
        self.active.retain(|a| !closed(a.shard, a.op));
    }

    /// Queue a transfer reserved under an [`Admission::Defer`] verdict.
    pub fn push_deferred(&mut self, op: OpId, shard: usize, blockers: Vec<(usize, OpId)>) {
        debug_assert!(!blockers.is_empty(), "a deferral with no blockers should have run");
        self.deferred.push(DeferredOp { op, shard, blockers });
    }

    /// Any transfer still held back by cross-shard blockers? Cheap: the
    /// release sweep's guard on every hot path.
    pub fn has_deferred(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Number of transfers currently held back (diagnostics, tests).
    pub fn deferred_transfers(&self) -> usize {
        self.deferred.len()
    }

    /// Sweep the deferred queue in admission order: entries whose own
    /// op closed while held (deadline abort, endpoint loss) are
    /// dropped; entries whose blockers have all closed are removed and
    /// returned as `(shard, op)` for the engine to release, in FIFO
    /// order. `closed` may answer conservatively (`false` when it
    /// cannot tell) — a blocker is then simply re-checked on the next
    /// sweep.
    pub fn drain_releasable(
        &mut self,
        mut closed: impl FnMut(usize, OpId) -> bool,
    ) -> Vec<(usize, OpId)> {
        if self.deferred.is_empty() {
            return Vec::new();
        }
        let mut ready = Vec::new();
        self.deferred.retain_mut(|d| {
            if closed(d.shard, d.op) {
                return false;
            }
            d.blockers.retain(|&(shard, op)| !closed(shard, op));
            if d.blockers.is_empty() {
                ready.push((d.shard, d.op));
                false
            } else {
                true
            }
        });
        ready
    }

    /// Record which shard owns `mb`'s introspection subscription.
    pub fn note_subscription(&mut self, mb: MbId, shard: usize) {
        if let Some(e) = self.subs.iter_mut().find(|(m, _)| *m == mb) {
            e.1 = shard;
        } else {
            self.subs.push((mb, shard));
        }
    }

    /// Owning shard of an op id given a shard count, from its residue
    /// class. `OpId(0)` is never allocated — callers use it as a "no
    /// particular op" sentinel for aggregate stats — and maps to
    /// shard 0. Pure arithmetic: no router state, no lock.
    pub fn owner_of_op(shards: usize, op: OpId) -> usize {
        (op.0.saturating_sub(1) % shards.max(1) as u64) as usize
    }

    /// [`ShardRouter::owner_of_op`] over this router's shard count.
    pub fn shard_of_op(&self, op: OpId) -> usize {
        Self::owner_of_op(self.shards, op)
    }

    /// Residue-arithmetic demux for op-carrying messages: resolves
    /// every message that names an op (acks, chunks, reprocess events)
    /// from the shard count alone — no router state, so concurrent
    /// embeddings route the southbound hot path without any lock.
    /// `None` for the rare message that needs the subscription table.
    pub fn route_by_op(shards: usize, msg: &Message) -> Option<Route> {
        if let Some(op) = msg.op_id() {
            return Some(Route::Shard(Self::owner_of_op(shards, op)));
        }
        match msg {
            Message::EventMsg { event: Event::Reprocess { op, .. } } => {
                Some(Route::Shard(Self::owner_of_op(shards, *op)))
            }
            _ => None,
        }
    }

    /// Demux an incoming southbound message to its owning shard.
    pub fn route_message(&self, from: MbId, msg: &Message) -> Route {
        if let Some(route) = Self::route_by_op(self.shards, msg) {
            return route;
        }
        match msg {
            Message::EventMsg { event: Event::Introspection { .. } } => self
                .subs
                .iter()
                .find(|(m, _)| *m == from)
                .map(|&(_, s)| Route::Shard(s))
                .unwrap_or(Route::Broadcast),
            // A Batch is unpacked by the engine before routing; seeing
            // one here means an embedding skipped the unbatch helper.
            // Broadcast stays correct — a shard silently drops messages
            // whose sub-op it does not own — it just costs N deliveries.
            _ => Route::Broadcast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::IpPrefix;
    use std::net::Ipv4Addr;

    fn subnet(a: u8, b: u8, len: u8) -> HeaderFieldList {
        HeaderFieldList::from_src_subnet(IpPrefix::new(Ipv4Addr::new(a, b, 0, 0), len))
    }

    /// Two-sided subnet pattern (`src ∈ net ∧ dst ∈ net`): flows that
    /// stay inside one subnet, the shape tenant flowspaces take. Unlike
    /// one-sided patterns these are bidi-disjoint across disjoint
    /// subnets (no wildcard side for the reversal to slip through).
    fn within(a: u8, b: u8, len: u8) -> HeaderFieldList {
        let p = IpPrefix::new(Ipv4Addr::new(a, b, 0, 0), len);
        HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
    }

    /// Admit expecting an immediate run; returns the placed shard.
    fn run_shard(r: &ShardRouter, pattern: &HeaderFieldList, src: MbId, dst: MbId) -> usize {
        match r.admit(pattern, src, dst) {
            Admission::Run { shard, .. } => shard,
            d @ Admission::Defer { .. } => panic!("expected Run, got {d:?}"),
        }
    }

    #[test]
    fn overlapping_flowspaces_serialize_onto_one_shard() {
        let mut r = ShardRouter::new(4);
        let wide = subnet(10, 0, 8);
        let s0 = run_shard(&r, &wide, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + s0 as u64), wide, MbId(0), MbId(1), s0);
        // A /24 inside the live /8, on a pair sharing MB 1: must join
        // its shard even though its own hash would place it elsewhere.
        let narrow = subnet(10, 7, 24);
        assert_eq!(r.admit(&narrow, MbId(1), MbId(2)), Admission::Run { shard: s0, pinned: true });
        // Identical flowspace touching the live op's source MB: same.
        assert_eq!(r.admit(&wide, MbId(3), MbId(0)), Admission::Run { shard: s0, pinned: true });
    }

    #[test]
    fn disjoint_mb_pairs_never_conflict() {
        let mut r = ShardRouter::new(4);
        let wide = subnet(10, 0, 8);
        let s0 = run_shard(&r, &wide, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + s0 as u64), wide, MbId(0), MbId(1), s0);
        // The same flowspace on a disjoint MB pair shares no state —
        // state lives on middleboxes — so placement is pure hash.
        assert_eq!(
            r.admit(&wide, MbId(2), MbId(3)),
            Admission::Run { shard: r.hash_shard(&wide, MbId(2), MbId(3)), pinned: false }
        );
    }

    #[test]
    fn disjoint_flowspaces_spread_by_hash() {
        let mut r = ShardRouter::new(4);
        let a = within(10, 0, 16);
        let b = within(10, 1, 16); // adjacent /16 — disjoint, not overlapping
        let sa = run_shard(&r, &a, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + sa as u64), a, MbId(0), MbId(1), sa);
        // Same MB pair, disjoint flow ranges ⇒ the conflict scan must
        // not capture it: placement is pure hash.
        assert_eq!(
            r.admit(&b, MbId(0), MbId(1)),
            Admission::Run { shard: r.hash_shard(&b, MbId(0), MbId(1)), pinned: false }
        );
        // And at least these four standard bench subnets do spread.
        let shards: std::collections::HashSet<usize> = (0u8..4)
            .map(|i| {
                r.hash_shard(&within(10, i, 16), MbId(2 * u32::from(i)), MbId(2 * u32::from(i) + 1))
            })
            .collect();
        assert!(shards.len() > 1, "hash placement must actually spread: {shards:?}");
    }

    #[test]
    fn reversed_direction_counts_as_overlap() {
        let mut r = ShardRouter::new(4);
        let fwd = HeaderFieldList {
            nw_src: IpPrefix::new(Ipv4Addr::new(10, 9, 0, 0), 16),
            ..HeaderFieldList::any()
        };
        let s = run_shard(&r, &fwd, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + s as u64), fwd, MbId(0), MbId(1), s);
        // State is keyed by canonical flow key, so a pattern naming the
        // same subnet as *destination* can select the same chunks on a
        // shared middlebox.
        let rev = HeaderFieldList {
            nw_dst: IpPrefix::new(Ipv4Addr::new(10, 9, 0, 0), 16),
            nw_src: IpPrefix::new(Ipv4Addr::new(172, 16, 0, 0), 12),
            ..HeaderFieldList::any()
        };
        assert_eq!(r.admit(&rev, MbId(1), MbId(2)), Admission::Run { shard: s, pinned: true });
    }

    #[test]
    fn wraparound_and_adjacent_ranges_do_not_conflict() {
        let mut r = ShardRouter::new(4);
        // Top-of-address-space /24: adjacent to 0.0.0.0/24 only through
        // the wrap, which prefixes never cross. Same MB pair, so only
        // the flowspaces keep these apart.
        let top = {
            let p = IpPrefix::new(Ipv4Addr::new(255, 255, 255, 0), 24);
            HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
        };
        let bottom = {
            let p = IpPrefix::new(Ipv4Addr::new(0, 0, 0, 0), 24);
            HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
        };
        let st = run_shard(&r, &top, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + st as u64), top, MbId(0), MbId(1), st);
        assert_eq!(
            r.admit(&bottom, MbId(0), MbId(1)),
            Admission::Run { shard: r.hash_shard(&bottom, MbId(0), MbId(1)), pinned: false },
            "wrap-adjacent prefixes are disjoint: hash placement, not capture"
        );
        // But 0.0.0.0/0 on a pair sharing MB 1 overlaps both ends of
        // the space.
        let any = HeaderFieldList::any();
        assert_eq!(r.admit(&any, MbId(1), MbId(5)), Admission::Run { shard: st, pinned: true });
    }

    #[test]
    fn prune_releases_closed_transfers() {
        let mut r = ShardRouter::new(4);
        let wide = subnet(10, 0, 8);
        let s = run_shard(&r, &wide, MbId(0), MbId(1));
        r.register_transfer(OpId(1 + s as u64), wide, MbId(0), MbId(1), s);
        assert_eq!(r.active_transfers(), 1);
        r.prune(|_, _| true);
        assert_eq!(r.active_transfers(), 0);
        // With the table empty the overlapping /24 on a shared MB is
        // free to take its hash shard.
        let narrow = subnet(10, 7, 24);
        assert_eq!(
            r.admit(&narrow, MbId(1), MbId(2)),
            Admission::Run { shard: r.hash_shard(&narrow, MbId(1), MbId(2)), pinned: false }
        );
    }

    #[test]
    fn bridging_op_spanning_two_shards_defers() {
        let mut r = ShardRouter::new(4);
        // Two live transfers with disjoint flowspaces and disjoint MB
        // pairs, planted on different shards by hand.
        r.register_transfer(OpId(1), within(10, 0, 16), MbId(0), MbId(1), 0);
        r.register_transfer(OpId(2), within(10, 1, 16), MbId(2), MbId(3), 1);
        // A wildcard clone bridging MB 1 and MB 2 conflicts with both:
        // no single shard can serialize it, so it must defer, reserved
        // on the earliest conflicting transfer's shard and blocked on
        // the other.
        let any = HeaderFieldList::any();
        assert_eq!(
            r.admit(&any, MbId(1), MbId(2)),
            Admission::Defer { shard: 0, blockers: vec![(1, OpId(2))] }
        );
        // Once the shard-1 move closes (pruned), the same admission
        // collapses to a plain pin on shard 0.
        r.prune(|shard, _| shard == 1);
        assert_eq!(r.admit(&any, MbId(1), MbId(2)), Admission::Run { shard: 0, pinned: true });
    }

    #[test]
    fn drain_releasable_frees_ops_as_blockers_close() {
        let mut r = ShardRouter::new(4);
        r.push_deferred(OpId(5), 0, vec![(1, OpId(2)), (2, OpId(3))]);
        r.push_deferred(OpId(9), 2, vec![(1, OpId(2))]);
        assert!(r.has_deferred());
        // Nothing closed yet: both held, no releases.
        assert!(r.drain_releasable(|_, _| false).is_empty());
        assert_eq!(r.deferred_transfers(), 2);
        // The shard-1 blocker closes: the second entry's whole blocker
        // set is gone, the first still waits on shard 2.
        assert_eq!(r.drain_releasable(|shard, _| shard == 1), vec![(2, OpId(9))]);
        assert_eq!(r.deferred_transfers(), 1);
        // The remaining blocker closes too.
        assert_eq!(r.drain_releasable(|_, _| true), Vec::new());
        // ^ empty because `closed` answered true for the deferred op
        // itself as well — an op that died while held (deadline abort)
        // is swept, never released.
        assert!(!r.has_deferred());
    }

    #[test]
    fn drain_releasable_releases_in_admission_order() {
        let mut r = ShardRouter::new(2);
        r.push_deferred(OpId(3), 0, vec![(1, OpId(2))]);
        r.push_deferred(OpId(5), 1, vec![(0, OpId(1))]);
        let ready = r.drain_releasable(|_, op| op == OpId(1) || op == OpId(2));
        assert_eq!(ready, vec![(0, OpId(3)), (1, OpId(5))]);
    }

    #[test]
    fn drain_releasable_keeps_fifo_across_partial_releases() {
        // Three cross-shard deferrals queued in admission order, whose
        // blockers close at different sweeps — including a sweep where
        // a LATER entry becomes releasable while an earlier one still
        // waits. FIFO applies within each sweep's ready set; an entry
        // held back never jumps ahead of ops released before it.
        let mut r = ShardRouter::new(4);
        r.push_deferred(OpId(10), 0, vec![(1, OpId(2)), (2, OpId(3))]);
        r.push_deferred(OpId(11), 1, vec![(2, OpId(3))]);
        r.push_deferred(OpId(12), 2, vec![(3, OpId(4)), (1, OpId(2))]);
        assert_eq!(r.deferred_transfers(), 3);
        // Sweep 1: only blocker 4 closed — nobody frees, but entry 12's
        // blocker set shrinks to the shared blocker 2.
        assert!(r.drain_releasable(|_, op| op == OpId(4)).is_empty());
        assert_eq!(r.deferred_transfers(), 3);
        // Sweep 2: blocker 3 closes. Entry 11 is the only one fully
        // unblocked; 10 (queued BEFORE it) still waits on blocker 2
        // and must not ride along.
        assert_eq!(r.drain_releasable(|_, op| op == OpId(3)), vec![(1, OpId(11))]);
        assert_eq!(r.deferred_transfers(), 2);
        // Sweep 3: blocker 2 closes, unblocking 10 and 12 together —
        // released in their original admission order.
        assert_eq!(r.drain_releasable(|_, op| op == OpId(2)), vec![(0, OpId(10)), (2, OpId(12))]);
        assert!(!r.has_deferred());
    }

    #[test]
    fn wildcard_proto_is_tagged_not_a_sentinel_byte() {
        use openmb_types::Proto;
        let any_key = shard_key_bytes(&HeaderFieldList::any(), MbId(0), MbId(1));
        let tcp = HeaderFieldList { proto: Some(Proto::Tcp), ..HeaderFieldList::any() };
        let tcp_key = shard_key_bytes(&tcp, MbId(0), MbId(1));
        assert_ne!(any_key, tcp_key);
        // Proto sits after nw_src(5) + nw_dst(5) + two untagged "any"
        // ports (1 byte each): a 0 tag for wildcard, `[1, number]` for
        // concrete — never a bare 0xff sentinel, which would collide
        // with IP protocol 255 if it ever became representable.
        assert_eq!(any_key[12], 0);
        assert_eq!(&tcp_key[12..14], [1, Proto::Tcp.number()]);
    }

    #[test]
    fn op_residue_demux_is_total_and_stable() {
        let r = ShardRouter::new(4);
        for id in 1..=64u64 {
            assert_eq!(r.shard_of_op(OpId(id)), ((id - 1) % 4) as usize);
        }
        let single = ShardRouter::new(1);
        for id in 1..=8u64 {
            assert_eq!(single.shard_of_op(OpId(id)), 0);
        }
    }

    #[test]
    fn messages_route_by_op_residue() {
        let r = ShardRouter::new(4);
        assert_eq!(r.route_message(MbId(0), &Message::OpAck { op: OpId(3) }), Route::Shard(2));
        assert_eq!(
            r.route_message(MbId(0), &Message::PutAck { op: OpId(5), key: None }),
            Route::Shard(0)
        );
    }

    #[test]
    fn introspection_routes_by_subscription_owner() {
        use openmb_types::{FlowKey, Packet};
        let mut r = ShardRouter::new(4);
        r.note_subscription(MbId(7), 2);
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let intro =
            Message::EventMsg { event: Event::Introspection { code: 1, key, values: Vec::new() } };
        assert_eq!(r.route_message(MbId(7), &intro), Route::Shard(2));
        assert_eq!(r.route_message(MbId(8), &intro), Route::Broadcast);
        // Reprocess events carry the get sub-op: residue routing.
        let rep = Message::EventMsg {
            event: Event::Reprocess { op: OpId(6), key, packet: Packet::new(1, key, vec![]) },
        };
        assert_eq!(r.route_message(MbId(7), &rep), Route::Shard(1));
    }
}
