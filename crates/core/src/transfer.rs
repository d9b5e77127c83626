//! One state transfer's progress (§5, Figure 5): the get streams a
//! move, clone or merge opens at its source, the records they streamed,
//! and the put ledger — a window of puts in flight, a queue behind it.
//!
//! [`Transfer`] does no I/O and keeps no clock or recorder: it returns
//! the seqs and messages to send, and the shard allocates sub-op ids,
//! sends and records spans, so every order the oracles read is decided
//! in `shard.rs`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use openmb_types::wire::{self, Message};
use openmb_types::{EncryptedChunk, FlowKey, HeaderFieldList, OpId, StateChunk};

use crate::shard::TransferLedgerStats;

/// The two classes every state exchange comes in (§4.1: supporting and
/// reporting state). Carried as data by the shard's sub-op roles that
/// differ in nothing else; the constructors below are the one place a
/// class picks its wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Class {
    Support,
    Report,
}

impl Class {
    pub(crate) fn wire(self) -> wire::ChunkClass {
        match self {
            Class::Support => wire::ChunkClass::Support,
            Class::Report => wire::ChunkClass::Report,
        }
    }

    pub(crate) fn put_perflow(self, op: OpId, chunk: StateChunk, rest: Vec<StateChunk>) -> Message {
        match self {
            Class::Support => Message::PutSupportPerflow { op, chunk, rest },
            Class::Report => Message::PutReportPerflow { op, chunk, rest },
        }
    }

    pub(crate) fn del_perflow(self, op: OpId, key: HeaderFieldList) -> Message {
        match self {
            Class::Support => Message::DelSupportPerflow { op, key },
            Class::Report => Message::DelReportPerflow { op, key },
        }
    }

    pub(crate) fn put_shared(self, op: OpId, chunk: EncryptedChunk) -> Message {
        match self {
            Class::Support => Message::PutSupportShared { op, chunk },
            Class::Report => Message::PutReportShared { op, chunk },
        }
    }
}

/// A get stream: its sub-op (what the source tags sync marks and events
/// with), the request resume re-sends, the count its `GetAck` announced.
#[derive(Clone)]
struct Get {
    sub: OpId,
    request: Message,
    expected: Option<u32>,
    done: bool,
}

/// One put of the ledger: its message and, behind a `ChunkRef`, the
/// records a `ChunkNeed` streams as a `ChunkBody`.
#[derive(Clone)]
pub(crate) struct Put {
    pub(crate) msg: Message,
    body: Option<Body>,
}

#[derive(Clone)]
struct Body {
    chunk: StateChunk,
    rest: Vec<StateChunk>,
    hash: [u8; 32],
    /// A `ChunkNeed` arrived; the body streams in its reference's slot.
    needed: bool,
}

impl Put {
    /// A put that carries its records (or a shared chunk).
    pub(crate) fn full(msg: Message) -> Self {
        Put { msg, body: None }
    }

    /// Negotiate-then-reference: a (keys, hash) entry takes the window
    /// slot and the records wait here.
    pub(crate) fn reference(
        sub: OpId,
        class: Class,
        chunk: StateChunk,
        rest: Vec<StateChunk>,
    ) -> Self {
        let hash = openmb_store::content_hash(&wire::run_content(&chunk.data, &rest));
        let keys = rest.iter().map(|c| c.key).collect();
        let msg =
            Message::ChunkRef { op: sub, class: class.wire(), key: chunk.key, hash, rest: keys };
        Put { msg, body: Some(Body { chunk, rest, hash, needed: false }) }
    }

    /// On the ack: the bytes a reference-only delivery saved (the put not
    /// sent, minus the reference), `None` if the records travelled.
    pub(crate) fn saved(self, sub: OpId) -> Option<u64> {
        let Body { chunk, rest, needed: false, .. } = self.body? else { return None };
        let put = Class::Support.put_perflow(sub, chunk, rest);
        Some(wire::encoded_len(&put).saturating_sub(wire::encoded_len(&self.msg)) as u64)
    }
}

/// A transfer's gets, streamed records and put ledger. Seqs are admitted
/// in order, so every seq below the first queued one was admitted, and
/// an admitted seq is acked exactly when it has left `in_flight`.
#[derive(Clone, Default)]
pub(crate) struct Transfer {
    gets: Vec<Get>,
    /// Record keys streamed per [`Class`]: a re-streamed record is
    /// dropped, and a class's count is what its `GetAck` is held to.
    streamed: [HashSet<HeaderFieldList>; 2],
    /// Keys of the puts in flight or queued, each with the number of
    /// those puts that carry it (a flow whose support and report records
    /// travel in two puts has two): their events wait.
    pending: HashMap<HeaderFieldList, u32>,
    /// Some pending key is not one exact flow, so the event predicate
    /// walks the sets instead of probing them.
    wild_keys: bool,
    /// Flow records transferred (not runs).
    chunks: usize,
    next_seq: u64,
    in_flight: BTreeMap<u64, Put>,
    queued: VecDeque<(u64, Put)>,
    resumes_left: u32,
}

impl Transfer {
    pub(crate) fn new(resumes: u32) -> Self {
        Transfer { resumes_left: resumes, ..Transfer::default() }
    }

    pub(crate) fn open_get(&mut self, sub: OpId, request: Message) {
        self.gets.push(Get { sub, request, expected: None, done: false });
    }

    /// The get sub-ops issued, in order.
    pub(crate) fn get_subs(&self) -> impl Iterator<Item = OpId> + '_ {
        self.gets.iter().map(|g| g.sub)
    }

    fn gets_open(&self) -> bool {
        self.gets.iter().any(|g| !g.done)
    }

    fn open_get_mut(&mut self, sub: OpId) -> Option<&mut Get> {
        self.gets.iter_mut().find(|g| g.sub == sub && !g.done)
    }

    /// Record the count get `sub`'s `GetAck` announced; false if the get
    /// has closed.
    pub(crate) fn expect(&mut self, sub: OpId, class: Class, count: u32) -> bool {
        let Some(g) = self.open_get_mut(sub) else { return false };
        g.expected = Some(count);
        self.finish_get(sub, class);
        true
    }

    /// Close per-flow get `sub` once its ack has come and as many records
    /// have streamed as it announced (a dropped run leaves it open).
    fn finish_get(&mut self, sub: OpId, class: Class) {
        let streamed = self.streamed[class as usize].len();
        if let Some(g) = self.open_get_mut(sub) {
            g.done = g.expected.is_some_and(|n| streamed >= n as usize);
        }
    }

    /// Close shared get `sub`, which yields at most one chunk; false if
    /// it had closed (shared puts merge, so a duplicate must not put).
    pub(crate) fn close_get(&mut self, sub: OpId) -> bool {
        self.open_get_mut(sub).map(|g| g.done = true).is_some()
    }

    /// A shared get's chunk: close the get and take the put's seq.
    pub(crate) fn admit_shared(&mut self, sub: OpId) -> Option<u64> {
        if !self.close_get(sub) {
            return None;
        }
        self.chunks += 1;
        Some(self.take_seq())
    }

    /// A run of get `sub`'s records: drop those streamed before (their
    /// puts, under the same sub ids, are in flight or acked), and take
    /// one seq for what is left, whose keys all become pending.
    pub(crate) fn admit_run(
        &mut self,
        sub: OpId,
        class: Class,
        chunk: StateChunk,
        mut rest: Vec<StateChunk>,
    ) -> Option<(u64, StateChunk, Vec<StateChunk>)> {
        let streamed = &mut self.streamed[class as usize];
        let first_new = streamed.insert(chunk.key);
        rest.retain(|c| streamed.insert(c.key));
        self.finish_get(sub, class);
        let chunk = match (first_new, rest.is_empty()) {
            (true, _) => chunk,
            (false, false) => rest.remove(0),
            (false, true) => return None,
        };
        self.chunks += 1 + rest.len();
        for key in std::iter::once(&chunk.key).chain(rest.iter().map(|c| &c.key)) {
            self.wild_keys |= key.as_exact().is_none();
            *self.pending.entry(*key).or_default() += 1;
        }
        Some((self.take_seq(), chunk, rest))
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Queue put `seq` behind the window.
    pub(crate) fn enqueue(&mut self, seq: u64, put: Put) {
        self.queued.push_back((seq, put));
    }

    /// Admit the next queued put if the window (0: unbounded) has a free
    /// slot: its seq and the message to send.
    pub(crate) fn admit_next(&mut self, window: usize) -> Option<(u64, Message)> {
        if window != 0 && self.in_flight.len() >= window {
            return None;
        }
        let (seq, put) = self.queued.pop_front()?;
        let msg = put.msg.clone();
        self.in_flight.insert(seq, put);
        Some((seq, msg))
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Accept the ack of put `seq`: `None` unless it is in flight, so a
    /// duplicate, or an ack for a put still queued behind the window,
    /// changes nothing. Its keys stop being pending unless another open
    /// put carries them.
    pub(crate) fn ack(&mut self, seq: u64) -> Option<Put> {
        let put = self.in_flight.remove(&seq)?;
        for k in put.msg.run_keys() {
            if let Entry::Occupied(mut open) = self.pending.entry(*k) {
                *open.get_mut() -= 1;
                if *open.get() == 0 {
                    open.remove();
                }
            }
        }
        Some(put)
    }

    /// A `ChunkNeed` for in-flight reference `seq` to `hash`: the
    /// `ChunkBody` to (re-)send, and whether this is its first need.
    pub(crate) fn need(
        &mut self,
        seq: u64,
        sub: OpId,
        class: Class,
        hash: [u8; 32],
    ) -> Option<(Message, bool)> {
        let body = self.in_flight.get_mut(&seq)?.body.as_mut().filter(|b| b.hash == hash)?;
        let first = !std::mem::replace(&mut body.needed, true);
        let msg = Message::ChunkBody {
            op: sub,
            class: class.wire(),
            key: body.chunk.key,
            hash,
            data: body.chunk.data.clone(),
            rest: body.rest.clone(),
        };
        Some((msg, first))
    }

    /// A get is open or a put is unacked.
    pub(crate) fn outstanding(&self) -> bool {
        self.gets_open() || !self.in_flight.is_empty() || !self.queued.is_empty()
    }

    pub(crate) fn chunks(&self) -> usize {
        self.chunks
    }

    pub(crate) fn can_resume(&self) -> bool {
        self.resumes_left > 0
    }

    /// Spend one resume: the window base, or `None` with no budget left.
    /// The caller re-sends [`Transfer::open_gets`] and
    /// [`Transfer::unacked`].
    pub(crate) fn resume(&mut self) -> Option<u64> {
        self.resumes_left = self.resumes_left.checked_sub(1)?;
        Some(self.in_flight.keys().next().copied().unwrap_or_else(|| self.admitted_end()))
    }

    /// The requests of the gets whose streams are open.
    pub(crate) fn open_gets(&self) -> impl Iterator<Item = &Message> {
        self.gets.iter().filter(|g| !g.done).map(|g| &g.request)
    }

    /// The in-flight puts, in seq order.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &Message> {
        self.in_flight.values().map(|p| &p.msg)
    }

    fn admitted_end(&self) -> u64 {
        self.queued.front().map_or(self.next_seq, |(seq, _)| *seq)
    }

    /// Must an event for `flow` wait? While a matching key's put is
    /// unacked, or a get is open and has not streamed one: the put would
    /// overwrite it (§4.2.1). A streamed key not pending has been acked.
    pub(crate) fn holds(&self, flow: &FlowKey) -> bool {
        // With every key exact, only these two can match `flow`.
        let both = [HeaderFieldList::exact(*flow), HeaderFieldList::exact(flow.reversed())];
        let pending = match self.wild_keys {
            false => both.iter().any(|k| self.pending.contains_key(k)),
            true => self.pending.keys().any(|k| k.matches_bidi(flow)),
        };
        let streamed = |keys: &HashSet<HeaderFieldList>| match self.wild_keys {
            false => both.iter().any(|k| keys.contains(k)),
            true => keys.iter().any(|k| k.matches_bidi(flow)),
        };
        let [support, report] = &self.streamed;
        pending || (self.gets_open() && !streamed(support) && !streamed(report))
    }

    /// Recompute each pending key's count from the ledger — the puts in
    /// flight and queued — and assert it is the one kept. Holds at every
    /// step except between [`Transfer::abort`] and [`Transfer::close`].
    #[cfg(test)]
    pub(crate) fn check(&self) {
        let mut counts: HashMap<HeaderFieldList, u32> = HashMap::new();
        let puts = self.in_flight.values().chain(self.queued.iter().map(|(_, put)| put));
        for key in puts.flat_map(|put| put.msg.run_keys()) {
            *counts.entry(*key).or_default() += 1;
        }
        assert_eq!(counts, self.pending, "pending counts are not the ledger's");
    }

    /// Add this transfer's ledger to `agg`. The acked seqs above the
    /// lowest unacked one are the admitted seqs there not in flight.
    pub(crate) fn add_ledger(&self, agg: &mut TransferLedgerStats) {
        agg.puts_in_flight += self.in_flight.len();
        agg.puts_queued += self.queued.len();
        if let Some(&base) = self.in_flight.keys().next() {
            agg.ack_set_size += (self.admitted_end() - base) as usize - self.in_flight.len();
        }
        agg.bodies_in_flight +=
            self.in_flight.values().filter(|p| p.body.as_ref().is_some_and(|b| b.needed)).count();
    }

    /// The op aborted: no get or put is outstanding any more and no event
    /// waits on a key. Followed by [`Transfer::close`].
    pub(crate) fn abort(&mut self) {
        self.gets.iter_mut().for_each(|g| g.done = true);
        self.pending.clear();
    }

    /// The op closed: free the ledger. The key sets stay while a get is
    /// open (`end_op` before completion): the event predicate reads them.
    pub(crate) fn close(&mut self) {
        self.in_flight = BTreeMap::new();
        self.queued = VecDeque::new();
        if !self.gets_open() {
            self.streamed = Default::default();
            if self.pending.is_empty() {
                self.pending = HashMap::new();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::Ipv4Addr;

    use super::*;

    fn record(i: u16) -> StateChunk {
        let flow = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), i, Ipv4Addr::new(10, 0, 0, 2), 80);
        StateChunk::new(HeaderFieldList::exact(flow), EncryptedChunk::from_wire(vec![i as u8; 8]))
    }

    /// Admit a run of `keys` from `class`'s get (sub-op 2 or 3) and, if
    /// anything of it is new, queue its put under sub-op `1000 + seq`: a
    /// reference when `by_ref`.
    fn stream(t: &mut Transfer, class: Class, keys: &[u16], by_ref: bool) -> Option<u64> {
        let (first, rest) = keys.split_first().expect("a run has a record");
        let rest = rest.iter().map(|&k| record(k)).collect();
        let (seq, chunk, rest) =
            t.admit_run(OpId(2 + class as u64), class, record(*first), rest)?;
        let sub = OpId(1000 + seq);
        let put = if by_ref {
            Put::reference(sub, class, chunk, rest)
        } else {
            Put::full(class.put_perflow(sub, chunk, rest))
        };
        t.enqueue(seq, put);
        Some(seq)
    }

    fn admit_all(t: &mut Transfer, window: usize) -> Vec<u64> {
        std::iter::from_fn(|| t.admit_next(window).map(|(seq, _)| seq)).collect()
    }

    fn ack_set_size(t: &Transfer) -> usize {
        let mut agg = TransferLedgerStats::default();
        t.add_ledger(&mut agg);
        agg.ack_set_size
    }

    #[test]
    fn acks_count_once_in_order_out_of_order_and_duplicated() {
        let mut t = Transfer::new(0);
        for k in 0..7 {
            stream(&mut t, Class::Support, &[k], false);
        }
        assert_eq!(admit_all(&mut t, 6), [0, 1, 2, 3, 4, 5]);
        // In order: the base moves and nothing is acked above it.
        assert!(t.ack(0).is_some() && t.ack(1).is_some());
        assert_eq!(ack_set_size(&t), 0);
        // Out of order: 4 and 3 are acked above the unacked 2.
        assert!(t.ack(4).is_some() && t.ack(3).is_some());
        assert_eq!(ack_set_size(&t), 2);
        // Duplicates of a seq below the base and of one above it, and an
        // ack for seq 6, still queued behind the window.
        assert!(t.ack(1).is_none() && t.ack(4).is_none() && t.ack(6).is_none());
        assert_eq!(ack_set_size(&t), 2);
        // Acking the base leaves nothing acked above the next unacked.
        assert!(t.ack(2).is_some());
        assert_eq!(ack_set_size(&t), 0);
        assert!(t.ack(2).is_none() && t.ack(4).is_none());
        assert_eq!(admit_all(&mut t, 6), [6]);
        assert!(t.ack(6).is_some() && t.ack(5).is_some());
        assert_eq!(ack_set_size(&t), 0);
        assert!(!t.outstanding());
    }

    /// A flow whose support and report records travel in two puts stays
    /// held until both are acked, whichever is acked first.
    #[test]
    fn a_key_pending_in_both_classes_is_held_until_both_puts_are_acked() {
        for first in [Class::Support, Class::Report] {
            let mut t = Transfer::new(0);
            let key = record(7).key;
            let flow = key.as_exact().expect("an exact key");
            let support = stream(&mut t, Class::Support, &[7], false).expect("new");
            let report = stream(&mut t, Class::Report, &[7], true).expect("new");
            assert_eq!(admit_all(&mut t, 0), [support, report]);
            t.check();
            let (acked, open) = match first {
                Class::Support => (support, report),
                Class::Report => (report, support),
            };
            assert!(t.ack(acked).is_some());
            t.check();
            assert!(t.holds(&flow), "{first:?} acked, the other put is in flight");
            assert!(t.ack(acked).is_none(), "a duplicate ack releases nothing");
            assert!(t.holds(&flow));
            assert!(t.ack(open).is_some());
            t.check();
            assert!(!t.holds(&flow));
        }
    }

    #[test]
    fn a_seeded_walk_keeps_the_ledger_invariants() {
        const W: usize = 3;
        let gets = [(OpId(2), Class::Support), (OpId(3), Class::Report)];
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for _ in 0..40 {
            let mut t = Transfer::new(1_000);
            for (sub, _) in gets {
                t.open_get(
                    sub,
                    Message::GetSupportPerflow { op: sub, key: HeaderFieldList::any() },
                );
            }
            // The model: puts in flight with their keys, seqs and keys acked.
            let mut in_flight: BTreeMap<u64, Vec<HeaderFieldList>> = BTreeMap::new();
            let mut queued: BTreeMap<u64, Vec<HeaderFieldList>> = BTreeMap::new();
            let (mut acked, mut acked_keys) = (BTreeSet::new(), HashSet::new());
            let mut open: BTreeSet<OpId> = gets.iter().map(|(sub, _)| *sub).collect();
            let mut expected: BTreeMap<OpId, usize> = BTreeMap::new();
            for _ in 0..200 {
                match next(16) {
                    0..=7 => {
                        // A run of up to 4 records; the classes' key pools
                        // overlap in 20..40, so a flow can be pending in
                        // both; duplicates within one run are likely.
                        let (sub, class) = gets[next(2) as usize];
                        if !open.contains(&sub) {
                            continue;
                        }
                        let base = 20 * class as u16;
                        let keys: Vec<u16> =
                            (0..1 + next(4)).map(|_| base + next(40) as u16).collect();
                        let before = t.streamed[class as usize].clone();
                        if let Some(seq) = stream(&mut t, class, &keys, next(2) == 0) {
                            let new =
                                keys.iter().map(|&k| record(k).key).filter(|k| !before.contains(k));
                            queued.insert(seq, new.collect::<HashSet<_>>().into_iter().collect());
                        }
                    }
                    8..=12 => {
                        // An ack for any seq: in flight, queued, acked or
                        // never issued. It counts exactly when in flight.
                        let seq = next(t.next_seq + 2);
                        let put = t.ack(seq);
                        assert_eq!(put.is_some(), in_flight.contains_key(&seq), "seq {seq}");
                        if put.is_some() {
                            assert!(acked.insert(seq), "seq {seq} acked twice");
                            acked_keys.extend(in_flight.remove(&seq).expect("in flight"));
                        }
                    }
                    13 => {
                        // A GetAck announcing up to two records more than
                        // have streamed: the get closes once they have.
                        let (sub, class) = gets[next(2) as usize];
                        let count = t.streamed[class as usize].len() as u32 + next(3) as u32;
                        assert_eq!(t.expect(sub, class, count), open.contains(&sub));
                        if open.contains(&sub) {
                            expected.insert(sub, count as usize);
                        }
                    }
                    _ => {
                        // Resume re-issues exactly the open gets and the
                        // unacked puts, from the lowest unacked seq.
                        let from = t.resume().expect("budget left");
                        let lowest = in_flight.keys().chain(queued.keys()).next().copied();
                        assert_eq!(from, lowest.unwrap_or(t.next_seq));
                        let gets: Vec<_> = t.open_gets().filter_map(Message::op_id).collect();
                        assert_eq!(gets, open.iter().copied().collect::<Vec<_>>());
                        let puts: Vec<_> = t.unacked().filter_map(Message::op_id).collect();
                        let model: Vec<_> = in_flight.keys().map(|s| OpId(1000 + s)).collect();
                        assert_eq!(puts, model);
                    }
                }
                for (sub, class) in gets {
                    if expected.get(&sub).is_some_and(|&n| t.streamed[class as usize].len() >= n) {
                        open.remove(&sub);
                    }
                }
                let gets_now: Vec<_> = t.open_gets().filter_map(Message::op_id).collect();
                assert_eq!(gets_now, open.iter().copied().collect::<Vec<_>>());
                for seq in admit_all(&mut t, W) {
                    let (first, keys) = queued.pop_first().expect("a queued put");
                    assert_eq!(first, seq, "admitted out of seq order");
                    in_flight.insert(seq, keys);
                }
                assert!(t.in_flight() <= W, "window exceeded: {}", t.in_flight());
                t.check();
                // A key is pending once per open put carrying it, and a
                // streamed key no open put carries has been acked.
                let mut pending: HashMap<HeaderFieldList, u32> = HashMap::new();
                for key in in_flight.values().chain(queued.values()).flatten() {
                    *pending.entry(*key).or_default() += 1;
                }
                assert_eq!(t.pending, pending);
                for key in t.streamed.iter().flatten() {
                    assert!(pending.contains_key(key) || acked_keys.contains(key), "{key:?}");
                }
                let base = (0..).find(|s| !acked.contains(s)).expect("unacked seq");
                let above = acked.range(base..).count();
                assert_eq!(ack_set_size(&t), if in_flight.is_empty() { 0 } else { above });
            }
        }
    }
}
