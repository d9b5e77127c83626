//! One state transfer's progress (§5, Figure 5): the get streams a
//! move, clone or merge opens at its source, the records they streamed,
//! and the put ledger — one ring of puts: a window in flight, a queue
//! behind it.
//!
//! [`Transfer`] does no I/O and keeps no clock or recorder: it returns
//! the seqs and messages to send, and the shard allocates sub-op ids,
//! sends and records spans, so every order the oracles read is decided
//! in `shard.rs`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

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
    /// sent, minus the reference), `None` if the records travelled. The
    /// put is measured, not built ([`wire::put_perflow_len`]).
    pub(crate) fn saved(&self) -> Option<u64> {
        let Body { chunk, rest, needed: false, .. } = self.body.as_ref()? else { return None };
        let put = wire::put_perflow_len(chunk, rest);
        Some(put.saturating_sub(wire::encoded_len(&self.msg)) as u64)
    }
}

/// The record keys one class's gets have streamed: a re-streamed record
/// is dropped, and the count is what a `GetAck` is held to.
///
/// Every kit middlebox exports in key order, so the keys are kept as a
/// strictly ascending run: a key above the last is pushed, with one
/// comparison and no hashing, and a re-stream after a resume is found by
/// binary search. A key that arrives below the last and is not in the
/// run goes to `overflow`, a keyed set (the keys are the source's), so an
/// unsorted stream costs a search more than a set alone.
#[derive(Clone, Default)]
pub(crate) struct Streamed {
    run: Vec<HeaderFieldList>,
    /// Keys below the run's last, none of them in the run.
    overflow: HashSet<HeaderFieldList>,
}

impl Streamed {
    /// Record `key`; false if it has streamed before.
    fn insert(&mut self, key: HeaderFieldList) -> bool {
        if self.run.last().is_none_or(|last| *last < key) {
            self.run.push(key);
            return true;
        }
        self.run.binary_search(&key).is_err() && self.overflow.insert(key)
    }

    fn contains(&self, key: &HeaderFieldList) -> bool {
        self.run.binary_search(key).is_ok() || self.overflow.contains(key)
    }

    fn len(&self) -> usize {
        self.run.len() + self.overflow.len()
    }

    fn iter(&self) -> impl Iterator<Item = &HeaderFieldList> {
        self.run.iter().chain(&self.overflow)
    }

    #[cfg(test)]
    fn check(&self) {
        assert!(self.run.is_sorted_by(|a, b| a < b), "the run is not strictly ascending");
        let last = self.run.last();
        for key in &self.overflow {
            assert!(self.run.binary_search(key).is_err(), "{key:?} in the run and the overflow");
            assert!(last.is_some_and(|last| key < last), "{key:?} not below the run's last");
        }
    }
}

/// A transfer's gets, streamed records and put ledger.
///
/// The ledger is one ring indexed by `seq - base`. Seqs are taken in
/// order and each is queued as it is taken, so slot `i` holds put
/// `base + i`: in flight below the admit cursor, queued at and above it,
/// or `None` once acked. Acked slots leave from the front, so the front
/// slot is always an open put and `base` is the lowest unacked seq.
#[derive(Clone, Default)]
pub(crate) struct Transfer {
    gets: Vec<Get>,
    /// Record keys streamed per [`Class`].
    streamed: [Streamed; 2],
    /// Keys of the puts in flight or queued, each with the number of
    /// those puts that carry it (a flow whose support and report records
    /// travel in two puts has two): their events wait. Built from the
    /// ring when an event is first judged or the op closes, and kept
    /// from then on; a transfer no event asks about never hashes a key.
    pending: Option<HashMap<HeaderFieldList, u32>>,
    /// Some put's key is not one exact flow, so the event predicate
    /// walks the sets instead of probing them.
    wild_keys: bool,
    /// Flow records transferred (not runs).
    chunks: usize,
    next_seq: u64,
    ring: VecDeque<Option<Put>>,
    /// The seq of the ring's front slot.
    base: u64,
    /// The next seq to admit into the window.
    admit: u64,
    /// Admitted puts not yet acked.
    in_flight: usize,
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
            if let Some(pending) = &mut self.pending {
                *pending.entry(*key).or_default() += 1;
            }
        }
        Some((self.take_seq(), chunk, rest))
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Queue put `seq`, the last seq taken, behind the window.
    pub(crate) fn enqueue(&mut self, seq: u64, put: Put) {
        debug_assert_eq!(seq, self.base + self.ring.len() as u64, "puts queue in seq order");
        self.ring.push_back(Some(put));
    }

    /// Admit the next queued put if the window (0: unbounded) has a free
    /// slot: its seq and the message to send.
    pub(crate) fn admit_next(&mut self, window: usize) -> Option<(u64, Message)> {
        if window != 0 && self.in_flight >= window {
            return None;
        }
        let seq = self.admit;
        let put = self.ring.get((seq - self.base) as usize)?.as_ref()?;
        let msg = put.msg.clone();
        self.admit += 1;
        self.in_flight += 1;
        Some((seq, msg))
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The ring slot of put `seq` if it has been admitted.
    fn admitted(&self, seq: u64) -> Option<usize> {
        (self.base..self.admit).contains(&seq).then(|| (seq - self.base) as usize)
    }

    /// The ring's admitted slots, in seq order: the puts in flight and
    /// the holes of the acked ones above the lowest.
    fn admitted_slots(&self) -> impl Iterator<Item = &Option<Put>> {
        self.ring.range(..(self.admit - self.base) as usize)
    }

    /// Accept the ack of put `seq`: `None` unless it is in flight, so a
    /// duplicate, or an ack for a put still queued behind the window,
    /// changes nothing. Its keys stop being pending unless another open
    /// put carries them.
    pub(crate) fn ack(&mut self, seq: u64) -> Option<Put> {
        let slot = self.admitted(seq)?;
        let put = self.ring[slot].take()?;
        self.in_flight -= 1;
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
        if let Some(pending) = &mut self.pending {
            for k in put.msg.run_keys() {
                if let Entry::Occupied(mut open) = pending.entry(*k) {
                    *open.get_mut() -= 1;
                    if *open.get() == 0 {
                        open.remove();
                    }
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
        let slot = self.admitted(seq)?;
        let body = self.ring[slot].as_mut()?.body.as_mut().filter(|b| b.hash == hash)?;
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
        self.gets_open() || !self.ring.is_empty()
    }

    pub(crate) fn chunks(&self) -> usize {
        self.chunks
    }

    pub(crate) fn can_resume(&self) -> bool {
        self.resumes_left > 0
    }

    /// Spend one resume: the lowest unacked seq, or `None` with no
    /// budget left. The caller re-sends [`Transfer::open_gets`] and
    /// [`Transfer::unacked`].
    pub(crate) fn resume(&mut self) -> Option<u64> {
        self.resumes_left = self.resumes_left.checked_sub(1)?;
        Some(self.base)
    }

    /// The requests of the gets whose streams are open.
    pub(crate) fn open_gets(&self) -> impl Iterator<Item = &Message> {
        self.gets.iter().filter(|g| !g.done).map(|g| &g.request)
    }

    /// The in-flight puts, in seq order.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &Message> {
        self.admitted_slots().flatten().map(|p| &p.msg)
    }

    /// Each key of the open puts with the number of them carrying it.
    fn count_open(&self) -> HashMap<HeaderFieldList, u32> {
        let mut counts = HashMap::new();
        for key in self.ring.iter().flatten().flat_map(|put| put.msg.run_keys()) {
            *counts.entry(*key).or_default() += 1;
        }
        counts
    }

    /// Build the pending index from the ring unless it is built.
    fn build_index(&mut self) {
        if self.pending.is_none() {
            self.pending = Some(self.count_open());
        }
    }

    /// Is a key matching `flow` carried by a put in flight or queued?
    /// Read off the pending index; before it is built, off the ring.
    pub(crate) fn pending(&self, flow: &FlowKey) -> bool {
        let Some(pending) = &self.pending else {
            let mut keys = self.ring.iter().flatten().flat_map(|put| put.msg.run_keys());
            return keys.any(|k| k.matches_bidi(flow));
        };
        match self.wild_keys {
            // With every key exact, only these two can match `flow`.
            false => [HeaderFieldList::exact(*flow), HeaderFieldList::exact(flow.reversed())]
                .iter()
                .any(|k| pending.contains_key(k)),
            true => pending.keys().any(|k| k.matches_bidi(flow)),
        }
    }

    /// Must an event for `flow` wait? While a matching key's put is
    /// unacked, or a get is open and has not streamed one: the put would
    /// overwrite it (§4.2.1). A streamed key not pending has been acked.
    /// The first call builds the pending index.
    pub(crate) fn holds(&mut self, flow: &FlowKey) -> bool {
        self.build_index();
        let both = [HeaderFieldList::exact(*flow), HeaderFieldList::exact(flow.reversed())];
        let streamed = |keys: &Streamed| match self.wild_keys {
            false => both.iter().any(|k| keys.contains(k)),
            true => keys.iter().any(|k| k.matches_bidi(flow)),
        };
        let [support, report] = &self.streamed;
        self.pending(flow) || (self.gets_open() && !streamed(support) && !streamed(report))
    }

    /// Assert the ring's and the streamed keys' invariants and, once the
    /// pending index is built, recompute each key's count from the ring
    /// and assert it is the one kept. Holds at every step before
    /// [`Transfer::abort`] or [`Transfer::close`].
    #[cfg(test)]
    pub(crate) fn check(&self) {
        let end = self.base + self.ring.len() as u64;
        assert!(self.base <= self.admit && self.admit <= end, "admit cursor outside the ring");
        assert_eq!(end, self.next_seq, "a taken seq is not queued");
        assert!(!matches!(self.ring.front(), Some(None)), "an acked slot at the front");
        let open = self.admitted_slots().flatten().count();
        assert_eq!(open, self.in_flight, "in-flight count is not the ring's");
        self.streamed.iter().for_each(Streamed::check);
        if let Some(pending) = &self.pending {
            assert_eq!(pending, &self.count_open(), "pending counts are not the ledger's");
        }
    }

    /// Add this transfer's ledger to `agg`. The acked seqs above the
    /// lowest unacked one are the holes among the admitted slots.
    pub(crate) fn add_ledger(&self, agg: &mut TransferLedgerStats) {
        let admitted = (self.admit - self.base) as usize;
        agg.puts_in_flight += self.in_flight;
        agg.puts_queued += self.ring.len() - admitted;
        agg.ack_set_size += admitted - self.in_flight;
        agg.bodies_in_flight += self
            .admitted_slots()
            .flatten()
            .filter(|p| p.body.as_ref().is_some_and(|b| b.needed))
            .count();
    }

    /// The op aborted: no get or put is outstanding any more and no event
    /// waits on a key. Followed by [`Transfer::close`].
    pub(crate) fn abort(&mut self) {
        self.gets.iter_mut().for_each(|g| g.done = true);
        self.pending = Some(HashMap::new());
    }

    /// The op closed: free the ledger, building the pending index from
    /// it first, so a retired op holds the events its open puts did, and
    /// return the open puts' sub-ops. The streamed keys stay while a get
    /// is open (`end_op` before completion): the event predicate reads
    /// them.
    pub(crate) fn close(&mut self) -> Vec<OpId> {
        self.build_index();
        let open = std::mem::take(&mut self.ring).into_iter().flatten();
        let subs = open.filter_map(|put| put.msg.op_id()).collect();
        (self.base, self.admit, self.in_flight) = (self.next_seq, self.next_seq, 0);
        if !self.gets_open() {
            self.streamed = Default::default();
            if self.pending.as_ref().is_some_and(HashMap::is_empty) {
                self.pending = Some(HashMap::new());
            }
        }
        subs
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::Ipv4Addr;

    use openmb_mb::{Effects, Middlebox};
    use openmb_middleboxes::{Ips, LoadBalancer, Monitor};
    use openmb_simnet::SimTime;
    use openmb_types::Packet;
    use proptest::prelude::*;

    use super::*;

    fn record(i: u16) -> StateChunk {
        let flow = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), i, Ipv4Addr::new(10, 0, 0, 2), 80);
        StateChunk::new(HeaderFieldList::exact(flow), EncryptedChunk::from_wire(vec![i as u8; 8]))
    }

    /// The exact key of flow `i`: flows 65 536 apart differ in source
    /// address, flows closer than that in source port.
    fn key(i: u32) -> HeaderFieldList {
        let src = Ipv4Addr::from(0x0a00_0000 | (i >> 16));
        HeaderFieldList::exact(FlowKey::tcp(src, i as u16, Ipv4Addr::new(10, 0, 0, 2), 80))
    }

    /// A transfer with `class`'s get (sub-op 2 or 3) open.
    fn one_get(class: Class) -> Transfer {
        let mut t = Transfer::new(0);
        let sub = OpId(2 + class as u64);
        t.open_get(sub, Message::GetSupportPerflow { op: sub, key: HeaderFieldList::any() });
        t
    }

    /// Admit `records` as the source cuts them, in runs of up to
    /// `RUN_FLOWS`, queueing a put for each run with something new.
    fn admit_records(t: &mut Transfer, class: Class, records: &[StateChunk]) {
        for run in records.chunks(wire::RUN_FLOWS) {
            let (first, rest) = run.split_first().expect("a run has a record");
            let sub = OpId(2 + class as u64);
            if let Some((seq, chunk, rest)) = t.admit_run(sub, class, first.clone(), rest.to_vec())
            {
                t.enqueue(seq, Put::full(class.put_perflow(OpId(1000 + seq), chunk, rest)));
            }
        }
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

    /// `saved` measures the put a reference stood in for without
    /// building it, and gets what building and encoding it gave; a
    /// needed reference saved nothing.
    #[test]
    fn saved_is_the_built_puts_length_minus_the_reference() {
        for class in [Class::Support, Class::Report] {
            for n in [1u16, 2, 16] {
                // Records of unequal sizes, as sealed records are.
                let recs: Vec<StateChunk> = (0..n)
                    .map(|i| {
                        let sealed = vec![i as u8; 20 + 7 * usize::from(i)];
                        StateChunk::new(record(i).key, EncryptedChunk::from_wire(sealed))
                    })
                    .collect();
                let (chunk, rest) = (recs[0].clone(), recs[1..].to_vec());
                let sub = OpId(1000 + u64::from(n));
                let put = Put::reference(sub, class, chunk.clone(), rest.clone());
                let built = wire::encoded_len(&class.put_perflow(sub, chunk, rest));
                let old = built.saturating_sub(wire::encoded_len(&put.msg)) as u64;
                assert_eq!(put.saved(), Some(old), "{class:?}, a run of {n}");
                let mut t = Transfer::new(0);
                let hash = match &put.msg {
                    Message::ChunkRef { hash, .. } => *hash,
                    other => panic!("{other:?}"),
                };
                t.enqueue(0, put);
                admit_all(&mut t, 1);
                assert!(t.need(0, sub, class, hash).is_some());
                assert_eq!(t.ack(0).expect("admitted").saved(), None);
            }
        }
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

    /// The order a key sequence arrives in.
    #[derive(Clone, Copy, Debug)]
    enum Order {
        Ascending,
        Descending,
        Shuffled,
        /// Ascending, cut after some keys and re-streamed from its start.
        Resumed,
    }

    proptest! {
        #[test]
        fn streamed_keys_answer_as_a_set_does(
            ids in proptest::collection::vec((0u32..4, 0u32..128), 0..300),
            order in prop_oneof![
                Just(Order::Ascending),
                Just(Order::Descending),
                Just(Order::Shuffled),
                Just(Order::Resumed),
            ],
            cut in any::<u16>(),
        ) {
            let mut keys: Vec<_> = ids.iter().map(|&(hi, lo)| key(hi << 16 | lo)).collect();
            match order {
                Order::Ascending => keys.sort(),
                Order::Descending => keys.sort_by(|a, b| b.cmp(a)),
                Order::Shuffled => {}
                Order::Resumed => {
                    keys.sort();
                    keys.dedup();
                    let first = keys[..usize::from(cut) % (keys.len() + 1)].to_vec();
                    keys.splice(..0, first);
                }
            }
            let (mut kept, mut model) = (Streamed::default(), HashSet::new());
            for k in &keys {
                prop_assert_eq!(kept.insert(*k), model.insert(*k), "{:?} {:?}", order, k);
                prop_assert_eq!(kept.len(), model.len());
                kept.check();
            }
            for hi in 0..5 {
                for lo in 0..130 {
                    let k = key(hi << 16 | lo);
                    prop_assert_eq!(kept.contains(&k), model.contains(&k), "{:?} {:?}", order, k);
                }
            }
        }
    }

    /// A descending stream goes to the overflow set key by key; the run
    /// keeps its first key, so nothing is inserted into its middle.
    #[test]
    fn a_descending_stream_leaves_the_run_at_its_first_key() {
        const N: u32 = 100_000;
        let mut t = one_get(Class::Support);
        let records: Vec<_> = (0..N)
            .rev()
            .map(|i| StateChunk::new(key(i), EncryptedChunk::from_wire(vec![0; 8])))
            .collect();
        admit_records(&mut t, Class::Support, &records);
        assert!(t.expect(OpId(2), Class::Support, N));
        assert!(!t.gets_open(), "every announced record streamed");
        let streamed = &t.streamed[Class::Support as usize];
        assert_eq!((streamed.len(), streamed.run.len()), (N as usize, 1));
        t.check();
    }

    /// The per-flow exports of real middleboxes arrive in key order, so
    /// every record of a get takes the run's push and no key reaches the
    /// overflow set. The flows share address pairs and differ in ports.
    #[test]
    fn middlebox_exports_take_the_sorted_run() {
        fn export<M: Middlebox>(name: &str, mut mb: M, pkts: &[Packet]) -> usize {
            mb.process_batch(SimTime(1), pkts, &mut Effects::normal());
            let mut exported = 0;
            for class in [Class::Support, Class::Report] {
                let mut records = Vec::new();
                let any = HeaderFieldList::any();
                let get = mb.export_perflow(class.wire(), OpId(2), &any, &mut |_, c| {
                    records.push(c);
                });
                if get.is_err() {
                    continue;
                }
                let mut t = one_get(class);
                admit_records(&mut t, class, &records);
                let streamed = &t.streamed[class as usize];
                assert_eq!(streamed.len(), records.len(), "{name} {class:?}");
                assert!(streamed.overflow.is_empty(), "{name} {class:?}: out of key order");
                t.check();
                exported += records.len();
            }
            exported
        }
        let vip = Ipv4Addr::new(10, 0, 0, 100);
        let pkts: Vec<_> = (1..=40u8)
            .flat_map(|h| (0..30).map(move |p| (h, p)))
            .enumerate()
            .map(|(i, (h, p))| {
                let flow = FlowKey::tcp(Ipv4Addr::new(10, 2, 0, h), 2000 + p, vip, 80);
                Packet::new(i as u64, flow, vec![0u8; 16])
            })
            .collect();
        let backends = [Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2)];
        assert!(export("monitor", Monitor::new(), &pkts) >= 1_000);
        assert!(export("ips", Ips::new(), &pkts) >= 1_000);
        // The balancer keeps one record per source host.
        assert_eq!(export("lb", LoadBalancer::new(vip, &backends), &pkts), 40);
    }

    /// How a walk ends early: `end_op` before completion closes the
    /// transfer with its puts still open; an abort is followed by the
    /// close.
    #[derive(Clone, Copy, Debug)]
    enum End {
        Close,
        Abort,
    }

    #[test]
    fn a_seeded_walk_keeps_the_ledger_invariants() {
        const W: usize = 3;
        const STEPS: u64 = 200;
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
            let mut streamed: [HashSet<HeaderFieldList>; 2] = Default::default();
            // The step whose event is the first judged, building the
            // pending index, and the step the walk ends at; either may
            // never come.
            let judge_at = next(STEPS + STEPS / 4);
            let end = match next(3) {
                0 => Some((next(STEPS), End::Close)),
                1 => Some((next(STEPS), End::Abort)),
                _ => None,
            };
            for step in 0..STEPS {
                if let Some((_, how)) = end.filter(|&(at, _)| at == step) {
                    // Closing hands over the sub-ops of the puts still open.
                    let seqs = in_flight.keys().chain(queued.keys());
                    let subs: Vec<_> = seqs.map(|seq| OpId(1000 + seq)).collect();
                    let closed = match how {
                        End::Close => t.close(),
                        End::Abort => {
                            t.abort();
                            open.clear();
                            in_flight.clear();
                            queued.clear();
                            t.close()
                        }
                    };
                    assert_eq!(closed, subs, "{how:?}");
                    assert!(t.pending.is_some(), "closing builds the pending index");
                    let pending = open_counts(&in_flight, &queued);
                    assert_events_judged(&mut t, true, &pending, !open.is_empty(), &streamed);
                    assert!((0..t.next_seq + 2).all(|seq| t.ack(seq).is_none()), "{how:?}");
                    assert_eq!(t.outstanding(), !open.is_empty(), "{how:?}");
                    break;
                }
                match next(16) {
                    0..=7 => {
                        // A run of up to 4 records; the classes' key pools
                        // overlap in 20..40, so a flow can be pending in
                        // both; duplicates within one run are likely.
                        let (sub, class) = gets[next(2) as usize];
                        let base = 20 * class as u16;
                        let keys: Vec<u16> =
                            (0..1 + next(4)).map(|_| base + next(40) as u16).collect();
                        // A closed get streams nothing more.
                        if open.contains(&sub) {
                            let new: Vec<_> = keys
                                .iter()
                                .map(|&k| record(k).key)
                                .filter(|k| streamed[class as usize].insert(*k))
                                .collect();
                            let seq = stream(&mut t, class, &keys, next(2) == 0);
                            assert_eq!(seq.is_some(), !new.is_empty());
                            if let Some(seq) = seq {
                                queued.insert(seq, new);
                            }
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
                        let count = streamed[class as usize].len() as u32 + next(3) as u32;
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
                    if expected.get(&sub).is_some_and(|&n| streamed[class as usize].len() >= n) {
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
                for (kept, model) in t.streamed.iter().zip(&streamed) {
                    assert_eq!(&kept.iter().copied().collect::<HashSet<_>>(), model);
                    assert_eq!(kept.len(), model.len());
                }
                if step == judge_at {
                    t.holds(&record(next(64) as u16).key.as_exact().expect("an exact key"));
                }
                assert_eq!(t.pending.is_some(), step >= judge_at, "built by the first event");
                t.check();
                // A key is pending once per open put carrying it, and a
                // streamed key no open put carries has been acked.
                let pending = open_counts(&in_flight, &queued);
                if let Some(index) = &t.pending {
                    assert_eq!(index, &pending);
                }
                for key in t.streamed.iter().flat_map(Streamed::iter) {
                    assert!(pending.contains_key(key) || acked_keys.contains(key), "{key:?}");
                }
                // Judging an event builds the index, so only once it is.
                let judge = t.pending.is_some();
                assert_events_judged(&mut t, judge, &pending, !open.is_empty(), &streamed);
                let base = (0..).find(|s| !acked.contains(s)).expect("unacked seq");
                let above = acked.range(base..).count();
                assert_eq!(ack_set_size(&t), if in_flight.is_empty() { 0 } else { above });
            }
        }
    }

    /// Every flow's event as the model judges it, over both classes' key
    /// pools and a few flows never streamed: pending while a put carrying
    /// it is open; held, when `judge`, also while a get is open and has
    /// not streamed it.
    fn assert_events_judged(
        t: &mut Transfer,
        judge: bool,
        pending: &HashMap<HeaderFieldList, u32>,
        gets_open: bool,
        streamed: &[HashSet<HeaderFieldList>; 2],
    ) {
        for i in 0..64 {
            let key = record(i).key;
            let flow = key.as_exact().expect("an exact key");
            assert_eq!(t.pending(&flow), pending.contains_key(&key), "flow {i}");
            let holds = pending.contains_key(&key)
                || gets_open && streamed.iter().all(|s| !s.contains(&key));
            if judge {
                assert_eq!(t.holds(&flow), holds, "flow {i}");
            }
        }
    }

    /// Each key of the model's open puts with the number carrying it.
    fn open_counts(
        in_flight: &BTreeMap<u64, Vec<HeaderFieldList>>,
        queued: &BTreeMap<u64, Vec<HeaderFieldList>>,
    ) -> HashMap<HeaderFieldList, u32> {
        let mut counts = HashMap::new();
        for key in in_flight.values().chain(queued.values()).flatten() {
            *counts.entry(*key).or_default() += 1;
        }
        counts
    }
}
