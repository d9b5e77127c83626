//! The MB-side state-export kit: the half of the southbound state
//! operations that is the same for every middlebox, written once.
//!
//! §7's claim is that OpenMB-enabling a middlebox takes modest changes
//! because the API is uniform. What is *not* uniform is small: how a
//! record is laid out in bytes, which patterns select it, and how two
//! pieces of shared state merge. A middlebox supplies those — a
//! [`Record`] impl per per-flow table, a codec and a merge rule per
//! shared structure — and this module decides everything else:
//!
//! * **order** — per-flow exports leave in table-key order, so map
//!   iteration order never reaches the wire;
//! * **sealing** — one [`Sealer`] per middlebox; a chunk's nonce is
//!   derived from the vendor key and its plaintext, so equal state
//!   seals to equal bytes on every instance of a type, whatever the
//!   instance exported before (what lets a destination's content store
//!   answer a repeat move);
//! * **marks** — every exported flow is marked moved and the pattern
//!   recorded once ([`export`]); an import or a delete clears the
//!   flow's mark ([`import`], [`delete`]); a snapshot marks nothing;
//! * **decoding** — one canonical decode of every chunk ([`decode`]):
//!   the row, and nothing after it;
//! * **accounting** — a chunk weighs its row's length plus
//!   [`SEAL_OVERHEAD`] ([`count`]);
//! * **counters** — additive `u64` blocks are encoded, merged (`+=`) and
//!   restored (replace, or reset to zero) by one codec.
//!
//! The tables stay the middlebox's own `HashMap`s: the packet path
//! touches them directly and never comes through here. What an MB does
//! for a state class it does not keep is decided once more, by the
//! provided methods of [`Middlebox`](crate::Middlebox).

use std::collections::HashMap;

use openmb_types::codec::{self, Field, Len, Reader, Sink, Writer};
use openmb_types::crypto::VendorKey;
use openmb_types::{EncryptedChunk, Error, FlowKey, HeaderFieldList, OpId, Result, StateChunk};

use crate::{SharedSnapshot, SyncTracker};

/// Bytes sealing adds to a serialized piece of state (nonce and
/// checksum): what `stats` adds per chunk.
pub const SEAL_OVERHEAD: usize = 16;

/// A middlebox's vendor key. Every chunk the MB exports — per-flow,
/// shared, snapshot — is sealed here, convergently: the nonce comes
/// from the key and the plaintext, so a chunk's bytes depend on its
/// state alone.
#[derive(Debug, Clone)]
pub struct Sealer {
    vendor: VendorKey,
    /// The plaintext buffer [`open_with`](Sealer::open_with) decrypts
    /// into, kept from put to put.
    plain: Vec<u8>,
}

impl Sealer {
    /// A sealer under the key derived from `vendor` (instances of one
    /// type share it).
    pub fn new(vendor: &str) -> Self {
        Sealer { vendor: VendorKey::derive(vendor), plain: Vec::new() }
    }

    /// Seal one serialized piece of state
    /// ([`EncryptedChunk::seal_convergent`]): straight into the chunk's
    /// own buffer, one allocation.
    pub fn seal(&self, plain: &[u8]) -> EncryptedChunk {
        EncryptedChunk::seal_convergent(&self.vendor, plain)
    }

    /// Open a chunk sealed by an instance of the same type.
    pub fn open(&self, chunk: &EncryptedChunk) -> Result<Vec<u8>> {
        chunk.open(&self.vendor)
    }

    /// `put*Perflow`'s open-then-decode: decrypt into the buffer this
    /// sealer keeps, check the checksum, then `decode` the record from
    /// it. A put allocates only what the decoded record holds.
    pub fn open_with<T>(
        &mut self,
        chunk: &EncryptedChunk,
        decode: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        chunk.open_into(&self.vendor, &mut self.plain)?;
        decode(&self.plain)
    }

    /// [`open_with`](Sealer::open_with) the kit's one decode: a `T`
    /// row, canonical and whole ([`decode`]).
    pub fn open_row<T: Field>(&mut self, chunk: &EncryptedChunk) -> Result<T> {
        self.open_with(chunk, decode)
    }

    /// [`open`](Sealer::open) for one half of a [`SharedSnapshot`].
    pub fn open_opt(&self, chunk: Option<EncryptedChunk>) -> Result<Option<Vec<u8>>> {
        chunk.map(|c| self.open(&c)).transpose()
    }

    /// `snapshot_shared`: the two shared gets without a sync window —
    /// each half sealed as a get seals it, nothing marked. `None` for a
    /// class the MB does not keep.
    pub fn snapshot(&self, support: Option<Vec<u8>>, report: Option<Vec<u8>>) -> SharedSnapshot {
        SharedSnapshot {
            support: support.map(|p| self.seal(&p)),
            report: report.map(|p| self.seal(&p)),
        }
    }
}

/// What is specific to one per-flow table: its records' row and which
/// patterns select them.
pub trait Record: Field {
    /// Serialize the record stored under `key` onto `s`: its row. A
    /// record that does not hold its key travels as the pair of both,
    /// and overrides this. An export clears and reuses one writer for
    /// all its records.
    fn encode<S: Sink>(&self, _key: &FlowKey, s: &mut S) {
        self.put(s);
    }

    /// Exact length of [`encode`](Record::encode)'s bytes, summed
    /// through [`Len`] with nothing written.
    fn encoded_len(&self, key: &FlowKey) -> usize {
        let mut n = Len(0);
        self.encode(key, &mut n);
        n.0
    }

    /// Does `pattern` select the record stored under `key`? Tables keyed
    /// by [`FlowKey::canonical`] match either direction (the default); a
    /// table keyed by one direction overrides this.
    fn selected(pattern: &HeaderFieldList, key: &FlowKey) -> bool {
        pattern.matches_bidi(key)
    }
}

/// State that is already bytes (the trace-replay dummy's), exported as
/// they are.
impl Record for Vec<u8> {
    fn encode<S: Sink>(&self, _key: &FlowKey, s: &mut S) {
        s.put_raw(self);
    }
}

/// `get*Perflow`: seal every record `pattern` selects, in key order,
/// marking each flow moved under `op` and the pattern in flight.
pub fn export<R: Record>(
    table: &HashMap<FlowKey, R>,
    sealer: &Sealer,
    sync: &mut SyncTracker,
    op: OpId,
    pattern: &HeaderFieldList,
) -> Vec<StateChunk> {
    export_with(table, sealer, sync, op, pattern, R::encode)
}

/// [`export`] with the serialization supplied by the caller, for an MB
/// that transforms records on the way out (compress-then-seal).
pub fn export_with<R: Record>(
    table: &HashMap<FlowKey, R>,
    sealer: &Sealer,
    sync: &mut SyncTracker,
    op: OpId,
    pattern: &HeaderFieldList,
    encode: impl Fn(&R, &FlowKey, &mut Writer),
) -> Vec<StateChunk> {
    let mut chunks = Vec::new();
    export_into(table, sealer, sync, op, pattern, encode, &mut |n, chunk| {
        chunks.reserve_exact(n - chunks.len());
        chunks.push(chunk);
    });
    chunks
}

/// The one export loop: select, sort by key, then mark and seal each
/// record and hand it to `out` with the number of records the export
/// holds, before the next is sealed
/// ([`Middlebox::export_perflow`](crate::Middlebox::export_perflow)).
/// The pattern is marked in flight once every record has gone.
///
/// A record costs one allocation, its sealed chunk: every record is
/// encoded into one writer, and sealed from it into the chunk's buffer.
/// The moved marks grow once, for all `n` records.
pub fn export_into<R: Record>(
    table: &HashMap<FlowKey, R>,
    sealer: &Sealer,
    sync: &mut SyncTracker,
    op: OpId,
    pattern: &HeaderFieldList,
    encode: impl Fn(&R, &FlowKey, &mut Writer),
    out: &mut dyn FnMut(usize, StateChunk),
) {
    // Sized for the whole table up front: a filtered collect would grow
    // the list once per doubling.
    let mut hits: Vec<(&FlowKey, &R)> = Vec::with_capacity(table.len());
    hits.extend(table.iter().filter(|(k, _)| R::selected(pattern, k)));
    hits.sort_unstable_by_key(|(k, _)| **k);
    let n = hits.len();
    sync.reserve_moved(n);
    let mut w = Writer::new();
    for (k, rec) in hits {
        sync.mark_moved(*k, op);
        w.clear();
        encode(rec, k, &mut w);
        out(n, StateChunk::new(HeaderFieldList::exact(*k), sealer.seal(w.as_slice())));
    }
    sync.mark_move_pattern(op, *pattern);
}

/// `put*Perflow`, after the MB has opened and decoded the chunk: the
/// record is live here again, so a stale moved mark (a move back after
/// a failed scale-down) goes before the record lands.
pub fn import<R>(table: &mut HashMap<FlowKey, R>, sync: &mut SyncTracker, key: FlowKey, rec: R) {
    sync.clear_flow(&key);
    table.insert(key, rec);
}

/// `del*Perflow`: remove every record `pattern` selects and clear its
/// moved mark. Each removed record goes to `removed` (an MB with a
/// secondary index unhooks it there; the others pass `drop`); returns
/// how many went, the reply.
pub fn delete<R: Record>(
    table: &mut HashMap<FlowKey, R>,
    sync: &mut SyncTracker,
    pattern: &HeaderFieldList,
    mut removed: impl FnMut(R),
) -> usize {
    let mut n = 0;
    for (k, rec) in table.extract_if(|k, _| R::selected(pattern, k)) {
        sync.clear_flow(&k);
        removed(rec);
        n += 1;
    }
    n
}

/// `stats`: `(chunks, bytes)` an [`export`] of `pattern` would produce,
/// each record's length summed from its row with nothing encoded.
pub fn count<R: Record>(table: &HashMap<FlowKey, R>, pattern: &HeaderFieldList) -> (usize, usize) {
    table
        .iter()
        .filter(|(k, _)| R::selected(pattern, k))
        .fold((0, 0), |(n, bytes), (k, rec)| (n + 1, bytes + rec.encoded_len(k) + SEAL_OVERHEAD))
}

/// The one decode of a state chunk's plaintext: a `T` row and nothing
/// after it. Only the bytes `T`'s row encodes to are accepted: a flag
/// other than 0 or 1, set or map keys out of order, a count past the
/// row's bound or bytes after the row are [`Error::MalformedChunk`]; a
/// plaintext too short for the row is a codec error, as on the wire.
pub fn decode<T: Field>(plain: &[u8]) -> Result<T> {
    codec::decode(plain, Error::MalformedChunk)
}

/// A block of additive counters: each `u64` in order, with no count.
struct Counters<const N: usize>([u64; N]);

impl<const N: usize> Field for Counters<N> {
    const WHAT: &'static str = "a counter block";

    fn put<S: Sink>(&self, s: &mut S) {
        self.0.iter().for_each(|c| c.put(s));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let mut vals = [0; N];
        for v in &mut vals {
            *v = u64::get(r)?;
        }
        Ok(Counters(vals))
    }
}

/// Serialize a block of additive counters. All three counter functions
/// take the same `[&mut u64; N]` view, so an MB lists its counters once.
pub fn encode_counters<const N: usize>(counters: [&mut u64; N]) -> Vec<u8> {
    codec::encode(&Counters(counters.map(|c| *c)))
}

fn decode_counters<const N: usize>(plain: &[u8]) -> Result<[u64; N]> {
    decode::<Counters<N>>(plain).map(|c| c.0)
}

/// `putReportShared` for additive counters: add the block in `plain`.
pub fn merge_counters<const N: usize>(counters: [&mut u64; N], plain: &[u8]) -> Result<()> {
    for (c, v) in counters.into_iter().zip(decode_counters::<N>(plain)?) {
        *c += v;
    }
    Ok(())
}

/// `restore_shared` for counters: replace them with the block in
/// `plain`, or reset them to zero when the snapshot held none.
pub fn replace_counters<const N: usize>(
    counters: [&mut u64; N],
    plain: Option<&[u8]>,
) -> Result<()> {
    let vals = plain.map_or(Ok([0; N]), decode_counters::<N>)?;
    for (c, v) in counters.into_iter().zip(vals) {
        *c = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow(i: u8) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(10, 0, 0, i), 1000, Ipv4Addr::new(192, 168, 0, 1), 80)
    }

    fn table(n: u8) -> HashMap<FlowKey, Vec<u8>> {
        (1..=n).map(|i| (flow(i), vec![i; usize::from(i)])).collect()
    }

    fn kit() -> (Sealer, SyncTracker) {
        (Sealer::new("kit-test"), SyncTracker::new())
    }

    #[test]
    fn export_seals_in_key_order_and_equal_state_to_equal_bytes() {
        let (sealer, mut sync) = kit();
        let t = table(9);
        let chunks = export(&t, &sealer, &mut sync, OpId(1), &HeaderFieldList::any());
        let keys: Vec<FlowKey> = chunks.iter().map(|c| c.key.as_exact().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(sealer.open(&c.data).unwrap(), t[&keys[i]]);
        }
        // A second instance of the type, which has sealed other state
        // first, seals the same table to the same bytes.
        let (other, mut other_sync) = kit();
        let _ = other.snapshot(Some(vec![7; 40]), Some(vec![0]));
        let again = export(&t, &other, &mut other_sync, OpId(2), &HeaderFieldList::any());
        assert_eq!(again, chunks);
        // Shared and per-flow chunks follow one rule.
        let shared = other.snapshot(None, Some(t[&flow(1)].clone())).report.unwrap();
        assert_eq!(shared, chunks[0].data);
    }

    #[test]
    fn instances_sealing_different_state_never_share_a_nonce() {
        // A shared nonce under the shared vendor key is a shared
        // keystream: the xor of two different plaintexts would leak.
        let (a, b) = (Sealer::new("kit-test"), Sealer::new("kit-test"));
        let nonce = |c: &EncryptedChunk| u64::from_le_bytes(c.as_wire()[..8].try_into().unwrap());
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u8 {
            assert!(seen.insert(nonce(&a.seal(&[i, 0xa]))), "instance a, chunk {i}");
            assert!(seen.insert(nonce(&b.seal(&[i, 0xb]))), "instance b, chunk {i}");
        }
    }

    #[test]
    fn export_reads_the_table_and_marks_flows_and_pattern() {
        let (sealer, mut sync) = kit();
        let t = table(4);
        let before = t.clone();
        let only = HeaderFieldList::from_src_subnet(openmb_types::IpPrefix::host(flow(2).src_ip));
        let chunks = export(&t, &sealer, &mut sync, OpId(7), &only);
        assert_eq!(chunks.len(), 1);
        assert_eq!(t, before);
        assert!(sync.is_moved(&flow(2)) && !sync.is_moved(&flow(3)));
        // The pattern is in flight: a flow it selects is not quiet even
        // though it was never exported.
        assert!(!sync.perflow_quiet(&flow(9)));
        sync.end_sync(OpId(7));
        assert!(sync.perflow_quiet(&flow(2)));
    }

    #[test]
    fn export_with_applies_the_callers_encoding() {
        let (sealer, mut sync) = kit();
        let chunks = export_with(
            &table(2),
            &sealer,
            &mut sync,
            OpId(1),
            &HeaderFieldList::any(),
            |rec, _, w| {
                rec.iter().rev().for_each(|&b| w.put_raw(&[b]));
                w.put_raw(&[0xff]);
            },
        );
        assert_eq!(sealer.open(&chunks[1].data).unwrap(), vec![2, 2, 0xff]);
    }

    #[test]
    fn open_with_decodes_from_one_reused_buffer() {
        let (mut sealer, _) = kit();
        let (big, small) = (sealer.seal(&[5; 300]), sealer.seal(&[6; 3]));
        assert_eq!(sealer.open_with(&big, |p| Ok(p.len())).unwrap(), 300);
        let kept = sealer.plain.capacity();
        assert_eq!(sealer.open_with(&small, |p| Ok(p.to_vec())).unwrap(), vec![6; 3]);
        assert_eq!(sealer.plain.capacity(), kept, "the buffer is kept, not reallocated");
        // Another type's chunk fails its checksum before `decode` runs.
        let theirs = Sealer::new("other-type").seal(&[6; 3]);
        let put =
            sealer.open_with(&theirs, |_| -> Result<()> { panic!("decoded unchecked bytes") });
        assert!(matches!(put, Err(openmb_types::Error::MalformedChunk(_))));
    }

    #[test]
    fn import_clears_a_stale_moved_mark() {
        let (sealer, mut sync) = kit();
        let mut t = table(2);
        export(&t, &sealer, &mut sync, OpId(1), &HeaderFieldList::any());
        assert!(sync.is_moved(&flow(1)));
        import(&mut t, &mut sync, flow(1), vec![42]);
        assert!(!sync.is_moved(&flow(1)) && sync.is_moved(&flow(2)));
        assert_eq!(t[&flow(1)], vec![42]);
    }

    #[test]
    fn delete_clears_marks_and_returns_what_it_removed() {
        let (sealer, mut sync) = kit();
        let mut t = table(3);
        export(&t, &sealer, &mut sync, OpId(1), &HeaderFieldList::any());
        // Either direction selects a canonically-keyed record.
        let reply_side = HeaderFieldList::exact(flow(2).reversed());
        let mut removed = Vec::new();
        assert_eq!(delete(&mut t, &mut sync, &reply_side, |r| removed.push(r)), 1);
        assert_eq!(removed, vec![vec![2, 2]]);
        assert_eq!(t.len(), 2);
        assert_eq!(sync.moved_count(), 2);
        assert_eq!(delete(&mut t, &mut sync, &HeaderFieldList::any(), drop), 2);
        assert_eq!((t.len(), sync.moved_count()), (0, 0));
    }

    #[test]
    fn count_is_chunks_and_sealed_bytes() {
        let t = table(3);
        assert_eq!(count(&t, &HeaderFieldList::any()), (3, 1 + 2 + 3 + 3 * SEAL_OVERHEAD));
        assert_eq!(count(&t, &HeaderFieldList::exact(flow(3))), (1, 3 + SEAL_OVERHEAD));
        let (sealer, mut sync) = kit();
        let sealed: usize = export(&t, &sealer, &mut sync, OpId(1), &HeaderFieldList::any())
            .iter()
            .map(|c| c.data.len())
            .sum();
        assert_eq!(sealed, count(&t, &HeaderFieldList::any()).1);
    }

    #[test]
    fn counter_block_merges_by_adding_and_restores_by_replacing() {
        let (mut a, mut b) = (3u64, 5u64);
        let plain = encode_counters([&mut a, &mut b]);
        assert_eq!(plain.len(), 16);
        merge_counters([&mut a, &mut b], &plain).unwrap();
        assert_eq!((a, b), (6, 10));
        replace_counters([&mut a, &mut b], Some(&plain)).unwrap();
        assert_eq!((a, b), (3, 5));
        replace_counters([&mut a, &mut b], None).unwrap();
        assert_eq!((a, b), (0, 0));
        // A short block is refused whole.
        (a, b) = (1, 2);
        assert!(merge_counters([&mut a, &mut b], &plain[..12]).is_err());
        assert!(replace_counters([&mut a, &mut b], Some(&plain[..12])).is_err());
        assert_eq!((a, b), (1, 2));
    }

    /// The kit's one decode takes a row and nothing after it: what the
    /// row would never write is a malformed chunk, a plaintext too
    /// short for it a codec error, as on the wire.
    #[test]
    fn decode_takes_the_whole_row_and_nothing_else() {
        let (mut a, mut b) = (3u64, 5u64);
        let plain = encode_counters([&mut a, &mut b]);
        let longer = [&plain[..], &[0]].concat();
        let why = |r: Result<()>| match r {
            Err(Error::MalformedChunk(why)) => why,
            r => panic!("{r:?}"),
        };
        assert_eq!(
            why(merge_counters([&mut a, &mut b], &longer)),
            "trailing bytes after a counter block"
        );
        assert!(matches!(decode::<Counters<2>>(&plain[..15]), Err(Error::Codec(_))));
        assert_eq!(why(decode::<Option<u64>>(&[2]).map(drop)), "bad flag byte 2");
        let unsorted = [&2u32.to_le_bytes()[..], &[7, 0, 5, 0]].concat();
        let set = decode::<std::collections::BTreeSet<u16>>(&unsorted);
        assert_eq!(why(set.map(drop)), "keys out of order");
        assert_eq!((a, b), (3, 5), "a refused block adds nothing");
    }

    #[test]
    fn snapshot_seals_each_half_as_seal_does() {
        let (sealer, _) = kit();
        let snap = sealer.snapshot(Some(vec![1]), Some(vec![2]));
        assert_eq!(snap.support, Some(sealer.seal(&[1])));
        assert_eq!(snap.report, Some(sealer.seal(&[2])));
        assert_ne!(snap.support, snap.report);
        assert_eq!(sealer.open_opt(snap.report).unwrap(), Some(vec![2]));
        assert_eq!(sealer.open_opt(None).unwrap(), None);
        assert_eq!(sealer.snapshot(None, None), SharedSnapshot::default());
    }
}
