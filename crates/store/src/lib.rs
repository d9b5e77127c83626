//! Content-addressed chunk storage for state transfers.
//!
//! Transfers re-shipped every [`StateChunk`] byte-for-byte on every move,
//! even when the destination already held identical content from an
//! earlier failover or rebalance — exactly the redundancy the paper's RE
//! middlebox exists to eliminate on the data path. This crate provides
//! the destination-side half of the negotiate-then-reference protocol:
//! chunk bodies are keyed by a digest of their wire bytes, the source
//! sends `(key, hash)` references first, and only bodies the destination
//! is missing are streamed.
//!
//! Two implementations are provided: [`MemoryContentStore`] (a map under
//! a byte budget with least-recently-used eviction, dies with the
//! process) and [`FileContentStore`] (one file per entry, so the cache
//! survives MB restarts and re-sent chunks after a crash hit the cache
//! instead of re-streaming).
//!
//! [`StateChunk`]: https://docs.rs/openmb-types

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::fs;
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Number of bytes in a content hash.
pub const HASH_LEN: usize = 32;

/// A content hash: the address of a chunk body in a [`ContentStore`].
pub type ContentHash = [u8; HASH_LEN];

/// The one integrity kernel behind [`content_hash`] and the sealed-chunk
/// checksum of `openmb-types::crypto`: four finalized 64-bit words
/// digesting `data`.
///
/// **This is NOT a cryptographic hash.** The input is walked a word at
/// a time: each 32-byte block feeds four independent 64-bit lanes (word
/// `j` of a block goes to lane `j`, loaded little-endian so the value is
/// the same on every platform), and a trailing partial block is padded
/// with zeros. A lane step — xor the word in, rotate, multiply by an odd
/// constant — is a bijection of the lane for a fixed word and of the
/// word for a fixed lane, so changing any single word always changes
/// its lane. The rotate is there because a multiply only ever carries
/// a bit's influence upward: without it a flipped top bit of a word
/// would flip the lane's top bit and nothing else, and the same flip
/// one block later would cancel it. Each lane is then finalized through
/// splitmix64 with the input length and the lane index mixed in, so an
/// input and the same input plus trailing zero bytes never digest
/// alike.
///
/// The values are a persistent format: [`FileContentStore`] names its
/// files by them. Known-answer tests pin them.
pub fn mix_words(data: &[u8]) -> [u64; 4] {
    const BASES: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x6c62_272e_07bb_0142,
        0x07bb_0142_6c62_272e,
    ];
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    fn absorb(lanes: &mut [u64; 4], words: impl IntoIterator<Item = u64>) {
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ w).rotate_left(29).wrapping_mul(MUL);
        }
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut lanes = BASES;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        absorb(&mut lanes, block.chunks_exact(8).map(word));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        // The zero-padded last block, read in place: whole words as
        // they are, a partial last word as the input's last eight bytes
        // shifted down (zero-filled the slow way when the input is
        // shorter than a word). Copying the tail into a zeroed block
        // and loading words back stalls on store forwarding, and a
        // convergent seal's nonce waits for this digest.
        let mut words = [0u64; 4];
        let mut whole = tail.chunks_exact(8);
        for (w, b) in words.iter_mut().zip(&mut whole) {
            *w = word(b);
        }
        let part = whole.remainder();
        if !part.is_empty() {
            words[tail.len() / 8] = if data.len() >= 8 {
                word(&data[data.len() - 8..]) >> (8 * (8 - part.len()))
            } else {
                let mut b = [0u8; 8];
                b[..part.len()].copy_from_slice(part);
                u64::from_le_bytes(b)
            };
        }
        absorb(&mut lanes, words);
    }
    for (i, lane) in lanes.iter_mut().enumerate() {
        let mut z = lane
            .wrapping_add((data.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *lane = z ^ (z >> 31);
    }
    lanes
}

/// Digest chunk bytes into a 32-byte content address: the four words of
/// [`mix_words`], little-endian.
///
/// **This is NOT a cryptographic hash** — it stands in for BLAKE3
/// (unavailable here; no external dependencies). The design point being
/// reproduced is *architectural*: identical bodies collapse to one wire
/// transfer and the destination re-verifies the digest before trusting
/// a cached entry. Collision resistance against an adversary is out of
/// scope, as with the stand-in cipher in `openmb-types::crypto`.
pub fn content_hash(data: &[u8]) -> ContentHash {
    let mut out = [0u8; HASH_LEN];
    for (chunk, word) in out.chunks_exact_mut(8).zip(mix_words(data)) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Render a hash as lowercase hex (file names, logs).
pub fn hash_hex(hash: &ContentHash) -> String {
    let mut s = String::with_capacity(HASH_LEN * 2);
    for b in hash {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// A content-addressed store of chunk bodies.
///
/// Implementations must be safe to share across threads: the TCP
/// embedding serves frames from per-connection handler threads while the
/// MB applies state, and the store is the rendezvous point.
pub trait ContentStore: Send + Sync + Debug {
    /// Fetch the body stored under `hash`, if present. The bytes are
    /// shared with the store: a hit costs a refcount, not a copy.
    fn get(&self, hash: &ContentHash) -> Option<Arc<[u8]>>;

    /// Store `data` under its own content hash; returns that hash.
    fn put(&self, data: &[u8]) -> ContentHash {
        let hash = content_hash(data);
        self.insert_unchecked(hash, data.into());
        hash
    }

    /// True when a body is stored under `hash`.
    fn contains(&self, hash: &ContentHash) -> bool;

    /// Remove the entry under `hash`; returns true when one existed.
    fn evict(&self, hash: &ContentHash) -> bool;

    /// Store `data` under `hash` WITHOUT deriving or checking the hash
    /// here. Two callers: one that has just verified
    /// `content_hash(&data) == hash` itself and should not pay for a
    /// second walk of the body (the destination's `ChunkBody` arm), and
    /// fault injection filing a body under a hash it does not have
    /// (cache-poisoning tests). Readers must re-verify with
    /// [`content_hash`] before trusting an entry either way, which is
    /// what makes poisoning degrade to a cache miss rather than corrupt
    /// state.
    /// The store keeps `data` itself, shared, not a copy of it.
    fn insert_unchecked(&self, hash: ContentHash, data: Arc<[u8]>);

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// Body bytes currently stored, summed over entries.
    fn bytes(&self) -> usize;

    /// True when the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a [`MemoryContentStore`] may hold, in bytes charged: each
/// entry's body plus [`ENTRY_OVERHEAD`]. 16 MiB holds several
/// 2 048-flow IPS moves (≈ 3 MB of bodies each), so a move that resumes
/// or reverses soon after still finds its bodies.
pub const MEMORY_STORE_BUDGET: usize = 16 << 20;

/// Bytes charged per entry on top of its body: the hash key, the map
/// slot and the recency-index slot.
pub const ENTRY_OVERHEAD: usize = 96;

/// In-memory [`ContentStore`] under a byte budget
/// ([`MEMORY_STORE_BUDGET`]), evicting least-recently-used entries —
/// the bounded cache of SNIPPETS.md's PersistentCache. A [`get`] that
/// finds an entry refreshes its recency; `contains` does not. An entry
/// whose charge exceeds the whole budget is not stored, and any older
/// entry under its hash is removed, so a later reference to it misses.
/// A miss costs the body on the wire — the `ChunkNeed` path — never
/// correctness. Contents die with the process.
///
/// [`get`]: ContentStore::get
#[derive(Debug)]
pub struct MemoryContentStore {
    lru: Mutex<Lru>,
}

/// The map and its recency order. `order` holds `(stamp, hash)`
/// records oldest first, and `entries` each entry's current stamp: a
/// record whose stamp is no longer its entry's — refreshed, replaced or
/// removed since — is stale, and eviction skips it. (A deque pushed at
/// the back and popped at the front, not an ordered map: no node is
/// allocated or freed per insert, which on `move_live_1400B` was worth
/// ≈ 1 ms an op.) Stale records are swept out in one pass whenever they
/// could outnumber the live ones, so `order` stays O(entries).
#[derive(Debug)]
struct Lru {
    entries: HashMap<ContentHash, (Arc<[u8]>, u64)>,
    order: VecDeque<(u64, ContentHash)>,
    next_stamp: u64,
    /// Σ (body length + [`ENTRY_OVERHEAD`]) over `entries`.
    charged: usize,
    budget: usize,
}

impl Lru {
    /// Queue `hash` as the most recently used; returns the stamp its
    /// entry must carry for the record to count.
    fn touch(&mut self, hash: ContentHash) -> u64 {
        if self.order.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.order.retain(|(stamp, h)| entries.get(h).is_some_and(|e| e.1 == *stamp));
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((stamp, hash));
        stamp
    }

    fn remove(&mut self, hash: &ContentHash) -> bool {
        let Some((body, _)) = self.entries.remove(hash) else { return false };
        self.charged -= body.len() + ENTRY_OVERHEAD;
        true
    }
}

impl Default for MemoryContentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryContentStore {
    /// An empty store under [`MEMORY_STORE_BUDGET`].
    pub fn new() -> Self {
        Self::with_budget(MEMORY_STORE_BUDGET)
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().expect("a thread panicked holding the content store lock")
    }

    fn with_budget(budget: usize) -> Self {
        MemoryContentStore {
            lru: Mutex::new(Lru {
                entries: HashMap::new(),
                order: VecDeque::new(),
                next_stamp: 0,
                charged: 0,
                budget,
            }),
        }
    }
}

impl ContentStore for MemoryContentStore {
    fn get(&self, hash: &ContentHash) -> Option<Arc<[u8]>> {
        let lru = &mut *self.lru();
        if !lru.entries.contains_key(hash) {
            return None;
        }
        let stamp = lru.touch(*hash);
        let (body, at) = lru.entries.get_mut(hash).expect("checked above");
        *at = stamp;
        Some(Arc::clone(body))
    }

    fn contains(&self, hash: &ContentHash) -> bool {
        self.lru().entries.contains_key(hash)
    }

    fn evict(&self, hash: &ContentHash) -> bool {
        self.lru().remove(hash)
    }

    fn insert_unchecked(&self, hash: ContentHash, data: Arc<[u8]>) {
        let lru = &mut *self.lru();
        let charge = data.len() + ENTRY_OVERHEAD;
        if charge > lru.budget {
            lru.remove(&hash);
            return;
        }
        let stamp = lru.touch(hash);
        lru.charged += charge;
        if let Some((old, _)) = lru.entries.insert(hash, (data, stamp)) {
            lru.charged -= old.len() + ENTRY_OVERHEAD;
        }
        // The newest record is the last and its entry fits the budget
        // alone, so this stops before reaching it.
        while lru.charged > lru.budget {
            let (stamp, oldest) = lru.order.pop_front().expect("over budget: a live record");
            if lru.entries.get(&oldest).is_some_and(|e| e.1 == stamp) {
                lru.remove(&oldest);
            }
        }
    }

    fn len(&self) -> usize {
        self.lru().entries.len()
    }

    fn bytes(&self) -> usize {
        let lru = self.lru();
        lru.charged - lru.entries.len() * ENTRY_OVERHEAD
    }
}

/// File-backed [`ContentStore`]: one file per entry, named by the hex of
/// its hash, so the cache survives MB restarts. Writes go through a
/// `.tmp` sibling plus rename so a crash mid-write never leaves a
/// truncated entry under a valid name.
#[derive(Debug)]
pub struct FileContentStore {
    dir: PathBuf,
}

impl FileContentStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileContentStore { dir })
    }

    fn path_for(&self, hash: &ContentHash) -> PathBuf {
        self.dir.join(hash_hex(hash))
    }
}

impl ContentStore for FileContentStore {
    /// Reads the entry straight into the buffer it returns, sized from
    /// the file's metadata. A short read, or a file longer than its
    /// metadata said, is a miss.
    fn get(&self, hash: &ContentHash) -> Option<Arc<[u8]>> {
        let mut file = fs::File::open(self.path_for(hash)).ok()?;
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        file.read_exact(Arc::get_mut(&mut data)?).ok()?;
        matches!(file.read(&mut [0]), Ok(0)).then_some(data)
    }

    fn contains(&self, hash: &ContentHash) -> bool {
        self.path_for(hash).exists()
    }

    fn evict(&self, hash: &ContentHash) -> bool {
        fs::remove_file(self.path_for(hash)).is_ok()
    }

    fn insert_unchecked(&self, hash: ContentHash, data: Arc<[u8]>) {
        let path = self.path_for(&hash);
        let tmp = path.with_extension("tmp");
        // Best-effort: a failed disk write degrades to a cache miss on
        // the next lookup, never to an error on the transfer path.
        if fs::write(&tmp, &data).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }

    fn len(&self) -> usize {
        self.entries().count()
    }

    fn bytes(&self) -> usize {
        self.entries().filter_map(|e| e.metadata().ok()).map(|m| m.len() as usize).sum()
    }
}

impl FileContentStore {
    /// The entry files: everything in the spool but `.tmp` writes.
    fn entries(&self) -> impl Iterator<Item = fs::DirEntry> {
        let rd = fs::read_dir(&self.dir).into_iter().flatten();
        rd.filter_map(|e| e.ok()).filter(|e| e.path().extension().is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("openmb-store-{tag}-{}-{n}", std::process::id()))
    }

    /// The test body: byte `i` is `131 i + 89 (mod 256)`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 89) as u8).collect()
    }

    /// Known answers for [`mix_words`] over `pattern(len)`, computed by
    /// an independent implementation of the doc comment. The digest is
    /// a persistent format (`FileContentStore` file names, sealed-chunk
    /// checksums), so an edit to the kernel that moves any of these is
    /// a format change, not a refactor.
    #[rustfmt::skip]
    const KNOWN_ANSWERS: [(usize, [u64; 4]); 8] = [
        (0, [0x02c6_ee23_576d_f8ff, 0x26ab_8d77_fdd9_aca9, 0xc29a_09fd_bfb7_074e, 0x2879_d2cb_21ce_4d09]),
        (1, [0xcb60_c3ec_12d6_640b, 0x5af2_9b4f_5c88_3a73, 0x8558_4ed5_d2b6_4621, 0xdf85_3c17_b0bb_50c6]),
        (7, [0x1957_7e83_74fd_9a48, 0xed4e_d7da_222d_06d8, 0xd554_a48c_1333_834e, 0xcf5d_48d3_ac81_6ae9]),
        (8, [0xc324_ff16_5896_3741, 0x22a8_2ddb_5399_4f22, 0x6515_6504_b279_7468, 0x8fa1_acc0_ab56_e1e8]),
        (31, [0x7fb6_d06f_aaaf_4097, 0xb558_d1aa_43d5_79b6, 0xda76_2754_e28b_29e3, 0x4192_2319_c807_bbe0]),
        (32, [0x144c_0026_7022_627f, 0x6da7_b08e_1132_57d2, 0xda2f_11fe_db41_11b5, 0x94c8_61bd_bc0c_d0c3]),
        (33, [0xc980_f3c5_e50a_1afe, 0xfd00_20af_578f_d00f, 0xbbe2_3e8b_b13b_c9c6, 0xd8de_86f9_ca1a_b436]),
        (1520, [0x53d9_8b5b_ab53_ce1d, 0xc0f7_3bbd_5ca2_24e9, 0xe9fe_a671_c446_a9c7, 0x823a_db89_c9f8_ee76]),
    ];

    #[test]
    fn mix_words_known_answers() {
        for (len, want) in KNOWN_ANSWERS {
            assert_eq!(mix_words(&pattern(len)), want, "length {len}");
        }
        let bytes: Vec<u8> = KNOWN_ANSWERS[7].1.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(content_hash(&pattern(1520))[..], bytes, "the words, little-endian");
    }

    /// The doc comment's kernel as written: every block, the last one
    /// copied into a zeroed 32-byte buffer first.
    fn padded_reference(data: &[u8]) -> [u64; 4] {
        let mut padded = data.to_vec();
        padded.resize(data.len().div_ceil(32) * 32, 0);
        let mut lanes = [
            0xcbf2_9ce4_8422_2325,
            0x8422_2325_cbf2_9ce4,
            0x6c62_272e_07bb_0142,
            0x07bb_0142_6c62_272e,
        ];
        for (i, word) in padded.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            lanes[i % 4] = (lanes[i % 4] ^ w).rotate_left(29).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut z = lane
                .wrapping_add((data.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *lane = z ^ (z >> 31);
        }
        lanes
    }

    #[test]
    fn the_last_block_reads_as_zero_padded_at_every_length() {
        // The kernel reads a partial last word in place (the input's
        // last eight bytes, shifted) instead of copying the block; every
        // tail shape, and inputs shorter than a word, must digest as the
        // padded block does.
        for len in (0..=100).chain(1500..=1540) {
            let body = pattern(len);
            assert_eq!(mix_words(&body), padded_reference(&body), "length {len}");
            // A body ending in zero bytes: the shifted read must not
            // confuse them with the padding.
            let mut zeros = body.clone();
            zeros.iter_mut().rev().take(5).for_each(|b| *b = 0);
            assert_eq!(mix_words(&zeros), padded_reference(&zeros), "length {len}, zero tail");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let mut body = pattern(1520);
        let clean = content_hash(&body);
        for bit in 0..body.len() * 8 {
            body[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_hash(&body), clean, "bit {bit}");
            body[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn a_trailing_zero_byte_changes_the_hash() {
        // The tail is zero-padded, so within a block only the length in
        // the finalizer tells `x` from `x ‖ 0x00`.
        for len in 0..=64 {
            for mut x in [pattern(len), vec![0u8; len]] {
                let short = content_hash(&x);
                x.push(0);
                assert_ne!(content_hash(&x), short, "length {len}");
            }
        }
    }

    #[test]
    fn word_and_block_order_change_the_hash() {
        let body = pattern(1520);
        let clean = content_hash(&body);
        // Words 1 and 2 of block 3 go to different lanes.
        let mut swapped = body.clone();
        let (a, b) = (3 * 32 + 8, 3 * 32 + 16);
        for i in 0..8 {
            swapped.swap(a + i, b + i);
        }
        assert_ne!(content_hash(&swapped), clean, "two words of one block swapped");
        // Blocks 3 and 4 feed the same lanes in the other order.
        let mut swapped = body.clone();
        for i in 0..32 {
            swapped.swap(3 * 32 + i, 4 * 32 + i);
        }
        assert_ne!(content_hash(&swapped), clean, "two blocks swapped");
    }

    #[test]
    fn top_bit_flips_one_block_apart_do_not_cancel() {
        // What the rotate in the lane step is for: under a bare
        // xor-multiply these two flips leave every lane unchanged.
        let mut body = pattern(1520);
        let clean = content_hash(&body);
        for word in 0..4 {
            let (first, second) = (3 * 32 + word * 8 + 7, 4 * 32 + word * 8 + 7);
            body[first] ^= 0x80;
            body[second] ^= 0x80;
            assert_ne!(content_hash(&body), clean, "lane {word}");
            body[first] ^= 0x80;
            body[second] ^= 0x80;
        }
    }

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        let a = content_hash(b"chunk body");
        assert_eq!(a, content_hash(b"chunk body"));
        assert_ne!(a, content_hash(b"chunk bodz"));
        assert_ne!(a, content_hash(b"chunk bod"));
        assert_ne!(content_hash(b""), [0u8; HASH_LEN]);
    }

    #[test]
    fn hash_mixes_length_not_just_bytes() {
        // A prefix must not share the hash of the full buffer even when
        // the suffix is all zeros (zero bytes still advance the lanes,
        // but the length finalization is the documented guarantee).
        assert_ne!(content_hash(&[0u8; 8]), content_hash(&[0u8; 16]));
    }

    #[test]
    fn hash_hex_roundtrips_width() {
        let h = content_hash(b"x");
        let hex = hash_hex(&h);
        assert_eq!(hex.len(), HASH_LEN * 2);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn memory_store_roundtrip_and_evict() {
        let s = MemoryContentStore::new();
        assert!(s.is_empty());
        let h = s.put(b"hello");
        assert_eq!(h, content_hash(b"hello"));
        assert!(s.contains(&h));
        assert_eq!(s.get(&h).unwrap()[..], *b"hello");
        assert_eq!(s.len(), 1);
        assert!(s.evict(&h));
        assert!(!s.contains(&h));
        assert!(!s.evict(&h));
    }

    #[test]
    fn memory_store_poison_detectable_by_reverify() {
        let s = MemoryContentStore::with_budget(4 * (64 + ENTRY_OVERHEAD));
        let h = content_hash(b"real body");
        s.insert_unchecked(h, b"garbage"[..].into());
        // Churn that refreshes the poisoned entry keeps it resident —
        // and still wrong.
        for i in 0..8u8 {
            s.put(&[i; 64]);
            assert!(s.get(&h).is_some(), "a refreshed entry is not the eviction victim");
        }
        let fetched = s.get(&h).unwrap();
        assert_ne!(content_hash(&fetched), h, "re-verification must catch poison");
    }

    /// Σ (body + overhead) over what `s` holds, and the store's own view.
    fn charged(s: &MemoryContentStore) -> usize {
        let check = s.lru().charged;
        assert_eq!(s.bytes() + s.len() * ENTRY_OVERHEAD, check, "byte count drifted");
        check
    }

    #[test]
    fn memory_store_never_exceeds_its_budget() {
        let budget = 10_000;
        let s = MemoryContentStore::with_budget(budget);
        let mut bodies = 0;
        for i in 0..500usize {
            s.put(&pattern(1 + i * 37 % 900));
            bodies += 1 + i * 37 % 900;
            assert!(charged(&s) <= budget, "insert {i}");
        }
        assert!(s.len() > 1 && s.bytes() < bodies, "the budget must have evicted");
        let default = MemoryContentStore::new();
        assert_eq!(default.lru().budget, MEMORY_STORE_BUDGET);
    }

    #[test]
    fn memory_store_hit_refreshes_recency() {
        let s = MemoryContentStore::with_budget(3 * (100 + ENTRY_OVERHEAD));
        let [a, b, c, d] = [1u8, 2, 3, 4].map(|i| s.put(&[i; 100]));
        assert_eq!(s.len(), 3, "d evicted the oldest, a");
        assert!(!s.contains(&a) && s.contains(&d));
        // A hit on b makes c the least recently used; `contains` is a
        // probe and refreshes nothing.
        assert!(s.get(&b).is_some());
        assert!(s.contains(&c));
        let e = s.put(&[5; 100]);
        assert!(s.contains(&b) && !s.contains(&c) && s.contains(&d));
        // Refreshes without evictions leave stale records behind; they
        // are swept, so the recency queue stays within its bound, and the
        // order survives the sweeps: e is now the least recently used.
        for _ in 0..1000 {
            s.get(&d);
            s.get(&b);
        }
        let queued = s.lru().order.len();
        assert!(queued <= 2 * s.len() + 65, "{queued} records for {} entries", s.len());
        let f = s.put(&[6; 100]);
        assert!(!s.contains(&e) && s.contains(&b) && s.contains(&d) && s.contains(&f));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn memory_store_evict_and_replace_keep_the_byte_count_exact() {
        let s = MemoryContentStore::with_budget(1 << 20);
        let h = s.put(&[7; 300]);
        s.put(&[8; 50]);
        assert_eq!((s.bytes(), charged(&s)), (350, 350 + 2 * ENTRY_OVERHEAD));
        // Re-filing under the same hash replaces, it does not add.
        s.insert_unchecked(h, vec![0; 10].into());
        assert_eq!((s.len(), s.bytes()), (2, 60));
        assert!(s.evict(&h));
        assert!(!s.evict(&h));
        assert_eq!((s.len(), s.bytes(), charged(&s)), (1, 50, 50 + ENTRY_OVERHEAD));
    }

    #[test]
    fn memory_store_drops_an_entry_larger_than_its_budget() {
        let s = MemoryContentStore::with_budget(200 + 2 * ENTRY_OVERHEAD);
        let small = s.put(&[1; 20]);
        let h = s.put(&[2; 150]);
        assert_eq!(s.len(), 2);
        // Too big to ever fit: not stored, nothing else evicted for it,
        // and the entry it would have replaced is gone — a later lookup
        // misses and the body is streamed.
        s.insert_unchecked(h, vec![3; 201 + ENTRY_OVERHEAD].into());
        assert!(!s.contains(&h) && s.contains(&small));
        assert_eq!((s.len(), s.bytes()), (1, 20));
    }

    #[test]
    fn memory_store_shared_across_threads() {
        let s: Arc<dyn ContentStore> = Arc::new(MemoryContentStore::new());
        let mut handles = Vec::new();
        for i in 0..4u8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || s.put(&[i; 64])));
        }
        let hashes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(s.len(), 4);
        for (i, h) in hashes.iter().enumerate() {
            assert_eq!(s.get(h).unwrap()[..], [i as u8; 64]);
        }
    }

    #[test]
    fn file_store_roundtrip_and_evict() {
        let dir = temp_dir("roundtrip");
        let s = FileContentStore::open(&dir).unwrap();
        assert!(s.is_empty());
        let h = s.put(b"persisted body");
        assert!(s.contains(&h));
        assert_eq!(s.get(&h).unwrap()[..], *b"persisted body");
        assert_eq!((s.len(), s.bytes()), (1, 14));
        assert!(s.evict(&h));
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = temp_dir("reopen");
        let h = {
            let s = FileContentStore::open(&dir).unwrap();
            s.put(b"survives restart")
        };
        // A fresh handle over the same directory — models an MB restart.
        let s2 = FileContentStore::open(&dir).unwrap();
        assert_eq!(s2.get(&h).unwrap()[..], *b"survives restart");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_returns_the_stored_bytes_in_both_stores() {
        let body: Arc<[u8]> = pattern(1520).into();
        let hash = content_hash(&body);
        let dir = temp_dir("shared");
        let stores: [Box<dyn ContentStore>; 2] =
            [Box::new(MemoryContentStore::new()), Box::new(FileContentStore::open(&dir).unwrap())];
        for s in &stores {
            s.insert_unchecked(hash, Arc::clone(&body));
            let got = s.get(&hash).unwrap();
            assert_eq!(got, body, "{s:?}");
            assert_eq!(content_hash(&got), hash);
            assert!(s.get(&content_hash(b"absent")).is_none());
        }
        // The memory store keeps the buffer it was given and hands it
        // out again: a hit costs a refcount, not a copy.
        assert!(Arc::ptr_eq(&stores[0].get(&hash).unwrap(), &body));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_len_ignores_tmp_files() {
        let dir = temp_dir("tmpfiles");
        let s = FileContentStore::open(&dir).unwrap();
        s.put(b"entry");
        fs::write(dir.join("deadbeef.tmp"), b"partial").unwrap();
        assert_eq!(s.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
