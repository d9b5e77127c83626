//! Chunk opacity: a keystream cipher middleboxes use to encrypt exported
//! per-flow/shared state (§4.1.2: "MBs can encrypt (decrypt) chunks of
//! per-flow supporting state before exporting (after importing) to
//! protect the state").
//!
//! **This is NOT a cryptographically secure cipher.** It is a
//! xoshiro256**-based keystream XOR, standing in for real authenticated
//! encryption. The design point being reproduced is *architectural*:
//! exported state is opaque to the controller and control applications,
//! and only a middlebox holding the same vendor key can interpret it.
//! The cipher also carries a checksum (the word-at-a-time kernel of
//! `openmb-store`, folded to 64 bits) so corrupted or wrong-key chunks
//! are detected on import (surfacing as `Error::MalformedChunk`).
//!
//! Middleboxes seal with [`seal_convergent`]: the nonce is a keyed mix
//! of the plaintext's checksum and length, so equal state seals to equal
//! bytes on every instance of a type (what lets a content store
//! recognise a body it has seen), and a keystream repeats only for equal
//! plaintexts — which is then all it reveals — or on a 64-bit checksum
//! collision. [`seal`] takes an explicit nonce.

use std::sync::Arc;

/// A symmetric "vendor key" shared by all instances of one middlebox type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorKey(pub [u8; 32]);

impl VendorKey {
    /// Derive a key from a middlebox type name; instances of the same
    /// type derive the same key, so state moves between them but is
    /// opaque to everything else.
    pub fn derive(mb_type: &str) -> Self {
        let mut k = [0u8; 32];
        let h = checksum(mb_type.as_bytes());
        for (i, chunk) in k.chunks_mut(8).enumerate() {
            let mut x = h.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x = splitmix64(&mut x);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        VendorKey(k)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** keystream generator.
struct Keystream {
    s: [u64; 4],
}

impl Keystream {
    fn new(key: &VendorKey, nonce: u64) -> Self {
        let mut seed = nonce ^ 0x5851_f42d_4c95_7f2d;
        let mut s = [0u64; 4];
        for (i, si) in s.iter_mut().enumerate() {
            let mut kw = [0u8; 8];
            kw.copy_from_slice(&key.0[i * 8..(i + 1) * 8]);
            *si = u64::from_le_bytes(kw) ^ splitmix64(&mut seed);
        }
        Keystream { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn xor_in_place(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let ks = self.next_u64().to_le_bytes();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let ks = self.next_u64().to_le_bytes();
            for (b, k) in rem.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// `dst = src ^ keystream`: [`xor_in_place`](Keystream::xor_in_place)
    /// on a copy of `src`, the copy made by the xor itself.
    fn xor_into(&mut self, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        let (mut from, mut to) = (src.chunks_exact(8), dst.chunks_exact_mut(8));
        for (s, d) in (&mut from).zip(&mut to) {
            let w = u64::from_le_bytes(s.try_into().expect("8 bytes")) ^ self.next_u64();
            d.copy_from_slice(&w.to_le_bytes());
        }
        let (from, to) = (from.remainder(), to.into_remainder());
        if !from.is_empty() {
            let ks = self.next_u64().to_le_bytes();
            for ((d, s), k) in to.iter_mut().zip(from).zip(ks) {
                *d = s ^ k;
            }
        }
    }
}

/// Checksum used to detect wrong-key decryption and corruption: the
/// four words of [`openmb_store::mix_words`] folded to 64 bits. NOT
/// cryptographic — a stand-in for an authentication tag. Each word is
/// a bijection of its own lane, so the xor changes whenever exactly one
/// word of the body does (any single flipped bit).
fn checksum(data: &[u8]) -> u64 {
    openmb_store::mix_words(data).into_iter().fold(0, |acc, w| acc ^ w)
}

/// Encrypt plaintext under `key` with a caller-chosen nonce, producing a
/// self-describing ciphertext: `nonce ‖ Enc(checksum ‖ body)`.
///
/// The checksum lives *inside* the encrypted region: decrypting with the
/// wrong key garbles it, so even a zero-length body fails verification
/// under any other key (a property-test-found bug in the earlier layout,
/// where `checksum("") == checksum("")` let empty chunks open anywhere).
pub fn seal(key: &VendorKey, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
    seal_summed(key, nonce, checksum(plaintext), plaintext)
}

/// [`seal`] under a nonce derived from `key` and the plaintext itself:
/// equal plaintexts seal to equal bytes under one key. The body is
/// walked once — its checksum feeds both the nonce and the sealed
/// header — and the layout is [`seal`]'s, so [`open`] reads either.
pub fn seal_convergent(key: &VendorKey, plaintext: &[u8]) -> Vec<u8> {
    let sum = checksum(plaintext);
    seal_summed(key, convergent_nonce(key, sum, plaintext.len()), sum, plaintext)
}

/// [`seal_convergent`] straight into the buffer a chunk keeps: one
/// shared allocation of the sealed size, and the plaintext is copied by
/// the keystream xor that encrypts it. Byte for byte
/// [`seal_convergent`]'s output.
pub fn seal_convergent_shared(key: &VendorKey, plaintext: &[u8]) -> Arc<[u8]> {
    let sum = checksum(plaintext);
    let nonce = convergent_nonce(key, sum, plaintext.len());
    // An exact-size iterator collects into one allocation of its size.
    let mut out: Arc<[u8]> = std::iter::repeat_n(0, 16 + plaintext.len()).collect();
    let buf = Arc::get_mut(&mut out).expect("a new Arc has one owner");
    buf[..8].copy_from_slice(&nonce.to_le_bytes());
    let mut ks = Keystream::new(key, nonce);
    buf[8..16].copy_from_slice(&(sum ^ ks.next_u64()).to_le_bytes());
    ks.xor_into(plaintext, &mut buf[16..]);
    out
}

/// The nonce of [`seal_convergent`]: one multiply-xorshift round (the
/// first stage of splitmix's finalizer) over the checksum and length,
/// whitened by key words on both sides, so without the key it gives
/// away neither the unkeyed checksum nor the length. It sits between
/// the checksum and the keystream on the critical path, so it is kept
/// to one round.
fn convergent_nonce(key: &VendorKey, sum: u64, len: usize) -> u64 {
    let word = |i: usize| u64::from_le_bytes(key.0[i * 8..][..8].try_into().expect("8 bytes"));
    let z = (sum ^ word(0) ^ (len as u64 ^ word(1)).rotate_left(32))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31) ^ word(2)
}

fn seal_summed(key: &VendorKey, nonce: u64, sum: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + plaintext.len());
    out.extend_from_slice(&nonce.to_le_bytes());
    let body_start = out.len();
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(plaintext);
    Keystream::new(key, nonce).xor_in_place(&mut out[body_start..]);
    out
}

/// Decrypt a ciphertext produced by [`seal`]. Returns `None` on truncation
/// or checksum mismatch (wrong key or corruption).
pub fn open(key: &VendorKey, ciphertext: &[u8]) -> Option<Vec<u8>> {
    let mut body = Vec::new();
    open_into(key, ciphertext, &mut body).then_some(body)
}

/// [`open`] into a buffer the caller keeps and reuses: on success `out`
/// holds the plaintext; on failure (false) its contents are garbage.
pub fn open_into(key: &VendorKey, ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    if ciphertext.len() < 16 {
        return false;
    }
    let nonce = u64::from_le_bytes(ciphertext[0..8].try_into().unwrap());
    // The checksum is one keystream word (the first), so it is
    // decrypted on its own and the body into `out`.
    let mut ks = Keystream::new(key, nonce);
    let want = u64::from_le_bytes(ciphertext[8..16].try_into().unwrap()) ^ ks.next_u64();
    out.resize(ciphertext.len() - 16, 0);
    ks.xor_into(&ciphertext[16..], out);
    checksum(out) == want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key = VendorKey::derive("prads");
        let pt = b"per-flow supporting state".to_vec();
        let ct = seal(&key, 42, &pt);
        assert_ne!(&ct[16..], &pt[..], "ciphertext must differ from plaintext");
        assert_eq!(open(&key, &ct).unwrap(), pt);
    }

    #[test]
    fn wrong_key_detected() {
        let k1 = VendorKey::derive("prads");
        let k2 = VendorKey::derive("bro");
        let ct = seal(&k1, 7, b"secret");
        assert!(open(&k2, &ct).is_none());
    }

    #[test]
    fn corruption_detected() {
        let key = VendorKey::derive("re");
        let mut ct = seal(&key, 1, b"cache entry");
        let last = ct.len() - 1;
        ct[last] ^= 0xff;
        assert!(open(&key, &ct).is_none());
    }

    #[test]
    fn truncated_rejected() {
        let key = VendorKey::derive("re");
        assert!(open(&key, &[0u8; 10]).is_none());
    }

    #[test]
    fn same_type_different_instances_share_key() {
        assert_eq!(VendorKey::derive("prads"), VendorKey::derive("prads"));
        assert_ne!(VendorKey::derive("prads"), VendorKey::derive("bro"));
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = VendorKey::derive("x");
        let ct = seal(&key, 0, b"");
        assert_eq!(open(&key, &ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn sealed_bytes_known_answer() {
        // Pins key derivation, keystream and the checksum fold together:
        // sealed chunks persist in a `FileContentStore`, so a change
        // here strands every chunk an earlier build sealed.
        let ct = seal(&VendorKey::derive("bro"), 7, b"per-flow supporting state");
        let want: [u8; 41] = [
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0xe6, 0x2f, 0x50, 0x92, 0x36,
            0x34, 0xba, 0x2c, 0x81, 0x99, 0x9d, 0x05, 0x5e, 0x91, 0xe3, 0x00, 0x9e, 0x98, 0xf0,
            0x05, 0x06, 0x81, 0x79, 0x87, 0x4f, 0x3c, 0xcd, 0xb5, 0x46, 0xeb, 0x6a, 0x6f,
        ];
        assert_eq!(ct, want);
    }

    #[test]
    fn convergent_sealed_bytes_known_answer() {
        // The convergent nonce rule pinned beside the explicit-nonce
        // layout above: same length, same layout, a derived nonce.
        let ct = seal_convergent(&VendorKey::derive("bro"), b"per-flow supporting state");
        let want: [u8; 41] = [
            0xda, 0x89, 0x47, 0xb7, 0xc9, 0xa6, 0x84, 0xf8, 0xcd, 0x1f, 0xdf, 0x70, 0x21, 0x71,
            0xa8, 0x76, 0x2a, 0x42, 0xe8, 0x33, 0x5a, 0x53, 0x98, 0x5d, 0x46, 0x96, 0x28, 0x92,
            0xf1, 0x98, 0xfc, 0x69, 0x0d, 0x85, 0x2b, 0xa4, 0x53, 0xbf, 0xb8, 0x74, 0xc9,
        ];
        assert_eq!(ct, want);
        let shared =
            seal_convergent_shared(&VendorKey::derive("bro"), b"per-flow supporting state");
        assert_eq!(shared[..], want);
    }

    #[test]
    fn convergent_seal_is_a_function_of_key_and_plaintext() {
        let (bro, prads) = (VendorKey::derive("bro"), VendorKey::derive("prads"));
        let ct = seal_convergent(&bro, b"state");
        assert_eq!(ct, seal_convergent(&bro, b"state"));
        assert_eq!(open(&bro, &ct).unwrap(), b"state");
        assert_ne!(ct[..8], seal_convergent(&bro, b"statf")[..8]);
        assert_ne!(ct[..8], seal_convergent(&prads, b"state")[..8]);
        assert!(open(&prads, &ct).is_none());
        // The nonce is keyed: it is not the plaintext's checksum.
        assert_ne!(ct[..8], checksum(b"state").to_le_bytes());
    }

    proptest::proptest! {
        /// The in-place seal is the reference layout, byte for byte, at
        /// every length a record has, under several keys.
        #[test]
        fn shared_seal_is_seal_convergent(
            len in 0usize..2048,
            fill in proptest::prelude::any::<u8>(),
            vendor in 0usize..4,
        ) {
            let key = VendorKey::derive(["bro", "prads", "re", ""][vendor]);
            let plain: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            let shared = seal_convergent_shared(&key, &plain);
            proptest::prop_assert_eq!(&shared[..], &seal_convergent(&key, &plain)[..]);
        }
    }

    #[test]
    fn open_into_agrees_with_open() {
        let (bro, prads) = (VendorKey::derive("bro"), VendorKey::derive("prads"));
        // One buffer across every case, holding the last case's bytes.
        let mut buf = vec![0xee; 3000];
        let mut check = |key: &VendorKey, ct: &[u8]| {
            let ok = open_into(key, ct, &mut buf);
            let want = open(key, ct);
            assert_eq!(ok, want.is_some(), "{} bytes", ct.len());
            if let Some(plain) = want {
                assert_eq!(buf, plain);
            }
        };
        for len in [0, 1, 7, 8, 9, 86, 1504, 2047] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let ct = seal_convergent(&bro, &plain);
            check(&bro, &ct);
            check(&prads, &ct);
            for at in [0, 8, 15, ct.len() - 1] {
                let mut flipped = ct.clone();
                flipped[at] ^= 0x10;
                check(&bro, &flipped);
            }
            for short in 0..16.min(ct.len()) {
                check(&bro, &ct[..short]);
            }
        }
    }

    #[test]
    fn empty_plaintext_rejected_under_wrong_key() {
        // Regression (found by proptest): the checksum must be inside
        // the encrypted region or empty chunks verify under any key.
        let k1 = VendorKey::derive("a");
        let k2 = VendorKey::derive("b");
        let ct = seal(&k1, 0, b"");
        assert!(open(&k2, &ct).is_none());
    }
}
