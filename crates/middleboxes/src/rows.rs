//! One table-driven test over every middlebox state row — the per-flow
//! records and the shared structures — and the helper the per-type
//! trailing-byte tests share.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Debug;
use std::net::Ipv4Addr;

use openmb_mb::{state, Record, Sealer, SyncTracker};
use openmb_types::codec::{self, Field, Label};
use openmb_types::{EncryptedChunk, FlowKey, HeaderFieldList, OpId, Proto};
use proptest::test_runner::TestRng;

use crate::firewall::ConnTrack;
use crate::ips::{self, ConnRecord, HttpAnalyzer, ScanEntry, ScanTable};
use crate::lb::Assignment;
use crate::monitor::AssetRecord;
use crate::nat::NatMapping;
use crate::proxy::{self, Cache, Cached};
use crate::re::PacketCache;

/// `chunk` sealed again under `vendor`'s key with one byte after its
/// plaintext.
pub(crate) fn with_trailing_byte(vendor: &str, chunk: &EncryptedChunk) -> EncryptedChunk {
    let sealer = Sealer::new(vendor);
    let mut plain = sealer.open(chunk).expect("a chunk of the vendor's own type");
    plain.push(0);
    sealer.seal(&plain)
}

/// Randomized field values.
struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }
    fn u64(&mut self) -> u64 {
        // Small and huge values both: every byte of a count or a length
        // gets exercised by the damage below either way.
        match self.below(3) {
            0 => self.below(300),
            _ => self.0.next_u64(),
        }
    }
    fn ip(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(self.0.next_u64() as u32)
    }
    fn key(&mut self) -> FlowKey {
        let key = FlowKey::tcp(self.ip(), self.u64() as u16, self.ip(), self.u64() as u16);
        let proto = [Proto::Tcp, Proto::Udp, Proto::Icmp][self.below(3) as usize];
        FlowKey { proto, ..key }
    }
    fn bytes(&mut self) -> Vec<u8> {
        (0..self.below(24)).map(|_| self.0.next_u64() as u8).collect()
    }
    fn string(&mut self) -> String {
        (0..self.below(12)).map(|_| char::from(b'a' + self.below(26) as u8)).collect()
    }
    fn list<T>(&mut self, most: u64, item: fn(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(most + 1)).map(|_| item(self)).collect()
    }
    /// The values a row is checked over.
    fn many<T>(&mut self, item: impl Fn(&mut Gen) -> T) -> Vec<T> {
        (0..24).map(|_| item(self)).collect()
    }
    fn conn_record(&mut self) -> ConnRecord {
        use ips::ConnState::*;
        let states = [S0, S1, Sf, Rst, Oth];
        ConnRecord {
            key: self.key(),
            start_ns: self.u64(),
            last_ns: self.u64(),
            state: states[self.below(5) as usize],
            history: self.string(),
            orig_pkts: self.u64(),
            resp_pkts: self.u64(),
            orig_bytes: self.u64(),
            resp_bytes: self.u64(),
            http: (self.below(2) == 0).then(|| self.http()),
            sig_tail: self.bytes(),
            fired: self.list(4, |g| g.below(40) as u32).into_iter().collect(),
        }
    }
    fn http(&mut self) -> HttpAnalyzer {
        HttpAnalyzer {
            requests: self.list(3, Gen::string),
            partial: self.bytes(),
            responses: self.u64(),
        }
    }
    fn scan_entry(&mut self) -> ScanEntry {
        let ports: BTreeSet<u16> = self.list(5, |g| g.below(1024) as u16).into_iter().collect();
        ScanEntry { ports, attempts: self.u64(), alerted: self.below(2) == 0 }
    }
    fn proxy_conn(&mut self) -> proxy::ConnState {
        proxy::ConnState { partial: self.bytes(), requests: self.u64() }
    }
    fn cached(&mut self) -> Cached {
        Cached { size: self.u64() as u32, hits: self.u64() }
    }
}

/// Every value decodes from its encoding, as itself, through the kit's
/// decode, and `encoded_len` is its encoding's length; every cut of an
/// encoding is refused; seeded bit flips and 4-byte windows set to
/// boundary counts never panic the decoder, and an input that decodes
/// re-encodes to itself. Returns how many damaged inputs decoded.
fn check<T: Field + PartialEq + Debug>(rng: &mut TestRng, values: &[T]) -> usize {
    let mut decoded = 0;
    for x in values {
        let enc = codec::encode(x);
        assert_eq!(codec::encoded_len(x), enc.len(), "{x:?}");
        assert_eq!(state::decode::<T>(&enc).as_ref(), Ok(x));
        for cut in 0..enc.len() {
            assert!(state::decode::<T>(&enc[..cut]).is_err(), "a {cut}-byte cut of {x:?}");
        }
        let mut damaged = |bad: &[u8]| {
            if let Ok(y) = state::decode::<T>(bad) {
                assert_eq!(codec::encode(&y), bad, "{y:?}");
                decoded += 1;
            }
        };
        for _ in 0..64 {
            let mut bad = enc.clone();
            bad[rng.below(enc.len() as u64) as usize] ^= 1 << rng.below(8);
            damaged(&bad);
        }
        for at in 0..enc.len().saturating_sub(3) {
            for v in [0, 1, 2, u32::MAX, 1_000_001, 10_000_001] {
                let mut bad = enc.clone();
                bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
                damaged(&bad);
            }
        }
    }
    decoded
}

/// A per-flow record stored under `key` exports as `row`'s encoding,
/// and `stats` counts that length without encoding it.
fn check_record<R: Record + Debug>(rec: R, key: FlowKey, row: Vec<u8>) {
    let (sealer, any) = (Sealer::new("rows"), HeaderFieldList::any());
    let table = HashMap::from([(key, rec)]);
    let chunks = state::export(&table, &sealer, &mut SyncTracker::new(), OpId(1), &any);
    assert_eq!(sealer.open(&chunks[0].data).unwrap(), row, "{:?}", table[&key]);
    assert_eq!(state::count(&table, &any), (1, row.len() + state::SEAL_OVERHEAD));
}

#[test]
fn every_state_row_decodes_only_its_own_encoding() {
    let mut rng = TestRng::from_name("every_state_row_decodes_only_its_own_encoding");
    let mut g = Gen(TestRng::from_name("every_state_row_values"));
    let conntrack: Vec<ConnTrack> =
        g.many(|g| ConnTrack { key: g.key(), packets: g.u64(), last_ns: g.u64() });
    let conns: Vec<ConnRecord> = g.many(Gen::conn_record);
    let assets: Vec<AssetRecord> = g.many(|g| AssetRecord {
        key: g.key(),
        first_seen_ns: g.u64(),
        last_seen_ns: g.u64(),
        packets: g.u64(),
        bytes: g.u64(),
        service: Label::new(&g.string()),
        os_guess: Label::new(&g.string()),
        http_requests: g.u64(),
    });
    let mappings: Vec<NatMapping> = g.many(|g| NatMapping {
        internal: g.key(),
        external_port: g.u64() as u16,
        last_used_ns: g.u64(),
        packets: g.u64(),
    });
    let proxy_conns: Vec<(FlowKey, proxy::ConnState)> = g.many(|g| (g.key(), g.proxy_conn()));
    for c in &conntrack {
        check_record(c.clone(), c.key.canonical(), codec::encode(c));
    }
    for c in &conns {
        check_record(c.clone(), c.key.canonical(), codec::encode(c));
    }
    for a in &assets {
        check_record(a.clone(), a.key.canonical(), codec::encode(a));
    }
    for m in &mappings {
        check_record(m.clone(), m.internal, codec::encode(m));
    }
    for (k, c) in &proxy_conns {
        check_record(c.clone(), k.canonical(), codec::encode(&(k.canonical(), c.clone())));
    }

    let decoded = [
        ("firewall ConnTrack", check(&mut rng, &conntrack)),
        ("ips ConnRecord", check(&mut rng, &conns)),
        ("ips HttpAnalyzer", check(&mut rng, &g.many(Gen::http))),
        ("ips ScanEntry", check(&mut rng, &g.many(Gen::scan_entry))),
        (
            "ips ScanTable",
            check(
                &mut rng,
                &g.many(|g| {
                    ScanTable(g.list(3, |g| (g.ip(), g.scan_entry())).into_iter().collect())
                }),
            ),
        ),
        (
            "lb Assignment",
            check(
                &mut rng,
                &g.many(|g| Assignment {
                    source: g.ip(),
                    backend: g.ip(),
                    connections: g.u64(),
                    last_used_ns: g.u64(),
                }),
            ),
        ),
        ("monitor AssetRecord", check(&mut rng, &assets)),
        ("nat NatMapping", check(&mut rng, &mappings)),
        ("nat cursor", check(&mut rng, &g.many(|g| g.u64() as u16))),
        ("proxy (key, ConnState)", check(&mut rng, &proxy_conns)),
        ("proxy ConnState", check(&mut rng, &g.many(Gen::proxy_conn))),
        ("proxy Cached", check(&mut rng, &g.many(Gen::cached))),
        (
            "proxy Cache",
            check(
                &mut rng,
                &g.many(|g| {
                    let objects: BTreeMap<String, Cached> =
                        g.list(3, |g| (g.string(), g.cached())).into_iter().collect();
                    Cache(objects)
                }),
            ),
        ),
        (
            "re PacketCache",
            check(
                &mut rng,
                &g.many(|g| {
                    let mut cache = PacketCache::new(16 + g.below(32) as usize);
                    cache.append(&g.bytes());
                    cache
                }),
            ),
        ),
    ];
    // Flips inside integers and blobs leave a decodable input behind; a
    // table that decoded none would not have checked re-encoding.
    for (row, n) in decoded {
        assert!(n > 0, "{row}: no damaged input decoded");
    }
}

/// `n` bytes of UTF-8 with one-, two- and three-byte characters in it,
/// padded with `a`.
fn label_text(n: usize) -> String {
    let mut s = String::new();
    for c in "aé€".chars().cycle() {
        if s.len() + c.len_utf8() > n {
            break;
        }
        s.push(c);
    }
    let pad = n - s.len();
    s + &"a".repeat(pad)
}

/// Monitor records with labels on both sides of [`Label::INLINE`]: the
/// row round-trips and refuses every cut (`check`), and a label whose
/// bytes are not UTF-8 is refused wherever it sits.
#[test]
fn asset_rows_hold_labels_inline_and_spilled() {
    let mut rng = TestRng::from_name("asset_rows_hold_labels_inline_and_spilled");
    let record = |service: &str, os_guess: &str| AssetRecord {
        key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, Ipv4Addr::new(192, 168, 1, 1), 80),
        first_seen_ns: 1,
        last_seen_ns: 2,
        packets: 3,
        bytes: 4,
        service: Label::new(service),
        os_guess: Label::new(os_guess),
        http_requests: 5,
    };
    for n in [0, Label::INLINE, Label::INLINE + 1, 300] {
        let text = label_text(n);
        assert_eq!(text.len(), n);
        let rows = [record(&text, ""), record("http", &text), record(&text, &text)];
        check(&mut rng, &rows);
        if n == 0 {
            continue; // no byte to spoil
        }
        // The service blob follows the key and four counters, the OS
        // guess the service.
        let service_at = codec::encoded_len(&rows[0].key) + 4 * 8 + 4;
        for (row, at) in [(&rows[0], service_at), (&rows[1], service_at + "http".len() + 4)] {
            let mut bad = codec::encode(row);
            assert_eq!(&bad[at..at + n], text.as_bytes(), "{row:?}");
            bad[at + n - 1] = 0xff;
            match state::decode::<AssetRecord>(&bad) {
                Err(openmb_types::Error::Codec(why)) => {
                    assert!(why.starts_with("bad utf8"), "{why}")
                }
                other => panic!("a {n}-byte label ending in 0xff: {other:?}"),
            }
        }
    }
}
