//! A flow-state intrusion detection system — the Bro [24] stand-in.
//!
//! §7: "Bro maintains a `Connection` object, and a tree of associated
//! objects, for each flow." Our [`ConnRecord`] reproduces that shape —
//! a TCP connection state machine, per-direction counters, a nested HTTP
//! analyzer, and a cross-packet signature-matching tail — and its
//! serialization walks the whole tree (the paper added libboost
//! serialization to >100 classes; our record nests several structs and
//! pays the corresponding cost model).
//!
//! State classes:
//! * **per-flow supporting**: the connection records (what `moveInternal`
//!   moves in the live-migration experiments);
//! * **shared supporting**: the scan-detector table (per-source fan-out
//!   counts) — the kind of cross-flow state Split/Merge cannot handle
//!   (§2.1);
//! * **shared reporting**: counters of alerts raised and connections
//!   logged, merged additively.
//!
//! External side effects: `conn.log` lines on connection termination,
//! `http.log` lines per request, and `alert` lines from the signature
//! engine and scan detector — the §8.2 correctness experiments diff
//! exactly these.
//!
//! **Signature engine.** `rules/signatures` is compiled into one
//! Aho-Corasick automaton ([`SigMatcher`]) where config is written
//! (`new`, `set_config`, `del_config`), never where packets are read, so
//! a packet is scanned once whatever the number of signatures and the
//! packet path parses no config. A single walk of a dense DFA is a chain
//! of dependent loads (each table index needs the previous entry), so a
//! long payload is cut into four overlapping lanes stepped in one loop:
//! lanes after the first start `reach` bytes (the longest signature less
//! one) early from the root, which is enough to see every occurrence
//! that ends in their part, and the four independent chains keep the
//! load ports busy. Short input takes the single walk.
//!
//! Most payloads never reach the lanes: a pair filter (Wu and Manber's
//! block idea, with the automaton as verifier) skips the bytes that
//! cannot hold a signature. Compiling also records every adjacent byte
//! pair of every signature in a 2^16-bit set, and the probe stride `d`,
//! the shortest non-empty signature less one byte. An occurrence spans
//! at least `d` pair positions, so it holds one of its own pairs at a
//! multiple of `d`. [`SigMatcher::scan`] first walks the seam, the
//! carried tail then the first `reach` payload bytes, from the root:
//! every occurrence that starts in the tail ends there. It then probes
//! the pairs at `0, d, 2d, …`. Where a pair is in the set, every
//! occurrence holding it lies within `reach` bytes of it, and the
//! automaton walks that window. A window that overlaps the walk so far
//! continues it, so no byte is walked twice. Once windows hold one byte
//! in eight of those probed, the rest of the payload goes to the lanes
//! from the state reached. The probes are independent loads, with no
//! chain between them. The filter engages when the shortest signature
//! has three bytes or more; with a shorter one every byte goes to the
//! lanes, and with none nothing is walked.
//!
//! The automaton state is *not* per-flow state: a record carries the
//! last `reach` payload bytes (`sig_tail`) instead, walked ahead of
//! the next payload, so the record format knows nothing of the
//! matcher and an exported record means the same to an instance
//! compiled from other rules.
//!
//! **HTTP analyzer.** A request line ends at the first CRLF or
//! `HTTP/1.1`; a hit consumes the whole buffer. `partial` therefore
//! never holds either terminator once a packet has been handled, and a
//! terminator can only end inside the bytes the next packet appends:
//! searching from one (seven) bytes before them finds exactly what a
//! search of the whole buffer would. With nothing buffered the payload
//! is searched in place and copied into `partial` only when no line ends
//! in it, so a flow whose packets each end their line never writes its
//! buffer. An unterminated line is cut at [`MAX_REQUEST_LINE`] bytes,
//! keeping the last seven so a terminator split across packets is still
//! seen.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;

use openmb_mb::{
    state, CostModel, Effects, Middlebox, Record, Sealer, SharedSnapshot, SyncTracker,
};
use openmb_simnet::SimTime;
use openmb_types::codec::{self, Field, Reader, Sink};
use openmb_types::packet::tcp_flags;
use openmb_types::wire::ChunkClass;
use openmb_types::{
    record, ConfigTree, ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList,
    HierarchicalKey, OpId, Packet, Proto, Result, StateChunk, StateStats,
};

/// Bro-style connection states used in `conn.log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Connection attempt seen, no reply (`S0`).
    S0,
    /// Established, not yet terminated (`S1`).
    S1,
    /// Normal establish + finish (`SF`).
    Sf,
    /// Reset (`RST`).
    Rst,
    /// Midstream traffic — we never saw the establishment (`OTH`).
    /// A migrated-in flow without its state lands here, which is how the
    /// §8.1.2 snapshot experiment's "incorrect entries" arise.
    Oth,
}

impl ConnState {
    fn code(self) -> &'static str {
        match self {
            ConnState::S0 => "S0",
            ConnState::S1 => "S1",
            ConnState::Sf => "SF",
            ConnState::Rst => "RST",
            ConnState::Oth => "OTH",
        }
    }
}

/// One byte, the state's place in the declaration.
impl Field for ConnState {
    fn put<S: Sink>(&self, s: &mut S) {
        (*self as u8).put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match u8::get(r)? {
            0 => ConnState::S0,
            1 => ConnState::S1,
            2 => ConnState::Sf,
            3 => ConnState::Rst,
            4 => ConnState::Oth,
            _ => return Err(Error::MalformedChunk("bad conn state".into())),
        })
    }
}

/// Longest unterminated request line the HTTP analyzer buffers (the
/// usual server-side request-line limit).
pub const MAX_REQUEST_LINE: usize = 8192;

/// Most signature bytes `rules/signatures` may hold: the automaton's
/// table takes 1 KiB per signature byte.
const MAX_SIGNATURE_BYTES: usize = 64 * 1024;

/// The nested HTTP analyzer hanging off a connection (one branch of
/// Bro's per-connection object tree).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HttpAnalyzer {
    /// Completed request lines ("GET /index.html").
    pub requests: Vec<String>,
    /// Bytes of a request line split across packets: at most
    /// [`MAX_REQUEST_LINE`], and free of CRLF and `HTTP/1.1`.
    pub partial: Vec<u8>,
    /// Response count (any resp-direction payload after a request).
    pub responses: u64,
}

/// One per-flow supporting-state record (Bro's `Connection` + tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnRecord {
    pub key: FlowKey,
    pub start_ns: u64,
    pub last_ns: u64,
    pub state: ConnState,
    /// Bro-style history string (one letter per notable event).
    pub history: String,
    pub orig_pkts: u64,
    pub resp_pkts: u64,
    pub orig_bytes: u64,
    pub resp_bytes: u64,
    /// HTTP analyzer, attached lazily when port-80 payload is seen.
    pub http: Option<HttpAnalyzer>,
    /// Tail of the most recent payload, for cross-packet signatures.
    pub sig_tail: Vec<u8>,
    /// Signatures already fired on this connection (indices), so an
    /// alert fires once per connection per rule.
    pub fired: BTreeSet<u32>,
}

impl ConnRecord {
    fn new(key: FlowKey, now: SimTime, state: ConnState) -> Self {
        ConnRecord {
            key,
            start_ns: now.0,
            last_ns: now.0,
            state,
            history: String::new(),
            orig_pkts: 0,
            resp_pkts: 0,
            orig_bytes: 0,
            resp_bytes: 0,
            http: None,
            sig_tail: Vec::new(),
            fired: BTreeSet::new(),
        }
    }
}

// The whole record tree — connection core, HTTP analyzer, signature
// engine state — is 12 fields, one of them the optional 3-field
// analyzer: 14 in all.
record! {
    HttpAnalyzer { requests [1_000_000, "absurd request count"], partial, responses }
    ConnRecord as "a connection record" {
        key,
        start_ns,
        last_ns,
        state,
        history,
        orig_pkts,
        resp_pkts,
        orig_bytes,
        resp_bytes,
        http,
        sig_tail,
        fired [1_000_000, "absurd fired count"]
    }
}

impl Record for ConnRecord {}

/// One source's entry in the shared scan-detector table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanEntry {
    /// Distinct destination ports probed.
    pub ports: BTreeSet<u16>,
    /// Total connection attempts.
    pub attempts: u64,
    /// Whether the scan alert already fired for this source.
    pub alerted: bool,
}

/// The shared scan-detector table, source → entry: it travels as its
/// entries in address order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ScanTable(pub(crate) BTreeMap<Ipv4Addr, ScanEntry>);

record! {
    ScanEntry { ports, attempts, alerted }
    ScanTable { 0 [10_000_000, "absurd scan table"] }
}

/// Shared reporting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IpsStat {
    pub alerts: u64,
    pub conns_logged: u64,
    pub http_requests_logged: u64,
}

impl IpsStat {
    /// The counters in wire order.
    fn counters(&mut self) -> [&mut u64; 3] {
        [&mut self.alerts, &mut self.conns_logged, &mut self.http_requests_logged]
    }
}

/// Table entry / automaton state: the next state's row offset
/// (`id << 8`) with [`MATCH`] set when a signature ends there.
type State = u32;
const ROOT: State = 0;
const MATCH: State = 1;
const ROW: State = !0xff;
const LANES: usize = 4;

/// `rules/signatures` compiled into an Aho-Corasick DFA. Signatures are
/// known by their index in the config list; an empty one never matches
/// and duplicates each report.
#[derive(Clone)]
struct SigMatcher {
    sigs: Vec<String>,
    /// `table[row | byte]`, one 256-entry row per state.
    table: Vec<State>,
    /// Per state, the signatures ending there (its own and those of
    /// every suffix state).
    outputs: Vec<Vec<u32>>,
    /// Longest signature less one byte: how far before its last byte an
    /// occurrence can start, so what lanes overlap by and records carry.
    reach: usize,
    /// Every adjacent byte pair of every signature, one bit per pair
    /// (`first << 8 | second`).
    pairs: Box<[u64; 1024]>,
    /// Shortest non-empty signature less one byte, or 0 when that is
    /// under 2: an occurrence holds one of its pairs at a multiple of it.
    probe: usize,
}

impl SigMatcher {
    fn compile(sigs: Vec<String>) -> Self {
        // The trie, with plain state ids and 0 for "no edge" (no edge
        // leads back to the root).
        let mut table: Vec<State> = vec![0; 256];
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new()];
        for (idx, sig) in sigs.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let mut s = 0;
            for &b in sig.as_bytes() {
                let slot = s * 256 + usize::from(b);
                if table[slot] == 0 {
                    table[slot] = outputs.len() as State;
                    outputs.push(Vec::new());
                    table.resize(table.len() + 256, 0);
                }
                s = table[slot] as usize;
            }
            outputs[s].push(idx as u32);
        }
        // Breadth first, so a state's suffix state is finished before
        // it: fill the missing edges from it and inherit its outputs.
        let mut fail = vec![0; outputs.len()];
        let mut queue: VecDeque<usize> =
            table[..256].iter().filter(|&&c| c != 0).map(|&c| c as usize).collect();
        while let Some(s) = queue.pop_front() {
            let f = fail[s];
            let inherited = outputs[f].clone();
            outputs[s].extend(inherited);
            for b in 0..256 {
                let via_suffix = table[f * 256 + b];
                match table[s * 256 + b] {
                    0 => table[s * 256 + b] = via_suffix,
                    child => {
                        fail[child as usize] = via_suffix as usize;
                        queue.push_back(child as usize);
                    }
                }
            }
        }
        for e in &mut table {
            let ends_here = !outputs[*e as usize].is_empty();
            *e = (*e << 8) | if ends_here { MATCH } else { 0 };
        }
        let reach = sigs.iter().map(String::len).max().unwrap_or(0).saturating_sub(1);
        let mut pairs = Box::new([0; 1024]);
        for pair in sigs.iter().flat_map(|s| s.as_bytes().windows(2)) {
            let bit = usize::from(pair[0]) << 8 | usize::from(pair[1]);
            pairs[bit >> 6] |= 1 << (bit & 63);
        }
        let shortest = sigs.iter().map(String::len).filter(|&n| n > 0).min().unwrap_or(0);
        let probe = if shortest >= 3 { shortest - 1 } else { 0 };
        SigMatcher { sigs, table, outputs, reach, pairs, probe }
    }

    #[inline(always)]
    fn pair_occurs(&self, first: u8, second: u8) -> bool {
        let bit = usize::from(first) << 8 | usize::from(second);
        self.pairs[bit >> 6] >> (bit & 63) & 1 != 0
    }

    #[inline(always)]
    fn step(&self, state: State, byte: u8) -> State {
        self.table[((state & ROW) | State::from(byte)) as usize]
    }

    #[cold]
    fn collect(&self, state: State, hits: &mut Vec<u32>) {
        hits.extend_from_slice(&self.outputs[(state >> 8) as usize]);
    }

    fn walk(&self, mut state: State, bytes: &[u8], hits: &mut Vec<u32>) -> State {
        for &b in bytes {
            state = self.step(state, b);
            if state & MATCH != 0 {
                self.collect(state, hits);
            }
        }
        state
    }

    /// Bytes each lane walks when `len` bytes are long enough to split:
    /// the lanes overlap by `reach`, so `LANES * n` covers `len` plus the
    /// overlaps.
    fn lane_len(&self, len: usize) -> Option<usize> {
        (len >= 8 * self.reach.max(16)).then(|| (len + (LANES - 1) * self.reach) / LANES)
    }

    /// Run `bytes` through the automaton from `state`, appending to
    /// `hits` the index of every signature that ends in them (an index
    /// may repeat). Returns the state after the last byte.
    fn feed(&self, state: State, bytes: &[u8], hits: &mut Vec<u32>) -> State {
        let Some(n) = self.lane_len(bytes.len()) else {
            return self.walk(state, bytes, hits);
        };
        let stride = n - self.reach;
        let lane: [&[u8]; LANES] = std::array::from_fn(|k| &bytes[k * stride..][..n]);
        let mut s = [ROOT; LANES];
        s[0] = state;
        for i in 0..n {
            for (s, lane) in s.iter_mut().zip(lane) {
                *s = self.step(*s, lane[i]);
            }
            if s.iter().fold(0, |any, s| any | s) & MATCH != 0 {
                for &s in s.iter().filter(|&&s| s & MATCH != 0) {
                    self.collect(s, hits);
                }
            }
        }
        self.walk(s[LANES - 1], &bytes[(LANES - 1) * stride + n..], hits)
    }

    /// Append to `hits` what `feed` over `tail` then `payload` would,
    /// walking only the bytes near a probed signature pair. Returns where
    /// in `payload` the lanes took over: 0 when the signatures are too
    /// short to filter, `payload.len()` when they never did.
    fn scan(&self, tail: &[u8], payload: &[u8], hits: &mut Vec<u32>) -> usize {
        if self.outputs.len() == 1 {
            return payload.len(); // No signature, so nothing to find.
        }
        if self.probe == 0 {
            let after_tail = self.feed(ROOT, tail, hits);
            self.feed(after_tail, payload, hits);
            return 0;
        }
        let (len, reach) = (payload.len(), self.reach);
        // The seam: an occurrence that starts in the tail ends within the
        // first `reach` payload bytes. `state` is the walk's at `end`.
        let mut end = reach.min(len);
        let mut state = self.walk(self.walk(ROOT, tail, hits), &payload[..end], hits);
        let (mut walked, mut p) = (0, 0);
        while end < len {
            while p + 1 < len && !self.pair_occurs(payload[p], payload[p + 1]) {
                p += self.probe;
            }
            if p + 1 >= len {
                break;
            }
            // Every occurrence holding this pair lies in the window
            // [p + 1 - reach, p + reach + 1). One that starts past the walk
            // so far starts a new walk; one that overlaps it continues it,
            // as an earlier start only sees more.
            let start = (p + 1).saturating_sub(reach);
            if start > end {
                (state, end) = (ROOT, start);
            }
            let stop = (p + reach + 1).min(len);
            state = self.walk(state, &payload[end..stop], hits);
            walked += stop - end;
            end = stop;
            // Windows this dense go to the lanes: a walked byte costs
            // about three lane bytes, so near one window byte in four
            // probed the filter gains nothing, and one in eight keeps it
            // ahead.
            if 8 * walked > p + 2 {
                self.feed(state, &payload[end..], hits);
                return end;
            }
            p += self.probe;
        }
        len
    }
}

/// The IPS middlebox.
#[derive(Clone)]
pub struct Ips {
    config: ConfigTree,
    /// These two are [`Ips::compile_config`] of `config`.
    matcher: SigMatcher,
    scan_threshold: u64,
    conns: HashMap<FlowKey, ConnRecord>,
    /// Shared supporting state: per-source scan tracking.
    scan_table: ScanTable,
    stat: IpsStat,
    sync: SyncTracker,
    sealer: Sealer,
    /// Signature hits of the packet in hand; kept for its capacity.
    hits: Vec<u32>,
}

impl Default for Ips {
    fn default() -> Self {
        Self::new()
    }
}

impl Ips {
    /// An IPS with a small default signature set and scan threshold.
    pub fn new() -> Self {
        let mut config = ConfigTree::new();
        config.set(
            &HierarchicalKey::parse("rules/signatures"),
            vec!["evil.exe".into(), "cmd.exe /c".into(), "DROP TABLE".into()],
        );
        config.set(&HierarchicalKey::parse("params/scan_threshold"), vec![ConfigValue::Int(20)]);
        let (matcher, scan_threshold) = Self::compile_config(&config);
        Ips {
            config,
            matcher,
            scan_threshold,
            conns: HashMap::new(),
            scan_table: ScanTable::default(),
            stat: IpsStat::default(),
            sync: SyncTracker::new(),
            sealer: Sealer::new("bro"),
            hits: Vec::new(),
        }
    }

    /// Everything the packet path needs from `config`: the matcher and
    /// the scan threshold. Every writer of `config` ends by storing
    /// this, so packets never parse it.
    fn compile_config(config: &ConfigTree) -> (SigMatcher, u64) {
        let sigs = config
            .get_leaf(&HierarchicalKey::parse("rules/signatures"))
            .map(|vs| vs.iter().filter_map(|v| v.as_str().map(str::to_owned)).collect())
            .unwrap_or_default();
        let threshold = config
            .get_leaf(&HierarchicalKey::parse("params/scan_threshold"))
            .and_then(|v| v.first().and_then(ConfigValue::as_int))
            .unwrap_or(20) as u64;
        (SigMatcher::compile(sigs), threshold)
    }

    fn log_conn(rec: &ConnRecord, now: SimTime, stat: &mut IpsStat, fx: &mut Effects) {
        if !fx.is_replay() {
            stat.conns_logged += 1;
        }
        fx.log(
            "conn.log",
            format!(
                "{} {} {} {} {} orig={} resp={}",
                rec.start_ns,
                now.0,
                rec.key,
                rec.state.code(),
                rec.history,
                rec.orig_bytes,
                rec.resp_bytes
            ),
        );
    }

    /// Merge another instance's scan table into this one: union the
    /// ports, sum the attempts.
    fn merge_scan_table(&mut self, other: ScanTable) {
        for (ip, theirs) in other.0 {
            let e = self.scan_table.0.entry(ip).or_default();
            e.ports.extend(theirs.ports);
            e.attempts += theirs.attempts;
            e.alerted |= theirs.alerted;
        }
    }

    /// Shared reporting counters (experiments).
    pub fn stat(&self) -> &IpsStat {
        &self.stat
    }

    /// Reprocess events raised so far (experiments).
    pub fn events_raised(&self) -> u64 {
        self.sync.events_raised
    }

    /// Resident connection records, sorted (experiments / tests).
    pub fn conns_sorted(&self) -> Vec<ConnRecord> {
        let mut v: Vec<ConnRecord> = self.conns.values().cloned().collect();
        v.sort_by_key(|r| r.key);
        v
    }

    /// Total serialized bytes of all per-flow state — what a VM snapshot
    /// would carry (§8.1.2's BASE/FULL comparison).
    pub fn resident_state_bytes(&self) -> usize {
        self.conns.values().map(codec::encoded_len).sum()
    }
}

impl Middlebox for Ips {
    fn mb_type(&self) -> &'static str {
        "bro"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        if key.is_root() {
            return Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: "cannot set the root key".into(),
            });
        }
        if key.segments() == ["params".to_owned(), "scan_threshold".to_owned()]
            && values.first().and_then(ConfigValue::as_int).is_none_or(|v| v <= 0)
        {
            return Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: "scan_threshold must be a positive integer".into(),
            });
        }
        if key.segments() == ["rules".to_owned(), "signatures".to_owned()]
            && values.iter().filter_map(ConfigValue::as_str).map(str::len).sum::<usize>()
                > MAX_SIGNATURE_BYTES
        {
            return Err(Error::InvalidConfigValue {
                key: key.to_string(),
                reason: format!("signatures exceed {MAX_SIGNATURE_BYTES} bytes in total"),
            });
        }
        self.config.set(key, values);
        (self.matcher, self.scan_threshold) = Self::compile_config(&self.config);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)?;
        (self.matcher, self.scan_threshold) = Self::compile_config(&self.config);
        Ok(())
    }

    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(state::export(&self.conns, &self.sealer, &mut self.sync, op, key))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Support {
            let (table, sealer) = (&self.conns, &self.sealer);
            state::export_into(table, sealer, &mut self.sync, op, key, Record::encode, out);
        }
        Ok(())
    }

    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let rec: ConnRecord = self.sealer.open_row(&chunk.data)?;
        state::import(&mut self.conns, &mut self.sync, rec.key.canonical(), rec);
        Ok(())
    }

    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        // The paper added a `moved` flag so Bro does not log errors when
        // state for a moved flow is deleted: our del simply removes the
        // records without conn.log output.
        Ok(state::delete(&mut self.conns, &mut self.sync, key, drop))
    }

    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.sync.mark_shared(op);
        Ok(Some(self.sealer.seal(&codec::encode(&self.scan_table))))
    }

    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        // Merge logic is MB-side (§4.1.2): union ports, sum attempts.
        let other = self.sealer.open_row(&chunk)?;
        self.merge_scan_table(other);
        Ok(())
    }

    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        Ok(Some(self.sealer.seal(&state::encode_counters(self.stat.counters()))))
    }

    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        state::merge_counters(self.stat.counters(), &self.sealer.open(&chunk)?)
    }

    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        let counters = state::encode_counters(self.stat.counters());
        Ok(self.sealer.snapshot(Some(codec::encode(&self.scan_table)), Some(counters)))
    }

    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.scan_table.0.clear();
        if let Some(c) = snap.support {
            // Merging into an empty table reproduces it exactly.
            let table = self.sealer.open_row(&c)?;
            self.merge_scan_table(table);
        }
        let plain = self.sealer.open_opt(snap.report)?;
        state::replace_counters(self.stat.counters(), plain.as_deref())
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let (chunks, bytes) = state::count(&self.conns, key);
        StateStats {
            perflow_support_chunks: chunks,
            perflow_support_bytes: bytes,
            shared_support_bytes: codec::encoded_len(&self.scan_table) + state::SEAL_OVERHEAD,
            shared_report_bytes: 3 * 8 + state::SEAL_OVERHEAD,
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let key = pkt.key.canonical();
        let is_orig = pkt.key == key;
        let is_syn = pkt.has_flag(tcp_flags::SYN) && !pkt.has_flag(tcp_flags::ACK);

        // ---- shared supporting state: scan detector ----
        if pkt.key.proto == Proto::Tcp && is_syn {
            let entry = self.scan_table.0.entry(pkt.key.src_ip).or_default();
            entry.ports.insert(pkt.key.dst_port);
            entry.attempts += 1;
            if !entry.alerted && entry.ports.len() as u64 >= self.scan_threshold {
                entry.alerted = true;
                if !fx.is_replay() {
                    self.stat.alerts += 1;
                }
                fx.log("alert", format!("{} port scan from {}", now.0, pkt.key.src_ip));
            }
            self.sync.on_shared_update(pkt, fx);
        }

        // ---- per-flow supporting state: connection record ----
        let initial_state = if pkt.key.proto != Proto::Tcp {
            ConnState::S1
        } else if is_syn {
            ConnState::S0
        } else {
            // Midstream: we never saw this connection start.
            ConnState::Oth
        };
        let (is_new, rec) = match self.conns.entry(key) {
            Entry::Occupied(e) => (false, e.into_mut()),
            Entry::Vacant(e) => (true, e.insert(ConnRecord::new(key, now, initial_state))),
        };
        rec.last_ns = now.0;
        if is_orig {
            rec.orig_pkts += 1;
            rec.orig_bytes += pkt.payload.len() as u64;
        } else {
            rec.resp_pkts += 1;
            rec.resp_bytes += pkt.payload.len() as u64;
        }
        if is_new {
            rec.history.push(if is_orig { 'O' } else { 'R' });
        }

        // TCP state machine.
        let mut closed = false;
        if pkt.key.proto == Proto::Tcp {
            if pkt.has_flag(tcp_flags::RST) {
                rec.state = ConnState::Rst;
                rec.history.push('r');
                closed = true;
            } else if pkt.has_flag(tcp_flags::SYN) && pkt.has_flag(tcp_flags::ACK) {
                if rec.state == ConnState::S0 {
                    rec.state = ConnState::S1;
                    rec.history.push('h');
                }
            } else if pkt.has_flag(tcp_flags::FIN) {
                rec.history.push('f');
                if rec.state == ConnState::S1 {
                    if is_orig {
                        rec.state = ConnState::Sf; // simplified: orig FIN closes
                        closed = true;
                    } else {
                        rec.state = ConnState::Sf;
                        closed = true;
                    }
                } else {
                    closed = true;
                }
            }
        }

        // ---- HTTP analyzer (nested object tree) ----
        if pkt.key.dst_port == 80 || pkt.key.src_port == 80 {
            let http = rec.http.get_or_insert_with(HttpAnalyzer::default);
            if is_orig && !pkt.payload.is_empty() {
                // With nothing buffered the payload is the whole line so
                // far: search it in place, and buffer it only if no line
                // ends in it.
                let old_len = http.partial.len();
                if old_len > 0 {
                    http.partial.extend_from_slice(&pkt.payload);
                }
                let buf: &[u8] = if old_len > 0 { &http.partial } else { &pkt.payload };
                // A request line is complete at the first CRLF or at a
                // recognizable "HTTP/1." suffix within the buffer; the
                // old bytes hold neither, so only ends in the new bytes
                // are looked for.
                if let Some(pos) =
                    find_from(buf, old_len.saturating_sub(1), b"\r\n").or_else(|| {
                        find_from(buf, old_len.saturating_sub(7), b"HTTP/1.1").map(|p| p + 8)
                    })
                {
                    let line = &buf[..pos];
                    if line.starts_with(b"GET") || line.starts_with(b"POST") {
                        let text = String::from_utf8_lossy(line).into_owned();
                        if !fx.is_replay() {
                            self.stat.http_requests_logged += 1;
                        }
                        fx.log("http.log", format!("{} {} {}", now.0, pkt.key, text));
                        http.requests.push(text);
                    }
                    http.partial.clear();
                } else {
                    if old_len == 0 {
                        http.partial.extend_from_slice(&pkt.payload);
                    }
                    if http.partial.len() > MAX_REQUEST_LINE {
                        // Drop the overlong line but not a terminator that
                        // may be split across this packet and the next.
                        http.partial.drain(..http.partial.len() - 7);
                    }
                }
            } else if !is_orig && !pkt.payload.is_empty() {
                http.responses += 1;
            }
        }

        // ---- signature engine (cross-packet) ----
        // The carried tail, then the payload, as one stream.
        let matcher = &self.matcher;
        self.hits.clear();
        matcher.scan(&rec.sig_tail, &pkt.payload, &mut self.hits);
        self.hits.sort_unstable();
        self.hits.dedup();
        for &idx in &self.hits {
            if rec.fired.insert(idx) {
                if !fx.is_replay() {
                    self.stat.alerts += 1;
                }
                let sig = &matcher.sigs[idx as usize];
                fx.log("alert", format!("{} signature '{}' on {}", now.0, sig, pkt.key));
            }
        }
        // Carry the last `reach` bytes of tail + payload.
        let keep = matcher.reach;
        if let Some(start) = pkt.payload.len().checked_sub(keep) {
            rec.sig_tail.clear();
            rec.sig_tail.extend_from_slice(&pkt.payload[start..]);
        } else {
            let excess = (rec.sig_tail.len() + pkt.payload.len()).saturating_sub(keep);
            rec.sig_tail.drain(..excess);
            rec.sig_tail.extend_from_slice(&pkt.payload);
        }

        // Log + retire closed connections.
        if closed {
            let rec = self.conns.remove(&key).expect("record exists");
            Self::log_conn(&rec, now, &mut self.stat, fx);
            // A packet that closes a moved connection still updated the
            // moved state (its final counters); raise the event before
            // forgetting the mark.
            self.sync.on_perflow_update(key, pkt, fx);
            self.sync.clear_flow(&key);
        } else {
            self.sync.on_perflow_update(key, pkt, fx);
        }

        fx.forward(pkt.clone());
    }

    fn finalize(&mut self, now: SimTime, fx: &mut Effects) {
        // Flush still-open connections, as Bro does at shutdown. Flows
        // whose state was moved away were deleted by `del` and produce
        // nothing; flows that terminated abruptly (e.g. the other half of
        // a snapshot-migrated deployment) surface here with non-SF
        // states — the §8.1.2 "incorrect entries".
        let mut keys: Vec<FlowKey> = self.conns.keys().copied().collect();
        keys.sort();
        for key in keys {
            let rec = self.conns.remove(&key).expect("record exists");
            Self::log_conn(&rec, now, &mut self.stat, fx);
        }
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::bro_like()
    }

    fn perflow_entries(&self) -> usize {
        self.conns.len()
    }
}

/// The first occurrence of `needle` in `haystack` that starts at or
/// after `from`.
fn find_from(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|p| from + p)
}

/// Find the first occurrence of `needle` in `haystack`: the reference
/// the automaton and the incremental HTTP search are tested against.
#[cfg(test)]
fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn conn_key(sp: u16) -> FlowKey {
        FlowKey::tcp(ip(10, 0, 0, 1), sp, ip(192, 168, 0, 1), 80)
    }

    /// Drive a full handshake + one HTTP request + FIN through the IPS.
    fn run_http_conn(ips: &mut Ips, sp: u16, t0: u64) -> Vec<openmb_mb::LogEntry> {
        let key = conn_key(sp);
        let mut logs = Vec::new();
        let mut id = u64::from(sp) * 100;
        let mut step = |ips: &mut Ips, pkt: Packet, t: u64| {
            let mut fx = Effects::normal();
            ips.process_packet(SimTime(t), &pkt, &mut fx);
            logs_extend(&mut logs, &mut fx);
        };
        step(ips, Packet::tcp(id, key, tcp_flags::SYN, Bytes::new()), t0);
        id += 1;
        step(
            ips,
            Packet::tcp(id, key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Bytes::new()),
            t0 + 1,
        );
        id += 1;
        step(
            ips,
            Packet::tcp(id, key, tcp_flags::ACK, Bytes::from_static(b"GET /i.html HTTP/1.1\r\n")),
            t0 + 2,
        );
        id += 1;
        step(
            ips,
            Packet::tcp(id, key.reversed(), tcp_flags::ACK, Bytes::from_static(b"200 OK")),
            t0 + 3,
        );
        id += 1;
        step(ips, Packet::tcp(id, key, tcp_flags::FIN | tcp_flags::ACK, Bytes::new()), t0 + 4);
        logs
    }

    fn logs_extend(out: &mut Vec<openmb_mb::LogEntry>, fx: &mut Effects) {
        out.extend(fx.take_logs());
    }

    #[test]
    fn full_connection_logs_sf() {
        let mut ips = Ips::new();
        let logs = run_http_conn(&mut ips, 1000, 0);
        let conn_lines: Vec<&openmb_mb::LogEntry> =
            logs.iter().filter(|l| l.log == "conn.log").collect();
        assert_eq!(conn_lines.len(), 1);
        assert!(conn_lines[0].line.contains(" SF "), "normal close is SF: {}", conn_lines[0].line);
        assert!(logs.iter().any(|l| l.log == "http.log" && l.line.contains("GET /i.html")));
        assert_eq!(ips.perflow_entries(), 0, "closed conns are retired");
    }

    #[test]
    fn midstream_connection_is_oth() {
        let mut ips = Ips::new();
        let key = conn_key(2000);
        let mut fx = Effects::normal();
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(1, key, tcp_flags::ACK, Bytes::from_static(b"data")),
            &mut fx,
        );
        ips.finalize(SimTime(10), &mut fx);
        let logs = fx.take_logs();
        let conn_line = logs.iter().find(|l| l.log == "conn.log").unwrap();
        assert!(conn_line.line.contains(" OTH "), "{}", conn_line.line);
    }

    #[test]
    fn rst_logs_rst_state() {
        let mut ips = Ips::new();
        let key = conn_key(2100);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key.reversed(), tcp_flags::RST, Bytes::new()),
            &mut fx,
        );
        let logs = fx.take_logs();
        assert!(logs.iter().any(|l| l.log == "conn.log" && l.line.contains(" RST ")));
    }

    #[test]
    fn signature_fires_once_per_connection() {
        let mut ips = Ips::new();
        let key = conn_key(3000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        for t in 1..4 {
            ips.process_packet(
                SimTime(t),
                &Packet::tcp(t, key, tcp_flags::ACK, Bytes::from_static(b"download evil.exe now")),
                &mut fx,
            );
        }
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn signature_matches_across_packet_boundary() {
        let mut ips = Ips::new();
        let key = conn_key(3100);
        let mut fx = Effects::normal();
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(1, key, tcp_flags::ACK, Bytes::from_static(b"xxevil.")),
            &mut fx,
        );
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"exeyy")),
            &mut fx,
        );
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1, "split signature must still fire");
    }

    #[test]
    fn scan_detector_uses_shared_state() {
        let mut ips = Ips::new();
        ips.set_config(&HierarchicalKey::parse("params/scan_threshold"), vec![ConfigValue::Int(5)])
            .unwrap();
        let mut fx = Effects::normal();
        for port in 1..=5u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            ips.process_packet(
                SimTime(u64::from(port)),
                &Packet::tcp(u64::from(port), key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        let alerts: Vec<_> = fx.take_logs().into_iter().filter(|l| l.log == "alert").collect();
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].line.contains("port scan from 6.6.6.6"));
    }

    #[test]
    fn connrecord_serialization_roundtrip() {
        let mut ips = Ips::new();
        let key = conn_key(4000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"GET /x HTTP/1.1\r\n")),
            &mut fx,
        );
        let rec = ips.conns_sorted().pop().unwrap();
        let rt: ConnRecord = state::decode(&codec::encode(&rec)).unwrap();
        assert_eq!(rec, rt);
    }

    /// An honest record's bytes, edited, sealed under the IPS's own key
    /// and put into a fresh IPS: the put's result.
    fn put_edited(rec: &ConnRecord, edit: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let mut plain = codec::encode(rec);
        edit(&mut plain);
        let chunk =
            StateChunk::new(HeaderFieldList::exact(rec.key), Sealer::new("bro").seal(&plain));
        Ips::new().put_support_perflow(chunk)
    }

    /// A record with no HTTP analyzer, no signature tail and signatures
    /// 3 and 5 fired: its last 17 bytes are the analyzer flag, the empty
    /// tail, and the fired count and list.
    fn fired_record() -> ConnRecord {
        let mut rec = ConnRecord::new(conn_key(4100), SimTime(7), ConnState::S1);
        rec.fired = BTreeSet::from([3, 5]);
        assert!(put_edited(&rec, |_| ()).is_ok(), "the honest record is accepted");
        rec
    }

    fn malformed(put: &Result<()>) -> bool {
        matches!(put, Err(Error::MalformedChunk(_)))
    }

    #[test]
    fn a_conn_record_with_an_http_flag_other_than_0_or_1_is_refused() {
        let put = put_edited(&fired_record(), |b| {
            let flag = b.len() - 17;
            assert_eq!(b[flag], 0);
            b[flag] = 2;
        });
        assert!(malformed(&put), "{put:?}");
    }

    #[test]
    fn a_conn_record_whose_fired_list_is_not_strictly_ascending_is_refused() {
        for list in [[5u32, 3], [3, 3]] {
            let put = put_edited(&fired_record(), |b| {
                let at = b.len() - 8;
                b.truncate(at);
                list.iter().for_each(|f| b.extend_from_slice(&f.to_le_bytes()));
            });
            assert!(malformed(&put), "{list:?}: {put:?}");
        }
    }

    #[test]
    fn a_conn_record_with_trailing_bytes_is_refused() {
        let put = put_edited(&fired_record(), |b| b.push(0));
        assert!(malformed(&put), "{put:?}");
    }

    #[test]
    fn move_preserves_connection_state_machine() {
        let mut src = Ips::new();
        let mut dst = Ips::new();
        let key = conn_key(5000);
        let mut fx = Effects::normal();
        // Establish at src.
        src.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        src.process_packet(
            SimTime(1),
            &Packet::tcp(2, key.reversed(), tcp_flags::SYN | tcp_flags::ACK, Bytes::new()),
            &mut fx,
        );
        // Move to dst.
        let chunks = src.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert_eq!(chunks.len(), 1);
        for c in chunks {
            dst.put_support_perflow(c).unwrap();
        }
        src.del_support_perflow(&HeaderFieldList::any()).unwrap();
        // Close at dst: must log SF (established state survived the move).
        let mut fx2 = Effects::normal();
        dst.process_packet(
            SimTime(2),
            &Packet::tcp(3, key, tcp_flags::FIN | tcp_flags::ACK, Bytes::new()),
            &mut fx2,
        );
        let logs = fx2.take_logs();
        assert!(
            logs.iter().any(|l| l.log == "conn.log" && l.line.contains(" SF ")),
            "moved connection must close normally: {logs:?}"
        );
        // src, finalized, logs nothing (state was deleted after move).
        let mut fx3 = Effects::normal();
        src.finalize(SimTime(3), &mut fx3);
        assert!(fx3.take_logs().is_empty());
    }

    #[test]
    fn scan_table_clone_and_merge() {
        let mut a = Ips::new();
        let mut b = Ips::new();
        let mut fx = Effects::normal();
        for port in 1..=3u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            a.process_packet(
                SimTime(0),
                &Packet::tcp(0, key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        for port in 3..=5u16 {
            let key = FlowKey::tcp(ip(6, 6, 6, 6), 5555, ip(192, 168, 0, 1), port);
            b.process_packet(
                SimTime(0),
                &Packet::tcp(0, key, tcp_flags::SYN, Bytes::new()),
                &mut fx,
            );
        }
        let chunk = a.get_support_shared(OpId(1)).unwrap().unwrap();
        b.put_support_shared(chunk).unwrap();
        // b's merged table: ports {1,2,3} ∪ {3,4,5} = 5 distinct ports.
        assert_eq!(b.scan_table.0[&ip(6, 6, 6, 6)].ports.len(), 5);
        assert_eq!(b.scan_table.0[&ip(6, 6, 6, 6)].attempts, 6);
    }

    /// The scan table travels in address order whatever order it was
    /// filled in: equal tables seal to equal bytes, so a content store
    /// can answer a repeat transfer.
    #[test]
    fn scan_tables_filled_in_opposite_orders_seal_to_the_same_bytes() {
        let syns: Vec<Packet> = (0..40u16)
            .map(|i| {
                let src = ip(6, 6, (i % 7) as u8, (i * 37 % 251) as u8);
                let key = FlowKey::tcp(src, 5555, ip(192, 168, 0, 1), 1 + i % 5);
                Packet::tcp(u64::from(i), key, tcp_flags::SYN, Bytes::new())
            })
            .collect();
        let filled = |syns: &mut dyn Iterator<Item = &Packet>| {
            let mut ips = Ips::new();
            for p in syns {
                ips.process_packet(SimTime(0), p, &mut Effects::normal());
            }
            ips.get_support_shared(OpId(1)).unwrap().unwrap()
        };
        assert_eq!(filled(&mut syns.iter()), filled(&mut syns.iter().rev()));
    }

    #[test]
    fn reprocess_event_raised_for_moved_conn() {
        let mut ips = Ips::new();
        let key = conn_key(6000);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::tcp(1, key, tcp_flags::SYN, Bytes::new()), &mut fx);
        let _ = ips.get_support_perflow(OpId(2), &HeaderFieldList::any()).unwrap();
        let mut fx2 = Effects::normal();
        ips.process_packet(
            SimTime(1),
            &Packet::tcp(2, key, tcp_flags::ACK, Bytes::from_static(b"x")),
            &mut fx2,
        );
        assert_eq!(fx2.take_events().len(), 1);
        assert_eq!(ips.events_raised(), 1);
    }

    #[test]
    fn granularity_any_pattern_ok_udp_flows_too() {
        let mut ips = Ips::new();
        let key = FlowKey::udp(ip(1, 1, 1, 1), 500, ip(2, 2, 2, 2), 53);
        let mut fx = Effects::normal();
        ips.process_packet(SimTime(0), &Packet::new(1, key, vec![1, 2, 3]), &mut fx);
        assert_eq!(ips.perflow_entries(), 1);
        let chunks = ips.get_support_perflow(OpId(1), &HeaderFieldList::from_dst_port(53)).unwrap();
        assert_eq!(chunks.len(), 1);
    }

    // ---- same bytes, less time: the compiled packet path against the
    // searches it replaced ----

    use proptest::test_runner::TestRng;

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    fn random_bytes(rng: &mut TestRng, alphabet: &[u8], len: usize) -> Vec<u8> {
        (0..len).map(|_| alphabet[below(rng, alphabet.len())]).collect()
    }

    /// 1–40 signatures of 0–24 bytes over a small alphabet, a third of
    /// them derived from an earlier one (duplicate, prefix, suffix,
    /// infix), so suffix links and merged output lists all get used.
    fn random_signatures(rng: &mut TestRng) -> Vec<String> {
        let alphabet = &b"abcd. "[..2 + below(rng, 5)];
        let mut sigs: Vec<String> = Vec::new();
        for _ in 0..1 + below(rng, 40) {
            let sig = if !sigs.is_empty() && below(rng, 3) == 0 {
                let base = sigs[below(rng, sigs.len())].clone();
                let (a, b) = (below(rng, base.len() + 1), below(rng, base.len() + 1));
                match below(rng, 4) {
                    0 => base,
                    1 => base[..a].to_owned(),
                    2 => base[a..].to_owned(),
                    _ => base[a.min(b)..a.max(b)].to_owned(),
                }
            } else {
                let len = below(rng, 25);
                String::from_utf8(random_bytes(rng, alphabet, len)).unwrap()
            };
            sigs.push(sig);
        }
        sigs
    }

    /// The hit set of `feed` over `tail` then `payload`, which `scan`
    /// must equal; the lanes' end state is checked against one walk's.
    fn matcher_hits(m: &SigMatcher, tail: &[u8], payload: &[u8]) -> Vec<u32> {
        let mut hits = Vec::new();
        let after_tail = m.feed(ROOT, tail, &mut hits);
        let end = m.feed(after_tail, payload, &mut hits);
        assert_eq!(end, m.walk(after_tail, payload, &mut Vec::new()), "state after the lanes");
        hits.sort_unstable();
        hits.dedup();
        assert_eq!(scan_hits(m, tail, payload).0, hits, "scan against feed");
        hits
    }

    /// `scan`'s hit set, and where in `payload` the lanes took over.
    fn scan_hits(m: &SigMatcher, tail: &[u8], payload: &[u8]) -> (Vec<u32>, usize) {
        let mut hits = Vec::new();
        let lanes_from = m.scan(tail, payload, &mut hits);
        hits.sort_unstable();
        hits.dedup();
        (hits, lanes_from)
    }

    /// The signatures found in `stream` by the naive search.
    fn naive_hits(sigs: &[String], stream: &[u8]) -> Vec<u32> {
        (0..sigs.len() as u32)
            .filter(|&i| find_subsequence(stream, sigs[i as usize].as_bytes()).is_some())
            .collect()
    }

    #[test]
    fn matcher_hit_set_equals_naive_search() {
        let mut rng = TestRng::from_name("matcher_hit_set_equals_naive_search");
        let mut laned = 0;
        for case in 0..300 {
            let sigs = random_signatures(&mut rng);
            let m = SigMatcher::compile(sigs.clone());
            let tail_len = below(&mut rng, m.reach + 1);
            let payload_len = match below(&mut rng, 4) {
                0 => below(&mut rng, 40),
                _ => below(&mut rng, 3001),
            };
            let mut stream = random_bytes(&mut rng, b"abcd. xyz012\r\n", tail_len + payload_len);
            // Plant signatures at random offsets, then one across the
            // tail/payload seam and one across each end of each lane.
            let plant = |rng: &mut TestRng, stream: &mut [u8], cut: Option<usize>| {
                let sig = sigs[below(rng, sigs.len())].as_bytes();
                if sig.is_empty() || sig.len() > stream.len() {
                    return;
                }
                let last = stream.len() - sig.len();
                let at = match cut {
                    Some(cut) => (cut + below(rng, sig.len() + 1)).saturating_sub(sig.len()),
                    None => below(rng, last + 1),
                };
                let at = at.min(last);
                stream[at..at + sig.len()].copy_from_slice(sig);
            };
            for _ in 0..below(&mut rng, 6) {
                plant(&mut rng, &mut stream, None);
            }
            plant(&mut rng, &mut stream, Some(tail_len));
            if let Some(n) = m.lane_len(payload_len) {
                laned += 1;
                let stride = n - m.reach;
                for k in 0..LANES {
                    plant(&mut rng, &mut stream, Some(tail_len + k * stride));
                    plant(&mut rng, &mut stream, Some(tail_len + k * stride + n));
                }
            }
            let (tail, payload) = stream.split_at(tail_len);
            assert_eq!(
                matcher_hits(&m, tail, payload),
                naive_hits(&sigs, &stream),
                "case {case}: sigs {sigs:?} tail {tail_len} payload {payload_len}"
            );
        }
        assert!(laned > 100, "only {laned} cases were long enough to split into lanes");
    }

    /// A signature at every alignment across every start and end of a
    /// lane, alone in a payload of bytes no signature contains.
    #[test]
    fn matcher_sees_every_alignment_across_lane_boundaries() {
        let mut rng = TestRng::from_name("matcher_sees_every_alignment_across_lane_boundaries");
        for _ in 0..4 {
            let sigs = random_signatures(&mut rng);
            let m = SigMatcher::compile(sigs.clone());
            let len = 200 + below(&mut rng, 400);
            let n = m.lane_len(len).expect("long enough to split");
            let stride = n - m.reach;
            let longest = (0..sigs.len()).max_by_key(|&i| sigs[i].len()).unwrap();
            let planted = [longest, below(&mut rng, sigs.len()), below(&mut rng, sigs.len())];
            for sig in planted.map(|i| sigs[i].as_bytes()) {
                for cut in (0..LANES).flat_map(|k| [k * stride, k * stride + n]) {
                    for at in cut.saturating_sub(sig.len())..=cut.min(len - sig.len()) {
                        let mut payload = vec![b'#'; len];
                        payload[at..at + sig.len()].copy_from_slice(sig);
                        let want = naive_hits(&sigs, &payload);
                        assert_eq!(matcher_hits(&m, b"", &payload), want, "{sigs:?} at {at}");
                    }
                }
            }
        }
    }

    /// Signatures of at least three bytes, so `scan` probes pairs: a
    /// random set with the short ones dropped, one signature alone, or
    /// signatures of one length (where an occurrence holds exactly one
    /// probed position).
    fn probed_signatures(rng: &mut TestRng) -> Vec<String> {
        let mut sigs = random_signatures(rng);
        match below(rng, 3) {
            0 => sigs.retain(|s| s.len() >= 3),
            1 => {
                let longest = sigs.iter().map(String::len).max().unwrap_or(0);
                sigs.retain(|s| s.len() >= 3 && s.len() == longest);
            }
            _ => sigs.clear(),
        }
        if sigs.is_empty() {
            let len = 3 + below(rng, 22);
            sigs.push(String::from_utf8(random_bytes(rng, b"abcd. ", len)).unwrap());
        }
        let m = SigMatcher::compile(sigs.clone());
        assert!(m.probe >= 2 && m.probe <= m.reach, "{sigs:?}");
        sigs
    }

    /// One random case of `scan` against the naive search: a signature
    /// set that `scan` filters (two cases in three), a sparse, dense or
    /// mixed stream with signatures planted across the seam, at both
    /// payload ends and at random. Returns where the lanes took over and
    /// the payload length.
    fn scan_case(rng: &mut TestRng, case: usize) -> (usize, usize) {
        let sigs = if below(rng, 3) == 0 { random_signatures(rng) } else { probed_signatures(rng) };
        let m = SigMatcher::compile(sigs.clone());
        let tail_len = below(rng, m.reach + 1);
        let payload_len = match below(rng, 4) {
            0 => below(rng, 2 * m.reach + 4),
            _ => below(rng, 2001),
        };
        let alphabet: &[u8] = match below(rng, 3) {
            0 => b"#",
            1 => b"#$%&*+-=@^|~",
            _ => b"abcd. xyz012\r\n",
        };
        let mut stream = random_bytes(rng, alphabet, tail_len + payload_len);
        let len = stream.len();
        for _ in 0..below(rng, 4) {
            let sig = sigs[below(rng, sigs.len())].as_bytes();
            if sig.len() <= len {
                let at = match below(rng, 4) {
                    0 => (tail_len + below(rng, sig.len() + 1)).saturating_sub(sig.len()),
                    1 => tail_len,
                    2 => len - sig.len(),
                    _ => below(rng, len - sig.len() + 1),
                };
                let at = at.min(len - sig.len());
                stream[at..at + sig.len()].copy_from_slice(sig);
            }
        }
        let (tail, payload) = stream.split_at(tail_len);
        let (hits, lanes_from) = scan_hits(&m, tail, payload);
        assert_eq!(
            hits,
            naive_hits(&sigs, &stream),
            "case {case}: sigs {sigs:?} tail {tail:?} payload {payload:?}"
        );
        (lanes_from, payload.len())
    }

    fn check_scan_cases(name: &str, cases: usize) {
        let mut rng = TestRng::from_name(name);
        let (mut filtered, mut fell_back) = (0, 0);
        for case in 0..cases {
            let (lanes_from, len) = scan_case(&mut rng, case);
            filtered += usize::from(lanes_from == len && len > 0);
            fell_back += usize::from(lanes_from > 0 && lanes_from < len);
        }
        assert!(filtered > cases / 4, "only {filtered} of {cases} payloads stayed filtered");
        assert!(fell_back > cases / 10, "only {fell_back} of {cases} fell back to the lanes");
    }

    #[test]
    fn scan_hit_set_equals_naive_search() {
        check_scan_cases("scan_hit_set_equals_naive_search", 400);
    }

    /// The nightly range of the same property.
    #[test]
    #[ignore]
    fn long_range_scan_hit_set_equals_naive_search() {
        check_scan_cases("long_range_scan_hit_set_equals_naive_search", 20_000);
    }

    /// A signature alone in a payload of bytes no signature contains, at
    /// every offset modulo the probe stride around a probed position
    /// (near the start, where a hit hands the rest to the lanes, and far
    /// enough in that it does not), across the tail/payload seam, and at
    /// both payload ends.
    #[test]
    fn scan_sees_a_sparse_signature_at_every_offset_around_a_probe() {
        let mut rng = TestRng::from_name("scan_sees_a_sparse_signature_at_every_offset");
        let mut filtered = 0;
        for _ in 0..12 {
            let sigs = probed_signatures(&mut rng);
            let m = SigMatcher::compile(sigs.clone());
            let len = 900 + below(&mut rng, 300);
            let tail_len = below(&mut rng, m.reach + 1).max(1);
            let far = (8 * (2 * m.reach + 1) / m.probe + 2) * m.probe;
            let last_probe = (len - 2) / m.probe * m.probe;
            for sig in &sigs {
                let sig = sig.as_bytes();
                // Stream offsets of the planted signature.
                let mut starts: Vec<usize> = Vec::new();
                for p in [0, m.probe, far, far + m.probe, last_probe] {
                    let p = tail_len + p;
                    starts.extend(p.saturating_sub(sig.len())..=p + m.probe);
                }
                starts.extend(0..tail_len + m.reach + 1);
                starts.extend(tail_len + len - sig.len() - m.probe..=tail_len + len - sig.len());
                for at in starts.into_iter().filter(|&at| at + sig.len() <= tail_len + len) {
                    let mut stream = vec![b'#'; tail_len + len];
                    stream[at..at + sig.len()].copy_from_slice(sig);
                    let (tail, payload) = stream.split_at(tail_len);
                    let (hits, lanes_from) = scan_hits(&m, tail, payload);
                    assert_eq!(
                        hits,
                        naive_hits(&sigs, &stream),
                        "{sigs:?} at {at} of {tail_len}+{len}"
                    );
                    filtered += usize::from(lanes_from == len);
                }
            }
        }
        assert!(filtered > 1000, "only {filtered} plants stayed filtered");
    }

    /// Text full of signature pairs, after a stretch of bytes no signature
    /// holds, hands the rest of the payload to the lanes soon after it
    /// starts; a signature planted across that hand-over is seen.
    #[test]
    fn scan_hands_dense_text_to_the_lanes() {
        let mut rng = TestRng::from_name("scan_hands_dense_text_to_the_lanes");
        let mut across = 0;
        for case in 0..60 {
            let sigs = probed_signatures(&mut rng);
            let m = SigMatcher::compile(sigs.clone());
            let tail_len = below(&mut rng, m.reach + 1);
            let sparse = below(&mut rng, 600);
            let mut stream = vec![b'#'; tail_len + sparse];
            while stream.len() < tail_len + 1500 {
                let sig = sigs[below(&mut rng, sigs.len())].as_bytes();
                let cut = below(&mut rng, sig.len() + 1);
                let piece = if below(&mut rng, 2) == 0 { &sig[..cut] } else { &sig[cut..] };
                stream.extend_from_slice(piece);
            }
            let (tail, payload) = stream.split_at(tail_len);
            let (hits, lanes_from) = scan_hits(&m, tail, payload);
            assert_eq!(hits, naive_hits(&sigs, &stream), "case {case}: {sigs:?}");
            assert!(lanes_from < sparse + 100, "case {case}: lanes from {lanes_from} of {sparse}");
            let cut = tail_len + lanes_from;
            for sig in sigs.iter().map(String::as_bytes) {
                for at in cut + 1 - sig.len()..cut {
                    let mut stream = stream.clone();
                    stream[at..at + sig.len()].copy_from_slice(sig);
                    let (tail, payload) = stream.split_at(tail_len);
                    let (hits, lanes_from) = scan_hits(&m, tail, payload);
                    assert_eq!(hits, naive_hits(&sigs, &stream), "case {case}: {sigs:?} at {at}");
                    across += usize::from(at < tail_len + lanes_from);
                }
            }
        }
        assert!(across > 500, "only {across} plants lay across the hand-over");
    }

    /// A signature of one or two bytes leaves no pair to probe between
    /// its occurrences: `scan` is the lanes over every byte.
    #[test]
    fn scan_walks_every_byte_when_a_signature_is_under_three_bytes() {
        let mut rng = TestRng::from_name("scan_walks_every_byte_when_a_signature_is_under_three");
        for case in 0..100 {
            let mut sigs = probed_signatures(&mut rng);
            let short_len = 1 + below(&mut rng, 2);
            let short = String::from_utf8(random_bytes(&mut rng, b"abcd", short_len));
            sigs.insert(below(&mut rng, sigs.len() + 1), short.unwrap());
            let m = SigMatcher::compile(sigs.clone());
            assert_eq!(m.probe, 0, "{sigs:?}");
            let payload_len = m.reach + below(&mut rng, 1500);
            let mut stream = random_bytes(&mut rng, b"#", m.reach + payload_len);
            // One signature across the seam, one anywhere.
            for cut in [m.reach, below(&mut rng, stream.len())] {
                let sig = sigs[below(&mut rng, sigs.len())].as_bytes();
                let at = (cut + below(&mut rng, sig.len())).saturating_sub(sig.len());
                let at = at.min(stream.len() - sig.len());
                stream[at..at + sig.len()].copy_from_slice(sig);
            }
            let (tail, payload) = stream.split_at(m.reach);
            let (hits, lanes_from) = scan_hits(&m, tail, payload);
            assert_eq!(hits, naive_hits(&sigs, &stream), "case {case}: {sigs:?}");
            assert_eq!(lanes_from, 0);
        }
    }

    /// With no signature, or only empty ones, nothing is walked.
    #[test]
    fn scan_walks_nothing_without_a_signature() {
        for sigs in [vec![], vec![String::new()], vec![String::new(), String::new()]] {
            let m = SigMatcher::compile(sigs);
            assert_eq!(scan_hits(&m, b"ab", b"abcdef"), (vec![], 6));
            assert_eq!(scan_hits(&m, b"", b""), (vec![], 0));
        }
    }

    #[test]
    fn empty_signatures_never_match_and_duplicates_each_fire() {
        let m = SigMatcher::compile(vec!["ab".into(), String::new(), "ab".into(), "b".into()]);
        assert_eq!(matcher_hits(&m, b"", b"xxabxx"), vec![0, 2, 3]);
        assert_eq!(matcher_hits(&m, b"xa", b"b"), vec![0, 2, 3]);
        assert_eq!(matcher_hits(&m, b"", b"a"), Vec::<u32>::new());
        assert_eq!(matcher_hits(&SigMatcher::compile(Vec::new()), b"ab", b"ab"), Vec::<u32>::new());
    }

    /// The packet path this file had before the automaton, for data
    /// packets of an established connection: every signature searched
    /// for in tail + payload, and the whole `partial` buffer searched
    /// for a request-line end on every packet.
    fn parent_data_packet(
        rec: &mut ConnRecord,
        signatures: &[String],
        now: u64,
        pkt: &Packet,
        logs: &mut Vec<(String, String)>,
    ) {
        rec.last_ns = now;
        rec.orig_pkts += 1;
        rec.orig_bytes += pkt.payload.len() as u64;
        let http = rec.http.get_or_insert_with(HttpAnalyzer::default);
        if !pkt.payload.is_empty() {
            http.partial.extend_from_slice(&pkt.payload);
            if let Some(pos) = find_subsequence(&http.partial, b"\r\n")
                .or_else(|| find_subsequence(&http.partial, b"HTTP/1.1").map(|p| p + 8))
            {
                let line: Vec<u8> = http.partial.drain(..pos).collect();
                http.partial.clear();
                if line.starts_with(b"GET") || line.starts_with(b"POST") {
                    let text = String::from_utf8_lossy(&line).into_owned();
                    http.requests.push(text.clone());
                    logs.push(("http.log".into(), format!("{} {} {}", now, pkt.key, text)));
                }
            }
        }
        let mut scan_buf = rec.sig_tail.clone();
        scan_buf.extend_from_slice(&pkt.payload);
        for (idx, sig) in signatures.iter().enumerate() {
            let idx = idx as u32;
            if !rec.fired.contains(&idx) && find_subsequence(&scan_buf, sig.as_bytes()).is_some() {
                rec.fired.insert(idx);
                logs.push(("alert".into(), format!("{} signature '{}' on {}", now, sig, pkt.key)));
            }
        }
        let max_sig = signatures.iter().map(String::len).max().unwrap_or(0);
        let keep = max_sig.saturating_sub(1).min(scan_buf.len());
        rec.sig_tail = scan_buf[scan_buf.len() - keep..].to_vec();
    }

    #[test]
    fn random_packetisations_match_the_parent_packet_path() {
        let mut rng = TestRng::from_name("random_packetisations_match_the_parent_packet_path");
        let signatures: Vec<String> =
            ["evil.exe", "cmd.exe /c", "DROP TABLE", "exe"].map(String::from).to_vec();
        let tokens: [&[u8]; 12] = [
            b"GET /index.html",
            b"POST /form",
            b" HTTP/1.1",
            b"HTTP/1.",
            b"\r\n",
            b"\r",
            b"\n",
            b"evil.exe",
            b"cmd.exe /c",
            b"DROP TAB",
            b"LE",
            b"Host: example.org",
        ];
        for case in 0..60 {
            // One byte stream (shorter than the request-line cap, which
            // the parent did not have) ...
            let mut stream = Vec::new();
            let target = 200 + below(&mut rng, 4000);
            while stream.len() < target {
                if below(&mut rng, 3) == 0 {
                    let len = 1 + below(&mut rng, 300);
                    stream.extend(random_bytes(&mut rng, b"abcxyz /.", len));
                } else {
                    stream.extend_from_slice(tokens[below(&mut rng, tokens.len())]);
                }
            }
            // ... cut into packets three different ways.
            for cut in 0..3 {
                let key = conn_key(7000 + case);
                let mut ips = Ips::new();
                ips.set_config(
                    &HierarchicalKey::parse("rules/signatures"),
                    signatures.iter().cloned().map(ConfigValue::from).collect(),
                )
                .unwrap();
                let mut fx = Effects::normal();
                ips.process_packet(
                    SimTime(0),
                    &Packet::tcp(0, key, tcp_flags::ACK, Bytes::new()),
                    &mut fx,
                );
                let mut want_rec = ips.conns_sorted().pop().unwrap();
                want_rec.http = Some(HttpAnalyzer::default());
                let mut want_logs = Vec::new();

                let (mut at, mut now) = (0, 1);
                while at < stream.len() {
                    let len = match below(&mut rng, 5) {
                        0 => below(&mut rng, 4),
                        1 => 1 + below(&mut rng, 1500),
                        // End inside the next terminator.
                        2 => {
                            let term: &[u8] = [b"\r\n", &b"HTTP/1.1"[..]][below(&mut rng, 2)];
                            match find_subsequence(&stream[at..], term) {
                                Some(p) => p + 1 + below(&mut rng, term.len() - 1),
                                None => stream.len() - at,
                            }
                        }
                        _ => 1 + below(&mut rng, 64),
                    };
                    let end = (at + len).min(stream.len());
                    let pkt = Packet::tcp(now, key, tcp_flags::ACK, stream[at..end].to_vec());
                    ips.process_packet(SimTime(now), &pkt, &mut fx);
                    parent_data_packet(&mut want_rec, &signatures, now, &pkt, &mut want_logs);
                    (at, now) = (end, now + 1);
                }
                let got_logs: Vec<(String, String)> =
                    fx.take_logs().into_iter().map(|l| (l.log, l.line)).collect();
                assert_eq!(got_logs, want_logs, "case {case} cut {cut}");
                let got_rec = ips.conns_sorted().pop().unwrap();
                assert_eq!(
                    codec::encode(&got_rec),
                    codec::encode(&want_rec),
                    "case {case} cut {cut}"
                );
                assert_eq!(ips.stat().alerts as usize, got_rec.fired.len());
            }
        }
    }

    fn alerts_for(ips: &mut Ips, sp: u16, payload: &'static [u8]) -> Vec<String> {
        let mut fx = Effects::normal();
        let pkt = Packet::tcp(1, conn_key(sp), tcp_flags::ACK, Bytes::from_static(payload));
        ips.process_packet(SimTime(0), &pkt, &mut fx);
        fx.take_logs().into_iter().filter(|l| l.log == "alert").map(|l| l.line).collect()
    }

    #[test]
    fn config_writes_take_effect_on_the_next_packet() {
        let sig_key = HierarchicalKey::parse("rules/signatures");
        let mut ips = Ips::new();
        assert_eq!(alerts_for(&mut ips, 8000, b"evil.exe and worm.bin").len(), 1);

        // Added signatures fire, removed ones stop.
        ips.set_config(&sig_key, vec!["worm.bin".into(), "DROP TABLE".into()]).unwrap();
        let alerts = alerts_for(&mut ips, 8001, b"evil.exe and worm.bin");
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].contains("'worm.bin'"));

        // A clone matches like its original, and keeps doing so when
        // the original's config moves on.
        let mut copy = ips.clone();
        ips.del_config(&sig_key).unwrap();
        assert!(alerts_for(&mut ips, 8002, b"evil.exe worm.bin DROP TABLE").is_empty());
        assert_eq!(alerts_for(&mut copy, 8002, b"evil.exe worm.bin DROP TABLE").len(), 2);

        // Deleting the parent key silences the engine too.
        copy.del_config(&HierarchicalKey::parse("rules")).unwrap();
        assert!(alerts_for(&mut copy, 8003, b"worm.bin").is_empty());

        // The scan threshold is cached the same way.
        let threshold_key = HierarchicalKey::parse("params/scan_threshold");
        let probe = |ips: &mut Ips, src: u8, ports: u16| {
            let mut fx = Effects::normal();
            for port in 1..=ports {
                let key = FlowKey::tcp(ip(6, 6, 6, src), 5555, ip(192, 168, 0, 1), port);
                ips.process_packet(
                    SimTime(0),
                    &Packet::tcp(0, key, tcp_flags::SYN, Bytes::new()),
                    &mut fx,
                );
            }
            fx.take_logs().iter().filter(|l| l.line.contains("port scan")).count()
        };
        ips.set_config(&threshold_key, vec![ConfigValue::Int(3)]).unwrap();
        assert_eq!(probe(&mut ips, 1, 3), 1);
        ips.del_config(&threshold_key).unwrap();
        assert_eq!(probe(&mut ips, 2, 19), 0, "back to the default of 20");
        assert_eq!(probe(&mut ips, 3, 20), 1);
    }

    #[test]
    fn oversized_signature_list_is_rejected() {
        let mut ips = Ips::new();
        let big = "x".repeat(MAX_SIGNATURE_BYTES / 2 + 1);
        let err = ips.set_config(
            &HierarchicalKey::parse("rules/signatures"),
            vec![big.clone().into(), big.into()],
        );
        assert!(matches!(err, Err(Error::InvalidConfigValue { .. })), "{err:?}");
        assert_eq!(alerts_for(&mut ips, 8100, b"evil.exe").len(), 1, "old rules stay in force");
    }

    #[test]
    fn unterminated_request_line_is_capped() {
        let mut ips = Ips::new();
        let key = conn_key(9000);
        let mut fx = Effects::normal();
        let zeros = Packet::tcp(1, key, tcp_flags::ACK, vec![0u8; 64]);
        let mut at_1000 = 0;
        for i in 1..=10_000 {
            ips.process_packet(SimTime(i), &zeros, &mut fx);
            fx.reset();
            if i == 1_000 {
                at_1000 = ips.resident_state_bytes();
            }
            let partial = &ips.conns[&key].http.as_ref().unwrap().partial;
            assert!(partial.len() <= MAX_REQUEST_LINE, "packet {i}: {}", partial.len());
        }
        assert!(
            ips.resident_state_bytes() <= at_1000 + MAX_REQUEST_LINE,
            "record grew from {at_1000} to {} bytes",
            ips.resident_state_bytes()
        );

        // The longest line that fits still logs, however it is cut.
        let mut line = b"GET /".to_vec();
        line.resize(MAX_REQUEST_LINE - 1, b'a');
        let key = conn_key(9001);
        for chunk in line.chunks(1000) {
            ips.process_packet(
                SimTime(0),
                &Packet::tcp(2, key, tcp_flags::ACK, chunk.to_vec()),
                &mut fx,
            );
        }
        assert!(fx.logs().is_empty());
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(3, key, tcp_flags::ACK, b"\r\n".to_vec()),
            &mut fx,
        );
        let logs = fx.take_logs();
        assert_eq!(logs.len(), 1);
        assert!(logs[0].log == "http.log" && logs[0].line.len() > MAX_REQUEST_LINE);

        // A terminator split across the packet that overflows and the
        // next one is still seen.
        let key = conn_key(9002);
        let mut over = vec![b'a'; MAX_REQUEST_LINE + 1];
        over.extend_from_slice(b"GET HTTP");
        ips.process_packet(SimTime(0), &Packet::tcp(4, key, tcp_flags::ACK, over), &mut fx);
        ips.process_packet(
            SimTime(0),
            &Packet::tcp(5, key, tcp_flags::ACK, b"/1.1".to_vec()),
            &mut fx,
        );
        assert!(ips.conns[&key].http.as_ref().unwrap().partial.is_empty());
    }
}
