//! The controller ↔ middlebox wire protocol.
//!
//! The paper's prototype exchanges JSON messages over UNIX sockets to
//! "invoke operations, send/receive state, and raise/forward events"
//! (§7). We keep the identical message vocabulary — every southbound
//! operation of §4.1, acknowledgements, streamed state chunks, and the
//! two event kinds of §4.2 — but encode it with a compact length-prefixed
//! binary codec so the transfer-cost model (and the §8.3 compression
//! result) operates on realistic byte counts.
//!
//! Framing: each message is `u32 little-endian length ‖ body`. Bodies are
//! type-tagged; all integers little-endian; strings and blobs are
//! `u32 length ‖ bytes`.

use std::borrow::Cow;
use std::net::Ipv4Addr;

use bytes::Bytes;

use crate::config::{ConfigValue, HierarchicalKey};
use crate::error::{Error, Result};
use crate::flow::{FlowKey, HeaderFieldList, IpPrefix, Proto};
use crate::packet::{Packet, PacketMeta};
use crate::state::{EncryptedChunk, StateChunk, StateStats};
use crate::{MbId, OpId};

/// Maximum decoded message size; guards against corrupt length prefixes.
pub const MAX_MESSAGE: usize = 64 << 20;

/// Most flow records one *run* carries: the unit of per-flow transfer.
/// A run is consecutive records of one get, in the key order the
/// middlebox exported them, and costs one controller sub-op, one
/// transfer-window slot, one content hash, one reference exchange and
/// one `PutAck` whatever its length. Each record inside stays sealed
/// on its own. A run of one travels as [`Message::Chunk`] and encodes
/// byte for byte as a lone record always has (DESIGN §13 "Runs").
pub const RUN_FLOWS: usize = 16;

/// Introspection / reprocess events raised by middleboxes (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// "Packet re-process" event (§4.2.1): raised by the source MB when a
    /// packet updates a piece of state that has been moved or cloned.
    /// Carries a copy of the packet; the destination replays it with
    /// external side effects suppressed.
    Reprocess {
        /// The operation during which the update happened.
        op: OpId,
        /// The flow whose (moved/cloned) state the packet updated.
        key: FlowKey,
        /// A copy of the triggering packet.
        packet: Packet,
    },
    /// Introspection event (§4.2.2): announces that the MB created or
    /// updated a piece of state. Includes a key identifying the state, an
    /// MB-specific event code, and optional MB-specific values.
    Introspection {
        /// MB-specific event code (e.g. NAT_MAPPING_CREATED).
        code: u32,
        /// The flow the state applies to.
        key: FlowKey,
        /// MB-specific `(name, value)` details (e.g. the chosen backend).
        values: Vec<(String, String)>,
    },
}

impl Event {
    /// Rough wire size in bytes, for the controller's accounting.
    pub fn wire_len(&self) -> usize {
        match self {
            Event::Reprocess { packet, .. } => 32 + packet.payload.len(),
            Event::Introspection { values, .. } => {
                24 + values.iter().map(|(k, v)| k.len() + v.len() + 8).sum::<usize>()
            }
        }
    }
}

/// Which introspection events an application wants delivered (§4.2.2):
/// "OpenMB makes it possible to enable or disable the generation of
/// introspection events based on event codes and keys."
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventFilter {
    /// Restrict to these event codes; `None` = all codes.
    pub codes: Option<Vec<u32>>,
    /// Restrict to state whose flow matches this pattern; `None` = all.
    pub key: Option<HeaderFieldList>,
}

impl EventFilter {
    /// A filter matching every introspection event.
    pub fn all() -> Self {
        EventFilter::default()
    }

    /// Does an introspection event pass this filter?
    pub fn accepts(&self, code: u32, key: &FlowKey) -> bool {
        self.codes.as_ref().is_none_or(|cs| cs.contains(&code))
            && self.key.as_ref().is_none_or(|h| h.matches_bidi(key))
    }
}

/// Every message exchanged between the MB controller and a middlebox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    // ---- controller -> MB: configuration state (§4.1.1) ----
    GetConfig {
        op: OpId,
        key: HierarchicalKey,
    },
    SetConfig {
        op: OpId,
        key: HierarchicalKey,
        values: Vec<ConfigValue>,
    },
    DelConfig {
        op: OpId,
        key: HierarchicalKey,
    },

    // ---- controller -> MB: per-flow state (§4.1.2 / §4.1.3) ----
    GetSupportPerflow {
        op: OpId,
        key: HeaderFieldList,
    },
    /// A run's records, applied in order and acknowledged with one
    /// `PutAck`; `rest` is empty for a run of one.
    PutSupportPerflow {
        op: OpId,
        chunk: StateChunk,
        rest: Vec<StateChunk>,
    },
    DelSupportPerflow {
        op: OpId,
        key: HeaderFieldList,
    },
    GetReportPerflow {
        op: OpId,
        key: HeaderFieldList,
    },
    PutReportPerflow {
        op: OpId,
        chunk: StateChunk,
        rest: Vec<StateChunk>,
    },
    DelReportPerflow {
        op: OpId,
        key: HeaderFieldList,
    },

    // ---- controller -> MB: shared state (§4.1.2 / §4.1.3) ----
    GetSupportShared {
        op: OpId,
    },
    PutSupportShared {
        op: OpId,
        chunk: EncryptedChunk,
    },
    GetReportShared {
        op: OpId,
    },
    PutReportShared {
        op: OpId,
        chunk: EncryptedChunk,
    },

    // ---- controller -> MB: stats + event subscription ----
    GetStats {
        op: OpId,
        key: HeaderFieldList,
    },
    EnableEvents {
        op: OpId,
        filter: EventFilter,
    },
    DisableEvents {
        op: OpId,
    },
    /// A reprocess event forwarded by the controller to the destination MB.
    ReprocessPacket {
        op: OpId,
        key: FlowKey,
        packet: Packet,
    },
    /// Close the sync window for `op` at the source MB: stop raising
    /// reprocess events and clear moved/cloned marks. Sent by the
    /// controller when its quiescence timer concludes the routing change
    /// has taken effect (Fig 5's implicit end-of-move, extended to
    /// clones which have no delete).
    EndSync {
        op: OpId,
    },
    /// Compensating rollback for an aborted clone/merge (§4.1.3): undo
    /// the shared-state puts listed in `puts` (sub-op ids, in the order
    /// they were applied) by restoring the pre-put snapshot. The
    /// embedding answers with [`Message::DeleteAck`].
    DeleteState {
        op: OpId,
        puts: Vec<OpId>,
    },

    // ---- MB -> controller ----
    /// One streamed per-flow chunk answering a `Get*Perflow`: a run of
    /// one.
    Chunk {
        op: OpId,
        chunk: StateChunk,
    },
    /// A run of two or more streamed per-flow records answering a
    /// `Get*Perflow`: `chunk` and then `rest`, in export order. Built by
    /// [`Message::run`], which sends a run of one as [`Message::Chunk`].
    ChunkRun {
        op: OpId,
        chunk: StateChunk,
        rest: Vec<StateChunk>,
    },
    /// Stream terminator: the get completed; `count` chunks were sent.
    /// (The "ACK after both get operations complete" of Fig 5.)
    GetAck {
        op: OpId,
        count: u32,
    },
    /// A shared-state blob answering `Get*Shared`.
    SharedChunk {
        op: OpId,
        chunk: EncryptedChunk,
    },
    /// Acknowledges one successful `Put*` (Fig 5: "The DstMB will send an
    /// ACK to the controller after each put operation completes").
    PutAck {
        op: OpId,
        key: Option<HeaderFieldList>,
    },
    /// Acknowledges a `Del*`, `SetConfig`, `DelConfig`, or event
    /// subscription change.
    OpAck {
        op: OpId,
    },
    /// Acknowledges a [`Message::DeleteState`] rollback; `restored` is
    /// the number of listed puts that were actually undone (0 when the
    /// snapshot log had already rotated past them).
    DeleteAck {
        op: OpId,
        restored: u32,
    },
    /// Configuration values answering `GetConfig`.
    ConfigValues {
        op: OpId,
        pairs: Vec<(HierarchicalKey, Vec<ConfigValue>)>,
    },
    /// Stats answering `GetStats`.
    Stats {
        op: OpId,
        stats: StateStats,
    },
    /// An event raised by the MB (reprocess or introspection).
    EventMsg {
        event: Event,
    },
    /// Operation failure, carrying the typed [`Error`] so controllers
    /// and applications can branch on the failure kind rather than
    /// parse a message string.
    ErrorMsg {
        op: OpId,
        error: Error,
    },
    // ---- content-addressed transfer (negotiate-then-reference) ----
    /// Manifest entry of a content-addressed transfer: "the destination
    /// may already hold these bytes". Carries the run's keys and the
    /// content hash of its [`run_content`] but NOT the bodies; the
    /// destination applies from its `ContentStore` on a hit (answering
    /// with [`Message::PutAck`] exactly as for a streamed put) or
    /// answers with [`Message::ChunkNeed`] on a miss.
    ChunkRef {
        op: OpId,
        /// Whether the referenced chunk is supporting or reporting state
        /// (selects `putSupportPerflow`/`putReportPerflow` semantics on
        /// application).
        class: ChunkClass,
        /// The run's first key.
        key: HeaderFieldList,
        hash: [u8; 32],
        /// The keys of the run's further records; empty for a run of one.
        rest: Vec<HeaderFieldList>,
    },
    /// The destination's half of the negotiation: it does not hold the
    /// body for `hash` and needs it streamed. Answered by the controller
    /// with a [`Message::ChunkBody`].
    ChunkNeed {
        op: OpId,
        hash: [u8; 32],
    },
    /// A hash-addressed run body streamed in answer to a
    /// [`Message::ChunkNeed`]: the first record as `key`/`data`, the
    /// rest in `rest`. The destination verifies the hash of the run's
    /// [`run_content`], stores that in its `ContentStore`, applies the
    /// records, and acknowledges with [`Message::PutAck`].
    ChunkBody {
        op: OpId,
        class: ChunkClass,
        key: HeaderFieldList,
        hash: [u8; 32],
        data: EncryptedChunk,
        rest: Vec<StateChunk>,
    },

    /// Several messages bound for the same node coalesced into one wire
    /// frame (one length prefix, one scheduler event in the simulator).
    /// Nesting is not allowed: a `Batch` inside a `Batch` is a codec
    /// error. Carries no op id of its own — each inner message keeps
    /// its own attribution.
    Batch {
        msgs: Vec<Message>,
    },
}

/// Which per-flow state class a [`Message::ChunkRef`]/[`Message::ChunkBody`]
/// applies to. Companion enum of the transfer slice of [`Message`];
/// `#[non_exhaustive]` like the northbound [`Error`] so adding a class
/// (e.g. a shared-state one) is not a breaking change for embedders.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkClass {
    /// Per-flow supporting state (`putSupportPerflow` semantics).
    Support,
    /// Per-flow reporting state (`putReportPerflow` semantics).
    Report,
}

impl ChunkClass {
    /// Wire discriminant byte.
    fn number(self) -> u8 {
        match self {
            ChunkClass::Support => 0,
            ChunkClass::Report => 1,
        }
    }

    fn from_number(b: u8) -> Option<Self> {
        match b {
            0 => Some(ChunkClass::Support),
            1 => Some(ChunkClass::Report),
            _ => None,
        }
    }
}

impl Message {
    /// The operation this message belongs to, when it has one.
    pub fn op_id(&self) -> Option<OpId> {
        use Message::*;
        match self {
            GetConfig { op, .. }
            | SetConfig { op, .. }
            | DelConfig { op, .. }
            | GetSupportPerflow { op, .. }
            | PutSupportPerflow { op, .. }
            | DelSupportPerflow { op, .. }
            | GetReportPerflow { op, .. }
            | PutReportPerflow { op, .. }
            | DelReportPerflow { op, .. }
            | GetSupportShared { op }
            | PutSupportShared { op, .. }
            | GetReportShared { op }
            | PutReportShared { op, .. }
            | GetStats { op, .. }
            | EnableEvents { op, .. }
            | DisableEvents { op }
            | ReprocessPacket { op, .. }
            | EndSync { op }
            | DeleteState { op, .. }
            | Chunk { op, .. }
            | ChunkRun { op, .. }
            | GetAck { op, .. }
            | SharedChunk { op, .. }
            | PutAck { op, .. }
            | OpAck { op }
            | DeleteAck { op, .. }
            | ConfigValues { op, .. }
            | Stats { op, .. }
            | ChunkRef { op, .. }
            | ChunkNeed { op, .. }
            | ChunkBody { op, .. }
            | ErrorMsg { op, .. } => Some(*op),
            EventMsg { .. } | Batch { .. } => None,
        }
    }

    /// Wire-protocol name of this message's variant, for span/trace
    /// attribution ("which southbound message was this?").
    pub fn kind_name(&self) -> &'static str {
        use Message::*;
        match self {
            GetConfig { .. } => "getConfig",
            SetConfig { .. } => "setConfig",
            DelConfig { .. } => "delConfig",
            GetSupportPerflow { .. } => "getSupportPerflow",
            PutSupportPerflow { .. } => "putSupportPerflow",
            DelSupportPerflow { .. } => "delSupportPerflow",
            GetReportPerflow { .. } => "getReportPerflow",
            PutReportPerflow { .. } => "putReportPerflow",
            DelReportPerflow { .. } => "delReportPerflow",
            GetSupportShared { .. } => "getSupportShared",
            PutSupportShared { .. } => "putSupportShared",
            GetReportShared { .. } => "getReportShared",
            PutReportShared { .. } => "putReportShared",
            GetStats { .. } => "getStats",
            EnableEvents { .. } => "enableEvents",
            DisableEvents { .. } => "disableEvents",
            ReprocessPacket { .. } => "reprocessPacket",
            EndSync { .. } => "endSync",
            DeleteState { .. } => "deleteState",
            Chunk { .. } => "chunk",
            ChunkRun { .. } => "chunkRun",
            GetAck { .. } => "getAck",
            SharedChunk { .. } => "sharedChunk",
            PutAck { .. } => "putAck",
            OpAck { .. } => "opAck",
            DeleteAck { .. } => "deleteAck",
            ConfigValues { .. } => "configValues",
            Stats { .. } => "stats",
            ChunkRef { .. } => "chunkRef",
            ChunkNeed { .. } => "chunkNeed",
            ChunkBody { .. } => "chunkBody",
            EventMsg { .. } => "event",
            ErrorMsg { .. } => "error",
            Batch { .. } => "batch",
        }
    }

    /// Unpack a received frame into the messages it carries: a
    /// [`Message::Batch`] yields each inner message in order, anything
    /// else yields itself once.
    ///
    /// This is *the* receive-side unpack loop — every embedding
    /// (simulated controller and MB nodes, the TCP serve loops, the raw
    /// southbound dispatcher) must act on the inner messages, never on
    /// the `Batch` envelope, so they all funnel through here. Nested
    /// batches are rejected at decode, so one level is all there is.
    pub fn for_each_unbatched(self, mut f: impl FnMut(Message)) {
        match self {
            Message::Batch { msgs } => {
                for m in msgs {
                    f(m);
                }
            }
            m => f(m),
        }
    }

    /// One run of per-flow records streamed under get `op`: `chunk`
    /// then `rest`, as [`Message::Chunk`] when `rest` is empty and as
    /// [`Message::ChunkRun`] otherwise.
    pub fn run(op: OpId, chunk: StateChunk, rest: Vec<StateChunk>) -> Message {
        if rest.is_empty() {
            Message::Chunk { op, chunk }
        } else {
            Message::ChunkRun { op, chunk, rest }
        }
    }

    /// The flow keys of the run a per-flow transfer message carries —
    /// a streamed run, a put, a reference or a body — in run order;
    /// none for any other message.
    pub fn run_keys(&self) -> impl Iterator<Item = &HeaderFieldList> {
        use Message::*;
        let (first, keys, chunks): (_, &[HeaderFieldList], &[StateChunk]) = match self {
            Chunk { chunk, .. } => (Some(&chunk.key), &[], &[]),
            ChunkRun { chunk, rest, .. }
            | PutSupportPerflow { chunk, rest, .. }
            | PutReportPerflow { chunk, rest, .. } => (Some(&chunk.key), &[], rest),
            ChunkRef { key, rest, .. } => (Some(key), rest, &[]),
            ChunkBody { key, rest, .. } => (Some(key), &[], rest),
            _ => (None, &[], &[]),
        };
        first.into_iter().chain(keys).chain(chunks.iter().map(|c| &c.key))
    }

    /// Like [`Message::for_each_unbatched`], but materialized. Handy
    /// when the inner messages must be counted or indexed before acting.
    pub fn into_unbatched(self) -> Vec<Message> {
        match self {
            Message::Batch { msgs } => msgs,
            m => vec![m],
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Growable encode buffer with the primitive writers of the codec.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    pub fn ip(&mut self, v: Ipv4Addr) {
        self.buf.extend_from_slice(&v.octets());
    }

    /// A 5-tuple, 13 bytes: the layout messages and middlebox records
    /// share.
    pub fn flow_key(&mut self, k: &FlowKey) {
        self.ip(k.src_ip);
        self.ip(k.dst_ip);
        self.u16(k.src_port);
        self.u16(k.dst_port);
        self.u8(k.proto.number());
    }

    fn hfl(&mut self, h: &HeaderFieldList) {
        self.ip(h.nw_src.addr());
        self.u8(h.nw_src.len());
        self.ip(h.nw_dst.addr());
        self.u8(h.nw_dst.len());
        self.opt_u16(h.tp_src);
        self.opt_u16(h.tp_dst);
        match h.proto {
            None => self.u8(0xff),
            Some(p) => self.u8(p.number()),
        }
    }

    fn opt_u16(&mut self, v: Option<u16>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u16(x);
            }
        }
    }

    fn hkey(&mut self, k: &HierarchicalKey) {
        self.u32(k.segments().len() as u32);
        for s in k.segments() {
            self.str(s);
        }
    }

    fn config_values(&mut self, vs: &[ConfigValue]) {
        self.u32(vs.len() as u32);
        for v in vs {
            match v {
                ConfigValue::Str(s) => {
                    self.u8(0);
                    self.str(s);
                }
                ConfigValue::Int(i) => {
                    self.u8(1);
                    self.i64(*i);
                }
                ConfigValue::Bool(b) => {
                    self.u8(2);
                    self.bool(*b);
                }
            }
        }
    }

    fn packet(&mut self, p: &Packet) {
        self.u64(p.id);
        self.flow_key(&p.key);
        self.u8(p.meta.tcp_flags);
        self.u32(p.meta.seq);
        self.bool(p.meta.http_request);
        self.bytes(&p.payload);
    }

    fn chunk(&mut self, c: &StateChunk) {
        self.hfl(&c.key);
        self.bytes(c.data.as_wire());
    }

    fn hash(&mut self, h: &[u8; 32]) {
        self.buf.extend_from_slice(h);
    }

    /// The tag of a variant that carries a run: `one` for a run of one
    /// — which so encodes exactly as a lone record — and `one` with
    /// [`tag::RUN`] set otherwise, announcing [`Writer::rest`].
    fn run_tag<T>(&mut self, one: u8, rest: &[T]) {
        self.u8(if rest.is_empty() { one } else { one | tag::RUN });
    }

    /// A run's items after its first, as the message's last field: a
    /// count, then the items. Written only under a [`tag::RUN`] tag.
    fn rest<T>(&mut self, rest: &[T], item: impl Fn(&mut Self, &T)) {
        if rest.is_empty() {
            return;
        }
        self.u32(rest.len() as u32);
        for x in rest {
            item(self, x);
        }
    }

    /// Typed error payload: `u8` kind discriminant followed by the
    /// variant's fields. Kept exhaustive on purpose — adding an [`Error`]
    /// variant must come with a wire mapping.
    fn error(&mut self, e: &Error) {
        match e {
            Error::GranularityTooFine { requested, native } => {
                self.u8(err_kind::GRANULARITY_TOO_FINE);
                self.hfl(requested);
                self.str(native);
            }
            Error::NoSuchConfigKey(k) => {
                self.u8(err_kind::NO_SUCH_CONFIG_KEY);
                self.str(k);
            }
            Error::InvalidConfigValue { key, reason } => {
                self.u8(err_kind::INVALID_CONFIG_VALUE);
                self.str(key);
                self.str(reason);
            }
            Error::UnknownMb(id) => {
                self.u8(err_kind::UNKNOWN_MB);
                self.u32(id.0);
            }
            Error::UnsupportedStateClass(c) => {
                self.u8(err_kind::UNSUPPORTED_STATE_CLASS);
                self.str(c);
            }
            Error::MalformedChunk(why) => {
                self.u8(err_kind::MALFORMED_CHUNK);
                self.str(why);
            }
            Error::MergeNotPermitted(why) => {
                self.u8(err_kind::MERGE_NOT_PERMITTED);
                self.str(why);
            }
            Error::Codec(why) => {
                self.u8(err_kind::CODEC);
                self.str(why);
            }
            Error::Transport(why) => {
                self.u8(err_kind::TRANSPORT);
                self.str(why);
            }
            Error::Timeout { op } => {
                self.u8(err_kind::TIMEOUT);
                self.u64(op.0);
            }
            Error::MbUnreachable(id) => {
                self.u8(err_kind::MB_UNREACHABLE);
                self.u32(id.0);
            }
            Error::OpFailed(why) => {
                self.u8(err_kind::OP_FAILED);
                self.str(why);
            }
        }
    }
}

/// Wire discriminants for the typed [`Error`] payload of `ErrorMsg`.
mod err_kind {
    pub const GRANULARITY_TOO_FINE: u8 = 1;
    pub const NO_SUCH_CONFIG_KEY: u8 = 2;
    pub const INVALID_CONFIG_VALUE: u8 = 3;
    pub const UNKNOWN_MB: u8 = 4;
    pub const UNSUPPORTED_STATE_CLASS: u8 = 5;
    pub const MALFORMED_CHUNK: u8 = 6;
    pub const MERGE_NOT_PERMITTED: u8 = 7;
    pub const CODEC: u8 = 8;
    pub const TRANSPORT: u8 = 9;
    pub const TIMEOUT: u8 = 10;
    pub const MB_UNREACHABLE: u8 = 11;
    pub const OP_FAILED: u8 = 12;
}

/// Cursor-based decode buffer with the primitive readers of the codec.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The refcounted owner of `buf`, when decoding from one. Lets
    /// [`Reader::bytes_shared`] hand out zero-copy views instead of
    /// copying every payload.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, shared: None }
    }

    /// A reader over a refcounted buffer: blob fields decode as zero-copy
    /// views sharing `buf`'s storage.
    pub fn new_shared(buf: &'a Bytes) -> Self {
        Reader { buf, pos: 0, shared: Some(buf) }
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            Err(Error::Codec(format!(
                "truncated message: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    pub fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }
    pub fn u16(&mut self) -> Result<u16> {
        self.need(2)?;
        let v = u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        Ok(v)
    }
    pub fn u32(&mut self) -> Result<u32> {
        self.need(4)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }
    pub fn u64(&mut self) -> Result<u64> {
        self.need(8)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        if n > MAX_MESSAGE {
            return Err(Error::Codec(format!("blob length {n} exceeds limit")));
        }
        self.need(n)?;
        let v = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(v)
    }

    /// Like [`Reader::bytes`], but returns a refcounted [`Bytes`]. When
    /// the reader was built with [`Reader::new_shared`] this is a
    /// zero-copy view into the receive buffer; otherwise it copies once.
    pub fn bytes_shared(&mut self) -> Result<Bytes> {
        let n = self.u32()? as usize;
        if n > MAX_MESSAGE {
            return Err(Error::Codec(format!("blob length {n} exceeds limit")));
        }
        self.need(n)?;
        let v = match self.shared {
            Some(src) => src.slice(self.pos..self.pos + n),
            None => Bytes::from(self.buf[self.pos..self.pos + n].to_vec()),
        };
        self.pos += n;
        Ok(v)
    }
    pub fn str(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|e| Error::Codec(format!("bad utf8: {e}")))
    }
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }
    pub fn ip(&mut self) -> Result<Ipv4Addr> {
        self.need(4)?;
        let v = Ipv4Addr::new(
            self.buf[self.pos],
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
        );
        self.pos += 4;
        Ok(v)
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reverse of [`Writer::flow_key`].
    pub fn flow_key(&mut self) -> Result<FlowKey> {
        let src_ip = self.ip()?;
        let dst_ip = self.ip()?;
        let src_port = self.u16()?;
        let dst_port = self.u16()?;
        let pn = self.u8()?;
        let proto =
            Proto::from_number(pn).ok_or_else(|| Error::Codec(format!("bad proto {pn}")))?;
        Ok(FlowKey { src_ip, dst_ip, src_port, dst_port, proto })
    }

    /// Decode the typed error payload written by [`Writer::error`].
    fn error(&mut self) -> Result<Error> {
        let kind = self.u8()?;
        Ok(match kind {
            err_kind::GRANULARITY_TOO_FINE => {
                Error::GranularityTooFine { requested: self.hfl()?, native: self.str()? }
            }
            err_kind::NO_SUCH_CONFIG_KEY => Error::NoSuchConfigKey(self.str()?),
            err_kind::INVALID_CONFIG_VALUE => {
                Error::InvalidConfigValue { key: self.str()?, reason: self.str()? }
            }
            err_kind::UNKNOWN_MB => Error::UnknownMb(MbId(self.u32()?)),
            err_kind::UNSUPPORTED_STATE_CLASS => Error::UnsupportedStateClass(self.str()?),
            err_kind::MALFORMED_CHUNK => Error::MalformedChunk(self.str()?),
            err_kind::MERGE_NOT_PERMITTED => Error::MergeNotPermitted(self.str()?),
            err_kind::CODEC => Error::Codec(self.str()?),
            err_kind::TRANSPORT => Error::Transport(self.str()?),
            err_kind::TIMEOUT => Error::Timeout { op: OpId(self.u64()?) },
            err_kind::MB_UNREACHABLE => Error::MbUnreachable(MbId(self.u32()?)),
            err_kind::OP_FAILED => Error::OpFailed(self.str()?),
            other => return Err(Error::Codec(format!("bad error kind {other}"))),
        })
    }

    fn hfl(&mut self) -> Result<HeaderFieldList> {
        let src_addr = self.ip()?;
        let src_len = self.u8()?;
        let dst_addr = self.ip()?;
        let dst_len = self.u8()?;
        if src_len > 32 || dst_len > 32 {
            return Err(Error::Codec("prefix length > 32".into()));
        }
        let tp_src = self.opt_u16()?;
        let tp_dst = self.opt_u16()?;
        let pb = self.u8()?;
        let proto = if pb == 0xff {
            None
        } else {
            Some(Proto::from_number(pb).ok_or_else(|| Error::Codec(format!("bad proto {pb}")))?)
        };
        Ok(HeaderFieldList {
            nw_src: IpPrefix::new(src_addr, src_len),
            nw_dst: IpPrefix::new(dst_addr, dst_len),
            tp_src,
            tp_dst,
            proto,
        })
    }

    fn opt_u16(&mut self) -> Result<Option<u16>> {
        if self.u8()? == 0 {
            Ok(None)
        } else {
            Ok(Some(self.u16()?))
        }
    }

    fn hkey(&mut self) -> Result<HierarchicalKey> {
        let n = self.u32()? as usize;
        if n > 1024 {
            return Err(Error::Codec("hierarchical key too deep".into()));
        }
        let mut k = HierarchicalKey::root();
        for _ in 0..n {
            k = k.child(&self.str()?);
        }
        Ok(k)
    }

    fn config_values(&mut self) -> Result<Vec<ConfigValue>> {
        let n = self.u32()? as usize;
        if n > MAX_MESSAGE / 2 {
            return Err(Error::Codec("too many config values".into()));
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => ConfigValue::Str(self.str()?),
                1 => ConfigValue::Int(self.i64()?),
                2 => ConfigValue::Bool(self.bool()?),
                t => return Err(Error::Codec(format!("bad config value tag {t}"))),
            });
        }
        Ok(out)
    }

    fn packet(&mut self) -> Result<Packet> {
        let id = self.u64()?;
        let key = self.flow_key()?;
        let tcp_flags = self.u8()?;
        let seq = self.u32()?;
        let http_request = self.bool()?;
        let payload = self.bytes_shared()?;
        Ok(Packet { id, key, meta: PacketMeta { tcp_flags, seq, http_request }, payload })
    }

    fn chunk(&mut self) -> Result<StateChunk> {
        let key = self.hfl()?;
        let data = EncryptedChunk::from_wire(self.bytes_shared()?);
        Ok(StateChunk { key, data })
    }

    /// A 32-byte content hash. The all-zero hash is rejected the same
    /// way nested `Batch` frames are: `encode` will happily serialize
    /// one, but no hash function here produces it, so on the wire it
    /// can only mean a malformed manifest.
    fn hash(&mut self) -> Result<[u8; 32]> {
        self.need(32)?;
        let mut h = [0u8; 32];
        h.copy_from_slice(&self.buf[self.pos..self.pos + 32]);
        self.pos += 32;
        if h == [0u8; 32] {
            return Err(Error::Codec("null content hash in manifest".into()));
        }
        Ok(h)
    }

    /// Reverse of [`Writer::rest`] under a tag with [`tag::RUN`] set
    /// (`run`): a count of at least one, then the items. Without it the
    /// message is a run of one.
    fn rest<T>(&mut self, run: bool, item: impl Fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        if !run {
            return Ok(Vec::new());
        }
        let n = self.u32()? as usize;
        if n == 0 || n > MAX_MESSAGE / 8 {
            return Err(Error::Codec(format!("bad run length {n}")));
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn chunk_class(&mut self) -> Result<ChunkClass> {
        let b = self.u8()?;
        ChunkClass::from_number(b).ok_or_else(|| Error::Codec(format!("bad chunk class {b}")))
    }
}

mod tag {
    pub const GET_CONFIG: u8 = 1;
    pub const SET_CONFIG: u8 = 2;
    pub const DEL_CONFIG: u8 = 3;
    pub const GET_SUPPORT_PERFLOW: u8 = 4;
    pub const PUT_SUPPORT_PERFLOW: u8 = 5;
    pub const DEL_SUPPORT_PERFLOW: u8 = 6;
    pub const GET_REPORT_PERFLOW: u8 = 7;
    pub const PUT_REPORT_PERFLOW: u8 = 8;
    pub const DEL_REPORT_PERFLOW: u8 = 9;
    pub const GET_SUPPORT_SHARED: u8 = 10;
    pub const PUT_SUPPORT_SHARED: u8 = 11;
    pub const GET_REPORT_SHARED: u8 = 12;
    pub const PUT_REPORT_SHARED: u8 = 13;
    pub const GET_STATS: u8 = 14;
    pub const ENABLE_EVENTS: u8 = 15;
    pub const DISABLE_EVENTS: u8 = 16;
    pub const REPROCESS_PACKET: u8 = 17;
    pub const CHUNK: u8 = 18;
    pub const GET_ACK: u8 = 19;
    pub const SHARED_CHUNK: u8 = 20;
    pub const PUT_ACK: u8 = 21;
    pub const OP_ACK: u8 = 22;
    pub const CONFIG_VALUES: u8 = 23;
    pub const STATS: u8 = 24;
    pub const EVENT_REPROCESS: u8 = 25;
    pub const EVENT_INTROSPECTION: u8 = 26;
    pub const ERROR: u8 = 27;
    pub const END_SYNC: u8 = 28;
    pub const DELETE_STATE: u8 = 29;
    pub const DELETE_ACK: u8 = 30;
    pub const BATCH: u8 = 31;
    pub const CHUNK_REF: u8 = 32;
    pub const CHUNK_NEED: u8 = 33;
    pub const CHUNK_BODY: u8 = 34;
    /// Set on the tag of a variant that carries a run when the run has
    /// more than one record; the further ones follow as the message's
    /// last field. The tags with it are distinct, so every run shape has
    /// one encoding and no prefix of one decodes as another.
    pub const RUN: u8 = 0x40;
    pub const PUT_SUPPORT_RUN: u8 = PUT_SUPPORT_PERFLOW | RUN;
    pub const PUT_REPORT_RUN: u8 = PUT_REPORT_PERFLOW | RUN;
    pub const CHUNK_RUN: u8 = CHUNK | RUN;
    pub const CHUNK_REF_RUN: u8 = CHUNK_REF | RUN;
    pub const CHUNK_BODY_RUN: u8 = CHUNK_BODY | RUN;
}

/// Encode a message body (no length prefix).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    encode_into(&mut w, msg);
    w.into_bytes()
}

/// Append `msg`'s encoding to `w`.
fn encode_into(w: &mut Writer, msg: &Message) {
    match msg {
        Message::GetConfig { op, key } => {
            w.u8(tag::GET_CONFIG);
            w.u64(op.0);
            w.hkey(key);
        }
        Message::SetConfig { op, key, values } => {
            w.u8(tag::SET_CONFIG);
            w.u64(op.0);
            w.hkey(key);
            w.config_values(values);
        }
        Message::DelConfig { op, key } => {
            w.u8(tag::DEL_CONFIG);
            w.u64(op.0);
            w.hkey(key);
        }
        Message::GetSupportPerflow { op, key } => {
            w.u8(tag::GET_SUPPORT_PERFLOW);
            w.u64(op.0);
            w.hfl(key);
        }
        Message::PutSupportPerflow { op, chunk, rest } => {
            w.run_tag(tag::PUT_SUPPORT_PERFLOW, rest);
            w.u64(op.0);
            w.chunk(chunk);
            w.rest(rest, Writer::chunk);
        }
        Message::DelSupportPerflow { op, key } => {
            w.u8(tag::DEL_SUPPORT_PERFLOW);
            w.u64(op.0);
            w.hfl(key);
        }
        Message::GetReportPerflow { op, key } => {
            w.u8(tag::GET_REPORT_PERFLOW);
            w.u64(op.0);
            w.hfl(key);
        }
        Message::PutReportPerflow { op, chunk, rest } => {
            w.run_tag(tag::PUT_REPORT_PERFLOW, rest);
            w.u64(op.0);
            w.chunk(chunk);
            w.rest(rest, Writer::chunk);
        }
        Message::DelReportPerflow { op, key } => {
            w.u8(tag::DEL_REPORT_PERFLOW);
            w.u64(op.0);
            w.hfl(key);
        }
        Message::GetSupportShared { op } => {
            w.u8(tag::GET_SUPPORT_SHARED);
            w.u64(op.0);
        }
        Message::PutSupportShared { op, chunk } => {
            w.u8(tag::PUT_SUPPORT_SHARED);
            w.u64(op.0);
            w.bytes(chunk.as_wire());
        }
        Message::GetReportShared { op } => {
            w.u8(tag::GET_REPORT_SHARED);
            w.u64(op.0);
        }
        Message::PutReportShared { op, chunk } => {
            w.u8(tag::PUT_REPORT_SHARED);
            w.u64(op.0);
            w.bytes(chunk.as_wire());
        }
        Message::GetStats { op, key } => {
            w.u8(tag::GET_STATS);
            w.u64(op.0);
            w.hfl(key);
        }
        Message::EnableEvents { op, filter } => {
            w.u8(tag::ENABLE_EVENTS);
            w.u64(op.0);
            match &filter.codes {
                None => w.u8(0),
                Some(cs) => {
                    w.u8(1);
                    w.u32(cs.len() as u32);
                    for c in cs {
                        w.u32(*c);
                    }
                }
            }
            match &filter.key {
                None => w.u8(0),
                Some(h) => {
                    w.u8(1);
                    w.hfl(h);
                }
            }
        }
        Message::DisableEvents { op } => {
            w.u8(tag::DISABLE_EVENTS);
            w.u64(op.0);
        }
        Message::ReprocessPacket { op, key, packet } => {
            w.u8(tag::REPROCESS_PACKET);
            w.u64(op.0);
            w.flow_key(key);
            w.packet(packet);
        }
        Message::Chunk { op, chunk } => {
            w.u8(tag::CHUNK);
            w.u64(op.0);
            w.chunk(chunk);
        }
        Message::ChunkRun { op, chunk, rest } => {
            // Always the run tag and a count, so a malformed run of one
            // is refused at decode instead of turning into a `Chunk`.
            w.u8(tag::CHUNK_RUN);
            w.u64(op.0);
            w.chunk(chunk);
            w.u32(rest.len() as u32);
            rest.iter().for_each(|c| w.chunk(c));
        }
        Message::GetAck { op, count } => {
            w.u8(tag::GET_ACK);
            w.u64(op.0);
            w.u32(*count);
        }
        Message::SharedChunk { op, chunk } => {
            w.u8(tag::SHARED_CHUNK);
            w.u64(op.0);
            w.bytes(chunk.as_wire());
        }
        Message::PutAck { op, key } => {
            w.u8(tag::PUT_ACK);
            w.u64(op.0);
            match key {
                None => w.u8(0),
                Some(k) => {
                    w.u8(1);
                    w.hfl(k);
                }
            }
        }
        Message::OpAck { op } => {
            w.u8(tag::OP_ACK);
            w.u64(op.0);
        }
        Message::ConfigValues { op, pairs } => {
            w.u8(tag::CONFIG_VALUES);
            w.u64(op.0);
            w.u32(pairs.len() as u32);
            for (k, vs) in pairs {
                w.hkey(k);
                w.config_values(vs);
            }
        }
        Message::Stats { op, stats } => {
            w.u8(tag::STATS);
            w.u64(op.0);
            w.u64(stats.perflow_support_chunks as u64);
            w.u64(stats.perflow_support_bytes as u64);
            w.u64(stats.perflow_report_chunks as u64);
            w.u64(stats.perflow_report_bytes as u64);
            w.u64(stats.shared_support_bytes as u64);
            w.u64(stats.shared_report_bytes as u64);
        }
        Message::EventMsg { event } => match event {
            Event::Reprocess { op, key, packet } => {
                w.u8(tag::EVENT_REPROCESS);
                w.u64(op.0);
                w.flow_key(key);
                w.packet(packet);
            }
            Event::Introspection { code, key, values } => {
                w.u8(tag::EVENT_INTROSPECTION);
                w.u32(*code);
                w.flow_key(key);
                w.u32(values.len() as u32);
                for (k, v) in values {
                    w.str(k);
                    w.str(v);
                }
            }
        },
        Message::ErrorMsg { op, error } => {
            w.u8(tag::ERROR);
            w.u64(op.0);
            w.error(error);
        }
        Message::EndSync { op } => {
            w.u8(tag::END_SYNC);
            w.u64(op.0);
        }
        Message::DeleteState { op, puts } => {
            w.u8(tag::DELETE_STATE);
            w.u64(op.0);
            w.u32(puts.len() as u32);
            for p in puts {
                w.u64(p.0);
            }
        }
        Message::DeleteAck { op, restored } => {
            w.u8(tag::DELETE_ACK);
            w.u64(op.0);
            w.u32(*restored);
        }
        Message::ChunkRef { op, class, key, hash, rest } => {
            w.run_tag(tag::CHUNK_REF, rest);
            w.u64(op.0);
            w.u8(class.number());
            w.hfl(key);
            w.hash(hash);
            w.rest(rest, Writer::hfl);
        }
        Message::ChunkNeed { op, hash } => {
            w.u8(tag::CHUNK_NEED);
            w.u64(op.0);
            w.hash(hash);
        }
        Message::ChunkBody { op, class, key, hash, data, rest } => {
            w.run_tag(tag::CHUNK_BODY, rest);
            w.u64(op.0);
            w.u8(class.number());
            w.hfl(key);
            w.hash(hash);
            w.bytes(data.as_wire());
            w.rest(rest, Writer::chunk);
        }
        Message::Batch { msgs } => {
            w.u8(tag::BATCH);
            w.u32(msgs.len() as u32);
            for m in msgs {
                w.bytes(&encode(m));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Arithmetic length accounting
// ---------------------------------------------------------------------------
//
// `encoded_len` mirrors `encode` field-for-field but only sums sizes, so
// the simulator's transmission-time/byte accounting never serializes a
// message it isn't actually putting on a real socket. The two are kept in
// lockstep by a generator-based test (`encoded_len_matches_encode`)
// covering every `Message` variant.

/// Size of an encoded [`FlowKey`]: two IPs, two ports, one proto byte.
const FLOW_KEY_LEN: usize = 4 + 4 + 2 + 2 + 1;

const fn opt_u16_len(v: Option<u16>) -> usize {
    match v {
        None => 1,
        Some(_) => 3,
    }
}

fn hfl_len(h: &HeaderFieldList) -> usize {
    // nw_src (ip+len) + nw_dst (ip+len) + proto tag byte.
    (4 + 1) + (4 + 1) + opt_u16_len(h.tp_src) + opt_u16_len(h.tp_dst) + 1
}

const fn blob_len(n: usize) -> usize {
    4 + n
}

fn str_len(s: &str) -> usize {
    blob_len(s.len())
}

fn hkey_len(k: &HierarchicalKey) -> usize {
    4 + k.segments().iter().map(|s| str_len(s)).sum::<usize>()
}

fn config_values_len(vs: &[ConfigValue]) -> usize {
    4 + vs
        .iter()
        .map(|v| {
            1 + match v {
                ConfigValue::Str(s) => str_len(s),
                ConfigValue::Int(_) => 8,
                ConfigValue::Bool(_) => 1,
            }
        })
        .sum::<usize>()
}

fn packet_len(p: &Packet) -> usize {
    // id + flow key + tcp_flags + seq + http_request + payload blob.
    8 + FLOW_KEY_LEN + 1 + 4 + 1 + blob_len(p.payload.len())
}

fn chunk_len(c: &StateChunk) -> usize {
    hfl_len(&c.key) + blob_len(c.data.len())
}

/// Length of [`Writer::rest`]'s encoding.
fn rest_len<T>(rest: &[T], item: impl Fn(&T) -> usize) -> usize {
    if rest.is_empty() {
        0
    } else {
        4 + rest.iter().map(item).sum::<usize>()
    }
}

fn error_len(e: &Error) -> usize {
    1 + match e {
        Error::GranularityTooFine { requested, native } => hfl_len(requested) + str_len(native),
        Error::NoSuchConfigKey(k) => str_len(k),
        Error::InvalidConfigValue { key, reason } => str_len(key) + str_len(reason),
        Error::UnknownMb(_) => 4,
        Error::UnsupportedStateClass(c) => str_len(c),
        Error::MalformedChunk(why) => str_len(why),
        Error::MergeNotPermitted(why) => str_len(why),
        Error::Codec(why) => str_len(why),
        Error::Transport(why) => str_len(why),
        Error::Timeout { .. } => 8,
        Error::MbUnreachable(_) => 4,
        Error::OpFailed(why) => str_len(why),
    }
}

/// Exact length of `encode(msg)` without serializing: an O(fields)
/// arithmetic walk instead of an O(bytes) buffer build. Guaranteed equal
/// to `encode(msg).len()` for every message.
pub fn encoded_len(msg: &Message) -> usize {
    // Every variant starts with a 1-byte tag; all but `EventMsg` follow
    // with an 8-byte op id.
    match msg {
        Message::GetConfig { key, .. } | Message::DelConfig { key, .. } => 1 + 8 + hkey_len(key),
        Message::SetConfig { key, values, .. } => 1 + 8 + hkey_len(key) + config_values_len(values),
        Message::GetSupportPerflow { key, .. }
        | Message::DelSupportPerflow { key, .. }
        | Message::GetReportPerflow { key, .. }
        | Message::DelReportPerflow { key, .. }
        | Message::GetStats { key, .. } => 1 + 8 + hfl_len(key),
        Message::Chunk { chunk, .. } => 1 + 8 + chunk_len(chunk),
        Message::ChunkRun { chunk, rest, .. } => {
            1 + 8 + chunk_len(chunk) + 4 + rest.iter().map(chunk_len).sum::<usize>()
        }
        Message::PutSupportPerflow { chunk, rest, .. }
        | Message::PutReportPerflow { chunk, rest, .. } => {
            1 + 8 + chunk_len(chunk) + rest_len(rest, chunk_len)
        }
        Message::GetSupportShared { .. }
        | Message::GetReportShared { .. }
        | Message::DisableEvents { .. }
        | Message::OpAck { .. }
        | Message::EndSync { .. } => 1 + 8,
        Message::PutSupportShared { chunk, .. }
        | Message::PutReportShared { chunk, .. }
        | Message::SharedChunk { chunk, .. } => 1 + 8 + blob_len(chunk.len()),
        Message::EnableEvents { filter, .. } => {
            let codes = match &filter.codes {
                None => 1,
                Some(cs) => 1 + 4 + 4 * cs.len(),
            };
            let key = match &filter.key {
                None => 1,
                Some(h) => 1 + hfl_len(h),
            };
            1 + 8 + codes + key
        }
        Message::ReprocessPacket { packet, .. } => 1 + 8 + FLOW_KEY_LEN + packet_len(packet),
        Message::GetAck { .. } | Message::DeleteAck { .. } => 1 + 8 + 4,
        Message::DeleteState { puts, .. } => 1 + 8 + 4 + 8 * puts.len(),
        Message::PutAck { key, .. } => {
            1 + 8
                + match key {
                    None => 1,
                    Some(k) => 1 + hfl_len(k),
                }
        }
        Message::ConfigValues { pairs, .. } => {
            1 + 8
                + 4
                + pairs.iter().map(|(k, vs)| hkey_len(k) + config_values_len(vs)).sum::<usize>()
        }
        Message::Stats { .. } => 1 + 8 + 6 * 8,
        Message::EventMsg { event } => match event {
            Event::Reprocess { packet, .. } => 1 + 8 + FLOW_KEY_LEN + packet_len(packet),
            Event::Introspection { values, .. } => {
                1 + 4
                    + FLOW_KEY_LEN
                    + 4
                    + values.iter().map(|(k, v)| str_len(k) + str_len(v)).sum::<usize>()
            }
        },
        Message::ErrorMsg { error, .. } => 1 + 8 + error_len(error),
        // tag + op + class byte + key + 32-byte hash (+ body blob).
        Message::ChunkRef { key, rest, .. } => {
            1 + 8 + 1 + hfl_len(key) + 32 + rest_len(rest, hfl_len)
        }
        Message::ChunkNeed { .. } => 1 + 8 + 32,
        Message::ChunkBody { key, data, rest, .. } => {
            1 + 8 + 1 + hfl_len(key) + 32 + blob_len(data.len()) + rest_len(rest, chunk_len)
        }
        Message::Batch { msgs } => {
            1 + 4 + msgs.iter().map(|m| blob_len(encoded_len(m))).sum::<usize>()
        }
    }
}

/// A get is spread over about this many runs until its runs reach
/// [`RUN_FLOWS`] records ([`run_len`]); a get of more than
/// `GET_RUNS × RUN_FLOWS` records (512) travels in full runs. The
/// smallest round value that keeps small transfers one flow per put
/// as the TCP protocol tests expect them (a 20-flow move acks every
/// flow, a 200-flow soak acks at least 20 puts), which needs at least 20.
pub const GET_RUNS: usize = 32;

/// Most records one run of a get of `records` records carries:
/// `⌈records / GET_RUNS⌉`, at least 1 and at most [`RUN_FLOWS`]. A get
/// of up to `GET_RUNS` records travels one record per run.
pub fn run_len(records: usize) -> usize {
    records.div_ceil(GET_RUNS).clamp(1, RUN_FLOWS)
}

/// Cut `records` — consecutive records, in export order, of a get of
/// `get_len` records in all — into runs under `op` and push one message
/// per run to `out` ([`Message::run`]). A run closes after
/// [`run_len`]`(get_len)` records. The one place the run boundary rule
/// lives: every embedding's get reply goes through here.
pub fn push_runs(
    out: &mut Vec<Message>,
    op: OpId,
    get_len: usize,
    records: impl IntoIterator<Item = StateChunk>,
) {
    let max = run_len(get_len);
    let mut open: Option<(StateChunk, Vec<StateChunk>)> = None;
    for record in records {
        match &mut open {
            Some((_, rest)) if rest.len() + 1 < max => rest.push(record),
            _ => {
                if let Some((chunk, rest)) = open.replace((record, Vec::new())) {
                    out.push(Message::run(op, chunk, rest));
                }
            }
        }
    }
    if let Some((chunk, rest)) = open {
        out.push(Message::run(op, chunk, rest));
    }
}

/// What a run's content hash covers and a destination's content store
/// keeps under it: a lone record's sealed bytes as they are — a run of
/// one hashes and is stored exactly as a lone chunk always was — and
/// for several records each one's sealed bytes as a length-prefixed
/// blob, in run order.
pub fn run_content<'a>(data: &'a EncryptedChunk, rest: &[StateChunk]) -> Cow<'a, [u8]> {
    if rest.is_empty() {
        return Cow::Borrowed(data.as_wire());
    }
    let len = blob_len(data.len()) + rest.iter().map(|c| blob_len(c.data.len())).sum::<usize>();
    let mut w = Writer { buf: Vec::with_capacity(len) };
    w.bytes(data.as_wire());
    for c in rest {
        w.bytes(c.data.as_wire());
    }
    Cow::Owned(w.buf)
}

/// Reverse of [`run_content`] for a run whose keys are `key` and then
/// `rest`: its records, or `None` when `content` does not hold exactly
/// that many.
pub fn split_run_content(
    content: Vec<u8>,
    key: HeaderFieldList,
    rest: &[HeaderFieldList],
) -> Option<(StateChunk, Vec<StateChunk>)> {
    if rest.is_empty() {
        return Some((StateChunk::new(key, EncryptedChunk::from_wire(content)), Vec::new()));
    }
    let content = Bytes::from(content);
    let mut r = Reader::new_shared(&content);
    let mut record =
        |key| Some(StateChunk::new(key, EncryptedChunk::from_wire(r.bytes_shared().ok()?)));
    let first = record(key)?;
    let rest = rest.iter().map(|&k| record(k)).collect::<Option<Vec<_>>>()?;
    r.is_exhausted().then_some((first, rest))
}

/// Decode a message body produced by [`encode`]. Rejects trailing bytes.
/// Blob fields (packet payloads, chunk ciphertext) are copied out; use
/// [`decode_bytes`] to alias a refcounted receive buffer instead.
pub fn decode(buf: &[u8]) -> Result<Message> {
    decode_with(Reader::new(buf))
}

/// Decode a message body from a refcounted buffer. Packet payloads and
/// state-chunk ciphertext in the result are zero-copy views sharing
/// `buf`'s storage — no per-blob allocation.
pub fn decode_bytes(buf: &Bytes) -> Result<Message> {
    decode_with(Reader::new_shared(buf))
}

fn decode_with(mut r: Reader<'_>) -> Result<Message> {
    let t = r.u8()?;
    let run = t & tag::RUN != 0;
    let msg = match t {
        tag::GET_CONFIG => Message::GetConfig { op: OpId(r.u64()?), key: r.hkey()? },
        tag::SET_CONFIG => {
            Message::SetConfig { op: OpId(r.u64()?), key: r.hkey()?, values: r.config_values()? }
        }
        tag::DEL_CONFIG => Message::DelConfig { op: OpId(r.u64()?), key: r.hkey()? },
        tag::GET_SUPPORT_PERFLOW => {
            Message::GetSupportPerflow { op: OpId(r.u64()?), key: r.hfl()? }
        }
        tag::PUT_SUPPORT_PERFLOW | tag::PUT_SUPPORT_RUN => Message::PutSupportPerflow {
            op: OpId(r.u64()?),
            chunk: r.chunk()?,
            rest: r.rest(run, Reader::chunk)?,
        },
        tag::DEL_SUPPORT_PERFLOW => {
            Message::DelSupportPerflow { op: OpId(r.u64()?), key: r.hfl()? }
        }
        tag::GET_REPORT_PERFLOW => Message::GetReportPerflow { op: OpId(r.u64()?), key: r.hfl()? },
        tag::PUT_REPORT_PERFLOW | tag::PUT_REPORT_RUN => Message::PutReportPerflow {
            op: OpId(r.u64()?),
            chunk: r.chunk()?,
            rest: r.rest(run, Reader::chunk)?,
        },
        tag::DEL_REPORT_PERFLOW => Message::DelReportPerflow { op: OpId(r.u64()?), key: r.hfl()? },
        tag::GET_SUPPORT_SHARED => Message::GetSupportShared { op: OpId(r.u64()?) },
        tag::PUT_SUPPORT_SHARED => Message::PutSupportShared {
            op: OpId(r.u64()?),
            chunk: EncryptedChunk::from_wire(r.bytes_shared()?),
        },
        tag::GET_REPORT_SHARED => Message::GetReportShared { op: OpId(r.u64()?) },
        tag::PUT_REPORT_SHARED => Message::PutReportShared {
            op: OpId(r.u64()?),
            chunk: EncryptedChunk::from_wire(r.bytes_shared()?),
        },
        tag::GET_STATS => Message::GetStats { op: OpId(r.u64()?), key: r.hfl()? },
        tag::ENABLE_EVENTS => {
            let op = OpId(r.u64()?);
            let codes = if r.u8()? == 1 {
                let n = r.u32()? as usize;
                if n > 65536 {
                    return Err(Error::Codec("too many event codes".into()));
                }
                let mut cs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    cs.push(r.u32()?);
                }
                Some(cs)
            } else {
                None
            };
            let key = if r.u8()? == 1 { Some(r.hfl()?) } else { None };
            Message::EnableEvents { op, filter: EventFilter { codes, key } }
        }
        tag::DISABLE_EVENTS => Message::DisableEvents { op: OpId(r.u64()?) },
        tag::REPROCESS_PACKET => {
            Message::ReprocessPacket { op: OpId(r.u64()?), key: r.flow_key()?, packet: r.packet()? }
        }
        tag::CHUNK => Message::Chunk { op: OpId(r.u64()?), chunk: r.chunk()? },
        tag::CHUNK_RUN => Message::ChunkRun {
            op: OpId(r.u64()?),
            chunk: r.chunk()?,
            rest: r.rest(run, Reader::chunk)?,
        },
        tag::GET_ACK => Message::GetAck { op: OpId(r.u64()?), count: r.u32()? },
        tag::SHARED_CHUNK => Message::SharedChunk {
            op: OpId(r.u64()?),
            chunk: EncryptedChunk::from_wire(r.bytes_shared()?),
        },
        tag::PUT_ACK => {
            let op = OpId(r.u64()?);
            let key = if r.u8()? == 1 { Some(r.hfl()?) } else { None };
            Message::PutAck { op, key }
        }
        tag::OP_ACK => Message::OpAck { op: OpId(r.u64()?) },
        tag::CONFIG_VALUES => {
            let op = OpId(r.u64()?);
            let n = r.u32()? as usize;
            if n > MAX_MESSAGE / 8 {
                return Err(Error::Codec("too many config pairs".into()));
            }
            let mut pairs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.hkey()?;
                let vs = r.config_values()?;
                pairs.push((k, vs));
            }
            Message::ConfigValues { op, pairs }
        }
        tag::STATS => Message::Stats {
            op: OpId(r.u64()?),
            stats: StateStats {
                perflow_support_chunks: r.u64()? as usize,
                perflow_support_bytes: r.u64()? as usize,
                perflow_report_chunks: r.u64()? as usize,
                perflow_report_bytes: r.u64()? as usize,
                shared_support_bytes: r.u64()? as usize,
                shared_report_bytes: r.u64()? as usize,
            },
        },
        tag::EVENT_REPROCESS => Message::EventMsg {
            event: Event::Reprocess { op: OpId(r.u64()?), key: r.flow_key()?, packet: r.packet()? },
        },
        tag::EVENT_INTROSPECTION => {
            let code = r.u32()?;
            let key = r.flow_key()?;
            let n = r.u32()? as usize;
            if n > 65536 {
                return Err(Error::Codec("too many event values".into()));
            }
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.str()?;
                let v = r.str()?;
                values.push((k, v));
            }
            Message::EventMsg { event: Event::Introspection { code, key, values } }
        }
        tag::ERROR => Message::ErrorMsg { op: OpId(r.u64()?), error: r.error()? },
        tag::END_SYNC => Message::EndSync { op: OpId(r.u64()?) },
        tag::DELETE_STATE => {
            let op = OpId(r.u64()?);
            let n = r.u32()? as usize;
            if n > MAX_MESSAGE / 8 {
                return Err(Error::Codec("too many delete-state puts".into()));
            }
            let mut puts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                puts.push(OpId(r.u64()?));
            }
            Message::DeleteState { op, puts }
        }
        tag::DELETE_ACK => Message::DeleteAck { op: OpId(r.u64()?), restored: r.u32()? },
        tag::CHUNK_REF | tag::CHUNK_REF_RUN => Message::ChunkRef {
            op: OpId(r.u64()?),
            class: r.chunk_class()?,
            key: r.hfl()?,
            hash: r.hash()?,
            rest: r.rest(run, Reader::hfl)?,
        },
        tag::CHUNK_NEED => Message::ChunkNeed { op: OpId(r.u64()?), hash: r.hash()? },
        tag::CHUNK_BODY | tag::CHUNK_BODY_RUN => {
            let op = OpId(r.u64()?);
            let class = r.chunk_class()?;
            let key = r.hfl()?;
            let hash = r.hash()?;
            let data = EncryptedChunk::from_wire(r.bytes_shared()?);
            let rest = r.rest(run, Reader::chunk)?;
            if data.is_empty() || rest.iter().any(|c| c.data.is_empty()) {
                // A body message with no body is as malformed as a
                // nested batch: refs exist precisely so empty re-sends
                // never happen.
                return Err(Error::Codec("empty chunk body".into()));
            }
            Message::ChunkBody { op, class, key, hash, data, rest }
        }
        tag::BATCH => {
            let n = r.u32()? as usize;
            if n > MAX_MESSAGE / 8 {
                return Err(Error::Codec("too many batched messages".into()));
            }
            let mut msgs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                // Each inner body is a length-prefixed blob; decoding
                // through `Bytes` keeps chunk/packet payloads aliased to
                // the receive buffer in the shared-mode path.
                let body = r.bytes_shared()?;
                let m = decode_bytes(&body)?;
                if matches!(m, Message::Batch { .. }) {
                    return Err(Error::Codec("nested batch frames are not allowed".into()));
                }
                msgs.push(m);
            }
            Message::Batch { msgs }
        }
        other => return Err(Error::Codec(format!("unknown message tag {other}"))),
    };
    if !r.is_exhausted() {
        return Err(Error::Codec("trailing bytes after message".into()));
    }
    Ok(msg)
}

/// One length-prefixed frame — prefix and body in one buffer, encoded
/// in place (no second copy).
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let mut frame = Writer { buf: Vec::with_capacity(4 + encoded_len(msg)) };
    frame.u32(0); // the length, patched in once the body is encoded
    encode_into(&mut frame, msg);
    let len = frame.buf.len() - 4;
    if len > MAX_MESSAGE {
        return Err(Error::Codec(format!("message too large: {len} bytes")));
    }
    frame.buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(frame.buf)
}

/// Randomized instances of every variant and their damaged encodings,
/// shared with `tests/decode_alloc.rs`.
#[cfg(test)]
#[path = "../tests/wire_corpus/mod.rs"]
mod gen;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::VendorKey;

    fn fk() -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(1, 2, 3, 4), 1234, Ipv4Addr::new(5, 6, 7, 8), 80)
    }

    fn roundtrip(m: Message) {
        let enc = encode(&m);
        let dec = decode(&enc).unwrap();
        assert_eq!(m, dec);
    }

    #[test]
    fn roundtrip_all_request_variants() {
        let key = VendorKey::derive("t");
        let hk = HierarchicalKey::parse("rules/http");
        let hfl = HeaderFieldList::from_dst_port(80);
        let chunk =
            StateChunk::new(HeaderFieldList::exact(fk()), EncryptedChunk::seal(&key, 1, b"data"));
        let shared = EncryptedChunk::seal(&key, 2, b"shared");
        roundtrip(Message::GetConfig { op: OpId(1), key: hk.clone() });
        roundtrip(Message::SetConfig {
            op: OpId(2),
            key: hk.clone(),
            values: vec!["a".into(), 3i64.into(), true.into()],
        });
        roundtrip(Message::DelConfig { op: OpId(3), key: hk });
        roundtrip(Message::GetSupportPerflow { op: OpId(4), key: hfl });
        roundtrip(Message::PutSupportPerflow {
            op: OpId(5),
            chunk: chunk.clone(),
            rest: Vec::new(),
        });
        roundtrip(Message::DelSupportPerflow { op: OpId(6), key: hfl });
        roundtrip(Message::GetReportPerflow { op: OpId(7), key: hfl });
        roundtrip(Message::PutReportPerflow {
            op: OpId(8),
            chunk: chunk.clone(),
            rest: vec![chunk.clone(), chunk.clone()],
        });
        roundtrip(Message::DelReportPerflow { op: OpId(9), key: hfl });
        roundtrip(Message::GetSupportShared { op: OpId(10) });
        roundtrip(Message::PutSupportShared { op: OpId(11), chunk: shared.clone() });
        roundtrip(Message::GetReportShared { op: OpId(12) });
        roundtrip(Message::PutReportShared { op: OpId(13), chunk: shared.clone() });
        roundtrip(Message::GetStats { op: OpId(14), key: hfl });
        roundtrip(Message::EnableEvents {
            op: OpId(15),
            filter: EventFilter { codes: Some(vec![1, 2]), key: Some(hfl) },
        });
        roundtrip(Message::EnableEvents { op: OpId(16), filter: EventFilter::all() });
        roundtrip(Message::DisableEvents { op: OpId(17) });
        roundtrip(Message::ReprocessPacket {
            op: OpId(18),
            key: fk(),
            packet: Packet::new(9, fk(), vec![1, 2, 3]),
        });
        roundtrip(Message::EndSync { op: OpId(19) });
        roundtrip(Message::DeleteState { op: OpId(20), puts: vec![OpId(21), OpId(22)] });
        roundtrip(Message::DeleteState { op: OpId(23), puts: Vec::new() });
        roundtrip(Message::Batch {
            msgs: vec![
                Message::PutSupportPerflow { op: OpId(24), chunk: chunk.clone(), rest: Vec::new() },
                Message::PutReportPerflow { op: OpId(25), chunk, rest: Vec::new() },
                Message::EndSync { op: OpId(26) },
            ],
        });
        roundtrip(Message::Batch { msgs: Vec::new() });
    }

    #[test]
    fn nested_batch_is_rejected() {
        let inner = Message::Batch { msgs: vec![Message::OpAck { op: OpId(1) }] };
        let outer = Message::Batch { msgs: vec![inner] };
        // `encode` happily serializes the nesting; `decode` must refuse
        // it so recursive framing can't smuggle unbounded depth.
        let enc = encode(&outer);
        let err = decode(&enc).unwrap_err();
        assert!(matches!(err, Error::Codec(ref why) if why.contains("nested")), "{err:?}");
    }

    #[test]
    fn roundtrip_content_addressed_variants() {
        let key = VendorKey::derive("t");
        let body = EncryptedChunk::seal(&key, 3, b"cached bytes");
        let mut hash = [0u8; 32];
        hash[0] = 0xaa;
        hash[31] = 0x55;
        for class in [ChunkClass::Support, ChunkClass::Report] {
            roundtrip(Message::ChunkRef {
                op: OpId(40),
                class,
                key: HeaderFieldList::exact(fk()),
                hash,
                rest: Vec::new(),
            });
            roundtrip(Message::ChunkBody {
                op: OpId(41),
                class,
                key: HeaderFieldList::exact(fk()),
                hash,
                data: body.clone(),
                rest: Vec::new(),
            });
        }
        roundtrip(Message::ChunkNeed { op: OpId(42), hash });
        // Manifests coalesce like any other southbound traffic.
        roundtrip(Message::Batch {
            msgs: vec![
                Message::ChunkRef {
                    op: OpId(43),
                    class: ChunkClass::Support,
                    key: HeaderFieldList::exact(fk()),
                    hash,
                    rest: vec![HeaderFieldList::from_dst_port(80)],
                },
                Message::ChunkNeed { op: OpId(44), hash },
            ],
        });
    }

    /// Malformed manifest frames are refused at decode, the same policy
    /// as nested `Batch`: `encode` serializes them, `decode` is the gate.
    #[test]
    fn malformed_manifest_frames_are_rejected() {
        let body = EncryptedChunk::seal(&VendorKey::derive("t"), 1, b"x");
        // Null content hash on each of the three variants.
        for m in [
            Message::ChunkRef {
                op: OpId(1),
                class: ChunkClass::Support,
                key: HeaderFieldList::exact(fk()),
                hash: [0u8; 32],
                rest: Vec::new(),
            },
            Message::ChunkNeed { op: OpId(2), hash: [0u8; 32] },
            Message::ChunkBody {
                op: OpId(3),
                class: ChunkClass::Report,
                key: HeaderFieldList::exact(fk()),
                hash: [0u8; 32],
                data: body.clone(),
                rest: Vec::new(),
            },
        ] {
            let err = decode(&encode(&m)).unwrap_err();
            assert!(matches!(err, Error::Codec(ref why) if why.contains("null")), "{err:?}");
        }
        // Empty body blob.
        let mut hash = [0u8; 32];
        hash[4] = 9;
        let empty = Message::ChunkBody {
            op: OpId(4),
            class: ChunkClass::Support,
            key: HeaderFieldList::exact(fk()),
            hash,
            data: EncryptedChunk::from_wire(Vec::new()),
            rest: Vec::new(),
        };
        let err = decode(&encode(&empty)).unwrap_err();
        assert!(matches!(err, Error::Codec(ref why) if why.contains("empty")), "{err:?}");
        // Unknown class byte: corrupt the encoded class in place.
        let ok = Message::ChunkRef {
            op: OpId(5),
            class: ChunkClass::Support,
            key: HeaderFieldList::exact(fk()),
            hash,
            rest: Vec::new(),
        };
        let mut enc = encode(&ok);
        enc[9] = 7; // tag(1) + op(8), then the class byte
        let err = decode(&enc).unwrap_err();
        assert!(matches!(err, Error::Codec(ref why) if why.contains("chunk class")), "{err:?}");
    }

    /// A run of one is the pre-run wire format, bit for bit: `run`
    /// builds a `Chunk`, an empty `rest` adds no byte to a put, a
    /// reference or a body, and a lone record's content is its sealed
    /// bytes. Longer runs round-trip; every run shape has one encoding.
    #[test]
    fn runs_encode_and_a_run_of_one_is_the_lone_record() {
        let key = VendorKey::derive("t");
        let rec = |i: u64| {
            let flow =
                FlowKey::tcp(Ipv4Addr::new(10, 0, 0, i as u8), 1000, Ipv4Addr::new(5, 6, 7, 8), 80);
            StateChunk::new(HeaderFieldList::exact(flow), EncryptedChunk::seal(&key, i, b"rec"))
        };
        let one = Message::run(OpId(1), rec(0), Vec::new());
        assert_eq!(one, Message::Chunk { op: OpId(1), chunk: rec(0) });
        let c = rec(0);
        let put = Message::PutReportPerflow { op: OpId(2), chunk: c.clone(), rest: Vec::new() };
        assert_eq!(encoded_len(&put), 1 + 8 + hfl_len(&c.key) + blob_len(c.data.len()));
        let hash = [3u8; 32];
        let r = Message::ChunkRef {
            op: OpId(3),
            class: ChunkClass::Report,
            key: c.key,
            hash,
            rest: Vec::new(),
        };
        assert_eq!(encoded_len(&r), 1 + 8 + 1 + hfl_len(&c.key) + 32);
        assert_eq!(run_content(&c.data, &[]), Cow::Borrowed(c.data.as_wire()));

        let run = Message::run(OpId(4), rec(0), (1..RUN_FLOWS as u64).map(rec).collect());
        assert!(matches!(run, Message::ChunkRun { ref rest, .. } if rest.len() == RUN_FLOWS - 1));
        roundtrip(run.clone());
        let keys: Vec<HeaderFieldList> = run.run_keys().copied().collect();
        assert_eq!(keys, (0..RUN_FLOWS as u64).map(|i| rec(i).key).collect::<Vec<_>>());

        // A run tag over no further record would be a second encoding
        // of a lone record, and the run bit means nothing on a variant
        // that carries no run: both refused.
        let lone = Message::ChunkRun { op: OpId(5), chunk: rec(0), rest: Vec::new() };
        let mut zero = encode(&r);
        zero[0] |= tag::RUN;
        zero.extend_from_slice(&0u32.to_le_bytes());
        for frame in [encode(&lone), zero] {
            assert!(matches!(decode(&frame), Err(Error::Codec(ref m)) if m.contains("run length")));
        }
        let mut ack = encode(&Message::OpAck { op: OpId(6) });
        ack[0] |= tag::RUN;
        assert!(matches!(decode(&ack), Err(Error::Codec(ref m)) if m.contains("unknown")));
    }

    /// The run boundary rule: a get of up to `GET_RUNS` records travels
    /// one record per run, a larger one in about `GET_RUNS` runs until
    /// they hold `RUN_FLOWS` records.
    #[test]
    fn push_runs_cuts_by_get_size() {
        let key = VendorKey::derive("t");
        let rec = |i: u64| {
            StateChunk::new(
                HeaderFieldList::from_dst_port(i as u16),
                EncryptedChunk::seal(&key, i, &[0; 8]),
            )
        };
        let lens = |get_len: usize, records: u64| -> Vec<usize> {
            let mut out = Vec::new();
            push_runs(&mut out, OpId(1), get_len, (0..records).map(rec));
            out.iter().map(|m| m.run_keys().count()).collect()
        };
        assert_eq!((run_len(0), run_len(GET_RUNS), run_len(GET_RUNS + 1)), (1, 1, 2));
        assert_eq!(run_len(GET_RUNS * RUN_FLOWS), RUN_FLOWS);
        assert_eq!(run_len(10_000), RUN_FLOWS);
        assert_eq!(lens(20, 20), [1; 20]);
        assert_eq!(lens(200, 200).len(), 200usize.div_ceil(run_len(200)));
        assert_eq!(lens(10_000, 40), [16, 16, 8]);
        // Only the slice handed over is cut: a DES service quantum.
        assert_eq!(lens(10_000, 5), [5]);
    }

    /// `run_content` and `split_run_content` are inverses, and a store
    /// entry holding a different number of records than the reference
    /// names does not split.
    #[test]
    fn run_content_splits_back_into_its_records() {
        let key = VendorKey::derive("t");
        let recs: Vec<StateChunk> = (0..5u8)
            .map(|i| {
                let k = HeaderFieldList::from_dst_port(u16::from(i));
                StateChunk::new(
                    k,
                    EncryptedChunk::seal(&key, u64::from(i), &vec![i; usize::from(i) * 9]),
                )
            })
            .collect();
        let (first, rest) = (&recs[0], &recs[1..]);
        let content = run_content(&first.data, rest).into_owned();
        let keys: Vec<HeaderFieldList> = rest.iter().map(|c| c.key).collect();
        let (a, b) = split_run_content(content.clone(), first.key, &keys).unwrap();
        assert_eq!((&a, &b[..]), (first, rest));
        assert_eq!(split_run_content(content.clone(), first.key, &keys[1..]), None);
        assert_eq!(
            split_run_content(content[..content.len() - 1].to_vec(), first.key, &keys),
            None
        );
        let lone = split_run_content(first.data.as_wire().to_vec(), first.key, &[]).unwrap();
        assert_eq!(lone, (first.clone(), Vec::new()));
    }

    #[test]
    fn roundtrip_all_response_variants() {
        let key = VendorKey::derive("t");
        let chunk =
            StateChunk::new(HeaderFieldList::exact(fk()), EncryptedChunk::seal(&key, 1, b"data"));
        roundtrip(Message::Chunk { op: OpId(1), chunk: chunk.clone() });
        roundtrip(Message::GetAck { op: OpId(2), count: 41 });
        roundtrip(Message::SharedChunk { op: OpId(3), chunk: EncryptedChunk::seal(&key, 9, b"s") });
        roundtrip(Message::PutAck { op: OpId(4), key: Some(HeaderFieldList::exact(fk())) });
        roundtrip(Message::PutAck { op: OpId(5), key: None });
        roundtrip(Message::OpAck { op: OpId(6) });
        roundtrip(Message::DeleteAck { op: OpId(6), restored: 2 });
        roundtrip(Message::ConfigValues {
            op: OpId(7),
            pairs: vec![(HierarchicalKey::parse("a/b"), vec![1i64.into()])],
        });
        roundtrip(Message::Stats {
            op: OpId(8),
            stats: StateStats {
                perflow_support_chunks: 1,
                perflow_support_bytes: 2,
                perflow_report_chunks: 3,
                perflow_report_bytes: 4,
                shared_support_bytes: 5,
                shared_report_bytes: 6,
            },
        });
        roundtrip(Message::EventMsg {
            event: Event::Reprocess {
                op: OpId(9),
                key: fk(),
                packet: Packet::new(3, fk(), vec![0u8; 64]),
            },
        });
        roundtrip(Message::EventMsg {
            event: Event::Introspection {
                code: 7,
                key: fk(),
                values: vec![("backend".into(), "10.0.0.2".into())],
            },
        });
        for error in [
            Error::GranularityTooFine {
                requested: HeaderFieldList::from_dst_port(80),
                native: "per-prefix".into(),
            },
            Error::NoSuchConfigKey("a/b".into()),
            Error::InvalidConfigValue { key: "a/b".into(), reason: "negative".into() },
            Error::UnknownMb(MbId(7)),
            Error::UnsupportedStateClass("shared reporting".into()),
            Error::MalformedChunk("bad header".into()),
            Error::MergeNotPermitted("incompatible caches".into()),
            Error::Codec("short".into()),
            Error::Transport("reset".into()),
            Error::Timeout { op: OpId(44) },
            Error::MbUnreachable(MbId(3)),
            Error::OpFailed("boom".into()),
        ] {
            roundtrip(Message::ErrorMsg { op: OpId(10), error });
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert!(matches!(decode(&[200]), Err(Error::Codec(_))));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = encode(&Message::OpAck { op: OpId(1) });
        enc.push(0);
        assert!(matches!(decode(&enc), Err(Error::Codec(_))));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = encode(&Message::GetAck { op: OpId(1), count: 5 });
        for cut in 1..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    /// A frame is one buffer, whatever its size — `TcpTransport` sends
    /// it in one `write`, so no lone 4-byte prefix segment goes out ahead
    /// of a body larger than any buffer in between: the length prefix
    /// then exactly `encoded_len` body bytes, which decode back.
    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let body = |i: u64| Message::ChunkBody {
            op: OpId(i),
            class: ChunkClass::Report,
            key: HeaderFieldList::exact(fk()),
            hash: [i as u8 + 1; 32],
            data: EncryptedChunk::seal(&VendorKey::derive("t"), i, &[0u8; 200]),
            rest: Vec::new(),
        };
        let batch = Message::Batch { msgs: (0..64).map(body).collect() };
        assert!(encoded_len(&batch) > 8 << 10);
        for (msg, frame_len) in
            [(batch.clone(), 4 + encoded_len(&batch)), (Message::OpAck { op: OpId(1) }, 13)]
        {
            let frame = encode_frame(&msg).unwrap();
            assert_eq!(frame.len(), frame_len);
            assert_eq!(frame[..4], ((frame_len - 4) as u32).to_le_bytes());
            assert_eq!(decode(&frame[4..]).unwrap(), msg);
        }
    }

    /// The tentpole property: the arithmetic [`encoded_len`] agrees with
    /// the serializer for *every* message variant under randomized field
    /// contents — so `Frame::wire_len` can price a frame without
    /// encoding it.
    #[test]
    fn encoded_len_matches_encode_for_every_variant() {
        let mut rng = proptest::test_runner::TestRng::from_name(
            "encoded_len_matches_encode_for_every_variant",
        );
        for variant in 0..gen::VARIANTS {
            for case in 0..64 {
                let m = gen::message(&mut rng, variant);
                let enc = encode(&m);
                assert_eq!(encoded_len(&m), enc.len(), "variant {variant} case {case}: {m:?}");
                // And the arithmetic length must describe a decodable
                // encoding (guards against encode/decode drift too).
                assert_eq!(decode(&enc).unwrap(), m);
            }
        }
    }

    /// Structure-aware decoder fuzz: start from a valid encoding of
    /// every variant and damage it the ways a hostile or cut-off peer
    /// would — truncation at every byte, and every 4-byte window
    /// (lengths, counts, tags, hashes alike) overwritten with boundary
    /// values. The decoder may only ever answer `Err`; the unstructured
    /// `wire_decode_never_panics` almost never gets past the tag byte.
    #[test]
    fn damaged_encodings_of_every_variant_error_and_never_panic() {
        let mut rng = proptest::test_runner::TestRng::from_name(
            "damaged_encodings_of_every_variant_error_and_never_panic",
        );
        let both = |buf: &[u8]| (decode(buf), decode_bytes(&Bytes::from(buf.to_vec())));
        gen::for_each_damaged(&mut rng, 8, |frame, truncated| {
            let (a, b) = both(frame);
            assert!(
                !truncated || (a.is_err() && b.is_err()),
                "a {}-byte prefix of a valid encoding decoded",
                frame.len()
            );
        });

        // Nesting stays rejected even when the inner batch is well-formed.
        let mut nested = vec![tag::BATCH];
        let inner = encode(&Message::Batch { msgs: vec![Message::OpAck { op: OpId(1) }] });
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        nested.extend_from_slice(&inner);
        let (a, b) = both(&nested);
        assert!(matches!(a, Err(Error::Codec(ref m)) if m.contains("nested")), "{a:?}");
        assert!(matches!(b, Err(Error::Codec(ref m)) if m.contains("nested")), "{b:?}");

        // The two count-prefixed arms whose reservation was bounded only
        // by the 65 536 limit: a count at the limit over an empty body is
        // a short frame, not a multi-megabyte reservation.
        let codes = EventFilter { codes: Some(Vec::new()), key: None };
        let mut events = encode(&Message::EnableEvents { op: OpId(1), filter: codes });
        events.truncate(1 + 8 + 1 + 4);
        let mut introspection = encode(&Message::EventMsg {
            event: Event::Introspection { code: 7, key: fk(), values: Vec::new() },
        });
        for frame in [&mut events, &mut introspection] {
            let count = frame.len() - 4;
            assert_eq!(frame[count..], 0u32.to_le_bytes(), "the count is the frame's last field");
            frame[count..].copy_from_slice(&65_536u32.to_le_bytes());
            let (a, b) = both(frame);
            assert!(a.is_err() && b.is_err(), "count 65 536 over an empty body decoded");
        }
    }

    #[test]
    fn decode_bytes_aliases_receive_buffer() {
        let key = VendorKey::derive("t");
        let m = Message::PutSupportPerflow {
            op: OpId(1),
            chunk: StateChunk::new(
                HeaderFieldList::exact(fk()),
                EncryptedChunk::seal(&key, 1, &[7u8; 512]),
            ),
            rest: Vec::new(),
        };
        let wire = Bytes::from(encode(&m));
        let dec = decode_bytes(&wire).unwrap();
        assert_eq!(dec, m);
        // The decoded chunk must be a view into `wire`, not a copy: its
        // contents live inside the original allocation.
        let Message::PutSupportPerflow { chunk, .. } = dec else { unreachable!() };
        let outer: &[u8] = &wire;
        let inner: &[u8] = chunk.data.as_wire();
        let outer_range = outer.as_ptr() as usize..outer.as_ptr() as usize + outer.len();
        assert!(
            outer_range.contains(&(inner.as_ptr() as usize)),
            "decoded chunk bytes were copied instead of aliased"
        );
    }

    #[test]
    fn event_filter_semantics() {
        let f =
            EventFilter { codes: Some(vec![1, 3]), key: Some(HeaderFieldList::from_dst_port(80)) };
        assert!(f.accepts(1, &fk()));
        assert!(!f.accepts(2, &fk()));
        let other = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        assert!(!f.accepts(1, &other));
        assert!(EventFilter::all().accepts(99, &other));
    }
}
