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
//!
//! Each variant's fields are described once: [`Message`] in the
//! `messages!` table, [`Event`], the typed [`Error`] and [`ConfigValue`]
//! in [`tagged!`](crate::tagged) tables. The encoder, [`encoded_len`],
//! the decoder, [`Message::kind_name`], [`Message::op_id`] and the tags
//! are derived from those rows, and every field type's format — with
//! the bounds the decoder enforces on it — lives in its one
//! [`Field`] impl.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{self, codec, proto, record, tagged, Field, Len, Reader, Sink, Writer};
use crate::config::{ConfigValue, HierarchicalKey};
use crate::error::{Error, Result};
use crate::flow::{FlowKey, HeaderFieldList, IpPrefix};
use crate::packet::Packet;
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

/// Set on the tag of a variant that carries a run when the run has
/// more than one record; the further ones follow as the message's
/// last field. The tags with it are distinct, so every run shape has
/// one encoding and no prefix of one decodes as another.
const RUN: u8 = 0x40;

/// The tag of [`Message::Batch`], the one variant written out by hand.
const BATCH: u8 = 31;

/// Expands to its tokens after the first: lets a `$(...)?` group repeat
/// on a metavariable it does not otherwise use.
macro_rules! after_first {
    ($skip:tt $($keep:tt)*) => { $($keep)* };
}

/// Declares [`Message`] from one row per variant, `Variant = tag,
/// "wireName" { fields }`, and derives its codec, [`Message::op_id`]
/// and [`Message::kind_name`] from the rows. Every row's variant starts
/// with `op: OpId`, then the listed fields, all in wire order. A field
/// after `;` is a run's further records: the tag carries [`RUN`] when
/// they are not empty — always, for a tag that has it already — and
/// then they follow as a count and the items, so a run of one encodes
/// as a lone record. [`Message::EventMsg`] carries the [`Event`] table's
/// tags; [`Message::Batch`] is written out by hand.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $V:ident = $tag:literal, $name:literal {
            $($(#[$fdoc:meta])* $f:ident: $t:ty,)*
            $(; $(#[$rdoc:meta])* $rest:ident: $rt:ty,)?
        }
    )*) => {
        /// Every message exchanged between the MB controller and a middlebox.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Message {
            $(
                $(#[$doc])*
                $V { op: OpId, $($(#[$fdoc])* $f: $t,)* $($(#[$rdoc])* $rest: $rt,)? },
            )*
            /// An event raised by the MB (reprocess or introspection).
            EventMsg { event: Event },
            /// Several messages bound for the same node coalesced into one
            /// wire frame (one length prefix, one scheduler event in the
            /// simulator). Nesting is not allowed: a `Batch` inside a
            /// `Batch` is a codec error. Carries no op id of its own —
            /// each inner message keeps its own attribution.
            Batch { msgs: Vec<Message> },
        }

        #[allow(non_upper_case_globals)]
        mod tags {
            $(pub(super) const $V: u8 = $tag;)*
        }

        #[allow(non_upper_case_globals)]
        mod run_tags {
            $($(after_first! { $rest pub(super) const $V: u8 = super::tags::$V | super::RUN; })?)*
        }

        /// Every tag a top-level message can start with.
        #[cfg(test)]
        const MESSAGE_TAGS: &[u8] =
            &[$(tags::$V, $(after_first!($rest run_tags::$V),)?)* BATCH];

        impl Message {
            /// The operation this message belongs to, when it has one.
            pub fn op_id(&self) -> Option<OpId> {
                match self {
                    $(Message::$V { op, .. })|* => Some(*op),
                    Message::EventMsg { .. } | Message::Batch { .. } => None,
                }
            }

            /// Wire-protocol name of this message's variant, for span/trace
            /// attribution ("which southbound message was this?").
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(Message::$V { .. } => $name,)*
                    Message::EventMsg { .. } => "event",
                    Message::Batch { .. } => "batch",
                }
            }
        }

        impl Field for Message {
            fn put<S: Sink>(&self, s: &mut S) {
                match self {
                    $(Message::$V { op, $($f,)* $($rest,)? } => {
                        let tag = tags::$V $(| if $rest.is_empty() { 0 } else { RUN })?;
                        tag.put(s);
                        op.put(s);
                        $($f.put(s);)*
                        $(if tag & RUN != 0 {
                            $rest.put(s);
                        })?
                    })*
                    Message::EventMsg { event } => event.put(s),
                    Message::Batch { msgs } => {
                        BATCH.put(s);
                        (msgs.len() as u32).put(s);
                        for m in msgs {
                            s.put_nested(|s| m.put(s));
                        }
                    }
                }
            }

            // `ChunkRun`'s tag carries `RUN` already, so its two patterns
            // are one. Inlined into `decode_with`, as the hand-written
            // match was: a call here costs a batch of small messages
            // about 8 % of its decode time.
            #[allow(unreachable_patterns)]
            #[inline(always)]
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                let t = u8::get(r)?;
                let run = t & RUN != 0;
                Ok(match t {
                    $(tags::$V $(| after_first!($rest run_tags::$V))? => Message::$V {
                        op: Field::get(r)?,
                        $($f: Field::get(r)?,)*
                        $($rest: r.rest(run)?,)?
                    },)*
                    BATCH => Message::Batch { msgs: r.batch()? },
                    _ => Message::EventMsg { event: Event::get_tagged(t, r)? },
                })
            }
        }
    };
}

messages! {
    // ---- controller -> MB: configuration state (§4.1.1) ----
    GetConfig = 1, "getConfig" { key: HierarchicalKey, }
    SetConfig = 2, "setConfig" { key: HierarchicalKey, values: Vec<ConfigValue>, }
    DelConfig = 3, "delConfig" { key: HierarchicalKey, }

    // ---- controller -> MB: per-flow state (§4.1.2 / §4.1.3) ----
    GetSupportPerflow = 4, "getSupportPerflow" { key: HeaderFieldList, }
    /// A run's records, applied in order and acknowledged with one
    /// `PutAck`; `rest` is empty for a run of one.
    PutSupportPerflow = 5, "putSupportPerflow" { chunk: StateChunk, ; rest: Vec<StateChunk>, }
    DelSupportPerflow = 6, "delSupportPerflow" { key: HeaderFieldList, }
    GetReportPerflow = 7, "getReportPerflow" { key: HeaderFieldList, }
    PutReportPerflow = 8, "putReportPerflow" { chunk: StateChunk, ; rest: Vec<StateChunk>, }
    DelReportPerflow = 9, "delReportPerflow" { key: HeaderFieldList, }

    // ---- controller -> MB: shared state (§4.1.2 / §4.1.3) ----
    GetSupportShared = 10, "getSupportShared" {}
    PutSupportShared = 11, "putSupportShared" { chunk: EncryptedChunk, }
    GetReportShared = 12, "getReportShared" {}
    PutReportShared = 13, "putReportShared" { chunk: EncryptedChunk, }

    // ---- controller -> MB: stats + event subscription ----
    GetStats = 14, "getStats" { key: HeaderFieldList, }
    EnableEvents = 15, "enableEvents" { filter: EventFilter, }
    DisableEvents = 16, "disableEvents" {}
    /// A reprocess event forwarded by the controller to the destination MB.
    ReprocessPacket = 17, "reprocessPacket" { key: FlowKey, packet: Packet, }
    /// Close the sync window for `op` at the source MB: stop raising
    /// reprocess events and clear moved/cloned marks. Sent by the
    /// controller when its quiescence timer concludes the routing change
    /// has taken effect (Fig 5's implicit end-of-move, extended to
    /// clones which have no delete).
    EndSync = 28, "endSync" {}
    /// Compensating rollback for an aborted clone/merge (§4.1.3): undo
    /// the shared-state puts listed in `puts` (sub-op ids, in the order
    /// they were applied) by restoring the pre-put snapshot. The
    /// embedding answers with [`Message::DeleteAck`].
    DeleteState = 29, "deleteState" { puts: Vec<OpId>, }

    // ---- MB -> controller ----
    /// One streamed per-flow chunk answering a `Get*Perflow`: a run of
    /// one.
    Chunk = 18, "chunk" { chunk: StateChunk, }
    /// A run of two or more streamed per-flow records answering a
    /// `Get*Perflow`: `chunk` and then `rest`, in export order. Built by
    /// [`Message::run`], which sends a run of one as [`Message::Chunk`].
    /// Its tag always carries [`RUN`], so a malformed run of one is
    /// refused at decode instead of turning into a `Chunk`.
    ChunkRun = 0x52, "chunkRun" { chunk: StateChunk, ; rest: Vec<StateChunk>, }
    /// Stream terminator: the get completed; `count` chunks were sent.
    /// (The "ACK after both get operations complete" of Fig 5.)
    GetAck = 19, "getAck" { count: u32, }
    /// A shared-state blob answering `Get*Shared`.
    SharedChunk = 20, "sharedChunk" { chunk: EncryptedChunk, }
    /// Acknowledges one successful `Put*` (Fig 5: "The DstMB will send an
    /// ACK to the controller after each put operation completes").
    PutAck = 21, "putAck" { key: Option<HeaderFieldList>, }
    /// Acknowledges a `Del*`, `SetConfig`, `DelConfig`, or event
    /// subscription change.
    OpAck = 22, "opAck" {}
    /// Acknowledges a [`Message::DeleteState`] rollback; `restored` is
    /// the number of listed puts that were actually undone (0 when the
    /// snapshot log had already rotated past them).
    DeleteAck = 30, "deleteAck" { restored: u32, }
    /// Configuration values answering `GetConfig`.
    ConfigValues = 23, "configValues" { pairs: Vec<(HierarchicalKey, Vec<ConfigValue>)>, }
    /// Stats answering `GetStats`.
    Stats = 24, "stats" { stats: StateStats, }
    /// Operation failure, carrying the typed [`Error`] so controllers
    /// and applications can branch on the failure kind rather than
    /// parse a message string.
    ErrorMsg = 27, "error" { error: Error, }

    // ---- content-addressed transfer (negotiate-then-reference) ----
    /// Manifest entry of a content-addressed transfer: "the destination
    /// may already hold these bytes". Carries the run's keys and the
    /// content hash of its [`run_content`] but NOT the bodies; the
    /// destination applies from its `ContentStore` on a hit (answering
    /// with [`Message::PutAck`] exactly as for a streamed put) or
    /// answers with [`Message::ChunkNeed`] on a miss.
    ChunkRef = 32, "chunkRef" {
        /// Whether the referenced chunk is supporting or reporting state
        /// (selects `putSupportPerflow`/`putReportPerflow` semantics on
        /// application).
        class: ChunkClass,
        /// The run's first key.
        key: HeaderFieldList,
        hash: [u8; 32],
        ;
        /// The keys of the run's further records; empty for a run of one.
        rest: Vec<HeaderFieldList>,
    }
    /// The destination's half of the negotiation: it does not hold the
    /// body for `hash` and needs it streamed. Answered by the controller
    /// with a [`Message::ChunkBody`].
    ChunkNeed = 33, "chunkNeed" { hash: [u8; 32], }
    /// A hash-addressed run body streamed in answer to a
    /// [`Message::ChunkNeed`]: the first record as `key`/`data`, the
    /// rest in `rest`. The destination verifies the hash of the run's
    /// [`run_content`], stores that in its `ContentStore`, applies the
    /// records, and acknowledges with [`Message::PutAck`].
    ChunkBody = 34, "chunkBody" {
        class: ChunkClass,
        key: HeaderFieldList,
        hash: [u8; 32],
        data: EncryptedChunk,
        ;
        rest: Vec<StateChunk>,
    }
}

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

impl Message {
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
// Field descriptions
// ---------------------------------------------------------------------------

tagged!(Event, "unknown message tag" {
    Reprocess { op, key, packet } = 25,
    Introspection { code, key, values } = 26,
});

tagged!(ConfigValue, "bad config value tag", max MAX_MESSAGE / 2; {
    Str(s) = 0,
    Int(i) = 1,
    Bool(b) = 2,
});

// The typed error payload of `ErrorMsg`. Kept exhaustive on purpose:
// adding an [`Error`] variant must come with a wire mapping.
tagged!(Error, "bad error kind" {
    GranularityTooFine { requested, native } = 1,
    NoSuchConfigKey(key) = 2,
    InvalidConfigValue { key, reason } = 3,
    UnknownMb(id) = 4,
    UnsupportedStateClass(class) = 5,
    MalformedChunk(why) = 6,
    MergeNotPermitted(why) = 7,
    Codec(why) = 8,
    Transport(why) = 9,
    Timeout { op } = 10,
    MbUnreachable(id) = 11,
    OpFailed(why) = 12,
});

record! {
    StateChunk { key, data }
    StateStats {
        perflow_support_chunks,
        perflow_support_bytes,
        perflow_report_chunks,
        perflow_report_bytes,
        shared_support_bytes,
        shared_report_bytes
    }
    EventFilter { codes, key }
}

impl Field for EncryptedChunk {
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_blob(self.as_wire());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.bytes_shared().map(EncryptedChunk::from_wire)
    }
}

/// A 32-byte content hash. The all-zero hash is rejected the same way
/// nested `Batch` frames are: `encode` will happily serialize one, but
/// no hash function here produces it, so on the wire it can only mean a
/// malformed manifest.
impl Field for [u8; 32] {
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_raw(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let h: [u8; 32] = r.take()?;
        if h == [0; 32] {
            return Err(codec("null content hash in manifest"));
        }
        Ok(h)
    }
}

impl Field for OpId {
    fn put<S: Sink>(&self, s: &mut S) {
        self.0.put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        u64::get(r).map(OpId)
    }
}

impl Field for MbId {
    fn put<S: Sink>(&self, s: &mut S) {
        self.0.put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        u32::get(r).map(MbId)
    }
}

impl Field for ChunkClass {
    fn put<S: Sink>(&self, s: &mut S) {
        let b: u8 = match self {
            ChunkClass::Support => 0,
            ChunkClass::Report => 1,
        };
        b.put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match u8::get(r)? {
            0 => Ok(ChunkClass::Support),
            1 => Ok(ChunkClass::Report),
            b => Err(codec(format!("bad chunk class {b}"))),
        }
    }
}

/// Each prefix as address then length, the optional ports, then the
/// protocol with `0xff` for any. A prefix address with bits set past
/// its length is refused, not masked: it would re-encode as different
/// bytes.
impl Field for HeaderFieldList {
    fn put<S: Sink>(&self, s: &mut S) {
        for p in [self.nw_src, self.nw_dst] {
            p.addr().put(s);
            p.len().put(s);
        }
        self.tp_src.put(s);
        self.tp_dst.put(s);
        self.proto.map_or(0xff, |p| p.number()).put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let (src, src_len): (Ipv4Addr, u8) = (Field::get(r)?, Field::get(r)?);
        let (dst, dst_len): (Ipv4Addr, u8) = (Field::get(r)?, Field::get(r)?);
        if src_len > 32 || dst_len > 32 {
            return Err(codec("prefix length > 32"));
        }
        let (nw_src, nw_dst) = (IpPrefix::new(src, src_len), IpPrefix::new(dst, dst_len));
        if nw_src.addr() != src || nw_dst.addr() != dst {
            return Err(codec("prefix address has host bits set"));
        }
        Ok(HeaderFieldList {
            nw_src,
            nw_dst,
            tp_src: Field::get(r)?,
            tp_dst: Field::get(r)?,
            proto: match u8::get(r)? {
                0xff => None,
                b => Some(proto(b)?),
            },
        })
    }
}

/// A count of at most 1 024 segments, then each segment.
impl Field for HierarchicalKey {
    fn put<S: Sink>(&self, s: &mut S) {
        String::put_list(self.segments(), s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = u32::get(r)? as usize;
        if n > 1024 {
            return Err(codec("hierarchical key too deep"));
        }
        r.items(n).map(HierarchicalKey::from_segments)
    }
}

/// The wire's own list shapes.
impl Reader<'_> {
    /// A run's records after its first, under a tag with [`RUN`] set
    /// (`run`): a count of at least one, then the items. Without it the
    /// message is a run of one.
    fn rest<T: Field>(&mut self, run: bool) -> Result<Vec<T>> {
        if !run {
            return Ok(Vec::new());
        }
        let n = u32::get(self)? as usize;
        if n == 0 || n > MAX_MESSAGE / 8 {
            return Err(codec(format!("bad run length {n}")));
        }
        self.items(n)
    }

    /// A [`Message::Batch`]'s messages: a count, then each inner message
    /// as a blob. Decoding each through `Bytes` keeps chunk and packet
    /// payloads aliased to the receive buffer in the shared-mode path.
    fn batch(&mut self) -> Result<Vec<Message>> {
        let n = u32::get(self)? as usize;
        if n > MAX_MESSAGE / 8 {
            return Err(codec("too many batched messages"));
        }
        let mut msgs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let m = decode_bytes(&self.bytes_shared()?)?;
            if matches!(m, Message::Batch { .. }) {
                return Err(codec("nested batch frames are not allowed"));
            }
            msgs.push(m);
        }
        Ok(msgs)
    }
}

// ---------------------------------------------------------------------------
// Encoding and decoding
// ---------------------------------------------------------------------------

/// Encode a message body (no length prefix).
pub fn encode(msg: &Message) -> Vec<u8> {
    codec::encode(msg)
}

/// Exact length of `encode(msg)` without serializing: the same field
/// walk as [`encode`], run through a counter instead of a buffer — an
/// O(fields) sum instead of an O(bytes) buffer build.
pub fn encoded_len(msg: &Message) -> usize {
    codec::encoded_len(msg)
}

/// [`encoded_len`] of a per-flow put of either class carrying `chunk`
/// then `rest`, summed through [`Len`] without building the message.
pub fn put_perflow_len(chunk: &StateChunk, rest: &[StateChunk]) -> usize {
    let mut n = Len(0);
    tags::PutSupportPerflow.put(&mut n);
    OpId(0).put(&mut n);
    chunk.put(&mut n);
    if !rest.is_empty() {
        StateChunk::put_list(rest, &mut n);
    }
    n.0
}

/// One length-prefixed frame — prefix and body in one buffer, encoded
/// in place (no second copy).
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let mut frame = Writer::with_capacity(4 + encoded_len(msg));
    frame.put_nested(|w| msg.put(w));
    let len = frame.as_slice().len() - 4;
    if len > MAX_MESSAGE {
        return Err(codec(format!("message too large: {len} bytes")));
    }
    Ok(frame.into_bytes())
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
    let msg = Message::get(&mut r)?;
    if let Message::ChunkBody { data, rest, .. } = &msg {
        if data.is_empty() || rest.iter().any(|c| c.data.is_empty()) {
            // A body message with no body is as malformed as a nested
            // batch: refs exist precisely so empty re-sends never happen.
            return Err(codec("empty chunk body"));
        }
    }
    r.finish("message")?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------
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

/// Cuts the records of one get, in export order, into runs under its
/// op as they arrive: a run closes after [`run_len`]`(get_len)`
/// records. The one place the run boundary rule lives: every
/// embedding's get reply goes through here a record at a time, in the
/// southbound dispatcher, which hands each run on while the middlebox
/// is still sealing the next.
pub struct RunCutter {
    op: OpId,
    max: usize,
    open: Option<(StateChunk, Vec<StateChunk>)>,
}

impl RunCutter {
    /// A cutter for get `op` of `get_len` records in all.
    pub fn new(op: OpId, get_len: usize) -> Self {
        RunCutter { op, max: run_len(get_len), open: None }
    }

    /// Add the next record: the run it completes, if it completes one.
    pub fn push(&mut self, record: StateChunk) -> Option<Message> {
        let len = match &mut self.open {
            Some((_, rest)) => {
                rest.push(record);
                1 + rest.len()
            }
            None => {
                // The run's further records, in one allocation.
                self.open = Some((record, Vec::with_capacity(self.max - 1)));
                1
            }
        };
        if len == self.max {
            self.finish()
        } else {
            None
        }
    }

    /// The open run, cut short: the last run of the get.
    pub fn finish(&mut self) -> Option<Message> {
        let (chunk, rest) = self.open.take()?;
        Some(Message::run(self.op, chunk, rest))
    }
}

/// What a run's content hash covers and a destination's content store
/// keeps under it: a lone record's sealed bytes as they are — a run of
/// one hashes and is stored exactly as a lone chunk always was, and
/// shares the chunk's buffer — and for several records each one's
/// sealed bytes as a length-prefixed blob, in run order, written once
/// into one buffer of the content's size.
pub fn run_content(data: &EncryptedChunk, rest: &[StateChunk]) -> Bytes {
    if rest.is_empty() {
        return data.wire_bytes();
    }
    let records = || std::iter::once(data).chain(rest.iter().map(|c| &c.data));
    let len = records().map(|c| 4 + c.len()).sum();
    let mut content: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let mut free = &mut Arc::get_mut(&mut content).expect("a new Arc has one owner")[..];
    for c in records() {
        let (blob, tail) = std::mem::take(&mut free).split_at_mut(4 + c.len());
        blob[..4].copy_from_slice(&(c.len() as u32).to_le_bytes());
        blob[4..].copy_from_slice(c.as_wire());
        free = tail;
    }
    Bytes::from(content)
}

/// Reverse of [`run_content`] for a run whose keys are `key` and then
/// `rest`: its records, views of `content` with nothing copied, or
/// `None` when `content` does not hold exactly that many.
pub fn split_run_content(
    content: Arc<[u8]>,
    key: HeaderFieldList,
    rest: &[HeaderFieldList],
) -> Option<(StateChunk, Vec<StateChunk>)> {
    let content = Bytes::from(content);
    if rest.is_empty() {
        return Some((StateChunk::new(key, EncryptedChunk::from_wire(content)), Vec::new()));
    }
    let mut r = Reader::new_shared(&content);
    let mut record =
        |key| Some(StateChunk::new(key, EncryptedChunk::from_wire(r.bytes_shared().ok()?)));
    let first = record(key)?;
    let mut records = Vec::with_capacity(rest.len());
    for &k in rest {
        records.push(record(k)?);
    }
    r.is_exhausted().then_some((first, records))
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
        // An exact key is 17 bytes: two /32 prefixes, two ports, a protocol.
        assert_eq!(encoded_len(&put), 1 + 8 + 17 + 4 + c.data.len());
        let hash = [3u8; 32];
        let r = Message::ChunkRef {
            op: OpId(3),
            class: ChunkClass::Report,
            key: c.key,
            hash,
            rest: Vec::new(),
        };
        assert_eq!(encoded_len(&r), 1 + 8 + 1 + 17 + 32);
        assert_eq!(run_content(&c.data, &[]), c.data.as_wire());

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
        zero[0] |= RUN;
        zero.extend_from_slice(&0u32.to_le_bytes());
        for frame in [encode(&lone), zero] {
            assert!(matches!(decode(&frame), Err(Error::Codec(ref m)) if m.contains("run length")));
        }
        let mut ack = encode(&Message::OpAck { op: OpId(6) });
        ack[0] |= RUN;
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
            let mut cut = RunCutter::new(OpId(1), get_len);
            let mut out: Vec<Message> = (0..records).filter_map(|i| cut.push(rec(i))).collect();
            out.extend(cut.finish());
            out.iter().map(|m| m.run_keys().count()).collect()
        };
        assert_eq!((run_len(0), run_len(GET_RUNS), run_len(GET_RUNS + 1)), (1, 1, 2));
        assert_eq!(run_len(GET_RUNS * RUN_FLOWS), RUN_FLOWS);
        assert_eq!(run_len(10_000), RUN_FLOWS);
        assert_eq!(lens(20, 20), [1; 20]);
        assert_eq!(lens(200, 200).len(), 200usize.div_ceil(run_len(200)));
        assert_eq!(lens(10_000, 40), [16, 16, 8]);
        // A get cut short closes its open run.
        assert_eq!(lens(10_000, 5), [5]);
    }

    /// A cutter fed a record at a time hands over each run the moment
    /// its last record arrives: consecutive runs of `run_len` records,
    /// the last one short.
    #[test]
    fn run_cutter_closes_a_run_on_its_last_record() {
        let key = VendorKey::derive("t");
        let rec = |i: u64| {
            StateChunk::new(
                HeaderFieldList::from_dst_port(i as u16),
                EncryptedChunk::seal(&key, i, &[0; 8]),
            )
        };
        for get_len in [0, 1, 31, 32, 33, 511, 512, 513, 4_000] {
            let mut cut = RunCutter::new(OpId(3), get_len);
            let mut runs = Vec::new();
            for i in 0..get_len as u64 {
                if let Some(run) = cut.push(rec(i)) {
                    assert_eq!(run.run_keys().last(), Some(&rec(i).key), "get of {get_len}");
                    runs.push(run);
                }
            }
            runs.extend(cut.finish());
            assert!(cut.finish().is_none());
            let records: Vec<StateChunk> = (0..get_len as u64).map(rec).collect();
            let whole: Vec<Message> = records
                .chunks(run_len(get_len))
                .map(|run| Message::run(OpId(3), run[0].clone(), run[1..].to_vec()))
                .collect();
            assert_eq!(runs, whole, "get of {get_len}");
        }
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
        let content: Arc<[u8]> = run_content(&first.data, rest).into();
        let keys: Vec<HeaderFieldList> = rest.iter().map(|c| c.key).collect();
        let (a, b) = split_run_content(content.clone(), first.key, &keys).unwrap();
        assert_eq!((&a, &b[..]), (first, rest));
        assert_eq!(split_run_content(content.clone(), first.key, &keys[1..]), None);
        assert_eq!(split_run_content(content[..content.len() - 1].into(), first.key, &keys), None);
        let lone = split_run_content(first.data.as_wire().into(), first.key, &[]).unwrap();
        assert_eq!(lone, (first.clone(), Vec::new()));
        // The blobs' layout, spelled out: a length, then the bytes.
        let mut w = Writer::new();
        recs.iter().for_each(|c| w.put_blob(c.data.as_wire()));
        assert_eq!(content[..], w.into_bytes()[..]);
        // A lone record's content is its chunk's buffer, and so is a
        // record split from stored content: no copy either way.
        assert_eq!(run_content(&first.data, &[]), first.data.wire_bytes());
        let (split, _) = split_run_content(content.clone(), first.key, &keys).unwrap();
        let at = split.data.as_wire().as_ptr() as usize - content.as_ptr() as usize;
        assert_eq!(at, 4, "the first record is a view just past its length");
    }

    #[test]
    fn put_perflow_len_is_the_puts_encoded_len() {
        let key = VendorKey::derive("t");
        let recs: Vec<StateChunk> = (0..16u16)
            .map(|i| {
                let k = HeaderFieldList::exact(FlowKey { src_port: i, ..fk() });
                StateChunk::new(k, EncryptedChunk::seal(&key, 3, &vec![7; usize::from(i) * 5]))
            })
            .collect();
        for n in [1, 2, 16] {
            let (chunk, rest) = (recs[0].clone(), recs[1..n].to_vec());
            let len = put_perflow_len(&chunk, &rest);
            let (op, c, r) = (OpId(u64::MAX), chunk.clone(), rest.clone());
            assert_eq!(len, encoded_len(&Message::PutSupportPerflow { op, chunk: c, rest: r }));
            assert_eq!(len, encoded_len(&Message::PutReportPerflow { op, chunk, rest }));
        }
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
        let mut nested = vec![BATCH];
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

    /// Every list bound rejects one past its limit, before reserving
    /// for it: a count at the limit over an empty body is a short
    /// frame, one more is refused as a count.
    #[test]
    fn list_bounds_reject_one_past_their_limit() {
        let op = [0u8; 8];
        let chunk =
            StateChunk::new(HeaderFieldList::exact(fk()), EncryptedChunk::from_wire(vec![1]));
        let mut chunk_run = encode(&Message::Chunk { op: OpId(0), chunk });
        chunk_run[0] |= RUN;
        let flow = [&[0u8; 12][..], &[6]].concat();
        for (prefix, limit) in [
            ([&[15][..], &op, &[1]].concat(), 65_536),
            ([&[26][..], &[0; 4], &flow].concat(), 65_536),
            ([&[2][..], &op, &[0; 4]].concat(), MAX_MESSAGE / 2),
            ([&[23][..], &op].concat(), MAX_MESSAGE / 8),
            ([&[29][..], &op].concat(), MAX_MESSAGE / 8),
            (vec![BATCH], MAX_MESSAGE / 8),
            ([&[1][..], &op].concat(), 1024),
            (chunk_run, MAX_MESSAGE / 8),
        ] {
            let err = |count: usize| {
                let frame = [&prefix[..], &(count as u32).to_le_bytes()].concat();
                match decode(&frame) {
                    Err(Error::Codec(why)) => why,
                    other => panic!("count {count} after {prefix:?}: {other:?}"),
                }
            };
            assert!(err(limit).contains("truncated"), "{prefix:?}: {}", err(limit));
            assert!(!err(limit + 1).contains("truncated"), "{prefix:?}: {}", err(limit + 1));
        }
    }

    /// Decoding is canonical: a damaged frame either fails or decodes
    /// to a message that encodes back to exactly that frame — no flag,
    /// bool or prefix byte is read loosely.
    #[test]
    fn damaged_frames_that_decode_reencode_to_themselves() {
        let mut rng = proptest::test_runner::TestRng::from_name(
            "damaged_frames_that_decode_reencode_to_themselves",
        );
        let mut decoded = 0;
        gen::for_each_damaged(&mut rng, 8, |frame, _| {
            if let Ok(m) = decode(frame) {
                assert_eq!(encode(&m), frame, "{m:?}");
                decoded += 1;
            }
        });
        assert!(decoded > 1000, "only {decoded} damaged frames decoded");
    }

    /// The corpus reaches every tag the tables declare — message tags
    /// with and without `RUN`, event tags, error kinds and config value
    /// tags — so a variant added without a generator fails here.
    #[test]
    fn corpus_covers_every_declared_tag() {
        use std::collections::BTreeSet;
        fn first_byte<T: Field>(x: &T) -> u8 {
            codec::encode(x)[0]
        }
        let mut rng = proptest::test_runner::TestRng::from_name("corpus_covers_every_declared_tag");
        let (mut msgs, mut errors, mut values) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for variant in 0..gen::VARIANTS {
            for _ in 0..64 {
                let m = gen::message(&mut rng, variant);
                msgs.insert(encode(&m)[0]);
                match &m {
                    Message::ErrorMsg { error, .. } => {
                        errors.insert(first_byte(error));
                    }
                    Message::SetConfig { values: vs, .. } => {
                        values.extend(vs.iter().map(first_byte));
                    }
                    _ => {}
                }
            }
        }
        let declared = |tags: &[&[u8]]| tags.concat().into_iter().collect::<BTreeSet<u8>>();
        assert_eq!(msgs, declared(&[MESSAGE_TAGS, Event::TAGS]));
        assert_eq!(errors, declared(&[Error::TAGS]));
        assert_eq!(values, declared(&[ConfigValue::TAGS]));
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
