//! The span model: typed lifecycle events keyed by `(op, sub-op)`.
//!
//! A *span* is the life of one northbound operation (`moveInternal`,
//! `copyPerflow`, ...) as seen from every node that touched it. There
//! is no span object to open or close — a span is simply the set of
//! recorded events sharing an op id, ordered by time. Sub-operations
//! (the per-MB get/put/delete legs a parent op fans out into) attach
//! to the parent via the `sub` field of a recorded event, and appear
//! on the MB side keyed by the sub-op id itself, which is what crosses
//! the wire.

use std::fmt;

/// Why an operation was parked (its transfers suspended).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParkReason {
    /// A participating middlebox became unreachable.
    MbUnreachable { mb: u32 },
    /// The transfer stalled (no ack progress within the resume window).
    Stalled,
    /// The transfer's flowspace conflicts with live transfers on more
    /// than one shard: admission is deferred until the conflicting ops
    /// on other shards close.
    CrossShardConflict,
}

impl fmt::Display for ParkReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParkReason::MbUnreachable { mb } => write!(f, "mb{mb}-unreachable"),
            ParkReason::Stalled => write!(f, "stalled"),
            ParkReason::CrossShardConflict => write!(f, "cross-shard-conflict"),
        }
    }
}

/// One typed lifecycle event within an operation's span.
///
/// The first seven variants are the controller-side lifecycle from the
/// resumable-transfer choreography; the next group attributes the same
/// op id to the other layers (MB handlers, transports, fault injection)
/// so a dump reads as one causally-ordered cross-node timeline; the
/// last five are the data plane's (Figure 7's packet and event
/// activity), recorded with neither op nor sub-op id except `Served`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEvent {
    /// The operation (or one of its sub-ops) was issued.
    Issued { kind: &'static str },
    /// A state-transfer chunk was acknowledged by the receiver.
    ChunkAcked { seq: u64 },
    /// The operation's transfers were suspended.
    Parked { reason: ParkReason },
    /// A parked transfer resumed from the first unacked chunk.
    Resumed { from_seq: u64 },
    /// An acked-but-unconfirmed delete was re-sent.
    DeleteRetried,
    /// The operation failed and was torn down.
    Aborted { error: String },
    /// The operation completed successfully.
    Completed,
    /// An MB-side handler processed a southbound message.
    Handled { msg: &'static str },
    /// A transport connection to a middlebox was lost/reset.
    TransportReset,
    /// A middlebox transport was reattached after a reset.
    TransportReattached,
    /// The simulated network injected a fault on a frame.
    FaultInjected { kind: &'static str },
    /// Several same-destination messages were coalesced into one
    /// southbound `Batch` frame before hitting the wire.
    BatchFlushed { count: u32 },
    /// The shard router admitted the operation onto a controller shard
    /// (`pinned` when a flowspace conflict overrode the hash placement).
    OpRouted { shard: u32, pinned: bool },
    /// A put (chunk ref or full chunk) entered the in-flight window
    /// ledger and was handed to the wire. Window-queued puts only get
    /// this event once `refill_window` admits them, so the number of
    /// admitted-but-unacked seqs is exactly the ledger occupancy.
    PutAdmitted { seq: u64 },
    /// A compensating/quiescence delete entered the acked-delete
    /// ledger targeting middlebox `mb`.
    DeleteIssued { mb: u32 },
    /// The delete's ledger entry closed — acknowledged by the MB, or
    /// terminally rejected (the error path tears the entry down).
    DeleteAcked,
    /// Chain hop `hop`'s forward move was issued (recorded under the
    /// chain id; the per-hop op gets its own `OpRouted`/`Issued`).
    ChainHop { hop: u32 },
    /// Chain hop `hop`'s compensating reverse move was issued;
    /// `undoes` is the forward op id being compensated.
    ChainUndo { hop: u32, undoes: u64 },
    /// A middlebox finished processing a data packet, `latency_ns`
    /// after it arrived (queueing included).
    PacketProcessed { pkt_id: u64, latency_ns: u64 },
    /// A switch or the controller discarded a data packet (drop rule,
    /// table miss with no controller, unroutable packet-in).
    PacketDropped { pkt_id: u64 },
    /// A middlebox raised a reprocess event.
    EventRaised,
    /// A middlebox replayed a reprocess event.
    EventReplayed,
    /// A middlebox finished serving a get it had answered
    /// asynchronously (streamed per-flow chunks, background shared
    /// export): the last reply left. Keyed by the get's sub-op id,
    /// like the `Handled { msg }` that opened it.
    Served { msg: &'static str },
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanEvent::Issued { kind } => write!(f, "issued({kind})"),
            SpanEvent::ChunkAcked { seq } => write!(f, "chunk-acked(seq={seq})"),
            SpanEvent::Parked { reason } => write!(f, "parked({reason})"),
            SpanEvent::Resumed { from_seq } => write!(f, "resumed(from_seq={from_seq})"),
            SpanEvent::DeleteRetried => write!(f, "delete-retried"),
            SpanEvent::Aborted { error } => write!(f, "aborted({error})"),
            SpanEvent::Completed => write!(f, "completed"),
            SpanEvent::Handled { msg } => write!(f, "handled({msg})"),
            SpanEvent::TransportReset => write!(f, "transport-reset"),
            SpanEvent::TransportReattached => write!(f, "transport-reattached"),
            SpanEvent::FaultInjected { kind } => write!(f, "fault({kind})"),
            SpanEvent::BatchFlushed { count } => write!(f, "batch-flushed(count={count})"),
            SpanEvent::OpRouted { shard, pinned } => {
                write!(f, "routed(shard={shard}{})", if *pinned { ",pinned" } else { "" })
            }
            SpanEvent::PutAdmitted { seq } => write!(f, "put-admitted(seq={seq})"),
            SpanEvent::DeleteIssued { mb } => write!(f, "delete-issued(mb={mb})"),
            SpanEvent::DeleteAcked => write!(f, "delete-acked"),
            SpanEvent::ChainHop { hop } => write!(f, "chain-hop({hop})"),
            SpanEvent::ChainUndo { hop, undoes } => {
                write!(f, "chain-undo(hop={hop},undoes={undoes})")
            }
            SpanEvent::PacketProcessed { pkt_id, latency_ns } => {
                write!(f, "packet(id={pkt_id},latency_ns={latency_ns})")
            }
            SpanEvent::PacketDropped { pkt_id } => write!(f, "packet-dropped(id={pkt_id})"),
            SpanEvent::EventRaised => write!(f, "event-raised"),
            SpanEvent::EventReplayed => write!(f, "event-replayed"),
            SpanEvent::Served { msg } => write!(f, "served({msg})"),
        }
    }
}
