//! One shard of the MB controller (§5): the broker between northbound
//! control operations and the southbound protocol.
//!
//! [`ControllerShard`] is a pure state machine: northbound calls and
//! southbound messages go in, [`Action`]s come out. It implements the
//! Figure 5 choreography for `moveInternal` — issue both per-flow gets
//! to the source, forward streamed chunks as puts to the destination,
//! track per-put ACKs, buffer reprocess events "until the DstMB has
//! ACK'd the put for the piece of per-flow state to which the event
//! applies", and, after a quiescence window with no events (the routing
//! change has taken effect), delete the moved state at the source — plus
//! the analogous sequences for `cloneSupport` and `mergeInternal`
//! (shared state; no delete).
//!
//! A shard owns *all* state for the operations routed to it — the op
//! table, sub-op map, transfer ledgers, ack sets, and the pending-delete
//! ledger — so shards share nothing and never need a lock between them.
//! The engine ([`crate::controller::ControllerCore`]) owns N shards plus
//! the [`crate::router::ShardRouter`] that keeps overlapping flowspaces
//! on one shard; a single-shard engine is byte-for-byte the pre-sharding
//! controller. Each shard allocates op ids from its own residue class
//! (`first + k·stride`), which both keeps ids globally unique and makes
//! southbound demux a mod operation rather than a table lookup.
//!
//! Every operation walks one lifecycle, held in one value ([`Phase`],
//! DESIGN §10): a transfer runs `Running → Completed → Closed` (with
//! `Deferred` before it under a cross-shard conflict and `Suspended`
//! beside it while an endpoint is down), a simple request runs
//! `Running → Closed` on its reply, and abort closes from anywhere. The
//! guards below read that value; `OpState::set_phase` is the only
//! place it is written and asserts each edge is a legal one. Both op
//! families enter through one body each — [`ControllerShard::start_transfer`]
//! and `start_simple` — so ids, spans and actions are ordered in one
//! place per family.
//!
//! Keeping the core pure lets the same controller run embedded in the
//! discrete-event simulator (`nodes::ControllerNode`) and over real TCP
//! transports (`tcp`), exactly as the paper's Floodlight module serves
//! both their testbed and their dummy-MB scalability rig.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use openmb_obs::{NodeTag, ParkReason, Recorder, SpanEvent};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::{self, Event, EventFilter, Message};
use openmb_types::{
    ConfigValue, EncryptedChunk, Error, FlowKey, HeaderFieldList, HierarchicalKey, MbId, OpId,
    Packet, StateChunk, StateStats,
};

use crate::id_hash::{IdMap, IdSet};

/// An effect the embedding must carry out.
///
/// `#[non_exhaustive]`: embeddings must keep a wildcard arm so new
/// action kinds are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a protocol message to a middlebox.
    ToMb(MbId, Message),
    /// Deliver a completion/notification to the control application.
    Notify(Completion),
}

/// Northbound completions and notifications delivered to control
/// applications.
///
/// `#[non_exhaustive]`: applications must keep a wildcard arm so new
/// completion kinds are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// `readConfig` finished.
    Config { op: OpId, pairs: Vec<(HierarchicalKey, Vec<ConfigValue>)> },
    /// `writeConfig`/`delConfig`/`enableEvents` acknowledged.
    Ack { op: OpId },
    /// `stats` finished.
    Stats { op: OpId, stats: StateStats },
    /// `moveInternal` finished: every put has been ACKed (events may
    /// continue to be forwarded afterwards).
    MoveComplete { op: OpId, chunks_moved: usize },
    /// `cloneSupport` finished.
    CloneComplete { op: OpId },
    /// `mergeInternal` finished.
    MergeComplete { op: OpId },
    /// A chain move ([`crate::controller::ControllerCore::chain_move`])
    /// committed: every hop's per-flow move completed. Until this fires
    /// the chain can still abort and roll every hop back, so
    /// applications must not repoint routing on the individual hops'
    /// [`Completion::MoveComplete`]s — those are sub-results of the
    /// chain transaction.
    ChainComplete {
        op: OpId,
        /// Number of hops the chain moved.
        hops: usize,
        /// Total chunks transferred across all hops.
        chunks_moved: usize,
    },
    /// An operation failed. Carries the typed [`Error`] so applications
    /// can branch on the failure kind (timeout, unreachable MB,
    /// granularity, ...) instead of parsing a message string, plus the
    /// number of buffered reprocess events the abort discarded — before
    /// this was reported, the app always saw a count of zero because the
    /// rollback path cleared the buffer first.
    Failed { op: OpId, error: Error, dropped_events: usize },
    /// An introspection event arrived from a middlebox the application
    /// subscribed to.
    MbEvent { mb: MbId, code: u32, key: FlowKey, values: Vec<(String, String)> },
}

impl Completion {
    /// The operation this completion concludes (`None` for MbEvent).
    pub fn op(&self) -> Option<OpId> {
        match self {
            Completion::Config { op, .. }
            | Completion::Ack { op }
            | Completion::Stats { op, .. }
            | Completion::MoveComplete { op, .. }
            | Completion::CloneComplete { op }
            | Completion::MergeComplete { op }
            | Completion::ChainComplete { op, .. }
            | Completion::Failed { op, .. } => Some(*op),
            Completion::MbEvent { .. } => None,
        }
    }
}

/// The two classes every state exchange comes in (§4.1: supporting and
/// reporting state). Carried as data by the [`SubRole`]s that differ in
/// nothing else; the constructors below are the one place a class picks
/// its wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Support,
    Report,
}

impl Class {
    fn wire(self) -> wire::ChunkClass {
        match self {
            Class::Support => wire::ChunkClass::Support,
            Class::Report => wire::ChunkClass::Report,
        }
    }

    fn put_perflow(self, op: OpId, chunk: StateChunk, rest: Vec<StateChunk>) -> Message {
        match self {
            Class::Support => Message::PutSupportPerflow { op, chunk, rest },
            Class::Report => Message::PutReportPerflow { op, chunk, rest },
        }
    }

    fn del_perflow(self, op: OpId, key: HeaderFieldList) -> Message {
        match self {
            Class::Support => Message::DelSupportPerflow { op, key },
            Class::Report => Message::DelReportPerflow { op, key },
        }
    }

    fn put_shared(self, op: OpId, chunk: EncryptedChunk) -> Message {
        match self {
            Class::Support => Message::PutSupportShared { op, chunk },
            Class::Report => Message::PutReportShared { op, chunk },
        }
    }
}

/// Which southbound exchange a sub-operation id belongs to. Put roles
/// carry the controller-assigned per-op put sequence number `seq`, so
/// a duplicated `PutAck` (fault injection, or a re-sent put racing its
/// original ack) is deduplicated by `(op, seq)` instead of double-
/// decrementing the outstanding-put count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubRole {
    /// A per-flow get stream (moves).
    Get(Class),
    /// The put (or `ChunkRef`) of one streamed run of per-flow records.
    Put {
        class: Class,
        seq: u64,
    },
    /// A shared-state get (clone/merge): at most one chunk.
    GetShared(Class),
    PutShared {
        seq: u64,
    },
    /// A delete tracked in the acked ledger: a per-flow delete at either
    /// end, or the shared-state rollback (`DeleteState`) after a
    /// clone/merge abort.
    Delete,
    /// The single request of a simple op.
    Simple,
}

impl SubRole {
    /// The request that opens this get at the source.
    fn get_request(self, op: OpId, key: HeaderFieldList) -> Message {
        match self {
            SubRole::Get(Class::Support) => Message::GetSupportPerflow { op, key },
            SubRole::Get(Class::Report) => Message::GetReportPerflow { op, key },
            SubRole::GetShared(Class::Support) => Message::GetSupportShared { op },
            SubRole::GetShared(Class::Report) => Message::GetReportShared { op },
            _ => unreachable!("{self:?} is not a get"),
        }
    }
}

/// A reprocess event parked until its chunk's put is ACKed.
#[derive(Debug, Clone)]
struct BufferedEvent {
    key: FlowKey,
    packet: Packet,
}

/// Retry bookkeeping for idempotent simple requests (config reads,
/// stats). The stored request keeps its original sub-op id, so a
/// duplicate reply after a retry lands on an op that is already
/// [`Phase::Closed`] and `finish_simple` ignores it.
#[derive(Clone)]
struct RetryState {
    request: Message,
    next_at: SimTime,
    backoff: SimDuration,
    left: u32,
}

/// The northbound operations. Public so the engine can name the
/// transfer it admits ([`ControllerShard::start_transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    ReadConfig,
    WriteConfig,
    DelConfig,
    Stats,
    EnableEvents,
    Move,
    Clone,
    Merge,
}

impl OpKind {
    /// The three state transfers (gets at a source, puts at a
    /// destination, a sync window to close); the rest are simple
    /// one-request ops.
    fn is_transfer(self) -> bool {
        !self.gets().is_empty()
    }

    /// The northbound API name, as spans report it.
    fn api_name(self) -> &'static str {
        match self {
            OpKind::ReadConfig => "readConfig",
            OpKind::WriteConfig => "writeConfig",
            OpKind::DelConfig => "delConfig",
            OpKind::Stats => "stats",
            OpKind::EnableEvents => "enableEvents",
            OpKind::Move => "moveInternal",
            OpKind::Clone => "cloneSupport",
            OpKind::Merge => "mergeInternal",
        }
    }

    /// The get streams a transfer opens at its source, in issue order.
    fn gets(self) -> &'static [SubRole] {
        match self {
            OpKind::Move => &[SubRole::Get(Class::Support), SubRole::Get(Class::Report)],
            OpKind::Clone => &[SubRole::GetShared(Class::Support)],
            OpKind::Merge => {
                &[SubRole::GetShared(Class::Support), SubRole::GetShared(Class::Report)]
            }
            _ => &[],
        }
    }
}

/// Where an operation is in its lifecycle — the boxes of DESIGN §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A transfer reserved under a cross-shard conflict deferral: the op
    /// id and state exist (so the router's conflict entry pins later
    /// admissions) but no southbound traffic has been issued yet. Left
    /// through [`ControllerShard::release_transfer`].
    Deferred,
    /// The southbound exchange is in progress.
    Running,
    /// A transfer parked while an endpoint is unreachable, awaiting
    /// resume.
    Suspended,
    /// A transfer whose every put is acked and whose completion has
    /// been reported; events are still forwarded until quiescence.
    Completed,
    /// Terminal: quiesced, aborted, failed validation, or a simple op
    /// whose reply arrived. Only owed deletes may still be in flight.
    Closed,
}

impl Phase {
    /// Outcome not decided yet: nothing has been reported northbound.
    fn live(self) -> bool {
        matches!(self, Phase::Deferred | Phase::Running | Phase::Suspended)
    }

    /// The one open-op predicate: the op can still emit southbound
    /// traffic of its own (owed deletes are counted separately).
    fn open(self) -> bool {
        self != Phase::Closed
    }

    /// The legal lifecycle edges. `Suspended → Completed` is the
    /// transfer parked on its *source* whose last puts the live
    /// destination then acks.
    pub fn can_become(self, to: Phase) -> bool {
        use Phase::*;
        matches!(
            (self, to),
            (Deferred, Running | Closed)
                | (Running, Suspended | Completed | Closed)
                | (Suspended, Running | Completed | Closed)
                | (Completed, Closed)
        )
    }
}

/// Per-operation progress.
#[derive(Clone)]
struct OpState {
    kind: OpKind,
    /// Lifecycle position; written only by [`OpState::set_phase`].
    phase: Phase,
    src: MbId,
    dst: MbId,
    /// For moves: the pattern being moved.
    pattern: HeaderFieldList,
    /// Outstanding get streams (2 for move: support+report; 1-2 for
    /// clone/merge).
    gets_outstanding: u32,
    /// Outstanding puts (sub-op ids), one per run.
    puts_outstanding: u32,
    /// Record keys whose runs' puts are in flight (issued or
    /// window-queued). A set, not a list: the ack path removes every
    /// key of its run, and a linear scan there is O(n²) over a transfer.
    pending_keys: HashSet<HeaderFieldList>,
    /// Every key that has entered `pending_keys` names one exact flow,
    /// so [`OpState::pending`] and [`OpState::streamed`] answer by set
    /// probes instead of a walk.
    exact_keys: bool,
    /// Events waiting for their chunk's put ACK.
    buffered: Vec<BufferedEvent>,
    /// Total flow records transferred (not runs).
    chunks: usize,
    /// Virtual time of the most recent event (or completion), for the
    /// quiescence timer.
    last_activity: SimTime,
    /// Virtual time at which the op is aborted if still incomplete.
    deadline: SimTime,
    /// Retry schedule for idempotent simple requests.
    retry: Option<RetryState>,
    /// Statistics: events forwarded under this op.
    pub events_forwarded: u64,

    // ---- resumable-transfer bookkeeping ----
    /// Next per-op put sequence number (tags put sub-roles): one per
    /// run, not per record.
    next_chunk_seq: u64,
    /// Watermark-compacted ack set: every seq below `ack_watermark` has
    /// been acked, plus the sparse set of acked seqs at or above it.
    /// Together they are the (op, chunk_seq) dedup a duplicated ack
    /// must not get past — in O(log W) space-bounded form instead of a
    /// `HashSet<u64>` that grows by one entry per chunk forever.
    ack_watermark: u64,
    acked_above: BTreeSet<u64>,
    /// Get sub-ops that have fully completed (stream closed); dedups
    /// duplicated `GetAck`s and re-streamed `SharedChunk`s.
    done_gets: IdSet<OpId>,
    /// Record keys already streamed, per [`Class`]: a duplicated or
    /// re-streamed record is dropped instead of creating a second put.
    /// An op has one get sub-op per class (resume re-sends it under the
    /// same id), so a class's set is also the distinct records its get
    /// has delivered — what the `GetAck` count is compared against, so
    /// a dropped run leaves the get open for resume — and what the event
    /// predicate reads as "its state has left the source"
    /// ([`OpState::streamed`]).
    streamed: [HashSet<HeaderFieldList>; 2],
    /// The chunk count each get's `GetAck` announced.
    get_expected: IdMap<OpId, u32>,
    /// The get requests issued to the source, by sub-op id. Re-sent
    /// verbatim (same sub ids) on resume; the source's moved-marks and
    /// our chunk dedup make the re-issue idempotent. The source also
    /// tags its moved/cloned marks (and its reprocess events) with
    /// these ids, so closing the sync window means sending EndSync for
    /// each.
    get_reqs: Vec<(OpId, Message)>,
    /// The in-flight put ledger: puts issued but not yet acked, keyed
    /// by sequence number — one entry per run, so the window counts
    /// runs. A `BTreeMap` so the ack path removes in
    /// O(log W) and resume finds the window base (first key) in
    /// O(log W), instead of the old `Vec` retain/min-scan that made a
    /// long transfer O(n²). Bounded by `transfer_window` when set.
    unacked_puts: BTreeMap<u64, Message>,
    /// Puts created but deferred because the window is full, in seq
    /// order. `refill_window` promotes them into `unacked_puts` (and
    /// onto the wire) as acks open slots.
    queued_puts: VecDeque<(u64, Message)>,
    /// Shared-state put sub-ops issued to the destination, in order —
    /// the rollback list an abort sends in `DeleteState`.
    shared_puts: Vec<OpId>,
    /// Remaining resume attempts (config `max_transfer_resumes`).
    resumes_left: u32,

    // ---- content-addressed transfer bookkeeping ----
    /// Records (first, rest) and content hash of every in-flight
    /// `ChunkRef`'s run, by seq — the source of the `ChunkBody`
    /// answering a `ChunkNeed`. Entries leave on ack or abort, so this
    /// holds O(window) runs, not the whole transfer.
    ref_bodies: IdMap<u64, (StateChunk, Vec<StateChunk>, [u8; 32])>,
    /// Seqs whose destination reported a cache miss (`ChunkNeed`): the
    /// bodies currently streaming alongside the reference window. The
    /// ledger counts these separately from the refs in `unacked_puts` —
    /// a body does not occupy a second window slot; its ref's slot is
    /// still open until the `PutAck` lands.
    needed: IdSet<u64>,
}

/// Tunable controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How long after the last reprocess event the controller assumes
    /// the routing change has taken effect (paper: "a fixed amount of
    /// time (e.g., 5 seconds)").
    pub quiesce_after: SimDuration,
    /// Buffer reprocess events until the matching put is ACKed (Fig 5).
    /// Disabling this is an ABLATION ONLY: events forwarded before their
    /// chunk's put land first and are overwritten by the put — the exact
    /// §4.2.1 atomicity violation the design exists to prevent. The
    /// `ablations` harness measures the resulting lost updates.
    pub buffer_events: bool,
    /// Deadline for every northbound operation: if the op has not
    /// completed within this span, `tick` aborts it — rolling back
    /// partially-put destination state (moves), dropping buffered
    /// reprocess events, releasing the op's bookkeeping, and notifying
    /// the application with [`Error::Timeout`] (or
    /// [`Error::MbUnreachable`] when the embedding reported a crash).
    pub op_deadline: SimDuration,
    /// Initial backoff before the first retry of an idempotent simple
    /// request (config reads, stats). Doubles per attempt.
    pub retry_backoff: SimDuration,
    /// Maximum retries for idempotent simple requests. Non-idempotent
    /// requests (writes, transfers) are never retried — they fail at
    /// the deadline instead.
    pub max_retries: u32,
    /// Maximum number of times a stalled, timed-out, or disconnected
    /// transfer (move/clone/merge) is resumed from its last acked chunk
    /// before the controller gives up and aborts. 0 (the default)
    /// preserves the legacy fail-fast behaviour: any stall or endpoint
    /// loss aborts the operation immediately.
    pub max_transfer_resumes: u32,
    /// How long a transfer may sit with outstanding gets or puts and no
    /// message activity before `tick` treats it as stalled (a message
    /// was lost) and resumes it.
    pub resume_after: SimDuration,
    /// Sliding-window size for streamed state transfers: at most this
    /// many puts are in flight (issued, unacked) per operation; further
    /// runs queue and are released as acks open slots, so the
    /// in-flight ledger — and everything resume must rescan — stays
    /// O(window) regardless of transfer size. A put carries one run, so
    /// at most `window × RUN_FLOWS` flow records are in flight. 0
    /// disables windowing (fire everything immediately, the pre-window
    /// behaviour).
    pub transfer_window: u32,
    /// Content-addressed per-flow transfers (negotiate-then-reference):
    /// stream `ChunkRef` manifests instead of full puts, and bodies only
    /// for the hashes the destination reports missing. On (the default),
    /// repeated and resumed moves cost reference-sized frames instead of
    /// re-shipping every chunk body. Off restores the legacy
    /// `Put*Perflow` streaming; final state is identical either way,
    /// which the conformance suite asserts across both modes.
    pub content_cache: bool,
    /// How many times a chain rollback re-attempts one failed
    /// compensating reverse move before the chain is abandoned with
    /// [`openmb_types::Error`] `OpFailed("chain rollback incomplete")`.
    /// Reverse moves target an endpoint that just failed, so retries are
    /// paced by the maintenance tick / reachability events rather than
    /// fired back-to-back.
    pub chain_rollback_retries: u32,
    /// Number of controller shards. Read once when a
    /// [`crate::controller::ControllerCore`] is constructed (mutating it
    /// afterwards has no effect — shard count is structural). 1 (the
    /// default) is the pre-sharding single-stream controller; N > 1 lets
    /// operations on disjoint flowspaces proceed through independent
    /// shards in parallel.
    pub shards: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            quiesce_after: SimDuration::from_millis(500),
            buffer_events: true,
            op_deadline: SimDuration::from_secs(10),
            retry_backoff: SimDuration::from_millis(100),
            max_retries: 3,
            max_transfer_resumes: 0,
            resume_after: SimDuration::from_millis(400),
            transfer_window: 64,
            content_cache: true,
            chain_rollback_retries: 16,
            shards: 1,
        }
    }
}

/// One snapshot of a transfer's ledger and the core's cache counters —
/// the typed replacement for the old `puts_in_flight`/`puts_queued`/
/// `ack_set_size`/`puts_in_flight_peak` accessor sprawl. Taken with
/// [`ControllerShard::transfer_ledger_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferLedgerStats {
    /// Puts (references or legacy bodies) issued and unacked for the
    /// op — the ledger the window bounds. 0 for unknown ops.
    pub puts_in_flight: usize,
    /// Puts created but deferred by the window for the op.
    pub puts_queued: usize,
    /// Size of the op's sparse acked-seq set above the watermark —
    /// bounded by the window under in-order delivery (the regression
    /// guard against unbounded per-chunk ack state).
    pub ack_set_size: usize,
    /// Chunk bodies streaming for the op in answer to `ChunkNeed`s.
    /// Bodies ride alongside the reference window, not inside it.
    pub bodies_in_flight: usize,
    /// Largest in-flight put ledger observed across ALL ops — with a
    /// `transfer_window` set this must never exceed the window.
    /// Core-wide, populated whatever `op` is passed (so callers that
    /// only want the peak may pass any op id).
    pub in_flight_peak: usize,
    /// Core-wide: references acked without the destination requesting
    /// the body — the chunk was already in its content store.
    pub cache_hits: u64,
    /// Core-wide: references the destination answered with `ChunkNeed`.
    pub cache_misses: u64,
    /// Core-wide: `ChunkBody` messages streamed (≥ `cache_misses`:
    /// duplicated needs re-elicit bodies).
    pub bodies_sent: u64,
    /// Core-wide: wire bytes saved by reference-only deliveries — the
    /// encoded size of the put each cache hit would have cost, minus
    /// the reference actually sent.
    pub bytes_saved: u64,
}

/// Entry counts of the tables a long-running controller keeps — what
/// must stay flat however many ops it has run (the bounded-tables soak
/// reads it, and so will the live control socket's `tables` command).
/// Taken with [`crate::controller::ControllerCore::table_sizes`],
/// summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableSizes {
    /// Ops not yet retired: open, or closed with a delete still owed.
    pub ops: usize,
    /// Sub-op ids still routable: gets, unacked puts, deletes and
    /// simple requests of unretired ops.
    pub sub_ops: usize,
    /// Retired transfers kept for late traffic, at most
    /// [`RETIRED_RING`] per shard.
    pub tombstones: usize,
    /// Owed deletes in the acked-delete ledger.
    pub pending_deletes: usize,
    /// Transfers in the router's conflict table (pruned on admission).
    pub conflicts: usize,
}

/// How many retired transfers a shard keeps for late traffic. A retired
/// op has sent its `EndSync`s and had its deletes acked, so what still
/// arrives for it is duplicated or retried replies, which find no
/// sub-op and are dropped exactly as the closed op dropped them, and
/// the tail of the source's reprocess events — frames in flight when
/// the sync window closed (a clone or merge retires at that instant;
/// a move's tail mostly lands before its delete acks, but a delay or
/// reorder can hold it back). Those events are the one thing a closed
/// op still acts on — they go on to the destination — so the ring keeps
/// the last `RETIRED_RING` transfers' states, which still name the
/// destination and the get sub-ops the source tags events with. Simple
/// ops leave no tombstone: nothing tags an event with them.
pub const RETIRED_RING: usize = 16;

/// One owed state delete (see `ControllerShard::pending_deletes`).
#[derive(Debug, Clone)]
struct PendingDelete {
    /// The op the delete is owed for: it retires once its last owed
    /// delete is acked or given up on.
    op: OpId,
    mb: MbId,
    /// Sub-op id reused verbatim on every (re)send, so the ack
    /// (`DeleteAck` or `OpAck`) matches no matter which attempt got
    /// through.
    sub: OpId,
    /// The delete message itself, re-sent as-is (all delete variants
    /// are idempotent at the MB).
    msg: Message,
    /// Next (re)send instant; `None` parks the entry until the MB
    /// reattaches. `SimTime::ZERO` means due at the next tick.
    due: Option<SimTime>,
    /// Re-sends left before giving up (bounds the tick chain so a
    /// destination that stops acking cannot keep the controller's
    /// maintenance timer alive forever).
    left: u32,
}

/// The MB controller state machine.
///
/// `Clone` so embeddings can journal a snapshot of the whole machine
/// (e.g. `ControllerNode`'s crash/restore journal) and restore it after
/// a controller crash without replaying the message history.
#[derive(Clone)]
pub struct ControllerShard {
    /// Registered middleboxes (application-visible handles).
    mbs: Vec<MbId>,
    next_op: u64,
    /// Op-id allocation stride: this shard hands out
    /// `first, first + stride, first + 2·stride, …`, so N shards with
    /// stride N and distinct residues never collide and
    /// `(id - 1) % stride` recovers the owning shard in O(1).
    op_stride: u64,
    /// Unretired ops: an op leaves once it is [`Phase::Closed`] with no
    /// delete owed (`retire_if_done`), so membership *is* "not fully
    /// closed" — what [`ControllerShard::op_closed`] answers.
    ops: IdMap<OpId, OpState>,
    /// Routable sub-op ids. A put's entry leaves when its ack is
    /// accepted; the rest leave with their op.
    sub_ops: IdMap<OpId, (OpId, SubRole)>,
    /// The last [`RETIRED_RING`] retired transfers, oldest first, their
    /// per-chunk collections freed at close.
    retired: VecDeque<(OpId, OpState)>,
    /// Introspection subscription per MB (controller-side record).
    subscriptions: IdMap<MbId, EventFilter>,
    /// MBs the embedding has reported as crashed/unreachable. Every
    /// northbound call naming one fails fast with
    /// [`Error::MbUnreachable`] until `mark_reachable` clears it.
    unreachable: IdSet<MbId>,
    /// State deletes owed to an MB: shared-state rollbacks
    /// (`DeleteState`) after a clone/merge abort, per-flow deletes at
    /// the destination after a move abort, and per-flow deletes at the
    /// source when a completed move quiesces. An entry lives until the
    /// MB's ack closes it: the delete is re-sent with backoff from
    /// `tick` (every variant is idempotent at the MB — the put log
    /// revokes by sub-op id; per-flow deletes delete by pattern),
    /// parked while the MB is unreachable, and re-sent on reattach.
    /// Without this ledger a single dropped delete would orphan moved
    /// or merged state forever.
    pending_deletes: Vec<PendingDelete>,
    pub config: ControllerConfig,
    /// Counters for experiments (messages brokered, events buffered...).
    pub messages_handled: u64,
    pub events_buffered_peak: usize,
    /// Largest in-flight put ledger observed across all ops — with a
    /// `transfer_window` set this must never exceed the window, which
    /// the conformance suites assert (via
    /// [`ControllerShard::transfer_ledger_stats`]).
    in_flight_peak: usize,
    /// Content-cache counters, core-wide (they outlive op cleanup);
    /// surfaced through [`TransferLedgerStats`].
    cache_hits: u64,
    cache_misses: u64,
    bodies_sent: u64,
    bytes_saved: u64,
    /// Flight recorder for op spans (disabled unless the embedding
    /// installs one via [`ControllerShard::set_recorder`]). Cloning the
    /// core (journaling) shares the recorder, so a restored snapshot
    /// keeps appending to the same timeline.
    obs: Recorder,
    obs_tag: NodeTag,
}

impl ControllerShard {
    /// A standalone single-shard controller: op ids `1, 2, 3, …` —
    /// exactly the pre-sharding allocation order.
    pub fn new(config: ControllerConfig) -> Self {
        Self::with_op_space(config, 1, 1)
    }

    /// A shard allocating op ids from its own residue class: `first`,
    /// `first + stride`, `first + 2·stride`, … The engine constructs
    /// shard `s` of `N` with `(s + 1, N)`.
    ///
    /// # Panics
    /// Panics if `stride == 0`, `first == 0` (op id 0 is reserved for
    /// "no op"), or `first > stride` (the residue must be in range).
    pub fn with_op_space(config: ControllerConfig, first: u64, stride: u64) -> Self {
        assert!(stride > 0, "op-id stride must be positive");
        assert!(first > 0 && first <= stride, "first op id must be in 1..=stride");
        ControllerShard {
            mbs: Vec::new(),
            next_op: first,
            op_stride: stride,
            ops: IdMap::default(),
            sub_ops: IdMap::default(),
            retired: VecDeque::new(),
            subscriptions: IdMap::default(),
            unreachable: IdSet::default(),
            pending_deletes: Vec::new(),
            config,
            messages_handled: 0,
            events_buffered_peak: 0,
            in_flight_peak: 0,
            cache_hits: 0,
            cache_misses: 0,
            bodies_sent: 0,
            bytes_saved: 0,
            obs: Recorder::disabled(),
            obs_tag: NodeTag::NONE,
        }
    }

    /// Install a flight recorder: every operation's lifecycle events
    /// (`Issued`, `ChunkAcked`, `Parked`, `Resumed`, `DeleteRetried`,
    /// `Aborted`, `Completed`) are recorded into it under the node name
    /// "controller".
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs_tag = rec.register("controller");
        self.obs = rec;
    }

    /// Install a recorder under an already-registered node tag. The
    /// engine registers "controller" once and shares the tag across all
    /// shards, so a sharded controller's events merge into one timeline
    /// column instead of N duplicate nodes.
    pub fn set_recorder_with_tag(&mut self, rec: Recorder, tag: NodeTag) {
        self.obs_tag = tag;
        self.obs = rec;
    }

    /// The installed flight recorder handle (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The node tag this core records under ([`NodeTag::NONE`] while no
    /// recorder is installed). Embeddings use it to attribute their own
    /// transport-level events to the controller's timeline.
    pub fn recorder_tag(&self) -> NodeTag {
        self.obs_tag
    }

    /// Register a middlebox; returns its handle.
    pub fn register_mb(&mut self) -> MbId {
        let id = MbId(self.mbs.len() as u32);
        self.mbs.push(id);
        id
    }

    fn alloc_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += self.op_stride;
        id
    }

    fn alloc_sub(&mut self, parent: OpId, role: SubRole) -> OpId {
        let id = self.alloc_op();
        self.sub_ops.insert(id, (parent, role));
        id
    }

    /// First unusable MB among `mbs`: unregistered handles surface as
    /// [`Error::UnknownMb`], crashed ones as [`Error::MbUnreachable`].
    fn mb_error(&self, mbs: &[MbId]) -> Option<Error> {
        for &m in mbs {
            if !self.mbs.contains(&m) {
                return Some(Error::UnknownMb(m));
            }
            if self.unreachable.contains(&m) {
                return Some(Error::MbUnreachable(m));
            }
        }
        None
    }

    /// Record an operation that failed validation before any southbound
    /// traffic, and deliver the typed failure immediately.
    #[allow(clippy::too_many_arguments)]
    fn fail_fast(
        &mut self,
        op: OpId,
        kind: OpKind,
        src: MbId,
        dst: MbId,
        error: Error,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        self.ops.insert(op, OpState::new(kind, src, dst, Phase::Closed, now, &self.config));
        self.obs.record_with(now.0, self.obs_tag, Some(op.0), None, || SpanEvent::Aborted {
            error: error.to_string(),
        });
        out.push(Action::Notify(Completion::Failed { op, error, dropped_events: 0 }));
        self.retire_if_done(op);
    }

    /// Record a span event for `op` (and optionally a sub-op) at `now`.
    #[inline]
    fn span(&self, now: SimTime, op: OpId, sub: Option<OpId>, ev: SpanEvent) {
        self.obs.record(now.0, self.obs_tag, Some(op.0), sub.map(|s| s.0), ev);
    }

    // ------------------------------------------------------------------
    // Northbound API (§5)
    // ------------------------------------------------------------------

    /// The one entry body of the simple ops: allocate the op, validate
    /// the target, record the op, send the single `request` under a
    /// fresh sub-op id. Idempotent kinds (config reads, stats) also arm
    /// the retry schedule; the resent message reuses the sub-op id, so
    /// a duplicate reply lands on an op already [`Phase::Closed`] and is
    /// ignored. Non-idempotent kinds are never retried.
    fn start_simple(
        &mut self,
        kind: OpKind,
        mb: MbId,
        request: impl FnOnce(OpId) -> Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[mb]) {
            self.fail_fast(op, kind, mb, mb, e, now, out);
            return op;
        }
        let mut st = OpState::new(kind, mb, mb, Phase::Running, now, &self.config);
        self.span(now, op, None, SpanEvent::Issued { kind: kind.api_name() });
        let sub = self.alloc_sub(op, SubRole::Simple);
        let msg = request(sub);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: msg.kind_name() });
        if matches!(kind, OpKind::ReadConfig | OpKind::Stats) {
            let backoff = self.config.retry_backoff;
            st.retry = Some(RetryState {
                request: msg.clone(),
                next_at: now.after(backoff),
                backoff,
                left: self.config.max_retries,
            });
        }
        self.ops.insert(op, st);
        out.push(Action::ToMb(mb, msg));
        op
    }

    /// `readConfig(SrcMB, HierarchicalKey)`.
    pub fn read_config(
        &mut self,
        src: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.start_simple(OpKind::ReadConfig, src, |op| Message::GetConfig { op, key }, now, out)
    }

    /// `writeConfig(DstMB, HierarchicalKey, values)`.
    pub fn write_config(
        &mut self,
        dst: MbId,
        key: HierarchicalKey,
        values: Vec<ConfigValue>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let request = |op| Message::SetConfig { op, key, values };
        self.start_simple(OpKind::WriteConfig, dst, request, now, out)
    }

    /// `delConfig` — a composition convenience over the southbound API.
    pub fn del_config(
        &mut self,
        dst: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.start_simple(OpKind::DelConfig, dst, |op| Message::DelConfig { op, key }, now, out)
    }

    /// `stats(SrcMB, HeaderFieldList)`.
    pub fn stats(
        &mut self,
        src: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        self.start_simple(OpKind::Stats, src, |op| Message::GetStats { op, key }, now, out)
    }

    /// Subscribe the application to introspection events from `mb`.
    pub fn enable_events(
        &mut self,
        mb: MbId,
        filter: EventFilter,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let request = |op| Message::EnableEvents { op, filter: filter.clone() };
        let op = self.start_simple(OpKind::EnableEvents, mb, request, now, out);
        if self.phase(op) == Some(Phase::Running) {
            self.subscriptions.insert(mb, filter);
        }
        op
    }

    /// The one entry body of the transfers — `moveInternal(SrcMB, DstMB,
    /// HeaderFieldList)` (Figure 5), `cloneSupport(SrcMB, DstMB)`
    /// (shared supporting state only) and `mergeInternal(SrcMB, DstMB)`
    /// (shared supporting + reporting); the shared-state kinds take the
    /// wildcard `pattern`.
    ///
    /// `deferred` reserves a transfer whose admission the router
    /// deferred ([`crate::router::Admission::Defer`]): the op id and
    /// state are allocated — so the conflict entry registered against
    /// it pins later overlapping admissions — but no southbound traffic
    /// is issued. The op parks as [`ParkReason::CrossShardConflict`] in
    /// [`Phase::Deferred`] until the engine calls
    /// [`ControllerShard::release_transfer`]; the op deadline (running
    /// from *now*) backstops blockers that never close. Endpoint
    /// validation runs the same either way, so a doomed transfer still
    /// fails fast instead of queueing.
    #[allow(clippy::too_many_arguments)]
    pub fn start_transfer(
        &mut self,
        kind: OpKind,
        src: MbId,
        dst: MbId,
        pattern: HeaderFieldList,
        deferred: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        debug_assert!(kind.is_transfer(), "start_transfer on a simple op kind");
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src, dst]) {
            self.fail_fast(op, kind, src, dst, e, now, out);
            return op;
        }
        let start = if deferred { Phase::Deferred } else { Phase::Running };
        let mut st = OpState::new(kind, src, dst, start, now, &self.config);
        st.pattern = pattern;
        self.ops.insert(op, st);
        self.span(now, op, None, SpanEvent::Issued { kind: kind.api_name() });
        if deferred {
            self.span(now, op, None, SpanEvent::Parked { reason: ParkReason::CrossShardConflict });
        } else {
            self.issue_transfer_gets(op, now, out);
        }
        op
    }

    /// Issue the get stream(s) of a transfer op already inserted in the
    /// op table: allocate the sub-ops, record their spans, remember the
    /// requests for resume, and push them to the source. The one place
    /// a transfer's southbound traffic starts — both the direct
    /// admission path and [`ControllerShard::release_transfer`] land
    /// here, so deferred transfers emit the exact same stream.
    fn issue_transfer_gets(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get(&op) else { return };
        let (kind, src, pattern) = (st.kind, st.src, st.pattern);
        for &role in kind.gets() {
            let sub = self.alloc_sub(op, role);
            let msg = role.get_request(sub, pattern);
            self.span(now, op, Some(sub), SpanEvent::Issued { kind: msg.kind_name() });
            if let Some(st) = self.ops.get_mut(&op) {
                st.gets_outstanding += 1;
                st.get_reqs.push((sub, msg.clone()));
            }
            out.push(Action::ToMb(src, msg));
        }
    }

    /// Release a reserved transfer: its cross-shard blockers have all
    /// closed, so it may finally issue its gets. Endpoints are
    /// re-validated — they may have died while the op waited — and a
    /// dead one aborts the op instead of streaming into a down link.
    /// The deadline restarts so the released attempt gets the full
    /// window the direct path would have had.
    pub fn release_transfer(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get(&op) else { return };
        if st.phase != Phase::Deferred {
            return;
        }
        if let Some(e) = self.mb_error(&[st.src, st.dst]) {
            self.abort_op(op, e, now, out);
            return;
        }
        let deadline = now.after(self.config.op_deadline);
        if let Some(st) = self.ops.get_mut(&op) {
            st.set_phase(Phase::Running);
            st.last_activity = now;
            st.deadline = deadline;
        }
        self.span(now, op, None, SpanEvent::Resumed { from_seq: 0 });
        self.issue_transfer_gets(op, now, out);
    }

    /// Where `op` is in its lifecycle: `None` for an id this shard never
    /// issued, [`Phase::Closed`] for one it issued and has retired (ids
    /// are allocated monotonically, so "issued" is arithmetic; a sub-op
    /// id reads the same way).
    pub fn phase(&self, op: OpId) -> Option<Phase> {
        match self.ops.get(&op) {
            Some(st) => Some(st.phase),
            None => {
                let issued = op.0 != 0
                    && op.0 < self.next_op
                    && (self.next_op - op.0).is_multiple_of(self.op_stride);
                issued.then_some(Phase::Closed)
            }
        }
    }

    /// The state of `op`, unretired or still in the tombstone ring.
    fn op_state(&self, op: OpId) -> Option<&OpState> {
        let retired = || self.retired.iter().find(|(id, _)| *id == op).map(|(_, st)| st);
        self.ops.get(&op).or_else(retired)
    }

    /// Retire `op` if it has fully left the lifecycle — [`Phase::Closed`]
    /// with no delete owed: it leaves the op table, its remaining sub-op
    /// ids stop routing, and a transfer that issued gets moves to the
    /// tombstone ring (evicting the oldest). Called wherever the last of
    /// those two conditions can become true: on close, and when an owed
    /// delete is acked or given up on.
    fn retire_if_done(&mut self, op: OpId) {
        let closed = self.ops.get(&op).is_some_and(|st| !st.phase.open());
        if !closed || self.pending_deletes.iter().any(|d| d.op == op) {
            return;
        }
        let st = self.ops.remove(&op).expect("checked above");
        self.sub_ops.retain(|_, (parent, _)| *parent != op);
        if st.get_reqs.is_empty() {
            return;
        }
        if self.retired.len() == RETIRED_RING {
            self.retired.pop_front();
        }
        self.retired.push_back((op, st));
    }

    /// Explicitly finish a move/clone/merge transaction now: send the
    /// EndSync (and, for moves, the deletes) without waiting for the
    /// quiescence timer. Control applications use this when *they* know
    /// the routing transition is complete — e.g. closing an RE clone's
    /// sync window at the instant the encoder switches caches (§6.1
    /// step 5), where event quiescence would never occur because shared
    /// state is updated by every packet.
    pub fn end_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        // The source tagged its sync marks with the get sub-ops;
        // quiesce_op closes each of them (and deletes moved state).
        self.quiesce_op(op, now, out);
    }

    // ------------------------------------------------------------------
    // Southbound message handling
    // ------------------------------------------------------------------

    /// Process one message arriving from middlebox `from`.
    pub fn handle_mb_message(
        &mut self,
        from: MbId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        // A coalesced frame counts as its contents: unpack before the
        // per-message counter so embeddings that batch replies (TCP
        // serve loops, the simulator's MB nodes) keep the same
        // messages-brokered accounting as unbatched ones.
        if matches!(msg, Message::Batch { .. }) {
            msg.for_each_unbatched(|m| self.handle_mb_message(from, m, now, out));
            return;
        }
        self.messages_handled += 1;
        match msg {
            Message::Chunk { op, chunk } => self.stream_run(op, chunk, Vec::new(), now, out),
            Message::ChunkRun { op, chunk, rest } => self.stream_run(op, chunk, rest, now, out),
            Message::GetAck { op: sub, count } => {
                let Some(&(parent, SubRole::Get(class))) = self.sub_ops.get(&sub) else { return };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if !st.phase.live() || st.done_gets.contains(&sub) {
                    return;
                }
                st.last_activity = now;
                // The ack announces how many chunks the source streamed.
                // The get only closes once that many distinct chunks have
                // arrived — a dropped chunk leaves it open for resume
                // instead of silently losing state.
                st.get_expected.insert(sub, count);
                self.maybe_finish_get(parent, sub, class, now, out);
            }
            Message::SharedChunk { op: sub, chunk } => {
                let Some(&(parent, SubRole::GetShared(class))) = self.sub_ops.get(&sub) else {
                    return;
                };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if !st.phase.live() {
                    return;
                }
                // Shared puts MERGE at the destination — not idempotent —
                // so a duplicated SharedChunk must not produce a second
                // put. The get sub id doubles as the dedup key: a shared
                // get yields exactly one chunk.
                if !st.done_gets.insert(sub) {
                    return;
                }
                st.gets_outstanding = st.gets_outstanding.saturating_sub(1);
                st.puts_outstanding += 1;
                st.chunks += 1;
                st.last_activity = now;
                let seq = st.next_chunk_seq;
                st.next_chunk_seq += 1;
                let put_sub = self.alloc_sub(parent, SubRole::PutShared { seq });
                let m = class.put_shared(put_sub, chunk);
                self.span(now, parent, Some(put_sub), SpanEvent::Issued { kind: m.kind_name() });
                if let Some(st) = self.ops.get_mut(&parent) {
                    st.shared_puts.push(put_sub);
                }
                self.enqueue_put(parent, seq, m, now, out);
            }
            Message::ChunkNeed { op: sub, hash } => {
                // Destination-side cache miss: stream the parked body.
                // The ref's window slot stays occupied — the exchange
                // closes with the same PutAck either way.
                let Some(&(parent, SubRole::Put { class, seq })) = self.sub_ops.get(&sub) else {
                    return;
                };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if !st.phase.live() {
                    return;
                }
                st.last_activity = now;
                let Some((chunk, rest, stored_hash)) = st.ref_bodies.get(&seq) else { return };
                if *stored_hash != hash {
                    // A need for a hash we never referenced under this
                    // sub-op: stale or corrupted; the stall-resume path
                    // will re-send the ref if something was really lost.
                    return;
                }
                if st.needed.insert(seq) {
                    self.cache_misses += 1;
                }
                // A duplicated need re-elicits the body (the first may
                // have been dropped); the destination's store and the
                // ack dedup make the re-send harmless.
                self.bodies_sent += 1;
                let m = Message::ChunkBody {
                    op: sub,
                    class: class.wire(),
                    key: chunk.key,
                    hash,
                    data: chunk.data.clone(),
                    rest: rest.clone(),
                };
                out.push(Action::ToMb(st.dst, m));
            }
            // The run's keys come from the ledger, not the ack: a
            // destination acks a run once, naming its first key.
            Message::PutAck { op: sub, .. } => {
                let Some(&(parent, SubRole::Put { seq, .. } | SubRole::PutShared { seq })) =
                    self.sub_ops.get(&sub)
                else {
                    return;
                };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                // A late or duplicated ack for an op that already reached
                // an outcome (completed, quiesced, or aborted) must not
                // resurrect ledger state or refill the window.
                if !st.phase.live() {
                    return;
                }
                // Dedup by (op, chunk_seq): a duplicated PutAck — fault
                // injection, or a resumed put racing its original ack —
                // must not double-decrement the outstanding-put count.
                if !st.mark_acked(seq) {
                    return;
                }
                // The put's exchange is over: whatever else still names
                // its sub-op — a duplicated ack or need, a rejection of
                // a re-sent copy — finds nothing to route to and is
                // dropped, as the dedup above would drop it.
                self.sub_ops.remove(&sub);
                let put = st.unacked_puts.remove(&seq);
                if let Some((chunk, rest, _)) = st.ref_bodies.remove(&seq) {
                    if st.needed.remove(&seq) {
                        // The body streamed; nothing was saved.
                    } else {
                        // Reference-only delivery: the savings are the
                        // put we did not send, minus the ref we did.
                        // (Message construction here is cheap — the
                        // records' Bytes are refcounted.)
                        self.cache_hits += 1;
                        let ref_len = put.as_ref().map_or(0, wire::encoded_len);
                        let body = Class::Support.put_perflow(sub, chunk, rest);
                        self.bytes_saved += wire::encoded_len(&body).saturating_sub(ref_len) as u64;
                    }
                }
                let acked = SpanEvent::ChunkAcked { seq };
                self.obs.record(now.0, self.obs_tag, Some(parent.0), Some(sub.0), acked);
                st.puts_outstanding = st.puts_outstanding.saturating_sub(1);
                st.last_activity = now;
                if let Some(put) = &put {
                    // Every key of the run is acked at once; one pass
                    // over `buffered` releases, in arrival order, the
                    // events any of them unblocks, and the rest stay
                    // where they are.
                    for k in put.run_keys() {
                        st.pending_keys.remove(k);
                    }
                    let dst = st.dst;
                    let unblocked =
                        |ev: &mut BufferedEvent| put.run_keys().any(|k| k.matches_bidi(&ev.key));
                    for ev in st.buffered.extract_if(.., unblocked) {
                        st.events_forwarded += 1;
                        out.push(Action::ToMb(
                            dst,
                            Message::ReprocessPacket { op: parent, key: ev.key, packet: ev.packet },
                        ));
                    }
                }
                self.refill_window(parent, now, out);
                self.maybe_complete(parent, now, out);
            }
            Message::OpAck { op: sub } => {
                let Some(&(parent, role)) = self.sub_ops.get(&sub) else { return };
                match role {
                    // A shared get that found no state: nothing to put.
                    SubRole::GetShared(_) => {
                        if let Some(st) = self.ops.get_mut(&parent) {
                            // Same dedup key as SharedChunk: the stream
                            // closes exactly once even if the empty-ack
                            // is duplicated or re-elicited by a resume.
                            if !st.phase.live() || !st.done_gets.insert(sub) {
                                return;
                            }
                            st.gets_outstanding = st.gets_outstanding.saturating_sub(1);
                            st.last_activity = now;
                        }
                        self.maybe_complete(parent, now, out);
                    }
                    SubRole::Simple => {
                        self.finish_simple(parent, sub, Completion::Ack { op: parent }, now, out);
                    }
                    // Quiescence/abort deletes: nothing to report
                    // northbound.
                    SubRole::Delete => self.close_delete(sub, now),
                    _ => {}
                }
            }
            // Confirmation of a shared-state rollback. The aborted op
            // already reported its failure, so there is nothing left to
            // notify.
            Message::DeleteAck { op: sub, restored: _ } => self.close_delete(sub, now),
            Message::ConfigValues { op: sub, pairs } => {
                let Some(&(parent, SubRole::Simple)) = self.sub_ops.get(&sub) else { return };
                self.finish_simple(parent, sub, Completion::Config { op: parent, pairs }, now, out);
            }
            Message::Stats { op: sub, stats } => {
                let Some(&(parent, SubRole::Simple)) = self.sub_ops.get(&sub) else { return };
                self.finish_simple(parent, sub, Completion::Stats { op: parent, stats }, now, out);
            }
            Message::EventMsg { event } => match event {
                Event::Reprocess { op: sub, key, packet } => {
                    // The MB tags events with the *get* sub-op id; events
                    // raised under the parent id directly (e.g. forwarded
                    // after completion) name the op. A retired op answers
                    // from its tombstone, by either id.
                    let parent = self.sub_ops.get(&sub).map_or(sub, |&(parent, _)| parent);
                    let (parent, st) = match self.ops.get_mut(&parent) {
                        Some(st) => (parent, st),
                        None => {
                            let tagged = |(op, st): &&mut (OpId, OpState)| {
                                *op == sub || st.get_reqs.iter().any(|(get, _)| *get == sub)
                            };
                            let Some((op, st)) = self.retired.iter_mut().find(tagged) else {
                                return;
                            };
                            (*op, st)
                        }
                    };
                    st.last_activity = now;
                    let dst = st.dst;
                    // Buffer until the destination has ACKed the put for
                    // the state this event applies to (Fig 5). Forwarding
                    // the event *before* the put would let the put
                    // overwrite the replayed update at the destination —
                    // the §4.2.1 ordering violation. So an event is held
                    // while (a) its chunk's put is in flight, or (b) the
                    // get stream is still open and its chunk has not been
                    // streamed yet. Past (a), a streamed key's put has
                    // been ACKed, so no set of acked keys is kept.
                    let get_open = st.gets_outstanding > 0;
                    if self.config.buffer_events
                        && (st.pending(&key) || (get_open && !st.streamed(&key)))
                    {
                        st.buffered.push(BufferedEvent { key, packet });
                        self.events_buffered_peak =
                            self.events_buffered_peak.max(st.buffered.len());
                    } else {
                        st.events_forwarded += 1;
                        out.push(Action::ToMb(
                            dst,
                            Message::ReprocessPacket { op: parent, key, packet },
                        ));
                    }
                }
                Event::Introspection { code, key, values } => {
                    let pass = self
                        .subscriptions
                        .get(&from)
                        .map(|f| f.accepts(code, &key))
                        .unwrap_or(false);
                    if pass {
                        out.push(Action::Notify(Completion::MbEvent {
                            mb: from,
                            code,
                            key,
                            values,
                        }));
                    }
                }
            },
            Message::ErrorMsg { op: sub, error } => {
                // A southbound rejection aborts the whole operation:
                // for transfers this also rolls back partially-put
                // destination state and closes the sync window, so the
                // op releases its bookkeeping instead of lingering open.
                // A rejected delete also closes its ledger entry —
                // the MB has spoken; re-sending cannot change the
                // answer.
                self.close_delete(sub, now);
                let Some(&(parent, _)) = self.sub_ops.get(&sub) else { return };
                self.abort_op(parent, error, now, out);
            }
            _ => {
                // Controller never receives southbound requests.
            }
        }
    }

    /// The embedding observed `mb` crash or become unreachable. Every
    /// in-flight operation touching it is aborted with
    /// [`Error::MbUnreachable`] — unless it is a transfer with resume
    /// budget left, which is *parked* instead and resumed from its last
    /// acked chunk when the endpoint reattaches. Subsequent northbound
    /// calls naming `mb` fail fast until
    /// [`ControllerShard::mark_reachable`]. Completed transfers awaiting
    /// quiescence are finalized instead of aborted — their state already
    /// moved and the application already saw the completion; recovering
    /// from a post-completion crash is the application's job (see
    /// `apps::failover`).
    pub fn mark_unreachable(&mut self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        if !self.unreachable.insert(mb) {
            return;
        }
        // Park owed deletes to this MB: no point re-sending into a
        // dead connection, and reattach re-sends them anyway.
        for r in self.pending_deletes.iter_mut().filter(|r| r.mb == mb) {
            r.due = None;
        }
        for op in self.ops_where(|st| st.phase.open() && (st.src == mb || st.dst == mb)) {
            let Some(st) = self.ops.get_mut(&op) else { continue };
            match st.phase {
                // Finalize: close the sync window and (moves) delete at
                // the source, if the source is still up.
                Phase::Completed => self.quiesce_op(op, now, out),
                // Park: the transfer resumes when the endpoint returns.
                // The op deadline still backstops an MB that never does.
                Phase::Running | Phase::Suspended
                    if st.kind.is_transfer() && st.resumes_left > 0 =>
                {
                    if st.phase == Phase::Running {
                        st.set_phase(Phase::Suspended);
                    }
                    let reason = ParkReason::MbUnreachable { mb: mb.0 };
                    self.span(now, op, None, SpanEvent::Parked { reason });
                }
                // (Includes a still-deferred transfer: it has sent
                // nothing, so the abort is a pure notify, and the
                // release sweep will drop it as closed.)
                _ => self.abort_op(op, Error::MbUnreachable(mb), now, out),
            }
        }
    }

    /// Clear the unreachable mark (the MB restarted and re-attached),
    /// send any state deletes that were deferred while it was down, and
    /// resume transfers parked on its account.
    pub fn mark_reachable(&mut self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        self.unreachable.remove(&mb);
        let backoff = self.config.retry_backoff;
        for r in self.pending_deletes.iter_mut().filter(|r| r.mb == mb) {
            r.due = Some(now.after(backoff));
            out.push(Action::ToMb(r.mb, r.msg.clone()));
        }
        for op in self.ops_where(|st| st.phase == Phase::Suspended) {
            // resume_op re-checks reachability: an op parked on a
            // *different* still-down endpoint stays parked.
            self.resume_op(op, now, out);
        }
    }

    /// Whether the embedding has marked `mb` unreachable.
    pub fn is_unreachable(&self, mb: MbId) -> bool {
        self.unreachable.contains(&mb)
    }

    /// Abort an in-flight operation: drop buffered reprocess events
    /// (their count is reported in the failure), roll back partially-put
    /// destination state — per-flow deletes for moves, a compensating
    /// `DeleteState` for the shared puts of a clone/merge — close the
    /// source's sync window, release the op's bookkeeping, and notify
    /// the application with the typed `error`.
    fn abort_op(&mut self, op: OpId, error: Error, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&op) else { return };
        if !st.phase.live() {
            return;
        }
        let dropped_events = st.buffered.len();
        st.buffered = Vec::new();
        st.pending_keys.clear();
        st.gets_outstanding = 0;
        st.puts_outstanding = 0;
        st.close();
        let (kind, dst, pattern) = (st.kind, st.dst, st.pattern);
        let had_chunks = st.chunks > 0;
        let shared_puts = std::mem::take(&mut st.shared_puts);
        // Terminal event first: the compensating deletes below are
        // consequences of the abort, and the invariant monitor insists
        // on that order (deletes only after a terminal event).
        self.obs.record_with(now.0, self.obs_tag, Some(op.0), None, || SpanEvent::Aborted {
            error: error.to_string(),
        });
        if kind == OpKind::Move && had_chunks {
            // Before the move the destination held nothing under the
            // op's pattern (the premise of moveInternal), so deleting by
            // pattern removes exactly the chunks this op streamed in.
            self.delete_perflow(op, dst, pattern, now, out);
        }
        if !shared_puts.is_empty() {
            // Compensating rollback (§4.1.3): undo the shared-state
            // merges that already landed, so the abort leaves no
            // orphaned shared state at the destination. The delete is
            // recorded in the ledger until acked: re-sent with backoff
            // if lost, and — since an MB's logic tables (and thus the
            // orphaned state) survive its crash — deferred to reattach
            // when the destination is down right now.
            let rollback = |op| Message::DeleteState { op, puts: shared_puts };
            self.track_delete(op, dst, rollback, now, out);
        }
        self.end_sync(op, out);
        out.push(Action::Notify(Completion::Failed { op, error, dropped_events }));
        self.retire_if_done(op);
    }

    /// Finish a transfer: close it, delete moved per-flow state at the
    /// source (moves only, via the acked ledger — a lost delete must
    /// not strand the moved state at both ends), and close the sync
    /// window.
    fn quiesce_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&op) else { return };
        if !st.phase.open() {
            return;
        }
        st.close();
        let (kind, src, pattern) = (st.kind, st.src, st.pattern);
        if kind == OpKind::Move {
            self.delete_perflow(op, src, pattern, now, out);
        }
        self.end_sync(op, out);
        self.retire_if_done(op);
    }

    /// Close the sync window of `op` at its source: one `EndSync` per
    /// get sub-op (once per op — both callers have just closed it).
    /// Fire-and-forget, and skipped while the source is unreachable:
    /// its loss only leaves a sync mark in the source's tracker, never
    /// state.
    fn end_sync(&self, op: OpId, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get(&op) else { return };
        if !self.unreachable.contains(&st.src) {
            for &(sub, _) in &st.get_reqs {
                out.push(Action::ToMb(st.src, Message::EndSync { op: sub }));
            }
        }
    }

    /// Delete both per-flow classes under `pattern` at `mb`, each as its
    /// own acked-ledger entry.
    fn delete_perflow(
        &mut self,
        op: OpId,
        mb: MbId,
        pattern: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        for class in [Class::Support, Class::Report] {
            self.track_delete(op, mb, |sub| class.del_perflow(sub, pattern), now, out);
        }
    }

    /// Record a delete (built under a fresh sub-op id) in the acked
    /// re-delivery ledger and send it now, unless `mb` is unreachable —
    /// then the entry parks (due `None`) and `mark_reachable` re-sends
    /// it on reattach. The `DeleteIssued` span marks the ledger-entry
    /// open; the invariant monitor checks it only fires after `op`'s
    /// terminal event.
    fn track_delete(
        &mut self,
        op: OpId,
        mb: MbId,
        msg: impl FnOnce(OpId) -> Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let sub = self.alloc_sub(op, SubRole::Delete);
        let msg = msg(sub);
        let down = self.unreachable.contains(&mb);
        if !down {
            out.push(Action::ToMb(mb, msg.clone()));
        }
        self.pending_deletes.push(PendingDelete {
            op,
            mb,
            sub,
            msg,
            due: if down { None } else { Some(SimTime::ZERO) },
            left: self.config.max_retries,
        });
        self.span(now, op, Some(sub), SpanEvent::DeleteIssued { mb: mb.0 });
    }

    /// The ack of a tracked delete (`OpAck`, `DeleteAck`, or a
    /// rejection) closes its ledger entry and stops the re-send chain.
    /// The `DeleteAcked` span fires only when an entry actually closed —
    /// duplicated acks must not inflate the monitor's delete
    /// accounting. The op's last owed delete retires it.
    fn close_delete(&mut self, sub: OpId, now: SimTime) {
        let Some(i) = self.pending_deletes.iter().position(|r| r.sub == sub) else { return };
        let op = self.pending_deletes.remove(i).op;
        self.span(now, op, Some(sub), SpanEvent::DeleteAcked);
        self.retire_if_done(op);
    }

    /// The reply to a simple op's request: `Running → Closed`, one
    /// `Completed` span, one completion. A reply that finds the op
    /// already closed — duplicated by the fault plan, elicited twice by
    /// a retry, or late after an abort — is ignored.
    fn finish_simple(
        &mut self,
        parent: OpId,
        sub: OpId,
        done: Completion,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if st.phase != Phase::Running {
            return;
        }
        st.close();
        self.span(now, parent, Some(sub), SpanEvent::Completed);
        out.push(Action::Notify(done));
        self.retire_if_done(parent);
    }

    /// Close get sub-op `sub` of `parent` once its `GetAck` has arrived
    /// *and* every announced chunk has been seen. Called from both the
    /// GetAck and Chunk handlers, so a chunk delayed past its ack still
    /// completes the stream when it finally lands.
    fn maybe_finish_get(
        &mut self,
        parent: OpId,
        sub: OpId,
        class: Class,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if !st.phase.live() || st.done_gets.contains(&sub) {
            return;
        }
        let Some(&expected) = st.get_expected.get(&sub) else { return };
        if st.streamed[class as usize].len() < expected as usize {
            return;
        }
        st.done_gets.insert(sub);
        st.gets_outstanding = st.gets_outstanding.saturating_sub(1);
        self.maybe_complete(parent, now, out);
    }

    /// One run of a per-flow get's records arriving from the source — a
    /// lone `Chunk` is a run of one, and both take this one path.
    /// Records whose key the get has streamed before are dropped: a
    /// duplicated (fault-injected) or re-streamed (resume) run is
    /// filtered down to its new keys, since the puts of the others —
    /// same sub ids — are already in flight or acked, and a second one
    /// would double-count. What is left becomes one put: one sub-op,
    /// one window slot, one content hash and one reference exchange,
    /// while every key of it enters `pending_keys`, so events for any of
    /// them wait for the run's ack.
    fn stream_run(
        &mut self,
        sub: OpId,
        chunk: StateChunk,
        mut rest: Vec<StateChunk>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some(&(parent, SubRole::Get(class))) = self.sub_ops.get(&sub) else { return };
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if !st.phase.live() {
            return;
        }
        st.last_activity = now;
        let streamed = &mut st.streamed[class as usize];
        let first_new = streamed.insert(chunk.key);
        rest.retain(|c| streamed.insert(c.key));
        let chunk = match (first_new, rest.is_empty()) {
            (true, _) => chunk,
            (false, false) => rest.remove(0),
            (false, true) => {
                self.maybe_finish_get(parent, sub, class, now, out);
                return;
            }
        };
        st.chunks += 1 + rest.len();
        for key in std::iter::once(&chunk.key).chain(rest.iter().map(|c| &c.key)) {
            st.exact_keys &= key.as_exact().is_some();
            st.pending_keys.insert(*key);
        }
        st.puts_outstanding += 1;
        let seq = st.next_chunk_seq;
        st.next_chunk_seq += 1;
        let put_sub = self.alloc_sub(parent, SubRole::Put { class, seq });
        let m = if self.config.content_cache {
            // Negotiate-then-reference: put a (keys, hash) manifest
            // entry in the window instead of the records. They are
            // parked in `ref_bodies` until the ack — streamed only if
            // the destination reports a miss.
            let hash = openmb_store::content_hash(&wire::run_content(&chunk.data, &rest));
            let keys = rest.iter().map(|c| c.key).collect();
            let m = Message::ChunkRef {
                op: put_sub,
                class: class.wire(),
                key: chunk.key,
                hash,
                rest: keys,
            };
            if let Some(st) = self.ops.get_mut(&parent) {
                st.ref_bodies.insert(seq, (chunk, rest, hash));
            }
            m
        } else {
            class.put_perflow(put_sub, chunk, rest)
        };
        self.span(now, parent, Some(put_sub), SpanEvent::Issued { kind: m.kind_name() });
        self.enqueue_put(parent, seq, m, now, out);
        self.maybe_finish_get(parent, sub, class, now, out);
    }

    /// Admit put `seq` of `op` into the transfer pipeline: it joins the
    /// queue and `refill_window` issues it at once while the in-flight
    /// ledger has a free window slot (or windowing is off). A running
    /// op's queue is non-empty only while its window is full (every ack
    /// refills), so a put never overtakes an earlier one. Suspended ops
    /// only queue — their in-flight set is re-sent wholesale by
    /// `resume_op`.
    fn enqueue_put(&mut self, op: OpId, seq: u64, m: Message, now: SimTime, out: &mut Vec<Action>) {
        if let Some(st) = self.ops.get_mut(&op) {
            st.queued_puts.push_back((seq, m));
        }
        self.refill_window(op, now, out);
    }

    /// Promote queued puts into freed window slots and send them. Called
    /// on every new put, every ack and at the end of a resume; a no-op
    /// for terminal or suspended ops so a late ack cannot push puts past
    /// an abort. A put gets its `PutAdmitted` only here, so admissions
    /// mirror the ledger exactly (what the I1 window invariant counts).
    fn refill_window(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let window = self.config.transfer_window as usize;
        let Some(st) = self.ops.get_mut(&op) else { return };
        if st.phase != Phase::Running {
            return;
        }
        while !st.queued_puts.is_empty() && (window == 0 || st.unacked_puts.len() < window) {
            let (seq, m) = st.queued_puts.pop_front().expect("checked non-empty");
            st.unacked_puts.insert(seq, m.clone());
            self.in_flight_peak = self.in_flight_peak.max(st.unacked_puts.len());
            out.push(Action::ToMb(st.dst, m));
            let admitted = SpanEvent::PutAdmitted { seq };
            self.obs.record(now.0, self.obs_tag, Some(op.0), None, admitted);
        }
    }

    /// Resume a stalled or parked transfer from its last acked chunk:
    /// re-send every get whose stream has not closed and every put not
    /// yet acked, verbatim (same sub-op ids). The re-issue is
    /// idempotent end-to-end — the source's sync tracker keeps its
    /// marks, the controller's chunk dedup drops re-streamed chunks
    /// whose put is already in flight, and the destination's put-log
    /// re-acks shared puts it already applied without re-merging. The
    /// deadline is extended so the resumed attempt gets a full window.
    /// Returns false (and does nothing) when the op cannot resume: not
    /// in progress, out of resume budget, or an endpoint still down.
    fn resume_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) -> bool {
        let deadline = now.after(self.config.op_deadline);
        let Some(st) = self.ops.get_mut(&op) else { return false };
        if !matches!(st.phase, Phase::Running | Phase::Suspended)
            || st.resumes_left == 0
            || self.unreachable.contains(&st.src)
            || self.unreachable.contains(&st.dst)
        {
            return false;
        }
        st.resumes_left -= 1;
        if st.phase == Phase::Suspended {
            st.set_phase(Phase::Running);
        }
        st.last_activity = now;
        st.deadline = deadline;
        // The window base: the ledger's first key — O(log W), not a
        // min-scan over every unacked put.
        let from_seq = st
            .unacked_puts
            .keys()
            .next()
            .copied()
            .or_else(|| st.queued_puts.front().map(|(s, _)| *s))
            .unwrap_or(st.next_chunk_seq);
        self.obs.record(now.0, self.obs_tag, Some(op.0), None, SpanEvent::Resumed { from_seq });
        let open_gets = st.get_reqs.iter().filter(|(sub, _)| !st.done_gets.contains(sub));
        out.extend(open_gets.map(|(_, m)| Action::ToMb(st.src, m.clone())));
        out.extend(st.unacked_puts.values().map(|m| Action::ToMb(st.dst, m.clone())));
        // Chunks that arrived while parked were window-deferred; top the
        // window back up now that the transfer is live again.
        self.refill_window(op, now, out);
        true
    }

    /// Report a transfer complete once every get has closed and every
    /// put is acked. (Simple kinds complete in `finish_simple`.)
    fn maybe_complete(&mut self, parent: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if !st.phase.live() || st.gets_outstanding > 0 || st.puts_outstanding > 0 {
            return;
        }
        let c = match st.kind {
            OpKind::Move => Completion::MoveComplete { op: parent, chunks_moved: st.chunks },
            OpKind::Clone => Completion::CloneComplete { op: parent },
            OpKind::Merge => Completion::MergeComplete { op: parent },
            _ => return,
        };
        st.set_phase(Phase::Completed);
        // Flush events still buffered: every put has been ACKed, so what
        // remains belongs to flows whose state never had a chunk (created
        // during the window) or whose puts completed while they waited.
        let dst = st.dst;
        for ev in std::mem::take(&mut st.buffered) {
            st.events_forwarded += 1;
            out.push(Action::ToMb(
                dst,
                Message::ReprocessPacket { op: parent, key: ev.key, packet: ev.packet },
            ));
        }
        self.span(now, parent, None, SpanEvent::Completed);
        out.push(Action::Notify(c));
    }

    /// Ids of the ops satisfying `pred`, ascending. Every loop over the
    /// op table goes through here: HashMap iteration order is arbitrary
    /// and must never reach the action stream, or replays with the same
    /// fault schedule would stop being byte-identical.
    fn ops_where(&self, pred: impl Fn(&OpState) -> bool) -> Vec<OpId> {
        let mut ids: Vec<OpId> =
            self.ops.iter().filter(|(_, st)| pred(st)).map(|(id, _)| *id).collect();
        ids.sort();
        ids
    }

    /// Periodic maintenance, in deterministic order (op lists are
    /// sorted — HashMap iteration order must never leak into the action
    /// stream):
    ///
    /// 1. **Retries** — resend idempotent simple requests whose backoff
    ///    expired, doubling the backoff each attempt.
    /// 2. **Stall resume** — a transfer with outstanding gets/puts and
    ///    no message activity for `resume_after` lost something in
    ///    flight; re-send the outstanding requests from the last acked
    ///    chunk (if the op has resume budget left).
    /// 3. **Deadlines** — for each op past its deadline and still
    ///    incomplete: resume it if it is a transfer with budget left and
    ///    both endpoints reachable, otherwise abort with
    ///    [`Error::Timeout`].
    /// 4. **Rollback re-delivery** — re-send owed `DeleteState`s whose
    ///    `DeleteAck` has not arrived.
    /// 5. **Quiescence** — for each completed move/clone/merge whose
    ///    event stream has been silent for `quiesce_after`, finish the
    ///    transaction: delete moved per-flow state at the source (moves
    ///    only) and close the sync window.
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<Action>) {
        // 1. Retries.
        let due = |st: &OpState| {
            st.phase == Phase::Running
                && st.retry.as_ref().is_some_and(|r| r.left > 0 && now >= r.next_at)
        };
        for op in self.ops_where(due) {
            let Some(st) = self.ops.get_mut(&op) else { continue };
            let Some(r) = st.retry.as_mut() else { continue };
            r.left -= 1;
            r.backoff = r.backoff.scaled(2);
            r.next_at = now.after(r.backoff);
            if !self.unreachable.contains(&st.src) {
                out.push(Action::ToMb(st.src, r.request.clone()));
            }
        }

        // 2. Stall resume.
        let resume_after = self.config.resume_after;
        let stalled = |st: &OpState| {
            st.phase == Phase::Running
                && st.resumes_left > 0
                && st.kind.is_transfer()
                && (st.gets_outstanding > 0 || st.puts_outstanding > 0)
                && now.since(st.last_activity) >= resume_after
        };
        for op in self.ops_where(stalled) {
            self.resume_op(op, now, out);
        }

        // 3. Deadlines.
        for op in self.ops_where(|st| st.phase.live() && now >= st.deadline) {
            // Only a running transfer may resume instead: one still
            // deferred at its deadline has blockers that never closed,
            // and a suspended one an endpoint that never returned.
            let st = &self.ops[&op];
            let running_transfer = st.phase == Phase::Running && st.kind.is_transfer();
            if !(running_transfer && self.resume_op(op, now, out)) {
                self.abort_op(op, Error::Timeout { op }, now, out);
            }
        }

        // 4. Delete re-delivery: an owed delete whose ack has not
        // arrived is re-sent with constant backoff (idempotent at the
        // MB); entries park while their MB is unreachable and are
        // dropped once the budget is spent, so a destination that never
        // acks cannot keep the maintenance timer alive forever.
        let backoff = self.config.retry_backoff;
        let mut resend: Vec<(MbId, OpId, OpId, Message)> = Vec::new();
        let mut given_up = Vec::new();
        self.pending_deletes.retain_mut(|r| {
            let Some(due) = r.due else { return true };
            if now < due {
                return true;
            }
            if r.left == 0 {
                given_up.push(r.op);
                return false;
            }
            r.left -= 1;
            r.due = Some(now.after(backoff));
            resend.push((r.mb, r.op, r.sub, r.msg.clone()));
            true
        });
        for (mb, op, sub, msg) in resend {
            if !self.unreachable.contains(&mb) {
                self.span(now, op, Some(sub), SpanEvent::DeleteRetried);
                out.push(Action::ToMb(mb, msg));
            }
        }
        for op in given_up {
            self.retire_if_done(op);
        }

        // 5. Quiescence.
        let quiesce = self.config.quiesce_after;
        let ready = |st: &OpState| {
            st.phase == Phase::Completed
                && st.buffered.is_empty()
                && now.since(st.last_activity) >= quiesce
        };
        for op in self.ops_where(ready) {
            self.quiesce_op(op, now, out);
        }
    }

    /// Number of operations not yet closed, plus deletes still being
    /// actively re-delivered (testing, and the embedding's "keep the
    /// maintenance timer armed" signal). Deletes parked on an
    /// unreachable MB are excluded — they cannot progress until the
    /// reattach event, which restarts the timer itself.
    pub fn open_ops(&self) -> usize {
        self.ops.values().filter(|st| st.phase.open()).count()
            + self.pending_deletes.iter().filter(|r| r.due.is_some()).count()
    }

    /// Number of ops parked on cross-shard conflicts, awaiting release
    /// (health snapshots).
    pub fn deferred_ops(&self) -> usize {
        self.ops.values().filter(|st| st.phase == Phase::Deferred).count()
    }

    /// Has this operation fully left the shard — [`Phase::Closed`]
    /// (quiesced, aborted and released, or an answered simple request)
    /// with no delete still owed on its behalf? The shard router prunes
    /// its conflict table on this, so a flowspace stays pinned to its
    /// shard for as long as the op can still emit southbound traffic
    /// (including quiescence deletes and parked rollbacks). That is
    /// exactly the condition under which an op is retired, so the
    /// answer is "not in the op table" (true for ids never issued).
    pub fn op_closed(&self, op: OpId) -> bool {
        !self.ops.contains_key(&op)
    }

    /// Events forwarded under an operation (experiments; 0 once its
    /// tombstone has left the ring).
    pub fn events_forwarded(&self, op: OpId) -> u64 {
        self.op_state(op).map_or(0, |s| s.events_forwarded)
    }

    /// Total chunks transferred under an operation (experiments; 0 once
    /// its tombstone has left the ring).
    pub fn chunks_moved(&self, op: OpId) -> usize {
        self.op_state(op).map_or(0, |s| s.chunks)
    }

    /// Entry counts of this shard's tables (`conflicts` is the
    /// engine's; 0 here).
    pub(crate) fn table_sizes(&self) -> TableSizes {
        TableSizes {
            ops: self.ops.len(),
            sub_ops: self.sub_ops.len(),
            tombstones: self.retired.len(),
            pending_deletes: self.pending_deletes.len(),
            conflicts: 0,
        }
    }

    /// One consistent snapshot of the transfer ledger for `op` plus the
    /// core-wide peak and cache counters. Per-op fields are zero for
    /// unknown (or already cleaned-up) ops; the core-wide fields are
    /// populated regardless, so callers that only want those may pass
    /// any op id.
    pub fn transfer_ledger_stats(&self, op: OpId) -> TransferLedgerStats {
        self.ledger_stats(self.ops.get(&op))
    }

    /// Transfer-ledger occupancy summed over *every* op the shard still
    /// tracks (health snapshots want "how loaded is this shard now",
    /// not one op's view).
    pub fn aggregate_ledger_stats(&self) -> TransferLedgerStats {
        self.ledger_stats(self.ops.values())
    }

    fn ledger_stats<'a>(&self, ops: impl IntoIterator<Item = &'a OpState>) -> TransferLedgerStats {
        let mut agg = TransferLedgerStats {
            in_flight_peak: self.in_flight_peak,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            bodies_sent: self.bodies_sent,
            bytes_saved: self.bytes_saved,
            ..TransferLedgerStats::default()
        };
        for s in ops {
            agg.puts_in_flight += s.unacked_puts.len();
            agg.puts_queued += s.queued_puts.len();
            agg.ack_set_size += s.acked_above.len();
            agg.bodies_in_flight += s.needed.len();
        }
        agg
    }
}

/// Whether `has` holds for the exact key of `flow` or of its reverse:
/// the only keys that can match `flow` either way while every key of an
/// op names one exact flow.
fn either_way(flow: &FlowKey, has: impl Fn(&HeaderFieldList) -> bool) -> bool {
    has(&HeaderFieldList::exact(*flow)) || has(&HeaderFieldList::exact(flow.reversed()))
}

impl OpState {
    /// Fresh per-op state entering the lifecycle at `phase`, with the
    /// deadline and resume budget stamped from config.
    fn new(
        kind: OpKind,
        src: MbId,
        dst: MbId,
        phase: Phase,
        now: SimTime,
        config: &ControllerConfig,
    ) -> Self {
        OpState {
            kind,
            phase,
            src,
            dst,
            pattern: HeaderFieldList::any(),
            gets_outstanding: 0,
            puts_outstanding: 0,
            pending_keys: HashSet::new(),
            exact_keys: true,
            buffered: Vec::new(),
            chunks: 0,
            last_activity: now,
            deadline: now.after(config.op_deadline),
            retry: None,
            events_forwarded: 0,
            next_chunk_seq: 0,
            ack_watermark: 0,
            acked_above: BTreeSet::new(),
            done_gets: IdSet::default(),
            streamed: [HashSet::new(), HashSet::new()],
            get_expected: IdMap::default(),
            get_reqs: Vec::new(),
            unacked_puts: BTreeMap::new(),
            queued_puts: VecDeque::new(),
            shared_puts: Vec::new(),
            resumes_left: config.max_transfer_resumes,
            ref_bodies: IdMap::default(),
            needed: IdSet::default(),
        }
    }

    /// The one lifecycle write: every transition is checked against
    /// [`Phase::can_become`], so an illegal edge is a debug-build panic
    /// at the line that took it rather than a flag combination some
    /// later guard misreads.
    fn set_phase(&mut self, to: Phase) {
        debug_assert!(self.phase.can_become(to), "illegal op phase edge {:?} → {to:?}", self.phase);
        self.phase = to;
    }

    /// Enter [`Phase::Closed`] and free what no handler reads past it.
    /// Every chunk, ack, need and get handler returns on a closed op, so
    /// the transfer pipeline (a late ack must find nothing to refill the
    /// window from), the ack set and the retry schedule are dead. The
    /// key sets are too unless a get or put was still outstanding —
    /// `end_op` before completion — because a late reprocess event is
    /// still held or forwarded by them ([`OpState::pending`] while a put
    /// is, [`OpState::streamed`] while a get is);
    /// otherwise that predicate is false for every key.
    fn close(&mut self) {
        self.set_phase(Phase::Closed);
        self.retry = None;
        self.unacked_puts = BTreeMap::new();
        self.queued_puts = VecDeque::new();
        self.ref_bodies = IdMap::default();
        self.needed = IdSet::default();
        self.acked_above = BTreeSet::new();
        self.done_gets = IdSet::default();
        self.get_expected = IdMap::default();
        if self.gets_outstanding == 0 {
            self.streamed = Default::default();
            if self.pending_keys.is_empty() {
                self.pending_keys = HashSet::new();
            }
        }
    }

    /// Is a put carrying a key that matches `flow`, in either direction,
    /// in flight?
    fn pending(&self, flow: &FlowKey) -> bool {
        if self.exact_keys {
            either_way(flow, |k| self.pending_keys.contains(k))
        } else {
            self.pending_keys.iter().any(|k| k.matches_bidi(flow))
        }
    }

    /// Has a get of this op streamed a key that matches `flow`, in
    /// either direction?
    fn streamed(&self, flow: &FlowKey) -> bool {
        let [support, report] = &self.streamed;
        if self.exact_keys {
            either_way(flow, |k| support.contains(k) || report.contains(k))
        } else {
            support.iter().chain(report).any(|k| k.matches_bidi(flow))
        }
    }

    /// Record `seq` as acked. Returns false on a duplicate. Newly acked
    /// seqs at the watermark advance it, draining contiguous entries
    /// out of the sparse set — per-op ack state stays O(window) instead
    /// of one set entry per chunk forever. An in-order ack, the common
    /// case, never enters the set: the watermark itself is never in it.
    fn mark_acked(&mut self, seq: u64) -> bool {
        if seq != self.ack_watermark {
            return seq > self.ack_watermark && self.acked_above.insert(seq);
        }
        self.ack_watermark += 1;
        while self.acked_above.remove(&self.ack_watermark) {
            self.ack_watermark += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_acked_in_order_out_of_order_and_duplicates() {
        let config = ControllerConfig::default();
        let mut st =
            OpState::new(OpKind::Move, MbId(0), MbId(1), Phase::Running, SimTime::ZERO, &config);
        let state = |st: &OpState| -> (u64, Vec<u64>) {
            (st.ack_watermark, st.acked_above.iter().copied().collect())
        };
        // In order: the watermark moves and the sparse set stays empty.
        assert!(st.mark_acked(0) && st.mark_acked(1));
        assert_eq!(state(&st), (2, Vec::new()));
        // Out of order: 4 and 3 wait above the gap at 2.
        assert!(st.mark_acked(4) && st.mark_acked(3));
        assert_eq!(state(&st), (2, vec![3, 4]));
        // Duplicates of a seq below the watermark and of one above it.
        assert!(!st.mark_acked(1) && !st.mark_acked(4));
        assert_eq!(state(&st), (2, vec![3, 4]));
        // Filling the gap drains everything contiguous above it.
        assert!(st.mark_acked(2));
        assert_eq!(state(&st), (5, Vec::new()));
        assert!(!st.mark_acked(2) && !st.mark_acked(4));
        assert!(st.mark_acked(5));
        assert_eq!(state(&st), (6, Vec::new()));
    }
}
