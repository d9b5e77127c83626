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
//! Keeping the core pure lets the same controller run embedded in the
//! discrete-event simulator (`nodes::ControllerNode`) and over real TCP
//! transports (`tcp`), exactly as the paper's Floodlight module serves
//! both their testbed and their dummy-MB scalability rig.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use openmb_obs::{NodeTag, ParkReason, Recorder, SpanEvent};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::{self, Event, EventFilter, Message};
use openmb_types::{
    ConfigValue, Error, FlowKey, HeaderFieldList, HierarchicalKey, MbId, OpId, Packet, StateStats,
};

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

/// Which southbound exchange a sub-operation id belongs to. Put roles
/// carry the controller-assigned per-op chunk sequence number `seq`, so
/// a duplicated `PutAck` (fault injection, or a re-sent put racing its
/// original ack) is deduplicated by `(op, seq)` instead of double-
/// decrementing the outstanding-put count.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SubRole {
    GetSupport,
    GetReport,
    PutSupport {
        key: HeaderFieldList,
        seq: u64,
    },
    PutReport {
        key: HeaderFieldList,
        seq: u64,
    },
    GetSharedSupport,
    GetSharedReport,
    PutSharedSupport {
        seq: u64,
    },
    PutSharedReport {
        seq: u64,
    },
    DelSupport,
    DelReport,
    /// Shared-state rollback (`DeleteState`) after a clone/merge abort.
    DelShared,
    Simple,
}

/// A reprocess event parked until its chunk's put is ACKed.
#[derive(Debug, Clone)]
struct BufferedEvent {
    key: FlowKey,
    packet: Packet,
}

/// Retry bookkeeping for idempotent simple requests (config reads,
/// stats). The stored request keeps its original sub-op id, so a
/// duplicate reply after a retry lands on an already-completed op and
/// is ignored.
#[derive(Clone)]
struct RetryState {
    target: MbId,
    request: Message,
    next_at: SimTime,
    backoff: SimDuration,
    left: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    ReadConfig,
    WriteConfig,
    DelConfig,
    Stats,
    EnableEvents,
    Move,
    Clone,
    Merge,
}

/// The three transfer-class northbound operations, as a public handle
/// so embeddings can reserve a deferred transfer
/// ([`ControllerShard::reserve_transfer`]) without naming the private
/// [`OpKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    Move,
    Clone,
    Merge,
}

impl TransferKind {
    fn op_kind(self) -> OpKind {
        match self {
            TransferKind::Move => OpKind::Move,
            TransferKind::Clone => OpKind::Clone,
            TransferKind::Merge => OpKind::Merge,
        }
    }

    /// The northbound API name, as spans report it.
    fn api_name(self) -> &'static str {
        match self {
            TransferKind::Move => "moveInternal",
            TransferKind::Clone => "cloneSupport",
            TransferKind::Merge => "mergeInternal",
        }
    }
}

/// Per-operation progress.
#[derive(Clone)]
struct OpState {
    kind: OpKind,
    src: MbId,
    dst: MbId,
    /// For moves: the pattern being moved.
    pattern: HeaderFieldList,
    /// Outstanding get streams (2 for move: support+report; 1-2 for
    /// clone/merge).
    gets_outstanding: u32,
    /// Outstanding puts (sub-op ids).
    puts_outstanding: u32,
    /// Chunk keys whose puts have been ACKed.
    acked_keys: Vec<HeaderFieldList>,
    /// Chunk keys whose puts are in flight (issued or window-queued).
    /// A set, not a list: the ack path removes one exact key per
    /// `PutAck`, and a linear scan there is O(n²) over a transfer.
    pending_keys: HashSet<HeaderFieldList>,
    /// The get sub-operations issued to the source. The source MB tags
    /// its moved/cloned marks (and its reprocess events) with these ids,
    /// so closing the sync window means sending EndSync for each.
    get_subs: Vec<OpId>,
    /// Events waiting for their chunk's put ACK.
    buffered: Vec<BufferedEvent>,
    /// Total chunks transferred.
    chunks: usize,
    /// Completion already reported?
    completed: bool,
    /// Virtual time of the most recent event (or completion), for the
    /// quiescence timer.
    last_activity: SimTime,
    /// Quiescence already executed (del/EndSync sent)?
    quiesced: bool,
    /// Virtual time at which the op is aborted if still incomplete.
    deadline: SimTime,
    /// Retry schedule for idempotent simple requests.
    retry: Option<RetryState>,
    /// Statistics: events forwarded under this op.
    pub events_forwarded: u64,

    // ---- resumable-transfer bookkeeping ----
    /// Next per-op chunk sequence number (tags put sub-roles).
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
    done_gets: HashSet<OpId>,
    /// Chunk identities already streamed (is_report, key): a duplicated
    /// or re-streamed chunk is dropped instead of creating a second put.
    streamed: HashSet<(bool, HeaderFieldList)>,
    /// Distinct chunk keys received per get sub-op, compared against the
    /// `GetAck` count so a dropped chunk leaves the get open for resume.
    get_seen: HashMap<OpId, HashSet<HeaderFieldList>>,
    /// The chunk count each get's `GetAck` announced.
    get_expected: HashMap<OpId, u32>,
    /// The original get requests, re-sent verbatim (same sub ids) on
    /// resume; the source's moved-marks and our chunk dedup make the
    /// re-issue idempotent.
    get_reqs: Vec<(OpId, Message)>,
    /// The in-flight put ledger: puts issued but not yet acked, keyed
    /// by sequence number. A `BTreeMap` so the ack path removes in
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
    /// Parked while an endpoint is unreachable, awaiting resume.
    suspended: bool,
    /// Reserved under a cross-shard conflict deferral: the op id and
    /// state exist (so the router's conflict entry pins later
    /// admissions) but no southbound traffic has been issued yet.
    /// Cleared by [`ControllerShard::release_transfer`].
    deferred: bool,

    // ---- content-addressed transfer bookkeeping ----
    /// Body (and its content hash) of every in-flight `ChunkRef`, by
    /// seq — the source of the `ChunkBody` answering a `ChunkNeed`.
    /// Entries leave on ack or abort, so this holds O(window) chunks,
    /// not the whole transfer.
    ref_bodies: HashMap<u64, (openmb_types::StateChunk, [u8; 32])>,
    /// Seqs whose destination reported a cache miss (`ChunkNeed`): the
    /// bodies currently streaming alongside the reference window. The
    /// ledger counts these separately from the refs in `unacked_puts` —
    /// a body does not occupy a second window slot; its ref's slot is
    /// still open until the `PutAck` lands.
    needed: HashSet<u64>,
}

/// Tunable controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How long after the last reprocess event the controller assumes
    /// the routing change has taken effect (paper: "a fixed amount of
    /// time (e.g., 5 seconds)").
    pub quiesce_after: SimDuration,
    /// Compress state transfers between controller and MBs (§8.3).
    /// Affects the modeled wire size of Chunk/Put messages via the
    /// embedding; the core only records the setting.
    pub compress_transfers: bool,
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
    /// chunks queue and are released as acks open slots, so the
    /// in-flight ledger — and everything resume must rescan — stays
    /// O(window) regardless of transfer size. 0 disables windowing
    /// (fire everything immediately, the pre-window behaviour).
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
            compress_transfers: false,
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

/// The MB controller state machine.
///
/// One owed state delete (see `ControllerShard::pending_deletes`).
#[derive(Debug, Clone)]
struct PendingDelete {
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
    ops: HashMap<OpId, OpState>,
    sub_ops: HashMap<OpId, (OpId, SubRole)>,
    /// Introspection subscription per MB (controller-side record).
    subscriptions: HashMap<MbId, EventFilter>,
    /// MBs the embedding has reported as crashed/unreachable. Every
    /// northbound call naming one fails fast with
    /// [`Error::MbUnreachable`] until `mark_reachable` clears it.
    unreachable: HashSet<MbId>,
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
            ops: HashMap::new(),
            sub_ops: HashMap::new(),
            subscriptions: HashMap::new(),
            unreachable: HashSet::new(),
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

    /// Fresh per-op state with the deadline stamped from config.
    fn new_op_state(&self, kind: OpKind, src: MbId, dst: MbId, now: SimTime) -> OpState {
        let mut st = OpState::new(kind, src, dst, now, now.after(self.config.op_deadline));
        st.resumes_left = self.config.max_transfer_resumes;
        st
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
        let mut st = self.new_op_state(kind, src, dst, now);
        st.completed = true;
        st.quiesced = true;
        self.ops.insert(op, st);
        self.obs.record_with(now.0, self.obs_tag, Some(op.0), None, || SpanEvent::Aborted {
            error: error.to_string(),
        });
        out.push(Action::Notify(Completion::Failed { op, error, dropped_events: 0 }));
    }

    /// Arm the retry schedule for an idempotent simple request. The
    /// resent message reuses the original sub-op id, so a duplicate
    /// reply lands on an already-completed op and is absorbed by the
    /// `completed` guards.
    fn arm_retry(&mut self, op: OpId, target: MbId, request: Message, now: SimTime) {
        let backoff = self.config.retry_backoff;
        if let Some(st) = self.ops.get_mut(&op) {
            st.retry = Some(RetryState {
                target,
                request,
                next_at: now.after(backoff),
                backoff,
                left: self.config.max_retries,
            });
        }
    }

    // ------------------------------------------------------------------
    // Northbound API (§5)
    // ------------------------------------------------------------------

    /// `readConfig(SrcMB, HierarchicalKey)`.
    pub fn read_config(
        &mut self,
        src: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src]) {
            self.fail_fast(op, OpKind::ReadConfig, src, src, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::ReadConfig, src, src, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "readConfig" });
        let sub = self.alloc_sub(op, SubRole::Simple);
        let msg = Message::GetConfig { op: sub, key };
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: "getConfig" });
        // Config reads are idempotent: retry on a lost request/reply.
        self.arm_retry(op, src, msg.clone(), now);
        out.push(Action::ToMb(src, msg));
        op
    }

    /// Record a span event for `op` (and optionally a sub-op) at `now`.
    #[inline]
    fn span(&self, now: SimTime, op: OpId, sub: Option<OpId>, ev: SpanEvent) {
        self.obs.record(now.0, self.obs_tag, Some(op.0), sub.map(|s| s.0), ev);
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
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[dst]) {
            self.fail_fast(op, OpKind::WriteConfig, dst, dst, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::WriteConfig, dst, dst, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "writeConfig" });
        let sub = self.alloc_sub(op, SubRole::Simple);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: "setConfig" });
        out.push(Action::ToMb(dst, Message::SetConfig { op: sub, key, values }));
        op
    }

    /// `delConfig` — a composition convenience over the southbound API.
    pub fn del_config(
        &mut self,
        dst: MbId,
        key: HierarchicalKey,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[dst]) {
            self.fail_fast(op, OpKind::DelConfig, dst, dst, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::DelConfig, dst, dst, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "delConfig" });
        let sub = self.alloc_sub(op, SubRole::Simple);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: "delConfig" });
        out.push(Action::ToMb(dst, Message::DelConfig { op: sub, key }));
        op
    }

    /// `stats(SrcMB, HeaderFieldList)`.
    pub fn stats(
        &mut self,
        src: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src]) {
            self.fail_fast(op, OpKind::Stats, src, src, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::Stats, src, src, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "stats" });
        let sub = self.alloc_sub(op, SubRole::Simple);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: "getStats" });
        let msg = Message::GetStats { op: sub, key };
        // Stats reads are idempotent: retry on a lost request/reply.
        self.arm_retry(op, src, msg.clone(), now);
        out.push(Action::ToMb(src, msg));
        op
    }

    /// Subscribe the application to introspection events from `mb`.
    pub fn enable_events(
        &mut self,
        mb: MbId,
        filter: EventFilter,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[mb]) {
            self.fail_fast(op, OpKind::EnableEvents, mb, mb, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::EnableEvents, mb, mb, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "enableEvents" });
        self.subscriptions.insert(mb, filter.clone());
        let sub = self.alloc_sub(op, SubRole::Simple);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: "enableEvents" });
        out.push(Action::ToMb(mb, Message::EnableEvents { op: sub, filter }));
        op
    }

    /// `moveInternal(SrcMB, DstMB, HeaderFieldList)` — Figure 5.
    pub fn move_internal(
        &mut self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src, dst]) {
            self.fail_fast(op, OpKind::Move, src, dst, e, now, out);
            return op;
        }
        let mut st = self.new_op_state(OpKind::Move, src, dst, now);
        st.pattern = key;
        self.ops.insert(op, st);
        self.span(now, op, None, SpanEvent::Issued { kind: "moveInternal" });
        self.issue_transfer_gets(op, now, out);
        op
    }

    /// `cloneSupport(SrcMB, DstMB)` — shared supporting state only.
    pub fn clone_support(
        &mut self,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src, dst]) {
            self.fail_fast(op, OpKind::Clone, src, dst, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::Clone, src, dst, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "cloneSupport" });
        self.issue_transfer_gets(op, now, out);
        op
    }

    /// `mergeInternal(SrcMB, DstMB)` — shared supporting + reporting.
    pub fn merge_internal(
        &mut self,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        if let Some(e) = self.mb_error(&[src, dst]) {
            self.fail_fast(op, OpKind::Merge, src, dst, e, now, out);
            return op;
        }
        self.ops.insert(op, self.new_op_state(OpKind::Merge, src, dst, now));
        self.span(now, op, None, SpanEvent::Issued { kind: "mergeInternal" });
        self.issue_transfer_gets(op, now, out);
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
        let (kind, src, key) = (st.kind, st.src, st.pattern);
        match kind {
            OpKind::Move => {
                let gs = self.alloc_sub(op, SubRole::GetSupport);
                let gr = self.alloc_sub(op, SubRole::GetReport);
                self.span(now, op, Some(gs), SpanEvent::Issued { kind: "getSupportPerflow" });
                self.span(now, op, Some(gr), SpanEvent::Issued { kind: "getReportPerflow" });
                let mgs = Message::GetSupportPerflow { op: gs, key };
                let mgr = Message::GetReportPerflow { op: gr, key };
                if let Some(st) = self.ops.get_mut(&op) {
                    st.gets_outstanding = 2;
                    st.get_subs.extend([gs, gr]);
                    st.get_reqs.push((gs, mgs.clone()));
                    st.get_reqs.push((gr, mgr.clone()));
                }
                out.push(Action::ToMb(src, mgs));
                out.push(Action::ToMb(src, mgr));
            }
            OpKind::Clone => {
                let g = self.alloc_sub(op, SubRole::GetSharedSupport);
                self.span(now, op, Some(g), SpanEvent::Issued { kind: "getSupportShared" });
                let mg = Message::GetSupportShared { op: g };
                if let Some(st) = self.ops.get_mut(&op) {
                    st.gets_outstanding = 1;
                    st.get_subs.push(g);
                    st.get_reqs.push((g, mg.clone()));
                }
                out.push(Action::ToMb(src, mg));
            }
            OpKind::Merge => {
                let gs = self.alloc_sub(op, SubRole::GetSharedSupport);
                let gr = self.alloc_sub(op, SubRole::GetSharedReport);
                self.span(now, op, Some(gs), SpanEvent::Issued { kind: "getSupportShared" });
                self.span(now, op, Some(gr), SpanEvent::Issued { kind: "getReportShared" });
                let mgs = Message::GetSupportShared { op: gs };
                let mgr = Message::GetReportShared { op: gr };
                if let Some(st) = self.ops.get_mut(&op) {
                    st.gets_outstanding = 2;
                    st.get_subs.extend([gs, gr]);
                    st.get_reqs.push((gs, mgs.clone()));
                    st.get_reqs.push((gr, mgr.clone()));
                }
                out.push(Action::ToMb(src, mgs));
                out.push(Action::ToMb(src, mgr));
            }
            _ => debug_assert!(false, "issue_transfer_gets on a non-transfer op"),
        }
    }

    /// Reserve a transfer whose admission the router deferred
    /// ([`crate::router::Admission::Defer`]): allocate the op id and
    /// state — so the conflict entry registered against it pins later
    /// overlapping admissions — but issue no southbound traffic. The
    /// op parks as [`ParkReason::CrossShardConflict`] until the engine
    /// calls [`ControllerShard::release_transfer`]; the op deadline
    /// (running from *now*) backstops blockers that never close.
    /// Endpoint validation runs here exactly as on the direct path, so
    /// a doomed transfer still fails fast instead of queueing.
    pub fn reserve_transfer(
        &mut self,
        kind: TransferKind,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let op = self.alloc_op();
        let okind = kind.op_kind();
        if let Some(e) = self.mb_error(&[src, dst]) {
            self.fail_fast(op, okind, src, dst, e, now, out);
            return op;
        }
        let mut st = self.new_op_state(okind, src, dst, now);
        st.pattern = key;
        st.deferred = true;
        self.ops.insert(op, st);
        self.span(now, op, None, SpanEvent::Issued { kind: kind.api_name() });
        self.span(now, op, None, SpanEvent::Parked { reason: ParkReason::CrossShardConflict });
        op
    }

    /// Release a reserved transfer: its cross-shard blockers have all
    /// closed, so it may finally issue its gets. Endpoints are
    /// re-validated — they may have died while the op waited — and a
    /// dead one aborts the op instead of streaming into a down link.
    /// The deadline restarts so the released attempt gets the full
    /// window the direct path would have had.
    pub fn release_transfer(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get(&op) else { return };
        if !st.deferred || st.completed || st.quiesced {
            return;
        }
        let (src, dst) = (st.src, st.dst);
        if let Some(e) = self.mb_error(&[src, dst]) {
            if let Some(st) = self.ops.get_mut(&op) {
                st.deferred = false;
            }
            self.abort_op(op, e, now, out);
            return;
        }
        let deadline = now.after(self.config.op_deadline);
        if let Some(st) = self.ops.get_mut(&op) {
            st.deferred = false;
            st.last_activity = now;
            st.deadline = deadline;
        }
        self.span(now, op, None, SpanEvent::Resumed { from_seq: 0 });
        self.issue_transfer_gets(op, now, out);
    }

    /// Whether `op` is still reserved awaiting release (tests,
    /// diagnostics).
    pub fn op_deferred(&self, op: OpId) -> bool {
        self.ops.get(&op).is_some_and(|st| st.deferred)
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
            Message::Chunk { op: sub, chunk } => {
                let Some(&(parent, ref role)) = self.sub_ops.get(&sub) else { return };
                let role = role.clone();
                let is_report = match role {
                    SubRole::GetSupport => false,
                    SubRole::GetReport => true,
                    _ => return,
                };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if st.completed || st.quiesced {
                    return;
                }
                st.last_activity = now;
                st.get_seen.entry(sub).or_default().insert(chunk.key);
                // A duplicated (fault-injected) or re-streamed (resume)
                // chunk: its put — same sub id — is already in flight or
                // acked, so issuing a second one would double-count.
                if !st.streamed.insert((is_report, chunk.key)) {
                    self.maybe_finish_get(parent, sub, now, out);
                    return;
                }
                st.chunks += 1;
                st.pending_keys.insert(chunk.key);
                st.puts_outstanding += 1;
                let seq = st.next_chunk_seq;
                st.next_chunk_seq += 1;
                let (put_role, mk): (SubRole, fn(OpId, openmb_types::StateChunk) -> Message) =
                    if is_report {
                        (SubRole::PutReport { key: chunk.key, seq }, |op, chunk| {
                            Message::PutReportPerflow { op, chunk }
                        })
                    } else {
                        (SubRole::PutSupport { key: chunk.key, seq }, |op, chunk| {
                            Message::PutSupportPerflow { op, chunk }
                        })
                    };
                let put_sub = self.alloc_sub(parent, put_role);
                let m = if self.config.content_cache {
                    // Negotiate-then-reference: put a (key, hash)
                    // manifest entry in the window instead of the body.
                    // The body is parked in `ref_bodies` until the ack —
                    // streamed only if the destination reports a miss.
                    let hash = openmb_store::content_hash(chunk.data.as_wire());
                    let class = if is_report {
                        wire::ChunkClass::Report
                    } else {
                        wire::ChunkClass::Support
                    };
                    let key = chunk.key;
                    if let Some(st) = self.ops.get_mut(&parent) {
                        st.ref_bodies.insert(seq, (chunk, hash));
                    }
                    Message::ChunkRef { op: put_sub, class, key, hash }
                } else {
                    mk(put_sub, chunk)
                };
                self.span(now, parent, Some(put_sub), SpanEvent::Issued { kind: m.kind_name() });
                self.enqueue_put(parent, seq, m, now, out);
                self.maybe_finish_get(parent, sub, now, out);
            }
            Message::GetAck { op: sub, count } => {
                let Some(&(parent, _)) = self.sub_ops.get(&sub) else { return };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if st.completed || st.quiesced || st.done_gets.contains(&sub) {
                    return;
                }
                st.last_activity = now;
                // The ack announces how many chunks the source streamed.
                // The get only closes once that many distinct chunks have
                // arrived — a dropped chunk leaves it open for resume
                // instead of silently losing state.
                st.get_expected.insert(sub, count);
                self.maybe_finish_get(parent, sub, now, out);
            }
            Message::SharedChunk { op: sub, chunk } => {
                let Some(&(parent, ref role)) = self.sub_ops.get(&sub) else { return };
                let role = role.clone();
                if !matches!(role, SubRole::GetSharedSupport | SubRole::GetSharedReport) {
                    return;
                }
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if st.completed || st.quiesced {
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
                let (put_sub, m) = match role {
                    SubRole::GetSharedSupport => {
                        let s = self.alloc_sub(parent, SubRole::PutSharedSupport { seq });
                        (s, Message::PutSupportShared { op: s, chunk })
                    }
                    SubRole::GetSharedReport => {
                        let s = self.alloc_sub(parent, SubRole::PutSharedReport { seq });
                        (s, Message::PutReportShared { op: s, chunk })
                    }
                    _ => unreachable!(),
                };
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
                let Some(&(parent, ref role)) = self.sub_ops.get(&sub) else { return };
                let (seq, is_report) = match role {
                    SubRole::PutSupport { seq, .. } => (*seq, false),
                    SubRole::PutReport { seq, .. } => (*seq, true),
                    _ => return,
                };
                let Some(st) = self.ops.get_mut(&parent) else { return };
                if st.completed || st.quiesced {
                    return;
                }
                st.last_activity = now;
                let Some((chunk, stored_hash)) = st.ref_bodies.get(&seq) else { return };
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
                let class =
                    if is_report { wire::ChunkClass::Report } else { wire::ChunkClass::Support };
                let m = Message::ChunkBody {
                    op: sub,
                    class,
                    key: chunk.key,
                    hash,
                    data: chunk.data.clone(),
                };
                out.push(Action::ToMb(st.dst, m));
            }
            Message::PutAck { op: sub, key } => {
                let Some(&(parent, ref role)) = self.sub_ops.get(&sub) else { return };
                let seq = match role {
                    SubRole::PutSupport { seq, .. }
                    | SubRole::PutReport { seq, .. }
                    | SubRole::PutSharedSupport { seq }
                    | SubRole::PutSharedReport { seq } => Some(*seq),
                    _ => None,
                };
                if let Some(st) = self.ops.get_mut(&parent) {
                    // A late or duplicated ack for an op that already
                    // reached a terminal state (completed, quiesced, or
                    // aborted — abort sets both flags) must not
                    // resurrect ledger state or refill the window.
                    if st.completed || st.quiesced {
                        return;
                    }
                    if let Some(seq) = seq {
                        // Dedup by (op, chunk_seq): a duplicated PutAck —
                        // fault injection, or a resumed put racing its
                        // original ack — must not double-decrement the
                        // outstanding-put count.
                        if !st.mark_acked(seq) {
                            return;
                        }
                        st.unacked_puts.remove(&seq);
                        if let Some((chunk, hash)) = st.ref_bodies.remove(&seq) {
                            if st.needed.remove(&seq) {
                                // The body streamed; nothing was saved.
                            } else {
                                // Reference-only delivery: the savings
                                // are the put we did not send, minus the
                                // ref we did. (Message construction here
                                // is cheap — the chunk's Bytes are
                                // refcounted.)
                                self.cache_hits += 1;
                                let ref_len = wire::encoded_len(&Message::ChunkRef {
                                    op: sub,
                                    class: wire::ChunkClass::Support,
                                    key: chunk.key,
                                    hash,
                                });
                                let put_len = wire::encoded_len(&Message::PutSupportPerflow {
                                    op: sub,
                                    chunk,
                                });
                                self.bytes_saved += (put_len.saturating_sub(ref_len)) as u64;
                            }
                        }
                        self.obs.record(
                            now.0,
                            self.obs_tag,
                            Some(parent.0),
                            Some(sub.0),
                            SpanEvent::ChunkAcked { seq },
                        );
                    }
                    st.puts_outstanding = st.puts_outstanding.saturating_sub(1);
                    st.last_activity = now;
                    if let Some(k) = key {
                        st.pending_keys.remove(&k);
                        st.acked_keys.push(k);
                        // Release any buffered events this put unblocks,
                        // in arrival order; the rest stay where they are.
                        let dst = st.dst;
                        for ev in st.buffered.extract_if(.., |ev| k.matches_bidi(&ev.key)) {
                            st.events_forwarded += 1;
                            out.push(Action::ToMb(
                                dst,
                                Message::ReprocessPacket {
                                    op: parent,
                                    key: ev.key,
                                    packet: ev.packet,
                                },
                            ));
                        }
                    }
                }
                self.refill_window(parent, now, out);
                self.maybe_complete(parent, now, out);
            }
            Message::OpAck { op: sub } => {
                let Some(&(parent, ref role)) = self.sub_ops.get(&sub) else { return };
                let role = role.clone();
                match role {
                    // A shared get that found no state: nothing to put.
                    SubRole::GetSharedSupport | SubRole::GetSharedReport => {
                        if let Some(st) = self.ops.get_mut(&parent) {
                            // Same dedup key as SharedChunk: the stream
                            // closes exactly once even if the empty-ack
                            // is duplicated or re-elicited by a resume.
                            if st.completed || st.quiesced || !st.done_gets.insert(sub) {
                                return;
                            }
                            st.gets_outstanding = st.gets_outstanding.saturating_sub(1);
                            st.last_activity = now;
                        }
                        self.maybe_complete(parent, now, out);
                    }
                    SubRole::Simple => {
                        if let Some(st) = self.ops.get_mut(&parent) {
                            if !st.completed {
                                st.completed = true;
                                self.obs.record(
                                    now.0,
                                    self.obs_tag,
                                    Some(parent.0),
                                    Some(sub.0),
                                    SpanEvent::Completed,
                                );
                                out.push(Action::Notify(Completion::Ack { op: parent }));
                            }
                        }
                    }
                    SubRole::DelSupport | SubRole::DelReport | SubRole::DelShared => {
                        // Quiescence/abort deletes; the ack closes the
                        // ledger entry and stops the re-send chain.
                        // Nothing to report northbound. The span fires
                        // only when an entry actually closed —
                        // duplicated acks must not inflate the
                        // monitor's delete accounting.
                        let before = self.pending_deletes.len();
                        self.pending_deletes.retain(|r| r.sub != sub);
                        if self.pending_deletes.len() < before {
                            self.span(now, parent, Some(sub), SpanEvent::DeleteAcked);
                        }
                    }
                    _ => {}
                }
            }
            Message::DeleteAck { op: sub, restored: _ } => {
                // Confirmation of a shared-state rollback. The aborted
                // op already reported its failure, so there is nothing
                // left to notify; the ack closes the ledger entry and
                // stops the re-send chain.
                let before = self.pending_deletes.len();
                self.pending_deletes.retain(|r| r.sub != sub);
                if self.pending_deletes.len() < before {
                    if let Some(&(parent, _)) = self.sub_ops.get(&sub) {
                        self.span(now, parent, Some(sub), SpanEvent::DeleteAcked);
                    }
                }
            }
            Message::ConfigValues { op: sub, pairs } => {
                let Some(&(parent, _)) = self.sub_ops.get(&sub) else { return };
                if let Some(st) = self.ops.get_mut(&parent) {
                    st.completed = true;
                }
                self.span(now, parent, Some(sub), SpanEvent::Completed);
                out.push(Action::Notify(Completion::Config { op: parent, pairs }));
            }
            Message::Stats { op: sub, stats } => {
                let Some(&(parent, _)) = self.sub_ops.get(&sub) else { return };
                if let Some(st) = self.ops.get_mut(&parent) {
                    st.completed = true;
                }
                self.span(now, parent, Some(sub), SpanEvent::Completed);
                out.push(Action::Notify(Completion::Stats { op: parent, stats }));
            }
            Message::EventMsg { event } => match event {
                Event::Reprocess { op: sub, key, packet } => {
                    // The MB tags events with the *get* sub-op id.
                    let parent = match self.sub_ops.get(&sub) {
                        Some(&(parent, _)) => parent,
                        // Events raised under the parent id directly
                        // (e.g. forwarded after completion).
                        None if self.ops.contains_key(&sub) => sub,
                        None => return,
                    };
                    let Some(st) = self.ops.get_mut(&parent) else { return };
                    st.last_activity = now;
                    let dst = st.dst;
                    // Buffer until the destination has ACKed the put for
                    // the state this event applies to (Fig 5). Forwarding
                    // the event *before* the put would let the put
                    // overwrite the replayed update at the destination —
                    // the §4.2.1 ordering violation. So an event is held
                    // while (a) its chunk's put is in flight, or (b) the
                    // get stream is still open and this key has not been
                    // ACKed (its chunk may not have been streamed yet).
                    let acked = st.acked_keys.iter().any(|k| k.matches_bidi(&key));
                    let pending = st.pending_keys.iter().any(|k| k.matches_bidi(&key));
                    let get_open = st.gets_outstanding > 0;
                    if self.config.buffer_events && (pending || (get_open && !acked)) {
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
                // answer (the span marks the entry closed, same as an
                // ack, so the monitor's ledger drains).
                let before = self.pending_deletes.len();
                self.pending_deletes.retain(|r| r.sub != sub);
                let closed_delete = self.pending_deletes.len() < before;
                let Some(&(parent, _)) = self.sub_ops.get(&sub) else { return };
                if closed_delete {
                    self.span(now, parent, Some(sub), SpanEvent::DeleteAcked);
                }
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
        let mut touched: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| !st.quiesced && (st.src == mb || st.dst == mb))
            .map(|(id, _)| *id)
            .collect();
        // HashMap iteration order is arbitrary; sort so replays with the
        // same fault schedule emit byte-identical action streams.
        touched.sort();
        for op in touched {
            let Some(st) = self.ops.get_mut(&op) else { continue };
            if st.completed {
                if matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge) {
                    // Finalize: close the sync window and (moves) delete
                    // at the source, if the source is still up.
                    self.quiesce_op(op, now, out);
                }
            } else if matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)
                && st.resumes_left > 0
                && !st.deferred
            {
                // (A still-deferred transfer falls through to abort:
                // it has sent nothing, so the abort is a pure notify,
                // and the release sweep will drop it as closed.)
                // Park: the transfer resumes when the endpoint returns.
                // The op deadline still backstops an MB that never does.
                st.suspended = true;
                self.obs.record(
                    now.0,
                    self.obs_tag,
                    Some(op.0),
                    None,
                    SpanEvent::Parked { reason: ParkReason::MbUnreachable { mb: mb.0 } },
                );
            } else {
                self.abort_op(op, Error::MbUnreachable(mb), now, out);
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
        let mut parked: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| st.suspended && !st.completed && !st.quiesced)
            .map(|(id, _)| *id)
            .collect();
        parked.sort();
        for op in parked {
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
        if st.completed || st.quiesced {
            return;
        }
        st.completed = true;
        st.quiesced = true;
        st.retry = None;
        let dropped_events = st.buffered.len();
        st.buffered.clear();
        st.pending_keys.clear();
        // Drop the transfer pipeline outright: a late ack after this
        // point must find nothing to refill the window from.
        st.unacked_puts.clear();
        st.queued_puts.clear();
        st.ref_bodies.clear();
        st.needed.clear();
        st.gets_outstanding = 0;
        st.puts_outstanding = 0;
        let (kind, src, dst, pattern) = (st.kind, st.src, st.dst, st.pattern);
        let had_chunks = st.chunks > 0;
        let get_subs = std::mem::take(&mut st.get_subs);
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
            let ds = self.alloc_sub(op, SubRole::DelSupport);
            let dr = self.alloc_sub(op, SubRole::DelReport);
            self.track_delete(
                op,
                dst,
                ds,
                Message::DelSupportPerflow { op: ds, key: pattern },
                now,
                out,
            );
            self.track_delete(
                op,
                dst,
                dr,
                Message::DelReportPerflow { op: dr, key: pattern },
                now,
                out,
            );
        }
        if matches!(kind, OpKind::Clone | OpKind::Merge) && !shared_puts.is_empty() {
            // Compensating rollback (§4.1.3): undo the shared-state
            // merges that already landed, so the abort leaves no
            // orphaned shared state at the destination. The delete is
            // recorded in the ledger until acked: re-sent with backoff
            // if lost, and — since an MB's logic tables (and thus the
            // orphaned state) survive its crash — deferred to reattach
            // when the destination is down right now.
            let del = self.alloc_sub(op, SubRole::DelShared);
            self.track_delete(
                op,
                dst,
                del,
                Message::DeleteState { op: del, puts: shared_puts },
                now,
                out,
            );
        }
        if !self.unreachable.contains(&src) {
            for sub in get_subs {
                out.push(Action::ToMb(src, Message::EndSync { op: sub }));
            }
        }
        out.push(Action::Notify(Completion::Failed { op, error, dropped_events }));
    }

    /// Finish a completed transfer: mark it quiesced, delete moved
    /// per-flow state at the source (moves only, via the acked ledger —
    /// a lost delete must not strand the moved state at both ends), and
    /// close the sync window. `EndSync` is fire-and-forget and skipped
    /// while the source is unreachable: its loss only leaves a sync
    /// mark in the source's tracker, never state.
    fn quiesce_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&op) else { return };
        if st.quiesced {
            return;
        }
        st.quiesced = true;
        let (kind, src, pattern) = (st.kind, st.src, st.pattern);
        let get_subs = st.get_subs.clone();
        if kind == OpKind::Move {
            let ds = self.alloc_sub(op, SubRole::DelSupport);
            let dr = self.alloc_sub(op, SubRole::DelReport);
            self.track_delete(
                op,
                src,
                ds,
                Message::DelSupportPerflow { op: ds, key: pattern },
                now,
                out,
            );
            self.track_delete(
                op,
                src,
                dr,
                Message::DelReportPerflow { op: dr, key: pattern },
                now,
                out,
            );
        }
        if !self.unreachable.contains(&src) {
            for sub in get_subs {
                out.push(Action::ToMb(src, Message::EndSync { op: sub }));
            }
        }
    }

    /// Record a delete in the acked re-delivery ledger and send it now,
    /// unless `mb` is unreachable — then the entry parks (due `None`)
    /// and `mark_reachable` re-sends it on reattach. The `DeleteIssued`
    /// span marks the ledger-entry open; the invariant monitor checks
    /// it only fires after `op`'s terminal event.
    fn track_delete(
        &mut self,
        op: OpId,
        mb: MbId,
        sub: OpId,
        msg: Message,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let down = self.unreachable.contains(&mb);
        if !down {
            out.push(Action::ToMb(mb, msg.clone()));
        }
        self.pending_deletes.push(PendingDelete {
            mb,
            sub,
            msg,
            due: if down { None } else { Some(SimTime::ZERO) },
            left: self.config.max_retries,
        });
        self.span(now, op, Some(sub), SpanEvent::DeleteIssued { mb: mb.0 });
    }

    /// Close get sub-op `sub` of `parent` once its `GetAck` has arrived
    /// *and* every announced chunk has been seen. Called from both the
    /// GetAck and Chunk handlers, so a chunk delayed past its ack still
    /// completes the stream when it finally lands.
    fn maybe_finish_get(&mut self, parent: OpId, sub: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if st.completed || st.quiesced || st.done_gets.contains(&sub) {
            return;
        }
        let Some(&expected) = st.get_expected.get(&sub) else { return };
        let seen = st.get_seen.get(&sub).map(|s| s.len()).unwrap_or(0);
        if seen < expected as usize {
            return;
        }
        st.done_gets.insert(sub);
        st.gets_outstanding = st.gets_outstanding.saturating_sub(1);
        self.maybe_complete(parent, now, out);
    }

    /// Admit put `seq` of `op` into the transfer pipeline: issue it
    /// immediately while the in-flight ledger has a free window slot
    /// (or windowing is off), otherwise defer it to the queue for
    /// `refill_window`. Suspended ops always queue — their in-flight
    /// set is re-sent wholesale by `resume_op`.
    fn enqueue_put(&mut self, op: OpId, seq: u64, m: Message, now: SimTime, out: &mut Vec<Action>) {
        let window = self.config.transfer_window as usize;
        let mut in_flight = 0;
        let mut admitted = false;
        if let Some(st) = self.ops.get_mut(&op) {
            if !st.suspended && (window == 0 || st.unacked_puts.len() < window) {
                st.unacked_puts.insert(seq, m.clone());
                in_flight = st.unacked_puts.len();
                out.push(Action::ToMb(st.dst, m));
                admitted = true;
            } else {
                st.queued_puts.push_back((seq, m));
            }
        }
        if admitted {
            // Window-queued puts get their PutAdmitted only once
            // refill_window promotes them, so admissions mirror the
            // ledger exactly (what the I1 window invariant counts).
            self.span(now, op, None, SpanEvent::PutAdmitted { seq });
        }
        self.in_flight_peak = self.in_flight_peak.max(in_flight);
    }

    /// Promote queued puts into freed window slots and send them. Called
    /// on every ack and at the end of a resume; a no-op for terminal or
    /// suspended ops so a late ack cannot push puts past an abort.
    fn refill_window(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let window = self.config.transfer_window as usize;
        let mut in_flight = 0;
        let mut admitted = Vec::new();
        if let Some(st) = self.ops.get_mut(&op) {
            if st.completed || st.quiesced || st.suspended {
                return;
            }
            while !st.queued_puts.is_empty() && (window == 0 || st.unacked_puts.len() < window) {
                let (seq, m) = st.queued_puts.pop_front().expect("checked non-empty");
                st.unacked_puts.insert(seq, m.clone());
                in_flight = st.unacked_puts.len();
                out.push(Action::ToMb(st.dst, m));
                admitted.push(seq);
            }
        }
        for seq in admitted {
            self.span(now, op, None, SpanEvent::PutAdmitted { seq });
        }
        self.in_flight_peak = self.in_flight_peak.max(in_flight);
    }

    /// Resume a stalled or parked transfer from its last acked chunk:
    /// re-send every get whose stream has not closed and every put not
    /// yet acked, verbatim (same sub-op ids). The re-issue is
    /// idempotent end-to-end — the source's sync tracker keeps its
    /// marks, the controller's chunk dedup drops re-streamed chunks
    /// whose put is already in flight, and the destination's put-log
    /// re-acks shared puts it already applied without re-merging. The
    /// deadline is extended so the resumed attempt gets a full window.
    fn resume_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let deadline = now.after(self.config.op_deadline);
        let Some(st) = self.ops.get(&op) else { return };
        if st.completed
            || st.quiesced
            || st.deferred
            || st.resumes_left == 0
            || self.unreachable.contains(&st.src)
            || self.unreachable.contains(&st.dst)
        {
            return;
        }
        let Some(st) = self.ops.get_mut(&op) else { return };
        st.resumes_left -= 1;
        st.suspended = false;
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
        let Some(st) = self.ops.get_mut(&op) else { return };
        let (src, dst) = (st.src, st.dst);
        let gets: Vec<Message> = st
            .get_reqs
            .iter()
            .filter(|(sub, _)| !st.done_gets.contains(sub))
            .map(|(_, m)| m.clone())
            .collect();
        let puts: Vec<Message> = st.unacked_puts.values().cloned().collect();
        for m in gets {
            out.push(Action::ToMb(src, m));
        }
        for m in puts {
            out.push(Action::ToMb(dst, m));
        }
        // Chunks that arrived while parked were window-deferred; top the
        // window back up now that the transfer is live again.
        self.refill_window(op, now, out);
    }

    fn maybe_complete(&mut self, parent: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if st.completed || st.gets_outstanding > 0 || st.puts_outstanding > 0 {
            return;
        }
        st.completed = true;
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
        let c = match st.kind {
            OpKind::Move => Completion::MoveComplete { op: parent, chunks_moved: st.chunks },
            OpKind::Clone => Completion::CloneComplete { op: parent },
            OpKind::Merge => Completion::MergeComplete { op: parent },
            // Simple kinds complete via their own paths.
            _ => return,
        };
        self.span(now, parent, None, SpanEvent::Completed);
        out.push(Action::Notify(c));
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
        let mut due: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| {
                !st.completed && st.retry.as_ref().is_some_and(|r| r.left > 0 && now >= r.next_at)
            })
            .map(|(id, _)| *id)
            .collect();
        due.sort();
        for op in due {
            let Some(st) = self.ops.get_mut(&op) else { continue };
            let Some(r) = st.retry.as_mut() else { continue };
            r.left -= 1;
            r.backoff = r.backoff.scaled(2);
            r.next_at = now.after(r.backoff);
            let (target, resend) = (r.target, r.request.clone());
            if !self.unreachable.contains(&target) {
                out.push(Action::ToMb(target, resend));
            }
        }

        // 2. Stall resume.
        let resume_after = self.config.resume_after;
        let mut stalled: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| {
                !st.completed
                    && !st.quiesced
                    && !st.suspended
                    && st.resumes_left > 0
                    && matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)
                    && (st.gets_outstanding > 0 || st.puts_outstanding > 0)
                    && now.since(st.last_activity) >= resume_after
            })
            .map(|(id, _)| *id)
            .collect();
        stalled.sort();
        for op in stalled {
            self.resume_op(op, now, out);
        }

        // 3. Deadlines.
        let mut overdue: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| !st.completed && !st.quiesced && now >= st.deadline)
            .map(|(id, _)| *id)
            .collect();
        overdue.sort();
        for op in overdue {
            let can_resume = self.ops.get(&op).is_some_and(|st| {
                matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)
                    && st.resumes_left > 0
                    && !st.suspended
                    // A transfer still deferred at its deadline has
                    // blockers that never closed: abort, don't resume.
                    && !st.deferred
                    && !self.unreachable.contains(&st.src)
                    && !self.unreachable.contains(&st.dst)
            });
            if can_resume {
                self.resume_op(op, now, out);
            } else {
                // Includes suspended transfers whose endpoint never
                // returned: the deadline is the backstop.
                self.abort_op(op, Error::Timeout { op }, now, out);
            }
        }

        // 4. Delete re-delivery: an owed delete whose ack has not
        // arrived is re-sent with constant backoff (idempotent at the
        // MB); entries park while their MB is unreachable and are
        // dropped once the budget is spent, so a destination that never
        // acks cannot keep the maintenance timer alive forever.
        let backoff = self.config.retry_backoff;
        let mut resend: Vec<(MbId, OpId, Message)> = Vec::new();
        self.pending_deletes.retain_mut(|r| {
            let Some(due) = r.due else { return true };
            if now < due {
                return true;
            }
            if r.left == 0 {
                return false;
            }
            r.left -= 1;
            r.due = Some(now.after(backoff));
            resend.push((r.mb, r.sub, r.msg.clone()));
            true
        });
        for (mb, sub, msg) in resend {
            if !self.unreachable.contains(&mb) {
                if let Some(&(parent, _)) = self.sub_ops.get(&sub) {
                    self.span(now, parent, Some(sub), SpanEvent::DeleteRetried);
                }
                out.push(Action::ToMb(mb, msg));
            }
        }

        // 5. Quiescence.
        let quiesce = self.config.quiesce_after;
        let mut ready: Vec<OpId> = self
            .ops
            .iter()
            .filter(|(_, st)| {
                st.completed
                    && !st.quiesced
                    && matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)
                    && st.buffered.is_empty()
                    && now.since(st.last_activity) >= quiesce
            })
            .map(|(id, _)| *id)
            .collect();
        ready.sort();
        for op in ready {
            if self.ops.contains_key(&op) {
                self.quiesce_op(op, now, out);
            } else {
                // The op's state vanished between collection and
                // processing. Nothing to clean up, but the application
                // is owed a terminal completion rather than a panic.
                out.push(Action::Notify(Completion::Failed {
                    op,
                    error: Error::OpFailed("operation state lost before quiescence".into()),
                    dropped_events: 0,
                }));
            }
        }
    }

    /// Number of operations not yet quiesced, plus deletes still being
    /// actively re-delivered (testing, and the embedding's "keep the
    /// maintenance timer armed" signal). Deletes parked on an
    /// unreachable MB are excluded — they cannot progress until the
    /// reattach event, which restarts the timer itself.
    pub fn open_ops(&self) -> usize {
        self.ops
            .values()
            .filter(|st| {
                !(st.quiesced
                    || (st.completed
                        && !matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)))
            })
            .count()
            + self.pending_deletes.iter().filter(|r| r.due.is_some()).count()
    }

    /// Number of ops parked on cross-shard conflicts, awaiting release
    /// (health snapshots).
    pub fn deferred_ops(&self) -> usize {
        self.ops.values().filter(|st| st.deferred && !st.quiesced).count()
    }

    /// Has this operation fully left the shard — terminal (quiesced,
    /// aborted and released, or a completed simple request) with no
    /// delete still owed on its behalf? The shard router prunes its
    /// conflict table on this, so a flowspace stays pinned to its shard
    /// for as long as the op can still emit southbound traffic
    /// (including quiescence deletes and parked rollbacks).
    pub fn op_closed(&self, op: OpId) -> bool {
        let state_open = self.ops.get(&op).is_some_and(|st| {
            !(st.quiesced
                || (st.completed
                    && !matches!(st.kind, OpKind::Move | OpKind::Clone | OpKind::Merge)))
        });
        if state_open {
            return false;
        }
        !self
            .pending_deletes
            .iter()
            .any(|d| self.sub_ops.get(&d.sub).map(|(parent, _)| *parent) == Some(op))
    }

    /// Events forwarded under an operation (experiments).
    pub fn events_forwarded(&self, op: OpId) -> u64 {
        self.ops.get(&op).map(|s| s.events_forwarded).unwrap_or(0)
    }

    /// Total chunks transferred under an operation (experiments).
    pub fn chunks_moved(&self, op: OpId) -> usize {
        self.ops.get(&op).map(|s| s.chunks).unwrap_or(0)
    }

    /// One consistent snapshot of the transfer ledger for `op` plus the
    /// core-wide peak and cache counters. Per-op fields are zero for
    /// unknown (or already cleaned-up) ops; the core-wide fields are
    /// populated regardless, so callers that only want those may pass
    /// any op id.
    pub fn transfer_ledger_stats(&self, op: OpId) -> TransferLedgerStats {
        let (puts_in_flight, puts_queued, ack_set_size, bodies_in_flight) = self
            .ops
            .get(&op)
            .map(|s| {
                (s.unacked_puts.len(), s.queued_puts.len(), s.acked_above.len(), s.needed.len())
            })
            .unwrap_or((0, 0, 0, 0));
        TransferLedgerStats {
            puts_in_flight,
            puts_queued,
            ack_set_size,
            bodies_in_flight,
            in_flight_peak: self.in_flight_peak,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            bodies_sent: self.bodies_sent,
            bytes_saved: self.bytes_saved,
        }
    }

    /// Transfer-ledger occupancy summed over *every* op the shard still
    /// tracks (health snapshots want "how loaded is this shard now",
    /// not one op's view).
    pub fn aggregate_ledger_stats(&self) -> TransferLedgerStats {
        let mut agg = TransferLedgerStats {
            in_flight_peak: self.in_flight_peak,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            bodies_sent: self.bodies_sent,
            bytes_saved: self.bytes_saved,
            ..TransferLedgerStats::default()
        };
        for s in self.ops.values() {
            agg.puts_in_flight += s.unacked_puts.len();
            agg.puts_queued += s.queued_puts.len();
            agg.ack_set_size += s.acked_above.len();
            agg.bodies_in_flight += s.needed.len();
        }
        agg
    }
}

impl OpState {
    fn new(kind: OpKind, src: MbId, dst: MbId, now: SimTime, deadline: SimTime) -> Self {
        OpState {
            kind,
            src,
            dst,
            pattern: HeaderFieldList::any(),
            gets_outstanding: 0,
            puts_outstanding: 0,
            acked_keys: Vec::new(),
            pending_keys: HashSet::new(),
            get_subs: Vec::new(),
            buffered: Vec::new(),
            chunks: 0,
            completed: false,
            last_activity: now,
            quiesced: false,
            deadline,
            retry: None,
            events_forwarded: 0,
            next_chunk_seq: 0,
            ack_watermark: 0,
            acked_above: BTreeSet::new(),
            done_gets: HashSet::new(),
            streamed: HashSet::new(),
            get_seen: HashMap::new(),
            get_expected: HashMap::new(),
            get_reqs: Vec::new(),
            unacked_puts: BTreeMap::new(),
            queued_puts: VecDeque::new(),
            shared_puts: Vec::new(),
            resumes_left: 0,
            suspended: false,
            deferred: false,
            ref_bodies: HashMap::new(),
            needed: HashSet::new(),
        }
    }

    /// Record `seq` as acked. Returns false on a duplicate. Newly acked
    /// seqs at the watermark advance it, draining contiguous entries
    /// out of the sparse set — per-op ack state stays O(window) instead
    /// of one set entry per chunk forever.
    fn mark_acked(&mut self, seq: u64) -> bool {
        if seq < self.ack_watermark || !self.acked_above.insert(seq) {
            return false;
        }
        while self.acked_above.remove(&self.ack_watermark) {
            self.ack_watermark += 1;
        }
        true
    }
}
