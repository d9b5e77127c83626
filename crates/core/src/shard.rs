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
//! table, sub-op map, each transfer's `Transfer` (its gets and put
//! ledger), and the pending-delete ledger — so shards share nothing and
//! never need a lock between them.
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

use std::collections::VecDeque;

use openmb_obs::{NodeTag, ParkReason, Recorder, SpanEvent};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::{Event, EventFilter, Message};
use openmb_types::{Error, FlowKey, HeaderFieldList, MbId, OpId, Packet, StateChunk};

pub use crate::controller::{Action, Completion, ControllerConfig, Request};
use crate::id_hash::{IdMap, IdSet};
use crate::transfer::{Class, Put, Transfer};

/// Which southbound exchange a sub-operation id belongs to. Put roles
/// carry the put's seq in its transfer's ledger.
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

/// Per-operation progress: lifecycle, endpoints, deadline and retry,
/// and the event buffer; a transfer's gets and puts are its [`Transfer`].
#[derive(Clone)]
struct OpState {
    kind: OpKind,
    /// Lifecycle position; written only by [`OpState::set_phase`].
    phase: Phase,
    src: MbId,
    dst: MbId,
    /// For moves: the pattern being moved.
    pattern: HeaderFieldList,
    /// Events waiting for their chunk's put ACK.
    buffered: Vec<BufferedEvent>,
    /// Virtual time of the most recent event (or completion), for the
    /// quiescence timer.
    last_activity: SimTime,
    /// Virtual time at which the op is aborted if still incomplete.
    deadline: SimTime,
    /// Retry schedule for idempotent simple requests.
    retry: Option<RetryState>,
    /// Statistics: events forwarded under this op.
    pub events_forwarded: u64,
    /// Shared-state put sub-ops issued to the destination, in order —
    /// the rollback list an abort sends in `DeleteState`.
    shared_puts: Vec<OpId>,
    /// The sub-op ids that leave the sub-op table with the op: every
    /// one but a put's, and from close on the puts still open.
    subs: Vec<OpId>,
    transfer: Transfer,
}

/// One snapshot of a transfer's ledger and the core's cache counters.
/// Taken with [`ControllerShard::transfer_ledger_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferLedgerStats {
    /// Puts (references or legacy bodies) issued and unacked for the
    /// op — the ledger the window bounds. 0 for unknown ops.
    pub puts_in_flight: usize,
    /// Puts created but deferred by the window for the op.
    pub puts_queued: usize,
    /// Acked seqs above the op's lowest unacked seq (0 with nothing in
    /// flight): the admitted seqs there that have left the ledger.
    /// Within the window while acks arrive in order; each ack that
    /// overtakes a held-back one adds one.
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
    /// accepted; the rest leave with their op, which lists them.
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

    /// A sub-op of `parent`, which is in the op table. A put's id is
    /// found through the transfer's ring; any other goes on the op's
    /// list of ids to drop when it retires.
    fn alloc_sub(&mut self, parent: OpId, role: SubRole) -> OpId {
        let id = self.alloc_op();
        self.sub_ops.insert(id, (parent, role));
        if !matches!(role, SubRole::Put { .. } | SubRole::PutShared { .. }) {
            self.ops.get_mut(&parent).expect("a sub-op's op is in the table").subs.push(id);
        }
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

    /// The op sub-op `sub` belongs to, with the sub-op's role, while the
    /// op's outcome is undecided ([`Phase::live`]).
    fn live_sub(&mut self, sub: OpId) -> Option<(OpId, SubRole, &mut OpState)> {
        let &(parent, role) = self.sub_ops.get(&sub)?;
        Some((parent, role, self.ops.get_mut(&parent).filter(|st| st.phase.live())?))
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
        self.ops.insert(op, OpState::new(kind, mb, mb, Phase::Running, now, &self.config));
        self.span(now, op, None, SpanEvent::Issued { kind: kind.api_name() });
        let sub = self.alloc_sub(op, SubRole::Simple);
        let msg = request(sub);
        self.span(now, op, Some(sub), SpanEvent::Issued { kind: msg.kind_name() });
        if matches!(kind, OpKind::ReadConfig | OpKind::Stats) {
            let backoff = self.config.retry_backoff;
            self.ops.get_mut(&op).expect("inserted above").retry = Some(RetryState {
                request: msg.clone(),
                next_at: now.after(backoff),
                backoff,
                left: self.config.max_retries,
            });
        }
        out.push(Action::ToMb(mb, msg));
        op
    }

    /// Open the simple op `req` asks for: one request to one MB, through
    /// `start_simple`. An `EnableEvents` that passed validation also
    /// records its subscription. Transfers and chain moves are the
    /// engine's to admit ([`ControllerShard::start_transfer`]).
    pub fn issue(&mut self, req: Request, now: SimTime, out: &mut Vec<Action>) -> OpId {
        let (mb, subscription) = match &req {
            Request::EnableEvents { mb, filter } => (*mb, Some(filter.clone())),
            Request::ReadConfig { mb, .. }
            | Request::WriteConfig { mb, .. }
            | Request::DelConfig { mb, .. }
            | Request::Stats { mb, .. } => (*mb, None),
            _ => unreachable!("{req:?} is admitted by the engine, not issued on a shard"),
        };
        let kind = req.kind().expect("a simple request has an op kind");
        let request = |op| match req {
            Request::ReadConfig { key, .. } => Message::GetConfig { op, key },
            Request::WriteConfig { key, values, .. } => Message::SetConfig { op, key, values },
            Request::DelConfig { key, .. } => Message::DelConfig { op, key },
            Request::Stats { key, .. } => Message::GetStats { op, key },
            Request::EnableEvents { filter, .. } => Message::EnableEvents { op, filter },
            _ => unreachable!("checked above"),
        };
        let op = self.start_simple(kind, mb, request, now, out);
        if let Some(filter) = subscription.filter(|_| self.phase(op) == Some(Phase::Running)) {
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
                st.transfer.open_get(sub, msg.clone());
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
        let mut st = self.ops.remove(&op).expect("checked above");
        for sub in std::mem::take(&mut st.subs) {
            self.sub_ops.remove(&sub);
        }
        if st.transfer.get_subs().next().is_none() {
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
                let Some((parent, SubRole::Get(class), st)) = self.live_sub(sub) else { return };
                if !st.transfer.expect(sub, class, count) {
                    return;
                }
                st.last_activity = now;
                self.maybe_complete(parent, now, out);
            }
            Message::SharedChunk { op: sub, chunk } => {
                let Some((parent, SubRole::GetShared(class), st)) = self.live_sub(sub) else {
                    return;
                };
                let Some(seq) = st.transfer.admit_shared(sub) else { return };
                st.last_activity = now;
                let put_sub = self.alloc_sub(parent, SubRole::PutShared { seq });
                let m = class.put_shared(put_sub, chunk);
                self.span(now, parent, Some(put_sub), SpanEvent::Issued { kind: m.kind_name() });
                if let Some(st) = self.ops.get_mut(&parent) {
                    st.shared_puts.push(put_sub);
                }
                self.enqueue_put(parent, seq, Put::full(m), now, out);
            }
            Message::ChunkNeed { op: sub, hash } => {
                // Destination-side cache miss: stream the parked body.
                // The ref's window slot stays occupied — the exchange
                // closes with the same PutAck either way.
                let Some((_, SubRole::Put { class, seq }, st)) = self.live_sub(sub) else { return };
                st.last_activity = now;
                // A need for a hash we never referenced under this sub-op
                // is stale or corrupted: the stall-resume path re-sends
                // the ref if something was really lost.
                let dst = st.dst;
                let Some((m, first)) = st.transfer.need(seq, sub, class, hash) else { return };
                self.cache_misses += u64::from(first);
                self.bodies_sent += 1;
                out.push(Action::ToMb(dst, m));
            }
            // The run's keys come from the ledger, not the ack: a
            // destination acks a run once, naming its first key.
            Message::PutAck { op: sub, .. } => {
                // A late ack for an op that already reached an outcome
                // (completed, quiesced, or aborted) must not refill the
                // window.
                let Some((parent, SubRole::Put { seq, .. } | SubRole::PutShared { seq }, st)) =
                    self.live_sub(sub)
                else {
                    return;
                };
                // Only an in-flight put's ack counts, once: a duplicate
                // finds its sub-op gone, and an ack for a put still
                // queued behind the window is not the destination's.
                let Some(put) = st.transfer.ack(seq) else { return };
                st.last_activity = now;
                // Every key of the run is acked at once; one pass over
                // `buffered` releases, in arrival order, the events any
                // of them unblocks — unless another open put, the flow's
                // other class, still carries the key — and the rest stay
                // where they are.
                let dst = st.dst;
                let unblocked = |ev: &mut BufferedEvent| {
                    put.msg.run_keys().any(|k| k.matches_bidi(&ev.key))
                        && !st.transfer.pending(&ev.key)
                };
                for ev in st.buffered.extract_if(.., unblocked) {
                    st.events_forwarded += 1;
                    out.push(Action::ToMb(
                        dst,
                        Message::ReprocessPacket { op: parent, key: ev.key, packet: ev.packet },
                    ));
                }
                // The put's exchange is over: whatever else still names
                // its sub-op — a duplicated ack or need, a rejection of
                // a re-sent copy — finds nothing to route to.
                self.sub_ops.remove(&sub);
                self.span(now, parent, Some(sub), SpanEvent::ChunkAcked { seq });
                // A reference-only delivery saved the put it did not send.
                if let Some(saved) = put.saved() {
                    self.cache_hits += 1;
                    self.bytes_saved += saved;
                }
                self.refill_window(parent, now, out);
                self.maybe_complete(parent, now, out);
            }
            Message::OpAck { op: sub } => {
                let Some(&(parent, role)) = self.sub_ops.get(&sub) else { return };
                match role {
                    // A shared get that found no state: nothing to put.
                    // It closes once even if the empty ack is duplicated or
                    // re-elicited by a resume.
                    SubRole::GetShared(_) => {
                        let Some((_, _, st)) = self.live_sub(sub) else { return };
                        if !st.transfer.close_get(sub) {
                            return;
                        }
                        st.last_activity = now;
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
                                *op == sub || st.transfer.get_subs().any(|get| get == sub)
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
                    // the state this event applies to (Fig 5). The first
                    // event judged builds the transfer's pending index.
                    if self.config.buffer_events && st.transfer.holds(&key) {
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
                    if st.kind.is_transfer() && st.transfer.can_resume() =>
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
        st.transfer.abort();
        st.close();
        let (kind, dst, pattern) = (st.kind, st.dst, st.pattern);
        let had_chunks = st.transfer.chunks() > 0;
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
            for sub in st.transfer.get_subs() {
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

    /// One run of a per-flow get's records arriving from the source — a
    /// lone `Chunk` is a run of one, and both take this one path. What
    /// [`Transfer::admit_run`] leaves of it becomes one put: one sub-op,
    /// one window slot, one content hash and one reference exchange.
    fn stream_run(
        &mut self,
        sub: OpId,
        chunk: StateChunk,
        rest: Vec<StateChunk>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some((parent, SubRole::Get(class), st)) = self.live_sub(sub) else { return };
        st.last_activity = now;
        if let Some((seq, chunk, rest)) = st.transfer.admit_run(sub, class, chunk, rest) {
            let put_sub = self.alloc_sub(parent, SubRole::Put { class, seq });
            let put = if self.config.content_cache {
                Put::reference(put_sub, class, chunk, rest)
            } else {
                Put::full(class.put_perflow(put_sub, chunk, rest))
            };
            self.span(now, parent, Some(put_sub), SpanEvent::Issued { kind: put.msg.kind_name() });
            self.enqueue_put(parent, seq, put, now, out);
        }
        self.maybe_complete(parent, now, out);
    }

    /// Queue put `seq` of `op` and refill the window. A running op queues
    /// only while its window is full, so no put overtakes an earlier one.
    fn enqueue_put(&mut self, op: OpId, seq: u64, put: Put, now: SimTime, out: &mut Vec<Action>) {
        if let Some(st) = self.ops.get_mut(&op) {
            st.transfer.enqueue(seq, put);
        }
        self.refill_window(op, now, out);
    }

    /// Send queued puts into free window slots: on every new put, ack and
    /// resume, and only while the op runs (a suspended op only queues). A
    /// put's `PutAdmitted` is recorded only here, so admissions mirror the
    /// ledger the I1 window invariant counts.
    fn refill_window(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        let window = self.config.transfer_window as usize;
        let Some(st) = self.ops.get_mut(&op) else { return };
        if st.phase != Phase::Running {
            return;
        }
        while let Some((seq, m)) = st.transfer.admit_next(window) {
            self.in_flight_peak = self.in_flight_peak.max(st.transfer.in_flight());
            out.push(Action::ToMb(st.dst, m));
            let admitted = SpanEvent::PutAdmitted { seq };
            self.obs.record(now.0, self.obs_tag, Some(op.0), None, admitted);
        }
    }

    /// Resume a stalled or parked transfer with a fresh deadline: re-send
    /// every open get and unacked put verbatim (same sub-op ids; the
    /// source's sync marks, the record dedup and the destination's put
    /// log make that idempotent), then refill the window. False (and
    /// nothing done) when the op is not in progress, out of resume
    /// budget, or has an endpoint down.
    fn resume_op(&mut self, op: OpId, now: SimTime, out: &mut Vec<Action>) -> bool {
        let deadline = now.after(self.config.op_deadline);
        let Some(st) = self.ops.get_mut(&op) else { return false };
        if !matches!(st.phase, Phase::Running | Phase::Suspended)
            || self.unreachable.contains(&st.src)
            || self.unreachable.contains(&st.dst)
        {
            return false;
        }
        let Some(from_seq) = st.transfer.resume() else { return false };
        if st.phase == Phase::Suspended {
            st.set_phase(Phase::Running);
        }
        st.last_activity = now;
        st.deadline = deadline;
        self.obs.record(now.0, self.obs_tag, Some(op.0), None, SpanEvent::Resumed { from_seq });
        out.extend(st.transfer.open_gets().map(|m| Action::ToMb(st.src, m.clone())));
        out.extend(st.transfer.unacked().map(|m| Action::ToMb(st.dst, m.clone())));
        self.refill_window(op, now, out);
        true
    }

    /// Report a transfer complete once every get has closed and every
    /// put is acked. (Simple kinds complete in `finish_simple`.)
    fn maybe_complete(&mut self, parent: OpId, now: SimTime, out: &mut Vec<Action>) {
        let Some(st) = self.ops.get_mut(&parent) else { return };
        if !st.phase.live() || st.transfer.outstanding() {
            return;
        }
        let c = match st.kind {
            OpKind::Move => {
                Completion::MoveComplete { op: parent, chunks_moved: st.transfer.chunks() }
            }
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
                && st.kind.is_transfer()
                && st.transfer.can_resume()
                && st.transfer.outstanding()
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
        self.op_state(op).map_or(0, |s| s.transfer.chunks())
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
            s.transfer.add_ledger(&mut agg);
        }
        agg
    }
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
            buffered: Vec::new(),
            last_activity: now,
            deadline: now.after(config.op_deadline),
            retry: None,
            events_forwarded: 0,
            shared_puts: Vec::new(),
            subs: Vec::new(),
            transfer: Transfer::new(config.max_transfer_resumes),
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

    /// Enter [`Phase::Closed`] and free what no handler reads past it:
    /// every chunk, ack, need and get handler returns on a closed op, so
    /// the retry schedule and the transfer's ledger are dead. The open
    /// puts' sub-ops join the ids the op drops when it retires.
    fn close(&mut self) {
        self.set_phase(Phase::Closed);
        self.retry = None;
        self.subs.extend(self.transfer.close());
    }
}
