//! The MB controller (§5): one engine, sharded, driven by every
//! embedding.
//!
//! [`ControllerCore`] owns `config.shards` [`ControllerShard`]s — each
//! a complete pure state machine with its own op table, transfers and
//! pending-delete ledger — the [`ShardRouter`]
//! that decides which shard runs an operation, and the table of live
//! chain transactions ([`crate::chain`]):
//!
//! * **Transfers** (`moveInternal`, `cloneSupport`, `mergeInternal`)
//!   hash `(flowspace, MB pair)` to a shard, unless they *conflict*
//!   with a live transfer — share a middlebox and have flowspaces that
//!   can select a common flow (direction-insensitively) — in which
//!   case they are pinned to that transfer's shard, where per-shard
//!   FIFO ordering serializes them. A transfer whose conflict set
//!   spans *several* shards is reserved on the earliest conflicting
//!   op's shard with no southbound traffic, and released once every
//!   conflicting op on the other shards has closed.
//! * **Southbound messages** demux by op-id residue: shard `s` of `N`
//!   allocates ids `≡ s + 1 (mod N)`, so ownership is `(id - 1) % N` —
//!   O(1) arithmetic, nothing shared. Op-less introspection events
//!   route via the subscription table; anything unattributable is
//!   broadcast (non-owners drop it).
//!
//! **One engine, two calling conventions.** Every method takes `&self`
//! and appends the [`Action`]s to perform to a caller-supplied `out`,
//! so the caller executes sends and completions outside all locks. The
//! simulator ([`crate::nodes::ControllerNode`]) calls it from its one
//! event loop; OS threads (the TCP pump and blocking northbound
//! callers in [`crate::tcp`], benchmark drivers through
//! [`crate::parallel::ShardedController`]) call the *same* methods
//! concurrently. There is no second implementation to drift.
//!
//! **Locks.** Each shard sits in its own mutex; the router and the
//! chain table each have theirs. The order is always
//! router → chains → shard, and a thread holding a shard lock never
//! asks for another lock, so there is no cycle. While the router lock
//! is held, shard state is only *consulted* (conflict-table pruning,
//! deferral and chain sweeps) via `try_lock` — conservative on
//! contention ("not closed yet", re-checked by the next sweep), never
//! blocking admission on a busy shard. A southbound frame with nothing
//! deferred and no live chain takes the owning shard's lock once per
//! run of consecutive inner messages that shard owns, and the router
//! lock once per call.
//!
//! **Determinism.** On the single-threaded simulator no lock is ever
//! contended, so every `try_lock` succeeds and the engine is a pure
//! function of its call sequence: same op ids, same action order, same
//! timelines, which keeps the seeded conformance corpus byte-identical
//! on replay. Deferral and chain sweeps run once per entry-point call;
//! the simulator flattens `Batch` frames before they reach the core,
//! so for it a call is one message.
//!
//! **Configuration** is fixed at [`ControllerCore::new`] and changed
//! only through [`ControllerCore::update_config`] (`&mut self`: no
//! concurrent callers), which pushes the new tunables down to every
//! shard once. `Clone` locks and copies the whole machine — shards,
//! router, chains — so `ControllerNode`'s crash journal snapshots a
//! consistent cut.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use openmb_obs::{HealthSnapshot, LedgerHealth, NodeTag, Recorder, ShardHealth, SpanEvent};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::{EventFilter, Message};
use openmb_types::{
    ConfigValue, Error, FlowKey, HeaderFieldList, HierarchicalKey, MbId, OpId, StateStats,
};

use crate::chain::{is_chain_op, ChainPhase, ChainRun, ChainSpec, ChainStatus, CHAIN_OP_BASE};
use crate::router::{Admission, Route, ShardRouter};
pub use crate::shard::{
    ControllerShard, OpKind, Phase, TableSizes, TransferLedgerStats, RETIRED_RING,
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
    /// A chain move ([`Request::ChainMove`])
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

/// One northbound request (§5): the whole vocabulary a control program
/// speaks, whatever hosts the controller. [`ControllerCore::submit`]
/// routes it; the DES [`crate::app::Api::submit`] and the blocking
/// [`crate::tcp::TcpController::call`] hand it over unchanged.
///
/// Every variant opens an op and ends in one [`Completion`].
/// [`ControllerCore::end_op`] is not a request: it closes an op rather
/// than opening one, and nothing completes it, so a blocking call would
/// have nothing to wait for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `readConfig(SrcMB, key)`; completes with [`Completion::Config`].
    ReadConfig { mb: MbId, key: HierarchicalKey },
    /// `writeConfig(DstMB, key, values)`; completes with
    /// [`Completion::Ack`].
    WriteConfig { mb: MbId, key: HierarchicalKey, values: Vec<ConfigValue> },
    /// `delConfig(DstMB, key)`; completes with [`Completion::Ack`].
    DelConfig { mb: MbId, key: HierarchicalKey },
    /// `stats(SrcMB, key)`; completes with [`Completion::Stats`].
    Stats { mb: MbId, key: HeaderFieldList },
    /// Subscribe to `mb`'s introspection events (§4.2.2); completes
    /// with [`Completion::Ack`], then events arrive as
    /// [`Completion::MbEvent`].
    EnableEvents { mb: MbId, filter: EventFilter },
    /// `moveInternal(SrcMB, DstMB, key)`; completes with
    /// [`Completion::MoveComplete`].
    Move { src: MbId, dst: MbId, key: HeaderFieldList },
    /// `cloneSupport(SrcMB, DstMB)`; completes with
    /// [`Completion::CloneComplete`].
    Clone { src: MbId, dst: MbId },
    /// `mergeInternal(SrcMB, DstMB)`; completes with
    /// [`Completion::MergeComplete`].
    Merge { src: MbId, dst: MbId },
    /// A chain-wide atomic move ([`crate::chain`]): commits with
    /// [`Completion::ChainComplete`] once every hop's move finishes, or
    /// fails with [`Completion::Failed`] after rolling completed hops
    /// back. Repoint routing on the chain's completion, never on the
    /// per-hop `MoveComplete`s.
    ChainMove(ChainSpec),
}

impl Request {
    /// The shard op this request opens; `None` for a chain move, which
    /// is a transaction over several moves.
    pub fn kind(&self) -> Option<OpKind> {
        Some(match self {
            Request::ReadConfig { .. } => OpKind::ReadConfig,
            Request::WriteConfig { .. } => OpKind::WriteConfig,
            Request::DelConfig { .. } => OpKind::DelConfig,
            Request::Stats { .. } => OpKind::Stats,
            Request::EnableEvents { .. } => OpKind::EnableEvents,
            Request::Move { .. } => OpKind::Move,
            Request::Clone { .. } => OpKind::Clone,
            Request::Merge { .. } => OpKind::Merge,
            Request::ChainMove(_) => return None,
        })
    }
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

/// The sharded controller engine every embedding drives.
pub struct ControllerCore {
    shards: Vec<Mutex<ControllerShard>>,
    router: Mutex<ShardRouter>,
    /// Live chain transactions ([`Request::ChainMove`]);
    /// terminal chains are removed as their completion is emitted.
    chains: Mutex<Vec<ChainRun>>,
    /// `chains.len()`, readable without the lock: the southbound path's
    /// "no live chain" guard. Written under the chains lock; `SeqCst`,
    /// since a reader that sees 0 skips the table altogether.
    live_chains: AtomicUsize,
    /// Next chain id offset above [`CHAIN_OP_BASE`].
    next_chain: AtomicU64,
    /// Engine-level flight recorder handle, so routing, chain and
    /// transport events record without any shard or router lock.
    rec: Mutex<(Recorder, NodeTag)>,
    config: ControllerConfig,
}

/// Locks and copies the whole machine (router → chains → shards) so
/// embeddings can journal a snapshot and restore it after a controller
/// crash without replaying the message history.
impl Clone for ControllerCore {
    fn clone(&self) -> Self {
        let router = lock(&self.router);
        let chains = lock(&self.chains);
        ControllerCore {
            shards: self.shards.iter().map(|sh| Mutex::new(lock(sh).clone())).collect(),
            router: Mutex::new(router.clone()),
            chains: Mutex::new(chains.clone()),
            live_chains: AtomicUsize::new(chains.len()),
            next_chain: AtomicU64::new(self.next_chain.load(Ordering::Relaxed)),
            rec: Mutex::new(lock(&self.rec).clone()),
            config: self.config,
        }
    }
}

/// Take `m`, recovering it from a holder that panicked: the panic
/// surfaces on the panicking caller's thread, and the other callers go
/// on with the table as it was left instead of inheriting the poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The hop-op outcome an action reports, if it is a completion a chain
/// could be waiting on: `Ok(chunks_moved)` or `Err((error, dropped))`.
type HopOutcome = Result<usize, (Error, usize)>;

fn hop_outcome(a: &Action) -> Option<(OpId, HopOutcome)> {
    match a {
        Action::Notify(Completion::MoveComplete { op, chunks_moved }) => {
            Some((*op, Ok(*chunks_moved)))
        }
        Action::Notify(Completion::Failed { op, error, dropped_events }) => {
            Some((*op, Err((error.clone(), *dropped_events))))
        }
        _ => None,
    }
}

/// Turn one core call's actions into wire frames, the way every
/// embedding sends them: `ToMb` messages grouped by destination in
/// first-seen order (per-destination order preserved), a run of more
/// than one wrapped in a single [`Message::Batch`] — window refills,
/// resume re-sends and buffered-event flushes routinely emit runs to
/// one MB. `send` gets each frame plus, for a batch, the
/// `BatchFlushed` span to record before sending it, keyed by the first
/// message's sub-op so per-op timelines show the flush alongside the
/// put it carries. Returns the completions, in order, for the
/// embedding to deliver after the sends.
pub(crate) fn coalesce(
    actions: Vec<Action>,
    mut send: impl FnMut(MbId, Message, Option<(Option<u64>, SpanEvent)>),
) -> Vec<Completion> {
    let mut sends: Vec<(MbId, Vec<Message>)> = Vec::new();
    let mut completions = Vec::new();
    for a in actions {
        match a {
            Action::ToMb(mb, msg) => match sends.iter_mut().find(|(m, _)| *m == mb) {
                Some((_, v)) => v.push(msg),
                None => sends.push((mb, vec![msg])),
            },
            Action::Notify(c) => completions.push(c),
        }
    }
    for (mb, mut msgs) in sends {
        if msgs.len() == 1 {
            send(mb, msgs.pop().expect("len 1"), None);
        } else {
            let count = msgs.len() as u32;
            let flushed = (msgs[0].op_id().map(|o| o.0), SpanEvent::BatchFlushed { count });
            send(mb, Message::Batch { msgs }, Some(flushed));
        }
    }
    completions
}

impl ControllerCore {
    /// A controller with the given tunables; `config.shards` (clamped
    /// to at least 1) fixes the shard count for the core's lifetime.
    pub fn new(config: ControllerConfig) -> Self {
        let n = config.shards.max(1) as usize;
        let shards = (0..n)
            .map(|s| Mutex::new(ControllerShard::with_op_space(config, s as u64 + 1, n as u64)))
            .collect();
        ControllerCore {
            shards,
            router: Mutex::new(ShardRouter::new(n)),
            chains: Mutex::new(Vec::new()),
            live_chains: AtomicUsize::new(0),
            next_chain: AtomicU64::new(0),
            rec: Mutex::new((Recorder::disabled(), NodeTag::NONE)),
            config,
        }
    }

    /// Number of shards this core runs.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current tunables.
    pub fn config(&self) -> ControllerConfig {
        self.config
    }

    /// Change tunables and push them down to every shard, once.
    /// `shards` is structural — read by [`ControllerCore::new`] only;
    /// changing it here has no effect on the running core.
    pub fn update_config(&mut self, edit: impl FnOnce(&mut ControllerConfig)) {
        edit(&mut self.config);
        for sh in &self.shards {
            lock(sh).config = self.config;
        }
    }

    /// The shard that owns operation `op` (by op-id residue).
    pub fn shard_of_op(&self, op: OpId) -> usize {
        ShardRouter::owner_of_op(self.shards.len(), op)
    }

    /// Demux one (unbatched) southbound message. Op-carrying messages —
    /// the hot path — resolve by residue arithmetic with no lock; only
    /// op-less introspection events take the router lock, briefly.
    fn route(&self, from: MbId, msg: &Message) -> Route {
        ShardRouter::route_by_op(self.shards.len(), msg)
            .unwrap_or_else(|| lock(&self.router).route_message(from, msg))
    }

    /// The shard an incoming southbound message will be delivered to —
    /// embeddings that model per-shard service (the sim's
    /// `ControllerNode` work queues) use this to pick the queue.
    /// Broadcast messages are accounted to shard 0.
    pub fn shard_of_message(&self, from: MbId, msg: &Message) -> usize {
        match self.route(from, msg) {
            Route::Shard(s) => s,
            Route::Broadcast => 0,
        }
    }

    /// Install a flight recorder. "controller" is registered once and
    /// the tag shared across shards, so a sharded run still renders as
    /// one controller column in the op timeline.
    pub fn set_recorder(&self, rec: Recorder) {
        let tag = rec.register("controller");
        *lock(&self.rec) = (rec.clone(), tag);
        for sh in &self.shards {
            lock(sh).set_recorder_with_tag(rec.clone(), tag);
        }
    }

    /// The installed flight recorder handle (disabled by default).
    pub fn recorder(&self) -> Recorder {
        lock(&self.rec).0.clone()
    }

    /// Record an engine-level event (routing, chain phases, an
    /// embedding's transport resets) under the controller's node tag,
    /// without taking any shard or router lock.
    pub(crate) fn record(&self, t_ns: u64, op: Option<u64>, sub: Option<u64>, ev: SpanEvent) {
        let (rec, tag) = &*lock(&self.rec);
        rec.record(t_ns, *tag, op, sub, ev);
    }

    /// Register a middlebox; returns its handle. Every shard learns of
    /// every MB (registration is control-plane metadata, not per-shard
    /// state).
    pub fn register_mb(&self) -> MbId {
        let mut id = None;
        for sh in &self.shards {
            let got = lock(sh).register_mb();
            debug_assert!(id.is_none_or(|i| i == got));
            id = Some(got);
        }
        id.expect("at least one shard")
    }

    // ------------------------------------------------------------------
    // Northbound operations
    // ------------------------------------------------------------------

    /// Open the op `req` asks for; the one place a northbound request
    /// is routed. Simple requests route by MB hash: no conflict entry
    /// and — placement being pure arithmetic — no router lock, except
    /// that `EnableEvents` records its shard so op-less introspection
    /// events from the MB route to the shard holding the subscription.
    /// Transfers are admitted through the conflict detector
    /// (`cloneSupport` and `mergeInternal` move *all* shared state, so
    /// their conflict flowspace is the wildcard pattern); chain moves
    /// through the chain table.
    pub fn submit(&self, req: Request, now: SimTime, out: &mut Vec<Action>) -> OpId {
        let any = HeaderFieldList::any();
        let (kind, pattern, src, dst) = match req {
            Request::ChainMove(spec) => return self.admit_chain(spec, now, out),
            Request::Move { src, dst, key } => (OpKind::Move, key, src, dst),
            Request::Clone { src, dst } => (OpKind::Clone, any, src, dst),
            Request::Merge { src, dst } => (OpKind::Merge, any, src, dst),
            Request::ReadConfig { mb, .. }
            | Request::WriteConfig { mb, .. }
            | Request::DelConfig { mb, .. }
            | Request::Stats { mb, .. }
            | Request::EnableEvents { mb, .. } => {
                let s = ShardRouter::place_simple(self.shards.len(), mb);
                if let Request::EnableEvents { .. } = req {
                    lock(&self.router).note_subscription(mb, s);
                }
                return lock(&self.shards[s]).issue(req, now, out);
            }
        };
        self.admit_transfer(kind, pattern, src, dst, now, out)
    }

    /// Has shard op `op` fully closed? Consulted with `try_lock` (the
    /// caller holds the router lock): a contended shard answers "not
    /// yet" and is re-checked by the next sweep.
    fn shard_op_closed(&self, shard: usize, op: OpId) -> bool {
        match self.shards[shard].try_lock() {
            Ok(sh) => sh.op_closed(op),
            Err(TryLockError::Poisoned(e)) => e.into_inner().op_closed(op),
            Err(TryLockError::WouldBlock) => false,
        }
    }

    /// Has `(shard, op)` fully closed, chain-aware: chain ids close when
    /// the chain transaction leaves the table, shard ops when their
    /// shard says so. Every router prune and release sweep goes through
    /// here — a shard answers `true` for *unknown* ops, so asking it
    /// about a live chain id would free a deferral early.
    fn closed(&self, chains: &[ChainRun], shard: usize, op: OpId) -> bool {
        if is_chain_op(op) {
            !chains.iter().any(|c| c.id == op)
        } else {
            self.shard_op_closed(shard, op)
        }
    }

    /// Transfer admission: the router lock is held across prune +
    /// verdict + issue + registration, so two racing admissions with
    /// overlapping flowspaces cannot both hash-place (the second must
    /// observe the first's conflict entry). The op either runs on its
    /// shard or — when the conflict set spans several shards — is
    /// reserved there and queued behind its cross-shard blockers.
    /// Either way the flowspace registers as live, so later admissions
    /// serialize against the op from the moment its id exists.
    fn admit_transfer(
        &self,
        kind: OpKind,
        pattern: HeaderFieldList,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let start = out.len();
        let (op, s, pinned) = {
            let mut router = lock(&self.router);
            {
                let chains = lock(&self.chains);
                router.prune(|shard, op| self.closed(&chains, shard, op));
            }
            let (s, pinned, blockers) = match router.admit(&pattern, src, dst) {
                Admission::Run { shard, pinned } => (shard, pinned, Vec::new()),
                Admission::Defer { shard, blockers } => (shard, true, blockers),
            };
            let mut sh = lock(&self.shards[s]);
            let op = sh.start_transfer(kind, src, dst, pattern, !blockers.is_empty(), now, out);
            router.register_transfer(op, pattern, src, dst, s);
            if !blockers.is_empty() && !sh.op_closed(op) {
                // op_closed here means validation failed fast: the op is
                // already terminal and must never sit in the release queue.
                router.push_deferred(op, s, blockers);
            }
            (op, s, pinned)
        };
        self.record(now.0, Some(op.0), None, SpanEvent::OpRouted { shard: s as u32, pinned });
        // Admission pruned the conflict table; that may have been the
        // last close an earlier deferral was waiting on.
        self.sweep(now, out, start, false);
        op
    }

    /// `endOp`. (`now` timestamps the quiescence deletes this issues;
    /// any deferral this unblocks is still released by the next
    /// state-advancing entry point — tick or message.)
    pub fn end_op(&self, op: OpId, now: SimTime, out: &mut Vec<Action>) {
        lock(&self.shards[self.shard_of_op(op)]).end_op(op, now, out);
    }

    // ------------------------------------------------------------------
    // Chain transactions
    // ------------------------------------------------------------------

    /// Run `spec` as one chain-wide atomic move (see [`crate::chain`]):
    /// ordered per-hop transfers of the flow group across every MB
    /// pair in the chain, committing with [`Completion::ChainComplete`]
    /// only when ALL hops complete, and compensating completed hops
    /// with reverse moves — restoring the byte-identical pre-move
    /// image — if any hop fails. The returned id lives in the chain
    /// namespace above [`CHAIN_OP_BASE`]; per-hop moves run as ordinary
    /// shard ops under it.
    ///
    /// Admission is whole-chain: every hop registers in the conflict
    /// table (all on one shard) before hop 0 issues, so overlapping
    /// admissions — single transfers or other chains, whatever their
    /// hop order — serialize behind the entire chain rather than
    /// interleaving with it hop by hop.
    fn admit_chain(&self, spec: ChainSpec, now: SimTime, out: &mut Vec<Action>) -> OpId {
        let start = out.len();
        let id = OpId(CHAIN_OP_BASE + self.next_chain.fetch_add(1, Ordering::Relaxed));
        // Hops must be pairwise MB-disjoint: a chain is one position per
        // middlebox pair. Overlapping pairs would make hop k+1 pick up
        // state hop k just delivered — a pipeline, not a transaction.
        let mut mbs: Vec<MbId> = spec.hops.iter().flat_map(|h| [h.src, h.dst]).collect();
        mbs.sort_unstable();
        mbs.dedup();
        let invalid = if spec.hops.is_empty() {
            Some("chain move with no hops")
        } else if mbs.len() != spec.hops.len() * 2 {
            Some("chain hops must use disjoint middlebox pairs")
        } else {
            None
        };
        if let Some(why) = invalid {
            out.push(Action::Notify(Completion::Failed {
                op: id,
                error: Error::OpFailed(why.into()),
                dropped_events: 0,
            }));
            return id;
        }
        let entries = spec.router_entries();
        {
            // Router and chain table together: the chain's conflict
            // entries and its table row must appear atomically, or a
            // racing prune would see a chain id with no live chain
            // behind it and drop the entries.
            let mut router = lock(&self.router);
            let mut chains = lock(&self.chains);
            router.prune(|shard, op| self.closed(&chains, shard, op));
            let (shard, pinned, blockers) = match router.admit_chain(&entries) {
                Admission::Run { shard, pinned } => (shard, pinned, Vec::new()),
                Admission::Defer { shard, blockers } => (shard, true, blockers),
            };
            router.register_chain(id, &entries, shard);
            self.record(
                now.0,
                Some(id.0),
                None,
                SpanEvent::OpRouted { shard: shard as u32, pinned },
            );
            let deferred = !blockers.is_empty();
            chains.push(ChainRun {
                id,
                spec,
                shard,
                // Replaced by issue_hop (Forward) unless deferred.
                phase: ChainPhase::Deferred { blockers },
                chunks_moved: 0,
                hop_ops: Vec::new(),
                aux_ops: Vec::new(),
                error: None,
                dropped_events: 0,
            });
            self.live_chains.store(chains.len(), Ordering::SeqCst);
            if !deferred {
                self.issue_hop(chains.last_mut().expect("just pushed"), 0, now, out);
            }
        }
        // Hop 0 may have failed fast (dead endpoint): consume the
        // completion and settle the chain in the same call.
        self.advance_chains(now, out, start, false);
        id
    }

    /// One move of chain `c` — a hop forward, or its compensating
    /// reverse — issued directly on the chain's shard and recorded as
    /// pinned there.
    fn issue_chain_move(
        &self,
        c: &ChainRun,
        src: MbId,
        dst: MbId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> OpId {
        let mut sh = lock(&self.shards[c.shard]);
        let op = sh.start_transfer(OpKind::Move, src, dst, c.spec.pattern, false, now, out);
        drop(sh);
        let routed = SpanEvent::OpRouted { shard: c.shard as u32, pinned: true };
        self.record(now.0, Some(op.0), None, routed);
        op
    }

    /// Issue the forward move of hop `hop` for chain `c`, directly on
    /// the chain's shard. The router is NOT consulted: the chain's own
    /// conflict entries already cover this hop's exact footprint, so
    /// anything that could conflict with the hop is either pinned to
    /// this same shard (FIFO-serialized) or parked as a reservation
    /// that emits no traffic until the chain closes.
    fn issue_hop(&self, c: &mut ChainRun, hop: usize, now: SimTime, out: &mut Vec<Action>) {
        let h = c.spec.hops[hop];
        let op = self.issue_chain_move(c, h.src, h.dst, now, out);
        self.record(now.0, Some(c.id.0), None, SpanEvent::ChainHop { hop: hop as u32 });
        c.phase = ChainPhase::Forward { hop, op };
        c.hop_ops.push(op);
    }

    /// Rollback retries left for `c`: carried in its phase once it is
    /// rolling back, the configured budget before that.
    fn retries_left(&self, c: &ChainRun) -> u32 {
        match c.phase {
            ChainPhase::Rollback { retries_left, .. } => retries_left,
            _ => self.config.chain_rollback_retries,
        }
    }

    /// Start undoing completed hop `undo` of chain `c`: force-quiesce
    /// its forward op (`end_op` issues the source-side deletes NOW
    /// instead of waiting out the quiescence timer) and park the phase
    /// until that op fully closes. Issuing the reverse move before the
    /// forward op's deletes are *acked* would race them: a re-sent
    /// delete landing after the reverse move's puts would destroy the
    /// state the rollback just restored.
    fn begin_undo(&self, c: &mut ChainRun, undo: usize, now: SimTime, out: &mut Vec<Action>) {
        lock(&self.shards[c.shard]).end_op(c.hop_ops[undo], now, out);
        let retries_left = self.retries_left(c);
        c.phase = ChainPhase::Rollback { undo, op: None, retries_left, paced: false };
    }

    /// Issue the compensating reverse move (`dst → src`) of completed
    /// hop `undo` for chain `c`. Only called once hop `undo`'s forward
    /// op has closed (see [`Self::begin_undo`]).
    fn issue_reverse(&self, c: &mut ChainRun, undo: usize, now: SimTime, out: &mut Vec<Action>) {
        let h = c.spec.hops[undo];
        let op = self.issue_chain_move(c, h.dst, h.src, now, out);
        let undone = SpanEvent::ChainUndo { hop: undo as u32, undoes: c.hop_ops[undo].0 };
        self.record(now.0, Some(c.id.0), None, undone);
        c.aux_ops.push((undo, op));
        let retries_left = self.retries_left(c);
        c.phase = ChainPhase::Rollback { undo, op: Some(op), retries_left, paced: false };
    }

    /// Emit the completion of terminal chain `c` (already removed from
    /// the table). Hop ops (and reverse ops) that can still emit
    /// southbound traffic — pending quiescence or compensating deletes
    /// — are re-registered in the conflict table under their own ids,
    /// so later admissions on the chain's flowspace keep serializing
    /// behind the drain exactly as they would behind a single
    /// transfer's close-out.
    fn settle_chain(
        &self,
        router: &mut ShardRouter,
        c: ChainRun,
        completion: Completion,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let hop_iter = c.hop_ops.iter().enumerate().map(|(hop, op)| (hop, *op));
        for (hop, op) in hop_iter.chain(c.aux_ops.iter().copied()) {
            if !self.shard_op_closed(c.shard, op) {
                let h = c.spec.hops[hop];
                router.register_transfer(op, c.spec.pattern, h.src, h.dst, c.shard);
            }
        }
        let ended = match &completion {
            Completion::Failed { error, .. } => SpanEvent::Aborted { error: error.to_string() },
            _ => SpanEvent::Completed,
        };
        self.record(now.0, Some(c.id.0), None, ended);
        out.push(Action::Notify(completion));
    }

    /// Advance every live chain against the completions appended to
    /// `out` since `start`, to a fixpoint. Runs at the tail of every
    /// state-advancing entry point; one atomic load when no chain is
    /// live. `reissue` (true from the paced entry points: tick,
    /// reachability changes) re-attempts a rollback's reverse move
    /// that failed earlier — failures usually mean the target endpoint
    /// is down, so back-to-back retries inside one call would only burn
    /// the retry budget.
    ///
    /// Consuming completions from `out` is race-free: hop moves never
    /// complete synchronously (a move always awaits MB replies), so a
    /// completion for a chain's expected op can only appear in the
    /// region this very call appended — whichever thread made the call
    /// — and once consumed, the phase's expected op changes, making the
    /// scan idempotent.
    fn advance_chains(&self, now: SimTime, out: &mut Vec<Action>, start: usize, reissue: bool) {
        if self.live_chains.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut closed_any = false;
        {
            // The router lock too: settling re-registers draining hop
            // ops, and the order is router → chains.
            let mut router = lock(&self.router);
            let mut chains = lock(&self.chains);
            if reissue {
                // Un-park paced rollback retries; the fixpoint below
                // re-issues them (and anything else whose wait is over).
                for c in chains.iter_mut() {
                    if let ChainPhase::Rollback { paced: paced @ true, op: None, .. } = &mut c.phase
                    {
                        *paced = false;
                    }
                }
            }
            'fixpoint: loop {
                // Deferred chains whose blockers have all closed start
                // hop 0.
                for ci in 0..chains.len() {
                    if let ChainPhase::Deferred { blockers } = &chains[ci].phase {
                        if blockers.iter().all(|&(s, op)| self.closed(&chains, s, op)) {
                            self.issue_hop(&mut chains[ci], 0, now, out);
                            continue 'fixpoint;
                        }
                    }
                }
                // Rollbacks waiting on their hop's forward op to close
                // issue the reverse move the moment the deletes are
                // acked.
                for c in chains.iter_mut() {
                    if let ChainPhase::Rollback { undo, op: None, paced: false, .. } = c.phase {
                        if self.shard_op_closed(c.shard, c.hop_ops[undo]) {
                            self.issue_reverse(c, undo, now, out);
                            continue 'fixpoint;
                        }
                    }
                }
                // One phase transition per pass: find the first
                // completion in the scan region that concludes some
                // chain's in-flight op, apply it, and rescan (the
                // transition may append new actions — a fail-fast hop,
                // a commit notification).
                for i in start..out.len() {
                    let Some((op, outcome)) = hop_outcome(&out[i]) else { continue };
                    let Some(ci) = chains.iter().position(|c| c.awaits(op)) else { continue };
                    let c = &mut chains[ci];
                    let terminal = match (c.phase.clone(), outcome) {
                        (ChainPhase::Forward { hop, .. }, Ok(chunks)) => {
                            c.chunks_moved += chunks;
                            if hop + 1 < c.spec.hops.len() {
                                self.issue_hop(c, hop + 1, now, out);
                                None
                            } else {
                                Some(Completion::ChainComplete {
                                    op: c.id,
                                    hops: c.spec.hops.len(),
                                    chunks_moved: c.chunks_moved,
                                })
                            }
                        }
                        (ChainPhase::Forward { hop, .. }, Err((error, dropped))) => {
                            c.dropped_events += dropped;
                            c.error = Some(error.clone());
                            if hop == 0 {
                                // Nothing completed: abort clean.
                                Some(c.failed(error))
                            } else {
                                // Force-quiesce the completed hop; its
                                // close gates the reverse move.
                                self.begin_undo(c, hop - 1, now, out);
                                None
                            }
                        }
                        (ChainPhase::Rollback { undo, .. }, Ok(_)) => {
                            if undo == 0 {
                                let error = c.error.clone();
                                Some(c.failed(
                                    error.unwrap_or_else(|| {
                                        Error::OpFailed("chain hop failed".into())
                                    }),
                                ))
                            } else {
                                self.begin_undo(c, undo - 1, now, out);
                                None
                            }
                        }
                        (ChainPhase::Rollback { undo, retries_left, .. }, Err((_, dropped))) => {
                            c.dropped_events += dropped;
                            if retries_left == 0 {
                                Some(c.failed(Error::OpFailed("chain rollback incomplete".into())))
                            } else {
                                // Park; a paced entry point (tick /
                                // reachability) retries.
                                c.phase = ChainPhase::Rollback {
                                    undo,
                                    op: None,
                                    retries_left: retries_left - 1,
                                    paced: true,
                                };
                                None
                            }
                        }
                        (ChainPhase::Deferred { .. }, _) => unreachable!("deferred awaits no op"),
                    };
                    if let Some(completion) = terminal {
                        let c = chains.remove(ci);
                        self.live_chains.store(chains.len(), Ordering::SeqCst);
                        self.settle_chain(&mut router, c, completion, now, out);
                        closed_any = true;
                    }
                    continue 'fixpoint;
                }
                break;
            }
        }
        if closed_any {
            // A closed chain may have been the last blocker of a
            // deferred transfer (or another chain — handled above).
            self.release_deferred(now, out);
        }
    }

    /// Release reserved transfers whose cross-shard blockers have all
    /// closed: one router-lock round trip when nothing is deferred (the
    /// overwhelmingly common case), a sweep over the queue otherwise.
    /// The releases themselves run after the router lock is dropped,
    /// locking only each released op's own shard.
    fn release_deferred(&self, now: SimTime, out: &mut Vec<Action>) {
        let ready = {
            let mut router = lock(&self.router);
            if !router.has_deferred() {
                return;
            }
            let chains = lock(&self.chains);
            router.drain_releasable(|shard, op| self.closed(&chains, shard, op))
        };
        for (shard, op) in ready {
            lock(&self.shards[shard]).release_transfer(op, now, out);
        }
    }

    /// The tail of every state-advancing entry point: whatever the call
    /// did may have closed the last blocker of a deferral, or completed
    /// or failed the in-flight hop of a chain (its completion sits in
    /// `out[start..]`).
    fn sweep(&self, now: SimTime, out: &mut Vec<Action>, start: usize, reissue: bool) {
        self.release_deferred(now, out);
        self.advance_chains(now, out, start, reissue);
    }

    // ------------------------------------------------------------------
    // Southbound
    // ------------------------------------------------------------------

    /// Process one frame arriving from middlebox `from`: each inner
    /// message of a `Batch` routes independently to its owning shard
    /// (or to all shards, for the rare unattributable message), and a
    /// run of consecutive messages one shard owns is handled under one
    /// acquisition of that shard's lock. The guard is dropped before
    /// another shard's lock or the router lock (an op-less message) is
    /// taken, so a thread still holds at most one shard lock and never
    /// asks for another lock under it. The deferral and chain sweeps
    /// then run once for the whole frame.
    pub fn handle_mb_message(&self, from: MbId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        let start = out.len();
        let mut held: Option<(usize, MutexGuard<'_, ControllerShard>)> = None;
        msg.for_each_unbatched(|m| {
            let route = ShardRouter::route_by_op(self.shards.len(), &m).unwrap_or_else(|| {
                drop(held.take());
                lock(&self.router).route_message(from, &m)
            });
            match route {
                Route::Shard(s) => {
                    if held.as_ref().map(|(h, _)| *h) != Some(s) {
                        drop(held.take());
                        held = Some((s, lock(&self.shards[s])));
                    }
                    let (_, sh) = held.as_mut().expect("locked above");
                    sh.handle_mb_message(from, m, now, out);
                }
                Route::Broadcast => {
                    for sh in &self.shards {
                        lock(sh).handle_mb_message(from, m.clone(), now, out);
                    }
                }
            }
        });
        drop(held);
        self.sweep(now, out, start, false);
    }

    /// An MB became unreachable: every shard may hold ops touching it,
    /// so all of them must park/abort — correctness over hot-path cost
    /// (reachability changes are rare). Aborted blockers count as
    /// closed; an aborted hop op sends its chain into rollback.
    pub fn mark_unreachable(&self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        let start = out.len();
        for sh in &self.shards {
            lock(sh).mark_unreachable(mb, now, out);
        }
        self.sweep(now, out, start, false);
    }

    /// An MB came back: broadcast, mirroring `mark_unreachable`. The
    /// endpoint a parked reverse move was waiting for may be back, so
    /// rollbacks are re-attempted now.
    pub fn mark_reachable(&self, mb: MbId, now: SimTime, out: &mut Vec<Action>) {
        let start = out.len();
        for sh in &self.shards {
            lock(sh).mark_reachable(mb, now, out);
        }
        self.sweep(now, out, start, true);
    }

    /// Is `mb` currently marked unreachable? (The set is broadcast, so
    /// any shard can answer.)
    pub fn is_unreachable(&self, mb: MbId) -> bool {
        lock(&self.shards[0]).is_unreachable(mb)
    }

    /// Periodic maintenance, shard by shard in index order — the order
    /// is fixed so a seeded sim run replays byte-identically.
    /// Quiescence and deadline aborts close ops: this is the sweep that
    /// eventually releases any deferral, whatever else happens, starts
    /// rollbacks for deadline-aborted hops, and gives parked reverse
    /// moves their paced re-attempt.
    pub fn tick(&self, now: SimTime, out: &mut Vec<Action>) {
        let start = out.len();
        for sh in &self.shards {
            lock(sh).tick(now, out);
        }
        self.sweep(now, out, start, true);
    }

    // ------------------------------------------------------------------
    // Introspection / metrics
    // ------------------------------------------------------------------

    /// Operations not yet quiesced plus actively re-delivered deletes,
    /// across all shards — plus live chain transactions, so embeddings
    /// keep the maintenance timer armed while a chain is between hops
    /// or pacing a rollback retry.
    pub fn open_ops(&self) -> usize {
        self.shards.iter().map(|s| lock(s).open_ops()).sum::<usize>() + self.open_chains()
    }

    /// Chain transactions still running (any phase).
    pub fn open_chains(&self) -> usize {
        self.live_chains.load(Ordering::SeqCst)
    }

    /// Current phase of chain `id`; `None` once terminal (its
    /// [`Completion::ChainComplete`] / [`Completion::Failed`] has been
    /// emitted) or for ids that are not chains.
    pub fn chain_status(&self, id: OpId) -> Option<ChainStatus> {
        lock(&self.chains).iter().find(|c| c.id == id).map(|c| c.status())
    }

    /// Forward hop ops issued so far by live chain `id`, in hop order
    /// (diagnostics, tests). Empty once the chain is terminal.
    pub fn chain_hop_ops(&self, id: OpId) -> Vec<OpId> {
        let chains = lock(&self.chains);
        chains.iter().find(|c| c.id == id).map(|c| c.hop_ops.clone()).unwrap_or_default()
    }

    /// Southbound messages brokered, across all shards.
    pub fn messages_handled(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).messages_handled).sum()
    }

    /// Peak reprocess-event buffer depth observed on any one shard.
    pub fn events_buffered_peak(&self) -> usize {
        self.shards.iter().map(|s| lock(s).events_buffered_peak).max().unwrap_or(0)
    }

    /// Events forwarded under an operation (experiments).
    pub fn events_forwarded(&self, op: OpId) -> u64 {
        lock(&self.shards[self.shard_of_op(op)]).events_forwarded(op)
    }

    /// Total chunks transferred under an operation (experiments).
    pub fn chunks_moved(&self, op: OpId) -> usize {
        lock(&self.shards[self.shard_of_op(op)]).chunks_moved(op)
    }

    /// Where shard op `op` is in its lifecycle (DESIGN §10); `None` for
    /// an id its shard never issued, chain ids included, and `Closed`
    /// for one it has retired.
    pub fn op_phase(&self, op: OpId) -> Option<Phase> {
        lock(&self.shards[self.shard_of_op(op)]).phase(op)
    }

    /// Entry counts of every table the controller keeps, summed over
    /// shards, plus the router's conflict table — the numbers that must
    /// stay flat over an unbounded run (DESIGN §10, "Op lifetime").
    pub fn table_sizes(&self) -> TableSizes {
        let mut sum = TableSizes { conflicts: self.active_transfers(), ..TableSizes::default() };
        for sh in &self.shards {
            let t = lock(sh).table_sizes();
            sum.ops += t.ops;
            sum.sub_ops += t.sub_ops;
            sum.tombstones += t.tombstones;
            sum.pending_deletes += t.pending_deletes;
        }
        sum
    }

    /// Transfer-ledger snapshot for `op`: per-op fields come from the
    /// owning shard (every other shard reports zero for an op it does
    /// not know); cache counters are summed across shards;
    /// `in_flight_peak` is the largest any single shard saw (each
    /// shard's ledger is independently window-bounded, which is the
    /// invariant the conformance suite asserts).
    pub fn transfer_ledger_stats(&self, op: OpId) -> TransferLedgerStats {
        let mut merged = TransferLedgerStats::default();
        for sh in &self.shards {
            let s = lock(sh).transfer_ledger_stats(op);
            merged.puts_in_flight += s.puts_in_flight;
            merged.puts_queued += s.puts_queued;
            merged.ack_set_size += s.ack_set_size;
            merged.bodies_in_flight += s.bodies_in_flight;
            merged.in_flight_peak = merged.in_flight_peak.max(s.in_flight_peak);
            merged.cache_hits += s.cache_hits;
            merged.cache_misses += s.cache_misses;
            merged.bodies_sent += s.bodies_sent;
            merged.bytes_saved += s.bytes_saved;
        }
        merged
    }

    /// One point-in-time health capture: per-shard load, deferred ops,
    /// open chains, and the aggregate transfer ledger. `violations` is
    /// supplied by the caller (the invariant [`openmb_obs::Monitor`]
    /// lives in the embedding, not in the core); queue depth / busy
    /// fields are zero here and filled in by embeddings that model
    /// per-shard service queues (the sim's `ControllerNode`).
    pub fn health_snapshot(&self, t_ns: u64, violations: u64) -> HealthSnapshot {
        let mut ledger = LedgerHealth::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, sh) in self.shards.iter().enumerate() {
            let sh = lock(sh);
            let a = sh.aggregate_ledger_stats();
            ledger.puts_in_flight += a.puts_in_flight as u64;
            ledger.puts_queued += a.puts_queued as u64;
            ledger.ack_set_size += a.ack_set_size as u64;
            ledger.bodies_in_flight += a.bodies_in_flight as u64;
            ledger.in_flight_peak = ledger.in_flight_peak.max(a.in_flight_peak as u64);
            ledger.cache_hits += a.cache_hits;
            ledger.cache_misses += a.cache_misses;
            ledger.bodies_sent += a.bodies_sent;
            ledger.bytes_saved += a.bytes_saved;
            shards.push(ShardHealth {
                shard: i as u32,
                open_ops: sh.open_ops() as u64,
                deferred_ops: sh.deferred_ops() as u64,
                queue_depth: 0,
                queue_depth_peak: 0,
                busy: false,
            });
        }
        HealthSnapshot { t_ns, shards, open_chains: self.open_chains() as u64, ledger, violations }
    }

    /// Live transfers currently pinned in the router's conflict table
    /// (diagnostics; shrinks lazily on the next admission).
    pub fn active_transfers(&self) -> usize {
        lock(&self.router).active_transfers()
    }

    /// Transfers reserved under a cross-shard conflict and still
    /// awaiting release (diagnostics, tests).
    pub fn deferred_transfers(&self) -> usize {
        lock(&self.router).deferred_transfers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_simnet::SimTime;
    use openmb_types::IpPrefix;
    use std::net::Ipv4Addr;

    /// Two-sided subnet pattern — flows staying inside `10.b.0.0/16`,
    /// the disjoint-tenant flowspace shape the bench uses.
    fn subnet(b: u8) -> HeaderFieldList {
        let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
        HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
    }

    fn sharded(n: u32) -> (ControllerCore, MbId, MbId, MbId, MbId) {
        let core =
            ControllerCore::new(ControllerConfig { shards: n, ..ControllerConfig::default() });
        let a = core.register_mb();
        let b = core.register_mb();
        let c = core.register_mb();
        let d = core.register_mb();
        (core, a, b, c, d)
    }

    #[test]
    fn single_shard_alloc_matches_legacy_sequence() {
        let (core, a, b, _, _) = sharded(1);
        let mut out = Vec::new();
        let op1 =
            core.submit(Request::Move { src: a, dst: b, key: subnet(0) }, SimTime(0), &mut out);
        assert_eq!(core.shard_of_op(op1), 0);
        // Shard 0 of 1 allocates 1, 2, 3, … — op 1 plus its sub-ops,
        // exactly the pre-sharding id stream.
        assert_eq!(op1, OpId(1));
    }

    #[test]
    fn disjoint_moves_get_disjoint_op_residues() {
        let core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let mut out = Vec::new();
        // Four disjoint-subnet moves on four disjoint MB pairs: none
        // conflict, so placement is pure hash and must actually spread
        // over more than one shard (ledger disjointness is what the
        // multi-op bench's speedup rests on).
        let shards: std::collections::HashSet<usize> = (0..4usize)
            .map(|i| {
                let op = core.submit(
                    Request::Move { src: mbs[2 * i], dst: mbs[2 * i + 1], key: subnet(i as u8) },
                    SimTime(0),
                    &mut out,
                );
                assert_eq!((op.0 - 1) % 4, core.shard_of_op(op) as u64);
                core.shard_of_op(op)
            })
            .collect();
        assert!(shards.len() > 1, "disjoint moves must parallelize: {shards:?}");
    }

    #[test]
    fn overlapping_move_is_pinned_to_the_live_ops_shard() {
        let (core, a, b, c, _) = sharded(4);
        let mut out = Vec::new();
        let op1 =
            core.submit(Request::Move { src: a, dst: b, key: subnet(0) }, SimTime(0), &mut out);
        // Same flowspace on a pair sharing MB `b`: must serialize on
        // op1's shard regardless of its own hash.
        let op2 =
            core.submit(Request::Move { src: b, dst: c, key: subnet(0) }, SimTime(0), &mut out);
        assert_eq!(core.shard_of_op(op1), core.shard_of_op(op2));
        assert_eq!(core.active_transfers(), 2);
    }

    #[test]
    fn bridging_clone_defers_then_releases_when_its_blocker_closes() {
        let core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        // Two disjoint moves whose hash placements differ (such a pair
        // exists: the bench subnets spread over more than one shard).
        let place =
            |i: usize| ShardRouter::hash_placement(4, &subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("bench subnets spread over more than one shard");
        let mut out = Vec::new();
        let op_a = core.submit(
            Request::Move { src: mbs[2 * i], dst: mbs[2 * i + 1], key: subnet(i as u8) },
            SimTime(0),
            &mut out,
        );
        out.clear();
        let op_b = core.submit(
            Request::Move { src: mbs[2 * j], dst: mbs[2 * j + 1], key: subnet(j as u8) },
            SimTime(0),
            &mut out,
        );
        assert_ne!(core.shard_of_op(op_a), core.shard_of_op(op_b));
        let subs_b: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(_, Message::GetSupportPerflow { op, .. })
                | Action::ToMb(_, Message::GetReportPerflow { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(subs_b.len(), 2);
        out.clear();
        // A wildcard clone bridging one endpoint of each live move
        // conflicts on two shards at once: it must reserve without any
        // southbound traffic, on the earliest conflicting op's shard.
        let op_c = core.submit(
            Request::Clone { src: mbs[2 * i + 1], dst: mbs[2 * j] },
            SimTime(0),
            &mut out,
        );
        assert!(
            out.iter().all(|a| !matches!(a, Action::ToMb(..))),
            "a deferred transfer must emit no southbound traffic: {out:?}"
        );
        assert_eq!(core.deferred_transfers(), 1);
        assert_eq!(core.shard_of_op(op_c), core.shard_of_op(op_a));
        out.clear();
        // Close the blocking move (op_b, the one on the other shard):
        // empty get streams complete it...
        let src_b = mbs[2 * j];
        let t1 = SimTime(1_000_000);
        for sub in &subs_b {
            core.handle_mb_message(src_b, Message::GetAck { op: *sub, count: 0 }, t1, &mut out);
        }
        // ...but completed-not-quiesced still owes deletes: not closed.
        assert_eq!(core.deferred_transfers(), 1);
        out.clear();
        // Quiescence (500ms after last activity) emits the source-side
        // deletes; the op stays open until they are acked.
        core.tick(SimTime(601_000_000), &mut out);
        let dels: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(_, Message::DelSupportPerflow { op, .. })
                | Action::ToMb(_, Message::DelReportPerflow { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(dels.len(), 2);
        assert_eq!(core.deferred_transfers(), 1);
        out.clear();
        // Acking both deletes fully closes op_b; the release fires
        // inside the same handle_mb_message call and the clone finally
        // issues its shared get — with op_a still live on its own
        // shard, where FIFO ordering serializes the remaining conflict.
        core.handle_mb_message(
            src_b,
            Message::OpAck { op: dels[0] },
            SimTime(602_000_000),
            &mut out,
        );
        core.handle_mb_message(
            src_b,
            Message::OpAck { op: dels[1] },
            SimTime(603_000_000),
            &mut out,
        );
        assert_eq!(core.deferred_transfers(), 0);
        let gets: Vec<&Action> = out
            .iter()
            .filter(|a| matches!(a, Action::ToMb(_, Message::GetSupportShared { .. })))
            .collect();
        assert_eq!(gets.len(), 1, "released clone must issue its shared get: {out:?}");
    }

    /// The `(sub, src)` pairs of a move's two get requests in `out`.
    fn move_gets(out: &[Action]) -> Vec<(OpId, MbId)> {
        out.iter()
            .filter_map(|a| match a {
                Action::ToMb(mb, Message::GetSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::GetReportPerflow { op, .. }) => Some((*op, *mb)),
                _ => None,
            })
            .collect()
    }

    /// Complete a move whose two gets are in `out[at..]` by answering
    /// both with empty streams; returns the remainder of the actions.
    fn ack_gets(core: &ControllerCore, gets: &[(OpId, MbId)], t: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        for (sub, mb) in gets {
            core.handle_mb_message(*mb, Message::GetAck { op: *sub, count: 0 }, t, &mut out);
        }
        out
    }

    #[test]
    fn chain_runs_hops_in_order_and_commits_once() {
        use crate::chain::{ChainHop, ChainSpec, ChainStatus};
        let (core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.submit(
            Request::ChainMove(ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            )),
            SimTime(0),
            &mut out,
        );
        assert!(chain.0 >= crate::chain::CHAIN_OP_BASE);
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(0)));
        // Only hop 0's gets are on the wire; hop 1 must wait.
        let gets0 = move_gets(&out);
        assert_eq!(gets0.len(), 2);
        assert!(gets0.iter().all(|&(_, mb)| mb == a), "hop 0 streams from {a}: {out:?}");
        // Every hop entry occupies the conflict table under the chain id.
        assert_eq!(core.active_transfers(), 2);
        // Completing hop 0 issues hop 1 in the same southbound call.
        let out1 = ack_gets(&core, &gets0, SimTime(1_000_000));
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(1)));
        let gets1 = move_gets(&out1);
        assert_eq!(gets1.len(), 2);
        assert!(gets1.iter().all(|&(_, mb)| mb == c));
        assert!(
            !out1.iter().any(|x| matches!(x, Action::Notify(Completion::ChainComplete { .. }))),
            "chain must not commit before its last hop"
        );
        // Both hop ops run on the chain's one shard.
        let hops = core.chain_hop_ops(chain);
        assert_eq!(hops.len(), 2);
        assert_eq!(core.shard_of_op(hops[0]), core.shard_of_op(hops[1]));
        // Completing hop 1 commits the chain.
        let out2 = ack_gets(&core, &gets1, SimTime(2_000_000));
        assert!(
            out2.iter().any(|x| matches!(
                x,
                Action::Notify(Completion::ChainComplete { op, hops: 2, .. }) if *op == chain
            )),
            "commit expected: {out2:?}"
        );
        assert_eq!(core.chain_status(chain), None);
        assert_eq!(core.open_chains(), 0);
    }

    #[test]
    fn chain_hop_failure_compensates_completed_hops_in_reverse() {
        use crate::chain::{ChainHop, ChainSpec, ChainStatus};
        let (core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.submit(
            Request::ChainMove(ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            )),
            SimTime(0),
            &mut out,
        );
        let gets0 = move_gets(&out);
        let out1 = ack_gets(&core, &gets0, SimTime(1_000_000));
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Forward(1)));
        // Hop 1's destination dies: the hop aborts and the chain starts
        // compensating hop 0 — but FIRST it force-quiesces hop 0's
        // forward op (source-side deletes at a), because a delete
        // re-sent after the reverse move's puts would destroy the very
        // state the rollback restores.
        let _ = out1;
        let mut out2 = Vec::new();
        core.mark_unreachable(d, SimTime(2_000_000), &mut out2);
        assert_eq!(core.chain_status(chain), Some(ChainStatus::Rollback(0)));
        assert!(move_gets(&out2).is_empty(), "no reverse move before hop 0 closes: {out2:?}");
        let dels: Vec<(OpId, MbId)> = out2
            .iter()
            .filter_map(|x| match x {
                Action::ToMb(mb, Message::DelSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::DelReportPerflow { op, .. }) => Some((*op, *mb)),
                _ => None,
            })
            .collect();
        assert_eq!(dels.len(), 2, "hop 0 force-quiesce deletes at its source: {out2:?}");
        assert!(dels.iter().all(|&(_, mb)| mb == a));
        // Acking the deletes closes hop 0's forward op; the reverse
        // move (state back from b to a) issues in the same call.
        let mut out3 = Vec::new();
        for (sub, mb) in &dels {
            core.handle_mb_message(*mb, Message::OpAck { op: *sub }, SimTime(2_500_000), &mut out3);
        }
        let rev = move_gets(&out3);
        assert_eq!(rev.len(), 2);
        assert!(rev.iter().all(|&(_, mb)| mb == b), "reverse move streams from {b}: {out3:?}");
        // Completing the reverse move settles the chain as Failed with
        // the hop's original error.
        let out3 = ack_gets(&core, &rev, SimTime(3_000_000));
        let failed = out3.iter().find_map(|x| match x {
            Action::Notify(Completion::Failed { op, error, .. }) if *op == chain => Some(error),
            _ => None,
        });
        assert!(
            matches!(failed, Some(Error::MbUnreachable(mb)) if *mb == d),
            "chain Failed with the aborting hop's error expected: {out3:?}"
        );
        assert_eq!(core.chain_status(chain), None);
    }

    #[test]
    fn chain_with_dead_first_hop_aborts_without_compensation() {
        use crate::chain::{ChainHop, ChainSpec};
        let (core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        core.mark_unreachable(a, SimTime(0), &mut out);
        out.clear();
        let chain = core.submit(
            Request::ChainMove(ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            )),
            SimTime(0),
            &mut out,
        );
        // Hop 0 fails fast; nothing completed, so the chain settles in
        // the same call with no reverse traffic.
        assert!(out.iter().any(|x| matches!(
            x,
            Action::Notify(Completion::Failed { op, .. }) if *op == chain
        )));
        assert_eq!(core.chain_status(chain), None);
        assert!(move_gets(&out).is_empty());
    }

    #[test]
    fn chain_rejects_overlapping_hop_pairs() {
        use crate::chain::{ChainHop, ChainSpec};
        let (core, a, b, c, _) = sharded(2);
        let mut out = Vec::new();
        let chain = core.submit(
            Request::ChainMove(ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: b, dst: c }],
            )),
            SimTime(0),
            &mut out,
        );
        assert!(out.iter().any(|x| matches!(
            x,
            Action::Notify(Completion::Failed { op, .. }) if *op == chain
        )));
        assert_eq!(core.active_transfers(), 0, "a rejected chain must pin nothing");
    }

    #[test]
    fn transfers_overlapping_a_chain_serialize_behind_the_whole_chain() {
        use crate::chain::{ChainHop, ChainSpec};
        let (core, a, b, c, d) = sharded(4);
        let mut out = Vec::new();
        let chain = core.submit(
            Request::ChainMove(ChainSpec::new(
                subnet(0),
                vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
            )),
            SimTime(0),
            &mut out,
        );
        // A single-pair move overlapping the LAST hop's MB pair pins to
        // the chain's shard even while the chain is still on hop 0.
        let mut out2 = Vec::new();
        let op =
            core.submit(Request::Move { src: d, dst: a, key: subnet(0) }, SimTime(0), &mut out2);
        let hops = core.chain_hop_ops(chain);
        assert_eq!(core.shard_of_op(op), core.shard_of_op(hops[0]));
    }

    #[test]
    fn deferred_transfer_is_released_when_its_blocker_aborts_on_deadline() {
        let core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let place =
            |i: usize| ShardRouter::hash_placement(4, &subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("bench subnets spread over more than one shard");
        let mut out = Vec::new();
        let op_a = core.submit(
            Request::Move { src: mbs[2 * i], dst: mbs[2 * i + 1], key: subnet(i as u8) },
            SimTime(0),
            &mut out,
        );
        let op_b = core.submit(
            Request::Move { src: mbs[2 * j], dst: mbs[2 * j + 1], key: subnet(j as u8) },
            SimTime(0),
            &mut out,
        );
        assert_ne!(core.shard_of_op(op_a), core.shard_of_op(op_b));
        out.clear();
        // Bridging clone admitted 5s in: defers behind the cross-shard
        // blocker, with its own deadline running from t=5s.
        let t5 = SimTime(5_000_000_000);
        let op_c =
            core.submit(Request::Clone { src: mbs[2 * i + 1], dst: mbs[2 * j] }, t5, &mut out);
        assert_eq!(core.deferred_transfers(), 1);
        assert_eq!(core.op_phase(op_c), Some(Phase::Deferred));
        out.clear();
        // At t=11s both moves blow their 10s deadline and abort. The
        // aborted blocker counts as closed, so the SAME tick must
        // release the clone — which, at 6s of age, is still inside its
        // own deadline and finally issues its shared get.
        core.tick(SimTime(11_000_000_000), &mut out);
        let aborted: Vec<OpId> = out
            .iter()
            .filter_map(|a| match a {
                Action::Notify(Completion::Failed { op, .. }) => Some(*op),
                _ => None,
            })
            .collect();
        assert!(aborted.contains(&op_a) && aborted.contains(&op_b), "both moves abort: {out:?}");
        assert!(!aborted.contains(&op_c), "the released clone must not abort: {out:?}");
        assert_eq!(core.deferred_transfers(), 0);
        assert!(
            out.iter().any(
                |a| matches!(a, Action::ToMb(_, Message::GetSupportShared { op }) if *op != op_a)
            ),
            "released clone issues its shared get in the deadline tick: {out:?}"
        );
        assert_eq!(core.op_phase(op_c), Some(Phase::Running));
    }

    /// A caller that panics while holding a shard or the router lock
    /// does not take the engine down with it: the next callers recover
    /// the locks and go on.
    #[test]
    fn a_panicked_lock_holder_leaves_the_engine_usable() {
        let (core, a, b, ..) = sharded(2);
        std::thread::scope(|s| {
            for m in [&core.shards[0], &core.shards[1]] {
                let held = s.spawn(|| {
                    let _g = lock(m);
                    panic!("a caller panics holding a shard lock");
                });
                assert!(held.join().is_err());
            }
            let held = s.spawn(|| {
                let _g = lock(&core.router);
                panic!("a caller panics holding the router lock");
            });
            assert!(held.join().is_err());
        });
        assert!(core.shards[0].is_poisoned() && core.router.is_poisoned());
        let mut out = Vec::new();
        let op = core.submit(
            Request::Move { src: a, dst: b, key: HeaderFieldList::any() },
            SimTime(0),
            &mut out,
        );
        assert_eq!(core.op_phase(op), Some(Phase::Running));
        assert_eq!(core.open_ops(), 1);
    }

    #[test]
    fn update_config_reaches_every_shard_at_once() {
        let (mut core, ..) = sharded(2);
        core.update_config(|c| c.transfer_window = 7);
        assert_eq!(core.config().transfer_window, 7);
        for sh in &core.shards {
            assert_eq!(lock(sh).config.transfer_window, 7);
        }
    }

    /// A two-shard core running one move per shard, MB `a` subscribed
    /// to introspection events, and a batch from `a` that alternates
    /// between the two moves' report gets — support gets' empty acks,
    /// then one chunk each per round — with an op-less introspection
    /// event in the middle.
    fn two_shard_batch() -> (ControllerCore, MbId, Vec<Message>) {
        use openmb_types::crypto::VendorKey;
        use openmb_types::wire::Event;
        use openmb_types::{EncryptedChunk, FlowKey, StateChunk};
        let (core, a, b, c, d) = sharded(2);
        let place = |p: HeaderFieldList, s, t| ShardRouter::hash_placement(2, &p, s, t);
        let j = (1..=255u8)
            .find(|&j| place(subnet(j), c, d) != place(subnet(0), a, b))
            .expect("some subnet lands on the other shard");
        let mut out = Vec::new();
        core.submit(
            Request::EnableEvents { mb: a, filter: EventFilter::all() },
            SimTime(0),
            &mut out,
        );
        let mut gets = Vec::new();
        for (src, dst, net) in [(a, b, 0), (c, d, j)] {
            let mut out = Vec::new();
            core.submit(Request::Move { src, dst, key: subnet(net) }, SimTime(0), &mut out);
            gets.push((net, move_gets(&out)));
        }
        assert_ne!(core.shard_of_op(gets[0].1[0].0), core.shard_of_op(gets[1].1[0].0));
        let flow = |net: u8, i: u8| {
            FlowKey::tcp(Ipv4Addr::new(10, net, 0, i), 1000, Ipv4Addr::new(10, net, 1, 1), 80)
        };
        let vendor = VendorKey::derive("prads");
        let mut msgs: Vec<Message> =
            gets.iter().map(|(_, g)| Message::GetAck { op: g[0].0, count: 0 }).collect();
        for i in 0..4u8 {
            if i == 2 {
                let event = Event::Introspection { code: 7, key: flow(0, 0), values: Vec::new() };
                msgs.push(Message::EventMsg { event });
            }
            for (net, g) in &gets {
                let body = EncryptedChunk::seal(&vendor, u64::from(i), &[i; 16]);
                let chunk = StateChunk::new(HeaderFieldList::exact(flow(*net, i)), body);
                msgs.push(Message::Chunk { op: g[1].0, chunk });
            }
        }
        (core, a, msgs)
    }

    #[test]
    fn a_batch_across_two_shards_acts_as_its_messages_one_by_one() {
        let (batched, from, msgs) = two_shard_batch();
        let (single, _, _) = two_shard_batch();
        let mut want = Vec::new();
        for m in msgs.clone() {
            single.handle_mb_message(from, m, SimTime(1), &mut want);
        }
        let mut got = Vec::new();
        batched.handle_mb_message(from, Message::Batch { msgs }, SimTime(1), &mut got);
        assert_eq!(got, want);
        // Eight references, and the event's notification between the
        // first four and the last four.
        let is_ref = |a: &Action| matches!(a, Action::ToMb(_, Message::ChunkRef { .. }));
        let event =
            got.iter().position(|a| matches!(a, Action::Notify(Completion::MbEvent { .. })));
        assert_eq!(event, Some(4), "{got:?}");
        assert_eq!(got.iter().filter(|a| is_ref(a)).count(), 8);
        assert_eq!(batched.messages_handled(), single.messages_handled());
    }

    #[test]
    fn batches_across_shards_beside_admissions_do_not_deadlock() {
        use std::sync::{mpsc, Arc, Barrier};
        let (core, from, msgs) = two_shard_batch();
        let core = Arc::new(core);
        let (e, f) = (core.register_mb(), core.register_mb());
        let (done, finished) = mpsc::channel();
        let start = Arc::new(Barrier::new(2));
        let admitter = {
            let (core, done, start) = (Arc::clone(&core), done.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                // Router lock, then a shard's: the order the batch path
                // must never invert.
                for k in 0..1_000u32 {
                    let mut out = Vec::new();
                    core.submit(
                        Request::Move { src: e, dst: f, key: subnet((k % 200) as u8 + 50) },
                        SimTime(0),
                        &mut out,
                    );
                }
                done.send(()).expect("test is waiting");
            })
        };
        let batcher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..1_000 {
                    let batch = Message::Batch { msgs: msgs.clone() };
                    core.handle_mb_message(from, batch, SimTime(1), &mut Vec::new());
                }
                done.send(()).expect("test is waiting");
            })
        };
        for _ in 0..2 {
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a batch and an admission deadlocked");
        }
        admitter.join().expect("admitter panicked");
        batcher.join().expect("batcher panicked");
    }

    /// `Clone` copies the router's deferral queue with the shards: a
    /// copy taken while a move is deferred releases it, on the copy,
    /// in the call that closes its last blocker there.
    #[test]
    fn a_clone_holding_a_deferral_releases_it_when_its_blocker_closes() {
        let core =
            ControllerCore::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| core.register_mb()).collect();
        let place =
            |i: usize| ShardRouter::hash_placement(4, &subnet(i as u8), mbs[2 * i], mbs[2 * i + 1]);
        let (i, j) = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && place(a) != place(b))
            .expect("bench subnets spread over more than one shard");
        let mut out = Vec::new();
        core.submit(
            Request::Move { src: mbs[2 * i], dst: mbs[2 * i + 1], key: subnet(i as u8) },
            SimTime(0),
            &mut out,
        );
        out.clear();
        core.submit(
            Request::Move { src: mbs[2 * j], dst: mbs[2 * j + 1], key: subnet(j as u8) },
            SimTime(0),
            &mut out,
        );
        let blocker = move_gets(&out);
        out.clear();
        // A wildcard move bridging both live moves defers.
        let op = core.submit(
            Request::Move { src: mbs[2 * i + 1], dst: mbs[2 * j], key: HeaderFieldList::any() },
            SimTime(0),
            &mut out,
        );
        assert_eq!(core.op_phase(op), Some(Phase::Deferred));

        // Close the cross-shard blocker on a copy: its gets complete,
        // quiescence sends its deletes, and acking the last one must
        // release the deferred move in that same call.
        let copy = core.clone();
        ack_gets(&copy, &blocker, SimTime(1_000_000));
        out.clear();
        copy.tick(SimTime(601_000_000), &mut out);
        let dels: Vec<(MbId, OpId)> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToMb(mb, Message::DelSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::DelReportPerflow { op, .. }) => Some((*mb, *op)),
                _ => None,
            })
            .collect();
        let [(mb0, del0), (mb1, del1)] = dels[..] else { panic!("two deletes: {out:?}") };
        let t = SimTime(602_000_000);
        copy.handle_mb_message(mb0, Message::OpAck { op: del0 }, t, &mut out);
        assert_eq!(copy.op_phase(op), Some(Phase::Deferred), "one delete is still owed");
        let mut released = Vec::new();
        copy.handle_mb_message(mb1, Message::OpAck { op: del1 }, t, &mut released);
        assert_eq!(copy.op_phase(op), Some(Phase::Running));
        assert_eq!(
            move_gets(&released).len(),
            2,
            "the released move issues its gets: {released:?}"
        );
        assert_eq!(copy.deferred_transfers(), 0);
        // The original still holds its own deferral.
        assert_eq!(core.op_phase(op), Some(Phase::Deferred));
    }
}
