//! Chain-wide atomic moves: one transaction over an ordered set of
//! per-hop transfers.
//!
//! The paper's scenarios move flows between *single* middleboxes, but
//! deployed traffic traverses MB **chains** (firewall → IPS → RE — the
//! gap Active Switching and Stratos target). Scaling or migrating a
//! chain means every MB in it must hand the flow group's state to its
//! replacement, and the hand-offs must be atomic *as a set*: a chain
//! whose firewall state moved but whose IPS state did not leaves the
//! flow group split across generations, which no routing update can
//! express.
//!
//! [`crate::controller::Request::ChainMove`] runs a
//! [`ChainSpec`] as one transaction:
//!
//! * **Admission is whole-chain.** Every hop's `(flowspace, src, dst)`
//!   registers in the [`crate::router::ShardRouter`] conflict table
//!   under the chain's id before any southbound traffic is issued, and
//!   the verdict is computed over the union of hop conflict sets — so
//!   all hops pin to ONE shard's FIFO, or the chain defers until its
//!   cross-shard blockers close. Registering the whole footprint
//!   up-front (never hop-by-hop) is what makes two chains with
//!   reversed hop orders deadlock-free: there is no incremental lock
//!   acquisition to interleave.
//! * **Hops run in order.** Hop `k+1`'s per-flow move is issued only
//!   once hop `k`'s [`crate::shard::Completion::MoveComplete`] arrives.
//!   Each hop is an ordinary windowed, resumable move on the chain's
//!   shard, with all of the shard's ledgers (acked-delete, rollback,
//!   resume) intact.
//! * **Commit is all-or-nothing.** Only when the last hop completes
//!   does the chain emit [`crate::shard::Completion::ChainComplete`].
//!   If any hop fails (deadline, endpoint loss, validation), the hop
//!   itself has already rolled its own partial destination state back;
//!   the chain then *compensates* the hops that did complete by moving
//!   their state back (`dst → src`) in reverse chain order. Before a
//!   completed hop is reversed, its forward op is force-quiesced
//!   (`end_op`) and the rollback waits for the op to fully close —
//!   source-side deletes *acked* — so a late quiescence delete can
//!   never land after the reverse move re-puts the state it targets.
//!   Reverse moves are full moves — DeleteState rollback, acked-delete
//!   ledger, resume — so when the rollback finishes, every hop's
//!   middleboxes hold state byte-identical to the pre-move image (the
//!   invariant the harness's `conformance_chain` suite replays under
//!   fault schedules and at every controller crash point).
//!   A reverse move can itself fail (its target may be the endpoint
//!   that just crashed); it is retried, paced by the maintenance tick
//!   and reachability events, up to
//!   [`crate::shard::ControllerConfig::chain_rollback_retries`] times.
//!
//! Chain ids live in their own [`CHAIN_OP_BASE`] namespace, far above
//! any shard's residue-class allocation: they never appear in
//! southbound traffic (only the per-hop ops do), so demux arithmetic
//! is untouched, and the engine can tell "chain" from "shard op" by a
//! single compare.

use openmb_types::{Error, HeaderFieldList, MbId, OpId};

use crate::shard::Completion;

/// First op id of the chain namespace. Shard residue allocation counts
/// up from 1 and could not plausibly reach this in any run; chain ids
/// count up from here. Southbound messages never carry a chain id.
pub const CHAIN_OP_BASE: u64 = 1 << 62;

/// Is `op` a chain-transaction id (vs a shard-allocated operation)?
pub fn is_chain_op(op: OpId) -> bool {
    op.0 >= CHAIN_OP_BASE
}

/// One hop of a chain move: the MB currently holding the flow group's
/// state at this position, and the MB that must hold it afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainHop {
    /// Current instance at this chain position.
    pub src: MbId,
    /// Replacement instance the state moves to.
    pub dst: MbId,
}

/// A chain-wide move request: one flow group, relocated across every
/// position of an MB chain in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// The flow group every hop moves — one flowspace for the whole
    /// chain, because the chain processes one traffic aggregate.
    pub pattern: HeaderFieldList,
    /// The hops, in chain order (hop 0 is the chain's ingress MB).
    pub hops: Vec<ChainHop>,
}

impl ChainSpec {
    /// A chain over `hops` moving the flow group `pattern`.
    pub fn new(pattern: HeaderFieldList, hops: Vec<ChainHop>) -> Self {
        ChainSpec { pattern, hops }
    }

    /// The router conflict entries this chain occupies: one per hop,
    /// all carrying the chain's flowspace.
    pub(crate) fn router_entries(&self) -> Vec<(HeaderFieldList, MbId, MbId)> {
        self.hops.iter().map(|h| (self.pattern, h.src, h.dst)).collect()
    }
}

/// Where a chain transaction currently stands (diagnostics, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStatus {
    /// Admitted with cross-shard blockers; no hop has issued traffic.
    Deferred,
    /// Hop `.0` is in flight; hops before it have completed.
    Forward(usize),
    /// A hop failed; completed hops are being compensated in reverse
    /// order, `.0` the hop currently (or next) being undone.
    Rollback(usize),
}

/// The phase machine of one live chain.
#[derive(Debug, Clone)]
pub(crate) enum ChainPhase {
    /// Waiting for the listed cross-shard blockers to close before
    /// hop 0 may issue. (Blocker lists are snapshots taken at
    /// admission, so the wait-for graph only points at earlier
    /// admissions — acyclic, hence deadlock-free.)
    Deferred { blockers: Vec<(usize, OpId)> },
    /// Hop `hop` is running as shard operation `op`.
    Forward { hop: usize, op: OpId },
    /// Compensating. `undo` is the completed hop being reversed; `op`
    /// the reverse move in flight. `op: None` means waiting — for the
    /// forward op of `undo` to close (its quiescence deletes acked)
    /// when `paced` is false, or for a paced entry point (tick,
    /// reachability change) to retry a failed reverse when `paced` is
    /// true.
    Rollback { undo: usize, op: Option<OpId>, retries_left: u32, paced: bool },
}

/// One live chain transaction inside the engine. `Clone` so the whole
/// [`crate::controller::ControllerCore`] still journals/restores across
/// controller crashes with chain progress intact.
#[derive(Debug, Clone)]
pub(crate) struct ChainRun {
    pub id: OpId,
    pub spec: ChainSpec,
    /// The one shard every hop runs on.
    pub shard: usize,
    pub phase: ChainPhase,
    /// Chunks moved by completed forward hops (reported on commit).
    pub chunks_moved: usize,
    /// Forward op id of every hop issued so far (index = hop).
    pub hop_ops: Vec<OpId>,
    /// Reverse (compensation) ops issued, as `(hop, op)` — kept so the
    /// engine can re-register any still-draining op when the chain
    /// settles.
    pub aux_ops: Vec<(usize, OpId)>,
    /// The error that triggered the rollback, reported with the
    /// chain's terminal `Failed` completion.
    pub error: Option<Error>,
    /// Reprocess events dropped by failed/aborted hops, summed into
    /// the terminal `Failed` completion.
    pub dropped_events: usize,
}

impl ChainRun {
    /// Public phase view.
    pub fn status(&self) -> ChainStatus {
        match self.phase {
            ChainPhase::Deferred { .. } => ChainStatus::Deferred,
            ChainPhase::Forward { hop, .. } => ChainStatus::Forward(hop),
            ChainPhase::Rollback { undo, .. } => ChainStatus::Rollback(undo),
        }
    }

    /// Is this chain waiting on shard operation `op` — its in-flight
    /// forward hop or reverse move?
    pub fn awaits(&self, op: OpId) -> bool {
        matches!(
            self.phase,
            ChainPhase::Forward { op: e, .. } | ChainPhase::Rollback { op: Some(e), .. } if e == op
        )
    }

    /// The chain's terminal `Failed` completion carrying `error`.
    pub fn failed(&self, error: Error) -> Completion {
        Completion::Failed { op: self.id, error, dropped_events: self.dropped_events }
    }
}
