//! # openmb-mb
//!
//! The MB-facing ("southbound") API of OpenMB (§4 of the paper), as a
//! Rust trait: [`Middlebox`]. A middlebox implementation provides
//!
//! * the thirteen state operations of §4.1 (get/set/del configuration,
//!   get/put/del per-flow supporting & reporting state, get/put shared
//!   supporting & reporting state),
//! * packet processing with an explicit external-side-effect channel
//!   ([`Effects`]), so the §4.2.1 replay rule — "processes the packet as
//!   normal to update state, except it does not perform external
//!   side-effects" — is enforced by construction, and
//! * reprocess/introspection event generation, with the bookkeeping
//!   (which state is currently moved or cloned, and under which
//!   operation) factored into the reusable [`SyncTracker`].
//!
//! The part of the state operations that is the same for every
//! middlebox — sealing and nonces, export order, moved marks, `stats`
//! accounting, counter blocks — is the [`state`] kit; the trait provides
//! the ten per-class operations for a class an MB does not keep.
//!
//! The division of responsibility of §3.2 is visible in the trait shape:
//! the middlebox alone creates and mutates supporting/reporting state
//! (inside `process_packet`), while the controller — through these
//! methods — only *places* opaque chunks and owns configuration state.
//!
#![doc = include_str!("../MIDDLEBOX.md")]

pub mod cost;
pub mod effects;
pub mod southbound;
pub mod state;
pub mod sync;

pub use cost::CostModel;
pub use effects::{Effects, LogEntry};
pub use southbound::{
    handle_southbound, handle_southbound_into, handle_southbound_logged, replay_packet,
};
pub use state::{Record, Sealer};
pub use sync::SyncTracker;

use openmb_simnet::SimTime;
use openmb_types::wire::ChunkClass;
use openmb_types::{
    ConfigValue, EncryptedChunk, Error, HeaderFieldList, HierarchicalKey, OpId, Packet, Result,
    StateChunk, StateStats,
};

/// A pre-put image of a middlebox's shared state, both classes, taken by
/// the embedding immediately before applying a `Put*Shared` so an aborted
/// clone/merge can be compensated (`DeleteState`). Chunks are sealed with
/// the MB's own vendor key — the snapshot is as opaque to the controller
/// as the puts it undoes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharedSnapshot {
    /// Shared supporting state at snapshot time (`None` = MB held none).
    pub support: Option<EncryptedChunk>,
    /// Shared reporting state at snapshot time (`None` = MB held none).
    pub report: Option<EncryptedChunk>,
}

/// Embedding-side bookkeeping that makes shared puts safe under a
/// resumable controller: a dedup set (a re-sent `Put*Shared` is re-acked
/// without re-merging — merges are not idempotent), a capped log of
/// pre-put [`SharedSnapshot`]s consulted by `DeleteState` to compensate
/// an aborted clone/merge, and the [`ContentStore`] consulted by the
/// content-addressed transfer messages (`ChunkRef`/`ChunkBody`). Lives
/// alongside the MB's logic tables and, like them, survives a crash of
/// the embedding's volatile runtime state — which is precisely why
/// resume-after-crash gets cheap: re-sent refs hit the surviving cache.
#[derive(Debug, Clone)]
pub struct SharedPutLog {
    /// Put sub-op ids that must not be (re)applied: already merged, or
    /// revoked by a rollback while still in flight.
    seen: std::collections::HashSet<OpId>,
    /// `(put sub-op id, shared state image taken just before it was
    /// applied)`, oldest first; rotated once over capacity.
    log: std::collections::VecDeque<(OpId, SharedSnapshot)>,
    /// Destination-side cache of chunk bodies keyed by content hash.
    /// In-memory by default; embeddings pass a
    /// [`openmb_store::FileContentStore`] to survive restarts.
    store: std::sync::Arc<dyn openmb_store::ContentStore>,
}

impl Default for SharedPutLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedPutLog {
    /// Snapshot-log capacity. A transfer issues at most two shared
    /// puts, so 32 keeps several aborted ops' worth of undo images
    /// while bounding memory.
    pub const CAP: usize = 32;

    /// A log holding at most [`Self::CAP`] snapshots, with a fresh
    /// in-memory content store.
    pub fn new() -> Self {
        Self::with_store(std::sync::Arc::new(openmb_store::MemoryContentStore::new()))
    }

    /// Like [`Self::new`], but with a caller-provided content store —
    /// e.g. a file-backed one whose entries survive MB restarts, or a
    /// pre-warmed store shared with an earlier incarnation.
    pub fn with_store(store: std::sync::Arc<dyn openmb_store::ContentStore>) -> Self {
        SharedPutLog {
            seen: std::collections::HashSet::new(),
            log: std::collections::VecDeque::new(),
            store,
        }
    }

    /// The content store backing `ChunkRef`/`ChunkBody` handling.
    pub fn store(&self) -> &std::sync::Arc<dyn openmb_store::ContentStore> {
        &self.store
    }

    /// Whether put `op` was already applied (or revoked): the embedding
    /// must skip the merge and just re-ack.
    pub fn already_applied(&self, op: OpId) -> bool {
        self.seen.contains(&op)
    }

    /// Record that put `op` is being applied, with the pre-put snapshot
    /// to restore if it must be undone. Call *before* replying with the
    /// ack.
    pub fn record(&mut self, op: OpId, snap: SharedSnapshot) {
        self.seen.insert(op);
        self.log.push_back((op, snap));
        while self.log.len() > Self::CAP {
            self.log.pop_front();
        }
    }

    /// Process a `DeleteState { puts }` rollback: returns the snapshot
    /// to restore (the image taken before the *earliest* listed put —
    /// restoring it also undoes every later put) and the number of
    /// listed puts actually undone (0 when the log had already rotated
    /// past them). Every listed put is also revoked, so a copy still in
    /// flight when the abort happened is ignored when it lands instead
    /// of re-creating the orphaned state.
    pub fn rollback(&mut self, puts: &[OpId]) -> (Option<SharedSnapshot>, u32) {
        for &p in puts {
            self.seen.insert(p);
        }
        let Some(first) = self.log.iter().position(|(op, _)| puts.contains(op)) else {
            return (None, 0);
        };
        let restored =
            self.log.iter().skip(first).filter(|(op, _)| puts.contains(op)).count() as u32;
        let snap = self.log[first].1.clone();
        self.log.truncate(first);
        (Some(snap), restored)
    }
}

/// The southbound API (§4). One instance = one running middlebox.
///
/// # State classes and their operations
///
/// | class                | get | put | del | notes |
/// |----------------------|-----|-----|-----|-------|
/// | configuration        | ✓   | set | ✓   | hierarchical keys, `"*"` = all |
/// | per-flow supporting  | ✓   | ✓   | ✓   | `[HeaderFieldList : chunk]` pairs |
/// | shared supporting    | ✓   | ✓   |     | single chunk; put onto a non-empty MB **merges** (MB-side logic) |
/// | per-flow reporting   | ✓   | ✓   | ✓   | never cloned (double reporting) |
/// | shared reporting     | ✓   | ✓   |     | put merges when semantics permit, else starts afresh |
///
/// Gets of per-flow state take the [`OpId`] of the controller operation:
/// exported state is marked *moved* under that operation, and packets
/// that subsequently update moved state raise `Event::Reprocess` tagged
/// with it (§4.2.1).
///
/// The ten per-class operations are provided for a class the MB does
/// not keep — a get finds nothing, a delete removes nothing, a put is
/// [`UnsupportedStateClass`](openmb_types::Error::UnsupportedStateClass)
/// naming the class — so an implementation spells only the classes it
/// has, on top of the [`state`] kit.
pub trait Middlebox {
    /// A short type name ("bro", "prads", "re-decoder", ...). Instances
    /// of the same type share a vendor key, so state chunks move between
    /// them but are opaque to everything else.
    fn mb_type(&self) -> &'static str;

    // ---- configuration state (§4.1.1) ----

    /// Read configuration at `key` (the root key returns the whole
    /// hierarchy, flattened to `(key, values)` pairs).
    fn get_config(&self, key: &HierarchicalKey)
        -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>>;

    /// Create or replace the ordered values at `key`. The middlebox
    /// validates and *applies* the change (e.g. the RE encoder reacts to
    /// `NumCaches` by cloning its cache, §6.1).
    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()>;

    /// Remove the configuration subtree at `key`.
    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()>;

    // ---- per-flow supporting state (§4.1.2) ----

    /// Export all per-flow supporting state matching `key`, marking it
    /// as moved under `op`. Coarser-than-native keys return all matching
    /// chunks at native granularity; finer-than-native keys are an
    /// error.
    fn get_support_perflow(
        &mut self,
        _op: OpId,
        _key: &HeaderFieldList,
    ) -> Result<Vec<StateChunk>> {
        Ok(Vec::new())
    }

    /// Import one chunk of per-flow supporting state.
    fn put_support_perflow(&mut self, _chunk: StateChunk) -> Result<()> {
        Err(Error::UnsupportedStateClass("per-flow supporting".into()))
    }

    /// Remove per-flow supporting state matching `key` (clearing any
    /// moved marks). Returns how many chunks were removed.
    fn del_support_perflow(&mut self, _key: &HeaderFieldList) -> Result<usize> {
        Ok(0)
    }

    // ---- shared supporting state (§4.1.2) ----

    /// Export the MB's shared supporting state as a single chunk,
    /// `None` when the MB maintains none. `op` marks the state as
    /// cloned: until [`end_sync`](Middlebox::end_sync), packets that
    /// update shared state raise reprocess events.
    fn get_support_shared(&mut self, _op: OpId) -> Result<Option<EncryptedChunk>> {
        Ok(None)
    }

    /// Import shared supporting state. If this MB already holds shared
    /// state, the MB's own merge logic combines them (§4.1.2: "the MB
    /// must implement the needed logic for merging").
    fn put_support_shared(&mut self, _chunk: EncryptedChunk) -> Result<()> {
        Err(Error::UnsupportedStateClass("shared supporting".into()))
    }

    // ---- per-flow reporting state (§4.1.3) ----

    /// Export per-flow reporting state matching `key`, marked moved
    /// under `op`.
    fn get_report_perflow(&mut self, _op: OpId, _key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        Ok(Vec::new())
    }

    /// Import one chunk of per-flow reporting state.
    fn put_report_perflow(&mut self, _chunk: StateChunk) -> Result<()> {
        Err(Error::UnsupportedStateClass("per-flow reporting".into()))
    }

    /// Remove per-flow reporting state matching `key`.
    fn del_report_perflow(&mut self, _key: &HeaderFieldList) -> Result<usize> {
        Ok(0)
    }

    // ---- per-flow gets, streamed ----

    /// A per-flow get of `class`, a record at a time: hand each record
    /// `get_support_perflow` / `get_report_perflow` would return to
    /// `out`, in the same order and with the same moved marks, together
    /// with the number of records the get holds. An error comes before
    /// the first record or not at all, so a get is answered with its
    /// error or with its runs, never both.
    ///
    /// Every embedding answers a per-flow get through this method, so
    /// overriding it alone is enough for a get. The default hands over
    /// the records of the `get_*_perflow` call once it has returned. A
    /// middlebox on the [`state`] kit overrides it with
    /// [`state::export_into`] for the class it keeps, so an embedding
    /// can send a get's first runs while the rest are still being
    /// sealed (the TCP serve loop does).
    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        let chunks = match class {
            ChunkClass::Support => self.get_support_perflow(op, key)?,
            ChunkClass::Report => self.get_report_perflow(op, key)?,
            other => return Err(Error::UnsupportedStateClass(format!("{other:?}"))),
        };
        let n = chunks.len();
        chunks.into_iter().for_each(|c| out(n, c));
        Ok(())
    }

    // ---- shared reporting state (§4.1.3) ----

    /// Export shared reporting state (never marked — shared reporting
    /// state is moved/merged, not cloned, so no sync window exists).
    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        Ok(None)
    }

    /// Import shared reporting state: merge when semantics permit
    /// (e.g. additive counters), otherwise keep the resident state and
    /// report [`MergeNotPermitted`](openmb_types::Error::MergeNotPermitted).
    fn put_report_shared(&mut self, _chunk: EncryptedChunk) -> Result<()> {
        Err(Error::UnsupportedStateClass("shared reporting".into()))
    }

    // ---- shared-state rollback (compensation for aborted clone/merge) ----

    /// Capture the MB's current shared state (both classes) without
    /// marking anything cloned — unlike the gets, this opens no sync
    /// window. The default suits MBs that keep no shared state.
    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        Ok(SharedSnapshot::default())
    }

    /// Replace — not merge — the MB's shared state with a snapshot taken
    /// by [`snapshot_shared`](Middlebox::snapshot_shared), undoing every
    /// shared put applied since. `None` fields reset that class to its
    /// pristine (freshly-constructed) value.
    fn restore_shared(&mut self, _snap: SharedSnapshot) -> Result<()> {
        Ok(())
    }

    // ---- stats (§5) ----

    /// How much state matching `key` exists, by class.
    fn stats(&self, key: &HeaderFieldList) -> StateStats;

    // ---- packet processing (§3.2) ----

    /// Process a packet with the MB's proprietary logic, producing
    /// external side effects (forwarded/transformed packet, log lines)
    /// and events through `fx`. When `fx` is in replay mode (§4.2.1),
    /// state updates happen but side effects are suppressed. `now` is
    /// virtual wall-clock time, used for log timestamps and timeouts.
    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects);

    /// Process a non-empty run of packets that share one `FlowKey`, with
    /// the same side effects and state updates as
    /// [`process_packet`](Middlebox::process_packet) on each in order with
    /// the same `now`. The default is that loop. A middlebox whose work is
    /// mostly per flow writes its packet logic here, once, and makes
    /// `process_packet` the run of one (`std::slice::from_ref(pkt)`).
    fn process_run(&mut self, now: SimTime, run: &[Packet], fx: &mut Effects) {
        for pkt in run {
            self.process_packet(now, pkt, fx);
        }
    }

    /// Process a train of packets that arrived back-to-back, producing
    /// the same side effects and state updates as calling
    /// [`process_packet`](Middlebox::process_packet) on each packet in
    /// order with the same `now` — the equivalence every implementation
    /// must preserve, and which the batch-equivalence property tests
    /// check for each type.
    ///
    /// The default cuts the train into maximal same-`FlowKey` runs and
    /// hands each to [`process_run`](Middlebox::process_run): this is
    /// the one place run detection lives.
    fn process_batch(&mut self, now: SimTime, pkts: &[Packet], fx: &mut Effects) {
        for run in pkts.chunk_by(|a, b| a.key == b.key) {
            self.process_run(now, run, fx);
        }
    }

    /// Flush end-of-run state (e.g. an IDS logs still-open connections).
    /// Called by experiments when a trace ends; external side effects go
    /// through `fx` as usual.
    fn finalize(&mut self, _now: SimTime, _fx: &mut Effects) {}

    // ---- introspection gating (§4.2.2) ----

    /// Enable or disable introspection-event *generation*, optionally
    /// restricted by code/key filter ("OpenMB makes it possible to
    /// enable or disable the generation of introspection events based on
    /// event codes and keys"). `None` disables generation entirely.
    /// MBs with no introspection events may ignore this.
    fn set_introspection(&mut self, _filter: Option<openmb_types::wire::EventFilter>) {}

    // ---- sync-window control ----

    /// Stop raising reprocess events for operation `op` (the controller
    /// sends this when its quiescence timer concludes the routing change
    /// has taken effect). Clears moved marks and clone flags tagged `op`.
    fn end_sync(&mut self, op: OpId);

    // ---- cost model ----

    /// Processing costs used by the simulator; see [`CostModel`].
    fn costs(&self) -> CostModel;

    /// Number of pieces of per-flow state currently resident (both
    /// classes); used to model linear-search get cost (§7 note on
    /// wildcard matching) and by experiments.
    fn perflow_entries(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::FlowKey;
    use std::net::Ipv4Addr;

    /// Records each `process_run` it is handed: the run's length and
    /// the id of its first packet.
    #[derive(Default)]
    struct RunRecorder {
        runs: Vec<(usize, u64)>,
    }

    impl Middlebox for RunRecorder {
        fn mb_type(&self) -> &'static str {
            "run-recorder"
        }
        fn get_config(
            &self,
            _key: &HierarchicalKey,
        ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
            Ok(Vec::new())
        }
        fn set_config(&mut self, _key: &HierarchicalKey, _values: Vec<ConfigValue>) -> Result<()> {
            Ok(())
        }
        fn del_config(&mut self, _key: &HierarchicalKey) -> Result<()> {
            Ok(())
        }
        fn stats(&self, _key: &HeaderFieldList) -> StateStats {
            StateStats::default()
        }
        fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
            self.process_run(now, std::slice::from_ref(pkt), fx);
        }
        fn process_run(&mut self, _now: SimTime, run: &[Packet], fx: &mut Effects) {
            assert!(run.iter().all(|p| p.key == run[0].key), "a run shares one FlowKey");
            self.runs.push((run.len(), run[0].id));
            fx.forward_all(run);
        }
        fn end_sync(&mut self, _op: OpId) {}
        fn costs(&self) -> CostModel {
            CostModel::default()
        }
        fn perflow_entries(&self) -> usize {
            0
        }
    }

    #[test]
    fn process_batch_cuts_same_flow_runs_in_order() {
        let flow =
            |port| FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), port, Ipv4Addr::new(2, 2, 2, 2), 80);
        let (a, b) = (flow(1), flow(2));
        let pkts: Vec<Packet> = [a, a, b, a, a, a]
            .into_iter()
            .enumerate()
            .map(|(id, key)| Packet::new(id as u64, key, vec![0u8; 4]))
            .collect();
        let mut mb = RunRecorder::default();
        let mut fx = Effects::normal();
        mb.process_batch(SimTime(0), &pkts, &mut fx);
        assert_eq!(mb.runs, vec![(2, 0), (1, 2), (3, 3)]);
        let ids: Vec<u64> = fx.outputs().iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "runs are handed over in train order");
    }
}
