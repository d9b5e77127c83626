//! Moved/cloned-state bookkeeping shared by all middlebox
//! implementations.
//!
//! §4.2.1's three-step atomicity recipe requires the source MB to know,
//! while processing each packet, whether the state the packet updates
//! has been exported (moved or cloned) by an in-flight controller
//! operation — and if so, to raise a reprocess event tagged with that
//! operation. [`SyncTracker`] is that bookkeeping: per-flow moved marks
//! and whole-MB shared-state clone marks, each tagged with the
//! originating [`OpId`] and cleared by `end_sync`.

use std::collections::HashMap;

use openmb_types::wire::Event;
use openmb_types::{FlowKey, HeaderFieldList, OpId, Packet};

use crate::effects::Effects;

/// Tracks which state is inside a move/clone sync window.
#[derive(Debug, Default, Clone)]
pub struct SyncTracker {
    /// Flow → the operation that exported its per-flow state.
    moved: HashMap<FlowKey, OpId>,
    /// Patterns of in-flight per-flow moves. A flow that *first appears*
    /// while a matching move is in flight is immediately marked moved:
    /// its state will never reach the destination via the get stream, so
    /// reprocess events are the only channel that keeps the destination
    /// complete (atomicity property (iii)).
    active_moves: Vec<(OpId, HeaderFieldList)>,
    /// Operations that exported this MB's *shared* state and are still
    /// in their sync window (normally zero or one, but concurrent clones
    /// are legal).
    shared_ops: Vec<OpId>,
    /// Total reprocess events ever raised (experiment accounting).
    pub events_raised: u64,
}

impl SyncTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark one flow's state as exported under `op`.
    pub fn mark_moved(&mut self, key: FlowKey, op: OpId) {
        self.moved.insert(key, op);
    }

    /// Make room for `n` more moved marks at once: an export of `n`
    /// flows grows the table once, not at every doubling.
    pub fn reserve_moved(&mut self, n: usize) {
        self.moved.reserve(n);
    }

    /// Record that a per-flow move matching `pattern` is in flight:
    /// flows created from now until `end_sync(op)` that match it are
    /// marked moved on first update.
    pub fn mark_move_pattern(&mut self, op: OpId, pattern: HeaderFieldList) {
        self.active_moves.push((op, pattern));
    }

    /// Mark the MB's shared state as exported (cloned) under `op`.
    pub fn mark_shared(&mut self, op: OpId) {
        if !self.shared_ops.contains(&op) {
            self.shared_ops.push(op);
        }
    }

    /// Is this flow's state currently moved?
    pub fn is_moved(&self, key: &FlowKey) -> bool {
        self.moved.contains_key(key)
    }

    /// True when no per-flow sync window can affect `key`: the flow is
    /// not marked moved and no move pattern is in flight. While this
    /// holds, [`on_perflow_update`](SyncTracker::on_perflow_update) for
    /// `key` neither raises an event nor mutates the tracker, which is
    /// what lets [`on_perflow_run`](SyncTracker::on_perflow_run) make one
    /// check per same-flow run instead of one call per packet.
    pub(crate) fn perflow_quiet(&self, key: &FlowKey) -> bool {
        self.active_moves.is_empty() && !self.moved.contains_key(key)
    }

    /// Is any shared-state sync window open?
    pub fn shared_active(&self) -> bool {
        !self.shared_ops.is_empty()
    }

    /// Number of per-flow moved marks (testing).
    pub fn moved_count(&self) -> usize {
        self.moved.len()
    }

    /// The packet `pkt` just updated per-flow state for `key`: raise a
    /// reprocess event if that state is marked moved (§4.2.1 step 2).
    pub fn on_perflow_update(&mut self, key: FlowKey, pkt: &Packet, fx: &mut Effects) {
        if let Some(&op) = self.moved.get(&key) {
            self.events_raised += 1;
            fx.raise(Event::Reprocess { op, key, packet: pkt.clone() });
            return;
        }
        // A flow not in the moved set but matching an in-flight move
        // pattern is a *new* flow created during the sync window.
        if let Some(&(op, _)) = self.active_moves.iter().find(|(_, p)| p.matches_bidi(&key)) {
            self.moved.insert(key, op);
            self.events_raised += 1;
            fx.raise(Event::Reprocess { op, key, packet: pkt.clone() });
        }
    }

    /// Every packet of `run` just updated per-flow state for `key`: what
    /// [`on_perflow_update`](SyncTracker::on_perflow_update) on each
    /// packet does, with one check for the whole run while it is quiet.
    pub fn on_perflow_run(&mut self, key: FlowKey, run: &[Packet], fx: &mut Effects) {
        if self.perflow_quiet(&key) {
            return;
        }
        for pkt in run {
            self.on_perflow_update(key, pkt, fx);
        }
    }

    /// The packet `pkt` just updated shared state: raise a reprocess
    /// event per open shared sync window.
    pub fn on_shared_update(&mut self, pkt: &Packet, fx: &mut Effects) {
        for &op in &self.shared_ops {
            self.events_raised += 1;
            fx.raise(Event::Reprocess { op, key: pkt.key, packet: pkt.clone() });
        }
    }

    /// Clear the moved mark for one flow (its state was deleted or the
    /// flow's record was re-imported).
    pub fn clear_flow(&mut self, key: &FlowKey) {
        // A destination has usually exported nothing: its marks are
        // empty, and a remove would still hash the key.
        if !self.moved.is_empty() {
            self.moved.remove(key);
        }
    }

    /// End the sync window for `op`: drop all moved marks and shared
    /// flags it owns.
    pub fn end_sync(&mut self, op: OpId) {
        self.moved.retain(|_, v| *v != op);
        self.shared_ops.retain(|v| *v != op);
        self.active_moves.retain(|(v, _)| *v != op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), port, Ipv4Addr::new(2, 2, 2, 2), 80)
    }

    fn pkt(port: u16) -> Packet {
        Packet::new(u64::from(port), key(port), vec![0u8; 4])
    }

    #[test]
    fn moved_state_raises_event_until_end_sync() {
        let mut t = SyncTracker::new();
        let mut fx = Effects::normal();
        t.mark_moved(key(1), OpId(7));
        t.on_perflow_update(key(1), &pkt(1), &mut fx);
        assert_eq!(fx.take_events().len(), 1);
        t.on_perflow_update(key(2), &pkt(2), &mut fx);
        assert!(fx.take_events().is_empty(), "unmoved flow raises nothing");
        t.end_sync(OpId(7));
        t.on_perflow_update(key(1), &pkt(1), &mut fx);
        assert!(fx.take_events().is_empty(), "window closed");
        assert_eq!(t.events_raised, 1);
    }

    #[test]
    fn shared_window_raises_per_op() {
        let mut t = SyncTracker::new();
        let mut fx = Effects::normal();
        t.mark_shared(OpId(1));
        t.mark_shared(OpId(2));
        t.mark_shared(OpId(1)); // duplicate ignored
        t.on_shared_update(&pkt(9), &mut fx);
        assert_eq!(fx.take_events().len(), 2);
        t.end_sync(OpId(1));
        t.on_shared_update(&pkt(9), &mut fx);
        assert_eq!(fx.take_events().len(), 1);
        assert!(t.shared_active());
        t.end_sync(OpId(2));
        assert!(!t.shared_active());
    }

    #[test]
    fn end_sync_only_clears_own_marks() {
        let mut t = SyncTracker::new();
        t.mark_moved(key(1), OpId(1));
        t.mark_moved(key(2), OpId(2));
        t.end_sync(OpId(1));
        assert!(!t.is_moved(&key(1)));
        assert!(t.is_moved(&key(2)));
    }

    #[test]
    fn new_flow_during_move_window_is_synced() {
        let mut t = SyncTracker::new();
        let mut fx = Effects::normal();
        t.mark_move_pattern(OpId(3), HeaderFieldList::from_dst_port(80));
        // key(5) was never exported (new flow) but matches the pattern.
        t.on_perflow_update(key(5), &pkt(5), &mut fx);
        assert_eq!(fx.take_events().len(), 1);
        assert!(t.is_moved(&key(5)));
        // A flow not matching the pattern stays silent.
        let other = FlowKey::udp(Ipv4Addr::new(9, 9, 9, 9), 53, Ipv4Addr::new(8, 8, 8, 8), 53);
        t.on_perflow_update(other, &Packet::new(0, other, vec![]), &mut fx);
        assert!(fx.take_events().is_empty());
        t.end_sync(OpId(3));
        t.on_perflow_update(key(6), &pkt(6), &mut fx);
        assert!(fx.take_events().is_empty(), "pattern cleared");
    }

    #[test]
    fn clear_flow_removes_single_mark() {
        let mut t = SyncTracker::new();
        t.mark_moved(key(1), OpId(1));
        t.clear_flow(&key(1));
        assert_eq!(t.moved_count(), 0);
    }

    /// `on_perflow_run` against `on_perflow_update` on each packet of the
    /// same run, starting from equal trackers: equal events, equal
    /// tracker afterwards.
    fn run_matches_per_packet(t: &SyncTracker, k: FlowKey, n: u64) -> (SyncTracker, Vec<Event>) {
        let run: Vec<Packet> = (0..n).map(|id| Packet::new(id, k, vec![0u8; 4])).collect();
        let (mut per_pkt, mut fx_per_pkt) = (t.clone(), Effects::normal());
        for pkt in &run {
            per_pkt.on_perflow_update(k, pkt, &mut fx_per_pkt);
        }
        let (mut whole, mut fx_whole) = (t.clone(), Effects::normal());
        whole.on_perflow_run(k, &run, &mut fx_whole);
        let events = fx_whole.take_events();
        assert_eq!(events, fx_per_pkt.take_events());
        assert_eq!(whole.moved, per_pkt.moved);
        assert_eq!(whole.active_moves, per_pkt.active_moves);
        assert_eq!(whole.events_raised, per_pkt.events_raised);
        (whole, events)
    }

    fn reprocess_ops(events: &[Event]) -> Vec<(OpId, u64)> {
        events
            .iter()
            .map(|e| match e {
                Event::Reprocess { op, packet, .. } => (*op, packet.id),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_quiet_run_raises_nothing_and_leaves_the_tracker_alone() {
        let mut t = SyncTracker::new();
        t.mark_moved(key(2), OpId(1));
        let (after, events) = run_matches_per_packet(&t, key(1), 4);
        assert!(events.is_empty());
        assert_eq!(after.moved, t.moved);
        assert_eq!(after.events_raised, 0);
    }

    #[test]
    fn a_marked_run_raises_one_event_per_packet_under_its_op() {
        let mut t = SyncTracker::new();
        t.mark_moved(key(1), OpId(7));
        let (after, events) = run_matches_per_packet(&t, key(1), 3);
        assert_eq!(reprocess_ops(&events), vec![(OpId(7), 0), (OpId(7), 1), (OpId(7), 2)]);
        assert_eq!(after.events_raised, 3);
    }

    #[test]
    fn a_new_flow_run_under_a_pattern_is_marked_once_and_raises_per_packet() {
        let mut t = SyncTracker::new();
        t.mark_move_pattern(OpId(4), HeaderFieldList::from_dst_port(80));
        let (after, events) = run_matches_per_packet(&t, key(5), 3);
        assert_eq!(reprocess_ops(&events), vec![(OpId(4), 0), (OpId(4), 1), (OpId(4), 2)]);
        assert_eq!(after.moved_count(), 1);
        assert!(after.is_moved(&key(5)));
    }

    #[test]
    fn perflow_quiet_tracks_marks_and_patterns() {
        let mut t = SyncTracker::new();
        assert!(t.perflow_quiet(&key(1)));
        t.mark_moved(key(1), OpId(1));
        assert!(!t.perflow_quiet(&key(1)));
        assert!(t.perflow_quiet(&key(2)), "other flows stay quiet");
        t.end_sync(OpId(1));
        assert!(t.perflow_quiet(&key(1)));
        // Any in-flight move pattern makes every flow non-quiet: a new
        // flow matching it must be caught on first update.
        t.mark_move_pattern(OpId(2), HeaderFieldList::from_dst_port(80));
        assert!(!t.perflow_quiet(&key(3)));
        t.end_sync(OpId(2));
        assert!(t.perflow_quiet(&key(3)));
    }
}
