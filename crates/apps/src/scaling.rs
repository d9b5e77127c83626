//! Elastic scaling and load balancing (§6.2).
//!
//! **Scale up** (PRADS): launch a new instance, duplicate configuration,
//! query `stats` to decide how to rebalance, `moveInternal` a subset of
//! per-flow state, route the moved flows to the new instance.
//!
//! **Scale down**: `moveInternal(Prads2, Prads1, [])` (everything), then
//! `mergeInternal(Prads2, Prads1)` for the shared reporting state, route
//! all flows to the survivor, and only then deprecate the instance.

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::{HeaderFieldList, HierarchicalKey, MbId, OpId, StateStats};

use crate::migration::{write_config_all, RouteSpec};

const T_TRIGGER: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpPhase {
    Idle,
    CopyConfig,
    WriteConfig,
    Stats,
    Move,
    Done,
}

/// The §6.2 scale-up application.
pub struct ScaleUpApp {
    existing: MbId,
    new_instance: MbId,
    /// The subset of flows to shift to the new instance.
    subset: HeaderFieldList,
    trigger: SimDuration,
    route: RouteSpec,
    phase: UpPhase,
    pending: Option<OpId>,
    /// The stats observed before deciding to move (inspection).
    pub observed_stats: Option<StateStats>,
    pub chunks_moved: Option<usize>,
    pub done_at: Option<SimTime>,
}

impl ScaleUpApp {
    pub fn new(
        existing: MbId,
        new_instance: MbId,
        subset: HeaderFieldList,
        trigger: SimDuration,
        route: RouteSpec,
    ) -> Self {
        ScaleUpApp {
            existing,
            new_instance,
            subset,
            trigger,
            route,
            phase: UpPhase::Idle,
            pending: None,
            observed_stats: None,
            chunks_moved: None,
            done_at: None,
        }
    }

    pub fn is_done(&self) -> bool {
        self.phase == UpPhase::Done
    }

    /// Step 2: how much per-flow state exists for the subset?
    fn query_stats(&mut self, api: &mut Api<'_>) {
        self.phase = UpPhase::Stats;
        self.pending = Some(api.submit(Request::Stats { mb: self.existing, key: self.subset }));
    }
}

impl ControlApp for ScaleUpApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_TRIGGER && self.phase == UpPhase::Idle {
            // Step 1a: duplicate configuration from the existing instance.
            self.phase = UpPhase::CopyConfig;
            let read = Request::ReadConfig { mb: self.existing, key: HierarchicalKey::root() };
            self.pending = Some(api.submit(read));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if c.op() != self.pending {
            return;
        }
        match (self.phase, c) {
            (UpPhase::CopyConfig, Completion::Config { pairs, .. }) => {
                self.phase = UpPhase::WriteConfig;
                self.pending = write_config_all(api, self.new_instance, pairs);
                if self.pending.is_none() {
                    self.query_stats(api);
                }
            }
            (UpPhase::WriteConfig, Completion::Ack { .. }) => self.query_stats(api),
            (UpPhase::Stats, Completion::Stats { stats, .. }) => {
                self.observed_stats = Some(*stats);
                // Step 3: move the subset.
                self.phase = UpPhase::Move;
                let (src, dst, key) = (self.existing, self.new_instance, self.subset);
                self.pending = Some(api.submit(Request::Move { src, dst, key }));
            }
            (UpPhase::Move, Completion::MoveComplete { chunks_moved, .. }) => {
                self.chunks_moved = Some(*chunks_moved);
                // Step 4: route the moved flows to the new instance.
                let r = self.route.clone();
                let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
                assert!(ok, "scale-up route must exist");
                self.phase = UpPhase::Done;
                self.done_at = Some(api.now());
                self.pending = None;
            }
            (_, Completion::Failed { error, .. }) => {
                panic!("scale-up step failed in {:?}: {error}", self.phase);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DownPhase {
    Idle,
    MoveAll,
    Draining,
    Merge,
    Done,
}

const T_DRAIN: u64 = 2;

/// The §6.2 scale-down application: consolidate `deprecated` into
/// `survivor` and release the deprecated instance.
///
/// Ordering note: the paper's recipe merges shared reporting state
/// *before* updating routing. Packets that reach the deprecated instance
/// between the merge's export and the routing change taking effect would
/// then be counted only in counters that die with the instance —
/// under-reporting. We therefore move, reroute, wait a short drain
/// window (covering rule-propagation plus in-flight packets), and merge
/// last; the merged counters are exact.
pub struct ScaleDownApp {
    deprecated: MbId,
    survivor: MbId,
    trigger: SimDuration,
    route: RouteSpec,
    /// How long to wait between the routing change and the merge.
    drain: SimDuration,
    phase: DownPhase,
    pending: Option<OpId>,
    pub chunks_moved: Option<usize>,
    /// Set once the deprecated instance may be terminated (step 4).
    pub deprecated_released_at: Option<SimTime>,
}

impl ScaleDownApp {
    pub fn new(deprecated: MbId, survivor: MbId, trigger: SimDuration, route: RouteSpec) -> Self {
        ScaleDownApp {
            deprecated,
            survivor,
            trigger,
            route,
            drain: SimDuration::from_millis(50),
            phase: DownPhase::Idle,
            pending: None,
            chunks_moved: None,
            deprecated_released_at: None,
        }
    }

    pub fn is_done(&self) -> bool {
        self.phase == DownPhase::Done
    }
}

impl ControlApp for ScaleDownApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        match token {
            T_TRIGGER if self.phase == DownPhase::Idle => {
                // Step 1: transfer all per-flow reporting state.
                self.phase = DownPhase::MoveAll;
                let (src, dst, key) = (self.deprecated, self.survivor, HeaderFieldList::any());
                self.pending = Some(api.submit(Request::Move { src, dst, key }));
            }
            T_DRAIN if self.phase == DownPhase::Draining => {
                // Step 3: the deprecated instance is quiet — merge its
                // shared reporting state into the survivor.
                self.phase = DownPhase::Merge;
                self.pending =
                    Some(api.submit(Request::Merge { src: self.deprecated, dst: self.survivor }));
            }
            _ => {}
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if c.op() != self.pending {
            return;
        }
        match (self.phase, c) {
            (DownPhase::MoveAll, Completion::MoveComplete { chunks_moved, .. }) => {
                self.chunks_moved = Some(*chunks_moved);
                // Step 2: route flows to the survivor, then drain.
                let r = self.route.clone();
                let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
                assert!(ok, "scale-down route must exist");
                self.phase = DownPhase::Draining;
                self.pending = None;
                let d = self.drain;
                api.set_timer(d, T_DRAIN);
            }
            (DownPhase::Merge, Completion::MergeComplete { .. }) => {
                // Step 4: the deprecated instance can now be terminated.
                self.phase = DownPhase::Done;
                self.deprecated_released_at = Some(api.now());
                self.pending = None;
            }
            (_, Completion::Failed { error, .. }) => {
                panic!("scale-down step failed in {:?}: {error}", self.phase);
            }
            _ => {}
        }
    }
}
