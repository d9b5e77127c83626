//! Load rebalancing of in-progress flows (§2, Dynamic Scaling and Load
//! Balancing): "when flows are long-lived, in-progress flows need to be
//! reassigned to different MB instances to achieve an optimal load
//! distribution. This requires moving the appropriate state (R1) and
//! updating routing (R4)."
//!
//! [`RebalanceApp`] queries `stats` for each candidate subnet on the
//! loaded instance, picks the subset whose per-flow chunk count is
//! closest to half the load, moves it, and reroutes — the decision logic
//! a Stratos-style scaling manager (the paper's reference 20) would drive.

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, OpId};

use crate::migration::RouteSpec;

const T_TRIGGER: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    TotalStats,
    SubsetStats,
    Move,
    Done,
}

/// Rebalances in-progress flows from a loaded instance to a peer.
pub struct RebalanceApp {
    loaded: MbId,
    peer: MbId,
    /// Candidate subsets to consider moving (e.g. one per client subnet).
    candidates: Vec<HeaderFieldList>,
    trigger: SimDuration,
    /// Route template; the pattern is filled with the chosen subset.
    route: RouteSpec,
    phase: Phase,
    pending: Option<OpId>,
    total_chunks: usize,
    /// `(candidate index, chunks)` as stats come back.
    observed: Vec<(usize, usize)>,
    next_candidate: usize,
    /// The chosen subset (inspection).
    pub chosen: Option<HeaderFieldList>,
    pub chunks_moved: Option<usize>,
    pub done_at: Option<SimTime>,
}

impl RebalanceApp {
    pub fn new(
        loaded: MbId,
        peer: MbId,
        candidates: Vec<HeaderFieldList>,
        trigger: SimDuration,
        route: RouteSpec,
    ) -> Self {
        assert!(!candidates.is_empty(), "need candidate subsets");
        RebalanceApp {
            loaded,
            peer,
            candidates,
            trigger,
            route,
            phase: Phase::Idle,
            pending: None,
            total_chunks: 0,
            observed: Vec::new(),
            next_candidate: 0,
            chosen: None,
            chunks_moved: None,
            done_at: None,
        }
    }

    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn request_next_stats(&mut self, api: &mut Api<'_>) {
        let key = self.candidates[self.next_candidate];
        self.pending = Some(api.submit(Request::Stats { mb: self.loaded, key }));
    }
}

impl ControlApp for RebalanceApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_TRIGGER && self.phase == Phase::Idle {
            self.phase = Phase::TotalStats;
            self.pending =
                Some(api.submit(Request::Stats { mb: self.loaded, key: HeaderFieldList::any() }));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if c.op() != self.pending {
            return;
        }
        match (self.phase, c) {
            (Phase::TotalStats, Completion::Stats { stats, .. }) => {
                self.total_chunks = stats.total_chunks();
                self.phase = Phase::SubsetStats;
                self.request_next_stats(api);
            }
            (Phase::SubsetStats, Completion::Stats { stats, .. }) => {
                self.observed.push((self.next_candidate, stats.total_chunks()));
                self.next_candidate += 1;
                if self.next_candidate < self.candidates.len() {
                    self.request_next_stats(api);
                    return;
                }
                // Pick the candidate closest to half the total load.
                let target = self.total_chunks / 2;
                let (best, _) = self
                    .observed
                    .iter()
                    .min_by_key(|(_, chunks)| chunks.abs_diff(target))
                    .copied()
                    .expect("candidates observed");
                let subset = self.candidates[best];
                self.chosen = Some(subset);
                self.phase = Phase::Move;
                self.pending = Some(api.submit(Request::Move {
                    src: self.loaded,
                    dst: self.peer,
                    key: subset,
                }));
            }
            (Phase::Move, Completion::MoveComplete { chunks_moved, .. }) => {
                self.chunks_moved = Some(*chunks_moved);
                let subset = self.chosen.expect("chosen before move");
                let r = self.route.clone();
                let ok = api.route(subset, r.priority, r.src, &r.waypoints, r.dst);
                assert!(ok, "rebalance route must exist");
                self.phase = Phase::Done;
                self.done_at = Some(api.now());
                self.pending = None;
            }
            (_, Completion::Failed { error, .. }) => {
                panic!("rebalance failed in {:?}: {error}", self.phase);
            }
            _ => {}
        }
    }
}
