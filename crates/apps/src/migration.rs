//! Live-migration control applications (§6.1).
//!
//! Two applications:
//!
//! * [`FlowMoveApp`] — the generic "move per-flow state, then update
//!   routing" sequence (R1 + R4) used for per-flow-state middleboxes
//!   (IPS, monitor, firewall). It is also the building block the scaling
//!   apps reuse.
//! * [`ReMigrationApp`] — the full five-step RE recipe of §6.1: clone
//!   the decoder's configuration and cache, add a second cache at the
//!   encoder, update routing, then point the encoder's `CacheFlows` at
//!   the two data centers.

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::{ConfigValue, HeaderFieldList, HierarchicalKey, MbId, NodeId, OpId};

const T_TRIGGER: u64 = 1;

/// Write a whole configuration previously read from the root key
/// (`*`) onto `dst` — the §6 clone idiom: one independent
/// `writeConfig` per pair, in order. Returns the op of the last write,
/// or `None` when there is nothing to write (an instance with an empty
/// configuration tree), in which case no `Ack` will come and the caller
/// goes straight on.
pub fn write_config_all(
    api: &mut Api<'_>,
    dst: MbId,
    pairs: &[(HierarchicalKey, Vec<ConfigValue>)],
) -> Option<OpId> {
    let mut last = None;
    for (key, values) in pairs {
        let write = Request::WriteConfig { mb: dst, key: key.clone(), values: values.clone() };
        last = Some(api.submit(write));
    }
    last
}

/// The route the app installs once state movement completes.
#[derive(Debug, Clone)]
pub struct RouteSpec {
    pub pattern: HeaderFieldList,
    pub priority: u16,
    pub src: NodeId,
    pub waypoints: Vec<NodeId>,
    pub dst: NodeId,
}

/// Generic per-flow state migration: at `trigger`, `moveInternal(src,
/// dst, pattern)`; on completion, install `route`.
pub struct FlowMoveApp {
    src_mb: MbId,
    dst_mb: MbId,
    pattern: HeaderFieldList,
    trigger: SimDuration,
    route: RouteSpec,
    move_op: Option<OpId>,
    /// When the move was issued / completed (inspection).
    pub started_at: Option<SimTime>,
    pub completed_at: Option<SimTime>,
    pub chunks_moved: Option<usize>,
}

impl FlowMoveApp {
    pub fn new(
        src_mb: MbId,
        dst_mb: MbId,
        pattern: HeaderFieldList,
        trigger: SimDuration,
        route: RouteSpec,
    ) -> Self {
        FlowMoveApp {
            src_mb,
            dst_mb,
            pattern,
            trigger,
            route,
            move_op: None,
            started_at: None,
            completed_at: None,
            chunks_moved: None,
        }
    }
}

impl ControlApp for FlowMoveApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_TRIGGER {
            self.started_at = Some(api.now());
            let (src, dst, key) = (self.src_mb, self.dst_mb, self.pattern);
            self.move_op = Some(api.submit(Request::Move { src, dst, key }));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if let Completion::MoveComplete { op, chunks_moved } = c {
            if Some(*op) == self.move_op {
                self.completed_at = Some(api.now());
                self.chunks_moved = Some(*chunks_moved);
                // R4: network update strictly after the move returns.
                let r = &self.route;
                let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints.clone(), r.dst);
                assert!(ok, "migration route must exist");
            }
        }
    }
}

/// Phases of the §6.1 RE migration recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RePhase {
    Idle,
    ReadConfig,
    WriteConfig,
    CloneCache,
    AddEncoderCache,
    RouteUpdated,
    Done,
}

/// The §6.1 live-migration application for RE middleboxes.
///
/// 1. `values = readConfig(OrigDec, "*")`; `writeConfig(NewDec, "*", values)`
/// 2. `cloneSupport(OrigDec, NewDec)`
/// 3. `writeConfig(Enc, "NumCaches", [2])` (encoder clones its cache)
/// 4. update network routing (traffic for DC B via the new decoder)
/// 5. `writeConfig(Enc, "CacheFlows", [dcA, dcB])`
pub struct ReMigrationApp {
    encoder: MbId,
    orig_dec: MbId,
    new_dec: MbId,
    trigger: SimDuration,
    /// Route for the migrated (DC B) traffic.
    route: RouteSpec,
    /// The prefixes for `CacheFlows` (DC A first, DC B second).
    dc_a_prefix: String,
    dc_b_prefix: String,
    phase: RePhase,
    pending: Option<OpId>,
    clone_op: Option<OpId>,
    pub done_at: Option<SimTime>,
}

impl ReMigrationApp {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        encoder: MbId,
        orig_dec: MbId,
        new_dec: MbId,
        trigger: SimDuration,
        route: RouteSpec,
        dc_a_prefix: impl Into<String>,
        dc_b_prefix: impl Into<String>,
    ) -> Self {
        ReMigrationApp {
            encoder,
            orig_dec,
            new_dec,
            trigger,
            route,
            dc_a_prefix: dc_a_prefix.into(),
            dc_b_prefix: dc_b_prefix.into(),
            phase: RePhase::Idle,
            pending: None,
            clone_op: None,
            done_at: None,
        }
    }

    /// Has the whole recipe completed?
    pub fn is_done(&self) -> bool {
        self.phase == RePhase::Done
    }

    /// Step 2: clone the original decoder's cache.
    fn clone_cache(&mut self, api: &mut Api<'_>) {
        self.phase = RePhase::CloneCache;
        let op = api.submit(Request::Clone { src: self.orig_dec, dst: self.new_dec });
        self.clone_op = Some(op);
        self.pending = Some(op);
    }
}

impl ControlApp for ReMigrationApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_TRIGGER);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_TRIGGER && self.phase == RePhase::Idle {
            // Step 1a: read the original decoder's whole configuration.
            self.phase = RePhase::ReadConfig;
            let read = Request::ReadConfig { mb: self.orig_dec, key: HierarchicalKey::root() };
            self.pending = Some(api.submit(read));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if c.op() != self.pending {
            return;
        }
        match (self.phase, c) {
            (RePhase::ReadConfig, Completion::Config { pairs, .. }) => {
                // Step 1b: duplicate configuration onto the new decoder.
                self.phase = RePhase::WriteConfig;
                self.pending = write_config_all(api, self.new_dec, pairs);
                if self.pending.is_none() {
                    self.clone_cache(api);
                }
            }
            (RePhase::WriteConfig, Completion::Ack { .. }) => self.clone_cache(api),
            (RePhase::CloneCache, Completion::CloneComplete { .. }) => {
                // Step 3: second cache at the encoder (internally cloned
                // from the original, fingerprints included).
                self.phase = RePhase::AddEncoderCache;
                self.pending = Some(api.submit(Request::WriteConfig {
                    mb: self.encoder,
                    key: HierarchicalKey::parse("NumCaches"),
                    values: vec![ConfigValue::Int(2)],
                }));
            }
            (RePhase::AddEncoderCache, Completion::Ack { .. }) => {
                // Step 4: routing — traffic for DC B now goes via the
                // new decoder.
                let r = self.route.clone();
                let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
                assert!(ok, "RE migration route must exist");
                // Step 5: tell the encoder which cache serves which DC.
                self.phase = RePhase::RouteUpdated;
                self.pending = Some(api.submit(Request::WriteConfig {
                    mb: self.encoder,
                    key: HierarchicalKey::parse("CacheFlows"),
                    values: vec![
                        ConfigValue::Str(self.dc_a_prefix.clone()),
                        ConfigValue::Str(self.dc_b_prefix.clone()),
                    ],
                }));
            }
            (RePhase::RouteUpdated, Completion::Ack { .. }) => {
                // The encoder has switched caches: the original decoder's
                // clone-sync window can close now. (Quiescence would never
                // fire — shared state is updated by every packet — so the
                // application closes the transaction explicitly.)
                if let Some(op) = self.clone_op.take() {
                    api.end_op(op);
                }
                self.phase = RePhase::Done;
                self.done_at = Some(api.now());
                self.pending = None;
            }
            (_, Completion::Failed { error, .. }) => {
                panic!("RE migration step failed in {:?}: {error}", self.phase);
            }
            _ => {}
        }
    }
}
