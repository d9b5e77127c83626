//! Failure recovery via introspection (§2, requirement R6).
//!
//! The viable option the paper advocates: "keep (and move upon failure)
//! a minimal live snapshot of only critical state (e.g. IP address and
//! port mappings from a NAT), with non-critical state (e.g. mapping
//! timeouts) set to default values when a failed MB instance is
//! replaced." Introspection events (§4.2.2) tell the application *when*
//! such critical state was created and *what* it was, without exporting
//! anything else.
//!
//! [`NatFailoverApp`] subscribes to the NAT's mapping-created/expired
//! events, mirrors the critical mapping set at the controller, and — on
//! the failure trigger — restores it onto a standby NAT through
//! `writeConfig` (static mappings), then reroutes traffic.

use std::collections::HashMap;

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_middleboxes::nat::{EVENT_MAPPING_CREATED, EVENT_MAPPING_EXPIRED};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::wire::EventFilter;
use openmb_types::{ConfigValue, FlowKey, HierarchicalKey, MbId, OpId};

use crate::migration::RouteSpec;

const T_FAIL: u64 = 1;
/// How many times a restoration write is re-driven after a typed
/// failure (timeout, unreachable standby) before being abandoned.
const MAX_WRITE_ATTEMPTS: u32 = 3;

/// The NAT failure-recovery application.
pub struct NatFailoverApp {
    primary: MbId,
    standby: MbId,
    /// When the primary "fails" (experiment trigger).
    fail_at: SimDuration,
    route: RouteSpec,
    /// The live snapshot of critical state: internal flow → external
    /// port, maintained purely from introspection events.
    pub snapshot: HashMap<FlowKey, u16>,
    /// Restoration writes in flight: op → (mapping, attempt number).
    /// Tracked per-op so a [`Completion::Failed`] can be matched to the
    /// exact write it aborted and that write re-driven.
    pending: HashMap<OpId, (FlowKey, u16, u32)>,
    restoring: bool,
    pub failed_over_at: Option<SimTime>,
    /// Introspection events observed (experiments).
    pub events_seen: u64,
    /// Failed writes that were re-driven (experiments).
    pub writes_retried: u64,
    /// Writes abandoned after [`MAX_WRITE_ATTEMPTS`] failures
    /// (experiments assert this stays 0 under recoverable faults).
    pub writes_abandoned: u64,
}

impl NatFailoverApp {
    pub fn new(primary: MbId, standby: MbId, fail_at: SimDuration, route: RouteSpec) -> Self {
        NatFailoverApp {
            primary,
            standby,
            fail_at,
            route,
            snapshot: HashMap::new(),
            pending: HashMap::new(),
            restoring: false,
            failed_over_at: None,
            events_seen: 0,
            writes_retried: 0,
            writes_abandoned: 0,
        }
    }

    pub fn is_done(&self) -> bool {
        self.failed_over_at.is_some()
    }
}

impl ControlApp for NatFailoverApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        // Subscribe only to the mapping lifecycle codes (the §4.2.2
        // code-based filter keeps controller load bounded).
        api.submit(Request::EnableEvents {
            mb: self.primary,
            filter: EventFilter {
                codes: Some(vec![EVENT_MAPPING_CREATED, EVENT_MAPPING_EXPIRED]),
                key: None,
            },
        });
        api.set_timer(self.fail_at, T_FAIL);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token != T_FAIL || self.restoring {
            return;
        }
        // The primary has failed: restore the snapshot onto the standby
        // via configuration writes (the primary is unreachable, so no
        // state can be moved from it).
        self.restoring = true;
        if self.snapshot.is_empty() {
            self.finish(api);
            return;
        }
        for (internal, ext_port) in self.snapshot.clone() {
            self.write_mapping(api, internal, ext_port, 1);
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        match c {
            Completion::MbEvent { mb, code, key, values } if *mb == self.primary => {
                self.events_seen += 1;
                match *code {
                    EVENT_MAPPING_CREATED => {
                        if let Some(port) = values.iter().find(|(k, _)| k == "external_port") {
                            if let Ok(p) = port.1.parse() {
                                self.snapshot.insert(*key, p);
                            }
                        }
                    }
                    EVENT_MAPPING_EXPIRED => {
                        self.snapshot.remove(key);
                    }
                    _ => {}
                }
            }
            Completion::Ack { op } if self.restoring => {
                let acked = self.pending.remove(op).is_some();
                if acked && self.pending.is_empty() && self.failed_over_at.is_none() {
                    self.finish(api);
                }
            }
            Completion::Failed { op, error, .. } if self.restoring => {
                // A restoration write was aborted (deadline, unreachable
                // standby, southbound rejection). Re-drive it: the write
                // is idempotent — it sets the same static mapping — so
                // retrying after a timeout is safe even if the original
                // actually landed.
                let Some((internal, ext_port, attempt)) = self.pending.remove(op) else {
                    return;
                };
                let _ = error;
                if attempt < MAX_WRITE_ATTEMPTS {
                    self.writes_retried += 1;
                    self.write_mapping(api, internal, ext_port, attempt + 1);
                } else {
                    self.writes_abandoned += 1;
                    if self.pending.is_empty() && self.failed_over_at.is_none() {
                        self.finish(api);
                    }
                }
            }
            _ => {}
        }
    }
}

impl NatFailoverApp {
    fn write_mapping(&mut self, api: &mut Api<'_>, internal: FlowKey, ext_port: u16, attempt: u32) {
        let op = api.submit(Request::WriteConfig {
            mb: self.standby,
            key: HierarchicalKey::parse(&format!("static_mappings/{ext_port}")),
            values: vec![ConfigValue::Str(openmb_middleboxes::Nat::mapping_spec(&internal))],
        });
        self.pending.insert(op, (internal, ext_port, attempt));
    }

    fn finish(&mut self, api: &mut Api<'_>) {
        let r = self.route.clone();
        let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
        assert!(ok, "failover route must exist");
        self.failed_over_at = Some(api.now());
    }
}
