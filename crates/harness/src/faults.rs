//! Recovery under injected faults (DESIGN.md "Fault model and recovery").
//!
//! The source middlebox crashes mid-`moveInternal`. The controller must
//! notice — either because the harness reports the southbound connection
//! reset (the common case in a real deployment) or, as a backstop,
//! because the operation deadline expires — then abort the move: roll
//! back partially-put destination state, drop buffered reprocess events,
//! release per-op bookkeeping, and deliver a typed
//! [`Completion::Failed`] so the application can re-drive recovery
//! (here: reroute traffic around the dead instance).
//!
//! The table reports crash→failure-notification latency and packets lost
//! under each detection regime, against a fault-free baseline. The
//! determinism contract — the same seed replays a byte-identical
//! [`openmb_simnet::FaultRecord`] log — is asserted while building it.

use openmb_apps::migration::RouteSpec;
use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_core::nodes::{ControllerNode, Host, MbNode};
use openmb_mb::Middlebox;
use openmb_middleboxes::Monitor;
use openmb_simnet::{FaultPlan, Frame, SimDuration, SimTime};
use openmb_types::{Error, HeaderFieldList, MbId, OpId, Packet};

use crate::common::{preload_flow, preloaded_monitor};
use crate::report::{f, Table};

/// Fault-plan seed for every run in this module (replay contract).
pub const SEED: u64 = 0xFA17;
/// Per-flow records preloaded at the source: enough that the get/put
/// stream is still in flight when the crash lands 2 ms into the move.
const CHUNKS: usize = 400;

const T_MOVE: u64 = 1;

/// How the controller learns about the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// The harness reports the southbound connection reset at crash
    /// time (stand-in for a TCP reset in the wire embedding).
    Report,
    /// Nothing reports the crash; only the operation deadline fires.
    DeadlineOnly,
}

/// Migration app that falls back to rerouting around the failed source
/// when the move aborts — the paper's "start afresh" recovery option.
struct MoveWithFallback {
    src_mb: MbId,
    dst_mb: MbId,
    trigger: SimDuration,
    route: RouteSpec,
    move_op: Option<OpId>,
}

impl ControlApp for MoveWithFallback {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, T_MOVE);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        if token == T_MOVE {
            let (src, dst, key) = (self.src_mb, self.dst_mb, HeaderFieldList::any());
            self.move_op = Some(api.submit(Request::Move { src, dst, key }));
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        let reroute = match c {
            Completion::MoveComplete { op, .. } => Some(*op) == self.move_op,
            // The move aborted (crash or deadline): the state is gone,
            // but availability recovers by pointing traffic at the
            // standby instance.
            Completion::Failed { op, .. } => Some(*op) == self.move_op,
            _ => false,
        };
        if reroute {
            let r = self.route.clone();
            let ok = api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
            assert!(ok, "fallback route must exist");
        }
    }
}

/// Outcome of one fault-recovery run.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    pub crash_at: SimTime,
    /// When the typed failure reached the application (None: no fault
    /// injected, or never signalled — a bug).
    pub failed_at: Option<SimTime>,
    pub error: Option<Error>,
    /// Buffered reprocess events the abort discarded, from the typed
    /// [`Completion::Failed`] (None when the run did not fail).
    pub dropped_events: Option<usize>,
    /// When the move completed normally (fault-free baseline).
    pub completed_at: Option<SimTime>,
    /// Controller bookkeeping still held after the run (must be 0).
    pub open_ops_after: usize,
    /// Per-flow records left at the destination after the run.
    pub dst_entries_after: usize,
    pub injected: u64,
    pub delivered: u64,
    /// `format!("{:?}", sim.fault_log())` — replay-equality digest.
    pub fault_log: String,
}

/// Drive one run: 400 preloaded records at the source, a move at
/// t=100 ms, and (unless `fault` is None) a crash of the source MB node
/// at t=102 ms — mid-stream. Traffic targets the preloaded flows until
/// `traffic_until`.
pub fn run(fault: Option<Detection>, traffic_until: SimDuration) -> FaultOutcome {
    use layout::*;
    let move_at = SimDuration::from_millis(100);
    let crash_at = SimTime(SimDuration::from_millis(102).as_nanos());
    let app = MoveWithFallback {
        src_mb: MB_A_ID,
        dst_mb: MB_B_ID,
        trigger: move_at,
        route: RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
        move_op: None,
    };
    let mut setup = two_mb_scenario(
        preloaded_monitor(CHUNKS),
        Monitor::new(),
        Box::new(app),
        ScenarioParams::default(),
    );
    // A 2 s deadline keeps the backstop run short while staying far
    // above any healthy move duration. Set before the first event so
    // every op is stamped with it.
    setup
        .sim
        .node_as_mut::<ControllerNode>(CONTROLLER)
        .core
        .update_config(|c| c.op_deadline = SimDuration::from_secs(2));
    if fault.is_some() {
        setup.sim.set_fault_plan(FaultPlan::seeded(SEED).crash(MB_A, crash_at));
    }

    // Steady 2000 pkt/s over the preloaded flows.
    let gap = 500_000u64;
    let mut injected = 0u64;
    let mut t = 0u64;
    while t < traffic_until.as_nanos() {
        let key = preload_flow((injected as usize) % CHUNKS);
        setup.sim.inject_frame(
            SimTime(t),
            SRC,
            SWITCH,
            Frame::Data(Packet::new(5_000_000 + injected, key, vec![0u8; 120])),
        );
        injected += 1;
        t += gap;
    }

    if fault == Some(Detection::Report) {
        ControllerNode::report_reachability(&mut setup.sim, CONTROLLER, crash_at, MB_A_ID, false);
    }
    setup.sim.run(50_000_000);
    assert!(setup.sim.is_idle(), "simulation should drain");

    let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
    let failed = ctrl.completions.iter().find_map(|(at, c)| match c {
        Completion::Failed { error, dropped_events, .. } => {
            Some((*at, error.clone(), *dropped_events))
        }
        _ => None,
    });
    let completed_at = ctrl
        .completions
        .iter()
        .find_map(|(at, c)| matches!(c, Completion::MoveComplete { .. }).then_some(*at));
    let dst: &MbNode<Monitor> = setup.sim.node_as(MB_B);
    let sink: &Host = setup.sim.node_as(DST);
    FaultOutcome {
        crash_at,
        failed_at: failed.as_ref().map(|(at, _, _)| *at),
        dropped_events: failed.as_ref().map(|(_, _, n)| *n),
        error: failed.map(|(_, e, _)| e),
        completed_at,
        open_ops_after: ctrl.core.open_ops(),
        dst_entries_after: dst.logic.perflow_entries(),
        injected,
        delivered: sink.received.len() as u64,
        fault_log: format!("{:?}", setup.sim.fault_log()),
    }
}

/// Regenerate the fault-recovery comparison.
pub fn faults_table() -> Table {
    let traffic = SimDuration::from_millis(200);
    let clean = run(None, traffic);
    let report = run(Some(Detection::Report), traffic);
    let replay = run(Some(Detection::Report), traffic);
    assert_eq!(
        report.fault_log, replay.fault_log,
        "same seed must replay a byte-identical fault schedule"
    );
    let deadline = run(Some(Detection::DeadlineOnly), traffic);

    let mut t = Table::new(
        "Fault injection: source MB crashes mid-moveInternal (crash at t=102 ms)",
        &[
            "run",
            "outcome",
            "signalled after crash (ms)",
            "pkts lost",
            "events dropped",
            "open ops after",
        ],
    );
    let row = |t: &mut Table, name: &str, o: &FaultOutcome| {
        let outcome = match (&o.error, o.completed_at) {
            (Some(e), _) => format!("Failed: {e}"),
            (None, Some(_)) => "MoveComplete".into(),
            (None, None) => "none (bug)".into(),
        };
        let signalled = o
            .failed_at
            .map(|at| f(at.since(o.crash_at).as_millis_f64()))
            .unwrap_or_else(|| "—".into());
        t.row(vec![
            name.into(),
            outcome,
            signalled,
            (o.injected - o.delivered).to_string(),
            o.dropped_events.map(|n| n.to_string()).unwrap_or_else(|| "—".into()),
            o.open_ops_after.to_string(),
        ]);
    };
    row(&mut t, "no fault (baseline)", &clean);
    row(&mut t, "crash + transport-reset report", &report);
    row(&mut t, "crash + deadline backstop (2 s)", &deadline);
    t.note(format!(
        "seed {SEED:#x}: two report-detection runs produced byte-identical fault logs ({} bytes)",
        report.fault_log.len()
    ));
    t.note("packets sent toward the dead source before the fallback route installs are lost: prompt detection saves the tail of the traffic window, while the deadline run loses everything after the crash");
    t
}

#[cfg(test)]
mod tests {
    use openmb_core::nodes::ControllerCosts;

    use super::*;

    /// Traffic ends before the move starts, so any per-flow record at
    /// the destination after an abort is leaked (not re-created by
    /// rerouted packets).
    fn quiet() -> SimDuration {
        SimDuration::from_millis(90)
    }

    #[test]
    fn crash_mid_move_aborts_cleanly_and_recovers() {
        let o = run(Some(Detection::Report), quiet());
        let failed_at = o.failed_at.expect("typed failure must reach the app");
        // The report lands at the crash instant; the abort may cost the
        // controller at most one message's service, never a wait for
        // an unrelated event.
        let service = ControllerCosts::default().per_message;
        assert!(
            failed_at >= o.crash_at && failed_at.since(o.crash_at) <= service,
            "reset report must abort at the crash instant: {:?} after it",
            failed_at.since(o.crash_at)
        );
        assert!(
            matches!(o.error, Some(Error::MbUnreachable(mb)) if mb == layout::MB_A_ID),
            "typed error names the dead MB: {:?}",
            o.error
        );
        assert_eq!(o.open_ops_after, 0, "per-op bookkeeping released");
        assert_eq!(o.dst_entries_after, 0, "partially-put destination state rolled back");
    }

    #[test]
    fn deadline_backstop_fires_without_report() {
        let o = run(Some(Detection::DeadlineOnly), quiet());
        let failed_at = o.failed_at.expect("deadline must abort the orphaned move");
        let lag = failed_at.since(o.crash_at);
        assert!(
            lag >= SimDuration::from_millis(1900) && lag <= SimDuration::from_millis(2200),
            "abort near the 2 s deadline, got {lag:?}"
        );
        assert!(matches!(o.error, Some(Error::Timeout { .. })), "typed timeout: {:?}", o.error);
        assert_eq!(o.open_ops_after, 0);
        assert_eq!(o.dst_entries_after, 0, "rollback also runs on deadline aborts");
    }

    #[test]
    fn same_seed_replays_identical_fault_log() {
        let a = run(Some(Detection::Report), quiet());
        let b = run(Some(Detection::Report), quiet());
        assert_eq!(a.fault_log, b.fault_log);
        assert!(a.fault_log.contains("Crashed"), "crash recorded: {}", a.fault_log);
        assert!(
            a.fault_log.contains("LostToCrash"),
            "frames to the dead node recorded as lost: {}",
            a.fault_log
        );
    }

    #[test]
    fn baseline_without_faults_completes_and_delivers_everything() {
        let o = run(None, quiet());
        assert!(o.completed_at.is_some(), "move completes without faults");
        assert!(o.error.is_none());
        assert_eq!(o.delivered, o.injected, "no packets lost without faults");
        assert_eq!(o.open_ops_after, 0);
    }
}
