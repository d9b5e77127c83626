//! Randomized fault-schedule conformance suite for the resumable
//! transfer choreography (DESIGN.md §10).
//!
//! A seeded generator produces a random [`FaultPlan`] — probabilistic
//! drop/delay/duplicate rules on the control links, link partitions,
//! middlebox crash/restarts (reported to the controller as southbound
//! resets), and controller crash/restores (journal enabled) — and runs
//! one `moveInternal` / `cloneSupport` / `mergeInternal` under it, for a
//! middlebox type also drawn from the seed. The paper's loss-freedom and
//! order invariants are then asserted against an unfaulted reference run
//! of the same workload:
//!
//! * **completed** → the destination (and source) hold state
//!   *identical* to the reference run's: no chunk lost, none applied
//!   twice (per-flow puts are replace-idempotent; shared puts are
//!   deduped by the MB's put log, so a duplicated merge delta would
//!   show up as diverged shared bytes);
//! * **aborted** → the compensating rollback ran: the destination is
//!   back to its pristine pre-op image (no orphaned shared state, no
//!   partially-put per-flow chunks) and the source still holds
//!   everything it started with (moves delete at the source only after
//!   quiescence, so an abort must lose nothing);
//! * either way the controller's bookkeeping drains (`open_ops == 0`)
//!   and the simulation goes idle.
//!
//! Every run is deterministic: a failing seed panics with a replay
//! command (`CONFORMANCE_SEED=<seed> cargo test ... replay_env_seed`)
//! that reproduces the byte-identical fault log and failure.

use std::net::Ipv4Addr;

use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::Completion;
use openmb_core::nodes::{ControllerNode, MbNode};
use openmb_mb::{Effects, Middlebox, SharedSnapshot};
use openmb_middleboxes::{
    DummyMb, Firewall, Ips, LoadBalancer, Monitor, Nat, Proxy, ReDecoder, ReEncoder,
};
use openmb_simnet::{FaultAction, FaultPlan, FaultRule, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, Packet, StateStats};

use crate::common::preload_flow;
use crate::report::Table;

/// Per-flow pieces preloaded at the source before the op starts.
pub(crate) const PRELOAD: usize = 60;
/// The op triggers here; fault rules activate from the same instant.
pub(crate) const OP_AT_MS: u64 = 100;
/// Normal fault windows close here; the op deadline (4 s) is far past.
const WINDOW_END_MS: u64 = 700;
/// Transfer window for every conformance run — deliberately tight (the
/// preload yields ~2×PRELOAD chunks per move) so the queue/refill path
/// runs under every fault schedule, not just at scale.
pub(crate) const CONF_WINDOW: u32 = 4;

pub(crate) fn ms(v: u64) -> SimTime {
    SimTime(v * 1_000_000)
}

/// Which transfer choreography the run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfOp {
    Move,
    Clone,
    Merge,
}

/// Which middlebox type both endpoints run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfMb {
    Monitor,
    Firewall,
    Ips,
    Nat,
    Proxy,
    LoadBalancer,
    ReEncoder,
    ReDecoder,
    Dummy,
}

pub const ALL_MBS: [ConfMb; 9] = [
    ConfMb::Monitor,
    ConfMb::Firewall,
    ConfMb::Ips,
    ConfMb::Nat,
    ConfMb::Proxy,
    ConfMb::LoadBalancer,
    ConfMb::ReEncoder,
    ConfMb::ReDecoder,
    ConfMb::Dummy,
];
pub const ALL_OPS: [ConfOp; 3] = [ConfOp::Move, ConfOp::Clone, ConfOp::Merge];

/// Private splitmix64 stream for schedule generation. The plan's own
/// rule RNGs are seeded separately, so generation draws never perturb
/// in-run fault draws.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Uniform in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A fully-expanded random fault schedule: everything [`run_schedule`]
/// needs to drive one faulted run deterministically.
pub struct Schedule {
    pub seed: u64,
    pub op: ConfOp,
    pub mb: ConfMb,
    /// Drop-storm mode: high-probability drops on every control link
    /// over a long window, to exhaust resumes and exercise the
    /// deadline-abort + rollback path.
    pub harsh: bool,
    pub plan: FaultPlan,
    /// `(mb, crash_at, restart_at)`: the runner reports the southbound
    /// reset and the reattach to the controller at these instants, the
    /// way a wire embedding's transport layer would.
    pub mb_crashes: Vec<(MbId, SimTime, SimTime)>,
}

/// Expand `seed` into a schedule. Same seed, same schedule, always.
pub fn generate(seed: u64) -> Schedule {
    use layout::*;
    let mut rng = Rng::new(seed);
    let op = ALL_OPS[rng.below(3) as usize];
    let mb = ALL_MBS[rng.below(ALL_MBS.len() as u64) as usize];
    let harsh = rng.chance(15);
    let mut plan = FaultPlan::seeded(seed ^ 0xC0FF_EE00);
    let mut mb_crashes = Vec::new();

    let ctl_dirs = [(CONTROLLER, MB_A), (MB_A, CONTROLLER), (CONTROLLER, MB_B), (MB_B, CONTROLLER)];
    if harsh {
        // Drop 75–95% of control frames on every link until 1.5 s:
        // resumes exhaust, the deadline aborts, and the rollback ledger
        // must still land its DeleteState after the storm ends.
        for (a, b) in ctl_dirs {
            let p = 0.75 + rng.f64() * 0.20;
            plan = plan.rule(
                FaultRule::on_link(a, b, FaultAction::Drop)
                    .with_probability(p)
                    .between(ms(OP_AT_MS), ms(1500)),
            );
        }
    } else {
        for _ in 0..(1 + rng.below(3)) {
            let (a, b) = ctl_dirs[rng.below(4) as usize];
            let from = OP_AT_MS + rng.below(WINDOW_END_MS - OP_AT_MS - 50);
            let until = from + 30 + rng.below(WINDOW_END_MS - from);
            plan = plan.rule(
                FaultRule::on_link(a, b, FaultAction::Drop)
                    .with_probability(0.05 + rng.f64() * 0.45)
                    .between(ms(from), ms(until)),
            );
        }
        for _ in 0..rng.below(3) {
            let (a, b) = ctl_dirs[rng.below(4) as usize];
            let by = SimDuration::from_millis(1 + rng.below(40));
            plan = plan.rule(
                FaultRule::on_link(a, b, FaultAction::Delay(by))
                    .with_probability(rng.f64() * 0.5)
                    .between(ms(OP_AT_MS), ms(WINDOW_END_MS)),
            );
        }
        for _ in 0..rng.below(3) {
            let (a, b) = ctl_dirs[rng.below(4) as usize];
            plan = plan.rule(
                FaultRule::on_link(a, b, FaultAction::Duplicate)
                    .with_probability(rng.f64() * 0.6)
                    .between(ms(OP_AT_MS), ms(WINDOW_END_MS)),
            );
        }
        if rng.chance(30) {
            // Partition one control link: both directions hold frames
            // in order and release them on heal.
            let peer = if rng.chance(50) { MB_A } else { MB_B };
            let from = OP_AT_MS + rng.below(400);
            let len = 40 + rng.below(160);
            plan = plan.partition(CONTROLLER, peer, ms(from), ms(from + len));
        }
        if rng.chance(30) {
            // Crash one middlebox mid-transfer and restart it. The MB's
            // logic tables (its state) survive; its queue does not.
            let (node, id) = if rng.chance(50) { (MB_A, MB_A_ID) } else { (MB_B, MB_B_ID) };
            let at = OP_AT_MS + 5 + rng.below(WINDOW_END_MS - OP_AT_MS - 5);
            let restart = at + 20 + rng.below(100);
            plan = plan.crash_restart(node, ms(at), ms(restart));
            mb_crashes.push((id, ms(at), ms(restart)));
        }
        if rng.chance(20) {
            // Crash the controller itself; the journal restores its
            // core, and everything volatile — queue, timers, in-flight
            // frames addressed to it — is lost.
            let at = OP_AT_MS + 5 + rng.below(WINDOW_END_MS - OP_AT_MS - 5);
            let restart = at + 10 + rng.below(70);
            plan = plan.crash_restart(CONTROLLER, ms(at), ms(restart));
        }
    }
    Schedule { seed, op, mb, harsh, plan, mb_crashes }
}

/// Everything the invariants compare after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub completed: bool,
    pub failed: bool,
    pub src_entries: usize,
    pub dst_entries: usize,
    pub src_stats: StateStats,
    pub dst_stats: StateStats,
    pub src_shared: SharedSnapshot,
    pub dst_shared: SharedSnapshot,
    pub open_ops: usize,
    /// `format!("{:?}", fault_log)` — the byte-identical replay digest.
    pub fault_log: String,
    /// The rendered flight-recorder dump: the cross-node span timeline
    /// of the run. Part of the `PartialEq` replay contract, so the
    /// recorder itself must be deterministic under a fixed schedule.
    pub timeline: String,
    /// Rendered invariant-monitor violations: the online oracle rode
    /// the span stream for the whole run, so this must be empty for
    /// every seed, faulted or not (asserted in `check_mode`).
    pub violations: Vec<String>,
}

/// The pre-op images the abort invariants compare against.
struct Initial {
    src_entries: usize,
    src_shared: SharedSnapshot,
    dst_shared: SharedSnapshot,
}

/// One-shot control app: issues the scheduled op at `at`, nothing else.
struct OneShotOp {
    op: ConfOp,
    src: MbId,
    dst: MbId,
    at: SimDuration,
}

impl ControlApp for OneShotOp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.at, 1);
    }
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        match self.op {
            ConfOp::Move => {
                api.move_internal(self.src, self.dst, HeaderFieldList::any());
            }
            ConfOp::Clone => {
                api.clone_support(self.src, self.dst);
            }
            ConfOp::Merge => {
                api.merge_internal(self.src, self.dst);
            }
        }
    }
}

/// Feed `n` deterministic packets through a middlebox so it holds
/// per-flow and (type-permitting) shared state before the op. Payload
/// bytes vary per flow so content-addressed types (RE, proxy) build
/// non-trivial caches.
pub(crate) fn preload<M: Middlebox>(mb: &mut M, n: usize) {
    let mut fx = Effects::normal();
    for i in 0..n {
        let pkt = Packet::new(i as u64 + 1, preload_flow(i), vec![(i % 251) as u8; 120]);
        mb.process_packet(SimTime(i as u64), &pkt, &mut fx);
    }
}

/// Sealed chunks embed a per-instance nonce counter, so byte-equality of
/// raw snapshots is confounded by *how many* exports an instance has
/// performed (a duplicated shared-state GET advances the counter without
/// changing state). Recoding through a fresh instance — restore, then
/// re-snapshot — normalizes the nonces so equal state means equal bytes.
pub(crate) fn canonical_shared<M: Middlebox>(
    mk: &mut impl FnMut() -> M,
    snap: SharedSnapshot,
) -> SharedSnapshot {
    let mut m = mk();
    m.restore_shared(snap).expect("shared snapshot must round-trip");
    m.snapshot_shared().expect("shared snapshot must round-trip")
}

fn drive<M: Middlebox + 'static>(
    mut mk: impl FnMut() -> M,
    op: ConfOp,
    sched: Option<&Schedule>,
    content_cache: bool,
) -> Observed {
    use layout::*;
    let mut src = mk();
    preload(&mut src, PRELOAD);
    let dst = mk();
    let app = OneShotOp { op, src: MB_A_ID, dst: MB_B_ID, at: SimDuration::from_millis(OP_AT_MS) };
    let mut setup = two_mb_scenario(src, dst, Box::new(app), ScenarioParams::default());
    // Every run flies with a recorder: a failing seed dumps the faulted
    // timeline next to its replay command, and the replay-equality test
    // doubles as a determinism check on the recorder itself. The online
    // invariant monitor rides the same stream as a sink — the always-on
    // oracle every seed must satisfy.
    let monitor =
        std::sync::Arc::new(openmb_simnet::obs::Monitor::new(openmb_simnet::obs::MonitorConfig {
            shards: 1,
            transfer_window: CONF_WINDOW,
            ..Default::default()
        }));
    let rec = openmb_simnet::obs::Recorder::enabled(1024);
    rec.add_sink(monitor.clone());
    setup.sim.set_recorder(rec);
    {
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        ctrl.core.update_config(|c| {
            c.op_deadline = SimDuration::from_secs(4);
            c.max_transfer_resumes = 8;
            c.resume_after = SimDuration::from_millis(150);
            // An ample rollback re-delivery budget: the suite must fail
            // on protocol bugs, not on a hostile schedule out-dropping
            // a small retry allowance.
            c.max_retries = 50;
            // A deliberately tight transfer window so every conformance
            // run exercises the queue/refill machinery; the post-run
            // assertion below holds the controller to it even across
            // faults.
            c.transfer_window = CONF_WINDOW;
            // Every seed runs in both transfer modes: content-addressed
            // (references negotiate against the destination's store)
            // and plain streaming.
            c.content_cache = content_cache;
        });
        ctrl.enable_journal();
    }

    // Interventions mirror what a wire embedding's transport layer
    // reports: a reset at crash time, a reattach at restart time.
    let mut events: Vec<(SimTime, MbId, bool)> = Vec::new();
    if let Some(s) = sched {
        setup.sim.set_fault_plan(s.plan.clone());
        for &(mb, at, restart) in &s.mb_crashes {
            events.push((at, mb, false));
            events.push((restart, mb, true));
        }
        events.sort_by_key(|e| e.0);
    }
    for (t, mb, up) in &events {
        setup.sim.run_until(*t, 50_000_000);
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        if *up {
            ctrl.report_reachable(*mb);
        } else {
            ctrl.report_unreachable(*mb);
        }
    }
    setup.sim.run(50_000_000);

    // A controller crash can land between a reachability report and the
    // event that drains it, eating the report (the crash clears the
    // pending vecs, as a process restart would). Re-reporting is
    // idempotent and also flushes any rollback still parked on the MB;
    // the injected timer (unknown token: drain-only) gives the
    // controller an event to drain them on.
    if !events.is_empty() {
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        for (_, mb, up) in &events {
            if *up {
                ctrl.report_reachable(*mb);
            }
        }
        let t = setup.sim.now().after(SimDuration::from_millis(1));
        setup.sim.inject_timer(t, CONTROLLER, 4242);
        setup.sim.run(50_000_000);
    }
    assert!(setup.sim.is_idle(), "simulation must drain");

    // Windowing invariant: no matter what the fault schedule did —
    // crashes, resumes, drops, duplicates — the controller never had
    // more than `transfer_window` unacked puts in flight at once.
    {
        let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
        let stats = ctrl.core.transfer_ledger_stats(openmb_types::OpId(0));
        assert!(
            stats.in_flight_peak <= CONF_WINDOW as usize,
            "transfer window violated: peak {} > window {}",
            stats.in_flight_peak,
            CONF_WINDOW
        );
    }

    let timeline = setup.sim.recorder().dump().to_string();
    let fault_log = format!("{:?}", setup.sim.fault_log());
    let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
    let completed = ctrl.completions.iter().any(|(_, c)| {
        matches!(
            c,
            Completion::MoveComplete { .. }
                | Completion::CloneComplete { .. }
                | Completion::MergeComplete { .. }
        )
    });
    let failed = ctrl.completions.iter().any(|(_, c)| matches!(c, Completion::Failed { .. }));
    let open_ops = ctrl.core.open_ops();

    let any = HeaderFieldList::any();
    let (src_entries, src_stats, src_shared) = {
        let n = setup.sim.node_as_mut::<MbNode<M>>(MB_A);
        (n.logic.perflow_entries(), n.logic.stats(&any), n.logic.snapshot_shared().unwrap())
    };
    let (dst_entries, dst_stats, dst_shared) = {
        let n = setup.sim.node_as_mut::<MbNode<M>>(MB_B);
        (n.logic.perflow_entries(), n.logic.stats(&any), n.logic.snapshot_shared().unwrap())
    };
    let src_shared = canonical_shared(&mut mk, src_shared);
    let dst_shared = canonical_shared(&mut mk, dst_shared);
    Observed {
        completed,
        failed,
        src_entries,
        dst_entries,
        src_stats,
        dst_stats,
        src_shared,
        dst_shared,
        open_ops,
        fault_log,
        timeline,
        violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    }
}

/// Run the schedule's (mb type, op) pair — faulted when `faulted`, the
/// unfaulted reference otherwise — with the content-addressed transfer
/// enabled (the default mode).
pub fn run_schedule(s: &Schedule, faulted: bool) -> Observed {
    run_schedule_mode(s, faulted, true)
}

/// [`run_schedule`] with the transfer mode explicit: `content_cache`
/// on negotiates chunk references against the destination's store,
/// off streams every body the PR-5 way.
pub fn run_schedule_mode(s: &Schedule, faulted: bool, content_cache: bool) -> Observed {
    let plan = if faulted { Some(s) } else { None };
    match s.mb {
        ConfMb::Monitor => drive(Monitor::new, s.op, plan, content_cache),
        ConfMb::Firewall => drive(Firewall::new, s.op, plan, content_cache),
        ConfMb::Ips => drive(Ips::new, s.op, plan, content_cache),
        ConfMb::Nat => drive(|| Nat::new(Ipv4Addr::new(5, 5, 5, 5)), s.op, plan, content_cache),
        ConfMb::Proxy => drive(|| Proxy::new(256), s.op, plan, content_cache),
        ConfMb::LoadBalancer => {
            let backends = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
            drive(
                move || LoadBalancer::new(Ipv4Addr::new(1, 2, 3, 4), &backends),
                s.op,
                plan,
                content_cache,
            )
        }
        ConfMb::ReEncoder => drive(|| ReEncoder::new(128), s.op, plan, content_cache),
        ConfMb::ReDecoder => drive(|| ReDecoder::new(128), s.op, plan, content_cache),
        ConfMb::Dummy => drive(DummyMb::new, s.op, plan, content_cache),
    }
}

/// [`Initial`] images for the schedule's MB type, built exactly the way
/// the runs build their endpoints.
fn initial_images(s: &Schedule) -> Initial {
    fn img<M: Middlebox + 'static>(mut mk: impl FnMut() -> M) -> Initial {
        let mut src = mk();
        preload(&mut src, PRELOAD);
        let mut dst = mk();
        let src_shared = src.snapshot_shared().unwrap();
        let dst_shared = dst.snapshot_shared().unwrap();
        Initial {
            src_entries: src.perflow_entries(),
            src_shared: canonical_shared(&mut mk, src_shared),
            dst_shared: canonical_shared(&mut mk, dst_shared),
        }
    }
    match s.mb {
        ConfMb::Monitor => img(Monitor::new),
        ConfMb::Firewall => img(Firewall::new),
        ConfMb::Ips => img(Ips::new),
        ConfMb::Nat => img(|| Nat::new(Ipv4Addr::new(5, 5, 5, 5))),
        ConfMb::Proxy => img(|| Proxy::new(256)),
        ConfMb::LoadBalancer => {
            let backends = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
            img(|| LoadBalancer::new(Ipv4Addr::new(1, 2, 3, 4), &backends))
        }
        ConfMb::ReEncoder => img(|| ReEncoder::new(128)),
        ConfMb::ReDecoder => img(|| ReDecoder::new(128)),
        ConfMb::Dummy => img(DummyMb::new),
    }
}

/// The replay command printed with every violation.
pub fn replay_command(seed: u64) -> String {
    format!(
        "CONFORMANCE_SEED={seed} cargo test -p openmb-harness --lib \
         conformance::tests::replay_env_seed -- --nocapture --include-ignored"
    )
}

/// Outcome summary for the report table.
pub struct SeedOutcome {
    pub seed: u64,
    pub op: ConfOp,
    pub mb: ConfMb,
    pub harsh: bool,
    pub completed: bool,
}

/// Run one seed end-to-end and assert every invariant, panicking with
/// the replay command on violation. The full fault schedule runs in
/// BOTH transfer modes — content-addressed and plain streaming — each
/// against its own same-mode unfaulted reference, and the two modes'
/// reference runs must end with byte-identical endpoint state (the
/// transfer encoding must be invisible in the result).
pub fn check_seed(seed: u64) -> SeedOutcome {
    let s = generate(seed);
    let (on_ref, on_faulted) = check_mode(&s, seed, true);
    let (off_ref, _) = check_mode(&s, seed, false);

    // Cross-mode: how chunks crossed the wire must not leak into state.
    let xm = || {
        format!(
            "seed {seed} ({:?} over {:?}): content-addressed and streaming reference runs \
             diverged — replay with:\n  {}",
            s.op,
            s.mb,
            replay_command(seed),
        )
    };
    assert_eq!(on_ref.dst_entries, off_ref.dst_entries, "{}\ndst entry count", xm());
    assert_eq!(on_ref.dst_stats, off_ref.dst_stats, "{}\ndst stats", xm());
    assert_eq!(on_ref.dst_shared, off_ref.dst_shared, "{}\ndst shared state", xm());
    assert_eq!(on_ref.src_entries, off_ref.src_entries, "{}\nsrc entry count", xm());
    assert_eq!(on_ref.src_stats, off_ref.src_stats, "{}\nsrc stats", xm());
    assert_eq!(on_ref.src_shared, off_ref.src_shared, "{}\nsrc shared state", xm());

    SeedOutcome { seed, op: s.op, mb: s.mb, harsh: s.harsh, completed: on_faulted.completed }
}

/// One transfer mode's half of [`check_seed`]: faulted run vs its own
/// same-mode reference, all invariants asserted. Returns
/// `(reference, faulted)`.
fn check_mode(s: &Schedule, seed: u64, content_cache: bool) -> (Observed, Observed) {
    let mode = if content_cache { "content-addressed" } else { "streaming" };
    let reference = run_schedule_mode(s, false, content_cache);
    let faulted = run_schedule_mode(s, true, content_cache);
    // A violation dumps the faulted run's flight recorder right next to
    // the replay command: the Parked/Resumed/Aborted transitions across
    // controller and MB nodes are usually enough to localize the bug
    // before replaying.
    let ctx = || {
        format!(
            "seed {seed} ({:?} over {:?}{}, {mode} mode) violated an invariant — replay with:\n  {}\n\
             faulted-run {}",
            s.op,
            s.mb,
            if s.harsh { ", harsh" } else { "" },
            replay_command(seed),
            faulted.timeline,
        )
    };

    // The online oracle: no run — faulted or reference — may emit a
    // span stream that violates the protocol invariants.
    assert!(
        reference.violations.is_empty(),
        "{}\nreference run violated protocol invariants: {:?}",
        ctx(),
        reference.violations
    );
    assert!(
        faulted.violations.is_empty(),
        "{}\nfaulted run violated protocol invariants: {:?}",
        ctx(),
        faulted.violations
    );
    assert!(
        reference.completed && !reference.failed,
        "{}\nreference run must complete cleanly: {reference:?}",
        ctx()
    );
    assert_eq!(reference.open_ops, 0, "{}\nreference bookkeeping leaked", ctx());
    assert_eq!(faulted.open_ops, 0, "{}\nfaulted bookkeeping leaked", ctx());
    assert!(
        faulted.completed != faulted.failed,
        "{}\nexactly one terminal outcome expected (completed={}, failed={})",
        ctx(),
        faulted.completed,
        faulted.failed
    );

    if faulted.completed {
        // Loss-freedom + no duplication: the destination (and source)
        // end byte-identical to the unfaulted run.
        assert_eq!(faulted.dst_entries, reference.dst_entries, "{}\ndst entry count", ctx());
        assert_eq!(faulted.dst_stats, reference.dst_stats, "{}\ndst stats", ctx());
        assert_eq!(faulted.dst_shared, reference.dst_shared, "{}\ndst shared state", ctx());
        assert_eq!(faulted.src_entries, reference.src_entries, "{}\nsrc entry count", ctx());
        assert_eq!(faulted.src_stats, reference.src_stats, "{}\nsrc stats", ctx());
        assert_eq!(faulted.src_shared, reference.src_shared, "{}\nsrc shared state", ctx());
    } else {
        // Abort: the compensation must leave the destination pristine
        // (it started empty) and the source untouched — no orphaned
        // shared state, no partially-put chunks, nothing lost.
        let initial = initial_images(s);
        assert_eq!(faulted.dst_entries, 0, "{}\naborted op left per-flow state at dst", ctx());
        assert_eq!(
            faulted.dst_shared,
            initial.dst_shared,
            "{}\naborted op left orphaned shared state at dst",
            ctx()
        );
        assert_eq!(
            faulted.src_entries,
            initial.src_entries,
            "{}\nabort lost source per-flow state",
            ctx()
        );
        assert_eq!(
            faulted.src_shared,
            initial.src_shared,
            "{}\nabort corrupted source shared state",
            ctx()
        );
    }
    (reference, faulted)
}

/// Regenerate the conformance summary over a fixed seed range (the
/// EXPERIMENTS.md table).
pub fn conformance_table() -> Table {
    let seeds: Vec<u64> = (0..24).collect();
    let mut completed = 0usize;
    let mut aborted = 0usize;
    let mut harsh = 0usize;
    for &seed in &seeds {
        let o = check_seed(seed);
        if o.completed {
            completed += 1;
        } else {
            aborted += 1;
        }
        if o.harsh {
            harsh += 1;
        }
    }
    let mut t = Table::new(
        "Fault-schedule conformance: random drop/delay/duplicate/partition/crash schedules \
         against one transfer op per seed",
        &["seeds", "completed = reference", "aborted, rollback clean", "harsh (drop-storm)"],
    );
    t.row(vec![
        seeds.len().to_string(),
        completed.to_string(),
        aborted.to_string(),
        harsh.to_string(),
    ]);
    t.note(
        "every seed satisfied the invariants: completion reproduces the unfaulted run's \
         endpoint state byte-for-byte; aborts leave no orphaned shared state and no \
         partially-put chunks. Failing seeds replay byte-identically via CONFORMANCE_SEED.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast tier-1 sweep over the first block of seeds.
    #[test]
    fn random_schedules_fast_range() {
        for seed in 0..32 {
            check_seed(seed);
        }
    }

    /// Every (mb type, op kind) pair is exercised at least once: the
    /// generator is seed-driven, so scan seeds until the matrix fills.
    #[test]
    fn every_mb_and_op_pair_is_covered() {
        let mut uncovered: Vec<(ConfMb, ConfOp)> =
            ALL_MBS.iter().flat_map(|&m| ALL_OPS.iter().map(move |&o| (m, o))).collect();
        let mut seed = 1000;
        while !uncovered.is_empty() {
            let s = generate(seed);
            if let Some(pos) = uncovered.iter().position(|&(m, o)| m == s.mb && o == s.op) {
                uncovered.swap_remove(pos);
                check_seed(seed);
            }
            seed += 1;
            assert!(seed < 3000, "generator failed to cover: {uncovered:?}");
        }
    }

    /// Same seed, byte-identical fault log and outcome — the replay
    /// contract.
    #[test]
    fn fault_logs_replay_byte_identically() {
        for seed in [3, 7] {
            let s = generate(seed);
            let a = run_schedule(&s, true);
            let b = run_schedule(&s, true);
            assert_eq!(a.fault_log, b.fault_log, "seed {seed} replay diverged");
            assert_eq!(a, b, "seed {seed} full outcome diverged");
        }
    }

    /// Satellite regression: duplicating every control frame (including
    /// every chunk ack, reference, and body request) must not
    /// double-count in the transfer ledgers — the move completes with
    /// exactly the reference state. The schedule is deterministic
    /// (p = 1.0 rules), so both transfer modes see the same faults and
    /// must land the same per-op outcome and byte-identical state.
    #[test]
    fn duplicated_chunk_acks_are_deduplicated() {
        use layout::*;
        let mut s = generate(0);
        s.op = ConfOp::Move;
        s.mb = ConfMb::Monitor;
        s.harsh = false;
        s.mb_crashes.clear();
        let mut plan = FaultPlan::seeded(0xD0D0);
        for (a, b) in
            [(CONTROLLER, MB_A), (MB_A, CONTROLLER), (CONTROLLER, MB_B), (MB_B, CONTROLLER)]
        {
            plan = plan.rule(
                FaultRule::on_link(a, b, FaultAction::Duplicate)
                    .between(ms(OP_AT_MS), ms(WINDOW_END_MS)),
            );
        }
        s.plan = plan;
        let reference = run_schedule(&s, false);
        let faulted = run_schedule(&s, true);
        assert!(faulted.completed && !faulted.failed, "dup-everything move must complete");
        assert_eq!(faulted.dst_entries, reference.dst_entries);
        assert_eq!(faulted.dst_stats, reference.dst_stats);
        assert_eq!(faulted.src_stats, reference.src_stats);
        assert_eq!(faulted.open_ops, 0);

        let streaming = run_schedule_mode(&s, true, false);
        assert_eq!(streaming.completed, faulted.completed, "per-op outcome diverged across modes");
        assert_eq!(streaming.failed, faulted.failed);
        assert_eq!(streaming.dst_entries, faulted.dst_entries);
        assert_eq!(streaming.dst_stats, faulted.dst_stats);
        assert_eq!(streaming.dst_shared, faulted.dst_shared);
        assert_eq!(streaming.src_stats, faulted.src_stats);
        assert_eq!(streaming.src_shared, faulted.src_shared);
    }

    /// Predict the content hashes a Monitor move will put in its
    /// manifest: a probe instance with the identical preload and export
    /// call sequence seals byte-identical chunks (exports are key-sorted
    /// and the nonce counter starts equal), so the hashes match the real
    /// run's.
    fn monitor_transfer_hashes() -> Vec<(openmb_store::ContentHash, Vec<u8>)> {
        use openmb_types::OpId;
        let mut probe = Monitor::new();
        preload(&mut probe, PRELOAD);
        let _ = probe.get_support_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        let chunks = probe.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert!(!chunks.is_empty(), "probe must export the preloaded flows");
        chunks
            .into_iter()
            .map(|c| {
                let bytes = c.data.as_wire().to_vec();
                (openmb_store::content_hash(&bytes), bytes)
            })
            .collect()
    }

    /// Build the same scenario [`drive`] builds for a Monitor move with
    /// the content cache on, returning the setup ready to run.
    fn monitor_move_setup() -> openmb_apps::scenarios::TwoMbSetup {
        use layout::*;
        let mut src = Monitor::new();
        preload(&mut src, PRELOAD);
        let app = OneShotOp {
            op: ConfOp::Move,
            src: MB_A_ID,
            dst: MB_B_ID,
            at: SimDuration::from_millis(OP_AT_MS),
        };
        let mut setup =
            two_mb_scenario(src, Monitor::new(), Box::new(app), ScenarioParams::default());
        let ctrl = setup.sim.node_as_mut::<ControllerNode>(CONTROLLER);
        ctrl.core.update_config(|c| {
            c.op_deadline = SimDuration::from_secs(4);
            c.transfer_window = CONF_WINDOW;
            c.content_cache = true;
        });
        setup
    }

    /// Satellite acceptance: a destination cache poisoned under exactly
    /// the hashes the manifest will reference must fall back to
    /// streaming — every reference fails re-verification, every body
    /// flows, and the final state is byte-identical to an unpoisoned
    /// run's. Without the destination-side re-hash this test would
    /// import garbage as flow state.
    #[test]
    fn poisoned_destination_cache_falls_back_to_streaming() {
        use layout::*;
        let mut s = generate(0);
        s.op = ConfOp::Move;
        s.mb = ConfMb::Monitor;
        let reference = run_schedule_mode(&s, false, true);

        let hashes = monitor_transfer_hashes();
        let mut setup = monitor_move_setup();
        {
            let dst = setup.sim.node_as_mut::<MbNode<Monitor>>(MB_B);
            for (h, _) in &hashes {
                dst.shared_log().store().insert_unchecked(*h, vec![0xAB; 7]);
            }
        }
        setup.sim.run(50_000_000);
        assert!(setup.sim.is_idle(), "simulation must drain");

        let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
        assert!(
            ctrl.completions.iter().any(|(_, c)| matches!(c, Completion::MoveComplete { .. })),
            "poisoned cache must degrade to streaming, not break the move"
        );
        let stats = ctrl.core.transfer_ledger_stats(openmb_types::OpId(0));
        assert_eq!(stats.cache_hits, 0, "every poisoned entry must fail re-verification");
        assert_eq!(stats.cache_misses as usize, hashes.len(), "every reference must miss");
        assert!(stats.bodies_sent >= stats.cache_misses, "every miss must stream its body");

        let dst = setup.sim.node_as_mut::<MbNode<Monitor>>(MB_B);
        assert_eq!(dst.logic.perflow_entries(), reference.dst_entries);
        assert_eq!(dst.logic.stats(&HeaderFieldList::any()), reference.dst_stats);
        // The streamed bodies repaired the store: every referenced hash
        // now re-verifies. This also pins the probe's hash prediction to
        // the real transfer — a drifted probe would leave these entries
        // poisoned and unfetchable.
        for (h, _) in &hashes {
            let data = dst.shared_log().store().get(h).expect("streamed body must be cached");
            assert_eq!(openmb_store::content_hash(&data), *h, "store entry must re-verify");
        }
    }

    /// The warm path: a destination store already holding every chunk
    /// body (a repeated or resumed move) answers the whole manifest from
    /// cache — zero bodies cross the wire and the state still lands
    /// byte-identical to a cold run's.
    #[test]
    fn warm_destination_cache_answers_references_without_bodies() {
        use layout::*;
        let mut s = generate(0);
        s.op = ConfOp::Move;
        s.mb = ConfMb::Monitor;
        let reference = run_schedule_mode(&s, false, true);

        let hashes = monitor_transfer_hashes();
        let mut setup = monitor_move_setup();
        {
            let dst = setup.sim.node_as_mut::<MbNode<Monitor>>(MB_B);
            for (h, bytes) in &hashes {
                assert_eq!(&dst.shared_log().store().put(bytes), h);
            }
        }
        setup.sim.run(50_000_000);
        assert!(setup.sim.is_idle(), "simulation must drain");

        let ctrl: &ControllerNode = setup.sim.node_as(CONTROLLER);
        assert!(
            ctrl.completions.iter().any(|(_, c)| matches!(c, Completion::MoveComplete { .. })),
            "warm move must complete"
        );
        let stats = ctrl.core.transfer_ledger_stats(openmb_types::OpId(0));
        assert_eq!(stats.cache_hits as usize, hashes.len(), "every reference must hit");
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.bodies_sent, 0, "a warm move must stream no bodies");
        assert!(stats.bytes_saved > 0);

        let dst = setup.sim.node_as_mut::<MbNode<Monitor>>(MB_B);
        assert_eq!(dst.logic.perflow_entries(), reference.dst_entries);
        assert_eq!(dst.logic.stats(&HeaderFieldList::any()), reference.dst_stats);
    }

    /// Observability acceptance: a crafted crash/restart of the
    /// destination MB mid-transfer leaves a flight-recorder timeline
    /// showing the park → resume transition, with events from the
    /// controller, the MB node, and the fault injector interleaved on
    /// one clock.
    #[test]
    fn timeline_shows_park_and_resume_across_nodes() {
        use layout::*;
        let mut s = generate(0);
        s.op = ConfOp::Move;
        s.mb = ConfMb::Monitor;
        s.harsh = false;
        // Slow the puts (40 ms controller→dst delay) so the transfer is
        // still in flight when the destination crashes at 150 ms; it
        // restarts at 400 ms and the parked move resumes.
        let mut plan = FaultPlan::seeded(0xBEEF);
        plan = plan.rule(
            FaultRule::on_link(CONTROLLER, MB_B, FaultAction::Delay(SimDuration::from_millis(40)))
                .between(ms(OP_AT_MS), ms(300)),
        );
        s.plan = plan.crash_restart(MB_B, ms(150), ms(400));
        s.mb_crashes = vec![(MB_B_ID, ms(150), ms(400))];

        let o = run_schedule(&s, true);
        assert!(o.completed && !o.failed, "parked move must resume and complete\n{}", o.timeline);
        let t = &o.timeline;
        assert!(t.contains("issued(moveInternal)"), "{t}");
        assert!(t.contains("parked(mb1-unreachable)"), "{t}");
        assert!(t.contains("resumed(from_seq="), "{t}");
        // Cross-node: controller spans, MB-side handler events, and the
        // injected faults all land in the same dump.
        assert!(t.contains("controller"), "{t}");
        assert!(t.contains("mb:mb_b"), "{t}");
        assert!(t.contains("handled("), "{t}");
        assert!(t.contains("fault("), "{t}");
        // The park precedes the resume in the rendered order.
        let park = t.find("parked(mb1-unreachable)").unwrap();
        let resume = t.find("resumed(from_seq=").unwrap();
        assert!(park < resume, "park must precede resume\n{t}");
    }

    /// Observability acceptance, abort path: a total drop storm
    /// outlasting the 4 s deadline forces the op to abort, and the
    /// timeline records the `aborted(...)` transition.
    #[test]
    fn timeline_shows_abort_under_drop_storm() {
        use layout::*;
        let mut s = generate(0);
        s.op = ConfOp::Move;
        s.mb = ConfMb::Monitor;
        s.harsh = true;
        s.mb_crashes.clear();
        let mut plan = FaultPlan::seeded(0xABCD);
        for (a, b) in
            [(CONTROLLER, MB_A), (MB_A, CONTROLLER), (CONTROLLER, MB_B), (MB_B, CONTROLLER)]
        {
            plan = plan
                .rule(FaultRule::on_link(a, b, FaultAction::Drop).between(ms(OP_AT_MS), ms(6000)));
        }
        s.plan = plan;

        let o = run_schedule(&s, true);
        assert!(o.failed && !o.completed, "total storm must abort\n{}", o.timeline);
        let t = &o.timeline;
        assert!(t.contains("issued(moveInternal)"), "{t}");
        assert!(t.contains("aborted("), "{t}");
        assert!(t.contains("fault(drop)"), "{t}");
    }

    /// The long randomized sweep (CI nightly / `--include-ignored`):
    /// 200+ seeds beyond the fast range.
    #[test]
    #[ignore = "long randomized sweep; run with --include-ignored"]
    fn random_schedules_long_range() {
        for seed in 32..240 {
            check_seed(seed);
        }
    }

    /// Replay hook: `CONFORMANCE_SEED=<n> cargo test -p openmb-harness
    /// --lib conformance::tests::replay_env_seed -- --nocapture
    /// --include-ignored` re-runs one failing seed with its schedule
    /// printed.
    #[test]
    #[ignore = "replay hook; set CONFORMANCE_SEED to use"]
    fn replay_env_seed() {
        let Ok(v) = std::env::var("CONFORMANCE_SEED") else {
            eprintln!("CONFORMANCE_SEED not set; nothing to replay");
            return;
        };
        let seed: u64 = v.parse().expect("CONFORMANCE_SEED must be an integer");
        let s = generate(seed);
        eprintln!(
            "replaying seed {seed}: {:?} over {:?}, harsh={}, {} rules, {} crashes, {} partitions",
            s.op,
            s.mb,
            s.harsh,
            s.plan.rules.len(),
            s.plan.crashes.len(),
            s.plan.partitions.len()
        );
        let o = check_seed(seed);
        eprintln!("seed {seed} passed (completed={})", o.completed);
    }

    #[test]
    fn conformance_table_regenerates() {
        let t = conformance_table();
        assert_eq!(t.rows.len(), 1);
    }
}
