//! The conformance engine for the resumable transfer choreography
//! (DESIGN.md §10, §14–§16): one driver, one endpoint record, one
//! oracle hook and one replay variable behind three suites.
//!
//! A suite is a seeded generator that expands a seed into a
//! [`Schedule`] — probabilistic drop/delay/duplicate rules on the
//! control links, link partitions, middlebox crash/restarts (reported
//! to the controller as southbound resets), and controller
//! crash/restores (journal enabled) — plus a scenario builder and the
//! suite's own invariants:
//!
//! * the single-op suite (`single.rs`, re-exported here): one
//!   `moveInternal` / `cloneSupport` / `mergeInternal` over one of nine
//!   MB types, in both transfer modes;
//! * [`crate::conformance_concurrent`]: K ≥ 3 disjoint ops in the same
//!   instant on a 4-shard controller;
//! * [`crate::conformance_chain`]: one 2–4 hop chain move as a single
//!   transaction.
//!
//! [`drive`] runs any of them and hands back one [`Run`]. The paper's
//! loss-freedom and order invariants are asserted against an unfaulted
//! reference run of the same workload:
//!
//! * **completed** → the destination (and source) hold state
//!   *identical* to the reference run's ([`assert_matches_reference`]):
//!   no chunk lost, none applied twice (per-flow puts are
//!   replace-idempotent; shared puts are deduped by the MB's put log,
//!   so a duplicated merge delta would show up as diverged shared
//!   bytes);
//! * **aborted** → the compensating rollback ran ([`assert_pristine`]):
//!   the destination is back to its pristine pre-op image (no orphaned
//!   shared state, no partially-put per-flow chunks) and the source
//!   still holds everything it started with (moves delete at the source
//!   only after quiescence, so an abort must lose nothing);
//! * either way the controller's bookkeeping drains (`open_ops == 0`),
//!   the simulation goes idle, the online invariant monitor stays
//!   silent, and no ledger ever exceeded the transfer window.
//!
//! Every run is deterministic: a failing seed panics with a replay
//! command (`CONFORMANCE_SEED=<suite>:<seed> cargo test ...
//! replay_env_seed`) that reproduces the byte-identical fault log and
//! failure.

use std::sync::{Arc, Mutex};

use openmb_apps::scenarios::multi_layout::{dst_mb, dst_node, src_mb, src_node, CONTROLLER};
use openmb_apps::scenarios::SubmitAt;
use openmb_core::app::ControlApp;
use openmb_core::controller::{Completion, ControllerConfig, Request};
use openmb_core::nodes::{ControllerNode, MbNode};
use openmb_mb::{Effects, Middlebox, SharedSnapshot};
use openmb_simnet::obs::{Monitor, MonitorConfig, Recorder};
use openmb_simnet::{FaultAction, FaultPlan, FaultRule, Sim, SimDuration, SimTime};
use openmb_types::{HeaderFieldList, MbId, NodeId, OpId, Packet, StateStats};

use crate::common::preload_flow;

/// Per-flow pieces preloaded at the source before the op starts.
pub(crate) const PRELOAD: usize = 60;
/// The op triggers here; fault rules activate from the same instant.
pub(crate) const OP_AT_MS: u64 = 100;
/// Transfer window for every conformance run — deliberately tight (the
/// preload yields ~2×PRELOAD chunks per move) so the queue/refill path
/// runs under every fault schedule, not just at scale.
pub(crate) const CONF_WINDOW: u32 = 4;

pub(crate) fn ms(v: u64) -> SimTime {
    SimTime(v * 1_000_000)
}

/// Which transfer choreography an op exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfOp {
    Move,
    Clone,
    Merge,
}

pub const ALL_OPS: [ConfOp; 3] = [ConfOp::Move, ConfOp::Clone, ConfOp::Merge];

impl ConfOp {
    /// The northbound request for this op from `src` to `dst`, over the
    /// whole flowspace.
    pub(crate) fn request(self, src: MbId, dst: MbId) -> Request {
        match self {
            ConfOp::Move => Request::Move { src, dst, key: HeaderFieldList::any() },
            ConfOp::Clone => Request::Clone { src, dst },
            ConfOp::Merge => Request::Merge { src, dst },
        }
    }
}

/// Which middlebox type every endpoint of a run uses.
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
/// The multi-pair suites' subset: three distinct state shapes (per-flow
/// only; per-flow + policy config; per-flow + shared pool).
pub const CONC_MBS: [ConfMb; 3] = [ConfMb::Monitor, ConfMb::Firewall, ConfMb::Nat];

/// The one place a [`ConfMb`] becomes a constructor:
/// `with_mb!(mb, f, args…)` calls the generic `f(mk, args…)` with
/// `mk: impl FnMut() -> M` building the chosen type.
macro_rules! with_mb {
    ($mb:expr, $f:ident $(, $arg:expr)*) => {{
        use openmb_middleboxes as m;
        use std::net::Ipv4Addr as Ip;
        use $crate::conformance::ConfMb;
        match $mb {
            ConfMb::Monitor => $f(m::Monitor::new $(, $arg)*),
            ConfMb::Firewall => $f(m::Firewall::new $(, $arg)*),
            ConfMb::Ips => $f(m::Ips::new $(, $arg)*),
            ConfMb::Nat => $f(|| m::Nat::new(Ip::new(5, 5, 5, 5)) $(, $arg)*),
            ConfMb::Proxy => $f(|| m::Proxy::new(256) $(, $arg)*),
            ConfMb::LoadBalancer => $f(
                || {
                    let backends = [Ip::new(10, 0, 0, 1), Ip::new(10, 0, 0, 2)];
                    m::LoadBalancer::new(Ip::new(1, 2, 3, 4), &backends)
                }
                $(, $arg)*
            ),
            ConfMb::ReEncoder => $f(|| m::ReEncoder::new(128) $(, $arg)*),
            ConfMb::ReDecoder => $f(|| m::ReDecoder::new(128) $(, $arg)*),
            ConfMb::Dummy => $f(m::DummyMb::new $(, $arg)*),
        }
    }};
}
pub(crate) use with_mb;

/// `(mb, crash_at, restart_at)`: the driver reports the southbound
/// reset and the reattach to the controller at these instants, the way
/// a wire embedding's transport layer would.
pub type MbCrash = (MbId, SimTime, SimTime);

/// A fully-expanded random fault schedule: everything needed to drive
/// one faulted run deterministically. `shape` is what the suite drew
/// besides faults — the op, the per-pair ops, or the hop count.
pub struct Schedule<S> {
    pub seed: u64,
    pub mb: ConfMb,
    /// Drop-storm mode: high-probability drops on every control link
    /// over a long window, to exhaust resumes and exercise the
    /// deadline-abort + rollback path.
    pub harsh: bool,
    pub plan: FaultPlan,
    pub mb_crashes: Vec<MbCrash>,
    pub shape: S,
}

/// What [`drive`] injects: the plan and the MB crashes to report.
pub(crate) type Faults<'a> = Option<(&'a FaultPlan, &'a [MbCrash])>;

impl<S> Schedule<S> {
    /// The schedule's faults when `faulted`, none for the reference run.
    pub(crate) fn faults(&self, faulted: bool) -> Faults<'_> {
        faulted.then_some((&self.plan, &self.mb_crashes[..]))
    }
}

/// Private splitmix64 stream for schedule generation. The plan's own
/// rule RNGs are seeded separately, so generation draws never perturb
/// in-run fault draws.
pub(crate) struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }
    fn next(&mut self) -> u64 {
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
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The four control-link directions of one `(src, dst)` endpoint pair.
pub(crate) type Links = [(NodeId, NodeId); 4];

pub(crate) fn ctl_links(src: NodeId, dst: NodeId) -> Links {
    [(CONTROLLER, src), (src, CONTROLLER), (CONTROLLER, dst), (dst, CONTROLLER)]
}

/// The constants the concurrent and chain per-pair fault mixes differ
/// in (all in ms; see [`ScheduleGen::pair_mix`]).
pub(crate) struct PairMix {
    /// Drop windows open in `[OP_AT_MS, OP_AT_MS + drop_from)`…
    pub drop_from: u64,
    /// …and last `30 + below(drop_len(from))`.
    pub drop_len: fn(u64) -> u64,
    /// Delay and duplicate rules stay live until here.
    pub window_end: u64,
    pub partition_from: u64,
    pub crash_from: u64,
}

/// A schedule under construction: the suite's RNG stream plus the
/// rule-building vocabulary all three generators share. Each method's
/// draw order is part of every seed's meaning (pinned by
/// `generator_digests_are_pinned`).
pub(crate) struct ScheduleGen {
    pub rng: Rng,
    plan: FaultPlan,
    mb_crashes: Vec<MbCrash>,
}

impl ScheduleGen {
    pub(crate) fn new(rng_seed: u64, plan_seed: u64) -> Self {
        ScheduleGen {
            rng: Rng::new(rng_seed),
            plan: FaultPlan::seeded(plan_seed),
            mb_crashes: Vec::new(),
        }
    }

    fn plan(&mut self, add: impl FnOnce(FaultPlan) -> FaultPlan) {
        self.plan = add(std::mem::take(&mut self.plan));
    }

    fn rule(
        &mut self,
        (a, b): (NodeId, NodeId),
        action: FaultAction,
        p: f64,
        from: u64,
        until: u64,
    ) {
        let rule =
            FaultRule::on_link(a, b, action).with_probability(p).between(ms(from), ms(until));
        self.plan(|plan| plan.rule(rule));
    }

    fn pick(&mut self, links: &Links) -> (NodeId, NodeId) {
        links[self.rng.below(4) as usize]
    }

    /// Harsh mode: drop 75–95% of control frames on every link until
    /// 1.5 s — resumes exhaust, the deadline aborts, and the rollback
    /// ledger must still land its DeleteState after the storm ends.
    pub(crate) fn storm(&mut self, links: &Links) {
        for &link in links {
            let p = 0.75 + self.rng.f64() * 0.20;
            self.rule(link, FaultAction::Drop, p, OP_AT_MS, 1500);
        }
    }

    pub(crate) fn drop(&mut self, links: &Links, from_span: u64, len: impl Fn(u64) -> u64) {
        let link = self.pick(links);
        let from = OP_AT_MS + self.rng.below(from_span);
        let until = from + 30 + self.rng.below(len(from));
        let p = 0.05 + self.rng.f64() * 0.45;
        self.rule(link, FaultAction::Drop, p, from, until);
    }

    pub(crate) fn delay(&mut self, links: &Links, max_ms: u64, until: u64) {
        let link = self.pick(links);
        let by = SimDuration::from_millis(1 + self.rng.below(max_ms));
        let p = self.rng.f64() * 0.5;
        self.rule(link, FaultAction::Delay(by), p, OP_AT_MS, until);
    }

    pub(crate) fn duplicate(&mut self, links: &Links, until: u64) {
        let link = self.pick(links);
        let p = self.rng.f64() * 0.6;
        self.rule(link, FaultAction::Duplicate, p, OP_AT_MS, until);
    }

    /// Partition one of the pair's control links: both directions hold
    /// frames in order and release them on heal.
    pub(crate) fn partition(&mut self, src: NodeId, dst: NodeId, from_span: u64) {
        let peer = if self.rng.chance(50) { src } else { dst };
        let from = OP_AT_MS + self.rng.below(from_span);
        let len = 40 + self.rng.below(160);
        self.plan(|plan| plan.partition(CONTROLLER, peer, ms(from), ms(from + len)));
    }

    /// Crash one of the pair's middleboxes and restart it after
    /// `down + below(down_span)` ms. The MB's logic tables (its state)
    /// survive; its queue does not.
    pub(crate) fn mb_crash(
        &mut self,
        src: (NodeId, MbId),
        dst: (NodeId, MbId),
        from_span: u64,
        (down, down_span): (u64, u64),
    ) {
        let (node, id) = if self.rng.chance(50) { src } else { dst };
        let at = OP_AT_MS + 5 + self.rng.below(from_span);
        let restart = at + down + self.rng.below(down_span);
        self.plan(|plan| plan.crash_restart(node, ms(at), ms(restart)));
        self.mb_crashes.push((id, ms(at), ms(restart)));
    }

    /// Crash the controller itself; the journal restores its core, and
    /// everything volatile — queue, timers, in-flight frames addressed
    /// to it — is lost.
    pub(crate) fn controller_crash(&mut self, from_span: u64) {
        let at = OP_AT_MS + 5 + self.rng.below(from_span);
        let restart = at + 10 + self.rng.below(70);
        self.plan(|plan| plan.crash_restart(CONTROLLER, ms(at), ms(restart)));
    }

    /// Pair `i`'s independent small fault mix in the multi-pair layout,
    /// so one op (or hop) can run clean while its neighbor fights
    /// drops. The MB-crash chance is always drawn; `may_crash` only
    /// decides whether it is acted on.
    pub(crate) fn pair_mix(&mut self, i: u32, mix: &PairMix, may_crash: bool) {
        let links = ctl_links(src_node(i), dst_node(i));
        for _ in 0..self.rng.below(3) {
            self.drop(&links, mix.drop_from, mix.drop_len);
        }
        for _ in 0..self.rng.below(2) {
            self.delay(&links, 30, mix.window_end);
        }
        for _ in 0..self.rng.below(2) {
            self.duplicate(&links, mix.window_end);
        }
        if self.rng.chance(20) {
            self.partition(src_node(i), dst_node(i), mix.partition_from);
        }
        if self.rng.chance(25) && may_crash {
            let (src, dst) = ((src_node(i), src_mb(i)), (dst_node(i), dst_mb(i)));
            self.mb_crash(src, dst, mix.crash_from, (20, 100));
        }
    }

    pub(crate) fn finish<S>(mut self, seed: u64, mb: ConfMb, harsh: bool, shape: S) -> Schedule<S> {
        self.mb_crashes.sort_by_key(|c| c.1);
        Schedule { seed, mb, harsh, plan: self.plan, mb_crashes: self.mb_crashes, shape }
    }
}

/// A built-but-not-yet-run scenario: what a suite's builder hands to
/// [`drive`], and what a test may tamper with in between (poison a
/// store, warm a cache). The sim stays inspectable after the run.
pub(crate) struct Scenario {
    pub sim: Sim,
    /// `(src, dst)` endpoint nodes, in pair order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Flight-recorder ring size (part of the timeline's bytes).
    pub ring: usize,
    issued: Arc<Mutex<Vec<OpId>>>,
}

impl Scenario {
    /// Two-step construction, because the app must exist before the
    /// sim that hosts it: `build` receives the boxed app submitting
    /// `requests` at `OP_AT_MS` and returns the sim and its endpoint
    /// pairs.
    pub(crate) fn new(
        requests: Vec<Request>,
        ring: usize,
        build: impl FnOnce(Box<dyn ControlApp>) -> (Sim, Vec<(NodeId, NodeId)>),
    ) -> Self {
        let app = SubmitAt::new(SimDuration::from_millis(OP_AT_MS), requests);
        let issued = app.issued();
        let (sim, pairs) = build(Box::new(app));
        Scenario { sim, pairs, ring, issued }
    }
}

/// The controller tunables every conformance run shares.
pub(crate) fn tune(c: &mut ControllerConfig, content_cache: bool) {
    c.op_deadline = SimDuration::from_secs(4);
    c.max_transfer_resumes = 8;
    c.resume_after = SimDuration::from_millis(150);
    // An ample rollback re-delivery budget: the suites must fail on
    // protocol bugs, not on a hostile schedule out-dropping a small
    // retry allowance.
    c.max_retries = 50;
    // A deliberately tight window so every run exercises the
    // queue/refill machinery; `drive` holds the controller to it even
    // across faults.
    c.transfer_window = CONF_WINDOW;
    c.content_cache = content_cache;
}

/// Install a flight recorder with the online invariant monitor riding
/// its span stream as a sink — the always-on oracle. The monitor sees
/// every event live, including ones the ring later evicts.
pub(crate) fn attach_oracle(sim: &mut Sim, shards: u32, window: u32, ring: usize) -> Arc<Monitor> {
    let monitor = Arc::new(Monitor::new(MonitorConfig {
        shards,
        transfer_window: window,
        ..MonitorConfig::default()
    }));
    let rec = Recorder::enabled(ring);
    rec.add_sink(monitor.clone());
    sim.set_recorder(rec);
    monitor
}

/// One endpoint pair's state: what the invariants compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoints {
    pub src_entries: usize,
    pub dst_entries: usize,
    pub src_stats: StateStats,
    pub dst_stats: StateStats,
    pub src_shared: SharedSnapshot,
    pub dst_shared: SharedSnapshot,
}

/// Everything one run exposes to the invariants — and, through
/// `PartialEq`, to the replay-equality tests, so the recorder and the
/// shard scheduling must be deterministic under a fixed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Endpoint state per `(src, dst)` pair, in pair order.
    pub pairs: Vec<Endpoints>,
    pub completions: Vec<(SimTime, Completion)>,
    /// The issued op ids, in request order, and the shard each was
    /// placed on.
    pub ops: Vec<OpId>,
    pub shards: Vec<usize>,
    pub open_ops: usize,
    pub open_chains: usize,
    /// `format!("{:?}", fault_log)` — the byte-identical replay digest.
    pub fault_log: String,
    /// The rendered flight-recorder dump: the cross-node span timeline.
    pub timeline: String,
    /// Rendered invariant-monitor violations; must be empty for every
    /// run, faulted or not.
    pub violations: Vec<String>,
}

impl Run {
    /// `(completed, failed)`: which terminal completions the `i`-th
    /// issued op (or chain) produced.
    pub fn outcome(&self, i: usize) -> (bool, bool) {
        let mine = || self.completions.iter().filter(|(_, c)| c.op() == Some(self.ops[i]));
        let completed = mine().any(|(_, c)| {
            matches!(
                c,
                Completion::MoveComplete { .. }
                    | Completion::CloneComplete { .. }
                    | Completion::MergeComplete { .. }
                    | Completion::ChainComplete { .. }
            )
        });
        (completed, mine().any(|(_, c)| matches!(c, Completion::Failed { .. })))
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

/// One pair's logic as every run starts it: source preloaded,
/// destination fresh.
pub(crate) fn fresh_pair<M: Middlebox>(mk: &mut impl FnMut() -> M) -> (M, M) {
    let mut src = mk();
    preload(&mut src, PRELOAD);
    (src, mk())
}

/// One endpoint's `(entries, stats, shared)` image.
type Image = (usize, StateStats, SharedSnapshot);

/// Sealing is convergent (a chunk's bytes follow from its plaintext),
/// so the snapshot is read as it is: equal shared state is equal bytes,
/// however many exports the instance performed before.
fn image<M: Middlebox>(logic: &mut M) -> Image {
    let (entries, stats) = (logic.perflow_entries(), logic.stats(&HeaderFieldList::any()));
    (entries, stats, logic.snapshot_shared().expect("shared state must snapshot"))
}

impl Endpoints {
    fn new(src: Image, dst: Image) -> Self {
        Endpoints {
            src_entries: src.0,
            dst_entries: dst.0,
            src_stats: src.1,
            dst_stats: dst.1,
            src_shared: src.2,
            dst_shared: dst.2,
        }
    }
}

/// The pristine pre-op image of one pair, built exactly the way the
/// runs build their endpoints — what an abort must restore.
pub(crate) fn initial_images(mb: ConfMb) -> Endpoints {
    fn img<M: Middlebox>(mut mk: impl FnMut() -> M) -> Endpoints {
        let (mut src, mut dst) = fresh_pair(&mut mk);
        Endpoints::new(image(&mut src), image(&mut dst))
    }
    with_mb!(mb, img)
}

/// Run a built scenario to quiescence under `faults` (none for a
/// reference run) with the oracle attached and the journal on, and
/// read everything back. Asserts what no schedule may break: the
/// simulation drains, the requests were issued, and no shard's ledger
/// ever held more than the configured window of unacked puts.
pub(crate) fn drive<M: Middlebox + 'static>(sc: &mut Scenario, faults: Faults<'_>) -> Run {
    let sim = &mut sc.sim;
    let config = sim.node_as::<ControllerNode>(CONTROLLER).core.config();
    // Every run flies with a recorder: a failing seed dumps the faulted
    // timeline next to its replay command, and the replay-equality
    // tests double as a determinism check on the recorder itself.
    let monitor = attach_oracle(sim, config.shards, config.transfer_window, sc.ring);
    sim.node_as_mut::<ControllerNode>(CONTROLLER).enable_journal();

    // Interventions mirror what a wire embedding's transport layer
    // reports: a reset at crash time, a reattach at restart time.
    let mut events: Vec<(SimTime, MbId, bool)> = Vec::new();
    if let Some((plan, mb_crashes)) = faults {
        sim.set_fault_plan(plan.clone());
        for &(mb, at, restart) in mb_crashes {
            events.push((at, mb, false));
            events.push((restart, mb, true));
        }
        events.sort_by_key(|e| e.0);
    }
    for &(t, mb, up) in &events {
        sim.run_until(t, 50_000_000);
        ControllerNode::report_reachability(sim, CONTROLLER, t, mb, up);
    }
    sim.run(50_000_000);

    // A controller that is down when a reachability report lands never
    // sees it, as a dead process misses a reset. Re-reporting every
    // reattach once the run has drained is idempotent and also flushes
    // any rollback still parked on the MB.
    if !events.is_empty() {
        let t = sim.now().after(SimDuration::from_millis(1));
        for &(_, mb, up) in &events {
            if up {
                ControllerNode::report_reachability(sim, CONTROLLER, t, mb, true);
            }
        }
        sim.run(50_000_000);
    }
    assert!(sim.is_idle(), "simulation must drain");

    let ops: Vec<OpId> = sc.issued.lock().unwrap().clone();
    assert!(!ops.is_empty(), "the scheduled requests must have been issued");
    let ctrl: &ControllerNode = sim.node_as(CONTROLLER);
    // Windowing invariant: no matter what the schedule did — crashes,
    // resumes, drops, duplicates, ops interleaved across shards,
    // reverse compensation — no shard ever had more than
    // `transfer_window` unacked puts in flight (the peak is core-wide,
    // so one probe covers every op the run issued).
    let peak = ctrl.core.transfer_ledger_stats(ops[0]).in_flight_peak;
    assert!(
        peak <= config.transfer_window as usize,
        "transfer window violated: peak {peak} > window {}",
        config.transfer_window
    );
    let mut run = Run {
        pairs: Vec::with_capacity(sc.pairs.len()),
        completions: ctrl.completions.clone(),
        shards: ops.iter().map(|&op| ctrl.core.shard_of_op(op)).collect(),
        ops,
        open_ops: ctrl.core.open_ops(),
        open_chains: ctrl.core.open_chains(),
        fault_log: format!("{:?}", sim.fault_log()),
        timeline: sim.recorder().dump().to_string(),
        violations: monitor.violations().iter().map(|v| v.to_string()).collect(),
    };
    for &(src, dst) in &sc.pairs {
        let src = image(&mut sim.node_as_mut::<MbNode<M>>(src).logic);
        let dst = image(&mut sim.node_as_mut::<MbNode<M>>(dst).logic);
        run.pairs.push(Endpoints::new(src, dst));
    }
    run
}

/// Completed-op invariant — loss-freedom and no duplication: the pair
/// ends byte-identical to the reference. `ctx` names the run and how
/// to replay it.
pub(crate) fn assert_matches_reference(
    got: &Endpoints,
    reference: &Endpoints,
    ctx: impl Fn() -> String,
) {
    assert_eq!(got.dst_entries, reference.dst_entries, "{}\ndst entry count", ctx());
    assert_eq!(got.dst_stats, reference.dst_stats, "{}\ndst stats", ctx());
    assert_eq!(got.dst_shared, reference.dst_shared, "{}\ndst shared state", ctx());
    assert_eq!(got.src_entries, reference.src_entries, "{}\nsrc entry count", ctx());
    assert_eq!(got.src_stats, reference.src_stats, "{}\nsrc stats", ctx());
    assert_eq!(got.src_shared, reference.src_shared, "{}\nsrc shared state", ctx());
}

/// Aborted-op invariant: the compensation left the destination
/// pristine (it started empty) and the source untouched — no orphaned
/// shared state, no partially-put chunks, nothing lost. `initial` is
/// [`initial_images`] of the run's MB type.
pub(crate) fn assert_pristine(got: &Endpoints, initial: &Endpoints, ctx: impl Fn() -> String) {
    assert_eq!(got.dst_entries, 0, "{}\naborted op left per-flow state at dst", ctx());
    assert_eq!(
        got.dst_shared,
        initial.dst_shared,
        "{}\naborted op left orphaned shared state at dst",
        ctx()
    );
    assert_eq!(got.src_entries, initial.src_entries, "{}\nabort lost source per-flow state", ctx());
    assert_eq!(
        got.src_shared,
        initial.src_shared,
        "{}\nabort corrupted source shared state",
        ctx()
    );
}

/// The replay command printed with every violation.
pub fn replay_command(suite: &str, seed: u64) -> String {
    format!(
        "CONFORMANCE_SEED={suite}:{seed} cargo test -p openmb-harness --lib \
         conformance::tests::replay_env_seed -- --nocapture --include-ignored"
    )
}

mod single;
pub use single::{check_seed, conformance_table, generate, run_schedule, SeedOutcome};

#[cfg(test)]
mod crash_points;
#[cfg(test)]
mod runs;
#[cfg(test)]
mod tests;
