//! One northbound vocabulary on both controller facades: every
//! [`Request`] variant goes through the simulator's `Api` (a small
//! `ControlApp`) and through `TcpController::call` over loopback TCP,
//! and each must end in the same `Completion` variant on both. Both
//! facades also close every transfer with `end_op`, with the
//! quiescence window far beyond the test's runtime, so only `end_op`
//! can close them.

use std::collections::HashSet;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use openmb_apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::nodes::ControllerNode;
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_core::{
    ChainHop, ChainSpec, Completion, ControllerConfig, ControllerCore, Phase, Request,
};
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::TcpTransport;
use openmb_types::wire::EventFilter;
use openmb_types::{ConfigValue, FlowKey, HeaderFieldList, HierarchicalKey, MbId, OpId, Packet};

/// Longer than the test runs: no op closes by quiescence.
const QUIESCE: SimDuration = SimDuration::from_secs(3600);
const FLOWS: u8 = 12;

/// One request of every variant, in an order that leaves each one
/// something to act on: a config round trip on `b`, a move `a → b`,
/// the shared-state pair, and a one-hop chain moving the flows back.
fn requests(a: MbId, b: MbId) -> Vec<Request> {
    let smtp = HierarchicalKey::parse("service_rules/smtp");
    let any = HeaderFieldList::any();
    vec![
        Request::ReadConfig { mb: a, key: HierarchicalKey::root() },
        Request::WriteConfig { mb: b, key: smtp.clone(), values: vec![ConfigValue::Int(25)] },
        Request::DelConfig { mb: b, key: smtp },
        Request::Stats { mb: a, key: any },
        Request::EnableEvents { mb: a, filter: EventFilter::all() },
        Request::Move { src: a, dst: b, key: any },
        Request::Clone { src: a, dst: b },
        Request::Merge { src: a, dst: b },
        Request::ChainMove(ChainSpec::new(any, vec![ChainHop { src: b, dst: a }])),
    ]
}

/// The completion `req` must end in. No `_` arm: a new `Request`
/// variant does not compile until this test covers it.
fn expected(req: &Request) -> &'static str {
    match req {
        Request::ReadConfig { .. } => "Config",
        Request::WriteConfig { .. } | Request::DelConfig { .. } | Request::EnableEvents { .. } => {
            "Ack"
        }
        Request::Stats { .. } => "Stats",
        Request::Move { .. } => "MoveComplete",
        Request::Clone { .. } => "CloneComplete",
        Request::Merge { .. } => "MergeComplete",
        Request::ChainMove(_) => "ChainComplete",
    }
}

fn variant(c: &Completion) -> &'static str {
    match c {
        Completion::Config { .. } => "Config",
        Completion::Ack { .. } => "Ack",
        Completion::Stats { .. } => "Stats",
        Completion::MoveComplete { .. } => "MoveComplete",
        Completion::CloneComplete { .. } => "CloneComplete",
        Completion::MergeComplete { .. } => "MergeComplete",
        Completion::ChainComplete { .. } => "ChainComplete",
        Completion::Failed { .. } => "Failed",
        _ => "other",
    }
}

/// The op a transfer completion concludes, which the facade must close
/// with `end_op`.
fn transfer_op(c: &Completion) -> Option<OpId> {
    match c {
        Completion::MoveComplete { op, .. }
        | Completion::CloneComplete { op }
        | Completion::MergeComplete { op } => Some(*op),
        _ => None,
    }
}

fn monitor(preload: bool) -> Monitor {
    let mut m = Monitor::new();
    let mut fx = Effects::normal();
    for f in 1..=FLOWS * u8::from(preload) {
        let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, f), 40_000, Ipv4Addr::new(10, 9, 9, 9), 80);
        m.process_packet(
            SimTime(u64::from(f)),
            &Packet::new(u64::from(f), key, vec![0; 64]),
            &mut fx,
        );
    }
    m
}

/// What one facade reported: each request's completion variant, and
/// the transfers it closed with `end_op`.
#[derive(Default)]
struct Outcome {
    completions: Vec<&'static str>,
    ended: Vec<OpId>,
}

/// Issues the requests one at a time, each once the previous one
/// completed, and closes every transfer with `end_op`.
struct Sequence {
    requests: Vec<Request>,
    pending: Option<OpId>,
    outcome: Arc<Mutex<Outcome>>,
}

impl Sequence {
    fn next(&mut self, api: &mut Api<'_>) {
        if !self.requests.is_empty() {
            self.pending = Some(api.submit(self.requests.remove(0)));
        }
    }
}

impl ControlApp for Sequence {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(SimDuration::from_millis(10), 1);
    }
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        self.next(api);
    }
    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if c.op().is_none() || c.op() != self.pending {
            return;
        }
        let mut outcome = self.outcome.lock().unwrap();
        outcome.completions.push(variant(c));
        if let Some(op) = transfer_op(c) {
            api.end_op(op);
            outcome.ended.push(op);
        }
        drop(outcome);
        self.next(api);
    }
}

fn over_the_des() -> (Outcome, Vec<Option<Phase>>) {
    use layout::{MB_A_ID, MB_B_ID};
    let outcome = Arc::new(Mutex::new(Outcome::default()));
    let app = Sequence {
        requests: requests(MB_A_ID, MB_B_ID),
        pending: None,
        outcome: Arc::clone(&outcome),
    };
    let params = ScenarioParams { quiesce_after: QUIESCE, ..ScenarioParams::default() };
    let mut setup = two_mb_scenario(monitor(true), monitor(false), Box::new(app), params);
    setup.sim.run_until(SimTime(5_000_000_000), 10_000_000);
    let outcome = std::mem::take(&mut *outcome.lock().unwrap());
    let core: &ControllerCore = &setup.sim.node_as::<ControllerNode>(setup.controller).core;
    let phases = outcome.ended.iter().map(|&op| core.op_phase(op)).collect();
    (outcome, phases)
}

fn over_tcp() -> (Outcome, Vec<Option<Phase>>) {
    let stop = Arc::new(AtomicBool::new(false));
    let mut addrs = Vec::new();
    let mut servers = Vec::new();
    for preload in [true, false] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        let stop = Arc::clone(&stop);
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            serve_middlebox(&mut monitor(preload), &transport, &stop).unwrap();
        }));
    }
    let mut ctrl =
        TcpController::new(ControllerConfig { quiesce_after: QUIESCE, ..Default::default() });
    let a = ctrl.register_mb(Arc::new(TcpTransport::connect(addrs[0]).unwrap()));
    let b = ctrl.register_mb(Arc::new(TcpTransport::connect(addrs[1]).unwrap()));
    ctrl.start();
    let mut outcome = Outcome::default();
    for req in requests(a, b) {
        let c = ctrl.call(req, Duration::from_secs(10)).unwrap();
        outcome.completions.push(variant(&c));
        if let Some(op) = transfer_op(&c) {
            ctrl.end_op(op);
            outcome.ended.push(op);
        }
    }
    // end_op does not block: the move's source deletes are acked a
    // round trip later.
    let deadline = Instant::now() + Duration::from_secs(5);
    let closed = |ctrl: &TcpController| {
        outcome.ended.iter().all(|&op| ctrl.engine().op_phase(op) == Some(Phase::Closed))
    };
    while !closed(&ctrl) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let phases = outcome.ended.iter().map(|&op| ctrl.engine().op_phase(op)).collect();
    ctrl.shutdown();
    stop.store(true, Ordering::Relaxed);
    for s in servers {
        s.join().unwrap();
    }
    (outcome, phases)
}

#[test]
fn every_request_completes_alike_on_the_des_and_over_tcp() {
    let reqs = requests(MbId(0), MbId(1));
    let variants: HashSet<_> = reqs.iter().map(std::mem::discriminant).collect();
    assert_eq!(variants.len(), reqs.len(), "one request per variant");
    let want: Vec<&str> = reqs.iter().map(expected).collect();

    for (facade, (outcome, phases)) in [("DES Api", over_the_des()), ("TcpController", over_tcp())]
    {
        assert_eq!(outcome.completions, want, "{facade}: completions");
        assert_eq!(outcome.ended.len(), 3, "{facade}: end_op on the move, clone and merge");
        assert!(
            phases.iter().all(|p| *p == Some(Phase::Closed)),
            "{facade}: end_op closed every transfer long before quiescence: {phases:?}"
        );
    }
}
