//! A flapping pair on real middleboxes: idle state moved A → B → A → B
//! with the content cache on (DESIGN §13, "Convergent sealing").
//!
//! Sealing is convergent, so an instance that exports state it received
//! unchanged seals it to the bytes it arrived as. The destination of
//! the third leg filed those bytes on the first, and every reference
//! hits: no `ChunkBody` crosses the wire. The second leg still streams
//! every body — a source does not file what it exports, so A's store
//! is empty when the state first comes back.
//!
//! Each flapping pair runs on the DES and over `TcpController` on
//! loopback; the counters are the core's cache counters, read per leg.
//! One more DES case moves runs whose sealed bodies are equal under
//! different keys, so one store entry answers several runs.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, ControllerConfig, ControllerCore, TransferLedgerStats};
use openmb_core::nodes::{ControllerCosts, ControllerNode, MbNode, APP_TIMER_BASE};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_core::Request;
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{DummyMb, Ips, Monitor};
use openmb_simnet::{Sim, SimDuration, SimTime};
use openmb_types::crypto::VendorKey;
use openmb_types::transport::TcpTransport;
use openmb_types::{
    wire, EncryptedChunk, FlowKey, HeaderFieldList, MbId, NodeId, OpId, Packet, StateChunk,
};

/// Flows in every flapping pair's state.
const FLOWS: usize = 40;
/// A → B, B → A, A → B.
const LEGS: usize = 3;

/// `FLOWS` observed flows, then silence: what each leg moves.
fn idle<M: Middlebox>(mut mb: M) -> M {
    let mut fx = Effects::normal();
    for i in 0..FLOWS {
        let client = Ipv4Addr::new(10, 0, 0, i as u8 + 1);
        let key = FlowKey::tcp(client, 20_000 + i as u16, Ipv4Addr::new(192, 168, 1, 1), 80);
        let payload = vec![(i % 251) as u8; 120];
        mb.process_packet(SimTime(i as u64), &Packet::new(i as u64 + 1, key, payload), &mut fx);
        fx.reset();
    }
    assert_eq!(mb.perflow_entries(), FLOWS);
    mb
}

/// The per-flow chunks a move of everything `mb` holds carries.
fn perflow_chunks(mb: &impl Middlebox) -> usize {
    let stats = mb.stats(&HeaderFieldList::any());
    stats.perflow_support_chunks + stats.perflow_report_chunks
}

/// One leg's share of the core-wide cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leg {
    /// References sent: one per run.
    runs: u64,
    hits: u64,
    /// `ChunkBody` messages streamed.
    bodies: u64,
}

impl Leg {
    /// The counters' growth from `before` to `after`.
    fn between(before: TransferLedgerStats, after: TransferLedgerStats) -> Self {
        let hits = after.cache_hits - before.cache_hits;
        Leg {
            runs: hits + after.cache_misses - before.cache_misses,
            hits,
            bodies: after.bodies_sent - before.bodies_sent,
        }
    }
}

/// The core-wide cache counters (any op id reads them).
fn counters(core: &ControllerCore) -> TransferLedgerStats {
    core.transfer_ledger_stats(OpId(0))
}

/// The flapping pair's shape: legs 1 and 2 stream every body, leg 3
/// streams none — every reference is a hit.
fn assert_third_leg_hits(name: &str, legs: &[Leg]) {
    let runs = legs[0].runs;
    assert!(runs > 0, "{name}: {legs:?}");
    let cold = Leg { runs, hits: 0, bodies: runs };
    assert_eq!(legs[..2], [cold, cold], "{name}: the first two legs stream every body");
    assert_eq!(legs[2], Leg { runs, hits: runs, bodies: 0 }, "{name}: the third leg is all hits");
}

// ---- the DES ---------------------------------------------------------

const CONTROLLER: NodeId = NodeId(0);
const MBS: [NodeId; 2] = [NodeId(1), NodeId(2)];

/// On each timer, move every flow from the MB holding them to the other.
struct Flap {
    holder: u32,
}

impl ControlApp for Flap {
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        let (src, dst) = (MbId(self.holder), MbId(1 - self.holder));
        api.submit(Request::Move { src, dst, key: HeaderFieldList::any() });
    }

    fn on_completion(&mut self, _api: &mut Api<'_>, _c: &Completion) {
        self.holder = 1 - self.holder;
    }
}

/// A controller and two MBs on the DES, `a` holding the state.
fn des_pair<M: Middlebox + 'static>(a: M, b: M, config: ControllerConfig) -> Sim {
    let mut sim = Sim::new();
    let mut ctrl =
        ControllerNode::new(config, ControllerCosts::default(), Box::new(Flap { holder: 0 }));
    for mb in MBS {
        ctrl.register_mb(mb);
    }
    assert_eq!(sim.add_node(Box::new(ctrl)), CONTROLLER);
    for (i, logic) in [a, b].into_iter().enumerate() {
        let node = MbNode::new(["a", "b"][i], logic).with_controller(CONTROLLER);
        assert_eq!(sim.add_node(Box::new(node)), MBS[i]);
        sim.add_link(CONTROLLER, MBS[i], SimDuration::from_micros(100), 1_000_000_000);
    }
    sim
}

fn des_counters(sim: &Sim) -> TransferLedgerStats {
    counters(&sim.node_as::<ControllerNode>(CONTROLLER).core)
}

/// Run one move to idle: completed, quiesced, source deletes acked.
/// Returns the completion.
fn des_move(sim: &mut Sim) -> Completion {
    let at = sim.now().after(SimDuration::from_millis(1));
    sim.inject_timer(at, CONTROLLER, APP_TIMER_BASE + 1);
    sim.run(u64::MAX);
    let ctrl: &mut ControllerNode = sim.node_as_mut(CONTROLLER);
    let [(_, done)] = &ctrl.completions[..] else { panic!("{:?}", ctrl.completions) };
    let done = done.clone();
    ctrl.completions.clear();
    assert_eq!(ctrl.core.open_ops(), 0);
    done
}

fn des_flap<M: Middlebox + 'static>(name: &str, a: M, b: M) {
    let config =
        ControllerConfig { quiesce_after: SimDuration::from_millis(5), ..Default::default() };
    assert!(config.content_cache, "the content cache is on by default");
    let chunks = perflow_chunks(&a);
    let mut sim = des_pair(a, b, config);
    let mut legs = Vec::new();
    for n in 0..LEGS {
        let before = des_counters(&sim);
        let done = des_move(&mut sim);
        legs.push(Leg::between(before, des_counters(&sim)));
        assert!(
            matches!(done, Completion::MoveComplete { chunks_moved, .. } if chunks_moved == chunks),
            "{name} leg {n}: {done:?}"
        );
        let dst = MBS[(n + 1) % 2];
        assert_eq!(sim.node_as::<MbNode<M>>(dst).logic.perflow_entries(), FLOWS, "{name} leg {n}");
    }
    assert_third_leg_hits(name, &legs);
}

#[test]
fn a_flapping_monitor_pair_answers_the_third_leg_from_the_store_on_the_des() {
    des_flap("monitor", idle(Monitor::new()), Monitor::new());
}

#[test]
fn a_flapping_ips_pair_answers_the_third_leg_from_the_store_on_the_des() {
    des_flap("ips", idle(Ips::new()), Ips::new());
}

/// Flows of the equal-bodies case: 32 runs of two.
const DUMMY_FLOWS: usize = 64;

/// A DummyMb whose every record is the same bytes. The dummy's record
/// does not encode its flow, so every run of a move of it seals to one
/// content hash under different keys.
fn equal_records() -> DummyMb {
    let vendor = VendorKey::derive("dummy");
    let mut mb = DummyMb::new();
    for i in 0..DUMMY_FLOWS {
        let key = HeaderFieldList::exact(DummyMb::flow_for(i));
        let body = EncryptedChunk::seal(&vendor, i as u64, &[7; 64]);
        mb.put_report_perflow(StateChunk::new(key, body)).unwrap();
    }
    mb
}

/// One move of [`equal_records`] under `transfer_window`; returns the
/// leg's counters after checking that every record landed under its
/// own key and the op closed.
fn move_equal_records(transfer_window: u32) -> Leg {
    let config = ControllerConfig {
        quiesce_after: SimDuration::from_millis(5),
        transfer_window,
        ..Default::default()
    };
    let mut sim = des_pair(equal_records(), DummyMb::new(), config);
    let before = des_counters(&sim);
    let done = des_move(&mut sim);
    let leg = Leg::between(before, des_counters(&sim));
    assert!(
        matches!(done, Completion::MoveComplete { chunks_moved: DUMMY_FLOWS, .. }),
        "window {transfer_window}: {done:?}"
    );
    assert_eq!(sim.node_as::<MbNode<DummyMb>>(MBS[0]).logic.perflow_entries(), 0);
    let dst = &mut sim.node_as_mut::<MbNode<DummyMb>>(MBS[1]).logic;
    let landed = dst.get_report_perflow(OpId(u64::MAX), &HeaderFieldList::any()).unwrap();
    let mut want: Vec<FlowKey> = (0..DUMMY_FLOWS).map(DummyMb::flow_for).collect();
    want.sort_unstable();
    let keys: Vec<FlowKey> = landed.iter().map(|c| c.key.as_exact().unwrap()).collect();
    assert_eq!(keys, want, "window {transfer_window}: every record under its own key");
    let vendor = VendorKey::derive("dummy");
    assert!(landed.iter().all(|c| c.data.open(&vendor).unwrap() == [7; 64]));
    leg
}

/// Runs with equal content under different keys share one store entry
/// and still land under their own keys, on both paths: pipelined (the
/// default window), every reference misses before the first body is
/// filed and each need is answered with its own run; one at a time
/// (window 1), the first run files the body and every later reference
/// hits it.
#[test]
fn runs_with_equal_content_under_different_keys_land_under_their_own_keys() {
    let runs = (DUMMY_FLOWS / wire::run_len(DUMMY_FLOWS)) as u64;
    let pipelined = move_equal_records(ControllerConfig::default().transfer_window);
    assert_eq!(pipelined, Leg { runs, hits: 0, bodies: runs }, "the miss path");
    let serial = move_equal_records(1);
    assert_eq!(serial, Leg { runs, hits: runs - 1, bodies: 1 }, "the hit path");
}

// ---- TcpController over loopback ---------------------------------------

fn tcp_flap<M: Middlebox + Send + 'static>(name: &str, a: M, b: M) {
    let chunks = perflow_chunks(&a);
    let stop = Arc::new(AtomicBool::new(false));
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(1),
        ..Default::default()
    });
    let mut servers = Vec::new();
    let mut ids = Vec::new();
    for logic in [a, b] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::clone(&stop);
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut logic = logic;
            serve_middlebox(&mut logic, &transport, &stop).unwrap();
            logic
        }));
        ids.push(controller.register_mb(Arc::new(TcpTransport::connect(addr).unwrap())));
    }
    controller.start();
    let core = controller.engine();
    let mut legs = Vec::new();
    for n in 0..LEGS {
        let before = counters(core);
        let (from, to) = (ids[n % 2], ids[(n + 1) % 2]);
        let done = controller.call(
            Request::Move { src: from, dst: to, key: HeaderFieldList::any() },
            Duration::from_secs(10),
        );
        assert!(
            matches!(done, Ok(Completion::MoveComplete { chunks_moved, .. }) if chunks_moved == chunks),
            "{name} leg {n}: {done:?}"
        );
        // The source's deletes are acked before the state moves back.
        let deadline = Instant::now() + Duration::from_secs(10);
        while core.table_sizes().ops > 0 {
            assert!(Instant::now() < deadline, "{name} leg {n}: the op never retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        legs.push(Leg::between(before, counters(core)));
    }
    controller.shutdown();
    stop.store(true, Ordering::Relaxed);
    let held: Vec<usize> =
        servers.into_iter().map(|s| s.join().unwrap().perflow_entries()).collect();
    assert_eq!(held, [0, FLOWS], "{name}: B holds the state after the third leg");
    assert_third_leg_hits(name, &legs);
}

#[test]
fn a_flapping_monitor_pair_answers_the_third_leg_from_the_store_over_tcp() {
    tcp_flap("monitor", idle(Monitor::new()), Monitor::new());
}

#[test]
fn a_flapping_ips_pair_answers_the_third_leg_from_the_store_over_tcp() {
    tcp_flap("ips", idle(Ips::new()), Ips::new());
}
