//! The OpenMB protocol over real loopback TCP: two monitor middleboxes
//! served by threads, a `TcpController` brokering a move and a shared-
//! state merge between them — the paper's deployment shape (§7) on
//! `std::net`.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_core::Request;
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::TcpTransport;
use openmb_types::{FlowKey, HeaderFieldList, HierarchicalKey, Packet};

fn http_pkt(id: u64, src_last: u8) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, src_last),
        40_000 + u16::from(src_last),
        Ipv4Addr::new(192, 168, 1, 1),
        80,
    );
    Packet::new(id, key, vec![0u8; 64])
}

#[test]
fn move_and_merge_over_loopback_tcp() {
    // Two MB servers, each a listener + serving thread.
    let mut mb_ends = Vec::new();
    let mut handles = Vec::new();
    let stop = Arc::new(AtomicBool::new(false));
    for i in 0..2u8 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                // Preload the source with observed flows.
                let mut fx = Effects::normal();
                for f in 1..=30u8 {
                    monitor.process_packet(
                        SimTime(u64::from(f)),
                        &http_pkt(u64::from(f), f),
                        &mut fx,
                    );
                }
            }
            serve_middlebox(&mut monitor, &transport, &stop).unwrap();
            monitor
        });
        mb_ends.push(addr);
        handles.push(handle);
    }

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        buffer_events: true,
        ..ControllerConfig::default()
    });
    let t0 = Arc::new(TcpTransport::connect(mb_ends[0]).unwrap());
    let t1 = Arc::new(TcpTransport::connect(mb_ends[1]).unwrap());
    let src = controller.register_mb(t0);
    let dst = controller.register_mb(t1);
    controller.start();

    // stats: the source reports 30 per-flow reporting chunks.
    let c = controller
        .call(Request::Stats { mb: src, key: HeaderFieldList::any() }, Duration::from_secs(5))
        .unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 30),
        other => panic!("unexpected {other:?}"),
    }

    // readConfig("*") / writeConfig clone.
    let c = controller
        .call(Request::ReadConfig { mb: src, key: HierarchicalKey::root() }, Duration::from_secs(5))
        .unwrap();
    let pairs = match c {
        Completion::Config { pairs, .. } => pairs,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!pairs.is_empty());
    for (k, v) in &pairs {
        controller
            .call(
                Request::WriteConfig { mb: dst, key: k.clone(), values: v.clone() },
                Duration::from_secs(5),
            )
            .unwrap();
    }

    // moveInternal: all 30 chunks should land at the destination.
    let c = controller
        .call(Request::Move { src, dst, key: HeaderFieldList::any() }, Duration::from_secs(10))
        .unwrap();
    match c {
        Completion::MoveComplete { chunks_moved, .. } => assert_eq!(chunks_moved, 30),
        other => panic!("unexpected {other:?}"),
    }

    // mergeInternal: shared counters (30 packets) merge into dst.
    let c = controller.call(Request::Merge { src, dst }, Duration::from_secs(10)).unwrap();
    assert!(matches!(c, Completion::MergeComplete { .. }));

    // Allow the quiescence tick to fire the deletes at the source.
    std::thread::sleep(Duration::from_millis(300));
    let c = controller
        .call(Request::Stats { mb: src, key: HeaderFieldList::any() }, Duration::from_secs(5))
        .unwrap();
    match c {
        Completion::Stats { stats, .. } => {
            assert_eq!(stats.perflow_report_chunks, 0, "source deleted after quiescence")
        }
        other => panic!("unexpected {other:?}"),
    }
    let c = controller
        .call(Request::Stats { mb: dst, key: HeaderFieldList::any() }, Duration::from_secs(5))
        .unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 30),
        other => panic!("unexpected {other:?}"),
    }

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        let monitor = h.join().unwrap();
        // Both ends shut down cleanly; destination holds the state.
        let _ = monitor.mb_type();
    }
}

/// A destination that vanishes mid-move and reconnects resumes from the
/// last acked chunk instead of restarting or aborting, and ends with
/// exactly the state an unfaulted move produces. The MB keeps its
/// [`SharedPutLog`] across the reconnect (the process survived; only the
/// connection died), so re-sent puts are re-acked, not re-applied.
#[test]
fn mid_transfer_disconnect_resumes_from_last_acked_chunk() {
    use openmb_core::tcp::serve_middlebox_recorded;
    use openmb_mb::{handle_southbound_logged, SharedPutLog};
    use openmb_obs::Recorder;
    use openmb_types::transport::{channel_pair, Transport};
    use openmb_types::wire::Message;

    const FLOWS: u8 = 30;
    const PUTS_BEFORE_CRASH: usize = 10;

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        op_deadline: SimDuration::from_secs(30),
        max_transfer_resumes: 4,
        resume_after: SimDuration::from_millis(50),
        buffer_events: true,
        // A window smaller than PUTS_BEFORE_CRASH, so the puts arrive
        // in several coalesced frames and the crash really lands
        // mid-transfer (with everything in flight at once, one Batch
        // frame would carry all 30 puts).
        transfer_window: 5,
        ..ControllerConfig::default()
    });

    // Source: a served monitor preloaded with FLOWS observed flows.
    let stop = Arc::new(AtomicBool::new(false));
    let (src_ctl, src_mb) = channel_pair();
    let src_handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut monitor = Monitor::new();
            let mut fx = Effects::normal();
            for f in 1..=FLOWS {
                monitor.process_packet(SimTime(u64::from(f)), &http_pkt(u64::from(f), f), &mut fx);
            }
            serve_middlebox(&mut monitor, &src_mb, &stop).unwrap();
        })
    };

    let (dst_ctl, dst_mb) = channel_pair();
    let src_id = controller.register_mb(Arc::new(src_ctl));
    let dst_id = controller.register_mb(Arc::new(dst_ctl));
    controller.start();

    let ctrl = &controller;
    let dst = std::thread::scope(|s| {
        let mover = s.spawn(|| {
            ctrl.call(
                Request::Move { src: src_id, dst: dst_id, key: HeaderFieldList::any() },
                Duration::from_secs(20),
            )
        });

        // Destination, phase 1: apply the first PUTS_BEFORE_CRASH puts by
        // hand, acking each, then drop the transport mid-transfer.
        let mut dst = Monitor::new();
        let mut log = SharedPutLog::new();
        let mut puts = 0usize;
        while puts < PUTS_BEFORE_CRASH {
            let msg = match dst_mb.recv_timeout(Duration::from_millis(200)) {
                Ok(Some(m)) => m,
                Ok(None) => continue,
                Err(e) => panic!("controller hung up first: {e}"),
            };
            // Count applied puts by the acks we emit — exact whether a
            // chunk arrived as a plain put, a cache-hit reference, or a
            // streamed body, and through coalesced Batch frames.
            for reply in handle_southbound_logged(&mut dst, &mut log, msg, SimTime(0)) {
                if matches!(reply, Message::PutAck { .. }) {
                    puts += 1;
                }
                dst_mb.send(reply).unwrap();
            }
        }
        drop(dst_mb);

        // Let the pump notice the reset and park the move (resume budget
        // is non-zero, so it must not abort).
        std::thread::sleep(Duration::from_millis(200));

        // Reconnect: same MB state and put-log, fresh transport.
        let (ctl2, mb2) = channel_pair();
        ctrl.reattach_mb(dst_id, Arc::new(ctl2));
        let stop2 = Arc::clone(&stop);
        let served = s.spawn(move || {
            serve_middlebox_recorded(&mut dst, &mut log, &mb2, &stop2, &Recorder::disabled(), "")
                .unwrap();
            dst
        });

        let c = mover.join().unwrap().unwrap();
        match c {
            Completion::MoveComplete { chunks_moved, .. } => {
                assert_eq!(chunks_moved, usize::from(FLOWS), "resumed move must count every chunk")
            }
            other => panic!("move did not survive the disconnect: {other:?}"),
        }

        // The destination holds exactly what an unfaulted move delivers.
        let c = ctrl
            .call(
                Request::Stats { mb: dst_id, key: HeaderFieldList::any() },
                Duration::from_secs(5),
            )
            .unwrap();
        match c {
            Completion::Stats { stats, .. } => {
                assert_eq!(stats.perflow_report_chunks, usize::from(FLOWS))
            }
            other => panic!("unexpected {other:?}"),
        }

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        served.join().unwrap()
    });
    assert_eq!(dst.perflow_entries(), usize::from(FLOWS), "no chunk lost or duplicated");

    src_handle.join().unwrap();
    controller.shutdown();
}

/// The sub-op ids the controller allocates survive the wire codec.
/// Controller and both MB servers share one flight recorder over real
/// loopback TCP — length-prefixed encode/decode at both endpoints, not
/// the in-memory channel transport — so after a move, every sub-op the
/// controller recorded a `ChunkAcked` for must also appear as a
/// `Handled` event at an MB node under the SAME id.
#[test]
fn span_ids_propagate_across_the_wire() {
    use std::collections::BTreeSet;

    use openmb_core::tcp::serve_middlebox_recorded;
    use openmb_mb::SharedPutLog;
    use openmb_obs::{Recorder, SpanEvent};

    const FLOWS: u8 = 20;

    let rec = Recorder::enabled(512);
    let stop = Arc::new(AtomicBool::new(false));
    let mut mb_ends = Vec::new();
    let mut handles = Vec::new();
    for (i, name) in ["mb:src", "mb:dst"].into_iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        mb_ends.push(listener.local_addr().unwrap());
        let stop = Arc::clone(&stop);
        let rec = rec.clone();
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                let mut fx = Effects::normal();
                for f in 1..=FLOWS {
                    monitor.process_packet(
                        SimTime(u64::from(f)),
                        &http_pkt(u64::from(f), f),
                        &mut fx,
                    );
                }
            }
            let mut log = SharedPutLog::new();
            serve_middlebox_recorded(&mut monitor, &mut log, &transport, &stop, &rec, name)
                .unwrap();
        }));
    }

    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        buffer_events: true,
        ..ControllerConfig::default()
    });
    controller.set_recorder(rec.clone());
    let src = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[0]).unwrap()));
    let dst = controller.register_mb(Arc::new(TcpTransport::connect(mb_ends[1]).unwrap()));
    controller.start();

    let c = controller
        .call(Request::Move { src, dst, key: HeaderFieldList::any() }, Duration::from_secs(10))
        .unwrap();
    let op = match c {
        Completion::MoveComplete { op, chunks_moved, .. } => {
            assert_eq!(chunks_moved, usize::from(FLOWS));
            op
        }
        other => panic!("unexpected {other:?}"),
    };

    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let dump = rec.dump();

    // Controller half: per-chunk acks recorded under the parent move
    // op, each carrying the put sub-op's id.
    let acked: BTreeSet<u64> = dump
        .events
        .iter()
        .filter(|e| {
            e.node == "controller"
                && e.op == Some(op.0)
                && matches!(e.event, SpanEvent::ChunkAcked { .. })
        })
        .filter_map(|e| e.sub)
        .collect();
    assert_eq!(acked.len(), usize::from(FLOWS), "one acked put sub per chunk:\n{dump}");

    // MB half: `Handled` events keyed by the wire message's id alone —
    // the parent op never crosses the wire; the sub id is the
    // correlation key, so it must carry no parent here.
    let handled: BTreeSet<u64> = dump
        .events
        .iter()
        .filter(|e| e.node.starts_with("mb:") && matches!(e.event, SpanEvent::Handled { .. }))
        .map(|e| {
            assert_eq!(e.op, None, "MB events must not carry a parent op");
            e.sub.expect("every southbound request carries a wire id")
        })
        .collect();
    for node in ["mb:src", "mb:dst"] {
        assert!(
            dump.events
                .iter()
                .any(|e| e.node == node && matches!(e.event, SpanEvent::Handled { .. })),
            "no requests recorded at {node}:\n{dump}"
        );
    }

    // Every sub-op the controller saw acked was decoded to the same id
    // on an MB: the ids round-tripped through encode → TCP → decode.
    assert!(
        acked.is_subset(&handled),
        "sub-ops acked at the controller but never handled under the same id: {:?}\n{dump}",
        acked.difference(&handled).collect::<Vec<_>>()
    );
}

#[test]
fn dropped_connection_aborts_with_mb_unreachable() {
    use openmb_types::transport::channel_pair;
    use openmb_types::Error;

    let mut controller = TcpController::new(ControllerConfig::default());
    let (ctl_end, mb_end) = channel_pair();
    let mb = controller.register_mb(Arc::new(ctl_end));
    controller.start();

    // Sever the connection: the MB vanishes without answering. The pump
    // must feed the reset into mark_unreachable, so the blocked
    // northbound call aborts with a typed error instead of timing out.
    drop(mb_end);

    let c = controller
        .call(Request::Stats { mb, key: HeaderFieldList::any() }, Duration::from_secs(5))
        .unwrap();
    match c {
        Completion::Failed { error: Error::MbUnreachable(id), .. } => assert_eq!(id, mb),
        other => panic!("expected MbUnreachable abort, got {other:?}"),
    }

    // Every subsequent call naming the dead MB fails fast the same way.
    let c = controller
        .call(
            Request::Move { src: mb, dst: mb, key: HeaderFieldList::any() },
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(matches!(c, Completion::Failed { error: Error::MbUnreachable(_), .. }));

    controller.shutdown();
}

// ---------------------------------------------------------------------
// One engine behind the sockets: concurrent callers, chains over TCP.
// ---------------------------------------------------------------------

/// MB server threads of one test: joined (after raising `stop`) by
/// [`Servers::shutdown`], so a panic in any of them fails the test.
struct Servers {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Servers {
    fn new() -> Self {
        Servers { stop: Arc::new(AtomicBool::new(false)), threads: Vec::new() }
    }

    fn shutdown(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads {
            t.join().unwrap();
        }
    }
}

/// A monitor preloaded with `flows` observed flows, served over loopback
/// TCP until the servers shut down; returns the address to connect to.
fn served_monitor(flows: u8, servers: &mut Servers) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::clone(&servers.stop);
    servers.threads.push(std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let transport = TcpTransport::new(stream).unwrap();
        serve_middlebox(&mut loaded_monitor(flows), &transport, &stop).unwrap();
    }));
    addr
}

fn quick_controller() -> TcpController {
    TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        shards: 2,
        ..ControllerConfig::default()
    })
}

fn connect(controller: &TcpController, addr: std::net::SocketAddr) -> openmb_types::MbId {
    controller.register_mb(Arc::new(TcpTransport::connect(addr).unwrap()))
}

fn report_chunks(controller: &TcpController, mb: openmb_types::MbId) -> usize {
    stats_of(controller, mb).perflow_report_chunks
}

/// Blocking callers on different threads each receive their own
/// completion. (With one shared completion queue, a caller that dequeued
/// another op's completion dropped it, and both timed out.)
#[test]
fn concurrent_blocking_callers_each_get_their_own_completion() {
    let mut servers = Servers::new();
    let mut controller = quick_controller();
    let mbs: Vec<_> = [30, 0, 30, 0]
        .into_iter()
        .map(|n| connect(&controller, served_monitor(n, &mut servers)))
        .collect();
    controller.start();
    let ctrl = &controller;
    std::thread::scope(|s| {
        for pair in mbs.chunks(2) {
            s.spawn(move || {
                let c = ctrl
                    .call(
                        Request::Move { src: pair[0], dst: pair[1], key: HeaderFieldList::any() },
                        Duration::from_secs(3),
                    )
                    .unwrap();
                assert!(matches!(c, Completion::MoveComplete { chunks_moved: 30, .. }), "{c:?}");
                // Keep both threads blocking concurrently for a while.
                for _ in 0..8 {
                    assert_eq!(report_chunks(ctrl, pair[1]), 30);
                }
            });
        }
    });
    controller.shutdown();
    servers.shutdown();
}

/// A 2-hop chain commits over loopback TCP: one `ChainComplete`, every
/// hop's state conserved at its destination and gone from its source.
#[test]
fn chain_move_commits_over_loopback_tcp() {
    use openmb_core::{ChainHop, ChainSpec};
    let mut servers = Servers::new();
    let mut controller = quick_controller();
    let mbs: Vec<_> = [30, 0, 20, 0]
        .into_iter()
        .map(|n| connect(&controller, served_monitor(n, &mut servers)))
        .collect();
    controller.start();
    let spec = ChainSpec::new(
        HeaderFieldList::any(),
        vec![ChainHop { src: mbs[0], dst: mbs[1] }, ChainHop { src: mbs[2], dst: mbs[3] }],
    );
    let c = controller.call(Request::ChainMove(spec), Duration::from_secs(10)).unwrap();
    assert!(matches!(c, Completion::ChainComplete { hops: 2, chunks_moved: 50, .. }), "{c:?}");
    // Allow the quiescence tick to fire the source-side deletes.
    std::thread::sleep(Duration::from_millis(300));
    let held: Vec<usize> = mbs.iter().map(|&mb| report_chunks(&controller, mb)).collect();
    assert_eq!(held, [0, 30, 0, 20]);
    controller.shutdown();
    servers.shutdown();
}

/// Hop 1's destination drops its connection mid-transfer: the chain ends
/// `Failed`, hop 0 — which had completed — is rolled back, and every
/// source holds exactly its pre-move state.
#[test]
fn chain_move_rolls_back_over_loopback_tcp_when_a_hop_destination_drops() {
    use openmb_core::{ChainHop, ChainSpec};
    use openmb_mb::handle_southbound;
    use openmb_types::transport::Transport;
    use openmb_types::wire::Message;
    use openmb_types::Error;

    let mut servers = Servers::new();
    // A small window, so hop 1's puts arrive in several frames and the
    // drop really lands mid-transfer.
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        transfer_window: 5,
        shards: 2,
        ..ControllerConfig::default()
    });
    // Hop 1's destination: applies 8 puts, then hangs up.
    let flaky = TcpListener::bind("127.0.0.1:0").unwrap();
    let flaky_addr = flaky.local_addr().unwrap();
    servers.threads.push(std::thread::spawn(move || {
        let (stream, _) = flaky.accept().unwrap();
        let transport = TcpTransport::new(stream).unwrap();
        let mut monitor = Monitor::new();
        let mut puts = 0;
        while puts < 8 {
            let Ok(Some(msg)) = transport.recv_timeout(Duration::from_secs(10)) else { return };
            for reply in handle_southbound(&mut monitor, msg, SimTime(0)) {
                puts += usize::from(matches!(reply, Message::PutAck { .. }));
                transport.send(reply).unwrap();
            }
        }
    }));
    let a = connect(&controller, served_monitor(30, &mut servers));
    let b = connect(&controller, served_monitor(0, &mut servers));
    let c = connect(&controller, served_monitor(20, &mut servers));
    let d = connect(&controller, flaky_addr);
    controller.start();
    let spec = ChainSpec::new(
        HeaderFieldList::any(),
        vec![ChainHop { src: a, dst: b }, ChainHop { src: c, dst: d }],
    );
    match controller.call(Request::ChainMove(spec), Duration::from_secs(10)).unwrap() {
        Completion::Failed { error: Error::MbUnreachable(mb), .. } => assert_eq!(mb, d),
        other => panic!("expected the chain to fail on hop 1's destination, got {other:?}"),
    }
    // Let the reverse move's own quiescence deletes land at `b`.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(report_chunks(&controller, a), 30, "hop 0 source restored");
    assert_eq!(report_chunks(&controller, b), 0, "hop 0 destination emptied");
    assert_eq!(report_chunks(&controller, c), 20, "hop 1 source untouched");
    controller.shutdown();
    servers.shutdown();
}

// ---------------------------------------------------------------------
// The event-driven embedding: receive threads, generations, the oracle.
// ---------------------------------------------------------------------

/// Block until `cond` holds (the controller's threads make it so).
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A monitor preloaded with `flows` observed flows.
fn loaded_monitor(flows: u8) -> Monitor {
    let mut monitor = Monitor::new();
    let mut fx = Effects::normal();
    for f in 1..=flows {
        monitor.process_packet(SimTime(u64::from(f)), &http_pkt(u64::from(f), f), &mut fx);
    }
    monitor
}

/// `monitor` served over an in-process channel until the servers shut
/// down; returns the controller's end.
fn served_over_channel(
    mut monitor: Monitor,
    servers: &mut Servers,
) -> Arc<openmb_types::transport::ChannelTransport> {
    let (ctl_end, mb_end) = openmb_types::transport::channel_pair();
    let stop = Arc::clone(&servers.stop);
    servers.threads.push(std::thread::spawn(move || {
        serve_middlebox(&mut monitor, &mb_end, &stop).unwrap();
    }));
    Arc::new(ctl_end)
}

fn stats_of(controller: &TcpController, mb: openmb_types::MbId) -> openmb_types::StateStats {
    match controller
        .call(Request::Stats { mb, key: HeaderFieldList::any() }, Duration::from_secs(5))
        .unwrap()
    {
        Completion::Stats { stats, .. } => stats,
        other => panic!("unexpected {other:?}"),
    }
}

/// Put `controller` under the online invariant monitor: a flight
/// recorder of `ring` events whose span stream the monitor rides as a
/// sink, configured from the controller's own shard count and window.
fn attach_oracle(
    controller: &TcpController,
    ring: usize,
) -> (openmb_obs::Recorder, Arc<openmb_obs::Monitor>) {
    let config = controller.engine().config();
    let oracle = Arc::new(openmb_obs::Monitor::new(openmb_obs::MonitorConfig {
        shards: config.shards,
        transfer_window: config.transfer_window,
        ..openmb_obs::MonitorConfig::default()
    }));
    let rec = openmb_obs::Recorder::enabled(ring);
    rec.add_sink(oracle.clone());
    controller.set_recorder(rec.clone());
    (rec, oracle)
}

/// A controller that hangs up between its request and the reply is the
/// same disconnect a failed receive reports: the serve loop ends `Ok`.
#[test]
fn serve_loop_ends_cleanly_when_the_reply_send_fails() {
    use openmb_types::transport::Transport;
    use openmb_types::wire::Message;
    use openmb_types::{Error, OpId, Result};

    /// Delivers one `GetStats`, then is gone: every send fails.
    struct HangsUpBeforeReply(std::sync::Mutex<Option<Message>>);
    impl Transport for HangsUpBeforeReply {
        fn send(&self, _: Message) -> Result<()> {
            Err(Error::Transport("peer disconnected".into()))
        }
        fn recv_timeout(&self, _: Duration) -> Result<Option<Message>> {
            self.try_recv()
        }
        fn try_recv(&self) -> Result<Option<Message>> {
            match self.0.lock().unwrap().take() {
                Some(m) => Ok(Some(m)),
                None => Err(Error::Transport("peer disconnected".into())),
            }
        }
    }

    let request = Message::GetStats { op: OpId(1), key: HeaderFieldList::any() };
    let transport = HangsUpBeforeReply(std::sync::Mutex::new(Some(request)));
    let served = serve_middlebox(&mut loaded_monitor(3), &transport, &AtomicBool::new(false));
    assert_eq!(served, Ok(()));
    assert!(transport.0.lock().unwrap().is_none(), "the request was taken and answered");
}

/// `reattach_mb` while the old connection is still open: from then on
/// the old connection's frames and its EOF are no-ops — the MB stays
/// reachable over the new one and no reset is recorded.
#[test]
fn a_replaced_connection_is_ignored_from_reattach_on() {
    use openmb_obs::SpanEvent;
    use openmb_types::transport::{channel_pair, Transport};
    use openmb_types::wire::Message;
    use openmb_types::OpId;

    let mut servers = Servers::new();
    let mut controller = quick_controller();
    let (rec, _) = attach_oracle(&controller, 256);
    let (old_ctl, old_mb) = channel_pair();
    let old_ctl = Arc::new(old_ctl);
    let mb = controller.register_mb(old_ctl.clone());
    controller.start();

    controller.reattach_mb(mb, served_over_channel(loaded_monitor(7), &mut servers));
    let handled = controller.engine().messages_handled();
    old_mb.send(Message::OpAck { op: OpId(1) }).unwrap();
    drop(old_mb);
    // The old connection's receive thread is gone once it lets go of
    // the transport; this test's clone is then the only reference.
    wait_until("the replaced connection's thread exits", || Arc::strong_count(&old_ctl) == 1);

    assert_eq!(controller.engine().messages_handled(), handled, "late frame reached the engine");
    assert!(!controller.engine().is_unreachable(mb));
    assert_eq!(report_chunks(&controller, mb), 7);
    let dump = rec.dump();
    let count = |ev: SpanEvent| dump.events.iter().filter(|e| e.event == ev).count();
    assert_eq!(count(SpanEvent::TransportReattached), 1, "{dump}");
    assert_eq!(count(SpanEvent::TransportReset), 0, "late EOF of a replaced connection:\n{dump}");

    controller.shutdown();
    servers.shutdown();
}

/// A middlebox registered after `start()` gets its receive thread at
/// once.
#[test]
fn an_mb_registered_after_start_is_served() {
    let mut servers = Servers::new();
    let mut controller = quick_controller();
    controller.start();
    let mb = controller.register_mb(served_over_channel(loaded_monitor(5), &mut servers));
    assert_eq!(report_chunks(&controller, mb), 5);
    controller.shutdown();
    servers.shutdown();
}

/// `TcpController::end_op` closes a completed move at once: the
/// source's moved flows are deleted (and the deletes acked) while the
/// quiescence window is still an hour away.
#[test]
fn end_op_deletes_the_moved_flows_long_before_quiescence() {
    use openmb_core::Phase;

    let mut servers = Servers::new();
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_secs(3600),
        ..ControllerConfig::default()
    });
    let src = connect(&controller, served_monitor(20, &mut servers));
    let dst = connect(&controller, served_monitor(0, &mut servers));
    controller.start();
    let started = std::time::Instant::now();
    let moved = Request::Move { src, dst, key: HeaderFieldList::any() };
    let op = match controller.call(moved, Duration::from_secs(10)).unwrap() {
        Completion::MoveComplete { op, chunks_moved } => {
            assert_eq!(chunks_moved, 20);
            op
        }
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(report_chunks(&controller, src), 20, "no delete before end_op");
    assert_eq!(controller.engine().op_phase(op), Some(Phase::Completed));

    controller.end_op(op);
    wait_until("the source's deletes are acked", || {
        controller.engine().op_phase(op) == Some(Phase::Closed)
    });
    assert_eq!(report_chunks(&controller, src), 0, "end_op deleted the moved flows");
    assert_eq!(report_chunks(&controller, dst), 20);
    assert!(started.elapsed() < Duration::from_secs(60), "closed by end_op, not quiescence");
    controller.shutdown();
    servers.shutdown();
}

/// A disconnect is handled on the MB's own receive thread after that
/// MB's last frame: N acks queued right before the hang-up are all
/// applied before the reset is.
#[test]
fn frames_queued_before_a_disconnect_are_handled_before_the_reset() {
    use openmb_mb::handle_southbound;
    use openmb_obs::SpanEvent;
    use openmb_types::transport::{channel_pair, Transport};
    use openmb_types::wire::Message;

    const FLOWS: u8 = 16;

    let mut servers = Servers::new();
    // The window holds every chunk, so all FLOWS puts are in flight —
    // and all their acks can be queued — at once.
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        transfer_window: u32::from(FLOWS),
        ..ControllerConfig::default()
    });
    let (rec, oracle) = attach_oracle(&controller, 1024);
    let src = controller.register_mb(served_over_channel(loaded_monitor(FLOWS), &mut servers));
    let (dst_ctl, dst_mb) = channel_pair();
    let dst = controller.register_mb(Arc::new(dst_ctl));
    controller.start();

    let ctrl = &controller;
    let done = std::thread::scope(|s| {
        let mover = s.spawn(|| {
            ctrl.call(
                Request::Move { src, dst, key: HeaderFieldList::any() },
                Duration::from_secs(10),
            )
            .unwrap()
        });
        // The destination by hand: answer everything but hold the acks
        // back until the last put is applied ...
        let mut monitor = Monitor::new();
        let mut acks = Vec::new();
        while acks.len() < usize::from(FLOWS) {
            let msg = dst_mb.recv_timeout(Duration::from_secs(10)).unwrap().expect("puts arrive");
            for reply in handle_southbound(&mut monitor, msg, SimTime(0)) {
                match reply {
                    Message::PutAck { .. } => acks.push(reply),
                    other => dst_mb.send(other).unwrap(),
                }
            }
        }
        // ... then queue them, one frame each, and hang up.
        for ack in acks {
            dst_mb.send(ack).unwrap();
        }
        drop(dst_mb);
        mover.join().unwrap()
    });
    assert!(
        matches!(done, Completion::MoveComplete { chunks_moved, .. } if chunks_moved == usize::from(FLOWS)),
        "{done:?}"
    );
    wait_until("the reset is applied", || ctrl.engine().is_unreachable(dst));

    // Ring order is recording order.
    let dump = rec.dump();
    let reset = dump.events.iter().position(|e| e.event == SpanEvent::TransportReset);
    let acked: Vec<usize> = (0..dump.events.len())
        .filter(|&i| matches!(dump.events[i].event, SpanEvent::ChunkAcked { .. }))
        .collect();
    assert_eq!(acked.len(), usize::from(FLOWS), "{dump}");
    assert!(acked.iter().all(|&i| Some(i) < reset), "an ack was handled after the reset:\n{dump}");
    assert_eq!(oracle.violations(), []);

    controller.shutdown();
    servers.shutdown();
}

/// `shutdown()` does not wait out a timer or a poll chain, and joins
/// everything it spawned: afterwards no thread holds a transport.
#[test]
fn shutdown_is_prompt_and_leaves_no_thread_behind() {
    use openmb_types::transport::channel_pair;

    let mut controller = quick_controller();
    let (ctl_end, _mb_end) = channel_pair();
    let ctl_end = Arc::new(ctl_end);
    controller.register_mb(ctl_end.clone());
    controller.start();
    assert_eq!(Arc::strong_count(&ctl_end), 3, "the table's and the receive thread's");

    let t0 = std::time::Instant::now();
    controller.shutdown();
    assert!(t0.elapsed() < Duration::from_millis(500), "shutdown took {:?}", t0.elapsed());
    drop(controller);
    assert_eq!(Arc::strong_count(&ctl_end), 1, "a thread outlived the controller");
}

/// The TCP embedding under the oracle: a mid-transfer disconnect and
/// resume over `channel_pair`, then 20 alternating moves over loopback
/// TCP, all on one controller whose span stream the invariant monitor
/// checks live. Every move completes with the full chunk count, the
/// destination reports exactly what the source held, and nothing is
/// left open.
#[test]
fn soak_under_the_monitor_over_tcp_and_a_reattach() {
    use openmb_core::tcp::serve_middlebox_recorded;
    use openmb_mb::{handle_southbound_logged, SharedPutLog};
    use openmb_obs::Recorder;
    use openmb_types::transport::{channel_pair, Transport};
    use openmb_types::wire::Message;

    const FLOWS: u8 = 200;
    const MOVES: usize = 20;
    const PUTS_BEFORE_CRASH: usize = 20;

    let mut servers = Servers::new();
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(1),
        op_deadline: SimDuration::from_secs(30),
        max_transfer_resumes: 4,
        resume_after: SimDuration::from_millis(10),
        buffer_events: true,
        transfer_window: 8,
        shards: 2,
        ..ControllerConfig::default()
    });
    let (rec, oracle) = attach_oracle(&controller, 1 << 16);
    let tcp = [
        connect(&controller, served_monitor(FLOWS, &mut servers)),
        connect(&controller, served_monitor(0, &mut servers)),
    ];
    let src = controller.register_mb(served_over_channel(loaded_monitor(FLOWS), &mut servers));
    let (dst_ctl, dst_mb) = channel_pair();
    let dst = controller.register_mb(Arc::new(dst_ctl));
    controller.start();

    let all = HeaderFieldList::any;
    let moved_all = |c: Completion| match c {
        Completion::MoveComplete { chunks_moved, .. } => {
            assert_eq!(chunks_moved, usize::from(FLOWS))
        }
        other => panic!("move did not complete: {other:?}"),
    };

    // The destination applies PUTS_BEFORE_CRASH puts and hangs up; once
    // the controller has parked the move it reconnects (same state and
    // put-log, fresh transport) and the move resumes.
    let ctrl = &controller;
    let expect = stats_of(ctrl, src);
    std::thread::scope(|s| {
        let mover =
            s.spawn(|| ctrl.call(Request::Move { src, dst, key: all() }, Duration::from_secs(20)));
        let mut monitor = Monitor::new();
        let mut log = SharedPutLog::new();
        let mut puts = 0;
        while puts < PUTS_BEFORE_CRASH {
            let msg = dst_mb.recv_timeout(Duration::from_secs(10)).unwrap().expect("puts arrive");
            for reply in handle_southbound_logged(&mut monitor, &mut log, msg, SimTime(0)) {
                puts += usize::from(matches!(reply, Message::PutAck { .. }));
                dst_mb.send(reply).unwrap();
            }
        }
        drop(dst_mb);
        wait_until("the move is parked on the reset", || ctrl.engine().is_unreachable(dst));
        let (ctl2, mb2) = channel_pair();
        ctrl.reattach_mb(dst, Arc::new(ctl2));
        let stop = Arc::clone(&servers.stop);
        servers.threads.push(std::thread::spawn(move || {
            serve_middlebox_recorded(
                &mut monitor,
                &mut log,
                &mb2,
                &stop,
                &Recorder::disabled(),
                "",
            )
            .unwrap();
        }));
        moved_all(mover.join().unwrap().unwrap());
    });
    assert_eq!(stats_of(ctrl, dst), expect, "resumed move: nothing lost, nothing duplicated");

    let mut holder = 0;
    for _ in 0..MOVES {
        let (from, to) = (tcp[holder], tcp[1 - holder]);
        let expect = stats_of(ctrl, from);
        moved_all(
            ctrl.call(Request::Move { src: from, dst: to, key: all() }, Duration::from_secs(10))
                .unwrap(),
        );
        // The quiescence deletes run on the maintenance tick.
        wait_until("the source is emptied", || report_chunks(ctrl, from) == 0);
        assert_eq!(stats_of(ctrl, to), expect);
        holder = 1 - holder;
    }

    wait_until("every op is closed", || ctrl.engine().open_ops() == 0);
    assert_eq!(oracle.violations(), []);
    let dump = rec.dump();
    assert_eq!(dump.evicted, 0, "ring too small for the run: {} events", dump.events.len());

    controller.shutdown();
    servers.shutdown();
}
