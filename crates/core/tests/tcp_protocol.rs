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
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Monitor;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::TcpTransport;
use openmb_types::{FlowKey, HeaderFieldList, Packet};

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
    let c = controller.stats(src, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => assert_eq!(stats.perflow_report_chunks, 30),
        other => panic!("unexpected {other:?}"),
    }

    // readConfig("*") / writeConfig clone.
    let c = controller.read_config(src, "*", Duration::from_secs(5)).unwrap();
    let pairs = match c {
        Completion::Config { pairs, .. } => pairs,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!pairs.is_empty());
    for (k, v) in &pairs {
        controller.write_config(dst, &k.to_string(), v.clone(), Duration::from_secs(5)).unwrap();
    }

    // moveInternal: all 30 chunks should land at the destination.
    let c = controller
        .move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(10))
        .unwrap();
    match c {
        Completion::MoveComplete { chunks_moved, .. } => assert_eq!(chunks_moved, 30),
        other => panic!("unexpected {other:?}"),
    }

    // mergeInternal: shared counters (30 packets) merge into dst.
    let c = controller.merge_internal(src, dst, Duration::from_secs(10)).unwrap();
    assert!(matches!(c, Completion::MergeComplete { .. }));

    // Allow the quiescence tick to fire the deletes at the source.
    std::thread::sleep(Duration::from_millis(300));
    let c = controller.stats(src, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Stats { stats, .. } => {
            assert_eq!(stats.perflow_report_chunks, 0, "source deleted after quiescence")
        }
        other => panic!("unexpected {other:?}"),
    }
    let c = controller.stats(dst, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
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
    use openmb_core::tcp::{handle_southbound_logged, serve_middlebox_logged};
    use openmb_mb::SharedPutLog;
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
            ctrl.move_internal(src_id, dst_id, HeaderFieldList::any(), Duration::from_secs(20))
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
            serve_middlebox_logged(&mut dst, &mut log, &mb2, &stop2).unwrap();
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
        let c = ctrl.stats(dst_id, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
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
        .move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(10))
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

    let c = controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
    match c {
        Completion::Failed { error: Error::MbUnreachable(id), .. } => assert_eq!(id, mb),
        other => panic!("expected MbUnreachable abort, got {other:?}"),
    }

    // Every subsequent call naming the dead MB fails fast the same way.
    let c =
        controller.move_internal(mb, mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap();
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
        let mut monitor = Monitor::new();
        let mut fx = Effects::normal();
        for f in 1..=flows {
            monitor.process_packet(SimTime(u64::from(f)), &http_pkt(u64::from(f), f), &mut fx);
        }
        serve_middlebox(&mut monitor, &transport, &stop).unwrap();
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
    match controller.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)).unwrap() {
        Completion::Stats { stats, .. } => stats.perflow_report_chunks,
        other => panic!("unexpected {other:?}"),
    }
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
                    .move_internal(pair[0], pair[1], HeaderFieldList::any(), Duration::from_secs(3))
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
    let c = controller.chain_move(spec, Duration::from_secs(10)).unwrap();
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
    use openmb_core::tcp::handle_southbound;
    use openmb_core::{ChainHop, ChainSpec};
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
    match controller.chain_move(spec, Duration::from_secs(10)).unwrap() {
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
