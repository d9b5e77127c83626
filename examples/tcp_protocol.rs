//! The OpenMB protocol over real loopback TCP — the paper's deployment
//! shape (§7: controller listening for MB connections, JSON↔binary
//! messages per operation), with the same `ControllerCore` that drives
//! the simulator.
//!
//! Two monitor middleboxes are served by threads; the controller brokers
//! a `stats`, a configuration clone, a `moveInternal`, and a
//! `mergeInternal` between them, blocking on each completion.
//!
//! Run with: `cargo run --example tcp_protocol`

use openmb::core::controller::{Completion, ControllerConfig, Request};
use openmb::core::tcp::{serve_middlebox, TcpController};
use openmb::mb::{Effects, Middlebox};
use openmb::middleboxes::Monitor;
use openmb::simnet::{SimDuration, SimTime};
use openmb::types::transport::TcpTransport;
use openmb::types::{FlowKey, HeaderFieldList, HierarchicalKey, Packet};
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // --- two middlebox "processes", each behind a TCP listener ---
    let stop = Arc::new(AtomicBool::new(false));
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for i in 0..2u8 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            println!("[mb{i}] controller connected from {peer}");
            let transport = TcpTransport::new(stream).unwrap();
            let mut monitor = Monitor::new();
            if i == 0 {
                // Simulate a running MB: 50 observed flows.
                let mut fx = Effects::normal();
                for f in 1..=50u16 {
                    let key = FlowKey::tcp(
                        Ipv4Addr::new(10, 0, (f >> 8) as u8, f as u8),
                        30_000 + f,
                        Ipv4Addr::new(192, 168, 1, 1),
                        80,
                    );
                    monitor.process_packet(
                        SimTime(u64::from(f)),
                        &Packet::new(u64::from(f), key, vec![0u8; 100]),
                        &mut fx,
                    );
                }
            }
            serve_middlebox(&mut monitor, &transport, &stop).unwrap();
        }));
    }

    // --- the controller connects out and brokers operations ---
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(50),
        buffer_events: true,
        ..ControllerConfig::default()
    });
    let src = controller.register_mb(Arc::new(TcpTransport::connect(addrs[0]).unwrap()));
    let dst = controller.register_mb(Arc::new(TcpTransport::connect(addrs[1]).unwrap()));
    controller.start();
    let t = Duration::from_secs(5);

    let any = HeaderFieldList::any();
    match controller.call(Request::Stats { mb: src, key: any }, t).unwrap() {
        Completion::Stats { stats, .. } => {
            println!(
                "[ctl] stats(src): {} per-flow chunks, {} bytes",
                stats.perflow_report_chunks, stats.perflow_report_bytes
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Clone configuration (readConfig "*" → writeConfig each pair).
    let read = Request::ReadConfig { mb: src, key: HierarchicalKey::root() };
    if let Completion::Config { pairs, .. } = controller.call(read, t).unwrap() {
        println!("[ctl] readConfig(src, \"*\"): {} keys", pairs.len());
        for (key, values) in pairs {
            controller.call(Request::WriteConfig { mb: dst, key, values }, t).unwrap();
        }
        println!("[ctl] configuration cloned to dst");
    }

    match controller.call(Request::Move { src, dst, key: any }, t).unwrap() {
        Completion::MoveComplete { chunks_moved, .. } => {
            println!("[ctl] moveInternal: {chunks_moved} chunks moved");
        }
        other => panic!("unexpected {other:?}"),
    }

    controller.call(Request::Merge { src, dst }, t).unwrap();
    println!("[ctl] mergeInternal: shared counters consolidated");

    std::thread::sleep(Duration::from_millis(200)); // quiescence deletes
    if let Completion::Stats { stats, .. } =
        controller.call(Request::Stats { mb: dst, key: any }, t).unwrap()
    {
        println!("[ctl] stats(dst): {} per-flow chunks", stats.perflow_report_chunks);
        assert_eq!(stats.perflow_report_chunks, 50);
    }

    controller.shutdown();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    println!("\nOK: the full northbound/southbound protocol ran over loopback TCP.");
}
