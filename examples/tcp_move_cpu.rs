//! Where a loopback-TCP move spends its CPU, thread by thread.
//!
//! Two monitors, each served by its own named thread (`mb-a`, `mb-b`)
//! over a `TcpTransport` on 127.0.0.1, and a `TcpController` moving all
//! 4 000 flows between them, back and forth, 60 times — the shape of
//! the benchmark's `move_tcp_10k`. Each thread's CPU time is read from
//! `/proc/self/task/<tid>/stat` before and after the moves and printed
//! per op, beside the ops' median wall time. The controller's threads
//! are the unnamed ones; `main` drives the blocking calls.
//!
//! Each op's CPU includes the source's quiescence delete: after each
//! move, `main` sleeps past a maintenance tick and then reads the
//! source's stats until its table is empty. A stats read walks the
//! whole table, so the rows include those reads; the printed "stats
//! reads per op" says how many there were (1.00 when every first read
//! found the table already empty, a walk of nothing).
//!
//! The kernel counts thread CPU in ticks of 10 ms (`USER_HZ` = 100), so
//! over 60 ops a row resolves ≈ 0.17 ms per op. Linux only.
//!
//! Run with: `cargo run --release --example tcp_move_cpu`

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmb::core::controller::{Completion, ControllerConfig};
use openmb::core::tcp::{serve_middlebox, TcpController};
use openmb::mb::{Effects, Middlebox};
use openmb::middleboxes::Monitor;
use openmb::simnet::{SimDuration, SimTime};
use openmb::types::transport::TcpTransport;
use openmb::types::{FlowKey, HeaderFieldList, MbId, Packet};

const FLOWS: u32 = 4000;
const MOVES: usize = 60;
/// More than the controller's maintenance tick (25 ms) plus the
/// quiescence delay set below.
const SETTLE: Duration = Duration::from_millis(30);
/// Ticks per second of the `/proc` CPU counters.
const USER_HZ: f64 = 100.0;

/// CPU ticks (user + system) of every thread of this process, by tid,
/// with the thread's name.
fn thread_ticks() -> BTreeMap<u32, (String, u64)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = entry.expect("task entry").path();
        let Ok(tid) = dir.file_name().unwrap().to_string_lossy().parse::<u32>() else { continue };
        let (Ok(stat), Ok(name)) =
            (std::fs::read_to_string(dir.join("stat")), std::fs::read_to_string(dir.join("comm")))
        else {
            continue; // the thread ended between the listing and the read
        };
        // Fields after the parenthesized name: state is field 3, utime
        // field 14 and stime field 15.
        let rest = &stat[stat.rfind(')').expect("stat has a name") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        out.insert(tid, (name.trim().to_owned(), ticks));
    }
    out
}

fn per_flow_stats(ctrl: &TcpController, mb: MbId) -> usize {
    match ctrl.stats(mb, HeaderFieldList::any(), Duration::from_secs(5)) {
        Ok(Completion::Stats { stats, .. }) => stats.perflow_report_chunks,
        other => panic!("stats: {other:?}"),
    }
}

fn main() {
    let mut source = Monitor::new();
    let mut fx = Effects::normal();
    for i in 0..FLOWS {
        let client = Ipv4Addr::from(0x0a00_0000 | (i * 7919 % 0x00ff_ffff));
        let key =
            FlowKey::tcp(client, 1024 + (i % 60_000) as u16, Ipv4Addr::new(192, 168, 1, 1), 80);
        source.process_packet(
            SimTime(u64::from(i)),
            &Packet::new(u64::from(i) + 1, key, vec![0; 120]),
            &mut fx,
        );
        fx.reset();
    }
    assert_eq!(source.perflow_entries(), FLOWS as usize);

    let stop = Arc::new(AtomicBool::new(false));
    let mut ctrl = TcpController::new(ControllerConfig {
        // Finished moves are closed on the next maintenance tick.
        quiesce_after: SimDuration::from_millis(1),
        ..ControllerConfig::default()
    });
    let mut servers = Vec::new();
    let mut mbs = Vec::new();
    for (name, monitor) in [("mb-a", source), ("mb-b", Monitor::new())] {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::clone(&stop);
        let serve = move || {
            let (stream, _) = listener.accept().unwrap();
            let mut monitor = monitor;
            serve_middlebox(&mut monitor, &TcpTransport::new(stream).unwrap(), &stop).unwrap();
        };
        servers.push(std::thread::Builder::new().name(name.into()).spawn(serve).unwrap());
        mbs.push(ctrl.register_mb(Arc::new(TcpTransport::connect(addr).unwrap())));
    }
    ctrl.start();

    let before = thread_ticks();
    let mut op_ms = Vec::new();
    let mut stats_reads = 0;
    for i in 0..MOVES {
        let (src, dst) = (mbs[i % 2], mbs[1 - i % 2]);
        let t0 = Instant::now();
        let done = ctrl.move_internal(src, dst, HeaderFieldList::any(), Duration::from_secs(5));
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(
            matches!(done, Ok(Completion::MoveComplete { chunks_moved, .. }) if chunks_moved == FLOWS as usize),
            "move {i}: {done:?}"
        );
        // The source's quiescence delete belongs to this op's CPU. It
        // runs on the first maintenance tick after the op closes, so
        // wait out a tick before reading stats: a read walks the
        // source's table, and one that finds it still full would be
        // counted as the op's.
        loop {
            std::thread::sleep(SETTLE);
            stats_reads += 1;
            if per_flow_stats(&ctrl, src) == 0 {
                break;
            }
        }
    }
    let after = thread_ticks();
    op_ms.sort_by(f64::total_cmp);

    let main_tid = std::process::id();
    let mut rows: BTreeMap<String, u64> = BTreeMap::new();
    for (tid, (name, ticks)) in &after {
        let spent = ticks - before.get(tid).map_or(0, |(_, t)| *t);
        let row = match name.as_str() {
            _ if *tid == main_tid => "main".to_owned(),
            "mb-a" | "mb-b" => name.clone(),
            _ => "controller".to_owned(),
        };
        *rows.entry(row).or_default() += spent;
    }
    println!("{MOVES} moves of {FLOWS} Monitor flows over loopback TCP");
    println!("op wall time median {:.2} ms", op_ms[op_ms.len() / 2]);
    println!("stats reads per op {:.2}", stats_reads as f64 / MOVES as f64);
    println!("{:<12} {:>14}", "thread", "CPU ms per op");
    for (row, ticks) in &rows {
        println!("{row:<12} {:>14.2}", *ticks as f64 / USER_HZ * 1e3 / MOVES as f64);
    }

    stop.store(true, Ordering::Relaxed);
    ctrl.shutdown();
    // Closing the controller's sockets ends both serve loops.
    drop(ctrl);
    for s in servers {
        s.join().expect("MB serve thread panicked");
    }
}
