//! The TCP serve loop records a get the way the simulator's `MbNode`
//! does — `Handled` when it arrives, `BatchFlushed` per frame of runs,
//! `Served` when its `GetAck` leaves — so `get_window` reads a loopback
//! recording as it reads a DES one.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox_recorded, TcpController};
use openmb_core::Request;
use openmb_harness::common::{get_window, preloaded_monitor};
use openmb_mb::{Middlebox, SharedPutLog};
use openmb_middleboxes::Monitor;
use openmb_simnet::obs::{Recorder, SpanEvent};
use openmb_types::transport::TcpTransport;
use openmb_types::HeaderFieldList;

const FLOWS: usize = 4_000;

#[test]
fn a_streamed_get_reads_as_one_window_of_several_frames() {
    let rec = Recorder::enabled(1 << 20);
    let stop = Arc::new(AtomicBool::new(false));
    let mut servers = Vec::new();
    let mut ctrl = TcpController::new(ControllerConfig::default());
    ctrl.set_recorder(rec.clone());
    for (name, monitor) in [("mb-a", preloaded_monitor(FLOWS)), ("mb-b", Monitor::new())] {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop, rec) = (Arc::clone(&stop), rec.clone());
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let (mut mb, log) = (monitor, &mut SharedPutLog::new());
            serve_middlebox_recorded(&mut mb, log, &transport, &stop, &rec, name).unwrap();
            mb
        }));
        ctrl.register_mb(Arc::new(TcpTransport::connect(addr).unwrap()));
    }
    ctrl.start();
    let (src, dst) = (openmb_types::MbId(0), openmb_types::MbId(1));
    let done =
        ctrl.call(Request::Move { src, dst, key: HeaderFieldList::any() }, Duration::from_secs(60));
    assert!(matches!(done, Ok(Completion::MoveComplete { chunks_moved: FLOWS, .. })), "{done:?}");
    ctrl.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mbs: Vec<Monitor> = servers.into_iter().map(|s| s.join().unwrap()).collect();
    assert_eq!(mbs[1].perflow_entries(), FLOWS);

    let dump = rec.dump();
    assert_eq!(dump.evicted, 0);
    let on_a = |e: &&openmb_simnet::obs::TimelineEvent| e.node == "mb-a";
    let get = dump
        .events
        .iter()
        .filter(on_a)
        .find(|e| matches!(e.event, SpanEvent::Handled { msg: "getReportPerflow" }))
        .expect("the report get was handled");
    let frames = dump
        .events
        .iter()
        .filter(on_a)
        .filter(|e| e.sub == get.sub && matches!(e.event, SpanEvent::BatchFlushed { .. }))
        .count();
    assert!(frames > 1, "a {FLOWS}-flow get leaves in more than one frame, not {frames}");
    let served = dump
        .events
        .iter()
        .filter(on_a)
        .filter(|e| e.sub == get.sub && matches!(e.event, SpanEvent::Served { .. }))
        .map(|e| e.t_ns)
        .collect::<Vec<_>>();
    assert_eq!(served.len(), 1, "one Served for the get");
    let window = get_window(&dump, "mb-a", |m| m == "getReportPerflow");
    assert_eq!(window.map(|(s, e)| (s.0, e.0)), Some((get.t_ns, served[0])));
}
