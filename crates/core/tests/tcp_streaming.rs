//! A per-flow get streams over TCP: the MB serve loop sends a get's runs
//! in frames of bounded size while the middlebox is still sealing the
//! rest, and the frames, read in order, are the reply the whole get
//! would have been in one frame.

use std::net::{Ipv4Addr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use openmb_core::controller::{Completion, ControllerConfig};
use openmb_core::tcp::{serve_middlebox, TcpController};
use openmb_core::Request;
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::{DummyMb, LoadBalancer, Monitor};
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::transport::{channel_pair, ChannelTransport, TcpTransport, Transport};
use openmb_types::wire::{self, Message};
use openmb_types::{Error, FlowKey, HeaderFieldList, OpId, Packet};

/// A monitor holding `n` flows' records.
fn monitor(n: usize) -> Monitor {
    let mut m = Monitor::new();
    let mut fx = Effects::normal();
    for i in 0..n {
        let src = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let key = FlowKey::tcp(src, 1000 + (i % 50_000) as u16, Ipv4Addr::new(192, 168, 1, 1), 80);
        m.process_packet(SimTime(i as u64), &Packet::new(i as u64, key, vec![0; 64]), &mut fx);
        fx.reset();
    }
    assert_eq!(m.perflow_entries(), n);
    m
}

/// `mb` served over one end of a channel pair on its own thread; the
/// other end and the thread, which hands the middlebox back on `stop`.
fn serve<M: Middlebox + Send + 'static>(
    mut mb: M,
    stop: &Arc<AtomicBool>,
) -> (ChannelTransport, JoinHandle<M>) {
    let (ctrl, end) = channel_pair();
    let stop = Arc::clone(stop);
    let server = std::thread::spawn(move || {
        serve_middlebox(&mut mb, &end, &stop).expect("serve loop");
        mb
    });
    (ctrl, server)
}

/// The frames answering a request, up to and including the one that
/// holds `last` (a `GetAck` or an `ErrorMsg` of `op`).
fn frames_until(t: &dyn Transport, op: OpId, last: fn(&Message) -> bool) -> Vec<Message> {
    let mut frames = Vec::new();
    loop {
        let frame = t.recv_timeout(Duration::from_secs(30)).expect("open").expect("a frame");
        let done = frame.clone().into_unbatched().iter().any(|m| m.op_id() == Some(op) && last(m));
        frames.push(frame);
        if done {
            return frames;
        }
    }
}

fn is_get_ack(m: &Message) -> bool {
    matches!(m, Message::GetAck { .. })
}

fn is_error(m: &Message) -> bool {
    matches!(m, Message::ErrorMsg { .. })
}

/// The streamed frames, read in order, are the reply of one coalesced
/// frame: every run `RunCutter` cuts from the `Vec` get, in order, then
/// the `GetAck`. Sizes straddle `run_len`'s breakpoints.
#[test]
fn streamed_frames_concatenate_to_the_single_frame_reply() {
    for n in [0, 1, 31, 32, 33, 511, 512, 513, 4_000] {
        let stop = Arc::new(AtomicBool::new(false));
        let (ctrl, server) = serve(monitor(n), &stop);
        let op = OpId(9);
        ctrl.send(Message::GetReportPerflow { op, key: HeaderFieldList::any() }).unwrap();
        let frames = frames_until(&ctrl, op, is_get_ack);

        let records = monitor(n).get_report_perflow(op, &HeaderFieldList::any()).unwrap();
        let mut cut = wire::RunCutter::new(op, n);
        let mut want: Vec<Message> = records.into_iter().filter_map(|r| cut.push(r)).collect();
        want.extend(cut.finish());
        want.push(Message::GetAck { op, count: n as u32 });
        let got: Vec<Message> = frames.iter().cloned().flat_map(Message::into_unbatched).collect();
        assert_eq!(got.len(), want.len(), "get of {n}");
        assert!(got == want, "get of {n}: the streamed reply differs");
        if n == 4_000 {
            assert!(frames.len() > 1, "a 4 000-flow get leaves in more than one frame");
        }
        stop.store(true, Ordering::Relaxed);
        assert_eq!(server.join().unwrap().perflow_entries(), n);
    }
}

/// A get the middlebox refuses (a key finer than the load balancer's
/// granularity) is answered by its error alone: no run ahead of it.
#[test]
fn an_export_error_leaves_no_run_ahead_of_its_error() {
    let stop = Arc::new(AtomicBool::new(false));
    let vip = Ipv4Addr::new(10, 0, 0, 100);
    let lb = LoadBalancer::new(vip, &[Ipv4Addr::new(10, 1, 0, 1)]);
    let (ctrl, server) = serve(lb, &stop);
    let flow = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 4000, vip, 80);
    let op = OpId(3);
    ctrl.send(Message::GetSupportPerflow { op, key: HeaderFieldList::exact(flow) }).unwrap();
    let frames = frames_until(&ctrl, op, is_error);
    assert!(
        matches!(&frames[..], [Message::ErrorMsg { op: o, error: Error::GranularityTooFine { .. } }] if *o == op),
        "{frames:?}"
    );
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap();
}

/// A middlebox served on a loopback listener: its address and the
/// serving thread, which hands the middlebox back on `stop`.
fn serve_tcp<M: Middlebox + Send + 'static>(
    mut mb: M,
    stop: &Arc<AtomicBool>,
) -> (std::net::SocketAddr, JoinHandle<M>) {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::clone(stop);
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let transport = TcpTransport::new(stream).unwrap();
        serve_middlebox(&mut mb, &transport, &stop).expect("serve loop");
        mb
    });
    (addr, server)
}

/// A get whose reply is larger than `wire::MAX_MESSAGE` (300 000 dummy
/// records, ≈ 75 MB on the wire) moves: its runs leave in bounded
/// frames. In one coalesced frame the codec refused it and the source's
/// serve loop, taking that for a closed peer, exited.
#[test]
#[ignore = "≈ 75 MB through the codec twice; CI runs it in release"]
fn a_get_larger_than_max_message_moves() {
    const N: usize = 300_000;
    let stop = Arc::new(AtomicBool::new(false));
    let (a, src_server) = serve_tcp(DummyMb::preloaded(N), &stop);
    let (b, dst_server) = serve_tcp(DummyMb::new(), &stop);
    let mut ctrl = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_secs(60),
        op_deadline: SimDuration::from_secs(600),
        ..ControllerConfig::default()
    });
    let src = ctrl.register_mb(Arc::new(TcpTransport::connect(a).unwrap()));
    let dst = ctrl.register_mb(Arc::new(TcpTransport::connect(b).unwrap()));
    ctrl.start();
    let done = ctrl
        .call(Request::Move { src, dst, key: HeaderFieldList::any() }, Duration::from_secs(600));
    assert!(matches!(done, Ok(Completion::MoveComplete { chunks_moved: N, .. })), "{done:?}");
    ctrl.shutdown();
    stop.store(true, Ordering::Relaxed);
    assert_eq!(src_server.join().unwrap().perflow_entries(), N, "the source serve loop lived");
    assert_eq!(dst_server.join().unwrap().perflow_entries(), N);
}

/// A single run the codec refuses to frame (one record of
/// `wire::MAX_MESSAGE` bytes) fails its get with an `ErrorMsg`, and the
/// serve loop goes on serving the connection.
#[test]
#[ignore = "a 64 MiB record through the sealer and the codec; CI runs it in release"]
fn a_run_over_the_codec_limit_fails_its_get_and_keeps_the_connection() {
    let stop = Arc::new(AtomicBool::new(false));
    let mut dummy = DummyMb::new();
    let huge = openmb_mb::Sealer::new("dummy").seal(&vec![7; wire::MAX_MESSAGE]);
    let flow = DummyMb::flow_for(0);
    let chunk = openmb_types::StateChunk::new(HeaderFieldList::exact(flow), huge);
    dummy.put_report_perflow(chunk).unwrap();
    let (addr, server) = serve_tcp(dummy, &stop);
    let ctrl = TcpTransport::connect(addr).unwrap();
    let op = OpId(5);
    ctrl.send(Message::GetReportPerflow { op, key: HeaderFieldList::any() }).unwrap();
    let frames = frames_until(&ctrl, op, is_get_ack);
    assert!(
        matches!(&frames[..], [Message::ErrorMsg { op: o, error: Error::Codec(_) }, Message::GetAck { .. }] if *o == op),
        "{frames:?}"
    );
    let stats = OpId(6);
    ctrl.send(Message::GetStats { op: stats, key: HeaderFieldList::any() }).unwrap();
    let reply = ctrl.recv_timeout(Duration::from_secs(30)).unwrap();
    assert!(matches!(reply, Some(Message::Stats { op, .. }) if op == stats), "{reply:?}");
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap();
}
