//! Message transports.
//!
//! The controller and middleboxes speak [`wire::Message`]s over a
//! [`Transport`]. Two implementations exist:
//!
//! * [`channel_pair`] — an in-process pair built on `std::sync::mpsc`
//!   channels, for tests that drive a `TcpController` without sockets.
//!   (The discrete-event simulator has links of its own.)
//! * [`TcpTransport`] — real length-prefixed frames over `std::net`
//!   TCP, read by whichever thread asks for the next message (no thread
//!   of its own). The `tcp_protocol` example and integration tests run
//!   the full controller ↔ MB protocol over loopback TCP, demonstrating
//!   the wire format is a genuine network protocol and not just an
//!   in-memory enum.
//!
//! [`wire::Message`]: crate::wire::Message

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::wire::{decode_bytes, encode_frame, Message, MAX_MESSAGE};

/// A bidirectional, ordered, reliable message pipe.
pub trait Transport: Send {
    /// Send one message. Errors when the peer is gone.
    fn send(&self, msg: Message) -> Result<()>;
    /// Receive the next message, blocking up to `timeout`.
    /// `Ok(None)` = timeout; `Err` = disconnected.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>>;
    /// Non-blocking receive. `Ok(None)` = nothing pending.
    fn try_recv(&self) -> Result<Option<Message>>;
}

/// In-process transport endpoint: a pair of `std::sync::mpsc` channels.
/// The receive end sits in a mutex, which makes the endpoint `Sync`;
/// like [`TcpTransport`], one receiver at a time: a second
/// `recv_timeout` waits for the first, and `try_recv` finds nothing
/// while another thread is receiving.
pub struct ChannelTransport {
    tx: Sender<Message>,
    rx: Mutex<Receiver<Message>>,
}

/// Create a connected pair of in-process transports.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let end = |tx, rx| ChannelTransport { tx, rx: Mutex::new(rx) };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl Transport for ChannelTransport {
    fn send(&self, msg: Message) -> Result<()> {
        self.tx.send(msg).map_err(|_| Error::Transport("peer disconnected".into()))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Transport("peer disconnected".into()))
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        let Some(rx) = try_lock(&self.rx) else { return Ok(None) };
        match rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Error::Transport("peer disconnected".into())),
        }
    }
}

/// Take `m`, recovering it from a holder that panicked: each lock here
/// guards one end of a pipe, which a panic elsewhere leaves usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] if nobody holds `m` right now, `None` if somebody does.
fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// How long a `send` waits for room in the peer's socket buffer before
/// it reads its own incoming frames into the queue and tries again.
const SEND_STALL: Duration = Duration::from_millis(20);

/// Right after a frame, how long the next `recv_timeout` polls the
/// socket (non-blocking reads, yielding the CPU between them) before it
/// blocks. The frames of a state transfer follow each other closely —
/// a 4 000-flow move over loopback is about 60 frames on its two links:
/// the source's run frames as it seals them, the references the
/// controller puts for each and the destination's acks — so the next
/// one is on the way within the peer's service time (~100 µs for a
/// frame of a few dozen runs), while blocking
/// costs a cross-CPU wake-up per frame whose price on a virtual machine
/// is 5-100 µs *depending on where the scheduler put the two threads*:
/// measured run to run, that made one binary's move take anything from
/// 29 to 60 ms. A receiver that is still running when the reply lands
/// pays neither the wake-up nor the lottery. Bounded: an idle
/// connection never polls (only a receive that follows a frame does),
/// and a reply slower than this is awaited blocked as before.
const HOT_POLL: Duration = Duration::from_micros(200);

/// TCP transport: frames [`Message`]s over a socket, with no thread of
/// its own.
///
/// * **Receive**: the thread that calls `recv_timeout` reads the socket
///   itself (a blocking read under the socket's read timeout), so
///   between a frame arriving and its consumer running there is at most
///   one wake-up — the kernel's — and no hand-off; right after a frame
///   it first polls for 200 µs (`HOT_POLL`), so the replies of a lock-step
///   exchange find it awake. A timeout in the middle of a frame keeps
///   what was read; the next call resumes it. One receiver at a time: a
///   second `recv_timeout` waits for the first, and `try_recv` finds
///   nothing while another thread is receiving.
/// * **Send** is one `write` per frame ([`encode_frame`]) and never
///   blocks for good: when the peer leaves no room for 20 ms (`SEND_STALL`)
///   it may itself be blocked sending to us, so the sender reads
///   whatever has arrived on this socket into an unbounded queue (which
///   `recv_timeout` serves first) and tries again. Two endpoints
///   sending to each other with nobody receiving therefore both finish
///   — which is what lets a controller send while holding a lock its
///   own receivers need. (An eager reader thread per connection used
///   to give the same guarantee, at the price of a second wake-up per
///   frame.)
pub struct TcpTransport {
    /// Serialises senders.
    writer: Mutex<TcpStream>,
    /// The receive half: whoever holds it reads the socket.
    rx: Mutex<Rx>,
}

struct Rx {
    stream: BufReader<TcpStream>,
    /// The read timeout now set on the socket.
    timeout: Option<Duration>,
    /// The frame being read: how much of the length prefix is in, then
    /// the body and how much of it is in.
    prefix: [u8; 4],
    prefix_len: usize,
    body: Option<(Vec<u8>, usize)>,
    /// Frames a stalled sender read off the socket.
    queue: VecDeque<Message>,
    /// EOF, a socket error or an undecodable frame was seen.
    closed: bool,
    /// The last receive returned a frame: the next one polls first.
    hot: bool,
}

/// What one attempt to complete a frame came to.
enum Progress {
    Frame(Message),
    /// The read timed out (or would block); what was read is kept.
    NotYet,
    Closed,
}

impl Rx {
    /// Read until a whole frame is in, `deadline` passes, a read times
    /// out, or the connection ends.
    fn read_frame(&mut self, deadline: Option<Instant>) -> Progress {
        loop {
            let (buf, filled) = match &mut self.body {
                None => (&mut self.prefix[..], &mut self.prefix_len),
                Some((body, filled)) => (&mut body[..], filled),
            };
            if *filled < buf.len() {
                match self.stream.read(&mut buf[*filled..]) {
                    Ok(0) => return Progress::Closed,
                    Ok(n) => *filled += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Progress::NotYet
                    }
                    Err(_) => return Progress::Closed,
                }
                if *filled < buf.len() {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Progress::NotYet;
                    }
                    continue;
                }
            }
            match self.body.take() {
                None => {
                    let len = u32::from_le_bytes(self.prefix) as usize;
                    if len > MAX_MESSAGE {
                        return Progress::Closed;
                    }
                    self.body = Some((vec![0u8; len], 0));
                }
                Some((body, _)) => {
                    self.prefix_len = 0;
                    // Decode through `Bytes` so packet payloads and state
                    // chunks alias the receive buffer instead of copying
                    // out of it.
                    return match decode_bytes(&Bytes::from(body)) {
                        Ok(msg) => Progress::Frame(msg),
                        Err(_) => Progress::Closed,
                    };
                }
            }
        }
    }

    /// The next message: queued, or read off the socket waiting up to
    /// `wait` (`None`: not at all).
    fn recv(&mut self, wait: Option<Duration>) -> Result<Option<Message>> {
        if let Some(msg) = self.queue.pop_front() {
            return Ok(Some(msg));
        }
        if self.closed {
            return Err(Error::Transport("connection closed".into()));
        }
        let progress = match wait.filter(|w| !w.is_zero()) {
            None => self.read_pending(Duration::ZERO),
            Some(wait) => {
                let polled = match std::mem::take(&mut self.hot) {
                    true => self.read_pending(wait.min(HOT_POLL)),
                    false => Progress::NotYet,
                };
                match polled {
                    Progress::NotYet => {
                        if self.timeout != Some(wait) {
                            self.stream.get_ref().set_read_timeout(Some(wait))?;
                            self.timeout = Some(wait);
                        }
                        self.read_frame(Instant::now().checked_add(wait))
                    }
                    done => done,
                }
            }
        };
        match progress {
            Progress::Frame(msg) => {
                self.hot = true;
                Ok(Some(msg))
            }
            Progress::NotYet => Ok(None),
            Progress::Closed => {
                self.closed = true;
                Err(Error::Transport("connection closed".into()))
            }
        }
    }

    /// [`Rx::read_frame`] without blocking: what the socket already
    /// holds, or comes to hold within `poll_for` of non-blocking reads
    /// with the CPU offered to other threads in between. (`O_NONBLOCK`
    /// is shared with the write half; a concurrent `send` that trips
    /// over it just tries again.)
    fn read_pending(&mut self, poll_for: Duration) -> Progress {
        if self.stream.get_ref().set_nonblocking(true).is_err() {
            return Progress::Closed;
        }
        let start = Instant::now();
        let progress = loop {
            match self.read_frame(None) {
                Progress::NotYet if start.elapsed() < poll_for => std::thread::yield_now(),
                progress => break progress,
            }
        };
        match self.stream.get_ref().set_nonblocking(false) {
            Ok(()) => progress,
            Err(_) => Progress::Closed,
        }
    }

    /// Move every frame the socket already holds into the queue.
    fn drain(&mut self) {
        while !self.closed {
            match self.read_pending(Duration::ZERO) {
                Progress::Frame(msg) => self.queue.push_back(msg),
                Progress::NotYet => break,
                Progress::Closed => self.closed = true,
            }
        }
    }
}

impl TcpTransport {
    /// Wrap an established TCP stream.
    pub fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(SEND_STALL))?;
        let rx = Rx {
            // Room for a whole window's frame (64 chunk bodies ≈ 16 KiB)
            // in one `read`.
            stream: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            timeout: None,
            prefix: [0; 4],
            prefix_len: 0,
            body: None,
            queue: VecDeque::new(),
            closed: false,
            hot: false,
        };
        Ok(TcpTransport { writer: Mutex::new(stream), rx: Mutex::new(rx) })
    }

    /// Connect to a listening peer.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::new(stream)
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: Message) -> Result<()> {
        let frame = encode_frame(&msg)?;
        let mut writer = lock(&self.writer);
        let mut sent = 0;
        while sent < frame.len() {
            match writer.write(&frame[sent..]) {
                Ok(0) => return Err(Error::Transport("connection closed".into())),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // No room at the peer: make room for *its* sends. A
                    // receiver holding `rx` is reading the socket itself.
                    if let Some(mut rx) = try_lock(&self.rx) {
                        rx.drain();
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        lock(&self.rx).recv(Some(timeout))
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match try_lock(&self.rx) {
            Some(mut rx) => rx.recv(None),
            None => Ok(None),
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Hang up even if the caller kept a clone of the stream.
        let _ = lock(&self.writer).shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::VendorKey;
    use crate::flow::HeaderFieldList;
    use crate::state::EncryptedChunk;
    use crate::wire::ChunkClass;
    use crate::OpId;

    // `TcpController` hosts its links as `Arc<dyn Transport + Sync>`.
    const _: () = {
        const fn hostable<T: Transport + Sync>() {}
        hostable::<ChannelTransport>();
        hostable::<TcpTransport>();
    };

    #[test]
    fn channel_pair_delivers_in_order() {
        let (a, b) = channel_pair();
        for i in 0..10 {
            a.send(Message::OpAck { op: OpId(i) }).unwrap();
        }
        for i in 0..10 {
            let m = b.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(m, Message::OpAck { op: OpId(i) });
        }
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn channel_disconnect_is_error() {
        let (a, b) = channel_pair();
        drop(a);
        assert!(b.recv_timeout(Duration::from_millis(10)).is_err());
    }

    /// `Duration::MAX` is a wait without a deadline on both transports
    /// (TCP first, then the channel): a queued frame comes back, and a
    /// peer that hung up is an error, not an overflow or a hang.
    #[test]
    fn an_unbounded_wait_returns_the_frame_then_the_hangup() {
        let msg = Message::OpAck { op: OpId(5) };
        let (raw, t) = raw_and_transport();
        let peer = TcpTransport::new(raw).unwrap();
        peer.send(msg.clone()).unwrap();
        assert_eq!(t.recv_timeout(Duration::MAX).unwrap(), Some(msg.clone()));
        drop(peer);
        assert!(t.recv_timeout(Duration::MAX).is_err());

        let (a, b) = channel_pair();
        a.send(msg.clone()).unwrap();
        assert_eq!(b.recv_timeout(Duration::MAX).unwrap(), Some(msg));
        drop(a);
        assert!(b.recv_timeout(Duration::MAX).is_err());
    }

    /// One receiver at a time on the channel transport, as on TCP: while
    /// another thread waits in `recv_timeout`, `try_recv` returns at once
    /// with nothing, and the waiting receiver gets the next frame.
    #[test]
    fn try_recv_does_not_wait_for_a_blocked_receiver() {
        let msg = Message::OpAck { op: OpId(6) };
        let (a, b) = channel_pair();
        let b = std::sync::Arc::new(b);
        let receiver = std::sync::Arc::clone(&b);
        let waiting = std::thread::spawn(move || receiver.recv_timeout(Duration::from_secs(5)));
        while b.rx.try_lock().is_ok() {
            std::thread::yield_now(); // until the receiver holds the channel
        }
        let t0 = Instant::now();
        assert_eq!(b.try_recv().unwrap(), None);
        assert!(t0.elapsed() < Duration::from_secs(1), "try_recv waited for the receiver");
        a.send(msg.clone()).unwrap();
        assert_eq!(waiting.join().unwrap().unwrap(), Some(msg));
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::new(stream).unwrap();
            // Echo 100 messages back.
            for _ in 0..100 {
                let m = t.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
                t.send(m).unwrap();
            }
        });
        let client = TcpTransport::connect(addr).unwrap();
        for i in 0..100u64 {
            client.send(Message::GetAck { op: OpId(i), count: i as u32 }).unwrap();
        }
        for i in 0..100u64 {
            let m = client.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert_eq!(m, Message::GetAck { op: OpId(i), count: i as u32 });
        }
        server.join().unwrap();
    }

    /// A connected loopback pair: the raw accepted stream and the
    /// connecting end wrapped as a transport.
    fn raw_and_transport() -> (TcpStream, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        (listener.accept().unwrap().0, client)
    }

    /// What the eager reader thread used to guarantee: two ends that
    /// both send far more than the socket buffers hold, with nobody
    /// receiving, both finish — each stalled sender reads the other's
    /// frames into its queue — and then receive everything in order.
    #[test]
    fn both_ends_sending_with_nobody_receiving_finish() {
        const FRAMES: u64 = 192; // x 64 KiB = 12 MiB each way
        let big = |i: u64| Message::ChunkBody {
            op: OpId(i),
            class: ChunkClass::Report,
            key: HeaderFieldList::any(),
            hash: [7; 32],
            data: EncryptedChunk::seal(&VendorKey::derive("t"), i, &vec![0u8; 64 << 10]),
            rest: Vec::new(),
        };
        let exchange = move |t: TcpTransport| {
            for i in 0..FRAMES {
                t.send(big(i)).unwrap();
            }
            for i in 0..FRAMES {
                let m = t.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
                assert_eq!(m.op_id(), Some(OpId(i)));
            }
        };
        let (raw, a) = raw_and_transport();
        let b = TcpTransport::new(raw).unwrap();
        let peer = std::thread::spawn(move || exchange(b));
        exchange(a);
        peer.join().unwrap();
    }

    /// A read timeout in the middle of a frame keeps what was read; the
    /// rest completes the same frame — on the blocking path (first
    /// round) and on the poll that follows a frame (second round).
    /// `try_recv` does not wait.
    #[test]
    fn a_frame_arriving_in_pieces_survives_timeouts() {
        let (mut raw, t) = raw_and_transport();
        let msg = Message::GetAck { op: OpId(9), count: 3 };
        let frame = encode_frame(&msg).unwrap();
        let t0 = Instant::now();
        assert_eq!(t.try_recv().unwrap(), None);
        assert!(t0.elapsed() < Duration::from_millis(100), "try_recv waited");
        for cut in [2, 7] {
            // Inside the length prefix, then inside the body.
            raw.write_all(&frame[..cut]).unwrap();
            assert_eq!(t.recv_timeout(Duration::from_millis(20)).unwrap(), None);
            assert_eq!(t.try_recv().unwrap(), None);
            raw.write_all(&frame[cut..]).unwrap();
            assert_eq!(t.recv_timeout(Duration::from_secs(5)).unwrap(), Some(msg.clone()));
        }
        raw.write_all(&frame).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match t.try_recv().unwrap() {
                Some(m) => break assert_eq!(m, msg),
                None => assert!(Instant::now() < deadline, "frame never arrived"),
            }
        }
    }

    /// A peer that hangs up is an error only after the frames it sent,
    /// and stays one.
    #[test]
    fn hangup_is_reported_after_the_last_frame() {
        let (mut raw, t) = raw_and_transport();
        for i in 0..2 {
            raw.write_all(&encode_frame(&Message::OpAck { op: OpId(i) }).unwrap()).unwrap();
        }
        raw.write_all(&[9, 0]).unwrap(); // half a length prefix
        drop(raw);
        for i in 0..2 {
            let m = t.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(m, Some(Message::OpAck { op: OpId(i) }));
        }
        assert!(t.recv_timeout(Duration::from_secs(5)).is_err());
        assert!(t.try_recv().is_err());
    }
}
