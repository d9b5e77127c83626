//! The OpenMB protocol over real TCP.
//!
//! The paper's prototype connects middleboxes to the controller over
//! sockets (§7: "The controller listens for connections from MBs and,
//! for each MB, launches one thread for handling state operations and
//! one thread for handling events"). This module provides the same
//! deployment shape on `std::net` TCP with the binary wire codec:
//!
//! * [`serve_middlebox_recorded`] — the one MB serve loop: serves any
//!   [`Middlebox`]'s southbound protocol over a [`Transport`] (one
//!   thread per MB, like the paper), with a caller-owned put log and
//!   flight recorder; [`serve_middlebox`] runs it with neither. The
//!   dispatch it calls is [`openmb_mb::handle_southbound_into`], which
//!   hands over each reply as it is made, and the loop sends replies in
//!   frames of about 32 KiB (`FRAME_BYTES`): a per-flow get's runs
//!   stream to the controller while the middlebox is still sealing the
//!   rest, so the source's export, the engine and the destination's
//!   import overlap instead of running one after another (§4.2,
//!   Fig 5: the controller puts each chunk as it arrives).
//! * [`TcpController`] — hosts the one controller engine
//!   ([`ControllerCore`]), runs one receive thread per MB connection
//!   that feeds the engine directly, and exposes the northbound API as
//!   one *blocking* entry point, [`TcpController::call`]: any
//!   [`Request`], submitted to the engine, waited on until its
//!   completion. Callers on different threads each get their own
//!   completion: every blocking call parks on a per-op slot, not on a
//!   shared queue. [`TcpController::end_op`], which opens no op and
//!   has no completion, is the one northbound method beside it and
//!   does not block.
//!
//! Nothing here re-implements controller logic: admission, deferral
//! release, chain transactions and batch unpacking are the engine's;
//! this file owns the threads, the link table and the waiter table.
//!
//! # Threads and the order lock
//!
//! Event-driven, no polling between a frame and the engine: each MB
//! connection has one **receive thread**, blocked in its transport's
//! `recv_timeout` — for a [`TcpTransport`], in a read of the socket
//! itself; the transport has no thread of its own. The frame an MB
//! sends wakes that thread, which calls
//! [`ControllerCore::handle_mb_message`] and sends what the engine asked
//! for. There is no pump thread and no hand-off between the socket and
//! the engine. A disconnect arrives on the same thread, after that MB's
//! last frame, so `TransportReset` → `mark_unreachable` stays ordered
//! per MB. A **timer thread** calls the engine's maintenance `tick`
//! every 25 ms.
//!
//! Every engine call — an MB's frame, a reset, a northbound call, a
//! reattach, a tick — runs under one **order lock**, held from the call
//! until the frames it produced are sent and its completions
//! delivered. "Engine call + its sends" is therefore atomic: each MB
//! receives frames in exactly the order the engine produced them (the
//! per-flow `ReprocessPacket`/put ordering of §5), as it did when a
//! single pump thread made all the calls. A send blocks under the
//! lock, which cannot deadlock because a [`TcpTransport`] whose send
//! stalls reads its own incoming frames into an unbounded queue (so two
//! ends sending to each other both finish). The link table (one
//! transport and one generation per MB) lives under the same lock.
//! Every lock here is a `std::sync::Mutex`; the order lock is recovered
//! from a holder that panicked, the waiter table is not.
//!
//! **Generations.** [`TcpController::reattach_mb`] bumps the MB's
//! generation and starts a receive thread for the new transport. A
//! receive thread handles a frame or a disconnect only while its
//! generation is current, so a replaced connection's late frames and
//! late EOF are no-ops.
//!
//! **What is still polled.** A receive thread gives up its wait every
//! 250 ms (`RECV_POLL`) to notice shutdown or a stale generation, the
//! MB serve loop every 20 ms (`IDLE_POLL`) to notice `stop`. That
//! bounds how long `shutdown` and a replaced connection's thread
//! linger; it is never between a frame and the engine, because a frame
//! ends the wait at once. (The other polling in the picture is the
//! transport's: right after a frame a [`TcpTransport`] receive polls the
//! socket for up to 200 µs before it blocks, so the replies of a
//! lock-step transfer find both ends awake.)
//!
//! The benchmark's `move_tcp_10k` times this embedding (`moveInternal`
//! over loopback sockets); the discrete-event simulator stays the
//! substrate for the paper's figures and the conformance suites. The
//! integration tests and the `tcp_protocol` example drive it too.
//!
//! [`TcpTransport`]: openmb_types::transport::TcpTransport

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmb_mb::{handle_southbound_into, Middlebox, SharedPutLog};
use openmb_obs::{NodeTag, Recorder, SpanEvent};
use openmb_simnet::SimTime;
use openmb_types::transport::Transport;
use openmb_types::wire::{self, Message};
use openmb_types::{Error, HeaderFieldList, MbId, OpId, Result};

use crate::controller::{
    coalesce, lock, Action, Completion, ControllerConfig, ControllerCore, Request,
};

/// How long the MB serve loop's blocked receive waits before looking at
/// `stop`. A frame or a disconnect ends the wait immediately, so this
/// is never latency a frame sees.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// The same for a controller receive thread, which looks at shutdown
/// and its link's generation: the bound on how long `shutdown` and a
/// replaced connection's thread linger. Long on purpose — every timer
/// wake-up of an idle thread lands on some CPU in the middle of another
/// MB's transfer and can pull that transfer's threads apart (measured:
/// see DESIGN §9), so idle links stay quiet.
const RECV_POLL: Duration = Duration::from_millis(250);

/// The engine's maintenance cadence (quiescence deletes, deadlines,
/// resume timers).
const TICK: Duration = Duration::from_millis(25);

/// Serve a middlebox's southbound protocol over `transport` until the
/// peer disconnects or `stop` is raised: [`serve_middlebox_recorded`]
/// with a fresh log and no recorder.
pub fn serve_middlebox<M: Middlebox>(
    mb: &mut M,
    transport: &dyn Transport,
    stop: &AtomicBool,
) -> Result<()> {
    let log = &mut SharedPutLog::new();
    serve_middlebox_recorded(mb, log, transport, stop, &Recorder::disabled(), "")
}

/// The serve loop.
///
/// * `log` is caller-owned so the shared-put dedup/rollback bookkeeping
///   survives a disconnect: pass the same log back in when re-serving
///   the MB after a reconnect and a re-sent shared put is re-acked
///   instead of re-merged.
/// * Replies leave in frames of about [`FRAME_BYTES`] as they are
///   produced ([`Frames`]): a per-flow get's runs go to the controller
///   while the middlebox is still sealing the rest, and whatever is
///   left leaves with the request's last reply (a get's `GetAck`).
/// * With an enabled `rec` every request handled — each inner message
///   of a batched frame, keyed by its own sub-op id — is recorded as a
///   [`SpanEvent::Handled`] under the node name `name`, each frame of
///   several replies as a [`SpanEvent::BatchFlushed`], and each state
///   get as [`SpanEvent::Served`] once its last reply (a per-flow get's
///   `GetAck`) has left, as the simulator's `MbNode` records them: the
///   MB half of an end-to-end op timeline.
///   Timestamps (also the `now` packet replay sees) are nanoseconds
///   since the recorder's epoch, so when the controller shares the same
///   recorder (loopback tests) both sides' events interleave on one
///   clock. With a disabled recorder recording costs one branch and the
///   clock is the loop's own.
///
/// Only a transport error ends the loop (as a disconnect): a reply the
/// codec refuses to frame (over [`wire::MAX_MESSAGE`]) is answered with
/// an `ErrorMsg` for its request instead.
pub fn serve_middlebox_recorded<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    transport: &dyn Transport,
    stop: &AtomicBool,
    rec: &Recorder,
    name: &str,
) -> Result<()> {
    let mut frames = Frames::new(transport, rec, rec.register(name));
    let start = Instant::now();
    while !frames.closed {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let msg = match transport.recv_timeout(IDLE_POLL) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(_) => break, // peer closed
        };
        let now = SimTime(if rec.is_enabled() {
            rec.now_ns()
        } else {
            start.elapsed().as_nanos() as u64
        });
        msg.for_each_unbatched(|m| {
            let (sub, kind) = (m.op_id().map(|o| o.0), m.kind_name());
            rec.record(now.0, frames.tag, None, sub, SpanEvent::Handled { msg: kind });
            let state_get = matches!(
                m,
                Message::GetSupportPerflow { .. }
                    | Message::GetReportPerflow { .. }
                    | Message::GetSupportShared { .. }
                    | Message::GetReportShared { .. }
            );
            handle_southbound_into(mb, log, m, now, &mut |reply| frames.push(reply));
            if state_get {
                frames.served(sub, kind);
            }
        });
        frames.flush();
    }
    Ok(())
}

/// The most encoded reply bytes the MB serve loop holds before it sends
/// them as one frame. Large enough that a frame costs the controller
/// one engine call per dozen or so runs, small enough that the
/// controller and the destination start on a get's first runs while
/// the source seals the rest (EXPERIMENTS.md, "A get streams over
/// TCP"). A frame is also far below [`wire::MAX_MESSAGE`], so a get of
/// any size can be sent.
const FRAME_BYTES: usize = 32 << 10;

/// The serve loop's outgoing side: replies collect until they reach
/// [`FRAME_BYTES`] and leave as one frame (a `Batch` of several, or the
/// reply alone).
struct Frames<'a> {
    transport: &'a dyn Transport,
    rec: &'a Recorder,
    tag: NodeTag,
    pending: Vec<Message>,
    /// Encoded size of `pending`, each reply with its length prefix.
    bytes: usize,
    /// The state gets whose last reply is in `pending`: `Served` once
    /// it has left.
    served: Vec<(Option<u64>, &'static str)>,
    /// A send failed: the peer is gone.
    closed: bool,
}

impl<'a> Frames<'a> {
    fn new(transport: &'a dyn Transport, rec: &'a Recorder, tag: NodeTag) -> Self {
        Frames {
            transport,
            rec,
            tag,
            pending: Vec::new(),
            bytes: 0,
            served: Vec::new(),
            closed: false,
        }
    }

    fn push(&mut self, reply: Message) {
        if self.closed {
            return;
        }
        let len = 4 + wire::encoded_len(&reply);
        if len >= FRAME_BYTES {
            // A reply that fills a frame travels alone.
            self.flush();
        }
        self.pending.push(reply);
        self.bytes += len;
        if self.bytes >= FRAME_BYTES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let frame = match self.pending.len() {
            0 => return,
            1 => self.pending.pop().expect("len 1"),
            n => {
                let sub = self.pending[0].op_id().map(|o| o.0);
                let flushed = SpanEvent::BatchFlushed { count: n as u32 };
                self.rec.record(self.rec.now_ns(), self.tag, None, sub, flushed);
                Message::Batch { msgs: std::mem::take(&mut self.pending) }
            }
        };
        self.bytes = 0;
        let op = frame.op_id();
        let sent = match self.transport.send(frame) {
            // Only a lone reply can exceed the codec's limit: its
            // request fails, the connection stays.
            Err(Error::Codec(reason)) => op.map_or(Ok(()), |op| {
                let error = Error::Codec(reason);
                self.transport.send(Message::ErrorMsg { op, error })
            }),
            sent => sent,
        };
        if sent.is_err() {
            // Peer closed between its request and our reply: the same
            // disconnect a failed receive reports, seen one call later.
            self.closed = true;
            self.served.clear();
        }
        let now = self.rec.now_ns();
        for (sub, msg) in self.served.drain(..) {
            self.rec.record(now, self.tag, None, sub, SpanEvent::Served { msg });
        }
    }

    /// State get `sub` (of kind `msg`) has produced its last reply — a
    /// per-flow get's `GetAck`: record `Served` once that has left.
    fn served(&mut self, sub: Option<u64>, msg: &'static str) {
        if self.pending.is_empty() {
            self.rec.record(self.rec.now_ns(), self.tag, None, sub, SpanEvent::Served { msg });
        } else {
            self.served.push((sub, msg));
        }
    }
}

/// A controller serving the northbound API over per-MB transports.
///
/// Event-driven (see the [module docs](self)): after
/// [`start`](TcpController::start), one receive thread per MB
/// connection blocks on its transport and makes the engine call itself
/// the moment a frame is queued; a timer thread ticks. Every engine
/// call, northbound ones included, holds the *order lock* until its
/// frames are sent, so each MB sees the engine's order. A connection
/// replaced by [`reattach_mb`](TcpController::reattach_mb) has a stale
/// *generation* and is ignored. Only idle threads poll (250 ms, to
/// notice that or [`shutdown`](TcpController::shutdown)).
pub struct TcpController {
    inner: Arc<Inner>,
    timer: Option<JoinHandle<()>>,
}

/// Blocked northbound calls by op: `None` until the completion lands.
type Waiters = HashMap<OpId, Option<Completion>>;

const WAITERS_POISONED: &str = "a northbound caller panicked inside the controller core";

/// One MB's connection. A receive thread serves exactly one
/// `(transport, generation)`; replacing the transport bumps the
/// generation, which turns the old thread's late frames and late EOF
/// into no-ops.
struct Link {
    transport: Arc<dyn Transport + Sync>,
    generation: u64,
}

/// What the order lock guards besides the order itself.
#[derive(Default)]
struct Links {
    /// Indexed by `MbId`.
    mbs: Vec<Link>,
    /// Between `start` and `shutdown`: connections have receive threads
    /// and frames reach the engine.
    running: bool,
    /// Every receive thread spawned since `start`, joined by `shutdown`.
    receivers: Vec<JoinHandle<()>>,
}

struct Inner {
    /// The engine. Thread-safe on its own; this embedding additionally
    /// serialises calls into it with the order lock so that the sends
    /// of one call cannot interleave with the next call's.
    core: ControllerCore,
    /// The order lock: held around every engine call *and* the sends
    /// and completion deliveries it produced ([`Inner::drive`]).
    links: Mutex<Links>,
    /// One slot per blocked northbound call, filled by whichever thread
    /// executes the op's completion. Completions for ops with no slot —
    /// chain hop sub-results, MB events, calls that already timed out —
    /// are dropped on delivery, so the table holds live callers only.
    /// Taken inside the order lock, never the other way round.
    waiters: Mutex<Waiters>,
    completed: Condvar,
    start: Instant,
}

impl TcpController {
    /// A controller with the given tunables; call
    /// [`register_mb`](TcpController::register_mb) then
    /// [`start`](TcpController::start).
    pub fn new(config: ControllerConfig) -> Self {
        TcpController {
            inner: Arc::new(Inner {
                core: ControllerCore::new(config),
                links: Mutex::new(Links::default()),
                waiters: Mutex::new(HashMap::new()),
                completed: Condvar::new(),
                start: Instant::now(),
            }),
            timer: None,
        }
    }

    /// Register a middlebox reachable over `transport`. Before
    /// [`start`](TcpController::start) the connection only joins the
    /// table; after it, its receive thread starts at once.
    pub fn register_mb(&self, transport: Arc<dyn Transport + Sync>) -> MbId {
        let mut links = lock(&self.inner.links);
        let id = self.inner.core.register_mb();
        debug_assert_eq!(id.0 as usize, links.mbs.len(), "the link table is indexed by MbId");
        links.mbs.push(Link { transport, generation: 0 });
        self.inner.spawn_receiver(&mut links, id);
        id
    }

    /// The MB reconnected: replace its transport (the old connection,
    /// dead or not, is ignored from here on), clear the unreachable
    /// mark, send any shared-state rollbacks deferred while it was
    /// down, and resume transfers parked on its account (with
    /// `max_transfer_resumes` > 0, a move interrupted mid-transfer picks
    /// up from its last acked chunk instead of starting over).
    pub fn reattach_mb(&self, mb: MbId, transport: Arc<dyn Transport + Sync>) {
        let mut links = lock(&self.inner.links);
        let Some(link) = links.mbs.get_mut(mb.0 as usize) else { return };
        link.transport = transport;
        link.generation += 1;
        self.inner.spawn_receiver(&mut links, mb);
        self.inner.drive(&links, |core, now, out| {
            core.record(now.0, None, None, SpanEvent::TransportReattached);
            core.mark_reachable(mb, now, out);
        });
    }

    /// Install a flight recorder on the hosted core: op lifecycle
    /// events and transport resets/reattaches record into it under the
    /// node name "controller". Timestamps are nanoseconds since the
    /// controller's start instant, so they sort against the MB side's
    /// recorder when both share one recorder over loopback.
    pub fn set_recorder(&self, rec: Recorder) {
        self.inner.core.set_recorder(rec);
    }

    /// The hosted core's flight recorder handle (disabled by default).
    pub fn recorder(&self) -> Recorder {
        self.inner.core.recorder()
    }

    /// The hosted engine, for reading its counters (`open_ops`,
    /// `transfer_ledger_stats`, `op_phase`, ...).
    pub fn engine(&self) -> &ControllerCore {
        &self.inner.core
    }

    /// Start serving: one receive thread per registered MB and the
    /// maintenance timer. No frame reaches the engine before this.
    pub fn start(&mut self) {
        let mut links = lock(&self.inner.links);
        if links.running {
            return;
        }
        links.running = true;
        for i in 0..links.mbs.len() {
            self.inner.spawn_receiver(&mut links, MbId(i as u32));
        }
        let inner = Arc::clone(&self.inner);
        self.timer = Some(std::thread::spawn(move || inner.timer_loop()));
    }

    /// Open the op `req` asks for ([`ControllerCore::submit`]) and block
    /// until its completion (or `timeout`).
    pub fn call(&self, req: Request, timeout: Duration) -> Result<Completion> {
        let inner = &*self.inner;
        // Completions are delivered under the order lock, so holding it
        // from before the op id exists until its slot does means no
        // completion — not even a racing transport reset's abort — can
        // arrive unobserved.
        let op = inner.drive(&lock(&inner.links), |core, now, out| {
            let op = core.submit(req, now, out);
            inner.waiters().insert(op, None);
            op
        });
        let pending = |w: &mut Waiters| matches!(w.get(&op), Some(None));
        let (mut waiters, _) = inner
            .completed
            .wait_timeout_while(inner.waiters(), timeout, pending)
            .expect(WAITERS_POISONED);
        let done = waiters.remove(&op).flatten();
        done.ok_or_else(|| Error::OpFailed(format!("timeout waiting for {op}")))
    }

    /// Close a move/clone/merge transaction now ([`ControllerCore::end_op`]):
    /// the source's quiescence deletes go out without waiting for
    /// `quiesce_after`. Does not block; nothing completes it.
    pub fn end_op(&self, op: OpId) {
        let inner = &*self.inner;
        inner.drive(&lock(&inner.links), |core, now, out| core.end_op(op, now, out));
    }

    /// `moveInternal`: [`TcpController::call`] of a [`Request::Move`],
    /// kept for the benchmark's existing call site.
    pub fn move_internal(
        &self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        timeout: Duration,
    ) -> Result<Completion> {
        self.call(Request::Move { src, dst, key }, timeout)
    }

    /// `stats`: [`TcpController::call`] of a [`Request::Stats`], kept for
    /// the benchmark's existing call site.
    pub fn stats(&self, mb: MbId, key: HeaderFieldList, timeout: Duration) -> Result<Completion> {
        self.call(Request::Stats { mb, key }, timeout)
    }

    /// Stop serving and join every thread this controller spawned;
    /// they drop their transports on the way out. Returns within one
    /// idle poll (250 ms).
    pub fn shutdown(&mut self) {
        let receivers = {
            let mut links = lock(&self.inner.links);
            links.running = false;
            std::mem::take(&mut links.receivers)
        };
        if let Some(timer) = self.timer.take() {
            timer.thread().unpark();
            let _ = timer.join();
        }
        for r in receivers {
            let _ = r.join();
        }
    }
}

impl Drop for TcpController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn waiters(&self) -> MutexGuard<'_, Waiters> {
        self.waiters.lock().expect(WAITERS_POISONED)
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    /// Run one call into the engine, send the frames it asked for, then
    /// hand each completion to the caller blocked on its op, if any —
    /// all under the order lock, which `links` proves the caller holds.
    fn drive<R>(
        &self,
        links: &Links,
        f: impl FnOnce(&ControllerCore, SimTime, &mut Vec<Action>) -> R,
    ) -> R {
        let mut out = Vec::new();
        let ret = f(&self.core, self.now(), &mut out);
        let completions = coalesce(out, |mb, frame, flushed| {
            if let Some((sub, ev)) = flushed {
                self.core.record(self.now().0, None, sub, ev);
            }
            if let Some(link) = links.mbs.get(mb.0 as usize) {
                // A dead peer is reported by its receive thread.
                let _ = link.transport.send(frame);
            }
        });
        if !completions.is_empty() {
            let mut waiters = self.waiters();
            for c in completions {
                if let Some(slot) = c.op().and_then(|op| waiters.get_mut(&op)) {
                    *slot = Some(c);
                }
            }
            drop(waiters);
            self.completed.notify_all();
        }
        ret
    }

    /// Start the receive thread of `mb`'s current connection — once the
    /// controller is running; until then `start` will.
    fn spawn_receiver(self: &Arc<Self>, links: &mut Links, mb: MbId) {
        if !links.running {
            return;
        }
        let link = &links.mbs[mb.0 as usize];
        let (inner, transport, generation) =
            (Arc::clone(self), Arc::clone(&link.transport), link.generation);
        links
            .receivers
            .push(std::thread::spawn(move || inner.receive_loop(mb, generation, &*transport)));
    }

    /// One connection's receive thread: block until the transport has a
    /// frame or reports the peer gone, then make the engine call here —
    /// no hand-off to another thread.
    fn receive_loop(&self, mb: MbId, generation: u64, transport: &(dyn Transport + Sync)) {
        loop {
            let received = transport.recv_timeout(RECV_POLL);
            let links = lock(&self.links);
            if !links.running || links.mbs[mb.0 as usize].generation != generation {
                return;
            }
            match received {
                Ok(Some(msg)) => {
                    self.drive(&links, |core, now, out| core.handle_mb_message(mb, msg, now, out))
                }
                Ok(None) => {}
                Err(_) => {
                    // Connection reset or EOF, after this MB's last
                    // frame: every operation touching it aborts with
                    // MbUnreachable (or parks, given resume budget),
                    // exactly as the sim harness reports link failures.
                    self.drive(&links, |core, now, out| {
                        core.record(now.0, None, None, SpanEvent::TransportReset);
                        core.mark_unreachable(mb, now, out);
                    });
                    return;
                }
            }
        }
    }

    /// The maintenance timer: `tick` every [`TICK`], parked in between;
    /// `shutdown` unparks it.
    fn timer_loop(&self) {
        let mut next = Instant::now() + TICK;
        loop {
            std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
            let links = lock(&self.links);
            if !links.running {
                return;
            }
            let now = Instant::now();
            if now >= next {
                next = now + TICK;
                self.drive(&links, |core, now, out| core.tick(now, out));
            }
        }
    }
}
