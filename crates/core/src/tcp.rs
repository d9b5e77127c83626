//! The OpenMB protocol over real TCP.
//!
//! The paper's prototype connects middleboxes to the controller over
//! sockets (§7: "The controller listens for connections from MBs and,
//! for each MB, launches one thread for handling state operations and
//! one thread for handling events"). This module provides the same
//! deployment shape on `std::net` TCP with the binary wire codec:
//!
//! * [`serve_middlebox`] — serves any [`Middlebox`]'s southbound
//!   protocol over a [`Transport`] (one thread per MB, like the paper).
//! * [`TcpController`] — hosts the one controller engine
//!   ([`ControllerCore`], thread-safe behind per-shard locks), pumps
//!   all MB transports into it, and exposes *blocking* northbound calls
//!   ([`TcpController::move_internal`], [`TcpController::chain_move`],
//!   ...) that wait for the matching completion. Callers on different
//!   threads each get their own completion: every blocking call parks
//!   on a per-op slot, not on a shared queue.
//!
//! Nothing here re-implements controller logic: admission, deferral
//! release, chain transactions and batch unpacking are the engine's;
//! this file owns sockets, the pump thread, and the waiter table.
//!
//! The discrete-event simulator remains the measurement substrate; this
//! embedding exists to demonstrate the protocol and controller logic are
//! genuinely transport-independent (and is exercised by integration
//! tests and the `tcp_protocol` example over loopback).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use openmb_mb::{Middlebox, SharedPutLog};
use openmb_obs::{Recorder, SpanEvent};
use openmb_simnet::SimTime;
use openmb_types::transport::Transport;
use openmb_types::wire::{EventFilter, Message};
use openmb_types::{ConfigValue, Error, HeaderFieldList, HierarchicalKey, MbId, OpId, Result};

use crate::chain::ChainSpec;
use crate::controller::{coalesce, Action, Completion, ControllerConfig, ControllerCore};

/// Serve a middlebox's southbound protocol over `transport` until the
/// peer disconnects or `stop` is raised.
pub fn serve_middlebox<M: Middlebox>(
    mb: &mut M,
    transport: &dyn Transport,
    stop: &AtomicBool,
) -> Result<()> {
    let mut log = SharedPutLog::new();
    serve_middlebox_logged(mb, &mut log, transport, stop)
}

/// [`serve_middlebox`] with a caller-owned [`SharedPutLog`], so the
/// dedup/rollback bookkeeping survives a disconnect: pass the same log
/// back in when re-serving the MB after a reconnect and a re-sent
/// shared put is re-acked instead of re-merged.
pub fn serve_middlebox_logged<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    transport: &dyn Transport,
    stop: &AtomicBool,
) -> Result<()> {
    serve_middlebox_recorded(mb, log, transport, stop, &Recorder::disabled(), "")
}

/// The serve loop. With an enabled `rec` every request handled is
/// recorded as a [`SpanEvent::Handled`] under the node name `name` —
/// the MB half of an end-to-end op timeline — and timestamps (also the
/// `now` packet replay sees) are nanoseconds since the recorder's
/// epoch, so when the controller shares the same recorder (loopback
/// tests) both sides' events interleave on one clock. With a disabled
/// recorder recording costs one branch and the clock is the loop's own.
pub fn serve_middlebox_recorded<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    transport: &dyn Transport,
    stop: &AtomicBool,
    rec: &Recorder,
    name: &str,
) -> Result<()> {
    let tag = rec.register(name);
    let start = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let msg = match transport.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            Err(_) => return Ok(()), // peer closed
        };
        let now = SimTime(if rec.is_enabled() {
            rec.now_ns()
        } else {
            start.elapsed().as_nanos() as u64
        });
        let mut replies = handle_southbound_recorded(mb, log, msg, now, rec, tag);
        // A request with several replies (a get streaming chunks, a
        // batched request) answers with one coalesced frame.
        match replies.len() {
            0 => {}
            1 => transport.send(replies.pop().expect("len 1"))?,
            n => {
                rec.record(
                    now.0,
                    tag,
                    None,
                    replies[0].op_id().map(|o| o.0),
                    SpanEvent::BatchFlushed { count: n as u32 },
                );
                transport.send(Message::Batch { msgs: replies })?;
            }
        }
    }
}

/// Southbound dispatch, re-exported from [`openmb_mb::southbound`]
/// where it now lives (next to the [`Middlebox`] trait it drives).
pub use openmb_mb::southbound::{
    handle_southbound, handle_southbound_logged, handle_southbound_recorded,
};

/// A controller serving the northbound API over per-MB transports.
pub struct TcpController {
    inner: Arc<Inner>,
    pump: Option<std::thread::JoinHandle<()>>,
}

/// Blocked northbound calls by op: `None` until the completion lands.
type Waiters = HashMap<OpId, Option<Completion>>;

const WAITERS_POISONED: &str = "a northbound caller panicked inside the controller core";

struct Inner {
    /// The engine: the pump thread and blocking northbound callers
    /// contend only when they touch the same shard.
    core: ControllerCore,
    transports: Mutex<Vec<Arc<dyn Transport + Sync>>>,
    /// Per-MB "connection lost" flags, parallel to `transports`. Set by
    /// the pump loop on a reset/EOF; cleared by
    /// [`TcpController::reattach_mb`] when a fresh transport replaces
    /// the dead one.
    dead: Mutex<Vec<bool>>,
    /// One slot per blocked northbound call, filled by whichever thread
    /// executes the op's completion. Completions for ops with no slot —
    /// chain hop sub-results, MB events, calls that already timed out —
    /// are dropped on delivery, so the table holds live callers only.
    waiters: std::sync::Mutex<Waiters>,
    completed: Condvar,
    stop: AtomicBool,
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
                transports: Mutex::new(Vec::new()),
                dead: Mutex::new(Vec::new()),
                waiters: std::sync::Mutex::new(HashMap::new()),
                completed: Condvar::new(),
                stop: AtomicBool::new(false),
                start: Instant::now(),
            }),
            pump: None,
        }
    }

    /// Register a middlebox reachable over `transport`.
    pub fn register_mb(&self, transport: Arc<dyn Transport + Sync>) -> MbId {
        let id = self.inner.core.register_mb();
        self.inner.transports.lock().push(transport);
        self.inner.dead.lock().push(false);
        id
    }

    /// The MB reconnected: replace its dead transport, clear the
    /// unreachable mark, send any shared-state rollbacks deferred while
    /// it was down, and resume transfers parked on its account (with
    /// `max_transfer_resumes` > 0, a move interrupted mid-transfer picks
    /// up from its last acked chunk instead of starting over).
    pub fn reattach_mb(&self, mb: MbId, transport: Arc<dyn Transport + Sync>) {
        let idx = mb.0 as usize;
        {
            let mut transports = self.inner.transports.lock();
            if idx >= transports.len() {
                return;
            }
            transports[idx] = transport;
        }
        {
            let mut dead = self.inner.dead.lock();
            if idx < dead.len() {
                dead[idx] = false;
            }
        }
        self.inner.drive(|core, now, out| {
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

    /// Start the pump thread (poll transports, drive the core).
    pub fn start(&mut self) {
        let inner = Arc::clone(&self.inner);
        self.pump = Some(std::thread::spawn(move || inner.pump_loop()));
    }

    /// Issue one northbound operation and block until its completion
    /// (or `timeout`).
    fn call(
        &self,
        timeout: Duration,
        issue: impl FnOnce(&ControllerCore, SimTime, &mut Vec<Action>) -> OpId,
    ) -> Result<Completion> {
        let inner = &*self.inner;
        let mut out = Vec::new();
        let op = {
            // Deliveries take this lock, so holding it from before the
            // op id exists until its slot does means no completion —
            // not even a racing transport reset's abort — can arrive
            // unobserved.
            let mut waiters = inner.waiters();
            let op = issue(&inner.core, inner.now(), &mut out);
            waiters.insert(op, None);
            op
        };
        inner.execute(out);
        let pending = |w: &mut Waiters| matches!(w.get(&op), Some(None));
        let (mut waiters, _) = inner
            .completed
            .wait_timeout_while(inner.waiters(), timeout, pending)
            .expect(WAITERS_POISONED);
        let done = waiters.remove(&op).flatten();
        done.ok_or_else(|| Error::OpFailed(format!("timeout waiting for {op}")))
    }

    /// Blocking `moveInternal`: returns once every put is ACKed.
    pub fn move_internal(
        &self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        timeout: Duration,
    ) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.move_internal(src, dst, key, now, out))
    }

    /// Blocking `cloneSupport`.
    pub fn clone_support(&self, src: MbId, dst: MbId, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.clone_support(src, dst, now, out))
    }

    /// Blocking `mergeInternal`.
    pub fn merge_internal(&self, src: MbId, dst: MbId, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.merge_internal(src, dst, now, out))
    }

    /// Blocking chain-wide atomic move: returns
    /// [`Completion::ChainComplete`] once every hop committed, or
    /// [`Completion::Failed`] once every completed hop is rolled back.
    pub fn chain_move(&self, spec: ChainSpec, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.chain_move(spec, now, out))
    }

    /// Blocking `readConfig`.
    pub fn read_config(&self, src: MbId, key: &str, timeout: Duration) -> Result<Completion> {
        let key = HierarchicalKey::parse(key);
        self.call(timeout, |core, now, out| core.read_config(src, key, now, out))
    }

    /// Blocking `writeConfig`.
    pub fn write_config(
        &self,
        dst: MbId,
        key: &str,
        values: Vec<ConfigValue>,
        timeout: Duration,
    ) -> Result<Completion> {
        let key = HierarchicalKey::parse(key);
        self.call(timeout, |core, now, out| core.write_config(dst, key, values, now, out))
    }

    /// Blocking `delConfig`.
    pub fn del_config(&self, dst: MbId, key: &str, timeout: Duration) -> Result<Completion> {
        let key = HierarchicalKey::parse(key);
        self.call(timeout, |core, now, out| core.del_config(dst, key, now, out))
    }

    /// Blocking `stats`.
    pub fn stats(&self, src: MbId, key: HeaderFieldList, timeout: Duration) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.stats(src, key, now, out))
    }

    /// Blocking `enableEvents`: returns once the MB acknowledged the
    /// subscription.
    pub fn enable_events(
        &self,
        mb: MbId,
        filter: EventFilter,
        timeout: Duration,
    ) -> Result<Completion> {
        self.call(timeout, |core, now, out| core.enable_events(mb, filter, now, out))
    }

    /// Stop the pump thread.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpController {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    fn waiters(&self) -> std::sync::MutexGuard<'_, Waiters> {
        self.waiters.lock().expect(WAITERS_POISONED)
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_nanos() as u64)
    }

    /// Run one call into the core and execute what it asks for.
    fn drive(&self, f: impl FnOnce(&ControllerCore, SimTime, &mut Vec<Action>)) {
        let mut out = Vec::new();
        f(&self.core, self.now(), &mut out);
        self.execute(out);
    }

    /// Send one core call's frames, then hand each completion to the
    /// caller blocked on its op, if any.
    fn execute(&self, actions: Vec<Action>) {
        let completions = coalesce(actions, |mb, frame, flushed| {
            if let Some((sub, ev)) = flushed {
                self.core.record(self.now().0, None, sub, ev);
            }
            let transport = self.transports.lock().get(mb.0 as usize).cloned();
            if let Some(t) = transport {
                let _ = t.send(frame);
            }
        });
        if completions.is_empty() {
            return;
        }
        let mut waiters = self.waiters();
        for c in completions {
            if let Some(slot) = c.op().and_then(|op| waiters.get_mut(&op)) {
                *slot = Some(c);
            }
        }
        self.completed.notify_all();
    }

    fn pump_loop(&self) {
        let mut last_tick = Instant::now();
        // Transports whose peer has reset or closed are marked
        // unreachable once and then skipped until `reattach_mb` swaps in
        // a fresh transport and clears the flag.
        while !self.stop.load(Ordering::Relaxed) {
            let mut idle = true;
            let n = self.transports.lock().len();
            {
                let mut dead = self.dead.lock();
                if dead.len() < n {
                    dead.resize(n, false);
                }
            }
            for i in 0..n {
                if self.dead.lock()[i] {
                    continue;
                }
                let t = Arc::clone(&self.transports.lock()[i]);
                let mb = MbId(i as u32);
                loop {
                    match t.try_recv() {
                        Ok(Some(msg)) => {
                            idle = false;
                            self.drive(|core, now, out| core.handle_mb_message(mb, msg, now, out));
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Connection reset or EOF: every operation
                            // touching this MB aborts with MbUnreachable
                            // (or parks, given resume budget), exactly as
                            // the sim harness reports link failures.
                            self.dead.lock()[i] = true;
                            self.drive(|core, now, out| {
                                core.record(now.0, None, None, SpanEvent::TransportReset);
                                core.mark_unreachable(mb, now, out);
                            });
                            break;
                        }
                    }
                }
            }
            if last_tick.elapsed() > Duration::from_millis(25) {
                last_tick = Instant::now();
                self.drive(|core, now, out| core.tick(now, out));
            }
            if idle {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}
