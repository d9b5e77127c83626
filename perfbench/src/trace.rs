//! Per-layer timers installed from outside the program.
//!
//! Every wrapper sits on one of the layers' public traits
//! ([`Node`], [`Middlebox`], [`Transport`]) and records into a shared
//! [`Counters`]: calls, items, bytes and busy time. The workloads are
//! generic over [`Tracing`]; with [`Plain`] every constructor is the
//! identity, so the untraced build path contains no wrapper at all.
//!
//! A 64-byte packet crosses about a dozen node callbacks, and one
//! `Instant::now` pair costs ~90 ns here, so the per-packet wrappers
//! count every call but read the clock on every [`SAMPLE_EVERY`]th one
//! and scale. Calls that handle a whole state transfer or a whole wire
//! message are timed every time.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use openmb_mb::{CostModel, Effects, Middlebox, SharedSnapshot};
use openmb_simnet::{Ctx, Frame, Node, SimTime};
use openmb_types::transport::Transport;
use openmb_types::wire::{self, EventFilter, Message};
use openmb_types::{
    ConfigValue, EncryptedChunk, HeaderFieldList, HierarchicalKey, NodeId, OpId, Packet, Result,
    StateChunk, StateStats,
};

/// Per-packet wrappers read the clock on one call in this many. Prime,
/// so the sampled calls walk through every position of the 32-packet
/// trains and 4-packet same-flow runs instead of locking onto one.
pub const SAMPLE_EVERY: u64 = 7;

/// Nanoseconds since the first timestamp the process took.
fn since_epoch(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.duration_since(*EPOCH.get_or_init(|| t)).as_nanos() as u64
}

/// One layer boundary's accumulators, in two strata: calls that are
/// all alike (one packet, one batch) are sampled, while a call that may
/// carry a whole state transfer is always timed: one 10 ms `get`
/// scaled by the sampling period would swamp the estimate. All
/// `Relaxed`: they are statistics and publish no other data.
pub struct Counters {
    pub name: String,
    pub parent: &'static str,
    every: u64,
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
    exact_calls: AtomicU64,
    exact_ns: AtomicU64,
    items: AtomicU64,
    bytes: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

/// A call in progress: not timed, timed as a sample, or timed exactly.
pub enum Clock {
    Skip,
    Sample(Instant),
    Exact(Instant),
}

/// What one [`Counters`] held when it was drained: the aggregated span
/// of one layer over one op.
#[derive(Debug, Clone, Default)]
pub struct Span {
    pub name: String,
    pub parent: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub items: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl Span {
    /// A span the caller timed itself: one call of `secs` from `t0`.
    /// The whole-op span, the root the layer spans hang from, is one.
    pub fn timed(
        name: &str,
        parent: &'static str,
        op: u64,
        t0: Instant,
        secs: f64,
        items: u64,
    ) -> Span {
        let busy_ns = (secs * 1e9) as u64;
        let start_ns = since_epoch(t0);
        Span {
            name: name.to_owned(),
            parent,
            op,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls: 1,
            items,
            bytes: 0,
            busy_ns,
        }
    }

    /// A plain count observed at a layer boundary during op `op`.
    pub fn count(name: &str, parent: &'static str, op: u64, items: u64) -> Span {
        Span { name: name.to_owned(), parent, op, items, ..Span::default() }
    }
}

impl Counters {
    /// `every` is the sampling period of [`begin`](Counters::begin).
    pub fn new(name: impl Into<String>, parent: &'static str, every: u64) -> Arc<Self> {
        let zero = || AtomicU64::new(0);
        Arc::new(Counters {
            name: name.into(),
            parent,
            every,
            calls: zero(),
            sampled: zero(),
            sampled_ns: zero(),
            exact_calls: zero(),
            exact_ns: zero(),
            items: zero(),
            bytes: zero(),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: zero(),
        })
    }

    /// Count a per-packet call; one in `every` is timed.
    #[inline]
    pub fn begin(&self) -> Clock {
        if self.calls.fetch_add(1, Relaxed).is_multiple_of(self.every) {
            Clock::Sample(Instant::now())
        } else {
            Clock::Skip
        }
    }

    /// Count and time a call that may be arbitrarily long.
    pub fn begin_exact(&self) -> Clock {
        self.exact_calls.fetch_add(1, Relaxed);
        Clock::Exact(Instant::now())
    }

    #[inline]
    pub fn end(&self, clock: Clock, items: u64, bytes: u64) {
        self.items.fetch_add(items, Relaxed);
        if bytes != 0 {
            self.bytes.fetch_add(bytes, Relaxed);
        }
        let (t0, ns) = match clock {
            Clock::Skip => return,
            Clock::Sample(t0) => {
                self.sampled.fetch_add(1, Relaxed);
                (t0, &self.sampled_ns)
            }
            Clock::Exact(t0) => (t0, &self.exact_ns),
        };
        let t1 = Instant::now();
        ns.fetch_add(t1.duration_since(t0).as_nanos() as u64, Relaxed);
        self.first_ns.fetch_min(since_epoch(t0), Relaxed);
        self.last_ns.fetch_max(since_epoch(t1), Relaxed);
    }

    /// Drain into the span of op `op`, leaving the counters at zero.
    pub fn take(&self, op: u64) -> Span {
        let calls = self.calls.swap(0, Relaxed);
        let sampled = self.sampled.swap(0, Relaxed);
        let sampled_ns = self.sampled_ns.swap(0, Relaxed);
        let scaled = if sampled == 0 {
            0
        } else {
            (sampled_ns as u128 * calls as u128 / sampled as u128) as u64
        };
        let first = self.first_ns.swap(u64::MAX, Relaxed);
        Span {
            name: self.name.clone(),
            parent: self.parent,
            op,
            start_ns: if first == u64::MAX { 0 } else { first },
            end_ns: self.last_ns.swap(0, Relaxed),
            calls: calls + self.exact_calls.swap(0, Relaxed),
            items: self.items.swap(0, Relaxed),
            bytes: self.bytes.swap(0, Relaxed),
            busy_ns: scaled + self.exact_ns.swap(0, Relaxed),
        }
    }
}

/// The counters of one wrapped middlebox, split by what the call does.
#[derive(Clone)]
pub struct MbCounters {
    pub process: Arc<Counters>,
    pub replay: Arc<Counters>,
    pub get: Arc<Counters>,
    pub put: Arc<Counters>,
    pub del: Arc<Counters>,
}

impl MbCounters {
    /// `layer` is e.g. `middleboxes.ips_a`; `parent` the span the calls
    /// run under (the hosting node or serve loop).
    pub fn new(layer: &str, parent: &'static str) -> Self {
        let c = |what: &str| Counters::new(format!("{layer}.{what}"), parent, SAMPLE_EVERY);
        MbCounters {
            process: c("process"),
            replay: c("replay"),
            get: c("get"),
            put: c("put"),
            del: c("del"),
        }
    }

    /// Live packets are sampled; replays are few, so each is timed.
    fn packet_clock(&self, fx: &Effects) -> (&Counters, Clock) {
        if fx.is_replay() {
            (&self.replay, self.replay.begin_exact())
        } else {
            (&self.process, self.process.begin())
        }
    }

    pub fn all(&self) -> [&Arc<Counters>; 5] {
        [&self.process, &self.replay, &self.get, &self.put, &self.del]
    }
}

/// The counters of one wrapped transport endpoint, which can also keep
/// a copy of every message it sends, for the codec microbenchmarks.
pub struct LinkCounters {
    pub send: Arc<Counters>,
    pub recv: Arc<Counters>,
    capture: Mutex<Option<Vec<Message>>>,
}

impl LinkCounters {
    pub fn new(endpoint: &str) -> Arc<Self> {
        Arc::new(LinkCounters {
            send: Counters::new(format!("types.transport.{endpoint}.send"), "op", 1),
            recv: Counters::new(format!("types.transport.{endpoint}.recv"), "op", 1),
            capture: Mutex::new(None),
        })
    }

    /// Start or stop keeping copies of sent messages; returns what was
    /// captured so far.
    pub fn capture(&self, on: bool) -> Vec<Message> {
        let mut slot = self.capture.lock().expect("capture lock is never held across a panic");
        std::mem::replace(&mut *slot, on.then(Vec::new)).unwrap_or_default()
    }
}

/// Reach the wrapped value, whether or not a wrapper is present.
pub trait Peel<T> {
    fn peel(&self) -> &T;
    fn peel_mut(&mut self) -> &mut T;
}

impl<T> Peel<T> for T {
    fn peel(&self) -> &T {
        self
    }
    fn peel_mut(&mut self) -> &mut T {
        self
    }
}

/// How a workload wraps the layers it builds: [`Plain`] not at all,
/// [`Traced`] with the timers of this module.
pub trait Tracing: 'static {
    const ON: bool;
    type Node<N: Node + 'static>: Node + Peel<N> + 'static;
    type Mb<M: Middlebox + Send + 'static>: Middlebox + Peel<M> + Send + 'static;
    type Link<L: Transport + Sync + 'static>: Transport + Sync + 'static;
    fn node<N: Node + 'static>(n: N, c: &Arc<Counters>) -> Self::Node<N>;
    fn mb<M: Middlebox + Send + 'static>(m: M, c: &MbCounters) -> Self::Mb<M>;
    fn link<L: Transport + Sync + 'static>(l: L, c: &Arc<LinkCounters>) -> Self::Link<L>;
}

/// End-to-end runs: no wrapper anywhere.
pub struct Plain;

impl Tracing for Plain {
    const ON: bool = false;
    type Node<N: Node + 'static> = N;
    type Mb<M: Middlebox + Send + 'static> = M;
    type Link<L: Transport + Sync + 'static> = L;
    fn node<N: Node + 'static>(n: N, _: &Arc<Counters>) -> N {
        n
    }
    fn mb<M: Middlebox + Send + 'static>(m: M, _: &MbCounters) -> M {
        m
    }
    fn link<L: Transport + Sync + 'static>(l: L, _: &Arc<LinkCounters>) -> L {
        l
    }
}

/// Traced runs: every layer boundary timed.
pub struct Traced;

impl Tracing for Traced {
    const ON: bool = true;
    type Node<N: Node + 'static> = TimedNode<N>;
    type Mb<M: Middlebox + Send + 'static> = TimedMb<M>;
    type Link<L: Transport + Sync + 'static> = TimedLink<L>;
    fn node<N: Node + 'static>(n: N, c: &Arc<Counters>) -> TimedNode<N> {
        TimedNode { inner: n, c: Arc::clone(c) }
    }
    fn mb<M: Middlebox + Send + 'static>(m: M, c: &MbCounters) -> TimedMb<M> {
        TimedMb { inner: m, c: c.clone() }
    }
    fn link<L: Transport + Sync + 'static>(l: L, c: &Arc<LinkCounters>) -> TimedLink<L> {
        TimedLink { inner: l, c: Arc::clone(c) }
    }
}

/// A simulator node with its callbacks timed.
pub struct TimedNode<N> {
    inner: N,
    c: Arc<Counters>,
}

impl<N> Peel<N> for TimedNode<N> {
    fn peel(&self) -> &N {
        &self.inner
    }
    fn peel_mut(&mut self) -> &mut N {
        &mut self.inner
    }
}

impl<N: Node + 'static> Node for TimedNode<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
        // A control frame can carry a whole get or a thousand chunks.
        let clock = match frame {
            Frame::Data(_) => self.c.begin(),
            Frame::Control(_) | Frame::Sdn(_) => self.c.begin_exact(),
        };
        self.inner.on_frame(ctx, from, frame);
        self.c.end(clock, 1, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let t0 = self.c.begin();
        self.inner.on_timer(ctx, token);
        self.c.end(t0, 0, 0);
    }
    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_crash(ctx);
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_restart(ctx);
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A middlebox with its southbound and packet calls timed.
pub struct TimedMb<M> {
    inner: M,
    c: MbCounters,
}

impl<M> Peel<M> for TimedMb<M> {
    fn peel(&self) -> &M {
        &self.inner
    }
    fn peel_mut(&mut self) -> &mut M {
        &mut self.inner
    }
}

impl<M: Middlebox> TimedMb<M> {
    fn timed_get(
        &mut self,
        f: impl FnOnce(&mut M) -> Result<Vec<StateChunk>>,
    ) -> Result<Vec<StateChunk>> {
        let t0 = self.c.get.begin_exact();
        let r = f(&mut self.inner);
        let (n, bytes) = match &r {
            Ok(chunks) => (chunks.len(), chunks.iter().map(|c| c.data.len()).sum()),
            Err(_) => (0, 0),
        };
        self.c.get.end(t0, n as u64, bytes as u64);
        r
    }

    fn timed_put(
        &mut self,
        chunk: StateChunk,
        f: impl FnOnce(&mut M, StateChunk) -> Result<()>,
    ) -> Result<()> {
        let bytes = chunk.data.len() as u64;
        let t0 = self.c.put.begin_exact();
        let r = f(&mut self.inner, chunk);
        self.c.put.end(t0, 1, bytes);
        r
    }

    fn timed_del(&mut self, f: impl FnOnce(&mut M) -> Result<usize>) -> Result<usize> {
        let t0 = self.c.del.begin_exact();
        let r = f(&mut self.inner);
        self.c.del.end(t0, *r.as_ref().unwrap_or(&0) as u64, 0);
        r
    }
}

impl<M: Middlebox> Middlebox for TimedMb<M> {
    fn mb_type(&self) -> &'static str {
        self.inner.mb_type()
    }
    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.inner.get_config(key)
    }
    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        self.inner.set_config(key, values)
    }
    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.inner.del_config(key)
    }
    fn get_support_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        self.timed_get(|m| m.get_support_perflow(op, key))
    }
    fn put_support_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        self.timed_put(chunk, M::put_support_perflow)
    }
    fn del_support_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        self.timed_del(|m| m.del_support_perflow(key))
    }
    fn get_support_shared(&mut self, op: OpId) -> Result<Option<EncryptedChunk>> {
        self.inner.get_support_shared(op)
    }
    fn put_support_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        self.inner.put_support_shared(chunk)
    }
    fn get_report_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        self.timed_get(|m| m.get_report_perflow(op, key))
    }
    fn put_report_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        self.timed_put(chunk, M::put_report_perflow)
    }
    fn del_report_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        self.timed_del(|m| m.del_report_perflow(key))
    }
    fn get_report_shared(&mut self) -> Result<Option<EncryptedChunk>> {
        self.inner.get_report_shared()
    }
    fn put_report_shared(&mut self, chunk: EncryptedChunk) -> Result<()> {
        self.inner.put_report_shared(chunk)
    }
    fn snapshot_shared(&mut self) -> Result<SharedSnapshot> {
        self.inner.snapshot_shared()
    }
    fn restore_shared(&mut self, snap: SharedSnapshot) -> Result<()> {
        self.inner.restore_shared(snap)
    }
    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        self.inner.stats(key)
    }
    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        let (c, t0) = self.c.packet_clock(fx);
        self.inner.process_packet(now, pkt, fx);
        c.end(t0, 1, pkt.payload.len() as u64);
    }
    fn process_batch(&mut self, now: SimTime, pkts: &[Packet], fx: &mut Effects) {
        let (c, t0) = self.c.packet_clock(fx);
        self.inner.process_batch(now, pkts, fx);
        c.end(t0, pkts.len() as u64, pkts.iter().map(|p| p.payload.len() as u64).sum());
    }
    fn finalize(&mut self, now: SimTime, fx: &mut Effects) {
        self.inner.finalize(now, fx);
    }
    fn set_introspection(&mut self, filter: Option<EventFilter>) {
        self.inner.set_introspection(filter);
    }
    fn end_sync(&mut self, op: OpId) {
        self.inner.end_sync(op);
    }
    fn costs(&self) -> CostModel {
        self.inner.costs()
    }
    fn perflow_entries(&self) -> usize {
        self.inner.perflow_entries()
    }
}

/// A transport endpoint with sends and receives timed. A receive is
/// recorded only when it returns a message, so its busy time is the
/// time the caller waited for that message; empty polls are not counted.
pub struct TimedLink<L> {
    inner: L,
    c: Arc<LinkCounters>,
}

impl<L: Transport> TimedLink<L> {
    fn timed_recv(&self, f: impl FnOnce(&L) -> Result<Option<Message>>) -> Result<Option<Message>> {
        let t0 = Instant::now();
        let r = f(&self.inner);
        if let Ok(Some(m)) = &r {
            self.c.recv.exact_calls.fetch_add(1, Relaxed);
            self.c.recv.end(Clock::Exact(t0), msgs_in(m), 0);
        }
        r
    }
}

/// Messages one frame carries (a batch counts its contents).
pub fn msgs_in(m: &Message) -> u64 {
    match m {
        Message::Batch { msgs } => msgs.len() as u64,
        _ => 1,
    }
}

impl<L: Transport> Transport for TimedLink<L> {
    fn send(&self, msg: Message) -> Result<()> {
        let (inner_msgs, bytes) = (msgs_in(&msg), 4 + wire::encoded_len(&msg) as u64);
        if let Some(kept) =
            self.c.capture.lock().expect("capture lock is never held across a panic").as_mut()
        {
            kept.push(msg.clone());
        }
        let t0 = self.c.send.begin_exact();
        let r = self.inner.send(msg);
        self.c.send.end(t0, inner_msgs, bytes);
        r
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        self.timed_recv(|l| l.recv_timeout(timeout))
    }
    fn try_recv(&self) -> Result<Option<Message>> {
        self.timed_recv(L::try_recv)
    }
}

/// Totals over every span with one name: what the per-layer metrics
/// are computed from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub items: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl Total {
    /// `busy / items`; 0 when the layer did no work.
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.busy_ns as f64, self.items as f64)
    }
}

/// All spans of a traced pass, kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Sum of the spans named `layer` or `layer.<anything>`.
    pub fn total(&self, layer: &str) -> Total {
        self.total_where(|name| {
            name.strip_prefix(layer).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
    }

    /// Sum of the spans whose name ends in `.what`, across layers.
    pub fn total_of(&self, what: &str) -> Total {
        self.total_where(|name| name.strip_suffix(what).is_some_and(|rest| rest.ends_with('.')))
    }

    fn total_where(&self, named: impl Fn(&str) -> bool) -> Total {
        let mut t = Total::default();
        for s in self.spans.iter().filter(|s| named(&s.name)) {
            t.calls += s.calls;
            t.items += s.items;
            t.bytes += s.bytes;
            t.busy_ns += s.busy_ns;
        }
        t
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"op\":{},\"start\":{},\"end\":{},\
                 \"calls\":{},\"items\":{},\"bytes\":{},\"busy_ns\":{}}}{sep}\n",
                s.name, s.parent, s.op, s.start_ns, s.end_ns, s.calls, s.items, s.bytes, s.busy_ns
            ));
        }
        out.push(']');
        out
    }
}

/// `a / b`, or 0 when there was nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
