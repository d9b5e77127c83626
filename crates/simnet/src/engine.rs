//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a set of [`Node`]s connected by [`Link`]s. Everything
//! that happens — packet arrivals, controller↔MB protocol messages, timer
//! expirations — is a scheduled event processed in strict virtual-time
//! order (ties broken by schedule order), making runs bit-for-bit
//! reproducible.
//!
//! Nodes exchange [`Frame`]s: data-plane packets or control-plane
//! protocol messages. Links model propagation latency plus
//! store-and-forward transmission time, and can be *suspended* (frames
//! queue at the head of the link) to model the traffic-halting baselines
//! of §8.1.2 (Split/Merge).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use openmb_obs::{NodeTag, Recorder, SpanEvent};
use openmb_types::{wire, NodeId, Packet};

use crate::fault::{FaultAction, FaultPlan, FaultRecord, FaultRule, RuleRng};
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};

/// What travels over links.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A data-plane packet.
    Data(Packet),
    /// An OpenMB control-plane message (controller ↔ MB). Boxed: every
    /// pending event carries a `Frame`, so its size is what the event
    /// queue moves per packet, and the largest control message — a
    /// `ChunkBody` with a run's further records — would set it.
    Control(Box<wire::Message>),
    /// An SDN control-plane message (controller ↔ switch).
    Sdn(openmb_types::sdn::SdnMessage),
}

impl Frame {
    /// A control-plane frame carrying `msg`.
    pub fn control(msg: wire::Message) -> Self {
        Frame::Control(Box::new(msg))
    }

    /// Modeled wire size, for transmission-time and byte accounting.
    /// O(fields) arithmetic — control messages are *not* serialized to
    /// learn their length (see [`wire::encoded_len`]).
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Data(p) => p.wire_len(),
            // length prefix + encoded body
            Frame::Control(m) => 4 + wire::encoded_len(m),
            Frame::Sdn(m) => m.wire_len(),
        }
    }
}

/// A simulated element: host, switch, middlebox, or controller.
///
/// Implementations are pure state machines; all interaction with the
/// world goes through the [`Ctx`] handed to each callback.
pub trait Node {
    /// Invoked once before the first event is processed.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A frame arrived from a directly connected neighbor.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    /// The node just crashed (fault injection). While down it receives
    /// no frames or timers; use this to discard volatile state.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {}
    /// The node came back up after a crash.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Diagnostic name used in panics and traces.
    fn name(&self) -> String {
        "node".to_owned()
    }
    /// Downcasting support, used by experiments to inspect node state
    /// after a run (e.g. read an IPS's logs).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// One direction of a link.
#[derive(Debug)]
struct Link {
    /// The receiving end.
    to: NodeId,
    latency: SimDuration,
    /// Bits per second; 0 = infinite (no transmission delay).
    bandwidth_bps: u64,
    /// When the link finishes transmitting the frame currently on it.
    busy_until: SimTime,
    /// When true, frames queue here instead of being delivered.
    suspended: bool,
    held: VecDeque<Frame>,
    /// Total bytes ever carried (delivered) — experiment accounting.
    bytes_carried: u64,
    /// The [`EventQueue`] lane this direction's arrivals are queued on.
    lane: u32,
}

#[derive(Debug)]
enum Payload {
    Frame {
        from: NodeId,
        frame: Frame,
    },
    Timer {
        token: u64,
    },
    /// Fault injection: the target goes down at this instant.
    Crash,
    /// Fault injection: the target comes back up.
    Restart,
    /// Fault injection: both directions of the link between the target
    /// and `peer` suspend at this instant (frames held in order).
    PartitionStart {
        peer: NodeId,
    },
    /// Fault injection: the partition heals; held frames are released.
    PartitionEnd {
        peer: NodeId,
    },
}

struct Scheduled {
    time: SimTime,
    seq: u64,
    target: NodeId,
    payload: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// `(time, seq)` of the event at the front of a non-empty lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    time: SimTime,
    seq: u64,
    lane: u32,
}

/// The pending events, popped in `(time, seq)` order.
///
/// Events wait in *lanes* — one per directed link (its arrivals) and one
/// per node (its timers, self-sends, injections and fault events) — and
/// every lane is sorted by construction: an event joins its lane only if
/// its time is not before the lane's tail, and `seq` is handed out in
/// push order, so within a lane `(time, seq)` never decreases and `seq`
/// is never compared. Link arrivals (`busy_until` is monotone, latency
/// constant), constant-delay timers and time-ordered injections all
/// arrive that way. The rare event that is earlier than its lane's tail
/// (a timer shorter than one already pending, a frame sent behind a
/// `Delay`-faulted one) goes to the `fallback` heap instead. Popping is
/// then a merge of sorted sequences: the least of the lane fronts
/// (`heads`, one small key per non-empty lane) and the fallback's top.
/// That is exactly the order one heap over all events would give, and
/// what is sifted per event is a handful of 24-byte keys — not the
/// events, and not in proportion to how many are pending.
struct EventQueue {
    lanes: Vec<VecDeque<Scheduled>>,
    heads: BinaryHeap<Reverse<Head>>,
    fallback: BinaryHeap<Reverse<Scheduled>>,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue { lanes: Vec::new(), heads: BinaryHeap::new(), fallback: BinaryHeap::new() }
    }

    fn add_lane(&mut self) -> u32 {
        self.lanes.push(VecDeque::new());
        (self.lanes.len() - 1) as u32
    }

    fn push(&mut self, lane: u32, ev: Scheduled) {
        let q = &mut self.lanes[lane as usize];
        match q.back() {
            None => {
                self.heads.push(Reverse(Head { time: ev.time, seq: ev.seq, lane }));
                q.push_back(ev);
            }
            Some(tail) if ev.time >= tail.time => q.push_back(ev),
            Some(_) => self.fallback.push(Reverse(ev)),
        }
    }

    /// Pop the next event if its time is at most `until`.
    fn pop_due(&mut self, until: SimTime) -> Option<Scheduled> {
        let head = self.heads.peek().map(|Reverse(h)| (h.time, h.seq));
        let fall = self.fallback.peek().map(|Reverse(f)| (f.time, f.seq));
        let from_fallback = match (head, fall) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(h), Some(f)) => f < h,
        };
        let (time, _) = if from_fallback { fall } else { head }?;
        if time > until {
            return None;
        }
        if from_fallback {
            return self.fallback.pop().map(|Reverse(ev)| ev);
        }
        let mut head = self.heads.peek_mut().expect("peeked above");
        let q = &mut self.lanes[head.0.lane as usize];
        let ev = q.pop_front().expect("a lane with a head is non-empty");
        match q.front() {
            // Dropping the `PeekMut` sifts the lane's new front down.
            Some(next) => (head.0.time, head.0.seq) = (next.time, next.seq),
            None => {
                PeekMut::pop(head);
            }
        }
        Some(ev)
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty() && self.fallback.is_empty()
    }
}

/// The world as seen from inside a [`Node`] callback.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: NodeId,
    world: &'a mut World,
    /// Metrics sink shared by the whole simulation.
    pub metrics: &'a mut Metrics,
    /// Flight recorder shared by the whole simulation (disabled by
    /// default; see [`Sim::set_recorder`]).
    obs: &'a Recorder,
    /// This node's interned name in the recorder.
    obs_tag: NodeTag,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Send a frame to a directly connected neighbor. Panics if no link
    /// exists (a topology bug, not a runtime condition).
    pub fn send(&mut self, to: NodeId, frame: Frame) {
        self.world.send_frame(self.now, self.self_id, to, frame);
    }

    /// Deliver a frame to this node itself after `delay` (used to model
    /// internal queueing/processing stages).
    pub fn send_to_self(&mut self, delay: SimDuration, frame: Frame) {
        let t = self.now.after(delay);
        self.world.schedule(t, self.self_id, Payload::Frame { from: self.self_id, frame });
    }

    /// Fire `on_timer(token)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let t = self.now.after(delay);
        self.world.schedule(t, self.self_id, Payload::Timer { token });
    }

    /// Does a link from this node to `to` exist?
    pub fn has_link(&self, to: NodeId) -> bool {
        self.world.link(self.self_id, to).is_some()
    }

    /// Record a span event attributed to this node at the current
    /// time. A no-op (one branch) unless a recorder is installed.
    #[inline]
    pub fn record(&self, op: Option<u64>, sub: Option<u64>, event: SpanEvent) {
        self.obs.record(self.now.0, self.obs_tag, op, sub, event);
    }

    /// The simulation's shared flight recorder (for nodes that embed a
    /// component wanting its own recorder handle, e.g. the controller
    /// core).
    pub fn recorder(&self) -> &Recorder {
        self.obs
    }
}

/// Installed fault plan plus its runtime state.
struct FaultState {
    /// Each rule paired with its private deterministic RNG stream.
    rules: Vec<(FaultRule, RuleRng)>,
    /// Nodes currently down.
    crashed: HashSet<NodeId>,
    /// Everything injected so far, in virtual-time order.
    log: Vec<FaultRecord>,
}

/// What the fault layer decided about a frame in flight.
enum Verdict {
    Pass,
    Drop,
    Delay(SimDuration),
    Duplicate,
}

struct World {
    queue: EventQueue,
    /// Each node's own lane in `queue`, indexed by `NodeId`.
    node_lanes: Vec<u32>,
    seq: u64,
    /// Each sender's outgoing links, indexed by `NodeId` and sorted by
    /// receiver: a send finds its link by a short binary search, with
    /// no hashing.
    links: Vec<Vec<Link>>,
    fault: Option<FaultState>,
    /// Shared flight recorder; fault injection attributes its span
    /// events to the synthetic "net" node.
    recorder: Recorder,
    net_tag: NodeTag,
}

impl World {
    /// The directed link `from -> to`, if one was added.
    fn link(&self, from: NodeId, to: NodeId) -> Option<&Link> {
        let out = self.links.get(from.0 as usize)?;
        out.binary_search_by_key(&to, |l| l.to).ok().map(|i| &out[i])
    }

    /// The directed link `from -> to`; panics if there is none.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut Link {
        let out = self.links.get_mut(from.0 as usize).map_or(&mut [][..], |v| &mut v[..]);
        match out.binary_search_by_key(&to, |l| l.to) {
            Ok(i) => &mut out[i],
            Err(_) => panic!("no link {from} -> {to}"),
        }
    }

    /// Queue an event on `target`'s own lane.
    fn schedule(&mut self, time: SimTime, target: NodeId, payload: Payload) {
        let lane = self.node_lanes[target.0 as usize];
        self.push(lane, time, target, payload);
    }

    fn push(&mut self, lane: u32, time: SimTime, target: NodeId, payload: Payload) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(lane, Scheduled { time, seq, target, payload });
    }

    /// Run the frame past the fault rules: the first rule whose filter
    /// matches *and* whose probability draw fires decides its fate. A
    /// draw is made on every filter match, fired or not, so a given
    /// rule's stream depends only on the frames it sees. `wire_len` is
    /// the frame's size, computed once by the caller.
    fn apply_faults(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        frame: &Frame,
        wire_len: usize,
    ) -> Verdict {
        let Some(fs) = self.fault.as_mut() else { return Verdict::Pass };
        for (rule, rng) in fs.rules.iter_mut() {
            if rule.from.is_some_and(|f| f != from)
                || rule.to.is_some_and(|t| t != to)
                || (rule.control_only && !matches!(frame, Frame::Control(_)))
                || now < rule.active_from
                || now >= rule.active_until
            {
                continue;
            }
            if rng.next_f64() >= rule.probability {
                continue;
            }
            return match rule.action {
                FaultAction::Drop => {
                    fs.log.push(FaultRecord::Dropped { at: now, from, to, wire_len });
                    Verdict::Drop
                }
                FaultAction::Delay(by) => {
                    fs.log.push(FaultRecord::Delayed { at: now, from, to, by });
                    Verdict::Delay(by)
                }
                FaultAction::Duplicate => {
                    fs.log.push(FaultRecord::Duplicated { at: now, from, to });
                    Verdict::Duplicate
                }
            };
        }
        Verdict::Pass
    }

    /// Suspend or resume the directed link `a -> b`; on resume the held
    /// frames re-enter [`send_frame`] in order (fault rules re-apply to
    /// them — deterministic, since rule streams depend only on the
    /// frames each rule sees). Returns frames released (resume) or
    /// currently held (suspend). Panics if the link does not exist.
    fn set_suspended(&mut self, now: SimTime, a: NodeId, b: NodeId, suspended: bool) -> usize {
        let link = self.link_mut(a, b);
        link.suspended = suspended;
        if suspended {
            link.held.len()
        } else {
            let held: Vec<Frame> = link.held.drain(..).collect();
            let n = held.len();
            for f in held {
                self.send_frame(now, a, b, f);
            }
            n
        }
    }

    /// The op id a frame belongs to, for span attribution of injected
    /// faults (None for data/SDN frames and op-less control messages).
    fn frame_op(frame: &Frame) -> Option<u64> {
        match frame {
            Frame::Control(m) => m.op_id().map(|o| o.0),
            _ => None,
        }
    }

    fn send_frame(&mut self, now: SimTime, from: NodeId, to: NodeId, frame: Frame) {
        // One length computation per scheduled frame: both the fault log
        // and the transmission model reuse it.
        let size = frame.wire_len();
        let verdict = self.apply_faults(now, from, to, &frame, size);
        if self.recorder.is_enabled() {
            let kind = match verdict {
                Verdict::Pass => None,
                Verdict::Drop => Some("drop"),
                Verdict::Delay(_) => Some("delay"),
                Verdict::Duplicate => Some("duplicate"),
            };
            if let Some(kind) = kind {
                self.recorder.record(
                    now.0,
                    self.net_tag,
                    Self::frame_op(&frame),
                    None,
                    SpanEvent::FaultInjected { kind },
                );
            }
        }
        if matches!(verdict, Verdict::Drop) {
            return;
        }
        let link = self.link_mut(from, to);
        if link.suspended {
            link.held.push_back(frame);
            return;
        }
        let tx = SimDuration::transmission(size, link.bandwidth_bps);
        // Store-and-forward with output-queue serialization: transmission
        // begins when the link is free.
        let start = now.max(link.busy_until);
        let done = start.after(tx);
        link.busy_until = done;
        link.bytes_carried += size as u64;
        let arrive = done.after(link.latency);
        let lane = link.lane;
        match verdict {
            Verdict::Delay(by) => {
                self.push(lane, arrive.after(by), to, Payload::Frame { from, frame });
            }
            Verdict::Duplicate => {
                self.push(lane, arrive, to, Payload::Frame { from, frame: frame.clone() });
                self.push(lane, arrive, to, Payload::Frame { from, frame });
            }
            _ => {
                self.push(lane, arrive, to, Payload::Frame { from, frame });
            }
        }
    }
}

/// The simulation: nodes, links, clock, event queue, metrics.
pub struct Sim {
    now: SimTime,
    world: World,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: bool,
    /// Metrics collected during the run.
    pub metrics: Metrics,
    /// Shared flight recorder (disabled unless [`Sim::set_recorder`]
    /// installs an enabled one).
    recorder: Recorder,
    /// Per-node interned names, parallel to `nodes`.
    node_tags: Vec<NodeTag>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// An empty simulation. The flight recorder is off (see
    /// [`Sim::set_recorder`]), so nothing grows per packet or per event.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            world: World {
                queue: EventQueue::new(),
                node_lanes: Vec::new(),
                seq: 0,
                links: Vec::new(),
                fault: None,
                recorder: Recorder::disabled(),
                net_tag: NodeTag::NONE,
            },
            nodes: Vec::new(),
            started: false,
            metrics: Metrics::new(),
            recorder: Recorder::disabled(),
            node_tags: Vec::new(),
        }
    }

    /// Install a flight recorder: every node's span events (and the
    /// fault layer's, attributed to the synthetic "net" node) are
    /// recorded into it. Registers the names of all nodes added so
    /// far; nodes added later register on insertion.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.world.net_tag = rec.register("net");
        self.node_tags = self
            .nodes
            .iter()
            .map(|n| rec.register(&n.as_ref().expect("node is executing").name()))
            .collect();
        self.world.recorder = rec.clone();
        self.recorder = rec;
    }

    /// The simulation's flight recorder handle (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Identical to [`Sim::new`]. Kept only because `perfbench/`
    /// (frozen while a PR touches this crate) calls it by this name; a
    /// benchmark-only follow-up drops it.
    pub fn new_counters_only() -> Self {
        Self::new()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.node_tags.push(self.recorder.register(&node.name()));
        self.nodes.push(Some(node));
        self.world.node_lanes.push(self.world.queue.add_lane());
        id
    }

    /// Add a bidirectional link with symmetric latency/bandwidth.
    /// `bandwidth_bps = 0` means no transmission delay.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration, bandwidth_bps: u64) {
        for (x, y) in [(a, b), (b, a)] {
            let lane = self.world.queue.add_lane();
            let link = Link {
                to: y,
                latency,
                bandwidth_bps,
                busy_until: SimTime::ZERO,
                suspended: false,
                held: VecDeque::new(),
                bytes_carried: 0,
                lane,
            };
            let links = &mut self.world.links;
            if links.len() <= x.0 as usize {
                links.resize_with(x.0 as usize + 1, Vec::new);
            }
            // Adding a link again replaces it.
            let out = &mut links[x.0 as usize];
            match out.binary_search_by_key(&y, |l| l.to) {
                Ok(i) => out[i] = link,
                Err(i) => out.insert(i, link),
            }
        }
    }

    /// Suspend or resume the directed link `a -> b`. While suspended,
    /// frames sent on it are held; on resume they are released in order.
    /// Returns the number of frames released (on resume) or currently
    /// held (on suspend).
    pub fn set_link_suspended(&mut self, a: NodeId, b: NodeId, suspended: bool) -> usize {
        self.world.set_suspended(self.now, a, b, suspended)
    }

    /// Number of frames currently held on the suspended link `a -> b`.
    pub fn link_held(&self, a: NodeId, b: NodeId) -> usize {
        self.world.link(a, b).map(|l| l.held.len()).unwrap_or(0)
    }

    /// Total bytes delivered over the directed link `a -> b` so far.
    pub fn link_bytes(&self, a: NodeId, b: NodeId) -> u64 {
        self.world.link(a, b).map(|l| l.bytes_carried).unwrap_or(0)
    }

    /// Install a [`FaultPlan`]: its message rules take effect for every
    /// frame sent from now on, and its crash/restart events are
    /// scheduled. Replaces any previously installed plan (the fault log
    /// is reset).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let rules = plan
            .rules
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let rng = RuleRng::new(plan.seed, i);
                (r, rng)
            })
            .collect();
        self.world.fault = Some(FaultState { rules, crashed: HashSet::new(), log: Vec::new() });
        for c in plan.crashes {
            assert!(c.at >= self.now, "cannot schedule a crash in the past");
            self.world.schedule(c.at, c.node, Payload::Crash);
            if let Some(r) = c.restart_at {
                assert!(r > c.at, "restart must follow the crash");
                self.world.schedule(r, c.node, Payload::Restart);
            }
        }
        for p in plan.partitions {
            assert!(p.from >= self.now, "cannot schedule a partition in the past");
            assert!(p.until > p.from, "partition must heal after it starts");
            self.world.schedule(p.from, p.a, Payload::PartitionStart { peer: p.b });
            self.world.schedule(p.until, p.a, Payload::PartitionEnd { peer: p.b });
        }
    }

    /// The faults injected so far, in virtual-time order. Empty when no
    /// plan is installed.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.world.fault.as_ref().map(|f| f.log.as_slice()).unwrap_or(&[])
    }

    /// Is `node` currently down due to an injected crash?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.world.fault.as_ref().is_some_and(|f| f.crashed.contains(&node))
    }

    /// Inject a frame arrival at `target` (appearing to come from
    /// `from`) at absolute time `at`. Used by test fixtures and traffic
    /// sources configured before the run starts.
    pub fn inject_frame(&mut self, at: SimTime, from: NodeId, target: NodeId, frame: Frame) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.world.schedule(at, target, Payload::Frame { from, frame });
    }

    /// Inject a back-to-back packet train arriving at `target` at one
    /// instant. Each packet is still its own frame (the wire format is
    /// unchanged); scheduling them with consecutive sequence numbers at
    /// the same time delivers them in order before the receiver's next
    /// service slot, so a batching node (`MbNode::with_batch_max`) sees
    /// the whole train queued and coalesces it into one `process_batch`
    /// call. With batching off this is byte-identical to a loop over
    /// [`inject_frame`](Sim::inject_frame).
    pub fn inject_burst(
        &mut self,
        at: SimTime,
        from: NodeId,
        target: NodeId,
        pkts: impl IntoIterator<Item = openmb_types::Packet>,
    ) {
        assert!(at >= self.now, "cannot schedule in the past");
        for pkt in pkts {
            self.world.schedule(at, target, Payload::Frame { from, frame: Frame::Data(pkt) });
        }
    }

    /// Schedule a timer on `target` at absolute time `at`.
    pub fn inject_timer(&mut self, at: SimTime, target: NodeId, token: u64) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.world.schedule(at, target, Payload::Timer { token });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow a node (e.g. to inspect its state after a run).
    ///
    /// # Panics
    /// Panics if `id` is out of range or the node is currently executing.
    pub fn node(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.0 as usize].as_deref().expect("node is executing")
    }

    /// Mutably borrow a node (e.g. to reconfigure between phases).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Box<dyn Node> {
        self.nodes[id.0 as usize].as_mut().expect("node is executing")
    }

    /// Borrow a node downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is not a `T`.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> &T {
        self.node(id).as_any().downcast_ref::<T>().expect("node type mismatch")
    }

    /// Mutably borrow a node downcast to its concrete type.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.node_mut(id).as_any_mut().downcast_mut::<T>().expect("node type mismatch")
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            let mut node = self.nodes[i].take().expect("node missing at start");
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                world: &mut self.world,
                metrics: &mut self.metrics,
                obs: &self.recorder,
                obs_tag: self.node_tags[i],
            };
            node.on_start(&mut ctx);
            self.nodes[i] = Some(node);
        }
    }

    /// Process events until the queue is empty or `limit` events have
    /// run. Returns the number of events processed.
    pub fn run(&mut self, limit: u64) -> u64 {
        self.run_until(SimTime(u64::MAX), limit)
    }

    /// Process events with `time <= until` (and at most `limit` of
    /// them). The clock is left at the last processed event, except
    /// that when the queue drains before a finite `until` the clock
    /// advances to `until`. Returns events processed.
    pub fn run_until(&mut self, until: SimTime, limit: u64) -> u64 {
        self.start_if_needed();
        let mut processed = 0;
        while processed < limit {
            let Some(ev) = self.world.queue.pop_due(until) else { break };
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            // Partitions act on the link, not the node, so they are
            // handled here — before the target is taken, and regardless
            // of whether either endpoint is crashed.
            match ev.payload {
                Payload::PartitionStart { peer } => {
                    self.world.set_suspended(ev.time, ev.target, peer, true);
                    self.world.set_suspended(ev.time, peer, ev.target, true);
                    if let Some(fs) = self.world.fault.as_mut() {
                        fs.log.push(FaultRecord::Partitioned {
                            at: ev.time,
                            a: ev.target,
                            b: peer,
                        });
                    }
                    processed += 1;
                    continue;
                }
                Payload::PartitionEnd { peer } => {
                    let n = self.world.set_suspended(ev.time, ev.target, peer, false)
                        + self.world.set_suspended(ev.time, peer, ev.target, false);
                    if let Some(fs) = self.world.fault.as_mut() {
                        fs.log.push(FaultRecord::Healed {
                            at: ev.time,
                            a: ev.target,
                            b: peer,
                            released: n,
                        });
                    }
                    processed += 1;
                    continue;
                }
                _ => {}
            }
            // A downed node receives nothing: frames and timers addressed
            // to it while crashed are discarded (and logged).
            if let Some(fs) = self.world.fault.as_mut() {
                if fs.crashed.contains(&ev.target)
                    && matches!(ev.payload, Payload::Frame { .. } | Payload::Timer { .. })
                {
                    fs.log.push(FaultRecord::LostToCrash { at: ev.time, node: ev.target });
                    let op = match &ev.payload {
                        Payload::Frame { frame, .. } => World::frame_op(frame),
                        _ => None,
                    };
                    self.recorder.record(
                        ev.time.0,
                        self.node_tags[ev.target.0 as usize],
                        op,
                        None,
                        SpanEvent::FaultInjected { kind: "lost-to-crash" },
                    );
                    processed += 1;
                    continue;
                }
            }
            let idx = ev.target.0 as usize;
            let Some(mut node) = self.nodes.get_mut(idx).and_then(Option::take) else {
                panic!("event for unknown or executing node {}", ev.target);
            };
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: ev.target,
                    world: &mut self.world,
                    metrics: &mut self.metrics,
                    obs: &self.recorder,
                    obs_tag: self.node_tags[ev.target.0 as usize],
                };
                match ev.payload {
                    Payload::Frame { from, frame } => node.on_frame(&mut ctx, from, frame),
                    Payload::Timer { token } => node.on_timer(&mut ctx, token),
                    Payload::Crash => {
                        ctx.record(None, None, SpanEvent::FaultInjected { kind: "crash" });
                        node.on_crash(&mut ctx);
                        if let Some(fs) = ctx.world.fault.as_mut() {
                            fs.crashed.insert(ev.target);
                            fs.log.push(FaultRecord::Crashed { at: ev.time, node: ev.target });
                        }
                    }
                    Payload::Restart => {
                        ctx.record(None, None, SpanEvent::FaultInjected { kind: "restart" });
                        if let Some(fs) = ctx.world.fault.as_mut() {
                            fs.crashed.remove(&ev.target);
                            fs.log.push(FaultRecord::Restarted { at: ev.time, node: ev.target });
                        }
                        node.on_restart(&mut ctx);
                    }
                    Payload::PartitionStart { .. } | Payload::PartitionEnd { .. } => {
                        unreachable!("partitions are handled before node dispatch")
                    }
                }
            }
            self.nodes[idx] = Some(node);
            processed += 1;
        }
        if self.now < until && until.0 != u64::MAX && self.world.queue.is_empty() {
            self.now = until;
        }
        processed
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.world.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::{FlowKey, OpId};
    use std::net::Ipv4Addr;

    /// Echoes every data frame back to its sender after a fixed delay.
    struct Echo {
        delay: SimDuration,
        seen: Vec<(SimTime, u64)>,
    }

    impl Node for Echo {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
            if let Frame::Data(p) = frame {
                self.seen.push((ctx.now(), p.id));
                let reply = p.clone();
                let d = self.delay;
                ctx.set_timer(d, p.id);
                // Hold the packet implicitly: echo on timer for delay
                // modeling; for the test just send immediately.
                ctx.send(from, Frame::Data(reply));
            }
        }
    }

    /// Counts frames it receives.
    #[derive(Default)]
    struct Sink {
        got: Vec<(SimTime, u64)>,
    }

    impl Node for Sink {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, frame: Frame) {
            if let Frame::Data(p) = frame {
                self.got.push((ctx.now(), p.id));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.got.push((ctx.now(), token));
        }
    }

    fn pkt(id: u64, len: usize) -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 80);
        Packet::new(id, key, vec![0u8; len])
    }

    #[test]
    fn latency_is_applied() {
        let mut sim = Sim::new();
        let a = sim.add_node(Box::new(Sink::default()));
        let b = sim.add_node(Box::new(Sink::default()));
        sim.add_link(a, b, SimDuration::from_millis(3), 0);
        sim.inject_frame(SimTime::ZERO, b, a, Frame::Data(pkt(1, 0)));
        // a receives at t=0 (injected directly), then we make a send to b.
        // Simpler: inject at a delivered frame; verify via send path below.
        sim.run(100);
        // Now drive an actual link traversal: schedule echo.
        let mut sim = Sim::new();
        let e = sim.add_node(Box::new(Echo { delay: SimDuration::ZERO, seen: vec![] }));
        let s = sim.add_node(Box::new(Sink::default()));
        sim.add_link(e, s, SimDuration::from_millis(3), 0);
        // Inject a frame at the echo node; it sends to... its sender, s.
        sim.inject_frame(SimTime::ZERO, s, e, Frame::Data(pkt(7, 0)));
        sim.run(100);
        let sink: &Sink = sim.node_as(s);
        assert_eq!(sink.got.len(), 1);
        assert_eq!(sink.got[0].0, SimTime(3_000_000));
    }

    /// Sends a data packet back to its sender with its id one lower,
    /// until the id reaches zero.
    struct Bounce;

    impl Node for Bounce {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
            if let Frame::Data(mut p) = frame {
                if p.id > 0 {
                    p.id -= 1;
                    ctx.send(from, Frame::Data(p));
                }
            }
        }
    }

    /// A hub with 64 neighbours, the links added in a scrambled order:
    /// each directed link carries, and counts, only its own frames.
    #[test]
    fn a_star_counts_each_directed_link_apart() {
        const LEAVES: u32 = 64;
        let mut sim = Sim::new();
        let hub = sim.add_node(Box::new(Bounce));
        let leaves: Vec<NodeId> = (0..LEAVES).map(|_| sim.add_node(Box::new(Bounce))).collect();
        for i in 0..LEAVES {
            let leaf = leaves[(i * 37 % LEAVES) as usize];
            sim.add_link(hub, leaf, SimDuration::from_micros(1), 1_000_000_000);
        }
        // Leaf i's packets: i % 3 + 1 of them, `i` payload bytes each;
        // each goes hub -> leaf, then leaf -> hub.
        let frame = |i: u32| Frame::Data(pkt(2, i as usize));
        for (i, &leaf) in leaves.iter().enumerate() {
            for _ in 0..=i % 3 {
                sim.inject_frame(SimTime::ZERO, leaf, hub, frame(i as u32));
            }
        }
        sim.run(10_000);
        for (i, &leaf) in leaves.iter().enumerate() {
            let want = (i % 3 + 1) as u64 * frame(i as u32).wire_len() as u64;
            assert_eq!(sim.link_bytes(hub, leaf), want, "hub -> leaf {i}");
            assert_eq!(sim.link_bytes(leaf, hub), want, "leaf {i} -> hub");
            assert!(sim.world.link(hub, leaf).is_some() && sim.world.link(leaf, hub).is_some());
            assert_eq!(sim.link_bytes(leaf, leaves[(i + 1) % leaves.len()]), 0, "no such link");
        }
        assert_eq!(sim.link_bytes(hub, hub), 0);
    }

    #[test]
    fn bandwidth_serializes_frames() {
        // Two 1000-byte payload packets over 8 Mbps: (1040*8)/8e6 s =
        // 1.04 ms each; second must wait for the first.
        let mut sim = Sim::new();
        let e = sim.add_node(Box::new(Echo { delay: SimDuration::ZERO, seen: vec![] }));
        let s = sim.add_node(Box::new(Sink::default()));
        sim.add_link(e, s, SimDuration::ZERO, 8_000_000);
        sim.inject_frame(SimTime::ZERO, s, e, Frame::Data(pkt(1, 1000)));
        sim.inject_frame(SimTime::ZERO, s, e, Frame::Data(pkt(2, 1000)));
        sim.run(100);
        let sink: &Sink = sim.node_as(s);
        assert_eq!(sink.got.len(), 2);
        assert_eq!(sink.got[0].0, SimTime(1_040_000));
        assert_eq!(sink.got[1].0, SimTime(2_080_000));
    }

    #[test]
    fn events_process_in_time_order_with_fifo_ties() {
        let mut sim = Sim::new();
        let s = sim.add_node(Box::new(Sink::default()));
        sim.inject_frame(SimTime(100), s, s, Frame::Data(pkt(1, 0)));
        sim.inject_frame(SimTime(50), s, s, Frame::Data(pkt(2, 0)));
        sim.inject_frame(SimTime(100), s, s, Frame::Data(pkt(3, 0)));
        sim.run(100);
        let sink: &Sink = sim.node_as(s);
        let ids: Vec<u64> = sink.got.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids, vec![2, 1, 3], "time order, then injection order");
    }

    #[test]
    fn suspension_holds_and_releases_in_order() {
        let mut sim = Sim::new();
        let e = sim.add_node(Box::new(Echo { delay: SimDuration::ZERO, seen: vec![] }));
        let s = sim.add_node(Box::new(Sink::default()));
        sim.add_link(e, s, SimDuration::from_millis(1), 0);
        sim.set_link_suspended(e, s, true);
        sim.inject_frame(SimTime::ZERO, s, e, Frame::Data(pkt(1, 0)));
        sim.inject_frame(SimTime(10), s, e, Frame::Data(pkt(2, 0)));
        sim.run(100);
        assert_eq!(sim.link_held(e, s), 2, "both frames held");
        let released = sim.set_link_suspended(e, s, false);
        assert_eq!(released, 2);
        sim.run(100);
        let sink: &Sink = sim.node_as(s);
        assert_eq!(sink.got.iter().map(|(_, id)| *id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn partition_holds_both_directions_and_heals() {
        let mut sim = Sim::new();
        let e = sim.add_node(Box::new(Echo { delay: SimDuration::ZERO, seen: vec![] }));
        let s = sim.add_node(Box::new(Sink::default()));
        sim.add_link(e, s, SimDuration::from_millis(1), 0);
        sim.set_fault_plan(FaultPlan::seeded(1).partition(
            e,
            s,
            SimTime(5_000_000),
            SimTime(50_000_000),
        ));
        // Before the window: delivered normally (echo replies at t=0,
        // link latency 1 ms).
        sim.inject_frame(SimTime::ZERO, s, e, Frame::Data(pkt(1, 0)));
        // During the window: the echo's reply is held at the link head
        // (injection itself bypasses links, so the inbound copy lands).
        sim.inject_frame(SimTime(10_000_000), s, e, Frame::Data(pkt(2, 0)));
        sim.run(100);
        let sink: &Sink = sim.node_as(s);
        assert_eq!(sink.got.len(), 2, "nothing lost, only delayed");
        assert_eq!(sink.got[0].0, SimTime(1_000_000));
        assert_eq!(sink.got[1].0, SimTime(51_000_000), "released at heal + latency");
        assert!(matches!(sim.fault_log()[0], FaultRecord::Partitioned { .. }));
        assert!(matches!(sim.fault_log()[1], FaultRecord::Healed { released: 1, .. }));
    }

    #[test]
    fn control_frames_have_wire_cost() {
        let f = Frame::control(wire::Message::OpAck { op: OpId(1) });
        assert!(f.wire_len() > 4);
    }

    #[test]
    fn run_until_respects_bound() {
        let mut sim = Sim::new();
        let s = sim.add_node(Box::new(Sink::default()));
        sim.inject_frame(SimTime(100), s, s, Frame::Data(pkt(1, 0)));
        sim.inject_frame(SimTime(200), s, s, Frame::Data(pkt(2, 0)));
        let n = sim.run_until(SimTime(150), 1000);
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime(100));
        let n = sim.run_until(SimTime(300), 1000);
        assert_eq!(n, 1);
        assert!(sim.is_idle());
    }

    /// Random pushes (any lane; delays of zero, a per-lane constant, and
    /// arbitrary ones that land before the lane's tail) interleaved with
    /// pops, bounded and unbounded, against one heap of `(time, seq)`.
    fn queue_matches_one_heap(seed: u64, steps: usize) {
        const LANES: u64 = 7;
        let mut rng = RuleRng::new(seed, 0);
        let mut q = EventQueue::new();
        for _ in 0..LANES {
            q.add_lane();
        }
        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let (mut now, mut seq) = (SimTime::ZERO, 0u64);
        let (mut pushes, mut to_fallback) = (0, 0);
        for step in 0..steps {
            // The backlog builds and drains in turn; the last tenth of
            // the steps only drains.
            let push_pct = if step / 300 % 2 == 0 { 60 } else { 30 };
            if rng.next_u64() % 100 < push_pct && step < steps - steps / 10 {
                let lane = rng.next_u64() % LANES;
                let delay = match rng.next_u64() % 8 {
                    0 => 0,
                    1 => rng.next_u64() % 50_000,
                    _ => 5_000 * (lane + 1),
                };
                let time = now.after(SimDuration(delay));
                let ev = Scheduled {
                    time,
                    seq,
                    target: NodeId(lane as u32),
                    payload: Payload::Timer { token: seq },
                };
                let before = q.fallback.len();
                q.push(lane as u32, ev);
                model.push(Reverse((time, seq)));
                seq += 1;
                pushes += 1;
                to_fallback += q.fallback.len() - before;
            } else {
                let until = match rng.next_u64() % 3 {
                    0 => now.after(SimDuration(rng.next_u64() % 20_000)),
                    _ => SimTime(u64::MAX),
                };
                let want = model.peek().filter(|Reverse((t, _))| *t <= until).copied();
                if want.is_some() {
                    model.pop();
                }
                let got = q.pop_due(until).map(|ev| {
                    assert!(matches!(ev.payload, Payload::Timer { token } if token == ev.seq));
                    Reverse((ev.time, ev.seq))
                });
                assert_eq!(got, want, "seed {seed} step {step}");
                if let Some(Reverse((t, _))) = got {
                    now = t;
                }
            }
            assert_eq!(q.is_empty(), model.is_empty(), "seed {seed} step {step}");
        }
        // Both homes of an event were exercised.
        assert!(to_fallback * 20 > pushes && to_fallback * 2 < pushes, "{to_fallback}/{pushes}");
    }

    #[test]
    fn event_queue_pops_in_one_heap_order() {
        for seed in 0..64 {
            queue_matches_one_heap(seed, 6_000);
        }
    }

    #[test]
    #[ignore = "long_range: more seeds and longer runs; run with --include-ignored"]
    fn event_queue_pops_in_one_heap_order_long_range() {
        for seed in 64..1_024 {
            queue_matches_one_heap(seed, 40_000);
        }
    }

    /// Sends each data frame on to the neighbour its route names for the
    /// frame's sender, after a pipeline delay modelled — as `Switch` and
    /// `MbNode` do — with one constant-delay timer per frame.
    struct Relay {
        delay: SimDuration,
        routes: Vec<(NodeId, NodeId)>,
        pending: VecDeque<(NodeId, Packet)>,
    }

    impl Relay {
        fn new(delay: SimDuration, routes: &[(NodeId, NodeId)]) -> Box<Self> {
            Box::new(Relay { delay, routes: routes.to_vec(), pending: VecDeque::new() })
        }
    }

    impl Node for Relay {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
            let Frame::Data(p) = frame else { return };
            let next = self.routes.iter().find(|(f, _)| *f == from).expect("routed").1;
            if self.delay == SimDuration::ZERO {
                ctx.send(next, Frame::Data(p));
            } else {
                self.pending.push_back((next, p));
                ctx.set_timer(self.delay, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let (next, p) = self.pending.pop_front().expect("one timer per pending frame");
            ctx.send(next, Frame::Data(p));
        }
    }

    #[test]
    fn sorted_traffic_never_reaches_the_fallback_heap() {
        // src → switch → mb → switch → dst.
        let (src, switch, mb, dst) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut sim = Sim::new();
        sim.add_node(Relay::new(SimDuration::ZERO, &[(src, switch)]));
        sim.add_node(Relay::new(SimDuration::from_micros(5), &[(src, mb), (mb, dst)]));
        sim.add_node(Relay::new(SimDuration::from_micros(20), &[(switch, switch)]));
        sim.add_node(Box::new(Sink::default()));
        for n in [src, mb, dst] {
            sim.add_link(switch, n, SimDuration::from_micros(50), 1_000_000_000);
        }
        const N: u64 = 10_000;
        for i in 0..N {
            sim.inject_frame(SimTime(i * 15_000), src, src, Frame::Data(pkt(i, 64)));
        }
        let lanes = sim.world.queue.lanes.len();
        assert_eq!(lanes, 4 + 6, "one per node, one per link direction");
        while sim.run(1) == 1 {
            assert!(sim.world.queue.fallback.is_empty(), "at {:?}", sim.now());
            assert!(sim.world.queue.heads.len() <= lanes);
        }
        assert_eq!(sim.node_as::<Sink>(dst).got.len() as u64, N);

        // A timer shorter than one already pending on the same node, and
        // a frame sent behind a `Delay`-faulted one on the same link, are
        // earlier than their lane's tail: both wait in the fallback heap
        // and still fire in time order.
        let t0 = sim.now().after(SimDuration::from_millis(1));
        sim.inject_timer(t0.after(SimDuration::from_micros(100)), dst, N + 1);
        sim.inject_timer(t0.after(SimDuration::from_micros(10)), dst, N + 2);
        assert_eq!(sim.world.queue.fallback.len(), 1);
        let t1 = t0.after(SimDuration::from_millis(1));
        let delay_first = FaultRule {
            control_only: false,
            ..FaultRule::on_link(src, switch, FaultAction::Delay(SimDuration::from_millis(1)))
        };
        sim.set_fault_plan(FaultPlan::seeded(1).rule(delay_first.between(t1, SimTime(t1.0 + 1))));
        sim.inject_frame(t1, src, src, Frame::Data(pkt(N + 3, 64)));
        sim.inject_frame(SimTime(t1.0 + 15_000), src, src, Frame::Data(pkt(N + 4, 64)));
        let mut last = sim.now();
        let mut fallback_peak = 0;
        while sim.run(1) == 1 {
            assert!(sim.now() >= last, "time went backwards");
            last = sim.now();
            fallback_peak = fallback_peak.max(sim.world.queue.fallback.len());
        }
        assert_eq!(fallback_peak, 1, "one at a time: the short timer, then the frame behind");
        let tail: Vec<u64> =
            sim.node_as::<Sink>(dst).got[N as usize..].iter().map(|(_, id)| *id).collect();
        assert_eq!(tail, vec![N + 2, N + 1, N + 4, N + 3]);
    }
}
