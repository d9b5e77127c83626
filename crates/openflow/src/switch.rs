//! The simulated OpenFlow switch.

use std::collections::VecDeque;

use openmb_simnet::obs::SpanEvent;
use openmb_simnet::{Ctx, Frame, Node, SimDuration, SimTime};
use openmb_types::sdn::{SdnAction, SdnMessage};
use openmb_types::NodeId;

use crate::flowtable::FlowTable;

/// An OpenFlow-style switch [`Node`].
///
/// Data packets are matched against the [`FlowTable`]; matches forward or
/// drop, misses are either sent to the attached controller as `PacketIn`
/// (when a controller link is configured) or dropped. Control messages
/// from the controller mutate the table; a `BarrierRequest` is answered
/// after all prior mods, letting control applications sequence "routing
/// update has taken effect" (§5: a move must complete *before* the
/// routing change).
pub struct Switch {
    /// Controller attachment point, if any.
    controller: Option<NodeId>,
    /// Per-packet pipeline latency (lookup + crossbar).
    forwarding_delay: SimDuration,
    table: FlowTable,
    /// Packets dropped due to table miss (no controller attached).
    pub dropped: u64,
    /// Packets that finished table lookup and are waiting out the
    /// pipeline delay before egress, each with the time it is over.
    pending_out: VecDeque<(SimTime, NodeId, openmb_types::Packet)>,
    label: String,
}

impl Switch {
    /// A switch with a typical hardware forwarding delay (5 µs).
    pub fn new(label: impl Into<String>) -> Self {
        Switch {
            controller: None,
            forwarding_delay: SimDuration::from_micros(5),
            table: FlowTable::new(),
            dropped: 0,
            pending_out: VecDeque::new(),
            label: label.into(),
        }
    }

    /// Attach an SDN controller: misses become `PacketIn`s to it.
    pub fn with_controller(mut self, controller: NodeId) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Override the forwarding delay.
    pub fn with_forwarding_delay(mut self, d: SimDuration) -> Self {
        self.forwarding_delay = d;
        self
    }

    /// Inspect the flow table (testing / experiments).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Pre-install a rule before the simulation starts.
    pub fn preinstall(&mut self, rule: openmb_types::sdn::FlowRule) {
        self.table.install(rule);
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: openmb_types::Packet) {
        match self.table.lookup(&pkt.key, from) {
            Some(SdnAction::Forward(next)) => {
                // The pipeline delay applies before the packet leaves;
                // modeled by a self-delivery then send would double-count
                // table lookups, so we instead fold it into the send via
                // a delayed self-frame only when the delay is non-zero.
                if self.forwarding_delay == SimDuration::ZERO {
                    ctx.send(next, Frame::Data(pkt));
                } else {
                    // Encode "pipeline done, forward to `next`" as a
                    // deferred send: we use send_to_self with a marker.
                    // Simpler and equivalent under FIFO links: add the
                    // delay by scheduling the send from now+delay.
                    let delay = self.forwarding_delay;
                    self.pending_out.push_back((ctx.now().after(delay), next, pkt));
                    ctx.set_timer(delay, TIMER_FLUSH);
                }
            }
            Some(SdnAction::Drop) => {
                ctx.record(None, None, SpanEvent::PacketDropped { pkt_id: pkt.id });
                ctx.metrics.incr("switch.dropped_by_rule", 1);
            }
            None => match self.controller {
                Some(c) => ctx.send(c, Frame::Sdn(SdnMessage::PacketIn { packet: pkt })),
                None => {
                    self.dropped += 1;
                    ctx.record(None, None, SpanEvent::PacketDropped { pkt_id: pkt.id });
                    ctx.metrics.incr("switch.miss_dropped", 1);
                }
            },
        }
    }
}

const TIMER_FLUSH: u64 = 1;

/// Deferred output queue entry (see `forward`).
impl Switch {
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        // Timers fire in order, one per queued packet: emit the oldest.
        // A timer armed before a crash that fires after a quick restart
        // finds its own packet gone and a younger one not yet due.
        if self.pending_out.front().is_some_and(|(due, ..)| *due <= ctx.now()) {
            let (_, next, pkt) = self.pending_out.pop_front().expect("front checked");
            ctx.send(next, Frame::Data(pkt));
        }
    }
}

impl Node for Switch {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, from: NodeId, frame: Frame) {
        match frame {
            Frame::Data(pkt) => self.forward(ctx, from, pkt),
            Frame::Sdn(msg) => match msg {
                SdnMessage::FlowMod(rule) => {
                    self.table.install(rule);
                    ctx.metrics.incr("switch.flow_mods", 1);
                }
                SdnMessage::FlowDel { pattern } => {
                    self.table.remove(&pattern);
                }
                SdnMessage::BarrierRequest { token } => {
                    ctx.send(from, Frame::Sdn(SdnMessage::BarrierReply { token }));
                }
                SdnMessage::PacketOut { packet, action } => match action {
                    SdnAction::Forward(next) => ctx.send(next, Frame::Data(packet)),
                    SdnAction::Drop => {}
                },
                SdnMessage::BarrierReply { .. } | SdnMessage::PacketIn { .. } => {
                    // Not meaningful at a switch; ignore.
                }
            },
            Frame::Control(_) => {
                // OpenMB protocol messages never terminate at a switch;
                // topologies connect controller and MBs directly.
                panic!("OpenMB control frame delivered to switch {}", self.label);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_FLUSH {
            self.flush(ctx);
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        // The pipeline's contents die with the switch, as the engine
        // discards the timers that would have emitted them; the flow
        // table (like an MB's tables) is kept.
        for (_, _, pkt) in self.pending_out.drain(..) {
            ctx.record(None, None, SpanEvent::PacketDropped { pkt_id: pkt.id });
        }
    }

    fn name(&self) -> String {
        format!("switch:{}", self.label)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
