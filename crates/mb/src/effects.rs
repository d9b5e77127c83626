//! The external-side-effect channel for packet processing.
//!
//! §4.2.1 requires that during replay at a move/clone destination, a
//! packet is processed "as normal to update state, except it does not
//! perform external side-effects." Rather than trusting every middlebox
//! implementation to remember the rule, side effects flow through this
//! type, which silently discards them in replay mode. Events are *not*
//! side effects and are always collected (the destination of a clone can
//! itself be the source of another operation).

use openmb_types::wire::Event;
use openmb_types::Packet;

/// One line written to a named middlebox log (e.g. Bro's `conn.log`).
/// Log output is an *external side effect*: it is suppressed during
/// replay, and the §8.2 correctness experiments diff these entries
/// between unmodified and OpenMB-enabled runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Log stream name, e.g. "conn.log", "http.log", "alert".
    pub log: String,
    /// The formatted line.
    pub line: String,
}

/// Side-effect collector handed to [`Middlebox::process_packet`],
/// [`Middlebox::process_run`] and [`Middlebox::process_batch`].
///
/// A batch of packets shares one collector: forwarded packets accumulate
/// in order, and the embedding drains them once per batch. The replay
/// flag is checked per side effect; a same-flow run that forwards its
/// packets unchanged checks it once, through
/// [`forward_all`](Effects::forward_all), which is byte-identical (the
/// suppression counter and the empty output are the same either way).
///
/// [`Middlebox::process_packet`]: crate::Middlebox::process_packet
/// [`Middlebox::process_run`]: crate::Middlebox::process_run
/// [`Middlebox::process_batch`]: crate::Middlebox::process_batch
#[derive(Debug, Default)]
pub struct Effects {
    replay: bool,
    /// Packets to emit onward, in processing order (inline MBs forward,
    /// possibly transformed; a drop decision adds nothing).
    outputs: Vec<Packet>,
    /// Log lines produced while processing.
    logs: Vec<LogEntry>,
    /// Events raised while processing (reprocess + introspection).
    pub events: Vec<Event>,
    /// Count of side effects that were suppressed by replay mode
    /// (atomicity property (ii) audits read this).
    pub suppressed: u64,
}

impl Effects {
    /// A normal-processing collector: side effects are recorded.
    pub fn normal() -> Self {
        Effects::default()
    }

    /// A replay collector (§4.2.1): side effects are counted but
    /// discarded.
    pub fn replay() -> Self {
        Effects { replay: true, ..Effects::default() }
    }

    /// Is this a replay (side-effect-suppressing) context?
    pub fn is_replay(&self) -> bool {
        self.replay
    }

    /// Switch this collector between normal and replay mode, keeping
    /// its buffers (and their capacity). Embeddings that reuse one
    /// collector across batches call this instead of reallocating.
    pub fn set_replay(&mut self, replay: bool) {
        self.replay = replay;
    }

    /// Clear all collected side effects and counters, keeping buffer
    /// capacity and the replay flag. The steady-state embedding loop is
    /// `reset` → process batch → drain, with zero allocations once the
    /// buffers have grown to the high-water mark.
    pub fn reset(&mut self) {
        self.outputs.clear();
        self.logs.clear();
        self.events.clear();
        self.suppressed = 0;
    }

    /// Emit the processed packet onward (external side effect).
    pub fn forward(&mut self, pkt: Packet) {
        if self.replay {
            self.suppressed += 1;
        } else {
            self.outputs.push(pkt);
        }
    }

    /// Write a line to a named log (external side effect).
    pub fn log(&mut self, log: &str, line: impl Into<String>) {
        if self.replay {
            self.suppressed += 1;
        } else {
            self.logs.push(LogEntry { log: log.to_owned(), line: line.into() });
        }
    }

    /// Forward a whole same-treatment run (external side effects): one
    /// replay check, then one bulk append, or `n` suppressions counted
    /// in one step. Same outputs and `suppressed` as
    /// [`forward`](Effects::forward) on each packet. Clones are cheap
    /// (the payload is refcounted).
    pub fn forward_all(&mut self, pkts: &[Packet]) {
        if self.replay {
            self.suppressed += pkts.len() as u64;
        } else {
            self.outputs.extend_from_slice(pkts);
        }
    }

    /// Raise an event (always recorded — events are control-plane
    /// signals, not external side effects).
    pub fn raise(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The next forwarded packet, if processing produced one (FIFO).
    pub fn take_output(&mut self) -> Option<Packet> {
        if self.outputs.is_empty() {
            None
        } else {
            Some(self.outputs.remove(0))
        }
    }

    /// All forwarded packets, in processing order.
    pub fn take_outputs(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.outputs)
    }

    /// Forwarded packets collected so far (not drained).
    pub fn outputs(&self) -> &[Packet] {
        &self.outputs
    }

    /// Drain forwarded packets in order without giving up the buffer —
    /// the zero-allocation steady-state path for batching embeddings.
    pub fn drain_outputs(&mut self) -> std::vec::Drain<'_, Packet> {
        self.outputs.drain(..)
    }

    /// Log lines collected so far (not drained).
    pub fn logs(&self) -> &[LogEntry] {
        &self.logs
    }

    /// Drain collected log lines.
    pub fn take_logs(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.logs)
    }

    /// Drain collected events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::{FlowKey, OpId};
    use std::net::Ipv4Addr;

    fn pkt() -> Packet {
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 80);
        Packet::new(1, key, vec![0u8; 8])
    }

    #[test]
    fn normal_mode_records_side_effects() {
        let mut fx = Effects::normal();
        fx.forward(pkt());
        fx.log("conn.log", "line");
        assert!(fx.take_output().is_some());
        assert_eq!(fx.take_logs().len(), 1);
        assert_eq!(fx.suppressed, 0);
    }

    #[test]
    fn replay_mode_suppresses_side_effects_but_keeps_events() {
        let mut fx = Effects::replay();
        fx.forward(pkt());
        fx.log("conn.log", "line");
        fx.raise(Event::Reprocess { op: OpId(1), key: pkt().key, packet: pkt() });
        assert!(fx.take_output().is_none());
        assert!(fx.take_logs().is_empty());
        assert_eq!(fx.suppressed, 2);
        assert_eq!(fx.take_events().len(), 1);
    }

    #[test]
    fn outputs_accumulate_in_fifo_order() {
        let mut fx = Effects::normal();
        for id in 0..4u64 {
            let mut p = pkt();
            p.id = id;
            fx.forward(p);
        }
        assert_eq!(fx.outputs().len(), 4);
        assert_eq!(fx.take_output().unwrap().id, 0, "take_output is FIFO");
        let rest: Vec<u64> = fx.drain_outputs().map(|p| p.id).collect();
        assert_eq!(rest, vec![1, 2, 3]);
        assert!(fx.take_output().is_none());
    }

    /// `forward_all` (one replay check per run) must be byte-identical
    /// to the per-call branch of `forward` on each packet, live and in
    /// replay: same outputs, same `suppressed`.
    #[test]
    fn batch_lane_matches_per_call_branch() {
        let run: Vec<Packet> = (0..5u64)
            .map(|id| {
                let mut p = pkt();
                p.id = id;
                p
            })
            .collect();
        for replay in [false, true] {
            let mut per_call = Effects::normal();
            let mut batched = Effects::normal();
            per_call.set_replay(replay);
            batched.set_replay(replay);
            for p in &run {
                per_call.forward(p.clone());
            }
            batched.forward_all(&run);
            assert_eq!(per_call.outputs(), batched.outputs(), "replay={replay}");
            assert_eq!(per_call.suppressed, batched.suppressed, "replay={replay}");
            assert_eq!(batched.suppressed, if replay { 5 } else { 0 });
        }
    }

    #[test]
    fn reset_keeps_capacity_and_mode() {
        let mut fx = Effects::normal();
        for _ in 0..16 {
            fx.forward(pkt());
            fx.log("a", "b");
        }
        let cap = fx.outputs.capacity();
        fx.reset();
        assert!(fx.outputs().is_empty() && fx.logs().is_empty());
        assert_eq!(fx.outputs.capacity(), cap, "reset must not shrink buffers");
        assert!(!fx.is_replay());
        fx.set_replay(true);
        fx.forward(pkt());
        assert_eq!(fx.suppressed, 1);
    }
}
