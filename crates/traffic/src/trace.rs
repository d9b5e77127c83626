//! The in-memory trace representation all generators produce.

use openmb_simnet::{Frame, Sim, SimTime};
use openmb_types::wire::{Reader, Writer};
use openmb_types::{Error, NodeId, Packet, PacketMeta, Proto, Result};

/// One timestamped packet.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    pub time: SimTime,
    pub packet: Packet,
}

/// A replayable packet trace, sorted by time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TimedPacket>,
}

impl Trace {
    /// Build from unsorted events.
    pub fn new(mut events: Vec<TimedPacket>) -> Self {
        events.sort_by_key(|e| e.time);
        Trace { events }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[TimedPacket] {
        &self.events
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.packet.payload.len() as u64).sum()
    }

    /// Time of the last event.
    pub fn end_time(&self) -> SimTime {
        self.events.last().map(|e| e.time).unwrap_or(SimTime::ZERO)
    }

    /// Keep only packets matching `pred`.
    pub fn filter(&self, pred: impl Fn(&Packet) -> bool) -> Trace {
        Trace { events: self.events.iter().filter(|e| pred(&e.packet)).cloned().collect() }
    }

    /// Inject every packet into `sim`, appearing to come from `from` and
    /// arriving at `target`.
    pub fn inject(&self, sim: &mut Sim, from: NodeId, target: NodeId) {
        for e in &self.events {
            sim.inject_frame(e.time, from, target, Frame::Data(e.packet.clone()));
        }
    }

    /// Inject every packet, coalescing runs of events that share a
    /// timestamp into one burst (`Sim::inject_burst`) so a batching
    /// `MbNode` sees each train queued at once. Events are time-sorted,
    /// so equal-timestamp runs are always contiguous. With batching off
    /// at the receiver this is byte-identical to [`inject`](Trace::inject).
    pub fn inject_trains(&self, sim: &mut Sim, from: NodeId, target: NodeId) {
        let mut i = 0;
        while i < self.events.len() {
            let t = self.events[i].time;
            let mut j = i + 1;
            while j < self.events.len() && self.events[j].time == t {
                j += 1;
            }
            if j == i + 1 {
                sim.inject_frame(t, from, target, Frame::Data(self.events[i].packet.clone()));
            } else {
                sim.inject_burst(
                    t,
                    from,
                    target,
                    self.events[i..j].iter().map(|e| e.packet.clone()),
                );
            }
            i = j;
        }
    }

    /// Concatenate two traces (re-sorts).
    pub fn merge(&self, other: &Trace) -> Trace {
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        Trace::new(events)
    }

    /// Serialize to the on-disk capture format (binary, versioned):
    /// `magic ‖ version ‖ count ‖ records`, each record
    /// `time ‖ id ‖ 5-tuple ‖ meta ‖ payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(0x4F4D_4254); // "OMBT"
        w.u16(1);
        w.u32(self.events.len() as u32);
        for e in &self.events {
            w.u64(e.time.0);
            w.u64(e.packet.id);
            w.ip(e.packet.key.src_ip);
            w.ip(e.packet.key.dst_ip);
            w.u16(e.packet.key.src_port);
            w.u16(e.packet.key.dst_port);
            w.u8(e.packet.key.proto.number());
            w.u8(e.packet.meta.tcp_flags);
            w.u32(e.packet.meta.seq);
            w.bool(e.packet.meta.http_request);
            w.bytes(&e.packet.payload);
        }
        w.into_bytes()
    }

    /// Parse a capture produced by [`to_bytes`](Trace::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Trace> {
        let mut r = Reader::new(buf);
        if r.u32()? != 0x4F4D_4254 {
            return Err(Error::Codec("not an OpenMB trace (bad magic)".into()));
        }
        let version = r.u16()?;
        if version != 1 {
            return Err(Error::Codec(format!("unsupported trace version {version}")));
        }
        let n = r.u32()? as usize;
        if n > 100_000_000 {
            return Err(Error::Codec("absurd trace length".into()));
        }
        let mut events = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let time = SimTime(r.u64()?);
            let id = r.u64()?;
            let src_ip = r.ip()?;
            let dst_ip = r.ip()?;
            let src_port = r.u16()?;
            let dst_port = r.u16()?;
            let proto = Proto::from_number(r.u8()?)
                .ok_or_else(|| Error::Codec("bad proto in trace".into()))?;
            let tcp_flags = r.u8()?;
            let seq = r.u32()?;
            let http_request = r.bool()?;
            let payload = r.bytes()?;
            events.push(TimedPacket {
                time,
                packet: Packet {
                    id,
                    key: openmb_types::FlowKey { src_ip, dst_ip, src_port, dst_port, proto },
                    meta: PacketMeta { tcp_flags, seq, http_request },
                    payload: payload.into(),
                },
            });
        }
        if !r.is_exhausted() {
            return Err(Error::Codec("trailing bytes after trace".into()));
        }
        Ok(Trace::new(events))
    }

    /// Write the capture to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Read a capture from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Trace> {
        Trace::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmb_types::FlowKey;
    use std::net::Ipv4Addr;

    fn ev(t: u64, id: u64) -> TimedPacket {
        let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 80);
        TimedPacket { time: SimTime(t), packet: Packet::new(id, key, vec![0u8; 10]) }
    }

    #[test]
    fn new_sorts_by_time() {
        let t = Trace::new(vec![ev(30, 1), ev(10, 2), ev(20, 3)]);
        let ids: Vec<u64> = t.events().iter().map(|e| e.packet.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(t.end_time(), SimTime(30));
    }

    #[test]
    fn capture_format_roundtrip() {
        let t = Trace::new(vec![ev(5, 1), ev(9, 2), ev(1, 3)]);
        let bytes = t.to_bytes();
        let rt = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t.len(), rt.len());
        for (x, y) in t.events().iter().zip(rt.events()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.packet, y.packet);
        }
    }

    #[test]
    fn capture_format_rejects_garbage() {
        assert!(Trace::from_bytes(b"not a trace").is_err());
        let mut ok = Trace::new(vec![ev(1, 1)]).to_bytes();
        ok[4] = 9; // bad version
        assert!(Trace::from_bytes(&ok).is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let t = Trace::new(vec![ev(5, 1), ev(9, 2)]);
        let path = std::env::temp_dir().join("openmb_trace_test.ombt");
        t.save(&path).unwrap();
        let rt = Trace::load(&path).unwrap();
        assert_eq!(rt.len(), 2);
        let _ = std::fs::remove_file(path);
    }

    /// Records every data frame it receives, with arrival time.
    #[derive(Default)]
    struct Probe {
        got: Vec<(SimTime, Packet)>,
    }

    impl openmb_simnet::Node for Probe {
        fn on_frame(&mut self, ctx: &mut openmb_simnet::Ctx<'_>, _from: NodeId, frame: Frame) {
            if let Frame::Data(p) = frame {
                self.got.push((ctx.now(), p));
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn inject_trains_delivers_identically_to_inject() {
        // Equal-timestamp runs plus singletons: the coalesced path must
        // deliver the exact same (time, packet) sequence as the
        // per-frame path.
        let t = Trace::new(vec![ev(5, 1), ev(5, 2), ev(5, 3), ev(9, 4), ev(12, 5), ev(12, 6)]);
        let run = |trains: bool| {
            let mut sim = Sim::new();
            let probe = sim.add_node(Box::new(Probe::default()));
            if trains {
                t.inject_trains(&mut sim, NodeId(7), probe);
            } else {
                t.inject(&mut sim, NodeId(7), probe);
            }
            sim.run(1_000);
            sim.node_as::<Probe>(probe).got.clone()
        };
        let per_frame = run(false);
        let coalesced = run(true);
        assert_eq!(per_frame.len(), 6);
        assert_eq!(per_frame, coalesced);
    }

    #[test]
    fn filter_and_merge() {
        let t = Trace::new(vec![ev(1, 1), ev(2, 2)]);
        let only_two = t.filter(|p| p.id == 2);
        assert_eq!(only_two.len(), 1);
        let merged = t.merge(&only_two);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.payload_bytes(), 30);
    }
}
