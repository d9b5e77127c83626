//! The in-memory trace representation all generators produce.

use openmb_simnet::{Frame, Sim, SimTime};
use openmb_types::codec::{self, Field, List, Reader, Sink};
use openmb_types::{record, Error, NodeId, Packet, Result};

/// One timestamped packet.
#[derive(Debug, Clone)]
pub struct TimedPacket {
    pub time: SimTime,
    pub packet: Packet,
}

// A capture record: the time, then the packet's own row — id, 5-tuple,
// meta, payload.
record! { TimedPacket { time, packet } }

/// A capture file's first bytes, "OMBT".
const MAGIC: u32 = 0x4F4D_4254;
const VERSION: u16 = 1;

/// The capture file: magic, version, then the records in time order.
impl Field for Trace {
    const WHAT: &'static str = "trace";

    fn put<S: Sink>(&self, s: &mut S) {
        MAGIC.put(s);
        VERSION.put(s);
        self.events.put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        if u32::get(r)? != MAGIC {
            return Err(Error::Codec("not an OpenMB trace (bad magic)".into()));
        }
        let version = u16::get(r)?;
        if version != VERSION {
            return Err(Error::Codec(format!("unsupported trace version {version}")));
        }
        Ok(Trace::new(List::get_at_most(r, 100_000_000, Some("absurd trace length"))?))
    }
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
        codec::encode(self)
    }

    /// Parse a capture produced by [`to_bytes`](Trace::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Trace> {
        codec::decode(buf, Error::Codec)
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
    use openmb_types::{FlowKey, PacketMeta};
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

    /// The capture format, pinned before it was written on the codec:
    /// a two-packet trace's bytes (a TCP request with every meta field
    /// set, an empty UDP packet), hashed with FNV-1a.
    #[test]
    fn capture_bytes_are_pinned() {
        let web =
            FlowKey::tcp(Ipv4Addr::new(10, 1, 2, 3), 40_000, Ipv4Addr::new(93, 184, 216, 34), 80);
        let dns = FlowKey::udp(Ipv4Addr::new(10, 1, 2, 4), 53_000, Ipv4Addr::new(8, 8, 8, 8), 53);
        let mut get = Packet::new(7, web, b"GET / HTTP/1.1\r\n".to_vec());
        get.meta = PacketMeta { tcp_flags: 0x18, seq: 0xdead_beef, http_request: true };
        let trace = Trace::new(vec![
            TimedPacket { time: SimTime(2_000), packet: Packet::new(9, dns, Vec::new()) },
            TimedPacket { time: SimTime(1_500), packet: get },
        ]);
        let bytes = trace.to_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (104, 0x578234079B39D48D));
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        // Bytes after the last record are refused.
        let trailing = [&bytes[..], &[0]].concat();
        assert!(
            matches!(Trace::from_bytes(&trailing), Err(Error::Codec(m)) if m.contains("trailing"))
        );
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
