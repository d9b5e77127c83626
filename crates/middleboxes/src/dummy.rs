//! The trace-replay "dummy" middlebox of §8.3.
//!
//! "To isolate the performance and scalability of the MB controller from
//! the performance of individual MBs, we use 'dummy' MBs that simply
//! replay traces of past state in response to gets, send acks in
//! response to puts, and infinitely generate events during the lifetime
//! of the experiment. ... All state and events are small (202 bytes and
//! 128 bytes, respectively)."
//!
//! [`DummyMb::preloaded`] synthesizes `n` pieces of per-flow reporting
//! state of exactly [`STATE_BYTES`] plaintext bytes (PRADS-derived state
//! in the paper); every packet it processes touches one piece, so a
//! packet stream at rate R during a move yields events at rate R —
//! exactly the knob Figures 9(c,d) and 10(a) turn.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use openmb_mb::{state, CostModel, Effects, Middlebox, Sealer, SyncTracker};
use openmb_simnet::SimTime;
use openmb_types::codec::{Sink, Writer};
use openmb_types::wire::ChunkClass;
use openmb_types::{
    ConfigTree, ConfigValue, Error, FlowKey, HeaderFieldList, HierarchicalKey, OpId, Packet,
    Result, StateChunk, StateStats,
};

/// Plaintext bytes per piece of dummy state (§8.3: 202 bytes).
pub const STATE_BYTES: usize = 202;

/// The dummy middlebox.
#[derive(Clone)]
pub struct DummyMb {
    config: ConfigTree,
    state: HashMap<FlowKey, Vec<u8>>,
    sync: SyncTracker,
    sealer: Sealer,
    /// Compress state before sealing on export (the §8.3 optimization:
    /// compress-then-encrypt at the MB, transparent to the controller).
    pub compress_exports: bool,
    /// Packets processed (experiments).
    pub packets: u64,
    /// Puts received (experiments).
    pub puts: u64,
}

impl Default for DummyMb {
    fn default() -> Self {
        Self::new()
    }
}

impl DummyMb {
    /// An empty dummy MB.
    pub fn new() -> Self {
        DummyMb {
            config: ConfigTree::new(),
            state: HashMap::new(),
            sync: SyncTracker::new(),
            sealer: Sealer::new("dummy"),
            compress_exports: false,
            packets: 0,
            puts: 0,
        }
    }

    /// A dummy MB preloaded with `n` pieces of 202-byte state, keyed by
    /// the same synthetic flows [`flow_for`] generates.
    pub fn preloaded(n: usize) -> Self {
        let mut mb = Self::new();
        for i in 0..n {
            let key = Self::flow_for(i);
            // PRADS-record-like content (the paper's dummy state is
            // "derived from actual state and events sent by Prads"): a
            // realistic mix of structure and variation, so the §8.3
            // compression experiment sees representative ratios.
            // A compact live-field header followed by the struct's
            // default-initialized (zeroed) counter block — the layout of
            // a memcpy'd PRADS record, where most counters are untouched.
            // Per-chunk compression squeezes the zero block (the paper
            // measured ~38% on real PRADS state).
            let mut bytes = format!(
                "{{\"sip\":\"{}\",\"dip\":\"192.168.0.1\",\"spt\":{},\"dpt\":80,\
                 \"os\":\"Linux 3.2\",\"svc\":\"http\",\"pkts\":{},\"bytes\":{}}}",
                key.src_ip,
                key.src_port,
                i * 3 + 1,
                i * 1400 + 40
            )
            .into_bytes();
            bytes.resize(STATE_BYTES, 0);
            bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
            mb.state.insert(key, bytes);
        }
        mb
    }

    /// The synthetic flow key for state piece `i` (deterministic, so
    /// packet generators can target specific pieces).
    pub fn flow_for(i: usize) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, ((i >> 16) & 0xff) as u8, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8),
            10_000 + (i % 50_000) as u16,
            Ipv4Addr::new(192, 168, 0, 1),
            80,
        )
    }
}

/// How a record leaves on export: as it is, or compressed before it is
/// sealed.
fn export_encoding(compress: bool) -> impl Fn(&Vec<u8>, &FlowKey, &mut Writer) {
    move |bytes, _, w| match compress {
        true => w.put_raw(&openmb_types::compress::compress(bytes)),
        false => w.put_raw(bytes),
    }
}

impl Middlebox for DummyMb {
    fn mb_type(&self) -> &'static str {
        "dummy"
    }

    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.config.read(key)
    }

    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        self.config.set(key, values);
        Ok(())
    }

    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.config.remove(key)
    }

    fn get_report_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        let encode = export_encoding(self.compress_exports);
        Ok(state::export_with(&self.state, &self.sealer, &mut self.sync, op, key, encode))
    }

    fn export_perflow(
        &mut self,
        class: ChunkClass,
        op: OpId,
        key: &HeaderFieldList,
        out: &mut dyn FnMut(usize, StateChunk),
    ) -> Result<()> {
        if class == ChunkClass::Report {
            let encode = export_encoding(self.compress_exports);
            state::export_into(&self.state, &self.sealer, &mut self.sync, op, key, encode, out);
        }
        Ok(())
    }

    fn put_report_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        let mut plain = self.sealer.open(&chunk.data)?;
        if self.compress_exports {
            plain = openmb_types::compress::decompress(&plain)
                .ok_or_else(|| Error::MalformedChunk("bad compressed state".into()))?;
        }
        // Dummy state does not carry its flow: the chunk's pattern does,
        // so it must name exactly one.
        let key = chunk.key.as_exact().ok_or_else(|| {
            Error::MalformedChunk(format!("dummy state needs an exact flow key, got {}", chunk.key))
        })?;
        state::import(&mut self.state, &mut self.sync, key, plain);
        self.puts += 1;
        Ok(())
    }

    fn del_report_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        Ok(state::delete(&mut self.state, &mut self.sync, key, drop))
    }

    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        let chunks = self.state.keys().filter(|k| key.matches_bidi(k)).count();
        StateStats {
            perflow_report_chunks: chunks,
            perflow_report_bytes: chunks * (STATE_BYTES + state::SEAL_OVERHEAD),
            ..StateStats::default()
        }
    }

    fn process_packet(&mut self, _now: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.packets += 1;
        let key = pkt.key;
        let entry = self.state.entry(key).or_insert_with(|| vec![0u8; STATE_BYTES]);
        // Touch the state so it counts as an update.
        let count = u64::from_le_bytes(entry[8..16].try_into().unwrap()) + 1;
        entry[8..16].copy_from_slice(&count.to_le_bytes());
        self.sync.on_perflow_update(key, pkt, fx);
        fx.forward(pkt.clone());
    }

    fn end_sync(&mut self, op: OpId) {
        self.sync.end_sync(op);
    }

    fn costs(&self) -> CostModel {
        CostModel::dummy()
    }

    fn perflow_entries(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_creates_exact_sizes() {
        let mut mb = DummyMb::preloaded(100);
        assert_eq!(mb.perflow_entries(), 100);
        let chunks = mb.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        assert_eq!(chunks.len(), 100);
        // Sealed size = 202 plaintext + 16-byte header.
        assert!(chunks.iter().all(|c| c.data.len() == STATE_BYTES + 16));
    }

    #[test]
    fn packets_to_moved_state_raise_events() {
        let mut mb = DummyMb::preloaded(10);
        let _ = mb.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        let mut fx = Effects::normal();
        let pkt = Packet::new(1, DummyMb::flow_for(3), vec![0u8; 64]);
        mb.process_packet(SimTime(0), &pkt, &mut fx);
        assert_eq!(fx.take_events().len(), 1);
    }

    #[test]
    fn move_roundtrip_between_dummies() {
        let mut a = DummyMb::preloaded(20);
        let mut b = DummyMb::new();
        let chunks = a.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap();
        for c in chunks {
            b.put_report_perflow(c).unwrap();
        }
        assert_eq!(b.perflow_entries(), 20);
        assert_eq!(b.puts, 20);
        assert_eq!(a.del_report_perflow(&HeaderFieldList::any()).unwrap(), 20);
    }

    #[test]
    fn del_config_reports_a_missing_key() {
        let mut mb = DummyMb::new();
        let key = HierarchicalKey::parse("no/such");
        assert_eq!(mb.del_config(&key), Err(Error::NoSuchConfigKey("no/such".into())));
        mb.set_config(&key, vec![1i64.into()]).unwrap();
        assert_eq!(mb.del_config(&key), Ok(()));
    }

    #[test]
    fn put_rejects_a_key_that_names_no_single_flow() {
        let mut a = DummyMb::preloaded(1);
        let mut b = DummyMb::new();
        let chunk = a.get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap().remove(0);
        for key in [
            HeaderFieldList::any(),
            HeaderFieldList { tp_src: None, ..chunk.key },
            HeaderFieldList { proto: None, ..chunk.key },
        ] {
            let put = b.put_report_perflow(StateChunk::new(key, chunk.data.clone()));
            assert!(matches!(put, Err(Error::MalformedChunk(_))), "{key}: {put:?}");
        }
        assert_eq!((b.perflow_entries(), b.puts), (0, 0), "nothing filed under a made-up flow");
        b.put_report_perflow(chunk).unwrap();
        assert_eq!(b.perflow_entries(), 1);
    }
}
