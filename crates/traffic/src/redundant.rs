//! The high-redundancy trace substitute (RE experiments).
//!
//! The paper's third trace is "a high-redundancy trace constructed from
//! traffic exchanged in a campus network" [REfactor, MobiCom 2011]. The
//! RE experiments (Table 3) only need payload streams whose content
//! repeats with a controllable ratio: each packet either re-emits a
//! block from a rolling corpus of previously sent content (probability
//! `redundancy`) or introduces fresh content.

use std::net::Ipv4Addr;

use openmb_simnet::{SimDuration, SimTime};
use openmb_types::{FlowKey, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{TimedPacket, Trace};

/// Generator of redundancy-laden payload streams.
#[derive(Debug, Clone)]
pub struct RedundantPayloads {
    pub seed: u64,
    /// Probability a packet repeats earlier content.
    pub redundancy: f64,
    /// Packet payload size.
    pub payload: usize,
    /// How many distinct content blocks circulate.
    pub corpus_blocks: usize,
}

impl Default for RedundantPayloads {
    fn default() -> Self {
        RedundantPayloads { seed: 11, redundancy: 0.6, payload: 1200, corpus_blocks: 64 }
    }
}

impl RedundantPayloads {
    /// Generate `packets` packets addressed to hosts under `dst_base`
    /// (cycling the last octet over `dst_count` hosts), spaced `gap`
    /// apart starting at `start`.
    pub fn generate(
        &self,
        packets: usize,
        start: SimTime,
        gap: SimDuration,
        src: Ipv4Addr,
        dst_base: Ipv4Addr,
        dst_count: u8,
    ) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Build the corpus: realistic text-ish blocks.
        let corpus: Vec<Vec<u8>> = (0..self.corpus_blocks)
            .map(|i| {
                let mut block = format!(
                    "BLOCK{i:04} Content-Type: text/html; charset=utf-8 cache-control: max-age="
                )
                .into_bytes();
                while block.len() < self.payload {
                    let word: u32 = rng.random_range(0..1000);
                    block.extend_from_slice(format!(" lorem{word} ipsum dolor sit").as_bytes());
                }
                block.truncate(self.payload);
                block
            })
            .collect();

        let mut events = Vec::with_capacity(packets);
        let mut t = start;
        for i in 0..packets {
            let payload: Vec<u8> = if rng.random_bool(self.redundancy) {
                corpus[rng.random_range(0..corpus.len())].clone()
            } else {
                // Fresh content: random bytes never seen before.
                (0..self.payload).map(|_| rng.random::<u8>()).collect()
            };
            let dst = {
                let mut o = dst_base.octets();
                o[3] = o[3].wrapping_add((i % dst_count as usize) as u8);
                Ipv4Addr::from(o)
            };
            let key = FlowKey::tcp(src, 40_000 + (i % 1000) as u16, dst, 80);
            events.push(TimedPacket { time: t, packet: Packet::new(i as u64 + 1, key, payload) });
            t = t.after(gap);
        }
        Trace::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_ratio_observable() {
        let gen = RedundantPayloads { redundancy: 0.7, ..Default::default() };
        let trace = gen.generate(
            500,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            4,
        );
        // Count payloads seen more than once.
        let mut seen = std::collections::HashMap::new();
        for e in trace.events() {
            *seen.entry(e.packet.payload.clone()).or_insert(0u32) += 1;
        }
        let repeated: usize = seen.values().filter(|c| **c > 1).map(|c| *c as usize).sum();
        let frac = repeated as f64 / trace.len() as f64;
        assert!(frac > 0.5, "repeated fraction {frac}");
    }

    #[test]
    fn fresh_content_unique() {
        let gen = RedundantPayloads { redundancy: 0.0, ..Default::default() };
        let trace = gen.generate(
            100,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            2,
        );
        let mut payloads: Vec<_> =
            trace.events().iter().map(|e| e.packet.payload.clone()).collect();
        let n = payloads.len();
        payloads.sort();
        payloads.dedup();
        assert_eq!(payloads.len(), n);
    }

    #[test]
    fn destinations_cycle() {
        let gen = RedundantPayloads::default();
        let trace = gen.generate(
            10,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            2,
        );
        let dsts: std::collections::BTreeSet<Ipv4Addr> =
            trace.events().iter().map(|e| e.packet.key.dst_ip).collect();
        assert_eq!(dsts.len(), 2);
    }
}
