//! The campus↔cloud trace substitute.
//!
//! The paper's first trace is "all traffic exchanged between a large
//! university campus and two major cloud providers ... captured at the
//! campus network border for ≈15 minutes". The experiments use it as a
//! source of many concurrent TCP flows with an HTTP/other split, full
//! connection lifecycles (SYN/handshake/FIN), and request/response
//! payloads. This generator produces exactly that, seeded.

use std::net::Ipv4Addr;

use bytes::Bytes;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::packet::tcp_flags;
use openmb_types::{FlowKey, Packet, Proto};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{TimedPacket, Trace};

/// Parameters for the cloud-trace generator.
#[derive(Debug, Clone)]
pub struct CloudTraceConfig {
    /// RNG seed (same seed → identical trace).
    pub seed: u64,
    /// Total flows to generate.
    pub flows: usize,
    /// Fraction of flows that are HTTP (dst port 80).
    pub http_fraction: f64,
    /// Mean packets per flow (geometric-ish).
    pub mean_packets: usize,
    /// Mean inter-packet gap within a flow.
    pub mean_gap: SimDuration,
    /// Window over which flow start times are spread.
    pub span: SimDuration,
    /// Client subnet (sources are drawn from `base` + offset).
    pub client_base: Ipv4Addr,
    /// Server addresses flows connect to.
    pub servers: Vec<Ipv4Addr>,
}

impl Default for CloudTraceConfig {
    fn default() -> Self {
        CloudTraceConfig {
            seed: 42,
            flows: 200,
            http_fraction: 0.6,
            mean_packets: 12,
            mean_gap: SimDuration::from_millis(8),
            span: SimDuration::from_secs(2),
            client_base: Ipv4Addr::new(10, 1, 0, 0),
            servers: vec![Ipv4Addr::new(54, 230, 1, 10), Ipv4Addr::new(13, 107, 4, 50)],
        }
    }
}

impl CloudTraceConfig {
    /// Generate the trace.
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();
        let mut pkt_id: u64 = 1;
        for f in 0..self.flows {
            let is_http = rng.random_bool(self.http_fraction);
            let client = offset_ip(self.client_base, 1 + (f as u32 % 60_000));
            let server = self.servers[rng.random_range(0..self.servers.len())];
            let sport = rng.random_range(20_000..60_000);
            let dport = if is_http {
                80
            } else {
                *[443u16, 22, 53, 8443, 9000].get(rng.random_range(0..5)).unwrap()
            };
            let key = if dport == 53 {
                FlowKey::udp(client, sport, server, dport)
            } else {
                FlowKey::tcp(client, sport, server, dport)
            };
            let start = SimTime(rng.random_range(0..self.span.as_nanos().max(1)));
            let n_pkts = 2 + rng.random_range(0..self.mean_packets * 2);
            let mut t = start;
            let gap = self.mean_gap.as_nanos().max(1);

            if key.proto == Proto::Tcp {
                // Handshake.
                events.push(TimedPacket {
                    time: t,
                    packet: Packet::tcp(pkt_id, key, tcp_flags::SYN, Bytes::new()),
                });
                pkt_id += 1;
                t = t.after(SimDuration(rng.random_range(gap / 4..gap)));
                events.push(TimedPacket {
                    time: t,
                    packet: Packet::tcp(
                        pkt_id,
                        key.reversed(),
                        tcp_flags::SYN | tcp_flags::ACK,
                        Bytes::new(),
                    ),
                });
                pkt_id += 1;
            }

            // Data exchange.
            for p in 0..n_pkts {
                t = t.after(SimDuration(rng.random_range(gap / 2..gap * 2)));
                let orig = p % 3 != 2; // ~2/3 client->server
                let pkey = if orig { key } else { key.reversed() };
                let payload = if is_http && orig {
                    let path_n: u32 = rng.random_range(0..5000);
                    format!("GET /obj/{path_n}.html HTTP/1.1\r\nHost: svc\r\n\r\n").into_bytes()
                } else if is_http {
                    let body: String =
                        "response-data ".chars().cycle().take(rng.random_range(80..700)).collect();
                    format!("HTTP/1.1 200 OK\r\n\r\n{body}").into_bytes()
                } else {
                    let len = rng.random_range(40..600);
                    (0..len).map(|_| rng.random::<u8>()).collect()
                };
                let mut pkt = if pkey.proto == Proto::Tcp {
                    Packet::tcp(pkt_id, pkey, tcp_flags::ACK, payload)
                } else {
                    Packet::new(pkt_id, pkey, payload)
                };
                pkt.meta.http_request = is_http && orig;
                events.push(TimedPacket { time: t, packet: pkt });
                pkt_id += 1;
            }

            if key.proto == Proto::Tcp {
                t = t.after(SimDuration(rng.random_range(gap / 2..gap)));
                events.push(TimedPacket {
                    time: t,
                    packet: Packet::tcp(pkt_id, key, tcp_flags::FIN | tcp_flags::ACK, Bytes::new()),
                });
                pkt_id += 1;
            }
        }
        Trace::new(events)
    }
}

fn offset_ip(base: Ipv4Addr, offset: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(base).wrapping_add(offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = CloudTraceConfig { flows: 20, ..Default::default() }.generate();
        let b = CloudTraceConfig { flows: 20, ..Default::default() }.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.packet, y.packet);
        }
    }

    #[test]
    fn http_fraction_respected_roughly() {
        let t = CloudTraceConfig { flows: 300, ..Default::default() }.generate();
        let http = t.filter(|p| p.key.dst_port == 80 || p.key.src_port == 80);
        let frac = http.len() as f64 / t.len() as f64;
        assert!((0.4..0.8).contains(&frac), "http fraction {frac}");
    }

    #[test]
    fn tcp_flows_have_full_lifecycle() {
        let t = CloudTraceConfig { flows: 10, http_fraction: 1.0, ..Default::default() }.generate();
        let syns = t.filter(|p| p.has_flag(tcp_flags::SYN) && !p.has_flag(tcp_flags::ACK));
        let fins = t.filter(|p| p.has_flag(tcp_flags::FIN));
        assert_eq!(syns.len(), 10);
        assert_eq!(fins.len(), 10);
    }

    #[test]
    fn packet_ids_unique() {
        let t = CloudTraceConfig { flows: 50, ..Default::default() }.generate();
        let mut ids: Vec<u64> = t.events().iter().map(|e| e.packet.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
