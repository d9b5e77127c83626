//! Seeded input generation. The seed decides addresses and payload
//! bytes only; how many flows and packets an op has is fixed in the
//! workloads, so every seed does the same amount of work.

use std::collections::HashSet;
use std::net::Ipv4Addr;

/// SplitMix64: small, fast, and fixed here so that a change to the
/// vendored `rand` stand-in cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// `n` lowercase hex characters: printable filler that cannot spell
    /// an IPS signature, a CRLF or an HTTP method.
    pub fn hex(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| b"0123456789abcdef"[(self.next_u64() & 15) as usize]).collect()
    }

    /// `n` distinct host addresses inside `10.0.0.0/8`, `net` fixing
    /// the second octet (so callers can keep address sets disjoint).
    pub fn hosts(&mut self, net: u8, n: usize) -> Vec<Ipv4Addr> {
        assert!(n <= 60_000, "a /16 holds 65 536 hosts");
        let mut seen = HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let low = self.next_u64() as u16;
            if seen.insert(low) {
                out.push(Ipv4Addr::new(10, net, (low >> 8) as u8, low as u8));
            }
        }
        out
    }

    /// An unprivileged port.
    pub fn port(&mut self) -> u16 {
        1024 + (self.next_u64() % 60_000) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_hosts_are_distinct() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.hosts(3, 500), b.hosts(3, 500));
        assert_eq!(a.hex(64), b.hex(64));
        let hosts = Rng::new(8).hosts(1, 8192);
        assert_eq!(hosts.iter().collect::<HashSet<_>>().len(), 8192);
        assert_ne!(hosts, Rng::new(9).hosts(1, 8192));
    }
}
