//! Virtual time. The simulator's clock is a `u64` count of nanoseconds
//! since simulation start; all latencies and service times are
//! [`SimDuration`]s. Using integers keeps event ordering exact and the
//! whole simulation bit-for-bit deterministic.

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

// Encoded as its nanoseconds (capture files).
openmb_types::record! { SimTime { 0 } }

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Add a duration, saturating at the far future.
    pub fn after(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Time elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Whole seconds, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole milliseconds, fractional.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (panics on negative/NaN).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time needed to push `bytes` through a link of `bits_per_sec`:
    /// `bytes·8·10⁹ / bits_per_sec`, in `u64` whenever the product fits
    /// (every frame up to 2 GiB) and in `u128` otherwise.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> Self {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        match (bytes as u64).checked_mul(8_000_000_000) {
            Some(bit_ns) => SimDuration(bit_ns / bits_per_sec),
            None => SimDuration(((bytes as u128 * 8_000_000_000) / bits_per_sec as u128) as u64),
        }
    }

    /// Scale by an integer factor.
    pub fn scaled(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        self.after(rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO.after(SimDuration::from_millis(5));
        assert_eq!(t, SimTime(5_000_000));
        assert_eq!(t.since(SimTime(1_000_000)), SimDuration(4_000_000));
        assert_eq!(SimTime(1).since(SimTime(5)), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time() {
        // 1500 bytes over 1 Gbps = 12 microseconds.
        let d = SimDuration::transmission(1500, 1_000_000_000);
        assert_eq!(d, SimDuration::from_micros(12));
        assert_eq!(SimDuration::transmission(100, 0), SimDuration::ZERO);
    }

    /// The largest byte count whose `bytes·8·10⁹` fits in a `u64`.
    const U64_EDGE: u64 = u64::MAX / 8_000_000_000;

    proptest::proptest! {
        /// The `u64` path is the `u128` formula: byte counts from a
        /// frame's to well past the overflow edge, bandwidths from
        /// 1 bit/s to `u64::MAX` at every magnitude.
        #[test]
        fn transmission_in_u64_is_the_u128_formula(
            small in 0u64..(64 << 20),
            near_edge in (U64_EDGE - 4096)..=(U64_EDGE + 4096),
            huge in proptest::prelude::any::<u64>(),
            bps in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let bps = (bps >> shift).max(1);
            for bytes in [small, near_edge, huge >> (shift % 32), U64_EDGE, U64_EDGE + 1] {
                let bytes = bytes as usize;
                let want = (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
                proptest::prop_assert_eq!(
                    SimDuration::transmission(bytes, bps),
                    SimDuration(want),
                    "{} bytes at {} bit/s", bytes, bps
                );
            }
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }
}
