//! Measurement infrastructure: named counters, gauges and latency
//! histograms, plus the ECDF the figures are summarized with.
//!
//! [`Metrics`] is a thin wrapper over an [`openmb_obs::Registry`], so a
//! run's metrics export through the registry's Prometheus/JSON
//! serializers without a translation step. It keeps no per-packet
//! table: what happened *when* (packets processed, events raised and
//! replayed, gets served — the raw material for Figure 7's timeline)
//! is recorded as [`openmb_obs::SpanEvent`]s into the simulation's
//! flight recorder (see [`crate::Sim::set_recorder`]), which is bounded
//! and off by default.

use openmb_obs::{CounterSlot, Registry};

use crate::time::SimDuration;

/// Collects everything the experiments count. One per simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    registry: Registry,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Identical to [`Metrics::new`]. Kept only because `perfbench/`
    /// (frozen while a PR touches this crate) calls it by this name; a
    /// benchmark-only follow-up drops it.
    pub fn counters_only() -> Self {
        Self::default()
    }

    /// Bump a named counter. Allocates the key only on the counter's
    /// first use — steady-state increments are allocation-free.
    pub fn incr(&mut self, name: &str, by: u64) {
        self.registry.incr(name, by);
    }

    /// [`Metrics::incr`] through a name resolved once
    /// ([`Registry::incr_at`]).
    pub fn incr_at(&mut self, slot: &mut CounterSlot, by: u64) {
        self.registry.incr_at(slot, by);
    }

    /// Read a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// The metrics registry backing this sink, for export
    /// (`registry().to_json()` / `to_prometheus_text()`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (e.g. to set run-level gauges before
    /// export).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Observe a duration under a name, as a `<name>` histogram
    /// observation in milliseconds. Like [`Metrics::incr`], only the
    /// first sample for a name allocates.
    pub fn sample(&mut self, name: &str, d: SimDuration) {
        self.registry.observe(name, d.as_millis_f64());
    }

    /// [`Metrics::sample`] for each of `ds` in order, with one name
    /// lookup: the histogram ends bit-identical to sampling them one by
    /// one.
    pub fn sample_all(&mut self, name: &str, ds: impl IntoIterator<Item = SimDuration>) {
        self.registry.observe_all(name, ds.into_iter().map(|d| d.as_millis_f64()));
    }
}

/// An empirical CDF over f64 observations (used for Figure 8).
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from unsorted observations (NaNs are rejected).
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN observation");
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: values }
    }

    /// Fraction of observations ≤ `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of observations strictly above `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The p-th percentile (0 ≤ p ≤ 100) by the **nearest-rank**
    /// convention: the smallest observation `x` such that at least
    /// `p`% of observations are ≤ `x`, i.e. the observation at 1-based
    /// rank `⌈p/100 · n⌉`.
    ///
    /// Edge cases follow from clamping that rank to `[1, n]`:
    ///
    /// * `p = 0` (rank 0 → clamped to 1) returns the **minimum**. This
    ///   is deliberate — the 0th percentile is defined here as the
    ///   smallest observation, not "a value below all observations".
    /// * `p = 100` returns the maximum; any `p > 100` also clamps to
    ///   the maximum rather than running off the end.
    /// * Negative `p` is rejected (`debug_assert` + clamp to minimum),
    ///   and an empty ECDF has no percentiles (`None`).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        debug_assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((p.max(0.0) / 100.0) * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, self.sorted.len()) - 1])
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `(x, F(x))` points at the given xs, for plotting a CDF series.
    pub fn series(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.fraction_at_or_below(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_samples() {
        let mut m = Metrics::new();
        m.incr("pkts", 3);
        m.incr("pkts", 2);
        assert_eq!(m.counter("pkts"), 5);
        assert_eq!(m.counter("absent"), 0);
        m.sample("lat", SimDuration::from_millis(2));
        m.sample("lat", SimDuration::from_millis(4));
        let h = m.registry().histogram("lat").unwrap();
        assert!((h.sum() / h.count() as f64 - 3.0).abs() < 1e-9);
        assert!((h.max().unwrap() - 4.0).abs() < 1e-9);
        assert!(m.registry().histogram("none").is_none());
    }

    #[test]
    fn counters_are_backed_by_the_registry() {
        let mut m = Metrics::new();
        m.incr("pkts", 2);
        m.sample("lat", SimDuration::from_millis(3));
        assert_eq!(m.registry().counter("pkts"), 2);
        let h = m.registry().histogram("lat").expect("sample mirrored as histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(3.0));
        let json = m.registry().to_json();
        assert!(json.contains("\"pkts\":2"), "{json}");
    }

    #[test]
    fn ecdf_percentile_boundaries() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        // Nearest-rank convention: p = 0 is the minimum (rank clamps
        // to 1), p = 100 the maximum.
        assert_eq!(e.percentile(0.0), Some(1.0));
        assert_eq!(e.percentile(100.0), Some(4.0));
        // A tiny positive p already names the first observation.
        assert_eq!(e.percentile(0.0001), Some(1.0));
        // Rank boundaries: p = 25 is still the first observation
        // (⌈0.25·4⌉ = 1); just above it moves to the second.
        assert_eq!(e.percentile(25.0), Some(1.0));
        assert_eq!(e.percentile(25.1), Some(2.0));
        // Single observation: every p maps to it.
        let one = Ecdf::new(vec![7.0]);
        assert_eq!(one.percentile(0.0), Some(7.0));
        assert_eq!(one.percentile(50.0), Some(7.0));
        assert_eq!(one.percentile(100.0), Some(7.0));
    }

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((e.fraction_at_or_below(2.0) - 0.5).abs() < 1e-12);
        assert!((e.fraction_above(3.0) - 0.25).abs() < 1e-12);
        assert_eq!(e.percentile(50.0), Some(2.0));
        assert_eq!(e.percentile(100.0), Some(4.0));
        assert!(Ecdf::new(vec![]).percentile(50.0).is_none());
    }
}
