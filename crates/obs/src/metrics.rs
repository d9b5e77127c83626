//! The metrics registry: named counters, gauges, and histograms with
//! Prometheus-text and JSON exporters.
//!
//! This supersedes the ad-hoc name-string counters that used to live
//! in `simnet::metrics` — the simulator's `Metrics` now delegates its
//! counters (and mirrors its duration samples as histograms) into a
//! `Registry`, so every embedding exports through one code path.
//! Iteration order is name order, whatever order the names were first
//! written in, which keeps exports deterministic and diffable.
//!
//! A packet path writes its counters and gauges through [`Slot`]s: a
//! name resolved once to its position in the registry that issued it,
//! so a write is one generation compare and one index.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default histogram bucket upper bounds (unit-agnostic; the simnet
/// integration observes milliseconds). A final `+Inf` bucket is
/// implicit.
pub const DEFAULT_BOUNDS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// A cumulative-bucket histogram plus exact sum/count/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets (sorted ascending).
    bounds: Vec<f64>,
    /// Per-bucket observation counts (same length as `bounds`, plus
    /// the overflow bucket at the end — i.e. `bounds.len() + 1`).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be sorted");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Cumulative count of observations `<= bound` for each finite
    /// bound, in ascending-bound order.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut acc = 0u64;
        self.bounds.iter().zip(&self.counts).map(move |(b, c)| {
            acc += c;
            (*b, acc)
        })
    }

    /// Merge another histogram's observations into this one.
    ///
    /// Identical bounds merge exactly (bucket-wise add). Differing
    /// bounds merge over the *union* of bounds: each source bucket's
    /// count lands in the union bucket with the same upper bound, the
    /// tightest bucket certain to contain every observation it held.
    /// Where one side's bounds subdivide the other's, the merged
    /// cumulative count at the finer bound is therefore a lower bound
    /// and quantile estimates err high — conservative, never
    /// optimistic. Sum/count/min/max merge exactly either way.
    fn merge_from(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (c, oc) in self.counts.iter_mut().zip(&other.counts) {
                *c += oc;
            }
        } else {
            let mut bounds: Vec<f64> =
                self.bounds.iter().chain(other.bounds.iter()).copied().collect();
            bounds.sort_by(f64::total_cmp);
            bounds.dedup();
            let mut counts = vec![0u64; bounds.len() + 1];
            for (src_bounds, src_counts) in
                [(&self.bounds, &self.counts), (&other.bounds, &other.counts)]
            {
                for (i, c) in src_counts.iter().enumerate() {
                    if *c == 0 {
                        continue;
                    }
                    let idx = match src_bounds.get(i) {
                        // Exact-bound match is guaranteed: the union
                        // contains every source bound.
                        Some(b) => bounds.iter().position(|x| x == b).unwrap(),
                        // Overflow stays overflow.
                        None => bounds.len(),
                    };
                    counts[idx] += c;
                }
            }
            self.bounds = bounds;
            self.counts = counts;
        }
        self.sum += other.sum;
        self.count += other.count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Source of [`Registry`] generations. 0 is never issued, so a fresh
/// [`Slot`] resolves on its first write.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Values of one kind under string names. `index` maps a name to its
/// position in `values`; positions are never reused or removed, so a
/// resolved position stays valid for the table's lifetime.
#[derive(Clone, Default)]
struct Table<T> {
    index: BTreeMap<String, usize>,
    values: Vec<T>,
}

impl<T: Copy> Table<T> {
    /// The position of `name`, inserting `init` on first use (the only
    /// time the name is copied).
    fn position(&mut self, name: &str, init: T) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.index.insert(name.to_owned(), self.values.len());
        self.values.push(init);
        self.values.len() - 1
    }

    fn entry(&mut self, name: &str, init: T) -> &mut T {
        let i = self.position(name, init);
        &mut self.values[i]
    }

    /// The value `slot` names, re-resolving it by name first unless it
    /// was resolved in this table's registry (`generation`).
    fn at(&mut self, slot: &mut Slot<T>, generation: u64, init: T) -> &mut T {
        if slot.generation != generation {
            slot.idx = self.position(&slot.name, init);
            slot.generation = generation;
        }
        &mut self.values[slot.idx]
    }

    fn get(&self, name: &str) -> Option<T> {
        self.index.get(name).map(|&i| self.values[i])
    }

    /// Every value in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, T)> {
        self.index.iter().map(|(k, &i)| (k.as_str(), self.values[i]))
    }
}

impl<T: Copy + PartialEq> PartialEq for Table<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A counter (`Slot<u64>`) or gauge (`Slot<f64>`) name resolved to its
/// position in one [`Registry`]. A write through a slot checks the
/// registry's generation: on a match it is one index; on a mismatch —
/// a slot never written, or one last written into another registry,
/// a clone included — it writes by name and re-resolves there. So a
/// slot never writes a registry other than the one it is handed, and
/// never skips a write into a new one.
#[derive(Debug, Clone)]
pub struct Slot<T> {
    name: String,
    /// Generation of the registry `idx` is valid in (0: none).
    generation: u64,
    idx: usize,
    kind: PhantomData<T>,
}

/// A resolved counter name, for [`Registry::incr_at`].
pub type CounterSlot = Slot<u64>;
/// A resolved gauge name, for [`Registry::set_gauge_at`].
pub type GaugeSlot = Slot<f64>;

impl<T> Slot<T> {
    /// An unresolved slot for `name`; its first write resolves it.
    pub fn new(name: impl Into<String>) -> Self {
        Slot { name: name.into(), generation: 0, idx: 0, kind: PhantomData }
    }
}

/// Counters, gauges, and histograms under string names.
///
/// Equality, `Debug` and the exports read names in name order and
/// ignore the generation, so two registries holding the same values
/// compare and export alike however their names were first written.
pub struct Registry {
    /// Issued from a process-wide counter at construction and again to
    /// every clone: the identity [`Slot`]s check.
    generation: u64,
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            counters: Table::default(),
            gauges: Table::default(),
            histograms: BTreeMap::new(),
        }
    }
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            ..Registry::default()
        }
    }
}

impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms)
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Bump a monotonic counter. Allocates the key only on first use.
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name, 0) += by;
    }

    /// [`Registry::incr`] through a resolved name.
    pub fn incr_at(&mut self, slot: &mut CounterSlot, by: u64) {
        *self.counters.at(slot, self.generation, 0) += by;
    }

    /// Read a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        *self.gauges.entry(name, v) = v;
    }

    /// [`Registry::set_gauge`] through a resolved name.
    pub fn set_gauge_at(&mut self, slot: &mut GaugeSlot, v: f64) {
        *self.gauges.at(slot, self.generation, v) = v;
    }

    /// Read a gauge, `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name)
    }

    /// Observe a value into a histogram with [`DEFAULT_BOUNDS`].
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with_bounds(name, v, DEFAULT_BOUNDS);
    }

    /// Observe into a histogram, creating it with `bounds` on first
    /// use (later observations ignore `bounds`).
    pub fn observe_with_bounds(&mut self, name: &str, v: f64, bounds: &[f64]) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(v);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Observe `vs` in order into one [`DEFAULT_BOUNDS`] histogram with
    /// one name lookup; the result is bit-identical to observing them
    /// one by one. An empty `vs` creates nothing.
    pub fn observe_all(&mut self, name: &str, vs: impl IntoIterator<Item = f64>) {
        let mut vs = vs.into_iter();
        let Some(first) = vs.next() else { return };
        let h = match self.histograms.get_mut(name) {
            Some(h) => h,
            None => self
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| Histogram::new(DEFAULT_BOUNDS)),
        };
        h.observe(first);
        vs.for_each(|v| h.observe(v));
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter()
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter()
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Merge another registry's counters into this one (counters add;
    /// gauges and histograms are untouched — use [`Registry::absorb_all`]
    /// to merge everything).
    pub fn absorb_counters(&mut self, other: &Registry) {
        for (k, v) in other.counters() {
            self.incr(k, v);
        }
    }

    /// Merge everything from another registry: counters add, gauges
    /// overwrite (last writer wins — per-shard aggregation names
    /// shard-scoped gauges so nothing collides), and same-name
    /// histograms merge observation-wise (see [`Histogram`]'s merge
    /// semantics for differing bounds).
    pub fn absorb_all(&mut self, other: &Registry) {
        self.absorb_counters(other);
        for (k, v) in other.gauges() {
            self.set_gauge(k, v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge_from(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Serialize as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,buckets:[{le,count},...]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), json_f64(v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_string(k),
                h.count,
                json_f64(h.sum),
                json_f64(h.min().unwrap_or(0.0)),
                json_f64(h.max().unwrap_or(0.0)),
            );
            for (j, (le, c)) in h.cumulative().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"le\":{},\"count\":{}}}", json_f64(le), c);
            }
            if !h.bounds.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "{{\"le\":\"+Inf\",\"count\":{}}}]}}", h.count);
        }
        out.push_str("}}");
        out
    }

    /// Serialize in the Prometheus text exposition format. Metric
    /// names are sanitized to `[a-zA-Z0-9_:]` (e.g. `mbA.packets` →
    /// `mbA_packets`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.counters.iter() {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in self.gauges.iter() {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", prom_f64(v));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, c) in h.cumulative() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {c}", prom_f64(le));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// JSON string literal with escaping for quotes/backslashes/control
/// characters (names here are ASCII identifiers in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number (integral values keep a `.0` off).
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite value in export: {v}");
    format!("{v}")
}

fn prom_f64(v: f64) -> String {
    format!("{v}")
}

/// Sanitize a metric name for the Prometheus exposition format.
fn prom_name(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.incr("ops", 2);
        r.incr("ops", 3);
        r.set_gauge("open", 4.0);
        r.set_gauge("open", 1.5);
        assert_eq!(r.counter("ops"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("open"), Some(1.5));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut r = Registry::new();
        for v in [0.5, 1.5, 1.5, 40.0] {
            r.observe_with_bounds("lat", v, &[1.0, 10.0]);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(40.0));
        let cum: Vec<_> = h.cumulative().collect();
        assert_eq!(cum, vec![(1.0, 1), (10.0, 3)]);
    }

    #[test]
    fn json_export_shape() {
        let mut r = Registry::new();
        r.incr("mbA.packets", 7);
        r.set_gauge("open_ops", 2.0);
        r.observe_with_bounds("lat_ms", 3.0, &[1.0, 10.0]);
        let j = r.to_json();
        assert!(j.contains("\"counters\":{\"mbA.packets\":7}"), "{j}");
        assert!(j.contains("\"gauges\":{\"open_ops\":2}"), "{j}");
        assert!(j.contains("\"histograms\":{\"lat_ms\":{\"count\":1"), "{j}");
        assert!(j.contains("{\"le\":\"+Inf\",\"count\":1}"), "{j}");
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn prometheus_export_shape() {
        let mut r = Registry::new();
        r.incr("mbA.packets", 7);
        r.observe_with_bounds("lat ms", 3.0, &[1.0, 10.0]);
        let p = r.to_prometheus_text();
        assert!(p.contains("# TYPE mbA_packets counter\nmbA_packets 7\n"), "{p}");
        assert!(p.contains("# TYPE lat_ms histogram"), "{p}");
        assert!(p.contains("lat_ms_bucket{le=\"10\"} 1"), "{p}");
        assert!(p.contains("lat_ms_bucket{le=\"+Inf\"} 1"), "{p}");
        assert!(p.contains("lat_ms_count 1"), "{p}");
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn absorb_counters_adds() {
        let mut a = Registry::new();
        a.incr("x", 1);
        let mut b = Registry::new();
        b.incr("x", 2);
        b.incr("y", 5);
        a.absorb_counters(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
    }

    #[test]
    fn absorb_all_merges_gauges_and_identical_histograms() {
        let mut a = Registry::new();
        a.incr("x", 1);
        a.set_gauge("g", 1.0);
        a.observe_with_bounds("h", 0.5, &[1.0, 10.0]);
        let mut b = Registry::new();
        b.incr("x", 2);
        b.set_gauge("g", 7.0);
        b.set_gauge("only_b", 3.0);
        b.observe_with_bounds("h", 5.0, &[1.0, 10.0]);
        b.observe_with_bounds("h2", 2.0, &[1.0]);
        a.absorb_all(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.gauge("g"), Some(7.0), "gauges overwrite");
        assert_eq!(a.gauge("only_b"), Some(3.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5.5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.cumulative().collect::<Vec<_>>(), vec![(1.0, 1), (10.0, 2)]);
        assert_eq!(a.histogram("h2").unwrap().count(), 1, "missing histograms copy over");
    }

    #[test]
    fn a_slot_used_on_a_fresh_registry_writes_it_by_name() {
        let mut a = Registry::new();
        let mut hits = CounterSlot::new("hits");
        let mut depth = GaugeSlot::new("depth");
        a.incr_at(&mut hits, 2);
        a.set_gauge_at(&mut depth, 3.0);
        let before = a.clone();

        // The swap a benchmark makes between ops: same slots, new registry.
        let mut b = Registry::new();
        b.incr_at(&mut hits, 5);
        b.set_gauge_at(&mut depth, 7.0);
        assert_eq!(a, before, "the old registry is never written");
        assert_eq!((b.counter("hits"), b.gauge("depth")), (5, Some(7.0)), "first write lands");
        b.incr_at(&mut hits, 1);
        assert_eq!(b.counter("hits"), 6);

        // A name the new registry already holds at another position.
        let mut c = Registry::new();
        c.incr("first", 1);
        c.incr_at(&mut hits, 4);
        assert_eq!((c.counter("first"), c.counter("hits")), (1, 4));
        assert_eq!(b.counter("hits"), 6);
    }

    #[test]
    fn a_clone_has_its_own_identity() {
        let mut a = Registry::new();
        let mut hits = CounterSlot::new("hits");
        a.incr_at(&mut hits, 1);
        let mut c = a.clone();
        assert_ne!(a.generation, c.generation);
        // A name only the original gains after the clone sits where a
        // slot resolved on the original would point.
        let mut late = CounterSlot::new("late");
        a.incr_at(&mut late, 10);
        c.incr("other", 1);
        c.incr_at(&mut late, 3);
        a.incr_at(&mut late, 10);
        c.incr_at(&mut hits, 100);
        assert_eq!((a.counter("hits"), a.counter("late"), a.counter("other")), (1, 20, 0));
        assert_eq!((c.counter("hits"), c.counter("late"), c.counter("other")), (101, 3, 1));
    }

    #[test]
    fn first_write_order_reaches_neither_equality_nor_exports() {
        let names = ["b.packets", "a.depth", "c.busy"];
        let mut by_name = Registry::new();
        for (i, n) in names.iter().enumerate() {
            by_name.incr(n, i as u64 + 1);
            by_name.set_gauge(n, i as f64 * 0.5);
        }
        by_name.observe("lat", 1.5);
        let mut by_slot = Registry::new();
        by_slot.observe("lat", 1.5);
        for (i, n) in names.iter().enumerate().rev() {
            by_slot.set_gauge_at(&mut GaugeSlot::new(*n), i as f64 * 0.5);
            by_slot.incr_at(&mut CounterSlot::new(*n), i as u64 + 1);
        }
        assert_eq!(by_name, by_slot);
        assert_eq!(by_name.to_json(), by_slot.to_json());
        assert_eq!(by_name.to_prometheus_text(), by_slot.to_prometheus_text());
        assert_eq!(format!("{by_name:?}"), format!("{by_slot:?}"));
        let order: Vec<&str> = by_slot.counters().map(|(k, _)| k).collect();
        assert_eq!(order, ["a.depth", "b.packets", "c.busy"]);
        by_slot.incr("a.depth", 1);
        assert_ne!(by_name, by_slot);
    }

    #[test]
    fn a_batch_observe_matches_per_value_observes_bit_for_bit() {
        // Sums of these depend on the order they are added in.
        let vs = [0.1, 0.2, 0.3, 1e-9, 12.5, 0.0007, 5000.0, 20000.0, 0.1];
        let mut one = Registry::new();
        for v in vs {
            one.observe("lat", v);
        }
        let mut all = Registry::new();
        all.observe_all("lat", vs);
        let (h1, h2) = (one.histogram("lat").unwrap(), all.histogram("lat").unwrap());
        assert_eq!(h1.sum().to_bits(), h2.sum().to_bits());
        assert_eq!((h1.count(), h1.min(), h1.max()), (h2.count(), h2.min(), h2.max()));
        assert!(h1.cumulative().eq(h2.cumulative()));
        assert_eq!(h1, h2);
        // Into an existing histogram, and nothing created by an empty batch.
        one.observe("lat", 3.0);
        all.observe_all("lat", [3.0]);
        all.observe_all("never", []);
        assert_eq!(one, all);
    }

    #[test]
    fn absorb_all_merges_overlapping_bounds_conservatively() {
        // a: bounds [10]; b: bounds [5, 10] — b subdivides a's first
        // bucket. The union is [5, 10]; a's (≤10) observations may not
        // be attributed below 10, so they land in the le=10 bucket.
        let mut a = Registry::new();
        a.observe_with_bounds("h", 3.0, &[10.0]);
        a.observe_with_bounds("h", 12.0, &[10.0]); // overflow
        let mut b = Registry::new();
        b.observe_with_bounds("h", 4.0, &[5.0, 10.0]);
        b.observe_with_bounds("h", 7.0, &[5.0, 10.0]);
        a.absorb_all(&b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 26.0);
        assert_eq!(h.min(), Some(3.0));
        assert_eq!(h.max(), Some(12.0));
        // Cumulative at 5: only b's 4.0 is *provably* ≤5 (a's 3.0 is
        // smeared into the ≤10 bucket — the merge is conservative).
        // Cumulative at 10 is exact: everything but the overflow.
        assert_eq!(h.cumulative().collect::<Vec<_>>(), vec![(5.0, 1), (10.0, 3)]);
    }
}
