//! A deterministic metrics registry.
//!
//! Counters, gauges, and fixed-bucket histograms keyed by name. The
//! registry is plain single-threaded data — "lock-free in spirit": the
//! simulator is deterministic precisely because nothing in it is
//! concurrent, and the metrics layer follows suit. Names are interned as
//! `Cow<'static, str>` so hot-path updates with `&'static str` names never
//! allocate; derived metrics recorded once at teardown (per-frequency
//! residency, per-node totals) may use owned names.
//!
//! Exports are sorted by name, so the same run always renders the same
//! bytes — NDJSON dumps can be golden-tested.

use std::borrow::Cow;
use std::fmt::Write as _;

use sim_core::FxHashMap;

type Name = Cow<'static, str>;

/// Histogram bucket upper bounds used by [`MetricsRegistry::observe`] when
/// a histogram is first touched without explicit buckets: decades from 1
/// to 1e6 (values are typically microseconds, so this spans 1 µs – 1 s).
pub(crate) const DEFAULT_BUCKETS: &[f64] =
    &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`; one extra overflow bucket catches everything larger.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bounds.
    pub(crate) fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub(crate) fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (zero when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (one more entry than `bounds`: the overflow
    /// bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild a histogram from previously exported parts (the SweepStore
    /// decode path). Returns `None` instead of panicking when the parts
    /// are inconsistent — bounds empty or not strictly ascending, or a
    /// counts vector that does not cover every bucket plus overflow — so
    /// corrupt input surfaces as a decode error, not an abort.
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>, count: u64, sum: f64) -> Option<Self> {
        if bounds.is_empty()
            || counts.len() != bounds.len() + 1
            || !bounds.windows(2).all(|w| w[0] < w[1])
        {
            return None;
        }
        Some(Histogram {
            bounds,
            counts,
            count,
            sum,
        })
    }
}

/// A snapshot view of one metric, for iteration and reporting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricValue<'a> {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(&'a Histogram),
}

/// The registry: insertion-ordered storage, name-indexed lookup, sorted
/// deterministic export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(Name, u64)>,
    gauges: Vec<(Name, f64)>,
    histograms: Vec<(Name, Histogram)>,
    counter_idx: FxHashMap<Name, usize>,
    gauge_idx: FxHashMap<Name, usize>,
    histogram_idx: FxHashMap<Name, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- counters --------------------------------------------------------

    /// Add `n` to the named counter, creating it at zero on first use.
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        self.counter_add_name(Cow::Borrowed(name), n);
    }

    /// [`MetricsRegistry::counter_add`] with an owned (dynamic) name — for
    /// teardown-time metrics like per-frequency residency.
    pub fn counter_add_owned(&mut self, name: String, n: u64) {
        self.counter_add_name(Cow::Owned(name), n);
    }

    fn counter_add_name(&mut self, name: Name, n: u64) {
        if let Some(&i) = self.counter_idx.get(name.as_ref()) {
            self.counters[i].1 += n;
        } else {
            self.counter_idx.insert(name.clone(), self.counters.len());
            self.counters.push((name, n));
        }
    }

    /// The named counter's value, or `None` if never touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_idx.get(name).map(|&i| self.counters[i].1)
    }

    // ----- gauges ----------------------------------------------------------

    /// Set the named gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauge_set_name(Cow::Borrowed(name), value);
    }

    /// [`MetricsRegistry::gauge_set`] with an owned (dynamic) name.
    pub fn gauge_set_owned(&mut self, name: String, value: f64) {
        self.gauge_set_name(Cow::Owned(name), value);
    }

    fn gauge_set_name(&mut self, name: Name, value: f64) {
        if let Some(&i) = self.gauge_idx.get(name.as_ref()) {
            self.gauges[i].1 = value;
        } else {
            self.gauge_idx.insert(name.clone(), self.gauges.len());
            self.gauges.push((name, value));
        }
    }

    /// The named gauge's value, or `None` if never touched.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_idx.get(name).map(|&i| self.gauges[i].1)
    }

    // ----- histograms ------------------------------------------------------

    /// Record `value` into the named histogram, creating it with
    /// `DEFAULT_BUCKETS` on first use.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if let Some(&i) = self.histogram_idx.get(name) {
            self.histograms[i].1.record(value);
        } else {
            let name: Name = Cow::Borrowed(name);
            self.histogram_idx
                .insert(name.clone(), self.histograms.len());
            let mut h = Histogram::new(DEFAULT_BUCKETS);
            h.record(value);
            self.histograms.push((name, h));
        }
    }

    /// Insert (or replace) a fully built histogram under an owned name —
    /// the SweepStore decode path, which must reconstruct a registry that
    /// compares equal to the one the engine produced.
    pub fn histogram_insert_owned(&mut self, name: String, histogram: Histogram) {
        let name: Name = Cow::Owned(name);
        if let Some(&i) = self.histogram_idx.get(name.as_ref()) {
            self.histograms[i].1 = histogram;
        } else {
            self.histogram_idx
                .insert(name.clone(), self.histograms.len());
            self.histograms.push((name, histogram));
        }
    }

    // ----- iteration and export --------------------------------------------

    /// Counters in insertion order. Serializers that must reproduce a
    /// registry exactly (derived `PartialEq` includes insertion order) use
    /// this instead of `MetricsRegistry::sorted`.
    pub fn counters_in_order(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Gauges in insertion order (see [`MetricsRegistry::counters_in_order`]).
    pub fn gauges_in_order(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_ref(), *v))
    }

    /// Histograms in insertion order (see
    /// [`MetricsRegistry::counters_in_order`]).
    pub fn histograms_in_order(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_ref(), h))
    }

    /// Every metric, sorted by name (the deterministic export order).
    pub(crate) fn sorted(&self) -> Vec<(&str, MetricValue<'_>)> {
        let mut out: Vec<(&str, MetricValue<'_>)> =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (name, v) in &self.counters {
            out.push((name.as_ref(), MetricValue::Counter(*v)));
        }
        for (name, v) in &self.gauges {
            out.push((name.as_ref(), MetricValue::Gauge(*v)));
        }
        for (name, h) in &self.histograms {
            out.push((name.as_ref(), MetricValue::Histogram(h)));
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Newline-delimited JSON: one object per metric, sorted by name.
    /// Deterministic byte-for-byte for a deterministic run.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.sorted() {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, r#"{{"type":"counter","name":"{name}","value":{v}}}"#);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, r#"{{"type":"gauge","name":"{name}","value":{v}}}"#);
                }
                MetricValue::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds().iter().map(|b| b.to_string()).collect();
                    let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
                    let _ = writeln!(
                        out,
                        r#"{{"type":"histogram","name":"{name}","count":{},"sum":{},"bounds":[{}],"counts":[{}]}}"#,
                        h.count(),
                        h.sum(),
                        bounds.join(","),
                        counts.join(","),
                    );
                }
            }
        }
        out
    }

    /// A human-readable summary table (the body `pwrperf run --metrics`
    /// appends).
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        let width = self
            .sorted()
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in self.sorted() {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:width$}  {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:width$}  {v:.3}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:width$}  n={} mean={:.1} buckets={:?}",
                        h.count(),
                        h.mean(),
                        h.counts(),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", 1);
        m.counter_add("a", 2);
        m.counter_add_owned("b.600".to_string(), 7);
        assert_eq!(m.counter("a"), Some(3));
        assert_eq!(m.counter("b.600"), Some(7));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn gauges_set_overwrites() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", 5.0);
        m.gauge_set("g", 3.0);
        assert_eq!(m.gauge("g"), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.record(5.0);
        h.record(10.0); // inclusive upper bound
        h.record(50.0);
        h.record(1e9); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - (5.0 + 10.0 + 50.0 + 1e9) / 4.0).abs() < 1e-6);
    }

    #[test]
    fn observe_creates_default_buckets() {
        let mut m = MetricsRegistry::new();
        m.observe("lat", 250.0);
        let (_, h) = m.histograms_in_order().next().unwrap();
        assert_eq!(h.bounds(), DEFAULT_BUCKETS);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn ndjson_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.gauge_set("a.first", 2.5);
        m.observe("m.middle", 42.0);
        let a = m.to_ndjson();
        let b = m.to_ndjson();
        assert_eq!(a, b);
        let names: Vec<&str> = a
            .lines()
            .map(|l| {
                l.split("\"name\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert!(a.contains(r#""type":"histogram""#));
    }

    #[test]
    fn render_stats_mentions_every_metric() {
        let mut m = MetricsRegistry::new();
        m.counter_add("events", 12);
        m.gauge_set("depth", 3.0);
        m.observe("lat", 5.0);
        let s = m.render_stats();
        for needle in ["events", "depth", "lat", "12", "n=1"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_buckets_panic() {
        let _ = Histogram::new(&[10.0, 5.0]);
    }

    #[test]
    fn from_parts_validates_shape() {
        assert!(Histogram::from_parts(vec![], vec![0], 0, 0.0).is_none());
        assert!(Histogram::from_parts(vec![1.0, 2.0], vec![0, 0], 0, 0.0).is_none());
        assert!(Histogram::from_parts(vec![2.0, 1.0], vec![0, 0, 0], 0, 0.0).is_none());
        let h = Histogram::from_parts(vec![1.0, 2.0], vec![1, 2, 3], 6, 9.0).unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.counts(), &[1, 2, 3]);
    }

    #[test]
    fn insertion_order_iteration_rebuilds_an_equal_registry() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.second", 2);
        m.counter_add("a.first", 1);
        m.gauge_set("g", 4.5);
        m.observe("lat", 12.0);

        let mut rebuilt = MetricsRegistry::new();
        for (name, v) in m.counters_in_order() {
            rebuilt.counter_add_owned(name.to_string(), v);
        }
        for (name, v) in m.gauges_in_order() {
            rebuilt.gauge_set_owned(name.to_string(), v);
        }
        for (name, h) in m.histograms_in_order() {
            let copy =
                Histogram::from_parts(h.bounds().to_vec(), h.counts().to_vec(), h.count(), h.sum())
                    .unwrap();
            rebuilt.histogram_insert_owned(name.to_string(), copy);
        }
        assert_eq!(m, rebuilt);
        // Insertion order is part of the contract: counters came back in
        // the original (unsorted) order.
        let names: Vec<&str> = rebuilt.counters_in_order().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z.second", "a.first"]);
    }
}
