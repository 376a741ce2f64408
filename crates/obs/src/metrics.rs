//! A deterministic metrics registry.
//!
//! Counters, gauges, and fixed-bucket histograms keyed by name, held in
//! name order. The registry is plain single-threaded data and is written
//! only in bulk: by the engine's recorder at teardown, which keeps its
//! per-event counts as typed fields until then, and by the store decoder.
//! Nothing updates it per event, so a name lookup costs nothing that
//! matters.
//!
//! Exports iterate in name order, so the same run always renders the same
//! bytes — NDJSON dumps can be golden-tested.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram bucket upper bounds of [`Histogram::default`]: decades from
/// 1 to 1e6 (values are typically microseconds, so this spans 1 µs –
/// 1 s).
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

impl Default for Histogram {
    /// An empty histogram over decade buckets from 1 to 1e6.
    fn default() -> Self {
        Histogram {
            bounds: DEFAULT_BUCKETS.to_vec(),
            counts: vec![0; DEFAULT_BUCKETS.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, value: f64) {
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

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// The registry: every metric under its name, in name order. A name holds
/// one metric; writing a metric of another kind under it replaces it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter, creating it at zero on first use.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v += n,
            _ => {
                self.metrics.insert(name.to_owned(), Metric::Counter(n));
            }
        }
    }

    /// The named counter's value, or `None` if never touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            Metric::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Set the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), Metric::Gauge(value));
    }

    /// The named gauge's value, or `None` if never touched.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name)? {
            Metric::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Insert (or replace) a fully built histogram.
    pub fn histogram_insert(&mut self, name: &str, histogram: Histogram) {
        self.metrics
            .insert(name.to_owned(), Metric::Histogram(histogram));
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.metrics.iter().filter_map(|(n, m)| match m {
            Metric::Counter(v) => Some((n.as_str(), *v)),
            _ => None,
        })
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().filter_map(|(n, m)| match m {
            Metric::Gauge(v) => Some((n.as_str(), *v)),
            _ => None,
        })
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.metrics.iter().filter_map(|(n, m)| match m {
            Metric::Histogram(h) => Some((n.as_str(), h)),
            _ => None,
        })
    }

    /// Newline-delimited JSON: one object per metric, in name order.
    /// Deterministic byte-for-byte for a deterministic run.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, r#"{{"type":"counter","name":"{name}","value":{v}}}"#);
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, r#"{{"type":"gauge","name":"{name}","value":{v}}}"#);
                }
                Metric::Histogram(h) => {
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
        let width = self.metrics.keys().map(String::len).max().unwrap_or(0);
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name:width$}  {v}");
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{name:width$}  {v:.3}");
                }
                Metric::Histogram(h) => {
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
        m.counter_add("b.600", 7);
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
        let mut h = Histogram::from_parts(vec![10.0, 100.0], vec![0; 3], 0, 0.0).unwrap();
        h.record(5.0);
        h.record(10.0); // inclusive upper bound
        h.record(50.0);
        h.record(1e9); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - (5.0 + 10.0 + 50.0 + 1e9) / 4.0).abs() < 1e-6);
    }

    #[test]
    fn default_histogram_has_decade_buckets() {
        let mut h = Histogram::default();
        h.record(250.0);
        assert_eq!(h.bounds(), DEFAULT_BUCKETS);
        assert_eq!(h.counts(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }

    /// A name holds one metric: a later write of another kind replaces
    /// it, and each typed getter sees only its own kind.
    #[test]
    fn a_name_holds_one_metric() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x", 3);
        m.gauge_set("x", 1.5);
        assert_eq!(m.counter("x"), None);
        assert_eq!(m.gauge("x"), Some(1.5));
        m.counter_add("x", 2);
        assert_eq!(m.counter("x"), Some(2));
        assert_eq!(m.gauges().count(), 0);
    }

    #[test]
    fn ndjson_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.gauge_set("a.first", 2.5);
        m.histogram_insert("m.middle", Histogram::default());
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
        let mut h = Histogram::default();
        h.record(5.0);
        m.histogram_insert("lat", h);
        let s = m.render_stats();
        for needle in ["events", "depth", "lat", "12", "n=1"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
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

    /// The store decoder writes metrics back in whatever order it reads
    /// them; the registry compares equal to the original either way.
    #[test]
    fn write_order_does_not_change_the_registry() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.second", 2);
        m.counter_add("a.first", 1);
        m.gauge_set("g", 4.5);
        m.histogram_insert("lat", Histogram::default());

        let mut rebuilt = MetricsRegistry::new();
        for (name, h) in m.histograms() {
            rebuilt.histogram_insert(name, h.clone());
        }
        for (name, v) in m.gauges() {
            rebuilt.gauge_set(name, v);
        }
        for (name, v) in m.counters() {
            rebuilt.counter_add(name, v);
        }
        assert_eq!(m, rebuilt);
        let names: Vec<&str> = rebuilt.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "z.second"]);
    }
}
