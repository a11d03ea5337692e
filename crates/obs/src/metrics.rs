//! Typed metrics registry with deterministic flattening.
//!
//! Three metric kinds, all integer-valued so snapshots are byte-stable:
//!
//! * **counter** — monotone accumulator ([`MetricsRegistry::inc`]);
//! * **gauge** — last-write-wins sample ([`MetricsRegistry::set_gauge`]);
//! * **histogram** — fixed bucket boundaries declared at registration
//!   ([`MetricsRegistry::register_histogram`]); observations land in the
//!   first bucket whose upper bound is `>=` the value, with a `+Inf`
//!   overflow bucket, plus exact `count` and `sum`.
//!
//! [`MetricsRegistry::snapshot`] flattens everything into one
//! lexicographically-sorted `(name, value)` list — the canonical artifact
//! the golden-trace tests compare byte for byte, and what `SimReport`
//! embeds.

use std::collections::BTreeMap;

/// Default histogram bounds: decades from 1 µs to 100 ms in virtual ns.
pub const DEFAULT_TIME_BOUNDS: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// A fixed-boundary histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the `+Inf` overflow.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the bound
    /// of the first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Values that landed in the `+Inf` overflow bucket clamp to the
    /// largest declared bound, so the estimate stays integer-valued and
    /// deterministic. Returns `None` for an empty histogram.
    ///
    /// This is a bucketed estimate for dashboards (`serve.latency.p99_ns`
    /// and friends); benchmark gates that need exact percentiles keep the
    /// raw samples instead.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => *self.bounds.last().unwrap_or(&0),
                });
            }
        }
        Some(*self.bounds.last().unwrap_or(&0))
    }
}

/// One flattened metric row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    pub name: String,
    pub value: u64,
}

/// A flat, sorted, integer-valued view of a registry — the deterministic
/// artifact embedded in reports and compared in golden tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sorted by `name` (lexicographic, unique).
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| self.samples[i].value)
    }

    /// Like [`MetricsSnapshot::get`] but panics with the metric name — for
    /// tests asserting on metrics that must exist.
    pub fn expect(&self, name: &str) -> u64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric '{name}' missing from snapshot"))
    }

    /// Canonical text rendering: one `name value` line per sample, sorted.
    /// This is the golden-file format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.name);
            out.push(' ');
            out.push_str(&s.value.to_string());
            out.push('\n');
        }
        out
    }

    /// CSV rendering with a `metric,value` header (for `results/` dumps).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for s in &self.samples {
            out.push_str(&s.name);
            out.push(',');
            out.push_str(&s.value.to_string());
            out.push('\n');
        }
        out
    }

    /// Merge `other`'s samples into `self` (names must not collide;
    /// collisions keep the existing value and are a caller bug caught in
    /// debug builds).
    pub fn merged_with(mut self, other: &MetricsSnapshot) -> MetricsSnapshot {
        for s in &other.samples {
            debug_assert!(
                self.get(&s.name).is_none(),
                "metric '{}' present in both snapshots",
                s.name
            );
            self.samples.push(s.clone());
        }
        self.samples.sort_by(|a, b| a.name.cmp(&b.name));
        self
    }
}

/// The registry. Metric names are `&'static str` — the taxonomy is fixed
/// at compile time (DESIGN.md §9 lists it), which keeps the hot-path cost
/// to one BTreeMap lookup and makes collisions impossible to introduce at
/// runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &'static str, v: u64) {
        self.gauges.insert(name, v);
    }

    /// Declare histogram `name` with fixed `bounds` (strictly increasing).
    /// Idempotent for identical bounds; re-registering with different
    /// bounds is a caller bug (debug assertion).
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[u64]) {
        match self.histograms.get(name) {
            Some(h) => debug_assert_eq!(h.bounds(), bounds, "histogram '{name}' re-registered"),
            None => {
                self.histograms.insert(name, Histogram::new(bounds));
            }
        }
    }

    /// Record `v` into histogram `name` (auto-registers with
    /// [`DEFAULT_TIME_BOUNDS`] if not declared).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(DEFAULT_TIME_BOUNDS))
            .observe(v);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Flatten to the canonical sorted snapshot. Histograms expand to
    /// `name/le_<bound>` per bucket, `name/le_inf`, `name/count`, and
    /// `name/sum`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples: Vec<MetricSample> = Vec::new();
        for (&name, &v) in &self.counters {
            samples.push(MetricSample {
                name: name.to_string(),
                value: v,
            });
        }
        for (&name, &v) in &self.gauges {
            samples.push(MetricSample {
                name: name.to_string(),
                value: v,
            });
        }
        for (&name, h) in &self.histograms {
            for (i, &b) in h.bounds.iter().enumerate() {
                samples.push(MetricSample {
                    name: format!("{name}/le_{b}"),
                    value: h.counts[i],
                });
            }
            samples.push(MetricSample {
                name: format!("{name}/le_inf"),
                value: h.counts[h.bounds.len()],
            });
            samples.push(MetricSample {
                name: format!("{name}/count"),
                value: h.count,
            });
            samples.push(MetricSample {
                name: format!("{name}/sum"),
                value: h.sum,
            });
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        debug_assert!(
            samples.windows(2).all(|w| w[0].name != w[1].name),
            "metric name collision across kinds"
        );
        MetricsSnapshot { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.inc("a.x", 2);
        r.inc("a.x", 3);
        r.inc("a.y", 1);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("a.y"), 1);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("g", 7);
        r.set_gauge("g", 9);
        assert_eq!(r.gauge("g"), Some(9));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut r = MetricsRegistry::new();
        r.register_histogram("h", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            r.observe("h", v);
        }
        let h = r.histogram("h").unwrap();
        assert_eq!(h.counts, [2, 2, 0, 1]); // <=10: {5,10}; <=100: {11,100}; inf: {5000}
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn quantile_estimates_clamp_to_declared_bounds() {
        let mut r = MetricsRegistry::new();
        r.register_histogram("h", &[10, 100, 1000]);
        assert_eq!(r.histogram("h").unwrap().quantile(0.5), None);
        for v in [5, 10, 11, 100, 5000] {
            r.observe("h", v);
        }
        let h = r.histogram("h").unwrap();
        // cumulative counts per bucket: 2, 4, 4, 5
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.4), Some(10));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(0.8), Some(100));
        // p99 falls in the overflow bucket -> clamps to the largest bound
        assert_eq!(h.quantile(0.99), Some(1000));
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn snapshot_is_sorted_and_flat() {
        let mut r = MetricsRegistry::new();
        r.inc("z.counter", 1);
        r.set_gauge("a.gauge", 2);
        r.register_histogram("m.hist", &[10]);
        r.observe("m.hist", 4);
        let s = r.snapshot();
        let names: Vec<&str> = s.samples.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "a.gauge",
                "m.hist/count",
                "m.hist/le_10",
                "m.hist/le_inf",
                "m.hist/sum",
                "z.counter"
            ]
        );
        assert_eq!(s.get("z.counter"), Some(1));
        assert_eq!(s.get("m.hist/le_10"), Some(1));
        assert_eq!(s.get("nope"), None);
    }

    #[test]
    fn snapshot_text_is_canonical() {
        let mut r = MetricsRegistry::new();
        r.inc("b", 2);
        r.inc("a", 1);
        let s = r.snapshot();
        assert_eq!(s.to_text(), "a 1\nb 2\n");
        assert_eq!(s.to_csv(), "metric,value\na,1\nb,2\n");
        // identical registries render identically
        let mut r2 = MetricsRegistry::new();
        r2.inc("a", 1);
        r2.inc("b", 2);
        assert_eq!(r2.snapshot().to_text(), s.to_text());
    }

    #[test]
    fn merged_snapshots_stay_sorted() {
        let mut a = MetricsRegistry::new();
        a.inc("des.x", 1);
        let mut b = MetricsRegistry::new();
        b.inc("prm.y", 2);
        b.inc("app.z", 3);
        let m = a.snapshot().merged_with(&b.snapshot());
        let names: Vec<&str> = m.samples.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["app.z", "des.x", "prm.y"]);
    }
}
