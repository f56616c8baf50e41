//! Hand-rolled telemetry: lock-free histograms and a typed metric registry.
//!
//! The serving daemons need to answer "where does time go?" without
//! pulling in a metrics crate (the build is offline). This module
//! provides the three classic instrument kinds:
//!
//! - [`Counter`] — a monotone `AtomicU64`, added to where its event
//!   happens (a query answered, a cache miss).
//! - [`Gauge`] — a set-to-current-value `AtomicU64`, set where the state
//!   it reports changes (cache bytes, open connections).
//! - [`Histogram`] — a **lock-free log-linear-bucketed** distribution of
//!   `u64` observations (latencies in nanoseconds, backlog bytes). Every
//!   bucket is an `AtomicU64`, so recording is a single relaxed
//!   `fetch_add` from any thread. Counts are exact; quantiles are
//!   estimated with bounded relative error (see [`Histogram`]). A
//!   histogram's count is also the count of the events it times, so no
//!   counter beside it repeats that number.
//!
//! Instruments live in a [`Registry`] under stable `snake_case` names
//! plus optional `(key, value)` labels. Each `(name, labels)` pair is
//! registered once, by the owner that records into it; a second
//! registration panics. Reading never writes: [`Registry::snapshot`]
//! produces a plain-data [`MetricsSnapshot`] (no JSON, no I/O) that
//! callers serialize however they like; [`render_prometheus`] renders it
//! in the Prometheus text exposition format.
//!
//! ```
//! use rkranks_core::{Registry, render_prometheus};
//!
//! let reg = Registry::new();
//! let queries = reg.counter("queries_total", "queries served");
//! let latency = reg.histogram_scaled(
//!     "query_seconds", "end-to-end query latency", 1e-9,
//! );
//! queries.inc();
//! latency.record(12_500); // nanoseconds; rendered in seconds
//! let snap = reg.snapshot();
//! assert!(render_prometheus(&snap).contains("queries_total 1"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS = 32` linear sub-buckets, bounding the relative
/// quantile error at `1/32 ≈ 3.125%`.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Values with their most significant bit at or above this exponent
/// land in the overflow bucket (`2^40` ns ≈ 18 minutes).
const MAX_EXP: u32 = 40;
/// Values below `SUB` get one exact bucket each.
const EXACT: usize = SUB;
/// Grouped buckets: one octave per exponent in `SUB_BITS..MAX_EXP`.
const GROUPED: usize = (MAX_EXP - SUB_BITS) as usize * SUB;
/// Index of the single overflow bucket.
const OVERFLOW: usize = EXACT + GROUPED;
/// Total bucket count (32 exact + 1120 grouped + 1 overflow = 1153).
const NUM_BUCKETS: usize = OVERFLOW + 1;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    if msb >= MAX_EXP {
        return OVERFLOW;
    }
    let shift = msb - SUB_BITS;
    EXACT + (shift as usize) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Largest value a bucket can hold (the quantile estimate for any
/// observation that landed in it).
fn bucket_upper(index: usize) -> u64 {
    if index < EXACT {
        return index as u64;
    }
    if index >= OVERFLOW {
        return u64::MAX;
    }
    let shift = ((index - EXACT) / SUB) as u32;
    let sub = ((index - EXACT) % SUB) as u64;
    ((SUB as u64 + sub + 1) << shift) - 1
}

/// A monotonically increasing `AtomicU64` metric.
///
/// The only mutators are [`Counter::inc`] / [`Counter::add`]; use a
/// [`Gauge`] for values that can go down.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A set-to-current-value `AtomicU64` metric (may go up or down).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` to the current value.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the current value (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        // fetch_update loops only under contention; gauges are cold.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear-bucketed histogram of `u64` observations.
///
/// Each power-of-two octave is split into 32 linear sub-buckets, so a
/// quantile estimate (the upper bound of the bucket holding the target
/// rank) overshoots the true order statistic by at most `1/32 ≈ 3.125%`
/// (exact below 32, where every value has its own bucket). Values at or
/// above `2^40` share one overflow bucket whose estimate is `u64::MAX`.
///
/// Recording is two relaxed `fetch_add`s per observation, one for the
/// bucket and one for the running sum — safe from any number of threads.
/// The count is the sum of the bucket counts; quantiles are read from a
/// [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded (sum of all bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values (wraps on `u64` overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freeze the current state into a plain-data [`HistogramSnapshot`].
    ///
    /// Internally consistent even while other threads record: the
    /// snapshot count is the sum of the bucket counts it actually read
    /// (`sum` is read separately and may trail by in-flight records).
    pub fn snapshot(&self, scale: f64) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                count += n;
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            scale,
            buckets,
        }
    }
}

/// Frozen state of a [`Histogram`]: non-empty buckets in ascending
/// order, each as `(upper_bound, count)` in the histogram's raw units.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations (always equals the sum of `buckets` counts).
    pub count: u64,
    /// Sum of raw recorded values.
    pub sum: u64,
    /// Multiplier from raw units to display units (e.g. `1e-9` for
    /// nanosecond observations rendered as seconds).
    pub scale: f64,
    /// `(raw upper bound, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` in `[0, 1]`) in raw units: the
    /// upper bound of the bucket holding the `ceil(q·count)`-th smallest
    /// observation. Never below the true order statistic; above it by
    /// < 3.125%. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map_or(0, |&(upper, _)| upper)
    }

    /// Sum of raw values converted to display units.
    pub fn scaled_sum(&self) -> f64 {
        self.sum as f64 * self.scale
    }
}

/// The value half of a metric sample.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotone counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// One named instrument's frozen state.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Stable `snake_case` metric name.
    pub name: String,
    /// `(key, value)` labels, in registration order.
    pub labels: Vec<(String, String)>,
    /// One-line human description.
    pub help: String,
    /// The reading.
    pub value: MetricValue,
}

/// A full registry snapshot, in registration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered instrument's current reading.
    pub samples: Vec<MetricSample>,
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram { hist: Arc<Histogram>, scale: f64 },
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    instrument: Instrument,
}

/// A typed registry of named instruments.
///
/// Names must be `snake_case` (`[a-z][a-z0-9_]*`), and each
/// `(name, labels)` pair is registered once: a second registration
/// panics, whatever its kind — that is always a programming error. The
/// registry itself takes a mutex only at registration and snapshot
/// time; recording through the returned `Arc` handles is lock-free.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Register a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, labels, help, Instrument::Counter(Arc::clone(&c)));
        c
    }

    /// Register an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register(name, &[], help, Instrument::Gauge(Arc::clone(&g)));
        g
    }

    /// Register an unlabeled histogram of raw `u64` values (scale 1 —
    /// rendered as-is).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help, 1.0)
    }

    /// Register an unlabeled histogram with a display scale (e.g. `1e-9`
    /// to record nanoseconds and expose seconds).
    pub fn histogram_scaled(&self, name: &str, help: &str, scale: f64) -> Arc<Histogram> {
        self.histogram_with(name, &[], help, scale)
    }

    /// Register a labeled, scaled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        scale: f64,
    ) -> Arc<Histogram> {
        let hist = Arc::new(Histogram::new());
        let instrument = Instrument::Histogram {
            hist: Arc::clone(&hist),
            scale,
        };
        self.register(name, labels, help, instrument);
        hist
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], help: &str, instrument: Instrument) {
        assert!(
            valid_name(name),
            "metric name {name:?} is not snake_case ([a-z][a-z0-9_]*)"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut entries = self.entries.lock().expect("telemetry registry poisoned");
        assert!(
            !entries.iter().any(|e| e.name == name && e.labels == labels),
            "metric {name:?} {labels:?} already registered"
        );
        entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            instrument,
        });
    }

    /// Freeze every instrument's current reading.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("telemetry registry poisoned");
        MetricsSnapshot {
            samples: entries
                .iter()
                .map(|e| MetricSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    value: match &e.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram { hist, scale } => {
                            MetricValue::Histogram(hist.snapshot(*scale))
                        }
                    },
                })
                .collect(),
        }
    }
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Render a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers, cumulative
/// `_bucket{le="…"}` series plus `_sum` / `_count` for histograms.
/// Histogram bucket bounds and sums are multiplied by the snapshot's
/// scale, so nanosecond histograms registered with scale `1e-9` expose
/// seconds, per Prometheus convention.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut done: Vec<&str> = Vec::new();
    for sample in &snap.samples {
        if done.contains(&sample.name.as_str()) {
            continue;
        }
        done.push(&sample.name);
        let family: Vec<&MetricSample> = snap
            .samples
            .iter()
            .filter(|s| s.name == sample.name)
            .collect();
        let kind = match &sample.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        out.push_str(&format!("# HELP {} {}\n", sample.name, sample.help));
        out.push_str(&format!("# TYPE {} {}\n", sample.name, kind));
        for s in family {
            match &s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, None),
                        v
                    ));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for &(upper, n) in &h.buckets {
                        cum += n;
                        let le = fmt_f64(upper as f64 * h.scale);
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            label_block(&s.labels, Some(&le)),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_block(&s.labels, Some("+Inf")),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        label_block(&s.labels, None),
                        fmt_f64(h.scaled_sum())
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        label_block(&s.labels, None),
                        h.count
                    ));
                }
            }
        }
    }
    out
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `f64` in a form Prometheus parses: plain decimal (Rust's `Display`
/// never emits scientific notation), with `u64::MAX`-scaled overflow
/// bounds mapped to `+Inf`-adjacent large finite values as-is.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        let mut prev = 0u64;
        for i in 0..NUM_BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert!(i == 0 || upper > prev, "bucket {i} not monotone");
            // The upper bound maps back into its own bucket.
            assert_eq!(bucket_index(upper), i);
            // The next value starts the next bucket.
            assert_eq!(bucket_index(upper + 1), i + 1);
            prev = upper;
        }
        assert_eq!(bucket_upper(OVERFLOW), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), OVERFLOW);
        assert_eq!(bucket_index(1 << MAX_EXP), OVERFLOW);
        assert_eq!(bucket_index((1 << MAX_EXP) - 1), OVERFLOW - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // For every bucket below overflow, (upper - lower)/lower < 1/32.
        for i in EXACT..OVERFLOW {
            let upper = bucket_upper(i);
            let lower = bucket_upper(i - 1) + 1;
            let width = (upper - lower) as f64;
            assert!(
                width <= lower as f64 / SUB as f64,
                "bucket {i}: width {width} too wide for lower bound {lower}"
            );
        }
    }

    #[test]
    fn quantiles_bound_order_statistics() {
        let h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * i).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        for &(q, rank) in &[(0.5, 500usize), (0.95, 950), (0.99, 990), (1.0, 1000)] {
            let exact = values[rank - 1];
            let est = h.snapshot(1.0).quantile(q);
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                est as f64 <= exact as f64 * (1.0 + 1.0 / SUB as f64) + 1.0,
                "q={q}: {est} overshoots exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().snapshot(1.0).quantile(0.5), 0);
        assert_eq!(Histogram::new().snapshot(1.0).count, 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_refuses_a_second_registration() {
        let reg = Registry::new();
        reg.counter_with("hits_total", &[("kind", "a")], "hits");
        // Distinct labels are distinct instruments...
        reg.counter_with("hits_total", &[("kind", "b")], "hits");
        // ...but the same pair twice is a programming error.
        reg.counter_with("hits_total", &[("kind", "a")], "hits");
    }

    #[test]
    #[should_panic(expected = "not snake_case")]
    fn registry_rejects_bad_names() {
        Registry::new().counter("Bad-Name", "nope");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x_total", "x");
        reg.gauge("x_total", "x");
    }

    #[test]
    fn snapshot_orders_and_reads() {
        let reg = Registry::new();
        reg.counter("a_total", "a").add(3);
        reg.gauge("b_bytes", "b").set(9);
        reg.histogram("c_raw", "c").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(snap.samples[0].value, MetricValue::Counter(3));
        assert_eq!(snap.samples[1].value, MetricValue::Gauge(9));
        match &snap.samples[2].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 42);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter_with("q_total", &[("strategy", "naive")], "queries")
            .add(2);
        reg.counter_with("q_total", &[("strategy", "static")], "queries")
            .add(1);
        let h = reg.histogram_scaled("lat_seconds", "latency", 1e-9);
        h.record(1_000);
        h.record(2_000);
        let text = render_prometheus(&reg.snapshot());
        // One HELP/TYPE pair per family, even with two label sets.
        assert_eq!(text.matches("# TYPE q_total counter").count(), 1);
        assert!(text.contains("q_total{strategy=\"naive\"} 2"));
        assert!(text.contains("q_total{strategy=\"static\"} 1"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_seconds_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
    }
}
