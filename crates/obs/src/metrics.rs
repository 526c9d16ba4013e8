//! Typed process-wide metrics: counters, gauges, and log₂-bucketed
//! histograms in a global sharded registry.
//!
//! Unlike spans, metrics are always live: recording is a single relaxed
//! atomic RMW on an `Arc`'d cell. Name → handle resolution goes through a
//! sharded `Mutex<BTreeMap>`, so call sites are expected to resolve once and
//! cache the handle — the [`obs_counter!`](crate::obs_counter),
//! [`obs_gauge!`](crate::obs_gauge), and
//! [`obs_histogram!`](crate::obs_histogram) macros do this with a per-call-site
//! `OnceLock`.
//!
//! [`export_json`] renders the whole registry; `hc-serve` merges it into its
//! `/metrics` document under the `"library"` key.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json;

/// Number of log₂ histogram buckets; bucket `i` covers values of bit-length
/// `i` (`2^(i-1) ≤ v < 2^i`, with 0 in bucket 0), and the last bucket is
/// unbounded. `hc-serve`'s per-endpoint latency histograms are these cells
/// too.
pub const BUCKETS: usize = 24;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. requests currently in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for value `v`: its bit-length (`64 - leading_zeros`), capped
/// at `BUCKETS - 1`. Zero lands in bucket 0; bucket `i` holds `v < 2^i`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Upper bound `2^i` of the bucket holding the `q`-quantile of `buckets`
/// (per-bucket counts): the first bucket at which the running count reaches
/// `⌈n·q⌉` of the `n` observations. 0 when empty; the overflow bucket reports
/// `2^(BUCKETS-1)`. `hc-serve` runs it on cumulative endpoint histograms for
/// `/metrics` and on per-second deltas for the tsdb collector.
pub fn quantile_upper(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = (count as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return 1u64 << i;
        }
    }
    1u64 << (BUCKETS - 1)
}

/// One retained observation pinned to a histogram bucket: the most recent
/// value that landed there while a flight record was active, plus the
/// identity needed to jump from the bucket to `/debug/requests/{id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The request id of the observing request (`X-Request-Id`).
    pub request_id: String,
    /// The observing request's W3C `traceparent`.
    pub traceparent: String,
    /// The observed value.
    pub value: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

/// Log₂-bucketed histogram of unsigned values (iterations, microseconds, …).
///
/// Each bucket additionally retains the most recent [`Exemplar`]: when an
/// observation happens on a thread with an active flight record, the
/// request's identity is pinned to the bucket the value landed in — the
/// OpenMetrics exemplar idea, joined to the in-process flight recorder
/// instead of an external trace store. Exemplar capture costs one
/// thread-local flag read when disarmed and a `try_lock` (never blocking the
/// hot path) when armed.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    exemplars: [Mutex<Option<Exemplar>>; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| Mutex::new(None)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        if crate::recorder::recording() {
            self.capture_exemplar(v);
        }
    }

    /// Pins the current request's identity onto the bucket `v` landed in.
    /// Off the fast path: only reached with a flight record armed, and a
    /// contended slot is skipped rather than waited on.
    #[cold]
    fn capture_exemplar(&self, v: u64) {
        let Some((request_id, traceparent)) = crate::recorder::current_context() else {
            return;
        };
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        if let Ok(mut slot) = self.exemplars[bucket_index(v)].try_lock() {
            *slot = Some(Exemplar {
                request_id,
                traceparent,
                value: v,
                unix_ms,
            });
        }
    }

    /// The retained exemplars, as `(bucket_index, exemplar)` pairs in bucket
    /// order. Buckets that never saw an armed observation are absent.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        let mut out = Vec::new();
        for (i, slot) in self.exemplars.iter().enumerate() {
            if let Ok(guard) = slot.try_lock() {
                if let Some(e) = guard.as_ref() {
                    out.push((i, e.clone()));
                }
            }
        }
        out
    }

    /// Records a duration in whole microseconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) observation counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

const SHARDS: usize = 8;

fn registry() -> &'static [Mutex<BTreeMap<&'static str, Metric>>; SHARDS] {
    static REGISTRY: OnceLock<[Mutex<BTreeMap<&'static str, Metric>>; SHARDS]> = OnceLock::new();
    REGISTRY.get_or_init(|| std::array::from_fn(|_| Mutex::new(BTreeMap::new())))
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name; only first-registration and export take this path.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARDS
}

/// Interns `name` so dynamically-built metric names (e.g. per-heuristic
/// counters) can live in the `&'static str`-keyed registry. Only leaks on
/// first registration, so the leak is bounded by the metric-name universe.
fn intern(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Returns the counter registered under `name`, creating it if absent.
///
/// If `name` is already registered as a different metric kind, a detached
/// (unregistered, never exported) handle is returned rather than panicking:
/// observability must not take down the instrumented process.
pub fn counter(name: &'static str) -> Arc<Counter> {
    let mut shard = registry()[shard_of(name)].lock().unwrap();
    match shard
        .entry(name)
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => c.clone(),
        _ => Arc::new(Counter::default()),
    }
}

/// [`counter`] for a runtime-built name; the name is interned (leaked) on
/// first registration.
pub fn counter_owned(name: String) -> Arc<Counter> {
    let mut shard = registry()[shard_of(&name)].lock().unwrap();
    if let Some(existing) = shard.get(name.as_str()) {
        return match existing {
            Metric::Counter(c) => c.clone(),
            _ => Arc::new(Counter::default()),
        };
    }
    let c = Arc::new(Counter::default());
    shard.insert(intern(name), Metric::Counter(c.clone()));
    c
}

/// Returns the gauge registered under `name`, creating it if absent.
/// Kind mismatches yield a detached handle (see [`counter`]).
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    let mut shard = registry()[shard_of(name)].lock().unwrap();
    match shard
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => g.clone(),
        _ => Arc::new(Gauge::default()),
    }
}

/// Returns the histogram registered under `name`, creating it if absent.
/// Kind mismatches yield a detached handle (see [`counter`]).
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    let mut shard = registry()[shard_of(name)].lock().unwrap();
    match shard
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
    {
        Metric::Histogram(h) => h.clone(),
        _ => Arc::new(Histogram::default()),
    }
}

/// Current value of the counter named `name`, if registered.
pub fn counter_value(name: &str) -> Option<u64> {
    let shard = registry()[shard_of(name)].lock().unwrap();
    match shard.get(name) {
        Some(Metric::Counter(c)) => Some(c.get()),
        _ => None,
    }
}

/// Current value of the gauge named `name`, if registered.
pub fn gauge_value(name: &str) -> Option<i64> {
    let shard = registry()[shard_of(name)].lock().unwrap();
    match shard.get(name) {
        Some(Metric::Gauge(g)) => Some(g.get()),
        _ => None,
    }
}

/// `(count, sum)` of the histogram named `name`, if registered.
pub fn histogram_totals(name: &str) -> Option<(u64, u64)> {
    let shard = registry()[shard_of(name)].lock().unwrap();
    match shard.get(name) {
        Some(Metric::Histogram(h)) => Some((h.count(), h.sum())),
        _ => None,
    }
}

/// Point-in-time snapshot of the whole registry as three sorted maps:
/// counters, gauges, and histograms (`count`, `sum`, per-bucket counts).
/// Shared by the JSON export and the Prometheus renderer so the two formats
/// can never disagree about what exists.
#[allow(clippy::type_complexity)]
pub fn snapshot_all() -> (
    BTreeMap<&'static str, u64>,
    BTreeMap<&'static str, i64>,
    BTreeMap<&'static str, (u64, u64, [u64; BUCKETS])>,
) {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut hists: BTreeMap<&'static str, (u64, u64, [u64; BUCKETS])> = BTreeMap::new();
    for shard in registry() {
        let guard = shard.lock().unwrap();
        for (name, metric) in guard.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name, c.get());
                }
                Metric::Gauge(g) => {
                    gauges.insert(name, g.get());
                }
                Metric::Histogram(h) => {
                    hists.insert(name, (h.count(), h.sum(), h.bucket_counts()));
                }
            }
        }
    }
    (counters, gauges, hists)
}

/// Every histogram's retained exemplars, keyed by name. Taken separately
/// from [`snapshot_all`] because exemplars only matter to the Prometheus
/// exposition and the exemplar join tests, not to the JSON value export.
pub fn snapshot_exemplars() -> BTreeMap<&'static str, Vec<(usize, Exemplar)>> {
    let mut out: BTreeMap<&'static str, Vec<(usize, Exemplar)>> = BTreeMap::new();
    for shard in registry() {
        let guard = shard.lock().unwrap();
        for (name, metric) in guard.iter() {
            if let Metric::Histogram(h) = metric {
                let ex = h.exemplars();
                if !ex.is_empty() {
                    out.insert(name, ex);
                }
            }
        }
    }
    out
}

/// Renders the entire registry as one JSON object:
/// `{"counters":{..},"gauges":{..},"histograms":{name:{"count","sum","buckets":{"le_1":..}}}}`.
/// Names are sorted; histogram buckets with zero observations are omitted.
pub fn export_json() -> String {
    json::object(export_into)
}

/// Writes [`export_json`]'s members into `o`, so a larger document can hold
/// the registry in place.
pub fn export_into(o: &mut json::Object<'_>) {
    let (counters, gauges, hists) = snapshot_all();
    {
        let mut out = o.object("counters");
        for (name, v) in &counters {
            out.u64(name, *v);
        }
    }
    {
        let mut out = o.object("gauges");
        for (name, v) in &gauges {
            out.i64(name, *v);
        }
    }
    let mut out = o.object("histograms");
    for (name, (count, sum, buckets)) in &hists {
        let mut h = out.object(name);
        h.u64("count", *count).u64("sum", *sum);
        let mut le = h.object("buckets");
        for (b, &n) in buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
            if b >= BUCKETS - 1 {
                le.u64("le_inf", n);
            } else {
                le.u64(&format!("le_{}", bucket_upper(b)), n);
            }
        }
    }
}

/// Resolves (once per call site) and returns a `&'static Arc<Counter>`.
#[macro_export]
macro_rules! obs_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Resolves (once per call site) and returns a `&'static Arc<Gauge>`.
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Resolves (once per call site) and returns a `&'static Arc<Histogram>`.
#[macro_export]
macro_rules! obs_histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_accumulate() {
        let c = counter("test_counter_a");
        c.inc();
        c.add(4);
        assert_eq!(counter_value("test_counter_a"), Some(5));
        // Same name yields the same underlying cell.
        counter("test_counter_a").inc();
        assert_eq!(c.get(), 6);

        let g = gauge("test_gauge_a");
        g.set(7);
        g.sub(2);
        g.add(1);
        assert_eq!(gauge_value("test_gauge_a"), Some(6));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i holds values of bit-length i, i.e. v < 2^i — the same
        // convention hc-serve uses for its latency buckets.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 22) - 1), 22);
        assert_eq!(bucket_index(1 << 22), BUCKETS - 1); // bit-length 23 = overflow
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(5), 32);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);

        let h = histogram("test_hist_boundaries");
        for v in [0, 1, 2, 3, 4, 1 << 23] {
            h.observe(v);
        }
        let buckets = h.bucket_counts();
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 10 + (1 << 23));
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2 and 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[BUCKETS - 1], 1); // 2^23 overflows the last bound
    }

    #[test]
    fn quantile_upper_walks_the_buckets() {
        let h = Histogram::default();
        for v in [1u64, 10, 100, 1000, 10_000] {
            h.observe(v);
        }
        let buckets = h.bucket_counts();
        let p50 = quantile_upper(&buckets, 0.50);
        let p95 = quantile_upper(&buckets, 0.95);
        let p99 = quantile_upper(&buckets, 0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(p50, 128, "the median sample 100 lies below 2^7");
        assert_eq!(p99, 16_384);
        assert_eq!(quantile_upper(&[0; BUCKETS], 0.5), 0);
        let mut overflow = [0; BUCKETS];
        overflow[BUCKETS - 1] = 1;
        assert_eq!(quantile_upper(&overflow, 0.5), 1 << (BUCKETS - 1));
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        counter("test_kind_clash").inc();
        let g = gauge("test_kind_clash");
        g.set(99);
        // The registered metric is still the counter; the gauge was detached.
        assert_eq!(counter_value("test_kind_clash"), Some(1));
        assert_eq!(gauge_value("test_kind_clash"), None);
    }

    #[test]
    fn owned_names_are_interned_once() {
        let a = counter_owned("test_owned_name".to_string());
        let b = counter_owned("test_owned_name".to_string());
        a.inc();
        b.inc();
        assert_eq!(counter_value("test_owned_name"), Some(2));
    }

    #[test]
    fn export_json_is_well_formed_and_sorted() {
        counter("test_export_b").add(2);
        counter("test_export_a").add(1);
        gauge("test_export_g").set(-3);
        histogram("test_export_h").observe(5);
        let out = export_json();
        assert!(out.starts_with("{\"counters\":{"));
        assert!(out.contains("\"test_export_a\":1"));
        assert!(out.contains("\"test_export_b\":2"));
        assert!(out.contains("\"test_export_g\":-3"));
        assert!(out.contains("\"test_export_h\":{\"count\":1,\"sum\":5"));
        assert!(out.contains("\"le_8\":1"));
        assert!(
            out.find("test_export_a").unwrap() < out.find("test_export_b").unwrap(),
            "{out}"
        );
    }

    #[test]
    fn exemplars_capture_only_under_an_armed_record() {
        let h = histogram("test_exemplar_hist");
        h.observe(5); // disarmed: no exemplar
        assert!(h.exemplars().is_empty());

        let rec = crate::recorder::FlightRecorder::new(8, 2);
        let trace = crate::trace::TraceContext::generate();
        let guard = rec.begin("exemplar-req-1", "POST", "/measure", &trace);
        h.observe(6); // same bucket as 5: last observation wins
        h.observe(300);
        guard.finish(crate::recorder::Outcome {
            status: 200,
            latency_us: 1,
            phases: crate::recorder::PhaseTimings::default(),
            slow: false,
            panicked: false,
        });

        let ex = h.exemplars();
        assert_eq!(ex.len(), 2);
        let (b, e) = &ex[0];
        assert_eq!(*b, bucket_index(6));
        assert_eq!(e.request_id, "exemplar-req-1");
        assert_eq!(e.value, 6);
        assert!(e.traceparent.starts_with("00-"));
        assert_eq!(ex[1].0, bucket_index(300));
        // The snapshot sees it under the histogram's name.
        let snap = snapshot_exemplars();
        assert!(snap["test_exemplar_hist"].len() == 2);
    }

    #[test]
    fn macros_cache_handles() {
        for _ in 0..3 {
            obs_counter!("test_macro_counter").inc();
        }
        assert_eq!(counter_value("test_macro_counter"), Some(3));
        obs_gauge!("test_macro_gauge").set(4);
        assert_eq!(gauge_value("test_macro_gauge"), Some(4));
        obs_histogram!("test_macro_hist").observe(9);
        assert_eq!(histogram_totals("test_macro_hist"), Some((1, 9)));
    }
}
