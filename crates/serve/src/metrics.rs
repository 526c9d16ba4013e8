//! Per-server metrics and the two `/metrics` documents.
//!
//! Each endpoint owns [`hc_obs`] cells in this server's [`Registry`]: three
//! counters and two log₂ microsecond histograms (`< 1 µs`, `< 2 µs`, … plus
//! an overflow bucket), the library registry's own layout:
//!
//! * `latency` — measured **from accept**, so queue wait under overload is
//!   included and overload latency is not under-reported;
//! * `service` — worker pickup to response, the pure handler cost.
//!
//! The gap between the two is time spent waiting in the bounded request queue.
//! `router::route` records on the worker while the request's flight
//! record is armed, so each bucket keeps the most recent request that landed
//! in it as an exemplar, per server.
//!
//! The JSON document and the Prometheus exposition render from one
//! `Scrape`: the per-endpoint and SLO series have one renderer per format,
//! and every other series is one row of `TABLE`, which names its JSON key
//! and its Prometheus family together.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hc_obs::json::{self, Object};
use hc_obs::metrics::{quantile_upper, Counter, Histogram};
use hc_obs::prom::PromWriter;
use hc_obs::slo::{ObjectiveSnapshot, SloSnapshot, WindowStats};

use crate::cache::CacheStats;
use crate::overload::{state_name, OverloadSnapshot, STATE_BROWNOUT, STATE_OK, STATE_SHEDDING};
use crate::server::ServerState;

/// One endpoint's cells.
#[derive(Debug, Default)]
pub(crate) struct Endpoint {
    /// Requests handled (including errors).
    pub requests: Counter,
    /// Requests answered with status ≥ 400.
    pub errors: Counter,
    /// Requests served from the result cache.
    pub cache_hits: Counter,
    /// Accept-to-response latency in microseconds, queue wait included.
    pub latency: Histogram,
    /// Worker pickup to response in microseconds, queue wait excluded.
    pub service: Histogram,
}

/// The server-wide metrics registry.
#[derive(Debug)]
pub struct Registry {
    endpoints: Mutex<BTreeMap<&'static str, Arc<Endpoint>>>,
    started: Instant,
}

impl Registry {
    /// Creates an empty registry with the uptime clock started now.
    pub fn new() -> Self {
        Self {
            endpoints: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Records one handled request against `endpoint`.
    ///
    /// `latency` is measured from accept (queue wait included); `service` is
    /// the handler-only duration. Paths that never reach a worker (shedding,
    /// unreadable requests) pass `Duration::ZERO` service time.
    pub fn record(
        &self,
        endpoint: &'static str,
        error: bool,
        cache_hit: bool,
        latency: Duration,
        service: Duration,
    ) {
        let cells = Arc::clone(
            hc_obs::sync::lock_recover(&self.endpoints)
                .entry(endpoint)
                .or_default(),
        );
        cells.requests.inc();
        if error {
            cells.errors.inc();
        }
        if cache_hit {
            cells.cache_hits.inc();
        }
        cells.latency.observe_duration(latency);
        cells.service.observe_duration(service);
    }

    /// Time elapsed since the registry (i.e. the server) started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Every endpoint's cells, sorted by name: the Prometheus renderer needs
    /// all series of one family emitted together, and the tsdb collector
    /// sums them once per second.
    pub(crate) fn endpoints(&self) -> Vec<(&'static str, Arc<Endpoint>)> {
        hc_obs::sync::lock_recover(&self.endpoints)
            .iter()
            .map(|(name, cells)| (*name, Arc::clone(cells)))
            .collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// What one scrape reads, each source once.
struct Scrape<'a> {
    state: &'a ServerState,
    endpoints: Vec<(&'static str, Arc<Endpoint>)>,
    cache: CacheStats,
    overload: OverloadSnapshot,
    slo: SloSnapshot,
}

impl<'a> Scrape<'a> {
    fn take(state: &'a ServerState) -> Self {
        Self {
            state,
            endpoints: state.metrics.endpoints(),
            cache: state.cache.stats(),
            overload: state.overload.snapshot(),
            slo: state.slo.snapshot(),
        }
    }
}

/// A row's reading; the variant picks the Prometheus type.
enum Value {
    /// A `counter` family.
    Counter(u64),
    /// A `gauge` family.
    Gauge(i64),
    /// The overload ladder rung: its name in JSON, one 0/1 `gauge` sample per
    /// rung in Prometheus.
    Rung(u8),
    /// A JSON-only sub-document, written in place by its own writer.
    Json(fn(&Scrape, &mut Object<'_>)),
}

/// One series: its JSON key, its Prometheus family (`None` for JSON only)
/// and how to read it from a `Scrape`.
struct Row {
    key: &'static str,
    family: Option<&'static str>,
    read: fn(&Scrape) -> Value,
}

const fn row(key: &'static str, family: Option<&'static str>, read: fn(&Scrape) -> Value) -> Row {
    Row { key, family, read }
}

/// A counter of the process-global library registry (the session counters
/// live there so the engine can bump them without a server handle).
fn library_counter(name: &str) -> u64 {
    hc_obs::metrics::counter_value(name).unwrap_or(0)
}

/// Every `/metrics` series in JSON document order, as `(group, rows)`: the
/// JSON object the rows fill (`""` for the top level) and one row per series.
const TABLE: &[(&str, &[Row])] = &[
    (
        "",
        &[
            row("uptime_seconds", Some("hc_serve_uptime_seconds"), |s| {
                Value::Gauge(s.state.metrics.uptime().as_secs() as i64)
            }),
            row("build", None, |_| Value::Json(|_, o| write_build_info(o))),
            row("requests_total", None, |s| {
                Value::Counter(s.endpoints.iter().map(|(_, e)| e.requests.get()).sum())
            }),
            row(
                "requests_in_flight",
                Some("hc_serve_requests_in_flight"),
                |s| Value::Gauge(s.state.in_flight.load(Relaxed)),
            ),
            row("endpoints", None, |_| {
                Value::Json(|s, o| write_endpoints(o, &s.endpoints))
            }),
        ],
    ),
    (
        "pool",
        &[
            row("workers", Some("hc_serve_pool_workers"), |s| {
                Value::Gauge(s.state.pool.worker_count() as i64)
            }),
            row("queue_depth", None, |s| {
                Value::Gauge(s.state.pool.queue_depth() as i64)
            }),
            row("queued", Some("hc_serve_pool_queued"), |s| {
                Value::Gauge(s.state.pool.queued() as i64)
            }),
            row(
                "completed_total",
                Some("hc_serve_pool_completed_total"),
                |s| Value::Counter(s.state.pool.completed_total()),
            ),
            row("shed_total", Some("hc_serve_pool_shed_total"), |s| {
                Value::Counter(s.state.pool.shed_total())
            }),
            row(
                "job_panics_total",
                Some("hc_serve_pool_job_panics_total"),
                |s| Value::Counter(s.state.pool.job_panics_total()),
            ),
            row(
                "worker_respawns_total",
                Some("hc_serve_pool_worker_respawns_total"),
                |s| Value::Counter(s.state.pool.worker_respawns_total()),
            ),
            row(
                "worker_scale_up_total",
                Some("hc_serve_pool_worker_scale_up_total"),
                |s| Value::Counter(s.state.pool.worker_scale_up_total()),
            ),
            row(
                "worker_scale_down_total",
                Some("hc_serve_pool_worker_scale_down_total"),
                |s| Value::Counter(s.state.pool.worker_scale_down_total()),
            ),
        ],
    ),
    (
        "connections",
        &[
            row("open", Some("hc_serve_connections_open"), |s| {
                Value::Gauge(s.state.conns.open.load(Relaxed))
            }),
            row(
                "accepted_total",
                Some("hc_serve_connections_accepted_total"),
                |s| Value::Counter(s.state.conns.accepted_total.load(Relaxed)),
            ),
            row(
                "keepalive_requests_total",
                Some("hc_serve_keepalive_requests_total"),
                |s| Value::Counter(s.state.conns.keepalive_requests_total.load(Relaxed)),
            ),
            row(
                "idle_timeouts_total",
                Some("hc_serve_idle_timeouts_total"),
                |s| Value::Counter(s.state.conns.idle_timeouts_total.load(Relaxed)),
            ),
        ],
    ),
    (
        "cache",
        &[
            row("entries", Some("hc_serve_result_cache_entries"), |s| {
                Value::Gauge(s.cache.entries as i64)
            }),
            row("capacity", None, |s| Value::Gauge(s.cache.capacity as i64)),
            row("hits", Some("hc_serve_result_cache_hits_total"), |s| {
                Value::Counter(s.cache.hits)
            }),
            row("misses", Some("hc_serve_result_cache_misses_total"), |s| {
                Value::Counter(s.cache.misses)
            }),
            row(
                "evictions",
                Some("hc_serve_result_cache_evictions_total"),
                |s| Value::Counter(s.cache.evictions),
            ),
        ],
    ),
    (
        "faults",
        &[
            row("panics_total", Some("hc_serve_panics_total"), |s| {
                Value::Counter(s.state.faults.panics.load(Relaxed))
            }),
            row(
                "deadline_exceeded_total",
                Some("hc_serve_deadline_exceeded_total"),
                |s| Value::Counter(s.state.faults.deadline_exceeded.load(Relaxed)),
            ),
        ],
    ),
    (
        "recorder",
        &[
            row("capacity", None, |s| {
                Value::Gauge(s.state.recorder.capacity() as i64)
            }),
            row("survivor_capacity", None, |s| {
                Value::Gauge(s.state.recorder.survivor_capacity() as i64)
            }),
            row(
                "recorded_total",
                Some("hc_serve_recorder_recorded_total"),
                |s| Value::Counter(s.state.recorder.recorded_total()),
            ),
            row(
                "survivors_pinned_total",
                Some("hc_serve_recorder_survivors_pinned_total"),
                |s| Value::Counter(s.state.recorder.survivors_pinned_total()),
            ),
        ],
    ),
    (
        "sessions",
        &[
            row("active", Some("hc_serve_sessions_active"), |_| {
                Value::Gauge(hc_obs::metrics::gauge_value("session_active").unwrap_or(0))
            }),
            row(
                "created_total",
                Some("hc_serve_sessions_created_total"),
                |_| Value::Counter(library_counter("session_created_total")),
            ),
            row(
                "deleted_total",
                Some("hc_serve_sessions_deleted_total"),
                |_| Value::Counter(library_counter("session_deleted_total")),
            ),
            row(
                "expired_total",
                Some("hc_serve_sessions_expired_total"),
                |_| Value::Counter(library_counter("session_expired_total")),
            ),
            row(
                "evicted_total",
                Some("hc_serve_sessions_evicted_total"),
                |_| Value::Counter(library_counter("session_evicted_total")),
            ),
            row(
                "patches_total",
                Some("hc_serve_sessions_patches_total"),
                |_| Value::Counter(library_counter("session_patch_total")),
            ),
            row(
                "watches_total",
                Some("hc_serve_sessions_watches_total"),
                |_| Value::Counter(library_counter("session_watch_total")),
            ),
            row(
                "watch_wakes_total",
                Some("hc_serve_sessions_watch_wakes_total"),
                |_| Value::Counter(library_counter("session_watch_wake_total")),
            ),
            row(
                "conflicts_total",
                Some("hc_serve_sessions_conflicts_total"),
                |_| Value::Counter(library_counter("session_conflict_total")),
            ),
            row(
                "drains_total",
                Some("hc_serve_sessions_drains_total"),
                |_| Value::Counter(library_counter("session_drain_total")),
            ),
            row(
                "warm_fallbacks_total",
                Some("hc_serve_sessions_warm_fallbacks_total"),
                |_| Value::Counter(library_counter("session_warm_fallback_total")),
            ),
            row(
                "recomputes_total",
                Some("hc_serve_sessions_recomputes_total"),
                |_| Value::Counter(library_counter("session_recompute_total")),
            ),
            row(
                "recomputes_warm_total",
                Some("hc_serve_sessions_recomputes_warm_total"),
                |_| Value::Counter(library_counter("session_recompute_warm_total")),
            ),
        ],
    ),
    (
        "",
        &[row("slo", None, |_| {
            Value::Json(|s, o| write_slo(o, &s.slo))
        })],
    ),
    (
        "overload",
        &[
            row("state", Some("hc_serve_overload_state"), |s| {
                Value::Rung(s.overload.state)
            }),
            row(
                "target_queue_delay_ms",
                Some("hc_serve_overload_target_queue_delay_ms"),
                |s| Value::Gauge(s.overload.target_queue_delay_ms as i64),
            ),
            row(
                "smoothed_queue_delay_us",
                Some("hc_serve_overload_queue_delay_smoothed_us"),
                |s| Value::Gauge(s.overload.smoothed_queue_delay_us as i64),
            ),
            row(
                "retry_after_s",
                Some("hc_serve_overload_retry_after_seconds"),
                |s| Value::Gauge(i64::from(s.overload.retry_after_s)),
            ),
            row(
                "shed_bulk_total",
                Some("hc_serve_overload_shed_bulk_total"),
                |s| Value::Counter(s.overload.shed_bulk_total),
            ),
            row(
                "shed_interactive_total",
                Some("hc_serve_overload_shed_interactive_total"),
                |s| Value::Counter(s.overload.shed_interactive_total),
            ),
            row(
                "brownout_entered_total",
                Some("hc_serve_overload_brownout_entered_total"),
                |s| Value::Counter(s.overload.brownout_entered_total),
            ),
            row(
                "shedding_entered_total",
                Some("hc_serve_overload_shedding_entered_total"),
                |s| Value::Counter(s.overload.shedding_entered_total),
            ),
        ],
    ),
    (
        "",
        &[row("library", None, |_| {
            Value::Json(|_, o| hc_obs::metrics::export_into(o))
        })],
    ),
];

/// Renders the `/metrics` JSON document: every `TABLE` row under its group,
/// with the merged [`hc_obs`] library registry under `"library"` so one
/// scrape covers both server and library counters.
pub(crate) fn json_document(state: &ServerState) -> String {
    let scrape = Scrape::take(state);
    json::object(|doc| {
        for (group, rows) in TABLE {
            if group.is_empty() {
                write_rows(&scrape, doc, rows);
            } else {
                write_rows(&scrape, &mut doc.object(group), rows);
            }
        }
    })
}

/// Renders one named group of the JSON document on its own (`hc-loadgen`
/// prints `"overload"` after a self-served run); `None` for an unknown group.
pub fn json_group(state: &ServerState, name: &str) -> Option<String> {
    let (_, rows) = TABLE
        .iter()
        .find(|(group, _)| *group == name && !name.is_empty())?;
    let scrape = Scrape::take(state);
    Some(json::object(|o| write_rows(&scrape, o, rows)))
}

/// Writes one `"key":value` member per row into `o`.
fn write_rows(scrape: &Scrape, o: &mut Object<'_>, rows: &[Row]) {
    for row in rows {
        match (row.read)(scrape) {
            Value::Counter(v) => {
                o.u64(row.key, v);
            }
            Value::Gauge(v) => {
                o.i64(row.key, v);
            }
            Value::Rung(rung) => {
                o.str(row.key, state_name(rung));
            }
            Value::Json(write) => write(scrape, &mut o.object(row.key)),
        }
    }
}

/// Renders the whole `/metrics?format=prometheus` document: the per-endpoint
/// counters and latency/service histograms (cumulative `_bucket{le=...}`
/// series carrying exemplar trailers), every `TABLE` row with a family, the
/// SLO series, and the merged `hc_obs` library registry — one scrape covers
/// everything a stock Prometheus server needs.
pub fn prometheus_document(state: &ServerState) -> String {
    let scrape = Scrape::take(state);
    let mut w = PromWriter::new();
    write_endpoint_series(&mut w, &scrape.endpoints);
    for row in TABLE.iter().flat_map(|(_, rows)| rows.iter()) {
        let Some(family) = row.family else {
            continue;
        };
        match (row.read)(&scrape) {
            Value::Counter(v) => {
                w.type_line(family, "counter");
                w.sample(family, &[], &v.to_string());
            }
            Value::Gauge(v) => {
                w.type_line(family, "gauge");
                w.sample(family, &[], &v.to_string());
            }
            Value::Rung(current) => {
                w.type_line(family, "gauge");
                for rung in [STATE_OK, STATE_BROWNOUT, STATE_SHEDDING] {
                    let on = if rung == current { "1" } else { "0" };
                    w.sample(family, &[("state", state_name(rung))], on);
                }
            }
            Value::Json(_) => {}
        }
    }
    write_slo_series(&mut w, &scrape.slo);
    let mut out = w.finish();
    out.push_str(&hc_obs::prom::render_registry());
    out
}

/// Writes the JSON `endpoints` members: one object per endpoint with its
/// counters, latency sum and quantile upper bounds, and both histograms as
/// `{"le_<2^i>us": count}` maps of their non-empty buckets.
fn write_endpoints(o: &mut Object<'_>, endpoints: &[(&'static str, Arc<Endpoint>)]) {
    fn histogram(mut o: Object<'_>, buckets: &[u64]) {
        for (i, &n) in buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
            o.u64(&format!("le_{}us", 1u64 << i), n);
        }
    }
    for (name, e) in endpoints {
        let latency = e.latency.bucket_counts();
        let mut obj = o.object(name);
        obj.u64("count", e.requests.get())
            .u64("errors", e.errors.get())
            .u64("cache_hits", e.cache_hits.get())
            .u64("latency_total_us", e.latency.sum())
            .u64("latency_p50_us_upper", quantile_upper(&latency, 0.50))
            .u64("latency_p95_us_upper", quantile_upper(&latency, 0.95))
            .u64("latency_p99_us_upper", quantile_upper(&latency, 0.99));
        histogram(obj.object("latency_histogram_us"), &latency);
        obj.u64("service_total_us", e.service.sum());
        histogram(
            obj.object("service_histogram_us"),
            &e.service.bucket_counts(),
        );
    }
}

/// Writes the per-endpoint families, each labelled `endpoint="<name>"`.
fn write_endpoint_series(w: &mut PromWriter, endpoints: &[(&'static str, Arc<Endpoint>)]) {
    let mut counter = |family: &str, cell: fn(&Endpoint) -> &Counter| {
        w.type_line(family, "counter");
        for (name, e) in endpoints {
            w.sample(family, &[("endpoint", name)], &cell(e).get().to_string());
        }
    };
    counter("hc_serve_requests_total", |e| &e.requests);
    counter("hc_serve_errors_total", |e| &e.errors);
    counter("hc_serve_cache_hits_total", |e| &e.cache_hits);
    let mut histogram = |family: &str, cell: fn(&Endpoint) -> &Histogram| {
        w.type_line(family, "histogram");
        for (name, e) in endpoints {
            let h = cell(e);
            w.histogram_series_with_exemplars(
                family,
                &[("endpoint", name)],
                &h.bucket_counts(),
                h.count(),
                h.sum(),
                &h.exemplars(),
            );
        }
    };
    histogram("hc_serve_latency_us", |e| &e.latency);
    histogram("hc_serve_service_us", |e| &e.service);
}

fn write_window(mut o: Object<'_>, w: &WindowStats) {
    o.u64("seconds", w.seconds)
        .u64("total", w.total)
        .u64("bad", w.bad)
        .f64("error_rate", w.error_rate)
        .f64("burn_rate", w.burn_rate);
}

fn write_objective(o: &mut Object<'_>, s: &ObjectiveSnapshot) {
    o.f64("objective", s.objective);
    write_window(o.object("short"), &s.short);
    write_window(o.object("mid"), &s.mid);
    write_window(o.object("long"), &s.long);
    o.bool("fast_alert", s.fast_alert)
        .bool("slow_alert", s.slow_alert);
}

/// Writes the JSON `slo` members from one engine snapshot.
fn write_slo(o: &mut Object<'_>, s: &SloSnapshot) {
    o.bool("degraded", s.degraded);
    write_objective(&mut o.object("availability"), &s.availability);
    match &s.latency {
        Some((threshold_ms, objective)) => {
            let mut latency = o.object("latency");
            latency.u64("threshold_ms", *threshold_ms);
            write_objective(&mut latency, objective);
        }
        None => {
            o.null("latency");
        }
    }
}

/// Writes the SLO gauge series for one engine snapshot: per-objective
/// objectives, per-window error/burn rates, per-alert firing flags, and the
/// overall `degraded` flag — mirroring the JSON `slo` object.
fn write_slo_series(w: &mut PromWriter, s: &SloSnapshot) {
    let mut objectives: Vec<(&str, &ObjectiveSnapshot)> = vec![("availability", &s.availability)];
    if let Some((_, o)) = &s.latency {
        objectives.push(("latency", o));
    }

    w.type_line("hc_serve_slo_objective", "gauge");
    for (slo, o) in &objectives {
        w.sample(
            "hc_serve_slo_objective",
            &[("slo", slo)],
            &format!("{}", o.objective),
        );
    }
    let windows = |o: &ObjectiveSnapshot| [("short", o.short), ("mid", o.mid), ("long", o.long)];
    w.type_line("hc_serve_slo_error_rate", "gauge");
    for (slo, o) in &objectives {
        for (window, stats) in windows(o) {
            w.sample(
                "hc_serve_slo_error_rate",
                &[("slo", slo), ("window", window)],
                &format!("{}", stats.error_rate),
            );
        }
    }
    w.type_line("hc_serve_slo_burn_rate", "gauge");
    for (slo, o) in &objectives {
        for (window, stats) in windows(o) {
            w.sample(
                "hc_serve_slo_burn_rate",
                &[("slo", slo), ("window", window)],
                &format!("{}", stats.burn_rate),
            );
        }
    }
    w.type_line("hc_serve_slo_alert_firing", "gauge");
    for (slo, o) in &objectives {
        for (alert, firing) in [("fast", o.fast_alert), ("slow", o.slow_alert)] {
            w.sample(
                "hc_serve_slo_alert_firing",
                &[("slo", slo), ("alert", alert)],
                if firing { "1" } else { "0" },
            );
        }
    }
    w.type_line("hc_serve_slo_degraded", "gauge");
    w.sample(
        "hc_serve_slo_degraded",
        &[],
        if s.degraded { "1" } else { "0" },
    );
}

/// Build identity written into `/metrics` and `/healthz`: crate version, the
/// `git describe` output captured at compile time via the `HC_GIT_DESCRIBE`
/// environment variable (absent in plain `cargo build`, so it degrades to
/// `"unknown"`), and the instruction-set frame the linear algebra runs in on
/// this CPU (`"avx2"` or `"baseline"`).
pub(crate) fn write_build_info(o: &mut Object<'_>) {
    o.str("version", env!("CARGO_PKG_VERSION"))
        .str(
            "git_describe",
            option_env!("HC_GIT_DESCRIBE").unwrap_or("unknown"),
        )
        .str("linalg_frame", hc_linalg::isa::name());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints_json(endpoints: &[(&'static str, Arc<Endpoint>)]) -> String {
        json::object(|o| write_endpoints(o, endpoints))
    }

    fn slo_json(s: &SloSnapshot) -> String {
        json::object(|o| write_slo(o, s))
    }

    fn cells(r: &Registry, name: &str) -> Arc<Endpoint> {
        r.endpoints()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e)
            .expect("endpoint recorded")
    }

    #[test]
    fn records_and_renders() {
        let r = Registry::new();
        r.record(
            "measure",
            false,
            false,
            Duration::from_micros(130),
            Duration::from_micros(120),
        );
        r.record(
            "measure",
            false,
            true,
            Duration::from_micros(3),
            Duration::from_micros(2),
        );
        r.record(
            "measure",
            true,
            false,
            Duration::from_millis(9),
            Duration::from_millis(8),
        );
        let e = cells(&r, "measure");
        assert_eq!(e.requests.get(), 3);
        assert_eq!(e.errors.get(), 1);
        assert_eq!(e.cache_hits.get(), 1);
        assert_eq!(e.latency.bucket_counts().iter().sum::<u64>(), 3);
        assert_eq!(e.service.bucket_counts().iter().sum::<u64>(), 3);

        let j = endpoints_json(&r.endpoints());
        assert!(j.starts_with("{\"measure\":{\"count\":3,\"errors\":1,\"cache_hits\":1,"));
        assert!(j.contains("\"latency_total_us\":9133"), "{j}");
        assert!(j.contains("\"latency_p50_us_upper\":256"), "{j}");
        assert!(j.contains("\"latency_p99_us_upper\":16384"), "{j}");
        assert!(
            j.contains("\"latency_histogram_us\":{\"le_4us\":1,\"le_256us\":1,\"le_16384us\":1}"),
            "{j}"
        );
        assert!(j.contains("\"service_total_us\":8122"), "{j}");
    }

    #[test]
    fn endpoints_and_slo_groups_are_pinned() {
        let r = Registry::new();
        r.record(
            "measure",
            false,
            true,
            Duration::from_micros(3),
            Duration::from_micros(2),
        );
        r.record(
            "healthz",
            true,
            false,
            Duration::from_micros(700),
            Duration::ZERO,
        );
        assert_eq!(
            endpoints_json(&r.endpoints()),
            "{\"healthz\":{\"count\":1,\"errors\":1,\"cache_hits\":0,\
             \"latency_total_us\":700,\"latency_p50_us_upper\":1024,\
             \"latency_p95_us_upper\":1024,\"latency_p99_us_upper\":1024,\
             \"latency_histogram_us\":{\"le_1024us\":1},\"service_total_us\":0,\
             \"service_histogram_us\":{\"le_1us\":1}},\
             \"measure\":{\"count\":1,\"errors\":0,\"cache_hits\":1,\
             \"latency_total_us\":3,\"latency_p50_us_upper\":4,\
             \"latency_p95_us_upper\":4,\"latency_p99_us_upper\":4,\
             \"latency_histogram_us\":{\"le_4us\":1},\"service_total_us\":2,\
             \"service_histogram_us\":{\"le_4us\":1}}}"
        );
        assert_eq!(endpoints_json(&[]), "{}");

        let window = |seconds, total, bad| WindowStats {
            seconds,
            total,
            bad,
            error_rate: if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64
            },
            burn_rate: if total == 0 { 0.0 } else { 25.0 },
        };
        let objective = ObjectiveSnapshot {
            objective: 0.999,
            short: window(300, 4, 1),
            mid: window(3600, 0, 0),
            long: window(21600, 8, 0),
            fast_alert: true,
            slow_alert: false,
        };
        let mut snap = SloSnapshot {
            availability: objective,
            latency: None,
            degraded: true,
        };
        let objective_json = "\"objective\":0.999,\
            \"short\":{\"seconds\":300,\"total\":4,\"bad\":1,\"error_rate\":0.25,\"burn_rate\":25},\
            \"mid\":{\"seconds\":3600,\"total\":0,\"bad\":0,\"error_rate\":0,\"burn_rate\":0},\
            \"long\":{\"seconds\":21600,\"total\":8,\"bad\":0,\"error_rate\":0,\"burn_rate\":25},\
            \"fast_alert\":true,\"slow_alert\":false";
        assert_eq!(
            slo_json(&snap),
            format!("{{\"degraded\":true,\"availability\":{{{objective_json}}},\"latency\":null}}")
        );
        snap.latency = Some((250, objective));
        assert_eq!(
            slo_json(&snap),
            format!(
                "{{\"degraded\":true,\"availability\":{{{objective_json}}},\
                 \"latency\":{{\"threshold_ms\":250,{objective_json}}}}}"
            )
        );
    }

    /// The scalar after `"key":` in the JSON document's `group` object
    /// (`""`: the top level), quotes trimmed.
    fn json_scalar<'a>(doc: &'a str, group: &str, key: &str) -> &'a str {
        let from = match group {
            "" => 0,
            _ => doc.find(&format!("\"{group}\":{{")).expect("group"),
        };
        let needle = format!("\"{key}\":");
        let at = from + doc[from..].find(&needle).expect("key") + needle.len();
        let len = doc[at..].find([',', '}']).expect("value ends");
        doc[at..at + len].trim_matches('"')
    }

    /// The value of one Prometheus sample (`name` with its labels).
    fn prom_sample<'a>(doc: &'a str, sample: &str) -> Option<&'a str> {
        doc.lines()
            .find_map(|line| line.strip_prefix(sample)?.strip_prefix(' '))
    }

    /// Each `TABLE` row with a Prometheus family that reads differently in
    /// the two documents of `state`, with both readings.
    fn disagreements(state: &ServerState, json: &str, prom: &str) -> Vec<String> {
        let scrape = Scrape::take(state);
        let mut out = Vec::new();
        for (group, rows) in TABLE {
            for row in rows.iter() {
                let Some(family) = row.family else {
                    continue;
                };
                let value = json_scalar(json, group, row.key);
                let agrees =
                    match (row.read)(&scrape) {
                        Value::Rung(_) => [STATE_OK, STATE_BROWNOUT, STATE_SHEDDING]
                            .into_iter()
                            .all(|rung| {
                                let name = state_name(rung);
                                let on = if name == value { "1" } else { "0" };
                                prom_sample(prom, &format!("{family}{{state=\"{name}\"}}"))
                                    == Some(on)
                            }),
                        _ => prom_sample(prom, family) == Some(value),
                    };
                if !agrees {
                    let exposed = prom.lines().filter(|l| l.starts_with(family));
                    out.push(format!(
                        "{group}.{} = {value}: {:?}",
                        row.key,
                        exposed.collect::<Vec<_>>()
                    ));
                }
            }
        }
        out
    }

    /// Every row with a Prometheus family (counters, gauges and the overload
    /// rung) reads the same in the JSON document and the exposition of one
    /// server, with each moved off its start value where a test can.
    #[test]
    fn every_family_reads_the_same_in_json_and_prometheus() {
        let handle = crate::server::start(crate::server::Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            profile_hz: 0,
            tsdb_off: true,
            ..Default::default()
        })
        .expect("server starts");
        let state = handle.state();
        state.conns.open.store(3, Relaxed);
        state.conns.accepted_total.store(5, Relaxed);
        state.conns.keepalive_requests_total.store(7, Relaxed);
        state.conns.idle_timeouts_total.store(11, Relaxed);
        state.faults.panics.store(13, Relaxed);
        state.faults.deadline_exceeded.store(17, Relaxed);
        state.in_flight.store(2, Relaxed);
        let key = crate::cache::cache_key("measure", "", b"x");
        assert!(state.cache.get(key).is_none());
        state.cache.lock_shard(key).put(
            key,
            crate::cache::CachedResponse {
                content_type: "application/json",
                body: Arc::from(&b"{}"[..]),
            },
        );
        assert!(state.cache.get(key).is_some());
        state.overload.force_state(STATE_BROWNOUT);
        assert!(state.overload.admit(crate::overload::Class::Bulk).is_err());
        let ecs = hc_core::ecs::Ecs::new(
            hc_linalg::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.5]]).unwrap(),
        )
        .unwrap();
        state.sessions.create(ecs, false, None).expect("session");

        // The session rows read process-wide counters that other tests in
        // this binary move, and the uptime clock ticks; a real disagreement
        // shows in every pair of renders.
        let mut last = Vec::new();
        for _ in 0..5 {
            let (json, prom) = (json_document(state), prometheus_document(state));
            last = disagreements(state, &json, &prom);
            if last.is_empty() {
                break;
            }
        }
        assert!(last.is_empty(), "{last:#?}");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn poisoned_registry_still_serves() {
        let r = Arc::new(Registry::new());
        let r2 = Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _g = r2.endpoints.lock().unwrap();
            panic!("poison the metrics mutex");
        })
        .join();
        assert!(r.endpoints.is_poisoned());
        // Recording and reading both recover instead of propagating.
        r.record("e", false, false, Duration::from_micros(5), Duration::ZERO);
        assert_eq!(cells(&r, "e").requests.get(), 1);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let r = Registry::new();
        r.record("e", false, false, Duration::from_nanos(1), Duration::ZERO);
        let e = cells(&r, "e");
        assert_eq!(e.latency.bucket_counts()[0], 1);
        assert_eq!(e.service.bucket_counts()[0], 1);
    }

    #[test]
    fn queue_wait_separates_latency_from_service() {
        let r = Registry::new();
        // 5 ms from accept, but only 1 ms of handler time: the 4 ms gap is
        // queue wait, which must show up in latency_* and not in service_*.
        r.record(
            "e",
            false,
            false,
            Duration::from_millis(5),
            Duration::from_millis(1),
        );
        let e = cells(&r, "e");
        assert_eq!(e.latency.sum(), 5000);
        assert_eq!(e.service.sum(), 1000);
        assert_eq!(quantile_upper(&e.latency.bucket_counts(), 1.0), 8192);
        assert_eq!(quantile_upper(&e.service.bucket_counts(), 1.0), 1024);
    }
}
