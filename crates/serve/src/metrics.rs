//! Observability: per-endpoint counters and latency histograms.
//!
//! Latencies land in log₂ microsecond buckets (`< 1 µs`, `< 2 µs`, … `< 2²³
//! µs ≈ 8.4 s`, plus an overflow bucket), which keeps recording allocation-free
//! and gives `/metrics` enough resolution to estimate p50/p95/p99 within a
//! factor of two — plenty for spotting regressions and cache effects.
//!
//! Two histograms are kept per endpoint:
//!
//! * `latency_*` — measured **from accept**, so queue wait under overload is
//!   included and overload latency is not under-reported;
//! * `service_*` — worker pickup to response, the pure handler cost.
//!
//! The gap between the two is time spent waiting in the bounded request queue.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::JsonObject;

/// Number of log₂ latency buckets (the last one is overflow).
pub const BUCKETS: usize = 24;

/// Counters for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Requests handled (including errors).
    pub count: u64,
    /// Requests answered with status ≥ 400.
    pub errors: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Log₂-bucketed accept-to-response latency histogram (microseconds),
    /// queue wait included.
    pub latency_buckets: [u64; BUCKETS],
    /// Total accept-to-response latency in microseconds.
    pub total_us: u64,
    /// Log₂-bucketed service-time histogram (microseconds): worker pickup to
    /// response, excluding queue wait.
    pub service_buckets: [u64; BUCKETS],
    /// Total service time in microseconds.
    pub service_total_us: u64,
}

fn bucket_of(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
}

impl EndpointStats {
    fn new() -> Self {
        Self {
            count: 0,
            errors: 0,
            cache_hits: 0,
            latency_buckets: [0; BUCKETS],
            total_us: 0,
            service_buckets: [0; BUCKETS],
            service_total_us: 0,
        }
    }

    fn record(&mut self, error: bool, cache_hit: bool, latency: Duration, service: Duration) {
        self.count += 1;
        if error {
            self.errors += 1;
        }
        if cache_hit {
            self.cache_hits += 1;
        }
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.total_us += us;
        self.latency_buckets[bucket_of(us)] += 1;
        let service_us = service.as_micros().min(u64::MAX as u128) as u64;
        self.service_total_us += service_us;
        self.service_buckets[bucket_of(service_us)] += 1;
    }

    /// Smallest bucket upper bound (µs) below which at least `q` of samples fall.
    pub fn quantile_upper_us(&self, q: f64) -> u64 {
        quantile_upper_us_of(&self.latency_buckets, self.count, q)
    }

    fn to_json(&self) -> String {
        let render_hist = |buckets: &[u64; BUCKETS]| {
            let mut hist = JsonObject::new();
            for (k, &n) in buckets.iter().enumerate() {
                if n > 0 {
                    hist = hist.u64(&format!("le_{}us", 1u64 << k), n);
                }
            }
            hist.finish()
        };
        JsonObject::new()
            .u64("count", self.count)
            .u64("errors", self.errors)
            .u64("cache_hits", self.cache_hits)
            .u64("latency_total_us", self.total_us)
            .u64("latency_p50_us_upper", self.quantile_upper_us(0.50))
            .u64("latency_p95_us_upper", self.quantile_upper_us(0.95))
            .u64("latency_p99_us_upper", self.quantile_upper_us(0.99))
            .raw("latency_histogram_us", &render_hist(&self.latency_buckets))
            .u64("service_total_us", self.service_total_us)
            .raw("service_histogram_us", &render_hist(&self.service_buckets))
            .finish()
    }
}

/// `q`-quantile upper bound (µs) of one log₂ bucket array holding `count`
/// samples. Standalone so the tsdb collector can run it over per-interval
/// *delta* buckets, not just cumulative endpoint stats.
pub(crate) fn quantile_upper_us_of(buckets: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = (count as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (k, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return 1u64 << k;
        }
    }
    1u64 << (BUCKETS - 1)
}

/// The server-wide metrics registry.
#[derive(Debug)]
pub struct Registry {
    endpoints: Mutex<BTreeMap<&'static str, EndpointStats>>,
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
        hc_obs::sync::lock_recover(&self.endpoints)
            .entry(endpoint)
            .or_insert_with(EndpointStats::new)
            .record(error, cache_hit, latency, service);
    }

    /// Time elapsed since the registry (i.e. the server) started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Point-in-time copy of one endpoint's stats (for tests).
    pub fn snapshot(&self, endpoint: &str) -> Option<EndpointStats> {
        hc_obs::sync::lock_recover(&self.endpoints)
            .get(endpoint)
            .cloned()
    }

    /// Merged copy of every endpoint's stats — the whole-server view the
    /// tsdb collector samples once per second.
    pub fn merged(&self) -> EndpointStats {
        let endpoints = hc_obs::sync::lock_recover(&self.endpoints);
        let mut m = EndpointStats::new();
        for s in endpoints.values() {
            m.count += s.count;
            m.errors += s.errors;
            m.cache_hits += s.cache_hits;
            m.total_us += s.total_us;
            m.service_total_us += s.service_total_us;
            for k in 0..BUCKETS {
                m.latency_buckets[k] += s.latency_buckets[k];
                m.service_buckets[k] += s.service_buckets[k];
            }
        }
        m
    }

    /// Point-in-time copy of every endpoint's stats, sorted by name. Feeds
    /// the Prometheus renderer, which needs all series of one metric name
    /// (e.g. `hc_serve_requests_total{endpoint=...}`) emitted together.
    pub fn endpoints_snapshot(&self) -> Vec<(&'static str, EndpointStats)> {
        hc_obs::sync::lock_recover(&self.endpoints)
            .iter()
            .map(|(name, stats)| (*name, stats.clone()))
            .collect()
    }

    /// Renders the registry (plus externally-owned pool and cache gauges) as
    /// the `/metrics` JSON document.
    ///
    /// `in_flight` is the number of accepted requests not yet answered,
    /// `faults` is the panic/deadline counter object, `recorder` is the
    /// flight-recorder stats object, and `library` is the merged [`hc_obs`]
    /// registry export ([`hc_obs::metrics::export_json`]) so one scrape
    /// covers both server and library counters.
    /// `sessions` is the live-session counter object
    /// ([`sessions_json`]), `slo` the burn-rate snapshot ([`slo_json`]), and
    /// `overload` the admission-controller snapshot
    /// ([`crate::overload::OverloadSnapshot::to_json`]).
    #[allow(clippy::too_many_arguments)]
    pub fn to_json(
        &self,
        pool: &str,
        connections: &str,
        cache: &str,
        faults: &str,
        recorder: &str,
        sessions: &str,
        slo: &str,
        overload: &str,
        in_flight: i64,
        library: &str,
    ) -> String {
        let endpoints = hc_obs::sync::lock_recover(&self.endpoints);
        let mut per_endpoint = JsonObject::new();
        let mut total = 0u64;
        for (name, stats) in endpoints.iter() {
            per_endpoint = per_endpoint.raw(name, &stats.to_json());
            total += stats.count;
        }
        JsonObject::new()
            .u64("uptime_seconds", self.started.elapsed().as_secs())
            .raw("build", &build_info_json())
            .u64("requests_total", total)
            .i64("requests_in_flight", in_flight)
            .raw("endpoints", &per_endpoint.finish())
            .raw("pool", pool)
            .raw("connections", connections)
            .raw("cache", cache)
            .raw("faults", faults)
            .raw("recorder", recorder)
            .raw("sessions", sessions)
            .raw("slo", slo)
            .raw("overload", overload)
            .raw("library", library)
            .finish()
    }
}

/// Live-session counters, read once per scrape from the shared [`hc_obs`]
/// registry so the JSON `sessions` object and the Prometheus
/// `hc_serve_sessions_*` series agree by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCounters {
    /// Sessions currently alive (`session_active` gauge).
    pub active: i64,
    /// Sessions ever created.
    pub created: u64,
    /// Sessions removed by explicit `DELETE`.
    pub deleted: u64,
    /// Sessions removed by TTL expiry.
    pub expired: u64,
    /// Sessions removed by LRU eviction at `--max-sessions`.
    pub evicted: u64,
    /// `PATCH /session/{id}/etc` requests applied.
    pub patches: u64,
    /// `GET /session/{id}/watch` long-polls started.
    pub watches: u64,
    /// Long-polls answered with deltas (woken by a version change).
    pub watch_wakes: u64,
    /// `If-Match` version conflicts answered `409`.
    pub conflicts: u64,
    /// Watchers flushed by a drain.
    pub drains: u64,
    /// Warm recomputes that silently fell back to a cold solve.
    pub warm_fallbacks: u64,
    /// Total recomputes (cold creates included).
    pub recomputes: u64,
    /// Recomputes served by the warm path.
    pub recomputes_warm: u64,
}

/// Reads the current [`SessionCounters`] from the global metrics registry.
pub fn session_counters() -> SessionCounters {
    let c = |name: &str| hc_obs::metrics::counter_value(name).unwrap_or(0);
    SessionCounters {
        active: hc_obs::metrics::gauge_value("session_active").unwrap_or(0),
        created: c("session_created_total"),
        deleted: c("session_deleted_total"),
        expired: c("session_expired_total"),
        evicted: c("session_evicted_total"),
        patches: c("session_patch_total"),
        watches: c("session_watch_total"),
        watch_wakes: c("session_watch_wake_total"),
        conflicts: c("session_conflict_total"),
        drains: c("session_drain_total"),
        warm_fallbacks: c("session_warm_fallback_total"),
        recomputes: c("session_recompute_total"),
        recomputes_warm: c("session_recompute_warm_total"),
    }
}

/// Renders the `/metrics` JSON `connections` object from the reactor's
/// connection counters — the same atomics the Prometheus
/// `hc_serve_connections_*` / `hc_serve_keepalive_*` series read, so the two
/// expositions agree (goldened in the tests).
pub fn connections_json(c: &crate::server::ConnCounters) -> String {
    use std::sync::atomic::Ordering;
    JsonObject::new()
        .i64("open", c.open.load(Ordering::Relaxed))
        .u64("accepted_total", c.accepted_total.load(Ordering::Relaxed))
        .u64(
            "keepalive_requests_total",
            c.keepalive_requests_total.load(Ordering::Relaxed),
        )
        .u64(
            "idle_timeouts_total",
            c.idle_timeouts_total.load(Ordering::Relaxed),
        )
        .finish()
}

/// Renders the `/metrics` JSON `sessions` object.
pub fn sessions_json(s: &SessionCounters) -> String {
    JsonObject::new()
        .i64("active", s.active)
        .u64("created_total", s.created)
        .u64("deleted_total", s.deleted)
        .u64("expired_total", s.expired)
        .u64("evicted_total", s.evicted)
        .u64("patches_total", s.patches)
        .u64("watches_total", s.watches)
        .u64("watch_wakes_total", s.watch_wakes)
        .u64("conflicts_total", s.conflicts)
        .u64("drains_total", s.drains)
        .u64("warm_fallbacks_total", s.warm_fallbacks)
        .u64("recomputes_total", s.recomputes)
        .u64("recomputes_warm_total", s.recomputes_warm)
        .finish()
}

fn window_json(w: &hc_obs::slo::WindowStats) -> String {
    JsonObject::new()
        .u64("seconds", w.seconds)
        .u64("total", w.total)
        .u64("bad", w.bad)
        .num("error_rate", w.error_rate)
        .num("burn_rate", w.burn_rate)
        .finish()
}

fn objective_fields(obj: JsonObject, o: &hc_obs::slo::ObjectiveSnapshot) -> JsonObject {
    obj.num("objective", o.objective)
        .raw("short", &window_json(&o.short))
        .raw("mid", &window_json(&o.mid))
        .raw("long", &window_json(&o.long))
        .bool("fast_alert", o.fast_alert)
        .bool("slow_alert", o.slow_alert)
}

/// Renders the `/metrics` JSON `slo` object from one engine snapshot.
pub fn slo_json(s: &hc_obs::slo::SloSnapshot) -> String {
    let availability = objective_fields(JsonObject::new(), &s.availability).finish();
    let mut obj = JsonObject::new()
        .bool("degraded", s.degraded)
        .raw("availability", &availability);
    obj = match &s.latency {
        Some((threshold_ms, o)) => {
            let lat = objective_fields(JsonObject::new().u64("threshold_ms", *threshold_ms), o);
            obj.raw("latency", &lat.finish())
        }
        None => obj.raw("latency", "null"),
    };
    obj.finish()
}

/// Renders the whole `/metrics?format=prometheus` document: per-endpoint
/// counters and latency/service histograms (as cumulative `_bucket{le=...}`
/// series), pool/cache/fault/recorder gauges and counters, and the merged
/// `hc_obs` library registry — one scrape covers everything a stock
/// Prometheus server needs.
pub fn prometheus_document(state: &crate::server::ServerState) -> String {
    use hc_obs::prom::PromWriter;

    let mut w = PromWriter::new();
    let endpoints = state.metrics.endpoints_snapshot();

    w.type_line("hc_serve_requests_total", "counter");
    for (name, s) in &endpoints {
        w.sample(
            "hc_serve_requests_total",
            &[("endpoint", name)],
            &s.count.to_string(),
        );
    }
    w.type_line("hc_serve_errors_total", "counter");
    for (name, s) in &endpoints {
        w.sample(
            "hc_serve_errors_total",
            &[("endpoint", name)],
            &s.errors.to_string(),
        );
    }
    w.type_line("hc_serve_cache_hits_total", "counter");
    for (name, s) in &endpoints {
        w.sample(
            "hc_serve_cache_hits_total",
            &[("endpoint", name)],
            &s.cache_hits.to_string(),
        );
    }
    w.type_line("hc_serve_latency_us", "histogram");
    for (name, s) in &endpoints {
        w.histogram_series(
            "hc_serve_latency_us",
            &[("endpoint", name)],
            &s.latency_buckets,
            s.count,
            s.total_us,
        );
    }
    w.type_line("hc_serve_service_us", "histogram");
    for (name, s) in &endpoints {
        w.histogram_series(
            "hc_serve_service_us",
            &[("endpoint", name)],
            &s.service_buckets,
            s.count,
            s.service_total_us,
        );
    }

    let gauge = |w: &mut PromWriter, name: &str, v: i64| {
        w.type_line(name, "gauge");
        w.sample(name, &[], &v.to_string());
    };
    let counter = |w: &mut PromWriter, name: &str, v: u64| {
        w.type_line(name, "counter");
        w.sample(name, &[], &v.to_string());
    };
    gauge(
        &mut w,
        "hc_serve_uptime_seconds",
        state.metrics.uptime().as_secs() as i64,
    );
    gauge(
        &mut w,
        "hc_serve_requests_in_flight",
        state.in_flight.load(std::sync::atomic::Ordering::Relaxed),
    );
    gauge(
        &mut w,
        "hc_serve_pool_workers",
        state.pool.worker_count() as i64,
    );
    gauge(&mut w, "hc_serve_pool_queued", state.pool.queued() as i64);
    counter(
        &mut w,
        "hc_serve_pool_completed_total",
        state.pool.completed_total(),
    );
    counter(&mut w, "hc_serve_pool_shed_total", state.pool.shed_total());
    counter(
        &mut w,
        "hc_serve_pool_job_panics_total",
        state.pool.job_panics_total(),
    );
    counter(
        &mut w,
        "hc_serve_pool_worker_respawns_total",
        state.pool.worker_respawns_total(),
    );
    counter(
        &mut w,
        "hc_serve_pool_worker_scale_up_total",
        state.pool.worker_scale_up_total(),
    );
    counter(
        &mut w,
        "hc_serve_pool_worker_scale_down_total",
        state.pool.worker_scale_down_total(),
    );
    // Overload-controller series, from the same snapshot struct as the JSON
    // `overload` object (goldened for agreement in the tests). The ladder
    // rung is one labeled gauge set, Prometheus-idiomatic for enums.
    {
        let o = state.overload.snapshot();
        w.type_line("hc_serve_overload_state", "gauge");
        for rung in [
            crate::overload::STATE_OK,
            crate::overload::STATE_BROWNOUT,
            crate::overload::STATE_SHEDDING,
        ] {
            w.sample(
                "hc_serve_overload_state",
                &[("state", crate::overload::state_name(rung))],
                if o.state == rung { "1" } else { "0" },
            );
        }
        gauge(
            &mut w,
            "hc_serve_overload_queue_delay_smoothed_us",
            o.smoothed_queue_delay_us as i64,
        );
        gauge(
            &mut w,
            "hc_serve_overload_target_queue_delay_ms",
            o.target_queue_delay_ms as i64,
        );
        gauge(
            &mut w,
            "hc_serve_overload_retry_after_seconds",
            i64::from(o.retry_after_s),
        );
        counter(
            &mut w,
            "hc_serve_overload_shed_bulk_total",
            o.shed_bulk_total,
        );
        counter(
            &mut w,
            "hc_serve_overload_shed_interactive_total",
            o.shed_interactive_total,
        );
        counter(
            &mut w,
            "hc_serve_overload_brownout_entered_total",
            o.brownout_entered_total,
        );
        counter(
            &mut w,
            "hc_serve_overload_shedding_entered_total",
            o.shedding_entered_total,
        );
    }
    // Reactor connection series, from the same atomics as the JSON
    // `connections` object (goldened for agreement in the tests).
    {
        use std::sync::atomic::Ordering;
        let c = &state.conns;
        gauge(
            &mut w,
            "hc_serve_connections_open",
            c.open.load(Ordering::Relaxed),
        );
        counter(
            &mut w,
            "hc_serve_connections_accepted_total",
            c.accepted_total.load(Ordering::Relaxed),
        );
        counter(
            &mut w,
            "hc_serve_keepalive_requests_total",
            c.keepalive_requests_total.load(Ordering::Relaxed),
        );
        counter(
            &mut w,
            "hc_serve_idle_timeouts_total",
            c.idle_timeouts_total.load(Ordering::Relaxed),
        );
    }
    let cache = state.cache.stats();
    gauge(
        &mut w,
        "hc_serve_result_cache_entries",
        cache.entries as i64,
    );
    counter(&mut w, "hc_serve_result_cache_hits_total", cache.hits);
    counter(&mut w, "hc_serve_result_cache_misses_total", cache.misses);
    counter(
        &mut w,
        "hc_serve_result_cache_evictions_total",
        cache.evictions,
    );
    counter(
        &mut w,
        "hc_serve_panics_total",
        state
            .faults
            .panics
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    counter(
        &mut w,
        "hc_serve_deadline_exceeded_total",
        state
            .faults
            .deadline_exceeded
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    counter(
        &mut w,
        "hc_serve_recorder_recorded_total",
        state.recorder.recorded_total(),
    );
    counter(
        &mut w,
        "hc_serve_recorder_survivors_pinned_total",
        state.recorder.survivors_pinned_total(),
    );

    // Live-session series, read from the same registry snapshot helper as
    // the JSON `sessions` object (goldened for agreement in the tests).
    let s = session_counters();
    gauge(&mut w, "hc_serve_sessions_active", s.active);
    counter(&mut w, "hc_serve_sessions_created_total", s.created);
    counter(&mut w, "hc_serve_sessions_deleted_total", s.deleted);
    counter(&mut w, "hc_serve_sessions_expired_total", s.expired);
    counter(&mut w, "hc_serve_sessions_evicted_total", s.evicted);
    counter(&mut w, "hc_serve_sessions_patches_total", s.patches);
    counter(&mut w, "hc_serve_sessions_watches_total", s.watches);
    counter(&mut w, "hc_serve_sessions_watch_wakes_total", s.watch_wakes);
    counter(&mut w, "hc_serve_sessions_conflicts_total", s.conflicts);
    counter(&mut w, "hc_serve_sessions_drains_total", s.drains);
    counter(
        &mut w,
        "hc_serve_sessions_warm_fallbacks_total",
        s.warm_fallbacks,
    );
    counter(&mut w, "hc_serve_sessions_recomputes_total", s.recomputes);
    counter(
        &mut w,
        "hc_serve_sessions_recomputes_warm_total",
        s.recomputes_warm,
    );

    write_slo_series(&mut w, &state.slo.snapshot());

    // The merged hc-obs library registry (sinkhorn/SVD/core counters and
    // iteration histograms), so kernels and daemon share one scrape.
    let mut out = w.finish();
    out.push_str(&hc_obs::prom::render_registry());
    out
}

/// Writes the SLO gauge series for one engine snapshot: per-objective
/// objectives, per-window error/burn rates, per-alert firing flags, and the
/// overall `degraded` flag — mirroring the JSON `slo` object.
fn write_slo_series(w: &mut hc_obs::prom::PromWriter, s: &hc_obs::slo::SloSnapshot) {
    let mut objectives: Vec<(&str, &hc_obs::slo::ObjectiveSnapshot)> =
        vec![("availability", &s.availability)];
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
    let windows =
        |o: &hc_obs::slo::ObjectiveSnapshot| [("short", o.short), ("mid", o.mid), ("long", o.long)];
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

/// Build identity rendered into `/metrics` and `/healthz`: crate version plus
/// the `git describe` output captured at compile time via the
/// `HC_GIT_DESCRIBE` environment variable (absent in plain `cargo build`, so
/// it degrades to `"unknown"`).
pub fn build_info_json() -> String {
    JsonObject::new()
        .str("version", env!("CARGO_PKG_VERSION"))
        .str(
            "git_describe",
            option_env!("HC_GIT_DESCRIBE").unwrap_or("unknown"),
        )
        .finish()
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = r.snapshot("measure").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.service_buckets.iter().sum::<u64>(), 3);

        let j = r.to_json(
            "{\"queued\":0}",
            "{\"open\":0}",
            "{\"entries\":0}",
            "{\"panics_total\":0}",
            "{\"recorded_total\":0}",
            "{\"active\":0}",
            "{\"degraded\":false}",
            "{\"state\":\"ok\"}",
            2,
            "{}",
        );
        assert!(j.contains("\"uptime_seconds\":"));
        assert!(j.contains("\"build\":{\"version\":"));
        assert!(j.contains("\"requests_total\":3"));
        assert!(j.contains("\"requests_in_flight\":2"));
        assert!(j.contains("\"measure\":{\"count\":3"));
        assert!(j.contains("\"cache_hits\":1"));
        assert!(j.contains("\"service_histogram_us\""));
        assert!(j.contains("\"pool\":{\"queued\":0}"));
        assert!(j.contains("\"connections\":{\"open\":0}"));
        assert!(j.contains("\"faults\":{\"panics_total\":0}"));
        assert!(j.contains("\"sessions\":{\"active\":0}"));
        assert!(j.contains("\"slo\":{\"degraded\":false}"));
        assert!(j.contains("\"overload\":{\"state\":\"ok\"}"));
        assert!(j.contains("\"library\":{}"));
        assert!(j.contains("le_"));
    }

    #[test]
    fn poisoned_registry_still_serves() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let r2 = Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _g = r2.endpoints.lock().unwrap();
            panic!("poison the metrics mutex");
        })
        .join();
        assert!(r.endpoints.is_poisoned());
        // Recording and rendering both recover instead of propagating.
        r.record("e", false, false, Duration::from_micros(5), Duration::ZERO);
        assert_eq!(r.snapshot("e").unwrap().count, 1);
        let j = r.to_json("{}", "{}", "{}", "{}", "{}", "{}", "{}", "{}", 0, "{}");
        assert!(j.contains("\"requests_total\":1"), "{j}");
    }

    #[test]
    fn quantiles_monotone() {
        let r = Registry::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            r.record("e", false, false, Duration::from_micros(us), Duration::ZERO);
        }
        let s = r.snapshot("e").unwrap();
        let p50 = s.quantile_upper_us(0.50);
        let p95 = s.quantile_upper_us(0.95);
        let p99 = s.quantile_upper_us(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= 100, "median sample is 100us, upper bound {p50}");
        assert_eq!(r.snapshot("absent").map(|s| s.count), None);
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let r = Registry::new();
        r.record("e", false, false, Duration::from_nanos(1), Duration::ZERO);
        let s = r.snapshot("e").unwrap();
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.service_buckets[0], 1);
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
        let s = r.snapshot("e").unwrap();
        assert_eq!(s.total_us, 5000);
        assert_eq!(s.service_total_us, 1000);
        assert_eq!(s.latency_buckets[bucket_of(5000)], 1);
        assert_eq!(s.service_buckets[bucket_of(1000)], 1);
        assert_ne!(bucket_of(5000), bucket_of(1000));
    }
}
