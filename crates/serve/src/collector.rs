//! The tsdb collector thread and the `/debug/timeseries` endpoint.
//!
//! Once per second, a dedicated thread snapshots the server's own counters
//! (per-endpoint request/error/cache totals, overload ladder rung, SLO burn
//! rate, live workers and connections) plus the entire [`hc_obs::metrics`]
//! registry into the in-process time-series store
//! ([`hc_obs::tsdb::Tsdb`]) — tiered per-second ring buffers that retain
//! `--tsdb-retention` seconds of history with no external Prometheus.
//!
//! Latency quantiles are computed over **per-interval deltas** of the log₂
//! histograms, not the cumulative totals: a cumulative quantile converges and
//! stops moving, while the delta answers "how slow is it right now". Idle
//! intervals hold the last value so dashboards do not sawtooth to zero.
//!
//! `GET /debug/timeseries` reads it back: aligned per-second (or
//! downsampled) arrays for any recorded series, `rate_per_s` deltas for
//! counters, and a terminal-friendly `format=sparkline` render — the data
//! source for `hcm top`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hc_obs::json::{self, Array};
use hc_obs::metrics::{quantile_upper, BUCKETS};
use hc_obs::sync::lock_recover;
use hc_obs::tsdb::{Kind, QueryResult, Tsdb};

use crate::http::{HttpError, Request, Response};
use crate::metrics::Registry;
use crate::server::ServerState;

/// Collection cadence: one sample per second, matching the finest tier.
const COLLECT_PERIOD: Duration = Duration::from_secs(1);

/// Default query window when `window` is absent (seconds).
const DEFAULT_WINDOW_S: u64 = 300;

/// Most series one query may ask for (bounds response size).
const MAX_SERIES_PER_QUERY: usize = 32;

/// Seconds since the Unix epoch — the tsdb's timestamp domain.
pub(crate) fn unix_now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Spawns the collector thread (named `hc-serve-tsdb`) and records it in
/// `state` so teardown can wake it and [`crate::ServerHandle::join`] can
/// join it. The thread samples immediately, then
/// sleeps one [`COLLECT_PERIOD`] between samples, and exits when the
/// server's shutdown flag rises: [`ServerState::stop_collector`] raises it
/// and unparks the thread, ending its sleep early.
pub(crate) fn spawn(state: Arc<ServerState>) {
    let spawned = std::thread::Builder::new()
        .name("hc-serve-tsdb".to_string())
        .spawn({
            let state = Arc::clone(&state);
            move || {
                let mut collector = Collector::default();
                loop {
                    collector.collect(&state, unix_now_s());
                    let wake = Instant::now() + COLLECT_PERIOD;
                    loop {
                        if state.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let now = Instant::now();
                        if now >= wake {
                            break;
                        }
                        std::thread::park_timeout(wake - now);
                    }
                }
            }
        });
    if let Ok(handle) = spawned {
        *lock_recover(&state.collector) = Some(handle);
    }
}

/// One stateless collection pass, for tests that cannot wait out the 1 Hz
/// cadence: samples everything the background thread samples, with the
/// latency quantiles taken over the cumulative histogram instead of a delta.
pub fn collect_once(state: &ServerState) {
    Collector::default().collect(state, unix_now_s());
}

/// Whole-server sums over every endpoint at one collection pass.
#[derive(Default)]
struct Totals {
    requests: u64,
    errors: u64,
    cache_hits: u64,
    latency: [u64; BUCKETS],
}

impl Totals {
    fn of(registry: &Registry) -> Self {
        let mut t = Totals::default();
        for (_, e) in registry.endpoints() {
            t.requests += e.requests.get();
            t.errors += e.errors.get();
            t.cache_hits += e.cache_hits.get();
            for (sum, n) in t.latency.iter_mut().zip(e.latency.bucket_counts()) {
                *sum += n;
            }
        }
        t
    }
}

/// Delta memory between collection passes; the first pass diffs against
/// zero, i.e. reads the cumulative histogram.
#[derive(Default)]
struct Collector {
    prev: Totals,
    last_p50: f64,
    last_p99: f64,
    last_hit_rate: f64,
}

impl Collector {
    fn collect(&mut self, state: &ServerState, ts_s: u64) {
        let Some(tsdb) = &state.tsdb else {
            return;
        };
        let now = Totals::of(&state.metrics);
        tsdb.record(
            Kind::Counter,
            "serve_requests_total",
            ts_s,
            now.requests as f64,
        );
        tsdb.record(Kind::Counter, "serve_errors_total", ts_s, now.errors as f64);
        tsdb.record(
            Kind::Counter,
            "serve_cache_hits_total",
            ts_s,
            now.cache_hits as f64,
        );
        let delta: [u64; BUCKETS] =
            std::array::from_fn(|k| now.latency[k].saturating_sub(self.prev.latency[k]));
        if delta.iter().any(|&n| n > 0) {
            self.last_p50 = quantile_upper(&delta, 0.50) as f64;
            self.last_p99 = quantile_upper(&delta, 0.99) as f64;
        }
        let requests = now.requests.saturating_sub(self.prev.requests);
        if requests > 0 {
            self.last_hit_rate =
                now.cache_hits.saturating_sub(self.prev.cache_hits) as f64 / requests as f64;
        }
        tsdb.record(Kind::Gauge, "serve_latency_p50_us", ts_s, self.last_p50);
        tsdb.record(Kind::Gauge, "serve_latency_p99_us", ts_s, self.last_p99);
        tsdb.record(
            Kind::Gauge,
            "serve_cache_hit_rate",
            ts_s,
            self.last_hit_rate,
        );
        tsdb.record(
            Kind::Gauge,
            "serve_overload_state",
            ts_s,
            f64::from(state.overload.current_state()),
        );
        tsdb.record(
            Kind::Gauge,
            "serve_slo_burn_short",
            ts_s,
            state.slo.snapshot().availability.short.burn_rate,
        );
        tsdb.record(
            Kind::Gauge,
            "serve_workers_live",
            ts_s,
            state.pool.worker_count() as f64,
        );
        tsdb.record(
            Kind::Gauge,
            "serve_connections_open",
            ts_s,
            state.conns.open.load(Ordering::Relaxed) as f64,
        );
        tsdb.record(
            Kind::Gauge,
            "serve_requests_in_flight",
            ts_s,
            state.in_flight.load(Ordering::Relaxed) as f64,
        );
        // Everything the shared library registry holds — session counters,
        // solver iteration histograms (as _count/_sum), tsdb_bytes itself.
        tsdb.collect_registry(ts_s);
        self.prev = now;
    }
}

/// `GET /debug/timeseries` — retained per-second history.
///
/// * no `series` parameter — the catalog: every recorded series name + kind,
///   the tier layout, and the store's memory footprint;
/// * `series=a,b,c` — aligned arrays per series over `window` seconds
///   (default 300) at `step` seconds (default: the finest tier covering the
///   window). Counters additionally carry `rate_per_s` deltas, clamped ≥ 0;
/// * `format=sparkline` — the same query as terminal sparklines, one line
///   per series (counters sparkle their rate).
pub(crate) fn debug_timeseries(state: &ServerState, req: &Request) -> Result<Response, HttpError> {
    let Some(tsdb) = &state.tsdb else {
        return Err(HttpError::typed(
            404,
            "tsdb_disabled",
            "the in-process time-series store is disabled (--tsdb-off)",
        ));
    };
    let now_s = unix_now_s();
    let window_s = match req.param("window") {
        None => DEFAULT_WINDOW_S,
        Some(raw) => match raw.parse::<u64>() {
            Ok(s) if s > 0 => s,
            _ => {
                return Err(HttpError::bad(format!(
                    "window must be a positive integer of seconds, got {raw:?}"
                )))
            }
        },
    };
    let step_s = match req.param("step") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(s) if s > 0 => Some(s),
            _ => {
                return Err(HttpError::bad(format!(
                    "step must be a positive integer of seconds, got {raw:?}"
                )))
            }
        },
    };
    let Some(raw_series) = req.param("series") else {
        return Ok(Response::json(catalog_json(tsdb, now_s)));
    };
    let names: Vec<&str> = raw_series
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(HttpError::bad(
            "series must name at least one recorded series (comma-separated)",
        ));
    }
    if names.len() > MAX_SERIES_PER_QUERY {
        return Err(HttpError::bad(format!(
            "at most {MAX_SERIES_PER_QUERY} series per query, got {}",
            names.len()
        )));
    }
    let mut results: Vec<(&str, QueryResult)> = Vec::with_capacity(names.len());
    for name in names {
        match tsdb.query(name, now_s, window_s, step_s) {
            Some(q) => results.push((name, q)),
            None => {
                return Err(HttpError::typed(
                    404,
                    "unknown_series",
                    format!(
                        "series {name:?} is not recorded (GET /debug/timeseries without \
                         parameters lists the catalog)"
                    ),
                ))
            }
        }
    }
    match req.param("format") {
        None | Some("json") => Ok(Response::json(render_json(now_s, window_s, &results))),
        Some("sparkline") => Ok(Response::text(render_sparklines(&results))),
        Some(other) => Err(HttpError::bad(format!(
            "unknown format {other:?} (expected json or sparkline)"
        ))),
    }
}

/// The no-parameters catalog document.
fn catalog_json(tsdb: &Tsdb, now_s: u64) -> String {
    json::object(|o| {
        o.u64("now_s", now_s).i64("tsdb_bytes", tsdb.bytes());
        {
            let mut tiers = o.array("tiers");
            for &(step, slots) in tsdb.tiers() {
                tiers
                    .object()
                    .u64("step_s", step)
                    .u64("slots", slots as u64)
                    .u64("span_s", step * slots as u64);
            }
        }
        let mut series = o.array("series");
        for (name, kind) in tsdb.series_names() {
            series
                .object()
                .str("name", &name)
                .str("kind", kind.as_str());
        }
    })
}

/// Writes one `[v1,null,v2,...]` array of optional points.
fn write_points(mut arr: Array<'_>, points: &[Option<f64>]) {
    for p in points {
        match p {
            Some(v) => arr.f64(*v),
            None => arr.null(),
        };
    }
}

/// The `series=` JSON document: aligned arrays, kinds, and counter rates.
fn render_json(now_s: u64, window_s: u64, results: &[(&str, QueryResult)]) -> String {
    json::object(|o| {
        o.u64("now_s", now_s).u64("window_s", window_s);
        let mut series = o.object("series");
        for (name, q) in results {
            let mut s = series.object(name);
            s.str("kind", q.kind.as_str())
                .u64("step_s", q.step_s)
                .u64("start_s", q.start_s);
            write_points(s.array("points"), &q.points);
            if matches!(q.kind, Kind::Counter) {
                write_points(
                    s.array("rate_per_s"),
                    &hc_obs::tsdb::rate(&q.points, q.step_s),
                );
            }
        }
    })
}

/// One line per series: `name  <sparkline>  last=<v> step=<s>s`. Counters
/// sparkle their per-second rate — the shape an operator actually wants.
fn render_sparklines(results: &[(&str, QueryResult)]) -> String {
    let width = results.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, q) in results {
        let points = if matches!(q.kind, Kind::Counter) {
            hc_obs::tsdb::rate(&q.points, q.step_s)
        } else {
            q.points.clone()
        };
        let last = points
            .iter()
            .rev()
            .find_map(|p| *p)
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{name:width$}  {}  last={last} step={}s\n",
            hc_obs::tsdb::sparkline(&points),
            q.step_s,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lists_series_sorted_with_tiers() {
        let tsdb = Tsdb::new(&[(1, 60), (10, 30)]);
        tsdb.record(Kind::Gauge, "zz", 5, 1.0);
        tsdb.record(Kind::Counter, "aa", 5, 2.0);
        let doc = catalog_json(&tsdb, 9);
        assert!(doc.contains("\"now_s\":9"), "{doc}");
        assert!(
            doc.contains("{\"step_s\":1,\"slots\":60,\"span_s\":60}"),
            "{doc}"
        );
        let aa = doc.find("\"aa\"").unwrap();
        let zz = doc.find("\"zz\"").unwrap();
        assert!(aa < zz, "catalog must be sorted: {doc}");
        assert!(
            doc.contains("{\"name\":\"aa\",\"kind\":\"counter\"}"),
            "{doc}"
        );
    }

    #[test]
    fn json_render_carries_rate_for_counters_only() {
        let tsdb = Tsdb::new(&[(1, 60)]);
        for s in 100..105u64 {
            tsdb.record(Kind::Counter, "c", s, (s - 100) as f64 * 3.0);
            tsdb.record(Kind::Gauge, "g", s, 7.0);
        }
        let qc = tsdb.query("c", 104, 5, None).unwrap();
        let qg = tsdb.query("g", 104, 5, None).unwrap();
        let doc = render_json(104, 5, &[("c", qc), ("g", qg)]);
        assert!(doc.contains("\"c\":{\"kind\":\"counter\""), "{doc}");
        assert!(doc.contains("\"rate_per_s\":[null,3,3,3,3]"), "{doc}");
        let g_obj = &doc[doc.find("\"g\":{").unwrap()..];
        assert!(!g_obj.contains("rate_per_s"), "{doc}");
        assert!(g_obj.contains("\"points\":[7,7,7,7,7]"), "{doc}");
    }

    #[test]
    fn catalog_and_series_bytes_are_pinned() {
        let tsdb = Tsdb::new(&[(1, 4), (10, 2)]);
        tsdb.record(Kind::Gauge, "p99_\"us\"", 100, 1.5);
        for (s, v) in [(100, 2.0), (101, 5.0), (102, 8.0)] {
            tsdb.record(Kind::Counter, "requests_total", s, v);
        }
        assert_eq!(
            catalog_json(&tsdb, 103),
            format!(
                "{{\"now_s\":103,\"tsdb_bytes\":{},\"tiers\":[\
                 {{\"step_s\":1,\"slots\":4,\"span_s\":4}},\
                 {{\"step_s\":10,\"slots\":2,\"span_s\":20}}],\"series\":[\
                 {{\"name\":\"p99_\\\"us\\\"\",\"kind\":\"gauge\"}},\
                 {{\"name\":\"requests_total\",\"kind\":\"counter\"}}]}}",
                tsdb.bytes()
            )
        );
        let counter = tsdb.query("requests_total", 103, 4, None).unwrap();
        let gauge = tsdb.query("p99_\"us\"", 103, 4, None).unwrap();
        assert_eq!(
            render_json(
                103,
                4,
                &[("requests_total", counter), ("p99_\"us\"", gauge)]
            ),
            "{\"now_s\":103,\"window_s\":4,\"series\":{\
             \"requests_total\":{\"kind\":\"counter\",\"step_s\":1,\"start_s\":100,\
             \"points\":[2,5,8,null],\"rate_per_s\":[null,3,3,null]},\
             \"p99_\\\"us\\\"\":{\"kind\":\"gauge\",\"step_s\":1,\"start_s\":100,\
             \"points\":[1.5,null,null,null]}}}"
        );
    }

    #[test]
    fn sparkline_render_is_one_line_per_series() {
        let tsdb = Tsdb::new(&[(1, 60)]);
        for s in 100..110u64 {
            tsdb.record(Kind::Gauge, "load", s, (s - 100) as f64);
        }
        let q = tsdb.query("load", 109, 10, None).unwrap();
        let text = render_sparklines(&[("load", q)]);
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("load"), "{text}");
        assert!(text.contains('█'), "{text}");
        assert!(text.contains("last=9.000 step=1s"), "{text}");
    }
}
