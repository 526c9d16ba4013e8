//! Dispatch, result caching, batch fan-out, and per-request metrics.
//!
//! The router owns every cross-cutting concern the pure handlers must not know
//! about: method checks, the content-addressed cache (`X-Cache: hit|miss` on
//! cacheable endpoints), `/batch` fan-out over the pool's subtask lane,
//! `/metrics` assembly, and the admin endpoints (`/healthz`, `/sleepz`,
//! `/quitquitquit`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hc_linalg::Budget;

use crate::cache::{cache_key, CachedResponse};
use crate::handlers::{self, ReqCtx};
use crate::http::{Body, HttpError, Request, Response};
use crate::server::{Config, ServerState};
use hc_obs::json;

/// Most matrices accepted in one `/batch` request.
pub const MAX_BATCH_PARTS: usize = 1024;

/// Longest `/sleepz` nap in milliseconds (keeps the debug endpoint harmless).
const MAX_SLEEP_MS: u64 = 10_000;

/// Largest honoured `X-Timeout-Ms` when the server sets no deadline of its
/// own, so a header cannot schedule an effectively-unbounded budget.
const MAX_HEADER_TIMEOUT_MS: u64 = 600_000;

/// Endpoints whose responses describe live server state and must never be
/// served stale by an intermediary: every one gets `Cache-Control: no-store`
/// centrally in [`route`] (one list instead of per-handler headers, so a new
/// live endpoint cannot silently miss it).
const NO_STORE_ENDPOINTS: &[&str] = &[
    "metrics",
    "healthz",
    "debug_requests",
    "debug_request",
    "debug_profile",
    "debug_timeseries",
    "session",
    "session_id",
    "session_etc",
    "session_watch",
];

/// The per-request deadline in effect: the client's `X-Timeout-Ms` clamped to
/// the server's `--request-timeout-ms` (or to [`MAX_HEADER_TIMEOUT_MS`] when
/// the server sets none). `None` = no deadline.
fn effective_timeout_ms(config: &Config, req: &Request) -> Option<u64> {
    match (req.timeout_ms, config.request_timeout_ms) {
        (None, 0) => None,
        (None, server) => Some(server),
        (Some(header), 0) => Some(header.min(MAX_HEADER_TIMEOUT_MS)),
        (Some(header), server) => Some(header.min(server)),
    }
}

/// Stable metric name for a request path (also the admission controller's
/// endpoint-class key; see [`crate::overload::classify`]).
pub(crate) fn endpoint_name(req: &Request) -> &'static str {
    if req.path.starts_with("/debug/requests/") {
        return "debug_request";
    }
    if req.path == "/debug/profile" {
        return "debug_profile";
    }
    if req.path == "/debug/timeseries" {
        return "debug_timeseries";
    }
    if let Some(rest) = req.path.strip_prefix("/session/") {
        return if rest.ends_with("/etc") {
            "session_etc"
        } else if rest.ends_with("/watch") {
            "session_watch"
        } else {
            "session_id"
        };
    }
    match req.path.as_str() {
        "/session" => "session",
        "/measure" => "measure",
        "/structure" => "structure",
        "/generate" => "generate",
        "/schedule" => "schedule",
        "/batch" => "batch",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/debug/requests" => "debug_requests",
        "/sleepz" => "sleepz",
        "/quitquitquit" => "quitquitquit",
        _ => "other",
    }
}

/// Canonical textual form of the query for cache keying. `Request::query` is a
/// `BTreeMap`, so equivalent requests serialize identically regardless of the
/// parameter order on the wire.
fn canonical_options(req: &Request) -> String {
    let mut out = String::new();
    for (k, v) in &req.query {
        if !out.is_empty() {
            out.push('&');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

/// Whether this request would be answered straight from the result cache.
/// Used by the admission controller to upgrade cache-resident requests to
/// Critical during overload: serving them costs no solver work. The probe is
/// a non-counting peek — it must not inflate hit statistics or churn LRU
/// order for a request that may still be shed by the depth backstop.
pub(crate) fn would_hit_cache(state: &ServerState, req: &Request) -> bool {
    let name = endpoint_name(req);
    if !matches!(name, "measure" | "structure" | "generate" | "schedule") || req.method != "POST" {
        return false;
    }
    state
        .cache
        .contains(cache_key(name, &canonical_options(req), &req.body))
}

/// Runs a cacheable handler through the result cache.
///
/// Responses other than `200` are never cached (errors must re-evaluate).
/// Both directions are zero-copy: a hit answers with an `Arc` clone of the
/// cached bytes, and a miss stores a shared handle to the response's own
/// buffer rather than duplicating it.
/// Returns the response and whether it was a cache hit.
fn cached(
    state: &ServerState,
    name: &'static str,
    req: &Request,
    ctx: &ReqCtx<'_>,
    handler: fn(&Request, &ReqCtx<'_>) -> Result<Response, HttpError>,
) -> (Response, bool) {
    let key = cache_key(name, &canonical_options(req), &req.body);
    if let Some(hit) = state.cache.get(key) {
        let resp = Response {
            status: 200,
            content_type: hit.content_type,
            body: Body::Shared(hit.body),
            headers: Vec::new(),
        };
        return (resp.with_header("X-Cache", "hit"), true);
    }
    match handler(req, ctx) {
        Ok(mut resp) if resp.status == 200 => {
            let entry = CachedResponse {
                content_type: resp.content_type,
                body: resp.body.share(),
            };
            {
                let mut shard = state.cache.lock_shard(key);
                // Deliberate crash site: a panic here poisons the shard lock,
                // exercising the clear-on-recovery path under chaos tests.
                hc_obs::failpoints::fire("cache.insert");
                shard.put(key, entry);
            }
            (resp.with_header("X-Cache", "miss"), false)
        }
        Ok(resp) => (resp, false),
        Err(e) => {
            if e.status == 504 {
                state
                    .faults
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
            (e.to_response(), false)
        }
    }
}

/// `POST /batch` — many matrices in one request, fanned across the pool.
///
/// The body is a sequence of CSV matrices separated by lines containing only
/// `---`. Each part is measured exactly as `POST /measure` would (same query
/// parameters, same per-part cache), and the response carries one result
/// object — or `{"error": …}` — per part, in input order.
///
/// Items are fault-isolated: a panicking, malformed, oversized, or
/// deadline-exceeded part yields a per-item error object (`"code"` set) while
/// every other part completes normally — one bad matrix never fails the batch.
fn batch(state: &Arc<ServerState>, req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    handlers::check_allowed(req, &["ecs", "zero-policy"])?;
    let text = req.body_text()?;
    let parts: Vec<String> = split_batch(text);
    if parts.is_empty() {
        return Err(HttpError::bad(
            "empty batch: body must hold CSV matrices separated by '---' lines",
        ));
    }
    if parts.len() > MAX_BATCH_PARTS {
        return Err(HttpError::bad(format!(
            "batch of {} parts exceeds the limit of {MAX_BATCH_PARTS}",
            parts.len()
        )));
    }

    let n = parts.len();
    let results: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(vec![None; n]));
    let finished = Arc::new(AtomicUsize::new(0));
    for (i, part) in parts.into_iter().enumerate() {
        let sub = Request {
            method: "POST".to_string(),
            path: "/measure".to_string(),
            query: req.query.clone(),
            body: part.into_bytes(),
            request_id: None,
            timeout_ms: None,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        };
        let (st, res, fin) = (
            Arc::clone(state),
            Arc::clone(&results),
            Arc::clone(&finished),
        );
        // The whole batch shares one deadline; each subtask carries an owned
        // clone because it may outlive this stack frame on another worker.
        let budget = ctx.budget.cloned();
        let max_cells = ctx.max_cells;
        state.pool.spawn_subtask(Box::new(move || {
            let item_ctx = ReqCtx {
                budget: budget.as_ref(),
                max_cells,
            };
            // Per-item fault isolation: a panic in one part becomes that
            // part's error object, never a whole-batch failure.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Reuse the /measure cache so identical matrices — within this
                // batch or across requests — are computed once.
                let (resp, _hit) = cached(&st, "measure", &sub, &item_ctx, handlers::measure);
                String::from_utf8_lossy(resp.body.as_slice()).into_owned()
            }));
            let rendered = outcome.unwrap_or_else(|_| {
                st.faults.panics.fetch_add(1, Ordering::Relaxed);
                let resp = HttpError::typed(
                    500,
                    "internal_panic",
                    "internal panic while measuring batch item",
                )
                .to_response();
                String::from_utf8_lossy(resp.body.as_slice()).into_owned()
            });
            hc_obs::sync::lock_recover(&res)[i] = Some(rendered);
            fin.fetch_add(1, Ordering::SeqCst);
        }));
    }
    // Help drain the subtask lane so a busy pool (even one worker) completes.
    let fin = Arc::clone(&finished);
    state
        .pool
        .help_until(move || fin.load(Ordering::SeqCst) == n);

    let collected = hc_obs::sync::lock_recover(&results);
    Ok(Response::json(json::object(|o| {
        o.u64("count", n as u64);
        let mut arr = o.array("results");
        for slot in collected.iter() {
            match slot {
                Some(item) => arr.rendered(item),
                None => arr.null(),
            };
        }
    })))
}

/// Splits a batch body into per-matrix CSV chunks on `---` separator lines.
fn split_batch(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    for line in text.lines() {
        if line.trim() == "---" {
            if !current.trim().is_empty() {
                parts.push(std::mem::take(&mut current));
            }
            current.clear();
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

/// `GET /debug/profile?seconds=N&format=folded|json` — the continuous
/// profiler's folded-stack render (default) or JSON top table. `seconds`
/// restricts the profile to the epochs overlapping the last N seconds;
/// absent means since boot. Answers a typed 404 while profiling is disabled
/// (`--profile-hz 0`).
fn debug_profile(req: &Request) -> Result<Response, HttpError> {
    if !hc_obs::profile::running() {
        return Err(HttpError::typed(
            404,
            "profiler_disabled",
            "continuous profiling is disabled (start the server with --profile-hz > 0)",
        ));
    }
    let window = match req.param("seconds") {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(s) if s > 0 => Some(Duration::from_secs(s)),
            _ => {
                return Err(HttpError::bad(format!(
                    "seconds must be a positive integer, got {raw:?}"
                )))
            }
        },
    };
    match req.param("format") {
        None | Some("folded") => Ok(Response::text(hc_obs::profile::render_folded(window))),
        Some("json") => Ok(Response::json(hc_obs::profile::top_json(window, 50))),
        Some(other) => Err(HttpError::bad(format!(
            "unknown format {other:?} (expected folded or json)"
        ))),
    }
}

/// Folds a session handler result into the dispatch shape, keeping the
/// deadline-exceeded fault counter accurate (session endpoints bypass the
/// cache path that normally counts 504s).
fn session_result(state: &ServerState, result: Result<Response, HttpError>) -> (Response, bool) {
    match result {
        Ok(resp) => (resp, false),
        Err(e) => {
            if e.status == 504 {
                state
                    .faults
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
            (e.to_response(), false)
        }
    }
}

fn require_method(req: &Request, method: &str) -> Result<(), Response> {
    if req.method == method {
        Ok(())
    } else {
        Err(Response::error(
            405,
            &format!("{} requires {method}", req.path),
        ))
    }
}

/// Routes one request, records metrics, and returns the response to write.
///
/// `accepted` is the instant the connection was accepted (before queueing),
/// so the recorded latency includes queue wait; the service time measured
/// from here is recorded separately. `request_id` is the id the connection
/// handler will echo as `X-Request-Id`.
pub fn route(
    state: &Arc<ServerState>,
    req: &Request,
    accepted: Instant,
    request_id: &str,
) -> Response {
    let service_start = Instant::now();
    let queue_wait = service_start.duration_since(accepted);
    let mut obs = hc_obs::span("serve.request");
    let name = endpoint_name(req);
    // The deadline is measured from accept, so queue wait spends budget too:
    // a request that waited out its deadline in the queue fails fast.
    let deadline_ms = effective_timeout_ms(&state.config, req);
    if let Some(ms) = deadline_ms {
        hc_obs::recorder::note_u64("deadline_ms", ms);
    }
    let budget =
        deadline_ms.map(|ms| Budget::with_deadline_at(accepted + Duration::from_millis(ms)));
    let ctx = ReqCtx {
        budget: budget.as_ref(),
        max_cells: state.config.max_cells,
    };
    let (resp, cache_hit) = dispatch(state, name, req, &ctx);
    let resp = if NO_STORE_ENDPOINTS.contains(&name) {
        resp.with_header("Cache-Control", "no-store")
    } else {
        resp
    };
    let service = service_start.elapsed();
    let latency = accepted.elapsed();
    // A watch that decided to park produced a placeholder, not a response:
    // nothing reached the client, so recording metrics or logging now would
    // double-count the request when the reactor re-runs it.
    if crate::session::park_pending() {
        return resp;
    }
    if budget.is_some() {
        // How much of the request's deadline the handler actually spent.
        hc_obs::recorder::note_u64("budget_consumed_us", service.as_micros() as u64);
    }
    state
        .metrics
        .record(name, resp.status >= 400, cache_hit, latency, service);
    if obs.armed() {
        obs.field_str("request_id", request_id);
        obs.field_str("endpoint", name);
        obs.field_str("path", &req.path);
        obs.field_u64("status", u64::from(resp.status));
        obs.field_bool("cache_hit", cache_hit);
        obs.field_u64("queue_us", queue_wait.as_micros() as u64);
        obs.field_u64("service_us", service.as_micros() as u64);
    }
    let slow_ms = state.config.slow_ms;
    if slow_ms > 0 && latency >= std::time::Duration::from_millis(slow_ms) {
        let latency_ms = latency.as_millis() as u64;
        if hc_obs::sink_installed() {
            hc_obs::event(
                hc_obs::Level::Warn,
                "serve.slow_request",
                &[
                    (
                        "request_id",
                        hc_obs::FieldValue::Str(request_id.to_string()),
                    ),
                    ("endpoint", hc_obs::FieldValue::Str(name.to_string())),
                    ("status", hc_obs::FieldValue::U64(u64::from(resp.status))),
                    ("latency_ms", hc_obs::FieldValue::U64(latency_ms)),
                    (
                        "queue_us",
                        hc_obs::FieldValue::U64(queue_wait.as_micros() as u64),
                    ),
                    (
                        "service_us",
                        hc_obs::FieldValue::U64(service.as_micros() as u64),
                    ),
                ],
            );
        } else {
            eprintln!(
                "hcm serve: slow request {request_id}: {} {} -> {} in {latency_ms} ms \
                 (queue {} us, service {} us; threshold {slow_ms} ms)",
                req.method,
                req.path,
                resp.status,
                queue_wait.as_micros(),
                service.as_micros(),
            );
        }
    }
    resp
}

fn dispatch(
    state: &Arc<ServerState>,
    name: &'static str,
    req: &Request,
    ctx: &ReqCtx<'_>,
) -> (Response, bool) {
    // Deliberate crash site at handler entry; the connection job's
    // catch_unwind turns it into a 500 carrying the request id.
    hc_obs::failpoints::fire("handler");
    match name {
        "measure" | "structure" | "generate" | "schedule" => {
            if let Err(resp) = require_method(req, "POST") {
                return (resp, false);
            }
            let handler = match name {
                "measure" => handlers::measure,
                "structure" => handlers::structure,
                "generate" => handlers::generate,
                _ => handlers::schedule,
            };
            cached(state, name, req, ctx, handler)
        }
        "batch" => {
            if let Err(resp) = require_method(req, "POST") {
                return (resp, false);
            }
            match batch(state, req, ctx) {
                Ok(resp) => (resp, false),
                Err(e) => (e.to_response(), false),
            }
        }
        "session" => {
            if let Err(resp) = require_method(req, "POST") {
                return (resp, false);
            }
            session_result(state, crate::session::create(state, req, ctx))
        }
        "session_id" => {
            let id = req.path.trim_start_matches("/session/");
            match req.method.as_str() {
                "GET" => session_result(state, crate::session::get(&state.sessions, id)),
                "DELETE" => session_result(state, crate::session::delete(state, id)),
                _ => (
                    Response::error(405, &format!("{} requires GET or DELETE", req.path)),
                    false,
                ),
            }
        }
        "session_etc" => {
            if let Err(resp) = require_method(req, "PATCH") {
                return (resp, false);
            }
            let id = req
                .path
                .trim_start_matches("/session/")
                .trim_end_matches("/etc");
            session_result(state, crate::session::patch(&state.sessions, req, id, ctx))
        }
        "session_watch" => {
            if let Err(resp) = require_method(req, "GET") {
                return (resp, false);
            }
            let id = req
                .path
                .trim_start_matches("/session/")
                .trim_end_matches("/watch");
            session_result(state, crate::session::watch(state, req, id, ctx))
        }
        "metrics" => match require_method(req, "GET") {
            Ok(()) => match req.param("format") {
                None | Some("json") => {
                    (Response::json(crate::metrics::json_document(state)), false)
                }
                Some("prometheus") => (
                    Response::prometheus(crate::metrics::prometheus_document(state)),
                    false,
                ),
                Some(other) => (
                    Response::error(
                        400,
                        &format!("unknown format {other:?} (expected json or prometheus)"),
                    ),
                    false,
                ),
            },
            Err(resp) => (resp, false),
        },
        "healthz" => {
            // `ok` stays for backwards compatibility: the process is up and
            // answering. `status` degrades to "degraded" while an SLO
            // burn-rate alert fires, so orchestration can act before the
            // budget is gone.
            let degraded = state.slo.snapshot().degraded;
            let body = json::object(|o| {
                o.bool("ok", true)
                    .str("status", if degraded { "degraded" } else { "ok" })
                    .str(
                        "overload_state",
                        crate::overload::state_name(state.overload.current_state()),
                    )
                    .u64("uptime_seconds", state.metrics.uptime().as_secs());
                crate::metrics::write_build_info(&mut o.object("build"));
                o.i64(
                    "requests_in_flight",
                    state.in_flight.load(std::sync::atomic::Ordering::Relaxed),
                );
            });
            (Response::json(body), false)
        }
        "debug_requests" => match require_method(req, "GET") {
            Ok(()) => (Response::json(state.recorder.summary_json()), false),
            Err(resp) => (resp, false),
        },
        "debug_timeseries" => match require_method(req, "GET") {
            Ok(()) => match crate::collector::debug_timeseries(state, req) {
                Ok(resp) => (resp, false),
                Err(e) => (e.to_response(), false),
            },
            Err(resp) => (resp, false),
        },
        "debug_profile" => match require_method(req, "GET") {
            Ok(()) => match debug_profile(req) {
                Ok(resp) => (resp, false),
                Err(e) => (e.to_response(), false),
            },
            Err(resp) => (resp, false),
        },
        "debug_request" => match require_method(req, "GET") {
            Ok(()) => {
                let id = req.path.trim_start_matches("/debug/requests/");
                match state.recorder.lookup(id) {
                    Some(record) => (Response::json(record.to_json()), false),
                    None => (
                        HttpError::typed(
                            404,
                            "not_recorded",
                            format!("request {id} is not in the flight recorder"),
                        )
                        .to_response(),
                        false,
                    ),
                }
            }
            Err(resp) => (resp, false),
        },
        "sleepz" => {
            // Debug endpoint: occupy a worker for a bounded time, making
            // load-shed behaviour deterministic in tests and drills.
            let ms = req
                .param("ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(100)
                .min(MAX_SLEEP_MS);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let body = json::object(|o| {
                o.u64("slept_ms", ms);
            });
            (Response::json(body), false)
        }
        "quitquitquit" => {
            state
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            // Flush session watchers immediately (the accept loop also drains
            // as a backstop for the SIGINT path): parked long-polls answer a
            // typed 503 instead of holding workers to their deadlines.
            state.sessions.drain();
            let body = json::object(|o| {
                o.bool("shutting_down", true);
            });
            (Response::json(body), false)
        }
        _ => (
            Response::error(404, &format!("no such endpoint {}", req.path)),
            false,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_batches() {
        let parts = split_batch("a,b\n1,2\n---\nc,d\n3,4\n---\n");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "a,b\n1,2\n");
        assert_eq!(parts[1], "c,d\n3,4\n");
        assert!(split_batch("---\n   \n---").is_empty());
        assert_eq!(split_batch("just,one\n1,2").len(), 1);
    }

    #[test]
    fn canonical_options_sorted_and_stable() {
        let req = Request {
            method: "POST".into(),
            path: "/measure".into(),
            query: [("zero-policy", "limit"), ("ecs", "1")]
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
            request_id: None,
            timeout_ms: None,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        };
        assert_eq!(canonical_options(&req), "ecs=1&zero-policy=limit");
    }

    #[test]
    fn timeout_header_clamped_by_server_config() {
        let mut config = Config::default();
        let req = |ms: Option<u64>| Request {
            method: "POST".into(),
            path: "/measure".into(),
            query: Default::default(),
            body: Vec::new(),
            request_id: None,
            timeout_ms: ms,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        };
        // Server timeout off: header honoured, but capped.
        config.request_timeout_ms = 0;
        assert_eq!(effective_timeout_ms(&config, &req(None)), None);
        assert_eq!(effective_timeout_ms(&config, &req(Some(250))), Some(250));
        assert_eq!(
            effective_timeout_ms(&config, &req(Some(u64::MAX))),
            Some(MAX_HEADER_TIMEOUT_MS)
        );
        // Server timeout on: default for headerless requests, clamp for the rest.
        config.request_timeout_ms = 1000;
        assert_eq!(effective_timeout_ms(&config, &req(None)), Some(1000));
        assert_eq!(effective_timeout_ms(&config, &req(Some(250))), Some(250));
        assert_eq!(effective_timeout_ms(&config, &req(Some(9999))), Some(1000));
    }
}
