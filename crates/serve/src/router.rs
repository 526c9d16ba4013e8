//! The route table, dispatch, result caching, batch fan-out, and
//! per-request metrics.
//!
//! `find` decides a request's `Route` once, from its path, when the
//! reactor dispatches it; admission, the cache probe, the inline-read check
//! and `route` read that one decision. The router owns every
//! cross-cutting concern the pure handlers must not know about: method
//! checks, `Cache-Control: no-store` on live state, the content-addressed
//! cache (`X-Cache: hit|miss` on cacheable endpoints), `/batch` fan-out over
//! the pool's subtask lane, `/metrics` assembly, and the admin endpoints
//! (`/healthz`, `/sleepz`, `/quitquitquit`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hc_linalg::Budget;

use crate::cache::{cache_key, CachedResponse};
use crate::handlers::{self, ReqCtx};
use crate::http::{Body, HttpError, Request, Response};
use crate::overload::Class::{self, Bulk, Critical, Interactive};
use crate::server::{AttemptOutcome, Config, ServerState};
use crate::session::ResolvedRead;
use hc_obs::json;
use Handler::*;
use PathMatch::{Exact, Param};

/// Most matrices accepted in one `/batch` request.
pub const MAX_BATCH_PARTS: usize = 1024;

/// Longest `/sleepz` nap in milliseconds (keeps the debug endpoint harmless).
const MAX_SLEEP_MS: u64 = 10_000;

/// Largest honoured `X-Timeout-Ms` when the server sets no deadline of its
/// own, so a header cannot schedule an effectively-unbounded budget.
const MAX_HEADER_TIMEOUT_MS: u64 = 600_000;

/// How a [`Route`] matches a request path.
enum PathMatch {
    /// This path exactly.
    Exact(&'static str),
    /// `{prefix}{id}{suffix}`: the id is what lies between.
    Param(&'static str, &'static str),
}

/// What answers a [`Route`].
#[derive(Clone, Copy)]
enum Handler {
    /// A pure handler of a posted matrix, served through the result cache.
    Cached(fn(&Request, &ReqCtx<'_>) -> Result<Response, HttpError>),
    Batch,
    SessionCreate,
    /// `GET` reads a session's current version; `DELETE` drops it.
    SessionOne,
    SessionEdit,
    SessionWatch,
    Metrics,
    Healthz,
    DebugRequests,
    DebugRequest,
    DebugProfile,
    DebugTimeseries,
    Sleepz,
    Quit,
    NotFound,
}

/// One endpoint: everything the server decides from a request's path.
pub(crate) struct Route {
    /// The `/metrics` `endpoints` key, also the span's and slow log's
    /// `endpoint`.
    pub name: &'static str,
    path: PathMatch,
    /// The methods it answers (`405` for any other); empty answers every
    /// method.
    methods: &'static [&'static str],
    /// Admission class (DESIGN.md §15), before
    /// [`crate::overload::classify`]'s body-size rule.
    pub class: Class,
    /// Its answers describe live server state, so none may be served stale
    /// by an intermediary: `Cache-Control: no-store`.
    no_store: bool,
    handler: Handler,
}

/// One row of [`ROUTES`], its columns in the order the table lists them.
const fn route_of(
    name: &'static str,
    path: PathMatch,
    methods: &'static [&'static str],
    class: Class,
    no_store: bool,
    handler: Handler,
) -> Route {
    Route {
        name,
        path,
        methods,
        class,
        no_store,
        handler,
    }
}

const ANY: &[&str] = &[];
const GET: &[&str] = &["GET"];
const GET_DELETE: &[&str] = &["GET", "DELETE"];
const PATCH: &[&str] = &["PATCH"];
const POST: &[&str] = &["POST"];

/// Every endpoint, in match order: `/session/{id}/etc` and
/// `/session/{id}/watch` before `/session/{id}`.
#[rustfmt::skip]
static ROUTES: &[Route] = &[
    //        name                path                           methods          class        no-store handler
    route_of("measure",          Exact("/measure"),             POST,            Interactive, false, Cached(handlers::measure)),
    route_of("structure",        Exact("/structure"),           POST,            Interactive, false, Cached(handlers::structure)),
    route_of("generate",         Exact("/generate"),            POST,            Interactive, false, Cached(handlers::generate)),
    route_of("schedule",         Exact("/schedule"),            POST,            Interactive, false, Cached(handlers::schedule)),
    route_of("batch",            Exact("/batch"),               POST,            Bulk,        false, Batch),
    route_of("session",          Exact("/session"),             POST,            Interactive, true,  SessionCreate),
    route_of("session_etc",      Param("/session/", "/etc"),    PATCH,           Interactive, true,  SessionEdit),
    route_of("session_watch",    Param("/session/", "/watch"),  GET,             Critical,    true,  SessionWatch),
    route_of("session_id",       Param("/session/", ""),        GET_DELETE,      Interactive, true,  SessionOne),
    route_of("metrics",          Exact("/metrics"),             GET,             Critical,    true,  Metrics),
    route_of("healthz",          Exact("/healthz"),             ANY,             Critical,    true,  Healthz),
    route_of("debug_requests",   Exact("/debug/requests"),      GET,             Critical,    true,  DebugRequests),
    route_of("debug_request",    Param("/debug/requests/", ""), GET,             Critical,    true,  DebugRequest),
    route_of("debug_profile",    Exact("/debug/profile"),       GET,             Critical,    true,  DebugProfile),
    route_of("debug_timeseries", Exact("/debug/timeseries"),    GET,             Critical,    true,  DebugTimeseries),
    route_of("sleepz",           Exact("/sleepz"),              ANY,             Interactive, false, Sleepz),
    route_of("quitquitquit",     Exact("/quitquitquit"),        ANY,             Critical,    false, Quit),
];

/// Every path no route matches: `404`.
static OTHER: Route = route_of("other", Param("", ""), ANY, Interactive, false, NotFound);

/// The route of a request path: the one place a path is matched to an
/// endpoint.
pub(crate) fn find(path: &str) -> &'static Route {
    let matches = |route: &&Route| match route.path {
        Exact(exact) => path == exact,
        Param(prefix, suffix) => path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.ends_with(suffix)),
    };
    ROUTES.iter().find(matches).unwrap_or(&OTHER)
}

impl Route {
    /// The `{id}` in `path`, a path this route was [`find`]'s answer for
    /// (empty for a route without one).
    pub fn id<'a>(&self, path: &'a str) -> &'a str {
        match self.path {
            Exact(_) => "",
            Param(prefix, suffix) => path
                .get(prefix.len()..path.len().saturating_sub(suffix.len()))
                .unwrap_or_default(),
        }
    }

    /// Whether this route answers `method` (else `405`).
    pub fn allows(&self, method: &str) -> bool {
        self.methods.is_empty() || self.methods.contains(&method)
    }

    /// Whether the result cache serves this route.
    pub fn cached(&self) -> bool {
        matches!(self.handler, Cached(_))
    }

    /// Whether a `method` request to this route reads a session's published
    /// version: the one request the reactor may answer itself.
    pub fn reads_session(&self, method: &str) -> bool {
        matches!(self.handler, SessionOne) && method == "GET"
    }
}

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
pub(crate) fn would_hit_cache(state: &ServerState, endpoint: &Route, req: &Request) -> bool {
    endpoint.cached()
        && endpoint.allows(&req.method)
        && state
            .cache
            .contains(cache_key(endpoint.name, &canonical_options(req), &req.body))
}

/// Runs a cacheable handler through the result cache.
///
/// Responses other than `200` are never cached (errors must re-evaluate).
/// Both directions are zero-copy: a hit answers with an `Arc` clone of the
/// cached bytes, and a miss stores a shared handle to the response's own
/// buffer rather than duplicating it.
/// Returns the handler's answer and whether it was a cache hit.
fn cached(
    state: &ServerState,
    name: &'static str,
    req: &Request,
    ctx: &ReqCtx<'_>,
    handler: fn(&Request, &ReqCtx<'_>) -> Result<Response, HttpError>,
) -> (Result<Response, HttpError>, bool) {
    let key = cache_key(name, &canonical_options(req), &req.body);
    if let Some(hit) = state.cache.get(key) {
        let resp = Response {
            status: 200,
            content_type: hit.content_type,
            body: Body::Shared(hit.body),
            headers: Vec::new(),
        };
        return (Ok(resp.with_header("X-Cache", "hit")), true);
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
            (Ok(resp.with_header("X-Cache", "miss")), false)
        }
        answer => (answer, false),
    }
}

/// A handler's error as its response, counting a request or batch item that
/// ran out of its deadline.
fn error_response(state: &ServerState, e: &HttpError) -> Response {
    if e.status == 504 {
        state
            .faults
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }
    e.to_response()
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
                let (answer, _hit) = cached(&st, "measure", &sub, &item_ctx, handlers::measure);
                let resp = answer.unwrap_or_else(|e| error_response(&st, &e));
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

/// Routes one attempt of a request, records its metrics, and returns what
/// it produced: a response to write, or a session watch to park.
///
/// `endpoint` is the request's route, [`find`]'s answer at dispatch.
/// `accepted` is the instant the request began (before queueing), so the
/// recorded latency includes queue wait; the service time measured from
/// here is recorded separately. `request_id` is the id the response will
/// carry as `X-Request-Id`. `resumed` is a resumed watch's original
/// deadline; `read` is what [`crate::session::try_resolve_read`] found for a
/// session read the reactor answers itself.
pub(crate) fn route(
    state: &Arc<ServerState>,
    req: &Request,
    endpoint: &Route,
    accepted: Instant,
    request_id: &str,
    resumed: Option<Instant>,
    read: Option<ResolvedRead>,
) -> AttemptOutcome {
    let service_start = Instant::now();
    let queue_wait = service_start.duration_since(accepted);
    let mut obs = hc_obs::span("serve.request");
    let name = endpoint.name;
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
    let (answer, cache_hit) = dispatch(state, req, endpoint, &ctx, resumed, read);
    let resp = match answer {
        Ok(AttemptOutcome::Respond(resp)) => resp,
        // A watch with nothing to report yet reached no client: the attempt
        // that answers it records the request, once.
        Ok(park) => return park,
        Err(e) => error_response(state, &e),
    };
    let resp = if endpoint.no_store {
        resp.with_header("Cache-Control", "no-store")
    } else {
        resp
    };
    let service = service_start.elapsed();
    let latency = accepted.elapsed();
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
    AttemptOutcome::Respond(resp)
}

/// Runs the handler of `endpoint` after its method check; returns what it
/// produced and whether the result cache served it.
fn dispatch(
    state: &Arc<ServerState>,
    req: &Request,
    endpoint: &Route,
    ctx: &ReqCtx<'_>,
    resumed: Option<Instant>,
    read: Option<ResolvedRead>,
) -> (Result<AttemptOutcome, HttpError>, bool) {
    // Deliberate crash site at handler entry; the attempt's catch_unwind
    // turns it into a 500 carrying the request id.
    hc_obs::failpoints::fire("handler");
    if !endpoint.allows(&req.method) {
        let refusal = format!("{} requires {}", req.path, endpoint.methods.join(" or "));
        let resp = Response::error(405, &refusal);
        return (Ok(AttemptOutcome::Respond(resp)), false);
    }
    let id = endpoint.id(&req.path);
    let answer = match endpoint.handler {
        Cached(handler) => {
            let (answer, hit) = cached(state, endpoint.name, req, ctx, handler);
            return (answer.map(AttemptOutcome::Respond), hit);
        }
        SessionWatch => return (crate::session::watch(state, req, id, ctx, resumed), false),
        Batch => batch(state, req, ctx),
        SessionCreate => crate::session::create(state, req, ctx),
        SessionOne if req.method == "GET" => crate::session::get(&state.sessions, id, read),
        SessionOne => crate::session::delete(state, id),
        SessionEdit => crate::session::patch(&state.sessions, req, id, ctx),
        Metrics => match req.param("format") {
            None | Some("json") => Ok(Response::json(crate::metrics::json_document(state))),
            Some("prometheus") => Ok(Response::prometheus(crate::metrics::prometheus_document(
                state,
            ))),
            Some(other) => Err(HttpError::bad(format!(
                "unknown format {other:?} (expected json or prometheus)"
            ))),
        },
        Healthz => {
            // `ok` stays for backwards compatibility: the process is up and
            // answering. `status` degrades to "degraded" while an SLO
            // burn-rate alert fires, so orchestration can act before the
            // budget is gone.
            let degraded = state.slo.snapshot().degraded;
            Ok(Response::json(json::object(|o| {
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
                    state.in_flight.load(Ordering::Relaxed),
                );
            })))
        }
        DebugRequests => Ok(Response::json(state.recorder.summary_json())),
        DebugRequest => match state.recorder.lookup(id) {
            Some(record) => Ok(Response::json(record.to_json())),
            None => Err(HttpError::typed(
                404,
                "not_recorded",
                format!("request {id} is not in the flight recorder"),
            )),
        },
        DebugProfile => debug_profile(req),
        DebugTimeseries => crate::collector::debug_timeseries(state, req),
        Sleepz => {
            // Debug endpoint: occupy a worker for a bounded time, making
            // load-shed behaviour deterministic in tests and drills.
            let ms = req
                .param("ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(100)
                .min(MAX_SLEEP_MS);
            std::thread::sleep(Duration::from_millis(ms));
            Ok(Response::json(json::object(|o| {
                o.u64("slept_ms", ms);
            })))
        }
        Quit => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Flush session watchers immediately (the accept loop also drains
            // as a backstop for the SIGINT path): parked long-polls answer a
            // typed 503 instead of holding workers to their deadlines.
            state.sessions.drain();
            Ok(Response::json(json::object(|o| {
                o.bool("shutting_down", true);
            })))
        }
        NotFound => Ok(Response::error(
            404,
            &format!("no such endpoint {}", req.path),
        )),
    };
    (answer.map(AttemptOutcome::Respond), false)
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
