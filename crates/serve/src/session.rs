//! HTTP surface for live sessions (DESIGN.md §12).
//!
//! | Endpoint                        | Verb   | Body                     |
//! |---------------------------------|--------|--------------------------|
//! | `/session`                      | POST   | CSV ETC matrix           |
//! | `/session/{id}`                 | GET    | —                        |
//! | `/session/{id}/etc`             | PATCH  | `cell,`/`row,`/`col,` edit lines |
//! | `/session/{id}`                 | DELETE | —                        |
//! | `/session/{id}/watch?version=N` | GET    | —                        |
//!
//! The stateful parts (store, engine, warm solvers) live in `hc-session`;
//! this module only translates HTTP to store calls and store results to the
//! wire. The `measures` object in every session response is written by
//! [`MeasureReport::write_json`](hc_core::report::MeasureReport::write_json),
//! the renderer behind [`crate::json::measure_body`] for `POST /measure` and
//! `/batch` items, so the three surfaces match byte-for-byte.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use hc_session::{parse_edits, Delta, SessionError, SessionSnapshot, TryWatch};

use crate::handlers::{self, ReqCtx};
use crate::http::{ErrorDetails, HttpError, Request, Response};
use crate::server::ServerState;
use hc_obs::json::{self, Object};

/// Default long-poll window for `GET /session/{id}/watch` when neither the
/// client nor the server sets a deadline.
const WATCH_DEFAULT_MS: u64 = 30_000;

/// Long-poll window cap while the overload ladder is past ok: a parked
/// watcher pins a reactor slot, and during brownout/shedding those slots are
/// the scarce resource — watchers answer `timed_out` quickly and re-poll
/// instead of parking for the full default window.
pub(crate) const OVERLOAD_WATCH_CAP_MS: u64 = 1_000;

/// What the [`watch`] handler asks of the reactor when nothing has changed
/// yet: park the connection on this session/watermark until a store waker
/// fires or `deadline` passes, then run the request again.
pub(crate) struct ParkIntent {
    pub id: String,
    pub since: u64,
    pub deadline: Instant,
}

thread_local! {
    /// Side-channel from [`watch`] to the worker's attempt loop. Handlers
    /// return [`Response`]s; a watch that wants to park instead leaves its
    /// intent here and returns a placeholder the attempt loop discards.
    static PARK_INTENT: RefCell<Option<ParkIntent>> = const { RefCell::new(None) };
    /// Set by the attempt loop on *re-runs* of a previously parked watch:
    /// the original deadline. `None` means a first attempt.
    static PARK_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Takes the park intent left by [`watch`], if any. The attempt loop calls
/// this unconditionally after every dispatch so a stale intent can never leak
/// into the next request on this pooled worker thread.
pub(crate) fn take_park_intent() -> Option<ParkIntent> {
    PARK_INTENT.with(|p| p.borrow_mut().take())
}

/// True while a park intent is pending (this dispatch decided to park);
/// the router skips metrics and logging for such attempts.
pub(crate) fn park_pending() -> bool {
    PARK_INTENT.with(|p| p.borrow().is_some())
}

/// Marks the current dispatch as a resumed parked watch carrying its original
/// deadline (`Some`), or a fresh attempt (`None`).
pub(crate) fn set_park_deadline(deadline: Option<Instant>) {
    PARK_DEADLINE.with(|d| d.set(deadline));
}

/// Maps a typed store failure to its HTTP error.
fn session_error(e: SessionError) -> HttpError {
    match e {
        SessionError::NotFound => HttpError::typed(
            404,
            "session_not_found",
            "no such session (unknown id, expired, or deleted)",
        ),
        SessionError::VersionConflict { current } => HttpError::typed(
            409,
            "version_conflict",
            format!("If-Match version does not match current version {current}"),
        )
        .with_details(ErrorDetails::VersionConflict { current }),
        SessionError::Draining => HttpError::typed(
            503,
            "draining",
            "server is draining; session writes and watches are refused",
        ),
        SessionError::Full { max_sessions } => HttpError::typed(
            503,
            "sessions_full",
            format!("session store is full ({max_sessions} sessions; --max-sessions)"),
        ),
        SessionError::Measure(e) => handlers::measure_error(e),
    }
}

/// Writes the `recompute` members: how the last analysis ran.
fn write_stats(o: &mut Object<'_>, stats: &hc_session::RecomputeStats) {
    o.bool("warm", stats.warm)
        .bool("fallback", stats.fallback)
        .u64("sinkhorn_iterations", stats.sinkhorn_iterations as u64)
        .u64("svd_iterations", stats.svd_iterations as u64);
}

/// Writes the session's measures as member `measures` of `o`.
fn write_measures(o: &mut Object<'_>, snap: &SessionSnapshot) {
    snap.report.write_json(
        &mut o.object("measures"),
        &snap.task_names,
        &snap.machine_names,
    );
}

/// Renders the standard session document shared by POST/GET/PATCH responses.
fn snapshot_json(snap: &SessionSnapshot) -> String {
    json::object(|o| {
        o.str("id", &snap.id).u64("version", snap.version);
        write_measures(o, snap);
        write_stats(&mut o.object("recompute"), &snap.stats);
    })
}

/// Renders a watch answer past the watermark: the deltas oldest first, then
/// the current measures.
fn changed_json(snapshot: &SessionSnapshot, deltas: &[Delta], truncated: bool) -> String {
    json::object(|o| {
        o.str("id", &snapshot.id)
            .u64("version", snapshot.version)
            .bool("timed_out", false)
            .bool("truncated", truncated);
        {
            let mut arr = o.array("deltas");
            for d in deltas {
                let mut delta = arr.object();
                delta
                    .u64("version", d.version)
                    .f64("mph", d.mph)
                    .f64("tdh", d.tdh)
                    .f64("tma", d.tma)
                    .f64("d_mph", d.d_mph)
                    .f64("d_tdh", d.d_tdh)
                    .f64("d_tma", d.d_tma);
                write_stats(&mut delta.object("recompute"), &d.stats);
            }
        }
        write_measures(o, snapshot);
    })
}

/// `POST /session` — register a matrix and run the first (cold) analysis.
pub fn create(state: &ServerState, req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    handlers::check_allowed(req, &["ecs"])?;
    let ecs = handlers::load_ecs(req, ctx)?;
    // Sessions registered from ETC seconds keep accepting edits in seconds;
    // `?ecs=1` registers (and edits) raw speeds.
    let etc_units = !req.has_param("ecs");
    let snap = state
        .sessions
        .create(ecs, etc_units, ctx.budget)
        .map_err(session_error)?;
    Ok(Response::json(snapshot_json(&snap)))
}

/// `GET /session/{id}` — current version and measures.
pub fn get(state: &ServerState, id: &str) -> Result<Response, HttpError> {
    let snap = state
        .sessions
        .get(id)
        .ok_or_else(|| session_error(SessionError::NotFound))?;
    Ok(Response::json(snapshot_json(&snap)))
}

/// `PATCH /session/{id}/etc` — apply edit lines and recompute incrementally.
pub fn patch(
    state: &ServerState,
    req: &Request,
    id: &str,
    ctx: &ReqCtx<'_>,
) -> Result<Response, HttpError> {
    handlers::check_allowed(req, &[])?;
    let text = req.body_text()?;
    if text.trim().is_empty() {
        return Err(HttpError::bad(
            "empty body: expected edit lines (cell,<task>,<machine>,<value> | \
             row,<task>,v1,... | col,<machine>,v1,...)",
        ));
    }
    // Names are fixed at session creation, so resolving against a snapshot
    // taken before the store lock is race-free.
    let snap = state
        .sessions
        .get(id)
        .ok_or_else(|| session_error(SessionError::NotFound))?;
    let edits = parse_edits(text, &snap.task_names, &snap.machine_names)
        .map_err(|e| HttpError::bad(e.to_string()))?;
    let snap = state
        .sessions
        .patch(id, &edits, req.if_match, ctx.budget)
        .map_err(session_error)?;
    Ok(Response::json(snapshot_json(&snap)))
}

/// `DELETE /session/{id}` — drop the session, waking any watchers.
pub fn delete(state: &ServerState, id: &str) -> Result<Response, HttpError> {
    if !state.sessions.delete(id) {
        return Err(session_error(SessionError::NotFound));
    }
    Ok(Response::json(json::object(|o| {
        o.bool("deleted", true);
    })))
}

/// `GET /session/{id}/watch?version=N` — long-poll for versions beyond `N`.
///
/// Bounded by the request's deadline machinery: the effective budget (client
/// `X-Timeout-Ms` clamped by `--request-timeout-ms`) caps the wait, falling
/// back to `WATCH_DEFAULT_MS` when no deadline applies. Expiring quietly is
/// a `200` with `"timed_out":true`, not an error — the client just re-polls.
///
/// The wait itself never blocks a worker: when nothing is past the watermark
/// yet, the handler leaves a `ParkIntent` in thread-local storage and the
/// attempt loop hands the connection back to the reactor, which re-runs the
/// request when a store waker fires or the deadline passes (the `resumed`
/// path here, which re-checks and renders the timeout body).
pub fn watch(
    state: &ServerState,
    req: &Request,
    id: &str,
    ctx: &ReqCtx<'_>,
) -> Result<Response, HttpError> {
    handlers::check_allowed(req, &["version"])?;
    let since: u64 = match req.param("version") {
        None => 0,
        Some(raw) => raw
            .parse()
            .map_err(|_| HttpError::bad(format!("query parameter version={raw:?} is malformed")))?,
    };
    let resumed = PARK_DEADLINE.with(|d| d.get());
    let deadline = resumed.unwrap_or_else(|| {
        // Under overload, cap the park so watchers cycle their reactor slots
        // quickly; already-parked watchers keep their original deadline.
        let default_window = if state.overload.current_state() != crate::overload::STATE_OK {
            Duration::from_millis(WATCH_DEFAULT_MS.min(OVERLOAD_WATCH_CAP_MS))
        } else {
            Duration::from_millis(WATCH_DEFAULT_MS)
        };
        let window = match ctx.budget.and_then(|b| b.remaining()) {
            Some(remaining) => remaining.min(default_window),
            None => default_window,
        };
        Instant::now() + window
    });
    match state.sessions.try_watch(id, since, resumed.is_none()) {
        Ok(TryWatch::Changed {
            snapshot,
            deltas,
            truncated,
        }) => Ok(Response::json(changed_json(&snapshot, &deltas, truncated))),
        Ok(TryWatch::NotYet { version }) => {
            if Instant::now() >= deadline {
                return Ok(Response::json(json::object(|o| {
                    o.str("id", id)
                        .u64("version", version)
                        .bool("timed_out", true)
                        .bool("truncated", false);
                    o.array("deltas");
                })));
            }
            PARK_INTENT.with(|p| {
                *p.borrow_mut() = Some(ParkIntent {
                    id: id.to_string(),
                    since,
                    deadline,
                })
            });
            // Placeholder: the attempt loop sees the intent and parks the
            // connection instead of writing this.
            Ok(Response::json(json::object(|o| {
                o.bool("parked", true);
            })))
        }
        Err(e) => Err(session_error(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::report::MeasureReport;
    use hc_session::RecomputeStats;

    fn body(e: HttpError) -> String {
        String::from_utf8(e.to_response().body.as_slice().to_vec()).unwrap()
    }

    fn snapshot() -> SessionSnapshot {
        SessionSnapshot {
            id: "s-1".to_string(),
            version: 3,
            report: MeasureReport {
                mph: 0.5,
                tdh: 0.75,
                tma: 0.125,
                machine_performances: vec![1.5, 3.0],
                task_difficulties: vec![2.0, 2.5],
                standardization_iterations: 4,
                regularized: false,
                reduced_to_core: false,
            },
            task_names: vec!["t1".to_string(), "t2".to_string()],
            machine_names: vec!["m1".to_string(), "m2".to_string()],
            stats: RecomputeStats {
                sinkhorn_iterations: 4,
                svd_iterations: 2,
                warm: true,
                fallback: false,
                cutover: false,
            },
            etc_units: true,
        }
    }

    const MEASURES: &str = "{\"mph\":0.5,\"tdh\":0.75,\"tma\":0.125,\
        \"machine_performances\":{\"m1\":1.5,\"m2\":3},\
        \"task_difficulties\":{\"t1\":2,\"t2\":2.5},\
        \"standardization_iterations\":4,\"regularized\":false,\"reduced_to_core\":false}";

    #[test]
    fn session_documents_are_pinned() {
        let snap = snapshot();
        assert_eq!(
            snapshot_json(&snap),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"measures\":{MEASURES},\
                 \"recompute\":{{\"warm\":true,\"fallback\":false,\
                 \"sinkhorn_iterations\":4,\"svd_iterations\":2}}}}"
            )
        );
        let delta = Delta {
            version: 3,
            mph: 0.5,
            tdh: 0.75,
            tma: 0.125,
            d_mph: -0.25,
            d_tdh: 0.0,
            d_tma: f64::NAN,
            stats: RecomputeStats {
                sinkhorn_iterations: 7,
                svd_iterations: 1,
                warm: false,
                fallback: true,
                cutover: false,
            },
        };
        assert_eq!(
            changed_json(&snap, &[delta], true),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"timed_out\":false,\"truncated\":true,\
                 \"deltas\":[{{\"version\":3,\"mph\":0.5,\"tdh\":0.75,\"tma\":0.125,\
                 \"d_mph\":-0.25,\"d_tdh\":0,\"d_tma\":null,\"recompute\":{{\"warm\":false,\
                 \"fallback\":true,\"sinkhorn_iterations\":7,\"svd_iterations\":1}}}}],\
                 \"measures\":{MEASURES}}}"
            )
        );
        assert_eq!(
            changed_json(&snap, &[], false),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"timed_out\":false,\"truncated\":false,\
                 \"deltas\":[],\"measures\":{MEASURES}}}"
            )
        );
    }

    #[test]
    fn version_conflict_body_is_pinned() {
        assert_eq!(
            body(session_error(SessionError::VersionConflict { current: 7 })),
            "{\"error\":\"If-Match version does not match current version 7\",\
             \"code\":\"version_conflict\",\"current_version\":7}"
        );
        assert_eq!(
            body(session_error(SessionError::NotFound)),
            "{\"error\":\"no such session (unknown id, expired, or deleted)\",\
             \"code\":\"session_not_found\"}"
        );
    }
}
