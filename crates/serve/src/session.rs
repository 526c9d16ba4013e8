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
//! The stateful parts (store, engine, warm solvers) and the session
//! documents' format live in `hc-session`; this module only translates HTTP
//! to store calls and store results to the wire. `POST`, `PATCH` and `GET`
//! answer with the document the write of the version rendered
//! ([`SessionSnapshot::document`]), shared with the store, not copied. The
//! reactor answers a `GET` itself when [`SessionStore::try_get`] resolves it
//! without waiting; otherwise a worker does.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_gen::params::Params;
use hc_session::snapshot::{timed_out_document, watch_document};
use hc_session::{parse_edits, SessionError, SessionSnapshot, SessionStore, TryGet, TryWatch};

use crate::handlers::{self, ReqCtx};
use crate::http::{ErrorDetails, HttpError, Request, Response};
use crate::server::{AttemptOutcome, ServerState};
use hc_obs::json;

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

/// A `GET /session/{id}` the store answered without waiting: the current
/// version, or `None` for a session that does not exist.
pub type ResolvedRead = Option<Arc<SessionSnapshot>>;

/// Resolves a read of session `id` without waiting, for the reactor to
/// answer itself. `None` (a write holds the session, or it expired and must
/// be removed) leaves the read to a worker, which waits.
pub(crate) fn try_resolve_read(sessions: &SessionStore, id: &str) -> Option<ResolvedRead> {
    match sessions.try_get(id) {
        TryGet::Ready(snapshot) => Some(Some(snapshot)),
        TryGet::Missing | TryGet::Closed => Some(None),
        TryGet::Expired | TryGet::Busy => None,
    }
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

/// The session document of `snap`'s version: the bytes its write rendered.
fn document(snap: &SessionSnapshot) -> Response {
    Response::json(Arc::clone(snap.document()))
}

/// `POST /session` — register a matrix and run the first (cold) analysis.
pub fn create(state: &ServerState, req: &Request, ctx: &ReqCtx<'_>) -> Result<Response, HttpError> {
    req.check_allowed(&["ecs"]).map_err(HttpError::bad)?;
    let ecs = handlers::load_ecs(req, ctx)?;
    // Sessions registered from ETC seconds keep accepting edits in seconds;
    // `?ecs=1` registers (and edits) raw speeds.
    let etc_units = !req.has_param("ecs");
    let snap = state
        .sessions
        .create(ecs, etc_units, ctx.budget)
        .map_err(session_error)?;
    Ok(document(&snap))
}

/// `GET /session/{id}` — current version and measures: `read` when the
/// reactor resolved the read (`try_resolve_read`), else what the store
/// holds once any write in progress finishes.
pub fn get(
    sessions: &SessionStore,
    id: &str,
    read: Option<ResolvedRead>,
) -> Result<Response, HttpError> {
    let snap = read
        .unwrap_or_else(|| sessions.get(id))
        .ok_or_else(|| session_error(SessionError::NotFound))?;
    Ok(document(&snap))
}

/// `PATCH /session/{id}/etc` — apply edit lines and recompute incrementally.
pub fn patch(
    sessions: &SessionStore,
    req: &Request,
    id: &str,
    ctx: &ReqCtx<'_>,
) -> Result<Response, HttpError> {
    req.check_allowed(&[]).map_err(HttpError::bad)?;
    let text = req.body_text()?;
    if text.trim().is_empty() {
        return Err(HttpError::bad(
            "empty body: expected edit lines (cell,<task>,<machine>,<value> | \
             row,<task>,v1,... | col,<machine>,v1,...)",
        ));
    }
    // Names are fixed at session creation, so resolving against the
    // current version before the write is race-free. The version is let go
    // first: the write recycles the report of a version no one holds.
    let edits = {
        let current = sessions
            .get(id)
            .ok_or_else(|| session_error(SessionError::NotFound))?;
        parse_edits(text, &current.task_names, &current.machine_names)
            .map_err(|e| HttpError::bad(e.to_string()))?
    };
    let snap = sessions
        .patch(id, &edits, req.if_match, ctx.budget)
        .map_err(session_error)?;
    Ok(document(&snap))
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
/// yet, the handler returns a [`ParkIntent`] and the attempt hands the
/// connection back to the reactor, which re-runs the request when a store
/// waker fires or the deadline passes, passing that run its original
/// deadline as `resumed`; it re-checks and renders the timeout body.
pub(crate) fn watch(
    state: &ServerState,
    req: &Request,
    id: &str,
    ctx: &ReqCtx<'_>,
    resumed: Option<Instant>,
) -> Result<AttemptOutcome, HttpError> {
    req.check_allowed(&["version"]).map_err(HttpError::bad)?;
    let since: u64 = req.get_or("version", 0).map_err(HttpError::bad)?;
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
    let document = match state.sessions.try_watch(id, since, resumed.is_none()) {
        Ok(TryWatch::Changed {
            snapshot,
            deltas,
            truncated,
        }) => watch_document(&snapshot, &deltas, truncated),
        Ok(TryWatch::NotYet { version }) if Instant::now() >= deadline => {
            timed_out_document(id, version)
        }
        Ok(TryWatch::NotYet { .. }) => {
            return Ok(AttemptOutcome::Park(ParkIntent {
                id: id.to_string(),
                since,
                deadline,
            }))
        }
        Err(e) => return Err(session_error(e)),
    };
    Ok(AttemptOutcome::Respond(Response::json(document)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Body;
    use hc_session::{Edit, SessionConfig};

    fn body(e: HttpError) -> String {
        String::from_utf8(e.to_response().body.as_slice().to_vec()).unwrap()
    }

    /// The shared body of a `GET /session/{id}` response.
    fn shared_get(store: &SessionStore, id: &str) -> Arc<[u8]> {
        match get(store, id, None).expect("live session").body {
            Body::Shared(bytes) => bytes,
            Body::Owned(_) => panic!("a session read must answer with the published bytes"),
        }
    }

    /// Reads of one version answer with the one buffer its write rendered;
    /// the next write publishes a new one, and a refused write none.
    #[test]
    fn reads_of_one_version_share_its_document() {
        let store = SessionStore::new(SessionConfig::default());
        let ecs = hc_core::ecs::Ecs::new(
            hc_linalg::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.5], &[0.5, 4.0]]).unwrap(),
        )
        .unwrap();
        let created = store.create(ecs, false, None).unwrap();
        let first = shared_get(&store, &created.id);
        assert!(Arc::ptr_eq(&first, &shared_get(&store, &created.id)));
        assert!(Arc::ptr_eq(&first, created.document()));

        let edit = [Edit::Cell {
            task: 0,
            machine: 0,
            value: 2.5,
        }];
        assert!(store.patch(&created.id, &edit, Some(7), None).is_err());
        assert!(Arc::ptr_eq(&first, &shared_get(&store, &created.id)));

        let patched = store.patch(&created.id, &edit, Some(1), None).unwrap();
        let second = shared_get(&store, &created.id);
        assert!(Arc::ptr_eq(&second, patched.document()));
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(second.starts_with(b"{\"id\":\""));
    }

    /// A PATCH through the handler hands the version it supersedes back to
    /// the session's workspace: the handler holds no version across the
    /// write.
    #[test]
    fn handler_patches_recycle_the_superseded_version() {
        let store = SessionStore::new(SessionConfig::default());
        let ecs = hc_core::ecs::Ecs::new(
            hc_linalg::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.5], &[0.5, 4.0]]).unwrap(),
        )
        .unwrap();
        let id = Arc::clone(&store.create(ecs, false, None).unwrap().id);
        let edit = |line: &str| Request {
            method: "PATCH".into(),
            path: format!("/session/{id}/etc"),
            query: Default::default(),
            body: line.as_bytes().to_vec(),
            request_id: None,
            timeout_ms: None,
            traceparent: None,
            if_match: None,
            malformed_headers: Vec::new(),
        };
        let ctx = ReqCtx::unlimited();
        for (n, line) in ["cell,1,1,2.5", "cell,1,1,3", "row,2,2,2"]
            .iter()
            .enumerate()
        {
            patch(&store, &edit(line), &id, &ctx).expect("edit applies");
            assert_eq!(store.recycled_reports(), n as u64 + 1);
        }
        // A reader holding the current version keeps its report alive.
        let held = store.get(&id).unwrap();
        patch(&store, &edit("cell,2,2,1"), &id, &ctx).expect("edit applies");
        assert_eq!(store.recycled_reports(), 3);
        assert_eq!(held.version, 4);
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
