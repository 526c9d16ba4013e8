//! `hc-serve`: a dependency-free HTTP analysis daemon for heterogeneous
//! computing matrices, exposed by the CLI as `hcm serve`.
//!
//! The server turns the workspace's pure analysis functions — MPH/TDH/TMA
//! measurement, zero-pattern structure reports, ETC generation, and mapping
//! heuristics — into network endpoints over plain `std::net`:
//!
//! | Endpoint             | Verb | Body            | Result |
//! |----------------------|------|-----------------|--------|
//! | `/measure`           | POST | CSV ETC matrix  | MPH/TDH/TMA JSON |
//! | `/structure`         | POST | CSV ETC matrix  | balanceability JSON |
//! | `/generate`          | POST | —               | synthesized CSV |
//! | `/schedule`          | POST | CSV ETC matrix  | heuristic makespans JSON |
//! | `/batch`             | POST | CSVs split by `---` | per-matrix measure JSON |
//! | `/session`           | POST | CSV ETC matrix  | new live session (id + measures) |
//! | `/session/{id}`      | GET / DELETE | —       | session state / removal |
//! | `/session/{id}/etc`  | PATCH | edit lines     | warm-started incremental re-measure |
//! | `/session/{id}/watch?version=N` | GET | —     | long-poll for measure deltas past version N |
//! | `/metrics`           | GET  | —               | counters + histograms (JSON; `?format=prometheus` for text exposition) |
//! | `/healthz`           | GET  | —               | liveness |
//! | `/debug/requests`    | GET  | —               | flight-recorder summary (recent + survivor requests) |
//! | `/debug/requests/{id}` | GET | —              | full span tree + telemetry for one recorded request |
//! | `/debug/timeseries`  | GET  | —               | retained per-second metric history (`?series=...&window=...`; no params lists the catalog) |
//! | `/sleepz?ms=`        | GET  | —               | debug: hold a worker |
//! | `/quitquitquit`      | GET  | —               | graceful drain |
//!
//! Architecture, bottom-up:
//!
//! * [`sys`] — epoll/rlimit/listen syscall shims over the libc std already
//!   links, keeping the crate dependency-free.
//! * [`reactor`] — the event-driven serving core (DESIGN.md §14): one epoll
//!   readiness loop owns every socket, non-blocking accept/read/write state
//!   machines speak HTTP/1.1 keep-alive (`--max-requests-per-conn`,
//!   `--idle-conn-timeout-ms`), and finished jobs return through a
//!   completion queue + wakeup pipe so workers never touch sockets.
//! * [`threadpool`] — elastic worker pool (autoscaled between
//!   `--workers-min`/`--workers-max` by the overload control loop); a
//!   **bounded** request queue sheds load (`503` + `Retry-After`) instead of
//!   buffering, and a subtask lane with work-helping lets `/batch` fan out
//!   without self-deadlock.
//! * [`overload`] — adaptive admission (DESIGN.md §15): CoDel-style
//!   queue-delay shedding with a brownout ladder (`ok` → `brownout` →
//!   `shedding`), endpoint-class priorities (bulk sheds first, health/cache
//!   hits always flow), drain-rate `Retry-After`, and the autoscale decision
//!   loop. `--target-queue-delay-ms 0` restores the fixed-depth-only legacy
//!   behavior.
//! * [`http`] — a strict HTTP/1.1 subset (Content-Length bodies, a
//!   resumable incremental parser) with size caps; reject/shed paths answer
//!   `Connection: close` and drop the connection.
//! * [`cache`] — 8-way-sharded content-addressed LRU keyed by FNV-1a over
//!   `endpoint\0options\0body`; identical requests skip Sinkhorn/heuristic
//!   work entirely (`X-Cache: hit`).
//! * [`metrics`] — per-endpoint counters and log₂ latency histograms,
//!   rendered by `GET /metrics` with [`hc_obs::json`]'s writer, the one
//!   every document uses ([`json`] keeps only the measure body).
//! * [`handlers`] / [`router`] / [`server`] — pure endpoint logic, then the
//!   route table, dispatch, caching and batching, then sockets and lifecycle.
//! * [`signal`] — SIGINT/SIGTERM → atomic flag → graceful drain.
//!
//! Fault containment (DESIGN.md §10): every job runs under
//! `catch_unwind`, so a panicking handler answers `500` with its request id
//! instead of killing a worker; deliberately-crashed workers (chaos drills via
//! [`failpoints`]) are respawned by a drop sentinel and counted in
//! `/metrics` as `worker_respawns_total`. Shared locks use the
//! poison-recovering helpers in [`sync`] so one panic never wedges the cache,
//! metrics, or the pool. Requests carry an optional deadline
//! (`--request-timeout-ms`, `X-Timeout-Ms`) threaded as an
//! [`hc_linalg::Budget`] into the iterative kernels; expiry maps to `504` with
//! iteration-progress diagnostics.
//!
//! Observability (DESIGN.md §11): every request is recorded into the
//! [`hc_obs::recorder`] flight recorder — span tree, phase timings
//! (`Server-Timing` response header), and kernel telemetry (Sinkhorn
//! iterations, SVD sweeps) — retrievable after the fact from
//! `/debug/requests/{id}`. Slow, errored, and panicked requests are pinned
//! into a survivor ring so a flood of healthy traffic cannot evict the one
//! request worth debugging. W3C `traceparent` is parsed (or generated) and
//! echoed alongside `X-Request-Id`, and `/metrics?format=prometheus` renders
//! the same counters and histograms in Prometheus text exposition format.

//! Live sessions (DESIGN.md §12): `/session/*` endpoints keep per-client
//! state in the sharded, TTL'd, LRU-bounded [`hc_session::SessionStore`]
//! (`--max-sessions`, `--session-ttl-s`). Edits recompute incrementally with
//! a warm-started Sinkhorn standardization (silent cold fallback counted in
//! `session_warm_fallback_total`), `If-Match` versions give optimistic
//! concurrency (`409` on mismatch), and `GET /session/{id}/watch` long-polls
//! for measure deltas under the same deadline machinery — graceful drain
//! flushes parked watchers with a typed `503 draining`.

/// Poison-recovering lock helpers shared across the workspace
/// (re-export of [`hc_obs::sync`]).
pub use hc_obs::sync;

/// Chaos fault-injection sites (re-export of [`hc_obs::failpoints`]): arm with
/// `HC_FAILPOINT=site:action` or programmatically in tests. Server sites:
/// `handler`, `cache.insert`, `worker.idle`, plus `sinkhorn.iteration` in the
/// balancing kernel.
pub use hc_obs::failpoints;

pub mod cache;
pub mod collector;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod overload;
pub mod reactor;
pub mod router;
pub mod server;
pub mod session;
pub mod signal;
pub mod sys;
pub mod threadpool;

pub use server::{start, Config, ServerHandle, ServerState};
