//! # hc-session — live-cluster sessions with warm-started standardization
//!
//! Stateful incremental analysis for the heterogeneity measures. A client
//! registers an ETC/ECS matrix once, then streams edits as the cluster
//! drifts; each edit triggers a recompute whose Sinkhorn standardization
//! *warm-starts* from the previous `D₁/D₂` scaling vectors (the `prior` of
//! [`hc_sinkhorn::balance::standardize_in`]) instead of starting from
//! scratch: a small edit leaves the seeded matrix near the balanced fixed
//! point, so convergence takes a handful of sweeps instead of hundreds (or
//! thousands, on high-affinity inputs). The spectrum of the standard form
//! runs cold through the values-only SVD kernel every analysis uses.
//!
//! Correctness is never traded for speed: the warm balance must satisfy
//! exactly the cold balance's convergence tolerance, and any miss falls back
//! to a silent cold recompute counted in `session_warm_fallback_total`.
//!
//! The crate is layered:
//!
//! * [`engine`] — [`engine::SessionEngine`], one environment + warm state +
//!   the recompute path with its warm/cold fallback.
//! * [`edits`] — the line-oriented `cell,` / `row,` / `col,` edit language
//!   used by `PATCH /session/{id}/etc` (the stack has no JSON parser).
//! * [`store`] — the sharded, TTL'd, LRU-bounded session store with
//!   long-poll watch and drain support, shared across server workers.
//! * [`snapshot`] — the immutable [`SessionSnapshot`] each write publishes
//!   for its version, and the one format of the session documents: each
//!   version is rendered once, by its write, and every read shares the bytes.
//!
//! The HTTP surface lives in `hc-serve`; `hcm session` in the CLI runs an
//! offline demo of the same engine.

#![forbid(unsafe_code)]

pub mod edits;
pub mod engine;
pub mod snapshot;
pub mod store;

pub use edits::{parse_edits, to_ecs_value, Edit, EditParseError};
pub use engine::{RecomputeStats, SessionEngine};
pub use snapshot::SessionSnapshot;
pub use store::{Delta, SessionConfig, SessionError, SessionStore, TryGet, TryWatch, WatchWaker};
