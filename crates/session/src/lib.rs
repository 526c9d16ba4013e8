//! # hc-session — live-cluster sessions with warm-started solvers
//!
//! Stateful incremental analysis for the heterogeneity measures. A client
//! registers an ETC/ECS matrix once, then streams edits as the cluster
//! drifts; each edit triggers a recompute that *warm-starts* both numerical
//! kernels from the previous solve instead of starting from scratch:
//!
//! * **Sinkhorn** restarts from the previous `D₁/D₂` scaling vectors
//!   (the `prior` of [`hc_sinkhorn::balance::standardize_in`]) — a small edit
//!   leaves the seeded matrix near the balanced fixed point, so convergence
//!   takes a handful of sweeps instead of hundreds.
//! * **SVD** restarts one-sided Jacobi from the previous right singular
//!   vectors ([`hc_linalg::svd::svd_warm_stats_budgeted_in`]) — the seeded
//!   working matrix has near-orthogonal columns, so one or two sweeps replace
//!   a full cold factorization.
//!
//! Correctness is never traded for speed: the warm path must satisfy exactly
//! the cold path's convergence tolerances, and any miss falls back to a
//! silent cold recompute counted in `session_warm_fallback_total`. Nor is
//! speed traded for iteration counts: above a size cutover
//! ([`engine::DEFAULT_WARM_CUTOVER_CELLS`]) the warm attempt is skipped
//! outright — its O(n³) Jacobi sweeps stop paying for themselves in wall
//! time — counted in the sibling `session_warm_cutover_total`.
//!
//! The crate is layered:
//!
//! * [`engine`] — [`engine::SessionEngine`], one environment + warm state +
//!   the warm/cold/fallback recompute logic.
//! * [`edits`] — the line-oriented `cell,` / `row,` / `col,` edit language
//!   used by `PATCH /session/{id}/etc` (the stack has no JSON parser).
//! * [`store`] — the sharded, TTL'd, LRU-bounded session store with
//!   long-poll watch and drain support, shared across server workers.
//!
//! The HTTP surface lives in `hc-serve`; `hcm session` in the CLI runs an
//! offline demo of the same engine.

pub mod edits;
pub mod engine;
pub mod store;

pub use edits::{parse_edits, to_ecs_value, Edit, EditParseError};
pub use engine::{RecomputeStats, SessionEngine, DEFAULT_WARM_CUTOVER_CELLS};
pub use store::{
    Delta, SessionConfig, SessionError, SessionSnapshot, SessionStore, TryWatch, WatchOutcome,
    WatchWaker,
};
