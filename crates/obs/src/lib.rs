//! `hc-obs` — zero-dependency observability for the hetero-measures workspace.
//!
//! Two independent facilities share this crate:
//!
//! 1. **Tracing** ([`span`](fn@span), [`event`]): scoped timers with monotonic-clock
//!    durations, thread-local parent/child nesting, and structured fields.
//!    Nothing is emitted (and almost nothing is paid — one relaxed atomic
//!    load) until a sink is installed via [`install_json_sink`],
//!    [`install_trace_sink`], or [`install_capture_sink`].
//! 2. **Metrics** ([`metrics`]): typed counters, gauges, and log₂-bucketed
//!    histograms in a global sharded registry. These are always live — an
//!    atomic add per record — and are exported as JSON by
//!    [`metrics::export_json`], which `hc-serve` merges into `/metrics`.
//!
//! Three further facilities build on those two:
//!
//! * [`recorder`] — the flight recorder: per-request span trees, events, and
//!   numeric telemetry retained in a sharded ring buffer with tail-biased
//!   (survivor-ring) retention, so any recent request can be explained after
//!   the fact.
//! * [`trace`] — W3C `traceparent` parse/generate/echo, so the daemon joins
//!   distributed traces with zero dependencies.
//! * [`prom`] — Prometheus text exposition (format 0.0.4) over the metrics
//!   registry: counters, gauges, and log₂ histograms as cumulative
//!   `_bucket{le=...}` series.
//! * [`profile`] — an always-on continuous sampling profiler with no
//!   sampler thread: samples sit on a `k/hz` tick grid, and each thread
//!   credits the ticks its span stack held when a span opens or closes (a
//!   query credits every open stack up to now), through a lock-free seqlock
//!   path, into epoch ring buffers rendered as collapsed-stack text or a
//!   JSON top table.
//! * [`slo`] — rolling multi-window availability/latency objectives with
//!   Google-SRE fast/slow burn-rate alerting, feeding `/metrics` and the
//!   `degraded` state on `/healthz`.
//! * [`tsdb`] — an in-process time-series store: tiered per-second ring
//!   buffers (1 s / 10 s / 60 s, last-slot downsampling) fed by a collector
//!   thread, powering `/debug/timeseries` and the `hcm top` dashboard with
//!   retained history and no external Prometheus. Histograms additionally
//!   retain per-bucket **exemplars** — the most recent (request-id,
//!   traceparent, value) observation — rendered by [`prom`] and joinable to
//!   the flight recorder.
//!
//! Two fault-containment utilities also live here, at the bottom of the
//! dependency graph so both the kernels and the daemon can share them:
//! [`sync`] (poison-recovering lock helpers) and [`failpoints`] (the
//! `HC_FAILPOINT` chaos-injection registry). So does [`json`], the
//! workspace's one JSON writer.
//!
//! The crate is std-only by design: it sits below `hc-linalg` in the
//! dependency graph so every other crate in the workspace can instrument
//! itself without cycles, and the workspace builds fully offline.
//!
//! # Example
//!
//! ```
//! // A scoped span with fields; emitted (if a sink is installed) on drop.
//! {
//!     let mut s = hc_obs::span("example.work");
//!     s.field_u64("items", 42);
//! }
//!
//! // A cached counter handle: one atomic add per call after the first.
//! hc_obs::obs_counter!("example_calls_total").inc();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod failpoints;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod recorder;
pub mod sink;
pub mod slo;
pub mod span;
pub mod sync;
pub mod trace;
pub mod tsdb;

pub use sink::{
    install_capture_sink, install_json_sink, install_trace_sink, set_level, sink_installed,
    uninstall_all_sinks, CaptureHandle, Level,
};
pub use span::{event, span, FieldValue, SpanGuard};
