//! Server configuration, shared state, and per-request attempt execution.
//!
//! The sockets live in [`crate::reactor`]: one event-loop thread owns the
//! (nonblocking) listener and every connection, multiplexed over epoll with
//! HTTP/1.1 keep-alive. This module owns everything around that loop — the
//! [`Config`] / [`ServerState`] pair, [`start`] / [`ServerHandle`] lifecycle,
//! and `run_attempt`: the execution of one parsed request, on a worker or,
//! for a session read, on the reactor (request id, trace context, flight
//! recording, panic isolation, phase timings), returning either a response
//! for the reactor to write or a park decision for a session watch
//! long-poll.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hc_obs::recorder::{FlightRecorder, Outcome, PhaseTimings};
use hc_obs::sync::lock_recover;
use hc_obs::trace::TraceContext;

use crate::cache::ShardedCache;
use crate::http::{Request, Response};
use crate::metrics::Registry;
use crate::router;
use crate::signal;
use crate::threadpool::Pool;

/// Server configuration; every `hcm serve` flag maps to one field.
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded request-queue depth; beyond it connections get `503`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Log requests whose accept-to-response latency exceeds this many
    /// milliseconds (0 disables slow-request logging).
    pub slow_ms: u64,
    /// Default per-request deadline in milliseconds (0 disables). A client's
    /// `X-Timeout-Ms` header is clamped to this value when set; expiry answers
    /// `504` with iteration-progress diagnostics.
    pub request_timeout_ms: u64,
    /// Largest accepted matrix size in cells (tasks × machines); larger inputs
    /// are rejected with `422` before any matrix allocation.
    pub max_cells: usize,
    /// Flight-recorder main-ring capacity: completed requests retained for
    /// `/debug/requests` (0 disables recording entirely).
    pub record_requests: usize,
    /// Flight-recorder survivor-ring capacity: slow, errored, panicked, and
    /// deadline-exceeded requests pinned separately so healthy floods cannot
    /// evict them.
    pub record_survivors: usize,
    /// Most live sessions held at once; creating beyond this evicts the
    /// least-recently-used session.
    pub max_sessions: usize,
    /// Idle time in seconds after which a session expires.
    pub session_ttl_s: u64,
    /// Continuous-profiler sampling rate in Hz (0 disables profiling and
    /// `GET /debug/profile`). The profiler is process-global: the first
    /// server to start wins, and it is never stopped on shutdown.
    pub profile_hz: u32,
    /// Availability SLO objective in (0, 1); requests answering ≥ 500 spend
    /// error budget.
    pub slo_availability: f64,
    /// Latency SLO threshold in milliseconds (0 disables the latency
    /// objective); requests slower than this spend latency budget regardless
    /// of status.
    pub slo_latency_ms: u64,
    /// Short SLO window length in seconds; the mid and long windows scale
    /// with it at the fixed 1:5:60 ratio (60 → 1 m / 5 m / 1 h).
    pub slo_window_s: u64,
    /// Most requests served on one keep-alive connection before the server
    /// answers `Connection: close` (0 = unlimited). Bounds how long one
    /// client can monopolize a connection slot.
    pub max_requests_per_conn: u64,
    /// Idle keep-alive connections (no request in progress) are closed after
    /// this many milliseconds (0 disables the idle timeout).
    pub idle_conn_timeout_ms: u64,
    /// Adaptive-admission target: smoothed queue delay (dispatch → worker
    /// pickup) the overload ladder defends, in milliseconds. 0 disables
    /// adaptive admission, leaving only the fixed `--queue-depth` cutoff.
    pub target_queue_delay_ms: u64,
    /// Autoscale floor for the worker count (0 = same as `workers`).
    pub workers_min: usize,
    /// Autoscale ceiling for the worker count (0 = same as `workers`, which
    /// disables autoscaling unless it exceeds the floor).
    pub workers_max: usize,
    /// In-process time-series retention in seconds: how far back
    /// `/debug/timeseries` (and `hcm top`) can look. Clamped to ≥ 60.
    pub tsdb_retention_s: u64,
    /// Disables the in-process time-series store and its collector thread
    /// entirely (`/debug/timeseries` answers a typed 404).
    pub tsdb_off: bool,
}

impl Config {
    /// The effective `[min, max]` worker bounds: a zero `workers_min` /
    /// `workers_max` falls back to `workers`, and the floor is at least 1.
    /// `max <= min` means autoscaling is off (`hcm serve` refuses a ceiling
    /// below the floor).
    pub fn worker_bounds(&self) -> (usize, usize) {
        let or_workers = |bound: usize| if bound == 0 { self.workers } else { bound };
        (
            or_workers(self.workers_min).max(1),
            or_workers(self.workers_max),
        )
    }
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            queue_depth: 64,
            cache_entries: 256,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            slow_ms: 0,
            request_timeout_ms: 0,
            max_cells: 4_000_000,
            record_requests: 256,
            record_survivors: 64,
            max_sessions: 64,
            session_ttl_s: 900,
            profile_hz: 99,
            slo_availability: 0.999,
            slo_latency_ms: 0,
            slo_window_s: 60,
            max_requests_per_conn: 1024,
            idle_conn_timeout_ms: 30_000,
            target_queue_delay_ms: 100,
            workers_min: 0,
            workers_max: 0,
            tsdb_retention_s: 86_400,
            tsdb_off: false,
        }
    }
}

/// Connection-lifecycle counters, rendered as the `connections` object in
/// `/metrics` and as `hc_serve_connections_*` Prometheus series. Maintained
/// by the reactor thread alone (plain atomics for cross-thread reads).
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections currently open (`connections_open`, a gauge).
    pub open: AtomicI64,
    /// Connections accepted since boot (`connections_accepted_total`).
    pub accepted_total: AtomicU64,
    /// Requests beyond the first served on a reused connection
    /// (`keepalive_requests_total`).
    pub keepalive_requests_total: AtomicU64,
    /// Idle keep-alive connections closed by `--idle-conn-timeout-ms`
    /// (`idle_timeouts_total`).
    pub idle_timeouts_total: AtomicU64,
}

/// Fault-containment counters, rendered as the `faults` object in `/metrics`.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Handler panics caught and converted to `500` responses
    /// (`panics_total`).
    pub panics: AtomicU64,
    /// Requests (or batch items) answered `504` because their deadline
    /// expired (`deadline_exceeded_total`).
    pub deadline_exceeded: AtomicU64,
}

/// Shared server state: the pool, the result cache, and the metrics registry.
pub struct ServerState {
    /// Worker pool (requests + batch subtasks).
    pub pool: Pool,
    /// Content-addressed result cache (8-way sharded).
    pub cache: ShardedCache,
    /// Per-endpoint counters and histograms.
    pub metrics: Registry,
    /// Active configuration.
    pub config: Config,
    /// Set to request a graceful drain.
    pub shutdown: AtomicBool,
    /// Accepted requests not yet answered (queued + executing).
    pub in_flight: AtomicI64,
    /// Panic and deadline counters (see [`FaultCounters`]).
    pub faults: FaultCounters,
    /// The flight recorder behind `/debug/requests`.
    pub recorder: FlightRecorder,
    /// Live analysis sessions (`/session/*`), shared across workers.
    pub sessions: hc_session::SessionStore,
    /// Rolling multi-window SLO tracker fed once per finished request;
    /// surfaces in `/metrics` (`slo` object + Prometheus series) and flips
    /// `/healthz` to `degraded` while a burn-rate alert fires.
    pub slo: hc_obs::slo::SloEngine,
    /// Connection-lifecycle counters (see [`ConnCounters`]).
    pub conns: ConnCounters,
    /// Adaptive admission + autoscale controller (see [`crate::overload`]):
    /// workers feed it queue sojourns, the reactor ticks it and enforces its
    /// decisions.
    pub overload: crate::overload::OverloadController,
    /// The in-process time-series store behind `/debug/timeseries` and
    /// `hcm top`; `None` with `--tsdb-off`. Fed once per second by the
    /// collector thread (see [`crate::collector`]).
    pub tsdb: Option<Arc<hc_obs::tsdb::Tsdb>>,
    /// The collector thread: unparked at teardown to end its sleep, joined
    /// by [`ServerHandle::join`].
    pub(crate) collector: Mutex<Option<JoinHandle<()>>>,
}

impl ServerState {
    /// Raises the shutdown flag and wakes the tsdb collector, which exits
    /// instead of finishing its one-second sleep. The reactor calls this as
    /// it tears down, on every shutdown path.
    pub(crate) fn stop_collector(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(collector) = lock_recover(&self.collector).as_ref() {
            collector.thread().unpark();
        }
    }
}

/// A running server; dropping it does NOT stop the server — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (tests inspect metrics and cache through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests a graceful drain; returns immediately.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop (and therefore the drained pool) and the
    /// tsdb collector to finish.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            handle.join().expect("accept thread panicked");
        }
        let collector = lock_recover(&self.state.collector).take();
        if let Some(handle) = collector {
            handle.join().expect("tsdb collector panicked");
        }
    }
}

/// Binds the listener, spawns the pool and accept thread, and returns.
pub fn start(config: Config) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    signal::install();
    // Keep-alive fan-in needs one fd per idle client; raise the soft nofile
    // limit toward a comfortable ceiling. Best-effort: a locked-down limit
    // just means fewer concurrent connections, not a startup failure.
    let _ = crate::sys::raise_nofile_limit(65_536);
    // Widen the accept backlog past std's hardcoded 128 so a connection
    // storm queues instead of shedding half-open zombies (clamped by the
    // kernel to net.core.somaxconn).
    {
        use std::os::unix::io::AsRawFd;
        let _ = crate::sys::set_listen_backlog(listener.as_raw_fd(), 4096);
    }
    // The continuous profiler is process-global and idempotent: the first
    // server to start it wins, and shutdown leaves it running so profiles
    // stay cumulative across in-process restarts (tests, embedding).
    if config.profile_hz > 0 {
        hc_obs::profile::start(config.profile_hz);
    }

    let slo_config = hc_obs::slo::SloConfig {
        availability_objective: config.slo_availability,
        latency_objective: config.slo_availability,
        latency_threshold_ms: config.slo_latency_ms,
        ..hc_obs::slo::SloConfig::default()
    }
    .with_short_window(config.slo_window_s);

    // The pool starts at the autoscale floor; the overload control loop grows
    // it toward the ceiling on demand.
    let (workers_min, _) = config.worker_bounds();
    let tsdb = if config.tsdb_off {
        None
    } else {
        Some(Arc::new(hc_obs::tsdb::Tsdb::with_retention(
            config.tsdb_retention_s,
        )))
    };
    let state = Arc::new(ServerState {
        pool: Pool::new(workers_min, config.queue_depth),
        overload: crate::overload::OverloadController::new(config.target_queue_delay_ms),
        tsdb,
        cache: ShardedCache::new(config.cache_entries),
        metrics: Registry::new(),
        recorder: FlightRecorder::new(config.record_requests, config.record_survivors),
        sessions: hc_session::SessionStore::new(hc_session::SessionConfig {
            max_sessions: config.max_sessions,
            ttl: Duration::from_secs(config.session_ttl_s),
        }),
        slo: hc_obs::slo::SloEngine::new(slo_config),
        config,
        shutdown: AtomicBool::new(false),
        in_flight: AtomicI64::new(0),
        faults: FaultCounters::default(),
        conns: ConnCounters::default(),
        collector: Mutex::new(None),
    });
    // The collector starts first, so the reactor's teardown always finds it
    // to wake.
    if state.tsdb.is_some() {
        crate::collector::spawn(Arc::clone(&state));
    }
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("hc-serve-accept".to_string())
        .spawn(move || crate::reactor::run(listener, accept_state))
        .map_err(|e| {
            state.stop_collector();
            format!("spawn accept thread: {e}")
        })?;

    Ok(ServerHandle {
        local_addr,
        state,
        accept_thread: Some(accept_thread),
    })
}

/// Generates a process-unique request id: server start time (µs since the
/// epoch, hex) plus a monotonically increasing sequence number.
pub(crate) fn next_request_id() -> String {
    static BOOT_US: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let boot = BOOT_US.get_or_init(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    });
    format!("{boot:x}-{:x}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// The single code path for every unusable optional header: one structured
/// warn event (and one counter tick) per malformed value, carrying the
/// request id so the warning is attributable. Called after the request id is
/// resolved and recording has begun, so the warning also lands in the
/// request's flight record.
pub(crate) fn warn_malformed_headers(request_id: &str, malformed: &[(&'static str, String)]) {
    for (header, value) in malformed {
        hc_obs::obs_counter!("serve_malformed_header_total").inc();
        hc_obs::event(
            hc_obs::Level::Warn,
            "serve.malformed_header",
            &[
                (
                    "request_id",
                    hc_obs::FieldValue::Str(request_id.to_string()),
                ),
                ("header", hc_obs::FieldValue::Str((*header).to_string())),
                ("value", hc_obs::FieldValue::Str(value.clone())),
            ],
        );
    }
}

/// Resolves the request's trace context: a valid incoming `traceparent`
/// joins the caller's trace (its span id becomes our parent); an absent
/// header starts a fresh trace; a malformed one starts a fresh trace *and*
/// is appended to the request's malformed-header notes.
pub(crate) fn resolve_trace(request: &mut Request) -> TraceContext {
    match request.traceparent.take() {
        None => TraceContext::generate(),
        Some(raw) => match TraceContext::parse(&raw) {
            Ok(trace) => trace,
            Err(_) => {
                request.malformed_headers.push(("traceparent", raw));
                TraceContext::generate()
            }
        },
    }
}

/// Renders the `Server-Timing` response header value: the four request
/// phases, each as `name;dur=<milliseconds>` in wire order.
pub(crate) fn server_timing_value(phases: &PhaseTimings) -> String {
    let ms = |us: u64| us as f64 / 1000.0;
    format!(
        "queue;dur={:.3}, parse;dur={:.3}, compute;dur={:.3}, serialize;dur={:.3}",
        ms(phases.queue_us),
        ms(phases.parse_us),
        ms(phases.compute_us),
        ms(phases.serialize_us)
    )
}

/// Records a shed decision in the flight recorder, on the reactor thread:
/// the request never reaches a worker, but `/debug/requests/{id}` must still
/// explain why it was refused (priority class, ladder rung, `shed: true`).
/// Returns the request id so the `503`'s `X-Request-Id` joins the record.
pub(crate) fn record_shed(
    st: &ServerState,
    request: &mut Request,
    class: crate::overload::Class,
    state_at_admission: u8,
    started: Instant,
) -> String {
    let id = request.request_id.clone().unwrap_or_else(next_request_id);
    request.request_id = Some(id.clone());
    let trace = resolve_trace(request);
    request.traceparent = Some(trace.header_value());
    let recording = st
        .recorder
        .begin(&id, &request.method, &request.path, &trace);
    hc_obs::recorder::note_overload(
        class.as_str(),
        crate::overload::state_name(state_at_admission),
        true,
    );
    recording.finish(Outcome {
        status: 503,
        latency_us: started.elapsed().as_micros() as u64,
        phases: PhaseTimings::default(),
        slow: false,
        panicked: false,
    });
    id
}

/// One parsed request traveling between the reactor and the worker pool,
/// carrying the state an attempt needs and what must stay stable when a
/// parked watch re-runs it.
pub(crate) struct ReqTask {
    /// The request. `request_id` and `traceparent` are written back on the
    /// first attempt so re-runs of a parked watch keep the same identity.
    pub request: Request,
    /// The request's route, decided once from its path at dispatch.
    pub route: &'static router::Route,
    /// When this request began on the connection: accept for the first
    /// request, first byte of the next request for keep-alive reuse. The
    /// latency/SLO/deadline clock.
    pub started: Instant,
    /// Time from `started` until the request was fully parsed (includes
    /// network arrival, like the old blocking read).
    pub parse_us: u64,
    /// When the reactor handed the task to the pool (re-stamped on each
    /// re-dispatch); pickup minus this is the queue phase.
    pub dispatched: Instant,
    /// `Some` on re-runs of a parked watch: the original long-poll deadline.
    pub park_deadline: Option<Instant>,
    /// Priority class assigned at admission (cache upgrades included) —
    /// recorded into the request's flight record.
    pub class: crate::overload::Class,
    /// Overload ladder rung at admission ([`crate::overload::STATE_OK`] etc.).
    pub admit_state: u8,
    /// `Some` for a session read the reactor answers itself, carrying what
    /// the store found; such an attempt has no queue phase.
    pub read: Option<crate::session::ResolvedRead>,
}

/// What one execution attempt of a request produced.
pub(crate) enum AttemptOutcome {
    /// A response for the reactor to write.
    Respond(Response),
    /// A session watch with nothing to report yet: park the connection until
    /// the session changes or the deadline passes, then re-run.
    Park(crate::session::ParkIntent),
}

/// Executes one attempt of a request on a worker thread, or on the reactor
/// for a session read it resolved ([`ReqTask::read`]): request id + trace
/// resolution, flight recording, the panic-isolated route call, and response
/// decoration (`X-Request-Id`, `traceparent`, `Server-Timing`).
///
/// Socket I/O, SLO recording, and in-flight accounting stay with the
/// reactor; this function never blocks on the network. A parked watch
/// abandons its recording (dropping the guard) — only the attempt that
/// answers the client records an outcome.
pub(crate) fn run_attempt(st: &Arc<ServerState>, task: &mut ReqTask) -> AttemptOutcome {
    // Phase clock: queue = dispatch → worker pickup, parse = request arrival
    // + parsing on the reactor, compute = routing + handler, serialize =
    // response assembly. Goes out as `Server-Timing` and into the recorder.
    let read = task.read.take();
    let queue_us = if read.is_some() {
        0
    } else {
        let queue_us = task.dispatched.elapsed().as_micros() as u64;
        // Feed the admission controller's EWMA: this sojourn sample is what
        // the brownout ladder and the autoscaler react to. A read the reactor
        // answers waited in no queue, so it has no sample to give.
        st.overload.observe_queue_delay(queue_us);
        queue_us
    };
    let started = task.started;
    let id = task
        .request
        .request_id
        .clone()
        .unwrap_or_else(next_request_id);
    task.request.request_id = Some(id.clone());
    let trace = resolve_trace(&mut task.request);
    task.request.traceparent = Some(trace.header_value());
    // Recording starts before the handler so every span, event, and numeric
    // note the request produces on this thread — including those emitted
    // while unwinding from a panic — attaches to its record.
    let recording = st
        .recorder
        .begin(&id, &task.request.method, &task.request.path, &trace);
    let resumed = task.park_deadline;
    if resumed.is_none() {
        warn_malformed_headers(&id, &task.request.malformed_headers);
    }
    // Why this request was (not) shed: class and ladder rung at admission,
    // rendered as the record's `overload` object by `/debug/requests/{id}`.
    hc_obs::recorder::note_overload(
        task.class.as_str(),
        crate::overload::state_name(task.admit_state),
        false,
    );
    // Panic isolation: a handler panic (bug or armed failpoint) must cost
    // this request a 500, not the worker its life or later requests their
    // poisoned locks.
    let compute_start = Instant::now();
    let (request, route) = (&task.request, task.route);
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        router::route(st, request, route, started, &id, resumed, read)
    }));
    let compute_us = compute_start.elapsed().as_micros() as u64;
    let (resp, panicked) = match routed {
        Ok(AttemptOutcome::Respond(resp)) => (resp, false),
        // Nothing reached the client: dropping the recording abandons it
        // without an outcome.
        Ok(park) => return park,
        Err(_) => {
            st.faults.panics.fetch_add(1, Ordering::Relaxed);
            st.metrics
                .record("_panic", true, false, started.elapsed(), Duration::ZERO);
            let resp = crate::http::HttpError::typed(
                500,
                "internal_panic",
                format!("internal panic while handling request {id}"),
            )
            .to_response();
            (resp, true)
        }
    };
    let serialize_start = Instant::now();
    let resp = resp
        .with_header("X-Request-Id", &id)
        .with_header("traceparent", &trace.header_value());
    let latency = started.elapsed();
    let phases = PhaseTimings {
        queue_us,
        parse_us: task.parse_us,
        compute_us,
        serialize_us: serialize_start.elapsed().as_micros() as u64,
    };
    let resp = resp.with_header("Server-Timing", &server_timing_value(&phases));
    let slow = st.config.slow_ms > 0 && latency >= Duration::from_millis(st.config.slow_ms);
    recording.finish(Outcome {
        status: resp.status,
        latency_us: latency.as_micros() as u64,
        phases,
        slow,
        panicked,
    });
    AttemptOutcome::Respond(resp)
}
