//! The flight recorder: per-request span trees retained for post-hoc
//! debugging.
//!
//! Metrics answer "how is the fleet doing"; span sinks answer "what is
//! happening right now". Neither answers the on-call question "why was
//! request `17ab…-3f` slow five minutes ago?". The flight recorder does: a
//! fixed-capacity, sharded ring buffer holding the complete span tree,
//! events, phase timings, and numeric-quality telemetry (Sinkhorn iterations,
//! residuals, SVD sweeps) for the last N completed requests.
//!
//! Retention is **tail-biased**: every completed request enters the main
//! ring, but *interesting* ones — slow, errored (status ≥ 400), panicked, or
//! deadline-exceeded — are additionally pinned into a separate survivor ring,
//! so a burst of healthy traffic can never evict the request you actually
//! need to explain.
//!
//! # Threading model
//!
//! Recording is thread-local: [`FlightRecorder::begin`] installs an active
//! record on the current thread, and every span or event that completes on
//! that thread while it is active is appended (spans also arm automatically —
//! see [`crate::span()`]). Work fanned out to *other* threads attaches to their
//! records, if any; work a request's own thread executes inline (including
//! batch subtasks it helps drain) is captured. Kernels attach scalar
//! telemetry with [`note_u64`] / [`note_f64`] without threading any handle
//! through their signatures.
//!
//! When no record is active (the common case for library users), every probe
//! degrades to one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;
use crate::sink::{FieldValue, Level, Record, RecordKind};
use crate::trace::TraceContext;

/// Most spans/events retained per request; later ones are counted in
/// `dropped_spans` instead of growing without bound.
pub const MAX_SPANS_PER_RECORD: usize = 256;

const SHARDS: usize = 8;

/// Phase breakdown of one request, in microseconds. Mirrors the
/// `Server-Timing` response header `hc-serve` emits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Accept to worker pickup (time spent in the bounded request queue).
    pub queue_us: u64,
    /// Reading and parsing the request off the socket.
    pub parse_us: u64,
    /// Routing and handler execution.
    pub compute_us: u64,
    /// Response assembly after the handler returned.
    pub serialize_us: u64,
}

/// One span or event captured into a request record.
#[derive(Debug, Clone)]
pub struct RecordedSpan {
    /// Span or event.
    pub kind: RecordKind,
    /// Severity.
    pub level: Level,
    /// Record name (`"sinkhorn.balance"`, `"serve.slow_request"`, …).
    pub name: &'static str,
    /// Enclosing span on the recording thread, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth on the recording thread.
    pub depth: usize,
    /// Duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Structured fields in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// How a recorded request ended; passed to [`RecordingGuard::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Final HTTP status.
    pub status: u16,
    /// Accept-to-response latency in microseconds.
    pub latency_us: u64,
    /// Phase breakdown.
    pub phases: PhaseTimings,
    /// Latency exceeded the server's `--slow-ms` threshold.
    pub slow: bool,
    /// The handler panicked (the response is a synthesized 500).
    pub panicked: bool,
}

/// A completed, immutable request record.
#[derive(Debug)]
pub struct RequestRecord {
    /// Global insertion sequence number (newest = highest).
    pub seq: u64,
    /// The request id echoed as `X-Request-Id`.
    pub request_id: String,
    /// W3C trace id (32 hex chars).
    pub trace_id: String,
    /// The server's own span id within the trace (16 hex chars).
    pub span_id: String,
    /// The caller's span id, when a valid `traceparent` arrived.
    pub parent_span_id: Option<String>,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Final HTTP status.
    pub status: u16,
    /// Wall-clock start (µs since the Unix epoch).
    pub started_unix_us: u64,
    /// Accept-to-response latency in microseconds.
    pub latency_us: u64,
    /// Phase breakdown.
    pub phases: PhaseTimings,
    /// Latency exceeded `--slow-ms`.
    pub slow: bool,
    /// The handler panicked.
    pub panicked: bool,
    /// The request was answered `504 deadline_exceeded`.
    pub deadline_exceeded: bool,
    /// Status ≥ 400.
    pub error: bool,
    /// Pinned into the survivor ring (slow, error, panic, or deadline).
    pub survivor: bool,
    /// Captured span tree + events, in completion order.
    pub spans: Vec<RecordedSpan>,
    /// Spans/events discarded past [`MAX_SPANS_PER_RECORD`].
    pub dropped_spans: u64,
    /// Scalar numeric telemetry attached via [`note_u64`] / [`note_f64`].
    pub numerics: Vec<(&'static str, FieldValue)>,
    /// Priority class assigned at admission (`critical` / `interactive` /
    /// `bulk`), when the server recorded one via [`note_overload`].
    pub priority_class: Option<&'static str>,
    /// Overload-ladder state at admission (`ok` / `brownout` / `shedding`).
    pub overload_state: Option<&'static str>,
    /// The request was rejected by admission control (typed 503).
    pub shed: bool,
}

struct Builder {
    request_id: String,
    trace_id: String,
    span_id: String,
    parent_span_id: Option<String>,
    method: String,
    path: String,
    started_unix_us: u64,
    spans: Vec<RecordedSpan>,
    dropped_spans: u64,
    numerics: Vec<(&'static str, FieldValue)>,
    priority_class: Option<&'static str>,
    overload_state: Option<&'static str>,
    shed: bool,
}

thread_local! {
    static ACTIVE: RefCell<Option<Box<Builder>>> = const { RefCell::new(None) };
    static ACTIVE_FLAG: Cell<bool> = const { Cell::new(false) };
}

/// True when a flight record is active on this thread. One thread-local flag
/// read: this is the disabled-path cost added to every span and note probe.
#[inline]
pub fn recording() -> bool {
    ACTIVE_FLAG.with(Cell::get)
}

/// Appends a completed span/event record to the active flight record, if any.
/// Called by the span machinery on drop/emit; bounded per request.
pub(crate) fn capture(record: &Record<'_>) {
    if !recording() {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(b) = a.borrow_mut().as_mut() {
            if b.spans.len() >= MAX_SPANS_PER_RECORD {
                b.dropped_spans += 1;
                return;
            }
            b.spans.push(RecordedSpan {
                kind: record.kind,
                level: record.level,
                name: record.name,
                parent: record.parent,
                depth: record.depth,
                dur_us: record.dur_us,
                fields: record.fields.to_vec(),
            });
        }
    });
}

fn with_builder(f: impl FnOnce(&mut Builder)) {
    ACTIVE.with(|a| {
        if let Some(b) = a.borrow_mut().as_mut() {
            f(b);
        }
    });
}

/// Attaches (or accumulates into) an unsigned scalar on the active record.
///
/// Repeated notes under the same key **add** (saturating), so per-call
/// iteration counts from kernels invoked several times per request sum to a
/// per-request total. No-op when no record is active on this thread.
pub fn note_u64(key: &'static str, v: u64) {
    if !recording() {
        return;
    }
    with_builder(|b| {
        for (k, existing) in b.numerics.iter_mut() {
            if *k == key {
                if let FieldValue::U64(cur) = existing {
                    *existing = FieldValue::U64(cur.saturating_add(v));
                } else {
                    *existing = FieldValue::U64(v);
                }
                return;
            }
        }
        b.numerics.push((key, FieldValue::U64(v)));
    });
}

/// Attaches the admission-control context to the active record: the priority
/// class the request was classified into, the overload-ladder state at
/// admission, and whether the request was shed — so `/debug/requests/{id}`
/// can explain *why* a request was rejected or browned out, not just that it
/// answered 503. No-op when no record is active on this thread.
pub fn note_overload(class: &'static str, state: &'static str, shed: bool) {
    if !recording() {
        return;
    }
    with_builder(|b| {
        b.priority_class = Some(class);
        b.overload_state = Some(state);
        b.shed = shed;
    });
}

/// The identity of the request being recorded on this thread, as
/// `(request_id, traceparent)` — the join key histogram exemplars carry.
/// `None` when no record is active.
pub fn current_context() -> Option<(String, String)> {
    if !recording() {
        return None;
    }
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|b| {
            (
                b.request_id.clone(),
                format!("00-{}-{}-01", b.trace_id, b.span_id),
            )
        })
    })
}

/// Attaches a float scalar on the active record; repeated notes under the
/// same key **overwrite** (last wins — the final residual is the one that
/// matters). No-op when no record is active on this thread.
pub fn note_f64(key: &'static str, v: f64) {
    if !recording() {
        return;
    }
    with_builder(|b| {
        for (k, existing) in b.numerics.iter_mut() {
            if *k == key {
                *existing = FieldValue::F64(v);
                return;
            }
        }
        b.numerics.push((key, FieldValue::F64(v)));
    });
}

/// RAII handle for an in-progress recording; see [`FlightRecorder::begin`].
///
/// Call [`finish`](RecordingGuard::finish) with the request outcome to commit
/// the record. Dropping the guard without finishing abandons the recording
/// (nothing is retained) but always clears the thread-local state.
pub struct RecordingGuard<'a> {
    rec: Option<&'a FlightRecorder>,
}

impl RecordingGuard<'_> {
    /// True when this guard actually records (the recorder is enabled).
    pub fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// Commits the record with its outcome, pinning interesting requests
    /// (slow / error / panic / deadline) into the survivor ring.
    pub fn finish(mut self, outcome: Outcome) {
        let Some(recorder) = self.rec.take() else {
            return;
        };
        ACTIVE_FLAG.with(|f| f.set(false));
        let builder = ACTIVE.with(|a| a.borrow_mut().take());
        let Some(b) = builder else { return };
        let error = outcome.status >= 400;
        let deadline_exceeded = outcome.status == 504;
        let survivor = error || outcome.slow || outcome.panicked;
        recorder.insert(RequestRecord {
            seq: recorder.seq.fetch_add(1, Ordering::Relaxed),
            request_id: b.request_id,
            trace_id: b.trace_id,
            span_id: b.span_id,
            parent_span_id: b.parent_span_id,
            method: b.method,
            path: b.path,
            status: outcome.status,
            started_unix_us: b.started_unix_us,
            latency_us: outcome.latency_us,
            phases: outcome.phases,
            slow: outcome.slow,
            panicked: outcome.panicked,
            deadline_exceeded,
            error,
            survivor,
            spans: b.spans,
            dropped_spans: b.dropped_spans,
            numerics: b.numerics,
            priority_class: b.priority_class,
            overload_state: b.overload_state,
            shed: b.shed,
        });
    }
}

impl Drop for RecordingGuard<'_> {
    fn drop(&mut self) {
        if self.rec.take().is_some() {
            ACTIVE_FLAG.with(|f| f.set(false));
            ACTIVE.with(|a| a.borrow_mut().take());
        }
    }
}

#[derive(Default)]
struct Shard {
    ring: VecDeque<Arc<RequestRecord>>,
    survivors: VecDeque<Arc<RequestRecord>>,
}

/// The fixed-capacity request store: a main ring of the last N completed
/// requests plus a survivor ring of pinned interesting ones, sharded by
/// request id (lock-per-shard, like the metrics registry).
pub struct FlightRecorder {
    shards: [Mutex<Shard>; SHARDS],
    per_shard: usize,
    survivors_per_shard: usize,
    capacity: usize,
    survivor_capacity: usize,
    seq: AtomicU64,
    recorded: AtomicU64,
    pinned: AtomicU64,
}

fn shard_of(id: &str) -> usize {
    (crate::hash::fnv1a(id.as_bytes()) as usize) % SHARDS
}

impl FlightRecorder {
    /// Creates a recorder retaining about `capacity` recent requests plus
    /// about `survivor_capacity` pinned interesting ones. `capacity == 0`
    /// disables recording entirely: [`begin`](FlightRecorder::begin) hands
    /// out inert guards and no per-request cost is paid beyond one branch.
    pub fn new(capacity: usize, survivor_capacity: usize) -> Self {
        FlightRecorder {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            per_shard: capacity.div_ceil(SHARDS),
            survivors_per_shard: survivor_capacity.div_ceil(SHARDS),
            capacity,
            survivor_capacity,
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            pinned: AtomicU64::new(0),
        }
    }

    /// True when recording is enabled (`capacity > 0`).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Total requests ever committed to the recorder.
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total requests ever pinned into the survivor ring.
    pub fn survivors_pinned_total(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Configured main-ring capacity (as requested, before shard rounding).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured survivor-ring capacity.
    pub fn survivor_capacity(&self) -> usize {
        self.survivor_capacity
    }

    /// Starts recording the current thread's request. Spans, events, and
    /// `note_*` calls on this thread attach to the record until the returned
    /// guard is [finished](RecordingGuard::finish) or dropped.
    pub fn begin(
        &self,
        request_id: &str,
        method: &str,
        path: &str,
        trace: &TraceContext,
    ) -> RecordingGuard<'_> {
        if !self.enabled() {
            return RecordingGuard { rec: None };
        }
        let started_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let builder = Box::new(Builder {
            request_id: request_id.to_string(),
            trace_id: trace.trace_id.clone(),
            span_id: trace.span_id.clone(),
            parent_span_id: trace.parent_span_id.clone(),
            method: method.to_string(),
            path: path.to_string(),
            started_unix_us,
            spans: Vec::new(),
            dropped_spans: 0,
            numerics: Vec::new(),
            priority_class: None,
            overload_state: None,
            shed: false,
        });
        ACTIVE.with(|a| *a.borrow_mut() = Some(builder));
        ACTIVE_FLAG.with(|f| f.set(true));
        RecordingGuard { rec: Some(self) }
    }

    fn insert(&self, record: RequestRecord) {
        let survivor = record.survivor;
        let shard = shard_of(&record.request_id);
        let record = Arc::new(record);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut s = crate::sync::lock_recover(&self.shards[shard]);
        s.ring.push_back(Arc::clone(&record));
        while s.ring.len() > self.per_shard.max(1) {
            s.ring.pop_front();
        }
        if survivor && self.survivors_per_shard > 0 {
            self.pinned.fetch_add(1, Ordering::Relaxed);
            s.survivors.push_back(record);
            while s.survivors.len() > self.survivors_per_shard {
                s.survivors.pop_front();
            }
        }
    }

    /// Finds a record by request id (survivor ring searched too, so pinned
    /// records stay retrievable after the main ring evicted them).
    pub fn lookup(&self, request_id: &str) -> Option<Arc<RequestRecord>> {
        let s = crate::sync::lock_recover(&self.shards[shard_of(request_id)]);
        s.ring
            .iter()
            .rev()
            .chain(s.survivors.iter().rev())
            .find(|r| r.request_id == request_id)
            .cloned()
    }

    /// All retained records (main + survivor rings, deduplicated), newest
    /// first.
    pub fn snapshot(&self) -> Vec<Arc<RequestRecord>> {
        let mut all: Vec<Arc<RequestRecord>> = Vec::new();
        for shard in &self.shards {
            let s = crate::sync::lock_recover(shard);
            all.extend(s.ring.iter().cloned());
            all.extend(s.survivors.iter().cloned());
        }
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.dedup_by(|a, b| a.seq == b.seq);
        all
    }

    /// The `/debug/requests` document: recorder configuration, lifetime
    /// counters, and a newest-first summary of every retained record.
    pub fn summary_json(&self) -> String {
        json::object(|o| {
            o.u64("capacity", self.capacity as u64)
                .u64("survivor_capacity", self.survivor_capacity as u64)
                .u64("recorded_total", self.recorded_total())
                .u64("survivors_pinned_total", self.survivors_pinned_total());
            let mut requests = o.array("requests");
            for r in self.snapshot() {
                r.write_summary(&mut requests.object());
            }
        })
    }
}

impl RequestRecord {
    fn write_head(&self, o: &mut json::Object<'_>) {
        o.str("request_id", &self.request_id)
            .str("trace_id", &self.trace_id)
            .str("span_id", &self.span_id);
        if let Some(parent) = &self.parent_span_id {
            o.str("parent_span_id", parent);
        }
        o.str("method", &self.method)
            .str("path", &self.path)
            .u64("started_unix_us", self.started_unix_us)
            .u64("status", u64::from(self.status))
            .u64("latency_us", self.latency_us)
            .bool("slow", self.slow)
            .bool("error", self.error)
            .bool("panicked", self.panicked)
            .bool("deadline_exceeded", self.deadline_exceeded)
            .bool("survivor", self.survivor);
        if let (Some(class), Some(state)) = (self.priority_class, self.overload_state) {
            o.object("overload")
                .str("class", class)
                .str("state_at_admission", state)
                .bool("shed", self.shed);
        }
    }

    /// Writes the one-line summary (the `/debug/requests` listing entry)
    /// into `o`.
    fn write_summary(&self, o: &mut json::Object<'_>) {
        self.write_head(o);
        o.u64("spans", self.spans.len() as u64);
    }

    /// The full record: identity, flags, phase timings, numeric telemetry,
    /// and the complete captured span tree.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            self.write_head(o);
            o.object("phases_us")
                .u64("queue", self.phases.queue_us)
                .u64("parse", self.phases.parse_us)
                .u64("compute", self.phases.compute_us)
                .u64("serialize", self.phases.serialize_us);
            {
                let mut numerics = o.object("numerics");
                for (k, v) in &self.numerics {
                    v.write_json(&mut numerics, k);
                }
            }
            o.u64("dropped_spans", self.dropped_spans);
            let mut spans = o.array("spans");
            for s in &self.spans {
                let mut span = spans.object();
                span.str("kind", s.kind.as_str())
                    .str("level", s.level.as_str())
                    .str("name", s.name);
                if let Some(parent) = s.parent {
                    span.str("parent", parent);
                }
                span.u64("depth", s.depth as u64);
                if let Some(dur) = s.dur_us {
                    span.u64("dur_us", dur);
                }
                let mut fields = span.object("fields");
                for (k, v) in &s.fields {
                    v.write_json(&mut fields, k);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(status: u16) -> Outcome {
        Outcome {
            status,
            latency_us: 10,
            phases: PhaseTimings::default(),
            slow: false,
            panicked: false,
        }
    }

    #[test]
    fn overload_context_is_recorded_and_rendered() {
        let rec = FlightRecorder::new(8, 2);
        let trace = TraceContext::generate();
        let guard = rec.begin("ovl-req-1", "POST", "/measure", &trace);
        note_overload("bulk", "shedding", true);
        guard.finish(outcome(503));
        let r = rec.lookup("ovl-req-1").expect("record retained");
        assert_eq!(r.priority_class, Some("bulk"));
        assert_eq!(r.overload_state, Some("shedding"));
        assert!(r.shed);
        let json = r.to_json();
        assert!(
            json.contains(
                "\"overload\":{\"class\":\"bulk\",\"state_at_admission\":\
                 \"shedding\",\"shed\":true}"
            ),
            "{json}"
        );
    }

    #[test]
    fn records_without_overload_context_omit_the_block() {
        let rec = FlightRecorder::new(8, 2);
        let trace = TraceContext::generate();
        rec.begin("ovl-req-2", "GET", "/healthz", &trace)
            .finish(outcome(200));
        let r = rec.lookup("ovl-req-2").unwrap();
        assert_eq!(r.priority_class, None);
        assert!(!r.shed);
        assert!(!r.to_json().contains("\"overload\""));
    }

    /// The `/debug/requests` listing entry for one record.
    fn summary(r: &RequestRecord) -> String {
        json::object(|o| r.write_summary(o))
    }

    fn pinned_record() -> RequestRecord {
        RequestRecord {
            seq: 9,
            request_id: "req-\"1\"".to_string(),
            trace_id: "4bf92f3577b34da6a3ce929d0e0e4736".to_string(),
            span_id: "00f067aa0ba902b7".to_string(),
            parent_span_id: Some("b7ad6b7169203331".to_string()),
            method: "POST".to_string(),
            path: "/measure".to_string(),
            status: 504,
            started_unix_us: 1_700_000_000_000_001,
            latency_us: 41_000,
            phases: PhaseTimings {
                queue_us: 10,
                parse_us: 20,
                compute_us: 40_000,
                serialize_us: 5,
            },
            slow: true,
            panicked: false,
            deadline_exceeded: true,
            error: true,
            survivor: true,
            spans: vec![
                RecordedSpan {
                    kind: RecordKind::Span,
                    level: Level::Info,
                    name: "sinkhorn.balance",
                    parent: Some("core.characterize"),
                    depth: 1,
                    dur_us: Some(39_000),
                    fields: vec![
                        ("iterations", FieldValue::U64(12)),
                        ("residual", FieldValue::F64(f64::INFINITY)),
                    ],
                },
                RecordedSpan {
                    kind: RecordKind::Event,
                    level: Level::Warn,
                    name: "serve.slow_request",
                    parent: None,
                    depth: 0,
                    dur_us: None,
                    fields: vec![],
                },
            ],
            dropped_spans: 2,
            numerics: vec![
                ("sinkhorn_iterations", FieldValue::U64(12)),
                ("deadline_ms", FieldValue::F64(40.5)),
            ],
            priority_class: Some("interactive"),
            overload_state: Some("brownout"),
            shed: false,
        }
    }

    #[test]
    fn record_documents_are_pinned() {
        let mut r = pinned_record();
        let head = "{\"request_id\":\"req-\\\"1\\\"\",\
             \"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"span_id\":\"00f067aa0ba902b7\",";
        let tail = "\"method\":\"POST\",\"path\":\"/measure\",\
             \"started_unix_us\":1700000000000001,\"status\":504,\"latency_us\":41000,\
             \"slow\":true,\"error\":true,\"panicked\":false,\"deadline_exceeded\":true,\
             \"survivor\":true";
        let overload = ",\"overload\":{\"class\":\"interactive\",\
             \"state_at_admission\":\"brownout\",\"shed\":false}";
        let body = ",\"phases_us\":{\"queue\":10,\"parse\":20,\"compute\":40000,\
             \"serialize\":5},\"numerics\":{\"sinkhorn_iterations\":12,\"deadline_ms\":40.5},\
             \"dropped_spans\":2,\"spans\":[{\"kind\":\"span\",\"level\":\"info\",\
             \"name\":\"sinkhorn.balance\",\"parent\":\"core.characterize\",\"depth\":1,\
             \"dur_us\":39000,\"fields\":{\"iterations\":12,\"residual\":null}},\
             {\"kind\":\"event\",\"level\":\"warn\",\"name\":\"serve.slow_request\",\
             \"depth\":0,\"fields\":{}}]}";
        let parent = "\"parent_span_id\":\"b7ad6b7169203331\",";
        assert_eq!(r.to_json(), format!("{head}{parent}{tail}{overload}{body}"));
        assert_eq!(
            summary(&r),
            format!("{head}{parent}{tail}{overload},\"spans\":2}}")
        );
        // No caller span and no admission context: both blocks are omitted.
        r.parent_span_id = None;
        r.priority_class = None;
        r.spans.clear();
        r.numerics.clear();
        r.dropped_spans = 0;
        assert_eq!(
            r.to_json(),
            format!(
                "{head}{tail},\"phases_us\":{{\"queue\":10,\"parse\":20,\"compute\":40000,\
                 \"serialize\":5}},\"numerics\":{{}},\"dropped_spans\":0,\"spans\":[]}}"
            )
        );
        assert_eq!(summary(&r), format!("{head}{tail},\"spans\":0}}"));
    }

    #[test]
    fn current_context_follows_the_active_record() {
        assert!(current_context().is_none());
        let rec = FlightRecorder::new(8, 2);
        let trace = TraceContext::generate();
        let guard = rec.begin("ctx-req-1", "POST", "/measure", &trace);
        let (id, traceparent) = current_context().expect("armed context");
        assert_eq!(id, "ctx-req-1");
        assert_eq!(
            traceparent,
            format!("00-{}-{}-01", trace.trace_id, trace.span_id)
        );
        guard.finish(outcome(200));
        assert!(current_context().is_none());
    }
}
