//! End-to-end tests of the flight recorder: capture without any sink
//! installed, telemetry-note semantics, ring eviction, survivor pinning, and
//! the disabled fast path.
//!
//! Recording is thread-local, so most tests need no serialization; the one
//! test that manipulates the process-global sink state takes a mutex, like
//! `tracing.rs`.

use std::sync::Mutex;

use hc_obs::recorder::{self, FlightRecorder, Outcome, PhaseTimings};
use hc_obs::trace::TraceContext;
use hc_obs::{event, install_capture_sink, span, uninstall_all_sinks, FieldValue, Level};

static SINK_LOCK: Mutex<()> = Mutex::new(());

fn ok_outcome() -> Outcome {
    Outcome {
        status: 200,
        latency_us: 1234,
        phases: PhaseTimings {
            queue_us: 10,
            parse_us: 20,
            compute_us: 1000,
            serialize_us: 204,
        },
        slow: false,
        panicked: false,
    }
}

#[test]
fn records_spans_events_and_notes_without_a_sink() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uninstall_all_sinks();
    assert!(!hc_obs::sink_installed());

    let rec = FlightRecorder::new(16, 4);
    let trace = TraceContext::generate();
    let guard = rec.begin("req-1", "POST", "/measure", &trace);
    assert!(guard.active());
    assert!(recorder::recording());
    {
        let mut outer = span("test.outer");
        outer.field_u64("n", 7);
        let _inner = span("test.inner");
    }
    event(Level::Warn, "test.note", &[("k", FieldValue::U64(1))]);
    // u64 notes accumulate; f64 notes overwrite.
    recorder::note_u64("sinkhorn_iterations", 30);
    recorder::note_u64("sinkhorn_iterations", 12);
    recorder::note_f64("sinkhorn_residual", 0.5);
    recorder::note_f64("sinkhorn_residual", 1e-9);
    guard.finish(ok_outcome());
    assert!(!recorder::recording());

    let r = rec.lookup("req-1").expect("recorded");
    assert_eq!(r.request_id, "req-1");
    assert_eq!(r.trace_id, trace.trace_id);
    assert_eq!(r.span_id, trace.span_id);
    assert_eq!(r.status, 200);
    assert!(!r.survivor);
    assert_eq!(r.phases.compute_us, 1000);

    // Spans complete inner-first; the event fires after both closed.
    let names: Vec<&str> = r.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        ["test.inner", "test.outer", "test.note"],
        "{names:?}"
    );
    assert_eq!(r.spans[0].parent, Some("test.outer"));
    assert!(r.spans[0].dur_us.is_some());
    assert_eq!(r.spans[1].fields, vec![("n", FieldValue::U64(7))]);

    assert_eq!(
        r.numerics,
        vec![
            ("sinkhorn_iterations", FieldValue::U64(42)),
            ("sinkhorn_residual", FieldValue::F64(1e-9)),
        ]
    );

    let json = r.to_json();
    assert!(json.contains("\"sinkhorn_iterations\":42"), "{json}");
    assert!(json.contains("\"name\":\"test.inner\""), "{json}");
    assert!(json.contains("\"phases_us\":{\"queue\":10"), "{json}");
}

#[test]
fn main_ring_evicts_but_survivors_stay_pinned() {
    let rec = FlightRecorder::new(8, 8);
    let trace = TraceContext::generate();

    // One failed request first — the one worth explaining later.
    let guard = rec.begin("req-broken", "POST", "/measure", &trace);
    guard.finish(Outcome {
        status: 500,
        panicked: true,
        ..ok_outcome()
    });

    // Then a flood of healthy traffic large enough to evict every shard's
    // main ring several times over.
    for i in 0..200 {
        let id = format!("req-ok-{i}");
        let guard = rec.begin(&id, "POST", "/measure", &trace);
        guard.finish(ok_outcome());
    }

    assert_eq!(rec.recorded_total(), 201);
    assert_eq!(rec.survivors_pinned_total(), 1);
    // Main rings hold at most `capacity` (after shard rounding) records, so
    // the earliest healthy request is long gone...
    assert!(rec.lookup("req-ok-0").is_none());
    // ...but the broken one is still retrievable, flagged as a survivor.
    let broken = rec.lookup("req-broken").expect("survivor pinned");
    assert!(broken.survivor && broken.panicked && broken.error);
    assert!(!broken.deadline_exceeded);

    let summary = rec.summary_json();
    assert!(summary.contains("\"recorded_total\":201"), "{summary}");
    assert!(
        summary.contains("\"request_id\":\"req-broken\""),
        "{summary}"
    );
}

#[test]
fn deadline_and_slow_requests_are_survivors_too() {
    let rec = FlightRecorder::new(8, 8);
    let trace = TraceContext::generate();
    let guard = rec.begin("req-late", "POST", "/measure", &trace);
    guard.finish(Outcome {
        status: 504,
        ..ok_outcome()
    });
    let guard = rec.begin("req-slow", "POST", "/measure", &trace);
    guard.finish(Outcome {
        slow: true,
        ..ok_outcome()
    });
    let late = rec.lookup("req-late").unwrap();
    assert!(late.survivor && late.deadline_exceeded && late.error);
    let slow = rec.lookup("req-slow").unwrap();
    assert!(slow.survivor && slow.slow && !slow.error);
    assert_eq!(rec.survivors_pinned_total(), 2);
}

#[test]
fn disabled_recorder_is_inert() {
    let rec = FlightRecorder::new(0, 0);
    assert!(!rec.enabled());
    let trace = TraceContext::generate();
    let guard = rec.begin("req-x", "GET", "/healthz", &trace);
    assert!(!guard.active());
    assert!(!recorder::recording());
    recorder::note_u64("ignored", 1); // must not panic or leak
    guard.finish(ok_outcome());
    assert_eq!(rec.recorded_total(), 0);
    assert!(rec.lookup("req-x").is_none());
    let summary = rec.summary_json();
    assert!(summary.contains("\"capacity\":0"), "{summary}");
    assert!(summary.contains("\"requests\":[]"), "{summary}");
}

#[test]
fn dropped_guard_abandons_the_recording() {
    let rec = FlightRecorder::new(8, 8);
    let trace = TraceContext::generate();
    let guard = rec.begin("req-abandoned", "POST", "/measure", &trace);
    assert!(recorder::recording());
    drop(guard);
    // Thread-local state is cleared and nothing was committed.
    assert!(!recorder::recording());
    assert_eq!(rec.recorded_total(), 0);
    assert!(rec.lookup("req-abandoned").is_none());
}

#[test]
fn span_capture_is_bounded_per_record() {
    let rec = FlightRecorder::new(8, 8);
    let trace = TraceContext::generate();
    let guard = rec.begin("req-chatty", "POST", "/measure", &trace);
    for _ in 0..(recorder::MAX_SPANS_PER_RECORD + 10) {
        event(Level::Info, "test.spam", &[]);
    }
    guard.finish(ok_outcome());
    let r = rec.lookup("req-chatty").unwrap();
    assert_eq!(r.spans.len(), recorder::MAX_SPANS_PER_RECORD);
    assert_eq!(r.dropped_spans, 10);
    assert!(r.to_json().contains("\"dropped_spans\":10"));
}

#[test]
fn dual_emit_reaches_both_recorder_and_sink() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    uninstall_all_sinks();
    let cap = install_capture_sink();
    let rec = FlightRecorder::new(8, 8);
    let trace = TraceContext::generate();
    let guard = rec.begin("req-both", "POST", "/measure", &trace);
    {
        let _s = span("test.shared");
    }
    guard.finish(ok_outcome());
    uninstall_all_sinks();

    let r = rec.lookup("req-both").unwrap();
    assert_eq!(r.spans.len(), 1);
    assert_eq!(r.spans[0].name, "test.shared");
    let records = cap.records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].name, "test.shared");
}
