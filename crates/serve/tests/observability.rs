//! Socket-level tests of the observability surface: trace propagation
//! (`traceparent` parse/generate/echo), `Server-Timing`, the flight recorder
//! behind `/debug/requests`, survivor pinning under a healthy flood, the
//! Prometheus exposition of `/metrics`, and `Cache-Control` on the
//! scrape/probe endpoints.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use hc_serve::{failpoints, start, Config};

/// Failpoints and sinks are process-global, so an armed failpoint or sink in
/// one test reaches every server the other tests start; every test holds
/// this (recovering) lock for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// One HTTP/1.1 exchange with arbitrary extra headers.
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: obs\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!(
        "Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let (head, resp_body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, head.to_string(), resp_body.to_string())
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String, String) {
    request_with_headers(addr, "POST", target, &[], body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    request_with_headers(addr, "GET", target, &[], "")
}

fn test_config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 32,
        cache_entries: 64,
        ..Config::default()
    }
}

fn matrix(i: usize) -> String {
    format!(
        "task,m1,m2,m3\nt1,{},8.0,4.0\nt2,6.0,{},5.0\nt3,4.0,4.0,{}\n",
        2.0 + i as f64,
        3.0 + i as f64 * 0.5,
        4.0 + i as f64 * 0.25,
    )
}

/// Extracts a response header value (headers are emitted verbatim, so the
/// name match is exact).
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{name}: ");
    head.lines()
        .find(|l| l.starts_with(&prefix))
        .map(|l| &l[prefix.len()..])
}

fn assert_valid_traceparent(tp: &str) -> (&str, &str) {
    let parts: Vec<&str> = tp.split('-').collect();
    assert_eq!(parts.len(), 4, "traceparent {tp:?}");
    assert_eq!(parts[0], "00");
    assert_eq!(parts[1].len(), 32);
    assert_eq!(parts[2].len(), 16);
    assert_eq!(parts[3].len(), 2);
    assert!(
        parts[1..3].iter().all(|p| p
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())),
        "{tp:?}"
    );
    (parts[1], parts[2])
}

#[test]
fn traceparent_is_generated_when_absent() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let (status, head, _body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(header_value(&head, "X-Request-Id").is_some(), "{head}");
    let tp = header_value(&head, "traceparent").expect("traceparent generated");
    let (trace_id, span_id) = assert_valid_traceparent(tp);
    assert_ne!(trace_id, "0".repeat(32));
    assert_ne!(span_id, "0".repeat(16));

    handle.shutdown();
    handle.join();
}

#[test]
fn valid_traceparent_joins_the_callers_trace() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let caller_trace = "4bf92f3577b34da6a3ce929d0e0e4736";
    let caller_span = "00f067aa0ba902b7";
    let sent = format!("00-{caller_trace}-{caller_span}-01");
    let (status, head, _body) = request_with_headers(
        addr,
        "POST",
        "/measure",
        &[("traceparent", &sent), ("X-Request-Id", "obs-join-1")],
        &matrix(0),
    );
    assert_eq!(status, 200);
    let tp = header_value(&head, "traceparent").expect("traceparent echoed");
    let (trace_id, span_id) = assert_valid_traceparent(tp);
    // Same trace, new server-side span.
    assert_eq!(trace_id, caller_trace, "{head}");
    assert_ne!(span_id, caller_span, "{head}");

    // The flight record keeps the linkage: caller span id as parent.
    let (ds, _dh, dbody) = get(addr, "/debug/requests/obs-join-1");
    assert_eq!(ds, 200, "{dbody}");
    assert!(
        dbody.contains(&format!("\"trace_id\":\"{caller_trace}\"")),
        "{dbody}"
    );
    assert!(
        dbody.contains(&format!("\"parent_span_id\":\"{caller_span}\"")),
        "{dbody}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_headers_warn_once_with_request_id() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    hc_obs::uninstall_all_sinks();
    let cap = hc_obs::install_capture_sink();

    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (status, head, _body) = request_with_headers(
        addr,
        "POST",
        "/measure",
        &[
            ("traceparent", "not-a-trace"),
            ("X-Timeout-Ms", "soon"),
            ("X-Request-Id", "obs-mal-1"),
        ],
        &matrix(0),
    );
    hc_obs::uninstall_all_sinks();
    assert_eq!(status, 200);
    // The malformed traceparent was replaced with a fresh valid one.
    assert_valid_traceparent(header_value(&head, "traceparent").unwrap());

    // Both bad headers produced the same structured warn event, each
    // carrying the request id.
    let warns: Vec<_> = cap
        .records()
        .into_iter()
        .filter(|r| r.name == "serve.malformed_header")
        .collect();
    assert_eq!(warns.len(), 2, "{warns:?}");
    for w in &warns {
        assert_eq!(w.level, hc_obs::Level::Warn);
        assert!(
            w.json_line.contains("\"request_id\":\"obs-mal-1\""),
            "{w:?}"
        );
    }
    let headers_seen: Vec<&str> = warns
        .iter()
        .filter_map(|w| {
            w.fields
                .iter()
                .find(|(k, _)| *k == "header")
                .map(|(_, v)| match v {
                    hc_obs::FieldValue::Str(s) => s.as_str(),
                    _ => "?",
                })
        })
        .collect();
    assert!(headers_seen.contains(&"traceparent"), "{headers_seen:?}");
    assert!(headers_seen.contains(&"X-Timeout-Ms"), "{headers_seen:?}");

    // The warnings also landed in the request's own flight record.
    let (ds, _dh, dbody) = get(addr, "/debug/requests/obs-mal-1");
    assert_eq!(ds, 200, "{dbody}");
    assert_eq!(
        dbody.matches("serve.malformed_header").count(),
        2,
        "{dbody}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn server_timing_lists_phases_in_wire_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (status, head, _body) = post(addr, "/measure", &matrix(1));
    assert_eq!(status, 200);
    let st = header_value(&head, "Server-Timing").expect("Server-Timing present");
    let phases: Vec<&str> = st
        .split(", ")
        .map(|p| p.split(';').next().unwrap())
        .collect();
    assert_eq!(phases, ["queue", "parse", "compute", "serialize"], "{st}");
    for part in st.split(", ") {
        let dur = part.split("dur=").nth(1).expect(part);
        let _: f64 = dur.parse().unwrap_or_else(|_| panic!("{part}"));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn debug_requests_explains_a_slow_request_after_the_fact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        slow_ms: 1,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    // Make the Sinkhorn kernel measurably slow so the request crosses the
    // 1 ms slow threshold deterministically.
    failpoints::arm("sinkhorn.iteration:delay:2");
    let (status, _head, _body) = request_with_headers(
        addr,
        "POST",
        "/measure",
        &[("X-Request-Id", "obs-slow-1")],
        &matrix(2),
    );
    failpoints::reset();
    assert_eq!(status, 200);

    // The summary lists it; the full record explains it.
    let (ls, lh, lbody) = get(addr, "/debug/requests");
    assert_eq!(ls, 200);
    assert!(
        header_value(&lh, "Cache-Control") == Some("no-store"),
        "{lh}"
    );
    assert!(lbody.contains("\"request_id\":\"obs-slow-1\""), "{lbody}");

    let (ds, dh, dbody) = get(addr, "/debug/requests/obs-slow-1");
    assert_eq!(ds, 200, "{dbody}");
    assert!(
        header_value(&dh, "Cache-Control") == Some("no-store"),
        "{dh}"
    );
    assert!(dbody.contains("\"slow\":true"), "{dbody}");
    assert!(dbody.contains("\"survivor\":true"), "{dbody}");
    // Kernel telemetry: the per-request Sinkhorn iteration total and final
    // residual, plus the SVD work behind TMA.
    assert!(dbody.contains("\"sinkhorn_iterations\":"), "{dbody}");
    assert!(dbody.contains("\"sinkhorn_residual\":"), "{dbody}");
    assert!(dbody.contains("\"standardization_iterations\":"), "{dbody}");
    // Phase timings are present and the span tree is non-empty, with the
    // measurement phases visible by name.
    assert!(dbody.contains("\"phases_us\":{\"queue\":"), "{dbody}");
    assert!(
        dbody.contains("\"name\":\"measure.standardize\""),
        "{dbody}"
    );
    assert!(dbody.contains("\"name\":\"measure.svd\""), "{dbody}");
    assert!(dbody.contains("\"dur_us\":"), "{dbody}");

    // Unknown ids answer a typed 404.
    let (ns, _nh, nbody) = get(addr, "/debug/requests/no-such-id");
    assert_eq!(ns, 404, "{nbody}");
    assert!(nbody.contains("not_recorded"), "{nbody}");

    handle.shutdown();
    handle.join();
}

#[test]
fn panicked_request_survives_a_healthy_flood() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        record_requests: 8,
        record_survivors: 8,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    // One deliberately-crashed request...
    failpoints::arm("handler:panic");
    let (status, _head, _body) = request_with_headers(
        addr,
        "POST",
        "/measure",
        &[("X-Request-Id", "obs-panic-1")],
        &matrix(3),
    );
    failpoints::reset();
    assert_eq!(status, 500);

    // ...then a healthy flood far past the main ring's capacity.
    for i in 0..50 {
        let (s, _h, _b) = request_with_headers(
            addr,
            "POST",
            "/measure",
            &[("X-Request-Id", &format!("obs-flood-{i}"))],
            &matrix(3),
        );
        assert_eq!(s, 200);
    }

    // Retention is bounded by both rings...
    let state = handle.state();
    assert!(
        state.recorder.snapshot().len() <= 16,
        "retention must stay bounded"
    );
    assert_eq!(state.recorder.recorded_total(), 51);
    // ...yet the panicked request is still retrievable over HTTP, because
    // the survivor ring pinned it.
    let (ds, _dh, dbody) = get(addr, "/debug/requests/obs-panic-1");
    assert_eq!(ds, 200, "{dbody}");
    assert!(dbody.contains("\"panicked\":true"), "{dbody}");
    assert!(dbody.contains("\"survivor\":true"), "{dbody}");
    assert!(dbody.contains("\"status\":500"), "{dbody}");

    handle.shutdown();
    handle.join();
}

#[test]
fn prometheus_exposition_and_cache_control() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (s, _h, _b) = post(addr, "/measure", &matrix(4));
    assert_eq!(s, 200);

    let (ps, ph, pbody) = get(addr, "/metrics?format=prometheus");
    assert_eq!(ps, 200);
    assert!(
        header_value(&ph, "Content-Type") == Some("text/plain; version=0.0.4"),
        "{ph}"
    );
    assert!(
        header_value(&ph, "Cache-Control") == Some("no-store"),
        "{ph}"
    );
    assert!(
        pbody
            .lines()
            .any(|l| l.starts_with("hc_serve_requests_total{endpoint=\"measure\"}")),
        "{pbody}"
    );
    assert!(
        pbody.contains("# TYPE hc_serve_latency_us histogram"),
        "{pbody}"
    );
    assert!(pbody.contains("_bucket{"), "{pbody}");
    assert!(pbody.contains("le=\"+Inf\""), "{pbody}");
    assert!(
        pbody.contains("hc_serve_recorder_recorded_total"),
        "{pbody}"
    );
    // The merged library registry rides along, names sanitized.
    assert!(pbody.contains("core_characterize_total"), "{pbody}");

    // JSON default and healthz both carry no-store; unknown formats are 400.
    let (ms, mh, mbody) = get(addr, "/metrics");
    assert_eq!(ms, 200);
    assert!(
        header_value(&mh, "Content-Type") == Some("application/json"),
        "{mh}"
    );
    assert!(
        header_value(&mh, "Cache-Control") == Some("no-store"),
        "{mh}"
    );
    assert!(mbody.contains("\"recorder\":{"), "{mbody}");
    let (hs, hh, _hb) = get(addr, "/healthz");
    assert_eq!(hs, 200);
    assert!(
        header_value(&hh, "Cache-Control") == Some("no-store"),
        "{hh}"
    );
    let (bs, _bh, _bb) = get(addr, "/metrics?format=xml");
    assert_eq!(bs, 400);

    handle.shutdown();
    handle.join();
}

/// Every `key.path` of a compact JSON document in document order, paired
/// with its raw scalar text (empty for objects and arrays). A minimal walker
/// for the documents `/metrics` renders; it assumes valid, whitespace-free
/// JSON.
fn flatten_json(json: &str) -> Vec<(String, String)> {
    fn string(b: &[u8], i: &mut usize) -> String {
        let start = *i + 1;
        *i = start;
        while b[*i] != b'"' {
            *i += if b[*i] == b'\\' { 2 } else { 1 };
        }
        *i += 1;
        String::from_utf8_lossy(&b[start..*i - 1]).into_owned()
    }
    fn value(b: &[u8], i: &mut usize, path: &str, out: &mut Vec<(String, String)>) -> String {
        let start = *i;
        match b[*i] {
            b'{' => {
                *i += 1;
                while b[*i] != b'}' {
                    if b[*i] == b',' {
                        *i += 1;
                    }
                    let key = string(b, i);
                    *i += 1; // ':'
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    let at = out.len();
                    out.push((child.clone(), String::new()));
                    let scalar = value(b, i, &child, out);
                    out[at].1 = scalar;
                }
                *i += 1;
                return String::new();
            }
            b'[' => {
                *i += 1;
                while b[*i] != b']' {
                    if b[*i] == b',' {
                        *i += 1;
                    }
                    value(b, i, path, out);
                }
                *i += 1;
                return String::new();
            }
            b'"' => {
                string(b, i);
            }
            _ => {
                while !matches!(b[*i], b',' | b'}' | b']') {
                    *i += 1;
                }
            }
        }
        String::from_utf8_lossy(&b[start..*i]).into_owned()
    }
    let mut out = Vec::new();
    value(json.as_bytes(), &mut 0, "", &mut out);
    out
}

/// Pushes `group` and then `group.key` for every key.
fn nest(out: &mut Vec<String>, group: &str, keys: &[&str]) {
    out.push(group.to_string());
    out.extend(keys.iter().map(|k| format!("{group}.{k}")));
}

/// Pins the shape of both `/metrics` documents after a fixed request
/// sequence on a fresh server: the ordered JSON key paths (outside the
/// merged `library` registry and the timing-dependent histogram buckets),
/// each endpoint's counters, and the set of `hc_serve_*` Prometheus samples
/// with each family typed exactly once.
#[test]
fn metrics_documents_keep_their_shape() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    for _ in 0..3 {
        assert_eq!(post(addr, "/measure", &matrix(1)).0, 200);
    }
    assert_eq!(post(addr, "/measure", "not,a\nmatrix").0, 400);
    assert_eq!(get(addr, "/healthz").0, 200);
    let (s, _h, created) = post(addr, "/session", &matrix(2));
    assert_eq!(s, 200, "{created}");
    let at = created.find("\"id\":\"").expect("session id") + 6;
    let id: String = created[at..].chars().take_while(|c| *c != '"').collect();
    let etc = format!("/session/{id}/etc");
    let edit = "cell,t1,m1,2.5\n";
    assert_eq!(request_with_headers(addr, "PATCH", &etc, &[], edit).0, 200);
    let stale = [("If-Match", "\"1\"")];
    assert_eq!(
        request_with_headers(addr, "PATCH", &etc, &stale, edit).0,
        409
    );
    let target = format!("/session/{id}");
    assert_eq!(
        request_with_headers(addr, "DELETE", &target, &[], "").0,
        200
    );

    // (a) JSON key paths, in document order.
    let (ms, _mh, doc) = get(addr, "/metrics");
    assert_eq!(ms, 200);
    let flat = flatten_json(&doc);
    let paths: Vec<&str> = flat
        .iter()
        .map(|(p, _)| p.as_str())
        .filter(|p| *p != "library" && !p.starts_with("library."))
        .filter(|p| !p.contains("_histogram_us."))
        .collect();
    let endpoint = [
        "count",
        "errors",
        "cache_hits",
        "latency_total_us",
        "latency_p50_us_upper",
        "latency_p95_us_upper",
        "latency_p99_us_upper",
        "latency_histogram_us",
        "service_total_us",
        "service_histogram_us",
    ];
    let window = ["seconds", "total", "bad", "error_rate", "burn_rate"];
    let mut want: Vec<String> = vec!["uptime_seconds".into()];
    nest(
        &mut want,
        "build",
        &["version", "git_describe", "linalg_frame"],
    );
    want.extend(["requests_total".into(), "requests_in_flight".into()]);
    want.push("endpoints".into());
    for e in ["healthz", "measure", "session", "session_etc", "session_id"] {
        nest(&mut want, &format!("endpoints.{e}"), &endpoint);
    }
    nest(
        &mut want,
        "pool",
        &[
            "workers",
            "queue_depth",
            "queued",
            "completed_total",
            "shed_total",
            "job_panics_total",
            "worker_respawns_total",
            "worker_scale_up_total",
            "worker_scale_down_total",
        ],
    );
    nest(
        &mut want,
        "connections",
        &[
            "open",
            "accepted_total",
            "keepalive_requests_total",
            "idle_timeouts_total",
        ],
    );
    nest(
        &mut want,
        "cache",
        &["entries", "capacity", "hits", "misses", "evictions"],
    );
    nest(
        &mut want,
        "faults",
        &["panics_total", "deadline_exceeded_total"],
    );
    nest(
        &mut want,
        "recorder",
        &[
            "capacity",
            "survivor_capacity",
            "recorded_total",
            "survivors_pinned_total",
        ],
    );
    nest(
        &mut want,
        "sessions",
        &[
            "active",
            "created_total",
            "deleted_total",
            "expired_total",
            "evicted_total",
            "patches_total",
            "watches_total",
            "watch_wakes_total",
            "conflicts_total",
            "drains_total",
            "warm_fallbacks_total",
            "recomputes_total",
            "recomputes_warm_total",
        ],
    );
    nest(&mut want, "slo", &["degraded"]);
    nest(&mut want, "slo.availability", &["objective"]);
    for w in ["short", "mid", "long"] {
        nest(&mut want, &format!("slo.availability.{w}"), &window);
    }
    want.extend([
        "slo.availability.fast_alert".into(),
        "slo.availability.slow_alert".into(),
        "slo.latency".into(),
    ]);
    nest(
        &mut want,
        "overload",
        &[
            "state",
            "target_queue_delay_ms",
            "smoothed_queue_delay_us",
            "retry_after_s",
            "shed_bulk_total",
            "shed_interactive_total",
            "brownout_entered_total",
            "shedding_entered_total",
        ],
    );
    assert_eq!(paths, want, "{doc}");
    assert_eq!(
        flat.last().map(|(p, _)| p.split('.').next()),
        Some(Some("library"))
    );

    // (b) per-endpoint counters.
    let value = |path: String| -> &str {
        flat.iter()
            .find(|(p, _)| *p == path)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{path} in {doc}"))
    };
    for (e, count, errors, hits) in [
        ("healthz", "1", "0", "0"),
        ("measure", "4", "1", "2"),
        ("session", "1", "0", "0"),
        ("session_etc", "2", "1", "0"),
        ("session_id", "1", "0", "0"),
    ] {
        let got = [
            value(format!("endpoints.{e}.count")),
            value(format!("endpoints.{e}.errors")),
            value(format!("endpoints.{e}.cache_hits")),
        ];
        assert_eq!(got, [count, errors, hits], "endpoint {e}");
    }

    // (c) hc_serve_* samples (names and labels), exemplar trailers stripped,
    // and one `# TYPE` line per family.
    let (ps, _ph, prom) = get(addr, "/metrics?format=prometheus");
    assert_eq!(ps, 200);
    let mut typed: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .filter(|n| n.starts_with("hc_serve_"))
        .collect();
    let typed_count = typed.len();
    typed.sort_unstable();
    typed.dedup();
    assert_eq!(typed.len(), typed_count, "a family typed twice:\n{prom}");
    let samples: std::collections::BTreeSet<String> = prom
        .lines()
        .filter(|l| l.starts_with("hc_serve_"))
        .map(|l| l.split(" # ").next().unwrap())
        .map(|l| l.rsplit_once(' ').expect("sample value").0.to_string())
        .collect();
    let mut expect = std::collections::BTreeSet::new();
    let endpoints = [
        "healthz",
        "measure",
        "metrics",
        "session",
        "session_etc",
        "session_id",
    ];
    for e in endpoints {
        for family in ["requests_total", "errors_total", "cache_hits_total"] {
            expect.insert(format!("hc_serve_{family}{{endpoint=\"{e}\"}}"));
        }
        for family in ["latency_us", "service_us"] {
            let les = (0..23)
                .map(|i| (1u64 << i).to_string())
                .chain(["+Inf".to_string()]);
            for le in les {
                expect.insert(format!(
                    "hc_serve_{family}_bucket{{endpoint=\"{e}\",le=\"{le}\"}}"
                ));
            }
            expect.insert(format!("hc_serve_{family}_sum{{endpoint=\"{e}\"}}"));
            expect.insert(format!("hc_serve_{family}_count{{endpoint=\"{e}\"}}"));
        }
    }
    for scalar in [
        "uptime_seconds",
        "requests_in_flight",
        "pool_workers",
        "pool_queued",
        "pool_completed_total",
        "pool_shed_total",
        "pool_job_panics_total",
        "pool_worker_respawns_total",
        "pool_worker_scale_up_total",
        "pool_worker_scale_down_total",
        "overload_state{state=\"ok\"}",
        "overload_state{state=\"brownout\"}",
        "overload_state{state=\"shedding\"}",
        "overload_queue_delay_smoothed_us",
        "overload_target_queue_delay_ms",
        "overload_retry_after_seconds",
        "overload_shed_bulk_total",
        "overload_shed_interactive_total",
        "overload_brownout_entered_total",
        "overload_shedding_entered_total",
        "connections_open",
        "connections_accepted_total",
        "keepalive_requests_total",
        "idle_timeouts_total",
        "result_cache_entries",
        "result_cache_hits_total",
        "result_cache_misses_total",
        "result_cache_evictions_total",
        "panics_total",
        "deadline_exceeded_total",
        "recorder_recorded_total",
        "recorder_survivors_pinned_total",
        "sessions_active",
        "sessions_created_total",
        "sessions_deleted_total",
        "sessions_expired_total",
        "sessions_evicted_total",
        "sessions_patches_total",
        "sessions_watches_total",
        "sessions_watch_wakes_total",
        "sessions_conflicts_total",
        "sessions_drains_total",
        "sessions_warm_fallbacks_total",
        "sessions_recomputes_total",
        "sessions_recomputes_warm_total",
        "slo_objective{slo=\"availability\"}",
        "slo_error_rate{slo=\"availability\",window=\"short\"}",
        "slo_error_rate{slo=\"availability\",window=\"mid\"}",
        "slo_error_rate{slo=\"availability\",window=\"long\"}",
        "slo_burn_rate{slo=\"availability\",window=\"short\"}",
        "slo_burn_rate{slo=\"availability\",window=\"mid\"}",
        "slo_burn_rate{slo=\"availability\",window=\"long\"}",
        "slo_alert_firing{slo=\"availability\",alert=\"fast\"}",
        "slo_alert_firing{slo=\"availability\",alert=\"slow\"}",
        "slo_degraded",
    ] {
        expect.insert(format!("hc_serve_{scalar}"));
    }
    let missing: Vec<_> = expect.difference(&samples).collect();
    let extra: Vec<_> = samples.difference(&expect).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:?}, unexpected {extra:?}"
    );
    // Every sampled family carries its one `# TYPE` line.
    for s in &samples {
        let name = s.split('{').next().unwrap();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|f| typed.binary_search(f).is_ok())
            })
            .unwrap_or(name);
        assert!(typed.binary_search(&family).is_ok(), "{s} untyped");
    }

    handle.shutdown();
    handle.join();
}
