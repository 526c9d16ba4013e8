//! End-to-end tests driving a real `hc-serve` server over TCP sockets from
//! multiple client threads: correctness under concurrency, cache behaviour
//! observable via `/metrics`, load shedding under a burst, batch fan-out, and
//! graceful shutdown.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hc_serve::{start, Config};

/// Minimal HTTP/1.1 client for one request/response exchange.
fn raw_request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
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
    raw_request(addr, "POST", target, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    raw_request(addr, "GET", target, "")
}

fn test_config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 32,
        cache_entries: 64,
        ..Config::default()
    }
}

/// A small family of distinct matrices with library-computed expected reports.
fn matrix(i: usize) -> String {
    format!(
        "task,m1,m2,m3\nt1,{},8.0,4.0\nt2,6.0,{},5.0\nt3,4.0,4.0,{}\n",
        2.0 + i as f64,
        3.0 + i as f64 * 0.5,
        4.0 + i as f64 * 0.25,
    )
}

/// What the server must answer for `matrix(i)`, computed via the library.
fn expected_measure_json(i: usize) -> String {
    let etc = hc_spec::csv::from_csv(&matrix(i)).unwrap();
    let ecs = etc.to_ecs();
    let w = hc_core::weights::Weights::uniform(ecs.num_tasks(), ecs.num_machines());
    let opts = hc_core::standard::TmaOptions::default();
    let r = hc_core::report::characterize_with(&ecs, &w, &opts).unwrap();
    r.to_json(ecs.task_names(), ecs.machine_names())
}

#[test]
fn concurrent_clients_get_correct_reports() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    const CLIENTS: usize = 10;
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let (status, _head, body) = post(addr, "/measure", &matrix(i));
                    (i, status, body)
                })
            })
            .collect();
        for t in threads {
            let (i, status, body) = t.join().expect("client thread");
            assert_eq!(status, 200, "client {i}: {body}");
            assert_eq!(body, expected_measure_json(i), "client {i}");
        }
    });

    handle.shutdown();
    handle.join();
}

#[test]
fn repeated_request_hits_cache_observable_in_metrics() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let m = matrix(0);

    let (s1, head1, body1) = post(addr, "/measure", &m);
    assert_eq!(s1, 200);
    assert!(head1.contains("X-Cache: miss"), "{head1}");

    let (s2, head2, body2) = post(addr, "/measure", &m);
    assert_eq!(s2, 200);
    assert!(head2.contains("X-Cache: hit"), "{head2}");
    assert_eq!(body1, body2);

    // Different options must NOT share the cached entry.
    let (s3, head3, _b3) = post(addr, "/measure?zero-policy=limit", &m);
    assert_eq!(s3, 200);
    assert!(head3.contains("X-Cache: miss"), "{head3}");

    let (sm, _hm, metrics) = get(addr, "/metrics");
    assert_eq!(sm, 200);
    assert!(
        metrics.contains("\"cache_hits\":1"),
        "measure endpoint should record exactly one cache hit: {metrics}"
    );
    assert!(metrics.contains("\"hits\":1"), "{metrics}");
    assert!(metrics.contains("\"entries\":2"), "{metrics}");
    assert!(metrics.contains("\"requests_total\":"), "{metrics}");
    assert!(metrics.contains("le_"), "histogram buckets: {metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn overload_burst_sheds_503_with_retry_after_then_recovers() {
    // `target_queue_delay_ms: 0` pins the legacy fixed-depth admission path:
    // recovery is instant once the queue frees. The adaptive ladder keeps
    // shedding through its recovery dwell instead — that choreography is
    // covered by `tests/chaos.rs::overload_brownout_drill_*`.
    let cfg = Config {
        workers: 1,
        queue_depth: 1,
        target_queue_delay_ms: 0,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    // Occupy the only worker...
    let blocker = std::thread::spawn(move || get(addr, "/sleepz?ms=1500"));
    std::thread::sleep(Duration::from_millis(300));
    // ...fill the queue (depth 1)...
    let queued = std::thread::spawn(move || post(addr, "/measure", &matrix(1)));
    std::thread::sleep(Duration::from_millis(300));

    // ...now every further connection must be shed, not buffered or crashed.
    for attempt in 0..3 {
        let (status, head, body) = post(addr, "/measure", &matrix(2));
        assert_eq!(status, 503, "attempt {attempt}: {body}");
        assert!(head.contains("Retry-After:"), "attempt {attempt}: {head}");
        assert!(body.contains("overloaded"), "{body}");
    }

    // Once the worker frees up, the queued request and new ones succeed.
    let (bs, _, bb) = blocker.join().expect("blocker thread");
    assert_eq!(bs, 200, "{bb}");
    let (qs, _, qb) = queued.join().expect("queued thread");
    assert_eq!(qs, 200, "{qb}");
    let (rs, _, rb) = post(addr, "/measure", &matrix(2));
    assert_eq!(rs, 200, "after recovery: {rb}");
    assert_eq!(rb, expected_measure_json(2));

    assert!(handle.state().pool.shed_total() >= 3);
    handle.shutdown();
    handle.join();
}

#[test]
fn batch_fans_out_and_warms_the_measure_cache() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let body = format!("{}---\n{}---\n{}", matrix(3), matrix(4), matrix(3));
    let (status, _head, resp) = post(addr, "/batch", &body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"count\":3"), "{resp}");
    for i in [3, 4] {
        assert!(
            resp.contains(&expected_measure_json(i)),
            "batch must embed the exact measure report for matrix {i}: {resp}"
        );
    }

    // The duplicated part and later /measure calls reuse the cache.
    let (s2, head2, _b2) = post(addr, "/measure", &matrix(4));
    assert_eq!(s2, 200);
    assert!(head2.contains("X-Cache: hit"), "{head2}");

    // A batch with a broken part still answers 200 with a per-part error.
    let mixed = format!("{}---\nnot,a\nvalid_matrix\n", matrix(5));
    let (s3, _h3, b3) = post(addr, "/batch", &mixed);
    assert_eq!(s3, 200, "{b3}");
    assert!(b3.contains("\"error\":"), "{b3}");
    assert!(b3.contains(&expected_measure_json(5)), "{b3}");

    // Empty batches are a client error.
    let (s4, _h4, _b4) = post(addr, "/batch", "---\n");
    assert_eq!(s4, 400);

    handle.shutdown();
    handle.join();
}

#[test]
fn other_endpoints_and_error_mapping() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let (s, _h, b) = post(addr, "/structure", &matrix(0));
    assert_eq!(s, 200);
    assert!(b.contains("\"has_total_support\":true"), "{b}");

    let (s, h, b) = post(
        addr,
        "/generate?mode=targeted&tasks=6&machines=4&mph=0.7&tdh=0.6&tma=0.2&seed=3",
        "",
    );
    assert_eq!(s, 200, "{b}");
    assert!(h.contains("Content-Type: text/csv"), "{h}");
    let (sm, _hm, mb) = post(addr, "/measure", &b);
    assert_eq!(sm, 200);
    assert!(mb.contains("\"mph\":0.7"), "{mb}");

    let (s, _h, b) = post(addr, "/schedule?heuristic=min-min", &matrix(0));
    assert_eq!(s, 200);
    assert!(b.contains("\"Min-Min\":"), "{b}");
    assert!(b.contains("\"assignment\":{"), "{b}");

    let (s, _h, _b) = get(addr, "/healthz");
    assert_eq!(s, 200);
    let (s, _h, _b) = get(addr, "/no-such-endpoint");
    assert_eq!(s, 404);
    let (s, _h, _b) = get(addr, "/measure");
    assert_eq!(s, 405);
    let (s, _h, _b) = post(addr, "/measure", "not a matrix");
    assert_eq!(s, 400);
    let (s, _h, _b) = post(addr, "/measure?frobnicate=1", &matrix(0));
    assert_eq!(s, 400);
    let (s, _h, b) = post(addr, "/measure", "");
    assert_eq!(s, 400);
    assert!(b.contains("empty body"), "{b}");

    handle.shutdown();
    handle.join();
}

#[test]
fn quitquitquit_drains_gracefully() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let (s, _h, _b) = post(addr, "/measure", &matrix(6));
    assert_eq!(s, 200);

    let (s, _h, b) = get(addr, "/quitquitquit");
    assert_eq!(s, 200);
    assert!(b.contains("\"shutting_down\":true"), "{b}");

    // join() returns only after the accept loop exited and the pool drained.
    handle.join();

    // The listener is gone: new connections are refused (or time out).
    std::thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// Extracts the `X-Request-Id` header value from a response head.
fn request_id_of(head: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("x-request-id")
            .then(|| value.trim().to_string())
    })
}

#[test]
fn request_id_echoed_on_every_response() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    // A client-supplied id comes back verbatim.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = matrix(90);
    let req = format!(
        "POST /measure HTTP/1.1\r\nHost: t\r\nX-Request-Id: trace-me-42\r\n\
         Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    let head = text.split_once("\r\n\r\n").expect("head").0;
    assert_eq!(request_id_of(head).as_deref(), Some("trace-me-42"));

    // Without one, the server generates a unique id per response.
    let (s1, h1, _) = get(addr, "/healthz");
    let (s2, h2, _) = get(addr, "/healthz");
    assert_eq!((s1, s2), (200, 200));
    let id1 = request_id_of(&h1).expect("generated id");
    let id2 = request_id_of(&h2).expect("generated id");
    assert!(!id1.is_empty());
    assert_ne!(id1, id2, "ids must be unique per request");

    // Error responses carry an id too.
    let (s, h, _) = get(addr, "/no-such-endpoint");
    assert_eq!(s, 404);
    assert!(request_id_of(&h).is_some());

    handle.shutdown();
    handle.join();
}

#[test]
fn metrics_merge_library_registry_and_report_build_info() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    // One measurement drives the instrumented library paths (Sinkhorn, SVD).
    let (s, _h, _b) = post(addr, "/measure", &matrix(91));
    assert_eq!(s, 200);

    let (s, _h, m) = get(addr, "/metrics");
    assert_eq!(s, 200);
    // Satellite fields: uptime, build identity, in-flight gauge, and the
    // queue-wait-inclusive vs service-only histogram split.
    assert!(m.contains("\"uptime_seconds\":"), "{m}");
    assert!(m.contains("\"build\":{\"version\":"), "{m}");
    assert!(m.contains("\"git_describe\":"), "{m}");
    let frame = format!("\"linalg_frame\":\"{}\"", hc_linalg::isa::name());
    assert!(m.contains(&frame), "{m}");
    assert!(m.contains("\"requests_in_flight\":"), "{m}");
    assert!(m.contains("\"latency_histogram_us\""), "{m}");
    assert!(m.contains("\"service_histogram_us\""), "{m}");
    // The hc-obs registry is merged in: library counters recorded while
    // serving /measure must be visible in the same scrape.
    assert!(m.contains("\"library\":{"), "{m}");
    assert!(m.contains("\"sinkhorn_balance_total\":"), "{m}");
    assert!(m.contains("\"core_characterize_total\":"), "{m}");
    assert!(m.contains("\"sinkhorn_balance_iterations\":{"), "{m}");

    // /healthz reports the same identity fields.
    let (s, _h, hz) = get(addr, "/healthz");
    assert_eq!(s, 200);
    assert!(hz.contains("\"ok\":true"), "{hz}");
    assert!(hz.contains("\"uptime_seconds\":"), "{hz}");
    assert!(hz.contains("\"build\":{\"version\":"), "{hz}");
    assert!(hz.contains(&frame), "{hz}");
    assert!(hz.contains("\"requests_in_flight\":"), "{hz}");

    handle.shutdown();
    handle.join();
}

/// Every endpoint's request count, read from the `endpoints` object of the
/// JSON `/metrics` document (the scrape itself is counted after it renders).
fn endpoint_counts(addr: SocketAddr) -> BTreeMap<String, u64> {
    let (status, _h, doc) = get(addr, "/metrics");
    assert_eq!(status, 200, "{doc}");
    let start = doc.find("\"endpoints\":{").expect("endpoints object") + "\"endpoints\":".len();
    let mut depth = 0;
    let len = doc[start..]
        .find(|c| {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            depth == 0
        })
        .expect("endpoints object closes");
    let endpoints = &doc[start..=start + len];
    let mut counts = BTreeMap::new();
    for (at, marker) in endpoints.match_indices("\":{\"count\":") {
        let key = &endpoints[endpoints[..at].rfind('"').expect("key opens") + 1..at];
        let count: String = endpoints[at + marker.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        counts.insert(key.to_string(), count.parse().expect("numeric count"));
    }
    counts
}

/// Routing, pinned per request: every endpoint path, and `/session/`,
/// `/session/x/etc`, `/session/x/watch`, `/debug/requests/x` and an unknown
/// path, each with its own method and with a wrong one. For each answer: its
/// status, its body if it is a 404 or 405, whether it says
/// `Cache-Control: no-store`, and the one `/metrics` endpoint that counted
/// it. `GET /debug/profile`'s status depends on the process-wide profiler,
/// so only its routing is checked; `/quitquitquit` would end the server.
#[test]
fn routing_is_pinned_per_endpoint_and_method() {
    const NO_STORE: [&str; 10] = [
        "metrics",
        "healthz",
        "debug_requests",
        "debug_request",
        "debug_profile",
        "debug_timeseries",
        "session",
        "session_id",
        "session_etc",
        "session_watch",
    ];
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    // `spec` is `METHOD TARGET STATUS ENDPOINT`; a STATUS of `-` is not checked.
    let check = |spec: &str, body: &str, error: &str| {
        let [method, target, status, endpoint] = spec.split(' ').collect::<Vec<_>>()[..] else {
            panic!("bad case {spec:?}");
        };
        let before = endpoint_counts(addr);
        let (got, head, got_body) = raw_request(addr, method, target, body);
        let mut after = endpoint_counts(addr);
        let case = format!("{spec}: {head}\n{got_body}");
        if status != "-" {
            assert_eq!(got.to_string(), status, "{case}");
            if matches!(got, 404 | 405) {
                assert_eq!(got_body, error, "{case}");
            }
        }
        let no_store = head.contains("\r\nCache-Control: no-store");
        assert_eq!(no_store, NO_STORE.contains(&endpoint), "{case}");
        // The `before` scrape is counted once it has rendered.
        *after.get_mut("metrics").expect("metrics counted") -= 1;
        let moved: Vec<(&str, u64)> = after
            .iter()
            .map(|(key, n)| (key.as_str(), n - before.get(key).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(moved, [(endpoint, 1)], "{case}");
        got_body
    };
    let m = matrix(0);
    let not_found = r#"{"error":"no such session (unknown id, expired, or deleted)","code":"session_not_found"}"#;

    check("POST /measure 200 measure", &m, "");
    check(
        "GET /measure 405 measure",
        "",
        r#"{"error":"/measure requires POST"}"#,
    );
    check("POST /structure 200 structure", &m, "");
    check(
        "GET /structure 405 structure",
        "",
        r#"{"error":"/structure requires POST"}"#,
    );
    check(
        "POST /generate?mode=range&tasks=2&machines=2 200 generate",
        "",
        "",
    );
    check(
        "GET /generate 405 generate",
        "",
        r#"{"error":"/generate requires POST"}"#,
    );
    check("POST /schedule?heuristic=min-min 200 schedule", &m, "");
    check(
        "GET /schedule 405 schedule",
        "",
        r#"{"error":"/schedule requires POST"}"#,
    );
    check("POST /batch 200 batch", &m, "");
    check(
        "GET /batch 405 batch",
        "",
        r#"{"error":"/batch requires POST"}"#,
    );

    let created = check("POST /session 200 session", &m, "");
    let id = created
        .split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("session id");
    check(
        "GET /session 405 session",
        "",
        r#"{"error":"/session requires POST"}"#,
    );
    check(&format!("GET /session/{id} 200 session_id"), "", "");
    let refused = r#"{"error":"/session/x requires GET or DELETE"}"#;
    check("PATCH /session/x 405 session_id", "", refused);
    check("GET /session/ 404 session_id", "", not_found);
    let refused = r#"{"error":"/session/ requires GET or DELETE"}"#;
    check("POST /session/ 405 session_id", "", refused);
    let edit = "cell,t1,m1,2.5\n";
    check(
        &format!("PATCH /session/{id}/etc 200 session_etc"),
        edit,
        "",
    );
    check("PATCH /session/x/etc 404 session_etc", edit, not_found);
    let refused = r#"{"error":"/session/x/etc requires PATCH"}"#;
    check("GET /session/x/etc 405 session_etc", "", refused);
    check(
        &format!("GET /session/{id}/watch?version=1 200 session_watch"),
        "",
        "",
    );
    check("GET /session/x/watch 404 session_watch", "", not_found);
    let refused = r#"{"error":"/session/x/watch requires GET"}"#;
    check("POST /session/x/watch 405 session_watch", "", refused);
    check(&format!("DELETE /session/{id} 200 session_id"), "", "");

    check("GET /metrics 200 metrics", "", "");
    check("GET /metrics?format=prometheus 200 metrics", "", "");
    check(
        "POST /metrics 405 metrics",
        "",
        r#"{"error":"/metrics requires GET"}"#,
    );
    check("GET /healthz 200 healthz", "", "");
    check("POST /healthz 200 healthz", "", "");
    check("GET /debug/requests 200 debug_requests", "", "");
    let refused = r#"{"error":"/debug/requests requires GET"}"#;
    check("POST /debug/requests 405 debug_requests", "", refused);
    let unrecorded = r#"{"error":"request x is not in the flight recorder","code":"not_recorded"}"#;
    check("GET /debug/requests/x 404 debug_request", "", unrecorded);
    let refused = r#"{"error":"/debug/requests/x requires GET"}"#;
    check("POST /debug/requests/x 405 debug_request", "", refused);
    check("GET /debug/profile - debug_profile", "", "");
    let refused = r#"{"error":"/debug/profile requires GET"}"#;
    check("POST /debug/profile 405 debug_profile", "", refused);
    check("GET /debug/timeseries 200 debug_timeseries", "", "");
    let refused = r#"{"error":"/debug/timeseries requires GET"}"#;
    check("POST /debug/timeseries 405 debug_timeseries", "", refused);
    check("GET /sleepz?ms=0 200 sleepz", "", "");
    check("POST /sleepz?ms=0 200 sleepz", "", "");
    let unknown = r#"{"error":"no such endpoint /nope"}"#;
    check("GET /nope 404 other", "", unknown);
    check("POST /nope 404 other", "", unknown);

    handle.shutdown();
    handle.join();
}
