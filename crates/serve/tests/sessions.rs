//! Socket-level tests for the live-session subsystem: lifecycle and the
//! shared measure-body golden, reads answering with the bytes their
//! version's write answered, TTL expiry, LRU eviction under
//! `--max-sessions`, `If-Match` optimistic concurrency, version monotonicity
//! across panic-respawned workers, and watch/drain semantics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hc_serve::{failpoints, start, Config};

/// Failpoints are process-global, so a test that arms them must not overlap
/// with any other server in this binary: every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

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
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: sessions\r\n");
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

fn patch(addr: SocketAddr, target: &str, body: &str) -> (u16, String, String) {
    request_with_headers(addr, "PATCH", target, &[], body)
}

fn test_config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 64,
        cache_entries: 64,
        ..Config::default()
    }
}

const SAMPLE: &str = "task,m1,m2,m3\nt1,2.0,8.0,4.0\nt2,6.0,3.0,5.0\nt3,4.0,4.0,4.5\n";

/// Extracts the `"id"` string field from a session response body.
fn session_id(body: &str) -> String {
    let at = body.find("\"id\":\"").expect("id field") + 6;
    body[at..].chars().take_while(|c| *c != '"').collect()
}

/// Extracts `"version":<u64>` from a session response body.
fn version_of(body: &str) -> u64 {
    let at = body.find("\"version\":").expect("version field") + 10;
    body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("version number")
}

/// Extracts the raw `"measures":{…}` object from a session response body by
/// brace matching (the builder emits compact JSON with no nested strings
/// containing braces — names are sanitized CSV tokens).
fn measures_object(body: &str) -> String {
    let start = body.find("\"measures\":{").expect("measures field") + 11;
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes[start..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return body[start..=start + i].to_string();
                }
            }
            _ => {}
        }
    }
    panic!("unterminated measures object in {body}");
}

/// Lifecycle smoke + the shared-body golden: the session's `measures` object
/// must be byte-for-byte the `/measure` response for the same matrix, and
/// create → 3 patches → watch → delete must walk versions 1..=4.
#[test]
fn session_lifecycle_and_measure_body_golden() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    // Golden: one shared body-builder for /measure, /batch items, sessions.
    let (ms, _mh, measure_body) = post(addr, "/measure", SAMPLE);
    assert_eq!(ms, 200);
    let (cs, _ch, created) = post(addr, "/session", SAMPLE);
    assert_eq!(cs, 200, "{created}");
    assert_eq!(version_of(&created), 1);
    assert_eq!(
        measures_object(&created),
        measure_body,
        "session measures must render byte-for-byte like POST /measure"
    );
    let id = session_id(&created);

    // Three single-cell edits (ETC seconds, name- and index-addressed).
    let mut versions = vec![1];
    for (i, edit) in [
        "cell,t1,m2,7.5\n",
        "cell,2,3,4.75\n",
        "# tweak\ncell,t3,m1,3.9\n",
    ]
    .iter()
    .enumerate()
    {
        let (s, _h, b) = patch(addr, &format!("/session/{id}/etc"), edit);
        assert_eq!(s, 200, "patch {i}: {b}");
        versions.push(version_of(&b));
        assert!(b.contains("\"recompute\":{\"warm\":"), "{b}");
    }
    assert_eq!(versions, vec![1, 2, 3, 4], "versions must be monotonic");

    // GET sees the latest state.
    let (gs, _gh, got) = get(addr, &format!("/session/{id}"));
    assert_eq!(gs, 200);
    assert_eq!(version_of(&got), 4);

    // A watch behind the watermark returns immediately with all three deltas.
    let (ws, _wh, watched) = get(addr, &format!("/session/{id}/watch?version=1"));
    assert_eq!(ws, 200, "{watched}");
    assert_eq!(version_of(&watched), 4);
    assert!(watched.contains("\"timed_out\":false"), "{watched}");
    for v in [2, 3, 4] {
        assert!(
            watched.contains(&format!("{{\"version\":{v},")),
            "delta for version {v} missing: {watched}"
        );
    }
    // The lifecycle moves the process-wide session counters in `/metrics`.
    let (_s, _h, metrics) = get(addr, "/metrics");
    assert!(sessions_field(&metrics, "active") >= 1, "{metrics}");
    assert!(sessions_field(&metrics, "created_total") >= 1, "{metrics}");
    assert!(sessions_field(&metrics, "patches_total") >= 3, "{metrics}");
    assert!(
        sessions_field(&metrics, "watch_wakes_total") >= 1,
        "{metrics}"
    );

    // Delete, then every surface answers the typed 404.
    let (ds, _dh, deleted) =
        request_with_headers(addr, "DELETE", &format!("/session/{id}"), &[], "");
    assert_eq!(ds, 200);
    assert!(deleted.contains("\"deleted\":true"), "{deleted}");
    for (m, path) in [
        ("GET", format!("/session/{id}")),
        ("DELETE", format!("/session/{id}")),
        ("PATCH", format!("/session/{id}/etc")),
        ("GET", format!("/session/{id}/watch?version=0")),
    ] {
        let body = if m == "PATCH" { "cell,t1,m1,2.0\n" } else { "" };
        let (s, _h, b) = request_with_headers(addr, m, &path, &[], body);
        assert_eq!(s, 404, "{m} {path}: {b}");
        assert!(b.contains("session_not_found"), "{b}");
    }
    let (_s, _h, metrics) = get(addr, "/metrics");
    assert!(sessions_field(&metrics, "deleted_total") >= 1, "{metrics}");

    handle.shutdown();
    handle.join();
}

/// Warm starting is observable on the wire: a single-cell patch reports
/// `"warm":true` with strictly fewer Sinkhorn iterations than the cold
/// create. Only Sinkhorn starts warm, so the SVD's count is not compared.
#[test]
fn patch_recomputes_warm_with_fewer_iterations() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let mut csv = String::from("task");
    for m in 0..24 {
        csv.push_str(&format!(",m{m}"));
    }
    csv.push('\n');
    for t in 0..24 {
        csv.push_str(&format!("t{t}"));
        for m in 0..24 {
            csv.push_str(&format!(",{}.25", 1 + (t * 31 + m * 17) % 97));
        }
        csv.push('\n');
    }
    let (cs, _ch, created) = post(addr, "/session", &csv);
    assert_eq!(cs, 200, "{created}");
    let id = session_id(&created);
    let iters = |body: &str, key: &str| -> u64 {
        let at = body.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        body[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let cold = iters(&created, "sinkhorn_iterations");
    assert!(created.contains("\"warm\":false"), "{created}");

    let (ps, _ph, patched) = patch(addr, &format!("/session/{id}/etc"), "cell,t3,m5,9.5\n");
    assert_eq!(ps, 200, "{patched}");
    assert!(patched.contains("\"warm\":true"), "{patched}");
    assert!(patched.contains("\"fallback\":false"), "{patched}");
    let warm = iters(&patched, "sinkhorn_iterations");
    assert!(
        warm < cold,
        "warm patch must need fewer Sinkhorn iterations ({warm} vs {cold})"
    );

    handle.shutdown();
    handle.join();
}

/// `If-Match` gives optimistic concurrency: matching versions pass, stale
/// versions answer a typed 409 with the current version, and the state is
/// untouched by the refused write.
#[test]
fn if_match_conflicts_are_typed_409s() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    // Matching precondition applies.
    let (s, _h, b) = request_with_headers(
        addr,
        "PATCH",
        &format!("/session/{id}/etc"),
        &[("If-Match", "1")],
        "cell,t1,m1,3.0\n",
    );
    assert_eq!(s, 200, "{b}");
    assert_eq!(version_of(&b), 2);

    // Stale precondition: typed 409 carrying the current version.
    let (s, head, b) = request_with_headers(
        addr,
        "PATCH",
        &format!("/session/{id}/etc"),
        &[("If-Match", "1")],
        "cell,t1,m1,4.0\n",
    );
    assert_eq!(s, 409, "{b}");
    assert!(head.starts_with("HTTP/1.1 409 Conflict"), "{head}");
    assert!(b.contains("\"code\":\"version_conflict\""), "{b}");
    assert!(b.contains("\"current_version\":2"), "{b}");
    let (_s, _h, got) = get(addr, &format!("/session/{id}"));
    assert_eq!(version_of(&got), 2, "refused write must not advance state");

    // `*` and absent preconditions don't gate.
    let (s, _h, b) = request_with_headers(
        addr,
        "PATCH",
        &format!("/session/{id}/etc"),
        &[("If-Match", "*")],
        "cell,t1,m1,5.0\n",
    );
    assert_eq!(s, 200, "{b}");
    assert_eq!(version_of(&b), 3);
    let (_s, _h, metrics) = get(addr, "/metrics");
    assert!(
        sessions_field(&metrics, "conflicts_total") >= 1,
        "{metrics}"
    );

    handle.shutdown();
    handle.join();
}

/// A read answers with the bytes the write of its version answered: the
/// create and four patches, each read back twice, byte for byte. Refused
/// writes (a stale `If-Match`, a bad edit line) leave the read bytes as
/// they were.
#[test]
fn reads_answer_the_bytes_their_version_was_written_with() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (s, _h, mut written) = post(addr, "/session", SAMPLE);
    assert_eq!(s, 200, "{written}");
    let id = session_id(&written);
    let etc = format!("/session/{id}/etc");
    let read = || {
        let (s, _h, b) = get(addr, &format!("/session/{id}"));
        assert_eq!(s, 200, "{b}");
        b
    };
    let edits = [
        "cell,t1,m2,7.5\n",
        "row,t2,5,3.5,5\n",
        "col,m3,4,4.5,4.25\n",
        "cell,3,1,3.9\n",
    ];
    for version in 1..=5u64 {
        assert_eq!(version_of(&written), version, "{written}");
        for _ in 0..2 {
            assert_eq!(read(), written, "GET of version {version}");
        }
        let stale = (version + 1).to_string();
        let (s, _h, b) = request_with_headers(
            addr,
            "PATCH",
            &etc,
            &[("If-Match", &stale)],
            "cell,t1,m1,2\n",
        );
        assert_eq!(s, 409, "{b}");
        let (s, _h, b) = patch(addr, &etc, "cell,t1,m1,2\ncell,t1,nope,2\n");
        assert_eq!(s, 400, "{b}");
        assert!(b.contains("edit line 2"), "{b}");
        assert_eq!(read(), written, "refused writes leave version {version}");
        if let Some(edit) = edits.get(version as usize - 1) {
            let current = version.to_string();
            let (s, _h, b) =
                request_with_headers(addr, "PATCH", &etc, &[("If-Match", &current)], edit);
            assert_eq!(s, 200, "{b}");
            written = b;
        }
    }

    handle.shutdown();
    handle.join();
}

/// Idle sessions expire after `--session-ttl-s`.
#[test]
fn ttl_expires_idle_sessions() {
    let _serial = serial();
    let handle = start(Config {
        session_ttl_s: 1,
        ..test_config()
    })
    .expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);
    let (s, _h, _b) = get(addr, &format!("/session/{id}"));
    assert_eq!(s, 200, "fresh session must be reachable");
    std::thread::sleep(Duration::from_millis(1400));
    let (s, _h, b) = get(addr, &format!("/session/{id}"));
    assert_eq!(s, 404, "idle session must expire: {b}");
    assert!(b.contains("session_not_found"), "{b}");
    handle.shutdown();
    handle.join();
}

/// Creating past `--max-sessions` evicts the least-recently-used session.
#[test]
fn lru_eviction_under_max_sessions() {
    let _serial = serial();
    let handle = start(Config {
        max_sessions: 2,
        ..test_config()
    })
    .expect("start server");
    let addr = handle.local_addr();

    let (_s, _h, a) = post(addr, "/session", SAMPLE);
    let a = session_id(&a);
    std::thread::sleep(Duration::from_millis(5));
    let (_s, _h, b) = post(addr, "/session", SAMPLE);
    let b = session_id(&b);
    std::thread::sleep(Duration::from_millis(5));
    // Touch `a`; `b` becomes LRU and must be the one evicted by `c`.
    let (s, _h, _body) = get(addr, &format!("/session/{a}"));
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(5));
    let (s, _h, c) = post(addr, "/session", SAMPLE);
    assert_eq!(s, 200, "{c}");
    let c = session_id(&c);

    let (s, _h, _body) = get(addr, &format!("/session/{a}"));
    assert_eq!(s, 200, "recently used session must survive");
    let (s, _h, body) = get(addr, &format!("/session/{b}"));
    assert_eq!(s, 404, "LRU session must be evicted: {body}");
    let (s, _h, _body) = get(addr, &format!("/session/{c}"));
    assert_eq!(s, 200);

    handle.shutdown();
    handle.join();
}

/// Session versions are monotonic across panic-respawned workers: the store
/// outlives any worker, so killing workers between requests never resets or
/// skips a version.
#[test]
fn versions_monotonic_across_worker_respawns() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    // Kill a worker after every 2nd response while patching.
    failpoints::arm("worker.idle:panic:2");
    let mut expected = 1;
    for i in 0..8 {
        let (s, _h, b) = patch(
            addr,
            &format!("/session/{id}/etc"),
            &format!("cell,t1,m1,{}.5\n", 2 + i),
        );
        assert_eq!(s, 200, "patch {i}: {b}");
        expected += 1;
        assert_eq!(
            version_of(&b),
            expected,
            "patch {i} must advance the version by exactly one"
        );
    }
    failpoints::reset();
    assert!(
        handle.state().pool.worker_respawns_total() >= 1,
        "the worker.idle failpoint must have killed at least one worker"
    );

    handle.shutdown();
    handle.join();
}

/// A panic injected into the warm Sinkhorn path is contained as a silent
/// cold fallback — the request still answers `200`, `"fallback":true` is
/// reported, and `session_warm_fallback_total` ticks in `/metrics`.
#[test]
fn chaos_failpoint_forces_warm_fallback() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    // Arm after the cold create so the hit counter starts at zero. Warm
    // attempts fire `sinkhorn.iteration` a few times per patch, so hit 200
    // is guaranteed to land inside some warm attempt; the fallback's cold
    // solve stays well short of hit 400 and completes.
    failpoints::arm("sinkhorn.iteration:panic:200");
    let mut fell_back = false;
    for i in 0..250 {
        let (s, _h, b) = patch(
            addr,
            &format!("/session/{id}/etc"),
            &format!("cell,t1,m1,{}.5\n", 2 + i % 6),
        );
        assert_eq!(s, 200, "patch {i} must survive the failpoint: {b}");
        if b.contains("\"fallback\":true") {
            assert!(b.contains("\"warm\":false"), "{b}");
            fell_back = true;
            break;
        }
    }
    failpoints::reset();
    assert!(fell_back, "the armed failpoint never produced a fallback");

    let (_s, _h, metrics) = get(addr, "/metrics");
    let at = metrics
        .find("\"session_warm_fallback_total\":")
        .expect("fallback counter exported");
    let count: u64 = metrics[at + 30..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value");
    assert!(count >= 1, "{metrics}");

    handle.shutdown();
    handle.join();
}

/// A watch with a client deadline times out quietly: `200` with
/// `"timed_out":true` and the unchanged version, never an error.
#[test]
fn watch_times_out_quietly_under_deadline() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    let t0 = Instant::now();
    let (s, _h, b) = request_with_headers(
        addr,
        "GET",
        &format!("/session/{id}/watch?version=1"),
        &[("X-Timeout-Ms", "300")],
        "",
    );
    assert_eq!(s, 200, "{b}");
    assert!(b.contains("\"timed_out\":true"), "{b}");
    assert_eq!(version_of(&b), 1);
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(200) && waited < Duration::from_secs(10),
        "watch must hold roughly the deadline, waited {waited:?}"
    );

    handle.shutdown();
    handle.join();
}

/// A parked watcher is woken by a concurrent patch and receives the delta.
#[test]
fn watch_wakes_on_concurrent_patch() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    let watch_id = id.clone();
    let watcher =
        std::thread::spawn(move || get(addr, &format!("/session/{watch_id}/watch?version=1")));
    std::thread::sleep(Duration::from_millis(150));
    let (s, _h, b) = patch(addr, &format!("/session/{id}/etc"), "cell,t2,m2,9.0\n");
    assert_eq!(s, 200, "{b}");

    let (ws, _wh, wb) = watcher.join().expect("watcher thread");
    assert_eq!(ws, 200, "{wb}");
    assert_eq!(version_of(&wb), 2);
    assert!(wb.contains("\"timed_out\":false"), "{wb}");
    assert!(wb.contains("\"d_tma\":"), "delta fields missing: {wb}");

    handle.shutdown();
    handle.join();
}

/// Graceful drain sheds sessions: `/quitquitquit` flushes parked watchers
/// with a typed `503 draining` immediately instead of holding them (and the
/// shutdown) until their long-poll deadlines.
#[test]
fn drain_flushes_watchers_with_typed_503() {
    let _serial = serial();
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (_s, _h, created) = post(addr, "/session", SAMPLE);
    let id = session_id(&created);

    // Default watch window is 30s; the drain must beat it by a wide margin.
    let watch_id = id.clone();
    let watcher =
        std::thread::spawn(move || get(addr, &format!("/session/{watch_id}/watch?version=1")));
    std::thread::sleep(Duration::from_millis(150));
    let t0 = Instant::now();
    let (qs, _qh, qb) = get(addr, "/quitquitquit");
    assert_eq!(qs, 200, "{qb}");

    let (ws, _wh, wb) = watcher.join().expect("watcher thread");
    assert_eq!(ws, 503, "{wb}");
    assert!(wb.contains("\"code\":\"draining\""), "{wb}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain must flush watchers well before the long-poll deadline"
    );

    handle.join();
}

/// Extracts `"key":<integer>` from within the `"sessions":{…}` object of the
/// JSON `/metrics` document.
fn sessions_field(metrics_json: &str, key: &str) -> i64 {
    let at = metrics_json
        .find("\"sessions\":{")
        .expect("sessions object");
    let obj = &metrics_json[at..];
    let needle = format!("\"{key}\":");
    let start = obj
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {obj}"))
        + needle.len();
    obj[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} numeric in {obj}"))
}
