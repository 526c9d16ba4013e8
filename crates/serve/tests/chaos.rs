//! Chaos and fault-containment tests: a live server under injected panics,
//! poisoned locks, expired deadlines, and oversized inputs must keep
//! answering every connection — never reset one — while `/metrics` accounts
//! for each fault (`panics_total`, `deadline_exceeded_total`,
//! `worker_respawns_total`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hc_serve::{failpoints, start, Config};

/// Failpoints are process-global: every test in this binary serializes on
/// this lock (recovering, so one failed test cannot poison the rest).
static SERIAL: Mutex<()> = Mutex::new(());

/// One HTTP/1.1 exchange with arbitrary extra headers. A connection reset or
/// truncated response panics the test — "the server never drops a connection"
/// is exactly the property under test.
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
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: chaos\r\n");
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
        workers: 4,
        queue_depth: 64,
        cache_entries: 64,
        ..Config::default()
    }
}

/// A small family of distinct well-formed matrices.
fn matrix(i: usize) -> String {
    format!(
        "task,m1,m2,m3\nt1,{},8.0,4.0\nt2,6.0,{},5.0\nt3,4.0,4.0,{}\n",
        2.0 + i as f64,
        3.0 + i as f64 * 0.5,
        4.0 + i as f64 * 0.25,
    )
}

/// Side of the matrix the deadline tests send: characterizing it cannot
/// finish inside their 300–400 ms deadlines. A release build characterizes
/// 512×512 in ~0.13 s, so it needs ~1200×1200 (~1.5 s; a 7 MB body, under
/// the 8 MiB default cap); a debug build takes seconds at 512.
const BIG: usize = if cfg!(debug_assertions) { 512 } else { 1200 };

/// A well-formed `n`×`n` CSV matrix.
fn big_matrix(n: usize) -> String {
    let mut csv = String::with_capacity(n * n * 8);
    csv.push_str("task");
    for m in 0..n {
        csv.push_str(&format!(",m{m}"));
    }
    csv.push('\n');
    for t in 0..n {
        csv.push_str(&format!("t{t}"));
        for m in 0..n {
            csv.push_str(&format!(",{}.5", 1 + (t * 31 + m * 17) % 97));
        }
        csv.push('\n');
    }
    csv
}

/// Extracts `"key":<u64>` from a flat JSON rendering (enough for `/metrics`).
fn metric_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not a number in {json}"))
}

/// The tentpole drill: mixed good/malformed/slow traffic against a server
/// whose workers are being killed (`worker.idle` panics after every 4th
/// response), whose handlers blow up every 7th dispatch, and whose Sinkhorn
/// iterations are slowed down. Every connection must still get an HTTP
/// answer, panicked workers must be respawned, and `/metrics` must account
/// for all of it.
#[test]
fn chaos_mixed_traffic_survives_worker_and_handler_panics() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    failpoints::arm("worker.idle:panic:4,handler:panic:7,sinkhorn.iteration:delay:1");

    let (mut ok, mut client_err, mut server_err) = (0u32, 0u32, 0u32);
    for i in 0..50 {
        // Every 5th request is malformed (a 400), the rest cycle over eight
        // distinct matrices so the cache sees both hits and misses.
        let (status, _head, body) = if i % 5 == 4 {
            post(addr, "/measure", "definitely,not\na_matrix\n")
        } else {
            post(addr, "/measure", &matrix(i % 8))
        };
        match status {
            200 => ok += 1,
            400 => client_err += 1,
            500 => {
                assert!(body.contains("internal_panic"), "{body}");
                server_err += 1;
            }
            other => panic!("request {i}: unexpected status {other}: {body}"),
        }
    }
    failpoints::reset();

    // All 50 connections answered (a reset would have panicked the client
    // above), with every traffic class represented.
    assert_eq!(ok + client_err + server_err, 50);
    assert!(ok > 0, "some requests must succeed");
    assert!(client_err > 0, "malformed requests must keep yielding 400s");
    assert!(server_err > 0, "the handler failpoint must yield some 500s");

    // Workers died and were replaced; the server still answers afterwards.
    assert!(
        handle.state().pool.worker_respawns_total() >= 1,
        "worker.idle panics must trigger respawns"
    );
    let (s, _h, after) = post(addr, "/measure", &matrix(0));
    assert_eq!(s, 200, "{after}");

    // The fault accounting is visible in one /metrics scrape.
    let (sm, _hm, metrics) = get(addr, "/metrics");
    assert_eq!(sm, 200);
    assert!(metric_u64(&metrics, "panics_total") >= 1, "{metrics}");
    assert!(
        metric_u64(&metrics, "worker_respawns_total") >= 1,
        "{metrics}"
    );
    let _ = metric_u64(&metrics, "deadline_exceeded_total"); // present
    assert!(metric_u64(&metrics, "requests_total") >= 50, "{metrics}");

    handle.shutdown();
    handle.join();
}

/// A panic mid-insert poisons the cache lock while it is held; recovery must
/// clear the cache and keep serving rather than propagating the poison.
#[test]
fn cache_insert_panic_poisons_lock_then_recovers() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    // Warm one entry, then panic inside the next insert.
    let (s, _h, _b) = post(addr, "/measure", &matrix(20));
    assert_eq!(s, 200);
    failpoints::arm("cache.insert:panic");
    let (s, _h, body) = post(addr, "/measure", &matrix(21));
    assert_eq!(s, 500, "{body}");
    assert!(body.contains("internal_panic"), "{body}");
    failpoints::reset();

    // The next touch recovers the lock (clearing the cache): both matrices
    // recompute as misses, then cache normally again.
    for i in [20, 21] {
        let (s, head, _b) = post(addr, "/measure", &matrix(i));
        assert_eq!(s, 200);
        assert!(head.contains("X-Cache: miss"), "{head}");
        let (s, head, _b) = post(addr, "/measure", &matrix(i));
        assert_eq!(s, 200);
        assert!(head.contains("X-Cache: hit"), "{head}");
    }
    assert!(handle.state().faults.panics.load(Ordering::Relaxed) >= 1);

    handle.shutdown();
    handle.join();
}

/// `X-Timeout-Ms: 1` on a `BIG`-sided matrix: the deadline expires while the
/// request is in flight, and the typed 504 must come back quickly — bounded
/// independently of matrix size — with partial-progress diagnostics.
#[test]
fn expired_deadline_answers_typed_504_quickly() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let big = big_matrix(BIG);

    let started = Instant::now();
    let (status, _head, body) =
        request_with_headers(addr, "POST", "/measure", &[("X-Timeout-Ms", "1")], &big);
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");
    assert!(body.contains("\"iterations_completed\":"), "{body}");
    assert!(body.contains("\"op\":"), "{body}");
    // Acceptance bound: 50 ms wall clock in release; debug builds (cargo
    // test default) parse and compute ~20× slower, so the bound is looser.
    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(1500)
    } else {
        Duration::from_millis(50)
    };
    assert!(elapsed < bound, "504 took {elapsed:?}, bound {bound:?}");
    assert!(
        handle
            .state()
            .faults
            .deadline_exceeded
            .load(Ordering::Relaxed)
            >= 1
    );

    // A longer-but-still-short deadline dies inside the kernels instead of
    // the parse fast-path; the 504 contract is identical.
    let (status, _head, body) =
        request_with_headers(addr, "POST", "/measure", &[("X-Timeout-Ms", "300")], &big);
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");

    handle.shutdown();
    handle.join();
}

/// `/batch` with one malformed, one good, and one deadline-exceeding part:
/// 200 with three per-item results, and neither failure pollutes the cache.
#[test]
fn batch_isolates_partial_failures_and_keeps_cache_clean() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let good = matrix(30);
    let big = big_matrix(BIG);
    let body = format!("broken,csv\nnope\n---\n{good}---\n{big}");

    let (status, _head, resp) =
        request_with_headers(addr, "POST", "/batch", &[("X-Timeout-Ms", "400")], &body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"count\":3"), "{resp}");
    let results_at = resp.find("\"results\":").expect("results array");
    let results = &resp[results_at..];
    // Input order is preserved: parse error, then a full report, then the
    // deadline-exceeded item with progress diagnostics.
    let parse_err = results.find("\"error\":").expect("malformed item error");
    let report = results.find("\"tma\":").expect("good item report");
    let deadline = results
        .find("\"code\":\"deadline_exceeded\"")
        .expect("deadline item error");
    assert!(parse_err < report && report < deadline, "{resp}");
    assert!(results.contains("\"iterations_completed\":"), "{resp}");

    // The good part warmed the cache; the failed parts did not pollute it.
    let (s, head, _b) = post(addr, "/measure", &good);
    assert_eq!(s, 200);
    assert!(head.contains("X-Cache: hit"), "{head}");
    let (s, head, b) =
        request_with_headers(addr, "POST", "/measure", &[("X-Timeout-Ms", "300")], &big);
    assert_eq!(s, 504, "{b}");
    assert!(
        !head.contains("X-Cache"),
        "a 504 must never be cached: {head}"
    );

    handle.shutdown();
    handle.join();
}

/// The overload drill (DESIGN.md §15): slow the Sinkhorn kernel with a
/// failpoint, drive concurrent interactive (`/measure`) and bulk (`/batch`)
/// traffic at a 1-worker pool with a tight queue-delay target, and require
/// the documented brownout choreography end to end:
///
/// * the ladder leaves `ok` (`brownout_entered_total >= 1`) and bulk traffic
///   sheds first — no interactive request is ever shed before a batch was;
/// * `/healthz` (Critical class) keeps answering 200 throughout the storm;
/// * the pool scales up under queue delay and back down to `--workers-min`
///   once the storm passes, with `worker_scale_up_total` and
///   `worker_scale_down_total` exactly accounting for the round trip;
/// * the ladder recovers to `ok` after the failpoint is lifted.
#[test]
fn overload_brownout_drill_sheds_bulk_first_then_recovers() {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;

    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let cfg = Config {
        workers: 1,
        workers_min: 1,
        workers_max: 4,
        queue_depth: 256,
        target_queue_delay_ms: 5,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    failpoints::arm("sinkhorn.iteration:delay:2");

    let stop = Arc::new(AtomicBool::new(false));
    let serial = Arc::new(AtomicUsize::new(1000));
    let t0 = Instant::now();
    let mut interactive = Vec::new();
    let mut bulk = Vec::new();
    for _ in 0..6 {
        let (stop, serial) = (stop.clone(), serial.clone());
        interactive.push(std::thread::spawn(move || {
            let mut shed_at: Option<Duration> = None;
            let mut ok = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let (status, _h, body) = post(
                    addr,
                    "/measure",
                    &matrix(serial.fetch_add(1, Ordering::Relaxed)),
                );
                match status {
                    200 => ok += 1,
                    503 => {
                        assert!(body.contains("\"code\":\"overloaded\""), "{body}");
                        shed_at.get_or_insert(t0.elapsed());
                    }
                    other => panic!("interactive: unexpected status {other}: {body}"),
                }
            }
            (ok, shed_at)
        }));
    }
    for _ in 0..2 {
        let (stop, serial) = (stop.clone(), serial.clone());
        bulk.push(std::thread::spawn(move || {
            let mut shed_at: Option<Duration> = None;
            let mut ok = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let body = format!(
                    "{}---\n{}---\n{}",
                    matrix(serial.fetch_add(1, Ordering::Relaxed)),
                    matrix(serial.fetch_add(1, Ordering::Relaxed)),
                    matrix(serial.fetch_add(1, Ordering::Relaxed)),
                );
                let (status, _h, resp) = post(addr, "/batch", &body);
                match status {
                    200 => ok += 1,
                    503 => {
                        assert!(resp.contains("\"code\":\"overloaded\""), "{resp}");
                        shed_at.get_or_insert(t0.elapsed());
                    }
                    other => panic!("bulk: unexpected status {other}: {resp}"),
                }
            }
            (ok, shed_at)
        }));
    }

    // Critical-class traffic must ride through the whole storm.
    let storm = Duration::from_secs(4);
    while t0.elapsed() < storm {
        let (status, _h, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "healthz during overload: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
    stop.store(true, Ordering::Relaxed);
    let drained: Vec<(u32, Option<Duration>)> =
        interactive.into_iter().map(|h| h.join().unwrap()).collect();
    let bulk_drained: Vec<(u32, Option<Duration>)> =
        bulk.into_iter().map(|h| h.join().unwrap()).collect();
    failpoints::reset();

    let interactive_ok: u32 = drained.iter().map(|(ok, _)| ok).sum();
    let first_interactive_shed = drained.iter().filter_map(|(_, at)| *at).min();
    let first_bulk_shed = bulk_drained.iter().filter_map(|(_, at)| *at).min();
    assert!(interactive_ok > 0, "some interactive requests must succeed");
    let snap = handle.state().overload.snapshot();
    assert!(
        snap.brownout_entered_total >= 1,
        "the drill must push the ladder past ok: {snap:?}"
    );
    assert!(
        snap.shed_bulk_total >= 1 && first_bulk_shed.is_some(),
        "brownout must shed bulk traffic: {snap:?}"
    );
    if let Some(interactive_at) = first_interactive_shed {
        let bulk_at = first_bulk_shed.expect("bulk shed before interactive");
        assert!(
            bulk_at <= interactive_at,
            "bulk must shed before interactive (bulk {bulk_at:?}, \
             interactive {interactive_at:?})"
        );
        assert!(
            snap.shedding_entered_total >= 1,
            "interactive sheds imply the shedding rung: {snap:?}"
        );
    }

    // Queue delay must have pulled extra workers in.
    let pool = &handle.state().pool;
    assert!(
        pool.worker_scale_up_total() >= 1,
        "sustained queue delay must scale the pool up"
    );

    // Recovery: the ladder returns to ok and the pool drains back to
    // --workers-min, with the scale counters balancing exactly.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, _h, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        if body.contains("\"overload_state\":\"ok\"") && pool.worker_count() == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no recovery: healthz {body}, workers {}",
            pool.worker_count()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(
        pool.worker_scale_up_total(),
        pool.worker_scale_down_total(),
        "back at --workers-min, every scale-up must have a matching scale-down"
    );

    // The whole episode is visible in one /metrics scrape.
    let (sm, _hm, metrics) = get(addr, "/metrics");
    assert_eq!(sm, 200);
    assert!(
        metrics.contains("\"overload\":{\"state\":\"ok\""),
        "{metrics}"
    );
    assert!(
        metric_u64(&metrics, "shed_bulk_total") >= 1
            && metric_u64(&metrics, "brownout_entered_total") >= 1
            && metric_u64(&metrics, "worker_scale_up_total") >= 1,
        "{metrics}"
    );

    handle.shutdown();
    handle.join();
}

/// Oversized inputs are rejected before any allocation: `--max-cells` as a
/// typed 422, the body cap as a typed 413 — same JSON error shape.
#[test]
fn oversized_inputs_rejected_with_typed_errors() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let cfg = Config {
        max_cells: 10,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    // 3×3 = 9 cells fits; 3×4 = 12 does not.
    let (s, _h, _b) = post(addr, "/measure", &matrix(0));
    assert_eq!(s, 200);
    let too_wide = "task,m1,m2,m3,m4\nt1,1,2,3,4\nt2,5,6,7,8\nt3,9,1,2,3\n";
    let (s, _h, b) = post(addr, "/measure", too_wide);
    assert_eq!(s, 422, "{b}");
    assert!(b.contains("\"code\":\"matrix_too_large\""), "{b}");
    assert!(b.contains("--max-cells"), "{b}");
    // /generate is guarded by the same limit, straight from its parameters.
    let (s, _h, b) = post(addr, "/generate?mode=cvb&tasks=100&machines=100&seed=1", "");
    assert_eq!(s, 422, "{b}");
    handle.shutdown();
    handle.join();

    let cfg = Config {
        max_body_bytes: 256,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    let (s, _h, b) = post(addr, "/measure", &big_matrix(16));
    assert_eq!(s, 413, "{b}");
    assert!(b.contains("\"code\":\"body_too_large\""), "{b}");
    handle.shutdown();
    handle.join();
}

/// `--max-cells` counts the columns the CSV reader reads: a `,` inside a
/// quoted machine name, as `to_csv` writes it, separates nothing, so a
/// matrix of exactly the limit is served.
#[test]
fn cell_limit_counts_quoted_names_as_one_column() {
    let _serial = hc_serve::sync::lock_recover(&SERIAL);
    let etc = hc_core::ecs::Etc::with_names(
        hc_linalg::Matrix::from_rows(&[&[1.0, 2.0]]).unwrap(),
        vec!["t1".into()],
        vec!["a,b".into(), "c".into()],
    )
    .unwrap();
    let body = hc_spec::csv::to_csv(&etc);
    assert_eq!(body, "task,\"a,b\",c\nt1,1,2\n");
    let handle = start(Config {
        max_cells: 2,
        ..test_config()
    })
    .expect("start server");
    let addr = handle.local_addr();

    let (s, _h, b) = post(addr, "/measure", &body);
    assert_eq!(s, 200, "{b}");
    assert!(b.contains("\"a,b\""), "{b}");
    let (s, _h, b) = post(addr, "/measure", "task,\"a,b\",c,d\nt1,1,2,3\n");
    assert_eq!(s, 422, "{b}");
    assert!(
        b.contains("matrix of ~3 cells exceeds the limit of 2"),
        "{b}"
    );
    handle.shutdown();
    handle.join();
}
