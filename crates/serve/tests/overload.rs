//! Socket-level overload tests: a pipelined connection that gets shed must be
//! closed cleanly (no leftover-byte reuse, no reset), and long-poll watchers
//! must cycle their reactor slots quickly while the admission ladder is past
//! `ok` (DESIGN.md §15).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hc_serve::{start, Config};

fn test_config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        cache_entries: 16,
        ..Config::default()
    }
}

/// A small well-formed matrix, distinct per `i` so the cache never hits.
fn matrix(i: usize) -> String {
    format!(
        "task,m1,m2,m3\nt1,{},8.0,4.0\nt2,6.0,{},5.0\nt3,4.0,4.0,{}\n",
        2.0 + i as f64,
        3.0 + i as f64 * 0.5,
        4.0 + i as f64 * 0.25,
    )
}

/// Side of a matrix big enough that one worker chews on it for a long time,
/// keeping the single-worker pool busy while other requests queue. A release
/// build characterizes 512×512 in ~0.13 s, so it needs ~1200×1200 (~1.5 s; a
/// 7 MB body, under the 8 MiB default cap); a debug build takes seconds at
/// 512.
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

fn post_request(target: &str, body: &str) -> String {
    format!(
        "POST {target} HTTP/1.1\r\nHost: overload\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// One complete request/response exchange over a fresh connection.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = connect(addr);
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: overload\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
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

/// Satellite (c): a keep-alive connection that pipelines two requests and is
/// shed on the first must get exactly one 503 — carrying `Retry-After` and
/// `Connection: close` — and then a clean close. The second pipelined request
/// must be discarded, byte-for-byte: not answered, not left to confuse a
/// connection reuse, and never a TCP reset.
#[test]
fn shed_on_pipelined_connection_closes_and_discards_remaining_bytes() {
    // `--target-queue-delay-ms 0` pins the legacy fixed-depth path: with one
    // worker and a queue depth of one, the third concurrent request is shed
    // deterministically, no delay estimation involved.
    let cfg = Config {
        target_queue_delay_ms: 0,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    let big = big_matrix(BIG);

    // Occupy the only worker, then fill the depth-1 queue.
    let mut busy = connect(addr);
    busy.write_all(post_request("/measure", &big).as_bytes())
        .expect("write busy request");
    std::thread::sleep(Duration::from_millis(200));
    let mut queued = connect(addr);
    queued
        .write_all(post_request("/measure", &matrix(1)).as_bytes())
        .expect("write queued request");
    std::thread::sleep(Duration::from_millis(200));

    // Two pipelined requests in one segment; the first must be shed.
    let mut shed = connect(addr);
    let pipelined = format!(
        "{}{}",
        post_request("/measure", &matrix(2)),
        post_request("/measure", &matrix(3))
    );
    shed.write_all(pipelined.as_bytes())
        .expect("write pipelined pair");
    let mut buf = Vec::new();
    shed.read_to_end(&mut buf)
        .expect("clean close, not a reset");

    let text = String::from_utf8_lossy(&buf).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 503 "), "{head}");
    assert!(body.contains("\"code\":\"overloaded\""), "{body}");
    let retry_after: u32 = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("503 carries a numeric Retry-After");
    assert!((1..=30).contains(&retry_after), "{retry_after}");
    assert!(
        head.lines().any(|l| l == "Connection: close"),
        "shed response on a keep-alive connection must announce close: {head}"
    );
    // Byte-exact: the close arrived after exactly one framed response — the
    // pipelined second request produced nothing.
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("503 carries Content-Length");
    assert_eq!(
        buf.len(),
        head.len() + 4 + content_length,
        "exactly one response before close; got {buf:?}"
    );
    assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");

    // The in-flight and queued requests were untouched by the shed.
    for stream in [&mut busy, &mut queued] {
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read response");
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    }

    handle.shutdown();
    handle.join();
}

/// Satellite (b): while the ladder is past `ok`, `/session/{id}/watch` parks
/// for at most `OVERLOAD_WATCH_CAP_MS` instead of the 30 s default window, so
/// parked watchers stop monopolizing reactor slots exactly when slots are the
/// scarce resource.
#[test]
fn overload_caps_session_watch_park_time() {
    let cfg = Config {
        workers: 2,
        queue_depth: 32,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    let (status, _head, body) = exchange(addr, "POST", "/session", &matrix(0));
    assert_eq!(status, 200, "{body}");
    let id_at = body.find("\"id\":\"").expect("session id") + "\"id\":\"".len();
    let id = body[id_at..].split('"').next().unwrap().to_string();
    let version_at = body.find("\"version\":").expect("version") + "\"version\":".len();
    let version: u64 = body[version_at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();

    // Force the ladder to shedding. The dwell clocks restart, so the state
    // holds for at least RECOVER_DWELL while the watch below parks; watches
    // are Critical-class and are never shed themselves.
    handle
        .state()
        .overload
        .force_state(hc_serve::overload::STATE_SHEDDING);

    let started = Instant::now();
    let (status, _head, body) = exchange(
        addr,
        "GET",
        &format!("/session/{id}/watch?version={version}"),
        "",
    );
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"timed_out\":true"), "{body}");
    assert!(
        elapsed >= Duration::from_millis(500),
        "watch must still park, not busy-return: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "overload watch window must be capped near 1s, not the 30s default: {elapsed:?}"
    );

    handle.shutdown();
    handle.join();
}
