//! Socket-level tests for `/debug/profile` and the response-header audit.
//! The profiler is process-global (one sampler thread, first `start` wins),
//! so every test here serializes on one lock and resets the profiler to the
//! state it needs before starting its server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use hc_serve::{start, Config};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// One HTTP/1.1 exchange.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: profile\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
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

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    request(addr, "GET", target, "")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String, String) {
    request(addr, "POST", target, body)
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{name}: ");
    head.lines()
        .find(|l| l.starts_with(&prefix))
        .map(|l| &l[prefix.len()..])
}

/// A matrix big enough that Sinkhorn and SVD each hold spans for multiple
/// sampler periods; `salt` varies the content so the result cache cannot
/// short-circuit the compute phase.
fn big_matrix(tasks: usize, machines: usize, salt: usize) -> String {
    let mut csv = String::from("task");
    for m in 0..machines {
        csv.push_str(&format!(",m{m}"));
    }
    csv.push('\n');
    for t in 0..tasks {
        csv.push_str(&format!("t{t}"));
        for m in 0..machines {
            let v = 1.0 + ((t * 31 + m * 17 + salt * 7) % 97) as f64 / 10.0;
            csv.push_str(&format!(",{v:.2}"));
        }
        csv.push('\n');
    }
    csv
}

/// Mixed load against a profiling server must yield a folded profile that
/// resolves below `core.characterize` into the Sinkhorn standardization and
/// the SVD phases, and the JSON rendering must expose a per-frame table.
#[test]
fn profile_resolves_kernel_phases_under_mixed_load() {
    let _serial = serial();
    hc_obs::profile::stop();
    hc_obs::profile::reset_store();
    let cfg = Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        cache_entries: 64,
        profile_hz: 997,
        ..Config::default()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    assert!(hc_obs::profile::running(), "server must start the sampler");

    // A Sinkhorn run on these inputs can finish between two 997 Hz ticks, so
    // each iteration spins for 1 ms on the CPU while the load runs and the
    // sampler always finds the `sinkhorn.balance` frames.
    hc_obs::failpoints::arm("sinkhorn.iteration:busy:1");
    // 50 mixed requests; matrices vary per request to defeat the cache.
    for i in 0..50 {
        let (path, body) = match i % 3 {
            0 => ("/measure".to_string(), big_matrix(128, 64, i)),
            1 => ("/structure".to_string(), big_matrix(96, 48, i)),
            _ => (
                "/schedule?heuristic=min-min".to_string(),
                big_matrix(64, 32, i),
            ),
        };
        let (s, _h, b) = post(addr, &path, &body);
        assert_eq!(s, 200, "{path}: {b}");
    }
    hc_obs::failpoints::reset();

    let (ps, ph, folded) = get(addr, "/debug/profile?seconds=10");
    assert_eq!(ps, 200, "{folded}");
    assert_eq!(
        header_value(&ph, "Content-Type"),
        Some("text/plain; charset=utf-8"),
        "{ph}"
    );
    assert_eq!(header_value(&ph, "Cache-Control"), Some("no-store"), "{ph}");
    assert!(!folded.trim().is_empty(), "profile must not be empty");
    // Every line is `frame[;frame…] count`.
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect(line);
        assert!(!stack.is_empty(), "{line}");
        let _: u64 = count.parse().expect(line);
    }
    // The kernel phases resolve below characterize: standardization down to
    // the Sinkhorn iteration batches, and the SVD phase.
    assert!(
        folded.contains("core.characterize;measure.standardize;sinkhorn.balance"),
        "sinkhorn frames missing:\n{folded}"
    );
    assert!(
        folded.contains("core.characterize;measure.svd"),
        "svd frames missing:\n{folded}"
    );

    // `format=folded` is the explicit spelling of the default.
    let (fs, _fh, folded2) = get(addr, "/debug/profile?seconds=10&format=folded");
    assert_eq!(fs, 200);
    assert!(folded2.contains("core.characterize"), "{folded2}");

    // JSON rendering: a self/total table over the same window.
    let (js, jh, json) = get(addr, "/debug/profile?seconds=10&format=json");
    assert_eq!(js, 200, "{json}");
    assert_eq!(
        header_value(&jh, "Content-Type"),
        Some("application/json"),
        "{jh}"
    );
    assert!(json.contains("\"window_seconds\":10"), "{json}");
    assert!(json.contains("\"hz\":997"), "{json}");
    assert!(json.contains("\"top\":["), "{json}");
    assert!(json.contains("\"frame\":\"core.characterize\""), "{json}");
    assert!(json.contains("\"self_seconds\":"), "{json}");
    assert!(json.contains("\"total_seconds\":"), "{json}");

    // Malformed parameters answer typed 400s.
    let (bs, _bh, bb) = get(addr, "/debug/profile?seconds=soon");
    assert_eq!(bs, 400, "{bb}");
    let (xs, _xh, xb) = get(addr, "/debug/profile?format=svg");
    assert_eq!(xs, 400, "{xb}");

    handle.shutdown();
    handle.join();
    hc_obs::profile::stop();
}

/// `--profile-hz 0` leaves the sampler stopped and `/debug/profile` answers
/// a typed 404 rather than an empty profile.
#[test]
fn profile_endpoint_404s_when_disabled() {
    let _serial = serial();
    hc_obs::profile::stop();
    let cfg = Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 16,
        cache_entries: 16,
        profile_hz: 0,
        ..Config::default()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    assert!(!hc_obs::profile::running());

    let (s, _h, b) = get(addr, "/debug/profile");
    assert_eq!(s, 404, "{b}");
    assert!(b.contains("profiler_disabled"), "{b}");

    handle.shutdown();
    handle.join();
}

/// Walks every route once and audits the response headers: `Server-Timing`
/// on everything (it is attached once per parsed request), `Cache-Control:
/// no-store` on exactly the live-state endpoints, absent on the cacheable
/// compute endpoints.
#[test]
fn header_audit_covers_every_route() {
    let _serial = serial();
    hc_obs::profile::stop();
    let cfg = Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        cache_entries: 64,
        profile_hz: 997,
        ..Config::default()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();

    const SAMPLE: &str = "task,m1,m2,m3\nt1,2.0,8.0,4.0\nt2,6.0,3.0,5.0\nt3,4.0,4.0,4.5\n";
    let (cs, _ch, cbody) = post(addr, "/session", SAMPLE);
    assert_eq!(cs, 200, "{cbody}");
    let at = cbody.find("\"id\":\"").expect("session id") + 6;
    let sid: String = cbody[at..].chars().take_while(|c| *c != '"').collect();

    // (method, target, body, expect_no_store)
    let routes: Vec<(&str, String, &str, bool)> = vec![
        ("POST", "/measure".into(), SAMPLE, false),
        ("POST", "/structure".into(), SAMPLE, false),
        (
            "POST",
            "/generate?mode=targeted&tasks=6&machines=4&mph=0.7&tdh=0.6&tma=0.2&seed=3".into(),
            "",
            false,
        ),
        ("POST", "/schedule?heuristic=min-min".into(), SAMPLE, false),
        ("POST", "/batch".into(), SAMPLE, false),
        ("GET", "/metrics".into(), "", true),
        ("GET", "/metrics?format=prometheus".into(), "", true),
        ("GET", "/healthz".into(), "", true),
        ("GET", "/debug/requests".into(), "", true),
        ("GET", "/debug/requests/no-such-id".into(), "", true),
        ("GET", "/debug/profile?seconds=10".into(), "", true),
        (
            "PATCH",
            format!("/session/{sid}/etc"),
            "cell,t1,m1,2.5\n",
            true,
        ),
        ("GET", format!("/session/{sid}"), "", true),
        ("GET", format!("/session/{sid}/watch?version=0"), "", true),
        ("DELETE", format!("/session/{sid}"), "", true),
    ];
    for (method, target, body, expect_no_store) in &routes {
        let (status, head, rbody) = request(addr, method, target, body);
        assert!(
            status < 500,
            "{method} {target}: unexpected {status}: {rbody}"
        );
        assert!(
            header_value(&head, "Server-Timing").is_some(),
            "{method} {target}: Server-Timing missing:\n{head}"
        );
        assert!(
            header_value(&head, "X-Request-Id").is_some(),
            "{method} {target}: X-Request-Id missing:\n{head}"
        );
        let no_store = header_value(&head, "Cache-Control") == Some("no-store");
        assert_eq!(
            no_store, *expect_no_store,
            "{method} {target}: Cache-Control audit failed:\n{head}"
        );
    }

    handle.shutdown();
    handle.join();
    hc_obs::profile::stop();
}
