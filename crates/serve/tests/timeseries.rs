//! Socket-level tests of the in-process TSDB surface (DESIGN.md §16):
//! the `/debug/timeseries` catalog and query endpoint (tier layout, aligned
//! arrays, monotone counters, non-negative rates, sparkline render,
//! `--tsdb-off`), OpenMetrics exemplars joining the latency histogram to
//! live `/debug/requests/{id}` records under a request flood, and the
//! overload context (class / ladder state / shed decision) recorded into
//! every flight record — including the 503s the admission layer refuses.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hc_serve::{start, Config};

/// One HTTP/1.1 exchange over a fresh connection.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: tsdb\r\nConnection: close\r\n\
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

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    exchange(addr, "GET", target, "")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String, String) {
    exchange(addr, "POST", target, body)
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

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("{name}: ");
    head.lines()
        .find(|l| l.starts_with(&prefix))
        .map(|l| &l[prefix.len()..])
}

/// Extracts `"points":[...]` (or another array field) inside the object for
/// `series` from a `/debug/timeseries` JSON document.
fn series_array(doc: &str, series: &str, field: &str) -> Vec<Option<f64>> {
    let obj_at = doc
        .find(&format!("\"{series}\":{{"))
        .unwrap_or_else(|| panic!("series {series} missing from {doc}"));
    let obj = &doc[obj_at..];
    let arr_at = obj
        .find(&format!("\"{field}\":["))
        .unwrap_or_else(|| panic!("field {field} missing from {obj}"))
        + field.len()
        + 4;
    let arr = &obj[arr_at..obj[arr_at..].find(']').unwrap() + arr_at];
    arr.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            if s == "null" {
                None
            } else {
                Some(s.parse::<f64>().unwrap_or_else(|_| panic!("bad point {s}")))
            }
        })
        .collect()
}

/// The acceptance walk: traffic, deterministic collection ticks on distinct
/// seconds, then `/debug/timeseries` answers a catalog with >= 3 retention
/// tiers and aligned per-second history for request rate, p99 latency, cache
/// hit rate, overload state, and SLO burn — counters monotone, rates >= 0.
#[test]
fn timeseries_catalog_tiers_and_aligned_history() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    // Three collection ticks on (at least) two distinct wall seconds, with
    // real traffic in between so the counters actually move.
    for round in 0..3usize {
        for i in 0..4usize {
            let (s, _h, _b) = post(addr, "/measure", &matrix(round * 4 + i));
            assert_eq!(s, 200);
        }
        hc_serve::collector::collect_once(handle.state());
        if round < 2 {
            std::thread::sleep(Duration::from_millis(1050));
        }
    }

    // Catalog: tier layout + every recorded series.
    let (status, _head, catalog) = get(addr, "/debug/timeseries");
    assert_eq!(status, 200, "{catalog}");
    assert!(
        catalog.matches("\"step_s\":").count() >= 3,
        "default retention must expose >= 3 tiers: {catalog}"
    );
    assert!(
        catalog.contains("{\"step_s\":1,\"slots\":300,\"span_s\":300}"),
        "{catalog}"
    );
    for required in [
        "serve_requests_total",
        "serve_latency_p99_us",
        "serve_cache_hit_rate",
        "serve_overload_state",
        "serve_slo_burn_short",
        "tsdb_bytes",
    ] {
        assert!(catalog.contains(required), "{required} not in {catalog}");
    }
    let bytes_at = catalog.find("\"tsdb_bytes\":").unwrap() + "\"tsdb_bytes\":".len();
    let bytes: u64 = catalog[bytes_at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(bytes > 0, "store must account its memory: {catalog}");

    // Aligned query over the finest tier.
    let q = "/debug/timeseries?series=serve_requests_total,serve_latency_p99_us,\
             serve_cache_hit_rate,serve_overload_state,serve_slo_burn_short&window=60";
    let (status, _head, doc) = get(addr, q);
    assert_eq!(status, 200, "{doc}");
    let requests = series_array(&doc, "serve_requests_total", "points");
    assert_eq!(
        requests.len(),
        60,
        "window=60 at step 1 is 60 points: {doc}"
    );
    for name in [
        "serve_latency_p99_us",
        "serve_cache_hit_rate",
        "serve_overload_state",
        "serve_slo_burn_short",
    ] {
        assert_eq!(
            series_array(&doc, name, "points").len(),
            60,
            "all series align on the same grid: {doc}"
        );
    }
    let present: Vec<f64> = requests.iter().filter_map(|p| *p).collect();
    assert!(present.len() >= 2, "two collected seconds visible: {doc}");
    assert!(
        present.windows(2).all(|w| w[0] <= w[1]),
        "counter history must be monotone: {present:?}"
    );
    assert!(
        *present.last().unwrap() >= 12.0,
        "all 12 requests visible in the counter: {present:?}"
    );
    let rates = series_array(&doc, "serve_requests_total", "rate_per_s");
    assert_eq!(rates.len(), 60);
    assert!(
        rates.iter().flatten().all(|r| *r >= 0.0),
        "rate() deltas are clamped non-negative: {rates:?}"
    );
    // Gauges carry no rate array.
    let p99_obj = &doc[doc.find("\"serve_latency_p99_us\":{").unwrap()..];
    let p99_end = p99_obj.find('}').unwrap();
    assert!(!p99_obj[..p99_end].contains("rate_per_s"), "{doc}");

    // The coarser tiers answer downsampled queries over the same history.
    for (step, expect_points) in [(10u64, 30usize), (60, 5)] {
        let (status, _h, tier_doc) = get(
            addr,
            &format!(
                "/debug/timeseries?series=serve_requests_total&window={}&step={step}",
                step as usize * expect_points
            ),
        );
        assert_eq!(status, 200, "{tier_doc}");
        assert!(
            tier_doc.contains(&format!("\"step_s\":{step}")),
            "{tier_doc}"
        );
        let pts = series_array(&tier_doc, "serve_requests_total", "points");
        assert_eq!(pts.len(), expect_points, "{tier_doc}");
        assert!(
            pts.iter().any(|p| p.is_some()),
            "downsampled tier carries the same history: {tier_doc}"
        );
    }

    // Sparkline render: one line per series, block glyphs, a numeric last.
    let (status, head, text) = get(
        addr,
        "/debug/timeseries?series=serve_requests_total,serve_overload_state\
         &window=60&format=sparkline",
    );
    assert_eq!(status, 200, "{text}");
    assert_eq!(header_value(&head, "Cache-Control"), Some("no-store"));
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.contains("serve_requests_total"), "{text}");
    assert!(text.contains("step=1s"), "{text}");

    // Error surface: unknown series is a typed 404, bad knobs are 400s.
    let (s404, _h, b404) = get(addr, "/debug/timeseries?series=nope");
    assert_eq!(s404, 404, "{b404}");
    assert!(b404.contains("unknown_series"), "{b404}");
    assert_eq!(get(addr, "/debug/timeseries?window=0").0, 400);
    assert_eq!(
        get(
            addr,
            "/debug/timeseries?series=serve_requests_total&step=nope"
        )
        .0,
        400
    );
    assert_eq!(
        get(
            addr,
            "/debug/timeseries?series=serve_requests_total&format=xml"
        )
        .0,
        400
    );

    handle.shutdown();
    handle.join();
}

/// `--tsdb-off` removes the subsystem: the endpoint answers a typed 404 and
/// no collector series accumulate.
#[test]
fn tsdb_off_disables_the_endpoint() {
    let cfg = Config {
        tsdb_off: true,
        ..test_config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.local_addr();
    assert!(handle.state().tsdb.is_none());
    hc_serve::collector::collect_once(handle.state()); // must be a no-op
    let (status, _head, body) = get(addr, "/debug/timeseries");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("tsdb_disabled"), "{body}");
    handle.shutdown();
    handle.join();
}

/// The collector sleeps a whole second between samples and teardown wakes
/// it: a server asked to stop while its collector sleeps joins, collector
/// included, well inside that second, whether `shutdown` or
/// `/quitquitquit` asked.
#[test]
fn teardown_wakes_the_sleeping_collector() {
    for quit in [false, true] {
        let handle = start(test_config()).expect("start server");
        let addr = handle.local_addr();
        // The collector samples at once, then sleeps.
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        if quit {
            let (status, _head, body) = get(addr, "/quitquitquit");
            assert_eq!(status, 200, "{body}");
        } else {
            handle.shutdown();
        }
        handle.join();
        let took = asked.elapsed();
        assert!(
            took < Duration::from_millis(700),
            "quit {quit}: took {took:?}"
        );
    }
}

/// Exemplar join under a 50-request flood: the Prometheus exposition of the
/// latency histogram carries `# {request_id=...}` exemplar trailers, and the
/// exemplar's request id resolves to a live flight-recorder record at
/// `/debug/requests/{id}`.
#[test]
fn exemplars_join_the_flight_recorder_under_flood() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    for i in 0..50usize {
        let (s, _h, _b) = post(addr, "/measure", &matrix(i));
        assert_eq!(s, 200);
    }

    let (status, _head, prom) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    let exemplar_line = prom
        .lines()
        .find(|l| l.contains("hc_serve_latency_us_bucket") && l.contains("# {request_id="))
        .unwrap_or_else(|| panic!("no exemplar trailer on the latency histogram:\n{prom}"));
    let id_at = exemplar_line.find("request_id=\"").unwrap() + "request_id=\"".len();
    let id = exemplar_line[id_at..]
        .split('"')
        .next()
        .unwrap()
        .to_string();
    assert!(!id.is_empty(), "{exemplar_line}");
    assert!(
        exemplar_line.contains("traceparent=\"00-"),
        "{exemplar_line}"
    );

    let (status, _head, record) = get(addr, &format!("/debug/requests/{id}"));
    assert_eq!(
        status, 200,
        "exemplar {id} must resolve to a live record: {record}"
    );
    assert!(record.contains(&id), "{record}");
    assert!(record.contains("\"status\":200"), "{record}");

    handle.shutdown();
    handle.join();
}

/// Every flight record explains its admission: ordinary requests carry
/// `"overload":{"class":...,"state_at_admission":...,"shed":false}`, and a
/// request refused by the shedding ladder still gets a record — status 503,
/// `shed:true` — findable by the `X-Request-Id` on the refusal itself.
#[test]
fn flight_records_carry_overload_context_for_served_and_shed() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();

    let (status, head, _b) = post(addr, "/measure", &matrix(0));
    assert_eq!(status, 200);
    let id = header_value(&head, "X-Request-Id").expect("id").to_string();
    let (rs, _rh, record) = get(addr, &format!("/debug/requests/{id}"));
    assert_eq!(rs, 200, "{record}");
    assert!(record.contains("\"overload\":{"), "{record}");
    assert!(record.contains("\"class\":\"interactive\""), "{record}");
    assert!(record.contains("\"state_at_admission\":\"ok\""), "{record}");
    assert!(record.contains("\"shed\":false"), "{record}");

    // Force the ladder to shedding (the dwell holds it there) and send
    // Bulk-class work, which sheds first.
    handle
        .state()
        .overload
        .force_state(hc_serve::overload::STATE_SHEDDING);
    let body = format!("{}---\n{}", matrix(90), matrix(91));
    let (status, head, _b) = post(addr, "/batch", &body);
    assert_eq!(status, 503, "bulk work must shed on the shedding rung");
    let shed_id = header_value(&head, "X-Request-Id")
        .expect("shed 503 carries a request id")
        .to_string();
    let (rs, _rh, record) = get(addr, &format!("/debug/requests/{shed_id}"));
    assert_eq!(rs, 200, "shed record must be retrievable: {record}");
    assert!(record.contains("\"status\":503"), "{record}");
    assert!(record.contains("\"class\":\"bulk\""), "{record}");
    assert!(
        record.contains("\"state_at_admission\":\"shedding\""),
        "{record}"
    );
    assert!(record.contains("\"shed\":true"), "{record}");

    handle.shutdown();
    handle.join();
}

/// The tsdb's own memory gauge is visible both in the Prometheus exposition
/// and the `/debug/timeseries` catalog.
#[test]
fn tsdb_bytes_gauge_in_prometheus_and_catalog() {
    let handle = start(test_config()).expect("start server");
    let addr = handle.local_addr();
    let (s, _h, _b) = post(addr, "/measure", &matrix(7));
    assert_eq!(s, 200);
    hc_serve::collector::collect_once(handle.state());

    let (ps, _ph, prom) = get(addr, "/metrics?format=prometheus");
    assert_eq!(ps, 200);

    // tsdb_bytes: a live gauge in the registry exposition and the catalog.
    assert!(prom.lines().any(|l| l.starts_with("tsdb_bytes ")), "{prom}");
    let (cs, _ch, catalog) = get(addr, "/debug/timeseries");
    assert_eq!(cs, 200);
    assert!(
        catalog.contains("{\"name\":\"tsdb_bytes\",\"kind\":\"gauge\"}"),
        "{catalog}"
    );

    handle.shutdown();
    handle.join();
}
