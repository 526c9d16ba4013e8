//! `hcm top` — a live terminal dashboard over a running `hcm serve`.
//!
//! Polls `GET /debug/timeseries?format=sparkline` (the in-process TSDB,
//! DESIGN.md §16) plus `GET /healthz`, and renders one screen of serving
//! health: request rate, p50/p99 latency, cache hit rate, overload ladder
//! state, live workers, and SLO burn — each with a sparkline of recent
//! history. With `--once` it prints a single frame and exits (the mode the
//! test suite and verify.sh drive); otherwise it redraws every
//! `--interval-ms` until interrupted.
//!
//! Everything except the socket I/O is pure: sparkline-line parsing and frame
//! rendering are plain string functions, unit-tested without a server.

use crate::args::Args;
use hc_gen::params::Params;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Series polled for the dashboard, in display order, with human labels.
/// Counters (requests, errors) arrive as per-second rates from the server's
/// sparkline renderer, so the labels say so.
const SERIES: &[(&str, &str)] = &[
    ("serve_requests_total", "req/s"),
    ("serve_errors_total", "err/s"),
    ("serve_latency_p50_us", "p50 us"),
    ("serve_latency_p99_us", "p99 us"),
    ("serve_cache_hit_rate", "cache hit"),
    ("serve_overload_state", "overload"),
    ("serve_workers_live", "workers"),
    ("serve_connections_open", "conns"),
    ("serve_slo_burn_short", "slo burn"),
];

/// Parsed `hcm top` invocation.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Server address (`host:port`) to poll.
    pub addr: String,
    /// Print one frame and exit instead of looping.
    pub once: bool,
    /// Redraw period in the looping mode.
    pub interval_ms: u64,
    /// History window requested per frame, seconds.
    pub window_s: u64,
}

/// Parses `hcm top` arguments.
pub fn parse_config(args: &Args) -> Result<TopConfig, String> {
    if args.positional(0) != Some("top") {
        return Err("top::parse_config expects the top subcommand".to_string());
    }
    if args.positional_count() > 1 {
        return Err("top takes no positional arguments".to_string());
    }
    args.check_allowed(&["addr", "once", "interval-ms", "window-s"])?;
    let cfg = TopConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        once: args.has("once"),
        interval_ms: args.get_or("interval-ms", 1000)?,
        window_s: args.get_or("window-s", 60)?,
    };
    if cfg.interval_ms == 0 {
        return Err("--interval-ms must be at least 1".to_string());
    }
    if cfg.window_s == 0 {
        return Err("--window-s must be at least 1".to_string());
    }
    Ok(cfg)
}

/// One parsed line of the server's `format=sparkline` output.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesLine {
    /// Series name as stored in the TSDB.
    pub name: String,
    /// Unicode sparkline over the queried window.
    pub spark: String,
    /// Most recent value (`None` when the server printed `-`).
    pub last: Option<f64>,
    /// Resolution the server answered at, seconds per point.
    pub step_s: u64,
}

/// Parses the `/debug/timeseries?format=sparkline` body: one
/// `name  <spark>  last=V step=Ss` line per series. Unrecognized lines are
/// skipped so a newer server never breaks an older client.
pub fn parse_sparklines(body: &str) -> Vec<SeriesLine> {
    let mut out = Vec::new();
    for line in body.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            continue;
        }
        let (Some(last_raw), Some(step_raw)) = (
            fields[2].strip_prefix("last="),
            fields[3]
                .strip_prefix("step=")
                .and_then(|s| s.strip_suffix('s')),
        ) else {
            continue;
        };
        let Ok(step_s) = step_raw.parse::<u64>() else {
            continue;
        };
        out.push(SeriesLine {
            name: fields[0].to_string(),
            spark: fields[1].to_string(),
            last: last_raw.parse::<f64>().ok(),
            step_s,
        });
    }
    out
}

/// Extracts the `status` value from a `/healthz` JSON body (`ok`,
/// `degraded`, ...); `?` when absent.
pub fn health_status(body: &str) -> &str {
    body.split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("?", |(status, _)| status)
}

/// Maps the numeric `serve_overload_state` gauge to the ladder name.
fn overload_name(v: f64) -> &'static str {
    match v as i64 {
        0 => "ok",
        1 => "brownout",
        2 => "shedding",
        _ => "?",
    }
}

/// Renders one dashboard frame from parsed series. Pure so tests can golden
/// it; the header carries address + health, then one row per known series.
pub fn render(addr: &str, health: &str, lines: &[SeriesLine], window_s: u64) -> String {
    let find = |name: &str| lines.iter().find(|l| l.name == name);
    let overload = find("serve_overload_state")
        .and_then(|l| l.last)
        .map_or("?", overload_name);
    let mut out =
        format!("hcm top — {addr} — health {health} — overload {overload} — window {window_s}s\n");
    for &(name, label) in SERIES {
        let Some(line) = find(name) else {
            out.push_str(&format!("  {label:<9} {:>12}\n", "-"));
            continue;
        };
        let value = match (name, line.last) {
            (_, None) => "-".to_string(),
            ("serve_overload_state", Some(v)) => overload_name(v).to_string(),
            ("serve_cache_hit_rate", Some(v)) => format!("{:.0}%", v * 100.0),
            (_, Some(v)) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v}"),
            (_, Some(v)) => format!("{v:.3}"),
        };
        out.push_str(&format!("  {label:<9} {value:>12}  {}\n", line.spark));
    }
    out
}

/// Minimal `GET` over std `TcpStream` (HTTP/1.1, `Connection: close`).
/// Returns `(status, body)`.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// Fetches one frame's inputs and renders it.
fn frame(cfg: &TopConfig) -> Result<String, String> {
    let names: Vec<&str> = SERIES.iter().map(|(n, _)| *n).collect();
    let path = format!(
        "/debug/timeseries?series={}&window={}&format=sparkline",
        names.join(","),
        cfg.window_s
    );
    let (status, body) = http_get(&cfg.addr, &path)?;
    if status != 200 {
        return Err(format!(
            "{} answered {status} for /debug/timeseries (tsdb disabled via --tsdb-off?)",
            cfg.addr
        ));
    }
    let (_, health_body) = http_get(&cfg.addr, "/healthz")?;
    Ok(render(
        &cfg.addr,
        health_status(&health_body),
        &parse_sparklines(&body),
        cfg.window_s,
    ))
}

/// Runs the dashboard: one frame with `--once`, else redraw until killed.
/// Returns the final frame error, if any, for `main` to print.
pub fn run(cfg: &TopConfig) -> Result<(), String> {
    if cfg.once {
        print!("{}", frame(cfg)?);
        return Ok(());
    }
    loop {
        match frame(cfg) {
            // ANSI clear + home between frames; errors are transient (server
            // restarting) so they render in place of a frame instead of
            // killing the loop.
            Ok(f) => print!("\x1b[2J\x1b[H{f}"),
            Err(e) => println!("\x1b[2J\x1b[Hhcm top: {e}"),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(cfg.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn cfg_of(argv: &[&str]) -> Result<TopConfig, String> {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_config(&parse(&raw))
    }

    #[test]
    fn parses_flags_and_defaults() {
        let cfg = cfg_of(&["top"]).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7878");
        assert!(!cfg.once);
        assert_eq!(cfg.interval_ms, 1000);
        assert_eq!(cfg.window_s, 60);

        let cfg = cfg_of(&[
            "top",
            "--addr",
            "127.0.0.1:9",
            "--once",
            "--interval-ms",
            "250",
            "--window-s",
            "30",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:9");
        assert!(cfg.once);
        assert_eq!(cfg.interval_ms, 250);
        assert_eq!(cfg.window_s, 30);

        assert!(cfg_of(&["top", "--interval-ms", "0"]).is_err());
        assert!(cfg_of(&["top", "--window-s", "0"]).is_err());
        assert!(cfg_of(&["top", "--frobnicate"]).is_err());
        assert!(cfg_of(&["top", "extra"]).is_err());
    }

    #[test]
    fn parses_sparkline_body() {
        let body = "serve_requests_total    ▁▂▃▄█  last=12.000 step=1s\n\
                    serve_overload_state    ▁▁▁▁▁  last=0.000 step=1s\n\
                    serve_latency_p99_us    ·····  last=- step=1s\n\
                    not a sparkline line\n";
        let lines = parse_sparklines(body);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].name, "serve_requests_total");
        assert_eq!(lines[0].spark, "▁▂▃▄█");
        assert_eq!(lines[0].last, Some(12.0));
        assert_eq!(lines[0].step_s, 1);
        assert_eq!(lines[2].last, None);
    }

    #[test]
    fn renders_frame_with_labels_and_ladder_name() {
        let lines = vec![
            SeriesLine {
                name: "serve_requests_total".into(),
                spark: "▁▂▃".into(),
                last: Some(12.0),
                step_s: 1,
            },
            SeriesLine {
                name: "serve_overload_state".into(),
                spark: "▁▁█".into(),
                last: Some(2.0),
                step_s: 1,
            },
            SeriesLine {
                name: "serve_cache_hit_rate".into(),
                spark: "███".into(),
                last: Some(0.75),
                step_s: 1,
            },
        ];
        let f = render("127.0.0.1:7878", "ok", &lines, 60);
        assert!(
            f.starts_with("hcm top — 127.0.0.1:7878 — health ok — overload shedding"),
            "{f}"
        );
        assert!(f.contains("req/s"), "{f}");
        assert!(f.contains("12"), "{f}");
        assert!(f.contains("75%"), "{f}");
        assert!(f.contains("shedding"), "{f}");
        // Series the server didn't answer render as placeholders, not panics.
        assert!(f.contains("p99 us"), "{f}");
        assert!(f.lines().count() == 1 + super::SERIES.len(), "{f}");
    }

    #[test]
    fn health_status_extraction() {
        assert_eq!(health_status("{\"status\":\"ok\",\"x\":1}"), "ok");
        assert_eq!(health_status("{\"status\":\"degraded\"}"), "degraded");
        assert_eq!(health_status("nope"), "?");
    }
}
