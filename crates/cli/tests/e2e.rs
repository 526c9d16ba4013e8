//! End-to-end tests driving the compiled `hcm` binary through real process
//! invocations, pipes, and temp files.

use std::process::Command;

fn hcm(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hcm"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_and_errors() {
    let (ok, stdout, _) = hcm(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    let (ok, _, stderr) = hcm(&["bogus-command"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = hcm(&["measure", "/nonexistent/file.csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn spec_measure_pipeline_via_files() {
    let dir = std::env::temp_dir().join(format!("hcm-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("cint.csv");

    // 1. Dump the built-in dataset.
    let (ok, csv, _) = hcm(&["spec", "cint"]);
    assert!(ok);
    assert!(csv.starts_with("task,m1"));
    std::fs::write(&csv_path, &csv).unwrap();

    // 2. Measure it from disk: the paper's Fig. 6 values.
    let (ok, report, _) = hcm(&["measure", csv_path.to_str().unwrap()]);
    assert!(ok, "{report}");
    assert!(report.contains("MPH = 0.82"), "{report}");
    assert!(report.contains("TDH = 0.90"), "{report}");
    assert!(report.contains("TMA = 0.07"), "{report}");

    // 3. Structure and canonical reports run on the same file.
    let (ok, s, _) = hcm(&["structure", csv_path.to_str().unwrap()]);
    assert!(ok);
    assert!(s.contains("balanceability: Positive"));
    let (ok, c, _) = hcm(&["canonical", csv_path.to_str().unwrap()]);
    assert!(ok);
    assert!(c.contains("canonical machine order"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_usage_and_arg_parsing() {
    // Usage text documents the daemon.
    let (ok, stdout, _) = hcm(&["help"]);
    assert!(ok);
    assert!(stdout.contains("hcm serve"), "{stdout}");
    assert!(stdout.contains("--queue-depth"), "{stdout}");
    assert!(stdout.contains("Retry-After"), "{stdout}");

    // --dry-run resolves and echoes the configuration without binding.
    let (ok, stdout, _) = hcm(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "3",
        "--queue-depth",
        "7",
        "--cache-entries",
        "11",
        "--dry-run",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("workers        3"), "{stdout}");
    assert!(stdout.contains("queue-depth    7"), "{stdout}");
    assert!(stdout.contains("cache-entries  11"), "{stdout}");

    // Bad flag values fail loudly before any socket work.
    let (ok, _, stderr) = hcm(&["serve", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");
    let (ok, _, stderr) = hcm(&["serve", "--addr", "not-an-address"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
    let (ok, _, stderr) = hcm(&["serve", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("frobnicate"), "{stderr}");
    let (ok, _, stderr) = hcm(&["serve", "stray-positional"]);
    assert!(!ok);
    assert!(stderr.contains("positional"), "{stderr}");
}

#[test]
fn serve_smoke_over_real_process() {
    use std::io::{BufRead, BufReader, Read, Write};

    // Start the daemon on an ephemeral port and learn the port from its
    // startup banner on stderr.
    let mut child = Command::new(env!("CARGO_BIN_EXE_hcm"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hcm serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let banner = lines.next().expect("banner line").expect("banner readable");
    let addr = banner
        .split("http://")
        .nth(1)
        .expect("address in banner")
        .trim()
        .to_string();

    // `Connection: close` makes the server end each exchange, so reading to
    // EOF returns as soon as the response is written rather than racing
    // the server's idle-connection close against the client timeout.
    let request = |verb: &str, target: &str, body: &str| -> String {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        s.write_all(
            format!(
                "{verb} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        String::from_utf8_lossy(&out).into_owned()
    };

    let csv = "task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n";
    let measured = request("POST", "/measure", csv);
    assert!(measured.starts_with("HTTP/1.1 200"), "{measured}");
    assert!(measured.contains("\"mph\":"), "{measured}");

    let metrics = request("GET", "/metrics", "");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.contains("\"measure\""), "{metrics}");

    // Graceful shutdown via the admin endpoint; the process must exit 0.
    let quit = request("GET", "/quitquitquit", "");
    assert!(quit.starts_with("HTTP/1.1 200"), "{quit}");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "{status:?}");
}

#[test]
fn generate_schedule_simulate_pipeline() {
    let dir = std::env::temp_dir().join(format!("hcm-e2e-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.csv");

    let (ok, csv, _) = hcm(&[
        "generate",
        "targeted",
        "--tasks",
        "8",
        "--machines",
        "4",
        "--mph",
        "0.7",
        "--tdh",
        "0.6",
        "--tma",
        "0.2",
        "--seed",
        "5",
    ]);
    assert!(ok);
    std::fs::write(&path, &csv).unwrap();

    let (ok, sched, _) = hcm(&["schedule", path.to_str().unwrap()]);
    assert!(ok, "{sched}");
    assert!(sched.contains("Min-Min"));
    assert!(sched.contains("Duplex"));
    assert!(sched.contains("best:"));

    let (ok, tabu, _) = hcm(&["schedule", path.to_str().unwrap(), "--heuristic", "tabu"]);
    assert!(ok, "{tabu}");
    assert!(tabu.contains("Tabu"));

    let (ok, sim, _) = hcm(&[
        "simulate",
        path.to_str().unwrap(),
        "--tasks",
        "100",
        "--policy",
        "mct",
    ]);
    assert!(ok, "{sim}");
    assert!(sim.contains("makespan"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_once_renders_dashboard_against_live_server() {
    use std::io::{Read, Write};

    // A real in-process server with the TSDB on (the default).
    let handle = hc_serve::start(hc_serve::Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_entries: 16,
        ..hc_serve::Config::default()
    })
    .expect("server starts");
    let addr = handle.local_addr();

    // Some traffic plus one deterministic collection tick so the dashboard
    // has numbers to show without waiting out the 1 Hz collector.
    let body = "task,m1,m2\nt1,2.0,8.0\nt2,6.0,3.0\n";
    for _ in 0..3 {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let req = format!(
            "POST /measure HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
    }
    hc_serve::collector::collect_once(handle.state());

    let (ok, frame, stderr) = hcm(&["top", "--once", "--addr", &addr.to_string()]);
    assert!(ok, "hcm top --once failed: {stderr}");
    assert!(frame.starts_with("hcm top —"), "{frame}");
    assert!(frame.contains(&addr.to_string()), "{frame}");
    assert!(frame.contains("health ok"), "{frame}");
    assert!(frame.contains("overload ok"), "{frame}");
    for label in [
        "req/s",
        "err/s",
        "p50 us",
        "p99 us",
        "cache hit",
        "workers",
        "slo burn",
    ] {
        assert!(frame.contains(label), "{label} missing from frame: {frame}");
    }
    // The collected tick put a real per-second point in every gauge, so at
    // least one sparkline glyph renders.
    assert!(
        frame
            .chars()
            .any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
        "no sparkline glyphs: {frame}"
    );

    // Against a dead address the command fails cleanly instead of hanging.
    let (ok, _, stderr) = hcm(&["top", "--once", "--addr", "127.0.0.1:1"]);
    assert!(!ok);
    assert!(stderr.contains("hcm:"), "{stderr}");

    handle.shutdown();
    handle.join();
}
