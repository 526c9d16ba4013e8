//! `hcm` and the daemon answer the same: generation, the schedule selector
//! and session edits, each run once through `hc_cli::dispatch` and once
//! through a running `hc-serve` over a socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hc_cli::commands::MemInput;

fn cli(argv: &[&str], files: &[(&str, &str)]) -> String {
    let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let input = MemInput(
        files
            .iter()
            .map(|(n, c)| (n.to_string(), c.to_string()))
            .collect(),
    );
    hc_cli::dispatch(&raw, &input).unwrap_or_else(|e| panic!("hcm {argv:?}: {e}"))
}

/// One HTTP/1.1 exchange; returns the status and the body.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: parity\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

fn server() -> hc_serve::ServerHandle {
    hc_serve::start(hc_serve::Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        cache_entries: 16,
        ..hc_serve::Config::default()
    })
    .expect("server starts")
}

/// The number after `"key":` in a compact JSON document.
fn number<T: std::str::FromStr>(doc: &str, key: &str) -> T {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat).unwrap_or_else(|| panic!("{key} in {doc}")) + pat.len();
    let end = doc[at..].find([',', '}']).map_or(doc.len(), |n| at + n);
    doc[at..end]
        .parse()
        .unwrap_or_else(|_| panic!("{key} in {doc}"))
}

/// The members of the flat JSON object after `"key":`, in order, as raw
/// text (names and values hold no `,`, `:` or `}`).
fn members(doc: &str, key: &str) -> Vec<(String, String)> {
    let pat = format!("\"{key}\":{{");
    let at = doc.find(&pat).unwrap_or_else(|| panic!("{key} in {doc}")) + pat.len();
    let end = at + doc[at..].find('}').expect("object end");
    doc[at..end]
        .split(',')
        .map(|m| {
            let (k, v) = m.split_once(':').expect("member");
            (
                k.trim_matches('"').to_string(),
                v.trim_matches('"').to_string(),
            )
        })
        .collect()
}

#[test]
fn generate_answers_the_same_bytes() {
    let handle = server();
    let modes: [(&str, &[(&str, &str)]); 3] = [
        (
            "targeted",
            &[
                ("tasks", "6"),
                ("machines", "4"),
                ("mph", "0.7"),
                ("tdh", "0.6"),
                ("tma", "0.2"),
                ("jitter", "0.3"),
            ],
        ),
        (
            "range",
            &[("tasks", "5"), ("machines", "3"), ("rtask", "30")],
        ),
        (
            "cvb",
            &[
                ("tasks", "4"),
                ("machines", "6"),
                ("vtask", "0.4"),
                ("vmach", "0.6"),
            ],
        ),
    ];
    for (mode, params) in modes {
        for seed in ["0", "7"] {
            let mut argv = vec!["generate".to_string(), mode.to_string()];
            let mut query = format!("/generate?mode={mode}");
            for (k, v) in params.iter().chain(&[("seed", seed)]) {
                argv.extend([format!("--{k}"), v.to_string()]);
                query.push_str(&format!("&{k}={v}"));
            }
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let from_cli = cli(&argv, &[]);
            let (status, from_daemon) = http(handle.local_addr(), "POST", &query, "");
            assert_eq!(status, 200, "{query}: {from_daemon}");
            assert_eq!(from_cli, from_daemon, "{query}");
        }
    }
    handle.shutdown();
    handle.join();
}

/// What `hcm schedule` printed: every run with its makespan, the best run,
/// and the best assignment.
struct CliSchedule {
    runs: Vec<(String, String)>,
    best: String,
    assignment: Vec<(String, String)>,
}

fn parse_cli_schedule(out: &str) -> CliSchedule {
    let mut runs = Vec::new();
    let mut best = None;
    let mut assignment = Vec::new();
    for line in out.lines() {
        if let Some((name, mk)) = line.split_once(" makespan = ") {
            runs.push((name.trim_end().to_string(), mk.to_string()));
        } else if let Some(name) = line.strip_prefix("best: ") {
            best = Some(name.to_string());
        } else if let Some((t, m)) = line.strip_prefix("  ").and_then(|l| l.split_once(" -> ")) {
            assignment.push((t.to_string(), m.to_string()));
        }
    }
    CliSchedule {
        runs,
        best: best.expect("a best line"),
        assignment,
    }
}

#[test]
fn schedule_selects_the_same_runs_and_best() {
    let handle = server();
    let etc = cli(
        &[
            "generate",
            "cvb",
            "--tasks",
            "6",
            "--machines",
            "3",
            "--seed",
            "4",
        ],
        &[],
    );
    for which in ["all", "ga", "sa", "tabu", "optimal", "min-min", "kpb=50"] {
        let out = cli(
            &["schedule", "in.csv", "--heuristic", which],
            &[("in.csv", &etc)],
        );
        let printed = parse_cli_schedule(&out);
        let (status, doc) = http(
            handle.local_addr(),
            "POST",
            &format!("/schedule?heuristic={which}"),
            &etc,
        );
        assert_eq!(status, 200, "{which}: {doc}");
        let results: Vec<(String, String)> = members(&doc, "results")
            .into_iter()
            .map(|(name, mk)| (name, format!("{:.4}", mk.parse::<f64>().unwrap())))
            .collect();
        assert_eq!(printed.runs, results, "{which}");
        assert!(!results.is_empty(), "{which}");
        let best = doc.split("\"best\":{\"name\":\"").nth(1).expect("best");
        assert_eq!(printed.best, best[..best.find('"').unwrap()], "{which}");
        assert_eq!(printed.assignment, members(&doc, "assignment"), "{which}");
        assert_eq!(printed.assignment.len(), 6, "{which}");
    }
    // The default selector is `all`.
    assert_eq!(
        cli(&["schedule", "in.csv"], &[("in.csv", &etc)]),
        cli(
            &["schedule", "in.csv", "--heuristic", "all"],
            &[("in.csv", &etc)]
        )
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn session_edits_land_the_same_versions() {
    let handle = server();
    let etc = "task,m1,m2,m3\nt1,2.0,8.0,4.0\nt2,6.0,3.0,5.0\nt3,4.0,4.0,4.5\nt4,3.0,7.0,2.5\n";
    let edits = "cell,t1,m2,7.5\nrow,t2,5.5,3.5,4.0\ncol,m3,4.2,5.1,4.4,2.0\ncell,3,1,4.4\n";
    let out = cli(
        &["session", "in.csv", "--edits", "e.txt"],
        &[("in.csv", etc), ("e.txt", edits)],
    );
    let printed: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with('v') && l.contains(": MPH "))
        .collect();
    assert_eq!(printed.len(), 1 + edits.lines().count(), "{out}");

    let (status, created) = http(handle.local_addr(), "POST", "/session", etc);
    assert_eq!(status, 200, "{created}");
    let id_at = created.find("\"id\":\"").expect("id") + 6;
    let id = &created[id_at..id_at + created[id_at..].find('"').unwrap()];
    let mut docs = vec![created.clone()];
    for line in edits.lines() {
        let (status, doc) = http(
            handle.local_addr(),
            "PATCH",
            &format!("/session/{id}/etc"),
            line,
        );
        assert_eq!(status, 200, "{line}: {doc}");
        docs.push(doc);
    }
    for (k, (line, doc)) in printed.iter().zip(&docs).enumerate() {
        assert_eq!(number::<usize>(doc, "version"), k + 1, "{doc}");
        let mark = if doc.contains("\"fallback\":true") {
            "cold*"
        } else if doc.contains("\"warm\":true") {
            "warm"
        } else {
            "cold"
        };
        assert!(
            line.starts_with(&format!("v{} {mark}: ", k + 1)),
            "{line} against {doc}"
        );
        let measures = format!(
            "MPH {:.4}  TDH {:.4}  TMA {:.4}",
            number::<f64>(doc, "mph"),
            number::<f64>(doc, "tdh"),
            number::<f64>(doc, "tma")
        );
        assert!(line.contains(&measures), "{line} against {measures}");
        let iterations = format!(
            "({} Sinkhorn + {} SVD iterations)",
            number::<usize>(doc, "sinkhorn_iterations"),
            number::<usize>(doc, "svd_iterations")
        );
        assert!(line.ends_with(&iterations), "{line} against {iterations}");
    }
    handle.shutdown();
    handle.join();
}
