//! `hc-loadgen` — open-loop load generator for `hc-serve` capacity testing.
//!
//! Closed-loop harnesses (send, wait, send) slow down exactly when the server
//! does, so their latency reports hide overload — the *coordinated omission*
//! trap. This binary is open-loop: a Poisson arrival schedule is drawn up
//! front from the in-tree xoshiro256++ generator, every request carries its
//! *intended* send time, and latency is measured from that intent — a request
//! the server made wait in line (or that the generator itself sent late
//! because a connection was busy) is charged the full delay.
//!
//! The endpoint mix is configurable (`--mix measure=60,cachehit=20,...`) over
//! four classes that exercise the admission ladder's priority tiers:
//!
//! | class     | request                       | admission class              |
//! |-----------|-------------------------------|------------------------------|
//! | `measure` | `POST /measure`, unique body  | Interactive (Bulk if ≥64KiB) |
//! | `cachehit`| `POST /measure`, fixed body   | Critical once cached         |
//! | `healthz` | `GET /healthz`                | Critical                     |
//! | `batch`   | `POST /batch`, unique parts   | Bulk                         |
//!
//! Errors are counted by kind — `http_503` (shed), `http_504` (deadline),
//! `http_other`, `connect_fail`, `reset` (connection died mid-response) —
//! because "slow but correct" and "fast but broken" must never blur into one
//! number. Output is one JSON object per line (a header, one line per class,
//! and an `all` aggregate) shaped for the same line-scan parser `trend` uses;
//! `scripts/load_snapshot.sh` redirects it into a dated `LOAD_<date>.json`.
//!
//! `--self-serve` starts an in-process `hc-serve` instance and appends a
//! `"server"` line with its overload/pool counters, so one command produces a
//! self-contained capacity snapshot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use hc_bench::ecs_fixture;
use hc_gen::rng::{Rng, Xoshiro256pp};
use hc_obs::metrics::{bucket_upper, Histogram, BUCKETS};

/// Request classes the mix distributes over. Order is the report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Measure,
    CacheHit,
    Healthz,
    Batch,
}

const CLASSES: [Class; 4] = [
    Class::Measure,
    Class::CacheHit,
    Class::Healthz,
    Class::Batch,
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Measure => "measure",
            Class::CacheHit => "cachehit",
            Class::Healthz => "healthz",
            Class::Batch => "batch",
        }
    }

    fn from_name(s: &str) -> Option<Class> {
        CLASSES.iter().copied().find(|c| c.name() == s)
    }
}

/// Parsed command line. Every knob has a default so `hc-loadgen --self-serve`
/// alone produces a useful snapshot.
struct Args {
    addr: Option<String>,
    self_serve: bool,
    rps: f64,
    duration_s: f64,
    connections: usize,
    seed: u64,
    shape: (usize, usize),
    batch_parts: usize,
    mix: Vec<(Class, u64)>,
    // --self-serve passthrough.
    workers: usize,
    queue_depth: usize,
    cache_entries: usize,
    target_queue_delay_ms: u64,
    workers_min: usize,
    workers_max: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: hc-loadgen (--addr HOST:PORT | --self-serve) [options]\n\
         \n\
         load options:\n\
           --rps N                requests per second, Poisson-paced (default 200)\n\
           --duration-s N         run length in seconds (default 10)\n\
           --connections N        concurrent keep-alive connections (default 8)\n\
           --seed N               schedule RNG seed (default 42)\n\
           --shape TxM            measure/batch matrix shape (default 32x32)\n\
           --batch-parts N        matrices per /batch request (default 4)\n\
           --mix SPEC             class weights, e.g. measure=60,cachehit=20,healthz=15,batch=5\n\
         \n\
         --self-serve options (in-process hc-serve instance):\n\
           --workers N            initial worker threads (default 2)\n\
           --queue-depth N        fixed-depth queue bound (default 64)\n\
           --cache-entries N      result cache capacity (default 256)\n\
           --target-queue-delay-ms N  admission target, 0 = off (default 100)\n\
           --workers-min N / --workers-max N  autoscale bounds (default: --workers)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        self_serve: false,
        rps: 200.0,
        duration_s: 10.0,
        connections: 8,
        seed: 42,
        shape: (32, 32),
        batch_parts: 4,
        mix: vec![
            (Class::Measure, 60),
            (Class::CacheHit, 20),
            (Class::Healthz, 15),
            (Class::Batch, 5),
        ],
        workers: 2,
        queue_depth: 64,
        cache_entries: 256,
        target_queue_delay_ms: 100,
        workers_min: 0,
        workers_max: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let fail = |flag: &str, raw: &str| -> ! {
        eprintln!("hc-loadgen: malformed value for {flag}: {raw:?}");
        std::process::exit(2);
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--self-serve" {
            args.self_serve = true;
            i += 1;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(raw) = argv.get(i + 1) else { usage() };
        match flag {
            "--addr" => args.addr = Some(raw.clone()),
            "--rps" => args.rps = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--duration-s" => args.duration_s = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--connections" => args.connections = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--seed" => args.seed = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--shape" => {
                let (t, m) = raw.split_once('x').unwrap_or_else(|| fail(flag, raw));
                args.shape = (
                    t.parse().unwrap_or_else(|_| fail(flag, raw)),
                    m.parse().unwrap_or_else(|_| fail(flag, raw)),
                );
            }
            "--batch-parts" => args.batch_parts = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--mix" => {
                let mut mix = Vec::new();
                for part in raw.split(',') {
                    let (name, w) = part.split_once('=').unwrap_or_else(|| fail(flag, raw));
                    let class = Class::from_name(name).unwrap_or_else(|| fail(flag, raw));
                    let weight: u64 = w.parse().unwrap_or_else(|_| fail(flag, raw));
                    mix.push((class, weight));
                }
                if mix.iter().all(|&(_, w)| w == 0) {
                    fail(flag, raw);
                }
                args.mix = mix;
            }
            "--workers" => args.workers = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--queue-depth" => args.queue_depth = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--cache-entries" => {
                args.cache_entries = raw.parse().unwrap_or_else(|_| fail(flag, raw))
            }
            "--target-queue-delay-ms" => {
                args.target_queue_delay_ms = raw.parse().unwrap_or_else(|_| fail(flag, raw))
            }
            "--workers-min" => args.workers_min = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            "--workers-max" => args.workers_max = raw.parse().unwrap_or_else(|_| fail(flag, raw)),
            _ => usage(),
        }
        i += 2;
    }
    if args.addr.is_none() && !args.self_serve {
        usage();
    }
    if args.rps <= 0.0 || args.duration_s <= 0.0 || args.connections == 0 {
        eprintln!("hc-loadgen: --rps, --duration-s, and --connections must be positive");
        std::process::exit(2);
    }
    args
}

/// CSV matrix body split around the first data cell, so one `format!` yields
/// a body no other request (and no cache entry) has ever carried: the cell is
/// nudged by a per-request serial. `cachehit` requests reuse the unsplit base
/// body verbatim instead, so every one of them lands on the same cache key.
struct BodyTemplate {
    base: String,
    prefix: String,
    suffix: String,
    cell: f64,
}

impl BodyTemplate {
    fn build(t: usize, m: usize) -> BodyTemplate {
        let ecs = ecs_fixture(t, m);
        let mut base = String::from("task");
        for name in ecs.machine_names() {
            base.push(',');
            base.push_str(name);
        }
        base.push('\n');
        for (i, name) in ecs.task_names().iter().enumerate() {
            base.push_str(name);
            for j in 0..m {
                base.push_str(&format!(",{}", ecs.get(i, j)));
            }
            base.push('\n');
        }
        // Split around the (0, 0) cell: the value between the first data
        // row's task name and the following comma.
        let row_start = format!("\n{},", ecs.task_names()[0]);
        let at = base.find(&row_start).expect("fixture has a data row") + row_start.len();
        let len = base[at..].find(',').expect("fixture has >= 2 machines");
        BodyTemplate {
            prefix: base[..at].to_string(),
            suffix: base[at + len..].to_string(),
            cell: ecs.get(0, 0),
            base,
        }
    }

    /// A body unique to serial `n` (cell perturbations never collide: the
    /// nudge is strictly increasing and starts above the base value).
    fn unique(&self, n: u64) -> String {
        let v = self.cell + (n + 1) as f64 * 1e-6;
        format!("{}{v}{}", self.prefix, self.suffix)
    }
}

/// Serial counter behind unique bodies; shared so batch parts and measure
/// bodies can never alias each other across threads.
static SERIAL: AtomicU64 = AtomicU64::new(0);

fn request_bytes(class: Class, tpl: &BodyTemplate, batch_parts: usize) -> Vec<u8> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    match class {
        Class::Healthz => b"GET /healthz HTTP/1.1\r\nHost: loadgen\r\n\r\n".to_vec(),
        Class::CacheHit => post("/measure", &tpl.base),
        Class::Measure => post(
            "/measure",
            &tpl.unique(SERIAL.fetch_add(1, Ordering::Relaxed)),
        ),
        Class::Batch => {
            let mut body = String::new();
            for k in 0..batch_parts.max(1) {
                if k > 0 {
                    body.push_str("---\n");
                }
                body.push_str(&tpl.unique(SERIAL.fetch_add(1, Ordering::Relaxed)));
            }
            post("/batch", &body)
        }
    }
}

/// One scheduled request: when it should leave the wire and what it is.
struct Arrival {
    offset: Duration,
    class: Class,
}

/// Draws the full Poisson schedule up front: exponential inter-arrival gaps
/// (mean `1/rps`) accumulated into absolute offsets, each paired with a
/// weighted class draw. Deterministic per seed.
fn schedule(args: &Args) -> Vec<Arrival> {
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed);
    let total_weight: u64 = args.mix.iter().map(|&(_, w)| w).sum();
    let total = (args.rps * args.duration_s).round().max(1.0) as usize;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        // Inverse-CDF exponential; 1 - u is in (0, 1] so ln never sees zero.
        t += -(1.0 - rng.next_f64()).ln() / args.rps;
        let mut draw = rng.gen_range(0..total_weight);
        let class = args
            .mix
            .iter()
            .find(|&&(_, w)| {
                if draw < w {
                    true
                } else {
                    draw -= w;
                    false
                }
            })
            .map(|&(c, _)| c)
            .expect("weights sum to total_weight");
        out.push(Arrival {
            offset: Duration::from_secs_f64(t),
            class,
        });
    }
    out
}

/// Per-class tallies. Latency lives twice: the exact sample vector percentiles
/// are computed from, and the shared log₂ histogram the compact `"hist"`
/// output field comes from.
#[derive(Default)]
struct ClassStats {
    sent: u64,
    ok: u64,
    http_503: u64,
    http_504: u64,
    http_other: u64,
    connect_fail: u64,
    reset: u64,
    latencies_us: Vec<u64>,
    hist: Histogram,
}

impl ClassStats {
    /// Folds another tally (same class, or a per-class tally into `all`) into
    /// this one. The histogram is rebuilt from the absorbed samples — every
    /// histogram entry is derived from exactly the `latencies_us` vector.
    fn absorb(&mut self, s: &ClassStats) {
        self.sent += s.sent;
        self.ok += s.ok;
        self.http_503 += s.http_503;
        self.http_504 += s.http_504;
        self.http_other += s.http_other;
        self.connect_fail += s.connect_fail;
        self.reset += s.reset;
        for &us in &s.latencies_us {
            self.hist.observe(us);
        }
        self.latencies_us.extend_from_slice(&s.latencies_us);
    }
}

/// Nearest-rank percentile over an already-sorted sample vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct RespHead {
    status: u16,
    close: bool,
}

enum ReadErr {
    /// Connection ended cleanly (or reset) before the first response byte —
    /// the stale keep-alive race, safe to retry once on a fresh connection.
    StaleStart,
    /// Connection died mid-response: bytes arrived, then the stream broke.
    Reset,
}

/// Reads one framed HTTP/1.1 response; `pending` carries bytes read past the
/// previous response's end (same discipline as the bench snapshot's reader).
fn read_response(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Result<RespHead, ReadErr> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&pending[..head_end]).into_owned();
            let status: u16 = head
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or(ReadErr::Reset)?;
            let content_length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            let close = head
                .lines()
                .any(|l| l.trim().eq_ignore_ascii_case("connection: close"));
            let total = head_end + 4 + content_length;
            while pending.len() < total {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return Err(ReadErr::Reset),
                    Ok(n) => pending.extend_from_slice(&chunk[..n]),
                }
            }
            pending.drain(..total);
            return Ok(RespHead { status, close });
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                return Err(if pending.is_empty() {
                    ReadErr::StaleStart
                } else {
                    ReadErr::Reset
                })
            }
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
        }
    }
}

fn connect(addr: &str) -> Option<(TcpStream, Vec<u8>)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    // A hung read must not wedge the whole run; the server's own deadline
    // machinery answers 504 long before this fires.
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    Some((stream, Vec::new()))
}

/// One connection worker: sends its slice of the schedule at the intended
/// times over a keep-alive connection, reconnecting when the server closes
/// (503s and parse errors carry `Connection: close` by design).
fn run_connection(
    addr: &str,
    start: Instant,
    arrivals: Vec<Arrival>,
    tpl: &BodyTemplate,
    batch_parts: usize,
) -> [ClassStats; 4] {
    let mut stats: [ClassStats; 4] = Default::default();
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    for a in arrivals {
        let intended = start + a.offset;
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let bytes = request_bytes(a.class, tpl, batch_parts);
        let s = &mut stats[CLASSES.iter().position(|&c| c == a.class).unwrap()];
        s.sent += 1;

        // One transparent retry covers the stale keep-alive race (the server
        // idle-closed between our requests); a second failure is real.
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            if conn.is_none() {
                conn = connect(addr);
                if conn.is_none() {
                    break Err(false); // connect_fail
                }
            }
            let (stream, pending) = conn.as_mut().unwrap();
            if stream.write_all(&bytes).is_err() {
                conn = None;
                if attempts < 2 {
                    continue;
                }
                break Err(true); // reset: established connection died on us
            }
            match read_response(stream, pending) {
                Ok(head) => {
                    if head.close {
                        conn = None;
                    }
                    break Ok(head.status);
                }
                Err(ReadErr::StaleStart) => {
                    conn = None;
                    if attempts < 2 {
                        continue;
                    }
                    break Err(true);
                }
                Err(ReadErr::Reset) => {
                    conn = None;
                    break Err(true);
                }
            }
        };
        match outcome {
            Ok(status) => {
                match status {
                    200..=299 => {
                        s.ok += 1;
                        let lat = Instant::now().saturating_duration_since(intended);
                        let us = lat.as_micros() as u64;
                        s.latencies_us.push(us);
                        s.hist.observe(us);
                    }
                    503 => s.http_503 += 1,
                    504 => s.http_504 += 1,
                    _ => s.http_other += 1,
                };
            }
            Err(true) => s.reset += 1,
            Err(false) => s.connect_fail += 1,
        }
    }
    stats
}

/// Renders one report line. Integer fields are what `trend` gates on; the
/// compact `hist` array is the log₂ histogram as `[bucket_upper_us, count]`
/// pairs for non-empty buckets.
fn class_line(name: &str, s: &ClassStats, wall_s: f64) -> String {
    let mut sorted = s.latencies_us.clone();
    sorted.sort_unstable();
    let throughput = if wall_s > 0.0 {
        s.ok as f64 / wall_s
    } else {
        0.0
    };
    let counts = s.hist.bucket_counts();
    let hist: Vec<String> = (0..BUCKETS)
        .filter(|&i| counts[i] > 0)
        .map(|i| format!("[{},{}]", bucket_upper(i), counts[i]))
        .collect();
    format!(
        "{{\"class\":\"{name}\",\"sent\":{},\"ok\":{},\"http_503\":{},\"http_504\":{},\
         \"http_other\":{},\"connect_fail\":{},\"reset\":{},\"throughput_rps\":{:.1},\
         \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{},\
         \"hist\":[{}]}}",
        s.sent,
        s.ok,
        s.http_503,
        s.http_504,
        s.http_other,
        s.connect_fail,
        s.reset,
        throughput,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
        percentile(&sorted, 0.999),
        sorted.last().copied().unwrap_or(0),
        hist.join(",")
    )
}

fn main() {
    let args = parse_args();

    // --self-serve: an in-process server whose lifetime is the run's.
    let handle = if args.self_serve {
        let (t, m) = args.shape;
        Some(
            hc_serve::start(hc_serve::Config {
                addr: "127.0.0.1:0".to_string(),
                workers: args.workers,
                queue_depth: args.queue_depth,
                cache_entries: args.cache_entries,
                max_cells: (t * m * args.batch_parts.max(1) * 4).max(250_000),
                target_queue_delay_ms: args.target_queue_delay_ms,
                workers_min: args.workers_min,
                workers_max: args.workers_max,
                ..hc_serve::Config::default()
            })
            .expect("self-serve instance starts"),
        )
    } else {
        None
    };
    let addr = match (&handle, &args.addr) {
        (Some(h), _) => h.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!("parse_args requires one"),
    };

    let tpl = BodyTemplate::build(args.shape.0, args.shape.1);
    let all = schedule(&args);
    let mut per_conn: Vec<Vec<Arrival>> = (0..args.connections).map(|_| Vec::new()).collect();
    for (i, a) in all.into_iter().enumerate() {
        per_conn[i % args.connections].push(a);
    }

    let mix_str: Vec<String> = args
        .mix
        .iter()
        .map(|&(c, w)| format!("{}={w}", c.name()))
        .collect();
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    println!(
        "{{\"schema\":\"hc-load/v1\",\"unix_time\":{ts},\"addr\":\"{addr}\",\
         \"rps\":{:.1},\"duration_s\":{:.1},\"connections\":{},\"seed\":{},\
         \"shape\":\"{}x{}\",\"batch_parts\":{},\"mix\":\"{}\",\"self_serve\":{}}}",
        args.rps,
        args.duration_s,
        args.connections,
        args.seed,
        args.shape.0,
        args.shape.1,
        args.batch_parts,
        mix_str.join(","),
        args.self_serve,
    );

    // Small lead-in so every thread is parked on its first arrival before the
    // schedule's clock starts.
    let start = Instant::now() + Duration::from_millis(50);
    let merged: Vec<[ClassStats; 4]> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .into_iter()
            .map(|arrivals| {
                let addr = addr.clone();
                let tpl = &tpl;
                scope.spawn(move || run_connection(&addr, start, arrivals, tpl, args.batch_parts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut totals: [ClassStats; 4] = Default::default();
    for conn_stats in &merged {
        for (i, s) in conn_stats.iter().enumerate() {
            totals[i].absorb(s);
        }
    }
    let mut all = ClassStats::default();
    for s in &totals {
        all.absorb(s);
    }

    for (i, class) in CLASSES.iter().enumerate() {
        if totals[i].sent > 0 {
            println!("{}", class_line(class.name(), &totals[i], wall_s));
        }
    }
    println!("{}", class_line("all", &all, wall_s));

    if let Some(handle) = handle {
        let state = handle.state().clone();
        let overload = hc_serve::metrics::json_group(&state, "overload").expect("overload group");
        println!(
            "{{\"server\":true,\"overload\":{overload},\
             \"worker_scale_up_total\":{},\"worker_scale_down_total\":{},\
             \"workers_live\":{}}}",
            state.pool.worker_scale_up_total(),
            state.pool.worker_scale_down_total(),
            state.pool.worker_count(),
        );
        handle.shutdown();
        handle.join();
    }
}
