//! The open-loop load generator and what one live phase measured.
//!
//! Load comes from this one process: one thread per keep-alive connection,
//! each walking its own schedule. A request is due at its planned instant;
//! when the previous response on its connection is still outstanding it is
//! sent as soon as that response is in, and its latency still counts from
//! the instant it was due.

use crate::http::{self, Conn, Phases, Response};
use crate::json::Json;
use crate::procfs::{self, ThreadCpu};
use crate::server::{self, Server};
use crate::stats;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One planned request on one connection.
#[derive(Debug, Clone, Copy)]
pub struct Planned<'a> {
    pub at_ns: u64,
    pub bytes: &'a [u8],
    /// Caller's index of the request (body, patch or read number).
    pub tag: usize,
}

/// What happened to one request. Times are nanoseconds since the epoch.
#[derive(Debug, Clone)]
pub struct Sample<T> {
    pub tag: usize,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub phases: Option<Phases>,
    pub cache_hit: Option<bool>,
    /// The inspected result, or why the request failed.
    pub result: Result<T, String>,
}

impl<T> Sample<T> {
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Intended send time to last response byte.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.intended_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.intended_ns) as f64 / 1e6
    }

    /// Latency not spent lagging or inside the four server phases.
    pub fn wire_ms(&self) -> Option<f64> {
        self.phases
            .map(|p| (self.done_ns - self.sent_ns) as f64 / 1e6 - p.total())
    }
}

/// Checks a response and extracts what the workload needs from it.
pub type Inspect<'a, T> = dyn Fn(usize, &Response) -> Result<T, String> + Sync + 'a;

/// Server CPU readings taken every `slice_ns` by the first connection's
/// thread, between requests: `(ns since epoch, server CPU ns)`.
pub struct Marks {
    pid: u32,
    slice_ns: u64,
    pub points: Vec<(u64, u64)>,
    /// Host CPU counters at the same instants.
    pub host: Vec<procfs::HostCpu>,
}

impl Marks {
    pub fn new(pid: u32, slice: Duration) -> Self {
        Marks {
            pid,
            slice_ns: slice.as_nanos() as u64,
            points: Vec::new(),
            host: Vec::new(),
        }
    }

    fn take(&mut self, epoch: Instant) {
        let cpu: u64 = procfs::threads(self.pid).values().map(|t| t.cpu_ns).sum();
        let at = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
        self.points.push((at, cpu));
        self.host.push(procfs::host_cpu());
    }

    fn due(&self, epoch: Instant) -> bool {
        let next = self.points.len() as u64 * self.slice_ns;
        Instant::now().saturating_duration_since(epoch).as_nanos() as u64 >= next
    }
}

fn drive_one<T>(
    addr: &str,
    plan: &[Planned<'_>],
    epoch: Instant,
    inspect: &Inspect<'_, T>,
    trace: Option<&mut Trace>,
    mut marks: Option<&mut Marks>,
) -> Vec<Sample<T>> {
    let mut conn: Option<Conn> = None;
    let mut out = Vec::with_capacity(plan.len());
    let mut trace = trace;
    for p in plan {
        let due = epoch + Duration::from_nanos(p.at_ns);
        if let Some(m) = marks.as_deref_mut() {
            if m.due(epoch) {
                m.take(epoch);
            }
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let outcome = match conn.as_mut() {
            Some(c) => c.round_trip(p.bytes),
            None => Conn::connect(addr).and_then(|mut c| {
                let r = c.round_trip(p.bytes);
                conn = Some(c);
                r
            }),
        };
        let done = Instant::now();
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        let mut sample = Sample {
            tag: p.tag,
            intended_ns: p.at_ns,
            sent_ns: ns(sent).max(p.at_ns),
            done_ns: ns(done).max(p.at_ns),
            phases: None,
            cache_hit: None,
            result: Err(String::new()),
        };
        sample.result = match outcome {
            Ok(resp) => {
                if resp.close {
                    // The server ends keep-alive (e.g. its per-connection
                    // request cap); the next request reconnects.
                    conn = None;
                }
                sample.phases = resp.phases;
                sample.cache_hit = resp.cache_hit;
                if (200..300).contains(&resp.status) {
                    inspect(p.tag, &resp)
                } else {
                    Err(format!("status {}", resp.status))
                }
            }
            Err(e) => {
                // A reset or timeout: the next request opens a new connection.
                conn = None;
                Err(format!("{:?}: {e}", e.kind()))
            }
        };
        if let Some(t) = trace.as_deref_mut() {
            span_request(t, &sample);
        }
        out.push(sample);
    }
    if let Some(m) = marks {
        m.take(epoch);
    }
    out
}

/// One span per request, from intended send to last byte, with the send
/// lag, the four `Server-Timing` phases (laid end to end in wire order) and
/// the wire time as children.
fn span_request<T>(t: &mut Trace, s: &Sample<T>) {
    let root = t.push(None, "request", s.intended_ns, s.done_ns);
    t.push(Some(root), "client.send_lag", s.intended_ns, s.sent_ns);
    let Some(p) = s.phases else {
        return;
    };
    let mut at = s.sent_ns;
    for (name, ms) in [
        ("server.parse", p.parse),
        ("server.queue", p.queue),
        ("server.compute", p.compute),
        ("server.serialize", p.serialize),
    ] {
        let end = at + (ms * 1e6) as u64;
        t.push(Some(root), name, at, end);
        at = end;
    }
    t.push(Some(root), "client.wire", at, s.done_ns.max(at));
}

/// Runs one schedule per connection, in parallel, and returns every sample
/// (and, when tracing, every span). The first connection's thread takes the
/// server CPU `marks`.
pub fn open_loop<T: Send>(
    addr: &str,
    plans: &[Vec<Planned<'_>>],
    inspect: &Inspect<'_, T>,
    tracing: bool,
    marks: &mut Marks,
) -> (Vec<Sample<T>>, Trace) {
    let epoch = Instant::now() + Duration::from_millis(20);
    let mut marks = Some(marks);
    let results: Vec<(Vec<Sample<T>>, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let marks = marks.take();
                s.spawn(move || {
                    let mut trace = Trace::default();
                    let samples = drive_one(
                        addr,
                        plan,
                        epoch,
                        inspect,
                        tracing.then_some(&mut trace),
                        marks,
                    );
                    (samples, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut trace = Trace::default();
    for (s, t) in results {
        samples.extend(s);
        let base = trace.spans.len();
        for mut span in t.spans {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            trace.spans.push(span);
        }
    }
    samples.sort_by_key(|s| s.intended_ns);
    (samples, trace)
}

/// A live phase against one server, with its before/after readings.
pub struct LivePhase<T> {
    pub samples: Vec<Sample<T>>,
    pub trace: Trace,
    /// Epoch to last response, seconds.
    pub wall_s: f64,
    pub server_cpu_s: f64,
    pub threads_before: BTreeMap<u32, ThreadCpu>,
    pub threads_after: BTreeMap<u32, ThreadCpu>,
    pub metrics_before: Json,
    pub metrics_after: Json,
    pub steal_share: f64,
    /// Server CPU readings at slice boundaries.
    pub marks: Vec<(u64, u64)>,
    /// Host CPU counters at the same boundaries.
    pub host_marks: Vec<procfs::HostCpu>,
}

/// Length of the slices of a live phase.
const SLICE: Duration = Duration::from_millis(500);

/// Drives `plans` against `server` and takes `/metrics`, schedstat, process
/// CPU and host steal readings around it, and server CPU every [`SLICE`].
pub fn phase<T: Send>(
    server: &Server,
    plans: &[Vec<Planned<'_>>],
    inspect: &Inspect<'_, T>,
    tracing: bool,
) -> Result<LivePhase<T>, String> {
    let metrics_before = server.metrics()?;
    let threads_before = procfs::threads(server.pid);
    let cpu0 = procfs::process_cpu_s(server.pid).ok_or("no /proc/<pid>/stat for the server")?;
    let host0 = procfs::host_cpu();
    let mut marks = Marks::new(server.pid, SLICE);
    let (samples, trace) = open_loop(&server.addr, plans, inspect, tracing, &mut marks);
    let cpu1 = procfs::process_cpu_s(server.pid).ok_or("no /proc/<pid>/stat for the server")?;
    let threads_after = procfs::threads(server.pid);
    let host1 = procfs::host_cpu();
    let metrics_after = server.metrics()?;
    let wall_s = samples.iter().map(|s| s.done_ns).max().unwrap_or(1) as f64 / 1e9;
    Ok(LivePhase {
        samples,
        trace,
        wall_s,
        server_cpu_s: cpu1 - cpu0,
        threads_before,
        threads_after,
        metrics_before,
        metrics_after,
        steal_share: procfs::steal_share(host0, host1),
        marks: marks.points,
        host_marks: marks.host,
    })
}

/// Share of a phase's slices, the calmest by host steal, that the sliced
/// figures are taken over.
const CALM_SHARE: f64 = 0.25;

/// One slice of a live phase: `[start, end)` in ns since the epoch, the
/// server CPU spent in it, and the host's steal share during it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub start: u64,
    pub end: u64,
    pub cpu_ns: u64,
    pub steal: f64,
}

/// The calmest [`CALM_SHARE`] of the whole slices between consecutive marks
/// (at least three): lowest host steal first, earlier first on ties.
///
/// On a shared host, latency tracks the CPU time the hypervisor steals
/// (a 1-s slice at 15% steal can show three times the p50 of one at 2%),
/// and steal drifts over minutes. Taking each figure over the calmest
/// slices of a run measures the program rather than its neighbours.
pub fn calm_slices(marks: &[(u64, u64)], host: &[procfs::HostCpu], slice_ns: u64) -> Vec<Slice> {
    let mut s: Vec<Slice> = marks
        .windows(2)
        .zip(host.windows(2))
        .map(|(m, h)| Slice {
            start: m[0].0,
            end: m[1].0,
            cpu_ns: m[1].1.saturating_sub(m[0].1),
            steal: procfs::steal_share(h[0], h[1]),
        })
        .filter(|s| s.end - s.start >= slice_ns / 2)
        .collect();
    s.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let keep = ((s.len() as f64 * CALM_SHARE).ceil() as usize)
        .max(3)
        .min(s.len());
    s.truncate(keep);
    s
}

impl<T> LivePhase<T> {
    pub fn ok_count(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok()).count() as u64
    }

    pub fn failures(&self) -> Vec<String> {
        self.samples
            .iter()
            .filter_map(|s| {
                s.result
                    .as_ref()
                    .err()
                    .map(|e| format!("request {}: {e}", s.tag))
            })
            .collect()
    }

    /// Median latency of the successful samples that `keep` selects.
    pub fn p50_ms(&self, keep: impl Fn(&Sample<T>) -> bool) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok() && keep(s))
            .map(Sample::latency_ms)
            .collect();
        stats::median(&v)
    }

    /// Server CPU per successful request, ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        stats::per_op(self.server_cpu_s * 1e3, self.ok_count())
    }

    fn calm(&self) -> Vec<Slice> {
        calm_slices(&self.marks, &self.host_marks, SLICE.as_nanos() as u64)
    }

    /// [`LivePhase::p50_ms`] over the requests due inside the calm slices.
    pub fn calm_p50_ms(&self, keep: impl Fn(&Sample<T>) -> bool) -> f64 {
        let calm = self.calm();
        let inside = |t: u64| calm.iter().any(|sl| (sl.start..sl.end).contains(&t));
        self.p50_ms(|s| inside(s.intended_ns) && keep(s))
    }

    /// Server CPU of the calm slices per request completed inside them, ms.
    pub fn calm_cpu_ms_per_op(&self) -> f64 {
        let calm = self.calm();
        let cpu_ns: u64 = calm.iter().map(|sl| sl.cpu_ns).sum();
        let done = self
            .samples
            .iter()
            .filter(|s| {
                s.ok()
                    && calm
                        .iter()
                        .any(|sl| (sl.start..sl.end).contains(&s.done_ns))
            })
            .count() as u64;
        stats::per_op(cpu_ns as f64 / 1e6, done)
    }

    fn delta(&self, path: &[&str]) -> u64 {
        server::counter(&self.metrics_after, path)
            .saturating_sub(server::counter(&self.metrics_before, path))
    }

    fn thread_ns(&self, prefix: &str) -> f64 {
        procfs::cpu_delta_ns(&self.threads_before, &self.threads_after, prefix) as f64
    }

    /// `(sinkhorn, svd)` iteration deltas from the library counters.
    pub fn solver_iterations(&self) -> (u64, u64) {
        let (s0, v0) = server::solver_iterations(&self.metrics_before);
        let (s1, v1) = server::solver_iterations(&self.metrics_after);
        (s1.saturating_sub(s0), v1.saturating_sub(v0))
    }

    pub fn cache_hits(&self) -> u64 {
        self.delta(&["cache", "hits"])
    }

    /// The run-health line: host steal, generator lag, and the tail.
    pub fn health(&self, label: &str) -> String {
        let lags: Vec<f64> = self.samples.iter().map(Sample::lag_ms).collect();
        let lat: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(Sample::latency_ms)
            .collect();
        let calm = calm_slices(&self.marks, &self.host_marks, SLICE.as_nanos() as u64);
        format!(
            "hcbench health [{label}]: steal_share={:.4} calm_slices={} calm_steal_max={:.4} \
             send_lag_p50_ms={:.4} send_lag_max_ms={:.3} p50_ms_all={:.4} cpu_ms_per_op_all={:.4} \
             p99_ms={:.3} p99_samples={}",
            self.steal_share,
            calm.len(),
            calm.last().map_or(0.0, |s| s.steal),
            stats::median(&lags),
            lags.iter().cloned().fold(0.0, f64::max),
            stats::median(&lat),
            self.cpu_ms_per_op(),
            stats::quantile(&lat, 0.99),
            lat.len()
        )
    }

    /// The per-layer metrics a live phase yields.
    pub fn layer_metrics(&self, out: &mut BTreeMap<String, f64>) {
        let ok = self.ok_count();
        let wall_ns = self.wall_s * 1e9;
        let reactor = self.thread_ns("hc-serve-accept");
        let workers = self.thread_ns("hc-serve-worker");
        let background = self.thread_ns("hc-serve-tsdb") + self.thread_ns("hc-profile-samp");
        out.insert(
            "serve.reactor.cpu_us_per_op".into(),
            stats::per_op(reactor / 1e3, ok),
        );
        out.insert("serve.reactor.busy_share".into(), reactor / wall_ns);
        out.insert(
            "serve.workers.cpu_us_per_op".into(),
            stats::per_op(workers / 1e3, ok),
        );
        out.insert(
            "obs.background.cpu_ms_per_s".into(),
            background / 1e6 / self.wall_s,
        );
        let phases: Vec<Phases> = self
            .samples
            .iter()
            .filter(|s| s.ok())
            .filter_map(|s| s.phases)
            .collect();
        let med = |f: fn(&Phases) -> f64| stats::median(&phases.iter().map(f).collect::<Vec<_>>());
        out.insert("server.queue_ms".into(), med(|p| p.queue));
        out.insert("server.parse_ms".into(), med(|p| p.parse));
        out.insert("server.compute_ms".into(), med(|p| p.compute));
        out.insert("server.serialize_ms".into(), med(|p| p.serialize));
        let wire: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok())
            .filter_map(Sample::wire_ms)
            .collect();
        out.insert("client.wire_ms".into(), stats::median(&wire));
        let hits = self.cache_hits() as f64;
        let misses = self.delta(&["cache", "misses"]) as f64;
        out.insert(
            "serve.cache.hit_share".into(),
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
    }
}

/// Starts the server `repeats` times, running `prepare` (e.g. creating
/// sessions) after each start; keeps the last one. Returns it, what the last
/// `prepare` produced, and the median set-up time in seconds.
pub fn start_repeated<P>(
    hcm: &Path,
    repeats: usize,
    mut prepare: impl FnMut(&Server) -> Result<P, String>,
) -> Result<(Server, P, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for k in 0..repeats {
        let t0 = Instant::now();
        let server = Server::start(hcm)?;
        let prepared = prepare(&server)?;
        times.push(t0.elapsed().as_secs_f64());
        if k + 1 == repeats {
            kept = Some((server, prepared));
        } else {
            server.stop();
        }
    }
    let (server, prepared) = kept.ok_or("no server started")?;
    Ok((server, prepared, stats::median(&times)))
}

/// `GET` on a fresh connection, requiring a `200`.
pub fn get_ok(addr: &str, path: &str) -> Result<Response, String> {
    let r = http::once(addr, &http::request("GET", path, &[], b""))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET {path} answered {}", r.status));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::HostCpu;

    #[test]
    fn calm_slices_pick_the_least_stolen_whole_slices() {
        let ms = 1_000_000;
        // Eight 500-ms slices and a 100-ms tail; server CPU grows 50 ms a slice.
        let mut marks: Vec<(u64, u64)> = (0..=8).map(|k| (k * 500 * ms, k * 50 * ms)).collect();
        marks.push((4100 * ms, 410 * ms));
        // Steal ticks per slice (of 100): 9 2 5 1 7 3 8 6, then 0 in the tail.
        let steal = [9, 2, 5, 1, 7, 3, 8, 6, 0];
        let mut host = vec![HostCpu::default()];
        for s in steal {
            let last = *host.last().unwrap();
            host.push(HostCpu {
                total: last.total + 100,
                steal: last.steal + s,
            });
        }
        let calm = calm_slices(&marks, &host, 500 * ms);
        // A quarter of 8 is 2, raised to the minimum of 3; the tail is too short.
        let starts: Vec<u64> = calm.iter().map(|s| s.start / ms).collect();
        assert_eq!(starts, [1500, 500, 2500]);
        assert_eq!(calm[0].steal, 0.01);
        assert_eq!(calm[0].cpu_ns, 50 * ms);
    }
}
