//! `bench-snapshot` — dependency-free benchmark snapshot for CI trending.
//!
//! This binary times the two pillars that matter for regression tracking —
//! the full `characterize` pipeline (measure) and the Sinkhorn standardization
//! at its heart — over [`hc_bench::ABLATION_SIZES`] with nothing but
//! `std::time`, and prints one JSON document to stdout.
//! `scripts/bench_snapshot.sh` redirects it into a dated `BENCH_<date>.json`.
//!
//! A counting global allocator also records heap allocations per call, in
//! three lanes: a cold `characterize_in` with a fresh `Workspace` every call
//! (the true allocation baseline), the one-shot `characterize_with` entry
//! point (which routes through a per-thread pooled workspace), and a warm
//! [`Analyzer`] (steady state of `hcm serve`). `--alloc-check` runs only the
//! allocation comparison and fails unless the warm lane eliminates at least
//! 90% of the cold lane's allocations AND the one-shot entry point stays
//! within [`ONE_SHOT_ALLOC_CAP`] allocs/call — the regression gate
//! `scripts/verify.sh` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use hc_bench::{dense_fixture, ecs_fixture, ABLATION_SIZES};
use hc_core::report::{characterize_in, characterize_with};
use hc_core::standard::TmaOptions;
use hc_core::weights::Weights;
use hc_core::Analyzer;
use hc_sinkhorn::balance::{balance_with, standard_targets, BalanceOptions};

/// `System` wrapped with an allocation counter, so the snapshot can report
/// allocs-per-call alongside wall time. Only allocation events are counted
/// (alloc/realloc/alloc_zeroed); frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Samples per benchmark point; the median is reported so one scheduler
/// hiccup cannot skew a snapshot.
const RUNS: usize = 7;

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_ns<F: FnMut()>(mut f: F) -> Vec<u128> {
    f(); // warm-up, not recorded
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect()
}

/// Heap allocations performed by one invocation of `f` (after the caller has
/// already warmed `f` so pools and caches are populated).
fn allocs_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn result_json(
    bench: &str,
    tasks: usize,
    machines: usize,
    samples: Vec<u128>,
    allocs_per_call: u64,
) -> String {
    let min = samples.iter().min().copied().unwrap_or(0);
    let max = samples.iter().max().copied().unwrap_or(0);
    let median = median_ns(samples);
    format!(
        "{{\"bench\":\"{bench}\",\"tasks\":{tasks},\"machines\":{machines},\
         \"runs\":{RUNS},\"median_ns\":{median},\"min_ns\":{min},\"max_ns\":{max},\
         \"allocs_per_call\":{allocs_per_call}}}"
    )
}

/// Ceiling on steady-state allocations per one-shot `characterize_with`
/// call. The pooled per-thread workspace covers every intermediate; only the
/// report's two output vectors (plus occasional pool growth on shape
/// changes) may still hit the allocator.
const ONE_SHOT_ALLOC_CAP: u64 = 6;

/// One ablation point of the characterize alloc comparison.
struct AllocPoint {
    cold: u64,
    one_shot: u64,
    warm: u64,
}

/// Measures allocations per `characterize` call at `(t, m)`: a fresh
/// `Workspace` every call (cold baseline), the one-shot entry point (pooled
/// per-thread workspace), and a warm `Analyzer` with a populated workspace.
fn characterize_alloc_point(t: usize, m: usize) -> AllocPoint {
    let ecs = ecs_fixture(t, m);
    let opts = TmaOptions::default();

    let w = Weights::uniform(t, m);
    let mut cold_call = || {
        let mut ws = hc_linalg::Workspace::new();
        let r = characterize_in(&ecs, &w, &opts, None, &mut ws).expect("fixture characterizes");
        assert!(r.tma.is_finite());
    };
    cold_call(); // warm caches unrelated to the workspace
    let cold = allocs_during(&mut cold_call);

    let mut one_shot_call = || {
        let r = characterize_with(&ecs, &w, &opts).expect("fixture characterizes");
        assert!(r.tma.is_finite());
    };
    one_shot_call(); // populate this thread's pooled workspace
    let one_shot = allocs_during(&mut one_shot_call);

    let mut an = Analyzer::new();
    let mut warm_call = || {
        let r = an
            .characterize_with(&ecs, None, &opts)
            .expect("fixture characterizes");
        assert!(r.tma.is_finite());
        an.recycle_report(r);
    };
    warm_call(); // cold call populates the workspace pool
    let warm = allocs_during(&mut warm_call);

    AllocPoint {
        cold,
        one_shot,
        warm,
    }
}

/// `--alloc-check`: prints the per-size comparison and fails unless warm
/// calls drop at least 90% of the cold lane's allocations at every size and
/// the one-shot entry point stays within [`ONE_SHOT_ALLOC_CAP`].
fn alloc_check() -> ! {
    let mut ok = true;
    for &(t, m) in &ABLATION_SIZES {
        let p = characterize_alloc_point(t, m);
        let reduction = if p.cold == 0 {
            100.0
        } else {
            100.0 * (1.0 - p.warm as f64 / p.cold as f64)
        };
        let pass = p.warm * 10 <= p.cold && p.one_shot <= ONE_SHOT_ALLOC_CAP;
        println!(
            "characterize {t}x{m}: cold {} allocs/call, one-shot {} allocs/call, \
             warm analyzer {} allocs/call ({reduction:.1}% reduction vs cold) {}",
            p.cold,
            p.one_shot,
            p.warm,
            if pass { "OK" } else { "FAIL" }
        );
        ok &= pass;
    }
    if !ok {
        eprintln!(
            "alloc-check FAILED: warm characterize must eliminate >= 90% of cold \
             allocations and one-shot calls must stay within {ONE_SHOT_ALLOC_CAP} allocs"
        );
        std::process::exit(1);
    }
    println!("alloc-check OK");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--alloc-check") {
        alloc_check();
    }

    let mut results = Vec::new();
    for &(t, m) in &ABLATION_SIZES {
        let alloc_point = characterize_alloc_point(t, m);

        let ecs = ecs_fixture(t, m);
        let w = Weights::uniform(t, m);
        let opts = TmaOptions::default();
        let samples = time_ns(|| {
            let r = characterize_with(&ecs, &w, &opts).expect("fixture characterizes");
            assert!(r.tma.is_finite());
        });
        results.push(result_json(
            "measure.characterize",
            t,
            m,
            samples,
            alloc_point.one_shot,
        ));

        let mut an = Analyzer::new();
        let samples = time_ns(|| {
            let r = an
                .characterize_with(&ecs, None, &opts)
                .expect("fixture characterizes");
            assert!(r.tma.is_finite());
            an.recycle_report(r);
        });
        results.push(result_json(
            "measure.characterize_warm",
            t,
            m,
            samples,
            alloc_point.warm,
        ));

        let a = dense_fixture(t, m);
        let (rows, cols) = standard_targets(t, m);
        let opts = BalanceOptions::default();
        let mut balance_call = || {
            let out = balance_with(&a, &rows, &cols, &opts).expect("fixture balances");
            assert!(out.iterations > 0);
        };
        balance_call();
        let balance_allocs = allocs_during(&mut balance_call);
        let samples = time_ns(balance_call);
        results.push(result_json(
            "sinkhorn.balance",
            t,
            m,
            samples,
            balance_allocs,
        ));
    }

    // Deadline-overhead lane: the same warm 512×512 characterize with and
    // without a (generous, never-firing) Budget threaded through the kernels.
    // The delta is the cost of per-iteration cancellation checks; it is
    // reported, not gated, and is expected to stay under ~1%.
    let deadline_overhead = {
        const SIZE: usize = 512;
        let ecs = ecs_fixture(SIZE, SIZE);
        let opts = TmaOptions::default();
        let budget = hc_linalg::Budget::with_deadline(std::time::Duration::from_secs(3600));
        let mut an = Analyzer::new();
        let mut timed = |budget: Option<&hc_linalg::Budget>| {
            let t = Instant::now();
            let r = an
                .characterize_budgeted(&ecs, None, &opts, budget)
                .expect("fixture characterizes");
            assert!(r.tma.is_finite());
            an.recycle_report(r);
            t.elapsed().as_nanos()
        };
        timed(None); // warm-up, not recorded
        let (mut plain, mut budgeted) = (Vec::new(), Vec::new());
        // Interleave the lanes so clock/thermal drift cannot masquerade as
        // cancellation-check overhead.
        for _ in 0..3 {
            plain.push(timed(None));
            budgeted.push(timed(Some(&budget)));
        }
        let plain_ns = median_ns(plain);
        let budgeted_ns = median_ns(budgeted);
        let overhead_pct = if plain_ns == 0 {
            0.0
        } else {
            100.0 * (budgeted_ns as f64 - plain_ns as f64) / plain_ns as f64
        };
        format!(
            "{{\"bench\":\"deadline_overhead\",\"tasks\":{SIZE},\"machines\":{SIZE},\
             \"plain_median_ns\":{plain_ns},\"budgeted_median_ns\":{budgeted_ns},\
             \"overhead_pct\":{overhead_pct:.3}}}"
        )
    };
    results.push(deadline_overhead);

    // Recorder-overhead lane: the same warm 512×512 characterize with and
    // without an active flight record (`--record-requests 0` vs the default).
    // The delta is the cost of span capture + numeric notes on the armed
    // path; reported, not gated (tests/overhead.rs gates the budget at <2%).
    let recorder_overhead = {
        const SIZE: usize = 512;
        let ecs = ecs_fixture(SIZE, SIZE);
        let opts = TmaOptions::default();
        let recorder = hc_obs::recorder::FlightRecorder::new(256, 64);
        let trace = hc_obs::trace::TraceContext::generate();
        let mut an = Analyzer::new();
        let run = |an: &mut Analyzer| {
            let r = an
                .characterize_with(&ecs, None, &opts)
                .expect("fixture characterizes");
            assert!(r.tma.is_finite());
            an.recycle_report(r);
        };
        let timed_off = |an: &mut Analyzer| {
            let t = Instant::now();
            run(an);
            t.elapsed().as_nanos()
        };
        let timed_on = |an: &mut Analyzer, i: usize| {
            let id = format!("bench-{i}");
            let t = Instant::now();
            let guard = recorder.begin(&id, "POST", "/measure", &trace);
            run(an);
            guard.finish(hc_obs::recorder::Outcome {
                status: 200,
                latency_us: 0,
                phases: hc_obs::recorder::PhaseTimings::default(),
                slow: false,
                panicked: false,
            });
            t.elapsed().as_nanos()
        };
        timed_off(&mut an); // warm-up, not recorded
        let (mut off, mut on) = (Vec::new(), Vec::new());
        // Interleaved for the same reason as the deadline lane.
        for i in 0..3 {
            off.push(timed_off(&mut an));
            on.push(timed_on(&mut an, i));
        }
        let off_ns = median_ns(off);
        let on_ns = median_ns(on);
        let overhead_pct = if off_ns == 0 {
            0.0
        } else {
            100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64
        };
        format!(
            "{{\"bench\":\"recorder_overhead\",\"tasks\":{SIZE},\"machines\":{SIZE},\
             \"recorder_off_median_ns\":{off_ns},\"recorder_on_median_ns\":{on_ns},\
             \"overhead_pct\":{overhead_pct:.3}}}"
        )
    };
    results.push(recorder_overhead);

    // Profiler-overhead lane: the same warm 512×512 characterize with the
    // sampling profiler stopped vs running at the default 99 Hz. The delta is
    // the cost of seqlock frame pushes on every span plus sampler contention;
    // reported, not gated (tests/overhead.rs gates the budget at <3%).
    let profiler_overhead = {
        const SIZE: usize = 512;
        let ecs = ecs_fixture(SIZE, SIZE);
        let opts = TmaOptions::default();
        let mut an = Analyzer::new();
        let timed = |an: &mut Analyzer| {
            let t = Instant::now();
            let r = an
                .characterize_with(&ecs, None, &opts)
                .expect("fixture characterizes");
            assert!(r.tma.is_finite());
            an.recycle_report(r);
            t.elapsed().as_nanos()
        };
        timed(&mut an); // warm-up, not recorded
        let (mut off, mut on) = (Vec::new(), Vec::new());
        // Interleaved for the same reason as the deadline lane; the sampler
        // thread is started/stopped outside the timed regions.
        for _ in 0..3 {
            assert!(!hc_obs::profile::running(), "profiler must start stopped");
            off.push(timed(&mut an));
            assert!(hc_obs::profile::start(99), "profiler starts for on-lane");
            on.push(timed(&mut an));
            hc_obs::profile::stop();
        }
        let off_ns = median_ns(off);
        let on_ns = median_ns(on);
        let overhead_pct = if off_ns == 0 {
            0.0
        } else {
            100.0 * (on_ns as f64 - off_ns as f64) / off_ns as f64
        };
        format!(
            "{{\"bench\":\"profiler_overhead\",\"tasks\":{SIZE},\"machines\":{SIZE},\
             \"profiler_off_median_ns\":{off_ns},\"profiler_on_median_ns\":{on_ns},\
             \"overhead_pct\":{overhead_pct:.3}}}"
        )
    };
    results.push(profiler_overhead);

    // TSDB-overhead lane: the cost of one 1 Hz collector tick — a full
    // `hc_obs` registry sweep into the tiered rings (DESIGN.md §16) —
    // expressed as a percentage of the one-second budget between ticks.
    // Ticks are interleaved with real 256×256 characterize work so the
    // metric registry is warm and mutating as it would be mid-serve;
    // reported here, gated <2% in tests/overhead.rs.
    let tsdb_overhead = {
        const SIZE: usize = 256;
        let ecs = ecs_fixture(SIZE, SIZE);
        let opts = TmaOptions::default();
        let mut an = Analyzer::new();
        let tsdb = hc_obs::tsdb::Tsdb::new(&hc_obs::tsdb::DEFAULT_TIERS);
        let mut ts = 1_000u64;
        tsdb.collect_registry(ts); // warm-up: series created, not recorded
        let mut ticks = Vec::new();
        for _ in 0..RUNS {
            let r = an
                .characterize_with(&ecs, None, &opts)
                .expect("fixture characterizes");
            an.recycle_report(r);
            ts += 1;
            let t = Instant::now();
            tsdb.collect_registry(ts);
            ticks.push(t.elapsed().as_nanos());
        }
        let series = tsdb.series_names().len();
        let tick_ns = median_ns(ticks);
        // One tick per second: the fraction of a serving second spent here.
        let overhead_pct = tick_ns as f64 / 1e9 * 100.0;
        format!(
            "{{\"bench\":\"tsdb_overhead\",\"series\":{series},\
             \"tsdb_bytes\":{},\"tick_median_ns\":{tick_ns},\
             \"overhead_pct\":{overhead_pct:.4}}}",
            tsdb.bytes()
        )
    };
    results.push(tsdb_overhead);

    // Session warm-vs-cold lane: a live session absorbing single-cell edits.
    // Three engines over the same fixture: one warm-starting with the cutover
    // disabled (isolates the solver's iteration savings), one forced cold
    // (baseline), and one with the production default — which above
    // DEFAULT_WARM_CUTOVER_CELLS cold-solves instead (the per-iteration cost
    // of a warm Sinkhorn sweep grows with the matrix while the saved
    // iterations do not, so warm starting LOSES wall time at 256x256+ despite
    // a 100x+ iteration reduction). Two gates: the >= 5x iteration reduction
    // at 512x512 (the subsystem's reason to exist, DESIGN.md §12) and —
    // because iteration ratio alone hid a wall-time regression — the default
    // engine's wall time must stay within 1.3x of cold at every size.
    for &n in &[64usize, 256, 512] {
        let ecs = ecs_fixture(n, n);
        let mut warm_eng =
            hc_session::SessionEngine::new(ecs.clone()).with_warm_cutover(usize::MAX);
        let mut dflt_eng = hc_session::SessionEngine::new(ecs.clone());
        let mut cold_eng = hc_session::SessionEngine::new(ecs).with_force_cold(true);
        let (r, cold_first) = warm_eng.recompute(None).expect("fixture characterizes");
        warm_eng.recycle_report(r);
        let (r, _) = dflt_eng.recompute(None).expect("fixture characterizes");
        dflt_eng.recycle_report(r);
        let (r, _) = cold_eng.recompute(None).expect("fixture characterizes");
        cold_eng.recycle_report(r);
        let cold_iterations = cold_first.total_iterations();
        let over_cutover = n * n > hc_session::DEFAULT_WARM_CUTOVER_CELLS;

        let mut edit_step = 0usize;
        let mut patch = |eng: &mut hc_session::SessionEngine| {
            // Walk the diagonal, nudging one cell +/-1% so every recompute
            // absorbs a real (but small) perturbation, as a PATCH would.
            let t = edit_step % n;
            edit_step += 1;
            let factor = if edit_step.is_multiple_of(2) {
                1.01
            } else {
                0.99
            };
            let v = eng.ecs().get(t, t) * factor;
            eng.set(t, t, v).expect("diagonal edit stays positive");
            eng.recompute(None).expect("fixture characterizes")
        };

        let (report, warm_stats) = patch(&mut warm_eng);
        assert!(
            warm_stats.warm && !warm_stats.fallback,
            "warm path must hold"
        );
        warm_eng.recycle_report(report);
        let warm_iterations = warm_stats.total_iterations();
        if n == 512 {
            assert!(
                cold_iterations >= 5 * warm_iterations,
                "warm 512x512 single-cell patch must save >= 5x combined \
                 iterations (cold {cold_iterations}, warm {warm_iterations})"
            );
        }

        let warm_samples = time_ns(|| {
            let (report, stats) = patch(&mut warm_eng);
            assert!(stats.warm, "session stays warm across the stream");
            warm_eng.recycle_report(report);
        });
        let dflt_samples = time_ns(|| {
            let (report, stats) = patch(&mut dflt_eng);
            assert_eq!(
                stats.cutover, over_cutover,
                "default engine cuts over exactly above the cell threshold"
            );
            dflt_eng.recycle_report(report);
        });
        let cold_samples = time_ns(|| {
            let (report, _) = patch(&mut cold_eng);
            cold_eng.recycle_report(report);
        });
        let warm_ns = median_ns(warm_samples);
        let dflt_ns = median_ns(dflt_samples);
        let cold_ns = median_ns(cold_samples);
        // The wall-time gate the iteration ratio cannot express: the shipped
        // default must never be meaningfully slower than a cold solve.
        assert!(
            dflt_ns * 10 <= cold_ns * 13,
            "{n}x{n}: default session path ({dflt_ns} ns) must stay within \
             1.3x of cold ({cold_ns} ns); the warm cutover exists to \
             guarantee this"
        );
        let ratio = if warm_iterations == 0 {
            0.0
        } else {
            cold_iterations as f64 / warm_iterations as f64
        };
        results.push(format!(
            "{{\"bench\":\"session_warm_vs_cold\",\"tasks\":{n},\"machines\":{n},\
             \"runs\":{RUNS},\"cold_median_ns\":{cold_ns},\"warm_median_ns\":{warm_ns},\
             \"default_median_ns\":{dflt_ns},\"cutover\":{over_cutover},\
             \"cold_iterations\":{cold_iterations},\"warm_iterations\":{warm_iterations},\
             \"iteration_ratio\":{ratio:.1}}}"
        ));
    }

    // Keep-alive vs reconnect lane: the same paper-sized (17×5) /measure
    // request stream against a real in-process `hc-serve` instance, once over
    // a single HTTP/1.1 keep-alive connection and once with a fresh TCP
    // connection per request. Both streams hit the warmed result cache, so
    // the delta isolates connection setup/teardown — the overhead the epoll
    // reactor's keep-alive support exists to remove. The ≥1.5× throughput
    // claim (DESIGN.md §14) is asserted here; the lane's keep-alive timings
    // carry median/min/max so scripts/bench_trend.sh gates them like any
    // other lane.
    let keepalive_lane = {
        const T: usize = 17;
        const M: usize = 5;
        const REQS: usize = 100;

        let ecs = ecs_fixture(T, M);
        let mut body = String::from("task");
        for name in ecs.machine_names() {
            body.push(',');
            body.push_str(name);
        }
        body.push('\n');
        for (i, name) in ecs.task_names().iter().enumerate() {
            body.push_str(name);
            for j in 0..M {
                body.push_str(&format!(",{}", ecs.get(i, j)));
            }
            body.push('\n');
        }

        let handle = hc_serve::start(hc_serve::Config {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_entries: 64,
            ..hc_serve::Config::default()
        })
        .expect("bench server starts");
        let addr = handle.local_addr();
        let keep_req = format!(
            "POST /measure HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let close_req = format!(
            "POST /measure HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );

        // Reads one framed response from a keep-alive stream; `pending`
        // carries bytes read past the previous response's end.
        fn read_response(stream: &mut std::net::TcpStream, pending: &mut Vec<u8>) {
            use std::io::Read;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                if let Some(head_end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&pending[..head_end]);
                    let content_length: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .expect("response carries Content-Length");
                    let total = head_end + 4 + content_length;
                    if pending.len() >= total {
                        pending.drain(..total);
                        return;
                    }
                }
                let n = stream.read(&mut chunk).expect("bench response read");
                assert!(n > 0, "server closed mid-response");
                pending.extend_from_slice(&chunk[..n]);
            }
        }

        let keepalive_run = || {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(addr).expect("bench connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut pending = Vec::new();
            for _ in 0..REQS {
                stream.write_all(keep_req.as_bytes()).expect("bench write");
                read_response(&mut stream, &mut pending);
            }
        };
        let reconnect_run = || {
            use std::io::{Read, Write};
            for _ in 0..REQS {
                let mut stream = std::net::TcpStream::connect(addr).expect("bench connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.write_all(close_req.as_bytes()).expect("bench write");
                let mut out = Vec::new();
                stream.read_to_end(&mut out).expect("bench response read");
                assert!(!out.is_empty(), "empty response");
            }
        };

        keepalive_run(); // warm the result cache and the worker pool
                         // Interleave the lanes so clock drift cannot masquerade as a
                         // keep-alive win.
        let (mut keep, mut reconn) = (Vec::new(), Vec::new());
        for _ in 0..RUNS {
            let t = Instant::now();
            keepalive_run();
            keep.push(t.elapsed().as_nanos());
            let t = Instant::now();
            reconnect_run();
            reconn.push(t.elapsed().as_nanos());
        }
        handle.shutdown();
        handle.join();

        let (keep_min, keep_max) = (
            keep.iter().min().copied().unwrap_or(0),
            keep.iter().max().copied().unwrap_or(0),
        );
        let keep_median = median_ns(keep);
        let reconn_median = median_ns(reconn);
        let rps = |total_ns: u128| REQS as f64 / (total_ns as f64 / 1e9);
        let keepalive_rps = rps(keep_median);
        let reconnect_rps = rps(reconn_median);
        let speedup = keepalive_rps / reconnect_rps;
        assert!(
            speedup >= 1.5,
            "keep-alive must beat per-request reconnect by >= 1.5x at {T}x{M} \
             (keep-alive {keepalive_rps:.0} rps, reconnect {reconnect_rps:.0} rps)"
        );
        format!(
            "{{\"bench\":\"keepalive_vs_reconnect\",\"tasks\":{T},\"machines\":{M},\
             \"runs\":{RUNS},\"requests_per_run\":{REQS},\
             \"median_ns\":{keep_median},\"min_ns\":{keep_min},\"max_ns\":{keep_max},\
             \"reconnect_median_ns\":{reconn_median},\
             \"keepalive_rps\":{keepalive_rps:.1},\"reconnect_rps\":{reconnect_rps:.1},\
             \"speedup\":{speedup:.2}}}"
        )
    };
    results.push(keepalive_lane);

    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"schema\":\"hc-bench-snapshot/v2\",\"unix_time\":{ts},\
         \"profile\":\"{profile}\",\"results\":[\n  {}\n]}}",
        results.join(",\n  ")
    );
}
