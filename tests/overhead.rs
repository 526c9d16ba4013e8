//! Verifies the documented observability overhead budget (DESIGN.md §8):
//! with no sink attached, the instrumentation threaded through the analysis
//! pipeline must cost less than 2% of an `hcm measure` run.
//!
//! The budget is checked from first principles rather than by diffing two
//! builds (the uninstrumented build no longer exists): measure the per-call
//! cost of a disarmed span plus an atomic counter bump, multiply by a
//! generous over-estimate of how many instrumentation points one
//! `characterize` run crosses, and compare against the measured runtime of
//! `characterize` itself on a paper-scale matrix (512×512 in release builds;
//! scaled down under debug profiles, where absolute runtimes are inflated but
//! the ratio argument is unchanged).
//!
//! The same argument gates the flight recorder (DESIGN.md §11): its armed
//! per-capture cost, times the hard per-request capture cap, must also stay
//! under 2% of a `characterize` run — and the continuous profiler
//! (DESIGN.md §13): with the profiler running at the default rate, the
//! per-span frame push/pop cost times a generous span-site estimate must
//! stay under 3%.

use std::sync::Mutex;
use std::time::Instant;

use hetero_measures::core::report::characterize_with;
use hetero_measures::core::standard::TmaOptions;
use hetero_measures::core::weights::Weights;
use hetero_measures::prelude::*;

/// Timing tests must not share the process: the profiler test starts a
/// global profiler that would tax every span, and parallel timing runs steal
/// cycles from each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fixture(rows: usize, cols: usize) -> Ecs {
    let m = Matrix::from_fn(rows, cols, |i, j| {
        0.2 + ((i.wrapping_mul(193) + j.wrapping_mul(101)) % 127) as f64 / 127.0
    });
    Ecs::new(m).unwrap()
}

/// Median-of-runs wall time for one `characterize_with` call, in nanoseconds.
fn characterize_ns(ecs: &Ecs, runs: usize) -> u128 {
    let w = Weights::uniform(ecs.num_tasks(), ecs.num_machines());
    let opts = TmaOptions::default();
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            let r = characterize_with(ecs, &w, &opts).unwrap();
            assert!(r.tma.is_finite());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median per-operation cost of one disarmed span open/close plus one counter
/// increment, in nanoseconds — the disabled-path unit the library pays at
/// each instrumentation point.
fn per_probe_ns() -> f64 {
    const OPS: u32 = 20_000;
    let mut samples: Vec<u128> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..OPS {
                let mut g = hc_obs::span("overhead.probe");
                g.field_u64("ignored", 1);
                drop(g);
                hc_obs::obs_counter!("overhead_probe_total").inc();
            }
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / f64::from(OPS)
}

/// Median per-capture cost of the flight recorder's *armed* path, in
/// nanoseconds: one event captured into an active record plus one numeric
/// note, with the per-request `begin`/`finish` bookkeeping amortized in.
fn recorded_probe_ns(rec: &hc_obs::recorder::FlightRecorder) -> f64 {
    const REQUESTS: u32 = 50;
    const EVENTS_PER_REQUEST: u32 = 200; // below MAX_SPANS_PER_RECORD: every one is captured
    let trace = hc_obs::trace::TraceContext::generate();
    let mut samples: Vec<u128> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for r in 0..REQUESTS {
                let guard = rec.begin(&format!("overhead-{r}"), "POST", "/measure", &trace);
                for _ in 0..EVENTS_PER_REQUEST {
                    hc_obs::event(hc_obs::Level::Info, "overhead.recorded", &[]);
                    hc_obs::recorder::note_u64("overhead_iterations", 1);
                }
                guard.finish(hc_obs::recorder::Outcome {
                    status: 200,
                    latency_us: 1,
                    phases: hc_obs::recorder::PhaseTimings::default(),
                    slow: false,
                    panicked: false,
                });
            }
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / f64::from(REQUESTS * EVENTS_PER_REQUEST)
}

#[test]
fn disabled_instrumentation_stays_under_two_percent_budget() {
    let _serial = serial();
    assert!(
        !hc_obs::sink_installed(),
        "overhead test requires no sink; another test leaked one"
    );

    // Debug builds inflate every absolute runtime (the budget ratio still
    // holds, but a 512×512 Jacobi SVD takes minutes), so scale the fixture to
    // the profile while keeping the argument identical.
    let (n, runs) = if cfg!(debug_assertions) {
        (64, 5)
    } else {
        (512, 3)
    };
    let ecs = fixture(n, n);
    characterize_ns(&ecs, 1); // warm-up: page in code paths and allocators
    let work_ns = characterize_ns(&ecs, runs) as f64;
    let probe_ns = per_probe_ns();

    // A characterize run crosses a handful of span sites (core, standardize,
    // svd, sinkhorn, linalg) and a few counter/histogram updates; 64 is a
    // generous over-estimate even counting Sinkhorn-iteration-level effects.
    const SITES_PER_RUN: f64 = 64.0;
    let overhead = SITES_PER_RUN * probe_ns;
    let ratio = overhead / work_ns;
    assert!(
        ratio < 0.02,
        "disabled-path instrumentation exceeds budget: {SITES_PER_RUN} sites x \
         {probe_ns:.1} ns = {overhead:.0} ns against {work_ns:.0} ns of work \
         ({:.3}% >= 2%)",
        ratio * 100.0
    );
}

/// The flight recorder's own budget (DESIGN.md §11): with a record *active*,
/// the worst case the recorder can add to a request — every one of its
/// [`hc_obs::recorder::MAX_SPANS_PER_RECORD`] capture slots filled, each
/// capture paired with a numeric note, plus the begin/finish bookkeeping —
/// must still cost less than 2% of one `characterize` run. Checked from
/// first principles like the test above: measured per-capture cost times the
/// hard per-request capture cap, against measured analysis time.
#[test]
fn recorder_overhead_stays_under_two_percent_budget() {
    let _serial = serial();
    let (n, runs) = if cfg!(debug_assertions) {
        (64, 5)
    } else {
        (512, 3)
    };
    let ecs = fixture(n, n);
    characterize_ns(&ecs, 1); // warm-up
    let work_ns = characterize_ns(&ecs, runs) as f64;

    let rec = hc_obs::recorder::FlightRecorder::new(256, 64);
    let probe_ns = recorded_probe_ns(&rec);

    // A request cannot capture more than MAX_SPANS_PER_RECORD spans/events;
    // everything past the cap is a counter bump, strictly cheaper than the
    // capture cost measured above. So cap x per-capture bounds the
    // recorder's worst-case per-request cost from above.
    let sites = hc_obs::recorder::MAX_SPANS_PER_RECORD as f64;
    let overhead = sites * probe_ns;
    let ratio = overhead / work_ns;
    assert!(
        ratio < 0.02,
        "armed flight recorder exceeds budget: {sites} captures x {probe_ns:.1} ns \
         = {overhead:.0} ns against {work_ns:.0} ns of work ({:.3}% >= 2%)",
        ratio * 100.0
    );
}

/// Median cost of one TSDB collector tick, in nanoseconds: a full registry
/// sweep into the tiered rings plus the handful of serve-side gauge records
/// the 1 Hz collector thread performs (DESIGN.md §16).
fn tsdb_tick_ns(tsdb: &hc_obs::tsdb::Tsdb, ts: &mut u64) -> f64 {
    const TICKS: u32 = 200;
    let mut samples: Vec<u128> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..TICKS {
                *ts += 1;
                tsdb.collect_registry(*ts);
                for g in [
                    "serve_latency_p50_us",
                    "serve_latency_p99_us",
                    "serve_cache_hit_rate",
                    "serve_overload_state",
                    "serve_slo_burn_short",
                    "serve_workers_live",
                    "serve_connections_open",
                    "serve_requests_in_flight",
                ] {
                    tsdb.record(hc_obs::tsdb::Kind::Gauge, g, *ts, 1.0);
                }
            }
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / f64::from(TICKS)
}

/// The TSDB collector's budget (DESIGN.md §16): the collector thread fires
/// once per second, so one tick — a full registry sweep plus the serve gauge
/// set — must cost less than 2% of the 10^9 ns between ticks. Checked from
/// first principles: measured per-tick cost against the wall-clock second,
/// with the registry pre-populated the way a long-serving process would be.
#[test]
fn tsdb_collector_tick_stays_under_two_percent_of_a_second() {
    let _serial = serial();
    // A serving process accumulates tens of counters and histograms; make the
    // sweep pay for a generous 64 counters + 16 histograms.
    for i in 0..64 {
        hc_obs::metrics::counter_owned(format!("tsdb_budget_counter_{i}")).inc();
    }
    for i in 0..16u64 {
        let name: &'static str = Box::leak(format!("tsdb_budget_histogram_{i}").into_boxed_str());
        hc_obs::metrics::histogram(name).observe(i * 17);
    }
    let tsdb = hc_obs::tsdb::Tsdb::new(&hc_obs::tsdb::DEFAULT_TIERS);
    let mut ts = 1u64;
    tsdb.collect_registry(ts); // warm-up: create every series once
    let tick = tsdb_tick_ns(&tsdb, &mut ts);

    let ratio = tick / 1e9;
    assert!(
        ratio < 0.02,
        "tsdb collector tick exceeds budget: {tick:.0} ns against the 1e9 ns \
         1 Hz period ({:.4}% >= 2%)",
        ratio * 100.0
    );
}

/// Median per-span cost of the profiler's *armed* path, in nanoseconds: one
/// clock read and one seqlock frame push or pop per span open and close,
/// plus the crediting of the samples whenever a change crosses a tick.
fn profiled_span_ns() -> f64 {
    const OPS: u32 = 20_000;
    let mut samples: Vec<u128> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..OPS {
                drop(hc_obs::span("overhead.profiled.probe"));
            }
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / f64::from(OPS)
}

/// The continuous profiler's budget (DESIGN.md §13): with the profiler
/// running at the default 99 Hz, the per-span frame bookkeeping times a
/// generous over-estimate of span sites per `characterize` run must cost
/// less than 3% of the run. There is no sampler thread: each span's two
/// clock reads and its crediting at tick crossings are the whole cost, and
/// it scales with work.
#[test]
fn profiler_overhead_stays_under_three_percent_budget() {
    let _serial = serial();
    let (n, runs) = if cfg!(debug_assertions) {
        (64, 5)
    } else {
        (512, 3)
    };
    let ecs = fixture(n, n);
    characterize_ns(&ecs, 1); // warm-up
    let work_ns = characterize_ns(&ecs, runs) as f64;

    let started = hc_obs::profile::start(99);
    let probe_ns = profiled_span_ns();
    if started {
        hc_obs::profile::stop();
    }

    // Span sites per characterize run: the fixed pipeline spans plus the
    // per-32-iteration Sinkhorn batches and per-sweep Jacobi spans. 512 is a
    // generous over-estimate at paper scale.
    const SITES_PER_RUN: f64 = 512.0;
    let overhead = SITES_PER_RUN * probe_ns;
    let ratio = overhead / work_ns;
    assert!(
        ratio < 0.03,
        "profiled span path exceeds budget: {SITES_PER_RUN} sites x \
         {probe_ns:.1} ns = {overhead:.0} ns against {work_ns:.0} ns of work \
         ({:.3}% >= 3%)",
        ratio * 100.0
    );
}
