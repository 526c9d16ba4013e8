//! `bench-snapshot` — dependency-free benchmark snapshot for CI trending.
//!
//! This binary times the pillars that matter for regression tracking — the
//! full `characterize` pipeline (measure) and the Sinkhorn standardization
//! at its heart over [`hc_bench::ABLATION_SIZES`], and the values-only
//! spectrum behind TMA over [`SPECTRUM_SIZES`] — with nothing but
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
//! within [`ONE_SHOT_ALLOC_CAP`] allocs/call AND the CSV reader stays within
//! one allocation per name plus [`CSV_ALLOC_SLACK`] (and within the slack
//! alone on a wide header that no data row fills) AND a warm session read
//! stays within [`SESSION_GET_ALLOC_CAP`] — the regression gate
//! `scripts/verify.sh` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use hc_bench::{dense_fixture, ecs_fixture, ABLATION_SIZES};
use hc_core::report::{characterize_in, characterize_with};
use hc_core::standard::{standard_form, TmaOptions};
use hc_core::weights::Weights;
use hc_core::Analyzer;
use hc_gen::{cvb, CvbParams};
use hc_linalg::svd::{spectrum_in, SvdAlgorithm};
use hc_session::{SessionConfig, SessionStore};
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

/// Shapes of the `linalg.spectrum` lane: up to the largest `hcbench`
/// ensemble member, and 1024², four times the L2 of a typical core.
const SPECTRUM_SIZES: [(usize, usize); 6] = [
    (64, 64),
    (128, 128),
    (256, 256),
    (512, 128),
    (512, 512),
    (1024, 1024),
];

/// Shapes of the `spec.csv.parse` lane: the paper's 17×5 and the square
/// sizes of the bodies `POST /session` and `/measure` take in `hcbench`.
const CSV_SIZES: [(usize, usize); 3] = [(17, 5), (64, 64), (128, 128)];

/// Allocations `from_csv` may make per call beyond one per task and machine
/// name: the value buffer, the two name vectors, the reused field list and
/// `Etc::with_names`'s two duplicate-name maps, with two to spare.
const CSV_ALLOC_SLACK: u64 = 8;

/// The reader's body at `(t, m)`: a seeded CVB (V = 0.5) matrix as `to_csv`
/// writes it.
fn csv_body(t: usize, m: usize) -> String {
    hc_spec::csv::to_csv(&cvb(&CvbParams::new(t, m, 0.5, 0.5), 1).expect("CVB fixture generates"))
}

fn parse_csv(body: &str) {
    let etc = hc_spec::csv::from_csv(body).expect("own CSV parses");
    assert!(etc.num_tasks() > 0);
}

/// Columns of the header-only body `--alloc-check` reads: a body that no
/// data row fills must fail within [`CSV_ALLOC_SLACK`] allocations, however
/// wide its header.
const HEADER_ONLY_COLUMNS: usize = 100_000;

/// Allocations `from_csv` makes refusing a header of
/// [`HEADER_ONLY_COLUMNS`] machine columns and no data row.
fn header_only_allocs() -> u64 {
    let body = format!("task{}\n", ",m".repeat(HEADER_ONLY_COLUMNS));
    let refuse = || assert!(hc_spec::csv::from_csv(&body).is_err());
    refuse(); // registers the parse counter
    allocs_during(refuse)
}

/// Shapes of the `session.get` lane: the sizes of the sessions hcbench's
/// `session_edits` edits and reads.
const SESSION_GET_SIZES: [(usize, usize); 2] = [(64, 64), (128, 128)];

/// Allocations a warm session read (`GET /session/{id}` below the router)
/// may make: it hands out the published version's bytes, so none, with two
/// to spare.
const SESSION_GET_ALLOC_CAP: u64 = 2;

/// Reads per timed sample of the `session.get` lane: one read takes well
/// under a microsecond, too little to time alone.
const SESSION_GETS_PER_SAMPLE: u128 = 1_000;

/// A store holding one session of a seeded CVB (V = 0.5) ETC matrix at
/// `(t, m)`, and the session's id.
fn session_fixture(t: usize, m: usize) -> (SessionStore, Arc<str>) {
    let store = SessionStore::new(SessionConfig::default());
    let etc = cvb(&CvbParams::new(t, m, 0.5, 0.5), 1).expect("CVB fixture generates");
    let id = store
        .create(etc.to_ecs(), true, None)
        .expect("fixture session characterizes")
        .id
        .clone();
    (store, id)
}

/// One warm session read: what `GET /session/{id}` does below the router.
fn read_session(store: &SessionStore, id: &str) {
    let resp = hc_serve::session::get(store, id, None).expect("fixture session is live");
    assert!(!resp.body.is_empty());
}

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
    for &(t, m) in &CSV_SIZES {
        let body = csv_body(t, m);
        parse_csv(&body); // registers the parse counter
        let allocs = allocs_during(|| parse_csv(&body));
        let cap = (t + m) as u64 + CSV_ALLOC_SLACK;
        let pass = allocs <= cap;
        println!(
            "from_csv {t}x{m}: {allocs} allocs/call (cap {cap}: one per name + \
             {CSV_ALLOC_SLACK}) {}",
            if pass { "OK" } else { "FAIL" }
        );
        ok &= pass;
    }
    let allocs = header_only_allocs();
    let pass = allocs <= CSV_ALLOC_SLACK;
    println!(
        "from_csv header of {HEADER_ONLY_COLUMNS} columns, no data row: {allocs} \
         allocs/call (cap {CSV_ALLOC_SLACK}) {}",
        if pass { "OK" } else { "FAIL" }
    );
    ok &= pass;
    for &(t, m) in &SESSION_GET_SIZES {
        let (store, id) = session_fixture(t, m);
        read_session(&store, &id);
        let allocs = allocs_during(|| read_session(&store, &id));
        let pass = allocs <= SESSION_GET_ALLOC_CAP;
        println!(
            "session.get {t}x{m}: {allocs} allocs/call (cap {SESSION_GET_ALLOC_CAP}) {}",
            if pass { "OK" } else { "FAIL" }
        );
        ok &= pass;
    }
    if !ok {
        eprintln!(
            "alloc-check FAILED: warm characterize must eliminate >= 90% of cold \
             allocations, one-shot calls must stay within {ONE_SHOT_ALLOC_CAP} allocs, \
             from_csv within one allocation per name + {CSV_ALLOC_SLACK} ({CSV_ALLOC_SLACK} \
             on a header no row fills), and a warm session read within \
             {SESSION_GET_ALLOC_CAP}"
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

    // Spectrum lane: the values-only SVD that TMA runs (`spectrum_in`), with a
    // warm workspace, on the CVB (V = 0.5) standard forms `characterize`
    // hands it. Its Householder reduction dominates above 128².
    for &(t, m) in &SPECTRUM_SIZES {
        let ecs = cvb(&CvbParams::new(t, m, 0.5, 0.5), 1)
            .expect("CVB fixture generates")
            .to_ecs();
        let a = standard_form(&ecs, &TmaOptions::default())
            .expect("fixture standardizes")
            .matrix;
        let mut ws = hc_linalg::Workspace::new();
        let mut spectrum_call = || {
            let (sigma, _) = spectrum_in(a.view(), SvdAlgorithm::Auto, None, &mut ws)
                .expect("fixture has a spectrum");
            assert!(sigma[0].is_finite());
            ws.recycle_vec(sigma);
        };
        spectrum_call(); // populate the workspace
        let spectrum_allocs = allocs_during(&mut spectrum_call);
        let samples = time_ns(spectrum_call);
        results.push(result_json(
            "linalg.spectrum",
            t,
            m,
            samples,
            spectrum_allocs,
        ));
    }

    // CSV lane: `from_csv`, the reader every `/measure`, `/batch` and
    // `POST /session` body goes through before any arithmetic.
    for &(t, m) in &CSV_SIZES {
        let body = csv_body(t, m);
        parse_csv(&body);
        let allocs = allocs_during(|| parse_csv(&body));
        let samples = time_ns(|| parse_csv(&body));
        results.push(result_json("spec.csv.parse", t, m, samples, allocs));
    }

    // Session read lane: a warm `GET /session/{id}` below the router, the
    // request `session_edits` sends most, on the sizes it reads. Each sample
    // times SESSION_GETS_PER_SAMPLE reads and reports the time per read.
    for &(t, m) in &SESSION_GET_SIZES {
        let (store, id) = session_fixture(t, m);
        read_session(&store, &id);
        let allocs = allocs_during(|| read_session(&store, &id));
        let samples = time_ns(|| {
            for _ in 0..SESSION_GETS_PER_SAMPLE {
                read_session(&store, &id);
            }
        })
        .into_iter()
        .map(|ns| ns / SESSION_GETS_PER_SAMPLE)
        .collect();
        results.push(result_json("session.get", t, m, samples, allocs));
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
    // the cost of a clock read and a seqlock frame push or pop on every span
    // open and close, plus the crediting of samples at tick crossings;
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
        // Interleaved for the same reason as the deadline lane; the profiler
        // is started/stopped outside the timed regions.
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

    // Session warm-vs-cold lane: a live session absorbing single-cell edits,
    // once with the production default (warm Sinkhorn from the previous
    // scalings; the SVD always runs cold) and once forced cold. Two gates:
    // the default engine's wall time must stay within 1.3x of cold at every
    // size (the median ratio over interleaved pairs), and on a high-affinity
    // fixture — CVB V = 2 at 64x64, where cold Sinkhorn needs thousands of
    // iterations — warm Sinkhorn must take >= 5x fewer iterations than cold,
    // summed over the patch stream (the warm start's reason to exist,
    // DESIGN.md §12). The CVB seed is the first from 1 whose cold balance
    // converges: some V = 2 seeds stop at the iteration cap (ROADMAP item 2),
    // and a fixture with no cold answer measures nothing.
    let (cvb_seed, cvb_ecs) = (1u64..)
        .find_map(|seed| {
            let etc = hc_gen::cvb(&hc_gen::CvbParams::new(64, 64, 2.0, 2.0), seed)
                .expect("valid CVB parameters");
            let ecs = etc.to_ecs();
            let mut probe = hc_session::SessionEngine::new(ecs.clone()).with_force_cold(true);
            probe.recompute(None).ok().map(|_| (seed, ecs))
        })
        .expect("some CVB seed balances");
    // (name, environment, whether the iteration gate applies)
    let fixtures = [
        ("dense".to_string(), ecs_fixture(64, 64), false),
        ("dense".to_string(), ecs_fixture(256, 256), false),
        ("dense".to_string(), ecs_fixture(512, 512), false),
        (format!("cvb_v2_seed{cvb_seed}"), cvb_ecs, true),
    ];
    for (fixture, ecs, gate_iterations) in fixtures {
        let (t, m) = (ecs.num_tasks(), ecs.num_machines());
        let mut dflt_eng = hc_session::SessionEngine::new(ecs.clone());
        let mut cold_eng = hc_session::SessionEngine::new(ecs).with_force_cold(true);
        let (r, _) = dflt_eng.recompute(None).expect("fixture characterizes");
        dflt_eng.recycle_report(r);
        let (r, _) = cold_eng.recompute(None).expect("fixture characterizes");
        cold_eng.recycle_report(r);

        // Both engines absorb the same edit stream: step `k` nudges diagonal
        // cell `k mod min(t, m)` by ±1%, a real (but small) perturbation, as
        // a PATCH would.
        let mut steps = [0usize; 2];
        let (mut warm_sinkhorn, mut cold_sinkhorn) = (0usize, 0usize);
        let mut timed_patch = |warm: bool| {
            let (eng, step) = if warm {
                (&mut dflt_eng, &mut steps[0])
            } else {
                (&mut cold_eng, &mut steps[1])
            };
            let d = *step % t.min(m);
            let factor = if *step % 2 == 1 { 1.01 } else { 0.99 };
            *step += 1;
            let start = Instant::now();
            let v = eng.ecs().get(d, d) * factor;
            eng.set(d, d, v).expect("diagonal edit stays positive");
            let (report, stats) = eng.recompute(None).expect("fixture characterizes");
            eng.recycle_report(report);
            let ns = start.elapsed().as_nanos();
            if warm {
                assert!(
                    stats.warm && !stats.fallback,
                    "session stays warm across the stream"
                );
                warm_sinkhorn += stats.sinkhorn_iterations;
            } else {
                cold_sinkhorn += stats.sinkhorn_iterations;
            }
            ns
        };
        // Interleaved pairs, alternating which side goes first, so host
        // drift lands on both sides of each pair alike; the gate takes the
        // median of the per-pair ratios.
        timed_patch(true); // warm-up, not recorded
        timed_patch(false);
        let (mut dflt_samples, mut cold_samples, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..RUNS {
            let (dflt, cold) = if pair % 2 == 0 {
                let dflt = timed_patch(true);
                (dflt, timed_patch(false))
            } else {
                let cold = timed_patch(false);
                (timed_patch(true), cold)
            };
            dflt_samples.push(dflt);
            cold_samples.push(cold);
            ratios.push(dflt as f64 / cold as f64);
        }
        let dflt_ns = median_ns(dflt_samples);
        let cold_ns = median_ns(cold_samples);
        ratios.sort_unstable_by(f64::total_cmp);
        let dflt_over_cold = ratios[ratios.len() / 2];
        // The shipped default must never be meaningfully slower than a cold
        // solve.
        assert!(
            dflt_over_cold <= 1.3,
            "{fixture} {t}x{m}: default session path must stay within 1.3x of \
             cold: median per-pair ratio {dflt_over_cold:.3} over {RUNS} pairs \
             (default {dflt_ns} ns, cold {cold_ns} ns)"
        );
        if gate_iterations {
            assert!(
                cold_sinkhorn >= 5 * warm_sinkhorn,
                "{fixture} {t}x{m}: warm Sinkhorn must take >= 5x fewer \
                 iterations than cold over the patch stream (cold \
                 {cold_sinkhorn}, warm {warm_sinkhorn})"
            );
        }
        let ratio = if warm_sinkhorn == 0 {
            0.0
        } else {
            cold_sinkhorn as f64 / warm_sinkhorn as f64
        };
        results.push(format!(
            "{{\"bench\":\"session_warm_vs_cold\",\"fixture\":\"{fixture}\",\
             \"tasks\":{t},\"machines\":{m},\"runs\":{RUNS},\
             \"cold_median_ns\":{cold_ns},\"default_median_ns\":{dflt_ns},\
             \"default_over_cold\":{dflt_over_cold:.3},\
             \"cold_sinkhorn_iterations\":{cold_sinkhorn},\
             \"warm_sinkhorn_iterations\":{warm_sinkhorn},\
             \"sinkhorn_iteration_ratio\":{ratio:.1}}}"
        ));
    }

    // Keep-alive vs reconnect lane: the same paper-sized (17×5) /measure
    // request stream against a real in-process `hc-serve` instance, once over
    // a single HTTP/1.1 keep-alive connection and once with a fresh TCP
    // connection per request. Both streams hit the warmed result cache, so
    // the delta isolates connection setup/teardown — the overhead the epoll
    // reactor's keep-alive support exists to remove. The ≥1.5× throughput
    // claim (DESIGN.md §14) is asserted here, on the median of per-pair
    // ratios over PAIRS interleaved pairs; the lane's keep-alive timings
    // carry median/min/max so scripts/bench_trend.sh gates them like any
    // other lane.
    let keepalive_lane = {
        const T: usize = 17;
        const M: usize = 5;
        const REQS: usize = 100;
        const PAIRS: usize = 15;

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

        // Warm the result cache and the worker pool.
        keepalive_run();
        // Interleave the lanes, alternating which goes first, so clock drift
        // and host noise land on both sides of each pair alike.
        let timed = |run: &dyn Fn()| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos()
        };
        let (mut keep, mut reconn, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            let (k, r) = if pair % 2 == 0 {
                let k = timed(&keepalive_run);
                (k, timed(&reconnect_run))
            } else {
                let r = timed(&reconnect_run);
                (timed(&keepalive_run), r)
            };
            keep.push(k);
            reconn.push(r);
            // Both sides send REQS requests, so the throughput ratio is the
            // inverse ratio of their times.
            ratios.push(r as f64 / k as f64);
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
        ratios.sort_unstable_by(f64::total_cmp);
        let speedup = ratios[ratios.len() / 2];
        assert!(
            speedup >= 1.5,
            "keep-alive must beat per-request reconnect by >= 1.5x at {T}x{M}: \
             median per-pair ratio {speedup:.2} over {PAIRS} pairs \
             (keep-alive {keepalive_rps:.0} rps, reconnect {reconnect_rps:.0} rps)"
        );
        format!(
            "{{\"bench\":\"keepalive_vs_reconnect\",\"tasks\":{T},\"machines\":{M},\
             \"runs\":{PAIRS},\"requests_per_run\":{REQS},\
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
         \"profile\":\"{profile}\",\"linalg_frame\":\"{}\",\"results\":[\n  {}\n]}}",
        hc_linalg::isa::name(),
        results.join(",\n  ")
    );
}
