//! Edge-case tests for the continuous profiler: thread churn races, empty
//! stacks, unwinding requests, and the absence of a sampler thread. The
//! profiler is process-global (one tick grid, one store), and each file
//! under `tests/` is its own process, so this binary owns it outright —
//! tests still serialize on a mutex because the harness runs them on
//! multiple threads.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Threads that register, push spans, and exit in a tight loop while the
/// profiler runs and a query credits their open stacks must never panic or
/// deadlock, and the registry must prune dead threads rather than grow
/// without bound.
#[test]
fn profiler_survives_thread_churn() {
    let _guard = serial();
    hc_obs::profile::reset_store();
    assert!(hc_obs::profile::start(997));

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let query = {
        let done = std::sync::Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                hc_obs::profile::render_folded(None);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    for round in 0..8 {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    // Register with the profiler, hold nested spans briefly,
                    // then exit — racing the query's snapshot walk.
                    let _outer = hc_obs::span("profile.test.churn.outer");
                    {
                        let _inner = hc_obs::span("profile.test.churn.inner");
                        std::thread::sleep(Duration::from_millis(2 + round % 3));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("churn worker exits cleanly");
        }
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    query.join().expect("query thread exits cleanly");
    // One more query after every churn thread has died prunes the registry.
    let folded = hc_obs::profile::render_folded(None);
    hc_obs::profile::stop();
    assert!(!hc_obs::profile::running());
    assert!(
        folded.contains("profile.test.churn.outer;profile.test.churn.inner"),
        "{folded}"
    );
}

/// A registered thread holding no spans contributes idle ticks, not samples:
/// the folded output stays empty rather than inventing frames.
#[test]
fn empty_stacks_produce_no_frames() {
    let _guard = serial();
    hc_obs::profile::reset_store();
    assert!(hc_obs::profile::start(997));
    {
        // Register this thread by opening and immediately closing a span,
        // then sit idle long enough for several ticks.
        drop(hc_obs::span("profile.test.idle.register"));
        std::thread::sleep(Duration::from_millis(40));
    }
    hc_obs::profile::stop();
    let folded = hc_obs::profile::render_folded(None);
    assert!(
        !folded.contains("profile.test.idle.register"),
        "an idle thread must not be attributed lingering frames: {folded:?}"
    );
}

/// A request that panics unwinds through its span guards, so the thread's
/// stack depth returns to zero and later samples see only live frames.
#[test]
fn panicked_request_unwinds_its_frames() {
    let _guard = serial();
    hc_obs::profile::reset_store();
    assert!(hc_obs::profile::start(997));

    let result = std::panic::catch_unwind(|| {
        let _outer = hc_obs::span("profile.test.panic.outer");
        let _inner = hc_obs::span("profile.test.panic.inner");
        panic!("injected");
    });
    assert!(result.is_err(), "the probe panic must propagate");

    // After the unwind, hold a fresh span long enough to be sampled; it must
    // appear as a root, not nested under the panicked request's frames.
    {
        let _after = hc_obs::span("profile.test.panic.after");
        std::thread::sleep(Duration::from_millis(60));
    }
    hc_obs::profile::stop();
    let folded = hc_obs::profile::render_folded(None);
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("profile.test.panic.after ")),
        "post-panic span must be sampled as a root frame: {folded:?}"
    );
    assert!(
        !folded.contains("outer;profile.test.panic.after")
            && !folded.contains("inner;profile.test.panic.after"),
        "panicked frames must not leak under later spans: {folded:?}"
    );
}

/// `start(0)` refuses to run and a stopped profiler serves a clean restart,
/// so the serve flag `--profile-hz 0` genuinely disables sampling.
#[test]
fn zero_hz_disables_and_restart_works() {
    let _guard = serial();
    hc_obs::profile::reset_store();
    assert!(!hc_obs::profile::start(0));
    assert!(!hc_obs::profile::running());

    assert!(hc_obs::profile::start(251));
    assert!(hc_obs::profile::running());
    assert_eq!(hc_obs::profile::hz(), 251);
    // Second start is first-wins: reports false, keeps the original rate.
    assert!(!hc_obs::profile::start(13));
    assert_eq!(hc_obs::profile::hz(), 251);
    hc_obs::profile::stop();
    assert!(!hc_obs::profile::running());
}

/// `start` spawns no thread: each thread samples its own stack at its span
/// boundaries, so no `hc-profile-sampler` thread runs beside the profiler.
#[test]
fn start_spawns_no_sampler_thread() {
    let _guard = serial();
    assert!(hc_obs::profile::start(997));
    drop(hc_obs::span("profile.test.no_sampler"));
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect();
    hc_obs::profile::stop();
    assert!(!names.is_empty());
    // `comm` holds at most 15 bytes: "hc-profile-samp".
    assert!(
        !names.iter().any(|n| n.starts_with("hc-profile-samp")),
        "threads: {names:?}"
    );
}
