//! Worker thread pool with a bounded request queue and a batch subtask lane.
//!
//! Two queues, one worker set:
//!
//! * **requests** — bounded at `queue_depth`. The accept loop calls
//!   [`Pool::try_execute`]; when the queue is full the job is handed back so
//!   the caller can shed load with `503 Retry-After` instead of buffering
//!   unboundedly (backpressure, not OOM).
//! * **subtasks** — an unbounded lane for `/batch` fan-out, drained in
//!   *preference* to requests. It cannot grow without bound in practice: only
//!   running batch handlers (≤ worker count) feed it, each bounded by its
//!   request's matrix count.
//!
//! Deadlock freedom for nested fan-out: a batch handler running on a worker
//! never blocks waiting for queue space. It pushes subtasks and then *helps* —
//! popping subtask jobs (its own or another batch's) and running them inline
//! until its results are complete ([`Pool::help_until`]). Even with one worker
//! and a full request queue, batches make progress.
//!
//! Self-healing: jobs run under `catch_unwind` (a panicking job costs itself,
//! not the worker), and a worker thread that dies anyway — e.g. the
//! `worker.idle` chaos failpoint, which deliberately panics *outside* the
//! catch — is detected by a drop sentinel and respawned, counted in
//! `worker_respawns_total`. All pool locks recover from poisoning via
//! [`hc_obs::sync`], so a dying worker can never wedge the queues.
//!
//! Elastic sizing: the worker count is a *target*, not a constant. The
//! reactor's overload control loop calls [`Pool::set_target`] inside the
//! `--workers-min`/`--workers-max` bounds; growth spawns workers immediately
//! (counted in `worker_scale_up_total`), and shrink is cooperative — an idle
//! worker that finds itself surplus retires by exiting cleanly through the
//! same disarmed-sentinel path as shutdown (counted in
//! `worker_scale_down_total`). Busy workers never retire mid-backlog: the
//! retire check runs only when both queues are empty.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hc_obs::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// A unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queues {
    requests: VecDeque<Job>,
    subtasks: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    queues: Mutex<Queues>,
    /// Signaled when work arrives or shutdown begins.
    work_ready: Condvar,
    /// Signaled whenever a job finishes (batch handlers wait on this).
    job_done: Condvar,
    /// Worker thread handles; respawned workers push their own handle here.
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_depth: usize,
    /// Worker threads currently alive (spawned minus retired; a panic-death
    /// keeps this constant because the sentinel respawn replaces it 1:1).
    live: AtomicUsize,
    /// Worker count the pool is converging toward ([`Pool::set_target`]).
    target: AtomicUsize,
    /// Monotonic index source so every spawned worker gets a unique thread
    /// name even as workers come and go.
    next_index: AtomicUsize,
    shed_total: AtomicU64,
    completed_total: AtomicU64,
    /// Jobs that panicked (caught; the worker survived).
    job_panics: AtomicU64,
    /// Workers that died and were replaced by the respawn sentinel.
    respawns: AtomicU64,
    /// Workers spawned by autoscale target raises (initial spawn excluded).
    scale_up: AtomicU64,
    /// Workers retired because they were surplus to the autoscale target.
    scale_down: AtomicU64,
}

/// The pool handle. Dropping it without [`Pool::shutdown`] detaches workers;
/// the server always shuts down explicitly. Shutdown takes `&self` so the pool
/// can live inside a shared `Arc<ServerState>`.
pub struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    /// Spawns `workers` threads sharing a request queue bounded at
    /// `queue_depth` pending jobs. The count is the initial target; the
    /// overload control loop may move it later via [`Pool::set_target`].
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues::default()),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            workers: Mutex::new(Vec::with_capacity(workers)),
            queue_depth: queue_depth.max(1),
            live: AtomicUsize::new(workers),
            target: AtomicUsize::new(workers),
            next_index: AtomicUsize::new(workers),
            shed_total: AtomicU64::new(0),
            completed_total: AtomicU64::new(0),
            job_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            scale_up: AtomicU64::new(0),
            scale_down: AtomicU64::new(0),
        });
        for i in 0..workers {
            spawn_worker(&shared, i);
        }
        Self { shared }
    }

    /// Moves the worker-count target. Growth spawns new workers right away
    /// (each counted in `worker_scale_up_total`); shrink wakes the idle
    /// workers so surplus ones retire cooperatively (see module docs).
    pub fn set_target(&self, n: usize) {
        let n = n.max(1);
        self.shared.target.store(n, Ordering::Relaxed);
        loop {
            let live = self.shared.live.load(Ordering::Relaxed);
            if live >= n {
                break;
            }
            if self
                .shared
                .live
                .compare_exchange(live, live + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.shared.scale_up.fetch_add(1, Ordering::Relaxed);
                let index = self.shared.next_index.fetch_add(1, Ordering::Relaxed);
                spawn_worker(&self.shared, index);
            }
        }
        // Below-target wakes are harmless; surplus idle workers need the nudge
        // to notice the lowered target and retire.
        self.shared.work_ready.notify_all();
    }

    /// Checks whether a new request would be shed right now (queue full or
    /// shutting down), counting it as a shed when so. Lets the accept thread
    /// answer `503` without constructing (and losing) the connection job.
    pub fn would_shed(&self) -> bool {
        let q = lock_recover(&self.shared.queues);
        let full = q.shutting_down || q.requests.len() >= self.shared.queue_depth;
        drop(q);
        if full {
            self.shared.shed_total.fetch_add(1, Ordering::Relaxed);
        }
        full
    }

    /// Enqueues a request job, or returns it when the queue is full (the
    /// caller sheds the load) or the pool is shutting down.
    pub fn try_execute(&self, job: Job) -> Result<(), Job> {
        let mut q = lock_recover(&self.shared.queues);
        if q.shutting_down || q.requests.len() >= self.shared.queue_depth {
            drop(q);
            self.shared.shed_total.fetch_add(1, Ordering::Relaxed);
            return Err(job);
        }
        q.requests.push_back(job);
        drop(q);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Enqueues a batch subtask (never shed; see module docs for the bound).
    pub fn spawn_subtask(&self, job: Job) {
        let mut q = lock_recover(&self.shared.queues);
        q.subtasks.push_back(job);
        drop(q);
        self.shared.work_ready.notify_one();
    }

    /// Runs subtask jobs inline until `done()` reports true.
    ///
    /// Called by batch handlers after fanning out: the calling worker helps
    /// drain the subtask lane (running any batch's subtasks), and when the lane
    /// is momentarily empty it waits on the job-completion condvar — another
    /// worker may still be computing this batch's last subtask.
    pub fn help_until<F: Fn() -> bool>(&self, done: F) {
        loop {
            if done() {
                return;
            }
            let mut q = lock_recover(&self.shared.queues);
            if let Some(job) = q.subtasks.pop_front() {
                drop(q);
                job();
                self.shared.completed_total.fetch_add(1, Ordering::Relaxed);
                self.shared.job_done.notify_all();
                continue;
            }
            if done() {
                return;
            }
            // Re-check after a bounded wait: job_done wakes us when any worker
            // finishes a job; the timeout guards against lost wakeups.
            let (guard, _) =
                wait_timeout_recover(&self.shared.job_done, q, Duration::from_millis(20));
            drop(guard);
        }
    }

    /// Number of jobs shed because the queue was full.
    pub fn shed_total(&self) -> u64 {
        self.shared.shed_total.load(Ordering::Relaxed)
    }

    /// Number of jobs completed.
    pub fn completed_total(&self) -> u64 {
        self.shared.completed_total.load(Ordering::Relaxed)
    }

    /// Currently queued (not yet started) request jobs.
    pub fn queued(&self) -> usize {
        lock_recover(&self.shared.queues).requests.len()
    }

    /// Jobs that panicked under `catch_unwind` (the worker survived).
    pub fn job_panics_total(&self) -> u64 {
        self.shared.job_panics.load(Ordering::Relaxed)
    }

    /// Workers that died and were replaced by the respawn sentinel.
    pub fn worker_respawns_total(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Workers spawned by autoscale target raises.
    pub fn worker_scale_up_total(&self) -> u64 {
        self.shared.scale_up.load(Ordering::Relaxed)
    }

    /// Workers retired as surplus to the autoscale target.
    pub fn worker_scale_down_total(&self) -> u64 {
        self.shared.scale_down.load(Ordering::Relaxed)
    }

    /// The request lane's bound (`--queue-depth`, at least 1).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Number of live worker threads (a gauge under autoscaling).
    pub fn worker_count(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stops accepting new requests, drains everything
    /// already queued, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = lock_recover(&self.shared.queues);
            q.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        // A dying worker's sentinel may push a replacement handle while we
        // join the first batch; loop until the list stays empty. A handle
        // joining with Err means that worker died panicking — its replacement
        // (or the shutdown flag) has already handled it, so the Err is not
        // propagated.
        loop {
            let handles: Vec<_> = lock_recover(&self.shared.workers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

/// A lock-protected handoff queue from worker threads back to the reactor.
///
/// Workers [`push`](CompletionQueue::push) finished work; each push invokes
/// `notify` (the reactor's wakeup-pipe write) so the event loop leaves
/// `epoll_wait` and [`drain`](CompletionQueue::drain)s the batch. The notify
/// callback must be cheap and non-blocking — it runs on the worker thread
/// while no queue lock is held.
pub struct CompletionQueue<T> {
    items: Mutex<Vec<T>>,
    notify: Box<dyn Fn() + Send + Sync>,
}

impl<T> CompletionQueue<T> {
    /// A queue whose pushes invoke `notify`.
    pub fn new(notify: impl Fn() + Send + Sync + 'static) -> Self {
        Self {
            items: Mutex::new(Vec::new()),
            notify: Box::new(notify),
        }
    }

    /// Enqueues one completion and signals the reactor.
    pub fn push(&self, item: T) {
        lock_recover(&self.items).push(item);
        (self.notify)();
    }

    /// Takes everything queued so far (oldest first).
    pub fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *lock_recover(&self.items))
    }
}

/// Spawns one worker thread and registers its handle in `shared.workers`.
fn spawn_worker(shared: &Arc<Shared>, index: usize) {
    let for_thread = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("hc-serve-worker-{index}"))
        .spawn(move || {
            let mut sentinel = RespawnSentinel {
                shared: Arc::clone(&for_thread),
                index,
                armed: true,
            };
            worker_loop(&for_thread);
            // Clean exit (shutdown): the sentinel must not respawn.
            sentinel.armed = false;
        })
        .expect("spawn worker thread");
    lock_recover(&shared.workers).push(handle);
}

/// Armed for the lifetime of a worker thread: if the thread unwinds while the
/// sentinel is armed (a panic escaped the per-job catch, e.g. the
/// `worker.idle` failpoint), its drop spawns a replacement so the pool's
/// capacity self-heals. Disarmed on clean shutdown exit.
struct RespawnSentinel {
    shared: Arc<Shared>,
    index: usize,
    armed: bool,
}

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        if !self.armed || lock_recover(&self.shared.queues).shutting_down {
            return;
        }
        self.shared.respawns.fetch_add(1, Ordering::Relaxed);
        spawn_worker(&self.shared, self.index);
    }
}

/// Claims a retirement slot when this worker is surplus to the autoscale
/// target: CAS-decrements `live` so exactly one worker exits per unit of
/// surplus, however many race. Never retires the last worker.
fn try_retire(shared: &Shared) -> bool {
    loop {
        let target = shared.target.load(Ordering::Relaxed);
        let live = shared.live.load(Ordering::Relaxed);
        if live <= target || live <= 1 {
            return false;
        }
        if shared
            .live
            .compare_exchange(live, live - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            shared.scale_down.fetch_add(1, Ordering::Relaxed);
            return true;
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock_recover(&shared.queues);
            loop {
                // Subtasks first: they unblock an already-running batch request.
                if let Some(job) = q.subtasks.pop_front() {
                    break Some(job);
                }
                if let Some(job) = q.requests.pop_front() {
                    break Some(job);
                }
                if q.shutting_down {
                    break None;
                }
                // Both queues are empty: an idle surplus worker retires here,
                // exiting through the same clean path as shutdown.
                if try_retire(shared) {
                    break None;
                }
                q = wait_recover(&shared.work_ready, q);
            }
        };
        match job {
            Some(job) => {
                // A panicking job is caught here so the worker survives; the
                // connection-level catch has already answered the client 500.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    shared.job_panics.fetch_add(1, Ordering::Relaxed);
                }
                shared.completed_total.fetch_add(1, Ordering::Relaxed);
                shared.job_done.notify_all();
                // Deliberate chaos crash site, *outside* the catch and *after*
                // the job's response went out: a panic here kills this worker
                // without losing a request, exercising the respawn sentinel.
                hc_obs::failpoints::fire("worker.idle");
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_jobs() {
        let pool = Pool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.try_execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap_or_else(|_| panic!("queue should not fill"));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn sheds_when_full() {
        let pool = Pool::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the single worker.
        {
            let g = Arc::clone(&gate);
            pool.try_execute(Box::new(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }))
            .map_err(|_| ())
            .unwrap();
        }
        // Wait until the worker picked the blocker up, then fill the queue.
        while pool.queued() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.try_execute(Box::new(|| {})).is_ok());
        assert!(pool.try_execute(Box::new(|| {})).is_ok());
        // Queue (depth 2) now full: the next job must be handed back.
        assert!(pool.try_execute(Box::new(|| {})).is_err());
        assert_eq!(pool.shed_total(), 1);
        // Release and drain.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn batch_helping_makes_progress_with_one_worker() {
        // One worker, tiny queue: the batch job itself occupies the only
        // worker, and its subtasks still complete via helping.
        let pool = Arc::new(Pool::new(1, 1));
        let results = Arc::new(Mutex::new(vec![false; 16]));
        let done = Arc::new(AtomicUsize::new(0));
        let (p2, r2, d2) = (Arc::clone(&pool), Arc::clone(&results), Arc::clone(&done));
        let outcome = Arc::new(Mutex::new(None::<bool>));
        let o2 = Arc::clone(&outcome);
        pool.try_execute(Box::new(move || {
            for i in 0..16 {
                let (r3, d3) = (Arc::clone(&r2), Arc::clone(&d2));
                p2.spawn_subtask(Box::new(move || {
                    r3.lock().unwrap()[i] = true;
                    d3.fetch_add(1, Ordering::SeqCst);
                }));
            }
            let d4 = Arc::clone(&d2);
            p2.help_until(move || d4.load(Ordering::SeqCst) == 16);
            *o2.lock().unwrap() = Some(r2.lock().unwrap().iter().all(|&b| b));
        }))
        .map_err(|_| ())
        .unwrap();
        // Spin until the batch reports.
        for _ in 0..1000 {
            if outcome.lock().unwrap().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(*outcome.lock().unwrap(), Some(true));
        pool.shutdown();
    }

    #[test]
    fn panicking_job_is_caught_and_counted() {
        let pool = Pool::new(2, 64);
        pool.try_execute(Box::new(|| panic!("deliberate test panic: job bug")))
            .map_err(|_| ())
            .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let c = Arc::clone(&counter);
            pool.try_execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .map_err(|_| ())
            .unwrap();
        }
        pool.shutdown();
        // Every later job still ran: the panic cost one job, not a worker.
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(pool.job_panics_total(), 1);
        assert_eq!(pool.worker_respawns_total(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = Pool::new(2, 128);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.try_execute(Box::new(move || {
                std::thread::sleep(Duration::from_micros(100));
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .map_err(|_| ())
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn set_target_scales_up_and_down() {
        let pool = Pool::new(1, 64);
        assert_eq!(pool.worker_count(), 1);
        pool.set_target(3);
        assert_eq!(pool.worker_count(), 3, "growth is immediate");
        assert_eq!(pool.worker_scale_up_total(), 2);
        // New workers actually run jobs.
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..30 {
            let c = Arc::clone(&counter);
            pool.try_execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .map_err(|_| ())
            .unwrap();
        }
        // Shrink: surplus idle workers retire cooperatively.
        pool.set_target(1);
        for _ in 0..500 {
            if pool.worker_count() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.worker_count(), 1, "surplus workers retire when idle");
        assert_eq!(pool.worker_scale_down_total(), 2);
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 30);
        assert_eq!(pool.worker_respawns_total(), 0, "retirement is not a death");
    }

    #[test]
    fn rejects_after_shutdown_flag() {
        let pool = Pool::new(1, 4);
        {
            let mut q = pool.shared.queues.lock().unwrap();
            q.shutting_down = true;
        }
        assert!(pool.try_execute(Box::new(|| {})).is_err());
        pool.shutdown();
    }
}
