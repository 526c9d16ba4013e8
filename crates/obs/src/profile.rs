//! Always-on continuous sampling profiler over the span stacks.
//!
//! While the profiler runs, time is cut into ticks: tick `k` falls `k/hz`
//! seconds after [`start`], and at each tick the live span stack of every
//! registered thread is one sample, folded into a sharded profile store. No
//! thread wakes to take the samples. A stack cannot change between two frame
//! pushes or pops, so each thread samples its own: when a span opens or
//! closes, the thread credits the ticks since its last crediting to the
//! stack it held until then. Because the samples are span *names* (not
//! machine addresses) the output is already symbolized: the folded render is
//! directly consumable by `flamegraph.pl` / speedscope, and the JSON render
//! is a self/total-time top table.
//!
//! # When samples land
//!
//! * A frame push or pop reads the clock once (an armed span shares that
//!   read with its own timing). If no tick fell since the thread last
//!   credited, it only stores the frame. Otherwise it credits the crossed
//!   ticks to the stack it held, each tick in the epoch of its own instant;
//!   the ticks of an empty stack count `profile_samples_idle_total` instead.
//! * [`render_folded`] and [`top_json`] first credit every live thread's
//!   open stack up to the query's instant, so a thread that has sat in one
//!   span since before the query still shows in it.
//! * A thread that exits credits its ticks through its exit.
//!
//! # Never block a worker
//!
//! The worker-side cost must stay negligible (the <3% budget is enforced by
//! `tests/overhead.rs` and the `profiler_overhead` bench lane), so the
//! request path never waits on a query after registration:
//!
//! * Each thread owns one `ThreadStack`: a fixed `[AtomicU32; MAX_DEPTH]`
//!   frame array, an atomic depth and the instant through which its ticks
//!   are credited, guarded by a **seqlock** sequence counter. Pushing or
//!   popping a frame is a handful of relaxed stores bracketed by the
//!   sequence bump (odd = write in progress) with release fences; no CAS
//!   loops, no waiting.
//! * The credited-through instant only grows, and whoever raises it credits
//!   exactly the ticks between its old and new value, so no tick is counted
//!   twice or lost. The owner raises it (`fetch_max`) inside its odd window
//!   when a change crosses a tick. A query reads it with the stack in one
//!   optimistic snapshot and raises it by compare-exchange from the value it
//!   read, which fails, and the query re-reads, when the owner crossed a
//!   tick in between. A snapshot that keeps racing a writer is abandoned as
//!   *torn* (`profile_samples_torn_total`); its ticks stay with the owner.
//! * The owner folds crossed ticks into their store shard by `try_lock`:
//!   while a query holds the shard, the ticks stay pending in the thread
//!   until its next crossing.
//! * Span names are interned to `u32` ids once per (thread, call site) via a
//!   thread-local pointer-keyed cache, so steady-state pushes never touch
//!   the global interner lock.
//!
//! Thread registration appends an `Arc<ThreadStack>` to a global list (one
//! mutex acquisition per thread lifetime); a thread-local destructor credits
//! the thread's last ticks and flips the stack's `alive` flag, and the next
//! registration or query prunes it — workers respawned by the pool's drop
//! sentinel re-register transparently.
//!
//! # Epoch rings
//!
//! Folded stacks accumulate in [`SHARDS`] shards, each holding a since-boot
//! map plus a ring of the last [`RING_EPOCHS`] epochs of [`EPOCH_SECS`]
//! seconds. A tick credited late is added to the epoch of its instant; one
//! older than the ring goes to the boot map alone. A windowed query
//! (`?seconds=30`) merges only the epochs that overlap the window; an
//! unwindowed query reads the boot maps. Stacks deeper than [`MAX_DEPTH`]
//! are truncated (counted in `profile_stacks_truncated_total`) but depth
//! keeps counting so pops stay balanced.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json;
use crate::sync::{lock_recover, try_lock_recover};

/// Maximum span-stack depth captured per sample; deeper frames are truncated.
pub const MAX_DEPTH: usize = 32;
/// Number of independent shards in the folded-stack store.
pub const SHARDS: usize = 8;
/// Length of one accumulation epoch, in seconds.
pub const EPOCH_SECS: u64 = 10;
/// Number of epochs retained per shard (36 × 10 s = the last 6 minutes).
pub const RING_EPOCHS: usize = 36;
/// Optimistic-read retries before a snapshot is abandoned as torn.
const SEQLOCK_RETRIES: usize = 8;
const NANOS_PER_SEC: u64 = 1_000_000_000;
const EPOCH_NANOS: u64 = EPOCH_SECS * NANOS_PER_SEC;

/// Fast-path gate read by every span open; off means the profiler costs one
/// relaxed load per span.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Sampling rate of the running profiler (0 when stopped).
static HZ: AtomicU32 = AtomicU32::new(0);
/// Nanoseconds from [`origin`] to the running profiler's start, its tick 0.
static START_NS: AtomicU64 = AtomicU64::new(0);
/// Sequence counter over `HZ` and `START_NS`, odd while [`start`] or
/// [`stop`] rewrites them; each start and each stop begins a new run.
static RUN: AtomicU32 = AtomicU32::new(0);
/// Serializes [`start`] and [`stop`].
static CONTROL: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------------

struct Interner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

fn intern(name: &'static str) -> u32 {
    let mut i = lock_recover(interner());
    if let Some(&id) = i.map.get(name) {
        return id;
    }
    let id = i.names.len() as u32;
    i.names.push(name);
    i.map.insert(name, id);
    id
}

fn name_of(id: u32) -> &'static str {
    let i = lock_recover(interner());
    i.names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// The tick grid
// ---------------------------------------------------------------------------

/// Monotonic origin shared by the tick grid, the epoch clock and window
/// queries.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn nanos_since_origin(t: Instant) -> u64 {
    t.saturating_duration_since(origin()).as_nanos() as u64
}

/// The ticks of one run: tick `k` falls `⌈k·10⁹/hz⌉` ns after its start.
#[derive(Clone, Copy)]
struct Grid {
    run: u32,
    start: u64,
    hz: u64,
}

impl Grid {
    /// The running profiler's grid; `None` while it is stopped, or being
    /// started or stopped. A seqlock read on `RUN`, paired with the fences
    /// of [`Grid::set`].
    fn current() -> Option<Grid> {
        let run = RUN.load(Ordering::Acquire);
        let hz = HZ.load(Ordering::Relaxed);
        let start = START_NS.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let stable = run & 1 == 0 && RUN.load(Ordering::Relaxed) == run;
        (stable && hz > 0).then_some(Grid {
            run,
            start,
            hz: u64::from(hz),
        })
    }

    /// Rewrites the grid; `hz` 0 stops it.
    fn set(hz: u32, start: u64) {
        let run = RUN.load(Ordering::Relaxed);
        RUN.store(run.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        HZ.store(hz, Ordering::Relaxed);
        START_NS.store(start, Ordering::Relaxed);
        RUN.store(run.wrapping_add(2), Ordering::Release);
    }

    /// The number of ticks at or before `t` (ns since origin).
    fn ticks_through(self, t: u64) -> u64 {
        let ns = u128::from(t.saturating_sub(self.start));
        (ns * u128::from(self.hz) / u128::from(NANOS_PER_SEC)) as u64
    }

    /// The instant of tick `k`, in ns since origin.
    fn tick_ns(self, k: u64) -> u64 {
        let ns = (u128::from(k) * u128::from(NANOS_PER_SEC)).div_ceil(u128::from(self.hz));
        self.start + ns as u64
    }

    /// Calls `each(epoch, ticks)` for every epoch that holds ticks in
    /// `(from, to]`, oldest first.
    fn split_by_epoch(self, from: u64, to: u64, mut each: impl FnMut(u64, u64)) {
        let last = self.ticks_through(to);
        let mut next = self.ticks_through(from) + 1;
        while next <= last {
            let epoch = self.tick_ns(next) / EPOCH_NANOS;
            let through = self.ticks_through(to.min((epoch + 1) * EPOCH_NANOS - 1));
            each(epoch, through + 1 - next);
            next = through + 1;
        }
    }
}

/// Credits the ticks in `(from, to]` to `stack`: idle ticks when it is
/// empty, otherwise `each(epoch, ticks)` per epoch.
fn credit(grid: Grid, stack: &[u32], from: u64, to: u64, each: impl FnMut(u64, u64)) {
    if stack.is_empty() {
        let idle = grid
            .ticks_through(to)
            .saturating_sub(grid.ticks_through(from));
        if idle > 0 {
            crate::obs_counter!("profile_samples_idle_total").add(idle);
        }
    } else {
        grid.split_by_epoch(from, to, each);
    }
}

// ---------------------------------------------------------------------------
// Per-thread seqlock'd span stack
// ---------------------------------------------------------------------------

/// One change a thread makes to its own stack.
enum Edit {
    Push(u32),
    Pop,
    /// The thread exits; its stack leaves the registry at the next prune.
    Exit,
}

/// One consistent optimistic read of a [`ThreadStack`].
struct Snapshot {
    /// Frames read into the caller's buffer (at most [`MAX_DEPTH`]).
    depth: usize,
    /// The credited-through instant, read with the frames.
    credited: u64,
    alive: bool,
}

struct ThreadStack {
    /// Seqlock sequence: odd while a push/pop is in flight.
    seq: AtomicU32,
    /// Logical depth; may exceed [`MAX_DEPTH`] (frames beyond are dropped).
    depth: AtomicU32,
    frames: [AtomicU32; MAX_DEPTH],
    /// Nanoseconds since [`origin`] through which this thread's ticks are
    /// credited. It only grows: the owner raises it with `fetch_max` inside
    /// its write, a query by compare-exchange from the value it read. Every
    /// update is a read-modify-write of this one word, and their order alone
    /// keeps a tick from being credited twice, so they are `Relaxed`; the
    /// stack read with it is published by the seqlock's fences.
    credited: AtomicU64,
    /// Cleared by the owning thread's TLS destructor; registration and
    /// queries prune dead stacks from the registry.
    alive: AtomicBool,
}

impl ThreadStack {
    fn new(now_ns: u64) -> Self {
        ThreadStack {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            credited: AtomicU64::new(now_ns),
            alive: AtomicBool::new(true),
        }
    }

    /// Applies `edit` inside the seqlock's odd window. With `through`, first
    /// raises `credited` to that instant and returns its previous value.
    fn write(&self, edit: Edit, through: Option<u64>) -> Option<u64> {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let prev = through.map(|t| self.credited.fetch_max(t, Ordering::Relaxed));
        let d = self.depth.load(Ordering::Relaxed);
        match edit {
            Edit::Push(id) => {
                match self.frames.get(d as usize) {
                    Some(slot) => slot.store(id, Ordering::Relaxed),
                    None => crate::obs_counter!("profile_stacks_truncated_total").inc(),
                }
                self.depth.store(d + 1, Ordering::Relaxed);
            }
            Edit::Pop => self.depth.store(d.saturating_sub(1), Ordering::Relaxed),
            Edit::Exit => self.alive.store(false, Ordering::Relaxed),
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
        prev
    }

    /// Reads the frames into `buf` and returns how many (clamped to
    /// [`MAX_DEPTH`]); consistent for the owner, the only writer, and
    /// inside a [`snapshot`](Self::snapshot).
    fn frames_into(&self, buf: &mut [u32; MAX_DEPTH]) -> usize {
        let d = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
        for (slot, frame) in buf.iter_mut().zip(self.frames.iter()).take(d) {
            *slot = frame.load(Ordering::Relaxed);
        }
        d
    }

    /// Optimistic snapshot of the live stack into `buf`, or `None` if every
    /// retry raced a writer.
    fn snapshot(&self, buf: &mut [u32; MAX_DEPTH]) -> Option<Snapshot> {
        for _ in 0..SEQLOCK_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let credited = self.credited.load(Ordering::Relaxed);
            let alive = self.alive.load(Ordering::Relaxed);
            let depth = self.frames_into(buf);
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(Snapshot {
                    depth,
                    credited,
                    alive,
                });
            }
        }
        None
    }

    /// A query's share: credits the ticks through `now` that the owner has
    /// not credited to the stack a snapshot reads.
    fn credit_through(&self, grid: Grid, now: u64) {
        let mut buf = [0u32; MAX_DEPTH];
        for _ in 0..SEQLOCK_RETRIES {
            let Some(snap) = self.snapshot(&mut buf) else {
                crate::obs_counter!("profile_samples_torn_total").inc();
                return;
            };
            if !snap.alive || snap.credited >= now {
                return;
            }
            let raised = self.credited.compare_exchange(
                snap.credited,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            if raised.is_ok() {
                let stack = &buf[..snap.depth];
                credit(grid, stack, snap.credited, now, |epoch, ticks| {
                    fold(stack, epoch, ticks, true);
                });
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Thread registration
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<Vec<Arc<ThreadStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The registered stacks of live threads, pruning the dead ones.
fn live_stacks(reg: &mut Vec<Arc<ThreadStack>>) -> &[Arc<ThreadStack>] {
    reg.retain(|s| s.alive.load(Ordering::Acquire));
    reg
}

struct LocalStack {
    stack: Arc<ThreadStack>,
    /// Call-site id cache keyed by the `&'static str` data pointer, so the
    /// global interner lock is taken once per (thread, span name).
    ids: HashMap<usize, u32, BuildHasherDefault<PtrHasher>>,
    /// The run whose grid `next_tick` is on.
    run: u32,
    /// The first tick after this thread's last crediting: a change before it
    /// crosses no tick. Any instant not after the last change sends the
    /// next change down the crossing path.
    next_tick: Instant,
    /// Samples whose shard was busy, as (stack, epoch, ticks); folded at
    /// the next crossing.
    pending: Vec<(Key, u64, u64)>,
}

/// Hashes the id cache's keys with one multiply (Fibonacci hashing) rather
/// than SipHash, which would run on every span open: the keys are
/// program-internal string addresses, not untrusted input.
#[derive(Default)]
struct PtrHasher(u64);

impl PtrHasher {
    fn mix(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

impl LocalStack {
    fn register(now: Instant) -> Self {
        let stack = Arc::new(ThreadStack::new(nanos_since_origin(now)));
        let mut reg = lock_recover(registry());
        live_stacks(&mut reg);
        reg.push(Arc::clone(&stack));
        LocalStack {
            stack,
            ids: HashMap::default(),
            run: 0,
            next_tick: now,
            pending: Vec::new(),
        }
    }

    fn id(&mut self, name: &'static str) -> u32 {
        let key = name.as_ptr() as usize;
        *self.ids.entry(key).or_insert_with(|| intern(name))
    }

    /// Applies `edit` at `now`, first crediting any tick crossed since this
    /// thread last credited.
    #[inline]
    fn change(&mut self, now: Instant, edit: Edit) {
        if now < self.next_tick && self.run == RUN.load(Ordering::Relaxed) {
            self.stack.write(edit, None);
        } else {
            self.cross(now, edit);
        }
    }

    /// The crossing path of [`change`](Self::change): credits the ticks
    /// since the last crediting to the stack held until `now`.
    #[cold]
    fn cross(&mut self, now: Instant, edit: Edit) {
        let now_ns = nanos_since_origin(now);
        let grid = Grid::current();
        let mut held = [0u32; MAX_DEPTH];
        let depth = self.stack.frames_into(&mut held);
        let prev = self.stack.write(edit, grid.map(|_| now_ns));
        self.fold_pending(false);
        let (Some(grid), Some(prev)) = (grid, prev) else {
            self.next_tick = now;
            return;
        };
        let stack = &held[..depth];
        credit(grid, stack, prev, now_ns, |epoch, ticks| {
            if !fold(stack, epoch, ticks, false) {
                self.pending.push((stack.into(), epoch, ticks));
            }
        });
        self.run = grid.run;
        let next = grid.tick_ns(grid.ticks_through(now_ns.max(prev)) + 1);
        self.next_tick = origin() + Duration::from_nanos(next);
    }

    /// Folds the pending samples, keeping those whose shard is still busy
    /// unless `wait`.
    fn fold_pending(&mut self, wait: bool) {
        self.pending
            .retain(|(stack, epoch, ticks)| !fold(stack, *epoch, *ticks, wait));
    }
}

impl Drop for LocalStack {
    fn drop(&mut self) {
        self.change(Instant::now(), Edit::Exit);
        self.fold_pending(true);
    }
}

thread_local! {
    static LOCAL: std::cell::RefCell<Option<LocalStack>> =
        const { std::cell::RefCell::new(None) };
}

/// Records a span open on the current thread's profile stack. Returns the
/// instant of the push iff a matching [`frame_pop`] is owed (profiler
/// enabled and TLS usable) — the span guard keeps it so enable/disable races
/// stay balanced, and an armed span times itself from it.
pub(crate) fn frame_push(name: &'static str) -> Option<Instant> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let now = Instant::now();
    push_at(name, now).then_some(now)
}

/// [`frame_push`] at `now`.
fn push_at(name: &'static str, now: Instant) -> bool {
    LOCAL
        .try_with(|cell| {
            let mut cell = cell.borrow_mut();
            let local = cell.get_or_insert_with(|| LocalStack::register(now));
            let id = local.id(name);
            local.change(now, Edit::Push(id));
        })
        .is_ok()
}

/// Records a span close at `now`; called only when the matching
/// [`frame_push`] returned an instant.
pub(crate) fn frame_pop(now: Instant) {
    let _ = LOCAL.try_with(|cell| {
        if let Some(local) = cell.borrow_mut().as_mut() {
            local.change(now, Edit::Pop);
        }
    });
}

/// Credits every live thread's open stack with its ticks through now.
fn credit_live() {
    let stacks = live_stacks(&mut lock_recover(registry())).to_vec();
    let Some(grid) = Grid::current() else {
        return;
    };
    let now = nanos_since_origin(Instant::now());
    for stack in &stacks {
        stack.credit_through(grid, now);
    }
}

// ---------------------------------------------------------------------------
// Folded-stack store
// ---------------------------------------------------------------------------

type Key = Box<[u32]>;

#[derive(Default)]
struct Shard {
    boot: HashMap<Key, u64>,
    /// Ring of `(epoch_id, counts)`, oldest first, holding the epochs within
    /// [`RING_EPOCHS`] of the newest.
    epochs: VecDeque<(u64, HashMap<Key, u64>)>,
}

fn add_to(map: &mut HashMap<Key, u64>, key: &[u32], n: u64) {
    if let Some(count) = map.get_mut(key) {
        *count += n;
    } else {
        map.insert(key.into(), n);
    }
}

impl Shard {
    fn add(&mut self, key: &[u32], epoch: u64, n: u64) {
        add_to(&mut self.boot, key, n);
        let newest = self.epochs.back().map_or(epoch, |(e, _)| epoch.max(*e));
        if epoch + RING_EPOCHS as u64 <= newest {
            return;
        }
        let at = self.epochs.partition_point(|(e, _)| *e < epoch);
        if self.epochs.get(at).map(|(e, _)| *e) != Some(epoch) {
            self.epochs.insert(at, (epoch, HashMap::new()));
        }
        add_to(&mut self.epochs[at].1, key, n);
        while self
            .epochs
            .front()
            .is_some_and(|(e, _)| e + RING_EPOCHS as u64 <= newest)
        {
            self.epochs.pop_front();
        }
    }
}

fn store() -> &'static [Mutex<Shard>; SHARDS] {
    static STORE: OnceLock<[Mutex<Shard>; SHARDS]> = OnceLock::new();
    STORE.get_or_init(|| std::array::from_fn(|_| Mutex::new(Shard::default())))
}

fn shard_of(key: &[u32]) -> usize {
    // FNV-1a over the id bytes; only distribution matters here.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in key {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h as usize) % SHARDS
}

/// Folds `ticks` samples of `key` at `epoch` into its shard, waiting for the
/// shard only when `wait`. Returns `false` when the shard was busy.
fn fold(key: &[u32], epoch: u64, ticks: u64, wait: bool) -> bool {
    let shard = &store()[shard_of(key)];
    let guard = if wait {
        Some(lock_recover(shard))
    } else {
        try_lock_recover(shard)
    };
    let Some(mut shard) = guard else {
        return false;
    };
    shard.add(key, epoch, ticks);
    drop(shard);
    crate::obs_counter!("profile_samples_total").add(ticks);
    true
}

fn merged(window: Option<Duration>) -> HashMap<Key, u64> {
    credit_live();
    let mut out: HashMap<Key, u64> = HashMap::new();
    match window {
        None => {
            for shard in store().iter() {
                let shard = lock_recover(shard);
                for (k, v) in &shard.boot {
                    *out.entry(k.clone()).or_insert(0) += v;
                }
            }
        }
        Some(dur) => {
            let elapsed = origin().elapsed().as_secs();
            let min_epoch = elapsed.saturating_sub(dur.as_secs()) / EPOCH_SECS;
            for shard in store().iter() {
                let shard = lock_recover(shard);
                for (epoch, counts) in &shard.epochs {
                    if *epoch < min_epoch {
                        continue;
                    }
                    for (k, v) in counts {
                        *out.entry(k.clone()).or_insert(0) += v;
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

/// Starts the profiler at `hz` samples per second: tick `k` falls `k/hz`
/// seconds after this call. No thread is spawned. Idempotent: the first
/// caller wins and later calls (any rate) return `false`, so multiple
/// in-process servers share one profiler. `hz == 0` disables profiling and
/// returns `false`. Returns `true` when this call started the profiler.
pub fn start(hz: u32) -> bool {
    if hz == 0 {
        return false;
    }
    let _control = lock_recover(&CONTROL);
    if ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    Grid::set(hz, nanos_since_origin(Instant::now()));
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Stops the profiler after crediting every live thread's open stack
/// through now; no tick falls after it. Intended for tests and benches; the
/// daemon never stops a started profiler (it is process-global).
pub fn stop() {
    let _control = lock_recover(&CONTROL);
    if ENABLED.swap(false, Ordering::Relaxed) {
        credit_live();
        Grid::set(0, 0);
    }
}

/// True while the profiler is running.
pub fn running() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The configured sampling rate, or 0 when the profiler is stopped.
pub fn hz() -> u32 {
    HZ.load(Ordering::Relaxed)
}

/// Total non-idle samples folded into the store since process start.
pub fn samples_total() -> u64 {
    crate::metrics::counter_value("profile_samples_total").unwrap_or(0)
}

/// Clears the folded-stack store (both boot and epoch maps). Test-only: the
/// daemon's profile is cumulative by design.
#[doc(hidden)]
pub fn reset_store() {
    for shard in store().iter() {
        let mut shard = lock_recover(shard);
        shard.boot.clear();
        shard.epochs.clear();
    }
}

// ---------------------------------------------------------------------------
// Renders
// ---------------------------------------------------------------------------

/// Renders the profile as collapsed-stack ("folded") text: one
/// `root;child;leaf count` line per distinct stack, sorted lexically, as
/// consumed by `flamegraph.pl` and speedscope. `window` of `None` renders
/// the since-boot profile. Every live thread's open stack is first credited
/// through now.
pub fn render_folded(window: Option<Duration>) -> String {
    let merged = merged(window);
    let mut lines: Vec<String> = Vec::with_capacity(merged.len());
    for (key, count) in &merged {
        let mut line = String::new();
        for (i, id) in key.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            line.push_str(name_of(*id));
        }
        line.push(' ');
        line.push_str(&count.to_string());
        lines.push(line);
    }
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Renders a JSON top-`k` table of frames by total time. Per frame: `self`
/// (samples where the frame was the leaf), `total` (samples where the frame
/// appeared anywhere on the stack, deduplicated per stack), and both
/// converted to seconds at the current sampling rate. Frames are ordered by
/// descending `total`, ties broken by name. Every live thread's open stack
/// is first credited through now.
pub fn top_json(window: Option<Duration>, k: usize) -> String {
    let merged = merged(window);
    let mut self_counts: HashMap<u32, u64> = HashMap::new();
    let mut total_counts: HashMap<u32, u64> = HashMap::new();
    let mut samples: u64 = 0;
    let mut seen: Vec<u32> = Vec::with_capacity(MAX_DEPTH);
    for (key, count) in &merged {
        samples += count;
        if let Some(leaf) = key.last() {
            *self_counts.entry(*leaf).or_insert(0) += count;
        }
        seen.clear();
        for id in key.iter() {
            if !seen.contains(id) {
                seen.push(*id);
                *total_counts.entry(*id).or_insert(0) += count;
            }
        }
    }
    let mut frames: Vec<(u32, u64)> = total_counts.iter().map(|(k, v)| (*k, *v)).collect();
    frames.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| name_of(a.0).cmp(name_of(b.0))));
    frames.truncate(k);

    let hz = hz();
    let rate = hz.max(1) as f64;
    json::object(|o| {
        match window {
            Some(d) => o.u64("window_seconds", d.as_secs()),
            None => o.null("window_seconds"),
        };
        o.u64("hz", u64::from(hz)).u64("samples", samples);
        let mut top = o.array("top");
        for (id, total) in &frames {
            let self_n = self_counts.get(id).copied().unwrap_or(0);
            top.object()
                .str("frame", name_of(*id))
                .u64("self", self_n)
                .u64("total", *total)
                .f64("self_seconds", self_n as f64 / rate)
                .f64("total_seconds", *total as f64 / rate);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global; these tests serialize on one mutex so
    /// start/stop and store resets do not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn seqlock_push_pop_snapshot_roundtrip() {
        let _g = serial();
        let s = ThreadStack::new(0);
        let a = intern("profile.test.a");
        let b = intern("profile.test.b");
        s.write(Edit::Push(a), None);
        s.write(Edit::Push(b), None);
        let mut buf = [0u32; MAX_DEPTH];
        let depth = |s: &ThreadStack, buf: &mut [u32; MAX_DEPTH]| s.snapshot(buf).map(|s| s.depth);
        assert_eq!(depth(&s, &mut buf), Some(2));
        assert_eq!(&buf[..2], &[a, b]);
        s.write(Edit::Pop, None);
        assert_eq!(depth(&s, &mut buf), Some(1));
        assert_eq!(buf[0], a);
        s.write(Edit::Pop, None);
        assert_eq!(depth(&s, &mut buf), Some(0));
    }

    /// The credited-through instant only grows: an owner write behind a
    /// query that already raised it leaves it where the query put it and
    /// credits nothing.
    #[test]
    fn credited_instant_only_grows() {
        let s = ThreadStack::new(100);
        let raised = s
            .credited
            .compare_exchange(100, 500, Ordering::Relaxed, Ordering::Relaxed);
        assert_eq!(raised, Ok(100));
        assert_eq!(s.write(Edit::Pop, Some(300)), Some(500));
        assert_eq!(s.credited.load(Ordering::Relaxed), 500);
        assert_eq!(s.write(Edit::Pop, Some(700)), Some(500));
        assert_eq!(s.credited.load(Ordering::Relaxed), 700);
    }

    #[test]
    fn overflow_depth_truncates_but_stays_balanced() {
        let _g = serial();
        let s = ThreadStack::new(0);
        let id = intern("profile.test.deep");
        for _ in 0..(MAX_DEPTH + 5) {
            s.write(Edit::Push(id), None);
        }
        let mut buf = [0u32; MAX_DEPTH];
        let depth = |s: &ThreadStack, buf: &mut [u32; MAX_DEPTH]| s.snapshot(buf).map(|s| s.depth);
        // Clamped snapshot: the logical depth exceeds the frame array.
        assert_eq!(depth(&s, &mut buf), Some(MAX_DEPTH));
        for _ in 0..(MAX_DEPTH + 5) {
            s.write(Edit::Pop, None);
        }
        assert_eq!(depth(&s, &mut buf), Some(0));
        // An extra pop under-flows harmlessly.
        s.write(Edit::Pop, None);
        assert_eq!(depth(&s, &mut buf), Some(0));
    }

    #[test]
    fn store_merges_and_renders_folded() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.root");
        let b = intern("profile.test.leaf");
        fold(&[a, b], 0, 1, true);
        fold(&[a, b], 0, 1, true);
        fold(&[a], 0, 1, true);
        let folded = render_folded(None);
        assert!(
            folded.contains("profile.test.root;profile.test.leaf 2"),
            "missing folded stack in:\n{folded}"
        );
        assert!(folded.contains("profile.test.root 1"));
        reset_store();
    }

    #[test]
    fn top_json_computes_self_and_total() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.outer");
        let b = intern("profile.test.inner");
        fold(&[a, b], 0, 1, true);
        fold(&[a, b], 0, 1, true);
        fold(&[a], 0, 1, true);
        let json = top_json(None, 10);
        // outer: total 3, self 1; inner: total 2, self 2.
        assert!(
            json.contains("{\"frame\":\"profile.test.outer\",\"self\":1,\"total\":3"),
            "unexpected top table: {json}"
        );
        assert!(json.contains("{\"frame\":\"profile.test.inner\",\"self\":2,\"total\":2"));
        assert!(json.contains("\"samples\":3"));
        reset_store();
    }

    #[test]
    fn top_json_bytes_are_pinned() {
        let _g = serial();
        reset_store();
        let a = intern("profile.pin.outer");
        let b = intern("profile.pin.\"inner\"");
        fold(&[a, b], 0, 1, true);
        fold(&[a, b], 0, 1, true);
        fold(&[a], 0, 1, true);
        // The profiler is stopped here, so `hz` reads 0 and seconds equal
        // samples.
        assert_eq!(
            top_json(None, 10),
            "{\"window_seconds\":null,\"hz\":0,\"samples\":3,\"top\":[\
             {\"frame\":\"profile.pin.outer\",\"self\":1,\"total\":3,\
             \"self_seconds\":1,\"total_seconds\":3},\
             {\"frame\":\"profile.pin.\\\"inner\\\"\",\"self\":2,\"total\":2,\
             \"self_seconds\":2,\"total_seconds\":2}]}"
        );
        assert_eq!(
            top_json(Some(Duration::from_secs(1 << 40)), 1),
            "{\"window_seconds\":1099511627776,\"hz\":0,\"samples\":3,\"top\":[\
             {\"frame\":\"profile.pin.outer\",\"self\":1,\"total\":3,\
             \"self_seconds\":1,\"total_seconds\":3}]}"
        );
        reset_store();
        assert_eq!(
            top_json(None, 10),
            "{\"window_seconds\":null,\"hz\":0,\"samples\":0,\"top\":[]}"
        );
    }

    #[test]
    fn recursive_stack_total_counts_once() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.recur");
        fold(&[a, a, a], 0, 1, true);
        let json = top_json(None, 10);
        assert!(
            json.contains("{\"frame\":\"profile.test.recur\",\"self\":1,\"total\":1"),
            "recursion must not inflate totals: {json}"
        );
        reset_store();
    }

    #[test]
    fn epoch_ring_is_bounded_and_windowed() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.epoch");
        for epoch in 0..(RING_EPOCHS as u64 + 10) {
            fold(&[a], epoch, 1, true);
        }
        let shard = lock_recover(&store()[shard_of(&[a])]);
        assert_eq!(shard.epochs.len(), RING_EPOCHS);
        assert_eq!(
            shard.boot.get(&vec![a].into_boxed_slice()).copied(),
            Some(RING_EPOCHS as u64 + 10)
        );
        drop(shard);
        reset_store();
    }

    /// The count on the folded line of exactly `stack`, or 0.
    fn count(folded: &str, stack: &str) -> u64 {
        folded
            .lines()
            .find_map(|l| l.strip_prefix(stack)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    }

    /// `⌊(b − a)·hz⌋` and `⌈(b − a)·hz⌉`: the tick counts an interval of
    /// that length can hold.
    fn tick_bounds(a: Instant, b: Instant, hz: u64) -> (u64, u64) {
        let scaled = b.duration_since(a).as_nanos() * u128::from(hz);
        let floor = (scaled / u128::from(NANOS_PER_SEC)) as u64;
        (
            floor,
            floor + u64::from(!scaled.is_multiple_of(u128::from(NANOS_PER_SEC))),
        )
    }

    fn assert_within(n: u64, (lo, hi): (u64, u64), what: &str) {
        assert!(lo <= n && n <= hi, "{what}: {n} samples, want {lo}..={hi}");
    }

    #[test]
    fn held_span_is_profiled() {
        let _g = serial();
        reset_store();
        assert!(start(997), "profiler must start");
        // Hold a span open on a worker thread across many ticks.
        let t = std::thread::spawn(|| {
            let _outer = crate::span("profile.test.sampled.outer");
            let _inner = crate::span("profile.test.sampled.inner");
            std::thread::sleep(Duration::from_millis(120));
        });
        t.join().unwrap();
        stop();
        let folded = render_folded(None);
        assert!(
            folded.contains("profile.test.sampled.outer;profile.test.sampled.inner"),
            "no nested stack profiled:\n{folded}"
        );
        assert!(!running());
        assert_eq!(hz(), 0);
        reset_store();
    }

    /// A span held over a measured interval at 1 000 Hz gets ⌊interval·hz⌋
    /// or ⌈interval·hz⌉ samples, and nested stacks split at the instants
    /// their frames were pushed and popped.
    #[test]
    fn held_spans_get_their_ticks_exactly() {
        let _g = serial();
        reset_store();
        assert!(start(1000));
        let t = std::thread::spawn(|| {
            let after = |ms| {
                std::thread::sleep(Duration::from_millis(ms));
                Instant::now()
            };
            let p0 = Instant::now();
            assert!(push_at("profile.exact.outer", p0));
            let p1 = after(12);
            assert!(push_at("profile.exact.inner", p1));
            let p2 = after(25);
            frame_pop(p2);
            let p3 = after(7);
            frame_pop(p3);
            [p0, p1, p2, p3]
        });
        let [p0, p1, p2, p3] = t.join().unwrap();
        stop();
        let folded = render_folded(None);
        let nested = count(&folded, "profile.exact.outer;profile.exact.inner");
        let alone = count(&folded, "profile.exact.outer");
        assert_within(nested, tick_bounds(p1, p2, 1000), "outer;inner");
        let (lo1, hi1) = tick_bounds(p0, p1, 1000);
        let (lo3, hi3) = tick_bounds(p2, p3, 1000);
        assert_within(alone, (lo1 + lo3, hi1 + hi3), "outer alone");
        assert_within(nested + alone, tick_bounds(p0, p3, 1000), "outer in all");
        reset_store();
    }

    /// A tick credited late lands in its own epoch: the store finds that
    /// epoch in the ring instead of comparing with the newest only, and a
    /// tick older than the ring goes to the boot map alone.
    #[test]
    fn late_ticks_land_in_their_own_epoch() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.late");
        let ring = || -> Vec<(u64, u64)> {
            let shard = lock_recover(&store()[shard_of(&[a])]);
            shard
                .epochs
                .iter()
                .map(|(e, counts)| (*e, counts.get([a].as_slice()).copied().unwrap_or(0)))
                .collect()
        };
        fold(&[a], 5, 1, true);
        fold(&[a], 7, 2, true);
        fold(&[a], 6, 3, true);
        fold(&[a], 5, 4, true);
        assert_eq!(ring(), vec![(5, 5), (6, 3), (7, 2)]);
        // Epoch 42 keeps 7..=42 in the ring; 6 is then older than the ring.
        fold(&[a], 42, 1, true);
        assert_eq!(ring(), vec![(7, 2), (42, 1)]);
        fold(&[a], 6, 10, true);
        assert_eq!(ring(), vec![(7, 2), (42, 1)]);
        let shard = lock_recover(&store()[shard_of(&[a])]);
        assert_eq!(shard.boot.get([a].as_slice()).copied(), Some(21));
        drop(shard);

        // A span held across an epoch boundary and credited at its close
        // splits its ticks at the boundary.
        reset_store();
        assert!(start(1000));
        let now_ns = nanos_since_origin(Instant::now());
        let boundary = (now_ns / EPOCH_NANOS + 2) * EPOCH_NANOS;
        let at = |ns: u64| origin() + Duration::from_nanos(ns);
        let (open, close) = (at(boundary - 300_000_000), at(boundary + 200_000_000));
        let t = std::thread::spawn(move || {
            assert!(push_at("profile.test.late.span", open));
            frame_pop(close);
        });
        t.join().unwrap();
        stop();
        let b = intern("profile.test.late.span");
        let shard = lock_recover(&store()[shard_of(&[b])]);
        let epochs: Vec<(u64, u64)> = shard
            .epochs
            .iter()
            .map(|(e, counts)| (*e, counts.get([b].as_slice()).copied().unwrap_or(0)))
            .collect();
        drop(shard);
        let first = boundary / EPOCH_NANOS;
        assert_eq!(epochs.len(), 2, "{epochs:?}");
        assert_eq!((epochs[0].0, epochs[1].0), (first - 1, first));
        assert_within(epochs[0].1, (299, 300), "before the boundary");
        assert_within(epochs[1].1, (200, 201), "after the boundary");
        reset_store();
    }

    /// A span that has not closed shows in the render, and the ticks one
    /// query credits are not counted again by the next query or the close.
    #[test]
    fn open_span_shows_and_is_counted_once() {
        let _g = serial();
        reset_store();
        assert!(start(1000));
        let (opened_tx, opened) = std::sync::mpsc::channel();
        let (close, close_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let p = Instant::now();
            assert!(push_at("profile.test.open", p));
            opened_tx.send(p).unwrap();
            close_rx.recv().unwrap();
            let q = Instant::now();
            frame_pop(q);
            q
        });
        let p = opened.recv().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let first = count(&render_folded(None), "profile.test.open");
        let again = count(&render_folded(None), "profile.test.open");
        close.send(()).unwrap();
        let q = t.join().unwrap();
        let last = count(&render_folded(None), "profile.test.open");
        stop();
        assert!(first > 0, "an open span must show before it closes");
        assert!(first <= again && again <= last, "{first} {again} {last}");
        assert_within(last, tick_bounds(p, q, 1000), "after three queries");
        reset_store();
    }

    /// Threads that register, push, pop and exit while another thread
    /// queries in a loop: each thread's samples plus its idle ticks equal
    /// the ticks between its registration and its last crediting.
    #[test]
    fn queries_racing_churn_count_every_tick_once() {
        const ROOTS: [&str; 4] = [
            "profile.churn.0",
            "profile.churn.1",
            "profile.churn.2",
            "profile.churn.3",
        ];
        let _g = serial();
        reset_store();
        assert!(start(1000));
        let idle = || crate::metrics::counter_value("profile_samples_idle_total").unwrap_or(0);
        let idle_before = idle();
        let done = Arc::new(AtomicBool::new(false));
        let querier = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    render_folded(None);
                    top_json(Some(Duration::from_secs(10)), 3);
                }
            })
        };
        let mut threads = Vec::new();
        for round in 0..6u64 {
            let workers: Vec<_> = ROOTS
                .iter()
                .map(|&root| {
                    std::thread::spawn(move || {
                        let registered = Instant::now();
                        assert!(push_at(root, registered));
                        let stack = LOCAL
                            .with(|l| Arc::clone(&l.borrow().as_ref().expect("registered").stack));
                        for k in 0..400u64 {
                            let _inner = crate::span("profile.churn.inner");
                            if k % 100 == round % 4 {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        frame_pop(Instant::now());
                        std::thread::sleep(Duration::from_millis(1 + round % 3));
                        (registered, Instant::now(), stack)
                    })
                })
                .collect();
            for w in workers {
                threads.push(w.join().expect("churn worker exits cleanly"));
            }
        }
        done.store(true, Ordering::Relaxed);
        querier.join().unwrap();
        let grid = Grid::current().expect("still running");
        let elapsed: u64 = threads
            .iter()
            .map(|(registered, exiting, stack)| {
                let last = stack.credited.load(Ordering::Relaxed);
                assert!(
                    last >= nanos_since_origin(*exiting),
                    "a thread's ticks are credited through its exit"
                );
                grid.ticks_through(last) - grid.ticks_through(nanos_since_origin(*registered))
            })
            .sum();
        let idle_ticks = idle() - idle_before;
        stop();
        let samples: u64 = render_folded(None)
            .lines()
            .filter(|l| l.starts_with("profile.churn."))
            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<u64>().ok())
            .sum();
        assert!(elapsed > 0 && samples > 0);
        assert_eq!(
            samples + idle_ticks,
            elapsed,
            "{samples} + {idle_ticks} idle"
        );
        assert!(
            threads
                .iter()
                .all(|(_, _, stack)| Arc::strong_count(stack) == 1),
            "a query prunes exited threads from the registry"
        );
        reset_store();
    }

    #[test]
    fn start_is_idempotent_first_wins() {
        let _g = serial();
        assert!(start(1009));
        assert!(!start(50), "second start must lose");
        assert_eq!(hz(), 1009);
        assert!(running());
        stop();
        assert!(!running());
        // After stop, a fresh start is allowed again (bench interleaving).
        assert!(start(1013));
        stop();
    }

    #[test]
    fn zero_hz_never_starts() {
        let _g = serial();
        assert!(!start(0));
        assert!(!running());
    }
}
