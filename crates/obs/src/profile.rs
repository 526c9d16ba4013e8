//! Always-on continuous sampling profiler over the span stacks.
//!
//! A dedicated sampler thread wakes `hz` times per second and snapshots the
//! live span stack of every registered worker thread, folding each snapshot
//! into a sharded profile store. Because the samples are span *names* (not
//! machine addresses) the output is already symbolized: the folded render is
//! directly consumable by `flamegraph.pl` / speedscope, and the JSON render
//! is a self/total-time top table.
//!
//! # Never block a worker
//!
//! The worker-side cost must stay negligible (the <3% budget is enforced by
//! `tests/overhead.rs` and the `profiler_overhead` bench lane), so the
//! worker → sampler hand-off takes no locks on the worker side after
//! registration:
//!
//! * Each thread owns one `ThreadStack`: a fixed `[AtomicU32; MAX_DEPTH]`
//!   frame array plus an atomic depth, guarded by a **seqlock** sequence
//!   counter. Pushing or popping a frame is a handful of relaxed stores
//!   bracketed by the sequence bump (odd = write in progress) with
//!   release fences; no CAS loops, no waiting.
//! * The sampler reads optimistically: it snapshots the frames between two
//!   reads of the sequence counter and discards the sample as *torn*
//!   (`profile_samples_torn_total`) if the counter moved or was odd. Torn
//!   samples are rare (a write window is a few nanoseconds) and dropping
//!   them biases nothing measurable.
//! * Span names are interned to `u32` ids once per (thread, call site) via a
//!   thread-local pointer-keyed cache, so steady-state pushes never touch
//!   the global interner lock.
//!
//! Thread registration appends an `Arc<ThreadStack>` to a global list (one
//! mutex acquisition per thread lifetime); a thread-local destructor flips
//! the stack's `alive` flag so the sampler prunes dead threads — workers
//! respawned by the pool's drop sentinel re-register transparently.
//!
//! # Epoch rings
//!
//! Folded stacks accumulate in [`SHARDS`] shards, each holding a since-boot
//! map plus a ring of the last [`RING_EPOCHS`] epochs of [`EPOCH_SECS`]
//! seconds. A windowed query (`?seconds=30`) merges only the epochs that
//! overlap the window; an unwindowed query reads the boot maps. Stacks
//! deeper than [`MAX_DEPTH`] are truncated (counted in
//! `profile_stacks_truncated_total`) but depth keeps counting so pops stay
//! balanced.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json;
use crate::sync::lock_recover;

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

/// Fast-path gate read by every span open; off means the profiler costs one
/// relaxed load per span.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Sampling rate of the running sampler (0 when stopped).
static HZ: AtomicU32 = AtomicU32::new(0);

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
// Per-thread seqlock'd span stack
// ---------------------------------------------------------------------------

struct ThreadStack {
    /// Seqlock sequence: odd while a push/pop is in flight.
    seq: AtomicU32,
    /// Logical depth; may exceed [`MAX_DEPTH`] (frames beyond are dropped).
    depth: AtomicU32,
    frames: [AtomicU32; MAX_DEPTH],
    /// Cleared by the owning thread's TLS destructor; the sampler prunes
    /// dead stacks from the registry on its next pass.
    alive: AtomicBool,
}

impl ThreadStack {
    fn new() -> Self {
        ThreadStack {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            alive: AtomicBool::new(true),
        }
    }

    fn push(&self, id: u32) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed) as usize;
        if d < MAX_DEPTH {
            self.frames[d].store(id, Ordering::Relaxed);
        } else {
            crate::obs_counter!("profile_stacks_truncated_total").inc();
        }
        self.depth.store(d as u32 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Optimistic snapshot of the live stack into `buf`. Returns the depth
    /// (clamped to [`MAX_DEPTH`]) or `None` if every retry raced a writer.
    fn snapshot(&self, buf: &mut [u32; MAX_DEPTH]) -> Option<usize> {
        for _ in 0..SEQLOCK_RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let d = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
            for (slot, frame) in buf.iter_mut().zip(self.frames.iter()).take(d) {
                *slot = frame.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(d);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Thread registration
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<Vec<Arc<ThreadStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct LocalStack {
    stack: Arc<ThreadStack>,
    /// Call-site id cache keyed by the `&'static str` data pointer, so the
    /// global interner lock is taken once per (thread, span name).
    ids: HashMap<usize, u32, BuildHasherDefault<PtrHasher>>,
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

impl Drop for LocalStack {
    fn drop(&mut self) {
        self.stack.alive.store(false, Ordering::Release);
    }
}

thread_local! {
    static LOCAL: std::cell::RefCell<Option<LocalStack>> =
        const { std::cell::RefCell::new(None) };
}

fn register_current_thread() -> LocalStack {
    let stack = Arc::new(ThreadStack::new());
    lock_recover(registry()).push(Arc::clone(&stack));
    LocalStack {
        stack,
        ids: HashMap::default(),
    }
}

/// Records a span open on the current thread's profile stack. Returns `true`
/// iff a matching [`frame_pop`] is owed (profiler enabled and TLS usable) —
/// the span guard stores the flag so enable/disable races stay balanced.
pub(crate) fn frame_push(name: &'static str) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    LOCAL
        .try_with(|cell| {
            let mut cell = cell.borrow_mut();
            let local = cell.get_or_insert_with(register_current_thread);
            let key = name.as_ptr() as usize;
            let id = match local.ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = intern(name);
                    local.ids.insert(key, id);
                    id
                }
            };
            local.stack.push(id);
            true
        })
        .unwrap_or(false)
}

/// Records a span close; called only when the matching [`frame_push`]
/// returned `true`.
pub(crate) fn frame_pop() {
    let _ = LOCAL.try_with(|cell| {
        if let Some(local) = cell.borrow_mut().as_mut() {
            local.stack.pop();
        }
    });
}

// ---------------------------------------------------------------------------
// Folded-stack store
// ---------------------------------------------------------------------------

type Key = Box<[u32]>;

#[derive(Default)]
struct Shard {
    boot: HashMap<Key, u64>,
    /// Ring of `(epoch_id, counts)`, newest at the back.
    epochs: VecDeque<(u64, HashMap<Key, u64>)>,
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

fn record_sample(key: &[u32], epoch: u64) {
    let mut shard = lock_recover(&store()[shard_of(key)]);
    if let Some(n) = shard.boot.get_mut(key) {
        *n += 1;
    } else {
        shard.boot.insert(key.to_vec().into_boxed_slice(), 1);
    }
    let rotate = match shard.epochs.back() {
        Some((e, _)) => *e != epoch,
        None => true,
    };
    if rotate {
        shard.epochs.push_back((epoch, HashMap::new()));
        while shard.epochs.len() > RING_EPOCHS {
            shard.epochs.pop_front();
        }
    }
    let (_, counts) = shard.epochs.back_mut().expect("just pushed");
    if let Some(n) = counts.get_mut(key) {
        *n += 1;
    } else {
        counts.insert(key.to_vec().into_boxed_slice(), 1);
    }
}

/// Monotonic origin shared by the sampler's epoch clock and window queries.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn merged(window: Option<Duration>) -> HashMap<Key, u64> {
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
// Sampler thread
// ---------------------------------------------------------------------------

fn sampler_handle() -> &'static Mutex<Option<JoinHandle<()>>> {
    static HANDLE: OnceLock<Mutex<Option<JoinHandle<()>>>> = OnceLock::new();
    HANDLE.get_or_init(|| Mutex::new(None))
}

fn sampler_loop(hz: u32) {
    let period = Duration::from_nanos(1_000_000_000u64 / u64::from(hz.max(1)));
    let mut buf = [0u32; MAX_DEPTH];
    let mut stacks: Vec<Arc<ThreadStack>> = Vec::new();
    while ENABLED.load(Ordering::Relaxed) {
        let tick = Instant::now();
        let epoch = origin().elapsed().as_secs() / EPOCH_SECS;
        {
            let mut reg = lock_recover(registry());
            reg.retain(|s| s.alive.load(Ordering::Acquire));
            stacks.clear();
            stacks.extend(reg.iter().cloned());
        }
        for stack in &stacks {
            match stack.snapshot(&mut buf) {
                Some(0) => crate::obs_counter!("profile_samples_idle_total").inc(),
                Some(d) => {
                    record_sample(&buf[..d], epoch);
                    crate::obs_counter!("profile_samples_total").inc();
                }
                None => crate::obs_counter!("profile_samples_torn_total").inc(),
            }
        }
        std::thread::sleep(period.saturating_sub(tick.elapsed()));
    }
}

/// Starts the sampler thread at `hz` samples per second. Idempotent: the
/// first caller wins and later calls (any rate) return `false`, so multiple
/// in-process servers share one profiler. `hz == 0` disables profiling and
/// returns `false`. Returns `true` when this call started the sampler.
pub fn start(hz: u32) -> bool {
    if hz == 0 {
        return false;
    }
    let mut handle = lock_recover(sampler_handle());
    if handle.is_some() {
        return false;
    }
    origin(); // pin the epoch clock before the first sample
    HZ.store(hz, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    match std::thread::Builder::new()
        .name("hc-profile-sampler".into())
        .spawn(move || sampler_loop(hz))
    {
        Ok(h) => {
            *handle = Some(h);
            true
        }
        Err(_) => {
            ENABLED.store(false, Ordering::Relaxed);
            HZ.store(0, Ordering::Relaxed);
            false
        }
    }
}

/// Stops the sampler and joins its thread. Intended for tests and benches;
/// the daemon never stops a started profiler (it is process-global).
pub fn stop() {
    let mut handle = lock_recover(sampler_handle());
    ENABLED.store(false, Ordering::Relaxed);
    HZ.store(0, Ordering::Relaxed);
    if let Some(h) = handle.take() {
        let _ = h.join();
    }
}

/// True while the sampler thread is running.
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
/// the since-boot profile.
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
/// descending `total`, ties broken by name.
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
        let s = ThreadStack::new();
        let a = intern("profile.test.a");
        let b = intern("profile.test.b");
        s.push(a);
        s.push(b);
        let mut buf = [0u32; MAX_DEPTH];
        assert_eq!(s.snapshot(&mut buf), Some(2));
        assert_eq!(&buf[..2], &[a, b]);
        s.pop();
        assert_eq!(s.snapshot(&mut buf), Some(1));
        assert_eq!(buf[0], a);
        s.pop();
        assert_eq!(s.snapshot(&mut buf), Some(0));
    }

    #[test]
    fn overflow_depth_truncates_but_stays_balanced() {
        let _g = serial();
        let s = ThreadStack::new();
        let id = intern("profile.test.deep");
        for _ in 0..(MAX_DEPTH + 5) {
            s.push(id);
        }
        let mut buf = [0u32; MAX_DEPTH];
        // Clamped snapshot: the logical depth exceeds the frame array.
        assert_eq!(s.snapshot(&mut buf), Some(MAX_DEPTH));
        for _ in 0..(MAX_DEPTH + 5) {
            s.pop();
        }
        assert_eq!(s.snapshot(&mut buf), Some(0));
        // An extra pop under-flows harmlessly.
        s.pop();
        assert_eq!(s.snapshot(&mut buf), Some(0));
    }

    #[test]
    fn store_merges_and_renders_folded() {
        let _g = serial();
        reset_store();
        let a = intern("profile.test.root");
        let b = intern("profile.test.leaf");
        record_sample(&[a, b], 0);
        record_sample(&[a, b], 0);
        record_sample(&[a], 0);
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
        record_sample(&[a, b], 0);
        record_sample(&[a, b], 0);
        record_sample(&[a], 0);
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
        record_sample(&[a, b], 0);
        record_sample(&[a, b], 0);
        record_sample(&[a], 0);
        // No sampler runs here, so `hz` reads 0 and seconds equal samples.
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
        record_sample(&[a, a, a], 0);
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
            record_sample(&[a], epoch);
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

    #[test]
    fn sampler_profiles_a_held_span() {
        let _g = serial();
        reset_store();
        assert!(start(997), "sampler must start");
        // Hold a span open on a worker thread long enough to be sampled.
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
            "sampler saw no nested stack:\n{folded}"
        );
        assert!(!running());
        assert_eq!(hz(), 0);
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
