//! Content-addressed LRU result cache.
//!
//! Analysis endpoints are pure functions of `(endpoint, options, matrix
//! bytes)`, so their responses are cached under a 64-bit FNV-1a hash of that
//! content. Repeated Sinkhorn/SVD work — the expensive kernels — is then served
//! from memory. Collisions (two distinct requests with equal hashes) would
//! serve the wrong cached response; at 2⁻⁶⁴ per pair this is accepted for an
//! analysis cache, and the keyed content includes a per-endpoint prefix so
//! cross-endpoint collisions cannot happen by construction.
//!
//! The LRU list is intrusive over a slab (`Vec`) of entries with index links —
//! no allocation per touch, O(1) get/put/evict.

pub use hc_obs::hash::fnv1a;
use hc_obs::hash::Fnv1a;

/// Builds a cache key from the endpoint name, its canonicalized options, and
/// the request body: the FNV-1a of `endpoint \0 options \0 body`, fed in
/// turn rather than copied into one buffer.
pub fn cache_key(endpoint: &str, options: &str, body: &[u8]) -> u64 {
    Fnv1a::default()
        .write(endpoint.as_bytes())
        .write(&[0])
        .write(options.as_bytes())
        .write(&[0])
        .write(body)
        .finish()
}

/// A cached response: content type + body.
///
/// The body is a shared buffer: hits hand out `Arc` clones, so serving a
/// cached response never copies the bytes, and storing one shares the
/// response's own buffer (see `Body::share`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResponse {
    /// `Content-Type` of the cached response.
    pub content_type: &'static str,
    /// Response body, shared with every response serving this entry.
    pub body: std::sync::Arc<[u8]>,
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: u64,
    value: CachedResponse,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map from key hash to cached response.
#[derive(Debug)]
pub struct LruCache {
    map: std::collections::HashMap<u64, usize>,
    slab: Vec<Entry>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time cache statistics for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Lookup hits since start.
    pub hits: u64,
    /// Lookup misses since start.
    pub misses: u64,
    /// Evictions since start.
    pub evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: std::collections::HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&mut self, key: u64) -> Option<CachedResponse> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(self.slab[idx].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is resident, without counting a hit/miss or refreshing
    /// recency — a read-only probe (the admission controller's cache check
    /// must not skew statistics or LRU order for a request it may still shed).
    pub fn peek(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when at capacity.
    pub fn put(&mut self, key: u64, value: CachedResponse) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.evictions += 1;
            self.slab[victim].key = key;
            self.slab[victim].value = value;
            victim
        } else {
            self.slab.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops every entry; the hit/miss/eviction counters are kept. Used after
    /// lock-poison recovery, when a panicking holder may have left an
    /// insertion half-applied — a cache is always safe to drop wholesale.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// Number of independent cache shards (same fan-out as the obs registry and
/// the session store).
pub const CACHE_SHARDS: usize = 8;

/// The result cache as seen by the server: 8 independently locked
/// [`LruCache`] shards selected by key, so concurrent requests for different
/// content never serialize on one global mutex.
///
/// Poison recovery is whole-cache: a panic while a shard lock was held (the
/// `cache.insert` failpoint) may have interrupted an insertion mid-way, and
/// the recovery contract predating sharding — "the cache is dropped
/// wholesale" — is kept by clearing **every** shard when any one is found
/// poisoned.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<std::sync::Mutex<LruCache>>,
    capacity: usize,
}

impl ShardedCache {
    /// A cache holding at most `capacity` entries in total (0 disables
    /// caching). Capacity is split evenly across shards, rounding up, so a
    /// tiny nonzero capacity still caches at least one entry per shard.
    pub fn new(capacity: usize) -> Self {
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(CACHE_SHARDS)
        };
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| std::sync::Mutex::new(LruCache::new(per_shard)))
                .collect(),
            capacity,
        }
    }

    /// Locks the shard owning `key`, applying the whole-cache poison-recovery
    /// rule first when needed. The guard is exposed so the router can hold the
    /// shard lock across its insert failpoint, exactly as it held the old
    /// global lock.
    pub fn lock_shard(&self, key: u64) -> std::sync::MutexGuard<'_, LruCache> {
        let idx = (key as usize) % CACHE_SHARDS;
        if self.shards.iter().any(std::sync::Mutex::is_poisoned) {
            // One panic clears the whole cache, not just the poisoned shard:
            // recovery semantics must not depend on which shard a key
            // happened to hash to. `lock_recover` clears the poison flag, so
            // this sweep runs once per poisoning, not on every later lock.
            for shard in &self.shards {
                hc_obs::sync::lock_recover(shard).clear();
            }
        }
        hc_obs::sync::lock_recover_then(&self.shards[idx], LruCache::clear)
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<CachedResponse> {
        self.lock_shard(key).get(key)
    }

    /// Inserts (or refreshes) `key` in its shard.
    pub fn put(&self, key: u64, value: CachedResponse) {
        self.lock_shard(key).put(key, value);
    }

    /// Whether `key` is resident — a statistics-neutral, recency-neutral
    /// probe (see [`LruCache::peek`]).
    pub fn contains(&self, key: u64) -> bool {
        self.lock_shard(key).peek(key)
    }

    /// Drops every entry in every shard (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            hc_obs::sync::lock_recover(shard).clear();
        }
    }

    /// Aggregated statistics: entry/hit/miss/eviction sums across shards,
    /// with the configured total capacity.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            entries: 0,
            capacity: self.capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        for shard in &self.shards {
            let s = hc_obs::sync::lock_recover(shard).stats();
            total.entries += s.entries;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(s: &str) -> CachedResponse {
        CachedResponse {
            content_type: "application/json",
            body: s.as_bytes().into(),
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_separates_endpoint_options_body() {
        let a = cache_key("measure", "ecs=1", b"body");
        let b = cache_key("structure", "ecs=1", b"body");
        let c = cache_key("measure", "", b"ecs=1body");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cache_key("measure", "ecs=1", b"body"));
    }

    #[test]
    fn key_is_the_hash_of_the_joined_content() {
        for (endpoint, options, body) in [
            ("measure", "", &b"task,m1\nt1,2\n"[..]),
            ("schedule", "ecs=1&heuristic=all", b"x"),
            ("", "", b""),
        ] {
            let mut joined = Vec::new();
            joined.extend_from_slice(endpoint.as_bytes());
            joined.push(0);
            joined.extend_from_slice(options.as_bytes());
            joined.push(0);
            joined.extend_from_slice(body);
            assert_eq!(cache_key(endpoint, options, body), fnv1a(&joined));
        }
    }

    #[test]
    fn hit_miss_and_refresh() {
        let mut c = LruCache::new(2);
        assert!(c.get(1).is_none());
        c.put(1, resp("one"));
        assert_eq!(&*c.get(1).unwrap().body, b"one");
        c.put(1, resp("one'"));
        assert_eq!(&*c.get(1).unwrap().body, b"one'");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn hits_hand_out_shared_buffers() {
        let mut c = LruCache::new(2);
        c.put(1, resp("payload"));
        let a = c.get(1).unwrap().body;
        let b = c.get(1).unwrap().body;
        // Two hits alias the one resident buffer — no per-hit deep copy.
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn peek_is_statistics_and_recency_neutral() {
        let mut c = LruCache::new(2);
        c.put(1, resp("1"));
        c.put(2, resp("2"));
        // Peeking 1 must NOT refresh it: 1 stays LRU and is evicted next.
        assert!(c.peek(1));
        assert!(!c.peek(99));
        c.put(3, resp("3"));
        assert!(!c.peek(1), "peek must not have refreshed recency");
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 0),
            "peek must not count hits/misses"
        );

        let sc = ShardedCache::new(64);
        sc.put(7, resp("7"));
        assert!(sc.contains(7));
        assert!(!sc.contains(8));
        let ss = sc.stats();
        assert_eq!((ss.hits, ss.misses), (0, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCache::new(2);
        c.put(1, resp("1"));
        c.put(2, resp("2"));
        assert!(c.get(1).is_some()); // 1 is now MRU; 2 is LRU
        c.put(3, resp("3")); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let mut c = LruCache::new(4);
        c.put(1, resp("1"));
        c.put(2, resp("2"));
        assert!(c.get(1).is_some());
        c.clear();
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(1).is_none());
        // The cache keeps working after a clear.
        c.put(3, resp("3"));
        assert_eq!(&*c.get(3).unwrap().body, b"3");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.put(1, resp("1"));
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn sharded_round_trip_and_aggregate_stats() {
        let c = ShardedCache::new(64);
        for k in 0..32u64 {
            assert!(c.get(k).is_none());
            c.put(k, resp(&k.to_string()));
        }
        for k in 0..32u64 {
            assert_eq!(&*c.get(k).unwrap().body, k.to_string().as_bytes());
        }
        let s = c.stats();
        assert_eq!((s.entries, s.capacity), (32, 64));
        assert_eq!((s.hits, s.misses, s.evictions), (32, 32, 0));
    }

    #[test]
    fn sharded_zero_capacity_disables() {
        let c = ShardedCache::new(0);
        c.put(7, resp("7"));
        assert!(c.get(7).is_none());
        assert_eq!(c.stats().capacity, 0);
    }

    #[test]
    fn sharded_clear_empties_all_shards() {
        let c = ShardedCache::new(64);
        for k in 0..16u64 {
            c.put(k, resp("x"));
        }
        c.clear();
        assert_eq!(c.stats().entries, 0);
        for k in 0..16u64 {
            assert!(c.get(k).is_none());
        }
    }

    #[test]
    fn poisoned_shard_clears_whole_cache() {
        let c = std::sync::Arc::new(ShardedCache::new(64));
        c.put(0, resp("shard0"));
        c.put(1, resp("shard1"));
        // Poison shard 0 by panicking while holding its lock.
        let c2 = std::sync::Arc::clone(&c);
        let _ = std::thread::spawn(move || {
            let _guard = c2.lock_shard(0);
            panic!("poison shard 0");
        })
        .join();
        // Recovery drops every shard's contents, not just shard 0's — even
        // when the first post-poison touch lands on a healthy shard.
        assert!(c.get(1).is_none());
        assert!(c.get(0).is_none());
        // And the cache keeps working afterwards.
        c.put(2, resp("again"));
        assert!(c.get(2).is_some());
    }

    #[test]
    fn many_entries_consistent() {
        let mut c = LruCache::new(16);
        for k in 0..100u64 {
            c.put(k, resp(&k.to_string()));
        }
        // Last 16 keys resident, in LRU order 84..99.
        for k in 0..84 {
            assert!(c.get(k).is_none(), "{k}");
        }
        for k in 84..100 {
            assert_eq!(&*c.get(k).unwrap().body, k.to_string().as_bytes());
        }
        assert_eq!(c.stats().evictions, 84);
    }
}
