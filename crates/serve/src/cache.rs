//! The plan-keyed result cache.
//!
//! Keys are the canonical [`Display`](lipstick_proql::ast::Statement)
//! rendering of the *parsed* statement, so two spellings of the same
//! query — different whitespace, keyword case, a trailing `;`, an
//! omitted optional keyword (`ANCESTORS #1` vs `ANCESTORS OF #1`) —
//! share one entry. Every entry is tagged with the
//! server's write epoch at execution time; a lookup only hits when the
//! tags match, so a mutation (which bumps the epoch) invalidates the
//! whole cache at once without touching it — the same
//! invalidate-on-write discipline the session already applies to its
//! reachability index. Stale entries are dropped lazily on lookup and
//! by LRU eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lipstick_core::obs;

/// A cached, fully rendered query result: both wire representations,
/// produced once at insert so repeated hits skip planning, execution,
/// *and* rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Line-protocol payload ([`std::fmt::Display`] of the output).
    pub text: String,
    /// HTTP-shim payload (`QueryOutput::to_json`).
    pub json: String,
}

struct Entry {
    epoch: u64,
    result: CachedResult,
    last_used: u64,
}

struct Lru {
    map: HashMap<String, Entry>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
}

/// A bounded, epoch-aware LRU from normalized statements to rendered
/// results. Eviction scans for the least-recently-used entry — O(n) at
/// the default capacity of a few hundred entries, which is far below
/// the cost of the query execution a hit saves.
///
/// Capacity 0 disables the cache entirely (every lookup misses, every
/// insert is dropped) — the `proql_server` bench's uncached baseline.
pub struct QueryCache {
    inner: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Payload bytes (keys + rendered results + entry headers)
    /// currently resident in this cache instance.
    bytes: AtomicU64,
    /// Entries dropped by this instance: LRU evictions plus lazy
    /// stale-entry removals.
    evictions: AtomicU64,
    /// Process-wide series mirroring the two atomics above, maintained
    /// by delta so the gauge is a true sum across every live cache in
    /// the process ([`Drop`] gives the bytes back).
    bytes_gauge: Arc<obs::Gauge>,
    evictions_total: Arc<obs::Counter>,
}

/// Bytes a cached entry pins: the key, both rendered payloads, and the
/// fixed entry/key headers. String capacity slack is not visible here,
/// so this is a lower bound — close in practice because the strings
/// come fresh from rendering.
fn entry_bytes(key: &str, result: &CachedResult) -> usize {
    key.len()
        + result.text.len()
        + result.json.len()
        + std::mem::size_of::<Entry>()
        + std::mem::size_of::<String>()
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        let r = obs::registry();
        QueryCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_gauge: r.gauge(
                "lipstick_serve_cache_bytes",
                "Payload bytes resident across every query cache in the process",
            ),
            evictions_total: r.counter(
                "lipstick_serve_cache_evictions_total",
                "Cache entries dropped: LRU evictions plus lazy stale-entry removals",
            ),
        }
    }

    /// Account one entry leaving the cache (LRU eviction, stale drop,
    /// or replacement by a fresh result under the same key).
    fn account_removal(&self, key: &str, entry: &Entry) {
        let freed = entry_bytes(key, &entry.result) as u64;
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.bytes_gauge.add(-(freed as i64));
        self.evictions_total.inc();
    }

    /// Look up `key` at the given epoch. An entry from an older epoch
    /// is stale: it is removed and the lookup misses.
    pub fn get(&self, key: &str, epoch: u64) -> Option<CachedResult> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut lru = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                let result = entry.result.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Some(_) => {
                if let Some(entry) = lru.map.remove(key) {
                    self.account_removal(key, &entry);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a result computed at `epoch`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&self, key: String, epoch: u64, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        lru.tick += 1;
        let tick = lru.tick;
        if !lru.map.contains_key(&key) && lru.map.len() >= self.capacity {
            // Prefer evicting a stale entry; otherwise the coldest.
            let victim = lru
                .map
                .iter()
                .min_by_key(|(_, e)| (e.epoch == epoch, e.last_used))
                .map(|(k, _)| k.clone());
            if let Some(v) = victim {
                if let Some(entry) = lru.map.remove(&v) {
                    self.account_removal(&v, &entry);
                }
            }
        }
        let added = entry_bytes(&key, &result) as u64;
        let key_len = key.len();
        if let Some(replaced) = lru.map.insert(
            key,
            Entry {
                epoch,
                result,
                last_used: tick,
            },
        ) {
            // Same key re-inserted (e.g. recomputed at a newer epoch):
            // the old payload leaves, but nothing was "evicted". The
            // retained key is identical to the incoming one, so its
            // length stands in for the replaced entry's key bytes.
            let freed = (key_len
                + replaced.result.text.len()
                + replaced.result.json.len()
                + std::mem::size_of::<Entry>()
                + std::mem::size_of::<String>()) as u64;
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            self.bytes_gauge.add(-(freed as i64));
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        self.bytes_gauge.add(added as i64);
    }

    /// Entries this cache holds at most; 0 means disabled.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (including stale-entry evictions) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Live entries (stale ones included until they are looked up or
    /// evicted).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes currently resident in this cache instance.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries this instance has dropped (LRU evictions + stale drops).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl obs::HeapSize for QueryCache {
    fn heap_breakdown(&self) -> Vec<(&'static str, usize)> {
        let table = {
            let lru = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            lru.map.capacity() * (std::mem::size_of::<String>() + std::mem::size_of::<Entry>() + 1)
        };
        vec![
            ("payload", self.bytes.load(Ordering::Relaxed) as usize),
            ("table", table),
        ]
    }
}

impl Drop for QueryCache {
    fn drop(&mut self) {
        // Give the resident bytes back to the process-wide gauge, or
        // short-lived caches (tests, benches) would leak into it.
        let remaining = self.bytes.load(Ordering::Relaxed);
        if remaining > 0 {
            self.bytes_gauge.add(-(remaining as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            text: tag.to_string(),
            json: format!("\"{tag}\""),
        }
    }

    #[test]
    fn hit_after_insert_at_same_epoch() {
        let cache = QueryCache::new(4);
        assert_eq!(cache.get("q", 0), None);
        cache.insert("q".into(), 0, result("r"));
        assert_eq!(cache.get("q", 0), Some(result("r")));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let cache = QueryCache::new(4);
        cache.insert("q".into(), 0, result("old"));
        assert_eq!(cache.get("q", 1), None, "stale entry must not serve");
        assert_eq!(cache.len(), 0, "stale entry dropped on lookup");
        cache.insert("q".into(), 1, result("new"));
        assert_eq!(cache.get("q", 1), Some(result("new")));
    }

    #[test]
    fn lru_evicts_coldest_first_and_stale_before_fresh() {
        let cache = QueryCache::new(2);
        cache.insert("a".into(), 0, result("a"));
        cache.insert("b".into(), 0, result("b"));
        let _ = cache.get("a", 0); // b is now coldest
        cache.insert("c".into(), 0, result("c"));
        assert_eq!(cache.get("b", 0), None, "coldest evicted");
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
        // A stale entry is preferred over any fresh one, even a colder
        // fresh one.
        let cache = QueryCache::new(2);
        cache.insert("fresh".into(), 1, result("f"));
        cache.insert("stale".into(), 0, result("s"));
        let _ = cache.get("stale", 0); // stale is warmest, fresh coldest
        cache.insert("new".into(), 1, result("n"));
        assert!(cache.get("fresh", 1).is_some(), "fresh survived");
        assert!(cache.get("new", 1).is_some());
    }

    #[test]
    fn byte_accounting_balances_across_churn() {
        let cache = QueryCache::new(2);
        assert_eq!(cache.bytes(), 0);
        cache.insert("a".into(), 0, result("aa"));
        let one = cache.bytes();
        assert_eq!(one as usize, entry_bytes("a", &result("aa")));
        cache.insert("b".into(), 0, result("bb"));
        assert_eq!(cache.bytes(), 2 * one);
        // Replacement under the same key swaps payloads without an
        // eviction.
        cache.insert("a".into(), 1, result("aa"));
        assert_eq!(cache.bytes(), 2 * one);
        assert_eq!(cache.evictions(), 0);
        // LRU eviction at capacity frees the victim's bytes.
        cache.insert("c".into(), 1, result("cc"));
        assert_eq!(cache.bytes(), 2 * one);
        assert_eq!(cache.evictions(), 1);
        // A stale drop on lookup counts as an eviction too.
        cache.insert("d".into(), 0, result("dd"));
        assert_eq!(cache.evictions(), 2, "capacity eviction for d");
        assert_eq!(cache.get("d", 5), None);
        assert_eq!(cache.evictions(), 3, "stale drop of d");
        assert_eq!(cache.bytes(), one);
    }

    #[test]
    fn heap_breakdown_includes_payload_and_table() {
        use lipstick_core::obs::HeapSize;
        let cache = QueryCache::new(4);
        cache.insert("q".into(), 0, result("r"));
        let parts = cache.heap_breakdown();
        assert_eq!(parts[0].0, "payload");
        assert_eq!(parts[0].1, cache.bytes() as usize);
        assert_eq!(parts[1].0, "table");
        assert!(cache.heap_bytes() >= parts[0].1);
    }
}
