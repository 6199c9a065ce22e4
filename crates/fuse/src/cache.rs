//! The fused-plan cache.
//!
//! Maps a program's canonical shape key (see [`crate::compile`]) to its
//! compiled [`CachedProgram`], so steady-state evaluation — the CG loop
//! re-issuing the same update chain every iteration — skips planning and
//! lowering entirely and goes straight to the specialized executors.
//!
//! The cache is deliberately small and flat: a linear-scanned `Vec` of
//! entries behind one mutex, FNV-1a-prefiltered, LRU-evicted at
//! [`CAPACITY`]. Contexts hold a handful of *distinct* program shapes (the
//! key ignores array identities, extents class by slot, and scalar
//! values), so a scan over ≤ 32 entries beats a hash table's
//! indirections and keeps the hit path allocation-free. Counters live in
//! the context's [`PlanCacheCounters`] so `ctx.stats()` reads them
//! without reaching into this crate.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

use racc_core::stats::PlanCacheCounters;

use crate::compile::CachedProgram;

/// Compiled programs a context retains; the least recently used goes
/// beyond this.
pub(crate) const CAPACITY: usize = 32;

/// One cached program keyed by `(hash, key, name)`. The profile name is
/// compared separately from the token stream because it is a `&'static
/// str`, not part of the canonical shape.
struct Entry {
    hash: u64,
    key: Vec<u32>,
    name: &'static str,
    program: Arc<CachedProgram>,
    last_used: u64,
}

struct CacheInner {
    entries: Vec<Entry>,
    tick: u64,
}

/// The per-context plan cache, parked in the context's
/// [`PlanCacheSlot`](racc_core::stats::PlanCacheSlot).
pub(crate) struct PlanCache {
    /// Entries retained (>= 1): a full cache evicts before it inserts.
    capacity: usize,
    counters: Arc<PlanCacheCounters>,
    inner: Mutex<CacheInner>,
}

/// FNV-1a over the token stream plus the program name — a cheap prefilter
/// so the linear scan compares full keys only on hash equality. Tokens
/// are mixed a word at a time (one multiply per token, not per byte):
/// the hash runs on every evaluation, hit or miss, so it sits on the
/// steady-state path.
pub(crate) fn hash_key(key: &[u32], name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for tok in key {
        mix(u64::from(*tok));
    }
    for b in name.bytes() {
        mix(u64::from(b));
    }
    h
}

impl PlanCache {
    pub(crate) fn new(capacity: usize, counters: Arc<PlanCacheCounters>) -> Self {
        PlanCache {
            capacity,
            counters,
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                tick: 0,
            }),
        }
    }

    /// Look up a program by pre-computed hash + full key. Bumps the hit or
    /// miss counter; clones the `Arc` out so the lock is released before
    /// the program executes.
    pub(crate) fn lookup(
        &self,
        hash: u64,
        key: &[u32],
        name: &'static str,
    ) -> Option<Arc<CachedProgram>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.name == name && e.key == key);
        match found {
            Some(entry) => {
                entry.last_used = tick;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.program))
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly compiled program, evicting the least-recently-used
    /// entry at capacity.
    pub(crate) fn insert(
        &self,
        hash: u64,
        key: &[u32],
        name: &'static str,
        program: Arc<CachedProgram>,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // A racing evaluation of the same program may have inserted first;
        // keep the existing entry so the cache never holds duplicates.
        if inner
            .entries
            .iter()
            .any(|e| e.hash == hash && e.name == name && e.key == key)
        {
            return;
        }
        if inner.entries.len() >= self.capacity {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("a full cache has a candidate");
            inner.entries.swap_remove(lru);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.push(Entry {
            hash,
            key: key.to_vec(),
            name,
            program,
            last_used: tick,
        });
        self.counters
            .entries
            .store(inner.entries.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Arc<CachedProgram> {
        Arc::new(CachedProgram { groups: Vec::new() })
    }

    fn counters(cache: &PlanCache) -> (u64, u64, u64) {
        (
            cache.counters.hits.load(Ordering::Relaxed),
            cache.counters.misses.load(Ordering::Relaxed),
            cache.counters.evictions.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn hit_after_insert_and_name_discriminates() {
        let cache = PlanCache::new(4, Arc::default());
        let key = [1u32, 2, 3];
        let h = hash_key(&key, "fused");
        assert!(cache.lookup(h, &key, "fused").is_none());
        cache.insert(h, &key, "fused", program());
        assert!(cache.lookup(h, &key, "fused").is_some());
        // Same tokens, different program name: distinct entry.
        let h2 = hash_key(&key, "other");
        assert!(cache.lookup(h2, &key, "other").is_none());
        assert_eq!(counters(&cache), (1, 2, 0));
    }

    #[test]
    fn capacity_one_evicts_lru() {
        let cache = PlanCache::new(1, Arc::default());
        let (a, b) = ([1u32], [2u32]);
        let (ha, hb) = (hash_key(&a, "fused"), hash_key(&b, "fused"));
        cache.insert(ha, &a, "fused", program());
        cache.insert(hb, &b, "fused", program());
        assert!(cache.lookup(ha, &a, "fused").is_none(), "a was evicted");
        assert!(cache.lookup(hb, &b, "fused").is_some());
        assert_eq!(counters(&cache).2, 1);
    }
}
