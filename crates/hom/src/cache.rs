//! A canonical-hash keyed cache of homomorphism-existence answers.
//!
//! Every fitting request decomposes into homomorphism existence checks,
//! and interactive workloads (query-by-example sessions, repeated
//! fittings over slowly-evolving example sets) re-ask the same checks
//! over and over: each positive against each negative, the product of the
//! positives against each negative, pairwise containment between the same
//! disjuncts.  [`HomCache`] memoizes those answers across requests and
//! sessions, keyed by the *canonical structural hashes* of the operands
//! ([`cqfit_data::CanonicalHash`]), so a repeat of a check — even one built
//! independently by another session — is a lookup instead of a search.
//!
//! Soundness: canonical hashes identify objects up to structural identity
//! (same schema, same fact set over the same value indices, same
//! distinguished tuple; labels excluded), and a hom-existence answer is a
//! function of exactly that structure, so it is cached as a `bool` keyed by
//! the (source, target) hash pair.
//!
//! Cores are not cached: no measured workload re-asks one.
//! [`HomCache::core_of`] computes each core afresh and only counts the
//! request on the registry (`core_misses`).
//!
//! Concurrency: the map is sharded (16 shards, picked by key bits) behind
//! plain `Mutex`es — lookups and inserts hold a shard lock for a hash-map
//! operation only, never during a search.  Batch entry points run their
//! cache misses in order on the calling thread.
//!
//! Bounds: the map stops inserting at 1M entries — a full cache keeps
//! serving hits for the keys it holds and computes the rest, so
//! long-running servers cannot be grown without bound by adversarial
//! workloads.

use crate::search::hom_exists;
use cqfit_data::{CanonicalHash, Example};
use cqfit_obs::Registry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Number of shards of the hom-existence map (power of two).
const SHARDS: usize = 16;

/// Entry cap of one shard: 1M entries in all (~50 MB worst case of keys).
const SHARD_ENTRIES: usize = (1 << 20) / SHARDS;

type HomKey = (CanonicalHash, CanonicalHash);

/// Statistics of a [`HomCache`]: monotone counters plus the current size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hom-existence lookups answered from the cache.
    pub hom_hits: u64,
    /// Hom-existence searches actually executed.  Duplicate pairs within
    /// one batch share a single search (and a single count), and pairs
    /// after the first hit of [`HomCache::any_hom_exists`] are not
    /// counted — no search ran for them.
    pub hom_misses: u64,
    /// Current number of cached hom-existence answers.
    pub hom_entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was asked.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hom_hits + self.hom_misses;
        if total == 0 {
            0.0
        } else {
            self.hom_hits as f64 / total as f64
        }
    }
}

/// A concurrent, canonical-hash keyed cache of homomorphism-existence
/// answers.  See the module documentation for keying, soundness and
/// bounds.
pub struct HomCache {
    hom_shards: Vec<Mutex<HashMap<HomKey, bool>>>,
    // Hit/miss counters live on the shared `cqfit-obs` registry (the
    // engine passes its own so cache traffic lands in the process-wide
    // snapshot); a standalone cache gets a fresh private registry.
    registry: Arc<Registry>,
}

impl std::fmt::Debug for HomCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("HomCache")
            .field("stats", &stats)
            .finish_non_exhaustive()
    }
}

impl Default for HomCache {
    fn default() -> Self {
        HomCache::new()
    }
}

impl HomCache {
    /// An empty cache counting on a private registry.
    pub fn new() -> Self {
        HomCache::with_registry(Arc::new(Registry::new()))
    }

    /// An empty cache whose hit/miss counters land on the given shared
    /// metrics registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        HomCache {
            hom_shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            registry,
        }
    }

    /// The metrics registry receiving this cache's hit/miss counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn shard(&self, key: &HomKey) -> &Mutex<HashMap<HomKey, bool>> {
        let idx = (key.0 .0 ^ key.1 .0.rotate_left(1)) as usize & (SHARDS - 1);
        &self.hom_shards[idx]
    }

    /// Reads the cached answer for a key without touching any counter.
    fn peek_hom(&self, key: &HomKey) -> Option<bool> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(key)
            .copied()
    }

    /// Searches for `src → dst`, counting a miss and caching the answer
    /// while the key's shard has room.
    fn search(&self, key: HomKey, src: &Example, dst: &Example) -> bool {
        self.registry.hom_misses.inc();
        let answer = hom_exists(src, dst);
        let mut shard = self.shard(&key).lock().expect("cache shard");
        if shard.len() < SHARD_ENTRIES {
            shard.insert(key, answer);
        }
        answer
    }

    /// Cached [`hom_exists`]: is there a homomorphism `src → dst`?
    ///
    /// Panics (like the uncached check) if the two examples mix schemas or
    /// arities.
    pub fn hom_exists(&self, src: &Example, dst: &Example) -> bool {
        let key = (src.canonical_hash(), dst.canonical_hash());
        if let Some(answer) = self.peek_hom(&key) {
            self.registry.hom_hits.inc();
            return answer;
        }
        self.search(key, src, dst)
    }

    /// Cached `pairs.iter().any(|(s, d)| hom_exists(s, d))`.  Cached
    /// positive answers short-circuit before any search; the remaining
    /// distinct uncached keys are then searched in order, stopping at the
    /// first hit (pairs after it run no search, are not cached, and are
    /// not counted as misses).
    pub fn any_hom_exists(&self, pairs: &[(&Example, &Example)]) -> bool {
        let mut seen: HashSet<HomKey> = HashSet::new();
        let mut uncached = Vec::new();
        for &(s, d) in pairs {
            let key = (s.canonical_hash(), d.canonical_hash());
            match self.peek_hom(&key) {
                Some(true) => {
                    self.registry.hom_hits.inc();
                    return true;
                }
                Some(false) => self.registry.hom_hits.inc(),
                None => {
                    if seen.insert(key) {
                        uncached.push((s, d, key));
                    }
                }
            }
        }
        uncached
            .into_iter()
            .any(|(s, d, key)| self.search(key, s, d))
    }

    /// [`crate::core_of`], counted as one `core_misses` on the registry.
    pub fn core_of(&self, e: &Example) -> Arc<Example> {
        self.registry.core_misses.inc();
        Arc::new(crate::core_of(e))
    }

    /// Current statistics, assembled as a view over the registry counters
    /// plus the live map size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hom_hits: self.registry.hom_hits.get(),
            hom_misses: self.registry.hom_misses.get(),
            hom_entries: self
                .hom_shards
                .iter()
                .map(|s| s.lock().expect("cache shard").len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_of, hom_equivalent, hom_exists};
    use cqfit_data::{Instance, Schema};

    fn cycle(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("c", n);
        for k in 0..n {
            i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % n]]).unwrap();
        }
        Example::boolean(i)
    }

    #[test]
    fn cached_answers_match_uncached() {
        let cache = HomCache::new();
        let (c3, c4, c6, c2) = (cycle(3), cycle(4), cycle(6), cycle(2));
        for (s, d) in [(&c3, &c2), (&c4, &c2), (&c6, &c3), (&c6, &c2)] {
            assert_eq!(cache.hom_exists(s, d), hom_exists(s, d));
            // Second ask must hit and agree.
            assert_eq!(cache.hom_exists(s, d), hom_exists(s, d));
        }
        let stats = cache.stats();
        assert_eq!(stats.hom_hits, 4);
        assert_eq!(stats.hom_misses, 4);
        assert!(stats.hit_rate() > 0.4);
    }

    #[test]
    fn batch_serves_repeats_from_cache() {
        let cache = HomCache::new();
        // Odd cycles: none maps into C2, so every pair is searched.
        let srcs: Vec<Example> = [3, 5, 7, 9].into_iter().map(cycle).collect();
        let c2 = cycle(2);
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &c2)).collect();
        assert!(!cache.any_hom_exists(&pairs));
        let before = cache.stats();
        assert_eq!(before.hom_misses, pairs.len() as u64);
        assert!(!cache.any_hom_exists(&pairs));
        let after = cache.stats();
        assert_eq!(after.hom_hits - before.hom_hits, pairs.len() as u64);
        assert_eq!(after.hom_misses, before.hom_misses);
    }

    #[test]
    fn duplicate_pairs_in_one_batch_search_once() {
        let cache = HomCache::new();
        let (c3, c2) = (cycle(3), cycle(2));
        // Structurally identical pairs repeated five times: one search.
        let pairs: Vec<(&Example, &Example)> = (0..5).map(|_| (&c3, &c2)).collect();
        assert!(!cache.any_hom_exists(&pairs));
        let stats = cache.stats();
        assert_eq!(stats.hom_misses, 1, "one search for five duplicate pairs");
        assert_eq!(stats.hom_hits, 0);
    }

    #[test]
    fn any_agrees_and_short_circuits_on_cached_hit() {
        let cache = HomCache::new();
        let (c3, c4) = (cycle(3), cycle(4));
        let c2 = cycle(2);
        let pairs: Vec<(&Example, &Example)> = vec![(&c3, &c2), (&c4, &c2)];
        assert!(cache.any_hom_exists(&pairs));
        // Populate, then the cached `true` answers without any search.
        assert!(cache.any_hom_exists(&pairs));
        let odd_pairs: Vec<(&Example, &Example)> = vec![(&c3, &c2)];
        assert!(!cache.any_hom_exists(&odd_pairs));
        assert!(!cache.any_hom_exists(&[]));
    }

    #[test]
    fn cached_core_is_the_core() {
        let cache = HomCache::new();
        // Two disjoint copies of C3 core to one C3.
        let mut i = Instance::new(Schema::digraph());
        for copy in 0..2 {
            let vs = i.add_values(&format!("a{copy}_"), 3);
            for k in 0..3 {
                i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % 3]]).unwrap();
            }
        }
        let e = Example::boolean(i);
        let first = cache.core_of(&e);
        assert_eq!(
            first.instance().num_values(),
            core_of(&e).instance().num_values()
        );
        assert!(hom_equivalent(&first, &e));
        let again = cache.core_of(&e);
        assert!(again.instance().same_facts(first.instance()));
        // Every core request is computed and counted.
        assert_eq!(cache.registry().core_misses.get(), 2);
        assert_eq!(cache.registry().core_hits.get(), 0);
    }

    #[test]
    fn label_different_operands_do_not_share_cores() {
        let cache = HomCache::new();
        let mut a = Instance::new(Schema::digraph());
        a.add_fact_labels("R", &["x", "x"]).unwrap();
        let mut b = Instance::new(Schema::digraph());
        b.add_fact_labels("R", &["y", "y"]).unwrap();
        let ea = Example::boolean(a);
        let eb = Example::boolean(b);
        // Structurally equal, label-different: hom cache may share ...
        assert_eq!(ea.canonical_hash(), eb.canonical_hash());
        // ... but the cores keep their own labels.
        let ca = cache.core_of(&ea);
        let cb = cache.core_of(&eb);
        assert_eq!(ca.instance().label(cqfit_data::Value(0)), "x");
        assert_eq!(cb.instance().label(cqfit_data::Value(0)), "y");
    }

    #[test]
    fn capacity_cap_stops_inserts_but_not_answers() {
        let cache = HomCache::new();
        let (c3, c2) = (cycle(3), cycle(2));
        let key = (c3.canonical_hash(), c2.canonical_hash());
        // Fill the key's shard to its cap with keys no example has.
        {
            let mut shard = cache.shard(&key).lock().unwrap();
            for k in 0..SHARD_ENTRIES as u128 {
                shard.insert((CanonicalHash(k), CanonicalHash(k)), true);
            }
        }
        assert!(!cache.hom_exists(&c3, &c2));
        assert!(!cache.hom_exists(&c3, &c2));
        let stats = cache.stats();
        assert_eq!(stats.hom_entries, SHARD_ENTRIES);
        assert_eq!((stats.hom_hits, stats.hom_misses), (0, 2));
    }
}
