//! A lock-sharded, request-coalescing concurrent cache.
//!
//! [`ShardedOnceMap`] is the storage layer behind the shared-session split:
//! many reader threads resolve (pattern, size, mapper)-style keys against
//! one map, a hit costs a shard read-lock plus a clone of the cached value
//! (values are meant to be `Arc`s or scalars), and a miss installs a
//! [`OnceLock`] cell so that N concurrent requests for the same key share
//! **one** compute — the losers block on the winner's cell instead of
//! re-running the computation (request coalescing).
//!
//! Keys hash twice: once to pick the shard (so unrelated keys contend on
//! different `RwLock`s) and once inside the shard's `HashMap`. The map never
//! evicts; invalidation is by construction — the session layer mints a fresh
//! core (and thus fresh maps, optionally pre-seeded via [`ShardedOnceMap::
//! insert`]) when the underlying topology changes.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// How a [`ShardedOnceMap::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The value was already cached: read-lock + clone.
    Hit,
    /// This call ran the compute and installed the value.
    Miss,
    /// Another thread was computing the same key; this call blocked on its
    /// cell and shared the result (one compute served both).
    Coalesced,
}

/// Monotonic totals of a map's lookup outcomes, mirrored per call site so
/// tests and the serve daemon can prove shared computes actually occurred.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// A point-in-time copy of [`CacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that ran the compute.
    pub misses: u64,
    /// Lookups that shared another thread's in-flight compute.
    pub coalesced: u64,
}

impl CacheCounters {
    fn record(&self, outcome: Lookup) {
        let c = match outcome {
            Lookup::Hit => &self.hits,
            Lookup::Miss => &self.misses,
            Lookup::Coalesced => &self.coalesced,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

impl CacheSnapshot {
    /// Outcome totals accumulated since `earlier`.
    pub fn since(&self, earlier: CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
        }
    }
}

struct Shard<K, V> {
    map: RwLock<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
        }
    }
}

/// The sharded coalescing map. See the module docs.
pub struct ShardedOnceMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    hasher: RandomState,
    counters: CacheCounters,
}

impl<K, V> ShardedOnceMap<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// A map with `shards` independent locks (rounded up to a power of two,
    /// minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedOnceMap {
            shards: (0..n).map(|_| Shard::default()).collect(),
            hasher: RandomState::new(),
            counters: CacheCounters::default(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let h = self.hasher.hash_one(key) as usize;
        // Power-of-two shard count: mask the hash.
        &self.shards[h & (self.shards.len() - 1)]
    }

    /// The value for `key`, computing it with `f` at most once across all
    /// concurrent callers. Returns the value and how the call was satisfied.
    ///
    /// The compute runs with **no** shard lock held, so `f` may itself
    /// resolve other keys (of this or other maps) as long as the dependency
    /// graph between caches is acyclic.
    pub fn get_or_compute(&self, key: &K, f: impl FnOnce() -> V) -> (V, Lookup) {
        let shard = self.shard(key);
        // Fast path: the cell exists and is initialized.
        let cell = {
            let map = shard.map.read().expect("cache shard poisoned");
            map.get(key).cloned()
        };
        let cell = cell.unwrap_or_else(|| {
            let mut map = shard.map.write().expect("cache shard poisoned");
            map.entry(key.clone())
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        });
        if let Some(v) = cell.get() {
            self.counters.record(Lookup::Hit);
            return (v.clone(), Lookup::Hit);
        }
        // Either we installed the cell (leader candidate) or we found one
        // mid-initialization. `OnceLock::get_or_init` runs the closure in
        // exactly one caller and blocks the rest until the value lands.
        let mut ran = false;
        let v = cell
            .get_or_init(|| {
                ran = true;
                f()
            })
            .clone();
        // Whether we installed the cell or found one mid-initialization,
        // losing the init race means sharing another caller's compute.
        let outcome = if ran { Lookup::Miss } else { Lookup::Coalesced };
        self.counters.record(outcome);
        (v, outcome)
    }

    /// The cached value for `key`, if initialized.
    pub fn get(&self, key: &K) -> Option<V> {
        let cell = {
            let map = self.shard(key).map.read().expect("cache shard poisoned");
            map.get(key).cloned()
        }?;
        cell.get().cloned()
    }

    /// Pre-seed `key` with `value` (used when a fault mints a new core that
    /// shares the old one's surviving entries, and when a snapshot is
    /// restored). Overwrites nothing: if the key already
    /// has an initialized cell, the existing value wins, preserving the
    /// compute-once guarantee.
    pub fn insert(&self, key: K, value: V) {
        let shard = self.shard(&key);
        let cell = {
            let mut map = shard.map.write().expect("cache shard poisoned");
            map.entry(key).or_default().clone()
        };
        let _ = cell.set(value);
    }

    /// Every initialized (key, value) pair, in unspecified order. Cells
    /// still being computed are skipped.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.map.read().expect("cache shard poisoned");
            for (k, cell) in map.iter() {
                if let Some(v) = cell.get() {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out
    }

    /// Number of initialized entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = s.map.read().expect("cache shard poisoned");
                map.values().filter(|c| c.get().is_some()).count()
            })
            .sum()
    }

    /// Whether no entry has been initialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map's lookup-outcome counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }
}

impl<K, V> Default for ShardedOnceMap<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// Sixteen shards — enough to keep an 8-worker pool off each other's
    /// locks without bloating tiny maps.
    fn default() -> Self {
        ShardedOnceMap::with_shards(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn hit_miss_accounting() {
        let m: ShardedOnceMap<u32, u64> = ShardedOnceMap::default();
        let (v, o) = m.get_or_compute(&7, || 42);
        assert_eq!((v, o), (42, Lookup::Miss));
        let (v, o) = m.get_or_compute(&7, || unreachable!("must not recompute"));
        assert_eq!((v, o), (42, Lookup::Hit));
        let s = m.counters().snapshot();
        assert_eq!((s.hits, s.misses, s.coalesced), (1, 1, 0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_does_not_overwrite() {
        let m: ShardedOnceMap<u32, u64> = ShardedOnceMap::default();
        m.insert(1, 10);
        m.insert(1, 20);
        assert_eq!(m.get(&1), Some(10));
        let (v, o) = m.get_or_compute(&1, || 30);
        assert_eq!((v, o), (10, Lookup::Hit));
    }

    #[test]
    fn entries_round_trip() {
        let m: ShardedOnceMap<u32, u64> = ShardedOnceMap::with_shards(4);
        for k in 0..32 {
            m.insert(k, u64::from(k) * 3);
        }
        let mut es = m.entries();
        es.sort_unstable();
        assert_eq!(es.len(), 32);
        assert!(es.iter().all(|&(k, v)| v == u64::from(k) * 3));
    }

    #[test]
    fn concurrent_identical_requests_share_one_compute() {
        const THREADS: usize = 8;
        let m: ShardedOnceMap<u32, u64> = ShardedOnceMap::default();
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let (v, _) = m.get_or_compute(&99, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so the other threads
                        // pile onto the cell instead of racing past it.
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        1234
                    });
                    assert_eq!(v, 1234);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        let s = m.counters().snapshot();
        assert_eq!(s.misses, 1);
        assert_eq!(
            s.hits + s.coalesced,
            (THREADS - 1) as u64,
            "every other caller shared it: {s:?}"
        );
    }
}
