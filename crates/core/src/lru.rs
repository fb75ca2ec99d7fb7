//! A bounded, thread-safe least-recently-used map from 64-bit content
//! keys to shared values — the store behind both the region memo and
//! `gis-serve`'s whole-function schedule cache.
//!
//! Every access bumps a monotonic stamp, and inserting past capacity
//! evicts the entry with the smallest stamp (a `BTreeMap` from stamp to
//! key makes both the bump and the eviction `O(log n)`). Hit, miss and
//! eviction counts are atomics, so readers never contend on them.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Inner<V> {
    /// key → (value, stamp of its last access).
    map: HashMap<u64, (Arc<V>, u64)>,
    /// stamp → key, oldest first.
    by_stamp: BTreeMap<u64, u64>,
    clock: u64,
}

/// A bounded LRU map. Capacity `0` disables it: every lookup misses and
/// inserts are dropped.
pub struct Lru<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` values.
    pub fn new(capacity: usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().expect("lru lock")
    }

    /// Looks up a key, bumping its recency on a hit. Counts the access.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`Lru::get`] that counts only a hit: for a caller that answers a
    /// miss another way, which counts that access itself.
    pub fn probe(&self, key: u64) -> Option<Arc<V>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let hit = inner.map.get_mut(&key).map(|(value, last)| {
            let old = std::mem::replace(last, stamp);
            (Arc::clone(value), old)
        });
        if let Some((_, old)) = &hit {
            inner.by_stamp.remove(old);
            inner.by_stamp.insert(stamp, key);
        }
        drop(inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit.map(|(value, _)| value)
    }

    /// Inserts (or refreshes) a value, evicting the least recently used
    /// one if the map is full. Two racing inserts of one key leave the
    /// later value, which is harmless for content-addressed values.
    pub fn insert(&self, key: u64, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some((_, old)) = inner.map.remove(&key) {
            inner.by_stamp.remove(&old);
        } else if inner.map.len() >= self.capacity {
            if let Some((_, oldest)) = inner.by_stamp.pop_first() {
                inner.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, (value, stamp));
        inner.by_stamp.insert(stamp, key);
    }

    /// Every `(key, value)` pair, least recently used first.
    pub fn entries(&self) -> Vec<(u64, Arc<V>)> {
        let inner = self.lock();
        let value = |key: &u64| Arc::clone(&inner.map[key].0);
        inner.by_stamp.values().map(|k| (*k, value(k))).collect()
    }

    /// Drops every value and zeroes the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.by_stamp.clear();
        for counter in [&self.hits, &self.misses, &self.evictions] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Number of values held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used() {
        let lru = Lru::new(2);
        lru.insert(1, Arc::new("a"));
        lru.insert(2, Arc::new("b"));
        assert!(lru.get(1).is_some(), "1 becomes the most recent");
        lru.insert(3, Arc::new("c"));
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(2).is_none(), "2 was evicted");
        let keys: Vec<u64> = lru.entries().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3], "oldest first; a miss bumps nothing");
        assert_eq!((lru.hits(), lru.misses()), (1, 1));
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!((lru.hits(), lru.misses(), lru.evictions()), (0, 0, 0));
    }

    #[test]
    fn a_probe_counts_only_hits() {
        let lru = Lru::new(2);
        lru.insert(1, Arc::new("a"));
        lru.insert(2, Arc::new("b"));
        assert!(lru.probe(3).is_none());
        assert_eq!(
            (lru.hits(), lru.misses()),
            (0, 0),
            "a probe miss is uncounted"
        );
        assert!(lru.probe(1).is_some(), "1 becomes the most recent");
        assert_eq!((lru.hits(), lru.misses()), (1, 0));
        lru.insert(3, Arc::new("c"));
        assert!(lru.get(2).is_none(), "the probe bumped 1 past 2");
    }

    #[test]
    fn zero_capacity_disables() {
        let lru = Lru::new(0);
        lru.insert(1, Arc::new(1));
        assert!(lru.get(1).is_none());
        assert_eq!((lru.len(), lru.misses()), (0, 1));
    }
}
