//! The content-addressed schedule cache.
//!
//! Scheduling a region is pure: the scheduled text is a function of the
//! input IR (including its fresh-id allocator state), the machine
//! description, and the scheduling configuration — nothing else. So the
//! cache key is a content address: the FNV-64 of the function's
//! [canonical bytes](gis_ir::canon) chained with fingerprints of the
//! machine and the config (see [`cache_key`]). Repeated compiles of the
//! same function — the common case for a daemon serving a build farm's
//! hot functions — become a hash-map lookup instead of a full pipeline
//! run, the same block-cache idea JITs use to avoid re-translating
//! unchanged code.
//!
//! Eviction is least-recently-used over a bounded capacity
//! ([`gis_core::Lru`], the same store as the region memo); the cache
//! adds only the persisted image ([`ScheduleCache::dump`]/[`load`]).
//!
//! [`load`]: ScheduleCache::load

use gis_core::fingerprint::{write_config_fingerprint, write_machine_fingerprint};
use gis_core::{Lru, SchedConfig};
use gis_ir::hash::Fnv64;
use gis_ir::Function;
use gis_machine::MachineDescription;
use std::sync::Arc;

/// One cached scheduling result.
#[derive(Debug)]
pub struct CachedSchedule {
    /// The scheduled function's textual form.
    pub text: String,
    /// FNV-64 of `text` — the schedule hash clients compare.
    pub hash: u64,
    /// Useful motions performed when this schedule was computed.
    pub moved_useful: u64,
    /// Speculative motions performed when this schedule was computed.
    pub moved_speculative: u64,
    /// Wall time of the original (cold) compile, in nanoseconds.
    pub nanos: u64,
}

/// A bounded, thread-safe, content-addressed map from cache key to
/// scheduled result with least-recently-used eviction: the shared
/// [`Lru`] (reached through `Deref`) plus the persisted image. Two
/// compiles of one key racing to insert are harmless, because scheduling
/// is deterministic and both hold identical results.
pub struct ScheduleCache(Lru<CachedSchedule>);

impl std::ops::Deref for ScheduleCache {
    type Target = Lru<CachedSchedule>;

    fn deref(&self) -> &Lru<CachedSchedule> {
        &self.0
    }
}

impl ScheduleCache {
    /// A cache holding at most `capacity` schedules. Capacity `0`
    /// disables caching entirely (every lookup misses, inserts are
    /// dropped) — useful for measuring cold throughput.
    pub fn new(capacity: usize) -> Self {
        ScheduleCache(Lru::new(capacity))
    }

    /// The counters as `(name, value)` pairs for the metrics registry
    /// (`cache.` prefix groups them in the sorted listing, next to the
    /// scheduler's `perf.` counters).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cache.hits", self.hits()),
            ("cache.misses", self.misses()),
            ("cache.evictions", self.evictions()),
            ("cache.entries", self.len() as u64),
            ("cache.capacity", self.capacity() as u64),
        ]
    }

    /// Serializes every entry into a versioned binary image, least
    /// recently used first, so [`ScheduleCache::load`] re-inserting in
    /// image order reproduces the recency order exactly. Counters are
    /// not persisted — they describe one daemon's lifetime, not the
    /// cache contents.
    pub fn dump(&self) -> Vec<u8> {
        let entries = self.entries();
        let mut out = Vec::new();
        out.extend_from_slice(DUMP_MAGIC);
        out.extend_from_slice(&DUMP_VERSION.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, value) in entries {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.hash.to_le_bytes());
            out.extend_from_slice(&value.moved_useful.to_le_bytes());
            out.extend_from_slice(&value.moved_speculative.to_le_bytes());
            out.extend_from_slice(&value.nanos.to_le_bytes());
            out.extend_from_slice(&(value.text.len() as u64).to_le_bytes());
            out.extend_from_slice(value.text.as_bytes());
        }
        out
    }

    /// Restores entries from a [`ScheduleCache::dump`] image, returning
    /// how many were inserted (at most the capacity — inserting in image
    /// order evicts the least recently used overflow first, like any
    /// other insert).
    ///
    /// # Errors
    ///
    /// Returns a message when the image is not a schedule-cache dump, is
    /// a version this build does not speak, or is truncated. The cache
    /// is left unchanged in every error case except a mid-image
    /// truncation, which keeps the entries decoded before the cut —
    /// each was individually well-formed.
    pub fn load(&self, bytes: &[u8]) -> Result<usize, String> {
        struct Cursor<'a>(&'a [u8]);
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
                if self.0.len() < n {
                    return Err("schedule-cache image is truncated".to_owned());
                }
                let (head, tail) = self.0.split_at(n);
                self.0 = tail;
                Ok(head)
            }
            fn take_u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(
                    self.take(8)?.try_into().expect("eight bytes"),
                ))
            }
        }
        let mut cur = Cursor(bytes);
        if cur.take(4)? != DUMP_MAGIC {
            return Err("not a schedule-cache image (bad magic)".to_owned());
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().expect("four bytes"));
        if version != DUMP_VERSION {
            return Err(format!(
                "schedule-cache image version {version} (this build speaks {DUMP_VERSION})"
            ));
        }
        let count = cur.take_u64()?;
        let mut loaded = 0usize;
        for _ in 0..count {
            let key = cur.take_u64()?;
            let hash = cur.take_u64()?;
            let moved_useful = cur.take_u64()?;
            let moved_speculative = cur.take_u64()?;
            let nanos = cur.take_u64()?;
            let text_len = cur.take_u64()? as usize;
            let text = String::from_utf8(cur.take(text_len)?.to_vec())
                .map_err(|_| "schedule-cache image holds non-UTF-8 text".to_owned())?;
            self.insert(
                key,
                Arc::new(CachedSchedule {
                    text,
                    hash,
                    moved_useful,
                    moved_speculative,
                    nanos,
                }),
            );
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Magic prefix of a persisted cache image.
const DUMP_MAGIC: &[u8; 4] = b"GISC";
/// Image format version; bump on any layout change so an upgraded
/// daemon rejects old images instead of misreading them.
const DUMP_VERSION: u32 = 1;

/// The cache key for scheduling `function` on `machine` under `config`:
/// FNV-64 over the function's canonical bytes chained with the machine
/// and config fingerprints (shared with the in-process region memo via
/// [`gis_core::fingerprint`]). See `docs/SERVICE.md` for the stability
/// contract.
pub fn cache_key(function: &Function, machine: &MachineDescription, config: &SchedConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write(&gis_ir::to_canonical_bytes(function));
    write_machine_fingerprint(&mut h, machine);
    write_config_fingerprint(&mut h, config, function.inst_id_bound());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;

    fn entry(n: u64) -> Arc<CachedSchedule> {
        Arc::new(CachedSchedule {
            text: format!("schedule {n}"),
            hash: n,
            moved_useful: 0,
            moved_speculative: 0,
            nanos: 1,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ScheduleCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, entry(1));
        assert_eq!(cache.get(1).expect("hit").hash, 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ScheduleCache::new(2);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        // Touch 1 so 2 becomes the least recently used.
        assert!(cache.get(1).is_some());
        cache.insert(3, entry(3));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(2).is_none(), "2 was evicted");
        assert!(cache.get(1).is_some(), "1 survived");
        assert!(cache.get(3).is_some(), "3 inserted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ScheduleCache::new(0);
        cache.insert(1, entry(1));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn reinserting_does_not_evict() {
        let cache = ScheduleCache::new(2);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        cache.insert(1, entry(10));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(1).expect("present").hash, 10, "refreshed");
        assert!(cache.get(2).is_some());
    }

    #[test]
    fn key_separates_function_machine_and_config() {
        let f = parse_function("func t\ne:\n LI r0=1\n RET\n").expect("parses");
        let g = parse_function("func t\ne:\n LI r0=2\n RET\n").expect("parses");
        let rs6k = MachineDescription::rs6k();
        let wide = MachineDescription::wide(4);
        let spec = SchedConfig::speculative();
        let base = SchedConfig::base();
        let k = cache_key(&f, &rs6k, &spec);
        assert_eq!(k, cache_key(&f, &rs6k, &spec), "deterministic");
        assert_ne!(k, cache_key(&g, &rs6k, &spec), "function matters");
        assert_ne!(k, cache_key(&f, &wide, &spec), "machine matters");
        assert_ne!(k, cache_key(&f, &rs6k, &base), "config matters");
    }

    #[test]
    fn duplication_splits_the_key_only_when_enabled() {
        let f = parse_function("func t\ne:\n LI r0=1\n RET\n").expect("parses");
        let rs6k = MachineDescription::rs6k();
        let off = SchedConfig::speculative();
        let mut on = SchedConfig::speculative();
        on.duplication = true;
        assert_ne!(
            cache_key(&f, &rs6k, &off),
            cache_key(&f, &rs6k, &on),
            "the gate changes schedules, so it must split the key"
        );
    }

    #[test]
    fn pre_duplication_cache_keys_are_stable() {
        // Pinned key values captured before the duplication option
        // existed: a daemon upgraded across that change must keep every
        // existing cache entry addressable (options added after
        // config/v1 are hashed only when enabled). If this test breaks,
        // the fingerprint changed for requests that never asked for the
        // new option — deployed caches would all go cold.
        let f = parse_function("func t\ne:\n LI r0=1\n LI r1=2\n A r2=r0,r1\n PRINT r2\n RET\n")
            .expect("parses");
        let rs6k = MachineDescription::rs6k();
        let wide = MachineDescription::wide(4);
        let cases: [(SchedConfig, u64, u64); 4] = [
            (
                SchedConfig::speculative(),
                0xba5ea029aa93c627,
                0xd96b006c6a768050,
            ),
            (
                SchedConfig::useful(),
                0x44aab82336fe7914,
                0x4f1ee872de0bcd63,
            ),
            (SchedConfig::base(), 0x956037272a49399d, 0xfbd2a088d458745a),
            (
                SchedConfig::paper_example(gis_core::SchedLevel::Speculative),
                0x2f65a4a660f37a8f,
                0x61cd33099dae3368,
            ),
        ];
        for (config, on_rs6k, on_wide) in cases {
            assert_eq!(cache_key(&f, &rs6k, &config), on_rs6k, "{config:?}");
            assert_eq!(cache_key(&f, &wide, &config), on_wide, "{config:?}");
        }
    }

    #[test]
    fn dump_and_load_round_trip_preserves_recency() {
        let cache = ScheduleCache::new(4);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        cache.insert(3, entry(3));
        assert!(cache.get(1).is_some(), "1 becomes most recent");
        let image = cache.dump();

        let restored = ScheduleCache::new(2);
        // Capacity 2: inserting 2, 3, 1 in recency order evicts 2 — the
        // least recently used survives last.
        assert_eq!(restored.load(&image).expect("loads"), 3);
        assert_eq!(restored.len(), 2);
        assert!(restored.get(2).is_none(), "LRU overflow evicted");
        assert_eq!(restored.get(1).expect("kept").hash, 1);
        assert_eq!(restored.get(3).expect("kept").hash, 3);
        let full = ScheduleCache::new(8);
        assert_eq!(full.load(&image).expect("loads"), 3);
        assert_eq!(full.get(2).expect("kept").text, "schedule 2");
    }

    #[test]
    fn load_rejects_foreign_and_stale_images() {
        let cache = ScheduleCache::new(4);
        assert!(cache.load(b"not a cache image").is_err());
        assert!(cache.load(b"GI").is_err(), "truncated magic");
        let mut stale = ScheduleCache::new(1).dump();
        stale[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = cache.load(&stale).expect_err("stale version");
        assert!(err.contains("version 99"), "{err}");
        let mut cut = {
            let full = ScheduleCache::new(4);
            full.insert(1, entry(1));
            full.dump()
        };
        cut.truncate(cut.len() - 3);
        assert!(cache.load(&cut).is_err(), "truncated entry");
        assert!(cache.is_empty(), "rejected images leave nothing behind");
    }

    #[test]
    fn jobs_does_not_split_the_key() {
        // `--jobs` is bit-identical by contract, so warm hits must carry
        // across differing job counts.
        let f = parse_function("func t\ne:\n LI r0=1\n RET\n").expect("parses");
        let rs6k = MachineDescription::rs6k();
        let mut one = SchedConfig::speculative();
        one.jobs = 1;
        let mut four = SchedConfig::speculative();
        four.jobs = 4;
        assert_eq!(cache_key(&f, &rs6k, &one), cache_key(&f, &rs6k, &four));
    }
}
