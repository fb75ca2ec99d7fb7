//! The content-addressed schedule cache, and the source index in front
//! of it.
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
//! Reaching that key still takes the front end and the canonical bytes.
//! A build resubmitting an unchanged file sends the very text it sent
//! before, so a second level maps request text to the key its front end
//! produced: the *source index*, keyed by the FNV-64 of the request's
//! language, machine and config fingerprints and text. An entry holds
//! neither text nor schedule, only the text's byte length, a check hash
//! keyed by a per-daemon [`RandomState`], the function's name and the
//! schedule key; a hit must match the length and the check as well as
//! the 64-bit key. The index is never persisted: a warm-started daemon
//! rebuilds it as texts arrive.
//!
//! Eviction at both levels is least-recently-used over the same bounded
//! capacity ([`gis_core::Lru`], the store the region memo uses too); the
//! schedule level adds the persisted image
//! ([`ScheduleCache::dump`]/[`load`]).
//!
//! [`load`]: ScheduleCache::load

use crate::protocol::Lang;
use gis_core::fingerprint::{write_config_fingerprint, write_machine_fingerprint};
use gis_core::{Lru, SchedConfig};
use gis_ir::hash::{fnv64, Fnv64};
use gis_ir::Function;
use gis_machine::MachineDescription;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// What the source index knows of one request text.
pub(crate) struct SourceEntry {
    /// The schedule-cache key of the function the text compiled to.
    key: u64,
    /// The text's length in bytes.
    len: usize,
    /// The check hash of the text and its batch prefix, under the
    /// daemon's keys.
    check: u64,
    /// The function's own name, for a request that gives none.
    pub(crate) name: Box<str>,
}

/// Where a request text lives in the source index: its key, and the
/// length and check an entry under that key must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SourceAddr {
    pub(crate) key: u64,
    pub(crate) len: usize,
    pub(crate) check: u64,
}

/// A bounded, thread-safe, content-addressed map from cache key to
/// scheduled result with least-recently-used eviction: the shared
/// [`Lru`] (reached through `Deref`), the persisted image, and the
/// source index in front (see the module docs). Two compiles of one key
/// racing to insert are harmless, because scheduling is deterministic
/// and both hold identical results.
pub struct ScheduleCache {
    schedules: Lru<CachedSchedule>,
    source: Lru<SourceEntry>,
    /// Keys the source index's check hash, drawn anew by each daemon.
    check_keys: RandomState,
    source_hits: AtomicU64,
    source_misses: AtomicU64,
    source_collisions: AtomicU64,
}

impl std::ops::Deref for ScheduleCache {
    type Target = Lru<CachedSchedule>;

    fn deref(&self) -> &Lru<CachedSchedule> {
        &self.schedules
    }
}

impl ScheduleCache {
    /// A cache holding at most `capacity` schedules, and a source index
    /// of at most `capacity` texts. Capacity `0` disables both levels
    /// (every lookup misses, inserts are dropped) — useful for measuring
    /// cold throughput.
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            schedules: Lru::new(capacity),
            source: Lru::new(capacity),
            check_keys: RandomState::new(),
            source_hits: AtomicU64::new(0),
            source_misses: AtomicU64::new(0),
            source_collisions: AtomicU64::new(0),
        }
    }

    /// The counters as `(name, value)` pairs for the metrics registry
    /// (`cache.` prefix groups them in the sorted listing, next to the
    /// scheduler's `perf.` counters). `cache.hits` and `cache.misses`
    /// count one schedule lookup per request, whichever level answered.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("cache.hits", self.hits()),
            ("cache.misses", self.misses()),
            ("cache.evictions", self.evictions()),
            ("cache.entries", self.len() as u64),
            ("cache.capacity", self.capacity() as u64),
            ("cache.source.hit", count(&self.source_hits)),
            ("cache.source.miss", count(&self.source_misses)),
            ("cache.source.collision", count(&self.source_collisions)),
            ("cache.source.evictions", self.source.evictions()),
            ("cache.source.entries", self.source.len() as u64),
        ]
    }

    /// The address of `text` in the source index, for a request whose
    /// language, machine and config gave `prefix` ([`source_prefix`]).
    pub(crate) fn source_addr(&self, prefix: Fnv64, text: &str) -> SourceAddr {
        let mut key = prefix;
        key.write(text.as_bytes());
        SourceAddr {
            key: key.finish(),
            len: text.len(),
            check: self.check_keys.hash_one((prefix.finish(), text)),
        }
    }

    /// Answers the text at `addr` from the source index: its entry and
    /// cached schedule, when an entry under its key matches its length
    /// and check and that schedule is still cached. Counts
    /// `cache.source.hit` or `cache.source.miss` (and
    /// `cache.source.collision` for a mismatched entry), but a schedule
    /// lookup only when it hits: a request the index cannot answer
    /// counts its lookup where it is answered.
    pub(crate) fn lookup_source(
        &self,
        addr: &SourceAddr,
    ) -> Option<(Arc<SourceEntry>, Arc<CachedSchedule>)> {
        let found = self.source.get(addr.key).and_then(|entry| {
            if entry.len == addr.len && entry.check == addr.check {
                Some(entry)
            } else {
                self.source_collisions.fetch_add(1, Ordering::Relaxed);
                None
            }
        });
        let hit = found.and_then(|entry| self.probe(entry.key).map(|schedule| (entry, schedule)));
        let counter = if hit.is_some() {
            &self.source_hits
        } else {
            &self.source_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Records that the text at `addr` compiles to the function `name`
    /// cached under `key`, replacing any entry under the address's key.
    pub(crate) fn record_source(&self, addr: SourceAddr, key: u64, name: &str) {
        let entry = SourceEntry {
            key,
            len: addr.len,
            check: addr.check,
            name: name.into(),
        };
        self.source.insert(addr.key, Arc::new(entry));
    }

    /// Serializes every schedule into a versioned binary image, least
    /// recently used first, so [`ScheduleCache::load`] re-inserting in
    /// image order reproduces the recency order exactly. The image ends
    /// with the FNV-64 of every byte before it. Neither the counters nor
    /// the source index are persisted — the counters describe one
    /// daemon's lifetime, and the index's checks are keyed per daemon.
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
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Restores the schedules of a [`ScheduleCache::dump`] image,
    /// returning how many were inserted (at most the capacity —
    /// inserting in image order evicts the least recently used overflow
    /// first, like any other insert).
    ///
    /// # Errors
    ///
    /// Returns a message when the image is not a schedule-cache dump, is
    /// a version this build does not speak, fails its checksum, or is
    /// malformed. Every entry is decoded before any is inserted, so an
    /// image rejected for any reason leaves the cache unchanged.
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
        let Some((body, checksum)) = bytes.split_last_chunk::<8>() else {
            return Err("schedule-cache image is truncated".to_owned());
        };
        if body.len() < 8 || fnv64(body) != u64::from_le_bytes(*checksum) {
            return Err("schedule-cache image fails its checksum".to_owned());
        }
        let mut cur = Cursor(&body[8..]);
        let count = cur.take_u64()?;
        let mut decoded = Vec::new();
        for _ in 0..count {
            let key = cur.take_u64()?;
            let hash = cur.take_u64()?;
            let moved_useful = cur.take_u64()?;
            let moved_speculative = cur.take_u64()?;
            let nanos = cur.take_u64()?;
            let text_len = usize::try_from(cur.take_u64()?)
                .map_err(|_| "schedule-cache image is truncated".to_owned())?;
            let text = String::from_utf8(cur.take(text_len)?.to_vec())
                .map_err(|_| "schedule-cache image holds non-UTF-8 text".to_owned())?;
            let schedule = CachedSchedule {
                text,
                hash,
                moved_useful,
                moved_speculative,
                nanos,
            };
            decoded.push((key, Arc::new(schedule)));
        }
        if !cur.0.is_empty() {
            return Err("schedule-cache image has bytes past its last entry".to_owned());
        }
        let loaded = decoded.len();
        for (key, schedule) in decoded {
            self.insert(key, schedule);
        }
        Ok(loaded)
    }
}

/// Magic prefix of a persisted cache image.
const DUMP_MAGIC: &[u8; 4] = b"GISC";
/// Image format version; bump on any layout change so an upgraded
/// daemon rejects old images instead of misreading them. Version 2
/// appended the checksum.
const DUMP_VERSION: u32 = 2;

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

/// The source-index key prefix every function of one batch shares: the
/// FNV-64 state after the language and the machine and config
/// fingerprints. A request cannot carry a branch profile, the one config
/// part that reads the function's instruction bound, so none is given.
pub(crate) fn source_prefix(
    lang: Lang,
    machine: &MachineDescription,
    config: &SchedConfig,
) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write(b"source/v1\0");
    h.write_u8(match lang {
        Lang::TinyC => 0,
        Lang::Asm => 1,
    });
    write_machine_fingerprint(&mut h, machine);
    write_config_fingerprint(&mut h, config, 0);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_ir::parse_function;
    use gis_workloads::rng::XorShift64Star;
    use std::panic::{self, AssertUnwindSafe};

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
        let full = ScheduleCache::new(4);
        full.insert(1, entry(1));
        full.insert(2, entry(2));
        let image = full.dump();
        // Cut inside the second entry: the first, whole, stays out too.
        let mut cut = image.clone();
        cut.truncate(image.len() - 12);
        assert!(cache.load(&cut).is_err(), "truncated entry");
        assert!(cache.is_empty(), "rejected images leave nothing behind");
        let mut v1 = image[..image.len() - 8].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = cache.load(&v1).expect_err("a version-1 image");
        assert!(err.contains("version 1"), "{err}");
        assert!(cache.is_empty());
    }

    /// Applies one seeded byte-level mutation to `image`.
    fn mutate(image: &[u8], rng: &mut XorShift64Star) -> Vec<u8> {
        let mut m = image.to_vec();
        let at = rng.below(m.len());
        match rng.below(6) {
            0 => m[at] ^= 1 << rng.below(8),
            1 => m[at] = rng.below(256) as u8,
            2 => m.truncate(at),
            3 => m.insert(at, rng.below(256) as u8),
            4 => {
                m.remove(at);
            }
            _ => {
                // A length, count or key field pushed to an extreme.
                let at = at.min(m.len().saturating_sub(8));
                let extreme = [u64::MAX, u64::MAX / 2, 1 << 32, 0][rng.below(4)];
                m[at..at + 8].copy_from_slice(&extreme.to_le_bytes());
            }
        }
        m
    }

    #[test]
    fn mutated_images_are_rejected_whole() {
        let source = ScheduleCache::new(4);
        for n in 1..=3 {
            source.insert(n, entry(n));
        }
        let image = source.dump();
        let mut rng = XorShift64Star::new(0x9e37_79b9);
        let (mut mutants, mut rechecked) = (0, 0);
        for _ in 0..20_000 {
            let m = mutate(&image, &mut rng);
            if m == image {
                continue;
            }
            mutants += 1;
            let cache = ScheduleCache::new(8);
            let loaded = panic::catch_unwind(AssertUnwindSafe(|| cache.load(&m)));
            let loaded = loaded.unwrap_or_else(|_| panic!("load panicked on {m:02x?}"));
            assert!(loaded.is_err(), "a mutant loaded: {m:02x?}");
            assert!(cache.is_empty(), "a rejected mutant left entries: {m:02x?}");
            // The same mutant with its checksum made good again reaches
            // the decoder: it may load, but never in part.
            let Some(body) = m.len().checked_sub(8).map(|n| &m[..n]) else {
                continue;
            };
            let mut resealed = body.to_vec();
            resealed.extend_from_slice(&fnv64(body).to_le_bytes());
            let cache = ScheduleCache::new(8);
            let loaded = panic::catch_unwind(AssertUnwindSafe(|| cache.load(&resealed)));
            match loaded.unwrap_or_else(|_| panic!("load panicked on {resealed:02x?}")) {
                // Entries sharing a key collapse into one.
                Ok(n) => assert!(
                    cache.len() <= n && cache.is_empty() == (n == 0),
                    "{resealed:02x?}"
                ),
                Err(_) => {
                    assert!(cache.is_empty(), "partial load of {resealed:02x?}");
                    rechecked += 1;
                }
            }
        }
        assert!(mutants > 19_000, "{mutants} mutants");
        assert!(rechecked > 10_000, "{rechecked} resealed mutants rejected");
    }

    #[test]
    fn the_source_index_answers_only_a_matching_text() {
        let cache = ScheduleCache::new(4);
        let rs6k = MachineDescription::rs6k();
        let spec = SchedConfig::speculative();
        let prefix = source_prefix(Lang::TinyC, &rs6k, &spec);
        let text = "void f() { print(1); }";
        let addr = cache.source_addr(prefix, text);
        assert_eq!(addr, cache.source_addr(prefix, text), "deterministic");
        for other in [
            cache.source_addr(prefix, "void f() { print(2); }"),
            cache.source_addr(source_prefix(Lang::Asm, &rs6k, &spec), text),
            cache.source_addr(
                source_prefix(Lang::TinyC, &MachineDescription::wide(4), &spec),
                text,
            ),
            cache.source_addr(
                source_prefix(Lang::TinyC, &rs6k, &SchedConfig::useful()),
                text,
            ),
        ] {
            assert_ne!(other.key, addr.key);
            assert_ne!(other.check, addr.check);
        }
        let other_daemon = ScheduleCache::new(4).source_addr(prefix, text);
        assert_eq!(other_daemon.key, addr.key, "keys are content addresses");
        assert_ne!(
            other_daemon.check, addr.check,
            "checks are keyed per daemon"
        );

        assert!(cache.lookup_source(&addr).is_none(), "nothing recorded");
        cache.insert(7, entry(7));
        for planted in [
            SourceAddr {
                check: addr.check ^ 1,
                ..addr
            },
            SourceAddr {
                len: addr.len + 1,
                ..addr
            },
        ] {
            cache.record_source(planted, 7, "planted");
            assert!(cache.lookup_source(&addr).is_none(), "{planted:?}");
        }
        cache.record_source(addr, 8, "f");
        assert!(
            cache.lookup_source(&addr).is_none(),
            "schedule 8 is not cached"
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "no lookup counted");
        cache.record_source(addr, 7, "f");
        let (found, schedule) = cache.lookup_source(&addr).expect("a hit");
        assert_eq!((&*found.name, schedule.hash), ("f", 7));
        let counters = cache.counters();
        let counter = |name| counters.iter().find(|(k, _)| *k == name).expect(name).1;
        assert_eq!(counter("cache.source.hit"), 1);
        assert_eq!(counter("cache.source.miss"), 4);
        assert_eq!(counter("cache.source.collision"), 2);
        assert_eq!(counter("cache.source.entries"), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn zero_capacity_disables_the_source_index() {
        let cache = ScheduleCache::new(0);
        let prefix = source_prefix(
            Lang::Asm,
            &MachineDescription::rs6k(),
            &SchedConfig::speculative(),
        );
        let addr = cache.source_addr(prefix, "func t\ne:\n RET\n");
        cache.record_source(addr, 1, "t");
        assert!(cache.lookup_source(&addr).is_none());
        let entries = cache
            .counters()
            .into_iter()
            .find(|(k, _)| *k == "cache.source.entries");
        assert_eq!(entries, Some(("cache.source.entries", 0)));
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
