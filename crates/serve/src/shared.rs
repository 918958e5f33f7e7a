//! State shared by every concurrent session of one daemon.
//!
//! A [`crate::server::Server`] is a *session*: single-threaded admission,
//! private worker pool, private raw-text memo. Everything whose identity
//! must be daemon-wide lives here instead, behind an `Arc`:
//!
//! * the **result cache**, behind one mutex. Each session's thread is
//!   the cache's only client — admission looks up, phase 3 inserts, and
//!   workers never touch it — so the lock only ever separates concurrent
//!   socket sessions, for the length of one hash probe. One lock also
//!   means every cache size evicts in exact global-LRU stamp order;
//! * the **machine-spec interner** — `CacheKey.spec` is the interned id,
//!   so two sessions interning independently would alias *different*
//!   specs to the *same* id and serve wrong cached payloads. The table
//!   hands out `Arc<MachineConfig>` clones, so a hit costs a lookup and a
//!   refcount bump, never an allocation;
//! * the **request sequence counter** — LRU stamps and fault-plan
//!   indices are global request seq numbers;
//! * the **counters** (plain atomics) and the **shed gate** bounding
//!   daemon-wide in-flight compiles.
//!
//! With a single session the shared state is exactly the single-owner
//! design: stamps are consecutive, the LRU is a deterministic function
//! of the request stream, and every byte of every response is unchanged
//! — the differential layer pins this.
//!
//! Poisoned locks are impossible by construction (no panic can happen
//! while the cache or the spec table is held: workers never touch them,
//! and admission is panic-free), but every `lock()` still recovers via
//! [`PoisonError::into_inner`] rather than unwrapping — a daemon must
//! not die on a theory.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cvliw_machine::MachineConfig;
use cvliw_replicate::Mode;

use crate::cache::{CacheKey, ResultCache};
use crate::json;
use crate::persist::{LoadReport, Persister, RecordRef};
use crate::protocol::ErrorKind;
use crate::server::{ServeStats, ServerConfig};

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Daemon-wide counters. Sessions bump these with relaxed atomics; a
/// single-session daemon therefore observes exactly the sequential
/// counts the old owned struct reported.
#[derive(Debug, Default)]
pub struct SharedStats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    deadlines: AtomicU64,
}

macro_rules! bump {
    ($($name:ident),+) => {
        $(pub(crate) fn $name(&self, n: u64) {
            self.$name.fetch_add(n, Ordering::Relaxed);
        })+
    };
}

impl SharedStats {
    bump!(requests, hits, misses, coalesced, compiles, evictions, errors, shed, panics, deadlines);

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            deadlines: self.deadlines.load(Ordering::Relaxed),
        }
    }
}

/// The daemon-wide machine-spec interner: escaped spec text → small id,
/// plus the shared parsed config and the original text per id. The text
/// is kept because interned ids are process-local: persistence must
/// write the spec *text* so a restarted daemon re-interns instead of
/// trusting a stale id.
#[derive(Debug, Default)]
struct SpecTable {
    ids: HashMap<Box<str>, u32>,
    machines: Vec<Arc<MachineConfig>>,
    texts: Vec<Arc<str>>,
}

/// Bounds daemon-wide in-flight compile jobs. Admission acquires one
/// slot per fresh miss and sheds (with a `retry_after` hint) when the
/// bound is reached; the batch releases its slots after the compile
/// fan-out returns. Hits and coalesced duplicates never touch the gate.
#[derive(Debug)]
struct ShedGate {
    inflight: AtomicU64,
    max: u64,
}

impl ShedGate {
    fn try_acquire(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self, n: u64) {
        self.inflight.fetch_sub(n, Ordering::AcqRel);
    }

    fn depth(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Everything one daemon's sessions share. Construct once, hand an
/// `Arc` clone to each [`crate::server::Server`] session.
///
/// Lock ordering: the persister's lock is acquired only while the cache
/// lock is **not** held (inserts append after releasing the cache;
/// compaction takes the cache lock briefly under the persist lock). The
/// spec-table lock nests inside the persist lock but never wraps a lock,
/// and the cache and spec-table locks are never held together.
#[derive(Debug)]
pub struct SharedState {
    /// `None` when the cache is explicitly disabled (`--cache-entries 0`
    /// or `--cache-mb 0`): every lookup misses, every insert is dropped.
    cache: Option<Mutex<ResultCache>>,
    specs: Mutex<SpecTable>,
    seq: AtomicU64,
    stats: SharedStats,
    gate: ShedGate,
    persist: Option<Mutex<Persister>>,
}

impl SharedState {
    fn build(cfg: &ServerConfig) -> SharedState {
        let enabled = cfg.cache_entries > 0 && cfg.cache_bytes > 0;
        SharedState {
            cache: enabled
                .then(|| Mutex::new(ResultCache::new(cfg.cache_entries, cfg.cache_bytes))),
            specs: Mutex::new(SpecTable::default()),
            seq: AtomicU64::new(0),
            stats: SharedStats::default(),
            gate: ShedGate {
                inflight: AtomicU64::new(0),
                max: cfg.max_inflight.max(1) as u64,
            },
            persist: None,
        }
    }

    /// Builds the shared state a [`ServerConfig`] describes (no
    /// persistence).
    #[must_use]
    pub fn new(cfg: &ServerConfig) -> Arc<Self> {
        Arc::new(SharedState::build(cfg))
    }

    /// Builds shared state backed by the on-disk cache log in `dir`:
    /// recovers whatever the log holds (tolerating every corruption mode
    /// — see [`crate::persist`]), replays it into the cache in stamp
    /// order, and arms appends. The log compacts whenever the appends
    /// since the last compaction reach `cache_entries`, or their frames
    /// `cache_bytes`, so it never holds much more than twice what the
    /// cache can.
    ///
    /// # Errors
    ///
    /// Fails if the cache is disabled (`cache_entries`/`cache_bytes`
    /// zero — persisting nothing is a configuration contradiction) or
    /// if the directory or log cannot be created or opened. Recovery
    /// of a damaged log is *not* an error.
    pub fn with_persistence(cfg: &ServerConfig, dir: &Path) -> io::Result<(Arc<Self>, LoadReport)> {
        if cfg.cache_entries == 0 || cfg.cache_bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cache persistence requires an enabled cache \
                 (cache_entries and cache_bytes both nonzero)",
            ));
        }
        let bound = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        let (persister, mut records, mut report) =
            Persister::open(dir, bound(cfg.cache_entries), bound(cfg.cache_bytes))?;
        let state = SharedState::build(cfg);

        // Replay in stamp order so the restored LRU evicts exactly as
        // the never-restarted cache would have: concurrent sessions can
        // append slightly out of stamp order, and a key evicted and
        // compiled again appears once per insert — re-inserting keeps
        // the later stamp, as the live cache did.
        records.sort_by_key(|r| r.stamp);
        let mut max_stamp = None::<u64>;
        for rec in records {
            if rec.mode as usize >= Mode::ALL.len() {
                report.warnings.push(format!(
                    "skipped persisted record with unknown mode {}",
                    rec.mode
                ));
                continue;
            }
            let (spec_id, _) = match state.intern_spec(&rec.spec) {
                Ok(ok) => ok,
                Err(e) => {
                    report.warnings.push(format!(
                        "skipped persisted record whose spec no longer parses: {e:?}"
                    ));
                    continue;
                }
            };
            let key = CacheKey {
                fp: rec.fp,
                spec: spec_id,
                mode: rec.mode,
                seeds: rec.seeds,
            };
            // Direct cache insert: replay must not append again.
            if let Some(mut cache) = state.cache() {
                cache.insert(key, Arc::from(&*rec.payload), rec.stamp);
            }
            max_stamp = Some(max_stamp.map_or(rec.stamp, |m| m.max(rec.stamp)));
        }
        if let Some(m) = max_stamp {
            state.seq.store(m + 1, Ordering::Relaxed);
        }
        let state = SharedState {
            persist: Some(Mutex::new(persister)),
            ..state
        };
        report.loaded = state.cache_len();
        Ok((Arc::new(state), report))
    }

    /// The daemon-wide counters.
    #[must_use]
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Claims the next global request sequence number.
    pub(crate) fn next_stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Tries to claim one in-flight compile slot.
    pub(crate) fn try_acquire_compile(&self) -> bool {
        self.gate.try_acquire()
    }

    /// Returns `n` in-flight compile slots.
    pub(crate) fn release_compiles(&self, n: u64) {
        if n > 0 {
            self.gate.release(n);
        }
    }

    /// Current in-flight compile depth (the shed `retry_after` hint
    /// scales with it).
    #[must_use]
    pub fn inflight_depth(&self) -> u64 {
        self.gate.depth()
    }

    fn cache(&self) -> Option<MutexGuard<'_, ResultCache>> {
        self.cache.as_ref().map(relock)
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    pub(crate) fn cache_lookup(&self, key: &CacheKey, stamp: u64) -> Option<Arc<str>> {
        self.cache()?.lookup(key, stamp)
    }

    /// Inserts into the cache; returns how many entries it evicted. With
    /// persistence armed the insert is also appended to the log — after
    /// the cache lock is released, so the disk write never extends its
    /// hold time — and a due cadence triggers compaction.
    pub(crate) fn cache_insert(&self, key: CacheKey, payload: Arc<str>, stamp: u64) -> u64 {
        let Some(mut cache) = self.cache() else {
            return 0;
        };
        let evicted = cache.insert(key, Arc::clone(&payload), stamp);
        drop(cache);
        if let Some(persist) = &self.persist {
            let Some(spec) = self.spec_text(key.spec) else {
                return evicted; // unreachable: inserts intern first
            };
            let due = relock(persist).append(&RecordRef {
                fp: key.fp,
                mode: key.mode,
                seeds: key.seeds,
                stamp,
                spec: &spec,
                payload: &payload,
            });
            if due {
                // Compaction keeps the persist lock for its duration so
                // concurrent inserts serialize behind it rather than
                // re-triggering; the cache lock is taken underneath it
                // (never the reverse order).
                let _ = self.snapshot_now();
            }
        }
        evicted
    }

    /// Compacts the log to the live cache now (graceful shutdown,
    /// cadence, or an explicit flush). `None` when persistence is off;
    /// `Ok(n)` is the record count written.
    pub fn snapshot_now(&self) -> Option<io::Result<usize>> {
        let persist = self.persist.as_ref()?;
        let mut persister = relock(persist);
        let mut entries: Vec<_> = self
            .cache()
            .map_or_else(Vec::new, |cache| cache.export())
            .into_iter()
            .filter_map(|(key, stamp, payload)| {
                Some((key, stamp, payload, self.spec_text(key.spec)?))
            })
            .collect();
        entries.sort_by_key(|&(_, stamp, _, _)| stamp);
        Some(
            persister.compact(entries.iter().map(|(key, stamp, payload, spec)| RecordRef {
                fp: key.fp,
                mode: key.mode,
                seeds: key.seeds,
                stamp: *stamp,
                spec,
                payload,
            })),
        )
    }

    /// Why persistence stopped writing, if it has (the daemon keeps
    /// serving from memory when the disk fails).
    #[must_use]
    pub fn persist_dead_reason(&self) -> Option<String> {
        let persist = self.persist.as_ref()?;
        relock(persist).dead_reason().map(str::to_string)
    }

    /// Arms injected disk deaths on the persister (test builds only).
    #[cfg(feature = "fault-inject")]
    pub fn set_disk_faults(&self, faults: crate::persist::DiskFaults) {
        if let Some(persist) = &self.persist {
            relock(persist).set_disk_faults(faults);
        }
    }

    /// Entries resident in the cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache().map_or(0, |cache| cache.len())
    }

    /// Payload bytes resident in the cache.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.cache().map_or(0, |cache| cache.bytes())
    }

    /// Interns an escaped machine-spec string daemon-wide, parsing it on
    /// first sight. Returns the id and the shared parsed config; on a
    /// repeat both are a lookup and a refcount bump, never an allocation.
    pub(crate) fn intern_spec(
        &self,
        escaped: &str,
    ) -> Result<(u32, Arc<MachineConfig>), ErrorKind> {
        let mut table = relock(&self.specs);
        if let Some(&id) = table.ids.get(escaped) {
            return Ok((id, Arc::clone(&table.machines[id as usize])));
        }
        let text = json::unescape(escaped).map_err(|e| ErrorKind::BadField {
            field: "machine",
            detail: e.to_string(),
        })?;
        let machine = MachineConfig::from_extended_spec(&text).map_err(ErrorKind::Spec)?;
        let id = u32::try_from(table.machines.len()).map_err(|_| ErrorKind::Internal {
            detail: "machine-spec intern table overflow",
        })?;
        let machine = Arc::new(machine);
        table.machines.push(Arc::clone(&machine));
        table.texts.push(Arc::from(escaped));
        table.ids.insert(Box::from(escaped), id);
        Ok((id, machine))
    }

    /// The escaped spec text behind an interned id (a refcount bump).
    pub(crate) fn spec_text(&self, id: u32) -> Option<Arc<str>> {
        relock(&self.specs).texts.get(id as usize).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fp,
            spec: 0,
            mode: 2,
            seeds: 1,
        }
    }

    #[test]
    fn a_full_cache_evicts_exactly_the_global_lru_entry() {
        let state = SharedState::new(&ServerConfig {
            cache_entries: 64,
            ..ServerConfig::default()
        });
        let evicted: u64 = (0..64)
            .map(|i| state.cache_insert(key(i), Arc::from("payload"), i))
            .sum();
        assert_eq!(evicted, 0, "64 keys must fit a 64-entry cache");
        assert_eq!(state.cache_len(), 64);

        // Refresh key 0, so key 1 holds the minimum stamp.
        assert!(state.cache_lookup(&key(0), 64).is_some());
        assert_eq!(state.cache_insert(key(64), Arc::from("payload"), 65), 1);
        assert_eq!(state.cache_len(), 64);
        assert!(
            state.cache_lookup(&key(1), 66).is_none(),
            "LRU key survived"
        );
        for fp in (0..=64).filter(|&fp| fp != 1) {
            assert!(
                state.cache_lookup(&key(fp), 67 + fp).is_some(),
                "lost key {fp}"
            );
        }
    }
}
