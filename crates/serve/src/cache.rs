//! The content-addressed result cache.
//!
//! A compile response body is a pure function of `(loop structure, machine
//! spec, mode, seed config)`, so the cache key is exactly that quadruple:
//! the loop collapses to its [`cvliw_replicate::loop_fingerprint`] (labels
//! and whitespace already erased), the machine spec to a small interned
//! id, and the payload is the rendered response body — cached bytes are
//! returned verbatim, which is what makes warm responses byte-identical
//! to cold ones by construction.
//!
//! Eviction is LRU over **request sequence numbers**, never wall time:
//! every lookup and insert stamps the entry with the admitting request's
//! seq, stamps are unique, and the victim is the unique minimum-stamp
//! entry. The whole replacement policy is therefore a deterministic
//! function of the request stream, independent of worker count and
//! scheduling — a property the differential test layer leans on. The
//! server's raw-text memo and per-worker context pools evict the same
//! way, through the one `evict_lru` scan.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Removes and returns the minimum-stamp entry of `map`, or `None` when
/// it is empty. Stamps are unique request seq numbers, so the victim is
/// unique and a deterministic function of the request stream.
pub(crate) fn evict_lru<K: Copy + Eq + Hash, V>(
    map: &mut HashMap<K, V>,
    stamp: impl Fn(&V) -> u64,
) -> Option<V> {
    let victim = *map.iter().min_by_key(|(_, v)| stamp(v))?.0;
    map.remove(&victim)
}

/// The canonical identity of a compile request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural fingerprint of the loop ([`cvliw_replicate::loop_fingerprint`]).
    pub fp: u64,
    /// Interned machine-spec id (the server owns the interner).
    pub spec: u32,
    /// Mode discriminant (index into [`cvliw_replicate::Mode::ALL`]).
    pub mode: u8,
    /// Refinement-seed count the compile raced.
    pub seeds: u32,
}

impl CacheKey {
    /// A stable byte serialization, used to shard keys across workers.
    #[must_use]
    pub fn bytes(&self) -> [u8; 17] {
        let mut out = [0u8; 17];
        out[..8].copy_from_slice(&self.fp.to_le_bytes());
        out[8..12].copy_from_slice(&self.spec.to_le_bytes());
        out[12] = self.mode;
        out[13..].copy_from_slice(&self.seeds.to_le_bytes());
        out
    }
}

#[derive(Debug)]
struct Entry {
    payload: Arc<str>,
    stamp: u64,
}

/// A bounded-memory LRU of rendered response bodies.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<CacheKey, Entry>,
    max_entries: usize,
    max_bytes: usize,
    /// Payload bytes currently held (keys and bookkeeping not counted).
    bytes: usize,
    evictions: u64,
}

impl ResultCache {
    /// Creates a cache bounded by entry count and payload bytes. Both
    /// bounds are clamped to at least one entry's worth so a single
    /// oversized payload degrades to "cache of one" rather than thrashing.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            bytes: 0,
            evictions: 0,
        }
    }

    /// Looks up a key, refreshing its LRU stamp on a hit. The returned
    /// `Arc` clone is a refcount bump — no payload copy, no allocation.
    pub fn lookup(&mut self, key: &CacheKey, stamp: u64) -> Option<Arc<str>> {
        let entry = self.entries.get_mut(key)?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.payload))
    }

    /// Inserts a freshly computed payload, evicting minimum-stamp entries
    /// until both bounds hold. Returns how many entries were evicted.
    pub fn insert(&mut self, key: CacheKey, payload: Arc<str>, stamp: u64) -> u64 {
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                payload: Arc::clone(&payload),
                stamp,
            },
        ) {
            // Re-insert under the same key (a racing duplicate that missed
            // before the first insert landed): replace, adjust bytes.
            self.bytes -= old.payload.len();
        }
        self.bytes += payload.len();

        let mut evicted = 0;
        while self.entries.len() > self.max_entries
            || (self.bytes > self.max_bytes && self.entries.len() > 1)
        {
            // The loop condition guarantees a non-empty map; if it were
            // ever empty anyway, stopping is strictly safer than
            // panicking mid-request.
            let Some(gone) = evict_lru(&mut self.entries, |e| e.stamp) else {
                break;
            };
            self.bytes -= gone.payload.len();
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes currently resident.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total evictions over the cache's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Every resident entry with its LRU stamp, in arbitrary order — the
    /// raw material for a log compaction. Payload clones are
    /// refcount bumps.
    #[must_use]
    pub fn export(&self) -> Vec<(CacheKey, u64, Arc<str>)> {
        self.entries
            .iter()
            .map(|(k, e)| (*k, e.stamp, Arc::clone(&e.payload)))
            .collect()
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
    fn hit_returns_the_same_payload_and_refreshes_lru() {
        let mut c = ResultCache::new(2, 1 << 20);
        c.insert(key(1), Arc::from("one"), 0);
        c.insert(key(2), Arc::from("two"), 1);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(c.lookup(&key(1), 2).as_deref(), Some("one"));
        assert_eq!(c.insert(key(3), Arc::from("three"), 3), 1);
        assert!(c.lookup(&key(2), 4).is_none(), "LRU victim survived");
        assert_eq!(c.lookup(&key(1), 5).as_deref(), Some("one"));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn byte_bound_evicts_even_below_the_entry_bound() {
        let mut c = ResultCache::new(100, 10);
        c.insert(key(1), Arc::from("aaaaaa"), 0); // 6 bytes
        c.insert(key(2), Arc::from("bbbbbb"), 1); // 12 total → evict key 1
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 6);
        assert!(c.lookup(&key(1), 2).is_none());
        assert_eq!(c.lookup(&key(2), 3).as_deref(), Some("bbbbbb"));
    }

    #[test]
    fn one_oversized_payload_still_resides() {
        let mut c = ResultCache::new(100, 4);
        c.insert(key(1), Arc::from("way too large"), 0);
        assert_eq!(c.lookup(&key(1), 1).as_deref(), Some("way too large"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_and_keeps_byte_accounting_exact() {
        let mut c = ResultCache::new(4, 1 << 20);
        c.insert(key(1), Arc::from("short"), 0);
        c.insert(key(1), Arc::from("a longer payload"), 1);
        assert_eq!(c.bytes(), "a longer payload".len());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn key_bytes_are_injective_over_fields() {
        let a = key(1).bytes();
        let mut other = key(1);
        other.seeds = 2;
        assert_ne!(a, other.bytes());
        let mut other = key(1);
        other.mode = 3;
        assert_ne!(a, other.bytes());
    }
}
