//! The epoch-validated response cache: a bounded per-shard map from
//! [`ProbeKey`] to a served [`Body`], tagged with the model epoch that
//! produced it.
//!
//! Correctness rests on two mechanisms, either of which alone suffices:
//!
//! 1. **Clear on swap** — a successful hot refit clears the cache under
//!    the shard's control mutex, in the same critical section that swaps
//!    the model `Arc` and bumps the epoch.
//! 2. **Epoch validation** — every entry stores the epoch it was
//!    computed under, and `get` refuses (and drops) entries whose epoch
//!    differs from the caller's current epoch.
//!
//! So a stale-epoch body is never served even if an insert races a
//! refit: the insert tags the old epoch and the next lookup rejects it.
//!
//! Eviction is seeded-random over the occupied slots (a ChaCha stream
//! owned by the cache), so same-seed runs evict identically and the
//! whole serving report stays byte-for-byte reproducible.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;

use crate::api::Body;
use crate::probe::ProbeKey;

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// A same-epoch body; serve it without a model lookup.
    Hit(Body),
    /// Nothing stored for this probe.
    Miss,
    /// An entry existed but carried a different epoch; it was dropped.
    Stale,
}

struct CacheEntry {
    epoch: u64,
    /// Index of this key in `slots` (for O(1) removal).
    slot: usize,
    body: Body,
}

/// Bounded, seeded-eviction response cache. Not thread-safe on its own —
/// it lives inside the shard's control mutex. Each stored key is one
/// shared allocation, referenced from both the map and its slot.
pub struct ResponseCache {
    capacity: usize,
    entries: HashMap<Arc<ProbeKey>, CacheEntry>,
    /// Occupied keys, dense, for uniform eviction draws.
    slots: Vec<Arc<ProbeKey>>,
    rng: ChaCha8Rng,
}

impl ResponseCache {
    /// An empty cache; `capacity == 0` disables caching entirely.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            slots: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up `key` under the caller's current `epoch`. A stored body
    /// from any other epoch is evicted on sight and reported as
    /// [`CacheLookup::Stale`] — stale entries are never served.
    pub fn get(&mut self, key: &ProbeKey, epoch: u64) -> CacheLookup {
        match self.entries.get(key) {
            None => CacheLookup::Miss,
            Some(e) if e.epoch == epoch => CacheLookup::Hit(e.body.clone()),
            Some(_) => {
                self.remove(key);
                CacheLookup::Stale
            }
        }
    }

    /// Stores `body` for `key` under `epoch`; the key moves in, uncopied.
    /// Returns `true` when a victim was evicted to make room
    /// (seeded-uniform over occupied slots). A zero-capacity cache stores
    /// nothing.
    pub fn insert(&mut self, key: ProbeKey, epoch: u64, body: Body) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(e) = self.entries.get_mut(&key) {
            e.epoch = epoch;
            e.body = body;
            return false;
        }
        let evicted = if self.slots.len() >= self.capacity {
            let victim = self.rng.random_range(0..self.slots.len());
            let victim_key = Arc::clone(&self.slots[victim]);
            self.remove(&victim_key);
            true
        } else {
            false
        };
        let slot = self.slots.len();
        let key = Arc::new(key);
        self.slots.push(Arc::clone(&key));
        self.entries.insert(key, CacheEntry { epoch, slot, body });
        evicted
    }

    /// Drops every entry (refit swap). Returns how many were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.slots.len();
        self.entries.clear();
        self.slots.clear();
        n
    }

    fn remove(&mut self, key: &ProbeKey) {
        let Some(e) = self.entries.remove(key) else {
            return;
        };
        self.slots.swap_remove(e.slot);
        // The former tail now lives in the vacated slot.
        if let Some(moved) = self.slots.get(e.slot) {
            self.entries
                .get_mut(moved)
                .expect("slot key has an entry")
                .slot = e.slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_model::CarrierId;

    fn key(c: u32) -> ProbeKey {
        ProbeKey::Singular {
            carrier: CarrierId(c),
        }
    }

    fn body(h: f64) -> Body {
        Body::KpiHealth(Some(h))
    }

    #[test]
    fn hit_miss_and_epoch_validation() {
        let mut c = ResponseCache::new(4, 7);
        assert!(matches!(c.get(&key(1), 0), CacheLookup::Miss));
        c.insert(key(1), 0, body(0.5));
        assert!(matches!(c.get(&key(1), 0), CacheLookup::Hit(_)));
        // Same key, newer epoch: the stale body must not be served.
        assert!(matches!(c.get(&key(1), 1), CacheLookup::Stale));
        // ... and it was dropped, not retried.
        assert!(matches!(c.get(&key(1), 1), CacheLookup::Miss));
        assert!(c.is_empty());
    }

    #[test]
    fn bounded_with_seeded_eviction() {
        let run = || {
            let mut c = ResponseCache::new(3, 99);
            let mut evictions = Vec::new();
            for i in 0..10u32 {
                if c.insert(key(i), 0, body(0.1)) {
                    evictions.push(i);
                }
                assert!(c.len() <= 3);
            }
            let survivors: Vec<bool> = (0..10u32)
                .map(|i| matches!(c.get(&key(i), 0), CacheLookup::Hit(_)))
                .collect();
            (evictions, survivors)
        };
        assert_eq!(run(), run(), "same seed, same eviction schedule");
        assert_eq!(run().0.len(), 7, "every over-capacity insert evicts");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResponseCache::new(0, 1);
        assert!(!c.insert(key(1), 0, body(0.5)));
        assert!(matches!(c.get(&key(1), 0), CacheLookup::Miss));
    }

    #[test]
    fn clear_reports_drop_count() {
        let mut c = ResponseCache::new(8, 1);
        for i in 0..5u32 {
            c.insert(key(i), 0, body(0.2));
        }
        assert_eq!(c.clear(), 5);
        assert!(matches!(c.get(&key(0), 0), CacheLookup::Miss));
    }
}
