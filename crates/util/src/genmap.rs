//! A bounded map with generational ("LRU-ish") eviction.
//!
//! [`GenerationalMap`] is the storage engine of the session's result
//! cache: entries are inserted into a *hot* map; when the hot
//! half fills up it is demoted wholesale to *cold* and the previous cold
//! generation is dropped. A cold hit promotes the entry back to hot.
//! Lookups stay O(1), the total entry count never exceeds the configured
//! capacity, and there is no per-entry recency bookkeeping.

use crate::FxHashMap;
use std::hash::Hash;

/// A bounded, generationally-evicted hash map (see module docs).
#[derive(Debug)]
pub struct GenerationalMap<K, V> {
    /// Maximum total entries across both generations. Must be > 0 — a
    /// capacity-0 cache should bypass the map entirely (callers do).
    capacity: usize,
    hot: FxHashMap<K, V>,
    cold: FxHashMap<K, V>,
}

impl<K: Eq + Hash + Copy, V> GenerationalMap<K, V> {
    /// A map holding at most `capacity` entries (> 0).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            hot: FxHashMap::default(),
            cold: FxHashMap::default(),
        }
    }

    /// Entries currently stored (hot + cold).
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up `key`, promoting a cold hit back into the hot generation
    /// (promotion never grows the total entry count).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if let Some(entry) = self.cold.remove(key) {
            self.hot.insert(*key, entry);
        }
        self.hot.get(key)
    }

    /// Look up `key` mutably, promoting a cold hit back into the hot
    /// generation (same residency semantics as [`Self::get`]). Used by
    /// callers that store collision *chains* as values and need to extend
    /// them in place.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if let Some(entry) = self.cold.remove(key) {
            self.hot.insert(*key, entry);
        }
        self.hot.get_mut(key)
    }

    /// Promote `key` into the hot generation if resident; returns whether
    /// it is. For functions that must *return* a borrow: NLL cannot end a
    /// returned borrow early, so they check residency here and then
    /// re-borrow once through [`Self::hot_get`].
    pub fn promote(&mut self, key: &K) -> bool {
        if let Some(entry) = self.cold.remove(key) {
            self.hot.insert(*key, entry);
            return true;
        }
        self.hot.contains_key(key)
    }

    /// Borrow an entry known to be in the hot generation (e.g. right
    /// after [`Self::promote`] or [`Self::insert`]).
    pub fn hot_get(&self, key: &K) -> Option<&V> {
        self.hot.get(key)
    }

    /// Insert `value` under `key`, evicting old generations as needed;
    /// every dropped entry — including a value this insert *replaces* —
    /// is reported to `on_evict` (so callers can keep their own counts;
    /// inserting only keys they just missed makes every report an
    /// eviction). Returns a reference to the stored value.
    pub fn insert(&mut self, key: K, value: V, mut on_evict: impl FnMut(&V)) -> &V {
        // A re-insert must not leave a stale duplicate in either
        // generation: a cold copy would double-count against capacity and
        // resurface over the fresh value, and a hot copy would do the same
        // after the rotation below demotes it. Remove before rotating.
        if let Some(replaced) = self.hot.remove(&key).or_else(|| self.cold.remove(&key)) {
            on_evict(&replaced);
        }
        let hot_limit = self.capacity.div_ceil(2);
        if self.hot.len() >= hot_limit {
            // Rotate generations: hot becomes cold, the old cold dies.
            let dropped = std::mem::replace(&mut self.cold, std::mem::take(&mut self.hot));
            dropped.values().for_each(&mut on_evict);
        }
        while self.len() >= self.capacity {
            // Tiny capacities can still be over budget after a rotation;
            // shed arbitrary cold entries (the generation about to die).
            let Some(&victim) = self.cold.keys().next() else {
                break;
            };
            if let Some(entry) = self.cold.remove(&victim) {
                on_evict(&entry);
            }
        }
        let previous = self.hot.insert(key, value);
        debug_assert!(previous.is_none(), "duplicate removed before rotation");
        &self.hot[&key]
    }

    /// Drop every entry (each reported through `on_evict`).
    pub fn clear(&mut self, on_evict: impl FnMut(&V)) {
        self.hot
            .values()
            .chain(self.cold.values())
            .for_each(on_evict);
        self.hot.clear();
        self.cold.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_promote() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(8);
        assert!(map.is_empty());
        map.insert(1, 10, |_| {});
        map.insert(2, 20, |_| {});
        assert_eq!(map.get(&1), Some(&10));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn get_mut_promotes_and_allows_in_place_edits() {
        let mut map: GenerationalMap<u32, Vec<u32>> = GenerationalMap::new(4);
        map.insert(1, vec![10], |_| {});
        // Rotate 1 into the cold generation.
        map.insert(2, vec![20], |_| {});
        map.insert(3, vec![30], |_| {});
        map.get_mut(&1).expect("cold entry resident").push(11);
        assert_eq!(map.get(&1), Some(&vec![10, 11]));
        assert_eq!(map.get_mut(&99), None);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        for capacity in [1usize, 2, 3, 8] {
            let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(capacity);
            let mut dropped = 0u64;
            for k in 0..100u32 {
                map.insert(k, k, |_| dropped += 1);
                assert!(
                    map.len() <= capacity,
                    "capacity {capacity} exceeded: {} entries",
                    map.len()
                );
            }
            assert!(dropped > 0);
        }
    }

    #[test]
    fn recently_used_entries_survive_rotation() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(4);
        map.insert(1, 10, |_| {});
        for k in 2..40u32 {
            // Touching key 1 every round keeps promoting it to hot.
            assert_eq!(map.get(&1), Some(&10), "key 1 evicted at k={k}");
            map.insert(k, k, |_| {});
        }
    }

    #[test]
    fn reinsert_replaces_without_duplicating() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(4);
        let mut dropped = Vec::new();
        map.insert(1, 10, |&v| dropped.push(v));
        // Hot replace: old value reported, no eviction counted.
        map.insert(1, 11, |&v| dropped.push(v));
        assert_eq!(map.get(&1), Some(&11));
        assert_eq!(map.len(), 1);
        assert_eq!(dropped, vec![10], "the replaced value is reported");
        // Demote to cold (fill hot past its half), then re-insert: the
        // cold duplicate must die, and the fresh value must win.
        map.insert(2, 20, |&v| dropped.push(v));
        map.insert(3, 30, |&v| dropped.push(v)); // rotation: 1,2 go cold
        map.insert(1, 12, |&v| dropped.push(v));
        assert_eq!(map.get(&1), Some(&12));
        assert!(dropped.contains(&11), "cold duplicate was reported");
        let distinct = map.len();
        assert!(distinct <= 4);
    }

    #[test]
    fn hot_reinsert_during_rotation_leaves_no_stale_duplicate() {
        // capacity 4 => hot_limit 2: the third insert rotates the full hot
        // generation to cold. Re-inserting a currently-hot key at exactly
        // that moment must not let the rotation carry a stale copy into
        // cold (it would shadow-resurface over the fresh value on a later
        // get, and double-count against capacity).
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(4);
        map.insert(1, 10, |_| {});
        map.insert(2, 20, |_| {});
        map.insert(1, 99, |_| {}); // triggers rotation while 1 is hot
        assert_eq!(map.get(&1), Some(&99), "fresh value must win");
        assert_eq!(map.get(&1), Some(&99), "and keep winning after promotion");
        assert_eq!(map.len(), 2, "two distinct keys, no duplicates");
    }

    #[test]
    fn clear_reports_all_entries() {
        let mut map: GenerationalMap<u32, u32> = GenerationalMap::new(8);
        map.insert(1, 10, |_| {});
        map.insert(2, 20, |_| {});
        let mut dropped = Vec::new();
        map.clear(|&v| dropped.push(v));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![10, 20]);
        assert!(map.is_empty());
    }
}
