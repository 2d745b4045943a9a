//! A slab-backed LRU cache for computed responses.
//!
//! The serving engine keys cached responses on *(shard epoch, compiled
//! plan)* in one partition per shard — see [`crate::server`] — so this
//! container only
//! needs to be a fast, allocation-reusing LRU: a `HashMap` from key to slab
//! slot plus an intrusive doubly-linked recency list threaded through the
//! slab. `get` and `put` are O(1); evicted slots are recycled through a
//! free list so a warm cache never reallocates.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Hit/miss/eviction counters, readable at any time via
/// [`LruCache::stats`]. Hit rate is the serving engine's headline cache
/// metric: under a Zipf-skewed tenant workload most repeated queries should
/// land here instead of recomputing a mining pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found a live entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure (not by `clear`).
    pub evictions: u64,
    /// Live entries right now.
    pub len: usize,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A fixed-capacity least-recently-used cache.
///
/// Capacity 0 is legal and turns the cache into a no-op (every `get`
/// misses, every `put` is dropped) — the configuration the uncached
/// baseline measurements use.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Unlinks slot `i` from the recency list (it stays in the slab).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Links slot `i` in as the most recently used entry.
    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, promoting it to most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(self.slab[i].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when the cache is full. A no-op at capacity 0.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let slot = if self.map.len() == self.capacity {
            // Recycle the least recently used slot in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.evictions += 1;
            self.slab[victim].key = key.clone();
            self.slab[victim].value = value;
            victim
        } else if let Some(free) = self.free.pop() {
            self.slab[free] = Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            };
            free
        } else {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Drops every entry (slots are recycled; counters keep accumulating).
    pub fn clear(&mut self) {
        self.map.clear();
        let mut i = self.head;
        while i != NIL {
            let next = self.slab[i].next;
            self.free.push(i);
            i = next;
        }
        self.head = NIL;
        self.tail = NIL;
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_value() {
        let mut c = LruCache::new(4);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), Some(2));
        assert_eq!(c.get(&"c"), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // promote a; b is now LRU
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None, "b was least recently used");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn put_refreshes_recency_and_value() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // refresh a; b is now LRU
        c.put("c", 3);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn capacity_zero_is_a_noop() {
        let mut c = LruCache::new(0);
        c.put("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_recycles_slots_without_realloc() {
        let mut c = LruCache::new(3);
        for i in 0..3 {
            c.put(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        for i in 10..13 {
            c.put(i, i);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.slab.len(), 3, "cleared slots must be reused");
        assert_eq!(c.get(&11), Some(11));
    }

    #[test]
    fn single_entry_cache_churns_correctly() {
        let mut c = LruCache::new(1);
        for i in 0..100 {
            c.put(i, i * 2);
            assert_eq!(c.get(&i), Some(i * 2));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
        }
        assert_eq!(c.stats().evictions, 99);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn recency_list_survives_random_churn() {
        // Model check against a naive vector-based LRU.
        let mut c = LruCache::new(4);
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = MRU
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((state >> 33) % 9) as u32;
            if state.is_multiple_of(3) {
                // put
                let value = (state >> 7) as u32;
                if let Some(p) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(p);
                } else if model.len() == 4 {
                    model.pop();
                }
                model.insert(0, (key, value));
                c.put(key, value);
            } else {
                let expect = model.iter().position(|&(k, _)| k == key).map(|p| {
                    let e = model.remove(p);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(c.get(&key), expect);
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
