//! Sharded, capacity-bounded LRU map backing [`crate::cache::CachedSimilarity`].
//!
//! The memo a long-running service shares across requests must be
//! *bounded*: the old `RwLock<HashMap>` grew without limit, which is
//! exactly the memory leak the ROADMAP's "long-running services" goal
//! cannot afford. This module provides:
//!
//! * **Sharding.** Keys are hash-partitioned over independent
//!   `Mutex`-guarded shards, so concurrent writers on different keys do
//!   not serialize on one global write lock.
//! * **Bounded capacity with LRU eviction.** The configured capacity is
//!   distributed exactly over the shards (sum of shard capacities equals
//!   the total), so the total resident entry count never exceeds the
//!   configured bound. Each shard evicts its least-recently-used entry
//!   on overflow and reports the eviction to the caller.
//! * **Reserve-slot protocol.** [`ShardedLru::get_or_reserve`] closes the
//!   check-then-act race of the old cache: the first thread to miss a key
//!   *reserves* it and computes; concurrent threads missing the same key
//!   block on the shard's condvar and wake to a hit. Each key is computed
//!   (and counted as a miss) exactly once while it stays resident.
//!
//! Reservations live in a side table, not in the LRU itself, so a
//! reserved-but-uncomputed key can never be evicted and never counts
//! against the capacity bound (in-flight reservations are bounded by the
//! number of computing threads). Only a reserved key can have waiters, so
//! a plain [`ShardedLru::insert`] wakes the shard's condvar only when it
//! lands on a reserved key: std's futex condvar does not track waiters,
//! and an unconditional wake is a system call per insert.
//!
//! Keys are hashed with [`mix64`], a fixed 64-bit mixer, both to pick the
//! shard and inside the shard's map. The memo's keys are packed row
//! indices of a frozen corpus, not request bytes, so a keyed
//! (flood-resistant) hash buys nothing and SipHash would cost a pass per
//! lookup.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Sentinel index for "no node".
const NIL: usize = usize::MAX;

/// Number of shards; a small power of two — enough to spread write
/// contention across a worker pool without fragmenting tiny capacities.
const SHARD_COUNT: usize = 8;

/// The SplitMix64 finalizer: a fixed bijective 64-bit mixer whose every
/// output bit depends on every input bit.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`Hasher`] over [`mix64`]: an integer key `x` hashes to `mix64(x)`.
#[derive(Debug, Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        // `mix64(0) == 0`, so a single integer write leaves exactly `x`.
        self.0 = mix64(self.0) ^ x;
    }
}

type MixState = BuildHasherDefault<MixHasher>;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One shard: an intrusive-list LRU over a slab plus the reservation set.
#[derive(Debug)]
struct LruInner<K, V> {
    /// Key → slab slot.
    map: HashMap<K, usize, MixState>,
    /// Slab of list nodes; `free` holds recycled slots.
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    /// Most-recently-used end of the list.
    head: usize,
    /// Least-recently-used end of the list.
    tail: usize,
    /// Maximum resident entries in this shard.
    capacity: usize,
    /// Keys currently reserved by a computing thread.
    pending: HashSet<K, MixState>,
}

impl<K: Hash + Eq + Clone, V: Clone> LruInner<K, V> {
    fn new(capacity: usize) -> Self {
        LruInner {
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            pending: HashSet::default(),
        }
    }

    /// Drops every resident entry (and its memory); the capacity and the
    /// reservations stay.
    fn clear_entries(&mut self) {
        self.map = HashMap::default();
        self.nodes = Vec::new();
        self.free = Vec::new();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = match self.nodes.get(i) {
            Some(n) => (n.prev, n.next),
            None => return,
        };
        match self.nodes.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.nodes.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links node `i` at the most-recently-used end.
    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        if let Some(n) = self.nodes.get_mut(i) {
            n.prev = NIL;
            n.next = old_head;
        }
        match self.nodes.get_mut(old_head) {
            Some(h) => h.prev = i,
            None => self.tail = i,
        }
        self.head = i;
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get_touch(&mut self, key: &K) -> Option<V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        self.nodes.get(i).map(|n| n.value.clone())
    }

    /// Inserts (or refreshes) `key → value`; returns `true` when an entry
    /// was evicted to make room.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.map.get(&key) {
            if let Some(n) = self.nodes.get_mut(i) {
                n.value = value;
            }
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        let mut evicted = false;
        if self.capacity == 0 {
            return false;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            if let Some(n) = self.nodes.get(lru) {
                let old_key = n.key.clone();
                self.unlink(lru);
                self.map.remove(&old_key);
                self.free.push(lru);
                evicted = true;
            }
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(n) = self.nodes.get_mut(slot) {
                    *n = node;
                }
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }
}

#[derive(Debug)]
struct Shard<K, V> {
    inner: Mutex<LruInner<K, V>>,
    /// Wakes threads waiting on a reserved key of this shard.
    ready: Condvar,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn lock(&self) -> MutexGuard<'_, LruInner<K, V>> {
        // The LRU holds only derived values; a panicking holder cannot
        // leave it semantically inconsistent, so poisoning is recovered.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Outcome of [`ShardedLru::get_or_reserve`].
#[derive(Debug, PartialEq)]
pub(crate) enum Slot<V> {
    /// The key was resident (possibly after waiting for a concurrent
    /// computation); the value is attached.
    Hit(V),
    /// The key is absent and now reserved by the caller, who must follow
    /// up with [`ShardedLru::fulfill`] or [`ShardedLru::abandon`].
    Reserved,
}

/// A sharded, capacity-bounded LRU map (see module docs).
#[derive(Debug)]
pub(crate) struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A map holding at most `capacity` entries in total. Capacities below
    /// one are clamped to one; tiny capacities use fewer shards so the
    /// per-shard bound stays meaningful.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = SHARD_COUNT.min(capacity);
        let shards = (0..shard_count)
            .map(|i| {
                // Distribute the capacity exactly: the first
                // `capacity % shard_count` shards take one extra entry,
                // so the shard capacities sum to `capacity`.
                let base = capacity / shard_count;
                let extra = usize::from(i < capacity % shard_count);
                Shard {
                    inner: Mutex::new(LruInner::new(base.saturating_add(extra))),
                    ready: Condvar::new(),
                }
            })
            .collect();
        ShardedLru { shards, capacity }
    }

    /// The configured total capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total resident entries (reservations excluded).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Drops every resident entry. Reservations (and their waiters) are
    /// untouched: the in-flight computations complete normally, and a
    /// thread that misses a reserved key still waits for it instead of
    /// computing it a second time.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            // lint: allow(lock-in-loop) each iteration locks a *different* shard exactly once
            shard.lock().clear_entries();
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        // A multiply-shift reduction of the hash's upper half picks the
        // shard: the shard's map buckets by the low bits of the same hash,
        // so no bucket bits are constant within a shard. The product of a
        // 32-bit value and the shard count, shifted down 32 bits, is below
        // the shard count, which is at least one by construction.
        let hash = MixState::default().hash_one(key);
        let idx = ((hash >> 32) * self.shards.len() as u64) >> 32;
        &self.shards[idx as usize]
    }

    /// Non-blocking lookup refreshing recency; never reserves.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.shard(key).lock().get_touch(key)
    }

    /// Looks `key` up; on a miss, reserves it for the caller. If another
    /// thread holds the reservation, blocks until that thread fulfills
    /// (→ `Hit`) or abandons (→ the caller inherits the reservation).
    pub(crate) fn get_or_reserve(&self, key: &K) -> Slot<V> {
        let shard = self.shard(key);
        let mut inner = shard.lock();
        loop {
            if let Some(value) = inner.get_touch(key) {
                return Slot::Hit(value);
            }
            if !inner.pending.contains(key) {
                inner.pending.insert(key.clone());
                return Slot::Reserved;
            }
            inner = shard
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes the value for a key previously reserved via
    /// [`ShardedLru::get_or_reserve`] and wakes its waiters. Returns `true`
    /// when an entry was evicted to make room.
    pub(crate) fn fulfill(&self, key: K, value: V) -> bool {
        let shard = self.shard(&key);
        let evicted = {
            let mut inner = shard.lock();
            inner.pending.remove(&key);
            inner.insert(key, value)
        };
        shard.ready.notify_all();
        evicted
    }

    /// Releases a reservation without publishing a value (the computation
    /// failed); one waiter inherits the reservation and retries.
    pub(crate) fn abandon(&self, key: &K) {
        let shard = self.shard(key);
        {
            let mut inner = shard.lock();
            inner.pending.remove(key);
        }
        shard.ready.notify_all();
    }

    /// Plain insert (no reservation involved). When another thread holds
    /// a reservation of the same key, its waiters wake to the value; any
    /// other insert skips the wake, since only a reserved key can have
    /// waiters. Returns `true` when an entry was evicted to make room.
    pub(crate) fn insert(&self, key: K, value: V) -> bool {
        let shard = self.shard(&key);
        let (evicted, reserved) = {
            let mut inner = shard.lock();
            let reserved = inner.pending.contains(&key);
            (inner.insert(key, value), reserved)
        };
        if reserved {
            shard.ready.notify_all();
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_touch() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(16);
        assert!(!lru.insert(1, 10));
        assert!(!lru.insert(2, 20));
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_is_a_hard_bound_and_lru_evicts() {
        // Capacity one collapses to a single one-slot shard, so eviction
        // order is fully observable.
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(1);
        assert!(!lru.insert(1, 10));
        assert!(lru.insert(2, 20), "inserting past capacity evicts");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), None, "older entry was evicted");
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn recency_decides_the_victim() {
        // One shard in isolation: touching an entry shields it.
        let mut inner: LruInner<u32, u32> = LruInner::new(3);
        inner.insert(1, 10);
        inner.insert(2, 20);
        inner.insert(3, 30);
        assert_eq!(inner.get_touch(&1), Some(10)); // 1 becomes MRU; 2 is LRU
        assert!(inner.insert(4, 40));
        assert_eq!(inner.get_touch(&2), None, "least-recently-used evicted");
        assert_eq!(inner.get_touch(&1), Some(10));
        assert_eq!(inner.get_touch(&3), Some(30));
        assert_eq!(inner.get_touch(&4), Some(40));
    }

    /// The first `count` keys from 0 upward that land in pairwise
    /// different shards of `lru`.
    fn keys_in_distinct_shards(lru: &ShardedLru<u32, u32>, count: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = Vec::new();
        for k in 0..10_000 {
            if keys.len() == count {
                break;
            }
            if !keys
                .iter()
                .any(|other| std::ptr::eq(lru.shard(other), lru.shard(&k)))
            {
                keys.push(k);
            }
        }
        assert_eq!(keys.len(), count, "no {count} keys in distinct shards");
        keys
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        // Capacity two is two one-slot shards; with one key in each, both
        // shards are full, so only a refresh can keep the overwrite from
        // evicting.
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(2);
        assert_eq!(lru.shards.len(), 2);
        let keys = keys_in_distinct_shards(&lru, 2);
        let (a, b) = (keys[0], keys[1]);
        assert!(!lru.insert(a, 10));
        assert!(!lru.insert(b, 20));
        assert!(!lru.insert(a, 11), "overwrite does not evict");
        assert_eq!(lru.get(&a), Some(11));
        assert_eq!(lru.get(&b), Some(20));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for capacity in [1, 2, 7, 8, 9, 64, 1000] {
            let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(capacity);
            let total: usize = lru.shards.iter().map(|s| s.lock().capacity).sum();
            assert_eq!(total, capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn length_never_exceeds_capacity_under_churn() {
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(13);
        for i in 0..500 {
            lru.insert(i, i);
            assert!(lru.len() <= 13, "len {} at i {i}", lru.len());
        }
        assert_eq!(lru.len(), 13);
    }

    #[test]
    fn tiny_capacities_use_fewer_shards() {
        // Below SHARD_COUNT the shard count collapses to the capacity, so
        // no shard ends up with a zero bound (which would silently drop
        // every insert hashed to it).
        for capacity in 1..SHARD_COUNT {
            let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(capacity);
            assert_eq!(lru.shards.len(), capacity, "capacity {capacity}");
            assert!(
                lru.shards.iter().all(|s| s.lock().capacity == 1),
                "capacity {capacity}: every shard holds exactly one entry"
            );
            assert_eq!(lru.capacity(), capacity);
        }
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(SHARD_COUNT);
        assert_eq!(lru.shards.len(), SHARD_COUNT);
        // Zero clamps to one: a single one-entry shard, still usable.
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(0);
        assert_eq!(lru.shards.len(), 1);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(10));
    }

    #[test]
    fn tiny_capacity_stays_bounded_and_retains_entries() {
        // capacity 3 < SHARD_COUNT: keys spread over three one-slot
        // shards; the total bound holds and lookups still work.
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(3);
        for i in 0..100 {
            lru.insert(i, i * 2);
            assert!(lru.len() <= 3, "len {} at i {i}", lru.len());
            assert_eq!(lru.get(&i), Some(i * 2), "fresh insert is resident");
        }
        assert!(lru.len() >= 1);
    }

    #[test]
    fn reserve_then_fulfill_wakes_waiters() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(8);
        assert_eq!(lru.get_or_reserve(&7), Slot::Reserved);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| lru.get_or_reserve(&7));
            // Give the waiter a moment to block, then publish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!lru.fulfill(7, 70));
            assert_eq!(waiter.join().expect("waiter"), Slot::Hit(70));
        });
    }

    #[test]
    fn abandon_hands_reservation_to_a_waiter() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(8);
        assert_eq!(lru.get_or_reserve(&7), Slot::Reserved);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| lru.get_or_reserve(&7));
            std::thread::sleep(std::time::Duration::from_millis(20));
            lru.abandon(&7);
            assert_eq!(
                waiter.join().expect("waiter"),
                Slot::Reserved,
                "a waiter inherits the abandoned reservation"
            );
        });
    }

    #[test]
    fn plain_insert_of_a_reserved_key_wakes_its_waiter() {
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(8);
        assert_eq!(lru.get_or_reserve(&7), Slot::Reserved);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| lru.get_or_reserve(&7));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!lru.insert(7, 70));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while !waiter.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let woke = waiter.is_finished();
            // The reservation is still the first thread's to release (and
            // releasing it frees a waiter the insert failed to wake).
            assert!(!lru.fulfill(7, 70));
            assert!(woke, "the insert must wake the waiter");
            assert_eq!(waiter.join().expect("waiter"), Slot::Hit(70));
        });
        assert_eq!(lru.get(&7), Some(70));
    }

    #[test]
    fn clear_keeps_reservations() {
        let lru: ShardedLru<u64, u64> = ShardedLru::with_capacity(8);
        assert_eq!(lru.get_or_reserve(&7), Slot::Reserved);
        lru.clear();
        std::thread::scope(|scope| {
            // Key 7 is still being computed: a second miss must wait for
            // it, not reserve and compute it again.
            let waiter = scope.spawn(|| lru.get_or_reserve(&7));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "the second miss must block");
            assert!(!lru.fulfill(7, 70));
            assert_eq!(waiter.join().expect("waiter"), Slot::Hit(70));
        });
    }

    #[test]
    fn mixer_hashes_integer_keys_to_their_mix() {
        for x in [0_u64, 1, 7, 1 << 40, u64::MAX] {
            assert_eq!(MixState::default().hash_one(x), mix64(x));
            if let Ok(small) = u32::try_from(x) {
                assert_eq!(MixState::default().hash_one(small), mix64(x));
            }
        }
        // A bijection: distinct keys never share a hash.
        let hashes: HashSet<u64> = (0..10_000_u64).map(mix64).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn clear_keeps_capacity() {
        // Capacity four is four one-slot shards; one key per shard fills
        // every shard, before the clear and after it.
        let lru: ShardedLru<u32, u32> = ShardedLru::with_capacity(4);
        assert_eq!(lru.shards.len(), 4);
        let keys = keys_in_distinct_shards(&lru, 4);
        for &k in &keys {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 4);
        lru.clear();
        assert_eq!(lru.len(), 0);
        for &k in &keys {
            assert!(!lru.insert(k, k), "a cleared shard has room again");
        }
        for k in 0..100 {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 4, "capacity survives clear");
    }
}
