//! The shared engine layer: one [`Engine`] handle, cheap to clone (an
//! `Arc`), providing two services.
//!
//! 1. **Memoization** ([`Engine::cached`]): bounded, sharded,
//!    namespaced caches. The query layer keeps its plans (`query.plan`)
//!    and the verdicts of QE-decided sentences in them, and the
//!    Section 1.1 enumerate-and-ask loop keeps its decided sentences
//!    (`core.answer.decide`).
//! 2. **Multi-core fan-out** ([`Engine::parallel_map`]): a
//!    `std::thread::scope`-based parallel map over independent
//!    subproblems, used by the physical executor's morsels. Results are
//!    merged in input order — parallel and sequential runs produce
//!    *identical* output, never first-wins.
//!
//! The decision procedures themselves (Cooper, the Theorem A.3
//! elimination) are plain sequential functions and take no engine.
//! [`EngineConfig`]`{ threads }` sets the fan-out width.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Lock shards per memo cache. Concurrent executors map to different
/// shards with probability `1 - 1/SHARDS` per key pair, so the hot read
/// path (`RwLock::read` on one shard) effectively never serializes;
/// `bench_serve`'s contention rows measure exactly this.
const SHARDS: usize = 16;

/// The shard a key hashes to. Uses the std hasher (the shard's inner
/// `HashMap` pays the same hash anyway) — what matters is that equal
/// keys always pick the same shard.
fn shard_of<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Tuning knobs for an [`Engine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads the engine may use, including the calling thread.
    /// `1` means fully sequential.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 1 }
    }
}

/// Entries each memo cache namespace may hold before its shards reset.
const CACHE_CAPACITY: usize = 1 << 16;

/// Type-erased per-namespace engine state: one memo cache per namespace.
type StateMap = HashMap<(TypeId, &'static str), Arc<dyn Any + Send + Sync>>;

struct Inner {
    config: EngineConfig,
    /// Extra worker threads currently running across all nested
    /// `parallel_map` calls; used to keep total concurrency at
    /// `threads` instead of multiplying at every nesting level.
    borrowed_workers: AtomicUsize,
    /// Type-erased map from `(TypeId, namespace)` to a `MemoCache<K, V>`
    /// for that type. Read-locked on the hot path (the namespace set
    /// stabilizes after warm-up); write-locked only to install a new
    /// namespace.
    state: RwLock<StateMap>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// A cheaply clonable handle to shared engine state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.inner.config.threads)
            .finish()
    }
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            inner: Arc::new(Inner {
                config,
                borrowed_workers: AtomicUsize::new(0),
                state: RwLock::new(HashMap::new()),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
            }),
        }
    }

    /// Single-threaded, memoizing engine.
    pub fn sequential() -> Self {
        Engine::new(EngineConfig::default())
    }

    pub fn threads(&self) -> usize {
        self.inner.config.threads
    }

    /// (cache hits, cache misses) since construction.
    pub fn cache_stats(&self) -> (usize, usize) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }

    // -----------------------------------------------------------------
    // Memoization.
    // -----------------------------------------------------------------

    /// Return the cached value for `key` in `namespace`, computing and
    /// storing it on a miss.
    ///
    /// The cache is semantically transparent: `compute` must be a pure
    /// function of `key`.
    pub fn cached<K, V, F>(&self, namespace: &'static str, key: K, compute: F) -> V
    where
        K: Eq + Hash + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
        F: FnOnce() -> V,
    {
        let cache = self.typed::<MemoCache<K, V>>(namespace);
        if let Some(v) = cache.get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        cache.put(key, v.clone());
        v
    }

    /// Fetch-or-create the typed state object for `(T, namespace)`.
    /// Concurrent readers of an existing namespace share a read lock;
    /// only the first touch of a namespace takes the write lock.
    fn typed<T: Default + Send + Sync + 'static>(&self, namespace: &'static str) -> Arc<T> {
        let key = (TypeId::of::<T>(), namespace);
        if let Some(entry) = self
            .inner
            .state
            .read()
            .expect("engine state poisoned")
            .get(&key)
        {
            return Arc::clone(entry)
                .downcast::<T>()
                .expect("state keyed by TypeId");
        }
        let mut state = self.inner.state.write().expect("engine state poisoned");
        let entry = state
            .entry(key)
            .or_insert_with(|| Arc::new(T::default()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("state keyed by TypeId")
    }

    // -----------------------------------------------------------------
    // Parallel fan-out.
    // -----------------------------------------------------------------

    /// Apply `f` to every item, in parallel when the engine has spare
    /// worker slots, and return the results **in input order**.
    ///
    /// Determinism: `results[i] == f(&items[i])` exactly as in the
    /// sequential loop; only wall-clock order differs.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let n = items.len();
        let want = self.inner.config.threads.min(n).saturating_sub(1);
        let helpers = if n < 2 || want == 0 {
            0
        } else {
            self.borrow_workers(want)
        };
        if helpers == 0 {
            return items.iter().map(&f).collect();
        }

        // `Mutex<Option<U>>` slots (rather than `OnceLock`) keep the
        // bound at `U: Send`; each slot is written exactly once.
        let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let value = f(&items[i]);
            *slots[i].lock().expect("result slot poisoned") = Some(value);
        };
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(work);
            }
            work();
        });
        self.return_workers(helpers);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("all indices processed")
            })
            .collect()
    }

    /// Claim up to `want` extra worker slots, respecting the global
    /// thread budget across nested `parallel_map` calls.
    fn borrow_workers(&self, want: usize) -> usize {
        let budget = self.inner.config.threads.saturating_sub(1);
        let mut current = self.inner.borrowed_workers.load(Ordering::Relaxed);
        loop {
            let available = budget.saturating_sub(current);
            let take = want.min(available);
            if take == 0 {
                return 0;
            }
            match self.inner.borrowed_workers.compare_exchange_weak(
                current,
                current + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(actual) => current = actual,
            }
        }
    }

    fn return_workers(&self, count: usize) {
        self.inner
            .borrowed_workers
            .fetch_sub(count, Ordering::Relaxed);
    }
}

/// Number of threads a parallel engine uses by default.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker-thread count requested through the environment: the
/// `FQ_THREADS` variable when it parses as a positive integer, the
/// hardware thread count otherwise. `FQ_THREADS=1` pins every consumer
/// (CLI, benches, tests that honour it) to the sequential path — the
/// parallel ≡ sequential property contracts make this purely a
/// performance knob, never a semantic one.
pub fn threads_from_env() -> usize {
    match std::env::var("FQ_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

impl Engine {
    /// Engine configured from the environment: `FQ_THREADS` worker
    /// threads (hardware threads when unset).
    pub fn from_env() -> Self {
        Engine::new(EngineConfig {
            threads: threads_from_env(),
        })
    }
}

// ---------------------------------------------------------------------
// Memo cache.
// ---------------------------------------------------------------------

/// Bounded map cache, sharded by key hash: lookups take one shard's
/// read lock, so concurrent executors sharing an engine's caches read
/// without serializing. Capacity splits evenly across shards, and an
/// overflowing *shard* resets — predictable, allocation-cheap, and safe
/// for purely-memoizing uses (a reset only costs recomputation).
struct MemoCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        self.shards[shard_of(key)]
            .read()
            .expect("memo cache poisoned")
            .get(key)
            .cloned()
    }

    fn put(&self, key: K, value: V) {
        let mut map = self.shards[shard_of(&key)]
            .write()
            .expect("memo cache poisoned");
        if map.len() >= CACHE_CAPACITY / SHARDS {
            map.clear();
        }
        map.insert(key, value);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("memo cache poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_sequential_order() {
        let items: Vec<u64> = (0..500).collect();
        let sequential: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let engine = Engine::new(EngineConfig { threads });
            let parallel = engine.parallel_map(&items, |x| x * x);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn nested_parallel_maps_stay_within_budget() {
        let engine = Engine::new(EngineConfig { threads: 4 });
        let outer: Vec<u64> = (0..8).collect();
        let result = engine.parallel_map(&outer, |&i| {
            let inner: Vec<u64> = (0..50).collect();
            engine
                .parallel_map(&inner, |&j| i * 100 + j)
                .into_iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8).map(|i| (0..50).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(result, expected);
        assert_eq!(engine.inner.borrowed_workers.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cache_memoizes() {
        let engine = Engine::default();
        let mut calls = 0;
        let v1 = engine.cached("t", 7u64, || {
            calls += 1;
            42u64
        });
        let mut calls2 = 0;
        let v2 = engine.cached("t", 7u64, || {
            calls2 += 1;
            42u64
        });
        assert_eq!((v1, v2), (42, 42));
        assert_eq!((calls, calls2), (1, 0));
        assert_eq!(engine.cache_stats(), (1, 1));
    }

    #[test]
    fn cache_namespaces_are_disjoint() {
        let engine = Engine::default();
        let a = engine.cached("ns-a", 1u64, || "a".to_string());
        let b = engine.cached("ns-b", 1u64, || "b".to_string());
        assert_eq!((a.as_str(), b.as_str()), ("a", "b"));
    }

    #[test]
    fn cache_overflow_resets_instead_of_growing() {
        let engine = Engine::default();
        for k in 0..(2 * CACHE_CAPACITY) as u64 {
            engine.cached("bounded", k, || k);
        }
        let cache = engine.typed::<MemoCache<u64, u64>>("bounded");
        // Each shard resets on overflow, so the total stays bounded by
        // the capacity.
        assert!(cache.len() <= CACHE_CAPACITY);
    }

    #[test]
    fn caches_are_shared_across_threads() {
        // One engine, many executors: a value cached by any thread is a
        // hit for every other.
        let engine = Engine::sequential();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let engine = engine.clone();
                scope.spawn(move || {
                    for k in 0..200u64 {
                        assert_eq!(engine.cached("shared", k % 50, |/* pure */| k % 50), k % 50);
                    }
                });
            }
        });
        let (hits, misses) = engine.cache_stats();
        assert_eq!(hits + misses, 8 * 200);
        assert!(misses <= 50 * 8, "worst case: every thread misses first");
        assert!(hits >= 8 * 200 - 50 * 8);
    }

    #[test]
    fn parallel_map_usable_from_cached_compute() {
        // A cached computation may fan out internally.
        let engine = Engine::new(EngineConfig { threads: 4 });
        let items: Vec<u64> = (0..40).collect();
        let total = engine.cached("combo", 1u64, || {
            engine
                .parallel_map(&items, |x| x + 1)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(total, (1..=40).sum());
    }
}
