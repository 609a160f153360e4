//! The parallel evaluation engine: a work-stealing thread pool and a
//! sharded concurrent memo cache for design-point estimates.
//!
//! The paper's premise is that estimation is cheap enough to explore a
//! design space interactively; this engine makes the reproduction scale
//! the same way on multi-core hosts. Every consumer keeps its serial
//! semantics: parallel sweeps reassemble results in iteration order, and
//! the Figure-2 search only *prefetches* its doubling frontier into the
//! cache before replaying the unchanged serial algorithm, so the visited
//! sequence, selected design and termination reason are bit-identical to
//! a single-threaded run.
//!
//! Threading is std-only: a [`std::thread::scope`] pool whose workers
//! claim indices from a shared atomic counter (idle workers "steal" the
//! next undone item, so imbalanced evaluation costs still saturate the
//! pool) and send results back over a channel tagged with their index.
//!
//! Worker count resolution: explicit request (`--threads` flag or
//! [`EvalEngine::new`]) > the `DEFACTO_THREADS` environment variable >
//! [`std::thread::available_parallelism`].
//!
//! Observability: each cache shard keeps its own hit/miss counters
//! ([`EvalEngine::shard_stats`]), and the engine accumulates the wall
//! time spent inside evaluators ([`CounterSnapshot::eval_nanos`], summed
//! across workers, so it can exceed the run's wall clock). These feed
//! [`EvalStats`] and the bench tables; they are deliberately *not* part
//! of the search trace, which must stay deterministic across worker
//! counts.

use crate::error::Result;
use defacto_synth::Estimate;
use defacto_xform::UnrollVector;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Number of cache shards. A small power of two keeps the modulo cheap
/// while making same-shard contention unlikely at realistic worker
/// counts.
const SHARD_COUNT: usize = 16;

/// Key of one memoized estimate: the unroll vector plus a hash of the
/// evaluation context (transform options, synthesis options, memory
/// model, and the device's capacity and clock — the device *name* is
/// deliberately excluded so per-FPGA renames like `XCV1000#0` still hit).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The design point.
    pub unroll: UnrollVector,
    /// Hash of everything else that determines the estimate.
    pub context: u64,
}

impl CacheKey {
    fn shard(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }
}

/// One cache shard: its map plus local hit/miss counters, padded into a
/// single struct so a lookup touches one allocation.
#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<CacheKey, Estimate>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Per-shard observability snapshot ([`EvalEngine::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheShardStats {
    /// Entries currently memoized in this shard.
    pub entries: usize,
    /// Lookups answered by this shard.
    pub hits: u64,
    /// Lookups that missed this shard.
    pub misses: u64,
}

/// A sharded concurrent memo cache of design-point estimates. Each shard
/// is an independent `Mutex<HashMap>`, so concurrent workers rarely
/// contend on the same lock.
#[derive(Debug)]
pub struct EstimateCache {
    shards: Vec<Shard>,
}

// The derived Default would build an *empty* shard vector — a cache that
// silently never caches (every get misses, every insert is a no-op).
// Default must mean "an empty cache", not "a broken one".
impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EstimateCache {
    /// An empty cache.
    pub fn new() -> Self {
        EstimateCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[key.shard()]
    }

    /// The cached estimate for `key`, if present. Counts a hit or miss
    /// on the owning shard.
    pub fn get(&self, key: &CacheKey) -> Option<Estimate> {
        let shard = self.shard(key);
        let found = shard
            .map
            .lock()
            .expect("cache shard lock")
            .get(key)
            .cloned();
        match found {
            Some(e) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(e)
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoize `estimate` under `key`.
    pub fn insert(&self, key: CacheKey, estimate: Estimate) {
        self.shard(&key)
            .map
            .lock()
            .expect("cache shard lock")
            .insert(key, estimate);
    }

    /// Number of memoized estimates across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("cache shard lock").len())
            .sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard entry counts and hit/miss counters, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| CacheShardStats {
                entries: s.map.lock().expect("cache shard lock").len(),
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Counters describing one evaluation run (a search, a sweep, a
/// pipeline mapping).
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Design points actually evaluated (transform + estimate).
    pub evaluated: u64,
    /// Evaluations answered from the memo cache instead.
    pub cache_hits: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Time spent inside evaluators, summed across workers (can exceed
    /// `wall` on parallel runs).
    pub eval_wall: Duration,
    /// Worker threads the engine was configured with.
    pub workers: usize,
    /// Tier-0 analytic bands computed (analytic-fidelity and guided
    /// joint runs; zero on classic [`crate::Fidelity::Full`] runs).
    /// Tier-0 work bypasses the memo cache, so it is counted here and
    /// *not* in `evaluated`.
    pub tier0_evaluated: u64,
    /// Memo-cache misses answered by a persistent store instead of an
    /// evaluation (see [`Self::persist_hit_rate`]). Persistent hits are
    /// *not* counted in `evaluated` or `cache_hits` — they are a third
    /// tier between the in-memory memo and a full evaluation.
    pub persist_hits: u64,
    /// Memo-cache misses the persistent store was consulted for and
    /// could not answer (zero when no store is attached).
    pub persist_misses: u64,
    /// Joint points a [`SearchStrategy`](crate::SearchStrategy) spent a
    /// tier-1 evaluation on (guided joint runs only; zero elsewhere).
    /// Like tier-0 work, strategy evaluations bypass the memo cache, so
    /// the explorer fills this in itself.
    pub strategy_visited: u64,
    /// Joint points a strategy's tier-0 bound excluded without a tier-1
    /// evaluation (guided joint runs only).
    pub bounded_pruned: u64,
    /// Persistent-store flushes that failed at the end of a search. The
    /// search still answers; its entries are just not on disk.
    pub persist_flush_failed: u64,
}

impl EvalStats {
    /// Fraction of lookups served from the cache (0 when none occurred).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.evaluated + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of persistent-store consultations that hit (0 when the
    /// store was never consulted). This is the warm-start quality metric
    /// the incremental bench and the cross-process determinism test
    /// assert on.
    pub fn persist_hit_rate(&self) -> f64 {
        let total = self.persist_hits + self.persist_misses;
        if total == 0 {
            0.0
        } else {
            self.persist_hits as f64 / total as f64
        }
    }

    /// Mean evaluator time per actually-evaluated point.
    pub fn mean_eval_time(&self) -> Duration {
        if self.evaluated == 0 {
            Duration::ZERO
        } else {
            self.eval_wall / self.evaluated.min(u32::MAX as u64) as u32
        }
    }
}

// Wall times are nondeterministic; two runs of the same search are
// "equal" when they did the same work with the same configuration.
impl PartialEq for EvalStats {
    fn eq(&self, other: &Self) -> bool {
        self.evaluated == other.evaluated
            && self.cache_hits == other.cache_hits
            && self.workers == other.workers
            && self.tier0_evaluated == other.tier0_evaluated
            && self.persist_hits == other.persist_hits
            && self.persist_misses == other.persist_misses
            && self.strategy_visited == other.strategy_visited
            && self.bounded_pruned == other.bounded_pruned
            && self.persist_flush_failed == other.persist_flush_failed
    }
}

/// Snapshot of the engine's cumulative counters, for delta-based
/// [`EvalEngine::stats_since`] accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Design points evaluated since engine creation.
    pub evaluated: u64,
    /// Cache hits since engine creation.
    pub cache_hits: u64,
    /// Nanoseconds spent inside evaluators since engine creation.
    pub eval_nanos: u64,
    /// Persistent-store hits since engine creation.
    pub persist_hits: u64,
    /// Persistent-store misses since engine creation.
    pub persist_misses: u64,
}

/// The evaluation engine: worker-count policy, memo cache, and counters.
///
/// An engine is shared (behind `Arc`) between the explorers that should
/// pool their caches; each [`crate::Explorer`] owns one by default.
#[derive(Debug)]
pub struct EvalEngine {
    threads: usize,
    cache: EstimateCache,
    evaluated: AtomicU64,
    cache_hits: AtomicU64,
    eval_nanos: AtomicU64,
    persist_hits: AtomicU64,
    persist_misses: AtomicU64,
}

impl Default for EvalEngine {
    fn default() -> Self {
        Self::with_threads(None)
    }
}

impl EvalEngine {
    /// An engine with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        EvalEngine {
            threads: threads.max(1),
            cache: EstimateCache::new(),
            evaluated: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            persist_misses: AtomicU64::new(0),
        }
    }

    /// An engine with `requested` workers when given, else the
    /// `DEFACTO_THREADS` environment override, else the host parallelism.
    pub fn with_threads(requested: Option<usize>) -> Self {
        Self::new(Self::resolve_threads(requested))
    }

    /// The worker-count policy (see module docs). Zero or malformed
    /// values are treated as absent.
    pub fn resolve_threads(requested: Option<usize>) -> usize {
        if let Some(n) = requested {
            return n.max(1);
        }
        if let Some(n) = std::env::var("DEFACTO_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The memo cache.
    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    /// Per-shard cache observability (entries, hits, misses).
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Snapshot of the cumulative counters.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            evaluated: self.evaluated.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            eval_nanos: self.eval_nanos.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            persist_misses: self.persist_misses.load(Ordering::Relaxed),
        }
    }

    /// Stats for a run that started at counter snapshot `before` and took
    /// `wall` time.
    pub fn stats_since(&self, before: CounterSnapshot, wall: Duration) -> EvalStats {
        let now = self.counters();
        EvalStats {
            evaluated: now.evaluated - before.evaluated,
            cache_hits: now.cache_hits - before.cache_hits,
            wall,
            eval_wall: Duration::from_nanos(now.eval_nanos - before.eval_nanos),
            workers: self.threads,
            persist_hits: now.persist_hits - before.persist_hits,
            persist_misses: now.persist_misses - before.persist_misses,
            // Tier-0 work never flows through the engine's counters;
            // tier-0 callers fill these in themselves.
            ..EvalStats::default()
        }
    }

    /// Evaluate through the memo cache: a hit returns the cached
    /// estimate, a miss runs `eval` and memoizes the result. Failed
    /// evaluations are not cached.
    ///
    /// # Errors
    ///
    /// Propagates `eval` failures.
    pub fn evaluate_cached<F>(&self, key: &CacheKey, eval: F) -> Result<Estimate>
    where
        F: FnOnce() -> Result<Estimate>,
    {
        self.evaluate_cached_flagged(key, eval).map(|(e, _)| e)
    }

    /// Like [`Self::evaluate_cached`], also reporting whether the lookup
    /// hit the cache. The evaluator's wall time is accumulated into the
    /// engine's `eval_nanos` counter.
    ///
    /// # Errors
    ///
    /// Propagates `eval` failures.
    pub fn evaluate_cached_flagged<F>(&self, key: &CacheKey, eval: F) -> Result<(Estimate, bool)>
    where
        F: FnOnce() -> Result<Estimate>,
    {
        if let Some(e) = self.cache.get(key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((e, true));
        }
        let started = Instant::now();
        let e = eval()?;
        self.eval_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key.clone(), e.clone());
        Ok((e, false))
    }

    /// Like [`Self::evaluate_cached_flagged`], with a persistent store
    /// consulted between the memo cache and the evaluator: a memo miss
    /// first calls `lookup` (e.g. a content-addressed on-disk cache),
    /// and a hit there is promoted into the memo and counted as a
    /// `persist_hit` — *not* as an evaluation or a memo hit, so the
    /// returned flag and the `evaluated`/`cache_hits` counters stay
    /// identical to a run whose memo was warmed any other way.
    ///
    /// # Errors
    ///
    /// Propagates `eval` failures.
    pub fn evaluate_cached_tiered<L, F>(
        &self,
        key: &CacheKey,
        lookup: L,
        eval: F,
    ) -> Result<(Estimate, bool)>
    where
        L: FnOnce() -> Option<Estimate>,
        F: FnOnce() -> Result<Estimate>,
    {
        if let Some(e) = self.cache.get(key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((e, true));
        }
        if let Some(e) = lookup() {
            self.persist_hits.fetch_add(1, Ordering::Relaxed);
            self.cache.insert(key.clone(), e.clone());
            return Ok((e, true));
        }
        self.persist_misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let e = eval()?;
        self.eval_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key.clone(), e.clone());
        Ok((e, false))
    }

    /// Apply `f` to every item, in parallel, returning results in input
    /// order. Workers claim indices from a shared counter, so an idle
    /// worker always takes the next undone item regardless of which
    /// worker "should" have had it.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R> + Sync,
    {
        let workers = self.threads.min(items.len()).max(1);
        if workers == 1 {
            return items.iter().map(&f).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<R>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    if tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<Result<R>>> = (0..items.len()).map(|_| None).collect();
            for (i, r) in rx {
                slots[i] = Some(r);
            }
            slots
                .into_iter()
                .map(|s| s.expect("worker produced every index"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DseError;

    fn estimate(cycles: u64) -> Estimate {
        Estimate {
            cycles,
            slices: 1,
            memory_busy_cycles: 0,
            compute_busy_cycles: 0,
            bits_from_memory: 0,
            registers: 0,
            balance: 1.0,
            clock_ns: 40,
            fits: true,
            provenance: Default::default(),
        }
    }

    fn key(factors: &[i64], context: u64) -> CacheKey {
        CacheKey {
            unroll: UnrollVector(factors.to_vec()),
            context,
        }
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let cache = EstimateCache::new();
        assert!(cache.is_empty());
        cache.insert(key(&[2, 4], 7), estimate(10));
        assert_eq!(cache.get(&key(&[2, 4], 7)).unwrap().cycles, 10);
        // Same unroll, different context: distinct entry.
        assert!(cache.get(&key(&[2, 4], 8)).is_none());
        cache.insert(key(&[2, 4], 8), estimate(20));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn default_cache_actually_caches() {
        // Regression: the derived Default built zero shards, so a
        // default cache never stored anything.
        let cache = EstimateCache::default();
        cache.insert(key(&[2], 1), estimate(9));
        assert_eq!(
            cache.get(&key(&[2], 1)).map(|e| e.cycles),
            Some(9),
            "default() must behave like new()"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_stats_attribute_hits_and_misses() {
        let cache = EstimateCache::new();
        let k = key(&[4, 2], 3);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), estimate(7));
        assert!(cache.get(&k).is_some());
        let stats = cache.shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), 1);
        // The hit and the miss landed on the same shard (same key).
        assert!(stats.iter().any(|s| s.hits == 1 && s.misses == 1));
    }

    #[test]
    fn evaluate_cached_hits_after_miss() {
        let engine = EvalEngine::new(2);
        let k = key(&[4, 1], 1);
        let (e, hit) = engine
            .evaluate_cached_flagged(&k, || Ok(estimate(5)))
            .unwrap();
        assert_eq!(e.cycles, 5);
        assert!(!hit);
        // Second lookup must not re-run the evaluator.
        let (e, hit) = engine
            .evaluate_cached_flagged(&k, || panic!("must be served from cache"))
            .unwrap();
        assert_eq!(e.cycles, 5);
        assert!(hit);
        let counters = engine.counters();
        assert_eq!((counters.evaluated, counters.cache_hits), (1, 1));
    }

    #[test]
    fn failed_evaluations_are_not_cached() {
        let engine = EvalEngine::new(1);
        let k = key(&[1], 0);
        let err = engine.evaluate_cached(&k, || Err(DseError::NoLoops));
        assert!(err.is_err());
        assert!(engine.cache().is_empty());
        let counters = engine.counters();
        assert_eq!((counters.evaluated, counters.cache_hits), (0, 0));
    }

    #[test]
    fn stats_since_reports_eval_wall() {
        let engine = EvalEngine::new(1);
        let before = engine.counters();
        engine
            .evaluate_cached(&key(&[2], 0), || {
                std::thread::sleep(Duration::from_millis(2));
                Ok(estimate(1))
            })
            .unwrap();
        let stats = engine.stats_since(before, Duration::from_millis(3));
        assert_eq!(stats.evaluated, 1);
        assert!(stats.eval_wall >= Duration::from_millis(2));
        assert!(stats.mean_eval_time() >= Duration::from_millis(2));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        for threads in [1, 2, 8] {
            let engine = EvalEngine::new(threads);
            let items: Vec<u64> = (0..100).collect();
            let out = engine.parallel_map(&items, |&x| Ok(x * x));
            let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(values, expect, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_carries_errors_at_their_index() {
        let engine = EvalEngine::new(4);
        let items: Vec<u64> = (0..32).collect();
        let out = engine.parallel_map(&items, |&x| {
            if x == 13 {
                Err(DseError::NoLoops)
            } else {
                Ok(x)
            }
        });
        assert!(out[13].is_err());
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn thread_resolution_prefers_explicit_request() {
        assert_eq!(EvalEngine::resolve_threads(Some(3)), 3);
        assert_eq!(EvalEngine::resolve_threads(Some(0)), 1);
        assert!(EvalEngine::resolve_threads(None) >= 1);
    }

    #[test]
    fn stats_hit_rate() {
        let s = EvalStats {
            evaluated: 3,
            cache_hits: 1,
            wall: Duration::from_millis(1),
            eval_wall: Duration::from_millis(1),
            workers: 2,
            ..EvalStats::default()
        };
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(EvalStats::default().cache_hit_rate(), 0.0);
    }
}
