//! Persistent, content-addressed cross-run cache.
//!
//! Every `defacto` invocation before this crate was cold: estimates,
//! selected designs and kernel analyses died with the process. The
//! persistent cache stores them on disk, keyed by **content**, so that
//! re-running an exploration — in the same process, a later process, or
//! a `defacto watch` loop — turns repeated work into lookups:
//!
//! - **estimates** are keyed by `canonical kernel hash × context hash ×
//!   design point` ([`defacto_ir::canon`] supplies the canonical hash,
//!   so alpha-renamed / decl-reordered / bound-shifted copies of a
//!   kernel share entries);
//! - **selected-design records** are keyed by `canonical kernel hash ×
//!   context hash` and seed warm-started searches;
//! - **analysis summaries** (dependence/uniform-set digests derived
//!   from a `PreparedKernel`) are keyed by `canonical kernel hash ×
//!   subtree hash`.
//!
//! # On-disk format
//!
//! One append-friendly JSON-lines file, `cache.jsonl`, under the cache
//! directory. Every line is a self-contained record carrying a version
//! stamp (schema tag + crate version). Readers **never fail**: a torn
//! line (a crash or a concurrent writer mid-append), a corrupt line, or
//! a line stamped by another version is silently skipped and behaves as
//! a miss. Writers only ever append; when the file exceeds the size
//! budget the least-recently-used estimate entries are dropped and the
//! file is compacted via an atomic rename.

use defacto_ir::ContentHash;
use defacto_synth::{Estimate, Provenance};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Schema tag of the on-disk format. Bump on any layout change.
pub const SCHEMA_TAG: &str = "defacto-cache/v1";

/// Default size budget of the cache file (64 MiB).
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// The full version stamp every record carries: schema tag + crate
/// version. Entries stamped differently are treated as misses.
pub fn version_stamp() -> String {
    format!("{SCHEMA_TAG}@{}", env!("CARGO_PKG_VERSION"))
}

/// The exploration a cached value belongs to: the canonical kernel and
/// the evaluation context (transform/synthesis options, memory model,
/// device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextKey {
    /// Canonical content hash of the kernel.
    pub kernel: ContentHash,
    /// The explorer's context hash.
    pub context: u64,
}

/// A selected-design record: what a finished search chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionRecord {
    /// Selected unroll factors.
    pub unroll: Vec<i64>,
    /// Termination label (`Termination` rendered via its trace label).
    pub termination: String,
    /// Number of design points the search visited.
    pub visited: u64,
    /// Design-space size.
    pub space: u64,
}

/// A compact digest of one kernel's `PreparedKernel` analyses, keyed by
/// the canonical subtree hash of the innermost body it was derived
/// from. Used by incremental re-exploration to report (and test) which
/// analyses an edit invalidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisSummary {
    /// Nest depth.
    pub depth: usize,
    /// Number of array accesses in the innermost body.
    pub accesses: usize,
    /// Uniformly generated read sets.
    pub read_sets: usize,
    /// Uniformly generated write sets.
    pub write_sets: usize,
    /// Scalars carried across body iterations (non-zero pins unrolling
    /// to the innermost loop).
    pub carried: usize,
}

/// Telemetry counters of one [`PersistentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Estimate lookups served from the store.
    pub hits: u64,
    /// Estimate lookups that missed.
    pub misses: u64,
    /// Records loaded from disk at open.
    pub loaded: u64,
    /// Lines skipped at open (torn, corrupt, or version-mismatched).
    pub skipped: u64,
    /// Estimate entries evicted by the size bound so far.
    pub evicted: u64,
}

impl CacheTelemetry {
    /// Hit fraction over all estimate lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct EstEntry {
    estimate: Estimate,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    estimates: HashMap<(ContextKey, Vec<i64>), EstEntry>,
    selections: HashMap<ContextKey, SelectionRecord>,
    analyses: HashMap<(ContentHash, ContentHash), AnalysisSummary>,
    /// Rendered lines not yet appended to disk.
    pending: Vec<String>,
    /// Approximate on-disk size (file length after the last flush plus
    /// pending line lengths).
    bytes: u64,
    tick: u64,
    evicted: u64,
}

/// The persistent store. Thread-safe: evaluation workers share one
/// instance behind an `Arc`.
pub struct PersistentCache {
    path: PathBuf,
    max_bytes: u64,
    stamp: String,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    loaded: AtomicU64,
    skipped: AtomicU64,
}

impl std::fmt::Debug for PersistentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentCache")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .field("telemetry", &self.telemetry())
            .finish()
    }
}

impl PersistentCache {
    /// Open (creating if necessary) the cache under `dir` with the
    /// default size budget.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail; an unreadable or corrupt cache
    /// file merely starts the cache empty.
    pub fn open(dir: &Path) -> std::io::Result<PersistentCache> {
        Self::with_capacity(dir, DEFAULT_MAX_BYTES)
    }

    /// [`PersistentCache::open`] with an explicit size budget in bytes.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail.
    pub fn with_capacity(dir: &Path, max_bytes: u64) -> std::io::Result<PersistentCache> {
        std::fs::create_dir_all(dir)?;
        let cache = PersistentCache {
            path: dir.join("cache.jsonl"),
            max_bytes: max_bytes.max(1),
            stamp: version_stamp(),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        };
        cache.load();
        Ok(cache)
    }

    /// The cache file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store, recovered if a thread panicked while holding it.
    ///
    /// Recovery is sound because every record is self-contained: each
    /// map entry and each pending line stands alone, and no operation
    /// relies on an invariant spanning two of them. A critical section
    /// torn by a panic therefore leaves at worst a pending line whose
    /// map entry is missing (the next insert appends a duplicate line,
    /// and loading keeps the last) or a map entry whose line is missing
    /// (a later process misses and recomputes it) — never a wrong answer.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn load(&self) {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(_) => return,
        };
        let mut inner = self.lock();
        inner.bytes = text.len() as u64;
        let mut loaded = 0u64;
        let mut skipped = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match self.parse_line(line) {
                Some(record) => {
                    loaded += 1;
                    inner.tick += 1;
                    let tick = inner.tick;
                    match record {
                        Record::Estimate {
                            key,
                            unroll,
                            estimate,
                        } => {
                            inner
                                .estimates
                                .insert((key, unroll), EstEntry { estimate, tick });
                        }
                        Record::Selection { key, record } => {
                            inner.selections.insert(key, record);
                        }
                        Record::Analysis {
                            kernel,
                            subtree,
                            summary,
                        } => {
                            inner.analyses.insert((kernel, subtree), summary);
                        }
                    }
                }
                None => skipped += 1,
            }
        }
        self.loaded.store(loaded, Ordering::Relaxed);
        self.skipped.store(skipped, Ordering::Relaxed);
    }

    /// Look up an estimate. Counts a hit or miss and refreshes the
    /// entry's LRU position.
    pub fn lookup_estimate(&self, key: ContextKey, unroll: &[i64]) -> Option<Estimate> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.estimates.get_mut(&(key, unroll.to_vec())) {
            Some(entry) => {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.estimate.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Number of estimates stored for `key` (how warm a re-exploration
    /// will start). Does not count as lookups.
    pub fn estimates_for(&self, key: ContextKey) -> usize {
        let inner = self.lock();
        inner.estimates.keys().filter(|(k, _)| *k == key).count()
    }

    /// Insert an estimate (no-op when an identical entry exists).
    pub fn insert_estimate(&self, key: ContextKey, unroll: &[i64], estimate: &Estimate) {
        let mut inner = self.lock();
        let map_key = (key, unroll.to_vec());
        if let Some(existing) = inner.estimates.get(&map_key) {
            if existing.estimate == *estimate {
                return;
            }
        }
        let line = estimate_line(&self.stamp, key, unroll, estimate);
        inner.bytes += line.len() as u64 + 1;
        inner.pending.push(line);
        inner.tick += 1;
        let tick = inner.tick;
        inner.estimates.insert(
            map_key,
            EstEntry {
                estimate: estimate.clone(),
                tick,
            },
        );
    }

    /// The selected-design record for `key`, if one was stored.
    pub fn selection(&self, key: ContextKey) -> Option<SelectionRecord> {
        let inner = self.lock();
        inner.selections.get(&key).cloned()
    }

    /// Store the selected design of a finished search.
    pub fn record_selection(&self, key: ContextKey, record: &SelectionRecord) {
        let mut inner = self.lock();
        if inner.selections.get(&key) == Some(record) {
            return;
        }
        let line = selection_line(&self.stamp, key, record);
        inner.bytes += line.len() as u64 + 1;
        inner.pending.push(line);
        inner.selections.insert(key, record.clone());
    }

    /// The analysis summary for `(kernel, subtree)`, if one was stored.
    pub fn analysis(&self, kernel: ContentHash, subtree: ContentHash) -> Option<AnalysisSummary> {
        let inner = self.lock();
        inner.analyses.get(&(kernel, subtree)).cloned()
    }

    /// Store an analysis summary.
    pub fn record_analysis(
        &self,
        kernel: ContentHash,
        subtree: ContentHash,
        summary: &AnalysisSummary,
    ) {
        let mut inner = self.lock();
        if inner.analyses.get(&(kernel, subtree)) == Some(summary) {
            return;
        }
        let line = analysis_line(&self.stamp, kernel, subtree, summary);
        inner.bytes += line.len() as u64 + 1;
        inner.pending.push(line);
        inner.analyses.insert((kernel, subtree), summary.clone());
    }

    /// Append pending records to disk, compacting with LRU eviction
    /// when the file exceeds the size budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory view stays intact, so a
    /// failed flush loses durability, never correctness.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if inner.bytes > self.max_bytes {
            return self.compact(&mut inner);
        }
        if inner.pending.is_empty() {
            return Ok(());
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut buf = String::new();
        for line in &inner.pending {
            buf.push_str(line);
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        inner.pending.clear();
        if let Ok(meta) = std::fs::metadata(&self.path) {
            inner.bytes = meta.len();
        }
        Ok(())
    }

    /// Rewrite the file from the in-memory maps, dropping the least
    /// recently used estimates until under 3/4 of the budget.
    fn compact(&self, inner: &mut Inner) -> std::io::Result<()> {
        let target = self.max_bytes * 3 / 4;
        // Render non-estimate records first — they are small and always
        // survive compaction.
        let mut fixed = String::new();
        for (key, record) in &inner.selections {
            fixed.push_str(&selection_line(&self.stamp, *key, record));
            fixed.push('\n');
        }
        for ((kernel, subtree), summary) in &inner.analyses {
            fixed.push_str(&analysis_line(&self.stamp, *kernel, *subtree, summary));
            fixed.push('\n');
        }
        let mut entries: Vec<(&(ContextKey, Vec<i64>), &EstEntry)> =
            inner.estimates.iter().collect();
        // Most recently used first.
        entries.sort_by_key(|e| std::cmp::Reverse(e.1.tick));
        let mut body = String::new();
        let mut kept: Vec<(ContextKey, Vec<i64>)> = Vec::new();
        let mut size = fixed.len() as u64;
        for ((key, unroll), entry) in entries {
            let line = estimate_line(&self.stamp, *key, unroll, &entry.estimate);
            let len = line.len() as u64 + 1;
            if size + len > target {
                break;
            }
            size += len;
            body.push_str(&line);
            body.push('\n');
            kept.push((*key, unroll.clone()));
        }
        let dropped = inner.estimates.len() - kept.len();
        inner.evicted += dropped as u64;
        let keep: std::collections::HashSet<_> = kept.into_iter().collect();
        inner.estimates.retain(|k, _| keep.contains(k));

        let tmp = self.path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, format!("{fixed}{body}"))?;
        std::fs::rename(&tmp, &self.path)?;
        inner.pending.clear();
        inner.bytes = size;
        Ok(())
    }

    /// Current telemetry counters.
    pub fn telemetry(&self) -> CacheTelemetry {
        let inner = self.lock();
        CacheTelemetry {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            evicted: inner.evicted,
        }
    }

    fn parse_line(&self, line: &str) -> Option<Record> {
        let v: Value = serde_json::parse(line).ok()?;
        if v.get("v")?.as_str()? != self.stamp {
            return None;
        }
        let key = || -> Option<ContextKey> {
            Some(ContextKey {
                kernel: ContentHash::from_hex(v.get("k")?.as_str()?)?,
                context: u64::from_str_radix(v.get("c")?.as_str()?, 16).ok()?,
            })
        };
        match v.get("t")?.as_str()? {
            "est" => Some(Record::Estimate {
                key: key()?,
                unroll: parse_i64_array(v.get("u")?)?,
                estimate: parse_estimate(&v)?,
            }),
            "sel" => Some(Record::Selection {
                key: key()?,
                record: SelectionRecord {
                    unroll: parse_i64_array(v.get("u")?)?,
                    termination: v.get("term")?.as_str()?.to_string(),
                    visited: v.get("visited")?.as_u64()?,
                    space: v.get("space")?.as_u64()?,
                },
            }),
            "ana" => Some(Record::Analysis {
                kernel: ContentHash::from_hex(v.get("k")?.as_str()?)?,
                subtree: ContentHash::from_hex(v.get("s")?.as_str()?)?,
                summary: AnalysisSummary {
                    depth: v.get("depth")?.as_u64()? as usize,
                    accesses: v.get("acc")?.as_u64()? as usize,
                    read_sets: v.get("rs")?.as_u64()? as usize,
                    write_sets: v.get("ws")?.as_u64()? as usize,
                    carried: v.get("car")?.as_u64()? as usize,
                },
            }),
            _ => None,
        }
    }
}

impl Drop for PersistentCache {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

enum Record {
    Estimate {
        key: ContextKey,
        unroll: Vec<i64>,
        estimate: Estimate,
    },
    Selection {
        key: ContextKey,
        record: SelectionRecord,
    },
    Analysis {
        kernel: ContentHash,
        subtree: ContentHash,
        summary: AnalysisSummary,
    },
}

fn join_i64(xs: &[i64]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_i64_array(v: &Value) -> Option<Vec<i64>> {
    match v {
        Value::Array(items) => items.iter().map(|x| x.as_i64()).collect(),
        _ => None,
    }
}

/// The estimate's `balance` is an `f64`; it is stored as raw bits so a
/// round trip through the store is bit-identical.
fn estimate_line(stamp: &str, key: ContextKey, unroll: &[i64], e: &Estimate) -> String {
    format!(
        "{{\"v\":\"{stamp}\",\"t\":\"est\",\"k\":\"{}\",\"c\":\"{:016x}\",\"u\":[{}],\
         \"cy\":{},\"sl\":{},\"mb\":{},\"cb\":{},\"bm\":{},\"rg\":{},\"bal\":{},\
         \"ck\":{},\"fit\":{},\"sg\":{},\"con\":{},\"nar\":{},\"pk\":{}}}",
        key.kernel,
        key.context,
        join_i64(unroll),
        e.cycles,
        e.slices,
        e.memory_busy_cycles,
        e.compute_busy_cycles,
        e.bits_from_memory,
        e.registers,
        e.balance.to_bits(),
        e.clock_ns,
        e.fits,
        e.provenance.segments,
        e.provenance.constrained,
        e.provenance.bitwidth_narrowed,
        e.provenance.packed,
    )
}

fn parse_estimate(v: &Value) -> Option<Estimate> {
    Some(Estimate {
        cycles: v.get("cy")?.as_u64()?,
        slices: v.get("sl")?.as_u64()? as u32,
        memory_busy_cycles: v.get("mb")?.as_u64()?,
        compute_busy_cycles: v.get("cb")?.as_u64()?,
        bits_from_memory: v.get("bm")?.as_u64()?,
        registers: v.get("rg")?.as_u64()? as usize,
        balance: f64::from_bits(v.get("bal")?.as_u64()?),
        clock_ns: v.get("ck")?.as_u64()? as u32,
        fits: as_bool(v.get("fit")?)?,
        provenance: Provenance {
            segments: v.get("sg")?.as_u64()? as u32,
            constrained: as_bool(v.get("con")?)?,
            bitwidth_narrowed: as_bool(v.get("nar")?)?,
            packed: as_bool(v.get("pk")?)?,
        },
    })
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn selection_line(stamp: &str, key: ContextKey, r: &SelectionRecord) -> String {
    format!(
        "{{\"v\":\"{stamp}\",\"t\":\"sel\",\"k\":\"{}\",\"c\":\"{:016x}\",\"u\":[{}],\
         \"term\":\"{}\",\"visited\":{},\"space\":{}}}",
        key.kernel,
        key.context,
        join_i64(&r.unroll),
        r.termination,
        r.visited,
        r.space,
    )
}

fn analysis_line(
    stamp: &str,
    kernel: ContentHash,
    subtree: ContentHash,
    s: &AnalysisSummary,
) -> String {
    format!(
        "{{\"v\":\"{stamp}\",\"t\":\"ana\",\"k\":\"{kernel}\",\"s\":\"{subtree}\",\
         \"depth\":{},\"acc\":{},\"rs\":{},\"ws\":{},\"car\":{}}}",
        s.depth, s.accesses, s.read_sets, s.write_sets, s.carried,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("defacto-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_estimate(cycles: u64) -> Estimate {
        Estimate {
            cycles,
            slices: 120,
            memory_busy_cycles: cycles / 2,
            compute_busy_cycles: cycles / 3,
            bits_from_memory: 4096,
            registers: 17,
            balance: 1.25,
            clock_ns: 25,
            fits: true,
            provenance: Provenance {
                segments: 3,
                constrained: false,
                bitwidth_narrowed: true,
                packed: false,
            },
        }
    }

    fn sample_key(n: u128) -> ContextKey {
        ContextKey {
            kernel: ContentHash(n),
            context: 0xDEFAC70,
        }
    }

    #[test]
    fn estimates_round_trip_bit_identically_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let key = sample_key(42);
        let est = Estimate {
            balance: f64::from_bits(0x3ff000000000abcd), // not exactly representable in short decimal
            ..sample_estimate(12345)
        };
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.insert_estimate(key, &[2, 4], &est);
            cache.flush().unwrap();
        }
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.telemetry().loaded, 1);
        let back = cache.lookup_estimate(key, &[2, 4]).unwrap();
        assert_eq!(back, est);
        assert_eq!(back.balance.to_bits(), est.balance.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn selections_and_analyses_round_trip() {
        let dir = tmp_dir("records");
        let key = sample_key(7);
        let sel = SelectionRecord {
            unroll: vec![4, 2],
            termination: "balanced".to_string(),
            visited: 9,
            space: 42,
        };
        let summary = AnalysisSummary {
            depth: 2,
            accesses: 5,
            read_sets: 3,
            write_sets: 1,
            carried: 0,
        };
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.record_selection(key, &sel);
            cache.record_analysis(key.kernel, ContentHash(99), &summary);
            cache.flush().unwrap();
        }
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.selection(key), Some(sel));
        assert_eq!(cache.analysis(key.kernel, ContentHash(99)), Some(summary));
        assert_eq!(cache.selection(sample_key(8)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_corrupt_and_stale_lines_are_misses_not_errors() {
        let dir = tmp_dir("torn");
        let key = sample_key(1);
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.insert_estimate(key, &[1, 1], &sample_estimate(100));
            cache.insert_estimate(key, &[2, 1], &sample_estimate(200));
            cache.flush().unwrap();
        }
        let path = dir.join("cache.jsonl");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // A stale-version line, a corrupt line, and a torn final line.
        text.push_str("{\"v\":\"defacto-cache/v0@0.0.0\",\"t\":\"est\",\"k\":\"00\"}\n");
        text.push_str("not json at all\n");
        text.push_str("{\"v\":\"");
        std::fs::write(&path, text).unwrap();

        let cache = PersistentCache::open(&dir).unwrap();
        let t = cache.telemetry();
        assert_eq!(t.loaded, 2);
        assert_eq!(t.skipped, 3);
        assert!(cache.lookup_estimate(key, &[1, 1]).is_some());
        assert!(cache.lookup_estimate(key, &[2, 1]).is_some());
        assert!(cache.lookup_estimate(key, &[4, 1]).is_none());
        assert_eq!(cache.telemetry().hits, 2);
        assert_eq!(cache.telemetry().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_estimate_value_is_a_miss() {
        let dir = tmp_dir("truncated");
        let key = sample_key(3);
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.insert_estimate(key, &[1], &sample_estimate(50));
            cache.flush().unwrap();
        }
        let path = dir.join("cache.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        // Chop the line mid-record: a torn write from a dying process.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.telemetry().loaded, 0);
        assert!(cache.lookup_estimate(key, &[1]).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let dir = tmp_dir("lru");
        let cache = PersistentCache::with_capacity(&dir, 2048).unwrap();
        let key = sample_key(5);
        for i in 0..64 {
            cache.insert_estimate(key, &[i, 1], &sample_estimate(1000 + i as u64));
        }
        // Touch one early entry so it is the most recently used.
        assert!(cache.lookup_estimate(key, &[0, 1]).is_some());
        cache.flush().unwrap();
        let t = cache.telemetry();
        assert!(t.evicted > 0, "expected evictions, telemetry {t:?}");
        assert!(
            cache.lookup_estimate(key, &[0, 1]).is_some(),
            "recently used entry evicted"
        );
        let size = std::fs::metadata(cache.path()).unwrap().len();
        assert!(size <= 2048, "cache file not bounded: {size}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poisoned_store_lock_is_recovered() {
        let dir = tmp_dir("poison");
        let key = sample_key(11);
        let cache = PersistentCache::open(&dir).unwrap();
        cache.insert_estimate(key, &[1, 1], &sample_estimate(100));
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.inner.lock().unwrap();
                panic!("worker panics while holding the store lock");
            })
            .join()
            .is_err()
        });
        assert!(panicked && cache.inner.is_poisoned());
        assert_eq!(
            cache.lookup_estimate(key, &[1, 1]),
            Some(sample_estimate(100))
        );
        cache.insert_estimate(key, &[2, 1], &sample_estimate(200));
        cache.flush().unwrap();
        let reopened = PersistentCache::open(&dir).unwrap();
        assert_eq!(reopened.telemetry().loaded, 2);
        assert_eq!(
            reopened.lookup_estimate(key, &[2, 1]),
            Some(sample_estimate(200))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_stamp_includes_schema_and_crate_version() {
        let stamp = version_stamp();
        assert!(stamp.starts_with(SCHEMA_TAG));
        assert!(stamp.contains('@'));
    }
}
