//! Incremental re-exploration across kernel edits.
//!
//! An [`IncrementalSession`] owns what one `defacto watch` invocation
//! needs to re-answer "which design?" quickly after every edit of a
//! kernel file:
//!
//! - a persistent content-addressed store ([`PersistentCache`]) shared
//!   across processes, so estimates survive restarts and structurally
//!   identical kernels (alpha renames, reordered declarations, shifted
//!   bounds) hit without re-evaluating;
//! - a shared [`EvalEngine`] whose memo cache persists across edits
//!   within the session;
//! - the previous revision's canonical form and prepared artifacts, so a
//!   localized edit re-runs only the invalidated analyses
//!   ([`PreparedKernel::prepare_reusing`]) and the search warm-starts
//!   from the previous selection's surroundings.
//!
//! Soundness: the warm start only *warms caches*. The Figure-2 search
//! replays serially over them, so the visited sequence, selected design
//! and termination reason are bit-identical to a cold run — the
//! [`TraceEvent::WarmStart`] marker emitted before the search lets the
//! auditor (and the tests) verify that independently.

use crate::engine::EvalEngine;
use crate::error::Result;
use crate::explorer::{Explorer, Fidelity};
use crate::search::SearchResult;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use defacto_cache::{CacheTelemetry, PersistentCache};
use defacto_ir::{canonicalize, CanonicalKernel, Kernel};
use defacto_synth::{FpgaDevice, MemoryModel};
use defacto_xform::{PreparedKernel, UnrollVector};
use std::sync::Arc;
use std::time::Instant;

/// What one incremental re-exploration did, beyond the search result.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The search result (selection, visited points, stats). The stats'
    /// `persist_hits`/`persist_misses` report how much the store
    /// answered.
    pub result: SearchResult,
    /// True when a previous run's selection record for this exact
    /// canonical kernel and context seeded a warm start.
    pub warm: bool,
    /// Canonical subtree paths whose hashes changed relative to the
    /// previous revision (empty on the first revision, or when the edit
    /// was structure-preserving).
    pub changed: Vec<String>,
    /// True when the previous revision's prepared artifacts were reused
    /// (the normalized innermost body was unchanged).
    pub reused_analyses: bool,
    /// Estimates the store held for this kernel and context before the
    /// search ran.
    pub preloaded: u64,
    /// Store-wide telemetry after this run.
    pub telemetry: CacheTelemetry,
    /// Wall-clock time of the whole re-exploration (canonicalization,
    /// preparation and search).
    pub wall: std::time::Duration,
}

/// Previous-revision state carried between edits.
struct Previous {
    canonical: CanonicalKernel,
    prepared: Option<Arc<PreparedKernel>>,
}

/// A long-lived exploration session over successive revisions of one
/// kernel (the engine behind `defacto watch`). See the module docs.
pub struct IncrementalSession {
    store: Arc<PersistentCache>,
    engine: Arc<EvalEngine>,
    sink: Arc<dyn TraceSink>,
    mem: MemoryModel,
    device: FpgaDevice,
    fidelity: Fidelity,
    previous: Option<Previous>,
}

impl std::fmt::Debug for IncrementalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSession")
            .field("store", &self.store.path())
            .field("revisions", &u8::from(self.previous.is_some()))
            .finish_non_exhaustive()
    }
}

impl IncrementalSession {
    /// A session persisting into `store`, with the paper's default
    /// platform and a default engine.
    pub fn new(store: Arc<PersistentCache>) -> Self {
        IncrementalSession {
            store,
            engine: Arc::new(EvalEngine::default()),
            sink: Arc::new(NullSink),
            mem: MemoryModel::wildstar_pipelined(),
            device: FpgaDevice::virtex1000(),
            fidelity: Fidelity::Full,
            previous: None,
        }
    }

    /// Share (or configure) the evaluation engine.
    pub fn engine(mut self, engine: Arc<EvalEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// Record every warm-start marker and search decision into `sink`.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Use a different memory model.
    pub fn memory(mut self, mem: MemoryModel) -> Self {
        self.mem = mem;
        self
    }

    /// Target a different device.
    pub fn device(mut self, device: FpgaDevice) -> Self {
        self.device = device;
        self
    }

    /// Select the evaluation fidelity of the underlying explorer.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The persistent store backing the session.
    pub fn store(&self) -> &Arc<PersistentCache> {
        &self.store
    }

    /// Explore (or re-explore) `kernel` — the entry point `defacto
    /// watch` calls per file change. Selections are bit-identical to a
    /// cold [`Explorer::explore`] with the same configuration: the
    /// previous revision only warms caches, never steers the search.
    ///
    /// # Errors
    ///
    /// Propagates analysis and evaluation failures; the session state is
    /// left at the last *successful* revision, so a broken intermediate
    /// edit does not lose the warm state.
    pub fn explore(&mut self, kernel: &Kernel) -> Result<IncrementalOutcome> {
        let started = Instant::now();
        let canonical = canonicalize(kernel);
        let changed = match &self.previous {
            Some(prev) => canonical.changed_subtrees(&prev.canonical),
            None => Vec::new(),
        };

        let mut explorer = Explorer::new(kernel)
            .engine(self.engine.clone())
            .persistent(self.store.clone())
            .trace(self.sink.clone())
            .memory(self.mem.clone())
            .device(self.device.clone())
            .fidelity(self.fidelity);

        // Re-derive only the invalidated point-invariant analyses: when
        // the normalized innermost body is unchanged, the previous
        // revision's access table, uniform sets and offset copies carry
        // over (bounds-only edits additionally re-run dependence
        // analysis).
        let mut reused_analyses = false;
        if let Some(prev_prepared) = self.previous.as_ref().and_then(|p| p.prepared.clone()) {
            let prepared = PreparedKernel::prepare_reusing(kernel, &prev_prepared)?;
            reused_analyses = prepared.base_body() == prev_prepared.base_body()
                && prepared.var_names() == prev_prepared.var_names();
            explorer = explorer.with_prepared(Arc::new(prepared));
        }

        // Warm start: a previous selection for this exact canonical
        // kernel and context means the store already holds the estimates
        // the search will ask for; announce it so auditors can check the
        // replayed search still justifies its selection on its own.
        let key = explorer.persist_key();
        let previous_selection = self.store.selection(key);
        let preloaded = self.store.estimates_for(key) as u64;
        let warm = previous_selection.is_some();
        if self.sink.enabled() {
            if let Some(sel) = &previous_selection {
                self.sink.record(&TraceEvent::WarmStart {
                    previous: UnrollVector(sel.unroll.clone()),
                    preloaded,
                    changed: changed.clone(),
                });
            }
        }

        let result = explorer.explore()?;
        self.previous = Some(Previous {
            prepared: explorer.prepared_arc(),
            canonical,
        });
        Ok(IncrementalOutcome {
            result,
            warm,
            changed,
            reused_analyses,
            preloaded,
            telemetry: self.store.telemetry(),
            wall: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    /// Alpha-renamed, decl-reordered variant of `FIR` — canonically
    /// identical.
    const FIR_RENAMED: &str = "kernel f { in coef: i32[32]; inout acc: i32[64]; in sig: i32[96];
       for a in 0..64 { for b in 0..32 {
         acc[a] = acc[a] + sig[b + a] * coef[b]; } } }";

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("defacto-incr-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_revision_is_warm_and_selects_identically() {
        let dir = tmpdir("warm");
        let store = Arc::new(PersistentCache::open(&dir).unwrap());
        let mut session = IncrementalSession::new(store);
        let k = parse_kernel(FIR).unwrap();
        let cold = session.explore(&k).unwrap();
        assert!(!cold.warm);
        assert_eq!(cold.result.stats.persist_hits, 0);
        // Unchanged kernel: everything replays from the memo cache (the
        // same engine), selection identical.
        let warm = session.explore(&k).unwrap();
        assert!(warm.warm);
        assert!(warm.changed.is_empty());
        assert!(warm.reused_analyses);
        assert_eq!(warm.result.stats.evaluated, 0);
        assert_eq!(cold.result.selected, warm.result.selected);
        assert_eq!(cold.result.visited, warm.result.visited);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_kernel_hits_the_store_across_sessions() {
        let dir = tmpdir("renamed");
        let k = parse_kernel(FIR).unwrap();
        let renamed = parse_kernel(FIR_RENAMED).unwrap();
        let cold = {
            let store = Arc::new(PersistentCache::open(&dir).unwrap());
            let mut session = IncrementalSession::new(store);
            session.explore(&k).unwrap()
        };
        // A fresh session (fresh engine, empty memo) over the renamed
        // kernel: every estimate comes from the persistent store, and the
        // selection is identical.
        let store = Arc::new(PersistentCache::open(&dir).unwrap());
        let mut session = IncrementalSession::new(store);
        let warm = session.explore(&renamed).unwrap();
        assert!(warm.warm, "renamed kernel shares the canonical selection");
        assert_eq!(warm.result.stats.evaluated, 0);
        assert!(warm.result.stats.persist_hits > 0);
        assert_eq!(warm.result.stats.persist_hit_rate(), 1.0);
        assert_eq!(
            cold.result.selected.unroll, warm.result.selected.unroll,
            "selection must be invariant under alpha-renaming"
        );
        assert_eq!(cold.result.selected.estimate, warm.result.selected.estimate);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_marker_precedes_an_auditable_trace() {
        let dir = tmpdir("trace");
        let store = Arc::new(PersistentCache::open(&dir).unwrap());
        let k = parse_kernel(FIR).unwrap();
        let sink = Arc::new(MemorySink::new());
        let mut session = IncrementalSession::new(store).trace(sink.clone());
        session.explore(&k).unwrap();
        let cold_events = sink.events();
        assert!(
            !cold_events
                .iter()
                .any(|e| matches!(e, TraceEvent::WarmStart { .. })),
            "cold runs must not emit warm-start markers"
        );
        sink.clear();
        session.explore(&k).unwrap();
        let warm_events = sink.events();
        assert!(matches!(warm_events[0], TraceEvent::WarmStart { .. }));
        // Stripped of the marker, the warm trace is byte-identical to the
        // cold one and audit-clean.
        assert_eq!(
            crate::trace::to_jsonl(&warm_events[1..]),
            crate::trace::to_jsonl(&cold_events)
        );
        let (sat, space) = Explorer::new(&k).analyze().unwrap();
        let report = crate::audit::audit_search_trace(&warm_events, &space, &sat);
        assert!(report.violations.is_empty(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounds_edit_reuses_body_analyses_and_reselects() {
        let dir = tmpdir("bounds");
        let store = Arc::new(PersistentCache::open(&dir).unwrap());
        let mut session = IncrementalSession::new(store);
        let k = parse_kernel(FIR).unwrap();
        session.explore(&k).unwrap();
        // Same body, halved outer trip count: the body analyses carry
        // over; dependence analysis re-runs; estimates are fresh.
        let edited = parse_kernel(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..32 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let out = session.explore(&edited).unwrap();
        assert!(!out.warm, "edited kernel has no prior selection");
        assert!(out.reused_analyses);
        assert!(!out.changed.is_empty());
        assert!(out.result.stats.evaluated > 0);
        // The fresh selection matches a from-scratch exploration.
        let scratch = Explorer::new(&edited).explore().unwrap();
        assert_eq!(out.result.selected, scratch.selected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
