//! The [`Explorer`] facade: one builder tying together transformation,
//! estimation, saturation analysis and the Figure-2 search.

use crate::engine::{CacheKey, EvalEngine, EvalStats};
use crate::error::Result;
use crate::saturation::{saturation_of, SaturationInfo};
use crate::search::{
    doubling_frontier, run_search_instrumented, SearchConfig, SearchResult, VisitOutcome,
};
use crate::space::{sibling_groups, Axis, DesignSpace, JointPoint};
use crate::strategy::{strategy_for, StrategyContext, StrategyKind};
use crate::trace::{NullSink, TraceEvent, TraceSink};
use defacto_cache::{AnalysisSummary, ContextKey, PersistentCache, SelectionRecord};
use defacto_ir::{ContentHash, Kernel, Loop};
use defacto_synth::{
    estimate_opts, AnalyticBand, AnalyticModel, Estimate, EstimatePlan, FpgaDevice,
    JointAnalyticModel, MemoryModel, SynthesisOptions,
};
use defacto_xform::{
    PreparedKernel, TransformOptions, TransformedDesign, UnrollVector, VariantCache,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Evaluation fidelity policy (see DESIGN.md §10).
///
/// Tier 0 is the closed-form analytic band from
/// [`defacto_synth::analytic`]: no body copying, no DFG, no scheduling.
/// Tier 1 is the full transform + behavioral-estimate pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Every point pays the full tier-1 pipeline (the default).
    #[default]
    Full,
    /// Everything stays at tier 0: estimates are synthetic band
    /// midpoints. Fast and approximate — selections may differ from
    /// [`Fidelity::Full`].
    Analytic,
}

impl Fidelity {
    /// Stable lower-case label, for JSON output and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Analytic => "analytic",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "full" => Ok(Fidelity::Full),
            "analytic" => Ok(Fidelity::Analytic),
            other => Err(format!(
                "unknown fidelity `{other}` (expected full|analytic)"
            )),
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EvaluatedDesign {
    /// The unroll-factor vector.
    pub unroll: UnrollVector,
    /// Its behavioral-synthesis estimate.
    pub estimate: Estimate,
}

/// One evaluated joint-space point (see [`Explorer::joint_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedJointDesign {
    /// The multi-axis coordinate.
    pub point: JointPoint,
    /// Its behavioral-synthesis estimate.
    pub estimate: Estimate,
}

/// Outcome of a guided joint exploration (see
/// [`Explorer::joint_explore`]).
#[derive(Debug, Clone)]
pub struct JointSearchResult {
    /// Which strategy ran.
    pub strategy: StrategyKind,
    /// The selected design — [`crate::exhaustive::best_joint_performance`]
    /// over the evaluated set; `None` when nothing evaluated fits.
    pub selected: Option<EvaluatedJointDesign>,
    /// Every tier-1-evaluated design, in the strategy's decision order.
    pub evaluated: Vec<EvaluatedJointDesign>,
    /// Points a tier-0 bound excluded without a tier-1 evaluation.
    pub pruned: u64,
    /// Optimality-gap bound in cycles (see
    /// [`crate::strategy::GuidedOutcome::gap_cycles`]).
    pub gap_cycles: Option<u64>,
    /// Size of the joint space searched.
    pub space_points: u64,
    /// Evaluation counters for this call (`strategy_visited` and
    /// `bounded_pruned` filled in).
    pub stats: EvalStats,
}

/// Design-space explorer for one kernel.
///
/// Defaults match the paper's platform: 4 pipelined WildStar memories and
/// a Virtex-1000 at 40 ns, with every transformation enabled.
#[derive(Debug, Clone)]
pub struct Explorer<'k> {
    kernel: &'k Kernel,
    kernel_hash: u64,
    mem: MemoryModel,
    device: FpgaDevice,
    opts: TransformOptions,
    synthesis: SynthesisOptions,
    config: SearchConfig,
    explore_override: Option<Vec<bool>>,
    engine: Arc<EvalEngine>,
    sink: Arc<dyn TraceSink>,
    /// Everything besides the unroll vector that determines an estimate,
    /// hashed once per configuration change instead of once per cache
    /// lookup.
    context_hash: u64,
    /// Like `context_hash` but *excluding* the kernel — the persistent
    /// store pairs it with the canonical kernel hash instead, so
    /// alpha-renamed or decl-reordered kernels share on-disk entries.
    persist_context: u64,
    /// Canonical content hash of the kernel (see [`defacto_ir::canon`]),
    /// computed on first persistent-store use.
    canonical: OnceLock<ContentHash>,
    /// Optional persistent content-addressed store consulted between the
    /// engine's memo cache and a full evaluation.
    store: Option<Arc<PersistentCache>>,
    /// Point-invariant pipeline artifacts, prepared lazily on first use
    /// and shared (clones included) across workers, or the preparation
    /// error every design question then returns.
    prepared: OnceLock<defacto_xform::Result<Arc<PreparedKernel>>>,
    /// Evaluation fidelity policy.
    fidelity: Fidelity,
    /// Joint-space axes, when multi-axis exploration was requested with
    /// [`Explorer::axes`]. `None` keeps every path identical to the
    /// classic unroll-only explorer.
    axes: Option<Vec<Axis>>,
    /// The tier-0 analytic model, built lazily from the prepared kernel
    /// and invalidated whenever the evaluation context changes. `None`
    /// inside means the model declined the configuration (designer
    /// resource constraints) — fidelity falls back to tier 1.
    analytic: OnceLock<Option<Arc<AnalyticModel>>>,
    /// Prepared kernel variants keyed by `(permutation, tile)`, built
    /// lazily on the first joint evaluation. Like `prepared`, a pure
    /// function of the kernel (or its error) — never invalidated.
    variants: OnceLock<defacto_xform::Result<Arc<VariantCache>>>,
    /// The tier-0 model family over joint points, built lazily and
    /// invalidated with the evaluation context like `analytic`.
    joint_model: OnceLock<Option<Arc<JointAnalyticModel>>>,
}

impl<'k> Explorer<'k> {
    /// Start exploring `kernel` with the paper's default platform.
    pub fn new(kernel: &'k Kernel) -> Self {
        // The kernel's printed form identifies it in cache keys; two
        // explorers over structurally identical kernels share entries.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        kernel.to_string().hash(&mut h);
        let mut ex = Explorer {
            kernel,
            kernel_hash: h.finish(),
            mem: MemoryModel::wildstar_pipelined(),
            device: FpgaDevice::virtex1000(),
            opts: TransformOptions::default(),
            synthesis: SynthesisOptions::default(),
            config: SearchConfig::default(),
            explore_override: None,
            engine: Arc::new(EvalEngine::default()),
            sink: Arc::new(NullSink),
            context_hash: 0,
            persist_context: 0,
            canonical: OnceLock::new(),
            store: None,
            prepared: OnceLock::new(),
            fidelity: Fidelity::Full,
            axes: None,
            analytic: OnceLock::new(),
            variants: OnceLock::new(),
            joint_model: OnceLock::new(),
        };
        ex.refresh_context();
        ex
    }

    /// Recompute the context hash and drop the cached tier-0 model; call
    /// after any builder change that affects estimates.
    fn refresh_context(&mut self) {
        self.context_hash = self.compute_context_hash();
        self.persist_context = self.compute_persist_context();
        self.analytic = OnceLock::new();
        self.joint_model = OnceLock::new();
    }

    /// Record every search decision into `sink` (see [`crate::trace`]).
    /// Traces are deterministic: the same exploration produces the same
    /// events at any worker count.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Use exactly `n` evaluation worker threads (a fresh engine; the
    /// default engine honours `DEFACTO_THREADS`, then host parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.engine = Arc::new(EvalEngine::new(n));
        self
    }

    /// Share an evaluation engine (and its memo cache) with other
    /// explorers.
    pub fn engine(mut self, engine: Arc<EvalEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// The evaluation engine in use.
    pub fn engine_ref(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// Use a different memory model (the number of memories propagates to
    /// the transformation options).
    pub fn memory(mut self, mem: MemoryModel) -> Self {
        self.opts.num_memories = mem.num_memories;
        self.mem = mem;
        self.refresh_context();
        self
    }

    /// Target a different device.
    pub fn device(mut self, device: FpgaDevice) -> Self {
        self.device = device;
        self.refresh_context();
        self
    }

    /// The device being targeted.
    pub fn device_ref(&self) -> &FpgaDevice {
        &self.device
    }

    /// The kernel being explored.
    pub fn kernel_ref(&self) -> &Kernel {
        self.kernel
    }

    /// Run the IR verifier on every transformation pass's output (see
    /// [`TransformOptions::verify_each_pass`]): a pass that emits
    /// malformed IR fails the evaluation instead of skewing estimates.
    pub fn verify_each_pass(mut self, on: bool) -> Self {
        self.opts.verify_each_pass = on;
        self.refresh_context();
        self
    }

    /// Override the transformation options (e.g. for ablations). The
    /// memory count is forced back in sync with the memory model.
    pub fn options(mut self, opts: TransformOptions) -> Self {
        self.opts = TransformOptions {
            num_memories: self.mem.num_memories,
            ..opts
        };
        self.refresh_context();
        self
    }

    /// Override the synthesis-side options: designer operator bounds
    /// (paper §2.3) and bit-width narrowing (paper §2.4).
    pub fn synthesis(mut self, synthesis: SynthesisOptions) -> Self {
        self.synthesis = synthesis;
        self.refresh_context();
        self
    }

    /// Enable/disable bit-width narrowing from value-range analysis.
    pub fn bitwidth_narrowing(mut self, on: bool) -> Self {
        self.synthesis.bitwidth_narrowing = on;
        self.refresh_context();
        self
    }

    /// Tolerance band around `B = 1` that counts as balanced.
    pub fn balance_tolerance(mut self, tol: f64) -> Self {
        self.config.balance_tolerance = tol;
        self
    }

    /// Force the per-loop exploration flags (outermost first), overriding
    /// the saturation analysis' choice of memory-varying loops.
    pub fn explore_levels(mut self, levels: &[bool]) -> Self {
        self.explore_override = Some(levels.to_vec());
        self
    }

    /// Select the evaluation fidelity (see [`Fidelity`]). The tier-0
    /// model is built lazily on first use; configurations it declines
    /// (designer resource constraints) silently fall back to
    /// [`Fidelity::Full`] behavior.
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The fidelity policy in effect.
    pub fn fidelity_ref(&self) -> Fidelity {
        self.fidelity
    }

    /// Select the joint-space axes for [`Explorer::joint_space`] and
    /// [`Explorer::joint_sweep`]. Search ([`Explorer::explore`]) and the
    /// classic sweep are unaffected — they always work the unroll axis —
    /// so selections stay bit-identical whether or not axes are set.
    pub fn axes(mut self, axes: &[Axis]) -> Self {
        self.axes = Some(axes.to_vec());
        self
    }

    /// The joint-space axes in effect (`None` until [`Explorer::axes`]
    /// is called; [`Explorer::joint_space`] then defaults to unroll
    /// only).
    pub fn axes_ref(&self) -> Option<&[Axis]> {
        self.axes.as_deref()
    }

    /// The tier-0 analytic model for the current context; `None` when
    /// the model declines the configuration.
    fn analytic_model(&self) -> Result<Option<&Arc<AnalyticModel>>> {
        let prepared = self.prepared()?;
        Ok(self
            .analytic
            .get_or_init(|| {
                AnalyticModel::new(
                    Arc::clone(prepared),
                    self.mem.clone(),
                    self.device.clone(),
                    self.opts.clone(),
                    self.synthesis.clone(),
                )
                .map(Arc::new)
            })
            .as_ref())
    }

    /// The shared prepared-variant cache for joint evaluation, or the
    /// kernel's preparation error.
    fn variant_cache(&self) -> Result<&Arc<VariantCache>> {
        self.variants
            .get_or_init(|| VariantCache::new(self.kernel).map(Arc::new))
            .as_ref()
            .map_err(|e| e.clone().into())
    }

    /// The tier-0 joint model family for the current context; `None`
    /// when the model declines the configuration.
    fn joint_analytic_model(&self) -> Result<Option<&Arc<JointAnalyticModel>>> {
        let variants = self.variant_cache()?;
        Ok(self
            .joint_model
            .get_or_init(|| {
                JointAnalyticModel::new(
                    Arc::clone(variants),
                    self.mem.clone(),
                    self.device.clone(),
                    self.opts.clone(),
                    self.synthesis.clone(),
                )
                .map(Arc::new)
            })
            .as_ref())
    }

    /// The transformation options in effect.
    pub fn transform_options(&self) -> &TransformOptions {
        &self.opts
    }

    /// Transform the kernel at one unroll vector.
    ///
    /// # Errors
    ///
    /// The kernel's preparation error, or the point's transformation
    /// failure (e.g. non-dividing factors).
    pub fn design(&self, unroll: &UnrollVector) -> Result<TransformedDesign> {
        Ok(self.prepared()?.transform(unroll, &self.opts)?)
    }

    /// The kernel's preparation, made on first use, or its error.
    fn prepared(&self) -> Result<&Arc<PreparedKernel>> {
        self.prepared
            .get_or_init(|| PreparedKernel::prepare(self.kernel).map(Arc::new))
            .as_ref()
            .map_err(|e| e.clone().into())
    }

    /// Seed the point-invariant pipeline artifacts — e.g. from
    /// [`PreparedKernel::prepare_reusing`] during incremental
    /// re-exploration. The caller must have prepared *this* kernel;
    /// seeding a foreign preparation is unsound. No-op if an evaluation
    /// already prepared lazily.
    pub fn with_prepared(self, prepared: Arc<PreparedKernel>) -> Self {
        let _ = self.prepared.set(Ok(prepared));
        self
    }

    /// The shared point-invariant artifacts, if any evaluation (or
    /// [`Explorer::with_prepared`]) has produced them.
    pub fn prepared_arc(&self) -> Option<Arc<PreparedKernel>> {
        match self.prepared.get()? {
            Ok(prepared) => Some(Arc::clone(prepared)),
            Err(_) => None,
        }
    }

    /// Hash of everything besides the unroll vector that determines an
    /// estimate: the kernel, the transform and synthesis options, the
    /// memory model, and the device's capacity and clock. The device
    /// *name* is excluded so renamed-but-identical devices (the
    /// multi-FPGA mapper's `XCV1000#0`) still share cache entries.
    ///
    /// Recomputed eagerly by the builder methods that change an input,
    /// and cached in `self.context_hash` for the per-lookup fast path.
    fn compute_context_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.kernel_hash.hash(&mut h);
        self.opts.hash(&mut h);
        self.synthesis.hash(&mut h);
        self.mem.hash(&mut h);
        self.device.capacity_slices.hash(&mut h);
        self.device.clock_ns.hash(&mut h);
        h.finish()
    }

    /// The platform-and-options half of the persistent-store key. The
    /// kernel is deliberately excluded — the store keys on the canonical
    /// content hash instead, so structurally identical kernels (alpha
    /// renames, reordered declarations, shifted-but-equivalent bounds)
    /// share entries across processes.
    fn compute_persist_context(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.opts.hash(&mut h);
        self.synthesis.hash(&mut h);
        self.mem.hash(&mut h);
        self.device.capacity_slices.hash(&mut h);
        self.device.clock_ns.hash(&mut h);
        h.finish()
    }

    /// Attach a persistent content-addressed store (see
    /// [`defacto_cache::PersistentCache`]): engine-memo misses consult it
    /// before evaluating, evaluations are written back, and
    /// [`Explorer::explore`] records its selection for warm starts.
    /// Search traces and selections are unaffected — a store hit is
    /// indistinguishable from a prefetch-warmed memo entry.
    pub fn persistent(mut self, store: Arc<PersistentCache>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached persistent store, if any.
    pub fn persistent_ref(&self) -> Option<&Arc<PersistentCache>> {
        self.store.as_ref()
    }

    /// Canonical content hash of the kernel (computed once).
    pub fn canonical_hash(&self) -> ContentHash {
        *self
            .canonical
            .get_or_init(|| defacto_ir::content_hash(self.kernel))
    }

    /// The persistent-store key of this explorer's configuration.
    pub fn persist_key(&self) -> ContextKey {
        ContextKey {
            kernel: self.canonical_hash(),
            context: self.persist_context,
        }
    }

    fn cache_key(&self, unroll: &UnrollVector) -> CacheKey {
        CacheKey {
            unroll: unroll.clone(),
            context: self.context_hash,
        }
    }

    /// Evaluate one unroll vector: transform + behavioral-synthesis
    /// estimate, memoized in the engine's cache (estimation is
    /// deterministic, so a hit is indistinguishable from re-evaluating).
    ///
    /// Under [`Fidelity::Analytic`] the estimate is the synthetic tier-0
    /// band midpoint instead (recognizable by
    /// `estimate.provenance.segments == 0`); tier-0 results never enter
    /// the engine's memo cache, so mixed-fidelity explorers sharing an
    /// engine cannot cross-contaminate.
    ///
    /// # Errors
    ///
    /// Propagates transformation failures.
    pub fn evaluate(&self, unroll: &UnrollVector) -> Result<EvaluatedDesign> {
        if self.fidelity == Fidelity::Analytic {
            if let Some(model) = self.analytic_model()? {
                let band = model.evaluate(unroll)?;
                return Ok(EvaluatedDesign {
                    unroll: unroll.clone(),
                    estimate: model.synthetic_estimate(&band),
                });
            }
        }
        let (estimate, _) = self.evaluate_inner(unroll)?;
        Ok(EvaluatedDesign {
            unroll: unroll.clone(),
            estimate,
        })
    }

    /// The tier-1 evaluation path: engine memo cache, then the
    /// persistent store (when attached), then transform + estimate.
    /// Fresh evaluations are written back to the store; the returned
    /// flag is true when *any* cache layer answered.
    fn evaluate_inner(&self, unroll: &UnrollVector) -> Result<(Estimate, bool)> {
        let eval = || {
            let design = self.design(unroll)?;
            Ok(estimate_opts(
                &design,
                &self.mem,
                &self.device,
                &self.synthesis,
            ))
        };
        match &self.store {
            None => self
                .engine
                .evaluate_cached_flagged(&self.cache_key(unroll), eval),
            Some(store) => {
                let key = self.persist_key();
                let (estimate, hit) = self.engine.evaluate_cached_tiered(
                    &self.cache_key(unroll),
                    || store.lookup_estimate(key, unroll.factors()),
                    eval,
                )?;
                if !hit {
                    store.insert_estimate(key, unroll.factors(), &estimate);
                }
                Ok((estimate, hit))
            }
        }
    }

    /// [`Explorer::evaluate`], also reporting whether a cache layer
    /// answered. This is the search's single cache layer and hit/miss
    /// source of truth.
    fn evaluate_flagged(&self, unroll: &UnrollVector) -> Result<VisitOutcome> {
        let (estimate, cache_hit) = self.evaluate_inner(unroll)?;
        Ok(VisitOutcome {
            estimate,
            cache_hit,
        })
    }

    /// Saturation analysis and the design space for this configuration.
    ///
    /// # Errors
    ///
    /// The kernel's preparation error (it does not normalize or is not
    /// a perfect loop nest), or the baseline transformation's failure.
    pub fn analyze(&self) -> Result<(SaturationInfo, DesignSpace)> {
        saturation_of(
            self.prepared()?,
            &self.opts,
            self.explore_override.as_deref(),
        )
    }

    /// Run the paper's Figure-2 search.
    ///
    /// With more than one worker, the doubling frontier (the chain of
    /// points the search visits while compute bound) is speculatively
    /// evaluated in one parallel batch first; the serial algorithm then
    /// replays over the warm cache, so the visited sequence, selected
    /// design and termination reason are bit-identical to a
    /// single-threaded run. `result.stats` reports the engine-wide
    /// counters for this call, speculative evaluations included.
    ///
    /// Fidelity: under [`Fidelity::Analytic`] the search runs on
    /// synthetic tier-0 estimates — fast, approximate, and possibly
    /// selecting a different design. Tier-0 pruning that selects what a
    /// full sweep would is [`StrategyKind::BranchAndBound`] through
    /// [`Explorer::joint_explore`].
    ///
    /// # Errors
    ///
    /// Propagates analysis or evaluation failures.
    pub fn explore(&self) -> Result<SearchResult> {
        let started = Instant::now();
        let before = self.engine.counters();
        let (sat, space) = self.analyze()?;
        if self.fidelity == Fidelity::Analytic {
            if let Some(model) = self.analytic_model()? {
                let model = model.clone();
                return self.explore_analytic(started, &sat, &space, &model);
            }
        }
        if self.engine.threads() > 1 || self.sink.enabled() {
            let frontier = doubling_frontier(&space, &sat);
            // The frontier is a pure function of the space, so the event
            // is identical whether or not a prefetch actually runs —
            // traces stay byte-identical across worker counts.
            if self.sink.enabled() {
                self.sink.record(&TraceEvent::Frontier {
                    points: frontier.clone(),
                });
            }
            if self.engine.threads() > 1 {
                // Speculative: a frontier point past where the serial
                // search stops may legitimately fail to evaluate; the
                // replay below surfaces any error the serial algorithm
                // would actually hit.
                for outcome in self.engine.parallel_map(&frontier, |u| self.evaluate(u)) {
                    drop(outcome);
                }
            }
        }
        let mut result = run_search_instrumented(
            &space,
            &sat,
            &self.config,
            |u| self.evaluate_flagged(u),
            self.sink.as_ref(),
        )?;
        result.stats = self.engine.stats_since(before, started.elapsed());
        self.persist_result(&mut result, self.prepared()?);
        Ok(result)
    }

    /// Record the search outcome (and a summary of the point-invariant
    /// analyses) into the persistent store, then flush it. Best-effort:
    /// persistence failures never fail a search, but a failed flush is
    /// counted in `result.stats.persist_flush_failed`.
    fn persist_result(&self, result: &mut SearchResult, prepared: &PreparedKernel) {
        let Some(store) = &self.store else { return };
        let key = self.persist_key();
        store.record_selection(
            key,
            &SelectionRecord {
                unroll: result.selected.unroll.factors().to_vec(),
                termination: crate::trace::termination_label(result.termination).to_string(),
                visited: result.visited.len() as u64,
                space: result.space_size,
            },
        );
        let canonical = defacto_ir::canonicalize(self.kernel);
        if let Some(innermost) = canonical.subtree("innermost") {
            let sets = prepared.base_sets();
            store.record_analysis(
                key.kernel,
                innermost,
                &AnalysisSummary {
                    depth: prepared.depth(),
                    accesses: sets.iter().map(|s| s.members.len()).sum(),
                    read_sets: sets.iter().filter(|s| !s.is_write).count(),
                    write_sets: sets.iter().filter(|s| s.is_write).count(),
                    carried: prepared.carried_scalars().len(),
                },
            );
        }
        if store.flush().is_err() {
            result.stats.persist_flush_failed += 1;
        }
    }

    /// The tier-0-only search: the Figure-2 algorithm over synthetic
    /// band-midpoint estimates, with a local memo standing in for the
    /// engine's cache (tier-0 results stay out of the shared cache).
    fn explore_analytic(
        &self,
        started: Instant,
        sat: &SaturationInfo,
        space: &DesignSpace,
        model: &Arc<AnalyticModel>,
    ) -> Result<SearchResult> {
        if self.sink.enabled() {
            self.sink.record(&TraceEvent::Frontier {
                points: doubling_frontier(space, sat),
            });
        }
        let mut memo: HashMap<UnrollVector, Estimate> = HashMap::new();
        let mut result = run_search_instrumented(
            space,
            sat,
            &self.config,
            |u| {
                if let Some(e) = memo.get(u) {
                    return Ok(VisitOutcome {
                        estimate: e.clone(),
                        cache_hit: true,
                    });
                }
                let band = model.evaluate(u)?;
                let e = model.synthetic_estimate(&band);
                memo.insert(u.clone(), e.clone());
                Ok(VisitOutcome {
                    estimate: e,
                    cache_hit: false,
                })
            },
            self.sink.as_ref(),
        )?;
        // The search-level counters measured tier-0 work; reattribute.
        let tier0_evaluated = result.stats.evaluated;
        result.stats = EvalStats {
            evaluated: 0,
            cache_hits: 0,
            wall: started.elapsed(),
            eval_wall: Duration::ZERO,
            workers: self.engine.threads(),
            tier0_evaluated,
            ..EvalStats::default()
        };
        Ok(result)
    }

    /// Build the typed multi-axis design space for the axes selected
    /// with [`Explorer::axes`] (unroll only when unset). Axis domains
    /// are constructed from the kernel's
    /// [`LegalitySummary`](defacto_analysis::LegalitySummary), so every
    /// member is statically proven legal before anything is evaluated —
    /// see [`DesignSpace::with_axes`].
    ///
    /// # Errors
    ///
    /// The errors of [`Explorer::analyze`].
    pub fn joint_space(&self) -> Result<DesignSpace> {
        let (info, _) = self.analyze()?;
        self.joint_space_of(&info)
    }

    /// [`Explorer::joint_space`] over the saturation analysis `info`.
    fn joint_space_of(&self, info: &SaturationInfo) -> Result<DesignSpace> {
        let axes = match &self.axes {
            Some(a) => a.clone(),
            None => vec![Axis::Unroll],
        };
        let prepared = self.prepared()?;
        let trips: Vec<i64> = prepared.loops().iter().map(Loop::trip_count).collect();
        Ok(DesignSpace::with_axes(
            &trips,
            &info.unrollable,
            prepared.legality(),
            &axes,
            self.mem.width_bits,
        ))
    }

    /// Evaluate every point of the joint multi-axis space (see
    /// [`Explorer::joint_space`]), fanned out across the engine's
    /// workers, in the space's enumeration order. One
    /// [`TraceEvent::AxisVisit`] is emitted per point, in order, when
    /// tracing is enabled.
    ///
    /// With axes unset or `[Axis::Unroll]`, the evaluated designs carry
    /// exactly the classic space's unroll vectors in [`DesignSpace::iter`]
    /// order with estimates identical to [`Explorer::sweep`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures. A transform failure on any
    /// enumerated point is a soundness bug — membership is supposed to
    /// imply transform success — and surfaces here as the transform's
    /// typed error rather than being skipped.
    pub fn joint_sweep(&self) -> Result<Vec<EvaluatedJointDesign>> {
        let space = self.joint_space()?;
        let sweep = self.evaluate_joint_points(space.joint_points(), None)?;
        if self.sink.enabled() {
            for d in &sweep {
                self.sink.record(&TraceEvent::AxisVisit {
                    point: d.point.clone(),
                    balance: d.estimate.balance,
                    cycles: d.estimate.cycles,
                    slices: d.estimate.slices,
                    fits: d.estimate.fits,
                });
            }
        }
        Ok(sweep)
    }

    /// Search the joint multi-axis space with a pluggable
    /// [`SearchStrategy`](crate::SearchStrategy) instead of enumerating
    /// it (see [`crate::strategy`]).
    ///
    /// [`StrategyKind::BranchAndBound`] selects **bit-identically** to
    /// [`Explorer::joint_sweep`] +
    /// [`crate::exhaustive::best_joint_performance`] while typically
    /// paying a small fraction of its tier-1 evaluations — the tier-0
    /// joint bands prove every pruned point loses.
    /// [`StrategyKind::CoordinateDescent`] additionally reports
    /// `gap_cycles`, a proven bound on how far its selection can be
    /// from optimal. The decision sequence, trace and selection are
    /// deterministic at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates space-construction and evaluation failures.
    pub fn joint_explore(&self, kind: StrategyKind) -> Result<JointSearchResult> {
        let started = Instant::now();
        let before = self.engine.counters();
        let (info, _) = self.analyze()?;
        let space = self.joint_space_of(&info)?;
        let points = space.joint_points().to_vec();
        let cx = ExplorerStrategyCx {
            ex: self,
            memo: DesignMemo::new(&points),
            points,
            seed: joint_seed(&info, &space),
            model: self.joint_analytic_model()?.cloned(),
            bands_priced: Cell::new(0),
        };
        let outcome = strategy_for(kind).run(&cx)?;
        let selected = crate::exhaustive::best_joint_performance(&outcome.evaluated).cloned();
        let mut stats = self.engine.stats_since(before, started.elapsed());
        stats.strategy_visited = outcome.evaluated.len() as u64;
        stats.bounded_pruned = outcome.pruned;
        stats.tier0_evaluated = cx.bands_priced.get();
        Ok(JointSearchResult {
            strategy: kind,
            selected,
            evaluated: outcome.evaluated,
            pruned: outcome.pruned,
            gap_cycles: outcome.gap_cycles,
            space_points: space.joint_size(),
            stats,
        })
    }

    /// Evaluate joint points in order, fanning their sibling groups (see
    /// [`sibling_groups`]) out across the engine's workers; `memo` lends
    /// designs to groups a caller hands over piecemeal. Fails with the
    /// earliest failure in `points` order.
    fn evaluate_joint_points(
        &self,
        points: &[JointPoint],
        memo: Option<&DesignMemo>,
    ) -> Result<Vec<EvaluatedJointDesign>> {
        let groups: Vec<&[JointPoint]> = sibling_groups(points).collect();
        let mut evaluated = Vec::with_capacity(points.len());
        for r in self
            .engine
            .parallel_map(&groups, |g| self.evaluate_group(g, memo))
        {
            evaluated.extend(r?);
        }
        Ok(evaluated)
    }

    /// Evaluate one sibling group: transform its variant (from the shared
    /// [`VariantCache`]) at its unroll vector once, plan its estimation
    /// once, and estimate every sibling from that plan with its
    /// narrowing/packing flags added to the explorer's synthesis
    /// options. The flags are synthesis options, so they cannot change
    /// the transformed design. Under [`Fidelity::Analytic`] a sibling's
    /// estimate is its joint tier-0 band midpoint instead
    /// (`provenance.segments == 0`), and only the siblings no band prices
    /// pay for the plan.
    fn evaluate_group(
        &self,
        group: &[JointPoint],
        memo: Option<&DesignMemo>,
    ) -> Result<Vec<EvaluatedJointDesign>> {
        let first = &group[0];
        let mut tier0: Vec<Option<Estimate>> = vec![None; group.len()];
        if self.fidelity == Fidelity::Analytic {
            if let Some(m) = self.joint_analytic_model()? {
                for ((slot, band), p) in tier0.iter_mut().zip(group_bands(m, group)).zip(group) {
                    *slot = band.and_then(|b| {
                        m.synthetic_estimate(&p.permutation, p.tile, p.narrow, p.pack, &b)
                    });
                }
            }
        }
        let flags: Vec<(bool, bool)> = group
            .iter()
            .zip(&tier0)
            .filter(|(_, priced)| priced.is_none())
            .map(|(p, _)| (p.narrow, p.pack))
            .collect();
        let plan = if flags.is_empty() {
            None
        } else {
            Some(self.group_plan(first, &flags, memo)?)
        };
        let mut tier1 = plan
            .as_ref()
            .map(|plan| plan.estimates(&flags))
            .unwrap_or_default()
            .into_iter();
        let evaluated = group
            .iter()
            .zip(tier0)
            .map(|(p, priced)| EvaluatedJointDesign {
                point: p.clone(),
                estimate: priced
                    .or_else(|| tier1.next())
                    .expect("one tier-1 estimate per unpriced sibling"),
            })
            .collect();
        if let Some(memo) = memo {
            memo.settle(first, group.len(), plan);
        }
        Ok(evaluated)
    }

    /// The estimation plan of `p`'s sibling group, from `memo` when a
    /// sibling already paid for it. A fresh plan narrows when a sibling
    /// of the whole group does (the memo's record) or, without a memo,
    /// when one of `flags` does.
    fn group_plan(
        &self,
        p: &JointPoint,
        flags: &[(bool, bool)],
        memo: Option<&DesignMemo>,
    ) -> Result<Arc<EstimatePlan>> {
        let narrow = match memo.map(|m| m.get(p)) {
            Some((Some(plan), _)) => return Ok(plan),
            Some((None, narrow)) => narrow,
            None => flags.iter().any(|&(narrow, _)| narrow),
        };
        let prepared = self.variant_cache()?.prepared(&p.permutation, p.tile)?;
        let design = prepared.transform(&joint_unroll(p), &self.opts)?;
        Ok(Arc::new(EstimatePlan::new(
            &design,
            &self.mem,
            &self.device,
            &self.synthesis,
            narrow,
        )))
    }

    /// Execute the transformed design at `unroll` on concrete inputs
    /// through the reference interpreter — functional verification of the
    /// exact hardware-bound code, with its memory-traffic profile.
    ///
    /// # Errors
    ///
    /// Propagates transformation and interpretation failures.
    pub fn simulate(
        &self,
        unroll: &UnrollVector,
        inputs: &[(&str, Vec<i64>)],
    ) -> Result<(defacto_ir::Workspace, defacto_ir::ExecStats)> {
        let design = self.design(unroll)?;
        defacto_ir::run_with_inputs(&design.kernel, inputs)
            .map_err(|e| crate::DseError::Xform(defacto_xform::XformError::Ir(e)))
    }

    /// Evaluate *every* design in the space (the exhaustive baseline the
    /// paper's figures plot), fanned out across the engine's workers.
    /// Results are returned in the space's iteration order regardless of
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn sweep(&self) -> Result<Vec<EvaluatedDesign>> {
        Ok(self.sweep_with_stats()?.0)
    }

    /// [`Explorer::sweep`], also reporting the evaluation counters for
    /// this call.
    ///
    /// Fidelity: under [`Fidelity::Analytic`] every estimate is a
    /// synthetic tier-0 band midpoint.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn sweep_with_stats(&self) -> Result<(Vec<EvaluatedDesign>, EvalStats)> {
        let started = Instant::now();
        let before = self.engine.counters();
        let (_, space) = self.analyze()?;
        let model = match self.fidelity {
            Fidelity::Full => None,
            Fidelity::Analytic => self.analytic_model()?.cloned(),
        };
        let (sweep, tier0_evaluated) = match model {
            Some(model) => self.analytic_sweep(&space, &model)?,
            // Full fidelity, or the model declined the configuration.
            None => (
                crate::exhaustive::parallel_sweep(&space, &self.engine, |u| self.evaluate(u))?,
                0,
            ),
        };
        let mut stats = self.engine.stats_since(before, started.elapsed());
        stats.tier0_evaluated = tier0_evaluated;
        Ok((sweep, stats))
    }

    /// Tier-0-only sweep: a synthetic band-midpoint estimate per point,
    /// fanned out across the engine's workers but bypassing its memo
    /// cache and counters. Also returns the number of bands priced.
    fn analytic_sweep(
        &self,
        space: &DesignSpace,
        model: &Arc<AnalyticModel>,
    ) -> Result<(Vec<EvaluatedDesign>, u64)> {
        let points: Vec<UnrollVector> = space.iter().collect();
        let results = self.engine.parallel_map(&points, |u| {
            let band = model.evaluate(u)?;
            Ok(EvaluatedDesign {
                unroll: u.clone(),
                estimate: model.synthetic_estimate(&band),
            })
        });
        let mut sweep = Vec::with_capacity(points.len());
        for r in results {
            sweep.push(r?);
        }
        let priced = sweep.len() as u64;
        Ok((sweep, priced))
    }
}

/// The unroll vector a joint point's variant pipeline is transformed
/// with: register tiling deepens the nest by one, and tiled points are
/// enumerated at all-ones unroll.
fn joint_unroll(p: &JointPoint) -> UnrollVector {
    match p.tile {
        Some(_) => UnrollVector::ones(p.unroll.len() + 1),
        None => UnrollVector(p.unroll.clone()),
    }
}

/// The Figure-2 saturation point as a joint coordinate (unroll at
/// `u_init`, identity order, untiled, flags off), when it is a member of
/// the joint space — the guided strategies' starting incumbent.
fn joint_seed(info: &SaturationInfo, space: &DesignSpace) -> Option<JointPoint> {
    let factors = info.u_init.factors();
    let candidate = JointPoint {
        unroll: factors.to_vec(),
        permutation: (0..factors.len()).collect(),
        tile: None,
        narrow: false,
        pack: false,
    };
    space.contains_joint(&candidate).then_some(candidate)
}

/// Tier-0 bands of one sibling group, one per point: a single census
/// priced under each sibling's flags.
fn group_bands(model: &JointAnalyticModel, group: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
    let first = &group[0];
    #[cfg(test)]
    tests::CENSUSES.with(|n| n.set(n.get() + 1));
    let flags: Vec<(bool, bool)> = group.iter().map(|p| (p.narrow, p.pack)).collect();
    model.bands(&first.permutation, first.tile, &joint_unroll(first), &flags)
}

/// The estimation plans one guided search shares between siblings it
/// evaluates at different times. Each sibling group's entry counts its
/// open siblings, those neither evaluated nor pruned yet, and keeps the
/// group's plan only while some stay open; the memo is dropped with the
/// search.
#[derive(Debug)]
struct DesignMemo {
    groups: Mutex<HashMap<JointPoint, MemoEntry>>,
}

/// One sibling group's [`DesignMemo`] entry.
#[derive(Debug)]
struct MemoEntry {
    open: usize,
    /// Some sibling of the group narrows, so its plan must too.
    narrow: bool,
    plan: Option<Arc<EstimatePlan>>,
}

impl DesignMemo {
    /// A memo over `points`, every sibling open and no plan held.
    fn new(points: &[JointPoint]) -> DesignMemo {
        let groups = sibling_groups(points)
            .map(|g| {
                let entry = MemoEntry {
                    open: g.len(),
                    narrow: g.iter().any(|p| p.narrow),
                    plan: None,
                };
                (group_key(&g[0]), entry)
            })
            .collect();
        DesignMemo {
            groups: Mutex::new(groups),
        }
    }

    /// The held plan of `p`'s group, and whether a fresh one must narrow.
    fn get(&self, p: &JointPoint) -> (Option<Arc<EstimatePlan>>, bool) {
        let groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
        match groups.get(&group_key(p)) {
            Some(entry) => (entry.plan.clone(), entry.narrow),
            None => (None, p.narrow),
        }
    }

    /// Close `n` siblings of `p`'s group, holding `plan` (when given)
    /// while any sibling stays open and dropping it once none does.
    fn settle(&self, p: &JointPoint, n: usize, plan: Option<Arc<EstimatePlan>>) {
        let mut groups = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = groups.get_mut(&group_key(p)) {
            entry.open = entry.open.saturating_sub(n);
            if entry.open == 0 {
                entry.plan = None;
            } else if plan.is_some() {
                entry.plan = plan;
            }
        }
    }
}

/// The representative of `p`'s sibling group: `p` with its flags off.
fn group_key(p: &JointPoint) -> JointPoint {
    JointPoint {
        narrow: false,
        pack: false,
        ..p.clone()
    }
}

/// The explorer-backed [`StrategyContext`]: tier-1 batches fan out
/// across the engine's workers (order-preserving, so the strategy's
/// serial commit order — and the trace — is identical at any worker
/// count), tier-0 bands come from the joint model family, and records
/// go to the trace sink.
struct ExplorerStrategyCx<'a, 'k> {
    ex: &'a Explorer<'k>,
    memo: DesignMemo,
    points: Vec<JointPoint>,
    seed: Option<JointPoint>,
    model: Option<Arc<JointAnalyticModel>>,
    /// Bands actually priced (a `Some` per point), for `tier0_evaluated`.
    bands_priced: Cell<u64>,
}

impl StrategyContext for ExplorerStrategyCx<'_, '_> {
    fn points(&self) -> &[JointPoint] {
        &self.points
    }

    fn seed(&self) -> Option<JointPoint> {
        self.seed.clone()
    }

    fn evaluate_batch(&self, points: &[JointPoint]) -> Result<Vec<EvaluatedJointDesign>> {
        self.ex.evaluate_joint_points(points, Some(&self.memo))
    }

    fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
        let Some(model) = &self.model else {
            return vec![None; points.len()];
        };
        let groups: Vec<&[JointPoint]> = sibling_groups(points).collect();
        let bands: Vec<Option<AnalyticBand>> = self
            .ex
            .engine
            .parallel_map(&groups, |g| Ok(group_bands(model, g)))
            .into_iter()
            .flat_map(|r| r.unwrap_or_default())
            .collect();
        self.bands_priced
            .set(self.bands_priced.get() + bands.iter().flatten().count() as u64);
        bands
    }

    fn record_step(&self, design: &EvaluatedJointDesign, incumbent: Option<u64>) {
        if self.ex.sink.enabled() {
            self.ex.sink.record(&TraceEvent::StrategyStep {
                point: design.point.clone(),
                cycles: design.estimate.cycles,
                slices: design.estimate.slices,
                fits: design.estimate.fits,
                incumbent,
            });
        }
    }

    fn record_prune(&self, point: &JointPoint, band: &AnalyticBand, threshold: Option<u64>) {
        self.memo.settle(point, 1, None);
        if self.ex.sink.enabled() {
            self.ex.sink.record(&TraceEvent::BoundPrune {
                point: point.clone(),
                cycles_lo: band.cycles_lo,
                slices_lo: band.slices_lo,
                threshold,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;
    use defacto_synth::{estimator_work, EstimatorWork};

    thread_local! {
        /// Sibling-group censuses this thread ran.
        pub(super) static CENSUSES: Cell<u64> = const { Cell::new(0) };
    }

    /// `f`'s result with the estimator work and the censuses it ran on
    /// this thread (all of them, at one worker).
    fn layer_calls<T>(f: impl FnOnce() -> T) -> (T, EstimatorWork, u64) {
        let (work, censuses) = (estimator_work(), CENSUSES.with(Cell::get));
        let out = f();
        let work = estimator_work().since(&work);
        (out, work, CENSUSES.with(Cell::get) - censuses)
    }

    fn work(
        plans: u64,
        range_inferences: u64,
        full_schedules: u64,
        allocation_schedules: u64,
    ) -> EstimatorWork {
        EstimatorWork {
            plans,
            range_inferences,
            full_schedules,
            allocation_schedules,
        }
    }

    /// SOBEL offers both flags, so its 320 joint points are 80 sibling
    /// groups of four. Each group is censused once, or transformed and
    /// planned once with one range inference; every segment's narrowed
    /// views keep their operator latencies, so they reuse the wide
    /// schedules and only reallocate operators.
    #[test]
    fn sobel_siblings_share_one_transform_and_one_census() {
        let k = defacto_kernels::sobel::kernel();
        let ex = || Explorer::new(&k).axes(&Axis::ALL).threads(1);
        let (sweep, done, censuses) = layer_calls(|| ex().joint_sweep().unwrap());
        assert_eq!(sweep.len(), 320);
        assert_eq!((done, censuses), (work(80, 80, 296, 296), 0));

        let (guided, done, censuses) =
            layer_calls(|| ex().joint_explore(StrategyKind::BranchAndBound).unwrap());
        assert_eq!(guided.evaluated.len(), 57);
        // One census per group; the search's memo lets siblings evaluated
        // at different steps share a plan.
        assert_eq!((done.plans, censuses), (25, 80));
        let truth = crate::exhaustive::best_joint_performance(&sweep);
        assert_eq!(guided.selected.as_ref(), truth);

        let (analytic, done, censuses) =
            layer_calls(|| ex().fidelity(Fidelity::Analytic).joint_sweep().unwrap());
        assert!(analytic.iter().all(|d| d.estimate.provenance.segments == 0));
        assert_eq!((done, censuses), (EstimatorWork::default(), 80));
    }

    /// Without flag axes every group is one point: one plan per estimate,
    /// and no range inference.
    #[test]
    fn flagless_kernels_plan_once_per_estimate() {
        for k in [
            defacto_kernels::fir::kernel(),
            defacto_kernels::matmul::kernel(),
        ] {
            let ex = Explorer::new(&k).axes(&Axis::ALL).threads(1);
            let (sweep, done, _) = layer_calls(|| ex.joint_sweep().unwrap());
            assert_eq!(done.plans, sweep.len() as u64, "{}", k.name());
            assert_eq!(done.range_inferences, 0, "{}", k.name());
            assert_eq!(done.allocation_schedules, 0, "{}", k.name());
        }
    }

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn an_imperfect_nest_returns_its_preparation_error_everywhere() {
        let k = parse_kernel(
            "kernel sib { in A: i32[8]; out B: i32[8]; out C: i32[8];
               for i in 0..8 { B[i] = A[i] + 1; }
               for j in 0..8 { C[j] = A[j] * 2; } }",
        )
        .unwrap();
        use defacto_xform::XformError;
        let nest = crate::DseError::Xform(XformError::NotPerfectNest);
        assert_eq!(
            VariantCache::new(&k).unwrap_err(),
            XformError::NotPerfectNest
        );
        for fidelity in [Fidelity::Full, Fidelity::Analytic] {
            let ex = Explorer::new(&k).axes(&Axis::ALL).fidelity(fidelity);
            assert_eq!(ex.analyze().unwrap_err(), nest);
            assert_eq!(ex.design(&UnrollVector(vec![1])).unwrap_err(), nest);
            assert_eq!(ex.evaluate(&UnrollVector(vec![1])).unwrap_err(), nest);
            assert_eq!(ex.joint_space().unwrap_err(), nest);
            assert_eq!(ex.explore().unwrap_err(), nest);
            assert_eq!(ex.sweep().unwrap_err(), nest);
            assert_eq!(ex.joint_sweep().unwrap_err(), nest);
            for kind in [
                StrategyKind::Exhaustive,
                StrategyKind::CoordinateDescent,
                StrategyKind::BranchAndBound,
            ] {
                assert_eq!(ex.joint_explore(kind).unwrap_err(), nest);
            }
            assert!(ex.prepared_arc().is_none());
        }
    }

    #[test]
    fn evaluate_baseline() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k);
        let d = ex.evaluate(&UnrollVector(vec![1, 1])).unwrap();
        assert!(d.estimate.cycles > 0);
        assert!(d.estimate.fits);
    }

    #[test]
    fn explore_fir_pipelined_selects_fast_small_design() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k);
        let result = ex.explore().unwrap();
        let base = ex.evaluate(&UnrollVector(vec![1, 1])).unwrap();
        // The selected design is substantially faster than the baseline.
        let speedup = base.estimate.cycles as f64 / result.selected.estimate.cycles as f64;
        assert!(speedup > 2.0, "speedup {speedup}");
        assert!(result.selected.estimate.fits);
        // Only a fraction of the 42-point space is visited.
        assert!(
            result.visited.len() < 12,
            "visited {}",
            result.visited.len()
        );
    }

    #[test]
    fn explore_is_deterministic() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k);
        let a = ex.explore().unwrap();
        let b = ex.explore().unwrap();
        assert_eq!(a.selected.unroll, b.selected.unroll);
        assert_eq!(a.visited.len(), b.visited.len());
    }

    #[test]
    fn non_pipelined_fir_is_memory_bound_at_init() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).memory(MemoryModel::wildstar_non_pipelined());
        let r = ex.explore().unwrap();
        // The paper: without pipelining, FIR designs are always memory
        // bound; the search stops at (or near) the saturation point.
        assert!(r.selected.estimate.balance < 1.0 + 0.10);
    }

    #[test]
    fn unroll_only_joint_sweep_matches_the_classic_sweep() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k);
        let classic = ex.sweep().unwrap();
        // Axes unset defaults to unroll only.
        let joint = ex.joint_sweep().unwrap();
        assert_eq!(joint.len(), classic.len());
        for (j, c) in joint.iter().zip(&classic) {
            assert!(j.point.is_unroll_only());
            assert_eq!(j.point.unroll_vector(), c.unroll);
            assert_eq!(j.estimate, c.estimate, "at {}", c.unroll);
        }
        // The winners agree bit for bit.
        let best_joint = crate::exhaustive::best_joint_performance(&joint).unwrap();
        let best_classic = crate::exhaustive::best_performance(&classic).unwrap();
        assert_eq!(best_joint.point.unroll_vector(), best_classic.unroll);
        assert_eq!(best_joint.estimate, best_classic.estimate);
    }

    #[test]
    fn all_axes_joint_sweep_traces_and_audits_clean() {
        let k = parse_kernel(FIR).unwrap();
        let sink = Arc::new(crate::trace::MemorySink::new());
        let ex = Explorer::new(&k).axes(&Axis::ALL).trace(sink.clone());
        let space = ex.joint_space().unwrap();
        let sweep = ex.joint_sweep().unwrap();
        assert_eq!(sweep.len() as u64, space.joint_size());
        // FIR: both orders legal, tiles on both levels, no flag axes.
        assert!(sweep.iter().any(|d| !d.point.identity_permutation()));
        assert!(sweep.iter().any(|d| d.point.tile.is_some()));
        // Every point transformed and estimated: that *is* the
        // membership-soundness contract, certified by the auditor.
        let report = crate::audit::audit_joint_trace(&sink.events(), &space);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn branch_and_bound_joint_explore_matches_exhaustive_with_fewer_evals() {
        let k = parse_kernel(FIR).unwrap();
        let sink = Arc::new(crate::trace::MemorySink::new());
        let ex = Explorer::new(&k).axes(&Axis::ALL).trace(sink.clone());
        let sweep = ex.joint_sweep().unwrap();
        let exhaustive_best = crate::exhaustive::best_joint_performance(&sweep).unwrap();
        let r = ex.joint_explore(StrategyKind::BranchAndBound).unwrap();
        // Bit-identical selection...
        let selected = r.selected.as_ref().unwrap();
        assert_eq!(selected.point, exhaustive_best.point);
        assert_eq!(selected.estimate, exhaustive_best.estimate);
        // ...at a fraction of the tier-1 evaluations.
        assert_eq!(r.space_points as usize, sweep.len());
        assert_eq!(
            r.stats.strategy_visited + r.stats.bounded_pruned,
            r.space_points
        );
        // FIR alone measures ~4.7x; the >=5x headline is the paper-suite
        // aggregate, gated by `bench_joint --check` on BENCH_joint.json.
        assert!(
            r.stats.strategy_visited * 4 <= r.space_points,
            "visited {} of {}",
            r.stats.strategy_visited,
            r.space_points
        );
        assert_eq!(r.gap_cycles, Some(0));
        // The strategy trace certifies the run: incumbents monotone,
        // pruned subtrees exclude the winner.
        let space = ex.joint_space().unwrap();
        let report =
            crate::audit::audit_strategy_trace(&sink.events(), &space, Some(&selected.point));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn coordinate_descent_selection_is_within_its_reported_gap() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).axes(&Axis::ALL);
        let sweep = ex.joint_sweep().unwrap();
        let exhaustive_best = crate::exhaustive::best_joint_performance(&sweep).unwrap();
        let r = ex.joint_explore(StrategyKind::CoordinateDescent).unwrap();
        let selected = r.selected.as_ref().unwrap();
        assert!(selected.estimate.fits);
        let gap = r.gap_cycles.expect("CD reports a gap when a design fits");
        assert!(
            selected.estimate.cycles - exhaustive_best.estimate.cycles <= gap,
            "selected {} vs optimum {} exceeds reported gap {gap}",
            selected.estimate.cycles,
            exhaustive_best.estimate.cycles
        );
        assert!(r.stats.strategy_visited < r.space_points);
    }

    #[test]
    fn joint_explore_is_deterministic_across_worker_counts() {
        let k = parse_kernel(FIR).unwrap();
        for kind in [
            StrategyKind::BranchAndBound,
            StrategyKind::CoordinateDescent,
        ] {
            let serial = Explorer::new(&k)
                .axes(&Axis::ALL)
                .threads(1)
                .joint_explore(kind)
                .unwrap();
            let parallel = Explorer::new(&k)
                .axes(&Axis::ALL)
                .threads(8)
                .joint_explore(kind)
                .unwrap();
            assert_eq!(serial.selected, parallel.selected, "{kind}");
            assert_eq!(serial.evaluated, parallel.evaluated, "{kind}");
            assert_eq!(serial.pruned, parallel.pruned, "{kind}");
            assert_eq!(serial.gap_cycles, parallel.gap_cycles, "{kind}");
        }
    }

    #[test]
    fn exhaustive_joint_explore_matches_the_sweep() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).axes(&Axis::ALL);
        let sweep = ex.joint_sweep().unwrap();
        let r = ex.joint_explore(StrategyKind::Exhaustive).unwrap();
        assert_eq!(r.evaluated, sweep);
        assert_eq!(r.pruned, 0);
        assert_eq!(r.stats.strategy_visited, r.space_points);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn evaluated_design_serde_round_trips() {
        let k = parse_kernel(FIR).unwrap();
        let d = Explorer::new(&k)
            .evaluate(&UnrollVector(vec![2, 2]))
            .unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: EvaluatedDesign = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn simulate_runs_the_transformed_design() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k);
        let s: Vec<i64> = (0..96).map(|x| x % 13).collect();
        let c: Vec<i64> = (0..32).map(|x| x % 7).collect();
        let (ws, stats) = ex
            .simulate(
                &UnrollVector(vec![4, 2]),
                &[("S", s.clone()), ("C", c.clone())],
            )
            .unwrap();
        assert_eq!(
            ws.array("D").unwrap(),
            defacto_kernels::fir::reference(&s, &c).as_slice()
        );
        // Scalar replacement cut the traffic relative to 4 accesses per
        // original iteration.
        assert!(stats.memory_accesses() < 4 * 2048);
    }

    #[test]
    fn small_device_space_constrains() {
        let k = parse_kernel(FIR).unwrap();
        let tiny = FpgaDevice {
            name: "tiny".into(),
            capacity_slices: 2500,
            clock_ns: 40,
        };
        let ex = Explorer::new(&k).device(tiny.clone());
        let r = ex.explore().unwrap();
        assert!(r.selected.estimate.fits);
        assert!(r.selected.estimate.slices <= tiny.capacity_slices);
    }

    #[test]
    fn fidelity_labels_round_trip() {
        for f in [Fidelity::Full, Fidelity::Analytic] {
            assert_eq!(f.label().parse::<Fidelity>().unwrap(), f);
        }
        assert!("sideways".parse::<Fidelity>().is_err());
        // Tier-0 pruning is branch-and-bound's job, not a fidelity.
        let err = "multi".parse::<Fidelity>().unwrap_err();
        assert!(err.contains("expected full|analytic"), "{err}");
    }

    #[test]
    fn multi_sweep_selects_the_full_sweep_design() {
        // Pruned sweep-equivalent answers come from branch-and-bound over
        // the unroll-only joint space.
        let k = parse_kernel(FIR).unwrap();
        let (full, full_stats) = Explorer::new(&k).threads(1).sweep_with_stats().unwrap();
        let guided = Explorer::new(&k)
            .threads(1)
            .axes(&[Axis::Unroll])
            .joint_explore(StrategyKind::BranchAndBound)
            .unwrap();
        let fw = crate::exhaustive::best_performance(&full).unwrap();
        let gw = guided.selected.expect("a fitting design");
        assert_eq!(fw.unroll, UnrollVector(gw.point.unroll.clone()));
        // The winner paid tier 1, so its estimate is bit-identical to the
        // full sweep's.
        assert_eq!(fw.estimate, gw.estimate);
        assert_eq!(full_stats.tier0_evaluated, 0);
        assert_eq!(
            guided.stats.strategy_visited + guided.stats.bounded_pruned,
            42
        );
        assert!(
            guided.stats.bounded_pruned > 0,
            "expected the band to prune part of the FIR space"
        );
    }

    #[test]
    fn analytic_sweep_is_all_tier0() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).threads(1).fidelity(Fidelity::Analytic);
        let (sweep, stats) = ex.sweep_with_stats().unwrap();
        assert_eq!(sweep.len(), 42);
        // Synthetic estimates are recognizable by an empty schedule
        // provenance, and tier-0 work never touches the engine.
        assert!(sweep.iter().all(|d| d.estimate.provenance.segments == 0));
        assert_eq!(stats.evaluated, 0);
        assert_eq!(stats.tier0_evaluated, 42);
        assert_eq!(ex.engine_ref().cache().len(), 0);
    }

    #[test]
    fn multi_explore_matches_full_explore() {
        let k = parse_kernel(FIR).unwrap();
        let fig2 = Explorer::new(&k).explore().unwrap();
        let guided = Explorer::new(&k)
            .axes(&[Axis::Unroll])
            .joint_explore(StrategyKind::BranchAndBound)
            .unwrap()
            .selected
            .expect("a fitting design");
        assert_eq!(fig2.selected.unroll, UnrollVector(vec![8, 8]));
        assert_eq!(fig2.selected.estimate.cycles, 524);
        assert_eq!(fig2.selected.unroll, UnrollVector(guided.point.unroll));
        assert_eq!(fig2.selected.estimate, guided.estimate);
        // The Figure-2 search never touches tier 0 at full fidelity.
        assert_eq!(fig2.stats.tier0_evaluated, 0);
    }

    #[test]
    fn analytic_explore_runs_on_synthetic_estimates() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).fidelity(Fidelity::Analytic);
        let r = ex.explore().unwrap();
        assert_eq!(r.selected.estimate.provenance.segments, 0);
        assert!(r.stats.tier0_evaluated > 0);
        assert_eq!(r.stats.evaluated, 0);
        // Tier-0 search results stay out of the shared memo cache.
        assert_eq!(ex.engine_ref().cache().len(), 0);
    }

    #[test]
    fn a_failed_store_flush_is_counted_not_dropped() {
        let dir = std::env::temp_dir().join(format!("defacto-flush-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let k = parse_kernel(FIR).unwrap();
        let explore = || {
            let store = Arc::new(PersistentCache::open(&dir).unwrap());
            Explorer::new(&k)
                .threads(1)
                .persistent(store)
                .explore()
                .unwrap()
        };
        let healthy = explore();
        assert_eq!(healthy.stats.persist_flush_failed, 0);
        // A store opened over an empty directory that then turns into a
        // plain file: nothing can be written under it, whoever runs the
        // test.
        std::fs::remove_dir_all(&dir).unwrap();
        let store = Arc::new(PersistentCache::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, "not a directory").unwrap();
        let r = Explorer::new(&k)
            .threads(1)
            .persistent(store)
            .explore()
            .unwrap();
        std::fs::remove_file(&dir).ok();
        assert_eq!(r.stats.persist_flush_failed, 1);
        // The search itself is unaffected.
        assert_eq!(r.selected, healthy.selected);
    }

    /// A second sweep through the same explorer answers entirely from the
    /// memo cache: `evaluated == 0`, `cache_hits == points`, hit rate 1.
    /// (An exhaustive *cold* sweep legitimately reports a 0 hit rate —
    /// every point is distinct — which is what `bench_sweep`'s warm pass
    /// measures.)
    #[test]
    fn warm_resweep_hits_cache_for_every_point() {
        let k = parse_kernel(FIR).unwrap();
        let ex = Explorer::new(&k).threads(1);
        let (cold, cold_stats) = ex.sweep_with_stats().unwrap();
        assert_eq!(cold_stats.evaluated, 42);
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.cache_hit_rate(), 0.0);
        let (warm, warm_stats) = ex.sweep_with_stats().unwrap();
        assert_eq!(cold, warm);
        assert_eq!(warm_stats.evaluated, 0);
        assert_eq!(warm_stats.cache_hits, 42);
        assert_eq!(warm_stats.cache_hit_rate(), 1.0);
    }
}
