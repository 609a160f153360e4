//! The traced replay: the same answers as [`crate::answers`], rebuilt
//! from each layer's public functions so every call into a layer can be
//! timed from the benchmark's side.
//!
//! Each replay mirrors what the library's entry point does internally
//! (`Explorer::joint_explore`, `Explorer::joint_sweep`,
//! `IncrementalSession::explore`). The caller compares every replayed
//! answer bit for bit with the library's, so a library change the
//! replay no longer mirrors fails loudly instead of skewing the layer
//! numbers.

use crate::answers::{JointOutcome, WatchOutcome, Workload};
use crate::trace::{SpanId, Tracer};
use defacto::cache::{AnalysisSummary, ContextKey, PersistentCache, SelectionRecord};
use defacto::ir::{canonicalize, content_hash, parse_kernel, CanonicalKernel, Kernel};
use defacto::synth::{
    estimate_opts, AnalyticBand, AnalyticModel, FpgaDevice, JointModelKey, MemoryModel,
    SynthesisOptions,
};
use defacto::xform::{
    transform, PreparedKernel, TransformOptions, UnrollVector, VariantCache, VariantKey,
};
use defacto::{
    best_joint_performance, run_search_instrumented, saturation_analysis, strategy_for, Axis,
    CacheKey, EvalEngine, EvaluatedJointDesign, Explorer, JointPoint, NullSink, SearchConfig,
    StrategyContext, StrategyKind, VisitOutcome,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts the replay makes where the work happens, for the per-layer
/// ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub copy_hits: u64,
    pub copy_misses: u64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
    pub store_hits: u64,
    pub store_lookups: u64,
    pub points: u64,
    pub pruned: u64,
    pub bands_priced: u64,
    pub bands_declined: u64,
    pub flush_failed: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.copy_hits += o.copy_hits;
        self.copy_misses += o.copy_misses;
        self.memo_hits += o.memo_hits;
        self.memo_lookups += o.memo_lookups;
        self.store_hits += o.store_hits;
        self.store_lookups += o.store_lookups;
        self.points += o.points;
        self.pruned += o.pruned;
        self.bands_priced += o.bands_priced;
        self.bands_declined += o.bands_declined;
        self.flush_failed += o.flush_failed;
    }
}

/// The paper's platform, as every explorer in this benchmark uses it.
struct Platform {
    mem: MemoryModel,
    dev: FpgaDevice,
    topts: TransformOptions,
}

impl Platform {
    fn of(explorer: &Explorer) -> Platform {
        Platform {
            mem: MemoryModel::wildstar_pipelined(),
            dev: FpgaDevice::virtex1000(),
            topts: explorer.transform_options().clone(),
        }
    }

    /// Synthesis options of a joint point: its flags force narrowing or
    /// packing on, never off.
    fn synthesis(narrow: bool, pack: bool) -> SynthesisOptions {
        let mut s = SynthesisOptions::default();
        s.bitwidth_narrowing |= narrow;
        s.pack_small_types |= pack;
        s
    }
}

/// The unroll vector a joint point's variant is transformed at: a tiled
/// variant is one level deeper and enumerated at all-ones.
fn joint_unroll(p: &JointPoint) -> UnrollVector {
    match p.tile {
        Some(_) => UnrollVector::ones(p.unroll.len() + 1),
        None => UnrollVector(p.unroll.clone()),
    }
}

/// Replay one joint-space answer under span `root`.
pub fn joint(
    w: Workload,
    kernel: &Kernel,
    t: &Tracer,
    root: SpanId,
    c: &mut Counters,
) -> Result<JointOutcome, String> {
    let err = |e: defacto::DseError| e.to_string();
    let prepared = t
        .span(root, "xform.prepare", |_| PreparedKernel::prepare(kernel))
        .map_err(|e| e.to_string())?;
    let (explorer, space, seed) = t
        .span(root, "core.space", |_| {
            let ex = Explorer::new(kernel)
                .threads(w.workers())
                .axes(&Axis::ALL)
                .with_prepared(Arc::new(prepared));
            let space = ex.joint_space()?;
            // Only a strategy starts from the saturation seed.
            let mut seed = None;
            if w == Workload::Guided {
                let u_init = ex.analyze()?.0.u_init;
                let p = JointPoint {
                    unroll: u_init.factors().to_vec(),
                    permutation: (0..u_init.factors().len()).collect(),
                    tile: None,
                    narrow: false,
                    pack: false,
                };
                seed = space.contains_joint(&p).then_some(p);
            }
            Ok((ex, space, seed))
        })
        .map_err(err)?;
    let variants = t
        .span(root, "xform.variant", |_| VariantCache::new(kernel))
        .map_err(|e| e.to_string())?;
    let cx = JointCx {
        t,
        parent: AtomicU32::new(root),
        engine: explorer.engine_ref(),
        platform: Platform::of(&explorer),
        variants: &variants,
        models: Mutex::new(HashMap::new()),
        points: space.joint_points().to_vec(),
        seed,
        priced: AtomicU64::new(0),
        declined: AtomicU64::new(0),
    };
    let outcome = match w {
        Workload::Guided => {
            let g = t
                .span(root, "core.strategy", |id| {
                    cx.parent.store(id, Ordering::Relaxed);
                    strategy_for(StrategyKind::BranchAndBound).run(&cx)
                })
                .map_err(err)?;
            let selected = t.span(root, "core.strategy", |_| {
                best_joint_performance(&g.evaluated).cloned()
            });
            JointOutcome {
                selected,
                tier1: g.evaluated.len() as u64,
                designs: g.evaluated,
                pruned: g.pruned,
                points: space.joint_size(),
            }
        }
        Workload::Exhaustive => {
            let designs = cx.evaluate_all(root, &cx.points).map_err(err)?;
            t.span(root, "core.strategy", |_| JointOutcome::from_sweep(designs))
        }
        Workload::Analytic => {
            let designs = cx.tier0_sweep(root).map_err(err)?;
            t.span(root, "core.strategy", |_| JointOutcome::from_sweep(designs))
        }
        Workload::Watch => unreachable!("watch replays through WatchReplay"),
    };
    c.points += outcome.points;
    c.pruned += outcome.pruned;
    c.bands_priced += cx.priced.load(Ordering::Relaxed);
    c.bands_declined += cx.declined.load(Ordering::Relaxed);
    let mut keys: Vec<VariantKey> = outcome
        .designs
        .iter()
        .filter(|d| d.estimate.provenance.segments > 0)
        .map(|d| (d.point.permutation.clone(), d.point.tile))
        .collect();
    keys.sort();
    keys.dedup();
    for (perm, tile) in keys {
        if let Some(p) = variants
            .get(&perm, tile)
            .ok()
            .and_then(|v| v.prepared.clone())
        {
            let (hits, misses) = p.copy_cache_stats();
            c.copy_hits += hits;
            c.copy_misses += misses;
        }
    }
    // The library frees the same when its explorer goes out of scope.
    t.free(root, "synth.model", cx);
    t.free(root, "xform.variant", variants);
    t.free(root, "core.space", (explorer, space));
    Ok(outcome)
}

/// The benchmark-side [`StrategyContext`]: what the explorer's own
/// context does, with a span around every layer call.
struct JointCx<'a> {
    t: &'a Tracer,
    /// The span strategy callbacks are children of.
    parent: AtomicU32,
    engine: &'a EvalEngine,
    platform: Platform,
    variants: &'a VariantCache,
    models: Mutex<HashMap<JointModelKey, Option<Arc<AnalyticModel>>>>,
    points: Vec<JointPoint>,
    seed: Option<JointPoint>,
    priced: AtomicU64,
    declined: AtomicU64,
}

impl JointCx<'_> {
    /// Tier-1 estimate of one joint point.
    fn evaluate(&self, parent: SpanId, p: &JointPoint) -> defacto::Result<EvaluatedJointDesign> {
        let t = self.t;
        let unroll = joint_unroll(p);
        let variant = t.span(parent, "xform.variant", |_| {
            self.variants.get(&p.permutation, p.tile)
        })?;
        let design = t.span(parent, "xform.transform", |_| match &variant.prepared {
            Some(prepared) => prepared.transform(&unroll, &self.platform.topts),
            None => transform(&variant.kernel, &unroll, &self.platform.topts),
        })?;
        let synthesis = Platform::synthesis(p.narrow, p.pack);
        let estimate = t.span(parent, "synth.estimate", |_| {
            estimate_opts(&design, &self.platform.mem, &self.platform.dev, &synthesis)
        });
        t.free(parent, "xform.transform", design);
        Ok(EvaluatedJointDesign {
            point: p.clone(),
            estimate,
        })
    }

    fn evaluate_all(
        &self,
        parent: SpanId,
        points: &[JointPoint],
    ) -> defacto::Result<Vec<EvaluatedJointDesign>> {
        let workers = self.engine.threads().min(points.len()).max(1);
        self.t.parallel(parent, "core.engine", workers, |engine| {
            self.engine
                .parallel_map(points, |p| self.evaluate(engine, p))
                .into_iter()
                .collect()
        })
    }

    /// The tier-0 model of a point's variant and flags, built on first
    /// use; `None` when the variant does not prepare.
    fn member(&self, parent: SpanId, p: &JointPoint) -> Option<Arc<AnalyticModel>> {
        let key: JointModelKey = (p.permutation.clone(), p.tile, p.narrow, p.pack);
        if let Some(m) = self.models.lock().expect("model map poisoned").get(&key) {
            return m.clone();
        }
        let prepared = self
            .t
            .span(parent, "xform.variant", |_| {
                self.variants.get(&p.permutation, p.tile)
            })
            .ok()
            .and_then(|v| v.prepared.clone());
        let built = prepared.and_then(|prepared| {
            self.t.span(parent, "synth.model", |_| {
                AnalyticModel::new(
                    prepared,
                    self.platform.mem.clone(),
                    self.platform.dev.clone(),
                    self.platform.topts.clone(),
                    Platform::synthesis(p.narrow, p.pack),
                )
                .map(Arc::new)
            })
        });
        let mut models = self.models.lock().expect("model map poisoned");
        models.entry(key).or_insert(built).clone()
    }

    /// The tier-0 band of one point, with the model that priced it.
    fn band(&self, parent: SpanId, p: &JointPoint) -> Option<(Arc<AnalyticModel>, AnalyticBand)> {
        let priced = self.member(parent, p).and_then(|model| {
            let unroll = joint_unroll(p);
            let census = self
                .t
                .span(parent, "xform.census", |_| {
                    model.prepared().census(&unroll, &self.platform.topts)
                })
                .ok()?;
            let band = self.t.span(parent, "synth.price", |_| model.price(&census));
            self.t.free(parent, "xform.census", census);
            Some((model, band))
        });
        let counter = if priced.is_some() {
            &self.priced
        } else {
            &self.declined
        };
        counter.fetch_add(1, Ordering::Relaxed);
        priced
    }

    /// Every point at tier 0, falling back to tier 1 where no band
    /// prices it.
    fn tier0_sweep(&self, parent: SpanId) -> defacto::Result<Vec<EvaluatedJointDesign>> {
        self.t.parallel(parent, "core.engine", 1, |engine| {
            self.engine
                .parallel_map(&self.points, |p| match self.band(engine, p) {
                    Some((model, band)) => Ok(EvaluatedJointDesign {
                        point: p.clone(),
                        estimate: self
                            .t
                            .span(engine, "synth.price", |_| model.synthetic_estimate(&band)),
                    }),
                    None => self.evaluate(engine, p),
                })
                .into_iter()
                .collect()
        })
    }
}

impl StrategyContext for JointCx<'_> {
    fn points(&self) -> &[JointPoint] {
        &self.points
    }

    fn seed(&self) -> Option<JointPoint> {
        self.seed.clone()
    }

    fn evaluate_batch(&self, points: &[JointPoint]) -> defacto::Result<Vec<EvaluatedJointDesign>> {
        self.evaluate_all(self.parent.load(Ordering::Relaxed), points)
    }

    fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
        let parent = self.parent.load(Ordering::Relaxed);
        let workers = self.engine.threads().min(points.len()).max(1);
        self.t.parallel(parent, "core.engine", workers, |engine| {
            self.engine
                .parallel_map(points, |p| Ok(self.band(engine, p).map(|(_, b)| b)))
                .into_iter()
                .map(|r| r.unwrap_or(None))
                .collect()
        })
    }

    fn record_step(&self, _: &EvaluatedJointDesign, _: Option<u64>) {}

    fn record_prune(&self, _: &JointPoint, _: &AnalyticBand, _: Option<u64>) {}
}

/// The replay of one `watch` session: what `IncrementalSession::explore`
/// keeps between revisions, plus its own store.
pub struct WatchReplay {
    engine: EvalEngine,
    store: PersistentCache,
    /// The platform half of the store key, identical for every kernel.
    persist_context: u64,
    platform: Platform,
    previous: Option<(CanonicalKernel, Option<Arc<PreparedKernel>>)>,
}

impl WatchReplay {
    pub fn open(dir: &Path, any_kernel: &Kernel) -> Result<WatchReplay, String> {
        let explorer = Explorer::new(any_kernel);
        Ok(WatchReplay {
            engine: EvalEngine::new(1),
            store: PersistentCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?,
            persist_context: explorer.persist_key().context,
            platform: Platform::of(&explorer),
            previous: None,
        })
    }

    /// Replay one revision under span `root`.
    pub fn answer(
        &mut self,
        text: &str,
        t: &Tracer,
        root: SpanId,
        c: &mut Counters,
    ) -> Result<WatchOutcome, String> {
        let k = t
            .span(root, "ir.parse", |_| parse_kernel(text))
            .map_err(|e| e.to_string())?;
        let canonical = t.span(root, "ir.canon", |_| canonicalize(&k));
        if let Some((prev, _)) = &self.previous {
            t.span(root, "ir.canon", |_| drop(canonical.changed_subtrees(prev)));
        }
        let reused = match self.previous.as_ref().and_then(|(_, p)| p.clone()) {
            Some(prev) => t.span(root, "xform.prepare", |_| {
                PreparedKernel::prepare_reusing(&k, &prev).ok()
            }),
            None => None,
        };
        let prepared = match reused {
            Some(p) => Some(p),
            None => t.span(root, "xform.prepare", |_| PreparedKernel::prepare(&k).ok()),
        }
        .map(Arc::new);
        let key = ContextKey {
            kernel: t.span(root, "ir.canon", |_| content_hash(&k)),
            context: self.persist_context,
        };
        t.span(root, "cache.lookup", |_| {
            drop((self.store.selection(key), self.store.estimates_for(key)))
        });
        let (sat, space) = t
            .span(root, "core.space", |_| {
                saturation_analysis(&k, &self.platform.topts, None)
            })
            .map_err(|e| e.to_string())?;
        let memo_context = t.span(root, "core.memo", |_| {
            let mut h = DefaultHasher::new();
            k.to_string().hash(&mut h);
            h.finish()
        });
        let Platform { mem, dev, topts } = &self.platform;
        let synthesis = SynthesisOptions::default();
        let mut evaluated = 0u64;
        let result = t
            .span(root, "core.search", |search| {
                run_search_instrumented(
                    &space,
                    &sat,
                    &SearchConfig::default(),
                    |u| {
                        let memo_key = CacheKey {
                            unroll: u.clone(),
                            context: memo_context,
                        };
                        c.memo_lookups += 1;
                        if let Some(e) =
                            t.span(search, "core.memo", |_| self.engine.cache().get(&memo_key))
                        {
                            c.memo_hits += 1;
                            return Ok(VisitOutcome {
                                estimate: e,
                                cache_hit: true,
                            });
                        }
                        c.store_lookups += 1;
                        if let Some(e) = t.span(search, "cache.lookup", |_| {
                            self.store.lookup_estimate(key, u.factors())
                        }) {
                            c.store_hits += 1;
                            t.span(search, "core.memo", |_| {
                                self.engine.cache().insert(memo_key, e.clone())
                            });
                            return Ok(VisitOutcome {
                                estimate: e,
                                cache_hit: true,
                            });
                        }
                        let design = t.span(search, "xform.transform", |_| match &prepared {
                            Some(p) => p.transform(u, topts),
                            None => transform(&k, u, topts),
                        })?;
                        let e = t.span(search, "synth.estimate", |_| {
                            estimate_opts(&design, mem, dev, &synthesis)
                        });
                        t.free(search, "xform.transform", design);
                        evaluated += 1;
                        t.span(search, "core.memo", |_| {
                            self.engine.cache().insert(memo_key, e.clone())
                        });
                        t.span(search, "cache.insert", |_| {
                            self.store.insert_estimate(key, u.factors(), &e)
                        });
                        Ok(VisitOutcome {
                            estimate: e,
                            cache_hit: false,
                        })
                    },
                    &NullSink,
                )
            })
            .map_err(|e| e.to_string())?;
        t.span(root, "cache.insert", |_| {
            self.store.record_selection(
                key,
                &SelectionRecord {
                    unroll: result.selected.unroll.factors().to_vec(),
                    termination: defacto::trace::termination_label(result.termination).to_string(),
                    visited: result.visited.len() as u64,
                    space: result.space_size,
                },
            )
        });
        if let Some(p) = &prepared {
            let canonical = t.span(root, "ir.canon", |_| canonicalize(&k));
            if let Some(innermost) = canonical.subtree("innermost") {
                t.span(root, "cache.insert", |_| {
                    let sets = p.base_sets();
                    let summary = AnalysisSummary {
                        depth: p.depth(),
                        accesses: sets.iter().map(|s| s.members.len()).sum(),
                        read_sets: sets.iter().filter(|s| !s.is_write).count(),
                        write_sets: sets.iter().filter(|s| s.is_write).count(),
                        carried: p.carried_scalars().len(),
                    };
                    self.store.record_analysis(key.kernel, innermost, &summary)
                });
            }
            t.free(root, "ir.canon", canonical);
            let (hits, misses) = p.copy_cache_stats();
            c.copy_hits += hits;
            c.copy_misses += misses;
        }
        if t.span(root, "cache.flush", |_| self.store.flush()).is_err() {
            c.flush_failed += 1;
        }
        let older = self.previous.replace((canonical, prepared));
        t.free(root, "xform.prepare", older);
        t.free(root, "core.space", (sat, space));
        t.free(root, "ir.parse", k);
        let outcome = WatchOutcome {
            selected: result.selected,
            visited: result.visited,
            evaluated,
        };
        t.free(root, "core.search", result.saturation);
        Ok(outcome)
    }
}
