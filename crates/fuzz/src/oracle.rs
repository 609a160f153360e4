//! The six-way differential oracle.
//!
//! One *case* is a generated kernel source run against one device/memory
//! profile. The oracle classifies it as:
//!
//! - **Rejected** — the toolchain refused it with a *typed* diagnostic
//!   (parse error, lint error, capacity infeasibility, non-perfect nest,
//!   typed transform failure). Rejection is a correct outcome for the
//!   grammar's degenerate injections; the campaign counts stages.
//! - **Passed** — every oracle dimension held.
//! - **Violation** — a real bug: a semantics divergence between the
//!   interpreter on the original kernel and on the fully transformed
//!   design, a per-pass IR-verifier failure, a full-sweep vs. pruned
//!   branch-and-bound disagreement or analytic band that excludes the
//!   exact estimate, a
//!   dirty or nondeterministic search trace, a canonicalization break
//!   (an alpha-renamed variant hashing differently, or a warm persistent
//!   cache changing the selection), a legality break (a statically-legal
//!   joint-space point failing to transform, a transformed legal point
//!   changing semantics, or a provably-illegal transform being accepted),
//!   a value the interpreter writes outside its inferred range or wider
//!   than its narrowed width — or a panic anywhere, which is *always* a
//!   violation (crashes are never an acceptable answer to malformed
//!   input).

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use defacto::cache::PersistentCache;
use defacto::exhaustive::{best_joint_performance, best_performance};
use defacto::{
    audit_search_trace, strategy_for, to_jsonl, DseError, EvaluatedJointDesign, Explorer,
    JointPoint, MemorySink, StrategyContext, StrategyKind,
};
use defacto_analysis::{infer_ranges, narrowed_bits, Interval};
use defacto_ir::{
    canonicalize, parse_kernel, run_with_inputs, ArrayKind, Interpreter, Kernel, Workspace, Written,
};
use defacto_synth::{
    estimate_opts, AnalyticBand, AnalyticModel, EstimatePlan, FpgaDevice, ListPriority,
    MemoryModel, SynthesisOptions,
};
use defacto_xform::{PreparedKernel, UnrollVector, XformError};

use crate::rng::SplitMix64;

/// Which oracle dimension a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Interpreter disagreement between original and transformed kernels.
    Semantics,
    /// The IR verifier flagged a pipeline stage's output.
    Verify,
    /// The full sweep and tier-0-pruned branch-and-bound over the same
    /// unroll-only space disagree, or a tier-0 band fails to contain the
    /// exact tier-1 estimate.
    Fidelity,
    /// A search trace failed its audit or differed across worker counts.
    Audit,
    /// Canonicalization broke content addressing: an alpha-renamed,
    /// declaration-reordered variant hashed differently, or a warm
    /// persistent cache changed what the search selects.
    Canon,
    /// The `LegalitySummary` lied: a statically-legal joint-space point
    /// failed to transform (or changed semantics), or a provably-illegal
    /// permutation/tile was accepted instead of rejected with a typed
    /// error.
    Legality,
    /// A guided search strategy broke its contract: branch-and-bound
    /// selected a different design than the exhaustive joint sweep,
    /// coordinate descent landed outside its reported optimality gap, or
    /// the explorer's sibling-grouped evaluation disagreed with a
    /// per-point reference.
    Strategy,
    /// Range inference was unsound: the interpreter wrote a value outside
    /// the interval [`infer_ranges`] gives its scalar, register, loop
    /// variable or array, or one wider than the width narrowing gives it.
    Ranges,
    /// A panic escaped a compiler pass — the catch-all robustness oracle.
    Crash,
}

impl Oracle {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Semantics => "semantics",
            Oracle::Verify => "verify",
            Oracle::Fidelity => "fidelity",
            Oracle::Audit => "audit",
            Oracle::Canon => "canon",
            Oracle::Legality => "legality",
            Oracle::Strategy => "strategy",
            Oracle::Ranges => "ranges",
            Oracle::Crash => "crash",
        }
    }
}

/// One confirmed oracle violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The oracle dimension that tripped.
    pub oracle: Oracle,
    /// Where in the pipeline it tripped (e.g. `design@[2,1]`, `audit@8`).
    pub stage: String,
    /// Human-readable evidence.
    pub detail: String,
}

/// Outcome of one kernel × profile case.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The toolchain refused the input with a typed diagnostic.
    Rejected {
        /// Which gate refused it: `parse`, `lint`, `interp`, `capacity`,
        /// `structure` or `transform`.
        stage: &'static str,
        /// The diagnostic text.
        detail: String,
    },
    /// All oracle dimensions held; `checks` individual assertions ran.
    Passed {
        /// Number of oracle assertions that held.
        checks: u64,
    },
    /// A bug.
    Violation(Violation),
}

/// A device/memory pairing the campaign sweeps.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Report label, e.g. `wildstar-pipelined/xcv1000`.
    pub name: &'static str,
    /// External memory model.
    pub memory: MemoryModel,
    /// Target FPGA.
    pub device: FpgaDevice,
}

impl Profile {
    /// The two profiles every campaign runs: the paper's pipelined
    /// WildStar/XCV1000 platform and a non-pipelined XCV300 to stress
    /// capacity- and memory-bound paths.
    pub fn standard() -> Vec<Profile> {
        vec![
            Profile {
                name: "wildstar-pipelined/xcv1000",
                memory: MemoryModel::wildstar_pipelined(),
                device: FpgaDevice::virtex1000(),
            },
            Profile {
                name: "wildstar-nonpipelined/xcv300",
                memory: MemoryModel::wildstar_non_pipelined(),
                device: FpgaDevice::virtex300(),
            },
        ]
    }
}

/// Knobs for one oracle run.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// How many design points get the per-point oracles (semantics,
    /// verify, band containment).
    pub max_points: usize,
    /// Worker counts for the trace-audit oracle.
    pub workers: Vec<usize>,
    /// Joint spaces up to this many points get the guided-strategy
    /// oracle (the exhaustive ground truth is the cost being bounded;
    /// `0` disables it).
    pub max_strategy_points: usize,
    /// Seed for input data and point sampling.
    pub input_seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_points: 3,
            workers: vec![1, 8],
            max_strategy_points: 24,
            input_seed: 0xDEFAC7,
        }
    }
}

/// Run all six oracles on one kernel source under one profile.
pub fn check_case(source: &str, profile: &Profile, cfg: &OracleConfig) -> CaseOutcome {
    match check_case_inner(source, profile, cfg) {
        Ok(outcome) => outcome,
        Err(v) => CaseOutcome::Violation(v),
    }
}

/// `Err` carries crash violations from the panic guard; typed failures
/// become `Ok(Rejected)` or `Ok(Violation)` depending on the oracle.
fn check_case_inner(
    source: &str,
    profile: &Profile,
    cfg: &OracleConfig,
) -> Result<CaseOutcome, Violation> {
    let mut checks: u64 = 0;

    // Gate 0: parse. A typed error is a rejection; a panic is a bug.
    let kernel = match guarded("parse", || parse_kernel(source))? {
        Ok(k) => k,
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "parse",
                detail: e.to_string(),
            })
        }
    };

    // Robustness probe: whatever the linter thinks, the interpreter must
    // not panic on a kernel the parser accepted. Runs before the lint
    // gate so degenerate-but-parseable kernels exercise it too.
    let inputs = input_arrays(&kernel, cfg.input_seed);
    let input_refs: Vec<(&str, Vec<i64>)> = inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let baseline = guarded("interp-original", || run_observed(&kernel, &input_refs))?;
    checks += 1;

    // Gate 1: lint (front-end legality, DF001–DF010).
    let lint = guarded("lint", || defacto::lint_source(source))?;
    if lint.has_errors() {
        let codes: Vec<&str> = lint
            .diagnostics
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code)
            .collect();
        return Ok(CaseOutcome::Rejected {
            stage: "lint",
            detail: codes.join(","),
        });
    }
    let (base_ws, base_written) = match baseline {
        Ok(r) => r,
        Err(e) => {
            // Lint-clean yet not executable (e.g. a data-dependent
            // out-of-bounds access DF005's constant analysis cannot see).
            return Ok(CaseOutcome::Rejected {
                stage: "interp",
                detail: e.to_string(),
            });
        }
    };

    // Gate 2: capacity on this profile (DF009), then structure.
    let explorer = Explorer::new(&kernel)
        .memory(profile.memory.clone())
        .device(profile.device.clone())
        .verify_each_pass(true);
    let capacity = guarded("capacity", || explorer.capacity_diagnostics())?;
    if capacity.iter().any(|d| d.is_error()) {
        return Ok(CaseOutcome::Rejected {
            stage: "capacity",
            detail: capacity
                .iter()
                .filter(|d| d.is_error())
                .map(|d| d.code)
                .collect::<Vec<_>>()
                .join(","),
        });
    }
    let (sat, space) = match guarded("analyze", || explorer.analyze())? {
        Ok(v) => v,
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "structure",
                detail: e.to_string(),
            })
        }
    };

    // Oracle 8 (ranges) on the original kernel, once it has passed the
    // gates every design it estimates passes: every value it writes, from
    // inputs inside their `range` annotations, lies in its inferred
    // interval and fits its narrowed width.
    if let Some(detail) = guarded("ranges-original", || range_miss(&kernel, &base_written))? {
        return Ok(CaseOutcome::Violation(Violation {
            oracle: Oracle::Ranges,
            stage: "ranges@original".to_string(),
            detail,
        }));
    }
    checks += 1;

    // Sample the per-point oracle set.
    let all: Vec<UnrollVector> = space.iter().take(4096).collect();
    if all.is_empty() {
        return Ok(CaseOutcome::Rejected {
            stage: "structure",
            detail: "empty design space".to_string(),
        });
    }
    let mut rng = SplitMix64::new(cfg.input_seed ^ 0xC0FF_EE00_5EED);
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    picked.insert(0); // always the baseline point
    while picked.len() < cfg.max_points.min(all.len()) {
        picked.insert(rng.below(all.len() as u64) as usize);
    }
    let points: Vec<&UnrollVector> = picked.iter().map(|&i| &all[i]).collect();

    // Oracles 1 + 2 per sampled point: transform with per-pass
    // verification on, then differential interpretation.
    for &u in &points {
        let stage = format!("design@{:?}", u.factors());
        let design = match guarded(&stage, || explorer.design(u))? {
            Ok(d) => d,
            Err(DseError::Xform(XformError::Verify { stage, diagnostics })) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Verify,
                    stage: format!("pass `{stage}` at {:?}", u.factors()),
                    detail: diagnostics
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("; "),
                }))
            }
            Err(e) => {
                return Ok(CaseOutcome::Rejected {
                    stage: "transform",
                    detail: e.to_string(),
                })
            }
        };
        checks += 1; // every pipeline pass verified clean

        let t_run = guarded(&format!("interp-transformed@{:?}", u.factors()), || {
            run_observed(&design.kernel, &input_refs)
        })?;
        let (t_ws, t_written) = match t_run {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Semantics,
                    stage: format!("transformed-exec@{:?}", u.factors()),
                    detail: format!("original runs but transformed design fails: {e}"),
                }))
            }
        };
        for a in kernel.arrays() {
            if a.kind == ArrayKind::In {
                continue;
            }
            let before = base_ws.array(&a.name);
            let after = t_ws.array(&a.name);
            if before != after {
                let at = first_mismatch(before, after);
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Semantics,
                    stage: format!("outputs@{:?}", u.factors()),
                    detail: format!("array `{}` diverges at flat index {at}", a.name),
                }));
            }
        }
        checks += 1;

        // Oracle 8 (ranges) on the transformed design.
        let stage = format!("ranges@{:?}", u.factors());
        if let Some(detail) = guarded(&stage, || range_miss(&design.kernel, &t_written))? {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Ranges,
                stage,
                detail,
            }));
        }
        checks += 1;
    }

    // Oracle 3a: branch-and-bound over the unroll-only joint space,
    // pruning with tier-0 bands, must select the full sweep's best bit
    // for bit.
    let full = match guarded("sweep-full", || explorer.sweep_with_stats())? {
        Ok((sweep, _)) => sweep,
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "transform",
                detail: format!("full sweep: {e}"),
            })
        }
    };
    let unroll_only = explorer.clone().axes(&[defacto::Axis::Unroll]);
    let pruned = match guarded("unroll-bnb", || {
        unroll_only.joint_explore(StrategyKind::BranchAndBound)
    })? {
        Ok(r) => r.selected,
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "transform",
                detail: format!("unroll-only branch-and-bound: {e}"),
            })
        }
    };
    match (best_performance(&full), &pruned) {
        (Some(f), Some(p)) if f.unroll.factors() == p.point.unroll && f.estimate == p.estimate => {
            checks += 1
        }
        (None, None) => {}
        (f, p) => {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Fidelity,
                stage: "full-vs-bnb".to_string(),
                detail: format!(
                    "full sweep selects {:?}, unroll-only branch-and-bound selects {:?}",
                    f.map(|d| d.unroll.factors().to_vec()),
                    p.as_ref().map(|d| &d.point.unroll),
                ),
            }))
        }
    }

    // Oracle 3b: the tier-0 analytic band must contain the exact tier-1
    // estimate at every sampled point, under both list priorities and
    // every narrowing/packing flag pair.
    let mut topts = explorer.transform_options().clone();
    topts.verify_each_pass = false;
    const PRIORITIES: [ListPriority; 2] = [ListPriority::Asap, ListPriority::Slack];
    const FLAGS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];
    let prepared = match guarded("prepare", || PreparedKernel::prepare(&kernel))? {
        Ok(p) => Arc::new(p),
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "transform",
                detail: format!("prepare: {e}"),
            })
        }
    };
    let configs: Vec<(ListPriority, (bool, bool))> = PRIORITIES
        .iter()
        .flat_map(|&priority| FLAGS.iter().map(move |&flags| (priority, flags)))
        .collect();
    let mut models = Vec::with_capacity(configs.len());
    for &(priority, (narrow, pack)) in &configs {
        let sopts = SynthesisOptions {
            bitwidth_narrowing: narrow,
            pack_small_types: pack,
            priority,
            ..SynthesisOptions::default()
        };
        let model = guarded("analytic-model", || {
            AnalyticModel::new(
                prepared.clone(),
                profile.memory.clone(),
                profile.device.clone(),
                topts.clone(),
                sopts,
            )
        })?;
        models.extend(model);
    }
    if models.len() == configs.len() {
        for &u in &points {
            let mut bands = Vec::with_capacity(configs.len());
            for ((priority, flags), model) in configs.iter().zip(&models) {
                let stage = format!("band{priority:?}{flags:?}@{:?}", u.factors());
                match guarded(&stage, || model.evaluate(u))? {
                    Ok(b) => bands.push((stage, b)),
                    Err(e) => {
                        return Ok(CaseOutcome::Rejected {
                            stage: "transform",
                            detail: format!("band: {e}"),
                        })
                    }
                }
            }
            let design = match guarded(&format!("tier1@{:?}", u.factors()), || {
                prepared.transform(u, &topts)
            })? {
                Ok(d) => d,
                Err(e) => {
                    return Ok(CaseOutcome::Rejected {
                        stage: "transform",
                        detail: format!("tier1: {e}"),
                    })
                }
            };
            let estimates = guarded(&format!("estimate@{:?}", u.factors()), || {
                PRIORITIES
                    .iter()
                    .flat_map(|&priority| {
                        EstimatePlan::new(
                            &design,
                            &profile.memory,
                            &profile.device,
                            &SynthesisOptions {
                                priority,
                                ..SynthesisOptions::default()
                            },
                            true,
                        )
                        .estimates(&FLAGS)
                    })
                    .collect::<Vec<_>>()
            })?;
            for ((stage, band), estimate) in bands.into_iter().zip(&estimates) {
                if !band.contains(estimate) {
                    return Ok(CaseOutcome::Violation(Violation {
                        oracle: Oracle::Fidelity,
                        stage,
                        detail: band_miss_detail(&band, estimate),
                    }));
                }
                checks += 1;
            }
        }
    }

    // Oracle 4: search traces audit clean at every worker count and are
    // byte-identical across them (the engine's determinism contract).
    let mut traces: Vec<(usize, String)> = Vec::new();
    let mut selected: Vec<(usize, UnrollVector)> = Vec::new();
    for &w in &cfg.workers {
        let sink = Arc::new(MemorySink::new());
        let traced = explorer.clone().threads(w).trace(sink.clone());
        let result = match guarded(&format!("explore@{w}"), || traced.explore())? {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Rejected {
                    stage: "transform",
                    detail: format!("explore@{w}: {e}"),
                })
            }
        };
        let events = sink.events();
        let report = guarded(&format!("audit@{w}"), || {
            audit_search_trace(&events, &space, &sat)
        })?;
        if !report.is_clean() {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Audit,
                stage: format!("audit@{w}"),
                detail: report
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            }));
        }
        checks += 1;
        traces.push((w, to_jsonl(&events)));
        selected.push((w, result.selected.unroll));
    }
    if let Some(pair) = traces.windows(2).find(|p| p[0].1 != p[1].1) {
        return Ok(CaseOutcome::Violation(Violation {
            oracle: Oracle::Audit,
            stage: format!("trace-determinism@{}v{}", pair[0].0, pair[1].0),
            detail: "search traces differ across worker counts".to_string(),
        }));
    }
    if let Some(pair) = selected.windows(2).find(|p| p[0].1 != p[1].1) {
        return Ok(CaseOutcome::Violation(Violation {
            oracle: Oracle::Audit,
            stage: format!("selection-determinism@{}v{}", pair[0].0, pair[1].0),
            detail: format!(
                "workers={} selects {:?}, workers={} selects {:?}",
                pair[0].0,
                pair[0].1.factors(),
                pair[1].0,
                pair[1].1.factors(),
            ),
        }));
    }
    checks += 1;

    // Oracle 5: canonicalization. The canonical form is itself an
    // alpha-renamed, declaration-sorted variant of the kernel: it must
    // hash identically (content addressing is rename-invariant), and a
    // persistent cache warmed by the original must hand the variant the
    // same selection without re-evaluating a single design.
    let canon = guarded("canonicalize", || canonicalize(&kernel))?;
    let recanon = guarded("recanonicalize", || canonicalize(&canon.kernel))?;
    if recanon.hash != canon.hash {
        return Ok(CaseOutcome::Violation(Violation {
            oracle: Oracle::Canon,
            stage: "canonical-hash".to_string(),
            detail: format!(
                "alpha-renamed variant hashes {} but original hashes {}",
                recanon.hash.to_hex(),
                canon.hash.to_hex()
            ),
        }));
    }
    checks += 1;
    let cache_dir = std::env::temp_dir().join(format!(
        "defacto-fuzz-canon-{}-{}",
        std::process::id(),
        canon.hash.to_hex()
    ));
    let canon_result = (|| -> Result<Result<(), Violation>, Violation> {
        let store = match guarded("cache-open", || PersistentCache::open(&cache_dir))? {
            Ok(s) => Arc::new(s),
            Err(_) => return Ok(Ok(())), // no scratch space: skip, not a bug
        };
        // A fresh explorer (fresh engine): estimates served from an
        // already-warm in-memory memo would never reach the store.
        let cold_explorer = Explorer::new(&kernel)
            .memory(profile.memory.clone())
            .device(profile.device.clone())
            .verify_each_pass(true)
            .persistent(store.clone());
        let cold = match guarded("canon-cold", || cold_explorer.explore())? {
            Ok(r) => r,
            Err(_) => return Ok(Ok(())),
        };
        let variant = Explorer::new(&canon.kernel)
            .memory(profile.memory.clone())
            .device(profile.device.clone())
            .verify_each_pass(true)
            .persistent(store);
        let warm = match guarded("canon-warm", || variant.explore())? {
            Ok(r) => r,
            Err(e) => {
                return Ok(Err(Violation {
                    oracle: Oracle::Canon,
                    stage: "canon-warm".to_string(),
                    detail: format!("original explores but canonical variant fails: {e}"),
                }))
            }
        };
        if warm.selected.unroll != cold.selected.unroll
            || warm.selected.estimate != cold.selected.estimate
        {
            return Ok(Err(Violation {
                oracle: Oracle::Canon,
                stage: "canon-selection".to_string(),
                detail: format!(
                    "original selects {:?}, canonical variant selects {:?} from warm cache",
                    cold.selected.unroll.factors(),
                    warm.selected.unroll.factors(),
                ),
            }));
        }
        if warm.stats.evaluated != 0 {
            return Ok(Err(Violation {
                oracle: Oracle::Canon,
                stage: "canon-reuse".to_string(),
                detail: format!(
                    "warm cache should serve every estimate, but {} were re-evaluated \
                     ({} persist hits, {} misses)",
                    warm.stats.evaluated, warm.stats.persist_hits, warm.stats.persist_misses,
                ),
            }));
        }
        Ok(Ok(()))
    })();
    std::fs::remove_dir_all(&cache_dir).ok();
    match canon_result? {
        Ok(()) => checks += 2,
        Err(v) => return Ok(CaseOutcome::Violation(v)),
    }

    // Oracle 6: joint-space legality. Every point the typed multi-axis
    // space enumerates is statically proven legal, so each sampled point
    // must transform verifier-clean and preserve semantics; conversely a
    // provably-illegal permutation or tile must be refused with a typed
    // error — accepted is a soundness bug, a panic is a crash.
    let joint_explorer = explorer.clone().axes(&defacto::Axis::ALL);
    let jspace = match guarded("joint-space", || joint_explorer.joint_space())? {
        Ok(s) => s,
        Err(e) => {
            return Ok(CaseOutcome::Rejected {
                stage: "transform",
                detail: format!("joint-space: {e}"),
            })
        }
    };
    let jpoints = jspace.joint_points();
    let mut jpicked: BTreeSet<usize> = BTreeSet::new();
    if !jpoints.is_empty() {
        let mut jrng = SplitMix64::new(cfg.input_seed ^ 0x10E6_A117);
        jpicked.insert(0);
        jpicked.insert(jpoints.len() - 1);
        while jpicked.len() < cfg.max_points.min(jpoints.len()) {
            jpicked.insert(jrng.below(jpoints.len() as u64) as usize);
        }
    }
    let mut jopts = explorer.transform_options().clone();
    jopts.verify_each_pass = true;
    for &i in &jpicked {
        let p = &jpoints[i];
        let unroll = match p.tile {
            Some(_) => UnrollVector::ones(p.unroll.len() + 1),
            None => UnrollVector(p.unroll.clone()),
        };
        let built = guarded(&format!("joint-build@{i}"), || {
            let mut variant = defacto_xform::normalize_loops(&kernel)?;
            if !p.identity_permutation() {
                variant = defacto_xform::interchange(&variant, &p.permutation)?;
            }
            if let Some((level, tile)) = p.tile {
                variant = defacto_xform::tiling::tile_for_registers(&variant, level, tile)?;
            }
            defacto_xform::transform(&variant, &unroll, &jopts)
        })?;
        let design = match built {
            Ok(d) => d,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Legality,
                    stage: format!("joint@{i}"),
                    detail: format!("statically-legal point {p:?} rejected by transform: {e}"),
                }))
            }
        };
        checks += 1; // membership implied a verifier-clean transform
        let j_run = guarded(&format!("interp-joint@{i}"), || {
            run_with_inputs(&design.kernel, &input_refs)
        })?;
        let (j_ws, _) = match j_run {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Legality,
                    stage: format!("joint-exec@{i}"),
                    detail: format!("legal point {p:?} transforms but fails to run: {e}"),
                }))
            }
        };
        for a in kernel.arrays() {
            if a.kind == ArrayKind::In {
                continue;
            }
            if base_ws.array(&a.name) != j_ws.array(&a.name) {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Legality,
                    stage: format!("joint-outputs@{i}"),
                    detail: format!("array `{}` diverges under {p:?}", a.name),
                }));
            }
        }
        checks += 1;
    }

    // Oracle 7: guided-strategy identity. Branch-and-bound must select
    // the bit-identical design to the exhaustive joint sweep (its
    // prunes are proven by tier-0 band containment), and coordinate
    // descent must land within its reported optimality gap. Bounded to
    // small spaces — the exhaustive ground truth is the cost being
    // capped — and run through one explorer so the strategies answer
    // from the sweep's memo cache.
    if !jpoints.is_empty() && jpoints.len() <= cfg.max_strategy_points {
        let gex = Explorer::new(&kernel)
            .memory(profile.memory.clone())
            .device(profile.device.clone())
            .axes(&defacto::Axis::ALL);
        let sweep = match guarded("strategy-sweep", || gex.joint_sweep())? {
            Ok(s) => s,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Strategy,
                    stage: "strategy-sweep".to_string(),
                    detail: format!("exhaustive joint sweep failed: {e}"),
                }))
            }
        };
        // The explorer evaluates narrow/pack siblings as one group; a
        // reference that pays every layer call per point must agree bit
        // for bit, on the sweep and on branch-and-bound's decisions.
        let per_point = guarded("strategy-reference", || {
            let seed = gex.analyze()?.0.u_init;
            let seed = JointPoint {
                unroll: seed.factors().to_vec(),
                ..JointPoint::baseline(seed.factors().len())
            };
            let reference = PerPoint {
                explorer: &gex,
                mem: profile.memory.clone(),
                variants: defacto_xform::VariantCache::new(&kernel)?,
                points: jpoints.to_vec(),
                seed: jspace.contains_joint(&seed).then_some(seed),
            };
            let sweep = reference.evaluate_batch(jpoints)?;
            let guided = strategy_for(StrategyKind::BranchAndBound).run(&reference)?;
            Ok::<_, DseError>((sweep, guided))
        })?;
        let (ref_sweep, ref_guided) = match per_point {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Strategy,
                    stage: "strategy-reference".to_string(),
                    detail: format!("per-point reference failed: {e}"),
                }))
            }
        };
        if ref_sweep != sweep {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Strategy,
                stage: "strategy-grouping".to_string(),
                detail: "joint sweep differs from its per-point reference".to_string(),
            }));
        }
        let truth = best_joint_performance(&sweep);
        let bnb = match guarded("strategy-bnb", || {
            gex.joint_explore(StrategyKind::BranchAndBound)
        })? {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Strategy,
                    stage: "strategy-bnb".to_string(),
                    detail: format!("branch-and-bound failed: {e}"),
                }))
            }
        };
        let identical = match (truth, &bnb.selected) {
            (Some(e), Some(g)) => e.point == g.point && e.estimate == g.estimate,
            (None, None) => true,
            _ => false,
        };
        if bnb.evaluated != ref_guided.evaluated || bnb.pruned != ref_guided.pruned {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Strategy,
                stage: "strategy-grouping".to_string(),
                detail: format!(
                    "branch-and-bound evaluated {} and pruned {}, its per-point reference \
                     evaluated {} and pruned {}",
                    bnb.evaluated.len(),
                    bnb.pruned,
                    ref_guided.evaluated.len(),
                    ref_guided.pruned
                ),
            }));
        }
        checks += 1;
        if !identical {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Strategy,
                stage: "strategy-bnb".to_string(),
                detail: format!(
                    "branch-and-bound selected {:?}, exhaustive selected {:?}",
                    bnb.selected.as_ref().map(|d| &d.point),
                    truth.map(|d| &d.point)
                ),
            }));
        }
        checks += 1;
        let cd = match guarded("strategy-cd", || {
            gex.joint_explore(StrategyKind::CoordinateDescent)
        })? {
            Ok(r) => r,
            Err(e) => {
                return Ok(CaseOutcome::Violation(Violation {
                    oracle: Oracle::Strategy,
                    stage: "strategy-cd".to_string(),
                    detail: format!("coordinate descent failed: {e}"),
                }))
            }
        };
        let within_gap = match (truth, &cd.selected, cd.gap_cycles) {
            (Some(e), Some(g), Some(gap)) => {
                g.estimate.cycles.saturating_sub(e.estimate.cycles) <= gap
            }
            (None, None, _) => true,
            _ => false,
        };
        if !within_gap {
            return Ok(CaseOutcome::Violation(Violation {
                oracle: Oracle::Strategy,
                stage: "strategy-cd".to_string(),
                detail: format!(
                    "coordinate descent cycles {:?} outside gap {:?} of optimum {:?}",
                    cd.selected.as_ref().map(|d| d.estimate.cycles),
                    cd.gap_cycles,
                    truth.map(|d| d.estimate.cycles)
                ),
            }));
        }
        checks += 1;
    }

    // The negative half: provably-illegal coordinates must be refused
    // with a typed error, never accepted, never a panic.
    let summary = prepared.legality();
    if let Ok(normalized) = guarded("normalize", || defacto_xform::normalize_loops(&kernel))? {
        if let Some(bad) = first_illegal_permutation(summary) {
            match guarded("illegal-perm", || {
                defacto_xform::interchange(&normalized, &bad)
            })? {
                Ok(_) => {
                    return Ok(CaseOutcome::Violation(Violation {
                        oracle: Oracle::Legality,
                        stage: "illegal-perm".to_string(),
                        detail: format!(
                            "permutation {bad:?} is outside the legal set but interchange \
                             accepted it"
                        ),
                    }))
                }
                Err(_) => checks += 1,
            }
        }
        if let Some((level, tile)) = first_illegal_tile(summary) {
            let probe = guarded("illegal-tile", || {
                defacto_xform::tiling::tile_for_registers(&normalized, level, tile)
            })?;
            match probe {
                Ok(_) => {
                    return Ok(CaseOutcome::Violation(Violation {
                        oracle: Oracle::Legality,
                        stage: "illegal-tile".to_string(),
                        detail: format!(
                            "level {level} is not tilable but tile_for_registers accepted \
                             tile size {tile}"
                        ),
                    }))
                }
                Err(_) => checks += 1,
            }
        }
    }

    Ok(CaseOutcome::Passed { checks })
}

/// The per-point reference for the strategy oracle: each point pays its
/// own variant lookup, transform and estimate, and its own member model,
/// census and pricing for a band, through the layers' public calls. The
/// explorer shares that work across narrow/pack siblings; this does not.
struct PerPoint<'a> {
    explorer: &'a Explorer<'a>,
    mem: MemoryModel,
    variants: defacto_xform::VariantCache,
    points: Vec<JointPoint>,
    seed: Option<JointPoint>,
}

impl PerPoint<'_> {
    fn unroll(p: &JointPoint) -> UnrollVector {
        match p.tile {
            Some(_) => UnrollVector::ones(p.unroll.len() + 1),
            None => p.unroll_vector(),
        }
    }

    fn synthesis(p: &JointPoint) -> SynthesisOptions {
        SynthesisOptions {
            bitwidth_narrowing: p.narrow,
            pack_small_types: p.pack,
            ..SynthesisOptions::default()
        }
    }
}

impl StrategyContext for PerPoint<'_> {
    fn points(&self) -> &[JointPoint] {
        &self.points
    }

    fn seed(&self) -> Option<JointPoint> {
        self.seed.clone()
    }

    fn evaluate_batch(&self, points: &[JointPoint]) -> defacto::Result<Vec<EvaluatedJointDesign>> {
        let topts = self.explorer.transform_options();
        points
            .iter()
            .map(|p| {
                let variant = self.variants.get(&p.permutation, p.tile)?;
                let design = match &variant.prepared {
                    Some(prepared) => prepared.transform(&Self::unroll(p), topts)?,
                    None => defacto_xform::transform(&variant.kernel, &Self::unroll(p), topts)?,
                };
                Ok(EvaluatedJointDesign {
                    point: p.clone(),
                    estimate: estimate_opts(
                        &design,
                        &self.mem,
                        self.explorer.device_ref(),
                        &Self::synthesis(p),
                    ),
                })
            })
            .collect()
    }

    fn bound_batch(&self, points: &[JointPoint]) -> Vec<Option<AnalyticBand>> {
        let topts = self.explorer.transform_options();
        points
            .iter()
            .map(|p| {
                let model = AnalyticModel::new(
                    self.variants
                        .get(&p.permutation, p.tile)
                        .ok()?
                        .prepared
                        .clone()?,
                    self.mem.clone(),
                    self.explorer.device_ref().clone(),
                    topts.clone(),
                    Self::synthesis(p),
                )?;
                let census = model.prepared().census(&Self::unroll(p), topts).ok()?;
                Some(model.price(&census))
            })
            .collect()
    }

    fn record_step(&self, _: &EvaluatedJointDesign, _: Option<u64>) {}

    fn record_prune(&self, _: &JointPoint, _: &AnalyticBand, _: Option<u64>) {}
}

/// A permutation of the nest the summary proves illegal, if any exists
/// (i.e. the legal set is a strict subset of all `depth!` orders).
fn first_illegal_permutation(
    summary: &defacto::analysis::legality::LegalitySummary,
) -> Option<Vec<usize>> {
    let depth = summary.depth();
    if !(2..=4).contains(&depth) {
        return None; // 1-deep has one order; deeper nests don't occur
    }
    all_permutations(depth)
        .into_iter()
        .find(|p| !summary.permutation_is_legal(p))
}

/// A (level, proper-divisor) pair the summary proves untilable, if any.
fn first_illegal_tile(
    summary: &defacto::analysis::legality::LegalitySummary,
) -> Option<(usize, i64)> {
    for (level, &trip) in summary.trip_counts().iter().enumerate() {
        if summary.tilable(level) {
            continue;
        }
        if let Some(t) = (2..trip).find(|t| trip % t == 0) {
            return Some((level, t));
        }
    }
    None
}

fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    heap_permute(&mut current, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// Name every band component the exact estimate escapes — only the
/// misses, so the report points straight at the broken bound.
fn band_miss_detail(band: &defacto_synth::AnalyticBand, e: &defacto_synth::Estimate) -> String {
    let mut misses = Vec::new();
    let mut check_u64 = |name: &str, v: u64, lo: u64, hi: u64| {
        if v < lo || v > hi {
            misses.push(format!("{name} {v}∉[{lo},{hi}]"));
        }
    };
    check_u64("cycles", e.cycles, band.cycles_lo, band.cycles_hi);
    check_u64(
        "slices",
        e.slices as u64,
        band.slices_lo as u64,
        band.slices_hi as u64,
    );
    check_u64(
        "mem_busy",
        e.memory_busy_cycles,
        band.mem_busy_lo,
        band.mem_busy_hi,
    );
    check_u64(
        "comp_busy",
        e.compute_busy_cycles,
        band.comp_busy_lo,
        band.comp_busy_hi,
    );
    check_u64("bits", e.bits_from_memory, band.bits_lo, band.bits_hi);
    if e.registers != band.registers {
        misses.push(format!("registers {} != {}", e.registers, band.registers));
    }
    if e.balance < band.balance_lo || e.balance > band.balance_hi {
        misses.push(format!(
            "balance {}∉[{},{}]",
            e.balance, band.balance_lo, band.balance_hi
        ));
    }
    if band.fits_certain && !e.fits {
        misses.push("fits_certain but estimate does not fit".into());
    }
    if !band.fits_possible && e.fits {
        misses.push("fits impossible but estimate fits".into());
    }
    if e.clock_ns != band.clock_ns {
        misses.push(format!("clock {} != {}", e.clock_ns, band.clock_ns));
    }
    format!("band excludes exact estimate: {}", misses.join(", "))
}

/// Run `f` under a panic guard; a panic becomes a [`Oracle::Crash`]
/// violation carrying the panic message.
fn guarded<T>(stage: &str, f: impl FnOnce() -> T) -> Result<T, Violation> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| Violation {
        oracle: Oracle::Crash,
        stage: stage.to_string(),
        detail: panic_text(payload),
    })
}

fn panic_text(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Deterministic input data for every readable array, respecting declared
/// `range` annotations (a broken range promise would be the *kernel's*
/// bug, not the compiler's).
fn input_arrays(kernel: &Kernel, seed: u64) -> Vec<(String, Vec<i64>)> {
    let mut rng = SplitMix64::new(seed ^ 0x1234_5678_9ABC_DEF0);
    let mut out = Vec::new();
    for a in kernel.arrays() {
        if a.kind == ArrayKind::Out {
            continue;
        }
        let len: usize = a.dims.iter().product();
        let (lo, hi) = match a.range {
            Some(r) => r,
            None if a.ty.is_signed() => (-32, 31),
            None => (0, 63),
        };
        let data: Vec<i64> = (0..len).map(|_| a.ty.wrap(rng.range_i64(lo, hi))).collect();
        out.push((a.name.clone(), data));
    }
    out
}

/// Run `kernel` on `inputs`, noting what every write wrote.
fn run_observed(
    kernel: &Kernel,
    inputs: &[(&str, Vec<i64>)],
) -> defacto_ir::Result<(Workspace, Written)> {
    let mut ws = Workspace::for_kernel(kernel);
    for (name, data) in inputs {
        ws.set_array(name, data)?;
    }
    let (_, written) = Interpreter::new(kernel).run_observed(&mut ws)?;
    Ok((ws, written))
}

/// The first written span outside the interval range inference gives
/// its name, or wider than the width narrowing gives it (its declared
/// width when the interval needs more, `i32` when undeclared).
fn range_miss(kernel: &Kernel, written: &Written) -> Option<String> {
    let info = infer_ranges(kernel);
    let [scalars, arrays] = written;
    let declared = |ty: Option<defacto_ir::ScalarType>| ty.map_or(32, |t| t.bits());
    let scalars = scalars.iter().map(|(name, &span)| {
        let ty = declared(kernel.scalar(name).map(|d| d.ty));
        ("scalar", name, span, info.var(name), ty)
    });
    let arrays = arrays.iter().map(|(name, &span)| {
        let ty = declared(kernel.array(name).map(|d| d.ty));
        ("array", name, span, info.array(name), ty)
    });
    scalars
        .chain(arrays)
        .find_map(|(kind, name, (lo, hi), inferred, declared)| {
            if lo < inferred.lo || hi > inferred.hi {
                return Some(format!(
                    "{kind} `{name}` held {lo}..={hi}, outside its inferred {}..={}",
                    inferred.lo, inferred.hi
                ));
            }
            let width = narrowed_bits(inferred, declared);
            let needed = Interval::new(lo, hi).bits();
            (needed > width).then(|| {
                format!(
                    "{kind} `{name}` held {lo}..={hi}, which needs {needed} bits; \
                     narrowing gives it {width}"
                )
            })
        })
}

fn first_mismatch(a: Option<&[i64]>, b: Option<&[i64]>) -> usize {
    match (a, b) {
        (Some(a), Some(b)) => a
            .iter()
            .zip(b.iter())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len())),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = "kernel fir {
       in  S: i32[12];
       in  C: i32[4];
       inout D: i32[8];
       for j in 0..8 {
         for i in 0..4 {
           D[j] = D[j] + S[i + j] * C[i];
         }
       }
     }";

    #[test]
    fn a_known_good_kernel_passes_every_oracle() {
        let cfg = OracleConfig::default();
        for profile in Profile::standard() {
            match check_case(FIR, &profile, &cfg) {
                CaseOutcome::Passed { checks } => assert!(checks >= 8, "too few checks: {checks}"),
                other => panic!("fir should pass on {}: {other:?}", profile.name),
            }
        }
    }

    #[test]
    fn strategy_oracle_fires_on_small_joint_spaces() {
        // With an uncapped budget the oracle must add exactly its three
        // checks (per-point reference, branch-and-bound identity,
        // coordinate-descent gap) over a run with the oracle disabled.
        let profile = &Profile::standard()[0];
        let with = OracleConfig {
            max_strategy_points: 1000,
            ..OracleConfig::default()
        };
        let without = OracleConfig {
            max_strategy_points: 0,
            ..OracleConfig::default()
        };
        let checks_with = match check_case(FIR, profile, &with) {
            CaseOutcome::Passed { checks } => checks,
            other => panic!("fir should pass: {other:?}"),
        };
        let checks_without = match check_case(FIR, profile, &without) {
            CaseOutcome::Passed { checks } => checks,
            other => panic!("fir should pass: {other:?}"),
        };
        assert_eq!(checks_with, checks_without + 3);
    }

    #[test]
    fn renamed_reordered_variant_hashes_and_selects_identically() {
        // A hand-scrambled FIR: declarations reordered, loop variables and
        // arrays alpha-renamed. The canon oracle must see straight through.
        let scrambled = "kernel fir {
           inout dest: i32[8];
           in  coef: i32[4];
           in  sig: i32[12];
           for outer in 0..8 {
             for inner in 0..4 {
               dest[outer] = dest[outer] + sig[inner + outer] * coef[inner];
             }
           }
         }";
        let a = canonicalize(&parse_kernel(FIR).unwrap());
        let b = canonicalize(&parse_kernel(scrambled).unwrap());
        assert_eq!(a.hash, b.hash, "rename/reorder must not change the hash");
        // And both pass the full oracle stack, canon dimension included.
        let cfg = OracleConfig::default();
        let profile = &Profile::standard()[0];
        match check_case(scrambled, profile, &cfg) {
            CaseOutcome::Passed { checks } => assert!(checks >= 11, "too few checks: {checks}"),
            other => panic!("scrambled fir should pass: {other:?}"),
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected_with_typed_stages() {
        let cfg = OracleConfig::default();
        let profile = &Profile::standard()[0];
        for (src, want) in [
            ("kernel k {", "parse"),
            (
                "kernel k { in A: i32[4]; out B: i32[4]; for i in 4..0 { B[i] = A[i]; } }",
                "lint",
            ),
            (
                "kernel k { in A: i32[4]; out B: i32[4]; B[0] = A[0]; }",
                "structure",
            ),
        ] {
            match check_case(src, profile, &cfg) {
                CaseOutcome::Rejected { stage, .. } => {
                    assert_eq!(stage, want, "wrong rejection stage for {src:?}")
                }
                other => panic!("{src:?} should be rejected at `{want}`: {other:?}"),
            }
        }
    }
}
