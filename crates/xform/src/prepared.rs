//! Incremental design-point evaluation: a prepared kernel.
//!
//! Every design point of one exploration shares the same source kernel.
//! The full pipeline ([`crate::transform`]) nevertheless re-runs every
//! point-invariant step per point: loop normalization, access collection,
//! dependence analysis, jam legality inputs, and uniformly-generated-set
//! partitioning. A [`PreparedKernel`] hoists all of that to a single
//! up-front `prepare` call and then evaluates each unroll vector with
//! only the point-*variant* work:
//!
//! - unrolled bodies are assembled from a cache of offset copies of the
//!   base innermost body, keyed by offset tuple. The offset tuples of
//!   factor vector `U` are a subset of those of any component-wise larger
//!   vector, so the doubling chains and bisections of the paper's Figure 2
//!   search (and the exhaustive sweeps) reuse every copy built for a
//!   smaller factor — a design at `2u` is derived from the cached copies
//!   of the design at `u` plus only the new offsets;
//! - on the default path (scalar replacement on, per-pass verification
//!   off) the jammed body is never even concatenated: scalar replacement
//!   reads the cached copies through statement references and rebuilds
//!   the nest itself, so the `P(U)`-statement intermediate kernel is
//!   skipped entirely;
//! - the unrolled body's uniformly generated sets are derived
//!   analytically from the base analyses ([`defacto_analysis::jam`])
//!   instead of re-walking the `P(U)`-times larger body, and each set's
//!   conditional-member flag is served from a per-kernel cache;
//! - intermediate kernels are rebuilt with the unchecked constructors:
//!   re-validation (a pure structural check) is skipped because the
//!   transformed bodies are produced by the same code paths the validated
//!   scratch pipeline uses, and the equivalence property test pins the
//!   outputs against the scratch pipeline bit for bit.
//!
//! `transform` here is required to be *bit-identical* to
//! [`crate::transform`] on the same inputs — same kernels, same info,
//! same binding, same errors. `tests/incremental_equivalence.rs`
//! enforces this across the paper kernels' full design spaces.

use crate::census::count_rotates;
use crate::error::{Result, VectorError, XformError};
use crate::layout::assign_memories;
use crate::normalize::normalize_loops;
use crate::peel::peel_first_iterations_lite;
use crate::pipeline::{TransformOptions, TransformedDesign, UnrollVector};
use crate::scalar::{
    access_sites, materialize, plan_reuse, LoadSite, ScalarInput, ScalarReplacementInfo, StoreSite,
};
use crate::simplify::simplify_stmts;
use crate::unroll::offset_tuples;
use defacto_analysis::{
    analyze_dependences_with_bounds, jammed_uniform_sets, uniform_sets, AccessId, AccessTable,
    DependenceGraph, LegalitySummary, UniformSet,
};
use defacto_ir::visit::offset_vars_stmts;
use defacto_ir::{Kernel, Loop, Name, Stmt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// All point-invariant artifacts of one kernel's design-space walk; see
/// the module docs. Shared across evaluation workers behind an `Arc` —
/// the copy cache is internally synchronized.
#[derive(Debug)]
pub struct PreparedKernel {
    /// The normalized kernel every design point starts from.
    normalized: Kernel,
    /// Empty-bodied templates of the normalized nest's loops.
    loops: Vec<Loop>,
    /// Induction variables, outermost first.
    var_names: Vec<Name>,
    /// The normalized innermost body.
    base_body: Vec<Stmt>,
    /// Access table of `base_body`.
    base_table: AccessTable,
    /// Uniformly generated sets of `base_table`.
    base_sets: Vec<UniformSet>,
    /// Per base set (keyed by its first member, which jamming preserves):
    /// does any member execute conditionally? Jamming replicates the
    /// flags verbatim, so the answer holds for every jammed set too.
    cond_flags: HashMap<AccessId, bool>,
    /// The loads of `base_body` with their sets, for load planning.
    load_sites: Vec<LoadSite>,
    /// The stores of `base_body` with their sets.
    store_sites: Vec<StoreSite>,
    /// User `rotate` statements of `base_body`, for the census.
    user_rotates: i64,
    /// Dependences with the nest's bounds, input of jam legality.
    deps: DependenceGraph,
    /// Scalars carrying state across body iterations (rotate chains,
    /// reads before writes) — input of the carried-scalar jam legality.
    carried: Vec<String>,
    /// The whole-kernel legality summary: legal permutations, per-level
    /// tilability, jam safety, packing/narrowing applicability. Computed
    /// once here; every per-point check delegates to it.
    legality: LegalitySummary,
    /// Offset copies of `base_body`, keyed by full offset tuple. Copies
    /// are made directly from the base body (never from another copy:
    /// offsetting an already-offset copy would nest scalar-read rewrites
    /// differently than the scratch pipeline). Entries are pure values
    /// inserted whole, so a poisoned lock still guards valid data and is
    /// recovered.
    copies: Mutex<HashMap<Vec<i64>, Arc<Vec<Stmt>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PreparedKernel {
    /// Run every point-invariant pipeline stage once.
    ///
    /// # Errors
    ///
    /// Fails exactly when the scratch pipeline would fail for *every*
    /// unroll vector: the kernel does not normalize or is not a perfect
    /// nest. Callers fall back to [`crate::transform`] in that case so
    /// per-point errors stay identical.
    pub fn prepare(kernel: &Kernel) -> Result<PreparedKernel> {
        let normalized = normalize_loops(kernel)?;
        let (loops, var_names, base_body) = {
            let nest = normalized
                .perfect_nest()
                .ok_or(XformError::NotPerfectNest)?;
            let loops: Vec<Loop> = nest
                .loops()
                .iter()
                .map(|l| Loop {
                    var: l.var.clone(),
                    lower: l.lower,
                    upper: l.upper,
                    step: l.step,
                    body: Vec::new(),
                })
                .collect();
            let var_names: Vec<Name> = loops.iter().map(|l| l.var.clone()).collect();
            (loops, var_names, nest.innermost_body().to_vec())
        };
        let base_table = AccessTable::from_stmts(&base_body);
        let var_refs: Vec<&str> = var_names.iter().map(Name::as_str).collect();
        let bounds: Vec<(i64, i64)> = loops.iter().map(|l| (l.lower, l.upper - 1)).collect();
        let deps = analyze_dependences_with_bounds(&base_table, &var_refs, &bounds);
        let base_sets = uniform_sets(&base_table, &var_refs);
        let cond_flags: HashMap<AccessId, bool> = base_sets
            .iter()
            .map(|s| {
                let any = s.members.iter().any(|&id| base_table.get(id).conditional);
                (s.members[0], any)
            })
            .collect();
        let (load_sites, store_sites) = access_sites(&base_body, &base_table, &base_sets);
        let user_rotates = count_rotates(&base_body);
        let carried = crate::unroll::carried_scalars(&base_body, &var_refs);
        let trips: Vec<i64> = loops.iter().map(Loop::trip_count).collect();
        let legality = LegalitySummary::from_parts(
            &normalized,
            &base_table,
            &var_refs,
            &trips,
            &deps,
            carried.clone(),
        );
        Ok(PreparedKernel {
            normalized,
            loops,
            var_names,
            base_body,
            base_table,
            base_sets,
            cond_flags,
            load_sites,
            store_sites,
            user_rotates,
            deps,
            carried,
            legality,
            copies: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Like [`Self::prepare`], reusing the point-invariant analyses — and
    /// the offset-copy cache — of a previously prepared kernel when the
    /// normalized nest is unchanged where it matters:
    ///
    /// - same innermost body and induction variables: the access table,
    ///   uniform sets, conditional flags, load and store sites, user rotates,
    ///   carried scalars and every cached offset copy carry over (copies
    ///   offset the base body only, so they are bounds-independent);
    /// - same loop bounds on top of that: the dependence graph carries
    ///   over too, making the reuse total.
    ///
    /// Anything else falls back to a full [`Self::prepare`]. The result
    /// is indistinguishable from `prepare` — reuse is an equality-gated
    /// copy of artifacts that are pure functions of the compared inputs.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::prepare`].
    pub fn prepare_reusing(kernel: &Kernel, prev: &PreparedKernel) -> Result<PreparedKernel> {
        let normalized = normalize_loops(kernel)?;
        let (loops, var_names, base_body) = {
            let nest = normalized
                .perfect_nest()
                .ok_or(XformError::NotPerfectNest)?;
            let loops: Vec<Loop> = nest
                .loops()
                .iter()
                .map(|l| Loop {
                    var: l.var.clone(),
                    lower: l.lower,
                    upper: l.upper,
                    step: l.step,
                    body: Vec::new(),
                })
                .collect();
            let var_names: Vec<Name> = loops.iter().map(|l| l.var.clone()).collect();
            (loops, var_names, nest.innermost_body().to_vec())
        };
        if base_body != prev.base_body || var_names != prev.var_names {
            return Self::prepare(kernel);
        }
        let same_bounds = loops.len() == prev.loops.len()
            && loops
                .iter()
                .zip(&prev.loops)
                .all(|(a, b)| (a.lower, a.upper, a.step) == (b.lower, b.upper, b.step));
        let deps = if same_bounds {
            prev.deps.clone()
        } else {
            let var_refs: Vec<&str> = var_names.iter().map(Name::as_str).collect();
            let bounds: Vec<(i64, i64)> = loops.iter().map(|l| (l.lower, l.upper - 1)).collect();
            analyze_dependences_with_bounds(&prev.base_table, &var_refs, &bounds)
        };
        let copies = prev
            .copies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // The summary's packing/narrowing facts read the array decls
        // (types, range annotations), which the body/vars gate above does
        // not cover — require decl equality too before reusing it.
        let legality = if same_bounds && normalized.arrays() == prev.normalized.arrays() {
            prev.legality.clone()
        } else {
            let var_refs: Vec<&str> = var_names.iter().map(Name::as_str).collect();
            let trips: Vec<i64> = loops.iter().map(Loop::trip_count).collect();
            LegalitySummary::from_parts(
                &normalized,
                &prev.base_table,
                &var_refs,
                &trips,
                &deps,
                prev.carried.clone(),
            )
        };
        Ok(PreparedKernel {
            normalized,
            loops,
            var_names,
            base_body,
            base_table: prev.base_table.clone(),
            base_sets: prev.base_sets.clone(),
            cond_flags: prev.cond_flags.clone(),
            load_sites: prev.load_sites.clone(),
            store_sites: prev.store_sites.clone(),
            user_rotates: prev.user_rotates,
            deps,
            carried: prev.carried.clone(),
            legality,
            copies: Mutex::new(copies),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Offset-copy cache statistics: `(hits, misses)` over all
    /// [`PreparedKernel::transform`] calls so far.
    pub fn copy_cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The normalized kernel every design point starts from.
    pub fn normalized(&self) -> &Kernel {
        &self.normalized
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Empty-bodied templates of the normalized nest's loops, outermost
    /// first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Induction variables, outermost first.
    pub fn var_names(&self) -> &[Name] {
        &self.var_names
    }

    /// The normalized innermost body (pre-unroll).
    pub fn base_body(&self) -> &[Stmt] {
        &self.base_body
    }

    /// Uniformly generated sets of the base body.
    pub fn base_sets(&self) -> &[UniformSet] {
        &self.base_sets
    }

    pub(crate) fn base_table_len(&self) -> usize {
        self.base_table.len()
    }

    pub(crate) fn cond_flag(&self, first_member: AccessId) -> bool {
        self.cond_flags[&first_member]
    }

    pub(crate) fn load_sites(&self) -> &[LoadSite] {
        &self.load_sites
    }

    pub(crate) fn user_rotates(&self) -> i64 {
        self.user_rotates
    }

    /// Validate an unroll vector exactly the way [`Self::transform`]
    /// does, including jam legality — same errors, same order.
    ///
    /// # Errors
    ///
    /// The same per-point errors as [`crate::transform`].
    pub fn validate_factors(&self, factors: &[i64]) -> Result<()> {
        if factors.len() != self.loops.len() {
            return Err(XformError::BadUnrollVector(VectorError::WrongLength {
                got: factors.len(),
                depth: self.loops.len(),
            }));
        }
        for (l, loop_) in self.loops.iter().enumerate() {
            if !loop_.is_normalized() {
                return Err(XformError::BadUnrollVector(VectorError::NotNormalized {
                    var: loop_.var.to_string(),
                }));
            }
            let u = factors[l];
            if u < 1 {
                return Err(XformError::BadUnrollVector(VectorError::BadFactor {
                    var: loop_.var.to_string(),
                    factor: u,
                }));
            }
            if loop_.trip_count() % u != 0 {
                return Err(XformError::NonDividingFactor {
                    var: loop_.var.to_string(),
                    trip: loop_.trip_count(),
                    factor: u,
                });
            }
        }
        // Jam legality — array dependences first, then the carried-scalar
        // rule, exactly as `unroll_and_jam` orders them. One delegating
        // call into the summary: space membership and this gate share the
        // predicate, so they can never disagree.
        if let Some(v) = self.legality.jam_violation(factors) {
            return Err(XformError::IllegalJam(v));
        }
        Ok(())
    }

    /// The whole-kernel legality summary computed by [`Self::prepare`]:
    /// legal permutations, per-level tilability and jam safety, carried
    /// scalars, packing/narrowing applicability.
    pub fn legality(&self) -> &LegalitySummary {
        &self.legality
    }

    /// Scalars carrying state across iterations of the base body (rotate
    /// register chains, scalars read before written). Non-empty means only
    /// innermost unroll factors are legal — see
    /// [`crate::unroll::carried_scalars`].
    pub fn carried_scalars(&self) -> &[String] {
        &self.carried
    }

    /// Evaluate one design point. Produces the same
    /// [`TransformedDesign`] (or the same error) as
    /// [`crate::transform`] on the prepared kernel.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::transform`].
    pub fn transform(
        &self,
        unroll: &UnrollVector,
        opts: &TransformOptions,
    ) -> Result<TransformedDesign> {
        let checkpoint = |stage: &'static str, k: &Kernel| -> Result<()> {
            if !opts.verify_each_pass {
                return Ok(());
            }
            let diagnostics = defacto_ir::verify(k);
            if diagnostics.is_empty() {
                Ok(())
            } else {
                Err(XformError::Verify { stage, diagnostics })
            }
        };
        checkpoint("loop normalization", &self.normalized)?;

        // Factor validation, in the scratch pipeline's order.
        let factors = unroll.factors();
        self.validate_factors(factors)?;

        // Fetch (building on miss) the cached offset copies of this
        // point's tuples.
        let depth = factors.len();
        let tuples = offset_tuples(factors);
        let copies: Vec<Arc<Vec<Stmt>>> = {
            let mut cache = self.copies.lock().unwrap_or_else(PoisonError::into_inner);
            tuples
                .chunks_exact(depth)
                .map(|t| {
                    if let Some(copy) = cache.get(t) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(copy)
                    } else {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let deltas: Vec<(&str, i64)> = self
                            .var_names
                            .iter()
                            .map(Name::as_str)
                            .zip(t.iter().copied())
                            .collect();
                        let copy = Arc::new(offset_vars_stmts(&self.base_body, &deltas));
                        cache.insert(t.to_vec(), Arc::clone(&copy));
                        copy
                    }
                })
                .collect()
        };

        // Materialize the unrolled kernel only when something observes
        // it: per-pass verification, or the no-scalar-replacement result.
        // On the default path it is skipped — scalar replacement reads
        // the copies through references and rebuilds the nest itself.
        let unrolled: Option<Kernel> = if opts.verify_each_pass || !opts.scalar_replacement {
            let mut body: Vec<Stmt> = Vec::with_capacity(self.base_body.len() * copies.len());
            for copy in &copies {
                body.extend_from_slice(copy);
            }
            let mut stmts = body;
            for (l, loop_) in self.loops.iter().enumerate().rev() {
                stmts = vec![Stmt::For(Loop {
                    var: loop_.var.clone(),
                    lower: 0,
                    upper: loop_.upper,
                    step: factors[l],
                    body: stmts,
                })];
            }
            Some(self.normalized.with_body_unchecked(stmts))
        } else {
            None
        };
        if let Some(u) = &unrolled {
            checkpoint("unroll-and-jam", u)?;
        }

        let (replaced, info) = if opts.scalar_replacement {
            // Widened loop templates of the unrolled nest.
            let widened: Vec<Loop> = self
                .loops
                .iter()
                .enumerate()
                .map(|(l, loop_)| Loop {
                    var: loop_.var.clone(),
                    lower: 0,
                    upper: loop_.upper,
                    step: factors[l],
                    body: Vec::new(),
                })
                .collect();
            let sets = jammed_uniform_sets(&self.base_sets, self.base_table.len(), &tuples, depth);
            let trips: Vec<i64> = widened.iter().map(Loop::trip_count).collect();
            let plan = plan_reuse(
                &sets,
                &trips,
                factors,
                &|s: &UniformSet| self.cond_flag(s.members[0]),
                &opts.scalar_options(),
            );
            let body_refs: Vec<&Stmt> = copies.iter().flat_map(|c| c.iter()).collect();
            let (final_body, decls, info) = materialize(
                &self.normalized,
                &ScalarInput {
                    loops: &widened,
                    vars: &self.var_names,
                    body: &body_refs,
                    sets: &sets,
                    sites: &self.load_sites,
                    stores: &self.store_sites,
                    copies: copies.len(),
                },
                &plan,
            );
            (
                self.normalized
                    .with_body_and_temps_unchecked(final_body, decls),
                info,
            )
        } else {
            (
                unrolled.expect("materialized when scalar replacement is off"),
                ScalarReplacementInfo::default(),
            )
        };
        checkpoint("scalar replacement", &replaced)?;

        // Layout before peeling, exactly like the scratch pipeline.
        let binding = if opts.custom_layout {
            assign_memories(&replaced, opts.num_memories)
        } else {
            assign_memories(&replaced, 1)
        };

        let final_kernel = if opts.peel {
            peel_first_iterations_lite(replaced)
        } else {
            let body = simplify_stmts(replaced.body());
            replaced.into_body_unchecked(body)
        };
        checkpoint(
            if opts.peel {
                "loop peeling"
            } else {
                "simplify"
            },
            &final_kernel,
        )?;

        Ok(TransformedDesign {
            kernel: final_kernel,
            unroll: unroll.clone(),
            info,
            binding,
        })
    }
}
