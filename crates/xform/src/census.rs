//! Tier-0 design-point census: exact structural counts for an unroll
//! vector, computed without materializing any body copy.
//!
//! [`PreparedKernel::census`] runs the *planning* step of scalar
//! replacement — `plan_reuse` in [`crate::scalar`]: grouping, reuse
//! classification, the §5.4 register budget — over the analytically
//! jammed uniform sets, and folds the resulting `ReusePlan` into what the
//! full pipeline builds from it: how many registers of which width, which
//! memory-traffic classes remain (and when each executes), which
//! guard/rotate statements the body carries, and which loop levels
//! peeling will split. It never copies the body, never rewrites a
//! statement and never builds a DFG. Measured in a release build on one
//! core of an Intel Xeon, one census of a paper kernel's joint point
//! takes about 15 µs (MM), 20 µs (PAT), 40 µs (FIR), 100 µs (JAC) and
//! 150 µs (SOBEL), 60 µs on average over the five joint spaces. Most of
//! what remains for JAC and SOBEL is sorting the offsets of their large
//! jammed window sets. A tier-1 estimate of the same point takes
//! milliseconds.
//!
//! Jammed offsets are rows of one matrix per set
//! ([`UniformSet::offsets`](defacto_analysis::UniformSet)), and the plan
//! and the walks below borrow those rows, so a census allocates per set,
//! not per jammed offset.
//!
//! The counts are exact, not approximations: the tier-0 analytic
//! estimator (`defacto_synth::analytic`) prices them into a cost band
//! whose soundness rests on this census describing the materialized
//! design. The register, chain and budget counts come from the same plan
//! [`PreparedKernel::transform`] materializes, and through the same
//! accessor as its [`crate::ScalarReplacementInfo`], so they match by
//! construction. The raw (unreplaced) load traffic and the hoisted
//! temporaries are still computed here by a walk that mirrors the load
//! hoisting of [`crate::scalar`]; tests pin `temp_registers` to the
//! materialized design across the paper kernels' design spaces and
//! generated kernels. The walk reads each base load's jammed copies off
//! its set and skips the loads of a set the plan replaces entirely
//! (DESIGN.md §10 argues why that skip is exact).

use crate::error::Result;
use crate::peel::tests_first_iteration;
use crate::pipeline::{TransformOptions, UnrollVector};
use crate::prepared::PreparedKernel;
use crate::scalar::{plan_reuse, Reuse};
use crate::unroll::offset_tuples;
use defacto_analysis::{jammed_uniform_sets, AccessTable, UniformSet};
use defacto_ir::{ArrayAccess, BinOp, Expr, Name, Stmt};
use std::collections::{HashMap, HashSet};

/// When one memory-traffic class executes, relative to the steady nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficKind {
    /// Once per innermost (jammed) body.
    Body,
    /// Once per iteration of the loop at `level` (hoisted load / sunk
    /// store headers).
    AtLevel(usize),
    /// Once before the whole nest (fully invariant loads).
    Top,
    /// In the innermost body but guarded by `var == 0` at each listed
    /// level (chain/window first-iteration fills). Executes once per
    /// combination of the *unlisted* levels' iterations; peeling moves
    /// these into peeled copies without changing the total.
    Guarded(Vec<usize>),
}

/// One class of memory accesses of the design point with its exact
/// per-execution address list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    /// Accessed array.
    pub array: String,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Declared element width of the array.
    pub elem_bits: u32,
    /// When the class executes.
    pub kind: TrafficKind,
    /// Row-major flattened constant offsets touched per execution.
    /// Duplicates are real duplicate accesses.
    pub flat_offsets: Vec<i64>,
    /// Does the class execute under a user `if`? Peeling substitutes
    /// trip-1 loop variables into the body and constant folding may then
    /// remove the guarded access from the materialized design entirely,
    /// so the analytic *lower* bound must not rely on conditional
    /// traffic (the upper bound still counts it).
    pub conditional: bool,
}

impl Traffic {
    /// Exact number of times this class executes over the whole nest,
    /// given the jammed per-level trip counts.
    pub fn executions(&self, trips: &[i64]) -> i64 {
        match &self.kind {
            TrafficKind::Body => trips.iter().product(),
            TrafficKind::Top => 1,
            TrafficKind::AtLevel(l) => trips[..=*l].iter().product(),
            TrafficKind::Guarded(g) => trips
                .iter()
                .enumerate()
                .filter(|(l, _)| !g.contains(l))
                .map(|(_, &t)| t)
                .product(),
        }
    }

    /// Total access events of this class over the whole nest.
    pub fn events(&self, trips: &[i64]) -> i64 {
        self.executions(trips) * self.flat_offsets.len() as i64
    }
}

/// A class of compiler-introduced registers sharing one width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterClass {
    /// Declared element width of the source array.
    pub bits: u32,
    /// Registers in the class.
    pub count: usize,
    /// Whether every register in the class is (transitively) filled from
    /// a memory load of its array — in that case it holds every value of
    /// that array, so bitwidth narrowing cannot shrink it below the
    /// array's load width floor.
    pub load_valued: bool,
}

/// Serialization facts of one accumulator group (for the compute floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumulatorCensus {
    /// Accumulated array.
    pub array: String,
    /// Maximum jammed write members sharing one offset: the length of
    /// the serialized register-update chain per body.
    pub max_writes_per_offset: i64,
    /// `Some(tops)` iff *every* base write statement of the group reads
    /// its own target access (a true recurrence); each entry is the
    /// statement's top-level operator plus whether one operand is an
    /// integer constant (strength reduction may then null its latency).
    pub serial_ops: Option<Vec<(BinOp, bool)>>,
}

/// Exact structural counts of one design point. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointCensus {
    /// The unroll factors, outermost first.
    pub factors: Vec<i64>,
    /// Jammed trip count per level (`T_l / U_l`).
    pub trips: Vec<i64>,
    /// `P(U)`: product of the factors (base-body copies per jammed body).
    pub product: i64,
    /// Total jammed bodies (`Π trips`).
    pub bodies: i64,
    /// Equals [`crate::ScalarReplacementInfo::reuse_registers`] of the
    /// materialized design.
    pub reuse_registers: usize,
    /// Equals [`crate::ScalarReplacementInfo::temp_registers`] of the
    /// materialized design.
    pub temp_registers: usize,
    /// Equals [`crate::ScalarReplacementInfo::chains`] of the
    /// materialized design.
    pub chains: usize,
    /// Equals [`crate::ScalarReplacementInfo::dropped_by_budget`] of the
    /// materialized design.
    pub dropped_by_budget: usize,
    /// Introduced registers bucketed by width/provenance.
    pub registers: Vec<RegisterClass>,
    /// Every memory-traffic class of the point, with exact counts.
    pub traffic: Vec<Traffic>,
    /// Rotate statements executed per jammed body.
    pub rotates_per_body: i64,
    /// Guard `==` comparisons per jammed body (chain/window guards).
    pub guard_eqs_per_body: i64,
    /// Guard `&&` conjunctions per jammed body.
    pub guard_ands_per_body: i64,
    /// Accumulator groups with their serialization facts.
    pub accumulators: Vec<AccumulatorCensus>,
    /// Per level: will peeling split off the first iteration? True for
    /// every level some `if (var == 0)` guard tests (chain/window fills
    /// and user guards alike); false everywhere when peeling is off.
    pub peelable: Vec<bool>,
}

impl PointCensus {
    /// Registers of the materialized design introduced by scalar
    /// replacement (reuse + temps).
    pub fn total_registers(&self) -> usize {
        self.reuse_registers + self.temp_registers
    }
}

impl PreparedKernel {
    /// Compute the exact structural census of one design point. Performs
    /// the same validation as [`Self::transform`] (same errors), then
    /// folds the scalar-replacement plan the transform would materialize.
    ///
    /// # Errors
    ///
    /// The same per-point errors as [`Self::transform`].
    pub fn census(&self, unroll: &UnrollVector, opts: &TransformOptions) -> Result<PointCensus> {
        let factors = unroll.factors();
        self.validate_factors(factors)?;
        let depth = self.loops().len();
        let trips: Vec<i64> = self
            .loops()
            .iter()
            .zip(factors)
            .map(|(l, &u)| l.trip_count() / u)
            .collect();
        let tuples = offset_tuples(factors);
        let copies = tuples.len() / depth;
        let sets = jammed_uniform_sets(self.base_sets(), self.base_table_len(), &tuples, depth);
        let var_refs: Vec<&str> = self.var_names().iter().map(Name::as_str).collect();

        // Row-major strides per array, as the memory binding computes
        // them.
        let mut strides: HashMap<&str, Vec<i64>> = HashMap::new();
        for a in self.normalized().arrays() {
            let mut s = vec![1i64; a.dims.len()];
            for d in (0..a.dims.len().saturating_sub(1)).rev() {
                s[d] = s[d + 1] * a.dims[d + 1] as i64;
            }
            strides.insert(a.name.as_str(), s);
        }
        let strides_of = |array: &str| strides.get(array).map_or(&[][..], Vec::as_slice);
        let elem_bits = |array: &str| {
            self.normalized()
                .array(array)
                .map(|a| a.ty.bits())
                .unwrap_or(32)
        };

        let mut c = PointCensus {
            factors: factors.to_vec(),
            trips: trips.clone(),
            product: factors.iter().product(),
            bodies: trips.iter().product(),
            reuse_registers: 0,
            temp_registers: 0,
            chains: 0,
            dropped_by_budget: 0,
            registers: Vec::new(),
            traffic: Vec::new(),
            rotates_per_body: 0,
            guard_eqs_per_body: 0,
            guard_ands_per_body: 0,
            accumulators: Vec::new(),
            peelable: vec![false; depth],
        };
        // Register classes keyed by (bits, load_valued).
        let mut reg_classes: HashMap<(u32, bool), usize> = HashMap::new();
        // Per set: the loads the plan rewrites to register reads.
        let mut replaced: Vec<Replaced<'_>> = sets.iter().map(|_| Replaced::None).collect();
        // Per set: are its stores rewritten (accumulators)?
        let mut replaced_stores = vec![false; sets.len()];

        if opts.scalar_replacement {
            // The plan `transform` materializes for this point.
            let plan = plan_reuse(
                &sets,
                &trips,
                factors,
                &|s: &UniformSet| self.cond_flag(s.members[0]),
                &opts.scalar_options(),
            );
            let info = plan.info();
            c.reuse_registers = info.reuse_registers;
            c.chains = info.chains;
            c.dropped_by_budget = info.dropped_by_budget;
            for reuse in &plan.decisions {
                let array = sets[reuse.set()].array.as_str();
                let bits = elem_bits(array);
                let strides = strides_of(array);
                let traffic = |is_write: bool, kind: TrafficKind, flat_offsets: Vec<i64>| Traffic {
                    array: array.to_string(),
                    is_write,
                    elem_bits: bits,
                    kind,
                    flat_offsets,
                    conditional: false,
                };
                match reuse {
                    Reuse::Accumulator {
                        read,
                        write,
                        level,
                        slots,
                    } => {
                        for slot in slots {
                            *reg_classes.entry((bits, slot.read)).or_insert(0) += 1;
                        }
                        if let Some(r) = read {
                            // The read slots are the read set's distinct
                            // offsets, all of them.
                            c.traffic.push(traffic(
                                false,
                                TrafficKind::AtLevel(*level),
                                slots
                                    .iter()
                                    .filter(|s| s.read)
                                    .map(|s| flat(strides, s.offset))
                                    .collect(),
                            ));
                            replaced[*r] = Replaced::All;
                        }
                        c.traffic.push(traffic(
                            true,
                            TrafficKind::AtLevel(*level),
                            slots
                                .iter()
                                .filter(|s| s.written)
                                .map(|s| flat(strides, s.offset))
                                .collect(),
                        ));
                        replaced_stores[*write] = true;
                        c.accumulators
                            .push(self.accumulator_census(&sets[*write], &var_refs));
                    }
                    Reuse::Hoisted {
                        read,
                        level,
                        offsets,
                    } => {
                        *reg_classes.entry((bits, true)).or_insert(0) += offsets.len();
                        let kind = match level {
                            Some(l) => TrafficKind::AtLevel(*l),
                            None => TrafficKind::Top,
                        };
                        c.traffic.push(traffic(
                            false,
                            kind,
                            offsets.iter().map(|o| flat(strides, o)).collect(),
                        ));
                        replaced[*read] = Replaced::All;
                    }
                    Reuse::Chain {
                        read,
                        level,
                        invariant_levels,
                        lanes,
                        length,
                    } => {
                        let guard_levels: Vec<usize> = std::iter::once(*level)
                            .chain(invariant_levels.iter().copied())
                            .collect();
                        for lane_off in lanes {
                            *reg_classes.entry((bits, true)).or_insert(0) += length;
                            c.traffic.push(traffic(
                                false,
                                TrafficKind::Guarded(guard_levels.clone()),
                                vec![flat(strides, lane_off)],
                            ));
                            if *length >= 2 {
                                c.rotates_per_body += 1;
                            }
                            c.guard_eqs_per_body += guard_levels.len() as i64;
                            c.guard_ands_per_body += guard_levels.len() as i64 - 1;
                        }
                        for &l in &guard_levels {
                            c.peelable[l] = true;
                        }
                        replaced[*read] = Replaced::All;
                    }
                    Reuse::Window {
                        read,
                        level,
                        window_dim,
                        step,
                        lanes,
                        distinct,
                    } => {
                        let mut position: Vec<i64> = Vec::new();
                        for lane in lanes {
                            let span = lane.span();
                            let carried = span.saturating_sub(*step as usize);
                            *reg_classes.entry((bits, true)).or_insert(0) += span;
                            position.clear();
                            position.extend_from_slice(lane.offsets[0]);
                            let mut positions = |ps: std::ops::Range<usize>| -> Vec<i64> {
                                ps.map(|p| {
                                    position[*window_dim] = lane.lo + p as i64;
                                    flat(strides, &position)
                                })
                                .collect()
                            };
                            if carried > 0 {
                                c.traffic.push(traffic(
                                    false,
                                    TrafficKind::Guarded(vec![*level]),
                                    positions(0..carried),
                                ));
                                c.guard_eqs_per_body += 1;
                                c.peelable[*level] = true;
                            }
                            if span > carried {
                                c.traffic.push(traffic(
                                    false,
                                    TrafficKind::Body,
                                    positions(carried..span),
                                ));
                            }
                            if carried > 0 && span >= 2 {
                                c.rotates_per_body += step;
                            }
                        }
                        // The lanes hold distinct offsets of the set, so
                        // they cover it exactly when the counts agree.
                        let covered: usize = lanes.iter().map(|l| l.offsets.len()).sum();
                        replaced[*read] = if covered == *distinct {
                            Replaced::All
                        } else {
                            let mut rows: Vec<&[i64]> = lanes
                                .iter()
                                .flat_map(|l| l.offsets.iter().copied())
                                .collect();
                            rows.sort_unstable();
                            Replaced::Some(rows)
                        };
                    }
                }
            }
        }

        // --- Raw (unreplaced) traffic, mirroring the body rewrite +
        // `hoist_remaining_loads`. ---

        let raw_stores = || {
            sets.iter()
                .zip(&replaced_stores)
                .filter(|(s, &replaced)| s.is_write && !replaced)
                .map(|(s, _)| s)
        };
        // Arrays with any raw store keep their loads in place.
        let stored_arrays: HashSet<&str> = raw_stores().map(|s| s.array.as_str()).collect();

        // Raw stores: one store per member per body.
        for set in raw_stores() {
            let strides = strides_of(&set.array);
            c.traffic.push(Traffic {
                array: set.array.to_string(),
                is_write: true,
                elem_bits: elem_bits(&set.array),
                kind: TrafficKind::Body,
                flat_offsets: set.offset_rows().map(|o| flat(strides, o)).collect(),
                conditional: self.cond_flag(set.members[0]),
            });
        }

        // Raw loads: walk the base body's loads, read each one's jammed
        // copies off its set, and split in-place loads (stored arrays and
        // sole-load statements, which `hoist_remaining_loads` skips) from
        // hoisted ones (one temp register per distinct address). Loads of
        // a set the plan replaces entirely are skipped whole.
        //
        // In-place loads split by user-`if` context: conditional loads may
        // be folded away with their branch, so they form separate classes.
        let mut in_place: HashMap<(&str, bool), Vec<i64>> = HashMap::new();
        // Distinct hoisted addresses, keyed by (set, offsets), in
        // deterministic (first-seen) order.
        let mut hoisted_seen: HashSet<(usize, &[i64])> = HashSet::new();
        let mut hoisted: HashMap<&str, Vec<i64>> = HashMap::new();
        let mut site_offsets: Vec<i64> = Vec::new();
        for site in self.load_sites() {
            let replaced = &replaced[site.set];
            if matches!(replaced, Replaced::All) {
                continue;
            }
            let set = &sets[site.set];
            let array = set.array.as_str();
            let strides = strides_of(array);
            let stays = !opts.scalar_replacement || site.sole || stored_arrays.contains(array);
            let base_members = self.base_sets()[site.set].len();
            site_offsets.clear();
            for copy in 0..copies {
                let offsets = set.offset_row(copy * base_members + site.member);
                if let Replaced::Some(rows) = replaced {
                    if rows.binary_search(&offsets).is_ok() {
                        continue;
                    }
                }
                if stays || hoisted_seen.insert((site.set, offsets)) {
                    site_offsets.push(flat(strides, offsets));
                }
            }
            if site_offsets.is_empty() {
                continue;
            }
            let class = if stays {
                in_place.entry((array, site.conditional)).or_default()
            } else {
                hoisted.entry(array).or_default()
            };
            class.extend_from_slice(&site_offsets);
        }
        let mut raw_arrays: Vec<&str> = in_place
            .keys()
            .map(|&(a, _)| a)
            .chain(hoisted.keys().copied())
            .collect();
        raw_arrays.sort_unstable();
        raw_arrays.dedup();
        for array in raw_arrays {
            let bits = elem_bits(array);
            for cond in [false, true] {
                if let Some(offs) = in_place.remove(&(array, cond)) {
                    c.traffic.push(Traffic {
                        array: array.to_string(),
                        is_write: false,
                        elem_bits: bits,
                        kind: TrafficKind::Body,
                        flat_offsets: offs,
                        conditional: cond,
                    });
                }
            }
            if let Some(offs) = hoisted.remove(array) {
                c.temp_registers += offs.len();
                *reg_classes.entry((bits, true)).or_insert(0) += offs.len();
                // Hoisting fills the temps in an unconditional prefix, so
                // these loads survive any branch folding.
                c.traffic.push(Traffic {
                    array: array.to_string(),
                    is_write: false,
                    elem_bits: bits,
                    kind: TrafficKind::Body,
                    flat_offsets: offs,
                    conditional: false,
                });
            }
        }

        // Peeling also splits levels whose variable a *user* guard tests
        // against zero.
        if opts.peel {
            for (l, loop_) in self.loops().iter().enumerate() {
                if !c.peelable[l]
                    && tests_first_iteration(self.base_body(), &loop_.var, loop_.lower)
                {
                    c.peelable[l] = true;
                }
            }
        } else {
            c.peelable = vec![false; depth];
        }

        c.registers = {
            let mut v: Vec<RegisterClass> = reg_classes
                .into_iter()
                .map(|((bits, load_valued), count)| RegisterClass {
                    bits,
                    count,
                    load_valued,
                })
                .collect();
            v.sort_by_key(|r| (r.bits, r.load_valued));
            v
        };
        Ok(c)
    }

    /// Serialization facts of an accumulator group with write set
    /// `write`: jammed write members sharing one offset update the same
    /// register in sequence.
    fn accumulator_census(&self, write: &UniformSet, var_refs: &[&str]) -> AccumulatorCensus {
        let mut rows: Vec<&[i64]> = write.offset_rows().collect();
        rows.sort_unstable();
        let max_writes = rows
            .chunk_by(|a, b| a == b)
            .map(|run| run.len() as i64)
            .max()
            .unwrap_or(0);
        let mut serial_ops: Option<Vec<(BinOp, bool)>> = Some(Vec::new());
        collect_update_tops(
            self.base_body(),
            &write.array,
            &write.signature,
            var_refs,
            &mut serial_ops,
        );
        AccumulatorCensus {
            array: write.array.to_string(),
            max_writes_per_offset: max_writes,
            serial_ops: serial_ops.filter(|v| !v.is_empty()),
        }
    }
}

/// The loads of one read set that a plan rewrites to register reads.
enum Replaced<'a> {
    /// None: every load of the set stays.
    None,
    /// These distinct offsets, sorted.
    Some(Vec<&'a [i64]>),
    /// Every distinct offset of the set.
    All,
}

/// Row-major flattened address of constant offsets `off` under
/// `strides` (no strides, as for an undeclared array, flatten to 0).
fn flat(strides: &[i64], off: &[i64]) -> i64 {
    off.iter().zip(strides).map(|(&o, &st)| o * st).sum()
}

/// One load of the base body, as the census's raw-load walk reads it.
#[derive(Debug, Clone)]
pub(crate) struct LoadSite {
    /// The read set the load belongs to; jamming keeps set indices.
    set: usize,
    /// The load's position among its base set's members. Jammed members
    /// are copy-major, so copy `t` of the load is member
    /// `t * base_set.len() + member` of the jammed set.
    member: usize,
    /// The load is the entire right-hand side of an assignment.
    sole: bool,
    /// The load sits inside an `if` branch.
    conditional: bool,
}

/// The load sites of a base body, in program order. The `k`-th load
/// occurrence is the `k`-th read of the body's access table: both walk
/// the statements, a condition before its branches, in the same order.
pub(crate) fn load_sites(body: &[Stmt], table: &AccessTable, sets: &[UniformSet]) -> Vec<LoadSite> {
    let mut occurrences = Vec::new();
    collect_load_occurrences(body, false, &mut occurrences);
    occurrences
        .iter()
        .zip(table.reads())
        .filter_map(|(&(access, sole, conditional), read)| {
            debug_assert_eq!(access, &read.access);
            sets.iter().enumerate().find_map(|(set, s)| {
                let member = s.members.iter().position(|&id| id == read.id)?;
                Some(LoadSite {
                    set,
                    member,
                    sole,
                    conditional,
                })
            })
        })
        .collect()
}

/// Collect every load occurrence of a body with its context. The first
/// flag is `true` when the occurrence is the entire right-hand side of an
/// assignment (the hoisting pass skips such statements — they are already
/// single loads into registers); the second is `true` when the occurrence
/// sits inside an `if` branch (a condition's own loads execute whenever
/// the statement does, so they inherit the *enclosing* context).
fn collect_load_occurrences<'a>(
    body: &'a [Stmt],
    conditional: bool,
    out: &mut Vec<(&'a ArrayAccess, bool, bool)>,
) {
    for s in body {
        match s {
            Stmt::Assign { rhs, .. } => {
                if let Expr::Load(a) = rhs {
                    out.push((a, true, conditional));
                } else {
                    for a in rhs.loads() {
                        out.push((a, false, conditional));
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                for a in cond.loads() {
                    out.push((a, false, conditional));
                }
                collect_load_occurrences(then_body, true, out);
                collect_load_occurrences(else_body, true, out);
            }
            _ => {}
        }
    }
}

/// Record the top-level operator of every base write statement of an
/// accumulator group. `out` collapses to `None` as soon as one statement
/// is not a self-read recurrence with a binary top (no serialization
/// floor can then be claimed).
fn collect_update_tops(
    body: &[Stmt],
    array: &str,
    signature: &[Vec<i64>],
    vars: &[&str],
    out: &mut Option<Vec<(BinOp, bool)>>,
) {
    for s in body {
        match s {
            Stmt::Assign {
                lhs: defacto_ir::LValue::Array(a),
                rhs,
            } if a.array == array && a.coeff_signature(vars).as_slice() == signature => {
                let self_read = rhs.loads().contains(&a);
                let top = match rhs {
                    Expr::Binary(op, x, y) => {
                        let has_const =
                            matches!(&**x, Expr::Int(_)) || matches!(&**y, Expr::Int(_));
                        Some((*op, has_const))
                    }
                    _ => None,
                };
                match (self_read, top, out.as_mut()) {
                    (true, Some(t), Some(v)) => v.push(t),
                    _ => *out = None,
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_update_tops(then_body, array, signature, vars, out);
                collect_update_tops(else_body, array, signature, vars, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::transform;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn total_events(c: &PointCensus, array: &str, is_write: bool) -> i64 {
        c.traffic
            .iter()
            .filter(|t| t.array == array && t.is_write == is_write)
            .map(|t| t.events(&c.trips))
            .sum()
    }

    #[test]
    fn fir_census_matches_pipeline_info_and_interpreter_traffic() {
        let k = parse_kernel(FIR).unwrap();
        let p = PreparedKernel::prepare(&k).unwrap();
        let opts = TransformOptions::default();
        let u = UnrollVector(vec![2, 2]);
        let c = p.census(&u, &opts).unwrap();
        let d = transform(&k, &u, &opts).unwrap();
        assert_eq!(c.reuse_registers, d.info.reuse_registers);
        assert_eq!(c.temp_registers, d.info.temp_registers);
        assert_eq!(c.chains, d.info.chains);
        // Interpreter-verified traffic (see scalar.rs tests): S 3/body,
        // C 32 fills total, D 64 loads + 64 stores.
        assert_eq!(total_events(&c, "S", false), 3 * 512);
        assert_eq!(total_events(&c, "C", false), 32);
        assert_eq!(total_events(&c, "D", false), 64);
        assert_eq!(total_events(&c, "D", true), 64);
        // The j loop is peeled (chain fills guard on j == 0); i is not.
        assert_eq!(c.peelable, vec![true, false]);
        assert_eq!(c.rotates_per_body, 2);
        assert!(c.accumulators.len() == 1 && c.accumulators[0].array == "D");
        assert_eq!(c.accumulators[0].max_writes_per_offset, 2);
        assert!(matches!(
            c.accumulators[0].serial_ops.as_deref(),
            Some([(BinOp::Add, false)])
        ));
    }

    #[test]
    fn census_register_counts_match_pipeline_across_fir_space() {
        let k = parse_kernel(FIR).unwrap();
        let p = PreparedKernel::prepare(&k).unwrap();
        let opts = TransformOptions::default();
        for uj in [1i64, 2, 4, 8, 16, 32, 64] {
            for ui in [1i64, 2, 4, 8, 16, 32] {
                let u = UnrollVector(vec![uj, ui]);
                let c = p.census(&u, &opts).unwrap();
                let d = transform(&k, &u, &opts).unwrap();
                assert_eq!(
                    (
                        c.reuse_registers,
                        c.temp_registers,
                        c.chains,
                        c.dropped_by_budget
                    ),
                    (
                        d.info.reuse_registers,
                        d.info.temp_registers,
                        d.info.chains,
                        d.info.dropped_by_budget
                    ),
                    "factors ({uj},{ui})"
                );
                let total: usize = c.registers.iter().map(|r| r.count).sum();
                assert_eq!(total, c.total_registers(), "factors ({uj},{ui})");
            }
        }
    }

    #[test]
    fn census_respects_register_budget() {
        let k = parse_kernel(FIR).unwrap();
        let p = PreparedKernel::prepare(&k).unwrap();
        let opts = TransformOptions {
            register_budget: Some(8),
            ..TransformOptions::default()
        };
        let u = UnrollVector(vec![2, 2]);
        let c = p.census(&u, &opts).unwrap();
        let d = transform(&k, &u, &opts).unwrap();
        assert_eq!(c.dropped_by_budget, 1);
        assert_eq!(c.reuse_registers, d.info.reuse_registers);
        assert_eq!(c.temp_registers, d.info.temp_registers);
        // The dropped chain's loads return to the body: 2 per body.
        assert_eq!(total_events(&c, "C", false), 2 * 512);
    }

    #[test]
    fn census_without_scalar_replacement_counts_every_access() {
        let k = parse_kernel(FIR).unwrap();
        let p = PreparedKernel::prepare(&k).unwrap();
        let opts = TransformOptions {
            scalar_replacement: false,
            ..TransformOptions::default()
        };
        let u = UnrollVector(vec![2, 2]);
        let c = p.census(&u, &opts).unwrap();
        assert_eq!(c.total_registers(), 0);
        // Every access stays: per body 4 loads of S... no — 4 copies each
        // of S, C, D loads and D stores.
        assert_eq!(total_events(&c, "S", false), 4 * 512);
        assert_eq!(total_events(&c, "C", false), 4 * 512);
        assert_eq!(total_events(&c, "D", false), 4 * 512);
        assert_eq!(total_events(&c, "D", true), 4 * 512);
    }

    #[test]
    fn stencil_window_census() {
        let st = parse_kernel(
            "kernel st { in A: i16[66]; out B: i16[64];
               for i in 0..64 { B[i] = A[i] + A[i + 1] + A[i + 2]; } }",
        )
        .unwrap();
        let p = PreparedKernel::prepare(&st).unwrap();
        let c = p
            .census(&UnrollVector(vec![1]), &TransformOptions::default())
            .unwrap();
        // Window of 3 registers, 1 chain; loads 64 + 2 fills (see
        // scalar.rs stencil test).
        assert_eq!(c.reuse_registers, 3);
        assert_eq!(c.chains, 1);
        assert_eq!(total_events(&c, "A", false), 64 + 2);
        assert_eq!(total_events(&c, "B", true), 64);
        assert_eq!(c.peelable, vec![true]);
    }

    #[test]
    fn matmul_census_traffic_matches_interpreter() {
        let mm = parse_kernel(
            "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
               for i in 0..32 { for j in 0..4 { for k in 0..16 {
                 C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }",
        )
        .unwrap();
        let p = PreparedKernel::prepare(&mm).unwrap();
        let c = p
            .census(&UnrollVector(vec![1, 1, 1]), &TransformOptions::default())
            .unwrap();
        assert_eq!(total_events(&c, "A", false), 32 * 16);
        assert_eq!(total_events(&c, "B", false), 16 * 4);
        assert_eq!(total_events(&c, "C", false), 32 * 4);
        assert_eq!(total_events(&c, "C", true), 32 * 4);
    }

    #[test]
    fn census_rejects_what_transform_rejects() {
        let k = parse_kernel(FIR).unwrap();
        let p = PreparedKernel::prepare(&k).unwrap();
        let opts = TransformOptions::default();
        for bad in [vec![3i64, 1], vec![0, 1], vec![2]] {
            let c = p.census(&UnrollVector(bad.clone()), &opts);
            let t = p.transform(&UnrollVector(bad.clone()), &opts);
            assert_eq!(c.is_err(), t.is_err(), "factors {bad:?}");
        }
    }
}
