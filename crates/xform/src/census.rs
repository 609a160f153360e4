//! Tier-0 design-point census: exact structural counts for an unroll
//! vector, computed without materializing any body copy.
//!
//! [`PreparedKernel::census`] replays the *planning* half of scalar
//! replacement — grouping, reuse classification, the §5.4 register
//! budget — against the analytically jammed uniform sets, and records
//! what the full pipeline *would* build: how many registers of which
//! width, which memory-traffic classes remain (and when each executes),
//! which guard/rotate statements the body carries, and which loop levels
//! peeling will split. It never copies the body, never rewrites a
//! statement and never builds a DFG, so it costs microseconds per point
//! instead of milliseconds.
//!
//! The counts are **exact mirrors** of the decisions in
//! [`crate::scalar`], not approximations: the tier-0 analytic estimator
//! (`defacto_synth::analytic`) prices them into a cost band whose
//! soundness rests on this census matching the real planner decision for
//! decision. `PointCensus::reuse_registers`/`temp_registers`/`chains`
//! must equal the [`crate::ScalarReplacementInfo`] of the materialized
//! design bit for bit; tests enforce this across the paper kernels'
//! design spaces.

use crate::error::Result;
use crate::pipeline::{TransformOptions, UnrollVector};
use crate::prepared::PreparedKernel;
use crate::unroll::offset_tuples;
use defacto_analysis::{classify_set_bounded, jammed_uniform_sets, ReuseStrategy, UniformSet};
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
    /// a memory load of its array — in that case bitwidth narrowing
    /// cannot shrink it below the declared width, so the synthesized
    /// register is priced at exactly `bits`.
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
    /// Mirror of [`crate::ScalarReplacementInfo::reuse_registers`].
    pub reuse_registers: usize,
    /// Mirror of [`crate::ScalarReplacementInfo::temp_registers`].
    pub temp_registers: usize,
    /// Mirror of [`crate::ScalarReplacementInfo::chains`].
    pub chains: usize,
    /// Mirror of [`crate::ScalarReplacementInfo::dropped_by_budget`].
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

/// One planned-but-not-yet-applied carried-reuse arm (budget candidate),
/// mirroring `CarriedPlan` of [`crate::scalar`].
enum CarriedCensus {
    Chain {
        set: usize,
        lanes: Vec<Vec<i64>>,
        length: usize,
        guard_levels: Vec<usize>,
    },
    Window {
        set: usize,
        window_dim: usize,
        deepest_varying: usize,
        lanes: Vec<(Vec<i64>, i64, i64)>,
        step: i64,
    },
}

struct GroupIdx {
    read: Option<usize>,
    write: Option<usize>,
}

impl PreparedKernel {
    /// Compute the exact structural census of one design point. Performs
    /// the same validation as [`Self::transform`] (same errors), then
    /// replays the scalar-replacement planning analytically.
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
        let sets = jammed_uniform_sets(self.base_sets(), self.base_table_len(), &tuples);
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
        let elem_bits = |array: &str| {
            self.normalized()
                .array(array)
                .map(|a| a.ty.bits())
                .unwrap_or(32)
        };
        let flat = |array: &str, off: &[i64]| -> i64 {
            match strides.get(array) {
                Some(s) => off.iter().zip(s).map(|(&o, &st)| o * st).sum(),
                None => 0,
            }
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
        let mut add_regs =
            |classes: &mut HashMap<(u32, bool), usize>, bits: u32, load_valued: bool, n: usize| {
                *classes.entry((bits, load_valued)).or_insert(0) += n;
            };
        // Per read-set index: the constant-offset vectors whose loads are
        // rewritten to register reads. Absent key = fully raw set.
        let mut replaced_loads: HashMap<usize, HashSet<Vec<i64>>> = HashMap::new();
        // Write-set indices whose stores are rewritten (accumulators).
        let mut replaced_stores: HashSet<usize> = HashSet::new();

        if opts.scalar_replacement {
            // --- Mirror of `scalar_replace_core` planning. ---

            // Group read/write sets by (array, signature), in set order.
            let mut groups: Vec<GroupIdx> = Vec::new();
            for (i, set) in sets.iter().enumerate() {
                let found = groups.iter_mut().find(|g| {
                    let j = g.read.or(g.write).expect("group has a set");
                    sets[j].array == set.array && sets[j].signature == set.signature
                });
                match found {
                    Some(g) => {
                        if set.is_write {
                            g.write = Some(i);
                        } else {
                            g.read = Some(i);
                        }
                    }
                    None => groups.push(GroupIdx {
                        read: (!set.is_write).then_some(i),
                        write: set.is_write.then_some(i),
                    }),
                }
            }
            let write_sigs: HashMap<&str, Vec<&Vec<Vec<i64>>>> = {
                let mut m: HashMap<&str, Vec<&Vec<Vec<i64>>>> = HashMap::new();
                for s in sets.iter().filter(|s| s.is_write) {
                    m.entry(s.array.as_str()).or_default().push(&s.signature);
                }
                m
            };

            let conditional = |i: usize| -> bool { self.cond_flag(sets[i].members[0]) };

            let mut carried: Vec<(usize, CarriedCensus)> = Vec::new(); // (cost, plan)

            for g in &groups {
                let probe_idx = g.read.or(g.write).expect("group has a set");
                let array = sets[probe_idx].array.as_str();
                let signature = &sets[probe_idx].signature;
                let any_conditional = g.read.map(conditional).unwrap_or(false)
                    || g.write.map(conditional).unwrap_or(false);
                let foreign_writes = write_sigs
                    .get(array)
                    .map(|sigs| sigs.iter().any(|s| **s != *signature))
                    .unwrap_or(false);
                if any_conditional || foreign_writes {
                    continue;
                }
                let strategy = classify_set_bounded(&sets[probe_idx], &trips);
                match (&strategy, g.read, g.write) {
                    (
                        ReuseStrategy::Consistent {
                            deepest_varying,
                            hoist_inner,
                            ..
                        },
                        read,
                        Some(write),
                    ) if *hoist_inner >= 1 => {
                        if !opts.redundant_write_elim {
                            continue;
                        }
                        self.census_accumulator(
                            &mut c,
                            &mut reg_classes,
                            &mut add_regs,
                            &sets,
                            read,
                            write,
                            *deepest_varying,
                            &flat,
                            &elem_bits,
                            &mut replaced_loads,
                            &mut replaced_stores,
                            &var_refs,
                        );
                    }
                    (ReuseStrategy::FullyInvariant, Some(read), None) => {
                        let offs = sets[read].distinct_offsets();
                        let bits = elem_bits(array);
                        add_regs(&mut reg_classes, bits, true, offs.len());
                        c.reuse_registers += offs.len();
                        c.traffic.push(Traffic {
                            array: array.to_string(),
                            is_write: false,
                            elem_bits: bits,
                            kind: TrafficKind::Top,
                            flat_offsets: offs.iter().map(|o| flat(array, o)).collect(),
                            conditional: false,
                        });
                        replaced_loads.insert(read, offs.into_iter().collect());
                    }
                    (
                        ReuseStrategy::Consistent {
                            deepest_varying,
                            hoist_inner,
                            ..
                        },
                        Some(read),
                        None,
                    ) if *hoist_inner >= 1 => {
                        let offs = sets[read].distinct_offsets();
                        let bits = elem_bits(array);
                        add_regs(&mut reg_classes, bits, true, offs.len());
                        c.reuse_registers += offs.len();
                        c.traffic.push(Traffic {
                            array: array.to_string(),
                            is_write: false,
                            elem_bits: bits,
                            kind: TrafficKind::AtLevel(*deepest_varying),
                            flat_offsets: offs.iter().map(|o| flat(array, o)).collect(),
                            conditional: false,
                        });
                        replaced_loads.insert(read, offs.into_iter().collect());
                    }
                    (
                        ReuseStrategy::Consistent {
                            deepest_varying,
                            outer_reuse: Some(or),
                            ..
                        },
                        Some(read),
                        None,
                    ) => {
                        // Mirror of `plan_chain`.
                        let varying = sets[read].varying_levels();
                        let mut length: i64 = 1;
                        for &v in varying.iter().filter(|&&v| v > *or) {
                            length *= trips[v];
                        }
                        if length <= 0 || length > 4096 {
                            continue;
                        }
                        let lanes = sets[read].distinct_offsets();
                        let mut guard_levels = vec![*or];
                        guard_levels
                            .extend((*or + 1..*deepest_varying).filter(|l| !varying.contains(l)));
                        let cost = lanes.len() * length as usize;
                        carried.push((
                            cost,
                            CarriedCensus::Chain {
                                set: read,
                                lanes,
                                length: length as usize,
                                guard_levels,
                            },
                        ));
                    }
                    (
                        ReuseStrategy::Consistent {
                            deepest_varying,
                            outer_reuse: None,
                            hoist_inner: 0,
                        },
                        Some(read),
                        None,
                    ) => {
                        // Mirror of `plan_window`.
                        let dims: Vec<usize> = signature
                            .iter()
                            .enumerate()
                            .filter(|(_, row)| row[*deepest_varying] != 0)
                            .map(|(d, _)| d)
                            .collect();
                        let [window_dim] = dims.as_slice() else {
                            continue;
                        };
                        let window_dim = *window_dim;
                        if signature[window_dim][*deepest_varying] != 1 {
                            continue;
                        }
                        let step = factors[*deepest_varying];
                        let mut lanes: Vec<(Vec<i64>, i64, i64)> = Vec::new();
                        let mut lane_index: HashMap<Vec<i64>, usize> = HashMap::new();
                        for off in sets[read].distinct_offsets() {
                            let key: Vec<i64> = off
                                .iter()
                                .enumerate()
                                .filter(|(d, _)| *d != window_dim)
                                .map(|(_, &v)| v)
                                .collect();
                            let w = off[window_dim];
                            match lane_index.get(&key) {
                                Some(&i) => {
                                    let (_, lo, hi) = &mut lanes[i];
                                    *lo = (*lo).min(w);
                                    *hi = (*hi).max(w);
                                }
                                None => {
                                    lane_index.insert(key.clone(), lanes.len());
                                    lanes.push((key, w, w));
                                }
                            }
                        }
                        lanes.retain(|(_, lo, hi)| hi - lo + 1 > step);
                        if lanes.is_empty() {
                            continue;
                        }
                        let cost: i64 = lanes.iter().map(|(_, lo, hi)| hi - lo + 1).sum();
                        carried.push((
                            cost as usize,
                            CarriedCensus::Window {
                                set: read,
                                window_dim,
                                deepest_varying: *deepest_varying,
                                lanes,
                                step,
                            },
                        ));
                    }
                    (
                        ReuseStrategy::Consistent {
                            deepest_varying,
                            hoist_inner,
                            ..
                        },
                        None,
                        Some(write),
                    ) if *hoist_inner >= 1 => {
                        if !opts.redundant_write_elim {
                            continue;
                        }
                        self.census_accumulator(
                            &mut c,
                            &mut reg_classes,
                            &mut add_regs,
                            &sets,
                            None,
                            write,
                            *deepest_varying,
                            &flat,
                            &elem_bits,
                            &mut replaced_loads,
                            &mut replaced_stores,
                            &var_refs,
                        );
                    }
                    _ => {}
                }
            }

            // §5.4 register budget: smallest-cost-first, same stable sort.
            carried.sort_by_key(|(cost, _)| *cost);
            let mut remaining = opts
                .register_budget
                .map(|b| b.saturating_sub(c.reuse_registers))
                .unwrap_or(usize::MAX);
            for (cost, plan) in carried {
                if cost > remaining {
                    c.dropped_by_budget += 1;
                    continue;
                }
                remaining -= cost;
                match plan {
                    CarriedCensus::Chain {
                        set,
                        lanes,
                        length,
                        guard_levels,
                    } => {
                        let array = sets[set].array.as_str();
                        let bits = elem_bits(array);
                        for lane_off in &lanes {
                            add_regs(&mut reg_classes, bits, true, length);
                            c.reuse_registers += length;
                            c.traffic.push(Traffic {
                                array: array.to_string(),
                                is_write: false,
                                elem_bits: bits,
                                kind: TrafficKind::Guarded(guard_levels.clone()),
                                flat_offsets: vec![flat(array, lane_off)],
                                conditional: false,
                            });
                            if length >= 2 {
                                c.rotates_per_body += 1;
                            }
                            c.guard_eqs_per_body += guard_levels.len() as i64;
                            c.guard_ands_per_body += guard_levels.len() as i64 - 1;
                        }
                        c.chains += lanes.len();
                        for &l in &guard_levels {
                            c.peelable[l] = true;
                        }
                        replaced_loads.insert(set, lanes.into_iter().collect());
                    }
                    CarriedCensus::Window {
                        set,
                        window_dim,
                        deepest_varying,
                        lanes,
                        step,
                    } => {
                        let array = sets[set].array.as_str();
                        let bits = elem_bits(array);
                        // Group all distinct offsets by lane key, like
                        // `apply_carried` does.
                        let all_offsets = sets[set].distinct_offsets();
                        let mut by_lane: HashMap<Vec<i64>, Vec<&Vec<i64>>> = HashMap::new();
                        for off in &all_offsets {
                            let key: Vec<i64> = off
                                .iter()
                                .enumerate()
                                .filter(|(d, _)| *d != window_dim)
                                .map(|(_, &v)| v)
                                .collect();
                            by_lane.entry(key).or_default().push(off);
                        }
                        let mut replaced: HashSet<Vec<i64>> = HashSet::new();
                        for (key, lo, hi) in &lanes {
                            let lane_offsets = &by_lane[key];
                            let span = (hi - lo + 1) as usize;
                            let carried_regs = span.saturating_sub(step as usize);
                            add_regs(&mut reg_classes, bits, true, span);
                            c.reuse_registers += span;
                            let proto: Vec<i64> = lane_offsets[0].clone();
                            let patched = |wpos: i64| -> Vec<i64> {
                                let mut off = proto.clone();
                                off[window_dim] = wpos;
                                off
                            };
                            if carried_regs > 0 {
                                c.traffic.push(Traffic {
                                    array: array.to_string(),
                                    is_write: false,
                                    elem_bits: bits,
                                    kind: TrafficKind::Guarded(vec![deepest_varying]),
                                    flat_offsets: (0..carried_regs)
                                        .map(|p| flat(array, &patched(lo + p as i64)))
                                        .collect(),
                                    conditional: false,
                                });
                                c.guard_eqs_per_body += 1;
                                c.peelable[deepest_varying] = true;
                            }
                            if span > carried_regs {
                                c.traffic.push(Traffic {
                                    array: array.to_string(),
                                    is_write: false,
                                    elem_bits: bits,
                                    kind: TrafficKind::Body,
                                    flat_offsets: (carried_regs..span)
                                        .map(|p| flat(array, &patched(lo + p as i64)))
                                        .collect(),
                                    conditional: false,
                                });
                            }
                            if carried_regs > 0 && span >= 2 {
                                c.rotates_per_body += step;
                            }
                            c.chains += 1;
                            for off in lane_offsets {
                                replaced.insert((*off).clone());
                            }
                        }
                        replaced_loads.insert(set, replaced);
                    }
                }
            }
        }

        // --- Raw (unreplaced) traffic, mirroring the body rewrite +
        // `hoist_remaining_loads`. ---

        // Arrays with any raw store keep their loads in place.
        let stored_arrays: HashSet<&str> = sets
            .iter()
            .enumerate()
            .filter(|(i, s)| s.is_write && !replaced_stores.contains(i))
            .map(|(_, s)| s.array.as_str())
            .collect();

        // Raw stores: one store per member per body.
        for (i, set) in sets.iter().enumerate() {
            if !set.is_write || replaced_stores.contains(&i) {
                continue;
            }
            c.traffic.push(Traffic {
                array: set.array.to_string(),
                is_write: true,
                elem_bits: elem_bits(&set.array),
                kind: TrafficKind::Body,
                flat_offsets: set.offsets.iter().map(|o| flat(&set.array, o)).collect(),
                conditional: self.cond_flag(set.members[0]),
            });
        }

        // Raw loads: walk the base body's load occurrences, expand each
        // by the jam tuples, and split in-place loads (stored arrays and
        // sole-load statements, which `hoist_remaining_loads` skips) from
        // hoisted ones (one temp register per distinct address).
        let mut occurrences: Vec<(&ArrayAccess, bool, bool)> = Vec::new();
        collect_load_occurrences(self.base_body(), false, &mut occurrences);
        // In-place loads split by user-`if` context: conditional loads may
        // be folded away with their branch, so they form separate classes.
        let mut in_place: HashMap<(&str, bool), Vec<i64>> = HashMap::new();
        // Distinct hoisted addresses in deterministic (first-seen) order.
        let mut hoisted_seen: HashSet<(String, Vec<Vec<i64>>, Vec<i64>)> = HashSet::new();
        let mut hoisted: HashMap<&str, Vec<i64>> = HashMap::new();
        for (access, sole, cond) in &occurrences {
            let array = access.array.as_str();
            let sig = access.coeff_signature(&var_refs);
            let base_off: Vec<i64> = access.indices.iter().map(|e| e.constant_term()).collect();
            let set_idx = sets
                .iter()
                .position(|s| !s.is_write && s.array == array && s.signature == sig);
            let replaced = set_idx.and_then(|i| replaced_loads.get(&i));
            for t in &tuples {
                let jo: Vec<i64> = base_off
                    .iter()
                    .enumerate()
                    .map(|(d, &b)| b + sig[d].iter().zip(t).map(|(&co, &tv)| co * tv).sum::<i64>())
                    .collect();
                if replaced.map(|r| r.contains(&jo)).unwrap_or(false) {
                    continue;
                }
                if !opts.scalar_replacement || *sole || stored_arrays.contains(array) {
                    in_place
                        .entry((array, *cond))
                        .or_default()
                        .push(flat(array, &jo));
                } else if hoisted_seen.insert((array.to_string(), sig.clone(), jo.clone())) {
                    hoisted.entry(array).or_default().push(flat(array, &jo));
                }
            }
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
                add_regs(&mut reg_classes, bits, true, offs.len());
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
            for (l, var) in self.var_names().iter().enumerate() {
                if !c.peelable[l] && body_tests_var_zero(self.base_body(), var) {
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

    /// Mirror of `plan_accumulator`: registers for the union of
    /// read/write offsets, hoisted loads + sunk stores at the deepest
    /// varying level, plus the serialization facts for the compute floor.
    #[allow(clippy::too_many_arguments)]
    fn census_accumulator(
        &self,
        c: &mut PointCensus,
        reg_classes: &mut HashMap<(u32, bool), usize>,
        add_regs: &mut impl FnMut(&mut HashMap<(u32, bool), usize>, u32, bool, usize),
        sets: &[UniformSet],
        read: Option<usize>,
        write: usize,
        deepest_varying: usize,
        flat: &impl Fn(&str, &[i64]) -> i64,
        elem_bits: &impl Fn(&str) -> u32,
        replaced_loads: &mut HashMap<usize, HashSet<Vec<i64>>>,
        replaced_stores: &mut HashSet<usize>,
        var_refs: &[&str],
    ) {
        let array = sets[write].array.as_str();
        let bits = elem_bits(array);
        let write_offsets = sets[write].distinct_offsets();
        let read_offsets: Vec<Vec<i64>> =
            read.map(|i| sets[i].distinct_offsets()).unwrap_or_default();
        let mut union = write_offsets.clone();
        for o in &read_offsets {
            if !union.contains(o) {
                union.push(o.clone());
            }
        }
        for off in &union {
            let load_valued = read_offsets.contains(off);
            add_regs(reg_classes, bits, load_valued, 1);
        }
        c.reuse_registers += union.len();
        if !read_offsets.is_empty() {
            c.traffic.push(Traffic {
                array: array.to_string(),
                is_write: false,
                elem_bits: bits,
                kind: TrafficKind::AtLevel(deepest_varying),
                flat_offsets: read_offsets.iter().map(|o| flat(array, o)).collect(),
                conditional: false,
            });
        }
        c.traffic.push(Traffic {
            array: array.to_string(),
            is_write: true,
            elem_bits: bits,
            kind: TrafficKind::AtLevel(deepest_varying),
            flat_offsets: write_offsets.iter().map(|o| flat(array, o)).collect(),
            conditional: false,
        });
        if let Some(r) = read {
            replaced_loads.insert(r, read_offsets.into_iter().collect());
        }
        replaced_stores.insert(write);

        // Serialization: jammed write members sharing one offset update
        // the same register in sequence.
        let mut per_offset: HashMap<&Vec<i64>, i64> = HashMap::new();
        for off in &sets[write].offsets {
            *per_offset.entry(off).or_insert(0) += 1;
        }
        let max_writes = per_offset.values().copied().max().unwrap_or(0);
        let signature = &sets[write].signature;
        let mut serial_ops: Option<Vec<(BinOp, bool)>> = Some(Vec::new());
        collect_update_tops(
            self.base_body(),
            array,
            signature,
            var_refs,
            &mut serial_ops,
        );
        c.accumulators.push(AccumulatorCensus {
            array: array.to_string(),
            max_writes_per_offset: max_writes,
            serial_ops: serial_ops.filter(|v| !v.is_empty()),
        });
    }
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

/// Does any `if` condition in the body test `var == 0` (the pattern loop
/// peeling splits on)?
fn body_tests_var_zero(body: &[Stmt], var: &str) -> bool {
    fn expr_tests(e: &Expr, var: &str) -> bool {
        match e {
            Expr::Binary(BinOp::Eq, a, b) => {
                matches!((&**a, &**b), (Expr::Scalar(v), Expr::Int(0)) if v == var)
            }
            Expr::Binary(BinOp::And, a, b) => expr_tests(a, var) || expr_tests(b, var),
            _ => false,
        }
    }
    body.iter().any(|s| match s {
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            expr_tests(cond, var)
                || body_tests_var_zero(then_body, var)
                || body_tests_var_zero(else_body, var)
        }
        _ => false,
    })
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
