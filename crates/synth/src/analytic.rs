//! Tier-0 analytic estimation: a cost *band* for a design point computed
//! from the [`PreparedKernel`] census alone — no body copying, no DFG
//! construction, no scheduling.
//!
//! [`AnalyticModel`] prices the exact structural counts of
//! [`PreparedKernel::census`] into an [`AnalyticBand`] that provably
//! brackets what [`crate::estimate::estimate_opts`] would report for the
//! fully transformed design:
//!
//! - **cycles**: the loop setup/iteration overhead is computed exactly
//!   (peeling-aware); segment schedule lengths are bracketed between the
//!   resource floors (memory-port occupancy over the usable banks, the
//!   serialized accumulator-update chain) and the fully serial sum of
//!   every node's latency and occupancy;
//! - **slices**: bracketed between the irreducible register/interface
//!   floor and a width-monotone upper bound that prices every static
//!   operator instance at the widest bits the DFG width rules can assign;
//! - **memory/compute busy time, bits from memory**: from the census
//!   traffic classes (exact without small-type packing, banded with it);
//! - **registers**: exact (the census folds the scalar-replacement plan
//!   the transform materializes).
//!
//! The band's soundness is what branch-and-bound's pruning proof
//! rests on (see `defacto-core`): a point whose `cycles_lo` already
//! exceeds the best certainly-fitting `cycles_hi` can never win the
//! paper's best-performance selection, so it is safe to skip its tier-1
//! evaluation. Property tests in this module and `defacto-core` assert
//! band containment across the paper kernels' design spaces and randomly
//! generated kernel/point pairs.
//!
//! The model declines (`AnalyticModel::new` returns `None`) when designer
//! operator bounds are in effect: constrained schedules serialize in ways
//! the closed form does not bracket, and the paper applies constraints
//! only to individual designs, not to sweeps.

use crate::constraints::ResourceConstraints;
use crate::device::FpgaDevice;
use crate::estimate::{
    Estimate, Provenance, SynthesisOptions, LOOP_CONTROL_SLICES, LOOP_ITER_OVERHEAD,
    LOOP_SETUP_OVERHEAD,
};
use crate::memory::MemoryModel;
use crate::oplib::{
    fsm_state_slices_ceil, op_spec, register_slices, HwOp, FSM_BASE_SLICES, MEMORY_INTERFACE_SLICES,
};
use crate::schedule::ListPriority;
use defacto_analysis::{array_seed, narrowed_bits, Interval};
use defacto_ir::{BinOp, Expr, Kernel, LValue, Name, Stmt};
use defacto_xform::layout::group_accesses;
use defacto_xform::simplify::{fold_rule, unary_rule, Fold, Literal};
use defacto_xform::{PointCensus, PreparedKernel, TrafficKind, TransformOptions, UnrollVector};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tier-0 prediction for one design point: every tier-1 quantity as a
/// closed interval, plus the exact quantities the census determines
/// outright.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AnalyticBand {
    /// Execution-cycle band.
    pub cycles_lo: u64,
    /// Execution-cycle band.
    pub cycles_hi: u64,
    /// Area band in slices.
    pub slices_lo: u32,
    /// Area band in slices.
    pub slices_hi: u32,
    /// Memory-busy band.
    pub mem_busy_lo: u64,
    /// Memory-busy band.
    pub mem_busy_hi: u64,
    /// Compute-busy band.
    pub comp_busy_lo: u64,
    /// Compute-busy band.
    pub comp_busy_hi: u64,
    /// External-memory traffic band in bits.
    pub bits_lo: u64,
    /// External-memory traffic band in bits.
    pub bits_hi: u64,
    /// Exact register count (originals + introduced).
    pub registers: usize,
    /// Balance band (`B = F/C`), ±∞ guarded like the estimator's.
    pub balance_lo: f64,
    /// Balance band (`B = F/C`), ±∞ guarded like the estimator's.
    pub balance_hi: f64,
    /// The design *may* fit the device (`slices_lo` fits).
    pub fits_possible: bool,
    /// The design *certainly* fits the device (`slices_hi` fits).
    pub fits_certain: bool,
    /// Clock period of the device model (ns).
    pub clock_ns: u32,
}

impl AnalyticBand {
    /// Does this band bracket a full tier-1 estimate? This is the
    /// soundness invariant of tier-0 pruning.
    pub fn contains(&self, e: &Estimate) -> bool {
        self.cycles_lo <= e.cycles
            && e.cycles <= self.cycles_hi
            && self.slices_lo <= e.slices
            && e.slices <= self.slices_hi
            && self.mem_busy_lo <= e.memory_busy_cycles
            && e.memory_busy_cycles <= self.mem_busy_hi
            && self.comp_busy_lo <= e.compute_busy_cycles
            && e.compute_busy_cycles <= self.comp_busy_hi
            && self.bits_lo <= e.bits_from_memory
            && e.bits_from_memory <= self.bits_hi
            && e.registers == self.registers
            && self.balance_lo <= e.balance
            && e.balance <= self.balance_hi
            && (!self.fits_certain || e.fits)
            && (self.fits_possible || !e.fits)
            && e.clock_ns == self.clock_ns
    }

    /// Band-midpoint execution time in microseconds (for pure-analytic
    /// ranking).
    pub fn mid_exec_time_us(&self) -> f64 {
        let mid = self.cycles_lo / 2 + self.cycles_hi / 2;
        mid as f64 * self.clock_ns as f64 / 1000.0
    }
}

/// One operator class of the base body: hardware op, the widest bits the
/// DFG can assign its nodes, instances per base-body copy.
#[derive(Debug, Default)]
struct BaseOps {
    /// `(op, width-upper-bound) -> uses per base-body copy`.
    classes: HashMap<(HwOp, u32), u32>,
    /// Σ latency at the width upper bound over one base-body copy.
    lat_sum: u64,
}

impl BaseOps {
    fn push(&mut self, op: HwOp, w: u32) {
        let w = w.max(1);
        *self.classes.entry((op, w)).or_insert(0) += 1;
        self.lat_sum += op_spec(op, w).latency as u64;
    }
}

/// What the lower-bound walk can promise about one base-body value, in
/// every jammed/steady copy of the body the transform can produce.
#[derive(Debug, Clone, Copy)]
enum LoVal {
    /// A literal the constant folder sees, with its exact value.
    Lit(i64),
    /// Possibly a literal in some unrolled copy (anything derived from a
    /// loop-variable read, which full unrolling substitutes away) — no
    /// latency or area credit may rest on it.
    MaybeLit,
    /// Certainly a non-literal value: `(serial latency floor, value-width
    /// floor)`. The width floor bounds the operand width every copy's DFG
    /// node must reach, under the active narrowing mode.
    Val(u64, u32),
}

/// Only a known literal is one to the fold rules: a value that may become
/// a literal in some copy folds in some copies and not in others, which
/// the lower walk handles itself.
impl Literal for LoVal {
    fn literal(&self) -> Option<i64> {
        match self {
            LoVal::Lit(v) => Some(*v),
            LoVal::MaybeLit | LoVal::Val(..) => None,
        }
    }
}

/// Guaranteed-to-materialize facts about the base body: operator classes
/// that survive constant folding in every steady copy (at width floors)
/// and, per array, the minimum serial latency feeding its body stores.
#[derive(Debug, Default)]
struct BaseLower {
    /// `(op, width-lower-bound) -> uses per base-body copy`.
    classes: HashMap<(HwOp, u32), u32>,
    /// Per array: min over its unconditional stores of the store value's
    /// guaranteed serial op latency.
    store_depth: HashMap<Name, u64>,
}

impl BaseLower {
    fn push(&mut self, op: HwOp, w: u32) {
        *self.classes.entry((op, w.max(1))).or_insert(0) += 1;
    }
}

const MAX_IBITS: u32 = 65;

/// The tier-0 analytic estimator for one prepared kernel on one
/// memory/device target. Construction walks the base body once to
/// classify its operators; [`Self::evaluate`] then prices any legal
/// unroll vector in microseconds.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    prepared: Arc<PreparedKernel>,
    topts: TransformOptions,
    sopts: SynthesisOptions,
    mem: MemoryModel,
    dev: FpgaDevice,
    classes: Vec<(HwOp, u32, u32)>,
    base_lat_sum: u64,
    /// Operator classes certain to survive folding in every steady copy,
    /// at width floors: the slices lower bound's datapath term.
    lower_classes: Vec<(HwOp, u32, u32)>,
    /// Per array: guaranteed serial latency feeding its body stores.
    store_depth_lo: HashMap<Name, u64>,
    /// Arrays whose accesses all share one coefficient signature — the
    /// renamability condition `assign_memories` checks, preserved by the
    /// affine transformations (substitutions apply uniformly, scalar
    /// replacement only removes accesses, fills reuse set signatures).
    renamable: HashSet<String>,
    /// Per element width: the least load width floor (`load_width_lo`
    /// under narrowing) among the arrays of that width the body loads.
    load_floors: Vec<(u32, u32)>,
    /// Declared widths of the source kernel's scalars.
    original_scalars: Vec<u32>,
    /// Per loop level: non-subscript reads of the level's variable in one
    /// base-body copy. The jam rewrites each such read in an offset copy
    /// to `var + offset` — a real `AddSub` node the base classes never
    /// see, priced separately per point.
    loop_var_reads: Vec<u32>,
}

impl AnalyticModel {
    /// Build the model, or `None` when designer operator constraints are
    /// in effect (the analytic form does not bracket constrained
    /// schedules — such points must take the full tier-1 path).
    pub fn new(
        prepared: Arc<PreparedKernel>,
        mem: MemoryModel,
        dev: FpgaDevice,
        topts: TransformOptions,
        sopts: SynthesisOptions,
    ) -> Option<Self> {
        if sopts.constraints != ResourceConstraints::default() {
            return None;
        }
        let mut base = BaseOps::default();
        walk_stmts(
            prepared.base_body(),
            prepared.normalized(),
            false,
            &mut base,
        );
        let original_scalars = prepared
            .normalized()
            .scalars()
            .iter()
            .map(|s| s.ty.bits())
            .collect();
        let loop_var_reads: Vec<u32> = prepared
            .var_names()
            .iter()
            .map(|v| count_scalar_reads(prepared.base_body(), v))
            .collect();
        let mut classes: Vec<(HwOp, u32, u32)> = base
            .classes
            .iter()
            .map(|(&(op, w), &n)| (op, w, n))
            .collect();
        classes.sort();
        let mut lower = BaseLower::default();
        let mut env = HashMap::new();
        lower_stmts(
            prepared.base_body(),
            prepared.normalized(),
            sopts.bitwidth_narrowing,
            &mut env,
            &mut lower,
            true,
        );
        let mut lower_classes: Vec<(HwOp, u32, u32)> = lower
            .classes
            .iter()
            .map(|(&(op, w), &n)| (op, w, n))
            .collect();
        lower_classes.sort();
        let norm = prepared.normalized();
        let vars = norm.loop_vars();
        let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
        // One walk: the load-width floor of every array of each element
        // width the body loads, and layout's renamability rule.
        let mut load_floors: Vec<(u32, u32)> = Vec::new();
        let mut floored: Vec<bool> = Vec::new();
        let groups = group_accesses(norm.body(), &var_refs, |at, acc, is_write| {
            if at == floored.len() {
                floored.push(false);
            }
            if is_write || std::mem::replace(&mut floored[at], true) {
                return;
            }
            let Some(decl) = norm.array(&acc.array) else {
                return;
            };
            let (bits, floor) = (decl.ty.bits(), load_width_lo(norm, &acc.array, true));
            match load_floors.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, least)) => *least = (*least).min(floor),
                None => load_floors.push((bits, floor)),
            }
        });
        let renamable: HashSet<String> = norm
            .arrays()
            .iter()
            .filter(|a| {
                !groups
                    .iter()
                    .any(|(g, uniform)| !uniform && g.array == a.name)
            })
            .map(|a| a.name.clone())
            .collect();
        Some(AnalyticModel {
            prepared,
            topts,
            sopts,
            mem,
            dev,
            classes,
            base_lat_sum: base.lat_sum,
            lower_classes,
            store_depth_lo: lower.store_depth,
            renamable,
            load_floors,
            original_scalars,
            loop_var_reads,
        })
    }

    /// Width floor, under narrowing, of a register filled from loads of
    /// an array with `bits`-wide elements. The census does not say which
    /// array fills it, so this is the least floor among the arrays of
    /// that width the body loads.
    fn load_register_floor(&self, bits: u32) -> u32 {
        self.load_floors
            .iter()
            .find(|&&(b, _)| b == bits)
            .map_or(1, |&(_, floor)| floor)
    }

    /// The prepared kernel the model prices.
    pub fn prepared(&self) -> &Arc<PreparedKernel> {
        &self.prepared
    }

    /// Price one design point. Fails with exactly the per-point errors of
    /// [`PreparedKernel::transform`] (illegal factors, broken jam).
    pub fn evaluate(&self, unroll: &UnrollVector) -> defacto_xform::Result<AnalyticBand> {
        let census = self.prepared.census(unroll, &self.topts)?;
        Ok(self.price(&census))
    }

    /// Price an already-computed census.
    pub fn price(&self, c: &PointCensus) -> AnalyticBand {
        let depth = c.trips.len();
        let peel_on = self.topts.peel;
        let bodies = c.bodies.max(0) as u64;
        let product = c.product.max(0) as u64;

        // Loop setup/iteration overhead: exact, peeling-aware. A peeled
        // level keeps a steady loop of `t - 1` iterations (none when
        // `t == 1`); entries equal the enclosing iteration product.
        let mut ovh: u64 = 0;
        let mut loops_lo: u32 = 0;
        let mut ctx: u64 = 1;
        for l in 0..depth {
            let t = c.trips[l].max(0) as u64;
            let steady = t - u64::from(c.peelable[l] && t > 0);
            if steady >= 1 {
                ovh = ovh.saturating_add(
                    ctx.saturating_mul(LOOP_SETUP_OVERHEAD + steady * LOOP_ITER_OVERHEAD),
                );
                loops_lo += 1;
            }
            ctx = ctx.saturating_mul(t);
        }

        // Memory traffic. Upper side: every event at full latency +
        // occupancy. Lower side: only events certain to occupy a port —
        // with packing, loads sharing a word ride one fetch, so body-
        // context loads are pooled per array and deduplicated by word,
        // and packed non-body classes are dropped (maximal riding).
        let rd = (
            self.mem.read_latency as u64,
            self.mem.read_occupancy() as u64,
        );
        let wr = (
            self.mem.write_latency as u64,
            self.mem.write_occupancy() as u64,
        );
        let word_bits = self.mem.width_bits;
        let mut traffic_cyc_hi: u64 = 0;
        let mut mem_hi: u64 = 0;
        let mut bits_hi: u64 = 0;
        let mut occ_lo: u64 = 0;
        let mut bits_lo: u64 = 0;
        let mut fills_per_body: u64 = 0;
        let mut body_pool: HashMap<&str, (u32, Vec<i64>)> = HashMap::new();
        for t in &c.traffic {
            // Without peeling, guarded fills are predicated in the body
            // and issue unconditionally once per body.
            let execs = match (&t.kind, peel_on) {
                (TrafficKind::Guarded(_), false) => c.bodies,
                _ => t.executions(&c.trips),
            }
            .max(0) as u64;
            let n = t.flat_offsets.len() as u64;
            let events = execs.saturating_mul(n);
            let (lat, occ) = if t.is_write { wr } else { rd };
            traffic_cyc_hi = traffic_cyc_hi.saturating_add(events.saturating_mul(lat + occ));
            mem_hi = mem_hi.saturating_add(events.saturating_mul(occ));
            bits_hi = bits_hi.saturating_add(events.saturating_mul(t.elem_bits as u64));
            if !t.is_write {
                if let TrafficKind::Guarded(_) = t.kind {
                    fills_per_body += n;
                }
            }
            let packed = self.sopts.pack_small_types && t.elem_bits < word_bits;
            if t.conditional {
                // Conditional classes execute under a user `if`; peeling's
                // trip-1 substitution plus constant folding may remove the
                // branch (and its accesses) from the materialized design
                // entirely, so the lower bound takes no credit for them.
            } else if t.is_write || !packed {
                occ_lo = occ_lo.saturating_add(events.saturating_mul(occ));
                bits_lo = bits_lo.saturating_add(events.saturating_mul(t.elem_bits as u64));
            } else {
                // Packed loads: pool the classes that certainly execute in
                // the innermost-body segment (one fetch per distinct word
                // per body); headers and peeled fills may ride — drop.
                let body_ctx = matches!(t.kind, TrafficKind::Body)
                    || (!peel_on && matches!(t.kind, TrafficKind::Guarded(_)))
                    || matches!(&t.kind, TrafficKind::AtLevel(l) if *l + 1 == depth);
                if body_ctx {
                    let epw = (word_bits / t.elem_bits.max(1)).max(1) as i64;
                    let entry = body_pool
                        .entry(t.array.as_str())
                        .or_insert_with(|| (t.elem_bits, Vec::new()));
                    entry
                        .1
                        .extend(t.flat_offsets.iter().map(|o| o.div_euclid(epw)));
                }
            }
        }
        for (_, (elem_bits, mut words)) in body_pool {
            words.sort_unstable();
            words.dedup();
            let fetches = bodies.saturating_mul(words.len() as u64);
            occ_lo = occ_lo.saturating_add(fetches.saturating_mul(rd.1));
            bits_lo = bits_lo.saturating_add(fetches.saturating_mul(elem_bits as u64));
        }

        // Usable memory banks: layout spreads arrays over the board's
        // memories, the scheduler folds banks modulo the model's count.
        let m_eff = if self.topts.custom_layout {
            self.topts.num_memories.min(self.mem.num_memories).max(1) as u64
        } else {
            1
        };
        let mem_lo = occ_lo.div_ceil(m_eff);

        // Compute. Upper side: every operator latency fully serialized
        // (plus 1-cycle rotates and, without peeling, the predicated fill
        // guards' comparators). Lower side: the serialized accumulator
        // register-update chain — `max_writes_per_offset` dependent
        // updates per body, each at its op's width-independent minimum
        // latency (zero when a constant operand admits strength reduction
        // or identity folding).
        let guard_lat = if peel_on {
            0
        } else {
            c.guard_eqs_per_body.max(0) as u64
        };
        // Jam-introduced index arithmetic: each non-subscript read of the
        // level-l loop variable becomes `var + offset` in every body copy
        // with a nonzero level-l offset — `product - product/U_l` copies.
        // (Subscript reads fold into the affine constant term instead.)
        let mut jam_adds: u64 = 0;
        for (l, &reads) in self.loop_var_reads.iter().enumerate() {
            let u = c.factors.get(l).copied().unwrap_or(1).max(1) as u64;
            if u > 1 {
                jam_adds =
                    jam_adds.saturating_add((reads as u64).saturating_mul(product - product / u));
            }
        }
        let jam_add_lat = jam_adds.saturating_mul(op_spec(HwOp::AddSub, 33).latency as u64);
        let body_op_lat = product
            .saturating_mul(self.base_lat_sum)
            .saturating_add(guard_lat)
            .saturating_add(jam_add_lat);
        let comp_hi = bodies.saturating_mul(body_op_lat);
        let steady_bodies: u64 = c
            .trips
            .iter()
            .zip(&c.peelable)
            .map(|(&t, &p)| if p { (t - 1).max(0) } else { t.max(0) } as u64)
            .product();
        let mut comp_lo: u64 = 0;
        for a in &c.accumulators {
            if let Some(tops) = &a.serial_ops {
                if let Some(ml) = tops
                    .iter()
                    .map(|&(op, has_const)| min_serial_lat(op, has_const))
                    .min()
                {
                    comp_lo = comp_lo.max(
                        steady_bodies
                            .saturating_mul(a.max_writes_per_offset.max(0) as u64)
                            .saturating_mul(ml),
                    );
                }
            }
        }

        // Store serialization: every store to one array depends on the
        // previous store to that array (the DFG's memory-ordering edge),
        // so a segment with `n` stores of an array runs at least
        // `n × write_latency` cycles — regardless of banking or packing
        // (stores never pool into words). In each steady body the first
        // such store additionally waits for its value's guaranteed serial
        // op chain. Conditional and guarded classes may fold away under
        // peeling, so they earn nothing.
        // Read drain: the list scheduler's ASAP priority pops every
        // dependence-free load (class 0, level 0) before any store, and
        // placement is immediate against the monotone per-bank
        // high-water marks — so a body segment's first store starts no
        // earlier than the least-loaded bank's occupancy from the
        // segment's certain loads. Only unconditional body loads of
        // arrays with no in-segment store qualify (anything else may
        // carry dependence edges or fold away); the bank histogram
        // composes the layout's cyclic distribution (min over the
        // unknown greedy phase) with the scheduler's physical fold, and
        // packed small-typed arrays distribute phaselessly by word.
        let m_bind = if self.topts.custom_layout {
            self.topts.num_memories.max(1)
        } else {
            1
        };
        let m_phys = self.mem.num_memories.max(1);
        let mut drain_lo: u64 = 0;
        if self.sopts.priority == ListPriority::Asap {
            let stored_in_body: HashSet<&str> = c
                .traffic
                .iter()
                .filter(|t| {
                    t.is_write
                        && (t.conditional
                            || matches!(t.kind, TrafficKind::Body | TrafficKind::Guarded(_)))
                })
                .map(|t| t.array.as_str())
                .collect();
            let mut body_loads: HashMap<&str, (u32, Vec<i64>)> = HashMap::new();
            for t in &c.traffic {
                if t.is_write
                    || t.conditional
                    || !matches!(t.kind, TrafficKind::Body)
                    || stored_in_body.contains(t.array.as_str())
                {
                    continue;
                }
                let e = body_loads
                    .entry(t.array.as_str())
                    .or_insert_with(|| (t.elem_bits, Vec::new()));
                e.1.extend_from_slice(&t.flat_offsets);
            }
            for (array, (eb, offsets)) in body_loads {
                let packed = self.sopts.pack_small_types && eb < word_bits;
                let min_bank: u64 = if packed {
                    let epw = (word_bits / eb.max(1)).max(1) as i64;
                    let mut words: Vec<i64> = offsets.iter().map(|o| o.div_euclid(epw)).collect();
                    words.sort_unstable();
                    words.dedup();
                    if m_bind == 1 {
                        words.len() as u64
                    } else {
                        let mut hist = vec![0u64; m_phys];
                        for w in words {
                            hist[(w.rem_euclid(m_bind as i64) as usize) % m_phys] += 1;
                        }
                        hist.into_iter().min().unwrap_or(0)
                    }
                } else if m_bind == 1 {
                    // Everything folds onto one bank — stores included.
                    offsets.len() as u64
                } else if self.renamable.contains(array) {
                    (0..m_bind as i64)
                        .map(|phase| {
                            let mut hist = vec![0u64; m_phys];
                            for &o in &offsets {
                                hist[((o + phase).rem_euclid(m_bind as i64) as usize) % m_phys] +=
                                    1;
                            }
                            hist.into_iter().min().unwrap_or(0)
                        })
                        .min()
                        .unwrap_or(0)
                } else {
                    // Single-bank layout: some physical bank sees none.
                    0
                };
                drain_lo = drain_lo.saturating_add(min_bank.saturating_mul(rd.1));
            }
        }

        let mut store_lo: u64 = 0;
        {
            let mut per_array: HashMap<&str, (u64, bool)> = HashMap::new();
            for t in &c.traffic {
                if !t.is_write || t.conditional || matches!(t.kind, TrafficKind::Guarded(_)) {
                    continue;
                }
                let execs = t.executions(&c.trips).max(0) as u64;
                let events = execs.saturating_mul(t.flat_offsets.len() as u64);
                let e = per_array.entry(t.array.as_str()).or_insert((0, false));
                e.0 = e.0.saturating_add(events);
                e.1 |= matches!(t.kind, TrafficKind::Body) && !t.flat_offsets.is_empty();
            }
            for (array, (events, in_body)) in per_array {
                let mut floor = events.saturating_mul(wr.0);
                if in_body {
                    let depth = self.store_depth_lo.get(array).copied().unwrap_or(0);
                    floor = floor.saturating_add(steady_bodies.saturating_mul(depth.max(drain_lo)));
                }
                store_lo = store_lo.max(floor);
            }
        }

        let cycles_hi = ovh
            .saturating_add(comp_hi)
            .saturating_add(bodies.saturating_mul(c.rotates_per_body.max(0) as u64))
            .saturating_add(traffic_cyc_hi);
        let cycles_lo = ovh.saturating_add(comp_lo.max(mem_lo).max(store_lo));

        // Area. Static instance counts: each peeled level doubles the
        // static copies of everything at or below it.
        let instances: u64 = c.peelable.iter().map(|&p| 1 + u64::from(p)).product();
        let narrow = self.sopts.bitwidth_narrowing;

        let mut slices_hi: u64 = 0;
        for &(op, w, count) in &self.classes {
            let uses = (count as u64)
                .saturating_mul(product)
                .saturating_mul(instances);
            slices_hi = slices_hi.saturating_add(uses.saturating_mul(unit_area_hi(op, w)));
        }
        slices_hi = slices_hi.saturating_add(
            jam_adds
                .saturating_mul(instances)
                .saturating_mul(unit_area_hi(HwOp::AddSub, 33)),
        );
        if !peel_on {
            // Predicated fill guards: comparator + conjunctions + one mux
            // per filled register (the scalar merge of the `if`).
            let eqs = c.guard_eqs_per_body.max(0) as u64;
            let ands = c.guard_ands_per_body.max(0) as u64;
            slices_hi = slices_hi.saturating_add(eqs.saturating_mul(unit_area_hi(HwOp::Cmp, 32)));
            slices_hi = slices_hi.saturating_add(ands.saturating_mul(unit_area_hi(HwOp::Logic, 1)));
            let mux_w = c.registers.iter().map(|r| r.bits).max().unwrap_or(32);
            slices_hi = slices_hi
                .saturating_add(fills_per_body.saturating_mul(unit_area_hi(HwOp::Mux, mux_w)));
        }

        // Registers: counts are exact; widths are declared on the upper
        // side. Under narrowing, a register filled from loads holds
        // every value of its array, so it floors at the array's load
        // width (see `load_floors`); others can narrow to one slice.
        let mut regs_lo: u64 = 0;
        let mut regs_hi: u64 = 0;
        for rc in &c.registers {
            let hi = register_slices(rc.bits) as u64;
            let lo = match (narrow, rc.load_valued) {
                (false, _) => hi,
                (true, true) => register_slices(self.load_register_floor(rc.bits)) as u64,
                (true, false) => 1,
            };
            regs_lo += rc.count as u64 * lo;
            regs_hi += rc.count as u64 * hi;
        }
        for &b in &self.original_scalars {
            let hi = register_slices(b) as u64;
            regs_lo += if narrow { 1 } else { hi };
            regs_hi += hi;
        }

        let mut loops_hi: u64 = 0;
        let mut inst_ctx: u64 = 1;
        for l in 0..depth {
            loops_hi += inst_ctx;
            inst_ctx = inst_ctx.saturating_mul(1 + u64::from(c.peelable[l]));
        }

        // FSM states merge statically: bound by the serial length of every
        // static copy of the body and headers.
        let traffic_static: u64 = c
            .traffic
            .iter()
            .map(|t| {
                let (lat, occ) = if t.is_write { wr } else { rd };
                t.flat_offsets.len() as u64 * (lat + occ)
            })
            .sum();
        let fsm_hi = instances.saturating_mul(
            body_op_lat
                .saturating_add(c.rotates_per_body.max(0) as u64)
                .saturating_add(traffic_static),
        );

        // Datapath floor: operators certain to survive folding in every
        // steady copy, priced at the smaller of the operator's area and
        // the estimator's sharing-mux charge, both at the width floor
        // (both are width-monotone). Only the single steady instance
        // earns credit — peeled static copies may fold.
        let mut datapath_lo: u64 = 0;
        for &(op, w, n) in &self.lower_classes {
            let unit = (op_spec(op, w).area_slices as u64).min((w / 4 + 1) as u64);
            datapath_lo =
                datapath_lo.saturating_add((n as u64).saturating_mul(product).saturating_mul(unit));
        }

        let fixed =
            self.mem.num_memories as u64 * MEMORY_INTERFACE_SLICES as u64 + FSM_BASE_SLICES as u64;
        let slices_lo_u64 = (regs_lo + fixed + loops_lo as u64 * LOOP_CONTROL_SLICES as u64)
            .saturating_add(datapath_lo);
        let slices_hi_u64 = slices_hi
            .saturating_add(regs_hi)
            .saturating_add(fixed)
            .saturating_add(loops_hi.saturating_mul(LOOP_CONTROL_SLICES as u64))
            .saturating_add(fsm_state_slices_ceil(fsm_hi));
        let slices_lo = slices_lo_u64.min(u32::MAX as u64) as u32;
        let slices_hi = slices_hi_u64.min(u32::MAX as u64) as u32;

        // Balance band, with the estimator's idle conventions.
        let mut balance_lo = if mem_hi == 0 {
            if comp_lo == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            comp_lo as f64 / mem_hi as f64
        };
        let mut balance_hi = if mem_lo == 0 {
            if comp_hi == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            comp_hi as f64 / mem_lo as f64
        };
        if comp_lo == 0 && mem_lo == 0 {
            balance_lo = balance_lo.min(1.0);
            balance_hi = balance_hi.max(1.0);
        }

        AnalyticBand {
            cycles_lo,
            cycles_hi,
            slices_lo,
            slices_hi,
            mem_busy_lo: mem_lo,
            mem_busy_hi: mem_hi,
            comp_busy_lo: comp_lo,
            comp_busy_hi: comp_hi,
            bits_lo,
            bits_hi,
            registers: self.original_scalars.len() + c.total_registers(),
            balance_lo,
            balance_hi,
            fits_possible: self.dev.fits(slices_lo),
            fits_certain: self.dev.fits(slices_hi),
            clock_ns: self.dev.clock_ns,
        }
    }

    /// A synthetic [`Estimate`] at the band midpoint, for pure-analytic
    /// ranking. `provenance.segments == 0` marks it as tier-0 (no segment
    /// was ever scheduled).
    pub fn synthetic_estimate(&self, band: &AnalyticBand) -> Estimate {
        let mid = |lo: u64, hi: u64| lo / 2 + hi / 2 + (lo & hi & 1);
        let cycles = mid(band.cycles_lo, band.cycles_hi);
        let slices =
            (mid(band.slices_lo as u64, band.slices_hi as u64)).min(u32::MAX as u64) as u32;
        let comp = mid(band.comp_busy_lo, band.comp_busy_hi);
        let memb = mid(band.mem_busy_lo, band.mem_busy_hi);
        let balance = match (comp, memb) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (c, m) => c as f64 / m as f64,
        };
        Estimate {
            cycles,
            slices,
            memory_busy_cycles: memb,
            compute_busy_cycles: comp,
            bits_from_memory: mid(band.bits_lo, band.bits_hi),
            registers: band.registers,
            balance,
            clock_ns: band.clock_ns,
            fits: self.dev.fits(slices),
            provenance: Provenance {
                segments: 0,
                constrained: false,
                bitwidth_narrowed: self.sopts.bitwidth_narrowing,
                packed: self.sopts.pack_small_types,
            },
        }
    }
}

/// Width-monotone per-use area bound: operator area or the sharing-mux
/// tree, whichever the estimator could charge.
fn unit_area_hi(op: HwOp, w: u32) -> u64 {
    (op_spec(op, w).area_slices as u64).max((w / 4 + 1) as u64)
}

/// Minimum latency the update operator of an accumulator chain can reach
/// at any width, under strength reduction and identity folding of a
/// constant operand.
fn min_serial_lat(op: BinOp, has_const: bool) -> u64 {
    if has_const {
        // `x + 0`, `x * 1`, shifts by constants … may fold away entirely.
        return 0;
    }
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul => 1,
        BinOp::Div | BinOp::Rem => 2,
        BinOp::Shl | BinOp::Shr => 1,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
        BinOp::And | BinOp::Or | BinOp::Xor => 0,
    }
}

fn scalar_decl_bits(k: &Kernel, name: &str) -> u32 {
    // Loop index variables price as the DFG's 16-bit counters.
    k.scalar(name).map(|d| d.ty.bits()).unwrap_or(16)
}

fn elem_bits(k: &Kernel, array: &str) -> u32 {
    k.array(array).map(|a| a.ty.bits()).unwrap_or(32)
}

/// Non-subscript reads of `name` in one base-body copy. Subscript
/// variables live in `AffineExpr` indices, which an `Expr` walk never
/// reaches — exactly the reads the jam folds away affinely.
fn count_scalar_reads(body: &[Stmt], name: &str) -> u32 {
    fn in_expr(e: &Expr, name: &str) -> u32 {
        match e {
            Expr::Scalar(n) => u32::from(n == name),
            Expr::Int(_) | Expr::Load(_) => 0,
            Expr::Unary(_, a) => in_expr(a, name),
            Expr::Binary(_, a, b) => in_expr(a, name) + in_expr(b, name),
            Expr::Select(c, t, f) => in_expr(c, name) + in_expr(t, name) + in_expr(f, name),
        }
    }
    body.iter()
        .map(|s| match s {
            Stmt::Assign { rhs, .. } => in_expr(rhs, name),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                in_expr(cond, name)
                    + count_scalar_reads(then_body, name)
                    + count_scalar_reads(else_body, name)
            }
            Stmt::For(l) => count_scalar_reads(&l.body, name),
            Stmt::Rotate(_) => 0,
        })
        .sum()
}

/// Walk one expression, recording every operator it will instantiate at
/// an upper-bound width. Returns `(node_width_hi, value_bits_hi)`:
/// the first bounds the DFG node width under both width rules, the
/// second bounds `Interval::bits` of the value under narrowing (scalar
/// and array reads clamp to declared types; intermediate results can
/// exceed their node width until the next cap).
fn walk_expr(e: &Expr, k: &Kernel, out: &mut BaseOps) -> (u32, u32) {
    match e {
        Expr::Int(v) => {
            let pb = Interval::point(*v).bits();
            (pb.max(32), pb)
        }
        Expr::Scalar(n) => {
            if k.scalar(n).is_some() {
                let w = scalar_decl_bits(k, n);
                (w, w)
            } else {
                // Undeclared names are loop variables: the range analysis
                // falls back to a 32-bit interval, and the jam rewrites
                // each non-subscript read to `var + offset`, whose add
                // can grow the interval to 33 bits — bound the operand a
                // copy's parent operator sees, not just the bare counter.
                (32, 33)
            }
        }
        Expr::Load(a) => {
            let w = elem_bits(k, &a.array);
            (w, w)
        }
        Expr::Unary(op, inner) => {
            let (w, ib) = walk_expr(inner, k, out);
            let rib = ib.saturating_add(1).min(MAX_IBITS);
            let node_w = w.max(rib);
            out.push(HwOp::of_unop(*op), node_w);
            (node_w, rib)
        }
        Expr::Binary(op, lhs, rhs) => {
            let (const_side, pow2) = match (&**lhs, &**rhs, op) {
                (_, Expr::Int(v), _) => (true, v.unsigned_abs().count_ones() == 1),
                (Expr::Int(v), _, BinOp::Mul) => (true, v.unsigned_abs().count_ones() == 1),
                _ => (false, false),
            };
            let (wa, ia) = walk_expr(lhs, k, out);
            let (wb, ib) = walk_expr(rhs, k, out);
            let w = wa.max(wb).max(1);
            out.push(HwOp::of_binop(*op, const_side, pow2), w);
            let rib = match op {
                BinOp::Add | BinOp::Sub => ia.max(ib) + 1,
                BinOp::Mul => ia + ib,
                BinOp::Div | BinOp::Rem => ia.max(ib) + 1,
                BinOp::Shl => match &**rhs {
                    Expr::Int(c) if (0..32).contains(c) => ia + *c as u32,
                    _ => 32,
                },
                BinOp::Shr => ia.max(ib) + 1,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
                BinOp::And | BinOp::Or | BinOp::Xor => ia.max(ib) + 2,
            }
            .min(MAX_IBITS);
            if op.is_comparison() {
                (1, 1)
            } else {
                (w, rib)
            }
        }
        Expr::Select(c, t, f) => {
            let _ = walk_expr(c, k, out);
            let (wt, it) = walk_expr(t, k, out);
            let (wf, if_) = walk_expr(f, k, out);
            let rib = it.max(if_).saturating_add(1).min(MAX_IBITS);
            let node_w = wt.max(wf).max(rib).max(1);
            out.push(HwOp::Mux, node_w);
            (node_w, rib)
        }
    }
}

fn walk_stmts(body: &[Stmt], k: &Kernel, under_if: bool, out: &mut BaseOps) {
    for s in body {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let (w, _) = walk_expr(rhs, k, out);
                if under_if {
                    // Predicated execution merges the assigned value with
                    // the incoming one through a mux (scalar merges price
                    // at the declared width; counting one per assignment
                    // over-approximates the per-name merge).
                    let wl = match lhs {
                        LValue::Scalar(n) => scalar_decl_bits(k, n),
                        LValue::Array(a) => elem_bits(k, &a.array),
                    };
                    out.push(HwOp::Mux, w.max(wl).max(1));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let _ = walk_expr(cond, k, out);
                walk_stmts(then_body, k, true, out);
                walk_stmts(else_body, k, true, out);
            }
            Stmt::For(l) => walk_stmts(&l.body, k, under_if, out),
            Stmt::Rotate(_) => {}
        }
    }
}

/// Width floor of a load's value under the active narrowing mode: the
/// narrowed width of the interval range inference seeds the array at.
/// Stores only widen an array's range, so every load's value narrows to
/// at least this.
fn load_width_lo(k: &Kernel, array: &str, narrow: bool) -> u32 {
    let Some(decl) = k.array(array) else { return 1 };
    if !narrow {
        return decl.ty.bits();
    }
    narrowed_bits(array_seed(decl), decl.ty.bits())
}

/// Minimum latency the DFG can assign a node of `op` at any width.
fn lat_lo(op: HwOp) -> u64 {
    op_spec(op, 1).latency as u64
}

/// Walk one base-body expression computing what *must* survive in every
/// steady copy: applies the constant folder's own rules (`unary_rule`,
/// `fold_rule`; the only folds any pass applies), treats loop-variable
/// reads as possible literals (full unrolling substitutes them), and
/// records surviving operator classes at width floors when `count` is
/// set.
fn lower_expr(
    e: &Expr,
    k: &Kernel,
    narrow: bool,
    env: &HashMap<Name, (u64, u32)>,
    out: &mut BaseLower,
    count: bool,
) -> LoVal {
    match e {
        Expr::Int(v) => LoVal::Lit(*v),
        Expr::Scalar(n) => {
            if let Some((d, w)) = env.get(n) {
                LoVal::Val(*d, *w)
            } else if k.scalar(n).is_some() {
                // Unassigned declared scalar: a register read (never
                // folded — there is no constant propagation), value 0.
                LoVal::Val(0, if narrow { 1 } else { scalar_decl_bits(k, n) })
            } else {
                // Loop variable: a literal in fully unrolled copies.
                LoVal::MaybeLit
            }
        }
        Expr::Load(a) => LoVal::Val(0, load_width_lo(k, &a.array, narrow)),
        Expr::Unary(op, inner) => {
            let v = lower_expr(inner, k, narrow, env, out, count);
            if let Some(c) = unary_rule(*op, &v) {
                return LoVal::Lit(c);
            }
            let LoVal::Val(d, w) = v else {
                return LoVal::MaybeLit;
            };
            // Abs/neg can shed one interval bit (`[-256, 0]` →
            // `[0, 256]`); the node prices at the result width.
            let rw = if narrow {
                w.saturating_sub(1).max(1)
            } else {
                w
            };
            let hw = HwOp::of_unop(*op);
            if count {
                out.push(hw, rw);
            }
            LoVal::Val(d + lat_lo(hw), rw)
        }
        Expr::Binary(op, lhs, rhs) => {
            let a = lower_expr(lhs, k, narrow, env, out, count);
            let b = lower_expr(rhs, k, narrow, env, out, count);
            lower_binary(*op, a, b, narrow, out, count)
        }
        Expr::Select(c, t, f) => {
            match lower_expr(c, k, narrow, env, out, count) {
                // The folder resolves constant conditions: mirror it and
                // walk only the surviving arm (expressions have no
                // side effects, so the dropped arm contributes nothing).
                LoVal::Lit(0) => lower_expr(f, k, narrow, env, out, count),
                LoVal::Lit(_) => lower_expr(t, k, narrow, env, out, count),
                cond => {
                    let tv = lower_expr(t, k, narrow, env, out, false);
                    let fv = lower_expr(f, k, narrow, env, out, false);
                    if let LoVal::MaybeLit = cond {
                        // Either arm may be selected by substitution.
                        match (tv, fv) {
                            (LoVal::Val(dt, wt), LoVal::Val(df, wf)) => {
                                LoVal::Val(dt.min(df), wt.min(wf))
                            }
                            _ => LoVal::MaybeLit,
                        }
                    } else {
                        // Non-literal condition: the mux node survives
                        // and needs all inputs; its result interval is a
                        // superset of both arms.
                        let dc = match cond {
                            LoVal::Val(d, _) => d,
                            _ => 0,
                        };
                        let (dt, wt) = match tv {
                            LoVal::Val(d, w) => (d, w),
                            _ => (0, 1),
                        };
                        let (df, wf) = match fv {
                            LoVal::Val(d, w) => (d, w),
                            _ => (0, 1),
                        };
                        let w = wt.max(wf).max(1);
                        if count {
                            out.push(HwOp::Mux, w);
                        }
                        LoVal::Val(dc.max(dt).max(df) + lat_lo(HwOp::Mux), w)
                    }
                }
            }
        }
    }
}

/// Binary case of the lower walk: apply the folder's rules, then
/// classify what certainly survives.
fn lower_binary(
    op: BinOp,
    a: LoVal,
    b: LoVal,
    narrow: bool,
    out: &mut BaseLower,
    count: bool,
) -> LoVal {
    use LoVal::{Lit, MaybeLit, Val};
    match fold_rule(op, &a, &b) {
        Fold::Const(v) => return Lit(v),
        Fold::Left => return a,
        Fold::Right => return b,
        Fold::Keep => {}
    }
    let has_identity = matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or
    );
    match (a, b) {
        (MaybeLit, MaybeLit) => MaybeLit,
        (Val(d, w), MaybeLit) | (MaybeLit, Val(d, w)) => {
            if matches!(op, BinOp::Mul | BinOp::And) {
                // A substituted literal 0 annihilates the whole node.
                MaybeLit
            } else if has_identity {
                // `x + 0` folds to `x`: the value survives, the node may
                // not.
                Val(d, w)
            } else {
                // No identity rule exists for this operator, so a node
                // survives in every copy — but its class depends on
                // whether the other side became a literal (a shift
                // amount folding to a constant turns `Div`/`Shl` into a
                // zero-latency, zero-area `ConstShift`), so only the
                // class-invariant operators take credit.
                let (cls_both, latf) = match op {
                    BinOp::Xor => (Some(HwOp::Logic), lat_lo(HwOp::Logic)),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        (Some(HwOp::Cmp), lat_lo(HwOp::Cmp))
                    }
                    _ => (None, 0),
                };
                if let Some(cls) = cls_both {
                    if count {
                        out.push(cls, if op.is_comparison() { w } else { w.max(1) });
                    }
                }
                let rw = if op.is_comparison() {
                    1
                } else if narrow {
                    // Division/shift results can shrink arbitrarily.
                    1
                } else {
                    w
                };
                Val(d + latf, rw)
            }
        }
        (Val(da, wa), Val(db, wb)) => {
            // Both sides certainly non-literal: the node survives with
            // operand width at least `max(wa, wb)` (the DFG clamp keeps
            // a binary node at least as wide as each operand's value).
            let hw = HwOp::of_binop(op, false, false);
            let w = wa.max(wb).max(1);
            if count {
                out.push(hw, w);
            }
            let d = da.max(db) + lat_lo(hw);
            if op.is_comparison() {
                Val(d, 1)
            } else if narrow {
                // Result intervals can shrink below both operands
                // (cancellation, division): no downstream width credit.
                Val(d, 1)
            } else {
                Val(d, w)
            }
        }
        (Val(d, w), Lit(v)) | (Lit(v), Val(d, w)) => {
            // One side a known literal the identity rules above did not
            // fold: the node survives; classify it the way the DFG does
            // (constant on the right, or either side for `Mul`).
            let rhs_const = matches!(b, Lit(_)) || op == BinOp::Mul;
            let pow2 = v.unsigned_abs().count_ones() == 1;
            let hw = HwOp::of_binop(op, rhs_const, pow2);
            if count {
                out.push(hw, w);
            }
            let d = d + lat_lo(hw);
            if op.is_comparison() || narrow {
                Val(d, 1)
            } else {
                Val(d, w)
            }
        }
        // A literal beside a possible literal (two literals always fold
        // above).
        (Lit(_), _) | (_, Lit(_)) => MaybeLit,
    }
}

/// Names assigned anywhere in a statement list (for invalidating the
/// scalar environment across predicated branches).
fn assigned_scalars(body: &[Stmt], names: &mut Vec<Name>) {
    for s in body {
        match s {
            Stmt::Assign {
                lhs: LValue::Scalar(n),
                ..
            } => names.push(n.clone()),
            Stmt::Assign { .. } | Stmt::Rotate(_) => {}
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assigned_scalars(then_body, names);
                assigned_scalars(else_body, names);
            }
            Stmt::For(l) => assigned_scalars(&l.body, names),
        }
    }
}

/// Statement-level lower walk. `top` is true for unconditionally executed
/// statements: only those contribute operator classes and store depths
/// (a branch may fold away in peeled or fully unrolled copies).
fn lower_stmts(
    body: &[Stmt],
    k: &Kernel,
    narrow: bool,
    env: &mut HashMap<Name, (u64, u32)>,
    out: &mut BaseLower,
    top: bool,
) {
    for s in body {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let v = lower_expr(rhs, k, narrow, env, out, top);
                match lhs {
                    LValue::Scalar(n) => {
                        let decl = scalar_decl_bits(k, n);
                        let (d, w) = match v {
                            LoVal::Val(d, w) => (d, w.min(decl)),
                            _ => (0, 1),
                        };
                        env.insert(n.clone(), (d, if narrow { w } else { decl }));
                    }
                    LValue::Array(a) => {
                        if top {
                            let d = match v {
                                LoVal::Val(d, _) => d,
                                _ => 0,
                            };
                            out.store_depth
                                .entry(a.array.clone())
                                .and_modify(|e| *e = (*e).min(d))
                                .or_insert(d);
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => match lower_expr(cond, k, narrow, env, out, top) {
                // The folder resolves constant branches — mirror it.
                LoVal::Lit(0) => lower_stmts(else_body, k, narrow, env, out, top),
                LoVal::Lit(_) => lower_stmts(then_body, k, narrow, env, out, top),
                _ => {
                    // Predicated (or substitution-foldable) branch: take
                    // no credit for its contents, but scan it for
                    // environment effects.
                    lower_stmts(then_body, k, narrow, env, out, false);
                    lower_stmts(else_body, k, narrow, env, out, false);
                    let mut names = Vec::new();
                    assigned_scalars(then_body, &mut names);
                    assigned_scalars(else_body, &mut names);
                    for n in names {
                        let w = if narrow { 1 } else { scalar_decl_bits(k, &n) };
                        env.insert(n, (0, w));
                    }
                }
            },
            Stmt::For(l) => {
                // An inner loop's body executes at least once per copy
                // when its trip count is positive (zero-trip loops are
                // dropped by simplification).
                if l.trip_count() > 0 {
                    lower_stmts(&l.body, k, narrow, env, out, top);
                }
            }
            Stmt::Rotate(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_opts;
    use crate::schedule::ListPriority;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    const MATMUL: &str = "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
       for i in 0..32 { for j in 0..4 { for k in 0..16 {
         C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }";

    const STENCIL8: &str = "kernel st { in A: u8[66]; out B: u8[64];
       for i in 0..64 { B[i] = A[i] / 2 + A[i + 1] / 4 + A[i + 2] / 2; } }";

    fn model(
        src: &str,
        topts: TransformOptions,
        sopts: SynthesisOptions,
        mem: MemoryModel,
    ) -> AnalyticModel {
        let k = parse_kernel(src).unwrap();
        let p = Arc::new(PreparedKernel::prepare(&k).unwrap());
        AnalyticModel::new(p, mem, FpgaDevice::virtex1000(), topts, sopts).unwrap()
    }

    fn check_point(m: &AnalyticModel, factors: Vec<i64>) {
        let u = UnrollVector(factors.clone());
        let band = m.evaluate(&u).unwrap();
        let d = m.prepared.transform(&u, &m.topts).unwrap();
        let e = estimate_opts(&d, &m.mem, &m.dev, &m.sopts);
        assert!(
            band.contains(&e),
            "band does not bracket estimate at {factors:?}:\nband {band:#?}\nestimate {e:#?}"
        );
        assert!(band.cycles_lo <= band.cycles_hi);
        assert!(band.slices_lo <= band.slices_hi);
    }

    #[test]
    fn band_brackets_fir_space_default_opts() {
        let m = model(
            FIR,
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        for uj in [1i64, 2, 4, 8, 16, 32, 64] {
            for ui in [1i64, 2, 4, 8, 16, 32] {
                check_point(&m, vec![uj, ui]);
            }
        }
    }

    #[test]
    fn band_brackets_fir_non_pipelined_memory() {
        let m = model(
            FIR,
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_non_pipelined(),
        );
        for uj in [1i64, 2, 8, 64] {
            for ui in [1i64, 4, 32] {
                check_point(&m, vec![uj, ui]);
            }
        }
    }

    #[test]
    fn band_brackets_matmul_space() {
        let m = model(
            MATMUL,
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        for ui in [1i64, 2, 8, 32] {
            for uj in [1i64, 2, 4] {
                for uk in [1i64, 4, 16] {
                    check_point(&m, vec![ui, uj, uk]);
                }
            }
        }
    }

    #[test]
    fn band_brackets_under_option_toggles() {
        let toggles = [
            TransformOptions {
                peel: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                scalar_replacement: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                redundant_write_elim: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                custom_layout: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                register_budget: Some(8),
                ..TransformOptions::default()
            },
        ];
        for topts in toggles {
            let m = model(
                FIR,
                topts.clone(),
                SynthesisOptions::default(),
                MemoryModel::wildstar_pipelined(),
            );
            for factors in [vec![1, 1], vec![2, 2], vec![8, 4], vec![64, 32]] {
                check_point(&m, factors);
            }
        }
    }

    #[test]
    fn band_brackets_narrowing_and_packing() {
        for (narrow, pack) in [(true, false), (false, true), (true, true)] {
            let sopts = SynthesisOptions {
                bitwidth_narrowing: narrow,
                pack_small_types: pack,
                ..SynthesisOptions::default()
            };
            for src in [FIR, STENCIL8] {
                let m = model(
                    src,
                    TransformOptions::default(),
                    sopts.clone(),
                    MemoryModel::wildstar_pipelined(),
                );
                let depth = m.prepared.loops().len();
                for f in [1i64, 2, 4] {
                    check_point(&m, vec![f; depth]);
                }
            }
        }
    }

    #[test]
    fn band_brackets_loop_var_guard_under_unroll() {
        // Fuzzer reproducer (tests/fuzz_corpus/pass_jam_index_guard):
        // a non-subscript loop-variable read gains a `var + offset` add
        // in every jammed copy — the band's upper side must price it.
        let m = model(
            "kernel g { out B: u8[4]; for k in 0..4 { if (k < 2) { B[k] = 1; } } }",
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        for f in [1i64, 2, 4] {
            check_point(&m, vec![f]);
        }
    }

    #[test]
    fn band_brackets_foldable_conditional_store() {
        // Fuzzer reproducer (tests/fuzz_corpus/pass_folded_else_store):
        // peeling substitutes the trip-1 `j` into the body, the user `if`
        // folds to a constant, and the else-branch store vanishes from
        // the materialized design — the band's lower side must not rely
        // on conditional traffic.
        let m = model(
            "kernel c { inout D: u32[2]; in S: u16[2]; out E: i32[1][1];
               for i in 0..2 { for j in 0..1 {
                 D[i] = S[i + j];
                 if (j < 1) { } else { E[i][j] = 1; } } } }",
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        for factors in [vec![1, 1], vec![2, 1]] {
            check_point(&m, factors);
        }
    }

    #[test]
    fn band_brackets_slack_priority() {
        let m = model(
            FIR,
            TransformOptions::default(),
            SynthesisOptions {
                priority: ListPriority::Slack,
                ..SynthesisOptions::default()
            },
            MemoryModel::wildstar_pipelined(),
        );
        for factors in [vec![1, 1], vec![4, 4], vec![16, 8]] {
            check_point(&m, factors);
        }
    }

    #[test]
    fn constrained_options_decline_the_model() {
        let k = parse_kernel(FIR).unwrap();
        let p = Arc::new(PreparedKernel::prepare(&k).unwrap());
        let sopts = SynthesisOptions {
            constraints: ResourceConstraints::new().with_limit(HwOp::Mul, 2),
            ..SynthesisOptions::default()
        };
        assert!(AnalyticModel::new(
            p,
            MemoryModel::wildstar_pipelined(),
            FpgaDevice::virtex1000(),
            TransformOptions::default(),
            sopts,
        )
        .is_none());
    }

    #[test]
    fn register_floor_prunes_oversized_points() {
        // At extreme unrolls the register floor alone must exceed the
        // device — the lever the tier-0 pruning rule uses.
        let k = parse_kernel(FIR).unwrap();
        let p = Arc::new(PreparedKernel::prepare(&k).unwrap());
        let m = AnalyticModel::new(
            p,
            MemoryModel::wildstar_pipelined(),
            FpgaDevice::virtex300(),
            TransformOptions::default(),
            SynthesisOptions::default(),
        )
        .unwrap();
        let band = m.evaluate(&UnrollVector(vec![64, 32])).unwrap();
        assert!(!band.fits_possible, "slices_lo {}", band.slices_lo);
    }

    #[test]
    fn synthetic_estimate_is_tier0_marked() {
        let m = model(
            FIR,
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        let band = m.evaluate(&UnrollVector(vec![2, 2])).unwrap();
        let e = m.synthetic_estimate(&band);
        assert_eq!(e.provenance.segments, 0);
        assert!(e.cycles >= band.cycles_lo && e.cycles <= band.cycles_hi);
    }

    #[test]
    fn evaluate_rejects_what_transform_rejects() {
        let m = model(
            FIR,
            TransformOptions::default(),
            SynthesisOptions::default(),
            MemoryModel::wildstar_pipelined(),
        );
        assert!(m.evaluate(&UnrollVector(vec![3, 1])).is_err());
        assert!(m.evaluate(&UnrollVector(vec![2])).is_err());
    }
}
