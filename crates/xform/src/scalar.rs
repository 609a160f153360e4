//! Scalar replacement, loop-invariant code motion and redundant-write
//! elimination.
//!
//! Operating on the (normalized, unrolled) perfect nest, this pass
//! replaces array references by compiler-introduced registers so that
//! behavioral synthesis exploits data reuse on chip (paper §4,
//! Figure 1(c)). It differs from classic Carr–Kennedy scalar replacement
//! in exactly the two ways the paper describes: redundant memory *writes*
//! on output dependences are eliminated, and reuse is exploited across
//! **all** loops in the nest, not just the innermost one.
//!
//! Per uniformly generated set, the reuse classification of
//! [`defacto_analysis::reuse`] selects one of four code patterns:
//!
//! 1. **Accumulator** (read+write sets, invariant in the innermost
//!    loop(s)): the value lives in a register across the invariant loops —
//!    the load hoists above them, the store sinks below them, and all
//!    intermediate stores disappear (redundant-write elimination). This is
//!    the FIR `D[j]` pattern.
//! 2. **Register chain** (read-only, recurring across an outer loop): the
//!    full footprint is kept in a rotating register chain, loaded on the
//!    first iteration of the reuse loop (guarded by `if (var == 0)`,
//!    which [`crate::peel`] turns into a peeled iteration) and rotated
//!    once per iteration of the deepest varying loop. This is the FIR
//!    `C[i]` pattern.
//! 3. **Rolling window** (read-only, consistent distances along the
//!    deepest loop): a window of `span` registers shifts by the loop step
//!    each iteration; only the `step` new elements are loaded. This is
//!    the JAC/SOBEL stencil pattern.
//! 4. **Load dedup/hoist**: remaining loads of store-free arrays move to
//!    the top of the body, one register per distinct address (the `S_0`
//!    temporary of Figure 1(c)); duplicated addresses are loaded once.
//!
//! The pass runs in two steps. `plan_reuse` makes every decision — the
//! grouping, the conditional and aliasing screens, the classification,
//! the choice of pattern and the §5.4 register budget — over set indices
//! and offset vectors only, into a `ReusePlan`. `materialize` then names
//! the registers, builds the statements and rewrites the body. The tier-0
//! census ([`crate::census`]) folds the same plan into counts, so its
//! register, chain and budget counts cannot disagree with the design this
//! pass builds.

use crate::error::{Result, XformError};
use defacto_analysis::{
    classify_set_bounded, uniform_sets, AccessTable, ReuseStrategy, UniformSet,
};
use defacto_ir::decl::ScalarDecl;
use defacto_ir::{
    AffineExpr, ArrayAccess, BinOp, Expr, Kernel, LValue, Loop, Name, ScalarType, Stmt,
};
use std::collections::{HashMap, HashSet};

/// Statistics and bookkeeping produced by [`scalar_replace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScalarReplacementInfo {
    /// Registers introduced for carried reuse (accumulators, chains,
    /// windows).
    pub reuse_registers: usize,
    /// Registers introduced by body-local load dedup/hoisting.
    pub temp_registers: usize,
    /// Number of register chains (rotating groups) introduced.
    pub chains: usize,
    /// Uniformly generated sets whose carried reuse was *not* exploited
    /// (inconsistent, conditional, aliased, or dropped by the register
    /// budget).
    pub unexploited_sets: usize,
    /// Sets dropped specifically because of the register budget (§5.4).
    pub dropped_by_budget: usize,
}

impl ScalarReplacementInfo {
    /// Total registers introduced.
    pub fn total_registers(&self) -> usize {
        self.reuse_registers + self.temp_registers
    }
}

/// Options controlling scalar replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarOptions {
    /// Eliminate redundant memory writes on output dependences (paper
    /// difference (1) from prior work). Disabling this also disables
    /// accumulator registers, since they subsume the intermediate writes.
    pub redundant_write_elim: bool,
    /// Maximum registers to spend on carried reuse (paper §5.4).
    /// Accumulator and hoisted registers are always kept and count
    /// against it; of the chains and windows, the cheapest that still
    /// fit are kept and the rest are dropped.
    pub register_budget: Option<usize>,
}

impl Default for ScalarOptions {
    fn default() -> Self {
        ScalarOptions {
            redundant_write_elim: true,
            register_budget: None,
        }
    }
}

/// The inputs of [`materialize`]: the nest shape for this design point
/// plus the body and its uniformly generated sets. The scratch path
/// computes them from the kernel; the prepared path derives them
/// analytically from the base body's analyses.
pub(crate) struct ScalarInput<'a> {
    /// Empty-bodied loop templates, outermost first (steps already
    /// widened by unrolling).
    pub loops: &'a [Loop],
    /// Induction variables, outermost first.
    pub vars: &'a [Name],
    /// The innermost (jammed) body, as statement references — the
    /// prepared path feeds cached copies without concatenating them into
    /// one owned body.
    pub body: &'a [&'a Stmt],
    /// Uniformly generated sets of `body` over `vars`: the sets the plan's
    /// indices name.
    pub sets: &'a [UniformSet],
}

/// Apply scalar replacement to a normalized (possibly unrolled) perfect
/// nest.
///
/// # Errors
///
/// Fails when the kernel body is not a perfect loop nest, or when the
/// rebuilt kernel fails IR validation.
pub fn scalar_replace(
    kernel: &Kernel,
    opts: &ScalarOptions,
) -> Result<(Kernel, ScalarReplacementInfo)> {
    let nest = kernel.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    let vars: Vec<Name> = nest.loops().iter().map(|l| l.var.clone()).collect();
    let var_refs: Vec<&str> = vars.iter().map(Name::as_str).collect();
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
    let body = nest.innermost_body();
    let table = AccessTable::from_stmts(body);
    let sets = uniform_sets(&table, &var_refs);
    let trips: Vec<i64> = loops.iter().map(Loop::trip_count).collect();
    let steps: Vec<i64> = loops.iter().map(|l| l.step).collect();
    let plan = plan_reuse(
        &sets,
        &trips,
        &steps,
        &|s: &UniformSet| s.members.iter().any(|&id| table.get(id).conditional),
        opts,
    );
    let body_refs: Vec<&Stmt> = body.iter().collect();
    let (final_body, decls, info) = materialize(
        kernel,
        &ScalarInput {
            loops: &loops,
            vars: &vars,
            body: &body_refs,
            sets: &sets,
        },
        &plan,
    );
    let kernel2 = kernel.with_body_and_temps(final_body, decls)?;
    Ok((kernel2, info))
}

/// One accumulator register: its constant offset, and whether the group
/// reads and writes that address.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Slot {
    pub offset: Vec<i64>,
    pub read: bool,
    pub written: bool,
}

/// One lane of a rolling window: the range `lo..=hi` it spans along the
/// window dimension, and the set's distinct offsets in that lane, sorted.
#[derive(Debug)]
pub(crate) struct WindowLane {
    pub lo: i64,
    pub hi: i64,
    pub offsets: Vec<Vec<i64>>,
}

impl WindowLane {
    /// Registers of the lane: one per window position.
    pub fn span(&self) -> usize {
        (self.hi - self.lo + 1) as usize
    }

    /// The lane's offset at window position `p` (element `lo + p`).
    pub fn at(&self, window_dim: usize, p: usize) -> Vec<i64> {
        let mut off = self.offsets[0].clone();
        off[window_dim] = self.lo + p as i64;
        off
    }
}

/// One kept scalar-replacement decision. Sets are named by their index in
/// the planner's input and registers by their constant offsets, so a
/// decision holds no name, statement or access.
#[derive(Debug)]
pub(crate) enum Reuse {
    /// A written set invariant in the loops deeper than `level`, with its
    /// read set if any: one register per offset. Read offsets load at the
    /// top of loop `level`'s body and written ones store at its bottom;
    /// every store in between becomes a register assignment
    /// (redundant-write elimination). Slots are sorted by offset.
    Accumulator {
        read: Option<usize>,
        write: usize,
        level: usize,
        slots: Vec<Slot>,
    },
    /// A read set invariant in the loops deeper than `level`: one register
    /// per distinct offset, loaded at the top of loop `level`'s body, or
    /// once before the whole nest when `level` is `None` (constant
    /// subscripts).
    Hoisted {
        read: usize,
        level: Option<usize>,
        offsets: Vec<Vec<i64>>,
    },
    /// A read set whose values recur across loop `level`: one chain of
    /// `length` rotating registers per lane, filled on the first
    /// iteration of `level` and of each of `invariant_levels` (the loops
    /// between it and the deepest varying loop that the set ignores).
    Chain {
        read: usize,
        level: usize,
        invariant_levels: Vec<usize>,
        lanes: Vec<Vec<i64>>,
        length: usize,
    },
    /// A read set with consistent distances along loop `level`, the
    /// deepest it varies with, in exactly one unit-stride dimension
    /// `window_dim`: per lane, a window of registers that shifts by
    /// `step` each iteration, so only `step` new elements load.
    Window {
        read: usize,
        level: usize,
        window_dim: usize,
        step: i64,
        lanes: Vec<WindowLane>,
    },
}

impl Reuse {
    /// The set whose array and signature the decision's accesses share.
    pub fn set(&self) -> usize {
        match self {
            Reuse::Accumulator { write, .. } => *write,
            Reuse::Hoisted { read, .. }
            | Reuse::Chain { read, .. }
            | Reuse::Window { read, .. } => *read,
        }
    }

    /// Registers the decision introduces: its cost under the §5.4
    /// budget.
    fn registers(&self) -> usize {
        match self {
            Reuse::Accumulator { slots, .. } => slots.len(),
            Reuse::Hoisted { offsets, .. } => offsets.len(),
            Reuse::Chain { lanes, length, .. } => lanes.len() * length,
            Reuse::Window { lanes, .. } => lanes.iter().map(WindowLane::span).sum(),
        }
    }

    /// Rotating register groups the decision introduces.
    fn chains(&self) -> usize {
        match self {
            Reuse::Chain { lanes, .. } => lanes.len(),
            Reuse::Window { lanes, .. } => lanes.len(),
            Reuse::Accumulator { .. } | Reuse::Hoisted { .. } => 0,
        }
    }
}

/// Every scalar-replacement decision for one design point, made by
/// [`plan_reuse`]. [`materialize`] turns it into statements; the tier-0
/// census ([`crate::census`]) folds it into counts.
#[derive(Debug)]
pub(crate) struct ReusePlan {
    /// Kept decisions in the order their registers are named: direct
    /// (accumulator and hoisted) decisions in group order, then the kept
    /// carried (chain and window) decisions in budget order.
    pub decisions: Vec<Reuse>,
    /// See [`ScalarReplacementInfo::unexploited_sets`].
    pub unexploited_sets: usize,
    /// See [`ScalarReplacementInfo::dropped_by_budget`].
    pub dropped_by_budget: usize,
}

impl ReusePlan {
    /// The plan's statistics. Load hoisting, which runs after the plan is
    /// materialized, adds `temp_registers`.
    pub fn info(&self) -> ScalarReplacementInfo {
        ScalarReplacementInfo {
            reuse_registers: self.decisions.iter().map(Reuse::registers).sum(),
            temp_registers: 0,
            chains: self.decisions.iter().map(Reuse::chains).sum(),
            unexploited_sets: self.unexploited_sets,
            dropped_by_budget: self.dropped_by_budget,
        }
    }
}

/// The read and write set of one `(array, signature)`. `probe`, the set
/// the group is classified by, is the read set if there is one, else the
/// write set.
struct Group {
    probe: usize,
    read: Option<usize>,
    write: Option<usize>,
}

/// Decide the scalar replacement of one design point: group the sets,
/// screen out conditional and aliased groups, pick each group's code
/// pattern from its reuse classification, and keep the carried plans
/// that fit the §5.4 register budget.
///
/// `trips` and `steps` are the jammed nest's per-level trip counts and
/// loop steps; `conditional` tells whether a set has a member under an
/// `if`.
pub(crate) fn plan_reuse(
    sets: &[UniformSet],
    trips: &[i64],
    steps: &[i64],
    conditional: &dyn Fn(&UniformSet) -> bool,
    opts: &ScalarOptions,
) -> ReusePlan {
    let mut plan = ReusePlan {
        decisions: Vec::new(),
        unexploited_sets: 0,
        dropped_by_budget: 0,
    };

    let mut groups: Vec<Group> = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let same = |g: &&mut Group| {
            sets[g.probe].array == set.array && sets[g.probe].signature == set.signature
        };
        match groups.iter_mut().find(same) {
            Some(g) if set.is_write => g.write = Some(i),
            Some(g) => {
                g.read = Some(i);
                g.probe = i;
            }
            None => groups.push(Group {
                probe: i,
                read: (!set.is_write).then_some(i),
                write: set.is_write.then_some(i),
            }),
        }
    }

    // Arrays with multiple write signatures, or written non-uniformly with
    // respect to a read set, are unsafe to replace.
    let mut write_sigs: HashMap<&Name, Vec<&Vec<Vec<i64>>>> = HashMap::new();
    for s in sets.iter().filter(|s| s.is_write) {
        write_sigs.entry(&s.array).or_default().push(&s.signature);
    }

    // Carried (chain and window) decisions wait for the budget.
    let mut carried: Vec<Reuse> = Vec::new();
    for g in &groups {
        let probe = &sets[g.probe];
        let members = g.read.is_some() as usize + g.write.is_some() as usize;
        let any_conditional = g.read.is_some_and(|i| conditional(&sets[i]))
            || g.write.is_some_and(|i| conditional(&sets[i]));
        let foreign_writes = write_sigs
            .get(&probe.array)
            .is_some_and(|sigs| sigs.iter().any(|s| **s != probe.signature));
        if any_conditional || foreign_writes {
            plan.unexploited_sets += members;
            continue;
        }
        match (classify_set_bounded(probe, trips), g.read, g.write) {
            // Accumulator: a written set invariant in the innermost
            // loop(s), with or without its read set.
            (
                ReuseStrategy::Consistent {
                    deepest_varying,
                    hoist_inner,
                    ..
                },
                read,
                Some(write),
            ) if hoist_inner >= 1 => {
                if !opts.redundant_write_elim {
                    plan.unexploited_sets += members;
                    continue;
                }
                let mut slots: Vec<Slot> = sets[write]
                    .distinct_offsets()
                    .into_iter()
                    .map(|offset| Slot {
                        offset,
                        read: false,
                        written: true,
                    })
                    .collect();
                for offset in read.map(|r| sets[r].distinct_offsets()).unwrap_or_default() {
                    match slots.iter_mut().find(|s| s.offset == offset) {
                        Some(s) => s.read = true,
                        None => slots.push(Slot {
                            offset,
                            read: true,
                            written: false,
                        }),
                    }
                }
                slots.sort();
                plan.decisions.push(Reuse::Accumulator {
                    read,
                    write,
                    level: deepest_varying,
                    slots,
                });
            }
            // Pure reads.
            (ReuseStrategy::FullyInvariant, Some(read), None) => {
                plan.decisions.push(Reuse::Hoisted {
                    read,
                    level: None,
                    offsets: probe.distinct_offsets(),
                });
            }
            (
                ReuseStrategy::Consistent {
                    deepest_varying,
                    hoist_inner,
                    ..
                },
                Some(read),
                None,
            ) if hoist_inner >= 1 => {
                plan.decisions.push(Reuse::Hoisted {
                    read,
                    level: Some(deepest_varying),
                    offsets: probe.distinct_offsets(),
                });
            }
            (
                ReuseStrategy::Consistent {
                    deepest_varying,
                    outer_reuse: Some(level),
                    ..
                },
                Some(read),
                None,
            ) => carried.extend(plan_chain(probe, read, deepest_varying, level, trips)),
            (
                ReuseStrategy::Consistent {
                    deepest_varying,
                    outer_reuse: None,
                    hoist_inner: 0,
                },
                Some(read),
                None,
            ) => carried.extend(plan_window(probe, read, deepest_varying, steps)),
            _ => plan.unexploited_sets += members,
        }
    }

    // §5.4 register budget: what the direct decisions leave is spent on
    // the carried plans cheapest first; a plan that does not fit is
    // dropped (less reuse, fewer registers).
    carried.sort_by_key(Reuse::registers);
    let mut remaining = opts
        .register_budget
        .map(|b| b.saturating_sub(plan.info().reuse_registers))
        .unwrap_or(usize::MAX);
    for c in carried {
        let cost = c.registers();
        if cost <= remaining {
            remaining -= cost;
            plan.decisions.push(c);
        } else {
            plan.dropped_by_budget += 1;
            plan.unexploited_sets += 1;
        }
    }
    plan
}

fn plan_chain(
    set: &UniformSet,
    read: usize,
    deepest_varying: usize,
    level: usize,
    trips: &[i64],
) -> Option<Reuse> {
    // Chain length: iterations of the varying loops deeper than the reuse
    // loop (per lane).
    let varying = set.varying_levels();
    let mut length: i64 = 1;
    for &v in varying.iter().filter(|&&v| v > level) {
        length *= trips[v];
    }
    if length <= 0 || length > 4096 {
        return None; // degenerate or absurd chain
    }
    Some(Reuse::Chain {
        read,
        level,
        invariant_levels: (level + 1..deepest_varying)
            .filter(|l| !varying.contains(l))
            .collect(),
        lanes: set.distinct_offsets(),
        length: length as usize,
    })
}

fn plan_window(
    set: &UniformSet,
    read: usize,
    deepest_varying: usize,
    steps: &[i64],
) -> Option<Reuse> {
    // Exactly one dimension must vary with the deepest loop.
    let dims: Vec<usize> = set
        .signature
        .iter()
        .enumerate()
        .filter(|(_, row)| row[deepest_varying] != 0)
        .map(|(d, _)| d)
        .collect();
    let [window_dim] = dims.as_slice() else {
        return None;
    };
    let window_dim = *window_dim;
    // The window shifts by coeff·step elements per iteration.
    if set.signature[window_dim][deepest_varying] != 1 {
        return None; // non-unit stride windows are left to plain loads
    }
    let step = steps[deepest_varying];
    // Group the offsets into lanes by the offsets of all other dimensions
    // (an index map keeps this linear in the jammed offset count).
    let mut lanes: Vec<WindowLane> = Vec::new();
    let mut lane_index: HashMap<Vec<i64>, usize> = HashMap::new();
    for off in set.distinct_offsets() {
        let key: Vec<i64> = off
            .iter()
            .enumerate()
            .filter(|(d, _)| *d != window_dim)
            .map(|(_, &v)| v)
            .collect();
        let w = off[window_dim];
        match lane_index.get(&key) {
            Some(&i) => {
                let lane = &mut lanes[i];
                lane.lo = lane.lo.min(w);
                lane.hi = lane.hi.max(w);
                lane.offsets.push(off);
            }
            None => {
                lane_index.insert(key, lanes.len());
                lanes.push(WindowLane {
                    lo: w,
                    hi: w,
                    offsets: vec![off],
                });
            }
        }
    }
    // Keep only lanes with carried reuse; others stay as plain loads.
    lanes.retain(|lane| lane.span() as i64 > step);
    if lanes.is_empty() {
        return None;
    }
    Some(Reuse::Window {
        read,
        level: deepest_varying,
        window_dim,
        step,
        lanes,
    })
}

/// Build the statements of a plan, rewrite the body through them, hoist
/// the body's remaining loads and reassemble the nest. Returns the new
/// kernel body, the register declarations and the statistics.
pub(crate) fn materialize(
    kernel: &Kernel,
    input: &ScalarInput<'_>,
    plan: &ReusePlan,
) -> (Vec<Stmt>, Vec<ScalarDecl>, ScalarReplacementInfo) {
    let ScalarInput {
        loops,
        vars,
        body,
        sets,
    } = *input;
    let depth = loops.len();
    let mut names = NameGen::new(kernel, vars);
    let mut info = plan.info();
    let mut edits = Edits::new(depth);
    for reuse in &plan.decisions {
        edits.add(reuse, &sets[reuse.set()], vars, kernel, &mut names);
    }

    // Rewrite the innermost body: the one copy of the (shared) jammed
    // statements, which every later stage rewrites in place.
    let mut new_body: Vec<Stmt> =
        Vec::with_capacity(edits.body_prefix.len() + body.len() + edits.body_suffix.len());
    new_body.append(&mut edits.body_prefix);
    for &s in body {
        rewrite_stmt(s, &edits, &mut new_body);
    }
    new_body.append(&mut edits.body_suffix);

    // Load dedup/hoist on the rewritten body.
    let new_body = hoist_remaining_loads(&mut names, &mut info, new_body, kernel);

    // Reassemble the (now imperfect) nest: each loop level wraps its
    // hoisted loads, the inner nest, and its sunk stores.
    let mut stmts = new_body;
    for level in (0..depth).rev() {
        let body = if level == depth - 1 {
            stmts
        } else {
            let mut b = std::mem::take(&mut edits.pre[level]);
            b.extend(stmts);
            b.append(&mut edits.post[level]);
            b
        };
        stmts = vec![wrap_loop(&loops[level], body)];
    }
    let mut final_body = edits.top;
    final_body.extend(stmts);
    final_body.extend(edits.bottom);

    (final_body, names.decls, info)
}

fn wrap_loop(template: &Loop, body: Vec<Stmt>) -> Stmt {
    Stmt::For(Loop {
        var: template.var.clone(),
        lower: template.lower,
        upper: template.upper,
        step: template.step,
        body,
    })
}

/// The statements a plan adds around and inside the nest, and the
/// load/store rewrites it applies to the body.
struct Edits {
    /// Per level: statements at the top of that loop's body (hoisted
    /// loads), only used for levels shallower than the innermost.
    pre: Vec<Vec<Stmt>>,
    /// Per level: statements at the bottom of that loop's body (sunk
    /// stores).
    post: Vec<Vec<Stmt>>,
    /// Start of the innermost body (chain guards, window loads).
    body_prefix: Vec<Stmt>,
    /// End of the innermost body (rotates).
    body_suffix: Vec<Stmt>,
    /// Before the whole nest.
    top: Vec<Stmt>,
    /// After the whole nest.
    bottom: Vec<Stmt>,
    /// Load rewrites: exact access → replacement register read.
    load_rewrites: HashMap<ArrayAccess, Expr>,
    /// Store rewrites: exact access → register name.
    store_rewrites: HashMap<ArrayAccess, Name>,
}

impl Edits {
    fn new(depth: usize) -> Self {
        Edits {
            pre: vec![Vec::new(); depth],
            post: vec![Vec::new(); depth],
            body_prefix: Vec::new(),
            body_suffix: Vec::new(),
            top: Vec::new(),
            bottom: Vec::new(),
            load_rewrites: HashMap::new(),
            store_rewrites: HashMap::new(),
        }
    }

    /// Add one decision's registers, statements and rewrites. `set` is
    /// the decision's [`Reuse::set`].
    fn add(
        &mut self,
        reuse: &Reuse,
        set: &UniformSet,
        vars: &[Name],
        kernel: &Kernel,
        names: &mut NameGen<'_>,
    ) {
        let ty = element_type(kernel, &set.array);
        let base = set.array.to_lowercase();
        let access = |off: &[i64]| access_of(&set.array, &set.signature, vars, off);
        let fill = |reg: &Name, access: ArrayAccess| {
            Stmt::assign(LValue::scalar(reg.clone()), Expr::Load(access))
        };
        let first_iteration =
            |level: usize| Expr::bin(BinOp::Eq, Expr::scalar(&vars[level]), Expr::Int(0));
        match reuse {
            Reuse::Accumulator { level, slots, .. } => {
                for slot in slots {
                    let reg = names.fresh(format!("{base}_{}", join_offsets(&slot.offset)), ty);
                    let access = access(&slot.offset);
                    if slot.read {
                        // Hoisted initializing load.
                        self.pre[*level].push(fill(&reg, access.clone()));
                        self.load_rewrites
                            .insert(access.clone(), Expr::scalar(reg.clone()));
                    }
                    if slot.written {
                        // Sunk final store; intermediate stores are
                        // eliminated.
                        self.post[*level].push(Stmt::assign(
                            LValue::Array(access.clone()),
                            Expr::scalar(reg.clone()),
                        ));
                        self.store_rewrites.insert(access, reg);
                    }
                }
            }
            Reuse::Hoisted { level, offsets, .. } => {
                for off in offsets {
                    let reg = names.fresh(format!("{base}_{}", join_offsets(off)), ty);
                    let access = access(off);
                    let at = match level {
                        Some(l) => &mut self.pre[*l],
                        None => &mut self.top,
                    };
                    at.push(fill(&reg, access.clone()));
                    self.load_rewrites.insert(access, Expr::scalar(reg));
                }
            }
            Reuse::Chain {
                level,
                invariant_levels,
                lanes,
                length,
                ..
            } => {
                // Guard: `var == 0` for the reuse loop and every invariant
                // loop between it and the deepest varying loop.
                let cond = invariant_levels
                    .iter()
                    .fold(first_iteration(*level), |c, &l| {
                        Expr::bin(BinOp::And, c, first_iteration(l))
                    });
                for (lane_idx, lane_off) in lanes.iter().enumerate() {
                    let regs: Vec<Name> = (0..*length)
                        .map(|p| names.fresh(format!("{base}_{lane_idx}_{p}"), ty))
                        .collect();
                    let access = access(lane_off);
                    self.body_prefix.push(Stmt::If {
                        cond: cond.clone(),
                        then_body: vec![fill(&regs[0], access.clone())],
                        else_body: vec![],
                    });
                    self.load_rewrites
                        .insert(access, Expr::scalar(regs[0].clone()));
                    if regs.len() >= 2 {
                        self.body_suffix.push(Stmt::Rotate(regs));
                    }
                }
            }
            Reuse::Window {
                level,
                window_dim,
                step,
                lanes,
                ..
            } => {
                for (lane_idx, lane) in lanes.iter().enumerate() {
                    let span = lane.span();
                    let carried = span.saturating_sub(*step as usize);
                    let regs: Vec<Name> = (0..span)
                        .map(|p| names.fresh(format!("{base}_w{lane_idx}_{p}"), ty))
                        .collect();
                    let position = |p: usize| access(&lane.at(*window_dim, p));
                    // First-iteration fill of the carried positions.
                    if carried > 0 {
                        self.body_prefix.push(Stmt::If {
                            cond: first_iteration(*level),
                            then_body: regs[..carried]
                                .iter()
                                .enumerate()
                                .map(|(p, reg)| fill(reg, position(p)))
                                .collect(),
                            else_body: vec![],
                        });
                    }
                    // Per-iteration loads of the new top elements.
                    for (p, reg) in regs.iter().enumerate().skip(carried) {
                        self.body_prefix.push(fill(reg, position(p)));
                    }
                    // Body reads come from window positions.
                    for off in &lane.offsets {
                        let p = (off[*window_dim] - lane.lo) as usize;
                        self.load_rewrites
                            .insert(access(off), Expr::scalar(regs[p].clone()));
                    }
                    // Shift by `step` at the end of the body.
                    if carried > 0 && regs.len() >= 2 {
                        for _ in 0..*step {
                            self.body_suffix.push(Stmt::Rotate(regs.clone()));
                        }
                    }
                }
            }
        }
    }
}

/// Fresh register names, clear of every declared name, loop variable
/// and register made so far. The only place scalar replacement
/// allocates a name.
struct NameGen<'a> {
    /// Declared arrays and scalars and the loop variables, borrowed.
    taken: HashSet<&'a str>,
    /// Registers made so far.
    made: HashSet<Name>,
    decls: Vec<ScalarDecl>,
}

impl<'a> NameGen<'a> {
    fn new(kernel: &'a Kernel, loop_vars: &'a [Name]) -> Self {
        let taken = kernel
            .arrays()
            .iter()
            .map(|a| a.name.as_str())
            .chain(kernel.scalars().iter().map(|s| s.name.as_str()))
            .chain(loop_vars.iter().map(Name::as_str))
            .collect();
        NameGen {
            taken,
            made: HashSet::new(),
            decls: Vec::new(),
        }
    }

    fn is_used(&self, name: &str) -> bool {
        self.taken.contains(name) || self.made.contains(name)
    }

    /// `base`, or `base_N` with the smallest free `N`.
    fn fresh(&mut self, base: String, ty: ScalarType) -> Name {
        let mut text = base;
        if self.is_used(&text) {
            let base = text;
            let mut n = 1;
            text = format!("{base}_{n}");
            while self.is_used(&text) {
                n += 1;
                text = format!("{base}_{n}");
            }
        }
        let name = Name::from(text.as_str());
        self.made.insert(name.clone());
        self.decls.push(ScalarDecl::temp(text, ty));
        name
    }
}

/// Reconstruct the concrete `ArrayAccess` of a set member from signature
/// and constant offsets. The names are shared with `array` and `vars`.
fn access_of(array: &Name, signature: &[Vec<i64>], vars: &[Name], offsets: &[i64]) -> ArrayAccess {
    let indices = signature
        .iter()
        .zip(offsets)
        .map(|(row, &c)| {
            let mut e = AffineExpr::constant(c);
            for (v, &coeff) in vars.iter().zip(row) {
                e.add_term(v, coeff);
            }
            e
        })
        .collect();
    ArrayAccess::new(array, indices)
}

fn element_type(kernel: &Kernel, array: &str) -> ScalarType {
    kernel.array(array).map(|a| a.ty).unwrap_or(ScalarType::I32)
}

/// Rewrite one body statement through the load/store maps, pushing the
/// rewritten copy onto `out`.
fn rewrite_stmt(s: &Stmt, edits: &Edits, out: &mut Vec<Stmt>) {
    let rewrite_loads = |e: &Expr| e.replace_loads(&mut |a| edits.load_rewrites.get(a).cloned());
    match s {
        Stmt::Assign { lhs, rhs } => {
            let lhs = match lhs {
                // Redundant-write elimination: the store becomes a
                // register assignment; the final store was sunk.
                LValue::Array(a) => match edits.store_rewrites.get(a) {
                    Some(reg) => LValue::scalar(reg.clone()),
                    None => lhs.clone(),
                },
                LValue::Scalar(_) => lhs.clone(),
            };
            out.push(Stmt::Assign {
                lhs,
                rhs: rewrite_loads(rhs),
            });
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let rewrite_all = |stmts: &[Stmt]| {
                let mut v = Vec::with_capacity(stmts.len());
                for s in stmts {
                    rewrite_stmt(s, edits, &mut v);
                }
                v
            };
            out.push(Stmt::If {
                cond: rewrite_loads(cond),
                then_body: rewrite_all(then_body),
                else_body: rewrite_all(else_body),
            });
        }
        other => out.push(other.clone()),
    }
}

/// Hoist every remaining load of a store-free array to the top of the
/// body, one register per distinct address (loads of the same address
/// collapse — the paper's `S_0` temporary). Takes the body over and
/// returns it unchanged when nothing hoists; otherwise the loads are
/// replaced in place.
fn hoist_remaining_loads(
    names: &mut NameGen,
    info: &mut ScalarReplacementInfo,
    mut body: Vec<Stmt>,
    kernel: &Kernel,
) -> Vec<Stmt> {
    // Arrays stored anywhere in the (new) body keep their loads in place.
    let mut stored: HashSet<Name> = HashSet::new();
    collect_stored_arrays(&body, &mut stored);

    // Distinct loads in first-occurrence order.
    let mut order: Vec<ArrayAccess> = Vec::new();
    let mut seen: HashSet<ArrayAccess> = HashSet::new();
    collect_loads(&body, &stored, &mut seen, &mut order);
    if order.is_empty() {
        return body;
    }

    let mut map: HashMap<ArrayAccess, Expr> = HashMap::new();
    let mut out: Vec<Stmt> = Vec::with_capacity(order.len() + body.len());
    for a in order {
        let ty = element_type(kernel, &a.array);
        let reg = names.fresh(format!("{}_t{}", a.array.to_lowercase(), map.len()), ty);
        out.push(Stmt::assign(
            LValue::scalar(reg.clone()),
            Expr::Load(a.clone()),
        ));
        map.insert(a, Expr::scalar(reg));
        info.temp_registers += 1;
    }

    replace_loads_in_stmts(&mut body, &map);
    out.append(&mut body);
    out
}

fn collect_stored_arrays(body: &[Stmt], out: &mut HashSet<Name>) {
    for s in body {
        match s {
            Stmt::Assign { lhs, .. } => {
                if let Some(a) = lhs.as_array() {
                    out.insert(a.array.clone());
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_stored_arrays(then_body, out);
                collect_stored_arrays(else_body, out);
            }
            _ => {}
        }
    }
}

fn push_load(
    a: &ArrayAccess,
    stored: &HashSet<Name>,
    seen: &mut HashSet<ArrayAccess>,
    out: &mut Vec<ArrayAccess>,
) {
    if !stored.contains(&a.array) && seen.insert(a.clone()) {
        out.push(a.clone());
    }
}

fn collect_loads(
    body: &[Stmt],
    stored: &HashSet<Name>,
    seen: &mut HashSet<ArrayAccess>,
    out: &mut Vec<ArrayAccess>,
) {
    for s in body {
        match s {
            Stmt::Assign { rhs, .. } => {
                // Loads already feeding a load-hoist register (an
                // assignment whose rhs is exactly one load) still count —
                // but chain guards are `If` statements handled below; a
                // bare `reg = A[..]` prefix line would be double-hoisted,
                // so skip rhs that is exactly a single load into a scalar
                // introduced earlier in this same body prefix. Simpler and
                // sound: skip statements whose rhs is exactly a Load (they
                // are already single loads into registers).
                if matches!(rhs, Expr::Load(_)) {
                    continue;
                }
                for a in rhs.loads() {
                    push_load(a, stored, seen, out);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                for a in cond.loads() {
                    push_load(a, stored, seen, out);
                }
                // Conditional bodies: hoisting their loads makes them
                // unconditional, which is what the paper's generated code
                // does ("always performs conditional memory accesses").
                // Chain-guard fills (rhs exactly a load) stay conditional.
                collect_loads(then_body, stored, seen, out);
                collect_loads(else_body, stored, seen, out);
            }
            _ => {}
        }
    }
}

/// Swap every load `map` covers for its register, in place. Register-fill
/// lines (an rhs that is exactly one load) keep their load.
fn replace_loads_in_stmts(stmts: &mut [Stmt], map: &HashMap<ArrayAccess, Expr>) {
    for s in stmts {
        match s {
            Stmt::Assign { rhs, .. } => {
                if !matches!(rhs, Expr::Load(_)) {
                    replace_loads_in_expr(rhs, map);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                replace_loads_in_expr(cond, map);
                replace_loads_in_stmts(then_body, map);
                replace_loads_in_stmts(else_body, map);
            }
            Stmt::For(_) | Stmt::Rotate(_) => {}
        }
    }
}

fn replace_loads_in_expr(e: &mut Expr, map: &HashMap<ArrayAccess, Expr>) {
    match e {
        Expr::Int(_) | Expr::Scalar(_) => {}
        Expr::Load(a) => {
            if let Some(reg) = map.get(a) {
                *e = reg.clone();
            }
        }
        Expr::Unary(_, inner) => replace_loads_in_expr(inner, map),
        Expr::Binary(_, a, b) => {
            replace_loads_in_expr(a, map);
            replace_loads_in_expr(b, map);
        }
        Expr::Select(c, t, f) => {
            replace_loads_in_expr(c, map);
            replace_loads_in_expr(t, map);
            replace_loads_in_expr(f, map);
        }
    }
}

fn join_offsets(off: &[i64]) -> String {
    off.iter()
        .map(|v| {
            if *v < 0 {
                format!("m{}", -v)
            } else {
                v.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize_loops;
    use crate::unroll::unroll_and_jam;
    use defacto_ir::{parse_kernel, run_with_inputs};

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn fir_inputs() -> Vec<(&'static str, Vec<i64>)> {
        vec![
            ("S", (0..96).map(|x| (x * 7 % 23) - 11).collect()),
            ("C", (0..32).map(|x| (x * 5 % 17) - 8).collect()),
        ]
    }

    #[test]
    fn fir_semantics_preserved() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let (w0, s0) = run_with_inputs(&k, &inputs).unwrap();
        for factors in [[1i64, 1], [2, 2], [4, 8], [8, 4]] {
            let u = unroll_and_jam(&k, &factors).unwrap();
            let (r, _info) = scalar_replace(&u, &ScalarOptions::default()).unwrap();
            let (w1, _) = run_with_inputs(&r, &inputs).unwrap();
            assert_eq!(w0.array("D"), w1.array("D"), "factors {factors:?}\n{r}");
        }
        let _ = s0;
    }

    #[test]
    fn fir_memory_traffic_is_cut() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let (_, s0) = run_with_inputs(&k, &inputs).unwrap();
        let u = unroll_and_jam(&k, &[2, 2]).unwrap();
        let (r, info) = scalar_replace(&u, &ScalarOptions::default()).unwrap();
        let (_, s1) = run_with_inputs(&r, &inputs).unwrap();

        // Original: S loaded 2048 times; replaced: 3 loads per unrolled
        // body × 512 bodies = 1536.
        assert_eq!(s0.loads_by_array["S"], 2048);
        assert_eq!(s1.loads_by_array["S"], 3 * 512);
        // C: loaded only during the first j iteration: 32 loads.
        assert_eq!(s0.loads_by_array["C"], 2048);
        assert_eq!(s1.loads_by_array["C"], 32);
        // D: one load + one store per j value.
        assert_eq!(s1.loads_by_array["D"], 64);
        assert_eq!(s1.stores_by_array["D"], 64);
        assert_eq!(s0.stores_by_array["D"], 2048);

        // Registers: d×2, C chains 2×16, S temps 3.
        assert_eq!(info.reuse_registers, 2 + 32);
        assert_eq!(info.temp_registers, 3);
        assert_eq!(info.chains, 2);
    }

    #[test]
    fn redundant_write_elim_can_be_disabled() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let u = unroll_and_jam(&k, &[2, 2]).unwrap();
        let opts = ScalarOptions {
            redundant_write_elim: false,
            register_budget: None,
        };
        let (r, _info) = scalar_replace(&u, &opts).unwrap();
        let (w1, s1) = run_with_inputs(&r, &inputs).unwrap();
        let (w0, _) = run_with_inputs(&k, &inputs).unwrap();
        assert_eq!(w0.array("D"), w1.array("D"));
        // Stores are NOT eliminated.
        assert_eq!(s1.stores_by_array["D"], 2048);
    }

    #[test]
    fn register_budget_drops_chains() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let u = unroll_and_jam(&k, &[2, 2]).unwrap();
        let opts = ScalarOptions {
            redundant_write_elim: true,
            register_budget: Some(8), // too small for the 32-register C chain
        };
        let (r, info) = scalar_replace(&u, &opts).unwrap();
        assert_eq!(info.dropped_by_budget, 1);
        assert!(info.reuse_registers <= 8 + 2); // accumulators exempt
        let (w1, s1) = run_with_inputs(&r, &inputs).unwrap();
        let (w0, _) = run_with_inputs(&k, &inputs).unwrap();
        assert_eq!(w0.array("D"), w1.array("D"));
        // C is loaded every iteration again (2 loads per body × 512).
        assert_eq!(s1.loads_by_array["C"], 2 * 512);
    }

    #[test]
    fn stencil_window_reuse() {
        let st = parse_kernel(
            "kernel st { in A: i16[66]; out B: i16[64];
               for i in 0..64 { B[i] = A[i] + A[i + 1] + A[i + 2]; } }",
        )
        .unwrap();
        let input: Vec<i64> = (0..66).map(|x| x * 3 - 40).collect();
        let (w0, s0) = run_with_inputs(&st, &[("A", input.clone())]).unwrap();
        let (r, info) = scalar_replace(&st, &ScalarOptions::default()).unwrap();
        let (w1, s1) = run_with_inputs(&r, &[("A", input)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"), "{r}");
        assert_eq!(s0.loads_by_array["A"], 3 * 64);
        // Window: 1 new load per iteration + 2 fills on the first.
        assert_eq!(s1.loads_by_array["A"], 64 + 2);
        assert_eq!(info.chains, 1);
        assert_eq!(info.reuse_registers, 3);
    }

    #[test]
    fn matmul_inner_loop_has_no_memory_accesses() {
        let mm = parse_kernel(
            "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
               for i in 0..32 { for j in 0..4 { for k in 0..16 {
                 C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }",
        )
        .unwrap();
        let a: Vec<i64> = (0..512).map(|x| (x % 11) - 5).collect();
        let b: Vec<i64> = (0..64).map(|x| (x % 7) - 3).collect();
        let (w0, _) = run_with_inputs(&mm, &[("A", a.clone()), ("B", b.clone())]).unwrap();
        let (r, _) = scalar_replace(&mm, &ScalarOptions::default()).unwrap();
        let (w1, s1) = run_with_inputs(&r, &[("A", a.clone()), ("B", b.clone())]).unwrap();
        assert_eq!(w0.array("C"), w1.array("C"), "{r}");
        // The paper: "through loop-invariant code motion the compiler has
        // eliminated all memory accesses in the innermost loop" — loads of
        // A and B happen only on first iterations of their reuse loops.
        assert_eq!(s1.loads_by_array["A"], 32 * 16); // once per (i,k)
        assert_eq!(s1.loads_by_array["B"], 16 * 4); // once per (k,j)
        assert_eq!(s1.loads_by_array["C"], 32 * 4);
        assert_eq!(s1.stores_by_array["C"], 32 * 4);
    }

    #[test]
    fn conditional_accesses_are_not_replaced() {
        let k = parse_kernel(
            "kernel cd { in A: i32[8]; inout B: i32[4];
               for j in 0..4 { for i in 0..8 {
                 if (A[i] > 0) { B[j] = B[j] + A[i]; } } } }",
        )
        .unwrap();
        let a: Vec<i64> = vec![1, -2, 3, -4, 5, -6, 7, -8];
        let (w0, _) = run_with_inputs(&k, &[("A", a.clone())]).unwrap();
        let (r, _) = scalar_replace(&k, &ScalarOptions::default()).unwrap();
        let (w1, _) = run_with_inputs(&r, &[("A", a)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"), "{r}");
    }

    #[test]
    fn loads_under_a_branch_hoist_into_registers() {
        let k = parse_kernel(
            "kernel hb { in A: i32[8]; out B: i32[8];
               for i in 0..8 { if (i > 2) { B[i] = A[i] + 1; } } }",
        )
        .unwrap();
        let (r, info) = scalar_replace(&k, &ScalarOptions::default()).unwrap();
        assert_eq!(info.temp_registers, 1, "{r}");
        // The load moves to a register filled above the branch, and the
        // branch reads the register.
        let Stmt::For(l) = &r.body()[0] else {
            panic!("{r}")
        };
        let Stmt::Assign {
            rhs: Expr::Load(_), ..
        } = &l.body[0]
        else {
            panic!("{r}")
        };
        let Stmt::If { then_body, .. } = &l.body[1] else {
            panic!("{r}")
        };
        assert!(then_body.iter().all(|s| s.direct_loads().is_empty()), "{r}");
        let a: Vec<i64> = (1..=8).collect();
        let (w0, _) = run_with_inputs(&k, &[("A", a.clone())]).unwrap();
        let (w1, _) = run_with_inputs(&r, &[("A", a)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"), "{r}");
    }

    #[test]
    fn aliased_writes_block_replacement() {
        // A read uniformly as A[i] but written as A[i+1]: replacing the
        // reads with registers would miss the updates.
        let k = parse_kernel(
            "kernel al { inout A: i32[65];
               for i in 0..64 { A[i + 1] = A[i] + 1; } }",
        )
        .unwrap();
        let (r, _info) = scalar_replace(&k, &ScalarOptions::default()).unwrap();
        let (w0, _) = run_with_inputs(&k, &[]).unwrap();
        let (w1, _) = run_with_inputs(&r, &[]).unwrap();
        assert_eq!(w0.array("A"), w1.array("A"), "{r}");
    }

    #[test]
    fn write_only_store_sinking() {
        // B[j] written every inner iteration; only the final value
        // matters.
        let k = parse_kernel(
            "kernel ws { in A: i32[8]; out B: i32[4];
               for j in 0..4 { for i in 0..8 {
                 B[j] = A[i] + j; } } }",
        )
        .unwrap();
        let a: Vec<i64> = (0..8).collect();
        let (w0, s0) = run_with_inputs(&k, &[("A", a.clone())]).unwrap();
        let (r, _) = scalar_replace(&k, &ScalarOptions::default()).unwrap();
        let (w1, s1) = run_with_inputs(&r, &[("A", a)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"), "{r}");
        assert_eq!(s0.stores_by_array["B"], 32);
        assert_eq!(s1.stores_by_array["B"], 4);
    }

    #[test]
    fn normalized_stencil_with_offset_bounds() {
        let jac = parse_kernel(
            "kernel jac { in A: i16[10][10]; out B: i16[10][10];
               for i in 1..9 { for j in 1..9 {
                 B[i][j] = (A[i - 1][j] + A[i + 1][j] + A[i][j - 1] + A[i][j + 1]) / 4;
               } } }",
        )
        .unwrap();
        let n = normalize_loops(&jac).unwrap();
        let input: Vec<i64> = (0..100).map(|x| (x * 31 % 97) - 48).collect();
        let (w0, _) = run_with_inputs(&jac, &[("A", input.clone())]).unwrap();
        let (r, info) = scalar_replace(&n, &ScalarOptions::default()).unwrap();
        let (w1, s1) = run_with_inputs(&r, &[("A", input)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"), "{r}");
        // Row i (offsets j-1, j+1): windowed, 3 registers; rows i±1 have a
        // single j offset each (span 1 = step): plain loads.
        assert!(info.chains >= 1);
        // Loads: rows i-1 and i+1 load 1 each per iteration; row i loads 1
        // per iteration plus 2 fills per row start (8 rows).
        assert_eq!(s1.loads_by_array["A"], 64 + 64 + 64 + 2 * 8);
    }
}
