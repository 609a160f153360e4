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
//! The pass decides before it builds. `plan_reuse` makes every reuse
//! decision — the grouping, the conditional and aliasing screens, the
//! classification, the choice of pattern and the §5.4 register budget —
//! over set indices and offset vectors only, into a `ReusePlan`.
//! `plan_loads` then decides, from that plan and the body's `LoadSite`s,
//! which of the loads it leaves stay in place and which hoist, into a
//! `LoadPlan`. `materialize` names the registers, builds the statements
//! and rewrites the body. The tier-0 census ([`crate::census`]) folds the
//! same two plans into counts, so its registers and memory traffic
//! cannot disagree with the design this pass builds.

use crate::error::{Result, XformError};
use defacto_analysis::{
    classify_set_bounded, uniform_sets, AccessTable, ReuseStrategy, UniformSet,
};
use defacto_ir::decl::ScalarDecl;
use defacto_ir::{
    AffineExpr, ArrayAccess, BinOp, Expr, Kernel, LValue, Loop, Name, ScalarType, Stmt,
};
use std::collections::hash_map::Entry;
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
/// plus the body, its uniformly generated sets and its loads. The scratch
/// path computes them from the kernel; the prepared path derives them
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
    /// The loads of one base-body copy, in program order.
    pub sites: &'a [LoadSite],
    /// The stores of one base-body copy, in program order.
    pub stores: &'a [StoreSite],
    /// Base-body copies `body` is made of (`sets` are copy-major).
    pub copies: usize,
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
    let (sites, stores) = access_sites(body, &table, &sets);
    let (final_body, decls, info) = materialize(
        kernel,
        &ScalarInput {
            loops: &loops,
            vars: &vars,
            body: &body_refs,
            sets: &sets,
            sites: &sites,
            stores: &stores,
            copies: 1,
        },
        &plan,
    );
    let kernel2 = kernel.with_body_and_temps(final_body, decls)?;
    Ok((kernel2, info))
}

/// One accumulator register: its constant offset, and whether the group
/// reads and writes that address.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Slot<'a> {
    pub offset: &'a [i64],
    pub read: bool,
    pub written: bool,
}

/// One lane of a rolling window: the range `lo..=hi` it spans along the
/// window dimension, and the set's distinct offsets in that lane, sorted.
#[derive(Debug)]
pub(crate) struct WindowLane<'a> {
    pub lo: i64,
    pub hi: i64,
    pub offsets: Vec<&'a [i64]>,
}

impl WindowLane<'_> {
    /// Registers of the lane: one per window position.
    pub fn span(&self) -> usize {
        (self.hi - self.lo + 1) as usize
    }

    /// The lane's offset at window position `p` (element `lo + p`).
    pub fn at(&self, window_dim: usize, p: usize) -> Vec<i64> {
        let mut off = self.offsets[0].to_vec();
        off[window_dim] = self.lo + p as i64;
        off
    }
}

/// One kept scalar-replacement decision. Sets are named by their index in
/// the planner's input and registers by their constant offsets, rows
/// borrowed from those sets, so a decision holds no name, statement or
/// access, and no offset of its own.
#[derive(Debug)]
pub(crate) enum Reuse<'a> {
    /// A written set invariant in the loops deeper than `level`, with its
    /// read set if any: one register per offset. Read offsets load at the
    /// top of loop `level`'s body and written ones store at its bottom;
    /// every store in between becomes a register assignment
    /// (redundant-write elimination). Slots are sorted by offset.
    Accumulator {
        read: Option<usize>,
        write: usize,
        level: usize,
        slots: Vec<Slot<'a>>,
    },
    /// A read set invariant in the loops deeper than `level`: one register
    /// per distinct offset, loaded at the top of loop `level`'s body, or
    /// once before the whole nest when `level` is `None` (constant
    /// subscripts).
    Hoisted {
        read: usize,
        level: Option<usize>,
        offsets: Vec<&'a [i64]>,
    },
    /// A read set whose values recur across loop `level`: one chain of
    /// `length` rotating registers per lane, filled on the first
    /// iteration of `level` and of each of `invariant_levels` (the loops
    /// between it and the deepest varying loop that the set ignores).
    Chain {
        read: usize,
        level: usize,
        invariant_levels: Vec<usize>,
        lanes: Vec<&'a [i64]>,
        length: usize,
    },
    /// A read set with consistent distances along loop `level`, the
    /// deepest it varies with, in exactly one unit-stride dimension
    /// `window_dim`: per lane, a window of registers that shifts by
    /// `step` each iteration, so only `step` new elements load. Lanes
    /// without carried reuse are left to plain loads, so the lanes cover
    /// all `distinct` offsets of the set only when none was left.
    Window {
        read: usize,
        level: usize,
        window_dim: usize,
        step: i64,
        lanes: Vec<WindowLane<'a>>,
        distinct: usize,
    },
}

impl Reuse<'_> {
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
pub(crate) struct ReusePlan<'a> {
    /// Kept decisions in the order their registers are named: direct
    /// (accumulator and hoisted) decisions in group order, then the kept
    /// carried (chain and window) decisions in budget order.
    pub decisions: Vec<Reuse<'a>>,
    /// See [`ScalarReplacementInfo::unexploited_sets`].
    pub unexploited_sets: usize,
    /// See [`ScalarReplacementInfo::dropped_by_budget`].
    pub dropped_by_budget: usize,
}

impl ReusePlan<'_> {
    /// The plan's statistics. Load hoisting ([`LoadPlan`]) adds
    /// `temp_registers`.
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
pub(crate) fn plan_reuse<'a>(
    sets: &'a [UniformSet],
    trips: &[i64],
    steps: &[i64],
    conditional: &dyn Fn(&UniformSet) -> bool,
    opts: &ScalarOptions,
) -> ReusePlan<'a> {
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
    let mut carried: Vec<Reuse<'a>> = Vec::new();
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
                let mut slots: Vec<Slot<'a>> = sets[write]
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

fn plan_chain<'a>(
    set: &'a UniformSet,
    read: usize,
    deepest_varying: usize,
    level: usize,
    trips: &[i64],
) -> Option<Reuse<'a>> {
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

fn plan_window<'a>(
    set: &'a UniformSet,
    read: usize,
    deepest_varying: usize,
    steps: &[i64],
) -> Option<Reuse<'a>> {
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
    // Group the offsets into lanes by the offsets of all other dimensions.
    // The distinct rows are sorted, so a stable sort by lane makes each
    // lane one run that stays in row order (by window position). Lanes
    // then go in the order of their first rows, which is the order the
    // lanes first appear among the sorted distinct rows.
    let lane = |row: &'a [i64]| (&row[..window_dim], &row[window_dim + 1..]);
    let mut rows = set.distinct_offsets();
    rows.sort_by_key(|&row| lane(row));
    let mut lanes: Vec<WindowLane<'a>> = rows
        .chunk_by(|&a, &b| lane(a) == lane(b))
        .map(|run| WindowLane {
            lo: run[0][window_dim],
            hi: run[run.len() - 1][window_dim],
            offsets: run.to_vec(),
        })
        .collect();
    lanes.sort_unstable_by_key(|lane| lane.offsets[0]);
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
        distinct: rows.len(),
    })
}

/// One load of a base body. Jamming keeps set indices, so a site names
/// its load in every copy of the body.
#[derive(Debug, Clone)]
pub(crate) struct LoadSite {
    /// The read set the load belongs to.
    pub set: usize,
    /// The load's position among its base set's members. Jammed members
    /// are copy-major, so copy `t` of the load is member
    /// `t * base_set.len() + member` of the jammed set.
    member: usize,
    /// The load is the entire right-hand side of an assignment, that is
    /// already a register fill, so it is never hoisted.
    sole: bool,
    /// The load sits inside an `if` branch.
    pub conditional: bool,
}

/// The store of a base body: its write set and its position among that
/// set's base members, like [`LoadSite::member`].
#[derive(Debug, Clone)]
pub(crate) struct StoreSite {
    set: usize,
    member: usize,
}

/// The load and store sites of a base body, each in program order. The
/// `k`-th load occurrence is the `k`-th read of the body's access table:
/// both walk the statements, a condition before its branches, in the
/// same order. The stores are the table's writes.
pub(crate) fn access_sites(
    body: &[Stmt],
    table: &AccessTable,
    sets: &[UniformSet],
) -> (Vec<LoadSite>, Vec<StoreSite>) {
    // `(set, member)` of every access.
    let mut place = vec![None; table.len()];
    for (set, s) in sets.iter().enumerate() {
        for (member, id) in s.members.iter().enumerate() {
            place[id.0] = Some((set, member));
        }
    }
    let mut occurrences = Vec::new();
    collect_load_occurrences(body, false, &mut occurrences);
    let loads = occurrences
        .iter()
        .zip(table.reads())
        .filter_map(|(&(access, sole, conditional), read)| {
            debug_assert_eq!(access, &read.access);
            let (set, member) = place[read.id.0]?;
            Some(LoadSite {
                set,
                member,
                sole,
                conditional,
            })
        })
        .collect();
    let stores = table
        .writes()
        .filter_map(|write| {
            let (set, member) = place[write.id.0]?;
            Some(StoreSite { set, member })
        })
        .collect();
    (loads, stores)
}

/// Collect every load occurrence of a body with its context: whether it
/// is the entire right-hand side of an assignment, and whether it sits
/// inside an `if` branch (a condition's own loads execute whenever the
/// statement does, so they inherit the *enclosing* context).
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

/// Where the loads and stores a [`ReusePlan`] leaves in the body go, made
/// by [`plan_loads`]. Like the reuse plan it holds set indices and
/// borrowed offset rows only. [`materialize`] builds the hoisted
/// temporaries from it; the tier-0 census ([`crate::census`]) folds it
/// into memory traffic.
#[derive(Debug)]
pub(crate) struct LoadPlan<'a> {
    /// Write sets whose stores stay in the body (no accumulator sinks
    /// them), in set order.
    pub kept_stores: Vec<usize>,
    /// Loads that stay where they are, site-major: the index of the site
    /// and the copy's offsets, every copy listed.
    pub in_place: Vec<(usize, &'a [i64])>,
    /// Hoisted loads, one per distinct address, in site-major order of
    /// first occurrence.
    pub hoisted: Vec<Hoist<'a>>,
}

/// One hoisted address: a temporary filled at the top of the body.
#[derive(Debug)]
pub(crate) struct Hoist<'a> {
    /// The read set of the address.
    pub set: usize,
    /// Its constant offsets.
    pub offsets: &'a [i64],
    /// `(copy, site)` of its first load in body order, which is
    /// copy-major: temporaries are named in this order.
    first: (usize, usize),
}

/// The loads of one read set that a reuse plan rewrites to register
/// reads.
enum Replaced<'a> {
    /// None: every load of the set stays.
    None,
    /// These distinct offsets, sorted.
    Some(Vec<&'a [i64]>),
    /// Every distinct offset of the set.
    All,
}

/// Decide where each load that `reuse` leaves in the body goes. A load
/// stays in place when it already fills a register (the whole
/// right-hand side of an assignment), when its array is stored in the
/// body, or when there is no scalar replacement (`reuse` is `None`).
/// Every other load hoists into a temporary filled at the top of the
/// body, one per distinct address, so duplicated addresses load once.
/// Hoisting makes the loads of conditional statements unconditional,
/// which is what the paper's generated code does ("always performs
/// conditional memory accesses").
///
/// `sites` are the loads of one base-body copy and the body is `copies`
/// copies of it, over the copy-major `sets`.
pub(crate) fn plan_loads<'a>(
    reuse: Option<&ReusePlan<'a>>,
    sets: &'a [UniformSet],
    sites: &[LoadSite],
    copies: usize,
) -> LoadPlan<'a> {
    let mut replaced: Vec<Replaced<'a>> = sets.iter().map(|_| Replaced::None).collect();
    let mut sunk = vec![false; sets.len()];
    for decision in reuse.map_or(&[][..], |p| &p.decisions) {
        match decision {
            Reuse::Accumulator { read, write, .. } => {
                // The read slots are the read set's distinct offsets, all
                // of them.
                if let Some(r) = read {
                    replaced[*r] = Replaced::All;
                }
                sunk[*write] = true;
            }
            Reuse::Hoisted { read, .. } | Reuse::Chain { read, .. } => {
                replaced[*read] = Replaced::All;
            }
            Reuse::Window {
                read,
                lanes,
                distinct,
                ..
            } => {
                // The lanes hold distinct offsets of the set, so they
                // cover it exactly when the counts agree.
                let covered: usize = lanes.iter().map(|l| l.offsets.len()).sum();
                replaced[*read] = if covered == *distinct {
                    Replaced::All
                } else {
                    let mut rows: Vec<&'a [i64]> = lanes
                        .iter()
                        .flat_map(|l| l.offsets.iter().copied())
                        .collect();
                    rows.sort_unstable();
                    Replaced::Some(rows)
                };
            }
        }
    }
    let kept_stores: Vec<usize> = (0..sets.len())
        .filter(|&i| sets[i].is_write && !sunk[i])
        .collect();

    let mut plan = LoadPlan {
        kept_stores,
        in_place: Vec::new(),
        hoisted: Vec::new(),
    };
    // Index into `plan.hoisted` of each distinct address.
    let mut seen: HashMap<(usize, &'a [i64]), usize> = HashMap::new();
    for (s, site) in sites.iter().enumerate() {
        let replaced = &replaced[site.set];
        if matches!(replaced, Replaced::All) {
            continue;
        }
        let set = &sets[site.set];
        let stays = reuse.is_none()
            || site.sole
            || plan.kept_stores.iter().any(|&w| sets[w].array == set.array);
        let base_members = set.len() / copies;
        for copy in 0..copies {
            let offsets = set.offset_row(copy * base_members + site.member);
            if let Replaced::Some(rows) = replaced {
                if rows.binary_search(&offsets).is_ok() {
                    continue;
                }
            }
            if stays {
                plan.in_place.push((s, offsets));
                continue;
            }
            match seen.entry((site.set, offsets)) {
                Entry::Occupied(e) => {
                    let h = &mut plan.hoisted[*e.get()];
                    h.first = h.first.min((copy, s));
                }
                Entry::Vacant(e) => {
                    e.insert(plan.hoisted.len());
                    plan.hoisted.push(Hoist {
                        set: site.set,
                        offsets,
                        first: (copy, s),
                    });
                }
            }
        }
    }
    plan
}

/// Build the statements of a plan, rewrite the body through them, hoist
/// the body's remaining loads and reassemble the nest. Returns the new
/// kernel body, the register declarations and the statistics.
pub(crate) fn materialize(
    kernel: &Kernel,
    input: &ScalarInput<'_>,
    plan: &ReusePlan<'_>,
) -> (Vec<Stmt>, Vec<ScalarDecl>, ScalarReplacementInfo) {
    let ScalarInput {
        loops,
        vars,
        body,
        sets,
        sites,
        stores,
        copies,
    } = *input;
    let depth = loops.len();
    let mut names = NameGen::new(kernel, vars);
    let mut info = plan.info();
    let mut edits = Edits::new(depth, sets.len());
    for reuse in &plan.decisions {
        edits.add(reuse, &sets[reuse.set()], vars, kernel, &mut names);
    }

    // Load dedup/hoist: one temporary per hoisted address, named in the
    // order the body first loads it.
    let mut temps = plan_loads(Some(plan), sets, sites, copies).hoisted;
    temps.sort_unstable_by_key(|h| h.first);
    info.temp_registers = temps.len();
    let mut new_body: Vec<Stmt> = Vec::with_capacity(
        temps.len() + edits.body_prefix.len() + body.len() + edits.body_suffix.len(),
    );
    for (t, hoist) in temps.into_iter().enumerate() {
        let set = &sets[hoist.set];
        let reg = names.fresh(
            format!("{}_t{t}", set.array.to_lowercase()),
            element_type(kernel, &set.array),
        );
        let access = access_of(&set.array, &set.signature, vars, hoist.offsets);
        new_body.push(Stmt::assign(
            LValue::scalar(reg.clone()),
            Expr::Load(access),
        ));
        edits.rewrite(hoist.set, hoist.offsets, reg, true);
    }
    for registers in &mut edits.rewrites {
        registers.sort_unstable_by(|a, b| a.0.cmp(b.0));
        debug_assert!(registers.windows(2).all(|w| w[0].0 != w[1].0));
    }

    // Rewrite the innermost body: the one copy of the (shared) jammed
    // statements, which every later stage rewrites in place. Copy `t`
    // is the `t`-th run of base-body statements.
    new_body.append(&mut edits.body_prefix);
    let per_copy = body.len() / copies;
    for (copy, stmts) in body.chunks(per_copy.max(1)).enumerate() {
        let mut rewriter = Rewriter {
            edits: &edits,
            sets,
            sites,
            stores,
            copies,
            copy,
            next_load: 0,
            next_store: 0,
        };
        for &s in stmts {
            rewriter.stmt(s, &mut new_body);
        }
        debug_assert_eq!(
            (rewriter.next_load, rewriter.next_store),
            (sites.len(), stores.len())
        );
    }
    new_body.append(&mut edits.body_suffix);

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
struct Edits<'a> {
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
    /// Per set: the register that replaces the set's accesses at each
    /// rewritten offset row, sorted by row once every rewrite is in, and
    /// whether it is a hoisted temporary (a load that already fills a
    /// register keeps its address). Read sets rewrite loads and write
    /// sets stores, so one table serves both.
    rewrites: Vec<Vec<(&'a [i64], Name, bool)>>,
}

impl<'a> Edits<'a> {
    fn new(depth: usize, sets: usize) -> Self {
        Edits {
            pre: vec![Vec::new(); depth],
            post: vec![Vec::new(); depth],
            body_prefix: Vec::new(),
            body_suffix: Vec::new(),
            top: Vec::new(),
            bottom: Vec::new(),
            rewrites: vec![Vec::new(); sets],
        }
    }

    /// Replace the accesses of `set` at `offsets` by `reg`.
    fn rewrite(&mut self, set: usize, offsets: &'a [i64], reg: Name, hoisted: bool) {
        self.rewrites[set].push((offsets, reg, hoisted));
    }

    /// The register replacing the accesses of `set` at `offsets`, if any.
    fn register(&self, set: usize, offsets: &[i64]) -> Option<&(&'a [i64], Name, bool)> {
        let registers = &self.rewrites[set];
        let at = registers.binary_search_by(|r| r.0.cmp(offsets)).ok()?;
        Some(&registers[at])
    }

    /// Add one decision's registers, statements and rewrites. `set` is
    /// the decision's [`Reuse::set`].
    fn add(
        &mut self,
        reuse: &Reuse<'a>,
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
            Reuse::Accumulator {
                read,
                write,
                level,
                slots,
            } => {
                for slot in slots {
                    let reg = names.fresh(format!("{base}_{}", join_offsets(slot.offset)), ty);
                    let access = access(slot.offset);
                    if let Some(read) = read.filter(|_| slot.read) {
                        // Hoisted initializing load.
                        self.pre[*level].push(fill(&reg, access.clone()));
                        self.rewrite(read, slot.offset, reg.clone(), false);
                    }
                    if slot.written {
                        // Sunk final store; intermediate stores are
                        // eliminated.
                        self.post[*level].push(Stmt::assign(
                            LValue::Array(access),
                            Expr::scalar(reg.clone()),
                        ));
                        self.rewrite(*write, slot.offset, reg, false);
                    }
                }
            }
            Reuse::Hoisted {
                read,
                level,
                offsets,
            } => {
                for &off in offsets {
                    let reg = names.fresh(format!("{base}_{}", join_offsets(off)), ty);
                    let at = match level {
                        Some(l) => &mut self.pre[*l],
                        None => &mut self.top,
                    };
                    at.push(fill(&reg, access(off)));
                    self.rewrite(*read, off, reg, false);
                }
            }
            Reuse::Chain {
                read,
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
                for (lane_idx, &lane_off) in lanes.iter().enumerate() {
                    let regs: Vec<Name> = (0..*length)
                        .map(|p| names.fresh(format!("{base}_{lane_idx}_{p}"), ty))
                        .collect();
                    self.body_prefix.push(Stmt::If {
                        cond: cond.clone(),
                        then_body: vec![fill(&regs[0], access(lane_off))],
                        else_body: vec![],
                    });
                    self.rewrite(*read, lane_off, regs[0].clone(), false);
                    if regs.len() >= 2 {
                        self.body_suffix.push(Stmt::Rotate(regs));
                    }
                }
            }
            Reuse::Window {
                read,
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
                    for &off in &lane.offsets {
                        let p = (off[*window_dim] - lane.lo) as usize;
                        self.rewrite(*read, off, regs[p].clone(), false);
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

/// Rewrites the statements of one body copy through a plan's registers.
/// Each access is found by its place in the jammed sets, not by its
/// text: the `k`-th load of a copy is the copy's member of load site
/// `k`, and the same holds for stores.
struct Rewriter<'r, 'a> {
    edits: &'r Edits<'a>,
    sets: &'r [UniformSet],
    sites: &'r [LoadSite],
    stores: &'r [StoreSite],
    copies: usize,
    /// The copy being rewritten.
    copy: usize,
    /// Sites of the next load and store in walk order.
    next_load: usize,
    next_store: usize,
}

impl Rewriter<'_, '_> {
    /// The register replacing the copy's member `member` of `set`.
    /// Jammed members are copy-major.
    fn register(&self, set: usize, member: usize) -> Option<&(&[i64], Name, bool)> {
        let set_members = &self.sets[set];
        let row = self.copy * (set_members.len() / self.copies) + member;
        self.edits.register(set, set_members.offset_row(row))
    }

    /// The register replacing the next load, if any. `fill`: the load is
    /// the whole right-hand side of an assignment, so it already fills a
    /// register and is never hoisted.
    fn load(&mut self, access: &ArrayAccess, fill: bool) -> Option<Expr> {
        let site = &self.sites[self.next_load];
        self.next_load += 1;
        debug_assert_eq!(access.array, self.sets[site.set].array);
        match self.register(site.set, site.member) {
            Some((_, reg, hoisted)) if !(fill && *hoisted) => Some(Expr::scalar(reg.clone())),
            _ => None,
        }
    }

    fn loads(&mut self, e: &Expr, fill: bool) -> Expr {
        let fill = fill && matches!(e, Expr::Load(_));
        e.replace_loads(&mut |a| self.load(a, fill))
    }

    /// Rewrite one body statement, pushing the rewritten copy onto `out`.
    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Assign { lhs, rhs } => {
                // The table lists an assignment's loads before its store.
                let rhs = self.loads(rhs, true);
                let lhs = match lhs {
                    // Redundant-write elimination: the store becomes a
                    // register assignment; the final store was sunk.
                    LValue::Array(a) => {
                        let site = &self.stores[self.next_store];
                        self.next_store += 1;
                        debug_assert_eq!(a.array, self.sets[site.set].array);
                        match self.register(site.set, site.member) {
                            Some((_, reg, _)) => LValue::scalar(reg.clone()),
                            None => lhs.clone(),
                        }
                    }
                    LValue::Scalar(_) => lhs.clone(),
                };
                out.push(Stmt::Assign { lhs, rhs });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.loads(cond, false);
                let mut branch = |stmts: &[Stmt]| {
                    let mut v = Vec::with_capacity(stmts.len());
                    for s in stmts {
                        self.stmt(s, &mut v);
                    }
                    v
                };
                let then_body = branch(then_body);
                let else_body = branch(else_body);
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                });
            }
            other => out.push(other.clone()),
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
