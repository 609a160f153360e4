//! Whole-kernel transformation-legality analysis.
//!
//! [`crate::dependence`] computes *distance vectors*; this module turns
//! them into the classical *direction vectors* (`<`, `=`, `>`, `*`) and
//! derives a per-kernel [`LegalitySummary`]: every ordering fact a loop
//! transformation needs, computed once.
//!
//! Before this pass, each transform carried its own ad-hoc check —
//! interchange validated permutations, unroll-and-jam re-derived jam
//! safety and the carried-scalar rule, register tiling re-checked the
//! hoist crossing, and saturation analysis duplicated the carried-scalar
//! pinning. The summary subsumes all of them: the free predicates in
//! this module ([`unroll_violation`], [`permutation_violation`],
//! [`carried_scalar_violation`], [`tile_hoist_violation`]) are the *one*
//! implementation, and the per-transform checks in `defacto-xform`
//! delegate here. A design space whose axis domains are built from the
//! summary therefore contains only points the transforms provably
//! accept — membership implies transform success, because membership and
//! the transform's own gate are literally the same code.
//!
//! The summary also records the two data-transformation applicability
//! facts the joint space needs: whether bit-width narrowing can shrink
//! any array ([`LegalitySummary::narrowing_applicable`]) and whether
//! data packing can ever share a memory word between accesses
//! ([`LegalitySummary::packing_effective`]).

use crate::access::AccessTable;
use crate::dependence::{analyze_dependences_with_bounds, DependenceGraph, DistElem};
use crate::range::infer_ranges;
use defacto_ir::{Kernel, LValue, Stmt};
use std::collections::BTreeSet;
use std::fmt;

/// One component of a direction vector, derived from a [`DistElem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `<` — the source iteration precedes the sink at this level
    /// (positive exact distance).
    Before,
    /// `=` — both iterations share this level's index (exact zero).
    Equal,
    /// `>` — the source iteration follows the sink (negative exact
    /// distance; only reachable at levels below the carrier).
    After,
    /// `*` — the distance is loop-invariant (`Any`) or not provably
    /// constant (`Unknown`); all three relations are possible.
    Star,
}

impl Direction {
    /// The direction of one distance component.
    pub fn of(d: DistElem) -> Direction {
        match d {
            DistElem::Exact(k) if k > 0 => Direction::Before,
            DistElem::Exact(0) => Direction::Equal,
            DistElem::Exact(_) => Direction::After,
            DistElem::Any | DistElem::Unknown => Direction::Star,
        }
    }

    /// The classical one-character rendering.
    pub fn symbol(self) -> char {
        match self {
            Direction::Before => '<',
            Direction::Equal => '=',
            Direction::After => '>',
            Direction::Star => '*',
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// The direction vector of a distance vector, component-wise.
pub fn direction_vector(distance: &[DistElem]) -> Vec<Direction> {
    distance.iter().map(|&d| Direction::of(d)).collect()
}

/// The dependence that makes an unroll-and-jam or interchange illegal.
///
/// Defined here — next to the predicates that produce it — and
/// re-exported by `defacto-xform` as the payload of its `IllegalJam`
/// error, so the analysis and the transforms share one violation type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JamViolation {
    /// Unroll-and-jam: a dependence carried at the unrolled `level` has a
    /// negative component at a `deeper` level — the jam would execute the
    /// dependent iteration before its source.
    NegativeDeeper {
        /// Array carrying the dependence.
        array: String,
        /// The unrolled level that carries it.
        level: usize,
        /// The deeper level with the negative distance component.
        deeper: usize,
    },
    /// Unroll-and-jam: the deeper component is unknown, so the jam is
    /// conservatively rejected.
    UnknownDeeper {
        /// Array carrying the dependence.
        array: String,
        /// The unrolled level that carries it.
        level: usize,
        /// The deeper level with the unknown distance component.
        deeper: usize,
    },
    /// Interchange: the permutation changes the relative order of the
    /// dependence's may-be-nonzero distance components.
    Reordered {
        /// Array carrying the dependence.
        array: String,
        /// The levels (original order) at which it carries.
        levels: Vec<usize>,
    },
    /// Unroll-and-jam: the body carries scalar state across iterations
    /// (a rotate register chain, or a scalar read before it is written),
    /// and a non-innermost unroll factor would interleave iterations and
    /// reorder that chain.
    CarriedScalar {
        /// A scalar carrying the cross-iteration state.
        scalar: String,
        /// The non-innermost level whose factor exceeds 1.
        level: usize,
    },
    /// Interchange: the body carries scalar state from each iteration to
    /// the next in sequence order, so *any* change to the nest's
    /// iteration order re-threads the chain through different values.
    ScalarOrder {
        /// A scalar carrying the cross-iteration state.
        scalar: String,
    },
}

impl JamViolation {
    /// The array (or carried scalar) whose dependence blocks the
    /// transformation.
    pub fn array(&self) -> &str {
        match self {
            JamViolation::NegativeDeeper { array, .. }
            | JamViolation::UnknownDeeper { array, .. }
            | JamViolation::Reordered { array, .. } => array,
            JamViolation::CarriedScalar { scalar, .. } | JamViolation::ScalarOrder { scalar } => {
                scalar
            }
        }
    }
}

impl fmt::Display for JamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JamViolation::NegativeDeeper {
                array,
                level,
                deeper,
            } => write!(
                f,
                "dependence on `{array}` carried at level {level} has negative \
                 component at level {deeper}"
            ),
            JamViolation::UnknownDeeper {
                array,
                level,
                deeper,
            } => write!(
                f,
                "dependence on `{array}` carried at level {level} has unknown \
                 component at level {deeper}"
            ),
            JamViolation::Reordered { array, levels } => write!(
                f,
                "dependence on `{array}` carries at levels {levels:?}, \
                 which the permutation reorders"
            ),
            JamViolation::CarriedScalar { scalar, level } => write!(
                f,
                "scalar `{scalar}` carries state across iterations; \
                 unrolling non-innermost level {level} would reorder it"
            ),
            JamViolation::ScalarOrder { scalar } => write!(
                f,
                "scalar `{scalar}` carries state across iterations in sequence \
                 order; permuting the nest would re-thread it"
            ),
        }
    }
}

/// Scalars whose value is carried from one iteration of the innermost
/// body to the next: names read (or rotated) before any unconditional
/// write in straight-line body order. Loop variables in `loop_vars` are
/// iteration-local and never count.
///
/// A `rotate` reads every register of its chain (each receives a
/// neighbour's *old* value), so registers not yet written in the body are
/// live-in — exactly the register-chain state that makes the body's
/// iterations order-sensitive. Jamming any non-innermost loop interleaves
/// iterations of different outer indices and reorders that chain, so
/// unroll-and-jam rejects outer factors when this set is non-empty;
/// innermost-only unrolling replicates copies in original iteration order
/// and stays legal. Writes under an `if` are treated as not happening
/// (conservative: a scalar only leaves the live-in candidate set on a
/// write that certainly executes).
pub fn carried_scalars(body: &[Stmt], loop_vars: &[&str]) -> Vec<String> {
    let mut written: BTreeSet<&str> = BTreeSet::new();
    let mut carried: BTreeSet<String> = BTreeSet::new();
    scan_carried(body, loop_vars, false, &mut written, &mut carried);
    carried.into_iter().collect()
}

fn scan_carried<'a>(
    body: &'a [Stmt],
    loop_vars: &[&str],
    conditional: bool,
    written: &mut BTreeSet<&'a str>,
    carried: &mut BTreeSet<String>,
) {
    let read = |name: &str, written: &BTreeSet<&str>, carried: &mut BTreeSet<String>| {
        if !loop_vars.contains(&name) && !written.contains(name) {
            carried.insert(name.to_string());
        }
    };
    for s in body {
        match s {
            Stmt::Assign { lhs, rhs } => {
                for n in rhs.scalar_reads() {
                    read(n, written, carried);
                }
                match lhs {
                    LValue::Scalar(n) => {
                        if !conditional {
                            written.insert(n.as_str());
                        }
                    }
                    LValue::Array(a) => {
                        for idx in &a.indices {
                            for n in idx.vars() {
                                read(n, written, carried);
                            }
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                for n in cond.scalar_reads() {
                    read(n, written, carried);
                }
                scan_carried(then_body, loop_vars, true, written, carried);
                scan_carried(else_body, loop_vars, true, written, carried);
            }
            Stmt::For(l) => scan_carried(&l.body, loop_vars, true, written, carried),
            Stmt::Rotate(regs) => {
                for r in regs.iter() {
                    read(r, written, carried);
                }
                if !conditional {
                    for r in regs.iter() {
                        written.insert(r.as_str());
                    }
                }
            }
        }
    }
}

/// The jam-safety core over raw `(array, distance)` pairs: the first
/// violation of unrolling with `factors`, if any.
///
/// Jamming the copies of the inner loops after unrolling loop `l` is
/// illegal when a constraining dependence carried by `l` (at a distance
/// smaller than the unroll factor) has a *negative* component at a deeper
/// level — the jam would execute the dependent iteration before its
/// source. `Unknown` deeper components are conservatively rejected;
/// `Any` components arise from loop-invariant references and are
/// symmetric, hence harmless.
fn jam_violation_in<'a>(
    dists: impl Iterator<Item = (&'a str, &'a [DistElem])> + Clone,
    factors: &[i64],
) -> Option<JamViolation> {
    for (l, &u) in factors.iter().enumerate() {
        if u <= 1 {
            continue;
        }
        for (array, distance) in dists.clone() {
            // Carried by `l`: every shallower component may be zero and
            // the component at `l` may be non-zero.
            if l >= distance.len()
                || !distance[..l].iter().all(|d| d.may_be_zero())
                || !distance[l].may_be_nonzero()
            {
                continue;
            }
            // Distance at the unrolled level must be reachable within the
            // unroll window for the jam to mix the iterations.
            let within_window = match distance[l] {
                DistElem::Exact(k) => k.abs() < u,
                DistElem::Any | DistElem::Unknown => true,
            };
            if !within_window {
                continue;
            }
            for (deeper, &elem) in distance.iter().enumerate().skip(l + 1) {
                match elem {
                    DistElem::Exact(k) if k < 0 => {
                        return Some(JamViolation::NegativeDeeper {
                            array: array.to_string(),
                            level: l,
                            deeper,
                        });
                    }
                    DistElem::Unknown => {
                        return Some(JamViolation::UnknownDeeper {
                            array: array.to_string(),
                            level: l,
                            deeper,
                        });
                    }
                    _ => {}
                }
            }
        }
    }
    None
}

/// The first array-dependence violation of unroll-and-jam with `factors`
/// against a dependence graph, if any. See `jam_violation_in` for the
/// rule; this is the one implementation `defacto_xform::unroll_is_legal`
/// and the design-space construction both call.
pub fn unroll_violation(deps: &DependenceGraph, factors: &[i64]) -> Option<JamViolation> {
    jam_violation_in(
        deps.deps()
            .iter()
            .filter(|d| d.kind.constrains())
            .map(|d| (d.array.as_str(), d.distance.as_slice())),
        factors,
    )
}

/// The carried-scalar half of jam legality: a non-empty carried set
/// blocks any non-innermost factor above 1 (the violation names the
/// first such level and the first carried scalar, matching
/// `unroll_and_jam`'s report).
pub fn carried_scalar_violation(carried: &[String], factors: &[i64]) -> Option<JamViolation> {
    if factors.is_empty() {
        return None;
    }
    let level = factors[..factors.len() - 1].iter().position(|&u| u > 1)?;
    carried.first().map(|scalar| JamViolation::CarriedScalar {
        scalar: scalar.clone(),
        level,
    })
}

/// Permutation legality over raw `(array, distance)` pairs.
///
/// The dependence analysis normalizes every dependence so its realizable
/// distance instances are lexicographically positive in the original
/// loop order. Permuting components of an instance preserves its
/// lexicographic sign as long as the *relative order of the components
/// that can be non-zero* is unchanged — each instance's first non-zero
/// component stays first. A permutation is therefore legal iff, for
/// every ordering-constraining dependence, the may-be-nonzero positions
/// of its distance vector appear in the same relative order before and
/// after. (`Exact(0)` components may move freely; `Any`/`Unknown`
/// components are handled soundly because their instance sets were
/// lex-positive to begin with.)
fn permutation_violation_in<'a>(
    dists: impl Iterator<Item = (&'a str, &'a [DistElem])>,
    order: &[usize],
) -> Option<JamViolation> {
    for (array, distance) in dists {
        // Positions that can be non-zero, in original order.
        let hot: Vec<usize> = (0..distance.len())
            .filter(|&l| distance[l].may_be_nonzero())
            .collect();
        if hot.len() <= 1 {
            continue; // a single carrier (or none) permutes freely
        }
        // Their order in the permuted nest.
        let permuted: Vec<usize> = order.iter().copied().filter(|l| hot.contains(l)).collect();
        if permuted != hot {
            return Some(JamViolation::Reordered {
                array: array.to_string(),
                levels: hot,
            });
        }
    }
    None
}

/// The first obstacle to a nest permutation, if any. `order[k]` is the
/// original level placed at position `k`. A non-empty `carried` scalar
/// set blocks every non-identity order outright: the chain threads the
/// iterations in sequence order, and any permutation that changes the
/// traversal re-threads it through different values. Array dependences
/// are then checked for reordering. The one implementation behind
/// `defacto_xform::interchange_is_legal` and
/// [`LegalitySummary::legal_permutations`].
pub fn permutation_violation(
    deps: &DependenceGraph,
    carried: &[String],
    order: &[usize],
) -> Option<JamViolation> {
    if !order.iter().enumerate().all(|(k, &l)| k == l) {
        if let Some(scalar) = carried.first() {
            return Some(JamViolation::ScalarOrder {
                scalar: scalar.clone(),
            });
        }
    }
    permutation_violation_in(
        deps.deps()
            .iter()
            .filter(|d| d.kind.constrains())
            .map(|d| (d.array.as_str(), d.distance.as_slice())),
        order,
    )
}

/// The first obstacle to hoisting a tile loop of `level` to the
/// outermost position: `(crossed_level, name)` of a constraining
/// dependence whose component at a crossed level `0..level` is neither
/// exactly zero nor loop-invariant — or of a carried scalar, which pins
/// the traversal order outright (hoisting over any outer level reorders
/// the iteration sequence the chain threads; level 0 hoists in place and
/// stays legal). The one implementation behind
/// `defacto_xform::tiling::tile_for_registers`'s crossing check and
/// [`LegalitySummary::tilable`].
pub fn tile_hoist_violation(
    deps: &DependenceGraph,
    carried: &[String],
    level: usize,
) -> Option<(usize, String)> {
    if level > 0 {
        if let Some(scalar) = carried.first() {
            return Some((0, scalar.clone()));
        }
    }
    for dep in deps.deps().iter().filter(|d| d.kind.constrains()) {
        for crossed in 0..level.min(dep.distance.len()) {
            match dep.distance[crossed] {
                DistElem::Exact(0) | DistElem::Any => {}
                _ => return Some((crossed, dep.array.clone())),
            }
        }
    }
    None
}

/// One constraining dependence's distance vector, with its derived
/// direction vector, as stored in a [`LegalitySummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceVector {
    /// Array carrying the dependence.
    pub array: String,
    /// The distance vector (one component per loop level).
    pub distance: Vec<DistElem>,
    /// The derived direction vector.
    pub directions: Vec<Direction>,
}

/// Packing-alignment facts for one array: whether data packing can ever
/// let neighbouring accesses share a memory word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPacking {
    /// The array's name.
    pub array: String,
    /// Its element width in bits.
    pub elem_bits: u32,
    /// The smallest nonzero last-dimension stride over accesses whose
    /// other subscripts are invariant in the striding loop — the
    /// word-adjacency stride under a row-major layout. `None` when no
    /// access strides the last dimension that way.
    pub min_stride: Option<i64>,
}

impl ArrayPacking {
    /// True when packing into `word_bits`-wide memory words can share a
    /// word between accesses of this array: the elements are narrower
    /// than the word *and* some access walks the last dimension at a
    /// stride smaller than the elements-per-word — otherwise every
    /// access lands in a distinct word and packing is a provable no-op.
    pub fn effective(&self, word_bits: u32) -> bool {
        if self.elem_bits == 0 || self.elem_bits >= word_bits {
            return false;
        }
        let per_word = i64::from(word_bits / self.elem_bits);
        matches!(self.min_stride, Some(s) if s < per_word)
    }
}

/// Narrowing applicability for one array: declared vs inferred width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayNarrowing {
    /// The array's name.
    pub array: String,
    /// Bits of the declared element type.
    pub declared_bits: u32,
    /// Bits required by the inferred (annotation- and flow-derived)
    /// value range.
    pub inferred_bits: u32,
}

impl ArrayNarrowing {
    /// True when narrowing would actually shrink this array's elements.
    pub fn narrowable(&self) -> bool {
        self.inferred_bits < self.declared_bits
    }
}

/// Everything a loop/data transformation needs to know about one kernel's
/// ordering constraints, computed once. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegalitySummary {
    depth: usize,
    trip_counts: Vec<i64>,
    constraining: Vec<DistanceVector>,
    legal_permutations: Vec<Vec<usize>>,
    tilable: Vec<bool>,
    carried_scalars: Vec<String>,
    packing: Vec<ArrayPacking>,
    narrowing: Vec<ArrayNarrowing>,
}

impl LegalitySummary {
    /// Analyze `kernel` from scratch. Returns `None` when the body is not
    /// a perfect loop nest (no transformation applies then anyway).
    pub fn analyze(kernel: &Kernel) -> Option<LegalitySummary> {
        let nest = kernel.perfect_nest()?;
        let table = AccessTable::from_stmts(nest.innermost_body());
        let vars = nest.vars();
        let bounds: Vec<(i64, i64)> = nest
            .loops()
            .iter()
            .map(|l| (l.lower, l.upper - 1))
            .collect();
        let deps = analyze_dependences_with_bounds(&table, &vars, &bounds);
        let carried = carried_scalars(nest.innermost_body(), &vars);
        Some(Self::from_parts(
            kernel,
            &table,
            &vars,
            &nest.trip_counts(),
            &deps,
            carried,
        ))
    }

    /// Build the summary from already-computed per-kernel analyses (the
    /// path `PreparedKernel` uses, so nothing is analyzed twice).
    pub fn from_parts(
        kernel: &Kernel,
        table: &AccessTable,
        vars: &[&str],
        trip_counts: &[i64],
        deps: &DependenceGraph,
        carried_scalars: Vec<String>,
    ) -> LegalitySummary {
        let depth = trip_counts.len();
        let constraining: Vec<DistanceVector> = deps
            .deps()
            .iter()
            .filter(|d| d.kind.constrains())
            .map(|d| DistanceVector {
                array: d.array.clone(),
                distance: d.distance.clone(),
                directions: direction_vector(&d.distance),
            })
            .collect();
        let legal_permutations = permutations(depth)
            .into_iter()
            .filter(|order| permutation_violation(deps, &carried_scalars, order).is_none())
            .collect();
        let tilable = (0..depth)
            .map(|l| tile_hoist_violation(deps, &carried_scalars, l).is_none())
            .collect();
        let packing = packing_facts(kernel, table, vars);
        let narrowing = narrowing_facts(kernel);
        LegalitySummary {
            depth,
            trip_counts: trip_counts.to_vec(),
            constraining,
            legal_permutations,
            tilable,
            carried_scalars,
            packing,
            narrowing,
        }
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Trip counts of the nest's loops, outermost first.
    pub fn trip_counts(&self) -> &[i64] {
        &self.trip_counts
    }

    /// The constraining dependences' distance/direction vectors, in
    /// dependence-graph order.
    pub fn distance_vectors(&self) -> &[DistanceVector] {
        &self.constraining
    }

    /// Every legal nest permutation, in lexicographic order. The
    /// identity is always first (it reorders nothing).
    pub fn legal_permutations(&self) -> &[Vec<usize>] {
        &self.legal_permutations
    }

    /// Is `order` (original level at position `k`) a legal permutation?
    pub fn permutation_is_legal(&self, order: &[usize]) -> bool {
        self.legal_permutations.iter().any(|p| p == order)
    }

    /// True when only the identity permutation is legal — interchange
    /// has nothing to offer this kernel.
    pub fn identity_only(&self) -> bool {
        self.legal_permutations.len() <= 1
    }

    /// Can the tile loop of `level` be hoisted outermost (register
    /// tiling) without reordering a dependence? Level 0 crosses nothing
    /// and is always tilable.
    pub fn tilable(&self, level: usize) -> bool {
        self.tilable.get(level).copied().unwrap_or(false)
    }

    /// The tilable levels, ascending.
    pub fn tilable_levels(&self) -> Vec<usize> {
        (0..self.depth).filter(|&l| self.tilable(l)).collect()
    }

    /// Scalars carrying state across iterations of the innermost body
    /// (rotate register chains, reads before writes): non-empty means
    /// only innermost unroll factors are jam-legal.
    pub fn carried_scalars(&self) -> &[String] {
        &self.carried_scalars
    }

    /// The first jam violation of unrolling the (unpermuted) nest with
    /// `factors`, array dependences first, then the carried-scalar rule —
    /// the exact gate `unroll_and_jam` applies, in the same order.
    pub fn jam_violation(&self, factors: &[i64]) -> Option<JamViolation> {
        self.jam_violation_under(&identity(self.depth), factors)
    }

    /// Like [`Self::jam_violation`], for the nest permuted by `order`:
    /// `factors[k]` unrolls the loop at *permuted* position `k`. Distance
    /// vectors are permuted alongside; legal permutations keep each
    /// instance's first hot component first, so the permuted vectors
    /// remain lexicographically positive and the jam rule stays sound.
    pub fn jam_violation_under(&self, order: &[usize], factors: &[i64]) -> Option<JamViolation> {
        let permuted: Vec<(String, Vec<DistElem>)> = self
            .constraining
            .iter()
            .map(|dv| {
                (
                    dv.array.clone(),
                    order.iter().map(|&l| dv.distance[l]).collect(),
                )
            })
            .collect();
        jam_violation_in(
            permuted.iter().map(|(a, d)| (a.as_str(), d.as_slice())),
            factors,
        )
        .or_else(|| carried_scalar_violation(&self.carried_scalars, factors))
    }

    /// Per-array packing facts, in declaration order.
    pub fn packing(&self) -> &[ArrayPacking] {
        &self.packing
    }

    /// True when packing into `word_bits`-wide words can share a word
    /// between accesses of at least one array.
    pub fn packing_effective(&self, word_bits: u32) -> bool {
        self.packing.iter().any(|p| p.effective(word_bits))
    }

    /// Per-array narrowing facts, in declaration order.
    pub fn narrowing(&self) -> &[ArrayNarrowing] {
        &self.narrowing
    }

    /// True when bit-width narrowing would shrink at least one array.
    pub fn narrowing_applicable(&self) -> bool {
        self.narrowing.iter().any(ArrayNarrowing::narrowable)
    }
}

fn identity(depth: usize) -> Vec<usize> {
    (0..depth).collect()
}

/// All permutations of `0..depth`, lexicographic (identity first).
fn permutations(depth: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(depth);
    let mut used = vec![false; depth];
    fn rec(depth: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == depth {
            out.push(cur.clone());
            return;
        }
        for l in 0..depth {
            if !used[l] {
                used[l] = true;
                cur.push(l);
                rec(depth, cur, used, out);
                cur.pop();
                used[l] = false;
            }
        }
    }
    rec(depth, &mut cur, &mut used, &mut out);
    out
}

/// Per-array packing facts: element width and the minimal word-adjacency
/// stride over the table's accesses.
fn packing_facts(kernel: &Kernel, table: &AccessTable, vars: &[&str]) -> Vec<ArrayPacking> {
    kernel
        .arrays()
        .iter()
        .map(|decl| {
            let mut min_stride: Option<i64> = None;
            for acc in table
                .accesses()
                .iter()
                .filter(|a| a.access.array == decl.name)
            {
                let sig = acc.access.coeff_signature(vars);
                let Some(last) = sig.last() else { continue };
                for (col, &c) in last.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    // Word adjacency requires the other subscripts to sit
                    // still while this loop strides the last dimension.
                    let others_still = sig[..sig.len() - 1].iter().all(|row| row[col] == 0);
                    if !others_still {
                        continue;
                    }
                    let s = c.abs();
                    min_stride = Some(min_stride.map_or(s, |m: i64| m.min(s)));
                }
            }
            ArrayPacking {
                array: decl.name.clone(),
                elem_bits: decl.ty.bits(),
                min_stride,
            }
        })
        .collect()
}

/// Per-array narrowing facts from range inference.
fn narrowing_facts(kernel: &Kernel) -> Vec<ArrayNarrowing> {
    let info = infer_ranges(kernel);
    kernel
        .arrays()
        .iter()
        .map(|decl| ArrayNarrowing {
            array: decl.name.clone(),
            declared_bits: decl.ty.bits(),
            inferred_bits: info.array(&decl.name).bits().min(decl.ty.bits()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    const WAVEFRONT: &str = "kernel wf { inout A: i32[9][9];
       for i in 1..8 { for j in 0..7 {
         A[i][j] = A[i - 1][j + 1]; } } }";

    fn summary(src: &str) -> LegalitySummary {
        let k = parse_kernel(src).unwrap();
        LegalitySummary::analyze(&k).expect("perfect nest")
    }

    #[test]
    fn direction_vectors_derive_from_distances() {
        assert_eq!(Direction::of(DistElem::Exact(2)), Direction::Before);
        assert_eq!(Direction::of(DistElem::Exact(0)), Direction::Equal);
        assert_eq!(Direction::of(DistElem::Exact(-1)), Direction::After);
        assert_eq!(Direction::of(DistElem::Any), Direction::Star);
        assert_eq!(Direction::of(DistElem::Unknown), Direction::Star);
        assert_eq!(
            direction_vector(&[DistElem::Exact(1), DistElem::Exact(-1)]),
            vec![Direction::Before, Direction::After]
        );
        assert_eq!(Direction::Before.symbol(), '<');
    }

    #[test]
    fn fir_summary_permits_the_swap() {
        let s = summary(FIR);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.trip_counts(), &[64, 32]);
        // D's accumulator dependence has one hot position: both orders
        // are legal.
        assert_eq!(s.legal_permutations().len(), 2);
        assert!(s.permutation_is_legal(&[0, 1]));
        assert!(s.permutation_is_legal(&[1, 0]));
        assert!(!s.identity_only());
        // No dependence crosses level 0, so both levels are tilable.
        assert!(s.tilable(0));
        assert!(s.tilable(1));
        assert_eq!(s.tilable_levels(), vec![0, 1]);
        assert!(s.carried_scalars().is_empty());
        // Every unroll vector of the divisor space is jam-legal.
        assert!(s.jam_violation(&[8, 4]).is_none());
        assert!(s.jam_violation_under(&[1, 0], &[4, 8]).is_none());
    }

    #[test]
    fn wavefront_summary_pins_identity_and_blocks_jam() {
        let s = summary(WAVEFRONT);
        // Distance (1, -1): both positions hot — only identity survives.
        assert!(s.identity_only());
        assert_eq!(s.legal_permutations(), &[vec![0, 1]]);
        assert!(!s.permutation_is_legal(&[1, 0]));
        // The direction vector reads (<, >).
        let dv = s
            .distance_vectors()
            .iter()
            .find(|d| d.array == "A" && d.directions == vec![Direction::Before, Direction::After])
            .expect("wavefront distance vector");
        assert_eq!(dv.distance, vec![DistElem::Exact(1), DistElem::Exact(-1)]);
        // Hoisting a j-tile across i would reorder it.
        assert!(s.tilable(0));
        assert!(!s.tilable(1));
        // Outer unrolling mixes the recurrence.
        assert!(matches!(
            s.jam_violation(&[2, 1]),
            Some(JamViolation::NegativeDeeper { .. })
        ));
        assert!(s.jam_violation(&[1, 7]).is_none());
    }

    #[test]
    fn summary_predicates_match_the_free_functions() {
        let k = parse_kernel(WAVEFRONT).unwrap();
        let nest = k.perfect_nest().unwrap();
        let table = AccessTable::from_stmts(nest.innermost_body());
        let vars = nest.vars();
        let bounds: Vec<(i64, i64)> = nest
            .loops()
            .iter()
            .map(|l| (l.lower, l.upper - 1))
            .collect();
        let deps = analyze_dependences_with_bounds(&table, &vars, &bounds);
        let s = summary(WAVEFRONT);
        for order in [vec![0, 1], vec![1, 0]] {
            assert_eq!(
                s.permutation_is_legal(&order),
                permutation_violation(&deps, s.carried_scalars(), &order).is_none(),
                "order {order:?}"
            );
        }
        for factors in [[1, 1], [2, 1], [1, 7], [7, 7]] {
            assert_eq!(
                s.jam_violation(&factors),
                unroll_violation(&deps, &factors),
                "factors {factors:?}"
            );
        }
        for level in 0..2 {
            assert_eq!(
                s.tilable(level),
                tile_hoist_violation(&deps, s.carried_scalars(), level).is_none()
            );
        }
    }

    #[test]
    fn carried_scalar_summary_blocks_outer_factors() {
        let s = summary(
            "kernel rc { in A: i32[4][8]; out B: i32[4][8]; var r0: i32; var r1: i32;
               for i in 0..4 { for j in 0..8 {
                 r0 = A[i][j]; rotate(r0, r1); B[i][j] = r0; } } }",
        );
        assert_eq!(s.carried_scalars(), &["r1".to_string()]);
        assert!(matches!(
            s.jam_violation(&[2, 1]),
            Some(JamViolation::CarriedScalar { level: 0, .. })
        ));
        assert!(s.jam_violation(&[1, 2]).is_none());
        // The chain threads iterations in sequence order, so the nest is
        // pinned to the identity permutation even though no *array*
        // dependence constrains it (found by the fuzzer's legality
        // oracle: interchanging the rotate chain diverged semantically).
        assert!(s.identity_only());
        assert_eq!(s.legal_permutations(), &[vec![0, 1]]);
    }

    #[test]
    fn matmul_admits_all_six_orders() {
        let s = summary(
            "kernel mm { in A: i32[8][8]; in B: i32[8][8]; inout C: i32[8][8];
               for i in 0..8 { for j in 0..8 { for k in 0..8 {
                 C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }",
        );
        assert_eq!(s.legal_permutations().len(), 6);
        assert_eq!(s.legal_permutations()[0], vec![0, 1, 2]);
    }

    #[test]
    fn packing_facts_track_stride_and_width() {
        // u8 at unit stride: packing shares a 32-bit word between 4
        // neighbouring loads.
        let s = summary(
            "kernel p { in A: u8[64]; out B: i32[64];
               for i in 0..64 { B[i] = A[i]; } }",
        );
        let a = s.packing().iter().find(|p| p.array == "A").unwrap();
        assert_eq!(a.elem_bits, 8);
        assert_eq!(a.min_stride, Some(1));
        assert!(a.effective(32));
        assert!(s.packing_effective(32));
        // The full-width output cannot pack.
        let b = s.packing().iter().find(|p| p.array == "B").unwrap();
        assert!(!b.effective(32));

        // Stride 4 on u8 under a 32-bit word: every access lands in its
        // own word — provably inert.
        let s = summary(
            "kernel q { in A: u8[64]; out B: i32[16];
               for i in 0..16 { B[i] = A[i * 4]; } }",
        );
        let a = s.packing().iter().find(|p| p.array == "A").unwrap();
        assert_eq!(a.min_stride, Some(4));
        assert!(!a.effective(32));
        assert!(!s.packing_effective(32));
    }

    #[test]
    fn narrowing_facts_follow_annotations() {
        let s = summary(
            "kernel n { in A: i32[16] range 0..100; out B: i32[16];
               for i in 0..16 { B[i] = A[i]; } }",
        );
        let a = s.narrowing().iter().find(|n| n.array == "A").unwrap();
        assert_eq!(a.declared_bits, 32);
        assert!(a.inferred_bits < 32, "range 0..100 needs few bits");
        assert!(a.narrowable());
        assert!(s.narrowing_applicable());
        // Without an annotation nothing narrows.
        let s = summary(
            "kernel w { in A: i32[16]; out B: i32[16];
               for i in 0..16 { B[i] = A[i]; } }",
        );
        assert!(!s.narrowing_applicable());
    }
}
