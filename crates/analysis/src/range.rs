//! Value-range (interval) analysis for bit-width narrowing.
//!
//! The paper's target domain "possibly can benefit from non-standard
//! numeric formats (reduced data widths)" (§2.4). When the programmer
//! annotates input arrays with value ranges (`in S: i32[96] range
//! -1000..1000;`), this analysis propagates intervals through the kernel
//! and bounds every expression, letting behavioral synthesis bind
//! narrower (smaller, faster) operators than the declared C types
//! suggest.
//!
//! The analysis is a classic forward interval propagation:
//!
//! - loop variables range over their bounds;
//! - array loads take the annotation (or the element type's full range),
//!   joined with any value the kernel stores into the array;
//! - scalar assignments join; the self-update `s = s ± e` is widened by
//!   the trip product of its enclosing loops (a sound bound on how often
//!   the accumulation can run);
//! - everything is clamped to the declared type — the hardware wraps at
//!   that width anyway, so the declared range is always sound.
//!
//! # The program form
//!
//! Inference runs several forward passes over one body, and a
//! transformed body repeats a handful of names thousands of times. So
//! [`infer_ranges_indexed`] first lowers the body once into a private
//! flat program and runs the passes over that:
//!
//! - every name becomes a dense slot in one of two namespaces, scalars
//!   and loop variables, and arrays (the tables [`RangeInfo`] keys by
//!   name, keyed by slot);
//! - each slot's declared type is resolved once, `i32` when undeclared;
//! - the statements become steps in the order a pass visits them: a loop
//!   header sets its variable's interval; a rotate joins a run of slots;
//!   an assignment carries its target slot, the trip product of its
//!   enclosing loops, whether it is the self-update `t = t ± e` and with
//!   which sign, and its right-hand side (or the delta `e`) in postfix.
//!   A `Select` pushes both arms and their union; neither select nor
//!   `if` conditions are read, and both branches of an `if` run.
//!
//! A pass is then one loop over the steps, reading and writing an
//! `Option<Interval>` per slot and table, with `None` for an entry the
//! tables do not hold yet. The rules are the tree walk's, step for step:
//! setting an absent entry counts as a change, reading an absent
//! variable or array gives the full `i32` range, a self-update widens
//! its base (or, with none, the current value), and at the cap each
//! entry of each table widens at most once. [`RangeInfo`] is built at
//! the end with exactly the keys the walk inserted, so every result is
//! the walk's; a property test keeps the walk as the reference.
//!
//! Body names resolve through a [`NameResolver`]: by the address of
//! their shared allocation first and by their text on a miss. Clones of
//! a [`Name`] share one allocation, and a transformed body is mostly
//! clones, so nearly every reference costs one integer hash. Two
//! allocations of one identifier (a parsed body has one per reference)
//! meet in the text map.

use defacto_ir::name::Found;
use defacto_ir::{
    ArrayDecl, ArrayKind, BinOp, DeclIndex, Expr, Kernel, LValue, Name, NameResolver, ScalarType,
    Stmt, UnOp,
};
use std::collections::HashMap;

/// An inclusive integer interval.
///
/// The arithmetic methods (`add`, `sub`, `mul`, ...) intentionally share
/// names with the `std::ops` traits: they are the interval-arithmetic
/// counterparts of those operations, taking `self` by value like the
/// traits would. Operator syntax is deliberately not provided — interval
/// results are often further clamped, and the explicit method chain keeps
/// that visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

#[allow(clippy::should_implement_trait)]
impl Interval {
    /// Construct `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty interval {lo}..{hi}");
        Interval { lo, hi }
    }

    /// The single value `v`.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The full range of a scalar type.
    pub fn of_type(ty: ScalarType) -> Self {
        let bits = ty.bits();
        if ty.is_signed() {
            Interval {
                lo: -(1i64 << (bits - 1)),
                hi: (1i64 << (bits - 1)) - 1,
            }
        } else {
            Interval {
                lo: 0,
                hi: (1i64 << bits) - 1,
            }
        }
    }

    /// Smallest interval containing both.
    pub fn union(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Interval sum (saturating — intervals here model hardware values
    /// already clamped to ≤32-bit types, so saturation is unreachable in
    /// practice and merely guards the arithmetic).
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi),
        }
    }

    /// Interval difference.
    pub fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(o.hi),
            hi: self.hi.saturating_sub(o.lo),
        }
    }

    /// Interval negation.
    pub fn neg(self) -> Interval {
        Interval {
            lo: self.hi.saturating_neg(),
            hi: self.lo.saturating_neg(),
        }
    }

    /// Interval absolute value.
    pub fn abs(self) -> Interval {
        if self.lo >= 0 {
            self
        } else if self.hi <= 0 {
            self.neg()
        } else {
            Interval {
                lo: 0,
                hi: self.hi.max(self.lo.saturating_neg()),
            }
        }
    }

    /// Interval product (four corners).
    pub fn mul(self, o: Interval) -> Interval {
        let corners = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: *corners.iter().min().expect("nonempty"),
            hi: *corners.iter().max().expect("nonempty"),
        }
    }

    /// Conservative interval for truncating division: magnitudes can only
    /// shrink (or stay, for divisor ±1), and division by zero yields 0 in
    /// the kernel semantics.
    pub fn div(self, o: Interval) -> Interval {
        if o.lo == o.hi && o.lo != 0 {
            let corners = [self.lo / o.lo, self.hi / o.lo];
            let mut r = Interval {
                lo: *corners.iter().min().expect("nonempty"),
                hi: *corners.iter().max().expect("nonempty"),
            };
            // Truncation passes through zero for mixed-sign numerators.
            if self.lo <= 0 && self.hi >= 0 {
                r = r.union(Interval::point(0));
            }
            return r;
        }
        // Unknown divisor: |result| ≤ |numerator|, plus 0 (div-by-zero).
        let m = self.lo.abs().max(self.hi.abs());
        Interval { lo: -m, hi: m }.union(Interval::point(0))
    }

    /// Conservative remainder: bounded by the divisor's magnitude and
    /// carrying the numerator's sign possibilities.
    pub fn rem(self, o: Interval) -> Interval {
        let m = o.lo.abs().max(o.hi.abs()).saturating_sub(1).max(0);
        let lo = if self.lo < 0 { -m } else { 0 };
        let hi = if self.hi > 0 { m } else { 0 };
        Interval { lo, hi }.union(Interval::point(0))
    }

    /// Clamp into the representable range of `ty` (sound because the
    /// datapath wraps at that width).
    pub fn clamp_to(self, ty: ScalarType) -> Interval {
        clamp(self, Interval::of_type(ty))
    }

    /// Bits needed to represent every value of the interval in two's
    /// complement (at least 1).
    pub fn bits(self) -> u32 {
        fn unsigned_bits(v: i64) -> u32 {
            debug_assert!(v >= 0);
            (64 - v.leading_zeros()).max(1)
        }
        if self.lo >= 0 {
            unsigned_bits(self.hi)
        } else {
            // Signed: enough magnitude bits for both ends plus sign.
            let neg_bits = unsigned_bits((self.lo.saturating_add(1)).saturating_neg());
            let pos_bits = unsigned_bits(self.hi.max(0));
            neg_bits.max(pos_bits) + 1
        }
    }
}

/// The interval range inference seeds an array at: its annotation, or
/// for an unannotated `out` array `[0, 0]` (stores widen it; workspaces
/// are zero-initialized), or else its element type's full range.
/// Annotations on pure inputs are authoritative.
pub fn array_seed(decl: &ArrayDecl) -> Interval {
    match (decl.range, decl.kind) {
        (Some((lo, hi)), _) => Interval::new(lo, hi),
        (None, ArrayKind::Out) => Interval::point(0),
        (None, _) => Interval::of_type(decl.ty),
    }
}

/// The width a value narrows to: the bits of its interval, never wider
/// than the `declared` width it is held at.
pub fn narrowed_bits(value: Interval, declared: u32) -> u32 {
    value.bits().min(declared)
}

/// The inferred value ranges of a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeInfo {
    /// Scalar and loop-variable ranges.
    vars: HashMap<Name, Interval>,
    /// Per-array element ranges.
    arrays: HashMap<Name, Interval>,
    /// Accumulation bases: the range a variable/array had before any
    /// self-update widening — keeps the trip-product widening idempotent
    /// across fixpoint passes.
    var_base: HashMap<Name, Interval>,
    array_base: HashMap<Name, Interval>,
}

impl RangeInfo {
    /// The interval of a scalar or loop variable (full `i32` range when
    /// unknown).
    pub fn var(&self, name: &str) -> Interval {
        self.vars.get(name).copied().unwrap_or(I32_RANGE)
    }

    /// The element interval of an array.
    pub fn array(&self, name: &str) -> Interval {
        self.arrays.get(name).copied().unwrap_or(I32_RANGE)
    }

    /// Every entry, one table at a time — scalar and loop-variable
    /// ranges, their accumulation bases, array ranges, theirs — each
    /// sorted by name.
    pub fn sorted_entries(&self) -> [Vec<(&str, Interval)>; 4] {
        [&self.vars, &self.var_base, &self.arrays, &self.array_base].map(|table| {
            let mut entries: Vec<(&str, Interval)> =
                table.iter().map(|(n, &v)| (n.as_str(), v)).collect();
            entries.sort_unstable_by_key(|&(n, _)| n);
            entries
        })
    }

    /// Bound an expression's value given the inferred environment.
    pub fn expr(&self, e: &Expr) -> Interval {
        match e {
            Expr::Int(v) => Interval::point(*v),
            Expr::Scalar(n) => self.var(n),
            Expr::Load(a) => self.array(&a.array),
            Expr::Unary(op, inner) => un_interval(*op, self.expr(inner)),
            Expr::Binary(op, a, b) => bin_interval(*op, self.expr(a), self.expr(b)),
            Expr::Select(_, t, f) => self.expr(t).union(self.expr(f)),
        }
    }

    /// Bits needed for an expression's value.
    pub fn expr_bits(&self, e: &Expr) -> u32 {
        self.expr(e).bits()
    }
}

/// The range of a name no table holds.
const I32_RANGE: Interval = Interval {
    lo: i32::MIN as i64,
    hi: i32::MAX as i64,
};

/// The interval of `op` applied to a value in `r`.
fn un_interval(op: UnOp, r: Interval) -> Interval {
    match op {
        UnOp::Neg => r.neg(),
        UnOp::Abs => r.abs(),
        // Bitwise complement of an n-bit value stays n-bit-ish;
        // conservative: -hi-1 .. -lo-1.
        UnOp::Not => Interval::new(
            r.hi.saturating_neg().saturating_sub(1),
            r.lo.saturating_neg().saturating_sub(1),
        ),
    }
}

/// The interval of `a op b` for values in `ra` and `rb`.
fn bin_interval(op: BinOp, ra: Interval, rb: Interval) -> Interval {
    match op {
        BinOp::Add => ra.add(rb),
        BinOp::Sub => ra.sub(rb),
        BinOp::Mul => ra.mul(rb),
        BinOp::Div => ra.div(rb),
        BinOp::Rem => ra.rem(rb),
        BinOp::Shl => {
            if rb.lo == rb.hi && (0..32).contains(&rb.lo) {
                ra.mul(Interval::point(1i64 << rb.lo))
            } else {
                I32_RANGE
            }
        }
        BinOp::Shr => {
            if rb.lo == rb.hi && (0..32).contains(&rb.lo) {
                ra.div(Interval::point(1i64 << rb.lo))
            } else {
                ra.union(Interval::point(0))
            }
        }
        // Comparisons are 1-bit flags.
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Interval::new(0, 1)
        }
        // Bitwise: bounded by the magnitude cover of both.
        BinOp::And | BinOp::Or | BinOp::Xor => {
            if ra.lo >= 0 && rb.lo >= 0 {
                let m = (1i64 << ra.union(rb).bits().min(62)) - 1;
                Interval::new(0, m)
            } else {
                let bits = ra.union(rb).bits().min(62);
                Interval::new(-(1i64 << (bits - 1)).max(1), (1i64 << bits) - 1)
            }
        }
    }
}

/// Forward passes after which range inference stops waiting for the
/// loop-carried joins to settle and widens instead.
const PASSES: usize = 3;

/// Infer value ranges for `kernel`.
///
/// Runs forward passes until one changes nothing: each pass is a pure
/// function of the kernel and the ranges so far, so that pass's input is
/// a fixpoint. Three passes are enough for the loop-carried joins of this
/// domain to stabilize under the accumulator widening. When the third
/// pass still changes something, every entry it changed widens to its
/// declared type's full range (the wrapping hardware makes that sound),
/// and passes continue, widening whatever changes, until one changes
/// nothing. An entry widens at most once, so this terminates.
pub fn infer_ranges(kernel: &Kernel) -> RangeInfo {
    infer_ranges_indexed(kernel, &DeclIndex::new(kernel))
}

/// [`infer_ranges`] resolving declared types through `decls`, an index
/// of `kernel`'s declarations the caller already holds.
pub fn infer_ranges_indexed(kernel: &Kernel, decls: &DeclIndex<'_>) -> RangeInfo {
    let program = Program::lower(kernel, decls);
    let mut tables = program.initial_tables();
    let mut widened = Vec::new();
    let mut stack = Vec::with_capacity(8);
    for pass in 1.. {
        // A pass flags every entry it writes with a new value, even one it
        // later writes back (a loop variable reused with other bounds), so
        // it never misses a change; at the cap the snapshot decides what
        // actually moved.
        let before = (pass >= PASSES).then(|| tables.clone());
        if !program.run(&mut tables, &mut stack) {
            break;
        }
        if let Some(before) = before {
            widened.resize(tables.entries.len(), false);
            if !program.widen_moved(&before, &mut tables, &mut widened) {
                // Only entries that already widened keep changing, which
                // takes a rotation through registers of different types.
                break;
            }
        }
    }
    program.into_info(tables)
}

/// The four tables of a pass in one vector, each indexed by slot:
/// scalar and loop-variable ranges, their accumulation bases, array
/// ranges, theirs.
#[derive(Clone)]
struct Tables {
    entries: Vec<Entry>,
    /// Variable slots: the length of each of the first two tables.
    vars: usize,
}

impl Tables {
    /// The tables apart: variable values and bases, array values and
    /// bases.
    fn split(&mut self) -> [&mut [Entry]; 4] {
        let (vars, arrays) = self.entries.split_at_mut(2 * self.vars);
        let (var_values, var_bases) = vars.split_at_mut(self.vars);
        let (array_values, array_bases) = arrays.split_at_mut(arrays.len() / 2);
        [var_values, var_bases, array_values, array_bases]
    }
}

/// An entry of a table: `None` until the kernel declares or sets it.
type Entry = Option<Interval>;

/// Range inference lowered once: the steps one forward pass takes, in
/// the order the statement walk visits them.
struct Program<'k> {
    steps: Vec<Step>,
    /// The postfix code of every assignment, back to back.
    code: Vec<Op>,
    /// The register slots of every rotate, back to back.
    regs: Vec<u32>,
    /// Scalars and loop variables.
    vars: Slots<'k>,
    arrays: Slots<'k>,
}

/// One step of a pass.
enum Step {
    /// A loop header: its variable ranges over its bounds.
    Loop { var: u32, range: Interval },
    /// `rotate` over the registers `regs[start..end]`.
    Rotate { start: u32, end: u32 },
    /// An assignment.
    Assign(Assign),
}

/// An assignment `target = code`, or the self-update `target = target ±
/// code` the trip product of its enclosing loops may repeat.
struct Assign {
    target: u32,
    /// Whether `target` is an array slot (else a variable slot).
    array: bool,
    /// `Some(negate)` for a self-update, `true` when the delta is
    /// subtracted.
    update: Option<bool>,
    trips: i64,
    /// `code[start..end]`: the right-hand side, or a self-update's delta.
    start: u32,
    end: u32,
}

/// One postfix operation: operands push their interval, operators pop
/// theirs and push the result.
#[derive(Clone, Copy)]
enum Op {
    Int(i64),
    Var(u32),
    Array(u32),
    Unary(UnOp),
    Binary(BinOp),
    /// The two arms of a `Select`.
    Union,
}

/// The dense slots of one namespace. Body names resolve through one
/// [`NameResolver`], by address and then by text; declarations by text.
struct Slots<'k> {
    names: NameResolver<'k>,
    slots: Vec<Slot<'k>>,
}

/// What a program knows of one slot.
struct Slot<'k> {
    /// The name the slot reports under.
    name: SlotName<'k>,
    /// The declared type's full range (`i32` when undeclared), which
    /// assignments clamp to and the cap widens to.
    full: Interval,
    /// The entry before the first pass: set for declared names only.
    initial: Entry,
}

/// A slot's name: a body name to clone, or a declaration's text.
#[derive(Clone, Copy)]
enum SlotName<'k> {
    Body(&'k Name),
    Decl(&'k str),
}

impl<'k> Slots<'k> {
    fn with_capacity(declared: usize) -> Self {
        Slots {
            names: NameResolver::with_capacity(declared),
            slots: Vec::with_capacity(declared),
        }
    }

    /// A new slot reporting under `name`, of the type `ty` resolves.
    fn push(&mut self, name: SlotName<'k>, ty: Option<ScalarType>) {
        self.slots.push(Slot {
            name,
            full: ty.map_or(I32_RANGE, Interval::of_type),
            initial: None,
        });
    }

    /// Declare `text` with the entry it starts at; a later declaration
    /// of the same text sets it again.
    fn declare(
        &mut self,
        text: &'k str,
        initial: Interval,
        ty: impl FnOnce() -> Option<ScalarType>,
    ) {
        let (slot, new) = self.names.text(text);
        if new {
            self.push(SlotName::Decl(text), ty());
        }
        self.slots[slot as usize].initial = Some(initial);
    }

    /// The slot of a body name. The slot reports under the body name
    /// from then on, which clones without allocating.
    fn resolve(&mut self, name: &'k Name, ty: impl FnOnce() -> Option<ScalarType>) -> u32 {
        let (slot, found) = self.names.resolve(name);
        match found {
            Found::Address => {}
            Found::Text => self.slots[slot as usize].name = SlotName::Body(name),
            Found::New => self.push(SlotName::Body(name), ty()),
        }
        slot
    }

    /// The entry of every slot before the first pass.
    fn initial(&self) -> impl Iterator<Item = Entry> + Clone + '_ {
        self.slots.iter().map(|s| s.initial)
    }

    /// The declared full range of every slot.
    fn full(&self) -> impl Iterator<Item = Interval> + Clone + '_ {
        self.slots.iter().map(|s| s.full)
    }

    /// The name of every slot, allocating only for declarations the body
    /// never names.
    fn names(&self) -> impl Iterator<Item = Name> + '_ {
        self.slots.iter().map(|s| match s.name {
            SlotName::Body(name) => name.clone(),
            SlotName::Decl(text) => Name::from(text),
        })
    }
}

/// Lowers a kernel body into a [`Program`].
struct Lower<'k, 'd> {
    decls: &'d DeclIndex<'d>,
    program: Program<'k>,
}

impl<'k> Program<'k> {
    /// Lower `kernel`'s body, resolving declared types through `decls`.
    fn lower(kernel: &'k Kernel, decls: &DeclIndex<'_>) -> Program<'k> {
        let mut lower = Lower {
            decls,
            program: Program {
                // Room for a small kernel's whole program up front.
                steps: Vec::with_capacity(8),
                code: Vec::with_capacity(32),
                regs: Vec::new(),
                // The declared scalars and a few loop variables.
                vars: Slots::with_capacity(kernel.scalars().len() + 4),
                arrays: Slots::with_capacity(kernel.arrays().len()),
            },
        };
        for a in kernel.arrays() {
            lower.program.arrays.declare(&a.name, array_seed(a), || {
                decls.array(&a.name).map(|d| d.ty)
            });
        }
        // Scalars start at zero (interpreter semantics).
        for s in kernel.scalars() {
            lower.program.vars.declare(&s.name, Interval::point(0), || {
                decls.scalar(&s.name).map(|d| d.ty)
            });
        }
        lower.stmts(kernel.body(), 1);
        lower.program
    }

    /// The entries before the first pass: declared arrays at their seed,
    /// declared scalars at zero, values and bases alike.
    fn initial_tables(&self) -> Tables {
        let (vars, arrays) = (self.vars.initial(), self.arrays.initial());
        Tables {
            entries: vars
                .clone()
                .chain(vars)
                .chain(arrays.clone())
                .chain(arrays)
                .collect(),
            vars: self.vars.slots.len(),
        }
    }

    /// Run one forward pass over `t`; returns whether any entry moved.
    fn run(&self, t: &mut Tables, stack: &mut Vec<Interval>) -> bool {
        let [vars, var_base, arrays, array_base] = t.split();
        let mut changed = false;
        for step in &self.steps {
            match *step {
                Step::Loop { var, range } => store(&mut vars[var as usize], range, &mut changed),
                Step::Rotate { start, end } => {
                    // Rotation permutes values: every register can hold any
                    // of the chain's values.
                    let regs = &self.regs[start as usize..end as usize];
                    let all = regs
                        .iter()
                        .map(|&r| vars[r as usize].unwrap_or(I32_RANGE))
                        .reduce(Interval::union)
                        .unwrap_or(Interval::point(0));
                    for &r in regs {
                        store(&mut vars[r as usize], all, &mut changed);
                    }
                }
                Step::Assign(ref a) => {
                    let code = &self.code[a.start as usize..a.end as usize];
                    let value = eval(code, vars, arrays, stack);
                    let (values, bases, slots) = if a.array {
                        (&mut *arrays, &mut *array_base, &self.arrays.slots)
                    } else {
                        (&mut *vars, &mut *var_base, &self.vars.slots)
                    };
                    let i = a.target as usize;
                    let current = values[i].unwrap_or(I32_RANGE);
                    let full = slots[i].full;
                    match a.update {
                        // t = t ± e executed up to `trips` times: widen the
                        // pre-accumulation base by the accumulated delta (the
                        // base, not the current value, keeps repeated passes
                        // idempotent).
                        Some(negate) => {
                            let d = if negate { value.neg() } else { value };
                            let spread = Interval::new(
                                d.lo.saturating_mul(a.trips).min(0),
                                d.hi.saturating_mul(a.trips).max(0),
                            );
                            let value = bases[i].unwrap_or(current).add(spread);
                            store(
                                &mut values[i],
                                clamp(current.union(value), full),
                                &mut changed,
                            );
                        }
                        None => {
                            store(
                                &mut values[i],
                                clamp(current.union(value), full),
                                &mut changed,
                            );
                            let base = bases[i].unwrap_or(Interval::point(0)).union(value);
                            store(&mut bases[i], clamp(base, full), &mut changed);
                        }
                    }
                }
            }
        }
        changed
    }

    /// Widen every entry of `t` that differs from `before` to its
    /// declared type's full range, unless it widened before (`widened`
    /// flags those). Returns whether any entry widened.
    fn widen_moved(&self, before: &Tables, t: &mut Tables, widened: &mut [bool]) -> bool {
        let (vars, arrays) = (self.vars.full(), self.arrays.full());
        let full = vars.clone().chain(vars).chain(arrays.clone()).chain(arrays);
        let mut any = false;
        for (((entry, old), done), full) in t
            .entries
            .iter_mut()
            .zip(&before.entries)
            .zip(widened)
            .zip(full)
        {
            if let Some(value) = entry {
                if *old != Some(*value) && !*done {
                    *done = true;
                    *value = value.union(full);
                    any = true;
                }
            }
        }
        any
    }

    /// The ranges the passes reached, keyed by name.
    fn into_info(self, mut t: Tables) -> RangeInfo {
        let [vars, var_base, arrays, array_base] = t.split();
        let [vars, var_base] = maps(&self.vars, vars, var_base);
        let [arrays, array_base] = maps(&self.arrays, arrays, array_base);
        RangeInfo {
            vars,
            arrays,
            var_base,
            array_base,
        }
    }
}

/// The entries one namespace holds of `values` and `bases`, keyed by
/// name.
fn maps(slots: &Slots<'_>, values: &[Entry], bases: &[Entry]) -> [HashMap<Name, Interval>; 2] {
    let held = |table: &[Entry]| table.iter().filter(|e| e.is_some()).count();
    let mut out = [
        HashMap::with_capacity(held(values)),
        HashMap::with_capacity(held(bases)),
    ];
    for ((name, value), base) in slots.names().zip(values).zip(bases) {
        match (value, base) {
            (Some(v), Some(b)) => {
                out[0].insert(name.clone(), *v);
                out[1].insert(name, *b);
            }
            (Some(v), None) => {
                out[0].insert(name, *v);
            }
            (None, Some(b)) => {
                out[1].insert(name, *b);
            }
            (None, None) => {}
        }
    }
    out
}

/// Evaluate postfix `code` over the variable and array entries.
fn eval(code: &[Op], vars: &[Entry], arrays: &[Entry], stack: &mut Vec<Interval>) -> Interval {
    // Lowering balances every operator with its operands, so a pop
    // never falls back.
    let pop = |stack: &mut Vec<Interval>| stack.pop().unwrap_or(I32_RANGE);
    stack.clear();
    for op in code {
        let v = match *op {
            Op::Int(v) => Interval::point(v),
            Op::Var(s) => vars[s as usize].unwrap_or(I32_RANGE),
            Op::Array(s) => arrays[s as usize].unwrap_or(I32_RANGE),
            Op::Unary(op) => un_interval(op, pop(stack)),
            Op::Binary(op) => {
                let b = pop(stack);
                bin_interval(op, pop(stack), b)
            }
            Op::Union => {
                let f = pop(stack);
                pop(stack).union(f)
            }
        };
        stack.push(v);
    }
    pop(stack)
}

/// `entry = value`, recording in `changed` whether the entry moved
/// (setting an absent entry counts).
fn store(entry: &mut Entry, value: Interval, changed: &mut bool) {
    *changed |= *entry != Some(value);
    *entry = Some(value);
}

/// `v` clamped into `full`, a type's range (sound because the datapath
/// wraps at that width).
fn clamp(v: Interval, full: Interval) -> Interval {
    // If the interval exceeds the type at either end, wrapping can
    // produce any value of the type.
    if v.lo < full.lo || v.hi > full.hi {
        full
    } else {
        v
    }
}

impl<'k> Lower<'k, '_> {
    fn var(&mut self, name: &'k Name) -> u32 {
        let decls = self.decls;
        self.program
            .vars
            .resolve(name, || decls.scalar(name).map(|d| d.ty))
    }

    fn array(&mut self, name: &'k Name) -> u32 {
        let decls = self.decls;
        self.program
            .arrays
            .resolve(name, || decls.array(name).map(|d| d.ty))
    }

    fn stmts(&mut self, stmts: &'k [Stmt], trips: i64) {
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    let n = l.trip_count().max(1);
                    let range = if n > 1 {
                        Interval::new(l.lower, l.upper - 1)
                    } else {
                        Interval::point(l.lower)
                    };
                    let var = self.var(&l.var);
                    self.program.steps.push(Step::Loop { var, range });
                    self.stmts(&l.body, trips.saturating_mul(n));
                }
                // Conditions are not read: both branches may run.
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.stmts(then_body, trips);
                    self.stmts(else_body, trips);
                }
                Stmt::Rotate(regs) => {
                    let start = self.program.regs.len() as u32;
                    for r in regs.iter() {
                        let slot = self.var(r);
                        self.program.regs.push(slot);
                    }
                    let end = self.program.regs.len() as u32;
                    self.program.steps.push(Step::Rotate { start, end });
                }
                Stmt::Assign { lhs, rhs } => {
                    let update = self_update_delta(lhs, rhs);
                    let start = self.program.code.len() as u32;
                    self.expr(update.map_or(rhs, |(delta, _)| delta));
                    let end = self.program.code.len() as u32;
                    let (target, array) = match lhs {
                        LValue::Scalar(n) => (self.var(n), false),
                        LValue::Array(a) => (self.array(&a.array), true),
                    };
                    self.program.steps.push(Step::Assign(Assign {
                        target,
                        array,
                        update: update.map(|(_, negate)| negate),
                        trips,
                        start,
                        end,
                    }));
                }
            }
        }
    }

    fn expr(&mut self, e: &'k Expr) {
        let op = match e {
            Expr::Int(v) => Op::Int(*v),
            Expr::Scalar(n) => Op::Var(self.var(n)),
            Expr::Load(a) => Op::Array(self.array(&a.array)),
            Expr::Unary(op, inner) => {
                self.expr(inner);
                Op::Unary(*op)
            }
            Expr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                Op::Binary(*op)
            }
            // The condition is not read: both arms may be selected.
            Expr::Select(_, t, f) => {
                self.expr(t);
                self.expr(f);
                Op::Union
            }
        };
        self.program.code.push(op);
    }
}

/// Detect `target = target ± e` (the accumulator pattern), returning `e`
/// and whether it is subtracted.
fn self_update_delta<'e>(lhs: &LValue, rhs: &'e Expr) -> Option<(&'e Expr, bool)> {
    let is_target = |e: &Expr| -> bool {
        match (lhs, e) {
            (LValue::Scalar(n), Expr::Scalar(m)) => n == m,
            (LValue::Array(a), Expr::Load(b)) => a == b,
            _ => false,
        }
    };
    match rhs {
        Expr::Binary(BinOp::Add, a, b) if is_target(a) => Some((b, false)),
        Expr::Binary(BinOp::Add, a, b) if is_target(b) => Some((a, false)),
        Expr::Binary(BinOp::Sub, a, b) if is_target(a) => Some((b, true)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;
    use std::collections::HashSet;

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(-3, 5);
        let b = Interval::new(2, 4);
        assert_eq!(a.add(b), Interval::new(-1, 9));
        assert_eq!(a.sub(b), Interval::new(-7, 3));
        assert_eq!(a.mul(b), Interval::new(-12, 20));
        assert_eq!(a.neg(), Interval::new(-5, 3));
        assert_eq!(a.abs(), Interval::new(0, 5));
        assert_eq!(Interval::new(-7, -2).abs(), Interval::new(2, 7));
        assert_eq!(a.union(b), Interval::new(-3, 5));
        assert_eq!(
            Interval::new(-9, 9).div(Interval::point(4)),
            Interval::new(-2, 2)
        );
    }

    #[test]
    fn interval_bits() {
        assert_eq!(Interval::new(0, 0).bits(), 1);
        assert_eq!(Interval::new(0, 1).bits(), 1);
        assert_eq!(Interval::new(0, 255).bits(), 8);
        assert_eq!(Interval::new(0, 256).bits(), 9);
        assert_eq!(Interval::new(-128, 127).bits(), 8);
        assert_eq!(Interval::new(-129, 0).bits(), 9);
        assert_eq!(Interval::new(-1, 1).bits(), 2);
        assert_eq!(Interval::of_type(ScalarType::I16).bits(), 16);
        assert_eq!(Interval::of_type(ScalarType::U8).bits(), 8);
    }

    #[test]
    fn type_ranges_and_clamping() {
        assert_eq!(Interval::of_type(ScalarType::I8), Interval::new(-128, 127));
        assert_eq!(Interval::of_type(ScalarType::U16), Interval::new(0, 65535));
        // Overflowing intervals clamp to the whole type.
        let wide = Interval::new(-1, 40000);
        assert_eq!(
            wide.clamp_to(ScalarType::I16),
            Interval::of_type(ScalarType::I16)
        );
        let narrow = Interval::new(-5, 100);
        assert_eq!(narrow.clamp_to(ScalarType::I16), narrow);
    }

    #[test]
    fn annotated_fir_narrows_products() {
        let k = parse_kernel(
            "kernel fir {
               in S: i32[96] range -1000..1000;
               in C: i32[32] range -50..50;
               inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        assert_eq!(info.array("S"), Interval::new(-1000, 1000));
        // The product is bounded by ±50,000 → 17 bits.
        use defacto_ir::{AffineExpr, Expr};
        let product = Expr::mul(
            Expr::load1("S", AffineExpr::var("i")),
            Expr::load1("C", AffineExpr::var("i")),
        );
        let r = info.expr(&product);
        assert_eq!(r, Interval::new(-50_000, 50_000));
        assert!(info.expr_bits(&product) <= 17);
        // The accumulator D: 2048 × product widened, clamped to i32 —
        // narrower than 32 bits would only hold with smaller trip counts,
        // but it must at least stay sound.
        assert!(info.array("D").bits() <= 32);
    }

    #[test]
    fn loop_variables_range_over_bounds() {
        let k = parse_kernel(
            "kernel lv { out B: i32[64];
               for i in 0..64 { B[i] = i; } }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        assert_eq!(info.var("i"), Interval::new(0, 63));
        assert_eq!(info.var("i").bits(), 6);
        // Stored values are the loop variable's range (∪ initial zero).
        assert_eq!(info.array("B"), Interval::new(0, 63));
    }

    #[test]
    fn accumulator_widening_is_bounded_by_trips() {
        let k = parse_kernel(
            "kernel acc {
               in A: i32[16] range 0..3;
               out B: i32[1];
               var s: i32;
               for i in 0..16 { s = s + A[i]; }
               for t in 0..1 { B[t] = s; }
             }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        // s ≤ 16 × 3 = 48.
        let s = info.var("s");
        assert!(s.hi >= 48, "{s:?}");
        assert!(s.hi <= 48, "{s:?}");
        assert_eq!(s.lo, 0);
        assert!(s.bits() <= 7);
    }

    #[test]
    fn comparisons_are_single_bit() {
        let k = parse_kernel(
            "kernel c { in A: u8[8]; inout M: i16[8] range 0..0;
               for i in 0..8 { M[i] = M[i] + (A[i] == 97); } }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        use defacto_ir::{AffineExpr, BinOp, Expr};
        let cmp = Expr::bin(
            BinOp::Eq,
            Expr::load1("A", AffineExpr::var("i")),
            Expr::Int(97),
        );
        assert_eq!(info.expr(&cmp), Interval::new(0, 1));
        // M accumulates ≤ 8 ones.
        assert!(info.array("M").hi <= 8);
    }

    #[test]
    fn unannotated_arrays_use_type_ranges() {
        let k = parse_kernel(
            "kernel u { in A: i16[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i] * A[i]; } }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        assert_eq!(info.array("A"), Interval::of_type(ScalarType::I16));
        use defacto_ir::{AffineExpr, Expr};
        let sq = Expr::mul(
            Expr::load1("A", AffineExpr::var("i")),
            Expr::load1("A", AffineExpr::var("i")),
        );
        // 16-bit × 16-bit: the +2^30 corner forces a full 32 bits.
        assert!(info.expr_bits(&sq) <= 32);
    }

    /// A four-register delay line needs five passes to carry `A`'s range
    /// into `B`; the third pass still changes `z`, so inference widens
    /// rather than stopping short with `B = [0, 0]`.
    #[test]
    fn ranges_still_changing_at_the_cap_widen_soundly() {
        let k = parse_kernel(
            "kernel dl { in A: i16[64] range 0..1000; out B: i16[64];
               var w: i16; var z: i16; var y: i16; var x: i16;
               for i in 0..64 { B[i] = w; w = z; z = y; y = x; x = A[i]; } }",
        )
        .unwrap();
        let info = infer_ranges(&k);
        let a: Vec<i64> = (0..64).map(|i| i * 997 % 1001).collect();
        let (ws, _) = defacto_ir::run_with_inputs(&k, &[("A", a)]).unwrap();
        let b = info.array("B");
        let stored = ws.array("B").unwrap();
        assert!(stored.iter().any(|&v| v > 1), "the test must store data");
        for &v in stored {
            assert!(b.lo <= v && v <= b.hi, "{v} outside {b:?}");
        }
        for var in ["w", "z", "y", "x"] {
            assert!(info.var(var).hi >= 1000, "{var}: {:?}", info.var(var));
        }
    }

    /// Stopping at the first pass that changes nothing gives exactly what
    /// the three fixed passes gave whenever those converged.
    #[test]
    fn the_fixpoint_matches_three_passes() {
        let kernels = [
            "kernel fir { in S: i32[96] range -1000..1000; in C: i32[32] range -50..50;
               inout D: i32[64];
               for j in 0..64 { for i in 0..32 { D[j] = D[j] + S[i + j] * C[i]; } } }",
            "kernel acc { in A: i32[16] range 0..3; out B: i32[1]; var s: i32;
               for i in 0..16 { s = s + A[i]; }
               for t in 0..1 { B[t] = s; } }",
            "kernel rot { in A: u8[32] range 0..9; out B: i32[32]; var p: i32; var q: i32;
               for i in 0..32 { q = A[i]; rotate(p, q); B[i] = p - q; } }",
            "kernel br { in A: i16[16]; out B: i16[16]; var m: i16;
               for i in 0..16 { if (A[i] > m) { m = A[i]; } else { m = m - 1; } B[i] = m; } }",
        ];
        for src in kernels {
            let k = parse_kernel(src).unwrap();
            let decls = DeclIndex::new(&k);
            let mut reference = initial_ranges(&k);
            let mut changed = false;
            for _ in 0..PASSES {
                changed = false;
                walk(k.body(), &decls, 1, &mut reference, &mut changed);
            }
            assert!(!changed, "three passes converge on {src}");
            assert_eq!(infer_ranges(&k), reference, "{src}");
        }
    }

    /// The tree walk range inference ran before it lowered bodies into
    /// programs, kept as the reference the program must match: each pass
    /// walks the statements and looks every name up in the tables by its
    /// text. Returns the ranges and the passes run.
    fn reference_ranges(kernel: &Kernel, decls: &DeclIndex<'_>) -> (RangeInfo, usize) {
        let mut info = initial_ranges(kernel);
        let mut widened = HashSet::new();
        let mut passes = 0;
        for pass in 1.. {
            passes = pass;
            let before = (pass >= PASSES).then(|| info.clone());
            let mut changed = false;
            walk(kernel.body(), decls, 1, &mut info, &mut changed);
            if !changed {
                break;
            }
            if let Some(before) = before {
                if !widen_changed(&before, &mut info, decls, &mut widened) {
                    break;
                }
            }
        }
        (info, passes)
    }

    /// The ranges before the first pass: arrays at their annotation or
    /// type range, scalars at zero.
    fn initial_ranges(kernel: &Kernel) -> RangeInfo {
        let mut info = RangeInfo {
            vars: HashMap::new(),
            arrays: HashMap::new(),
            var_base: HashMap::new(),
            array_base: HashMap::new(),
        };
        for a in kernel.arrays() {
            let base = array_seed(a);
            let name = Name::from(&a.name);
            info.arrays.insert(name.clone(), base);
            info.array_base.insert(name, base);
        }
        for s in kernel.scalars() {
            let name = Name::from(&s.name);
            info.vars.insert(name.clone(), Interval::point(0));
            info.var_base.insert(name, Interval::point(0));
        }
        info
    }

    /// Widen every entry of `info` that differs from `before` to its
    /// declared type's full range, unless it widened before. Returns
    /// whether any entry widened.
    fn widen_changed(
        before: &RangeInfo,
        info: &mut RangeInfo,
        decls: &DeclIndex<'_>,
        widened: &mut HashSet<(usize, Name)>,
    ) -> bool {
        let scalar = |name: &str| decls.scalar(name).map(|d| d.ty);
        let array = |name: &str| decls.array(name).map(|d| d.ty);
        let mut any = false;
        let mut widen = |tag: usize,
                         old: &HashMap<Name, Interval>,
                         new: &mut HashMap<Name, Interval>,
                         ty: &dyn Fn(&str) -> Option<ScalarType>| {
            for (name, value) in new.iter_mut() {
                if old.get(name) != Some(value) && widened.insert((tag, name.clone())) {
                    let full = Interval::of_type(ty(name).unwrap_or(ScalarType::I32));
                    *value = value.union(full);
                    any = true;
                }
            }
        };
        widen(0, &before.vars, &mut info.vars, &scalar);
        widen(1, &before.var_base, &mut info.var_base, &scalar);
        widen(2, &before.arrays, &mut info.arrays, &array);
        widen(3, &before.array_base, &mut info.array_base, &array);
        any
    }

    /// `map[name] = value`; records in `changed` whether the entry moved.
    fn set_entry(
        map: &mut HashMap<Name, Interval>,
        name: &Name,
        value: Interval,
        changed: &mut bool,
    ) {
        match map.get_mut(name) {
            Some(slot) => {
                *changed |= *slot != value;
                *slot = value;
            }
            None => {
                *changed = true;
                map.insert(name.clone(), value);
            }
        }
    }

    fn walk(
        stmts: &[Stmt],
        decls: &DeclIndex<'_>,
        trip_product: i64,
        info: &mut RangeInfo,
        changed: &mut bool,
    ) {
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    let trips = l.trip_count().max(1);
                    let range = if trips > 1 {
                        Interval::new(l.lower, l.upper - 1)
                    } else {
                        Interval::point(l.lower)
                    };
                    set_entry(&mut info.vars, &l.var, range, changed);
                    let trips = trip_product.saturating_mul(trips);
                    walk(&l.body, decls, trips, info, changed);
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(then_body, decls, trip_product, info, changed);
                    walk(else_body, decls, trip_product, info, changed);
                }
                Stmt::Rotate(regs) => {
                    let all = regs
                        .iter()
                        .map(|r| info.var(r))
                        .reduce(Interval::union)
                        .unwrap_or(Interval::point(0));
                    for r in regs.iter() {
                        set_entry(&mut info.vars, r, all, changed);
                    }
                }
                Stmt::Assign { lhs, rhs } => {
                    let self_update = self_update_delta(lhs, rhs);
                    let value = match self_update {
                        Some((delta, negate)) => {
                            let d = info.expr(delta);
                            let d = if negate { d.neg() } else { d };
                            let spread = Interval::new(
                                d.lo.saturating_mul(trip_product).min(0),
                                d.hi.saturating_mul(trip_product).max(0),
                            );
                            match lhs {
                                LValue::Scalar(n) => info
                                    .var_base
                                    .get(n)
                                    .copied()
                                    .unwrap_or_else(|| info.var(n))
                                    .add(spread),
                                LValue::Array(a) => info
                                    .array_base
                                    .get(&a.array)
                                    .copied()
                                    .unwrap_or_else(|| info.array(&a.array))
                                    .add(spread),
                            }
                        }
                        None => info.expr(rhs),
                    };
                    let (name, ty, current, values, bases) = match lhs {
                        LValue::Scalar(n) => (
                            n,
                            decls.scalar(n).map(|d| d.ty),
                            info.var(n),
                            &mut info.vars,
                            &mut info.var_base,
                        ),
                        LValue::Array(a) => (
                            &a.array,
                            decls.array(&a.array).map(|d| d.ty),
                            info.array(&a.array),
                            &mut info.arrays,
                            &mut info.array_base,
                        ),
                    };
                    let ty = ty.unwrap_or(ScalarType::I32);
                    set_entry(values, name, current.union(value).clamp_to(ty), changed);
                    if self_update.is_none() {
                        let base = bases
                            .get(name)
                            .copied()
                            .unwrap_or(Interval::point(0))
                            .union(value)
                            .clamp_to(ty);
                        set_entry(bases, name, base, changed);
                    }
                }
            }
        }
    }

    /// Source of a random kernel from the shapes range inference treats
    /// apart: array accumulators `B[i] = B[i] ± e`, scalar accumulators,
    /// a four-register delay line (which reaches the widening cap),
    /// rotates, selects, `if`/`else`, loop variables and every operator,
    /// over mixed element types with and without `range` annotations.
    fn grammar_kernel(seed: u64) -> String {
        let mut g = Grammar {
            state: seed,
            depth: 1,
        };
        g.depth = if g.below(3) == 0 { 1 } else { 2 };
        let outer = [1, 2, 4, 6, 8][g.below(5) as usize];
        let inner = [1, 2, 3, 4][g.below(4) as usize];
        let ty = |g: &mut Grammar| ["i8", "u8", "i16", "u16", "i32", "u32"][g.below(6) as usize];
        let mut src = String::from("kernel g {\n");
        let a_ty = ty(&mut g);
        // Annotations that fit every element type of their signedness.
        let range = match g.below(3) {
            0 => String::new(),
            1 if a_ty.starts_with('u') => format!(" range 0..{}", 15 + g.below(200)),
            1 => format!(" range -{}..{}", g.below(100), g.below(100)),
            _ => " range 0..15".to_string(),
        };
        src += &format!("  in A: {a_ty}[{}]{range};\n", outer + inner);
        src += &format!("  in C: {}[{}];\n", ty(&mut g), outer.max(inner));
        let b_kind = if g.below(2) == 0 { "inout" } else { "out" };
        src += &format!("  {b_kind} B: {}[{outer}];\n", ty(&mut g));
        src += &format!("  out D: {}[{outer}];\n", ty(&mut g));
        for s in 0..4 {
            src += &format!("  var s{s}: {};\n", ty(&mut g));
        }
        let mut body = String::new();
        for _ in 0..1 + g.below(5) {
            body += &g.stmt();
        }
        if g.depth == 2 {
            src += &format!("  for i in 0..{outer} {{ for j in 0..{inner} {{\n{body}  }} }}\n}}");
        } else {
            src += &format!("  for i in 0..{outer} {{\n{body}  }}\n}}");
        }
        src
    }

    /// The random choices of [`grammar_kernel`] (SplitMix64).
    struct Grammar {
        state: u64,
        depth: usize,
    }

    impl Grammar {
        fn below(&mut self, n: u64) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn scalar(&mut self) -> String {
            format!("s{}", self.below(4))
        }

        fn stmt(&mut self) -> String {
            let (e, s) = (self.expr(2), self.scalar());
            match self.below(7) {
                0 => match self.below(3) {
                    0 => format!("    B[i] = B[i] + {e};\n"),
                    1 => format!("    B[i] = {e} + B[i];\n"),
                    _ => format!("    B[i] = B[i] - {e};\n"),
                },
                1 => match self.below(2) {
                    0 => format!("    {s} = {s} + {e};\n"),
                    _ => format!("    {s} = {s} - {e};\n"),
                },
                2 => format!("    D[i] = s0; s0 = s1; s1 = s2; s2 = s3; s3 = {e};\n"),
                3 => match self.below(2) {
                    0 => "    rotate(s0, s1, s2);\n".to_string(),
                    _ => "    rotate(s3, s1);\n".to_string(),
                },
                4 => {
                    let (c, t, f) = (self.expr(1), self.expr(1), self.expr(1));
                    format!("    {s} = {c} > {t} ? {t} : {f};\n")
                }
                5 => {
                    let (c, t) = (self.expr(1), self.scalar());
                    format!("    if ({c} < 3) {{ {t} = {e}; }} else {{ D[i] = {e}; }}\n")
                }
                _ => format!("    {s} = {e};\n"),
            }
        }

        fn expr(&mut self, depth: u32) -> String {
            let leaf = depth == 0 || self.below(3) == 0;
            if leaf {
                let inner = if self.depth == 2 { "j" } else { "i" };
                return match self.below(6) {
                    0 if self.depth == 2 => "A[i + j]".to_string(),
                    0 => "A[i]".to_string(),
                    1 => format!("C[{inner}]"),
                    2 => self.scalar(),
                    3 => inner.to_string(),
                    4 => "B[i]".to_string(),
                    _ => format!("{}", self.below(200)),
                };
            }
            let a = self.expr(depth - 1);
            match self.below(16) {
                0 => format!("-{a}"),
                1 => format!("abs({a})"),
                2 => format!("~{a}"),
                3 => {
                    let (t, f) = (self.expr(depth - 1), self.expr(depth - 1));
                    format!("({a} == 0 ? {t} : {f})")
                }
                n => {
                    let ops = [
                        "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "<",
                    ];
                    let b = if n % 4 == 0 {
                        format!("{}", self.below(5))
                    } else {
                        self.expr(depth - 1)
                    };
                    format!("({a} {} {b})", ops[self.below(ops.len() as u64) as usize])
                }
            }
        }
    }

    /// `kernel` and its designs at the smallest, one random and the
    /// largest unroll point of its nest.
    fn kernel_and_designs(kernel: Kernel, seed: u64) -> Vec<Kernel> {
        use defacto_xform::{transform, TransformOptions, UnrollVector};
        let trips = kernel
            .perfect_nest()
            .map(|n| n.trip_counts())
            .unwrap_or_default();
        let random: Vec<i64> = trips
            .iter()
            .enumerate()
            .map(|(d, &t)| {
                let divisors: Vec<i64> = (1..=t).filter(|f| t % f == 0).collect();
                divisors[(seed >> (8 * d)) as usize % divisors.len()]
            })
            .collect();
        let mut out = Vec::new();
        for factors in [vec![1; trips.len()], random, trips.clone()] {
            if let Ok(design) = transform(
                &kernel,
                &UnrollVector(factors),
                &TransformOptions::default(),
            ) {
                out.push(design.kernel);
            }
        }
        out.insert(0, kernel);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn the_program_matches_the_tree_walk(seed in 0u64..u64::MAX) {
            let src = grammar_kernel(seed);
            let kernel = parse_kernel(&src).map_err(|e| {
                proptest::TestCaseError(format!("grammar kernel does not parse: {e}\n{src}"))
            })?;
            for k in kernel_and_designs(kernel, seed) {
                let decls = DeclIndex::new(&k);
                let (reference, _) = reference_ranges(&k, &decls);
                proptest::prop_assert_eq!(infer_ranges_indexed(&k, &decls), reference, "{}", k);
            }
        }
    }

    /// The array self-updates `A[..] = A[..] ± e` in `stmts`.
    fn array_accumulators(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign { lhs, rhs } => {
                    usize::from(lhs.as_array().is_some() && self_update_delta(lhs, rhs).is_some())
                }
                Stmt::For(l) => array_accumulators(&l.body),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => array_accumulators(then_body) + array_accumulators(else_body),
                Stmt::Rotate(_) => 0,
            })
            .sum()
    }

    /// The grammar reaches every shape the program lowers apart, and
    /// transformed designs add the rotates scalar replacement makes.
    #[test]
    fn the_grammar_reaches_every_shape() {
        let (mut rotates, mut accumulators, mut selects, mut capped, mut designs) = (0, 0, 0, 0, 0);
        for seed in 0..256u64 {
            let kernel = parse_kernel(&grammar_kernel(seed)).unwrap();
            for k in kernel_and_designs(kernel, seed) {
                let text = k.to_string();
                designs += 1;
                rotates += usize::from(text.contains("rotate("));
                accumulators += array_accumulators(k.body());
                selects += usize::from(text.contains(" ? "));
                let (_, passes) = reference_ranges(&k, &DeclIndex::new(&k));
                capped += usize::from(passes > PASSES);
            }
        }
        let counts = (rotates, accumulators, selects, capped, designs);
        assert!(
            rotates > 0 && accumulators > 0 && selects > 0 && capped > 0 && designs > 512,
            "shapes (rotates, accumulators, selects, capped, designs) = {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn inverted_interval_panics() {
        let _ = Interval::new(3, 2);
    }
}
