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

use defacto_ir::{
    ArrayDecl, ArrayKind, BinOp, DeclIndex, Expr, Kernel, LValue, Name, ScalarType, Stmt, UnOp,
};
use std::collections::{HashMap, HashSet};

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
        let t = Interval::of_type(ty);
        // If the interval exceeds the type at either end, wrapping can
        // produce any value of the type.
        if self.lo < t.lo || self.hi > t.hi {
            t
        } else {
            self
        }
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
        self.vars
            .get(name)
            .copied()
            .unwrap_or_else(|| Interval::of_type(ScalarType::I32))
    }

    /// The element interval of an array.
    pub fn array(&self, name: &str) -> Interval {
        self.arrays
            .get(name)
            .copied()
            .unwrap_or_else(|| Interval::of_type(ScalarType::I32))
    }

    /// Bound an expression's value given the inferred environment.
    pub fn expr(&self, e: &Expr) -> Interval {
        match e {
            Expr::Int(v) => Interval::point(*v),
            Expr::Scalar(n) => self.var(n),
            Expr::Load(a) => self.array(&a.array),
            Expr::Unary(op, inner) => {
                let r = self.expr(inner);
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
            Expr::Binary(op, a, b) => {
                let ra = self.expr(a);
                let rb = self.expr(b);
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
                            Interval::of_type(ScalarType::I32)
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
            Expr::Select(_, t, f) => self.expr(t).union(self.expr(f)),
        }
    }

    /// Bits needed for an expression's value.
    pub fn expr_bits(&self, e: &Expr) -> u32 {
        self.expr(e).bits()
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
    let mut info = initial_ranges(kernel);
    let mut widened = HashSet::new();
    for pass in 1.. {
        // `changed` flags every entry a pass writes with a new value, even
        // one it later writes back (a loop variable reused with other
        // bounds), so it never misses a change; at the cap the snapshot
        // decides what actually moved.
        let before = (pass >= PASSES).then(|| info.clone());
        let mut changed = false;
        walk(kernel.body(), decls, 1, &mut info, &mut changed);
        if !changed {
            break;
        }
        if let Some(before) = before {
            if !widen_changed(&before, &mut info, decls, &mut widened) {
                // Only entries that already widened keep changing, which
                // takes a rotation through registers of different types.
                break;
            }
        }
    }
    info
}

/// The ranges before the first pass: arrays at their annotation or type
/// range, scalars at zero.
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
    // Scalars start at zero (interpreter semantics).
    for s in kernel.scalars() {
        let name = Name::from(&s.name);
        info.vars.insert(name.clone(), Interval::point(0));
        info.var_base.insert(name, Interval::point(0));
    }
    info
}

/// Widen every entry of `info` that differs from `before` to its
/// declared type's full range, unless it widened before. Returns whether
/// any entry widened.
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

/// `map[name] = value`, copying the key only the first time `name` is
/// seen; records in `changed` whether the entry moved.
fn set(map: &mut HashMap<Name, Interval>, name: &Name, value: Interval, changed: &mut bool) {
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
                set(&mut info.vars, &l.var, range, changed);
                walk(
                    &l.body,
                    decls,
                    trip_product.saturating_mul(trips),
                    info,
                    changed,
                );
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
                // Rotation permutes values: every register can hold any of
                // the chain's values.
                let all = regs
                    .iter()
                    .map(|r| info.var(r))
                    .reduce(Interval::union)
                    .unwrap_or(Interval::point(0));
                for r in regs {
                    set(&mut info.vars, r, all, changed);
                }
            }
            Stmt::Assign { lhs, rhs } => {
                let self_update = self_update_delta(lhs, rhs);
                let value = match self_update {
                    // s = s ± e executed up to `trip_product` times: widen
                    // the pre-accumulation base by the accumulated delta
                    // (the base, not the current value, keeps repeated
                    // passes idempotent).
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
                set(values, name, current.union(value).clamp_to(ty), changed);
                if self_update.is_none() {
                    let base = bases
                        .get(name)
                        .copied()
                        .unwrap_or(Interval::point(0))
                        .union(value)
                        .clamp_to(ty);
                    set(bases, name, base, changed);
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "empty interval")]
    fn inverted_interval_panics() {
        let _ = Interval::new(3, 2);
    }
}
