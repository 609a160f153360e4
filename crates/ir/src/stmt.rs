//! Statements and loops of the kernel language.

use crate::expr::{ArrayAccess, Expr};
use crate::name::Name;
use std::fmt;

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A scalar variable (declared scalar or compiler-introduced register).
    Scalar(Name),
    /// An array element.
    Array(ArrayAccess),
}

impl LValue {
    /// Shorthand for a scalar target.
    pub fn scalar(name: impl Into<Name>) -> Self {
        LValue::Scalar(name.into())
    }

    /// The array access if this is an array target.
    pub fn as_array(&self) -> Option<&ArrayAccess> {
        match self {
            LValue::Array(a) => Some(a),
            LValue::Scalar(_) => None,
        }
    }
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Scalar(s) => f.write_str(s),
            LValue::Array(a) => write!(f, "{a}"),
        }
    }
}

/// A counted loop `for var in lower..upper step s { body }`.
///
/// Bounds are compile-time constants (a requirement of the paper's input
/// domain: behavioral synthesis needs constant trip counts) and `upper` is
/// exclusive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    /// The induction variable.
    pub var: Name,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
    /// Step (strictly positive).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// A normalized loop `for var in 0..trip_count` with step 1.
    pub fn new(var: impl Into<Name>, lower: i64, upper: i64, body: Vec<Stmt>) -> Self {
        Loop {
            var: var.into(),
            lower,
            upper,
            step: 1,
            body,
        }
    }

    /// Number of iterations the loop executes.
    pub fn trip_count(&self) -> i64 {
        if self.upper <= self.lower || self.step <= 0 {
            0
        } else {
            (self.upper - self.lower + self.step - 1) / self.step
        }
    }

    /// True when the loop is in normalized form: lower bound 0, step 1.
    pub fn is_normalized(&self) -> bool {
        self.lower == 0 && self.step == 1
    }

    /// The iteration values of the induction variable, in order.
    pub fn iter_values(&self) -> impl Iterator<Item = i64> + '_ {
        // A non-positive step is malformed (the interpreter rejects it);
        // yield nothing rather than pretend it strides by one.
        let upper = if self.step > 0 {
            self.upper
        } else {
            self.lower
        };
        (self.lower..upper).step_by(self.step.max(1) as usize)
    }
}

/// A statement of the kernel language.
///
/// The source language produced by the parser only contains `Assign`, `If`
/// and (nested) `For`; `Rotate` is introduced by scalar replacement to model
/// the parallel register-rotation operation of Figure 1(c) in the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `lhs = rhs;`
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Assigned expression.
        rhs: Expr,
    },
    /// `if (cond) { then } else { otherwise }` — `otherwise` may be empty.
    If {
        /// Branch condition (non-zero means taken).
        cond: Expr,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
    /// A nested loop. Source kernels form a perfect nest; transformed code
    /// may be imperfect (peeled iterations, hoisted loads, sunk stores).
    For(Loop),
    /// `rotate(r0, r1, ..., rk);` — shift each register left by one and
    /// rotate the first value into the last position. In hardware all moves
    /// happen in parallel in a single cycle; the interpreter emulates the
    /// same permutation sequentially.
    Rotate(Vec<Name>),
}

impl Stmt {
    /// Shorthand for an assignment statement.
    pub fn assign(lhs: LValue, rhs: Expr) -> Stmt {
        Stmt::Assign { lhs, rhs }
    }

    /// All array accesses *read* by this statement (not descending into
    /// nested loops or branches).
    pub fn direct_loads(&self) -> Vec<&ArrayAccess> {
        match self {
            Stmt::Assign { rhs, .. } => rhs.loads(),
            Stmt::If { cond, .. } => cond.loads(),
            Stmt::For(_) | Stmt::Rotate(_) => Vec::new(),
        }
    }

    /// The array access *written* by this statement, if it writes one.
    pub fn direct_store(&self) -> Option<&ArrayAccess> {
        match self {
            Stmt::Assign { lhs, .. } => lhs.as_array(),
            _ => None,
        }
    }
}

/// Walk `stmts` recursively (including bodies of `If` and `For`), invoking
/// `f` on every statement in program order.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                walk_stmts(then_body, f);
                walk_stmts(else_body, f);
            }
            Stmt::For(l) => walk_stmts(&l.body, f),
            _ => {}
        }
    }
}

/// Visit every array access in `stmts` (reads and writes, recursively)
/// by reference, with whether it is a write, in program order: an
/// assignment's loads before its store, a condition's loads before its
/// branches.
pub fn visit_accesses<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a ArrayAccess, bool)) {
    walk_stmts(stmts, &mut |s| match s {
        Stmt::Assign { lhs, rhs } => {
            rhs.visit_loads(&mut |a| f(a, false));
            if let Some(a) = lhs.as_array() {
                f(a, true);
            }
        }
        Stmt::If { cond, .. } => cond.visit_loads(&mut |a| f(a, false)),
        _ => {}
    });
}

/// Collect every array access in `stmts` (reads and writes, recursively),
/// as `(access, is_write)` pairs in program order.
pub fn collect_accesses(stmts: &[Stmt]) -> Vec<(ArrayAccess, bool)> {
    let mut out = Vec::new();
    visit_accesses(stmts, &mut |a, is_write| out.push((a.clone(), is_write)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;

    fn fir_body() -> Vec<Stmt> {
        // D[j] = D[j] + S[i+j] * C[i];
        vec![Stmt::assign(
            LValue::Array(ArrayAccess::new("D", vec![AffineExpr::var("j")])),
            Expr::add(
                Expr::load1("D", AffineExpr::var("j")),
                Expr::mul(
                    Expr::load1("S", AffineExpr::var("i") + AffineExpr::var("j")),
                    Expr::load1("C", AffineExpr::var("i")),
                ),
            ),
        )]
    }

    #[test]
    fn trip_count() {
        let l = Loop::new("i", 0, 32, vec![]);
        assert_eq!(l.trip_count(), 32);
        assert!(l.is_normalized());

        let l2 = Loop {
            var: "i".into(),
            lower: 3,
            upper: 10,
            step: 2,
            body: vec![],
        };
        assert_eq!(l2.trip_count(), 4); // 3,5,7,9
        assert!(!l2.is_normalized());
        assert_eq!(l2.iter_values().collect::<Vec<_>>(), vec![3, 5, 7, 9]);

        let empty = Loop::new("i", 5, 5, vec![]);
        assert_eq!(empty.trip_count(), 0);
    }

    #[test]
    fn direct_accesses() {
        let body = fir_body();
        let loads = body[0].direct_loads();
        assert_eq!(loads.len(), 3);
        let store = body[0].direct_store().unwrap();
        assert_eq!(store.array, "D");
    }

    #[test]
    fn collect_accesses_recurses_into_loops() {
        let nest = vec![Stmt::For(Loop::new(
            "j",
            0,
            4,
            vec![Stmt::For(Loop::new("i", 0, 4, fir_body()))],
        ))];
        let acc = collect_accesses(&nest);
        // 3 reads + 1 write.
        assert_eq!(acc.len(), 4);
        assert_eq!(acc.iter().filter(|(_, w)| *w).count(), 1);
    }

    #[test]
    fn collect_accesses_sees_if_condition_loads() {
        let s = Stmt::If {
            cond: Expr::bin(
                crate::BinOp::Gt,
                Expr::load1("A", AffineExpr::var("i")),
                Expr::Int(0),
            ),
            then_body: fir_body(),
            else_body: vec![],
        };
        let acc = collect_accesses(std::slice::from_ref(&s));
        // 1 condition read + 3 reads + 1 write inside the branch.
        assert_eq!(acc.len(), 5);
    }
}
