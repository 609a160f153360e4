//! Expressions of the kernel language.

use crate::affine::AffineExpr;
use crate::name::Name;
use std::fmt;

/// A binary operator in the kernel language.
///
/// Comparison operators produce `0`/`1` integer values, mirroring C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Integer division `/` (truncating, like C).
    Div,
    /// Remainder `%`.
    Rem,
    /// Left shift `<<`.
    Shl,
    /// Arithmetic right shift `>>`.
    Shr,
    /// Bitwise and `&`.
    And,
    /// Bitwise or `|`.
    Or,
    /// Bitwise xor `^`.
    Xor,
    /// Equality `==`.
    Eq,
    /// Inequality `!=`.
    Ne,
    /// Less than `<`.
    Lt,
    /// Less or equal `<=`.
    Le,
    /// Greater than `>`.
    Gt,
    /// Greater or equal `>=`.
    Ge,
}

impl BinOp {
    /// True for operators whose result is a boolean (0/1) flag.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Apply the operator to two integer values with C semantics.
    ///
    /// Division or remainder by zero yields zero rather than trapping — a
    /// hardware datapath has no trap mechanism, and this keeps the reference
    /// interpreter total.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
        }
    }

    /// The operator's source token.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    Not,
    /// Absolute value `abs(..)` — common in image kernels such as Sobel.
    Abs,
}

impl UnOp {
    /// Apply the operator to a value.
    pub fn apply(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::Abs => a.wrapping_abs(),
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("~"),
            UnOp::Abs => f.write_str("abs"),
        }
    }
}

/// A reference to an element of a (possibly multi-dimensional) array, with
/// one affine subscript per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayAccess {
    /// Name of the array variable.
    pub array: Name,
    /// One affine subscript per declared dimension.
    pub indices: Vec<AffineExpr>,
}

impl ArrayAccess {
    /// Construct an access to `array` with the given subscripts.
    pub fn new(array: impl Into<Name>, indices: Vec<AffineExpr>) -> Self {
        ArrayAccess {
            array: array.into(),
            indices,
        }
    }

    /// The combined coefficient vector across all dimensions, restricted to
    /// `vars`. Two accesses to the same array are *uniformly generated* iff
    /// these vectors are equal.
    pub fn coeff_signature(&self, vars: &[&str]) -> Vec<Vec<i64>> {
        self.indices.iter().map(|e| e.coeff_vector(vars)).collect()
    }

    /// Whether `self` and `other` have equal [`Self::coeff_signature`]s
    /// over `vars`, without building either.
    pub fn same_signature(&self, other: &ArrayAccess, vars: &[&str]) -> bool {
        self.indices.len() == other.indices.len()
            && self
                .indices
                .iter()
                .zip(&other.indices)
                .all(|(a, b)| a.same_coeffs(b, vars))
    }

    /// The per-dimension constant terms.
    pub fn constant_offsets(&self) -> Vec<i64> {
        self.indices.iter().map(|e| e.constant_term()).collect()
    }

    /// True if every subscript is invariant with respect to `var`.
    pub fn is_invariant_in(&self, var: &str) -> bool {
        self.indices.iter().all(|e| e.is_invariant_in(var))
    }

    /// Apply `f` to every subscript, producing a rewritten access.
    pub fn map_indices(&self, mut f: impl FnMut(&AffineExpr) -> AffineExpr) -> ArrayAccess {
        ArrayAccess {
            array: self.array.clone(),
            indices: self.indices.iter().map(&mut f).collect(),
        }
    }
}

impl fmt::Display for ArrayAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for idx in &self.indices {
            write!(f, "[{idx}]")?;
        }
        Ok(())
    }
}

/// An expression of the kernel language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer literal.
    Int(i64),
    /// A read of a scalar variable (a declared scalar, a compiler temporary,
    /// or a loop index variable).
    Scalar(Name),
    /// A read of an array element.
    Load(ArrayAccess),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? then : else`, evaluated without short-circuiting (hardware
    /// evaluates both arms and selects).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a binary node.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Shorthand for `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// Shorthand for `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// Shorthand for a scalar read.
    pub fn scalar(name: impl Into<Name>) -> Expr {
        Expr::Scalar(name.into())
    }

    /// Shorthand for a 1-D array load with the given affine subscript.
    pub fn load1(array: impl Into<Name>, idx: AffineExpr) -> Expr {
        Expr::Load(ArrayAccess::new(array, vec![idx]))
    }

    /// Collect every [`ArrayAccess`] read inside the expression, in
    /// evaluation order.
    pub fn loads(&self) -> Vec<&ArrayAccess> {
        let mut out = Vec::new();
        self.visit_loads(&mut |a| out.push(a));
        out
    }

    /// Visit every array load in the expression by reference, in the
    /// order of [`Self::loads`].
    pub(crate) fn visit_loads<'a>(&'a self, f: &mut impl FnMut(&'a ArrayAccess)) {
        match self {
            Expr::Int(_) | Expr::Scalar(_) => {}
            Expr::Load(a) => f(a),
            Expr::Unary(_, e) => e.visit_loads(f),
            Expr::Binary(_, a, b) => {
                a.visit_loads(f);
                b.visit_loads(f);
            }
            Expr::Select(c, t, e) => {
                c.visit_loads(f);
                t.visit_loads(f);
                e.visit_loads(f);
            }
        }
    }

    /// Names of scalar variables read by the expression (loop indices
    /// included), in first-occurrence order without duplicates.
    pub fn scalar_reads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.visit_scalars(&mut |s| {
            if !out.contains(&s) {
                out.push(s);
            }
        });
        out
    }

    fn visit_scalars<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Int(_) => {}
            Expr::Scalar(s) => f(s),
            Expr::Load(a) => {
                for idx in &a.indices {
                    for v in idx.vars() {
                        f(v);
                    }
                }
            }
            Expr::Unary(_, e) => e.visit_scalars(f),
            Expr::Binary(_, a, b) => {
                a.visit_scalars(f);
                b.visit_scalars(f);
            }
            Expr::Select(c, t, e) => {
                c.visit_scalars(f);
                t.visit_scalars(f);
                e.visit_scalars(f);
            }
        }
    }

    /// Rewrite every array access with `f`, leaving everything else intact.
    pub fn map_accesses(&self, f: &mut impl FnMut(&ArrayAccess) -> ArrayAccess) -> Expr {
        match self {
            Expr::Int(v) => Expr::Int(*v),
            Expr::Scalar(s) => Expr::Scalar(s.clone()),
            Expr::Load(a) => Expr::Load(f(a)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.map_accesses(f))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.map_accesses(f)),
                Box::new(b.map_accesses(f)),
            ),
            Expr::Select(c, t, e) => Expr::Select(
                Box::new(c.map_accesses(f)),
                Box::new(t.map_accesses(f)),
                Box::new(e.map_accesses(f)),
            ),
        }
    }

    /// Replace loads for which `f` returns `Some(replacement)`; other loads
    /// are kept. Used by scalar replacement to swap memory reads for
    /// register reads.
    pub fn replace_loads(&self, f: &mut impl FnMut(&ArrayAccess) -> Option<Expr>) -> Expr {
        match self {
            Expr::Int(v) => Expr::Int(*v),
            Expr::Scalar(s) => Expr::Scalar(s.clone()),
            Expr::Load(a) => match f(a) {
                Some(e) => e,
                None => Expr::Load(a.clone()),
            },
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.replace_loads(f))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.replace_loads(f)),
                Box::new(b.replace_loads(f)),
            ),
            Expr::Select(c, t, e) => Expr::Select(
                Box::new(c.replace_loads(f)),
                Box::new(t.replace_loads(f)),
                Box::new(e.replace_loads(f)),
            ),
        }
    }

    /// Number of arithmetic/logic operation nodes in the expression tree
    /// (loads, scalars and literals excluded).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Scalar(_) | Expr::Load(_) => 0,
            Expr::Unary(_, e) => 1 + e.op_count(),
            Expr::Binary(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Select(c, t, e) => 1 + c.op_count() + t.op_count() + e.op_count(),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Int(v)
    }
}

impl From<AffineExpr> for Expr {
    /// Lower an affine expression into explicit IR arithmetic
    /// (`a*i + b` becomes `Mul`/`Add` nodes over scalar reads).
    fn from(a: AffineExpr) -> Self {
        let mut acc: Option<Expr> = None;
        for (v, c) in a.terms() {
            let term = if c == 1 {
                Expr::scalar(v)
            } else {
                Expr::mul(Expr::Int(c), Expr::scalar(v))
            };
            acc = Some(match acc {
                None => term,
                Some(e) => Expr::add(e, term),
            });
        }
        let k = a.constant_term();
        match acc {
            None => Expr::Int(k),
            Some(e) if k == 0 => e,
            Some(e) => Expr::add(e, Expr::Int(k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;

    #[test]
    fn binop_apply_matches_c_semantics() {
        assert_eq!(BinOp::Add.apply(2, 3), 5);
        assert_eq!(BinOp::Sub.apply(2, 3), -1);
        assert_eq!(BinOp::Mul.apply(-4, 3), -12);
        assert_eq!(BinOp::Div.apply(7, 2), 3);
        assert_eq!(BinOp::Div.apply(-7, 2), -3);
        assert_eq!(BinOp::Div.apply(7, 0), 0);
        assert_eq!(BinOp::Rem.apply(7, 3), 1);
        assert_eq!(BinOp::Rem.apply(7, 0), 0);
        assert_eq!(BinOp::Shl.apply(1, 4), 16);
        assert_eq!(BinOp::Shr.apply(-16, 2), -4);
        assert_eq!(BinOp::Eq.apply(3, 3), 1);
        assert_eq!(BinOp::Lt.apply(3, 3), 0);
        assert_eq!(BinOp::Ge.apply(3, 3), 1);
    }

    #[test]
    fn unop_apply() {
        assert_eq!(UnOp::Neg.apply(5), -5);
        assert_eq!(UnOp::Not.apply(0), -1);
        assert_eq!(UnOp::Abs.apply(-9), 9);
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn loads_are_collected_in_order() {
        let e = Expr::add(
            Expr::load1("A", AffineExpr::var("i")),
            Expr::mul(
                Expr::load1("B", AffineExpr::var("j")),
                Expr::load1("A", AffineExpr::var("i") + AffineExpr::constant(1)),
            ),
        );
        let loads = e.loads();
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0].array, "A");
        assert_eq!(loads[1].array, "B");
        assert_eq!(loads[2].array, "A");
    }

    #[test]
    fn scalar_reads_dedupe() {
        let e = Expr::add(
            Expr::scalar("x"),
            Expr::add(Expr::scalar("x"), Expr::load1("A", AffineExpr::var("i"))),
        );
        assert_eq!(e.scalar_reads(), vec!["x", "i"]);
    }

    #[test]
    fn replace_loads_substitutes_registers() {
        let e = Expr::add(
            Expr::load1("A", AffineExpr::var("i")),
            Expr::load1("B", AffineExpr::var("i")),
        );
        let out = e.replace_loads(&mut |a| {
            if a.array == "A" {
                Some(Expr::scalar("a_reg"))
            } else {
                None
            }
        });
        assert_eq!(
            out,
            Expr::add(
                Expr::scalar("a_reg"),
                Expr::load1("B", AffineExpr::var("i"))
            )
        );
    }

    #[test]
    fn op_count_counts_interior_nodes() {
        let e = Expr::add(
            Expr::mul(Expr::Int(2), Expr::scalar("x")),
            Expr::Unary(UnOp::Abs, Box::new(Expr::scalar("y"))),
        );
        assert_eq!(e.op_count(), 3);
    }

    #[test]
    fn affine_lowering() {
        let a = AffineExpr::from_terms([("i", 2), ("j", 1)], -3);
        let e: Expr = a.clone().into();
        // Evaluating the lowered tree must agree with the affine evaluation.
        fn eval(e: &Expr, i: i64, j: i64) -> i64 {
            match e {
                Expr::Int(v) => *v,
                Expr::Scalar(s) => match s.as_str() {
                    "i" => i,
                    "j" => j,
                    _ => unreachable!(),
                },
                Expr::Binary(op, a, b) => op.apply(eval(a, i, j), eval(b, i, j)),
                _ => unreachable!(),
            }
        }
        for i in -3..3 {
            for j in -3..3 {
                let want = a.eval(|v| Some(if v == "i" { i } else { j }));
                assert_eq!(eval(&e, i, j), want);
            }
        }
    }

    #[test]
    fn access_display() {
        let a = ArrayAccess::new(
            "A",
            vec![
                AffineExpr::var("i"),
                AffineExpr::var("j") + AffineExpr::constant(1),
            ],
        );
        assert_eq!(a.to_string(), "A[i][j + 1]");
    }
}
