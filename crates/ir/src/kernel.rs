//! The top-level kernel: declarations plus a loop-nest body.

use crate::decl::{ArrayDecl, ScalarDecl};
use crate::error::{IrError, Result};
use crate::expr::{ArrayAccess, Expr};
use crate::name::Name;
use crate::stmt::{walk_stmts, LValue, Loop, Stmt};
use crate::types::ScalarType;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Largest flattened element count a single array declaration may have
/// (16 Mi elements, 128 MiB of interpreter storage).
pub const MAX_ARRAY_ELEMS: usize = 1 << 24;

/// A complete kernel: named declarations and a statement body, typically a
/// single perfect loop nest in source form.
///
/// Construct kernels with [`crate::parse_kernel`] or
/// [`crate::KernelBuilder`]; both validate the structural rules of the
/// paper's input domain (declared names, affine subscripts with matching
/// dimensionality, constant loop bounds, unique loop variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: String,
    arrays: Vec<ArrayDecl>,
    scalars: Vec<ScalarDecl>,
    body: Vec<Stmt>,
}

impl Kernel {
    /// Assemble and validate a kernel.
    ///
    /// # Errors
    ///
    /// Returns an error when a name is redeclared or undeclared, an array is
    /// accessed with the wrong dimensionality, a loop is malformed, or two
    /// nested loops share an induction-variable name.
    pub fn new(
        name: impl Into<String>,
        arrays: Vec<ArrayDecl>,
        scalars: Vec<ScalarDecl>,
        body: Vec<Stmt>,
    ) -> Result<Self> {
        let k = Kernel {
            name: name.into(),
            arrays,
            scalars,
            body,
        };
        k.validate()?;
        Ok(k)
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Array declarations, in declaration order.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Scalar declarations, in declaration order.
    pub fn scalars(&self) -> &[ScalarDecl] {
        &self.scalars
    }

    /// The statement body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Look up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Look up a scalar declaration by name.
    pub fn scalar(&self, name: &str) -> Option<&ScalarDecl> {
        self.scalars.iter().find(|s| s.name == name)
    }

    /// The element type of the named array or scalar, if declared.
    pub fn type_of(&self, name: &str) -> Option<ScalarType> {
        self.array(name)
            .map(|a| a.ty)
            .or_else(|| self.scalar(name).map(|s| s.ty))
    }

    /// Produce a copy with a different body, revalidating.
    ///
    /// # Errors
    ///
    /// Same validation failures as [`Kernel::new`].
    pub fn with_body(&self, body: Vec<Stmt>) -> Result<Kernel> {
        Kernel::new(
            self.name.clone(),
            self.arrays.clone(),
            self.scalars.clone(),
            body,
        )
    }

    /// Produce a copy with additional compiler-temporary scalar
    /// declarations and a different body, revalidating.
    ///
    /// # Errors
    ///
    /// Same validation failures as [`Kernel::new`].
    pub fn with_body_and_temps(&self, body: Vec<Stmt>, temps: Vec<ScalarDecl>) -> Result<Kernel> {
        let mut scalars = self.scalars.clone();
        for t in temps {
            if scalars.iter().any(|s| s.name == t.name) {
                return Err(IrError::Redeclared(t.name));
            }
            scalars.push(t);
        }
        Kernel::new(self.name.clone(), self.arrays.clone(), scalars, body)
    }

    /// [`Kernel::with_body`] without revalidation, for transformation
    /// pipelines whose output is valid by construction (e.g. rebuilding a
    /// nest from an already-validated kernel's own statements). The
    /// validation in `Kernel::validate` is a pure check — it never
    /// alters the kernel — so skipping it changes nothing but time; any
    /// caller handing over statements of uncertain provenance must use
    /// [`Kernel::with_body`] instead.
    #[must_use]
    pub fn with_body_unchecked(&self, body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: self.name.clone(),
            arrays: self.arrays.clone(),
            scalars: self.scalars.clone(),
            body,
        }
    }

    /// [`Kernel::with_body_unchecked`] that takes the declarations over
    /// instead of copying them.
    #[must_use]
    pub fn into_body_unchecked(mut self, body: Vec<Stmt>) -> Kernel {
        self.body = body;
        self
    }

    /// Move the body out, leaving it empty, so a transformation can
    /// rewrite the statements in place; hand the result back with
    /// [`Kernel::into_body_unchecked`].
    #[must_use]
    pub fn take_body(&mut self) -> Vec<Stmt> {
        std::mem::take(&mut self.body)
    }

    /// [`Kernel::with_body_and_temps`] without revalidation; the caller
    /// guarantees the body is valid and the temporary names are fresh
    /// (see [`Kernel::with_body_unchecked`]).
    #[must_use]
    pub fn with_body_and_temps_unchecked(&self, body: Vec<Stmt>, temps: Vec<ScalarDecl>) -> Kernel {
        let mut scalars = self.scalars.clone();
        scalars.extend(temps);
        Kernel {
            name: self.name.clone(),
            arrays: self.arrays.clone(),
            scalars,
            body,
        }
    }

    /// View the body as a perfect loop nest, if it is one: a chain of
    /// single-statement loops ending in a body with no further loops.
    pub fn perfect_nest(&self) -> Option<NestView<'_>> {
        NestView::of(&self.body)
    }

    /// All loop induction variables in the body, outermost first for the
    /// perfect-nest prefix, then any others in program order.
    pub fn loop_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        walk_stmts(&self.body, &mut |s| {
            if let Stmt::For(l) = s {
                if !out.iter().any(|v| *v == l.var) {
                    out.push(l.var.to_string());
                }
            }
        });
        out
    }

    fn validate(&self) -> Result<()> {
        let mut names: HashSet<&str> = HashSet::new();
        for a in &self.arrays {
            if !names.insert(a.name.as_str()) {
                return Err(IrError::Redeclared(a.name.clone()));
            }
            // Interpreting a kernel allocates every array up front; cap
            // the element count so a declaration like `A: i8[1 << 40]`
            // is a structured error instead of an allocation abort.
            match a.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
                Some(n) if n <= MAX_ARRAY_ELEMS => {}
                _ => {
                    return Err(IrError::Invalid(format!(
                        "array `{}` exceeds {MAX_ARRAY_ELEMS} elements",
                        a.name
                    )))
                }
            }
        }
        for s in &self.scalars {
            if !names.insert(s.name.as_str()) {
                return Err(IrError::Redeclared(s.name.clone()));
            }
        }
        let mut loop_vars: Vec<Name> = Vec::new();
        self.validate_stmts(&self.body, &mut loop_vars)?;
        Ok(())
    }

    fn validate_stmts(&self, stmts: &[Stmt], loop_vars: &mut Vec<Name>) -> Result<()> {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, rhs } => {
                    match lhs {
                        LValue::Scalar(n) => {
                            if self.scalar(n).is_none() {
                                return Err(IrError::Undeclared(n.to_string()));
                            }
                        }
                        LValue::Array(a) => self.validate_access(a, loop_vars)?,
                    }
                    self.validate_expr(rhs, loop_vars)?;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.validate_expr(cond, loop_vars)?;
                    self.validate_stmts(then_body, loop_vars)?;
                    self.validate_stmts(else_body, loop_vars)?;
                }
                Stmt::For(l) => {
                    if l.step <= 0 {
                        return Err(IrError::MalformedLoop(format!(
                            "loop `{}` has non-positive step {}",
                            l.var, l.step
                        )));
                    }
                    if loop_vars.iter().any(|v| v == &l.var) {
                        return Err(IrError::MalformedLoop(format!(
                            "nested loops share induction variable `{}`",
                            l.var
                        )));
                    }
                    if names_conflict(&l.var, &self.arrays, &self.scalars) {
                        return Err(IrError::Redeclared(l.var.to_string()));
                    }
                    loop_vars.push(l.var.clone());
                    self.validate_stmts(&l.body, loop_vars)?;
                    loop_vars.pop();
                }
                Stmt::Rotate(regs) => {
                    for r in regs.iter() {
                        if self.scalar(r).is_none() {
                            return Err(IrError::Undeclared(r.to_string()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_expr(&self, e: &Expr, loop_vars: &[Name]) -> Result<()> {
        match e {
            Expr::Int(_) => Ok(()),
            Expr::Scalar(n) => {
                if self.scalar(n).is_some() || loop_vars.iter().any(|v| v == n) {
                    Ok(())
                } else {
                    Err(IrError::Undeclared(n.to_string()))
                }
            }
            Expr::Load(a) => self.validate_access(a, loop_vars),
            Expr::Unary(_, e) => self.validate_expr(e, loop_vars),
            Expr::Binary(_, a, b) => {
                self.validate_expr(a, loop_vars)?;
                self.validate_expr(b, loop_vars)
            }
            Expr::Select(c, t, e) => {
                self.validate_expr(c, loop_vars)?;
                self.validate_expr(t, loop_vars)?;
                self.validate_expr(e, loop_vars)
            }
        }
    }

    fn validate_access(&self, a: &ArrayAccess, loop_vars: &[Name]) -> Result<()> {
        let decl = self
            .array(&a.array)
            .ok_or_else(|| IrError::Undeclared(a.array.to_string()))?;
        if decl.dims.len() != a.indices.len() {
            return Err(IrError::DimensionMismatch {
                array: a.array.to_string(),
                declared: decl.dims.len(),
                used: a.indices.len(),
            });
        }
        for idx in &a.indices {
            for v in idx.vars() {
                if !loop_vars.iter().any(|lv| lv == v) {
                    return Err(IrError::Undeclared(v.to_string()));
                }
            }
        }
        Ok(())
    }
}

fn names_conflict(var: &str, arrays: &[ArrayDecl], scalars: &[ScalarDecl]) -> bool {
    arrays.iter().any(|a| a.name == var) || scalars.iter().any(|s| s.name == var)
}

/// Name → declaration lookups for one kernel, built once and shared by
/// every pass that resolves names per statement. [`Kernel::scalar`] and
/// [`Kernel::array`] scan the declaration lists; this answers the same
/// questions — including which declaration wins when a name appears
/// twice (the first) — with one hash lookup.
#[derive(Debug, Clone, Default)]
pub struct DeclIndex<'k> {
    decls: HashMap<&'k str, Decls<'k>>,
}

/// The scalar and array declared under one name, if any.
#[derive(Debug, Clone, Copy, Default)]
struct Decls<'k> {
    scalar: Option<&'k ScalarDecl>,
    array: Option<&'k ArrayDecl>,
}

impl<'k> DeclIndex<'k> {
    /// Index `kernel`'s declarations.
    pub fn new(kernel: &'k Kernel) -> Self {
        let mut decls: HashMap<&'k str, Decls<'k>> =
            HashMap::with_capacity(kernel.arrays.len() + kernel.scalars.len());
        for a in &kernel.arrays {
            let d = decls.entry(&a.name).or_default();
            d.array = d.array.or(Some(a));
        }
        for s in &kernel.scalars {
            let d = decls.entry(&s.name).or_default();
            d.scalar = d.scalar.or(Some(s));
        }
        DeclIndex { decls }
    }

    /// The scalar declared as `name`, as [`Kernel::scalar`].
    pub fn scalar(&self, name: &str) -> Option<&'k ScalarDecl> {
        self.decls.get(name).and_then(|d| d.scalar)
    }

    /// The array declared as `name`, as [`Kernel::array`].
    pub fn array(&self, name: &str) -> Option<&'k ArrayDecl> {
        self.decls.get(name).and_then(|d| d.array)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::print_kernel(self))
    }
}

/// A borrowed view of a perfect loop nest: the chain of loops from
/// outermost to innermost, and the innermost body.
#[derive(Debug, Clone)]
pub struct NestView<'a> {
    loops: Vec<&'a Loop>,
    innermost_body: &'a [Stmt],
}

impl<'a> NestView<'a> {
    /// Extract the perfect nest rooted at `stmts`, if `stmts` is a single
    /// loop whose body chains through single-loop statements.
    pub fn of(stmts: &'a [Stmt]) -> Option<Self> {
        let mut loops = Vec::new();
        let mut cur = stmts;
        loop {
            match cur {
                [Stmt::For(l)] => {
                    loops.push(l);
                    cur = &l.body;
                }
                body => {
                    if loops.is_empty() {
                        return None;
                    }
                    // A perfect nest's innermost body contains no loops.
                    if body.iter().any(|s| matches!(s, Stmt::For(_))) {
                        return None;
                    }
                    return Some(NestView {
                        loops,
                        innermost_body: body,
                    });
                }
            }
        }
    }

    /// Number of loops in the nest.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[&'a Loop] {
        &self.loops
    }

    /// The loop at `level` (0 = outermost).
    pub fn loop_at(&self, level: usize) -> &'a Loop {
        self.loops[level]
    }

    /// Induction-variable names, outermost first.
    pub fn vars(&self) -> Vec<&'a str> {
        self.loops.iter().map(|l| l.var.as_str()).collect()
    }

    /// Trip counts, outermost first.
    pub fn trip_counts(&self) -> Vec<i64> {
        self.loops.iter().map(|l| l.trip_count()).collect()
    }

    /// The statements of the innermost loop body.
    pub fn innermost_body(&self) -> &'a [Stmt] {
        self.innermost_body
    }

    /// Total number of innermost iterations (product of trip counts).
    pub fn total_iterations(&self) -> i64 {
        self.trip_counts().iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::decl::ArrayKind;

    fn fir() -> Kernel {
        let body = vec![Stmt::For(Loop::new(
            "j",
            0,
            64,
            vec![Stmt::For(Loop::new(
                "i",
                0,
                32,
                vec![Stmt::assign(
                    LValue::Array(ArrayAccess::new("D", vec![AffineExpr::var("j")])),
                    Expr::add(
                        Expr::load1("D", AffineExpr::var("j")),
                        Expr::mul(
                            Expr::load1("S", AffineExpr::var("i") + AffineExpr::var("j")),
                            Expr::load1("C", AffineExpr::var("i")),
                        ),
                    ),
                )],
            ))],
        ))];
        Kernel::new(
            "fir",
            vec![
                ArrayDecl::new("S", ScalarType::I32, vec![96], ArrayKind::In),
                ArrayDecl::new("C", ScalarType::I32, vec![32], ArrayKind::In),
                ArrayDecl::new("D", ScalarType::I32, vec![64], ArrayKind::InOut),
            ],
            vec![],
            body,
        )
        .unwrap()
    }

    #[test]
    fn perfect_nest_view() {
        let k = fir();
        let nest = k.perfect_nest().unwrap();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.vars(), vec!["j", "i"]);
        assert_eq!(nest.trip_counts(), vec![64, 32]);
        assert_eq!(nest.total_iterations(), 2048);
        assert_eq!(nest.innermost_body().len(), 1);
    }

    #[test]
    fn loop_vars_outermost_first() {
        assert_eq!(fir().loop_vars(), vec!["j".to_string(), "i".to_string()]);
    }

    #[test]
    fn undeclared_array_rejected() {
        let body = vec![Stmt::For(Loop::new(
            "i",
            0,
            4,
            vec![Stmt::assign(
                LValue::Array(ArrayAccess::new("X", vec![AffineExpr::var("i")])),
                Expr::Int(0),
            )],
        ))];
        let err = Kernel::new("bad", vec![], vec![], body).unwrap_err();
        assert_eq!(err, IrError::Undeclared("X".into()));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let body = vec![Stmt::For(Loop::new(
            "i",
            0,
            4,
            vec![Stmt::assign(
                LValue::Array(ArrayAccess::new(
                    "A",
                    vec![AffineExpr::var("i"), AffineExpr::var("i")],
                )),
                Expr::Int(0),
            )],
        ))];
        let arr = ArrayDecl::new("A", ScalarType::I32, vec![4], ArrayKind::Out);
        let err = Kernel::new("bad", vec![arr], vec![], body).unwrap_err();
        assert!(matches!(err, IrError::DimensionMismatch { .. }));
    }

    #[test]
    fn duplicate_loop_var_rejected() {
        let inner = Loop::new("i", 0, 4, vec![]);
        let body = vec![Stmt::For(Loop::new("i", 0, 4, vec![Stmt::For(inner)]))];
        let err = Kernel::new("bad", vec![], vec![], body).unwrap_err();
        assert!(matches!(err, IrError::MalformedLoop(_)));
    }

    #[test]
    fn loop_index_use_outside_its_loop_rejected() {
        // `i` used in a subscript but no enclosing loop declares it.
        let body = vec![Stmt::assign(
            LValue::Array(ArrayAccess::new("A", vec![AffineExpr::var("i")])),
            Expr::Int(0),
        )];
        let arr = ArrayDecl::new("A", ScalarType::I32, vec![4], ArrayKind::Out);
        let err = Kernel::new("bad", vec![arr], vec![], body).unwrap_err();
        assert_eq!(err, IrError::Undeclared("i".into()));
    }

    #[test]
    fn imperfect_nest_has_no_view() {
        let body = vec![Stmt::For(Loop::new(
            "j",
            0,
            4,
            vec![
                Stmt::assign(LValue::scalar("t"), Expr::Int(0)),
                Stmt::For(Loop::new("i", 0, 4, vec![])),
            ],
        ))];
        let k = Kernel::new(
            "imp",
            vec![],
            vec![ScalarDecl::new("t", ScalarType::I32)],
            body,
        )
        .unwrap();
        assert!(k.perfect_nest().is_none());
    }

    #[test]
    fn with_body_and_temps_rejects_duplicates() {
        let k = fir();
        let err = k
            .with_body_and_temps(
                k.body().to_vec(),
                vec![ScalarDecl::temp("S", ScalarType::I32)],
            )
            .unwrap_err();
        assert_eq!(err, IrError::Redeclared("S".into()));
    }

    #[test]
    fn decl_index_answers_like_the_declaration_scans() {
        // Unchecked temps can repeat a name, even an array's: the index
        // must resolve each lookup to the declaration the scans find.
        let k = fir().with_body_and_temps_unchecked(
            fir().body().to_vec(),
            vec![
                ScalarDecl::temp("t", ScalarType::I16),
                ScalarDecl::temp("t", ScalarType::I8),
                ScalarDecl::temp("S", ScalarType::U8),
            ],
        );
        let index = DeclIndex::new(&k);
        for name in ["t", "S", "C", "D", "j", "missing"] {
            assert_eq!(index.scalar(name), k.scalar(name), "scalar {name}");
            assert_eq!(index.array(name), k.array(name), "array {name}");
        }
        assert_eq!(index.scalar("t").map(|d| d.ty), Some(ScalarType::I16));
    }
}
