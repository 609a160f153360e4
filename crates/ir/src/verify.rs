//! Structural IR verifier.
//!
//! [`verify`] checks the invariants every transformation pass must
//! preserve and reports *all* violations as [`Diagnostic`]s (codes
//! `DF101`–`DF105`), unlike [`crate::Kernel::new`] validation which stops
//! at the first error. The transformation pipeline re-runs it after every
//! pass when `verify_each_pass` is enabled, so a pass that emits malformed
//! IR is caught at the pass boundary instead of surfacing later as a
//! wrong estimate or interpreter error.
//!
//! Checked invariants:
//!
//! - every name is declared exactly once (`DF105`);
//! - array accesses name declared arrays with matching subscript arity,
//!   and subscripts only use loop variables in scope (`DF101`, `DF102`);
//! - scalars that are read are written somewhere in the kernel — a scalar
//!   no pass ever defines is a dangling register (`DF101`);
//! - `rotate` register chains have a single element type (`DF103`);
//! - loops are well formed: positive step, ordered bounds, no shadowed
//!   induction variables (`DF104`).

use crate::diag::{codes, Diagnostic};
use crate::expr::{ArrayAccess, Expr};
use crate::kernel::Kernel;
use crate::name::Name;
use crate::stmt::{LValue, Stmt};
use std::collections::{HashMap, HashSet};

/// Verify structural invariants of `kernel`, returning every violation.
///
/// An empty result means the kernel is structurally sound. Diagnostics
/// carry no spans: verified kernels are usually transformation outputs
/// with no corresponding source text.
pub fn verify(kernel: &Kernel) -> Vec<Diagnostic> {
    let mut v = Verifier {
        kernel,
        diags: Vec::new(),
        reads: HashSet::new(),
        writes: HashSet::new(),
    };
    v.check_decls();
    let mut loop_vars = Vec::new();
    v.check_stmts(kernel.body(), &mut loop_vars);
    v.check_dangling_scalars();
    v.diags
}

struct Verifier<'k> {
    kernel: &'k Kernel,
    diags: Vec<Diagnostic>,
    /// Scalar names read anywhere in the body (loop variables excluded).
    reads: HashSet<Name>,
    /// Scalar names written anywhere in the body (assignments or rotates).
    writes: HashSet<Name>,
}

impl Verifier<'_> {
    fn check_decls(&mut self) {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for a in self.kernel.arrays() {
            *seen.entry(a.name.as_str()).or_default() += 1;
        }
        for s in self.kernel.scalars() {
            *seen.entry(s.name.as_str()).or_default() += 1;
        }
        let mut dups: Vec<&str> = seen
            .iter()
            .filter(|(_, &n)| n > 1)
            .map(|(&name, _)| name)
            .collect();
        dups.sort_unstable();
        for name in dups {
            self.diags.push(Diagnostic::error(
                codes::V_DUPLICATE_DECL,
                format!("name `{name}` is declared more than once"),
            ));
        }
    }

    fn check_stmts(&mut self, stmts: &[Stmt], loop_vars: &mut Vec<Name>) {
        for s in stmts {
            match s {
                Stmt::Assign { lhs, rhs } => {
                    match lhs {
                        LValue::Scalar(n) => {
                            self.writes.insert(n.clone());
                            if self.kernel.scalar(n).is_none() {
                                self.diags.push(Diagnostic::error(
                                    codes::V_UNDECLARED,
                                    format!("assignment to undeclared scalar `{n}`"),
                                ));
                            }
                        }
                        LValue::Array(a) => self.check_access(a, loop_vars),
                    }
                    self.check_expr(rhs, loop_vars);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.check_expr(cond, loop_vars);
                    self.check_stmts(then_body, loop_vars);
                    self.check_stmts(else_body, loop_vars);
                }
                Stmt::For(l) => {
                    if l.step <= 0 {
                        self.diags.push(Diagnostic::error(
                            codes::V_LOOP_FORM,
                            format!("loop `{}` has non-positive step {}", l.var, l.step),
                        ));
                    }
                    if l.upper < l.lower {
                        self.diags.push(Diagnostic::error(
                            codes::V_LOOP_FORM,
                            format!(
                                "loop `{}` has bounds out of order ({}..{})",
                                l.var, l.lower, l.upper
                            ),
                        ));
                    }
                    if loop_vars.iter().any(|v| v == &l.var) {
                        self.diags.push(Diagnostic::error(
                            codes::V_LOOP_FORM,
                            format!("nested loops share induction variable `{}`", l.var),
                        ));
                    }
                    if self.kernel.array(&l.var).is_some() || self.kernel.scalar(&l.var).is_some() {
                        self.diags.push(Diagnostic::error(
                            codes::V_LOOP_FORM,
                            format!("loop variable `{}` shadows a declaration", l.var),
                        ));
                    }
                    loop_vars.push(l.var.clone());
                    self.check_stmts(&l.body, loop_vars);
                    loop_vars.pop();
                }
                Stmt::Rotate(regs) => {
                    let mut tys = Vec::new();
                    for r in regs {
                        // Rotation both reads and redefines every register
                        // of the chain.
                        self.reads.insert(r.clone());
                        self.writes.insert(r.clone());
                        match self.kernel.scalar(r) {
                            Some(decl) => tys.push(decl.ty),
                            None => self.diags.push(Diagnostic::error(
                                codes::V_UNDECLARED,
                                format!("rotate names undeclared register `{r}`"),
                            )),
                        }
                    }
                    if tys.windows(2).any(|w| w[0] != w[1]) {
                        self.diags.push(Diagnostic::error(
                            codes::V_TYPE_WIDTH,
                            format!("rotate chain ({}) mixes element types", regs.join(", ")),
                        ));
                    }
                }
            }
        }
    }

    fn check_expr(&mut self, e: &Expr, loop_vars: &[Name]) {
        match e {
            Expr::Int(_) => {}
            Expr::Scalar(n) => {
                if loop_vars.iter().any(|v| v == n) {
                    return;
                }
                self.reads.insert(n.clone());
                if self.kernel.scalar(n).is_none() {
                    self.diags.push(Diagnostic::error(
                        codes::V_UNDECLARED,
                        format!("read of undeclared name `{n}`"),
                    ));
                }
            }
            Expr::Load(a) => self.check_access(a, loop_vars),
            Expr::Unary(_, e) => self.check_expr(e, loop_vars),
            Expr::Binary(_, a, b) => {
                self.check_expr(a, loop_vars);
                self.check_expr(b, loop_vars);
            }
            Expr::Select(c, t, f) => {
                self.check_expr(c, loop_vars);
                self.check_expr(t, loop_vars);
                self.check_expr(f, loop_vars);
            }
        }
    }

    fn check_access(&mut self, a: &ArrayAccess, loop_vars: &[Name]) {
        let Some(decl) = self.kernel.array(&a.array) else {
            self.diags.push(Diagnostic::error(
                codes::V_UNDECLARED,
                format!("access to undeclared array `{}`", a.array),
            ));
            return;
        };
        if decl.dims.len() != a.indices.len() {
            self.diags.push(Diagnostic::error(
                codes::V_ARITY,
                format!(
                    "array `{}` has {} dimension(s) but was accessed with {}",
                    a.array,
                    decl.dims.len(),
                    a.indices.len()
                ),
            ));
        }
        for idx in &a.indices {
            for v in idx.vars() {
                if !loop_vars.iter().any(|lv| lv == v) {
                    self.diags.push(Diagnostic::error(
                        codes::V_UNDECLARED,
                        format!(
                            "subscript of `{}` uses variable `{v}` outside its loop",
                            a.array
                        ),
                    ));
                }
            }
        }
    }

    fn check_dangling_scalars(&mut self) {
        let mut dangling: Vec<&Name> = self.reads.difference(&self.writes).collect();
        dangling.retain(|n| self.kernel.scalar(n).is_some());
        dangling.sort_unstable();
        for n in dangling {
            self.diags.push(Diagnostic::error(
                codes::V_UNDECLARED,
                format!("scalar `{n}` is read but never written by any statement"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::decl::{ArrayDecl, ArrayKind, ScalarDecl};
    use crate::parse_kernel;
    use crate::stmt::Loop;
    use crate::types::ScalarType;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn valid_kernel_verifies_clean() {
        let k = parse_kernel(FIR).unwrap();
        assert!(verify(&k).is_empty());
    }

    #[test]
    fn dangling_scalar_read_is_reported() {
        // `t` is declared and read but never written: Kernel::new accepts
        // it (it only checks declarations), verify flags it.
        let k = parse_kernel(
            "kernel d { in A: i32[4]; out B: i32[4]; var t: i32;
               for i in 0..4 { B[i] = A[i] + t; } }",
        )
        .unwrap();
        let diags = verify(&k);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::V_UNDECLARED);
        assert!(diags[0].message.contains("`t`"), "{}", diags[0].message);
    }

    #[test]
    fn mixed_type_rotate_is_reported() {
        let k = parse_kernel(
            "kernel r { in A: i32[8]; out B: i32[8]; var r0: i32; var r1: i16;
               for i in 0..8 { r0 = A[i]; r1 = r0; B[i] = r1; rotate(r0, r1); } }",
        )
        .unwrap();
        let diags = verify(&k);
        assert!(
            diags.iter().any(|d| d.code == codes::V_TYPE_WIDTH),
            "{diags:?}"
        );
    }

    #[test]
    fn verifier_collects_multiple_violations() {
        // Kernel::new refuses malformed IR, so drive the checker directly
        // with a corrupted body against a valid kernel's declarations —
        // the situation a buggy pass would produce.
        let k = parse_kernel(FIR).unwrap();
        let bad_body = vec![Stmt::For(Loop {
            var: "j".into(),
            lower: 5,
            upper: 1,
            step: 0,
            body: vec![Stmt::assign(
                LValue::Array(ArrayAccess::new("Z", vec![AffineExpr::var("j")])),
                Expr::load1("D", AffineExpr::var("q")),
            )],
        })];
        let mut v = Verifier {
            kernel: &k,
            diags: Vec::new(),
            reads: HashSet::new(),
            writes: HashSet::new(),
        };
        let mut loop_vars = Vec::new();
        v.check_stmts(&bad_body, &mut loop_vars);
        let codes_seen: Vec<&str> = v.diags.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::V_LOOP_FORM));
        assert!(codes_seen.contains(&codes::V_UNDECLARED));
    }

    #[test]
    fn distinct_decls_pass_the_duplicate_check() {
        let k = Kernel::new(
            "x",
            vec![ArrayDecl::new("A", ScalarType::I32, vec![4], ArrayKind::In)],
            vec![ScalarDecl::new("t", ScalarType::I32)],
            vec![],
        )
        .unwrap();
        let mut v = Verifier {
            kernel: &k,
            diags: Vec::new(),
            reads: HashSet::new(),
            writes: HashSet::new(),
        };
        v.check_decls();
        assert!(v.diags.is_empty());
    }
}
