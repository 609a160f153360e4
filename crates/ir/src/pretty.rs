//! Pretty printer: renders a [`Kernel`] back to the textual DSL.
//!
//! The output of [`print_kernel`] re-parses to an equal kernel for source
//! kernels (those without `rotate` statements round-trip exactly; `rotate`
//! is printed in a parseable form as well).

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::stmt::{LValue, Stmt};
use std::fmt::Write;

/// Render a kernel as DSL source text.
pub fn print_kernel(k: &Kernel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "kernel {} {{", k.name());
    for a in k.arrays() {
        let mut dims = String::new();
        for d in &a.dims {
            let _ = write!(dims, "[{d}]");
        }
        match a.range {
            Some((lo, hi)) => {
                let _ = writeln!(
                    s,
                    "  {} {}: {}{} range {}..{};",
                    a.kind, a.name, a.ty, dims, lo, hi
                );
            }
            None => {
                let _ = writeln!(s, "  {} {}: {}{};", a.kind, a.name, a.ty, dims);
            }
        }
    }
    for sc in k.scalars() {
        let _ = writeln!(s, "  var {}: {};", sc.name, sc.ty);
    }
    print_stmts(&mut s, k.body(), 1);
    s.push_str("}\n");
    s
}

fn indent(s: &mut String, level: usize) {
    for _ in 0..level {
        s.push_str("  ");
    }
}

/// Render a statement list at the given indentation level.
pub fn print_stmts(s: &mut String, stmts: &[Stmt], level: usize) {
    for st in stmts {
        match st {
            Stmt::Assign { lhs, rhs } => {
                indent(s, level);
                let _ = writeln!(s, "{} = {};", print_lvalue(lhs), print_expr(rhs, 0));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                indent(s, level);
                let _ = writeln!(s, "if ({}) {{", print_expr(cond, 0));
                print_stmts(s, then_body, level + 1);
                if else_body.is_empty() {
                    indent(s, level);
                    s.push_str("}\n");
                } else {
                    indent(s, level);
                    s.push_str("} else {\n");
                    print_stmts(s, else_body, level + 1);
                    indent(s, level);
                    s.push_str("}\n");
                }
            }
            Stmt::For(l) => {
                indent(s, level);
                if l.step == 1 {
                    let _ = writeln!(s, "for {} in {}..{} {{", l.var, l.lower, l.upper);
                } else {
                    let _ = writeln!(
                        s,
                        "for {} in {}..{} step {} {{",
                        l.var, l.lower, l.upper, l.step
                    );
                }
                print_stmts(s, &l.body, level + 1);
                indent(s, level);
                s.push_str("}\n");
            }
            Stmt::Rotate(regs) => {
                indent(s, level);
                let _ = writeln!(s, "rotate({});", regs.join(", "));
            }
        }
    }
}

fn print_lvalue(l: &LValue) -> String {
    match l {
        LValue::Scalar(n) => n.to_string(),
        LValue::Array(a) => a.to_string(),
    }
}

/// Binding strength used for minimal parenthesization. Higher binds
/// tighter.
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::And => 5,
        BinOp::Xor => 4,
        BinOp::Or => 3,
    }
}

/// Render an expression; `min_prec` is the loosest precedence allowed
/// without parentheses.
pub fn print_expr(e: &Expr, min_prec: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Scalar(n) => n.to_string(),
        Expr::Load(a) => a.to_string(),
        Expr::Unary(UnOp::Abs, inner) => format!("abs({})", print_expr(inner, 0)),
        Expr::Unary(op, inner) => format!("{op}{}", print_expr(inner, 11)),
        Expr::Binary(op, a, b) => {
            let p = precedence(*op);
            // Left-associative: the right operand needs strictly higher
            // binding to avoid parentheses.
            let body = format!(
                "{} {} {}",
                print_expr(a, p),
                op.symbol(),
                print_expr(b, p + 1)
            );
            if p < min_prec {
                format!("({body})")
            } else {
                body
            }
        }
        Expr::Select(c, t, f) => {
            let body = format!(
                "{} ? {} : {}",
                print_expr(c, 1),
                print_expr(t, 1),
                print_expr(f, 1)
            );
            if min_prec > 0 {
                format!("({body})")
            } else {
                body
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;

    #[test]
    fn expr_parenthesization_is_minimal() {
        // (a + b) * c needs parens; a + b * c does not.
        let a = Expr::scalar("a");
        let b = Expr::scalar("b");
        let c = Expr::scalar("c");
        let e1 = Expr::mul(Expr::add(a.clone(), b.clone()), c.clone());
        assert_eq!(print_expr(&e1, 0), "(a + b) * c");
        let e2 = Expr::add(a.clone(), Expr::mul(b.clone(), c.clone()));
        assert_eq!(print_expr(&e2, 0), "a + b * c");
        // Left-associativity: a - b - c prints without parens,
        // a - (b - c) keeps them.
        let e3 = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, a.clone(), b.clone()),
            c.clone(),
        );
        assert_eq!(print_expr(&e3, 0), "a - b - c");
        let e4 = Expr::bin(BinOp::Sub, a, Expr::bin(BinOp::Sub, b, c));
        assert_eq!(print_expr(&e4, 0), "a - (b - c)");
    }

    #[test]
    fn select_and_abs() {
        let e = Expr::Select(
            Box::new(Expr::bin(BinOp::Gt, Expr::scalar("x"), Expr::Int(0))),
            Box::new(Expr::scalar("x")),
            Box::new(Expr::Unary(UnOp::Neg, Box::new(Expr::scalar("x")))),
        );
        assert_eq!(print_expr(&e, 0), "x > 0 ? x : -x");
        let a = Expr::Unary(UnOp::Abs, Box::new(Expr::scalar("x")));
        assert_eq!(print_expr(&a, 0), "abs(x)");
    }

    #[test]
    fn load_with_affine_subscript() {
        let e = Expr::load1("S", AffineExpr::var("i") + AffineExpr::var("j") + 1.into());
        assert_eq!(print_expr(&e, 0), "S[i + j + 1]");
    }
}
