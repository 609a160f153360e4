//! Rewriting helpers over statement trees.
//!
//! The transformation crates repeatedly need "apply this access rewrite /
//! variable substitution everywhere in a body"; these helpers centralize
//! the recursion so each transformation stays focused on its own logic.

use crate::expr::{ArrayAccess, Expr};
use crate::name::Name;
use crate::stmt::{LValue, Loop, Stmt};

/// Rewrite every array access (reads *and* writes) in `stmts` with `f`.
pub fn map_accesses_stmts(
    stmts: &[Stmt],
    f: &mut impl FnMut(&ArrayAccess) -> ArrayAccess,
) -> Vec<Stmt> {
    stmts.iter().map(|s| map_accesses_stmt(s, f)).collect()
}

fn map_accesses_stmt(s: &Stmt, f: &mut impl FnMut(&ArrayAccess) -> ArrayAccess) -> Stmt {
    match s {
        Stmt::Assign { lhs, rhs } => Stmt::Assign {
            lhs: match lhs {
                LValue::Scalar(n) => LValue::Scalar(n.clone()),
                LValue::Array(a) => LValue::Array(f(a)),
            },
            rhs: rhs.map_accesses(f),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: cond.map_accesses(f),
            then_body: map_accesses_stmts(then_body, f),
            else_body: map_accesses_stmts(else_body, f),
        },
        Stmt::For(l) => Stmt::For(Loop {
            var: l.var.clone(),
            lower: l.lower,
            upper: l.upper,
            step: l.step,
            body: map_accesses_stmts(&l.body, f),
        }),
        Stmt::Rotate(r) => Stmt::Rotate(r.clone()),
    }
}

/// Substitute loop variable `var := var + delta` in every affine subscript
/// of `stmts`. This is the core rewrite of unroll-and-jam: the `k`-th
/// unrolled copy of a body offsets the unrolled loop's variable by
/// `k * step`.
pub fn offset_var_stmts(stmts: &[Stmt], var: &str, delta: i64) -> Vec<Stmt> {
    let mut rewritten =
        map_accesses_stmts(stmts, &mut |a| a.map_indices(|e| e.offset_var(var, delta)));
    // Scalar reads of the loop variable itself (rare — only when the index
    // feeds non-subscript arithmetic) must also be offset.
    rewritten = rewritten
        .iter()
        .map(|s| {
            map_scalar_reads_stmt(s, &mut |n| {
                if *n == *var {
                    Some(Expr::add(Expr::Scalar(n.clone()), Expr::Int(delta)))
                } else {
                    None
                }
            })
        })
        .collect();
    rewritten
}

/// [`offset_var_stmts`] for several variables in one pair of traversals
/// instead of one pair per variable. Zero deltas are skipped, so the
/// result is bit-identical to chaining `offset_var_stmts` over the
/// non-zero pairs in any order (subscript offsets commute on the constant
/// term; scalar-read rewrites touch disjoint leaves).
pub fn offset_vars_stmts(stmts: &[Stmt], deltas: &[(&str, i64)]) -> Vec<Stmt> {
    let active: Vec<(&str, i64)> = deltas.iter().filter(|&&(_, d)| d != 0).copied().collect();
    if active.is_empty() {
        return stmts.to_vec();
    }
    let rewritten = map_accesses_stmts(stmts, &mut |a| a.map_indices(|e| e.offset_vars(&active)));
    rewritten
        .iter()
        .map(|s| {
            map_scalar_reads_stmt(s, &mut |n| {
                active
                    .iter()
                    .find(|&&(v, _)| *n == *v)
                    .map(|&(_, d)| Expr::add(Expr::Scalar(n.clone()), Expr::Int(d)))
            })
        })
        .collect()
}

/// Rename a scalar/loop variable everywhere (subscripts and scalar reads).
pub fn rename_var_stmts(stmts: &[Stmt], from: &str, to: &str) -> Vec<Stmt> {
    let renamed = map_accesses_stmts(stmts, &mut |a| a.map_indices(|e| e.rename_var(from, to)));
    renamed
        .iter()
        .map(|s| {
            map_scalar_reads_stmt(s, &mut |n| {
                if *n == *from {
                    Some(Expr::scalar(to))
                } else {
                    None
                }
            })
        })
        .collect()
}

/// Replace scalar reads for which `f` returns a replacement expression.
/// Loop headers and assignment targets are untouched. `f` sees the read's
/// [`Name`], so a replacement that mentions it again copies no string.
pub fn map_scalar_reads_stmt(s: &Stmt, f: &mut impl FnMut(&Name) -> Option<Expr>) -> Stmt {
    match s {
        Stmt::Assign { lhs, rhs } => Stmt::Assign {
            lhs: lhs.clone(),
            rhs: map_scalar_reads_expr(rhs, f),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: map_scalar_reads_expr(cond, f),
            then_body: then_body
                .iter()
                .map(|s| map_scalar_reads_stmt(s, f))
                .collect(),
            else_body: else_body
                .iter()
                .map(|s| map_scalar_reads_stmt(s, f))
                .collect(),
        },
        Stmt::For(l) => Stmt::For(Loop {
            var: l.var.clone(),
            lower: l.lower,
            upper: l.upper,
            step: l.step,
            body: l.body.iter().map(|s| map_scalar_reads_stmt(s, f)).collect(),
        }),
        Stmt::Rotate(r) => Stmt::Rotate(r.clone()),
    }
}

fn map_scalar_reads_expr(e: &Expr, f: &mut impl FnMut(&Name) -> Option<Expr>) -> Expr {
    match e {
        Expr::Int(v) => Expr::Int(*v),
        Expr::Scalar(n) => f(n).unwrap_or_else(|| Expr::Scalar(n.clone())),
        Expr::Load(a) => Expr::Load(a.clone()),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(map_scalar_reads_expr(inner, f))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(map_scalar_reads_expr(a, f)),
            Box::new(map_scalar_reads_expr(b, f)),
        ),
        Expr::Select(c, t, el) => Expr::Select(
            Box::new(map_scalar_reads_expr(c, f)),
            Box::new(map_scalar_reads_expr(t, f)),
            Box::new(map_scalar_reads_expr(el, f)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::expr::BinOp;

    fn body() -> Vec<Stmt> {
        vec![Stmt::assign(
            LValue::Array(ArrayAccess::new("D", vec![AffineExpr::var("j")])),
            Expr::add(
                Expr::load1("S", AffineExpr::var("i") + AffineExpr::var("j")),
                Expr::scalar("i"),
            ),
        )]
    }

    #[test]
    fn offset_rewrites_subscripts_and_scalar_reads() {
        let out = offset_var_stmts(&body(), "i", 2);
        match &out[0] {
            Stmt::Assign { lhs, rhs } => {
                // D[j] unchanged (invariant in i).
                assert_eq!(lhs.as_array().unwrap().indices[0], AffineExpr::var("j"));
                // S[i+j] -> S[i+j+2]
                let loads = rhs.loads();
                assert_eq!(
                    loads[0].indices[0],
                    AffineExpr::var("i") + AffineExpr::var("j") + AffineExpr::constant(2)
                );
                // scalar read `i` -> `i + 2`
                match rhs {
                    Expr::Binary(BinOp::Add, _, b) => {
                        assert_eq!(**b, Expr::add(Expr::scalar("i"), Expr::Int(2)));
                    }
                    _ => panic!("unexpected shape"),
                }
            }
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn rename_var() {
        let out = rename_var_stmts(&body(), "i", "ii");
        match &out[0] {
            Stmt::Assign { rhs, .. } => {
                let loads = rhs.loads();
                assert_eq!(loads[0].indices[0].coeff("ii"), 1);
                assert_eq!(loads[0].indices[0].coeff("i"), 0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn offset_recurses_into_nested_loops_and_ifs() {
        let nest = vec![Stmt::For(Loop::new(
            "k",
            0,
            2,
            vec![Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::scalar("k"), Expr::Int(0)),
                then_body: body(),
                else_body: vec![],
            }],
        ))];
        let out = offset_var_stmts(&nest, "i", 1);
        let accesses = crate::stmt::collect_accesses(&out);
        let s_access = accesses.iter().find(|(a, _)| a.array == "S").unwrap();
        assert_eq!(s_access.0.indices[0].constant_term(), 1);
    }
}
