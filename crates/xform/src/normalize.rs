//! Loop normalization: rewrite every loop to a zero lower bound and unit
//! step, substituting `var := step·var' + lower` into the body.
//!
//! Downstream transformations (unrolling, scalar replacement, tiling)
//! assume normalized loops; the pipeline runs this pass first.

use crate::error::Result;
use defacto_ir::visit::{map_accesses_stmts, map_scalar_reads_stmt};
use defacto_ir::{AffineExpr, Expr, Kernel, Loop, Stmt};

/// Normalize every loop in the kernel.
///
/// # Errors
///
/// Propagates IR validation failures when rebuilding the kernel.
pub fn normalize_loops(kernel: &Kernel) -> Result<Kernel> {
    let body = normalize_stmts(kernel.body());
    Ok(kernel.with_body(body)?)
}

fn normalize_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::For(l) => Stmt::For(normalize_loop(l)),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: cond.clone(),
                then_body: normalize_stmts(then_body),
                else_body: normalize_stmts(else_body),
            },
            other => other.clone(),
        })
        .collect()
}

fn normalize_loop(l: &Loop) -> Loop {
    let mut body = normalize_stmts(&l.body);
    if !l.is_normalized() {
        // var := step·var + lower in affine subscripts...
        let replacement = AffineExpr::var(l.var.clone()) * l.step + AffineExpr::constant(l.lower);
        body = map_accesses_stmts(&body, &mut |a| {
            a.map_indices(|e| e.substitute(&l.var, &replacement))
        });
        // ... and in scalar reads of the induction variable.
        let (step, lower, var) = (l.step, l.lower, l.var.clone());
        body = body
            .iter()
            .map(|s| {
                map_scalar_reads_stmt(s, &mut |n| {
                    if *n == var {
                        Some(Expr::add(
                            Expr::mul(Expr::Int(step), Expr::Scalar(n.clone())),
                            Expr::Int(lower),
                        ))
                    } else {
                        None
                    }
                })
            })
            .collect();
    }
    Loop {
        var: l.var.clone(),
        lower: 0,
        upper: l.trip_count(),
        step: 1,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::{parse_kernel, run_with_inputs};

    #[test]
    fn already_normalized_is_unchanged() {
        let k = parse_kernel(
            "kernel n { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i]; } }",
        )
        .unwrap();
        assert_eq!(normalize_loops(&k).unwrap(), k);
    }

    #[test]
    fn shifts_lower_bound() {
        let k = parse_kernel(
            "kernel s { in A: i16[66]; out B: i16[66];
               for i in 1..65 { B[i] = A[i - 1] + A[i + 1]; } }",
        )
        .unwrap();
        let n = normalize_loops(&k).unwrap();
        let nest = n.perfect_nest().unwrap();
        assert_eq!(nest.loop_at(0).lower, 0);
        assert_eq!(nest.loop_at(0).upper, 64);
        // Semantics preserved.
        let input: Vec<i64> = (0..66).map(|x| x * 3 - 50).collect();
        let (w1, _) = run_with_inputs(&k, &[("A", input.clone())]).unwrap();
        let (w2, _) = run_with_inputs(&n, &[("A", input)]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
    }

    #[test]
    fn rescales_step() {
        let k = parse_kernel(
            "kernel st { in A: i32[32]; out B: i32[32];
               for i in 2..30 step 4 { B[i] = A[i + 1]; } }",
        )
        .unwrap();
        let n = normalize_loops(&k).unwrap();
        let nest = n.perfect_nest().unwrap();
        assert!(nest.loop_at(0).is_normalized());
        assert_eq!(nest.loop_at(0).trip_count(), 7);
        let input: Vec<i64> = (0..32).map(|x| x * x).collect();
        let (w1, _) = run_with_inputs(&k, &[("A", input.clone())]).unwrap();
        let (w2, _) = run_with_inputs(&n, &[("A", input)]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
    }

    #[test]
    fn normalizes_nested_loops_and_scalar_uses() {
        let k = parse_kernel(
            "kernel ns { out B: i32[8][8]; var t: i32;
               for i in 1..8 { for j in 2..8 step 2 {
                 t = i * 10 + j;
                 B[i][j] = t;
               } } }",
        )
        .unwrap();
        let n = normalize_loops(&k).unwrap();
        let (w1, _) = run_with_inputs(&k, &[]).unwrap();
        let (w2, _) = run_with_inputs(&n, &[]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
        let nest = n.perfect_nest().unwrap();
        assert!(nest.loops().iter().all(|l| l.is_normalized()));
    }
}
