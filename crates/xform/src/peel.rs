//! Loop peeling.
//!
//! Scalar replacement emits first-iteration register loads guarded by
//! `if (var == lower)`. The paper peels the first iteration of such loops
//! instead, so every steady-state iteration has the same number of memory
//! accesses and behavioral synthesis can schedule a uniform body (§4,
//! "Loop Peeling and Loop-Invariant Code Motion"). This pass finds loops
//! whose bodies test `var == lower`, splits off the first iteration with
//! the guard resolved to true, and removes the (now dead) guards from the
//! remaining iterations.
//!
//! There are two entry points with identical output.
//! [`peel_first_iterations`] is the eager reference: separate peel,
//! substitute, guard-kill and simplify passes over borrowed trees, used by
//! the scratch pipeline ([`crate::transform`]); its output shares no
//! right-hand side with its input. The prepared path calls
//! `peel_first_iterations_lite`, which takes the scalar-replaced kernel
//! by value and rewrites its body in place in one fused walk. The only
//! right-hand sides it builds are the peeled first iteration's that read
//! the peeled variable: one that does not read it is shared with the
//! steady-state loop (`Arc::clone`), and an assignment target is rebuilt
//! only when a subscript mentions the variable.

use crate::error::Result;
use crate::simplify::{
    fold_binary, fold_unary, refold_in_place, simplify_expr, simplify_expr_in_place, simplify_stmts,
};
use defacto_ir::visit::{map_accesses_stmts, map_scalar_reads_stmt};
use defacto_ir::{AffineExpr, BinOp, Expr, Kernel, LValue, Loop, Stmt};
use std::sync::Arc;

/// Peel the first iteration of every loop that guards statements with
/// `if (var == lower)`, recursively.
///
/// # Errors
///
/// Propagates IR validation failures when rebuilding the kernel.
pub fn peel_first_iterations(kernel: &Kernel) -> Result<Kernel> {
    let body = peel_stmts(kernel.body());
    Ok(kernel.with_body(simplify_stmts(&body))?)
}

/// [`peel_first_iterations`] for the prepared evaluation path: produces
/// the same kernel while skipping revalidation and fusing peeling with
/// simplification into a single bottom-up walk over the owned body.
///
/// The eager path interleaves `peel_stmts` with per-level and final
/// `simplify_stmts` passes, walking (and re-cloning) the tree several
/// times. The fused walk moves the body out of `kernel` and rewrites it
/// in place, maintaining the invariant that every statement list it
/// returns is already in `simplify_stmts` normal form — expressions
/// folded, constant branches spliced, zero-trip loops dropped — so no
/// follow-up pass is needed:
///
/// - every expression is folded in place
///   ([`crate::simplify::simplify_expr_in_place`]): only the nodes a rule
///   rewrites change, and unchanged boxes and accesses are kept. A
///   right-hand side is reached through `Arc::make_mut`, which copies
///   nothing: the body the walk takes over shares no right-hand side
///   with anything outside the design;
/// - guard detection runs on the simplified peeled body, where constant
///   `if`s cannot occur, so the plain [`tests_first_iteration`] applies;
/// - the peeled first copy is produced by `substitute_fold_stmts`, which
///   substitutes `var := lower` and folds in one pass (folding is
///   bottom-up, so substituting at the leaves and folding on the way up
///   yields exactly `simplify(substitute(x))`). A right-hand side that
///   does not read `var` would fold to itself, so the copy shares it
///   with the steady body. The right-hand sides that read `var`, the
///   branch conditions and the statement shells around them are the
///   only new trees the walk builds;
/// - the steady-state loop keeps the body it already owns: `kill_guards`
///   rewrites dead guards to constant false in place and splices the
///   resulting constant branches by moving their statements.
///
/// Because `simplify_stmts` is idempotent and each fused operator
/// reproduces its two-pass counterpart node for node, the result is
/// bit-identical to the eager path; the incremental-equivalence property
/// test pins the two against each other on every paper kernel.
pub(crate) fn peel_first_iterations_lite(mut kernel: Kernel) -> Kernel {
    let body = peel_simplify(kernel.take_body());
    kernel.into_body_unchecked(body)
}

/// Fused `simplify_stmts(peel_stmts(..))` over an owned statement list:
/// peel and simplify in one bottom-up walk. Output is in
/// `simplify_stmts` normal form.
fn peel_simplify(stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    peel_simplify_into(stmts, &mut out);
    out
}

fn peel_simplify_into(stmts: Vec<Stmt>, out: &mut Vec<Stmt>) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, mut rhs } => {
                simplify_expr_in_place(Arc::make_mut(&mut rhs));
                out.push(Stmt::Assign { lhs, rhs });
            }
            Stmt::If {
                mut cond,
                then_body,
                else_body,
            } => {
                simplify_expr_in_place(&mut cond);
                match cond {
                    Expr::Int(0) => peel_simplify_into(else_body, out),
                    Expr::Int(_) => peel_simplify_into(then_body, out),
                    cond => out.push(Stmt::If {
                        cond,
                        then_body: peel_simplify(then_body),
                        else_body: peel_simplify(else_body),
                    }),
                }
            }
            Stmt::For(mut l) => {
                let trips = l.trip_count();
                if trips == 0 {
                    continue;
                }
                l.body = peel_simplify(std::mem::take(&mut l.body));
                if tests_first_iteration(&l.body, &l.var, l.lower) {
                    substitute_fold_into(&l.body, &l.var, l.lower, out);
                    if trips > 1 {
                        kill_guards(&mut l.body, &l.var, l.lower);
                        l.lower += l.step;
                        out.push(Stmt::For(l));
                    }
                } else {
                    out.push(Stmt::For(l));
                }
            }
            rotate @ Stmt::Rotate(_) => out.push(rotate),
        }
    }
}

/// Fused `simplify_stmts(substitute_const(..))` over an
/// already-simplified body: substitute `var := value` at the leaves and
/// refold on the way up, splicing branches whose condition becomes
/// constant.
fn substitute_fold_stmts(stmts: &[Stmt], var: &str, value: i64) -> Vec<Stmt> {
    let mut out = Vec::new();
    substitute_fold_into(stmts, var, value, &mut out);
    out
}

fn substitute_fold_into(stmts: &[Stmt], var: &str, value: i64, out: &mut Vec<Stmt>) {
    for s in stmts {
        match s {
            // A right-hand side that does not read `var` is already in
            // normal form, so substituting and folding would rebuild it
            // node for node: the peeled copy shares it instead.
            Stmt::Assign { lhs, rhs } => out.push(Stmt::Assign {
                lhs: match lhs {
                    LValue::Array(a) if !a.is_invariant_in(var) => LValue::Array(
                        a.map_indices(|e| e.substitute(var, &AffineExpr::constant(value))),
                    ),
                    lhs => lhs.clone(),
                },
                rhs: if reads_var(rhs, var) {
                    Arc::new(substitute_fold_expr(rhs, var, value))
                } else {
                    Arc::clone(rhs)
                },
            }),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => match substitute_fold_expr(cond, var, value) {
                Expr::Int(0) => substitute_fold_into(else_body, var, value, out),
                Expr::Int(_) => substitute_fold_into(then_body, var, value, out),
                cond => out.push(Stmt::If {
                    cond,
                    then_body: substitute_fold_stmts(then_body, var, value),
                    else_body: substitute_fold_stmts(else_body, var, value),
                }),
            },
            // Loop bounds are literals, so trip counts are unaffected by
            // substitution and no zero-trip loop can appear here.
            Stmt::For(l) => out.push(Stmt::For(Loop {
                var: l.var.clone(),
                lower: l.lower,
                upper: l.upper,
                step: l.step,
                body: substitute_fold_stmts(&l.body, var, value),
            })),
            Stmt::Rotate(r) => out.push(Stmt::Rotate(r.clone())),
        }
    }
}

/// Does `e` read `var`, as a scalar or in a subscript?
fn reads_var(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Int(_) => false,
        Expr::Scalar(n) => n == var,
        Expr::Load(a) => !a.is_invariant_in(var),
        Expr::Unary(_, x) => reads_var(x, var),
        Expr::Binary(_, a, b) => reads_var(a, var) || reads_var(b, var),
        Expr::Select(c, t, f) => reads_var(c, var) || reads_var(t, var) || reads_var(f, var),
    }
}

fn substitute_fold_expr(e: &Expr, var: &str, value: i64) -> Expr {
    match e {
        Expr::Scalar(n) if n == var => Expr::Int(value),
        Expr::Int(_) | Expr::Scalar(_) => e.clone(),
        Expr::Load(a) => {
            Expr::Load(a.map_indices(|ix| ix.substitute(var, &AffineExpr::constant(value))))
        }
        Expr::Unary(op, inner) => fold_unary(*op, substitute_fold_expr(inner, var, value)),
        Expr::Binary(op, a, b) => fold_binary(
            *op,
            substitute_fold_expr(a, var, value),
            substitute_fold_expr(b, var, value),
        ),
        Expr::Select(c, t, f) => match substitute_fold_expr(c, var, value) {
            Expr::Int(0) => substitute_fold_expr(f, var, value),
            Expr::Int(_) => substitute_fold_expr(t, var, value),
            c => Expr::Select(
                Box::new(c),
                Box::new(substitute_fold_expr(t, var, value)),
                Box::new(substitute_fold_expr(f, var, value)),
            ),
        },
    }
}

/// Fused `simplify_stmts(kill_first_iteration_guards(..))` in place over
/// an already-simplified body: rewrite `var == lower` tests to constant
/// false, refold the conditions that contained one, and splice the
/// branches that become constant by moving their statements. Untouched
/// statements stay where they are (they are already in normal form).
fn kill_guards(stmts: &mut Vec<Stmt>, var: &str, lower: i64) {
    let mut splice = false;
    for s in stmts.iter_mut() {
        match s {
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                kill_guards_in_expr(cond, var, lower);
                if matches!(cond, Expr::Int(_)) {
                    splice = true;
                } else {
                    kill_guards(then_body, var, lower);
                    kill_guards(else_body, var, lower);
                }
            }
            Stmt::For(l) => kill_guards(&mut l.body, var, lower),
            Stmt::Assign { .. } | Stmt::Rotate(_) => {}
        }
    }
    if !splice {
        return;
    }
    for s in std::mem::take(stmts) {
        match s {
            Stmt::If {
                cond: Expr::Int(v),
                then_body,
                else_body,
            } => {
                let mut taken = if v == 0 { else_body } else { then_body };
                kill_guards(&mut taken, var, lower);
                stmts.append(&mut taken);
            }
            other => stmts.push(other),
        }
    }
}

/// Fused `simplify_expr(kill_in_expr(..))` in place over an
/// already-simplified expression. Like `kill_in_expr`, only binary chains
/// are searched for the guard; other nodes are untouched (and already
/// folded).
pub(crate) fn kill_guards_in_expr(e: &mut Expr, var: &str, lower: i64) {
    if let Expr::Binary(op, a, b) = e {
        if *op == BinOp::Eq && is_guard(a, b, var, lower) {
            *e = Expr::Int(0);
        } else {
            kill_guards_in_expr(a, var, lower);
            kill_guards_in_expr(b, var, lower);
            refold_in_place(e);
        }
    }
}

/// Is `a == b` the first-iteration test `var == lower`?
fn is_guard(a: &Expr, b: &Expr, var: &str, lower: i64) -> bool {
    matches!((a, b), (Expr::Scalar(v), Expr::Int(k)) if v == var && *k == lower)
}

fn peel_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::For(l) => {
                let body = peel_stmts(&l.body);
                if l.trip_count() >= 1 && tests_first_iteration(&body, &l.var, l.lower) {
                    // First iteration with var := lower substituted.
                    let first = substitute_const(&body, &l.var, l.lower);
                    out.extend(simplify_stmts(&first));
                    if l.trip_count() > 1 {
                        // Remaining iterations: the first-iteration guards
                        // are now dead; fold them away.
                        let rest = kill_first_iteration_guards(&body, &l.var, l.lower);
                        out.push(Stmt::For(Loop {
                            var: l.var.clone(),
                            lower: l.lower + l.step,
                            upper: l.upper,
                            step: l.step,
                            body: simplify_stmts(&rest),
                        }));
                    }
                } else {
                    out.push(Stmt::For(Loop {
                        var: l.var.clone(),
                        lower: l.lower,
                        upper: l.upper,
                        step: l.step,
                        body,
                    }));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(Stmt::If {
                cond: cond.clone(),
                then_body: peel_stmts(then_body),
                else_body: peel_stmts(else_body),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Does any `if` condition in `stmts` (recursively) test `var == lower`?
pub(crate) fn tests_first_iteration(stmts: &[Stmt], var: &str, lower: i64) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            expr_tests(cond, var, lower)
                || tests_first_iteration(then_body, var, lower)
                || tests_first_iteration(else_body, var, lower)
        }
        Stmt::For(l) => tests_first_iteration(&l.body, var, lower),
        _ => false,
    })
}

fn expr_tests(e: &Expr, var: &str, lower: i64) -> bool {
    match e {
        Expr::Binary(BinOp::Eq, a, b) => is_guard(a, b, var, lower),
        Expr::Binary(BinOp::And, a, b) => expr_tests(a, var, lower) || expr_tests(b, var, lower),
        _ => false,
    }
}

/// Substitute `var := value` into subscripts and scalar reads.
fn substitute_const(stmts: &[Stmt], var: &str, value: i64) -> Vec<Stmt> {
    let replaced = map_accesses_stmts(stmts, &mut |a| {
        a.map_indices(|e| e.substitute(var, &AffineExpr::constant(value)))
    });
    replaced
        .iter()
        .map(|s| {
            map_scalar_reads_stmt(s, &mut |n| {
                if n == var {
                    Some(Expr::Int(value))
                } else {
                    None
                }
            })
        })
        .collect()
}

/// In the post-peel loop, `var` can no longer equal `lower`; rewrite the
/// corresponding equality tests to constant false so `simplify` drops the
/// guarded loads.
fn kill_first_iteration_guards(stmts: &[Stmt], var: &str, lower: i64) -> Vec<Stmt> {
    stmts.iter().map(|s| kill_in_stmt(s, var, lower)).collect()
}

fn kill_in_stmt(s: &Stmt, var: &str, lower: i64) -> Stmt {
    match s {
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: simplify_expr(&kill_in_expr(cond, var, lower)),
            then_body: kill_first_iteration_guards(then_body, var, lower),
            else_body: kill_first_iteration_guards(else_body, var, lower),
        },
        Stmt::For(l) => Stmt::For(Loop {
            var: l.var.clone(),
            lower: l.lower,
            upper: l.upper,
            step: l.step,
            body: kill_first_iteration_guards(&l.body, var, lower),
        }),
        other => other.clone(),
    }
}

pub(crate) fn kill_in_expr(e: &Expr, var: &str, lower: i64) -> Expr {
    match e {
        Expr::Binary(BinOp::Eq, a, b) if matches!((&**a, &**b), (Expr::Scalar(v), Expr::Int(k)) if v == var && *k == lower) => {
            Expr::Int(0)
        }
        Expr::Binary(op, a, b) => Expr::bin(
            *op,
            kill_in_expr(a, var, lower),
            kill_in_expr(b, var, lower),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::{parse_kernel, run_with_inputs};

    #[test]
    fn peels_conditional_register_load() {
        let k = parse_kernel(
            "kernel p { in C: i32[8]; out B: i32[8]; var c0: i32;
               for j in 0..4 {
                 for i in 0..8 {
                   if (j == 0) { c0 = C[i]; }
                   B[i] = B[i] + c0;
                 }
               } }",
        )
        .unwrap();
        let p = peel_first_iterations(&k).unwrap();
        // The j loop is split: a peeled copy plus a j in 1..4 loop with no
        // conditional left.
        let body = p.body();
        assert_eq!(body.len(), 2, "{p}");
        match &body[1] {
            Stmt::For(l) => {
                assert_eq!(l.lower, 1);
                assert!(!tests_first_iteration(&l.body, "j", 0));
                // No `if` remains anywhere in the steady loop.
                fn has_if(stmts: &[Stmt]) -> bool {
                    stmts.iter().any(|s| match s {
                        Stmt::If { .. } => true,
                        Stmt::For(l) => has_if(&l.body),
                        _ => false,
                    })
                }
                assert!(!has_if(&l.body), "{p}");
            }
            _ => panic!("expected steady loop"),
        }
        // Semantics preserved.
        let c: Vec<i64> = (0..8).map(|x| x + 1).collect();
        let (w1, _) = run_with_inputs(&k, &[("C", c.clone())]).unwrap();
        let (w2, _) = run_with_inputs(&p, &[("C", c)]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
    }

    #[test]
    fn peeling_reduces_steady_state_loads() {
        let k = parse_kernel(
            "kernel p { in C: i32[8]; out B: i32[4][8]; var c0: i32;
               for j in 0..4 {
                 for i in 0..8 {
                   if (j == 0) { c0 = C[i]; }
                   B[j][i] = c0 + j;
                 }
               } }",
        )
        .unwrap();
        let p = peel_first_iterations(&k).unwrap();
        let c: Vec<i64> = (0..8).collect();
        let (_, s1) = run_with_inputs(&k, &[("C", c.clone())]).unwrap();
        let (_, s2) = run_with_inputs(&p, &[("C", c)]).unwrap();
        // Both load C exactly 8 times (the guard already limited loads),
        // and outputs agree — but the peeled version contains no dynamic
        // branching at all.
        assert_eq!(s1.loads_by_array["C"], 8);
        assert_eq!(s2.loads_by_array["C"], 8);
    }

    #[test]
    fn nested_guards_peel_recursively() {
        // Guard on two loop variables: (i == 0) & (j == 0).
        let k = parse_kernel(
            "kernel n { in C: i32[4]; out B: i32[64]; var c0: i32;
               for i in 0..4 { for j in 0..4 { for t in 0..4 {
                 if ((i == 0) & (j == 0)) { c0 = C[t]; }
                 B[i*16 + j*4 + t] = c0 + i + j;
               } } } }",
        )
        .unwrap();
        let p = peel_first_iterations(&k).unwrap();
        let c: Vec<i64> = vec![5, 6, 7, 8];
        let (w1, _) = run_with_inputs(&k, &[("C", c.clone())]).unwrap();
        let (w2, _) = run_with_inputs(&p, &[("C", c)]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
    }

    #[test]
    fn loops_without_guards_untouched() {
        let k = parse_kernel(
            "kernel u { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i]; } }",
        )
        .unwrap();
        assert_eq!(peel_first_iterations(&k).unwrap(), k);
    }

    #[test]
    fn peeled_copy_shares_what_it_does_not_change() {
        let prepared = crate::PreparedKernel::prepare(&defacto_kernels::sobel::kernel()).unwrap();
        let design = prepared
            .transform(
                &crate::UnrollVector(vec![1, 2]),
                &crate::TransformOptions::default(),
            )
            .unwrap();
        // for i { <peeled j = 0 copy> for j in 2..32 step 2 { <steady> } }
        let Stmt::For(outer) = &design.kernel.body()[0] else {
            panic!("{}", design.kernel)
        };
        let Some((Stmt::For(steady), peeled)) = outer.body.split_last() else {
            panic!("{}", design.kernel)
        };
        let var = steady.var.as_str();
        let lower = steady.lower - steady.step;
        // Each steady statement's first-iteration image appears among the
        // peeled statements, in order; the others are the spliced
        // first-iteration fills, which have no twin.
        let mut rest = peeled.iter();
        let (mut shared, mut rebuilt) = (0, 0);
        for s in &steady.body {
            let image = simplify_stmts(&substitute_const(std::slice::from_ref(s), var, lower));
            let twin = rest
                .find(|p| std::slice::from_ref(*p) == image.as_slice())
                .unwrap_or_else(|| panic!("no peeled twin of {s:?}"));
            match (s, twin) {
                (Stmt::Assign { rhs, .. }, Stmt::Assign { rhs: first, .. }) => {
                    if rhs.scalar_reads().contains(&var) {
                        assert!(!Arc::ptr_eq(rhs, first), "{s:?}");
                        rebuilt += 1;
                    } else {
                        assert!(Arc::ptr_eq(rhs, first), "{s:?}");
                        shared += 1;
                    }
                }
                (Stmt::Rotate(r), Stmt::Rotate(first)) => assert!(Arc::ptr_eq(r, first)),
                _ => panic!("unexpected twin {twin:?} of {s:?}"),
            }
        }
        // Six new-column loads read `j`; two copies of gx, gy, mag and
        // the clamped store value do not.
        assert_eq!((shared, rebuilt), (8, 6), "{}", design.kernel);
    }

    #[test]
    fn single_iteration_loop_peels_completely() {
        let k = parse_kernel(
            "kernel s { in C: i32[1]; out B: i32[1]; var c0: i32;
               for j in 0..1 {
                 if (j == 0) { c0 = C[j]; }
                 B[j] = c0;
               } }",
        )
        .unwrap();
        let p = peel_first_iterations(&k).unwrap();
        // Loop disappears entirely.
        assert!(p.body().iter().all(|s| !matches!(s, Stmt::For(_))), "{p}");
        let (w, _) = run_with_inputs(&p, &[("C", vec![42])]).unwrap();
        assert_eq!(w.array("B").unwrap(), &[42]);
    }
}
