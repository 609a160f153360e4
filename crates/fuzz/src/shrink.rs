//! Greedy reproducer minimization.
//!
//! Given a failing source and a predicate ("does this still trip the same
//! oracle?"), the shrinker repeatedly tries structural reductions on the
//! parsed AST — delete a statement, splice a loop's body over the loop,
//! halve a trip count or an array extent, collapse an `if` to one branch,
//! replace an expression by an operand or the literal `1` — keeping a
//! candidate only when it still reproduces. Candidates are re-rendered
//! through [`defacto_ir::pretty::print_kernel`], so every accepted step is
//! a *parseable* kernel and the final artifact drops straight into
//! `tests/fuzz_corpus/`.
//!
//! Sources that no longer parse (e.g. a parser-crash reproducer) fall
//! back to whole-line deletion, which needs no AST.

use std::collections::BTreeSet;

use defacto_ir::pretty::print_kernel;
use defacto_ir::{parse_kernel, Expr, Kernel, LValue, Name, Stmt};

/// Minimize `source` while `reproduces` holds, spending at most
/// `max_steps` predicate evaluations.
pub fn shrink(source: &str, reproduces: impl Fn(&str) -> bool, max_steps: usize) -> String {
    let mut best = source.to_string();
    let mut steps = 0usize;
    loop {
        let Ok(kernel) = parse_kernel(&best) else {
            return line_shrink(&best, &reproduces, max_steps.saturating_sub(steps));
        };
        let mut improved = false;
        for candidate in candidates(&kernel) {
            if steps >= max_steps {
                return best;
            }
            let text = print_kernel(&candidate);
            // Structural edits strictly shrink the AST even when the text
            // length ties (e.g. `0..32` → `0..16`); only reject growth.
            if text.len() > best.len() || text == best {
                continue;
            }
            steps += 1;
            if reproduces(&text) {
                best = text;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// All single-step reductions of `k`, structurally valid ones only.
fn candidates(k: &Kernel) -> Vec<Kernel> {
    let mut out = Vec::new();
    for body in body_variants(k.body()) {
        if let Ok(nk) = rebuild(k, body) {
            out.push(nk);
        }
    }
    // Halve array extents (kept only when in-bounds accesses survive —
    // out-of-range candidates simply fail the caller's predicate).
    for (ai, a) in k.arrays().iter().enumerate() {
        for (di, &d) in a.dims.iter().enumerate() {
            if d >= 2 {
                let mut arrays = k.arrays().to_vec();
                arrays[ai].dims[di] = d / 2;
                if let Ok(nk) =
                    Kernel::new(k.name(), arrays, k.scalars().to_vec(), k.body().to_vec())
                {
                    out.push(nk);
                }
            }
        }
    }
    out
}

/// Rebuild `k` around a new body, dropping declarations the body no
/// longer references.
fn rebuild(k: &Kernel, body: Vec<Stmt>) -> defacto_ir::Result<Kernel> {
    let used = used_names(&body);
    let arrays = k
        .arrays()
        .iter()
        .filter(|a| used.contains(a.name.as_str()))
        .cloned()
        .collect();
    let scalars = k
        .scalars()
        .iter()
        .filter(|s| used.contains(s.name.as_str()))
        .cloned()
        .collect();
    Kernel::new(k.name(), arrays, scalars, body)
}

fn used_names(body: &[Stmt]) -> BTreeSet<Name> {
    let mut used = BTreeSet::new();
    collect_stmts(body, &mut used);
    used
}

fn collect_stmts(stmts: &[Stmt], used: &mut BTreeSet<Name>) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Scalar(n) => {
                        used.insert(n.clone());
                    }
                    LValue::Array(a) => {
                        used.insert(a.array.clone());
                    }
                }
                collect_expr(rhs, used);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                collect_expr(cond, used);
                collect_stmts(then_body, used);
                collect_stmts(else_body, used);
            }
            Stmt::For(l) => collect_stmts(&l.body, used),
            Stmt::Rotate(regs) => {
                for r in regs {
                    used.insert(r.clone());
                }
            }
        }
    }
}

fn collect_expr(e: &Expr, used: &mut BTreeSet<Name>) {
    match e {
        Expr::Int(_) => {}
        Expr::Scalar(n) => {
            used.insert(n.clone());
        }
        Expr::Load(a) => {
            used.insert(a.array.clone());
        }
        Expr::Unary(_, a) => collect_expr(a, used),
        Expr::Binary(_, a, b) => {
            collect_expr(a, used);
            collect_expr(b, used);
        }
        Expr::Select(c, a, b) => {
            collect_expr(c, used);
            collect_expr(a, used);
            collect_expr(b, used);
        }
    }
}

/// Every one-edit variant of a statement list.
fn body_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        // Delete statement `i`.
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
        match &stmts[i] {
            Stmt::For(l) => {
                // Splice the loop body over the loop.
                let mut v = stmts.to_vec();
                v.splice(i..=i, l.body.clone());
                out.push(v);
                // Halve the trip count.
                let trips = l.trip_count();
                if trips >= 2 {
                    let mut nl = l.clone();
                    nl.upper = nl.lower + (trips / 2) * nl.step;
                    let mut v = stmts.to_vec();
                    v[i] = Stmt::For(nl);
                    out.push(v);
                }
                // Recurse into the body.
                for b in body_variants(&l.body) {
                    let mut nl = l.clone();
                    nl.body = b;
                    let mut v = stmts.to_vec();
                    v[i] = Stmt::For(nl);
                    out.push(v);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // Collapse to one branch.
                for branch in [then_body, else_body] {
                    if !branch.is_empty() {
                        let mut v = stmts.to_vec();
                        v.splice(i..=i, branch.clone());
                        out.push(v);
                    }
                }
                // Recurse into each branch.
                for b in body_variants(then_body) {
                    let mut v = stmts.to_vec();
                    v[i] = Stmt::If {
                        cond: cond.clone(),
                        then_body: b,
                        else_body: else_body.clone(),
                    };
                    out.push(v);
                }
                for b in body_variants(else_body) {
                    let mut v = stmts.to_vec();
                    v[i] = Stmt::If {
                        cond: cond.clone(),
                        then_body: then_body.clone(),
                        else_body: b,
                    };
                    out.push(v);
                }
            }
            Stmt::Assign { lhs, rhs } => {
                for r in expr_variants(rhs) {
                    let mut v = stmts.to_vec();
                    v[i] = Stmt::Assign {
                        lhs: lhs.clone(),
                        rhs: r,
                    };
                    out.push(v);
                }
            }
            Stmt::Rotate(_) => {}
        }
    }
    out
}

/// Reductions of one expression: a literal, or any operand pulled up.
fn expr_variants(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Unary(_, a) => out.push((**a).clone()),
        Expr::Binary(_, a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
        }
        Expr::Select(_, a, b) => {
            out.push((**a).clone());
            out.push((**b).clone());
        }
        _ => {}
    }
    if !matches!(e, Expr::Int(_)) {
        out.push(Expr::Int(1));
    }
    out
}

/// AST-free fallback: drop whole lines while the predicate holds.
fn line_shrink(source: &str, reproduces: impl Fn(&str) -> bool, max_steps: usize) -> String {
    let mut best: Vec<String> = source.lines().map(str::to_string).collect();
    let mut steps = 0usize;
    'outer: loop {
        for i in 0..best.len() {
            if steps >= max_steps {
                break 'outer;
            }
            let mut candidate = best.clone();
            candidate.remove(i);
            let text = candidate.join("\n");
            steps += 1;
            if reproduces(&text) {
                best = candidate;
                continue 'outer;
            }
        }
        break;
    }
    best.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_failing_statement() {
        // Predicate: "still contains a division by an array element" —
        // a stand-in for a real oracle failure tied to one statement.
        let src = "kernel k {
           in A: i32[8];
           in B: i32[8];
           out C: i32[8];
           out D: i32[8];
           for i in 0..8 {
             C[i] = A[i] + B[i];
             D[i] = A[i] / B[i];
           }
         }";
        let reproduces = |s: &str| s.contains('/');
        let small = shrink(src, reproduces, 500);
        assert!(small.contains('/'), "shrunk away the failure:\n{small}");
        assert!(small.len() < src.len());
        assert!(
            !small.contains("C[") || !small.contains("B["),
            "expected the unrelated statement or operand to be removed:\n{small}"
        );
        // The result must itself be a parseable kernel.
        defacto_ir::parse_kernel(&small).unwrap();
    }

    #[test]
    fn shrinking_prunes_unused_declarations() {
        let src = "kernel k {
           in A: i32[4];
           in B: i32[4];
           out C: i32[4];
           for i in 0..4 {
             C[i] = A[i];
             C[i] = C[i] + B[i];
           }
         }";
        // Failure depends only on `A`.
        let reproduces = |s: &str| s.contains("A[");
        let small = shrink(src, reproduces, 500);
        assert!(!small.contains("in B"), "B should be pruned:\n{small}");
        defacto_ir::parse_kernel(&small).unwrap();
    }

    #[test]
    fn unparseable_sources_fall_back_to_line_deletion() {
        let src = "kernel k {\n  in A: i32[4]\n  !!! not a kernel !!!\n  junk\n}";
        let reproduces = |s: &str| s.contains("!!!");
        let small = shrink(src, reproduces, 200);
        assert!(small.contains("!!!"));
        assert!(small.len() < src.len());
    }

    #[test]
    fn trip_counts_and_extents_shrink() {
        let src = "kernel k {
           in A: i32[64];
           out B: i32[64];
           for i in 0..64 {
             B[i] = A[i];
           }
         }";
        // Failure reproduces whenever the kernel still has a loop.
        let reproduces = |s: &str| s.contains("for ");
        let small = shrink(src, reproduces, 2000);
        let k = defacto_ir::parse_kernel(&small).unwrap();
        let nest = k.perfect_nest().unwrap();
        assert!(nest.loops()[0].trip_count() <= 2, "trips: {small}");
    }
}
