//! Constant folding and branch simplification.
//!
//! Peeling substitutes constant iteration values into loop bodies; this
//! pass folds the resulting constant arithmetic and resolves
//! `if (0 == 0)`-style guards so the peeled code is as clean as what a
//! human designer (or the paper's code generator) would write.
//!
//! The by-value folds here are the reference. The prepared path folds
//! the body it owns in place instead (`simplify_expr_in_place`); both
//! apply the one rule table, `fold_rule`.

use crate::error::Result;
use defacto_ir::{BinOp, Expr, Kernel, Loop, Stmt, UnOp};

/// Fold constants and resolve constant branches throughout the kernel.
///
/// # Errors
///
/// Propagates IR validation failures when rebuilding the kernel.
pub fn simplify_kernel(kernel: &Kernel) -> Result<Kernel> {
    Ok(kernel.with_body(simplify_stmts(kernel.body()))?)
}

/// Simplify a statement list, dropping branches with constant-false
/// conditions and loops with zero trip counts.
pub fn simplify_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => out.push(Stmt::Assign {
                lhs: lhs.clone(),
                rhs: simplify_expr(rhs),
            }),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = simplify_expr(cond);
                match cond {
                    Expr::Int(0) => out.extend(simplify_stmts(else_body)),
                    Expr::Int(_) => out.extend(simplify_stmts(then_body)),
                    cond => out.push(Stmt::If {
                        cond,
                        then_body: simplify_stmts(then_body),
                        else_body: simplify_stmts(else_body),
                    }),
                }
            }
            Stmt::For(l) => {
                if l.trip_count() > 0 {
                    out.push(Stmt::For(Loop {
                        var: l.var.clone(),
                        lower: l.lower,
                        upper: l.upper,
                        step: l.step,
                        body: simplify_stmts(&l.body),
                    }));
                }
            }
            Stmt::Rotate(r) => out.push(Stmt::Rotate(r.clone())),
        }
    }
    out
}

/// Fold constant sub-expressions. Affine subscripts are already canonical
/// and are left untouched.
pub fn simplify_expr(e: &Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Scalar(_) | Expr::Load(_) => e.clone(),
        Expr::Unary(op, inner) => fold_unary(*op, simplify_expr(inner)),
        Expr::Binary(op, a, b) => fold_binary(*op, simplify_expr(a), simplify_expr(b)),
        Expr::Select(c, t, f) => {
            let c = simplify_expr(c);
            match c {
                Expr::Int(0) => simplify_expr(f),
                Expr::Int(_) => simplify_expr(t),
                c => Expr::Select(
                    Box::new(c),
                    Box::new(simplify_expr(t)),
                    Box::new(simplify_expr(f)),
                ),
            }
        }
    }
}

/// In-place [`simplify_expr`] for the prepared path: folds the owned
/// tree bottom-up, replacing only the nodes a rule rewrites. Unchanged
/// `Box`es and `ArrayAccess`es are kept, so a tree already in normal form
/// costs a walk and no allocation.
pub(crate) fn simplify_expr_in_place(e: &mut Expr) {
    match e {
        Expr::Int(_) | Expr::Scalar(_) | Expr::Load(_) => {}
        Expr::Unary(_, inner) => {
            simplify_expr_in_place(inner);
            refold_in_place(e);
        }
        Expr::Binary(_, a, b) => {
            simplify_expr_in_place(a);
            simplify_expr_in_place(b);
            refold_in_place(e);
        }
        Expr::Select(c, t, f) => {
            simplify_expr_in_place(c);
            match **c {
                Expr::Int(0) => {
                    simplify_expr_in_place(f);
                    *e = take_expr(f);
                }
                Expr::Int(_) => {
                    simplify_expr_in_place(t);
                    *e = take_expr(t);
                }
                _ => {
                    simplify_expr_in_place(t);
                    simplify_expr_in_place(f);
                }
            }
        }
    }
}

/// Apply the fold rules to a unary or binary node whose operands are
/// already simplified, rewriting it in place — the owned counterpart of
/// [`fold_unary`]/[`fold_binary`]. Other nodes are left as they are.
pub(crate) fn refold_in_place(e: &mut Expr) {
    match e {
        Expr::Unary(op, inner) => {
            if let Some(v) = unary_rule(*op, inner) {
                *e = Expr::Int(v);
            }
        }
        Expr::Binary(op, a, b) => match fold_rule(*op, a, b) {
            Fold::Keep => {}
            Fold::Const(v) => *e = Expr::Int(v),
            Fold::Left => *e = take_expr(a),
            Fold::Right => *e = take_expr(b),
        },
        _ => {}
    }
}

/// Move an operand out of its box, leaving a literal behind; the box is
/// freed with the parent node it belonged to.
fn take_expr(b: &mut Expr) -> Expr {
    std::mem::replace(b, Expr::Int(0))
}

/// The constant a unary node over `inner` folds to, if any.
fn unary_rule(op: UnOp, inner: &Expr) -> Option<i64> {
    match inner {
        Expr::Int(v) => Some(op.apply(*v)),
        _ => None,
    }
}

/// Outcome of the binary fold rules for one node.
enum Fold {
    /// The node folds to this literal.
    Const(i64),
    /// The node folds to its left operand.
    Left,
    /// The node folds to its right operand.
    Right,
    /// No rule applies; the node stays.
    Keep,
}

/// The binary fold rules — constants and algebraic identities — decided
/// by reference over already-simplified operands. This is the only place
/// the rules live: [`fold_binary`] (by value) and [`refold_in_place`]
/// (in place) both apply it.
fn fold_rule(op: BinOp, a: &Expr, b: &Expr) -> Fold {
    match (a, b) {
        (Expr::Int(x), Expr::Int(y)) => Fold::Const(op.apply(*x, *y)),
        // Additive/multiplicative identities.
        (Expr::Int(0), _) if op == BinOp::Add => Fold::Right,
        (_, Expr::Int(0)) if matches!(op, BinOp::Add | BinOp::Sub) => Fold::Left,
        (Expr::Int(1), _) if op == BinOp::Mul => Fold::Right,
        (_, Expr::Int(1)) if op == BinOp::Mul => Fold::Left,
        (Expr::Int(0), _) | (_, Expr::Int(0)) if op == BinOp::Mul => Fold::Const(0),
        // Bitwise-and with a constant zero kills the expression —
        // this is how dead first-iteration guards disappear.
        (Expr::Int(0), _) | (_, Expr::Int(0)) if op == BinOp::And => Fold::Const(0),
        (Expr::Int(0), _) if op == BinOp::Or => Fold::Right,
        (_, Expr::Int(0)) if op == BinOp::Or => Fold::Left,
        _ => Fold::Keep,
    }
}

/// Rebuild a unary node over an already-simplified operand, folding
/// constants. Shared with the fused peel walks so both paths apply the
/// identical rewrite rules.
pub(crate) fn fold_unary(op: UnOp, inner: Expr) -> Expr {
    match unary_rule(op, &inner) {
        Some(v) => Expr::Int(v),
        None => Expr::Unary(op, Box::new(inner)),
    }
}

/// Rebuild a binary node over already-simplified operands through
/// [`fold_rule`]. Shared with the fused peel walks.
pub(crate) fn fold_binary(op: BinOp, a: Expr, b: Expr) -> Expr {
    match fold_rule(op, &a, &b) {
        Fold::Const(v) => Expr::Int(v),
        Fold::Left => a,
        Fold::Right => b,
        Fold::Keep => Expr::bin(op, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::UnOp as U;

    #[test]
    fn folds_constants() {
        let e = Expr::add(Expr::Int(2), Expr::mul(Expr::Int(3), Expr::Int(4)));
        assert_eq!(simplify_expr(&e), Expr::Int(14));
        let n = Expr::Unary(U::Neg, Box::new(Expr::Int(5)));
        assert_eq!(simplify_expr(&n), Expr::Int(-5));
    }

    #[test]
    fn identities() {
        let x = Expr::scalar("x");
        assert_eq!(simplify_expr(&Expr::add(Expr::Int(0), x.clone())), x);
        assert_eq!(simplify_expr(&Expr::mul(x.clone(), Expr::Int(1))), x);
        assert_eq!(
            simplify_expr(&Expr::mul(x.clone(), Expr::Int(0))),
            Expr::Int(0)
        );
        assert_eq!(
            simplify_expr(&Expr::bin(BinOp::Sub, x.clone(), Expr::Int(0))),
            x
        );
    }

    #[test]
    fn resolves_constant_branches() {
        let taken = Stmt::If {
            cond: Expr::bin(BinOp::Eq, Expr::Int(0), Expr::Int(0)),
            then_body: vec![Stmt::assign(defacto_ir::LValue::scalar("x"), Expr::Int(1))],
            else_body: vec![Stmt::assign(defacto_ir::LValue::scalar("x"), Expr::Int(2))],
        };
        let out = simplify_stmts(std::slice::from_ref(&taken));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Stmt::Assign { rhs, .. } => assert_eq!(*rhs, Expr::Int(1)),
            _ => panic!(),
        }
    }

    #[test]
    fn drops_zero_trip_loops() {
        let l = Stmt::For(Loop::new("i", 4, 4, vec![]));
        assert!(simplify_stmts(std::slice::from_ref(&l)).is_empty());
    }

    #[test]
    fn select_with_constant_condition() {
        let e = Expr::Select(
            Box::new(Expr::Int(1)),
            Box::new(Expr::scalar("a")),
            Box::new(Expr::scalar("b")),
        );
        assert_eq!(simplify_expr(&e), Expr::scalar("a"));
    }

    const BIN_OPS: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    const UN_OPS: [UnOp; 3] = [U::Neg, U::Not, U::Abs];

    /// The guard variable of the kill checks; its first value is 0.
    const GUARD_VAR: &str = "j";

    fn load_a() -> Expr {
        Expr::load1("A", defacto_ir::AffineExpr::var(GUARD_VAR))
    }

    fn guard() -> Expr {
        Expr::bin(BinOp::Eq, Expr::scalar(GUARD_VAR), Expr::Int(0))
    }

    /// Leaves chosen to trigger every rule: the 0/1 identities, other
    /// literals, non-constant scalars and loads, and the first-iteration
    /// guard.
    fn operands() -> Vec<Expr> {
        vec![
            Expr::Int(0),
            Expr::Int(1),
            Expr::Int(-3),
            Expr::scalar("x"),
            load_a(),
            guard(),
            Expr::Unary(U::Neg, Box::new(Expr::scalar("x"))),
            Expr::add(Expr::scalar("x"), Expr::Int(0)),
        ]
    }

    /// SplitMix64, so the generated trees are the same on every run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A tree of depth at most `depth` mixing every node kind, every
    /// operator, and `Select`s with constant and non-constant conditions.
    fn tree(rng: &mut Rng, depth: u32) -> Expr {
        if depth == 0 || rng.below(5) == 0 {
            let leaves = operands();
            return leaves[rng.below(leaves.len() as u64) as usize].clone();
        }
        match rng.below(8) {
            0 => Expr::Unary(
                UN_OPS[rng.below(3) as usize],
                Box::new(tree(rng, depth - 1)),
            ),
            1 => {
                let cond = if rng.below(2) == 0 {
                    Expr::Int(rng.below(2) as i64)
                } else {
                    tree(rng, depth - 1)
                };
                Expr::Select(
                    Box::new(cond),
                    Box::new(tree(rng, depth - 1)),
                    Box::new(tree(rng, depth - 1)),
                )
            }
            _ => Expr::bin(
                BIN_OPS[rng.below(16) as usize],
                tree(rng, depth - 1),
                tree(rng, depth - 1),
            ),
        }
    }

    fn assert_in_place_matches(e: &Expr) {
        let mut owned = e.clone();
        simplify_expr_in_place(&mut owned);
        assert_eq!(owned, simplify_expr(e), "simplify of {e:?}");

        let normal = simplify_expr(e);
        let mut killed = normal.clone();
        crate::peel::kill_guards_in_expr(&mut killed, GUARD_VAR, 0);
        let reference = simplify_expr(&crate::peel::kill_in_expr(&normal, GUARD_VAR, 0));
        assert_eq!(killed, reference, "guard kill of {normal:?}");
    }

    #[test]
    fn in_place_fold_matches_every_rule_of_the_reference() {
        for a in operands() {
            for op in UN_OPS {
                assert_in_place_matches(&Expr::Unary(op, Box::new(a.clone())));
            }
            for b in operands() {
                for op in BIN_OPS {
                    assert_in_place_matches(&Expr::bin(op, a.clone(), b.clone()));
                }
                for c in [Expr::Int(0), Expr::Int(1), Expr::scalar("x"), guard()] {
                    assert_in_place_matches(&Expr::Select(
                        Box::new(c),
                        Box::new(a.clone()),
                        Box::new(b.clone()),
                    ));
                }
            }
        }
    }

    #[test]
    fn in_place_fold_matches_the_reference_on_random_trees() {
        let mut rng = Rng(7);
        for _ in 0..4000 {
            assert_in_place_matches(&tree(&mut rng, 5));
        }
    }

    #[test]
    fn in_place_fold_keeps_unchanged_nodes() {
        let mut e = Expr::add(load_a(), Expr::mul(Expr::scalar("x"), Expr::Int(1)));
        let Expr::Binary(_, left, _) = &e else {
            unreachable!()
        };
        let before: *const Expr = &**left;
        simplify_expr_in_place(&mut e);
        assert_eq!(e, Expr::add(load_a(), Expr::scalar("x")));
        let Expr::Binary(_, left, _) = &e else {
            panic!("{e:?}")
        };
        assert!(std::ptr::eq(before, &**left), "the load's box was rebuilt");
    }
}
