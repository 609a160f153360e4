//! The kernel-level lint rules (`DF005`–`DF008`, `DF010`–`DF013`).

use super::{LintContext, LintRule};
use crate::access::AccessTable;
use crate::dependence::{analyze_dependences_with_bounds, DependenceGraph, DistElem};
use crate::legality::LegalitySummary;
use crate::range::Interval;
use crate::uniform::uniform_sets;
use defacto_ir::diag::{codes, Diagnostic};
use defacto_ir::stmt::{collect_accesses, walk_stmts};
use defacto_ir::{ArrayAccess, Expr, LValue, Name, ScalarType, Stmt};
use std::collections::{HashMap, HashSet};

/// All kernel-level rules, in reporting order.
pub fn all() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(OutOfBoundsAccess),
        Box::new(UnusedDecl),
        Box::new(JamBlocked),
        Box::new(WriteWriteConflict),
        Box::new(DegenerateLoop),
        Box::new(InterchangePinned),
        Box::new(PackingInert),
        Box::new(RotateMixedTypes),
    ]
}

/// `DF005`: a subscript's value range, computed from the loop bounds by
/// interval arithmetic, falls outside the declared extent.
///
/// Accesses under an `if` are skipped — the guard may be exactly what
/// keeps them in bounds — while accesses in a `?:` are checked, since the
/// reference interpreter evaluates both arms.
pub struct OutOfBoundsAccess;

impl LintRule for OutOfBoundsAccess {
    fn code(&self) -> &'static str {
        codes::OUT_OF_BOUNDS
    }

    fn name(&self) -> &'static str {
        "out-of-bounds-access"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut env: HashMap<Name, Interval> = HashMap::new();
        check_bounds_stmts(ctx, ctx.kernel.body(), &mut env, &mut diags);
        diags
    }
}

fn check_bounds_stmts(
    ctx: &LintContext<'_>,
    stmts: &[Stmt],
    env: &mut HashMap<Name, Interval>,
    diags: &mut Vec<Diagnostic>,
) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if let LValue::Array(a) = lhs {
                    check_bounds_access(ctx, a, env, diags);
                }
                check_bounds_expr(ctx, rhs, env, diags);
            }
            Stmt::If { cond, .. } => {
                // The condition always evaluates; the guarded bodies are
                // skipped (see rule docs).
                check_bounds_expr(ctx, cond, env, diags);
            }
            Stmt::For(l) => {
                if l.trip_count() > 0 {
                    let max = l.lower + (l.trip_count() - 1) * l.step;
                    env.insert(l.var.clone(), Interval::new(l.lower, max));
                    check_bounds_stmts(ctx, &l.body, env, diags);
                    env.remove(&l.var);
                }
            }
            Stmt::Rotate(_) => {}
        }
    }
}

fn check_bounds_expr(
    ctx: &LintContext<'_>,
    e: &Expr,
    env: &HashMap<Name, Interval>,
    diags: &mut Vec<Diagnostic>,
) {
    match e {
        Expr::Int(_) | Expr::Scalar(_) => {}
        Expr::Load(a) => check_bounds_access(ctx, a, env, diags),
        Expr::Unary(_, e) => check_bounds_expr(ctx, e, env, diags),
        Expr::Binary(_, a, b) => {
            check_bounds_expr(ctx, a, env, diags);
            check_bounds_expr(ctx, b, env, diags);
        }
        Expr::Select(c, t, f) => {
            check_bounds_expr(ctx, c, env, diags);
            check_bounds_expr(ctx, t, env, diags);
            check_bounds_expr(ctx, f, env, diags);
        }
    }
}

fn check_bounds_access(
    ctx: &LintContext<'_>,
    access: &ArrayAccess,
    env: &HashMap<Name, Interval>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(decl) = ctx.kernel.array(&access.array) else {
        return; // undeclared arrays are the validator's problem
    };
    for (d, idx) in access.indices.iter().enumerate() {
        let Some(&extent) = decl.dims.get(d) else {
            continue;
        };
        let mut range = Interval::point(idx.constant_term());
        let mut symbolic = false;
        for v in idx.vars() {
            match env.get(v) {
                Some(&iv) => range = range.add(iv.mul(Interval::point(idx.coeff(v)))),
                None => {
                    symbolic = true;
                    break;
                }
            }
        }
        if symbolic {
            continue;
        }
        if range.lo < 0 || range.hi >= extent as i64 {
            diags.push(
                Diagnostic::error(
                    codes::OUT_OF_BOUNDS,
                    format!(
                        "subscript {d} of `{}` spans {}..={} over the loop bounds, \
                         outside the declared extent {extent}",
                        access.array, range.lo, range.hi
                    ),
                )
                .with_span_opt(ctx.spans.and_then(|s| s.access(access)))
                .with_help(format!(
                    "shrink the loop bounds or grow `{}` to at least {} elements",
                    access.array,
                    range.hi + 1
                )),
            );
        }
    }
}

/// `DF006`: a declared array or scalar is never referenced by the body.
pub struct UnusedDecl;

impl LintRule for UnusedDecl {
    fn code(&self) -> &'static str {
        codes::UNUSED_DECL
    }

    fn name(&self) -> &'static str {
        "unused-declaration"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let used_arrays: HashSet<Name> = collect_accesses(ctx.kernel.body())
            .into_iter()
            .map(|(a, _)| a.array)
            .collect();
        for a in ctx.kernel.arrays() {
            if !used_arrays.contains(a.name.as_str()) {
                diags.push(
                    Diagnostic::warning(
                        codes::UNUSED_DECL,
                        format!("array `{}` is declared but never accessed", a.name),
                    )
                    .with_span_opt(ctx.spans.and_then(|s| s.decl(&a.name)))
                    .with_help("remove the declaration or reference the array"),
                );
            }
        }
        let mut used_scalars = HashSet::new();
        collect_scalar_uses(ctx.kernel.body(), &mut used_scalars);
        for s in ctx.kernel.scalars() {
            if !used_scalars.contains(s.name.as_str()) {
                diags.push(
                    Diagnostic::warning(
                        codes::UNUSED_DECL,
                        format!("scalar `{}` is declared but never used", s.name),
                    )
                    .with_span_opt(ctx.spans.and_then(|sp| sp.decl(&s.name)))
                    .with_help("remove the declaration or reference the scalar"),
                );
            }
        }
        diags
    }
}

fn collect_scalar_uses(stmts: &[Stmt], out: &mut HashSet<Name>) {
    fn expr(e: &Expr, out: &mut HashSet<Name>) {
        match e {
            Expr::Int(_) | Expr::Load(_) => {}
            Expr::Scalar(n) => {
                out.insert(n.clone());
            }
            Expr::Unary(_, e) => expr(e, out),
            Expr::Binary(_, a, b) => {
                expr(a, out);
                expr(b, out);
            }
            Expr::Select(c, t, f) => {
                expr(c, out);
                expr(t, out);
                expr(f, out);
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if let LValue::Scalar(n) = lhs {
                    out.insert(n.clone());
                }
                expr(rhs, out);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr(cond, out);
                collect_scalar_uses(then_body, out);
                collect_scalar_uses(else_body, out);
            }
            Stmt::For(l) => collect_scalar_uses(&l.body, out),
            Stmt::Rotate(regs) => out.extend(regs.iter().cloned()),
        }
    }
}

/// `DF007`: the dependence structure blocks unroll-and-jam at *every*
/// level that would jam inner loops, so the search can only unroll the
/// innermost loop and most of the design space collapses.
pub struct JamBlocked;

impl LintRule for JamBlocked {
    fn code(&self) -> &'static str {
        codes::JAM_BLOCKED
    }

    fn name(&self) -> &'static str {
        "jam-blocked-everywhere"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(nest) = ctx.kernel.perfect_nest() else {
            return Vec::new();
        };
        let depth = nest.depth();
        if depth < 2 {
            return Vec::new(); // nothing to jam in a 1-deep nest
        }
        let table = AccessTable::from_stmts(nest.innermost_body());
        let vars = nest.vars();
        let bounds: Vec<(i64, i64)> = nest
            .loops()
            .iter()
            .map(|l| (l.lower, l.upper - 1))
            .collect();
        let deps = analyze_dependences_with_bounds(&table, &vars, &bounds);
        // A level is jammable when unrolling it (alone, by 2) keeps all
        // dependences legal; mirror `defacto_xform::unroll_is_legal`.
        let blocked: Vec<usize> = (0..depth - 1)
            .filter(|&l| nest.loop_at(l).trip_count() >= 2 && jam_violation(&deps, l).is_some())
            .collect();
        let jammable = (0..depth - 1)
            .any(|l| nest.loop_at(l).trip_count() >= 2 && jam_violation(&deps, l).is_none());
        if jammable || blocked.is_empty() {
            return Vec::new();
        }
        let (array, _) = jam_violation(&deps, blocked[0]).expect("blocked level has a violation");
        vec![Diagnostic::warning(
            codes::JAM_BLOCKED,
            format!(
                "dependences on `{array}` block unroll-and-jam at every loop level; \
                 only innermost unrolling remains"
            ),
        )
        .with_span_opt(ctx.spans.and_then(|s| s.loop_header(&nest.loop_at(0).var)))
        .with_help("restructure the recurrence (e.g. skew or interchange the nest) to free a loop")]
    }
}

/// The first dependence that makes jamming illegal after unrolling level
/// `l` by 2, if any: carried at `l` within the unroll window with a
/// negative or unknown component at a deeper level.
fn jam_violation(deps: &DependenceGraph, l: usize) -> Option<(String, usize)> {
    for dep in deps.deps().iter().filter(|d| d.kind.constrains()) {
        if !dep.may_be_carried_by(l) {
            continue;
        }
        let within_window = match dep.distance[l] {
            DistElem::Exact(k) => k.abs() < 2,
            DistElem::Any | DistElem::Unknown => true,
        };
        if !within_window {
            continue;
        }
        for deeper in l + 1..dep.distance.len() {
            match dep.distance[deeper] {
                DistElem::Exact(k) if k < 0 => return Some((dep.array.clone(), deeper)),
                DistElem::Unknown => return Some((dep.array.clone(), deeper)),
                _ => {}
            }
        }
    }
    None
}

/// `DF008`: two or more distinct uniformly generated write sets target
/// one array, so redundant-write elimination cannot collapse the array's
/// stores and scalar replacement keeps all of them in memory traffic.
pub struct WriteWriteConflict;

impl LintRule for WriteWriteConflict {
    fn code(&self) -> &'static str {
        codes::WRITE_WRITE_CONFLICT
    }

    fn name(&self) -> &'static str {
        "write-write-conflict"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(nest) = ctx.kernel.perfect_nest() else {
            return Vec::new();
        };
        let table = AccessTable::from_stmts(nest.innermost_body());
        let vars = nest.vars();
        let sets = uniform_sets(&table, &vars);
        let mut write_sets_per_array: HashMap<&str, usize> = HashMap::new();
        for set in sets.iter().filter(|s| s.is_write) {
            *write_sets_per_array.entry(set.array.as_str()).or_default() += 1;
        }
        let mut conflicted: Vec<&str> = write_sets_per_array
            .iter()
            .filter(|(_, &n)| n >= 2)
            .map(|(&a, _)| a)
            .collect();
        conflicted.sort_unstable();
        conflicted
            .into_iter()
            .map(|array| {
                let span = ctx.spans.and_then(|s| {
                    collect_accesses(nest.innermost_body())
                        .iter()
                        .find(|(a, w)| *w && a.array == array)
                        .and_then(|(a, _)| s.access(a))
                });
                Diagnostic::warning(
                    codes::WRITE_WRITE_CONFLICT,
                    format!(
                        "array `{array}` is written through multiple distinct references; \
                         redundant-write elimination cannot collapse its stores"
                    ),
                )
                .with_span_opt(span)
                .with_help("write each array element through a single reference shape")
            })
            .collect()
    }
}

/// `DF010`: a loop whose bounds give a zero trip count (reversed or
/// empty range). The interpreter runs such a loop zero times and the
/// estimator prices it as free, so the two *agree* — but the design
/// space built over its trip count collapses to nothing and every
/// downstream estimate silently excludes the loop's body. Validation
/// already rejects non-positive steps; this rule closes the
/// reversed-bound half of the family.
pub struct DegenerateLoop;

impl LintRule for DegenerateLoop {
    fn code(&self) -> &'static str {
        codes::DEGENERATE_LOOP
    }

    fn name(&self) -> &'static str {
        "degenerate-loop"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut stack: Vec<&Stmt> = ctx.kernel.body().iter().collect();
        while let Some(s) = stack.pop() {
            match s {
                Stmt::For(l) => {
                    if l.trip_count() == 0 {
                        diags.push(
                            Diagnostic::error(
                                codes::DEGENERATE_LOOP,
                                format!(
                                    "loop `{}` over {}..{} step {} never executes",
                                    l.var, l.lower, l.upper, l.step
                                ),
                            )
                            .with_span_opt(ctx.spans.and_then(|sp| sp.loop_header(&l.var)))
                            .with_help(
                                "make the upper bound exceed the lower bound, or delete the loop",
                            ),
                        );
                    }
                    stack.extend(l.body.iter());
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    stack.extend(then_body.iter());
                    stack.extend(else_body.iter());
                }
                Stmt::Assign { .. } | Stmt::Rotate(_) => {}
            }
        }
        diags.sort_by_key(|d| d.primary.map(|s| s.start));
        diags
    }
}

/// `DF011`: the dependence structure of a multi-loop nest admits only
/// the identity permutation, so asking the joint design space for an
/// interchange axis enumerates nothing beyond the original order.
pub struct InterchangePinned;

impl LintRule for InterchangePinned {
    fn code(&self) -> &'static str {
        codes::INTERCHANGE_PINNED
    }

    fn name(&self) -> &'static str {
        "interchange-pinned"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(summary) = LegalitySummary::analyze(ctx.kernel) else {
            return Vec::new();
        };
        if summary.depth() < 2 || !summary.identity_only() {
            return Vec::new();
        }
        let carrier = summary
            .distance_vectors()
            .iter()
            .map(|d| d.array.as_str())
            .next()
            .unwrap_or("?");
        let outer = ctx
            .kernel
            .perfect_nest()
            .map(|n| n.loop_at(0).var.to_string())
            .unwrap_or_default();
        vec![Diagnostic::warning(
            codes::INTERCHANGE_PINNED,
            format!(
                "dependences on `{carrier}` pin the {}-deep nest to its original loop \
                 order; only the identity permutation is legal",
                summary.depth()
            ),
        )
        .with_span_opt(ctx.spans.and_then(|s| s.loop_header(&outer)))
        .with_help(
            "drop the interchange axis for this kernel, or skew the recurrence to free \
             a loop order",
        )]
    }
}

/// `DF012`: an array's elements are narrower than the memory word, so
/// packing looks attractive, yet its last-dimension access stride (or
/// the absence of any unit-direction walk) means no two accesses can
/// ever share a word — packing is a provable no-op there.
///
/// The check uses the 32-bit memory word both shipped board models
/// expose; a custom word width changes profitability, not the stride
/// geometry this rule reports.
pub struct PackingInert;

/// The memory word width both shipped board models use.
const LINT_WORD_BITS: u32 = 32;

impl LintRule for PackingInert {
    fn code(&self) -> &'static str {
        codes::PACKING_INERT
    }

    fn name(&self) -> &'static str {
        "packing-inert"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(summary) = LegalitySummary::analyze(ctx.kernel) else {
            return Vec::new();
        };
        summary
            .packing()
            .iter()
            .filter(|p| {
                p.elem_bits > 0 && p.elem_bits < LINT_WORD_BITS && !p.effective(LINT_WORD_BITS)
            })
            .map(|p| {
                let per_word = LINT_WORD_BITS / p.elem_bits;
                let reason = match p.min_stride {
                    Some(s) => format!(
                        "its last dimension is walked at stride {s}, so consecutive \
                         accesses land {s} elements apart and never share a \
                         {per_word}-element word"
                    ),
                    None => "no access walks its last dimension, so packed neighbours \
                             are never requested together"
                        .to_string(),
                };
                let span = ctx.spans.and_then(|s| s.decl(&p.array));
                Diagnostic::warning(
                    codes::PACKING_INERT,
                    format!(
                        "packing `{}` ({}-bit elements in a {LINT_WORD_BITS}-bit word) \
                         is a provable no-op: {reason}",
                        p.array, p.elem_bits
                    ),
                )
                .with_span_opt(span)
                .with_help(
                    "drop the packing axis for this array, or restructure the access to \
                     walk the last dimension with unit stride",
                )
            })
            .collect()
    }
}

/// `DF013`: a user `rotate` moves values between registers of different
/// declared types. Each move would wrap at its target's width, so the
/// chain no longer rotates the values it holds; the IR verifier rejects
/// such a chain (`DF103`) only after loop normalization, and this rule
/// reports it at the front end, at the first register whose type
/// differs from the chain's first.
pub struct RotateMixedTypes;

impl LintRule for RotateMixedTypes {
    fn code(&self) -> &'static str {
        codes::ROTATE_MIXED_TYPES
    }

    fn name(&self) -> &'static str {
        "rotate-mixed-types"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        walk_stmts(ctx.kernel.body(), &mut |s| {
            let Stmt::Rotate(regs) = s else {
                return;
            };
            let typed: Vec<(&Name, ScalarType)> = regs
                .iter()
                .filter_map(|r| ctx.kernel.scalar(r).map(|d| (r, d.ty)))
                .collect();
            let Some(&(first, ty)) = typed.first() else {
                return;
            };
            let Some(&(other, other_ty)) = typed.iter().find(|(_, t)| *t != ty) else {
                return;
            };
            diags.push(
                Diagnostic::error(
                    codes::ROTATE_MIXED_TYPES,
                    format!(
                        "rotate chain ({}) mixes element types: `{first}` is {ty} but \
                         `{other}` is {other_ty}",
                        regs.join(", ")
                    ),
                )
                .with_span_opt(ctx.spans.and_then(|sp| sp.decl(other)))
                .with_help("declare every register of a rotate chain with one type"),
            );
        });
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_source;

    #[test]
    fn mixed_type_rotate_is_an_error_at_the_differing_register() {
        let src = "kernel m { in A: u16[8]; out B: u16[8]; var r0: u16; var r1: i8;
               for i in 0..8 { r0 = A[i]; B[i] = r1; rotate(r0, r1); } }";
        let report = lint_source(src);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::ROTATE_MIXED_TYPES)
            .expect("DF013 reported");
        assert!(d.is_error());
        assert!(d.message.contains("`r1` is i8"), "{}", d.message);
        let span = d.primary.expect("points at a declaration");
        assert!(src[span.start..span.end].contains("r1"));
        // One type throughout: nothing to report.
        let same = lint_source(&src.replace("var r1: i8", "var r1: u16"));
        assert!(!same
            .diagnostics
            .iter()
            .any(|d| d.code == codes::ROTATE_MIXED_TYPES));
    }

    #[test]
    fn out_of_bounds_constant_access_is_reported() {
        let src = "kernel oob { in A: i32[16]; out B: i32[16];
               for i in 0..16 { B[i] = A[i + 4]; } }";
        let report = lint_source(src);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::OUT_OF_BOUNDS)
            .expect("DF005 reported");
        assert!(d.is_error());
        assert!(d.message.contains("4..=19"), "{}", d.message);
        assert!(d.primary.is_some());
    }

    #[test]
    fn negative_subscript_is_reported() {
        let report = lint_source(
            "kernel neg { in A: i32[16]; out B: i32[16];
               for i in 0..16 { B[i] = A[i - 1]; } }",
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::OUT_OF_BOUNDS));
    }

    #[test]
    fn guarded_access_is_not_reported() {
        // The `if` keeps the access in bounds; the rule must stay silent.
        let report = lint_source(
            "kernel g { in A: i32[16]; out B: i32[16];
               for i in 0..16 { if (i > 0) { B[i] = A[i - 1]; } } }",
        );
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::OUT_OF_BOUNDS),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn stencil_with_shifted_bounds_is_clean() {
        // jac-style bounds: 1..33 keeps i-1 and i+1 inside [0, 34).
        let report = lint_source(
            "kernel j { in A: i16[34]; out B: i16[34];
               for i in 1..33 { B[i] = (A[i - 1] + A[i + 1]) / 2; } }",
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unused_array_and_scalar_are_warned() {
        let report = lint_source(
            "kernel u { in A: i32[4]; in T: i32[4]; out B: i32[4]; var t: i32;
               for i in 0..4 { B[i] = A[i]; } }",
        );
        let unused: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::UNUSED_DECL)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unused.len(), 2, "{unused:?}");
        assert!(unused.iter().any(|m| m.contains("`T`")));
        assert!(unused.iter().any(|m| m.contains("`t`")));
        assert!(!report.has_errors(), "DF006 is a warning");
    }

    #[test]
    fn wavefront_recurrence_blocks_all_jamming() {
        let report = lint_source(
            "kernel wf { inout A: i32[9][9];
               for i in 0..8 { for j in 1..8 {
                 A[i][j] = A[i + 1][j - 1] + 1; } } }",
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::JAM_BLOCKED),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn fir_jams_fine() {
        let report = lint_source(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        );
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::JAM_BLOCKED));
    }

    #[test]
    fn distinct_write_references_conflict() {
        let report = lint_source(
            "kernel ww { out A: i32[66]; in B: i32[66];
               for i in 0..32 { A[i] = B[i]; A[2*i] = B[i + 1]; } }",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::WRITE_WRITE_CONFLICT)
            .expect("DF008 reported");
        assert!(!d.is_error(), "DF008 is a warning");
        assert!(d.message.contains("`A`"));
    }

    #[test]
    fn pinned_interchange_is_reported() {
        // The (+1, -1) recurrence forbids swapping i and j.
        let report = lint_source(
            "kernel wf { inout A: i32[9][9];
               for i in 0..8 { for j in 1..8 {
                 A[i][j] = A[i + 1][j - 1] + 1; } } }",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::INTERCHANGE_PINNED)
            .expect("DF011 reported");
        assert!(!d.is_error(), "DF011 is a warning");
        assert!(d.message.contains("identity permutation"), "{}", d.message);
    }

    #[test]
    fn interchangeable_nest_is_not_pinned() {
        let report = lint_source(
            "kernel mm { in A: i32[8][8]; in B: i32[8][8]; inout C: i32[8][8];
               for i in 0..8 { for j in 0..8 {
                 C[i][j] = C[i][j] + A[i][j] * B[j][i]; } } }",
        );
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::INTERCHANGE_PINNED),
            "{:?}",
            report.diagnostics
        );
        // A 1-deep nest has nothing to interchange; the rule stays silent.
        let report = lint_source(
            "kernel one { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i]; } }",
        );
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::INTERCHANGE_PINNED));
    }

    #[test]
    fn strided_narrow_access_makes_packing_inert() {
        // 8-bit elements, 4 per 32-bit word, but stride 4 means each
        // access opens a fresh word.
        let report = lint_source(
            "kernel p { in A: u8[64]; out B: i32[16];
               for i in 0..16 { B[i] = A[i * 4]; } }",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::PACKING_INERT)
            .expect("DF012 reported");
        assert!(!d.is_error(), "DF012 is a warning");
        assert!(d.message.contains("`A`"), "{}", d.message);
        assert!(d.message.contains("stride 4"), "{}", d.message);
    }

    #[test]
    fn unit_stride_narrow_access_packs_fine() {
        let report = lint_source(
            "kernel p { in A: u8[16]; out B: i32[16];
               for i in 0..16 { B[i] = A[i]; } }",
        );
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::PACKING_INERT),
            "{:?}",
            report.diagnostics
        );
        // Full-width elements have nothing to pack; the rule stays silent.
        let report = lint_source(
            "kernel w { in A: i32[64]; out B: i32[16];
               for i in 0..16 { B[i] = A[i * 4]; } }",
        );
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::PACKING_INERT));
    }

    #[test]
    fn single_write_reference_is_clean() {
        let report = lint_source(
            "kernel sw { out A: i32[32]; in B: i32[32];
               for i in 0..32 { A[i] = B[i] * 2; } }",
        );
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == codes::WRITE_WRITE_CONFLICT));
    }
}
