//! Kernel lint: front-end legality and profitability checks.
//!
//! The lint driver runs two kinds of checks and reports everything as
//! structured [`Diagnostic`]s with stable `DF0xx` codes:
//!
//! - **front-end mapping** — parse and validation failures from
//!   [`defacto_ir`] become `DF001`–`DF004` (and `DF1xx` for structural
//!   validation), with byte-offset spans into the source;
//! - **rules** — checks over a successfully parsed kernel
//!   ([`rules::all`]): out-of-bounds constant accesses (`DF005`), unused
//!   declarations (`DF006`), dependence structure that blocks every jam
//!   (`DF007`), write-write conflicts that defeat scalar replacement's
//!   redundant-write elimination (`DF008`), degenerate loops (`DF010`),
//!   pinned interchange (`DF011`), inert packing (`DF012`) and rotate
//!   chains of mixed register types (`DF013`).
//!
//! The capacity rule `DF009` needs synthesis estimates and therefore
//! lives upstack in the `defacto` core crate, which composes it with this
//! driver.

pub mod rules;

use defacto_ir::diag::{codes, Diagnostic};
use defacto_ir::span::{Span, SpanMap};
use defacto_ir::{parse_kernel_with_spans, IrError, Kernel};
use std::collections::BTreeMap;

/// Everything a lint rule may inspect.
pub struct LintContext<'a> {
    /// The parsed kernel.
    pub kernel: &'a Kernel,
    /// Source spans, when the kernel came from text.
    pub spans: Option<&'a SpanMap>,
    /// The source text itself, for excerpt rendering.
    pub source: Option<&'a str>,
}

/// One lint rule: a stable code plus a check over the kernel.
pub trait LintRule {
    /// The `DF0xx` code this rule reports.
    fn code(&self) -> &'static str;
    /// Short kebab-case rule name (used in reports).
    fn name(&self) -> &'static str;
    /// Run the rule, returning any diagnostics.
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
}

/// The outcome of linting one kernel.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All diagnostics, in rule order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of diagnostics per code, for suite-level reporting.
    pub rule_hits: BTreeMap<String, usize>,
}

impl LintReport {
    /// Record one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        *self.rule_hits.entry(d.code.to_string()).or_default() += 1;
        self.diagnostics.push(d);
    }

    /// Whether any diagnostic is an error (lint should fail).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Fold another report's diagnostics into this one.
    pub fn merge(&mut self, other: LintReport) {
        for d in other.diagnostics {
            self.push(d);
        }
    }
}

/// Lint kernel source text.
///
/// A kernel that fails to parse or validate yields exactly one diagnostic
/// describing the failure; a parsed kernel is run through every rule in
/// [`rules::all`].
pub fn lint_source(src: &str) -> LintReport {
    let mut report = LintReport::default();
    match parse_kernel_with_spans(src) {
        Err(err) => report.push(diagnostic_from_ir_error(&err, Some(src))),
        Ok((kernel, spans)) => {
            let ctx = LintContext {
                kernel: &kernel,
                spans: Some(&spans),
                source: Some(src),
            };
            run_rules(&ctx, &mut report);
        }
    }
    report
}

/// Lint an already-parsed kernel (no source text, so no spans).
pub fn lint_kernel(kernel: &Kernel) -> LintReport {
    let mut report = LintReport::default();
    let ctx = LintContext {
        kernel,
        spans: None,
        source: None,
    };
    run_rules(&ctx, &mut report);
    report
}

fn run_rules(ctx: &LintContext<'_>, report: &mut LintReport) {
    for rule in rules::all() {
        for d in rule.check(ctx) {
            report.push(d);
        }
    }
}

/// Map an [`IrError`] from parsing or validation onto a coded diagnostic.
///
/// Parse-stage failures carry positions, so the diagnostic points into
/// `src` when it is available; targeted parser messages (symbolic loop
/// bounds, C-style control-flow keywords) get their dedicated codes.
pub fn diagnostic_from_ir_error(err: &IrError, src: Option<&str>) -> Diagnostic {
    match err {
        IrError::Parse { line, col, msg } => {
            let code = if msg.starts_with("unsupported control flow") {
                codes::UNSUPPORTED_CONTROL_FLOW
            } else if msg.contains("must be a compile-time constant") {
                codes::NON_CONSTANT_BOUND
            } else {
                codes::SYNTAX
            };
            let mut d = Diagnostic::error(code, msg.clone());
            if let Some(src) = src {
                d = d.with_span(Span::from_line_col(src, *line, *col, backticked_len(msg)));
            }
            if code == codes::NON_CONSTANT_BOUND {
                d = d.with_help("loop bounds must be integer literals; specialize the kernel");
            }
            d
        }
        IrError::NonAffine { expr, span } => Diagnostic::error(
            codes::NON_AFFINE,
            format!("subscript expression is not affine: {expr}"),
        )
        .with_span(*span)
        .with_help("subscripts must be sums of constant-coefficient loop variables"),
        IrError::Undeclared(n) => {
            Diagnostic::error(codes::V_UNDECLARED, format!("use of undeclared name `{n}`"))
        }
        IrError::Redeclared(n) => Diagnostic::error(
            codes::V_DUPLICATE_DECL,
            format!("name `{n}` declared more than once"),
        ),
        IrError::DimensionMismatch {
            array,
            declared,
            used,
        } => Diagnostic::error(
            codes::V_ARITY,
            format!("array `{array}` has {declared} dimension(s) but was accessed with {used}"),
        ),
        IrError::OutOfBounds { array, index, len } => Diagnostic::error(
            codes::OUT_OF_BOUNDS,
            format!("access to `{array}` out of bounds: element {index} of {len}"),
        ),
        IrError::MalformedLoop(m) => {
            Diagnostic::error(codes::V_LOOP_FORM, format!("malformed loop: {m}"))
        }
        IrError::Invalid(m) => Diagnostic::error(codes::SYNTAX, format!("invalid kernel: {m}")),
    }
    .with_span_opt(match err {
        IrError::Undeclared(n) | IrError::Redeclared(n) => src.and_then(|s| find_name_span(s, n)),
        _ => None,
    })
}

/// Length of the first `` `…` `` quotation in a message, for sizing the
/// caret under the offending token; 1 when there is none.
fn backticked_len(msg: &str) -> usize {
    let mut parts = msg.split('`');
    parts.next();
    parts.next().map_or(1, str::len)
}

/// Best-effort span for a name in source text (used for validation errors
/// that do not carry positions): the first whole-word occurrence.
fn find_name_span(src: &str, name: &str) -> Option<Span> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = src[from..].find(name) {
        let at = from + rel;
        let before_ok = at == 0 || !src[..at].chars().next_back().is_some_and(is_word);
        let after_ok = !src[at + name.len()..].chars().next().is_some_and(is_word);
        if before_ok && after_ok {
            let line = src[..at].matches('\n').count() + 1;
            let col = src[..at]
                .rsplit('\n')
                .next()
                .map_or(0, |l| l.chars().count())
                + 1;
            return Some(Span::new(at, at + name.len(), line, col));
        }
        from = at + name.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_failure_maps_to_df001_with_span() {
        let report = lint_source("kernel x {\n  in A i32[4];\n}");
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::SYNTAX);
        assert!(d.is_error());
        assert_eq!(d.primary.unwrap().line, 2);
        assert_eq!(report.rule_hits.get("DF001"), Some(&1));
    }

    #[test]
    fn non_affine_maps_to_df002_with_exact_span() {
        let src = "kernel x { in A: i32[16]; out B: i32[4];
               for i in 0..4 { B[i] = A[i * i]; } }";
        let report = lint_source(src);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::NON_AFFINE);
        let s = d.primary.unwrap();
        assert_eq!(&src[s.start..s.end], "i * i");
    }

    #[test]
    fn symbolic_bound_maps_to_df003() {
        let report = lint_source("kernel x { in A: i32[4]; for i in 0..n { A[i] = A[i]; } }");
        assert_eq!(report.diagnostics[0].code, codes::NON_CONSTANT_BOUND);
        assert!(report.diagnostics[0].primary.is_some());
    }

    #[test]
    fn control_flow_keyword_maps_to_df004() {
        let report = lint_source("kernel x { in A: i32[4]; for i in 0..4 { while (1) { } } }");
        assert_eq!(report.diagnostics[0].code, codes::UNSUPPORTED_CONTROL_FLOW);
        assert!(report.diagnostics[0].primary.is_some());
    }

    #[test]
    fn duplicate_decl_maps_to_df105() {
        let report =
            lint_source("kernel x { in A: i32[4]; in A: i32[8]; for i in 0..4 { A[i] = A[i]; } }");
        assert_eq!(report.diagnostics[0].code, codes::V_DUPLICATE_DECL);
    }

    #[test]
    fn clean_kernel_reports_nothing() {
        let report = lint_source(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(!report.has_errors());
    }

    #[test]
    fn backticked_len_measures_quoted_token() {
        assert_eq!(backticked_len("found `abc`"), 3);
        assert_eq!(backticked_len("no quote"), 1);
    }

    #[test]
    fn find_name_span_matches_whole_words() {
        let src = "kernel AB { in A: i32[4]; }";
        let s = find_name_span(src, "A").unwrap();
        assert_eq!(&src[s.start..s.end], "A");
        assert_eq!(s.start, 15); // the declaration, not the prefix of `AB`
    }
}
