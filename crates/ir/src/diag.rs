//! Structured diagnostics with stable `DF`-prefixed codes.
//!
//! Every user-facing legality or invariant failure in the system is
//! reported as a [`Diagnostic`]: a stable code, a severity, a message, an
//! optional primary [`Span`] into the kernel source, secondary notes and an
//! optional suggested fix. Diagnostics render both for terminals (with a
//! caret excerpt when the source text is available) and as JSON for
//! tooling.
//!
//! Code ranges: `DF001`–`DF0xx` are lint rules (front-end legality and
//! profitability checks), `DF1xx` are IR-verifier invariants checked
//! between transformation passes.

use crate::span::Span;
use std::fmt;

/// Stable diagnostic codes. The numbers are part of the tool's contract:
/// tests and CI pin them, so codes are never reused or renumbered.
pub mod codes {
    /// Lexical or syntactic error in the kernel DSL.
    pub const SYNTAX: &str = "DF001";
    /// Subscript expression is not affine in the loop variables.
    pub const NON_AFFINE: &str = "DF002";
    /// Loop bound is not a compile-time constant.
    pub const NON_CONSTANT_BOUND: &str = "DF003";
    /// Control flow outside `for`/`if`/assignment (e.g. `while`, `break`).
    pub const UNSUPPORTED_CONTROL_FLOW: &str = "DF004";
    /// A constant-analyzable access falls outside the declared extent.
    pub const OUT_OF_BOUNDS: &str = "DF005";
    /// Declared array or scalar is never used.
    pub const UNUSED_DECL: &str = "DF006";
    /// Dependences block unroll-and-jam at every loop level.
    pub const JAM_BLOCKED: &str = "DF007";
    /// Distinct write references to one array defeat redundant-write
    /// elimination in scalar replacement.
    pub const WRITE_WRITE_CONFLICT: &str = "DF008";
    /// Every member of the saturation set exceeds the device capacity.
    pub const CAPACITY_INFEASIBLE: &str = "DF009";
    /// A loop can never execute: reversed bounds or an empty range give a
    /// zero trip count, so the estimator would price it as free while the
    /// design space around it collapses.
    pub const DEGENERATE_LOOP: &str = "DF010";
    /// Dependences restrict a multi-loop nest to the identity
    /// permutation, so an interchange axis adds nothing to the space.
    pub const INTERCHANGE_PINNED: &str = "DF011";
    /// Packing an array is a provable no-op or illegal: its element
    /// width already fills the memory word, or its access stride defeats
    /// word-packing alignment.
    pub const PACKING_INERT: &str = "DF012";
    /// A `rotate` chain names registers of different declared types: the
    /// front-end form of the verifier's `DF103`.
    pub const ROTATE_MIXED_TYPES: &str = "DF013";
    /// Verifier: use of an undeclared or never-written name.
    pub const V_UNDECLARED: &str = "DF101";
    /// Verifier: subscript arity differs from the declared dimensions.
    pub const V_ARITY: &str = "DF102";
    /// Verifier: inconsistent scalar type widths (e.g. mixed-type rotate).
    pub const V_TYPE_WIDTH: &str = "DF103";
    /// Verifier: malformed loop (bad step/bounds, shadowed loop variable).
    pub const V_LOOP_FORM: &str = "DF104";
    /// Verifier: a name is declared more than once.
    pub const V_DUPLICATE_DECL: &str = "DF105";
}

/// How serious a diagnostic is. Errors make `defacto lint` exit non-zero
/// and abort exploration; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the kernel is legal but a transformation or the search
    /// will be less effective than it could be.
    Warning,
    /// The kernel violates a precondition of the system.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A secondary message attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// The note text.
    pub message: String,
    /// Where it points, if anywhere.
    pub span: Option<Span>,
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The main message, lowercase-first like compiler diagnostics.
    pub message: String,
    /// The source location the diagnostic points at, when known.
    pub primary: Option<Span>,
    /// Secondary notes (related locations, explanations).
    pub notes: Vec<Note>,
    /// A suggested fix, when one exists.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            primary: None,
            notes: Vec::new(),
            help: None,
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attach the primary span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.primary = Some(span);
        self
    }

    /// Attach an optional primary span (no-op on `None`).
    pub fn with_span_opt(mut self, span: Option<Span>) -> Diagnostic {
        if span.is_some() {
            self.primary = span;
        }
        self
    }

    /// Attach a secondary note.
    pub fn with_note(mut self, message: impl Into<String>, span: Option<Span>) -> Diagnostic {
        self.notes.push(Note {
            message: message.into(),
            span,
        });
        self
    }

    /// Attach a suggested fix.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Whether this diagnostic is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render for a terminal. With `source`, diagnostics that carry a
    /// primary span include a caret excerpt of the offending line.
    pub fn render_human(&self, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(span) = self.primary {
            out.push_str(&format!("\n  --> {}:{}", span.line, span.col));
            if let Some(src) = source {
                if let Some(line_text) = src.split('\n').nth(span.line.saturating_sub(1)) {
                    let line_text = line_text.trim_end_matches('\r');
                    let width = span.line.to_string().len();
                    let carets = span.len().max(1).min(
                        line_text
                            .chars()
                            .count()
                            .saturating_sub(span.col.saturating_sub(1))
                            .max(1),
                    );
                    out.push_str(&format!(
                        "\n{:w$} |\n{} | {}\n{:w$} | {}{}",
                        "",
                        span.line,
                        line_text,
                        "",
                        " ".repeat(span.col.saturating_sub(1)),
                        "^".repeat(carets),
                        w = width,
                    ));
                }
            }
        }
        for note in &self.notes {
            match note.span {
                Some(s) => out.push_str(&format!(
                    "\n  = note: {} (at {}:{})",
                    note.message, s.line, s.col
                )),
                None => out.push_str(&format!("\n  = note: {}", note.message)),
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  = help: {help}"));
        }
        out
    }

    /// Render as a single JSON object (hand-rolled; this crate has no
    /// dependencies).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code,
            self.severity,
            json_escape(&self.message)
        );
        if let Some(s) = self.primary {
            out.push_str(&format!(
                ",\"span\":{{\"start\":{},\"end\":{},\"line\":{},\"col\":{}}}",
                s.start, s.end, s.line, s.col
            ));
        }
        if !self.notes.is_empty() {
            out.push_str(",\"notes\":[");
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"message\":\"{}\"", json_escape(&n.message)));
                if let Some(s) = n.span {
                    out.push_str(&format!(",\"line\":{},\"col\":{}", s.line, s.col));
                }
                out.push('}');
            }
            out.push(']');
        }
        if let Some(h) = &self.help {
            out.push_str(&format!(",\"help\":\"{}\"", json_escape(h)));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Render a slice of diagnostics for a terminal, one per paragraph.
pub fn render_all_human(diags: &[Diagnostic], source: Option<&str>) -> String {
    diags
        .iter()
        .map(|d| d.render_human(source))
        .collect::<Vec<_>>()
        .join("\n\n")
}

/// Render a slice of diagnostics as a JSON array.
pub fn render_all_json(diags: &[Diagnostic]) -> String {
    let body = diags
        .iter()
        .map(Diagnostic::render_json)
        .collect::<Vec<_>>()
        .join(",");
    format!("[{body}]")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_includes_caret_excerpt() {
        let src = "kernel k {\n  B[i] = A[i * i];\n}";
        let span = Span::from_line_col(src, 2, 9, 8);
        let d = Diagnostic::error(codes::NON_AFFINE, "subscript `i * i` is not affine")
            .with_span(span)
            .with_help("subscripts must be affine in the loop variables");
        let text = d.render_human(Some(src));
        assert!(text.starts_with("error[DF002]:"), "{text}");
        assert!(text.contains("--> 2:9"));
        assert!(text.contains("^^^^^^^^"));
        assert!(text.contains("help:"));
    }

    #[test]
    fn human_rendering_without_source_still_shows_position() {
        let d = Diagnostic::warning(codes::UNUSED_DECL, "array `T` is never accessed")
            .with_span(Span::new(10, 11, 3, 6));
        let text = d.render_human(None);
        assert!(text.starts_with("warning[DF006]:"));
        assert!(text.contains("--> 3:6"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let d = Diagnostic::error(codes::SYNTAX, "expected `;`, found \"}\"")
            .with_span(Span::new(5, 6, 1, 6))
            .with_note("kernel body starts here", Some(Span::new(0, 1, 1, 1)))
            .with_help("add a `;`");
        let json = d.render_json();
        assert!(json.contains("\"code\":\"DF001\""));
        assert!(json.contains("\\\"}\\\""), "{json}");
        assert!(json.contains("\"span\":{\"start\":5"));
        // Balanced braces/brackets (crude well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count() - json.matches("\\\"}").count()
        );
    }

    #[test]
    fn render_all_json_is_an_array() {
        let diags = vec![
            Diagnostic::error(codes::SYNTAX, "a"),
            Diagnostic::warning(codes::UNUSED_DECL, "b"),
        ];
        let json = render_all_json(&diags);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("},{"));
    }

    #[test]
    fn severity_orders_warnings_below_errors() {
        assert!(Severity::Warning < Severity::Error);
    }
}
