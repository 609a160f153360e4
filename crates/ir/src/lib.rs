//! Affine loop-nest intermediate representation for DEFACTO-style hardware
//! design space exploration.
//!
//! This crate provides the input language of the system described in
//! *"A Compiler Approach to Fast Hardware Design Space Exploration in
//! FPGA-based Systems"* (So, Hall, Diniz — PLDI 2002): loop nests over
//! multi-dimensional array variables where every subscript expression is an
//! affine function of the loop index variables, loop bounds are constant,
//! and control flow is limited to structured `if`.
//!
//! The crate contains:
//!
//! - the AST ([`Kernel`], [`Stmt`], [`Expr`], [`Loop`]), the affine
//!   subscript representation ([`AffineExpr`]) and the shared identifier
//!   type every tree uses for names ([`Name`]);
//! - a small C-like textual front end ([`parse_kernel`]);
//! - a fluent [`builder`] API for constructing kernels programmatically;
//! - a pretty printer that round-trips the DSL;
//! - a reference [`interp`] interpreter used as a semantics oracle by the
//!   transformation crates (a kernel and its transformed version must
//!   produce identical output arrays).
//!
//! # Example
//!
//! ```
//! use defacto_ir::parse_kernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fir = parse_kernel(
//!     "kernel fir {
//!        in  S: i32[96];
//!        in  C: i32[32];
//!        out D: i32[64];
//!        for j in 0..64 {
//!          for i in 0..32 {
//!            D[j] = D[j] + S[i + j] * C[i];
//!          }
//!        }
//!      }",
//! )?;
//! assert_eq!(fir.name(), "fir");
//! assert_eq!(fir.perfect_nest().unwrap().depth(), 2);
//! # Ok(())
//! # }
//! ```

pub mod affine;
pub mod builder;
pub mod canon;
pub mod decl;
pub mod diag;
pub mod error;
pub mod expr;
pub mod interp;
pub mod kernel;
pub mod name;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod stmt;
pub mod types;
pub mod verify;
pub mod visit;

pub use affine::AffineExpr;
pub use builder::{BodyBuilder, KernelBuilder};
pub use canon::{canonicalize, content_hash, CanonicalKernel, ContentHash, SubtreeHash};
pub use decl::{ArrayDecl, ArrayKind, ScalarDecl};
pub use diag::{Diagnostic, Severity};
pub use error::{IrError, Result};
pub use expr::{ArrayAccess, BinOp, Expr, UnOp};
pub use interp::{run_with_inputs, ExecStats, Interpreter, Workspace, Written};
pub use kernel::{DeclIndex, Kernel, NestView};
pub use name::{Name, NameResolver};
pub use parser::{parse_kernel, parse_kernel_with_spans};
pub use span::{Span, SpanMap};
pub use stmt::{LValue, Loop, Stmt};
pub use types::ScalarType;
pub use verify::verify;
