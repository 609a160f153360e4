//! Loop and data transformations for DEFACTO-style design space
//! exploration.
//!
//! This crate implements the code transformations of So, Hall & Diniz
//! (PLDI 2002), §4:
//!
//! - [`normalize`] — loop normalization (zero lower bound, unit step);
//! - [`unroll`] — unroll-and-jam with a dependence-based legality check;
//! - [`scalar`] — scalar replacement with redundant-write elimination and
//!   reuse exploited across *all* loops of the nest (register chains with
//!   `rotate`, rolling stencil windows, hoisted/sunk accumulators), plus
//!   loop-invariant code motion;
//! - [`interchange`](mod@interchange) — loop interchange with a dependence-order
//!   legality check;
//! - [`peel`] — loop peeling, turning the conditional first-iteration
//!   register loads emitted by scalar replacement into genuinely peeled
//!   iterations (the form the paper synthesizes);
//! - [`simplify`] — constant folding used by peeling;
//! - [`tiling`] — strip-mining/tiling for register-pressure control
//!   (paper §5.4);
//! - [`layout`] — custom data layout: array renaming onto virtual
//!   memories and virtual→physical memory binding;
//! - [`prepared`] and [`variants`] — the library's one way to a design:
//!   one preparation per kernel or variant, then per-point work only;
//! - [`pipeline`] — the reference: the whole sequence from scratch, with
//!   its eager passes, which the prepared path must match bit for bit.
//!
//! Every transformation preserves kernel semantics; the test suites verify
//! this by executing original and transformed kernels on identical inputs
//! through the `defacto-ir` reference interpreter.

pub mod census;
pub mod error;
pub mod interchange;
pub mod layout;
pub mod normalize;
pub mod peel;
pub mod pipeline;
pub mod prepared;
pub mod scalar;
pub mod simplify;
pub mod tiling;
pub mod unroll;
pub mod variants;

pub use census::{AccumulatorCensus, PointCensus, RegisterClass, Traffic, TrafficKind};
pub use error::{JamViolation, Result, TileError, VectorError, XformError};
pub use interchange::{interchange, interchange_is_legal};
pub use layout::{assign_memories, MemoryBinding};
pub use normalize::normalize_loops;
pub use pipeline::{transform, TransformOptions, TransformedDesign, UnrollVector};
pub use prepared::PreparedKernel;
pub use scalar::ScalarReplacementInfo;
pub use unroll::{unroll_and_jam, unroll_is_legal};
pub use variants::{PreparedVariant, VariantCache, VariantKey};
