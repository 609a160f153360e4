//! Compiler analyses for DEFACTO-style design space exploration.
//!
//! This crate implements the parallelizing-compiler half of the PLDI 2002
//! paper's analysis stack:
//!
//! - [`access`]: collection of array accesses from a loop-nest body;
//! - [`uniform`]: partitioning of accesses into *uniformly generated sets*
//!   (identical affine coefficient vectors — the unit at which scalar
//!   replacement and custom data layout operate);
//! - [`linalg`]: exact rational linear-system solving used to compute
//!   dependence distances;
//! - [`dependence`]: data-dependence analysis producing distance vectors
//!   with invariant (`Any`) and inconsistent (`Unknown`) components, plus
//!   GCD and Banerjee independence tests for non-uniform pairs;
//! - [`legality`]: direction vectors and the whole-kernel
//!   [`LegalitySummary`] — legal permutations, per-level tilability and
//!   jam safety, carried scalars, packing/narrowing applicability — the
//!   single source of truth the transforms delegate their checks to;
//! - [`range`]: value-range (interval) analysis driving bit-width
//!   narrowing (paper §2.4's "reduced data widths");
//! - [`reuse`]: classification of each uniformly generated set's reuse
//!   pattern (rolling window, outer-loop register chain, hoistable
//!   invariant, or inconsistent), which drives scalar replacement;
//! - [`lint`]: the kernel linter, reporting legality and profitability
//!   problems as structured `DF0xx` diagnostics with source spans.
//!
//! # Example
//!
//! ```
//! use defacto_analysis::prelude::*;
//! use defacto_ir::parse_kernel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let k = parse_kernel(
//!     "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
//!        for j in 0..64 { for i in 0..32 {
//!          D[j] = D[j] + S[i + j] * C[i]; } } }",
//! )?;
//! let nest = k.perfect_nest().unwrap();
//! let table = AccessTable::from_stmts(nest.innermost_body());
//! let deps = analyze_dependences(&table, &nest.vars());
//! // The outer loop j carries no dependence: it can be unrolled for
//! // fully parallel accumulators.
//! assert!(!deps.loop_carries_dependence(0));
//! assert!(deps.loop_carries_dependence(1));
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod dependence;
pub mod jam;
pub mod legality;
pub mod linalg;
pub mod lint;
pub mod range;
pub mod reuse;
pub mod uniform;

pub use access::{Access, AccessId, AccessTable};
pub use dependence::{
    analyze_dependences, analyze_dependences_with_bounds, banerjee_may_depend, gcd_may_depend,
    CarriedAt, DepKind, Dependence, DependenceGraph, DistElem,
};
pub use jam::{jammed_access_table, jammed_uniform_sets};
pub use legality::{
    carried_scalar_violation, carried_scalars, direction_vector, permutation_violation,
    tile_hoist_violation, unroll_violation, ArrayNarrowing, ArrayPacking, Direction,
    DistanceVector, JamViolation, LegalitySummary,
};
pub use linalg::{solve_affine, Rational, VarSolution};
pub use lint::{lint_kernel, lint_source, LintContext, LintReport, LintRule};
pub use range::{
    array_seed, infer_ranges, infer_ranges_indexed, narrowed_bits, Interval, RangeInfo,
};
pub use reuse::{classify_set, classify_set_bounded, ReuseStrategy};
pub use uniform::{uniform_sets, OffsetRow, UniformSet};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::access::{Access, AccessId, AccessTable};
    pub use crate::dependence::{
        analyze_dependences, analyze_dependences_with_bounds, CarriedAt, DepKind, Dependence,
        DependenceGraph, DistElem,
    };
    pub use crate::reuse::{classify_set, classify_set_bounded, ReuseStrategy};
    pub use crate::uniform::{uniform_sets, UniformSet};
}
