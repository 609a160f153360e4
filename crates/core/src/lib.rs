//! Balance-guided hardware design space exploration for FPGA-based
//! systems — a reproduction of **So, Hall & Diniz, PLDI 2002** ("A
//! Compiler Approach to Fast Hardware Design Space Exploration in
//! FPGA-based Systems", the DEFACTO system).
//!
//! Given an affine loop-nest kernel, the [`Explorer`] searches the space
//! of unroll-factor vectors for the design that (1) fits the FPGA,
//! (2) minimizes execution time, and (3) among comparable designs is the
//! smallest. The search is guided by the *balance* metric `B = F/C`
//! (data fetch rate over data consumption rate) and its monotonicity
//! around the *saturation point*, which lets it prune all but a fraction
//! of a percent of the space.
//!
//! ```
//! use defacto::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fir = defacto_ir::parse_kernel(
//!     "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
//!        for j in 0..64 { for i in 0..32 {
//!          D[j] = D[j] + S[i + j] * C[i]; } } }",
//! )?;
//! let result = Explorer::new(&fir)
//!     .memory(MemoryModel::wildstar_pipelined())
//!     .device(FpgaDevice::virtex1000())
//!     .explore()?;
//! println!(
//!     "selected {} ({} cycles, {} slices) after visiting {} of {} designs",
//!     result.selected.unroll,
//!     result.selected.estimate.cycles,
//!     result.selected.estimate.slices,
//!     result.visited.len(),
//!     result.space_size,
//! );
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod engine;
pub mod error;
pub mod exhaustive;
pub mod explorer;
pub mod incremental;
pub mod lint;
pub mod saturation;
pub mod search;
pub mod space;
pub mod strategy;
pub mod trace;

pub use audit::{
    audit_joint_trace, audit_search_trace, audit_strategy_trace, AuditReport, AuditViolation,
    Invariant,
};
pub use defacto_analysis::{lint_kernel, lint_source, LintReport};
pub use defacto_ir::{diag, Diagnostic, Severity};
pub use engine::{
    CacheKey, CacheShardStats, CounterSnapshot, EstimateCache, EvalEngine, EvalStats,
};
pub use error::{DseError, Result};
pub use exhaustive::{
    best_joint_performance, exhaustive_joint_sweep, exhaustive_sweep, parallel_sweep,
};
pub use explorer::{EvaluatedDesign, EvaluatedJointDesign, Explorer, Fidelity, JointSearchResult};
pub use incremental::{IncrementalOutcome, IncrementalSession};
pub use saturation::{saturation_analysis, SaturationInfo};
pub use search::{
    doubling_frontier, run_search, run_search_instrumented, run_search_with_sink, SearchConfig,
    SearchResult, Termination, VisitOutcome,
};
pub use space::{Axis, DesignSpace, JointPoint, PrunedCounts};
pub use strategy::{
    strategy_for, BranchAndBound, CoordinateDescent, Exhaustive, GuidedOutcome, SearchStrategy,
    StrategyContext, StrategyKind,
};
pub use trace::{to_jsonl, JsonlSink, MemorySink, NullSink, TraceEvent, TraceSink};

// Re-export the component crates so downstream users need only one
// dependency.
pub use defacto_analysis as analysis;
pub use defacto_cache as cache;
pub use defacto_ir as ir;
pub use defacto_synth as synth;
pub use defacto_xform as xform;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::audit::{
        audit_joint_trace, audit_search_trace, audit_strategy_trace, AuditReport,
    };
    pub use crate::engine::{EvalEngine, EvalStats};
    pub use crate::exhaustive::{exhaustive_sweep, parallel_sweep};
    pub use crate::explorer::{
        EvaluatedDesign, EvaluatedJointDesign, Explorer, Fidelity, JointSearchResult,
    };
    pub use crate::incremental::{IncrementalOutcome, IncrementalSession};
    pub use crate::saturation::{saturation_analysis, SaturationInfo};
    pub use crate::search::{SearchResult, Termination};
    pub use crate::space::{Axis, DesignSpace, JointPoint};
    pub use crate::strategy::{GuidedOutcome, SearchStrategy, StrategyKind};
    pub use crate::trace::{MemorySink, TraceEvent, TraceSink};
    pub use defacto_analysis::{lint_kernel, lint_source, LintReport};
    pub use defacto_ir::{parse_kernel, Diagnostic, Kernel, KernelBuilder, Severity};
    pub use defacto_synth::{Estimate, FpgaDevice, MemoryModel};
    pub use defacto_xform::{TransformOptions, UnrollVector};
}
