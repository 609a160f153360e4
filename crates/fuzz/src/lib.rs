//! Differential kernel fuzzer for the DEFACTO-style toolchain.
//!
//! The design-space explorer rests on a chain of trust: the transformation
//! pipeline preserves kernel semantics, the per-pass IR verifier would
//! notice if it didn't, tier-0-pruned branch-and-bound selects exactly what
//! an exhaustive full-fidelity sweep would, and the search trace honors its
//! audit invariants at any worker count. This crate stress-tests the whole
//! chain with generated inputs rather than the handful of paper kernels:
//!
//! 1. [`grammar`] — a seeded generator producing kernel-DSL sources biased
//!    toward the shapes legality analysis and unroll-and-jam care about
//!    (nested affine loops, multi-array reads/writes, boundary
//!    conditionals, mixed bitwidths), with a deliberate fraction of
//!    degenerate injections that must be *rejected, not crash*.
//! 2. [`oracle`] — the six-way differential check per kernel × design
//!    point × device profile: interpreter semantics of original vs. fully
//!    transformed designs, per-pass verification, full sweep vs. pruned
//!    branch-and-bound agreement plus tier-0 band containment of the exact
//!    estimate, and
//!    clean deterministic search traces at 1 and 8 workers. Every stage
//!    runs under a panic guard: a panic is always a violation.
//! 3. [`shrink`](mod@shrink) — greedy minimization of failures into small, parseable
//!    reproducers for `tests/fuzz_corpus/`.
//! 4. [`campaign`] — the driver tying it together, exposed on the CLI as
//!    `defacto fuzz --seed N --count M`.

pub mod campaign;
pub mod grammar;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use campaign::{
    replay_source, run_campaign, run_kernels, CampaignConfig, FoundBug, FuzzReport,
};
pub use grammar::{generate_kernel, Shape};
pub use oracle::{check_case, CaseOutcome, Oracle, OracleConfig, Profile, Violation};
pub use rng::SplitMix64;
pub use shrink::shrink;
