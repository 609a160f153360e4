//! The reference transformation pipeline: one call takes a source kernel
//! and an unroll-factor vector to a synthesis-ready design, every pass
//! from scratch. The library goes through [`crate::PreparedKernel`],
//! which must match it bit for bit, errors included.
//!
//! Order of application (paper Figure 3):
//!
//! 1. loop normalization;
//! 2. unroll-and-jam with the candidate factors;
//! 3. scalar replacement + loop-invariant code motion + redundant-write
//!    elimination (with the §5.4 register budget);
//! 4. custom data layout (array renaming + memory mapping) — computed
//!    before peeling, while every access still carries its full
//!    signature;
//! 5. loop peeling + constant folding, producing the uniform steady-state
//!    bodies behavioral synthesis schedules.

use crate::error::{Result, XformError};
use crate::layout::{assign_memories, MemoryBinding};
use crate::normalize::normalize_loops;
use crate::peel::peel_first_iterations;
use crate::scalar::{scalar_replace, ScalarOptions, ScalarReplacementInfo};
use crate::simplify::simplify_kernel;
use crate::unroll::unroll_and_jam;
use defacto_ir::Kernel;
use std::fmt;

/// A vector of unroll factors, outermost loop first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UnrollVector(pub Vec<i64>);

impl UnrollVector {
    /// The all-ones vector (no unrolling) for an `n`-deep nest.
    pub fn ones(n: usize) -> Self {
        UnrollVector(vec![1; n])
    }

    /// Product of all factors — `P(U)` in the paper.
    pub fn product(&self) -> i64 {
        self.0.iter().product()
    }

    /// Factors as a slice.
    pub fn factors(&self) -> &[i64] {
        &self.0
    }

    /// Component-wise `self ≤ other`.
    pub fn le(&self, other: &UnrollVector) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

impl fmt::Display for UnrollVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Options controlling the transformation pipeline; the defaults enable
/// everything the paper's system applies, targeting 4 external memories.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransformOptions {
    /// Apply scalar replacement (step 3). Disabled for the ablation.
    pub scalar_replacement: bool,
    /// Eliminate redundant writes on output dependences.
    pub redundant_write_elim: bool,
    /// Apply custom data layout; when false, all arrays share memory 0.
    pub custom_layout: bool,
    /// Register budget for carried reuse (§5.4).
    pub register_budget: Option<usize>,
    /// Peel first iterations instead of leaving conditional loads.
    pub peel: bool,
    /// Number of external memories of the target board.
    pub num_memories: usize,
    /// Run the IR verifier ([`defacto_ir::verify()`]) on the output of every
    /// pipeline stage, failing with [`XformError::Verify`] on the first
    /// stage that emits structurally invalid IR. Off by default: passes
    /// are trusted in production runs and the sweep is hot.
    pub verify_each_pass: bool,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            scalar_replacement: true,
            redundant_write_elim: true,
            custom_layout: true,
            register_budget: None,
            peel: true,
            num_memories: 4,
            verify_each_pass: false,
        }
    }
}

impl TransformOptions {
    /// The scalar-replacement subset of the options.
    pub(crate) fn scalar_options(&self) -> ScalarOptions {
        ScalarOptions {
            redundant_write_elim: self.redundant_write_elim,
            register_budget: self.register_budget,
        }
    }
}

/// A synthesis-ready transformed design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformedDesign {
    /// The transformed kernel (interpretable, semantics-equal to the
    /// source).
    pub kernel: Kernel,
    /// The unroll factors that produced it.
    pub unroll: UnrollVector,
    /// Scalar-replacement statistics (register counts etc.).
    pub info: ScalarReplacementInfo,
    /// The memory binding used by the scheduler.
    pub binding: MemoryBinding,
}

/// Run the full reference pipeline (see the module docs).
///
/// # Errors
///
/// Propagates failures from any stage (imperfect nest, bad unroll vector,
/// illegal jam, IR validation).
///
/// # Example
///
/// ```
/// use defacto_xform::{transform, TransformOptions, UnrollVector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fir = defacto_ir::parse_kernel(
///     "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
///        for j in 0..64 { for i in 0..32 {
///          D[j] = D[j] + S[i + j] * C[i]; } } }",
/// )?;
/// let design = transform(&fir, &UnrollVector(vec![2, 2]), &TransformOptions::default())?;
/// assert!(design.info.total_registers() > 0);
/// # Ok(())
/// # }
/// ```
pub fn transform(
    kernel: &Kernel,
    unroll: &UnrollVector,
    opts: &TransformOptions,
) -> Result<TransformedDesign> {
    let checkpoint = |stage: &'static str, k: &Kernel| -> Result<()> {
        if !opts.verify_each_pass {
            return Ok(());
        }
        let diagnostics = defacto_ir::verify(k);
        if diagnostics.is_empty() {
            Ok(())
        } else {
            Err(XformError::Verify { stage, diagnostics })
        }
    };

    let normalized = normalize_loops(kernel)?;
    checkpoint("loop normalization", &normalized)?;
    let unrolled = unroll_and_jam(&normalized, unroll.factors())?;
    checkpoint("unroll-and-jam", &unrolled)?;

    let (replaced, info) = if opts.scalar_replacement {
        scalar_replace(&unrolled, &opts.scalar_options())?
    } else {
        (unrolled, ScalarReplacementInfo::default())
    };
    checkpoint("scalar replacement", &replaced)?;

    // Layout before peeling (see module docs).
    let binding = if opts.custom_layout {
        assign_memories(&replaced, opts.num_memories)
    } else {
        assign_memories(&replaced, 1)
    };

    let final_kernel = if opts.peel {
        peel_first_iterations(&replaced)?
    } else {
        simplify_kernel(&replaced)?
    };
    checkpoint(
        if opts.peel {
            "loop peeling"
        } else {
            "simplify"
        },
        &final_kernel,
    )?;

    Ok(TransformedDesign {
        kernel: final_kernel,
        unroll: unroll.clone(),
        info,
        binding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::{parse_kernel, run_with_inputs, Stmt};

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn fir_inputs() -> Vec<(&'static str, Vec<i64>)> {
        vec![
            ("S", (0..96).map(|x| (x * 7 % 23) - 11).collect()),
            ("C", (0..32).map(|x| (x * 5 % 17) - 8).collect()),
        ]
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let (w0, _) = run_with_inputs(&k, &inputs).unwrap();
        for factors in [vec![1, 1], vec![2, 2], vec![8, 4], vec![4, 16]] {
            let d = transform(
                &k,
                &UnrollVector(factors.clone()),
                &TransformOptions::default(),
            )
            .unwrap();
            let (w1, _) = run_with_inputs(&d.kernel, &inputs).unwrap();
            assert_eq!(w0.array("D"), w1.array("D"), "factors {factors:?}");
        }
    }

    #[test]
    fn peeled_design_has_no_branches() {
        let k = parse_kernel(FIR).unwrap();
        let d = transform(&k, &UnrollVector(vec![2, 2]), &TransformOptions::default()).unwrap();
        fn has_if(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::If { .. } => true,
                Stmt::For(l) => has_if(&l.body),
                _ => false,
            })
        }
        assert!(!has_if(d.kernel.body()), "{}", d.kernel);
    }

    #[test]
    fn options_toggle_stages() {
        let k = parse_kernel(FIR).unwrap();
        let inputs = fir_inputs();
        let (w0, s0) = run_with_inputs(&k, &inputs).unwrap();
        let no_sr = TransformOptions {
            scalar_replacement: false,
            ..TransformOptions::default()
        };
        let d = transform(&k, &UnrollVector(vec![2, 2]), &no_sr).unwrap();
        let (w1, s1) = run_with_inputs(&d.kernel, &inputs).unwrap();
        assert_eq!(w0.array("D"), w1.array("D"));
        // Without scalar replacement the memory traffic is unchanged.
        assert_eq!(s0.memory_accesses(), s1.memory_accesses());
        assert_eq!(d.info.total_registers(), 0);
    }

    #[test]
    fn verify_each_pass_is_clean_on_the_default_pipeline() {
        let k = parse_kernel(FIR).unwrap();
        let opts = TransformOptions {
            verify_each_pass: true,
            ..TransformOptions::default()
        };
        for factors in [vec![1, 1], vec![2, 2], vec![8, 4]] {
            transform(&k, &UnrollVector(factors), &opts).unwrap();
        }
    }

    #[test]
    fn unroll_vector_helpers() {
        let u = UnrollVector(vec![2, 4]);
        assert_eq!(u.product(), 8);
        assert_eq!(u.to_string(), "(2,4)");
        assert!(UnrollVector::ones(2).le(&u));
        assert!(!u.le(&UnrollVector::ones(2)));
        assert!(!u.le(&UnrollVector(vec![4])));
    }
}
