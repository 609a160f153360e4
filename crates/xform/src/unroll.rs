//! Unroll-and-jam.
//!
//! Unrolling one or more loops of the nest and fusing (jamming) the copies
//! of the inner loops exposes operator parallelism to behavioral synthesis
//! and shortens reuse distances for scalar replacement (paper §4,
//! Figure 1(b)). The transformed nest keeps its loop structure but each
//! unrolled loop's step becomes its unroll factor and the innermost body
//! is replicated once per combination of unroll offsets.

use crate::error::{Result, VectorError, XformError};
use defacto_analysis::legality::{self, JamViolation};
use defacto_analysis::{analyze_dependences_with_bounds, AccessTable, DependenceGraph};
use defacto_ir::visit::offset_var_stmts;
use defacto_ir::{Kernel, Loop, Name, Stmt};

/// Check whether unroll-and-jam with the given factors is legal.
///
/// A thin delegating assertion over the legality analysis — see
/// `defacto_analysis::legality::unroll_violation` for the rule (jam
/// would execute a dependent iteration before its source).
pub fn unroll_is_legal(
    deps: &DependenceGraph,
    factors: &[i64],
) -> std::result::Result<(), JamViolation> {
    match legality::unroll_violation(deps, factors) {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

/// Scalars carrying state across innermost-body iterations — re-exported
/// from `defacto_analysis::legality`, the single implementation shared
/// with saturation analysis and [`crate::PreparedKernel`]. A non-empty
/// set makes [`unroll_and_jam`] reject non-innermost factors above 1.
pub use defacto_analysis::legality::carried_scalars;

/// Apply unroll-and-jam to a normalized perfect nest.
///
/// `factors[l]` is the unroll factor of loop `l` (outermost first); a
/// factor of 1 leaves the loop untouched. Factors must divide the trip
/// counts — the system explores divisor factors only, so behavioral
/// synthesis always sees constant-trip loops without cleanup code.
///
/// # Errors
///
/// Fails when the body is not a normalized perfect nest, the factor vector
/// has the wrong length, a factor does not divide its trip count, or the
/// jam would reorder a dependence.
pub fn unroll_and_jam(kernel: &Kernel, factors: &[i64]) -> Result<Kernel> {
    let nest = kernel.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    if factors.len() != nest.depth() {
        return Err(XformError::BadUnrollVector(VectorError::WrongLength {
            got: factors.len(),
            depth: nest.depth(),
        }));
    }
    for (l, loop_) in nest.loops().iter().enumerate() {
        if !loop_.is_normalized() {
            return Err(XformError::BadUnrollVector(VectorError::NotNormalized {
                var: loop_.var.to_string(),
            }));
        }
        let u = factors[l];
        if u < 1 {
            return Err(XformError::BadUnrollVector(VectorError::BadFactor {
                var: loop_.var.to_string(),
                factor: u,
            }));
        }
        if loop_.trip_count() % u != 0 {
            return Err(XformError::NonDividingFactor {
                var: loop_.var.to_string(),
                trip: loop_.trip_count(),
                factor: u,
            });
        }
    }

    // Legality.
    let table = AccessTable::from_stmts(nest.innermost_body());
    let vars = nest.vars();
    let bounds: Vec<(i64, i64)> = nest
        .loops()
        .iter()
        .map(|l| (l.lower, l.upper - 1))
        .collect();
    let deps = analyze_dependences_with_bounds(&table, &vars, &bounds);
    unroll_is_legal(&deps, factors).map_err(XformError::IllegalJam)?;

    // Loop-carried scalar state (rotate register chains, scalars read
    // before written) is invisible to the array dependence graph but
    // just as order-sensitive: jamming a non-innermost loop interleaves
    // iterations of different outer indices and reorders the chain.
    // Innermost-only unrolling keeps copies in original iteration order.
    if factors[..factors.len() - 1].iter().any(|&u| u > 1) {
        let carried = carried_scalars(nest.innermost_body(), &vars);
        if let Some(v) = legality::carried_scalar_violation(&carried, factors) {
            return Err(XformError::IllegalJam(v));
        }
    }

    // Build the jammed body: one copy of the innermost body per
    // combination of offsets, lexicographic order (outer offset varies
    // slowest) — Figure 1(b) in the paper.
    let mut body: Vec<Stmt> = Vec::new();
    let var_names: Vec<Name> = nest.loops().iter().map(|l| l.var.clone()).collect();
    for offsets in offset_tuples(factors).chunks_exact(factors.len()) {
        let mut copy = nest.innermost_body().to_vec();
        for (l, &off) in offsets.iter().enumerate() {
            if off != 0 {
                copy = offset_var_stmts(&copy, &var_names[l], off);
            }
        }
        body.extend(copy);
    }

    // Rebuild the nest with widened steps.
    let mut stmts = body;
    for (l, loop_) in nest.loops().iter().enumerate().rev() {
        stmts = vec![Stmt::For(Loop {
            var: loop_.var.clone(),
            lower: 0,
            upper: loop_.upper,
            step: factors[l],
            body: stmts,
        })];
    }
    Ok(kernel.with_body(stmts)?)
}

/// All unroll-offset tuples for `factors`, in jam order: lexicographic
/// with the outermost level varying slowest, starting at the all-zero
/// tuple. The tuples come as one row-major matrix, one row of
/// `factors.len()` offsets per tuple. The prepared evaluation path
/// iterates the same list, so the two unrolling implementations
/// replicate copies in the same order by construction.
pub(crate) fn offset_tuples(factors: &[i64]) -> Vec<i64> {
    let count = factors.iter().product::<i64>().max(1) as usize;
    let mut tuples = Vec::with_capacity(count * factors.len());
    let mut offsets = vec![0i64; factors.len()];
    loop {
        tuples.extend_from_slice(&offsets);
        // Advance the mixed-radix counter, innermost level fastest.
        let mut level = factors.len();
        loop {
            if level == 0 {
                return tuples;
            }
            level -= 1;
            offsets[level] += 1;
            if offsets[level] < factors[level] {
                break;
            }
            offsets[level] = 0;
            if level == 0 {
                return tuples;
            }
        }
        if offsets.iter().all(|&o| o == 0) {
            return tuples;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::stmt::collect_accesses;
    use defacto_ir::{parse_kernel, run_with_inputs};

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn fir_2x2_matches_figure_1b() {
        let k = parse_kernel(FIR).unwrap();
        let u = unroll_and_jam(&k, &[2, 2]).unwrap();
        let nest = u.perfect_nest().unwrap();
        assert_eq!(nest.loop_at(0).step, 2);
        assert_eq!(nest.loop_at(1).step, 2);
        assert_eq!(nest.innermost_body().len(), 4);
        // 4 copies × (3 loads + 1 store).
        let acc = collect_accesses(nest.innermost_body());
        assert_eq!(acc.len(), 16);
        // The S subscript constants of the four copies: 0, 1, 1, 2.
        let s_offsets: Vec<i64> = acc
            .iter()
            .filter(|(a, w)| a.array == "S" && !w)
            .map(|(a, _)| a.indices[0].constant_term())
            .collect();
        assert_eq!(s_offsets, vec![0, 1, 1, 2]);
    }

    #[test]
    fn unrolled_kernel_is_semantically_equal() {
        let k = parse_kernel(FIR).unwrap();
        let s: Vec<i64> = (0..96).map(|x| (x * 13 % 31) - 15).collect();
        let c: Vec<i64> = (0..32).map(|x| (x * 7 % 19) - 9).collect();
        let (w0, _) = run_with_inputs(&k, &[("S", s.clone()), ("C", c.clone())]).unwrap();
        for factors in [[1, 1], [2, 1], [1, 4], [4, 8], [64, 32]] {
            let u = unroll_and_jam(&k, &factors).unwrap();
            let (w1, _) = run_with_inputs(&u, &[("S", s.clone()), ("C", c.clone())]).unwrap();
            assert_eq!(w0.array("D"), w1.array("D"), "factors {factors:?}");
        }
    }

    #[test]
    fn full_unroll_eliminates_iterations() {
        let k = parse_kernel(
            "kernel t { in A: i32[4]; out B: i32[4];
               for i in 0..4 { B[i] = A[i] * 2; } }",
        )
        .unwrap();
        let u = unroll_and_jam(&k, &[4]).unwrap();
        let nest = u.perfect_nest().unwrap();
        assert_eq!(nest.loop_at(0).trip_count(), 1);
        assert_eq!(nest.innermost_body().len(), 4);
    }

    #[test]
    fn non_dividing_factor_rejected() {
        let k = parse_kernel(FIR).unwrap();
        let err = unroll_and_jam(&k, &[3, 1]).unwrap_err();
        assert!(matches!(err, XformError::NonDividingFactor { .. }));
    }

    #[test]
    fn wrong_vector_length_rejected() {
        let k = parse_kernel(FIR).unwrap();
        assert!(matches!(
            unroll_and_jam(&k, &[2]).unwrap_err(),
            XformError::BadUnrollVector(_)
        ));
        assert!(matches!(
            unroll_and_jam(&k, &[0, 1]).unwrap_err(),
            XformError::BadUnrollVector(_)
        ));
    }

    #[test]
    fn wavefront_inner_jam_rejected() {
        // A[i][j] = A[i+1][j-1]: dependence (1, -1); unrolling i and
        // jamming the j copies would read values already overwritten.
        let k = parse_kernel(
            "kernel wf { inout A: i32[9][9];
               for i in 0..8 { for j in 1..8 {
                 A[i][j] = A[i + 1][j - 1] + 1; } } }",
        )
        .unwrap();
        let k = crate::normalize_loops(&k).unwrap();
        let err = unroll_and_jam(&k, &[2, 1]).unwrap_err();
        assert!(matches!(err, XformError::IllegalJam(_)), "{err:?}");
        // Unrolling only j is fine.
        assert!(unroll_and_jam(&k, &[1, 7]).is_ok());
    }

    #[test]
    fn accumulator_jam_is_legal() {
        // The FIR accumulator (distance (0, Any)) does not block jamming.
        let k = parse_kernel(FIR).unwrap();
        assert!(unroll_and_jam(&k, &[8, 4]).is_ok());
    }

    #[test]
    fn rotate_chain_blocks_non_innermost_jam() {
        // `rotate` carries register state across iterations: jamming an
        // outer level interleaves the inner loop's iterations and
        // reorders the chain (found by the differential fuzzer; see
        // tests/fuzz_corpus/pass_rotate_carried_innermost.kernel).
        let k = parse_kernel(
            "kernel rc { in A: i32[4][8]; out B: i32[4][8]; var r0: i32; var r1: i32;
               for i in 0..4 { for j in 0..8 {
                 r0 = A[i][j]; rotate(r0, r1); B[i][j] = r0; } } }",
        )
        .unwrap();
        let err = unroll_and_jam(&k, &[2, 1]).unwrap_err();
        assert!(
            matches!(
                &err,
                XformError::IllegalJam(JamViolation::CarriedScalar { .. })
            ),
            "{err:?}"
        );
        // Innermost unroll preserves iteration order: the chain survives.
        let u = unroll_and_jam(&k, &[1, 2]).unwrap();
        let a: Vec<i64> = (0..32).map(|x| x * 3 % 17).collect();
        let (w0, _) = run_with_inputs(&k, &[("A", a.clone())]).unwrap();
        let (w1, _) = run_with_inputs(&u, &[("A", a)]).unwrap();
        assert_eq!(w0.array("B"), w1.array("B"));
    }

    #[test]
    fn carried_scalars_distinguishes_read_before_write() {
        let k = parse_kernel(
            "kernel rw { in A: i32[8]; out B: i32[8]; var acc: i32;
               for i in 0..8 { B[i] = acc; acc = A[i]; } }",
        )
        .unwrap();
        let nest = k.perfect_nest().unwrap();
        assert_eq!(
            carried_scalars(nest.innermost_body(), &["i"]),
            vec!["acc".to_string()]
        );
        // A scalar written before it is read carries nothing.
        let k2 = parse_kernel(
            "kernel wr { in A: i32[8]; out B: i32[8]; var t: i32;
               for i in 0..8 { t = A[i]; B[i] = t; } }",
        )
        .unwrap();
        let nest2 = k2.perfect_nest().unwrap();
        assert!(carried_scalars(nest2.innermost_body(), &["i"]).is_empty());
    }

    #[test]
    fn matmul_semantics_preserved_under_unroll() {
        let mm = parse_kernel(
            "kernel mm { in A: i32[32][16]; in B: i32[16][4]; inout C: i32[32][4];
               for i in 0..32 { for j in 0..4 { for k in 0..16 {
                 C[i][j] = C[i][j] + A[i][k] * B[k][j]; } } } }",
        )
        .unwrap();
        let a: Vec<i64> = (0..512).map(|x| (x % 11) - 5).collect();
        let b: Vec<i64> = (0..64).map(|x| (x % 7) - 3).collect();
        let (w0, _) = run_with_inputs(&mm, &[("A", a.clone()), ("B", b.clone())]).unwrap();
        for factors in [[2, 2, 1], [4, 1, 4], [8, 4, 16]] {
            let u = unroll_and_jam(&mm, &factors).unwrap();
            let (w1, _) = run_with_inputs(&u, &[("A", a.clone()), ("B", b.clone())]).unwrap();
            assert_eq!(w0.array("C"), w1.array("C"), "factors {factors:?}");
        }
    }
}
