//! Analytic derivation of unrolled-and-jammed analyses.
//!
//! Unroll-and-jam replicates the innermost body once per combination of
//! unroll offsets, substituting `var := var + offset` into each copy. The
//! effect on the *analyses* of that body is entirely predictable from the
//! base body's analyses:
//!
//! - the jammed access table is the base table repeated once per offset
//!   tuple (tuple-major, matching the jammed body's program order), with
//!   each subscript's constant term shifted by `Σ coeff(varₗ)·tupleₗ`;
//! - the jammed uniformly generated sets are the base sets (signatures are
//!   untouched by constant shifts, so sets never merge or split), with
//!   each base member replicated per tuple and its constant offsets
//!   shifted by the signature-weighted tuple.
//!
//! The incremental evaluation path uses these to skip re-collecting and
//! re-partitioning accesses of bodies whose statement count grows with
//! `P(U)`. Unit tests pin both derivations against the from-statements
//! analyses of actually jammed bodies.

use crate::access::{Access, AccessId, AccessTable};
use crate::uniform::UniformSet;

/// The access table of the jammed body obtained by replicating the body
/// of `base` once per offset tuple (in order), offsetting loop variable
/// `vars[l]` by `tuple[l]` in each copy. `tuples` is row-major: one row
/// of `vars.len()` offsets per copy (the nest depth, at least one).
///
/// Equals `AccessTable::from_stmts` of the jammed body, because jamming
/// neither reorders accesses within a copy nor changes their
/// read/write/conditional classification.
pub fn jammed_access_table(base: &AccessTable, vars: &[&str], tuples: &[i64]) -> AccessTable {
    let mut accesses = Vec::with_capacity(base.len() * tuples.len() / vars.len());
    for tuple in tuples.chunks_exact(vars.len()) {
        let deltas: Vec<(&str, i64)> = vars
            .iter()
            .copied()
            .zip(tuple.iter().copied())
            .filter(|&(_, d)| d != 0)
            .collect();
        for a in base.accesses() {
            let access = if deltas.is_empty() {
                a.access.clone()
            } else {
                a.access.map_indices(|e| e.offset_vars(&deltas))
            };
            accesses.push(Access {
                id: AccessId(accesses.len()),
                access,
                is_write: a.is_write,
                conditional: a.conditional,
            });
        }
    }
    AccessTable::from_accesses(accesses)
}

/// The uniformly generated sets of the jammed body, derived from the base
/// body's sets. `base_len` is the base table's access count (the id
/// stride between consecutive copies); `tuples` must be the same offset
/// tuples, in the same order, used to build the jammed body, row-major
/// with rows of `depth` entries (the nest depth, which is at least one).
///
/// Equals `uniform_sets` over the jammed table: offset substitution
/// preserves every signature, so copy `t` of base member `m` falls into
/// the same set as `m`, with constant offsets shifted per dimension by
/// the signature row dotted with the tuple. Set order is preserved
/// because the first (all-zero) tuple replays the base accesses in base
/// program order. Members are copy-major: copy `t` of the base set's
/// member `m` is member `t * base_set.len() + m` of the jammed set.
///
/// Each set's offsets are filled in place, one row per member, with no
/// allocation per member, and keyed once the set is whole.
pub fn jammed_uniform_sets(
    base_sets: &[UniformSet],
    base_len: usize,
    tuples: &[i64],
    depth: usize,
) -> Vec<UniformSet> {
    let copies = tuples.len() / depth;
    let mut shift: Vec<i64> = Vec::new();
    base_sets
        .iter()
        .map(|s| {
            let mut members = Vec::with_capacity(s.len() * copies);
            let mut offsets = Vec::with_capacity(s.len() * s.dims() * copies);
            for (rank, tuple) in tuples.chunks_exact(depth).enumerate() {
                shift.clear();
                shift.extend(
                    s.signature
                        .iter()
                        .map(|row| row.iter().zip(tuple).map(|(c, t)| c * t).sum::<i64>()),
                );
                for (m, off) in s.members.iter().zip(s.offset_rows()) {
                    members.push(AccessId(rank * base_len + m.0));
                    offsets.extend(off.iter().zip(&shift).map(|(o, sh)| o + sh));
                }
            }
            UniformSet::new(
                s.array.clone(),
                s.is_write,
                s.signature.clone(),
                members,
                offsets,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::uniform_sets;
    use defacto_ir::visit::offset_var_stmts;
    use defacto_ir::{parse_kernel, Stmt};

    /// Offset tuples in the jam order (outermost slowest), and the jammed
    /// body built the way unroll-and-jam builds it.
    fn jam(body: &[Stmt], vars: &[&str], factors: &[i64]) -> (Vec<Stmt>, Vec<Vec<i64>>) {
        let mut tuples: Vec<Vec<i64>> = vec![vec![]];
        for &f in factors {
            tuples = tuples
                .iter()
                .flat_map(|t| {
                    (0..f).map(move |o| {
                        let mut t = t.clone();
                        t.push(o);
                        t
                    })
                })
                .collect();
        }
        let mut out = Vec::new();
        for t in &tuples {
            let mut copy = body.to_vec();
            for (l, &off) in t.iter().enumerate() {
                if off != 0 {
                    copy = offset_var_stmts(&copy, vars[l], off);
                }
            }
            out.extend(copy);
        }
        (out, tuples)
    }

    fn check(src: &str, factors: &[i64]) {
        let k = parse_kernel(src).unwrap();
        let nest = k.perfect_nest().unwrap();
        let vars = nest.vars();
        let base = AccessTable::from_stmts(nest.innermost_body());
        let base_sets = uniform_sets(&base, &vars);
        let (jammed_body, tuples) = jam(nest.innermost_body(), &vars, factors);

        let tuples = tuples.concat();

        let expected_table = AccessTable::from_stmts(&jammed_body);
        let derived_table = jammed_access_table(&base, &vars, &tuples);
        assert_eq!(derived_table, expected_table, "table for {factors:?}");

        let expected_sets = uniform_sets(&expected_table, &vars);
        let derived_sets = jammed_uniform_sets(&base_sets, base.len(), &tuples, vars.len());
        assert_eq!(derived_sets, expected_sets, "sets for {factors:?}");
    }

    #[test]
    fn fir_jammed_analyses_match_from_stmts() {
        let fir = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
           for j in 0..64 { for i in 0..32 {
             D[j] = D[j] + S[i + j] * C[i]; } } }";
        for factors in [[1, 1], [2, 2], [4, 1], [1, 8], [8, 4]] {
            check(fir, &factors);
        }
    }

    #[test]
    fn conditional_and_scalar_read_bodies_match() {
        // Conditional accesses and 2-D subscripts exercise the
        // classification copying and per-dimension shifts.
        let src = "kernel c { in A: i32[12][12]; inout B: i32[12][12];
           for i in 0..8 { for j in 0..8 {
             if (A[i][j] > 0) { B[i + 1][j + 2] = B[i + 1][j + 2] + A[i][j + 1]; } } } }";
        for factors in [[1, 1], [2, 4], [4, 2]] {
            check(src, &factors);
        }
    }

    #[test]
    fn single_loop_stencil_matches() {
        let src = "kernel st { in A: i16[66]; out B: i16[64];
           for i in 0..64 { B[i] = A[i] + A[i + 1] + A[i + 2]; } }";
        for factors in [[1], [2], [4], [8]] {
            check(src, &factors);
        }
    }
}
