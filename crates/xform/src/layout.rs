//! Custom data layout: array renaming and memory mapping (paper §4).
//!
//! The first phase, *array renaming*, distributes each renamable array
//! cyclically across virtual memories so that the accesses of one loop
//! body hit distinct banks. An array is renamable only when **all** of its
//! accesses in the nest are uniformly generated; otherwise it is mapped to
//! a single memory, exactly as the paper prescribes.
//!
//! The second phase, *memory mapping*, binds virtual to physical memories.
//! Following the paper's description, reads are considered first and
//! distributed evenly across the physical memories; each array's cyclic
//! phase is chosen greedily to balance the per-bank access counts, then
//! write accesses are balanced the same way.
//!
//! The binding is consumed by the behavioral-synthesis scheduler: it does
//! not rewrite the IR (renamed arrays with strided subscripts would leave
//! the affine domain) but fixes, for every access, which memory port it
//! contends for. A one-memory binding models the "no custom layout"
//! ablation.

use defacto_ir::stmt::visit_accesses;
use defacto_ir::{ArrayAccess, Kernel};
use std::collections::HashMap;

/// How one array is laid out across the external memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayLayout {
    /// Elements distributed cyclically: element `e` lives in bank
    /// `(e + phase) mod M`.
    Cyclic {
        /// Rotation applied during memory mapping to balance banks.
        phase: usize,
    },
    /// Whole array in one memory (not all accesses uniformly generated).
    Single {
        /// The bank holding the array.
        bank: usize,
    },
}

/// The virtual→physical memory binding of a transformed kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBinding {
    num_memories: usize,
    layouts: HashMap<String, ArrayLayout>,
    strides: HashMap<String, Vec<i64>>,
}

impl MemoryBinding {
    /// Number of physical memories.
    pub fn num_memories(&self) -> usize {
        self.num_memories
    }

    /// The layout of `array`, if it was bound.
    pub fn layout(&self, array: &str) -> Option<ArrayLayout> {
        self.layouts.get(array).copied()
    }

    /// The binding of one array, looked up once, for placing many of
    /// its accesses.
    pub fn array(&self, array: &str) -> BoundArray<'_> {
        BoundArray {
            num_memories: self.num_memories,
            layout: self.layout(array),
            strides: self.strides.get(array).map(Vec::as_slice),
        }
    }

    /// The memory bank an access contends for, evaluated at the
    /// representative iteration (all loop indices zero). For cyclic
    /// arrays the *relative* bank pattern of a loop body is
    /// iteration-invariant, which is what port scheduling needs.
    pub fn bank_of(&self, access: &ArrayAccess) -> usize {
        self.array(&access.array).bank_of(access)
    }

    /// Row-major flattened constant offset of an access (the varying
    /// part of the subscripts contributes nothing — this is the same
    /// representative-iteration view `bank_of` uses).
    pub fn flat_offset(&self, access: &ArrayAccess) -> i64 {
        self.array(&access.array).flat_offset(access)
    }
}

/// One array's part of a [`MemoryBinding`]: its layout and row-major
/// strides, found once by name.
#[derive(Debug, Clone, Copy)]
pub struct BoundArray<'b> {
    num_memories: usize,
    layout: Option<ArrayLayout>,
    strides: Option<&'b [i64]>,
}

impl BoundArray<'_> {
    /// The array's layout, if it was bound.
    pub fn layout(&self) -> Option<ArrayLayout> {
        self.layout
    }

    /// [`MemoryBinding::bank_of`] for an access to this array.
    pub fn bank_of(&self, access: &ArrayAccess) -> usize {
        if self.num_memories <= 1 {
            return 0;
        }
        match self.layout {
            Some(layout) => bank_under(layout, self.flat_offset(access), self.num_memories),
            // Unbound arrays (e.g. introduced after binding) default to
            // bank 0.
            None => 0,
        }
    }

    /// [`MemoryBinding::flat_offset`] for an access to this array.
    pub fn flat_offset(&self, access: &ArrayAccess) -> i64 {
        self.strides
            .map_or(0, |strides| flat_offset(access, strides))
    }
}

/// [`MemoryBinding::flat_offset`] under the array's row-major `strides`.
fn flat_offset(access: &ArrayAccess, strides: &[i64]) -> i64 {
    access
        .indices
        .iter()
        .zip(strides)
        .map(|(idx, &stride)| idx.constant_term() * stride)
        .sum()
}

/// The bank of an element at row-major offset `flat` under `layout`.
fn bank_under(layout: ArrayLayout, flat: i64, num_memories: usize) -> usize {
    match layout {
        ArrayLayout::Single { bank } => bank,
        ArrayLayout::Cyclic { phase } => {
            (flat + phase as i64).rem_euclid(num_memories as i64) as usize
        }
    }
}

/// The accesses of one array, grouped in one walk of the body.
struct Accessed<'k> {
    /// The array's first access: every other one is compared with its
    /// signature.
    first: &'k ArrayAccess,
    /// The array's row-major strides (none for an undeclared array).
    strides: &'k [i64],
    /// Positions among all accesses of the array's first read and first
    /// write.
    first_read: Option<usize>,
    first_write: Option<usize>,
    /// All accesses share the first one's coefficient signature.
    uniform: bool,
    /// Row-major flat constant offset of every access.
    offsets: Vec<i64>,
}

/// Compute the memory binding for a (transformed) kernel.
///
/// Call this *before* peeling: peeled copies change coefficient
/// signatures (a substituted loop variable disappears) and would defeat
/// the renamability check, while `bank_of` keeps working on peeled
/// accesses because it only reads constant offsets.
pub fn assign_memories(kernel: &Kernel, num_memories: usize) -> MemoryBinding {
    let m = num_memories.max(1);
    let vars: Vec<String> = kernel.loop_vars();
    let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();

    // Row-major strides per array.
    let mut strides: HashMap<String, Vec<i64>> = HashMap::new();
    for a in kernel.arrays() {
        let mut s = vec![1i64; a.dims.len()];
        for d in (0..a.dims.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * a.dims[d + 1] as i64;
        }
        strides.insert(a.name.clone(), s);
    }

    // Group the accesses by array in order of first access. An array is
    // renamable when all its accesses share one signature.
    let mut arrays: Vec<Accessed<'_>> = Vec::new();
    let mut position = 0;
    visit_accesses(kernel.body(), &mut |acc, is_write| {
        let at = match arrays.iter().position(|g| g.first.array == acc.array) {
            Some(at) => at,
            None => {
                arrays.push(Accessed {
                    first: acc,
                    strides: strides
                        .get(acc.array.as_str())
                        .map_or(&[][..], Vec::as_slice),
                    first_read: None,
                    first_write: None,
                    uniform: true,
                    offsets: Vec::new(),
                });
                arrays.len() - 1
            }
        };
        let g = &mut arrays[at];
        let first = if is_write {
            &mut g.first_write
        } else {
            &mut g.first_read
        };
        first.get_or_insert(position);
        g.uniform = g.uniform && acc.same_signature(g.first, &var_refs);
        g.offsets.push(flat_offset(acc, g.strides));
        position += 1;
    });

    // Greedy phase/bank selection, reads before writes, in program order
    // of first appearance: read arrays by first read, then write-only
    // arrays by first write.
    arrays.sort_by_key(|g| (g.first_read.is_none(), g.first_read.or(g.first_write)));

    let mut bank_load = vec![0usize; m];
    let mut load = vec![0usize; m];
    let mut profile = vec![0usize; m];
    let mut layouts: HashMap<String, ArrayLayout> = HashMap::new();

    for g in &arrays {
        // Pick the candidate minimizing the per-bank load profile
        // (compared as the descending-sorted load vector, so a spread of
        // [2,1,1,0] beats a pile-up of [2,2,0,0]); ties keep the first
        // candidate, so the outcome is deterministic.
        let mut best: Option<(Vec<usize>, ArrayLayout, Vec<usize>)> = None;
        for c in 0..m {
            let cand = if g.uniform && m > 1 {
                ArrayLayout::Cyclic { phase: c }
            } else {
                ArrayLayout::Single { bank: c }
            };
            load.copy_from_slice(&bank_load);
            for &flat in &g.offsets {
                load[bank_under(cand, flat, m)] += 1;
            }
            profile.copy_from_slice(&load);
            profile.sort_unstable_by(|a, b| b.cmp(a));
            if best.as_ref().is_none_or(|(b, _, _)| profile < *b) {
                best = Some((profile.clone(), cand, load.clone()));
            }
        }
        let (_, chosen, chosen_load) = best.expect("at least one candidate");
        layouts.insert(g.first.array.to_string(), chosen);
        bank_load = chosen_load;
    }

    MemoryBinding {
        num_memories: m,
        layouts,
        strides,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unroll::unroll_and_jam;
    use defacto_ir::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn cyclic_layout_separates_consecutive_offsets() {
        let k = parse_kernel(FIR).unwrap();
        let u = unroll_and_jam(&k, &[2, 2]).unwrap();
        let b = assign_memories(&u, 4);
        assert_eq!(b.num_memories(), 4);
        assert!(matches!(b.layout("S"), Some(ArrayLayout::Cyclic { .. })));
        // The three S offsets (0, 1, 2) land in three distinct banks.
        let nest = u.perfect_nest().unwrap();
        let banks: Vec<usize> = defacto_ir::stmt::collect_accesses(nest.innermost_body())
            .iter()
            .filter(|(a, w)| a.array == "S" && !w)
            .map(|(a, _)| b.bank_of(a))
            .collect();
        let mut unique = banks.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 3, "banks {banks:?}");
    }

    #[test]
    fn non_uniform_array_gets_single_memory() {
        let k = parse_kernel(
            "kernel nu { in A: i32[130]; out B: i32[64];
               for i in 0..64 { B[i] = A[i] + A[2*i]; } }",
        )
        .unwrap();
        let b = assign_memories(&k, 4);
        assert!(matches!(b.layout("A"), Some(ArrayLayout::Single { .. })));
        assert!(matches!(b.layout("B"), Some(ArrayLayout::Cyclic { .. })));
    }

    #[test]
    fn single_memory_configuration() {
        let k = parse_kernel(FIR).unwrap();
        let b = assign_memories(&k, 1);
        let nest = k.perfect_nest().unwrap();
        for (a, _) in defacto_ir::stmt::collect_accesses(nest.innermost_body()) {
            assert_eq!(b.bank_of(&a), 0);
        }
    }

    #[test]
    fn two_dimensional_strides() {
        let k = parse_kernel(
            "kernel td { in A: i32[8][8]; out B: i32[8][8];
               for i in 0..8 { for j in 0..8 {
                 B[i][j] = A[i][j]; } } }",
        )
        .unwrap();
        let b = assign_memories(&k, 4);
        // Row-major: A[0][1] and A[1][0] differ by 1 vs 8 flat elements.
        use defacto_ir::AffineExpr;
        let a01 = ArrayAccess::new(
            "A",
            vec![
                AffineExpr::var("i"),
                AffineExpr::var("j") + AffineExpr::constant(1),
            ],
        );
        let a10 = ArrayAccess::new(
            "A",
            vec![
                AffineExpr::var("i") + AffineExpr::constant(1),
                AffineExpr::var("j"),
            ],
        );
        let base = ArrayAccess::new("A", vec![AffineExpr::var("i"), AffineExpr::var("j")]);
        let m = b.num_memories() as i64;
        let b0 = b.bank_of(&base) as i64;
        assert_eq!((b.bank_of(&a01) as i64 - b0).rem_euclid(m), 1);
        assert_eq!((b.bank_of(&a10) as i64 - b0).rem_euclid(m), 8 % m);
    }

    #[test]
    fn binding_is_deterministic() {
        let k = parse_kernel(FIR).unwrap();
        let b1 = assign_memories(&k, 4);
        let b2 = assign_memories(&k, 4);
        assert_eq!(b1, b2);
    }

    #[test]
    fn phases_balance_bank_load() {
        // Two arrays with identical access patterns should not pile onto
        // the same banks.
        let k = parse_kernel(
            "kernel bal { in A: i32[64]; in B: i32[64]; out C: i32[64];
               for i in 0..64 step 4 { C[i] = A[i] + B[i]; } }",
        )
        .unwrap();
        let b = assign_memories(&k, 4);
        use defacto_ir::AffineExpr;
        let a = ArrayAccess::new("A", vec![AffineExpr::var("i")]);
        let bb = ArrayAccess::new("B", vec![AffineExpr::var("i")]);
        assert_ne!(b.bank_of(&a), b.bank_of(&bb));
    }
}
