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

use defacto_ir::stmt::collect_accesses;
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

    /// The memory bank an access contends for, evaluated at the
    /// representative iteration (all loop indices zero). For cyclic
    /// arrays the *relative* bank pattern of a loop body is
    /// iteration-invariant, which is what port scheduling needs.
    pub fn bank_of(&self, access: &ArrayAccess) -> usize {
        if self.num_memories <= 1 {
            return 0;
        }
        match self.layouts.get(access.array.as_str()) {
            Some(&layout) => bank_under(layout, self.flat_offset(access), self.num_memories),
            // Unbound arrays (e.g. introduced after binding) default to
            // bank 0.
            None => 0,
        }
    }

    /// Row-major flattened constant offset of an access (the varying
    /// part of the subscripts contributes nothing — this is the same
    /// representative-iteration view `bank_of` uses).
    pub fn flat_offset(&self, access: &ArrayAccess) -> i64 {
        match self.strides.get(access.array.as_str()) {
            Some(strides) => flat_offset(access, strides),
            None => 0,
        }
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

/// Compute the memory binding for a (transformed) kernel.
///
/// Call this *before* peeling: peeled copies change coefficient
/// signatures (a substituted loop variable disappears) and would defeat
/// the renamability check, while `bank_of` keeps working on peeled
/// accesses because it only reads constant offsets.
pub fn assign_memories(kernel: &Kernel, num_memories: usize) -> MemoryBinding {
    let m = num_memories.max(1);
    let accesses = collect_accesses(kernel.body());
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

    // Renamability: all accesses of the array share one signature.
    let mut signatures: HashMap<&str, Vec<Vec<Vec<i64>>>> = HashMap::new();
    for (acc, _) in &accesses {
        let sig = acc.coeff_signature(&var_refs);
        let sigs = signatures.entry(acc.array.as_str()).or_default();
        if !sigs.contains(&sig) {
            sigs.push(sig);
        }
    }

    // Greedy phase/bank selection, reads before writes, in program order
    // of first appearance.
    let mut order: Vec<&str> = Vec::new();
    for (acc, is_write) in accesses.iter().filter(|(_, w)| !w) {
        let _ = is_write;
        if !order.contains(&acc.array.as_str()) {
            order.push(&acc.array);
        }
    }
    for (acc, _) in accesses.iter().filter(|(_, w)| *w) {
        if !order.contains(&acc.array.as_str()) {
            order.push(&acc.array);
        }
    }

    let mut bank_load = vec![0usize; m];
    let mut layouts: HashMap<String, ArrayLayout> = HashMap::new();

    for array in order {
        let renamable = signatures.get(array).map(|s| s.len() == 1).unwrap_or(true);
        let candidates: Vec<ArrayLayout> = if renamable && m > 1 {
            (0..m).map(|phase| ArrayLayout::Cyclic { phase }).collect()
        } else {
            (0..m).map(|bank| ArrayLayout::Single { bank }).collect()
        };
        // Pick the candidate minimizing the per-bank load profile
        // (compared as the descending-sorted load vector, so a spread of
        // [2,1,1,0] beats a pile-up of [2,2,0,0]); ties keep the first
        // candidate, so the outcome is deterministic.
        let mut best: Option<(Vec<usize>, ArrayLayout, Vec<usize>)> = None;
        let array_strides = strides.get(array).map(Vec::as_slice).unwrap_or(&[]);
        for cand in candidates {
            let mut load = bank_load.clone();
            for (acc, _) in accesses.iter().filter(|(a, _)| a.array == array) {
                load[bank_under(cand, flat_offset(acc, array_strides), m)] += 1;
            }
            let mut profile = load.clone();
            profile.sort_unstable_by(|a, b| b.cmp(a));
            if best.as_ref().map(|(b, _, _)| profile < *b).unwrap_or(true) {
                best = Some((profile, cand, load));
            }
        }
        let (_, chosen, load) = best.expect("at least one candidate");
        layouts.insert(array.to_string(), chosen);
        bank_load = load;
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
