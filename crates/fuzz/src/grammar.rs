//! Grammar-based kernel generation.
//!
//! Each `(seed, index)` pair deterministically produces one kernel-DSL
//! source string. The grammar is biased toward the shapes the rest of the
//! system cares about: perfect affine nests of depth 1–3, multi-array
//! reads and writes with reduction / stencil / guarded / scalar-chain /
//! rotate bodies, mixed bitwidths and optional value-range annotations.
//!
//! Roughly a quarter of the stream carries a deliberate *degenerate*
//! injection — reversed bounds, zero-trip loops, out-of-bounds accesses,
//! `while` control flow, duplicate or zero-extent or oversized
//! declarations, imperfect nests, negative steps. These kernels must be
//! **rejected with a typed diagnostic**, never crash a pass; the oracle
//! counts them separately so the campaign report shows both halves of the
//! contract.

use crate::rng::SplitMix64;

const VARS: [char; 3] = ['i', 'j', 'k'];
const TYPES: [&str; 6] = ["i8", "i16", "i32", "u8", "u16", "u32"];

/// The deliberate malformation (if any) injected into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A well-formed kernel that should survive every oracle.
    Clean,
    /// One loop iterates `hi..lo`: zero trips, must be DF010-rejected.
    ReversedBounds,
    /// One loop iterates `n..n`: zero trips, must be DF010-rejected.
    ZeroTrip,
    /// The innermost body is empty (declared arrays go unused).
    EmptyBody,
    /// One input array is declared one element short of its peak access.
    OobOffset,
    /// A `while` loop: unsupported control flow, syntax-rejected.
    WhileLoop,
    /// The first array is declared twice.
    DupDecl,
    /// One declaration exceeds the IR's element-count cap.
    HugeArray,
    /// An extra statement between two loop levels breaks the perfect nest.
    ImperfectNest,
    /// `step -1`: steps must be strictly positive.
    NegStep,
    /// A zero-extent array dimension.
    ZeroExtent,
    /// An extra never-referenced declaration (warning only — the kernel
    /// still flows through all six oracles).
    UnusedDecl,
}

impl Shape {
    fn pick(rng: &mut SplitMix64) -> Shape {
        if rng.chance(72) {
            return Shape::Clean;
        }
        *rng.pick(&[
            Shape::ReversedBounds,
            Shape::ZeroTrip,
            Shape::EmptyBody,
            Shape::OobOffset,
            Shape::WhileLoop,
            Shape::DupDecl,
            Shape::HugeArray,
            Shape::ImperfectNest,
            Shape::NegStep,
            Shape::ZeroExtent,
            Shape::UnusedDecl,
        ])
    }
}

struct LoopSpec {
    var: char,
    lower: i64,
    trips: i64,
    step: i64,
    reversed: bool,
    neg_step: bool,
}

impl LoopSpec {
    fn upper(&self) -> i64 {
        self.lower + self.trips * self.step
    }

    /// Largest value the induction variable takes (assuming `trips > 0`).
    fn max_index(&self) -> i64 {
        self.lower + (self.trips - 1).max(0) * self.step
    }

    fn header(&self) -> String {
        let (lo, hi) = if self.reversed {
            (self.upper(), self.lower)
        } else {
            (self.lower, self.upper())
        };
        let step = if self.neg_step {
            " step -1".to_string()
        } else if self.step != 1 {
            format!(" step {}", self.step)
        } else {
            String::new()
        };
        format!("for {} in {}..{}{}", self.var, lo, hi, step)
    }
}

/// One affine subscript: `Σ coeff·var + offset`.
#[derive(Clone)]
struct Sub {
    terms: Vec<(i64, char)>,
    off: i64,
}

impl Sub {
    fn var(v: char) -> Sub {
        Sub {
            terms: vec![(1, v)],
            off: 0,
        }
    }

    fn scaled(c: i64, v: char) -> Sub {
        Sub {
            terms: vec![(c, v)],
            off: 0,
        }
    }

    fn sum(vars: &[char]) -> Sub {
        Sub {
            terms: vars.iter().map(|&v| (1, v)).collect(),
            off: 0,
        }
    }

    fn konst(c: i64) -> Sub {
        Sub {
            terms: Vec::new(),
            off: c,
        }
    }

    fn plus(mut self, off: i64) -> Sub {
        self.off += off;
        self
    }

    fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .terms
            .iter()
            .map(|(c, v)| {
                if *c == 1 {
                    v.to_string()
                } else {
                    format!("{c}*{v}")
                }
            })
            .collect();
        if self.off != 0 || parts.is_empty() {
            parts.push(self.off.to_string());
        }
        parts.join(" + ")
    }

    /// Peak subscript value over the iteration space (coefficients are
    /// non-negative by construction).
    fn max_val(&self, loops: &[LoopSpec]) -> i64 {
        let vars: i64 = self
            .terms
            .iter()
            .map(|(c, v)| {
                c * loops
                    .iter()
                    .find(|l| l.var == *v)
                    .map(LoopSpec::max_index)
                    .unwrap_or(0)
            })
            .sum();
        vars + self.off
    }
}

struct ArrayReg {
    name: String,
    ty: &'static str,
    kind: &'static str,
    dims: Vec<i64>,
    range: Option<(i64, i64)>,
}

/// Accumulates declarations while statements are generated, so every
/// array's extent covers the peak subscript of every access to it.
struct Builder<'r> {
    loops: Vec<LoopSpec>,
    arrays: Vec<ArrayReg>,
    scalars: Vec<(String, &'static str)>,
    rng: &'r mut SplitMix64,
}

impl Builder<'_> {
    fn fresh_type(&mut self) -> &'static str {
        TYPES[self.rng.below(TYPES.len() as u64) as usize]
    }

    /// Register (or widen) `name` and render the access text.
    fn access(&mut self, name: &str, kind: &'static str, subs: &[Sub]) -> String {
        let dims: Vec<i64> = subs.iter().map(|s| s.max_val(&self.loops) + 1).collect();
        match self.arrays.iter_mut().find(|a| a.name == name) {
            Some(a) => {
                for (have, want) in a.dims.iter_mut().zip(dims) {
                    *have = (*have).max(want);
                }
            }
            None => {
                let ty = self.fresh_type();
                let range = if kind == "in" && self.rng.chance(25) {
                    Some(if ty.starts_with('i') {
                        (-8, 7)
                    } else {
                        (0, 15)
                    })
                } else {
                    None
                };
                self.arrays.push(ArrayReg {
                    name: name.to_string(),
                    ty,
                    kind,
                    dims,
                    range,
                });
            }
        }
        let idx: String = subs.iter().map(|s| format!("[{}]", s.render())).collect();
        format!("{name}{idx}")
    }

    fn scalar(&mut self, name: &str) -> String {
        if !self.scalars.iter().any(|(n, _)| n == name) {
            let ty = self.fresh_type();
            self.scalars.push((name.to_string(), ty));
        }
        name.to_string()
    }

    /// Register `name` with the type of the registered scalar `like`: a
    /// rotate chain holds one type. It draws a type as [`Self::scalar`]
    /// does and discards it, so both consume the same random stream.
    fn scalar_like(&mut self, name: &str, like: &str) -> String {
        let name = self.scalar(name);
        let ty = self
            .scalars
            .iter()
            .find(|(n, _)| n == like)
            .map(|&(_, t)| t);
        if let (Some(ty), Some(slot)) = (ty, self.scalars.iter_mut().find(|(n, _)| *n == name)) {
            slot.1 = ty;
        }
        name
    }

    /// Per-dimension subscripts for a dense rank-`depth` access, each var
    /// offset by `offs`.
    fn dense_subs(&self, offs: &[i64]) -> Vec<Sub> {
        self.loops
            .iter()
            .zip(offs)
            .map(|(l, &o)| Sub::var(l.var).plus(o))
            .collect()
    }
}

/// Generate the `index`-th kernel of the `seed` campaign.
pub fn generate_kernel(seed: u64, index: u64) -> String {
    let mut rng = SplitMix64::new(
        seed ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_add(0x5851_F42D_4C95_7F2D),
    );
    let shape = Shape::pick(&mut rng);
    generate_with_shape(&mut rng, index, shape)
}

/// Like [`generate_kernel`] but with the malformation fixed — used by the
/// generator's own tests and by campaign smoke checks.
pub fn generate_with_shape(rng: &mut SplitMix64, index: u64, mut shape: Shape) -> String {
    // Loop nest.
    let depth = match rng.below(10) {
        0..=2 => 1,
        3..=7 => 2,
        _ => 3,
    };
    if shape == Shape::ImperfectNest && depth < 2 {
        shape = Shape::Clean;
    }
    let mut loops: Vec<LoopSpec> = Vec::new();
    let mut product = 1i64;
    for (d, var) in VARS.iter().take(depth).enumerate() {
        let mut trips = *rng.pick(&[2i64, 3, 4, 5, 6, 8]);
        while product * trips > 96 {
            trips /= 2;
        }
        let trips = trips.max(2);
        product *= trips;
        let step = if rng.chance(15) { 2 } else { 1 };
        let lower = if rng.chance(25) {
            rng.range_i64(1, 2)
        } else {
            0
        };
        loops.push(LoopSpec {
            var: *var,
            lower,
            trips,
            step,
            reversed: false,
            neg_step: shape == Shape::NegStep && d == depth - 1,
        });
    }
    match shape {
        Shape::ReversedBounds => {
            let at = rng.below(depth as u64) as usize;
            loops[at].reversed = true;
        }
        Shape::ZeroTrip => {
            let at = rng.below(depth as u64) as usize;
            loops[at].trips = 0;
        }
        _ => {}
    }

    let mut b = Builder {
        loops,
        arrays: Vec::new(),
        scalars: Vec::new(),
        rng,
    };

    // Innermost statements.
    let mut inner: Vec<String> = Vec::new();
    if shape != Shape::EmptyBody {
        let nstmts = if b.rng.chance(35) { 2 } else { 1 };
        for s in 0..nstmts {
            let out = if s == 0 { "D" } else { "E" };
            let lines = gen_statement(&mut b, out);
            inner.extend(lines);
        }
    }
    if shape == Shape::WhileLoop {
        inner.push("while (i < 4) { }".to_string());
    }

    // Declaration fixups for the malformed shapes.
    match shape {
        Shape::OobOffset => {
            if let Some(a) = b.arrays.iter_mut().find(|a| a.kind == "in") {
                if a.dims[0] > 1 {
                    a.dims[0] -= 1;
                }
            }
        }
        Shape::HugeArray => b.arrays.push(ArrayReg {
            name: "H".into(),
            ty: "i8",
            kind: "in",
            dims: vec![1 << 25],
            range: None,
        }),
        Shape::ZeroExtent => b.arrays.push(ArrayReg {
            name: "Z".into(),
            ty: "i32",
            kind: "in",
            dims: vec![0],
            range: None,
        }),
        Shape::UnusedDecl => b.arrays.push(ArrayReg {
            name: "T".into(),
            ty: "i32",
            kind: "in",
            dims: vec![4],
            range: None,
        }),
        Shape::ImperfectNest => b.arrays.push(ArrayReg {
            name: "P".into(),
            ty: "i32",
            kind: "out",
            dims: vec![b.loops[0].max_index() + 1],
            range: None,
        }),
        _ => {}
    }

    // Assemble source text.
    let mut src = format!("kernel fz_{index} {{\n");
    for (n, a) in b.arrays.iter().enumerate() {
        let dims: String = a.dims.iter().map(|d| format!("[{d}]")).collect();
        let range = match a.range {
            Some((lo, hi)) => format!(" range {lo}..{hi}"),
            None => String::new(),
        };
        src.push_str(&format!(
            "  {} {}: {}{}{};\n",
            a.kind, a.name, a.ty, dims, range
        ));
        if shape == Shape::DupDecl && n == 0 {
            src.push_str(&format!(
                "  {} {}: {}{}{};\n",
                a.kind, a.name, a.ty, dims, range
            ));
        }
    }
    for (name, ty) in &b.scalars {
        src.push_str(&format!("  var {name}: {ty};\n"));
    }
    let depth = b.loops.len();
    for (level, l) in b.loops.iter().enumerate() {
        let pad = "  ".repeat(level + 1);
        src.push_str(&format!("{pad}{} {{\n", l.header()));
        if shape == Shape::ImperfectNest && level == 0 && depth >= 2 {
            // A sibling statement before the inner loop: imperfect nest.
            src.push_str(&format!("{pad}  P[{}] = 1;\n", b.loops[0].var));
        }
    }
    let body_pad = "  ".repeat(depth + 1);
    for line in &inner {
        for sub in line.split('\n') {
            src.push_str(&format!("{body_pad}{sub}\n"));
        }
    }
    for level in (0..depth).rev() {
        src.push_str(&format!("{}}}\n", "  ".repeat(level + 1)));
    }
    src.push_str("}\n");
    src
}

/// One innermost-body statement group writing to `out`.
fn gen_statement(b: &mut Builder<'_>, out: &str) -> Vec<String> {
    let depth = b.loops.len();
    let inner_var = b.loops[depth - 1].var;
    let all_vars: Vec<char> = b.loops.iter().map(|l| l.var).collect();
    let zero_offs = vec![0i64; depth];

    match b.rng.below(100) {
        // Reduction over the innermost loop(s), FIR/MM style.
        0..=29 => {
            let acc_subs = if depth >= 2 {
                b.loops[..depth - 1]
                    .iter()
                    .map(|l| Sub::var(l.var))
                    .collect::<Vec<_>>()
            } else {
                vec![Sub::konst(0)]
            };
            let acc = b.access(out, "inout", &acc_subs);
            let s = b.access("S", "in", &[Sub::sum(&all_vars)]);
            let c = b.access("C", "in", &[Sub::var(inner_var)]);
            vec![format!("{acc} = {acc} + {s} * {c};")]
        }
        // Pointwise map / stencil.
        30..=59 => {
            let dst = {
                let subs = b.dense_subs(&zero_offs);
                b.access(out, "out", &subs)
            };
            let mut offs = zero_offs.clone();
            offs[b.rng.below(depth as u64) as usize] += b.rng.range_i64(0, 2);
            let a0 = {
                let subs = b.dense_subs(&zero_offs);
                b.access("A", "in", &subs)
            };
            let a1 = {
                let subs = b.dense_subs(&offs);
                b.access("A", "in", &subs)
            };
            let expr = match b.rng.below(6) {
                0 => format!("{a0} + {a1}"),
                1 => format!("abs({a0} - {a1})"),
                2 => format!("({a0} + {a1}) / 2"),
                3 => format!("{a0} >> 1"),
                4 => format!("{a0} & 15"),
                _ => format!("{a0} > {a1} ? {a0} : {a1}"),
            };
            vec![format!("{dst} = {expr};")]
        }
        // Boundary-guarded write.
        60..=79 => {
            let inner = &b.loops[depth - 1];
            let mid = inner.lower + (inner.trips / 2).max(1) * inner.step;
            let dst = {
                let subs = b.dense_subs(&zero_offs);
                b.access(out, "out", &subs)
            };
            let a0 = {
                let subs = b.dense_subs(&zero_offs);
                b.access("A", "in", &subs)
            };
            let else_arm = if b.rng.chance(60) {
                format!(" else {{\n  {dst} = {a0} + 1;\n}}")
            } else {
                String::new()
            };
            vec![format!(
                "if ({inner_var} < {mid}) {{\n  {dst} = {a0};\n}}{else_arm}"
            )]
        }
        // Scalar chain through a declared variable.
        80..=91 => {
            let t = b.scalar("t");
            let a0 = {
                let subs = b.dense_subs(&zero_offs);
                b.access("A", "in", &subs)
            };
            let strided = {
                let sub = Sub::scaled(2, inner_var);
                b.access("C", "in", &[sub])
            };
            let dst = {
                let subs = b.dense_subs(&zero_offs);
                b.access(out, "out", &subs)
            };
            vec![
                format!("{t} = {a0} + {strided};"),
                format!("{dst} = {t} * 2;"),
            ]
        }
        // A four-register delay line: each value reaches `dst` four
        // iterations after it is loaded, so range inference needs more
        // passes than its cap and must widen to stay sound.
        96..=99 => {
            let regs: Vec<String> = ["d0", "d1", "d2", "d3"]
                .iter()
                .map(|r| b.scalar(r))
                .collect();
            let a0 = {
                let subs = b.dense_subs(&zero_offs);
                b.access("A", "in", &subs)
            };
            let dst = {
                let subs = b.dense_subs(&zero_offs);
                b.access(out, "out", &subs)
            };
            vec![
                format!("{dst} = {};", regs[3]),
                format!("{} = {};", regs[3], regs[2]),
                format!("{} = {};", regs[2], regs[1]),
                format!("{} = {};", regs[1], regs[0]),
                format!("{} = {a0};", regs[0]),
            ]
        }
        // Rotating register pair.
        _ => {
            let r0 = b.scalar("r0");
            let r1 = b.scalar_like("r1", &r0);
            let a0 = {
                let subs = b.dense_subs(&zero_offs);
                b.access("A", "in", &subs)
            };
            let dst = {
                let subs = b.dense_subs(&zero_offs);
                b.access(out, "out", &subs)
            };
            vec![
                format!("{r0} = {a0};"),
                format!("rotate({r0}, {r1});"),
                format!("{dst} = {r0} + {r1};"),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_kernel(7, 3), generate_kernel(7, 3));
        assert_ne!(generate_kernel(7, 3), generate_kernel(7, 4));
        assert_ne!(generate_kernel(7, 3), generate_kernel(8, 3));
    }

    #[test]
    fn clean_shapes_parse_and_lint_clean_or_warn() {
        let mut parsed = 0;
        for idx in 0..60u64 {
            let mut rng = SplitMix64::new(idx.wrapping_mul(0xA076_1D64_78BD_642F));
            let src = generate_with_shape(&mut rng, idx, Shape::Clean);
            let k = defacto_ir::parse_kernel(&src)
                .unwrap_or_else(|e| panic!("clean kernel must parse: {e}\n{src}"));
            let report = defacto_analysis::lint_kernel(&k);
            assert!(
                !report.has_errors(),
                "clean kernel must lint clean:\n{src}\n{:?}",
                report.diagnostics
            );
            parsed += 1;
        }
        assert_eq!(parsed, 60);
    }

    #[test]
    fn stream_mixes_clean_and_degenerate_kernels() {
        let (mut ok, mut bad) = (0, 0);
        for idx in 0..200u64 {
            let src = generate_kernel(11, idx);
            match defacto_ir::parse_kernel(&src) {
                Ok(k) if !defacto_analysis::lint_kernel(&k).has_errors() => ok += 1,
                _ => bad += 1,
            }
        }
        assert!(ok >= 100, "expected a mostly-clean stream, got {ok}/200");
        assert!(bad >= 10, "expected degenerate injections, got {bad}/200");
    }

    #[test]
    fn degenerate_shapes_are_rejected_not_accepted() {
        for (shape, idx) in [
            (Shape::ReversedBounds, 1u64),
            (Shape::ZeroTrip, 2),
            (Shape::WhileLoop, 3),
            (Shape::HugeArray, 4),
            (Shape::ZeroExtent, 5),
            (Shape::NegStep, 6),
        ] {
            let mut rng = SplitMix64::new(idx);
            let src = generate_with_shape(&mut rng, idx, shape);
            let rejected = match defacto_ir::parse_kernel(&src) {
                Err(_) => true,
                Ok(k) => defacto_analysis::lint_kernel(&k).has_errors(),
            };
            assert!(rejected, "{shape:?} should be rejected:\n{src}");
        }
    }
}
