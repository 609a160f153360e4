//! Canonical form and stable content hashing of kernels.
//!
//! The persistent cross-run cache (the `defacto-cache` crate) is
//! content-addressed: two invocations must agree on a key for "the same
//! kernel" even when the kernels were written by different hands. The
//! canonical form makes that precise. Canonicalization applies, in order:
//!
//! 1. **Bound normalization** — every loop is rewritten to `0..trip`
//!    with unit step, substituting `var := step*var + lower` into affine
//!    subscripts and non-subscript reads (the same rewrite the pipeline's
//!    `normalize_loops` pass performs, so kernels that normalize alike
//!    canonicalize alike);
//! 2. **Alpha-renaming** — loop variables are renamed positionally per
//!    binding site (`i0`, `i1`, … in pre-order), scalars and arrays by
//!    first use in the body (`s0…`, `a0…`); declarations never used in
//!    the body are ordered by structural shape after all used ones;
//! 3. **Declaration sorting** — declarations are emitted in canonical
//!    index order, and the kernel is renamed to `k`.
//!
//! The resulting kernel is hashed with a fixed 128-bit FNV-1a over a
//! structural byte stream. Unlike `DefaultHasher`, the algorithm is
//! pinned here, so hashes are stable across processes and toolchain
//! versions — a requirement for on-disk keys. The guarantee:
//! **structurally identical kernels (alpha-renamed, decl-reordered,
//! bound-shifted, or renamed kernels) hash identically**, and the
//! estimate pipeline is invariant under exactly those rewrites (see
//! DESIGN.md §12 for the soundness argument).
//!
//! Besides the whole-kernel hash, [`canonicalize`] reports per-subtree
//! hashes (the declaration group, every loop subtree, and the innermost
//! perfect-nest body). Incremental re-exploration diffs these to decide
//! which analyses an edit invalidated.

use crate::affine::AffineExpr;
use crate::decl::{ArrayDecl, ArrayKind, ScalarDecl};
use crate::expr::{ArrayAccess, BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::name::Name;
use crate::stmt::{LValue, Loop, Stmt};
use crate::types::ScalarType;
use std::collections::HashMap;
use std::fmt;

/// A stable 128-bit content hash (FNV-1a over the canonical structural
/// byte stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Render as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the `to_hex` form.
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV128_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Streaming FNV-1a/128. Field boundaries are disambiguated with tag
/// bytes and length prefixes so distinct structures cannot collide by
/// concatenation.
struct Hasher128 {
    state: u128,
}

impl Hasher128 {
    fn new(domain: u8) -> Hasher128 {
        let mut h = Hasher128 {
            state: FNV128_BASIS,
        };
        h.byte(domain);
        h
    }

    fn byte(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> ContentHash {
        ContentHash(self.state)
    }
}

/// The hash of one addressable IR subtree of the canonical kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeHash {
    /// Stable path: `decls` for the declaration group, `l0`, `l0/l1`, …
    /// for loop subtrees (index = position among `For` statements at
    /// that nesting level, outermost first), `innermost` for the
    /// innermost body of a perfect nest.
    pub path: String,
    /// Structural hash of the subtree in canonical form.
    pub hash: ContentHash,
}

/// A kernel in canonical form, with its content hash and per-subtree
/// hashes.
#[derive(Debug, Clone)]
pub struct CanonicalKernel {
    /// The canonical kernel (normalized, alpha-renamed, decls sorted).
    pub kernel: Kernel,
    /// Whole-kernel content hash.
    pub hash: ContentHash,
    /// Subtree hashes, in a deterministic order (decls first, then
    /// loops pre-order, then `innermost` when the body is a perfect
    /// nest).
    pub subtrees: Vec<SubtreeHash>,
}

impl CanonicalKernel {
    /// Look up a subtree hash by path.
    pub fn subtree(&self, path: &str) -> Option<ContentHash> {
        self.subtrees
            .iter()
            .find(|s| s.path == path)
            .map(|s| s.hash)
    }

    /// Paths whose hashes differ between `self` and `other` (present in
    /// either). This is the invalidation set of an edit.
    pub fn changed_subtrees(&self, other: &CanonicalKernel) -> Vec<String> {
        let mut changed = Vec::new();
        for s in &self.subtrees {
            if other.subtree(&s.path) != Some(s.hash) {
                changed.push(s.path.clone());
            }
        }
        for s in &other.subtrees {
            if self.subtree(&s.path).is_none() && !changed.contains(&s.path) {
                changed.push(s.path.clone());
            }
        }
        changed
    }
}

/// Compute the canonical form and content hash of `kernel`.
pub fn canonicalize(kernel: &Kernel) -> CanonicalKernel {
    let mut cx = Canonicalizer::new(kernel);
    let body = cx.rename_stmts(kernel.body());
    let (arrays, scalars) = cx.canonical_decls();
    let canonical = Kernel::new("k", arrays, scalars, body)
        .expect("canonical rebuild of a valid kernel is valid");
    let hash = hash_kernel(&canonical);
    let subtrees = subtree_hashes(&canonical);
    CanonicalKernel {
        kernel: canonical,
        hash,
        subtrees,
    }
}

/// The canonical content hash of `kernel` (shorthand for
/// `canonicalize(kernel).hash`).
pub fn content_hash(kernel: &Kernel) -> ContentHash {
    canonicalize(kernel).hash
}

/// Alpha-renaming and bound-normalization state.
struct Canonicalizer<'k> {
    kernel: &'k Kernel,
    /// Original array name → canonical index, in first-use order.
    arrays: HashMap<String, usize>,
    /// Original scalar name → canonical index, in first-use order.
    scalars: HashMap<String, usize>,
    /// Canonical array names by index (`a0`, `a1`, …), made once and
    /// shared by every occurrence.
    array_names: Vec<Name>,
    /// Canonical scalar names by index (`s0`, `s1`, …).
    scalar_names: Vec<Name>,
    /// Per-binding-site loop-variable scopes: `(original, canonical)`,
    /// innermost last.
    scopes: Vec<(Name, Name)>,
    next_ivar: usize,
}

/// The canonical name of `original` in `names` (`{prefix}{index}`, by
/// first use), numbering it on first sight.
fn numbered(
    index: &mut HashMap<String, usize>,
    names: &mut Vec<Name>,
    prefix: char,
    original: &str,
) -> Name {
    let idx = match index.get(original) {
        Some(&idx) => idx,
        None => {
            let idx = index.len();
            index.insert(original.to_string(), idx);
            names.push(Name::from(format!("{prefix}{idx}")));
            idx
        }
    };
    names[idx].clone()
}

impl<'k> Canonicalizer<'k> {
    fn new(kernel: &'k Kernel) -> Canonicalizer<'k> {
        Canonicalizer {
            kernel,
            arrays: HashMap::new(),
            scalars: HashMap::new(),
            array_names: Vec::new(),
            scalar_names: Vec::new(),
            scopes: Vec::new(),
            next_ivar: 0,
        }
    }

    fn array_name(&mut self, original: &str) -> Name {
        numbered(&mut self.arrays, &mut self.array_names, 'a', original)
    }

    /// Canonical name of a value read/written as a scalar: an in-scope
    /// loop variable, else a declared scalar (allocated by first use).
    fn value_name(&mut self, original: &str) -> Name {
        for (orig, canon) in self.scopes.iter().rev() {
            if *orig == *original {
                return canon.clone();
            }
        }
        if self.kernel.scalar(original).is_some() {
            numbered(&mut self.scalars, &mut self.scalar_names, 's', original)
        } else {
            // Out-of-scope or undeclared name (impossible in a validated
            // kernel); keep it so validation reports it faithfully.
            Name::from(original)
        }
    }

    fn rename_stmts(&mut self, stmts: &[Stmt]) -> Vec<Stmt> {
        stmts.iter().map(|s| self.rename_stmt(s)).collect()
    }

    fn rename_stmt(&mut self, stmt: &Stmt) -> Stmt {
        match stmt {
            Stmt::Assign { lhs, rhs } => Stmt::Assign {
                lhs: match lhs {
                    LValue::Scalar(n) => LValue::Scalar(self.value_name(n)),
                    LValue::Array(a) => LValue::Array(self.rename_access(a)),
                },
                rhs: self.rename_expr(rhs).into(),
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: self.rename_expr(cond),
                then_body: self.rename_stmts(then_body),
                else_body: self.rename_stmts(else_body),
            },
            Stmt::For(l) => {
                let canon_var = Name::from(format!("i{}", self.next_ivar));
                self.next_ivar += 1;
                self.scopes.push((l.var.clone(), canon_var.clone()));
                // Normalize bounds: `for v in lo..hi step s` becomes
                // `for v in 0..trip` with `v := s*v + lo` substituted in
                // the body (the rename pass below reads the scope entry,
                // the normalization is applied structurally here).
                let body = if l.lower == 0 && l.step == 1 {
                    self.rename_stmts(&l.body)
                } else {
                    let renamed = self.rename_stmts(&l.body);
                    let step = l.step.max(1);
                    normalize_var_stmts(&renamed, &canon_var, step, l.lower)
                };
                self.scopes.pop();
                Stmt::For(Loop {
                    var: canon_var,
                    lower: 0,
                    upper: l.trip_count(),
                    step: 1,
                    body,
                })
            }
            Stmt::Rotate(regs) => Stmt::Rotate(regs.iter().map(|r| self.value_name(r)).collect()),
        }
    }

    fn rename_expr(&mut self, expr: &Expr) -> Expr {
        match expr {
            Expr::Int(v) => Expr::Int(*v),
            Expr::Scalar(n) => Expr::Scalar(self.value_name(n)),
            Expr::Load(a) => Expr::Load(self.rename_access(a)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(self.rename_expr(e))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(self.rename_expr(a)),
                Box::new(self.rename_expr(b)),
            ),
            Expr::Select(c, t, e) => Expr::Select(
                Box::new(self.rename_expr(c)),
                Box::new(self.rename_expr(t)),
                Box::new(self.rename_expr(e)),
            ),
        }
    }

    fn rename_access(&mut self, access: &ArrayAccess) -> ArrayAccess {
        let array = self.array_name(&access.array);
        let indices = access
            .indices
            .iter()
            .map(|e| self.rename_affine(e))
            .collect();
        ArrayAccess { array, indices }
    }

    fn rename_affine(&mut self, e: &AffineExpr) -> AffineExpr {
        let terms: Vec<(Name, i64)> = e.terms().map(|(v, c)| (self.value_name(v), c)).collect();
        AffineExpr::from_terms(terms, e.constant_term())
    }

    /// Declarations in canonical order: used decls by first-use index,
    /// then unused ones sorted by structural shape (interchangeable, so
    /// shape order is canonical), all renamed.
    fn canonical_decls(&self) -> (Vec<ArrayDecl>, Vec<ScalarDecl>) {
        let mut arrays: Vec<ArrayDecl> = Vec::with_capacity(self.kernel.arrays().len());
        let mut used: Vec<(usize, &ArrayDecl)> = Vec::new();
        let mut unused_arrays: Vec<&ArrayDecl> = Vec::new();
        for a in self.kernel.arrays() {
            match self.arrays.get(&a.name) {
                Some(&idx) => used.push((idx, a)),
                None => unused_arrays.push(a),
            }
        }
        used.sort_by_key(|(idx, _)| *idx);
        unused_arrays.sort_by_key(|a| array_shape_key(a));
        for (idx, a) in used {
            let mut d = a.clone();
            d.name = format!("a{idx}");
            arrays.push(d);
        }
        let base = arrays.len();
        for (off, a) in unused_arrays.into_iter().enumerate() {
            let mut d = a.clone();
            d.name = format!("a{}", base + off);
            arrays.push(d);
        }

        let mut scalars: Vec<ScalarDecl> = Vec::with_capacity(self.kernel.scalars().len());
        let mut used_s: Vec<(usize, &ScalarDecl)> = Vec::new();
        let mut unused_s: Vec<&ScalarDecl> = Vec::new();
        for s in self.kernel.scalars() {
            match self.scalars.get(&s.name) {
                Some(&idx) => used_s.push((idx, s)),
                None => unused_s.push(s),
            }
        }
        used_s.sort_by_key(|(idx, _)| *idx);
        unused_s.sort_by_key(|s| scalar_shape_key(s));
        for (idx, s) in used_s {
            let mut d = s.clone();
            d.name = format!("s{idx}");
            scalars.push(d);
        }
        let base = scalars.len();
        for (off, s) in unused_s.into_iter().enumerate() {
            let mut d = s.clone();
            d.name = format!("s{}", base + off);
            scalars.push(d);
        }
        (arrays, scalars)
    }
}

/// Substitute `var := step*var + lower` into `stmts`: affine subscripts
/// are rewritten exactly, non-subscript scalar reads of `var` become the
/// expression `var*step + lower` (matching the pipeline's
/// `normalize_loops` rewrite).
fn normalize_var_stmts(stmts: &[Stmt], var: &str, step: i64, lower: i64) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| normalize_var_stmt(s, var, step, lower))
        .collect()
}

fn normalize_var_stmt(stmt: &Stmt, var: &str, step: i64, lower: i64) -> Stmt {
    match stmt {
        Stmt::Assign { lhs, rhs } => Stmt::Assign {
            lhs: match lhs {
                LValue::Scalar(n) => LValue::Scalar(n.clone()),
                LValue::Array(a) => LValue::Array(normalize_var_access(a, var, step, lower)),
            },
            rhs: normalize_var_expr(rhs, var, step, lower).into(),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: normalize_var_expr(cond, var, step, lower),
            then_body: normalize_var_stmts(then_body, var, step, lower),
            else_body: normalize_var_stmts(else_body, var, step, lower),
        },
        // An inner loop never rebinds `var` (nested loops cannot share
        // induction variables), so the substitution passes through.
        Stmt::For(l) => Stmt::For(Loop {
            var: l.var.clone(),
            lower: l.lower,
            upper: l.upper,
            step: l.step,
            body: normalize_var_stmts(&l.body, var, step, lower),
        }),
        Stmt::Rotate(r) => Stmt::Rotate(r.clone()),
    }
}

fn normalize_var_expr(expr: &Expr, var: &str, step: i64, lower: i64) -> Expr {
    match expr {
        Expr::Int(v) => Expr::Int(*v),
        Expr::Scalar(n) if n == var => {
            // v := v*step + lower, folding the identity parts away.
            let mut e = Expr::Scalar(n.clone());
            if step != 1 {
                e = Expr::bin(BinOp::Mul, e, Expr::Int(step));
            }
            if lower != 0 {
                e = Expr::bin(BinOp::Add, e, Expr::Int(lower));
            }
            e
        }
        Expr::Scalar(n) => Expr::Scalar(n.clone()),
        Expr::Load(a) => Expr::Load(normalize_var_access(a, var, step, lower)),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(normalize_var_expr(e, var, step, lower))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(normalize_var_expr(a, var, step, lower)),
            Box::new(normalize_var_expr(b, var, step, lower)),
        ),
        Expr::Select(c, t, e) => Expr::Select(
            Box::new(normalize_var_expr(c, var, step, lower)),
            Box::new(normalize_var_expr(t, var, step, lower)),
            Box::new(normalize_var_expr(e, var, step, lower)),
        ),
    }
}

fn normalize_var_access(access: &ArrayAccess, var: &str, step: i64, lower: i64) -> ArrayAccess {
    access.map_indices(|e| {
        let c = e.coeff(var);
        if c == 0 {
            return e.clone();
        }
        let terms: Vec<(String, i64)> = e
            .terms()
            .map(|(v, k)| {
                if v == var {
                    (v.to_string(), k * step)
                } else {
                    (v.to_string(), k)
                }
            })
            .collect();
        AffineExpr::from_terms(terms, e.constant_term() + c * lower)
    })
}

fn array_shape_key(a: &ArrayDecl) -> (u8, u8, Vec<usize>, Option<(i64, i64)>) {
    (kind_tag(a.kind), type_tag(a.ty), a.dims.clone(), a.range)
}

fn scalar_shape_key(s: &ScalarDecl) -> (u8, bool) {
    (type_tag(s.ty), s.compiler_temp)
}

fn kind_tag(k: ArrayKind) -> u8 {
    match k {
        ArrayKind::In => 0,
        ArrayKind::Out => 1,
        ArrayKind::InOut => 2,
    }
}

fn type_tag(t: ScalarType) -> u8 {
    // Width + signedness pins the tag without naming every variant.
    let base = match t.bits() {
        8 => 0,
        16 => 2,
        32 => 4,
        b => 6 + (b as u8 & 1),
    };
    base + t.is_signed() as u8
}

fn bin_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Shl => 5,
        BinOp::Shr => 6,
        BinOp::And => 7,
        BinOp::Or => 8,
        BinOp::Xor => 9,
        BinOp::Eq => 10,
        BinOp::Ne => 11,
        BinOp::Lt => 12,
        BinOp::Le => 13,
        BinOp::Gt => 14,
        BinOp::Ge => 15,
    }
}

fn un_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::Abs => 2,
    }
}

/// Structural hash of a whole (already canonical) kernel.
fn hash_kernel(k: &Kernel) -> ContentHash {
    let mut h = Hasher128::new(b'K');
    hash_decls_into(&mut h, k);
    h.u64(k.body().len() as u64);
    hash_stmts(&mut h, k.body());
    h.finish()
}

fn hash_decls_into(h: &mut Hasher128, k: &Kernel) {
    h.u64(k.arrays().len() as u64);
    for a in k.arrays() {
        h.byte(b'A');
        h.str(&a.name);
        h.byte(type_tag(a.ty));
        h.byte(kind_tag(a.kind));
        h.u64(a.dims.len() as u64);
        for &d in &a.dims {
            h.u64(d as u64);
        }
        match a.range {
            None => h.byte(0),
            Some((lo, hi)) => {
                h.byte(1);
                h.i64(lo);
                h.i64(hi);
            }
        }
    }
    h.u64(k.scalars().len() as u64);
    for s in k.scalars() {
        h.byte(b'S');
        h.str(&s.name);
        h.byte(type_tag(s.ty));
        h.byte(s.compiler_temp as u8);
    }
}

fn hash_stmts(h: &mut Hasher128, stmts: &[Stmt]) {
    for s in stmts {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut Hasher128, stmt: &Stmt) {
    match stmt {
        Stmt::Assign { lhs, rhs } => {
            h.byte(1);
            match lhs {
                LValue::Scalar(n) => {
                    h.byte(0);
                    h.str(n);
                }
                LValue::Array(a) => {
                    h.byte(1);
                    hash_access(h, a);
                }
            }
            hash_expr(h, rhs);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            h.byte(2);
            hash_expr(h, cond);
            h.u64(then_body.len() as u64);
            hash_stmts(h, then_body);
            h.u64(else_body.len() as u64);
            hash_stmts(h, else_body);
        }
        Stmt::For(l) => {
            h.byte(3);
            hash_loop(h, l);
        }
        Stmt::Rotate(regs) => {
            h.byte(4);
            h.u64(regs.len() as u64);
            for r in regs.iter() {
                h.str(r);
            }
        }
    }
}

fn hash_loop(h: &mut Hasher128, l: &Loop) {
    h.str(&l.var);
    h.i64(l.lower);
    h.i64(l.upper);
    h.i64(l.step);
    h.u64(l.body.len() as u64);
    hash_stmts(h, &l.body);
}

fn hash_expr(h: &mut Hasher128, e: &Expr) {
    match e {
        Expr::Int(v) => {
            h.byte(10);
            h.i64(*v);
        }
        Expr::Scalar(n) => {
            h.byte(11);
            h.str(n);
        }
        Expr::Load(a) => {
            h.byte(12);
            hash_access(h, a);
        }
        Expr::Unary(op, e) => {
            h.byte(13);
            h.byte(un_tag(*op));
            hash_expr(h, e);
        }
        Expr::Binary(op, a, b) => {
            h.byte(14);
            h.byte(bin_tag(*op));
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Select(c, t, f) => {
            h.byte(15);
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, f);
        }
    }
}

fn hash_access(h: &mut Hasher128, a: &ArrayAccess) {
    h.str(&a.array);
    h.u64(a.indices.len() as u64);
    for idx in &a.indices {
        h.u64(idx.num_vars() as u64);
        for (v, c) in idx.terms() {
            h.str(v);
            h.i64(c);
        }
        h.i64(idx.constant_term());
    }
}

/// Subtree hashes of a canonical kernel: the declaration group, every
/// loop subtree in pre-order, and the innermost body of a perfect nest.
fn subtree_hashes(k: &Kernel) -> Vec<SubtreeHash> {
    let mut out = Vec::new();
    let mut h = Hasher128::new(b'D');
    hash_decls_into(&mut h, k);
    out.push(SubtreeHash {
        path: "decls".to_string(),
        hash: h.finish(),
    });
    collect_loop_hashes(k.body(), "", &mut out);
    if let Some(nest) = k.perfect_nest() {
        let mut h = Hasher128::new(b'B');
        let body = nest.innermost_body();
        h.u64(body.len() as u64);
        hash_stmts(&mut h, body);
        out.push(SubtreeHash {
            path: "innermost".to_string(),
            hash: h.finish(),
        });
    }
    out
}

fn collect_loop_hashes(stmts: &[Stmt], prefix: &str, out: &mut Vec<SubtreeHash>) {
    let mut idx = 0usize;
    for s in stmts {
        if let Stmt::For(l) = s {
            let path = if prefix.is_empty() {
                format!("l{idx}")
            } else {
                format!("{prefix}/l{idx}")
            };
            let mut h = Hasher128::new(b'L');
            hash_loop(&mut h, l);
            out.push(SubtreeHash {
                path: path.clone(),
                hash: h.finish(),
            });
            collect_loop_hashes(&l.body, &path, out);
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    // Alpha-renamed (loop vars, arrays, kernel name) and decl-reordered.
    const FIR_RENAMED: &str = "kernel f2 { inout Dst: i32[64]; in Coef: i32[32]; in Sig: i32[96];
       for a in 0..64 { for b in 0..32 {
         Dst[a] = Dst[a] + Sig[b + a] * Coef[b]; } } }";

    // Bounds shifted by +2 with compensated subscripts.
    const FIR_SHIFTED: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 2..66 { for i in 0..32 {
         D[j - 2] = D[j - 2] + S[i + j - 2] * C[i]; } } }";

    #[test]
    fn alpha_renamed_and_reordered_kernels_hash_identically() {
        let a = parse_kernel(FIR).unwrap();
        let b = parse_kernel(FIR_RENAMED).unwrap();
        let ca = canonicalize(&a);
        let cb = canonicalize(&b);
        assert_eq!(ca.hash, cb.hash);
        assert_eq!(ca.kernel, cb.kernel);
        assert_eq!(ca.subtrees, cb.subtrees);
    }

    #[test]
    fn shifted_bounds_normalize_to_the_same_hash() {
        let a = parse_kernel(FIR).unwrap();
        let b = parse_kernel(FIR_SHIFTED).unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn distinct_kernels_hash_differently() {
        let a = parse_kernel(FIR).unwrap();
        let smaller = FIR.replace("0..64", "0..32");
        let b = parse_kernel(&smaller).unwrap();
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn inner_edit_leaves_outer_independent_subtrees_alone() {
        let a = canonicalize(&parse_kernel(FIR).unwrap());
        let edited = FIR.replace("0..32", "0..16");
        let b = canonicalize(&parse_kernel(&edited).unwrap());
        let changed = a.changed_subtrees(&b);
        assert!(changed.contains(&"l0".to_string()), "{changed:?}");
        assert!(changed.contains(&"l0/l0".to_string()), "{changed:?}");
        assert!(!changed.contains(&"decls".to_string()), "{changed:?}");
        // The innermost statement body is bound-independent.
        assert_eq!(a.subtree("innermost"), b.subtree("innermost"));
    }

    #[test]
    fn decl_edit_leaves_loop_subtrees_alone() {
        let a = canonicalize(&parse_kernel(FIR).unwrap());
        let edited = FIR.replace("in S: i32[96]", "in S: i16[96]");
        let b = canonicalize(&parse_kernel(&edited).unwrap());
        let changed = a.changed_subtrees(&b);
        assert!(changed.contains(&"decls".to_string()), "{changed:?}");
        assert!(!changed.iter().any(|p| p.starts_with('l')), "{changed:?}");
    }

    #[test]
    fn content_hash_is_stable_across_calls() {
        let k = parse_kernel(FIR).unwrap();
        assert_eq!(content_hash(&k), content_hash(&k));
    }

    #[test]
    fn hex_round_trip() {
        let h = content_hash(&parse_kernel(FIR).unwrap());
        assert_eq!(ContentHash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(ContentHash::from_hex("zz"), None);
    }

    #[test]
    fn sibling_loops_with_shared_vs_distinct_vars_are_alpha_equal() {
        let shared = "kernel k { out A: i32[8]; out B: i32[8];
           for i in 0..8 { A[i] = i; } for i in 0..8 { B[i] = i; } }";
        let distinct = "kernel k { out A: i32[8]; out B: i32[8];
           for i in 0..8 { A[i] = i; } for j in 0..8 { B[j] = j; } }";
        let a = parse_kernel(shared).unwrap();
        let b = parse_kernel(distinct).unwrap();
        assert_eq!(content_hash(&a), content_hash(&b));
    }
}
