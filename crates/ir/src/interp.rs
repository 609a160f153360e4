//! Reference interpreter.
//!
//! The interpreter executes a kernel over concrete array contents and is
//! the semantics oracle of the whole system: every transformation in
//! `defacto-xform` must leave the input/output behaviour of the kernel
//! unchanged, which the test suites check by running original and
//! transformed kernels on identical inputs and comparing the output
//! arrays.
//!
//! It also records an [`ExecStats`] memory-traffic profile (loads/stores
//! per array, operation counts), which the tests use to verify that scalar
//! replacement and redundant-write elimination actually remove memory
//! accesses. [`Interpreter::run_observed`] also records the least and
//! greatest value written under every name, which checks inferred value
//! ranges against execution; a plain [`Interpreter::run`] records
//! nothing and pays nothing for it.

use crate::decl::ArrayKind;
use crate::error::{IrError, Result};
use crate::expr::{ArrayAccess, Expr};
use crate::kernel::Kernel;
use crate::name::Name;
use crate::stmt::{LValue, Stmt};
use crate::types::ScalarType;
use std::collections::{BTreeMap, HashMap};

/// Concrete array storage for one kernel execution.
///
/// Values are held as `i64` and wrapped to the declared element type on
/// every store, mirroring a fixed-width hardware datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workspace {
    arrays: BTreeMap<String, Vec<i64>>,
    types: BTreeMap<String, ScalarType>,
}

impl Workspace {
    /// Allocate zero-initialized storage for every array of `kernel`.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        let mut arrays = BTreeMap::new();
        let mut types = BTreeMap::new();
        for a in kernel.arrays() {
            arrays.insert(a.name.clone(), vec![0; a.len()]);
            types.insert(a.name.clone(), a.ty);
        }
        Workspace { arrays, types }
    }

    /// Overwrite the contents of `name`.
    ///
    /// Values are wrapped to the array's element type.
    ///
    /// # Errors
    ///
    /// Fails if the array is undeclared or `data` has the wrong length.
    pub fn set_array(&mut self, name: &str, data: &[i64]) -> Result<()> {
        let ty = *self
            .types
            .get(name)
            .ok_or_else(|| IrError::Undeclared(name.to_string()))?;
        let slot = self
            .arrays
            .get_mut(name)
            .ok_or_else(|| IrError::Undeclared(name.to_string()))?;
        if slot.len() != data.len() {
            return Err(IrError::Invalid(format!(
                "array `{name}` holds {} elements but {} were supplied",
                slot.len(),
                data.len()
            )));
        }
        for (dst, &v) in slot.iter_mut().zip(data) {
            *dst = ty.wrap(v);
        }
        Ok(())
    }

    /// Read-only view of an array's contents.
    pub fn array(&self, name: &str) -> Option<&[i64]> {
        self.arrays.get(name).map(Vec::as_slice)
    }

    /// Names of all arrays in the workspace.
    pub fn array_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.arrays.keys().map(String::as_str)
    }
}

/// Dynamic execution profile of one kernel run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Array-element loads, per array.
    pub loads_by_array: BTreeMap<String, u64>,
    /// Array-element stores, per array.
    pub stores_by_array: BTreeMap<String, u64>,
    /// Arithmetic/logic operations evaluated.
    pub ops: u64,
    /// Innermost statements executed.
    pub stmts: u64,
}

impl ExecStats {
    /// Total array loads across all arrays.
    pub fn loads(&self) -> u64 {
        self.loads_by_array.values().sum()
    }

    /// Total array stores across all arrays.
    pub fn stores(&self) -> u64 {
        self.stores_by_array.values().sum()
    }

    /// Total off-chip memory traffic (loads + stores).
    pub fn memory_accesses(&self) -> u64 {
        self.loads() + self.stores()
    }
}

/// Executes kernels against a [`Workspace`].
///
/// # Example
///
/// ```
/// use defacto_ir::{parse_kernel, Interpreter, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = parse_kernel(
///     "kernel double { in A: i32[4]; out B: i32[4];
///        for i in 0..4 { B[i] = A[i] * 2; } }",
/// )?;
/// let mut ws = Workspace::for_kernel(&k);
/// ws.set_array("A", &[1, 2, 3, 4])?;
/// let stats = Interpreter::new(&k).run(&mut ws)?;
/// assert_eq!(ws.array("B").unwrap(), &[2, 4, 6, 8]);
/// assert_eq!(stats.loads(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'k> {
    kernel: &'k Kernel,
}

struct Env {
    scalars: HashMap<Name, i64>,
    loop_vars: HashMap<Name, i64>,
}

/// Receives every value a run writes, after wrapping.
trait Observer {
    /// `value` written to a scalar, register or loop variable.
    fn scalar(&mut self, name: &Name, value: i64);
    /// `value` stored into an element of `array`.
    fn store(&mut self, array: &Name, value: i64);
}

/// No observer: every call compiles away.
impl Observer for () {
    fn scalar(&mut self, _: &Name, _: i64) {}
    fn store(&mut self, _: &Name, _: i64) {}
}

/// The least and greatest value written under each name, as
/// [`Interpreter::run_observed`] returns them: `[scalars, arrays]`, where
/// scalars include registers and loop variables and arrays count stores
/// only.
pub type Written = [BTreeMap<Name, (i64, i64)>; 2];

impl Observer for Written {
    fn scalar(&mut self, name: &Name, value: i64) {
        widen_span(&mut self[0], name, value);
    }

    fn store(&mut self, array: &Name, value: i64) {
        widen_span(&mut self[1], array, value);
    }
}

fn widen_span(spans: &mut BTreeMap<Name, (i64, i64)>, name: &Name, value: i64) {
    match spans.get_mut(name) {
        Some((lo, hi)) => {
            *lo = (*lo).min(value);
            *hi = (*hi).max(value);
        }
        None => {
            spans.insert(name.clone(), (value, value));
        }
    }
}

/// Length of `name` in `arrays`, zero when absent — only used to fill in
/// error payloads, never on the happy path.
fn decl_len(arrays: &BTreeMap<String, Vec<i64>>, name: &str) -> usize {
    arrays.get(name).map_or(0, Vec::len)
}

impl<'k> Interpreter<'k> {
    /// Create an interpreter for `kernel`.
    pub fn new(kernel: &'k Kernel) -> Self {
        Interpreter { kernel }
    }

    /// Execute the kernel, mutating `ws` in place.
    ///
    /// Scalars start at zero. Returns the memory-traffic profile.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds accesses or a workspace missing one of the
    /// kernel's arrays.
    pub fn run(&self, ws: &mut Workspace) -> Result<ExecStats> {
        self.run_with(ws, &mut ())
    }

    /// [`Interpreter::run`], also returning the least and greatest value
    /// written under each name (after wrapping).
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run_observed(&self, ws: &mut Workspace) -> Result<(ExecStats, Written)> {
        let mut written = Written::default();
        let stats = self.run_with(ws, &mut written)?;
        Ok((stats, written))
    }

    fn run_with(&self, ws: &mut Workspace, obs: &mut impl Observer) -> Result<ExecStats> {
        for a in self.kernel.arrays() {
            if ws.array(&a.name).is_none() {
                return Err(IrError::Undeclared(a.name.clone()));
            }
        }
        let mut env = Env {
            scalars: self
                .kernel
                .scalars()
                .iter()
                .map(|s| (Name::from(&s.name), 0))
                .collect(),
            loop_vars: HashMap::new(),
        };
        let mut stats = ExecStats::default();
        self.exec_stmts(self.kernel.body(), &mut env, ws, &mut stats, obs)?;
        Ok(stats)
    }

    fn exec_stmts(
        &self,
        stmts: &[Stmt],
        env: &mut Env,
        ws: &mut Workspace,
        stats: &mut ExecStats,
        obs: &mut impl Observer,
    ) -> Result<()> {
        for s in stmts {
            self.exec_stmt(s, env, ws, stats, obs)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &self,
        s: &Stmt,
        env: &mut Env,
        ws: &mut Workspace,
        stats: &mut ExecStats,
        obs: &mut impl Observer,
    ) -> Result<()> {
        match s {
            Stmt::Assign { lhs, rhs } => {
                stats.stmts += 1;
                let v = self.eval(rhs, env, ws, stats)?;
                match lhs {
                    LValue::Scalar(name) => {
                        let v = self.scalar_type(name).wrap(v);
                        obs.scalar(name, v);
                        env.scalars.insert(name.clone(), v);
                    }
                    LValue::Array(a) => {
                        let (idx, ty) = self.resolve(a, env, ws)?;
                        stats
                            .stores_by_array
                            .entry(a.array.to_string())
                            .and_modify(|c| *c += 1)
                            .or_insert(1);
                        let len = decl_len(&ws.arrays, &a.array);
                        let slot = ws
                            .arrays
                            .get_mut(a.array.as_str())
                            .and_then(|arr| arr.get_mut(idx as usize))
                            .ok_or_else(|| IrError::OutOfBounds {
                                array: a.array.to_string(),
                                index: idx,
                                len,
                            })?;
                        *slot = ty.wrap(v);
                        obs.store(&a.array, *slot);
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                stats.stmts += 1;
                let c = self.eval(cond, env, ws, stats)?;
                if c != 0 {
                    self.exec_stmts(then_body, env, ws, stats, obs)?;
                } else {
                    self.exec_stmts(else_body, env, ws, stats, obs)?;
                }
            }
            Stmt::For(l) => {
                if l.step <= 0 {
                    return Err(IrError::MalformedLoop(format!(
                        "loop `{}` has non-positive step",
                        l.var
                    )));
                }
                let mut v = l.lower;
                while v < l.upper {
                    obs.scalar(&l.var, v);
                    env.loop_vars.insert(l.var.clone(), v);
                    self.exec_stmts(&l.body, env, ws, stats, obs)?;
                    v = v.checked_add(l.step).ok_or_else(|| {
                        IrError::MalformedLoop(format!(
                            "loop `{}` overflows its induction variable",
                            l.var
                        ))
                    })?;
                }
                env.loop_vars.remove(&l.var);
            }
            Stmt::Rotate(regs) => {
                stats.stmts += 1;
                // Left rotation: r0 <- r1 <- ... <- rk <- (old r0). Each
                // moved value wraps at its target's declared type, as an
                // assignment's does.
                if regs.len() >= 2 {
                    let first = *env.scalars.get(&regs[0]).unwrap_or(&0);
                    for w in 0..regs.len() {
                        let v = match regs.get(w + 1) {
                            Some(next) => *env.scalars.get(next).unwrap_or(&0),
                            None => first,
                        };
                        let v = self.scalar_type(&regs[w]).wrap(v);
                        obs.scalar(&regs[w], v);
                        env.scalars.insert(regs[w].clone(), v);
                    }
                }
            }
        }
        Ok(())
    }

    /// The declared type of scalar `name`, `i32` when undeclared.
    fn scalar_type(&self, name: &str) -> ScalarType {
        self.kernel
            .scalar(name)
            .map(|d| d.ty)
            .unwrap_or(ScalarType::I32)
    }

    fn resolve(&self, a: &ArrayAccess, env: &Env, ws: &Workspace) -> Result<(i64, ScalarType)> {
        let decl = self
            .kernel
            .array(&a.array)
            .ok_or_else(|| IrError::Undeclared(a.array.to_string()))?;
        let idx: Vec<i64> = a
            .indices
            .iter()
            .map(|e| {
                e.try_eval(|v| env.loop_vars.get(v).or_else(|| env.scalars.get(v)).copied())
                    .map_err(|v| IrError::Undeclared(v.to_string()))
            })
            .collect::<Result<_>>()?;
        let flat = decl.flatten(&idx).ok_or_else(|| IrError::OutOfBounds {
            array: a.array.to_string(),
            index: *idx.first().unwrap_or(&0),
            len: decl.len(),
        })?;
        let _ = ws;
        Ok((flat, decl.ty))
    }

    fn eval(&self, e: &Expr, env: &mut Env, ws: &Workspace, stats: &mut ExecStats) -> Result<i64> {
        Ok(match e {
            Expr::Int(v) => *v,
            Expr::Scalar(n) => *env
                .loop_vars
                .get(n)
                .or_else(|| env.scalars.get(n))
                .ok_or_else(|| IrError::Undeclared(n.to_string()))?,
            Expr::Load(a) => {
                let (idx, _) = self.resolve(a, env, ws)?;
                stats
                    .loads_by_array
                    .entry(a.array.to_string())
                    .and_modify(|c| *c += 1)
                    .or_insert(1);
                ws.arrays
                    .get(a.array.as_str())
                    .and_then(|arr| arr.get(idx as usize))
                    .copied()
                    .ok_or_else(|| IrError::OutOfBounds {
                        array: a.array.to_string(),
                        index: idx,
                        len: decl_len(&ws.arrays, &a.array),
                    })?
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, env, ws, stats)?;
                stats.ops += 1;
                op.apply(v)
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, env, ws, stats)?;
                let vb = self.eval(b, env, ws, stats)?;
                stats.ops += 1;
                op.apply(va, vb)
            }
            Expr::Select(c, t, f) => {
                // Hardware evaluates both arms and selects.
                let vc = self.eval(c, env, ws, stats)?;
                let vt = self.eval(t, env, ws, stats)?;
                let vf = self.eval(f, env, ws, stats)?;
                stats.ops += 1;
                if vc != 0 {
                    vt
                } else {
                    vf
                }
            }
        })
    }
}

/// Run `kernel` with the provided input arrays and return the workspace
/// after execution together with its stats. Inputs not supplied default to
/// zero. Convenience wrapper used pervasively in tests.
///
/// # Errors
///
/// Propagates workspace and interpreter errors.
pub fn run_with_inputs(
    kernel: &Kernel,
    inputs: &[(&str, Vec<i64>)],
) -> Result<(Workspace, ExecStats)> {
    let mut ws = Workspace::for_kernel(kernel);
    for (name, data) in inputs {
        ws.set_array(name, data)?;
    }
    let stats = Interpreter::new(kernel).run(&mut ws)?;
    Ok((ws, stats))
}

/// Check that `kernel` never reads an `Out` array before writing it — a
/// sanity lint used by the kernels crate.
pub fn reads_uninitialized_outputs(kernel: &Kernel) -> bool {
    let mut read_before_write = false;
    let mut written: std::collections::HashSet<&str> = std::collections::HashSet::new();
    crate::stmt::walk_stmts(kernel.body(), &mut |s| {
        if let Stmt::Assign { lhs, rhs } = s {
            for l in rhs.loads() {
                if let Some(decl) = kernel.array(&l.array) {
                    if decl.kind == ArrayKind::Out && !written.contains(l.array.as_str()) {
                        read_before_write = true;
                    }
                }
            }
            if let Some(a) = lhs.as_array() {
                written.insert(a.array.as_str());
            }
        }
    });
    read_before_write
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kernel;

    #[test]
    fn fir_matches_direct_computation() {
        let k = parse_kernel(
            "kernel fir {
               in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i];
               } }
             }",
        )
        .unwrap();
        let s: Vec<i64> = (0..96).map(|x| (x * 7 % 23) - 11).collect();
        let c: Vec<i64> = (0..32).map(|x| (x * 5 % 17) - 8).collect();
        let (ws, stats) = run_with_inputs(&k, &[("S", s.clone()), ("C", c.clone())]).unwrap();
        let mut want = vec![0i64; 64];
        for j in 0..64usize {
            for i in 0..32usize {
                want[j] += s[i + j] * c[i];
            }
        }
        assert_eq!(ws.array("D").unwrap(), want.as_slice());
        // 3 loads and 1 store per innermost iteration.
        assert_eq!(stats.loads(), 3 * 2048);
        assert_eq!(stats.stores(), 2048);
        assert_eq!(stats.loads_by_array["S"], 2048);
    }

    #[test]
    fn observed_runs_record_the_span_of_every_write() {
        let k = parse_kernel(
            "kernel o { in A: i8[4]; out B: u8[4]; var s: i32;
               for i in 0..4 { s = s + A[i]; B[i] = A[i] * 100; } }",
        )
        .unwrap();
        let input = [-3, 1, 2, 5];
        let mut ws = Workspace::for_kernel(&k);
        ws.set_array("A", &input).unwrap();
        let (stats, [scalars, arrays]) = Interpreter::new(&k).run_observed(&mut ws).unwrap();
        assert_eq!(scalars["i"], (0, 3));
        assert_eq!(scalars["s"], (-3, 5));
        // Stores wrap first: -300 and 500 land at 212 and 244.
        assert_eq!(arrays["B"], (100, 244));
        assert!(!arrays.contains_key("A"), "loads are not writes");
        let (plain, plain_stats) = run_with_inputs(&k, &[("A", input.to_vec())]).unwrap();
        assert_eq!((ws, stats), (plain, plain_stats));
    }

    #[test]
    fn rotated_values_wrap_to_each_register_type() {
        let k = parse_kernel(
            "kernel r { in A: u16[3]; out B: i32[3]; var r0: u16; var r1: i8;
               for i in 0..3 { r0 = A[i]; rotate(r0, r1); B[i] = r1; } }",
        )
        .unwrap();
        let mut ws = Workspace::for_kernel(&k);
        ws.set_array("A", &[300, 65535, 7]).unwrap();
        let (_, [scalars, _]) = Interpreter::new(&k).run_observed(&mut ws).unwrap();
        // 300 and 65535 land in the i8 register as 44 and -1.
        assert_eq!(ws.array("B").unwrap(), &[44, -1, 7]);
        assert_eq!(scalars["r1"], (-1, 44));
        // The -1 rotates back into the u16 register as 65535.
        assert_eq!(scalars["r0"], (0, 65535));
    }

    #[test]
    fn stores_wrap_to_element_type() {
        let k = parse_kernel(
            "kernel w { in A: i32[2]; out B: u8[2];
               for i in 0..2 { B[i] = A[i] + 250; } }",
        )
        .unwrap();
        let (ws, _) = run_with_inputs(&k, &[("A", vec![10, 5])]).unwrap();
        assert_eq!(ws.array("B").unwrap(), &[4, 255]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let k = parse_kernel(
            "kernel oob { out B: i32[4];
               for i in 0..8 { B[i] = 1; } }",
        )
        .unwrap();
        let mut ws = Workspace::for_kernel(&k);
        let err = Interpreter::new(&k).run(&mut ws).unwrap_err();
        assert!(matches!(err, IrError::OutOfBounds { .. }));
    }

    #[test]
    fn rotate_permutes_registers() {
        let k = parse_kernel(
            "kernel rot {
               out B: i32[3];
               var r0: i32; var r1: i32; var r2: i32;
               for t in 0..1 {
                 r0 = 10; r1 = 20; r2 = 30;
                 rotate(r0, r1, r2);
                 B[0] = r0; B[1] = r1; B[2] = r2;
               }
             }",
        )
        .unwrap();
        let (ws, _) = run_with_inputs(&k, &[]).unwrap();
        assert_eq!(ws.array("B").unwrap(), &[20, 30, 10]);
    }

    #[test]
    fn if_else_and_select_agree() {
        let k1 = parse_kernel(
            "kernel a { in A: i32[8]; out B: i32[8];
               for i in 0..8 { if (A[i] > 0) { B[i] = A[i]; } else { B[i] = 0 - A[i]; } } }",
        )
        .unwrap();
        let k2 = parse_kernel(
            "kernel b { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i] > 0 ? A[i] : 0 - A[i]; } }",
        )
        .unwrap();
        let input: Vec<i64> = vec![3, -4, 0, 7, -1, 2, -9, 5];
        let (w1, _) = run_with_inputs(&k1, &[("A", input.clone())]).unwrap();
        let (w2, _) = run_with_inputs(&k2, &[("A", input)]).unwrap();
        assert_eq!(w1.array("B"), w2.array("B"));
    }

    #[test]
    fn step_loop_iterates_correctly() {
        let k = parse_kernel(
            "kernel s { out B: i32[10];
               for i in 0..10 step 3 { B[i] = 1; } }",
        )
        .unwrap();
        let (ws, stats) = run_with_inputs(&k, &[]).unwrap();
        assert_eq!(ws.array("B").unwrap(), &[1, 0, 0, 1, 0, 0, 1, 0, 0, 1]);
        assert_eq!(stats.stores(), 4);
    }

    #[test]
    fn workspace_lists_arrays() {
        let k = parse_kernel(
            "kernel z { in A: i32[4]; out B: i32[4]; for i in 0..4 { B[i] = A[i]; } }",
        )
        .unwrap();
        let ws = Workspace::for_kernel(&k);
        let names: Vec<&str> = ws.array_names().collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn uninitialized_output_read_lint() {
        let bad = parse_kernel(
            "kernel b { out B: i32[4]; out C: i32[4];
               for i in 0..4 { C[i] = B[i]; } }",
        )
        .unwrap();
        assert!(reads_uninitialized_outputs(&bad));
        let good = parse_kernel(
            "kernel g { in A: i32[4]; out B: i32[4];
               for i in 0..4 { B[i] = A[i]; } }",
        )
        .unwrap();
        assert!(!reads_uninitialized_outputs(&good));
    }

    #[test]
    fn set_array_validates_length() {
        let k = parse_kernel(
            "kernel z { in A: i32[4]; out B: i32[4]; for i in 0..4 { B[i] = A[i]; } }",
        )
        .unwrap();
        let mut ws = Workspace::for_kernel(&k);
        assert!(ws.set_array("A", &[1, 2]).is_err());
        assert!(ws.set_array("missing", &[1]).is_err());
    }
}
