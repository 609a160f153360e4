//! Affine expressions over loop index variables.
//!
//! Every array subscript in the kernel language is an [`AffineExpr`]:
//! a linear combination `a1*i1 + a2*i2 + ... + an*in + b` of the loop
//! index variables with integer coefficients plus an integer constant.
//! Affine form is what makes exact dependence testing, uniformly generated
//! set classification, and data layout possible, and the parser rejects any
//! subscript that cannot be normalized into this shape.

use crate::name::Name;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// One `(variable, coefficient)` term.
type Term = (Name, i64);

/// An affine (linear + constant) integer expression over named loop
/// variables.
///
/// Coefficients are stored sparsely, as an immutable slice of
/// `(variable, coefficient)` terms sorted by variable name and shared
/// between clones; a variable absent from the slice has coefficient
/// zero. Cloning, and rewrites that only move the constant
/// ([`AffineExpr::offset_var`], [`AffineExpr::offset_vars`]) or leave
/// the terms alone, copy a pointer instead of the terms. The
/// representation is canonical: zero coefficients are never stored, so
/// `==` is structural equality of the mathematical object.
///
/// ```
/// use defacto_ir::AffineExpr;
///
/// let e = AffineExpr::var("i") + AffineExpr::var("j") * 2 + AffineExpr::constant(3);
/// assert_eq!(e.coeff("i"), 1);
/// assert_eq!(e.coeff("j"), 2);
/// assert_eq!(e.constant_term(), 3);
/// ```
#[derive(Clone, Default)]
pub struct AffineExpr {
    /// Non-zero terms in variable-name order; `None` when there are none.
    coeffs: Option<Arc<[Term]>>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            coeffs: None,
            constant: c,
        }
    }

    /// The expression `1 * name`.
    pub fn var(name: impl Into<Name>) -> Self {
        AffineExpr {
            coeffs: Some(Arc::from([(name.into(), 1)])),
            constant: 0,
        }
    }

    /// Build from explicit `(variable, coefficient)` terms plus a constant.
    ///
    /// Terms with the same variable are summed; zero terms are dropped.
    pub fn from_terms<I, S>(terms: I, constant: i64) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<Name>,
    {
        let mut raw: Vec<Term> = terms.into_iter().map(|(v, c)| (v.into(), c)).collect();
        // Stable, so equal names are summed in the order they came.
        raw.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<Term> = Vec::with_capacity(raw.len());
        for (v, c) in raw {
            match out.last_mut() {
                Some((last, sum)) if *last == v => *sum += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0);
        AffineExpr {
            coeffs: shared(out),
            constant,
        }
    }

    /// The terms as a (possibly empty) sorted slice.
    fn term_slice(&self) -> &[Term] {
        self.coeffs.as_deref().unwrap_or(&[])
    }

    /// Position of `var` in the term slice, or where it would go.
    fn find(&self, var: &str) -> Result<usize, usize> {
        self.term_slice().binary_search_by(|(v, _)| (**v).cmp(var))
    }

    /// Coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &str) -> i64 {
        match self.find(var) {
            Ok(i) => self.term_slice()[i].1,
            Err(_) => 0,
        }
    }

    /// The constant term `b`.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterate over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable-name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.term_slice().iter().map(|(v, c)| (&**v, *c))
    }

    /// Names of variables with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.term_slice().iter().map(|(v, _)| &**v)
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_vars(&self) -> usize {
        self.term_slice().len()
    }

    /// True if the expression is a constant (no variable terms).
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_none()
    }

    /// True if `var` does not appear (coefficient zero) — i.e. the
    /// expression is invariant with respect to that loop.
    pub fn is_invariant_in(&self, var: &str) -> bool {
        self.coeff(var) == 0
    }

    /// The coefficient vector restricted to an ordered list of loop
    /// variables — the shape used to decide whether two references are
    /// *uniformly generated* (identical coefficient vectors).
    pub fn coeff_vector(&self, vars: &[&str]) -> Vec<i64> {
        vars.iter().map(|v| self.coeff(v)).collect()
    }

    /// Whether `self` and `other` have equal [`Self::coeff_vector`]s over
    /// `vars`, without building either. Equal term lists settle it at
    /// once; copies of one subscript share theirs.
    pub(crate) fn same_coeffs(&self, other: &AffineExpr, vars: &[&str]) -> bool {
        self.same_terms(other) || vars.iter().all(|v| self.coeff(v) == other.coeff(v))
    }

    /// Add `c * var` in place.
    pub fn add_term(&mut self, var: impl Into<Name>, c: i64) {
        if c == 0 {
            return;
        }
        let var: Name = var.into();
        let terms = self.term_slice();
        let (at, term, skip) = match self.find(&var) {
            Ok(i) => {
                let sum = terms[i].1 + c;
                (i, (sum != 0).then(|| (terms[i].0.clone(), sum)), 1)
            }
            Err(i) => (i, Some((var, c)), 0),
        };
        let len = terms.len() + usize::from(term.is_some()) - skip;
        // Chained slice and `Option` iterators have a trusted length, so
        // the shared slice is allocated once, at its final size.
        self.coeffs = (len > 0).then(|| {
            terms[..at]
                .iter()
                .cloned()
                .chain(term)
                .chain(terms[at + skip..].iter().cloned())
                .collect()
        });
    }

    /// Evaluate with a lookup for variable values.
    ///
    /// # Panics
    ///
    /// Panics if `lookup` returns `None` for a variable that appears in the
    /// expression; the interpreter guarantees all loop variables are bound.
    pub fn eval(&self, lookup: impl Fn(&str) -> Option<i64>) -> i64 {
        match self.try_eval(lookup) {
            Ok(v) => v,
            Err(v) => panic!("affine eval: unbound loop variable `{v}`"),
        }
    }

    /// Evaluate with a lookup for variable values, returning the name of
    /// the first unbound variable instead of panicking. Terms saturate at
    /// the `i64` range, so a pathological subscript degrades into an
    /// out-of-range index (caught downstream) rather than overflowing.
    ///
    /// # Errors
    ///
    /// Returns the first variable `lookup` cannot resolve.
    pub fn try_eval(&self, lookup: impl Fn(&str) -> Option<i64>) -> Result<i64, &str> {
        let mut acc = self.constant;
        for (v, c) in self.terms() {
            let val = lookup(v).ok_or(v)?;
            acc = acc.saturating_add(c.saturating_mul(val));
        }
        Ok(acc)
    }

    /// Substitute `var := replacement` (an arbitrary affine expression) and
    /// return the result. Used by loop normalization (`i := i' + lb`),
    /// unrolling (`i := i + k`), and tiling (`i := tile*T + i'`).
    ///
    /// ```
    /// use defacto_ir::AffineExpr;
    /// let e = AffineExpr::var("i") * 3 + AffineExpr::constant(1);
    /// let r = e.substitute("i", &(AffineExpr::var("i") + AffineExpr::constant(2)));
    /// assert_eq!(r.coeff("i"), 3);
    /// assert_eq!(r.constant_term(), 7);
    /// ```
    pub fn substitute(&self, var: &str, replacement: &AffineExpr) -> AffineExpr {
        let Ok(i) = self.find(var) else {
            return self.clone();
        };
        let c = self.term_slice()[i].1;
        AffineExpr {
            coeffs: shared(merge(&self.without(i), replacement.term_slice(), c)),
            constant: self.constant + replacement.constant * c,
        }
    }

    /// Offset the expression by substituting `var := var + delta`.
    ///
    /// This is the unroll-and-jam rewrite for the unrolled copies of a loop
    /// body.
    pub fn offset_var(&self, var: &str, delta: i64) -> AffineExpr {
        let mut out = self.clone();
        out.constant += self.coeff(var) * delta;
        out
    }

    /// Offset several variables at once: `var := var + delta` for every
    /// pair, in one clone. Equivalent to chaining
    /// [`AffineExpr::offset_var`] over the pairs (offsets only touch the
    /// constant term, so they commute).
    pub fn offset_vars(&self, deltas: &[(&str, i64)]) -> AffineExpr {
        let mut out = self.clone();
        for &(var, delta) in deltas {
            out.constant += self.coeff(var) * delta;
        }
        out
    }

    /// Rename a variable, keeping its coefficient.
    pub fn rename_var(&self, from: &str, to: &str) -> AffineExpr {
        let Ok(i) = self.find(from) else {
            return self.clone();
        };
        let c = self.term_slice()[i].1;
        AffineExpr {
            coeffs: shared(merge(&self.without(i), &[(Name::from(to), c)], 1)),
            constant: self.constant,
        }
    }

    /// The terms with the `i`-th left out.
    fn without(&self, i: usize) -> Vec<Term> {
        let terms = self.term_slice();
        terms[..i].iter().chain(&terms[i + 1..]).cloned().collect()
    }

    /// The difference `self - other` if the two expressions are *uniformly
    /// generated* (identical coefficients on every variable); `None`
    /// otherwise. For uniformly generated pairs this difference is the
    /// constant dependence offset.
    pub fn constant_difference(&self, other: &AffineExpr) -> Option<i64> {
        if self.same_terms(other) {
            Some(self.constant - other.constant)
        } else {
            None
        }
    }

    /// True when both expressions have the same coefficient on every
    /// variable; shared terms compare by pointer.
    fn same_terms(&self, other: &AffineExpr) -> bool {
        match (&self.coeffs, &other.coeffs) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

/// The shared form of a sorted term list: `None` when it is empty.
fn shared(terms: Vec<Term>) -> Option<Arc<[Term]>> {
    (!terms.is_empty()).then(|| Arc::from(terms))
}

/// The sorted terms of `a + scale * b`, zero sums dropped. Names are
/// shared with the inputs, not copied.
fn merge(a: &[Term], b: &[Term], scale: i64) -> Vec<Term> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let order = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.0.cmp(&y.0),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        match order {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push((b[j].0.clone(), b[j].1 * scale));
                j += 1;
            }
            Ordering::Equal => {
                let c = a[i].1 + b[j].1 * scale;
                if c != 0 {
                    out.push((a[i].0.clone(), c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl PartialEq for AffineExpr {
    fn eq(&self, other: &AffineExpr) -> bool {
        self.constant == other.constant && self.same_terms(other)
    }
}

impl Eq for AffineExpr {}

impl PartialOrd for AffineExpr {
    fn partial_cmp(&self, other: &AffineExpr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the `(variable, coefficient)` terms in name
/// order, then the constant. Sorted collections of subscripts decide
/// output order, so this order is part of the output contract.
impl Ord for AffineExpr {
    fn cmp(&self, other: &AffineExpr) -> Ordering {
        self.terms()
            .cmp(other.terms())
            .then(self.constant.cmp(&other.constant))
    }
}

impl Hash for AffineExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.term_slice().hash(state);
        self.constant.hash(state);
    }
}

/// Prints `coeffs` as a map, e.g.
/// `AffineExpr { coeffs: {"i": 1}, constant: 2 }`.
impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Coeffs<'a>(&'a AffineExpr);
        impl fmt::Debug for Coeffs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.terms()).finish()
            }
        }
        f.debug_struct("AffineExpr")
            .field("coeffs", &Coeffs(self))
            .field("constant", &self.constant)
            .finish()
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;

    fn add(self, rhs: AffineExpr) -> AffineExpr {
        let constant = self.constant + rhs.constant;
        let coeffs = match (&self.coeffs, &rhs.coeffs) {
            (_, None) => self.coeffs,
            (None, _) => rhs.coeffs,
            (Some(a), Some(b)) => shared(merge(a, b, 1)),
        };
        AffineExpr { coeffs, constant }
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;

    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        let constant = self.constant - rhs.constant;
        let coeffs = match &rhs.coeffs {
            None => self.coeffs,
            Some(b) => shared(merge(self.term_slice(), b, -1)),
        };
        AffineExpr { coeffs, constant }
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;

    fn neg(self) -> AffineExpr {
        self * -1
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;

    fn mul(self, rhs: i64) -> AffineExpr {
        if rhs == 0 {
            return AffineExpr::new();
        }
        let coeffs = match rhs {
            1 => self.coeffs,
            _ => self.coeffs.map(|terms| {
                terms
                    .iter()
                    .map(|(v, c)| (v.clone(), c * rhs))
                    .collect::<Arc<[Term]>>()
            }),
        };
        AffineExpr {
            coeffs,
            constant: self.constant * rhs,
        }
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else {
                match c {
                    1 => write!(f, " + {v}")?,
                    -1 => write!(f, " - {v}")?,
                    c if c > 0 => write!(f, " + {c}*{v}")?,
                    c => write!(f, " - {}*{v}", -c)?,
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ij(a: i64, b: i64, c: i64) -> AffineExpr {
        AffineExpr::from_terms([("i", a), ("j", b)], c)
    }

    #[test]
    fn canonical_zero_coefficients_are_dropped() {
        let e = ij(1, 0, 0);
        assert_eq!(e.num_vars(), 1);
        let z = e.clone() - e;
        assert!(z.is_constant());
        assert_eq!(z, AffineExpr::constant(0));
    }

    #[test]
    #[allow(clippy::erasing_op)]
    fn arithmetic() {
        let e = ij(1, 2, 3);
        let g = ij(4, -2, 1);
        assert_eq!(e.clone() + g.clone(), ij(5, 0, 4));
        assert_eq!(e.clone() - g.clone(), ij(-3, 4, 2));
        assert_eq!(e.clone() * 3, ij(3, 6, 9));
        assert_eq!(e * 0, AffineExpr::constant(0));
        assert_eq!(-g, ij(-4, 2, -1));
    }

    #[test]
    fn eval_and_invariance() {
        let e = ij(2, 0, 5);
        let v = e.eval(|v| match v {
            "i" => Some(10),
            _ => None,
        });
        assert_eq!(v, 25);
        assert!(e.is_invariant_in("j"));
        assert!(!e.is_invariant_in("i"));
    }

    #[test]
    #[should_panic(expected = "unbound loop variable")]
    fn eval_unbound_panics() {
        AffineExpr::var("k").eval(|_| None);
    }

    #[test]
    fn substitution_and_offset() {
        // e = 3i + j + 1; i := 2t + 4  =>  6t + j + 13
        let e = ij(3, 1, 1);
        let r = e.substitute("i", &(AffineExpr::var("t") * 2 + AffineExpr::constant(4)));
        assert_eq!(r, AffineExpr::from_terms([("t", 6), ("j", 1)], 13));

        let o = ij(3, 1, 1).offset_var("i", 2);
        assert_eq!(o, ij(3, 1, 7));
        // Offsetting an invariant variable is a no-op.
        assert_eq!(ij(0, 1, 0).offset_var("i", 9), ij(0, 1, 0));
    }

    #[test]
    fn rename() {
        let e = ij(3, 1, 1);
        let r = e.rename_var("i", "ii");
        assert_eq!(r.coeff("ii"), 3);
        assert_eq!(r.coeff("i"), 0);
        assert_eq!(r.coeff("j"), 1);
    }

    #[test]
    fn uniformly_generated_difference() {
        let a = ij(1, 1, 2); // i + j + 2
        let b = ij(1, 1, 0); // i + j
        assert_eq!(a.constant_difference(&b), Some(2));
        let c = ij(1, 2, 0);
        assert_eq!(a.constant_difference(&c), None);
    }

    #[test]
    fn coeff_vector_ordering() {
        let e = ij(1, 2, 0);
        assert_eq!(e.coeff_vector(&["j", "i", "k"]), vec![2, 1, 0]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ij(1, 2, 3).to_string(), "i + 2*j + 3");
        assert_eq!(ij(-1, 0, -3).to_string(), "-i - 3");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
        assert_eq!(ij(0, -1, 0).to_string(), "-j");
    }
}
