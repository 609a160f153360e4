//! `AffineExpr` against a reference model.
//!
//! The reference is the map-backed representation `AffineExpr` used
//! before its terms became a shared sorted slice: a
//! `BTreeMap<String, i64>` of coefficients plus a constant, with the
//! same derived `Debug`, `Ord` and `Hash`. Random sequences of every
//! constructor and rewrite run on both side by side, and after each step
//! the two must agree on `terms()`, `Display`, `Debug` (plain and
//! pretty), `Hash`, and — against every other live expression — on
//! `==`, `Ord` and `constant_difference`.

use defacto_ir::AffineExpr;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

mod reference {
    use std::collections::BTreeMap;
    use std::fmt;

    /// Named like the real type so the derived `Debug` text matches.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
    pub struct AffineExpr {
        pub coeffs: BTreeMap<String, i64>,
        pub constant: i64,
    }

    impl AffineExpr {
        pub fn from_terms(terms: &[(&str, i64)], constant: i64) -> Self {
            let mut e = AffineExpr {
                coeffs: BTreeMap::new(),
                constant,
            };
            for &(v, c) in terms {
                e.add_term(v.to_string(), c);
            }
            e
        }

        pub fn coeff(&self, var: &str) -> i64 {
            self.coeffs.get(var).copied().unwrap_or(0)
        }

        pub fn add_term(&mut self, var: String, c: i64) {
            if c == 0 {
                return;
            }
            let sum = self.coeff(&var) + c;
            if sum == 0 {
                self.coeffs.remove(&var);
            } else {
                self.coeffs.insert(var, sum);
            }
        }

        pub fn add(&self, rhs: &AffineExpr) -> AffineExpr {
            let mut out = self.clone();
            out.constant += rhs.constant;
            for (v, &c) in &rhs.coeffs {
                out.add_term(v.clone(), c);
            }
            out
        }

        pub fn mul(&self, k: i64) -> AffineExpr {
            if k == 0 {
                return AffineExpr::default();
            }
            let mut out = self.clone();
            out.constant *= k;
            for c in out.coeffs.values_mut() {
                *c *= k;
            }
            out
        }

        pub fn sub(&self, rhs: &AffineExpr) -> AffineExpr {
            self.add(&rhs.mul(-1))
        }

        pub fn substitute(&self, var: &str, replacement: &AffineExpr) -> AffineExpr {
            let c = self.coeff(var);
            if c == 0 {
                return self.clone();
            }
            let mut out = self.clone();
            out.coeffs.remove(var);
            out.add(&replacement.mul(c))
        }

        pub fn offset_vars(&self, deltas: &[(&str, i64)]) -> AffineExpr {
            let mut out = self.clone();
            for &(var, delta) in deltas {
                out.constant += self.coeff(var) * delta;
            }
            out
        }

        pub fn rename_var(&self, from: &str, to: &str) -> AffineExpr {
            match self.coeffs.get(from).copied() {
                None => self.clone(),
                Some(c) => {
                    let mut out = self.clone();
                    out.coeffs.remove(from);
                    out.add_term(to.to_string(), c);
                    out
                }
            }
        }

        pub fn constant_difference(&self, other: &AffineExpr) -> Option<i64> {
            (self.coeffs == other.coeffs).then(|| self.constant - other.constant)
        }
    }

    impl fmt::Display for AffineExpr {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut first = true;
            for (v, c) in &self.coeffs {
                if first {
                    match *c {
                        1 => write!(f, "{v}")?,
                        -1 => write!(f, "-{v}")?,
                        c => write!(f, "{c}*{v}")?,
                    }
                    first = false;
                } else {
                    match *c {
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
}

use reference::AffineExpr as Model;

/// Few, overlapping names (one a prefix of another) so sums cancel and
/// name order matters.
const VARS: [&str; 5] = ["i", "ii", "j", "k", "t"];

/// SplitMix64, seeded per case, drawing the operation sequence.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A small integer in `-m..=m`.
    fn small(&mut self, m: i64) -> i64 {
        self.below((2 * m + 1) as usize) as i64 - m
    }

    fn var(&mut self) -> &'static str {
        VARS[self.below(VARS.len())]
    }

    /// Up to four terms, repeats and zeros included.
    fn terms(&mut self) -> Vec<(&'static str, i64)> {
        (0..self.below(5))
            .map(|_| (self.var(), self.small(3)))
            .collect()
    }
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// One step: a fresh expression from `pool`, by a drawn operation.
fn step(d: &mut Draw, pool: &[(AffineExpr, Model)]) -> (String, AffineExpr, Model) {
    let (a, ma) = pool[d.below(pool.len())].clone();
    let (b, mb) = pool[d.below(pool.len())].clone();
    match d.below(9) {
        0 => {
            let (terms, c) = (d.terms(), d.small(9));
            (
                format!("from_terms({terms:?}, {c})"),
                AffineExpr::from_terms(terms.iter().copied(), c),
                Model::from_terms(&terms, c),
            )
        }
        1 => ("a + b".into(), a + b, ma.add(&mb)),
        2 => ("a - b".into(), a - b, ma.sub(&mb)),
        3 => {
            let k = d.small(2);
            (format!("a * {k}"), a * k, ma.mul(k))
        }
        4 => ("-a".into(), -a, ma.mul(-1)),
        5 => {
            let v = d.var();
            (
                format!("a.substitute({v}, b)"),
                a.substitute(v, &b),
                ma.substitute(v, &mb),
            )
        }
        6 => {
            let (from, to) = (d.var(), d.var());
            (
                format!("a.rename_var({from}, {to})"),
                a.rename_var(from, to),
                ma.rename_var(from, to),
            )
        }
        7 => {
            let deltas: Vec<(&str, i64)> = (0..d.below(3)).map(|_| (d.var(), d.small(4))).collect();
            let (v, delta) = (d.var(), d.small(4));
            let mut chained = deltas.clone();
            chained.push((v, delta));
            (
                format!("a.offset_vars({deltas:?}).offset_var({v}, {delta})"),
                a.offset_vars(&deltas).offset_var(v, delta),
                ma.offset_vars(&chained),
            )
        }
        _ => {
            let (v, c) = (d.var(), d.small(3));
            let mut e = a;
            e.add_term(v.to_string(), c);
            let mut m = ma;
            m.add_term(v.to_string(), c);
            (format!("a.add_term({v}, {c})"), e, m)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn affine_expr_matches_the_map_reference(seed in 0u64..u64::MAX) {
        let mut d = Draw(seed);
        let mut pool: Vec<(AffineExpr, Model)> = (0..4)
            .map(|_| {
                let (terms, c) = (d.terms(), d.small(9));
                (AffineExpr::from_terms(terms.iter().copied(), c), Model::from_terms(&terms, c))
            })
            .collect();
        pool.push((AffineExpr::new(), Model::default()));
        for _ in 0..24 {
            let (op, e, m) = step(&mut d, &pool);
            let terms: Vec<(String, i64)> = e.terms().map(|(v, c)| (v.to_string(), c)).collect();
            let expected: Vec<(String, i64)> = m.coeffs.clone().into_iter().collect();
            prop_assert_eq!(terms, expected, "terms after {}", op);
            prop_assert_eq!(e.constant_term(), m.constant, "constant after {}", op);
            prop_assert_eq!(e.is_constant(), m.coeffs.is_empty(), "is_constant after {}", op);
            prop_assert_eq!(e.to_string(), m.to_string(), "Display after {}", op);
            prop_assert_eq!(format!("{e:?}"), format!("{m:?}"), "Debug after {}", op);
            prop_assert_eq!(format!("{e:#?}"), format!("{m:#?}"), "pretty Debug after {}", op);
            prop_assert_eq!(hash_of(&e), hash_of(&m), "Hash after {}", op);
            for (o, mo) in &pool {
                prop_assert_eq!(e == *o, m == *mo, "== after {}", op);
                prop_assert_eq!(e.cmp(o), m.cmp(mo), "Ord after {}: {} vs {}", op, m, mo);
                prop_assert_eq!(
                    e.constant_difference(o),
                    m.constant_difference(mo),
                    "constant_difference after {}", op
                );
            }
            let slot = d.below(pool.len());
            pool[slot] = (e, m);
        }
    }
}
