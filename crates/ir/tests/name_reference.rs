//! `Name` against `String`.
//!
//! Identifiers in statement trees were `String`s before they became
//! shared [`Name`]s. Everything that observes a name — equality, order,
//! hashing (so a `HashMap<Name, _>` answers `&str` queries), `Display`
//! and `Debug` — must read exactly as the `String` did, and so must the
//! `Debug` text of trees built from names, which golden digests and
//! sorted outputs depend on.

use defacto_ir::{AffineExpr, ArrayAccess, Expr, LValue, Loop, Name, Stmt};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

fn hash_of(x: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn name_matches_string(
        a in ".{0,8}",
        b in "[ab_\"\\\\\né∂0-2]{0,4}",
    ) {
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let (nx, ny) = (Name::from(x.as_str()), Name::from(y.clone()));
            prop_assert_eq!(nx == ny, x == y, "== of {:?} and {:?}", x, y);
            prop_assert_eq!(nx.cmp(&ny), x.cmp(y), "cmp of {:?} and {:?}", x, y);
            prop_assert!(nx == **x && nx == *x.as_str() && nx == *x);
            prop_assert!(*x == nx && x.as_str() == nx);
        }
        let n = Name::from(a.as_str());
        prop_assert_eq!(hash_of(&n), hash_of(&a), "Hash of {:?}", a);
        prop_assert_eq!(hash_of(&n), hash_of(a.as_str()), "Hash of {:?} as str", a);
        let map: HashMap<Name, usize> = HashMap::from([(n.clone(), 1)]);
        prop_assert_eq!(map.get(a.as_str()), Some(&1));
        prop_assert_eq!(format!("{n}"), format!("{a}"));
        prop_assert_eq!(format!("{n:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{n:#?}"), format!("{a:#?}"));
        prop_assert_eq!(format!("{n:>12}|"), format!("{a:>12}|"));
        prop_assert_eq!(&*n, a.as_str());
    }
}

/// A tree touching every `Name` field: scalar reads and writes, an array
/// access, a loop variable, rotate registers and subscript terms.
fn tree() -> (Expr, Stmt, AffineExpr) {
    let e = Expr::add(
        Expr::scalar("x"),
        Expr::load1("A", AffineExpr::var("i") + AffineExpr::constant(1)),
    );
    let s = Stmt::For(Loop::new(
        "i",
        0,
        4,
        vec![
            Stmt::assign(LValue::scalar("acc"), e.clone()),
            Stmt::assign(
                LValue::Array(ArrayAccess::new("D", vec![AffineExpr::var("i")])),
                Expr::scalar("acc"),
            ),
            Stmt::Rotate(vec!["r0".into(), "r1".into()].into()),
        ],
    ));
    let a = AffineExpr::from_terms([("j", 2), ("i", -1)], 3);
    (e, s, a)
}

/// The literals were printed by the `String`-named trees.
#[test]
fn tree_debug_text_is_unchanged() {
    let (e, s, a) = tree();
    assert_eq!(
        format!("{e:?}"),
        r#"Binary(Add, Scalar("x"), Load(ArrayAccess { array: "A", indices: [AffineExpr { coeffs: {"i": 1}, constant: 1 }] }))"#
    );
    assert_eq!(
        format!("{s:?}"),
        concat!(
            r#"For(Loop { var: "i", lower: 0, upper: 4, step: 1, body: ["#,
            r#"Assign { lhs: Scalar("acc"), rhs: Binary(Add, Scalar("x"), Load(ArrayAccess { array: "A", indices: [AffineExpr { coeffs: {"i": 1}, constant: 1 }] })) }, "#,
            r#"Assign { lhs: Array(ArrayAccess { array: "D", indices: [AffineExpr { coeffs: {"i": 1}, constant: 0 }] }), rhs: Scalar("acc") }, "#,
            r#"Rotate(["r0", "r1"])] })"#,
        )
    );
    assert_eq!(
        format!("{a:?}"),
        r#"AffineExpr { coeffs: {"i": -1, "j": 2}, constant: 3 }"#
    );
    assert_eq!(
        format!("{a:#?}"),
        "AffineExpr {\n    coeffs: {\n        \"i\": -1,\n        \"j\": 2,\n    },\n    constant: 3,\n}"
    );
    assert_eq!(
        format!("{e:#?}"),
        concat!(
            "Binary(\n",
            "    Add,\n",
            "    Scalar(\n",
            "        \"x\",\n",
            "    ),\n",
            "    Load(\n",
            "        ArrayAccess {\n",
            "            array: \"A\",\n",
            "            indices: [\n",
            "                AffineExpr {\n",
            "                    coeffs: {\n",
            "                        \"i\": 1,\n",
            "                    },\n",
            "                    constant: 1,\n",
            "                },\n",
            "            ],\n",
            "        },\n",
            "    ),\n",
            ")",
        )
    );
}

/// Copies share the string: cloning a tree copies no name.
#[test]
fn cloned_names_share_their_text() {
    let (_, s, _) = tree();
    let copy = s.clone();
    let (Stmt::For(a), Stmt::For(b)) = (&s, &copy) else {
        panic!("tree is a loop");
    };
    assert_eq!(a.var, b.var);
    assert!(std::ptr::eq(a.var.as_ptr(), b.var.as_ptr()));
}
