//! Shared identifiers.
//!
//! Every scalar, array and loop-variable name inside a statement tree is
//! a [`Name`]. The transformation passes copy names far more often than
//! they make new ones — each unrolled copy, rewritten access and rebuilt
//! loop header repeats the names of the body it came from — so a name is
//! an immutable, reference-counted string: a copy is a count increment,
//! and only a genuinely new identifier allocates.
//!
//! A pass that numbers the names of a body resolves them through a
//! [`NameResolver`], which keys clones of one name by their shared
//! allocation, so a reference costs one integer hash, not a hash of its
//! text.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable identifier.
///
/// A `Name` behaves like the `str` it holds: `==`, `Ord`, `Hash`,
/// `Debug` and `Display` are those of `str`, so a `HashMap<Name, _>`
/// can be queried with a `&str`, and `{:?}` prints `"x"`, not a wrapper.
///
/// ```
/// use defacto_ir::Name;
///
/// let i = Name::from("i");
/// let copy = i.clone(); // no allocation
/// assert_eq!(copy, "i");
/// assert_eq!(format!("{copy:?}"), "\"i\"");
/// assert!(i.starts_with('i'));
/// ```
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Self {
        n.clone()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        *self == *other.0
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        **self == *other.0
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        **self == *other.0
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// Hashes exactly like the `str`, as [`Borrow<str>`] requires.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.0).hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// Dense numbers for the identifiers of one namespace, `0, 1, 2, ...` in
/// the order their texts are first seen.
///
/// [`resolve`](Self::resolve) looks a name up by the address of its
/// shared allocation first, which every clone of the name shares, and by
/// its text on a miss, so two allocations of one identifier still get one
/// number. A transformed body is mostly clones, so nearly every reference
/// costs one integer hash. Keying by address is sound because the
/// resolver borrows each name for `'k`: the allocation outlives the
/// resolver, so no address is freed and reused for another identifier
/// while the map holds it.
///
/// ```
/// use defacto_ir::name::{Found, NameResolver};
/// use defacto_ir::Name;
///
/// let x = Name::from("x");
/// let copy = x.clone();
/// let again = Name::from("x"); // a second allocation of `x`
/// let mut names = NameResolver::default();
/// assert_eq!(names.resolve(&x), (0, Found::New));
/// assert_eq!(names.resolve(&copy), (0, Found::Address));
/// assert_eq!(names.resolve(&again), (0, Found::Text));
/// assert_eq!(names.text("y"), (1, true));
/// ```
#[derive(Default)]
pub struct NameResolver<'k> {
    by_addr: HashMap<usize, u32, BuildHasherDefault<AddrHasher>>,
    /// Identifiers come from kernel sources, so they keep the default
    /// hasher.
    by_text: HashMap<&'k str, u32>,
}

/// How [`NameResolver::resolve`] found a name's number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// A clone of a name resolved before.
    Address,
    /// Another allocation of an identifier resolved before.
    Text,
    /// An identifier not seen before: its number is the next one.
    New,
}

impl<'k> NameResolver<'k> {
    /// A resolver with room for `texts` distinct identifiers, each met
    /// through one allocation.
    pub fn with_capacity(texts: usize) -> Self {
        NameResolver {
            by_addr: HashMap::with_capacity_and_hasher(texts, Default::default()),
            by_text: HashMap::with_capacity(texts),
        }
    }

    /// The number of `text`, and whether it is new. Text lookups do not
    /// key any address.
    pub fn text(&mut self, text: &'k str) -> (u32, bool) {
        let next = self.by_text.len() as u32;
        let number = *self.by_text.entry(text).or_insert(next);
        (number, number == next)
    }

    /// The number of `name`, and how it was found.
    pub fn resolve(&mut self, name: &'k Name) -> (u32, Found) {
        let addr = name.as_str().as_ptr() as usize;
        if let Some(&number) = self.by_addr.get(&addr) {
            return (number, Found::Address);
        }
        let (number, new) = self.text(name.as_str());
        self.by_addr.insert(addr, number);
        (number, if new { Found::New } else { Found::Text })
    }
}

/// Hashes an allocation's address with one multiply. An address is no
/// input anyone chooses, so nothing can craft keys that collide.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which a multiply mixes least.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_resolves_by_address() {
        let a = Name::from("acc");
        let b = a.clone();
        let mut names = NameResolver::default();
        assert_eq!(names.resolve(&a), (0, Found::New));
        assert_eq!(names.resolve(&b), (0, Found::Address));
        assert_eq!(names.resolve(&a), (0, Found::Address));
        assert_eq!(names.text("next"), (1, true));
    }

    #[test]
    fn a_second_allocation_of_one_identifier_falls_back_to_its_text() {
        let first = Name::from("acc");
        let second = Name::from(String::from("acc"));
        assert!(!std::ptr::eq(first.as_str(), second.as_str()));
        let mut names = NameResolver::default();
        assert_eq!(names.resolve(&first), (0, Found::New));
        assert_eq!(names.resolve(&second), (0, Found::Text));
        // The second allocation is keyed by its address from then on.
        assert_eq!(names.resolve(&second), (0, Found::Address));
        // A text lookup meets the same number.
        assert_eq!(names.text("acc"), (0, false));
        assert_eq!(names.text("next"), (1, true));
    }

    #[test]
    fn distinct_texts_get_dense_numbers_in_first_seen_order() {
        let names_in_order = ["i", "acc", "j", "acc", "i", "k"];
        let owned: Vec<Name> = names_in_order.iter().map(|&t| Name::from(t)).collect();
        let mut names = NameResolver::with_capacity(4);
        let numbers: Vec<u32> = owned.iter().map(|n| names.resolve(n).0).collect();
        assert_eq!(numbers, [0, 1, 2, 1, 0, 3]);
        assert_eq!(names.text("m"), (4, true));
        assert_eq!(names.text("j"), (2, false));
    }
}
