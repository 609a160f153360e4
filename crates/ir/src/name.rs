//! Shared identifiers.
//!
//! Every scalar, array and loop-variable name inside a statement tree is
//! a [`Name`]. The transformation passes copy names far more often than
//! they make new ones — each unrolled copy, rewritten access and rebuilt
//! loop header repeats the names of the body it came from — so a name is
//! an immutable, reference-counted string: a copy is a count increment,
//! and only a genuinely new identifier allocates.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
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
