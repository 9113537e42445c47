//! Cheap, order-able identifier newtypes for databases, classes and
//! attributes.
//!
//! Identifiers are used pervasively as map keys across the workspace, so
//! they wrap [`std::sync::Arc<str>`] — cloning is a refcount bump, and the
//! derived `Ord` gives deterministic iteration everywhere.

use std::fmt;
use std::sync::Arc;

macro_rules! ident_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(s: impl AsRef<str>) -> Self {
                Self(Arc::from(s.as_ref()))
            }

            /// Borrows the identifier as a `&str`.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// A pointer identifying this identifier's shared allocation,
            /// usable as a cheap cache key on hot paths: clones of one
            /// identifier share it, and equal identifiers from separate
            /// allocations merely miss such a cache (never alias).
            pub fn alloc_ptr(&self) -> usize {
                self.0.as_ptr() as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), &self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(Arc::from(s))
            }
        }

        impl From<Arc<str>> for $name {
            /// Shares the allocation: no copy.
            fn from(s: Arc<str>) -> Self {
                Self(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self(Arc::from(""))
            }
        }
    };
}

ident_newtype!(
    /// The name of a component database (e.g. `CSLibrary`, `Bookseller`).
    DbName
);
ident_newtype!(
    /// The name of a class (e.g. `Publication`, `Proceedings`). Virtual
    /// classes created during integration (e.g. `VirtPublisher`,
    /// `RefereedProceedings`) use the same type.
    ClassName
);
ident_newtype!(
    /// The name of an attribute (e.g. `isbn`, `rating`).
    AttrName
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let c = ClassName::new("Publication");
        assert_eq!(c.to_string(), "Publication");
        assert_eq!(c.as_str(), "Publication");
    }

    #[test]
    fn equality_and_ordering() {
        let a = AttrName::new("isbn");
        let b = AttrName::from("isbn");
        let c = AttrName::from(String::from("rating"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(AttrName::new("a") < AttrName::new("b"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let d = DbName::new("CSLibrary");
        let d2 = d.clone();
        assert_eq!(d, d2);
    }

    #[test]
    fn debug_includes_type_name() {
        let d = DbName::new("X");
        assert_eq!(format!("{d:?}"), "DbName(X)");
    }

    #[test]
    fn usable_as_map_key() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(ClassName::new("A"), 1);
        m.insert(ClassName::new("B"), 2);
        assert_eq!(m[&ClassName::new("A")], 1);
        let keys: Vec<_> = m.keys().map(|k| k.as_str().to_owned()).collect();
        assert_eq!(keys, vec!["A", "B"]);
    }
}
