//! Objects: identity plus attribute valuation.

use std::collections::BTreeMap;
use std::fmt;

use crate::ident::{AttrName, ClassName};
use crate::value::Value;

/// A globally unique object identity.
///
/// The high half identifies the *space* the object was created in (one per
/// [`crate::Database`], plus fresh spaces for virtual objects created
/// during conformation and global objects created during merging); the low
/// half is a per-space counter. Packing both into one `Copy` value keeps
/// maps keyed on object identity cheap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId {
    space: u32,
    serial: u64,
}

impl ObjectId {
    /// Builds an id from a space tag and serial number.
    pub fn new(space: u32, serial: u64) -> Self {
        ObjectId { space, serial }
    }

    /// The space (database) tag.
    pub fn space(self) -> u32 {
        self.space
    }

    /// The per-space serial.
    pub fn serial(self) -> u64 {
        self.serial
    }

    /// Space and serial in one integer, ordered as the pair is.
    fn packed(self) -> u128 {
        (u128::from(self.space) << 64) | u128::from(self.serial)
    }
}

/// Ordered by space, then serial — compared as one integer, so a
/// comparison is a single branch-free step in every id-keyed map.
impl Ord for ObjectId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.space, self.serial)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({self})")
    }
}

/// An object: identity, most-specific class, and attribute values.
///
/// Inherited attributes are stored flat on the object — the schema decides
/// which attribute names are legal for the object's class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Object {
    /// The object's identity.
    pub id: ObjectId,
    /// The most specific class the object is an instance of.
    pub class: ClassName,
    /// Attribute valuation. Absent attributes read as [`Value::Null`].
    pub attrs: BTreeMap<AttrName, Value>,
}

impl Object {
    /// Creates an object with no attribute values set.
    pub fn new(id: ObjectId, class: ClassName) -> Self {
        Object {
            id,
            class,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute setter.
    pub fn with(mut self, attr: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        self.attrs.insert(attr.into(), value.into());
        self
    }

    /// Reads an attribute; missing attributes read as `Null`.
    pub fn get(&self, attr: &AttrName) -> &Value {
        self.attrs.get(attr).unwrap_or(&Value::Null)
    }

    /// Sets an attribute value.
    pub fn set(&mut self, attr: impl Into<AttrName>, value: impl Into<Value>) {
        self.attrs.insert(attr.into(), value.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_packing() {
        let id = ObjectId::new(3, 42);
        assert_eq!(id.space(), 3);
        assert_eq!(id.serial(), 42);
        assert_eq!(id.to_string(), "3:42");
    }

    #[test]
    fn id_ordering_by_space_then_serial() {
        assert!(ObjectId::new(0, 99) < ObjectId::new(1, 0));
        assert!(ObjectId::new(1, 1) < ObjectId::new(1, 2));
    }

    #[test]
    fn id_ordering_matches_the_pair_order_at_the_edges() {
        let parts = [0, 1, u32::MAX as u64 - 1, u32::MAX as u64, u64::MAX];
        let ids: Vec<ObjectId> = [0, 1, u32::MAX - 1, u32::MAX]
            .into_iter()
            .flat_map(|space| parts.map(|serial| ObjectId::new(space, serial)))
            .collect();
        for a in &ids {
            for b in &ids {
                let pair = (a.space(), a.serial()).cmp(&(b.space(), b.serial()));
                assert_eq!(a.cmp(b), pair, "{a} vs {b}");
                assert_eq!(a.partial_cmp(b), Some(pair), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn object_builder_and_access() {
        let o = Object::new(ObjectId::new(0, 1), ClassName::new("Publication"))
            .with("isbn", "90-6196-001")
            .with("shopprice", 29.0);
        assert_eq!(o.get(&AttrName::new("isbn")), &Value::str("90-6196-001"));
        assert_eq!(o.get(&AttrName::new("shopprice")), &Value::real(29.0));
        assert_eq!(o.get(&AttrName::new("missing")), &Value::Null);
    }

    #[test]
    fn set_overwrites() {
        let mut o = Object::new(ObjectId::new(0, 1), ClassName::new("C")).with("a", 1i64);
        o.set("a", 2i64);
        assert_eq!(o.get(&AttrName::new("a")), &Value::int(2));
    }
}
