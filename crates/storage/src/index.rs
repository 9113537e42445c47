//! Indexes: the unique key index enforcing key constraints, plus the
//! secondary indexes backing the query planner — hash postings for
//! equality predicates and sorted numeric entries for range predicates.
//!
//! Secondary indexes cover one `(class, attribute)` pair over the class
//! *extension* (subclass instances included) and are built lazily by the
//! store on first use. Once built they are maintained **incrementally**:
//! every committed mutation applies a per-object delta
//! ([`HashIndex::insert`]/[`HashIndex::remove`] and the [`SortedIndex`]
//! equivalents) instead of discarding the index (see `Store` for the
//! delta routing and the wholesale-invalidation fallback mode).
//!
//! Invariant: every posting list is sorted by object id and duplicate
//! free — the batch intersection in `optimize` relies on it, and the
//! delta operations preserve it by binary-searched insertion.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use interop_model::fx::FxHashMap;
use interop_model::{AttrName, ClassName, Object, ObjectId, PMap, Value, R64};

/// A unique index over the key attributes of one class (covering its
/// whole extension, i.e. including subclass instances). The map is a
/// [`PMap`], so cloning an index — every MVCC snapshot and overlay does
/// — shares it instead of copying one key tuple per object. Key tuples
/// are `Arc`'d, so copying a node on a write bumps reference counts
/// instead of cloning tuples.
#[derive(Clone, Debug, Default)]
pub struct KeyIndex {
    attrs: Vec<AttrName>,
    map: PMap<Arc<[Value]>, ObjectId>,
}

impl KeyIndex {
    /// Creates an empty index over the given key attributes.
    pub fn new(attrs: Vec<AttrName>) -> Self {
        KeyIndex {
            attrs,
            map: PMap::new(),
        }
    }

    /// The key attributes.
    pub fn attrs(&self) -> &[AttrName] {
        &self.attrs
    }

    /// Extracts the key tuple of an object; `None` when any component is
    /// null (null keys are not indexed, mirroring the evaluator's
    /// null-tolerant key check).
    pub fn key_of(&self, obj: &Object) -> Option<Arc<[Value]>> {
        let tuple: Arc<[Value]> = self.attrs.iter().map(|a| obj.get(a).clone()).collect();
        if tuple.iter().any(Value::is_null) {
            None
        } else {
            Some(tuple)
        }
    }

    /// Inserts an object; returns the previous holder on key collision
    /// (the caller rejects the insert in that case).
    pub fn insert(&mut self, obj: &Object) -> Result<(), ObjectId> {
        if let Some(key) = self.key_of(obj) {
            match self.map.get(&key) {
                Some(&prev) if prev != obj.id => return Err(prev),
                Some(_) => {}
                None => {
                    self.map.insert(key, obj.id);
                }
            }
        }
        Ok(())
    }

    /// Removes an object's key entry.
    pub fn remove(&mut self, obj: &Object) {
        if let Some(key) = self.key_of(obj) {
            if self.map.get(&key) == Some(&obj.id) {
                self.map.remove(&key);
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &[Value]) -> Option<ObjectId> {
        self.map.get(key).copied()
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The set of key indexes of a store, keyed by class name.
pub type IndexSet = BTreeMap<ClassName, KeyIndex>;

/// Canonicalises a value for equality-posting lookups: numerics collapse
/// to `Real` so `Int(3)` and `Real(3.0)` share a posting list (matching
/// the evaluator's `sem_eq`, which compares numerically across the two
/// variants). `None` for nulls — a null never satisfies an equality.
pub fn canon_key(v: &Value) -> Option<Value> {
    if v.is_null() {
        return None;
    }
    let key = match v.as_num() {
        Some(n) => Value::Real(n),
        None => v.clone(),
    };
    // Canonicalisation must agree with the evaluator: postings collide
    // exactly where `sem_eq` holds, or index probes return wrong rows.
    debug_assert!(
        key.sem_eq(v),
        "canon_key must preserve sem_eq: {v:?} -> {key:?}"
    );
    Some(key)
}

/// Equality postings for one `(class, attr)`: canonical value → sorted
/// object ids. An object appears under its attribute's canonical value;
/// nulls are not indexed (a null equality is `Unknown`, never a hit).
#[derive(Clone, Debug, Default)]
pub struct HashIndex {
    map: FxHashMap<Value, Vec<ObjectId>>,
}

impl HashIndex {
    /// Builds from `(value, id)` pairs (any order; ids deduplicated by
    /// construction since each object contributes one value).
    pub fn build<I: IntoIterator<Item = (Value, ObjectId)>>(pairs: I) -> Self {
        let mut map: FxHashMap<Value, Vec<ObjectId>> = FxHashMap::default();
        for (v, id) in pairs {
            if let Some(key) = canon_key(&v) {
                map.entry(key).or_default().push(id);
            }
        }
        for ids in map.values_mut() {
            ids.sort_unstable();
        }
        HashIndex { map }
    }

    /// The sorted posting list for a canonical key.
    pub fn postings(&self, key: &Value) -> &[ObjectId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Delta: adds `id` under `v`'s canonical key (no-op for nulls),
    /// keeping the posting list sorted.
    pub fn insert(&mut self, v: &Value, id: ObjectId) {
        if let Some(key) = canon_key(v) {
            let ids = self.map.entry(key).or_default();
            if let Err(pos) = ids.binary_search(&id) {
                ids.insert(pos, id);
            }
        }
    }

    /// Delta: removes `id` from `v`'s posting list; an emptied list is
    /// dropped so [`HashIndex::distinct`] stays exact.
    pub fn remove(&mut self, v: &Value, id: ObjectId) {
        if let Some(key) = canon_key(v) {
            if let Some(ids) = self.map.get_mut(&key) {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }
}

/// Equality postings over a canonicalised value *pair* for one
/// `(class, attr_a, attr_b)` with `attr_a < attr_b` — the planner's
/// composite secondary index. One lookup answers the conjunction
/// `attr_a = x ∧ attr_b = y` that would otherwise intersect two
/// [`HashIndex`] posting lists.
///
/// Invariants mirror the single-attribute indexes: each component is
/// canonicalised by [`canon_key`] (so `Int(3)`/`Real(3.0)` collide per
/// `sem_eq`), an object with a null in *either* component is not indexed
/// (a null equality is `Unknown`, so the conjunction can never be
/// `True`), and posting lists stay sorted by id and duplicate-free under
/// deltas.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompositeIndex {
    map: FxHashMap<(Value, Value), Vec<ObjectId>>,
}

impl CompositeIndex {
    /// Builds from `(value_a, value_b, id)` triples (any order; each
    /// object contributes one pair).
    pub fn build<I: IntoIterator<Item = (Value, Value, ObjectId)>>(triples: I) -> Self {
        let mut map: FxHashMap<(Value, Value), Vec<ObjectId>> = FxHashMap::default();
        for (va, vb, id) in triples {
            if let (Some(ka), Some(kb)) = (canon_key(&va), canon_key(&vb)) {
                map.entry((ka, kb)).or_default().push(id);
            }
        }
        for ids in map.values_mut() {
            ids.sort_unstable();
        }
        CompositeIndex { map }
    }

    /// The sorted posting list for a canonical key pair (`ka`/`kb` must
    /// already be canonical, as produced by the planner).
    pub fn postings(&self, ka: &Value, kb: &Value) -> &[ObjectId] {
        // One clone pair per probe; probes are rare (one per executed
        // composite step) and the tuple key keeps the map allocation-free
        // on the much hotter build/delta paths.
        self.map
            .get(&(ka.clone(), kb.clone()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of distinct indexed value pairs.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Delta: adds `id` under the canonical pair of `(va, vb)` (no-op
    /// when either component is null), keeping the posting list sorted.
    /// Idempotent, like the single-attribute deltas.
    pub fn insert(&mut self, va: &Value, vb: &Value, id: ObjectId) {
        if let (Some(ka), Some(kb)) = (canon_key(va), canon_key(vb)) {
            let ids = self.map.entry((ka, kb)).or_default();
            if let Err(pos) = ids.binary_search(&id) {
                ids.insert(pos, id);
            }
        }
    }

    /// Delta: removes `id` from the pair's posting list; an emptied list
    /// is dropped so [`CompositeIndex::distinct`] stays exact.
    pub fn remove(&mut self, va: &Value, vb: &Value, id: ObjectId) {
        if let (Some(ka), Some(kb)) = (canon_key(va), canon_key(vb)) {
            let key = (ka, kb);
            if let Some(ids) = self.map.get_mut(&key) {
                if let Ok(pos) = ids.binary_search(&id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }
}

/// Sorted numeric entries for one `(class, attr)`: `(value, id)` ordered
/// by value then id. Only numeric values are indexed — a range predicate
/// compares `Some` only against numbers, so non-numeric and null values
/// can never satisfy it.
#[derive(Clone, Debug, Default)]
pub struct SortedIndex {
    entries: Vec<(R64, ObjectId)>,
}

impl SortedIndex {
    /// Builds from `(value, id)` pairs, keeping numeric values only.
    pub fn build<'a, I: IntoIterator<Item = (&'a Value, ObjectId)>>(pairs: I) -> Self {
        let mut entries: Vec<(R64, ObjectId)> = pairs
            .into_iter()
            .filter_map(|(v, id)| v.as_num().map(|n| (n, id)))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        SortedIndex { entries }
    }

    /// Number of indexed (numeric) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing numeric is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Delta: adds a `(value, id)` entry when the value is numeric,
    /// keeping the entries ordered by `(value, id)`. Idempotent like
    /// [`HashIndex::insert`] — a repeated delta must not duplicate an
    /// entry.
    pub fn insert(&mut self, v: &Value, id: ObjectId) {
        if let Some(n) = v.as_num() {
            if let Err(pos) = self.entries.binary_search(&(n, id)) {
                self.entries.insert(pos, (n, id));
            }
        }
    }

    /// Delta: removes the `(value, id)` entry if present.
    pub fn remove(&mut self, v: &Value, id: ObjectId) {
        if let Some(n) = v.as_num() {
            if let Ok(pos) = self.entries.binary_search(&(n, id)) {
                self.entries.remove(pos);
            }
        }
    }

    /// Ids whose value falls within the bounds, **sorted by id** (ready
    /// for posting-list intersection).
    pub fn range_ids(&self, lo: Bound<R64>, hi: Bound<R64>) -> Vec<ObjectId> {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.entries.partition_point(|(x, _)| *x < v),
            Bound::Excluded(v) => self.entries.partition_point(|(x, _)| *x <= v),
        };
        let end = match hi {
            Bound::Unbounded => self.entries.len(),
            Bound::Included(v) => self.entries.partition_point(|(x, _)| *x <= v),
            Bound::Excluded(v) => self.entries.partition_point(|(x, _)| *x < v),
        };
        let mut ids: Vec<ObjectId> = self.entries[start..end.max(start)]
            .iter()
            .map(|(_, id)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(serial: u64, isbn: &str) -> Object {
        Object::new(ObjectId::new(1, serial), ClassName::new("Item")).with("isbn", isbn)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = KeyIndex::new(vec![AttrName::new("isbn")]);
        let a = obj(1, "X");
        idx.insert(&a).unwrap();
        assert_eq!(idx.get(&[Value::str("X")]), Some(a.id));
        assert_eq!(idx.len(), 1);
        idx.remove(&a);
        assert!(idx.is_empty());
    }

    #[test]
    fn collision_reports_previous_holder() {
        let mut idx = KeyIndex::new(vec![AttrName::new("isbn")]);
        let a = obj(1, "X");
        idx.insert(&a).unwrap();
        let b = obj(2, "X");
        assert_eq!(idx.insert(&b), Err(a.id));
    }

    #[test]
    fn reinsert_same_object_is_fine() {
        let mut idx = KeyIndex::new(vec![AttrName::new("isbn")]);
        let a = obj(1, "X");
        idx.insert(&a).unwrap();
        idx.insert(&a).unwrap();
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn huge_real_key_collides_with_no_int() {
        // Int/Real unification is via `as_num` (Int -> f64). A real far
        // outside i64's range must map to a key no Int can produce:
        // `Real(1e300)` postings and any Int postings stay disjoint.
        let huge = Value::real(1e300);
        for i in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_ne!(canon_key(&huge), canon_key(&Value::Int(i)));
            assert!(!huge.sem_eq(&Value::Int(i)));
        }
        let idx = HashIndex::build(vec![
            (Value::Int(i64::MAX), ObjectId::new(1, 1)),
            (huge.clone(), ObjectId::new(1, 2)),
        ]);
        let key = canon_key(&huge).unwrap();
        assert_eq!(idx.postings(&key), &[ObjectId::new(1, 2)]);
        let int_key = canon_key(&Value::Int(i64::MAX)).unwrap();
        assert_eq!(idx.postings(&int_key), &[ObjectId::new(1, 1)]);
    }

    #[test]
    fn null_keys_not_indexed() {
        let mut idx = KeyIndex::new(vec![AttrName::new("isbn")]);
        let a = Object::new(ObjectId::new(1, 1), ClassName::new("Item"));
        idx.insert(&a).unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn canon_key_unifies_numerics_and_skips_nulls() {
        assert_eq!(canon_key(&Value::int(3)), Some(Value::real(3.0)));
        assert_eq!(canon_key(&Value::real(3.0)), Some(Value::real(3.0)));
        assert_eq!(canon_key(&Value::str("x")), Some(Value::str("x")));
        assert_eq!(canon_key(&Value::Null), None);
    }

    #[test]
    fn hash_index_postings_sorted_and_cross_type() {
        let idx = HashIndex::build([
            (Value::int(5), ObjectId::new(1, 9)),
            (Value::real(5.0), ObjectId::new(1, 2)),
            (Value::int(7), ObjectId::new(1, 4)),
            (Value::Null, ObjectId::new(1, 5)),
        ]);
        // Int(5) and Real(5.0) land in one posting, sorted by id.
        assert_eq!(
            idx.postings(&Value::real(5.0)),
            &[ObjectId::new(1, 2), ObjectId::new(1, 9)]
        );
        assert_eq!(idx.postings(&Value::real(7.0)).len(), 1);
        assert_eq!(idx.postings(&Value::real(6.0)).len(), 0);
        assert_eq!(idx.distinct(), 2, "null not indexed");
    }

    #[test]
    fn sorted_index_range_bounds() {
        let vals: Vec<Value> = vec![
            Value::int(1),
            Value::real(2.5),
            Value::int(4),
            Value::str("not numeric"),
            Value::Null,
        ];
        let idx = SortedIndex::build(
            vals.iter()
                .enumerate()
                .map(|(i, v)| (v, ObjectId::new(1, i as u64))),
        );
        assert_eq!(idx.len(), 3, "only numerics indexed");
        use std::ops::Bound::*;
        assert_eq!(idx.range_ids(Unbounded, Unbounded).len(), 3);
        assert_eq!(
            idx.range_ids(Included(R64::new(2.5)), Unbounded),
            vec![ObjectId::new(1, 1), ObjectId::new(1, 2)]
        );
        assert_eq!(
            idx.range_ids(Excluded(R64::new(2.5)), Unbounded),
            vec![ObjectId::new(1, 2)]
        );
        assert_eq!(
            idx.range_ids(Unbounded, Excluded(R64::new(1.0))),
            Vec::<ObjectId>::new()
        );
        assert_eq!(
            idx.range_ids(Included(R64::new(10.0)), Included(R64::new(0.0))),
            Vec::<ObjectId>::new(),
            "inverted range is empty, not a panic"
        );
    }

    #[test]
    fn hash_index_deltas_keep_postings_sorted() {
        let mut idx = HashIndex::build([
            (Value::int(5), ObjectId::new(1, 9)),
            (Value::int(5), ObjectId::new(1, 2)),
        ]);
        idx.insert(&Value::real(5.0), ObjectId::new(1, 4));
        assert_eq!(
            idx.postings(&Value::real(5.0)),
            &[
                ObjectId::new(1, 2),
                ObjectId::new(1, 4),
                ObjectId::new(1, 9)
            ]
        );
        // Re-inserting an existing id is a no-op (idempotent deltas).
        idx.insert(&Value::int(5), ObjectId::new(1, 4));
        assert_eq!(idx.postings(&Value::real(5.0)).len(), 3);
        idx.insert(&Value::Null, ObjectId::new(1, 7));
        assert_eq!(idx.distinct(), 1, "null delta not indexed");
        idx.remove(&Value::int(5), ObjectId::new(1, 4));
        idx.remove(&Value::int(5), ObjectId::new(1, 2));
        idx.remove(&Value::int(5), ObjectId::new(1, 9));
        assert_eq!(idx.distinct(), 0, "emptied posting list dropped");
    }

    #[test]
    fn sorted_index_deltas_keep_entries_ordered() {
        let vals = [Value::int(3), Value::int(1)];
        let mut idx = SortedIndex::build(
            vals.iter()
                .enumerate()
                .map(|(i, v)| (v, ObjectId::new(1, i as u64))),
        );
        idx.insert(&Value::real(2.0), ObjectId::new(1, 9));
        idx.insert(&Value::str("nope"), ObjectId::new(1, 8));
        assert_eq!(idx.len(), 3, "non-numeric delta not indexed");
        idx.insert(&Value::real(2.0), ObjectId::new(1, 9));
        assert_eq!(idx.len(), 3, "idempotent deltas");
        use std::ops::Bound::*;
        assert_eq!(
            idx.range_ids(Included(R64::new(2.0)), Unbounded),
            vec![ObjectId::new(1, 0), ObjectId::new(1, 9)]
        );
        idx.remove(&Value::real(2.0), ObjectId::new(1, 9));
        idx.remove(&Value::real(99.0), ObjectId::new(1, 9)); // absent: no-op
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn composite_index_canonicalises_pairs_and_skips_nulls() {
        let idx = CompositeIndex::build([
            (Value::int(5), Value::str("x"), ObjectId::new(1, 9)),
            (Value::real(5.0), Value::str("x"), ObjectId::new(1, 2)),
            (Value::int(5), Value::str("y"), ObjectId::new(1, 4)),
            (Value::Null, Value::str("x"), ObjectId::new(1, 5)),
            (Value::int(5), Value::Null, ObjectId::new(1, 6)),
        ]);
        // Int(5) and Real(5.0) share one pair posting, sorted by id.
        assert_eq!(
            idx.postings(&Value::real(5.0), &Value::str("x")),
            &[ObjectId::new(1, 2), ObjectId::new(1, 9)]
        );
        assert_eq!(idx.postings(&Value::real(5.0), &Value::str("y")).len(), 1);
        assert_eq!(idx.distinct(), 2, "null-in-either-component not indexed");
    }

    #[test]
    fn composite_index_deltas_keep_postings_sorted() {
        let mut idx = CompositeIndex::build([
            (Value::int(1), Value::int(2), ObjectId::new(1, 9)),
            (Value::int(1), Value::int(2), ObjectId::new(1, 3)),
        ]);
        idx.insert(&Value::real(1.0), &Value::int(2), ObjectId::new(1, 5));
        assert_eq!(
            idx.postings(&Value::real(1.0), &Value::real(2.0)),
            &[
                ObjectId::new(1, 3),
                ObjectId::new(1, 5),
                ObjectId::new(1, 9)
            ]
        );
        // Idempotent insert; null deltas are no-ops.
        idx.insert(&Value::int(1), &Value::real(2.0), ObjectId::new(1, 5));
        assert_eq!(idx.postings(&Value::real(1.0), &Value::real(2.0)).len(), 3);
        idx.insert(&Value::Null, &Value::int(2), ObjectId::new(1, 7));
        assert_eq!(idx.distinct(), 1);
        idx.remove(&Value::int(1), &Value::int(2), ObjectId::new(1, 3));
        idx.remove(&Value::int(1), &Value::int(2), ObjectId::new(1, 5));
        idx.remove(&Value::int(1), &Value::int(2), ObjectId::new(1, 9));
        assert_eq!(idx.distinct(), 0, "emptied pair posting dropped");
        // Removing from an absent pair is a no-op, not a panic.
        idx.remove(&Value::int(9), &Value::int(9), ObjectId::new(1, 1));
    }

    #[test]
    fn composite_keys() {
        let mut idx = KeyIndex::new(vec![AttrName::new("isbn"), AttrName::new("title")]);
        let a = Object::new(ObjectId::new(1, 1), ClassName::new("Item"))
            .with("isbn", "X")
            .with("title", "T");
        idx.insert(&a).unwrap();
        assert_eq!(idx.get(&[Value::str("X"), Value::str("T")]), Some(a.id));
        assert_eq!(idx.get(&[Value::str("X")]), None);
    }
}
