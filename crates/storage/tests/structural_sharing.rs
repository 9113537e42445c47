//! The store's persistent maps share structure between clones. These
//! tests pin what that must never change: a clone and its original are
//! independent values, and a class extent keeps insertion order through
//! removals and re-insertions.

use interop_constraint::{Catalog, ClassConstraint, ConstraintId};
use interop_model::{ClassDef, ClassName, Database, DbName, Object, ObjectId, Schema, Type, Value};
use interop_storage::Store;
use proptest::prelude::*;

/// Enough objects for three-level trees.
const N: u64 = 5_000;

fn schema() -> Schema {
    Schema::new(
        "Shop",
        vec![
            ClassDef::new("Item")
                .attr("sku", Type::Str)
                .attr("v", Type::Int),
            ClassDef::new("Book").isa("Item").attr("isbn", Type::Str),
        ],
    )
    .unwrap()
}

fn item(serial: u64) -> Object {
    Object::new(ObjectId::new(1, serial), ClassName::new("Item"))
        .with("sku", format!("s{serial}").as_str())
        .with("v", serial as i64)
}

fn keyed_store() -> Store {
    let mut cat = Catalog::new();
    cat.add_class(ClassConstraint::key(
        ConstraintId::new(&DbName::new("Shop"), &ClassName::new("Item"), "key"),
        "Item",
        vec!["sku"],
    ));
    let mut s = Store::new(Database::new(schema(), 1), cat);
    for serial in 0..N {
        s.insert(item(serial)).unwrap();
    }
    s
}

/// Everything observable about a store's data: objects in id order,
/// both extents in their order, and every key lookup.
type State = (
    Vec<Object>,
    Vec<ObjectId>,
    Vec<ObjectId>,
    Vec<Option<ObjectId>>,
);

fn state(s: &Store) -> State {
    let item = ClassName::new("Item");
    (
        s.db().objects().cloned().collect(),
        s.db().extent(&item).collect(),
        s.db().extent(&ClassName::new("Book")).collect(),
        (0..N + 10)
            .map(|i| s.lookup_key(&item, &[Value::str(format!("s{i}"))]))
            .collect(),
    )
}

/// Edits spread over the whole id range: updates (key-preserving and
/// key-changing), removals and inserts.
fn edit(s: &mut Store, salt: i64) {
    for serial in (0..N).step_by(97) {
        let id = ObjectId::new(1, serial);
        s.update(id, "v", Value::Int(salt)).unwrap();
    }
    for serial in (3..N).step_by(331) {
        let id = ObjectId::new(1, serial);
        s.update(id, "sku", Value::str(format!("moved{serial}-{salt}")))
            .unwrap();
    }
    for serial in (5..N).step_by(7) {
        s.remove(ObjectId::new(1, serial)).unwrap();
    }
    for serial in N..N + 10 {
        s.insert(item(serial)).unwrap();
    }
    let book = Object::new(ObjectId::new(1, N + 100), ClassName::new("Book"))
        .with("sku", format!("book{salt}").as_str());
    s.insert(book).unwrap();
}

#[test]
fn mutating_a_detached_clone_leaves_the_original_unchanged() {
    let original = keyed_store();
    let before = state(&original);
    let mut clone = original.detached_clone();
    assert_eq!(state(&clone), before);

    edit(&mut clone, -1);
    assert_eq!(state(&original), before, "the clone's edits leaked");
    let edited = state(&clone);
    assert_ne!(edited, before);

    // And the other way round: the original's edits stay out of the
    // clone, and a second clone is independent of both.
    let mut original = original;
    let mut second = original.detached_clone();
    edit(&mut original, -2);
    assert_eq!(state(&clone), edited, "the original's edits leaked");
    assert_eq!(state(&second), before);
    second.remove(ObjectId::new(1, 0)).unwrap();
    assert_eq!(state(&clone), edited);
    assert!(original.db().object(ObjectId::new(1, 0)).is_some());
    assert!(original.check_all().unwrap().is_empty());
    assert!(clone.check_all().unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random inserts and removals (ids in no particular order) against
    /// a `Vec` model of the extent: removal takes the id out, insertion
    /// — re-insertion of a removed id included — appends it.
    #[test]
    fn extent_order_is_insertion_order_across_remove_and_reinsert(
        ops in prop::collection::vec((any::<bool>(), 0u64..300), 0..400),
    ) {
        let mut s = Store::new(Database::new(schema(), 1), Catalog::new());
        let item = ClassName::new("Item");
        let mut model: Vec<ObjectId> = Vec::new();
        for (insert, serial) in ops {
            // Scramble ids so insertion order is not id order.
            let id = ObjectId::new(1, (serial * 7919) % 1000);
            if insert {
                let obj = Object::new(id, item.clone()).with("v", serial as i64);
                if s.insert(obj).is_ok() {
                    model.push(id);
                }
            } else if s.remove(id).is_ok() {
                model.retain(|&o| o != id);
            }
            let extent: Vec<ObjectId> = s.db().extent(&item).collect();
            prop_assert_eq!(&extent, &model);
            prop_assert_eq!(s.db().extension(&item), model.clone());
        }
    }
}
