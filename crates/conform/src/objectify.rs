//! Database transformation: attribute renames, value conversion, and
//! value→object conversion (virtual classes).

use interop_model::fx::FxHashMap;
use interop_model::{ClassDef, Database, Object, Schema, Type, Value};

use crate::interned::PlanIndex;
use crate::plan::ConformError;

/// The id of the virtual object owned (first) by source object serial
/// `owner_serial` under objectification position `opos`: serials
/// interleave as `owner_serial * nobj + opos`, injective because each
/// owner yields exactly one tuple per objectification. Shared by the
/// from-scratch pass and [`crate::delta::reconform`] so both derive the
/// same ids.
pub(crate) fn virt_id_for(
    virt_space: u32,
    owner_serial: u64,
    nobj: u64,
    opos: usize,
) -> interop_model::ObjectId {
    interop_model::ObjectId::new(virt_space, owner_serial * nobj + opos as u64)
}

/// Applies a side's plan to its database: builds the conformed schema
/// (renamed/retyped attributes, virtual classes), converts every stored
/// value, and materialises virtual objects from objectified values.
///
/// `virt_space` tags the object ids of created virtual objects; it must
/// differ from both component databases' spaces.
pub fn conform_database(
    db: &Database,
    index: &PlanIndex,
    virt_space: u32,
) -> Result<Database, ConformError> {
    let schema = conform_schema(index)?;
    let mut out = Database::new(schema, db.space());
    // Virtual object registry: (objectification position, value tuple) →
    // id. Each virtual id derives from its *first* (minimum-serial) owner:
    // `owner.serial * nobj + opos`, injective because every owner yields
    // one tuple per objectification. Objects iterate in id order, so the
    // deriving owner is the tuple's minimum owner — making the id a pure
    // function of database content, which is what lets `reconform` keep
    // untouched virtual ids stable across source mutations. (Positions
    // index `plan.objectifications`; each position owns a distinct
    // virtual class, so keying by position equals keying by class.)
    let mut virt_ids: FxHashMap<(usize, Vec<Value>), interop_model::ObjectId> =
        FxHashMap::default();
    let nobj = index.plan.objectifications.len() as u64;
    // Serial-derived virtual ids are injective as long as every owner
    // lives in ONE space — which may legitimately differ from the
    // database's own allocation space (a materialised integrated view
    // keeps its objects' global-space ids while declaring a fresh
    // space for future creations).
    let mut owner_space: Option<u32> = None;
    for obj in db.objects() {
        debug_assert_eq!(
            *owner_space.get_or_insert(obj.id.space()),
            obj.id.space(),
            "virtual-id derivation requires a single-space source database"
        );
        let new_obj = conform_object(obj, index, |opos, o, tuple| {
            *virt_ids.entry((opos, tuple.clone())).or_insert_with(|| {
                let id = virt_id_for(virt_space, obj.id.serial(), nobj, opos);
                out.insert(make_virt_object(id, o, &tuple))
                    .expect("virtual object matches virtual schema");
                id
            })
        })?;
        out.insert(new_obj)
            .map_err(|e| ConformError::Model(e.to_string()))?;
    }
    Ok(out)
}

/// Conforms one source object: renames/converts planned attributes and
/// replaces objectified value tuples with a reference obtained from
/// `virt_ref(opos, objectify, tuple)`. Shared by [`conform_database`]
/// (which creates virtual objects on first encounter) and
/// [`crate::delta::reconform`] (which resolves ids from its registry),
/// so both emit byte-identical conformed objects.
pub(crate) fn conform_object(
    obj: &Object,
    index: &PlanIndex,
    mut virt_ref: impl FnMut(usize, &crate::plan::Objectify, Vec<Value>) -> interop_model::ObjectId,
) -> Result<Object, ConformError> {
    let mut new_obj = Object::new(obj.id, obj.class.clone());
    for (attr, value) in &obj.attrs {
        if let Some((opos, o)) = index.objectify_pos_for(&obj.class, attr) {
            // Collect the full value tuple for this objectification.
            if attr != &o.ref_attr {
                continue; // handled when we meet the ref attr
            }
            let tuple: Vec<Value> = o
                .attr_names
                .iter()
                .map(|(a, _)| obj.get(a).clone())
                .collect();
            let virt_id = virt_ref(opos, o, tuple);
            new_obj.set(o.ref_attr.clone(), Value::Ref(virt_id));
            continue;
        }
        let (new_name, converted) = match index.attr_plan(&obj.class, attr) {
            Some(ap) => {
                let v =
                    ap.conversion
                        .apply(value)
                        .ok_or_else(|| ConformError::UnconvertibleValue {
                            class: obj.class.clone(),
                            attr: attr.clone(),
                            value: value.to_string(),
                        })?;
                (ap.new_name.clone(), v)
            }
            None => (attr.clone(), value.clone()),
        };
        new_obj.set(new_name, converted);
    }
    Ok(new_obj)
}

/// Materialises the virtual object for an objectified value `tuple`.
pub(crate) fn make_virt_object(
    id: interop_model::ObjectId,
    o: &crate::plan::Objectify,
    tuple: &[Value],
) -> Object {
    let mut v = Object::new(id, o.virt_class.clone());
    for ((_, virt_attr), val) in o.attr_names.iter().zip(tuple.iter()) {
        v.set(virt_attr.clone(), val.clone());
    }
    v
}

/// Builds the conformed schema: renames/retypes planned attributes,
/// replaces objectified value attributes with a reference to the new
/// virtual class, and installs the virtual classes.
pub fn conform_schema(index: &PlanIndex) -> Result<Schema, ConformError> {
    let schema = index.schema;
    let plan = index.plan;
    let mut defs: Vec<ClassDef> = Vec::new();
    for def in schema.classes() {
        let mut new_def = ClassDef::new(def.name.clone());
        if let Some(p) = &def.parent {
            new_def = new_def.isa(p.clone());
        }
        if def.virtual_class {
            new_def = new_def.virt();
        }
        for a in &def.attrs {
            if let Some(o) = index.objectify_for(&def.name, &a.name) {
                if a.name == o.ref_attr {
                    new_def = new_def.attr(o.ref_attr.clone(), Type::Ref(o.virt_class.clone()));
                }
                // Non-ref value attributes disappear into the virtual class.
                continue;
            }
            match index.attr_plan(&def.name, &a.name) {
                // Only rename/retype at the declaring class (the plan's
                // class must be an ancestor-or-self of the declarer).
                Some(ap) => {
                    new_def = new_def.attr(ap.new_name.clone(), ap.new_type.clone());
                }
                None => {
                    new_def = new_def.attr(a.name.clone(), a.ty.clone());
                }
            }
        }
        defs.push(new_def);
    }
    // Virtual classes for objectifications.
    for o in &plan.objectifications {
        let mut vdef = ClassDef::new(o.virt_class.clone()).virt();
        for (local_attr, virt_attr) in &o.attr_names {
            let ty = schema
                .resolve_attr(&o.described_class, local_attr)
                .map(|(_, d)| d.ty.clone())
                .ok_or_else(|| ConformError::UnknownProperty {
                    class: o.described_class.clone(),
                    path: local_attr.to_string(),
                })?;
            vdef = vdef.attr(virt_attr.clone(), ty);
        }
        defs.push(vdef);
    }
    Schema::new(schema.db.clone(), defs).map_err(|e| ConformError::Model(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plans, SidePlan};
    use interop_model::{AttrName, ClassName};
    use interop_spec::{ComparisonRule, Conversion, Decision, InterCond, PropEq, Side, Spec};

    fn setup() -> (Database, SidePlan) {
        let local = Schema::new(
            "CSLibrary",
            vec![
                ClassDef::new("Publication")
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Str)
                    .attr("ourprice", Type::Real),
                ClassDef::new("ScientificPubl")
                    .isa("Publication")
                    .attr("rating", Type::Range(1, 5)),
            ],
        )
        .unwrap();
        let remote = Schema::new(
            "Bookseller",
            vec![
                ClassDef::new("Publisher").attr("name", Type::Str),
                ClassDef::new("Item")
                    .attr("isbn", Type::Str)
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let mut spec = Spec::new("CSLibrary", "Bookseller");
        spec.add_rule(ComparisonRule::descriptivity(
            "r2",
            "Publication",
            vec!["publisher"],
            "Publisher",
            vec![InterCond::eq("publisher", "name")],
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "ourprice",
            "Item",
            "libprice",
            Conversion::Id,
            Conversion::Id,
            Decision::Trust(Side::Local),
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "ScientificPubl",
            "rating",
            "Proceedings",
            "rating",
            Conversion::Multiply(2.0),
            Conversion::Id,
            Decision::Avg,
        ));
        let (lp, _) = build_plans(&spec, &local, &remote).unwrap();
        let mut db = Database::new(local, 1);
        db.create(
            "ScientificPubl",
            vec![
                ("isbn", "A".into()),
                ("publisher", "ACM".into()),
                ("ourprice", 26.0.into()),
                ("rating", 3i64.into()),
            ],
        )
        .unwrap();
        db.create(
            "Publication",
            vec![("isbn", "B".into()), ("publisher", "ACM".into())],
        )
        .unwrap();
        db.create(
            "Publication",
            vec![("isbn", "C".into()), ("publisher", "IEEE".into())],
        )
        .unwrap();
        (db, lp)
    }

    #[test]
    fn schema_gains_virtual_class_and_renames() {
        let (db, lp) = setup();
        let idx = PlanIndex::new(&db.schema, &lp);
        let s2 = conform_schema(&idx).unwrap();
        let virt = s2.class(&ClassName::new("VirtPublisher")).unwrap();
        assert!(virt.virtual_class);
        assert_eq!(virt.attrs[0].name, AttrName::new("name"));
        // publisher attr became a reference.
        let (_, pdef) = s2
            .resolve_attr(&ClassName::new("Publication"), &AttrName::new("publisher"))
            .unwrap();
        assert_eq!(pdef.ty, Type::Ref(ClassName::new("VirtPublisher")));
        // ourprice renamed to libprice.
        assert!(s2
            .resolve_attr(&ClassName::new("Publication"), &AttrName::new("libprice"))
            .is_some());
        assert!(s2
            .resolve_attr(&ClassName::new("Publication"), &AttrName::new("ourprice"))
            .is_none());
        // rating retyped to the joined 1..10 scale.
        let (_, rdef) = s2
            .resolve_attr(&ClassName::new("ScientificPubl"), &AttrName::new("rating"))
            .unwrap();
        assert_eq!(rdef.ty, Type::Range(1, 10));
    }

    #[test]
    fn values_converted_and_virt_objects_deduped() {
        let (db, lp) = setup();
        let idx = PlanIndex::new(&db.schema, &lp);
        let out = conform_database(&db, &idx, 9).unwrap();
        // Two distinct publishers → two virtual objects.
        assert_eq!(out.extent(&ClassName::new("VirtPublisher")).len(), 2);
        // Rating 3 on the 1..5 scale became 6 on the 1..10 scale.
        let sci = out
            .extent(&ClassName::new("ScientificPubl"))
            .next()
            .unwrap();
        let obj = out.object(sci).unwrap();
        assert_eq!(obj.get(&AttrName::new("rating")), &Value::int(6));
        assert_eq!(obj.get(&AttrName::new("libprice")), &Value::real(26.0));
        assert!(obj.get(&AttrName::new("ourprice")).is_null());
        // publisher now references a VirtPublisher carrying name='ACM'.
        let pref = obj.get(&AttrName::new("publisher")).as_ref_id().unwrap();
        assert_eq!(pref.space(), 9);
        let virt = out.object(pref).unwrap();
        assert_eq!(virt.get(&AttrName::new("name")), &Value::str("ACM"));
        // The two 'ACM' publications share one virtual object.
        let pubs = out.extension(&ClassName::new("Publication"));
        let acm_refs: Vec<_> = pubs
            .iter()
            .filter_map(|id| {
                out.object(*id)
                    .unwrap()
                    .get(&AttrName::new("publisher"))
                    .as_ref_id()
            })
            .filter(|r| out.object(*r).unwrap().get(&AttrName::new("name")) == &Value::str("ACM"))
            .collect();
        assert_eq!(acm_refs.len(), 2);
        assert_eq!(acm_refs[0], acm_refs[1]);
    }

    #[test]
    fn virtual_id_assignment_deterministic() {
        // Virtual ids are assigned in first-encounter order over the
        // id-ordered object iteration; the hashed registry must not leak
        // its iteration order into the output.
        let (db, lp) = setup();
        let idx = PlanIndex::new(&db.schema, &lp);
        let a = conform_database(&db, &idx, 9).unwrap();
        let b = conform_database(&db, &idx, 9).unwrap();
        let ids = |d: &Database| -> Vec<(interop_model::ObjectId, Value)> {
            d.extension(&ClassName::new("VirtPublisher"))
                .into_iter()
                .map(|id| {
                    (
                        id,
                        d.object(id).unwrap().get(&AttrName::new("name")).clone(),
                    )
                })
                .collect()
        };
        assert_eq!(ids(&a), ids(&b));
        // First ACM publication appears before the IEEE one, so the ACM
        // virtual object gets the first serial.
        assert_eq!(ids(&a)[0].1, Value::str("ACM"));
    }

    #[test]
    fn object_ids_preserved() {
        let (db, lp) = setup();
        let idx = PlanIndex::new(&db.schema, &lp);
        let out = conform_database(&db, &idx, 9).unwrap();
        for obj in db.objects() {
            assert!(out.object(obj.id).is_some(), "object {} lost", obj.id);
        }
        assert_eq!(out.len(), db.len() + 2); // + two virtual publishers
    }
}
