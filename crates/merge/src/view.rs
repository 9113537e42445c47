//! The integrated view: the merging orchestrator plus evaluation of
//! formulas over global objects.

use std::collections::BTreeMap;

use interop_conform::Conformed;
use interop_constraint::eval::Truth;
use interop_constraint::{CmpOp, Expr, Formula, Path};
use interop_model::{AttrName, ClassName, Database, ObjectId, Value};

use crate::fuse::{FuseResult, GlobalObject};
use crate::hierarchy::{infer_hierarchy, Hierarchy};
use crate::resolve::MergeError;

/// Options controlling the merge.
#[derive(Clone, Debug, Default)]
pub struct MergeOptions {
    /// Designer-chosen names for virtual intersection classes, keyed by
    /// `(local class, remote class)` (e.g. `(RefereedPubl, Proceedings) →
    /// RefereedProceedings`). Unnamed intersections get a generated name.
    pub intersection_names: BTreeMap<(ClassName, ClassName), ClassName>,
}

/// The integrated (global) view of the two conformed databases.
#[derive(Clone, Debug)]
pub struct IntegratedView {
    /// Global objects by id.
    pub objects: BTreeMap<ObjectId, GlobalObject>,
    /// Conformed id → global id.
    pub id_map: BTreeMap<ObjectId, ObjectId>,
    /// The inferred class hierarchy and extensions.
    pub hierarchy: Hierarchy,
    /// Merge anomalies.
    pub notes: Vec<String>,
}

/// Runs the merging phase on a conformed pair (§2.3): entity resolution,
/// value fusion, hierarchy inference. The phases share one hash-indexed
/// view of the conformed objects instead of each re-indexing the pair.
pub fn merge(conf: &Conformed, opts: &MergeOptions) -> Result<IntegratedView, MergeError> {
    let idx = crate::index::ConformedIndex::new(conf);
    let (eqs, sims) = crate::resolve::resolve_with(conf, &idx)?;
    let fused: FuseResult = crate::fuse::fuse_with(conf, &idx, &eqs, &sims)?;
    let hierarchy = infer_hierarchy(conf, &fused, &sims, opts);
    Ok(IntegratedView {
        objects: fused.objects,
        id_map: fused.id_map,
        hierarchy,
        notes: fused.notes,
    })
}

impl IntegratedView {
    /// The global objects in a class's extension.
    pub fn extension(&self, class: &ClassName) -> Vec<&GlobalObject> {
        self.hierarchy
            .extension(class)
            .iter()
            .filter_map(|id| self.objects.get(id))
            .collect()
    }

    /// Navigates a path on a global object (references resolve to other
    /// global objects). The empty `self` path yields the object's own
    /// reference, as in the component evaluator.
    pub fn get_path(&self, obj: &GlobalObject, path: &Path) -> Value {
        if path.is_this() {
            return Value::Ref(obj.id);
        }
        let mut cur: &GlobalObject = obj;
        for (i, attr) in path.0.iter().enumerate() {
            let v = cur.attrs.get(attr).cloned().unwrap_or(Value::Null);
            if i + 1 == path.0.len() {
                return v;
            }
            match v {
                Value::Ref(id) => match self.objects.get(&id) {
                    Some(next) => cur = next,
                    None => return Value::Null,
                },
                _ => return Value::Null,
            }
        }
        Value::Null
    }

    /// Evaluates a (conformed) formula on a global object. Semantics
    /// match the component-database evaluator: three-valued with `Null`.
    pub fn eval(&self, obj: &GlobalObject, f: &Formula) -> Truth {
        match f {
            Formula::True => Truth::True,
            Formula::False => Truth::False,
            Formula::Cmp(a, op, b) => {
                let (va, vb) = (self.eval_expr(obj, a), self.eval_expr(obj, b));
                if va.is_null() || vb.is_null() {
                    return Truth::Unknown;
                }
                match va.compare(&vb) {
                    Some(ord) => Truth::from_bool(op.test(ord)),
                    None => Truth::from_bool(matches!(op, CmpOp::Ne)),
                }
            }
            Formula::In(e, set) => {
                let v = self.eval_expr(obj, e);
                if v.is_null() {
                    return Truth::Unknown;
                }
                Truth::from_bool(set.iter().any(|s| s.sem_eq(&v)))
            }
            Formula::Contains(e, s) => match self.eval_expr(obj, e) {
                Value::Null => Truth::Unknown,
                Value::Str(hay) => Truth::from_bool(hay.contains(s.as_str())),
                _ => Truth::False,
            },
            Formula::Not(inner) => self.eval(obj, inner).not(),
            Formula::And(fs) => fs
                .iter()
                .fold(Truth::True, |acc, g| acc.and(self.eval(obj, g))),
            Formula::Or(fs) => fs
                .iter()
                .fold(Truth::False, |acc, g| acc.or(self.eval(obj, g))),
            Formula::Implies(a, b) => self.eval(obj, a).not().or(self.eval(obj, b)),
        }
    }

    fn eval_expr(&self, obj: &GlobalObject, e: &Expr) -> Value {
        match e {
            Expr::Const(v) => v.clone(),
            Expr::Attr(p) => self.get_path(obj, p),
            Expr::Neg(inner) => match self.eval_expr(obj, inner).as_num() {
                Some(n) => Value::Real(-n),
                None => Value::Null,
            },
            Expr::Bin(a, op, b) => {
                let (x, y) = (
                    self.eval_expr(obj, a).as_num(),
                    self.eval_expr(obj, b).as_num(),
                );
                match (x, y) {
                    (Some(x), Some(y)) => {
                        use interop_constraint::ArithOp::*;
                        let r = match op {
                            Add => x + y,
                            Sub => x - y,
                            Mul => x * y,
                            Div => {
                                if y.get() == 0.0 {
                                    return Value::Null;
                                }
                                x / y
                            }
                        };
                        Value::Real(r)
                    }
                    _ => Value::Null,
                }
            }
        }
    }

    /// The global object an original (conformed) object was merged into.
    pub fn global_of(&self, conformed: ObjectId) -> Option<&GlobalObject> {
        self.id_map
            .get(&conformed)
            .and_then(|gid| self.objects.get(gid))
    }

    /// A read accessor for one attribute of a global object.
    pub fn attr(&self, obj: &GlobalObject, name: &str) -> Value {
        obj.attrs
            .get(&AttrName::new(name))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Materialises the integrated view as a plain [`interop_model::Database`]
    /// so it can be stored, queried through `interop-storage`, or serve as
    /// the *local* side of a further integration (chaining — the paper's
    /// `DBint` drawn as a database in Figure 2).
    ///
    /// The global class graph is a DAG (virtual subclasses have two
    /// parents), which the single-inheritance model cannot host; the
    /// materialised schema is therefore *flat*: one root class per global
    /// class, each carrying every attribute observed on its members
    /// (typed by the joined value kinds). Each global object is placed in
    /// one extent — the smallest class containing it (ties broken by
    /// name) — while full memberships remain available on the view.
    pub fn materialize(&self, db_name: &str, space: u32) -> Result<Database, MergeError> {
        use interop_model::{ClassDef, Schema, Type};
        // Infer attribute types per class from member values.
        let mut class_attrs: BTreeMap<ClassName, BTreeMap<AttrName, Type>> = BTreeMap::new();
        // Smallest containing class per object.
        let mut placement: BTreeMap<interop_model::ObjectId, ClassName> = BTreeMap::new();
        for g in self.objects.values() {
            let mut best: Option<(usize, ClassName)> = None;
            for (class, ext) in &self.hierarchy.extensions {
                if ext.contains(&g.id) {
                    let cand = (ext.len(), class.clone());
                    best = Some(match best {
                        None => cand,
                        Some(b) if cand < b => cand,
                        Some(b) => b,
                    });
                }
            }
            let class = best
                .map(|(_, c)| c)
                .unwrap_or_else(|| ClassName::new("GlobalObject"));
            placement.insert(g.id, class.clone());
            let attrs = class_attrs.entry(class).or_default();
            for (a, v) in &g.attrs {
                if let Some(t) = infer_value_type(v) {
                    match attrs.entry(a.clone()) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(t);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            let joined = e.get().join(&t).unwrap_or(Type::Str);
                            *e.get_mut() = joined;
                        }
                    }
                }
            }
        }
        // References: type them as Ref(target's placement class); all
        // target classes must agree, else fall back to a shared root.
        let mut defs: Vec<ClassDef> = Vec::new();
        let mut ref_types: BTreeMap<(ClassName, AttrName), ClassName> = BTreeMap::new();
        for g in self.objects.values() {
            let class = placement[&g.id].clone();
            for (a, v) in &g.attrs {
                if let Value::Ref(target) = v {
                    if let Some(tc) = placement.get(target) {
                        ref_types
                            .entry((class.clone(), a.clone()))
                            .and_modify(|prev| {
                                if prev != tc {
                                    *prev = ClassName::new("GlobalObject");
                                }
                            })
                            .or_insert_with(|| tc.clone());
                    }
                }
            }
        }
        // Reference attributes carry no inferable scalar type; make sure
        // they still appear in their class's attribute list.
        for (class, attr) in ref_types.keys() {
            class_attrs
                .entry(class.clone())
                .or_default()
                .entry(attr.clone())
                .or_insert(Type::Str); // placeholder; overridden by Ref below
        }
        let needs_root = ref_types.values().any(|c| c.as_str() == "GlobalObject")
            || placement.values().any(|c| c.as_str() == "GlobalObject");
        if needs_root {
            defs.push(ClassDef::new("GlobalObject"));
        }
        for (class, attrs) in &class_attrs {
            let mut def = ClassDef::new(class.clone()).virt();
            for (a, t) in attrs {
                let ty = ref_types
                    .get(&(class.clone(), a.clone()))
                    .map(|c| Type::Ref(c.clone()))
                    .unwrap_or_else(|| t.clone());
                def = def.attr(a.clone(), ty);
            }
            defs.push(def);
        }
        let schema = Schema::new(db_name, defs).map_err(|e| MergeError::Model(e.to_string()))?;
        let mut out = Database::new(schema, space);
        for g in self.objects.values() {
            let class = &placement[&g.id];
            let known = &class_attrs[class];
            let mut obj = interop_model::Object::new(g.id, class.clone());
            for (a, v) in &g.attrs {
                // Drop attributes whose type could not be inferred class-wide.
                if known.contains_key(a) || ref_types.contains_key(&(class.clone(), a.clone())) {
                    obj.set(a.clone(), v.clone());
                }
            }
            out.insert(obj)
                .map_err(|e| MergeError::Model(e.to_string()))?;
        }
        Ok(out)
    }
}

/// The materialisable type of a value, if any.
///
/// Sets carry the *join* of their members' element types (`{1, 2}` is a
/// `P(int)`, not a `Pstring`), falling back to string elements when the
/// members disagree or carry no scalar type (refs); the empty set also
/// materialises as `Pstring`. `Null` and references yield no scalar type —
/// references are patched to `Ref(class)` attributes by the caller.
fn infer_value_type(v: &Value) -> Option<interop_model::Type> {
    use interop_model::Type;
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(Type::Bool),
        Value::Int(_) => Some(Type::Int),
        Value::Real(_) => Some(Type::Real),
        Value::Str(_) => Some(Type::Str),
        Value::Set(items) => {
            let mut elem: Option<Type> = None;
            for t in items.iter().filter_map(infer_value_type) {
                elem = Some(match elem {
                    None => t,
                    Some(prev) => prev.join(&t).unwrap_or(Type::Str),
                });
            }
            Some(Type::SetOf(Box::new(elem.unwrap_or(Type::Str))))
        }
        Value::Ref(_) => None, // patched by the caller once classes exist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::Catalog;
    use interop_model::{ClassDef, Database, Schema, Type};
    use interop_spec::{ComparisonRule, Conversion, Decision, InterCond, PropEq, Side, Spec};

    fn view() -> IntegratedView {
        conformed_and_view().1
    }

    fn conformed_and_view() -> (Conformed, IntegratedView) {
        let local_schema = Schema::new(
            "L",
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
        let remote_schema = Schema::new(
            "R",
            vec![
                ClassDef::new("Publisher").attr("name", Type::Str),
                ClassDef::new("Item")
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Ref(ClassName::new("Publisher")))
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let mut ldb = Database::new(local_schema, 1);
        ldb.create(
            "ScientificPubl",
            vec![
                ("isbn", "X".into()),
                ("publisher", "ACM".into()),
                ("ourprice", 26.0.into()),
                ("rating", 2i64.into()),
            ],
        )
        .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        let p = rdb
            .create("Publisher", vec![("name", "ACM".into())])
            .unwrap();
        rdb.create(
            "Proceedings",
            vec![
                ("isbn", "X".into()),
                ("publisher", Value::Ref(p)),
                ("libprice", 22.0.into()),
                ("rating", 8i64.into()),
            ],
        )
        .unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r1",
            "Publication",
            "Item",
            vec![InterCond::eq("isbn", "isbn")],
        ));
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
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "publisher",
            "Publisher",
            "name",
            Conversion::Id,
            Conversion::Id,
            Decision::Any,
        ));
        let conf =
            interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap();
        let view = merge(&conf, &MergeOptions::default()).unwrap();
        (conf, view)
    }

    #[test]
    fn merged_object_has_fused_rating() {
        let v = view();
        // Local rating 2 conformed to 4; remote 8; avg = 6.
        let merged = v
            .objects
            .values()
            .find(|g| {
                g.local.is_some()
                    && g.remote.is_some()
                    && g.attrs.contains_key(&AttrName::new("rating"))
            })
            .expect("merged publication");
        assert_eq!(v.attr(merged, "rating"), Value::int(6));
        assert_eq!(v.attr(merged, "libprice"), Value::real(26.0));
    }

    #[test]
    fn virtual_publisher_merges_with_remote_publisher() {
        let v = view();
        // One global publisher object carrying name=ACM, merged from the
        // virtual local and the real remote one.
        let publishers = v.extension(&ClassName::new("Publisher"));
        let virt = v.extension(&ClassName::new("VirtPublisher"));
        assert_eq!(publishers.len(), 1);
        assert_eq!(virt.len(), 1);
        assert_eq!(publishers[0].id, virt[0].id);
        assert!(publishers[0].local.is_some() && publishers[0].remote.is_some());
    }

    #[test]
    fn path_navigation_through_global_refs() {
        let v = view();
        let merged = v
            .objects
            .values()
            .find(|g| g.attrs.contains_key(&AttrName::new("rating")))
            .unwrap();
        let name = v.get_path(merged, &Path::parse("publisher.name"));
        assert_eq!(name, Value::str("ACM"));
        // Formula evaluation over the global object.
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").implies(Formula::cmp(
            "rating",
            CmpOp::Ge,
            5i64,
        ));
        assert_eq!(v.eval(merged, &f), Truth::True);
    }

    #[test]
    fn self_path_agrees_with_component_evaluator() {
        // Regression: the view used to read the empty `self` path as
        // `Null`, so `self = self` came out Unknown on a global object
        // while the component evaluator says True.
        use interop_constraint::eval::eval_formula;
        let (conf, v) = conformed_and_view();
        let this = || Expr::Attr(Path::this());
        let formulas = [
            Formula::Cmp(this(), CmpOp::Eq, this()),
            Formula::In(this(), [Value::int(1)].into_iter().collect()),
            Formula::cmp("isbn", CmpOp::Eq, "X").implies(Formula::Cmp(this(), CmpOp::Ne, this())),
        ];
        let local = conf
            .local
            .db
            .objects()
            .find(|o| o.class.as_str() == "ScientificPubl")
            .unwrap();
        let global = v.global_of(local.id).unwrap();
        assert_eq!(v.get_path(global, &Path::this()), Value::Ref(global.id));
        for f in &formulas {
            let component = eval_formula(&conf.local.db, local, f).unwrap();
            assert_eq!(v.eval(global, f), component, "{f}");
            assert_ne!(component, Truth::Unknown, "{f} must not be vacuous");
        }
    }

    #[test]
    fn eval_three_valued_on_missing_attrs() {
        let v = view();
        let merged = v
            .objects
            .values()
            .find(|g| g.attrs.contains_key(&AttrName::new("rating")))
            .unwrap();
        assert_eq!(
            v.eval(merged, &Formula::cmp("nonexistent", CmpOp::Eq, 1i64)),
            Truth::Unknown
        );
    }

    #[test]
    fn materialize_types_sets_by_element_kind() {
        // Regression: `materialize` used to type every set as `Pstring`,
        // so a set of ints could not round-trip through storage. The
        // element type must be inferred from the members.
        use interop_model::Type;
        let local_schema = Schema::new(
            "L",
            vec![ClassDef::new("Doc")
                .attr("isbn", Type::Str)
                .attr("codes", Type::SetOf(Box::new(Type::Int)))
                .attr("tags", Type::pstring())],
        )
        .unwrap();
        let remote_schema =
            Schema::new("R", vec![ClassDef::new("Item").attr("isbn", Type::Str)]).unwrap();
        let mut ldb = Database::new(local_schema, 1);
        let codes = Value::Set([Value::int(3), Value::int(7)].into_iter().collect());
        ldb.create(
            "Doc",
            vec![
                ("isbn", "X".into()),
                ("codes", codes.clone()),
                ("tags", Value::str_set(["a", "b"])),
            ],
        )
        .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        rdb.create("Item", vec![("isbn", "X".into())]).unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r1",
            "Doc",
            "Item",
            vec![InterCond::eq("isbn", "isbn")],
        ));
        let conf =
            interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap();
        let v = merge(&conf, &MergeOptions::default()).unwrap();
        let db = v.materialize("Mat", 7).unwrap();
        // The materialised schema types the set attrs by element kind.
        let g = v.objects.values().next().unwrap();
        let class = &db.object(g.id).unwrap().class;
        let (_, codes_def) = db
            .schema
            .resolve_attr(class, &AttrName::new("codes"))
            .unwrap();
        assert_eq!(codes_def.ty, Type::SetOf(Box::new(Type::Int)));
        let (_, tags_def) = db
            .schema
            .resolve_attr(class, &AttrName::new("tags"))
            .unwrap();
        assert_eq!(tags_def.ty, Type::pstring());
        // Round-trip through a constraint-enforcing store preserves the
        // set value (the old Pstring typing made this insert fail).
        let store = interop_storage::Store::new(db, Catalog::new());
        let stored = store.db().object(g.id).unwrap();
        assert_eq!(stored.get(&AttrName::new("codes")), &codes);
        let back = store.into_db();
        assert_eq!(
            back.object(g.id).unwrap().get(&AttrName::new("codes")),
            &codes
        );
    }

    #[test]
    fn global_of_resolves_both_sides() {
        let v = view();
        let gids: std::collections::BTreeSet<ObjectId> = v.objects.keys().copied().collect();
        for (orig, gid) in &v.id_map {
            assert!(gids.contains(gid), "{orig} maps to missing global {gid}");
        }
    }
}
