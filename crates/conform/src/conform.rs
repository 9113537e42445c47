//! The conformation orchestrator: runs both sides through planning,
//! database transformation, and constraint rewriting, and conforms the
//! specification itself (rules and propeqs restated in conformed terms).

use interop_constraint::Catalog;
use interop_model::Database;
use interop_spec::{ComparisonRule, Conversion, InterCond, PropEq, Relationship, Spec};

use crate::interned::PlanIndex;
use crate::objectify::conform_database;
use crate::plan::{build_plans, ConformError, SidePlan};
use crate::rewrite::{ConformNote, RewriteOutcome, Rewriter};

/// One conformed side: transformed database plus conformed catalog.
#[derive(Clone, Debug)]
pub struct ConformedSide {
    /// The conformed database (virtual classes installed, values
    /// converted).
    pub db: Database,
    /// The conformed constraint catalog (constraints rewritten, some
    /// reallocated to virtual classes, some dropped with notes).
    pub catalog: Catalog,
    /// The plan that produced this side (kept for downstream phases).
    pub plan: SidePlan,
}

/// The full conformation result.
#[derive(Clone, Debug)]
pub struct Conformed {
    /// Conformed local side.
    pub local: ConformedSide,
    /// Conformed remote side.
    pub remote: ConformedSide,
    /// The specification restated in conformed terms: descriptivity rules
    /// become equality rules on virtual classes; propeq paths carry
    /// conformed names and identity conversions.
    pub spec: Spec,
    /// Everything that could not be conformed exactly.
    pub notes: Vec<ConformNote>,
}

/// Space tag for virtual objects created on the local side.
pub const LOCAL_VIRT_SPACE: u32 = 100;
/// Space tag for virtual objects created on the remote side.
pub const REMOTE_VIRT_SPACE: u32 = 101;

/// Runs the conformation phase (§4).
pub fn conform(
    local_db: &Database,
    local_cat: &Catalog,
    remote_db: &Database,
    remote_cat: &Catalog,
    spec: &Spec,
) -> Result<Conformed, ConformError> {
    let (lp, rp) = build_plans(spec, &local_db.schema, &remote_db.schema)?;
    let mut notes = Vec::new();

    // One interned schema/plan index per side, shared by the database
    // transformation, every constraint rewrite, and the spec rewrite —
    // the schema hierarchy is walked once, not once per constraint path.
    let lidx = PlanIndex::new(&local_db.schema, &lp);
    let ridx = PlanIndex::new(&remote_db.schema, &rp);
    let lrw = Rewriter::new(&lidx);
    let rrw = Rewriter::new(&ridx);

    let local_conf_db = conform_database(local_db, &lidx, LOCAL_VIRT_SPACE)?;
    let remote_conf_db = conform_database(remote_db, &ridx, REMOTE_VIRT_SPACE)?;

    let local_catalog = conform_catalog(local_cat, &lrw, &mut notes);
    let mut remote_catalog = conform_catalog(remote_cat, &rrw, &mut notes);

    // Value view: remote counterpart objects would be hidden into values;
    // constraints on them that reach outside the descriptive value set
    // are hidden too (§4 subtask 1).
    if !spec.object_view {
        hide_counterpart_constraints(spec, remote_cat, &mut remote_catalog, &mut notes);
    }

    let conf_spec = conform_spec(spec, &lrw, &rrw, &mut notes)?;

    Ok(Conformed {
        local: ConformedSide {
            db: local_conf_db,
            catalog: local_catalog,
            plan: lp,
        },
        remote: ConformedSide {
            db: remote_conf_db,
            catalog: remote_catalog,
            plan: rp,
        },
        spec: conf_spec,
        notes,
    })
}

fn conform_catalog(cat: &Catalog, rw: &Rewriter, notes: &mut Vec<ConformNote>) -> Catalog {
    let mut out = Catalog::new();
    for oc in cat.all_object() {
        match rw.rewrite_object_constraint(oc) {
            RewriteOutcome::Kept(c) | RewriteOutcome::Reallocated(c) => out.add_object(c),
            RewriteOutcome::Dropped(note) => notes.push(note),
        }
    }
    for cc in cat.all_class() {
        match rw.rewrite_class_constraint(cc) {
            Ok(c) => out.add_class(c),
            Err(note) => notes.push(note),
        }
    }
    for dc in cat.database_constraints() {
        match rw.rewrite_db_constraint(dc) {
            Ok(c) => out.add_database(c),
            Err(note) => notes.push(note),
        }
    }
    out
}

fn hide_counterpart_constraints(
    spec: &Spec,
    original: &Catalog,
    conformed: &mut Catalog,
    notes: &mut Vec<ConformNote>,
) {
    for rule in spec.descriptivity_rules() {
        let class = &rule.subject_class;
        let kept: Vec<interop_constraint::Path> =
            rule.inter.iter().map(|ic| ic.remote.clone()).collect();
        // Rebuild the catalog without constraints that reach outside the
        // value set of the hidden class.
        let mut rebuilt = Catalog::new();
        for oc in conformed.all_object() {
            if &oc.class == class && !oc.formula.paths().iter().all(|p| kept.contains(p)) {
                notes.push(ConformNote {
                    context: oc.id.to_string(),
                    reason: format!(
                        "hidden: class {class} is converted to values and the constraint \
                         involves properties outside the value set"
                    ),
                });
            } else {
                rebuilt.add_object(oc.clone());
            }
        }
        for cc in conformed.all_class() {
            if &cc.class == class {
                notes.push(ConformNote {
                    context: cc.id.to_string(),
                    reason: format!("hidden: class {class} is converted to values"),
                });
            } else {
                rebuilt.add_class(cc.clone());
            }
        }
        for dc in conformed.database_constraints() {
            rebuilt.add_database(dc.clone());
        }
        *conformed = rebuilt;
        let _ = original;
    }
}

fn conform_spec(
    spec: &Spec,
    lrw: &Rewriter,
    rrw: &Rewriter,
    notes: &mut Vec<ConformNote>,
) -> Result<Spec, ConformError> {
    let lp = lrw.index.plan;
    let mut out = Spec::new(spec.local_db.clone(), spec.remote_db.clone());
    out.object_view = spec.object_view;
    out.status_overrides = spec.status_overrides.clone();

    for rule in &spec.rules {
        match &rule.relationship {
            Relationship::Descriptivity { .. } if spec.object_view => {
                // Objectified: becomes an equality rule between the
                // virtual class and the remote counterpart.
                let o = lp
                    .objectifications
                    .iter()
                    .find(|o| o.counterpart_class == rule.subject_class)
                    .expect("planned from the same spec");
                let inter = rule
                    .inter
                    .iter()
                    .map(|ic| {
                        let virt_attr = ic
                            .local
                            .head()
                            .and_then(|h| {
                                o.attr_names
                                    .iter()
                                    .find(|(a, _)| a == h)
                                    .map(|(_, v)| v.clone())
                            })
                            .unwrap_or_else(|| ic.local.head().cloned().unwrap_or_default());
                        InterCond {
                            local: interop_constraint::Path::attr(virt_attr),
                            op: ic.op,
                            remote: ic.remote.clone(),
                        }
                    })
                    .collect();
                let mut eq = ComparisonRule::equality(
                    rule.id.as_str(),
                    o.virt_class.clone(),
                    rule.subject_class.clone(),
                    inter,
                );
                eq.intra_subject = rrw
                    .rewrite_formula(&rule.subject_class, &rule.intra_subject)
                    .map_err(ConformError::Model)?;
                out.add_rule(eq);
            }
            Relationship::Descriptivity { .. } => {
                notes.push(ConformNote {
                    context: rule.id.to_string(),
                    reason: "value view: descriptivity rule handled by hiding, no merge rule"
                        .into(),
                });
            }
            _ => {
                let mut r2 = rule.clone();
                // Subject-side intra condition.
                let (subj_rw, subj_schema_class) = match rule.subject_side {
                    interop_spec::Side::Local => (lrw, &rule.subject_class),
                    interop_spec::Side::Remote => (rrw, &rule.subject_class),
                };
                r2.intra_subject = subj_rw
                    .rewrite_formula(subj_schema_class, &rule.intra_subject)
                    .map_err(ConformError::Model)?;
                if let Some(cp) = &rule.counterpart_class {
                    r2.intra_counterpart = lrw
                        .rewrite_formula(cp, &rule.intra_counterpart)
                        .map_err(ConformError::Model)?;
                    // Interobject conditions: local side on the
                    // counterpart, remote side on the subject.
                    let mut inter2 = Vec::new();
                    for ic in &rule.inter {
                        let (lpath, lcv) = lrw
                            .rewrite_path(cp, &ic.local)
                            .map_err(ConformError::Model)?;
                        let (rpath, rcv) = rrw
                            .rewrite_path(&rule.subject_class, &ic.remote)
                            .map_err(ConformError::Model)?;
                        if lcv != rcv && (lcv != Conversion::Id || rcv != Conversion::Id) {
                            notes.push(ConformNote {
                                context: rule.id.to_string(),
                                reason: format!(
                                    "interobject condition {ic} compares attributes under \
                                     different conversions; kept with renamed paths"
                                ),
                            });
                        }
                        inter2.push(InterCond {
                            local: lpath,
                            op: ic.op,
                            remote: rpath,
                        });
                    }
                    r2.inter = inter2;
                }
                out.add_rule(r2);
            }
        }
    }

    for pe in &spec.propeqs {
        let la = pe.local_path.head().cloned().unwrap_or_default();
        let ra = pe.remote_path.head().cloned().unwrap_or_default();
        // Objectified local property: the propeq moves to the virtual class.
        if let Some(o) = lrw.index.objectify_for(&pe.local_class, &la) {
            let virt_attr = o
                .attr_names
                .iter()
                .find(|(a, _)| a == &la)
                .map(|(_, v)| v.clone())
                .expect("objectify_for membership");
            out.add_propeq(PropEq {
                local_class: o.virt_class.clone(),
                local_path: interop_constraint::Path::attr(virt_attr.clone()),
                remote_class: pe.remote_class.clone(),
                remote_path: interop_constraint::Path::attr(
                    rrw.index.conformed_attr_name(&pe.remote_class, &ra),
                ),
                cf_local: Conversion::Id,
                cf_remote: Conversion::Id,
                df: pe.df,
                conformed_name: interop_constraint::Path::attr(virt_attr),
            });
            continue;
        }
        let conformed = pe.conformed_name.clone();
        out.add_propeq(PropEq {
            local_class: pe.local_class.clone(),
            local_path: conformed.clone(),
            remote_class: pe.remote_class.clone(),
            remote_path: conformed.clone(),
            cf_local: Conversion::Id,
            cf_remote: Conversion::Id,
            df: pe.df,
            conformed_name: conformed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::expr::AggOp;
    use interop_constraint::{
        ClassConstraint, ClassConstraintBody, CmpOp, ConstraintId, Expr, Formula, ObjectConstraint,
        Path,
    };
    use interop_model::{AttrName, ClassDef, ClassName, DbName, Schema, Type, Value};
    use interop_spec::{Decision, Side};

    fn fixture() -> (Database, Catalog, Database, Catalog, Spec) {
        let local_schema = Schema::new(
            "CSLibrary",
            vec![
                ClassDef::new("Publication")
                    .attr("title", Type::Str)
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Str)
                    .attr("shopprice", Type::Real)
                    .attr("ourprice", Type::Real),
                ClassDef::new("ScientificPubl")
                    .isa("Publication")
                    .attr("editors", Type::pstring())
                    .attr("rating", Type::Range(1, 5)),
                ClassDef::new("RefereedPubl")
                    .isa("ScientificPubl")
                    .attr("avgAccRate", Type::Real),
            ],
        )
        .unwrap();
        let remote_schema = Schema::new(
            "Bookseller",
            vec![
                ClassDef::new("Publisher")
                    .attr("name", Type::Str)
                    .attr("location", Type::Str),
                ClassDef::new("Item")
                    .attr("title", Type::Str)
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Ref(ClassName::new("Publisher")))
                    .attr("shopprice", Type::Real)
                    .attr("libprice", Type::Real)
                    .attr("authors", Type::pstring()),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("ref?", Type::Bool)
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let ldb = DbName::new("CSLibrary");
        let mut lcat = Catalog::new();
        lcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&ldb, &ClassName::new("Publication"), "oc1"),
            "Publication",
            Formula::Cmp(Expr::attr("ourprice"), CmpOp::Le, Expr::attr("shopprice")),
        ));
        lcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&ldb, &ClassName::new("Publication"), "oc2"),
            "Publication",
            Formula::isin("publisher", [Value::str("ACM"), Value::str("IEEE")]),
        ));
        lcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&ldb, &ClassName::new("RefereedPubl"), "oc1"),
            "RefereedPubl",
            Formula::cmp("rating", CmpOp::Ge, 2i64),
        ));
        lcat.add_class(ClassConstraint::key(
            ConstraintId::new(&ldb, &ClassName::new("Publication"), "cc1"),
            "Publication",
            vec!["isbn"],
        ));
        lcat.add_class(ClassConstraint::new(
            ConstraintId::new(&ldb, &ClassName::new("ScientificPubl"), "cc1"),
            "ScientificPubl",
            ClassConstraintBody::Aggregate {
                op: AggOp::Avg,
                path: Path::parse("rating"),
                cmp: CmpOp::Lt,
                bound: Value::int(4),
            },
        ));
        let rdb = DbName::new("Bookseller");
        let mut rcat = Catalog::new();
        rcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&rdb, &ClassName::new("Proceedings"), "oc2"),
            "Proceedings",
            Formula::cmp("ref?", CmpOp::Eq, true).implies(Formula::cmp("rating", CmpOp::Ge, 7i64)),
        ));
        let mut spec = Spec::new("CSLibrary", "Bookseller");
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
        spec.add_rule(ComparisonRule::similarity(
            "r3",
            Side::Remote,
            "Proceedings",
            "RefereedPubl",
            Formula::cmp("ref?", CmpOp::Eq, true),
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "ourprice",
            "Item",
            "libprice",
            interop_spec::Conversion::Id,
            interop_spec::Conversion::Id,
            Decision::Trust(Side::Local),
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "ScientificPubl",
            "rating",
            "Proceedings",
            "rating",
            interop_spec::Conversion::Multiply(2.0),
            interop_spec::Conversion::Id,
            Decision::Avg,
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "publisher",
            "Publisher",
            "name",
            interop_spec::Conversion::Id,
            interop_spec::Conversion::Id,
            Decision::Any,
        ));
        let mut local_db = Database::new(local_schema, 1);
        local_db
            .create(
                "RefereedPubl",
                vec![
                    ("isbn", "111".into()),
                    ("publisher", "ACM".into()),
                    ("ourprice", 26.0.into()),
                    ("shopprice", 29.0.into()),
                    ("rating", 3i64.into()),
                ],
            )
            .unwrap();
        let mut remote_db = Database::new(remote_schema, 2);
        let p = remote_db
            .create("Publisher", vec![("name", "ACM".into())])
            .unwrap();
        remote_db
            .create(
                "Proceedings",
                vec![
                    ("isbn", "111".into()),
                    ("publisher", Value::Ref(p)),
                    ("ref?", true.into()),
                    ("rating", 8i64.into()),
                ],
            )
            .unwrap();
        (local_db, lcat, remote_db, rcat, spec)
    }

    #[test]
    fn full_conformation_produces_paper_artifacts() {
        let (ldb, lcat, rdb, rcat, spec) = fixture();
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        // §4 example 1: oc2 reallocated to VirtPublisher as name in {...}.
        let virt = ClassName::new("VirtPublisher");
        let ocs = conf.local.catalog.object_on(&virt);
        assert_eq!(ocs.len(), 1);
        assert_eq!(ocs[0].formula.to_string(), "name in {'ACM', 'IEEE'}");
        // §4 example 2: RefereedPubl ocl becomes rating >= 4.
        let refereed = ClassName::new("RefereedPubl");
        let rocs = conf.local.catalog.object_on(&refereed);
        assert_eq!(rocs[0].formula.to_string(), "rating >= 4");
        // ourprice → libprice in oc1.
        let pubs = conf.local.catalog.object_on(&ClassName::new("Publication"));
        assert_eq!(pubs[0].formula.to_string(), "libprice <= shopprice");
        // Aggregate bound scaled: avg rating < 8.
        let sci_cc = conf
            .local
            .catalog
            .class_on(&ClassName::new("ScientificPubl"));
        match &sci_cc[0].body {
            ClassConstraintBody::Aggregate { bound, .. } => assert_eq!(bound, &Value::int(8)),
            other => panic!("unexpected {other:?}"),
        }
        // No notes for the paper fixture: everything conforms exactly.
        assert!(conf.notes.is_empty(), "unexpected notes: {:?}", conf.notes);
    }

    #[test]
    fn conformed_values_follow() {
        let (ldb, lcat, rdb, rcat, spec) = fixture();
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        let id = conf
            .local
            .db
            .extent(&ClassName::new("RefereedPubl"))
            .next()
            .unwrap();
        let obj = conf.local.db.object(id).unwrap();
        assert_eq!(obj.get(&AttrName::new("rating")), &Value::int(6));
        assert_eq!(obj.get(&AttrName::new("libprice")), &Value::real(26.0));
    }

    #[test]
    fn descriptivity_becomes_equality_on_virtual_class() {
        let (ldb, lcat, rdb, rcat, spec) = fixture();
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        let r2 = conf
            .spec
            .rules
            .iter()
            .find(|r| r.id.as_str() == "r2")
            .unwrap();
        assert!(r2.is_equality());
        assert_eq!(
            r2.counterpart_class.as_ref().unwrap(),
            &ClassName::new("VirtPublisher")
        );
        assert_eq!(r2.inter[0].local, Path::parse("name"));
        assert_eq!(r2.inter[0].remote, Path::parse("name"));
    }

    #[test]
    fn conformed_propeqs_are_identity() {
        let (ldb, lcat, rdb, rcat, spec) = fixture();
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        for pe in &conf.spec.propeqs {
            assert_eq!(pe.cf_local, Conversion::Id);
            assert_eq!(pe.cf_remote, Conversion::Id);
        }
        // The publisher propeq moved to the virtual class.
        let virt_pe = conf
            .spec
            .propeqs
            .iter()
            .find(|p| p.local_class == ClassName::new("VirtPublisher"))
            .unwrap();
        assert_eq!(virt_pe.local_path, Path::parse("name"));
        assert_eq!(virt_pe.df, Decision::Any);
        // The rating propeq now has the same (conformed) name both sides.
        let rating = conf
            .spec
            .propeqs
            .iter()
            .find(|p| p.local_class == ClassName::new("ScientificPubl"))
            .unwrap();
        assert_eq!(rating.local_path, rating.remote_path);
    }

    #[test]
    fn sim_rule_condition_conformed() {
        let (ldb, lcat, rdb, rcat, spec) = fixture();
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        let r3 = conf
            .spec
            .rules
            .iter()
            .find(|r| r.id.as_str() == "r3")
            .unwrap();
        assert_eq!(r3.intra_subject.to_string(), "ref? = true");
    }

    #[test]
    fn value_view_hides_counterpart_constraints() {
        let (ldb, lcat, rdb, mut rcat, mut spec) = fixture();
        spec.object_view = false;
        // A Publisher constraint involving 'location' (outside the value
        // set {name}) must be hidden.
        rcat.add_object(ObjectConstraint::new(
            ConstraintId::new(
                &DbName::new("Bookseller"),
                &ClassName::new("Publisher"),
                "oc9",
            ),
            "Publisher",
            Formula::cmp("location", CmpOp::Ne, ""),
        ));
        let conf = conform(&ldb, &lcat, &rdb, &rcat, &spec).unwrap();
        assert!(conf
            .notes
            .iter()
            .any(|n| n.context.contains("Publisher.oc9") && n.reason.contains("hidden")));
        assert!(conf
            .remote
            .catalog
            .object_on(&ClassName::new("Publisher"))
            .is_empty());
    }
}
