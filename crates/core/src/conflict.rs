//! Conflict detection (§5.2.1): explicit, implicit, admission, and
//! instance-level conflicts on the integrated view.

use std::collections::BTreeMap;
use std::fmt;

use interop_conform::Conformed;
use interop_constraint::eval::Truth;
use interop_constraint::solve::{conjunction_unsat, implies, TypeEnv};
use interop_constraint::{ConstraintId, Formula, Path, Status};
use interop_merge::{GlobalObject, IntegratedView};
use interop_model::{ClassName, ObjectId};
use interop_spec::{DfKind, RuleId, Side};

use crate::derive::{DerivedConstraint, GlobalConstraints, Scope};

/// The kinds of conflicts the paper distinguishes.
#[derive(Clone, Debug, PartialEq)]
pub enum ConflictKind {
    /// The integrated constraint set of a scope is unsatisfiable
    /// (`Ω̂ ⊨ false`).
    Explicit {
        /// The inconsistent scope.
        scope: Scope,
        /// The participating constraints.
        constraints: Vec<ConstraintId>,
    },
    /// An objective constraint involves a property fused by a
    /// conflict-*ignoring* function without an equivalent constraint on
    /// the other side: a global object may violate it non-deterministically.
    Implicit {
        /// The at-risk objective constraint.
        constraint: ConstraintId,
        /// The property whose non-deterministic global value causes it.
        path: Path,
    },
    /// A strict-similarity rule admits objects that are not provably
    /// valid members of the target class (`Ω' ⊭ Ω̂`).
    Admission {
        /// The rule.
        rule: RuleId,
        /// The target constraint not implied.
        violated: ConstraintId,
        /// What admission would need to imply.
        needed: Formula,
    },
    /// A global object's actual state violates an integrated constraint.
    InstanceViolation {
        /// The violating global object.
        object: ObjectId,
        /// The violated derived constraint (display form).
        constraint: String,
    },
}

/// A detected conflict with a readable description.
#[derive(Clone, Debug, PartialEq)]
pub struct Conflict {
    /// What kind of conflict.
    pub kind: ConflictKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Runs all conflict analyses.
///
/// The output order is part of the contract (report digests and snapshot
/// tests pin it): explicit conflicts by scope, then implicit risks, then
/// admission failures, then instance violations. Instance violations are
/// constraint-major, following the order of `global.object`; within one
/// constraint they follow the id order of the scope's class extension.
pub fn detect_conflicts(
    conf: &Conformed,
    statuses: &BTreeMap<ConstraintId, Status>,
    global: &GlobalConstraints,
    view: &IntegratedView,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    explicit_conflicts(&mut out, conf, global);
    implicit_conflicts(&mut out, conf, statuses);
    for af in &global.admission_failures {
        out.push(Conflict {
            detail: format!(
                "admission conflict: rule {} admits objects not provably satisfying {} ({})",
                af.rule, af.violated, af.needed
            ),
            kind: ConflictKind::Admission {
                rule: af.rule.clone(),
                violated: af.violated.clone(),
                needed: af.needed.clone(),
            },
        });
    }
    instance_violations(&mut out, global, view);
    out
}

fn env_for_scope(conf: &Conformed, scope: &Scope) -> TypeEnv {
    let mut env = TypeEnv::new();
    for class in scope.classes() {
        for schema in [&conf.local.db.schema, &conf.remote.db.schema] {
            if schema.class(class).is_some() {
                for (p, t) in TypeEnv::for_class(schema, class).iter() {
                    if env.get(p).is_none() {
                        env.insert(p.clone(), t.clone());
                    }
                }
            }
        }
    }
    env
}

/// Gathers every derived constraint applicable within a scope: the
/// scope's own constraints plus `All`-scoped constraints on the scope's
/// classes and their ancestors.
fn applicable<'a>(
    conf: &Conformed,
    global: &'a GlobalConstraints,
    scope: &Scope,
) -> Vec<&'a DerivedConstraint> {
    let mut classes: Vec<ClassName> = Vec::new();
    for c in scope.classes() {
        for schema in [&conf.local.db.schema, &conf.remote.db.schema] {
            if schema.class(c).is_some() {
                classes.extend(schema.self_and_ancestors(c));
            }
        }
        classes.push(c.clone());
    }
    classes.sort();
    classes.dedup();
    global
        .object
        .iter()
        .filter(|d| &d.scope == scope || matches!(&d.scope, Scope::All(c) if classes.contains(c)))
        .collect()
}

fn explicit_conflicts(out: &mut Vec<Conflict>, conf: &Conformed, global: &GlobalConstraints) {
    let mut scopes: Vec<Scope> = global.object.iter().map(|d| d.scope.clone()).collect();
    scopes.sort();
    scopes.dedup();
    for scope in scopes {
        let constraints = applicable(conf, global, &scope);
        if constraints.len() < 2 {
            continue;
        }
        let env = env_for_scope(conf, &scope);
        let formulas: Vec<&Formula> = constraints.iter().map(|d| &d.formula).collect();
        if conjunction_unsat(&formulas, &env) {
            let ids: Vec<ConstraintId> = constraints.iter().map(|d| d.id.clone()).collect();
            out.push(Conflict {
                detail: format!(
                    "explicit conflict: the integrated constraints of scope '{scope}' are \
                     unsatisfiable ({} constraints involved)",
                    ids.len()
                ),
                kind: ConflictKind::Explicit {
                    scope,
                    constraints: ids,
                },
            });
        }
    }
}

/// §5.2.1: implicit conflicts arise only for objective constraints over
/// properties fused by conflict-ignoring functions, when the other side
/// lacks an equivalent restriction.
fn implicit_conflicts(
    out: &mut Vec<Conflict>,
    conf: &Conformed,
    statuses: &BTreeMap<ConstraintId, Status>,
) {
    for (side, catalog, schema, other_catalog, other_schema) in [
        (
            Side::Local,
            &conf.local.catalog,
            &conf.local.db.schema,
            &conf.remote.catalog,
            &conf.remote.db.schema,
        ),
        (
            Side::Remote,
            &conf.remote.catalog,
            &conf.remote.db.schema,
            &conf.local.catalog,
            &conf.local.db.schema,
        ),
    ] {
        for oc in catalog.all_object() {
            if statuses.get(&oc.id) != Some(&Status::Objective) {
                continue;
            }
            for path in oc.formula.paths() {
                // Is this path governed by a conflict-ignoring df?
                let pe = conf.spec.propeqs.iter().find(|pe| {
                    let (cls, p) = match side {
                        Side::Local => (&pe.local_class, &pe.local_path),
                        Side::Remote => (&pe.remote_class, &pe.remote_path),
                    };
                    p.head() == path.head() && schema.is_subclass(&oc.class, cls)
                        || (path.len() > 1 && p.head() == path.0.last())
                });
                let Some(pe) = pe else { continue };
                if pe.df.kind() != DfKind::Ignoring {
                    continue;
                }
                // Does the other side enforce an equivalent restriction?
                let other_class = match side {
                    Side::Local => &pe.remote_class,
                    Side::Remote => &pe.local_class,
                };
                if other_schema.class(other_class).is_none() {
                    continue;
                }
                let other_formula = Formula::conj(
                    other_catalog
                        .object_effective(other_schema, other_class)
                        .iter()
                        .map(|c| c.formula.clone()),
                );
                let mut env = TypeEnv::for_class(schema, &oc.class);
                for (p, t) in TypeEnv::for_class(other_schema, other_class).iter() {
                    if env.get(p).is_none() {
                        env.insert(p.clone(), t.clone());
                    }
                }
                // Compare on the shared conformed property name: the
                // other side's constraints must imply this one restricted
                // to the ignored path.
                if !implies(&other_formula, &oc.formula, &env) {
                    out.push(Conflict {
                        detail: format!(
                            "implicit conflict risk: objective constraint {} restricts '{path}' \
                             whose global value may come from the other side (df = any), and \
                             the other side does not enforce an equivalent restriction",
                            oc.id
                        ),
                        kind: ConflictKind::Implicit {
                            constraint: oc.id.clone(),
                            path: path.clone(),
                        },
                    });
                }
            }
        }
    }
}

/// §5 instance check, one pass per distinct scope: each member of a
/// scope is evaluated against every derived constraint of that scope
/// while it is hot, and the violations land in one bucket per
/// constraint. Concatenating the buckets in `global.object` order keeps
/// the output constraint-major, members in extension (id) order within
/// a constraint.
fn instance_violations(out: &mut Vec<Conflict>, global: &GlobalConstraints, view: &IntegratedView) {
    let mut buckets: Vec<Vec<Conflict>> = global.object.iter().map(|_| Vec::new()).collect();
    let mut by_scope: BTreeMap<&Scope, Vec<(&DerivedConstraint, &mut Vec<Conflict>)>> =
        BTreeMap::new();
    for (d, bucket) in global.object.iter().zip(buckets.iter_mut()) {
        by_scope.entry(&d.scope).or_default().push((d, bucket));
    }
    for (scope, checks) in &mut by_scope {
        for obj in scope_members(view, scope) {
            for (d, bucket) in checks.iter_mut() {
                if view.eval(obj, &d.formula) == Truth::False {
                    bucket.push(Conflict {
                        detail: format!(
                            "instance violation: global object {} violates derived constraint \
                             {} ({})",
                            obj.id, d.id, d.formula
                        ),
                        kind: ConflictKind::InstanceViolation {
                            object: obj.id,
                            constraint: d.to_string(),
                        },
                    });
                }
            }
        }
    }
    drop(by_scope);
    out.extend(buckets.into_iter().flatten());
}

/// The global objects a scope covers, in id order: the extension of the
/// scope's (local) class, filtered by where each object came from.
fn scope_members<'v>(
    view: &'v IntegratedView,
    scope: &'v Scope,
) -> impl Iterator<Item = &'v GlobalObject> + 'v {
    let (class, remote_ext) = match scope {
        Scope::Merged(lc, rc) => (lc, Some(view.hierarchy.extension(rc))),
        Scope::All(c) | Scope::LocalOnly(c) | Scope::RemoteOnly(c) => (c, None),
    };
    view.hierarchy
        .extension(class)
        .iter()
        .filter_map(|id| view.objects.get(id))
        .filter(move |obj| match scope {
            Scope::All(_) => true,
            Scope::Merged(..) => {
                obj.local.is_some()
                    && obj.remote.is_some()
                    && remote_ext.is_some_and(|ext| ext.contains(&obj.id))
            }
            Scope::LocalOnly(_) => obj.remote.is_none(),
            Scope::RemoteOnly(_) => obj.local.is_none(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{derive_global_constraints, DeriveOptions};
    use crate::fixtures;
    use crate::subjectivity::{classify_constraints, property_subjectivity};
    use interop_merge::merge;

    fn run(fx: &fixtures::Fixture) -> (Conformed, GlobalConstraints, Vec<Conflict>) {
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let subj = property_subjectivity(&conf);
        let (statuses, _) = classify_constraints(&conf, &subj);
        let global = derive_global_constraints(&conf, &subj, &statuses, DeriveOptions::default());
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let conflicts = detect_conflicts(&conf, &statuses, &global, &view);
        (conf, global, conflicts)
    }

    #[test]
    fn paper_fixture_flags_implicit_and_latent_admission_only() {
        let fx = fixtures::paper_fixture();
        let (_, _, conflicts) = run(&fx);
        // The Figure-1 data itself is consistent: no explicit conflicts
        // and no instance violations. What remains are the genuine
        // findings: implicit risks from conflict-ignoring `any` on
        // publisher.name, and the two latent admission conflicts (r4, r5)
        // the paper's example spec carries.
        for c in &conflicts {
            assert!(
                matches!(
                    c.kind,
                    ConflictKind::Implicit { .. } | ConflictKind::Admission { .. }
                ),
                "unexpected conflict: {c}"
            );
        }
        assert!(
            conflicts.iter().any(
                |c| matches!(&c.kind, ConflictKind::Implicit { constraint, .. }
                    if constraint.as_str() == "CSLibrary.Publication.oc2")
            ),
            "the VirtPublisher KNOWNPUBLISHERS constraint is an implicit risk: {conflicts:?}"
        );
        assert!(conflicts.iter().any(
            |c| matches!(&c.kind, ConflictKind::Admission { rule, .. } if rule.as_str() == "r4")
        ));
    }

    #[test]
    fn instance_violation_detected_for_declared_objective_trust_pair() {
        // §5.1.3's lesson, staged: declare oc1 of both sides objective
        // (violating the value-subjectivity rule would be rejected, so we
        // instead craft values where the fused state breaks the formula
        // and check the instance analysis on a synthetic derived set).
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        // Local (libprice 26, shopprice 29); remote (22, 25); trust(local)
        // and trust(remote) fuse to (26, 25): 26 <= 25 is false.
        let mut global = GlobalConstraints::default();
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("test.libprice"),
            scope: Scope::All(ClassName::new("Publication")),
            formula: Formula::Cmp(
                interop_constraint::Expr::attr("libprice"),
                interop_constraint::CmpOp::Le,
                interop_constraint::Expr::attr("shopprice"),
            ),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(
            conflicts
                .iter()
                .any(|c| matches!(c.kind, ConflictKind::InstanceViolation { .. })),
            "the paper's (26,25) fusion must violate libprice <= shopprice: {conflicts:?}"
        );
    }

    #[test]
    fn instance_violations_are_constraint_major_in_derivation_order() {
        // Two constraints share the scope `all Publication` and a
        // `merged` one sits between them. Checking per scope must not
        // regroup the output: it stays a, b, c, each block in id order.
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let publication = ClassName::new("Publication");
        let derived = |id: &str, scope: Scope, formula: Formula| crate::derive::DerivedConstraint {
            id: ConstraintId::derived(id),
            scope,
            formula,
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        };
        let mut global = GlobalConstraints::default();
        global.object.push(derived(
            "a",
            Scope::All(publication.clone()),
            Formula::Cmp(
                interop_constraint::Expr::attr("libprice"),
                interop_constraint::CmpOp::Le,
                interop_constraint::Expr::attr("shopprice"),
            ),
        ));
        global.object.push(derived(
            "b",
            Scope::Merged(publication.clone(), ClassName::new("Item")),
            Formula::False,
        ));
        global.object.push(derived(
            "c",
            Scope::All(publication),
            Formula::cmp("libprice", interop_constraint::CmpOp::Gt, 1000.0),
        ));
        let violations: Vec<(String, ObjectId)> =
            detect_conflicts(&conf, &BTreeMap::new(), &global, &view)
                .into_iter()
                .filter_map(|c| match c.kind {
                    ConflictKind::InstanceViolation { object, constraint } => {
                        Some((constraint, object))
                    }
                    _ => None,
                })
                .collect();
        let mut blocks: Vec<&str> = violations
            .iter()
            .map(|(c, _)| c.split(']').next().unwrap_or(""))
            .collect();
        blocks.dedup();
        assert_eq!(
            blocks,
            ["[a", "[b", "[c"],
            "constraint-major in derivation order: {violations:?}"
        );
        for pair in violations.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(
                    pair[0].1 < pair[1].1,
                    "id order within a block: {violations:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_conflict_from_contradictory_derivations() {
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let mut global = GlobalConstraints::default();
        let scope = Scope::All(ClassName::new("Proceedings"));
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("a"),
            scope: scope.clone(),
            formula: Formula::cmp("rating", interop_constraint::CmpOp::Ge, 7i64),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("b"),
            scope,
            formula: Formula::cmp("rating", interop_constraint::CmpOp::Le, 3i64),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(conflicts
            .iter()
            .any(|c| matches!(c.kind, ConflictKind::Explicit { .. })));
    }

    #[test]
    fn admission_failures_surface_as_conflicts() {
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let mut global = GlobalConstraints::default();
        global
            .admission_failures
            .push(crate::derive::AdmissionFailure {
                rule: RuleId::new("r3"),
                violated: ConstraintId::derived("CSLibrary.RefereedPubl.oc1"),
                needed: Formula::cmp("rating", interop_constraint::CmpOp::Ge, 4i64),
            });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(conflicts.iter().any(
            |c| matches!(&c.kind, ConflictKind::Admission { rule, .. } if rule.as_str() == "r3")
        ));
    }
}
