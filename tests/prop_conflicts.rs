//! Differential oracle for the §5 instance check: `detect_conflicts`
//! against a naive per-constraint reference, on `synthetic_fixture`
//! pairs of random size and seed, with a random share of matched remote
//! objects redrawn so that violations really occur, and with random
//! extra derived constraints over all four scope kinds interleaved into
//! the derived set. The conflict list must match the reference
//! exactly, order included.

use db_interop::conform::{conform, Conformed};
use db_interop::constraint::eval::Truth;
use db_interop::constraint::{CmpOp, ConstraintId, Expr, Formula, Path, Status};
use db_interop::core::conflict::detect_conflicts;
use db_interop::core::derive::{derive_global_constraints, DeriveOptions};
use db_interop::core::fixtures::{self, Fixture};
use db_interop::core::{
    classify_constraints, property_subjectivity, Conflict, ConflictKind, DerivationOrigin,
    DerivedConstraint, GlobalConstraints, Scope,
};
use db_interop::merge::{merge, IntegratedView, MergeOptions};
use db_interop::model::{ClassName, Value};
use interop_bench::{synthetic_fixture, SyntheticConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// The specification of the instance check: every derived constraint in
/// turn, every member of its scope in extension order.
fn reference_instance_violations(
    global: &GlobalConstraints,
    view: &IntegratedView,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    for d in &global.object {
        let members: Vec<_> = match &d.scope {
            Scope::All(c) => view.extension(c),
            Scope::Merged(lc, rc) => view
                .extension(lc)
                .into_iter()
                .filter(|o| {
                    o.local.is_some()
                        && o.remote.is_some()
                        && view.hierarchy.extension(rc).contains(&o.id)
                })
                .collect(),
            Scope::LocalOnly(c) => view
                .extension(c)
                .into_iter()
                .filter(|o| o.remote.is_none())
                .collect(),
            Scope::RemoteOnly(c) => view
                .extension(c)
                .into_iter()
                .filter(|o| o.local.is_none())
                .collect(),
        };
        for obj in members {
            if view.eval(obj, &d.formula) == Truth::False {
                out.push(Conflict {
                    detail: format!(
                        "instance violation: global object {} violates derived constraint {} \
                         ({})",
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
    out
}

/// The integration inputs `detect_conflicts` needs.
struct Derived {
    conf: Conformed,
    statuses: BTreeMap<ConstraintId, Status>,
    global: GlobalConstraints,
    view: IntegratedView,
}

fn derive(fx: &Fixture, opts: &MergeOptions) -> Derived {
    let conf = conform(
        &fx.local_db,
        &fx.local_catalog,
        &fx.remote_db,
        &fx.remote_catalog,
        &fx.spec,
    )
    .expect("conforms");
    let subj = property_subjectivity(&conf);
    let (statuses, _) = classify_constraints(&conf, &subj);
    let global = derive_global_constraints(&conf, &subj, &statuses, DeriveOptions::default());
    let view = merge(&conf, opts).expect("merges");
    Derived {
        conf,
        statuses,
        global,
        view,
    }
}

/// Asserts `detect_conflicts` equals the analyses before the instance
/// check followed by the reference instance violations, and returns how
/// many instance violations there were.
fn check_against_reference(d: &Derived) -> Result<usize, TestCaseError> {
    let got = detect_conflicts(&d.conf, &d.statuses, &d.global, &d.view);
    let expected = reference_instance_violations(&d.global, &d.view);
    prop_assert!(got.len() >= expected.len());
    let (head, tail) = got.split_at(got.len() - expected.len());
    prop_assert!(
        !head
            .iter()
            .any(|c| matches!(c.kind, ConflictKind::InstanceViolation { .. })),
        "an instance violation the reference does not report"
    );
    prop_assert_eq!(tail, &expected[..]);
    Ok(expected.len())
}

/// The lowest `score` each side's catalog allows for `grade`
/// (`synthetic_fixture`'s conditional constraints, four per side).
fn remote_floor(grade: i64) -> i64 {
    if grade < 4 {
        grade % 8 + 2
    } else {
        1
    }
}

/// Redraws `grade` and `score` on `share` of the matched remote objects,
/// keeping the remote catalog satisfied. `grade` is fused by `any`, so
/// the view keeps the local grade while `score` averages both sides: the
/// merged object can then break the bound derived for its grade.
fn perturb(fx: &mut Fixture, share: f64, seed: u64) {
    let local_keys: HashSet<&Value> = fx
        .local_db
        .objects()
        .map(|o| o.get(&"key".into()))
        .collect();
    let matched: Vec<_> = fx
        .remote_db
        .objects()
        .filter(|o| local_keys.contains(o.get(&"key".into())))
        .map(|o| (o.id, o.get(&"grade".into()).clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for (id, grade) in matched {
        if !rng.gen_bool(share) {
            continue;
        }
        let mut g = rng.gen_range(0..8i64);
        if Value::Int(g) == grade {
            g = (g + 1) % 8;
        }
        let score = rng.gen_range(remote_floor(g)..=10);
        for (attr, v) in [("grade", g), ("score", score)] {
            fx.remote_db
                .update(id, attr, Value::Int(v))
                .expect("in-schema update");
        }
    }
}

/// A random extra derived constraint: a scope of any kind over the
/// synthetic classes (plus one class with an empty extension) and a
/// formula that is false on some objects, unknown on others.
fn extra_constraint(rng: &mut StdRng, n: usize) -> DerivedConstraint {
    const CLASSES: [&str; 3] = ["LProd", "RProd", "NoSuchClass"];
    let class = |rng: &mut StdRng| ClassName::new(CLASSES[rng.gen_range(0..CLASSES.len())]);
    let scope = match rng.gen_range(0..4) {
        0 => Scope::All(class(rng)),
        1 => Scope::LocalOnly(class(rng)),
        2 => Scope::RemoteOnly(class(rng)),
        _ if rng.gen_bool(0.5) => Scope::Merged(ClassName::new("LProd"), ClassName::new("RProd")),
        _ => Scope::Merged(class(rng), class(rng)),
    };
    let this = || Expr::Attr(Path::this());
    let formula = match rng.gen_range(0..7) {
        0 => Formula::cmp("grade", CmpOp::Eq, rng.gen_range(0..8i64)).implies(Formula::cmp(
            "score",
            CmpOp::Ge,
            rng.gen_range(1..11i64),
        )),
        1 => Formula::cmp("price", CmpOp::Le, rng.gen_range(1.0..500.0)),
        2 => Formula::cmp("score", CmpOp::Ge, rng.gen_range(1..11i64)).or(Formula::cmp(
            "grade",
            CmpOp::Gt,
            rng.gen_range(0..8i64),
        )),
        3 => Formula::cmp("missing", CmpOp::Eq, 1i64),
        4 => Formula::Cmp(this(), CmpOp::Ne, this()),
        5 => Formula::False,
        _ => Formula::Not(Box::new(Formula::cmp(
            "grade",
            CmpOp::Eq,
            rng.gen_range(0..8i64),
        ))),
    };
    DerivedConstraint {
        id: ConstraintId::derived(&format!("extra{n}")),
        scope,
        formula,
        sources: vec![],
        origin: DerivationOrigin::ObjectivePassThrough,
    }
}

/// Inserts `count` random constraints at random positions, so that
/// scopes interleave in `global.object`.
fn interleave_extras(global: &mut GlobalConstraints, count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in 0..count {
        let d = extra_constraint(&mut rng, n);
        let at = rng.gen_range(0..=global.object.len());
        global.object.insert(at, d);
    }
}

fn synthetic(local_n: usize, remote_n: usize, seed: u64, share: f64, extras: usize) -> Derived {
    let mut fx = synthetic_fixture(SyntheticConfig {
        local_n,
        remote_n,
        match_ratio: 0.5,
        constraints_per_side: 4,
        seed,
    });
    perturb(&mut fx, share, seed ^ 0x5eed);
    let mut d = derive(&fx, &MergeOptions::default());
    interleave_extras(&mut d.global, extras, seed.rotate_left(17));
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn detect_conflicts_matches_per_constraint_reference(
        local_n in 50usize..2_001,
        remote_n in 50usize..2_001,
        seed in 0u64..1_000_000,
        share in 0.0f64..0.3,
        extras in 0usize..12,
    ) {
        check_against_reference(&synthetic(local_n, remote_n, seed, share, extras))?;
    }
}

#[test]
fn perturbed_fixture_has_instance_violations_in_reference_order() {
    let d = synthetic(400, 400, 11, 0.2, 8);
    let found = check_against_reference(&d).expect("matches the reference");
    assert!(
        found > 0,
        "the perturbation must produce instance violations"
    );
    let scopes: Vec<&Scope> = d.global.object.iter().map(|c| &c.scope).collect();
    let mut distinct = scopes.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        scopes.windows(2).filter(|w| w[0] != w[1]).count() >= distinct.len(),
        "scopes must interleave in the derived set: {scopes:?}"
    );
}

#[test]
fn paper_fixture_matches_reference() {
    let d = derive(&fixtures::paper_fixture(), &fixtures::merge_options());
    check_against_reference(&d).expect("matches the reference");
}
