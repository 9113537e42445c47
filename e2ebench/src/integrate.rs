//! `integrate_batch`: repeated `Integrator::run_checked` over a
//! 30k + 30k conflict-bearing fixture, one client thread, closed loop.
//!
//! Secondary operation: the §5 verdict recomputed with
//! `detect_conflicts` on each run's integrated view.

use std::time::Instant;

use interop_conform::conform;
use interop_core::conflict::detect_conflicts;
use interop_core::derive::{derive_global_constraints, DeriveOptions};
use interop_core::fixtures::Fixture;
use interop_core::implied::implied_constraints;
use interop_core::repair::suggest;
use interop_core::{
    classify_constraints, property_subjectivity, ConflictKind, IntegrateError, IntegrationOutcome,
    Integrator, PreflightMode,
};
use interop_merge::{merge, MergeOptions};
use interop_storage::Store;

use crate::stats::{ms_since, Samples};
use crate::trace::Tracer;
use crate::{digest, gen, timed_setups, Config, Run};

/// Objects per source.
const N: usize = 30_000;

/// The pipeline phase by phase, in `Integrator::run`'s order (default
/// options), with a span around each call.
fn phases(
    integ: &Integrator,
    fx: &Fixture,
    tr: &mut Tracer,
) -> Result<IntegrationOutcome, IntegrateError> {
    let s = tr.begin("integrate");
    let out = phases_inner(integ, fx, tr);
    tr.end(s);
    out
}

fn phases_inner(
    integ: &Integrator,
    fx: &Fixture,
    tr: &mut Tracer,
) -> Result<IntegrationOutcome, IntegrateError> {
    let s = tr.begin("analyze.preflight");
    let gate = integ.preflight_gate(PreflightMode::Strict);
    tr.end(s);
    gate?;
    let s = tr.begin("conform.conform");
    let conformed = conform(
        &fx.local_db,
        &fx.local_catalog,
        &fx.remote_db,
        &fx.remote_catalog,
        &fx.spec,
    );
    tr.end(s);
    let conformed = conformed?;
    let s = tr.begin("merge.merge");
    let view = merge(&conformed, &MergeOptions::default());
    tr.end(s);
    let view = view?;
    let s = tr.begin("core.classify");
    let subjectivity = property_subjectivity(&conformed);
    let (statuses, mut spec_issues) = classify_constraints(&conformed, &subjectivity);
    let (implied, implied_issues) = implied_constraints(&conformed);
    spec_issues.extend(implied_issues);
    tr.end(s);
    let s = tr.begin("core.derive");
    let global = derive_global_constraints(
        &conformed,
        &subjectivity,
        &statuses,
        DeriveOptions::default(),
    );
    tr.end(s);
    let s = tr.begin("core.conflicts");
    let conflicts = detect_conflicts(&conformed, &statuses, &global, &view);
    tr.end(s);
    tr.add("core.conflicts_found", conflicts.len() as f64);
    let s = tr.begin("core.repair");
    let repairs = conflicts.iter().map(suggest).collect();
    tr.end(s);
    Ok(IntegrationOutcome {
        conformed,
        view,
        subjectivity,
        statuses,
        spec_issues,
        implied,
        global,
        conflicts,
        repairs,
    })
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let (fx, integ, perturbed) = timed_setups(&mut run, |_| {
        let cf = gen::conflict_fixture(N, N, cfg.seed);
        let fx = cf.fixture;
        let integ = Integrator::new(
            fx.local_db.clone(),
            fx.local_catalog.clone(),
            fx.remote_db.clone(),
            fx.remote_catalog.clone(),
            fx.spec.clone(),
        );
        (fx, integ, cf.perturbed)
    });
    println!(
        "integrate_batch: {N}+{N} objects, {perturbed} of {} matched remote objects perturbed",
        N / 2
    );

    let epoch = Instant::now();
    let (mut checked, mut phased) = (None, None);
    let mut verdict_ok = true;
    for (traced, dur) in cfg.phases() {
        let mut tr = Tracer::new(traced, epoch, 0);
        let (mut op, mut aux) = (Samples::default(), Samples::default());
        let start = Instant::now();
        while start.elapsed() < dur {
            tr.next_op();
            let t = Instant::now();
            let outcome = if traced {
                phases(&integ, &fx, &mut tr)
            } else {
                integ.run_checked()
            };
            let ms = ms_since(t);
            run.attempted += 1;
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    run.failed += 1;
                    run.problems.push(format!("integration failed: {e}"));
                    break;
                }
            };
            op.push(ms);
            let t = Instant::now();
            let s = tr.begin("core.conflicts");
            let verdict = detect_conflicts(
                &outcome.conformed,
                &outcome.statuses,
                &outcome.global,
                &outcome.view,
            );
            tr.end(s);
            aux.push(ms_since(t));
            run.attempted += 1;
            verdict_ok &= verdict == outcome.conflicts;
            if traced {
                phased = Some(outcome);
            } else {
                checked = Some(outcome);
            }
        }
        run.record(traced, op, aux, start.elapsed());
        run.trace.absorb(tr);
    }
    let found = run.trace.counter("core.conflicts_found");
    let runs = run.trace.calls("integrate").max(1) as f64;
    run.trace.set("core.conflicts_found", found / runs);
    if !run.problems.is_empty() {
        return run;
    }

    // Output checks.
    run.check(verdict_ok, || {
        "detect_conflicts on an outcome's view differs from the outcome's conflicts".into()
    });
    let checked = checked.or_else(|| integ.run_checked().ok());
    let phased = phased.or_else(|| phases(&integ, &fx, &mut Tracer::new(false, epoch, 0)).ok());
    match (checked, phased) {
        (Some(c), Some(p)) => {
            run.check(digest(&c) == digest(&p), || {
                "run_checked and the phase-by-phase pipeline disagree".into()
            });
            let violations = c
                .conflicts
                .iter()
                .filter(|x| matches!(x.kind, ConflictKind::InstanceViolation { .. }))
                .count();
            run.check(violations > 0, || "no §5 instance violation found".into());
            println!(
                "integrate_batch: {} conflicts ({violations} instance violations)",
                c.conflicts.len()
            );
        }
        _ => run.problems.push("the final integration failed".into()),
    }
    for (db, cat) in [
        (&fx.local_db, &fx.local_catalog),
        (&fx.remote_db, &fx.remote_catalog),
    ] {
        let bad = Store::new(db.clone(), cat.clone()).check_all();
        run.check(matches!(&bad, Ok(v) if v.is_empty()), || {
            format!("generated {} violates its catalog: {bad:?}", db.schema.db)
        });
    }
    run
}
