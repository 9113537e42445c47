//! `view_churn`: a maintained integrated view under a stream of local
//! updates. One client thread, closed loop.
//!
//! The local source of a 10k + 10k conflict-bearing fixture lives in a
//! constraint-enforcing `Store` (`DurabilityMode::Off`, touched-id
//! tracking on). Each update — to `price`, `score` or `grade` of a
//! matched object — is followed by `IncrementalPipeline::sync_local`;
//! its latency runs from the update call to the fresh view. After every
//! [`BATCH`] updates the §5 conflict set is brought up to date with
//! `detect_conflicts` on the maintained view (the secondary operation).

use std::time::Instant;

use interop_core::conflict::{detect_conflicts, Conflict};
use interop_core::{IncrementalPipeline, IntegrationOutcome, Integrator};
use interop_merge::MergeOptions;
use interop_model::Value;
use interop_storage::Store;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{conflict_fixture, int_of, local_floor, Pair, GRADES};
use crate::stats::{ms_since, Samples};
use crate::trace::Tracer;
use crate::{digest, timed_setups, Config, Run};

/// Objects per source.
const N: usize = 10_000;

/// Updates between two conflict refreshes. The first update after a
/// refresh runs about twice as slow as the rest (the refresh evicts its
/// working set). With 1 in 48 updates in that class, the p99 falls
/// inside it rather than on its edge, where it would jump between runs.
const BATCH: usize = 48;

/// The local `score` range is `1..=5`.
const LOCAL_SCORE_MAX: i64 = 5;

struct State {
    fixture: interop_core::fixtures::Fixture,
    pairs: Vec<Pair>,
    store: Store,
    pipe: IncrementalPipeline,
    /// The scratch run of set-up: its conformed sources, statuses and
    /// derived constraints do not depend on the data the updates touch.
    base: IntegrationOutcome,
}

/// One update the local catalog accepts: the new value keeps
/// `grade = i ⇒ score ≥ i mod 4 + 1` true for the object.
fn next_update(rng: &mut StdRng, store: &Store, pair: Pair) -> (&'static str, Value) {
    let obj = store.db().object(pair.local).expect("matched local object");
    let grade = int_of(obj.get(&"grade".into()));
    let score = int_of(obj.get(&"score".into()));
    match rng.gen_range(0..3u32) {
        0 => ("price", Value::real(rng.gen_range(1.0..500.0))),
        1 => (
            "score",
            Value::Int(rng.gen_range(local_floor(grade)..=LOCAL_SCORE_MAX)),
        ),
        _ => {
            let allowed: Vec<i64> = GRADES.filter(|&g| local_floor(g) <= score).collect();
            (
                "grade",
                Value::Int(allowed[rng.gen_range(0..allowed.len())]),
            )
        }
    }
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let epoch = Instant::now();
    let mut setup_tr = Tracer::new(cfg.trace, epoch, 0);
    let mut st = timed_setups(&mut run, |_| {
        let cf = conflict_fixture(N, N, cfg.seed);
        let fx = cf.fixture;
        let mut store = Store::new(fx.local_db.clone(), fx.local_catalog.clone());
        store.track_touched(true);
        let base = Integrator::new(
            fx.local_db.clone(),
            fx.local_catalog.clone(),
            fx.remote_db.clone(),
            fx.remote_catalog.clone(),
            fx.spec.clone(),
        )
        .run()
        .expect("the generated fixture integrates");
        setup_tr.next_op();
        let s = setup_tr.begin("core.pipeline_build");
        let pipe = IncrementalPipeline::new(
            store.db(),
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
            MergeOptions::default(),
        )
        .expect("the generated fixture integrates");
        setup_tr.end(s);
        State {
            fixture: fx,
            pairs: cf.pairs,
            store,
            pipe,
            base,
        }
    });
    run.trace.absorb(setup_tr);

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 1);
    let mut conflicts: Vec<Conflict> = st.base.conflicts.clone();
    let mut changes = 0usize;
    for (traced, dur) in cfg.phases() {
        let mut tr = Tracer::new(traced, epoch, 0);
        let (mut op, mut aux) = (Samples::default(), Samples::default());
        let start = Instant::now();
        while start.elapsed() < dur {
            for _ in 0..BATCH {
                let pair = st.pairs[rng.gen_range(0..st.pairs.len())];
                let (attr, value) = next_update(&mut rng, &st.store, pair);
                tr.next_op();
                let t = Instant::now();
                let s = tr.begin("storage.update");
                let updated = st.store.update(pair.local, attr, value);
                tr.end(s);
                run.attempted += 1;
                if let Err(e) = updated {
                    run.failed += 1;
                    eprintln!("view_churn: update rejected: {e}");
                    continue;
                }
                let synced = if traced {
                    let s = tr.begin("core.sync");
                    let touched = st.store.take_touched();
                    let r = st.pipe.apply_local(st.store.db(), &touched).map(|_| ());
                    tr.end(s);
                    tr.add("core.touched", touched.len() as f64);
                    r
                } else {
                    st.pipe.sync_local(&mut st.store).map(|_| ())
                };
                if let Err(e) = synced {
                    run.failed += 1;
                    run.problems.push(format!("sync_local failed: {e}"));
                    return run;
                }
                op.push(ms_since(t));
            }
            tr.next_op();
            let t = Instant::now();
            let s = tr.begin("core.conflicts");
            let fresh = detect_conflicts(
                &st.base.conformed,
                &st.base.statuses,
                &st.base.global,
                st.pipe.view(),
            );
            tr.end(s);
            aux.push(ms_since(t));
            run.attempted += 1;
            tr.add("core.conflicts_found", fresh.len() as f64);
            if fresh != conflicts {
                changes += 1;
                conflicts = fresh;
            }
        }
        run.record(traced, op, aux, start.elapsed());
        run.trace.absorb(tr);
    }
    let syncs = run.trace.calls("core.sync").max(1) as f64;
    let refreshes = run.trace.calls("core.conflicts").max(1) as f64;
    let touched = run.trace.counter("core.touched");
    let found = run.trace.counter("core.conflicts_found");
    run.trace.set("core.touched_per_sync", touched / syncs);
    run.trace.set("core.conflicts_found", found / refreshes);

    // Output checks: the maintained view and conflict set equal a
    // scratch integration of the final sources.
    run.check(changes > 0, || "no refresh changed the conflict set".into());
    println!("view_churn: {changes} refreshes changed the conflict set");
    let fx = &st.fixture;
    match Integrator::new(
        st.store.db().clone(),
        fx.local_catalog.clone(),
        fx.remote_db.clone(),
        fx.remote_catalog.clone(),
        fx.spec.clone(),
    )
    .run()
    {
        Ok(scratch) => {
            run.check(digest(&scratch.view) == digest(st.pipe.view()), || {
                "the maintained view differs from a scratch integration".into()
            });
            run.check(scratch.conflicts == conflicts, || {
                format!(
                    "the refreshed conflict set ({}) differs from a scratch integration's ({})",
                    conflicts.len(),
                    scratch.conflicts.len()
                )
            });
        }
        Err(e) => run
            .problems
            .push(format!("scratch integration failed: {e}")),
    }
    run.check(
        matches!(st.store.check_all(), Ok(v) if v.is_empty()),
        || "the local store violates its catalog".into(),
    );
    run
}
