//! Experiment F2 bench: the conformation + merging pipeline on the paper
//! fixture and on synthetic extents of growing size, plus the §5
//! conflict analyses on the merged synthetic view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::{synthetic_fixture, SyntheticConfig};
use interop_core::fixtures;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_pipeline");
    g.sample_size(20);

    let fx = fixtures::paper_fixture();
    g.bench_function("paper_conform", |b| {
        b.iter(|| {
            interop_conform::conform(
                &fx.local_db,
                &fx.local_catalog,
                &fx.remote_db,
                &fx.remote_catalog,
                &fx.spec,
            )
            .expect("conforms")
        })
    });
    let conf = interop_conform::conform(
        &fx.local_db,
        &fx.local_catalog,
        &fx.remote_db,
        &fx.remote_catalog,
        &fx.spec,
    )
    .expect("conforms");
    let opts = fixtures::merge_options();
    g.bench_function("paper_merge", |b| {
        b.iter(|| interop_merge::merge(&conf, &opts).expect("merges"))
    });

    for n in [100usize, 1_000, 10_000] {
        let sfx = synthetic_fixture(SyntheticConfig {
            local_n: n,
            remote_n: n,
            match_ratio: 0.5,
            constraints_per_side: 4,
            seed: 42,
        });
        let sconf = interop_conform::conform(
            &sfx.local_db,
            &sfx.local_catalog,
            &sfx.remote_db,
            &sfx.remote_catalog,
            &sfx.spec,
        )
        .expect("conforms");
        g.bench_with_input(BenchmarkId::new("synthetic_merge", n), &n, |b, _| {
            b.iter(|| interop_merge::merge(&sconf, &Default::default()).expect("merges"))
        });

        // The §5 conflict analyses alone, on a view and derived set built
        // beforehand: the instance check walks every scope's members.
        if n >= 1_000 {
            let view = interop_merge::merge(&sconf, &Default::default()).expect("merges");
            let subj = interop_core::property_subjectivity(&sconf);
            let (statuses, _) = interop_core::classify_constraints(&sconf, &subj);
            let global = interop_core::derive::derive_global_constraints(
                &sconf,
                &subj,
                &statuses,
                Default::default(),
            );
            g.bench_with_input(BenchmarkId::new("conflicts", n), &n, |b, _| {
                b.iter(|| {
                    interop_core::conflict::detect_conflicts(&sconf, &statuses, &global, &view)
                })
            });
        }

        // Single-object churn through the incremental pipeline: one
        // source update re-conforms one object and patches the merge
        // state in place — the contrast with `synthetic_merge` (a full
        // from-scratch re-merge per change) is the tentpole payoff.
        let mut ldb = sfx.local_db.clone();
        let mut pipe = interop_core::IncrementalPipeline::new(
            &ldb,
            &sfx.local_catalog,
            &sfx.remote_db,
            &sfx.remote_catalog,
            &sfx.spec,
            Default::default(),
        )
        .expect("pipeline builds");
        let id = ldb.objects().next().expect("non-empty fixture").id;
        let price = interop_model::AttrName::new("price");
        let mut toggle = false;
        g.bench_with_input(BenchmarkId::new("incremental_merge", n), &n, |b, _| {
            b.iter(|| {
                toggle = !toggle;
                let v = if toggle { 11.5 } else { 23.25 };
                let mut o = ldb.object(id).expect("object lives").clone();
                o.attrs.insert(price.clone(), interop_model::Value::real(v));
                ldb.remove(id).expect("removes");
                ldb.insert(o).expect("re-inserts");
                pipe.apply_local(&ldb, &[id]).expect("patches");
            })
        });
    }
    g.finish();

    let view = interop_merge::merge(&conf, &opts).expect("merges");
    println!(
        "\n[F2] global objects={} intersections={:?}",
        view.objects.len(),
        view.hierarchy
            .intersections
            .iter()
            .map(|i| i.name.to_string())
            .collect::<Vec<_>>()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
