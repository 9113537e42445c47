//! `store_read`: planned reads on an `MvccStore` over
//! `synthetic_store(100_000)` (`DurabilityMode::Off`), two client
//! threads in a closed loop.
//!
//! 99% of requests are reads on `read_view()` through an `Optimizer`
//! armed with the derived constraint `rating ≥ 5`, in a fixed mix of
//! query shapes ([`Shape`]). The other 1% are one-object update
//! transactions (the secondary operation); each publishes a snapshot
//! whose secondary indexes start cold.

use std::time::{Duration, Instant};

use interop_bench::synthetic_store;
use interop_constraint::{CmpOp, Formula};
use interop_model::{ObjectId, Value};
use interop_storage::{MvccStore, OptimizeOutcome, Optimizer, Query, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::session::{finish_mvcc, rmw};
use crate::stats::{ms_since, Samples};
use crate::trace::Tracer;
use crate::{timed_setups, Config, Run};

/// Items in the store.
const N: usize = 100_000;

/// Client threads.
const THREADS: usize = 2;

/// Every this many requests of a client, one is an update transaction
/// (1%); the rest are reads. A fixed cadence, not a coin flip, so every
/// run commits the same share.
const UPDATE_EVERY: u64 = 100;

/// A client's first read, and every this many after it, is answered
/// again with `Query::scan` on the same snapshot and compared (untimed).
const CHECK_EVERY: u64 = 400;

/// Warm-up rounds over every shape before timing.
const WARM_ROUNDS: usize = 8;

/// The query shapes and their share of reads, in percent.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `isbn = k` — the key index.
    Key,
    /// `rating = r ∧ price ≤ p` — selective, two secondary indexes.
    Selective,
    /// `rating = r ∧ shelf = s` — the recurring composite pair.
    Composite,
    /// `rating ≥ 9` — a third of the store.
    Wide,
    /// `rating ≤ 3` — contradicts `rating ≥ 5`, pruned unanswered.
    Pruned,
}

/// Key lookups and pruned queries answer in microseconds; they make up
/// 35% of reads, so the median read falls inside the planned shapes.
const MIX: [(Shape, u32); 5] = [
    (Shape::Key, 25),
    (Shape::Selective, 30),
    (Shape::Composite, 30),
    (Shape::Wide, 5),
    (Shape::Pruned, 10),
];

fn query(rng: &mut StdRng, shape: Shape) -> Formula {
    match shape {
        Shape::Key => Formula::cmp(
            "isbn",
            CmpOp::Eq,
            Value::str(format!("isbn-{}", rng.gen_range(0..N))),
        ),
        Shape::Selective => Formula::cmp("rating", CmpOp::Eq, rng.gen_range(5..=10i64)).and(
            Formula::cmp("price", CmpOp::Le, Value::real(rng.gen_range(1.0..5.0))),
        ),
        Shape::Composite => Formula::cmp("rating", CmpOp::Eq, rng.gen_range(5..=10i64))
            .and(Formula::cmp("shelf", CmpOp::Eq, rng.gen_range(0..50i64))),
        Shape::Wide => Formula::cmp("rating", CmpOp::Ge, 9i64),
        Shape::Pruned => Formula::cmp("rating", CmpOp::Le, 3i64),
    }
}

fn pick_shape(rng: &mut StdRng) -> Shape {
    let mut r = rng.gen_range(0..100u32);
    for (shape, pct) in MIX {
        if r < pct {
            return shape;
        }
        r -= pct;
    }
    unreachable!("MIX sums to 100")
}

/// The derived global constraint the planner is armed with.
fn derived() -> Vec<Formula> {
    vec![Formula::cmp("rating", CmpOp::Ge, 5i64)]
}

/// One planned read on `view`; returns the hits.
fn read(view: &Store, pred: &Formula, tr: &mut Tracer) -> Result<Vec<ObjectId>, String> {
    if tr.on() && view.secondary_cache_stats().1 == 0 {
        tr.add("storage.cold_reads", 1.0);
    }
    let s = tr.begin("storage.optimizer_new");
    let opt = Optimizer::new(view, "Item", derived());
    tr.end(s);
    let s = tr.begin("storage.execute");
    let answer = opt.execute(view, pred);
    let name = match &answer {
        Ok((_, OptimizeOutcome::PrunedEmpty)) => "storage.execute.pruned",
        Ok((_, OptimizeOutcome::KeyLookup)) => "storage.execute.key",
        Ok((_, OptimizeOutcome::IndexScan)) => "storage.execute.index",
        Ok((_, OptimizeOutcome::Scanned)) | Err(_) => "storage.execute.scan",
    };
    tr.end_as(s, name);
    let (hits, _) = answer.map_err(|e| format!("query {pred} failed: {e}"))?;
    tr.add("storage.rows", hits.len() as f64);
    Ok(hits)
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    reads: Samples,
    updates: Samples,
    attempted: u64,
    failed: u64,
    checked: u64,
    problems: Vec<String>,
}

fn client(
    store: &MvccStore,
    ids: &[ObjectId],
    seed: u64,
    dur: Duration,
    tr: &mut Tracer,
) -> Client {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Client::default();
    let mut reads = 0u64;
    let start = Instant::now();
    while start.elapsed() < dur {
        tr.next_op();
        c.attempted += 1;
        if c.attempted % UPDATE_EVERY == 0 {
            let id = ids[rng.gen_range(0..ids.len())];
            let price = Value::real(rng.gen_range(1.0..100.0));
            let t = Instant::now();
            match rmw(store, tr, id, "price", |_| price.clone()) {
                Ok(_) => c.updates.push(ms_since(t)),
                Err(e) => {
                    c.failed += 1;
                    eprintln!("store_read: update failed: {e}");
                }
            }
            continue;
        }
        let shape = pick_shape(&mut rng);
        let pred = query(&mut rng, shape);
        let t = Instant::now();
        let view = store.read_view();
        let hits = read(&view, &pred, tr);
        let ms = ms_since(t);
        match hits {
            Ok(hits) => {
                c.reads.push(ms);
                reads += 1;
                if reads % CHECK_EVERY == 1 {
                    c.checked += 1;
                    let mut scan = Query::new("Item", pred.clone())
                        .scan(&view)
                        .unwrap_or_default();
                    scan.sort_unstable();
                    if scan != hits {
                        c.problems.push(format!(
                            "planner answered {pred} with {} rows, a scan with {}",
                            hits.len(),
                            scan.len()
                        ));
                    }
                }
            }
            Err(e) => {
                c.failed += 1;
                c.problems.push(e);
            }
        }
    }
    c
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let (store, ids, composites) = timed_setups(&mut run, |_| {
        let store = synthetic_store(N, cfg.seed);
        let ids: Vec<ObjectId> = store.db().objects().map(|o| o.id).collect();
        let store = MvccStore::new(store);
        // Warm the indexes, statistics and composite admissions every
        // shape uses, so the loop starts in steady state.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let view = store.read_view();
        let mut off = Tracer::new(false, Instant::now(), 0);
        for _ in 0..WARM_ROUNDS {
            for (shape, _) in MIX {
                read(&view, &query(&mut rng, shape), &mut off).expect("warm-up query");
            }
        }
        let composites = view.admitted_composites();
        (store, ids, composites)
    });
    run.check(!composites.is_empty(), || {
        "warm-up admitted no composite index".into()
    });

    let epoch = Instant::now();
    let mut checked = 0;
    for (traced, dur) in cfg.phases() {
        let start = Instant::now();
        let clients: Vec<(Client, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, ids) = (&store, &ids);
                    let seed = cfg.seed ^ ((t as u64 + 1) << 32) ^ u64::from(traced);
                    s.spawn(move || {
                        let mut tr = Tracer::new(traced, epoch, t);
                        let c = client(store, ids, seed, dur, &mut tr);
                        (c, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        let (mut reads, mut updates) = (Samples::default(), Samples::default());
        for (c, tr) in clients {
            run.attempted += c.attempted;
            run.failed += c.failed;
            checked += c.checked;
            run.problems.extend(c.problems);
            reads.extend(c.reads);
            updates.extend(c.updates);
            run.trace.absorb(tr);
        }
        run.record(traced, reads, updates, wall);
    }
    let reads = run.trace.calls("storage.optimizer_new").max(1) as f64;
    let rows = run.trace.counter("storage.rows");
    run.trace.set("storage.rows_per_read", rows / reads);
    finish_mvcc(&mut run.trace);
    run.check(checked > 0, || {
        "no planner answer was checked against a scan".into()
    });
    println!("store_read: {checked} planner answers matched Query::scan");
    run
}
