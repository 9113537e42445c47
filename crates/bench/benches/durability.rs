//! Durability bench — what the write-ahead log costs on the write
//! path. Loads 10k objects into a volatile store (`DurabilityMode::Off`
//! — the pre-durability baseline, byte-identical behaviour) and into a
//! WAL-backed store, then prices recovery: reopening the 10k-object
//! log, and reopening after `snapshot_now` (replay-free). Also prices
//! one MVCC commit by database size (`mvcc_commit`), which structural
//! sharing keeps nearly flat from 1k to 100k objects.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use interop_bench::synthetic_store;
use interop_constraint::Catalog;
use interop_model::{ClassDef, ClassName, Database, Object, ObjectId, Schema, Type, Value};
use interop_storage::{DurabilityMode, GroupCommitPolicy, MvccStore, Store};

const N: usize = 10_000;

/// Concurrent committers for the group-commit bench.
const GROUP_THREADS: usize = 8;

/// Commits each committer keeps in flight before redeeming the oldest
/// durability ticket. Group-commit batches grow with the total number
/// of unacknowledged commits (`GROUP_THREADS × PIPELINE_DEPTH`), so
/// pipelining — not thread count — is what decouples the batch size
/// from the session count and lets one `sync_data` cover hundreds of
/// commits.
const PIPELINE_DEPTH: usize = 64;

fn schema() -> Schema {
    Schema::new(
        "Bench",
        vec![ClassDef::new("Item")
            .attr("k", Type::Str)
            .attr("v", Type::Int)],
    )
    .expect("static schema")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("interop-bench-dur-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn item(serial: u64) -> Object {
    Object::new(ObjectId::new(1, serial), ClassName::new("Item"))
        .with("k", format!("k{serial}").as_str())
        .with("v", serial as i64)
}

fn load(store: &mut Store) {
    for serial in 1..=N as u64 {
        store.insert(item(serial)).expect("in-schema insert");
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("durability");
    g.sample_size(10);

    // One-object update transactions through MVCC sessions on a
    // volatile store: begin, update (the overlay's first write), commit
    // (validation, the canonical re-apply, version stamping and
    // snapshot publication). Every step clones or edits the database's
    // persistent maps, so the cost grows with log N, not N.
    for n in [1_000usize, 100_000] {
        let store = MvccStore::new(synthetic_store(n, 7));
        let id = store
            .read_view()
            .db()
            .objects()
            .next()
            .expect("a populated store")
            .id;
        let mut price = 1.0;
        g.bench_with_input(BenchmarkId::new("mvcc_commit", n), &n, |b, _| {
            b.iter(|| {
                price += 1.0;
                let mut t = store.begin();
                t.update(id, "price", Value::real(price))
                    .expect("in-schema update");
                std::hint::black_box(t.commit().expect("a lone writer commits"))
            })
        });
    }

    g.bench_with_input(BenchmarkId::new("writes_off", N), &N, |b, _| {
        b.iter(|| {
            let mut s = Store::new(Database::new(schema(), 1), Catalog::new());
            load(&mut s);
            std::hint::black_box(s.db().len())
        })
    });

    let dir = scratch("wal");
    g.bench_with_input(BenchmarkId::new("writes_wal", N), &N, |b, _| {
        b.iter_batched(
            || {
                // Fresh log per run: WAL append cost, not replay cost.
                let _ = std::fs::remove_dir_all(&dir);
                Store::open(
                    Database::new(schema(), 1),
                    Catalog::new(),
                    &dir,
                    DurabilityMode::Wal,
                )
                .expect("open durable store")
            },
            |mut s| {
                load(&mut s);
                std::hint::black_box(s.db().len())
            },
            BatchSize::PerIteration,
        )
    });

    // Same txn count, but through concurrent MVCC sessions with group
    // commit: committers pipeline their commits ([`MvccTxn::
    // commit_pipelined`]), so hundreds of unacknowledged commits are in
    // flight and one elected leader's `sync_data` covers them all.
    // Every ticket is redeemed inside the measured region — each txn's
    // durability acknowledgement is paid for, just in batches instead
    // of one fsync each. Disjoint write sets (one seeded object per
    // thread) keep first-committer-wins out of the picture, so this
    // prices the sync batching alone.
    let grouped_dir = scratch("grouped");
    g.bench_with_input(BenchmarkId::new("writes_wal_grouped", N), &N, |b, _| {
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&grouped_dir);
                let mut s = Store::open(
                    Database::new(schema(), 1),
                    Catalog::new(),
                    &grouped_dir,
                    DurabilityMode::Wal,
                )
                .expect("open durable store");
                s.set_group_commit(GroupCommitPolicy::grouped(4096, 0));
                for th in 1..=GROUP_THREADS as u64 {
                    s.insert(item(th)).expect("seed one object per thread");
                }
                MvccStore::new(s)
            },
            |store| {
                std::thread::scope(|scope| {
                    for th in 0..GROUP_THREADS as u64 {
                        let store = &store;
                        scope.spawn(move || {
                            let id = ObjectId::new(1, th + 1);
                            let mut pending = std::collections::VecDeque::new();
                            for i in 0..N.div_ceil(GROUP_THREADS) {
                                let mut t = store.begin();
                                t.update(id, "v", Value::Int(i as i64))
                                    .expect("in-schema update");
                                pending.push_back(
                                    t.commit_pipelined().expect("disjoint writers commit"),
                                );
                                if pending.len() >= PIPELINE_DEPTH {
                                    let oldest = pending.pop_front().expect("non-empty");
                                    std::hint::black_box(
                                        oldest.wait().expect("covering sync lands"),
                                    );
                                }
                            }
                            for ticket in pending {
                                std::hint::black_box(ticket.wait().expect("covering sync lands"));
                            }
                        });
                    }
                });
            },
            BatchSize::PerIteration,
        )
    });

    // Recovery price of the same 10k-object history: replayed from the
    // log, then (after `snapshot_now`) loaded straight from a snapshot.
    let reopen = |tag: &str| {
        let d = scratch(tag);
        let mut s = Store::open(
            Database::new(schema(), 1),
            Catalog::new(),
            &d,
            DurabilityMode::Wal,
        )
        .expect("open durable store");
        load(&mut s);
        if tag == "snap" {
            s.snapshot_now().expect("snapshot");
        }
        drop(s);
        d
    };
    let wal_dir = reopen("replay");
    g.bench_with_input(BenchmarkId::new("recover_replay", N), &N, |b, _| {
        b.iter(|| {
            let s = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &wal_dir,
                DurabilityMode::Wal,
            )
            .expect("recover");
            std::hint::black_box(s.db().len())
        })
    });
    let snap_dir = reopen("snap");
    g.bench_with_input(BenchmarkId::new("recover_snapshot", N), &N, |b, _| {
        b.iter(|| {
            let s = Store::open(
                Database::new(schema(), 1),
                Catalog::new(),
                &snap_dir,
                DurabilityMode::Wal,
            )
            .expect("recover");
            std::hint::black_box(s.db().len())
        })
    });

    g.finish();
    for d in [dir, grouped_dir, wal_dir, snap_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
