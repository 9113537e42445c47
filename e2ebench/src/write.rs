//! `store_write`: durable read-modify-write transactions on an
//! `MvccStore` over `synthetic_store(100_000)`, opened with
//! `DurabilityMode::WalWithSnapshots`, the default snapshot cadence and
//! the default `GroupCommitPolicy` (every commit waits for its covering
//! `sync_data`). Two client threads, closed loop.
//!
//! Each transaction looks an item up by key and updates its price. Keys
//! are uniform except for [`HOT`] hot keys that take half the writes, so
//! first-committer-wins conflicts and `run_txn` retries happen. After
//! the loop the store is flushed and dropped, and `Store::open` on its
//! directory is timed [`REOPENS`] times (the secondary operation).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use interop_bench::synthetic_store;
use interop_constraint::Catalog;
use interop_model::{ClassName, Database, ObjectId, Schema, Value};
use interop_storage::{snapshot, wal, DurabilityMode, MvccStore, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::session::{finish_mvcc, rmw, Ack};
use crate::stats::{ms_since, Samples};
use crate::trace::Tracer;
use crate::{timed_setups, Config, Run};

/// Items in the store.
const N: usize = 100_000;

/// Client threads.
const THREADS: usize = 2;

/// Hot keys; together they take half the writes.
const HOT: usize = 8;

/// Timed reopens after the loop.
const REOPENS: usize = 9;

/// Where the store lives and what reopening it needs.
struct Durable {
    dir: PathBuf,
    schema: Arc<Schema>,
    catalog: Catalog,
    space: u32,
}

fn setup(dir: &Path, seed: u64) -> (MvccStore, Durable) {
    let _ = std::fs::remove_dir_all(dir);
    let base = synthetic_store(N, seed);
    let catalog = base.catalog().clone();
    let db = base.into_db();
    let (schema, space) = (db.schema.clone(), db.space());
    let mut store = Store::open(db, catalog.clone(), dir, DurabilityMode::WalWithSnapshots)
        .expect("open a fresh durable store");
    // The bootstrap objects are not in the log; a snapshot makes them
    // durable.
    store.snapshot_now().expect("initial snapshot");
    let durable = Durable {
        dir: dir.to_path_buf(),
        schema,
        catalog,
        space,
    };
    (MvccStore::new(store), durable)
}

/// What the traced loop saw of the durable directory: the largest size
/// of each WAL segment, and each snapshot file with its size.
#[derive(Clone, Default)]
struct DirWatch {
    segments: BTreeMap<u64, u64>,
    snapshots: BTreeMap<String, u64>,
}

impl DirWatch {
    fn poll(&mut self, dir: &Path) {
        if let Ok(segs) = wal::list_segments(dir) {
            for (seq, path) in segs {
                let len = std::fs::metadata(&path).map_or(0, |m| m.len());
                let e = self.segments.entry(seq).or_insert(0);
                *e = (*e).max(len);
            }
        }
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.starts_with("snapshot-") && name.ends_with(".snap") {
                    let len = e.metadata().map_or(0, |m| m.len());
                    self.snapshots.entry(name).or_insert(len);
                }
            }
        }
    }
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    commits: Samples,
    acks: Vec<Ack>,
    attempted: u64,
    failed: u64,
}

fn client(
    store: &MvccStore,
    dir: &Path,
    hot: &[usize],
    seed: u64,
    dur: Duration,
    tr: &mut Tracer,
    watch: &Mutex<DirWatch>,
) -> Client {
    let mut rng = StdRng::seed_from_u64(seed);
    let class = ClassName::new("Item");
    let mut c = Client::default();
    let start = Instant::now();
    while start.elapsed() < dur {
        let key = if rng.gen_bool(0.5) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..N)
        };
        tr.next_op();
        c.attempted += 1;
        let t = Instant::now();
        let isbn = Value::str(format!("isbn-{key}"));
        let Some(id) = store.read_view().lookup_key(&class, &[isbn]) else {
            c.failed += 1;
            eprintln!("store_write: key isbn-{key} not found");
            continue;
        };
        let bumped = |o: &interop_model::Object| match o.get(&"price".into()) {
            Value::Real(p) => Value::real(p.get() + 1.0),
            other => other.clone(),
        };
        match rmw(store, tr, id, "price", bumped) {
            Ok(ack) => {
                c.commits.push(ms_since(t));
                c.acks.push(ack);
            }
            Err(e) => {
                c.failed += 1;
                eprintln!("store_write: transaction failed: {e}");
            }
        }
        if tr.on() {
            watch.lock().expect("watch lock").poll(dir);
        }
    }
    c
}

/// Reopens the store. Traced, the snapshot decode and the WAL scan are
/// first timed on their own.
fn reopen(st: &Durable, tr: &mut Tracer) -> Result<Store, String> {
    tr.next_op();
    if tr.on() {
        let s = tr.begin("recover.snapshot_decode");
        let snap = snapshot::load_latest(&st.dir);
        tr.end(s);
        snap.map_err(|e| e.to_string())?;
        let s = tr.begin("recover.wal_scan");
        let scan = wal::scan_segments(&st.dir);
        tr.end(s);
        scan.map_err(|e| e.to_string())?;
    }
    let s = tr.begin("recover.open");
    let store = Store::open(
        Database::new((*st.schema).clone(), st.space),
        st.catalog.clone(),
        &st.dir,
        DurabilityMode::WalWithSnapshots,
    );
    tr.end(s);
    store.map_err(|e| e.to_string())
}

/// Output checks: the reopened store equals the state before close, and
/// holds the last acknowledged write to every item.
fn verify(run: &mut Run, before: &Store, after: &Store, acks: &[Ack]) {
    let same = before.db().len() == after.db().len()
        && before
            .db()
            .objects()
            .zip(after.db().objects())
            .all(|(a, b)| a == b);
    run.check(same, || {
        "the reopened store differs from the state before close".into()
    });
    let mut last: BTreeMap<ObjectId, &Ack> = BTreeMap::new();
    for a in acks {
        let e = last.entry(a.id).or_insert(a);
        if a.ts > e.ts {
            *e = a;
        }
    }
    let lost = last
        .values()
        .filter(|a| after.db().object(a.id).map(|o| o.get(&"price".into())) != Some(&a.value))
        .count();
    run.check(lost == 0, || {
        format!("{lost} acknowledged commits are missing after reopen")
    });
    println!(
        "store_write: {} acknowledged commits over {} items survive the reopen",
        acks.len(),
        last.len()
    );
}

pub fn run(cfg: &Config) -> Run {
    let mut run = Run::default();
    let dir = |i: usize| {
        cfg.out
            .join(format!("store_write-{}-{i}", std::process::id()))
    };
    let (store, st) = timed_setups(&mut run, |i| setup(&dir(i), cfg.seed));
    for i in 0..run.setups.len() - 1 {
        let _ = std::fs::remove_dir_all(dir(i));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5157);
    let hot: Vec<usize> = (0..HOT).map(|_| rng.gen_range(0..N)).collect();

    let epoch = Instant::now();
    let watch = Mutex::new(DirWatch::default());
    let mut base = DirWatch::default();
    let mut acks: Vec<Ack> = Vec::new();
    for (traced, dur) in cfg.phases() {
        if traced {
            let mut w = watch.lock().expect("watch lock");
            *w = DirWatch::default();
            w.poll(&st.dir);
            base = w.clone();
        }
        let start = Instant::now();
        let clients: Vec<(Client, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, dir, hot, watch) = (&store, &st.dir, &hot, &watch);
                    let seed = cfg.seed ^ ((t as u64 + 1) << 40) ^ u64::from(traced);
                    s.spawn(move || {
                        let mut tr = Tracer::new(traced, epoch, t);
                        let c = client(store, dir, hot, seed, dur, &mut tr, watch);
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
        let mut commits = Samples::default();
        for (c, tr) in clients {
            run.attempted += c.attempted;
            run.failed += c.failed;
            commits.extend(c.commits);
            acks.extend(c.acks);
            run.trace.absorb(tr);
        }
        run.record(traced, commits, Samples::default(), wall);
        if traced {
            // Only what this phase wrote: growth of each WAL segment, and
            // snapshots that were not there when it started.
            let w = watch.lock().expect("watch lock");
            let wal_bytes: u64 = w
                .segments
                .iter()
                .map(|(seq, len)| len - base.segments.get(seq).copied().unwrap_or(0).min(*len))
                .sum();
            run.trace.add("wal.bytes", wal_bytes as f64);
            for (name, len) in &w.snapshots {
                if !base.snapshots.contains_key(name) {
                    run.trace.add("snapshot.files_written", 1.0);
                    run.trace.add("snapshot.bytes_written", *len as f64);
                }
            }
        }
    }
    finish_mvcc(&mut run.trace);
    let commits = run.trace.counter("mvcc.commits").max(1.0);
    let wal_bytes = run.trace.counter("wal.bytes");
    run.trace.set("wal.bytes_per_commit", wal_bytes / commits);

    // Durability hygiene: drain background snapshots, surface their
    // errors, and only then close the store.
    store.flush_snapshots();
    let snapshot_errors = store.take_snapshot_error().map_or(0, |f| f.failures);
    run.attempted += 1;
    run.failed += snapshot_errors;
    run.check(snapshot_errors == 0, || {
        format!("{snapshot_errors} background snapshot(s) failed")
    });
    if cfg.trace {
        run.trace.set("snapshot.errors", snapshot_errors as f64);
    }
    let before = store.read_view();
    drop(store);

    let mut tr = Tracer::new(cfg.trace, epoch, 0);
    let mut verified = false;
    for _ in 0..REOPENS {
        let t = Instant::now();
        let reopened = reopen(&st, &mut tr);
        let ms = ms_since(t);
        run.attempted += 1;
        match reopened {
            Ok(after) => {
                run.aux.push(ms);
                if !verified {
                    verified = true;
                    verify(&mut run, &before, &after, &acks);
                }
            }
            Err(e) => {
                run.failed += 1;
                run.problems.push(format!("reopen failed: {e}"));
            }
        }
    }
    run.trace.absorb(tr);
    let _ = std::fs::remove_dir_all(&st.dir);
    run
}
