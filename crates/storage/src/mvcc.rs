//! Multi-version concurrency: many sessions, one store.
//!
//! [`MvccStore`] wraps a single-threaded [`Store`] in a cheaply
//! cloneable, `Send + Sync` handle. Every transaction
//! ([`MvccStore::begin`]) captures the latest **published snapshot** —
//! an `Arc<Store>` that is never mutated after publication — so
//! readers never block writers and never observe a partial commit.
//! Writes buffer in a transaction-local overlay (a detached copy of
//! the snapshot, so own writes are visible to the session's reads and
//! planned queries, and constraints reject doomed operations early)
//! and reach the shared state only at [`MvccTxn::commit`]:
//!
//! 1. **First-committer-wins**: if any object in the transaction's
//!    write set was committed past the transaction's begin timestamp,
//!    commit fails with [`CommitError::WriteConflict`].
//! 2. **Read validation** (default [`ValidationMode::Serializable`]):
//!    if any *item* the transaction read — object slots, plus
//!    class-extension items recording what its planned queries
//!    observed — changed since begin, commit fails with
//!    [`CommitError::ReadConflict`]. Skipping this step
//!    ([`ValidationMode::FirstCommitterWins`]) yields classic snapshot
//!    isolation, whose write-skew anomalies the serializability oracle
//!    ([`crate::oracle`]) demonstrably catches.
//! 3. The buffered operations re-commit through the **canonical**
//!    store — the one [`Store`] that owns durability — as one ordinary
//!    [`Transaction`], so constraint enforcement and the WAL's
//!    `Begin…Commit` bracket are exactly the single-threaded code
//!    path: commits serialize into the log in timestamp order.
//! 4. The commit timestamp is stamped on every written item, a fresh
//!    snapshot (a detached clone of the canonical store) is published,
//!    and (when history recording is on) a [`TxnRecord`] is appended
//!    for the oracle.
//!
//! Commit-time work runs under one commit mutex; everything before it
//! — reads, planned queries, constraint checks, conflict-free
//! buffering — touches only the transaction's own snapshot.
//!
//! # Structural sharing
//!
//! Snapshots, overlays and the item-version map are cheap because the
//! store's per-object structures — the object map, the class extents,
//! the key indexes — and the version map are persistent
//! [`PMap`]s: a clone shares every tree node, and a write
//! copies only the nodes on its root-to-leaf path that a clone still
//! shares. Publishing a snapshot, starting an overlay and stamping
//! versions therefore cost O(write set · log N), not O(N); a published
//! snapshot pins only the nodes the canonical store has since replaced.
//! (The lazily built secondary indexes are `Arc`-shared too, but a
//! session's first write still copies each warm one it maintains.)
//!
//! # Durability under concurrency
//!
//! Step 3 only *buffers* the WAL run; the committer publishes, releases
//! the commit mutex, and then waits for the covering `sync_data` —
//! issued by an elected leader, once per batch under a grouped
//! [`GroupCommitPolicy`] (see [`MvccStore::set_group_commit`]), and as
//! a group of one by default — before `commit()` returns. Acknowledged
//! never means lost: a crash can lose only transactions whose
//! `commit()` had not yet returned, and recovery still lands on a
//! commit-order prefix. A failed sync surfaces as
//! [`CommitError::SyncFailed`]: the commit stands in memory but is not
//! acknowledged as durable, and the latched log fails later commits
//! loudly.
//!
//! [`MvccTxn::commit_pipelined`] splits the two halves apart: it
//! returns as soon as the commit is published, handing back a
//! [`CommitTicket`] the session redeems for the durability
//! acknowledgement whenever it chooses. A session keeping a window of
//! unredeemed tickets lets one leader sync cover hundreds of commits —
//! batch size then scales with in-flight commits, not session count —
//! at the usual group-commit price: a crash before a ticket is
//! redeemed may lose that commit (and everything after it, never
//! anything before it).
//!
//! For [`DurabilityMode::WalWithSnapshots`] stores the construction
//! also spawns a **background snapshot worker**: at cadence the commit
//! path only seals the active WAL segment and hands the already
//! published `Arc` snapshot to the worker, which writes the snapshot
//! file (tmp + rename, as ever) and then prunes the sealed segments it
//! made redundant — writers never stall on the dump. Jobs that queue
//! up while a dump runs are **coalesced**: the worker writes only the
//! newest, whose prunable list already covers every segment the
//! skipped jobs would have pruned.
//! [`MvccStore::flush_snapshots`] waits for the worker to go idle;
//! dropping the last handle drains it.
//!
//! Conflict losers can retry mechanically:
//! [`MvccStore::run_txn`] re-runs a closure on a fresh snapshot under a
//! bounded [`RetryPolicy`].
//!
//! # Example
//!
//! ```
//! use interop_constraint::Catalog;
//! use interop_model::{ClassDef, Database, Schema, Type, Value};
//! use interop_storage::{CommitError, MvccStore, Store};
//!
//! let schema = Schema::new(
//!     "Shop",
//!     vec![ClassDef::new("Item")
//!         .attr("sku", Type::Str)
//!         .attr("stock", Type::Int)],
//! )
//! .unwrap();
//! let store = MvccStore::new(Store::new(Database::new(schema, 1), Catalog::new()));
//!
//! // Seed one object, then race two sessions over it.
//! let mut setup = store.begin();
//! let id = setup
//!     .create("Item", vec![("sku", "A".into()), ("stock", 10i64.into())])
//!     .unwrap();
//! setup.commit().unwrap();
//!
//! let (mut t1, mut t2) = (store.begin(), store.begin());
//! t1.update(id, "stock", Value::int(9)).unwrap();
//! t2.update(id, "stock", Value::int(3)).unwrap();
//! t1.commit().unwrap();
//! // First committer wins; the loser learns it conflicted.
//! assert!(matches!(t2.commit(), Err(CommitError::WriteConflict { .. })));
//!
//! // Readers see the committed value — and a session begun *before* a
//! // commit keeps its consistent snapshot.
//! let mut r = store.begin();
//! assert_eq!(r.get(id).unwrap().get(&"stock".into()), &Value::int(9));
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;

use interop_model::{AttrName, ClassName, Object, ObjectId, PMap, Value};

use crate::optimize::Optimizer;
use crate::oracle::{Item, QueryRecord, TxnRecord};
use crate::snapshot;
use crate::store::{DurabilityMode, SnapshotFailure, SnapshotJob, Store, StoreError};
use crate::txn::{Transaction, TxnOp};
use crate::wal::{DurabilityError, GroupCommitPolicy, WalAck};

/// Why a [`MvccTxn::commit`] was refused. In every case the shared
/// store is untouched by the failed transaction — commit is atomic.
#[derive(Clone, Debug, PartialEq)]
pub enum CommitError {
    /// Another transaction committed a write to an object in this
    /// transaction's write set after this transaction began
    /// (first-committer-wins).
    WriteConflict {
        /// The contended object.
        object: ObjectId,
        /// When the competing write committed.
        committed_ts: u64,
        /// This transaction's snapshot timestamp.
        begin_ts: u64,
    },
    /// An item this transaction read changed between begin and commit
    /// (read validation under [`ValidationMode::Serializable`]).
    ReadConflict {
        /// The item whose version moved.
        item: Item,
        /// The version this transaction observed.
        observed_ts: u64,
        /// The version now committed.
        committed_ts: u64,
    },
    /// The canonical store rejected the buffered operations at commit
    /// (e.g. a key collision with a concurrently committed insert that
    /// no object-level conflict check can see). The transaction rolled
    /// back cleanly.
    Rejected {
        /// Index of the failing buffered operation.
        failed_at: usize,
        /// The store's reason.
        error: StoreError,
    },
    /// The transaction reached the shared store and the log buffer,
    /// but the covering `sync_data` **failed** — the
    /// commit is applied in memory (later snapshots see it) yet may
    /// not survive a crash. The log is latched against further
    /// appends, so subsequent durable commits fail loudly too (as
    /// `Rejected` with [`StoreError::Durability`]). This is
    /// the concurrent analogue of the single-writer memory-runs-ahead
    /// contract: acknowledged never means lost, so an un-syncable
    /// commit is not acknowledged as durable.
    SyncFailed {
        /// The in-memory commit timestamp the transaction received.
        ts: u64,
        /// The sync failure.
        error: DurabilityError,
    },
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::WriteConflict {
                object,
                committed_ts,
                begin_ts,
            } => write!(
                f,
                "write conflict on {object}: committed at ts {committed_ts}, \
                 after this txn began at ts {begin_ts}"
            ),
            CommitError::ReadConflict {
                item,
                observed_ts,
                committed_ts,
            } => write!(
                f,
                "read conflict on {item}: observed version {observed_ts}, \
                 now {committed_ts}"
            ),
            CommitError::Rejected { failed_at, error } => {
                write!(f, "rejected at op {failed_at}: {error}")
            }
            CommitError::SyncFailed { ts, error } => write!(
                f,
                "commit ts {ts} applied in memory but the group sync \
                 failed; durability is not guaranteed: {error}"
            ),
        }
    }
}

impl std::error::Error for CommitError {}

/// What commit-time validation enforces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationMode {
    /// Write-conflict detection **and** read validation: commits admit
    /// only serializable histories (the oracle's property suite runs
    /// over this mode and asserts every history it admits is
    /// serializable).
    #[default]
    Serializable,
    /// Write-conflict detection only — classic snapshot isolation.
    /// Admits write skew; kept so the test suite can produce real
    /// anomalies and prove the serializability oracle rejects them.
    FirstCommitterWins,
}

/// How many times [`MvccStore::run_txn`] re-runs a conflict-losing
/// closure before giving up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum commit attempts, the first included (clamped to ≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Eight attempts: enough that a handful of contending writers all
    /// make progress, small enough that pathological contention fails
    /// fast instead of livelocking.
    fn default() -> Self {
        RetryPolicy { max_attempts: 8 }
    }
}

impl RetryPolicy {
    /// A policy with an explicit attempt budget.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }
}

/// Why [`MvccStore::run_txn`] gave up.
#[derive(Debug)]
pub enum RunTxnError<E> {
    /// The closure itself failed; the transaction was discarded and
    /// not retried.
    Txn(E),
    /// The commit failed for a non-conflict reason (constraint
    /// rejection, durability failure) — retrying would not help.
    Commit(CommitError),
    /// Every attempt lost a conflict.
    Contention {
        /// Attempts made (= the policy's budget).
        attempts: u32,
        /// The conflict the final attempt lost.
        last: CommitError,
    },
}

impl<E: fmt::Display> fmt::Display for RunTxnError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunTxnError::Txn(e) => write!(f, "transaction closure failed: {e}"),
            RunTxnError::Commit(e) => write!(f, "commit failed: {e}"),
            RunTxnError::Contention { attempts, last } => {
                write!(f, "still conflicting after {attempts} attempts: {last}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for RunTxnError<E> {}

/// The committed tail of the store, guarded by the commit mutex.
struct Committed {
    /// The canonical store: owns durability; every commit re-applies
    /// its buffered ops here through the ordinary [`Transaction`]
    /// path, so the WAL sees one `Begin…Commit` run per commit, in
    /// timestamp order.
    store: Store,
    /// Item → commit timestamp of its latest committed write.
    versions: PMap<Item, u64>,
    /// The latest commit timestamp.
    ts: u64,
    /// When `Some`, every commit (read-only included) appends its
    /// [`TxnRecord`] for the serializability oracle.
    history: Option<Vec<TxnRecord>>,
}

/// The read-side publication: swapped atomically (under a brief write
/// lock, while the commit mutex is held) after each commit;
/// [`MvccStore::begin`] takes the read lock only long enough to clone
/// an `Arc` and a [`PMap`] root.
struct Published {
    ts: u64,
    /// A detached copy of the canonical store, so published `Arc`s
    /// never alias the durability-owning store.
    snapshot: Arc<Store>,
    versions: PMap<Item, u64>,
}

struct Inner {
    /// Shared with the background snapshot worker (which must apply
    /// prune/failure results under the same commit mutex) — the worker
    /// deliberately holds this `Arc` and **not** `Inner`, so dropping
    /// the last [`MvccStore`] handle tears the worker down.
    committed: Arc<Mutex<Committed>>,
    published: RwLock<Published>,
    validation: ValidationMode,
    /// Lock-free object-id allocation for concurrent sessions.
    next_serial: AtomicU64,
    space: u32,
    /// Present only for [`DurabilityMode::WalWithSnapshots`]: the
    /// background worker that writes cadence snapshots off the commit
    /// path.
    snapshots: Option<SnapshotWorker>,
}

/// Handle to the background snapshot worker thread. Dropping it drops
/// the job sender (the worker drains queued jobs and exits) and joins
/// the thread — so every submitted snapshot is written or its failure
/// recorded before the handle is gone.
struct SnapshotWorker {
    tx: Option<Sender<(SnapshotJob, Arc<Store>)>>,
    handle: Option<JoinHandle<()>>,
    progress: Arc<SnapshotProgress>,
    /// Fallback target when the worker thread could not be spawned
    /// (resource exhaustion): jobs then run inline on the committing
    /// thread instead of being dropped.
    committed: Arc<Mutex<Committed>>,
}

/// Submitted/completed counters with a condvar, so tests (and shutdown
/// paths) can wait for the worker to go idle.
struct SnapshotProgress {
    counts: Mutex<(u64, u64)>,
    cv: Condvar,
    /// While `true` the worker waits after receiving a job, before it
    /// drains the queue — so a test can queue several jobs and observe
    /// how they coalesce.
    #[cfg(test)]
    held: Mutex<bool>,
    /// Signals changes of `held` (a condvar serves one mutex).
    #[cfg(test)]
    gate: Condvar,
}

impl SnapshotProgress {
    fn submitted(&self) {
        lock(&self.counts).0 += 1;
    }

    /// Marks `jobs` submitted jobs done (written, failed or skipped).
    fn completed(&self, jobs: u64) {
        lock(&self.counts).1 += jobs;
        self.cv.notify_all();
    }

    /// Holds the worker before its next drain (`true`) or lets it go.
    #[cfg(test)]
    fn hold(&self, on: bool) {
        *lock(&self.held) = on;
        self.gate.notify_all();
    }

    #[cfg(test)]
    fn wait_released(&self) {
        let mut held = lock(&self.held);
        while *held {
            held = self.gate.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wait_idle(&self) {
        let mut counts = lock(&self.counts);
        while counts.1 < counts.0 {
            counts = self.cv.wait(counts).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl SnapshotWorker {
    fn spawn(committed: Arc<Mutex<Committed>>) -> Self {
        let (tx, rx) = mpsc::channel();
        let progress = Arc::new(SnapshotProgress {
            counts: Mutex::new((0, 0)),
            cv: Condvar::new(),
            #[cfg(test)]
            held: Mutex::new(false),
            #[cfg(test)]
            gate: Condvar::new(),
        });
        let worker_progress = Arc::clone(&progress);
        let worker_committed = Arc::clone(&committed);
        // Thread spawn fails only under resource exhaustion; a
        // worker-less handle degrades to running snapshot jobs inline
        // on the committing thread rather than panicking or dropping
        // them.
        let handle = std::thread::Builder::new()
            .name("mvcc-snapshot".into())
            .spawn(move || snapshot_worker(rx, worker_committed, worker_progress))
            .ok();
        SnapshotWorker {
            tx: handle.is_some().then_some(tx),
            handle,
            progress,
            committed,
        }
    }

    fn submit(&self, job: SnapshotJob, snap: Arc<Store>) {
        if let Some(tx) = &self.tx {
            self.progress.submitted();
            if tx.send((job, snap)).is_err() {
                // Worker already gone (it panicked); balance the
                // counter so waiters do not hang.
                self.progress.completed(1);
            }
        } else {
            run_snapshot_job(job, snap, &self.committed);
        }
    }
}

impl Drop for SnapshotWorker {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The worker loop: take every job queued so far and run only the
/// newest — dump its published snapshot to disk, then, under the
/// commit mutex, prune the sealed segments the durable snapshot covers
/// (or record the failure for [`MvccStore::take_snapshot_error`]).
///
/// Skipping the older jobs loses nothing: a job's prunable list is
/// every sealed segment whose transactions its watermark covers, so
/// the newest list includes every segment an older one names, and the
/// newest snapshot supersedes the older ones. Without coalescing, a
/// cadence that falls due faster than one dump takes would grow the
/// queue without bound.
fn snapshot_worker(
    rx: Receiver<(SnapshotJob, Arc<Store>)>,
    committed: Arc<Mutex<Committed>>,
    progress: Arc<SnapshotProgress>,
) {
    while let Ok(mut newest) = rx.recv() {
        #[cfg(test)]
        progress.wait_released();
        let mut jobs = 1;
        while let Ok(next) = rx.try_recv() {
            newest = next;
            jobs += 1;
        }
        let (job, snap) = newest;
        run_snapshot_job(job, snap, &committed);
        progress.completed(jobs);
    }
}

/// One snapshot job, start to finish: dump the published snapshot to
/// disk, then — under the commit mutex — prune the sealed segments it
/// covers, or record the failure. Runs on the worker thread normally,
/// or inline on the committing thread if the worker could not spawn.
fn run_snapshot_job(job: SnapshotJob, snap: Arc<Store>, committed: &Mutex<Committed>) {
    let objects: Vec<&Object> = snap.db().objects().collect();
    let result = snapshot::write_snapshot(
        &job.dir,
        job.watermark,
        job.tracking,
        &job.touched,
        &objects,
    );
    drop(objects);
    drop(snap);
    let mut c = lock(committed);
    match result {
        Ok(_) => c.store.prune_wal_segments(&job.prunable),
        Err(e) => c.store.note_snapshot_failure(e),
    }
}

/// A shared, thread-safe handle to one MVCC store. Cloning is cheap
/// (`Arc`); all clones address the same store.
#[derive(Clone)]
pub struct MvccStore {
    inner: Arc<Inner>,
}

/// Compile-time proof the sharing model holds: handles and in-flight
/// transactions may cross threads.
const _: fn() = assert_send_sync::<MvccStore>;
const _: fn() = assert_send::<MvccTxn>;
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A detached copy of `store` to publish as the read snapshot. Its
/// private touched log stays off (and is never copied): snapshots
/// never feed the incremental pipeline directly, and a tracking copy
/// would grow unboundedly.
fn publishable(store: &Store) -> Arc<Store> {
    Arc::new(store.untracked_clone())
}

impl MvccStore {
    /// Wraps `store` — typically fresh from [`Store::new`] or a
    /// durable [`Store::open`] — for concurrent use, with the default
    /// [`ValidationMode::Serializable`].
    pub fn new(store: Store) -> Self {
        Self::with_validation(store, ValidationMode::default())
    }

    /// [`MvccStore::new`] with an explicit validation mode.
    ///
    /// For a [`DurabilityMode::WalWithSnapshots`] store this also
    /// spawns the background snapshot worker: a commit that makes the
    /// cadence due hands the already-published `Arc` snapshot to the
    /// worker, which dumps it off the commit path.
    pub fn with_validation(store: Store, validation: ValidationMode) -> Self {
        let space = store.db().space();
        let next_serial = store
            .db()
            .objects()
            .map(|o| o.id.serial())
            .max()
            .map_or(0, |m| m + 1);
        let wants_worker = store.durability_mode() == DurabilityMode::WalWithSnapshots;
        let snapshot = publishable(&store);
        let versions: PMap<Item, u64> = PMap::new();
        let committed = Arc::new(Mutex::new(Committed {
            store,
            versions: versions.clone(),
            ts: 0,
            history: None,
        }));
        let snapshots = wants_worker.then(|| SnapshotWorker::spawn(Arc::clone(&committed)));
        MvccStore {
            inner: Arc::new(Inner {
                committed,
                published: RwLock::new(Published {
                    ts: 0,
                    snapshot,
                    versions,
                }),
                validation,
                next_serial: AtomicU64::new(next_serial),
                space,
                snapshots,
            }),
        }
    }

    /// The validation mode commits run under.
    pub fn validation(&self) -> ValidationMode {
        self.inner.validation
    }

    /// Begins a transaction against the latest published snapshot.
    /// Dropping the returned [`MvccTxn`] without committing rolls it
    /// back (it buffered everything locally, so there is nothing to
    /// undo).
    pub fn begin(&self) -> MvccTxn {
        let p = self
            .inner
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        MvccTxn {
            store: self.clone(),
            begin_ts: p.ts,
            snapshot: Arc::clone(&p.snapshot),
            versions: p.versions.clone(),
            local: None,
            ops: Vec::new(),
            write_objs: BTreeSet::new(),
            write_classes: BTreeSet::new(),
            reads: Vec::new(),
            read_seen: BTreeSet::new(),
            queries: Vec::new(),
        }
    }

    /// The latest published snapshot — a consistent, immutable view
    /// for ad-hoc reads outside any transaction.
    pub fn read_view(&self) -> Arc<Store> {
        let p = self
            .inner
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&p.snapshot)
    }

    /// The latest commit timestamp (0 before the first commit).
    pub fn last_commit_ts(&self) -> u64 {
        self.inner
            .published
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .ts
    }

    /// Allocates a fresh object id, unique across all sessions.
    pub fn fresh_id(&self) -> ObjectId {
        let serial = self.inner.next_serial.fetch_add(1, Ordering::Relaxed);
        ObjectId::new(self.inner.space, serial)
    }

    /// Starts (`true`) or stops-and-discards (`false`) history
    /// recording for the serializability oracle: while on, every
    /// commit appends a [`TxnRecord`].
    pub fn record_history(&self, on: bool) {
        lock(&self.inner.committed).history = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the recorded history (empty when recording is off).
    pub fn take_history(&self) -> Vec<TxnRecord> {
        let mut c = lock(&self.inner.committed);
        match &mut c.history {
            Some(h) => std::mem::take(h),
            None => Vec::new(),
        }
    }

    /// Starts or stops the canonical store's touched-id log (see
    /// [`Store::track_touched`]).
    pub fn track_touched(&self, on: bool) {
        lock(&self.inner.committed).store.track_touched(on);
    }

    /// Atomically drains the touched-id log and returns it together
    /// with the snapshot those ids are consistent with — the
    /// incremental-pipeline entry point for shared stores (both sides
    /// taken under the commit mutex, so no commit can slip between
    /// them; the published snapshot is read under it too, the lock
    /// order [`MvccTxn::commit`] uses).
    pub fn drain_touched(&self) -> (Arc<Store>, Vec<ObjectId>) {
        let mut c = lock(&self.inner.committed);
        let touched = c.store.take_touched();
        (self.read_view(), touched)
    }

    /// The canonical store's durability mode.
    pub fn durability_mode(&self) -> DurabilityMode {
        lock(&self.inner.committed).store.durability_mode()
    }

    /// Snapshots the canonical store now (see [`Store::snapshot_now`]),
    /// inline on the calling thread — the background worker is not
    /// involved.
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        lock(&self.inner.committed).store.snapshot_now()
    }

    /// Takes (and clears) the record of failed automatic snapshots —
    /// background ones included — since the last poll (see
    /// [`Store::take_snapshot_error`]).
    pub fn take_snapshot_error(&self) -> Option<SnapshotFailure> {
        lock(&self.inner.committed).store.take_snapshot_error()
    }

    /// Sets the group-commit policy (see [`Store::set_group_commit`]):
    /// committers block only for the covering sync — outside the commit
    /// mutex, so under a grouped policy the batch forms and concurrent
    /// committers share one `sync_data`.
    pub fn set_group_commit(&self, policy: GroupCommitPolicy) {
        lock(&self.inner.committed).store.set_group_commit(policy);
    }

    /// The group-commit policy in effect.
    pub fn group_commit(&self) -> GroupCommitPolicy {
        lock(&self.inner.committed).store.group_commit()
    }

    /// Sets the WAL segment rotation threshold (see
    /// [`Store::set_wal_segment_bytes`]).
    pub fn set_wal_segment_bytes(&self, bytes: u64) {
        lock(&self.inner.committed)
            .store
            .set_wal_segment_bytes(bytes);
    }

    /// Blocks until every background snapshot submitted so far has been
    /// written (and its segment pruning applied) or has recorded its
    /// failure. A no-op without a background worker. Tests use this to
    /// observe cadence snapshots deterministically; shutdown does not
    /// need it — dropping the last handle drains the worker anyway.
    pub fn flush_snapshots(&self) {
        if let Some(w) = &self.inner.snapshots {
            w.progress.wait_idle();
        }
    }

    /// Runs `f` inside a transaction, retrying
    /// [`CommitError::WriteConflict`] / [`CommitError::ReadConflict`]
    /// losers on a fresh snapshot up to the policy's attempt budget.
    /// Returns the closure's value and the commit timestamp.
    ///
    /// The closure may run several times, so it must be idempotent
    /// from the transaction's point of view (buffer writes through the
    /// transaction it is handed, keep side effects out). A closure
    /// error aborts immediately ([`RunTxnError::Txn`]); a
    /// non-conflict commit failure is final ([`RunTxnError::Commit`]);
    /// conflicts past the budget surface as
    /// [`RunTxnError::Contention`] with the last conflict attached.
    pub fn run_txn<T, E>(
        &self,
        policy: RetryPolicy,
        mut f: impl FnMut(&mut MvccTxn) -> Result<T, E>,
    ) -> Result<(T, u64), RunTxnError<E>> {
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut txn = self.begin();
            let value = f(&mut txn).map_err(RunTxnError::Txn)?;
            match txn.commit() {
                Ok(ts) => return Ok((value, ts)),
                Err(e @ (CommitError::WriteConflict { .. } | CommitError::ReadConflict { .. })) => {
                    if attempt >= max_attempts {
                        return Err(RunTxnError::Contention {
                            attempts: attempt,
                            last: e,
                        });
                    }
                }
                Err(e) => return Err(RunTxnError::Commit(e)),
            }
        }
    }

    /// Unwraps the canonical store when this is the last handle;
    /// returns the handle unchanged otherwise. Shuts the background
    /// snapshot worker down first (draining every queued snapshot); the
    /// returned store runs due cadence snapshots inline again.
    pub fn into_store(self) -> Result<Store, MvccStore> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => {
                let Inner {
                    committed,
                    snapshots,
                    ..
                } = inner;
                // Joins the worker, which drains its queue first — so
                // its `Arc` clone of `committed` is gone afterwards.
                drop(snapshots);
                let store = Arc::try_unwrap(committed)
                    .unwrap_or_else(|_| unreachable!("worker joined; no other holder remains"))
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .store;
                Ok(store)
            }
            Err(inner) => Err(MvccStore { inner }),
        }
    }
}

impl fmt::Debug for MvccStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MvccStore")
            .field("last_commit_ts", &self.last_commit_ts())
            .field("validation", &self.inner.validation)
            .finish_non_exhaustive()
    }
}

/// One session's transaction: snapshot reads, locally buffered writes,
/// validate-then-commit. `Send`, so worker threads can own one each.
pub struct MvccTxn {
    store: MvccStore,
    begin_ts: u64,
    /// The published snapshot this transaction reads.
    snapshot: Arc<Store>,
    /// Item versions as of `begin_ts` (what reads observe).
    versions: PMap<Item, u64>,
    /// Lazily created overlay: snapshot + own writes, so reads and
    /// planned queries see the transaction's own effects and doomed
    /// operations are rejected by real constraint checks immediately.
    local: Option<Box<Store>>,
    /// Buffered operations, re-committed through the canonical store.
    ops: Vec<TxnOp>,
    write_objs: BTreeSet<ObjectId>,
    write_classes: BTreeSet<ClassName>,
    /// Items read, with the version observed (recorded once each).
    reads: Vec<(Item, u64)>,
    read_seen: BTreeSet<Item>,
    queries: Vec<QueryRecord>,
}

impl MvccTxn {
    /// The snapshot timestamp this transaction reads at.
    pub fn begin_ts(&self) -> u64 {
        self.begin_ts
    }

    /// The store the transaction currently reads: the local overlay
    /// once it has written, the shared snapshot before.
    fn reading_store(&self) -> &Store {
        match &self.local {
            Some(l) => l,
            None => &self.snapshot,
        }
    }

    fn observed_version(&self, item: &Item) -> u64 {
        self.versions.get(item).copied().unwrap_or(0)
    }

    /// Records a read of `item` at its snapshot version, once.
    fn note_read(&mut self, item: Item) {
        if self.read_seen.insert(item.clone()) {
            let v = self.observed_version(&item);
            self.reads.push((item, v));
        }
    }

    /// Records a write of `id`: the slot itself plus the class-level
    /// items of its class and every ancestor, so concurrent planned
    /// queries over any covering extension conflict (phantom
    /// protection) and same-class writers are totally ordered.
    fn note_write(&mut self, id: ObjectId, class: &ClassName) {
        self.write_objs.insert(id);
        for c in self.snapshot.db().schema.self_and_ancestors(class) {
            self.write_classes.insert(c);
        }
    }

    fn local_mut(&mut self) -> &mut Store {
        if self.local.is_none() {
            self.local = Some(Box::new(self.snapshot.detached_clone()));
        }
        match &mut self.local {
            Some(l) => l,
            None => unreachable!("just installed above"),
        }
    }

    /// Reads one object (own uncommitted writes visible). Reads of
    /// objects this transaction has not written are recorded for
    /// commit-time validation — including reads that find nothing.
    pub fn get(&mut self, id: ObjectId) -> Option<Object> {
        if !self.write_objs.contains(&id) {
            self.note_read(Item::Obj(id));
        }
        self.reading_store().db().object(id).cloned()
    }

    /// Buffers an insert, validated against the transaction's view.
    pub fn insert(&mut self, obj: Object) -> Result<(), StoreError> {
        let (id, class) = (obj.id, obj.class.clone());
        self.local_mut().insert(obj.clone())?;
        self.note_write(id, &class);
        self.ops.push(TxnOp::Insert(obj));
        Ok(())
    }

    /// Creates and inserts an object of `class` with a globally fresh
    /// id, returning the id.
    pub fn create(
        &mut self,
        class: impl Into<ClassName>,
        attrs: Vec<(&str, Value)>,
    ) -> Result<ObjectId, StoreError> {
        let id = self.store.fresh_id();
        let mut obj = Object::new(id, class.into());
        for (name, v) in attrs {
            obj.set(name, v);
        }
        self.insert(obj)?;
        Ok(id)
    }

    /// Buffers a single-attribute update (read-modify-write: the
    /// target's snapshot version joins the read set).
    pub fn update(
        &mut self,
        id: ObjectId,
        attr: impl Into<AttrName>,
        value: Value,
    ) -> Result<(), StoreError> {
        if !self.write_objs.contains(&id) {
            self.note_read(Item::Obj(id));
        }
        let attr = attr.into();
        let local = self.local_mut();
        let class = local.db().object_req(id)?.class.clone();
        local.update(id, attr.clone(), value.clone())?;
        self.note_write(id, &class);
        self.ops.push(TxnOp::Update { id, attr, value });
        Ok(())
    }

    /// Buffers a removal (read-modify-write, like
    /// [`MvccTxn::update`]).
    pub fn remove(&mut self, id: ObjectId) -> Result<Object, StoreError> {
        if !self.write_objs.contains(&id) {
            self.note_read(Item::Obj(id));
        }
        let obj = self.local_mut().remove(id)?;
        self.note_write(id, &obj.class);
        self.ops.push(TxnOp::Delete(id));
        Ok(obj)
    }

    /// Runs a planned query against the transaction's view (own
    /// writes visible), recording the queried class and every hit for
    /// commit-time validation and for the oracle.
    pub fn query(
        &mut self,
        class: impl Into<ClassName>,
        predicate: &interop_constraint::Formula,
    ) -> Result<Vec<ObjectId>, StoreError> {
        let class = class.into();
        let store = self.reading_store();
        let opt = Optimizer::new(store, class.clone(), Vec::new());
        let (mut hits, _) = opt.execute(store, predicate)?;
        hits.sort_unstable();
        self.note_read(Item::Class(class.clone()));
        for &id in &hits {
            if !self.write_objs.contains(&id) {
                self.note_read(Item::Obj(id));
            }
        }
        self.queries.push(QueryRecord {
            class,
            predicate: predicate.clone(),
            hits: hits.clone(),
            at: self.ops.len(),
        });
        Ok(hits)
    }

    /// Discards the transaction. Equivalent to dropping it; provided
    /// so call sites can say what they mean.
    pub fn rollback(self) {}

    /// Validates and commits, returning the commit timestamp.
    ///
    /// Read-only transactions always succeed, with
    /// `commit timestamp == begin timestamp` — they are serializable
    /// at their snapshot position by construction and skip validation
    /// entirely.
    pub fn commit(self) -> Result<u64, CommitError> {
        // Only now — commit mutex released, later committers free to
        // join the batch — wait for the covering sync.
        self.commit_pipelined()?.wait()
    }

    /// Validates and commits like [`MvccTxn::commit`], but does **not**
    /// wait for the covering sync: it returns a [`CommitTicket`] the
    /// caller redeems with [`CommitTicket::wait`] whenever it needs the
    /// durability acknowledgement.
    ///
    /// This is the pipelined flavour of group commit: a session can
    /// keep several commits in flight and wait for their tickets in
    /// batches, so the group leader's one `sync_data` covers far more
    /// than one commit per session. On return the commit is already
    /// *published* — visible to every later snapshot — but until the
    /// ticket is waited on it is not *acknowledged*: a crash in the gap
    /// may lose it (together with everything after it, never anything
    /// before — recovery still lands on a commit-order prefix).
    /// Dropping the ticket forfeits the acknowledgement, nothing else.
    /// [`MvccTxn::commit`] is this plus an immediate wait: the ticket
    /// carries the ack out of the commit mutex.
    pub fn commit_pipelined(self) -> Result<CommitTicket, CommitError> {
        let MvccTxn {
            store,
            begin_ts,
            ops,
            write_objs,
            write_classes,
            reads,
            queries,
            ..
        } = self;
        let inner = &store.inner;
        let mut c = lock(&inner.committed);

        if ops.is_empty() {
            if let Some(h) = &mut c.history {
                h.push(TxnRecord {
                    txn: h.len(),
                    begin_ts,
                    commit_ts: begin_ts,
                    reads,
                    writes: Vec::new(),
                    ops: Vec::new(),
                    queries,
                });
            }
            return Ok(CommitTicket {
                ts: begin_ts,
                ack: None,
            });
        }

        // 1. First-committer-wins on the object write set.
        for &id in &write_objs {
            let cur = c.versions.get(&Item::Obj(id)).copied().unwrap_or(0);
            if cur > begin_ts {
                return Err(CommitError::WriteConflict {
                    object: id,
                    committed_ts: cur,
                    begin_ts,
                });
            }
        }

        // 2. Read validation (serializable mode).
        if inner.validation == ValidationMode::Serializable {
            for (item, v) in &reads {
                let cur = c.versions.get(item).copied().unwrap_or(0);
                if cur != *v {
                    return Err(CommitError::ReadConflict {
                        item: item.clone(),
                        observed_ts: *v,
                        committed_ts: cur,
                    });
                }
            }
        }

        // 3. Re-commit through the canonical store: full constraint
        // enforcement plus the WAL `Begin…Commit` bracket. The run is
        // only buffered — the covering `sync_data` is the group
        // leader's, and this committer waits for it *after* releasing
        // the commit mutex, so a batch can form while it publishes.
        // The canonical pass consumes an owned op list; keep the
        // original around only if the history recorder needs it.
        let mut ops = ops;
        let canonical_ops = if c.history.is_some() {
            ops.clone()
        } else {
            std::mem::take(&mut ops)
        };
        let ack = match Transaction::from_ops(canonical_ops).commit_inner(&mut c.store) {
            Ok((ack, _undo)) => ack,
            Err((failed_at, error)) => return Err(CommitError::Rejected { failed_at, error }),
        };

        // 4. Stamp versions and publish a fresh snapshot. The version
        // map is shared with the published one, so each stamp copies
        // one root-to-leaf path, not the map.
        c.ts += 1;
        let ts = c.ts;
        let mut writes = Vec::with_capacity(write_objs.len() + write_classes.len());
        for &id in &write_objs {
            c.versions.insert(Item::Obj(id), ts);
            writes.push(Item::Obj(id));
        }
        for cl in &write_classes {
            c.versions.insert(Item::Class(cl.clone()), ts);
            writes.push(Item::Class(cl.clone()));
        }
        // Publish a fresh snapshot of the canonical store. Its maps
        // share every node with the canonical store, so the clone is
        // O(1) in the database size; the next commit's writes copy only
        // the paths they touch.
        let snapshot = publishable(&c.store);
        if let Some(h) = &mut c.history {
            h.push(TxnRecord {
                txn: h.len(),
                begin_ts,
                commit_ts: ts,
                reads,
                writes,
                ops,
                queries,
            });
        }
        // If the cadence fell due on this commit, capture the snapshot
        // job (sealing the active segment) together with the published
        // snapshot — exactly the extension at the job's watermark — for
        // the background worker.
        let snapshot_job = c
            .store
            .take_snapshot_job()
            .map(|job| (job, Arc::clone(&snapshot)));
        let published = Published {
            ts,
            snapshot,
            versions: c.versions.clone(),
        };
        // Publish while still holding the commit mutex, so snapshots
        // become visible in commit order.
        *inner
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = published;
        drop(c);
        if let Some((job, snap)) = snapshot_job {
            if let Some(w) = &inner.snapshots {
                w.submit(job, snap);
            }
        }
        Ok(CommitTicket { ts, ack })
    }
}

/// The durability IOU from [`MvccTxn::commit_pipelined`]: the commit is
/// published, and [`CommitTicket::wait`] blocks until the covering
/// group sync has made it durable (or surfaces the sticky sync failure
/// as [`CommitError::SyncFailed`], exactly as `commit()` would).
///
/// Tickets are redeemable in any order — each waits only for its own
/// covering sync, and a later ticket's successful wait implies every
/// earlier commit is durable too (the log syncs in commit order).
/// Dropping a ticket without waiting forfeits only the
/// acknowledgement; the commit itself is never undone.
#[derive(Debug)]
#[must_use = "the commit is not acknowledged as durable until the ticket is waited on"]
pub struct CommitTicket {
    ts: u64,
    ack: Option<WalAck>,
}

impl CommitTicket {
    /// The commit timestamp — already assigned and published.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Blocks until the commit is durable and returns its timestamp.
    /// For volatile stores and read-only commits there is nothing to
    /// wait for, and this returns immediately. `Err` means the commit
    /// stands in memory but may not survive a crash; the log is
    /// latched, so nothing later is acknowledged either.
    pub fn wait(self) -> Result<u64, CommitError> {
        if let Some(ack) = &self.ack {
            if let Err(error) = ack.wait() {
                return Err(CommitError::SyncFailed { ts: self.ts, error });
            }
        }
        Ok(self.ts)
    }
}

impl fmt::Debug for MvccTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MvccTxn")
            .field("begin_ts", &self.begin_ts)
            .field("ops", &self.ops.len())
            .field("reads", &self.reads.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::Catalog;
    use interop_model::{ClassDef, Database, Schema, Type};

    #[test]
    fn sync_fault_fails_an_mvcc_commit_under_the_default_policy() {
        let dir =
            std::env::temp_dir().join(format!("interop-syncfault-{}-mvcc", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new("Shop", vec![ClassDef::new("Item").attr("v", Type::Int)]).unwrap();
        let durable = Store::open(
            Database::new(schema, 1),
            Catalog::new(),
            &dir,
            DurabilityMode::Wal,
        )
        .unwrap();
        let store = MvccStore::new(durable);
        assert_eq!(store.group_commit(), GroupCommitPolicy::default());
        let mut t = store.begin();
        let id = t.create("Item", vec![("v", 1i64.into())]).unwrap();
        assert_eq!(t.commit(), Ok(1));
        lock(&store.inner.committed)
            .store
            .wal_group()
            .unwrap()
            .fail_sync_at(2);

        let mut t = store.begin();
        t.update(id, "v", Value::int(2)).unwrap();
        let err = t.commit().unwrap_err();
        assert!(
            matches!(err, CommitError::SyncFailed { ts: 2, .. }),
            "{err:?}"
        );
        assert_eq!(store.last_commit_ts(), 2, "published before its sync");

        let mut t = store.begin();
        t.update(id, "v", Value::int(3)).unwrap();
        let err = t.commit().unwrap_err();
        assert!(
            matches!(
                err,
                CommitError::Rejected {
                    error: StoreError::Durability(_),
                    ..
                }
            ),
            "the latched log refuses the next commit: {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commits queued while the worker is held back.
    const QUEUED: u64 = 5;

    /// A durable store snapshotting after every commit, with its worker
    /// held and [`QUEUED`] commits — so [`QUEUED`] snapshot jobs —
    /// queued behind it. Returns the store and the object it updates.
    fn queued_jobs(dir: &std::path::Path) -> (MvccStore, ObjectId) {
        let _ = std::fs::remove_dir_all(dir);
        let schema = Schema::new("Shop", vec![ClassDef::new("Item").attr("v", Type::Int)]).unwrap();
        let mut durable = Store::open(
            Database::new(schema, 1),
            Catalog::new(),
            dir,
            DurabilityMode::WalWithSnapshots,
        )
        .unwrap();
        durable.set_snapshot_every(1);
        let store = MvccStore::new(durable);
        worker(&store).progress.hold(true);
        let mut t = store.begin();
        let id = t.create("Item", vec![("v", 0i64.into())]).unwrap();
        t.commit().unwrap();
        for v in 1..QUEUED as i64 {
            let mut t = store.begin();
            t.update(id, "v", Value::int(v)).unwrap();
            t.commit().unwrap();
        }
        assert_eq!(snapshot_files(dir), Vec::<String>::new(), "worker is held");
        assert_eq!(
            crate::wal::list_segments(dir).unwrap().len() as u64,
            QUEUED + 1,
            "every commit sealed its segment"
        );
        (store, id)
    }

    fn worker(store: &MvccStore) -> &SnapshotWorker {
        store.inner.snapshots.as_ref().unwrap()
    }

    fn snapshot_files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snapshot-") && n.ends_with(".snap"))
            .collect();
        names.sort();
        names
    }

    /// Drops the store and reopens its directory; the recovered objects
    /// must equal the last published snapshot.
    fn reopen_equals_oracle(store: MvccStore, dir: &std::path::Path) {
        let oracle: Vec<Object> = store.read_view().db().objects().cloned().collect();
        let schema = store.read_view().db().schema.as_ref().clone();
        drop(store);
        let reopened = Store::open(
            Database::new(schema, 1),
            Catalog::new(),
            dir,
            DurabilityMode::WalWithSnapshots,
        )
        .unwrap();
        let recovered: Vec<Object> = reopened.db().objects().cloned().collect();
        assert_eq!(recovered, oracle);
    }

    #[test]
    fn queued_snapshot_jobs_coalesce_into_the_newest() {
        let dir = std::env::temp_dir().join(format!("interop-coalesce-{}-ok", std::process::id()));
        let (store, id) = queued_jobs(&dir);
        // Every older job would fail at its temporary file: skipped
        // jobs must not touch the disk at all.
        for older in 1..QUEUED {
            std::fs::create_dir(dir.join(format!("snapshot-{older:020}.snap.tmp"))).unwrap();
        }
        worker(&store).progress.hold(false);
        store.flush_snapshots();
        assert_eq!(*lock(&worker(&store).progress.counts), (QUEUED, QUEUED));
        assert_eq!(
            snapshot_files(&dir),
            vec![format!("snapshot-{QUEUED:020}.snap")],
            "only the newest job was written"
        );
        let segments: Vec<u64> = crate::wal::list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(segments, vec![QUEUED + 1], "every covered segment pruned");
        assert!(store.take_snapshot_error().is_none());
        assert_eq!(
            store.read_view().db().object(id).unwrap().get(&"v".into()),
            &Value::int(QUEUED as i64 - 1)
        );
        reopen_equals_oracle(store, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_newest_job_is_reported_once() {
        let dir = std::env::temp_dir().join(format!("interop-coalesce-{}-err", std::process::id()));
        let (store, _) = queued_jobs(&dir);
        // A directory where the newest snapshot's temporary file goes
        // makes that write fail.
        std::fs::create_dir(dir.join(format!("snapshot-{QUEUED:020}.snap.tmp"))).unwrap();
        worker(&store).progress.hold(false);
        store.flush_snapshots();
        let failure = store.take_snapshot_error().expect("the newest job failed");
        assert_eq!(failure.failures, 1, "skipped jobs are not failures");
        assert!(store.take_snapshot_error().is_none());
        assert_eq!(snapshot_files(&dir), Vec::<String>::new());
        assert_eq!(
            crate::wal::list_segments(&dir).unwrap().len() as u64,
            QUEUED + 1,
            "nothing pruned without a durable snapshot"
        );
        reopen_equals_oracle(store, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
