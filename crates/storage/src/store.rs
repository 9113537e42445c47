//! The constraint-enforcing store.
//!
//! Besides enforcement, the store owns the planner's auxiliary state:
//! lazily built secondary indexes (single-attribute and composite
//! pair), per-`(class, attr)` statistics, and the composite-admission
//! tracker. All cached structures are maintained **incrementally** — a
//! committed insert/update/remove applies per-object deltas to every
//! already-built index and statistics summary covering the object,
//! instead of discarding them — so write-heavy interleaved workloads
//! stop rebuilding from scratch. [`IndexMaintenance::Wholesale`]
//! restores the old discard-everything behaviour for benchmarking and
//! differential testing. Composite indexes are materialised lazily once
//! the [`CompositePolicy`] admits a recurring, sufficiently-selective
//! equality-atom pair reported by the cost model.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use interop_constraint::eval::{check_class_constraint, check_db_constraint, eval_formula, Truth};
use interop_constraint::{Catalog, ConstraintId};
use interop_model::fx::FxHashMap;
use interop_model::{AttrName, ClassName, Database, ModelError, Object, ObjectId, Value};

use crate::index::{CompositeIndex, HashIndex, IndexSet, KeyIndex, SortedIndex};
use crate::snapshot;
use crate::stats::{AttrStats, PairSketch};
use crate::wal::{
    self, DurabilityError, GroupCommitPolicy, SealedSegment, SegmentedWal, WalAck, WalRecord,
};

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// The underlying model rejected the operation (type error etc.).
    Model(ModelError),
    /// An object constraint is violated by the written object.
    ObjectConstraintViolated {
        /// The violated constraint.
        constraint: ConstraintId,
        /// The violating object.
        object: ObjectId,
    },
    /// A class constraint is violated by the resulting extension.
    ClassConstraintViolated {
        /// The violated constraint.
        constraint: ConstraintId,
    },
    /// A database constraint is violated by the resulting state.
    DbConstraintViolated {
        /// The violated constraint.
        constraint: ConstraintId,
    },
    /// A key collision (fast-path detection via the index).
    KeyViolation {
        /// The class whose key is violated.
        class: ClassName,
        /// The object already holding the key.
        holder: ObjectId,
    },
    /// The durability layer failed: a WAL append, its covering sync, or
    /// an explicit [`Store::snapshot_now`]. A failed sync latches the
    /// log (see [`crate::wal`]), so every later durable write fails too.
    /// What the caller sees:
    ///
    /// * a single store operation returns this error and stays applied
    ///   in memory (memory runs ahead of the log, reported loudly);
    /// * [`crate::Transaction::commit`] undoes its operations and
    ///   returns `RolledBack` with this error;
    /// * an MVCC commit or ticket reports
    ///   [`crate::CommitError::SyncFailed`] for a failed sync (its
    ///   commit is already published), or `Rejected` with this error
    ///   when the append itself is refused.
    ///
    /// A failure *after* the commit is durable — the automatic snapshot
    /// cadence — never surfaces here: the commit stands and the error
    /// is reported via [`Store::take_snapshot_error`].
    Durability(DurabilityError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Model(e) => write!(f, "model error: {e}"),
            StoreError::ObjectConstraintViolated { constraint, object } => {
                write!(f, "object {object} violates constraint {constraint}")
            }
            StoreError::ClassConstraintViolated { constraint } => {
                write!(f, "class constraint {constraint} violated")
            }
            StoreError::DbConstraintViolated { constraint } => {
                write!(f, "database constraint {constraint} violated")
            }
            StoreError::KeyViolation { class, holder } => {
                write!(f, "key of class {class} already held by object {holder}")
            }
            StoreError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        StoreError::Model(e)
    }
}

impl From<DurabilityError> for StoreError {
    fn from(e: DurabilityError) -> Self {
        StoreError::Durability(e)
    }
}

/// How the store keeps secondary indexes and statistics current across
/// mutations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexMaintenance {
    /// Apply per-object deltas to every built index/statistics summary on
    /// each committed mutation (the default).
    #[default]
    Incremental,
    /// Discard everything on any mutation attempt and rebuild lazily on
    /// the next query — the pre-cost-model behaviour, kept as the
    /// benchmark baseline and as a differential-testing oracle.
    Wholesale,
}

/// Whether (and how) committed mutations are persisted.
///
/// `Off` keeps the store byte-identical to the pre-durability builds:
/// no files are touched, no records are serialized, and every hot path
/// takes the same branches it always did. `Wal` appends every committed
/// transaction to the write-ahead log; `WalWithSnapshots` additionally
/// dumps the canonical extension every
/// [`Store::set_snapshot_every`] committed transactions and truncates
/// the log, bounding replay time on reopen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// In-memory only (the default; all existing behaviour unchanged).
    #[default]
    Off,
    /// Append committed transactions to the write-ahead log.
    Wal,
    /// WAL plus periodic snapshots (log truncated after each snapshot).
    WalWithSnapshots,
}

/// Committed transactions between automatic snapshots (in
/// [`DurabilityMode::WalWithSnapshots`]) unless overridden via
/// [`Store::set_snapshot_every`].
const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

/// The live durability machinery of a store opened with
/// [`Store::open`]: the WAL append handle, the transaction sequence
/// counter, and the in-flight transaction buffer. Deltas produced while
/// `in_txn` accumulate in `pending` and reach the file only as one
/// contiguous `Begin … Commit` run at commit time — a rollback discards
/// them (and the inverse deltas of the undo operations) entirely.
#[derive(Debug)]
struct DurabilityState {
    mode: DurabilityMode,
    dir: PathBuf,
    /// The segmented write-ahead log (rotation, pruning, group commit).
    wal: SegmentedWal,
    /// Sequence number of the last committed transaction.
    txn_seq: u64,
    /// True between `wal_txn_begin` and commit/rollback.
    in_txn: bool,
    /// Deltas of the in-flight transaction.
    pending: Vec<WalRecord>,
    /// Committed transactions since the last snapshot.
    txns_since_snapshot: u64,
    /// Snapshot cadence (`WalWithSnapshots` only).
    snapshot_every: u64,
    /// Raised when the cadence falls due; cleared by a successful
    /// inline snapshot ([`Store::run_due_snapshot`]) or at job capture
    /// ([`Store::take_snapshot_job`]).
    snapshot_due: bool,
    /// The **first** error among failed *automatic* snapshots since the
    /// last [`Store::take_snapshot_error`] poll — later failures bump
    /// `snapshot_failures` but never overwrite it, so a poller sees the
    /// true history (root cause + extent) rather than only the newest
    /// symptom. Automatic snapshots run after the commit is already
    /// durable in the WAL, so their failure must not fail (let alone
    /// roll back) the commit itself.
    snapshot_error: Option<DurabilityError>,
    /// Failed automatic snapshot attempts since the last poll.
    snapshot_failures: u64,
}

impl DurabilityState {
    /// Appends `deltas` as the next committed transaction's
    /// `Begin … Commit` run and counts it towards the snapshot cadence;
    /// the ack is the caller's to wait on.
    fn log_commit(
        &mut self,
        deltas: impl ExactSizeIterator<Item = WalRecord>,
    ) -> Result<WalAck, DurabilityError> {
        let seq = self.txn_seq + 1;
        let mut frames = Vec::with_capacity(deltas.len() + 2);
        frames.push(WalRecord::Begin { seq });
        frames.extend(deltas);
        frames.push(WalRecord::Commit { seq });
        let ack = self.wal.append_run(&frames, seq)?;
        self.txn_seq = seq;
        if self.mode == DurabilityMode::WalWithSnapshots {
            self.txns_since_snapshot += 1;
            self.snapshot_due |= self.txns_since_snapshot >= self.snapshot_every;
        }
        Ok(ack)
    }

    /// Records one failed automatic-snapshot attempt: the first error
    /// is kept, every attempt is counted.
    fn note_snapshot_failure(&mut self, e: DurabilityError) {
        self.snapshot_failures += 1;
        self.snapshot_error.get_or_insert(e);
    }

    /// Appends a best-effort marker and waits on its ack; a lost marker
    /// costs recovery only a conservative resume point.
    fn log_marker(&mut self, rec: WalRecord) {
        let _ = self
            .wal
            .append_run(&[rec], self.txn_seq)
            .and_then(|ack| ack.wait());
    }
}

/// What a deferred (background) snapshot must persist: captured under
/// the commit path at cadence time, written to disk by a worker thread
/// so committers never stall on the dump. The worker pairs it with the
/// published MVCC `Arc` snapshot, whose state is exactly the extension
/// at `watermark`.
#[derive(Debug)]
pub(crate) struct SnapshotJob {
    /// The durability directory.
    pub(crate) dir: PathBuf,
    /// The last committed transaction the snapshot covers.
    pub(crate) watermark: u64,
    /// Touched-id tracking state at capture.
    pub(crate) tracking: bool,
    /// Undrained touched ids at capture.
    pub(crate) touched: Vec<ObjectId>,
    /// Sealed WAL segments the snapshot makes redundant — pruned (under
    /// the commit path) only after the snapshot file is durable. Only
    /// segments sealed *before* capture qualify: markers or commits
    /// appended later live in segments outside this list.
    pub(crate) prunable: Vec<u64>,
}

/// The record of failed automatic snapshots since the last successful
/// poll of [`Store::take_snapshot_error`]: the **first** failure (later
/// ones never overwrite it) plus how many attempts failed in total.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFailure {
    /// The first error since the last poll — the root cause.
    pub first: DurabilityError,
    /// Total failed attempts since the last poll (including the first).
    pub failures: u64,
}

impl fmt::Display for SnapshotFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed snapshot attempt(s); first: {}",
            self.failures, self.first
        )
    }
}

impl std::error::Error for SnapshotFailure {}

/// When a composite index is admitted for a recurring equality-atom
/// pair. The cost model reports every plan that keeps two equality
/// atoms over distinct attributes; the pair *qualifies* when its joint
/// estimate beats the cheaper single-atom posting by `min_gain`, and is
/// *admitted* — materialised lazily on next use — after `admit_after`
/// qualifying sightings (counted by a bounded [`PairSketch`], so a
/// stream of one-off pairs cannot grow planner state).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompositePolicy {
    /// Qualifying sightings before a pair is admitted.
    pub admit_after: u32,
    /// Required gain factor: `min_single_est >= min_gain * joint_est`
    /// (with the joint estimate floored at one row).
    pub min_gain: f64,
    /// Probes-without-use before an admitted pair is **evicted**: every
    /// planner consultation of the composite machinery advances a probe
    /// clock, and a pair whose last use (an admission-check hit) lies
    /// more than `evict_after` probes back is dropped — its admission
    /// revoked, its sketch count forgotten (re-admission takes fresh
    /// qualifying sightings) and its materialised index discarded, so a
    /// pair the workload stopped querying stops charging every write.
    pub evict_after: u32,
}

impl Default for CompositePolicy {
    fn default() -> Self {
        CompositePolicy {
            admit_after: 3,
            min_gain: 2.0,
            evict_after: 256,
        }
    }
}

impl CompositePolicy {
    /// A policy that never admits a composite — the differential /
    /// benchmark baseline (plans keep their two-way intersections).
    pub fn disabled() -> Self {
        CompositePolicy {
            admit_after: u32::MAX,
            min_gain: f64::INFINITY,
            evict_after: u32::MAX,
        }
    }
}

/// Tracked pairs per sketch: far above the number of simultaneously hot
/// conjunct pairs a workload plausibly has, small enough to bound
/// planner state.
const COMPOSITE_SKETCH_CAP: usize = 64;

/// A candidate key: the queried class plus the ascending attribute pair.
type PairKey = (ClassName, AttrName, AttrName);

/// The composite-admission state: *query-workload* state, not data
/// state — it survives mutations (and wholesale cache discards), while
/// the materialised composite indexes themselves live in the
/// [`SecondaryCache`] and are maintained/discarded like every other
/// secondary structure. `clock` counts planner consultations of the
/// composite machinery; each admitted pair records the clock of its
/// last *use* (an admission-check hit), and pairs idle for more than
/// [`CompositePolicy::evict_after`] probes are evicted.
#[derive(Clone, Debug)]
struct CompositeAdmission {
    sketch: PairSketch<PairKey>,
    /// Admitted pair → probe-clock value of its last use.
    admitted: FxHashMap<PairKey, u64>,
    clock: u64,
}

impl Default for CompositeAdmission {
    fn default() -> Self {
        CompositeAdmission {
            sketch: PairSketch::new(COMPOSITE_SKETCH_CAP),
            admitted: FxHashMap::default(),
            clock: 0,
        }
    }
}

/// Lazily built secondary indexes and statistics, keyed by the *queried*
/// class (whose extension they cover) and attribute. `version` records
/// the store mutation counter the cache contents reflect; mutations
/// either apply deltas and stamp the new version (incremental mode) or
/// clear the maps (wholesale mode), so a stale entry can never serve a
/// query.
#[derive(Clone, Debug, Default)]
struct SecondaryCache {
    version: u64,
    hash: FxHashMap<ClassName, FxHashMap<AttrName, Arc<HashIndex>>>,
    sorted: FxHashMap<ClassName, FxHashMap<AttrName, Arc<SortedIndex>>>,
    stats: FxHashMap<ClassName, FxHashMap<AttrName, Arc<AttrStats>>>,
    composite: FxHashMap<ClassName, FxHashMap<(AttrName, AttrName), Arc<CompositeIndex>>>,
}

impl SecondaryCache {
    /// Discards every cached structure (indexes, statistics, composites),
    /// leaving the version stamp to the caller.
    fn clear(&mut self) {
        self.hash.clear();
        self.sorted.clear();
        self.stats.clear();
        self.composite.clear();
    }
}

/// Applies `$apply` to every cached `(attr, entry)` of `$map` whose
/// class extension covers `$class` — the shared loop shape of the three
/// delta operations, written once so a change to the coverage rule (or
/// a fourth secondary structure) edits one place per operation.
macro_rules! for_covering {
    ($db:expr, $map:expr, $class:expr, |$attr:ident, $entry:ident| $apply:block) => {
        for (cached, attrs) in $map.iter_mut() {
            if $db.schema.is_subclass($class, cached) {
                for ($attr, $entry) in attrs.iter_mut() {
                    $apply;
                }
            }
        }
    };
}

/// Locks a cache mutex, tolerating poisoning: the guarded structures
/// hold rebuildable derived state (secondary indexes, statistics,
/// composite-admission counters), so a peer that panicked mid-update
/// cannot leave them semantically corrupt — at worst
/// [`Store::verify_cache`] discards and rebuilds on the next read.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `&mut self` counterpart of [`lock`]: direct access through the
/// exclusive borrow, with the same poison tolerance and no locking
/// cost.
fn lock_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// A database plus its enforced constraint catalog and key indexes.
#[derive(Debug)]
pub struct Store {
    db: Database,
    catalog: Catalog,
    indexes: IndexSet,
    /// Bumped on every mutation attempt that may have touched state;
    /// secondary indexes are valid only for the version they were
    /// synchronised to (by delta or rebuild).
    version: u64,
    maintenance: IndexMaintenance,
    /// `Mutex`, not `RefCell`: the caches are filled lazily behind
    /// `&self`, and MVCC sessions ([`crate::mvcc`]) run planned queries
    /// against one shared snapshot from many threads — `Store` must be
    /// `Sync`. Single-threaded callers pay one uncontended lock per
    /// cache access.
    secondary: Mutex<SecondaryCache>,
    composite_policy: CompositePolicy,
    composites: Mutex<CompositeAdmission>,
    /// When `Some`, every *committed* state change appends the object id
    /// it touched (rollback undo operations included — they go through
    /// the same mutators). Drained, sorted and deduplicated by
    /// [`Store::take_touched`] for downstream incremental consumers.
    touched_log: Option<Vec<ObjectId>>,
    /// `Some` only for stores opened with [`Store::open`] in a
    /// persistent [`DurabilityMode`]; `None` keeps every mutation path
    /// free of durability branches beyond one `Option` check.
    durability: Option<Box<DurabilityState>>,
}

/// Compile-time proof that the store can back shared MVCC sessions: a
/// `Store` (snapshot) may be sent to and referenced from many threads.
/// If a field ever regresses to `RefCell`/`Rc`, this line fails to
/// compile.
const _: fn() = assert_send_sync::<Store>;
const fn assert_send_sync<T: Send + Sync>() {}

// `Store` deliberately does NOT implement `Clone`. A durable store
// owns a WAL file handle, and a file handle cannot be meaningfully
// shared by two independently mutating stores — an implicit
// `.clone()` would have to silently detach durability, and for a
// while it did, letting tests "persist" mutations into a copy whose
// WAL no longer existed. Use [`Store::detached_clone`], which states
// that contract in its name.
impl Store {
    /// Clones the in-memory state only: the clone is a **detached**
    /// copy with [`DurabilityMode::Off`] — it shares no WAL handle
    /// with the original and persists **nothing**, whatever the
    /// original's [`DurabilityMode`]. This is the explicit replacement
    /// for the removed `Clone` impl, so call sites visibly opt in to
    /// losing durability (e.g. scratch oracles, MVCC snapshots,
    /// benchmark per-iteration copies).
    pub fn detached_clone(&self) -> Store {
        Store {
            db: self.db.clone(),
            catalog: self.catalog.clone(),
            indexes: self.indexes.clone(),
            version: self.version,
            maintenance: self.maintenance,
            secondary: Mutex::new(lock(&self.secondary).clone()),
            composite_policy: self.composite_policy,
            composites: Mutex::new(lock(&self.composites).clone()),
            touched_log: self.touched_log.clone(),
            durability: None,
        }
    }
    /// Creates a store over an (empty or pre-populated) database. Builds
    /// key indexes from the catalog's key constraints; pre-existing
    /// objects are indexed (and trusted to satisfy the constraints —
    /// callers loading untrusted data should [`Store::check_all`]).
    pub fn new(db: Database, catalog: Catalog) -> Self {
        let mut indexes = IndexSet::new();
        for cc in catalog.all_class() {
            if let interop_constraint::ClassConstraintBody::Key(attrs) = &cc.body {
                indexes.insert(cc.class.clone(), KeyIndex::new(attrs.clone()));
            }
        }
        let mut store = Store {
            db,
            catalog,
            indexes,
            version: 0,
            maintenance: IndexMaintenance::default(),
            secondary: Mutex::new(SecondaryCache::default()),
            composite_policy: CompositePolicy::default(),
            composites: Mutex::new(CompositeAdmission::default()),
            touched_log: None,
            durability: None,
        };
        // Index existing objects.
        let ids: Vec<ObjectId> = store.db.objects().map(|o| o.id).collect();
        for id in ids {
            let obj = store.db.object(id).expect("listed").clone();
            store.index_insert(&obj).ok();
        }
        store
    }

    /// Opens a durable store rooted at `dir`, recovering any state a
    /// previous process persisted there: the newest valid snapshot is
    /// loaded into `db`, the WAL tail is replayed **one committed
    /// transaction at a time**, and any torn trailing frame — or a
    /// `Begin … delta` run missing its `Commit` — is discarded and
    /// truncated away. Secondary indexes, statistics and composite
    /// admissions are *not* persisted; they rebuild lazily exactly as
    /// on a fresh store.
    ///
    /// `db` supplies the schema (and any bootstrap objects for a fresh
    /// directory); recovered objects are inserted into it. With
    /// [`DurabilityMode::Off`] this is exactly [`Store::new`] — no file
    /// is read or created.
    ///
    /// Replay applies recovered deltas directly to the database,
    /// bypassing the store mutators, so the touched-id log cannot be
    /// polluted by replayed history; the log state (tracking flag +
    /// undrained ids) is itself recovered from the snapshot and the
    /// WAL's tracking markers.
    pub fn open(
        mut db: Database,
        catalog: Catalog,
        dir: impl AsRef<Path>,
        mode: DurabilityMode,
    ) -> Result<Store, DurabilityError> {
        if mode == DurabilityMode::Off {
            return Ok(Store::new(db, catalog));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DurabilityError::Io(format!("{}: {e}", dir.display())))?;

        let mut watermark = 0u64;
        let mut tracking = false;
        let mut touched: Vec<ObjectId> = Vec::new();
        if let Some(snap) = snapshot::load_latest(&dir)? {
            watermark = snap.watermark;
            tracking = snap.tracking;
            touched = snap.touched;
            for obj in snap.objects {
                db.insert(obj)
                    .map_err(|e| DurabilityError::Model(e.to_string()))?;
            }
        }

        let mut scans = wal::scan_segments(&dir)?;
        let mut txn_seq = watermark;
        // (seq, buffered deltas) of an open `Begin … Commit` run.
        let mut open_txn: Option<(u64, Vec<WalRecord>)> = None;
        // The commit boundary: the segment and end offset of the last
        // frame that left no transaction open. Frames past it — in that
        // segment or any later one — belong to an unterminated run (or
        // the torn tail) and are discarded.
        let mut boundary: Option<(u64, u64)> = None;
        for seg in &mut scans {
            let records = std::mem::take(&mut seg.scan.records);
            let frame_ends = std::mem::take(&mut seg.scan.frame_ends);
            let torn = seg.scan.valid_len < seg.scan.file_len;
            let mut seg_boundary = 0u64;
            for (i, rec) in records.into_iter().enumerate() {
                match rec {
                    WalRecord::Begin { seq } => open_txn = Some((seq, Vec::new())),
                    WalRecord::Commit { seq } => {
                        if let Some((begin_seq, deltas)) = open_txn.take() {
                            if begin_seq == seq && seq > watermark {
                                Self::replay_deltas(
                                    &mut db,
                                    deltas,
                                    tracking.then_some(&mut touched),
                                )?;
                            }
                            txn_seq = txn_seq.max(seq);
                        }
                    }
                    WalRecord::Rollback => open_txn = None,
                    WalRecord::TouchedDrain => touched.clear(),
                    WalRecord::TrackTouched { on } => {
                        tracking = on;
                        touched.clear();
                    }
                    delta => {
                        if let Some((_, deltas)) = &mut open_txn {
                            deltas.push(delta);
                        }
                        // A delta outside Begin/Commit cannot be produced
                        // by this writer; ignore it defensively rather
                        // than guessing at its transaction.
                    }
                }
                if open_txn.is_none() {
                    seg_boundary = frame_ends[i];
                }
            }
            boundary = Some((seg.seq, seg_boundary));
            if open_txn.take().is_some() {
                // A run left open at the end of a segment: whether from
                // a crash mid-append or a hostile file, everything from
                // here on is untrusted and discarded.
                break;
            }
            if torn {
                break;
            }
        }
        // Fresh directories start at segment 1.
        let (active_seq, valid_len) = boundary.unwrap_or((1, 0));
        // Segments past the boundary hold only discarded bytes.
        let mut removed_any = false;
        for (seq, path) in wal::list_segments(&dir)? {
            if seq > active_seq {
                std::fs::remove_file(&path)
                    .map_err(|e| DurabilityError::Io(format!("{}: {e}", path.display())))?;
                removed_any = true;
            }
        }
        if removed_any {
            wal::fsync_dir(&dir)?;
        }
        // Earlier segments are sealed; bound their contents by the
        // recovered counter (conservative: too high only delays pruning).
        let sealed: Vec<SealedSegment> = scans
            .iter()
            .filter(|s| s.seq < active_seq)
            .map(|s| SealedSegment {
                seq: s.seq,
                last_txn: txn_seq,
            })
            .collect();
        let wal = SegmentedWal::open(&dir, active_seq, valid_len, sealed, txn_seq)?;

        let mut store = Store::new(db, catalog);
        store.touched_log = tracking.then_some(touched);
        store.durability = Some(Box::new(DurabilityState {
            mode,
            dir,
            wal,
            txn_seq,
            in_txn: false,
            pending: Vec::new(),
            txns_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            snapshot_due: false,
            snapshot_error: None,
            snapshot_failures: 0,
        }));
        Ok(store)
    }

    /// Applies one committed transaction's recovered deltas to the
    /// database. Runs against the bare [`Database`] — no store mutator,
    /// no index, no touched-log side effects — because the store is
    /// constructed *after* replay and builds everything from the final
    /// state.
    fn replay_deltas(
        db: &mut Database,
        deltas: Vec<WalRecord>,
        mut touched: Option<&mut Vec<ObjectId>>,
    ) -> Result<(), DurabilityError> {
        let model = |e: interop_model::ModelError| DurabilityError::Model(e.to_string());
        for delta in deltas {
            let id = match delta {
                WalRecord::DeltaInsert(obj) => {
                    let id = obj.id;
                    db.insert(obj).map_err(model)?;
                    id
                }
                WalRecord::DeltaUpdate { id, attr, new, .. } => {
                    db.update(id, attr, new).map_err(model)?;
                    id
                }
                WalRecord::DeltaRemove { id } => {
                    db.remove(id).map_err(model)?;
                    id
                }
                // Control records never reach here (the replay loop
                // routes them before buffering); skip defensively.
                _ => continue,
            };
            if let Some(log) = touched.as_deref_mut() {
                log.push(id);
            }
        }
        Ok(())
    }

    /// The durability mode in effect ([`DurabilityMode::Off`] for
    /// stores created with [`Store::new`] or obtained by cloning).
    pub fn durability_mode(&self) -> DurabilityMode {
        self.durability
            .as_ref()
            .map_or(DurabilityMode::Off, |d| d.mode)
    }

    /// Sets the snapshot cadence for [`DurabilityMode::WalWithSnapshots`]:
    /// a snapshot is taken (and the WAL truncated) every `every`
    /// committed transactions. Clamped to at least 1; no effect in
    /// other modes.
    pub fn set_snapshot_every(&mut self, every: u64) {
        if let Some(d) = self.durability.as_deref_mut() {
            d.snapshot_every = every.max(1);
        }
    }

    /// Takes a snapshot of the current extension now and truncates the
    /// WAL. No-op for non-durable stores. Useful before a planned
    /// shutdown to make the next [`Store::open`] replay-free.
    pub fn snapshot_now(&mut self) -> Result<(), StoreError> {
        self.snapshot_inner().map_err(StoreError::from)
    }

    /// The shared snapshot body. The WAL is reset only *after*
    /// [`snapshot::write_snapshot`] returns, i.e. after the new
    /// snapshot is fully durable — a failure leaves the log (and the
    /// older snapshots) exactly as they were. The reset itself is
    /// durable (truncation synced, sealed-segment deletions followed by
    /// a directory fsync), so power loss cannot resurrect stale
    /// committed frames the snapshot already holds.
    fn snapshot_inner(&mut self) -> Result<(), DurabilityError> {
        let Some(d) = self.durability.as_deref_mut() else {
            return Ok(());
        };
        let tracking = self.touched_log.is_some();
        let touched = self.touched_log.clone().unwrap_or_default();
        let objects: Vec<&Object> = self.db.objects().collect();
        snapshot::write_snapshot(&d.dir, d.txn_seq, tracking, &touched, &objects)?;
        d.wal.reset_all()?;
        d.txns_since_snapshot = 0;
        d.snapshot_due = false;
        Ok(())
    }

    /// Takes (and clears) the record of automatic-snapshot failures
    /// since the last poll, if any: the **first** error plus the total
    /// attempt count — later failures never overwrite the first, so the
    /// history is not silently collapsed into the newest symptom.
    /// Automatic snapshots run after the triggering commit is already
    /// durable in the WAL, so their failure cannot fail the commit — it
    /// is surfaced here instead, and the cadence retries on the next
    /// committed transaction.
    pub fn take_snapshot_error(&mut self) -> Option<SnapshotFailure> {
        let d = self.durability.as_deref_mut()?;
        let first = d.snapshot_error.take()?;
        Some(SnapshotFailure {
            first,
            failures: std::mem::take(&mut d.snapshot_failures),
        })
    }

    /// Records one failed automatic-snapshot attempt.
    pub(crate) fn note_snapshot_failure(&mut self, e: DurabilityError) {
        if let Some(d) = self.durability.as_deref_mut() {
            d.note_snapshot_failure(e);
        }
    }

    /// Appends one committed single-operation transaction (`Begin`,
    /// `rec`, `Commit`) to the WAL, waits on its ack and runs a due
    /// cadence snapshot — or, inside an explicit transaction, buffers
    /// `rec` until [`Store::wal_txn_commit`]. No-op when durability is
    /// off.
    fn wal_op(&mut self, rec: WalRecord) -> Result<(), StoreError> {
        let Some(d) = self.durability.as_deref_mut() else {
            return Ok(());
        };
        if d.in_txn {
            d.pending.push(rec);
            return Ok(());
        }
        d.log_commit([rec].into_iter())?.wait()?;
        self.run_due_snapshot();
        Ok(())
    }

    /// Runs a due cadence snapshot inline, after the commit that made
    /// it due is acknowledged. Infallible by design — the transaction
    /// is already durable in the WAL when this runs, so a snapshot
    /// failure must not propagate into the commit path (a caller would
    /// roll memory back while the log keeps the commit, and replay
    /// would diverge on reopen). The error is stashed for
    /// [`Store::take_snapshot_error`]; the flag stays raised, so the
    /// next commit retries.
    pub(crate) fn run_due_snapshot(&mut self) {
        if self.durability.as_deref().is_some_and(|d| d.snapshot_due) {
            if let Err(e) = self.snapshot_inner() {
                self.note_snapshot_failure(e);
            }
        }
    }

    /// Captures the work of one due background snapshot, or `None` when
    /// no snapshot is due. Seals the active segment first (so every
    /// transaction the snapshot covers sits in sealed — durable,
    /// prunable — segments) and lists the sealed segments the snapshot
    /// will make redundant. The caller pairs the job with an `Arc`
    /// snapshot of the extension at the same commit point and hands
    /// both to the worker; [`Store::prune_wal_segments`] runs after the
    /// snapshot file is durable.
    pub(crate) fn take_snapshot_job(&mut self) -> Option<SnapshotJob> {
        let tracking = self.touched_log.is_some();
        let touched = self.touched_log.clone().unwrap_or_default();
        let d = self.durability.as_deref_mut()?;
        if !d.snapshot_due {
            return None;
        }
        d.snapshot_due = false;
        d.txns_since_snapshot = 0;
        if d.wal.active_len() > 0 {
            if let Err(e) = d.wal.rotate() {
                // The snapshot never started; count it as a failed
                // attempt and let the cadence retry.
                d.note_snapshot_failure(e);
                return None;
            }
        }
        let watermark = d.txn_seq;
        Some(SnapshotJob {
            dir: d.dir.clone(),
            watermark,
            tracking,
            touched,
            prunable: d.wal.prunable(watermark),
        })
    }

    /// Deletes sealed WAL segments a durable snapshot made redundant
    /// (directory-fsynced). Failures are recorded as snapshot failures —
    /// the segments stay, replay merely re-skips their transactions.
    pub(crate) fn prune_wal_segments(&mut self, seqs: &[u64]) {
        let Some(d) = self.durability.as_deref_mut() else {
            return;
        };
        if let Err(e) = d.wal.prune_sealed(seqs) {
            d.note_snapshot_failure(e);
        }
    }

    /// Sets the group-commit policy (how commits share fsyncs). Every
    /// commit takes the same path — append, then wait on the ack — and
    /// the default policy is a group of one. The plain store's mutators
    /// wait at once, so a dwelling policy only adds latency to a single
    /// writer; sharing a sync needs concurrent MVCC committers, whose
    /// waits happen outside the commit mutex. No effect when durability
    /// is off.
    pub fn set_group_commit(&mut self, policy: GroupCommitPolicy) {
        if let Some(d) = self.durability.as_deref() {
            d.wal.group().set_policy(policy);
        }
    }

    /// The group-commit policy in effect (the default when durability
    /// is off).
    pub fn group_commit(&self) -> GroupCommitPolicy {
        self.durability
            .as_deref()
            .map_or_else(GroupCommitPolicy::default, |d| d.wal.group().policy())
    }

    /// The WAL's sync coordinator, for the sync-fault tests.
    #[cfg(test)]
    pub(crate) fn wal_group(&self) -> Option<&Arc<wal::GroupSync>> {
        self.durability.as_deref().map(|d| d.wal.group())
    }

    /// Sets the WAL segment rotation threshold in bytes (clamped to at
    /// least 1). No effect when durability is off.
    pub fn set_wal_segment_bytes(&mut self, bytes: u64) {
        if let Some(d) = self.durability.as_deref_mut() {
            d.wal.set_segment_bytes(bytes);
        }
    }

    /// Opens a WAL transaction bracket: subsequent mutator deltas are
    /// buffered instead of appended. Called by [`crate::txn::Txn::commit`].
    pub(crate) fn wal_txn_begin(&mut self) {
        if let Some(d) = self.durability.as_deref_mut() {
            d.in_txn = true;
            d.pending.clear();
        }
    }

    /// Closes the bracket successfully: appends the buffered deltas as
    /// one contiguous `Begin … Commit` run and returns its ack **without
    /// waiting** — the caller decides who waits, and who runs a due
    /// cadence snapshot. `Ok(None)` means there was nothing to log (no
    /// durability, no bracket, or an empty transaction). On append
    /// failure the transaction is **not** in the log; the caller must
    /// roll the in-memory state back so memory and log agree.
    pub(crate) fn wal_txn_commit(&mut self) -> Result<Option<WalAck>, StoreError> {
        let Some(d) = self.durability.as_deref_mut() else {
            return Ok(None);
        };
        if !d.in_txn {
            return Ok(None);
        }
        d.in_txn = false;
        let pending = std::mem::take(&mut d.pending);
        if pending.is_empty() {
            return Ok(None);
        }
        Ok(Some(d.log_commit(pending.into_iter())?))
    }

    /// Closes the bracket after a rollback: the buffered deltas (and
    /// the inverse deltas the undo operations pushed) are discarded —
    /// nothing of the transaction reaches the log beyond a best-effort
    /// `Rollback` marker, which replay treats as "no transaction open".
    pub(crate) fn wal_txn_rollback(&mut self) {
        if let Some(d) = self.durability.as_deref_mut() {
            d.in_txn = false;
            d.pending.clear();
            d.log_marker(WalRecord::Rollback);
        }
    }

    /// Immutable access to the underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The enforced catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Consumes the store, returning the database.
    pub fn into_db(self) -> Database {
        self.db
    }

    fn index_class_for(&self, class: &ClassName) -> Option<ClassName> {
        // The index lives at the class where `key` is declared; an object
        // of a subclass belongs to the ancestor's index.
        self.db
            .schema
            .self_and_ancestors(class)
            .into_iter()
            .find(|c| self.indexes.contains_key(c))
    }

    fn index_insert(&mut self, obj: &Object) -> Result<(), StoreError> {
        if let Some(c) = self.index_class_for(&obj.class) {
            let idx = self.indexes.get_mut(&c).expect("found above");
            idx.insert(obj).map_err(|holder| StoreError::KeyViolation {
                class: c.clone(),
                holder,
            })?;
        }
        Ok(())
    }

    fn index_remove(&mut self, obj: &Object) {
        if let Some(c) = self.index_class_for(&obj.class) {
            self.indexes.get_mut(&c).expect("found above").remove(obj);
        }
    }

    /// Key lookup via the index (used by the query fast path).
    pub fn lookup_key(&self, class: &ClassName, key: &[Value]) -> Option<ObjectId> {
        let c = self.index_class_for(class)?;
        self.indexes[&c].get(key)
    }

    /// The key attributes indexed for `class`, if any.
    pub fn key_attrs(&self, class: &ClassName) -> Option<&[AttrName]> {
        let c = self.index_class_for(class)?;
        Some(self.indexes[&c].attrs())
    }

    /// The store's mutation counter. Bumped by every (attempted) insert,
    /// update or remove; the secondary cache is synchronised to it by
    /// deltas (or discarded, in wholesale mode) before the mutation
    /// returns.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The maintenance mode in effect.
    pub fn index_maintenance(&self) -> IndexMaintenance {
        self.maintenance
    }

    /// Switches how indexes and statistics survive mutations. Switching
    /// drops the current cache (the conservative direction for both
    /// modes).
    pub fn set_index_maintenance(&mut self, mode: IndexMaintenance) {
        self.maintenance = mode;
        let cache = lock_mut(&mut self.secondary);
        cache.clear();
        cache.version = self.version;
    }

    /// The composite-admission policy in effect.
    pub fn composite_policy(&self) -> CompositePolicy {
        self.composite_policy
    }

    /// Replaces the composite-admission policy. Already-admitted pairs
    /// stay admitted (the materialised index remains correct whatever
    /// the policy says about future admissions); use a fresh store for a
    /// composite-free baseline, or [`CompositePolicy::disabled`] from
    /// the start.
    pub fn set_composite_policy(&mut self, policy: CompositePolicy) {
        self.composite_policy = policy;
    }

    /// The admitted composite pairs, sorted — diagnostics/tests hook.
    pub fn admitted_composites(&self) -> Vec<(ClassName, AttrName, AttrName)> {
        let adm = lock(&self.composites);
        let mut out: Vec<_> = adm.admitted.keys().cloned().collect();
        out.sort();
        out
    }

    /// Starts (or stops) recording the ids of committed state changes.
    /// Disabling discards anything recorded. The log feeds per-object
    /// re-conformation in the incremental integration pipeline: after a
    /// batch of mutations, [`Store::take_touched`] yields exactly the
    /// ids whose state may differ from the last drain — failed
    /// operations append nothing, and a rolled-back transaction appends
    /// its undo operations too, so consumers re-examine those objects
    /// and find them unchanged rather than missing a change.
    pub fn track_touched(&mut self, on: bool) {
        self.touched_log = if on { Some(Vec::new()) } else { None };
        // Persist the tracking state so a reopened store resumes (or
        // stays out of) incremental mode. Best-effort: losing the
        // marker only costs the next open a conservative tracking
        // state, never correctness of the data itself.
        if let Some(d) = self.durability.as_deref_mut() {
            d.log_marker(WalRecord::TrackTouched { on });
        }
    }

    /// Drains the touched-id log (sorted, deduplicated). Empty when
    /// tracking is off or nothing was committed since the last drain.
    pub fn take_touched(&mut self) -> Vec<ObjectId> {
        let Some(log) = &mut self.touched_log else {
            return Vec::new();
        };
        let mut out = std::mem::take(log);
        out.sort_unstable();
        out.dedup();
        // Record the drain so a reopened store doesn't hand the
        // incremental pipeline already-consumed ids. Best-effort: a
        // lost marker means recovery re-offers ids whose objects the
        // pipeline then re-examines and finds unchanged — safe.
        if !out.is_empty() {
            if let Some(d) = self.durability.as_deref_mut() {
                d.log_marker(WalRecord::TouchedDrain);
            }
        }
        out
    }

    fn log_touched(&mut self, id: ObjectId) {
        if let Some(log) = &mut self.touched_log {
            log.push(id);
        }
    }

    /// Evicts every admitted pair whose last use lies more than
    /// `evict_after` probes back: revokes the admission, forgets the
    /// sketch count (re-admission takes fresh qualifying sightings) and
    /// drops the materialised index so writes stop maintaining it.
    fn evict_stale_composites(&self, adm: &mut CompositeAdmission) {
        let horizon = self.composite_policy.evict_after as u64;
        let stale: Vec<PairKey> = adm
            .admitted
            .iter()
            .filter(|(_, &last_use)| adm.clock.saturating_sub(last_use) > horizon)
            .map(|(k, _)| k.clone())
            .collect();
        if stale.is_empty() {
            return;
        }
        // Lock order: composites (held by the caller) → secondary.
        // Every multi-lock path takes them in this order.
        let mut cache = lock(&self.secondary);
        for key in stale {
            adm.admitted.remove(&key);
            adm.sketch.forget(&key);
            let (class, a, b) = key;
            if let Some(m) = cache.composite.get_mut(&class) {
                m.remove(&(a, b));
                if m.is_empty() {
                    cache.composite.remove(&class);
                }
            }
        }
    }

    /// Registers a mutation attempt: bumps the version and brings the
    /// cache's stamp along. In wholesale mode the cache contents are
    /// discarded instead; in incremental mode the caller follows up with
    /// the per-object deltas for whatever the mutation actually changed
    /// (nothing, for a rejected op — state is unchanged, so stamping
    /// alone keeps the cache exact).
    fn bump(&mut self) {
        self.version += 1;
        let cache = lock_mut(&mut self.secondary);
        if self.maintenance == IndexMaintenance::Wholesale {
            cache.clear();
        }
        cache.version = self.version;
    }

    /// Safety net on every cache read: a version mismatch means some
    /// mutation path forgot to synchronise — discard rather than serve
    /// stale entries. `debug_assert!`s loudly in test builds.
    fn verify_cache(&self, cache: &mut SecondaryCache) {
        debug_assert_eq!(
            cache.version, self.version,
            "secondary cache out of sync with store version"
        );
        if cache.version != self.version {
            cache.clear();
            cache.version = self.version;
        }
    }

    /// Applies a committed object insertion to every built index and
    /// statistics summary whose class extension covers the object.
    fn delta_insert(&mut self, id: ObjectId) {
        if self.maintenance == IndexMaintenance::Wholesale {
            return;
        }
        let db = &self.db;
        let cache = lock_mut(&mut self.secondary);
        let Some(obj) = db.object(id) else { return };
        for_covering!(db, cache.hash, &obj.class, |attr, idx| {
            Arc::make_mut(idx).insert(obj.get(attr), obj.id)
        });
        for_covering!(db, cache.sorted, &obj.class, |attr, idx| {
            Arc::make_mut(idx).insert(obj.get(attr), obj.id)
        });
        for_covering!(db, cache.stats, &obj.class, |attr, st| {
            Arc::make_mut(st).insert(obj.get(attr))
        });
        for_covering!(db, cache.composite, &obj.class, |pair, idx| {
            Arc::make_mut(idx).insert(obj.get(&pair.0), obj.get(&pair.1), obj.id)
        });
    }

    /// Applies a committed object removal (the mirror of
    /// [`Store::delta_insert`]; `obj` is the removed object, already out
    /// of the database).
    fn delta_remove(&mut self, obj: &Object) {
        if self.maintenance == IndexMaintenance::Wholesale {
            return;
        }
        let db = &self.db;
        let cache = lock_mut(&mut self.secondary);
        for_covering!(db, cache.hash, &obj.class, |attr, idx| {
            Arc::make_mut(idx).remove(obj.get(attr), obj.id)
        });
        for_covering!(db, cache.sorted, &obj.class, |attr, idx| {
            Arc::make_mut(idx).remove(obj.get(attr), obj.id)
        });
        for_covering!(db, cache.stats, &obj.class, |attr, st| {
            Arc::make_mut(st).remove(obj.get(attr))
        });
        for_covering!(db, cache.composite, &obj.class, |pair, idx| {
            Arc::make_mut(idx).remove(obj.get(&pair.0), obj.get(&pair.1), obj.id)
        });
    }

    /// Applies a committed single-attribute update: only entries for the
    /// changed attribute are touched (extension membership is unchanged).
    fn delta_update(
        &mut self,
        class: &ClassName,
        id: ObjectId,
        target: &AttrName,
        old: &Value,
        new: &Value,
    ) {
        if self.maintenance == IndexMaintenance::Wholesale {
            return;
        }
        let db = &self.db;
        let cache = lock_mut(&mut self.secondary);
        for_covering!(db, cache.hash, class, |attr, idx| {
            if attr == target {
                let idx = Arc::make_mut(idx);
                idx.remove(old, id);
                idx.insert(new, id);
            }
        });
        for_covering!(db, cache.sorted, class, |attr, idx| {
            if attr == target {
                let idx = Arc::make_mut(idx);
                idx.remove(old, id);
                idx.insert(new, id);
            }
        });
        for_covering!(db, cache.stats, class, |attr, st| {
            if attr == target {
                Arc::make_mut(st).update(old, new);
            }
        });
        // A composite pair is touched when *either* component is the
        // updated attribute; the partner component keeps its current
        // (already-committed) value, read off the live object.
        let Some(obj) = db.object(id) else { return };
        for_covering!(db, cache.composite, class, |pair, idx| {
            if &pair.0 == target {
                let idx = Arc::make_mut(idx);
                let other = obj.get(&pair.1);
                idx.remove(old, other, id);
                idx.insert(new, other, id);
            } else if &pair.1 == target {
                let idx = Arc::make_mut(idx);
                let other = obj.get(&pair.0);
                idx.remove(other, old, id);
                idx.insert(other, new, id);
            }
        });
    }

    /// The equality (hash) index over `class`'s extension for `attr`,
    /// building it on first use.
    pub fn hash_index(&self, class: &ClassName, attr: &AttrName) -> Arc<HashIndex> {
        let mut cache = lock(&self.secondary);
        self.verify_cache(&mut cache);
        if let Some(idx) = cache.hash.get(class).and_then(|m| m.get(attr)) {
            return Arc::clone(idx);
        }
        let idx = Arc::new(HashIndex::build(self.db.extension(class).into_iter().map(
            |id| {
                let obj = self.db.object(id).expect("extension lists live objects");
                (obj.get(attr).clone(), id)
            },
        )));
        cache
            .hash
            .entry(class.clone())
            .or_default()
            .insert(attr.clone(), Arc::clone(&idx));
        idx
    }

    /// The range (sorted) index over `class`'s extension for `attr`,
    /// building it on first use.
    pub fn sorted_index(&self, class: &ClassName, attr: &AttrName) -> Arc<SortedIndex> {
        let mut cache = lock(&self.secondary);
        self.verify_cache(&mut cache);
        if let Some(idx) = cache.sorted.get(class).and_then(|m| m.get(attr)) {
            return Arc::clone(idx);
        }
        let ids = self.db.extension(class);
        let idx = Arc::new(SortedIndex::build(ids.iter().map(|&id| {
            let obj = self.db.object(id).expect("extension lists live objects");
            (obj.get(attr), id)
        })));
        cache
            .sorted
            .entry(class.clone())
            .or_default()
            .insert(attr.clone(), Arc::clone(&idx));
        idx
    }

    /// The cardinality statistics over `class`'s extension for `attr`,
    /// building them on first use in the same pass an index build would
    /// make, and rebuilding when [`AttrStats::hist_stale`] reports that
    /// the extension drifted too far from the histogram's build point.
    pub fn attr_stats(&self, class: &ClassName, attr: &AttrName) -> Arc<AttrStats> {
        let mut cache = lock(&self.secondary);
        self.verify_cache(&mut cache);
        if let Some(st) = cache.stats.get(class).and_then(|m| m.get(attr)) {
            if !st.hist_stale() {
                return Arc::clone(st);
            }
        }
        let ids = self.db.extension(class);
        let st = Arc::new(AttrStats::build(ids.iter().map(|&id| {
            let obj = self.db.object(id).expect("extension lists live objects");
            obj.get(attr)
        })));
        cache
            .stats
            .entry(class.clone())
            .or_default()
            .insert(attr.clone(), Arc::clone(&st));
        st
    }

    /// The composite equality index over `class`'s extension for the
    /// (unordered) attribute pair `{a, b}`, building it on first use.
    /// Admission gates only whether the *planner* chooses composite
    /// probes; this accessor materialises unconditionally, so tests can
    /// compare a maintained composite against a scratch rebuild.
    pub fn composite_index(
        &self,
        class: &ClassName,
        a: &AttrName,
        b: &AttrName,
    ) -> Arc<CompositeIndex> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let mut cache = lock(&self.secondary);
        self.verify_cache(&mut cache);
        let pair = (a.clone(), b.clone());
        if let Some(idx) = cache.composite.get(class).and_then(|m| m.get(&pair)) {
            return Arc::clone(idx);
        }
        let idx = Arc::new(CompositeIndex::build(
            self.db.extension(class).into_iter().map(|id| {
                let obj = self.db.object(id).expect("extension lists live objects");
                (obj.get(a).clone(), obj.get(b).clone(), id)
            }),
        ));
        cache
            .composite
            .entry(class.clone())
            .or_default()
            .insert(pair, Arc::clone(&idx));
        idx
    }

    /// How many secondary structures (indexes + statistics + composite
    /// indexes) are currently cached, and the version they are valid
    /// for. Test/diagnostic hook for invalidation checks.
    pub fn secondary_cache_stats(&self) -> (u64, usize) {
        let cache = lock(&self.secondary);
        let n = cache.hash.values().map(|m| m.len()).sum::<usize>()
            + cache.sorted.values().map(|m| m.len()).sum::<usize>()
            + cache.stats.values().map(|m| m.len()).sum::<usize>()
            + cache.composite.values().map(|m| m.len()).sum::<usize>();
        (cache.version, n)
    }

    /// Validates an object against the *object constraints* effective on
    /// its class without touching the store. This is the early-validation
    /// primitive: a global transaction manager can reject a doomed
    /// subtransaction before submitting it (§1's update-validation
    /// use-case).
    pub fn validate_object(&self, obj: &Object) -> Result<(), StoreError> {
        self.db.typecheck(obj)?;
        for oc in self.catalog.object_effective(&self.db.schema, &obj.class) {
            let t = eval_formula(&self.db, obj, &oc.formula)?;
            if t == Truth::False {
                return Err(StoreError::ObjectConstraintViolated {
                    constraint: oc.id.clone(),
                    object: obj.id,
                });
            }
        }
        Ok(())
    }

    fn check_class_and_db_constraints(&self, touched: &ClassName) -> Result<(), StoreError> {
        for c in self.db.schema.self_and_ancestors(touched) {
            for cc in self.catalog.class_on(&c) {
                // Keys are enforced incrementally via the index; re-check
                // aggregates only.
                if cc.is_key() {
                    continue;
                }
                if check_class_constraint(&self.db, cc)? == Truth::False {
                    return Err(StoreError::ClassConstraintViolated {
                        constraint: cc.id.clone(),
                    });
                }
            }
        }
        for dc in self.catalog.database_constraints() {
            if check_db_constraint(&self.db, dc)? == Truth::False {
                return Err(StoreError::DbConstraintViolated {
                    constraint: dc.id.clone(),
                });
            }
        }
        Ok(())
    }

    /// Inserts an object, enforcing all constraints. On any violation the
    /// store is left unchanged.
    pub fn insert(&mut self, obj: Object) -> Result<(), StoreError> {
        // Bump even when the insert later fails: a failed op leaves state
        // unchanged, so stamping the cache at the new version keeps it
        // exact with no delta to apply.
        self.bump();
        self.validate_object(&obj)?;
        self.index_insert(&obj)?;
        let class = obj.class.clone();
        let id = obj.id;
        if let Err(e) = self.db.insert(obj) {
            // Roll the index entry back.
            if let Some(o) = self.db.object(id) {
                let o = o.clone();
                self.index_remove(&o);
            }
            return Err(e.into());
        }
        if let Err(e) = self.check_class_and_db_constraints(&class) {
            let obj = self.db.remove(id).expect("just inserted");
            self.index_remove(&obj);
            return Err(e);
        }
        self.delta_insert(id);
        self.log_touched(id);
        if self.durability.is_some() {
            let obj = self.db.object(id).expect("just inserted").clone();
            self.wal_op(WalRecord::DeltaInsert(obj))?;
        }
        Ok(())
    }

    /// Creates and inserts an object of `class`, returning its id.
    pub fn create(
        &mut self,
        class: impl Into<ClassName>,
        attrs: Vec<(&str, Value)>,
    ) -> Result<ObjectId, StoreError> {
        let class = class.into();
        let id = self.db.fresh_id();
        let mut obj = Object::new(id, class);
        for (name, v) in attrs {
            obj.set(name, v);
        }
        self.insert(obj)?;
        Ok(id)
    }

    /// Updates one attribute, enforcing all constraints; rolls back on
    /// violation.
    pub fn update(
        &mut self,
        id: ObjectId,
        attr: impl Into<AttrName>,
        value: Value,
    ) -> Result<(), StoreError> {
        let attr = attr.into();
        self.bump();
        let before = self.db.object_req(id)?.clone();
        let mut after = before.clone();
        after.set(attr.clone(), value.clone());
        self.validate_object(&after)?;
        self.index_remove(&before);
        if let Err(e) = self.index_insert(&after) {
            self.index_insert(&before).expect("restoring old key");
            return Err(e);
        }
        self.db.update(id, attr.clone(), value.clone())?;
        if let Err(e) = self.check_class_and_db_constraints(&before.class) {
            // Restore the previous object state wholesale.
            self.db.remove(id).expect("object exists");
            self.db
                .insert(before.clone())
                .expect("reinsert during rollback");
            self.index_remove(&after);
            self.index_insert(&before).expect("restoring old key");
            return Err(e);
        }
        let old = before.get(&attr).clone();
        self.delta_update(&before.class, id, &attr, &old, &value);
        self.log_touched(id);
        if self.durability.is_some() {
            self.wal_op(WalRecord::DeltaUpdate {
                id,
                attr,
                old,
                new: value,
            })?;
        }
        Ok(())
    }

    /// Removes an object.
    pub fn remove(&mut self, id: ObjectId) -> Result<Object, StoreError> {
        self.bump();
        let obj = self.db.remove(id)?;
        self.index_remove(&obj);
        if let Err(e) = self.check_class_and_db_constraints(&obj.class.clone()) {
            self.index_insert(&obj).ok();
            self.db.insert(obj).expect("reinsert after failed remove");
            return Err(e);
        }
        self.delta_remove(&obj);
        self.log_touched(id);
        self.wal_op(WalRecord::DeltaRemove { id })?;
        Ok(obj)
    }

    /// Re-checks every constraint against the full state; returns all
    /// violated constraint ids. Used after bulk-loading pre-existing data.
    pub fn check_all(&self) -> Result<Vec<ConstraintId>, StoreError> {
        let mut bad = Vec::new();
        for oc in self.catalog.all_object() {
            let viol = interop_constraint::eval::check_object_constraint(&self.db, oc)?;
            if !viol.is_empty() {
                bad.push(oc.id.clone());
            }
        }
        for cc in self.catalog.all_class() {
            if check_class_constraint(&self.db, cc)? == Truth::False {
                bad.push(cc.id.clone());
            }
        }
        for dc in self.catalog.database_constraints() {
            if check_db_constraint(&self.db, dc)? == Truth::False {
                bad.push(dc.id.clone());
            }
        }
        Ok(bad)
    }
}

impl crate::plan::StatsSource for Store {
    fn attr_stats(&self, class: &ClassName, attr: &AttrName) -> Arc<AttrStats> {
        Store::attr_stats(self, class, attr)
    }

    fn note_composite_candidate(
        &self,
        class: &ClassName,
        pair: (&AttrName, &AttrName),
        joint_est: usize,
        min_single_est: usize,
    ) {
        // Gain gate: the pair qualifies only when its joint estimate
        // beats the cheaper single-atom posting by the policy factor
        // (joint floored at one row so an estimated-empty pair cannot
        // qualify everything).
        let policy = self.composite_policy;
        let mut adm = lock(&self.composites);
        adm.clock += 1;
        self.evict_stale_composites(&mut adm);
        if (min_single_est as f64) < policy.min_gain * joint_est.max(1) as f64 {
            return;
        }
        let key = (class.clone(), pair.0.clone(), pair.1.clone());
        if adm.admitted.contains_key(&key) {
            return;
        }
        if adm.sketch.observe(key.clone()) >= policy.admit_after {
            let now = adm.clock;
            adm.admitted.insert(key, now);
        }
    }

    fn composite_admitted(&self, class: &ClassName, pair: (&AttrName, &AttrName)) -> bool {
        let mut adm = lock(&self.composites);
        adm.clock += 1;
        let key = (class.clone(), pair.0.clone(), pair.1.clone());
        // A hit is a *use*: refresh the pair's recency before sweeping,
        // so the pair being asked about is never evicted out from under
        // the plan that asked.
        let now = adm.clock;
        let hit = match adm.admitted.get_mut(&key) {
            Some(last_use) => {
                *last_use = now;
                true
            }
            None => false,
        };
        self.evict_stale_composites(&mut adm);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::{CmpOp, ConstraintId, Formula, ObjectConstraint};
    use interop_model::{ClassDef, DbName, Schema, Type};

    fn store() -> Store {
        let schema = Schema::new(
            "Bookseller",
            vec![
                ClassDef::new("Item")
                    .attr("isbn", Type::Str)
                    .attr("shopprice", Type::Real)
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("ref?", Type::Bool)
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let db = Database::new(schema, 2);
        let dbn = DbName::new("Bookseller");
        let mut cat = Catalog::new();
        cat.add_object(ObjectConstraint::new(
            ConstraintId::new(&dbn, &ClassName::new("Item"), "oc1"),
            "Item",
            Formula::Cmp(
                interop_constraint::Expr::attr("libprice"),
                CmpOp::Le,
                interop_constraint::Expr::attr("shopprice"),
            ),
        ));
        cat.add_object(ObjectConstraint::new(
            ConstraintId::new(&dbn, &ClassName::new("Proceedings"), "oc2"),
            "Proceedings",
            Formula::cmp("ref?", CmpOp::Eq, true).implies(Formula::cmp("rating", CmpOp::Ge, 7i64)),
        ));
        cat.add_class(interop_constraint::ClassConstraint::key(
            ConstraintId::new(&dbn, &ClassName::new("Item"), "cc1"),
            "Item",
            vec!["isbn"],
        ));
        Store::new(db, cat)
    }

    #[test]
    fn insert_enforces_object_constraints() {
        let mut s = store();
        assert!(s
            .create(
                "Item",
                vec![
                    ("isbn", "A".into()),
                    ("shopprice", 29.0.into()),
                    ("libprice", 26.0.into())
                ]
            )
            .is_ok());
        let err = s
            .create(
                "Item",
                vec![
                    ("isbn", "B".into()),
                    ("shopprice", 20.0.into()),
                    ("libprice", 26.0.into()),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ObjectConstraintViolated { .. }));
        assert_eq!(s.db().len(), 1);
    }

    #[test]
    fn inherited_constraints_enforced_on_subclass() {
        let mut s = store();
        let err = s
            .create(
                "Proceedings",
                vec![
                    ("isbn", "C".into()),
                    ("shopprice", 10.0.into()),
                    ("libprice", 20.0.into()),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ObjectConstraintViolated { .. }));
    }

    #[test]
    fn conditional_constraint_enforced() {
        let mut s = store();
        let err = s
            .create(
                "Proceedings",
                vec![
                    ("isbn", "D".into()),
                    ("ref?", true.into()),
                    ("rating", 5i64.into()),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ObjectConstraintViolated { .. }));
        assert!(s
            .create(
                "Proceedings",
                vec![
                    ("isbn", "D".into()),
                    ("ref?", true.into()),
                    ("rating", 8i64.into())
                ]
            )
            .is_ok());
    }

    #[test]
    fn key_enforced_via_index_across_hierarchy() {
        let mut s = store();
        s.create("Item", vec![("isbn", "X".into())]).unwrap();
        // A Proceedings (subclass) with the same isbn hits the Item key.
        let err = s
            .create("Proceedings", vec![("isbn", "X".into())])
            .unwrap_err();
        assert!(matches!(err, StoreError::KeyViolation { .. }));
        assert_eq!(s.db().len(), 1);
    }

    #[test]
    fn key_lookup_fast_path() {
        let mut s = store();
        let id = s.create("Item", vec![("isbn", "X".into())]).unwrap();
        assert_eq!(
            s.lookup_key(&ClassName::new("Item"), &[Value::str("X")]),
            Some(id)
        );
        assert_eq!(
            s.lookup_key(&ClassName::new("Proceedings"), &[Value::str("X")]),
            Some(id)
        );
        assert_eq!(
            s.key_attrs(&ClassName::new("Proceedings")).unwrap().len(),
            1
        );
    }

    #[test]
    fn update_enforces_and_reindexes() {
        let mut s = store();
        let a = s
            .create(
                "Item",
                vec![
                    ("isbn", "A".into()),
                    ("shopprice", 29.0.into()),
                    ("libprice", 26.0.into()),
                ],
            )
            .unwrap();
        // Violating update rejected, state unchanged.
        let err = s.update(a, "libprice", Value::real(35.0)).unwrap_err();
        assert!(matches!(err, StoreError::ObjectConstraintViolated { .. }));
        assert_eq!(
            s.db().object(a).unwrap().get(&AttrName::new("libprice")),
            &Value::real(26.0)
        );
        // Key change reindexes.
        s.update(a, "isbn", Value::str("A2")).unwrap();
        assert_eq!(
            s.lookup_key(&ClassName::new("Item"), &[Value::str("A2")]),
            Some(a)
        );
        assert_eq!(
            s.lookup_key(&ClassName::new("Item"), &[Value::str("A")]),
            None
        );
    }

    #[test]
    fn update_key_collision_restores_old_entry() {
        let mut s = store();
        let _a = s.create("Item", vec![("isbn", "A".into())]).unwrap();
        let b = s.create("Item", vec![("isbn", "B".into())]).unwrap();
        let err = s.update(b, "isbn", Value::str("A")).unwrap_err();
        assert!(matches!(err, StoreError::KeyViolation { .. }));
        // b still reachable under its old key.
        assert_eq!(
            s.lookup_key(&ClassName::new("Item"), &[Value::str("B")]),
            Some(b)
        );
    }

    #[test]
    fn validate_object_is_side_effect_free() {
        let s = store();
        let obj = Object::new(ObjectId::new(9, 0), ClassName::new("Item"))
            .with("isbn", "Z")
            .with("shopprice", 10.0)
            .with("libprice", 20.0);
        assert!(s.validate_object(&obj).is_err());
        assert_eq!(s.db().len(), 0);
    }

    #[test]
    fn version_bumps_on_every_mutation_attempt() {
        let mut s = store();
        let v0 = s.version();
        let a = s.create("Item", vec![("isbn", "A".into())]).unwrap();
        assert!(s.version() > v0);
        let v1 = s.version();
        // A *failed* mutation also invalidates (conservative).
        let _ = s.create("Item", vec![("isbn", "A".into())]).unwrap_err();
        assert!(s.version() > v1);
        let v2 = s.version();
        s.update(a, "isbn", Value::str("B")).unwrap();
        assert!(s.version() > v2);
        let v3 = s.version();
        s.remove(a).unwrap();
        assert!(s.version() > v3);
    }

    #[test]
    fn secondary_indexes_lazy_and_maintained() {
        let mut s = store();
        s.create("Item", vec![("isbn", "A".into())]).unwrap();
        s.create(
            "Proceedings",
            vec![("isbn", "B".into()), ("rating", 9i64.into())],
        )
        .unwrap();
        assert_eq!(s.secondary_cache_stats().1, 0, "nothing built eagerly");
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let idx = s.hash_index(&item, &isbn);
        // Extension coverage: the Proceedings instance is in Item's index.
        assert_eq!(idx.postings(&Value::str("B")).len(), 1);
        assert_eq!(s.secondary_cache_stats().1, 1);
        // Same version ⇒ cached instance is reused.
        let again = s.hash_index(&item, &isbn);
        assert!(std::sync::Arc::ptr_eq(&idx, &again));
        // A mutation applies a delta; a reader holding the old Arc keeps
        // an unchanged (copy-on-write) snapshot while the cache serves
        // the updated postings.
        s.create("Item", vec![("isbn", "C".into())]).unwrap();
        let updated = s.hash_index(&item, &isbn);
        assert!(!std::sync::Arc::ptr_eq(&idx, &updated));
        assert_eq!(updated.postings(&Value::str("C")).len(), 1);
        assert_eq!(idx.postings(&Value::str("C")).len(), 0, "snapshot");
        // With no outside reader the delta lands in place — no rebuild.
        drop(idx);
        drop(again);
        drop(updated);
        let (v0, _) = s.secondary_cache_stats();
        s.create("Item", vec![("isbn", "D".into())]).unwrap();
        let after = s.hash_index(&item, &isbn);
        assert_eq!(after.postings(&Value::str("D")).len(), 1);
        assert_eq!(s.secondary_cache_stats().0, v0 + 1, "version stamped");
    }

    #[test]
    fn wholesale_mode_discards_on_every_mutation() {
        let mut s = store();
        s.set_index_maintenance(IndexMaintenance::Wholesale);
        s.create("Item", vec![("isbn", "A".into())]).unwrap();
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let _ = s.hash_index(&item, &isbn);
        let _ = s.attr_stats(&item, &isbn);
        assert_eq!(s.secondary_cache_stats().1, 2);
        // A *failed* mutation also discards (conservative).
        let _ = s.create("Item", vec![("isbn", "A".into())]).unwrap_err();
        assert_eq!(s.secondary_cache_stats().1, 0);
        let rebuilt = s.hash_index(&item, &isbn);
        assert_eq!(rebuilt.postings(&Value::str("A")).len(), 1);
    }

    #[test]
    fn attr_stats_lazy_and_delta_maintained() {
        let mut s = store();
        let a = s
            .create(
                "Item",
                vec![("isbn", "A".into()), ("shopprice", 10.0.into())],
            )
            .unwrap();
        s.create(
            "Proceedings",
            vec![("isbn", "B".into()), ("shopprice", 20.0.into())],
        )
        .unwrap();
        let item = ClassName::new("Item");
        let price = AttrName::new("shopprice");
        let st = s.attr_stats(&item, &price);
        assert_eq!(st.total(), 2, "subclass instance counted");
        assert_eq!(st.distinct(), 2);
        // Update flips a value: stats follow without a rebuild.
        s.update(a, "shopprice", Value::real(20.0)).unwrap();
        let st = s.attr_stats(&item, &price);
        assert_eq!(st.total(), 2);
        assert_eq!(st.distinct(), 1, "10.0 gone, both at 20.0");
        assert_eq!(st.est_eq(&Value::real(20.0)), 2);
        // Remove shrinks the extension.
        s.remove(a).unwrap();
        let st = s.attr_stats(&item, &price);
        assert_eq!(st.total(), 1);
        // A failed mutation leaves stats untouched but stamps the cache.
        let before = s.secondary_cache_stats();
        let _ = s.create("Item", vec![("isbn", "B".into())]).unwrap_err();
        let after = s.secondary_cache_stats();
        assert_eq!(after.0, before.0 + 1);
        assert_eq!(s.attr_stats(&item, &price).total(), 1);
    }

    #[test]
    fn composite_admission_counts_qualifying_sightings() {
        use crate::plan::StatsSource;
        let s = store();
        let class = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        // Default policy admits after 3 qualifying sightings.
        for expect in [false, false, true, true] {
            s.note_composite_candidate(&class, (&isbn, &price), 1, 50);
            assert_eq!(s.composite_admitted(&class, (&isbn, &price)), expect);
        }
        assert_eq!(s.admitted_composites().len(), 1);
        // The gain gate filters non-qualifying sightings entirely.
        let lib = AttrName::new("libprice");
        for _ in 0..5 {
            s.note_composite_candidate(&class, (&isbn, &lib), 40, 50);
        }
        assert!(
            !s.composite_admitted(&class, (&isbn, &lib)),
            "50 < 2.0 * 40: never qualifies"
        );
        assert_eq!(s.admitted_composites().len(), 1);
    }

    #[test]
    fn disabled_policy_never_admits() {
        use crate::plan::StatsSource;
        let mut s = store();
        s.set_composite_policy(CompositePolicy::disabled());
        let class = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        for _ in 0..10 {
            s.note_composite_candidate(&class, (&isbn, &price), 1, 1_000_000);
        }
        assert!(!s.composite_admitted(&class, (&isbn, &price)));
    }

    #[test]
    fn composite_index_built_lazily_and_delta_maintained() {
        let mut s = store();
        let a = s
            .create(
                "Item",
                vec![("isbn", "A".into()), ("shopprice", 10.0.into())],
            )
            .unwrap();
        s.create(
            "Proceedings",
            vec![("isbn", "B".into()), ("shopprice", 10.0.into())],
        )
        .unwrap();
        s.create("Item", vec![("isbn", "C".into())]).unwrap(); // null price
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        // Attr order is normalised: both accessors return the same index.
        let idx = s.composite_index(&item, &price, &isbn);
        let same = s.composite_index(&item, &isbn, &price);
        assert!(Arc::ptr_eq(&idx, &same));
        // isbn < shopprice, so pairs are (isbn, price); the subclass
        // instance is covered, the null-price object is not indexed.
        assert_eq!(
            idx.postings(&Value::str("A"), &Value::real(10.0)),
            &[a],
            "pair postings keyed by ascending attr order"
        );
        assert_eq!(idx.distinct(), 2);
        // Update of either component re-keys the pair.
        s.update(a, "shopprice", Value::real(20.0)).unwrap();
        let idx = s.composite_index(&item, &isbn, &price);
        assert!(idx
            .postings(&Value::str("A"), &Value::real(10.0))
            .is_empty());
        assert_eq!(idx.postings(&Value::str("A"), &Value::real(20.0)), &[a]);
        s.update(a, "isbn", Value::str("A2")).unwrap();
        let idx = s.composite_index(&item, &isbn, &price);
        assert_eq!(idx.postings(&Value::str("A2"), &Value::real(20.0)), &[a]);
        // A null update drops the pair; restoring re-adds it.
        s.update(a, "shopprice", Value::Null).unwrap();
        let idx = s.composite_index(&item, &isbn, &price);
        assert_eq!(idx.distinct(), 1, "only the Proceedings pair remains");
        // Remove takes the pair out.
        s.remove(a).unwrap();
        let idx = s.composite_index(&item, &isbn, &price);
        assert_eq!(idx.distinct(), 1);
    }

    #[test]
    fn wholesale_mode_discards_composites_but_keeps_admission() {
        use crate::plan::StatsSource;
        let mut s = store();
        s.set_index_maintenance(IndexMaintenance::Wholesale);
        s.create(
            "Item",
            vec![("isbn", "A".into()), ("shopprice", 10.0.into())],
        )
        .unwrap();
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        for _ in 0..3 {
            s.note_composite_candidate(&item, (&isbn, &price), 1, 10);
        }
        assert!(s.composite_admitted(&item, (&isbn, &price)));
        let _ = s.composite_index(&item, &isbn, &price);
        let before = s.secondary_cache_stats().1;
        assert!(before > 0);
        s.create("Item", vec![("isbn", "B".into())]).unwrap();
        assert_eq!(s.secondary_cache_stats().1, 0, "composite discarded too");
        // Admission is workload state: it survives the discard and the
        // index rebuilds lazily with the mutation applied.
        assert!(s.composite_admitted(&item, (&isbn, &price)));
        let idx = s.composite_index(&item, &isbn, &price);
        assert_eq!(idx.postings(&Value::str("A"), &Value::real(10.0)).len(), 1);
    }

    #[test]
    fn stale_composite_evicted_and_readmittable() {
        use crate::plan::StatsSource;
        let mut s = store();
        s.set_composite_policy(CompositePolicy {
            admit_after: 2,
            min_gain: 2.0,
            evict_after: 3,
        });
        s.create(
            "Item",
            vec![("isbn", "A".into()), ("shopprice", 10.0.into())],
        )
        .unwrap();
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        let lib = AttrName::new("libprice");
        for _ in 0..2 {
            s.note_composite_candidate(&item, (&isbn, &price), 1, 10);
        }
        assert!(s.composite_admitted(&item, (&isbn, &price)));
        let _ = s.composite_index(&item, &isbn, &price);
        let materialised = s.secondary_cache_stats().1;
        assert!(materialised > 0);
        // Probe *other* pairs past `evict_after` without touching the
        // admitted one: its admission is revoked and the materialised
        // index is dropped, so it stops charging the write path.
        for _ in 0..5 {
            s.note_composite_candidate(&item, (&isbn, &lib), 40, 50);
        }
        assert!(s.admitted_composites().is_empty(), "stale pair evicted");
        assert!(
            s.secondary_cache_stats().1 < materialised,
            "materialised composite dropped with the admission"
        );
        // The sketch count was forgotten too: one qualifying sighting is
        // not enough to come straight back...
        s.note_composite_candidate(&item, (&isbn, &price), 1, 10);
        assert!(!s.composite_admitted(&item, (&isbn, &price)));
        // ...but fresh qualifying sightings re-admit as usual.
        s.note_composite_candidate(&item, (&isbn, &price), 1, 10);
        assert!(s.composite_admitted(&item, (&isbn, &price)));
        assert_eq!(s.admitted_composites().len(), 1);
    }

    #[test]
    fn hot_composite_survives_its_own_probes() {
        use crate::plan::StatsSource;
        let mut s = store();
        s.set_composite_policy(CompositePolicy {
            admit_after: 1,
            min_gain: 0.0,
            evict_after: 2,
        });
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        s.note_composite_candidate(&item, (&isbn, &price), 1, 10);
        // A pair probed every consultation refreshes its last-use stamp
        // before the eviction sweep runs, so it is never evicted by the
        // very queries that keep it hot.
        for _ in 0..10 {
            assert!(s.composite_admitted(&item, (&isbn, &price)));
        }
    }

    #[test]
    fn failed_ops_and_rollbacks_keep_incremental_caches() {
        use crate::txn::{Transaction, TxnOutcome};
        let mut s = store();
        let a = s
            .create(
                "Item",
                vec![("isbn", "A".into()), ("shopprice", 10.0.into())],
            )
            .unwrap();
        let item = ClassName::new("Item");
        let isbn = AttrName::new("isbn");
        let price = AttrName::new("shopprice");
        let idx = s.hash_index(&item, &isbn);
        let st = s.attr_stats(&item, &price);
        let built = s.secondary_cache_stats().1;
        // A failed create bumps the version (conservative invalidation
        // for *readers holding snapshots*) but must not throw away the
        // incremental cache: nothing in the database changed.
        let _ = s.create("Item", vec![("isbn", "A".into())]).unwrap_err();
        assert_eq!(s.secondary_cache_stats().1, built, "entries kept");
        assert!(
            Arc::ptr_eq(&idx, &s.hash_index(&item, &isbn)),
            "failed op reuses the built index, no rebuild"
        );
        assert!(Arc::ptr_eq(&st, &s.attr_stats(&item, &price)));
        // A rolled-back transaction applies ops and then undoes them
        // through the same mutators, so every delta is mirrored by its
        // inverse: the cache stays correct without a rebuild.
        let txn = Transaction::new()
            .update(a, "shopprice", Value::real(99.0))
            .update(a, "isbn", Value::int(7)); // type error ⇒ rollback
        let outcome = txn.commit(&mut s);
        assert!(matches!(outcome, TxnOutcome::RolledBack { .. }));
        assert_eq!(s.secondary_cache_stats().1, built, "entries kept");
        let idx = s.hash_index(&item, &isbn);
        assert_eq!(idx.postings(&Value::str("A")), &[a], "postings correct");
        let st = s.attr_stats(&item, &price);
        assert_eq!(st.est_eq(&Value::real(10.0)), 1, "stats correct");
        assert_eq!(st.est_eq(&Value::real(99.0)), 0, "no ghost of the undo");
    }

    #[test]
    fn hist_staleness_oscillation_cannot_skew_stats() {
        let mut s = store();
        let item = ClassName::new("Item");
        let price = AttrName::new("shopprice");
        let mut ids = Vec::new();
        for i in 0..16 {
            ids.push(
                s.create(
                    "Item",
                    vec![
                        ("isbn", format!("I{i}").as_str().into()),
                        ("shopprice", (i as f64).into()),
                    ],
                )
                .unwrap(),
            );
        }
        let _ = s.attr_stats(&item, &price); // histogram built at 16 rows
                                             // Hover under the 2× drift threshold: churn that never crosses
                                             // it must keep the delta-maintained stats equal to a scratch
                                             // rebuild — the histogram keeps exact counts for its fixed
                                             // boundaries, so no skew accumulates.
        for round in 0..6 {
            let id = ids.pop().unwrap();
            s.remove(id).unwrap();
            ids.push(
                s.create(
                    "Item",
                    vec![
                        ("isbn", format!("R{round}").as_str().into()),
                        ("shopprice", (round as f64 + 0.5).into()),
                    ],
                )
                .unwrap(),
            );
            let st = s.attr_stats(&item, &price);
            assert!(!st.hist_stale(), "hovering churn stays fresh");
            let scratch = AttrStats::rebuild_like(
                &st,
                s.db()
                    .extension(&item)
                    .iter()
                    .map(|&id| s.db().object(id).unwrap().get(&price)),
            );
            for v in s
                .db()
                .objects()
                .map(|o| o.get(&price).clone())
                .collect::<Vec<_>>()
            {
                assert_eq!(st.est_eq(&v), scratch.est_eq(&v), "exact under churn");
            }
        }
        // Now cross the threshold: the next read rebuilds in place and
        // the fresh summary is not stale again (no oscillation).
        for i in 0..40 {
            s.create(
                "Item",
                vec![
                    ("isbn", format!("G{i}").as_str().into()),
                    ("shopprice", (100.0 + i as f64).into()),
                ],
            )
            .unwrap();
        }
        let st = s.attr_stats(&item, &price);
        assert!(!st.hist_stale(), "rebuilt at the new size");
        assert_eq!(st.total(), s.db().extension(&item).len());
        // And shrinking back below half triggers exactly one more
        // rebuild, after which the summary is fresh again.
        let all: Vec<_> = s.db().objects().map(|o| o.id).collect();
        for id in all.iter().skip(8) {
            s.remove(*id).unwrap();
        }
        let st = s.attr_stats(&item, &price);
        assert!(!st.hist_stale());
        assert_eq!(st.total(), s.db().extension(&item).len());
    }

    #[test]
    fn remove_and_check_all() {
        let mut s = store();
        let a = s.create("Item", vec![("isbn", "A".into())]).unwrap();
        assert!(s.check_all().unwrap().is_empty());
        s.remove(a).unwrap();
        assert_eq!(s.db().len(), 0);
        assert_eq!(
            s.lookup_key(&ClassName::new("Item"), &[Value::str("A")]),
            None
        );
    }

    fn shop() -> Database {
        let schema = Schema::new(
            "Shop",
            vec![ClassDef::new("Item")
                .attr("k", Type::Str)
                .attr("v", Type::Range(0, 100))],
        )
        .unwrap();
        Database::new(schema, 1)
    }

    fn durable(dir: &Path, mode: DurabilityMode) -> Store {
        let mut s = Store::open(shop(), Catalog::new(), dir, mode).unwrap();
        s.set_snapshot_every(5);
        s
    }

    fn fault_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("interop-syncfault-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn objects(s: &Store) -> Vec<Object> {
        s.db().objects().cloned().collect()
    }

    fn item(serial: u64, v: i64) -> Object {
        Object::new(ObjectId::new(1, serial), ClassName::new("Item"))
            .with("k", format!("k{serial}").as_str())
            .with("v", v)
    }

    #[test]
    fn sync_fault_rolls_a_plain_transaction_back_and_latches() {
        use crate::txn::{Transaction, TxnOutcome};
        let dir = fault_dir("txn");
        let mut s = durable(&dir, DurabilityMode::Wal);
        s.insert(item(1, 1)).unwrap();
        s.wal_group().unwrap().fail_sync_at(2);
        let before = objects(&s);
        let outcome = Transaction::new()
            .update(ObjectId::new(1, 1), "v", Value::int(2))
            .insert(item(2, 2))
            .commit(&mut s);
        assert!(
            matches!(
                outcome,
                TxnOutcome::RolledBack {
                    failed_at: 2,
                    error: StoreError::Durability(_)
                }
            ),
            "{outcome:?}"
        );
        assert_eq!(objects(&s), before, "memory is back at the pre-txn state");
        assert!(
            matches!(s.insert(item(3, 3)), Err(StoreError::Durability(_))),
            "the latched log refuses the next insert"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Step `i` of the fixed 12-commit script: single-op mutators and
    /// multi-op transactions, each one committed WAL run (one sync).
    fn script_step(s: &mut Store, i: u64) -> Result<(), StoreError> {
        use crate::txn::{Transaction, TxnOutcome};
        let id = |serial| ObjectId::new(1, serial);
        match i {
            0..=3 => s.insert(item(i + 1, i as i64)),
            4 | 8 => s.update(id(i / 4), "v", Value::int(40 + i as i64)),
            7 => s.remove(id(3)).map(drop),
            _ => match Transaction::new()
                .insert(item(10 + i, 1))
                .update(id(2), "v", Value::int(i as i64))
                .commit(s)
            {
                TxnOutcome::Committed { .. } => Ok(()),
                TxnOutcome::RolledBack { error, .. } => Err(error),
            },
        }
    }

    /// Fail the k-th sync for every k the script issues (each commit
    /// is one sync, so k = 13 is the first clean run); the reopened
    /// store must hold a commit-order prefix of the script that
    /// contains every acknowledged commit.
    #[test]
    fn sync_fault_sweep_recovers_an_acknowledged_prefix() {
        const STEPS: u64 = 12;
        let mut oracle = Store::new(shop(), Catalog::new());
        let mut prefixes = vec![objects(&oracle)];
        for i in 0..STEPS {
            script_step(&mut oracle, i).unwrap();
            prefixes.push(objects(&oracle));
        }
        for mode in [DurabilityMode::Wal, DurabilityMode::WalWithSnapshots] {
            for k in 1..=STEPS + 1 {
                let dir = fault_dir(&format!("sweep-{k}"));
                let mut s = durable(&dir, mode);
                s.wal_group().unwrap().fail_sync_at(k);
                let ok: Vec<bool> = (0..STEPS).map(|i| script_step(&mut s, i).is_ok()).collect();
                let acked = ok.iter().take_while(|ok| **ok).count();
                assert_eq!(
                    acked as u64,
                    (k - 1).min(STEPS),
                    "{mode:?}: acked up to the fault"
                );
                assert!(
                    ok[acked..].iter().all(|ok| !ok),
                    "{mode:?}: the latched log fails every later commit"
                );
                drop(s);
                let recovered = objects(&durable(&dir, mode));
                let p = prefixes.iter().position(|state| *state == recovered);
                assert!(
                    p.is_some_and(|p| p >= acked),
                    "{mode:?} k={k}: recovered prefix {p:?}, acked {acked}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
