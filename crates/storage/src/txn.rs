//! Multi-operation transactions with validate-then-commit semantics.
//!
//! The paper's update-validation use-case (§1): a global transaction
//! manager decomposes a view update into per-database subtransactions;
//! knowing the local constraints, it can *pre-validate* a subtransaction
//! and skip submitting one "which will certainly be rejected by the local
//! transaction manager". [`Transaction::prevalidate`] is that check —
//! object-level, cheap, and side-effect free — while
//! [`Transaction::commit`] is the full submit-with-rollback path.
//!
//! Transactions need no index bookkeeping of their own: every applied
//! operation — and every *undo* operation during a rollback — goes
//! through [`Store::insert`]/[`Store::update`]/[`Store::remove`], so the
//! incremental index/statistics deltas — composite pair postings
//! included — (and, in wholesale mode, the cache discards) happen
//! exactly once per state change. A rolled-back transaction therefore
//! leaves postings, composites and statistics identical to never having
//! run, which `tests/prop_invalidation.rs` asserts under random
//! interleavings.

use interop_model::{AttrName, Object, ObjectId, Value};

use crate::store::{Store, StoreError};
use crate::wal::WalAck;

/// One operation of a transaction.
#[derive(Clone, Debug)]
pub enum TxnOp {
    /// Insert a fully-formed object.
    Insert(Object),
    /// Update one attribute of an existing object.
    Update {
        /// Target object.
        id: ObjectId,
        /// Attribute to set.
        attr: AttrName,
        /// New value.
        value: Value,
    },
    /// Delete an object.
    Delete(ObjectId),
}

/// A batch of operations applied atomically.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    ops: Vec<TxnOp>,
}

/// The result of a commit attempt.
#[derive(Debug)]
pub enum TxnOutcome {
    /// All operations applied.
    Committed {
        /// Number of operations applied.
        applied: usize,
    },
    /// A violation occurred at `failed_at`; every earlier operation was
    /// rolled back.
    RolledBack {
        /// Index of the failing operation.
        failed_at: usize,
        /// The error raised.
        error: StoreError,
    },
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Builds a transaction from pre-recorded operations — the MVCC
    /// commit path ([`crate::mvcc`]) re-submits a session's buffered
    /// ops through the canonical store this way, and the
    /// serializability oracle replays recorded histories with it.
    pub fn from_ops(ops: Vec<TxnOp>) -> Self {
        Transaction { ops }
    }

    /// Appends an insert.
    pub fn insert(mut self, obj: Object) -> Self {
        self.ops.push(TxnOp::Insert(obj));
        self
    }

    /// Appends an update.
    pub fn update(mut self, id: ObjectId, attr: impl Into<AttrName>, value: Value) -> Self {
        self.ops.push(TxnOp::Update {
            id,
            attr: attr.into(),
            value,
        });
        self
    }

    /// Appends a delete.
    pub fn delete(mut self, id: ObjectId) -> Self {
        self.ops.push(TxnOp::Delete(id));
        self
    }

    /// The operations.
    pub fn ops(&self) -> &[TxnOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the transaction is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Cheap, side-effect-free pre-validation against *object-level*
    /// constraints: type checks plus effective object constraints on the
    /// written state. Catches the violations a local DBMS would reject
    /// outright, without simulating extension-level effects (those are
    /// checked at commit). Returns the index of the first doomed
    /// operation.
    pub fn prevalidate(&self, store: &Store) -> Result<(), (usize, StoreError)> {
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                TxnOp::Insert(obj) => {
                    store.validate_object(obj).map_err(|e| (i, e))?;
                }
                TxnOp::Update { id, attr, value } => {
                    let before = store
                        .db()
                        .object_req(*id)
                        .map_err(|e| (i, StoreError::Model(e)))?;
                    let mut after = before.clone();
                    after.set(attr.clone(), value.clone());
                    store.validate_object(&after).map_err(|e| (i, e))?;
                }
                TxnOp::Delete(id) => {
                    store
                        .db()
                        .object_req(*id)
                        .map_err(|e| (i, StoreError::Model(e)))?;
                }
            }
        }
        Ok(())
    }

    /// Applies all operations; on the first violation, rolls back every
    /// previously applied operation and reports the failure.
    ///
    /// On a durable store the whole transaction reaches the write-ahead
    /// log as **one contiguous `Begin … Commit` run, appended only on
    /// success**: per-operation deltas are buffered while the
    /// transaction runs, a rollback discards them (crash recovery then
    /// sees nothing of the transaction), and a failed WAL append or
    /// covering sync rolls the in-memory state back too, so memory
    /// never claims a commit the log has not acknowledged. A due
    /// cadence snapshot runs after the acknowledgement.
    pub fn commit(self, store: &mut Store) -> TxnOutcome {
        let (ack, undo) = match self.commit_inner(store) {
            Ok(applied) => applied,
            Err((failed_at, error)) => return TxnOutcome::RolledBack { failed_at, error },
        };
        let applied = undo.len();
        if let Some(Err(e)) = ack.as_ref().map(WalAck::wait) {
            roll_back(store, undo);
            return TxnOutcome::RolledBack {
                failed_at: applied,
                error: e.into(),
            };
        }
        store.run_due_snapshot();
        TxnOutcome::Committed { applied }
    }

    /// Applies the operations and appends the WAL run without waiting
    /// on it: returns the ack (if anything was logged) and the undo log
    /// of the applied operations, or the failing index and error after
    /// rolling back. The MVCC commit path calls this under its commit
    /// mutex and waits on the ack after releasing it.
    pub(crate) fn commit_inner(
        self,
        store: &mut Store,
    ) -> Result<(Option<WalAck>, Vec<Undo>), (usize, StoreError)> {
        store.wal_txn_begin();
        let mut undo: Vec<Undo> = Vec::new();
        for (i, op) in self.ops.into_iter().enumerate() {
            let result: Result<Undo, StoreError> = match op {
                TxnOp::Insert(obj) => {
                    let id = obj.id;
                    store.insert(obj).map(|()| Undo::Insert(id))
                }
                TxnOp::Update { id, attr, value } => match store.db().object_req(id) {
                    Err(e) => Err(StoreError::Model(e)),
                    Ok(before) => {
                        let old = before.get(&attr).clone();
                        store
                            .update(id, attr.clone(), value)
                            .map(|()| Undo::Update { id, attr, old })
                    }
                },
                TxnOp::Delete(id) => store.remove(id).map(Undo::Delete),
            };
            match result {
                Ok(u) => undo.push(u),
                Err(error) => {
                    roll_back(store, undo);
                    return Err((i, error));
                }
            }
        }
        match store.wal_txn_commit() {
            Ok(ack) => Ok((ack, undo)),
            Err(error) => {
                // The log refused the transaction: roll memory back so
                // the two agree, and report the durability failure.
                let applied = undo.len();
                roll_back(store, undo);
                Err((applied, error))
            }
        }
    }
}

/// A recorded inverse operation, applied newest-first on rollback. A
/// plain enum (not a boxed closure) keeps the commit hot path free of
/// one heap allocation per operation.
pub(crate) enum Undo {
    Insert(ObjectId),
    Update {
        id: ObjectId,
        attr: AttrName,
        old: Value,
    },
    Delete(Object),
}

/// Undoes `undo` newest-first inside a fresh WAL bracket, then discards
/// the bracket: the undo mutations push their inverse deltas into it,
/// so nothing of the transaction reaches the log beyond a best-effort
/// `Rollback` marker.
fn roll_back(store: &mut Store, undo: Vec<Undo>) {
    store.wal_txn_begin();
    for u in undo.into_iter().rev() {
        match u {
            Undo::Insert(id) => {
                store.remove(id).ok();
            }
            Undo::Update { id, attr, old } => {
                store.update(id, attr, old).ok();
            }
            Undo::Delete(obj) => {
                store.insert(obj).ok();
            }
        }
    }
    store.wal_txn_rollback();
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::{Catalog, CmpOp, ConstraintId, Formula, ObjectConstraint};
    use interop_model::{ClassDef, ClassName, Database, DbName, Schema, Type};

    fn store() -> Store {
        let schema = Schema::new(
            "DB1",
            vec![ClassDef::new("Employee")
                .attr("ssn", Type::Str)
                .attr("salary", Type::Real)
                .attr("trav_reimb", Type::Int)],
        )
        .unwrap();
        let dbn = DbName::new("DB1");
        let mut cat = Catalog::new();
        // The paper's intro constraints: trav_reimb in {10,20}, salary < 1500.
        cat.add_object(ObjectConstraint::new(
            ConstraintId::new(&dbn, &ClassName::new("Employee"), "c1"),
            "Employee",
            Formula::isin("trav_reimb", [10i64, 20]),
        ));
        cat.add_object(ObjectConstraint::new(
            ConstraintId::new(&dbn, &ClassName::new("Employee"), "c2"),
            "Employee",
            Formula::cmp("salary", CmpOp::Lt, 1500.0),
        ));
        Store::new(Database::new(schema, 1), cat)
    }

    fn emp(store: &mut Store, ssn: &str, salary: f64, reimb: i64) -> Object {
        let id = store.db().clone().fresh_id();
        let _ = id;
        let mut db = store.db().clone();
        let id = db.fresh_id();
        Object::new(id, ClassName::new("Employee"))
            .with("ssn", ssn)
            .with("salary", salary)
            .with("trav_reimb", reimb)
    }

    #[test]
    fn commit_applies_all() {
        let mut s = store();
        let a = emp(&mut s, "1", 1000.0, 10);
        let txn = Transaction::new().insert(a.clone());
        match txn.commit(&mut s) {
            TxnOutcome::Committed { applied } => assert_eq!(applied, 1),
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(s.db().len(), 1);
    }

    #[test]
    fn violation_rolls_back_everything() {
        let mut s = store();
        let good = emp(&mut s, "1", 1000.0, 10);
        let mut bad = emp(&mut s, "2", 2000.0, 10); // salary >= 1500
        bad.id = interop_model::ObjectId::new(1, 99);
        let txn = Transaction::new().insert(good).insert(bad);
        match txn.commit(&mut s) {
            TxnOutcome::RolledBack { failed_at, error } => {
                assert_eq!(failed_at, 1);
                assert!(matches!(error, StoreError::ObjectConstraintViolated { .. }));
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(s.db().len(), 0, "first insert must be undone");
    }

    #[test]
    fn prevalidate_rejects_doomed_subtransaction() {
        let mut s = store();
        let id = s
            .create(
                "Employee",
                vec![
                    ("ssn", "1".into()),
                    ("salary", 1000.0.into()),
                    ("trav_reimb", 10i64.into()),
                ],
            )
            .unwrap();
        // An update pushing salary past the local business rule is doomed:
        // the paper's point is we can know this *before* submitting.
        let txn = Transaction::new().update(id, "salary", Value::real(1600.0));
        let (at, err) = txn.prevalidate(&s).unwrap_err();
        assert_eq!(at, 0);
        assert!(matches!(err, StoreError::ObjectConstraintViolated { .. }));
        // Pre-validation touched nothing.
        assert_eq!(
            s.db().object(id).unwrap().get(&AttrName::new("salary")),
            &Value::real(1000.0)
        );
    }

    #[test]
    fn prevalidate_accepts_valid_batch() {
        let mut s = store();
        let a = emp(&mut s, "1", 100.0, 10);
        let txn = Transaction::new().insert(a);
        assert!(txn.prevalidate(&s).is_ok());
        assert_eq!(s.db().len(), 0);
    }

    #[test]
    fn update_rollback_restores_value() {
        let mut s = store();
        let id = s
            .create(
                "Employee",
                vec![
                    ("ssn", "1".into()),
                    ("salary", 1000.0.into()),
                    ("trav_reimb", 10i64.into()),
                ],
            )
            .unwrap();
        let txn = Transaction::new()
            .update(id, "salary", Value::real(1200.0))
            .update(id, "trav_reimb", Value::int(15)); // not in {10,20}
        match txn.commit(&mut s) {
            TxnOutcome::RolledBack { failed_at, .. } => assert_eq!(failed_at, 1),
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(
            s.db().object(id).unwrap().get(&AttrName::new("salary")),
            &Value::real(1000.0),
            "first update must be rolled back"
        );
    }

    #[test]
    fn delete_and_restore_on_rollback() {
        let mut s = store();
        let id = s
            .create(
                "Employee",
                vec![
                    ("ssn", "1".into()),
                    ("salary", 1000.0.into()),
                    ("trav_reimb", 10i64.into()),
                ],
            )
            .unwrap();
        let mut bad = Object::new(
            interop_model::ObjectId::new(1, 50),
            ClassName::new("Employee"),
        );
        bad.set("trav_reimb", Value::int(99));
        let txn = Transaction::new().delete(id).insert(bad);
        match txn.commit(&mut s) {
            TxnOutcome::RolledBack { failed_at, .. } => assert_eq!(failed_at, 1),
            other => panic!("expected rollback, got {other:?}"),
        }
        assert!(s.db().object(id).is_some(), "deleted object restored");
    }

    #[test]
    fn txn_interleaved_queries_never_see_stale_postings() {
        let mut s = store();
        let id = s
            .create(
                "Employee",
                vec![
                    ("ssn", "1".into()),
                    ("salary", 1000.0.into()),
                    ("trav_reimb", 10i64.into()),
                ],
            )
            .unwrap();
        let opt = interop_constraint_optimizer(&s);
        let pred = Formula::cmp("trav_reimb", CmpOp::Eq, 10i64);
        let (hits, _) = opt.execute(&s, &pred).unwrap();
        assert_eq!(hits, vec![id], "warm the index");
        // A committed transaction flips the tariff; the same query must
        // not read the stale posting list.
        let txn = Transaction::new().update(id, "trav_reimb", Value::int(20));
        assert!(matches!(txn.commit(&mut s), TxnOutcome::Committed { .. }));
        let (hits, _) = opt.execute(&s, &pred).unwrap();
        assert!(hits.is_empty());
        // A rolled-back transaction restores state; the query must see
        // the restored value (rollback mutations also bump the version).
        let txn = Transaction::new()
            .update(id, "trav_reimb", Value::int(10))
            .update(id, "salary", Value::real(9999.0)); // violates c2
        assert!(matches!(txn.commit(&mut s), TxnOutcome::RolledBack { .. }));
        let (hits, _) = opt.execute(&s, &pred).unwrap();
        assert!(hits.is_empty(), "rollback left tariff at 20");
        let (hits, _) = opt
            .execute(&s, &Formula::cmp("trav_reimb", CmpOp::Eq, 20i64))
            .unwrap();
        assert_eq!(hits, vec![id]);
    }

    fn interop_constraint_optimizer(s: &Store) -> crate::optimize::Optimizer {
        crate::optimize::Optimizer::new(s, "Employee", vec![])
    }

    #[test]
    fn empty_transaction_commits() {
        let mut s = store();
        match Transaction::new().commit(&mut s) {
            TxnOutcome::Committed { applied } => assert_eq!(applied, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(Transaction::new().is_empty());
    }
}
