//! One-object read-modify-write transactions on an `MvccStore`, shared
//! by the two store workloads.

use interop_model::{Object, ObjectId, Value};
use interop_storage::{CommitError, MvccStore, RetryPolicy, RunTxnError, StoreError};

use crate::trace::{Trace, Tracer};

/// A committed and acknowledged write.
#[derive(Clone, Debug)]
pub struct Ack {
    /// Commit timestamp.
    pub ts: u64,
    /// The written object.
    pub id: ObjectId,
    /// The value written.
    pub value: Value,
}

/// Reads `id`, computes `attr`'s new value from it, writes it and
/// commits, retrying conflict losers on a fresh snapshot under the
/// default [`RetryPolicy`]. Returns the acknowledged write, or why it
/// failed.
///
/// Untraced this is `MvccStore::run_txn` with `MvccTxn::commit`. Traced
/// it is the same retry loop written out, with `commit_pipelined`
/// followed at once by `CommitTicket::wait` (the same work as
/// `commit`), so each step gets a span.
pub fn rmw(
    store: &MvccStore,
    tr: &mut Tracer,
    id: ObjectId,
    attr: &'static str,
    f: impl Fn(&Object) -> Value,
) -> Result<Ack, String> {
    let mut write = |t: &mut interop_storage::MvccTxn| -> Result<Value, StoreError> {
        let obj = t
            .get(id)
            .ok_or(StoreError::Model(interop_model::ModelError::UnknownObject(
                id,
            )))?;
        let value = f(&obj);
        t.update(id, attr, value.clone())?;
        Ok(value)
    };
    if !tr.on() {
        return match store.run_txn(RetryPolicy::default(), &mut write) {
            Ok((value, ts)) => Ok(Ack { ts, id, value }),
            Err(RunTxnError::Txn(e)) => Err(format!("transaction body failed: {e}")),
            Err(RunTxnError::Commit(e)) => Err(format!("commit failed: {e}")),
            Err(RunTxnError::Contention { attempts, last }) => {
                Err(format!("gave up after {attempts} attempts: {last}"))
            }
        };
    }
    let max_attempts = RetryPolicy::default().max_attempts.max(1);
    for attempt in 1..=max_attempts {
        tr.add("mvcc.attempts", 1.0);
        let s = tr.begin("mvcc.begin");
        let mut txn = store.begin();
        tr.end(s);
        let s = tr.begin("mvcc.first_write");
        let value = write(&mut txn);
        tr.end(s);
        let value = value.map_err(|e| format!("transaction body failed: {e}"))?;
        let s = tr.begin("mvcc.commit");
        let ticket = txn.commit_pipelined();
        tr.end(s);
        let ticket = match ticket {
            Ok(t) => t,
            Err(CommitError::WriteConflict { .. } | CommitError::ReadConflict { .. })
                if attempt < max_attempts =>
            {
                tr.add("mvcc.retries", 1.0);
                continue;
            }
            Err(e) => return Err(format!("commit failed: {e}")),
        };
        let s = tr.begin("wal.ack_wait");
        let ts = ticket.wait();
        tr.end(s);
        let ts = ts.map_err(|e| format!("commit failed: {e}"))?;
        tr.add("mvcc.commits", 1.0);
        return Ok(Ack { ts, id, value });
    }
    Err(format!("gave up after {max_attempts} attempts"))
}

/// Turns the traced loop's attempt, retry and commit counts into
/// per-commit ratios.
pub fn finish_mvcc(trace: &mut Trace) {
    let commits = trace.counter("mvcc.commits");
    let attempts = trace.counter("mvcc.attempts");
    let retries = trace.counter("mvcc.retries");
    trace.set("mvcc.retries_per_commit", retries / commits.max(1.0));
    trace.set("mvcc.commit_success_ratio", commits / attempts.max(1.0));
}
