//! Update propagation from the OODBMS to the IRS (paper Section 4.6).
//!
//! "The point of propagation time can freely be chosen within the
//! following bounds: (1) After each database update the corresponding
//! IRS-index structures are updated. (2) After a query is issued the
//! index structures are updated before the query's evaluation."
//!
//! [`PropagationStrategy::Eager`] is bound (1); [`PropagationStrategy::Deferred`]
//! batches updates in an operation log and flushes on demand; queries
//! force a flush ("If, however, an information-need query is issued with
//! update propagation pending, propagation is enforced"). The log
//! performs the paper's cancellation optimisation: "with some operation
//! sequences, operations cancel out each other's effect. For instance,
//! consider the deletion of a text object that has just been generated."

//! With a [`Journal`] attached ([`Propagator::with_journal`]), the log is
//! additionally **durable**: operations are fsynced to an append-only,
//! checksummed file before they enter the in-memory log, replayed on
//! reopen, and compacted with the same cancellation optimisation. Under
//! the eager strategy the journal doubles as a parking lot: an update the
//! IRS transiently rejects is kept pending (journaled + folded) instead
//! of being lost, and applies at the next flush.
//!
//! Recording is three phases — journal, apply, settle — so that a
//! caller holding a lock around the collection (the task executor and
//! the system write lock) takes it for the apply alone: both journal
//! `sync_data`s of a batch happen outside it.

use std::path::Path;

use oodb::{MethodCtx, Oid};

use crate::collection::Collection;
use crate::error::Result;
use crate::journal::Journal;

/// When updates reach the IRS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationStrategy {
    /// Apply each update to the IRS immediately.
    Eager,
    /// Record updates; apply on explicit [`Propagator::flush`] or forced
    /// by [`Propagator::before_query`].
    Deferred,
}

/// A pending update operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// The object was inserted (and selected by the collection's
    /// specification).
    Insert(Oid),
    /// The object's text changed.
    Modify(Oid),
    /// The object was deleted.
    Delete(Oid),
}

impl PendingOp {
    /// The object the operation concerns.
    pub fn oid(&self) -> Oid {
        match self {
            PendingOp::Insert(o) | PendingOp::Modify(o) | PendingOp::Delete(o) => *o,
        }
    }
}

/// Propagation statistics (experiment E7's metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Operations recorded by the application.
    pub recorded: u64,
    /// Operations actually applied to the IRS.
    pub applied: u64,
    /// Operations eliminated by cancellation before reaching the IRS.
    pub cancelled: u64,
    /// Flushes forced by queries.
    pub forced_flushes: u64,
    /// Operations recovered from the journal at open.
    pub replayed: u64,
    /// Eager operations parked as pending after a transient IRS failure.
    pub parked: u64,
}

/// The update propagator for one collection.
#[derive(Debug)]
pub struct Propagator {
    strategy: PropagationStrategy,
    /// Net pending state per object, in arrival order of first touch.
    log: Vec<PendingOp>,
    stats: PropagationStats,
    /// Optional durable backing of the log.
    journal: Option<Journal>,
    /// The journal holds frames from [`Propagator::journal_batch`] that
    /// the pending log does not — ops applied since, or never applied —
    /// until [`Propagator::settle`] rewrites it to the log.
    unsettled: bool,
}

impl Propagator {
    /// Create a propagator with the given strategy.
    pub fn new(strategy: PropagationStrategy) -> Self {
        Propagator {
            strategy,
            log: Vec::new(),
            stats: PropagationStats::default(),
            journal: None,
            unsettled: false,
        }
    }

    /// Create a propagator whose operation log is durably journaled at
    /// `path`. Surviving journal frames from a previous run (or crash)
    /// are replayed into the pending log — flush them into the collection
    /// to bring the IRS back in sync.
    pub fn with_journal(strategy: PropagationStrategy, path: &Path) -> Result<Self> {
        let (journal, replayed) = Journal::open(path)?;
        let mut prop = Propagator::new(strategy);
        for &op in &replayed {
            prop.fold(op);
        }
        // Replay folding is recovery, not application work: report only
        // the replay count.
        prop.stats = PropagationStats {
            replayed: replayed.len() as u64,
            ..PropagationStats::default()
        };
        prop.journal = Some(journal);
        Ok(prop)
    }

    /// The journal backing this propagator, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PropagationStrategy {
        self.strategy
    }

    /// Statistics so far.
    pub fn stats(&self) -> PropagationStats {
        self.stats
    }

    /// Pending (not yet applied) operations.
    pub fn pending(&self) -> &[PendingOp] {
        &self.log
    }

    /// Record an update: [`Propagator::record_batch`] of one.
    pub fn record(
        &mut self,
        ctx: &MethodCtx<'_>,
        coll: &mut Collection,
        op: PendingOp,
    ) -> Result<()> {
        self.record_batch(ctx, coll, &[op])
    }

    /// Record several updates at once: the three phases
    /// [`Propagator::journal_batch`], [`Propagator::apply_batch`] and
    /// [`Propagator::settle`] back to back. Under
    /// [`PropagationStrategy::Eager`] the batch is applied to `coll` in
    /// order; under deferred it enters the log with cancellation folding.
    /// With a journal attached the whole batch is made durable with one
    /// `sync_data` *before* anything else happens, and an eager batch
    /// costs exactly one more (the clear) however many operations it
    /// holds. A caller that can release its lock between phases (the
    /// task executor) calls them itself.
    pub fn record_batch(
        &mut self,
        ctx: &MethodCtx<'_>,
        coll: &mut Collection,
        ops: &[PendingOp],
    ) -> Result<()> {
        self.journal_batch(ops)?;
        let applied = self.apply_batch(ctx, coll, ops);
        let settled = self.settle();
        applied.and(settled)
    }

    /// Phase one: make `ops` durable in the journal with one `sync_data`
    /// (no-op without a journal or with no ops). Touches only this
    /// propagator's own file, so it needs no lock on the system; the
    /// ops must then reach [`Propagator::apply_batch`], and
    /// [`Propagator::settle`] must follow either way.
    pub fn journal_batch(&mut self, ops: &[PendingOp]) -> Result<()> {
        if let Some(j) = &mut self.journal {
            if !ops.is_empty() {
                j.append_batch(ops)?;
                self.unsettled = true;
            }
        }
        Ok(())
    }

    /// Phase two, under the system write lock: eager applies `ops` to
    /// `coll` in order; deferred folds them into the log. With a journal,
    /// an eager op the IRS transiently rejects is parked as pending
    /// (`stats.parked`) instead of being lost, and every op after it —
    /// like every op arriving while earlier ones are parked — is parked
    /// too rather than overtaking it. A permanent failure stops the batch
    /// and surfaces: that op can never apply, and the ones after it are
    /// not attempted.
    pub fn apply_batch(
        &mut self,
        ctx: &MethodCtx<'_>,
        coll: &mut Collection,
        ops: &[PendingOp],
    ) -> Result<()> {
        self.stats.recorded += ops.len() as u64;
        match self.strategy {
            PropagationStrategy::Eager => {
                for &op in ops {
                    if !self.log.is_empty() {
                        self.fold(op);
                        self.stats.parked += 1;
                        continue;
                    }
                    match self.apply_one(ctx, coll, op) {
                        Ok(()) => {}
                        Err(e) if e.is_transient() && self.journal.is_some() => {
                            self.fold(op);
                            self.stats.parked += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            PropagationStrategy::Deferred => {
                for &op in ops {
                    self.fold(op);
                }
                // Every journaled op is now in the log.
                self.unsettled = false;
            }
        }
        Ok(())
    }

    /// Phase three, after the system write lock is released: bring the
    /// journal back to exactly the pending log — cleared once every
    /// journaled op applied, rewritten to the parked ops otherwise — and
    /// compact it under churn. Also settles a batch whose
    /// [`Propagator::apply_batch`] never ran or failed.
    pub fn settle(&mut self) -> Result<()> {
        if self.unsettled {
            if self.log.is_empty() {
                self.journal_clear()?;
            } else {
                self.journal_rewrite()?;
            }
            self.unsettled = false;
        }
        self.maybe_compact()
    }

    fn journal_clear(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(j) => j.clear(),
            None => Ok(()),
        }
    }

    /// Rewrite the journal to exactly the current pending log.
    fn journal_rewrite(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(j) => j.rewrite(&self.log),
            None => Ok(()),
        }
    }

    /// Apply the cancellation optimisation to the journal file itself:
    /// once it holds at least [`Journal::COMPACT_MIN`] frames and at
    /// least twice the folded log, rewrite it to the folded operations.
    fn maybe_compact(&mut self) -> Result<()> {
        let compact = self.journal.as_ref().is_some_and(|j| {
            j.frames() >= Journal::COMPACT_MIN && j.frames() >= 2 * self.log.len() as u64
        });
        if compact {
            self.journal_rewrite()?;
        }
        Ok(())
    }

    /// Fold `op` into the log, cancelling inverse pairs:
    ///
    /// * `Insert` then `Delete` of the same object → both vanish;
    /// * `Insert` then `Modify` → stays a single `Insert` (the insert
    ///   will pick up the newest text anyway);
    /// * `Modify` then `Modify` → one `Modify`;
    /// * `Modify` then `Delete` → one `Delete`.
    fn fold(&mut self, op: PendingOp) {
        let oid = op.oid();
        let existing = self.log.iter().position(|p| p.oid() == oid);
        match (existing.map(|i| self.log[i]), op) {
            (None, _) => self.log.push(op),
            (Some(PendingOp::Insert(_)), PendingOp::Delete(_)) => {
                let i = existing.expect("position found");
                self.log.remove(i);
                // Both the pending insert and this delete are no-ops.
                self.stats.cancelled += 2;
            }
            (Some(PendingOp::Insert(_)), PendingOp::Modify(_)) => {
                // Keep the Insert; the modify is absorbed.
                self.stats.cancelled += 1;
            }
            (Some(PendingOp::Modify(_)), PendingOp::Modify(_)) => {
                self.stats.cancelled += 1;
            }
            (Some(PendingOp::Modify(_)), PendingOp::Delete(_)) => {
                let i = existing.expect("position found");
                self.log[i] = op;
                self.stats.cancelled += 1;
            }
            (Some(prev), next) => {
                // Remaining combinations (Delete then anything, Insert
                // then Insert) indicate application misuse; keep both
                // and let the collection surface the error at flush.
                debug_assert!(
                    !matches!((prev, next), (PendingOp::Delete(_), PendingOp::Insert(_))),
                    "OIDs are never reused; delete-then-insert cannot occur"
                );
                self.log.push(next);
            }
        }
    }

    fn apply_one(
        &mut self,
        ctx: &MethodCtx<'_>,
        coll: &mut Collection,
        op: PendingOp,
    ) -> Result<()> {
        let result = match op {
            PendingOp::Insert(oid) => coll.on_insert(ctx, oid),
            PendingOp::Modify(oid) => coll.on_modify(ctx, oid),
            PendingOp::Delete(oid) => coll.on_delete(oid),
        };
        if result.is_ok() {
            self.stats.applied += 1;
        }
        result
    }

    /// Apply every pending operation ("a good strategy might be to detect
    /// low load periods"). Returns the number applied.
    ///
    /// On a mid-flush error the *unapplied* operations stay pending (and
    /// journaled), so a transient IRS failure loses nothing: the next
    /// flush picks up exactly where this one stopped.
    pub fn flush(&mut self, ctx: &MethodCtx<'_>, coll: &mut Collection) -> Result<usize> {
        let mut done = 0usize;
        while done < self.log.len() {
            let op = self.log[done];
            match self.apply_one(ctx, coll, op) {
                Ok(()) => done += 1,
                Err(e) => {
                    self.log.drain(..done);
                    self.journal_rewrite()?;
                    return Err(e);
                }
            }
        }
        self.log.clear();
        self.journal_clear()?;
        Ok(done)
    }

    /// Called before every information-need query: forces pending
    /// propagation so queries never see a stale index.
    pub fn before_query(&mut self, ctx: &MethodCtx<'_>, coll: &mut Collection) -> Result<()> {
        if !self.log.is_empty() {
            self.stats.forced_flushes += 1;
            self.flush(ctx, coll)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionSetup;
    use oodb::{Database, Value};
    use sgml::{load_document, parse_document};

    fn setup() -> (Database, Collection, Vec<Oid>) {
        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        let tree = parse_document(
            "<MMFDOC><PARA>telnet paragraph</PARA><PARA>www paragraph</PARA></MMFDOC>",
        )
        .unwrap();
        let mut txn = db.begin();
        let loaded = load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap();
        db.commit(txn).unwrap();
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let paras: Vec<Oid> = loaded.elements[1..].iter().map(|(_, o)| *o).collect();
        (db, coll, paras)
    }

    /// Create a new PARA object (not yet in the collection).
    fn new_para(db: &mut Database, text: &str) -> Oid {
        let class = db.schema().class_id("PARA").unwrap();
        let mut txn = db.begin();
        let oid = db.create_object(&mut txn, class).unwrap();
        db.set_attr(&mut txn, oid, "text", Value::from(text))
            .unwrap();
        db.commit(txn).unwrap();
        oid
    }

    #[test]
    fn eager_applies_immediately() {
        let (mut db, mut coll, _) = setup();
        let fresh = new_para(&mut db, "gopher text");
        let mut prop = Propagator::new(PropagationStrategy::Eager);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Insert(fresh))
            .unwrap();
        assert_eq!(coll.get_irs_result("gopher").unwrap().len(), 1);
        assert_eq!(prop.stats().applied, 1);
        assert!(prop.pending().is_empty());
    }

    #[test]
    fn deferred_applies_only_on_flush() {
        let (mut db, mut coll, _) = setup();
        let fresh = new_para(&mut db, "gopher text");
        let mut prop = Propagator::new(PropagationStrategy::Deferred);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Insert(fresh))
            .unwrap();
        assert!(
            coll.get_irs_result("gopher").unwrap().is_empty(),
            "not yet visible"
        );
        assert_eq!(prop.pending().len(), 1);
        let applied = prop.flush(&ctx, &mut coll).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(coll.get_irs_result("gopher").unwrap().len(), 1);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let (mut db, mut coll, _) = setup();
        let fresh = new_para(&mut db, "ephemeral");
        let mut prop = Propagator::new(PropagationStrategy::Deferred);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Insert(fresh))
            .unwrap();
        prop.record(&ctx, &mut coll, PendingOp::Delete(fresh))
            .unwrap();
        assert!(prop.pending().is_empty(), "pair cancelled");
        assert_eq!(prop.stats().cancelled, 2);
        let applied = prop.flush(&ctx, &mut coll).unwrap();
        assert_eq!(applied, 0, "nothing reaches the IRS");
    }

    #[test]
    fn modify_sequences_fold() {
        let (db, mut coll, paras) = setup();
        let mut prop = Propagator::new(PropagationStrategy::Deferred);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Modify(paras[0]))
            .unwrap();
        prop.record(&ctx, &mut coll, PendingOp::Modify(paras[0]))
            .unwrap();
        prop.record(&ctx, &mut coll, PendingOp::Modify(paras[0]))
            .unwrap();
        assert_eq!(prop.pending().len(), 1);
        assert_eq!(prop.stats().cancelled, 2);
        // Modify then delete becomes a single delete.
        prop.record(&ctx, &mut coll, PendingOp::Delete(paras[0]))
            .unwrap();
        assert_eq!(prop.pending(), &[PendingOp::Delete(paras[0])]);
    }

    #[test]
    fn insert_then_modify_absorbed() {
        let (mut db, mut coll, _) = setup();
        let fresh = new_para(&mut db, "first text");
        let mut prop = Propagator::new(PropagationStrategy::Deferred);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Insert(fresh))
            .unwrap();
        prop.record(&ctx, &mut coll, PendingOp::Modify(fresh))
            .unwrap();
        assert_eq!(prop.pending(), &[PendingOp::Insert(fresh)]);
        assert_eq!(prop.stats().cancelled, 1);
    }

    #[test]
    fn queries_force_pending_propagation() {
        let (mut db, mut coll, _) = setup();
        let fresh = new_para(&mut db, "gopher text");
        let mut prop = Propagator::new(PropagationStrategy::Deferred);
        let ctx = db.method_ctx();
        prop.record(&ctx, &mut coll, PendingOp::Insert(fresh))
            .unwrap();
        // The application calls before_query prior to evaluating.
        prop.before_query(&ctx, &mut coll).unwrap();
        assert_eq!(coll.get_irs_result("gopher").unwrap().len(), 1);
        assert_eq!(prop.stats().forced_flushes, 1);
        // No pending work → no forced flush.
        prop.before_query(&ctx, &mut coll).unwrap();
        assert_eq!(prop.stats().forced_flushes, 1);
    }

    fn journal_tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("coupling-propagate-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_batch_folds_like_sequential_records() {
        let (mut db, mut coll, paras) = setup();
        let fresh = new_para(&mut db, "ephemeral");
        let ops = vec![
            PendingOp::Modify(paras[0]),
            PendingOp::Modify(paras[0]),
            PendingOp::Insert(fresh),
            PendingOp::Delete(fresh),
        ];
        let ctx = db.method_ctx();
        let mut batched = Propagator::new(PropagationStrategy::Deferred);
        batched.record_batch(&ctx, &mut coll, &ops).unwrap();
        let mut sequential = Propagator::new(PropagationStrategy::Deferred);
        for &op in &ops {
            sequential.record(&ctx, &mut coll, op).unwrap();
        }
        assert_eq!(batched.pending(), sequential.pending());
        assert_eq!(batched.pending(), &[PendingOp::Modify(paras[0])]);
        assert_eq!(batched.stats().recorded, 4);
        assert_eq!(batched.stats().cancelled, sequential.stats().cancelled);
    }

    #[test]
    fn record_batch_journals_with_one_sync() {
        let (db, mut coll, paras) = setup();
        let jpath = journal_tmp("batch_prop.journal");
        let mut prop = Propagator::with_journal(PropagationStrategy::Deferred, &jpath).unwrap();
        let ctx = db.method_ctx();
        let ops: Vec<PendingOp> = paras.iter().map(|&o| PendingOp::Modify(o)).collect();
        prop.record_batch(&ctx, &mut coll, &ops).unwrap();
        let j = prop.journal().unwrap();
        assert_eq!(j.frames(), ops.len() as u64);
        assert_eq!(j.syncs(), 1, "whole batch journaled under one sync_data");
        drop(prop);
        // The batch is durable: a reopen replays every operation (folded).
        let recovered = Propagator::with_journal(PropagationStrategy::Deferred, &jpath).unwrap();
        assert_eq!(recovered.stats().replayed, ops.len() as u64);

        // Eager: one sync journals the batch, one clears it once applied
        // — two, however many operations the batch holds.
        let jpath = journal_tmp("batch_prop_eager.journal");
        let mut prop = Propagator::with_journal(PropagationStrategy::Eager, &jpath).unwrap();
        let ops: Vec<PendingOp> = (0..3)
            .flat_map(|_| paras.iter().map(|&o| PendingOp::Modify(o)))
            .collect();
        prop.record_batch(&ctx, &mut coll, &ops).unwrap();
        assert_eq!(prop.stats().applied, ops.len() as u64);
        assert!(prop.pending().is_empty());
        let j = prop.journal().unwrap();
        assert_eq!(j.syncs(), 2, "journal + clear for a batch of {}", ops.len());
        assert_eq!(j.frames(), 0);
    }

    /// The enclosing MMFDOC of the setup's paragraphs: not represented
    /// in the PARA collection, so a `Modify` of it applies as a no-op
    /// without calling the IRS.
    fn unrepresented(db: &Database, para: Oid) -> Oid {
        db.get_attr(para, "parent").unwrap().as_oid().unwrap()
    }

    #[test]
    fn eager_batch_failing_mid_way_leaves_the_journal_equal_to_the_pending_log() {
        let (db, mut coll, paras) = setup();
        let ctx = db.method_ctx();
        // Permanent: the IRS refuses writes. The first op applies without
        // touching it; the second fails; the third is never attempted.
        let jpath = journal_tmp("eager_permanent.journal");
        let mut prop = Propagator::with_journal(PropagationStrategy::Eager, &jpath).unwrap();
        coll.set_read_only(true);
        let ops = [
            PendingOp::Modify(unrepresented(&db, paras[0])),
            PendingOp::Modify(paras[0]),
            PendingOp::Modify(paras[1]),
        ];
        let err = prop.record_batch(&ctx, &mut coll, &ops).unwrap_err();
        assert!(!err.is_transient(), "{err}");
        assert_eq!(prop.stats().applied, 1);
        assert!(prop.pending().is_empty(), "nothing parked");
        assert_eq!(prop.journal().unwrap().frames(), 0);
        drop(prop);
        let reopened = Propagator::with_journal(PropagationStrategy::Eager, &jpath).unwrap();
        assert!(
            reopened.pending().is_empty(),
            "the journal is the pending log"
        );
        coll.set_read_only(false);

        // Transient: the IRS is down. The failing op and every op after
        // it are parked, and the journal is rewritten to exactly them.
        let jpath = journal_tmp("eager_transient.journal");
        let mut prop = Propagator::with_journal(PropagationStrategy::Eager, &jpath).unwrap();
        let plan = std::sync::Arc::new(irs::FaultPlan::new(7));
        plan.set_down(true);
        coll.inject_faults(Some(plan));
        prop.record_batch(&ctx, &mut coll, &ops).unwrap();
        let parked = [PendingOp::Modify(paras[0]), PendingOp::Modify(paras[1])];
        assert_eq!(prop.pending(), &parked);
        assert_eq!(prop.stats().parked, 2);
        drop(prop);
        let reopened = Propagator::with_journal(PropagationStrategy::Eager, &jpath).unwrap();
        assert_eq!(
            reopened.pending(),
            &parked,
            "the journal is the pending log"
        );
    }

    #[test]
    fn eager_beats_deferred_in_applied_ops_for_churn() {
        // The quantitative claim behind E7: under churn (insert+delete of
        // the same objects), deferred-with-cancellation applies strictly
        // fewer IRS operations.
        let (mut db, mut coll_eager, _) = setup();
        let mut coll_deferred = Collection::new("d", CollectionSetup::default());
        coll_deferred
            .index_objects(&db, "ACCESS p FROM p IN PARA")
            .unwrap();

        let mut eager = Propagator::new(PropagationStrategy::Eager);
        let mut deferred = Propagator::new(PropagationStrategy::Deferred);
        for i in 0..10 {
            let oid = new_para(&mut db, &format!("transient text {i}"));
            let ctx = db.method_ctx();
            eager
                .record(&ctx, &mut coll_eager, PendingOp::Insert(oid))
                .unwrap();
            eager
                .record(&ctx, &mut coll_eager, PendingOp::Delete(oid))
                .unwrap();
            deferred
                .record(&ctx, &mut coll_deferred, PendingOp::Insert(oid))
                .unwrap();
            deferred
                .record(&ctx, &mut coll_deferred, PendingOp::Delete(oid))
                .unwrap();
        }
        let ctx = db.method_ctx();
        deferred.flush(&ctx, &mut coll_deferred).unwrap();
        assert_eq!(eager.stats().applied, 20);
        assert_eq!(deferred.stats().applied, 0);
        assert_eq!(deferred.stats().cancelled, 20);
    }
}
