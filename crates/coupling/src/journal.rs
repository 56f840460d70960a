//! Durable journal for deferred update propagation (paper Section 4.6).
//!
//! The paper's deferred propagation batches update operations in an
//! in-memory log — which means a crash between the database commit and
//! the flush silently loses IRS updates, and the eager/deferred
//! trade-off measured in E7 would be meaningless in a durable system.
//! [`Journal`] fixes that: every recorded operation is appended to a
//! [`storage::RecordLog`] — checksummed, fsynced — *before* it enters the
//! in-memory log, and [`Journal::open`] replays the surviving frames so
//! pending updates outlive a crash. The frame format and the torn-tail
//! policy are the record log's; each payload is one operation, `tag u8
//! ++ oid u64` (little-endian).
//!
//! **Group commit:** every append is durable when it returns;
//! [`Journal::append_batch`] makes a whole batch durable with one
//! `sync_data`, which is how the propagator journals a task batch.
//!
//! **Cancellation at append time:** the paper's operation-cancellation
//! optimisation is applied to the journal too. When the file holds at
//! least twice as many frames as the folded in-memory log (and at least
//! [`Journal::COMPACT_MIN`] frames), the journal is atomically rewritten
//! to exactly the folded operations, so insert+delete churn cannot grow
//! the file without bound.

use std::path::Path;

use oodb::Oid;
use storage::codec::{invalid_data, Reader};
use storage::RecordLog;

use crate::error::{CouplingError, Result};
use crate::propagate::PendingOp;

/// Payload length of one encoded operation.
const OP_LEN: usize = 9;

fn encode_op(op: PendingOp) -> [u8; OP_LEN] {
    let (tag, oid) = match op {
        PendingOp::Insert(o) => (1u8, o),
        PendingOp::Modify(o) => (2u8, o),
        PendingOp::Delete(o) => (3u8, o),
    };
    let mut payload = [0u8; OP_LEN];
    payload[0] = tag;
    payload[1..].copy_from_slice(&oid.0.to_le_bytes());
    payload
}

fn decode_op(payload: &[u8]) -> std::io::Result<PendingOp> {
    let mut r = Reader::new(payload);
    let tag = r.u8("op tag")?;
    let oid = Oid(r.u64("op oid")?);
    r.finish()?;
    match tag {
        1 => Ok(PendingOp::Insert(oid)),
        2 => Ok(PendingOp::Modify(oid)),
        3 => Ok(PendingOp::Delete(oid)),
        other => Err(invalid_data(format!("unknown op tag {other}"))),
    }
}

/// An append-only, checksummed, fsynced file of pending propagation
/// operations. Owned by [`crate::Propagator`]; see the module docs for
/// format and durability guarantees.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    rewrites: u64,
}

impl Journal {
    /// Minimum frame count before compaction is considered.
    pub const COMPACT_MIN: u64 = 8;

    /// Open (or create) the journal at `path`, replaying surviving
    /// frames. A torn or corrupt tail is truncated away; the returned
    /// operations are the journal's last consistent state in append
    /// order. A checksummed frame that holds no operation is a corrupt
    /// journal, never skipped.
    pub fn open(path: &Path) -> Result<(Journal, Vec<PendingOp>)> {
        let (log, payloads) = RecordLog::open(path, OP_LEN)?;
        let ops = payloads
            .iter()
            .map(|p| decode_op(p))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|_| {
                CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                    "journal {}: a checksummed frame holds no propagation operation",
                    path.display()
                )))
            })?;
        Ok((Journal { log, rewrites: 0 }, ops))
    }

    /// `sync_data` calls issued since open — the metric group commit
    /// exists to shrink.
    pub fn syncs(&self) -> u64 {
        self.log.syncs()
    }

    /// Frames currently in the file.
    pub fn frames(&self) -> u64 {
        self.log.records()
    }

    /// Compaction rewrites performed since open.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }

    /// Durably append one operation: written and fsynced before this
    /// returns.
    pub fn append(&mut self, op: PendingOp) -> Result<()> {
        self.append_batch(&[op])
    }

    /// Durably append several operations with **one** `sync_data`: all
    /// frames are written in a single `write_all` and the batch is made
    /// durable together — the group-commit path for a task batch.
    pub fn append_batch(&mut self, ops: &[PendingOp]) -> Result<()> {
        let payloads: Vec<[u8; OP_LEN]> = ops.iter().map(|&op| encode_op(op)).collect();
        Ok(self.log.append(&payloads)?)
    }

    /// Atomically replace the journal's contents with exactly `ops`
    /// (compaction: the folded log after cancellation), so a crash
    /// leaves either the old or the new journal.
    pub fn rewrite(&mut self, ops: &[PendingOp]) -> Result<()> {
        let payloads: Vec<[u8; OP_LEN]> = ops.iter().map(|&op| encode_op(op)).collect();
        self.log.rewrite(&payloads)?;
        self.rewrites += 1;
        Ok(())
    }

    /// Empty the journal (after a fully successful flush): one
    /// `sync_data`.
    pub fn clear(&mut self) -> Result<()> {
        Ok(self.log.clear()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("coupling-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The bytes of a hex literal.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Each operation is exactly these 9 payload bytes, and the bytes
    /// decode back to the operation.
    #[test]
    fn op_bytes_are_pinned() {
        let oid = Oid(0x0102_0304_0506_0708);
        for (op, hex) in [
            (PendingOp::Insert(oid), "010807060504030201"),
            (PendingOp::Modify(oid), "020807060504030201"),
            (PendingOp::Delete(oid), "030807060504030201"),
        ] {
            assert_eq!(encode_op(op).to_vec(), unhex(hex));
            assert_eq!(decode_op(&unhex(hex)).expect("decodes"), op);
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("round_trip.journal");
        let ops = vec![
            PendingOp::Insert(Oid(1)),
            PendingOp::Modify(Oid(2)),
            PendingOp::Delete(Oid(3)),
        ];
        {
            let (mut j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for &op in &ops {
                j.append(op).unwrap();
            }
            assert_eq!(j.frames(), 3);
        }
        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(j.frames(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_consistent_state() {
        let path = tmp("torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(PendingOp::Insert(Oid(1))).unwrap();
            j.append(PendingOp::Modify(Oid(2))).unwrap();
        }
        // Cut into the second frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
        assert_eq!(j.frames(), 1);
        // The file itself was truncated to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 17);
    }

    #[test]
    fn bit_flip_inside_a_frame_stops_replay_there() {
        let path = tmp("bitflip.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(PendingOp::Insert(Oid(1))).unwrap();
            j.append(PendingOp::Delete(Oid(2))).unwrap();
        }
        // Flip a payload byte of the second frame (offset 17 + 5).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
    }

    #[test]
    fn checksummed_frame_without_an_operation_is_corrupt() {
        let path = tmp("no_op.journal");
        let (mut log, _) = RecordLog::open(&path, OP_LEN).unwrap();
        log.append(&[[9u8; OP_LEN]]).unwrap();
        drop(log);
        let err = Journal::open(&path).unwrap_err();
        assert!(
            matches!(err, CouplingError::Irs(irs::IrsError::CorruptIndex(_))),
            "{err}"
        );
    }

    #[test]
    fn rewrite_compacts_and_appends_continue() {
        let path = tmp("rewrite.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        for i in 0..10 {
            j.append(PendingOp::Insert(Oid(i))).unwrap();
        }
        j.rewrite(&[PendingOp::Insert(Oid(99))]).unwrap();
        assert_eq!(j.frames(), 1);
        assert_eq!(j.rewrites(), 1);
        // Appends after a rewrite land in the new file.
        j.append(PendingOp::Delete(Oid(99))).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![PendingOp::Insert(Oid(99)), PendingOp::Delete(Oid(99))]
        );
    }

    #[test]
    fn clear_empties_the_file() {
        let path = tmp("clear.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(PendingOp::Insert(Oid(1))).unwrap();
        j.clear().unwrap();
        assert_eq!(j.frames(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn immediate_policy_syncs_every_frame() {
        let path = tmp("sync_immediate.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        for i in 0..3 {
            j.append(PendingOp::Insert(Oid(i))).unwrap();
        }
        assert_eq!(j.syncs(), 3, "one sync_data per frame by default");
    }

    #[test]
    fn append_batch_is_one_sync_and_replays_in_order() {
        let path = tmp("batch.journal");
        let ops = vec![
            PendingOp::Insert(Oid(1)),
            PendingOp::Modify(Oid(2)),
            PendingOp::Delete(Oid(3)),
            PendingOp::Modify(Oid(4)),
        ];
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_batch(&ops).unwrap();
            assert_eq!(j.syncs(), 1, "whole batch rides one sync_data");
            assert_eq!(j.frames(), 4);
            j.append_batch(&[]).unwrap();
            assert_eq!(j.syncs(), 1, "empty batch is free");
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn torn_batch_tail_recovers_prefix() {
        let path = tmp("batch_torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_batch(&[PendingOp::Insert(Oid(1)), PendingOp::Insert(Oid(2))])
                .unwrap();
        }
        // Tear into the second frame of the batch, as a crash between
        // write and sync could.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
    }

    #[test]
    fn empty_or_missing_journal_opens_clean() {
        let path = tmp("fresh.journal");
        let (j, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(j.frames(), 0);
        assert!(path.exists(), "open creates the file");
    }
}
