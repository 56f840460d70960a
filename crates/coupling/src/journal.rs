//! Durable journal for deferred update propagation (paper Section 4.6).
//!
//! The paper's deferred propagation batches update operations in an
//! in-memory log — which means a crash between the database commit and
//! the flush silently loses IRS updates, and the eager/deferred
//! trade-off measured in E7 would be meaningless in a durable system.
//! [`Journal`] fixes that: every recorded operation is appended to an
//! append-only, checksummed, fsynced file *before* it enters the
//! in-memory log, and [`Journal::open`] replays the surviving frames so
//! pending updates outlive a crash.
//!
//! **Frame format** (all integers little-endian):
//!
//! ```text
//! [len: u32] [payload: tag u8 ++ oid u64] [crc32(payload): u32]
//! ```
//!
//! Replay stops at the first torn or corrupt frame and truncates the
//! file back to the last consistent prefix — the same
//! discard-the-torn-tail policy as the OODB write-ahead log.
//!
//! **Group commit:** every append is durable when it returns;
//! [`Journal::append_batch`] makes a whole batch durable with one
//! `sync_data`, which is how the propagator journals a task batch. The
//! task ledger's [`RecordLog`] goes further: concurrent appenders share
//! one `sync_data` through its leader/follower committer
//! ([`LogCommitter::sync_through`]).
//!
//! **Cancellation at append time:** the paper's operation-cancellation
//! optimisation is applied to the journal too. When the file holds at
//! least twice as many frames as the folded in-memory log (and at least
//! [`Journal::COMPACT_MIN`] frames), the journal is atomically rewritten
//! to exactly the folded operations, so insert+delete churn cannot grow
//! the file without bound.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use oodb::Oid;

use crate::error::{CouplingError, Result};
use crate::propagate::PendingOp;

/// Longest frame payload `open` accepts; larger lengths mark corruption.
const MAX_PAYLOAD: usize = 64;

fn io_err(e: std::io::Error) -> CouplingError {
    CouplingError::Irs(irs::IrsError::Io(e))
}

/// Serialise one raw payload as a CRC-framed record.
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&irs::persist::crc32(payload).to_le_bytes());
    out
}

/// Read the frame starting at `pos`, if a complete, CRC-valid one is
/// there. Returns the payload slice and the offset just past the frame;
/// `None` marks a torn/corrupt tail (or clean end of input).
fn next_raw_frame(bytes: &[u8], pos: usize, max_payload: usize) -> Option<(&[u8], usize)> {
    if pos + 4 > bytes.len() {
        return None;
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&bytes[pos..pos + 4]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > max_payload {
        return None;
    }
    let end = pos.checked_add(4 + len + 4)?;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[pos + 4..pos + 4 + len];
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&bytes[pos + 4 + len..end]);
    if irs::persist::crc32(payload) != u32::from_le_bytes(crc_bytes) {
        return None;
    }
    Some((payload, end))
}

fn encode_op(op: PendingOp) -> [u8; 9] {
    let (tag, oid) = match op {
        PendingOp::Insert(o) => (1u8, o),
        PendingOp::Modify(o) => (2u8, o),
        PendingOp::Delete(o) => (3u8, o),
    };
    let mut payload = [0u8; 9];
    payload[0] = tag;
    payload[1..].copy_from_slice(&oid.0.to_le_bytes());
    payload
}

fn decode_op(payload: &[u8]) -> Option<PendingOp> {
    if payload.len() != 9 {
        return None;
    }
    let mut oid_bytes = [0u8; 8];
    oid_bytes.copy_from_slice(&payload[1..]);
    let oid = Oid(u64::from_le_bytes(oid_bytes));
    match payload[0] {
        1 => Some(PendingOp::Insert(oid)),
        2 => Some(PendingOp::Modify(oid)),
        3 => Some(PendingOp::Delete(oid)),
        _ => None,
    }
}

fn frame(op: PendingOp) -> Vec<u8> {
    raw_frame(&encode_op(op))
}

/// Parse the longest valid frame prefix of `bytes`; returns the decoded
/// operations and the byte length of the valid prefix.
fn parse_frames(bytes: &[u8]) -> (Vec<PendingOp>, usize) {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some((payload, end)) = next_raw_frame(bytes, pos, MAX_PAYLOAD) {
        let Some(op) = decode_op(payload) else { break };
        ops.push(op);
        pos = end;
    }
    (ops, pos)
}

/// An append-only, checksummed, fsynced file of pending propagation
/// operations. Owned by [`crate::Propagator`]; see the module docs for
/// format and durability guarantees.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    frames: u64,
    rewrites: u64,
    syncs: u64,
}

impl Journal {
    /// Minimum frame count before compaction is considered.
    pub const COMPACT_MIN: u64 = 8;

    /// Open (or create) the journal at `path`, replaying surviving
    /// frames. A torn or corrupt tail is truncated away; the returned
    /// operations are the journal's last consistent state in append
    /// order.
    pub fn open(path: &Path) -> Result<(Journal, Vec<PendingOp>)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        let (ops, valid_len) = parse_frames(&bytes);
        if valid_len < bytes.len() {
            // Crash artifact: drop the torn tail so appends continue from
            // a consistent prefix.
            let f = OpenOptions::new().write(true).open(path).map_err(io_err)?;
            f.set_len(valid_len as u64).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let journal = Journal {
            path: path.to_path_buf(),
            file,
            frames: ops.len() as u64,
            rewrites: 0,
            syncs: 0,
        };
        Ok((journal, ops))
    }

    /// `sync_data` calls issued since open — the metric group commit
    /// exists to shrink.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames currently in the file.
    pub fn frames(&self) -> u64 {
        self.frames
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
        if ops.is_empty() {
            return Ok(());
        }
        let mut out = Vec::with_capacity(ops.len() * 17);
        for &op in ops {
            out.extend_from_slice(&frame(op));
        }
        self.file.write_all(&out).map_err(io_err)?;
        self.frames += ops.len() as u64;
        self.file.sync_data().map_err(io_err)?;
        self.syncs += 1;
        Ok(())
    }

    /// Atomically replace the journal's contents with exactly `ops`
    /// (compaction: the folded log after cancellation). Temp file +
    /// fsync + rename, so a crash leaves either the old or the new
    /// journal.
    pub fn rewrite(&mut self, ops: &[PendingOp]) -> Result<()> {
        let mut out = Vec::with_capacity(ops.len() * 17);
        for &op in ops {
            out.extend_from_slice(&frame(op));
        }
        let file_name = self.path.file_name().ok_or_else(|| {
            io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("journal path {} has no file name", self.path.display()),
            ))
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        {
            let mut f = File::create(&tmp).map_err(io_err)?;
            f.write_all(&out).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io_err)?;
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        // The old append handle points at the unlinked inode; reopen.
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(io_err)?;
        self.frames = ops.len() as u64;
        self.rewrites += 1;
        Ok(())
    }

    /// Empty the journal (after a fully successful flush).
    pub fn clear(&mut self) -> Result<()> {
        self.file.set_len(0).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.syncs += 1;
        self.frames = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Raw record log
// ---------------------------------------------------------------------

/// An append-only, checksummed file of *opaque* records — the same
/// `[len][payload][crc32]` framing [`Journal`] uses for propagation
/// operations, generalised so other subsystems (the update task ledger
/// in [`crate::tasks`]) can persist their own record types without
/// reinventing torn-tail recovery.
///
/// Differences from [`Journal`]: payloads are caller-defined byte
/// strings with a caller-chosen size cap (task records carry document
/// text, so the 9-byte operation cap does not apply), and writing is
/// split from syncing so that concurrent appenders share one
/// `sync_data` (group commit):
///
/// 1. [`RecordLog::write`] writes frames — under whatever lock
///    serialises the caller's appends — and returns a sequence number;
/// 2. the caller releases that lock and waits in
///    [`LogCommitter::sync_through`]. The first waiter that finds no sync
///    running leads: its one `sync_data` covers every frame written
///    before it started, the followers' frames included.
///
/// A frame is durable only once `sync_through` for its sequence number
/// returned `Ok`. A failed write or `sync_data` **poisons** the log:
/// every later write or sync returns an I/O error, because after a
/// failed fsync the kernel may have dropped the unsynced pages, and a
/// torn frame mid-file would hide every frame appended behind it.
/// Recovery is reopen-and-replay.
///
/// The framing is byte-compatible: replay stops at the first torn or
/// corrupt frame and truncates the file back to the last consistent
/// prefix, exactly like the propagation journal. A pre-existing file
/// written by an older version simply replays whatever records it
/// holds; an absent file opens empty.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    file: Arc<File>,
    records: u64,
    max_payload: usize,
    /// Frames written since open: the sequence number of the last one.
    seq: u64,
    committer: LogCommitter,
}

/// Cloneable handle on a [`RecordLog`]'s group committer: waits for
/// written frames to become durable without holding the lock that
/// serialises writes.
#[derive(Debug, Clone)]
pub struct LogCommitter {
    inner: Arc<Committer>,
}

#[derive(Debug)]
struct Committer {
    state: Mutex<CommitState>,
    /// Notified whenever a leader's `sync_data` returns.
    synced: Condvar,
    /// `sync_data` calls issued: a statistic, read without the mutex.
    syncs: AtomicU64,
}

#[derive(Debug)]
struct CommitState {
    /// The handle `sync_data` runs on: the append handle, which
    /// [`RecordLog::rewrite`] replaces.
    file: Arc<File>,
    /// Highest sequence number whose frame is completely written.
    written: u64,
    /// Highest sequence number covered by a successful `sync_data`.
    durable: u64,
    /// A leader is inside `sync_data`.
    syncing: bool,
    poisoned: bool,
    /// Fail the next `sync_data` as a failing disk would (tests).
    fail_next_sync: bool,
}

fn poisoned_err() -> CouplingError {
    io_err(std::io::Error::other(
        "record log poisoned by an earlier failed write or sync; reopen to recover",
    ))
}

impl LogCommitter {
    fn new(file: Arc<File>) -> LogCommitter {
        LogCommitter {
            inner: Arc::new(Committer {
                state: Mutex::new(CommitState {
                    file,
                    written: 0,
                    durable: 0,
                    syncing: false,
                    poisoned: false,
                    fail_next_sync: false,
                }),
                synced: Condvar::new(),
                syncs: AtomicU64::new(0),
            }),
        }
    }

    /// Every field is consistent after each single update, so a guard
    /// poisoned by a panicking holder is still valid.
    fn state(&self) -> MutexGuard<'_, CommitState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the frame with sequence number `seq` — and so every
    /// frame written before it — is durable. Either another caller's
    /// `sync_data` already covers it, or this caller issues one that
    /// covers every frame written so far. Returns an I/O error, and
    /// never `Ok`, once the log is poisoned.
    pub fn sync_through(&self, seq: u64) -> Result<()> {
        let mut st = self.state();
        loop {
            if st.poisoned {
                return Err(poisoned_err());
            }
            if st.durable >= seq {
                return Ok(());
            }
            if !st.syncing {
                break;
            }
            st = self
                .inner
                .synced
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.syncing = true;
        let target = st.written;
        let file = Arc::clone(&st.file);
        let fail = std::mem::take(&mut st.fail_next_sync);
        drop(st);
        let result = if fail {
            Err(std::io::Error::other("injected sync_data failure"))
        } else {
            file.sync_data()
        };
        self.inner.syncs.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state();
        st.syncing = false;
        match result {
            Ok(()) => st.durable = st.durable.max(target),
            Err(_) => st.poisoned = true,
        }
        drop(st);
        self.inner.synced.notify_all();
        result.map_err(io_err)
    }

    /// `sync_data` calls issued since open.
    pub fn syncs(&self) -> u64 {
        self.inner.syncs.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn fail_next_sync(&self) {
        self.state().fail_next_sync = true;
    }
}

impl RecordLog {
    /// Open (or create) the record log at `path`, replaying surviving
    /// records. A torn or corrupt tail is truncated away; the returned
    /// payloads are the log's last consistent state in append order.
    /// `max_payload` bounds accepted record sizes on both read and
    /// write — a declared length above it marks corruption.
    pub fn open(path: &Path, max_payload: usize) -> Result<(RecordLog, Vec<Vec<u8>>)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        let mut records = Vec::new();
        let mut valid_len = 0usize;
        while let Some((payload, end)) = next_raw_frame(&bytes, valid_len, max_payload) {
            records.push(payload.to_vec());
            valid_len = end;
        }
        if valid_len < bytes.len() {
            let f = OpenOptions::new().write(true).open(path).map_err(io_err)?;
            f.set_len(valid_len as u64).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        let file = Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(io_err)?,
        );
        let log = RecordLog {
            path: path.to_path_buf(),
            committer: LogCommitter::new(Arc::clone(&file)),
            file,
            records: records.len() as u64,
            max_payload,
            seq: 0,
        };
        Ok((log, records))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// A handle that makes written frames durable without `&mut self`.
    pub fn committer(&self) -> LogCommitter {
        self.committer.clone()
    }

    /// `sync_data` calls issued since open.
    pub fn syncs(&self) -> u64 {
        self.committer.syncs()
    }

    fn check_len(&self, payload: &[u8]) -> Result<()> {
        if payload.is_empty() || payload.len() > self.max_payload {
            return Err(io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {} bytes outside (0, {}]",
                    payload.len(),
                    self.max_payload
                ),
            )));
        }
        Ok(())
    }

    /// Write `payloads` as frames, in order, with one `write_all`, and
    /// return the sequence number of the last one. The frames are **not
    /// durable** until [`LogCommitter::sync_through`] for that number
    /// returns `Ok`.
    pub fn write<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<u64> {
        let mut out = Vec::new();
        for p in payloads {
            self.check_len(p.as_ref())?;
            out.extend_from_slice(&raw_frame(p.as_ref()));
        }
        if self.committer.state().poisoned {
            return Err(poisoned_err());
        }
        if let Err(e) = (&*self.file).write_all(&out) {
            self.committer.state().poisoned = true;
            return Err(io_err(e));
        }
        self.records += payloads.len() as u64;
        self.seq += payloads.len() as u64;
        self.committer.state().written = self.seq;
        Ok(self.seq)
    }

    /// Atomically replace the log's contents with exactly `payloads`
    /// (compaction). Temp file + fsync + rename, so a crash leaves
    /// either the old or the new log; everything written before is
    /// superseded and counts as durable.
    pub fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<()> {
        if self.committer.state().poisoned {
            return Err(poisoned_err());
        }
        let mut out = Vec::new();
        for p in payloads {
            self.check_len(p.as_ref())?;
            out.extend_from_slice(&raw_frame(p.as_ref()));
        }
        let file_name = self.path.file_name().ok_or_else(|| {
            io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record log path {} has no file name", self.path.display()),
            ))
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        {
            let mut f = File::create(&tmp).map_err(io_err)?;
            f.write_all(&out).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(io_err)?;
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        self.file = Arc::new(
            OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(io_err)?,
        );
        self.records = payloads.len() as u64;
        let mut st = self.committer.state();
        st.file = Arc::clone(&self.file);
        st.durable = self.seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("coupling-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
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

    /// Write and make durable, as a lone appender would.
    fn append<P: AsRef<[u8]>>(log: &mut RecordLog, payloads: &[P]) -> Result<()> {
        let seq = log.write(payloads)?;
        log.committer().sync_through(seq)
    }

    #[test]
    fn record_log_round_trip_and_torn_tail() {
        let path = tmp("records.log");
        {
            let (mut log, replayed) = RecordLog::open(&path, 1024).unwrap();
            assert!(replayed.is_empty());
            append(&mut log, &[b"alpha"]).unwrap();
            append(&mut log, &[b"beta".as_slice(), b"gamma".as_slice()]).unwrap();
            assert_eq!(log.records(), 3);
            assert_eq!(log.syncs(), 2, "one sync_data per write");
        }
        {
            let (_, replayed) = RecordLog::open(&path, 1024).unwrap();
            assert_eq!(
                replayed,
                vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
            );
        }
        // Tear into the last record; the prefix survives.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (log, replayed) = RecordLog::open(&path, 1024).unwrap();
        assert_eq!(replayed, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(log.records(), 2);
    }

    #[test]
    fn record_log_rejects_oversize_and_empty_payloads() {
        let path = tmp("records_cap.log");
        let (mut log, _) = RecordLog::open(&path, 8).unwrap();
        assert!(
            append(&mut log, &[b"123456789"]).is_err(),
            "9 bytes over an 8-byte cap"
        );
        assert!(
            append(&mut log, &[b""]).is_err(),
            "empty payloads are unframeable"
        );
        assert!(append(&mut log, &[b"12345678"]).is_ok());
        // A record over the reader's cap stops replay there.
        let (_, replayed) = RecordLog::open(&path, 4).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn record_log_rewrite_compacts() {
        let path = tmp("records_rewrite.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        for i in 0..10u8 {
            append(&mut log, &[[i + 1]]).unwrap();
        }
        // Frames written but not yet synced are superseded by the
        // synced rewrite.
        let unsynced = log.write(&[b"lost"]).unwrap();
        log.rewrite(&[b"only".as_slice()]).unwrap();
        assert_eq!(log.records(), 1);
        let syncs = log.syncs();
        log.committer().sync_through(unsynced).unwrap();
        assert_eq!(log.syncs(), syncs, "the rewrite already made it durable");
        append(&mut log, &[b"after"]).unwrap();
        drop(log);
        let (_, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed, vec![b"only".to_vec(), b"after".to_vec()]);
    }

    /// Group commit: K appenders write under one mutex (as the task
    /// queue's enqueuers do), release it, and only then wait for
    /// durability. Every frame is written before anyone syncs, and the
    /// appender of the *first* frame syncs first, so its single
    /// `sync_data` must cover all K — the others find their frames
    /// durable already. Each caller returns only once its own frame is.
    #[test]
    fn concurrent_appenders_share_one_sync() {
        const K: usize = 8;
        let path = tmp("records_group.log");
        let (log, _) = RecordLog::open(&path, 64).unwrap();
        let committer = log.committer();
        let log = Mutex::new(log);
        let written = std::sync::Barrier::new(K);
        let first_synced = std::sync::Barrier::new(K);
        std::thread::scope(|scope| {
            for i in 0..K {
                let (log, committer) = (&log, &committer);
                let (written, first_synced) = (&written, &first_synced);
                scope.spawn(move || {
                    let seq = log.lock().unwrap().write(&[[i as u8 + 1]]).unwrap();
                    written.wait();
                    if seq == 1 {
                        committer.sync_through(seq).unwrap();
                        first_synced.wait();
                    } else {
                        first_synced.wait();
                        committer.sync_through(seq).unwrap();
                    }
                    assert!(committer.state().durable >= seq, "returned before durable");
                });
            }
        });
        assert_eq!(committer.syncs(), 1, "{K} appends, one sync_data");
        drop(log);
        let (_, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed.len(), K);
    }

    /// Without a barrier the appenders race; coalescing then depends on
    /// timing, but durability on return and at most one sync per append
    /// never do.
    #[test]
    fn racing_appenders_are_each_durable_on_return() {
        const K: usize = 4;
        const EACH: usize = 25;
        let path = tmp("records_race.log");
        let (log, _) = RecordLog::open(&path, 64).unwrap();
        let committer = log.committer();
        let log = Mutex::new(log);
        std::thread::scope(|scope| {
            for _ in 0..K {
                let (log, committer) = (&log, &committer);
                scope.spawn(move || {
                    for _ in 0..EACH {
                        let seq = log.lock().unwrap().write(&[b"x"]).unwrap();
                        committer.sync_through(seq).unwrap();
                        assert!(committer.state().durable >= seq);
                    }
                });
            }
        });
        assert!(committer.syncs() <= (K * EACH) as u64);
        drop(log);
        let (_, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed.len(), K * EACH);
    }

    #[test]
    fn failed_sync_poisons_the_log() {
        let path = tmp("records_poison.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        append(&mut log, &[b"durable"]).unwrap();
        let committer = log.committer();
        let before = log.write(&[b"unsynced"]).unwrap();
        committer.fail_next_sync();
        assert!(
            committer.sync_through(before).is_err(),
            "the failure surfaces"
        );
        // Never success after a failed sync: not for the frame that
        // failed, not for one that was durable before, not for new ones.
        assert!(committer.sync_through(before).is_err());
        assert!(committer.sync_through(1).is_err());
        let err = log.write(&[b"later"]).unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Io);
        assert!(log.rewrite(&[b"fresh"]).is_err());
        drop(log);
        // Recovery is reopen-and-replay.
        let (mut log, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed[0], b"durable".to_vec());
        append(&mut log, &[b"again"]).unwrap();
    }
}
