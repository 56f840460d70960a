//! The checksummed, append-only record log.
//!
//! **Frame format** (all integers little-endian):
//!
//! ```text
//! [len: u32] [payload: len bytes] [crc32(payload): u32]
//! ```
//!
//! Replay stops at the first torn or corrupt frame. If no CRC-valid
//! frame follows it, that is a torn tail and the file is truncated back
//! to the last consistent prefix; if one does, the log was corrupted in
//! the middle and open refuses it rather than drop the frames behind the
//! bad one. One policy for every log built on [`RecordLog`].

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::crc::crc32;
use crate::file::replace_file;

/// Append `payload` to `out` as one CRC-framed record.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Read the frame starting at `pos`, if a complete, CRC-valid one is
/// there. Returns the payload slice and the offset just past the frame;
/// `None` marks a torn/corrupt tail (or clean end of input).
fn next_frame(bytes: &[u8], pos: usize, max_payload: usize) -> Option<(&[u8], usize)> {
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
    if crc32(payload) != u32::from_le_bytes(crc_bytes) {
        return None;
    }
    Some((payload, end))
}

/// An append-only, checksummed file of opaque records. Payloads are
/// caller-defined byte strings with a caller-chosen size cap, and
/// writing is split from syncing so that concurrent appenders share one
/// `sync_data` (group commit):
///
/// 1. [`RecordLog::write`] writes frames — under whatever lock
///    serialises the caller's appends — and returns a sequence number;
/// 2. the caller releases that lock and waits in
///    [`LogCommitter::sync_through`]. The first waiter that finds no sync
///    running leads: its one `sync_data` covers every frame written
///    before it started, the followers' frames included.
///
/// A lone appender does both with [`RecordLog::append`].
///
/// A frame is durable only once `sync_through` for its sequence number
/// returned `Ok`. A failed write or `sync_data` **poisons** the log:
/// every later write or sync returns an I/O error, because after a
/// failed fsync the kernel may have dropped the unsynced pages, and a
/// torn frame mid-file would hide every frame appended behind it.
/// Recovery is reopen-and-replay.
///
/// Replay stops at the first torn or corrupt frame and truncates the
/// file back to the last consistent prefix, unless a CRC-valid frame
/// follows the bad one (see [`RecordLog::open`]); an absent file opens
/// empty.
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

fn poisoned_err() -> io::Error {
    io::Error::other("record log poisoned by an earlier failed write or sync; reopen to recover")
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
    pub fn sync_through(&self, seq: u64) -> io::Result<()> {
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
            Err(io::Error::other("injected sync_data failure"))
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
        result
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
    /// A bad frame with a CRC-valid frame somewhere after it is not a
    /// tail: open fails with [`io::ErrorKind::InvalidData`] naming both
    /// offsets, and the file is left as it is. `max_payload` bounds
    /// accepted record sizes on both read and write — a declared length
    /// above it marks corruption.
    pub fn open(path: &Path, max_payload: usize) -> io::Result<(RecordLog, Vec<Vec<u8>>)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut valid_len = 0usize;
        while let Some((payload, end)) = next_frame(&bytes, valid_len, max_payload) {
            records.push(payload.to_vec());
            valid_len = end;
        }
        if valid_len < bytes.len() {
            if let Some(next) = (valid_len + 1..bytes.len())
                .find(|&at| next_frame(&bytes, at, max_payload).is_some())
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: corrupt frame at offset {valid_len} before a valid one at \
                         offset {next}",
                        path.display()
                    ),
                ));
            }
            // Crash artifact: drop the torn tail so appends continue from
            // a consistent prefix.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let file = Arc::new(OpenOptions::new().create(true).append(true).open(path)?);
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

    /// Frame `payloads` into one buffer, checking each against the cap.
    fn frames<P: AsRef<[u8]>>(&self, payloads: &[P]) -> io::Result<Vec<u8>> {
        let len = payloads.iter().map(|p| p.as_ref().len() + 8).sum();
        let mut out = Vec::with_capacity(len);
        for p in payloads {
            let p = p.as_ref();
            if p.is_empty() || p.len() > self.max_payload {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "record payload of {} bytes outside (0, {}]",
                        p.len(),
                        self.max_payload
                    ),
                ));
            }
            put_frame(&mut out, p);
        }
        Ok(out)
    }

    /// Write `payloads` as frames, in order, with one `write_all`, and
    /// return the sequence number of the last one. The frames are **not
    /// durable** until [`LogCommitter::sync_through`] for that number
    /// returns `Ok`.
    pub fn write<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<u64> {
        let out = self.frames(payloads)?;
        if self.committer.state().poisoned {
            return Err(poisoned_err());
        }
        if let Err(e) = (&*self.file).write_all(&out) {
            self.committer.state().poisoned = true;
            return Err(e);
        }
        self.records += payloads.len() as u64;
        self.seq += payloads.len() as u64;
        self.committer.state().written = self.seq;
        Ok(self.seq)
    }

    /// Write `payloads` and make them durable: [`RecordLog::write`] then
    /// [`LogCommitter::sync_through`], one `sync_data` for the batch.
    pub fn append<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<()> {
        let seq = self.write(payloads)?;
        self.committer.sync_through(seq)
    }

    /// Atomically replace the log's contents with exactly `payloads`
    /// (compaction): temp file, `sync_all`, rename, so a crash leaves
    /// either the old or the new log; everything written before is superseded
    /// and counts as durable.
    pub fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<()> {
        if self.committer.state().poisoned {
            return Err(poisoned_err());
        }
        let out = self.frames(payloads)?;
        replace_file(&self.path, &[&out])?;
        // The old append handle points at the unlinked inode; reopen.
        self.file = Arc::new(OpenOptions::new().append(true).open(&self.path)?);
        self.records = payloads.len() as u64;
        let mut st = self.committer.state();
        st.file = Arc::clone(&self.file);
        st.durable = self.seq;
        Ok(())
    }

    /// Durably empty the log: `set_len(0)` plus one `sync_data`, which
    /// counts in [`RecordLog::syncs`]. Everything written before is
    /// superseded and counts as durable.
    pub fn clear(&mut self) -> io::Result<()> {
        if self.committer.state().poisoned {
            return Err(poisoned_err());
        }
        let result = self.file.set_len(0).and_then(|()| self.file.sync_data());
        self.committer.inner.syncs.fetch_add(1, Ordering::Relaxed);
        let mut st = self.committer.state();
        match result {
            Ok(()) => {
                self.records = 0;
                st.durable = self.seq;
            }
            Err(_) => st.poisoned = true,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("storage-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The on-disk frame is a format: the task ledger and the
    /// propagation journal files written by earlier versions must keep
    /// replaying. The constants were captured from the version whose
    /// frame code lived in the coupling layer.
    #[test]
    fn frame_bytes_are_pinned() {
        let path = tmp("pinned_records.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        log.append(&[b"alpha".as_slice(), b"beta".as_slice()])
            .unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "05000000616c7068616a39e0d004000000626574616304918f"
        );

        // The propagation journal's [Insert(1), Modify(2), Delete(3)]:
        // payload = tag u8 ++ oid u64 (little-endian).
        let path = tmp("pinned_journal.log");
        let (mut log, _) = RecordLog::open(&path, 9).unwrap();
        let ops: Vec<Vec<u8>> = [(1u8, 1u64), (2, 2), (3, 3)]
            .iter()
            .map(|&(tag, oid)| [&[tag][..], &oid.to_le_bytes()].concat())
            .collect();
        log.append(&ops).unwrap();
        assert_eq!(
            hex(&std::fs::read(&path).unwrap()),
            "090000000101000000000000007300d83d\
             09000000020200000000000000553bda8a\
             09000000030300000000000000882f0b51"
        );
    }

    /// A flipped byte inside frame 2 of 5 is not a torn tail: frames 3–5
    /// are intact, so open refuses the log instead of truncating them
    /// away, and leaves the file untouched.
    #[test]
    fn corruption_before_valid_frames_is_refused_not_truncated() {
        let path = tmp("records_midfile.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        log.append(&[b"one".as_slice(), b"two", b"three", b"four", b"five"])
            .unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame2 = 4 + 3 + 4;
        bytes[frame2 + 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = RecordLog::open(&path, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains(&format!("corrupt frame at offset {frame2}")),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing truncated");

        // The same flip in the last frame is a torn tail: truncated.
        let (mut log, _) = RecordLog::open(&tmp("records_tail.log"), 64).unwrap();
        log.append(&[b"one", b"two"]).unwrap();
        let path = log.path().to_path_buf();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed, vec![b"one".to_vec()]);
    }

    #[test]
    fn clear_empties_the_file_with_one_sync() {
        let path = tmp("records_clear.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        log.append(&[b"one", b"two"]).unwrap();
        let unsynced = log.write(&[b"three"]).unwrap();
        let syncs = log.syncs();
        log.clear().unwrap();
        assert_eq!(log.syncs(), syncs + 1, "set_len + one sync_data");
        assert_eq!(log.records(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        log.committer().sync_through(unsynced).unwrap();
        assert_eq!(log.syncs(), syncs + 1, "the clear already made it durable");
        // Appends continue at offset 0.
        log.append(&[b"after"]).unwrap();
        drop(log);
        let (_, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed, vec![b"after".to_vec()]);
    }

    #[test]
    fn record_log_round_trip_and_torn_tail() {
        let path = tmp("records.log");
        {
            let (mut log, replayed) = RecordLog::open(&path, 1024).unwrap();
            assert!(replayed.is_empty());
            log.append(&[b"alpha"]).unwrap();
            log.append(&[b"beta".as_slice(), b"gamma".as_slice()])
                .unwrap();
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
            log.append(&[b"123456789"]).is_err(),
            "9 bytes over an 8-byte cap"
        );
        assert!(
            log.append(&[b""]).is_err(),
            "empty payloads are unframeable"
        );
        assert!(log.append(&[b"12345678"]).is_ok());
        // A record over the reader's cap stops replay there.
        let (_, replayed) = RecordLog::open(&path, 4).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn record_log_rewrite_compacts() {
        let path = tmp("records_rewrite.log");
        let (mut log, _) = RecordLog::open(&path, 64).unwrap();
        for i in 0..10u8 {
            log.append(&[[i + 1]]).unwrap();
        }
        // Frames written but not yet synced are superseded by the
        // synced rewrite.
        let unsynced = log.write(&[b"lost"]).unwrap();
        log.rewrite(&[b"only".as_slice()]).unwrap();
        assert_eq!(log.records(), 1);
        let syncs = log.syncs();
        log.committer().sync_through(unsynced).unwrap();
        assert_eq!(log.syncs(), syncs, "the rewrite already made it durable");
        log.append(&[b"after"]).unwrap();
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
        log.append(&[b"durable"]).unwrap();
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
        assert!(log.write(&[b"later"]).is_err());
        assert!(log.rewrite(&[b"fresh"]).is_err());
        assert!(log.clear().is_err());
        drop(log);
        // Recovery is reopen-and-replay.
        let (mut log, replayed) = RecordLog::open(&path, 64).unwrap();
        assert_eq!(replayed[0], b"durable".to_vec());
        log.append(&[b"again"]).unwrap();
    }
}
