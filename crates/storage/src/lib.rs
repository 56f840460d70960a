//! Storage primitives: the one copy of each building block the durable
//! files of the IRS, the OODBMS and the coupling layer are made of.
//!
//! * [`crc32`] — CRC-32 (IEEE), the checksum of every frame and file.
//! * [`write_varint`] / [`read_varint`] — canonical LEB128 varints: the
//!   postings lists, the snapshots and the WAL records all use them.
//! * [`codec`] — the byte codec every binary format is written in: free
//!   `put_*` functions for fixed-width integers, `f64`s and
//!   length-prefixed strings, and one bounded [`codec::Reader`] with a
//!   single element-count bound, [`codec::Reader::count`]. The wire
//!   protocol, the task ledger, the result-buffer file, the irs snapshot
//!   files and the oodb snapshot, WAL and values all read through it.
//! * [`atomic_write`] / [`read_verified`] — whole-file snapshots with a
//!   CRC-32 trailer, replaced atomically (temp file, `sync_all`, rename,
//!   directory sync) — the same replace [`RecordLog::rewrite`] uses; and
//!   [`next_generation`] / [`cleanup_stale_generations`], the commit rule
//!   of the irs snapshot directory and of the coupling layer's saved
//!   system: a new generation, a manifest written last, then cleanup.
//! * [`RecordLog`] — the checksummed, append-only, fsynced log behind the
//!   OODB write-ahead log, the propagation journal and the task ledger,
//!   with group commit through its [`LogCommitter`].
//!
//! Errors are plain [`std::io::Error`]s. Detected corruption (a CRC
//! mismatch) is [`std::io::ErrorKind::InvalidData`], which each caller's
//! error type maps to its own "corrupt" variant.

pub mod codec;
mod crc;
mod file;
mod journal;
mod varint;

pub use crc::crc32;
pub use file::{
    atomic_write, cleanup_stale_generations, next_generation, read_verified, read_verified_with_crc,
};
pub use journal::{LogCommitter, RecordLog};
pub use varint::{read_varint, read_varint_slow, write_varint};
