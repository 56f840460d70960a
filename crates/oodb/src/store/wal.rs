//! Write-ahead log.
//!
//! Redo-only logging: a transaction's records are buffered in memory and
//! appended as one [`storage::RecordLog`] record — the encoded records
//! followed by a commit marker — made durable with one `sync_data`. The
//! record log's CRC frame makes each batch atomic and checksummed:
//! recovery replays every complete batch, and a torn or bit-flipped tail
//! is truncated away rather than replayed. DDL (class and index
//! definitions) is logged the same way as its own single-record batch.

use std::io;
use std::path::Path;

use storage::codec::{invalid_data, put_str_varint, Reader};
use storage::{write_varint, RecordLog};

use crate::error::{DbError, Result};
use crate::oid::Oid;
use crate::value::Value;

/// One redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A class definition (`parent` by name, resolved at replay).
    DefineClass {
        /// Class name.
        name: String,
        /// Optional superclass name.
        parent: Option<String>,
    },
    /// An index creation; `kind` is 0 = B+tree, 1 = hash.
    CreateIndex {
        /// Indexed class name.
        class: String,
        /// Indexed attribute.
        attr: String,
        /// 0 = B+tree, 1 = hash.
        kind: u8,
    },
    /// Object creation.
    Create {
        /// The created object's OID.
        oid: Oid,
        /// Its class name.
        class: String,
    },
    /// Attribute assignment (including `Null` = clear).
    SetAttr {
        /// Target object.
        oid: Oid,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Object deletion.
    Delete {
        /// The deleted object's OID.
        oid: Oid,
    },
    /// Terminates a batch; everything since the previous marker is atomic.
    Commit,
}

impl Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::DefineClass { name, parent } => {
                out.push(1);
                put_str_varint(out, name);
                match parent {
                    Some(p) => {
                        out.push(1);
                        put_str_varint(out, p);
                    }
                    None => out.push(0),
                }
            }
            Record::CreateIndex { class, attr, kind } => {
                out.push(2);
                put_str_varint(out, class);
                put_str_varint(out, attr);
                out.push(*kind);
            }
            Record::Create { oid, class } => {
                out.push(3);
                write_varint(out, oid.0);
                put_str_varint(out, class);
            }
            Record::SetAttr { oid, attr, value } => {
                out.push(4);
                write_varint(out, oid.0);
                put_str_varint(out, attr);
                value.encode(out);
            }
            Record::Delete { oid } => {
                out.push(5);
                write_varint(out, oid.0);
            }
            Record::Commit => out.push(6),
        }
    }

    fn decode(r: &mut Reader<'_>) -> io::Result<Record> {
        Ok(match r.u8("record tag")? {
            1 => {
                let name = r.str_varint("class name")?.into();
                let parent = if r.flag("parent")? {
                    Some(r.str_varint("parent name")?.into())
                } else {
                    None
                };
                Record::DefineClass { name, parent }
            }
            2 => Record::CreateIndex {
                class: r.str_varint("index class")?.into(),
                attr: r.str_varint("index attr")?.into(),
                kind: r.u8("index kind")?,
            },
            3 => Record::Create {
                oid: Oid(r.varint("oid")?),
                class: r.str_varint("class name")?.into(),
            },
            4 => Record::SetAttr {
                oid: Oid(r.varint("oid")?),
                attr: r.str_varint("attr name")?.into(),
                value: Value::decode(r)?,
            },
            5 => Record::Delete {
                oid: Oid(r.varint("oid")?),
            },
            6 => Record::Commit,
            other => return Err(invalid_data(format!("unknown record tag {other}"))),
        })
    }
}

/// Decode one batch: records up to the commit marker, which must end it.
fn decode_batch(payload: &[u8]) -> io::Result<Vec<Record>> {
    let mut r = Reader::new(payload);
    let mut batch = Vec::new();
    loop {
        match Record::decode(&mut r)? {
            Record::Commit => {
                r.finish()?;
                return Ok(batch);
            }
            rec => batch.push(rec),
        }
    }
}

/// The write-ahead log: one CRC-framed record per committed batch.
#[derive(Debug)]
pub struct Wal {
    log: RecordLog,
}

impl Wal {
    /// Open (or create) the WAL at `path` and replay it: the records of
    /// every complete batch, in commit order. A torn or corrupt tail
    /// (crash mid-write, bit rot) is truncated away; a checksummed batch
    /// that does not decode is [`DbError::Corrupt`].
    pub fn open(path: &Path) -> Result<(Wal, Vec<Record>)> {
        // A payload is a slice of bytes already read, so no allocation
        // depends on the declared length: accept any the frame can carry.
        let (log, payloads) = RecordLog::open(path, u32::MAX as usize)?;
        let mut records = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let batch = decode_batch(payload).map_err(|e| {
                DbError::Corrupt(format!("{}: undecodable batch {i}: {e}", path.display()))
            })?;
            records.extend(batch);
        }
        Ok((Wal { log }, records))
    }

    /// Append `records` followed by a commit marker as one record and
    /// make it durable. The batch is atomic with respect to recovery.
    pub fn append_batch(&mut self, records: &[Record]) -> Result<()> {
        let mut payload = Vec::new();
        for r in records {
            r.encode(&mut payload);
        }
        Record::Commit.encode(&mut payload);
        Ok(self.log.append(&[payload])?)
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Durably empty the log (after a checkpoint).
    pub fn clear(&mut self) -> Result<()> {
        Ok(self.log.clear()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oodb-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_batch() -> Vec<Record> {
        vec![
            Record::DefineClass {
                name: "PARA".into(),
                parent: Some("IRSObject".into()),
            },
            Record::Create {
                oid: Oid(7),
                class: "PARA".into(),
            },
            Record::SetAttr {
                oid: Oid(7),
                attr: "content".into(),
                value: Value::from("Telnet is a protocol"),
            },
            Record::Delete { oid: Oid(3) },
            Record::CreateIndex {
                class: "PARA".into(),
                attr: "year".into(),
                kind: 0,
            },
        ]
    }

    /// The bytes of a hex literal.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A batch holding every record kind and every value kind is exactly
    /// these payload bytes, and the bytes decode back to the batch.
    #[test]
    fn batch_bytes_are_pinned() {
        let batch = vec![
            Record::DefineClass {
                name: "P".into(),
                parent: Some("O".into()),
            },
            Record::DefineClass {
                name: "O".into(),
                parent: None,
            },
            Record::CreateIndex {
                class: "P".into(),
                attr: "y".into(),
                kind: 1,
            },
            Record::Create {
                oid: Oid(300),
                class: "P".into(),
            },
            Record::SetAttr {
                oid: Oid(300),
                attr: "v".into(),
                value: Value::List(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-2),
                    Value::Real(0.5),
                    Value::Str("é".into()),
                    Value::Oid(Oid(1)),
                    Value::List(vec![]),
                ]),
            },
            Record::Delete { oid: Oid(3) },
        ];
        let mut payload = Vec::new();
        for r in &batch {
            r.encode(&mut payload);
        }
        Record::Commit.encode(&mut payload);
        let pinned = unhex("01015001014f01014f0002015001790103ac02015004ac0201760607000101020303000000000000e03f0402c3a905010600050306");
        assert_eq!(payload, pinned);
        assert_eq!(decode_batch(&pinned).expect("decodes"), batch);
    }

    #[test]
    fn batches_round_trip() {
        let path = tmp("round_trip.wal");
        let batch = sample_batch();
        {
            let (mut w, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            w.append_batch(&batch).unwrap();
            w.append_batch(&[Record::Delete { oid: Oid(7) }]).unwrap();
        }
        let (_, records) = Wal::open(&path).unwrap();
        let mut expect = batch;
        expect.push(Record::Delete { oid: Oid(7) });
        assert_eq!(records, expect);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn.wal");
        {
            let (mut w, _) = Wal::open(&path).unwrap();
            w.append_batch(&sample_batch()).unwrap();
            w.append_batch(&[Record::Delete { oid: Oid(9) }]).unwrap();
        }
        // Chop off the last few bytes to simulate a crash mid-write.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        {
            let (mut w, records) = Wal::open(&path).unwrap();
            assert_eq!(records, sample_batch(), "partial batch dropped");
            // The tail was truncated, so a later commit is replayable.
            w.append_batch(&[Record::Delete { oid: Oid(10) }]).unwrap();
        }
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), sample_batch().len() + 1);
    }

    /// Write `payload` as one checksummed WAL record, bypassing the
    /// batch encoder.
    fn write_raw(path: &Path, payload: &[u8]) {
        let (mut log, _) = RecordLog::open(path, 1024).unwrap();
        log.append(&[payload]).unwrap();
    }

    #[test]
    fn frame_without_commit_marker_is_corrupt() {
        let path = tmp("nocommit.wal");
        // Hand-craft a frame holding one record but no marker.
        let mut payload = Vec::new();
        Record::Delete { oid: Oid(1) }.encode(&mut payload);
        write_raw(&path, &payload);
        assert!(matches!(Wal::open(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn garbage_within_frame_is_corrupt() {
        let path = tmp("garbage.wal");
        write_raw(&path, &[99u8, 1, 2, 3]);
        assert!(matches!(Wal::open(&path), Err(DbError::Corrupt(_))));
        // Bytes after the commit marker are garbage too.
        let path = tmp("trailing.wal");
        let mut payload = Vec::new();
        Record::Commit.encode(&mut payload);
        payload.push(0);
        write_raw(&path, &payload);
        assert!(matches!(Wal::open(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn empty_wal_is_fine() {
        let path = tmp("empty.wal");
        std::fs::write(&path, b"").unwrap();
        assert!(Wal::open(&path).unwrap().1.is_empty());
    }
}
