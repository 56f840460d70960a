//! Full-state snapshots (checkpoints).
//!
//! A snapshot captures schema, index definitions, every object and the
//! OID allocator. After writing one, the WAL can be truncated; recovery
//! is snapshot + WAL-tail replay.

use std::path::Path;

use storage::{atomic_write, read_verified};

use crate::error::{DbError, Result};
use crate::object::Object;
use crate::oid::Oid;
use crate::schema::{ClassId, Schema};
use crate::store::ObjectStore;
use crate::util::{read_str, read_varint, write_str, write_varint};
use crate::value::Value;

const MAGIC: &[u8; 4] = b"ODBS";
const VERSION: u8 = 1;

/// Index definition carried through a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Indexed class.
    pub class: ClassId,
    /// Indexed attribute.
    pub attr: String,
    /// 0 = B+tree, 1 = hash.
    pub kind: u8,
}

/// Everything a snapshot holds.
#[derive(Debug)]
pub struct Snapshot {
    /// The class schema.
    pub schema: Schema,
    /// Index definitions (entries are rebuilt from objects at load).
    pub indexes: Vec<IndexDef>,
    /// The object store.
    pub store: ObjectStore,
}

/// Write a snapshot of `schema` + `store` + `indexes` to `path`.
pub fn write(
    path: &Path,
    schema: &Schema,
    indexes: &[IndexDef],
    store: &ObjectStore,
) -> Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    // Schema in class-id order; parents reference earlier ids.
    write_varint(&mut out, schema.len() as u64);
    for (_, def) in schema.iter() {
        write_str(&mut out, &def.name);
        match def.parent {
            Some(p) => {
                out.push(1);
                write_varint(&mut out, u64::from(p.0));
            }
            None => out.push(0),
        }
    }

    // Index definitions.
    write_varint(&mut out, indexes.len() as u64);
    for ix in indexes {
        write_varint(&mut out, u64::from(ix.class.0));
        write_str(&mut out, &ix.attr);
        out.push(ix.kind);
    }

    // OID allocator.
    write_varint(&mut out, store.next_oid());

    // Objects in OID order.
    write_varint(&mut out, store.len() as u64);
    for obj in store.iter_ordered() {
        write_varint(&mut out, obj.oid.0);
        write_varint(&mut out, u64::from(obj.class.0));
        write_varint(&mut out, obj.attrs.len() as u64);
        for (name, value) in &obj.attrs {
            write_str(&mut out, name);
            value.encode(&mut out);
        }
    }

    // Crash-safe: temp file + fsync + atomic rename, CRC-32 trailer.
    Ok(atomic_write(path, &out)?)
}

/// Load a snapshot previously written by [`write`].
pub fn read(path: &Path) -> Result<Snapshot> {
    let buf = read_verified(path)?;
    let mut pos = 0usize;

    if buf.len() < 5 || &buf[0..4] != MAGIC {
        return Err(DbError::Corrupt("snapshot: bad magic".into()));
    }
    pos += 4;
    if buf[pos] != VERSION {
        return Err(DbError::Corrupt(format!("snapshot: version {}", buf[pos])));
    }
    pos += 1;

    let corrupt = |what: &str| DbError::Corrupt(format!("snapshot: truncated {what}"));

    let class_count = read_varint(&buf, &mut pos).ok_or_else(|| corrupt("class count"))? as usize;
    let mut schema = Schema::new();
    for _ in 0..class_count {
        let name = read_str(&buf, &mut pos).ok_or_else(|| corrupt("class name"))?;
        let has_parent = *buf.get(pos).ok_or_else(|| corrupt("parent flag"))?;
        pos += 1;
        let parent = match has_parent {
            0 => None,
            1 => Some(ClassId(
                read_varint(&buf, &mut pos).ok_or_else(|| corrupt("parent id"))? as u32,
            )),
            _ => return Err(DbError::Corrupt("snapshot: bad parent flag".into())),
        };
        schema.define(&name, parent)?;
    }

    let index_count = read_varint(&buf, &mut pos).ok_or_else(|| corrupt("index count"))? as usize;
    let mut indexes = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        let class =
            ClassId(read_varint(&buf, &mut pos).ok_or_else(|| corrupt("index class"))? as u32);
        let attr = read_str(&buf, &mut pos).ok_or_else(|| corrupt("index attr"))?;
        let kind = *buf.get(pos).ok_or_else(|| corrupt("index kind"))?;
        pos += 1;
        indexes.push(IndexDef { class, attr, kind });
    }

    let next_oid = read_varint(&buf, &mut pos).ok_or_else(|| corrupt("next oid"))?;
    let mut store = ObjectStore::new();
    store.bump_oid_floor(next_oid);

    let obj_count = read_varint(&buf, &mut pos).ok_or_else(|| corrupt("object count"))? as usize;
    for _ in 0..obj_count {
        let oid = Oid(read_varint(&buf, &mut pos).ok_or_else(|| corrupt("oid"))?);
        let class = ClassId(read_varint(&buf, &mut pos).ok_or_else(|| corrupt("class id"))? as u32);
        let attr_count = read_varint(&buf, &mut pos).ok_or_else(|| corrupt("attr count"))? as usize;
        let mut obj = Object::new(oid, class);
        for _ in 0..attr_count {
            let name = read_str(&buf, &mut pos).ok_or_else(|| corrupt("attr name"))?;
            let value = Value::decode(&buf, &mut pos).ok_or_else(|| corrupt("attr value"))?;
            obj.attrs.insert(name, value);
        }
        store.put(obj);
    }

    if pos != buf.len() {
        return Err(DbError::Corrupt("snapshot: trailing bytes".into()));
    }
    Ok(Snapshot {
        schema,
        indexes,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oodb-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> (Schema, Vec<IndexDef>, ObjectStore) {
        let mut schema = Schema::new();
        let root = schema.define("IRSObject", None).unwrap();
        let para = schema.define("PARA", Some(root)).unwrap();
        let mut store = ObjectStore::new();
        let o1 = store.allocate_oid();
        let mut obj = Object::new(o1, para);
        obj.set_attr("content", Value::from("Telnet is a protocol"));
        obj.set_attr("year", Value::Int(1994));
        obj.set_attr(
            "children",
            Value::List(vec![Value::Oid(Oid(99)), Value::Null]),
        );
        store.put(obj);
        let indexes = vec![IndexDef {
            class: para,
            attr: "year".into(),
            kind: 0,
        }];
        (schema, indexes, store)
    }

    #[test]
    fn round_trip() {
        let (schema, indexes, store) = sample();
        let path = tmp("round_trip.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let snap = read(&path).unwrap();
        assert_eq!(snap.schema.len(), 2);
        assert_eq!(snap.schema.class_id("PARA").unwrap(), ClassId(1));
        assert_eq!(snap.indexes, indexes);
        assert_eq!(snap.store.len(), 1);
        let obj = snap.store.get(Oid(1)).unwrap();
        assert_eq!(obj.attr("year"), Value::Int(1994));
        assert_eq!(obj.attr("content"), Value::from("Telnet is a protocol"));
        // Allocator continues past recovered objects.
        assert!(snap.store.next_oid() > 1);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("badmagic.snap");
        std::fs::write(&path, b"XXXX\x01").unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let (schema, indexes, store) = sample();
        let path = tmp("trunc.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read(&path).is_err());
    }

    #[test]
    fn bit_flip_in_place_rejected() {
        let (schema, indexes, store) = sample();
        let path = tmp("bitflip.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    /// Each value has one accepted varint spelling: a padded encoding
    /// (`0x80 0x00` for 0) and one carrying bits past the 64th are both
    /// rejected, by `Value::decode` and by the snapshot reader alike.
    #[test]
    fn padded_and_overflowing_varints_are_rejected() {
        let padded = [0x80u8, 0x00];
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        for bad in [&padded[..], &overflow[..]] {
            // An OID value (tag 5) spelled with the bad varint.
            let value = [&[5u8][..], bad].concat();
            assert_eq!(Value::decode(&value, &mut 0), None, "{bad:02x?}");

            // A CRC-valid snapshot of an empty database whose next-oid
            // field is spelled with the bad varint.
            let payload = [&MAGIC[..], &[VERSION, 0, 0], bad, &[0]].concat();
            let path = tmp("noncanonical.snap");
            atomic_write(&path, &payload).unwrap();
            assert!(
                matches!(read(&path), Err(DbError::Corrupt(_))),
                "{bad:02x?}"
            );
        }
    }

    #[test]
    fn empty_database_snapshot() {
        let path = tmp("empty.snap");
        write(&path, &Schema::new(), &[], &ObjectStore::new()).unwrap();
        let snap = read(&path).unwrap();
        assert!(snap.schema.is_empty());
        assert!(snap.store.is_empty());
        assert!(snap.indexes.is_empty());
    }
}
