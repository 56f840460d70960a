//! Full-state snapshots (checkpoints).
//!
//! A snapshot captures schema, index definitions, every object and the
//! OID allocator. After writing one, the WAL can be truncated; recovery
//! is snapshot + WAL-tail replay.

use std::path::Path;

use storage::codec::{put_str_varint, Reader};
use storage::{atomic_write, read_verified, write_varint};

use crate::error::{DbError, Result};
use crate::object::Object;
use crate::oid::Oid;
use crate::schema::{ClassId, Schema};
use crate::store::ObjectStore;
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
        put_str_varint(&mut out, &def.name);
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
        put_str_varint(&mut out, &ix.attr);
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
            put_str_varint(&mut out, name);
            value.encode(&mut out);
        }
    }

    // Crash-safe: temp file + fsync + atomic rename, CRC-32 trailer.
    Ok(atomic_write(path, &out).map(drop)?)
}

/// Load a snapshot previously written by [`write`].
pub fn read(path: &Path) -> Result<Snapshot> {
    let buf = read_verified(path)?;
    let mut r = Reader::new(&buf);

    if r.take(4, "magic").ok() != Some(MAGIC.as_slice()) {
        return Err(DbError::Corrupt("snapshot: bad magic".into()));
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(DbError::Corrupt(format!("snapshot: version {version}")));
    }

    // A class takes at least a name length and a parent flag.
    let class_count = r.varint("class count")?;
    let class_count = r.count(class_count, 2, "class")?;
    let mut schema = Schema::new();
    for _ in 0..class_count {
        let name = r.str_varint("class name")?;
        let parent = if r.flag("parent")? {
            Some(ClassId(r.varint("parent id")? as u32))
        } else {
            None
        };
        schema.define(name, parent)?;
    }

    // An index takes at least a class id, an attribute length and a kind.
    let index_count = r.varint("index count")?;
    let index_count = r.count(index_count, 3, "index")?;
    let mut indexes = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        indexes.push(IndexDef {
            class: ClassId(r.varint("index class")? as u32),
            attr: r.str_varint("index attr")?.into(),
            kind: r.u8("index kind")?,
        });
    }

    let next_oid = r.varint("next oid")?;
    let mut store = ObjectStore::new();
    store.bump_oid_floor(next_oid);

    // An object takes at least an oid, a class id and an attribute count;
    // an attribute at least a name length and a value tag.
    let obj_count = r.varint("object count")?;
    for _ in 0..r.count(obj_count, 3, "object")? {
        let oid = Oid(r.varint("oid")?);
        let class = ClassId(r.varint("class id")? as u32);
        let attr_count = r.varint("attr count")?;
        let mut obj = Object::new(oid, class);
        for _ in 0..r.count(attr_count, 2, "attr")? {
            let name = r.str_varint("attr name")?.into();
            obj.attrs.insert(name, Value::decode(&mut r)?);
        }
        store.put(obj);
    }

    r.finish()?;
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

    /// The bytes of a hex literal.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A snapshot file is exactly these bytes (CRC-32 trailer included),
    /// and the bytes read back to the same schema, indexes and objects.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let (schema, indexes, store) = sample();
        let path = tmp("pinned.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let pinned = unhex("4f4442530102094952534f626a656374000450415241010001010479656172000201010103086368696c6472656e060205630007636f6e74656e74041454656c6e657420697320612070726f746f636f6c047965617202941ffea3273c");
        assert_eq!(bytes, pinned);
        std::fs::write(&path, &pinned).unwrap();
        let snap = read(&path).unwrap();
        assert_eq!(snap.schema.len(), 2);
        assert_eq!(snap.schema.class_id("PARA").unwrap(), ClassId(1));
        assert_eq!(snap.schema.class(ClassId(1)).parent, Some(ClassId(0)));
        assert_eq!(snap.indexes, indexes);
        assert_eq!(snap.store.next_oid(), store.next_oid());
        let objects: Vec<_> = snap.store.iter_ordered().collect();
        let expected: Vec<_> = store.iter_ordered().collect();
        assert_eq!(objects.len(), expected.len());
        for (a, b) in objects.iter().zip(&expected) {
            assert_eq!((a.oid, a.class, &a.attrs), (b.oid, b.class, &b.attrs));
        }
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
            assert!(
                Value::decode(&mut Reader::new(&value)).is_err(),
                "{bad:02x?}"
            );

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
    fn crc32_matches_known_vector() {
        // The checksum framing every WAL record and snapshot file is the
        // standard CRC-32 (IEEE).
        assert_eq!(storage::crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(storage::crc32(b""), 0);
    }

    /// A CRC-valid snapshot whose index count claims 2^40 entries is
    /// refused as corrupt before the count sizes an allocation.
    #[test]
    fn hostile_index_count_is_refused() {
        let mut payload = [&MAGIC[..], &[VERSION, 0]].concat();
        write_varint(&mut payload, 1 << 40);
        let path = tmp("hostile_count.snap");
        atomic_write(&path, &payload).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    /// A value nested 100 000 lists deep is refused as corrupt instead of
    /// recursing until the stack overflows.
    #[test]
    fn deeply_nested_value_is_refused() {
        // No classes, no indexes, next oid 2, and one object (oid 1,
        // class 0) with one attribute `v`.
        let mut payload = [&MAGIC[..], &[VERSION, 0, 0, 2, 1, 1, 0, 1, 1, b'v']].concat();
        for _ in 0..100_000 {
            payload.extend_from_slice(&[6, 1]);
        }
        payload.push(0);
        let path = tmp("deep_value.snap");
        atomic_write(&path, &payload).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
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
