//! The database facade: schema + store + indexes + WAL + methods.

use std::path::{Path, PathBuf};

use crate::error::{DbError, Result};
use crate::index::{IndexKind, IndexManager};
use crate::method::{MethodCost, MethodCtx, MethodRegistry};
use crate::object::Object;
use crate::oid::Oid;
use crate::query::{self, Row};
use crate::schema::{ClassId, Schema};
use crate::store::snapshot::{self, IndexDef};
use crate::store::wal::{Record, Wal};
use crate::store::ObjectStore;
use crate::txn::{Txn, UndoOp};
use crate::value::Value;

const SNAPSHOT_FILE: &str = "snapshot.odb";
const WAL_FILE: &str = "wal.log";
/// The write-ahead log of the format before CRC-framed batches. Its
/// records are not replayed: an empty one is deleted at open, a
/// non-empty one makes [`Database::open`] fail.
const LEGACY_WAL_FILE: &str = "wal.odb";

/// An object-oriented database. Create with [`Database::in_memory`] for a
/// volatile instance or [`Database::open`] for a durable one (snapshot +
/// write-ahead log in a directory).
#[derive(Debug)]
pub struct Database {
    schema: Schema,
    store: ObjectStore,
    indexes: IndexManager,
    index_defs: Vec<IndexDef>,
    methods: MethodRegistry,
    constants: std::collections::HashMap<String, Value>,
    wal: Option<Wal>,
    dir: Option<PathBuf>,
    next_txn: u64,
}

impl Database {
    /// A volatile database (no files).
    pub fn in_memory() -> Self {
        let mut db = Database {
            schema: Schema::new(),
            store: ObjectStore::new(),
            indexes: IndexManager::new(),
            index_defs: Vec::new(),
            methods: MethodRegistry::new(),
            constants: std::collections::HashMap::new(),
            wal: None,
            dir: None,
            next_txn: 1,
        };
        db.register_builtins();
        db
    }

    /// Open (or create) a durable database in `dir`: loads the snapshot if
    /// present, replays the WAL tail, and appends future commits to it.
    pub fn open(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut db = Database::in_memory();
        db.dir = Some(dir.to_path_buf());

        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            let snap = snapshot::read(&snap_path)?;
            db.schema = snap.schema;
            db.store = snap.store;
            for def in &snap.indexes {
                let kind = if def.kind == 0 {
                    IndexKind::BTree
                } else {
                    IndexKind::Hash
                };
                db.indexes.create(def.class, &def.attr, kind);
            }
            db.index_defs = snap.indexes;
            db.backfill_all_indexes();
        }

        let legacy = dir.join(LEGACY_WAL_FILE);
        match std::fs::metadata(&legacy) {
            Ok(meta) if meta.len() == 0 => std::fs::remove_file(&legacy)?,
            Ok(_) => {
                return Err(DbError::Corrupt(format!(
                    "{}: write-ahead log in the pre-CRC format with unreplayed commits; \
                     open and checkpoint this database with the release that wrote it",
                    legacy.display()
                )))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let (wal, records) = Wal::open(&dir.join(WAL_FILE))?;
        for record in records {
            db.apply_record(record)?;
        }
        db.wal = Some(wal);
        Ok(db)
    }

    /// Attach an in-memory (or re-homed) database to `dir` and persist
    /// it there: snapshot written, WAL opened for future commits.
    pub fn persist_to(&mut self, dir: &Path) -> Result<()> {
        self.persist_to_then(dir, || Ok(()))
    }

    /// [`Database::persist_to`], moving to `dir` only once `commit`
    /// succeeds: the snapshot and an empty WAL are written there first,
    /// and until `commit` returns `Ok` — for good if anything fails —
    /// the database stays in its current home and appends to its WAL.
    /// A caller whose own record (a manifest) names `dir` writes it in
    /// `commit`, so no commit lands in a WAL that record does not name.
    pub fn persist_to_then(
        &mut self,
        dir: &Path,
        commit: impl FnOnce() -> std::io::Result<()>,
    ) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        self.indexes.compact();
        snapshot::write(
            &dir.join(SNAPSHOT_FILE),
            &self.schema,
            &self.index_defs,
            &self.store,
        )?;
        // Everything a WAL already in `dir` holds is now in the snapshot.
        let (mut wal, _) = Wal::open(&dir.join(WAL_FILE))?;
        wal.clear()?;
        commit()?;
        self.dir = Some(dir.to_path_buf());
        self.wal = Some(wal);
        Ok(())
    }

    /// Write a snapshot and truncate the WAL. Also compacts lazy-deleted
    /// B+tree nodes.
    pub fn checkpoint(&mut self) -> Result<()> {
        match self.dir.clone() {
            Some(dir) => self.persist_to(&dir),
            None => Ok(()), // in-memory: nothing to do
        }
    }

    // ------------------------------------------------------------------
    // Schema & indexes (auto-committed DDL)
    // ------------------------------------------------------------------

    /// Define a class; `parent` by name.
    pub fn define_class(&mut self, name: &str, parent: Option<&str>) -> Result<ClassId> {
        let parent_id = parent.map(|p| self.schema.class_id(p)).transpose()?;
        let id = self.schema.define(name, parent_id)?;
        self.log_ddl(Record::DefineClass {
            name: name.to_string(),
            parent: parent.map(str::to_string),
        })?;
        Ok(id)
    }

    /// Create a secondary index on `(class, attr)` and backfill it from
    /// existing objects (subclass instances included).
    pub fn create_index(&mut self, class: &str, attr: &str, kind: IndexKind) -> Result<()> {
        let class_id = self.schema.class_id(class)?;
        self.indexes.create(class_id, attr, kind);
        self.index_defs
            .retain(|d| !(d.class == class_id && d.attr == attr));
        self.index_defs.push(IndexDef {
            class: class_id,
            attr: attr.to_string(),
            kind: if kind == IndexKind::BTree { 0 } else { 1 },
        });
        self.backfill_index(class_id, attr);
        self.log_ddl(Record::CreateIndex {
            class: class.to_string(),
            attr: attr.to_string(),
            kind: if kind == IndexKind::BTree { 0 } else { 1 },
        })?;
        Ok(())
    }

    fn backfill_index(&mut self, class: ClassId, attr: &str) {
        let oids: Vec<Oid> = self.extent(class, true);
        for oid in oids {
            let value = self.store.get(oid).expect("extent oid live").attr(attr);
            if !matches!(value, Value::Null) {
                // The index is keyed by the *indexed* class even for
                // subclass instances, so lookups on the indexed class see
                // its full extent.
                self.indexes.on_set(class, attr, oid, &Value::Null, &value);
            }
        }
    }

    fn backfill_all_indexes(&mut self) {
        let defs = self.index_defs.clone();
        for def in defs {
            self.backfill_index(def.class, &def.attr);
        }
    }

    fn log_ddl(&mut self, record: Record) -> Result<()> {
        if let Some(w) = &mut self.wal {
            w.append_batch(&[record])?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Start a transaction.
    pub fn begin(&mut self) -> Txn {
        let id = self.next_txn;
        self.next_txn += 1;
        Txn::new(id)
    }

    /// Make the transaction's effects durable.
    pub fn commit(&mut self, mut txn: Txn) -> Result<()> {
        if !txn.active {
            return Err(DbError::InactiveTxn);
        }
        txn.active = false;
        if let Some(w) = &mut self.wal {
            if !txn.redo.is_empty() {
                w.append_batch(&txn.redo)?;
            }
        }
        Ok(())
    }

    /// Roll the transaction's effects back in memory.
    pub fn abort(&mut self, mut txn: Txn) -> Result<()> {
        if !txn.active {
            return Err(DbError::InactiveTxn);
        }
        txn.active = false;
        for op in txn.undo.drain(..).rev() {
            match op {
                UndoOp::UnCreate(oid) => {
                    let obj = self.store.take(oid)?;
                    debug_assert!(obj.attrs.is_empty(), "attr undos run first");
                }
                UndoOp::UnSetAttr { oid, attr, old } => {
                    let class = self.store.get(oid)?.class;
                    let current = self.store.get(oid)?.attr(&attr);
                    self.store.get_mut(oid)?.set_attr(&attr, old.clone());
                    self.maintain_indexes(class, &attr, oid, &current, &old);
                }
                UndoOp::UnDelete(obj) => {
                    let obj = *obj;
                    let class = obj.class;
                    let oid = obj.oid;
                    let attrs: Vec<(String, Value)> = obj
                        .attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    self.store.put(obj);
                    for (attr, value) in attrs {
                        self.maintain_indexes(class, &attr, oid, &Value::Null, &value);
                    }
                }
            }
        }
        Ok(())
    }

    fn check_active(txn: &Txn) -> Result<()> {
        if txn.active {
            Ok(())
        } else {
            Err(DbError::InactiveTxn)
        }
    }

    // ------------------------------------------------------------------
    // Object operations
    // ------------------------------------------------------------------

    /// Create an object of `class`.
    pub fn create_object(&mut self, txn: &mut Txn, class: ClassId) -> Result<Oid> {
        Self::check_active(txn)?;
        if class.0 as usize >= self.schema.len() {
            return Err(DbError::UnknownClass(format!("classid {}", class.0)));
        }
        let oid = self.store.allocate_oid();
        self.store.put(Object::new(oid, class));
        txn.redo.push(Record::Create {
            oid,
            class: self.schema.name(class).to_string(),
        });
        txn.undo.push(UndoOp::UnCreate(oid));
        Ok(oid)
    }

    /// Set `attr` of `oid` (Null clears). A value that nests `List`s
    /// deeper than [`MAX_LIST_DEPTH`](crate::value::MAX_LIST_DEPTH) is
    /// refused with [`DbError::ValueTooDeep`] and changes nothing: the WAL
    /// and snapshot readers would refuse it as corrupt.
    pub fn set_attr(&mut self, txn: &mut Txn, oid: Oid, attr: &str, value: Value) -> Result<()> {
        Self::check_active(txn)?;
        if value.nests_too_deep() {
            return Err(DbError::ValueTooDeep { attr: attr.into() });
        }
        let class = self.store.get(oid)?.class;
        let old = self.store.get_mut(oid)?.set_attr(attr, value.clone());
        self.maintain_indexes(class, attr, oid, &old, &value);
        txn.redo.push(Record::SetAttr {
            oid,
            attr: attr.to_string(),
            value,
        });
        txn.undo.push(UndoOp::UnSetAttr {
            oid,
            attr: attr.to_string(),
            old,
        });
        Ok(())
    }

    /// Delete `oid`.
    pub fn delete_object(&mut self, txn: &mut Txn, oid: Oid) -> Result<()> {
        Self::check_active(txn)?;
        let obj = self.store.take(oid)?;
        for (attr, value) in &obj.attrs {
            self.maintain_indexes(obj.class, attr, oid, value, &Value::Null);
        }
        txn.redo.push(Record::Delete { oid });
        txn.undo.push(UndoOp::UnDelete(Box::new(obj)));
        Ok(())
    }

    /// Index maintenance for an attribute transition, applied to the
    /// object's class and every ancestor (an index on a superclass covers
    /// subclass instances).
    fn maintain_indexes(&mut self, class: ClassId, attr: &str, oid: Oid, old: &Value, new: &Value) {
        let mut cur = Some(class);
        while let Some(c) = cur {
            self.indexes.on_set(c, attr, oid, old, new);
            cur = self.schema.class(c).parent;
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Borrow an object.
    pub fn object(&self, oid: Oid) -> Result<&Object> {
        self.store.get(oid)
    }

    /// Attribute of an object (`Null` when absent).
    pub fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.store.attr(oid, attr)
    }

    /// OIDs in the extent of `class`, optionally including subclasses,
    /// in OID order.
    pub fn extent(&self, class: ClassId, include_subclasses: bool) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.extent_len(class, include_subclasses));
        out.extend(self.extent_iter(class, include_subclasses));
        // Each class's extent arrives ordered; only members of a second
        // populated class can break the order, and then the stable sort
        // merges the per-class runs instead of starting from scratch.
        if !out.is_sorted() {
            out.sort();
        }
        out
    }

    /// Size of the extent of `class`, optionally including subclasses,
    /// without touching its members.
    pub fn extent_len(&self, class: ClassId, include_subclasses: bool) -> usize {
        self.extent_classes(class, include_subclasses)
            .into_iter()
            .map(|c| self.store.extent_size(c))
            .sum()
    }

    /// Borrowing walk over the extent of `class`: OID order within each
    /// class, classes in id order (so not globally ordered once a
    /// subclass has members — [`Database::extent`] sorts).
    pub fn extent_iter(
        &self,
        class: ClassId,
        include_subclasses: bool,
    ) -> impl Iterator<Item = Oid> + '_ {
        self.extent_classes(class, include_subclasses)
            .into_iter()
            .flat_map(|c| self.store.extent(c))
    }

    fn extent_classes(&self, class: ClassId, include_subclasses: bool) -> Vec<ClassId> {
        if include_subclasses {
            self.schema.subclasses(class)
        } else {
            vec![class]
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The index manager.
    pub fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    /// The method registry.
    pub fn methods(&self) -> &MethodRegistry {
        &self.methods
    }

    /// Mutable method registry (for application/coupling registration).
    pub fn methods_mut(&mut self) -> &mut MethodRegistry {
        &mut self.methods
    }

    /// Bind `name` as a query-level constant: an identifier usable in
    /// queries without a FROM binding. The paper's example queries
    /// reference collection objects this way ("The collection collPara
    /// denotes the OID of a paragraph-collection", Section 4.4).
    pub fn define_constant(&mut self, name: &str, value: Value) {
        self.constants.insert(name.to_string(), value);
    }

    /// Look up a query constant.
    pub fn constant(&self, name: &str) -> Option<&Value> {
        self.constants.get(name)
    }

    /// A read-only method context over this database.
    pub fn method_ctx(&self) -> MethodCtx<'_> {
        MethodCtx {
            store: &self.store,
            schema: &self.schema,
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Parse, optimize and run a VQL query. A leading `EXPLAIN` keyword
    /// returns the optimizer's plan (one string row per plan line)
    /// instead of executing.
    pub fn query(&self, text: &str) -> Result<Vec<Row>> {
        let trimmed = text.trim_start();
        let is_explain = trimmed
            .get(..7)
            .is_some_and(|kw| kw.eq_ignore_ascii_case("explain"))
            && trimmed[7..].starts_with(char::is_whitespace);
        if is_explain {
            let plan = query::exec::explain_only(self, &trimmed[7..])?;
            return Ok(plan.lines().map(|l| Row(vec![Value::from(l)])).collect());
        }
        query::run(self, text)
    }

    /// Parse, optimize and run a query, also returning the textual plan
    /// (for the mixed-query experiments).
    pub fn query_explain(&self, text: &str) -> Result<(Vec<Row>, String)> {
        query::run_explain(self, text)
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn apply_record(&mut self, record: Record) -> Result<()> {
        match record {
            Record::DefineClass { name, parent } => {
                let parent_id = parent
                    .as_deref()
                    .map(|p| self.schema.class_id(p))
                    .transpose()?;
                self.schema.define(&name, parent_id)?;
            }
            Record::CreateIndex { class, attr, kind } => {
                let class_id = self.schema.class_id(&class)?;
                let k = if kind == 0 {
                    IndexKind::BTree
                } else {
                    IndexKind::Hash
                };
                self.indexes.create(class_id, &attr, k);
                self.index_defs
                    .retain(|d| !(d.class == class_id && d.attr == attr));
                self.index_defs.push(IndexDef {
                    class: class_id,
                    attr: attr.clone(),
                    kind,
                });
                self.backfill_index(class_id, &attr);
            }
            Record::Create { oid, class } => {
                let class_id = self.schema.class_id(&class)?;
                self.store.bump_oid_floor(oid.0 + 1);
                self.store.put(Object::new(oid, class_id));
            }
            Record::SetAttr { oid, attr, value } => {
                let class = self.store.get(oid)?.class;
                let old = self.store.get_mut(oid)?.set_attr(&attr, value.clone());
                self.maintain_indexes(class, &attr, oid, &old, &value);
            }
            Record::Delete { oid } => {
                let obj = self.store.take(oid)?;
                for (attr, value) in &obj.attrs {
                    self.maintain_indexes(obj.class, attr, oid, value, &Value::Null);
                }
            }
            Record::Commit => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Built-in navigation methods
    // ------------------------------------------------------------------

    /// Register the built-in navigation methods the document framework
    /// relies on. Conventions: tree structure lives in the `parent`
    /// (Oid) and `children` (List of Oids) attributes; leaf text in
    /// `text`. The SGML loader establishes these attributes.
    fn register_builtins(&mut self) {
        let m = &mut self.methods;

        m.register("getAttributeValue", MethodCost::Cheap, |ctx, oid, args| {
            let name =
                args.first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| DbError::BadMethodArgs {
                        method: "getAttributeValue".into(),
                        reason: "expected one string argument".into(),
                    })?;
            ctx.store.attr(oid, name)
        });

        m.register("getClassName", MethodCost::Cheap, |ctx, oid, _| {
            let class = ctx.store.get(oid)?.class;
            Ok(Value::from(ctx.schema.name(class)))
        });

        m.register("length", MethodCost::Cheap, |ctx, oid, _| {
            match ctx.store.attr(oid, "text")? {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                _ => Ok(Value::Null),
            }
        });

        m.register("getParent", MethodCost::Cheap, |ctx, oid, _| {
            ctx.store.attr(oid, "parent")
        });

        m.register("getChildren", MethodCost::Cheap, |ctx, oid, _| {
            ctx.store.attr(oid, "children")
        });

        m.register("getNext", MethodCost::Cheap, |ctx, oid, _| {
            sibling(ctx, oid, 1)
        });

        m.register("getPrev", MethodCost::Cheap, |ctx, oid, _| {
            sibling(ctx, oid, -1)
        });

        m.register("getContaining", MethodCost::Cheap, |ctx, oid, args| {
            let target =
                args.first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| DbError::BadMethodArgs {
                        method: "getContaining".into(),
                        reason: "expected one class-name argument".into(),
                    })?;
            let target_id = ctx.schema.class_id(target)?;
            let mut cur = Some(oid);
            while let Some(o) = cur {
                let obj = ctx.store.get(o)?;
                if ctx.schema.is_subclass(obj.class, target_id) {
                    return Ok(Value::Oid(o));
                }
                cur = obj.attr("parent").as_oid();
            }
            Ok(Value::Null)
        });

        m.register("getRoot", MethodCost::Cheap, |ctx, oid, _| {
            let mut cur = oid;
            loop {
                match ctx.store.get(cur)?.attr("parent").as_oid() {
                    Some(p) => cur = p,
                    None => return Ok(Value::Oid(cur)),
                }
            }
        });
    }
}

/// Shared implementation of getNext/getPrev: the sibling `offset` away in
/// the parent's `children` list.
fn sibling(ctx: &MethodCtx<'_>, oid: Oid, offset: i64) -> Result<Value> {
    let Some(parent) = ctx.store.get(oid)?.attr("parent").as_oid() else {
        return Ok(Value::Null);
    };
    let children = ctx.store.attr(parent, "children")?;
    let Some(list) = children.as_list() else {
        return Ok(Value::Null);
    };
    let me = Value::Oid(oid);
    let idx = list.iter().position(|v| v == &me);
    match idx {
        Some(i) => {
            let target = i as i64 + offset;
            if target < 0 || target as usize >= list.len() {
                Ok(Value::Null)
            } else {
                Ok(list[target as usize].clone())
            }
        }
        None => Ok(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_db() -> (Database, ClassId, Vec<Oid>) {
        let mut db = Database::in_memory();
        let doc = db.define_class("MMFDOC", None).unwrap();
        let para = db.define_class("PARA", None).unwrap();
        let mut txn = db.begin();
        let d = db.create_object(&mut txn, doc).unwrap();
        let p1 = db.create_object(&mut txn, para).unwrap();
        let p2 = db.create_object(&mut txn, para).unwrap();
        db.set_attr(
            &mut txn,
            d,
            "children",
            Value::List(vec![Value::Oid(p1), Value::Oid(p2)]),
        )
        .unwrap();
        db.set_attr(&mut txn, p1, "parent", Value::Oid(d)).unwrap();
        db.set_attr(&mut txn, p2, "parent", Value::Oid(d)).unwrap();
        db.set_attr(&mut txn, p1, "text", Value::from("Telnet is a protocol"))
            .unwrap();
        db.commit(txn).unwrap();
        (db, para, vec![d, p1, p2])
    }

    #[test]
    fn create_set_get() {
        let (db, _, oids) = doc_db();
        assert_eq!(
            db.get_attr(oids[1], "text").unwrap(),
            Value::from("Telnet is a protocol")
        );
        assert_eq!(db.get_attr(oids[1], "missing").unwrap(), Value::Null);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let (mut db, para, oids) = doc_db();
        let before = db.store().len();
        let mut txn = db.begin();
        let fresh = db.create_object(&mut txn, para).unwrap();
        db.set_attr(&mut txn, fresh, "text", Value::from("x"))
            .unwrap();
        db.set_attr(&mut txn, oids[1], "text", Value::from("changed"))
            .unwrap();
        db.delete_object(&mut txn, oids[2]).unwrap();
        db.abort(txn).unwrap();
        assert_eq!(db.store().len(), before);
        assert!(!db.store().contains(fresh));
        assert!(db.store().contains(oids[2]));
        assert_eq!(
            db.get_attr(oids[1], "text").unwrap(),
            Value::from("Telnet is a protocol")
        );
    }

    #[test]
    fn committed_txn_handles_cannot_be_reused() {
        let mut db = Database::in_memory();
        let c = db.define_class("A", None).unwrap();
        let mut txn = db.begin();
        db.create_object(&mut txn, c).unwrap();
        // Simulate reuse by marking inactive through commit of a moved-out
        // handle: create a second txn and commit it twice via abort.
        let t2 = db.begin();
        db.commit(t2).unwrap();
        db.commit(txn).unwrap();
    }

    #[test]
    fn navigation_builtins() {
        let (db, _, oids) = doc_db();
        let (d, p1, p2) = (oids[0], oids[1], oids[2]);
        let ctx = db.method_ctx();
        let reg = db.methods();
        assert_eq!(
            reg.invoke(&ctx, "getNext", p1, &[]).unwrap(),
            Value::Oid(p2)
        );
        assert_eq!(reg.invoke(&ctx, "getNext", p2, &[]).unwrap(), Value::Null);
        assert_eq!(
            reg.invoke(&ctx, "getPrev", p2, &[]).unwrap(),
            Value::Oid(p1)
        );
        assert_eq!(
            reg.invoke(&ctx, "getParent", p1, &[]).unwrap(),
            Value::Oid(d)
        );
        assert_eq!(reg.invoke(&ctx, "getRoot", p1, &[]).unwrap(), Value::Oid(d));
        assert_eq!(
            reg.invoke(&ctx, "getContaining", p1, &[Value::from("MMFDOC")])
                .unwrap(),
            Value::Oid(d)
        );
        assert_eq!(
            reg.invoke(&ctx, "getClassName", p1, &[]).unwrap(),
            Value::from("PARA")
        );
        assert_eq!(
            reg.invoke(&ctx, "length", p1, &[]).unwrap(),
            Value::Int("Telnet is a protocol".len() as i64)
        );
        assert_eq!(reg.invoke(&ctx, "length", d, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn subclass_extents() {
        let mut db = Database::in_memory();
        let root = db.define_class("IRSObject", None).unwrap();
        let para = db.define_class("PARA", Some("IRSObject")).unwrap();
        let mut txn = db.begin();
        let a = db.create_object(&mut txn, root).unwrap();
        let b = db.create_object(&mut txn, para).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.extent(root, false), vec![a]);
        assert_eq!(db.extent(root, true), vec![a, b]);
        assert_eq!(db.extent(para, true), vec![b]);

        // A later superclass instance interleaves the per-class runs:
        // the iterator walks class by class, `extent` restores OID order,
        // and the length never needs the members.
        let mut txn = db.begin();
        let c = db.create_object(&mut txn, root).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(
            db.extent_iter(root, true).collect::<Vec<_>>(),
            vec![a, c, b]
        );
        assert_eq!(db.extent(root, true), vec![a, b, c]);
        assert_eq!(db.extent_len(root, true), 3);
        assert_eq!(db.extent_len(root, false), 2);
        assert_eq!(db.extent_iter(para, false).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn index_covers_superclass_lookups() {
        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        let para = db.define_class("PARA", Some("IRSObject")).unwrap();
        let root_id = db.schema().class_id("IRSObject").unwrap();
        db.create_index("IRSObject", "year", IndexKind::BTree)
            .unwrap();
        let mut txn = db.begin();
        let p = db.create_object(&mut txn, para).unwrap();
        db.set_attr(&mut txn, p, "year", Value::Int(1994)).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(
            db.indexes()
                .lookup_eq(root_id, "year", &Value::Int(1994))
                .unwrap(),
            vec![p]
        );
    }

    #[test]
    fn durable_round_trip_with_recovery() {
        let dir = std::env::temp_dir().join("oodb-db-tests").join("durable");
        let _ = std::fs::remove_dir_all(&dir);
        let oid;
        {
            let mut db = Database::open(&dir).unwrap();
            let c = db.define_class("PARA", None).unwrap();
            db.create_index("PARA", "year", IndexKind::BTree).unwrap();
            let mut txn = db.begin();
            oid = db.create_object(&mut txn, c).unwrap();
            db.set_attr(&mut txn, oid, "year", Value::Int(1994))
                .unwrap();
            db.commit(txn).unwrap();

            // An aborted transaction must not survive recovery.
            let mut t2 = db.begin();
            let ghost = db.create_object(&mut t2, c).unwrap();
            db.set_attr(&mut t2, ghost, "year", Value::Int(2000))
                .unwrap();
            db.abort(t2).unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.get_attr(oid, "year").unwrap(), Value::Int(1994));
            assert_eq!(db.store().len(), 1, "aborted create not recovered");
            let para = db.schema().class_id("PARA").unwrap();
            assert_eq!(
                db.indexes()
                    .lookup_eq(para, "year", &Value::Int(1994))
                    .unwrap(),
                vec![oid]
            );
        }
    }

    #[test]
    fn checkpoint_then_recover() {
        let dir = std::env::temp_dir()
            .join("oodb-db-tests")
            .join("checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b);
        {
            let mut db = Database::open(&dir).unwrap();
            let c = db.define_class("PARA", None).unwrap();
            let mut txn = db.begin();
            a = db.create_object(&mut txn, c).unwrap();
            db.set_attr(&mut txn, a, "n", Value::Int(1)).unwrap();
            db.commit(txn).unwrap();
            db.checkpoint().unwrap();
            // Post-checkpoint work lands in the fresh WAL.
            let mut txn = db.begin();
            b = db.create_object(&mut txn, c).unwrap();
            db.set_attr(&mut txn, b, "n", Value::Int(2)).unwrap();
            db.commit(txn).unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.get_attr(a, "n").unwrap(), Value::Int(1));
            assert_eq!(db.get_attr(b, "n").unwrap(), Value::Int(2));
            // OID allocation continues above recovered objects.
            assert!(db.store().next_oid() > b.0);
        }
    }

    #[test]
    fn values_too_deep_to_read_back_are_refused_at_set_attr() {
        use crate::value::{nested_list, MAX_LIST_DEPTH};
        let dir = std::env::temp_dir().join("oodb-db-tests").join("deep");
        let _ = std::fs::remove_dir_all(&dir);
        let deepest = nested_list(MAX_LIST_DEPTH);
        let a;
        {
            let mut db = Database::open(&dir).unwrap();
            let c = db.define_class("PARA", None).unwrap();
            let mut txn = db.begin();
            a = db.create_object(&mut txn, c).unwrap();
            db.set_attr(&mut txn, a, "v", Value::Int(1)).unwrap();
            let err = db
                .set_attr(&mut txn, a, "v", nested_list(MAX_LIST_DEPTH + 1))
                .unwrap_err();
            assert!(
                matches!(&err, DbError::ValueTooDeep { attr } if attr == "v"),
                "{err}"
            );
            assert_eq!(
                db.get_attr(a, "v").unwrap(),
                Value::Int(1),
                "refusal changes nothing"
            );
            db.set_attr(&mut txn, a, "v", deepest.clone()).unwrap();
            db.commit(txn).unwrap();
        }
        // Replayed from the WAL.
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(db.get_attr(a, "v").unwrap(), deepest);
        db.checkpoint().unwrap();
        drop(db);
        // Read from the snapshot.
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.get_attr(a, "v").unwrap(), deepest);
    }

    #[test]
    fn persist_to_rehomes_without_touching_the_old_directory() {
        let root = std::env::temp_dir().join("oodb-db-tests").join("rehome");
        let _ = std::fs::remove_dir_all(&root);
        let (dir_a, dir_b) = (root.join("a"), root.join("b"));
        let set = |db: &mut Database, oid: Oid, n: i64| {
            let mut txn = db.begin();
            db.set_attr(&mut txn, oid, "n", Value::Int(n)).unwrap();
            db.commit(txn).unwrap();
        };
        let (a, b);
        {
            let mut db = Database::open(&dir_a).unwrap();
            let c = db.define_class("PARA", None).unwrap();
            let mut txn = db.begin();
            a = db.create_object(&mut txn, c).unwrap();
            db.commit(txn).unwrap();
            // A move whose commit step fails leaves the database in A.
            let refused = db.persist_to_then(&root.join("c"), || Err(std::io::Error::other("x")));
            assert!(refused.is_err());
            set(&mut db, a, 1); // only in A's WAL
            db.persist_to(&dir_b).unwrap();
            let mut txn = db.begin();
            b = db.create_object(&mut txn, c).unwrap();
            db.commit(txn).unwrap();
            set(&mut db, b, 2); // only in B's WAL
        }
        let db_a = Database::open(&dir_a).unwrap();
        assert_eq!(db_a.get_attr(a, "n").unwrap(), Value::Int(1));
        assert!(!db_a.store().contains(b), "B's commits stay out of A");
        let db_b = Database::open(&dir_b).unwrap();
        assert_eq!(db_b.get_attr(a, "n").unwrap(), Value::Int(1));
        assert_eq!(db_b.get_attr(b, "n").unwrap(), Value::Int(2));
    }

    #[test]
    fn legacy_wal_is_deleted_when_empty_and_refused_otherwise() {
        let dir = std::env::temp_dir().join("oodb-db-tests").join("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join(LEGACY_WAL_FILE);
        std::fs::write(&legacy, b"").unwrap();
        drop(Database::open(&dir).unwrap());
        assert!(!legacy.exists(), "an empty legacy WAL holds nothing");
        assert!(dir.join(WAL_FILE).exists());

        std::fs::write(&legacy, [7u8, 6]).unwrap();
        let err = Database::open(&dir).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("wal.odb"), "{err}");
        assert!(legacy.exists(), "never deleted while it holds commits");
    }

    #[test]
    fn explain_keyword_returns_plan_without_executing() {
        let (mut db, _, _) = doc_db();
        db.methods_mut()
            .register("boom", crate::method::MethodCost::Cheap, |_, _, _| {
                panic!("EXPLAIN must not execute predicates")
            });
        let rows = db
            .query("EXPLAIN ACCESS p FROM p IN PARA WHERE p -> boom() = TRUE")
            .unwrap();
        assert!(!rows.is_empty());
        let text: String = rows
            .iter()
            .map(|r| r.col(0).as_str().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("extent scan"), "{text}");
        // Case-insensitive keyword.
        assert!(db.query("explain ACCESS p FROM p IN PARA").is_ok());
        // Bad inner query still errors.
        assert!(db.query("EXPLAIN ACCESS").is_err());
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut db = Database::in_memory();
        let c = db.define_class("PARA", None).unwrap();
        db.create_index("PARA", "year", IndexKind::Hash).unwrap();
        let mut txn = db.begin();
        let oid = db.create_object(&mut txn, c).unwrap();
        db.set_attr(&mut txn, oid, "year", Value::Int(1994))
            .unwrap();
        db.delete_object(&mut txn, oid).unwrap();
        db.commit(txn).unwrap();
        assert!(db
            .indexes()
            .lookup_eq(c, "year", &Value::Int(1994))
            .unwrap()
            .is_empty());
    }
}
