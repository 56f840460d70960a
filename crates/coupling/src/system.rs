//! The integrated document system: OODBMS + SGML framework + coupled IRS
//! collections, wired exactly as the paper's Figure 2 shows — an
//! application-specific schema (element-type classes under `IRSObject`)
//! plus a coupling-specific schema part (`COLLECTION` objects), with
//! `getIRSValue` available as a method inside the OODBMS query language.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use oodb::{Database, MethodCost, Oid, Row, Value};
use sgml::{load_document, parse_document, validate, Dtd, GeneratedDoc, LoadedDoc};

use crate::collection::{Collection, CollectionSetup};
use crate::error::{CouplingError, Result};
use crate::propagate::{PendingOp, Propagator};

/// Shared registry of coupled collections, writable from inside query
/// method calls.
type Registry = Arc<RwLock<HashMap<String, Collection>>>;

/// The integrated system.
pub struct DocumentSystem {
    db: Database,
    collections: Registry,
}

impl Default for DocumentSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentSystem {
    /// Create a fresh system: defines the coupling classes (`IRSObject`,
    /// `COLLECTION`) and registers `getIRSValue` / `getText` as OODBMS
    /// methods (`getIRSValue` is marked *expensive* so the optimizer
    /// evaluates it after all cheap predicates — Section 4.5.4).
    pub fn new() -> Self {
        Self::from_database(Database::in_memory()).expect("fresh database wires up")
    }

    /// Wrap an existing database (typically one reopened from disk by
    /// [`crate::persist::open_system`]): coupling classes are defined if
    /// missing, methods are (re-)registered, and every stored
    /// `COLLECTION` object's name is re-bound as a query constant.
    pub fn from_database(mut db: Database) -> Result<Self> {
        for class in ["IRSObject", "COLLECTION"] {
            if db.schema().class_id(class).is_err() {
                db.define_class(class, None)?;
            }
        }

        let collections: Registry = Arc::new(RwLock::new(HashMap::new()));

        // getIRSValue(collection, query) — the paper's central method:
        // "with this method each object knows its IRS value" (4.2).
        let reg = Arc::clone(&collections);
        db.methods_mut().register(
            "getIRSValue",
            MethodCost::Expensive,
            move |ctx, oid, args| {
                let (coll_arg, query) = match args {
                    [c, Value::Str(q)] => (c, q.as_str()),
                    _ => {
                        return Err(oodb::DbError::BadMethodArgs {
                            method: "getIRSValue".into(),
                            reason: "expected (collection, query-string)".into(),
                        })
                    }
                };
                // The collection argument is either the COLLECTION object's
                // OID (the paper's style) or the collection name directly.
                let name = match coll_arg {
                    Value::Oid(coid) => match ctx.store.attr(*coid, "name")? {
                        Value::Str(n) => n,
                        _ => {
                            return Err(oodb::DbError::BadMethodArgs {
                                method: "getIRSValue".into(),
                                reason: "collection object lacks a name".into(),
                            })
                        }
                    },
                    Value::Str(n) => n.clone(),
                    other => {
                        return Err(oodb::DbError::BadMethodArgs {
                            method: "getIRSValue".into(),
                            reason: format!("bad collection argument {other}"),
                        })
                    }
                };
                // Read lock only: `get_irs_value` works through `&self`
                // (sharded index + interior-mutable buffer), so concurrent
                // query threads evaluate IRS predicates without serializing
                // on the registry.
                let colls = reg.read();
                let coll = colls
                    .get(&name)
                    .ok_or_else(|| oodb::DbError::BadMethodArgs {
                        method: "getIRSValue".into(),
                        reason: format!("unknown collection {name:?}"),
                    })?;
                let value = coll
                    .get_irs_value(ctx, query, oid)
                    .map_err(|e| oodb::DbError::QueryEval(format!("IRS failure: {e}")))?;
                Ok(Value::Real(value))
            },
        );

        // getText(mode) — full-subtree text (mode 0) or direct text
        // (mode 1), callable from queries.
        db.methods_mut()
            .register("getText", MethodCost::Cheap, |ctx, oid, args| {
                let mode = args.first().and_then(Value::as_f64).unwrap_or(0.0) as i64;
                let text = match mode {
                    1 => crate::textmode::direct_text(ctx, oid),
                    _ => crate::textmode::subtree_text(ctx, oid),
                };
                Ok(Value::from(text))
            });

        // Rebind query constants for collections already stored in the
        // database (constants are not persisted).
        let coll_class = db.schema().class_id("COLLECTION")?;
        let bindings: Vec<(String, Oid)> = db
            .extent(coll_class, false)
            .into_iter()
            .filter_map(|oid| {
                db.get_attr(oid, "name")
                    .ok()
                    .and_then(|v| v.as_str().map(|s| (s.to_string(), oid)))
            })
            .collect();
        for (name, oid) in bindings {
            db.define_constant(&name, Value::Oid(oid));
        }

        Ok(DocumentSystem { db, collections })
    }

    /// Register an already-built collection (used when rehydrating from
    /// disk). A `COLLECTION` object and query constant are created if
    /// the database does not already carry them.
    pub fn adopt_collection(&mut self, coll: Collection) -> Result<()> {
        let name = coll.name().to_string();
        if self.collections.read().contains_key(&name) {
            return Err(CouplingError::DuplicateCollection(name));
        }
        if self.db.constant(&name).is_none() {
            let class = self.db.schema().class_id("COLLECTION")?;
            let mut txn = self.db.begin();
            let oid = self.db.create_object(&mut txn, class)?;
            self.db
                .set_attr(&mut txn, oid, "name", Value::from(name.as_str()))?;
            self.db.commit(txn)?;
            self.db.define_constant(&name, Value::Oid(oid));
        }
        self.collections.write().insert(name, coll);
        Ok(())
    }

    /// Convenience: update an object's `text` in one transaction and
    /// record the modification with each collection's propagator — the
    /// paper's "one out of three update methods … has to be invoked
    /// whenever a relevant update occurs" (Section 4.2), wired so
    /// applications cannot forget the IRS side. Each collection keeps
    /// its own propagator (its own pending log and strategy).
    pub fn update_text(
        &mut self,
        oid: Oid,
        new_text: &str,
        targets: &mut [(&str, &mut Propagator)],
    ) -> Result<()> {
        self.update_texts(&[(oid, new_text.to_string())], targets)
    }

    /// Batched [`DocumentSystem::update_text`]: apply several text
    /// replacements in one transaction, then record the affected objects
    /// with each collection's propagator via
    /// [`Propagator::record_batch`] (one journal sync for the batch, one
    /// to settle, per collection). The task executor runs the same
    /// phases but releases the system lock around both syncs.
    pub fn update_texts(
        &mut self,
        updates: &[(Oid, String)],
        targets: &mut [(&str, &mut Propagator)],
    ) -> Result<()> {
        self.set_texts(updates)?;
        for (name, propagator) in targets.iter_mut() {
            let ops = self.text_change_ops(name, updates)?;
            let mut coll = self.collection_mut(name)?;
            let ctx = coll.db().method_ctx();
            propagator.record_batch(&ctx, &mut coll, &ops)?;
        }
        Ok(())
    }

    /// Replace the `text` of every object in `updates`, in one
    /// transaction.
    pub(crate) fn set_texts(&mut self, updates: &[(Oid, String)]) -> Result<()> {
        let mut txn = self.db.begin();
        for (oid, new_text) in updates {
            self.db
                .set_attr(&mut txn, *oid, "text", Value::from(new_text.as_str()))?;
        }
        self.db.commit(txn)?;
        Ok(())
    }

    /// What changing the texts of `updates` asks collection `name` to
    /// propagate: a `Modify` of each changed object it represents and of
    /// every represented ancestor (subtree text modes embed descendants'
    /// text). Depends on the tree and the collection, not on the texts.
    pub(crate) fn text_change_ops(
        &self,
        name: &str,
        updates: &[(Oid, String)],
    ) -> Result<Vec<PendingOp>> {
        let coll = self.collection(name)?;
        let ctx = coll.db().method_ctx();
        Ok(updates
            .iter()
            .flat_map(|(oid, _)| coll.affected_by_text_change(&ctx, *oid))
            .map(PendingOp::Modify)
            .collect())
    }

    /// The underlying database (read-only).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The underlying database (mutable — schema work, transactions).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    // ------------------------------------------------------------------
    // Document loading
    // ------------------------------------------------------------------

    /// Parse and load an SGML document; element-type classes are created
    /// under `IRSObject` automatically (Section 4.1).
    pub fn load_sgml(&mut self, text: &str) -> Result<LoadedDoc> {
        let tree = parse_document(text)?;
        let mut txn = self.db.begin();
        let loaded = load_document(&mut self.db, &mut txn, &tree, "IRSObject")?;
        self.db.commit(txn)?;
        Ok(loaded)
    }

    /// Like [`DocumentSystem::load_sgml`] but validates against `dtd`
    /// first.
    pub fn load_sgml_validated(&mut self, text: &str, dtd: &Dtd) -> Result<LoadedDoc> {
        let tree = parse_document(text)?;
        validate(dtd, &tree)?;
        let mut txn = self.db.begin();
        let loaded = load_document(&mut self.db, &mut txn, &tree, "IRSObject")?;
        self.db.commit(txn)?;
        Ok(loaded)
    }

    /// Load a generated corpus document (experiments).
    pub fn load_generated(&mut self, doc: &GeneratedDoc) -> Result<LoadedDoc> {
        let mut txn = self.db.begin();
        let loaded = load_document(&mut self.db, &mut txn, &doc.tree, "IRSObject")?;
        self.db.commit(txn)?;
        Ok(loaded)
    }

    // ------------------------------------------------------------------
    // Collections
    // ------------------------------------------------------------------

    /// Create a coupled collection. A `COLLECTION` database object is
    /// created to carry its identity, and the collection name becomes a
    /// query constant, so the paper's `p -> getIRSValue(collPara, 'WWW')`
    /// works verbatim. Returns the COLLECTION object's OID.
    pub fn create_collection(&mut self, name: &str, setup: CollectionSetup) -> Result<Oid> {
        {
            let colls = self.collections.read();
            if colls.contains_key(name) {
                return Err(CouplingError::DuplicateCollection(name.to_string()));
            }
        }
        let class = self.db.schema().class_id("COLLECTION")?;
        let mut txn = self.db.begin();
        let oid = self.db.create_object(&mut txn, class)?;
        self.db.set_attr(&mut txn, oid, "name", Value::from(name))?;
        self.db.commit(txn)?;
        self.db.define_constant(name, Value::Oid(oid));
        self.collections
            .write()
            .insert(name.to_string(), Collection::new(name, setup));
        Ok(oid)
    }

    /// Run `indexObjects` on a collection with the given specification
    /// query.
    pub fn index_collection(&mut self, name: &str, spec_query: &str) -> Result<usize> {
        let mut colls = self.collections.write();
        let coll = colls
            .get_mut(name)
            .ok_or_else(|| CouplingError::UnknownCollection(name.to_string()))?;
        coll.index_objects(&self.db, spec_query)
    }

    /// The shared collection registry (handle construction lives in
    /// [`crate::handle`]).
    pub(crate) fn registry(&self) -> &Registry {
        &self.collections
    }

    /// Names of registered collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Run a (possibly mixed) query in the OODBMS query language.
    pub fn query(&self, text: &str) -> Result<Vec<Row>> {
        Ok(self.db.query(text)?)
    }

    /// Run a query and return the optimizer's plan description too.
    pub fn query_explain(&self, text: &str) -> Result<(Vec<Row>, String)> {
        Ok(self.db.query_explain(text)?)
    }
}

impl std::fmt::Debug for DocumentSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocumentSystem")
            .field("objects", &self.db.store().len())
            .field("collections", &self.collection_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgml::mmf::{mmf_dtd, telnet_example};

    fn loaded_system() -> DocumentSystem {
        let mut sys = DocumentSystem::new();
        sys.load_sgml(telnet_example()).unwrap();
        sys.load_sgml(
            "<MMFDOC YEAR=\"1994\"><DOCTITLE>Networking</DOCTITLE>\
             <PARA>the www is growing fast</PARA>\
             <PARA>the nii will connect the www to everyone</PARA></MMFDOC>",
        )
        .unwrap();
        sys.create_collection("collPara", CollectionSetup::default())
            .unwrap();
        sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
            .unwrap();
        sys
    }

    #[test]
    fn paper_first_example_query_runs() {
        let sys = loaded_system();
        // Section 4.4: "Select all paragraphs and their length having an
        // IRS value greater than 0.6 according to 'WWW'". (Our inference
        // beliefs for single-occurrence terms in a 4-document collection
        // sit near 0.5, so the test threshold is 0.45; the query shape is
        // the paper's.)
        let rows = sys
            .query(
                "ACCESS p, p -> length() FROM p IN PARA \
                 WHERE p -> getIRSValue (collPara, 'WWW') > 0.45",
            )
            .unwrap();
        assert!(!rows.is_empty(), "www paragraphs found");
        for r in &rows {
            assert!(r.oid().is_some());
            assert!(r.col(1).as_f64().unwrap() > 0.0, "length projected");
        }
    }

    #[test]
    fn paper_second_example_query_runs() {
        let sys = loaded_system();
        // Section 4.4: title of each 1994 document containing a paragraph
        // relevant to 'WWW' immediately followed by one relevant to 'NII'.
        let rows = sys
            .query(
                "ACCESS d -> getAttributeValue ('TITLE'), d \
                 FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA \
                 WHERE d -> getAttributeValue ('YEAR') = '1994' AND \
                 p1 -> getNext() == p2 AND \
                 p1 -> getContaining ('MMFDOC') == d AND \
                 p1 -> getIRSValue (collPara, 'WWW') > 0.4 AND \
                 p2 -> getIRSValue (collPara, 'NII') > 0.4",
            )
            .unwrap();
        assert_eq!(rows.len(), 1, "exactly the 1994 networking issue");
    }

    #[test]
    fn giv_accepts_name_or_oid() {
        let sys = loaded_system();
        let by_const = sys
            .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.5")
            .unwrap();
        let by_name = sys
            .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue('collPara', 'telnet') > 0.5")
            .unwrap();
        assert_eq!(by_const.len(), by_name.len());
        assert!(!by_const.is_empty());
    }

    #[test]
    fn derived_values_for_documents() {
        let sys = loaded_system();
        // MMFDOC objects are not represented in collPara; getIRSValue
        // falls through to deriveIRSValue over the paragraphs.
        let rows = sys
            .query(
                "ACCESS d FROM d IN MMFDOC \
                 WHERE d -> getIRSValue(collPara, 'telnet') > 0.5",
            )
            .unwrap();
        assert_eq!(rows.len(), 1, "only the Telnet issue derives high");
        let derivations = sys.collection("collPara").unwrap().stats().derivations;
        assert!(derivations >= 2, "each document derived");
    }

    #[test]
    fn expensive_irs_method_is_planned_last() {
        let sys = loaded_system();
        let (_, plan) = sys
            .query_explain(
                "ACCESS p FROM p IN PARA WHERE \
                 p -> getIRSValue(collPara, 'www') > 0.4 AND \
                 p -> getAttributeValue('text') != NULL",
            )
            .unwrap();
        assert!(plan.contains("1 expensive"), "plan: {plan}");
    }

    #[test]
    fn duplicate_and_unknown_collections_error() {
        let mut sys = loaded_system();
        assert!(matches!(
            sys.create_collection("collPara", CollectionSetup::default()),
            Err(CouplingError::DuplicateCollection(_))
        ));
        assert!(matches!(
            sys.index_collection("nope", "ACCESS p FROM p IN PARA"),
            Err(CouplingError::UnknownCollection(_))
        ));
        assert!(matches!(
            sys.collection_mut("nope"),
            Err(CouplingError::UnknownCollection(_))
        ));
    }

    #[test]
    fn unknown_collection_inside_query_surfaces_cleanly() {
        let sys = loaded_system();
        let err = sys.query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue('ghost', 'x') > 0.1");
        assert!(err.is_err());
    }

    #[test]
    fn validated_load_rejects_invalid_documents() {
        let mut sys = DocumentSystem::new();
        let dtd = mmf_dtd();
        assert!(sys
            .load_sgml_validated("<MMFDOC><PARA>no title</PARA></MMFDOC>", &dtd)
            .is_err());
        sys.load_sgml_validated(telnet_example(), &dtd).unwrap();
    }

    #[test]
    fn multiple_overlapping_collections() {
        // "specification of arbitrary (potentially overlapping) document
        // collections" (Section 1.3).
        let mut sys = loaded_system();
        sys.create_collection("collDoc", CollectionSetup::default())
            .unwrap();
        sys.index_collection("collDoc", "ACCESS d FROM d IN MMFDOC")
            .unwrap();
        sys.create_collection("collAll", CollectionSetup::default())
            .unwrap();
        sys.index_collection("collAll", "ACCESS o FROM o IN IRSObject")
            .unwrap();
        assert_eq!(
            sys.collection_names(),
            vec!["collAll", "collDoc", "collPara"]
        );
        // The same paragraph answers through different collections.
        let rows = sys
            .query(
                "ACCESS p FROM p IN PARA WHERE \
                 p -> getIRSValue(collPara, 'telnet') > 0.45 AND \
                 p -> getIRSValue(collAll, 'telnet') > 0.45",
            )
            .unwrap();
        assert!(!rows.is_empty());
    }

    #[test]
    fn update_text_records_for_every_collection() {
        use crate::propagate::{PropagationStrategy, Propagator};
        let mut sys = loaded_system();
        sys.create_collection("collAll", CollectionSetup::default())
            .unwrap();
        sys.index_collection("collAll", "ACCESS o FROM o IN IRSObject")
            .unwrap();
        let para = sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
            .oid()
            .unwrap();

        let mut prop_para = Propagator::new(PropagationStrategy::Deferred);
        let mut prop_all = Propagator::new(PropagationStrategy::Eager);
        sys.update_text(
            para,
            "gopher replaces everything",
            &mut [("collPara", &mut prop_para), ("collAll", &mut prop_all)],
        )
        .unwrap();
        // Deferred: pending; eager: already applied. collAll represents
        // the paragraph AND its ancestors (DOCTITLE aside), so the
        // cascade re-indexed paragraph + document.
        assert_eq!(prop_para.pending().len(), 1);
        assert_eq!(
            prop_all.stats().applied,
            2,
            "paragraph + enclosing document"
        );
        let visible_in_all = sys
            .collection("collAll")
            .unwrap()
            .get_irs_result("gopher")
            .unwrap()
            .len();
        assert_eq!(
            visible_in_all, 2,
            "eager collection sees the change in the paragraph and its document"
        );
        let visible_in_para = sys
            .collection("collPara")
            .unwrap()
            .get_irs_result("gopher")
            .unwrap()
            .len();
        assert_eq!(visible_in_para, 0, "deferred collection does not, yet");
        // Unknown collection surfaces cleanly.
        assert!(matches!(
            sys.update_text(para, "x", &mut [("ghost", &mut prop_para)]),
            Err(CouplingError::UnknownCollection(_))
        ));
    }

    #[test]
    fn get_text_method_in_queries() {
        let sys = loaded_system();
        let rows = sys
            .query("ACCESS d -> getText(0) FROM d IN MMFDOC")
            .unwrap();
        assert!(rows
            .iter()
            .any(|r| r.col(0).as_str().unwrap().contains("Telnet is a protocol")));
    }
}
