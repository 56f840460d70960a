#![warn(missing_docs)]

//! `oodb` — an object-oriented database management system.
//!
//! This crate is the stand-in for VODAK in the reproduction of *"Applying
//! a Flexible OODBMS-IRS-Coupling to Structured Document Handling"*
//! (Volz, Aberer, Böhm — ICDE 1996). It provides the OODBMS feature set
//! the paper's Section 1.1 enumerates: persistence (write-ahead log +
//! snapshots with recovery), transactions, declarative access (a VQL-like
//! query language with method calls), complex objects, object identity,
//! classes with inheritance, and extensibility (an application-defined
//! method registry — the hook through which the coupling registers
//! `getIRSValue` and friends).
//!
//! # Quick start
//!
//! ```
//! use oodb::{Database, Value};
//!
//! let mut db = Database::in_memory();
//! let para = db.define_class("PARA", None).unwrap();
//! let mut txn = db.begin();
//! let oid = db.create_object(&mut txn, para).unwrap();
//! db.set_attr(&mut txn, oid, "content", Value::from("Telnet is a protocol")).unwrap();
//! db.commit(txn).unwrap();
//!
//! let rows = db.query("ACCESS p FROM p IN PARA WHERE p -> getAttributeValue('content') != NULL").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub mod database;
pub mod error;
pub mod index;
pub mod method;
pub mod object;
pub mod oid;
pub mod query;
pub mod schema;
pub mod store;
pub mod txn;
pub mod value;

pub use database::Database;
pub use error::{DbError, Result};
pub use method::{MethodCost, MethodCtx, MethodRegistry};
pub use object::Object;
pub use oid::Oid;
pub use query::Row;
pub use schema::{ClassId, Schema};
pub use txn::Txn;
pub use value::Value;
