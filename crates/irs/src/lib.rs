#![warn(missing_docs)]

//! `irs` — a self-contained information-retrieval system.
//!
//! This crate is the stand-in for INQUERY in the reproduction of
//! *"Applying a Flexible OODBMS-IRS-Coupling to Structured Document
//! Handling"* (Volz, Aberer, Böhm — ICDE 1996). Following the paper's model
//! of an IRS (Section 1.1), it administers named **collections** of flat
//! text documents: during indexing, documents are transformed into an
//! internal representation (a positional inverted index); queries are sets
//! of terms or structured operator expressions and return, per document, an
//! **IRS value** indicating supposed relevance.
//!
//! The crate is usable completely stand-alone (the paper's loose-coupling
//! argument requires the IRS to remain an independent system) and supports
//! multiple retrieval paradigms behind one trait, mirroring the paper's
//! claim that a loose coupling imposes "no confinement to a certain
//! retrieval paradigm":
//!
//! * [`model::BooleanModel`] — exact-match, scores in {0, 1};
//! * [`model::VectorModel`] — TF-IDF with pivoted length normalisation;
//! * [`model::Bm25Model`] — Okapi BM25 probabilistic ranking;
//! * [`model::InferenceModel`] — INQUERY-style inference-network beliefs
//!   with the operator algebra (`#and`, `#or`, `#not`, `#sum`, `#wsum`,
//!   `#max`, `#phrase`) the paper's Section 4.5.4 relies on.
//!
//! # Quick start
//!
//! ```
//! use irs::{IrsCollection, CollectionConfig};
//!
//! let mut coll = IrsCollection::new(CollectionConfig::default());
//! coll.add_document("doc-1", "Telnet is a protocol for remote login").unwrap();
//! coll.add_document("doc-2", "The WWW is built on hypertext").unwrap();
//! coll.commit();
//!
//! let hits = coll.search("protocol").unwrap();
//! assert_eq!(hits[0].key, "doc-1");
//! assert!(hits[0].score > 0.0);
//! ```

pub mod analysis;
pub mod collection;
pub mod error;
pub mod fault;
pub mod feedback;
pub mod index;
pub mod model;
pub mod persist;
pub mod query;

pub use collection::{CollectionConfig, CollectionStatistics, Hit, IrsCollection};
pub use error::{IrsError, Result};
pub use fault::{FaultPlan, OutageWindow};
pub use feedback::{expand_query, FeedbackConfig};
pub use index::{DocId, ShardedIndex, ShardedReader, DEFAULT_SHARDS};
pub use model::{
    Bm25Model, BooleanModel, InferenceModel, ModelKind, RetrievalModel, TermScorer, VectorModel,
};
pub use query::{
    collect_globals, evaluate_top_k, evaluate_top_k_with_globals, evaluate_top_k_with_strategy,
    parse_query, query_terms, PruneStrategy, QueryGlobals, QueryNode, TermGlobals,
};
