#![warn(missing_docs)]

//! `sgml` — SGML document handling: DTDs, document instances, validation,
//! the MMF document type, a synthetic corpus generator, and loading into
//! the OODBMS.
//!
//! The paper's application domain is the *MultiMedia Forum* (MMF), an
//! interactive online journal stored as SGML documents conforming to a
//! proprietary DTD (Section 1). Documents are "fragmented in accordance
//! with their logical structure, i.e., for each element … there
//! essentially is a corresponding database object" (Section 4.1). This
//! crate supplies everything up to that point:
//!
//! * [`dtd`] — a DTD subset: `<!ELEMENT>` declarations with full content
//!   models (sequence, choice, `?` `*` `+`, `#PCDATA`), `<!ATTLIST>`;
//! * [`doc`] — parsing SGML instances into document trees;
//! * [`validate`] — content-model validation of trees against a DTD;
//! * [`mmf`] — the MMF document type used by the experiments;
//! * [`gen`] — a seeded synthetic corpus generator standing in for the
//!   proprietary MMF corpus (topic-structured text with ground-truth
//!   relevance, so retrieval quality is measurable);
//! * [`load`] — fragmenting a tree into OODBMS objects, one per element,
//!   with element-type classes created on the fly (paper Section 4.1).

pub mod doc;
pub mod dtd;
pub mod error;
pub mod gen;
pub mod load;
pub mod mmf;
pub mod validate;

/// How deep either parser nests: elements inside elements in a
/// document, groups inside groups in a DTD content model. One level
/// deeper is a parse error at the offending offset, so hostile input
/// cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

pub use doc::{parse_document, DocTree, Node, NodeContent, NodeId};
pub use dtd::{parse_dtd, ContentSpec, Cp, CpKind, Dtd, ElementDecl, Occurrence};
pub use error::{Result, SgmlError};
pub use gen::{CorpusConfig, CorpusGenerator, GeneratedDoc};
pub use load::{load_document, LoadedDoc};
pub use validate::validate;
