//! The IRS query language.
//!
//! Queries are strings in an INQUERY-style operator syntax — the paper's
//! coupling passes them verbatim from the OODBMS method `getIRSValue` to
//! the IRS (Section 4.2), and Section 4.5.4 requires "precise knowledge of
//! the IRS-operators' semantics" so they can be duplicated as collection
//! methods. Grammar:
//!
//! ```text
//! query   := expr+                      (top-level list → implicit #sum)
//! expr    := term
//!          | '"' term+ '"'             (phrase)
//!          | '#' NAME '(' args ')'     (operator)
//! args    := expr+                      for #and #or #sum #max #phrase
//!          | expr                       for #not
//!          | (weight expr)+             for #wsum
//! ```
//!
//! Examples: `WWW`, `#and(WWW NII)`, `#wsum(2 WWW 1 NII)`,
//! `"information retrieval"`.

mod ast;
mod eval;
mod parser;
mod stats;
mod topk;

pub use ast::QueryNode;
pub use eval::{evaluate, ScoredDocs};
pub use parser::parse_query;
pub use stats::{collect_globals, QueryGlobals, TermGlobals};
pub use topk::{
    evaluate_top_k, evaluate_top_k_with_globals, evaluate_top_k_with_strategy, PruneStrategy,
};
pub(crate) use topk::{evaluate_top_k_counted, TopKCounters};
