//! Benchmark harness for the reproduction.
//!
//! One module per experiment (see DESIGN.md's experiment index); each
//! exposes a `run` function returning a report. The summary binary
//! (`cargo run -p coupling-bench --bin experiments --release`) prints
//! the reports, and `tests/paper_claims.rs` pins every number in them
//! that is not a timing.

pub mod exp;
pub mod metrics;
pub mod workload;

pub use workload::{build_corpus_system, CorpusSystem, WorkloadConfig};
