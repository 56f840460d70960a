//! The corpus every workload shares, and the fixtures built from it.

use std::time::Instant;

use coupling::{CollectionSetup, DocumentSystem};
use oodb::Oid;
use sgml::{CorpusConfig, CorpusGenerator};

use crate::record::Metric;
use crate::stats::median;
use crate::stream::{COLLECTION, TOPICS, VOCABULARY};

pub const SPEC_QUERY: &str = "ACCESS p FROM p IN PARA";
/// `CollectionSetup::result_limit` of the collection, and the `k` of
/// every scattered search.
pub const RESULT_LIMIT: usize = 10;

pub fn corpus_config(seed: u64, docs: usize) -> CorpusConfig {
    CorpusConfig {
        docs,
        topics: TOPICS,
        vocabulary: VOCABULARY,
        seed,
        ..CorpusConfig::default()
    }
}

pub fn collection_setup() -> CollectionSetup {
    CollectionSetup::builder()
        .result_limit(RESULT_LIMIT)
        .build()
}

/// `indexObjects` as the task executor runs it: the batched path, which
/// hands every new object to one `IrsCollection::add_documents` call.
pub fn index_objects(sys: &DocumentSystem) -> usize {
    let mut coll = sys
        .collection_mut(COLLECTION)
        .expect("the collection was just created");
    let db = coll.db();
    coll.index_objects_batch(db, SPEC_QUERY)
        .expect("paragraphs index")
}

/// Generate, load and index: what every workload pays before its first
/// timed op.
pub fn build_system(seed: u64, docs: usize) -> DocumentSystem {
    let corpus = CorpusGenerator::new(corpus_config(seed, docs)).generate_corpus();
    let mut sys = DocumentSystem::new();
    for doc in &corpus {
        sys.load_generated(doc).expect("generated document loads");
    }
    sys.create_collection(COLLECTION, collection_setup())
        .expect("fresh collection");
    index_objects(&sys);
    sys
}

/// The PARA objects, ascending by oid.
pub fn para_oids(sys: &DocumentSystem) -> Vec<Oid> {
    let mut oids: Vec<Oid> = sys
        .query(SPEC_QUERY)
        .expect("specification query runs")
        .iter()
        .filter_map(|row| row.oid())
        .collect();
    oids.sort();
    oids
}

/// Build the fixture `reps` times and keep the last; `setup_s` is the
/// median build time, so one slow build does not move it. Earlier
/// fixtures are torn down (untimed) before the next build starts.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, Metric) {
    let mut times = Vec::with_capacity(reps);
    let mut fixture = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = fixture.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        fixture = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = Metric::new("setup_s", "s", median(&times), times.len() as u64);
    (fixture.expect("at least one build"), setup_s)
}
