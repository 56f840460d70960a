//! Shared workload construction: a generated MMF corpus loaded into a
//! [`DocumentSystem`], with ground-truth bookkeeping for quality metrics.

use std::collections::BTreeMap;

use coupling::{CollectionSetup, DocumentSystem};
use oodb::Oid;
use sgml::gen::{topic_term, ParaTruth};
use sgml::{CorpusConfig, CorpusGenerator, GeneratedDoc};

/// Workload parameters (a thin wrapper over the corpus generator's
/// config plus system-level choices).
#[derive(Debug, Clone, Default)]
pub struct WorkloadConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
}

impl WorkloadConfig {
    /// A small workload for fast unit tests.
    pub fn small() -> Self {
        WorkloadConfig {
            corpus: CorpusConfig {
                docs: 30,
                topics: 8,
                vocabulary: 800,
                ..CorpusConfig::default()
            },
        }
    }

    /// The standard experiment workload.
    pub fn standard() -> Self {
        WorkloadConfig {
            corpus: CorpusConfig {
                docs: 120,
                topics: 12,
                vocabulary: 3_000,
                ..CorpusConfig::default()
            },
        }
    }
}

/// Ground truth for one loaded document.
#[derive(Debug, Clone)]
pub struct DocTruth {
    /// Root object OID.
    pub root: Oid,
    /// Document topics.
    pub topics: Vec<usize>,
    /// `(paragraph OID, paragraph topics)` pairs.
    pub paras: Vec<(Oid, Vec<usize>)>,
}

/// A corpus loaded into a [`DocumentSystem`], with truth lookup tables.
pub struct CorpusSystem {
    /// The integrated system.
    pub sys: DocumentSystem,
    /// Per-document ground truth, in generation order.
    pub docs: Vec<DocTruth>,
    /// Number of topics in the corpus.
    pub topics: usize,
    /// OID → document index, for mapping IRS results back to truth.
    /// Ordered by OID, so every experiment that walks it repeats exactly.
    pub doc_of_root: BTreeMap<Oid, usize>,
    /// Paragraph OID → (document index, topics), ordered by OID.
    pub para_truth: BTreeMap<Oid, (usize, Vec<usize>)>,
}

impl CorpusSystem {
    /// True if document `root` is relevant to all `topics`.
    pub fn doc_relevant(&self, root: Oid, topics: &[usize]) -> bool {
        self.doc_of_root
            .get(&root)
            .map(|&i| topics.iter().all(|t| self.docs[i].topics.contains(t)))
            .unwrap_or(false)
    }

    /// True if paragraph `oid` is relevant to topic `t`.
    pub fn para_relevant(&self, oid: Oid, t: usize) -> bool {
        self.para_truth
            .get(&oid)
            .map(|(_, ts)| ts.contains(&t))
            .unwrap_or(false)
    }

    /// Root OIDs in generation order.
    pub fn roots(&self) -> Vec<Oid> {
        self.docs.iter().map(|d| d.root).collect()
    }
}

/// Generate a corpus and load it into a fresh system. No collections are
/// created — each experiment sets up the collections it compares.
pub fn build_corpus_system(config: &WorkloadConfig) -> CorpusSystem {
    let mut generator = CorpusGenerator::new(config.corpus.clone());
    let corpus: Vec<GeneratedDoc> = generator.generate_corpus();
    let mut sys = DocumentSystem::new();
    let mut docs = Vec::with_capacity(corpus.len());
    let mut doc_of_root = BTreeMap::new();
    let mut para_truth = BTreeMap::new();

    for (i, gdoc) in corpus.iter().enumerate() {
        let loaded = sys.load_generated(gdoc).expect("generated documents load");
        let mut paras = Vec::new();
        for ParaTruth { node, topics } in &gdoc.paras {
            let oid = loaded.oid_of(*node).expect("paragraph nodes are elements");
            paras.push((oid, topics.clone()));
            para_truth.insert(oid, (i, topics.clone()));
        }
        doc_of_root.insert(loaded.root, i);
        docs.push(DocTruth {
            root: loaded.root,
            topics: gdoc.topics.clone(),
            paras,
        });
    }

    CorpusSystem {
        sys,
        docs,
        topics: config.corpus.topics,
        doc_of_root,
        para_truth,
    }
}

/// Create a paragraph-level collection named `name` with `setup` and
/// index every PARA — the configuration most experiments start from.
pub fn with_para_collection(cs: &mut CorpusSystem, name: &str, setup: CollectionSetup) {
    cs.sys.create_collection(name, setup).expect("fresh name");
    cs.sys
        .index_collection(name, "ACCESS p FROM p IN PARA")
        .expect("indexing succeeds");
}

/// The `#and` conjunction query of two topic terms — the Figure 4 query
/// shape.
pub fn and_query(a: usize, b: usize) -> String {
    format!("#and({} {})", topic_term(a), topic_term(b))
}

/// All topic pairs `(a, b)` with `a < b` that at least one corpus
/// document is relevant to (so quality metrics are defined).
pub fn relevant_topic_pairs(cs: &CorpusSystem) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for a in 0..cs.topics {
        for b in (a + 1)..cs.topics {
            if cs
                .docs
                .iter()
                .any(|d| d.topics.contains(&a) && d.topics.contains(&b))
            {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_system_builds_with_truth() {
        let cs = build_corpus_system(&WorkloadConfig::small());
        assert_eq!(cs.docs.len(), 30);
        assert_eq!(cs.doc_of_root.len(), 30);
        assert!(!cs.para_truth.is_empty());
        // Truth lookups agree with the tables.
        let d = &cs.docs[0];
        assert!(cs.doc_relevant(d.root, &d.topics));
        assert!(!cs.doc_relevant(d.root, &[usize::MAX]));
    }

    #[test]
    fn para_collection_indexes_all_paragraphs() {
        let mut cs = build_corpus_system(&WorkloadConfig::small());
        with_para_collection(&mut cs, "collPara", CollectionSetup::default());
        let total_paras: usize = cs.docs.iter().map(|d| d.paras.len()).sum();
        let indexed = cs.sys.collection("collPara").unwrap().len();
        assert_eq!(indexed, total_paras);
    }

    #[test]
    fn topic_pairs_are_nonempty_and_relevant() {
        let cs = build_corpus_system(&WorkloadConfig::small());
        let pairs = relevant_topic_pairs(&cs);
        assert!(!pairs.is_empty());
        for (a, b) in &pairs {
            assert!(cs
                .docs
                .iter()
                .any(|d| d.topics.contains(a) && d.topics.contains(b)));
        }
    }

    #[test]
    fn and_query_shape() {
        assert_eq!(and_query(1, 2), "#and(topic01 topic02)");
    }
}
