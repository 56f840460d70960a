//! Multi-user access: the paper's requirement (2) includes "managing
//! structured data in multi-user environments". Queries take `&self` —
//! the IRS index is sharded behind per-shard `RwLock`s and the result
//! buffer uses interior mutability — so many threads evaluate against
//! ONE shared collection without a global write lock. These tests
//! exercise that under real threads.

use std::sync::atomic::{AtomicUsize, Ordering};

use coupling::{CollectionSetup, DocumentSystem};
use sgml::gen::topic_term;
use sgml::{CorpusConfig, CorpusGenerator};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn system_is_send_and_sync() {
    assert_send_sync::<DocumentSystem>();
    assert_send_sync::<oodb::Database>();
    assert_send_sync::<irs::IrsCollection>();
    assert_send_sync::<coupling::Collection>();
}

fn corpus_system() -> DocumentSystem {
    let mut generator = CorpusGenerator::new(CorpusConfig {
        docs: 12,
        topics: 6,
        vocabulary: 400,
        ..CorpusConfig::default()
    });
    let mut sys = DocumentSystem::new();
    for doc in generator.generate_corpus() {
        sys.load_generated(&doc).unwrap();
    }
    sys.create_collection("coll", CollectionSetup::default())
        .unwrap();
    sys.index_collection("coll", "ACCESS p FROM p IN PARA")
        .unwrap();
    sys
}

#[test]
fn concurrent_mixed_queries_agree_with_serial_execution() {
    let sys = corpus_system();

    // Serial baseline.
    let serial: Vec<usize> = (0..6)
        .map(|t| {
            sys.query(&format!(
                "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, '{}') > 0.45",
                topic_term(t)
            ))
            .unwrap()
            .len()
        })
        .collect();

    // Concurrent: 6 threads, each hammering one topic query 10 times.
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for (t, &expected) in serial.iter().enumerate() {
            let sys = &sys;
            let failures = &failures;
            scope.spawn(move || {
                for _ in 0..10 {
                    let got = sys
                        .query(&format!(
                            "ACCESS p FROM p IN PARA WHERE p -> getIRSValue(coll, '{}') > 0.45",
                            topic_term(t)
                        ))
                        .unwrap()
                        .len();
                    if got != expected {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 0);

    // The buffer served the repeats: at most one IRS call per topic.
    let calls = sys.collection("coll").unwrap().stats().irs_calls;
    assert!(
        calls <= 6 + 6,
        "60 probes per topic collapse to ~1 IRS call each, got {calls}"
    );
}

#[test]
fn eight_threads_share_one_collection_through_shared_refs() {
    let sys = corpus_system();

    // Serial baseline, computed through the same read-only access path.
    let handle = sys.collection("coll").unwrap();
    let coll = &*handle;
    let baseline: Vec<usize> = (0..6)
        .map(|t| coll.evaluate_uncached(&topic_term(t)).unwrap().len())
        .collect();

    // 8 threads hold the SAME `&Collection` concurrently; each round
    // alternates between raw sharded-index evaluation and the buffered
    // getIRSResult path. No thread takes a write lock anywhere.
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..8 {
            let failures = &failures;
            let baseline = &baseline;
            scope.spawn(move || {
                for round in 0..6 {
                    let t = (i + round) % 6;
                    let got = if round % 2 == 0 {
                        coll.evaluate_uncached(&topic_term(t)).unwrap().len()
                    } else {
                        coll.get_irs_result(&topic_term(t)).unwrap().len()
                    };
                    if got != baseline[t] {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every thread saw the serial results"
    );

    // The shared buffer absorbed the repeated getIRSResult probes.
    let stats = handle.buffer_stats();
    assert!(stats.hits > 0, "concurrent probes hit the shared buffer");
}

#[test]
fn batched_indexing_matches_serial_under_concurrent_readers() {
    use irs::{CollectionConfig, IrsCollection};

    let docs: Vec<(String, String)> = (0..64)
        .map(|i| {
            (
                format!("doc{i:03}"),
                format!(
                    "shared corpus text about {} and retrieval",
                    topic_term(i % 6)
                ),
            )
        })
        .collect();

    let mut serial = IrsCollection::new(CollectionConfig::default());
    for (key, text) in &docs {
        serial.add_document(key, text).unwrap();
    }
    let mut batched = IrsCollection::new(CollectionConfig::default());
    batched.add_documents(&docs).unwrap();

    // Identical result sets for every topic, probed from 4 reader
    // threads sharing both collections.
    let serial = &serial;
    let batched = &batched;
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let q = topic_term(t);
                let a: Vec<_> = serial.search(&q).unwrap();
                let b: Vec<_> = batched.search(&q).unwrap();
                assert_eq!(a.len(), b.len(), "same hit count for {q}");
            });
        }
    });
}

#[test]
fn concurrent_reads_on_different_collections_do_not_interfere() {
    let mut sys = corpus_system();
    sys.create_collection("collDoc", CollectionSetup::default())
        .unwrap();
    sys.index_collection("collDoc", "ACCESS d FROM d IN MMFDOC")
        .unwrap();
    let sys = &sys;

    std::thread::scope(|scope| {
        let a = scope.spawn(move || {
            (0..20)
                .map(|i| {
                    sys.collection("coll")
                        .unwrap()
                        .get_irs_result(&topic_term(i % 6))
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        });
        let b = scope.spawn(move || {
            (0..20)
                .map(|i| {
                    sys.collection("collDoc")
                        .unwrap()
                        .get_irs_result(&topic_term(i % 6))
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        });
        assert!(a.join().unwrap() > 0);
        assert!(b.join().unwrap() > 0);
    });
}

/// Live `df` is maintained state: a delete bumps each of its terms' dead
/// counts, and a reader pins the store for its whole query. Readers that
/// compare every term's O(1) `df` with the `is_live`-filtered count of its
/// list, each under a single `reader()`, must never see the two disagree
/// while another thread updates and deletes — which they would if the
/// counts changed outside the store write lock.
#[test]
fn live_df_agrees_with_the_pinned_store_under_concurrent_deletes() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    use irs::analysis::{Analyzer, AnalyzerConfig};
    use irs::{DocId, ShardedIndex};

    const DOCS: usize = 64;
    const WORDS: [&str; 5] = ["shared", "alpha", "beta", "gamma", "delta"];
    let ix = ShardedIndex::with_shards(Analyzer::new(AnalyzerConfig::default()), 3);
    for i in 0..DOCS {
        ix.add_document(
            &format!("d{i}"),
            &format!("shared {} {}", WORDS[i % 5], WORDS[(i / 5) % 5]),
        )
        .unwrap();
    }
    let terms: Vec<String> = WORDS
        .iter()
        .map(|w| ix.analyzer().analyze_term(w))
        .collect();

    let readers = 2;
    let start = Barrier::new(readers + 1);
    let done = AtomicBool::new(false);
    let checks = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..readers {
            scope.spawn(|| {
                start.wait();
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let reader = ix.reader();
                    for term in &terms {
                        let df = reader.term_summary(term).map_or(0, |(df, _)| df);
                        let live = reader.term_postings(term).map_or(0, |list| {
                            list.doc_tfs()
                                .filter(|&(d, _)| reader.is_live(DocId(d)))
                                .count() as u32
                        });
                        if df != live {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    checks.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            for round in 0..3_000 {
                let key = format!("d{}", round % DOCS);
                if round % 3 == 0 {
                    ix.delete_document(&key).unwrap();
                    ix.add_document(&key, WORDS[round % 5]).unwrap();
                } else {
                    let text = format!("shared {} {}", WORDS[round % 5], WORDS[(round / 7) % 5]);
                    ix.update_document(&key, &text).unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    });
    assert!(checks.load(Ordering::Relaxed) >= readers);
    assert_eq!(mismatches.load(Ordering::Relaxed), 0);
}
