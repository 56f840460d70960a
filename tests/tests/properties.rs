//! Cross-crate property-based tests: system-level invariants over random
//! corpora and operation sequences.

use coupling::{CollectionSetup, DerivationScheme, DocumentSystem};
use proptest::prelude::*;
use sgml::{CorpusConfig, CorpusGenerator};

/// Build a system from a generated corpus with the given seed.
fn seeded_system(seed: u64, docs: usize) -> (DocumentSystem, Vec<oodb::Oid>) {
    let mut generator = CorpusGenerator::new(CorpusConfig {
        docs,
        topics: 5,
        vocabulary: 300,
        seed,
        ..CorpusConfig::default()
    });
    let mut sys = DocumentSystem::new();
    let mut roots = Vec::new();
    for doc in generator.generate_corpus() {
        roots.push(sys.load_generated(&doc).expect("loads").root);
    }
    sys.create_collection("c", CollectionSetup::default())
        .expect("fresh");
    sys.index_collection("c", "ACCESS p FROM p IN PARA")
        .expect("indexes");
    (sys, roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Derived document values are beliefs: bounded to [0, 1] for every
    /// scheme except Sum (clamped anyway) on every random corpus.
    #[test]
    fn derived_values_are_bounded(seed in 0u64..500, topic in 0usize..5) {
        let (sys, roots) = seeded_system(seed, 6);
        let query = sgml::gen::topic_term(topic);
        for scheme in [
            DerivationScheme::Max,
            DerivationScheme::Avg,
            DerivationScheme::Sum,
            DerivationScheme::LengthWeighted,
            DerivationScheme::SubqueryAware,
        ] {
            let mut coll = sys.collection_mut("c").expect("collection exists");
            coll.set_derivation(scheme.clone());
            let ctx = coll.db().method_ctx();
            for &root in &roots {
                let v = coll.get_irs_value(&ctx, &query, root).expect("derives");
                prop_assert!((0.0..=1.0).contains(&v), "{scheme:?}: {v}");
            }
        }
    }

    /// The buffer never changes results: buffered and unbuffered
    /// evaluation agree exactly.
    #[test]
    fn buffering_is_transparent(seed in 0u64..500, topic in 0usize..5) {
        let (sys, _) = seeded_system(seed, 5);
        let query = sgml::gen::topic_term(topic);
        let coll = sys.collection("c").expect("collection exists");
        let direct = coll.evaluate_uncached(&query).expect("evaluates");
        let buffered = coll.get_irs_result(&query).expect("evaluates");
        let again = coll.get_irs_result(&query).expect("buffer hit");
        prop_assert_eq!(&direct, &buffered);
        prop_assert_eq!(&buffered, &again);
    }

    /// Re-indexing the same specification query is idempotent for search.
    #[test]
    fn reindexing_is_idempotent(seed in 0u64..200) {
        let (mut sys, _) = seeded_system(seed, 4);
        let query = sgml::gen::topic_term(1);
        let before = sys.collection("c").expect("collection exists")
            .get_irs_result(&query).expect("evaluates");
        sys.index_collection("c", "ACCESS p FROM p IN PARA").expect("reindex");
        let after = sys.collection("c").expect("collection exists")
            .get_irs_result(&query).expect("evaluates");
        prop_assert_eq!(before.len(), after.len());
        for (oid, v) in &before {
            let w = after.get(oid).copied().unwrap_or(-1.0);
            prop_assert!((v - w).abs() < 1e-9, "{oid}: {v} vs {w}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §4.5.4: the planner's answer names the same objects as both
    /// forced §4.5.3 orders — over random thresholds, every result
    /// limit, a class with subclasses, a segmented root and a stale
    /// content result — and its choice follows from the two
    /// cardinalities, the origin and the preference alone.
    #[test]
    fn mixed_planner_equals_both_forced_strategies(
        seed in 0u64..200,
        threshold in 0.0f64..0.7,
        limit_ix in 0usize..4,
        superclass in any::<bool>(),
        segmented in any::<bool>(),
        stale in any::<bool>(),
    ) {
        use coupling::mixed::{evaluate_mixed_planned, execute_mixed, MixedStrategy, PlanReason};
        use coupling::ResultOrigin;
        let (sys, roots) = seeded_system(seed, 5);
        let query = sgml::gen::topic_term(0);
        {
            let mut coll = sys.collection_mut("c").expect("collection exists");
            coll.set_result_limit([None, Some(1), Some(3), Some(10)][limit_ix]);
            if segmented {
                let db = coll.db();
                coll.index_segments(db, &roots[..1], 8).expect("segments index");
            }
            if stale {
                // Only the stale store holds the result, and the IRS is down.
                coll.get_irs_result(&query).expect("primes the buffer");
                coll.buffer().invalidate_all();
                let plan = std::sync::Arc::new(irs::FaultPlan::new(seed));
                plan.set_down(true);
                coll.inject_faults(Some(plan));
            }
        }
        let coll = sys.collection("c").expect("collection exists");
        let db = coll.db();
        // IRSObject is the superclass of every element class, so its
        // extent spans several per-class sets (and the segmented root).
        let class = if superclass { "IRSObject" } else { "PARA" };
        let class_id = db.schema().class_id(class).expect("class exists");
        let structural = |_: &oodb::Database, oid: oodb::Oid| oid.0.is_multiple_of(2);

        let (content, origin) = coll.get_irs_result_with_origin(&query).expect("content");
        prop_assert_eq!(origin == ResultOrigin::Stale, stale);
        let (independent, _) = execute_mixed(
            db, class_id, &structural, &content, threshold, MixedStrategy::Independent);
        let (irs_first, _) = execute_mixed(
            db, class_id, &structural, &content, threshold, MixedStrategy::IrsFirst);
        prop_assert_eq!(&independent, &irs_first);

        for preferred in [MixedStrategy::Independent, MixedStrategy::IrsFirst] {
            let (out, plan) = evaluate_mixed_planned(
                db, &coll, class, &structural, &query, threshold, preferred).expect("planned");
            prop_assert_eq!(&out.oids, &independent);
            prop_assert_eq!(out.strategy, plan.strategy);
            prop_assert_eq!(plan.extent_len, db.extent(class_id, true).len());
            prop_assert_eq!(plan.survivors, content.values().filter(|&&v| v > threshold).count());
            let expected = if stale {
                (MixedStrategy::Independent, PlanReason::StaleContent)
            } else if plan.survivors < plan.extent_len {
                (MixedStrategy::IrsFirst, PlanReason::FewerSurvivors)
            } else if plan.survivors > plan.extent_len {
                (MixedStrategy::Independent, PlanReason::SmallerExtent)
            } else {
                (preferred, PlanReason::Preference)
            };
            prop_assert_eq!((plan.strategy, plan.reason), expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Propagation equivalence: any Insert/Modify/Delete sequence applied
    /// eagerly yields the same final IRS index state as deferring it —
    /// even when the deferred log crosses a crash and is recovered from
    /// its durable journal before the flush.
    #[test]
    fn deferred_journal_replay_equals_eager(seed in 0u64..300, script in prop::collection::vec(0u8..6, 1..24)) {
        use coupling::{Collection, CollectionSetup, PendingOp, PropagationStrategy, Propagator};
        use oodb::{Database, Oid, Value};
        use sgml::{load_document, parse_document};

        let journal = std::env::temp_dir()
            .join("coupling-prop-journal")
            .join(format!("equiv-{seed}-{}.journal", script.len()));
        std::fs::create_dir_all(journal.parent().unwrap()).unwrap();
        let _ = std::fs::remove_file(&journal);

        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        let tree = parse_document(
            "<MMFDOC><PARA>telnet is a protocol</PARA><PARA>the www grows</PARA></MMFDOC>",
        ).unwrap();
        let mut txn = db.begin();
        load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap();
        db.commit(txn).unwrap();

        let mut eager_coll = Collection::new("e", CollectionSetup::default());
        eager_coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        let mut deferred_coll = Collection::new("d", CollectionSetup::default());
        deferred_coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();

        let mut eager = Propagator::new(PropagationStrategy::Eager);
        let mut deferred = Propagator::with_journal(PropagationStrategy::Deferred, &journal)
            .expect("journal opens");
        prop_assert!(deferred.pending().is_empty());

        // Interpret the script over a growing pool of objects. Words come
        // from a tiny vocabulary so modifications genuinely change hits.
        let vocab = ["telnet", "www", "nii", "gopher", "hypertext", "modem"];
        let mut pool: Vec<Oid> = Vec::new();
        let para_class = db.schema().class_id("PARA").unwrap();
        for (i, &b) in script.iter().enumerate() {
            let word = vocab[(seed as usize + i) % vocab.len()];
            let op = match b {
                0 | 1 => {
                    let mut txn = db.begin();
                    let oid = db.create_object(&mut txn, para_class).unwrap();
                    db.set_attr(&mut txn, oid, "text",
                        Value::from(format!("fresh {word} paragraph {i}"))).unwrap();
                    db.commit(txn).unwrap();
                    pool.push(oid);
                    PendingOp::Insert(oid)
                }
                2 | 3 if !pool.is_empty() => {
                    let oid = pool[(seed as usize + i) % pool.len()];
                    let mut txn = db.begin();
                    db.set_attr(&mut txn, oid, "text",
                        Value::from(format!("changed {word} text {i}"))).unwrap();
                    db.commit(txn).unwrap();
                    PendingOp::Modify(oid)
                }
                4 | 5 if !pool.is_empty() => {
                    let oid = pool.remove((seed as usize + i) % pool.len());
                    PendingOp::Delete(oid)
                }
                _ => continue,
            };
            let ctx = db.method_ctx();
            eager.record(&ctx, &mut eager_coll, op).unwrap();
            deferred.record(&ctx, &mut deferred_coll, op).unwrap();
        }

        // Crash: drop the deferred propagator with its log still pending,
        // then recover from the journal and flush.
        drop(deferred);
        let mut recovered = Propagator::with_journal(PropagationStrategy::Deferred, &journal)
            .expect("journal reopens");
        let ctx = db.method_ctx();
        recovered.flush(&ctx, &mut deferred_coll).unwrap();

        // Same live documents...
        let keys = |c: &Collection| {
            let mut v: Vec<String> = c.irs().with_store(|s| {
                s.iter_live().map(|(_, e)| e.key.clone()).collect()
            });
            v.sort();
            v
        };
        prop_assert_eq!(keys(&eager_coll), keys(&deferred_coll));
        // ...and the same answers.
        for word in vocab {
            let a = eager_coll.evaluate_uncached(word).unwrap();
            let b = deferred_coll.evaluate_uncached(word).unwrap();
            prop_assert_eq!(a.len(), b.len(), "hit sets differ for {}", word);
            for (oid, va) in &a {
                let vb = b.get(oid).copied().unwrap_or(-1.0);
                prop_assert!((va - vb).abs() < 1e-9, "{}@{}: {} vs {}", word, oid, va, vb);
            }
        }
        let _ = std::fs::remove_file(&journal);
    }
}

/// Pinned planner case: the content map is larger than a small class
/// extent, so the extent drives even though the caller prefers IRS-first
/// — and the forced IRS-first order still names the same object.
#[test]
fn mixed_planner_picks_independent_for_a_small_class_extent() {
    use coupling::mixed::{evaluate_mixed_planned, execute_mixed, MixedStrategy, PlanReason};
    let (sys, roots) = seeded_system(7, 5);
    // A frequent background word: most paragraphs match it.
    let query = "w0003".to_string();
    {
        // Index the five documents beside their paragraphs: MMFDOC is
        // the small class, the paragraphs swell the content result.
        let mut coll = sys.collection_mut("c").expect("collection exists");
        let ctx = coll.db().method_ctx();
        for &root in &roots {
            coll.on_insert(&ctx, root).expect("indexes the document");
        }
    }
    let coll = sys.collection("c").expect("collection exists");
    let db = coll.db();
    let (out, plan) = evaluate_mixed_planned(
        db,
        &coll,
        "MMFDOC",
        &|_, _| true,
        &query,
        0.0,
        MixedStrategy::IrsFirst,
    )
    .expect("planned");
    assert_eq!(plan.extent_len, 5);
    assert!(plan.survivors > 5, "content map larger than the extent");
    assert_eq!(plan.reason, PlanReason::SmallerExtent);
    assert_eq!(out.strategy, MixedStrategy::Independent);
    assert_eq!(out.structural_checks, 5);
    assert!(!out.oids.is_empty());
    let content = coll.get_irs_result(&query).expect("content");
    let mmfdoc = db.schema().class_id("MMFDOC").expect("class exists");
    let (forced, _) = execute_mixed(
        db,
        mmfdoc,
        &|_, _| true,
        &content,
        0.0,
        MixedStrategy::IrsFirst,
    );
    assert_eq!(forced, out.oids);
}
