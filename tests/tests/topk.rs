//! Top-k engine equivalence properties: for every corpus, model,
//! operator tree, and k, the pruned `search_top_k` must return exactly
//! the first k hits of the exhaustive `search` — same keys, bitwise the
//! same scores — and the ranking must not depend on the shard count.

use irs::analysis::{Analyzer, AnalyzerConfig};
use irs::query::evaluate;
use irs::{
    collect_globals, evaluate_top_k_with_globals, evaluate_top_k_with_strategy, parse_query,
    CollectionConfig, InvertedIndex, IrsCollection, ModelKind, PruneStrategy, QueryGlobals,
};
use proptest::prelude::*;
use system_tests::{stress_query, VOCAB};

fn model_for(choice: u8) -> ModelKind {
    match choice % 4 {
        0 => ModelKind::Boolean,
        1 => ModelKind::Vector(Default::default()),
        2 => ModelKind::Bm25(Default::default()),
        _ => ModelKind::Inference(Default::default()),
    }
}

/// Build one collection over `docs` (lists of vocabulary indices).
fn build(docs: &[Vec<u8>], model: ModelKind, shards: usize) -> IrsCollection {
    let mut coll = IrsCollection::new(CollectionConfig {
        model,
        shards,
        ..CollectionConfig::default()
    });
    for (i, words) in docs.iter().enumerate() {
        let text: Vec<&str> = words
            .iter()
            .map(|&w| VOCAB[w as usize % VOCAB.len()])
            .collect();
        coll.add_document(&format!("doc{i:03}"), &text.join(" "))
            .unwrap();
    }
    coll
}

/// One of several operator shapes over vocabulary terms — both shapes the
/// pruned engine handles natively and shapes that force the exhaustive
/// fallback (`#not`, phrases), which must obey the same contract.
fn query_for(shape: u8, a: u8, b: u8, c: u8) -> String {
    let t = |i: u8| VOCAB[i as usize % VOCAB.len()];
    match shape % 7 {
        0 => t(a).to_string(),
        1 => format!("#or({} {})", t(a), t(b)),
        2 => format!("#sum({} {} {})", t(a), t(b), t(c)),
        3 => format!("#wsum(3 {} 1 {})", t(a), t(b)),
        4 => format!("#and({} {})", t(a), t(b)),
        5 => format!("#and({} #not({}))", t(a), t(b)),
        _ => format!("\"{} {}\"", t(a), t(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `search_top_k(q, k)` equals the first k hits of `search(q)` under
    /// the universal tie-break (score desc, key asc), with bitwise-equal
    /// scores — pruning may never change what the user sees.
    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 2..24),
        model_choice in any::<u8>(),
        shape in any::<u8>(),
        (a, b, c) in (any::<u8>(), any::<u8>(), any::<u8>()),
        k in 0usize..20,
    ) {
        let coll = build(&docs, model_for(model_choice), 3);
        let query = query_for(shape, a, b, c);
        let full = coll.search(&query).unwrap();
        let top = coll.search_top_k(&query, k).unwrap();
        prop_assert_eq!(top.len(), k.min(full.len()));
        for (got, want) in top.iter().zip(full.iter()) {
            prop_assert_eq!(&got.key, &want.key);
            // Bitwise equality: the pruned engine recomputes the exact
            // score for every emitted document.
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits(),
                "score mismatch for {} in {}", got.key, query);
        }
    }

    /// The ranking is shard-count invariant: global statistics make the
    /// scores independent of how terms are partitioned.
    #[test]
    fn top_k_does_not_depend_on_shard_count(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 2..24),
        model_choice in any::<u8>(),
        shape in any::<u8>(),
        (a, b, c) in (any::<u8>(), any::<u8>(), any::<u8>()),
        k in 0usize..20,
    ) {
        let query = query_for(shape, a, b, c);
        let single = build(&docs, model_for(model_choice), 1);
        let sharded = build(&docs, model_for(model_choice), 5);
        let lhs = single.search_top_k(&query, k).unwrap();
        let rhs = sharded.search_top_k(&query, k).unwrap();
        prop_assert_eq!(lhs.len(), rhs.len());
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            prop_assert_eq!(&l.key, &r.key);
            prop_assert_eq!(l.score.to_bits(), r.score.to_bits());
        }
    }
    /// Block-max pruning is bit-identical to the exhaustive evaluator for
    /// every retrieval model, prunable operator shape, block size, and k —
    /// including degenerate one-doc blocks (`bs = 1`, maximal skip
    /// metadata) and blocks larger than most postings lists (`bs = 128`,
    /// no intra-list skips at this corpus size). The collection-bound
    /// strategy (the pre-block engine) must agree too, with tombstones in
    /// the mix. Each case runs one of the small shapes and one
    /// [`stress_query`] tree (wide, deep, repeated leaves, zero weights),
    /// and also splits the corpus in two and scores each half under the
    /// merged globals, which must reproduce the same ranking.
    #[test]
    fn block_max_is_bit_identical_to_exhaustive_across_block_sizes(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 2..24),
        deletes in prop::collection::vec(any::<bool>(), 24),
        model_choice in any::<u8>(),
        shape in any::<u8>(),
        (a, b, c) in (any::<u8>(), any::<u8>(), any::<u8>()),
        tape in prop::collection::vec(any::<u8>(), 16..64),
        k in 0usize..20,
    ) {
        // Shapes 0..5 of `query_for` are the prunable fragment; `#not`
        // and phrases make the engine decline (`None`), which the
        // collection-level prefix property above already covers.
        let nodes = [
            parse_query(&query_for(shape % 5, a, b, c)).unwrap(),
            stress_query(&tape),
        ];
        let model_kind = model_for(model_choice);
        let model = model_kind.as_model();
        // Tombstone the flagged documents, but always leave one live.
        let mut live = docs.len();
        let deleted: Vec<bool> = (0..docs.len())
            .map(|i| {
                let del = deletes[i] && live > 1;
                live -= usize::from(del);
                del
            })
            .collect();
        let index_of = |bs: u32, member: &dyn Fn(usize) -> bool| {
            let mut ix =
                InvertedIndex::with_block_size(Analyzer::new(AnalyzerConfig::default()), bs);
            for (i, words) in docs.iter().enumerate().filter(|(i, _)| member(*i)) {
                let text: Vec<&str> = words
                    .iter()
                    .map(|&w| VOCAB[w as usize % VOCAB.len()])
                    .collect();
                ix.add_document(&format!("doc{i:03}"), &text.join(" ")).unwrap();
            }
            for i in (0..docs.len()).filter(|&i| member(i) && deleted[i]) {
                ix.delete_document(&format!("doc{i:03}")).unwrap();
            }
            ix
        };
        let key = |ix: &InvertedIndex, hit: (irs::DocId, f64)| {
            (ix.store().entry(hit.0).key.clone(), hit.1.to_bits())
        };
        // The universal ranking: score descending, key ascending.
        let rank = |hits: &mut Vec<(String, u64)>| {
            hits.sort_by(|x, y| {
                f64::from_bits(y.1)
                    .total_cmp(&f64::from_bits(x.1))
                    .then_with(|| x.0.cmp(&y.0))
            })
        };
        for &bs in &[1u32, 16, 128] {
            let ix = index_of(bs, &|_| true);
            let halves = [index_of(bs, &|i| i % 2 == 0), index_of(bs, &|i| i % 2 == 1)];
            for node in &nodes {
                let mut full: Vec<(String, u64)> = evaluate(&ix, model, node)
                    .into_iter()
                    .map(|hit| key(&ix, hit))
                    .collect();
                rank(&mut full);
                full.truncate(k);
                for strategy in [PruneStrategy::BlockMax, PruneStrategy::CollectionBound] {
                    let pruned: Vec<(String, u64)> =
                        evaluate_top_k_with_strategy(&ix, model, node, k, strategy)
                            .expect("prunable tree")
                            .into_iter()
                            .map(|hit| key(&ix, hit))
                            .collect();
                    prop_assert_eq!(
                        &pruned, &full,
                        "query {} bs {} strategy {:?}", node, bs, strategy
                    );
                }
                let parts: Vec<QueryGlobals> = halves
                    .iter()
                    .map(|half| collect_globals(half, node).expect("prunable tree"))
                    .collect();
                let globals = QueryGlobals::merge(&parts).expect("same query, same terms");
                // Tombstoned partitions merge exactly to the union's counts.
                let union = collect_globals(&ix, node).expect("prunable tree");
                prop_assert_eq!(&globals.terms, &union.terms, "query {} bs {}", node, bs);
                prop_assert_eq!(
                    (globals.n_docs, globals.total_tokens),
                    (union.n_docs, union.total_tokens)
                );
                let mut merged: Vec<(String, u64)> = Vec::new();
                for half in &halves {
                    let hits = evaluate_top_k_with_globals(half, model, node, k, &globals)
                        .expect("globals match the query");
                    merged.extend(hits.into_iter().map(|hit| key(half, hit)));
                }
                rank(&mut merged);
                merged.truncate(k);
                prop_assert_eq!(&merged, &full, "scattered, query {} bs {}", node, bs);
            }
        }
    }
}

/// Unbounded k (`usize::MAX`) degrades to the full ranking.
#[test]
fn top_k_with_huge_k_equals_full_search() {
    let docs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i, i.wrapping_mul(3), 7]).collect();
    let coll = build(&docs, ModelKind::default(), 2);
    let full = coll.search("#or(telnet ftp nii)").unwrap();
    let top = coll
        .search_top_k("#or(telnet ftp nii)", usize::MAX)
        .unwrap();
    assert_eq!(full.len(), top.len());
    for (f, t) in full.iter().zip(top.iter()) {
        assert_eq!(f.key, t.key);
        assert_eq!(f.score.to_bits(), t.score.to_bits());
    }
}
