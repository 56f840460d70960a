//! Shard-per-node partitioning suite.
//!
//! The property that justifies the whole global-statistics exchange:
//! scatter/gather over any number of partitions returns **bit-identical**
//! results to evaluating the union index on one node — same documents,
//! same scores to the last bit, same order, for every retrieval model,
//! operator shape, partition count, and k. On top of that, the failover
//! contract: losing every replica of one partition degrades to a marked
//! stale answer or a typed transient error, never to a silent partial
//! merge; and the same behaviour holds end-to-end over TCP replicas.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coupling::remote::RemoteConfig;
use coupling::retry::{BreakerConfig, RetryPolicy};
use coupling::{
    CouplingError, ErrorKind, PartitionConfig, PartitionedIrs, ReplicaTransport, ResultOrigin,
};
use irs::{CollectionConfig, IrsCollection, ModelKind, QueryGlobals};
use oodb::Oid;
use proptest::prelude::*;
use serve::ReplicaServer;
use system_tests::{stress_query, two_issue_system, VOCAB};

fn model_for(choice: u8) -> ModelKind {
    match choice % 4 {
        0 => ModelKind::Boolean,
        1 => ModelKind::Vector(Default::default()),
        2 => ModelKind::Bm25(Default::default()),
        _ => ModelKind::Inference(Default::default()),
    }
}

/// Operator shapes inside the partitionable fragment (no `#not`, phrase
/// or `#near` — those refuse to scatter, pinned separately below).
fn query_for(shape: u8, a: u8, b: u8, c: u8) -> String {
    let t = |i: u8| VOCAB[i as usize % VOCAB.len()];
    match shape % 5 {
        0 => t(a).to_string(),
        1 => format!("#or({} {})", t(a), t(b)),
        2 => format!("#sum({} {} {})", t(a), t(b), t(c)),
        3 => format!("#wsum(3 {} 1 {})", t(a), t(b)),
        _ => format!("#and({} {})", t(a), t(b)),
    }
}

/// Keys use the coupling's `oid:N` form, offset so that single- and
/// double-digit OIDs coexist: `"oid:10" < "oid:9"` lexicographically
/// while `Oid(9) < Oid(10)`, which is exactly the tie-break trap the
/// router's merge has to get right.
fn key_of(i: usize) -> String {
    format!("oid:{}", i + 5)
}

fn build(
    docs: &[Vec<u8>],
    indices: impl Iterator<Item = usize>,
    model: ModelKind,
) -> IrsCollection {
    let mut coll = IrsCollection::new(CollectionConfig {
        model,
        ..CollectionConfig::default()
    });
    for i in indices {
        let text: Vec<&str> = docs[i]
            .iter()
            .map(|&w| VOCAB[w as usize % VOCAB.len()])
            .collect();
        coll.add_document(&key_of(i), &text.join(" ")).unwrap();
    }
    coll
}

/// In-process partition shard: one `IrsCollection` behind the transport
/// trait, with a kill switch for failover tests.
struct FakeShard {
    coll: IrsCollection,
    down: AtomicBool,
}

impl FakeShard {
    fn new(coll: IrsCollection) -> Arc<Self> {
        Arc::new(FakeShard {
            coll,
            down: AtomicBool::new(false),
        })
    }

    fn check(&self) -> coupling::Result<()> {
        if self.down.load(Ordering::Relaxed) {
            return Err(CouplingError::Remote {
                kind: ErrorKind::Io,
                message: "shard down".into(),
            });
        }
        Ok(())
    }
}

/// Local newtype so the transport trait can be implemented here
/// (orphan rule: `Arc<FakeShard>` is foreign).
#[derive(Clone)]
struct Shard(Arc<FakeShard>);

impl ReplicaTransport for Shard {
    fn search(&self, _c: &str, query: &str) -> coupling::Result<(Vec<(Oid, f64)>, ResultOrigin)> {
        self.0.check()?;
        let hits = self.0.coll.search(query).map_err(CouplingError::Irs)?;
        Ok((
            hits.into_iter()
                .filter_map(|h| Oid::parse(&h.key).map(|o| (o, h.score)))
                .collect(),
            ResultOrigin::Fresh,
        ))
    }

    fn value(&self, c: &str, query: &str, oid: Oid) -> coupling::Result<f64> {
        let (hits, _) = self.search(c, query)?;
        Ok(hits
            .iter()
            .find(|(o, _)| *o == oid)
            .map(|(_, s)| *s)
            .unwrap_or(0.0))
    }

    fn ping(&self) -> coupling::Result<()> {
        self.0.check()
    }

    fn term_stats(&self, _c: &str, query: &str) -> coupling::Result<QueryGlobals> {
        self.0.check()?;
        self.0.coll.query_globals(query).map_err(CouplingError::Irs)
    }

    fn search_global(
        &self,
        _c: &str,
        query: &str,
        k: usize,
        globals: &QueryGlobals,
    ) -> coupling::Result<Vec<(String, f64)>> {
        self.0.check()?;
        let hits = self
            .0
            .coll
            .search_top_k_global(query, k, globals)
            .map_err(CouplingError::Irs)?;
        Ok(hits.into_iter().map(|h| (h.key, h.score)).collect())
    }
}

/// Fan-out tuning tight enough that a down shard fails within the test
/// budget instead of sitting out full production backoffs.
fn tight_config() -> PartitionConfig {
    PartitionConfig {
        remote: RemoteConfig {
            hedge_delay: Duration::from_millis(30),
            attempt_timeout: Duration::from_millis(300),
            max_attempts: 2,
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                call_budget: Duration::from_millis(200),
                jitter_seed: 0x5eed,
            },
            breaker: BreakerConfig {
                failure_threshold: 100,
                cooldown: Duration::from_millis(50),
            },
            stale_capacity: 16,
        },
        stale_capacity: None,
    }
}

/// One single-replica group per shard.
fn router(shards: Vec<Arc<FakeShard>>) -> PartitionedIrs<Shard> {
    PartitionedIrs::new(
        shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| vec![(format!("part{i}"), Shard(s))])
            .collect(),
        tight_config(),
    )
}

/// What the union index answers on one node, in the serving layer's
/// presentation order (score descending, OID ascending).
fn single_node_top_k(union: &IrsCollection, query: &str, k: usize) -> Vec<(Oid, f64)> {
    let mut hits: Vec<(Oid, f64)> = union
        .search_top_k(query, k)
        .unwrap()
        .into_iter()
        .filter_map(|h| Oid::parse(&h.key).map(|o| (o, h.score)))
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// THE partitioning property: for every corpus, model, partitionable
    /// operator shape, partition count and k, scatter/gather over
    /// round-robin document slices equals single-node evaluation of the
    /// union index — same OIDs, bitwise the same scores, same order.
    #[test]
    fn scatter_gather_is_bit_identical_to_single_node(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 2..20),
        parts in 1usize..=4,
        model_choice in any::<u8>(),
        shape in any::<u8>(),
        (a, b, c) in (any::<u8>(), any::<u8>(), any::<u8>()),
        tape in prop::collection::vec(any::<u8>(), 16..64),
        k in 0usize..15,
    ) {
        // Half the cases scatter a wide, deep `stress_query` tree.
        let query = if shape.is_multiple_of(2) {
            query_for(shape / 2, a, b, c)
        } else {
            stress_query(&tape).to_string()
        };
        let union = build(&docs, 0..docs.len(), model_for(model_choice));
        let shards: Vec<Arc<FakeShard>> = (0..parts)
            .map(|p| {
                FakeShard::new(build(
                    &docs,
                    (0..docs.len()).filter(|i| i % parts == p),
                    model_for(model_choice),
                ))
            })
            .collect();
        let expected = single_node_top_k(&union, &query, k);
        let (hits, origin) = router(shards).search_top_k("coll", &query, k).unwrap();
        prop_assert_eq!(origin, ResultOrigin::Fresh);
        prop_assert_eq!(hits.len(), expected.len());
        for (got, want) in hits.iter().zip(expected.iter()) {
            prop_assert_eq!(got.0, want.0, "document set diverged for {}", query);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(),
                "score mismatch for {} in {}", got.0, query);
        }
    }

    /// `get_irs_value` through the router equals the union index's score
    /// for every document — represented on *any* partition — and `0.0`
    /// for OIDs no partition knows.
    #[test]
    fn partitioned_value_matches_single_node(
        docs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 2..12),
        parts in 1usize..=3,
        model_choice in any::<u8>(),
        term in any::<u8>(),
    ) {
        let query = VOCAB[term as usize % VOCAB.len()].to_string();
        let union = build(&docs, 0..docs.len(), model_for(model_choice));
        let shards: Vec<Arc<FakeShard>> = (0..parts)
            .map(|p| {
                FakeShard::new(build(
                    &docs,
                    (0..docs.len()).filter(|i| i % parts == p),
                    model_for(model_choice),
                ))
            })
            .collect();
        let r = router(shards);
        let expected = single_node_top_k(&union, &query, usize::MAX);
        for i in 0..docs.len() {
            let oid = Oid::parse(&key_of(i)).unwrap();
            let want = expected
                .iter()
                .find(|(o, _)| *o == oid)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            let (got, origin) = r.get_irs_value("coll", &query, oid).unwrap();
            prop_assert_eq!(origin, ResultOrigin::Fresh);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "value for {}", oid);
        }
        let (absent, _) = r.get_irs_value("coll", &query, Oid(999_999)).unwrap();
        prop_assert_eq!(absent, 0.0);
    }
}

/// Queries outside the partitionable fragment fail permanently at the
/// stats leg — the router must not retry or serve stale for them.
#[test]
fn unpartitionable_queries_fail_permanently() {
    let docs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i, i + 1, 2]).collect();
    let shard = FakeShard::new(build(&docs, 0..docs.len(), ModelKind::default()));
    let r = router(vec![shard]);
    for query in ["#not(telnet)", "\"telnet gopher\"", "#near/2(telnet www)"] {
        let err = r.search_top_k("coll", query, 5).unwrap_err();
        assert!(
            !err.is_transient(),
            "{query} must classify permanent: {err}"
        );
    }
    assert_eq!(r.stats().stale_serves, 0);
}

/// Losing every replica of one partition: warmed queries degrade to the
/// full *merged* stale result (marked), cold queries fail transiently,
/// and at no point does a partial merge pass as a fresh answer.
#[test]
fn losing_one_partition_degrades_to_stale_never_partial() {
    let docs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i % 4, 2, i]).collect();
    let shards: Vec<Arc<FakeShard>> = (0..2)
        .map(|p| {
            FakeShard::new(build(
                &docs,
                (0..docs.len()).filter(|i| i % 2 == p),
                ModelKind::default(),
            ))
        })
        .collect();
    let union = build(&docs, 0..docs.len(), ModelKind::default());
    let expected = single_node_top_k(&union, "www", 8);
    assert!(!expected.is_empty(), "corpus sanity");

    let b = Arc::clone(&shards[1]);
    let r = router(shards);
    let (warm, origin) = r.search_top_k("coll", "www", 8).unwrap();
    assert_eq!(origin, ResultOrigin::Fresh);
    assert_eq!(warm, expected);

    b.down.store(true, Ordering::Relaxed);
    let (hits, origin) = r.search_top_k("coll", "www", 8).unwrap();
    assert_eq!(origin, ResultOrigin::Stale, "degradation must be marked");
    assert_eq!(hits, expected, "stale serves the complete merged result");

    let err = r
        .search_top_k("coll", "telnet", 8)
        .expect_err("cold query has nothing to fall back on");
    assert!(err.is_transient(), "outage classifies transient: {err}");

    let stats = r.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.stale_serves, 1);
    assert_eq!(stats.exhausted, 1);
    assert!(stats.scatter_failures >= 2, "failures counted: {stats:?}");
}

/// Carve the shared two-issue corpus into partition slices: every
/// partition system loads the *full* corpus (so OIDs are identical
/// everywhere), then deletes the paragraphs outside its slice from the
/// IRS collection. Returns the systems plus the paragraph OIDs.
fn carved_partitions(parts: usize) -> Vec<coupling::DocumentSystem> {
    (0..parts)
        .map(|p| {
            let sys = two_issue_system();
            let paras: Vec<Oid> = sys
                .query("ACCESS p FROM p IN PARA")
                .expect("enumerate paragraphs")
                .iter()
                .filter_map(|row| row.oid())
                .collect();
            assert_eq!(paras.len(), 4, "corpus sanity");
            let mut coll = sys.collection_mut("collPara").expect("collection");
            for (i, &oid) in paras.iter().enumerate() {
                if i % parts != p {
                    coll.on_delete(oid).expect("carve slice");
                }
            }
            drop(coll);
            sys
        })
        .collect()
}

/// End-to-end over TCP: two `ReplicaServer` partitions behind
/// `WireTransport`s answer bit-identically to a single-node evaluation,
/// and shutting one partition down degrades warmed queries to stale.
#[test]
fn tcp_partitions_serve_single_node_results_then_degrade() {
    let servers: Vec<ReplicaServer> = carved_partitions(2)
        .into_iter()
        .map(|sys| ReplicaServer::serve(sys, "127.0.0.1:0").expect("bind partition"))
        .collect();
    let groups = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![(
                format!("part{i}"),
                serve::WireTransport::new(s.local_addr()),
            )]
        })
        .collect();
    let r = PartitionedIrs::new(groups, tight_config());
    assert_eq!(r.group_count(), 2);
    assert!(
        r.probe().iter().flatten().all(|(_, up)| *up),
        "all partitions reachable"
    );

    // Single-node baseline: the *unsliced* system evaluated locally.
    let sys = two_issue_system();
    let coll = sys.collection("collPara").expect("collection");
    for query in ["telnet", "www", "#or(telnet www)", "#sum(www nii home)"] {
        let mut expected: Vec<(Oid, f64)> = coll
            .get_irs_result(query)
            .expect("local evaluation")
            .into_iter()
            .collect();
        expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let (hits, origin) = r.search_top_k("collPara", query, 10).expect(query);
        assert_eq!(origin, ResultOrigin::Fresh);
        assert_eq!(hits.len(), expected.len(), "{query}");
        for (got, want) in hits.iter().zip(expected.iter()) {
            assert_eq!(got.0, want.0, "{query}");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "score for {} in {query} diverged over the wire",
                got.0
            );
        }
        if let Some(&(oid, score)) = expected.first() {
            let (value, origin) = r.get_irs_value("collPara", query, oid).expect(query);
            assert_eq!(origin, ResultOrigin::Fresh);
            assert_eq!(value.to_bits(), score.to_bits());
        }
    }

    // One whole partition gone: warmed queries degrade to stale, cold
    // ones fail transiently.
    let warm = r.search_top_k("collPara", "telnet", 10).expect("warm");
    let mut servers = servers;
    servers.pop().unwrap().shutdown();
    let (hits, origin) = r
        .search_top_k("collPara", "telnet", 10)
        .expect("warmed query degrades, not fails");
    assert_eq!(origin, ResultOrigin::Stale);
    assert_eq!(hits, warm.0, "stale result is the last merged answer");
    let err = r
        .search_top_k("collPara", "gopher", 10)
        .expect_err("cold query cannot be merged");
    assert!(err.is_transient(), "outage classifies transient: {err}");

    for s in servers {
        s.shutdown();
    }
}
