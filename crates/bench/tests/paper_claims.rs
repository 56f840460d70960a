//! The paper's numbers, pinned: every non-timing number that
//! `experiments` prints for E1–E11, E13 and E14's exact-scored counts,
//! on the standard corpus EXPERIMENTS.md reports.
//!
//! Counts are asserted exactly. MAP, P@5 and the other ratios are
//! deterministic f64 sums over the seeded corpus, asserted to 1e-9.
//! Each test also asserts the ordering the paper states, so a change
//! that moves a number and the claim with it reads as such.
//!
//! One test per experiment: the harness runs them in parallel, which
//! keeps the debug-profile run of this file within a few seconds.
//! Nothing pinned here depends on the host's core count (the IRS shard
//! count follows it): the values are the same under `taskset -c 0`.
//!
//! A change that moves a number on purpose updates it here, in
//! EXPERIMENTS.md and in `experiments_output.txt` together:
//! `cargo run --release -p coupling-bench --bin experiments` prints
//! them all.

use coupling::MixedStrategy;
use coupling_bench::exp::e1_architectures::ArchitectureKind;
use coupling_bench::exp::*;
use coupling_bench::WorkloadConfig;

/// `actual` equals `expected` to 1e-9.
#[track_caller]
fn close(actual: f64, expected: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= 1e-9,
        "{what}: {actual} != {expected}"
    );
}

/// Figure 1: DBMS-control needs one crossing and no file; the control
/// module two crossings and one file; IRS-control one crossing per
/// content hit. All three find the same objects.
#[test]
fn e1_crossings_and_files_per_architecture() {
    let report = e1_architectures::run(&WorkloadConfig::standard());
    let rows: Vec<_> = report
        .rows
        .iter()
        .map(|r| (r.kind, r.results, r.crossings, r.files))
        .collect();
    assert_eq!(
        rows,
        [
            (ArchitectureKind::DbmsControl, 8, 1, 0),
            (ArchitectureKind::ControlModule, 8, 2, 1),
            (ArchitectureKind::IrsControl, 8, 34, 0),
        ]
    );
}

/// §4.3: finer granularity means more IRS documents; all-elements
/// indexes the text 2.58 times over; every policy that answers
/// paragraph queries ranks paragraphs perfectly on topic terms.
#[test]
fn e2_granularity_costs() {
    let report = e2_granularity::run(&WorkloadConfig::standard());
    assert_eq!(report.corpus_tokens, 45_925);
    let rows: Vec<_> = report
        .rows
        .iter()
        .map(|r| (r.policy.as_str(), r.irs_docs, r.tokens, r.postings_bytes))
        .collect();
    assert_eq!(
        rows,
        [
            ("per-document", 120, 45_925, 98_803),
            ("per-element(PARA)", 653, 37_545, 89_322),
            ("leaves", 1_074, 45_925, 109_814),
            ("equal-size(30w)", 1_582, 45_925, 119_417),
            ("all-elements", 1_446, 118_432, 267_697),
        ]
    );
    let para_maps: Vec<_> = report.rows.iter().map(|r| r.para_map).collect();
    assert_eq!(para_maps, [None, Some(1.0), Some(1.0), None, Some(1.0)]);
}

/// Figure 4 and §4.5.2: max-combination cannot tell M3 from M4, the
/// subquery-aware scheme ranks M3 above M4, and on the corpus it beats
/// every component-combination scheme on MAP and P@5.
#[test]
fn e3_derivation_schemes() {
    let report = e3_derivation::run(&WorkloadConfig::standard());
    let (single, both) = (0.19399894879236323, 0.23522245082838733);
    let figure4: [(&str, [f64; 4]); 5] = [
        ("max", [single, both, single, single]),
        (
            "avg",
            [
                0.12933263252824215,
                0.07840748360946244,
                single,
                0.12933263252824215,
            ],
        ),
        (
            "sum",
            [
                0.38799789758472647,
                both,
                0.38799789758472647,
                0.38799789758472647,
            ],
        ),
        (
            "length-weighted",
            [
                0.12810556770349601,
                0.07543186753320201,
                single,
                0.12810556770349601,
            ],
        ),
        ("subquery-aware", [single, both, both, single]),
    ];
    assert_eq!(report.figure4.len(), figure4.len());
    for (row, (scheme, values)) in report.figure4.iter().zip(figure4) {
        assert_eq!(row.scheme, scheme);
        for (m, (&actual, expected)) in row.values.iter().zip(values).enumerate() {
            close(actual, expected, &format!("figure 4 {scheme} M{}", m + 1));
        }
    }

    assert_eq!(report.queries, 12);
    let quality = [
        ("max", 0.7738081400379788, 0.28333333333333327),
        ("avg", 0.6819468972917248, 0.3),
        ("sum", 0.2317379909229513, 0.19999999999999998),
        ("length-weighted", 0.6997422301360773, 0.2833333333333333),
        ("subquery-aware", 0.925868325223164, 0.38333333333333336),
        ("redundant-doc-index (baseline)", 1.0, 0.45),
    ];
    assert_eq!(report.quality.len(), quality.len());
    for (row, (scheme, map, p5)) in report.quality.iter().zip(quality) {
        assert_eq!(row.scheme, scheme);
        close(row.map, map, &format!("{scheme} MAP"));
        close(row.p_at_5, p5, &format!("{scheme} P@5"));
    }
    let aware = &report.quality[4];
    for combined in &report.quality[..4] {
        assert!(
            aware.map > combined.map && aware.p_at_5 > combined.p_at_5,
            "subquery-aware must beat {}",
            combined.scheme
        );
    }
}

/// Figure 3: without the buffer every object probe evaluates the query;
/// with it, one evaluation per distinct query over two passes.
#[test]
fn e4_buffer_collapses_irs_calls() {
    let report = e4_buffering::run(&WorkloadConfig::standard());
    assert_eq!((report.objects, report.queries), (653, 4));
    assert_eq!(report.unbuffered_irs_calls, 2_612);
    assert_eq!(report.buffered_irs_calls, 4);
    assert_eq!(report.buffer_hits, 5_220);
}

/// §4.5.3–4.5.4: IRS-first checks only the content candidates, and the
/// planner picks it at every point of the sweep.
#[test]
fn e5_structural_checks_per_strategy() {
    let report = e5_mixed::run(&WorkloadConfig::standard());
    assert_eq!(report.paragraphs, 653);
    let rows: Vec<_> = report
        .rows
        .iter()
        .map(|r| {
            (
                r.content_query.as_str(),
                r.years_accepted,
                r.independent_checks,
                r.irs_first_checks,
                r.planner_checks,
                r.planner_strategy,
                r.results,
            )
        })
        .collect();
    let first = MixedStrategy::IrsFirst;
    assert_eq!(
        rows,
        [
            ("topic00", 1, 653, 33, 33, first, 9),
            ("topic00", 2, 653, 33, 33, first, 17),
            ("topic00", 4, 653, 33, 33, first, 33),
            ("w0003", 1, 653, 493, 493, first, 129),
            ("w0003", 2, 653, 493, 493, first, 248),
            ("w0003", 4, 653, 493, 493, first, 493),
        ]
    );
}

/// §4.5.4: `#and` combined in the OODBMS from buffered term results
/// equals the IRS's own, bit for bit.
#[test]
fn e6_operator_semantics_agree() {
    let report = e6_operators::run(&WorkloadConfig::standard());
    assert_eq!(report.result_size, 81);
    assert_eq!(report.max_disagreement, 0.0);
}

/// §4.6: deferred propagation cancels the churn and applies about a
/// third of the operations eager propagation does.
#[test]
fn e7_deferred_applies_a_third_of_eager() {
    let report = e7_updates::run(&WorkloadConfig::standard());
    assert_eq!(report.queries, 8);
    let rows: Vec<_> = report
        .rows
        .iter()
        .map(|r| {
            (
                r.updates_per_query,
                r.eager_applied,
                r.deferred_applied,
                r.deferred_cancelled,
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            (1, 12, 4, 8),
            (4, 48, 16, 32),
            (16, 191, 65, 126),
            (64, 755, 262, 493),
        ]
    );
    for r in &report.rows {
        let ratio = r.eager_applied as f64 / r.deferred_applied as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "eager/deferred {ratio} at {} updates per query",
            r.updates_per_query
        );
    }
}

/// [SAZ94]: each indexed level adds postings bytes; paragraphs plus
/// derivation rank documents at 0.927 MAP, the redundant levels at 1.0.
#[test]
fn e8_multi_level_overhead() {
    let report = e8_redundancy::run(&WorkloadConfig::standard());
    let expected = [
        (
            "paragraphs-only + derivation",
            653,
            37_545,
            89_322,
            0.0,
            0.9270779220779221,
        ),
        (
            "2 levels (PARA+MMFDOC)",
            773,
            83_470,
            189_830,
            1.1252323055910076,
            1.0,
        ),
        (
            "3 levels (+SECTION)",
            1_035,
            110_052,
            249_575,
            1.7941044759409777,
            1.0,
        ),
    ];
    assert_eq!(report.rows.len(), expected.len());
    for (row, (config, docs, tokens, bytes, overhead, map)) in report.rows.iter().zip(expected) {
        assert_eq!(
            (
                row.config.as_str(),
                row.irs_docs,
                row.tokens,
                row.postings_bytes
            ),
            (config, docs, tokens, bytes)
        );
        close(row.overhead, overhead, &format!("{config} overhead"));
        close(row.doc_map, map, &format!("{config} docMAP"));
    }
}

/// §5: `implies`-link augmentation finds every latent paragraph that
/// plain node text misses, and lifts MAP.
#[test]
fn e9_link_augmentation() {
    let report = e9_hypertext::run(&WorkloadConfig::standard());
    assert_eq!((report.links, report.latent), (221, 221));
    assert_eq!(
        (report.plain_latent_hits, report.augmented_latent_hits),
        (0, 221)
    );
    close(report.plain_map, 0.534015839466316, "plain MAP");
    close(report.augmented_map, 0.9626034779028659, "augmented MAP");
}

/// Ablations: analyzer index cost, per-model MAP and score levels (the
/// boolean model has two), and the buffer's hit-rate knee at the
/// working set of eight queries.
#[test]
fn e10_ablations() {
    let report = e10_ablations::run(&WorkloadConfig::standard());
    let analyzer: Vec<_> = report
        .analyzer
        .iter()
        .map(|r| (r.config.as_str(), r.terms, r.postings_bytes))
        .collect();
    assert_eq!(
        analyzer,
        [
            ("stem+stopwords (default)", 2_980, 91_340),
            ("no stemming", 5_766, 107_081),
            ("no stopword removal", 2_988, 139_333),
            ("exact (neither)", 5_774, 155_074),
        ]
    );
    let models = [
        ("inference (INQUERY)", 0.9783653846153846, 75),
        ("bm25", 0.9826388888888888, 75),
        ("vector", 0.8810763888888888, 75),
        ("boolean", 1.0, 2),
    ];
    assert_eq!(report.models.len(), models.len());
    for (row, (model, map, levels)) in report.models.iter().zip(models) {
        assert_eq!((row.model.as_str(), row.score_levels), (model, levels));
        close(row.map, map, &format!("{model} MAP"));
    }
    assert_eq!(report.distinct_queries, 8);
    let buffer: Vec<_> = report
        .buffer
        .iter()
        .map(|r| (r.capacity, r.hit_rate))
        .collect();
    assert_eq!(buffer, [(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.5), (16, 0.5)]);
}

/// [SAB93]: overlapping passages nearly double the indexed tokens; the
/// 50/25 windows reach the redundant document index's MAP, the 30/15
/// windows 0.983, both above paragraph derivation.
#[test]
fn e11_passages() {
    let report = e11_passages::run(&WorkloadConfig::standard());
    assert_eq!(report.queries, 10);
    let expected = [
        (
            "paragraphs + subquery-aware",
            653,
            37_545,
            0.9416623376623378,
        ),
        ("passages 50/25 (best passage)", 1_781, 87_450, 1.0),
        (
            "passages 30/15 (best passage)",
            2_996,
            89_065,
            0.9833333333333332,
        ),
        ("whole documents (redundant)", 120, 45_925, 1.0),
    ];
    assert_eq!(report.rows.len(), expected.len());
    for (row, (config, docs, tokens, map)) in report.rows.iter().zip(expected) {
        assert_eq!(
            (row.config.as_str(), row.irs_docs, row.tokens),
            (config, docs, tokens)
        );
        close(row.doc_map, map, &format!("{config} docMAP"));
    }
}

/// Fault tolerance: how each error rate's queries were answered, and
/// the outage served entirely stale behind one breaker trip.
#[test]
fn e13_degraded_serving() {
    let report = e13_faults::run(&WorkloadConfig::standard());
    assert_eq!((report.objects, report.queries_timed), (653, 180));
    let sweep: Vec<_> = report
        .sweep
        .iter()
        .map(|p| {
            (
                p.queries, p.fresh, p.buffered, p.stale, p.failed, p.retries, p.giveups,
            )
        })
        .collect();
    assert_eq!(
        sweep,
        [
            (180, 6, 174, 0, 0, 0, 0),
            (180, 6, 174, 0, 0, 0, 0),
            (180, 6, 173, 1, 0, 2, 1),
        ]
    );
    assert_eq!(
        (
            report.outage_queries,
            report.outage_stale_served,
            report.outage_failed,
            report.breaker_opens,
            report.breaker_rejections,
        ),
        (180, 180, 0, 1, 179)
    );
    assert_eq!(report.journaled_ops, 24);
}

/// Block-max top-k on the base-size corpus: the candidates it scores
/// exactly with every document 50 words long, and with lengths spread
/// from 30 to 300 words — the count a bound that mistakes a posting's
/// document length moves.
#[test]
fn e14_exact_scored_counts() {
    let config = WorkloadConfig::standard();
    assert_eq!(e14_topk::base_tier_exact_scored(&config, false), 2_314);
    assert_eq!(e14_topk::base_tier_exact_scored(&config, true), 5_066);
}
