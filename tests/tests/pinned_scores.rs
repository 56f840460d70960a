//! Scores pinned to the bit.
//!
//! The constants below were captured on the commit *before* the top-k
//! engine became a compiled kernel and the models grew prepared
//! per-term scorers. Any refactor of `term_score`, the combine
//! operators or the engine that reorders a floating-point operation
//! changes a bit somewhere in here. Never regenerate them to make a
//! change pass — a diff in this file is a behaviour change.

use irs::analysis::{Analyzer, AnalyzerConfig};
use irs::model::TermStats;
use irs::query::evaluate;
use irs::{evaluate_top_k, parse_query, DocId, InvertedIndex, ModelKind};
use system_tests::VOCAB;

fn models() -> [ModelKind; 4] {
    [
        ModelKind::Boolean,
        ModelKind::Vector(Default::default()),
        ModelKind::Bm25(Default::default()),
        ModelKind::Inference(Default::default()),
    ]
}

/// `(tf, df, n_docs, doc_len, avg_doc_len)` — ordinary values, the
/// benchmark corpus's shape, the `avg_doc_len == 0` branch, `df > n_docs`
/// (what mismatched supplied globals could produce) and a tf past one
/// varint byte.
const STATS: [(u32, u32, u32, u32, f64); 6] = [
    (1, 1, 1, 1, 1.0),
    (1, 10, 1000, 100, 100.0),
    (3, 812, 27_378, 57, 57.3),
    (7, 5, 100, 30, 61.25),
    (128, 99_999, 100_000, 91, 44.0),
    (4, 500, 20, 12, 0.0),
];

/// `f64::to_bits` of `term_score(STATS[i])`, one row per model in
/// [`models`] order.
#[rustfmt::skip]
const TERM_SCORE_BITS: [[u64; 6]; 4] = [
    [0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000],
    [0x3fe62e42fefa39ef, 0x401275e2271bba31, 0x401dd0e591bb6775, 0x40248f6d4adf1f32, 0x40099c8347c60ce6, 0x3fb7f5a7fedde25a],
    [0x3fd269621134db91, 0x40123ac1b28c684a, 0x40162261a8e401de, 0x401729039ab73b59, 0x3f0103a058beac05, 0xc015773f24bed30c],
    [0x3fe08b33db0cb22a, 0x3fe11106f6024fc0, 0x3fe0c5d02a56adb2, 0x3fe76973fa0b5027, 0x3fd9999cca00789c, 0x3fd999999999999a],
];

const QUERIES: [&str; 3] = [
    "#or(telnet www)",
    "#wsum(3 gopher 1 #and(ftp nii) 0 lynx)",
    "#sum(#max(www mosaic) #or(irc usenet #and(archie wais)) veronica)",
];

/// Top-10 `(doc id, score bits)` of `QUERIES[q]` over [`pinned_corpus`],
/// indexed `[model][query]`.
#[rustfmt::skip]
const TOP10_BITS: [[&[(u32, u64)]; 3]; 4] = [
    [
        &[(1, 0x3ff0000000000000), (2, 0x3ff0000000000000), (3, 0x3ff0000000000000), (4, 0x3ff0000000000000), (6, 0x3ff0000000000000), (7, 0x3ff0000000000000), (8, 0x3ff0000000000000), (9, 0x3ff0000000000000), (10, 0x3ff0000000000000), (11, 0x3ff0000000000000)],
        &[(1, 0x3ff0000000000000), (3, 0x3ff0000000000000), (4, 0x3ff0000000000000), (7, 0x3ff0000000000000), (10, 0x3ff0000000000000), (11, 0x3ff0000000000000), (12, 0x3ff0000000000000), (13, 0x3ff0000000000000), (14, 0x3ff0000000000000), (15, 0x3ff0000000000000)],
        &[(0, 0x3ff0000000000000), (1, 0x3ff0000000000000), (2, 0x3ff0000000000000), (3, 0x3ff0000000000000), (4, 0x3ff0000000000000), (6, 0x3ff0000000000000), (7, 0x3ff0000000000000), (8, 0x3ff0000000000000), (9, 0x3ff0000000000000), (10, 0x3ff0000000000000)],
    ],
    [
        &[(114, 0x40101c824ea72c1c), (92, 0x40101069681b19d9), (61, 0x400fb99406263cba), (62, 0x400f5c4b25cea868), (90, 0x400f307486b19ea8), (33, 0x400ed9b19011d938), (49, 0x400eac2a8dbd0504), (68, 0x400e9f0f91c2a104), (9, 0x400e8cd2263e91bd), (64, 0x400e888bb5a3aef8)],
        &[(111, 0x40233ff33e175e4c), (80, 0x402269d58595cada), (17, 0x40225f3f2dd04082), (14, 0x40224e8ac878416a), (10, 0x402236c29757bcf4), (74, 0x402206555debc654), (81, 0x4021d63d5455eeb4), (72, 0x4021d3628e1f1368), (15, 0x4021d0b173e2dc7e), (35, 0x40219b1e449afe20)],
        &[(79, 0x4024d276c68c6167), (16, 0x40243bcb2d1a14af), (72, 0x4023f5d053ae3581), (109, 0x40239bc46f66be64), (110, 0x402326d96b573962), (11, 0x40226f8739a8670a), (74, 0x4021e55b4b277565), (30, 0x402137af52bd43bd), (14, 0x4020c8151ec3f3e5), (38, 0x4020ad66016ed9bc)],
    ],
    [
        &[(61, 0x3fe1904cdfb6ab9b), (92, 0x3fe17c0994372d71), (62, 0x3fe15afb424053c4), (90, 0x3fe13c7a8b2925ce), (114, 0x3fe134ec8bde3f20), (68, 0x3fe1294338291662), (49, 0x3fe1254e1fb13991), (33, 0x3fe120be237c4125), (9, 0x3fe10c69945fd310), (64, 0x3fe0f0a7a53d35c4)],
        &[(111, 0x3ffe662760a7fe12), (74, 0x3ffdf3552be9b78f), (17, 0x3ffd20fc2342ee58), (15, 0x3ffd19c997b495ba), (14, 0x3ffcf5bb7b58da10), (12, 0x3ffca7452a710114), (107, 0x3ffca4b48e819421), (60, 0x3ffc5fcd9135aac4), (72, 0x3ffc27bac217365e), (73, 0x3ffc0fa9db29d22f)],
        &[(79, 0x4012b86f94897773), (72, 0x4012134f375caddc), (110, 0x401033644b1126af), (16, 0x4010160ca9eed715), (74, 0x400ee24c73d8a88e), (11, 0x400e46c39ea93886), (109, 0x400e0b40b6915883), (14, 0x400d00b442543ed5), (46, 0x400c9a69cc05dc31), (81, 0x400b97246fb78472)],
    ],
    [
        &[(61, 0x3fe502774e83ca9e), (92, 0x3fe501afc0665e64), (62, 0x3fe500223e22ad0a), (90, 0x3fe4ff08b44b5b53), (114, 0x3fe4ff063eb0673e), (68, 0x3fe4fdf7a7667820), (49, 0x3fe4fdcbf8b289c8), (33, 0x3fe4fdbdd73e99fe), (9, 0x3fe4fcdef7f94370), (64, 0x3fe4fb90da328e7a)],
        &[(63, 0x3fda46cf970fbd30), (75, 0x3fda3b603c1c0516), (23, 0x3fda3918f397ea0e), (69, 0x3fda350ce018fe6c), (112, 0x3fda350ce018fe6c), (71, 0x3fda32e84e0ad2be), (43, 0x3fda315b7516a832), (87, 0x3fda1dae6a5712dc), (29, 0x3fda1d9a852f562e), (91, 0x3fda12ee937b6a36)],
        &[(22, 0x3fe19b60e0bdf641), (79, 0x3fe12648cf2ad921), (72, 0x3fe11bdadfdd03fe), (11, 0x3fe106237e805e0d), (110, 0x3fe0fd62adde178f), (81, 0x3fe0f320a2053a8d), (16, 0x3fe0ee59e3286339), (104, 0x3fe0e9caf4a10b41), (105, 0x3fe0e904f12bf805), (74, 0x3fe0df6183a136b6)],
    ],
];

/// 120 documents of 3..40 vocabulary words drawn from a fixed LCG
/// (skewed towards the front of the vocabulary so `df` and `tf` vary),
/// block size 16 so lists span several blocks, two tombstones.
fn pinned_corpus() -> InvertedIndex {
    let mut ix = InvertedIndex::with_block_size(Analyzer::new(AnalyzerConfig::default()), 16);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as usize
    };
    for i in 0..120 {
        let len = 3 + next() % 38;
        let words: Vec<&str> = (0..len)
            .map(|_| VOCAB[(next() % VOCAB.len()).min(next() % VOCAB.len())])
            .collect();
        ix.add_document(&format!("doc{i:03}"), &words.join(" "))
            .unwrap();
    }
    ix.delete_document("doc005").unwrap();
    ix.delete_document("doc050").unwrap();
    ix
}

fn stats(i: usize) -> TermStats {
    let (tf, df, n_docs, doc_len, avg_doc_len) = STATS[i];
    TermStats {
        tf,
        df,
        n_docs,
        doc_len,
        avg_doc_len,
    }
}

#[test]
fn term_scores_are_pinned_to_the_bit() {
    for (m, kind) in models().iter().enumerate() {
        let model = kind.as_model();
        for i in 0..STATS.len() {
            let got = model.term_score(stats(i)).to_bits();
            assert_eq!(
                got,
                TERM_SCORE_BITS[m][i],
                "{} term_score{:?}: {got:#018x}",
                model.name(),
                STATS[i]
            );
        }
    }
}

#[test]
fn whole_query_top10_lists_are_pinned_to_the_bit() {
    let ix = pinned_corpus();
    for (m, kind) in models().iter().enumerate() {
        let model = kind.as_model();
        for (q, query) in QUERIES.iter().enumerate() {
            let node = parse_query(query).unwrap();
            let got: Vec<(u32, u64)> = evaluate_top_k(&ix, model, &node, 10)
                .expect("prunable tree")
                .into_iter()
                .map(|(d, s)| (d.0, s.to_bits()))
                .collect();
            assert_eq!(got, TOP10_BITS[m][q], "{} {query}", model.name());
            // The exhaustive path is pinned through the same constants.
            let full = evaluate(&ix, model, &node);
            for &(d, bits) in &got {
                assert_eq!(full[&DocId(d)].to_bits(), bits, "{} {query}", model.name());
            }
        }
    }
}
