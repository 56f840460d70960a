//! Retrieval models.
//!
//! The paper argues a loose coupling lets the application "use any kind of
//! retrieval system: e.g. boolean retrieval systems, vector retrieval
//! systems, and systems based on probability" (Section 3). All four
//! paradigms are implemented behind [`RetrievalModel`]; the coupling can
//! instantiate collections with any of them.
//!
//! Scoring interface: a model maps per-term statistics to a score and
//! defines how operator nodes combine child scores. The
//! [`InferenceModel`] reproduces INQUERY's inference-network semantics
//! (beliefs in `[0,1]`, default belief for missing evidence), which
//! Section 4.5.4 relies on when duplicating IRS operators inside the
//! OODBMS.

mod bm25;
mod boolean;
mod inference;
mod vector;

pub use bm25::{Bm25Model, Bm25Scorer};
pub use boolean::BooleanModel;
pub use inference::{InferenceModel, InferenceScorer};
pub use vector::{VectorModel, VectorScorer};

/// Per-term, per-document statistics handed to a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermStats {
    /// Term frequency in the document.
    pub tf: u32,
    /// Number of live documents containing the term.
    pub df: u32,
    /// Live documents in the collection.
    pub n_docs: u32,
    /// Length of the document in tokens.
    pub doc_len: u32,
    /// Average live document length in tokens.
    pub avg_doc_len: f64,
}

/// A model's term score with everything that depends only on the term
/// and the corpus (`df`, `n_docs`, `avg_doc_len`) already computed — what
/// [`RetrievalModel::prepare`] returns. Evaluators prepare one scorer per
/// query term and call [`TermScorer::score`] per document, so the
/// logarithms behind `idf` are paid once per term instead of once per
/// posting.
///
/// Each model's formula lives in exactly one place, its scorer's `score`;
/// [`RetrievalModel::term_score`] is that scorer applied once. Preparing
/// hoists only whole subexpressions — the operations that remain run on
/// the same operands in the same order — so a prepared score is
/// bit-identical to the unhoisted formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermScorer {
    /// [`BooleanModel`]: set membership, no statistics.
    Boolean,
    /// [`VectorModel`].
    Vector(VectorScorer),
    /// [`Bm25Model`].
    Bm25(Bm25Scorer),
    /// [`InferenceModel`].
    Inference(InferenceScorer),
}

impl TermScorer {
    /// Score of an occurrence with frequency `tf` in a document of
    /// `doc_len` tokens.
    ///
    /// Contract: for `1 <= tf <= doc_len` (every posting's case, since a
    /// term occurs at most once per token) the score is nondecreasing in
    /// `tf` and nonincreasing in `doc_len`, under any `df <= n_docs`, any
    /// `avg_doc_len > 0` and any in-range model parameters — rounding
    /// included. The top-k engine's bounds rely on it: the best score
    /// over a block's `(tf, doc_len)` frontier is the block's best score.
    #[inline]
    pub fn score(&self, tf: u32, doc_len: u32) -> f64 {
        match self {
            TermScorer::Boolean => boolean::membership(tf),
            TermScorer::Vector(s) => s.score(tf, doc_len),
            TermScorer::Bm25(s) => s.score(tf, doc_len),
            TermScorer::Inference(s) => s.score(tf, doc_len),
        }
    }
}

/// A retrieval paradigm: per-term scoring plus operator combination rules.
pub trait RetrievalModel: Send + Sync + std::fmt::Debug {
    /// Human-readable model name.
    fn name(&self) -> &'static str;

    /// The scorer of a term with live document frequency `df` in a corpus
    /// of `n_docs` live documents averaging `avg_doc_len` tokens.
    fn prepare(&self, df: u32, n_docs: u32, avg_doc_len: f64) -> TermScorer;

    /// Score of a term occurrence: the prepared scorer applied once.
    fn term_score(&self, stats: TermStats) -> f64 {
        self.prepare(stats.df, stats.n_docs, stats.avg_doc_len)
            .score(stats.tf, stats.doc_len)
    }

    /// Score assumed for a document that does not contain the term.
    /// Inference networks use a non-zero default belief; set-oriented
    /// models return 0.
    fn default_score(&self) -> f64 {
        0.0
    }

    /// Combine child scores under `#and`.
    fn combine_and(&self, scores: &[f64]) -> f64;

    /// Combine child scores under `#or`.
    fn combine_or(&self, scores: &[f64]) -> f64;

    /// Combine child scores under `#sum`.
    fn combine_sum(&self, scores: &[f64]) -> f64;

    /// Combine weighted child scores under `#wsum`.
    fn combine_wsum(&self, weighted: &[(f64, f64)]) -> f64 {
        let total_w: f64 = weighted.iter().map(|(w, _)| w).sum();
        if total_w == 0.0 {
            return 0.0;
        }
        weighted.iter().map(|(w, s)| w * s).sum::<f64>() / total_w
    }

    /// Combine child scores under `#max`.
    fn combine_max(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Negate a score under `#not`.
    fn combine_not(&self, score: f64) -> f64;

    /// True when scores are beliefs bounded to `[0,1]` (enables threshold
    /// semantics like the paper's `getIRSValue(...) > 0.6`).
    fn bounded(&self) -> bool {
        false
    }
}

/// Selects and configures a retrieval model; the serialisable form used in
/// collection configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Exact boolean matching, scores in {0, 1}.
    Boolean,
    /// TF-IDF with pivoted document-length normalisation.
    Vector(VectorModel),
    /// Okapi BM25.
    Bm25(Bm25Model),
    /// INQUERY-style inference network.
    Inference(InferenceModel),
}

impl Default for ModelKind {
    fn default() -> Self {
        ModelKind::Inference(InferenceModel::default())
    }
}

impl ModelKind {
    /// Borrow the trait object implementing this model.
    pub fn as_model(&self) -> &dyn RetrievalModel {
        match self {
            ModelKind::Boolean => &BooleanModel,
            ModelKind::Vector(m) => m,
            ModelKind::Bm25(m) => m,
            ModelKind::Inference(m) => m,
        }
    }

    /// Stable tag used by the persistence layer.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            ModelKind::Boolean => 0,
            ModelKind::Vector(_) => 1,
            ModelKind::Bm25(_) => 2,
            ModelKind::Inference(_) => 3,
        }
    }

    /// Inverse of [`ModelKind::tag`], with default parameters.
    pub(crate) fn from_tag(tag: u8) -> Option<ModelKind> {
        match tag {
            0 => Some(ModelKind::Boolean),
            1 => Some(ModelKind::Vector(VectorModel::default())),
            2 => Some(ModelKind::Bm25(Bm25Model::default())),
            3 => Some(ModelKind::Inference(InferenceModel::default())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(tf: u32, df: u32) -> TermStats {
        TermStats {
            tf,
            df,
            n_docs: 100,
            doc_len: 50,
            avg_doc_len: 50.0,
        }
    }

    #[test]
    fn all_models_score_presence_above_absence() {
        let kinds = [
            ModelKind::Boolean,
            ModelKind::Vector(VectorModel::default()),
            ModelKind::Bm25(Bm25Model::default()),
            ModelKind::Inference(InferenceModel::default()),
        ];
        for k in &kinds {
            let m = k.as_model();
            assert!(
                m.term_score(stats(3, 10)) > m.default_score(),
                "{} presence > absence",
                m.name()
            );
        }
    }

    #[test]
    fn rarer_terms_score_higher() {
        for k in [
            ModelKind::Vector(VectorModel::default()),
            ModelKind::Bm25(Bm25Model::default()),
            ModelKind::Inference(InferenceModel::default()),
        ] {
            let m = k.as_model();
            assert!(
                m.term_score(stats(2, 2)) > m.term_score(stats(2, 90)),
                "{} idf effect",
                m.name()
            );
        }
    }

    #[test]
    fn higher_tf_scores_higher() {
        for k in [
            ModelKind::Vector(VectorModel::default()),
            ModelKind::Bm25(Bm25Model::default()),
            ModelKind::Inference(InferenceModel::default()),
        ] {
            let m = k.as_model();
            assert!(
                m.term_score(stats(8, 10)) > m.term_score(stats(1, 10)),
                "{} tf effect",
                m.name()
            );
        }
    }

    #[test]
    fn model_tags_round_trip() {
        for k in [
            ModelKind::Boolean,
            ModelKind::Vector(VectorModel::default()),
            ModelKind::Bm25(Bm25Model::default()),
            ModelKind::Inference(InferenceModel::default()),
        ] {
            let back = ModelKind::from_tag(k.tag()).unwrap();
            assert_eq!(back.tag(), k.tag());
        }
        assert!(ModelKind::from_tag(99).is_none());
    }

    #[test]
    fn default_wsum_is_weighted_mean() {
        let m = ModelKind::Boolean;
        let s = m.as_model().combine_wsum(&[(3.0, 1.0), (1.0, 0.0)]);
        assert!((s - 0.75).abs() < 1e-12);
        assert_eq!(m.as_model().combine_wsum(&[(0.0, 1.0)]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Corpus statistics: a share of `n_docs` as `df`, `n_docs` and
    /// `avg_doc_len`.
    fn corpus() -> impl Strategy<Value = (f64, u32, f64)> {
        (0.0..=1.0f64, 1u32..=1_000_000, 0.01f64..10_000.0)
    }

    /// `(tf, tf step, length beyond the larger tf, length step)`.
    fn postings() -> impl Strategy<Value = (u32, u32, u32, u32)> {
        (1u32..=4096, 0u32..=4096, 0u32..=100_000, 0u32..=100_000)
    }

    /// The [`TermScorer::score`] contract at `tf <= tf_hi <= len <=
    /// len_hi`.
    fn check_monotone(
        model: &dyn RetrievalModel,
        (df_share, n_docs, avg_doc_len): (f64, u32, f64),
        (tf, tf_step, len_pad, len_step): (u32, u32, u32, u32),
    ) -> TestCaseResult {
        let df = (df_share * f64::from(n_docs)) as u32;
        let scorer = model.prepare(df, n_docs, avg_doc_len);
        let tf_hi = tf + tf_step;
        let len = tf_hi + len_pad;
        let len_hi = len + len_step;
        prop_assert!(
            scorer.score(tf, len) <= scorer.score(tf_hi, len),
            "{} not nondecreasing in tf: {tf} -> {tf_hi} at length {len}",
            model.name()
        );
        prop_assert!(
            scorer.score(tf, len_hi) <= scorer.score(tf, len),
            "{} not nonincreasing in length: {len} -> {len_hi} at tf {tf}",
            model.name()
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn boolean_scores_are_monotone(corpus in corpus(), postings in postings()) {
            check_monotone(&BooleanModel, corpus, postings)?;
        }

        #[test]
        fn vector_scores_are_monotone(
            slope in 0.0..=1.0f64,
            corpus in corpus(),
            postings in postings(),
        ) {
            check_monotone(&VectorModel { slope }, corpus, postings)?;
        }

        #[test]
        fn bm25_scores_are_monotone(
            k1 in 0.1..=3.0f64,
            b in 0.0..=1.0f64,
            corpus in corpus(),
            postings in postings(),
        ) {
            check_monotone(&Bm25Model { k1, b }, corpus, postings)?;
        }

        #[test]
        fn inference_scores_are_monotone(
            default_belief in 0.0..=1.0f64,
            corpus in corpus(),
            postings in postings(),
        ) {
            check_monotone(&InferenceModel { default_belief }, corpus, postings)?;
        }
    }
}
