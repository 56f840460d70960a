//! Probabilistic retrieval: Okapi BM25.

use super::{RetrievalModel, TermScorer};

/// Okapi BM25 with the usual `k1`/`b` parameters. Scores are unbounded;
/// operators combine by summation as in standard bag-of-words BM25, with
/// `#and`/`#max`/`#not` given pragmatic semantics (sum / max / zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Model {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length-normalisation strength.
    pub b: f64,
}

impl Default for Bm25Model {
    fn default() -> Self {
        Bm25Model { k1: 1.2, b: 0.75 }
    }
}

/// BM25 prepared for one term: `idf` and the parameter sums are fixed,
/// `tf` and the length ratio remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Scorer {
    /// `None` for an empty corpus, where every score is 0.
    idf: Option<f64>,
    k1: f64,
    k1_plus_one: f64,
    b: f64,
    one_minus_b: f64,
    avg_doc_len: f64,
}

impl Bm25Scorer {
    #[inline]
    pub(super) fn score(&self, tf: u32, doc_len: u32) -> f64 {
        let Some(idf) = self.idf else { return 0.0 };
        if tf == 0 {
            return 0.0;
        }
        let dl_ratio = if self.avg_doc_len > 0.0 {
            f64::from(doc_len) / self.avg_doc_len
        } else {
            1.0
        };
        let tf = f64::from(tf);
        let denom = tf + self.k1 * (self.one_minus_b + self.b * dl_ratio);
        idf * tf * self.k1_plus_one / denom
    }
}

impl RetrievalModel for Bm25Model {
    fn name(&self) -> &'static str {
        "bm25"
    }

    fn prepare(&self, df: u32, n_docs: u32, avg_doc_len: f64) -> TermScorer {
        let idf = (n_docs > 0).then(|| {
            let df = f64::from(df.max(1));
            let n = f64::from(n_docs);
            // The +1 keeps idf positive even for very common terms.
            ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
        });
        TermScorer::Bm25(Bm25Scorer {
            idf,
            k1: self.k1,
            k1_plus_one: self.k1 + 1.0,
            b: self.b,
            one_minus_b: 1.0 - self.b,
            avg_doc_len,
        })
    }

    fn combine_and(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn combine_or(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn combine_sum(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn combine_wsum(&self, weighted: &[(f64, f64)]) -> f64 {
        weighted.iter().map(|(w, s)| w * s).sum()
    }

    fn combine_not(&self, _score: f64) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TermStats;

    fn stats(tf: u32, df: u32, doc_len: u32, n: u32) -> TermStats {
        TermStats {
            tf,
            df,
            n_docs: n,
            doc_len,
            avg_doc_len: 100.0,
        }
    }

    #[test]
    fn tf_saturates() {
        let m = Bm25Model::default();
        let s1 = m.term_score(stats(1, 10, 100, 1000));
        let s2 = m.term_score(stats(2, 10, 100, 1000));
        let s20 = m.term_score(stats(20, 10, 100, 1000));
        let s21 = m.term_score(stats(21, 10, 100, 1000));
        assert!(s2 - s1 > s21 - s20, "marginal gain shrinks");
    }

    #[test]
    fn idf_positive_even_for_ubiquitous_terms() {
        let m = Bm25Model::default();
        assert!(m.term_score(stats(1, 1000, 100, 1000)) > 0.0);
    }

    #[test]
    fn b_zero_disables_length_normalisation() {
        let m = Bm25Model { k1: 1.2, b: 0.0 };
        assert_eq!(
            m.term_score(stats(3, 10, 10, 1000)),
            m.term_score(stats(3, 10, 1000, 1000))
        );
    }

    #[test]
    fn length_normalisation_penalises_long_docs() {
        let m = Bm25Model::default();
        assert!(m.term_score(stats(3, 10, 50, 1000)) > m.term_score(stats(3, 10, 500, 1000)));
    }
}
