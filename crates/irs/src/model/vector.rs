//! Vector-space retrieval: TF-IDF with pivoted length normalisation.

use super::{RetrievalModel, TermScorer};

/// TF-IDF vector model. Scores are unbounded similarities; operator
/// combination degrades to summation (the vector model has no native
/// boolean algebra), and `#not` contributes nothing — documented behaviour
/// the coupling surfaces when an application pairs structural negation
/// with a vector collection (the paper's open "Open World vs. Closed
/// World" issue, Section 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorModel {
    /// Pivot slope for length normalisation (0 = none, 1 = full).
    pub slope: f64,
}

impl Default for VectorModel {
    fn default() -> Self {
        VectorModel { slope: 0.25 }
    }
}

/// TF-IDF prepared for one term: `idf` is fixed, the dampened `tf` and
/// the length pivot remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorScorer {
    /// `None` for an absent term or an empty corpus, where every score
    /// is 0.
    idf: Option<f64>,
    slope: f64,
    one_minus_slope: f64,
    avg_doc_len: f64,
}

impl VectorScorer {
    #[inline]
    pub(super) fn score(&self, tf: u32, doc_len: u32) -> f64 {
        let Some(idf) = self.idf else { return 0.0 };
        if tf == 0 {
            return 0.0;
        }
        let tf = 1.0 + f64::from(tf).ln();
        let pivot = if self.avg_doc_len > 0.0 {
            self.one_minus_slope + self.slope * f64::from(doc_len.max(1)) / self.avg_doc_len
        } else {
            1.0
        };
        tf * idf / pivot
    }
}

impl RetrievalModel for VectorModel {
    fn name(&self) -> &'static str {
        "vector"
    }

    fn prepare(&self, df: u32, n_docs: u32, avg_doc_len: f64) -> TermScorer {
        let idf = (df > 0 && n_docs > 0).then(|| (1.0 + f64::from(n_docs) / f64::from(df)).ln());
        TermScorer::Vector(VectorScorer {
            idf,
            slope: self.slope,
            one_minus_slope: 1.0 - self.slope,
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

    fn stats(tf: u32, df: u32, doc_len: u32) -> TermStats {
        TermStats {
            tf,
            df,
            n_docs: 1000,
            doc_len,
            avg_doc_len: 100.0,
        }
    }

    #[test]
    fn zero_tf_scores_zero() {
        assert_eq!(VectorModel::default().term_score(stats(0, 10, 100)), 0.0);
    }

    #[test]
    fn longer_documents_are_penalised() {
        let m = VectorModel::default();
        assert!(m.term_score(stats(3, 10, 50)) > m.term_score(stats(3, 10, 500)));
    }

    #[test]
    fn slope_zero_disables_length_normalisation() {
        let m = VectorModel { slope: 0.0 };
        assert_eq!(
            m.term_score(stats(3, 10, 50)),
            m.term_score(stats(3, 10, 500))
        );
    }

    #[test]
    fn operators_sum() {
        let m = VectorModel::default();
        assert_eq!(m.combine_and(&[1.0, 2.0]), 3.0);
        assert_eq!(m.combine_or(&[1.0, 2.0]), 3.0);
        assert_eq!(m.combine_wsum(&[(2.0, 1.5)]), 3.0);
        assert_eq!(m.combine_not(5.0), 0.0);
    }
}
