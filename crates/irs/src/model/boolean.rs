//! Exact-match boolean retrieval: scores are set membership.

use super::{RetrievalModel, TermScorer};

/// The boolean model. `#and` is intersection (min), `#or` union (max),
/// `#not` complement; every score is 0 or 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BooleanModel;

/// Set membership of an occurrence with frequency `tf`.
#[inline]
pub(super) fn membership(tf: u32) -> f64 {
    if tf > 0 {
        1.0
    } else {
        0.0
    }
}

impl RetrievalModel for BooleanModel {
    fn name(&self) -> &'static str {
        "boolean"
    }

    fn prepare(&self, _df: u32, _n_docs: u32, _avg_doc_len: f64) -> TermScorer {
        TermScorer::Boolean
    }

    fn combine_and(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(1.0, f64::min)
    }

    fn combine_or(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(0.0, f64::max)
    }

    fn combine_sum(&self, scores: &[f64]) -> f64 {
        // Bag-of-words degenerates to disjunction in a set model.
        self.combine_or(scores)
    }

    fn combine_not(&self, score: f64) -> f64 {
        1.0 - score
    }

    fn bounded(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TermStats;

    fn stats(tf: u32) -> TermStats {
        TermStats {
            tf,
            df: 1,
            n_docs: 10,
            doc_len: 10,
            avg_doc_len: 10.0,
        }
    }

    #[test]
    fn membership_scores() {
        let m = BooleanModel;
        assert_eq!(m.term_score(stats(5)), 1.0);
        assert_eq!(m.term_score(stats(0)), 0.0);
    }

    #[test]
    fn boolean_algebra() {
        let m = BooleanModel;
        assert_eq!(m.combine_and(&[1.0, 1.0]), 1.0);
        assert_eq!(m.combine_and(&[1.0, 0.0]), 0.0);
        assert_eq!(m.combine_or(&[0.0, 1.0]), 1.0);
        assert_eq!(m.combine_or(&[0.0, 0.0]), 0.0);
        assert_eq!(m.combine_not(1.0), 0.0);
        assert_eq!(m.combine_not(0.0), 1.0);
        assert_eq!(m.combine_sum(&[0.0, 1.0]), 1.0);
    }
}
