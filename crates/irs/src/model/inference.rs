//! INQUERY-style inference-network retrieval.
//!
//! INQUERY (Callan, Croft, Harding 1992 — the paper's IRS) evaluates
//! queries over a Bayesian inference network; document evidence enters as
//! *beliefs* in `[0,1]` and operators combine beliefs. We reproduce the
//! published belief function and operator algebra:
//!
//! * belief(t, d) = `db + (1 − db) · tf_norm · idf_norm` with default
//!   belief `db = 0.4`,
//! * `tf_norm = tf / (tf + 0.5 + 1.5 · dl/avgdl)` (Okapi-style saturation),
//! * `idf_norm = ln((N + 0.5)/df) / ln(N + 1)`,
//! * `#and` = ∏ bᵢ, `#or` = 1 − ∏(1 − bᵢ), `#not` = 1 − b,
//!   `#sum` = mean, `#wsum` = weighted mean, `#max` = max.
//!
//! Documents lacking a term contribute the default belief — exactly the
//! property the paper's Figure 4 discussion depends on (an MMF document
//! whose paragraphs each match one query term still accrues belief for
//! `#and`). Scores therefore live in `[db_floor, 1)` and threshold queries
//! like `getIRSValue(...) > 0.6` (Section 4.4) are meaningful.

use super::{RetrievalModel, TermScorer};

/// The inference-network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceModel {
    /// Default belief assigned when no evidence is present (INQUERY: 0.4).
    pub default_belief: f64,
}

impl Default for InferenceModel {
    fn default() -> Self {
        InferenceModel {
            default_belief: 0.4,
        }
    }
}

/// The belief function prepared for one term: `idf_norm` (two logarithms)
/// is fixed, `tf_norm` remains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceScorer {
    default_belief: f64,
    one_minus_default: f64,
    idf_norm: f64,
    avg_doc_len: f64,
}

impl InferenceScorer {
    #[inline]
    pub(super) fn score(&self, tf: u32, doc_len: u32) -> f64 {
        if tf == 0 {
            return self.default_belief;
        }
        let tf = f64::from(tf);
        let dl_ratio = if self.avg_doc_len > 0.0 {
            f64::from(doc_len) / self.avg_doc_len
        } else {
            1.0
        };
        let tf_norm = tf / (tf + 0.5 + 1.5 * dl_ratio);
        self.default_belief + self.one_minus_default * tf_norm * self.idf_norm
    }
}

impl RetrievalModel for InferenceModel {
    fn name(&self) -> &'static str {
        "inference"
    }

    fn prepare(&self, df: u32, n_docs: u32, avg_doc_len: f64) -> TermScorer {
        let n = f64::from(n_docs.max(1));
        let df = f64::from(df.max(1));
        let idf_norm = ((n + 0.5) / df).ln() / (n + 1.0).ln();
        TermScorer::Inference(InferenceScorer {
            default_belief: self.default_belief,
            one_minus_default: 1.0 - self.default_belief,
            idf_norm: idf_norm.clamp(0.0, 1.0),
            avg_doc_len,
        })
    }

    fn default_score(&self) -> f64 {
        self.default_belief
    }

    fn combine_and(&self, scores: &[f64]) -> f64 {
        scores.iter().product()
    }

    fn combine_or(&self, scores: &[f64]) -> f64 {
        1.0 - scores.iter().map(|s| 1.0 - s).product::<f64>()
    }

    fn combine_sum(&self, scores: &[f64]) -> f64 {
        if scores.is_empty() {
            return self.default_belief;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
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

    fn stats(tf: u32, df: u32) -> TermStats {
        TermStats {
            tf,
            df,
            n_docs: 1000,
            doc_len: 100,
            avg_doc_len: 100.0,
        }
    }

    #[test]
    fn beliefs_stay_in_unit_interval() {
        let m = InferenceModel::default();
        for tf in [0u32, 1, 5, 100] {
            for df in [1u32, 10, 999] {
                let b = m.term_score(stats(tf, df));
                assert!((0.0..=1.0).contains(&b), "belief {b} out of range");
            }
        }
    }

    #[test]
    fn absent_term_gets_default_belief() {
        let m = InferenceModel::default();
        assert_eq!(m.term_score(stats(0, 10)), 0.4);
        assert_eq!(m.default_score(), 0.4);
    }

    #[test]
    fn present_term_exceeds_default() {
        let m = InferenceModel::default();
        assert!(m.term_score(stats(1, 10)) > 0.4);
    }

    #[test]
    fn operator_algebra() {
        let m = InferenceModel::default();
        assert!((m.combine_and(&[0.8, 0.5]) - 0.4).abs() < 1e-12);
        assert!((m.combine_or(&[0.8, 0.5]) - 0.9).abs() < 1e-12);
        assert!((m.combine_not(0.7) - 0.3).abs() < 1e-12);
        assert!((m.combine_sum(&[0.2, 0.8]) - 0.5).abs() < 1e-12);
        assert!((m.combine_max(&[0.2, 0.8]) - 0.8).abs() < 1e-12);
        let w = m.combine_wsum(&[(3.0, 0.8), (1.0, 0.4)]);
        assert!((w - 0.7).abs() < 1e-12);
    }

    #[test]
    fn and_with_defaults_still_discriminates() {
        // A doc matching both terms beats a doc matching only one — the
        // Figure 4 requirement that M2 outranks M1 for #and(WWW NII).
        let m = InferenceModel::default();
        let both = m.combine_and(&[0.7, 0.7]);
        let one = m.combine_and(&[0.7, m.default_score()]);
        let none = m.combine_and(&[m.default_score(), m.default_score()]);
        assert!(both > one && one > none);
    }

    #[test]
    fn very_common_terms_have_low_discrimination() {
        let m = InferenceModel::default();
        let rare = m.term_score(stats(3, 2));
        let common = m.term_score(stats(3, 990));
        assert!(rare > common);
        assert!(common >= 0.4);
    }
}
