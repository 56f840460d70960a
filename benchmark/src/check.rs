//! Reference answers. A served answer is compared bit for bit with the
//! IRS's *exhaustive* evaluation (`IrsCollection::search`, no pruning, no
//! buffer, no wire) cut to the same top k — a code path the served
//! answer never takes.

use std::sync::atomic::{AtomicBool, Ordering};

use coupling::DocumentSystem;
use oodb::Oid;
use serve::Response;

use crate::corpus::RESULT_LIMIT;
use crate::stream::{ReadKind, ReadOp, COLLECTION};

pub struct Checker {
    /// Test hook (`--corrupt-reference`): flip one bit of the next
    /// reference answer, which must make the run fail.
    corrupt_next: AtomicBool,
}

impl Checker {
    pub fn new(corrupt: bool) -> Checker {
        Checker {
            corrupt_next: AtomicBool::new(corrupt),
        }
    }

    /// The single-node top k for `query`: score descending, ties by
    /// ascending oid, cut where the engine cuts (ties by key string).
    pub fn reference_top_k(&self, sys: &DocumentSystem, query: &str) -> Vec<(Oid, f64)> {
        let coll = sys.collection(COLLECTION).expect("collection exists");
        let mut hits = coll
            .irs()
            .search(query)
            .expect("reference evaluation succeeds");
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        hits.truncate(RESULT_LIMIT);
        let mut top: Vec<(Oid, f64)> = hits
            .iter()
            .filter_map(|h| Oid::parse(&h.key).map(|oid| (oid, h.score)))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if self.corrupt_next.swap(false, Ordering::Relaxed) {
            match top.first_mut() {
                Some(first) => first.1 = f64::from_bits(first.1.to_bits() ^ 1),
                None => top.push((Oid(0), 0.0)),
            }
        }
        top
    }

    /// Check one read response against the reference.
    pub fn check_read(
        &self,
        sys: &DocumentSystem,
        op: &ReadOp,
        response: &Response,
    ) -> Result<(), String> {
        let reference = self.reference_top_k(sys, &op.query);
        match (op.kind, response) {
            (ReadKind::Irs, Response::IrsResult { hits, .. }) => same_hits(hits, &reference),
            (ReadKind::Mixed(_), Response::Mixed { oids, .. }) => {
                // Threshold 0.0, class PARA, and only PARA objects are
                // indexed: the answer is the positive part of the top k.
                let mut expected: Vec<Oid> = reference
                    .iter()
                    .filter(|(_, score)| *score > 0.0)
                    .map(|(oid, _)| *oid)
                    .collect();
                expected.sort();
                if *oids == expected {
                    Ok(())
                } else {
                    Err(format!("mixed oids {oids:?}, reference {expected:?}"))
                }
            }
            (_, other) => Err(format!("response of the wrong shape: {other:?}")),
        }
    }
}

/// Same oids in the same order with the same score bits.
pub fn same_hits(got: &[(Oid, f64)], reference: &[(Oid, f64)]) -> Result<(), String> {
    let same = got.len() == reference.len()
        && got
            .iter()
            .zip(reference)
            .all(|(g, r)| g.0 == r.0 && g.1.to_bits() == r.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("hits {got:?}, reference {reference:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_score_bit_is_a_mismatch() {
        let reference = [(Oid(4), 0.75), (Oid(9), 0.5)];
        assert!(same_hits(&reference, &reference).is_ok());
        let mut off = reference;
        off[1].1 = f64::from_bits(off[1].1.to_bits() ^ 1);
        assert!(same_hits(&off, &reference).is_err());
        assert!(same_hits(&reference[..1], &reference).is_err());
    }
}
