//! Mixed-query evaluation strategies (paper Sections 4.5.3–4.5.4).
//!
//! A mixed query conjoins a structural condition with a content
//! condition. Two evaluation orders are conceivable:
//!
//! 1. **Independent** — "the query portions are processed independently
//!    by the corresponding system, and the results are combined (e.g.,
//!    they would be intersected)". Every object of the class extent is
//!    examined structurally.
//! 2. **IRS-first** — "the IRS selects all IRS documents fulfilling the
//!    conditions on the content. The structure conditions are only
//!    verified for the text objects identified in this first step"
//!    ([GTZ93], [HaW92]). (The opposite restriction is "not feasible
//!    because most IRSs can only search entire collections".)
//!
//! §4.5.4 leaves the choice to the OODBMS optimizer, and so does
//! [`evaluate_mixed`]: it fetches the content result once, then
//! [`plan_mixed`] lets the smaller of two cardinalities drive — the
//! class extent (`Independent`) or the content entries above the
//! threshold (`IrsFirst`) — with the caller's [`MixedStrategy`] only
//! breaking ties. Both orders intersect the *same* content map with the
//! same extent, so they name the same objects for every origin,
//! threshold and [`result_limit`](crate::CollectionSetup::result_limit):
//! a limit `k` caps the content side, and objects beyond rank `k` are
//! in neither answer — choose `k` at least as large as the expected
//! number of threshold survivors. [`execute_mixed`] runs one order
//! unconditionally (Experiment E5's crossover sweep, equivalence tests).
//!
//! **Degraded mode:** when the IRS is unavailable and the content result
//! is served stale (see [`ResultOrigin::Stale`]), the planner always
//! picks `Independent`: a stale result is trusted to *score* the objects
//! a structural pass finds itself, not to drive the evaluation.
//! [`MixedOutcome`] reports the order that ran and the result's origin.

use std::cmp::Ordering;

use oodb::{ClassId, Database, Oid};

use crate::buffer::ResultMap;
use crate::collection::{Collection, ResultOrigin};
use crate::error::Result;

/// An evaluation order: the caller's tie-break preference going in, the
/// order that actually ran coming out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedStrategy {
    /// Walk the class extent, probe the content result per object.
    Independent,
    /// Walk the content result, verify class and structure per entry.
    IrsFirst,
}

/// Why the planner chose its strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// The content result is stale and may not drive.
    StaleContent,
    /// Fewer content survivors than extent members.
    FewerSurvivors,
    /// Fewer extent members than content survivors.
    SmallerExtent,
    /// Equal cardinalities: the caller's preference decided.
    Preference,
}

/// The planner's decision and the two cardinalities it read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedPlan {
    /// The order to execute.
    pub strategy: MixedStrategy,
    /// Members of the class extent, subclasses included.
    pub extent_len: usize,
    /// Content entries above the threshold (of any class).
    pub survivors: usize,
    /// Which rule decided.
    pub reason: PlanReason,
}

/// Pick the evaluation order: the smaller side drives, `preferred`
/// breaks a tie, stale content never drives.
pub fn plan_mixed(
    extent_len: usize,
    survivors: usize,
    origin: ResultOrigin,
    preferred: MixedStrategy,
) -> MixedPlan {
    let (strategy, reason) = if origin == ResultOrigin::Stale {
        (MixedStrategy::Independent, PlanReason::StaleContent)
    } else {
        match survivors.cmp(&extent_len) {
            Ordering::Less => (MixedStrategy::IrsFirst, PlanReason::FewerSurvivors),
            Ordering::Greater => (MixedStrategy::Independent, PlanReason::SmallerExtent),
            Ordering::Equal => (preferred, PlanReason::Preference),
        }
    };
    MixedPlan {
        strategy,
        extent_len,
        survivors,
        reason,
    }
}

/// Outcome of a mixed-query evaluation, with the work counters E5 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedOutcome {
    /// Matching objects, ascending by OID.
    pub oids: Vec<Oid>,
    /// Structural predicate evaluations performed.
    pub structural_checks: usize,
    /// IRS calls this evaluation performed: 1 when its content result
    /// came back [`ResultOrigin::Fresh`], 0 on a buffer or stale hit.
    pub irs_calls: u64,
    /// Strategy actually executed (the planner's choice, not
    /// necessarily the caller's preference).
    pub strategy: MixedStrategy,
    /// Where the content result came from.
    pub origin: ResultOrigin,
}

/// Evaluate the mixed query "objects of `class` where `structural(oid)`
/// AND IRS value of `irs_query` > `threshold`" in the order the planner
/// picks; `strategy` is the tie-break preference.
pub fn evaluate_mixed(
    db: &Database,
    coll: &Collection,
    class: &str,
    structural: &dyn Fn(&Database, Oid) -> bool,
    irs_query: &str,
    threshold: f64,
    strategy: MixedStrategy,
) -> Result<MixedOutcome> {
    evaluate_mixed_planned(db, coll, class, structural, irs_query, threshold, strategy)
        .map(|(outcome, _)| outcome)
}

/// [`evaluate_mixed`], also returning the plan that says why the
/// executed strategy ran.
pub fn evaluate_mixed_planned(
    db: &Database,
    coll: &Collection,
    class: &str,
    structural: &dyn Fn(&Database, Oid) -> bool,
    irs_query: &str,
    threshold: f64,
    strategy: MixedStrategy,
) -> Result<(MixedOutcome, MixedPlan)> {
    let class_id = db.schema().class_id(class)?;
    let (content, origin) = coll.shared_result(irs_query)?;
    let survivors = content.values().filter(|&&v| v > threshold).count();
    let plan = plan_mixed(db.extent_len(class_id, true), survivors, origin, strategy);
    let (oids, structural_checks) =
        execute_mixed(db, class_id, structural, &content, threshold, plan.strategy);
    let outcome = MixedOutcome {
        oids,
        structural_checks,
        irs_calls: u64::from(origin == ResultOrigin::Fresh),
        strategy: plan.strategy,
        origin,
    };
    Ok((outcome, plan))
}

/// Run one evaluation order over an already-fetched content result,
/// whatever the cardinalities say. Returns the matching objects
/// (ascending by OID) and the structural checks performed.
pub fn execute_mixed(
    db: &Database,
    class: ClassId,
    structural: &dyn Fn(&Database, Oid) -> bool,
    content: &ResultMap,
    threshold: f64,
    strategy: MixedStrategy,
) -> (Vec<Oid>, usize) {
    let mut structural_checks = 0usize;
    let mut check = |oid: Oid| {
        structural_checks += 1;
        structural(db, oid)
    };
    let mut oids: Vec<Oid> = match strategy {
        MixedStrategy::Independent => db
            .extent_iter(class, true)
            .filter(|&oid| check(oid) && content.get(&oid).is_some_and(|&v| v > threshold))
            .collect(),
        MixedStrategy::IrsFirst => content
            .iter()
            .filter(|&(_, &v)| v > threshold)
            .map(|(&oid, _)| oid)
            // Only live objects of the requested class qualify.
            .filter(|&oid| {
                db.object(oid)
                    .is_ok_and(|obj| db.schema().is_subclass(obj.class, class))
            })
            .filter(|&oid| check(oid))
            .collect(),
    };
    oids.sort_unstable();
    (oids, structural_checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionSetup;
    use oodb::Value;
    use sgml::{load_document, parse_document};

    fn setup() -> (Database, Collection) {
        let mut db = Database::in_memory();
        db.define_class("IRSObject", None).unwrap();
        for i in 0..6 {
            let text = if i % 2 == 0 {
                format!("paragraph {i} about telnet sessions")
            } else {
                format!("paragraph {i} about www growth")
            };
            let tree = parse_document(&format!("<MMFDOC><PARA>{text}</PARA></MMFDOC>")).unwrap();
            let mut txn = db.begin();
            let l = load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap();
            // Tag paragraphs with a position attribute for the structural
            // predicate.
            let para = l.elements[1].1;
            db.set_attr(&mut txn, para, "pos", Value::Int(i)).unwrap();
            db.commit(txn).unwrap();
        }
        let mut coll = Collection::new("c", CollectionSetup::default());
        coll.index_objects(&db, "ACCESS p FROM p IN PARA").unwrap();
        (db, coll)
    }

    fn pos_lt(limit: i64) -> impl Fn(&Database, Oid) -> bool {
        move |db, oid| {
            db.get_attr(oid, "pos")
                .ok()
                .and_then(|v| v.as_f64())
                .is_some_and(|p| (p as i64) < limit)
        }
    }

    /// One order, forced, over the collection's content result.
    fn forced(
        db: &Database,
        coll: &Collection,
        structural: &dyn Fn(&Database, Oid) -> bool,
        query: &str,
        strategy: MixedStrategy,
    ) -> (Vec<Oid>, usize) {
        let class = db.schema().class_id("PARA").unwrap();
        let content = coll.get_irs_result(query).unwrap();
        execute_mixed(db, class, structural, &content, 0.4, strategy)
    }

    #[test]
    fn both_strategies_agree_on_results() {
        let (db, coll) = setup();
        let (a, _) = forced(&db, &coll, &pos_lt(4), "telnet", MixedStrategy::Independent);
        let (b, _) = forced(&db, &coll, &pos_lt(4), "telnet", MixedStrategy::IrsFirst);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2, "paras 0 and 2 are telnet with pos<4");
        // The planner's answer is the same whichever order it prefers.
        for preferred in [MixedStrategy::Independent, MixedStrategy::IrsFirst] {
            let planned =
                evaluate_mixed(&db, &coll, "PARA", &pos_lt(4), "telnet", 0.4, preferred).unwrap();
            assert_eq!(planned.oids, a);
        }
    }

    #[test]
    fn irs_first_examines_fewer_objects_when_content_is_selective() {
        let (db, coll) = setup();
        let (indep, indep_checks) = forced(
            &db,
            &coll,
            &pos_lt(100),
            "telnet",
            MixedStrategy::Independent,
        );
        let (first, first_checks) =
            forced(&db, &coll, &pos_lt(100), "telnet", MixedStrategy::IrsFirst);
        assert_eq!(indep_checks, 6, "full extent");
        assert_eq!(first_checks, 3, "only telnet hits");
        assert_eq!(indep, first);
    }

    #[test]
    fn planner_lets_the_smaller_side_drive() {
        use MixedStrategy::{Independent, IrsFirst};
        let plan = |extent, survivors, origin, preferred| {
            let p = plan_mixed(extent, survivors, origin, preferred);
            (p.strategy, p.reason)
        };
        let fresh = ResultOrigin::Fresh;
        assert_eq!(
            plan(27_000, 10, fresh, Independent),
            (IrsFirst, PlanReason::FewerSurvivors)
        );
        assert_eq!(
            plan(3, 10, ResultOrigin::Buffered, IrsFirst),
            (Independent, PlanReason::SmallerExtent)
        );
        assert_eq!(
            plan(5, 5, fresh, Independent),
            (Independent, PlanReason::Preference)
        );
        assert_eq!(
            plan(5, 5, fresh, IrsFirst),
            (IrsFirst, PlanReason::Preference)
        );
        assert_eq!(
            plan(27_000, 10, ResultOrigin::Stale, IrsFirst),
            (Independent, PlanReason::StaleContent)
        );

        // End to end: 3 telnet survivors against a 6-paragraph extent, so
        // a caller asking for Independent is overridden and told why.
        let (db, coll) = setup();
        let (out, plan) =
            evaluate_mixed_planned(&db, &coll, "PARA", &pos_lt(100), "telnet", 0.4, Independent)
                .unwrap();
        assert_eq!((plan.extent_len, plan.survivors), (6, 3));
        assert_eq!(plan.reason, PlanReason::FewerSurvivors);
        assert_eq!((out.strategy, out.structural_checks), (IrsFirst, 3));
    }

    /// `irs_calls` counts this evaluation's own IRS call, not whatever
    /// other readers of the shared collection did meanwhile.
    #[test]
    fn irs_calls_ignore_concurrent_readers() {
        let (db, coll) = setup();
        coll.get_irs_result("telnet").unwrap(); // prime the buffer
        let (go, wait_go) = std::sync::mpsc::channel::<()>();
        let (done, wait_done) = std::sync::mpsc::channel::<()>();
        let out = std::thread::scope(|scope| {
            // A second reader misses the buffer on another query exactly
            // while the first evaluation is between fetching its content
            // result and finishing its structural pass.
            let coll = &coll;
            scope.spawn(move || {
                wait_go.recv().unwrap();
                coll.get_irs_result("www").unwrap();
                done.send(()).unwrap();
            });
            let fired = std::cell::Cell::new(false);
            let structural = |_: &Database, _: Oid| {
                if !fired.replace(true) {
                    go.send(()).unwrap();
                    wait_done.recv().unwrap();
                }
                true
            };
            evaluate_mixed(
                &db,
                coll,
                "PARA",
                &structural,
                "telnet",
                0.4,
                MixedStrategy::IrsFirst,
            )
            .unwrap()
        });
        assert_eq!(out.origin, ResultOrigin::Buffered);
        assert_eq!(out.irs_calls, 0, "the other reader's miss is not ours");
        assert_eq!(coll.stats().irs_calls, 2, "telnet prime + concurrent www");
    }

    #[test]
    fn result_limited_collection_agrees_under_irs_first() {
        let (db, coll) = setup();
        // A limit that covers every threshold survivor (3 telnet paras)
        // must not change the mixed result, only the ranking work.
        let mut limited = Collection::new("lim", CollectionSetup::default().with_result_limit(3));
        limited
            .index_objects(&db, "ACCESS p FROM p IN PARA")
            .unwrap();
        let full = evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(4),
            "telnet",
            0.4,
            MixedStrategy::IrsFirst,
        )
        .unwrap();
        let capped = evaluate_mixed(
            &db,
            &limited,
            "PARA",
            &pos_lt(4),
            "telnet",
            0.4,
            MixedStrategy::IrsFirst,
        )
        .unwrap();
        assert_eq!(full.oids, capped.oids, "limit covers all survivors");
        assert!(capped.structural_checks <= full.structural_checks);
    }

    #[test]
    fn irs_calls_are_buffered_across_strategies() {
        let (db, coll) = setup();
        let a = evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(4),
            "telnet",
            0.4,
            MixedStrategy::Independent,
        )
        .unwrap();
        assert_eq!(a.irs_calls, 1);
        // Second evaluation of the same content query hits the buffer.
        let b = evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(2),
            "telnet",
            0.4,
            MixedStrategy::IrsFirst,
        )
        .unwrap();
        assert_eq!(b.irs_calls, 0);
    }

    #[test]
    fn threshold_filters_results() {
        let (db, coll) = setup();
        let none = evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(100),
            "telnet",
            0.999,
            MixedStrategy::IrsFirst,
        )
        .unwrap();
        assert!(none.oids.is_empty());
    }

    #[test]
    fn malformed_irs_query_surfaces_parse_error() {
        let (db, coll) = setup();
        for q in [
            "",
            "#and(",
            "#bogus(x)",
            "\"unterminated",
            "#near(a b)",
            "#wsum(x y)",
        ] {
            for strategy in [MixedStrategy::Independent, MixedStrategy::IrsFirst] {
                assert!(
                    evaluate_mixed(&db, &coll, "PARA", &pos_lt(100), q, 0.4, strategy).is_err(),
                    "query {q:?} must fail under {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn stale_content_forces_independent_fallback() {
        let (db, mut coll) = setup();
        // Prime the buffer, then invalidate so only the stale rung answers
        // the result, and take the IRS down.
        coll.get_irs_result("telnet").unwrap();
        coll.buffer().invalidate_all();
        let plan = std::sync::Arc::new(irs::FaultPlan::new(7));
        plan.set_down(true);
        coll.inject_faults(Some(plan));
        let out = evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(100),
            "telnet",
            0.4,
            MixedStrategy::IrsFirst,
        )
        .unwrap();
        assert_eq!(out.origin, ResultOrigin::Stale);
        assert_eq!(
            out.strategy,
            MixedStrategy::Independent,
            "stale content cannot enumerate candidates"
        );
        assert_eq!(out.oids.len(), 3, "stale scores still answer the query");
        assert_eq!(out.structural_checks, 6, "full extent examined");
        // An unprimed query has no stale copy: the failure surfaces.
        assert!(evaluate_mixed(
            &db,
            &coll,
            "PARA",
            &pos_lt(100),
            "www",
            0.4,
            MixedStrategy::IrsFirst
        )
        .is_err());
    }

    #[test]
    fn unknown_class_errors() {
        let (db, coll) = setup();
        assert!(evaluate_mixed(
            &db,
            &coll,
            "NOPE",
            &pos_lt(1),
            "x",
            0.5,
            MixedStrategy::Independent
        )
        .is_err());
    }
}
