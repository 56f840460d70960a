//! Query planning and optimization.
//!
//! Three optimizations, all taken from the paper's discussion:
//!
//! 1. **Index access paths** — a conjunct of the form
//!    `v -> getAttributeValue('A') = literal` (or a range comparison)
//!    turns a full extent scan into an index lookup when `(class, A)` —
//!    or an ancestor class — is indexed.
//! 2. **Join ordering** — FROM bindings are reordered by estimated
//!    candidate count (index-restricted count, else extent size).
//! 3. **Expensive-method placement** — conjuncts are attached to the
//!    earliest step whose variables they cover, and within a step sorted
//!    cheap-first, so methods registered [`MethodCost::Expensive`] (the
//!    IRS calls of the coupling) run only on tuples that survived every
//!    cheap predicate. This is the "method-based query-optimization
//!    features [AbF95]" prerequisite of the paper's Section 4.5.4.

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::method::MethodCost;
use crate::query::ast::{CmpOp, Expr, Query};
use crate::schema::ClassId;
use crate::value::Value;

/// How a step obtains its candidate OIDs.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Scan the class extent (subclasses included).
    Extent,
    /// Equality index lookup on `attr` of the given (ancestor) class.
    IndexEq {
        /// The class that owns the index (the binding class or an
        /// ancestor).
        indexed_class: ClassId,
        /// Indexed attribute.
        attr: String,
        /// Comparand.
        value: Value,
    },
    /// Ordered-index range lookup (inclusive bounds; `None` = unbounded).
    IndexRange {
        /// The class that owns the index.
        indexed_class: ClassId,
        /// Indexed attribute.
        attr: String,
        /// Lower bound.
        lo: Option<Value>,
        /// Upper bound.
        hi: Option<Value>,
    },
}

/// One join step: bind `var` to candidates of `class`, keep tuples
/// passing `filters`.
#[derive(Debug, Clone)]
pub struct Step {
    /// Variable name.
    pub var: String,
    /// Binding class.
    pub class: ClassId,
    /// Candidate source.
    pub access: Access,
    /// Conjuncts fully bound once this variable is bound, cheap first.
    pub filters: Vec<Expr>,
    /// Estimated candidates (what the optimizer believed).
    pub estimate: usize,
}

/// An executable plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Join steps in execution order.
    pub steps: Vec<Step>,
    /// Projection expressions.
    pub select: Vec<Expr>,
    /// Result ordering (`true` = descending).
    pub order_by: Option<(Expr, bool)>,
    /// Result cap.
    pub limit: Option<usize>,
}

impl Plan {
    /// Human-readable plan, used by `query_explain` and the E5 experiment.
    pub fn describe(&self, db: &Database) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let access = match &s.access {
                Access::Extent => "extent scan".to_string(),
                Access::IndexEq { attr, value, .. } => format!("index eq({attr} = {value})"),
                Access::IndexRange { attr, lo, hi, .. } => format!(
                    "index range({} in [{}, {}])",
                    attr,
                    lo.as_ref().map_or("-inf".into(), Value::to_string),
                    hi.as_ref().map_or("+inf".into(), Value::to_string),
                ),
            };
            let expensive = s
                .filters
                .iter()
                .filter(|f| expr_cost(db, f) >= EXPENSIVE_COST)
                .count();
            let _ = writeln!(
                out,
                "step {}: {} IN {} via {} (est {}), {} filters ({} expensive, evaluated last)",
                i + 1,
                s.var,
                db.schema().name(s.class),
                access,
                s.estimate,
                s.filters.len(),
                expensive,
            );
        }
        out
    }
}

const EXPENSIVE_COST: u64 = 1_000;

/// Optimizer cost of evaluating `e` once: 1 per cheap method call,
/// [`EXPENSIVE_COST`] per expensive one. Unregistered methods count as
/// cheap (they will error at run time anyway).
pub fn expr_cost(db: &Database, e: &Expr) -> u64 {
    e.methods()
        .iter()
        .map(|m| match db.methods().cost(m) {
            Some(MethodCost::Expensive) => EXPENSIVE_COST,
            _ => 1,
        })
        .sum()
}

/// Flatten nested conjunctions into a conjunct list.
fn conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(terms) => {
            for t in terms {
                conjuncts(t, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// If `e` is `var -> getAttributeValue('A') <op> literal` (either side),
/// return `(var, attr, op, literal)`.
fn attr_cmp(e: &Expr) -> Option<(String, String, CmpOp, Value)> {
    let Expr::Cmp { op, lhs, rhs } = e else {
        return None;
    };
    fn decode(side: &Expr) -> Option<(String, String)> {
        let Expr::MethodCall { recv, method, args } = side else {
            return None;
        };
        if method != "getAttributeValue" || args.len() != 1 {
            return None;
        }
        let Expr::Var(v) = recv.as_ref() else {
            return None;
        };
        let Expr::Literal(Value::Str(attr)) = &args[0] else {
            return None;
        };
        Some((v.clone(), attr.clone()))
    }
    if let Some((v, a)) = decode(lhs) {
        if let Expr::Literal(lit) = rhs.as_ref() {
            return Some((v, a, *op, lit.clone()));
        }
    }
    if let Some((v, a)) = decode(rhs) {
        if let Expr::Literal(lit) = lhs.as_ref() {
            return Some((v, a, op.flipped(), lit.clone()));
        }
    }
    None
}

/// Walk up the class hierarchy to find which class (if any) carries an
/// index on `attr`.
fn find_indexed_class(db: &Database, class: ClassId, attr: &str, ordered: bool) -> Option<ClassId> {
    let mut cur = Some(class);
    while let Some(c) = cur {
        let hit = if ordered {
            db.indexes().has_ordered_index(c, attr)
        } else {
            db.indexes().has_index(c, attr)
        };
        if hit {
            return Some(c);
        }
        cur = db.schema().class(c).parent;
    }
    None
}

/// Build a plan for `q` against `db`.
pub fn plan(db: &Database, q: &Query) -> Result<Plan> {
    // Resolve classes and detect duplicate variables.
    let mut bindings: Vec<(String, ClassId)> = Vec::with_capacity(q.from.len());
    for (var, class) in &q.from {
        if bindings.iter().any(|(v, _)| v == var) {
            return Err(DbError::QueryEval(format!("duplicate variable {var}")));
        }
        bindings.push((var.clone(), db.schema().class_id(class)?));
    }

    let mut all_conjuncts = Vec::new();
    if let Some(w) = &q.where_clause {
        conjuncts(w, &mut all_conjuncts);
    }

    // Pick the best access path per binding.
    struct Candidate {
        var: String,
        class: ClassId,
        access: Access,
        estimate: usize,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for (var, class) in &bindings {
        let mut best_access = Access::Extent;
        let mut best_estimate = db.extent_len(*class, true);
        for c in &all_conjuncts {
            let Some((v, attr, op, lit)) = attr_cmp(c) else {
                continue;
            };
            if &v != var {
                continue;
            }
            match op {
                CmpOp::Eq => {
                    if let Some(owner) = find_indexed_class(db, *class, &attr, false) {
                        let n = db
                            .indexes()
                            .lookup_eq(owner, &attr, &lit)
                            .map_or(usize::MAX, |v| v.len());
                        if n < best_estimate {
                            best_estimate = n;
                            best_access = Access::IndexEq {
                                indexed_class: owner,
                                attr,
                                value: lit,
                            };
                        }
                    }
                }
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    if let Some(owner) = find_indexed_class(db, *class, &attr, true) {
                        let (lo, hi) = match op {
                            CmpOp::Gt | CmpOp::Ge => (Some(lit), None),
                            _ => (None, Some(lit)),
                        };
                        let n = db
                            .indexes()
                            .lookup_range_opt(owner, &attr, lo.as_ref(), hi.as_ref())
                            .map_or(usize::MAX, |v| v.len());
                        if n < best_estimate {
                            best_estimate = n;
                            best_access = Access::IndexRange {
                                indexed_class: owner,
                                attr,
                                lo,
                                hi,
                            };
                        }
                    }
                }
                CmpOp::Ne => {}
            }
        }
        candidates.push(Candidate {
            var: var.clone(),
            class: *class,
            access: best_access,
            estimate: best_estimate,
        });
    }

    // Join order: smallest candidate set first (stable for ties).
    candidates.sort_by_key(|c| c.estimate);

    // Attach each conjunct to the earliest step binding all its vars.
    let mut steps: Vec<Step> = candidates
        .into_iter()
        .map(|c| Step {
            var: c.var,
            class: c.class,
            access: c.access,
            filters: Vec::new(),
            estimate: c.estimate,
        })
        .collect();
    for conj in all_conjuncts {
        let vars = conj.vars();
        // Index of the last step among the conjunct's variables.
        // Identifiers bound as database constants need no step.
        let mut target: Option<usize> = None;
        for v in &vars {
            match steps.iter().position(|s| s.var == *v) {
                Some(i) => target = Some(target.map_or(i, |t: usize| t.max(i))),
                None if db.constant(v).is_some() => {}
                None => {
                    return Err(DbError::QueryEval(format!("unbound variable {v}")));
                }
            }
        }
        // Variable-free conjuncts evaluate at the first step.
        let idx = target.unwrap_or(0);
        steps[idx].filters.push(conj);
    }

    // Cheap predicates first within each step.
    for s in &mut steps {
        s.filters.sort_by_key(|f| expr_cost(db, f));
    }

    // ORDER BY expressions may only use FROM variables and constants.
    if let Some((e, _)) = &q.order_by {
        for v in e.vars() {
            if !steps.iter().any(|s| s.var == v) && db.constant(v).is_none() {
                return Err(DbError::QueryEval(format!(
                    "unbound variable {v} in ORDER BY"
                )));
            }
        }
    }

    Ok(Plan {
        steps,
        select: q.select.clone(),
        order_by: q.order_by.clone(),
        limit: q.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::index::IndexKind;
    use crate::method::MethodCost;
    use crate::oid::Oid;
    use crate::query::parser::parse;

    /// 100 objects of class A (year 0..10), 4 of class B.
    fn db() -> Database {
        let mut db = Database::in_memory();
        db.define_class("A", None).unwrap();
        db.define_class("B", None).unwrap();
        let a = db.schema().class_id("A").unwrap();
        let b = db.schema().class_id("B").unwrap();
        let mut txn = db.begin();
        for i in 0..100i64 {
            let oid = db.create_object(&mut txn, a).unwrap();
            db.set_attr(&mut txn, oid, "year", Value::Int(i % 10))
                .unwrap();
        }
        for _ in 0..4 {
            db.create_object(&mut txn, b).unwrap();
        }
        db.commit(txn).unwrap();
        db
    }

    fn plan_for(db: &Database, q: &str) -> Plan {
        plan(db, &parse(q).unwrap()).unwrap()
    }

    #[test]
    fn join_order_prefers_smaller_extent() {
        let db = db();
        let p = plan_for(&db, "ACCESS x, y FROM x IN A, y IN B WHERE x == y");
        assert_eq!(p.steps[0].var, "y", "B (4 objects) binds first");
        assert_eq!(p.steps[0].estimate, 4);
        assert_eq!(p.steps[1].var, "x");
    }

    #[test]
    fn index_beats_extent_scan_when_selective() {
        let mut db = db();
        db.create_index("A", "year", IndexKind::BTree).unwrap();
        let p = plan_for(
            &db,
            "ACCESS x FROM x IN A WHERE x -> getAttributeValue('year') = 3",
        );
        assert!(
            matches!(p.steps[0].access, Access::IndexEq { .. }),
            "{:?}",
            p.steps[0].access
        );
        assert_eq!(p.steps[0].estimate, 10);
    }

    #[test]
    fn equality_index_preferred_over_range() {
        let mut db = db();
        db.create_index("A", "year", IndexKind::BTree).unwrap();
        // Both an equality (10 candidates) and a range (>= 5 → 50)
        // predicate exist; the planner picks the tighter one.
        let p = plan_for(
            &db,
            "ACCESS x FROM x IN A WHERE \
             x -> getAttributeValue('year') = 3 AND x -> getAttributeValue('year') >= 0",
        );
        match &p.steps[0].access {
            Access::IndexEq { value, .. } => assert_eq!(value, &Value::Int(3)),
            other => panic!("expected IndexEq, got {other:?}"),
        }
    }

    #[test]
    fn flipped_comparison_still_uses_index() {
        let mut db = db();
        db.create_index("A", "year", IndexKind::Hash).unwrap();
        let p = plan_for(
            &db,
            "ACCESS x FROM x IN A WHERE 3 = x -> getAttributeValue('year')",
        );
        assert!(matches!(p.steps[0].access, Access::IndexEq { .. }));
    }

    #[test]
    fn conjuncts_attach_to_latest_variable() {
        let db = db();
        let p = plan_for(
            &db,
            "ACCESS x, y FROM x IN B, y IN B WHERE \
             x -> getClassName() = 'B' AND x == y",
        );
        // The single-variable conjunct sits on x's step; the join
        // conjunct on whichever binds later.
        let x_step = p.steps.iter().position(|s| s.var == "x").unwrap();
        let y_step = p.steps.iter().position(|s| s.var == "y").unwrap();
        let later = x_step.max(y_step);
        assert!(p.steps[later].filters.iter().any(|f| f.vars().len() == 2));
        assert!(p.steps[x_step]
            .filters
            .iter()
            .any(|f| f.vars() == vec!["x"]));
    }

    #[test]
    fn expensive_filters_sort_last_within_a_step() {
        let mut db = db();
        db.methods_mut()
            .register("slow", MethodCost::Expensive, |_, _, _| {
                Ok(Value::Bool(true))
            });
        let p = plan_for(
            &db,
            "ACCESS x FROM x IN A WHERE \
             x -> slow() = TRUE AND x -> getAttributeValue('year') = 1 AND \
             x -> getClassName() = 'A'",
        );
        let costs: Vec<u64> = p.steps[0]
            .filters
            .iter()
            .map(|f| expr_cost(&db, f))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert!(*costs.last().unwrap() >= 1_000);
    }

    #[test]
    fn describe_mentions_access_paths() {
        let mut db = db();
        db.create_index("A", "year", IndexKind::BTree).unwrap();
        let p = plan_for(
            &db,
            "ACCESS x FROM x IN A WHERE x -> getAttributeValue('year') >= 8",
        );
        let desc = p.describe(&db);
        assert!(desc.contains("index range"), "{desc}");
        let _ = Oid(0); // silence unused import on some cfgs
    }
}
