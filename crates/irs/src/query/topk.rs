//! Document-at-a-time top-k evaluation with MaxScore-style pruning and
//! BMW-style block-max skipping.
//!
//! [`evaluate`](super::evaluate) is term-at-a-time: it scores *every*
//! matching document into a map and lets the caller rank afterwards. For
//! the coupling's hot path (`getIRSValue` with a result limit) that is
//! wasted work — the paper's Section 4.5 requires IRS evaluation to stay
//! cheap enough to interleave with structural predicates. This module
//! evaluates `Term`/`And`/`Or`/`Sum`/`WSum`/`Max` trees document-at-a-time
//! against a bounded heap of the current k best, skipping candidates whose
//! score *upper bound* cannot enter the heap.
//!
//! Candidates are pruned in two stages of increasing cost:
//!
//! 1. **List bound** — per-term bounds from each whole list's
//!    `(tf, doc_len)` [frontier](crate::index::PostingsList::frontier),
//!    evaluated over the matched + non-essential presence pattern (the
//!    MaxScore part). No postings access at all.
//! 2. **Block max** — survivors are re-bounded with the frontier of each
//!    term's *block* that (could) contain the candidate, found through the
//!    [`BlockSkip`](crate::index::BlockSkip) headers. Finding a
//!    non-essential term's block only steps its cursor's block pointer
//!    forward — no varint is decoded — so a block whose bound cannot beat
//!    the heap threshold is skipped wholesale (BMW-style pruning over the
//!    operator tree instead of plain WAND sums).
//!
//! Only candidates surviving both stages decode postings for exact
//! scoring, and non-essential lists are advanced with
//! [`seek`](crate::index::PostingsCursor::seek), which skips whole blocks
//! via the headers.
//!
//! # The scoring kernel
//!
//! Exact bounds keep most documents of a query from becoming candidates
//! at all, but nearly every candidate that is enumerated is scored
//! exactly (DESIGN.md §8 has the counts). What a candidate costs is pure
//! constant factor, so the per-candidate path allocates nothing and
//! recomputes nothing that cannot have changed: the query is compiled
//! once into a postfix [`Program`] that both tree walks run over
//! reusable stacks ([`Kernel`]); each term's model is
//! [prepared](RetrievalModel::prepare) once, so `idf` and its logarithms
//! are not redone per posting; and a bound is walked only when its leaf
//! vector differs from the one it was last walked for ([`BoundMemo`]).
//!
//! # Soundness of the bounds
//!
//! [`TermScorer::score`] is nondecreasing in `tf` and nonincreasing in
//! `doc_len` for every shipped model, whatever its `df`, `n_docs` and
//! `avg_doc_len`. A frontier holds, for every posting behind it, a point
//! with at least the posting's `tf` and at most its document's length, so
//! the best score over the frontier — under the *exact* query-time scorer
//! — is the best score of any of those postings: the bound is exact, not
//! a corner no posting occupies. A list's frontier bounds the term in any
//! document; a block's bounds it within the block, and any posting of the
//! term at or beyond the candidate doc id lies in the reported block or a
//! later one — the cursor only ever *under*-reports progress, never
//! overshoots. Every combine operator is monotone nondecreasing on
//! nonnegative child scores (sums, products and noisy-or on `[0,1]`
//! beliefs, min, max, nonnegative-weight means), so evaluating the tree
//! over leaf upper bounds bounds the exhaustive score. Each non-root node
//! takes `max(op(children), default)`, because a document absent from the
//! node's result map contributes the model default at its parent. The
//! root takes no such maximum: a candidate matches at least one leaf, so
//! [`exact_value`](Kernel::exact_value) always scores it as
//! `op(children)` — which keeps an inference-model `#and`, a product of
//! beliefs, below the 0.4 default instead of clamped above every
//! threshold. `#wsum` with a negative weight would break monotonicity and
//! falls back, as do `#not`/`#phrase`/`#near` operands.
//!
//! # Equivalence with the exhaustive evaluator
//!
//! For documents that survive pruning, [`exact_value`](Kernel::exact_value)
//! replays the exhaustive evaluator's arithmetic verbatim: leaves are
//! scored by the same prepared [`TermScorer`], child values reach each
//! operator in child order, absent children contribute `default_score()`,
//! and a node yields a value only when at least one descendant leaf
//! contains the document. Scores are therefore bit-identical to
//! [`evaluate`](super::evaluate) — the equivalence proptest in
//! `tests/topk.rs` pins this across block sizes, and
//! `tests/pinned_scores.rs` pins both to bits captured before the kernel
//! existed.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::analysis::Analyzer;
use crate::index::{DocId, PostingsCursor, PostingsList, ShardedReader};
use crate::model::{RetrievalModel, TermScorer};
use crate::query::{QueryGlobals, QueryNode};

/// Operator kinds the pruned engine evaluates directly.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    And,
    Or,
    Sum,
    Max,
}

/// One step of a compiled query. The operator tree is flattened into
/// postfix order, so a walk is one pass over a slice with a value stack
/// instead of a recursion that allocates a buffer per operator node.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Push the value of term `.0` (an index into the term table).
    Leaf(usize),
    /// Pop `arity` values, push their combination under `kind`.
    Op { kind: OpKind, arity: usize },
    /// Pop `arity` values, push their `#wsum` under
    /// `weights[at..at + arity]`.
    WSum { arity: usize, at: usize },
}

/// A query compiled against a term table: leaves index into the per-term
/// cursor state so the per-document walks do no string work.
#[derive(Debug, Default)]
struct Program {
    code: Vec<Instr>,
    /// `#wsum` weights, one run per `WSum` instruction.
    weights: Vec<f64>,
    /// Analysed leaf terms in interning order (first appearance wins).
    terms: Vec<String>,
}

/// Which upper bound the pruned engine consults before exact scoring.
/// [`PruneStrategy::BlockMax`] is the default; [`CollectionBound`]
/// (`PruneStrategy::CollectionBound`) reproduces the pre-block engine and
/// exists so benchmarks can measure exactly what the block bounds buy.
/// Both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStrategy {
    /// Two-stage pruning: list-level frontier bounds, then per-block
    /// frontier refinement located through the skip headers.
    BlockMax,
    /// List-level frontier bounds only.
    CollectionBound,
}

/// Work the pruned engine did, counted in locals and reported once per
/// query. Every candidate is either rejected by a bound or scored
/// exactly: `exact_scored + bound_rejects == candidates`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TopKCounters {
    /// Live documents enumerated from the essential lists.
    pub candidates: u64,
    /// Candidates whose exact score was computed.
    pub exact_scored: u64,
    /// Candidates rejected by a stage-1 or stage-2 upper bound.
    pub bound_rejects: u64,
    /// Rejections whose failed bound let the matched cursors seek past a
    /// whole range of documents.
    pub range_skips: u64,
}

/// Compile `node` to postfix, interning analysed leaf terms. `None` when
/// the tree contains an operator the pruned engine cannot bound
/// (`#not`/`#phrase`/`#near`, or `#wsum` with a weight that is negative or
/// NaN) — the caller falls back to the exhaustive evaluator.
fn compile(node: &QueryNode, analyzer: &Analyzer) -> Option<Program> {
    let mut prog = Program::default();
    emit(node, analyzer, &mut prog, &mut HashMap::new())?;
    Some(prog)
}

fn emit(
    node: &QueryNode,
    analyzer: &Analyzer,
    prog: &mut Program,
    interned: &mut HashMap<String, usize>,
) -> Option<()> {
    let (kind, children) = match node {
        QueryNode::Term(raw) => {
            let analysed = analyzer.analyze_term(raw);
            let idx = *interned.entry(analysed.clone()).or_insert_with(|| {
                prog.terms.push(analysed);
                prog.terms.len() - 1
            });
            prog.code.push(Instr::Leaf(idx));
            return Some(());
        }
        QueryNode::And(cs) => (OpKind::And, cs),
        QueryNode::Or(cs) => (OpKind::Or, cs),
        QueryNode::Sum(cs) => (OpKind::Sum, cs),
        QueryNode::Max(cs) => (OpKind::Max, cs),
        QueryNode::WSum(ws) => {
            // NaN or negative weights break bound monotonicity.
            if ws.iter().any(|(w, _)| w.is_nan() || *w < 0.0) {
                return None;
            }
            // Reserve this node's weight run before descending: a nested
            // `#wsum` appends its own run after it.
            let at = prog.weights.len();
            prog.weights.extend(ws.iter().map(|(w, _)| *w));
            for (_, c) in ws {
                emit(c, analyzer, prog, interned)?;
            }
            prog.code.push(Instr::WSum {
                arity: ws.len(),
                at,
            });
            return Some(());
        }
        QueryNode::Not(_) | QueryNode::Phrase(_) | QueryNode::Near { .. } => return None,
    };
    for c in children {
        emit(c, analyzer, prog, interned)?;
    }
    prog.code.push(Instr::Op {
        kind,
        arity: children.len(),
    });
    Some(())
}

/// The analysed leaf terms of `node` in the engine's interning order
/// (first appearance wins) — the canonical term order
/// [`collect_globals`](super::collect_globals) reports statistics in.
/// `None` when the tree is outside the pruned fragment.
pub(crate) fn compiled_terms(node: &QueryNode, analyzer: &Analyzer) -> Option<Vec<String>> {
    compile(node, analyzer).map(|prog| prog.terms)
}

/// The scoring kernel: the compiled program, one prepared scorer per term
/// and the scratch stacks both walks run on, sized once per query: a walk
/// allocates nothing whatever the tree's width or depth.
/// Postings access lives *outside* this struct (cursors borrow the lists
/// directly) so the walks can run while cursors are mid-flight.
struct Kernel<'m> {
    model: &'m dyn RetrievalModel,
    code: Vec<Instr>,
    weights: Vec<f64>,
    /// Per term, the model prepared with exactly the `df`/`n_docs`/
    /// `avg_doc_len` the exhaustive evaluator scores the term with.
    scorers: Vec<TermScorer>,
    default: f64,
    /// Value stack.
    vals: Vec<f64>,
    /// [`exact_value`](Self::exact_value)'s presence flags, parallel to
    /// `vals`.
    present: Vec<bool>,
    /// `(weight, value)` argument buffer for `combine_wsum`.
    pairs: Vec<(f64, f64)>,
}

impl<'m> Kernel<'m> {
    fn new(
        model: &'m dyn RetrievalModel,
        code: Vec<Instr>,
        weights: Vec<f64>,
        scorers: Vec<TermScorer>,
    ) -> Self {
        // No stack outgrows the program: every instruction pushes one
        // value, and an operator's arity is at most what precedes it.
        let depth = code.len();
        Kernel {
            model,
            code,
            weights,
            scorers,
            default: model.default_score(),
            vals: Vec::with_capacity(depth),
            present: Vec::with_capacity(depth),
            pairs: Vec::with_capacity(depth),
        }
    }

    /// The operator `instr` applied to the stack values from `top` up.
    fn apply(&mut self, instr: Instr, top: usize) -> f64 {
        let args = &self.vals[top..];
        match instr {
            Instr::Op { kind, .. } => match kind {
                OpKind::And => self.model.combine_and(args),
                OpKind::Or => self.model.combine_or(args),
                OpKind::Sum => self.model.combine_sum(args),
                OpKind::Max => self.model.combine_max(args),
            },
            Instr::WSum { arity, at } => {
                self.pairs.clear();
                let weights = &self.weights[at..at + arity];
                self.pairs
                    .extend(weights.iter().copied().zip(args.iter().copied()));
                self.model.combine_wsum(&self.pairs)
            }
            Instr::Leaf(_) => unreachable!("leaves are pushed, not applied"),
        }
    }

    /// The exhaustive evaluator's score for a document with the given
    /// per-term frequencies — `None` when no leaf contains the document.
    /// A node absent from the exhaustive evaluator's sparse maps (no
    /// descendant leaf contains the document) counts as the default at
    /// its parent, exactly as there.
    fn exact_value(&mut self, tf_at: &[Option<u32>], doc_len: u32) -> Option<f64> {
        self.vals.clear();
        self.present.clear();
        for i in 0..self.code.len() {
            let instr = self.code[i];
            let (value, present) = match instr {
                Instr::Leaf(t) => match tf_at[t] {
                    Some(tf) => (self.scorers[t].score(tf, doc_len), true),
                    None => (self.default, false),
                },
                Instr::Op { arity, .. } | Instr::WSum { arity, .. } => {
                    let top = self.vals.len() - arity;
                    let any = self.present[top..].contains(&true);
                    let value = if any {
                        self.apply(instr, top)
                    } else {
                        self.default
                    };
                    self.vals.truncate(top);
                    self.present.truncate(top);
                    (value, any)
                }
            };
            self.vals.push(value);
            self.present.push(present);
        }
        self.present[0].then(|| self.vals[0])
    }

    /// Upper bound on the score of any candidate whose per-leaf
    /// contribution is at most `leaf[t]`. Each non-root operator takes
    /// `max(op(children), default)` because a document absent from the
    /// node's map contributes the default at the parent instead of the
    /// operator value; the root, last in postfix order, is always present
    /// for a candidate and takes `op(children)` alone.
    fn bound_value(&mut self, leaf: &[f64]) -> f64 {
        self.vals.clear();
        let root = self.code.len() - 1;
        for i in 0..self.code.len() {
            let instr = self.code[i];
            let value = match instr {
                Instr::Leaf(t) => leaf[t],
                Instr::Op { arity, .. } | Instr::WSum { arity, .. } => {
                    let top = self.vals.len() - arity;
                    let op = self.apply(instr, top);
                    let value = if i == root { op } else { op.max(self.default) };
                    self.vals.truncate(top);
                    value
                }
            };
            self.vals.push(value);
        }
        self.vals[0]
    }
}

/// Upper bound of a leaf over the postings behind `frontier`: the best
/// score the term's scorer (the exact query-time statistics) gives any
/// frontier point, or the default an absent term contributes. Over a
/// whole list this is the MaxScore bound; over a block, the block-max
/// bound.
fn frontier_bound(scorer: &TermScorer, frontier: &[(u32, u32)], default: f64) -> f64 {
    frontier
        .iter()
        .fold(default, |best, &(tf, len)| best.max(scorer.score(tf, len)))
}

/// A heap entry ordered *worst-first* so [`BinaryHeap`]'s max is the
/// candidate to evict. "Worse" means lower score, ties broken by larger
/// key — the exact inverse of the final ranking order.
struct Cand<'a> {
    score: f64,
    key: &'a str,
    doc: DocId,
}

impl Ord for Cand<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.key.cmp(other.key))
    }
}

impl PartialOrd for Cand<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cand<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cand<'_> {}

/// Per-term leaf bounds: the list-level frontier bounds, fixed for the
/// query, and the block-level refinements of them, each with a version
/// that counts how often it has changed.
struct LeafBounds {
    scorers: Vec<TermScorer>,
    default: f64,
    /// List-level bound per term.
    ubs: Vec<f64>,
    /// The last block bounded per term, and its bound: reused while
    /// consecutive candidates fall into the same block — the common case
    /// at realistic block sizes.
    cached_block: Vec<usize>,
    cached_bound: Vec<f64>,
    /// What [`refine`](Self::refine) last returned per term.
    refined: Vec<f64>,
    /// How many times `refined[t]` has changed. Equal versions mean equal
    /// values, which is what lets [`BoundMemo`] reuse stage-2 bounds.
    version: Vec<u64>,
}

impl LeafBounds {
    fn new(scorers: Vec<TermScorer>, lists: &[Option<Arc<PostingsList>>], default: f64) -> Self {
        let n_terms = scorers.len();
        let ubs: Vec<f64> = scorers
            .iter()
            .zip(lists)
            .map(|(scorer, list)| {
                let frontier = list.as_ref().map_or(&[][..], |l| l.frontier());
                frontier_bound(scorer, frontier, default)
            })
            .collect();
        LeafBounds {
            scorers,
            default,
            cached_block: vec![usize::MAX; n_terms],
            cached_bound: vec![0.0; n_terms],
            refined: ubs.clone(),
            version: vec![0; n_terms],
            ubs,
        }
    }

    /// Bound of term `t` given the `(index, frontier)` of the block it was
    /// found in or could next occur in — `None` when its list is
    /// exhausted, so it cannot occur at all.
    fn refine(&mut self, t: usize, block: Option<(usize, &[(u32, u32)])>) -> f64 {
        let bound = match block {
            None => self.default,
            Some((b, frontier)) => {
                if self.cached_block[t] != b {
                    self.cached_block[t] = b;
                    self.cached_bound[t] = frontier_bound(&self.scorers[t], frontier, self.default);
                }
                self.cached_bound[t]
            }
        };
        if bound != self.refined[t] {
            self.refined[t] = bound;
            self.version[t] += 1;
        }
        bound
    }
}

/// Queries with more distinct terms than this evaluate every bound per
/// candidate instead of memoising it: the memo is a table indexed by
/// matched-term bitmask, `2^terms` rows.
const MEMO_MAX_TERMS: usize = 8;

/// The three bounds a candidate may be checked against, cheapest first.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Stage 1: every leaf at its list-level bound.
    Collection,
    /// Stage 2a: matched leaves refined to their blocks.
    MatchedBlocks,
    /// Stage 2b: non-essential leaves refined to their blocks as well.
    AllBlocks,
}

/// Candidate bounds by matched-term bitmask. A bound is a function of its
/// leaf vector alone — not of the document — and that vector is fixed by
/// the stage, *which* essential terms matched, the non-essential prefix
/// ([`clear`](Self::clear) when it grows) and the refined value of every
/// leaf the stage refines. Callers pass the sum of those leaves'
/// [`LeafBounds::version`]s as `stamp`: versions only grow, so an equal
/// sum means every one of them — hence every value — is unchanged, and
/// the tree walk is skipped. Candidates mostly fall into the blocks their
/// predecessors fell into, which makes a bound that cannot reject anything
/// cost a table lookup instead of a walk.
struct BoundMemo {
    /// Per mask and stage, `(stamp, bound)`; empty when disabled.
    table: Vec<[(u64, f64); 3]>,
}

impl BoundMemo {
    /// No version sum reaches this.
    const EMPTY: [(u64, f64); 3] = [(u64::MAX, 0.0); 3];

    fn new(n_terms: usize) -> Self {
        let rows = if n_terms <= MEMO_MAX_TERMS {
            1 << n_terms
        } else {
            0
        };
        BoundMemo {
            table: vec![Self::EMPTY; rows],
        }
    }

    /// The bit of term `t` in a matched mask (0 when disabled).
    fn bit(&self, t: usize) -> usize {
        if self.table.is_empty() {
            0
        } else {
            1 << t
        }
    }

    fn get(&mut self, stage: Stage, mask: usize, stamp: u64, walk: impl FnOnce() -> f64) -> f64 {
        let Some(row) = self.table.get_mut(mask) else {
            return walk();
        };
        let entry = &mut row[stage as usize];
        if entry.0 != stamp {
            *entry = (stamp, walk());
        }
        entry.1
    }

    fn clear(&mut self) {
        self.table.fill(Self::EMPTY);
    }
}

/// Evaluate `node` document-at-a-time, returning the `k` best documents
/// sorted by descending score (ties by ascending key) — exactly the first
/// `k` entries the exhaustive path would produce, with bit-identical
/// scores.
///
/// Returns `None` when the tree is outside the pruned engine's fragment
/// (`#not`/`#phrase`/`#near` operands, or `#wsum` with negative weights);
/// callers fall back to [`evaluate`](super::evaluate).
pub fn evaluate_top_k(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    node: &QueryNode,
    k: usize,
) -> Option<Vec<(DocId, f64)>> {
    evaluate_top_k_with_strategy(index, model, node, k, PruneStrategy::BlockMax)
}

/// [`evaluate_top_k`] with an explicit [`PruneStrategy`] — benchmarking
/// hook for comparing block-max against the collection-bound baseline on
/// identical inputs. Results are bit-identical either way.
pub fn evaluate_top_k_with_strategy(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    node: &QueryNode,
    k: usize,
    strategy: PruneStrategy,
) -> Option<Vec<(DocId, f64)>> {
    evaluate_top_k_counted(index, model, node, k, None, strategy).map(|(ranked, _)| ranked)
}

/// [`evaluate_top_k`] with *supplied* corpus statistics instead of the
/// index's own: `df`/`n_docs`/`avg_doc_len` come from `globals` so a
/// partition of a scattered collection scores its local documents exactly
/// as the union index would. The local lists' frontiers stay in the
/// pruning bound: scored under the global statistics they bound the
/// local postings exactly, so they remain sound.
///
/// Returns `None` when the tree is outside the pruned fragment *or* when
/// `globals.terms` does not match the tree's interned term list (the
/// globals were collected for a different query or analyzer) — scoring
/// with mismatched statistics would be silently wrong.
pub fn evaluate_top_k_with_globals(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    node: &QueryNode,
    k: usize,
    globals: &QueryGlobals,
) -> Option<Vec<(DocId, f64)>> {
    evaluate_top_k_counted(
        index,
        model,
        node,
        k,
        Some(globals),
        PruneStrategy::BlockMax,
    )
    .map(|(ranked, _)| ranked)
}

/// The one engine behind every `evaluate_top_k*` entry point, returning
/// its work counters beside the ranking.
pub(crate) fn evaluate_top_k_counted(
    index: &ShardedReader<'_>,
    model: &dyn RetrievalModel,
    node: &QueryNode,
    k: usize,
    globals: Option<&QueryGlobals>,
    strategy: PruneStrategy,
) -> Option<(Vec<(DocId, f64)>, TopKCounters)> {
    let Program {
        code,
        weights,
        terms: term_texts,
    } = compile(node, index.analyzer())?;
    if let Some(g) = globals {
        if g.terms.len() != term_texts.len()
            || g.terms.iter().zip(&term_texts).any(|(tg, t)| tg.term != *t)
        {
            return None;
        }
    }
    let mut counters = TopKCounters::default();
    if k == 0 {
        return Some((Vec::new(), counters));
    }

    let (n_docs, avg_doc_len) = match globals {
        Some(g) => (g.n_docs, g.avg_doc_len()),
        None => (index.live_count(), index.avg_doc_len()),
    };
    let default = model.default_score();
    let tombstones = index.has_tombstones();
    let slots = index.store().slot_count();

    // Hold each term's postings list (a refcount, not a copy) for the
    // query's lifetime; the cursors borrow them. (Shard locks are
    // released by `term_postings`.)
    let lists: Vec<Option<Arc<PostingsList>>> =
        term_texts.iter().map(|t| index.term_postings(t)).collect();
    let n_terms = lists.len();

    // One scorer per term, prepared with the `df` the exhaustive
    // evaluator scores with: the exact live df, or the supplied one.
    let scorers: Vec<TermScorer> = term_texts
        .iter()
        .enumerate()
        .map(|(i, term)| {
            let df = match globals {
                Some(g) => g.terms[i].df,
                None => index.term_summary(term).map_or(0, |(df, _)| df),
            };
            model.prepare(df, n_docs, avg_doc_len)
        })
        .collect();
    let mut kernel = Kernel::new(model, code, weights, scorers.clone());
    let mut bounds = LeafBounds::new(scorers, &lists, default);

    // Terms ascending by upper bound: the non-essential prefix grows in
    // this order as the heap threshold rises.
    let mut order: Vec<usize> = (0..n_terms).collect();
    order.sort_by(|&a, &b| {
        bounds.ubs[a]
            .total_cmp(&bounds.ubs[b])
            .then_with(|| a.cmp(&b))
    });

    let mut cursors: Vec<Option<PostingsCursor<'_>>> = lists
        .iter()
        .map(|pl| pl.as_ref().map(|p| p.cursor()))
        .collect();
    // Essential-list heads: the next undelivered posting per term. A
    // term's head is meaningful only while the term is essential.
    let mut heads: Vec<Option<(u32, u32)>> = cursors
        .iter_mut()
        .map(|c| c.as_mut().and_then(|c| c.next()))
        .collect();

    // `k` may be huge (`usize::MAX` = "no limit"); never reserve more
    // slots than there are live documents.
    let mut heap: BinaryHeap<Cand> =
        BinaryHeap::with_capacity(k.saturating_add(1).min(n_docs as usize + 1));
    // Terms `order[..ne_len]` are non-essential: their upper bounds are
    // already priced into the resting bound, so their postings no longer
    // drive enumeration (they are only seeked for survivors).
    let mut ne_len = 0usize;
    // The heap threshold the non-essential prefix was last grown against.
    let mut grown_at = f64::NEG_INFINITY;
    // Resting per-leaf values of the list-level bound: `ubs[t]` for
    // non-essential terms (assumed present), `default` otherwise; matched
    // terms are flipped in and out per candidate.
    let mut coarse_vals = vec![default; n_terms];
    let mut memo = BoundMemo::new(n_terms);
    let mut tf_at: Vec<Option<u32>> = vec![None; n_terms];
    // `(term, tf, block_index)` of the essential terms matching the
    // current candidate.
    let mut matched: Vec<(usize, u32, usize)> = Vec::with_capacity(n_terms);
    // Scratch membership flags for `matched`, used by the range skip.
    let mut in_matched = vec![false; n_terms];

    loop {
        // Next candidate: smallest current doc across essential heads.
        let mut next: Option<u32> = None;
        for &t in &order[ne_len..] {
            if let Some((d, _)) = heads[t] {
                next = Some(match next {
                    None => d,
                    Some(m) => m.min(d),
                });
            }
        }
        let Some(doc) = next else { break };
        matched.clear();
        let mut mask = 0usize;
        for &t in &order[ne_len..] {
            if let Some((d, tf)) = heads[t] {
                if d == doc {
                    let cur = cursors[t].as_mut().expect("a head implies a cursor");
                    // Record the block *before* advancing: next() may step
                    // the cursor into the following block.
                    matched.push((t, tf, cur.block_index()));
                    mask |= memo.bit(t);
                    heads[t] = cur.next();
                }
            }
        }
        // An id past the store comes only from a corrupt postings list
        // loaded from disk; like a tombstone, it is no candidate.
        if doc >= slots || (tombstones && !index.is_live(DocId(doc))) {
            continue;
        }
        counters.candidates += 1;

        // Candidate bounds: matched essential terms and every
        // non-essential term assumed present. Skip only on a *strict*
        // miss — an equal-score candidate could still win its key
        // tie-break.
        let threshold = (heap.len() == k).then(|| heap.peek().expect("full heap").score);
        if let Some(th) = threshold {
            // Stage 1: list-level frontier bounds (no postings access).
            let coarse = memo.get(Stage::Collection, mask, 0, || {
                for &(t, _, _) in &matched {
                    coarse_vals[t] = bounds.ubs[t];
                }
                let bound = kernel.bound_value(&coarse_vals);
                for &(t, _, _) in &matched {
                    coarse_vals[t] = default;
                }
                bound
            });
            let mut keep = coarse >= th;
            // A failed stage-1/2a bound covers a *range* of documents,
            // not just this candidate (see the range skip below).
            // `Some(block_capped)` marks the failure skippable;
            // `block_capped` says the matched blocks limit its reach.
            let mut skippable = (!keep && strategy == PruneStrategy::BlockMax).then_some(false);
            // Stage 2: block-max refinement, incremental so a candidate
            // that dies early costs as little as possible. 2a re-bounds
            // only the matched terms with the frontiers of the blocks
            // they were found in (block indices already in hand — no
            // cursor access); since non-essential terms still rest at
            // their looser list-level bounds, a miss here implies a miss
            // for the fully refined bound. Only survivors pay 2b:
            // peeking the non-essential cursors' blocks for `doc`.
            if keep && strategy == PruneStrategy::BlockMax {
                let mut stamp = 0u64;
                for &(t, _, b) in &matched {
                    let list = lists[t].as_ref().expect("matched implies list");
                    coarse_vals[t] = bounds.refine(t, Some((b, list.block_frontier(b))));
                    stamp += bounds.version[t];
                }
                let mut fine = memo.get(Stage::MatchedBlocks, mask, stamp, || {
                    kernel.bound_value(&coarse_vals)
                });
                if fine < th {
                    skippable = Some(true);
                } else if ne_len > 0 {
                    for &t in &order[..ne_len] {
                        if let (Some(cur), Some(list)) = (cursors[t].as_mut(), &lists[t]) {
                            let block = cur.peek_block_for(doc);
                            coarse_vals[t] =
                                bounds.refine(t, block.map(|b| (b, list.block_frontier(b))));
                            stamp += bounds.version[t];
                        }
                    }
                    fine = memo.get(Stage::AllBlocks, mask, stamp, || {
                        kernel.bound_value(&coarse_vals)
                    });
                    for &t in &order[..ne_len] {
                        coarse_vals[t] = bounds.ubs[t];
                    }
                }
                for &(t, _, _) in &matched {
                    coarse_vals[t] = default;
                }
                keep = fine >= th;
            }
            if !keep {
                counters.bound_rejects += 1;
                // Range skip (the BMW move): the failed bound priced the
                // matched terms by values that hold for every document
                // `doc' ≤ range_end` — list bounds hold anywhere;
                // block bounds hold while each matched term stays inside
                // its current block (`doc' ≤` the block's `last_doc`).
                // Capping below every *other* essential head keeps
                // `doc'`'s matched set a subset of this one, and dropping
                // a matched term only lowers the bound (its leaf falls to
                // the default). Non-essential terms are priced at their
                // full list bounds either way. So every candidate
                // in `(doc, range_end]` is sub-threshold: seek the
                // matched cursors past the whole range — the seeks step
                // over untouched blocks via the skip headers without
                // decoding a single posting.
                if let Some(block_capped) = skippable {
                    let mut range_end = u32::MAX;
                    if block_capped {
                        for &(t, _, b) in &matched {
                            let list = lists[t].as_ref().expect("matched implies list");
                            range_end = range_end.min(list.blocks()[b].last_doc);
                        }
                    }
                    for &(t, _, _) in &matched {
                        in_matched[t] = true;
                    }
                    for &t in &order[ne_len..] {
                        if !in_matched[t] {
                            if let Some((d, _)) = heads[t] {
                                // `d > doc ≥ 0`: an unmatched head is
                                // strictly beyond the candidate.
                                range_end = range_end.min(d - 1);
                            }
                        }
                    }
                    for &(t, _, _) in &matched {
                        in_matched[t] = false;
                    }
                    if range_end > doc {
                        counters.range_skips += 1;
                        let target = range_end.saturating_add(1);
                        for &(t, _, _) in &matched {
                            if heads[t].is_some_and(|(d, _)| d < target) {
                                let cur = cursors[t].as_mut().expect("matched implies cursor");
                                heads[t] = cur.seek(target);
                            }
                        }
                    }
                }
                continue;
            }
        }

        // Exact scoring: pull the true tf of every term at `doc`.
        // Non-essential lists advance by block-skipping seeks. Only the
        // slots written here are reset afterwards.
        for &(t, tf, _) in &matched {
            tf_at[t] = Some(tf);
        }
        for &t in &order[..ne_len] {
            if let Some(cur) = cursors[t].as_mut() {
                if let Some((d, tf)) = cur.seek(doc) {
                    if d == doc {
                        tf_at[t] = Some(tf);
                    }
                }
            }
        }
        let entry = index.doc_entry(DocId(doc));
        let score = kernel.exact_value(&tf_at, entry.len);
        counters.exact_scored += 1;
        for &(t, _, _) in &matched {
            tf_at[t] = None;
        }
        for &t in &order[..ne_len] {
            tf_at[t] = None;
        }
        let Some(score) = score else { continue };
        let cand = Cand {
            score,
            key: entry.key.as_str(),
            doc: DocId(doc),
        };
        if heap.len() < k {
            heap.push(cand);
        } else if cand < *heap.peek().expect("full heap") {
            heap.pop();
            heap.push(cand);
        }
        if heap.len() < k {
            continue;
        }
        // Grow the non-essential prefix while documents seen only in it
        // cannot enter — but only once the threshold has risen past the
        // one the prefix was last grown against: at an unchanged
        // threshold the same term fails the same test.
        let th = heap.peek().expect("full heap").score;
        if th > grown_at {
            grown_at = th;
            let grown_from = ne_len;
            while ne_len < n_terms {
                let t = order[ne_len];
                coarse_vals[t] = bounds.ubs[t];
                if kernel.bound_value(&coarse_vals) < th {
                    ne_len += 1;
                } else {
                    coarse_vals[t] = default;
                    break;
                }
            }
            if ne_len == n_terms {
                // Even a document matching every term cannot enter.
                break;
            }
            if ne_len > grown_from {
                memo.clear();
            }
        }
    }

    let mut out = heap.into_vec();
    out.sort(); // worst-first Ord ⇒ ascending sort ranks best-first
    let ranked = out.into_iter().map(|c| (c.doc, c.score)).collect();
    Some((ranked, counters))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::analysis::AnalyzerConfig;
    use crate::collection::{CollectionConfig, IrsCollection};
    use crate::index::ShardedIndex;
    use crate::model::{Bm25Model, BooleanModel, InferenceModel, VectorModel};
    use crate::persist::{load_collection, save_collection};
    use crate::query::{evaluate, parse_query};

    fn corpus() -> ShardedIndex {
        corpus_with_block_size(crate::index::DEFAULT_BLOCK_SIZE)
    }

    fn index_with_block_size(bs: u32) -> ShardedIndex {
        ShardedIndex::with_block_size(Analyzer::new(AnalyzerConfig::default()), 1, bs)
    }

    fn corpus_with_block_size(bs: u32) -> ShardedIndex {
        let ix = index_with_block_size(bs);
        for i in 0..40u32 {
            let rare = if i % 7 == 0 { "zebra" } else { "filler" };
            let text = format!(
                "{rare} shared words appear here {} extra padding",
                "common ".repeat((i % 5) as usize + 1)
            );
            ix.add_document(&format!("d{i:02}"), &text).unwrap();
        }
        ix
    }

    /// The pruned result must equal the first k of the exhaustively
    /// ranked list, bit-for-bit — under both prune strategies.
    fn assert_matches_exhaustive(ix: &ShardedIndex, model: &dyn RetrievalModel, q: &str, k: usize) {
        let node = parse_query(q).unwrap();
        let ix = ix.reader();
        let mut full: Vec<(DocId, f64)> = evaluate(&ix, model, &node).into_iter().collect();
        full.sort_by(|a, b| {
            b.1.total_cmp(&a.1)
                .then_with(|| ix.doc_entry(a.0).key.cmp(&ix.doc_entry(b.0).key))
        });
        full.truncate(k);
        for strategy in [PruneStrategy::BlockMax, PruneStrategy::CollectionBound] {
            let pruned = evaluate_top_k_with_strategy(&ix, model, &node, k, strategy)
                .expect("prunable tree");
            assert_eq!(pruned, full, "query {q} k {k} strategy {strategy:?}");
        }
    }

    #[test]
    fn pruned_matches_exhaustive_across_models_and_k() {
        let ix = corpus();
        let models: [&dyn RetrievalModel; 4] = [
            &BooleanModel,
            &VectorModel::default(),
            &Bm25Model::default(),
            &InferenceModel::default(),
        ];
        for model in models {
            for q in [
                "zebra",
                "#or(zebra common)",
                "#and(shared common)",
                "#sum(zebra shared common)",
                "#wsum(5 zebra 1 common)",
                "#max(zebra filler)",
                "#or(#and(zebra shared) common)",
                "absentterm",
                "#or(absentterm zebra)",
            ] {
                for k in [0usize, 1, 3, 10, 40, 100] {
                    assert_matches_exhaustive(&ix, model, q, k);
                }
            }
        }
    }

    #[test]
    fn pruned_matches_exhaustive_across_block_sizes() {
        // Tiny blocks force the block-max machinery through every branch:
        // block skips on seek, per-block bound refreshes, ragged tails.
        for bs in [1u32, 2, 16] {
            let ix = corpus_with_block_size(bs);
            let m = Bm25Model::default();
            for q in ["zebra", "#or(zebra common)", "#sum(zebra shared common)"] {
                for k in [1usize, 3, 10] {
                    assert_matches_exhaustive(&ix, &m, q, k);
                }
            }
        }
    }

    #[test]
    fn unprunable_trees_fall_back() {
        let ix = corpus();
        let m = InferenceModel::default();
        for q in [
            "#not(zebra)",
            "\"shared words\"",
            "#near/3(shared words)",
            "#and(zebra #not(common))",
        ] {
            let node = parse_query(q).unwrap();
            assert!(
                evaluate_top_k(&ix.reader(), &m, &node, 5).is_none(),
                "{q} must fall back"
            );
        }
        // Negative #wsum weights break bound monotonicity → fallback.
        let node = QueryNode::WSum(vec![(-1.0, QueryNode::Term("zebra".into()))]);
        assert!(evaluate_top_k(&ix.reader(), &m, &node, 5).is_none());
    }

    #[test]
    fn duplicate_leaves_share_one_term() {
        let ix = corpus();
        let m = InferenceModel::default();
        assert_matches_exhaustive(&ix, &m, "#sum(zebra zebra)", 5);
        // Stemming can also unify distinct raw leaves.
        assert_matches_exhaustive(&ix, &m, "#or(shared sharing)", 5);
    }

    #[test]
    fn empty_index_yields_empty() {
        let ix = index_with_block_size(crate::index::DEFAULT_BLOCK_SIZE);
        let m = InferenceModel::default();
        let node = parse_query("anything").unwrap();
        assert_eq!(
            evaluate_top_k(&ix.reader(), &m, &node, 10),
            Some(Vec::new())
        );
    }

    const MODELS: [&dyn RetrievalModel; 4] = [
        &BooleanModel,
        &VectorModel { slope: 0.25 },
        &Bm25Model { k1: 1.2, b: 0.75 },
        &InferenceModel {
            default_belief: 0.4,
        },
    ];

    /// The best score `scorer` gives the postings `entries`, or the
    /// default: what a leaf bound over them must equal.
    fn best_exact(
        ix: &ShardedReader<'_>,
        scorer: &TermScorer,
        entries: impl Iterator<Item = (u32, u32)>,
        default: f64,
    ) -> f64 {
        entries.fold(default, |best, (doc, tf)| {
            best.max(scorer.score(tf, ix.doc_entry(DocId(doc)).len))
        })
    }

    #[test]
    fn leaf_bound_dominates_every_occurrence() {
        // The list bound is exact: no posting scores above it, and one
        // scores it.
        let ix = corpus();
        let ix = ix.reader();
        for model in MODELS {
            for raw in ["zebra", "common", "shared"] {
                let term = ix.analyzer().analyze_term(raw);
                let pl = ix.term_postings(&term).unwrap();
                let df = pl.doc_count(); // no tombstones in this corpus
                let scorer = model.prepare(df, ix.live_count(), ix.avg_doc_len());
                let default = model.default_score();
                let ub = frontier_bound(&scorer, pl.frontier(), default);
                let best = best_exact(&ix, &scorer, pl.doc_tfs(), default);
                assert_eq!(ub.to_bits(), best.to_bits(), "{} {raw}", model.name());
            }
        }
    }

    #[test]
    fn block_bound_dominates_every_occurrence_in_its_block() {
        let ix = corpus_with_block_size(4);
        let ix = ix.reader();
        let term = ix.analyzer().analyze_term("common");
        let pl = ix.term_postings(&term).unwrap();
        let df = pl.doc_count(); // no tombstones in this corpus
        for model in MODELS {
            let scorer = model.prepare(df, ix.live_count(), ix.avg_doc_len());
            let default = model.default_score();
            let mut entries = pl.doc_tfs().peekable();
            for (b, skip) in pl.blocks().iter().enumerate() {
                let ub = frontier_bound(&scorer, pl.block_frontier(b), default);
                let in_block = std::iter::from_fn(|| entries.next_if(|&(d, _)| d <= skip.last_doc));
                let best = best_exact(&ix, &scorer, in_block, default);
                assert_eq!(ub.to_bits(), best.to_bits(), "{} block {b}", model.name());
            }
            assert!(entries.next().is_none());
        }
    }

    /// The Pareto set of `pairs` — highest `tf`, shortest length —
    /// ascending by `tf`, by brute force.
    fn pareto(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = pairs
            .iter()
            .copied()
            .filter(|&p| !pairs.iter().any(|&q| q != p && q.0 >= p.0 && q.1 <= p.1))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Check every list of `ix` against brute force — each block's
    /// frontier and the list's are the Pareto sets of their postings'
    /// `(tf, doc_len)`, and under every model a frontier bounds its
    /// postings exactly — and return the lists by term.
    fn checked_lists(ix: &ShardedIndex) -> Result<BTreeMap<String, PostingsList>, TestCaseError> {
        let reader = ix.reader();
        let mut lists = BTreeMap::new();
        reader.for_each_term(|term, list| {
            lists.insert(term.to_string(), list.clone());
        });
        for (term, list) in &lists {
            let mut blocks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); list.blocks().len()];
            let mut b = 0;
            for (doc, tf) in list.doc_tfs() {
                while doc > list.blocks()[b].last_doc {
                    b += 1;
                }
                blocks[b].push((tf, reader.doc_entry(DocId(doc)).len));
            }
            let all: Vec<(u32, u32)> = blocks.concat();
            prop_assert_eq!(list.frontier(), &pareto(&all)[..], "{}", term);
            let df = reader.term_summary(term).map_or(0, |(df, _)| df);
            for model in MODELS {
                let scorer = model.prepare(df, reader.live_count(), reader.avg_doc_len());
                let default = model.default_score();
                for (b, pairs) in blocks.iter().enumerate() {
                    prop_assert_eq!(list.block_frontier(b), &pareto(pairs)[..], "{} {}", term, b);
                    let best = pairs
                        .iter()
                        .fold(default, |m, &(tf, len)| m.max(scorer.score(tf, len)));
                    let bound = frontier_bound(&scorer, list.block_frontier(b), default);
                    prop_assert_eq!(bound.to_bits(), best.to_bits(), "{} {}", model.name(), term);
                }
            }
        }
        Ok(lists)
    }

    const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Frontiers are the same whichever way a list was made — pushed
        /// while indexing (tombstoned postings included), derived on
        /// load, or pushed again by a merge's compaction — and each is
        /// the brute-force Pareto set of its postings.
        #[test]
        fn frontiers_are_the_pareto_sets_of_their_postings(
            docs in prop::collection::vec(
                (prop::collection::vec((0usize..6, 1usize..5), 1..6), 0usize..20),
                1..40,
            ),
            deletes in prop::collection::vec(any::<u8>(), 0..10),
            bs_idx in 0usize..3,
            case in 0u32..1_000_000,
        ) {
            let bs = [1u32, 16, 128][bs_idx];
            // `(word, tf)` runs plus stopwords that lengthen the document
            // without adding a term.
            let texts: Vec<String> = docs
                .iter()
                .map(|(words, pad)| {
                    let mut text = "the ".repeat(*pad);
                    for &(w, tf) in words {
                        text.push_str(&format!("{} ", WORDS[w]).repeat(tf));
                    }
                    text
                })
                .collect();
            let pushed = index_with_block_size(bs);
            for (i, text) in texts.iter().enumerate() {
                pushed.add_document(&format!("k{i}"), text).unwrap();
            }
            let mut live = vec![true; texts.len()];
            for d in deletes {
                let i = usize::from(d) % texts.len();
                if std::mem::replace(&mut live[i], false) {
                    pushed.delete_document(&format!("k{i}")).unwrap();
                }
            }
            let pushed_lists = checked_lists(&pushed)?;

            let dir = std::env::temp_dir().join(format!("irs-frontiers-{case}"));
            let config = CollectionConfig { shards: 1, ..CollectionConfig::default() };
            save_collection(&IrsCollection::from_sharded(config, pushed.clone(), 1), &dir).unwrap();
            let loaded = load_collection(&dir).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert_eq!(&checked_lists(loaded.sharded_index())?, &pushed_lists);

            pushed.merge();
            let fresh = index_with_block_size(bs);
            for (i, text) in texts.iter().enumerate() {
                if live[i] {
                    fresh.add_document(&format!("k{i}"), text).unwrap();
                }
            }
            let fresh_lists = checked_lists(&fresh)?;
            for (term, list) in checked_lists(&pushed)? {
                match fresh_lists.get(&term) {
                    Some(fresh) => prop_assert_eq!(&list, fresh, "{}", term),
                    None => prop_assert_eq!(list.doc_count(), 0, "{}", term),
                }
            }
        }
    }

    #[test]
    fn counters_show_pruning_on_a_skewed_corpus() {
        // A few short high-tf documents among long low-tf ones (E14's
        // shape): once they fill the heap, blocks without one cannot
        // reach the threshold.
        let ix = index_with_block_size(8);
        for i in 0..200u32 {
            let text = if i % 50 == 7 {
                "zebra ".repeat(6)
            } else {
                format!("zebra {}", "filler ".repeat(30 + (i % 7) as usize))
            };
            ix.add_document(&format!("d{i:03}"), &text).unwrap();
        }
        let m = Bm25Model::default();
        let node = parse_query("zebra").unwrap();
        let run = || {
            evaluate_top_k_counted(&ix.reader(), &m, &node, 3, None, PruneStrategy::BlockMax)
                .expect("prunable tree")
                .1
        };
        let c = run();
        assert!(c.exact_scored >= 3, "{c:?}");
        assert_eq!(c.exact_scored + c.bound_rejects, c.candidates, "{c:?}");
        assert!(c.bound_rejects > 0, "{c:?}");
        assert!(
            c.range_skips > 0 && c.range_skips <= c.bound_rejects,
            "{c:?}"
        );
        assert!(c.candidates < 200, "range skips pass over documents: {c:?}");
        assert_eq!(run(), c, "same query, same work");
        assert_matches_exhaustive(&ix, &m, "zebra", 3);
    }

    #[test]
    fn deleted_documents_never_surface() {
        let ix = corpus_with_block_size(2);
        ix.delete_document("d00").unwrap();
        ix.delete_document("d07").unwrap();
        let m = InferenceModel::default();
        let node = parse_query("zebra").unwrap();
        let reader = ix.reader();
        let hits = evaluate_top_k(&reader, &m, &node, 50).unwrap();
        for (doc, _) in &hits {
            assert!(reader.is_live(*doc));
        }
        drop(reader);
        assert_matches_exhaustive(&ix, &m, "zebra", 10);
    }
}
