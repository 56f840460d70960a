//! Helpers shared by the cross-crate integration tests.

use coupling::{CollectionSetup, DocumentSystem};
use irs::QueryNode;

/// A tiny vocabulary so random documents share terms and rankings have
/// real ties to break.
pub const VOCAB: [&str; 12] = [
    "telnet", "gopher", "www", "archie", "veronica", "wais", "ftp", "nii", "mosaic", "lynx",
    "usenet", "irc",
];

/// Random bytes replayed in a cycle: the source of every choice
/// [`stress_query`] makes.
struct Tape<'a>(std::iter::Cycle<std::iter::Copied<std::slice::Iter<'a, u8>>>);

impl Tape<'_> {
    fn byte(&mut self) -> usize {
        usize::from(self.0.next().expect("the tape is not empty"))
    }

    fn term(&mut self) -> QueryNode {
        QueryNode::Term(VOCAB[self.byte() % VOCAB.len()].into())
    }

    /// A random operator over `children`; `#wsum` weights are 0, 1 or 2.
    fn op(&mut self, children: Vec<QueryNode>) -> QueryNode {
        match self.byte() % 5 {
            0 => QueryNode::And(children),
            1 => QueryNode::Or(children),
            2 => QueryNode::Sum(children),
            3 => QueryNode::Max(children),
            _ => QueryNode::WSum(
                children
                    .into_iter()
                    .map(|c| ((self.byte() % 3) as f64, c))
                    .collect(),
            ),
        }
    }

    /// A random subtree of at most `depth` operator levels with up to
    /// three children per node.
    fn subtree(&mut self, depth: usize) -> QueryNode {
        if depth == 0 || self.byte().is_multiple_of(4) {
            return self.term();
        }
        let children = (0..1 + self.byte() % 3)
            .map(|_| self.subtree(depth - 1))
            .collect();
        self.op(children)
    }
}

/// An operator tree inside the pruned top-k fragment, shaped by `tape`
/// (non-empty) to hit what a flat scoring kernel could get wrong: a root
/// with 11–14 children, a chain nested three operators below it, one leaf
/// repeated under three different parents, and a `#wsum` with a zero
/// weight. Weights are whole numbers, so `to_string()` parses back to the
/// same tree.
pub fn stress_query(tape: &[u8]) -> QueryNode {
    let mut tape = Tape(tape.iter().copied().cycle());
    let shared = tape.term();
    let mut children: Vec<QueryNode> = (0..9 + tape.byte() % 4).map(|_| tape.subtree(2)).collect();
    let mut deep = shared.clone();
    for _ in 0..3 {
        let sibling = tape.term();
        deep = tape.op(vec![sibling, deep]);
    }
    children.push(deep);
    children.push(QueryNode::WSum(vec![
        (0.0, tape.term()),
        (2.0, shared.clone()),
        (1.0, tape.subtree(1)),
    ]));
    children.insert(0, shared);
    tape.op(children)
}

/// A small two-issue journal with a paragraph collection, used by several
/// integration tests.
pub fn two_issue_system() -> DocumentSystem {
    let mut sys = DocumentSystem::new();
    sys.load_sgml(
        "<MMFDOC YEAR=\"1994\"><DOCTITLE>Telnet</DOCTITLE>\
         <PARA>telnet is a protocol for remote terminal sessions</PARA>\
         <PARA>telnet enables interactive login across networks</PARA></MMFDOC>",
    )
    .expect("issue one loads");
    sys.load_sgml(
        "<MMFDOC YEAR=\"1995\"><DOCTITLE>Information highways</DOCTITLE>\
         <PARA>the www connects hypertext documents worldwide</PARA>\
         <PARA>the nii will bring the www into every home</PARA></MMFDOC>",
    )
    .expect("issue two loads");
    sys.create_collection("collPara", CollectionSetup::default())
        .expect("collection created");
    sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
        .expect("indexing succeeds");
    sys
}
