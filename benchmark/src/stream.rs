//! Seeded op streams: everything the program under test receives is
//! generated here from `--seed`, so the same seed replays the same
//! inputs.

use std::collections::{HashSet, VecDeque};

use coupling::MixedStrategy;
use oodb::Oid;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::Request;
use sgml::gen::topic_term;

pub const COLLECTION: &str = "coll";
pub const TOPICS: usize = 24;
pub const VOCABULARY: usize = 20_000;
/// Matches `CorpusConfig::default().zipf_s`, so query terms are drawn
/// with the skew the corpus was written with.
const ZIPF_S: f64 = 1.1;
/// Default `CollectionSetup` buffer capacity (`Collection::new`).
pub const BUFFER_CAPACITY: usize = 256;
/// `read-cold` never repeats a text inside this many ops: four times the
/// buffer, because the sharded LRU may keep an entry past 256 inserts.
pub const COLD_WINDOW: usize = 4 * BUFFER_CAPACITY;
/// `read-hot` cycles this many texts; they fit the buffer.
pub const HOT_SET: usize = 32;

/// Ops per cycle of the read mix. 12 `IrsQuery`, 5 `IrsFirst`, 3
/// `Independent`: the extent-scanning `Independent` ops are 15 % so that
/// p90 falls inside their class instead of on its edge.
const MIX_CYCLE: usize = 20;

/// Zipf sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The corpus generator's background word for rank `k`.
fn background_word(k: usize) -> String {
    format!("w{k:04}")
}

/// Query texts: 1–3 terms by Zipf rank from the background vocabulary
/// and the topic terms, wrapped round-robin in plain / `#and` / `#or` /
/// `#sum`, so postings lengths span three orders of magnitude.
pub struct QueryTexts {
    rng: SmallRng,
    zipf: Zipf,
    issued: u64,
}

impl QueryTexts {
    pub fn new(seed: u64) -> QueryTexts {
        QueryTexts {
            rng: SmallRng::seed_from_u64(seed ^ 0x51ed_2701_89ab_cdef),
            zipf: Zipf::new(VOCABULARY, ZIPF_S),
            issued: 0,
        }
    }

    fn term(&mut self) -> String {
        if self.rng.gen_range(0..4usize) == 0 {
            topic_term(self.rng.gen_range(0..TOPICS))
        } else {
            background_word(self.zipf.sample(&mut self.rng))
        }
    }

    fn next_text(&mut self) -> String {
        let n = self.rng.gen_range(1..=3usize);
        let mut terms: Vec<String> = Vec::with_capacity(n);
        while terms.len() < n {
            let t = self.term();
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let body = terms.join(" ");
        let wrapped = match self.issued % 4 {
            0 => body,
            1 => format!("#and({body})"),
            2 => format!("#or({body})"),
            _ => format!("#sum({body})"),
        };
        self.issued += 1;
        wrapped
    }
}

/// Which texts a read stream issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Every text distinct within [`COLD_WINDOW`] ops.
    Cold,
    /// [`HOT_SET`] texts, cycled.
    Hot,
}

/// One read op: the request and its position in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    pub index: u64,
    pub query: String,
    pub kind: ReadKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Irs,
    Mixed(MixedStrategy),
}

impl ReadOp {
    pub fn request(&self) -> Request {
        match self.kind {
            ReadKind::Irs => Request::IrsQuery {
                collection: COLLECTION.into(),
                query: self.query.clone(),
            },
            ReadKind::Mixed(strategy) => mixed_request(&self.query, strategy),
        }
    }
}

pub fn mixed_request(query: &str, strategy: MixedStrategy) -> Request {
    Request::MixedQuery {
        collection: COLLECTION.into(),
        class: "PARA".into(),
        irs_query: query.into(),
        threshold: 0.0,
        strategy,
    }
}

fn kind_at(index: u64) -> ReadKind {
    match index as usize % MIX_CYCLE {
        6 | 13 | 19 => ReadKind::Mixed(MixedStrategy::Independent),
        1 | 5 | 9 | 14 | 17 => ReadKind::Mixed(MixedStrategy::IrsFirst),
        _ => ReadKind::Irs,
    }
}

/// The read op stream shared by a workload's client threads (they pull
/// from it under a mutex, so the no-repeat window holds across clients).
pub struct ReadStream {
    texts: QueryTexts,
    mode: ReadMode,
    next: u64,
    recent: VecDeque<String>,
    recent_set: HashSet<String>,
    hot: Vec<String>,
}

impl ReadStream {
    pub fn new(seed: u64, mode: ReadMode) -> ReadStream {
        let mut stream = ReadStream {
            texts: QueryTexts::new(seed),
            mode,
            next: 0,
            recent: VecDeque::new(),
            recent_set: HashSet::new(),
            hot: Vec::new(),
        };
        if mode == ReadMode::Hot {
            while stream.hot.len() < HOT_SET {
                let text = stream.texts.next_text();
                if !stream.hot.contains(&text) {
                    stream.hot.push(text);
                }
            }
        }
        stream
    }

    fn cold_text(&mut self) -> String {
        loop {
            let text = self.texts.next_text();
            if self.recent_set.insert(text.clone()) {
                self.recent.push_back(text.clone());
                if self.recent.len() > COLD_WINDOW {
                    let old = self.recent.pop_front().expect("window is non-empty");
                    self.recent_set.remove(&old);
                }
                return text;
            }
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        let index = self.next;
        self.next += 1;
        let query = match self.mode {
            ReadMode::Cold => self.cold_text(),
            ReadMode::Hot => self.hot[index as usize % HOT_SET].clone(),
        };
        ReadOp {
            index,
            query,
            kind: kind_at(index),
        }
    }
}

/// One text update: the task to enqueue plus what the check needs.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateOp {
    pub oid: Oid,
    pub marker: String,
    pub text: String,
}

/// Updates for seeded-random oids out of `oids`, each text carrying a
/// marker term `mk<n>` no other text has. Writer `lane` of `lanes` uses
/// marker numbers `lane, lane + lanes, …`, so lanes never collide.
pub struct UpdateStream {
    rng: SmallRng,
    zipf: Zipf,
    oids: Vec<Oid>,
    lane: u64,
    lanes: u64,
    issued: u64,
}

impl UpdateStream {
    pub fn new(seed: u64, oids: Vec<Oid>, lane: u64, lanes: u64) -> UpdateStream {
        assert!(!oids.is_empty(), "an update stream needs objects to update");
        UpdateStream {
            rng: SmallRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane + 1))),
            zipf: Zipf::new(VOCABULARY, ZIPF_S),
            oids,
            lane,
            lanes,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> UpdateOp {
        let oid = self.oids[self.rng.gen_range(0..self.oids.len())];
        let marker = format!("mk{}", self.issued * self.lanes + self.lane);
        self.issued += 1;
        let words = self.rng.gen_range(30..=80usize);
        let at = self.rng.gen_range(0..=words);
        let mut text = String::with_capacity(words * 6 + marker.len());
        for i in 0..=words {
            if !text.is_empty() {
                text.push(' ');
            }
            if i == at {
                text.push_str(&marker);
            } else {
                text.push_str(&background_word(self.zipf.sample(&mut self.rng)));
            }
        }
        UpdateOp { oid, marker, text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(stream: &mut ReadStream, n: usize) -> Vec<ReadOp> {
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn read_streams_are_deterministic_per_seed() {
        for mode in [ReadMode::Cold, ReadMode::Hot] {
            let a = take(&mut ReadStream::new(42, mode), 3000);
            let b = take(&mut ReadStream::new(42, mode), 3000);
            let c = take(&mut ReadStream::new(43, mode), 3000);
            assert_eq!(a, b, "same seed, same ops");
            assert_ne!(a, c, "another seed, other ops");
        }
    }

    #[test]
    fn cold_stream_never_repeats_inside_the_window() {
        let ops = take(&mut ReadStream::new(7, ReadMode::Cold), 6000);
        for (i, op) in ops.iter().enumerate() {
            let from = i.saturating_sub(COLD_WINDOW - 1);
            assert!(
                ops[from..i].iter().all(|earlier| earlier.query != op.query),
                "op {i} repeats {:?} inside the window",
                op.query
            );
        }
    }

    #[test]
    fn hot_stream_cycles_a_set_that_fits_the_buffer() {
        let ops = take(&mut ReadStream::new(7, ReadMode::Hot), 2000);
        let texts: HashSet<&str> = ops.iter().map(|op| op.query.as_str()).collect();
        assert_eq!(texts.len(), HOT_SET);
        const { assert!(HOT_SET < BUFFER_CAPACITY) };
        for (i, op) in ops.iter().enumerate().skip(HOT_SET) {
            assert_eq!(op.query, ops[i - HOT_SET].query);
        }
    }

    #[test]
    fn read_mix_is_60_25_15() {
        let ops = take(&mut ReadStream::new(1, ReadMode::Cold), 2000);
        let count = |k: ReadKind| ops.iter().filter(|op| op.kind == k).count();
        assert_eq!(count(ReadKind::Irs), 1200);
        assert_eq!(count(ReadKind::Mixed(MixedStrategy::IrsFirst)), 500);
        assert_eq!(count(ReadKind::Mixed(MixedStrategy::Independent)), 300);
    }

    #[test]
    fn update_lanes_are_deterministic_and_markers_unique() {
        let oids: Vec<Oid> = (1..=50).map(Oid).collect();
        let run = |lane| {
            let mut s = UpdateStream::new(42, oids.clone(), lane, 2);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0));
        let mut markers = HashSet::new();
        for op in run(0).into_iter().chain(run(1)) {
            assert!(op.text.split(' ').any(|w| w == op.marker));
            assert!(markers.insert(op.marker), "marker reused");
        }
    }
}
