//! Persistence: saving and loading collections.
//!
//! The paper's IRS stores its inverted lists "in a file system"
//! (Section 1.1).
//!
//! A snapshot is a *directory* ([`save_collection`]) holding one
//! CRC-framed file per term shard (`shard-<gen>-<i>`) plus a `manifest`
//! with the configuration, document store, and current generation.
//! Shards are serialised straight from the sharded index under their own
//! read locks — no merge into a single dictionary — and written in
//! parallel; the manifest is written *last*, so it is the commit point: a
//! crash mid-save leaves the previous generation's manifest pointing at
//! the previous generation's shard files. Loads read the shard files in
//! parallel and reconstruct the shards verbatim when the shard count
//! matches.
//!
//! This is the only format read: manifest version 1 with shard files of
//! version 2. The older flat single-file snapshot and version 1 shard
//! files are refused with [`IrsError::CorruptIndex`]; to migrate one,
//! load and re-save it with an earlier build.
//!
//! All binary snapshots are **crash-safe**: [`storage::atomic_write`]
//! writes the payload plus a CRC-32 trailer to a temporary file,
//! `sync_all`s it, and atomically renames it into place;
//! [`storage::read_verified`] rejects any file whose trailer does not
//! match, which surfaces here as [`IrsError::CorruptIndex`]. A crash
//! mid-save leaves the previous file intact; torn or bit-flipped files are
//! detected at load. Generation numbering and cleanup are
//! [`storage::next_generation`] and [`storage::cleanup_stale_generations`],
//! the rule the coupling layer's saved system commits by too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use storage::codec::{put_bytes_varint, put_f64, put_str_varint, Reader};
use storage::{atomic_write, read_verified_with_crc, write_varint};

use crate::analysis::{Analyzer, AnalyzerConfig};
use crate::collection::{CollectionConfig, IrsCollection};
use crate::error::{IrsError, Result};
use crate::fault::splitmix64;
use crate::index::{DocId, DocStore, PostingsList, ShardedIndex, TermTable};
use crate::model::{Bm25Model, InferenceModel, ModelKind, VectorModel};

const MANIFEST_MAGIC: &[u8; 4] = b"IRSM";
const MANIFEST_VERSION: u8 = 1;
const MANIFEST_NAME: &str = "manifest";

const SHARD_MAGIC: &[u8; 4] = b"IRSS";
/// Shard file version. Version 2 persists each term's block-skip headers
/// (block size, then per block: delta-encoded `last_doc`, `max_tf`,
/// delta-encoded `end`) so loads reconstruct the block-structured
/// [`PostingsList`] without decoding the postings bytes.
const SHARD_VERSION: u8 = 2;

fn put_analyzer(out: &mut Vec<u8>, a: &AnalyzerConfig) {
    out.push(a.lowercase as u8);
    out.push(a.remove_stopwords as u8);
    out.push(a.stem as u8);
    write_varint(out, a.min_token_len as u64);
    write_varint(out, a.max_token_len as u64);
}

fn get_analyzer(r: &mut Reader<'_>) -> Result<AnalyzerConfig> {
    Ok(AnalyzerConfig {
        lowercase: r.flag("lowercase")?,
        remove_stopwords: r.flag("stopwords")?,
        stem: r.flag("stem")?,
        min_token_len: r.varint("min token length")? as usize,
        max_token_len: r.varint("max token length")? as usize,
    })
}

fn put_model(out: &mut Vec<u8>, model: &ModelKind) {
    out.push(model.tag());
    match model {
        ModelKind::Boolean => {}
        ModelKind::Vector(m) => put_f64(out, m.slope),
        ModelKind::Bm25(m) => {
            put_f64(out, m.k1);
            put_f64(out, m.b);
        }
        ModelKind::Inference(m) => put_f64(out, m.default_belief),
    }
}

fn get_model(r: &mut Reader<'_>) -> Result<ModelKind> {
    let tag = r.u8("model tag")?;
    Ok(
        match ModelKind::from_tag(tag)
            .ok_or_else(|| IrsError::CorruptIndex(format!("unknown model tag {tag}")))?
        {
            ModelKind::Boolean => ModelKind::Boolean,
            ModelKind::Vector(_) => ModelKind::Vector(VectorModel {
                slope: r.f64("slope")?,
            }),
            ModelKind::Bm25(_) => ModelKind::Bm25(Bm25Model {
                k1: r.f64("k1")?,
                b: r.f64("b")?,
            }),
            ModelKind::Inference(_) => ModelKind::Inference(InferenceModel {
                default_belief: r.f64("default belief")?,
            }),
        },
    )
}

/// Doc store in slot order (tombstones preserved so doc ids survive).
fn put_store(out: &mut Vec<u8>, store: &DocStore) {
    write_varint(out, u64::from(store.slot_count()));
    for slot in 0..store.slot_count() {
        let e = store.entry(DocId(slot));
        put_str_varint(out, &e.key);
        write_varint(out, u64::from(e.len));
        out.push(e.deleted as u8);
    }
}

/// Rebuild a doc store by replaying inserts (and deletes for tombstones)
/// in slot order, so internal ids are reproduced exactly.
fn get_store(r: &mut Reader<'_>) -> Result<DocStore> {
    // A slot takes at least a key length, a length and a flag.
    let slots = r.varint("slot count")?;
    let slots = r.count(slots, 3, "slot")?;
    let mut store = DocStore::new();
    for _ in 0..slots {
        let key = r.str_varint("key")?;
        let len = r.varint("document length")? as u32;
        let deleted = r.flag("deleted")?;
        store
            .insert(key, len)
            .ok_or_else(|| IrsError::CorruptIndex(format!("duplicate live key {key}")))?;
        if deleted {
            store.delete(key);
        }
    }
    Ok(store)
}

fn shard_path(dir: &Path, generation: u64, i: usize) -> PathBuf {
    dir.join(format!("shard-{generation}-{i}"))
}

/// Parse `shard-<gen>-<i>` file names; anything else yields `None`.
fn parse_shard_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("shard-")?;
    let (gen, idx) = rest.split_once('-')?;
    Some((gen.parse().ok()?, idx.parse().ok()?))
}

/// The generation of a shard file name, for the `storage` generation
/// helpers.
fn shard_generation(name: &str) -> Option<u64> {
    parse_shard_name(name).map(|(gen, _)| gen)
}

/// The epoch of a snapshot, from the verified bytes: its generation and
/// the CRC-32 of the manifest and of every shard file in index order. A
/// save computes it from the CRCs it wrote and a load from the CRCs it
/// read, so both agree.
fn snapshot_epoch(
    generation: u64,
    manifest_crc: u32,
    shard_crcs: impl Iterator<Item = u32>,
) -> u64 {
    let seed = splitmix64(generation ^ splitmix64(u64::from(manifest_crc)));
    shard_crcs
        .fold(seed, |epoch, crc| splitmix64(epoch ^ u64::from(crc)))
        .max(1)
}

/// Serialise one shard's dictionary and postings (term text, stats, raw
/// delta-encoded bytes — including `max_tf` and the block-skip headers,
/// so a load reassembles each list without decoding it; only the
/// frontier walk of `TermTable::from_lists` reads the postings).
fn encode_shard(i: usize, generation: u64, terms: &TermTable) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SHARD_MAGIC);
    out.push(SHARD_VERSION);
    write_varint(&mut out, generation);
    write_varint(&mut out, i as u64);
    write_varint(&mut out, terms.len() as u64);
    for (term, pl, _) in terms.entries() {
        put_str_varint(&mut out, term);
        let (bytes, doc_count, last_doc, total_tf, max_tf) = pl.raw();
        write_varint(&mut out, u64::from(doc_count));
        write_varint(&mut out, u64::from(last_doc));
        write_varint(&mut out, total_tf);
        write_varint(&mut out, u64::from(max_tf));
        put_bytes_varint(&mut out, bytes);
        // Block-skip headers (v2). The block count is derived from
        // `doc_count` and the block size, so only the size is stored;
        // `last_doc` and `end` are ascending across blocks and delta-code
        // well.
        write_varint(&mut out, u64::from(pl.block_size()));
        let mut prev_last = 0u32;
        let mut prev_end = 0usize;
        for b in pl.blocks() {
            write_varint(&mut out, u64::from(b.last_doc - prev_last));
            write_varint(&mut out, u64::from(b.max_tf));
            write_varint(&mut out, (b.end - prev_end) as u64);
            prev_last = b.last_doc;
            prev_end = b.end;
        }
    }
    out
}

/// Decode one shard file, verifying it belongs to `(generation, i)`; the
/// lists are reassembled from the persisted block headers via
/// [`PostingsList::from_raw_blocks`], with no postings decode.
fn decode_shard(buf: &[u8], generation: u64, i: usize) -> Result<Vec<(String, PostingsList)>> {
    let mut r = Reader::new(buf);
    if buf.len() < 5 || r.take(4, "magic")? != SHARD_MAGIC {
        return Err(IrsError::CorruptIndex("bad shard magic".into()));
    }
    match r.u8("shard version")? {
        SHARD_VERSION => {}
        1 => {
            return Err(IrsError::CorruptIndex(
                "shard file version 1 (no block headers) is no longer read; \
                 load and re-save the snapshot with an earlier build"
                    .into(),
            ))
        }
        version => {
            return Err(IrsError::CorruptIndex(format!(
                "unsupported shard version {version}"
            )))
        }
    }
    let file_gen = r.varint("generation")?;
    let file_idx = r.varint("shard index")? as usize;
    if file_gen != generation || file_idx != i {
        return Err(IrsError::CorruptIndex(format!(
            "shard file is generation {file_gen} index {file_idx}, expected {generation}/{i}"
        )));
    }
    // A term takes at least seven varints: the term and postings
    // lengths, four statistics and the block size.
    let term_count = r.varint("term count")?;
    let term_count = r.count(term_count, 7, "term")?;
    let mut terms = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        let term = r.str_varint("term")?.to_string();
        let doc_count = r.varint("doc count")? as u32;
        let last_doc = r.varint("last doc")? as u32;
        let total_tf = r.varint("total tf")?;
        let max_tf = r.varint("max tf")? as u32;
        let bytes = r.bytes_varint("postings")?.to_vec();
        let block_size = r.varint("block size")? as u32;
        if block_size == 0 {
            return Err(IrsError::CorruptIndex("zero block size".into()));
        }
        // A block header is three varints.
        let n_blocks = (doc_count as usize).div_ceil(block_size as usize);
        let mut blocks = Vec::with_capacity(r.count(n_blocks as u64, 3, "block")?);
        let mut prev_last = 0u32;
        let mut prev_end = 0usize;
        for _ in 0..n_blocks {
            let last_doc = prev_last
                .checked_add(r.varint("block last doc")? as u32)
                .ok_or_else(|| IrsError::CorruptIndex("block last_doc overflow".into()))?;
            let max_tf = r.varint("block max tf")? as u32;
            let end = prev_end
                .checked_add(r.varint("block end")? as usize)
                .ok_or_else(|| IrsError::CorruptIndex("block end overflow".into()))?;
            blocks.push(crate::index::BlockSkip {
                last_doc,
                max_tf,
                end,
            });
            prev_last = last_doc;
            prev_end = end;
        }
        let pl = PostingsList::from_raw_blocks(
            bytes, doc_count, last_doc, total_tf, max_tf, block_size, blocks,
        )
        .ok_or_else(|| {
            IrsError::CorruptIndex(format!("inconsistent block headers for term {term}"))
        })?;
        terms.push((term, pl));
    }
    r.finish()?;
    Ok(terms)
}

/// Serialise `coll` natively to the directory `path`: one CRC-framed file
/// per term shard, written in parallel straight from the shard locks (no
/// merge into a single dictionary), then a `manifest` as the commit point.
/// The store read lock is held throughout, so the snapshot is consistent
/// even while other threads are writing to the collection.
///
/// Returns the [`IrsCollection::epoch`] a [`load_collection`] of what it
/// wrote will have.
///
/// Fails, touching nothing, if `path` exists and is not a directory.
pub fn save_collection(coll: &IrsCollection, path: &Path) -> Result<u64> {
    let index = coll.sharded_index();
    std::fs::create_dir_all(path)?;
    let generation = storage::next_generation(path, shard_generation)?;
    let n_shards = index.shard_count();

    let epoch = index.with_store(|store| -> Result<u64> {
        // Shard files first; each worker serialises one shard under that
        // shard's read lock and writes it crash-safely.
        let mut written: Vec<Result<u32>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_shards)
                .map(|i| {
                    scope.spawn(move || {
                        let payload =
                            index.with_shard(i, |terms| encode_shard(i, generation, terms));
                        Ok(atomic_write(&shard_path(path, generation, i), &payload)?)
                    })
                })
                .collect();
            written = handles
                .into_iter()
                .map(|h| h.join().expect("shard writer panicked"))
                .collect();
        });
        let shard_crcs = written.into_iter().collect::<Result<Vec<u32>>>()?;

        // Manifest last: until this write completes, loads still see the
        // previous generation in full.
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        put_analyzer(&mut out, &coll.config().analyzer);
        put_model(&mut out, &coll.config().model);
        write_varint(&mut out, coll.config().shards as u64);
        write_varint(&mut out, n_shards as u64);
        write_varint(&mut out, generation);
        put_store(&mut out, store);
        let manifest_crc = atomic_write(&path.join(MANIFEST_NAME), &out)?;
        Ok(snapshot_epoch(
            generation,
            manifest_crc,
            shard_crcs.into_iter(),
        ))
    })?;

    storage::cleanup_stale_generations(path, generation, shard_generation);
    Ok(epoch)
}

/// Load a snapshot directory written by [`save_collection`]: parse the
/// manifest, read and decode the current generation's shard files in
/// parallel (at most one worker per available CPU, whatever the manifest
/// declares), and reconstruct the sharded index without re-partitioning
/// (unless the effective shard count changed, in which case terms are
/// re-hashed). A regular file at `path` is a flat single-file snapshot,
/// which is refused with [`IrsError::CorruptIndex`].
///
/// The collection's [`IrsCollection::epoch`] is derived from the verified
/// bytes — the generation and the CRC-32 of the manifest and of every
/// shard file — so every load of one snapshot gets the same epoch.
pub fn load_collection(path: &Path) -> Result<IrsCollection> {
    if path.is_file() {
        return Err(IrsError::CorruptIndex(format!(
            "{} is a flat single-file snapshot, which is no longer read; \
             load and re-save it with an earlier build",
            path.display()
        )));
    }
    let (buf, manifest_crc) = read_verified_with_crc(&path.join(MANIFEST_NAME))?;
    let mut r = Reader::new(&buf);
    if buf.len() < 5 || r.take(4, "magic")? != MANIFEST_MAGIC {
        return Err(IrsError::CorruptIndex("bad manifest magic".into()));
    }
    let version = r.u8("manifest version")?;
    if version != MANIFEST_VERSION {
        return Err(IrsError::CorruptIndex(format!(
            "unsupported manifest version {version}"
        )));
    }
    let analyzer_cfg = get_analyzer(&mut r)?;
    let model = get_model(&mut r)?;
    let shards_cfg = r.varint("configured shards")? as usize;
    let shard_count = r.varint("shard count")? as usize;
    let generation = r.varint("generation")?;
    let store = get_store(&mut r)?;
    r.finish()?;
    if shard_count == 0 || shard_count > 1 << 16 || shards_cfg > 1 << 16 {
        return Err(IrsError::CorruptIndex(format!(
            "implausible shard count {shard_count} (configured {shards_cfg})"
        )));
    }

    // Read and decode the shard files in parallel: a bounded set of
    // workers pulls shard indices, so a hostile manifest's declared
    // count cannot start one thread per shard.
    type Loaded = (usize, Result<(Vec<(String, PostingsList)>, u32)>);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(shard_count);
    let next = AtomicUsize::new(0);
    let load = || {
        let mut out: Vec<Loaded> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= shard_count {
                return out;
            }
            let shard = read_verified_with_crc(&shard_path(path, generation, i))
                .map_err(IrsError::from)
                .and_then(|(bytes, crc)| Ok((decode_shard(&bytes, generation, i)?, crc)));
            out.push((i, shard));
        }
    };
    let mut loaded: Vec<Loaded> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(load)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard loader panicked"))
            .collect()
    });
    loaded.sort_by_key(|(i, _)| *i);
    let (shard_terms, shard_crcs): (Vec<_>, Vec<u32>) = loaded
        .into_iter()
        .map(|(_, shard)| shard)
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    let epoch = snapshot_epoch(generation, manifest_crc, shard_crcs.into_iter());

    let config = CollectionConfig {
        analyzer: analyzer_cfg.clone(),
        model,
        shards: shards_cfg,
    };
    let index = ShardedIndex::from_shard_parts(
        Analyzer::new(analyzer_cfg),
        store,
        shard_terms,
        config.resolved_shards(),
    );
    Ok(IrsCollection::from_sharded(config, index, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionConfig;
    use storage::read_verified;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("irs-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        // Tests rerun against a dirty temp dir; start each from scratch.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn sample() -> IrsCollection {
        let mut c = IrsCollection::new(CollectionConfig::default());
        c.add_document("p1", "telnet is a protocol").unwrap();
        c.add_document("p2", "the www and the nii").unwrap();
        c.add_document("p3", "information retrieval systems")
            .unwrap();
        c.delete_document("p2").unwrap();
        c
    }

    fn shard_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| parse_shard_name(n).is_some())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_load_round_trip_preserves_search() {
        let orig = sample();
        let path = tmp("round_trip.idx");
        save_collection(&orig, &path).unwrap();
        assert!(path.is_dir(), "native snapshot is a directory");
        let loaded = load_collection(&path).unwrap();

        for q in [
            "telnet",
            "protocol",
            "www",
            "retrieval",
            "#and(information retrieval)",
        ] {
            let a = orig.search(q).unwrap();
            let b = loaded.search(q).unwrap();
            assert_eq!(a, b, "query {q}");
        }
        assert_eq!(orig.len(), loaded.len());
        assert_eq!(orig.config(), loaded.config());
    }

    /// The bytes of a hex literal.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A manifest is exactly these bytes (CRC-32 trailer included), and
    /// the bytes load back to the same configuration and documents.
    #[test]
    fn manifest_bytes_are_pinned() {
        let mut orig = IrsCollection::new(CollectionConfig {
            model: ModelKind::Bm25(Bm25Model { k1: 1.5, b: 0.75 }),
            shards: 2,
            ..CollectionConfig::default()
        });
        orig.add_document("p1", "telnet is a protocol").unwrap();
        orig.add_document("p2", "the www and the nii").unwrap();
        orig.delete_document("p2").unwrap();
        let path = tmp("pinned_manifest.idx");
        save_collection(&orig, &path).unwrap();
        let manifest = path.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest).unwrap();
        let pinned = unhex("4952534d01010101014002000000000000f83f000000000000e83f02020102027031040002703205019a9d23af");
        assert_eq!(bytes, pinned);
        std::fs::write(&manifest, &pinned).unwrap();
        let loaded = load_collection(&path).unwrap();
        assert_eq!(loaded.config(), orig.config());
        assert_eq!(loaded.len(), orig.len());
        assert_eq!(
            loaded.search("telnet").unwrap(),
            orig.search("telnet").unwrap()
        );
    }

    #[test]
    fn save_never_replaces_a_regular_file() {
        let path = tmp("regular_file.idx");
        std::fs::write(&path, b"not a snapshot directory").unwrap();
        assert!(save_collection(&sample(), &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"not a snapshot directory");
    }

    #[test]
    fn repeated_saves_keep_one_generation() {
        let orig = sample();
        let path = tmp("generations.idx");
        save_collection(&orig, &path).unwrap();
        save_collection(&orig, &path).unwrap();
        save_collection(&orig, &path).unwrap();
        let names = shard_files(&path);
        let gens: std::collections::HashSet<u64> = names
            .iter()
            .map(|n| parse_shard_name(n).unwrap().0)
            .collect();
        assert_eq!(gens.len(), 1, "stale generations cleaned: {names:?}");
        assert_eq!(
            names.len(),
            orig.sharded_index().shard_count(),
            "one file per shard"
        );
        assert!(load_collection(&path).is_ok());
    }

    #[test]
    fn tombstones_survive_round_trip() {
        let orig = sample();
        let path = tmp("tombstones.idx");
        save_collection(&orig, &path).unwrap();
        let loaded = load_collection(&path).unwrap();
        assert!(!loaded.contains("p2"));
        assert_eq!(loaded.with_store(|s| s.slot_count()), 3);
        assert_eq!(loaded.with_store(|s| s.live_count()), 2);
    }

    #[test]
    fn model_parameters_survive() {
        let mut c = IrsCollection::new(CollectionConfig {
            model: ModelKind::Bm25(Bm25Model { k1: 2.5, b: 0.1 }),
            ..CollectionConfig::default()
        });
        c.add_document("x", "hello world").unwrap();
        let path = tmp("params.idx");
        save_collection(&c, &path).unwrap();
        let loaded = load_collection(&path).unwrap();
        assert_eq!(
            loaded.config().model,
            ModelKind::Bm25(Bm25Model { k1: 2.5, b: 0.1 })
        );
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let path = tmp("corrupt.idx");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(matches!(
            load_collection(&path),
            Err(IrsError::CorruptIndex(_))
        ));

        // Truncating the manifest after a valid save must also fail cleanly.
        let good = tmp("truncate.idx");
        save_collection(&sample(), &good).unwrap();
        let manifest = good.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_collection(&good).is_err());
    }

    #[test]
    fn bit_flip_in_manifest_is_detected_by_crc() {
        let path = tmp("bitflip_manifest.idx");
        save_collection(&sample(), &path).unwrap();
        let manifest = path.join(MANIFEST_NAME);
        let len = std::fs::metadata(&manifest).unwrap().len() as usize;
        crate::fault::flip_byte(&manifest, len / 2).unwrap();
        assert!(matches!(
            load_collection(&path),
            Err(IrsError::CorruptIndex(_))
        ));
    }

    #[test]
    fn bit_flip_in_shard_file_is_detected_by_crc() {
        let path = tmp("bitflip_shard.idx");
        save_collection(&sample(), &path).unwrap();
        // Flip a byte in the middle of every shard file: whichever holds
        // postings, the load must notice.
        for name in shard_files(&path) {
            let f = path.join(&name);
            let len = std::fs::metadata(&f).unwrap().len() as usize;
            crate::fault::flip_byte(&f, len / 2).unwrap();
        }
        assert!(matches!(
            load_collection(&path),
            Err(IrsError::CorruptIndex(_))
        ));
    }

    #[test]
    fn missing_shard_file_is_rejected() {
        let path = tmp("missing_shard.idx");
        save_collection(&sample(), &path).unwrap();
        let victim = path.join(&shard_files(&path)[0]);
        std::fs::remove_file(victim).unwrap();
        assert!(load_collection(&path).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Snapshot trailers are the standard CRC-32 (IEEE) of the payload,
        // stored little-endian after it.
        let path = tmp("crc_vector.bin");
        atomic_write(&path, b"123456789").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..9], b"123456789");
        assert_eq!(&bytes[9..], &0xcbf4_3926u32.to_le_bytes());
        assert_eq!(storage::crc32(b""), 0);
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_tmp() {
        let path = tmp("atomic.bin");
        atomic_write(&path, b"payload bytes").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"payload bytes");
        assert!(!path.with_file_name("atomic.bin.tmp").exists());
        // A torn write of the same payload (missing its tail) is rejected
        // as a corrupt index, not as a plain I/O failure.
        let bytes = std::fs::read(&path).unwrap();
        crate::fault::torn_write(&path, &bytes, bytes.len() - 2).unwrap();
        let err = IrsError::from(read_verified(&path).unwrap_err());
        assert!(matches!(err, IrsError::CorruptIndex(_)), "{err}");
    }

    #[test]
    fn sixty_four_shards_round_trip_exactly() {
        // More shards than loader workers: each worker pulls several.
        let mut c = IrsCollection::new(CollectionConfig {
            shards: 64,
            ..CollectionConfig::default()
        });
        let words = ["telnet", "www", "gopher", "nii", "archie", "wais", "ftp"];
        for i in 0..200usize {
            let text: Vec<&str> = (0..1 + i % 6).map(|j| words[(i * 7 + j) % 7]).collect();
            c.add_document(&format!("d{i}"), &text.join(" ")).unwrap();
        }
        let path = tmp("sixty_four.idx");
        save_collection(&c, &path).unwrap();
        assert_eq!(shard_files(&path).len(), 64);
        let loaded = load_collection(&path).unwrap();
        assert_eq!(loaded.sharded_index().shard_count(), 64);
        for q in ["telnet", "#or(www gopher)", "#sum(nii archie wais ftp)"] {
            let (a, b) = (c.search(q).unwrap(), loaded.search(q).unwrap());
            assert_eq!(a.len(), b.len(), "{q}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.key, y.key, "{q}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{q}");
            }
        }
    }

    #[test]
    fn epoch_is_derived_from_the_snapshot_bytes() {
        let path = tmp("epoch.idx");
        let saved = save_collection(&sample(), &path).unwrap();
        let mut a = load_collection(&path).unwrap();
        let mut b = load_collection(&path).unwrap();
        a.set_read_only(true);
        b.set_read_only(true);
        assert_ne!(a.epoch(), 0);
        assert_eq!(a.epoch(), b.epoch(), "two loads of one snapshot agree");
        assert_eq!(a.epoch(), saved, "the save returns the epoch a load gets");

        // Different content, saved to the same place: a different epoch.
        let mut other = sample();
        other.add_document("p4", "gopher menus").unwrap();
        let saved = save_collection(&other, &path).unwrap();
        let mut c = load_collection(&path).unwrap();
        c.set_read_only(true);
        assert_ne!(c.epoch(), a.epoch());
        assert_eq!(c.epoch(), saved);

        // A mutation forgets the snapshot: refreezing mints a fresh one.
        c.set_read_only(false);
        c.add_document("p5", "archie").unwrap();
        c.set_read_only(true);
        assert_ne!(c.epoch(), 0);
        let mut d = load_collection(&path).unwrap();
        d.set_read_only(true);
        assert_ne!(c.epoch(), d.epoch());
    }

    #[test]
    fn shard_count_survives_round_trip() {
        let mut c = IrsCollection::new(CollectionConfig {
            shards: 5,
            ..CollectionConfig::default()
        });
        c.add_document("x", "hello world").unwrap();
        let path = tmp("shards.idx");
        save_collection(&c, &path).unwrap();
        let loaded = load_collection(&path).unwrap();
        assert_eq!(loaded.config().shards, 5);
        assert_eq!(loaded.config(), c.config());
        assert_eq!(loaded.sharded_index().shard_count(), 5);
    }

    #[test]
    fn shard_files_carry_current_version() {
        let path = tmp("shard_version.idx");
        save_collection(&sample(), &path).unwrap();
        for name in shard_files(&path) {
            let bytes = std::fs::read(path.join(&name)).unwrap();
            assert_eq!(&bytes[0..4], SHARD_MAGIC, "{name}");
            assert_eq!(bytes[4], SHARD_VERSION, "{name}");
        }
    }

    #[test]
    fn v1_shard_files_are_refused() {
        let path = tmp("legacy_v1.idx");
        save_collection(&sample(), &path).unwrap();
        // Downgrade one shard file's version byte to 1, the layout without
        // block headers.
        let file = path.join(&shard_files(&path)[0]);
        let mut payload = read_verified(&file).unwrap();
        payload[4] = 1;
        atomic_write(&file, &payload).unwrap();
        match load_collection(&path) {
            Err(IrsError::CorruptIndex(why)) => assert!(why.contains("version 1"), "{why}"),
            other => panic!("a v1 shard file must be refused, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_doc_ids_in_a_clean_shard_file_never_panic() {
        let mut c = IrsCollection::new(CollectionConfig {
            shards: 1,
            ..CollectionConfig::default()
        });
        c.add_document("a", "telnet").unwrap();
        c.add_document("b", "telnet").unwrap();
        let path = tmp("doc_past_store.idx");
        save_collection(&c, &path).unwrap();
        // A well-formed, CRC-clean list naming a document the store (two
        // slots, no tombstones) never assigned.
        let mut terms = TermTable::new(128);
        let tid = terms.intern("telnet");
        terms.append(tid, 0, &[0], 1);
        terms.append(tid, 5, &[0], 1);
        let name = &shard_files(&path)[0];
        let (generation, i) = parse_shard_name(name).unwrap();
        atomic_write(&path.join(name), &encode_shard(i, generation, &terms)).unwrap();

        let loaded = load_collection(&path).unwrap();
        let keys = |hits: Vec<crate::collection::Hit>| -> Vec<String> {
            hits.into_iter().map(|h| h.key).collect()
        };
        assert_eq!(keys(loaded.search("telnet").unwrap()), ["a"]);
        assert_eq!(keys(loaded.search_top_k("telnet", 2).unwrap()), ["a"]);
    }

    #[test]
    fn corrupt_block_headers_are_rejected() {
        let orig = sample();
        let path = tmp("bad_blocks.idx");
        save_collection(&orig, &path).unwrap();
        // Re-encode every shard with lying block headers: inflate each
        // block's `end` delta so the final offset no longer matches the
        // postings byte length.
        for name in shard_files(&path) {
            let (generation, i) = parse_shard_name(&name).unwrap();
            let file = path.join(&name);
            let terms = decode_shard(&read_verified(&file).unwrap(), generation, i).unwrap();
            let mut out = Vec::new();
            out.extend_from_slice(SHARD_MAGIC);
            out.push(SHARD_VERSION);
            write_varint(&mut out, generation);
            write_varint(&mut out, i as u64);
            write_varint(&mut out, terms.len() as u64);
            for (term, pl) in &terms {
                put_str_varint(&mut out, term);
                let (bytes, doc_count, last_doc, total_tf, max_tf) = pl.raw();
                write_varint(&mut out, u64::from(doc_count));
                write_varint(&mut out, u64::from(last_doc));
                write_varint(&mut out, total_tf);
                write_varint(&mut out, u64::from(max_tf));
                put_bytes_varint(&mut out, bytes);
                write_varint(&mut out, u64::from(pl.block_size()));
                let mut prev_last = 0u32;
                for b in pl.blocks() {
                    write_varint(&mut out, u64::from(b.last_doc - prev_last));
                    write_varint(&mut out, u64::from(b.max_tf));
                    write_varint(&mut out, (b.end + 7) as u64);
                    prev_last = b.last_doc;
                }
            }
            atomic_write(&file, &out).unwrap();
        }
        assert!(matches!(
            load_collection(&path),
            Err(IrsError::CorruptIndex(_))
        ));
    }

    /// Regenerates the pinned snapshot fixture under `tests/fixtures/` in
    /// the *current* format. The committed `snapshot-flat-v2.idx` and
    /// `snapshot-shard-v1.idx` were produced by historical format
    /// versions and must NEVER be regenerated — they pin the refusal of
    /// formats no longer read. Run this (with `--ignored`) only to add a
    /// fixture for a newly introduced format version, and name the output
    /// accordingly.
    #[test]
    #[ignore]
    fn generate_pinned_fixtures() {
        let mut c = IrsCollection::new(CollectionConfig {
            model: ModelKind::Bm25(Bm25Model { k1: 1.6, b: 0.68 }),
            shards: 2,
            ..CollectionConfig::default()
        });
        let docs = [
            (
                "doc:alpha",
                "zebra protocol handshake zebra zebra retry window",
            ),
            ("doc:beta", "protocol window sizing and flow control notes"),
            (
                "doc:gamma",
                "zebra grazing habits on the open savannah plains",
            ),
            ("doc:delta", "window manager focus protocol quirks zebra"),
            ("doc:epsilon", "flow of information retrieval beliefs"),
            ("doc:zeta", "handshake retry backoff and protocol timers"),
        ];
        for (k, t) in docs {
            c.add_document(k, t).unwrap();
        }
        c.delete_document("doc:gamma").unwrap();
        let base = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        std::fs::create_dir_all(&base).unwrap();
        save_collection(
            &c,
            &base.join(format!("snapshot-shard-v{SHARD_VERSION}.idx")),
        )
        .unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::collection::CollectionConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary collections (random docs, deletes, any model) search
        /// identically after a save/load round trip.
        #[test]
        fn arbitrary_collections_round_trip(
            docs in prop::collection::vec(
                prop::collection::vec("[a-z]{2,8}", 1..15),
                1..12,
            ),
            deletes in prop::collection::vec(any::<bool>(), 1..12),
            model_tag in 0u8..4,
            case in 0u32..1_000_000,
        ) {
            // `mut` for add/delete now and search later.
            let mut coll = IrsCollection::new(CollectionConfig {
                model: ModelKind::from_tag(model_tag).expect("tag in range"),
                ..CollectionConfig::default()
            });
            for (i, words) in docs.iter().enumerate() {
                coll.add_document(&format!("d{i}"), &words.join(" ")).unwrap();
            }
            for (i, &del) in deletes.iter().enumerate() {
                if del && i < docs.len() {
                    coll.delete_document(&format!("d{i}")).unwrap();
                }
            }
            let dir = std::env::temp_dir().join("irs-persist-prop");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("case_{case}.idx"));
            save_collection(&coll, &path).unwrap();
            let loaded = load_collection(&path).unwrap();
            let _ = std::fs::remove_dir_all(&path);

            // Every term of every (original) document searches the same.
            for words in &docs {
                for w in words {
                    let a = coll.search(w).unwrap();
                    let b = loaded.search(w).unwrap();
                    prop_assert_eq!(&a, &b, "term {}", w);
                }
            }
            prop_assert_eq!(coll.len(), loaded.len());
        }
    }
}
