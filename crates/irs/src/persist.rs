//! Persistence: saving and loading collections, and the 1996-style result
//! file exchange.
//!
//! The paper's IRS stores its inverted lists "in a file system"
//! (Section 1.1), and its prototype exchanged query results through a file
//! that the OODBMS parsed ("Currently the IRS writes the result to a file
//! which is parsed afterwards", Section 4.5). Both are implemented here,
//! plus [`result_file`] for the file-based exchange that the architecture
//! experiment (E1) uses to model the historical interface cost.
//!
//! Two snapshot formats exist:
//!
//! * **Native per-shard** ([`save_collection`]) — `path` is a *directory*
//!   holding one CRC-framed file per term shard (`shard-<gen>-<i>`) plus a
//!   `manifest` with the configuration, document store, and current
//!   generation. Shards are serialised straight from the sharded index
//!   under their own read locks — no merge into a single dictionary — and
//!   written in parallel; the manifest is written *last*, so it is the
//!   commit point: a crash mid-save leaves the previous generation's
//!   manifest pointing at the previous generation's shard files. Loads
//!   read the shard files in parallel and reconstruct the shards verbatim
//!   when the shard count matches.
//! * **Flat single-file** ([`save_collection_flat`]) — the original merged
//!   format, kept byte-compatible so existing snapshots stay readable.
//!   [`load_collection`] dispatches on whether `path` is a directory or a
//!   file, so migration is transparent: load a flat file, save natively.
//!
//! All binary snapshots are **crash-safe**: [`atomic_write`] writes the
//! payload plus a CRC-32 trailer to a temporary file, `sync_all`s it, and
//! atomically renames it into place; [`read_verified`] rejects any file
//! whose trailer does not match. A crash mid-save leaves the previous
//! file intact; torn or bit-flipped files are detected at load. The
//! helpers are public so the coupling layer persists its own files
//! (result buffer, collection metadata, journal frames) with the same
//! guarantees.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::analysis::{Analyzer, AnalyzerConfig};
use crate::collection::{CollectionConfig, IrsCollection};
use crate::error::{IrsError, Result};
use crate::index::{
    read_varint, write_varint, DocId, DocStore, PostingsList, ShardedIndex, TermTable,
};
use crate::model::{Bm25Model, InferenceModel, ModelKind, VectorModel};

const MAGIC: &[u8; 4] = b"IRSX";
const VERSION: u8 = 2;

const MANIFEST_MAGIC: &[u8; 4] = b"IRSM";
const MANIFEST_VERSION: u8 = 1;
const MANIFEST_NAME: &str = "manifest";

const SHARD_MAGIC: &[u8; 4] = b"IRSS";
/// Current shard file version. Version 2 persists each term's block-skip
/// headers (block size, then per block: delta-encoded `last_doc`,
/// `max_tf`, delta-encoded `end`) so loads reconstruct the
/// block-structured [`PostingsList`] without decoding the postings bytes.
/// Version 1 files (no block metadata) are still readable — their lists
/// are rebuilt with a decode pass at load time.
const SHARD_VERSION: u8 = 2;

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Crash-safe file write: `payload` plus a 4-byte little-endian CRC-32
/// trailer goes to `<path>.tmp`, is `sync_all`ed, and is atomically
/// renamed over `path` (the containing directory is then synced,
/// best-effort). A crash at any point leaves either the old file or the
/// complete new one.
pub fn atomic_write(path: &Path, payload: &[u8]) -> Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        IrsError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("atomic_write: path {} has no file name", path.display()),
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(payload)?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Persist the rename itself. Best-effort: opening a directory
            // read-only for fsync is not supported on every platform.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Read a file written by [`atomic_write`], verify its CRC-32 trailer,
/// and return the payload without the trailer.
pub fn read_verified(path: &Path) -> Result<Vec<u8>> {
    let mut buf = std::fs::read(path)?;
    if buf.len() < 4 {
        return Err(IrsError::CorruptIndex(
            "file shorter than its CRC trailer".into(),
        ));
    }
    let crc_pos = buf.len() - 4;
    let mut trailer = [0u8; 4];
    trailer.copy_from_slice(&buf[crc_pos..]);
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&buf[..crc_pos]);
    if actual != expected {
        return Err(IrsError::CorruptIndex(format!(
            "crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
        )));
    }
    buf.truncate(crc_pos);
    Ok(buf)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    read_varint(buf, pos).ok_or_else(|| IrsError::CorruptIndex("truncated varint".into()))
}

fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| IrsError::CorruptIndex("truncated byte string".into()))?;
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    if *pos + 8 > buf.len() {
        return Err(IrsError::CorruptIndex("truncated f64".into()));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[*pos..*pos + 8]);
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

fn get_flag(buf: &[u8], pos: &mut usize) -> Result<bool> {
    if *pos >= buf.len() {
        return Err(IrsError::CorruptIndex("truncated boolean flag".into()));
    }
    let b = buf[*pos];
    *pos += 1;
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(IrsError::CorruptIndex("bad boolean flag".into())),
    }
}

fn put_analyzer(out: &mut Vec<u8>, a: &AnalyzerConfig) {
    out.push(a.lowercase as u8);
    out.push(a.remove_stopwords as u8);
    out.push(a.stem as u8);
    write_varint(out, a.min_token_len as u64);
    write_varint(out, a.max_token_len as u64);
}

fn get_analyzer(buf: &[u8], pos: &mut usize) -> Result<AnalyzerConfig> {
    let lowercase = get_flag(buf, pos)?;
    let remove_stopwords = get_flag(buf, pos)?;
    let stem = get_flag(buf, pos)?;
    let min_token_len = get_varint(buf, pos)? as usize;
    let max_token_len = get_varint(buf, pos)? as usize;
    Ok(AnalyzerConfig {
        lowercase,
        remove_stopwords,
        stem,
        min_token_len,
        max_token_len,
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

fn get_model(buf: &[u8], pos: &mut usize) -> Result<ModelKind> {
    if *pos >= buf.len() {
        return Err(IrsError::CorruptIndex("truncated model tag".into()));
    }
    let tag = buf[*pos];
    *pos += 1;
    Ok(
        match ModelKind::from_tag(tag)
            .ok_or_else(|| IrsError::CorruptIndex(format!("unknown model tag {tag}")))?
        {
            ModelKind::Boolean => ModelKind::Boolean,
            ModelKind::Vector(_) => ModelKind::Vector(VectorModel {
                slope: get_f64(buf, pos)?,
            }),
            ModelKind::Bm25(_) => ModelKind::Bm25(Bm25Model {
                k1: get_f64(buf, pos)?,
                b: get_f64(buf, pos)?,
            }),
            ModelKind::Inference(_) => ModelKind::Inference(InferenceModel {
                default_belief: get_f64(buf, pos)?,
            }),
        },
    )
}

/// Doc store in slot order (tombstones preserved so doc ids survive).
fn put_store(out: &mut Vec<u8>, store: &DocStore) {
    write_varint(out, u64::from(store.slot_count()));
    for slot in 0..store.slot_count() {
        let e = store.entry(DocId(slot));
        put_bytes(out, e.key.as_bytes());
        write_varint(out, u64::from(e.len));
        out.push(e.deleted as u8);
    }
}

/// Rebuild a doc store by replaying inserts (and deletes for tombstones)
/// in slot order, so internal ids are reproduced exactly.
fn get_store(buf: &[u8], pos: &mut usize) -> Result<DocStore> {
    let slots = get_varint(buf, pos)? as usize;
    let mut store = DocStore::new();
    for _ in 0..slots {
        let key = std::str::from_utf8(get_bytes(buf, pos)?)
            .map_err(|_| IrsError::CorruptIndex("non-utf8 key".into()))?
            .to_string();
        let len = get_varint(buf, pos)? as u32;
        let deleted = get_flag(buf, pos)?;
        store
            .insert(&key, len)
            .ok_or_else(|| IrsError::CorruptIndex(format!("duplicate live key {key}")))?;
        if deleted {
            store.delete(&key);
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

/// Ensure `path` is a snapshot directory, replacing an old flat-file
/// snapshot in place if one is found (the migration path).
fn prepare_snapshot_dir(path: &Path) -> Result<()> {
    if let Ok(meta) = std::fs::metadata(path) {
        if meta.is_dir() {
            return Ok(());
        }
        std::fs::remove_file(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(())
}

/// Next free generation number: one past the highest found in existing
/// shard file names (crashed saves may have left higher generations than
/// the manifest records, so the file names are the authority).
fn next_generation(dir: &Path) -> Result<u64> {
    let mut max = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some((gen, _)) = entry.file_name().to_str().and_then(parse_shard_name) {
            max = max.max(gen);
        }
    }
    Ok(max + 1)
}

/// Best-effort removal of shard files from other generations and stray
/// `.tmp` files from killed saves. Failures are ignored: stale files are
/// garbage, not state.
fn cleanup_stale_generations(dir: &Path, current: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match parse_shard_name(name.strip_suffix(".tmp").unwrap_or(name)) {
            Some((gen, _)) => gen != current || name.ends_with(".tmp"),
            None => false,
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Serialise one shard's dictionary and postings (term text, stats, raw
/// delta-encoded bytes — including `max_tf` and the block-skip headers,
/// so loads need no decode).
fn encode_shard(i: usize, generation: u64, terms: &TermTable) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SHARD_MAGIC);
    out.push(SHARD_VERSION);
    write_varint(&mut out, generation);
    write_varint(&mut out, i as u64);
    write_varint(&mut out, terms.len() as u64);
    for (term, pl, _) in terms.entries() {
        put_bytes(&mut out, term.as_bytes());
        let (bytes, doc_count, last_doc, total_tf, max_tf) = pl.raw();
        write_varint(&mut out, u64::from(doc_count));
        write_varint(&mut out, u64::from(last_doc));
        write_varint(&mut out, total_tf);
        write_varint(&mut out, u64::from(max_tf));
        put_bytes(&mut out, bytes);
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

/// Decode one shard file, verifying it belongs to `(generation, i)`.
/// Accepts the current version 2 (block headers persisted, reconstructed
/// via [`PostingsList::from_raw_blocks`] with no postings decode) and the
/// legacy version 1 (no block metadata — lists are rebuilt with a decode
/// pass).
fn decode_shard(buf: &[u8], generation: u64, i: usize) -> Result<Vec<(String, PostingsList)>> {
    let mut pos = 0usize;
    if buf.len() < 5 || &buf[0..4] != SHARD_MAGIC {
        return Err(IrsError::CorruptIndex("bad shard magic".into()));
    }
    pos += 4;
    let version = buf[pos];
    pos += 1;
    if version == 0 || version > SHARD_VERSION {
        return Err(IrsError::CorruptIndex(format!(
            "unsupported shard version {version}"
        )));
    }
    let file_gen = get_varint(buf, &mut pos)?;
    let file_idx = get_varint(buf, &mut pos)? as usize;
    if file_gen != generation || file_idx != i {
        return Err(IrsError::CorruptIndex(format!(
            "shard file is generation {file_gen} index {file_idx}, expected {generation}/{i}"
        )));
    }
    let term_count = get_varint(buf, &mut pos)? as usize;
    let mut terms = Vec::with_capacity(term_count.min(buf.len()));
    for _ in 0..term_count {
        let term = std::str::from_utf8(get_bytes(buf, &mut pos)?)
            .map_err(|_| IrsError::CorruptIndex("non-utf8 term".into()))?
            .to_string();
        let doc_count = get_varint(buf, &mut pos)? as u32;
        let last_doc = get_varint(buf, &mut pos)? as u32;
        let total_tf = get_varint(buf, &mut pos)?;
        let max_tf = get_varint(buf, &mut pos)? as u32;
        let bytes = get_bytes(buf, &mut pos)?.to_vec();
        let pl = if version >= 2 {
            let block_size = get_varint(buf, &mut pos)? as u32;
            if block_size == 0 {
                return Err(IrsError::CorruptIndex("zero block size".into()));
            }
            let n_blocks = (doc_count as usize).div_ceil(block_size as usize);
            let mut blocks = Vec::with_capacity(n_blocks.min(buf.len()));
            let mut prev_last = 0u32;
            let mut prev_end = 0usize;
            for _ in 0..n_blocks {
                let last_doc = prev_last
                    .checked_add(get_varint(buf, &mut pos)? as u32)
                    .ok_or_else(|| IrsError::CorruptIndex("block last_doc overflow".into()))?;
                let max_tf = get_varint(buf, &mut pos)? as u32;
                let end = prev_end
                    .checked_add(get_varint(buf, &mut pos)? as usize)
                    .ok_or_else(|| IrsError::CorruptIndex("block end overflow".into()))?;
                blocks.push(crate::index::BlockSkip {
                    last_doc,
                    max_tf,
                    end,
                });
                prev_last = last_doc;
                prev_end = end;
            }
            PostingsList::from_raw_blocks(
                bytes, doc_count, last_doc, total_tf, max_tf, block_size, blocks,
            )
            .ok_or_else(|| {
                IrsError::CorruptIndex(format!("inconsistent block headers for term {term}"))
            })?
        } else {
            PostingsList::from_raw(bytes, doc_count, last_doc, total_tf, Some(max_tf))
        };
        terms.push((term, pl));
    }
    if pos != buf.len() {
        return Err(IrsError::CorruptIndex("trailing bytes in shard".into()));
    }
    Ok(terms)
}

/// Serialise `coll` natively to the directory `path`: one CRC-framed file
/// per term shard, written in parallel straight from the shard locks (no
/// merge into a single dictionary), then a `manifest` as the commit point.
/// The store read lock is held throughout, so the snapshot is consistent
/// even while other threads are writing to the collection.
///
/// If `path` currently holds a flat-file snapshot it is replaced by a
/// directory — saving is the migration step.
pub fn save_collection(coll: &IrsCollection, path: &Path) -> Result<()> {
    let index = coll.sharded_index();
    prepare_snapshot_dir(path)?;
    let generation = next_generation(path)?;
    let n_shards = index.shard_count();

    index.with_store(|store| -> Result<()> {
        // Shard files first; each worker serialises one shard under that
        // shard's read lock and writes it crash-safely.
        let mut written: Vec<Result<()>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_shards)
                .map(|i| {
                    scope.spawn(move || {
                        let payload =
                            index.with_shard(i, |terms| encode_shard(i, generation, terms));
                        atomic_write(&shard_path(path, generation, i), &payload)
                    })
                })
                .collect();
            written = handles
                .into_iter()
                .map(|h| h.join().expect("shard writer panicked"))
                .collect();
        });
        written.into_iter().collect::<Result<()>>()?;

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
        atomic_write(&path.join(MANIFEST_NAME), &out)
    })?;

    cleanup_stale_generations(path, generation);
    Ok(())
}

/// Serialise `coll` to the single-file flat format (version 2) — the
/// original merged layout, kept byte-compatible for migration and for
/// consumers that want one self-contained file. Merges all shards into
/// one dictionary first; prefer [`save_collection`] on the hot path.
pub fn save_collection_flat(coll: &IrsCollection, path: &Path) -> Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    put_analyzer(&mut out, &coll.config().analyzer);
    put_model(&mut out, &coll.config().model);

    // Shard count as configured (0 = pick from available parallelism at
    // load time, so auto-sharded collections stay auto on new hardware).
    write_varint(&mut out, coll.config().shards as u64);

    // Snapshot merges the sharded index back to one dictionary, so the
    // on-disk format is unchanged and independent of shard count.
    let index = coll.index_snapshot();
    let (terms, store) = index.parts();

    // Dictionary in id order.
    write_varint(&mut out, terms.len() as u64);
    for (text, _, _) in terms.entries() {
        put_bytes(&mut out, text.as_bytes());
    }

    // Postings lists, one per term id. (`max_tf` is not part of the v2
    // format; flat loads recompute it from the postings bytes.)
    write_varint(&mut out, terms.len() as u64);
    for (_, pl, _) in terms.entries() {
        let (bytes, doc_count, last_doc, total_tf, _max_tf) = pl.raw();
        write_varint(&mut out, u64::from(doc_count));
        write_varint(&mut out, u64::from(last_doc));
        write_varint(&mut out, total_tf);
        put_bytes(&mut out, bytes);
    }

    put_store(&mut out, store);

    atomic_write(path, &out)
}

/// Load a collection saved by either [`save_collection`] (a snapshot
/// directory) or [`save_collection_flat`] (a flat file): dispatches on
/// what is found at `path`.
pub fn load_collection(path: &Path) -> Result<IrsCollection> {
    if path.is_dir() {
        load_collection_dir(path)
    } else {
        load_collection_flat(path)
    }
}

/// Load a native per-shard snapshot directory: parse the manifest, read
/// and decode the current generation's shard files in parallel, and
/// reconstruct the sharded index without re-partitioning (unless the
/// effective shard count changed, in which case terms are re-hashed).
fn load_collection_dir(path: &Path) -> Result<IrsCollection> {
    let buf = read_verified(&path.join(MANIFEST_NAME))?;
    let mut pos = 0usize;
    if buf.len() < 5 || &buf[0..4] != MANIFEST_MAGIC {
        return Err(IrsError::CorruptIndex("bad manifest magic".into()));
    }
    pos += 4;
    let version = buf[pos];
    pos += 1;
    if version != MANIFEST_VERSION {
        return Err(IrsError::CorruptIndex(format!(
            "unsupported manifest version {version}"
        )));
    }
    let analyzer_cfg = get_analyzer(&buf, &mut pos)?;
    let model = get_model(&buf, &mut pos)?;
    let shards_cfg = get_varint(&buf, &mut pos)? as usize;
    let shard_count = get_varint(&buf, &mut pos)? as usize;
    let generation = get_varint(&buf, &mut pos)?;
    let store = get_store(&buf, &mut pos)?;
    if pos != buf.len() {
        return Err(IrsError::CorruptIndex("trailing bytes".into()));
    }
    if shard_count == 0 || shard_count > 1 << 16 {
        return Err(IrsError::CorruptIndex(format!(
            "implausible shard count {shard_count}"
        )));
    }

    // Read and decode all shard files in parallel.
    type ShardSlot = Option<Result<Vec<(String, PostingsList)>>>;
    let mut slots: Vec<ShardSlot> = (0..shard_count).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            scope.spawn(move || {
                *slot = Some(
                    read_verified(&shard_path(path, generation, i))
                        .and_then(|bytes| decode_shard(&bytes, generation, i)),
                );
            });
        }
    });
    let mut shard_terms = Vec::with_capacity(shard_count);
    for slot in slots {
        shard_terms.push(slot.expect("shard loader ran")?);
    }

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
    Ok(IrsCollection::from_sharded(config, index))
}

/// Load a flat single-file snapshot written by [`save_collection_flat`]
/// (or any pre-directory-format save).
fn load_collection_flat(path: &Path) -> Result<IrsCollection> {
    let buf = read_verified(path)?;
    let mut pos = 0usize;

    if buf.len() < 5 || &buf[0..4] != MAGIC {
        return Err(IrsError::CorruptIndex("bad magic".into()));
    }
    pos += 4;
    let version = buf[pos];
    pos += 1;
    if version != VERSION {
        return Err(IrsError::CorruptIndex(format!(
            "unsupported version {version}"
        )));
    }

    let analyzer_cfg = get_analyzer(&buf, &mut pos)?;
    let model = get_model(&buf, &mut pos)?;
    let shards = get_varint(&buf, &mut pos)? as usize;

    // Dictionary.
    let term_count = get_varint(&buf, &mut pos)? as usize;
    let mut texts = Vec::new();
    for _ in 0..term_count {
        let bytes = get_bytes(&buf, &mut pos)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| IrsError::CorruptIndex("non-utf8 term".into()))?;
        texts.push(text.to_string());
    }

    // Postings. The flat format predates `max_tf`; `from_raw` recomputes
    // it from the delta-encoded bytes.
    let pl_count = get_varint(&buf, &mut pos)? as usize;
    let mut postings = Vec::with_capacity(pl_count);
    for _ in 0..pl_count {
        let doc_count = get_varint(&buf, &mut pos)? as u32;
        let last_doc = get_varint(&buf, &mut pos)? as u32;
        let total_tf = get_varint(&buf, &mut pos)?;
        let bytes = get_bytes(&buf, &mut pos)?.to_vec();
        postings.push(PostingsList::from_raw(
            bytes, doc_count, last_doc, total_tf, None,
        ));
    }

    let store = get_store(&buf, &mut pos)?;

    if pos != buf.len() {
        return Err(IrsError::CorruptIndex("trailing bytes".into()));
    }

    let config = CollectionConfig {
        analyzer: analyzer_cfg.clone(),
        model,
        shards,
    };
    let terms = TermTable::from_lists(texts.into_iter().zip(postings), &store);
    let index = crate::index::InvertedIndex::from_parts(Analyzer::new(analyzer_cfg), terms, store);
    Ok(IrsCollection::from_parts(config, index))
}

/// The file-based result exchange of the paper's prototype.
pub mod result_file {
    use super::*;

    /// Write `(key, score)` pairs as tab-separated lines.
    pub fn write(path: &Path, results: &[(String, f64)]) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for (key, score) in results {
            writeln!(w, "{key}\t{score:.10}")?;
        }
        w.flush()?;
        Ok(())
    }

    /// Parse a result file back into `(key, score)` pairs — the
    /// "parsed afterwards to extract the OID-relevance value pairs" step
    /// of the paper's Section 4.5.
    pub fn read(path: &Path) -> Result<Vec<(String, f64)>> {
        let mut text = String::new();
        BufReader::new(File::open(path)?).read_to_string(&mut text)?;
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let (key, score) = line.split_once('\t').ok_or_else(|| {
                IrsError::CorruptIndex(format!("result file line {} lacks a tab", lineno + 1))
            })?;
            let score: f64 = score.parse().map_err(|_| {
                IrsError::CorruptIndex(format!("result file line {} bad score", lineno + 1))
            })?;
            out.push((key.to_string(), score));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionConfig;

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

    #[test]
    fn flat_save_load_round_trip() {
        let orig = sample();
        let path = tmp("flat_round_trip.idx");
        save_collection_flat(&orig, &path).unwrap();
        assert!(path.is_file(), "flat snapshot is a single file");
        let loaded = load_collection(&path).unwrap();
        for q in ["telnet", "protocol", "retrieval"] {
            assert_eq!(orig.search(q).unwrap(), loaded.search(q).unwrap(), "{q}");
        }
        assert_eq!(orig.config(), loaded.config());
    }

    #[test]
    fn native_save_migrates_flat_file_in_place() {
        let orig = sample();
        let path = tmp("migrate.idx");
        save_collection_flat(&orig, &path).unwrap();
        assert!(path.is_file());
        save_collection(&orig, &path).unwrap();
        assert!(path.is_dir(), "flat file replaced by snapshot directory");
        let loaded = load_collection(&path).unwrap();
        assert_eq!(
            orig.search("telnet").unwrap(),
            loaded.search("telnet").unwrap()
        );
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
    fn flat_bit_flip_is_detected_by_crc() {
        let path = tmp("bitflip_flat.idx");
        save_collection_flat(&sample(), &path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        crate::fault::flip_byte(&path, len / 2).unwrap();
        assert!(matches!(
            load_collection(&path),
            Err(IrsError::CorruptIndex(_))
        ));
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_tmp() {
        let path = tmp("atomic.bin");
        atomic_write(&path, b"payload bytes").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"payload bytes");
        assert!(!path.with_file_name("atomic.bin.tmp").exists());
        // A torn write of the same payload (missing its tail) is rejected.
        let bytes = std::fs::read(&path).unwrap();
        crate::fault::torn_write(&path, &bytes, bytes.len() - 2).unwrap();
        assert!(read_verified(&path).is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
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

    /// Re-encode one decoded shard in the legacy v1 layout (stats and raw
    /// postings bytes, no block metadata) — the format written before
    /// block-structured postings existed.
    fn encode_shard_v1(i: usize, generation: u64, terms: &[(String, PostingsList)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SHARD_MAGIC);
        out.push(1);
        write_varint(&mut out, generation);
        write_varint(&mut out, i as u64);
        write_varint(&mut out, terms.len() as u64);
        for (term, pl) in terms {
            put_bytes(&mut out, term.as_bytes());
            let (bytes, doc_count, last_doc, total_tf, max_tf) = pl.raw();
            write_varint(&mut out, u64::from(doc_count));
            write_varint(&mut out, u64::from(last_doc));
            write_varint(&mut out, total_tf);
            write_varint(&mut out, u64::from(max_tf));
            put_bytes(&mut out, bytes);
        }
        out
    }

    #[test]
    fn legacy_v1_shard_files_still_load() {
        let orig = sample();
        let path = tmp("legacy_v1.idx");
        save_collection(&orig, &path).unwrap();

        // Downgrade every shard file to the v1 layout in place.
        for name in shard_files(&path) {
            let (generation, i) = parse_shard_name(&name).unwrap();
            let file = path.join(&name);
            let terms = decode_shard(&read_verified(&file).unwrap(), generation, i).unwrap();
            atomic_write(&file, &encode_shard_v1(i, generation, &terms)).unwrap();
        }

        let loaded = load_collection(&path).unwrap();
        for q in [
            "telnet",
            "protocol",
            "retrieval",
            "#and(information retrieval)",
        ] {
            assert_eq!(orig.search(q).unwrap(), loaded.search(q).unwrap(), "{q}");
        }
        // The rebuilt lists carry full block structure despite the v1
        // source: block headers are reconstructed by the decode pass.
        use crate::index::IndexReader;
        let ix = loaded.index_snapshot();
        let pl = ix.term_postings("protocol").expect("term present");
        assert!(!pl.blocks().is_empty());
        assert_eq!(pl.blocks().last().unwrap().end, pl.raw().0.len());
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
                put_bytes(&mut out, term.as_bytes());
                let (bytes, doc_count, last_doc, total_tf, max_tf) = pl.raw();
                write_varint(&mut out, u64::from(doc_count));
                write_varint(&mut out, u64::from(last_doc));
                write_varint(&mut out, total_tf);
                write_varint(&mut out, u64::from(max_tf));
                put_bytes(&mut out, bytes);
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

    /// Regenerates the pinned snapshot fixtures under `tests/fixtures/`
    /// in the *current* formats. The committed `snapshot-flat-v2.idx` and
    /// `snapshot-shard-v1.idx` were produced by historical format
    /// versions and must NEVER be regenerated — they pin backward
    /// compatibility. Run this (with `--ignored`) only to add a fixture
    /// for a newly introduced format version, and name the output
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
        save_collection_flat(&c, &base.join("snapshot-flat-v2.idx")).unwrap();
        save_collection(
            &c,
            &base.join(format!("snapshot-shard-v{SHARD_VERSION}.idx")),
        )
        .unwrap();
    }

    #[test]
    fn result_file_round_trip() {
        let path = tmp("results.txt");
        let results = vec![("oid:42".to_string(), 0.875), ("oid:7".to_string(), 0.25)];
        result_file::write(&path, &results).unwrap();
        let back = result_file::read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "oid:42");
        assert!((back[0].1 - 0.875).abs() < 1e-9);
    }

    #[test]
    fn result_file_rejects_malformed_lines() {
        let path = tmp("bad_results.txt");
        std::fs::write(&path, "no-tab-here\n").unwrap();
        assert!(result_file::read(&path).is_err());
        std::fs::write(&path, "key\tnot-a-number\n").unwrap();
        assert!(result_file::read(&path).is_err());
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
        /// identically after a save/load round trip — through the native
        /// per-shard directory format AND the flat single-file format.
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
            let native = dir.join(format!("case_{case}.idx"));
            let flat = dir.join(format!("case_{case}.flat"));
            save_collection(&coll, &native).unwrap();
            save_collection_flat(&coll, &flat).unwrap();
            let from_native = load_collection(&native).unwrap();
            let from_flat = load_collection(&flat).unwrap();
            let _ = std::fs::remove_dir_all(&native);
            let _ = std::fs::remove_file(&flat);

            // Every term of every (original) document searches the same.
            for words in &docs {
                for w in words {
                    let a = coll.search(w).unwrap();
                    let b = from_native.search(w).unwrap();
                    let c = from_flat.search(w).unwrap();
                    prop_assert_eq!(&a, &b, "native, term {}", w);
                    prop_assert_eq!(&a, &c, "flat, term {}", w);
                }
            }
            prop_assert_eq!(coll.len(), from_native.len());
            prop_assert_eq!(coll.len(), from_flat.len());
        }
    }
}
