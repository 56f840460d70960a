//! Whole-system persistence: saving and reopening a [`DocumentSystem`].
//!
//! The paper's systems persist independently — VODAK's database and
//! INQUERY's index files ("inverted lists, which are stored in a file
//! system", Section 1.1), plus the persistent result buffer (Section
//! 4.2). This module ties the three layers together under one
//! directory, committed by one manifest:
//!
//! ```text
//! <dir>/manifest                         the commit point: the current
//!                                        generation, and per collection
//!                                        its setup, spec query, segments
//!                                        and index epoch
//! <dir>/db/gen-<g>/                      OODBMS snapshot + WAL
//! <dir>/collections/gen-<g>/<name>.idx/  IRS index per collection
//! <dir>/collections/gen-<g>/<name>.buf   result buffer per collection
//! <dir>/collections/<name>.journal       pending deferred propagation ops
//! <dir>/tasks.ledger                     update-task ledger
//! ```
//!
//! [`save_system`] writes a new generation, then the manifest, and only
//! then removes older generations — [`storage::next_generation`] and
//! [`storage::cleanup_stale_generations`], the rule the irs snapshot
//! directory commits by. A save never overwrites a file the current
//! manifest names, so a crash anywhere in a save leaves the whole
//! previous save, and [`open_system`] reads only what the manifest
//! names. The database appends its commits to the WAL of the generation
//! the manifest names: it moves to a new one only once the manifest is
//! in place, so a save that fails loses no later commit. Every file carries a CRC-32, so a bit flip is detected at
//! open. A `.buf` records the epoch of the index saved beside it and
//! loads no entry beside any other.
//!
//! The journal (written by a [`crate::Propagator`] created with
//! [`crate::Propagator::with_journal`] on [`journal_path`]) is replayed
//! by [`open_system`]: pending deferred updates survive a crash, are
//! applied to the reopened collection, and are committed as a new
//! generation before the journal is cleared.
//!
//! Custom `getText` closures and custom derivation closures cannot be
//! serialised; saving a system that uses [`TextMode::Custom`] fails with
//! [`CouplingError::NotPersistable`] — the application re-registers such
//! collections after [`open_system`].

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use storage::codec::{invalid_data, put_f64, put_str_varint, put_u32, put_u64, Reader};
use storage::write_varint;

use crate::buffer::ResultBuffer;
use crate::collection::{Collection, CollectionSetup, SavedSetup};
use crate::derive::DerivationScheme;
use crate::error::{CouplingError, Result};
use crate::journal::Journal;
use crate::propagate::{PropagationStrategy, Propagator};
use crate::retry::{BreakerConfig, RetryPolicy};
use crate::system::DocumentSystem;
use crate::textmode::TextMode;

/// The journal file of collection `name` under system directory `dir`.
/// Hand this to [`crate::Propagator::with_journal`] so pending deferred
/// operations are found again by [`open_system`] after a crash.
pub fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join("collections").join(format!("{name}.journal"))
}

/// The update-task ledger under system directory `dir` — where
/// [`crate::tasks::Scheduler`] persists every task's lifecycle so
/// mutations survive crashes (same CRC framing as the propagation
/// journals, different record vocabulary; see [`crate::tasks`]).
pub fn tasks_ledger_path(dir: &Path) -> PathBuf {
    dir.join("tasks.ledger")
}

const MANIFEST_NAME: &str = "manifest";
const MANIFEST_MAGIC: &[u8; 4] = b"CPLS";
const MANIFEST_VERSION: u8 = 1;

/// The generation of an entry named `gen-<g>` of `db/` or `collections/`.
fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// The roots the generations live under: the database's and the
/// collections'.
fn roots(dir: &Path) -> [PathBuf; 2] {
    [dir.join("db"), dir.join("collections")]
}

/// One collection's entry in the system manifest.
#[derive(Debug)]
struct SavedCollection {
    name: String,
    /// All but `setup.irs`, which the index's own manifest holds.
    saved: SavedSetup,
    /// The epoch a load of the saved index has.
    epoch: u64,
}

/// A duration as `u64` nanoseconds (saturating: 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    out.push(u8::from(v.is_some()));
    if let Some(v) = v {
        put(out, v);
    }
}

fn get_opt<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnOnce(&mut Reader<'a>) -> io::Result<T>,
) -> io::Result<Option<T>> {
    r.flag("option")?.then(|| get(r)).transpose()
}

/// The manifest bytes. [`save_system`] has refused a custom text mode.
fn encode_manifest(generation: u64, collections: &[SavedCollection]) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.push(MANIFEST_VERSION);
    write_varint(&mut out, generation);
    write_varint(&mut out, collections.len() as u64);
    for c in collections {
        let s = &c.saved.setup;
        put_str_varint(&mut out, &c.name);
        out.push(match &s.text_mode {
            TextMode::FullSubtree => 0,
            TextMode::DirectText => 1,
            TextMode::TitlesOnly => 2,
            TextMode::AbstractOnly => 3,
            TextMode::LinkAugmented { .. } => 4,
            TextMode::Custom(_) => unreachable!("a custom text mode is not saved"),
        });
        if let TextMode::LinkAugmented { link_attr } = &s.text_mode {
            put_str_varint(&mut out, link_attr);
        }
        out.push(match &s.derivation {
            DerivationScheme::Max => 0,
            DerivationScheme::Avg => 1,
            DerivationScheme::Sum => 2,
            DerivationScheme::LengthWeighted => 3,
            DerivationScheme::SubqueryAware => 4,
            DerivationScheme::WeightedByType(_) => 5,
        });
        if let DerivationScheme::WeightedByType(weights) = &s.derivation {
            let mut weights: Vec<_> = weights.iter().collect();
            weights.sort_by(|a, b| a.0.cmp(b.0));
            write_varint(&mut out, weights.len() as u64);
            for (class, w) in weights {
                put_str_varint(&mut out, class);
                put_f64(&mut out, *w);
            }
        }
        write_varint(&mut out, s.buffer_capacity as u64);
        put_u32(&mut out, s.retry.max_retries);
        for d in [
            s.retry.base_backoff,
            s.retry.max_backoff,
            s.retry.call_budget,
        ] {
            put_u64(&mut out, nanos(d));
        }
        put_u64(&mut out, s.retry.jitter_seed);
        put_u32(&mut out, s.breaker.failure_threshold);
        put_u64(&mut out, nanos(s.breaker.cooldown));
        put_opt(&mut out, s.result_limit, |o, k| write_varint(o, k as u64));
        put_opt(&mut out, c.saved.spec_query.as_deref(), put_str_varint);
        put_opt(&mut out, c.saved.segment_config, |o, (window, stride)| {
            write_varint(o, window as u64);
            write_varint(o, stride as u64);
        });
        put_u64(&mut out, c.epoch);
    }
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<(u64, Vec<SavedCollection>)> {
    let mut r = Reader::new(bytes);
    let (magic, version) = (r.take(4, "manifest magic")?, r.u8("manifest version")?);
    if magic != MANIFEST_MAGIC || version != MANIFEST_VERSION {
        return Err(
            invalid_data(format!("not a version {MANIFEST_VERSION} system manifest")).into(),
        );
    }
    let generation = r.varint("generation")?;
    // A collection takes at least its 63 bytes of fixed-width fields.
    let n = r.varint("collection count")?;
    let mut collections = Vec::with_capacity(r.count(n, 63, "collection")?);
    for _ in 0..n {
        let name = r.str_varint("collection name")?.to_string();
        let text_mode = match r.u8("text mode")? {
            0 => TextMode::FullSubtree,
            1 => TextMode::DirectText,
            2 => TextMode::TitlesOnly,
            3 => TextMode::AbstractOnly,
            4 => TextMode::LinkAugmented {
                link_attr: r.str_varint("link attribute")?.to_string(),
            },
            tag => return Err(invalid_data(format!("unknown text mode tag {tag}")).into()),
        };
        let derivation = match r.u8("derivation")? {
            0 => DerivationScheme::Max,
            1 => DerivationScheme::Avg,
            2 => DerivationScheme::Sum,
            3 => DerivationScheme::LengthWeighted,
            4 => DerivationScheme::SubqueryAware,
            5 => {
                // A weight takes at least a class length and an f64.
                let k = r.varint("weight count")?;
                let mut weights = HashMap::with_capacity(r.count(k, 9, "weight")?);
                for _ in 0..k {
                    let class = r.str_varint("weighted class")?.to_string();
                    weights.insert(class, r.f64("weight")?);
                }
                DerivationScheme::WeightedByType(weights)
            }
            tag => return Err(invalid_data(format!("unknown derivation tag {tag}")).into()),
        };
        // Fields are read in the order they are written.
        let setup = CollectionSetup {
            irs: Default::default(),
            text_mode,
            derivation,
            buffer_capacity: r.varint("buffer capacity")? as usize,
            retry: RetryPolicy {
                max_retries: r.u32("max retries")?,
                base_backoff: Duration::from_nanos(r.u64("base backoff")?),
                max_backoff: Duration::from_nanos(r.u64("max backoff")?),
                call_budget: Duration::from_nanos(r.u64("call budget")?),
                jitter_seed: r.u64("jitter seed")?,
            },
            breaker: BreakerConfig {
                failure_threshold: r.u32("failure threshold")?,
                cooldown: Duration::from_nanos(r.u64("cooldown")?),
            },
            result_limit: get_opt(&mut r, |r| Ok(r.varint("result limit")? as usize))?,
        };
        let saved = SavedSetup {
            setup,
            spec_query: get_opt(&mut r, |r| Ok(r.str_varint("spec query")?.to_string()))?,
            segment_config: get_opt(&mut r, |r| {
                Ok((
                    r.varint("segment window")? as usize,
                    r.varint("segment stride")? as usize,
                ))
            })?,
        };
        let epoch = r.u64("index epoch")?;
        collections.push(SavedCollection { name, saved, epoch });
    }
    r.finish()?;
    Ok((generation, collections))
}

/// Save the entire system under `dir` as a new generation — each
/// collection's index and buffer, and the database snapshot and WAL —
/// committed by writing the manifest last. The database moves to its
/// new generation only once the manifest names it, and older
/// generations are removed after that.
pub fn save_system(sys: &mut DocumentSystem, dir: &Path) -> Result<()> {
    let mut saved = Vec::new();
    for name in sys.collection_names() {
        let saved_setup = sys.collection(&name)?.saved_setup();
        if let TextMode::Custom(_) = saved_setup.setup.text_mode {
            return Err(CouplingError::NotPersistable("TextMode::Custom".into()));
        }
        saved.push(SavedCollection {
            name,
            saved: saved_setup,
            epoch: 0,
        });
    }
    let roots = roots(dir);
    for root in &roots {
        std::fs::create_dir_all(root)?;
    }
    let generation = storage::next_generation(&roots[0], generation_of)?;
    let [db, colls] = roots
        .each_ref()
        .map(|root| root.join(format!("gen-{generation}")));
    // Made first, so `db/` holds every generation a crashed save started.
    std::fs::create_dir_all(&db)?;
    for c in &mut saved {
        let coll = sys.collection(&c.name)?;
        c.epoch =
            irs::persist::save_collection(coll.irs(), &colls.join(format!("{}.idx", c.name)))?;
        let path = colls.join(format!("{}.buf", c.name));
        coll.buffer().save(&path, coll.irs().epoch(), c.epoch)?;
    }
    let manifest = encode_manifest(generation, &saved);
    // Until the manifest is in place, and for good if writing it fails,
    // the database's commits go on to the WAL the manifest names.
    sys.db_mut().persist_to_then(&db, || {
        storage::atomic_write(&dir.join(MANIFEST_NAME), &manifest).map(drop)
    })?;
    for root in &roots {
        storage::cleanup_stale_generations(root, generation, generation_of);
    }
    Ok(())
}

/// The manifest's verified bytes. A directory with none but with
/// `collections/*.meta` files was saved in the text format that came
/// before the manifest, which is no longer read.
fn read_manifest(dir: &Path) -> Result<Vec<u8>> {
    let path = dir.join(MANIFEST_NAME);
    if !path.exists() {
        let meta = std::fs::read_dir(dir.join("collections"))
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "meta"));
        return Err(match meta {
            Some(meta) => invalid_data(format!(
                "{}: collection metadata from before the system manifest is no longer \
                 read; open and re-save the system with an earlier build",
                meta.display()
            )),
            None => io::Error::new(
                io::ErrorKind::NotFound,
                format!("no saved system in {}", dir.display()),
            ),
        }
        .into());
    }
    Ok(storage::read_verified(&path)?)
}

/// Reopen a system previously written by [`save_system`] from the files
/// of the generation its manifest names, and replay each collection's
/// journal.
pub fn open_system(dir: &Path) -> Result<DocumentSystem> {
    let (generation, saved) = decode_manifest(&read_manifest(dir)?)?;
    let [db, colls] = roots(dir).map(|root| root.join(format!("gen-{generation}")));
    if !db.is_dir() {
        let msg = format!(
            "{}: the generation the manifest names is missing",
            db.display()
        );
        return Err(invalid_data(msg).into());
    }
    let mut sys = DocumentSystem::from_database(oodb::Database::open(&db)?)?;
    let mut replayed_journals = Vec::new();
    for c in saved {
        let irs = irs::persist::load_collection(&colls.join(format!("{}.idx", c.name)))?;
        if irs.epoch() != c.epoch {
            let msg = format!("collection {}: not the index the manifest names", c.name);
            return Err(invalid_data(msg).into());
        }
        let buffer = ResultBuffer::load(
            &colls.join(format!("{}.buf", c.name)),
            c.saved.setup.buffer_capacity,
            c.epoch,
        )?;
        let mut coll = Collection::from_saved(&c.name, irs, c.saved, buffer);
        let jpath = journal_path(dir, &c.name);
        if jpath.exists() {
            let (journal, replayed) = Journal::open(&jpath)?;
            if !replayed.is_empty() {
                let ctx = sys.db().method_ctx();
                let mut prop = Propagator::new(PropagationStrategy::Deferred);
                for &op in &replayed {
                    prop.record(&ctx, &mut coll, op)?;
                }
                prop.flush(&ctx, &mut coll)?;
                replayed_journals.push(journal);
            }
        }
        sys.adopt_collection(coll)?;
    }
    // Crash recovery: deferred updates journaled before the crash are now
    // applied. Ordering matters — commit the recovered state as a new
    // generation, and only then clear the journals. A crash in between
    // replays again on the next open; replay is idempotent (modifies
    // re-index, inserts of already-present objects update, deletes of
    // absent ones no-op).
    if !replayed_journals.is_empty() {
        save_system(&mut sys, dir)?;
        for mut journal in replayed_journals {
            journal.clear()?;
        }
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::ResultOrigin;
    use std::sync::Arc;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("coupling-system-persist")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build() -> DocumentSystem {
        let mut sys = DocumentSystem::new();
        sys.load_sgml(
            "<MMFDOC YEAR=\"1994\"><DOCTITLE>Telnet</DOCTITLE>\
             <PARA>telnet is a protocol</PARA><PARA>the www grows</PARA></MMFDOC>",
        )
        .unwrap();
        // Two shards keep the file count of a save small.
        sys.create_collection("collPara", CollectionSetup::builder().shards(2).build())
            .unwrap();
        sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
            .unwrap();
        {
            let mut c = sys.collection_mut("collPara").unwrap();
            c.set_derivation(DerivationScheme::SubqueryAware);
            c.get_irs_result("telnet").unwrap();
        }
        sys
    }

    /// A second `telnet` paragraph, indexed, with `telnet` buffered again.
    fn add_telnet_paragraph(sys: &mut DocumentSystem) {
        sys.load_sgml("<MMFDOC><DOCTITLE>Remote</DOCTITLE><PARA>telnet again</PARA></MMFDOC>")
            .unwrap();
        sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
            .unwrap();
        let c = sys.collection("collPara").unwrap();
        assert_eq!(c.get_irs_result("telnet").unwrap().len(), 2);
    }

    /// The files under `dir`, relative to it, sorted.
    fn files(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    out.push(path.strip_prefix(dir).unwrap().to_path_buf());
                }
            }
        }
        out.sort();
        out
    }

    /// Copy `names` (relative paths) from `from` to `to`.
    fn copy_files(from: &Path, to: &Path, names: &[PathBuf]) {
        for name in names {
            std::fs::create_dir_all(to.join(name).parent().unwrap()).unwrap();
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
    }

    /// The one file called `name` anywhere under `dir`.
    fn find_file(dir: &Path, name: &str) -> PathBuf {
        let found = files(dir)
            .into_iter()
            .find(|f| f.file_name().unwrap() == name)
            .unwrap_or_else(|| panic!("no {name} under {}", dir.display()));
        dir.join(found)
    }

    /// A buffer file from an older save beside a newer index — the state
    /// a crash between a save's index and buffer writes used to leave —
    /// is never served as `Buffered`: it answers for content the index no
    /// longer has.
    #[test]
    fn a_buffer_from_an_older_save_is_never_served() {
        let (old, new) = (tmp("older_buf_old"), tmp("older_buf_new"));
        let mut sys = build();
        save_system(&mut sys, &old).unwrap();
        add_telnet_paragraph(&mut sys);
        save_system(&mut sys, &new).unwrap();
        std::fs::copy(
            find_file(&old, "collPara.buf"),
            find_file(&new, "collPara.buf"),
        )
        .unwrap();

        let reopened = open_system(&new).unwrap();
        let c = reopened.collection("collPara").unwrap();
        assert_eq!(c.evaluate_uncached("telnet").unwrap().len(), 2);
        let (map, origin) = c.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!((map.len(), origin), (2, ResultOrigin::Fresh));
    }

    /// What a copy of the saved system at `dir` answers: its PARA
    /// objects, `telnet`'s served hits and origin, and `telnet`'s hits
    /// recomputed by the IRS.
    fn answers(dir: &Path) -> (usize, usize, ResultOrigin, usize) {
        let copy = tmp("prefix_probe");
        copy_files(dir, &copy, &files(dir));
        let sys = open_system(&copy).unwrap();
        let paras = sys.query("ACCESS p FROM p IN PARA").unwrap().len();
        let c = sys.collection("collPara").unwrap();
        let (map, origin) = c.get_irs_result_with_origin("telnet").unwrap();
        (
            paras,
            map.len(),
            origin,
            c.evaluate_uncached("telnet").unwrap().len(),
        )
    }

    /// Every prefix of a save's file writes — the new generation's files,
    /// the manifest last, then the removal of the old generation — reopens
    /// as the whole old save or the whole new one.
    #[test]
    fn every_prefix_of_a_save_reopens_as_the_old_or_the_new_save() {
        let (dir, old) = (tmp("prefix_dir"), tmp("prefix_old"));
        let mut sys = build();
        save_system(&mut sys, &dir).unwrap();
        let old_files = files(&dir);
        copy_files(&dir, &old, &old_files);
        add_telnet_paragraph(&mut sys);
        save_system(&mut sys, &dir).unwrap();
        drop(sys);
        let old_answers = (2, 1, ResultOrigin::Buffered, 1);
        let new_answers = (3, 2, ResultOrigin::Buffered, 2);
        assert_eq!(answers(&old), old_answers);
        assert_eq!(answers(&dir), new_answers);

        let manifest = PathBuf::from(MANIFEST_NAME);
        let mut writes: Vec<PathBuf> = files(&dir)
            .into_iter()
            .filter(|f| !old_files.contains(f))
            .collect();
        assert_eq!(
            writes.len(),
            6,
            "db snapshot and WAL, two shards, index manifest, buffer"
        );
        // In save order: the index's shards and then its manifest, the
        // buffer, the database, and the system manifest last.
        writes.sort_by_key(|f| {
            (
                f.starts_with("db"),
                f.extension().is_some_and(|x| x == "buf"),
                f.ends_with("manifest"),
            )
        });
        writes.push(manifest.clone());
        let crash = tmp("prefix_crash");
        for k in 0..=writes.len() {
            let _ = std::fs::remove_dir_all(&crash);
            copy_files(&old, &crash, &old_files);
            copy_files(&dir, &crash, &writes[..k]);
            let want = if k == writes.len() {
                new_answers
            } else {
                old_answers
            };
            assert_eq!(
                answers(&crash),
                want,
                "after {k} of {} writes",
                writes.len()
            );
        }
        let stale: Vec<&PathBuf> = old_files.iter().filter(|f| **f != manifest).collect();
        for removed in stale {
            std::fs::remove_file(crash.join(removed)).unwrap();
            assert_eq!(
                answers(&crash),
                new_answers,
                "without {}",
                removed.display()
            );
        }
    }

    /// A save that fails — before the database is written, or at the
    /// manifest after it — leaves the database appending to the WAL the
    /// manifest names: a commit made after the failure survives a reopen,
    /// and the next save goes through.
    #[test]
    fn a_commit_after_a_failed_save_survives_a_reopen() {
        for blocker in ["collections/gen-2/collPara.idx", "manifest.tmp"] {
            let dir = tmp("failed_save");
            let mut sys = build();
            save_system(&mut sys, &dir).unwrap();
            // A file where the save makes a directory, or the reverse.
            let blocker = dir.join(blocker);
            if blocker.ends_with("manifest.tmp") {
                std::fs::create_dir_all(&blocker).unwrap();
            } else {
                std::fs::create_dir_all(blocker.parent().unwrap()).unwrap();
                std::fs::write(&blocker, b"x").unwrap();
            }
            assert!(save_system(&mut sys, &dir).is_err());
            sys.load_sgml("<MMFDOC><PARA>zeppelin</PARA></MMFDOC>")
                .unwrap();
            let paras = |sys: &DocumentSystem| sys.query("ACCESS p FROM p IN PARA").unwrap().len();
            assert_eq!(
                paras(&open_system(&dir).unwrap()),
                3,
                "{}",
                blocker.display()
            );

            let _ = std::fs::remove_dir(&blocker).or_else(|_| std::fs::remove_file(&blocker));
            save_system(&mut sys, &dir).unwrap();
            assert_eq!(paras(&open_system(&dir).unwrap()), 3);
        }
    }

    #[test]
    fn save_open_round_trip_preserves_everything() {
        let dir = tmp("round_trip");
        let mut sys = build();
        let before = sys
            .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.45")
            .unwrap();
        save_system(&mut sys, &dir).unwrap();
        drop(sys);

        let reopened = open_system(&dir).unwrap();
        // Same mixed query, same result — constants, methods, index and
        // derivation all came back.
        let after = reopened
            .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.45")
            .unwrap();
        assert_eq!(before, after);
        // Derivation over documents also works (scheme restored).
        let docs = reopened
            .query("ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue(collPara, 'telnet') > 0.4")
            .unwrap();
        assert_eq!(docs.len(), 1);
        let coll = reopened.collection("collPara").unwrap();
        assert_eq!(coll.derivation().clone(), DerivationScheme::SubqueryAware);
        assert_eq!(coll.spec_query(), Some("ACCESS p FROM p IN PARA"));
    }

    #[test]
    fn buffers_are_persisted_and_rehydrated() {
        let dir = tmp("buffers");
        let mut sys = build();
        save_system(&mut sys, &dir).unwrap();
        let reopened = open_system(&dir).unwrap();
        // The telnet result was buffered before saving; the reopened
        // collection answers it without touching the IRS.
        let calls = {
            let c = reopened.collection("collPara").unwrap();
            c.get_irs_result("telnet").unwrap();
            c.stats().irs_calls
        };
        assert_eq!(calls, 0, "buffered result survived the restart");
    }

    /// A collection limited to one hit, with `telnet` (two matching
    /// paragraphs) buffered under that limit, saved to `dir`.
    fn save_limited(dir: &Path) {
        let mut sys = build();
        sys.load_sgml("<MMFDOC><DOCTITLE>Remote</DOCTITLE><PARA>telnet again</PARA></MMFDOC>")
            .unwrap();
        sys.index_collection("collPara", "ACCESS p FROM p IN PARA")
            .unwrap();
        {
            let mut c = sys.collection_mut("collPara").unwrap();
            c.set_result_limit(Some(1));
            assert_eq!(c.get_irs_result("telnet").unwrap().len(), 1);
        }
        save_system(&mut sys, dir).unwrap();
    }

    #[test]
    fn reopened_collections_keep_their_result_limit() {
        let dir = tmp("limit");
        save_limited(&dir);
        let reopened = open_system(&dir).unwrap();
        let c = reopened.collection("collPara").unwrap();
        assert_eq!(c.result_limit(), Some(1));
        let (map, origin) = c.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!((map.len(), origin), (1, ResultOrigin::Buffered));
    }

    #[test]
    fn updates_after_reopen_work() {
        let dir = tmp("updates");
        let mut sys = build();
        save_system(&mut sys, &dir).unwrap();
        let mut reopened = open_system(&dir).unwrap();
        // Re-index after new content arrives.
        reopened
            .load_sgml("<MMFDOC><DOCTITLE>Gopher</DOCTITLE><PARA>gopher menus</PARA></MMFDOC>")
            .unwrap();
        reopened
            .index_collection("collPara", "ACCESS p FROM p IN PARA")
            .unwrap();
        let rows = reopened
            .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'gopher') > 0.4")
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn journaled_deferred_updates_replay_on_open() {
        let dir = tmp("journal_replay");
        let mut sys = build();
        save_system(&mut sys, &dir).unwrap();
        // Durably record a deferred text modification, then "crash": the
        // propagator is dropped with the operation still pending.
        let para = sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
            .oid()
            .unwrap();
        let mut prop = Propagator::with_journal(
            PropagationStrategy::Deferred,
            &journal_path(&dir, "collPara"),
        )
        .unwrap();
        sys.update_text(para, "zeppelin flights", &mut [("collPara", &mut prop)])
            .unwrap();
        assert_eq!(prop.pending().len(), 1, "deferred, not yet applied");
        drop(prop);
        drop(sys);

        // Reopen: the journal replays and the pending op is applied.
        let reopened = open_system(&dir).unwrap();
        let hits = reopened
            .collection("collPara")
            .unwrap()
            .get_irs_result("zeppelin")
            .unwrap()
            .len();
        assert_eq!(hits, 1, "journaled update visible after recovery");
        for root in roots(&dir) {
            let gens = (root.join("gen-1").exists(), root.join("gen-2").exists());
            assert_eq!(gens, (false, true), "the replay committed a new generation");
        }
        // The journal was cleared by the successful flush: a second open
        // has nothing to replay.
        let again = open_system(&dir).unwrap();
        let hits = again
            .collection("collPara")
            .unwrap()
            .get_irs_result("zeppelin")
            .unwrap()
            .len();
        assert_eq!(hits, 1);
    }

    #[test]
    fn custom_text_mode_refuses_to_persist() {
        let dir = tmp("custom");
        let mut sys = DocumentSystem::new();
        sys.load_sgml("<MMFDOC><PARA>x</PARA></MMFDOC>").unwrap();
        sys.create_collection(
            "weird",
            CollectionSetup::with_text_mode(TextMode::Custom(Arc::new(|_, _| "x".into()))),
        )
        .unwrap();
        assert!(matches!(
            save_system(&mut sys, &dir),
            Err(CouplingError::NotPersistable(_))
        ));
    }

    /// A directory saved before the manifest — `collections/*.meta`
    /// files and no manifest — is refused by the name of the file.
    #[test]
    fn a_directory_with_meta_files_and_no_manifest_is_refused_by_name() {
        let dir = tmp("meta_only");
        std::fs::create_dir_all(dir.join("collections")).unwrap();
        std::fs::write(dir.join("collections").join("collPara.meta"), b"x").unwrap();
        let err = open_system(&dir).unwrap_err();
        assert!(err.to_string().contains("collPara.meta"), "{err}");
        std::fs::remove_dir_all(dir.join("collections")).unwrap();
        let err = open_system(&dir).unwrap_err();
        assert!(err.to_string().contains("no saved system"), "{err}");
    }

    /// A manifest whose database generation is gone is refused, not
    /// opened as an empty database beside a full index.
    #[test]
    fn a_missing_generation_is_refused() {
        let dir = tmp("missing_generation");
        save_system(&mut build(), &dir).unwrap();
        std::fs::remove_dir_all(dir.join("db").join("gen-1")).unwrap();
        let err = open_system(&dir).unwrap_err();
        assert!(err.to_string().contains("names is missing"), "{err}");
    }

    /// The persisted fields of a setup: all but `irs`.
    fn persisted(
        s: &CollectionSetup,
    ) -> (
        String,
        DerivationScheme,
        usize,
        RetryPolicy,
        BreakerConfig,
        Option<usize>,
    ) {
        (
            format!("{:?}", s.text_mode),
            s.derivation.clone(),
            s.buffer_capacity,
            s.retry.clone(),
            s.breaker.clone(),
            s.result_limit,
        )
    }

    /// A system manifest is exactly these bytes, and they decode back to
    /// the same entries.
    #[test]
    fn manifest_bytes_are_pinned() {
        let mut weights = HashMap::new();
        weights.insert("SECTION".to_string(), 0.5);
        weights.insert("PARA".to_string(), 2.5);
        let saved = [
            SavedCollection {
                name: "collPara".into(),
                saved: SavedSetup {
                    setup: CollectionSetup::builder()
                        .text_mode(TextMode::LinkAugmented {
                            link_attr: "implies".into(),
                        })
                        .derivation(DerivationScheme::WeightedByType(weights))
                        .buffer_capacity(64)
                        .result_limit(10)
                        .retry(RetryPolicy::no_retries())
                        .build(),
                    spec_query: Some("ACCESS p FROM p IN PARA".into()),
                    segment_config: Some((30, 15)),
                },
                epoch: 0x0123_4567_89ab_cdef,
            },
            SavedCollection {
                name: "d".into(),
                saved: SavedSetup {
                    setup: CollectionSetup::default(),
                    spec_query: None,
                    segment_config: None,
                },
                epoch: 1,
            },
        ];
        let bytes = encode_manifest(7, &saved);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "43504c5301070208636f6c6c506172610407696d706c69657305020450415241000000000000\
             04400753454354494f4e000000000000e03f4000000000400d030000000000404b4c00000000\
             0080b2e60e00000000ed5e0000000000000500000080f0fa0200000000010a01174143434553\
             5320702046524f4d207020494e2050415241011e0fefcdab8967452301016400000002000000\
             400d030000000000404b4c000000000080b2e60e00000000ed5e0000000000000500000080f0\
             fa02000000000000000100000000000000"
        );
        let (generation, back) = decode_manifest(&bytes).unwrap();
        assert_eq!(generation, 7);
        assert_eq!(back.len(), saved.len());
        for (a, b) in back.iter().zip(&saved) {
            let (sa, sb) = (&a.saved, &b.saved);
            assert_eq!(
                (&a.name, &sa.spec_query, sa.segment_config, a.epoch),
                (&b.name, &sb.spec_query, sb.segment_config, b.epoch)
            );
            assert_eq!(persisted(&sa.setup), persisted(&sb.setup));
        }
        assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn duration() -> BoxedStrategy<Duration> {
        any::<u64>().prop_map(Duration::from_nanos)
    }

    fn setup() -> BoxedStrategy<CollectionSetup> {
        let text_mode = prop_oneof![
            Just(TextMode::FullSubtree),
            Just(TextMode::DirectText),
            Just(TextMode::TitlesOnly),
            Just(TextMode::AbstractOnly),
            "[a-z]{1,8}".prop_map(|link_attr| TextMode::LinkAugmented { link_attr }),
        ];
        let derivation = prop_oneof![
            Just(DerivationScheme::Max),
            Just(DerivationScheme::Avg),
            Just(DerivationScheme::Sum),
            Just(DerivationScheme::LengthWeighted),
            Just(DerivationScheme::SubqueryAware),
            prop::collection::btree_map("[A-Z]{1,6}", -4.0f64..4.0, 0..4)
                .prop_map(|w| DerivationScheme::WeightedByType(w.into_iter().collect())),
        ];
        let retry = (
            any::<u32>(),
            duration(),
            duration(),
            duration(),
            any::<u64>(),
        )
            .prop_map(
                |(max_retries, base_backoff, max_backoff, call_budget, jitter_seed)| RetryPolicy {
                    max_retries,
                    base_backoff,
                    max_backoff,
                    call_budget,
                    jitter_seed,
                },
            );
        let breaker =
            (any::<u32>(), duration()).prop_map(|(failure_threshold, cooldown)| BreakerConfig {
                failure_threshold,
                cooldown,
            });
        let result_limit = prop_oneof![Just(None), (1usize..1000).prop_map(Some)];
        (
            text_mode,
            derivation,
            1usize..5000,
            retry,
            breaker,
            result_limit,
        )
            .prop_map(
                |(text_mode, derivation, buffer_capacity, retry, breaker, result_limit)| {
                    CollectionSetup {
                        irs: irs::CollectionConfig {
                            shards: 1,
                            ..Default::default()
                        },
                        text_mode,
                        derivation,
                        buffer_capacity,
                        retry,
                        breaker,
                        result_limit,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every persisted field of a collection's setup comes back from
        /// a save and a reopen.
        #[test]
        fn a_saved_setup_reopens_unchanged(setup in setup()) {
            let dir = std::env::temp_dir().join("coupling-system-persist").join("setup_round_trip");
            let _ = std::fs::remove_dir_all(&dir);
            let mut sys = DocumentSystem::new();
            sys.load_sgml("<MMFDOC><PARA>telnet</PARA></MMFDOC>").unwrap();
            sys.create_collection("c", setup.clone()).unwrap();
            save_system(&mut sys, &dir).unwrap();
            let reopened = open_system(&dir).unwrap();
            let back = reopened.collection("c").unwrap().saved_setup().setup;
            prop_assert_eq!(&back.irs, &setup.irs);
            prop_assert_eq!(format!("{:?}", back.text_mode), format!("{:?}", setup.text_mode));
            prop_assert_eq!(&back.derivation, &setup.derivation);
            prop_assert_eq!(back.buffer_capacity, setup.buffer_capacity);
            prop_assert_eq!(&back.retry, &setup.retry);
            prop_assert_eq!(&back.breaker, &setup.breaker);
            prop_assert_eq!(back.result_limit, setup.result_limit);
        }
    }
}
