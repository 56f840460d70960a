//! Whole-system persistence: saving and reopening a [`DocumentSystem`].
//!
//! The paper's systems persist independently — VODAK's database and
//! INQUERY's index files ("inverted lists, which are stored in a file
//! system", Section 1.1), plus the persistent result buffer (Section
//! 4.2). This module ties the three layers together under one
//! directory:
//!
//! ```text
//! <dir>/db/                 OODBMS snapshot + WAL (crash-safe)
//! <dir>/collections/<name>.idx      IRS index per collection
//! <dir>/collections/<name>.buf      result buffer per collection
//! <dir>/collections/<name>.meta     text mode / derivation / spec query
//!                                   / segments / result limit
//! <dir>/collections/<name>.journal  pending deferred propagation ops
//! ```
//!
//! Every file is written atomically (temp file + fsync + rename) with a
//! CRC-32 trailer, so a crash mid-save leaves the previous consistent
//! version and a bit flip is detected at open. The journal (written by a
//! [`crate::Propagator`] created with
//! [`crate::Propagator::with_journal`] on [`journal_path`]) is replayed
//! by [`open_system`]: pending deferred updates survive a crash and are
//! applied to the reopened collection.
//!
//! Custom `getText` closures and custom derivation closures cannot be
//! serialised; saving a system that uses [`TextMode::Custom`] fails with
//! [`CouplingError::NotPersistable`] — the application re-registers such
//! collections after [`open_system`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::collection::Collection;
use crate::derive::DerivationScheme;
use crate::error::{CouplingError, Result};
use crate::propagate::{PropagationStrategy, Propagator};
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

const META_VERSION: &str = "coupling-meta-v1";

fn mode_to_meta(mode: &TextMode) -> Result<String> {
    Ok(match mode {
        TextMode::FullSubtree => "full_subtree".to_string(),
        TextMode::DirectText => "direct_text".to_string(),
        TextMode::TitlesOnly => "titles_only".to_string(),
        TextMode::AbstractOnly => "abstract_only".to_string(),
        TextMode::LinkAugmented { link_attr } => format!("link_augmented {link_attr}"),
        TextMode::Custom(_) => {
            return Err(CouplingError::NotPersistable(
                "TextMode::Custom closures".to_string(),
            ))
        }
    })
}

fn mode_from_meta(line: &str) -> Result<TextMode> {
    let mut parts = line.splitn(2, ' ');
    Ok(match (parts.next(), parts.next()) {
        (Some("full_subtree"), _) => TextMode::FullSubtree,
        (Some("direct_text"), _) => TextMode::DirectText,
        (Some("titles_only"), _) => TextMode::TitlesOnly,
        (Some("abstract_only"), _) => TextMode::AbstractOnly,
        (Some("link_augmented"), Some(attr)) => TextMode::LinkAugmented {
            link_attr: attr.to_string(),
        },
        _ => {
            return Err(CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                "unknown text mode {line:?}"
            ))))
        }
    })
}

fn derivation_to_meta(scheme: &DerivationScheme) -> String {
    match scheme {
        DerivationScheme::Max => "max".to_string(),
        DerivationScheme::Avg => "avg".to_string(),
        DerivationScheme::Sum => "sum".to_string(),
        DerivationScheme::LengthWeighted => "length_weighted".to_string(),
        DerivationScheme::SubqueryAware => "subquery_aware".to_string(),
        DerivationScheme::WeightedByType(weights) => {
            let mut entries: Vec<String> = weights
                .iter()
                .map(|(class, w)| format!("{class}={w}"))
                .collect();
            entries.sort();
            format!("weighted_by_type {}", entries.join(","))
        }
    }
}

fn derivation_from_meta(line: &str) -> Result<DerivationScheme> {
    let mut parts = line.splitn(2, ' ');
    Ok(match (parts.next(), parts.next()) {
        (Some("max"), _) => DerivationScheme::Max,
        (Some("avg"), _) => DerivationScheme::Avg,
        (Some("sum"), _) => DerivationScheme::Sum,
        (Some("length_weighted"), _) => DerivationScheme::LengthWeighted,
        (Some("subquery_aware"), _) => DerivationScheme::SubqueryAware,
        (Some("weighted_by_type"), rest) => {
            let mut weights = HashMap::new();
            for entry in rest.unwrap_or("").split(',').filter(|e| !e.is_empty()) {
                let (class, w) = entry.split_once('=').ok_or_else(|| {
                    CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                        "bad weight entry {entry:?}"
                    )))
                })?;
                let w: f64 = w.parse().map_err(|_| {
                    CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                        "bad weight value {entry:?}"
                    )))
                })?;
                weights.insert(class.to_string(), w);
            }
            DerivationScheme::WeightedByType(weights)
        }
        _ => {
            return Err(CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                "unknown derivation scheme {line:?}"
            ))))
        }
    })
}

/// Escape a spec query into one metadata line.
fn escape_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Save the entire system under `dir`. The database is checkpointed;
/// each collection's index, buffer and metadata are written.
pub fn save_system(sys: &mut DocumentSystem, dir: &Path) -> Result<()> {
    let coll_dir = dir.join("collections");
    std::fs::create_dir_all(&coll_dir).map_err(|e| CouplingError::Irs(irs::IrsError::Io(e)))?;

    // Database: persist_to handles snapshot + WAL under dir/db.
    sys.persist_db_to(&dir.join("db"))?;

    for name in sys.collection_names() {
        let coll = sys.collection(&name)?;
        let segments = match coll.segment_config() {
            Some((w, st)) => format!("segments {w} {st}"),
            None => "segments none".to_string(),
        };
        let limit = match coll.result_limit() {
            Some(k) => format!("limit {k}"),
            None => "limit none".to_string(),
        };
        let meta = format!(
            "{META_VERSION}\n{}\n{}\n{}\n{segments}\n{limit}\n",
            mode_to_meta(coll.text_mode())?,
            derivation_to_meta(coll.derivation()),
            coll.spec_query().map(escape_line).unwrap_or_default(),
        );
        storage::atomic_write(&coll_dir.join(format!("{name}.meta")), meta.as_bytes())?;
        irs::persist::save_collection(coll.irs(), &coll_dir.join(format!("{name}.idx")))?;
        coll.buffer()
            .save(&coll_dir.join(format!("{name}.buf")), coll.irs().epoch())?;
    }
    Ok(())
}

/// Reopen a system previously written by [`save_system`].
pub fn open_system(dir: &Path) -> Result<DocumentSystem> {
    let db = oodb::Database::open(&dir.join("db"))?;
    let mut sys = DocumentSystem::from_database(db)?;

    let coll_dir = dir.join("collections");
    if !coll_dir.exists() {
        return Ok(sys);
    }
    let mut names: Vec<String> = std::fs::read_dir(&coll_dir)
        .map_err(|e| CouplingError::Irs(irs::IrsError::Io(e)))?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            name.strip_suffix(".meta").map(str::to_string)
        })
        .collect();
    names.sort();

    for name in names {
        let meta_bytes = storage::read_verified(&coll_dir.join(format!("{name}.meta")))?;
        let meta = String::from_utf8(meta_bytes).map_err(|_| {
            CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                "collection {name}: metadata is not UTF-8"
            )))
        })?;
        let mut lines = meta.lines();
        let version = lines.next().unwrap_or_default();
        if version != META_VERSION {
            return Err(CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                "collection {name}: unsupported metadata version {version:?}"
            ))));
        }
        let text_mode = mode_from_meta(lines.next().unwrap_or_default())?;
        let derivation = derivation_from_meta(lines.next().unwrap_or_default())?;
        let spec_line = lines.next().unwrap_or_default();
        let spec_query = if spec_line.is_empty() {
            None
        } else {
            Some(unescape_line(spec_line))
        };
        let segment_config = match lines.next().unwrap_or("segments none") {
            "segments none" | "" => None,
            other => {
                let parts: Vec<&str> = other.split_whitespace().collect();
                match parts.as_slice() {
                    ["segments", w, st] => Some((
                        w.parse().map_err(|_| {
                            CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                                "bad segment window {other:?}"
                            )))
                        })?,
                        st.parse().map_err(|_| {
                            CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                                "bad segment stride {other:?}"
                            )))
                        })?,
                    )),
                    _ => {
                        return Err(CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                            "bad segment line {other:?}"
                        ))))
                    }
                }
            }
        };

        // `None` for metadata written before the limit was saved: its
        // limit is unknown, so neither is the one its buffered answers
        // were computed under.
        let result_limit = match lines.next().unwrap_or_default() {
            "" => None,
            "limit none" => Some(None),
            other => match other.strip_prefix("limit ").map(str::parse) {
                Some(Ok(k)) => Some(Some(k)),
                _ => {
                    return Err(CouplingError::Irs(irs::IrsError::CorruptIndex(format!(
                        "bad result limit line {other:?}"
                    ))))
                }
            },
        };

        let irs_coll = irs::persist::load_collection(&coll_dir.join(format!("{name}.idx")))?;
        let buffer = match result_limit {
            Some(_) => crate::buffer::ResultBuffer::load(
                &coll_dir.join(format!("{name}.buf")),
                256,
                irs_coll.epoch(),
            )?,
            None => crate::buffer::ResultBuffer::new(256),
        };
        let mut coll = Collection::from_saved(
            &name,
            irs_coll,
            text_mode,
            derivation,
            spec_query,
            buffer,
            segment_config,
            result_limit.flatten(),
        );
        // Crash recovery: deferred updates journaled before the crash are
        // re-applied now, so the reopened collection reflects every
        // durably recorded operation. Ordering matters — apply, persist
        // the recovered index and buffer, and only then clear the
        // journal. A crash anywhere in between replays again on the next
        // open; replay is idempotent (modifies re-index, inserts of
        // already-present objects update, deletes of absent ones no-op).
        let jpath = journal_path(dir, &name);
        if jpath.exists() {
            let (mut journal, replayed) = crate::journal::Journal::open(&jpath)?;
            if !replayed.is_empty() {
                let ctx = sys.db().method_ctx();
                let mut prop = Propagator::new(PropagationStrategy::Deferred);
                for &op in &replayed {
                    prop.record(&ctx, &mut coll, op)?;
                }
                prop.flush(&ctx, &mut coll)?;
                irs::persist::save_collection(coll.irs(), &coll_dir.join(format!("{name}.idx")))?;
                coll.buffer()
                    .save(&coll_dir.join(format!("{name}.buf")), coll.irs().epoch())?;
                journal.clear()?;
            }
        }
        sys.adopt_collection(coll)?;
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::{CollectionSetup, ResultOrigin};
    use crate::derive::DerivationScheme;
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
        sys.create_collection("collPara", CollectionSetup::default())
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
    fn metadata_without_a_limit_drops_the_buffered_answers() {
        // Metadata written before the limit line existed: the answers in
        // `.buf` were computed under a limit nobody recorded.
        let dir = tmp("limit_unrecorded");
        save_limited(&dir);
        let meta_path = dir.join("collections").join("collPara.meta");
        let meta = String::from_utf8(storage::read_verified(&meta_path).unwrap()).unwrap();
        let old: String = meta
            .lines()
            .filter(|l| !l.starts_with("limit "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(old, meta);
        storage::atomic_write(&meta_path, old.as_bytes()).unwrap();

        let reopened = open_system(&dir).unwrap();
        let c = reopened.collection("collPara").unwrap();
        assert_eq!(c.result_limit(), None);
        let (map, origin) = c.get_irs_result_with_origin("telnet").unwrap();
        assert_eq!((map.len(), origin), (2, ResultOrigin::Fresh));
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

    #[test]
    fn meta_round_trips() {
        for mode in [
            TextMode::FullSubtree,
            TextMode::DirectText,
            TextMode::TitlesOnly,
            TextMode::AbstractOnly,
            TextMode::LinkAugmented {
                link_attr: "implies".into(),
            },
        ] {
            let meta = mode_to_meta(&mode).unwrap();
            let back = mode_from_meta(&meta).unwrap();
            assert_eq!(format!("{back:?}"), format!("{mode:?}"));
        }
        let mut weights = HashMap::new();
        weights.insert("PARA".to_string(), 2.5);
        weights.insert("SECTION".to_string(), 0.5);
        for scheme in [
            DerivationScheme::Max,
            DerivationScheme::Avg,
            DerivationScheme::Sum,
            DerivationScheme::LengthWeighted,
            DerivationScheme::SubqueryAware,
            DerivationScheme::WeightedByType(weights),
        ] {
            let meta = derivation_to_meta(&scheme);
            let back = derivation_from_meta(&meta).unwrap();
            assert_eq!(back, scheme);
        }
        assert!(mode_from_meta("bogus").is_err());
        assert!(derivation_from_meta("bogus").is_err());
    }

    #[test]
    fn spec_query_escaping() {
        let original = "ACCESS p FROM p IN PARA\nWHERE x\\y";
        assert_eq!(unescape_line(&escape_line(original)), original);
    }
}
