//! Failure injection and fuzz tests: corrupted files and hostile inputs
//! must produce clean errors, never panics or wrong recoveries.

use proptest::prelude::*;

use irs::persist::{load_collection, save_collection};
use irs::{CollectionConfig, IrsCollection};
use oodb::store::wal::{Record, Wal};
use oodb::{Oid, Value};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("coupling-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Save a small two-shard collection as a snapshot directory at `dir` and
/// return its files: the manifest and the shards. With `tombstone`, one
/// document is deleted, so the store's tombstones and the shards' dead
/// counts are exercised; without, the top-k engine skips its liveness
/// check.
fn sample_snapshot(dir: &std::path::Path, tombstone: bool) -> Vec<std::path::PathBuf> {
    let _ = std::fs::remove_dir_all(dir);
    let mut c = IrsCollection::new(CollectionConfig {
        shards: 2,
        ..CollectionConfig::default()
    });
    c.add_document("a", "telnet is a protocol for remote login")
        .unwrap();
    c.add_document("b", "the www grows and grows").unwrap();
    c.add_document("c", "telnet and the www protocol").unwrap();
    if tombstone {
        c.delete_document("a").unwrap();
    }
    save_collection(&c, dir).unwrap();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Replay the WAL at `path` (truncating a torn tail, as open does).
fn replay(path: &std::path::Path) -> oodb::Result<Vec<Record>> {
    Wal::open(path).map(|(_, records)| records)
}

fn sample_wal_bytes() -> Vec<u8> {
    // One file per call: the proptests below run on parallel threads.
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = tmp(&format!("fuzz_base_{n}.wal"));
    let _ = std::fs::remove_file(&path);
    let (mut w, _) = Wal::open(&path).unwrap();
    w.append_batch(&[
        Record::DefineClass {
            name: "PARA".into(),
            parent: None,
        },
        Record::Create {
            oid: Oid(1),
            class: "PARA".into(),
        },
        Record::SetAttr {
            oid: Oid(1),
            attr: "text".into(),
            value: Value::from("hello world"),
        },
    ])
    .unwrap();
    w.append_batch(&[Record::Delete { oid: Oid(1) }]).unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile bytes behind a valid CRC: 1–3 edits (flip, insert or
    /// delete a byte) to the manifest and shard *payloads*, each file
    /// re-framed by `storage::atomic_write` so the store, shard and
    /// postings decoders see the bytes. Load returns `Ok` or an error and
    /// never panics, and whatever loads answers searches, top-k searches
    /// and globals requests without panicking.
    #[test]
    fn index_file_corruption_never_panics(
        edits in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..4),
        tombstone in any::<bool>(),
        case in 0u32..1000,
    ) {
        let dir = tmp(&format!("payload_{case}.idx"));
        let files = sample_snapshot(&dir, tombstone);
        for (what, pos, val) in &edits {
            let file = &files[usize::from(*what) % files.len()];
            let mut payload = storage::read_verified(file).unwrap();
            let at = usize::from(*pos) % (payload.len() + 1);
            match what / 64 % 3 {
                0 if at < payload.len() => payload[at] ^= (*val).max(1),
                1 => payload.insert(at, *val),
                _ if at < payload.len() => {
                    payload.remove(at);
                }
                _ => payload.push(*val),
            }
            storage::atomic_write(file, &payload).unwrap();
        }
        if let Ok(coll) = load_collection(&dir) {
            for q in ["telnet", "#or(www protocol)", "#and(telnet #not(www))"] {
                let _ = coll.search(q);
                let _ = coll.search_top_k(q, 2);
                let _ = coll.query_globals(q);
            }
            let _ = coll.len();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Byte flips anywhere inside a native per-shard snapshot directory
    /// (manifest or shard files): load either fails cleanly or yields a
    /// collection that behaves.
    #[test]
    fn native_snapshot_corruption_never_panics(
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        case in 0u32..1000,
    ) {
        let dir = tmp(&format!("native_{case}.idx"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = IrsCollection::new(CollectionConfig::default());
        c.add_document("a", "telnet is a protocol for remote login")
            .unwrap();
        c.add_document("b", "the www grows and grows").unwrap();
        save_collection(&c, &dir).unwrap();
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        for (i, (pos, val)) in flips.iter().enumerate() {
            let f = &files[i % files.len()];
            let mut bytes = std::fs::read(f).unwrap();
            let idx = *pos as usize % bytes.len();
            bytes[idx] ^= *val;
            std::fs::write(f, &bytes).unwrap();
        }
        if let Ok(coll) = load_collection(&dir) {
            let _ = coll.search("telnet");
            let _ = coll.len();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary truncation of the WAL: replay never panics and never
    /// invents records — any successful replay is a prefix of the
    /// original record sequence.
    #[test]
    fn wal_truncation_recovers_a_prefix(cut in 0usize..200) {
        let bytes = sample_wal_bytes();
        let cut = cut.min(bytes.len());
        let path = tmp(&format!("cut_{cut}.wal"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        if let Ok(records) = replay(&path) {
            let full = {
                let path_full = tmp("full.wal");
                std::fs::write(&path_full, &bytes).unwrap();
                replay(&path_full).unwrap()
            };
            prop_assert!(records.len() <= full.len());
            prop_assert_eq!(&records[..], &full[..records.len()]);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Random byte flips in the WAL: every batch is checksummed, so
    /// replay never panics and never returns an altered record — it
    /// returns a prefix of the original record sequence, or refuses a
    /// log whose corruption has intact frames behind it.
    #[test]
    fn wal_corruption_never_panics(
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..6),
        case in 0u32..1000,
    ) {
        let original = sample_wal_bytes();
        let mut bytes = original.clone();
        for (pos, val) in &flips {
            let idx = *pos as usize % bytes.len();
            bytes[idx] ^= *val;
        }
        let path = tmp(&format!("walflip_{case}.wal"));
        std::fs::write(&path, &original).unwrap();
        let full = replay(&path).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Ok(records) => {
                prop_assert!(records.len() <= full.len());
                prop_assert_eq!(&records[..], &full[..records.len()]);
            }
            Err(e) => prop_assert!(
                matches!(e, oodb::DbError::Corrupt(_)),
                "refused as corrupt, not {e:?}"
            ),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The IRS query parser never panics on arbitrary input.
    #[test]
    fn irs_query_parser_never_panics(input in "\\PC{0,60}") {
        let _ = irs::parse_query(&input);
    }

    /// Hostile operator soup for the IRS parser.
    #[test]
    fn irs_operator_soup_never_panics(input in "[#()a-z0-9/\" .-]{0,60}") {
        let _ = irs::parse_query(&input);
    }

    /// The VQL parser never panics on arbitrary input.
    #[test]
    fn vql_parser_never_panics(input in "\\PC{0,80}") {
        let db = oodb::Database::in_memory();
        let _ = db.query(&input);
    }

    /// VQL keyword soup.
    #[test]
    fn vql_keyword_soup_never_panics(
        input in "(ACCESS|FROM|IN|WHERE|ORDER|BY|LIMIT|AND|OR|NOT|->|[a-z]|[0-9]|'| |,|\\(|\\)){0,30}"
    ) {
        let db = oodb::Database::in_memory();
        let _ = db.query(&input);
    }

    /// The SGML document parser never panics on arbitrary input.
    #[test]
    fn sgml_parser_never_panics(input in "\\PC{0,80}") {
        let _ = sgml::parse_document(&input);
    }

    /// SGML tag soup.
    #[test]
    fn sgml_tag_soup_never_panics(input in "[<>/=\"A-Za-z0-9 !-]{0,80}") {
        let _ = sgml::parse_document(&input);
    }

    /// The DTD parser never panics on arbitrary input.
    #[test]
    fn dtd_parser_never_panics(input in "[<>!A-Z()|,*+?# a-z-]{0,80}") {
        let _ = sgml::parse_dtd(&input);
    }
}

/// Regression (a fuzz input once shrunk to `"ଏ"`): a single multi-byte
/// Indic character must survive every text entry point
/// — parsers, the analysis chain, and indexing — without panicking on a
/// char boundary.
#[test]
fn regression_single_oriya_char_is_handled() {
    let input = "ଏ"; // U+0B0F, 3 bytes in UTF-8
    let _ = irs::parse_query(input);
    let _ = sgml::parse_document(input);
    let _ = sgml::parse_dtd(input);
    let _ = oodb::Database::in_memory().query(input);

    let analyzer = irs::analysis::Analyzer::new(irs::analysis::AnalyzerConfig::default());
    let _ = analyzer.analyze(input);
    assert_eq!(
        analyzer.analyze_term(input),
        input,
        "non-ASCII term must not be stemmed"
    );

    let mut coll = irs::IrsCollection::new(irs::CollectionConfig::default());
    coll.add_document("seed", input)
        .expect("indexing a single Oriya char succeeds");
    let _ = coll.search(input).expect("query parses");
}

/// Regression (fuzz seed `"a㆐𐊠"`): ASCII + BMP symbol + astral-plane
/// letter in one string — token byte offsets must land on char
/// boundaries, and slicing the source by them must round-trip.
#[test]
fn regression_mixed_width_tokens_round_trip() {
    let input = "a㆐𐊠"; // 1-byte, 3-byte, 4-byte chars
    let tokens = irs::analysis::tokenize(input);
    for t in &tokens {
        assert!(input.is_char_boundary(t.start) && input.is_char_boundary(t.end));
        assert_eq!(&input[t.start..t.end], t.text, "offsets map back to source");
    }
    // U+3190 is a symbol, not alphanumeric: it separates the two tokens.
    let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
    assert_eq!(texts, ["a", "𐊠"]);

    let _ = irs::parse_query(input);
    let _ = sgml::parse_document(input);
    let mut coll = irs::IrsCollection::new(irs::CollectionConfig::default());
    coll.add_document("seed", input)
        .expect("indexing mixed-width text succeeds");
}

/// Byte-level WAL property: a WAL whose tail is cut mid-frame must still
/// yield every *complete* batch (the crash-consistency contract).
#[test]
fn wal_every_batch_boundary_is_a_recovery_point() {
    let bytes = sample_wal_bytes();
    let path = tmp("boundary.wal");
    std::fs::write(&path, &bytes).unwrap();
    let full = replay(&path).unwrap();
    assert_eq!(full.len(), 4);

    // Cutting anywhere strictly inside the file loses at most the last
    // partial batch; the first batch (3 records) survives any cut beyond
    // its frame.
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match replay(&path) {
            Ok(records) => {
                assert!(records.len() == 3 || records.len() == 4 || records.is_empty());
            }
            Err(_) => panic!("truncation at {cut} must not be corrupt — it is a torn write"),
        }
    }
}
