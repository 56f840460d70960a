//! Cross-crate persistence integration: durable OODBMS (WAL + snapshot),
//! saved IRS collections, and the persistent result buffer together
//! survive a full restart.

use std::path::PathBuf;

use coupling::ResultBuffer;
use irs::persist::{load_collection, save_collection};
use irs::{CollectionConfig, IrsCollection};
use oodb::{Database, Value};
use sgml::{load_document, parse_document};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coupling-integration").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn database_and_irs_index_survive_restart() {
    let dir = tmp_dir("restart");
    let idx_path = dir.join("para.idx");
    let root_oid;
    {
        let mut db = Database::open(&dir).unwrap();
        db.define_class("IRSObject", None).unwrap();
        let tree = parse_document(
            "<MMFDOC><PARA>telnet is a protocol</PARA><PARA>the www grows</PARA></MMFDOC>",
        )
        .unwrap();
        let mut txn = db.begin();
        let loaded = load_document(&mut db, &mut txn, &tree, "IRSObject").unwrap();
        db.commit(txn).unwrap();
        root_oid = loaded.root;

        // Index paragraphs in a stand-alone IRS collection and save it.
        let mut coll = IrsCollection::new(CollectionConfig::default());
        for (_, oid) in &loaded.elements[1..] {
            let text = db.get_attr(*oid, "text").unwrap();
            if let Value::Str(t) = text {
                coll.add_document(&oid.to_string(), &t).unwrap();
            }
        }
        save_collection(&coll, &idx_path).unwrap();
        db.checkpoint().unwrap();
    }
    {
        // Restart: everything comes back from disk.
        let db = Database::open(&dir).unwrap();
        assert!(db.store().contains(root_oid));
        assert_eq!(
            db.extent(db.schema().class_id("PARA").unwrap(), false)
                .len(),
            2
        );

        let coll = load_collection(&idx_path).unwrap();
        let hits = coll.search("telnet").unwrap();
        assert_eq!(hits.len(), 1);
        // The IRS hit maps back to a live database object.
        let oid = oodb::Oid::parse(&hits[0].key).unwrap();
        assert!(db.store().contains(oid));
        assert!(db
            .get_attr(oid, "text")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("telnet"));
    }
}

/// Rebuild, live, the exact collection the pinned snapshot fixtures were
/// generated from (see `generate_pinned_fixtures` in `irs::persist`).
fn pinned_fixture_collection() -> IrsCollection {
    let mut c = IrsCollection::new(CollectionConfig {
        model: irs::ModelKind::Bm25(irs::Bm25Model { k1: 1.6, b: 0.68 }),
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
    c
}

/// Every query the fixture suite exercises: plain terms, operators, and
/// a term that only the deleted document contained.
const FIXTURE_QUERIES: &[&str] = &[
    "zebra",
    "protocol",
    "window",
    "handshake",
    "grazing",
    "savannah",
    "#and(protocol window)",
    "#or(zebra retry)",
    "#wsum(2 protocol 1 zebra)",
];

/// A snapshot written by a historical build (pinned in the repo, never
/// regenerated) must keep loading into today's block-structured index
/// with bit-identical search results. `snapshot-flat-v2.idx` is the flat
/// single-file format; `snapshot-shard-v1.idx` is a per-shard directory
/// written before shard files carried block metadata (shard version 1);
/// `snapshot-shard-v2.idx` pins the current per-shard format with
/// persisted block headers.
#[test]
fn pinned_snapshots_load_into_block_structured_index() {
    let live = pinned_fixture_collection();
    let mut rebuilt = pinned_fixture_collection();
    rebuilt.force_merge();
    for fixture in [
        "snapshot-flat-v2.idx",
        "snapshot-shard-v1.idx",
        "snapshot-shard-v2.idx",
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(fixture);
        let loaded = load_collection(&path).unwrap_or_else(|e| panic!("{fixture}: {e}"));
        assert_eq!(loaded.len(), live.len(), "{fixture}: live doc count");
        assert!(!loaded.contains("doc:gamma"), "{fixture}: tombstone kept");
        assert_eq!(loaded.config(), live.config(), "{fixture}: config");
        for q in FIXTURE_QUERIES {
            let a = live.search(q).unwrap();
            let b = loaded.search(q).unwrap();
            assert_eq!(a, b, "{fixture}: query {q}");
        }
        // The migrated index must carry real block structure: top-k with
        // block-max pruning over the loaded index matches the live one.
        for q in FIXTURE_QUERIES {
            let a = live.search_top_k(q, 3).unwrap();
            let b = loaded.search_top_k(q, 3).unwrap();
            assert_eq!(a, b, "{fixture}: top-k query {q}");
        }
        // Every fixture keeps `doc:gamma` as a tombstone, so the loader
        // counted dead postings: live df must equal that of a rebuild
        // with no tombstones left at all.
        for q in FIXTURE_QUERIES {
            let dfs = |c: &IrsCollection| -> Vec<u32> {
                let g = c.query_globals(q).unwrap();
                g.terms.iter().map(|t| t.df).collect()
            };
            assert_eq!(dfs(&loaded), dfs(&rebuilt), "{fixture}: df of {q}");
        }
    }
}

#[test]
fn result_buffer_persists_between_sessions() {
    let dir = tmp_dir("buffer");
    let buf_path = dir.join("results.buf");
    {
        let sys = system_tests::two_issue_system();
        // Populate and persist the buffer.
        {
            let coll = sys.collection("collPara").unwrap();
            coll.get_irs_result("telnet").unwrap();
            coll.get_irs_result("#and(www nii)").unwrap();
        }
        // Persist through the buffer type directly (the paper buffers
        // "persistently in a dictionary").
        let buffer = ResultBuffer::new(16);
        let telnet = sys
            .collection("collPara")
            .unwrap()
            .get_irs_result("telnet")
            .unwrap();
        buffer.insert("telnet", telnet);
        buffer.save(&buf_path).unwrap();
    }
    {
        let buffer = ResultBuffer::load(&buf_path, 16).unwrap();
        let hit = buffer.get("telnet").expect("persisted entry");
        assert_eq!(hit.len(), 2, "both telnet paragraphs persisted");
        for v in hit.values() {
            assert!((0.0..=1.0).contains(v));
        }
    }
}

#[test]
fn wal_recovery_after_simulated_crash() {
    let dir = tmp_dir("crash");
    let oid;
    {
        let mut db = Database::open(&dir).unwrap();
        db.define_class("PARA", None).unwrap();
        let class = db.schema().class_id("PARA").unwrap();
        let mut txn = db.begin();
        oid = db.create_object(&mut txn, class).unwrap();
        db.set_attr(&mut txn, oid, "text", Value::from("committed before crash"))
            .unwrap();
        db.commit(txn).unwrap();
        // No checkpoint — recovery must replay the WAL.
        // An uncommitted transaction must vanish.
        let mut t2 = db.begin();
        let ghost = db.create_object(&mut t2, class).unwrap();
        db.set_attr(&mut t2, ghost, "text", Value::from("never committed"))
            .unwrap();
        // Dropped without commit: simulates the crash cutting off the txn.
        drop(t2);
    }
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(
            db.get_attr(oid, "text").unwrap(),
            Value::from("committed before crash")
        );
        assert_eq!(db.store().len(), 1, "uncommitted object not recovered");
    }
}
