//! Crash-recovery integration suite: every persisted file is written
//! atomically with a CRC-32 trailer, torn writes and bit flips are
//! detected at open, journaled deferred updates replay after a crash,
//! and a down IRS degrades to stale-marked answers instead of failing.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use coupling::{
    journal_path, open_system, save_system, DocumentSystem, PendingOp, PropagationStrategy,
    Propagator, ResultOrigin,
};
use irs::fault::{flip_byte, torn_write};
use irs::FaultPlan;
use oodb::{Database, Oid, Value};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coupling-recovery").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A saved two-issue system under `dir`.
fn saved_system(dir: &Path) -> DocumentSystem {
    let mut sys = system_tests::two_issue_system();
    sys.collection("collPara")
        .unwrap()
        .get_irs_result("telnet")
        .unwrap();
    save_system(&mut sys, dir).unwrap();
    sys
}

/// `file` in the current generation under `root` (`db` or
/// `collections`) of the system saved at `dir`: the one `gen-<g>`
/// directory a completed save leaves there.
fn saved(dir: &Path, root: &str, file: &str) -> PathBuf {
    let gens: Vec<PathBuf> = std::fs::read_dir(dir.join(root))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("gen-"))
        .collect();
    assert_eq!(gens.len(), 1, "one generation after a save: {gens:?}");
    gens[0].join(file)
}

/// Flip one byte in the middle of `path`.
fn corrupt(path: &Path) {
    let len = std::fs::metadata(path).unwrap().len();
    flip_byte(path, (len / 2) as usize).unwrap();
}

// ----------------------------------------------------------------------
// Bit-flip detection matrix
// ----------------------------------------------------------------------

#[test]
fn bit_flip_in_index_manifest_is_detected() {
    let dir = tmp_dir("flip_idx");
    saved_system(&dir);
    corrupt(&saved(&dir, "collections", "collPara.idx/manifest"));
    assert!(open_system(&dir).is_err(), "corrupt index must not load");
}

#[test]
fn bit_flip_in_index_shard_file_is_detected() {
    let dir = tmp_dir("flip_shard");
    saved_system(&dir);
    // Flip a byte in every shard file of the per-shard snapshot; the CRC
    // framing must reject the load whichever shard carries the postings.
    let idx_dir = saved(&dir, "collections", "collPara.idx");
    for entry in std::fs::read_dir(&idx_dir).unwrap() {
        let path = entry.unwrap().path();
        if !path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("shard-")
        {
            continue;
        }
        corrupt(&path);
    }
    assert!(open_system(&dir).is_err(), "corrupt shard must not load");
}

#[test]
fn bit_flip_in_buffer_file_is_detected() {
    let dir = tmp_dir("flip_buf");
    saved_system(&dir);
    corrupt(&saved(&dir, "collections", "collPara.buf"));
    assert!(open_system(&dir).is_err(), "corrupt buffer must not load");
}

#[test]
fn bit_flip_in_system_manifest_is_detected() {
    let dir = tmp_dir("flip_manifest");
    saved_system(&dir);
    corrupt(&dir.join("manifest"));
    assert!(open_system(&dir).is_err(), "corrupt manifest must not load");
}

#[test]
fn bit_flip_in_db_snapshot_is_detected() {
    let dir = tmp_dir("flip_snap");
    saved_system(&dir);
    let snap = saved(&dir, "db", "snapshot.odb");
    assert!(snap.exists(), "snapshot written by save_system");
    corrupt(&snap);
    assert!(open_system(&dir).is_err(), "corrupt snapshot must not load");
}

// ----------------------------------------------------------------------
// Torn writes (kill mid-save)
// ----------------------------------------------------------------------

#[test]
fn truncated_index_manifest_is_detected() {
    let dir = tmp_dir("torn_idx");
    saved_system(&dir);
    let path = saved(&dir, "collections", "collPara.idx/manifest");
    let bytes = std::fs::read(&path).unwrap();
    torn_write(&path, &bytes, bytes.len() * 2 / 3).unwrap();
    assert!(open_system(&dir).is_err(), "torn index must not load");
}

#[test]
fn stray_tmp_file_from_killed_save_is_harmless() {
    // Atomic saves go through `<name>.tmp` + rename; a kill between the
    // two leaves a stray .tmp next to an intact previous version.
    let dir = tmp_dir("stray_tmp");
    let sys = saved_system(&dir);
    let before = sys
        .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.45")
        .unwrap();
    std::fs::write(dir.join("manifest.tmp"), b"half-written garbage").unwrap();
    // Likewise a stray shard tmp inside the per-shard snapshot directory.
    std::fs::write(
        saved(&dir, "collections", "collPara.idx/shard-9999-0.tmp"),
        b"also garbage",
    )
    .unwrap();
    let reopened = open_system(&dir).unwrap();
    let after = reopened
        .query("ACCESS p FROM p IN PARA WHERE p -> getIRSValue(collPara, 'telnet') > 0.45")
        .unwrap();
    assert_eq!(before, after, "previous consistent version still serves");
}

// ----------------------------------------------------------------------
// Journal recovery
// ----------------------------------------------------------------------

#[test]
fn journaled_updates_survive_crash_and_replay_once() {
    let dir = tmp_dir("journal_crash");
    let mut sys = saved_system(&dir);
    let para = sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
        .oid()
        .unwrap();

    // Durably record a deferred modification; crash before the flush.
    let mut prop = Propagator::with_journal(
        PropagationStrategy::Deferred,
        &journal_path(&dir, "collPara"),
    )
    .unwrap();
    sys.update_text(
        para,
        "gopher menus replace telnet",
        &mut [("collPara", &mut prop)],
    )
    .unwrap();
    assert_eq!(prop.pending().len(), 1);
    drop(prop);
    drop(sys);

    // First reopen replays the journal and persists the recovered index.
    let reopened = open_system(&dir).unwrap();
    let hits = reopened
        .collection("collPara")
        .unwrap()
        .get_irs_result("gopher")
        .unwrap()
        .len();
    assert_eq!(hits, 1, "pending update applied during recovery");
    assert_eq!(
        std::fs::metadata(journal_path(&dir, "collPara"))
            .unwrap()
            .len(),
        0,
        "journal cleared after recovery was made durable"
    );
    drop(reopened);

    // Second reopen: recovered state came from the re-saved index, not a
    // second replay.
    let again = open_system(&dir).unwrap();
    let hits = again
        .collection("collPara")
        .unwrap()
        .get_irs_result("gopher")
        .unwrap()
        .len();
    assert_eq!(hits, 1, "recovery is durable across further restarts");
}

#[test]
fn torn_journal_tail_replays_consistent_prefix() {
    let dir = tmp_dir("journal_torn");
    let mut sys = saved_system(&dir);
    let paras: Vec<oodb::Oid> = sys
        .query("ACCESS p FROM p IN PARA")
        .unwrap()
        .iter()
        .filter_map(|r| r.oid())
        .collect();
    let jpath = journal_path(&dir, "collPara");
    let mut prop = Propagator::with_journal(PropagationStrategy::Deferred, &jpath).unwrap();
    sys.update_text(paras[0], "zeppelin one", &mut [("collPara", &mut prop)])
        .unwrap();
    sys.update_text(paras[1], "quagga two", &mut [("collPara", &mut prop)])
        .unwrap();
    drop(prop);
    drop(sys);

    // Tear the last frame: only the first operation survives.
    let bytes = std::fs::read(&jpath).unwrap();
    torn_write(&jpath, &bytes, bytes.len() - 5).unwrap();

    let reopened = open_system(&dir).unwrap();
    let (zeppelin, quagga) = {
        let c = reopened.collection("collPara").unwrap();
        (
            c.get_irs_result("zeppelin").unwrap().len(),
            c.get_irs_result("quagga").unwrap().len(),
        )
    };
    assert_eq!(zeppelin, 1, "intact frame replayed");
    assert_eq!(quagga, 0, "torn frame discarded, not half-applied");
}

#[test]
fn journal_compaction_preserves_pending_state() {
    let dir = tmp_dir("journal_compact");
    let mut sys = system_tests::two_issue_system();
    save_system(&mut sys, &dir).unwrap();
    let para = sys.query("ACCESS p FROM p IN PARA").unwrap()[0]
        .oid()
        .unwrap();
    let jpath = journal_path(&dir, "collPara");
    let mut prop = Propagator::with_journal(PropagationStrategy::Deferred, &jpath).unwrap();
    // Churn: many modifies of one object fold to a single pending op, and
    // the journal compacts rather than growing without bound.
    for i in 0..32 {
        sys.update_text(
            para,
            &format!("wombat text {i}"),
            &mut [("collPara", &mut prop)],
        )
        .unwrap();
    }
    assert_eq!(prop.pending(), &[PendingOp::Modify(para)]);
    let frames = prop.journal().unwrap().frames();
    assert!(
        frames <= 8,
        "journal compacted instead of holding 32 frames ({frames})"
    );
    assert!(prop.journal().unwrap().rewrites() >= 1);
    drop(prop);
    drop(sys);

    let reopened = open_system(&dir).unwrap();
    let hits = reopened
        .collection("collPara")
        .unwrap()
        .get_irs_result("wombat")
        .unwrap()
        .len();
    assert_eq!(hits, 1, "compacted journal still recovers the update");
}

// ----------------------------------------------------------------------
// Degraded-mode serving (IRS unavailable)
// ----------------------------------------------------------------------

#[test]
fn irs_outage_serves_stale_buffered_results() {
    let sys = system_tests::two_issue_system();
    let fresh = sys
        .collection("collPara")
        .unwrap()
        .get_irs_result("telnet")
        .unwrap();
    let mut c = sys.collection_mut("collPara").unwrap();
    // An update invalidates the buffer, then the IRS goes down.
    c.buffer().invalidate_all();
    let plan = Arc::new(FaultPlan::new(42));
    plan.set_down(true);
    c.inject_faults(Some(plan));
    let (map, origin) = c.get_irs_result_with_origin("telnet").unwrap();
    assert_eq!(origin, ResultOrigin::Stale, "served from the stale store");
    assert_eq!(map, fresh, "stale answer is the last consistent one");
    assert!(c.fault_stats().stale_serves >= 1);
    // Queries with no stale copy surface the transient failure.
    assert!(c.get_irs_result("www").unwrap_err().is_transient());
}

#[test]
fn recovery_after_outage_resumes_fresh_serving() {
    let sys = system_tests::two_issue_system();
    let mut c = sys.collection_mut("collPara").unwrap();
    c.get_irs_result("telnet").unwrap();
    c.buffer().invalidate_all();
    let plan = Arc::new(FaultPlan::new(7));
    plan.set_down(true);
    c.inject_faults(Some(plan.clone()));
    let (_, origin) = c.get_irs_result_with_origin("telnet").unwrap();
    assert_eq!(origin, ResultOrigin::Stale);
    // The IRS comes back; wait out the breaker cooldown.
    plan.set_down(false);
    std::thread::sleep(std::time::Duration::from_millis(60));
    let (_, origin) = c.get_irs_result_with_origin("telnet").unwrap();
    assert_eq!(origin, ResultOrigin::Fresh, "fresh serving resumes");
    assert!(c.fault_stats().retries + c.fault_stats().giveups >= 1);
}

#[test]
fn transient_error_rate_is_absorbed_by_retries() {
    let sys = system_tests::two_issue_system();
    let mut c = sys.collection_mut("collPara").unwrap();
    // 20% per-op failure; with 2 retries the effective failure rate
    // is below 1%, so a handful of queries all succeed.
    c.inject_faults(Some(Arc::new(FaultPlan::new(1234).with_error_rate(0.2))));
    for q in ["telnet", "www", "nii", "login", "hypertext"] {
        c.get_irs_result(q).unwrap();
    }
    assert!(c.fault_stats().giveups == 0, "retries absorbed all faults");
}

/// The OODB write-ahead log's file in a database directory.
const WAL: &str = "wal.log";

/// A durable database under `dir` holding one PARA object whose `text`
/// is `text`, committed (so the last WAL batch is that commit).
fn db_with_text(dir: &Path, text: &str) -> Oid {
    let mut db = Database::open(dir).unwrap();
    let class = db.define_class("PARA", None).unwrap();
    let mut txn = db.begin();
    let oid = db.create_object(&mut txn, class).unwrap();
    db.set_attr(&mut txn, oid, "text", Value::from(text))
        .unwrap();
    db.commit(txn).unwrap();
    oid
}

/// A crash mid-append leaves a torn WAL tail. Recovery must drop it for
/// good: a commit made after the restart lands behind a consistent
/// prefix, so every later open succeeds and replays that commit.
#[test]
fn torn_wal_tail_then_commit_stays_recoverable() {
    for cut in 1..=11 {
        let dir = tmp_dir(&format!("wal_torn_{cut}"));
        db_with_text(&dir, "telnet");
        let wal = dir.join(WAL);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - cut]).unwrap();
        let oid = {
            let mut db = Database::open(&dir).unwrap();
            let class = db.schema().class_id("PARA").unwrap();
            let mut txn = db.begin();
            let oid = db.create_object(&mut txn, class).unwrap();
            db.set_attr(&mut txn, oid, "text", Value::from("after the crash"))
                .unwrap();
            db.commit(txn).unwrap();
            oid
        };
        let db = Database::open(&dir).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(
            db.get_attr(oid, "text").unwrap(),
            Value::from("after the crash"),
            "cut {cut}"
        );
    }
}

/// Bit rot inside a committed value: the batch is checksummed, so the
/// altered value is never replayed as if it had been committed.
#[test]
fn bit_flip_in_wal_value_is_never_replayed() {
    let dir = tmp_dir("wal_bitflip");
    let oid = db_with_text(&dir, "telnet");
    let wal = dir.join(WAL);
    let mut bytes = std::fs::read(&wal).unwrap();
    let at = bytes
        .windows(6)
        .position(|w| w == b"telnet")
        .expect("value stored verbatim");
    bytes[at] ^= 0x01; // "telnet" -> "uelnet"
    std::fs::write(&wal, &bytes).unwrap();
    if let Ok(db) = Database::open(&dir) {
        let got = db.get_attr(oid, "text");
        assert!(
            !matches!(&got, Ok(Value::Str(s)) if s != "telnet"),
            "altered value replayed: {got:?}"
        );
    }
}
