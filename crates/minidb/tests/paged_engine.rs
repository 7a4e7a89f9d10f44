//! The paged cold-row engine end to end: spilling closed-validity rows
//! to `pages.db`, faulting them back through the evicting buffer pool,
//! paged (v3) checkpoints, kill-9 recovery, a WAL prefix-cut sweep over
//! a paged checkpoint, and bounded pool residency for a dataset several
//! times the pool size.
//!
//! Production deployments get their interval-capable types from the TIP
//! blade, which this crate cannot depend on; the tests register their
//! own minimal `Validity` UDT instead — a closed `[lo, hi]` interval
//! whose `interval_key` lets the hot/cold classifier age rows out.

use minidb::{Database, DurabilityConfig, SyncMode, UdtValue, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::{Validity, ValidityBlade};

// ----- harness -------------------------------------------------------

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minidb-paged-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tiny pool so modest datasets overflow it: 8 frames of 512 bytes.
fn cfg_small_pool() -> DurabilityConfig {
    DurabilityConfig {
        sync_mode: SyncMode::Off,
        page_size: 512,
        pool_pages: 8,
        ..DurabilityConfig::default()
    }
}

fn open(dir: &Path, cfg: DurabilityConfig) -> (Arc<Database>, minidb::RecoveryReport) {
    Database::open_with(dir, cfg, |db| db.install_blade(&ValidityBlade)).unwrap()
}

fn validity_value(db: &Arc<Database>, lo: i64, hi: i64) -> Value {
    let id = db.with_catalog(|cat| match cat.lookup_type_name("Validity").unwrap() {
        minidb::DataType::Udt(id) => id,
        other => panic!("Validity resolved to {other:?}"),
    });
    Value::Udt(UdtValue::new(id, Arc::new(Validity(lo, hi))))
}

/// `CREATE TABLE t` with a pad column so each row is ~100 cold bytes —
/// a handful per 512-byte page.
fn create_padded_table(db: &Arc<Database>) {
    db.session()
        .execute("CREATE TABLE t (id INT, pad CHAR(64), v Validity)")
        .unwrap();
}

/// Inserts row `i` valid over `[0, hi]`.
fn insert_row(db: &Arc<Database>, i: i64, hi: i64) {
    db.session()
        .execute_with_params(
            &format!("INSERT INTO t VALUES ({i}, '{}', :v)", "x".repeat(60)),
            &[("v", validity_value(db, 0, hi))],
        )
        .unwrap();
}

fn ids(db: &Arc<Database>, sql: &str) -> Vec<i64> {
    let r = db.session().query(sql).unwrap();
    r.rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected id value {v:?}"),
        })
        .collect()
}

/// A past instant on the validity axis (everything closed at `hi <
/// CLOSED_HI_MAX` spills at a real-clock checkpoint too, since wall time
/// is far larger).
const CLOSED_HI_MAX: i64 = 1_000;
/// `snapshot.db` file framing before the snapshot payload: 8-byte
/// magic, u64 generation, u64 payload length, u32 CRC.
const SNAPSHOT_FILE_HEADER: usize = 28;

/// Reads the snapshot *payload* out of `DIR/snapshot.db`.
fn snapshot_payload(dir: &Path) -> Vec<u8> {
    let bytes = std::fs::read(dir.join("snapshot.db")).unwrap();
    assert!(bytes.len() > SNAPSHOT_FILE_HEADER);
    bytes[SNAPSHOT_FILE_HEADER..].to_vec()
}
/// An end far in the future: rows with this `hi` stay hot forever.
const OPEN_HI: i64 = i64::MAX / 2;

// ----- tests ---------------------------------------------------------

/// Spilling moves exactly the closed-validity rows cold; scans and
/// AS OF reads fault them back with full parity, and updates/deletes of
/// cold rows work (fault, mutate, re-insert hot).
#[test]
fn spill_faults_and_mutates_cold_rows_with_parity() {
    let dir = scratch("spill-parity");
    let (db, _) = open(&dir, cfg_small_pool());
    create_padded_table(&db);
    for i in 0..120 {
        insert_row(&db, i, (i % 40) + 1); // closed: hi in 1..=40
    }
    for i in 120..125 {
        insert_row(&db, i, OPEN_HI); // open: stays hot
    }
    let seq_before = db.commit_seq();

    let spilled = db.spill_cold(CLOSED_HI_MAX).unwrap();
    assert_eq!(spilled, 120, "exactly the closed rows spill");
    let store = db.paged_store().expect("durable db has a page store");
    let (live, _, _) = store.page_counts();
    assert!(live > 8, "120 padded rows overflow the 8-frame pool");

    // Full-scan parity over hot + cold.
    assert_eq!(
        ids(&db, "SELECT id FROM t ORDER BY id"),
        (0..125).collect::<Vec<_>>()
    );
    let stats = db.bufpool_stats();
    assert!(stats.misses > 0, "cold scan faults pages: {stats:?}");
    assert!(stats.evictions > 0, "overflow evicts: {stats:?}");
    assert!(stats.pages <= 8, "pool stays within capacity: {stats:?}");

    // AS OF before the spill still answers (those versions are hot).
    assert_eq!(
        ids(
            &db,
            &format!("SELECT id FROM t ORDER BY id AS OF COMMIT {seq_before}")
        )
        .len(),
        125
    );

    // Mutating a cold row faults it and leaves it hot again.
    let s = db.session();
    s.execute("UPDATE t SET id = 1000 WHERE id = 7").unwrap();
    s.execute("DELETE FROM t WHERE id = 8").unwrap();
    let got = ids(&db, "SELECT id FROM t ORDER BY id");
    assert_eq!(got.len(), 124);
    assert!(got.contains(&1000) && !got.contains(&7) && !got.contains(&8));

    db.close().unwrap();
}

/// A checkpoint with cold rows writes a paged (v3) snapshot; an unclean
/// drop afterwards recovers from snapshot + `pages.db` + WAL tail, and
/// the recovered database accepts further DML.
#[test]
fn kill_after_paged_checkpoint_recovers_cold_rows_and_wal_tail() {
    let dir = scratch("kill-recover");
    {
        let (db, _) = open(&dir, cfg_small_pool());
        create_padded_table(&db);
        for i in 0..40 {
            insert_row(&db, i, 10);
        }
        db.checkpoint().unwrap(); // spills (wall clock >> 10) + v3 snapshot
        assert!(
            minidb::storage::snapshot_is_paged(&snapshot_payload(&dir)),
            "checkpoint of spilled rows writes a paged snapshot"
        );
        for i in 40..48 {
            insert_row(&db, i, 10); // WAL tail past the checkpoint
        }
        // Unclean drop: no close(), the tail lives only in the log.
    }
    let (db, report) = open(&dir, cfg_small_pool());
    assert!(report.snapshot_loaded, "{}", report.summary());
    assert!(report.txns_applied >= 8, "{}", report.summary());
    assert_eq!(
        ids(&db, "SELECT id FROM t ORDER BY id"),
        (0..48).collect::<Vec<_>>()
    );
    // Cold rows faulted from pages.db on the scan above.
    assert!(db.bufpool_stats().misses > 0);
    // The recovered database is fully writable, including cold rows.
    let s = db.session();
    s.execute("UPDATE t SET id = 500 WHERE id = 5").unwrap();
    insert_row(&db, 48, 10);
    assert_eq!(ids(&db, "SELECT id FROM t ORDER BY id").len(), 49);
    db.close().unwrap();
}

/// Kill-point sweep over the post-checkpoint region: with a paged
/// snapshot and `pages.db` in place, every WAL prefix recovers to a
/// committed-prefix state — the paged baseline is never lost and never
/// bleeds uncommitted rows.
#[test]
fn every_post_checkpoint_prefix_recovers_over_paged_baseline() {
    let base = 5i64; // rows captured by the paged checkpoint
    let tail = 5i64; // rows committed after it, present only in the WAL
    let dir = scratch("paged-sweep-build");
    {
        let (db, _) = open(&dir, cfg_small_pool());
        create_padded_table(&db);
        for i in 0..base {
            insert_row(&db, i, 10);
        }
        db.checkpoint().unwrap();
        for i in base..base + tail {
            insert_row(&db, i, 10);
        }
        // Unclean drop.
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let header_len = minidb::wal::record::LOG_HEADER_LEN;
    assert!(log.len() > header_len, "tail transactions hit the log");
    let region_len = log.len() - header_len;

    let sweep = scratch("paged-sweep-cut");
    let mut seen_full = false;
    for cut in 0..=region_len {
        let _ = std::fs::remove_dir_all(&sweep);
        std::fs::create_dir_all(&sweep).unwrap();
        std::fs::copy(dir.join("snapshot.db"), sweep.join("snapshot.db")).unwrap();
        std::fs::copy(dir.join("pages.db"), sweep.join("pages.db")).unwrap();
        std::fs::write(sweep.join("wal.log"), &log[..header_len + cut]).unwrap();
        let (db, report) = open(&sweep, cfg_small_pool());
        let got = ids(&db, "SELECT id FROM t ORDER BY id");
        let k = got.len() as i64;
        assert!(
            k >= base,
            "cut {cut}: the paged checkpoint baseline survives ({})",
            report.summary()
        );
        assert_eq!(
            got,
            (0..k).collect::<Vec<_>>(),
            "cut {cut}: state must be a committed prefix ({})",
            report.summary()
        );
        if k == base + tail {
            seen_full = true;
        }
        db.close().unwrap();
    }
    assert!(seen_full, "the untruncated log recovers every row");
}

/// The acceptance workload: a dataset whose cold pages are at least 4×
/// the pool completes the full query suite — scans, filters,
/// aggregates, AS OF, updates — while the pool never exceeds its frame
/// budget.
#[test]
fn four_times_pool_dataset_completes_suite_with_bounded_pool() {
    let dir = scratch("4x-pool");
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::Off,
        page_size: 512,
        pool_pages: 16,
        ..DurabilityConfig::default()
    };
    let (db, _) = open(&dir, cfg.clone());
    create_padded_table(&db);
    let n = 400i64;
    for i in 0..n {
        insert_row(&db, i, (i % 100) + 1);
    }
    let seq_hot = db.commit_seq();
    let spilled = db.spill_cold(CLOSED_HI_MAX).unwrap();
    assert_eq!(spilled as i64, n);
    let store = db.paged_store().unwrap();
    let (live, _, _) = store.page_counts();
    assert!(
        live >= 4 * 16,
        "dataset must be at least 4x the pool: {live} pages"
    );

    // Full suite over the cold data.
    assert_eq!(
        ids(&db, "SELECT id FROM t ORDER BY id"),
        (0..n).collect::<Vec<_>>()
    );
    assert_eq!(
        ids(&db, "SELECT id FROM t WHERE id >= 390 ORDER BY id"),
        (390..n).collect::<Vec<_>>()
    );
    let r = db.session().query("SELECT COUNT(id) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(n));
    // AS OF the pre-spill commit (hot versions) and the current one
    // (cold, faulting) agree.
    let asof = ids(
        &db,
        &format!("SELECT id FROM t ORDER BY id AS OF COMMIT {seq_hot}"),
    );
    assert_eq!(asof, (0..n).collect::<Vec<_>>());
    let s = db.session();
    s.execute("UPDATE t SET id = 9000 WHERE id = 0").unwrap();
    assert_eq!(ids(&db, "SELECT id FROM t WHERE id = 9000").len(), 1);

    let stats = db.bufpool_stats();
    assert!(
        stats.pages <= 16,
        "resident pages stay within the pool bound: {stats:?}"
    );
    assert!(stats.evictions > 0, "a 4x dataset must evict: {stats:?}");
    db.close().unwrap();
}

/// Checkpoints are incremental: after a small update round, the second
/// checkpoint writes back only the dirty pages (a small fraction of the
/// database) and the paged snapshot stays far smaller than the fully
/// materialized (inline) form of the same state.
#[test]
fn second_checkpoint_is_incremental_in_dirty_pages() {
    let dir = scratch("incremental");
    let (db, _) = open(&dir, cfg_small_pool());
    create_padded_table(&db);
    let n = 300i64;
    for i in 0..n {
        insert_row(&db, i, 10);
    }
    db.checkpoint().unwrap(); // spills everything, flushes every page
    let store = db.paged_store().unwrap();
    let (live, _, _) = store.page_counts();
    assert!(live > 30, "the dataset spans many pages: {live}");
    let wb_full = db.bufpool_stats().writebacks;
    assert!(
        wb_full as usize >= live,
        "first checkpoint wrote the database"
    );

    // Small update round: touch 3 of 300 rows, checkpoint again.
    let s = db.session();
    for i in 0..3 {
        s.execute(&format!("UPDATE t SET pad = 'updated' WHERE id = {i}"))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let wb_delta = db.bufpool_stats().writebacks - wb_full;
    assert!(
        (wb_delta as usize) * 8 < live,
        "incremental checkpoint flushes only dirty pages: \
         {wb_delta} written vs {live} live"
    );

    // The paged snapshot references cold rows instead of inlining them;
    // materializing the same state (as replication must) is far bigger.
    let snap = snapshot_payload(&dir);
    assert!(minidb::storage::snapshot_is_paged(&snap));
    let (_, inline) = db.repl_snapshot().unwrap();
    assert!(
        snap.len() * 4 < inline.len(),
        "paged snapshot ({} bytes) is a fraction of the inline form ({} bytes)",
        snap.len(),
        inline.len()
    );
    db.close().unwrap();
}

/// The pool metrics surface through SHOW STATS alongside the other
/// counter families.
#[test]
fn show_stats_reports_bufpool_counters() {
    let dir = scratch("stats");
    let (db, _) = open(&dir, cfg_small_pool());
    create_padded_table(&db);
    for i in 0..60 {
        insert_row(&db, i, 10);
    }
    db.spill_cold(CLOSED_HI_MAX).unwrap();
    ids(&db, "SELECT id FROM t ORDER BY id"); // fault everything once
    let r = db.session().query("SHOW STATS").unwrap();
    let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
    for key in [
        "bufpool.hits",
        "bufpool.misses",
        "bufpool.evictions",
        "bufpool.writebacks",
        "bufpool.pages",
    ] {
        assert!(names.contains(&key), "SHOW STATS lists {key}: {names:?}");
    }
    let misses = r
        .rows
        .iter()
        .find(|row| row[0].as_str() == Some("bufpool.misses"))
        .unwrap();
    assert!(matches!(misses[1], Value::Int(m) if m > 0), "{misses:?}");
    db.close().unwrap();
}

/// A keyed UPDATE or DELETE over spilled rows faults only the pages its
/// victims live on: the B-tree probe finds them, so pool misses stay a
/// handful however many pages the table spans.
#[test]
fn keyed_dml_faults_only_its_own_pages() {
    let dir = scratch("keyed-dml");
    let (db, _) = open(&dir, cfg_small_pool());
    create_padded_table(&db);
    for i in 0..200 {
        insert_row(&db, i, 10);
    }
    db.session().execute("CREATE INDEX ix_id ON t(id)").unwrap();
    db.checkpoint().unwrap(); // spills every row
    let (live, _, _) = db.paged_store().unwrap().page_counts();
    assert!(live > 30, "the dataset spans many pages: {live}");

    let s = db.session();
    for (sql, k) in [
        ("UPDATE t SET pad = 'touched' WHERE id = :k", 17),
        ("DELETE FROM t WHERE id = :k", 123),
    ] {
        let before = db.bufpool_stats().misses;
        s.execute_with_params(sql, &[("k", Value::Int(k))]).unwrap();
        let faults = db.bufpool_stats().misses - before;
        assert!(faults <= 3, "{sql}: {faults} misses over {live} pages");
    }
    assert_eq!(ids(&db, "SELECT id FROM t WHERE pad = 'touched'"), [17]);
    let r = s.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(199));
    db.close().unwrap();
}

/// Scans that read a few columns of spilled rows decode only those
/// columns, and still answer exactly what a never-spilled resident copy
/// answers, with the pool inside its frames after every query.
#[test]
fn projected_scans_over_cold_rows_match_a_resident_copy() {
    let dir = scratch("projected-parity");
    let (db, _) = open(&dir, cfg_small_pool());
    let resident = Database::new();
    resident.install_blade(&ValidityBlade).unwrap();
    for d in [&db, &resident] {
        create_padded_table(d);
        for i in 0..150 {
            let hi = if i % 10 == 0 { OPEN_HI } else { (i % 40) + 1 };
            insert_row(d, i, hi);
        }
    }
    assert_eq!(db.spill_cold(CLOSED_HI_MAX).unwrap(), 135);
    let (live, _, _) = db.paged_store().unwrap().page_counts();
    assert!(live > 8, "the cold rows overflow the 8-frame pool: {live}");
    for sql in [
        "SELECT COUNT(*), SUM(id) FROM t",
        "SELECT v FROM t WHERE id >= 40 AND id < 90",
        "SELECT * FROM t",
    ] {
        let want = resident.session().query(sql).unwrap().rows;
        let got = db.session().query(sql).unwrap().rows;
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(got, want, "{sql}");
        let stats = db.bufpool_stats();
        assert!(stats.misses > 0, "{sql}: the scan faults cold pages");
        assert!(stats.pages <= 8, "{sql}: pool over its frames: {stats:?}");
    }
    db.close().unwrap();
}

/// A scan over spilled rows visits the buffer pool once per page, not
/// once per row: a full scan makes exactly one pool visit (hit or miss)
/// per cold page, and an index range probe one per page its rows sit on.
#[test]
fn a_cold_scan_visits_the_pool_once_per_page() {
    let dir = scratch("page-visits");
    let (db, _) = open(&dir, cfg_small_pool());
    create_padded_table(&db);
    for i in 0..200 {
        insert_row(&db, i, 10);
    }
    db.session().execute("CREATE INDEX ix_id ON t(id)").unwrap();
    assert_eq!(db.spill_cold(CLOSED_HI_MAX).unwrap(), 200);
    // Row i sits in slot i: the table never deleted a row.
    let page_of: Vec<u32> = db.with_tables(|t| {
        use minidb::TableSource;
        let t = t.table("t").unwrap();
        t.cold_slots().map(|(_, cref)| cref.page).collect()
    });
    let pages = |ids: std::ops::Range<usize>| {
        let mut p = page_of[ids].to_vec();
        p.dedup();
        p.len() as u64
    };
    assert!(pages(0..200) > 8, "the rows overflow the 8-frame pool");
    let s = db.session();
    for (sql, rows, want_visits) in [
        ("SELECT COUNT(*), SUM(id) FROM t", 0..200, pages(0..200)),
        (
            "SELECT pad FROM t WHERE id >= 40 AND id < 75",
            40..75,
            pages(40..75),
        ),
    ] {
        let before = db.bufpool_stats();
        let r = s.query(sql).unwrap();
        let after = db.bufpool_stats();
        let visits = (after.hits + after.misses) - (before.hits + before.misses);
        assert_eq!(visits, want_visits, "{sql}: pool visits vs pages");
        assert!(after.misses > before.misses, "{sql}: the scan faults pages");
        let n = rows.len() as i64;
        if sql.contains("COUNT") {
            assert_eq!(r.rows, [vec![Value::Int(n), Value::Int(n * (n - 1) / 2)]]);
        } else {
            assert_eq!(r.rows.len(), rows.len(), "{sql}");
        }
        assert!(after.pages <= 8, "{sql}: pool over its frames: {after:?}");
    }
    db.close().unwrap();
}
