//! Durability end to end: close/reopen round trips, WAL replay after an
//! unclean drop, torn-tail tolerance, uncommitted-transaction discard,
//! loud failure on mid-log corruption, and a kill-point sweep proving
//! every log prefix recovers to a committed-prefix state.

use minidb::wal::record::{self, TxnBuilder};
use minidb::{Database, DurabilityConfig, SyncMode, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh scratch directory under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minidb-dur-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg_off() -> DurabilityConfig {
    DurabilityConfig {
        sync_mode: SyncMode::Off,
        ..DurabilityConfig::default()
    }
}

fn ids(db: &Arc<Database>, table: &str) -> Vec<i64> {
    let r = db
        .session()
        .query(&format!("SELECT id FROM {table} ORDER BY id"))
        .unwrap();
    r.rows
        .iter()
        .map(|row| match row[0] {
            Value::Int(i) => i,
            ref other => panic!("unexpected id value {other:?}"),
        })
        .collect()
}

#[test]
fn close_and_reopen_round_trips_tables_indexes_and_views() {
    let dir = scratch("roundtrip");
    {
        let (db, report) = Database::open(&dir, cfg_off()).unwrap();
        assert!(!report.snapshot_loaded, "fresh directory has no snapshot");
        let s = db.session();
        s.execute("CREATE TABLE t (id INT, name CHAR(16))").unwrap();
        s.execute("CREATE INDEX ix_t_id ON t(id)").unwrap();
        s.execute("CREATE VIEW low AS SELECT id FROM t WHERE id < 2")
            .unwrap();
        for i in 0..4 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 'n{i}')"))
                .unwrap();
        }
        s.execute("DELETE FROM t WHERE id = 3").unwrap();
        s.execute("UPDATE t SET name = 'renamed' WHERE id = 0")
            .unwrap();
        db.close().unwrap();
    }
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert!(report.snapshot_loaded, "clean close leaves a checkpoint");
    assert_eq!(
        report.records_replayed,
        0,
        "a clean close needs no replay: {}",
        report.summary()
    );
    assert_eq!(ids(&db, "t"), vec![0, 1, 2]);
    let s = db.session();
    let r = s.query("SELECT name FROM t WHERE id = 0").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Str("renamed".into())]]);
    let r = s.query("SELECT id FROM low ORDER BY id").unwrap();
    assert_eq!(r.rows.len(), 2, "view survives reopen");
    // The index survived too: an indexed probe still answers.
    let r = s.query("EXPLAIN SELECT name FROM t WHERE id = 1").unwrap();
    assert!(r.rows[0][0].as_str().unwrap().contains("ixscan"), "{r:?}");
    db.close().unwrap();
}

#[test]
fn unclean_drop_replays_committed_transactions_from_the_log() {
    let dir = scratch("replay");
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        drop(s);
        // No close(): the only trace of the inserts is the WAL.
    }
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert!(report.records_replayed > 0, "{}", report.summary());
    assert!(report.txns_applied >= 11, "{}", report.summary());
    assert_eq!(ids(&db, "t"), (0..10).collect::<Vec<_>>());
    assert!(db.wal_stats().replayed > 0, "stats report the replay");
    db.close().unwrap();
}

/// Every acknowledged view survives an unclean drop: its DDL replays
/// from the log with nothing skipped.
#[test]
fn acknowledged_views_replay_after_an_unclean_drop() {
    let dir = scratch("views");
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT, x INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 3), (2, 4)").unwrap();
        s.execute("CREATE VIEW v1 AS SELECT id FROM t WHERE x = 3")
            .unwrap();
        s.execute("CREATE VIEW v2 AS SELECT id FROM v1").unwrap();
        // Refused before it is logged: a view takes no parameters.
        assert!(s
            .execute_with_params(
                "CREATE VIEW v3 AS SELECT id FROM t WHERE x = :p",
                &[("p", Value::Int(3))],
            )
            .is_err());
        drop(s);
        // No close(): the views live only in the WAL.
    }
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert_eq!(report.ops_skipped, 0, "{}", report.summary());
    for view in ["v1", "v2"] {
        assert_eq!(ids(&db, view), vec![1], "{view}");
    }
    assert!(db.session().query("SELECT * FROM v3").is_err());
    db.close().unwrap();
}

#[test]
fn checkpoint_truncates_log_and_reopen_skips_replay() {
    let dir = scratch("checkpoint");
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..20 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        drop(s);
        db.checkpoint().unwrap();
        assert!(db.wal_stats().checkpoints >= 1);
        // Unclean drop after the checkpoint: everything must come from
        // the snapshot.
    }
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(
        report.txns_applied,
        0,
        "post-checkpoint log holds no transactions: {}",
        report.summary()
    );
    assert_eq!(ids(&db, "t"), (0..20).collect::<Vec<_>>());
    db.close().unwrap();
}

/// Builds a directory with `n` committed single-insert transactions
/// (plus the CREATE TABLE) in the log, then returns the raw log bytes.
fn build_log_dir(name: &str, n: i64) -> (PathBuf, Vec<u8>) {
    let dir = scratch(name);
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..n {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(log.len() > record::LOG_HEADER_LEN);
    (dir, log)
}

fn write_log(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join("wal.log"), bytes).unwrap();
}

#[test]
fn torn_tail_is_tolerated_and_reported() {
    let (dir, mut log) = build_log_dir("torn", 5);
    // A crash mid-append leaves a partial frame: a length prefix with
    // only half its record behind it.
    log.extend_from_slice(&1000u32.to_le_bytes());
    log.extend_from_slice(&[0xAB; 7]);
    write_log(&dir, &log);
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert!(report.torn_tail, "{}", report.summary());
    assert!(report.bytes_discarded > 0);
    assert_eq!(ids(&db, "t"), (0..5).collect::<Vec<_>>());
    db.close().unwrap();
}

#[test]
fn uncommitted_transaction_is_discarded() {
    let (dir, mut log) = build_log_dir("uncommitted", 3);
    // Append a valid BEGIN + INSERT chunk with no COMMIT — a crash
    // between append and commit marker. Any catalog with built-in types
    // encodes the same bytes.
    let mem = Database::new();
    let chunk = mem.with_catalog(|cat| {
        let mut b = TxnBuilder::new(cat, 999);
        b.insert("t", 77, &vec![Value::Int(77)]).unwrap();
        let (bytes, _) = b.finish();
        // Strip the trailing COMMIT frame: scan its frames and drop the
        // last one.
        let scan = record::scan_records(&bytes);
        let last = scan.payloads.last().unwrap();
        bytes[..bytes.len() - last.len() - 8].to_vec()
    });
    log.extend_from_slice(&chunk);
    write_log(&dir, &log);
    let (db, report) = Database::open(&dir, cfg_off()).unwrap();
    assert!(
        report.records_discarded >= 2,
        "BEGIN and INSERT of the open transaction are discarded: {}",
        report.summary()
    );
    assert_eq!(ids(&db, "t"), vec![0, 1, 2], "row 77 must not appear");
    db.close().unwrap();
}

#[test]
fn mid_log_corruption_fails_the_open_loudly() {
    let (dir, mut log) = build_log_dir("corrupt", 5);
    // Flip one payload byte of the FIRST record — committed data after
    // it is unreachable, which recovery must refuse to paper over.
    let first_payload = record::LOG_HEADER_LEN + 8;
    log[first_payload] ^= 0xFF;
    write_log(&dir, &log);
    let msg = match Database::open(&dir, cfg_off()) {
        Ok(_) => panic!("corrupt mid-log record must fail the open"),
        Err(e) => format!("{e}"),
    };
    assert!(msg.contains("corrupt"), "unexpected error: {msg}");
}

#[test]
fn every_log_prefix_recovers_to_a_committed_prefix() {
    let n = 6i64;
    let (_dir, log) = build_log_dir("sweep", n);
    let region_len = log.len() - record::LOG_HEADER_LEN;
    let sweep_dir = scratch("sweep-cut");
    let mut seen_full = false;
    for cut in 0..=region_len {
        let _ = std::fs::remove_dir_all(&sweep_dir);
        std::fs::create_dir_all(&sweep_dir).unwrap();
        write_log(&sweep_dir, &log[..record::LOG_HEADER_LEN + cut]);
        let (db, report) = Database::open(&sweep_dir, cfg_off())
            .unwrap_or_else(|e| panic!("cut at {cut}/{region_len} bytes failed: {e}"));
        // Before the CREATE TABLE commits there is no table at all.
        let s = db.session();
        match s.query("SELECT id FROM t ORDER BY id") {
            Ok(r) => {
                let got: Vec<i64> = r
                    .rows
                    .iter()
                    .map(|row| match row[0] {
                        Value::Int(i) => i,
                        ref v => panic!("{v:?}"),
                    })
                    .collect();
                let k = got.len() as i64;
                assert_eq!(
                    got,
                    (0..k).collect::<Vec<_>>(),
                    "cut {cut}: state must be a committed prefix ({})",
                    report.summary()
                );
                if k == n {
                    seen_full = true;
                }
            }
            Err(_) => assert_eq!(
                report.txns_applied, 0,
                "cut {cut}: missing table implies no applied transactions"
            ),
        }
        drop(s);
        db.close().unwrap();
    }
    assert!(seen_full, "the untruncated log recovers every row");
}

#[test]
fn show_stats_reports_wal_counters() {
    let dir = scratch("stats");
    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let r = s.query("SHOW STATS").unwrap();
    let metrics: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
    for name in [
        "wal.appends",
        "wal.bytes",
        "wal.commits",
        "wal.fsyncs",
        "wal.group_commit_batch",
        "wal.replayed",
        "wal.checkpoints",
        "wal.recovery_micros",
    ] {
        assert!(metrics.contains(&name), "SHOW STATS missing {name}");
    }
    let appends = r
        .rows
        .iter()
        .find(|row| row[0].as_str().unwrap() == "wal.appends")
        .map(|row| row[1].clone())
        .unwrap();
    assert!(
        matches!(appends, Value::Int(i) if i > 0),
        "DML appended records: {appends:?}"
    );
    drop(s);
    db.close().unwrap();
}

#[test]
fn every_commit_mode_survives_unclean_drop_too() {
    let dir = scratch("everycommit");
    {
        let (db, _) = Database::open(&dir, DurabilityConfig::default()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (42)").unwrap();
        let w = db.wal_stats();
        assert!(w.fsyncs > 0, "every-commit fsyncs before acking: {w:?}");
    }
    let (db, _) = Database::open(&dir, DurabilityConfig::default()).unwrap();
    assert_eq!(ids(&db, "t"), vec![42]);
    db.close().unwrap();
}

/// Group commit under real concurrency: eight sessions each commit 200
/// single-row INSERTs with an fsync owed to every commit, and the log
/// must cover some commits with one shared fsync. Every acknowledged
/// row then survives a reopen.
#[test]
fn concurrent_commits_share_fsyncs() {
    const SESSIONS: i64 = 8;
    const COMMITS: i64 = 200;
    let dir = scratch("group-commit");
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::EveryCommit,
        ..DurabilityConfig::default()
    };
    let (db, _) = Database::open(&dir, cfg.clone()).unwrap();
    db.session()
        .execute("CREATE TABLE load (id INT, payload CHAR(64))")
        .unwrap();
    let start = Arc::new(std::sync::Barrier::new(SESSIONS as usize));
    let workers: Vec<_> = (0..SESSIONS)
        .map(|t| {
            let db = Arc::clone(&db);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let s = db.session();
                start.wait();
                for i in 0..COMMITS {
                    s.execute(&format!(
                        "INSERT INTO load VALUES ({}, 'sixty-four-bytes-of-payload-data')",
                        t * COMMITS + i
                    ))
                    .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("committing session panicked");
    }
    let w = db.wal_stats();
    assert!(
        w.fsyncs > 0 && w.fsyncs < w.commits,
        "commits must share fsyncs: {w:?}"
    );
    assert!(
        w.group_commit_batch >= 2,
        "no fsync ever covered two commits: {w:?}"
    );
    db.close().unwrap();
    drop(db);

    let (db, _) = Database::open(&dir, cfg).unwrap();
    assert_eq!(
        ids(&db, "load"),
        (0..SESSIONS * COMMITS).collect::<Vec<_>>()
    );
    db.close().unwrap();
}

/// A `close` whose final checkpoint fails still stops the log: the
/// error comes back once, later statements fail with `Persist`, and
/// the commits the checkpoint could not fold in recover from the log.
#[test]
fn close_stops_the_log_even_when_its_checkpoint_fails() {
    let dir = scratch("close-fails");
    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    // A directory where the snapshot's temporary file must go.
    std::fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    assert!(db.close().is_err(), "the final checkpoint cannot write");
    assert!(db.close().is_ok(), "close is idempotent");
    match s.execute("INSERT INTO t VALUES (2)") {
        Err(minidb::DbError::Persist { .. }) => {}
        other => panic!("a statement after close must fail with Persist, got {other:?}"),
    }
    drop(s);
    drop(db);

    std::fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    assert_eq!(ids(&db, "t"), vec![1]);
    db.close().unwrap();
}
