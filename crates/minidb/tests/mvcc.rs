//! MVCC and transaction semantics end to end: AS OF edge cases (before a
//! table existed, future commits, historical stability under concurrent
//! writers), BEGIN/COMMIT/ROLLBACK visibility and conflict detection,
//! the apply-vs-log ordering proof — a statement whose WAL append
//! fails must leave no trace in memory or in recovery — and the shared,
//! retire-on-delete indexes every version of a table probes.

use minidb::wal::file::FailpointFile;
use minidb::wal::record::{self, WalRecord};
use minidb::{
    DataType, Database, DbError, DurabilityConfig, SyncMode, TableSource, UdtValue, Value,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;

/// Fresh scratch directory under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minidb-mvcc-{}-{name}", std::process::id()));
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

// ----- AS OF edges ---------------------------------------------------

#[test]
fn as_of_before_the_table_existed_is_a_typed_not_found() {
    let db = Database::new();
    let s = db.session();
    // Commit 0 is the empty database; the table arrives later.
    s.execute("CREATE TABLE t (id INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    match s.query("SELECT * FROM t AS OF COMMIT 0") {
        Err(DbError::NotFound { kind, .. }) => assert_eq!(kind, "table"),
        other => panic!("expected a typed NotFound, got {other:?}"),
    }
}

#[test]
fn as_of_a_future_commit_sees_the_latest_committed_rows() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 0..3 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let future = db.commit_seq() + 1_000;
    let r = s
        .query(&format!(
            "SELECT id FROM t ORDER BY id AS OF COMMIT {future}"
        ))
        .unwrap();
    let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![0, 1, 2], "a future commit clamps to the latest");
}

#[test]
fn as_of_results_are_byte_identical_under_concurrent_writers() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, v CHAR(8))").unwrap();
    for i in 0..8 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    let seq = db.commit_seq();
    let sql = format!("SELECT id, v FROM t ORDER BY id AS OF COMMIT {seq}");
    let baseline = format!("{:?}", s.query(&sql).unwrap().rows);

    // The writer stays inside the version-retention window (64 commits):
    // past it the GC is allowed to collect the pinned-by-nobody history
    // and AS OF reports NotFound, by design.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let w = db.session();
            for i in 8..32 {
                w.execute(&format!("INSERT INTO t VALUES ({i}, 'w{i}')"))
                    .unwrap();
                w.execute(&format!("UPDATE t SET v = 'x{i}' WHERE id = {}", i % 8))
                    .unwrap();
            }
        })
    };
    for _ in 0..64 {
        let again = format!("{:?}", s.query(&sql).unwrap().rows);
        assert_eq!(again, baseline, "historical reads must not drift");
    }
    writer.join().unwrap();
    // And the present tense did move on.
    assert_eq!(ids(&db, "t").len(), 32);
}

// ----- Transactions --------------------------------------------------

#[test]
fn rollback_leaves_no_trace_in_data_or_wal_replay() {
    let dir = scratch("rollback");
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();

        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (3)").unwrap();
        s.execute("UPDATE t SET id = 99 WHERE id = 1").unwrap();
        s.execute("DELETE FROM t WHERE id = 2").unwrap();
        s.execute("ROLLBACK").unwrap();

        assert_eq!(ids(&db, "t"), vec![1, 2], "rollback restores the data");
        drop(s);
        // Unclean drop: whatever leaked into the WAL replays next open.
    }
    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    assert_eq!(ids(&db, "t"), vec![1, 2], "rollback leaves no WAL trace");
    db.close().unwrap();
}

#[test]
fn commit_publishes_all_statements_atomically_and_survives_replay() {
    let dir = scratch("commit");
    {
        let (db, _) = Database::open(&dir, cfg_off()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("BEGIN").unwrap();
        for i in 0..5 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        s.execute("UPDATE t SET id = 40 WHERE id = 4").unwrap();
        s.execute("COMMIT").unwrap();
        assert_eq!(ids(&db, "t"), vec![0, 1, 2, 3, 40]);
        drop(s);
    }
    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    assert_eq!(ids(&db, "t"), vec![0, 1, 2, 3, 40]);
    db.close().unwrap();
}

#[test]
fn uncommitted_writes_are_private_to_the_transaction() {
    let db = Database::new();
    let s1 = db.session();
    let s2 = db.session();
    s1.execute("CREATE TABLE t (id INT)").unwrap();
    s1.execute("INSERT INTO t VALUES (1)").unwrap();
    let committed = db.commit_seq();

    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO t VALUES (2)").unwrap();

    // The transaction sees its own write …
    let mine: Vec<i64> = s1
        .query("SELECT id FROM t ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(mine, vec![1, 2]);

    // … but AS OF addresses committed history only, even in-session …
    let historical: Vec<i64> = s1
        .query(&format!(
            "SELECT id FROM t ORDER BY id AS OF COMMIT {committed}"
        ))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(historical, vec![1], "AS OF must not see uncommitted work");

    // … and no other session sees it until COMMIT.
    assert_eq!(ids(&db, "t"), vec![1]);
    let other: Vec<i64> = s2
        .query("SELECT id FROM t ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert_eq!(other, vec![1]);

    s1.execute("COMMIT").unwrap();
    assert_eq!(ids(&db, "t"), vec![1, 2]);
}

#[test]
fn first_committer_wins_on_a_write_write_conflict() {
    let db = Database::new();
    let s1 = db.session();
    let s2 = db.session();
    s1.execute("CREATE TABLE t (id INT)").unwrap();
    s1.execute("INSERT INTO t VALUES (1)").unwrap();

    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE t SET id = 10 WHERE id = 1").unwrap();
    s2.execute("UPDATE t SET id = 20 WHERE id = 1").unwrap();

    s1.execute("COMMIT").unwrap();
    match s2.execute("COMMIT") {
        Err(DbError::Execution { message }) => {
            assert!(
                message.contains("write-write conflict"),
                "unexpected message: {message}"
            );
        }
        other => panic!("second committer must lose, got {other:?}"),
    }
    assert_eq!(
        ids(&db, "t"),
        vec![10],
        "the first committer's write stands"
    );

    // The loser's transaction is over; a fresh one works.
    s2.execute("BEGIN").unwrap();
    s2.execute("UPDATE t SET id = 20 WHERE id = 10").unwrap();
    s2.execute("COMMIT").unwrap();
    assert_eq!(ids(&db, "t"), vec![20]);
}

#[test]
fn transaction_statement_misuse_is_rejected() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();

    assert!(s.execute("COMMIT").is_err(), "COMMIT without BEGIN");
    assert!(s.execute("ROLLBACK").is_err(), "ROLLBACK without BEGIN");

    s.execute("BEGIN").unwrap();
    assert!(s.execute("BEGIN").is_err(), "nested BEGIN");
    match s.execute("CREATE TABLE u (id INT)") {
        Err(DbError::Execution { message }) => {
            assert!(message.contains("DDL"), "unexpected message: {message}")
        }
        other => panic!("DDL inside a transaction must fail, got {other:?}"),
    }
    s.execute("ROLLBACK").unwrap();

    // The session is back to autocommit and fully usable.
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(ids(&db, "t"), vec![1]);
}

#[test]
fn show_stats_reports_mvcc_gauges_and_txn_counters() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("COMMIT").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("ROLLBACK").unwrap();

    let r = s.query("SHOW STATS").unwrap();
    let value = |name: &str| -> i64 {
        r.rows
            .iter()
            .find(|row| row[0].as_str().unwrap() == name)
            .unwrap_or_else(|| panic!("SHOW STATS missing {name}"))[1]
            .as_int()
            .unwrap()
    };
    assert!(value("mvcc.versions") >= 1, "version chains exist");
    assert!(value("mvcc.snapshots_pinned") >= 0);
    assert!(value("txn.begun") >= 2);
    assert!(value("txn.committed") >= 1);
    assert!(value("txn.rolled_back") >= 1);
}

// ----- Apply-vs-log ordering -----------------------------------------

/// A statement whose WAL append fails must not mutate memory, and a
/// crash right after must recover to a state without it. The failpoint
/// sequence is deterministic: under `SyncMode::EveryCommit` the torn
/// write is observed by the statement that caused it (INSERT 4 errors at
/// its durability wait, its chunk torn on "disk"), which latches the
/// WAL's I/O error; the next statement (INSERT 5) then fails its append
/// up front and — log-before-apply — touches nothing.
#[test]
fn failed_wal_append_leaves_memory_untouched_and_recovery_agrees() {
    let dir = scratch("failpoint");
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::EveryCommit,
        ..DurabilityConfig::default()
    };
    let mut shared = None;
    let (db, _) = Database::open_with_wal_file(&dir, cfg, |_path, header| {
        let (file, state) = FailpointFile::new(header);
        shared = Some(state);
        Ok(Box::new(file))
    })
    .unwrap();
    let state = shared.expect("factory ran");

    let s = db.session();
    s.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 1..=3 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    assert_eq!(ids(&db, "t"), vec![1, 2, 3]);

    // Arm the failpoint: the next append tears after a 1-byte prefix.
    state.lock().unwrap().fail_after_bytes = Some(1);

    // INSERT 4: append is accepted into the batch buffer, the row is
    // applied, then the durability wait surfaces the torn write.
    assert!(
        s.execute("INSERT INTO t VALUES (4)").is_err(),
        "the torn write must surface at the durability wait"
    );

    // INSERT 5: the WAL is latched unavailable, the append fails before
    // anything is applied. Memory must be exactly as before it ran.
    assert!(
        s.execute("INSERT INTO t VALUES (5)").is_err(),
        "appends after an I/O error must fail"
    );
    assert_eq!(
        ids(&db, "t"),
        vec![1, 2, 3, 4],
        "a statement whose append failed must not mutate memory"
    );

    // "Crash": persist exactly what reached the failpoint disk, drop the
    // database without closing, and recover from the bytes alone.
    let bytes = state.lock().unwrap().bytes.clone();
    drop(s);
    drop(db);
    std::fs::write(dir.join("wal.log"), &bytes).unwrap();

    let (db, _) = Database::open(&dir, cfg_off()).unwrap();
    assert_eq!(
        ids(&db, "t"),
        vec![1, 2, 3],
        "recovery keeps the committed prefix and drops the torn statement"
    );
    db.close().unwrap();
}

// ----- Shared indexes ------------------------------------------------

/// An `Interval` value (the test blade's interval-indexed type).
fn interval(db: &Arc<Database>, lo: i64, hi: i64) -> Value {
    match db.with_catalog(|c| c.lookup_type_name("Interval")) {
        Ok(DataType::Udt(id)) => Value::Udt(UdtValue::new(id, Arc::new(common::Validity(lo, hi)))),
        other => panic!("Interval resolved to {other:?}"),
    }
}

/// Entries each index of `table` holds, retired ones included.
fn index_entries(db: &Arc<Database>, table: &str) -> Vec<usize> {
    db.with_tables(|p| {
        let t = p.table(table).unwrap();
        t.indexes().iter().map(|ix| ix.entry_count()).collect()
    })
}

/// `(id, patient, doctor, valid)` rows with all three probe-able keys
/// indexed: B-trees on `patient` and `doctor`, an interval index on
/// `valid`.
fn indexed_table(s: &minidb::Session, t: &str) {
    s.execute(&format!(
        "CREATE TABLE {t} (id INT, patient INT, doctor INT, valid Interval)"
    ))
    .unwrap();
    for col in ["patient", "doctor", "valid"] {
        s.execute(&format!("CREATE INDEX ix_{col} ON {t}({col})"))
            .unwrap();
    }
}

/// Every probe shape answered at commit `n`, first through its index and
/// then with the index kept out of the plan (the same predicate in a
/// shape no probe matches). Both read the same snapshot, so they must
/// agree row for row.
fn check_probes_at(db: &Arc<Database>, n: u64, patient: i64, window: (i64, i64)) {
    let s = db.session();
    let e = interval(db, window.0, window.1);
    let params = [
        ("p", Value::Int(patient)),
        ("e", e),
        ("lo", Value::Int(2)),
        ("hi", Value::Int(5)),
    ];
    let pairs = [
        ("patient = :p", "patient + 0 = :p"),
        ("overlaps(valid, :e)", "(overlaps(valid, :e) OR FALSE)"),
        (
            "doctor BETWEEN :lo AND :hi",
            "doctor + 0 BETWEEN :lo AND :hi",
        ),
    ];
    for (probed, plain) in pairs {
        let run = |pred: &str| {
            let sql = format!("SELECT id FROM p WHERE {pred} ORDER BY id AS OF COMMIT {n}");
            s.query_with_params(&sql, &params)
                .map(|r| r.rows)
                .map_err(|e| format!("{e:?}"))
        };
        assert_eq!(run(probed), run(plain), "`{probed}` at commit {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random autocommit churn — inserts, key-moving and key-keeping
    /// updates, deletes, and freed rowids reused under the same keys —
    /// with snapshots pinned at random points: at every commit still
    /// retained, each index answers exactly what a full scan of the same
    /// snapshot does. Once the pins are gone and the retention window
    /// has passed, each index holds one entry per live row.
    #[test]
    fn every_version_probes_like_its_full_scan_under_churn(
        ops in proptest::collection::vec((0usize..7, 0i64..6, 0i64..40), 1..40),
    ) {
        const RETENTION: u64 = 4;
        let db = Database::new();
        db.install_blade(&common::IntervalBlade).unwrap();
        db.set_mvcc_retention(RETENTION);
        let s = db.session();
        indexed_table(&s, "p");
        let first = db.commit_seq();
        let mut pins = Vec::new();
        let mut next_id = 0i64;
        let check_retained = |pins: &[minidb::session::SnapshotPin], k: i64| {
            let now = db.commit_seq();
            let oldest = pins.iter().map(|p| p.seq()).min().unwrap_or(now);
            let from = oldest.min(now.saturating_sub(RETENTION)).max(first);
            for n in from..=now {
                check_probes_at(&db, n, k % 4, (k * 10, k * 10 + 35));
            }
        };
        for &(op, k, v) in &ops {
            let valid = interval(&db, v * 5, v * 5 + k * 7);
            match op {
                0 | 1 => {
                    s.execute_with_params(
                        "INSERT INTO p VALUES (:id, :p, :d, :v)",
                        &[("id", Value::Int(next_id)), ("p", Value::Int(k % 4)),
                          ("d", Value::Int(v % 8)), ("v", valid)],
                    ).unwrap();
                    next_id += 1;
                }
                2 => {
                    // Key-moving: every index files the row elsewhere.
                    s.execute_with_params(
                        "UPDATE p SET patient = :p, doctor = :d, valid = :v WHERE id = :id",
                        &[("id", Value::Int(v % next_id.max(1))), ("p", Value::Int((k + 1) % 4)),
                          ("d", Value::Int((v + 3) % 8)), ("v", valid)],
                    ).unwrap();
                }
                3 => {
                    // Key-keeping: no index changes.
                    s.execute_with_params(
                        "UPDATE p SET id = id + 1000 WHERE patient = :p",
                        &[("p", Value::Int(k % 4))],
                    ).unwrap();
                }
                4 => {
                    s.execute_with_params("DELETE FROM p WHERE doctor = :d", &[("d", Value::Int(v % 8))])
                        .unwrap();
                }
                5 => {
                    // Delete one row and insert its keys again: the LIFO
                    // free list hands the new row the same rowid.
                    let r = s.query_with_params(
                        "SELECT id, patient, doctor, valid FROM p WHERE id >= :id ORDER BY id LIMIT 1",
                        &[("id", Value::Int(v))],
                    ).unwrap();
                    if let Some(row) = r.rows.first() {
                        s.execute_with_params("DELETE FROM p WHERE id = :id", &[("id", row[0].clone())])
                            .unwrap();
                        s.execute_with_params(
                            "INSERT INTO p VALUES (:id, :p, :d, :v)",
                            &[("id", Value::Int(next_id)), ("p", row[1].clone()),
                              ("d", row[2].clone()), ("v", row[3].clone())],
                        ).unwrap();
                        next_id += 1;
                    }
                }
                _ => {
                    pins.push(db.pin_snapshot());
                    check_retained(&pins, k);
                }
            }
        }
        check_retained(&pins, 1);
        drop(pins);
        for _ in 0..=RETENTION {
            s.execute("UPDATE p SET id = id WHERE id < 0").unwrap();
        }
        // One entry per live row: as many as a fresh copy's indexes hold.
        indexed_table(&s, "q");
        s.execute("INSERT INTO q SELECT * FROM p").unwrap();
        let live = db.with_tables(|p| p.table("p").unwrap().len());
        let entries = index_entries(&db, "p");
        prop_assert_eq!(&entries[..2], &[live, live][..], "ops={:?}", ops);
        prop_assert_eq!(entries, index_entries(&db, "q"), "ops={:?}", ops);
    }
}

/// A reader that resolved its version without a snapshot pin (a read
/// pin, as `with_tables` takes) keeps that version's retired index
/// entries alive after GC drops the version from the chain.
#[test]
fn a_reader_outliving_gc_of_its_version_still_probes_its_rows() {
    let db = Database::new();
    db.set_mvcc_retention(2);
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, k INT)").unwrap();
    s.execute("CREATE INDEX ix_k ON t(k)").unwrap();
    for i in 0..4 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 7)"))
            .unwrap();
    }
    db.with_tables(|p| {
        let t = p.table("t").unwrap();
        s.execute("DELETE FROM t WHERE k = 7").unwrap();
        for _ in 0..5 {
            s.execute("UPDATE t SET id = id WHERE id < 0").unwrap();
        }
        let hits = t.index_on(1).unwrap().lookup_eq(&Value::Int(7));
        let rows = t.cursor(Some(hits), None).next_batch(usize::MAX).unwrap();
        let rowids = rows.unwrap().rowids;
        assert_eq!(rowids, vec![0, 1, 2, 3]);
    });
    // The reader is gone: the next commit's GC purges the entries.
    s.execute("UPDATE t SET id = id WHERE id < 0").unwrap();
    assert_eq!(index_entries(&db, "t"), vec![0]);
}

/// Data-changing WAL records of the current log, with every
/// `Begin`…`Commit` chunk boundary kept as the records' chunk number.
fn wal_changes(db: &Arc<Database>, dir: &Path) -> Vec<(usize, WalRecord)> {
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    let scan = record::scan_records(&bytes[record::LOG_HEADER_LEN..]);
    let mut chunk = 0;
    let mut out = Vec::new();
    for payload in &scan.payloads {
        match db
            .with_catalog(|c| record::decode_payload(c, payload))
            .unwrap()
        {
            WalRecord::Begin { .. } => chunk += 1,
            WalRecord::Commit { .. } | WalRecord::Ddl { .. } => {}
            change => out.push((chunk, change)),
        }
    }
    out
}

/// One BEGIN…COMMIT applies its change list to the live table through
/// the same apply path autocommit uses: the same rows, the same WAL
/// records (in one chunk rather than three), the same recovered bytes.
/// A ROLLBACK never reaches the shared indexes.
#[test]
fn a_transaction_commit_matches_the_same_statements_autocommitted() {
    let statements = [
        // Reuses the rowid the setup's DELETE freed.
        ("INSERT INTO p VALUES (9, 1, 3, :v)", (100, 140)),
        (
            "UPDATE p SET patient = 2, valid = :v WHERE id = 4",
            (10, 20),
        ),
        (
            "DELETE FROM p WHERE doctor = 5 AND overlaps(valid, :v)",
            (0, 1000),
        ),
    ];
    let install = |db: &Arc<Database>| db.install_blade(&common::IntervalBlade);
    let run = |name: &str, txn: bool| {
        let dir = scratch(name);
        // Every commit on disk before `wal_changes` reads the log.
        let cfg = DurabilityConfig {
            sync_mode: SyncMode::EveryCommit,
            checkpoint_bytes: 0,
            ..DurabilityConfig::default()
        };
        let (db, _) = Database::open_with(&dir, cfg.clone(), install).unwrap();
        let s = db.session();
        let exec = |sql: &str, (lo, hi): (i64, i64)| {
            s.execute_with_params(sql, &[("v", interval(&db, lo, hi))])
                .unwrap()
        };
        indexed_table(&s, "p");
        for i in 0..8 {
            let sql = format!("INSERT INTO p VALUES ({i}, {}, {}, :v)", i % 3, i % 6);
            exec(&sql, (i * 10, i * 10 + 25));
        }
        s.execute("DELETE FROM p WHERE id = 6").unwrap();
        let before = index_entries(&db, "p");
        s.execute("BEGIN").unwrap();
        for (sql, v) in statements {
            exec(sql, v);
        }
        s.execute("ROLLBACK").unwrap();
        assert_eq!(
            index_entries(&db, "p"),
            before,
            "ROLLBACK touched a shared index"
        );
        if txn {
            s.execute("BEGIN").unwrap();
        }
        for (sql, v) in statements {
            exec(sql, v);
        }
        if txn {
            s.execute("COMMIT").unwrap();
        }
        let rows = s.query("SELECT * FROM p").unwrap();
        let shown = db.format_result(&rows);
        let live = db.save_snapshot().unwrap();
        let log = wal_changes(&db, &dir);
        drop(s);
        drop(db); // unclean: recovery replays the log
        let (db, _) = Database::open_with(&dir, cfg, install).unwrap();
        assert_eq!(db.save_snapshot().unwrap(), live, "recovered state differs");
        db.close().unwrap();
        (shown, live, log)
    };
    let (auto_rows, auto_state, auto_log) = run("txn-parity-auto", false);
    let (txn_rows, txn_state, txn_log) = run("txn-parity-txn", true);
    assert_eq!(txn_rows, auto_rows);
    assert_eq!(txn_state, auto_state);
    let changes =
        |log: &[(usize, WalRecord)]| log.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>();
    assert_eq!(changes(&txn_log), changes(&auto_log));
    // One record per statement here: three chunks autocommitted, one
    // for the transaction.
    let chunks = |log: &[(usize, WalRecord)]| {
        let mut c: Vec<usize> = log[log.len() - statements.len()..]
            .iter()
            .map(|r| r.0)
            .collect();
        c.dedup();
        c.len()
    };
    assert_eq!((chunks(&auto_log), chunks(&txn_log)), (3, 1));
}
