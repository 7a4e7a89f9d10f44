//! Parameterized plan cache: repeat executions skip the SQL front end,
//! DDL invalidates lazily, and cached plans never return stale results —
//! the prepare-once/execute-many contract DESIGN.md commits to.

mod common;

use minidb::{DataType, Database, DbError, UdtValue, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn db_with_t(rows: i64) -> Arc<Database> {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, x INT)").unwrap();
    for i in 0..rows {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    db
}

#[test]
fn repeat_execution_hits_the_cache() {
    let db = db_with_t(10);
    let s = db.session();
    let p = s.prepare("SELECT x FROM t WHERE id = :id").unwrap();
    for i in 0..5i64 {
        let r = p.query(&[("id", Value::Int(i))]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i * 3)]], "id={i}");
    }
    let m = s.metrics().snapshot();
    assert_eq!(m.plan_cache_misses, 1, "first execution plans fresh");
    assert_eq!(m.plan_cache_hits, 4, "every repeat skips the front end");
    assert_eq!(db.plan_cache_len(), 1);
}

#[test]
fn unprepared_repeats_share_the_same_cache() {
    let db = db_with_t(4);
    let s = db.session();
    // Plain execute_with_params hits the cache transparently; trailing
    // whitespace and a terminating `;` normalize to the same key.
    s.query_with_params("SELECT x FROM t WHERE id = :id", &[("id", Value::Int(1))])
        .unwrap();
    s.query_with_params(
        "  SELECT x FROM t WHERE id = :id ;",
        &[("id", Value::Int(2))],
    )
    .unwrap();
    let m = s.metrics().snapshot();
    assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (1, 1));
}

#[test]
fn create_index_flips_cached_plan_without_repreparing() {
    let db = db_with_t(10);
    let s = db.session();
    let p = s.prepare("EXPLAIN SELECT x FROM t WHERE id = :id").unwrap();

    let before = p.query(&[("id", Value::Int(3))]).unwrap();
    let before = before.rows[0][0].as_str().unwrap().to_owned();
    assert!(before.contains("scan(t)"), "{before}");
    assert!(!before.contains("ixscan"), "{before}");
    // Warm the cache, then change the physical schema underneath it.
    p.query(&[("id", Value::Int(3))]).unwrap();

    s.execute("CREATE INDEX ix_t_id ON t(id)").unwrap();

    // Same Prepared handle, no re-prepare: the generation bump evicts
    // the stale plan and the replan picks up the new index.
    let after = p.query(&[("id", Value::Int(3))]).unwrap();
    let after = after.rows[0][0].as_str().unwrap().to_owned();
    assert!(after.contains("ixscan(t)"), "{after}");

    let m = s.metrics().snapshot();
    assert!(m.plan_cache_invalidations >= 1, "{m:?}");
    // And the flipped plan still answers correctly.
    let r = s
        .query_with_params("SELECT x FROM t WHERE id = :id", &[("id", Value::Int(7))])
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(21)]]);
}

#[test]
fn dropped_table_is_a_typed_not_found_not_a_stale_plan() {
    let db = db_with_t(3);
    let s = db.session();
    let p = s.prepare("SELECT x FROM t WHERE id = :id").unwrap();
    p.query(&[("id", Value::Int(1))]).unwrap();
    p.query(&[("id", Value::Int(1))]).unwrap(); // cached now

    s.execute("DROP TABLE t").unwrap();
    match p.query(&[("id", Value::Int(1))]) {
        Err(DbError::NotFound { kind, name }) => {
            // The DROP bumped the generation, so the stale plan was
            // evicted and the rebind reported the vanished relation.
            assert_eq!(kind, "table or view");
            assert_eq!(name, "t");
        }
        other => panic!("expected typed NotFound, got {other:?}"),
    }

    // Re-creating the table revives the same Prepared handle.
    s.execute("CREATE TABLE t (id INT, x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 111)").unwrap();
    let r = p.query(&[("id", Value::Int(1))]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(111)]]);
}

#[test]
fn parameter_shape_change_replans_instead_of_reusing() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE u (a INT, b CHAR(10))").unwrap();
    s.execute("INSERT INTO u VALUES (1, 'one')").unwrap();
    let before = s.metrics().snapshot();

    let sql = "SELECT :w FROM u";
    let r = s.query_with_params(sql, &[("w", Value::Int(7))]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
    let r = s
        .query_with_params(sql, &[("w", Value::Str("one".into()))])
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Str("one".into())]]);
    let m = s.metrics().snapshot();
    // Different types drove different overloads: both executions plan
    // fresh, neither is a (wrong) hit.
    assert_eq!(
        (
            m.plan_cache_misses - before.plan_cache_misses,
            m.plan_cache_hits - before.plan_cache_hits
        ),
        (2, 0)
    );
}

#[test]
fn missing_parameter_is_a_typed_error_at_execute_time() {
    let db = db_with_t(2);
    let s = db.session();
    let p = s.prepare("SELECT x FROM t WHERE id = :id").unwrap();
    p.query(&[("id", Value::Int(0))]).unwrap();
    match p.query(&[]) {
        Err(DbError::MissingParam { name }) => assert_eq!(name, "id"),
        other => panic!("expected MissingParam, got {other:?}"),
    }
}

#[test]
fn explain_analyze_reports_cached_vs_fresh() {
    let db = db_with_t(5);
    let s = db.session();
    let q = "EXPLAIN ANALYZE SELECT x FROM t WHERE id = :id";
    let first = s.query_with_params(q, &[("id", Value::Int(1))]).unwrap();
    let trailer = first.rows.last().unwrap()[0].as_str().unwrap().to_owned();
    assert!(trailer.ends_with("[plan: fresh]"), "{trailer}");

    let second = s.query_with_params(q, &[("id", Value::Int(2))]).unwrap();
    let trailer = second.rows.last().unwrap()[0].as_str().unwrap().to_owned();
    assert!(trailer.ends_with("[plan: cached]"), "{trailer}");
}

#[test]
fn null_parameter_on_indexed_probe_returns_no_rows() {
    let db = db_with_t(5);
    let s = db.session();
    s.execute("CREATE INDEX ix_t_id ON t(id)").unwrap();
    let p = s.prepare("SELECT x FROM t WHERE id = :id").unwrap();
    // Warm with a real key so the cached plan carries the index probe.
    assert_eq!(p.query(&[("id", Value::Int(2))]).unwrap().rows.len(), 1);
    // `id = NULL` is never TRUE; the probe short-circuits to zero rows.
    assert!(p.query(&[("id", Value::Null)]).unwrap().rows.is_empty());
}

#[test]
fn cached_results_stay_byte_identical_under_concurrent_ddl() {
    let db = db_with_t(100);
    let stop = Arc::new(AtomicBool::new(false));

    // DDL churn: registry writes bump the generation; one CREATE INDEX
    // mid-run also flips the best access path for the hot query.
    let ddl_db = Arc::clone(&db);
    let ddl_stop = Arc::clone(&stop);
    let ddl = thread::spawn(move || {
        let s = ddl_db.session();
        let mut i = 0u32;
        while !ddl_stop.load(Ordering::Relaxed) {
            s.execute(&format!("CREATE TABLE scratch_{i} (a INT)"))
                .unwrap();
            s.execute(&format!("DROP TABLE scratch_{i}")).unwrap();
            if i == 3 {
                s.execute("CREATE INDEX ix_t_id ON t(id)").unwrap();
            }
            i += 1;
        }
    });

    let mut workers = Vec::new();
    for w in 0..3 {
        let db = Arc::clone(&db);
        workers.push(thread::spawn(move || {
            let s = db.session();
            let p = s
                .prepare("SELECT x FROM t WHERE id = :id ORDER BY x")
                .unwrap();
            for round in 0..200i64 {
                let id = (round * 7 + w) % 120; // some ids miss the table
                let got = p.query(&[("id", Value::Int(id))]).unwrap();
                let expected: Vec<Vec<Value>> = if id < 100 {
                    vec![vec![Value::Int(id * 3)]]
                } else {
                    Vec::new()
                };
                assert_eq!(got.rows, expected, "worker {w} round {round} id {id}");
            }
        }));
    }
    for wkr in workers {
        wkr.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    ddl.join().unwrap();
}

#[test]
fn lru_is_bounded() {
    let db = db_with_t(1);
    let s = db.session();
    for i in 0..200 {
        s.query(&format!("SELECT x FROM t WHERE id = {i}")).unwrap();
    }
    assert!(db.plan_cache_len() <= 128, "{}", db.plan_cache_len());
}

#[test]
fn views_and_subqueries_are_not_cached() {
    let db = db_with_t(5);
    let s = db.session();
    s.execute("CREATE VIEW v AS SELECT x FROM t").unwrap();
    s.query("SELECT x FROM v").unwrap();
    s.query("SELECT x FROM v").unwrap();
    s.query("SELECT x FROM t WHERE id IN (SELECT id FROM t)")
        .unwrap();
    s.query("SELECT x FROM t WHERE id IN (SELECT id FROM t)")
        .unwrap();
    assert_eq!(db.plan_cache_len(), 0);
    let m = s.metrics().snapshot();
    assert_eq!(m.plan_cache_hits, 0);
}

#[test]
fn load_snapshot_clears_the_cache_and_replans() {
    // Regression: a snapshot restore swaps the whole table registry, so
    // every cached plan points at pre-restore table data. The restore
    // must clear the cache outright (and bump the DDL generation), not
    // leave stale plans to be served.
    let db = db_with_t(3);
    let s = db.session();
    let p = s.prepare("SELECT x FROM t WHERE id = :id").unwrap();
    assert_eq!(
        p.query(&[("id", Value::Int(1))]).unwrap().rows,
        vec![vec![Value::Int(3)]]
    );
    assert_eq!(db.plan_cache_len(), 1);

    // A different world: same table name, different contents.
    let other = Database::new();
    let os = other.session();
    os.execute("CREATE TABLE t (id INT, x INT)").unwrap();
    os.execute("INSERT INTO t VALUES (1, 999)").unwrap();
    let snap = other.save_snapshot().unwrap();

    let gen_before = db.ddl_generation();
    db.load_snapshot(&snap).unwrap();
    assert_eq!(db.plan_cache_len(), 0, "restore must clear the cache");
    assert!(
        db.ddl_generation() > gen_before,
        "restore must bump generation"
    );

    // The pre-restore Prepared handle replans and sees the new world.
    assert_eq!(
        p.query(&[("id", Value::Int(1))]).unwrap().rows,
        vec![vec![Value::Int(999)]]
    );
}

#[test]
fn repeated_trailing_semicolons_normalize_to_one_cache_entry() {
    let db = db_with_t(4);
    let s = db.session();
    // Regression: `;;` / `; ;` used to produce distinct cache keys.
    for sql in [
        "SELECT x FROM t WHERE id = :id",
        "SELECT x FROM t WHERE id = :id;;",
        "SELECT x FROM t WHERE id = :id ; ; ",
    ] {
        s.query_with_params(sql, &[("id", Value::Int(1))]).unwrap();
    }
    let m = s.metrics().snapshot();
    assert_eq!((m.plan_cache_misses, m.plan_cache_hits), (1, 2));
    assert_eq!(db.plan_cache_len(), 1);
}

/// An `Interval` value (the test blade's interval-indexed type).
fn interval(db: &Database, lo: i64, hi: i64) -> Value {
    match db.with_catalog(|c| c.lookup_type_name("Interval")) {
        Ok(DataType::Udt(id)) => Value::Udt(UdtValue::new(id, Arc::new(common::Validity(lo, hi)))),
        other => panic!("Interval resolved to {other:?}"),
    }
}

/// The five read cuts a SELECT can run at — a fresh plan, the cached
/// plan, EXPLAIN ANALYZE, an open transaction with no writes, and
/// `AS OF COMMIT` the latest commit — return the same rows for every
/// plan shape. An uncommitted UPDATE then shows in the transaction's
/// reads and never in AS OF.
#[test]
fn every_read_cut_returns_the_same_rows() {
    let db = Database::new();
    db.install_blade(&common::IntervalBlade).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE p (id INT, patient INT, valid Interval)")
        .unwrap();
    s.execute("CREATE INDEX ix_patient ON p(patient)").unwrap();
    s.execute("CREATE INDEX ix_valid ON p(valid)").unwrap();
    s.execute("CREATE TABLE d (patient INT, name CHAR(10))")
        .unwrap();
    for i in 0..40 {
        let row = [
            ("id", Value::Int(i)),
            ("p", Value::Int(i % 5)),
            ("v", interval(&db, i * 10, i * 10 + 25)),
        ];
        s.execute_with_params("INSERT INTO p VALUES (:id, :p, :v)", &row)
            .unwrap();
    }
    for k in 0..5 {
        s.execute(&format!("INSERT INTO d VALUES ({k}, 'doc{k}')"))
            .unwrap();
    }
    let shapes = [
        "SELECT id FROM p WHERE patient = 3 ORDER BY id",
        "SELECT id FROM p WHERE overlaps(valid, :w) ORDER BY id",
        "SELECT p.id, d.name FROM p, d WHERE p.patient = d.patient AND p.id < 12 ORDER BY p.id",
        "SELECT patient, group_union(valid) FROM p GROUP BY patient ORDER BY patient",
        "SELECT id FROM p ORDER BY id LIMIT 7",
    ];
    let w = [("w", interval(&db, 100, 160))];
    let run = |sql: &str| s.query_with_params(sql, &w).unwrap().rows;
    let hits = || s.metrics().snapshot().plan_cache_hits;
    let mut before = Vec::new();
    for q in shapes {
        let fresh = run(q);
        assert!(!fresh.is_empty(), "{q}");
        let h = hits();
        let cached = run(q);
        assert!(hits() > h, "{q}: the second run reads the cache");
        let profile = run(&format!("EXPLAIN ANALYZE {q}"));
        let trailer = profile.last().unwrap()[0].as_str().unwrap().to_owned();
        let returned = format!("returned {} row(s)", fresh.len());
        assert!(trailer.starts_with(&returned), "{q}: {trailer}");
        s.execute("BEGIN").unwrap();
        let in_txn = run(q);
        s.execute("COMMIT").unwrap();
        let as_of = run(&format!("{q} AS OF COMMIT {}", db.commit_seq()));
        assert_eq!(cached, fresh, "{q}: cached");
        assert_eq!(in_txn, fresh, "{q}: in a transaction");
        assert_eq!(as_of, fresh, "{q}: AS OF");
        before.push(fresh);
    }

    // Row 0 moves in every shape: a new id, patient and validity.
    let seq = db.commit_seq();
    s.execute("BEGIN").unwrap();
    s.execute_with_params(
        "UPDATE p SET id = 100, patient = 3, valid = :v WHERE id = 0",
        &[("v", interval(&db, 120, 130))],
    )
    .unwrap();
    for (q, before) in shapes.iter().zip(&before) {
        let in_txn = run(q);
        let as_of = run(&format!("{q} AS OF COMMIT {seq}"));
        assert_ne!(&in_txn, before, "{q}: the transaction sees its write");
        assert_eq!(&as_of, before, "{q}: AS OF sees committed history only");
    }
    s.execute("ROLLBACK").unwrap();
}

fn all_rows(db: &Arc<Database>, sql: &str) -> Vec<Vec<Value>> {
    db.session().query(sql).unwrap().rows
}

/// Prepared INSERT, UPDATE and DELETE each plan once and hit the cache
/// on every repeat, and leave exactly the rows that fresh plans of the
/// same writes (distinct literal text, so never a hit) leave.
#[test]
fn prepared_writes_hit_the_cache_and_match_fresh_plans() {
    const N: i64 = 6;
    let cached = db_with_t(0);
    let fresh = db_with_t(0);
    let s = cached.session();
    let f = fresh.session();
    let ins = s.prepare("INSERT INTO t VALUES (:id, :x)").unwrap();
    let upd = s.prepare("UPDATE t SET x = x + :d WHERE id = :id").unwrap();
    let del = s.prepare("DELETE FROM t WHERE id = :id").unwrap();
    let counts = || {
        let m = s.metrics().snapshot();
        (m.plan_cache_misses, m.plan_cache_hits)
    };
    let mut before = counts();
    for i in 0..N {
        ins.execute(&[("id", Value::Int(i)), ("x", Value::Int(i * 3))])
            .unwrap();
        f.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 3))
            .unwrap();
    }
    let after = counts();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, N as u64 - 1));
    before = after;
    for i in 0..N {
        let n = upd
            .execute(&[("d", Value::Int(100)), ("id", Value::Int(i))])
            .unwrap();
        assert!(matches!(n, minidb::StatementOutcome::Affected(1)), "{n:?}");
        f.execute(&format!("UPDATE t SET x = x + 100 WHERE id = {i}"))
            .unwrap();
    }
    let after = counts();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, N as u64 - 1));
    before = after;
    for i in (0..N).step_by(2) {
        del.execute(&[("id", Value::Int(i))]).unwrap();
        f.execute(&format!("DELETE FROM t WHERE id = {i}")).unwrap();
    }
    let after = counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, N as u64 / 2 - 1)
    );
    let q = "SELECT id, x FROM t ORDER BY id";
    assert_eq!(all_rows(&cached, q), all_rows(&fresh, q));
    assert_eq!(all_rows(&cached, q).len(), N as usize / 2);
}

/// EXPLAIN shares its statement's cache entry, but a cached write never
/// runs under EXPLAIN: EXPLAIN ANALYZE of a write and EXPLAIN of an
/// INSERT are the parser's Syntax errors, cached or not, and EXPLAIN
/// UPDATE renders the cached plan and writes nothing.
#[test]
fn explain_never_runs_a_cached_write() {
    let db = db_with_t(4);
    let s = db.session();
    let upd = "UPDATE t SET x = x + 1 WHERE id = :id";
    let ins = "INSERT INTO t VALUES (:id, 0)";
    let one = [("id", Value::Int(1))];
    let nine = [("id", Value::Int(9))];
    s.execute_with_params(upd, &one).unwrap();
    s.execute_with_params(ins, &nine).unwrap();
    let q = "SELECT id, x FROM t ORDER BY id";
    let rows = all_rows(&db, q);
    let entries = db.plan_cache_len();
    let hits = || s.metrics().snapshot().plan_cache_hits;

    let h = hits();
    for (sql, params) in [
        (format!("EXPLAIN ANALYZE {upd}"), &one),
        (format!("EXPLAIN {ins}"), &nine),
        (format!("EXPLAIN ANALYZE {ins}"), &nine),
    ] {
        match s.execute_with_params(&sql, params) {
            Err(DbError::Syntax { .. }) => {}
            other => panic!("{sql}: expected the parser's Syntax error, got {other:?}"),
        }
    }
    assert_eq!(hits(), h, "a refused EXPLAIN is not a hit");

    let plan = s
        .query_with_params(&format!("EXPLAIN {upd}"), &one)
        .unwrap();
    assert_eq!(hits(), h + 1, "EXPLAIN UPDATE reads the UPDATE's entry");
    let line = plan.rows[0][0].as_str().unwrap().to_owned();
    assert!(line.starts_with("update(t) over "), "{line}");
    assert_eq!(db.plan_cache_len(), entries);
    assert_eq!(all_rows(&db, q), rows, "no EXPLAIN wrote a row");
}

/// A replica refuses a write whose plan is cached exactly as it refuses
/// a fresh one.
#[test]
fn cached_write_on_a_read_only_node_is_refused() {
    let db = db_with_t(3);
    let s = db.session();
    let upd = s.prepare("UPDATE t SET x = :x WHERE id = 1").unwrap();
    upd.execute(&[("x", Value::Int(7))]).unwrap();
    upd.execute(&[("x", Value::Int(8))]).unwrap(); // a hit
    db.set_read_only("primary:7000");
    let hits = s.metrics().snapshot().plan_cache_hits;
    match upd.execute(&[("x", Value::Int(9))]) {
        Err(DbError::ReadOnly { primary }) => assert_eq!(primary, "primary:7000"),
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    assert_eq!(s.metrics().snapshot().plan_cache_hits, hits + 1);
    // Reads still run, from the cache too.
    let sel = "SELECT x FROM t WHERE id = :id";
    for _ in 0..2 {
        let r = s.query_with_params(sel, &[("id", Value::Int(1))]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(8)]]);
    }
    db.clear_read_only();
    upd.execute(&[("x", Value::Int(9))]).unwrap();
}

/// The planner freezes a subquery to its value, so a write holding one
/// is never cached and every run sees the subquery's current value.
#[test]
fn write_with_a_subquery_is_not_cached() {
    let db = db_with_t(3);
    let s = db.session();
    let entries = db.plan_cache_len();
    let upd = s
        .prepare("UPDATE t SET x = (SELECT max(x) FROM t) + :d WHERE id = 0")
        .unwrap();
    upd.execute(&[("d", Value::Int(1))]).unwrap(); // max 6 -> 7
    upd.execute(&[("d", Value::Int(1))]).unwrap(); // max 7 -> 8
    assert_eq!(db.plan_cache_len(), entries);
    assert_eq!(s.metrics().snapshot().plan_cache_hits, 0);
    let r = s.query("SELECT x FROM t WHERE id = 0").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(8)]]);
}

/// CREATE INDEX between two runs of a prepared UPDATE replans it onto
/// the index.
#[test]
fn create_index_flips_a_cached_update_onto_the_index() {
    let db = db_with_t(10);
    let s = db.session();
    let upd = "UPDATE t SET x = x + 1 WHERE id = :id";
    let one = [("id", Value::Int(4))];
    let explain = |s: &minidb::Session| {
        let r = s
            .query_with_params(&format!("EXPLAIN {upd}"), &one)
            .unwrap();
        r.rows[0][0].as_str().unwrap().to_owned()
    };
    s.execute_with_params(upd, &one).unwrap();
    let before = explain(&s);
    assert!(
        before.contains("scan(t)") && !before.contains("ixscan"),
        "{before}"
    );
    s.execute("CREATE INDEX ix_t_id ON t(id)").unwrap();
    s.execute_with_params(upd, &one).unwrap();
    let after = explain(&s);
    assert!(after.contains("ixscan(t)"), "{after}");
    let r = s.query("SELECT x FROM t WHERE id = 4").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(14)]]);
}

/// A prepared UPDATE racing DROP TABLE and CREATE TABLE of its target
/// either finds no table (a typed NotFound) or updates the one row the
/// live table holds.
#[test]
fn cached_update_racing_drop_and_create_is_typed() {
    let db = db_with_t(1);
    let stop = Arc::new(AtomicBool::new(false));
    let ddl = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let s = db.session();
            while !stop.load(Ordering::Relaxed) {
                s.execute("DROP TABLE t").unwrap();
                s.execute("CREATE TABLE t (id INT, x INT)").unwrap();
                s.execute("INSERT INTO t VALUES (0, 0)").unwrap();
            }
        })
    };
    let s = db.session();
    let upd = s.prepare("UPDATE t SET x = x + :d WHERE id = 0").unwrap();
    let (mut updated, mut missing) = (0, 0);
    for _ in 0..300 {
        match upd.execute(&[("d", Value::Int(1))]) {
            Ok(minidb::StatementOutcome::Affected(n)) => {
                assert!(n <= 1, "{n} rows updated");
                updated += 1;
            }
            Err(DbError::NotFound { .. }) => missing += 1,
            other => panic!("expected a count or NotFound, got {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    ddl.join().unwrap();
    assert_eq!(updated + missing, 300);
}

/// Parameter names match without case, so a name given twice is refused
/// with a typed error naming it instead of one value silently winning.
#[test]
fn a_parameter_given_twice_is_refused() {
    let db = db_with_t(2);
    let s = db.session();
    let err = s
        .execute_with_params(
            "UPDATE t SET x = :v WHERE id = 1",
            &[("v", Value::Int(5)), ("V", Value::Int(6))],
        )
        .unwrap_err();
    match err {
        DbError::Binding { message } => assert!(message.contains(":V"), "{message}"),
        other => panic!("expected Binding, got {other:?}"),
    }
    let r = s.query("SELECT x FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)]], "nothing was written");
}

/// A comment before `EXPLAIN` hides it from the text split that keys the
/// cache, but not from the parser. Such a statement still only renders
/// its plan, however often it runs: its write plan is never filled under
/// that text, where a later hit would take it for the bare write.
#[test]
fn comment_hidden_explain_never_runs_the_write() {
    let db = db_with_t(4);
    let s = db.session();
    let q = "SELECT id, x FROM t ORDER BY id";
    let rows = all_rows(&db, q);
    let entries = db.plan_cache_len();
    let one = [("id", Value::Int(1))];
    for sql in [
        "-- note\nEXPLAIN UPDATE t SET x = x + 1 WHERE id = :id",
        "EXPLAIN--c\nDELETE FROM t WHERE id = :id",
    ] {
        for _ in 0..3 {
            let plan = s.query_with_params(sql, &one).unwrap();
            assert_eq!(plan.columns[0].0, "plan", "{sql}");
        }
    }
    assert_eq!(db.plan_cache_len(), entries);
    assert_eq!(s.metrics().snapshot().plan_cache_hits, 0);
    assert_eq!(all_rows(&db, q), rows, "no EXPLAIN wrote a row");
}

/// A write with no parameters counts its miss but is not cached: literal
/// writes rarely repeat, and each would push a hot plan out.
#[test]
fn literal_writes_are_not_cached() {
    let db = db_with_t(0);
    let s = db.session();
    let entries = db.plan_cache_len();
    let misses = s.metrics().snapshot().plan_cache_misses;
    s.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        .unwrap();
    s.execute("UPDATE t SET x = 0 WHERE id = 2").unwrap();
    s.execute("DELETE FROM t WHERE id = 3").unwrap();
    assert_eq!(db.plan_cache_len(), entries);
    assert_eq!(s.metrics().snapshot().plan_cache_misses - misses, 3);
    let r = all_rows(&db, "SELECT id, x FROM t ORDER BY id");
    assert_eq!(
        r,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(0)]
        ]
    );
}
