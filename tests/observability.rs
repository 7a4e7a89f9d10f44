//! Observability-layer integration: EXPLAIN / EXPLAIN ANALYZE output,
//! the SHOW STATS metrics registry, the slow-query log hook, and the
//! no-panic guarantees on malformed or overflowing temporal SQL.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tip::client::Connection;
use tip::core::Chronon;

fn c(s: &str) -> Chronon {
    s.parse().unwrap()
}

fn conn() -> Connection {
    let conn = Connection::open_tip_enabled();
    conn.set_now(Some(c("1999-12-01")));
    conn
}

fn strings(conn: &Connection, sql: &str) -> Vec<String> {
    let mut rows = conn.query(sql, &[]).unwrap();
    let mut out = Vec::new();
    while rows.next() {
        out.push(rows.get_string(0).unwrap());
    }
    out
}

fn stat(conn: &Connection, metric: &str) -> i64 {
    let mut rows = conn.query("SHOW STATS", &[]).unwrap();
    while rows.next() {
        if rows.get_string(0).unwrap() == metric {
            return rows.get_int(1).unwrap();
        }
    }
    panic!("metric {metric:?} missing from SHOW STATS");
}

fn make_prescriptions(conn: &Connection, n: usize) {
    conn.execute(
        "CREATE TABLE Prescription (patient CHAR(20), drug CHAR(20), valid Period)",
        &[],
    )
    .unwrap();
    for i in 0..n {
        conn.execute(
            &format!(
                "INSERT INTO Prescription VALUES ('p{i}', 'd{}', \
                 '[1999-01-{:02}, 1999-01-{:02}]'::Period)",
                i % 3,
                1 + i % 20,
                5 + i % 20,
            ),
            &[],
        )
        .unwrap();
    }
}

#[test]
fn explain_names_the_interval_index_for_overlaps() {
    let conn = conn();
    make_prescriptions(&conn, 8);

    // Without an index the plan is a plain filtered scan.
    let plan = strings(
        &conn,
        "EXPLAIN SELECT patient FROM Prescription \
         WHERE overlaps(valid, '[1999-01-03, 1999-01-04]'::Period)",
    );
    assert_eq!(plan.len(), 1);
    assert!(plan[0].contains("scan(Prescription)"), "plan: {plan:?}");
    assert!(!plan[0].contains("ivscan"), "plan: {plan:?}");

    // A Period column gets a bucketed interval index; EXPLAIN must say so.
    conn.execute("CREATE INDEX ix_valid ON Prescription(valid)", &[])
        .unwrap();
    let plan = strings(
        &conn,
        "EXPLAIN SELECT patient FROM Prescription \
         WHERE overlaps(valid, '[1999-01-03, 1999-01-04]'::Period)",
    );
    assert!(plan[0].contains("ivscan(Prescription)"), "plan: {plan:?}");
}

#[test]
fn explain_analyze_reports_per_operator_rows_and_timings() {
    let conn = conn();
    make_prescriptions(&conn, 10);

    let lines = strings(
        &conn,
        "EXPLAIN ANALYZE SELECT patient FROM Prescription WHERE drug = 'd0' ORDER BY patient",
    );
    // One line per operator plus the summary trailer.
    assert!(lines.len() >= 3, "lines: {lines:?}");
    let trailer = lines.last().unwrap();
    assert!(
        trailer.starts_with("returned 4 row(s) in "),
        "trailer: {trailer:?}"
    );
    // Every operator line carries rows=, calls= and time= annotations.
    for line in &lines[..lines.len() - 1] {
        assert!(line.contains("rows="), "line: {line:?}");
        assert!(line.contains("calls="), "line: {line:?}");
        assert!(line.contains("time="), "line: {line:?}");
    }
    // The scan node reports what it scanned and which access path it took.
    let scan = lines
        .iter()
        .find(|l| l.contains("scan(Prescription)"))
        .expect("scan node in plan");
    assert!(scan.contains("scanned=10"), "scan: {scan:?}");
    assert!(scan.contains("path=full-scan"), "scan: {scan:?}");
    // The sort node sits above the filtered scan: 4 rows come out.
    let sort = lines.iter().find(|l| l.trim_start().starts_with("sort"));
    assert!(sort.is_some(), "lines: {lines:?}");
    assert!(sort.unwrap().contains("rows=4"), "sort: {sort:?}");
}

#[test]
fn show_stats_distinguishes_index_paths_from_full_scans() {
    let conn = conn();
    make_prescriptions(&conn, 12);
    conn.execute("CREATE INDEX ix_drug ON Prescription(drug)", &[])
        .unwrap();
    conn.execute("CREATE INDEX ix_valid ON Prescription(valid)", &[])
        .unwrap();

    assert_eq!(stat(&conn, "scans.full"), 0);

    // Equality on an indexed column -> index-eq.
    conn.query("SELECT patient FROM Prescription WHERE drug = 'd1'", &[])
        .unwrap();
    assert_eq!(stat(&conn, "scans.index_eq"), 1);

    // OVERLAPS on an interval-indexed column -> index-overlap.
    conn.query(
        "SELECT patient FROM Prescription \
         WHERE overlaps(valid, '[1999-01-03, 1999-01-04]'::Period)",
        &[],
    )
    .unwrap();
    assert_eq!(stat(&conn, "scans.index_overlap"), 1);

    // A predicate on an unindexed column -> full scan.
    conn.query("SELECT drug FROM Prescription WHERE patient = 'p3'", &[])
        .unwrap();
    assert_eq!(stat(&conn, "scans.full"), 1);

    // Statement-kind counters tick as well, and the metrics API agrees
    // with the SQL surface.
    assert!(stat(&conn, "statements.select") >= 3);
    let snap = conn.metrics().unwrap().snapshot();
    assert_eq!(snap.full_scans, 1);
    assert_eq!(snap.index_eq_scans, 1);
    assert_eq!(snap.index_overlap_scans, 1);
    let rate = snap.index_hit_rate().unwrap();
    assert!((rate - 2.0 / 3.0).abs() < 1e-9, "rate: {rate}");
}

#[test]
fn show_stats_counts_rows_scanned_vs_returned() {
    let conn = conn();
    make_prescriptions(&conn, 12);
    conn.query("SELECT patient FROM Prescription WHERE drug = 'd0'", &[])
        .unwrap();
    // Full scan reads all 12 rows; the filter keeps every third.
    assert_eq!(stat(&conn, "rows.scanned"), 12);
    assert_eq!(stat(&conn, "rows.returned"), 4);
    assert_eq!(stat(&conn, "statements.error"), 0);

    // Failed statements tick the error counter, not the kind counters.
    assert!(conn.query("SELECT nope FROM Prescription", &[]).is_err());
    assert_eq!(stat(&conn, "statements.error"), 1);
}

#[test]
fn show_stats_counts_the_select_half_of_insert_select() {
    let conn = conn();
    make_prescriptions(&conn, 12);
    conn.execute("CREATE INDEX ix_drug ON Prescription(drug)", &[])
        .unwrap();
    conn.execute(
        "CREATE TABLE Archive (patient CHAR(20), drug CHAR(20), valid Period)",
        &[],
    )
    .unwrap();
    conn.execute(
        "INSERT INTO Archive SELECT patient, drug, valid FROM Prescription WHERE drug = 'd1'",
        &[],
    )
    .unwrap();
    // The statement's scan is an index probe touching every third row.
    assert_eq!(stat(&conn, "scans.index_eq"), 1);
    assert_eq!(stat(&conn, "rows.scanned"), 4);
    // The same holds inside a transaction's workspace.
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute(
        "INSERT INTO Archive SELECT patient, drug, valid FROM Prescription WHERE drug = 'd2'",
        &[],
    )
    .unwrap();
    conn.execute("COMMIT", &[]).unwrap();
    assert_eq!(stat(&conn, "scans.index_eq"), 2);
    assert_eq!(stat(&conn, "rows.scanned"), 8);
}

#[test]
fn slow_query_log_fires_over_threshold_only() {
    let conn = conn();
    make_prescriptions(&conn, 6);

    let hits = Arc::new(AtomicUsize::new(0));
    let last = Arc::new(Mutex::new(String::new()));
    let (h, l) = (hits.clone(), last.clone());
    // Zero threshold: every SELECT is "slow".
    conn.set_slow_query_log(Duration::ZERO, move |q| {
        h.fetch_add(1, Ordering::SeqCst);
        *l.lock().unwrap() = format!("{} | {}", q.sql, q.plan);
    })
    .unwrap();
    conn.query("SELECT patient FROM Prescription", &[]).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    let logged = last.lock().unwrap().clone();
    assert!(logged.contains("SELECT patient FROM Prescription"));
    assert!(logged.contains("scan(Prescription)"), "logged: {logged}");
    assert_eq!(stat(&conn, "select.slow"), 1);

    // An unreachable threshold never fires.
    let h2 = hits.clone();
    conn.set_slow_query_log(Duration::from_secs(3600), move |_| {
        h2.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    conn.query("SELECT drug FROM Prescription", &[]).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);

    conn.clear_slow_query_log().unwrap();
    conn.query("SELECT drug FROM Prescription", &[]).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

/// DML is observable too: INSERT/UPDATE/DELETE reach the slow-query
/// hook (with affected-row counts), the latency histogram, and the
/// `rows.affected` / `dml.total_micros` / lock counters in SHOW STATS.
#[test]
fn dml_statements_reach_the_slow_query_log_and_counters() {
    let conn = conn();
    conn.execute("CREATE TABLE t (a INT, b INT)", &[]).unwrap();

    let logged = Arc::new(Mutex::new(Vec::new()));
    let l = logged.clone();
    conn.set_slow_query_log(Duration::ZERO, move |q| {
        l.lock()
            .unwrap()
            .push((q.sql.clone(), q.plan.clone(), q.rows));
    })
    .unwrap();

    conn.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)", &[])
        .unwrap();
    conn.execute("UPDATE t SET b = b + 1 WHERE a >= 2", &[])
        .unwrap();
    conn.execute("DELETE FROM t WHERE a = 1", &[]).unwrap();

    let logged = logged.lock().unwrap().clone();
    assert_eq!(logged.len(), 3, "every DML statement hit the hook");
    assert_eq!(logged[0].1, "insert(t)");
    assert_eq!(logged[0].2, 3, "INSERT reports affected rows");
    // UPDATE and DELETE log their plan: the victim scan under the verb.
    assert_eq!(logged[1].1, "update(t) over scan(t)[f]");
    assert_eq!(logged[1].2, 2);
    assert_eq!(logged[2].1, "delete(t) over scan(t)[f]");
    assert_eq!(logged[2].2, 1);

    assert_eq!(stat(&conn, "rows.affected"), 6);
    assert_eq!(stat(&conn, "select.slow"), 3, "DML counts as slow too");
    // Every DML statement pinned exactly one table; a fresh session
    // never blocked, so wait time is (near) zero but the counter row
    // itself must exist.
    assert!(stat(&conn, "lock.tables_pinned") >= 3);
    assert!(stat(&conn, "lock.wait_micros") >= 0);
    assert!(stat(&conn, "dml.total_micros") >= 0);
}

#[test]
fn explain_analyze_with_interval_index_shows_index_path() {
    let conn = conn();
    make_prescriptions(&conn, 12);
    conn.execute("CREATE INDEX ix_valid ON Prescription(valid)", &[])
        .unwrap();
    let lines = strings(
        &conn,
        "EXPLAIN ANALYZE SELECT patient FROM Prescription \
         WHERE overlaps(valid, '[1999-01-03, 1999-01-04]'::Period)",
    );
    let scan = lines
        .iter()
        .find(|l| l.contains("ivscan(Prescription)"))
        .expect("ivscan node in analyzed plan");
    assert!(scan.contains("path=index-overlap"), "scan: {scan:?}");
}

// ---- no-panic guarantees on hostile arithmetic -------------------------

#[test]
fn overflowing_temporal_sql_errors_instead_of_panicking() {
    let conn = conn();

    // Span text parse with an astronomically large day count.
    let r = conn.query("SELECT '106751991167301'::Span", &[]);
    assert!(r.is_err(), "span parse overflow must error");

    // days() constructor overflowing the second counter.
    let r = conn.query("SELECT days(106751991167302)", &[]);
    assert!(r.is_err(), "days() overflow must error");

    // datetime() fields past i32/u32 must not wrap to 2000-01-01.
    let r = conn.query("SELECT datetime(2000, 4294967297, 1)", &[]);
    assert!(r.is_err(), "datetime() month past u32 must error");
    let r = conn.query("SELECT datetime(4294969296, 1, 1)", &[]);
    assert!(r.is_err(), "datetime() year past i32 must error");

    // Chronon + Span past the end of the timeline.
    let r = conn.query("SELECT '9999-12-31'::Chronon + '10'::Span", &[]);
    assert!(r.is_err(), "chronon+span overflow must error");

    // Negating the most negative span (constructible via INT::Span).
    let r = conn.query("SELECT -((0 - 9223372036854775807 - 1)::Span)", &[]);
    assert!(r.is_err(), "span negation overflow must error");

    // Span arithmetic overflow.
    let r = conn.query("SELECT (9223372036854775807::Span) + (1::Span)", &[]);
    assert!(r.is_err(), "span+span overflow must error");
}

#[test]
fn overflowing_integer_sql_errors_instead_of_panicking() {
    let conn = conn();
    let min = "(0 - 9223372036854775807 - 1)";
    assert!(conn.query(&format!("SELECT {min} / (0 - 1)"), &[]).is_err());
    assert!(conn.query(&format!("SELECT {min} % (0 - 1)"), &[]).is_err());
    assert!(conn.query("SELECT 9223372036854775807 + 1", &[]).is_err());
    assert!(conn.query(&format!("SELECT abs({min})"), &[]).is_err());
    // Division by zero stays a clean error too.
    assert!(conn.query("SELECT 1 / 0", &[]).is_err());
}

#[test]
fn show_stats_reports_plan_cache_counters() {
    use tip::client::HostValue;

    let conn = conn();
    make_prescriptions(&conn, 6);
    // Writes plan through the cache like reads: every seeding INSERT is
    // one miss and none is a hit. A write with no parameters is not
    // cached, so the literal INSERTs leave the cache empty.
    let misses = stat(&conn, "plan_cache.misses");
    let hits = stat(&conn, "plan_cache.hits");
    assert_eq!(misses, 6);
    assert_eq!(hits, 0);
    assert_eq!(stat(&conn, "plan_cache.entries"), 0);

    let stmt = conn
        .prepare("SELECT patient FROM Prescription WHERE drug = :d")
        .bind("d", HostValue::Str("d0".into()));
    for _ in 0..3 {
        assert_eq!(stmt.query().unwrap().len(), 2);
    }
    assert_eq!(stat(&conn, "plan_cache.misses") - misses, 1);
    assert_eq!(stat(&conn, "plan_cache.hits") - hits, 2);
    assert!(stat(&conn, "plan_cache.entries") >= 1);
    assert_eq!(stat(&conn, "plan_cache.invalidations"), 0);

    // DDL invalidates: the next execution replans against the new index.
    conn.execute("CREATE INDEX ix_rx_drug ON Prescription(drug)", &[])
        .unwrap();
    assert_eq!(stmt.query().unwrap().len(), 2);
    assert_eq!(stat(&conn, "plan_cache.invalidations"), 1);
    assert_eq!(stat(&conn, "plan_cache.misses") - misses, 2);

    // The snapshot API carries the same counters (and therefore so does
    // the widened METRICS wire frame, which is encoded from it).
    let snap = conn.metrics_snapshot().unwrap();
    assert_eq!(snap.plan_cache_hits as i64 - hits, 2);
    assert_eq!(snap.plan_cache_misses as i64 - misses, 2);
    assert_eq!(snap.plan_cache_invalidations, 1);
    assert!(snap.plan_cache_entries >= 1);
}
