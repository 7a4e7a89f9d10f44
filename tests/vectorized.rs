//! Batch-engine integration: EXPLAIN ANALYZE reports per-operator batch
//! counters, routines with and without a hand-written kernel run
//! vectorised both fresh and from the plan cache, and catalog generation
//! bumps (blade installs, DDL) replan instead of reusing a stale entry.

use tip::blade::TipBlade;
use tip::db::{Database, Session};

fn lines(s: &Session, sql: &str) -> Vec<String> {
    let r = s.query(sql).unwrap();
    r.rows
        .iter()
        .map(|row| row[0].as_str().unwrap().to_owned())
        .collect()
}

/// The per-operator line of an EXPLAIN ANALYZE output whose label
/// contains `label`.
fn op_line<'a>(out: &'a [String], label: &str) -> &'a str {
    out.iter()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no {label} node in {out:?}"))
}

fn plain_db_with_rows(n: usize) -> std::sync::Arc<Database> {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    for i in 0..n {
        s.execute(&format!("INSERT INTO t VALUES ({}, {i})", i % 100))
            .unwrap();
    }
    db
}

fn tip_db() -> std::sync::Arc<Database> {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE rx (id INT, valid Element)")
        .unwrap();
    s.execute(
        "INSERT INTO rx VALUES (1, '{[1995-01-01, 1995-06-30]}'), \
         (2, '{[1996-01-01, 1996-03-31]}'), (3, '{[1995-05-01, 1995-12-31]}')",
    )
    .unwrap();
    db
}

#[test]
fn explain_analyze_reports_batch_counters() {
    let db = plain_db_with_rows(300);
    let s = db.session();
    let out = lines(&s, "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE k < 50");
    let trailer = out.last().unwrap();
    assert!(trailer.ends_with("[plan: fresh]"), "trailer: {trailer:?}");
    assert!(
        trailer.contains("pinned 1 table(s)"),
        "trailer: {trailer:?}"
    );
    // Operators report batches and rows/batch next to the row counters.
    let scan = op_line(&out, "scan(t)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
    assert!(scan.contains("rows/batch="), "scan: {scan:?}");
    assert!(scan.contains("calls="), "scan: {scan:?}");
    assert!(scan.contains("rows="), "scan: {scan:?}");
}

#[test]
fn kernel_less_routine_runs_vectorised_fresh_and_cached() {
    let db = tip_db();
    let s = db.session();
    // `is_empty` has no hand-written kernel: the binder wraps its scalar
    // elementwise and the scan evaluates it a column at a time.
    let q = "SELECT COUNT(*) FROM rx WHERE is_empty(valid) = FALSE";
    let sql = format!("EXPLAIN ANALYZE {q}");
    let first = lines(&s, &sql);
    let scan = op_line(&first, "scan(rx)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
    let trailer = first.last().unwrap();
    assert!(trailer.ends_with("[plan: fresh]"), "trailer: {trailer:?}");
    assert_eq!(s.query(q).unwrap().rows[0][0].as_int(), Some(3));
    let second = lines(&s, &sql);
    let scan = op_line(&second, "scan(rx)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
    let trailer = second.last().unwrap();
    assert!(trailer.ends_with("[plan: cached]"), "trailer: {trailer:?}");
}

#[test]
fn hand_written_kernel_runs_vectorised_fresh_and_cached() {
    let db = tip_db();
    let s = db.session();
    // `overlaps(Element, Element)` has a hand-written kernel.
    let sql = "EXPLAIN ANALYZE SELECT COUNT(*) FROM rx \
               WHERE overlaps(valid, '{[1995-04-01, 1995-05-15]}'::Element)";
    let first = lines(&s, sql);
    let scan = op_line(&first, "scan(rx)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
    let second = lines(&s, sql);
    let scan = op_line(&second, "scan(rx)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
    let trailer = second.last().unwrap();
    assert!(trailer.ends_with("[plan: cached]"), "trailer: {trailer:?}");
}

#[test]
fn generation_bump_replans() {
    let db = plain_db_with_rows(50);
    let s = db.session();
    let sql = "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE k = 7";
    lines(&s, sql);
    let cached = lines(&s, sql);
    assert!(
        cached.last().unwrap().ends_with("[plan: cached]"),
        "trailer: {:?}",
        cached.last()
    );
    // A blade install bumps the catalog generation: the stale entry is
    // dropped and the statement is bound against the new catalog.
    db.install_blade(&TipBlade).unwrap();
    let replanned = lines(&s, sql);
    let trailer = replanned.last().unwrap();
    assert!(trailer.ends_with("[plan: fresh]"), "trailer: {trailer:?}");
    let scan = op_line(&replanned, "scan(t)");
    assert!(scan.contains("batches="), "scan: {scan:?}");
}

#[test]
fn plain_selects_feed_the_batch_metric() {
    let db = plain_db_with_rows(100);
    let s = db.session();
    let before = s.metrics().snapshot().vectorized_batches;
    s.query("SELECT COUNT(*) FROM t WHERE k < 10").unwrap();
    let after = s.metrics().snapshot().vectorized_batches;
    assert!(after > before, "exec.batches stayed at {after}");
}

/// The number after `key` on an EXPLAIN ANALYZE operator line.
fn counter(line: &str, key: &str) -> u64 {
    let at = line
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {line:?}"));
    let digits: String = line[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

fn two_tables_of(n: usize) -> std::sync::Arc<Database> {
    let db = Database::new();
    let s = db.session();
    let tuples: Vec<String> = (0..n).map(|i| format!("({i})")).collect();
    for t in ["a", "b"] {
        s.execute(&format!("CREATE TABLE {t} (k INT)")).unwrap();
        for chunk in tuples.chunks(500) {
            s.execute(&format!("INSERT INTO {t} VALUES {}", chunk.join(", ")))
                .unwrap();
        }
    }
    db
}

#[test]
fn limit_stops_a_nested_loop_join_after_one_bounded_batch() {
    // 3000 x 3000 with a permissive predicate: ~4.5M pairs match, and
    // the first left batch alone matches ~2.5M.
    let db = two_tables_of(3000);
    let s = db.session();
    let q = "SELECT a.k, b.k FROM a, b WHERE a.k < b.k LIMIT 1";
    let out = lines(&s, &format!("EXPLAIN ANALYZE {q}"));
    let join = op_line(&out, "nljoin");
    assert_eq!(counter(join, "batches="), 1, "join: {join:?}");
    assert_eq!(counter(join, " rows="), 1024, "join: {join:?}");
    let r = s.query(q).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(
        (r.rows[0][0].as_int(), r.rows[0][1].as_int()),
        (Some(0), Some(1))
    );
}

#[test]
fn nested_loop_join_resumes_across_bounded_batches() {
    // 100 x 100, a.k < b.k: 4950 pairs in five batches, none over 1024.
    let db = two_tables_of(100);
    let s = db.session();
    let q = "SELECT COUNT(*) FROM a, b WHERE a.k < b.k";
    let out = lines(&s, &format!("EXPLAIN ANALYZE {q}"));
    let join = op_line(&out, "nljoin");
    assert_eq!(counter(join, " rows="), 4950, "join: {join:?}");
    assert_eq!(counter(join, "batches="), 5, "join: {join:?}");
    assert_eq!(s.query(q).unwrap().rows[0][0].as_int(), Some(4950));
}
