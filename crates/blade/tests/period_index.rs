//! The period (interval) index — the "new index" DataBlade capability of
//! the paper's reference [2] (Bliujute et al., ICDE 1999): indexing
//! period-valued tuple timestamps, including NOW-relative data.

use minidb::{Database, Session, TableSource, Value};
use tip_blade::TipBlade;
use tip_core::Chronon;

fn unix(s: &str) -> i64 {
    tip_blade::chronon_to_unix(s.parse::<Chronon>().unwrap())
}

fn setup(n_rows: usize) -> (std::sync::Arc<Database>, Session) {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let mut s = db.session();
    s.set_now_unix(Some(unix("1999-12-01")));
    s.execute("CREATE TABLE rx (id INT, valid Element)")
        .unwrap();
    // One ten-day prescription starting every day from 1990-01-01, plus a
    // few NOW-relative rows (which must live in the index's overflow).
    let base: Chronon = "1990-01-01".parse().unwrap();
    for i in 0..n_rows {
        let start = base + tip_core::Span::from_days(i as i64);
        let end = start + tip_core::Span::from_days(10);
        s.execute_with_params(
            "INSERT INTO rx VALUES (:i, :v)",
            &[
                ("i", Value::Int(i as i64)),
                ("v", Value::Str(format!("{{[{start}, {end}]}}"))),
            ],
        )
        .unwrap();
    }
    s.execute("INSERT INTO rx VALUES (9991, '{[1999-10-01, NOW]}')")
        .unwrap();
    s.execute("INSERT INTO rx VALUES (9992, '{[NOW-7, NOW]}')")
        .unwrap();
    (db, s)
}

fn count_overlapping(s: &Session, window: &str) -> i64 {
    let sql = format!("SELECT COUNT(*) FROM rx WHERE overlaps(valid, '{{{window}}}'::Element)");
    s.query(&sql).unwrap().rows[0][0].as_int().unwrap()
}

#[test]
fn create_index_on_element_column_builds_an_interval_index() {
    let (db, s) = setup(50);
    s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    db.with_tables(|pinned| {
        let t = pinned.table("rx").unwrap();
        assert!(t.indexes()[0].is_interval());
        assert!(t.interval_index_on(1).is_some());
        assert!(t.index_on(1).is_none(), "not usable as an equality index");
    });
}

#[test]
fn plans_use_the_interval_probe() {
    let (_db, s) = setup(50);
    s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    let r = s
        .query(
            "EXPLAIN SELECT id FROM rx WHERE \
             overlaps(valid, '{[1990-02-01, 1990-02-05]}'::Element)",
        )
        .unwrap();
    let plan = r.rows[0][0].as_str().unwrap();
    assert!(plan.contains("ivscan(rx)"), "{plan}");
    assert!(
        plan.contains("[f]"),
        "the exact predicate is rechecked: {plan}"
    );
    // contains(col, chronon) also probes the index.
    let r = s
        .query("EXPLAIN SELECT id FROM rx WHERE contains(valid, '1990-02-03'::Chronon)")
        .unwrap();
    assert!(r.rows[0][0].as_str().unwrap().contains("ivscan(rx)"));
}

#[test]
fn indexed_and_unindexed_answers_are_identical() {
    let (_db, s_plain) = setup(300);
    let (_db2, s_ix) = setup(300);
    s_ix.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    for window in [
        "[1990-03-01, 1990-03-10]",
        "[1990-01-01, 1990-12-31]",
        "[1989-01-01, 1989-06-01]", // before everything
        "[1999-11-01, 1999-11-30]", // only the NOW-relative rows
        "[NOW-3, NOW]",
    ] {
        assert_eq!(
            count_overlapping(&s_plain, window),
            count_overlapping(&s_ix, window),
            "window {window}"
        );
    }
    // A Chronon probe is bounded as the column's Element type would be.
    for point in ["1990-03-05", "1989-06-01", "1999-11-25"] {
        let sql = format!("SELECT COUNT(*) FROM rx WHERE contains(valid, '{point}'::Chronon)");
        let count = |s: &Session| s.query(&sql).unwrap().rows[0][0].as_int().unwrap();
        assert_eq!(count(&s_plain), count(&s_ix), "point {point}");
    }
}

#[test]
fn now_relative_rows_are_found_at_any_transaction_time() {
    let (_db, mut s) = setup(10);
    s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    // At NOW = 1999-12-01 both open rows overlap late November.
    assert_eq!(count_overlapping(&s, "[1999-11-20, 1999-11-25]"), 2);
    // What-if: rewind to before they started — conservative index bounds
    // still hand them to the recheck, which correctly rejects them.
    s.set_now_unix(Some(unix("1999-09-01")));
    assert_eq!(count_overlapping(&s, "[1999-11-20, 1999-11-25]"), 0);
}

#[test]
fn index_survives_dml() {
    let (_db, s) = setup(100);
    s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    let before = count_overlapping(&s, "[1990-02-01, 1990-02-10]");
    s.execute(
        "DELETE FROM rx WHERE contains('[1990-02-01, 1990-02-10]'::Period::Element, \
         start(valid))",
    )
    .unwrap();
    let after = count_overlapping(&s, "[1990-02-01, 1990-02-10]");
    assert!(after < before);
    // Updates re-key the index.
    s.execute("UPDATE rx SET valid = '{[1995-06-01, 1995-06-30]}' WHERE id = 0")
        .unwrap();
    assert_eq!(count_overlapping(&s, "[1995-06-10, 1995-06-11]"), 1);
}

#[test]
fn interval_index_persists_in_snapshots() {
    let (db, s) = setup(40);
    s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
    let snap = db.save_snapshot().unwrap();
    let db2 = Database::new();
    db2.install_blade(&TipBlade).unwrap();
    db2.load_snapshot(&snap).unwrap();
    db2.with_tables(|pinned| {
        assert!(pinned.table("rx").unwrap().indexes()[0].is_interval());
    });
    let mut s2 = db2.session();
    s2.set_now_unix(Some(unix("1999-12-01")));
    assert_eq!(
        count_overlapping(&s2, "[1990-01-15, 1990-01-20]"),
        count_overlapping(&s, "[1990-01-15, 1990-01-20]"),
    );
}
