use super::*;

fn db() -> Arc<Database> {
    Database::new()
}

fn ints(result: &QueryResult, col: usize) -> Vec<i64> {
    result
        .rows
        .iter()
        .map(|r| r[col].as_int().unwrap())
        .collect()
}

#[test]
fn create_insert_select() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, name CHAR(20))").unwrap();
    let out = s
        .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    assert!(matches!(out, StatementOutcome::Affected(3)));
    let r = s
        .query("SELECT id, name FROM t WHERE id >= 2 ORDER BY id DESC")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![3, 2]);
    assert_eq!(r.columns[1].0, "name");
}

#[test]
fn select_without_from() {
    let db = db();
    let s = db.session();
    let r = s.query("SELECT 1 + 2 AS three, 'x'").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert_eq!(r.columns[0].0, "three");
}

#[test]
fn wildcards_and_aliases() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let r = s.query("SELECT * FROM t").unwrap();
    assert_eq!(r.columns.len(), 2);
    let r = s.query("SELECT x.b, x.a FROM t x").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(10));
}

#[test]
fn joins_comma_and_explicit() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE a (id INT, v CHAR(5))").unwrap();
    s.execute("CREATE TABLE b (id INT, w CHAR(5))").unwrap();
    s.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    s.execute("INSERT INTO b VALUES (2, 'q'), (3, 'r')")
        .unwrap();
    let r1 = s
        .query("SELECT a.v, b.w FROM a, b WHERE a.id = b.id")
        .unwrap();
    assert_eq!(r1.rows.len(), 1);
    assert_eq!(r1.rows[0][0].as_str(), Some("y"));
    let r2 = s
        .query("SELECT a.v, b.w FROM a JOIN b ON a.id = b.id")
        .unwrap();
    assert_eq!(r2.rows.len(), 1);
    // Cross join.
    let r3 = s.query("SELECT a.id FROM a, b").unwrap();
    assert_eq!(r3.rows.len(), 4);
}

#[test]
fn group_by_and_having() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE sales (region CHAR(5), amount INT)")
        .unwrap();
    s.execute("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5), ('west', 1)")
        .unwrap();
    let r = s
        .query(
            "SELECT region, SUM(amount), COUNT(*) FROM sales \
             GROUP BY region HAVING SUM(amount) > 10 ORDER BY region",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_str(), Some("east"));
    assert_eq!(r.rows[0][1].as_int(), Some(30));
    assert_eq!(r.rows[0][2].as_int(), Some(2));
}

#[test]
fn global_aggregate_on_empty_table() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    let r = s.query("SELECT COUNT(*), SUM(a), MIN(a) FROM t").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_int(), Some(0));
    assert_eq!(r.rows[0][1].as_int(), Some(0));
    assert!(r.rows[0][2].is_null());
}

#[test]
fn aggregates_skip_nulls() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (NULL), (3)").unwrap();
    let r = s.query("SELECT COUNT(a), SUM(a), AVG(a) FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(2));
    assert_eq!(r.rows[0][1].as_int(), Some(4));
    assert_eq!(r.rows[0][2].as_float(), Some(2.0));
}

#[test]
fn distinct_and_limit() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (1), (2), (2), (3)")
        .unwrap();
    let r = s.query("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
    assert_eq!(ints(&r, 0), vec![1, 2, 3]);
    let r = s
        .query("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1, 2]);
}

#[test]
fn order_by_hidden_column() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 3), (2, 1), (3, 2)")
        .unwrap();
    let r = s.query("SELECT a FROM t ORDER BY b").unwrap();
    assert_eq!(ints(&r, 0), vec![2, 3, 1]);
    assert_eq!(r.columns.len(), 1, "hidden sort column must be stripped");
}

#[test]
fn update_and_delete() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
        .unwrap();
    let out = s.execute("UPDATE t SET b = a * 10 WHERE a >= 2").unwrap();
    assert!(matches!(out, StatementOutcome::Affected(2)));
    let r = s.query("SELECT b FROM t ORDER BY a").unwrap();
    assert_eq!(ints(&r, 0), vec![0, 20, 30]);
    let out = s.execute("DELETE FROM t WHERE b = 0").unwrap();
    assert!(matches!(out, StatementOutcome::Affected(1)));
    let r = s.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(2));
}

#[test]
fn params_flow_through() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute_with_params("INSERT INTO t VALUES (:x)", &[("x", Value::Int(7))])
        .unwrap();
    let r = s
        .query_with_params("SELECT a FROM t WHERE a = :x", &[("x", Value::Int(7))])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let err = s.query("SELECT a FROM t WHERE a = :missing").unwrap_err();
    assert!(matches!(err, DbError::MissingParam { .. }));
}

#[test]
fn index_used_and_correct() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    for i in 0..100 {
        s.execute_with_params(
            "INSERT INTO t VALUES (:i, :j)",
            &[("i", Value::Int(i % 10)), ("j", Value::Int(i))],
        )
        .unwrap();
    }
    s.execute("CREATE INDEX ix_a ON t(a)").unwrap();
    let r = s.query("SELECT COUNT(*) FROM t WHERE a = 3").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(10));
    // Plan shape: the scan becomes an index scan.
    db.with_tables(|pinned| {
        db.with_catalog(|cat| {
            let params = HashMap::new();
            let ctx = ExecCtx::new(0);
            let planner = Planner::new(cat, pinned, &params, ctx);
            let Statement::Select(sel) = parse_statement("SELECT b FROM t WHERE a = 3").unwrap()
            else {
                unreachable!()
            };
            let planned = planner.plan_select(&sel).unwrap();
            assert!(
                planned.plan.describe().contains("ixscan"),
                "{}",
                planned.plan.describe()
            );
        })
    });
}

#[test]
fn hash_join_plan_shape() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE a (id INT)").unwrap();
    s.execute("CREATE TABLE b (id INT)").unwrap();
    db.with_tables(|pinned| {
        db.with_catalog(|cat| {
            let params = HashMap::new();
            let ctx = ExecCtx::new(0);
            let planner = Planner::new(cat, pinned, &params, ctx);
            let Statement::Select(sel) =
                parse_statement("SELECT a.id FROM a, b WHERE a.id = b.id").unwrap()
            else {
                unreachable!()
            };
            let planned = planner.plan_select(&sel).unwrap();
            assert!(
                planned.plan.describe().contains("hashjoin"),
                "{}",
                planned.plan.describe()
            );
        })
    });
}

#[test]
fn drop_table() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("DROP TABLE t").unwrap();
    assert!(s.query("SELECT * FROM t").is_err());
    s.execute("DROP TABLE IF EXISTS t").unwrap();
    assert!(s.execute("DROP TABLE t").is_err());
}

#[test]
fn snapshot_round_trip() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, b CHAR(5))").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    s.execute("CREATE INDEX ix ON t(a)").unwrap();
    let snap = db.save_snapshot().unwrap();

    let db2 = Database::new();
    db2.load_snapshot(&snap).unwrap();
    let s2 = db2.session();
    let r = s2.query("SELECT b FROM t WHERE a = 2").unwrap();
    assert_eq!(r.rows[0][0].as_str(), Some("y"));
}

#[test]
fn format_result_renders_table() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT, name CHAR(10))").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'Showbiz')").unwrap();
    let r = s.query("SELECT * FROM t").unwrap();
    let text = s.format_result(&r);
    assert!(text.contains("Showbiz"));
    assert!(text.contains("| a "));
}

#[test]
fn format_result_survives_degenerate_shapes() {
    let db = db();
    let s = db.session();
    // Zero columns, zero rows: still a (degenerate) table frame.
    let empty = QueryResult {
        columns: vec![],
        rows: vec![],
    };
    let text = s.format_result(&empty);
    assert_eq!(text, "+\n|\n+\n+\n");
    // Zero rows with columns: header only, no row lines.
    let headers_only = QueryResult {
        columns: vec![("a".to_owned(), DataType::Int)],
        rows: vec![],
    };
    let text = s.format_result(&headers_only);
    assert!(text.contains("| a |"));
    // Top rule, header, header rule, bottom rule — no row lines.
    assert_eq!(text.lines().count(), 4);
    // A malformed row wider than the header list must not panic;
    // the extra cells are dropped from the rendering.
    let lopsided = QueryResult {
        columns: vec![("a".to_owned(), DataType::Int)],
        rows: vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
    };
    let text = s.format_result(&lopsided);
    assert!(text.contains("| 1 |"));
    assert!(!text.contains('2'));
}

#[test]
fn errors_surface() {
    let db = db();
    let s = db.session();
    assert!(matches!(
        s.execute("SELECT * FROM missing"),
        Err(DbError::NotFound { .. })
    ));
    s.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(matches!(
        s.execute("CREATE TABLE t (a INT)"),
        Err(DbError::AlreadyExists { .. })
    ));
    assert!(matches!(
        s.execute("INSERT INTO t VALUES (1, 2)"),
        Err(DbError::Constraint { .. })
    ));
    assert!(s.execute("SELECT nosuchfunc(a) FROM t").is_err());
    // Aggregates are rejected in WHERE.
    assert!(s.execute("SELECT a FROM t WHERE SUM(a) > 1").is_err());
    // Non-grouped column in grouped query.
    s.execute("CREATE TABLE g (k INT, v INT)").unwrap();
    assert!(s.execute("SELECT v FROM g GROUP BY k").is_err());
}

#[test]
fn string_coerced_into_column_on_insert() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a FLOAT)").unwrap();
    // INT literal widens to FLOAT implicitly.
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    let r = s.query("SELECT a FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_float(), Some(3.0));
}

#[test]
fn order_by_alias() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (3), (1), (2)").unwrap();
    let r = s
        .query("SELECT a * 2 AS doubled FROM t ORDER BY doubled DESC")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![6, 4, 2]);
}
