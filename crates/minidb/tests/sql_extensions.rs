//! Tests for the extended SQL surface: LIKE, CASE, UNION [ALL],
//! OFFSET, INSERT … SELECT, and EXPLAIN.

use minidb::{Database, DbError, StatementOutcome};

fn db() -> std::sync::Arc<Database> {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, name CHAR(20), score FLOAT)")
        .unwrap();
    s.execute(
        "INSERT INTO t VALUES (1, 'alpha', 1.0), (2, 'beta', 2.5), \
         (3, 'alphabet', 3.0), (4, 'gamma', NULL)",
    )
    .unwrap();
    db
}

fn names(db: &std::sync::Arc<Database>, sql: &str) -> Vec<String> {
    let s = db.session();
    s.query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_owned())
        .collect()
}

#[test]
fn like_patterns() {
    let db = db();
    assert_eq!(
        names(
            &db,
            "SELECT name FROM t WHERE name LIKE 'alpha%' ORDER BY id"
        ),
        ["alpha", "alphabet"]
    );
    assert_eq!(
        names(&db, "SELECT name FROM t WHERE name LIKE '%et'"),
        ["alphabet"]
    );
    assert_eq!(
        names(&db, "SELECT name FROM t WHERE name LIKE '_eta'"),
        ["beta"]
    );
    // 'alpha' has two a's, so it matches '%a%a%' too.
    assert_eq!(
        names(
            &db,
            "SELECT name FROM t WHERE name LIKE '%a%a%' ORDER BY id"
        ),
        ["alpha", "alphabet", "gamma"]
    );
    assert_eq!(
        names(
            &db,
            "SELECT name FROM t WHERE name NOT LIKE '%a%' ORDER BY id"
        ),
        Vec::<String>::new()
    );
    // NULL input -> NULL -> filtered out.
    let s = db.session();
    let r = s
        .query("SELECT COUNT(*) FROM t WHERE name LIKE NULL")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(0));
    // Non-string operands are a type error.
    assert!(matches!(
        s.query("SELECT id LIKE 'x' FROM t"),
        Err(DbError::Type { .. })
    ));
}

#[test]
fn case_searched_and_simple() {
    let db = db();
    let s = db.session();
    let r = s
        .query(
            "SELECT name, CASE WHEN score >= 3.0 THEN 'high' \
                               WHEN score >= 2.0 THEN 'mid' \
                               ELSE 'low' END AS band \
             FROM t ORDER BY id",
        )
        .unwrap();
    let bands: Vec<&str> = r.rows.iter().map(|row| row[1].as_str().unwrap()).collect();
    // NULL score: no branch is TRUE, falls to ELSE.
    assert_eq!(bands, ["low", "mid", "high", "low"]);

    // Simple CASE (operand form) and missing ELSE -> NULL.
    let r = s
        .query("SELECT CASE id WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t ORDER BY id")
        .unwrap();
    assert_eq!(r.rows[0][0].as_str(), Some("one"));
    assert_eq!(r.rows[1][0].as_str(), Some("two"));
    assert!(r.rows[2][0].is_null());
}

#[test]
fn case_branch_types_unify() {
    let db = db();
    let s = db.session();
    // INT branch widens to FLOAT via implicit cast.
    let r = s
        .query("SELECT CASE WHEN id = 1 THEN 1 ELSE 2.5 END FROM t ORDER BY id")
        .unwrap();
    assert_eq!(r.rows[0][0].as_float(), Some(1.0));
    assert_eq!(r.rows[1][0].as_float(), Some(2.5));
    // Irreconcilable branch types error.
    assert!(s
        .query("SELECT CASE WHEN id = 1 THEN 1 ELSE 'x' END FROM t")
        .is_err());
}

#[test]
fn union_and_union_all() {
    let db = db();
    let s = db.session();
    let r = s
        .query("SELECT id FROM t WHERE id <= 2 UNION ALL SELECT id FROM t WHERE id >= 2")
        .unwrap();
    assert_eq!(r.rows.len(), 5, "UNION ALL keeps the duplicate id=2");
    let r = s
        .query(
            "SELECT id FROM t WHERE id <= 2 UNION SELECT id FROM t WHERE id >= 2 \
             ORDER BY id",
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, [1, 2, 3, 4], "plain UNION deduplicates");
    // ORDER BY an ordinal.
    let r = s
        .query("SELECT id, name FROM t UNION ALL SELECT id, name FROM t ORDER BY 1 DESC LIMIT 2")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(4));
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn union_arity_and_type_checks() {
    let db = db();
    let s = db.session();
    assert!(s
        .query("SELECT id FROM t UNION SELECT id, name FROM t")
        .is_err());
    assert!(s
        .query("SELECT id FROM t UNION SELECT name FROM t")
        .is_err());
    // NULL literals unify with any type.
    let r = s
        .query("SELECT id FROM t WHERE id = 1 UNION SELECT NULL")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn offset_pagination() {
    let db = db();
    let s = db.session();
    let page = |off: u64| {
        s.query(&format!(
            "SELECT id FROM t ORDER BY id LIMIT 2 OFFSET {off}"
        ))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect::<Vec<_>>()
    };
    assert_eq!(page(0), [1, 2]);
    assert_eq!(page(2), [3, 4]);
    assert_eq!(page(4), Vec::<i64>::new());
    // OFFSET without LIMIT.
    let r = s.query("SELECT id FROM t ORDER BY id OFFSET 3").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn insert_select_copies_and_coerces() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE archive (id INT, label CHAR(20))")
        .unwrap();
    let out = s
        .execute("INSERT INTO archive SELECT id, name FROM t WHERE id <= 2")
        .unwrap();
    assert!(matches!(out, StatementOutcome::Affected(2)));
    // With a column list and an implicit INT -> FLOAT coercion.
    s.execute("CREATE TABLE scores (v FLOAT)").unwrap();
    s.execute("INSERT INTO scores (v) SELECT id FROM t")
        .unwrap();
    let r = s.query("SELECT SUM(v) FROM scores").unwrap();
    assert_eq!(r.rows[0][0].as_float(), Some(10.0));
    // Arity mismatch is rejected.
    assert!(s.execute("INSERT INTO archive SELECT id FROM t").is_err());
    // Incompatible types are rejected.
    assert!(s
        .execute("INSERT INTO archive SELECT name, name FROM t")
        .is_err());
}

#[test]
fn explain_returns_plan_shape() {
    let db = db();
    let s = db.session();
    s.execute("CREATE INDEX ix_id ON t(id)").unwrap();
    let r = s.query("EXPLAIN SELECT name FROM t WHERE id = 2").unwrap();
    assert_eq!(r.columns[0].0, "plan");
    let plan = r.rows[0][0].as_str().unwrap();
    assert!(plan.contains("ixscan(t)"), "{plan}");
    let r = s
        .query("EXPLAIN SELECT a.id FROM t a, t b WHERE a.id = b.id")
        .unwrap();
    assert!(
        r.rows[0][0].as_str().unwrap().contains("hashjoin"),
        "{:?}",
        r.rows[0][0]
    );
    // UPDATE and DELETE explain as their victim scan; ANALYZE would
    // execute the write, and INSERT has no scan: both are syntax errors.
    let r = s.query("EXPLAIN DELETE FROM t WHERE id = 2").unwrap();
    assert_eq!(r.rows[0][0].as_str(), Some("delete(t) over ixscan(t)[f]"));
    for sql in [
        "EXPLAIN ANALYZE DELETE FROM t",
        "EXPLAIN INSERT INTO t VALUES (9, 'x')",
    ] {
        assert!(
            matches!(s.execute(sql), Err(DbError::Syntax { .. })),
            "{sql}"
        );
    }
}

#[test]
fn case_is_not_constant_folded_incorrectly() {
    // A column-free CASE folds; one with columns does not.
    let db = db();
    let s = db.session();
    let r = s
        .query("SELECT CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END")
        .unwrap();
    assert_eq!(r.rows[0][0].as_str(), Some("y"));
}

#[test]
fn union_inside_insert_select() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE all_ids (id INT)").unwrap();
    s.execute(
        "INSERT INTO all_ids SELECT id FROM t WHERE id <= 2 UNION ALL \
         SELECT id FROM t WHERE id > 2",
    )
    .unwrap();
    let r = s.query("SELECT COUNT(*) FROM all_ids").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(4));
}

#[test]
fn scalar_subqueries() {
    let db = db();
    let s = db.session();
    // Scalar subquery in WHERE: rows above the average score.
    let r = s
        .query("SELECT name FROM t WHERE score > (SELECT AVG(score) FROM t) ORDER BY id")
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
    assert_eq!(names, ["beta", "alphabet"]); // avg of 1.0, 2.5, 3.0 is ~2.17
                                             // Scalar subquery in the select list.
    let r = s.query("SELECT (SELECT MAX(id) FROM t)").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(4));
    // Empty scalar subquery yields NULL.
    let r = s.query("SELECT (SELECT id FROM t WHERE id > 100)").unwrap();
    assert!(r.rows[0][0].is_null());
    // More than one row is an error.
    assert!(s.query("SELECT (SELECT id FROM t)").is_err());
    // More than one column is an error.
    assert!(s
        .query("SELECT (SELECT id, name FROM t WHERE id = 1)")
        .is_err());
}

#[test]
fn in_subqueries() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE vip (id INT)").unwrap();
    s.execute("INSERT INTO vip VALUES (1), (3)").unwrap();
    let r = s
        .query("SELECT name FROM t WHERE id IN (SELECT id FROM vip) ORDER BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0].as_str(), Some("alpha"));
    let r = s
        .query("SELECT name FROM t WHERE id NOT IN (SELECT id FROM vip) ORDER BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0].as_str(), Some("beta"));
    // Empty subquery: IN -> nothing, NOT IN -> everything.
    s.execute("DELETE FROM vip").unwrap();
    assert!(s
        .query("SELECT name FROM t WHERE id IN (SELECT id FROM vip)")
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(
        s.query("SELECT name FROM t WHERE id NOT IN (SELECT id FROM vip)")
            .unwrap()
            .rows
            .len(),
        4
    );
}

#[test]
fn subqueries_in_dml_and_nested() {
    let db = db();
    let s = db.session();
    // UPDATE with a scalar subquery.
    s.execute("UPDATE t SET score = (SELECT MAX(score) FROM t) WHERE id = 4")
        .unwrap();
    let r = s.query("SELECT score FROM t WHERE id = 4").unwrap();
    assert_eq!(r.rows[0][0].as_float(), Some(3.0));
    // DELETE with an IN subquery.
    s.execute("DELETE FROM t WHERE id IN (SELECT id FROM t WHERE score < 2.0)")
        .unwrap();
    let r = s.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    // Nested subqueries.
    let r = s
        .query(
            "SELECT name FROM t WHERE id = \
             (SELECT MIN(id) FROM t WHERE id IN (SELECT id FROM t WHERE score >= 2.5))",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn subquery_depth_is_limited() {
    let db = db();
    let s = db.session();
    let mut sql = String::from("SELECT ");
    for _ in 0..30 {
        sql.push_str("(SELECT ");
    }
    sql.push('1');
    for _ in 0..30 {
        sql.push(')');
    }
    let err = s.query(&sql).unwrap_err();
    assert!(err.to_string().contains("depth"), "{err}");
}

#[test]
fn aggregate_distinct() {
    let db = db();
    let s = db.session();
    s.execute("CREATE TABLE dup (g CHAR(2), v INT)").unwrap();
    s.execute(
        "INSERT INTO dup VALUES ('a', 1), ('a', 1), ('a', 2), ('b', 5), ('b', 5), ('b', NULL)",
    )
    .unwrap();
    let r = s
        .query(
            "SELECT g, COUNT(v), COUNT(DISTINCT v), SUM(DISTINCT v) FROM dup \
             GROUP BY g ORDER BY g",
        )
        .unwrap();
    assert_eq!(r.rows[0][1].as_int(), Some(3)); // a: 1,1,2
    assert_eq!(r.rows[0][2].as_int(), Some(2)); // a: {1,2}
    assert_eq!(r.rows[0][3].as_int(), Some(3)); // 1+2
    assert_eq!(r.rows[1][1].as_int(), Some(2)); // b: 5,5 (NULL skipped)
    assert_eq!(r.rows[1][2].as_int(), Some(1)); // b: {5}
    assert_eq!(r.rows[1][3].as_int(), Some(5));
    // Global DISTINCT aggregate.
    let r = s.query("SELECT COUNT(DISTINCT g) FROM dup").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(2));
    // DISTINCT on a scalar routine is rejected.
    assert!(s.query("SELECT upper(DISTINCT g) FROM dup").is_err());
}

/// An `AS OF` operand is a constant expression: a subquery in it is a
/// typed Binding error saying so, not a lookup of its table against an
/// empty set (which reported an existing table as missing).
#[test]
fn as_of_refuses_a_subquery_operand() {
    let db = db();
    let s = db.session();
    for sql in [
        "SELECT count(*) FROM t AS OF COMMIT (SELECT max(id) FROM t)",
        "SELECT count(*) FROM t AS OF (SELECT max(id) FROM t)",
    ] {
        match s.query(sql) {
            Err(DbError::Binding { message }) => {
                assert!(message.contains("constant expression"), "{message}")
            }
            other => panic!("{sql}: expected a Binding error, got {other:?}"),
        }
    }
    let r = s.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(4));
}
