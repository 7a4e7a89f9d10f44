//! Views: CREATE VIEW / DROP VIEW, inlining at plan time, nesting,
//! freshness, and persistence.

use minidb::Database;

fn db() -> std::sync::Arc<Database> {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE sales (region CHAR(8), amount INT)")
        .unwrap();
    s.execute("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5), ('north', 40)")
        .unwrap();
    db
}

#[test]
fn create_query_drop() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW big_sales AS SELECT region, amount FROM sales WHERE amount >= 10")
        .unwrap();
    let r = s.query("SELECT COUNT(*) FROM big_sales").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    // Views compose with the full query surface.
    let r = s
        .query(
            "SELECT region, SUM(amount) FROM big_sales GROUP BY region \
             HAVING SUM(amount) > 15 ORDER BY region",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    s.execute("DROP VIEW big_sales").unwrap();
    assert!(s.query("SELECT * FROM big_sales").is_err());
    s.execute("DROP VIEW IF EXISTS big_sales").unwrap();
    assert!(s.execute("DROP VIEW big_sales").is_err());
}

#[test]
fn views_are_always_fresh() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW totals AS SELECT SUM(amount) AS total FROM sales")
        .unwrap();
    let before = s.query("SELECT total FROM totals").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    s.execute("INSERT INTO sales VALUES ('south', 100)")
        .unwrap();
    let after = s.query("SELECT total FROM totals").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(after, before + 100, "view re-evaluates over current data");
}

#[test]
fn views_join_with_tables_and_views() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW east AS SELECT amount FROM sales WHERE region = 'east'")
        .unwrap();
    s.execute("CREATE VIEW west AS SELECT amount FROM sales WHERE region = 'west'")
        .unwrap();
    // View ⋈ view.
    let r = s
        .query("SELECT COUNT(*) FROM east e, west w WHERE e.amount > w.amount")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(2));
    // View ⋈ table with pushed predicate onto the view side.
    let r = s
        .query(
            "SELECT COUNT(*) FROM east e, sales s2 \
             WHERE e.amount = s2.amount AND e.amount >= 20",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(1));
}

#[test]
fn nested_views_and_depth_limit() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW v0 AS SELECT amount FROM sales")
        .unwrap();
    for i in 1..=5 {
        s.execute(&format!(
            "CREATE VIEW v{i} AS SELECT amount FROM v{}",
            i - 1
        ))
        .unwrap();
    }
    let r = s.query("SELECT COUNT(*) FROM v5").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(4));
    // A self-recursive view is caught by the depth guard, not a hang.
    s.execute("CREATE VIEW base AS SELECT amount FROM sales")
        .unwrap();
    s.execute("DROP TABLE sales").unwrap();
    s.execute("CREATE TABLE sales (amount INT)").unwrap();
    // Rebind: create a cycle via two views referencing each other is not
    // directly constructible (creation validates), but deep chains are
    // bounded.
    let mut prev = "v5".to_owned();
    let mut failed = false;
    for i in 6..40 {
        let name = format!("v{i}");
        match s.execute(&format!("CREATE VIEW {name} AS SELECT amount FROM {prev}")) {
            Ok(_) => prev = name,
            Err(e) => {
                assert!(e.to_string().contains("depth"), "{e}");
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "deep view chains must hit the nesting guard");
}

#[test]
fn view_name_collisions_rejected() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW v AS SELECT region FROM sales")
        .unwrap();
    assert!(s
        .execute("CREATE VIEW v AS SELECT region FROM sales")
        .is_err());
    assert!(
        s.execute("CREATE TABLE v (a INT)").is_err(),
        "name shared with a view"
    );
    assert!(
        s.execute("CREATE VIEW sales AS SELECT 1").is_err(),
        "name shared with a table"
    );
    // DROP TABLE does not drop views.
    assert!(s.execute("DROP TABLE v").is_err());
}

#[test]
fn create_view_validates_its_body() {
    let db = db();
    let s = db.session();
    assert!(s
        .execute("CREATE VIEW broken AS SELECT nosuch FROM sales")
        .is_err());
    assert!(s
        .execute("CREATE VIEW broken AS SELECT region FROM missing")
        .is_err());
    assert!(
        s.query("SELECT * FROM broken").is_err(),
        "nothing was stored"
    );
}

#[test]
fn views_persist_in_snapshots() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW big AS SELECT region FROM sales WHERE amount >= 20")
        .unwrap();
    let snap = db.save_snapshot().unwrap();
    let db2 = Database::new();
    db2.load_snapshot(&snap).unwrap();
    let s2 = db2.session();
    let r = s2.query("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(2));
}

#[test]
fn explain_shows_the_inlined_view() {
    let db = db();
    let s = db.session();
    s.execute("CREATE VIEW big AS SELECT region FROM sales WHERE amount >= 20")
        .unwrap();
    let r = s
        .query("EXPLAIN SELECT region FROM big WHERE region = 'east'")
        .unwrap();
    let plan = r.rows[0][0].as_str().unwrap();
    // The view body is inlined (a filtered scan), with the outer
    // predicate layered on top.
    assert!(plan.contains("scan(sales)[f]"), "{plan}");
    assert!(plan.contains("filter("), "{plan}");
}

/// A view takes no host variables: recovery and replicas replay its text
/// with no parameters to bind, so a `:name` in the body is refused with a
/// typed error naming it, even when the statement supplies a value, and
/// nothing is created.
#[test]
fn a_parameter_in_a_view_body_is_refused() {
    let db = db();
    let s = db.session();
    for sql in [
        "CREATE VIEW v AS SELECT region FROM sales WHERE amount = :p",
        "CREATE VIEW v AS SELECT region FROM sales \
         WHERE amount IN (SELECT amount FROM sales WHERE region = :p)",
    ] {
        match s.execute_with_params(sql, &[("p", minidb::Value::Int(3))]) {
            Err(minidb::DbError::Binding { message }) => {
                assert!(message.contains(":p"), "{message}")
            }
            other => panic!("{sql}: expected a Binding error, got {other:?}"),
        }
    }
    assert!(s.query("SELECT * FROM v").is_err(), "no view was created");
}
