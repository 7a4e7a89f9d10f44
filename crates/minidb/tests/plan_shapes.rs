//! Planner-shape tests via EXPLAIN: predicate pushdown, join algorithm
//! selection, index selection, constant folding, and the NOW-dependence
//! barrier — the optimizer behaviours DESIGN.md commits to.

use minidb::catalog::{Catalog, FunctionOverload};
use minidb::{Blade, DataType, Database, DbResult, StatementOutcome, UdtValue, Value};
use std::sync::Arc;

mod common;

fn explain(db: &std::sync::Arc<Database>, sql: &str) -> String {
    let s = db.session();
    let r = s.query(&format!("EXPLAIN {sql}")).unwrap();
    r.rows[0][0].as_str().unwrap().to_owned()
}

fn db() -> std::sync::Arc<Database> {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE a (id INT, x INT)").unwrap();
    s.execute("CREATE TABLE b (id INT, y INT)").unwrap();
    s.execute("INSERT INTO a VALUES (1, 10), (2, 20)").unwrap();
    s.execute("INSERT INTO b VALUES (1, 100), (3, 300)")
        .unwrap();
    db
}

#[test]
fn single_table_conjuncts_are_pushed_into_the_scan() {
    let db = db();
    let plan = explain(&db, "SELECT a.id FROM a, b WHERE a.x > 5 AND b.y > 50");
    // Both filters sit on the scans ([f]), not above the join.
    assert!(plan.contains("scan(a)[f]"), "{plan}");
    assert!(plan.contains("scan(b)[f]"), "{plan}");
    assert!(!plan.starts_with("filter"), "{plan}");
}

#[test]
fn equality_across_tables_becomes_a_hash_join() {
    let db = db();
    let plan = explain(&db, "SELECT a.id FROM a, b WHERE a.id = b.id");
    assert!(plan.contains("hashjoin(scan(a),scan(b))"), "{plan}");
    // Non-equality falls back to a nested loop.
    let plan = explain(&db, "SELECT a.id FROM a, b WHERE a.id < b.id");
    assert!(plan.contains("nljoin"), "{plan}");
    // No predicate at all: cross product.
    let plan = explain(&db, "SELECT a.id FROM a, b");
    assert!(plan.contains("nljoin(scan(a),scan(b))"), "{plan}");
}

#[test]
fn index_selected_only_when_present_and_applicable() {
    let db = db();
    let before = explain(&db, "SELECT x FROM a WHERE id = 1");
    assert!(before.contains("scan(a)[f]"), "{before}");
    db.session()
        .execute("CREATE INDEX ix_a_id ON a(id)")
        .unwrap();
    let after = explain(&db, "SELECT x FROM a WHERE id = 1");
    assert!(after.contains("ixscan(a)"), "{after}");
    // Inequality cannot use the equality index.
    let range = explain(&db, "SELECT x FROM a WHERE id > 1");
    assert!(range.contains("scan(a)[f]"), "{range}");
    // Neither can an equality against another column of the same table.
    let cross = explain(&db, "SELECT x FROM a WHERE id = x");
    assert!(cross.contains("scan(a)[f]"), "{cross}");
}

#[test]
fn order_limit_distinct_stack_in_the_right_order() {
    let db = db();
    let plan = explain(&db, "SELECT DISTINCT x FROM a ORDER BY x LIMIT 5");
    assert_eq!(plan, "limit(sort(distinct(project(scan(a)))))");
    let plan = explain(&db, "SELECT x FROM a ORDER BY id LIMIT 5 OFFSET 2");
    // ORDER BY a non-projected column adds a hidden column (take).
    assert_eq!(plan, "limit(offset(take(sort(project(scan(a))))))");
}

#[test]
fn aggregation_plans() {
    let db = db();
    let plan = explain(
        &db,
        "SELECT x, COUNT(*) FROM a GROUP BY x HAVING COUNT(*) > 1",
    );
    assert_eq!(plan, "project(filter(agg(scan(a))))");
    let plan = explain(&db, "SELECT COUNT(*) FROM a");
    assert_eq!(plan, "project(agg(scan(a)))");
}

#[test]
fn union_plans() {
    let db = db();
    let plan = explain(&db, "SELECT id FROM a UNION ALL SELECT id FROM b");
    assert_eq!(plan, "union(project(scan(a)),project(scan(b)))");
    let plan = explain(&db, "SELECT id FROM a UNION SELECT id FROM b ORDER BY id");
    assert_eq!(
        plan,
        "sort(distinct(union(project(scan(a)),project(scan(b)))))"
    );
}

#[test]
fn scalar_subqueries_fold_into_the_plan() {
    let db = db();
    // The subquery is evaluated at plan time; the outer plan is a plain
    // filtered scan with a literal, not some subplan operator.
    let plan = explain(&db, "SELECT id FROM a WHERE x > (SELECT MIN(y) FROM b)");
    assert_eq!(plan, "project(scan(a)[f])");
}

/// A blade with one now-dependent and one pure function, to observe the
/// constant-folding barrier directly.
struct FoldProbe;
impl Blade for FoldProbe {
    fn name(&self) -> &str {
        "fold-probe"
    }
    fn version(&self) -> &str {
        "0"
    }
    fn register(&self, cat: &mut Catalog) -> DbResult<()> {
        cat.register_function(
            "txn_time",
            FunctionOverload::new(
                vec![],
                DataType::Int,
                true,
                Arc::new(|ctx, _| Ok(Value::Int(ctx.txn_time_unix))),
            ),
        )?;
        cat.register_function(
            "pure_seven",
            FunctionOverload::new(
                vec![],
                DataType::Int,
                false,
                Arc::new(|_, _| Ok(Value::Int(7))),
            ),
        )
    }
}

#[test]
fn now_dependent_expressions_survive_folding_and_reevaluate() {
    let db = Database::new();
    db.install_blade(&FoldProbe).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    // Pure functions fold; the same query under two different NOWs gives
    // the same constant.
    s.set_now_unix(Some(1_000));
    let r1 = s.query("SELECT pure_seven() + 1 FROM t").unwrap();
    assert_eq!(r1.rows[0][0].as_int(), Some(8));
    // txn_time() must NOT fold: different override, different answer.
    let t1 = s.query("SELECT txn_time() FROM t").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    s.set_now_unix(Some(2_000));
    let t2 = s.query("SELECT txn_time() FROM t").unwrap().rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(t1, 1_000);
    assert_eq!(t2, 2_000);
}

#[test]
fn explain_of_the_paper_self_join_shape() {
    // The E5 query plans as: hash join on patient with both drug filters
    // pushed into the scans.
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE p (patient CHAR(10), drug CHAR(10))")
        .unwrap();
    let plan = explain(
        &db,
        "SELECT p1.patient FROM p p1, p p2 \
         WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND p1.patient = p2.patient",
    );
    assert_eq!(plan, "project(hashjoin(scan(p)[f],scan(p)[f]))");
}

#[test]
fn range_predicates_use_the_btree_index() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, x INT)").unwrap();
    for i in 0..200 {
        s.execute_with_params(
            "INSERT INTO t VALUES (:i, :x)",
            &[("i", Value::Int(i)), ("x", Value::Int(i * 10))],
        )
        .unwrap();
    }
    s.execute("CREATE INDEX ix_id ON t(id)").unwrap();
    // One-sided and two-sided ranges plan as irscan.
    for (sql, expect) in [
        ("SELECT x FROM t WHERE id > 150", 49i64),
        ("SELECT x FROM t WHERE id >= 150", 50),
        ("SELECT x FROM t WHERE id < 10", 10),
        ("SELECT x FROM t WHERE id BETWEEN 10 AND 19", 10),
        ("SELECT x FROM t WHERE id >= 20 AND id <= 29", 10),
        ("SELECT x FROM t WHERE 100 <= id AND id < 110", 10),
    ] {
        let plan = explain(&db, sql);
        assert!(plan.contains("irscan(t)"), "{sql}: {plan}");
        let count = db
            .session()
            .query(&sql.replace("SELECT x", "SELECT COUNT(*)"))
            .unwrap()
            .rows[0][0]
            .as_int()
            .unwrap();
        assert_eq!(count, expect, "{sql}");
    }
    // Equality still wins over range when both are available.
    let plan = explain(&db, "SELECT x FROM t WHERE id = 5 AND id < 100");
    assert!(plan.contains("ixscan(t)"), "{plan}");
    // NULL keys are never returned by a range probe.
    s.execute("INSERT INTO t VALUES (NULL, -1)").unwrap();
    let count = db
        .session()
        .query("SELECT COUNT(*) FROM t WHERE id < 1000")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    assert_eq!(count, 200);
}

#[test]
fn range_probe_answers_match_full_scans() {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE plain (v INT)").unwrap();
    s.execute("CREATE TABLE ixed (v INT)").unwrap();
    for i in 0..300 {
        for t in ["plain", "ixed"] {
            s.execute_with_params(
                &format!("INSERT INTO {t} VALUES (:v)"),
                &[("v", Value::Int((i * 7) % 100))],
            )
            .unwrap();
        }
    }
    s.execute("CREATE INDEX ix_v ON ixed(v)").unwrap();
    for pred in [
        "v < 13",
        "v >= 90",
        "v BETWEEN 40 AND 60",
        "v > 20 AND v <= 21",
    ] {
        let a = s
            .query(&format!("SELECT COUNT(*) FROM plain WHERE {pred}"))
            .unwrap()
            .rows[0][0]
            .as_int();
        let b = s
            .query(&format!("SELECT COUNT(*) FROM ixed WHERE {pred}"))
            .unwrap()
            .rows[0][0]
            .as_int();
        assert_eq!(a, b, "{pred}");
    }
}

/// UPDATE and DELETE find their rows through the same access paths as a
/// SELECT with their WHERE: the B-tree probe for a key, the interval
/// probe for `overlaps`, each counted in SHOW STATS like a SELECT's.
#[test]
fn dml_victims_are_found_through_index_probes() {
    let db = Database::new();
    db.install_blade(&common::IntervalBlade).unwrap();
    let s = db.session();
    let interval = |lo: i64, hi: i64| match db.with_catalog(|c| c.lookup_type_name("Interval")) {
        Ok(DataType::Udt(id)) => Value::Udt(UdtValue::new(id, Arc::new(common::Validity(lo, hi)))),
        other => panic!("Interval resolved to {other:?}"),
    };
    s.execute("CREATE TABLE h (id INT, valid Interval)")
        .unwrap();
    for i in 0..50 {
        s.execute_with_params(
            "INSERT INTO h VALUES (:i, :v)",
            &[("i", Value::Int(i)), ("v", interval(i * 10, i * 10 + 5))],
        )
        .unwrap();
    }
    s.execute("CREATE INDEX ix_id ON h(id)").unwrap();
    s.execute("CREATE INDEX ix_valid ON h(valid)").unwrap();
    let stat = |name: &str| -> i64 {
        let r = s.query("SHOW STATS").unwrap();
        let row = r.rows.iter().find(|r| r[0].as_str() == Some(name));
        row.and_then(|r| r[1].as_int()).expect("metric row")
    };

    assert_eq!(
        explain(&db, "UPDATE h SET id = id + 100 WHERE id = 7"),
        "update(h) over ixscan(h)[f]"
    );
    let window = interval(100, 125);
    let plan = s
        .query_with_params(
            "EXPLAIN DELETE FROM h WHERE overlaps(valid, :e)",
            &[("e", window.clone())],
        )
        .unwrap();
    assert_eq!(
        plan.rows[0][0].as_str(),
        Some("delete(h) over ivscan(h)[f]")
    );

    let eq_before = stat("scans.index_eq");
    for k in 1..=3i64 {
        let n = s
            .execute_with_params(
                "UPDATE h SET id = id + 100 WHERE id = :k",
                &[("k", Value::Int(k))],
            )
            .unwrap();
        assert!(matches!(n, StatementOutcome::Affected(1)), "{n:?}");
        assert_eq!(stat("scans.index_eq"), eq_before + k);
    }
    let overlap_before = stat("scans.index_overlap");
    let n = s
        .execute_with_params("DELETE FROM h WHERE overlaps(valid, :e)", &[("e", window)])
        .unwrap();
    // [100, 125] meets rows 10, 11 and 12 ([100,105], [110,115], [120,125]).
    assert!(matches!(n, StatementOutcome::Affected(3)), "{n:?}");
    assert_eq!(stat("scans.index_overlap"), overlap_before + 1);
    let r = s.query("SELECT COUNT(*) FROM h").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(47));
}
