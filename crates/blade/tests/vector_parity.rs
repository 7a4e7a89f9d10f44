//! Executor parity: every query must produce **byte-identical**
//! `format_result` output from the batch engine (`exec::execute`, the one
//! executor sessions run) and from the reference row interpreter
//! (`exec::execute_rows`). Each query is planned once and both run that
//! plan over the same pinned tables. A random table of TIP-typed rows —
//! with NULL and empty-Element lanes — is loaded once per case, then a
//! pool of randomized queries runs: filters, OVERLAPS window probes,
//! point containment, aggregates, ORDER BY/LIMIT, DISTINCT, hash and
//! nested-loop joins, a FROM-less SELECT, and routines with no
//! hand-written kernel (so evaluated through the elementwise wrapper) in
//! filter, projection, aggregate-argument and hash-key position. Several
//! of those routines raise on an empty Element, so a wrapper that touched
//! a lane the filter or CASE had already deselected would fail the query
//! outright. `AS OF` time travel, which only a session can resolve, is
//! checked against the answer captured before the overwrite. UPDATE and
//! DELETE victim selection is checked too: by index probe versus full
//! scan, against the reference interpreter's count, in autocommit and
//! inside a transaction.

use minidb::plan::Planner;
use minidb::sql::ast::Statement;
use minidb::sql::parse_statement;
use minidb::{exec, Database, ExecCtx, QueryResult, StatementOutcome, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use tip_blade::{TipBlade, TipTypes};
use tip_core::{Chronon, Span};

fn date(day: u32) -> String {
    (Chronon::from_ymd(1990, 1, 1).unwrap() + Span::from_days(day as i64)).to_string()
}

/// (id, grp, val, start day, shape). `val < -50` stores a NULL `val`.
/// `shape < 10` stores a NULL `valid`, `shape < 20` the empty Element;
/// above that it is the first period's length in days, and from 220 up
/// a second period follows.
type RxRow = (i64, i64, i64, u32, u32);

fn element_literal(start: u32, shape: u32) -> String {
    match shape {
        0..=9 => "NULL".to_owned(),
        10..=19 => "'{}'".to_owned(),
        _ => {
            let end = start + shape - 19;
            let mut text = format!("'{{[{}, {}]", date(start), date(end));
            if shape >= 220 {
                text.push_str(&format!(", [{}, {}]", date(end + 5), date(end + 5 + shape)));
            }
            text + "}'"
        }
    }
}

fn build(rows: impl IntoIterator<Item = RxRow>) -> std::sync::Arc<Database> {
    let db = Database::new();
    db.install_blade(&TipBlade).expect("fresh db");
    let s = db.session();
    s.execute("CREATE TABLE rx (id INT, grp INT, val INT, valid Element)")
        .expect("ddl");
    let tuples: Vec<String> = rows
        .into_iter()
        .map(|(id, grp, val, start, shape)| {
            let val = if val < -50 {
                "NULL".to_owned()
            } else {
                val.to_string()
            };
            format!("({id}, {grp}, {val}, {})", element_literal(start, shape))
        })
        .collect();
    for chunk in tuples.chunks(500) {
        s.execute(&format!("INSERT INTO rx VALUES {}", chunk.join(", ")))
            .expect("insert");
    }
    db
}

/// Plans `sql` once and runs the plan on both executors. Every query in
/// the pool is valid and cannot legitimately fail, so an error on either
/// side is a failure, not a symmetric outcome to tolerate. `shape`, when
/// given, must appear in the plan's description: it pins a query to the
/// operator it is in the pool to exercise.
fn check(db: &Database, sql: &str, shape: Option<&str>) {
    let Ok(Statement::Select(select)) = parse_statement(sql) else {
        panic!("not a SELECT: {sql}");
    };
    let ctx = ExecCtx::new(0);
    let params = HashMap::new();
    let (columns, batch, reference) = db.with_catalog(|catalog| {
        db.with_tables(|tables| {
            let planned = Planner::new(catalog, tables, &params, ctx.clone())
                .plan_select(&select)
                .unwrap_or_else(|e| panic!("planning failed for {sql}: {e}"));
            let described = planned.plan.describe();
            if let Some(shape) = shape {
                assert!(described.contains(shape), "{sql} planned as {described}");
            }
            let batch = exec::execute(&planned.plan, tables, &ctx)
                .unwrap_or_else(|e| panic!("batch engine failed for {sql}: {e}"));
            let reference = exec::execute_rows(&planned.plan, tables, &ctx, None)
                .unwrap_or_else(|e| panic!("reference interpreter failed for {sql}: {e}"));
            (planned.columns, batch, reference)
        })
    });
    let render = |rows| {
        db.format_result(&QueryResult {
            columns: columns.clone(),
            rows,
        })
    };
    assert_eq!(
        render(batch),
        render(reference),
        "output diverges for {sql}"
    );
}

/// The query pool over `rx`, each with the plan shape it must take (if it
/// is there for one).
fn pool(c1: i64, lo: &str, hi: &str, point: &str, lim: u64) -> Vec<(String, Option<&'static str>)> {
    let window = format!("'{{[{lo}, {hi}]}}'::Element");
    let period = format!("'[{lo}, {hi}]'::Period");
    let q = |sql: String| (sql, None);
    vec![
        q(format!("SELECT id, grp, val FROM rx WHERE val > {c1}")),
        q(format!("SELECT id FROM rx WHERE overlaps(valid, {window})")),
        q(format!(
            "SELECT id FROM rx WHERE contains(valid, '{point}'::Chronon)"
        )),
        q("SELECT grp, COUNT(*), SUM(val) FROM rx GROUP BY grp ORDER BY grp".to_owned()),
        q(format!(
            "SELECT id, val FROM rx WHERE val > {c1} OR grp = 2 ORDER BY id DESC LIMIT {lim}"
        )),
        q(format!(
            "SELECT COUNT(*) FROM rx WHERE overlaps(valid, {window}) AND val > {c1}"
        )),
        q("SELECT DISTINCT grp FROM rx ORDER BY grp".to_owned()),
        (
            format!(
                "SELECT a.id, b.id FROM rx a, rx b \
                 WHERE a.grp = b.grp AND a.val > b.val ORDER BY a.id, b.id LIMIT {lim}"
            ),
            Some("hashjoin"),
        ),
        // Kernel-less routines in filter position. `start` raises on an
        // empty Element: only the AND's surviving lanes may reach it.
        q(format!(
            "SELECT id FROM rx WHERE is_empty(valid) = FALSE AND val > {c1}"
        )),
        q(format!(
            "SELECT id FROM rx WHERE NOT is_empty(valid) AND start(valid) < '{point}'::Chronon"
        )),
        // ... in projection position, over a filtered scan and under CASE.
        q("SELECT id, start(valid), end(valid) FROM rx WHERE NOT is_empty(valid)".to_owned()),
        q(
            "SELECT id, CASE WHEN is_empty(valid) THEN NULL ELSE finish(valid) END FROM rx"
                .to_owned(),
        ),
        q(format!(
            "SELECT id, total_seconds(length(restrict(valid, {period}))) FROM rx \
             WHERE grp < 3 ORDER BY id LIMIT {lim}"
        )),
        q(format!(
            "SELECT id, union(valid, {window}), difference(valid, {window}) FROM rx"
        )),
        // ... as aggregate arguments and as a group key.
        q(format!(
            "SELECT grp, SUM(total_seconds(length(valid))), \
             length(group_union(restrict(valid, {period}))) FROM rx GROUP BY grp ORDER BY grp"
        )),
        q(
            "SELECT is_empty(valid), COUNT(*) FROM rx GROUP BY is_empty(valid) ORDER BY 2, 1"
                .to_owned(),
        ),
        // ... as hash keys on both sides of a join.
        (
            "SELECT a.id, b.id FROM rx a, rx b \
             WHERE total_seconds(length(a.valid)) = total_seconds(length(b.valid)) \
               AND a.id < b.id"
                .to_owned(),
            Some("hashjoin"),
        ),
        // A non-equi join is a nested loop; its raw order is under check.
        (
            "SELECT a.id, b.id FROM rx a, rx b \
             WHERE a.grp = 0 AND b.id < 100 AND overlaps(a.valid, b.valid)"
                .to_owned(),
            Some("nljoin"),
        ),
        (
            format!(
                "SELECT a.id, b.val FROM rx a, rx b WHERE b.id < 40 AND a.val < b.val OFFSET {lim}"
            ),
            Some("nljoin"),
        ),
        // No FROM: a `Nothing` plan under the projection.
        (
            format!("SELECT 1 + {c1}, total_seconds(length({window}))"),
            Some("nothing"),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_engine_and_reference_interpreter_agree(
        rows in proptest::collection::vec(
            (0i64..200, 0i64..4, -60i64..50, 0u32..3000, 0u32..420),
            0..60,
        ),
        params in (-50i64..50, 0u32..3200, 0u32..3200, 0u32..3400, 1u64..20),
    ) {
        let (c1, d1, d2, point, lim) = params;
        let db = build(rows);
        let session = db.session();

        let sql = format!("SELECT id, grp, val FROM rx WHERE val > {c1}");
        let before = session.format_result(&session.query(&sql).expect("select"));
        let seq = db.commit_seq();
        session
            .execute(&format!("UPDATE rx SET val = {c1} WHERE grp = 1"))
            .expect("update");
        let as_of = session
            .query(&format!("{sql} AS OF COMMIT {seq}"))
            .expect("as of");
        prop_assert_eq!(before, session.format_result(&as_of));

        let (lo, hi) = (date(d1.min(d2)), date(d1.max(d2)));
        for (sql, shape) in pool(c1, &lo, &hi, &date(point), lim) {
            check(&db, &sql, shape);
        }
    }
}

/// The same pool over a table several batches long, so selections,
/// LIMIT/OFFSET cut-offs and join probes cross batch boundaries.
#[test]
fn executors_agree_across_batch_boundaries() {
    let rows = (0..2600u32).map(|i| {
        (
            i64::from(i),
            i64::from(i % 40),
            i64::from(i * 7 % 110) - 60,
            i * 13 % 3000,
            i * 11 % 420,
        )
    });
    let db = build(rows);
    for (sql, shape) in pool(3, &date(900), &date(1400), &date(1200), 1500) {
        check(&db, &sql, shape);
    }
}

// ----- DML: index probes versus full scans versus the reference -------

/// The NOW every DML case runs under: mid-way through the generated
/// history, so open-ended `[start, NOW]` validities are partly empty.
const DML_NOW: &str = "1996-06-01";

/// Deterministic Prescription rows (an LCG), a few more than one batch,
/// with NULL, empty, NOW-relative, one- and two-period validities.
fn prescription_tuples() -> Vec<String> {
    let drugs = ["Tylenol", "Aspirin", "Diabeta", "Prozac", "Zantac"];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    (0..1200u32)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as u32;
            let start = r % 3000;
            let valid = match i % 41 {
                0..=3 => format!("'{{[{}, NOW]}}'", date(start)),
                _ => element_literal(start, (r >> 12) % 420),
            };
            format!(
                "('D{}', 'P{}', '{}', '{}', {}, '{}', {valid})",
                r % 8,
                (r >> 4) % 150,
                date(r % 500),
                drugs[(r >> 8) as usize % drugs.len()],
                (r >> 3) % 500,
                1 + r % 3,
            )
        })
        .collect()
}

/// The same Prescription data, with (`ix_patient`, `ix_doctor`,
/// `ix_valid`) or without indexes.
fn prescriptions(indexed: bool) -> std::sync::Arc<Database> {
    let db = Database::new();
    db.install_blade(&TipBlade).expect("fresh db");
    let s = db.session();
    s.execute(
        "CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), \
         patientDOB Chronon, drug CHAR(20), dosage INT, frequency Span, valid Element)",
    )
    .expect("ddl");
    for chunk in prescription_tuples().chunks(400) {
        s.execute(&format!(
            "INSERT INTO Prescription VALUES {}",
            chunk.join(", ")
        ))
        .expect("insert");
    }
    if indexed {
        for col in ["patient", "doctor", "valid"] {
            s.execute(&format!("CREATE INDEX ix_{col} ON Prescription({col})"))
                .expect("index");
        }
    }
    db
}

/// One predicate shape: the WHERE an UPDATE (with `set`) and then a
/// DELETE run with, after an optional preparatory statement, and the
/// access path it must take on the indexed database.
struct DmlCase {
    pre: Option<&'static str>,
    where_: &'static str,
    set: &'static str,
    params: fn(&TipTypes) -> Vec<(&'static str, Value)>,
    probe: &'static str,
}

fn dml_cases() -> Vec<DmlCase> {
    vec![
        // Key equality.
        DmlCase {
            pre: None,
            where_: "patient = :p",
            set: "dosage = dosage + 1",
            params: |_| vec![("p", Value::Str("P7".into()))],
            probe: "ixscan(Prescription)",
        },
        // A NULL key matches nothing, probed or scanned.
        DmlCase {
            pre: None,
            where_: "patient = :p",
            set: "dosage = 0",
            params: |_| vec![("p", Value::Null)],
            probe: "ixscan(Prescription)",
        },
        // A range on doctor.
        DmlCase {
            pre: None,
            where_: "doctor >= :lo AND doctor < :hi",
            set: "drug = 'Generic'",
            params: |_| {
                vec![
                    ("lo", Value::Str("D2".into())),
                    ("hi", Value::Str("D5".into())),
                ]
            },
            probe: "irscan(Prescription)",
        },
        DmlCase {
            pre: None,
            where_: "overlaps(valid, :e)",
            set: "dosage = dosage * 2",
            params: |t| vec![("e", element(t, "{[1993-03-01, 1993-06-30]}"))],
            probe: "ivscan(Prescription)",
        },
        DmlCase {
            pre: None,
            where_: "contains(valid, :t)",
            set: "doctor = 'Dc'",
            params: |t| vec![("t", chronon(t, "1994-02-15"))],
            probe: "ivscan(Prescription)",
        },
        // NOW-dependent, under the session's NOW override.
        DmlCase {
            pre: None,
            where_: "contains(valid, now())",
            set: "doctor = 'Dnow'",
            params: |_| Vec::new(),
            probe: "ivscan(Prescription)",
        },
        DmlCase {
            pre: None,
            where_:
                "patient IN (SELECT patient FROM Prescription WHERE drug = :d AND dosage > 400)",
            set: "dosage = -1",
            params: |_| vec![("d", Value::Str("Tylenol".into()))],
            probe: "scan(Prescription)[f]",
        },
        // Mkaouar et al.'s close-validity: end every period of one
        // doctor's prescriptions still valid at :t there.
        DmlCase {
            pre: None,
            where_: "doctor = :doc AND contains(valid, :t)",
            set: "valid = restrict(valid, :upto)",
            params: |t| {
                vec![
                    ("doc", Value::Str("D3".into())),
                    ("t", chronon(t, "1994-02-15")),
                    ("upto", period(t, "[1990-01-01, 1994-02-15]")),
                ]
            },
            probe: "ixscan(Prescription)",
        },
        // …and split-period: a sequenced update over :w keeps the part
        // outside the window as a copy and changes the part inside.
        DmlCase {
            pre: Some(
                "INSERT INTO Prescription SELECT doctor, patient, patientDOB, drug, dosage, \
                 frequency, difference(valid, :w) FROM Prescription \
                 WHERE drug = :d AND overlaps(valid, :w)",
            ),
            where_: "drug = :d AND overlaps(valid, :w)",
            set: "dosage = dosage * 10, valid = intersect(valid, :w)",
            params: |t| {
                vec![
                    ("d", Value::Str("Aspirin".into())),
                    ("w", element(t, "{[1995-01-01, 1995-12-31]}")),
                ]
            },
            probe: "ivscan(Prescription)",
        },
    ]
}

fn element(t: &TipTypes, text: &str) -> Value {
    t.element(text.parse().expect("element literal"))
}

fn chronon(t: &TipTypes, text: &str) -> Value {
    t.chronon(text.parse().expect("chronon literal"))
}

fn period(t: &TipTypes, text: &str) -> Value {
    t.period(text.parse().expect("period literal"))
}

/// `SELECT COUNT(*) … WHERE` on the reference row interpreter.
fn reference_count(db: &Database, where_: &str, params: &[(&str, Value)], now: i64) -> i64 {
    let sql = format!("SELECT COUNT(*) FROM Prescription WHERE {where_}");
    let Ok(Statement::Select(select)) = parse_statement(&sql) else {
        panic!("not a SELECT: {sql}");
    };
    let params: HashMap<String, Value> = params
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect();
    let ctx = ExecCtx::with_params(now, std::sync::Arc::new(params.clone()));
    let rows = db.with_catalog(|catalog| {
        db.with_tables(|tables| {
            let planned = Planner::new(catalog, tables, &params, ctx.clone())
                .plan_select(&select)
                .unwrap_or_else(|e| panic!("planning failed for {sql}: {e}"));
            exec::execute_rows(&planned.plan, tables, &ctx, None)
                .unwrap_or_else(|e| panic!("reference interpreter failed for {sql}: {e}"))
        })
    });
    rows[0][0].as_int().expect("COUNT(*)")
}

/// Runs one case's statements on a fresh database, in autocommit or
/// inside one BEGIN … COMMIT. Returns the UPDATE's and the DELETE's
/// affected counts and `SELECT *` afterwards.
fn run_dml_case(case: &DmlCase, indexed: bool, txn: bool) -> (Vec<i64>, String) {
    let db = prescriptions(indexed);
    let now = tip_blade::chronon_to_unix(DML_NOW.parse().expect("NOW"));
    let params = (case.params)(&db.with_catalog(TipTypes::from_catalog).expect("types"));
    let mut s = db.session();
    s.set_now_unix(Some(now));
    let update = format!("UPDATE Prescription SET {} WHERE {}", case.set, case.where_);
    let delete = format!("DELETE FROM Prescription WHERE {}", case.where_);
    if !txn {
        let probe = if indexed {
            case.probe
        } else {
            "scan(Prescription)"
        };
        for sql in [&update, &delete] {
            let plan = s.query_with_params(&format!("EXPLAIN {sql}"), &params);
            let plan = plan.unwrap_or_else(|e| panic!("EXPLAIN {sql}: {e}")).rows[0][0].clone();
            let plan = plan.as_str().expect("plan text");
            assert!(plan.contains(probe), "{sql} planned as {plan}");
        }
    }
    if txn {
        s.execute("BEGIN").expect("begin");
    }
    if let Some(pre) = case.pre {
        s.execute_with_params(pre, &params)
            .expect("preparatory statement");
    }
    let mut counts = Vec::new();
    for sql in [&update, &delete] {
        let expected = (!txn).then(|| reference_count(&db, case.where_, &params, now));
        let n = match s.execute_with_params(sql, &params) {
            Ok(StatementOutcome::Affected(n)) => n as i64,
            other => panic!("{sql}: {other:?}"),
        };
        if let Some(expected) = expected {
            assert_eq!(n, expected, "{sql}: victims vs the reference count");
        }
        counts.push(n);
    }
    if txn {
        s.execute("COMMIT").expect("commit");
    }
    let all = s.query("SELECT * FROM Prescription").expect("select *");
    (counts, s.format_result(&all))
}

/// UPDATE and DELETE find the same victims by index probe as by full
/// scan, as many as the reference interpreter counts, and leave
/// byte-identical tables — in autocommit and inside a transaction.
#[test]
fn dml_victims_agree_across_access_paths_and_with_the_reference() {
    let mut touched = 0;
    for case in dml_cases() {
        let auto = run_dml_case(&case, true, false);
        assert_eq!(auto, run_dml_case(&case, false, false), "{}", case.where_);
        let txn = run_dml_case(&case, true, true);
        assert_eq!(txn, run_dml_case(&case, false, true), "{}", case.where_);
        assert_eq!(auto, txn, "{}: autocommit vs transaction", case.where_);
        touched += auto.0[0];
    }
    assert!(touched > 100, "the cases change rows: {touched}");
}
