//! The temporal predicate table, overload by overload: each of the 14
//! registered predicates (10 `Period × Period`, `overlaps` and `contains`
//! on `Element × Element`, `contains` on `Element × Chronon` and on
//! `Period × Chronon`) is checked against `tip_core` over every pair of a
//! grid of periods — fixed, NOW-relative, empty at NOW, and NULL — and
//! every Allen predicate against the name `allen(p, q)` gives the pair.
//!
//! Each predicate runs three ways over one plan per query:
//! * column against column on the batch engine (`exec::execute`, the
//!   kernel over two column vectors);
//! * the same plan on the reference interpreter (`exec::execute_rows`,
//!   the scalar form, one row at a time);
//! * in a WHERE with a constant operand on either side, the kernel with
//!   that operand resolved once per batch.

use minidb::plan::Planner;
use minidb::sql::ast::Statement;
use minidb::sql::parse_statement;
use minidb::{exec, Database, ExecCtx, Row, Value};
use std::collections::HashMap;
use std::sync::Arc;
use tip_blade::{chronon_to_unix, TipBlade};
use tip_core::{allen, Chronon, Element, Period, ResolvedElement, ResolvedPeriod};

/// Second `k` of the test timeline. NOW is second 3, and chronons are
/// seconds, so `meets` (end + 1 = start) occurs on the grid.
fn at(k: u32) -> String {
    format!("1999-01-01 00:00:{k:02}")
}

fn now() -> Chronon {
    at(3).parse().expect("chronon")
}

/// Period literals (`None` is NULL): every fixed period on seconds 0..=5,
/// NOW-relative ones, and two that are empty at NOW.
fn periods() -> Vec<Option<String>> {
    let mut out = vec![None];
    for s in 0..=5 {
        for e in s..=5 {
            out.push(Some(format!("[{}, {}]", at(s), at(e))));
        }
    }
    for p in [
        format!("[{}, NOW]", at(1)),
        format!("[{}, NOW]", at(3)),
        format!("[NOW, {}]", at(4)),
        "[NOW-0 00:00:01, NOW]".to_owned(),
        format!("[{}, NOW]", at(5)), // empty at NOW
        format!("[NOW, {}]", at(2)), // empty at NOW
    ] {
        out.push(Some(p));
    }
    out
}

/// Element literals (`None` is NULL), NOW-relative and empty ones among
/// them.
fn elements() -> Vec<Option<String>> {
    let mut out = vec![None, Some("{}".to_owned())];
    for (s, e) in [(0, 1), (1, 4), (2, 2), (3, 5), (4, 5)] {
        out.push(Some(format!("{{[{}, {}]}}", at(s), at(e))));
    }
    for text in [
        format!("{{[{}, {}], [{}, {}]}}", at(0), at(1), at(4), at(5)),
        format!("{{[{}, NOW]}}", at(2)),
        format!("{{[{}, {}], [NOW, {}]}}", at(0), at(0), at(5)),
        format!("{{[{}, NOW]}}", at(4)),
    ] {
        out.push(Some(text));
    }
    out
}

fn chronons() -> Vec<Option<String>> {
    std::iter::once(None)
        .chain((0..=5).map(|k| Some(at(k))))
        .collect()
}

fn literal(text: &Option<String>, ty: &str) -> String {
    match text {
        None => "NULL".to_owned(),
        Some(t) => format!("'{t}'::{ty}"),
    }
}

/// [`literal`] as a typed constant operand: a bare NULL would leave
/// `contains(NULL, c)` ambiguous between its two `× Chronon` overloads.
fn constant(text: &Option<String>, ty: &str) -> String {
    match text {
        None => {
            let never = match ty {
                "Chronon" => at(0),
                "Period" => format!("[{0}, {0}]", at(0)),
                _ => "{}".to_owned(),
            };
            format!("CASE WHEN 1 = 0 THEN '{never}'::{ty} END")
        }
        Some(_) => literal(text, ty),
    }
}

fn period(text: &Option<String>) -> Option<Option<ResolvedPeriod>> {
    let p: Period = text.as_ref()?.parse().expect("period literal");
    Some(p.resolve(now()).expect("resolves"))
}

fn element(text: &Option<String>) -> Option<ResolvedElement> {
    let e: Element = text.as_ref()?.parse().expect("element literal");
    Some(e.resolve(now()).expect("resolves"))
}

fn chronon(text: &Option<String>) -> Option<Chronon> {
    Some(text.as_ref()?.parse().expect("chronon literal"))
}

/// The Allen relation each `Period × Period` predicate names, or `None`
/// for `overlaps` and `contains`, which `tip_core` defines directly.
const PERIOD_PREDICATES: [(&str, Option<&str>); 10] = [
    ("overlaps", None),
    ("contains", None),
    ("before", Some("before")),
    ("meets", Some("meets")),
    ("overlaps_strict", Some("overlaps")),
    ("starts", Some("starts")),
    ("during", Some("during")),
    ("finishes", Some("finishes")),
    ("after", Some("after")),
    ("met_by", Some("met_by")),
];

/// The expected value of `name(x, y)` for two Period operands.
fn expect_pp(
    name: &str,
    x: Option<Option<ResolvedPeriod>>,
    y: Option<Option<ResolvedPeriod>>,
) -> Value {
    let (Some(x), Some(y)) = (x, y) else {
        return Value::Null; // strict NULL
    };
    let (Some(x), Some(y)) = (x, y) else {
        return Value::Bool(false); // an empty period satisfies nothing
    };
    let relation = allen::relation(x, y).name();
    let holds = match PERIOD_PREDICATES.iter().find(|(n, _)| *n == name) {
        Some((_, Some(named))) => relation == *named,
        Some((_, None)) if name == "overlaps" => {
            let by_name = !["before", "meets", "met_by", "after"].contains(&relation);
            assert_eq!(x.overlaps(y), by_name, "overlaps vs allen {relation}");
            by_name
        }
        Some((_, None)) => {
            let by_name = ["equals", "contains", "started_by", "finished_by"].contains(&relation);
            assert_eq!(
                x.contains_period(y),
                by_name,
                "contains vs allen {relation}"
            );
            by_name
        }
        None => unreachable!("{name} is not a Period predicate"),
    };
    Value::Bool(holds)
}

struct Pair {
    p: Option<String>,
    q: Option<String>,
    e: Option<String>,
    f: Option<String>,
    c: Option<String>,
}

/// The expected value of every column `SELECT_LIST` produces for one row.
fn expect_row(r: &Pair) -> Vec<Value> {
    let (p, q) = (period(&r.p), period(&r.q));
    let (e, f, c) = (element(&r.e), element(&r.f), chronon(&r.c));
    let mut out: Vec<Value> = PERIOD_PREDICATES
        .iter()
        .map(|(name, _)| expect_pp(name, p, q))
        .collect();
    let strict = |v: Option<bool>| v.map_or(Value::Null, Value::Bool);
    out.push(strict(
        e.as_ref().zip(f.as_ref()).map(|(e, f)| e.overlaps(f)),
    ));
    out.push(strict(
        e.as_ref()
            .zip(f.as_ref())
            .map(|(e, f)| e.contains_element(f)),
    ));
    out.push(strict(
        e.as_ref().zip(c).map(|(e, c)| e.contains_chronon(c)),
    ));
    out.push(strict(
        p.zip(c)
            .map(|(p, c)| p.is_some_and(|p| p.contains_chronon(c))),
    ));
    out
}

/// The 14 predicate calls, in the order [`expect_row`] lists them.
fn select_list() -> String {
    let mut calls: Vec<String> = PERIOD_PREDICATES
        .iter()
        .map(|(name, _)| format!("{name}(p, q)"))
        .collect();
    calls.extend(
        [
            "overlaps(e, f)",
            "contains(e, f)",
            "contains(e, c)",
            "contains(p, c)",
        ]
        .map(String::from),
    );
    calls.join(", ")
}

fn pairs() -> Vec<Pair> {
    let (ps, es, cs) = (periods(), elements(), chronons());
    let mut out = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        for (j, q) in ps.iter().enumerate() {
            out.push(Pair {
                p: p.clone(),
                q: q.clone(),
                e: es[i % es.len()].clone(),
                f: es[(i + j) % es.len()].clone(),
                c: cs[(i * 7 + j) % cs.len()].clone(),
            });
        }
    }
    out
}

fn load(pairs: &[Pair]) -> Arc<Database> {
    let db = Database::new();
    db.install_blade(&TipBlade).expect("fresh db");
    let s = db.session();
    s.execute("CREATE TABLE pairs (id INT, p Period, q Period, e Element, f Element, c Chronon)")
        .expect("ddl");
    let tuples: Vec<String> = pairs
        .iter()
        .enumerate()
        .map(|(id, r)| {
            format!(
                "({id}, {}, {}, {}, {}, {})",
                literal(&r.p, "Period"),
                literal(&r.q, "Period"),
                literal(&r.e, "Element"),
                literal(&r.f, "Element"),
                literal(&r.c, "Chronon"),
            )
        })
        .collect();
    for chunk in tuples.chunks(200) {
        s.execute(&format!("INSERT INTO pairs VALUES {}", chunk.join(", ")))
            .expect("insert");
    }
    db
}

/// Plans `sql` once at the test's NOW and runs it on the batch engine
/// and on the reference interpreter.
fn run(db: &Database, sql: &str) -> (Vec<Row>, Vec<Row>) {
    let Ok(Statement::Select(select)) = parse_statement(sql) else {
        panic!("not a SELECT: {sql}");
    };
    let ctx = ExecCtx::new(chronon_to_unix(now()));
    let params = HashMap::new();
    db.with_catalog(|catalog| {
        db.with_tables(|tables| {
            let planned = Planner::new(catalog, tables, &params, ctx.clone())
                .plan_select(&select)
                .unwrap_or_else(|e| panic!("planning failed for {sql}: {e}"));
            let batch = exec::execute(&planned.plan, tables, &ctx)
                .unwrap_or_else(|e| panic!("batch engine failed for {sql}: {e}"));
            let rows = exec::execute_rows(&planned.plan, tables, &ctx, None)
                .unwrap_or_else(|e| panic!("reference interpreter failed for {sql}: {e}"));
            (batch, rows)
        })
    })
}

fn by_id(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| r[0].as_int().expect("id"));
    rows
}

#[test]
fn every_predicate_matches_tip_core_column_against_column_and_row_by_row() {
    let pairs = pairs();
    let db = load(&pairs);
    let sql = format!("SELECT id, {} FROM pairs", select_list());
    let (batch, rows) = run(&db, &sql);
    let names: Vec<String> = select_list().split(", ").map(String::from).collect();
    for (how, got) in [("kernel", by_id(batch)), ("scalar", by_id(rows))] {
        assert_eq!(got.len(), pairs.len(), "{how}: row count");
        for (row, pair) in got.iter().zip(&pairs) {
            for ((name, got), want) in names.iter().zip(&row[1..]).zip(expect_row(pair)) {
                assert_eq!(
                    *got, want,
                    "{how}: {name} with p={:?} q={:?} e={:?} f={:?} c={:?}",
                    pair.p, pair.q, pair.e, pair.f, pair.c
                );
            }
        }
    }
}

#[test]
fn every_predicate_matches_tip_core_against_a_constant_operand() {
    let pairs = pairs();
    let db = load(&pairs);
    let ids = |sql: &str| {
        let (batch, rows) = run(&db, sql);
        let ids = |rows: Vec<Row>| -> Vec<i64> {
            by_id(rows)
                .iter()
                .map(|r| r[0].as_int().expect("id"))
                .collect()
        };
        let (batch, rows) = (ids(batch), ids(rows));
        assert_eq!(batch, rows, "kernel and scalar disagree on {sql}");
        batch
    };
    let matching = |want: &dyn Fn(&Pair) -> Value| -> Vec<i64> {
        (0..pairs.len() as i64)
            .filter(|&i| want(&pairs[i as usize]) == Value::Bool(true))
            .collect()
    };
    // Every period as the constant, on either side, against column `p`.
    for k in periods() {
        let lit = constant(&k, "Period");
        let konst = period(&k);
        for (name, _) in PERIOD_PREDICATES {
            let right = ids(&format!("SELECT id FROM pairs WHERE {name}(p, {lit})"));
            assert_eq!(
                right,
                matching(&|r| expect_pp(name, period(&r.p), konst)),
                "{name}(p, {lit})"
            );
            let left = ids(&format!("SELECT id FROM pairs WHERE {name}({lit}, p)"));
            assert_eq!(
                left,
                matching(&|r| expect_pp(name, konst, period(&r.p))),
                "{name}({lit}, p)"
            );
        }
        let chronon_col = ids(&format!("SELECT id FROM pairs WHERE contains({lit}, c)"));
        let want = matching(&|r| match (konst, chronon(&r.c)) {
            (Some(p), Some(c)) => Value::Bool(p.is_some_and(|p| p.contains_chronon(c))),
            _ => Value::Null,
        });
        assert_eq!(chronon_col, want, "contains({lit}, c)");
    }
    // Every element as the constant, on either side, against column `e`,
    // and every chronon against column `e` and `p`.
    for k in elements() {
        let lit = constant(&k, "Element");
        let konst = element(&k);
        let both = |x: Option<ResolvedElement>,
                    y: Option<ResolvedElement>,
                    f: fn(&ResolvedElement, &ResolvedElement) -> bool| {
            x.zip(y)
                .map_or(Value::Null, |(x, y)| Value::Bool(f(&x, &y)))
        };
        for (name, f) in [
            ("overlaps", ResolvedElement::overlaps as fn(&_, &_) -> bool),
            ("contains", ResolvedElement::contains_element),
        ] {
            let right = ids(&format!("SELECT id FROM pairs WHERE {name}(e, {lit})"));
            assert_eq!(
                right,
                matching(&|r| both(element(&r.e), konst.clone(), f)),
                "{name}(e, {lit})"
            );
            let left = ids(&format!("SELECT id FROM pairs WHERE {name}({lit}, e)"));
            assert_eq!(
                left,
                matching(&|r| both(konst.clone(), element(&r.e), f)),
                "{name}({lit}, e)"
            );
        }
    }
    for k in chronons() {
        let lit = constant(&k, "Chronon");
        let konst = chronon(&k);
        let in_e = ids(&format!("SELECT id FROM pairs WHERE contains(e, {lit})"));
        let want = matching(&|r| {
            element(&r.e)
                .zip(konst)
                .map_or(Value::Null, |(e, c)| Value::Bool(e.contains_chronon(c)))
        });
        assert_eq!(in_e, want, "contains(e, {lit})");
        let in_p = ids(&format!("SELECT id FROM pairs WHERE contains(p, {lit})"));
        let want = matching(&|r| {
            period(&r.p).zip(konst).map_or(Value::Null, |(p, c)| {
                Value::Bool(p.is_some_and(|p| p.contains_chronon(c)))
            })
        });
        assert_eq!(in_p, want, "contains(p, {lit})");
    }
}

#[test]
fn the_allen_routine_names_the_relation_each_predicate_tests() {
    // The SQL `allen(p, q)` routine, on every pair of non-empty periods,
    // agrees with the relation name the oracle above reads from tip_core.
    let ps: Vec<Option<String>> = periods()
        .into_iter()
        .filter(|p| matches!(period(p), Some(Some(_))))
        .collect();
    let db = Database::new();
    db.install_blade(&TipBlade).expect("fresh db");
    let s = db.session();
    s.execute("CREATE TABLE t (id INT, p Period, q Period)")
        .expect("ddl");
    let mut want = Vec::new();
    let mut tuples = Vec::new();
    for p in &ps {
        for q in &ps {
            let (Some(Some(x)), Some(Some(y))) = (period(p), period(q)) else {
                unreachable!("filtered to non-empty periods")
            };
            tuples.push(format!(
                "({}, {}, {})",
                want.len(),
                literal(p, "Period"),
                literal(q, "Period")
            ));
            want.push(allen::relation(x, y).name().to_owned());
        }
    }
    s.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
        .expect("insert");
    let (batch, rows) = run(&db, "SELECT id, allen(p, q) FROM t");
    for got in [by_id(batch), by_id(rows)] {
        let names: Vec<String> = got
            .iter()
            .map(|r| r[1].as_str().expect("relation name").to_owned())
            .collect();
        assert_eq!(names, want);
    }
}
