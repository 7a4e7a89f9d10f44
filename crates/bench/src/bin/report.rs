//! Regenerates every experiment of `EXPERIMENTS.md` and prints the
//! paper-style tables. Run with a subset of experiment ids, or nothing
//! for all of them:
//!
//! ```text
//! cargo run --release -p tip-bench --bin report            # all
//! cargo run --release -p tip-bench --bin report -- e3 e5   # subset
//! ```

use std::time::Duration;
use tip_bench::*;
use tip_core::{binary, Chronon, Element, ResolvedPeriod};
use tip_workload::random_resolved_elements;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    println!("TIP reproduction — experiment report");
    println!("(NOW pinned to {}, workload seed 42)\n", experiment_now());
    if want("e2") {
        e2_demo_queries();
    }
    if want("e3") {
        e3_element_linearity();
    }
    if want("e4") {
        e4_coalescing();
    }
    if want("e5") {
        e5_integrated_vs_layered();
    }
    if want("e6") {
        e6_now_sweep();
    }
    if want("e7") {
        e7_query_complexity();
    }
    if want("e8") {
        e8_codec();
    }
    if want("e9") {
        e9_ablations();
    }
    if want("e10") {
        e10_period_index();
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// E2 — the paper's §2 demonstration queries on the seed-42 database.
fn e2_demo_queries() {
    header("E2: paper §2 demonstration queries (seed-42 medical database)");
    let setup = setup_tip(&sweep_config(200));
    let s = &setup.session;

    println!("\n[Q1] prescriptions stored with TIP-typed columns:");
    let r = s.query("SELECT COUNT(*) FROM Prescription").unwrap();
    println!("  COUNT(*) = {}", r.rows[0][0].as_int().unwrap());

    println!("\n[Q2] Tylenol before :w weeks of age (w = 150):");
    let r = s
        .query_with_params(
            "SELECT patient, start(valid) - patientDOB AS age FROM Prescription \
             WHERE drug = 'Tylenol' AND start(valid) - patientDOB < '7 00:00:00'::Span * :w \
             ORDER BY patient LIMIT 5",
            &[("w", minidb::Value::Int(150))],
        )
        .unwrap();
    print!("{}", s.format_result(&r));

    println!("\n[Q3] Diabeta ∧ Aspirin simultaneously (temporal self-join):");
    let r = s.query(TIP_SELF_JOIN_SQL).unwrap();
    println!(
        "  {} overlapping prescription pair(s); first rows:",
        r.rows.len()
    );
    let preview = minidb::QueryResult {
        columns: r.columns.clone(),
        rows: r.rows.iter().take(4).cloned().collect(),
    };
    print!("{}", s.format_result(&preview));

    println!("\n[Q4] coalesced medication time vs naive SUM (first 5 patients):");
    let r = s
        .query(
            "SELECT patient, length(group_union(valid)) AS coalesced, \
             SUM(total_seconds(length(valid))) AS naive_secs \
             FROM Prescription GROUP BY patient ORDER BY patient LIMIT 5",
        )
        .unwrap();
    print!("{}", s.format_result(&r));
    println!();
}

/// E3 — Element set operations are linear in the number of periods
/// (paper §3).
fn e3_element_linearity() {
    header("E3: Element algebra scaling (linear-time claim, paper §3)");
    println!(
        "{:>8} | {:>12} {:>12} {:>12} {:>12} | ns/period (union)",
        "periods", "union us", "intersect us", "difference us", "overlaps us"
    );
    for n in [16usize, 64, 256, 1024, 4096, 16384, 65536] {
        let es = random_resolved_elements(7, 2, n, 36_500);
        let (a, b) = (&es[0], &es[1]);
        let budget = Duration::from_millis(60);
        let t_union = mean_time(budget, || {
            std::hint::black_box(a.union(b));
        });
        let t_inter = mean_time(budget, || {
            std::hint::black_box(a.intersect(b));
        });
        let t_diff = mean_time(budget, || {
            std::hint::black_box(a.difference(b));
        });
        let t_over = mean_time(budget, || {
            std::hint::black_box(a.overlaps(b));
        });
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>12.2} {:>12.2} | {:.2}",
            n,
            us(t_union),
            us(t_inter),
            us(t_diff),
            us(t_over),
            t_union.as_nanos() as f64 / n as f64
        );
    }
    println!("(linear algorithms: ns/period stays roughly flat as n grows)\n");
}

/// E4 — coalescing: TIP `group_union` vs the layered stratum, plus the
/// SUM-vs-group_union discrepancy the paper warns about.
fn e4_coalescing() {
    header("E4: coalescing — group_union vs layered stratum vs naive SUM");
    println!(
        "{:>8} | {:>14} | {:>14} | {:>8} | {:>10}",
        "rx rows", "TIP ms", "layered ms", "speedup", "SUM wrong?"
    );
    for n in [200usize, 1000, 4000] {
        let cfg = sweep_config(n);
        let tip = setup_tip(&cfg);
        let mut layered = setup_layered(&cfg);
        let (tg, tip_t) = run_tip_coalesce(&tip);
        let (lg, lay_t) = run_layered_coalesce(&mut layered);
        assert_eq!(tg, lg, "group counts agree");
        // How many patients have a naive SUM that over-counts?
        let r = tip
            .session
            .query(
                "SELECT patient, total_seconds(length(group_union(valid))) AS c, \
                 SUM(total_seconds(length(valid))) AS s \
                 FROM Prescription GROUP BY patient",
            )
            .unwrap();
        let wrong = r
            .rows
            .iter()
            .filter(|row| row[2].as_int().unwrap() > row[1].as_int().unwrap())
            .count();
        println!(
            "{:>8} | {:>14.3} | {:>14.3} | {:>7.2}x | {:>4}/{:<5}",
            n,
            tip_t.as_secs_f64() * 1e3,
            lay_t.as_secs_f64() * 1e3,
            lay_t.as_secs_f64() / tip_t.as_secs_f64(),
            wrong,
            r.rows.len()
        );
    }
    println!("(SUM wrong? = patients whose SUM(length) over-counts overlapping periods)\n");
}

/// E5 — integrated (DataBlade) vs layered (TimeDB-style) execution.
fn e5_integrated_vs_layered() {
    header("E5: temporal self-join — integrated TIP vs layered translation");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>8} | {:>10} | {:>12}",
        "rx rows", "TIP ms", "layered ms", "rows out", "lay rows", "lay shipped"
    );
    for n in [100usize, 400, 1600] {
        let cfg = sweep_config(n);
        let tip = setup_tip(&cfg);
        let mut layered = setup_layered(&cfg);
        layered.reset_stats();
        let (tip_rows, tip_t) = run_tip_self_join(&tip);
        let (lay_rows, lay_t) = run_layered_self_join(&mut layered);
        println!(
            "{:>8} | {:>12.3} | {:>12.3} | {:>8} | {:>10} | {:>12}",
            n,
            tip_t.as_secs_f64() * 1e3,
            lay_t.as_secs_f64() * 1e3,
            tip_rows,
            lay_rows,
            layered.stats().rows_shipped
        );
    }
    println!(
        "(layered row counts exceed TIP's: one row per period fragment; every one \
         crosses the DBMS boundary)\n"
    );
}

/// E6 — NOW-relative query results change as time advances (paper §2/§4).
fn e6_now_sweep() {
    header("E6: NOW-relative semantics — same data, different transaction times");
    let cfg = sweep_config(300);
    let tip = setup_tip(&cfg);
    let mut session = tip.db.session();
    println!(
        "{:>12} | {:>16} | {:>22}",
        "NOW", "open rx valid", "total coalesced days"
    );
    for (y, m, d) in [(1996, 1, 1), (1997, 6, 1), (1999, 12, 1), (2003, 1, 1)] {
        let now = Chronon::from_ymd(y, m, d).unwrap();
        session.set_now_unix(Some(tip_blade::chronon_to_unix(now)));
        let valid_open = session
            .query(
                "SELECT COUNT(*) FROM Prescription \
                 WHERE is_now_relative(valid) AND is_empty(valid) = FALSE",
            )
            .unwrap();
        let total = session
            .query(
                "SELECT patient, total_seconds(length(group_union(valid))) \
                 FROM Prescription GROUP BY patient",
            )
            .unwrap();
        let days: i64 = total
            .rows
            .iter()
            .map(|r| r[1].as_int().unwrap_or(0))
            .sum::<i64>()
            / 86_400;
        println!(
            "{:>12} | {:>16} | {:>22}",
            now.to_string(),
            valid_open.rows[0][0].as_int().unwrap(),
            days
        );
    }
    println!("(identical stored data; only the interpretation of NOW moves)\n");
}

/// E7 — query complexity: what the user writes (TIP) vs what the layered
/// stratum generates and does.
fn e7_query_complexity() {
    header("E7: query complexity — user-visible TIP SQL vs layered machinery");
    let mut layered = setup_layered(&sweep_config(200));
    let w = ResolvedPeriod::new(
        Chronon::from_ymd(1998, 1, 1).unwrap(),
        Chronon::from_ymd(1998, 12, 31).unwrap(),
    )
    .unwrap();
    let rows = [
        (
            "window selection",
            tip_window_sql(w).len(),
            layered
                .overlap_selection_sql("Prescription", &["patient", "drug"], w)
                .len(),
            1usize,
        ),
        (
            "temporal self-join",
            TIP_SELF_JOIN_SQL.len(),
            layered
                .temporal_join_sql(
                    "Prescription",
                    "Prescription",
                    &["a.patient"],
                    LAYERED_JOIN_PRED,
                )
                .len(),
            1,
        ),
    ];
    println!(
        "{:>20} | {:>10} | {:>13} | {:>14}",
        "operation", "TIP chars", "layered chars", "lay statements"
    );
    for (name, tip_chars, lay_chars, stmts) in rows {
        println!("{name:>20} | {tip_chars:>10} | {lay_chars:>13} | {stmts:>14}");
    }
    // Coalescing: not expressible in the layered SQL at all.
    layered.reset_stats();
    layered.coalesce("Prescription", "patient").unwrap();
    let st = layered.stats();
    println!(
        "{:>20} | {:>10} | {:>13} | {:>14}",
        "coalescing",
        TIP_COALESCE_SQL.len(),
        st.sql_chars,
        st.statements
    );
    let tip_answer_rows = setup_tip(&sweep_config(200))
        .session
        .query(TIP_COALESCE_SQL)
        .unwrap()
        .rows
        .len();
    println!(
        "(layered coalescing also ships {} period rows out of the DBMS; TIP ships only \
         the {}-row answer)\n",
        st.rows_shipped, tip_answer_rows
    );
}

/// E9 — engine ablations: the design choices DESIGN.md calls out.
fn e9_ablations() {
    header("E9: ablations — index scan, join algorithm, temporal aggregation");
    // Index vs full scan.
    let build = |with_index: bool| {
        let db = minidb::Database::new();
        let s = db.session();
        s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
        for i in 0..10_000usize {
            s.execute_with_params(
                "INSERT INTO t VALUES (:k, :v)",
                &[
                    ("k", minidb::Value::Int((i % 100) as i64)),
                    ("v", minidb::Value::Int(i as i64)),
                ],
            )
            .unwrap();
        }
        if with_index {
            s.execute("CREATE INDEX ix_k ON t(k)").unwrap();
        }
        db
    };
    let budget = Duration::from_millis(80);
    let db_plain = build(false);
    let db_ix = build(true);
    let q = "SELECT COUNT(*) FROM t WHERE k = 37";
    let s_plain = db_plain.session();
    let s_ix = db_ix.session();
    let t_scan = mean_time(budget, || {
        s_plain.query(q).unwrap();
    });
    let t_ix = mean_time(budget, || {
        s_ix.query(q).unwrap();
    });
    println!(
        "point lookup, 10k rows:   full scan {:>9.1} us | index {:>9.1} us | {:>5.1}x",
        us(t_scan),
        us(t_ix),
        t_scan.as_secs_f64() / t_ix.as_secs_f64()
    );
    // The sessions' query metrics confirm which access path actually ran.
    let (mp, mi) = (s_plain.metrics().snapshot(), s_ix.metrics().snapshot());
    println!(
        "  access paths:           plain: {} full scans ({} rows scanned) | \
         indexed: {} index-eq scans ({} rows), hit rate {:.0}%",
        mp.full_scans,
        mp.rows_scanned,
        mi.index_eq_scans,
        mi.rows_scanned,
        mi.index_hit_rate().unwrap_or(0.0) * 100.0
    );
    // Hash join vs nested loop (equality written two ways).
    let db = build(false);
    let s = db.session();
    s.execute("DELETE FROM t WHERE v >= 500").unwrap();
    let t_hash = mean_time(budget, || {
        s.query("SELECT COUNT(*) FROM t a, t b WHERE a.v = b.v")
            .unwrap();
    });
    let t_nl = mean_time(budget, || {
        s.query("SELECT COUNT(*) FROM t a, t b WHERE a.v <= b.v AND a.v >= b.v")
            .unwrap();
    });
    println!(
        "self-join, 500 rows:      nested loop {:>6.2} ms | hash join {:>6.2} ms | {:>5.1}x",
        t_nl.as_secs_f64() * 1e3,
        t_hash.as_secs_f64() * 1e3,
        t_nl.as_secs_f64() / t_hash.as_secs_f64()
    );
    // The reference row interpreter vs the batch engine on the same plans.
    println!("reference interpreter vs batch engine (identical plans, 10k-row scans):");
    for (label, sql) in [
        ("point filter", "SELECT COUNT(*) FROM t WHERE k = 37"),
        (
            "range filter",
            "SELECT COUNT(*) FROM t WHERE v >= 2500 AND v < 7500",
        ),
        ("filtered sum", "SELECT SUM(v) FROM t WHERE k < 50"),
    ] {
        let (t_row, t_batch, _) = time_executors(&db_plain, sql, budget);
        println!(
            "  {:>14}: reference {:>8.1} us | batch {:>8.1} us | {:>4.1}x",
            label,
            us(t_row),
            us(t_batch),
            t_row.as_secs_f64() / t_batch.as_secs_f64()
        );
    }
    // Temporal aggregation sweep scaling.
    println!("temporal COUNT sweep (constant intervals from n periods):");
    for n in [100usize, 1_000, 10_000] {
        let periods: Vec<tip_core::ResolvedPeriod> = random_resolved_elements(3, n, 4, 3650)
            .iter()
            .flat_map(|e| e.periods().to_vec())
            .collect();
        let t = mean_time(budget, || {
            std::hint::black_box(tip_core::tagg::temporal_count(&periods));
        });
        println!(
            "  n = {:>6}: {:>9.1} us  ({:.1} ns/period)",
            periods.len(),
            us(t),
            t.as_nanos() as f64 / periods.len() as f64
        );
    }
    println!();
}

/// E10 — the period (interval) index of the paper's reference [2]:
/// overlap queries with and without an interval index on the Element
/// column, across selectivities.
fn e10_period_index() {
    use tip_core::Span;
    header("E10: period index — overlaps() with and without an interval index");
    let n = 20_000usize;
    let build = |with_index: bool| {
        let setup = setup_tip(&sweep_config(0)); // empty Prescription table
        let s = &setup.session;
        s.execute("CREATE TABLE rx (id INT, valid Element)")
            .unwrap();
        let base: Chronon = Chronon::from_ymd(1990, 1, 1).unwrap();
        let mut sql = String::new();
        for i in 0..n {
            let start = base + Span::from_days((i % 3650) as i64);
            let end = start + Span::from_days(10);
            if i % 500 == 0 {
                if !sql.is_empty() {
                    s.execute(&sql).unwrap();
                }
                sql = format!("INSERT INTO rx VALUES ({i}, '{{[{start}, {end}]}}')");
            } else {
                sql.push_str(&format!(", ({i}, '{{[{start}, {end}]}}')"));
            }
        }
        s.execute(&sql).unwrap();
        if with_index {
            s.execute("CREATE INDEX ix_valid ON rx(valid)").unwrap();
        }
        setup
    };
    let plain = build(false);
    let indexed = build(true);
    println!(
        "{:>22} | {:>9} | {:>9} | {:>7} | {:>9} | {:>7} | {:>8}",
        "window", "ref us", "batch us", "vec", "ivscan us", "ix", "rows"
    );
    let budget = Duration::from_millis(100);
    for (label, window) in [
        ("1 week", "{[1994-06-01, 1994-06-07]}"),
        ("3 months", "{[1994-06-01, 1994-08-31]}"),
        ("2 years", "{[1994-01-01, 1995-12-31]}"),
    ] {
        let sql = format!("SELECT COUNT(*) FROM rx WHERE overlaps(valid, '{window}'::Element)");
        let (t_row, t_batch, answer) = time_executors(&plain.db, &sql, budget);
        let rows = answer[0][0].as_int().unwrap();
        for setup in [&plain, &indexed] {
            let got = setup.session.query(&sql).unwrap().rows[0][0].as_int();
            assert_eq!(
                got,
                Some(rows),
                "a session must answer as the bare executors do"
            );
        }
        let t_ix = mean_time(budget, || {
            indexed.session.query(&sql).unwrap();
        });
        println!(
            "{:>22} | {:>9.1} | {:>9.1} | {:>6.1}x | {:>9.1} | {:>6.1}x | {:>8}",
            label,
            us(t_row),
            us(t_batch),
            t_row.as_secs_f64() / t_batch.as_secs_f64(),
            us(t_ix),
            t_row.as_secs_f64() / t_ix.as_secs_f64(),
            rows
        );
    }
    let (mp, mi) = (
        plain.session.metrics().snapshot(),
        indexed.session.metrics().snapshot(),
    );
    println!(
        "(access paths: plain session ran {} full scans scanning {} rows; indexed session \
         ran {} interval-index scans scanning {} rows, index hit rate {:.0}%)",
        mp.full_scans,
        mp.rows_scanned,
        mi.index_overlap_scans,
        mi.rows_scanned,
        mi.index_hit_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "(20k ten-day prescriptions over a decade; bucketed interval index, \
         30-day stride, conservative candidates + exact recheck)\n"
    );
}

/// E8 — the "efficient binary format" (paper §2): binary vs text codec.
fn e8_codec() {
    header("E8: storage codec — binary vs text (size and speed)");
    println!(
        "{:>8} | {:>10} {:>10} {:>7} | {:>12} {:>12}",
        "periods", "bin bytes", "txt bytes", "ratio", "bin enc us", "txt enc us"
    );
    for n in [1usize, 10, 100, 1000] {
        let e: Element = random_resolved_elements(11, 1, n, 36_500)[0].clone().into();
        let bin = binary::element_to_vec(&e);
        let txt = e.to_string();
        let budget = Duration::from_millis(40);
        let t_bin = mean_time(budget, || {
            std::hint::black_box(binary::element_to_vec(&e));
        });
        let t_txt = mean_time(budget, || {
            std::hint::black_box(e.to_string());
        });
        println!(
            "{:>8} | {:>10} {:>10} {:>6.2}x | {:>12.2} {:>12.2}",
            n,
            bin.len(),
            txt.len(),
            txt.len() as f64 / bin.len() as f64,
            us(t_bin),
            us(t_txt)
        );
    }
    println!("(binary round-trip also validated by tip-core property tests)\n");
}
