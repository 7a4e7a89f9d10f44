//! # tip-bench — experiment harness shared by the criterion benches and
//! the `report` binary.
//!
//! Each experiment of `EXPERIMENTS.md` (E2–E8) has a `run_*`/setup
//! function here returning structured numbers, so the quick `report`
//! binary and the statistically careful criterion benches measure the
//! same code paths.

use minidb::plan::Planner;
use minidb::sql::ast::Statement;
use minidb::sql::parse_statement;
use minidb::{exec, Database, ExecCtx, Row, Session};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tip_blade::{TipBlade, TipTypes};
use tip_core::{Chronon, NowContext, ResolvedPeriod};
use tip_layered::LayeredStratum;
use tip_workload::{generate, populate_layered, populate_tip, MedicalConfig};

/// The fixed experiment NOW: 1999-12-01, as in the paper-era demo.
pub fn experiment_now() -> Chronon {
    Chronon::from_ymd(1999, 12, 1).expect("valid date")
}

/// A TIP-enabled database loaded with the synthetic medical workload.
pub struct TipSetup {
    pub db: Arc<Database>,
    pub session: Session,
    pub types: TipTypes,
}

/// Builds and loads a TIP database for a configuration.
pub fn setup_tip(cfg: &MedicalConfig) -> TipSetup {
    let db = Database::new();
    db.install_blade(&TipBlade).expect("fresh db");
    let mut session = db.session();
    session.set_now_unix(Some(tip_blade::chronon_to_unix(experiment_now())));
    let types = db
        .with_catalog(TipTypes::from_catalog)
        .expect("blade installed");
    let med = generate(cfg);
    populate_tip(&session, types, &med).expect("populate");
    TipSetup { db, session, types }
}

/// Builds and loads the layered baseline with the *same* workload.
pub fn setup_layered(cfg: &MedicalConfig) -> LayeredStratum {
    let mut stratum = LayeredStratum::new();
    let med = generate(cfg);
    populate_layered(&mut stratum, &med, NowContext::fixed(experiment_now()))
        .expect("populate layered");
    stratum
}

/// Wall-clock timing of a closure, returning `(result, elapsed)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Runs a closure repeatedly until ~`budget` elapses, returning the mean
/// per-iteration time (quick-and-dirty for the report binary; criterion
/// does this properly).
pub fn mean_time(budget: Duration, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let t0 = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        if (t0.elapsed() >= budget && iters >= 3) || iters >= 10_000 {
            break;
        }
    }
    t0.elapsed() / iters
}

/// E9/E10's executor columns: plans the SELECT `sql` once, then times
/// the reference row interpreter (`exec::execute_rows`) and the batch
/// engine (`exec::execute`) over that one plan and one pin of the
/// tables, so parse, plan and the plan cache stay out of both numbers.
/// Returns `(reference, batch, rows)`; the two must produce the same rows.
pub fn time_executors(
    db: &Database,
    sql: &str,
    budget: Duration,
) -> (Duration, Duration, Vec<Row>) {
    let Ok(Statement::Select(select)) = parse_statement(sql) else {
        panic!("not a SELECT: {sql}");
    };
    let ctx = ExecCtx::new(tip_blade::chronon_to_unix(experiment_now()));
    let params = HashMap::new();
    db.with_catalog(|catalog| {
        db.with_tables(|tables| {
            let plan = Planner::new(catalog, tables, &params, ctx.clone())
                .plan_select(&select)
                .expect("plan")
                .plan;
            let rows = exec::execute(&plan, tables, &ctx).expect("batch engine");
            let reference = exec::execute_rows(&plan, tables, &ctx, None).expect("reference");
            assert_eq!(rows, reference, "executors must agree on: {sql}");
            let t_reference = mean_time(budget, || {
                exec::execute_rows(&plan, tables, &ctx, None).expect("reference");
            });
            let t_batch = mean_time(budget, || {
                exec::execute(&plan, tables, &ctx).expect("batch engine");
            });
            (t_reference, t_batch, rows)
        })
    })
}

// ----- E5/E7: the integrated and layered forms of the same operations -----

/// The TIP (integrated) SQL for the temporal self-join (paper Q3,
/// generalized to the synthetic workload).
pub const TIP_SELF_JOIN_SQL: &str = "SELECT p1.patient, intersect(p1.valid, p2.valid) \
    FROM Prescription p1, Prescription p2 \
    WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' \
      AND p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)";

/// The TIP (integrated) SQL for coalesced medication length (paper Q4).
pub const TIP_COALESCE_SQL: &str =
    "SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient";

/// The TIP (integrated) SQL for an overlap window selection.
pub fn tip_window_sql(window: ResolvedPeriod) -> String {
    format!(
        "SELECT patient, drug, restrict(valid, '[{}, {}]'::Period) \
         FROM Prescription WHERE overlaps(valid, '{{[{}, {}]}}'::Element)",
        window.start(),
        window.end(),
        window.start(),
        window.end()
    )
}

/// Layered self-join predicate matching [`TIP_SELF_JOIN_SQL`].
pub const LAYERED_JOIN_PRED: &str =
    "a.patient = b.patient AND a.drug = 'Diabeta' AND b.drug = 'Aspirin'";

/// Runs the integrated self-join; returns `(result rows, elapsed)`.
pub fn run_tip_self_join(setup: &TipSetup) -> (usize, Duration) {
    let (r, d) = time(|| setup.session.query(TIP_SELF_JOIN_SQL).expect("self join"));
    (r.rows.len(), d)
}

/// Runs the layered self-join; returns `(result rows, elapsed)`.
pub fn run_layered_self_join(stratum: &mut LayeredStratum) -> (usize, Duration) {
    let (r, d) = time(|| {
        stratum
            .temporal_join(
                "Prescription",
                "Prescription",
                &["a.patient"],
                LAYERED_JOIN_PRED,
            )
            .expect("layered join")
    });
    (r.rows.len(), d)
}

/// Runs the integrated coalescing query; returns `(groups, elapsed)`.
pub fn run_tip_coalesce(setup: &TipSetup) -> (usize, Duration) {
    let (r, d) = time(|| setup.session.query(TIP_COALESCE_SQL).expect("coalesce"));
    (r.rows.len(), d)
}

/// Runs the layered coalescing; returns `(groups, elapsed)`.
pub fn run_layered_coalesce(stratum: &mut LayeredStratum) -> (usize, Duration) {
    let (r, d) = time(|| {
        stratum
            .coalesce("Prescription", "patient")
            .expect("coalesce")
    });
    (r.len(), d)
}

/// Workload sweep configurations used by E4/E5.
pub fn sweep_config(n_prescriptions: usize) -> MedicalConfig {
    MedicalConfig {
        n_prescriptions,
        n_patients: (n_prescriptions / 4).max(2),
        ..MedicalConfig::default()
    }
}

pub use tip_layered::Stats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tip_and_layered_answers_agree_on_the_same_workload() {
        let cfg = sweep_config(120);
        let tip = setup_tip(&cfg);
        let mut layered = setup_layered(&cfg);

        // Self-join result *time sets* agree per patient.
        let tip_rows = tip.session.query(TIP_SELF_JOIN_SQL).unwrap();
        let lay_rows = layered
            .temporal_join(
                "Prescription",
                "Prescription",
                &["a.patient"],
                LAYERED_JOIN_PRED,
            )
            .unwrap();
        use std::collections::HashMap;
        let mut tip_by_patient: HashMap<String, tip_core::ResolvedElement> = HashMap::new();
        for row in &tip_rows.rows {
            let p = row[0].as_str().unwrap().to_owned();
            let e = tip_blade::as_element(&row[1]).unwrap();
            let r = e.resolve(experiment_now()).unwrap();
            let entry = tip_by_patient.entry(p).or_default();
            *entry = entry.union(&r);
        }
        let mut lay_raw: HashMap<String, Vec<tip_core::ResolvedPeriod>> = HashMap::new();
        for row in &lay_rows.rows {
            let p = row[0].as_str().unwrap().to_owned();
            let s = row[1].as_int().unwrap();
            let e = row[2].as_int().unwrap();
            lay_raw
                .entry(p)
                .or_default()
                .push(tip_layered::period_from_raw(s, e).unwrap());
        }
        let lay_by_patient: HashMap<String, tip_core::ResolvedElement> = lay_raw
            .into_iter()
            .map(|(k, v)| (k, tip_core::ResolvedElement::normalize(v)))
            .collect();
        assert_eq!(tip_by_patient.len(), lay_by_patient.len());
        for (p, e) in &tip_by_patient {
            assert_eq!(lay_by_patient.get(p), Some(e), "patient {p}");
        }

        // Coalesced lengths agree per patient.
        let tip_c = tip.session.query(TIP_COALESCE_SQL).unwrap();
        let lay_c = layered.coalesced_length("Prescription", "patient").unwrap();
        let lay_map: HashMap<String, i64> = lay_c
            .into_iter()
            .map(|(g, s)| (g.as_str().unwrap().to_owned(), s.seconds()))
            .collect();
        assert_eq!(tip_c.rows.len(), lay_map.len());
        for row in &tip_c.rows {
            let p = row[0].as_str().unwrap();
            let len = tip_blade::as_span(&row[1]).unwrap().seconds();
            assert_eq!(lay_map.get(p), Some(&len), "patient {p}");
        }
    }

    #[test]
    fn window_selection_agrees() {
        let cfg = sweep_config(80);
        let tip = setup_tip(&cfg);
        let mut layered = setup_layered(&cfg);
        let w = ResolvedPeriod::new(
            Chronon::from_ymd(1998, 1, 1).unwrap(),
            Chronon::from_ymd(1998, 12, 31).unwrap(),
        )
        .unwrap();
        let tip_rows = tip.session.query(&tip_window_sql(w)).unwrap();
        let lay_rows = layered
            .overlap_selection("Prescription", &["patient", "drug"], w)
            .unwrap();
        // Same total covered time across all tuples.
        let mut tip_total = 0i64;
        for row in &tip_rows.rows {
            let e = tip_blade::as_element(&row[2]).unwrap();
            tip_total += e.resolve(experiment_now()).unwrap().length().seconds();
        }
        let mut lay_total = 0i64;
        for row in &lay_rows.rows {
            let s = row[2].as_int().unwrap();
            let e = row[3].as_int().unwrap();
            lay_total += e - s + 1;
        }
        assert_eq!(tip_total, lay_total);
    }
}
