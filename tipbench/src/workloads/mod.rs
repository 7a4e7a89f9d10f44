//! The four workloads. Each builds its own database from the seed,
//! hands every client a statement generator, and checks the answers.
//!
//! The server sees only generated SQL text and parameters; expected
//! answers are computed from the generator's data with `tip-core`.

mod analytic_scan;
mod history_cold;
mod ingest_durable;
mod point_wire;

use minidb::{Database, DbResult, DurabilityConfig, Value};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use tip_blade::TipTypes;
use tip_client::{Connection, HostValue};
use tip_core::{Chronon, ResolvedElement};
use tip_workload::Prescription;

/// Workload names, in the order they run and appear in `BENCHMARK.json`.
pub const NAMES: [&str; 4] = [
    "point_wire",
    "analytic_scan",
    "ingest_durable",
    "history_cold",
];

/// Client connections and threads driving every workload: a closed
/// loop, each client waiting for its reply before sending the next
/// statement.
pub const CLIENTS: usize = 2;

/// Every session's NOW is pinned to the paper-era demo date, so answers
/// over open-ended validity do not depend on the wall clock.
pub fn now() -> Chronon {
    Chronon::from_ymd(1999, 12, 1).expect("valid date")
}

pub fn now_unix() -> i64 {
    tip_blade::chronon_to_unix(now())
}

/// How a statement runs and what its reply looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A SELECT the traced run can replay layer by layer.
    Read,
    /// An `AS OF` SELECT; replayed through an in-process session.
    ReadAsOf,
    Write,
    /// Not a statement: the client calls `Database::checkpoint`.
    Checkpoint,
}

/// The cheap per-statement answer check made inside the timed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Any,
    Rows(usize),
    Affected(usize),
    /// A one-row reply of integers.
    Ints(Vec<i64>),
}

pub struct Stmt {
    /// Index into [`Workload::classes`].
    pub class: usize,
    pub kind: Kind,
    pub sql: String,
    /// Run through a prepared statement (the text is the same for every
    /// statement of the class) instead of as ad-hoc text.
    pub prepared: bool,
    pub params: Vec<(&'static str, HostValue)>,
    /// For ad-hoc text only: an equivalent statement with different
    /// text. The traced run executes each statement a second time
    /// in-process, and running the same text twice would turn the second
    /// into a plan-cache hit.
    pub twin: Option<String>,
    pub expect: Expect,
}

impl Stmt {
    pub fn checkpoint() -> Stmt {
        Stmt {
            class: 0,
            kind: Kind::Checkpoint,
            sql: String::new(),
            prepared: false,
            params: Vec::new(),
            twin: None,
            expect: Expect::Any,
        }
    }
}

/// A statement class and its share of the mix, in percent.
pub struct Class {
    pub name: &'static str,
    pub share: u32,
}

/// Deals statement classes in the mix's exact shares: every hundred
/// draws hold each class `share` times, in an order shuffled from the
/// client's generator. Independent random draws would let the share of
/// an expensive class, and with it the throughput, vary between runs.
pub struct Mix {
    deck: Vec<usize>,
    dealt: usize,
}

impl Mix {
    pub fn new(classes: &[Class]) -> Mix {
        let deck: Vec<usize> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.share as usize))
            .collect();
        Mix {
            dealt: deck.len(),
            deck,
        }
    }

    pub fn next(&mut self, rng: &mut StdRng) -> usize {
        if self.dealt == self.deck.len() {
            // Fisher-Yates.
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, rng.gen_range(0..=i));
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.deck[self.dealt - 1]
    }
}

/// Outcome of the answer checks made after the timed run.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checked {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    fn classes(&self) -> &'static [Class];
    /// `None` runs on an in-memory database.
    fn durability(&self) -> Option<DurabilityConfig>;
    /// Creates the schema, loads the data and builds the indexes.
    fn load(&self, db: &Arc<Database>) -> DbResult<()>;
    fn client(&self, idx: usize) -> Box<dyn Client + '_>;
    /// Answer checks after the timed run, against `clients`' final state.
    fn verify(
        &self,
        db: &Arc<Database>,
        conn: &Connection,
        clients: &[Box<dyn Client + '_>],
    ) -> Checked;
    /// Checks that need the data directory closed and reopened.
    fn verify_reopened(&self, _db: &Arc<Database>, _clients: &[Box<dyn Client + '_>]) -> Checked {
        Checked::default()
    }
}

/// One client's statement stream. Generators assume their statements
/// succeed; a failed statement fails the run anyway.
pub trait Client: Send {
    fn next(&mut self, db: &Database) -> Stmt;
    /// Rows this client has inserted and not deleted.
    fn live_rows(&self) -> usize {
        0
    }
}

/// Size of a workload's data relative to the full run; `--smoke` runs
/// at a twentieth.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    pub fn of(self, full: usize) -> usize {
        (full / self.0).max(1)
    }
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "point_wire" => Box::new(point_wire::PointWire::new(seed, scale)),
        "analytic_scan" => Box::new(analytic_scan::AnalyticScan::new(seed, scale)),
        "ingest_durable" => Box::new(ingest_durable::IngestDurable::new(seed, scale)),
        "history_cold" => Box::new(history_cold::HistoryCold::new(seed, scale)),
        _ => return None,
    })
}

pub fn why(name: &str) -> &'static str {
    match name {
        "point_wire" => point_wire::WHY,
        "analytic_scan" => analytic_scan::WHY,
        "ingest_durable" => ingest_durable::WHY,
        "history_cold" => history_cold::WHY,
        _ => "",
    }
}

// ----- helpers shared by the workloads ---------------------------------

const INSERT_SQL: &str =
    "INSERT INTO Prescription VALUES (:doc, :pat, :dob, :drug, :dos, :freq, :valid)";

fn insert_params(p: &Prescription) -> Vec<(&'static str, HostValue)> {
    vec![
        ("doc", HostValue::Str(p.doctor.clone())),
        ("pat", HostValue::Str(p.patient.clone())),
        ("dob", HostValue::Chronon(p.patient_dob)),
        ("drug", HostValue::Str(p.drug.clone())),
        ("dos", HostValue::Int(p.dosage)),
        ("freq", HostValue::Span(p.frequency)),
        ("valid", HostValue::Element(p.valid.clone())),
    ]
}

/// Creates `Prescription`, bulk-loads `rows` under one table write lock
/// (one published version, not one per row) and builds the B-tree on
/// `patient` and the interval index on `valid`.
fn load_prescriptions(db: &Arc<Database>, rows: &[Prescription]) -> DbResult<()> {
    let session = db.session();
    session.execute(tip_workload::PRESCRIPTION_DDL)?;
    let types = db.with_catalog(TipTypes::from_catalog)?;
    db.with_table_write("Prescription", |t| {
        for p in rows {
            t.insert(vec![
                Value::Str(p.doctor.clone()),
                Value::Str(p.patient.clone()),
                types.chronon(p.patient_dob),
                Value::Str(p.drug.clone()),
                Value::Int(p.dosage),
                types.span(p.frequency),
                types.element(p.valid.clone()),
            ]);
        }
    })?;
    session.execute("CREATE INDEX ix_patient ON Prescription(patient)")?;
    session.execute("CREATE INDEX ix_valid ON Prescription(valid)")?;
    Ok(())
}

/// Every prescription's validity resolved at [`now`], for the oracles.
fn resolve_all(rows: &[Prescription]) -> Vec<ResolvedElement> {
    rows.iter()
        .map(|p| p.valid.resolve(now()).expect("generated element resolves"))
        .collect()
}

/// Row count and total covered seconds of the Element in column `col`
/// of a reply, resolved at [`now`].
fn rows_and_seconds(rows: tip_client::Rows, col: usize) -> (usize, i64) {
    let result = rows.into_result();
    let seconds = result
        .rows
        .iter()
        .map(|r| {
            tip_blade::as_element(&r[col])
                .and_then(|e| e.resolve(now()).ok())
                .map_or(0, |e| e.length().seconds())
        })
        .sum();
    (result.rows.len(), seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hundred_draws_hold_the_exact_shares() {
        use rand::SeedableRng;
        let classes = [
            Class {
                name: "a",
                share: 75,
            },
            Class {
                name: "b",
                share: 25,
            },
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut mix = Mix::new(&classes);
        let mut orders = Vec::new();
        for _ in 0..3 {
            let hundred: Vec<usize> = (0..100).map(|_| mix.next(&mut rng)).collect();
            assert_eq!(hundred.iter().filter(|c| **c == 1).count(), 25);
            orders.push(hundred);
        }
        assert_ne!(orders[0], orders[1], "each hundred is shuffled afresh");
    }

    /// The same seed gives the same inputs; another seed gives others.
    #[test]
    fn statement_streams_are_a_function_of_the_seed() {
        let db = Database::new();
        let stream = |name: &str, seed: u64| -> Vec<String> {
            let w = build(name, seed, Scale(200)).unwrap();
            let mut client = w.client(0);
            (0..300)
                .map(|_| {
                    let s = client.next(&db);
                    format!("{} {:?}", s.sql, s.params)
                })
                .collect()
        };
        for name in NAMES {
            assert_eq!(stream(name, 42), stream(name, 42), "{name}");
            assert_ne!(stream(name, 42), stream(name, 43), "{name}");
        }
    }

    #[test]
    fn every_mix_sums_to_one_hundred() {
        for name in NAMES {
            let w = build(name, 1, Scale(200)).unwrap();
            let total: u32 = w.classes().iter().map(|c| c.share).sum();
            assert_eq!(total, 100, "{name}");
            assert!(!why(name).is_empty());
        }
    }
}
