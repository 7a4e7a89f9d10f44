use super::*;
use minidb::SyncMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tip_core::{Element, Instant, Period, Span};
use tip_workload::{random_chronon, MedicalConfig, DRUGS};

pub const WHY: &str = "Single-row durable commits in the write shapes of a temporal store (insert \
     open-ended validity, insert closed, later close it, occasionally delete): version publication, \
     WAL append + fsync and checkpoint stalls carry the cost, and the executor does one row of work.";

const CLASSES: [Class; 5] = [
    Class {
        name: "insert_open",
        share: 45,
    },
    Class {
        name: "insert_closed",
        share: 35,
    },
    // UPDATE an open row of the client's own to a fixed end.
    Class {
        name: "close_validity",
        share: 15,
    },
    Class {
        name: "delete_row",
        share: 5,
    },
    // Outside the drawn mix: issued when a client's range is full.
    Class {
        name: "reset_range",
        share: 0,
    },
];
const RESET: usize = 4;

const CLOSE_SQL: &str = "UPDATE Prescription SET valid = :v WHERE patient = :p";
const DELETE_SQL: &str = "DELETE FROM Prescription WHERE patient = :p";
const RESET_SQL: &str = "DELETE FROM Prescription WHERE doctor = :doc";

/// An empty durable database (`SyncMode::EveryCommit`, cold rows spilled
/// at checkpoints, default 1024-frame pool). Each client owns a disjoint
/// key range and grows it to `cap` live rows, then empties it with one
/// DELETE and starts over, so the table cycles between empty and
/// `CLIENTS * cap` rows however fast the system is: a faster system
/// completes more cycles of the same work instead of growing a larger
/// table.
pub struct IngestDurable {
    seed: u64,
    cap: usize,
    checkpoint_bytes: u64,
}

impl IngestDurable {
    pub fn new(seed: u64, scale: Scale) -> IngestDurable {
        IngestDurable {
            seed,
            cap: scale.of(1_000),
            // Small enough that a run crosses many automatic checkpoints.
            checkpoint_bytes: scale.of(256 * 1024) as u64,
        }
    }

    fn count_matches(&self, db: &Arc<Database>, clients: &[Box<dyn Client + '_>]) -> Checked {
        let want: usize = clients.iter().map(|c| c.live_rows()).sum();
        let got = db
            .session()
            .query("SELECT COUNT(*) FROM Prescription")
            .map(|r| r.rows[0][0].as_int());
        let mut out = Checked::default();
        out.check(matches!(got, Ok(Some(n)) if n == want as i64), || {
            format!("COUNT(*) should be inserts - deletes = {want}, got {got:?}")
        });
        out
    }
}

impl Workload for IngestDurable {
    fn name(&self) -> &'static str {
        "ingest_durable"
    }

    fn classes(&self) -> &'static [Class] {
        &CLASSES
    }

    fn durability(&self) -> Option<DurabilityConfig> {
        Some(DurabilityConfig {
            sync_mode: SyncMode::EveryCommit,
            checkpoint_bytes: self.checkpoint_bytes,
            spill_cold: true,
            ..DurabilityConfig::default()
        })
    }

    fn load(&self, db: &Arc<Database>) -> DbResult<()> {
        load_prescriptions(db, &[])
    }

    fn client(&self, idx: usize) -> Box<dyn Client + '_> {
        Box::new(IngestClient {
            cap: self.cap,
            idx,
            rng: StdRng::seed_from_u64(self.seed ^ (0x9e37_79b9 * (idx as u64 + 1))),
            inserted: 0,
            open: Vec::new(),
            closed: Vec::new(),
            mix: Mix::new(&CLASSES),
        })
    }

    fn verify(
        &self,
        db: &Arc<Database>,
        _conn: &Connection,
        clients: &[Box<dyn Client + '_>],
    ) -> Checked {
        self.count_matches(db, clients)
    }

    /// A clean-restart check (close, reopen, recount), not a power-loss
    /// check: nothing discards the operating system's cache.
    fn verify_reopened(&self, db: &Arc<Database>, clients: &[Box<dyn Client + '_>]) -> Checked {
        self.count_matches(db, clients)
    }
}

struct IngestClient {
    cap: usize,
    idx: usize,
    rng: StdRng,
    inserted: u64,
    /// Keys of this client's open-ended rows, with their start.
    open: Vec<(String, Chronon)>,
    closed: Vec<String>,
    mix: Mix,
}

impl IngestClient {
    fn doctor(&self) -> String {
        format!("Dr.client{}", self.idx)
    }

    fn write(class: usize, sql: &str, params: Vec<(&'static str, HostValue)>, n: usize) -> Stmt {
        Stmt {
            class,
            kind: Kind::Write,
            sql: sql.to_owned(),
            prepared: true,
            params,
            twin: None,
            expect: Expect::Affected(n),
        }
    }

    fn end_after(&mut self, start: Chronon) -> Chronon {
        start + Span::from_days(self.rng.gen_range(1..=60))
    }
}

impl Client for IngestClient {
    fn next(&mut self, _db: &Database) -> Stmt {
        let live = self.live_rows();
        if live >= self.cap {
            self.open.clear();
            self.closed.clear();
            let doc = HostValue::Str(self.doctor());
            return Self::write(RESET, RESET_SQL, vec![("doc", doc)], live);
        }
        let class = match self.mix.next(&mut self.rng) {
            2 if self.open.is_empty() => 0,
            3 if live == 0 => 0,
            c => c,
        };
        match class {
            0 | 1 => {
                let cfg = MedicalConfig::default();
                let key = format!("c{}-{:07}", self.idx, self.inserted);
                self.inserted += 1;
                let start = random_chronon(&mut self.rng, cfg.start, cfg.end);
                let end = if class == 0 {
                    self.open.push((key.clone(), start));
                    Instant::NOW
                } else {
                    self.closed.push(key.clone());
                    Instant::Fixed(self.end_after(start))
                };
                let row = Prescription {
                    doctor: self.doctor(),
                    patient: key,
                    patient_dob: start - Span::from_days(self.rng.gen_range(30..=30_000)),
                    drug: DRUGS[self.rng.gen_range(0..DRUGS.len())].to_owned(),
                    dosage: self.rng.gen_range(1..=4),
                    frequency: Span::from_hours([4, 6, 8, 12, 24][self.rng.gen_range(0..5usize)]),
                    valid: Element::from_period(Period::new(Instant::Fixed(start), end)),
                };
                Self::write(class, INSERT_SQL, insert_params(&row), 1)
            }
            2 => {
                let pick = self.rng.gen_range(0..self.open.len());
                let (key, start) = self.open.swap_remove(pick);
                let valid = Element::from_period(Period::fixed(start, self.end_after(start)));
                self.closed.push(key.clone());
                let params = vec![("v", HostValue::Element(valid)), ("p", HostValue::Str(key))];
                Self::write(class, CLOSE_SQL, params, 1)
            }
            _ => {
                let pick = self.rng.gen_range(0..live);
                let key = if pick < self.open.len() {
                    self.open.swap_remove(pick).0
                } else {
                    self.closed.swap_remove(pick - self.open.len())
                };
                Self::write(class, DELETE_SQL, vec![("p", HostValue::Str(key))], 1)
            }
        }
    }

    fn live_rows(&self) -> usize {
        self.open.len() + self.closed.len()
    }
}
