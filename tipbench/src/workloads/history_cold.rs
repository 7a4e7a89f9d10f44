use super::*;
use minidb::SyncMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tip_core::{Element, Period, Span};
use tip_workload::{generate, MedicalConfig};

pub const WHY: &str =
    "20k closed-validity rows spilled to pages.db behind a 64-frame pool a sixth \
     their size: the only workload larger than the program's own cache, so page faults, evictions \
     and writeback dominate, with updates beside reads on the same pool.";

const CLASSES: [Class; 4] = [
    // Interval-index probe that faults a handful of pages.
    Class {
        name: "cold_window",
        share: 50,
    },
    // Aggregate over every row: cycles the whole pool.
    Class {
        name: "cold_full_scan",
        share: 10,
    },
    Class {
        name: "asof_history",
        share: 20,
    },
    // UPDATE of cold rows: fault, free the slot, re-home the row hot.
    Class {
        name: "touch_cold",
        share: 20,
    },
];

const WINDOW_SQL: &str = "SELECT patient, drug, restrict(valid, :w) FROM Prescription \
     WHERE overlaps(valid, :e)";
const FULL_SCAN_SQL: &str = "SELECT COUNT(*), SUM(dosage) FROM Prescription";
const ASOF_SQL: &str = "SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, :e) \
     AS OF COMMIT :n";
const TOUCH_SQL: &str = "UPDATE Prescription SET doctor = :doc WHERE patient = :p";

/// Client 0 checkpoints after this many of its own statements — about
/// every 500 statements of the two clients together — so rows re-homed
/// hot by `touch_cold` spill again and dirty pages write back.
const CHECKPOINT_EVERY: u64 = 250;

/// `AS OF COMMIT` reads go this many commits back: history a Browser
/// user would page to, well inside the default 64-commit retention.
const ASOF_COMMITS_BACK: u64 = 8;

pub struct HistoryCold {
    seed: u64,
    cfg: MedicalConfig,
    /// In validity-start order: history arrives as time passes, so rows
    /// close in time share pages.
    rows: Vec<Prescription>,
    rows_of: std::collections::HashMap<String, usize>,
    dosage_sum: i64,
    pool_pages: usize,
}

impl HistoryCold {
    pub fn new(seed: u64, scale: Scale) -> HistoryCold {
        let cfg = MedicalConfig {
            seed,
            n_prescriptions: scale.of(20_000),
            n_patients: scale.of(5_000),
            max_periods: 1,
            now_fraction: 0.0,
            ..MedicalConfig::default()
        };
        let mut rows = generate(&cfg).prescriptions;
        rows.sort_by_cached_key(|p| p.valid.resolve(now()).ok().and_then(|e| e.start().ok()));
        let mut rows_of = std::collections::HashMap::new();
        for p in &rows {
            *rows_of.entry(p.patient.clone()).or_default() += 1;
        }
        HistoryCold {
            seed,
            cfg,
            dosage_sum: rows.iter().map(|p| p.dosage).sum(),
            rows,
            rows_of,
            pool_pages: scale.of(64),
        }
    }
}

impl Workload for HistoryCold {
    fn name(&self) -> &'static str {
        "history_cold"
    }

    fn classes(&self) -> &'static [Class] {
        &CLASSES
    }

    fn durability(&self) -> Option<DurabilityConfig> {
        Some(DurabilityConfig {
            sync_mode: SyncMode::EveryCommit,
            // Explicit checkpoints only.
            checkpoint_bytes: 0,
            page_size: 4096,
            pool_pages: self.pool_pages,
            spill_cold: true,
            ..DurabilityConfig::default()
        })
    }

    /// The bulk load is not logged; the checkpoint makes it durable and
    /// spills every row (all are closed) to `pages.db`.
    fn load(&self, db: &Arc<Database>) -> DbResult<()> {
        load_prescriptions(db, &self.rows)?;
        db.checkpoint()
    }

    fn client(&self, idx: usize) -> Box<dyn Client + '_> {
        Box::new(ColdClient {
            w: self,
            idx,
            rng: StdRng::seed_from_u64(self.seed ^ (0x9e37_79b9 * (idx as u64 + 1))),
            issued: 0,
            base_seq: None,
            mix: Mix::new(&CLASSES),
        })
    }

    fn verify(
        &self,
        db: &Arc<Database>,
        conn: &Connection,
        _clients: &[Box<dyn Client + '_>],
    ) -> Checked {
        let mut out = Checked::default();
        // Window answers against tip-core (updates never touch `valid`).
        let resolved = resolve_all(&self.rows);
        let mut client = ColdClient {
            w: self,
            idx: 1,
            rng: StdRng::seed_from_u64(self.seed ^ 0x5eed),
            issued: 0,
            base_seq: None,
            mix: Mix::new(&CLASSES),
        };
        for _ in 0..8 {
            let stmt = client.window();
            let Some((_, HostValue::Period(w))) = stmt.params.first() else {
                unreachable!("window statement binds :w first")
            };
            let w = w.resolve(now()).ok().flatten().expect("fixed window");
            let we = ResolvedElement::from_period(w);
            let want = resolved
                .iter()
                .filter(|e| e.overlaps(&we))
                .fold((0, 0), |(n, s), e| {
                    (n + 1, s + e.restrict(w).length().seconds())
                });
            let got = conn
                .query(&stmt.sql, &stmt.params)
                .map(|rows| rows_and_seconds(rows, 2));
            out.check(matches!(&got, Ok(g) if *g == want), || {
                format!("cold_window {w:?}: want (rows, seconds) {want:?}, got {got:?}")
            });
        }
        let pool = db.bufpool_stats();
        out.check(pool.pages <= self.pool_pages as u64, || {
            format!(
                "{} resident pages exceed the {}-frame pool",
                pool.pages, self.pool_pages
            )
        });
        out.check(pool.evictions > 0, || {
            "a dataset several times the pool never evicted".to_owned()
        });
        out
    }
}

struct ColdClient<'a> {
    w: &'a HistoryCold,
    idx: usize,
    rng: StdRng,
    issued: u64,
    /// Commit sequence when this client started: the oldest `AS OF` target.
    base_seq: Option<u64>,
    mix: Mix,
}

impl ColdClient<'_> {
    /// A window of one to seven days inside the data.
    fn window_params(&mut self) -> (Period, Element) {
        let cfg = &self.w.cfg;
        let days = self.rng.gen_range(1..=7);
        let latest = (cfg.end - cfg.start).whole_days() - days;
        let start = cfg.start + Span::from_days(self.rng.gen_range(0..latest));
        let w = Period::fixed(start, start + Span::from_days(days));
        (w, Element::from_period(w))
    }

    fn window(&mut self) -> Stmt {
        let (w, e) = self.window_params();
        Stmt {
            class: 0,
            kind: Kind::Read,
            sql: WINDOW_SQL.to_owned(),
            prepared: true,
            params: vec![("w", HostValue::Period(w)), ("e", HostValue::Element(e))],
            twin: None,
            expect: Expect::Any,
        }
    }
}

impl Client for ColdClient<'_> {
    fn next(&mut self, db: &Database) -> Stmt {
        if self.idx == 0 && self.issued > 0 && self.issued.is_multiple_of(CHECKPOINT_EVERY) {
            self.issued += 1;
            return Stmt::checkpoint();
        }
        self.issued += 1;
        let class = self.mix.next(&mut self.rng);
        match class {
            0 => self.window(),
            1 => Stmt {
                class,
                kind: Kind::Read,
                sql: FULL_SCAN_SQL.to_owned(),
                prepared: true,
                params: Vec::new(),
                twin: None,
                expect: Expect::Ints(vec![self.w.rows.len() as i64, self.w.dosage_sum]),
            },
            2 => {
                let seq = db.commit_seq();
                let base = *self.base_seq.get_or_insert(seq);
                let n = seq.saturating_sub(ASOF_COMMITS_BACK).max(base);
                let (_, e) = self.window_params();
                Stmt {
                    class,
                    kind: Kind::ReadAsOf,
                    sql: ASOF_SQL.to_owned(),
                    prepared: true,
                    params: vec![
                        ("e", HostValue::Element(e)),
                        ("n", HostValue::Int(n as i64)),
                    ],
                    twin: None,
                    expect: Expect::Rows(1),
                }
            }
            _ => {
                let patient = &self.w.rows[self.rng.gen_range(0..self.w.rows.len())].patient;
                let doc = format!("Dr.{:04}", self.rng.gen_range(0..10_000));
                Stmt {
                    class,
                    kind: Kind::Write,
                    sql: TOUCH_SQL.to_owned(),
                    prepared: true,
                    params: vec![
                        ("doc", HostValue::Str(doc)),
                        ("p", HostValue::Str(patient.clone())),
                    ],
                    twin: None,
                    expect: Expect::Affected(self.w.rows_of[patient]),
                }
            }
        }
    }
}
