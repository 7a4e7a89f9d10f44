use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tip_core::{Element, Period, Span};
use tip_workload::{generate, MedicalConfig, MedicalDb, DRUGS};

pub const WHY: &str = "The paper's sequenced queries (window overlap, Tylenol scan, group_union \
     coalescing, temporal self-join) over 20k rows: milliseconds of executor, blade kernel and \
     Element algebra per statement behind small replies, so the wire and front end are noise.";

const CLASSES: [Class; 4] = [
    Class {
        name: "window_index",
        share: 35,
    },
    Class {
        name: "tylenol_scan",
        share: 35,
    },
    Class {
        name: "coalesce_group",
        share: 20,
    },
    Class {
        name: "self_join",
        share: 10,
    },
];

const WINDOW_SQL: &str = "SELECT patient, drug, restrict(valid, :w) FROM Prescription \
     WHERE overlaps(valid, :e)";
/// Paper Q2: patients prescribed Tylenol when less than `:w` weeks old.
const TYLENOL_SQL: &str = "SELECT patient FROM Prescription \
     WHERE drug = 'Tylenol' AND start(valid) - patientDOB < '7 00:00:00'::Span * :w";
/// Paper Q4 for one drug.
const COALESCE_SQL: &str = "SELECT patient, length(group_union(valid)) FROM Prescription \
     WHERE drug = :d GROUP BY patient";
/// Paper Q3 (Diabeta/Aspirin there) for a drawn pair of drugs.
const SELF_JOIN_SQL: &str = "SELECT p1.patient, intersect(p1.valid, p2.valid) \
     FROM Prescription p1, Prescription p2 \
     WHERE p1.drug = :a AND p2.drug = :b AND p1.patient = p2.patient \
       AND overlaps(p1.valid, p2.valid)";

/// 20k prescriptions over 1k patients on an in-memory database.
pub struct AnalyticScan {
    seed: u64,
    data: MedicalDb,
    cfg: MedicalConfig,
}

impl AnalyticScan {
    pub fn new(seed: u64, scale: Scale) -> AnalyticScan {
        let cfg = MedicalConfig {
            seed,
            n_prescriptions: scale.of(20_000),
            n_patients: scale.of(1_000),
            ..MedicalConfig::default()
        };
        AnalyticScan {
            seed,
            data: generate(&cfg),
            cfg,
        }
    }
}

impl Workload for AnalyticScan {
    fn name(&self) -> &'static str {
        "analytic_scan"
    }

    fn classes(&self) -> &'static [Class] {
        &CLASSES
    }

    fn durability(&self) -> Option<DurabilityConfig> {
        None
    }

    fn load(&self, db: &Arc<Database>) -> DbResult<()> {
        load_prescriptions(db, &self.data.prescriptions)
    }

    fn client(&self, idx: usize) -> Box<dyn Client + '_> {
        Box::new(AnalyticClient {
            w: self,
            rng: StdRng::seed_from_u64(self.seed ^ (0x9e37_79b9 * (idx as u64 + 1))),
            mix: Mix::new(&CLASSES),
        })
    }

    /// Eight statements of each class against the same sets computed
    /// directly with `tip-core` from the generator's data: row counts
    /// and total covered seconds.
    fn verify(
        &self,
        _db: &Arc<Database>,
        conn: &Connection,
        _clients: &[Box<dyn Client + '_>],
    ) -> Checked {
        let rows = &self.data.prescriptions;
        let resolved = resolve_all(rows);
        let mut client = AnalyticClient {
            w: self,
            rng: StdRng::seed_from_u64(self.seed ^ 0x5eed),
            mix: Mix::new(&CLASSES),
        };
        let mut out = Checked::default();
        for (class, def) in CLASSES.iter().enumerate() {
            for _ in 0..8 {
                let stmt = client.stmt_of(class);
                let str_param = |name: &str| match stmt.params.iter().find(|(n, _)| *n == name) {
                    Some((_, HostValue::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                let want: (usize, i64) = match class {
                    0 => {
                        let Some((_, HostValue::Period(w))) = stmt.params.first() else {
                            unreachable!("window statement binds :w first")
                        };
                        let w = w.resolve(now()).ok().flatten().expect("fixed window");
                        let we = ResolvedElement::from_period(w);
                        resolved
                            .iter()
                            .filter(|e| e.overlaps(&we))
                            .fold((0, 0), |(n, s), e| {
                                (n + 1, s + e.restrict(w).length().seconds())
                            })
                    }
                    1 => {
                        let Some((_, HostValue::Int(weeks))) = stmt.params.first() else {
                            unreachable!("tylenol statement binds :w")
                        };
                        let limit = Span::WEEK.seconds() * weeks;
                        let n = rows
                            .iter()
                            .zip(&resolved)
                            .filter(|(p, e)| {
                                p.drug == "Tylenol"
                                    && e.start()
                                        .is_ok_and(|s| (s - p.patient_dob).seconds() < limit)
                            })
                            .count();
                        (n, 0)
                    }
                    2 => {
                        let drug = str_param("d");
                        let mut by_patient: HashMap<&str, ResolvedElement> = HashMap::new();
                        for (p, e) in rows.iter().zip(&resolved).filter(|(p, _)| p.drug == drug) {
                            let acc = by_patient.entry(&p.patient).or_default();
                            *acc = acc.union(e);
                        }
                        let secs = by_patient.values().map(|e| e.length().seconds()).sum();
                        (by_patient.len(), secs)
                    }
                    _ => {
                        let (a, b) = (str_param("a"), str_param("b"));
                        let mut right: HashMap<&str, Vec<&ResolvedElement>> = HashMap::new();
                        for (p, e) in rows.iter().zip(&resolved).filter(|(p, _)| p.drug == b) {
                            right.entry(&p.patient).or_default().push(e);
                        }
                        let mut want = (0, 0);
                        for (p, e) in rows.iter().zip(&resolved).filter(|(p, _)| p.drug == a) {
                            for other in right.get(p.patient.as_str()).into_iter().flatten() {
                                if e.overlaps(other) {
                                    want.0 += 1;
                                    want.1 += e.intersect(other).length().seconds();
                                }
                            }
                        }
                        want
                    }
                };
                let got = conn.query(&stmt.sql, &stmt.params).map(|rows| match class {
                    0 => rows_and_seconds(rows, 2),
                    1 => (rows.len(), 0),
                    2 => {
                        let r = rows.into_result();
                        let secs = r
                            .rows
                            .iter()
                            .map(|row| tip_blade::as_span(&row[1]).map_or(0, |s| s.seconds()))
                            .sum();
                        (r.rows.len(), secs)
                    }
                    _ => rows_and_seconds(rows, 1),
                });
                out.check(matches!(&got, Ok(g) if *g == want), || {
                    format!(
                        "{} {:?}: want (rows, seconds) {want:?}, got {got:?}",
                        def.name, stmt.params
                    )
                });
            }
        }
        out
    }
}

struct AnalyticClient<'a> {
    w: &'a AnalyticScan,
    rng: StdRng,
    mix: Mix,
}

impl AnalyticClient<'_> {
    fn stmt_of(&mut self, class: usize) -> Stmt {
        let (sql, params): (&str, Vec<(&'static str, HostValue)>) = match class {
            0 => {
                // A window of one week to three months inside the data.
                let cfg = &self.w.cfg;
                let days = self.rng.gen_range(7..=90);
                let latest = (cfg.end - cfg.start).whole_days() - days;
                let start = cfg.start + Span::from_days(self.rng.gen_range(0..latest));
                let w = Period::fixed(start, start + Span::from_days(days));
                (
                    WINDOW_SQL,
                    vec![
                        ("w", HostValue::Period(w)),
                        ("e", HostValue::Element(Element::from_period(w))),
                    ],
                )
            }
            1 => (
                TYLENOL_SQL,
                vec![("w", HostValue::Int(self.rng.gen_range(1..=520)))],
            ),
            2 => {
                let d = DRUGS[self.rng.gen_range(0..DRUGS.len())];
                (COALESCE_SQL, vec![("d", HostValue::Str(d.to_owned()))])
            }
            _ => {
                let a = self.rng.gen_range(0..DRUGS.len());
                let b = (a + self.rng.gen_range(1..DRUGS.len())) % DRUGS.len();
                (
                    SELF_JOIN_SQL,
                    vec![
                        ("a", HostValue::Str(DRUGS[a].to_owned())),
                        ("b", HostValue::Str(DRUGS[b].to_owned())),
                    ],
                )
            }
        };
        Stmt {
            class,
            kind: Kind::Read,
            sql: sql.to_owned(),
            prepared: true,
            params,
            twin: None,
            expect: Expect::Any,
        }
    }
}

impl Client for AnalyticClient<'_> {
    fn next(&mut self, _db: &Database) -> Stmt {
        let class = self.mix.next(&mut self.rng);
        self.stmt_of(class)
    }
}
