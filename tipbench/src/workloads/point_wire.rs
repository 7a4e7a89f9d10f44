use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tip_workload::{generate, MedicalConfig, MedicalDb};

pub const WHY: &str = "Index point lookups returning ~4 rows: the statement does almost no executor \
     or storage work, so client codec, TCP, the server hand-off, parse, plan and the plan cache are \
     the whole cost; WAL, pages and batch kernels are bypassed.";

const CLASSES: [Class; 2] = [
    Class {
        name: "point_prepared",
        share: 75,
    },
    // The same lookup as literal text that never repeats, so every one
    // pays parse + bind + plan and misses the plan cache.
    Class {
        name: "point_adhoc",
        share: 25,
    },
];

const POINT_SQL: &str = "SELECT drug, dosage, valid FROM Prescription WHERE patient = :p";

/// 20k prescriptions over 5k patients on an in-memory database.
pub struct PointWire {
    seed: u64,
    data: MedicalDb,
    /// Prescriptions per patient, by patient index.
    rows_of: Vec<usize>,
}

impl PointWire {
    pub fn new(seed: u64, scale: Scale) -> PointWire {
        let data = generate(&MedicalConfig {
            seed,
            n_prescriptions: scale.of(20_000),
            n_patients: scale.of(5_000),
            ..MedicalConfig::default()
        });
        let mut rows_of = vec![0; data.patients.len()];
        for p in &data.prescriptions {
            rows_of[patient_index(&p.patient)] += 1;
        }
        PointWire {
            seed,
            data,
            rows_of,
        }
    }
}

/// Generated patients are named `Patient<index>`.
fn patient_index(name: &str) -> usize {
    name["Patient".len()..]
        .parse()
        .expect("generated patient name")
}

impl Workload for PointWire {
    fn name(&self) -> &'static str {
        "point_wire"
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
        Box::new(PointClient {
            w: self,
            idx: idx as u64,
            rng: StdRng::seed_from_u64(self.seed ^ (0x9e37_79b9 * (idx as u64 + 1))),
            adhoc: 0,
            mix: Mix::new(&CLASSES),
        })
    }

    fn verify(
        &self,
        _db: &Arc<Database>,
        conn: &Connection,
        _clients: &[Box<dyn Client + '_>],
    ) -> Checked {
        // Full content of 50 patients' replies against the generator.
        let mut out = Checked::default();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        for _ in 0..50 {
            let (name, _) = &self.data.patients[rng.gen_range(0..self.data.patients.len())];
            let mut want: Vec<String> = self
                .data
                .prescriptions
                .iter()
                .filter(|p| &p.patient == name)
                .map(|p| format!("{}|{}|{}", p.drug, p.dosage, p.valid))
                .collect();
            want.sort();
            let got = conn
                .query(POINT_SQL, &[("p", HostValue::Str(name.clone()))])
                .map(|mut rows| {
                    let mut got = Vec::new();
                    while rows.next() {
                        got.push(format!(
                            "{}|{}|{}",
                            rows.get_string(0).unwrap_or_default(),
                            rows.get_int(1).unwrap_or(-1),
                            rows.get_element(2)
                                .unwrap_or_else(|_| tip_core::Element::empty()),
                        ));
                    }
                    got.sort();
                    got
                });
            out.check(got.as_ref() == Ok(&want), || {
                format!("point lookup of {name}: want {want:?}, got {got:?}")
            });
        }
        out
    }
}

struct PointClient<'a> {
    w: &'a PointWire,
    idx: u64,
    rng: StdRng,
    adhoc: u64,
    mix: Mix,
}

impl Client for PointClient<'_> {
    fn next(&mut self, _db: &Database) -> Stmt {
        let patient = self.rng.gen_range(0..self.w.rows_of.len());
        let name = &self.w.data.patients[patient].0;
        let class = self.mix.next(&mut self.rng);
        let expect = Expect::Rows(self.w.rows_of[patient]);
        if class == 0 {
            return Stmt {
                class,
                kind: Kind::Read,
                sql: POINT_SQL.to_owned(),
                prepared: true,
                params: vec![("p", HostValue::Str(name.clone()))],
                twin: None,
                expect,
            };
        }
        // Dosages are 1..=4, so the extra conjunct filters nothing; its
        // literal is unique across both clients and across twins.
        let unique = 1000 + (self.adhoc * CLIENTS as u64 + self.idx) * 2;
        self.adhoc += 1;
        let text = |n: u64| {
            format!(
                "SELECT drug, dosage, valid FROM Prescription \
                 WHERE patient = '{name}' AND dosage < {n}"
            )
        };
        Stmt {
            class,
            kind: Kind::Read,
            sql: text(unique),
            prepared: false,
            params: Vec::new(),
            twin: Some(text(unique + 1)),
            expect,
        }
    }
}
