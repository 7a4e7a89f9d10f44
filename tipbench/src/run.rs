//! The untraced run: set-up, the closed-loop clients, the answer checks
//! and the end-to-end metrics.

use crate::host;
use crate::stats::{median, percentile, samples_beyond};
use crate::workloads::{Checked, Client, Expect, Kind, Stmt, Workload, CLIENTS};
use minidb::{Database, DbError, DbResult};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tip_blade::TipBlade;
use tip_client::transport::ConnectOptions;
use tip_client::{Connection, PreparedStatement};
use tip_server::{Server, ServerConfig};

/// Times each workload's database is built per untraced run; `setup_s`
/// is the median.
pub const SETUP_REPS: usize = 9;

/// Share of the measured time that runs first, untimed, so caches fill
/// and prepared statements exist before timing starts.
const WARMUP_SHARE: f64 = 0.05;

/// A workload's database behind a server on a loopback port.
pub struct Env {
    pub db: Arc<Database>,
    pub server: Server,
    /// Data directory of a durable database.
    pub dir: Option<PathBuf>,
}

impl Env {
    /// Builds the database (under `scratch` when the workload is
    /// durable), loads it and starts the server.
    pub fn setup(w: &dyn Workload, scratch: &Path) -> DbResult<Env> {
        let (db, dir) = match w.durability() {
            None => {
                let db = Database::new();
                db.install_blade(&TipBlade)?;
                (db, None)
            }
            Some(cfg) => {
                let dir = scratch.join(w.name());
                let _ = std::fs::remove_dir_all(&dir);
                let (db, _) = Database::open_with(&dir, cfg, |db| db.install_blade(&TipBlade))?;
                (db, Some(dir))
            }
        };
        w.load(&db)?;
        let server = Server::bind("127.0.0.1:0", &db, ServerConfig::default())?;
        Ok(Env { db, server, dir })
    }

    pub fn connect(&self) -> DbResult<Connection> {
        Connection::connect_with(
            self.server.local_addr(),
            &ConnectOptions {
                now_unix: Some(crate::workloads::now_unix()),
                ..ConnectOptions::default()
            },
        )
    }

    /// Stops the server (joining its threads) and closes the database,
    /// leaving the data directory, if any, for a reopen.
    fn stop(mut self) -> DbResult<Option<PathBuf>> {
        self.server.shutdown();
        self.db.close()?;
        Ok(self.dir)
    }

    pub fn teardown(self) -> DbResult<()> {
        if let Some(dir) = self.stop()? {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }

    /// The workload's answer checks on the live database, then — for a
    /// durable workload — on the closed and reopened data directory.
    /// Tears the environment down.
    pub fn check_and_teardown(
        self,
        w: &dyn Workload,
        clients: &[Box<dyn Client + '_>],
    ) -> DbResult<Checked> {
        let mut checked = w.verify(&self.db, &self.connect()?, clients);
        if let Some(dir) = self.stop()? {
            let cfg = w.durability().expect("a data directory means durable");
            let (db, _) = Database::open_with(&dir, cfg, |db| db.install_blade(&TipBlade))?;
            checked.absorb(w.verify_reopened(&db, clients));
            db.close()?;
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(checked)
    }
}

/// One client connection with its lazily prepared statements.
pub struct Wire<'c> {
    conn: &'c Connection,
    prepared: HashMap<usize, PreparedStatement<'c>>,
}

/// What a statement's reply held, for the answer check.
pub enum Reply {
    Rows(tip_client::Rows),
    Affected(usize),
}

impl<'c> Wire<'c> {
    pub fn new(conn: &'c Connection) -> Wire<'c> {
        Wire {
            conn,
            prepared: HashMap::new(),
        }
    }

    pub fn run(&mut self, stmt: &Stmt) -> DbResult<Reply> {
        let is_write = stmt.kind == Kind::Write;
        if !stmt.prepared {
            return if is_write {
                self.conn
                    .execute(&stmt.sql, &stmt.params)
                    .map(Reply::Affected)
            } else {
                self.conn.query(&stmt.sql, &stmt.params).map(Reply::Rows)
            };
        }
        let mut ps = self
            .prepared
            .remove(&stmt.class)
            .unwrap_or_else(|| self.conn.prepare(&stmt.sql));
        for (name, value) in &stmt.params {
            ps = ps.bind(name, value.clone());
        }
        let reply = if is_write {
            ps.execute().map(Reply::Affected)
        } else {
            ps.query().map(Reply::Rows)
        };
        self.prepared.insert(stmt.class, ps);
        reply
    }
}

/// The cheap check every statement gets inside the loop.
pub fn reply_matches(expect: &Expect, reply: &mut Reply) -> bool {
    match (expect, reply) {
        (Expect::Any, _) => true,
        (Expect::Rows(n), Reply::Rows(rows)) => rows.len() == *n,
        (Expect::Affected(n), Reply::Affected(got)) => got == n,
        (Expect::Ints(want), Reply::Rows(rows)) => {
            rows.len() == 1
                && rows.next()
                && want
                    .iter()
                    .enumerate()
                    .all(|(i, w)| rows.get_int(i).is_ok_and(|g| g == *w))
        }
        _ => false,
    }
}

#[derive(Clone, Copy)]
struct Sample {
    class: u8,
    ns: u32,
}

#[derive(Default)]
struct ClientTally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Drives one client until `stop_at`: statements before `timed_from`
/// warm up untimed. Returns the tally and the instant the last timed
/// statement completed.
fn drive(
    client: &mut dyn Client,
    conn: &Connection,
    db: &Arc<Database>,
    start: &Barrier,
    warmup: Duration,
    measure: Duration,
) -> (ClientTally, Duration) {
    let mut wire = Wire::new(conn);
    let mut tally = ClientTally::default();
    start.wait();
    let t0 = Instant::now();
    let timed_from = t0 + warmup;
    let stop_at = timed_from + measure;
    let mut last_done = timed_from;
    loop {
        // Checked before the generator runs: it updates its own state as
        // if the statement it hands out succeeds.
        let begun = Instant::now();
        if begun >= stop_at {
            break;
        }
        let stmt = client.next(db);
        let outcome: DbResult<bool> = if stmt.kind == Kind::Checkpoint {
            db.checkpoint().map(|()| true)
        } else {
            wire.run(&stmt)
                .map(|mut reply| reply_matches(&stmt.expect, &mut reply))
        };
        let done = Instant::now();
        // Warm-up statements and checkpoints are not samples, but a
        // failure of either still fails the run.
        let ok = matches!(outcome, Ok(true));
        let sampled = begun >= timed_from && stmt.kind != Kind::Checkpoint;
        if begun >= timed_from {
            last_done = done;
        }
        if sampled || !ok {
            tally.attempted += 1;
        }
        if !ok {
            tally.failed += 1;
            tally
                .first_error
                .get_or_insert_with(|| describe(&stmt, &outcome));
        } else if sampled {
            // A failed statement is missing from every latency figure.
            tally.samples.push(Sample {
                class: stmt.class as u8,
                ns: (done - begun).as_nanos().min(u128::from(u32::MAX)) as u32,
            });
        }
    }
    (tally, last_done - timed_from)
}

fn describe(stmt: &Stmt, outcome: &Result<bool, DbError>) -> String {
    match outcome {
        Err(e) => format!("{} failed: {e}", stmt.sql),
        _ => format!(
            "{} {:?}: reply is not {:?}",
            stmt.sql, stmt.params, stmt.expect
        ),
    }
}

/// Everything one untraced run of one workload measured.
pub struct Untraced {
    /// End-to-end metric values, in `metrics::END_TO_END` order.
    pub end_to_end: [f64; 5],
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Timed statements with a latency sample.
    pub samples: usize,
    /// Samples beyond the reported p99; under ten, the p99 is not valid.
    pub beyond_p99: usize,
    /// `(class name, p50_us)`.
    pub classes: Vec<(&'static str, f64)>,
    pub setup_runs: Vec<f64>,
}

pub fn run_untraced(w: &dyn Workload, seconds: f64, scratch: &Path) -> DbResult<Untraced> {
    // Build the database several times and keep the last one.
    let mut setup_runs = Vec::with_capacity(SETUP_REPS);
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = env.take() {
            prev.teardown()?;
        }
        let t = Instant::now();
        env = Some(Env::setup(w, scratch)?);
        setup_runs.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");

    let measure = Duration::from_secs_f64(seconds);
    let warmup = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let mut clients: Vec<Box<dyn Client + '_>> = (0..CLIENTS).map(|i| w.client(i)).collect();
    let conns: Vec<Connection> = (0..CLIENTS)
        .map(|_| env.connect())
        .collect::<DbResult<_>>()?;
    let start = Barrier::new(CLIENTS);
    let results: Vec<(ClientTally, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&conns)
            .map(|(client, conn)| {
                let (db, start) = (&env.db, &start);
                s.spawn(move || drive(client.as_mut(), conn, db, start, warmup, measure))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    drop(conns);

    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    let mut all: Vec<Sample> = Vec::new();
    let mut wall = Duration::ZERO;
    for (tally, busy) in results {
        attempted += tally.attempted;
        failed += tally.failed;
        failures.extend(tally.first_error);
        all.extend(tally.samples);
        wall = wall.max(busy);
    }

    let checked = env.check_and_teardown(w, &clients)?;
    let rss_peak_mb = host::rss_peak_mb();
    attempted += checked.attempted;
    failed += checked.failed;
    failures.extend(checked.failures);

    let mut ns: Vec<u64> = all.iter().map(|s| u64::from(s.ns)).collect();
    ns.sort_unstable();
    let classes = w
        .classes()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut own: Vec<u64> = all
                .iter()
                .filter(|s| usize::from(s.class) == i)
                .map(|s| u64::from(s.ns))
                .collect();
            own.sort_unstable();
            (c.name, percentile(&own, 0.5) as f64 / 1e3)
        })
        .collect();
    Ok(Untraced {
        end_to_end: [
            ns.len() as f64 / wall.as_secs_f64().max(1e-9),
            percentile(&ns, 0.50) as f64 / 1e3,
            percentile(&ns, 0.99) as f64 / 1e3,
            median(&setup_runs),
            rss_peak_mb,
        ],
        attempted,
        failed,
        failures,
        samples: ns.len(),
        beyond_p99: samples_beyond(ns.len(), 0.99),
        classes,
        setup_runs,
    })
}
