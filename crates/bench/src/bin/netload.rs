//! Loopback load generator for `tip-server`.
//!
//! ```text
//! netload [--addr HOST:PORT] [--threads N] [--statements M] [--rows K]
//!         [--contend] [--writers W] [--prepared] [--replicas R]
//! ```
//!
//! Without `--addr` it spins up an in-process server over the synthetic
//! medical database and hammers it over 127.0.0.1 — a self-contained
//! smoke benchmark of the whole wire stack (encode, TCP, decode,
//! execute, row streaming). With `--addr` it targets an already-running
//! `tip-server` instead.
//!
//! Reports total throughput and a log2 latency histogram, mirroring the
//! engine's own `SHOW STATS` bucket scheme.
//!
//! `--contend` switches to the lock-contention experiment: readers scan
//! one table while `--writers` background connections hammer **the same
//! table** with UPDATEs. Under MVCC snapshot reads the reader latency
//! profile should barely move versus the no-writer baseline (the tool
//! prints both and their p50 ratio); under reader/writer table locks —
//! let alone a global storage lock — it degrades with every writer
//! added. (The experiment predates MVCC: it originally wrote to a
//! different table, proving only table-granular locking.)
//!
//! `--prepared` switches to the plan-cache experiment: the same
//! point-SELECT workload is run twice, first as ad-hoc SQL with a
//! unique statement text per execution (every statement pays the full
//! front end), then as one prepared statement executed with fresh
//! parameters by server-side id. The tool prints both latency profiles,
//! the p50 prepared/unprepared ratio, and the server's plan-cache hit
//! ratio during the prepared phase.
//!
//! `--replicas R` switches to the replication fan-out experiment: a
//! durable loopback primary plus `R` streaming read replicas. The same
//! scan workload runs twice — every read on the primary (baseline),
//! then fanned across the replica set through the client's replicated
//! transport — and the tool prints both throughputs, their ratio, and
//! each node's served-SELECT counter. It **exits nonzero unless every
//! replica actually served reads**, so CI can use it as a smoke test.

use minidb::{Database, DurabilityConfig, SyncMode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use tip_blade::{TipBlade, TipTypes};
use tip_client::{Connection, HostValue};
use tip_core::Chronon;
use tip_server::repl::ReplicationClient;
use tip_server::{Server, ServerConfig};

const BUCKETS: usize = 22;

#[derive(Default)]
struct Histogram {
    buckets: [u64; BUCKETS],
    samples: Vec<u64>,
}

impl Histogram {
    fn record(&mut self, micros: u64) {
        let bucket = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.samples.push(micros);
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.samples.extend_from_slice(&other.samples);
    }

    /// Exact median latency in microseconds (the log2 buckets are for
    /// the printed distribution; ratios need finer grain than 2x).
    fn p50_micros(&self) -> u64 {
        self.percentile(0.50)
    }

    /// Exact quantile over every recorded sample (nearest-rank): the
    /// tail metrics the 10k-connection run is judged on.
    fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
        s[idx.min(s.len() - 1)]
    }

    fn print(&self, indent: &str) {
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, count) in self.buckets.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            let label = if i == BUCKETS - 1 {
                format!(">= 2^{i} us")
            } else {
                format!("[2^{i}, 2^{} us)", i + 1)
            };
            let stars = ((count * 40) / peak).max(1);
            println!(
                "{indent}{label:>16} {:<40} {count}",
                "*".repeat(stars as usize)
            );
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: netload [--addr HOST:PORT] [--threads N] [--statements M] [--rows K] \
         [--contend] [--writers W] [--prepared] [--replicas R] \
         [--connections N] [--pipeline DEPTH] [--json PATH]"
    );
    std::process::exit(2);
}

/// The plan-cache experiment: identical point-SELECT work, ad-hoc text
/// vs prepare-once/execute-many, plus the server's cache hit ratio.
fn run_prepared(target: &str, threads: usize, statements: usize, rows: usize) {
    let setup = Connection::connect(target).expect("connect setup");
    for sql in [
        "DROP TABLE IF EXISTS prep_bench",
        "CREATE TABLE prep_bench (id INT, x INT)",
    ] {
        setup.execute(sql, &[]).expect("prepared-mode DDL");
    }
    // Keep the key space larger than the plan-cache LRU so the ad-hoc
    // phase cannot win by accident: every unique text must plan fresh.
    let keys = rows.max(256);
    for i in 0..keys {
        setup
            .execute(
                "INSERT INTO prep_bench VALUES (:i, :v)",
                &[
                    ("i", HostValue::Int(i as i64)),
                    ("v", HostValue::Int((i * 3) as i64)),
                ],
            )
            .expect("populate prep_bench");
    }
    setup
        .execute("CREATE INDEX ix_prep_id ON prep_bench(id)", &[])
        .expect("index prep_bench");

    let phase = |prepared: bool| -> Histogram {
        let merged = Arc::new(Mutex::new(Histogram::default()));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let target = target.to_owned();
                let merged = Arc::clone(&merged);
                thread::spawn(move || {
                    let conn = Connection::connect(target.as_str()).expect("connect worker");
                    let mut hist = Histogram::default();
                    if prepared {
                        let mut stmt = conn.prepare("SELECT x FROM prep_bench WHERE id = :id");
                        assert!(
                            stmt.is_server_prepared(),
                            "--prepared needs server-side prepared statements"
                        );
                        for i in 0..statements {
                            let id = ((i * threads + t) % keys) as i64;
                            stmt = stmt.bind("id", HostValue::Int(id));
                            let begin = Instant::now();
                            let n = stmt.query().expect("prepared query").len();
                            hist.record(begin.elapsed().as_micros() as u64);
                            assert_eq!(n, 1);
                        }
                    } else {
                        for i in 0..statements {
                            let id = (i * threads + t) % keys;
                            let sql = format!("SELECT x FROM prep_bench WHERE id = {id}");
                            let begin = Instant::now();
                            let n = conn.query(&sql, &[]).expect("ad-hoc query").len();
                            hist.record(begin.elapsed().as_micros() as u64);
                            assert_eq!(n, 1);
                        }
                    }
                    merged.lock().expect("histogram").merge(&hist);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        let mut out = Histogram::default();
        out.merge(&merged.lock().expect("histogram"));
        out
    };

    eprintln!("netload: prepared phase 1 — {threads} threads, ad-hoc SQL (unique text)");
    let adhoc = phase(false);

    let before = setup.server_metrics().expect("server metrics");
    eprintln!("netload: prepared phase 2 — {threads} threads, prepared statements");
    let prepared = phase(true);
    let after = setup.server_metrics().expect("server metrics");

    println!("ad-hoc SQL, p50 {} us:", adhoc.p50_micros());
    adhoc.print("  ");
    println!("prepared, p50 {} us:", prepared.p50_micros());
    prepared.print("  ");

    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    let ratio = hits as f64 / ((hits + misses).max(1)) as f64;
    println!(
        "plan cache during prepared phase: {hits} hits / {misses} misses \
         -> hit ratio {ratio:.3}"
    );
    let speedup = adhoc.p50_micros().max(1) as f64 / prepared.p50_micros().max(1) as f64;
    println!("p50 prepared speedup over ad-hoc: {speedup:.2}x");
    if hits == 0 {
        eprintln!("netload: WARNING — prepared phase never hit the plan cache");
        std::process::exit(1);
    }
}

/// Readers-only pass over `contend_cold`: every thread runs `statements`
/// SELECTs and the merged latency histogram comes back.
fn reader_pass(target: &str, threads: usize, statements: usize) -> Histogram {
    let merged = Arc::new(Mutex::new(Histogram::default()));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let target = target.to_owned();
            let merged = Arc::clone(&merged);
            thread::spawn(move || {
                let conn = Connection::connect(target.as_str()).expect("connect reader");
                let mut hist = Histogram::default();
                for i in 0..statements {
                    let begin = Instant::now();
                    conn.query(
                        "SELECT COUNT(*) FROM contend_cold WHERE v >= :d",
                        &[("d", HostValue::Int((i % 7) as i64))],
                    )
                    .expect("reader query");
                    hist.record(begin.elapsed().as_micros() as u64);
                }
                merged.lock().expect("reader histogram").merge(&hist);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("reader panicked");
    }
    Arc::try_unwrap(merged)
        .map(|m| m.into_inner().expect("reader histogram"))
        .unwrap_or_else(|m| {
            let mut out = Histogram::default();
            out.merge(&m.lock().expect("reader histogram"));
            out
        })
}

/// Runs the reader workload while `writers` connections hammer `table`
/// with UPDATEs. Returns the merged reader histogram, the writer
/// histogram, and the number of writes that landed.
fn contended_pass(
    target: &str,
    threads: usize,
    writers: usize,
    statements: usize,
    rows: usize,
    table: &'static str,
) -> (Histogram, Histogram, i64) {
    let stop = Arc::new(AtomicBool::new(false));
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let target = target.to_owned();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let conn = Connection::connect(target.as_str()).expect("connect writer");
                let sql = format!("UPDATE {table} SET v = :v WHERE id = :i");
                let mut hist = Histogram::default();
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let begin = Instant::now();
                    conn.execute(
                        &sql,
                        &[
                            ("v", HostValue::Int((w as i64 * 1_000_000 + i) % 16)),
                            ("i", HostValue::Int(i % rows.max(1) as i64)),
                        ],
                    )
                    .expect("writer update");
                    hist.record(begin.elapsed().as_micros() as u64);
                    i += 1;
                }
                (hist, i)
            })
        })
        .collect();
    let readers = reader_pass(target, threads, statements);
    stop.store(true, Ordering::Relaxed);
    let mut writer_hist = Histogram::default();
    let mut writes = 0i64;
    for h in writer_handles {
        let (hist, n) = h.join().expect("writer panicked");
        writer_hist.merge(&hist);
        writes += n;
    }
    (readers, writer_hist, writes)
}

/// The contention experiment, three phases of the same reader workload:
/// no writers (baseline), writers updating a table the readers never
/// touch (control: any slowdown is pure CPU/scheduler cost, no lock can
/// be involved), and writers updating **the table the readers scan**.
/// MVCC snapshot reads make the same-table phase cost what the control
/// costs; reader/writer table locks would not. UPDATEs (not INSERTs)
/// keep the table size fixed so every phase compares scan cost like for
/// like.
fn run_contention(target: &str, threads: usize, writers: usize, statements: usize, rows: usize) {
    let setup = Connection::connect(target).expect("connect setup");
    for sql in [
        "DROP TABLE IF EXISTS contend_cold",
        "DROP TABLE IF EXISTS contend_other",
        "CREATE TABLE contend_cold (id INT, v INT)",
        "CREATE TABLE contend_other (id INT, v INT)",
    ] {
        setup.execute(sql, &[]).expect("contention DDL");
    }
    for table in ["contend_cold", "contend_other"] {
        let insert = format!("INSERT INTO {table} VALUES (:i, :v)");
        for i in 0..rows {
            setup
                .execute(
                    &insert,
                    &[
                        ("i", HostValue::Int(i as i64)),
                        ("v", HostValue::Int((i % 16) as i64)),
                    ],
                )
                .expect("populate contention tables");
        }
    }

    eprintln!("netload: contention phase 1 — {threads} readers, no writers");
    let baseline = reader_pass(target, threads, statements);

    eprintln!(
        "netload: contention phase 2 — {writers} writer(s) on a table the readers never touch"
    );
    let (control, _, control_writes) =
        contended_pass(target, threads, writers, statements, rows, "contend_other");

    eprintln!("netload: contention phase 3 — {writers} writer(s) on the readers' own table");
    let (contended, writer_hist, writes) =
        contended_pass(target, threads, writers, statements, rows, "contend_cold");

    println!(
        "reader baseline (no writers), p50 {} us:",
        baseline.p50_micros()
    );
    baseline.print("  ");
    println!(
        "reader vs writers on another table ({control_writes} updates), p50 {} us:",
        control.p50_micros()
    );
    control.print("  ");
    println!(
        "reader vs writers on the same table ({writes} updates), p50 {} us:",
        contended.p50_micros()
    );
    contended.print("  ");
    println!("same-table writer p50 {} us:", writer_hist.p50_micros());
    writer_hist.print("  ");

    let base = baseline.p50_micros().max(1) as f64;
    let control_ratio = control.p50_micros().max(1) as f64 / base;
    let same_ratio = contended.p50_micros().max(1) as f64 / base;
    let lock_cost = same_ratio / control_ratio.max(f64::EPSILON);
    println!("reader p50 ratio, other-table writers / baseline: {control_ratio:.2}x (CPU cost of the writer load)");
    println!("reader p50 ratio, same-table  writers / baseline: {same_ratio:.2}x");
    println!(
        "same-table / other-table: {lock_cost:.2}x \
         (MVCC snapshot reads should keep this near 1x — writers never block readers)"
    );
}

/// One timed reader pass over `fan_bench`. With an empty replica list
/// every statement goes straight to the primary; otherwise each thread
/// opens a replicated connection and its SELECTs fan round-robin across
/// the replica set. Every thread connects and runs a handful of untimed
/// warmup statements first, then all threads cross a barrier together —
/// the clock measures steady-state statement service, not TCP dials and
/// handshakes (the same methodology for both passes, so the ratio
/// compares like with like). Returns the merged histogram and stmt/s.
fn fan_pass(
    primary: &str,
    replicas: &[String],
    threads: usize,
    statements: usize,
) -> (Histogram, f64) {
    let merged = Arc::new(Mutex::new(Histogram::default()));
    let replicas: Arc<Vec<String>> = Arc::new(replicas.to_vec());
    let gate = Arc::new(std::sync::Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let primary = primary.to_owned();
            let replicas = Arc::clone(&replicas);
            let merged = Arc::clone(&merged);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let conn = if replicas.is_empty() {
                    Connection::connect(primary.as_str()).expect("connect primary")
                } else {
                    let refs: Vec<&str> = replicas.iter().map(String::as_str).collect();
                    Connection::connect_replicated(primary.as_str(), &refs)
                        .expect("connect replicated")
                };
                let run = |hist: Option<&mut Histogram>, count: usize| {
                    let mut hist = hist;
                    for i in 0..count {
                        let begin = Instant::now();
                        let n = conn
                            .query(
                                "SELECT COUNT(*) FROM fan_bench WHERE v >= :d",
                                &[("d", HostValue::Int((i % 7) as i64))],
                            )
                            .expect("fan query")
                            .len();
                        if let Some(h) = hist.as_deref_mut() {
                            h.record(begin.elapsed().as_micros() as u64);
                        }
                        assert_eq!(n, 1);
                    }
                };
                // Warm every lazily-dialed connection in the fan before
                // the clock starts (one statement per replica endpoint).
                run(None, replicas.len().max(1) * 2);
                gate.wait();
                let mut hist = Histogram::default();
                run(Some(&mut hist), statements);
                merged.lock().expect("fan histogram").merge(&hist);
            })
        })
        .collect();
    gate.wait();
    let started = Instant::now();
    for w in workers {
        w.join().expect("fan reader panicked");
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let mut out = Histogram::default();
    out.merge(&merged.lock().expect("fan histogram"));
    (out, (threads * statements) as f64 / elapsed)
}

/// The replication fan-out experiment: a durable loopback primary plus
/// `n` streaming replicas, all in-process. The same reader workload runs
/// twice — primary-only, then fanned across the replicas through the
/// client's replicated transport — and each node's served-SELECT counter
/// proves where the reads actually landed. Exits nonzero unless every
/// replica served reads, so CI can lean on it as a smoke test.
fn run_replicas(threads: usize, statements: usize, rows: usize, n: usize) {
    // Replication requires a durable primary (the stream is its WAL);
    // sync is off because this benchmark measures reads, not fsync.
    let dir = std::env::temp_dir().join(format!("tip-netload-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::Off,
        ..DurabilityConfig::default()
    };
    let (pdb, _) =
        Database::open_with(&dir, cfg, |db| db.install_blade(&TipBlade)).expect("open primary");
    let pserver = Server::bind(
        "127.0.0.1:0",
        &pdb,
        ServerConfig {
            max_connections: threads + n + 8,
            ..Default::default()
        },
    )
    .expect("bind primary");
    let paddr = pserver.local_addr().to_string();

    // Populate before the replicas subscribe so the load is one
    // snapshot catch-up, not a commit-by-commit ack conversation.
    let setup = Connection::connect(&paddr).expect("connect setup");
    setup
        .execute("CREATE TABLE fan_bench (id INT, v INT)", &[])
        .expect("fan_bench DDL");
    for i in 0..rows {
        setup
            .execute(
                "INSERT INTO fan_bench VALUES (:i, :v)",
                &[
                    ("i", HostValue::Int(i as i64)),
                    ("v", HostValue::Int((i % 16) as i64)),
                ],
            )
            .expect("populate fan_bench");
    }

    let mut nodes: Vec<(Arc<Database>, Server, ReplicationClient)> = Vec::new();
    let mut raddrs: Vec<String> = Vec::new();
    for _ in 0..n {
        let rdb = Database::new();
        rdb.install_blade(&TipBlade).expect("replica blade");
        rdb.set_read_only(&paddr);
        let rserver = Server::bind(
            "127.0.0.1:0",
            &rdb,
            ServerConfig {
                max_connections: threads + 8,
                ..Default::default()
            },
        )
        .expect("bind replica");
        let client = ReplicationClient::start(&rdb, &paddr);
        raddrs.push(rserver.local_addr().to_string());
        nodes.push((rdb, rserver, client));
    }
    let target = pdb.wal_progress().expect("durable primary").seq;
    let deadline = Instant::now() + Duration::from_secs(60);
    for (rdb, _, _) in &nodes {
        while rdb.repl_stats().last_seq() < target {
            assert!(
                Instant::now() < deadline,
                "replica stalled at seq {} (want {target})",
                rdb.repl_stats().last_seq()
            );
            thread::sleep(Duration::from_millis(10));
        }
    }
    eprintln!(
        "netload: primary {paddr} + {n} replica(s) caught up to seq {target}; \
         {threads} threads x {statements} statements per pass"
    );

    eprintln!("netload: replicas phase 1 — every read on the primary");
    let before_primary = pserver.metrics().selects;
    let (base_hist, base_rate) = fan_pass(&paddr, &[], threads, statements);
    let primary_served = pserver.metrics().selects - before_primary;

    eprintln!("netload: replicas phase 2 — reads fanned across the replica set");
    let before: Vec<u64> = nodes.iter().map(|(_, s, _)| s.metrics().selects).collect();
    let (fan_hist, fan_rate) = fan_pass(&paddr, &raddrs, threads, statements);
    let served: Vec<u64> = nodes
        .iter()
        .zip(&before)
        .map(|((_, s, _), b)| s.metrics().selects - b)
        .collect();

    println!(
        "primary-only baseline: {base_rate:.1} stmt/s, p50 {} us:",
        base_hist.p50_micros()
    );
    base_hist.print("  ");
    println!(
        "fanned across {n} replica(s): {fan_rate:.1} stmt/s, p50 {} us:",
        fan_hist.p50_micros()
    );
    fan_hist.print("  ");
    println!("baseline SELECTs served by the primary: {primary_served}");
    for (i, s) in served.iter().enumerate() {
        println!("fanned SELECTs served by replica {i} ({}): {s}", raddrs[i]);
    }
    let ratio = fan_rate / base_rate.max(1e-9);
    let p50_ratio = base_hist.p50_micros().max(1) as f64 / fan_hist.p50_micros().max(1) as f64;
    println!(
        "aggregate read throughput, fanned / primary-only: {ratio:.2}x \
         (p50 speedup {p50_ratio:.2}x)"
    );
    // Fan-out multiplies throughput only when the nodes have CPUs to
    // themselves; with every node sharing one in-process core the ratio
    // honestly flatlines at ~1x. Say which regime this run measured.
    let cores = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "host parallelism: {cores} core(s) for {} in-process node(s) — \
         fan-out scales with cores per node, so interpret the ratio accordingly",
        n + 1
    );

    let starved = served.contains(&0);
    if starved {
        eprintln!("netload: FAILED — at least one replica served zero reads");
    }
    drop(nodes);
    drop(pserver);
    let _ = pdb.close();
    let _ = std::fs::remove_dir_all(&dir);
    if starved {
        std::process::exit(1);
    }
}

/// Writes the machine-readable benchmark record. Values are already
/// JSON-rendered (numbers and quoted strings); no serde in the tree.
fn write_bench_json(path: &str, fields: &[(&str, String)]) {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let doc = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(path, &doc).expect("write bench json");
    eprintln!("netload: wrote {path}");
}

/// The connection-scaling experiment: one multiplexed driver holds N
/// concurrent connections against an in-process server and runs a
/// closed loop of indexed point SELECTs on each. The driver rides the
/// same readiness [`Poller`] the server's reactor uses, so neither side
/// needs a thread per connection. Exits nonzero on any error, any
/// unexpected BUSY below the admission cap, or a stalled run.
fn run_connections(
    external: Option<String>,
    n: usize,
    statements: usize,
    rows: usize,
    json_path: &str,
) {
    use std::io::{Read, Write};
    use tip_client::protocol::{self as proto, req, resp, FrameAccumulator, Hello};
    use tip_server::net::{raise_nofile_limit, Poller, EV_READ, EV_WRITE};

    // Self-contained runs hold both socket ends in this process (2 fds
    // per connection); against an external server only the client end.
    let per_conn = if external.is_some() { 1 } else { 2 };
    let want_fds = (per_conn * n + 512) as u64;
    let limit = raise_nofile_limit(want_fds);
    if limit < (per_conn * n + 64) as u64 {
        eprintln!(
            "netload: WARNING — fd limit {limit} (< {want_fds}) may be too \
             low for {n} connections"
        );
    }

    let local_server: Option<Server> = match &external {
        Some(_) => None,
        None => {
            let db = Database::new();
            db.install_blade(&TipBlade).expect("fresh database");
            Some(
                Server::bind(
                    "127.0.0.1:0",
                    &db,
                    ServerConfig {
                        max_connections: n + 16,
                        ..Default::default()
                    },
                )
                .expect("bind loopback server"),
            )
        }
    };
    let addr: std::net::SocketAddr = match &external {
        Some(a) => {
            use std::net::ToSocketAddrs;
            a.to_socket_addrs()
                .expect("resolve --addr")
                .next()
                .expect("resolve --addr")
        }
        None => local_server.as_ref().expect("local server").local_addr(),
    };

    let setup = Connection::connect(addr).expect("connect setup");
    let _ = setup.execute("DROP TABLE IF EXISTS conn_bench", &[]);
    setup
        .execute("CREATE TABLE conn_bench (id INT, x INT)", &[])
        .expect("conn_bench DDL");
    let keys = rows.max(64);
    for i in 0..keys {
        setup
            .execute(
                "INSERT INTO conn_bench VALUES (:i, :v)",
                &[
                    ("i", HostValue::Int(i as i64)),
                    ("v", HostValue::Int((i * 3) as i64)),
                ],
            )
            .expect("populate conn_bench");
    }
    setup
        .execute("CREATE INDEX ix_conn_id ON conn_bench(id)", &[])
        .expect("index conn_bench");

    struct CState {
        stream: std::net::TcpStream,
        acc: FrameAccumulator,
        out: Vec<u8>,
        sent: usize,
        interest: u32,
        ready: bool,
        done: usize,
        begun: Option<Instant>,
        finished: bool,
    }

    let display = |_: &minidb::Value| String::new();
    let mut poller = Poller::new().expect("poller");
    let mut conns: Vec<CState> = Vec::with_capacity(n);
    let mut events = Vec::with_capacity(1024);
    let mut hist = Histogram::default();
    let mut errors = 0u64;
    let mut busy = 0u64;
    let mut finished_conns = 0usize;
    let mut ready_conns = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    // First few error causes, for diagnosing a failed run.
    let mut samples: Vec<String> = Vec::new();

    // Everything the event loop does to one connection on readiness.
    // Returns true while the connection stays open.
    #[allow(clippy::too_many_arguments)]
    fn pump_conn(
        cs: &mut CState,
        token: u64,
        readable: bool,
        writable: bool,
        hangup: bool,
        poller: &mut Poller,
        scratch: &mut [u8],
        hist: &mut Histogram,
        errors: &mut u64,
        busy: &mut u64,
        statements: usize,
        keys: usize,
        display: &dyn Fn(&minidb::Value) -> String,
        measuring: bool,
        samples: &mut Vec<String>,
    ) -> bool {
        use std::os::unix::io::AsRawFd;
        if cs.finished {
            return false;
        }
        let fail = |cs: &mut CState,
                    errors: &mut u64,
                    poller: &mut Poller,
                    samples: &mut Vec<String>,
                    cause: &str| {
            *errors += 1;
            if samples.len() < 8 {
                samples.push(format!("conn {token}: {cause}"));
            }
            cs.finished = true;
            let _ = poller.deregister(cs.stream.as_raw_fd());
            false
        };
        if writable && cs.sent < cs.out.len() {
            loop {
                match (&cs.stream).write(&cs.out[cs.sent..]) {
                    Ok(0) => return fail(cs, errors, poller, samples, "write returned 0"),
                    Ok(k) => {
                        cs.sent += k;
                        if cs.sent == cs.out.len() {
                            cs.out.clear();
                            cs.sent = 0;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return fail(cs, errors, poller, samples, &format!("write: {e}")),
                }
            }
            let want = if cs.out.is_empty() {
                EV_READ
            } else {
                EV_READ | EV_WRITE
            };
            if want != cs.interest {
                cs.interest = want;
                let _ = poller.modify(cs.stream.as_raw_fd(), token, want);
            }
        }
        if readable || hangup {
            // EOF must not short-circuit frame parsing: a BUSY reject
            // followed by close lands as data + EOF in one readiness
            // event, and the BUSY frame still has to be credited.
            let mut eof = false;
            loop {
                match (&cs.stream).read(scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(k) => cs.acc.extend(&scratch[..k]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return fail(cs, errors, poller, samples, &format!("read: {e}")),
                }
            }
            loop {
                match cs.acc.next_frame() {
                    Ok(None) => break,
                    Err(e) => return fail(cs, errors, poller, samples, &format!("frame: {e}")),
                    Ok(Some((tag, body))) => match tag {
                        resp::HELLO_OK => match proto::hello_reply(tag, &body) {
                            Ok(()) => cs.ready = true,
                            Err(e) => return fail(cs, errors, poller, samples, &e.to_string()),
                        },
                        resp::BUSY => {
                            *busy += 1;
                            cs.finished = true;
                            let _ = poller.deregister(cs.stream.as_raw_fd());
                            return false;
                        }
                        resp::ROWS_HEADER | resp::ROW_BATCH => {}
                        resp::ROWS_DONE | resp::ERROR => {
                            if tag == resp::ERROR {
                                *errors += 1;
                                if samples.len() < 8 {
                                    let msg = proto::decode_error(&body)
                                        .map(|e| e.to_string())
                                        .unwrap_or_else(|_| "undecodable ERROR".into());
                                    samples.push(format!("conn {token}: statement: {msg}"));
                                }
                            }
                            if measuring {
                                if let Some(t0) = cs.begun.take() {
                                    hist.record(t0.elapsed().as_micros() as u64);
                                }
                                cs.done += 1;
                                if cs.done < statements {
                                    send_stmt(cs, token, poller, keys, display);
                                } else {
                                    let _ = proto::write_frame(&mut cs.out, req::BYE, &[]);
                                    flush_now(cs, token, poller);
                                    cs.finished = true;
                                    let _ = poller.deregister(cs.stream.as_raw_fd());
                                    let _ = cs.stream.shutdown(std::net::Shutdown::Both);
                                    return false;
                                }
                            }
                        }
                        _ => {
                            return fail(
                                cs,
                                errors,
                                poller,
                                samples,
                                &format!("unexpected tag {tag}"),
                            )
                        }
                    },
                }
            }
            if eof {
                // Early EOF is only clean after our BYE went out.
                return fail(cs, errors, poller, samples, "unexpected EOF");
            }
        }
        true
    }

    fn send_stmt(
        cs: &mut CState,
        token: u64,
        poller: &mut Poller,
        keys: usize,
        display: &dyn Fn(&minidb::Value) -> String,
    ) {
        let id = ((token as usize).wrapping_mul(31).wrapping_add(cs.done * 7) % keys) as i64;
        let body = proto::encode_stmt(
            "SELECT x FROM conn_bench WHERE id = :id",
            &[("id", minidb::Value::Int(id))],
            display,
        );
        proto::write_frame(&mut cs.out, req::STMT, &body).expect("encode stmt");
        cs.begun = Some(Instant::now());
        flush_now(cs, token, poller);
    }

    /// Opportunistic nonblocking flush; arms EV_WRITE on short writes.
    fn flush_now(cs: &mut CState, token: u64, poller: &mut Poller) {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        while cs.sent < cs.out.len() {
            match (&cs.stream).write(&cs.out[cs.sent..]) {
                Ok(0) => break,
                Ok(k) => cs.sent += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        if cs.sent == cs.out.len() {
            cs.out.clear();
            cs.sent = 0;
        }
        let want = if cs.out.is_empty() {
            EV_READ
        } else {
            EV_READ | EV_WRITE
        };
        if want != cs.interest {
            cs.interest = want;
            let _ = poller.modify(cs.stream.as_raw_fd(), token, want);
        }
    }

    // Connect phase: dial in paced chunks so the accept queue and the
    // handshake pipeline never outrun the single-threaded server.
    eprintln!("netload: opening {n} connections to {addr}");
    let connect_deadline = Instant::now() + Duration::from_secs(300);
    for idx in 0..n {
        use std::os::unix::io::AsRawFd;
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        {
            let mut s = &stream;
            proto::write_frame(
                &mut s,
                req::HELLO,
                &proto::encode_hello(&Hello {
                    version: proto::VERSION,
                    now_unix: None,
                }),
            )
            .expect("send HELLO");
        }
        stream.set_nonblocking(true).expect("nonblocking");
        poller
            .register(stream.as_raw_fd(), idx as u64, EV_READ)
            .expect("register");
        conns.push(CState {
            stream,
            acc: FrameAccumulator::new(),
            out: Vec::new(),
            sent: 0,
            interest: EV_READ,
            ready: false,
            done: 0,
            begun: None,
            finished: false,
        });
        // Pace: don't run more than 64 handshakes ahead of the server.
        while conns.len() - ready_conns - (errors + busy) as usize > 64 {
            assert!(Instant::now() < connect_deadline, "connect phase stalled");
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("poller wait");
            for ev in events.clone() {
                let cs = &mut conns[ev.token as usize];
                let was_ready = cs.ready;
                pump_conn(
                    cs,
                    ev.token,
                    ev.readable,
                    ev.writable,
                    ev.hangup,
                    &mut poller,
                    &mut scratch,
                    &mut hist,
                    &mut errors,
                    &mut busy,
                    statements,
                    keys,
                    &display,
                    false,
                    &mut samples,
                );
                if cs.ready && !was_ready {
                    ready_conns += 1;
                }
            }
        }
    }
    while ready_conns + ((errors + busy) as usize) < n {
        assert!(Instant::now() < connect_deadline, "handshake phase stalled");
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("poller wait");
        for ev in events.clone() {
            let cs = &mut conns[ev.token as usize];
            let was_ready = cs.ready;
            pump_conn(
                cs,
                ev.token,
                ev.readable,
                ev.writable,
                ev.hangup,
                &mut poller,
                &mut scratch,
                &mut hist,
                &mut errors,
                &mut busy,
                statements,
                keys,
                &display,
                false,
                &mut samples,
            );
            if cs.ready && !was_ready {
                ready_conns += 1;
            }
        }
    }
    if let Some(server) = &local_server {
        eprintln!(
            "netload: {ready_conns}/{n} connections established \
             ({} live on the server); running {statements} statements each",
            server.connection_count()
        );
    } else {
        eprintln!(
            "netload: {ready_conns}/{n} connections established; \
             running {statements} statements each"
        );
    }

    // Measurement phase: kick every connection's closed loop at once.
    let started = Instant::now();
    for (idx, cs) in conns.iter_mut().enumerate() {
        if cs.finished {
            // Rejected (BUSY) or failed during connect: already settled,
            // but it still counts toward the loop's exit tally.
            finished_conns += 1;
        } else if cs.ready {
            send_stmt(cs, idx as u64, &mut poller, keys, &display);
        } else {
            cs.finished = true;
            finished_conns += 1;
        }
    }
    let run_deadline = Instant::now() + Duration::from_secs(600);
    while finished_conns < conns.len() {
        assert!(Instant::now() < run_deadline, "measurement phase stalled");
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("poller wait");
        for ev in events.clone() {
            let idx = ev.token as usize;
            let was_finished = conns[idx].finished;
            pump_conn(
                &mut conns[idx],
                ev.token,
                ev.readable,
                ev.writable,
                ev.hangup,
                &mut poller,
                &mut scratch,
                &mut hist,
                &mut errors,
                &mut busy,
                statements,
                keys,
                &display,
                true,
                &mut samples,
            );
            if conns[idx].finished && !was_finished {
                finished_conns += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let total: usize = conns.iter().map(|c| c.done).sum();
    let rate = total as f64 / elapsed;

    println!(
        "{n} connections x {statements} statements: {total} statements \
         in {elapsed:.3}s -> {rate:.1} stmt/s"
    );
    println!(
        "latency p50 {} us, p99 {} us, p999 {} us",
        hist.percentile(0.50),
        hist.percentile(0.99),
        hist.percentile(0.999)
    );
    if let Some(server) = &local_server {
        let stats = server.stats();
        println!(
            "server stats: accepted {}, busy {}, parks {}, read pauses {}, pipelined {}",
            stats.accepted,
            stats.busy_rejects,
            stats.park_events,
            stats.read_pauses,
            stats.pipelined
        );
    }
    println!("client errors {errors}, busy rejections {busy}");
    for s in &samples {
        eprintln!("netload: error sample: {s}");
    }
    hist.print("  ");

    write_bench_json(
        json_path,
        &[
            ("bench", "\"netload\"".into()),
            ("mode", "\"connections\"".into()),
            ("connections", n.to_string()),
            ("statements_per_connection", statements.to_string()),
            ("total_statements", total.to_string()),
            ("elapsed_s", format!("{elapsed:.3}")),
            ("stmt_per_sec", format!("{rate:.1}")),
            ("p50_us", hist.percentile(0.50).to_string()),
            ("p99_us", hist.percentile(0.99).to_string()),
            ("p999_us", hist.percentile(0.999).to_string()),
            ("errors", errors.to_string()),
            ("busy", busy.to_string()),
        ],
    );

    if errors > 0 || busy > 0 {
        eprintln!("netload: FAILED — {errors} errors, {busy} BUSY below the admission cap");
        std::process::exit(1);
    }
}

/// The pipelining experiment: the same prepared point-SELECT workload
/// run closed-loop at depth 1, then in batches of `depth` statements
/// per round trip through [`Connection::pipeline`]. Exits nonzero
/// unless pipelining beats depth-1 throughput.
fn run_pipeline(
    target: &str,
    threads: usize,
    depth: usize,
    statements: usize,
    rows: usize,
    json_path: &str,
) {
    assert!(depth >= 2, "--pipeline DEPTH must be >= 2");
    let setup = Connection::connect(target).expect("connect setup");
    for sql in [
        "DROP TABLE IF EXISTS pipe_bench",
        "CREATE TABLE pipe_bench (id INT, x INT)",
    ] {
        setup.execute(sql, &[]).expect("pipeline-mode DDL");
    }
    let keys = rows.max(256);
    for i in 0..keys {
        setup
            .execute(
                "INSERT INTO pipe_bench VALUES (:i, :v)",
                &[
                    ("i", HostValue::Int(i as i64)),
                    ("v", HostValue::Int((i * 3) as i64)),
                ],
            )
            .expect("populate pipe_bench");
    }
    setup
        .execute("CREATE INDEX ix_pipe_id ON pipe_bench(id)", &[])
        .expect("index pipe_bench");

    // Each phase runs the same number of statements; the pipelined
    // phase rounds down to whole batches.
    let phase = |pipelined: bool| -> (Histogram, f64, usize) {
        let merged = Arc::new(Mutex::new(Histogram::default()));
        let gate = Arc::new(std::sync::Barrier::new(threads + 1));
        let executed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let target = target.to_owned();
                let merged = Arc::clone(&merged);
                let gate = Arc::clone(&gate);
                let executed = Arc::clone(&executed);
                thread::spawn(move || {
                    let conn = Connection::connect(target.as_str()).expect("connect worker");
                    let mut stmt = conn.prepare("SELECT x FROM pipe_bench WHERE id = :id");
                    assert!(
                        stmt.is_server_prepared(),
                        "--pipeline needs server-side prepared statements"
                    );
                    // Warm the connection before the clock starts.
                    stmt = stmt.bind("id", HostValue::Int(0));
                    stmt.query().expect("warmup").len();
                    gate.wait();
                    let mut hist = Histogram::default();
                    let mut ran = 0usize;
                    if pipelined {
                        let rounds = statements / depth;
                        for r in 0..rounds {
                            let mut pipe = conn.pipeline();
                            for d in 0..depth {
                                let id = ((r * depth + d) * threads + t) % keys;
                                stmt = stmt.bind("id", HostValue::Int(id as i64));
                                pipe.add_prepared(&stmt);
                            }
                            let begin = Instant::now();
                            let results = pipe.run().expect("pipeline run");
                            let per_stmt = (begin.elapsed().as_micros() as u64) / depth as u64;
                            assert_eq!(results.len(), depth);
                            for slot in results {
                                let mut rows = slot.expect("slot").into_rows().expect("rows");
                                assert!(rows.next());
                                hist.record(per_stmt);
                                ran += 1;
                            }
                        }
                    } else {
                        for i in 0..statements {
                            let id = (i * threads + t) % keys;
                            stmt = stmt.bind("id", HostValue::Int(id as i64));
                            let begin = Instant::now();
                            let n = stmt.query().expect("depth-1 query").len();
                            hist.record(begin.elapsed().as_micros() as u64);
                            assert_eq!(n, 1);
                            ran += 1;
                        }
                    }
                    executed.fetch_add(ran, Ordering::Relaxed);
                    merged.lock().expect("histogram").merge(&hist);
                })
            })
            .collect();
        gate.wait();
        let started = Instant::now();
        for w in workers {
            w.join().expect("worker panicked");
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let ran = executed.load(Ordering::Relaxed);
        let mut out = Histogram::default();
        out.merge(&merged.lock().expect("histogram"));
        (out, ran as f64 / elapsed, ran)
    };

    eprintln!("netload: pipeline phase 1 — {threads} connections, depth 1");
    let (h1, rate1, ran1) = phase(false);
    eprintln!("netload: pipeline phase 2 — {threads} connections, depth {depth}");
    let (hd, rated, rand_) = phase(true);

    println!(
        "depth 1:      {ran1} statements -> {rate1:.1} stmt/s, \
         p50 {} us, p99 {} us, p999 {} us",
        h1.percentile(0.50),
        h1.percentile(0.99),
        h1.percentile(0.999)
    );
    println!(
        "depth {depth}: {rand_} statements -> {rated:.1} stmt/s, \
         p50 {} us, p99 {} us, p999 {} us (per statement)",
        hd.percentile(0.50),
        hd.percentile(0.99),
        hd.percentile(0.999)
    );
    let speedup = rated / rate1.max(1e-9);
    println!("pipelined throughput over depth-1: {speedup:.2}x");

    write_bench_json(
        json_path,
        &[
            ("bench", "\"netload\"".into()),
            ("mode", "\"pipeline\"".into()),
            ("connections", threads.to_string()),
            ("depth", depth.to_string()),
            ("depth1_stmt_per_sec", format!("{rate1:.1}")),
            ("pipelined_stmt_per_sec", format!("{rated:.1}")),
            ("speedup", format!("{speedup:.3}")),
            ("depth1_p50_us", h1.percentile(0.50).to_string()),
            ("depth1_p99_us", h1.percentile(0.99).to_string()),
            ("pipelined_p50_us", hd.percentile(0.50).to_string()),
            ("pipelined_p99_us", hd.percentile(0.99).to_string()),
            ("pipelined_p999_us", hd.percentile(0.999).to_string()),
        ],
    );

    if rated <= rate1 {
        eprintln!("netload: FAILED — pipelining did not beat depth-1 throughput");
        std::process::exit(1);
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut threads = 8usize;
    let mut statements = 200usize;
    let mut rows = 200usize;
    let mut contend = false;
    let mut writers = 2usize;
    let mut prepared = false;
    let mut replicas = 0usize;
    let mut connections = 0usize;
    let mut pipeline = 0usize;
    let mut json_path = "BENCH_9.json".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |a: Option<String>| a.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = Some(args.next().unwrap_or_else(|| usage())),
            "--threads" => threads = num(args.next()),
            "--statements" => statements = num(args.next()),
            "--rows" => rows = num(args.next()),
            "--contend" => contend = true,
            "--writers" => writers = num(args.next()),
            "--prepared" => prepared = true,
            "--replicas" => replicas = num(args.next()),
            "--connections" => connections = num(args.next()),
            "--pipeline" => pipeline = num(args.next()),
            "--json" => json_path = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    if connections > 0 {
        // Self-contained by default; with --addr the driver targets an
        // already-running server, halving this process's fd budget —
        // the route to 10k connections under a 20k fd limit.
        run_connections(addr, connections, statements, rows, &json_path);
        return;
    }

    if replicas > 0 {
        // The fan-out experiment owns its whole topology; a foreign
        // --addr primary cannot host in-process replicas.
        if addr.is_some() {
            usage();
        }
        run_replicas(threads, statements, rows, replicas);
        return;
    }

    // Self-contained mode: serve the synthetic medical database locally.
    let _local_server: Option<Server>;
    let target = match addr {
        Some(a) => {
            _local_server = None;
            a
        }
        None => {
            let db = Database::new();
            db.install_blade(&TipBlade).expect("fresh database");
            let session = db.session();
            let types = db.with_catalog(TipTypes::from_catalog).expect("bladed");
            let cfg = tip_workload::MedicalConfig {
                n_prescriptions: rows,
                ..Default::default()
            };
            let med = tip_workload::generate(&cfg);
            tip_workload::populate_tip(&session, types, &med).expect("populate");
            let server = Server::bind(
                "127.0.0.1:0",
                &db,
                ServerConfig {
                    max_connections: threads + writers + 8,
                    ..Default::default()
                },
            )
            .expect("bind loopback server");
            let a = server.local_addr().to_string();
            eprintln!("netload: serving {rows} prescriptions on {a}");
            _local_server = Some(server);
            a
        }
    };

    if contend {
        run_contention(&target, threads, writers, statements, rows);
        return;
    }
    if prepared {
        run_prepared(&target, threads, statements, rows);
        return;
    }
    if pipeline > 0 {
        run_pipeline(&target, threads, pipeline, statements, rows, &json_path);
        return;
    }

    eprintln!("netload: {threads} threads x {statements} statements against {target}");
    let total_hist = Arc::new(Mutex::new(Histogram::default()));
    let started = Instant::now();

    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let target = target.clone();
            let total_hist = Arc::clone(&total_hist);
            thread::spawn(move || {
                let conn = Connection::connect(target.as_str()).expect("connect");
                // Each thread browses under its own NOW to exercise the
                // per-connection session state.
                let now = Chronon::from_ymd(1994 + (t % 8) as i32, 6, 1).expect("valid date");
                conn.set_now(Some(now));

                let mut hist = Histogram::default();
                let mut rows_seen = 0usize;
                for i in 0..statements {
                    let begin = Instant::now();
                    let n = match i % 3 {
                        0 => conn
                            .query(
                                "SELECT patient, drug, dosage FROM Prescription \
                                 WHERE dosage >= :d",
                                &[("d", HostValue::Int((i % 5) as i64))],
                            )
                            .expect("query")
                            .len(),
                        1 => conn
                            .query(
                                "SELECT patient, total_seconds(length(valid)) FROM Prescription",
                                &[],
                            )
                            .expect("query")
                            .len(),
                        _ => conn
                            .query("SELECT doctor, valid FROM Prescription", &[])
                            .expect("query")
                            .len(),
                    };
                    rows_seen += n;
                    hist.record(begin.elapsed().as_micros() as u64);
                }
                total_hist.lock().expect("histogram").merge(&hist);
                rows_seen
            })
        })
        .collect();

    let mut rows_seen = 0usize;
    for w in workers {
        rows_seen += w.join().expect("worker panicked");
    }
    let elapsed = started.elapsed();

    let total = (threads * statements) as f64;
    println!(
        "total {} statements ({rows_seen} rows) in {:.3}s -> {:.1} stmt/s",
        threads * statements,
        elapsed.as_secs_f64(),
        total / elapsed.as_secs_f64().max(1e-9),
    );
    println!("latency histogram (log2 microseconds):");
    total_hist.lock().expect("histogram").print("  ");
}
