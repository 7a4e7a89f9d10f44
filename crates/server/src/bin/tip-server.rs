//! Stand-alone TIP server.
//!
//! ```text
//! tip-server [--listen ADDR] [--max-connections N] [--workers N]
//!            [--max-subscribers N] [--demo]
//!            [--data-dir DIR] [--sync MODE] [--checkpoint-bytes N]
//!            [--mvcc-retention N] [--page-size N] [--pool-pages N]
//!            [--replicate-from ADDR]
//! tip-server --promote ADDR
//! ```
//!
//! `--workers` sizes the reactor set: N threads that each own a share
//! of the connections and run their statements (0 = one per core, at
//! least 2); `--max-subscribers` caps replication subscribers, which hold
//! dedicated streaming threads and do not count against
//! `--max-connections`.
//!
//! `--demo` pre-populates the shared database with the synthetic
//! medical workload so a `tip-browser-cli connect <addr>` in another
//! terminal has something to query.
//!
//! `--data-dir DIR` runs durable: the database recovers from `DIR` on
//! startup (snapshot + WAL replay) and logs every committed statement.
//! `--sync` picks the fsync policy (`every-commit` [default], `off`, or
//! `interval:MILLIS`); `--checkpoint-bytes N` sets the log size that
//! triggers a checkpoint (0 disables size-triggered checkpoints);
//! `--mvcc-retention N` sets how many published commits stay readable
//! for AS OF queries; `--page-size N` sets the cold-page size in bytes
//! (512..=32768, a multiple of 8) and `--pool-pages N` bounds how many
//! such pages the buffer pool keeps resident — together they cap the
//! memory historical rows can occupy regardless of database size.
//!
//! `--replicate-from ADDR` starts this server as a read-only replica of
//! the primary at `ADDR`: it streams the primary's WAL, serves reads
//! (writes are rejected with a typed error naming the primary), and
//! accepts an admin PROMOTE frame to take over as primary. When
//! `--data-dir` is also given the directory is *not* opened at startup;
//! it becomes the promoted node's durable home.
//!
//! `--promote ADDR` is the matching admin verb: send the PROMOTE frame
//! to the replica at `ADDR` and exit (0 on success).
//!
//! A durable server (or a replica) also reads stdin: a `quit` line
//! performs a clean shutdown (stop accepting, final checkpoint) — the
//! hook integration tests use to distinguish clean shutdown from a kill.

use minidb::{Database, DbError, DurabilityConfig, SyncMode};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tip_blade::{TipBlade, TipTypes};
use tip_server::repl::ReplicationClient;
use tip_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: tip-server [--listen ADDR] [--max-connections N] [--workers N] \
         [--max-subscribers N] [--demo] \
         [--data-dir DIR] [--sync off|every-commit|interval:MS] [--checkpoint-bytes N] \
         [--mvcc-retention N] [--page-size N] [--pool-pages N] \
         [--replicate-from ADDR] | --promote ADDR\n\
         --workers N: reactor threads, each owning a share of the connections \
         and running their statements (0 = one per core, at least 2)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7474".to_string();
    let mut cfg = ServerConfig::default();
    let mut demo = false;
    let mut data_dir: Option<String> = None;
    let mut replicate_from: Option<String> = None;
    let mut durability = DurabilityConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--max-connections" => {
                cfg.max_connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-subscribers" => {
                cfg.max_subscribers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--demo" => demo = true,
            "--promote" => {
                let addr = args.next().unwrap_or_else(|| usage());
                return match tip_client::promote_replica(&addr) {
                    Ok(()) => {
                        eprintln!("tip-server: {addr} promoted to primary");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("tip-server: promote {addr} failed: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "--data-dir" => data_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--replicate-from" => replicate_from = Some(args.next().unwrap_or_else(|| usage())),
            "--sync" => {
                durability.sync_mode = args
                    .next()
                    .and_then(|v| SyncMode::parse(&v))
                    .unwrap_or_else(|| usage())
            }
            "--checkpoint-bytes" => {
                durability.checkpoint_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--mvcc-retention" => {
                durability.mvcc_retention = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--page-size" => {
                durability.page_size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--pool-pages" => {
                durability.pool_pages = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    // A replica never opens the data directory at startup: its state
    // comes from the primary's snapshot + WAL stream. The directory (if
    // given) is reserved for the durable life it starts at promotion.
    let db: Arc<Database> = match (&replicate_from, &data_dir) {
        (None, Some(dir)) => {
            match Database::open_with(dir, durability.clone(), |db| db.install_blade(&TipBlade)) {
                Ok((db, report)) => {
                    eprintln!("tip-server: recovered {dir}: {}", report.summary());
                    db
                }
                Err(e) => {
                    eprintln!("tip-server: recovery of {dir} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => {
            let db = Database::new();
            db.install_blade(&TipBlade)
                .expect("fresh database accepts the blade");
            db.set_mvcc_retention(durability.mvcc_retention);
            db
        }
    };

    if demo && replicate_from.is_some() {
        eprintln!("demo: a replica takes its data from the primary, skipping load");
        demo = false;
    }

    // A recovered directory may already hold the demo tables; loading
    // them twice would fail on CREATE TABLE, so only seed an empty db.
    let have_tables = db.with_storage(|s| !s.table_names().is_empty());
    if demo && have_tables {
        eprintln!("demo: data directory already populated, skipping load");
    } else if demo {
        let session = db.session();
        let types = db
            .with_catalog(TipTypes::from_catalog)
            .expect("blade just installed");
        let medical = tip_workload::generate(&tip_workload::MedicalConfig::default());
        match tip_workload::populate_tip(&session, types, &medical) {
            Ok(n) => eprintln!("demo: loaded {n} prescriptions"),
            Err(e) => {
                eprintln!("demo load failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // One fd per admitted connection plus listener/wake/log slack; the
    // default 1024 soft limit would cap admission far below the knob.
    tip_server::net::raise_nofile_limit(cfg.max_connections as u64 + 512);

    let server = match Server::bind(listen.as_str(), &db, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tip-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut server = server;

    if let Some(primary) = &replicate_from {
        db.set_read_only(primary.clone());
        let client = Mutex::new(Some(ReplicationClient::start(&db, primary.clone())));
        let promote_db = Arc::clone(&db);
        let promote_dir = data_dir.clone();
        let promote_cfg = durability.clone();
        let was_primary = primary.clone();
        server.set_promote_handler(move || {
            // Stop the stream exactly once; if durability attachment
            // below fails, a PROMOTE retry skips straight back to it.
            if let Some(c) = client.lock().unwrap().take() {
                c.stop_and_drain();
            } else if promote_db.read_only_primary().is_none() {
                return Err(DbError::unavailable("this node was already promoted"));
            }
            // Durability before writes: until the WAL is open for
            // append the node must keep refusing writes, so a failed
            // attach leaves it read-only (fails closed) instead of
            // accepting writes that would never be logged.
            if let Some(dir) = &promote_dir {
                promote_db.attach_durability(dir, promote_cfg.clone())?;
            }
            promote_db.clear_read_only();
            let applied = promote_db.repl_stats().last_seq();
            eprintln!(
                "tip-server: promoted (was replicating {was_primary}); last applied seq {applied}"
            );
            Ok(applied)
        });
        eprintln!("tip-server: replica of {primary}");
    }

    eprintln!("tip-server listening on {}", server.local_addr());

    if data_dir.is_some() || replicate_from.is_some() {
        // Watch stdin for a clean-shutdown request while serving. EOF
        // (stdin closed, e.g. daemonized) just parks.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "quit" => {
                    eprintln!("tip-server: clean shutdown requested");
                    server.shutdown();
                    if let Err(e) = db.close() {
                        eprintln!("tip-server: final checkpoint failed: {e}");
                        return ExitCode::FAILURE;
                    }
                    return ExitCode::SUCCESS;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }

    // Serve until the process is killed; connections are handled on
    // their own threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
