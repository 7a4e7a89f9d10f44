//! Loopback integration tests: a real `Server` on 127.0.0.1 port 0,
//! real `Connection::connect` clients, one process.

use minidb::catalog::FunctionOverload;
use minidb::{Blade, Catalog, DataType, Database, DbError, DbResult, ExecCtx, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use tip_blade::{TipBlade, TipTypes};
use tip_client::transport::ConnectOptions;
use tip_client::{Connection, HostValue};
use tip_core::{Chronon, Span};
use tip_server::{Server, ServerConfig};

/// A TIP-bladed database pre-loaded with a small medical workload.
fn demo_db() -> Arc<Database> {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let cfg = tip_workload::MedicalConfig {
        n_prescriptions: 60,
        ..Default::default()
    };
    let medical = tip_workload::generate(&cfg);
    let session = db.session();
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    tip_workload::populate_tip(&session, types, &medical).unwrap();
    db
}

fn serve(db: &Arc<Database>, cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", db, cfg).unwrap()
}

#[test]
fn ddl_dml_select_round_trip() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();

    assert_eq!(
        conn.execute(
            "CREATE TABLE visits (patient CHAR(20), at Chronon, n INT)",
            &[]
        )
        .unwrap(),
        0
    );
    assert_eq!(
        conn.execute(
            "INSERT INTO visits VALUES ('Mr.Showbiz', '1999-10-01', 3)",
            &[]
        )
        .unwrap(),
        1
    );

    let mut rows = conn
        .query("SELECT patient, at, n FROM visits", &[])
        .unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_string(0).unwrap(), "Mr.Showbiz");
    assert_eq!(
        rows.get_chronon(1).unwrap(),
        Chronon::from_ymd(1999, 10, 1).unwrap()
    );
    assert_eq!(rows.get_int(2).unwrap(), 3);
    assert!(!rows.next());
}

#[test]
fn typed_errors_cross_the_wire() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();

    match conn.query("SELECT * FROM no_such_table", &[]) {
        Err(DbError::NotFound { kind, name }) => {
            assert_eq!(kind, "table or view");
            assert_eq!(name, "no_such_table");
        }
        Err(e) => panic!("expected NotFound, got {e:?}"),
        Ok(_) => panic!("expected NotFound, got rows"),
    }
    match conn.execute("CREATE TABLEE t (x INT)", &[]) {
        Err(DbError::Syntax { .. }) => {}
        other => panic!("expected Syntax, got {other:?}"),
    }
    // Statement errors must not kill the connection.
    assert!(conn.execute("CREATE TABLE t (x INT)", &[]).is_ok());
}

#[test]
fn prepared_statements_with_tip_params() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();

    let stmt = conn
        .prepare("SELECT patient FROM Prescription WHERE frequency >= :f")
        .bind("f", HostValue::Span(Span::from_hours(1)));
    let remote_count = stmt.query().unwrap().len();

    let local = Connection::attach(&db).unwrap();
    let local_count = local
        .prepare("SELECT patient FROM Prescription WHERE frequency >= :f")
        .bind("f", HostValue::Span(Span::from_hours(1)))
        .query()
        .unwrap()
        .len();
    assert_eq!(remote_count, local_count);
    assert!(remote_count > 0);
}

/// The acceptance-criteria test: 64 concurrent remote connections, each
/// with its own NOW override, each byte-identical to the in-process
/// path under the same override.
#[test]
fn sixty_four_connections_with_isolated_now_overrides() {
    let db = demo_db();
    let server = serve(
        &db,
        ServerConfig {
            max_connections: 80,
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let query =
        "SELECT patient, drug, dosage, valid, total_seconds(length(valid)) FROM Prescription";

    let handles: Vec<_> = (0..64)
        .map(|i| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                // Spread NOW overrides over ~8 years so different
                // connections see genuinely different answers.
                let now = Chronon::from_ymd(1994 + (i % 8), 1 + (i % 12) as u32, 15).unwrap();

                let remote = Connection::connect(addr).unwrap();
                remote.set_now(Some(now));
                let remote_rows = remote.query(query, &[]).unwrap();
                let remote_text = remote.format(&remote_rows);

                let local = Connection::attach(&db).unwrap();
                local.set_now(Some(now));
                let local_rows = local.query(query, &[]).unwrap();
                let local_text = local.format(&local_rows);

                assert_eq!(
                    remote_text, local_text,
                    "connection {i} (NOW={now}) diverged from in-process"
                );
                remote_rows.len()
            })
        })
        .collect();

    let mut total = 0usize;
    for h in handles {
        total += h.join().expect("worker panicked");
    }
    assert!(total > 0, "every override produced an empty result");
}

/// MVCC over the wire: readers counting a table never error and never
/// see a partial table while writers UPDATE that same table beside them
/// (an UPDATE keeps the row count fixed, so every count is exact).
#[test]
fn readers_count_a_table_while_writers_update_it() {
    const ROWS: i64 = 50;
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(
        &db,
        ServerConfig {
            max_connections: 16,
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let setup = Connection::connect(addr).unwrap();
    setup
        .execute("CREATE TABLE contend (id INT, v INT)", &[])
        .unwrap();
    for i in 0..ROWS {
        setup
            .execute(
                "INSERT INTO contend VALUES (:i, :v)",
                &[("i", HostValue::Int(i)), ("v", HostValue::Int(i % 16))],
            )
            .unwrap();
    }

    // Readers start only once both writers have landed an UPDATE, and
    // writers keep going until every reader is done.
    let (landed, first_updates) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let landed = landed.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let conn = Connection::connect(addr).unwrap();
                let mut writes = 0i64;
                loop {
                    conn.execute(
                        "UPDATE contend SET v = :v WHERE id = :i",
                        &[
                            ("v", HostValue::Int(w * 1_000_000 + writes)),
                            ("i", HostValue::Int(writes % ROWS)),
                        ],
                    )
                    .unwrap();
                    writes += 1;
                    if writes == 1 {
                        landed.send(()).unwrap();
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
            })
        })
        .collect();
    for _ in 0..2 {
        first_updates
            .recv_timeout(Duration::from_secs(30))
            .expect("a writer failed before its first UPDATE");
    }
    let readers: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let conn = Connection::connect(addr).unwrap();
                for _ in 0..50 {
                    let mut rows = conn.query("SELECT COUNT(*) FROM contend", &[]).unwrap();
                    assert!(rows.next());
                    assert_eq!(rows.get_int(0).unwrap(), ROWS);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader failed");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer failed");
    }
}

#[test]
fn now_override_in_handshake() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let now = Chronon::from_ymd(1997, 6, 1).unwrap();
    let conn = Connection::connect_with(
        server.local_addr(),
        &ConnectOptions {
            now_unix: Some(tip_blade::chronon_to_unix(now)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(conn.now_override(), Some(now));

    let local = Connection::attach(&db).unwrap();
    local.set_now(Some(now));
    let q = "SELECT patient, total_seconds(length(valid)) FROM Prescription";
    assert_eq!(
        conn.format(&conn.query(q, &[]).unwrap()),
        local.format(&local.query(q, &[]).unwrap())
    );
}

#[test]
fn malformed_frames_kill_only_their_connection() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(&db, ServerConfig::default());
    let addr = server.local_addr();

    let good = Connection::connect(addr).unwrap();
    good.execute("CREATE TABLE t (x INT)", &[]).unwrap();

    // A zoo of hostile byte streams, one fresh socket each.
    let attacks: Vec<Vec<u8>> = vec![
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        vec![0x00; 64],
        // Oversized frame length.
        (0xffff_ffffu32).to_le_bytes().to_vec(),
        // Valid length, unknown tag.
        {
            let mut v = 2u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x77, 0x00]);
            v
        },
        // Valid HELLO tag, truncated body.
        {
            let mut v = 3u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[0x01, 0x54, 0x49]);
            v
        },
    ];
    for (i, attack) in attacks.iter().enumerate() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(attack).unwrap();
        // The server answers with an error frame and/or closes; it must
        // never hang. Read until EOF.
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
        drop(s);
        // The well-behaved connection is unaffected.
        assert!(
            good.query("SELECT x FROM t", &[]).is_ok(),
            "good connection died after attack #{i}"
        );
    }
}

/// A blade whose `boom(INT)` panics: a stand-in for a routine's bug.
struct BoomBlade;

impl Blade for BoomBlade {
    fn name(&self) -> &str {
        "boom"
    }
    fn version(&self) -> &str {
        "0"
    }
    fn register(&self, cat: &mut Catalog) -> DbResult<()> {
        cat.register_function(
            "boom",
            FunctionOverload::new(
                vec![DataType::Int],
                DataType::Int,
                false,
                Arc::new(|_: &ExecCtx, _: &[Value]| -> DbResult<Value> {
                    panic!("boom: a routine's bug")
                }),
            ),
        )
    }
}

#[test]
fn a_panicking_statement_closes_only_its_connection() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    db.install_blade(&BoomBlade).unwrap();
    // One reactor: the panic happens on the thread that serves B too.
    let server = serve(
        &db,
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    );
    // A short read timeout turns a stranded connection into a failure
    // instead of a hang.
    let opts = ConnectOptions {
        read_timeout: Duration::from_secs(3),
        ..Default::default()
    };
    let a = Connection::connect_with(server.local_addr(), &opts).unwrap();
    let b = Connection::connect_with(server.local_addr(), &opts).unwrap();

    assert!(
        a.query("SELECT boom(1)", &[]).is_err(),
        "a panicking statement must answer an error or close"
    );
    for i in 0..20 {
        let mut rows = b
            .query("SELECT 1", &[])
            .unwrap_or_else(|e| panic!("B's statement {i} after A's panic: {e}"));
        assert!(rows.next());
        assert_eq!(rows.get_int(0).unwrap(), 1);
    }
    // A's session may be half-updated, so A is closed.
    assert!(a.query("SELECT 1", &[]).is_err());
}

#[test]
fn a_blocked_reactor_leaves_the_others_serving() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let setup = db.session();
    setup.execute("CREATE TABLE t (x INT)").unwrap();
    setup.execute("INSERT INTO t VALUES (1)").unwrap();
    let server = serve(
        &db,
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    // Sockets go to the reactor with the fewest live connections, ties
    // to the lowest index: A lands on reactor 0 and B on reactor 1.
    let a = Connection::connect(server.local_addr()).unwrap();
    let b = Connection::connect(server.local_addr()).unwrap();

    let (tx, rx) = mpsc::channel();
    let writer = db
        .with_table_write("t", |_| {
            // A's INSERT blocks reactor 0 on t's write guard.
            let writer = thread::spawn(move || {
                tx.send(a.execute("INSERT INTO t VALUES (2)", &[])).unwrap();
            });
            thread::sleep(Duration::from_millis(200));
            // B's reads take no guard and run on reactor 1.
            for _ in 0..20 {
                let rows = b.query("SELECT x FROM t", &[]).unwrap();
                assert_eq!(rows.len(), 1);
            }
            assert!(
                rx.try_recv().is_err(),
                "the INSERT finished while t's write guard was held"
            );
            writer
        })
        .unwrap();
    // The guard is released: A's INSERT completes.
    let affected = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the INSERT never finished after the guard was released");
    assert_eq!(affected.unwrap(), 1);
    writer.join().unwrap();
}

#[test]
fn busy_reject_is_typed() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(
        &db,
        ServerConfig {
            max_connections: 2,
            ..Default::default()
        },
    );
    let addr = server.local_addr();

    let c1 = Connection::connect(addr).unwrap();
    let c2 = Connection::connect(addr).unwrap();
    // Ensure both workers are registered before the third dial.
    c1.query("SELECT 1", &[]).unwrap();
    c2.query("SELECT 1", &[]).unwrap();

    match Connection::connect(addr) {
        Err(DbError::Unavailable { message }) => {
            assert!(message.contains("busy"), "unexpected message: {message}")
        }
        Err(e) => panic!("expected busy reject, got {e:?}"),
        Ok(_) => panic!("expected busy reject, got a connection"),
    }

    // Capacity frees up once a connection closes.
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match Connection::connect(addr) {
            Ok(c) => {
                c.query("SELECT 1", &[]).unwrap();
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
}

#[test]
fn server_metrics_aggregate_across_connections() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let addr = server.local_addr();

    let baseline = server.metrics().statements();

    // Two live connections plus one that closes before we ask.
    let c1 = Connection::connect(addr).unwrap();
    let c2 = Connection::connect(addr).unwrap();
    c1.query("SELECT patient FROM Prescription", &[]).unwrap();
    c1.query("SELECT drug FROM Prescription", &[]).unwrap();
    c2.query("SELECT dosage FROM Prescription", &[]).unwrap();
    {
        let c3 = Connection::connect(addr).unwrap();
        c3.query("SELECT doctor FROM Prescription", &[]).unwrap();
        drop(c3);
    }
    // The retired session's counters land in the aggregate once the
    // worker notices the close.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let agg = c1.server_metrics().unwrap();
        if agg.statements() >= baseline + 4 {
            assert_eq!(agg.selects, server.metrics().selects);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "aggregate never reached {} statements: {:?}",
            baseline + 4,
            agg
        );
        thread::sleep(Duration::from_millis(20));
    }

    // Per-session stats stay per-session.
    let s1 = c1.metrics_snapshot().unwrap();
    let s2 = c2.metrics_snapshot().unwrap();
    assert_eq!(
        s1.selects, 2,
        "SERVER_METRICS polling must not count as statements"
    );
    assert_eq!(s2.selects, 1);
}

#[test]
fn graceful_shutdown_drains_clients() {
    let db = demo_db();
    let mut server = serve(&db, ServerConfig::default());
    let addr = server.local_addr();

    let conn = Connection::connect(addr).unwrap();
    let rows = conn.query("SELECT patient FROM Prescription", &[]).unwrap();
    assert!(!rows.is_empty());

    server.shutdown();

    // Statements after shutdown fail with a typed transport error, not
    // a hang or a panic.
    match conn.query("SELECT patient FROM Prescription", &[]) {
        Err(DbError::Unavailable { .. }) => {}
        Err(e) => panic!("expected Unavailable after shutdown, got {e:?}"),
        Ok(_) => panic!("expected Unavailable after shutdown, got rows"),
    }
    // And new dials are refused.
    assert!(Connection::connect(addr).is_err());

    // The database itself is still healthy in-process.
    let local = Connection::attach(&db).unwrap();
    assert!(!local
        .query("SELECT patient FROM Prescription", &[])
        .unwrap()
        .is_empty());
}

#[test]
fn session_stats_and_slow_log_policy() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();

    conn.query("SELECT patient FROM Prescription", &[]).unwrap();
    let snap = conn.metrics_snapshot().unwrap();
    assert_eq!(snap.selects, 1);
    assert!(snap.rows_returned > 0);

    // Live handles and closure hooks are in-process-only by contract.
    assert!(conn.metrics().is_err());
    assert!(conn
        .set_slow_query_log(Duration::from_millis(1), |_q| {})
        .is_err());
}

#[test]
fn prepared_statements_execute_server_side() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();

    let stmt = conn.prepare("SELECT patient FROM Prescription WHERE frequency >= :f");
    assert!(
        stmt.is_server_prepared(),
        "a remote connection registers statements server-side"
    );
    let stmt = stmt.bind("f", HostValue::Span(Span::from_hours(1)));
    let first = stmt.query().unwrap().len();
    assert!(first > 0);
    // Re-execution ships only the id + params; the engine answers from
    // its plan cache.
    for _ in 0..3 {
        assert_eq!(stmt.query().unwrap().len(), first);
    }
    let snap = conn.metrics_snapshot().unwrap();
    assert_eq!(snap.plan_cache_misses, 1, "{snap:?}");
    assert!(snap.plan_cache_hits >= 3, "{snap:?}");

    // Rebinding the same prepared id with a different value changes the
    // answer without re-preparing.
    let stmt = stmt.bind("f", HostValue::Span(Span::from_days(3650)));
    assert!(stmt.query().unwrap().len() < first);

    // A statement the server rejects at prepare time falls back to the
    // text path and reports the same typed error at execute time.
    let bad = conn.prepare("SELEC patient FROM Prescription");
    assert!(!bad.is_server_prepared());
    assert!(matches!(bad.query(), Err(DbError::Syntax { .. })));
}

/// A parameter named twice (names match without case) comes back as a
/// typed Binding error, and the connection goes on serving.
#[test]
fn a_parameter_given_twice_is_a_typed_error_and_the_connection_lives() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();
    conn.execute("CREATE TABLE t (id INT, x INT)", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 0)", &[]).unwrap();
    let params = [("v", HostValue::Int(5)), ("V", HostValue::Int(6))];
    match conn.execute("UPDATE t SET x = :v WHERE id = 1", &params) {
        Err(DbError::Binding { message }) => assert!(message.contains(":V"), "{message}"),
        other => panic!("expected Binding, got {other:?}"),
    }
    let mut rows = conn.query("SELECT 1", &[]).unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_int(0).unwrap(), 1);
}

/// Sends one HELLO at `version` on a raw socket and returns every byte
/// the server answers with before it closes the connection.
fn hello_at(addr: std::net::SocketAddr, version: u16) -> Vec<u8> {
    use tip_client::protocol::{self, req, Hello};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Hello {
        version,
        now_unix: None,
    };
    protocol::write_frame(&mut stream, req::HELLO, &protocol::encode_hello(&hello)).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).expect("server closes");
    answer
}

#[test]
fn handshake_refuses_every_version_but_its_own() {
    use tip_client::protocol::{self, resp, VERSION};
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let addr = server.local_addr();

    for offered in [VERSION - 1, VERSION + 1, 0, u16::MAX] {
        // Exactly one frame, a typed ERROR, then close.
        let answer = hello_at(addr, offered);
        let mut rest = answer.as_slice();
        let (tag, body) = protocol::read_frame(&mut rest).unwrap();
        assert_eq!(tag, resp::ERROR, "version {offered}");
        assert!(rest.is_empty(), "version {offered}: one frame, then close");
        match protocol::decode_error(&body).unwrap() {
            DbError::Unavailable { message } => {
                assert!(message.contains(&offered.to_string()), "{message}");
                assert!(message.contains(&VERSION.to_string()), "{message}");
            }
            other => panic!("version {offered}: expected Unavailable, got {other:?}"),
        }
    }
    // Every refused peer gave its slot back...
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.connection_count() != 0 {
        assert!(std::time::Instant::now() < deadline, "slots never freed");
        thread::sleep(Duration::from_millis(10));
    }
    // ...and a peer at the right version is served as usual.
    let conn = Connection::connect(addr).unwrap();
    assert!(!conn
        .query("SELECT patient FROM Prescription", &[])
        .unwrap()
        .is_empty());
}

#[test]
fn plan_cache_entries_is_the_live_cache_length() {
    let db = demo_db();
    let server = serve(&db, ServerConfig::default());
    let addr = server.local_addr();
    let show_entries = |conn: &Connection| {
        let mut rows = conn.query("SHOW STATS", &[]).unwrap();
        while rows.next() {
            if rows.get_string(0).unwrap() == "plan_cache.entries" {
                return rows.get_int(1).unwrap() as u64;
            }
        }
        panic!("SHOW STATS lists no plan_cache.entries row");
    };

    // A caches three plans (beside the loader's INSERT) and leaves; then
    // the cache is cleared wholesale (a snapshot load swaps the world).
    let seeded = db.plan_cache_len() as u64;
    let a = Connection::connect(addr).unwrap();
    for col in ["patient", "drug", "dosage"] {
        a.query(&format!("SELECT {col} FROM Prescription"), &[])
            .unwrap();
    }
    assert_eq!(a.server_metrics().unwrap().plan_cache_entries - seeded, 3);
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.connection_count() != 0 {
        assert!(std::time::Instant::now() < deadline, "A never retired");
        thread::sleep(Duration::from_millis(10));
    }
    db.load_snapshot(&db.save_snapshot().unwrap()).unwrap();
    assert_eq!(db.plan_cache_len(), 0);

    // B sees the live length, not A's retired high-water mark...
    let b = Connection::connect(addr).unwrap();
    assert_eq!(b.server_metrics().unwrap().plan_cache_entries, 0);
    b.query("SELECT doctor FROM Prescription", &[]).unwrap();
    assert_eq!(db.plan_cache_len(), 1);
    assert_eq!(b.server_metrics().unwrap().plan_cache_entries, 1);
    assert_eq!(show_entries(&b), 1);
    // ...and so does a session that has not touched the cache itself.
    let c = Connection::connect(addr).unwrap();
    assert_eq!(show_entries(&c), 1);
    assert_eq!(c.metrics_snapshot().unwrap().plan_cache_entries, 1);
}

#[test]
fn show_stats_and_the_metrics_frame_render_the_same_snapshot() {
    let dir = std::env::temp_dir().join(format!("tip-loopback-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = minidb::DurabilityConfig::default();
    let (db, _) = Database::open_with(&dir, cfg, |db| db.install_blade(&TipBlade)).unwrap();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();
    conn.execute("CREATE TABLE t (id INT, note CHAR(8))", &[])
        .unwrap();
    for i in 0..5 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'n{i}')"), &[])
            .unwrap();
    }
    conn.query("SELECT id FROM t WHERE id > 1", &[]).unwrap();

    // Nothing else is running: SHOW STATS (which counts nothing) and
    // the SESSION_STATS reply must agree row for row, in order.
    let mut shown = Vec::new();
    let mut rows = conn.query("SHOW STATS", &[]).unwrap();
    while rows.next() {
        shown.push((rows.get_string(0).unwrap(), rows.get_int(1).unwrap() as u64));
    }
    let snap = conn.metrics_snapshot().unwrap();
    assert_eq!(shown, snap.rows());
    // Including the rows earlier frames never carried.
    assert!(snap.wal_commits >= 6, "{snap:?}");
    assert!(snap.vectorized_batches >= 1, "{snap:?}");
    assert_eq!(snap.mvcc_retention, db.mvcc_retention());
    assert!(shown.iter().any(|(name, _)| name == "wal.recovery_micros"));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_prepared_id_is_a_typed_error_and_closing_frees_the_id() {
    use tip_client::transport::{RemoteTransport, Transport};

    let db = demo_db();
    let server = serve(&db, ServerConfig::default());

    let registry = Database::new();
    registry.install_blade(&TipBlade).unwrap();
    let types = registry.with_catalog(TipTypes::from_catalog).unwrap();
    let t = RemoteTransport::connect(
        server.local_addr(),
        Arc::clone(&registry),
        types,
        &ConnectOptions::default(),
    )
    .unwrap();
    assert_eq!(t.protocol_version(), tip_client::protocol::VERSION);

    match t.execute_prepared(999, "SELECT 1", &[]) {
        Err(DbError::NotFound { kind, name }) => {
            assert_eq!(kind, "prepared statement");
            assert_eq!(name, "999");
        }
        other => panic!("expected typed NotFound, got {other:?}"),
    }

    let id = t
        .prepare("SELECT patient FROM Prescription")
        .unwrap()
        .expect("the server must register");
    assert!(t
        .execute_prepared(id, "SELECT patient FROM Prescription", &[])
        .is_ok());
    t.close_prepared(id).unwrap();
    match t.execute_prepared(id, "SELECT patient FROM Prescription", &[]) {
        Err(DbError::NotFound { kind, .. }) => assert_eq!(kind, "prepared statement"),
        other => panic!("expected NotFound after close, got {other:?}"),
    }
    // The statement-level error left the connection serviceable.
    assert!(t.execute("SELECT 1", &[]).is_ok());
}

/// Result sets larger than one frame must split across ROW_BATCH
/// frames byte-by-byte, and a single row too large for any frame must
/// come back as a typed statement-level error — never a dead socket.
#[test]
fn huge_result_sets_split_frames_and_unfittable_rows_error_typed() {
    use minidb::Value;

    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE blobs (id INT, payload CHAR(64))")
        .unwrap();
    // 40 rows of ~1 MiB: ~40 MiB in aggregate, far past MAX_FRAME, so
    // the server must close each batch on the byte budget (the row
    // cap below is set high enough to never bind).
    let mb = "x".repeat(1024 * 1024);
    for i in 0..40 {
        s.execute_with_params(
            "INSERT INTO blobs VALUES (:i, :p)",
            &[("i", Value::Int(i)), ("p", Value::Str(mb.clone()))],
        )
        .unwrap();
    }
    let server = serve(
        &db,
        ServerConfig {
            rows_per_batch: 10_000,
            ..Default::default()
        },
    );
    let conn = Connection::connect(server.local_addr()).unwrap();
    let mut rows = conn
        .query("SELECT id, payload FROM blobs ORDER BY id", &[])
        .unwrap();
    let mut n = 0;
    while rows.next() {
        assert_eq!(rows.get_int(0).unwrap(), n);
        assert_eq!(rows.get_string(1).unwrap().len(), mb.len());
        n += 1;
    }
    assert_eq!(n, 40);

    // One ~17 MiB row exceeds MAX_FRAME on its own: a typed error...
    s.execute_with_params(
        "INSERT INTO blobs VALUES (99, :p)",
        &[("p", Value::Str("y".repeat(17 * 1024 * 1024)))],
    )
    .unwrap();
    match conn.query("SELECT payload FROM blobs WHERE id = 99", &[]) {
        Err(DbError::Execution { message }) => {
            assert!(message.contains("frame limit"), "{message}")
        }
        Err(e) => panic!("expected typed Execution error, got {e:?}"),
        Ok(_) => panic!("expected typed Execution error, got rows"),
    }
    // ...that leaves the connection fully serviceable.
    let mut rows = conn.query("SELECT COUNT(*) FROM blobs", &[]).unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_int(0).unwrap(), 41);
}

/// Parameter and column counts travel as `u16`. Past 65,535 a request
/// is refused with a typed error before anything is sent, and a result
/// before its header; either way the connection stays usable.
#[test]
fn counts_past_the_wire_limit_are_typed_errors() {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = serve(&db, ServerConfig::default());
    let conn = Connection::connect(server.local_addr()).unwrap();
    let n = u16::MAX as usize + 1;

    let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
    let params: Vec<(&str, HostValue)> = names
        .iter()
        .map(|name| (name.as_str(), HostValue::Int(1)))
        .collect();
    match conn.query("SELECT :p0", &params) {
        Err(DbError::Constraint { message }) => {
            assert!(message.contains("parameters"), "{message}")
        }
        Err(e) => panic!("expected a typed Constraint error, got {e:?}"),
        Ok(_) => panic!("expected a typed Constraint error, got rows"),
    }

    let wide = format!("SELECT {}", vec!["1"; n].join(", "));
    match conn.query(&wide, &[]) {
        Err(DbError::Constraint { message }) => assert!(message.contains("columns"), "{message}"),
        Err(e) => panic!("expected a typed Constraint error, got {e:?}"),
        Ok(_) => panic!("expected a typed Constraint error, got rows"),
    }

    let mut rows = conn.query("SELECT 1", &[]).unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_int(0).unwrap(), 1);
}
