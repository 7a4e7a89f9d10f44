//! End-to-end pipelining through the client API: N statements per
//! round trip, results in submission order, statement errors isolated
//! to their slot, and more throughput than one statement per round trip.

use minidb::Database;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use tip_blade::TipBlade;
use tip_client::{Connection, HostValue};
use tip_server::{Server, ServerConfig};

fn kv_server() -> (Server, Arc<Database>) {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = Server::bind("127.0.0.1:0", &db, ServerConfig::default()).unwrap();
    let conn = Connection::connect(server.local_addr()).unwrap();
    conn.execute("CREATE TABLE kv (k INT, v CHAR(16))", &[])
        .unwrap();
    for k in 0..10 {
        conn.execute(
            "INSERT INTO kv VALUES (:k, :v)",
            &[
                ("k", HostValue::Int(k)),
                ("v", HostValue::Str(format!("val-{k}"))),
            ],
        )
        .unwrap();
    }
    (server, db)
}

#[test]
fn pipelined_prepared_executes_return_in_order() {
    let (server, _db) = kv_server();
    let conn = Connection::connect(server.local_addr()).unwrap();
    let mut stmt = conn.prepare("SELECT v FROM kv WHERE k = :k");
    assert!(stmt.is_server_prepared());

    let mut pipe = conn.pipeline();
    for k in 0..10 {
        stmt = stmt.bind("k", HostValue::Int(k));
        pipe.add_prepared(&stmt);
    }
    assert_eq!(pipe.len(), 10);
    let results = pipe.run().unwrap();
    assert_eq!(results.len(), 10);
    for (k, slot) in results.into_iter().enumerate() {
        let mut rows = slot.unwrap().into_rows().unwrap();
        assert!(rows.next());
        assert_eq!(rows.get_string(0).unwrap().trim_end(), format!("val-{k}"));
        assert!(!rows.next());
    }
    assert!(pipe.is_empty(), "run() drains the batch");
    assert!(
        server.stats().pipelined >= 1,
        "server should observe pipelined statements: {:?}",
        server.stats()
    );
}

#[test]
fn mixed_batch_with_mid_pipeline_error() {
    let (server, _db) = kv_server();
    let conn = Connection::connect(server.local_addr()).unwrap();

    let mut pipe = conn.pipeline();
    pipe.add(
        "INSERT INTO kv VALUES (:k, :v)",
        &[
            ("k", HostValue::Int(100)),
            ("v", HostValue::Str("hundred".into())),
        ],
    );
    pipe.add(
        "SELECT v FROM kv WHERE k = :k",
        &[("k", HostValue::Int(100))],
    );
    pipe.add("SELECT * FROM no_such_table", &[]);
    pipe.add("SELECT v FROM kv WHERE k = :k", &[("k", HostValue::Int(3))]);

    let mut results = pipe.run().unwrap().into_iter();

    assert_eq!(results.next().unwrap().unwrap().affected().unwrap(), 1);

    let mut rows = results.next().unwrap().unwrap().into_rows().unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_string(0).unwrap().trim_end(), "hundred");

    // Slot 3 fails — an ordinary statement error, not a dead socket —
    // and slot 4 still ran afterwards on the same connection.
    assert!(results.next().unwrap().is_err());

    let mut rows = results.next().unwrap().unwrap().into_rows().unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_string(0).unwrap().trim_end(), "val-3");

    // The connection survives for one-at-a-time use.
    let mut rows = conn.query("SELECT v FROM kv WHERE k = 100", &[]).unwrap();
    assert!(rows.next());
}

#[test]
fn pipeline_matches_serial_results() {
    let (server, _db) = kv_server();
    let conn = Connection::connect(server.local_addr()).unwrap();

    let serial: Vec<String> = (0..10)
        .map(|k| {
            let mut rows = conn
                .query("SELECT v FROM kv WHERE k = :k", &[("k", HostValue::Int(k))])
                .unwrap();
            assert!(rows.next());
            rows.get_string(0).unwrap()
        })
        .collect();

    let mut pipe = conn.pipeline();
    for k in 0..10 {
        pipe.add("SELECT v FROM kv WHERE k = :k", &[("k", HostValue::Int(k))]);
    }
    let piped: Vec<String> = pipe
        .run()
        .unwrap()
        .into_iter()
        .map(|slot| {
            let mut rows = slot.unwrap().into_rows().unwrap();
            assert!(rows.next());
            rows.get_string(0).unwrap()
        })
        .collect();

    assert_eq!(serial, piped);
}

/// Statements per second when `connections` threads each run
/// `statements` prepared point SELECTs over `pipe_bench`, `depth` per
/// round trip (depth 1 is a plain query, no pipeline). Every connection
/// is dialed and warmed before the clock starts.
fn point_select_rate(
    server: &Server,
    connections: usize,
    statements: usize,
    depth: usize,
    keys: usize,
) -> f64 {
    let addr = server.local_addr();
    let gate = Arc::new(Barrier::new(connections + 1));
    let workers: Vec<_> = (0..connections)
        .map(|t| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let conn = Connection::connect(addr).unwrap();
                let mut stmt = conn.prepare("SELECT x FROM pipe_bench WHERE id = :id");
                assert!(stmt.is_server_prepared());
                stmt = stmt.bind("id", HostValue::Int(0));
                assert_eq!(stmt.query().unwrap().len(), 1);
                gate.wait();
                if depth == 1 {
                    for i in 0..statements {
                        stmt =
                            stmt.bind("id", HostValue::Int(((i * connections + t) % keys) as i64));
                        assert_eq!(stmt.query().unwrap().len(), 1);
                    }
                    return;
                }
                for round in 0..statements / depth {
                    let mut pipe = conn.pipeline();
                    for d in 0..depth {
                        let id = ((round * depth + d) * connections + t) % keys;
                        stmt = stmt.bind("id", HostValue::Int(id as i64));
                        pipe.add_prepared(&stmt);
                    }
                    for slot in pipe.run().unwrap() {
                        assert!(slot.unwrap().into_rows().unwrap().next());
                    }
                }
            })
        })
        .collect();
    gate.wait();
    let started = Instant::now();
    for w in workers {
        w.join().expect("pipelining worker failed");
    }
    (connections * statements) as f64 / started.elapsed().as_secs_f64()
}

/// Sixteen connections each run 400 prepared point SELECTs, first one
/// per round trip, then eight per round trip: pipelining must raise
/// throughput.
#[test]
#[ignore = "a throughput comparison; run with --release -- --ignored"]
fn depth_eight_pipelines_beat_one_statement_per_round_trip() {
    const KEYS: usize = 256;
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = Server::bind("127.0.0.1:0", &db, ServerConfig::default()).unwrap();
    let setup = Connection::connect(server.local_addr()).unwrap();
    setup
        .execute("CREATE TABLE pipe_bench (id INT, x INT)", &[])
        .unwrap();
    for i in 0..KEYS as i64 {
        setup
            .execute(
                "INSERT INTO pipe_bench VALUES (:i, :x)",
                &[("i", HostValue::Int(i)), ("x", HostValue::Int(i * 3))],
            )
            .unwrap();
    }
    setup
        .execute("CREATE INDEX ix_pipe_id ON pipe_bench(id)", &[])
        .unwrap();

    let depth1 = point_select_rate(&server, 16, 400, 1, KEYS);
    let depth8 = point_select_rate(&server, 16, 400, 8, KEYS);
    println!("depth 1: {depth1:.0} stmt/s, depth 8: {depth8:.0} stmt/s");
    assert!(depth8 > depth1, "pipelining did not beat depth 1");
}
