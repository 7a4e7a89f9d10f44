//! Backpressure: a stalled client must park its connection instead of
//! occupying a worker, and pipelined statements behind the stall must
//! still run — in order — once the client drains. At scale, a thousand
//! connections held open together are all admitted and all served.

use minidb::{Database, Value};
use std::io::Read;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tip_blade::{TipBlade, TipTypes};
use tip_client::protocol::{self, req, resp, Hello};
use tip_client::{Connection, HostValue};
use tip_server::{Server, ServerConfig};

/// Rows big enough that the full result cannot fit in loopback socket
/// buffers: the outbox must spill past the write budget and park.
const BIG_ROWS: usize = 1500;
const BIG_PAYLOAD: usize = 8000;

fn big_server_with(cfg: ServerConfig) -> (Server, Arc<Database>) {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = Server::bind("127.0.0.1:0", &db, cfg).unwrap();
    let conn = Connection::connect(server.local_addr()).unwrap();
    conn.execute("CREATE TABLE big (k INT, v CHAR(8000))", &[])
        .unwrap();
    conn.execute("CREATE TABLE one (n INT)", &[]).unwrap();
    conn.execute("INSERT INTO one VALUES (7)", &[]).unwrap();
    let payload = "x".repeat(BIG_PAYLOAD);
    for k in 0..BIG_ROWS {
        conn.execute(
            "INSERT INTO big VALUES (:k, :v)",
            &[
                ("k", HostValue::Int(k as i64)),
                ("v", HostValue::Str(payload.clone())),
            ],
        )
        .unwrap();
    }
    (server, db)
}

fn big_server() -> (Server, Arc<Database>) {
    big_server_with(ServerConfig {
        workers: 1,
        write_budget: 64 * 1024,
        ..Default::default()
    })
}

fn hello(stream: &mut TcpStream) {
    protocol::write_frame(
        stream,
        req::HELLO,
        &protocol::encode_hello(&Hello {
            version: protocol::VERSION,
            now_unix: None,
        }),
    )
    .unwrap();
    let (tag, _) = protocol::read_frame(stream).unwrap();
    assert_eq!(tag, resp::HELLO_OK);
}

#[test]
fn slow_reader_parks_and_worker_stays_free() {
    let (server, db) = big_server();
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    let display = |_: &Value| String::new();

    // Connection A: ask for ~12 MB of rows plus a pipelined follow-up,
    // then stop reading entirely.
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.set_nodelay(true).unwrap();
    hello(&mut slow);
    let mut wire = Vec::new();
    protocol::write_frame(
        &mut wire,
        req::STMT,
        &protocol::encode_stmt("SELECT k, v FROM big", &[], &display),
    )
    .unwrap();
    protocol::write_frame(
        &mut wire,
        req::STMT,
        &protocol::encode_stmt("SELECT n FROM one", &[], &display),
    )
    .unwrap();
    slow.write_all(&wire).unwrap();

    // The single worker must park A once its outbox exceeds the write
    // budget, not sit in a blocking send.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().park_events == 0 {
        assert!(
            Instant::now() < deadline,
            "connection never parked; stats = {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // With A parked, the only worker must be free to serve other
    // connections immediately.
    let other = Connection::connect(server.local_addr()).unwrap();
    for _ in 0..20 {
        let mut rows = other.query("SELECT n FROM one", &[]).unwrap();
        assert!(rows.next());
        assert_eq!(rows.get_int(0).unwrap(), 7);
    }

    let stats = server.stats();
    assert!(stats.park_events >= 1, "expected park events: {stats:?}");
    assert!(
        stats.pipelined >= 1,
        "A's second statement should count as pipelined: {stats:?}"
    );

    // Now drain A: every big row arrives intact, then the pipelined
    // statement's response — ordering preserved across the park.
    let (tag, body) = protocol::read_frame(&mut slow).unwrap();
    assert_eq!(tag, resp::ROWS_HEADER);
    let cols = protocol::decode_rows_header(&body, &types).unwrap();
    assert_eq!(cols.len(), 2);
    let mut seen = 0usize;
    loop {
        let (tag, body) = protocol::read_frame(&mut slow).unwrap();
        match tag {
            resp::ROW_BATCH => {
                for row in protocol::decode_row_batch(&body, 2, &types).unwrap() {
                    match &row[1] {
                        Value::Str(s) => assert_eq!(s.trim_end().len(), BIG_PAYLOAD),
                        other => panic!("expected string payload, got {other:?}"),
                    }
                    seen += 1;
                }
            }
            resp::ROWS_DONE => break,
            other => panic!("unexpected tag {other:#04x}"),
        }
    }
    assert_eq!(seen, BIG_ROWS);

    let (tag, body) = protocol::read_frame(&mut slow).unwrap();
    assert_eq!(tag, resp::ROWS_HEADER);
    protocol::decode_rows_header(&body, &types).unwrap();
    let (tag, body) = protocol::read_frame(&mut slow).unwrap();
    assert_eq!(tag, resp::ROW_BATCH);
    let rows = protocol::decode_row_batch(&body, 1, &types).unwrap();
    assert_eq!(rows, vec![vec![Value::Int(7)]]);
    let (tag, _) = protocol::read_frame(&mut slow).unwrap();
    assert_eq!(tag, resp::ROWS_DONE);

    // Clean close.
    protocol::write_frame(&mut slow, req::BYE, &[]).unwrap();
    let mut rest = [0u8; 8];
    assert_eq!(slow.read(&mut rest).unwrap(), 0);
}

#[test]
fn half_closed_unread_client_is_reclaimed_by_stall_sweep() {
    // A client that pipelines a statement, half-closes its write side
    // (shutdown(SHUT_WR)), and never reads the response must be closed
    // by the write-stall sweep. Before the EOF path dropped its read
    // interest, the level-triggered readiness spin refreshed
    // last_activity forever, so the sweep never fired and the
    // connection (and its multi-megabyte outbox) leaked.
    let (server, _db) = big_server_with(ServerConfig {
        workers: 1,
        write_budget: 64 * 1024,
        write_timeout: Duration::from_secs(2),
        ..Default::default()
    });

    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.set_nodelay(true).unwrap();
    hello(&mut slow);
    let display = |_: &Value| String::new();
    let mut wire = Vec::new();
    protocol::write_frame(
        &mut wire,
        req::STMT,
        &protocol::encode_stmt("SELECT k, v FROM big", &[], &display),
    )
    .unwrap();
    slow.write_all(&wire).unwrap();
    slow.shutdown(std::net::Shutdown::Write).unwrap();

    // ~12 MB of unread rows cannot fit in loopback buffers, so the
    // outbox stays pending and the sweep must doom the connection once
    // write_timeout lapses. Generous deadline: timeout + sweep cadence
    // + slack.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.connection_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "half-closed unread connection was never reclaimed; stats = {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn pipeline_queue_cap_pauses_reads_without_losing_statements() {
    // A tiny pipeline cap: flooding more statements than the queue
    // holds must pause reading (backpressure), never drop or reorder.
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let cfg = ServerConfig {
        workers: 1,
        max_pipeline: 4,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", &db, cfg).unwrap();
    let setup = Connection::connect(server.local_addr()).unwrap();
    setup.execute("CREATE TABLE t (n INT)", &[]).unwrap();

    let display = |_: &Value| String::new();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    hello(&mut stream);

    const N: usize = 64;
    let mut wire = Vec::new();
    for i in 0..N {
        protocol::write_frame(
            &mut wire,
            req::STMT,
            &protocol::encode_stmt(&format!("INSERT INTO t VALUES ({i})"), &[], &display),
        )
        .unwrap();
    }
    stream.write_all(&wire).unwrap();

    // All 64 responses come back, in order, despite the 4-deep queue.
    for _ in 0..N {
        let (tag, body) = protocol::read_frame(&mut stream).unwrap();
        assert_eq!(tag, resp::AFFECTED);
        assert_eq!(protocol::decode_affected(&body).unwrap(), 1);
    }

    let mut rows = setup.query("SELECT n FROM t", &[]).unwrap();
    let mut count = 0;
    while rows.next() {
        count += 1;
    }
    assert_eq!(count, N);
    assert!(
        server.stats().read_pauses >= 1,
        "flood should have paused reads: {:?}",
        server.stats()
    );
}

/// A thousand connections held open together, each running five indexed
/// point SELECTs in turn: every one is admitted (no BUSY below the
/// admission cap) and every statement answers.
#[test]
#[ignore = "opens 2,000 sockets; run with --release -- --ignored"]
fn a_thousand_connections_are_all_admitted_and_served() {
    const CONNECTIONS: usize = 1000;
    const STATEMENTS: usize = 5;
    const KEYS: i64 = 64;
    // This process holds both ends of every connection.
    let limit = tip_server::net::raise_nofile_limit(2 * CONNECTIONS as u64 + 512);
    assert!(
        limit >= 2 * CONNECTIONS as u64 + 64,
        "fd limit {limit} is too low for {CONNECTIONS} loopback connections"
    );
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        &db,
        ServerConfig {
            max_connections: CONNECTIONS + 16,
            ..Default::default()
        },
    )
    .unwrap();
    let setup = Connection::connect(server.local_addr()).unwrap();
    setup
        .execute("CREATE TABLE conns (id INT, x INT)", &[])
        .unwrap();
    for i in 0..KEYS {
        setup
            .execute(
                "INSERT INTO conns VALUES (:i, :x)",
                &[("i", HostValue::Int(i)), ("x", HostValue::Int(i * 3))],
            )
            .unwrap();
    }
    setup
        .execute("CREATE INDEX ix_conns_id ON conns(id)", &[])
        .unwrap();

    let mut errors = Vec::new();
    let conns: Vec<Connection> = (0..CONNECTIONS)
        .filter_map(|c| match Connection::connect(server.local_addr()) {
            Ok(conn) => Some(conn),
            Err(e) => {
                errors.push(format!("connect {c}: {e}"));
                None
            }
        })
        .collect();
    for round in 0..STATEMENTS {
        for (c, conn) in conns.iter().enumerate() {
            let id = ((round * CONNECTIONS + c) as i64) % KEYS;
            match conn.query(
                "SELECT x FROM conns WHERE id = :i",
                &[("i", HostValue::Int(id))],
            ) {
                Ok(mut rows) => {
                    if !rows.next() || rows.get_int(0).ok() != Some(id * 3) {
                        errors.push(format!("conn {c}: wrong answer for id {id}"));
                    }
                }
                Err(e) => errors.push(format!("conn {c}: {e}")),
            }
        }
    }
    assert!(
        errors.is_empty(),
        "{} errors, first: {:?}",
        errors.len(),
        &errors[..errors.len().min(8)]
    );
    let stats = server.stats();
    assert_eq!(
        stats.busy_rejects, 0,
        "BUSY below the admission cap: {stats:?}"
    );
    assert!(
        stats.accepted >= CONNECTIONS as u64,
        "every connection was accepted: {stats:?}"
    );
}
