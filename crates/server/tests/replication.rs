//! Replication integration: a loopback primary with live replicas.
//!
//! * streaming end-to-end: commits on the primary become readable on a
//!   replica, writes on the replica are refused with a typed error, and
//!   both sides export replication counters;
//! * torn-stream handling: the replication connection is killed
//!   mid-WAL_CHUNK through a byte-cutting proxy; the replica must
//!   discard the partial chunk, reconnect, resume from its last applied
//!   position, and end up byte-identical to an uninterrupted replica.

use minidb::{Database, DbError, DurabilityConfig, SyncMode};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tip_blade::TipBlade;
use tip_client::{Connection, HostValue};
use tip_server::repl::ReplicationClient;
use tip_server::{Server, ServerConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tip-repl-{}-{}-{name}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_primary(dir: &std::path::Path) -> (Arc<Database>, Server) {
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::EveryCommit,
        ..DurabilityConfig::default()
    };
    let (db, _) = Database::open_with(dir, cfg, |db| db.install_blade(&TipBlade)).unwrap();
    let server = Server::bind("127.0.0.1:0", &db, ServerConfig::default()).unwrap();
    (db, server)
}

/// An in-process read-only replica streaming from `primary_addr`.
fn replica_of(primary_addr: &str) -> (Arc<Database>, Server, ReplicationClient) {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    db.set_read_only(primary_addr);
    let server = Server::bind("127.0.0.1:0", &db, ServerConfig::default()).unwrap();
    let client = ReplicationClient::start(&db, primary_addr);
    (db, server, client)
}

/// Waits until the replica has applied at least through `seq`.
fn wait_applied(db: &Arc<Database>, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.repl_stats().last_seq() < seq {
        assert!(
            Instant::now() < deadline,
            "replica stalled at seq {} (want {seq})",
            db.repl_stats().last_seq()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn replica_streams_commits_and_serves_reads() {
    let dir = scratch("stream");
    let (pdb, pserver) = durable_primary(&dir);
    let paddr = pserver.local_addr().to_string();
    let (rdb, rserver, _client) = replica_of(&paddr);

    let conn = Connection::connect(&paddr).unwrap();
    conn.execute("CREATE TABLE t (id INT, note CHAR(24))", &[])
        .unwrap();
    for i in 0..50 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'note-{i}')"), &[])
            .unwrap();
    }
    let target = pdb.wal_progress().unwrap().seq;
    wait_applied(&rdb, target);

    // Reads on the replica see the primary's committed rows.
    let rconn = Connection::connect(rserver.local_addr().to_string()).unwrap();
    let mut rows = rconn.query("SELECT id FROM t ORDER BY id", &[]).unwrap();
    let mut n = 0;
    while rows.next() {
        assert_eq!(rows.get_int(0).unwrap(), n);
        n += 1;
    }
    assert_eq!(n, 50);

    // Writes are refused with a typed error naming the primary.
    let err = rconn
        .execute("INSERT INTO t VALUES (99, 'x')", &[])
        .unwrap_err();
    match &err {
        DbError::ReadOnly { primary } => assert_eq!(primary, &paddr),
        other => panic!("expected ReadOnly, got {other}"),
    }

    // Replication counters on both ends, over the wire and locally.
    let pm = conn.server_metrics().unwrap();
    assert!(pm.repl_chunks_shipped > 0, "{pm:?}");
    assert!(pm.repl_bytes_shipped > 0, "{pm:?}");
    assert!(pm.repl_last_seq >= target, "{pm:?}");
    let rm = rconn.server_metrics().unwrap();
    assert!(rm.repl_last_seq >= target, "{rm:?}");

    drop(rserver);
    drop(pserver);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replicated_transport_pins_open_transactions_to_primary() {
    let dir = scratch("txn-route");
    let (pdb, pserver) = durable_primary(&dir);
    let paddr = pserver.local_addr().to_string();
    let (rdb, rserver, _client) = replica_of(&paddr);
    let raddr = rserver.local_addr().to_string();

    let conn = Connection::connect_replicated(&paddr, &[raddr.as_str()]).unwrap();
    conn.execute("CREATE TABLE t (id INT, note CHAR(24))", &[])
        .unwrap();
    for i in 0..10 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'note-{i}')"), &[])
            .unwrap();
    }
    let target = pdb.wal_progress().unwrap().seq;
    wait_applied(&rdb, target);

    // Open a transaction and write inside it: the uncommitted row
    // exists only in the primary session's workspace.
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (100, 'uncommitted')", &[])
        .unwrap();

    // The in-transaction read must see the workspace row, so it has to
    // run on the primary. The lag floor cannot catch this case — an
    // uncommitted write never moves the durable frontier, so a fully
    // caught-up replica would happily serve 10 rows of stale state.
    let before = rserver.metrics().selects;
    let mut rows = conn.query("SELECT id FROM t ORDER BY id", &[]).unwrap();
    let mut n = 0;
    let mut saw_workspace_row = false;
    while rows.next() {
        saw_workspace_row |= rows.get_int(0).unwrap() == 100;
        n += 1;
    }
    assert_eq!(n, 11, "in-transaction read must include the workspace row");
    assert!(saw_workspace_row);
    assert_eq!(
        rserver.metrics().selects,
        before,
        "no replica may serve a read while the transaction is open"
    );

    conn.execute("COMMIT", &[]).unwrap();
    let target = pdb.wal_progress().unwrap().seq;
    wait_applied(&rdb, target);

    // Transaction closed: reads fan back out to the caught-up replica.
    let mut rows = conn.query("SELECT id FROM t WHERE id = 100", &[]).unwrap();
    assert!(rows.next());
    assert_eq!(rows.get_int(0).unwrap(), 100);
    assert!(
        rserver.metrics().selects > before,
        "post-commit reads fan out to replicas again"
    );

    // ROLLBACK closes the transaction client-side too.
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("ROLLBACK", &[]).unwrap();
    let before = rserver.metrics().selects;
    let mut rows = conn.query("SELECT id FROM t WHERE id = 0", &[]).unwrap();
    assert!(rows.next());
    assert!(
        rserver.metrics().selects > before,
        "post-rollback reads fan out to replicas again"
    );

    drop(rserver);
    drop(pserver);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read fan-out: four replicated connections run 100 SELECTs each
/// against a primary with two caught-up replicas, and both replicas
/// must serve some of those reads.
#[test]
fn replicated_reads_fan_out_to_every_replica() {
    const ROWS: i64 = 100;
    let dir = scratch("fan-out");
    let (pdb, pserver) = durable_primary(&dir);
    let paddr = pserver.local_addr().to_string();
    let setup = Connection::connect(&paddr).unwrap();
    setup
        .execute("CREATE TABLE fan (id INT, v INT)", &[])
        .unwrap();
    for i in 0..ROWS {
        setup
            .execute(&format!("INSERT INTO fan VALUES ({i}, {})", i % 16), &[])
            .unwrap();
    }
    let replicas: Vec<_> = (0..2).map(|_| replica_of(&paddr)).collect();
    let target = pdb.wal_progress().unwrap().seq;
    for (rdb, _, _) in &replicas {
        wait_applied(rdb, target);
    }
    let raddrs: Vec<String> = replicas
        .iter()
        .map(|(_, server, _)| server.local_addr().to_string())
        .collect();
    let before: Vec<u64> = replicas
        .iter()
        .map(|(_, server, _)| server.metrics().selects)
        .collect();

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let paddr = paddr.clone();
            let raddrs = raddrs.clone();
            std::thread::spawn(move || {
                let refs: Vec<&str> = raddrs.iter().map(String::as_str).collect();
                let conn = Connection::connect_replicated(&paddr, &refs).unwrap();
                for i in 0..100 {
                    let mut rows = conn
                        .query(
                            "SELECT COUNT(*) FROM fan WHERE id >= :d",
                            &[("d", HostValue::Int(i % 7))],
                        )
                        .unwrap();
                    assert!(rows.next());
                    assert_eq!(rows.get_int(0).unwrap(), ROWS - i % 7);
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("replicated reader failed");
    }
    for (i, ((_, server, _), before)) in replicas.iter().zip(&before).enumerate() {
        let served = server.metrics().selects - before;
        assert!(served > 0, "replica {i} served none of the fanned reads");
    }

    drop(replicas);
    drop(pserver);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A TCP proxy that forwards both directions but kills its first
/// connection after `cut_after` server→client bytes — landing mid-frame
/// of a WAL_CHUNK. Later connections pass through untouched.
fn cutting_proxy(target: String, cut_after: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut first = true;
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(upstream) = TcpStream::connect(&target) else {
                continue;
            };
            let cut = first.then_some(cut_after);
            first = false;
            let (c2, u2) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
            std::thread::spawn(move || pump(c2, u2, None));
            std::thread::spawn(move || pump(upstream, client, cut));
        }
    });
    addr
}

/// Copies bytes `from` → `to`, stopping (and shutting both sockets)
/// after `cut_after` bytes when set.
fn pump(mut from: TcpStream, mut to: TcpStream, cut_after: Option<usize>) {
    let mut remaining = cut_after;
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let n = match remaining.as_mut() {
            Some(r) => {
                let take = n.min(*r);
                *r -= take;
                take
            }
            None => n,
        };
        if n > 0 && to.write_all(&buf[..n]).is_err() {
            break;
        }
        if remaining == Some(0) {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[test]
fn torn_stream_resumes_byte_identical() {
    let dir = scratch("torn");
    let (pdb, pserver) = durable_primary(&dir);
    let paddr = pserver.local_addr().to_string();

    // Enough committed WAL that the catch-up chunk dwarfs the cut
    // point: the proxy's scissors land mid-WAL_CHUNK.
    let conn = Connection::connect(&paddr).unwrap();
    conn.execute("CREATE TABLE t (id INT, note CHAR(24))", &[])
        .unwrap();
    for i in 0..300 {
        conn.execute(
            &format!("INSERT INTO t VALUES ({i}, 'payload-number-{i}')"),
            &[],
        )
        .unwrap();
    }

    // Replica A streams through the cutting proxy; replica B directly.
    let proxy = cutting_proxy(paddr.clone(), 8 * 1024).to_string();
    let (adb, _aserver, aclient) = replica_of(&proxy);
    let (bdb, _bserver, bclient) = replica_of(&paddr);

    let target = pdb.wal_progress().unwrap().seq;
    wait_applied(&adb, target);
    wait_applied(&bdb, target);
    // A few more commits after the reconnect prove the stream keeps
    // flowing at the resumed position.
    for i in 300..320 {
        conn.execute(
            &format!("INSERT INTO t VALUES ({i}, 'payload-number-{i}')"),
            &[],
        )
        .unwrap();
    }
    let target = pdb.wal_progress().unwrap().seq;
    wait_applied(&adb, target);
    wait_applied(&bdb, target);

    assert!(
        adb.repl_stats().snapshot().reconnects >= 1,
        "the proxied replica lost its stream at least once"
    );
    assert_eq!(
        adb.save_snapshot().unwrap(),
        bdb.save_snapshot().unwrap(),
        "interrupted and uninterrupted replicas are byte-identical"
    );

    drop(aclient);
    drop(bclient);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_backs_off_from_a_peer_at_another_version() {
    use tip_client::protocol::{self, req, resp, VERSION};

    // A fake primary that answers every HELLO with HELLO_OK at the next
    // version up, then reports whatever the replica sends afterwards.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (seen_tx, seen_rx) = std::sync::mpsc::channel::<Option<u8>>();
    let fake = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let mut stream = stream.unwrap();
            let (tag, _) = protocol::read_frame(&mut stream).unwrap();
            assert_eq!(tag, req::HELLO);
            let body = protocol::encode_hello_ok(VERSION + 1, "from the future");
            protocol::write_frame(&mut stream, resp::HELLO_OK, &body).unwrap();
            let next = protocol::read_frame(&mut stream).ok().map(|(tag, _)| tag);
            seen_tx.send(next).unwrap();
        }
    });

    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    db.set_read_only(&addr);
    let client = ReplicationClient::start(&db, &addr);
    // Two dials: each hangs up after HELLO_OK without a SUBSCRIBE, and
    // the second only happens after a backoff.
    for dial in 0..2 {
        let next = seen_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(next, None, "dial {dial}: the replica sent a frame");
    }
    assert!(db.repl_stats().snapshot().reconnects >= 1);
    fake.join().unwrap();
    drop(client);
}

/// A replica that registered (one REPL_ACK) and then went silent holds
/// each write's reply for the ack timeout, and only that writer's: the
/// one reactor keeps serving another connection meanwhile.
#[test]
fn a_stalled_replica_holds_only_its_own_writer() {
    use tip_client::protocol::{self, req, resp, Hello, VERSION};

    let dir = scratch("stalled");
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::EveryCommit,
        ..DurabilityConfig::default()
    };
    let (db, _) = Database::open_with(&dir, cfg, |db| db.install_blade(&TipBlade)).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        &db,
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let setup = Connection::connect(addr).unwrap();
    setup.execute("CREATE TABLE t (id INT)", &[]).unwrap();

    let mut sub = TcpStream::connect(addr).unwrap();
    let hello = Hello {
        version: VERSION,
        now_unix: None,
    };
    protocol::write_frame(&mut sub, req::HELLO, &protocol::encode_hello(&hello)).unwrap();
    let (tag, _) = protocol::read_frame(&mut sub).unwrap();
    assert_eq!(tag, resp::HELLO_OK);
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, req::SUBSCRIBE, &protocol::encode_subscribe(0, 0)).unwrap();
    protocol::write_frame(
        &mut wire,
        req::REPL_ACK,
        &protocol::encode_repl_ack(0, 0, 0),
    )
    .unwrap();
    sub.write_all(&wire).unwrap();
    // Let the feed thread register the ack.
    std::thread::sleep(Duration::from_millis(300));

    let a = Connection::connect(addr).unwrap();
    let b = Connection::connect(addr).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let writer = std::thread::spawn(move || {
        let sent = Instant::now();
        let affected = a.execute("INSERT INTO t VALUES (1)", &[]);
        tx.send((affected, sent.elapsed(), Instant::now())).unwrap();
    });
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..20 {
        b.query("SELECT id FROM t", &[]).unwrap();
    }
    let reads_done = Instant::now();

    let (affected, waited, replied) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    writer.join().unwrap();
    assert_eq!(affected.unwrap(), 1);
    assert!(
        reads_done < replied,
        "B's reads waited behind A's held reply"
    );
    assert!(
        waited >= Duration::from_millis(1500),
        "A's reply came {waited:?} after it was sent, before the ack timeout"
    );

    drop(sub);
    drop(server);
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}
