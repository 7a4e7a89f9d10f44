//! Socket-level frame fuzz. The same pipelined request stream (HELLO,
//! PREPARE, EXECUTE_PREPARED, STMT, BYE) is delivered split at every
//! byte boundary, byte-at-a-time, and fully coalesced: the nonblocking
//! decoder must produce identical responses no matter how the kernel
//! fragments reads. And after the handshake, every request tag's body
//! is sent cut short and overlong: each ends in a typed ERROR or a
//! close of that connection only, never a hang.

use minidb::{Database, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tip_blade::{TipBlade, TipTypes};
use tip_client::protocol::{self, kind, req, resp, Hello};
use tip_client::Connection;
use tip_core::{Chronon, Element, Instant, Period, Span};
use tip_server::{Server, ServerConfig};

fn fuzz_server() -> (Server, Arc<Database>) {
    fuzz_server_with(ServerConfig::default())
}

fn fuzz_server_with(cfg: ServerConfig) -> (Server, Arc<Database>) {
    let db = Database::new();
    db.install_blade(&TipBlade).unwrap();
    let server = Server::bind("127.0.0.1:0", &db, cfg).unwrap();
    let conn = Connection::connect(server.local_addr()).unwrap();
    conn.execute("CREATE TABLE kv (k INT, v CHAR(10))", &[])
        .unwrap();
    conn.execute("INSERT INTO kv VALUES (1, 'one')", &[])
        .unwrap();
    conn.execute("INSERT INTO kv VALUES (2, 'two')", &[])
        .unwrap();
    (server, db)
}

/// The canonical pipelined request stream: everything a client would
/// send over the connection's whole life, as one byte string.
fn request_stream() -> Vec<u8> {
    let display = |_: &Value| String::new();
    let mut wire = Vec::new();
    protocol::write_frame(
        &mut wire,
        req::HELLO,
        &protocol::encode_hello(&Hello {
            version: protocol::VERSION,
            now_unix: None,
        }),
    )
    .unwrap();
    protocol::write_frame(
        &mut wire,
        req::PREPARE,
        &protocol::encode_prepare("SELECT v FROM kv WHERE k = :k"),
    )
    .unwrap();
    protocol::write_frame(
        &mut wire,
        req::EXECUTE_PREPARED,
        &protocol::encode_execute_prepared(1, &[("k", Value::Int(1))], &display),
    )
    .unwrap();
    protocol::write_frame(
        &mut wire,
        req::STMT,
        &protocol::encode_stmt(
            "SELECT v FROM kv WHERE k = :k",
            &[("k", Value::Int(2))],
            &display,
        ),
    )
    .unwrap();
    protocol::write_frame(&mut wire, req::BYE, &[]).unwrap();
    wire
}

/// Reads the full response stream and checks every frame: HELLO_OK,
/// PREPARED_OK(1), then rows "one", then rows "two", then EOF.
fn verify_responses(stream: &mut TcpStream, types: &TipTypes) {
    let (tag, _) = protocol::read_frame(stream).unwrap();
    assert_eq!(tag, resp::HELLO_OK, "expected HELLO_OK");

    let (tag, body) = protocol::read_frame(stream).unwrap();
    assert_eq!(tag, resp::PREPARED_OK, "expected PREPARED_OK");
    assert_eq!(protocol::decode_prepared_ok(&body).unwrap(), 1);

    for expect in ["one", "two"] {
        let (tag, body) = protocol::read_frame(stream).unwrap();
        assert_eq!(tag, resp::ROWS_HEADER, "expected ROWS_HEADER");
        let cols = protocol::decode_rows_header(&body, types).unwrap();
        assert_eq!(cols.len(), 1);

        let mut got = Vec::new();
        loop {
            let (tag, body) = protocol::read_frame(stream).unwrap();
            match tag {
                resp::ROW_BATCH => {
                    got.extend(protocol::decode_row_batch(&body, 1, types).unwrap());
                }
                resp::ROWS_DONE => break,
                other => panic!("unexpected tag {other:#04x} in row stream"),
            }
        }
        assert_eq!(got.len(), 1);
        match &got[0][0] {
            Value::Str(s) => assert_eq!(s.trim_end(), expect),
            other => panic!("expected string row, got {other:?}"),
        }
    }

    // BYE: the server closes cleanly, no further frames.
    let mut rest = [0u8; 16];
    assert_eq!(stream.read(&mut rest).unwrap(), 0, "expected EOF after BYE");
}

fn run_trial(addr: SocketAddr, wire: &[u8], cuts: &[usize], types: &TipTypes) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut prev = 0;
    for &cut in cuts {
        stream.write_all(&wire[prev..cut]).unwrap();
        prev = cut;
    }
    stream.write_all(&wire[prev..]).unwrap();
    verify_responses(&mut stream, types);
}

#[test]
fn stream_split_at_every_byte_boundary() {
    let (server, db) = fuzz_server();
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    let wire = request_stream();

    // Fully coalesced: one write carrying five frames.
    run_trial(server.local_addr(), &wire, &[], &types);

    // Every two-part split. Boundary cuts exercise coalesced trailing
    // frames; mid-frame cuts exercise partial-header and partial-body
    // resumption in the accumulator.
    for cut in 1..wire.len() {
        run_trial(server.local_addr(), &wire, &[cut], &types);
    }
}

#[test]
fn stream_delivered_byte_at_a_time() {
    let (server, db) = fuzz_server();
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    let wire = request_stream();
    let cuts: Vec<usize> = (1..wire.len()).collect();
    run_trial(server.local_addr(), &wire, &cuts, &types);
}

#[test]
fn interleaved_split_points() {
    // Three-part splits at staggered offsets: both cuts land inside
    // different frames of the same stream.
    let (server, db) = fuzz_server();
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    let wire = request_stream();
    let n = wire.len();
    for first in [1, 2, 3, 5, n / 4, n / 3] {
        for second in [n / 2, n / 2 + 1, 2 * n / 3, n - 2, n - 1] {
            if first < second {
                run_trial(server.local_addr(), &wire, &[first, second], &types);
            }
        }
    }
}

/// A valid body for every request tag a negotiated connection may
/// send, EXECUTE_PREPARED once per value kind, plus one unknown tag.
fn post_handshake_bodies(types: &TipTypes) -> Vec<(String, u8, Vec<u8>)> {
    let display = |_: &Value| String::new();
    let day = Chronon::from_ymd(1999, 12, 1).unwrap();
    let week = Period::fixed(day, Chronon::from_ymd(1999, 12, 8).unwrap());
    let values = [
        ("null", Value::Null),
        ("bool", Value::Bool(true)),
        ("int", Value::Int(7)),
        ("float", Value::Float(1.5)),
        ("str", Value::Str("seven".to_string())),
        ("chronon", types.chronon(day)),
        ("span", types.span(Span::from_days(3))),
        ("instant", types.instant(Instant::Fixed(day))),
        ("period", types.period(week)),
        ("element", types.element(Element::from_periods(vec![week]))),
    ];
    let mut bodies = vec![
        (
            "STMT".to_string(),
            req::STMT,
            protocol::encode_stmt(
                "SELECT v FROM kv WHERE k = :k",
                &[("k", Value::Int(1))],
                &display,
            ),
        ),
        (
            "PREPARE".to_string(),
            req::PREPARE,
            protocol::encode_prepare("SELECT v FROM kv WHERE k = :k"),
        ),
        (
            "CLOSE_PREPARED".to_string(),
            req::CLOSE_PREPARED,
            protocol::encode_close_prepared(1),
        ),
        (
            "SET_NOW".to_string(),
            req::SET_NOW,
            protocol::encode_set_now(Some(944_006_400)),
        ),
        (
            "SUBSCRIBE".to_string(),
            req::SUBSCRIBE,
            protocol::encode_subscribe(0, 0),
        ),
        (
            "REPL_ACK".to_string(),
            req::REPL_ACK,
            protocol::encode_repl_ack(1, 16, 3),
        ),
        ("unknown tag".to_string(), 0x77, vec![1, 2, 3]),
    ];
    for (name, value) in values {
        bodies.push((
            format!("EXECUTE_PREPARED {name}"),
            req::EXECUTE_PREPARED,
            protocol::encode_execute_prepared(1, &[("p", value)], &display),
        ));
    }
    // A value of another blade's type travels as its display text.
    let mut other = 1u64.to_le_bytes().to_vec();
    other.extend_from_slice(&1u16.to_le_bytes());
    other.extend_from_slice(&1u32.to_le_bytes());
    other.push(b'p');
    other.push(kind::OTHER);
    other.extend_from_slice(&5u32.to_le_bytes());
    other.extend_from_slice(b"other");
    bodies.push((
        "EXECUTE_PREPARED other".to_string(),
        req::EXECUTE_PREPARED,
        other,
    ));
    bodies
}

/// Negotiates, sends one frame, and reads to the end: a typed ERROR
/// may come first, then the connection must close. Any other reply, or
/// a read that times out, fails.
fn send_hostile(addr: SocketAddr, what: &str, tag: u8, body: &[u8]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = Hello {
        version: protocol::VERSION,
        now_unix: None,
    };
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, req::HELLO, &protocol::encode_hello(&hello)).unwrap();
    s.write_all(&wire).unwrap();
    let (got, _) = protocol::read_frame(&mut s).unwrap();
    assert_eq!(got, resp::HELLO_OK, "{what}");
    wire.clear();
    protocol::write_frame(&mut wire, tag, body).unwrap();
    s.write_all(&wire).unwrap();
    loop {
        match protocol::read_frame(&mut s) {
            Ok((resp::ERROR, err)) => {
                protocol::decode_error(&err)
                    .unwrap_or_else(|e| panic!("{what}: an untyped ERROR body: {e}"));
            }
            Ok((other, _)) => panic!("{what}: unexpected reply {other:#04x}"),
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "{what}: the server neither answered nor closed"
                );
                return;
            }
        }
    }
}

#[test]
fn hostile_bodies_after_the_handshake_end_in_error_or_close() {
    // One reactor: every hostile connection shares the good one's
    // thread.
    let (server, db) = fuzz_server_with(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let types = db.with_catalog(TipTypes::from_catalog).unwrap();
    let addr = server.local_addr();
    let good = Connection::connect(addr).unwrap();
    for (name, tag, body) in post_handshake_bodies(&types) {
        let mut attempts: Vec<(String, Vec<u8>)> = (0..body.len())
            .map(|cut| (format!("{name} cut at {cut}"), body[..cut].to_vec()))
            .collect();
        let mut overlong = body.clone();
        overlong.push(0);
        attempts.push((format!("{name} with a trailing byte"), overlong));
        for (what, hostile) in attempts {
            send_hostile(addr, &what, tag, &hostile);
            let rows = good
                .query("SELECT v FROM kv WHERE k = 1", &[])
                .unwrap_or_else(|e| panic!("good connection failed after {what}: {e}"));
            assert_eq!(rows.len(), 1, "after {what}");
        }
    }
}
