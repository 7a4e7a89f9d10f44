//! # Client transports
//!
//! [`Connection`](crate::Connection) reaches a TIP-enabled database
//! through a [`Transport`]: either the original in-process path (a
//! [`Session`] on a shared [`Database`]) or a remote path speaking the
//! [`crate::protocol`] wire format to a `tip-server` over TCP. The
//! higher layers — `PreparedStatement`, `Rows`, `TypeMap` — are
//! transport-agnostic; they only ever see `StatementOutcome`s.

use crate::protocol::{self, req, resp};
use minidb::{
    Database, DbError, DbResult, MetricsSnapshot, QueryMetrics, QueryResult, Session, SlowQuery,
    StatementOutcome, Value,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// How a connection executes statements. Implementations are `Send +
/// Sync`; one transport serves one logical session (statements are
/// serialized internally).
pub trait Transport: Send + Sync {
    /// Runs one statement with pre-lowered engine values.
    fn execute(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome>;

    /// Sets (or clears) the session's NOW override, in Unix seconds.
    /// Infallible by design: remote transports record the value and sync
    /// it lazily before the next statement.
    fn set_now_unix(&self, now: Option<i64>);

    /// The current NOW override, in Unix seconds.
    fn now_override_unix(&self) -> Option<i64>;

    /// Live handle to the session's metrics registry. Only the
    /// in-process transport can hand out the shared atomics; remote
    /// callers use [`Transport::metrics_snapshot`].
    fn metrics(&self) -> DbResult<Arc<QueryMetrics>>;

    /// A point-in-time copy of this session's counters.
    fn metrics_snapshot(&self) -> DbResult<MetricsSnapshot>;

    /// Counters aggregated over every session of the server (for the
    /// in-process transport, that is just this session).
    fn server_metrics(&self) -> DbResult<MetricsSnapshot>;

    /// Installs a slow-query hook. In-process only — closures cannot
    /// cross the wire.
    fn set_slow_query_log(
        &self,
        threshold: Duration,
        logger: Box<dyn Fn(&SlowQuery) + Send + Sync>,
    ) -> DbResult<()>;

    /// Removes the slow-query hook.
    fn clear_slow_query_log(&self) -> DbResult<()>;

    /// Registers `sql` server-side and returns its statement id, when
    /// the transport supports remote preparation. The default (the
    /// in-process session) returns `Ok(None)`: callers fall back to
    /// resending the statement text, and the engine's plan cache still
    /// removes the re-parse/re-plan cost.
    fn prepare(&self, _sql: &str) -> DbResult<Option<u64>> {
        Ok(None)
    }

    /// Executes a statement previously registered with
    /// [`Transport::prepare`]. Transports without remote preparation
    /// fall back to [`Transport::execute`] with the original text.
    fn execute_prepared(
        &self,
        _id: u64,
        sql: &str,
        params: &[(&str, Value)],
    ) -> DbResult<StatementOutcome> {
        self.execute(sql, params)
    }

    /// Releases a server-side prepared statement id. A no-op for
    /// transports without remote preparation.
    fn close_prepared(&self, _id: u64) -> DbResult<()> {
        Ok(())
    }

    /// Executes a batch of statements and returns one result slot per
    /// statement, in submission order. Transports that can pipeline
    /// (the remote path) send every request before reading any
    /// response — one write for the whole batch — so a round trip is
    /// paid once per batch instead of once per statement. The default
    /// runs the batch serially; semantics are identical either way:
    /// statement-level errors land in their slot and later statements
    /// still run, while a transport fault aborts the whole call.
    fn execute_batch(&self, batch: &[BatchStatement]) -> DbResult<Vec<DbResult<StatementOutcome>>> {
        let mut results = Vec::with_capacity(batch.len());
        for stmt in batch {
            let params: Vec<(&str, Value)> = stmt
                .params
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let result = match stmt.prepared_id {
                Some(id) => self.execute_prepared(id, &stmt.sql, &params),
                None => self.execute(&stmt.sql, &params),
            };
            results.push(result);
        }
        Ok(results)
    }

    /// Human-readable endpoint ("in-process" or "host:port").
    fn endpoint(&self) -> String;
}

/// One statement in a batch submitted via [`Transport::execute_batch`].
#[derive(Debug, Clone)]
pub struct BatchStatement {
    /// Statement text; always carried so transports without remote
    /// preparation can fall back to plain execution.
    pub sql: String,
    /// Named parameters, pre-lowered to engine values.
    pub params: Vec<(String, Value)>,
    /// Server-side prepared-statement id, when one exists.
    pub prepared_id: Option<u64>,
}

// ---------------------------------------------------------------------
// In-process
// ---------------------------------------------------------------------

/// The original embedded path: a session on a database in this process.
pub struct InProcessTransport {
    session: Mutex<Session>,
}

impl InProcessTransport {
    pub fn new(session: Session) -> InProcessTransport {
        InProcessTransport {
            session: Mutex::new(session),
        }
    }

    fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        f(&mut self.session.lock().expect("session poisoned"))
    }
}

impl Transport for InProcessTransport {
    fn execute(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        self.with_session(|s| s.execute_with_params(sql, params))
    }

    fn set_now_unix(&self, now: Option<i64>) {
        self.with_session(|s| s.set_now_unix(now));
    }

    fn now_override_unix(&self) -> Option<i64> {
        self.with_session(|s| s.now_override())
    }

    fn metrics(&self) -> DbResult<Arc<QueryMetrics>> {
        Ok(self.with_session(|s| s.metrics()))
    }

    fn metrics_snapshot(&self) -> DbResult<MetricsSnapshot> {
        Ok(self.with_session(|s| s.metrics_snapshot()))
    }

    fn server_metrics(&self) -> DbResult<MetricsSnapshot> {
        self.metrics_snapshot()
    }

    fn set_slow_query_log(
        &self,
        threshold: Duration,
        logger: Box<dyn Fn(&SlowQuery) + Send + Sync>,
    ) -> DbResult<()> {
        self.with_session(|s| s.set_slow_query_log(threshold, logger));
        Ok(())
    }

    fn clear_slow_query_log(&self) -> DbResult<()> {
        self.with_session(|s| s.clear_slow_query_log());
        Ok(())
    }

    fn endpoint(&self) -> String {
        "in-process".to_string()
    }
}

// ---------------------------------------------------------------------
// Remote
// ---------------------------------------------------------------------

/// Tuning knobs for [`RemoteTransport::connect`].
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// NOW override requested in the handshake (Unix seconds).
    pub now_unix: Option<i64>,
    /// Socket read timeout for each response frame.
    pub read_timeout: Duration,
    /// Socket write timeout for each request frame.
    pub write_timeout: Duration,
}

impl Default for ConnectOptions {
    fn default() -> ConnectOptions {
        ConnectOptions {
            now_unix: None,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

struct NowState {
    current: Option<i64>,
    /// `true` when `current` has not been pushed to the server yet.
    dirty: bool,
}

/// The wire path: one TCP stream to a `tip-server`, one request in
/// flight at a time. TIP UDT cells are rebuilt against a client-side
/// type registry so `Rows` accessors behave exactly as in-process.
pub struct RemoteTransport {
    stream: Mutex<TcpStream>,
    registry: Arc<Database>,
    types: tip_blade::TipTypes,
    now: Mutex<NowState>,
    /// Set after any I/O or protocol fault: the stream position is
    /// unknown, so every later call fails fast instead of desyncing.
    broken: AtomicBool,
    endpoint: String,
}

impl RemoteTransport {
    /// Dials the server and performs the handshake. `registry` is a
    /// TIP-bladed local database used purely as a type registry for
    /// decoding (and as the display catalog for encoding).
    pub fn connect(
        addr: impl ToSocketAddrs,
        registry: Arc<Database>,
        types: tip_blade::TipTypes,
        opts: &ConnectOptions,
    ) -> DbResult<RemoteTransport> {
        let mut stream = TcpStream::connect(addr)
            .map_err(|e| DbError::unavailable(format!("connect failed: {e}")))?;
        let endpoint = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "remote".to_string());
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(opts.read_timeout));
        let _ = stream.set_write_timeout(Some(opts.write_timeout));
        protocol::client_handshake(&mut stream, opts.now_unix)?;
        Ok(RemoteTransport {
            stream: Mutex::new(stream),
            registry,
            types,
            now: Mutex::new(NowState {
                current: opts.now_unix,
                dirty: false,
            }),
            broken: AtomicBool::new(false),
            endpoint,
        })
    }

    fn fail(&self, ctx: &str, e: impl std::fmt::Display) -> DbError {
        self.broken.store(true, Ordering::SeqCst);
        DbError::unavailable(format!(
            "{ctx}: {e} (connection to {} abandoned)",
            self.endpoint
        ))
    }

    fn check_live(&self) -> DbResult<()> {
        if self.broken.load(Ordering::SeqCst) {
            Err(DbError::unavailable(format!(
                "connection to {} is broken; reconnect",
                self.endpoint
            )))
        } else {
            Ok(())
        }
    }

    fn send(&self, stream: &mut TcpStream, tag: u8, body: &[u8]) -> DbResult<()> {
        // Assemble the whole frame first so it leaves in one write.
        let mut frame = Vec::with_capacity(5 + body.len());
        protocol::write_frame(&mut frame, tag, body)
            .and_then(|()| io::Write::write_all(stream, &frame))
            .map_err(|e| self.fail("send failed", e))
    }

    fn recv(&self, stream: &mut TcpStream) -> DbResult<(u8, Vec<u8>)> {
        protocol::read_frame(stream).map_err(|e| self.fail("receive failed", e))
    }

    /// Pushes a dirty NOW override before the next statement runs.
    fn sync_now(&self, stream: &mut TcpStream) -> DbResult<()> {
        let pending = {
            let now = self.now.lock().expect("now poisoned");
            now.dirty.then_some(now.current)
        };
        let Some(now_unix) = pending else {
            return Ok(());
        };
        self.send(stream, req::SET_NOW, &protocol::encode_set_now(now_unix))?;
        let (tag, body) = self.recv(stream)?;
        match tag {
            resp::DONE => {
                self.now.lock().expect("now poisoned").dirty = false;
                Ok(())
            }
            resp::ERROR => Err(protocol::decode_error(&body)?),
            other => Err(self.fail("SET_NOW", format!("unexpected frame {other:#04x}"))),
        }
    }

    fn display(&self, v: &Value) -> String {
        self.registry.with_catalog(|c| c.display_value(v))
    }

    /// The protocol version the handshake agreed on — always
    /// [`protocol::VERSION`], or `connect` would have failed.
    pub fn protocol_version(&self) -> u16 {
        protocol::VERSION
    }

    /// `true` once a transport fault has poisoned the stream; the
    /// connection must be re-dialed. Statement-level errors (parse,
    /// constraint, read-only) do NOT set this.
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }

    /// Reads one statement outcome off the wire: ERROR, AFFECTED, DONE,
    /// or a ROWS_HEADER-led stream. Shared by STMT and EXECUTE_PREPARED.
    fn read_outcome(&self, stream: &mut TcpStream) -> DbResult<StatementOutcome> {
        let (tag, body) = self.recv(stream)?;
        match tag {
            resp::ERROR => Err(protocol::decode_error(&body)?),
            resp::AFFECTED => Ok(StatementOutcome::Affected(
                protocol::decode_affected(&body)? as usize,
            )),
            resp::DONE => Ok(StatementOutcome::Done),
            resp::ROWS_HEADER => {
                let columns = protocol::decode_rows_header(&body, &self.types)?;
                let mut rows = Vec::new();
                loop {
                    let (tag, body) = self.recv(stream)?;
                    match tag {
                        resp::ROW_BATCH => rows.extend(protocol::decode_row_batch(
                            &body,
                            columns.len(),
                            &self.types,
                        )?),
                        resp::ROWS_DONE => break,
                        // A typed mid-stream error (e.g. a row too large
                        // for any frame) ends the result set; the
                        // connection itself stays usable.
                        resp::ERROR => return Err(protocol::decode_error(&body)?),
                        other => {
                            return Err(
                                self.fail("row stream", format!("unexpected frame {other:#04x}"))
                            )
                        }
                    }
                }
                Ok(StatementOutcome::Rows(QueryResult { columns, rows }))
            }
            other => Err(self.fail("statement", format!("unexpected frame {other:#04x}"))),
        }
    }

    /// Requests one metrics snapshot (`req` is SESSION_STATS or
    /// SERVER_METRICS).
    fn fetch_metrics(&self, request: u8) -> DbResult<MetricsSnapshot> {
        self.check_live()?;
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.send(&mut stream, request, &[])?;
        let (tag, body) = self.recv(&mut stream)?;
        match tag {
            resp::METRICS => protocol::decode_metrics(&body),
            resp::ERROR => Err(protocol::decode_error(&body)?),
            other => Err(self.fail("metrics", format!("unexpected frame {other:#04x}"))),
        }
    }
}

impl Transport for RemoteTransport {
    fn execute(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        protocol::check_count(params.len(), "parameters")?;
        self.check_live()?;
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.sync_now(&mut stream)?;
        let body = protocol::encode_stmt(sql, params, &|v| self.display(v));
        self.send(&mut stream, req::STMT, &body)?;
        self.read_outcome(&mut stream)
    }

    fn prepare(&self, sql: &str) -> DbResult<Option<u64>> {
        self.check_live()?;
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.send(&mut stream, req::PREPARE, &protocol::encode_prepare(sql))?;
        let (tag, body) = self.recv(&mut stream)?;
        match tag {
            resp::PREPARED_OK => Ok(Some(protocol::decode_prepared_ok(&body)?)),
            resp::ERROR => Err(protocol::decode_error(&body)?),
            other => Err(self.fail("PREPARE", format!("unexpected frame {other:#04x}"))),
        }
    }

    fn execute_prepared(
        &self,
        id: u64,
        _sql: &str,
        params: &[(&str, Value)],
    ) -> DbResult<StatementOutcome> {
        protocol::check_count(params.len(), "parameters")?;
        self.check_live()?;
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.sync_now(&mut stream)?;
        let body = protocol::encode_execute_prepared(id, params, &|v| self.display(v));
        self.send(&mut stream, req::EXECUTE_PREPARED, &body)?;
        self.read_outcome(&mut stream)
    }

    /// True pipelining: every request frame is encoded into one buffer
    /// and written with a single syscall; the server executes them in
    /// order and the responses drain back to back. Statement-level
    /// errors occupy their slot without disturbing later statements; a
    /// transport fault (broken stream) aborts the drain, since frame
    /// boundaries can no longer be trusted.
    fn execute_batch(&self, batch: &[BatchStatement]) -> DbResult<Vec<DbResult<StatementOutcome>>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        for stmt in batch {
            protocol::check_count(stmt.params.len(), "parameters")?;
        }
        self.check_live()?;
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.sync_now(&mut stream)?;
        let mut wire = Vec::new();
        for stmt in batch {
            let params: Vec<(&str, Value)> = stmt
                .params
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let (tag, body) = match stmt.prepared_id {
                Some(id) => (
                    req::EXECUTE_PREPARED,
                    protocol::encode_execute_prepared(id, &params, &|v| self.display(v)),
                ),
                None => (
                    req::STMT,
                    protocol::encode_stmt(&stmt.sql, &params, &|v| self.display(v)),
                ),
            };
            protocol::write_frame(&mut wire, tag, &body)
                .map_err(|e| self.fail("batch encode", e))?;
        }
        io::Write::write_all(&mut *stream, &wire).map_err(|e| self.fail("batch send", e))?;
        let mut results = Vec::with_capacity(batch.len());
        for _ in batch {
            match self.read_outcome(&mut stream) {
                Ok(outcome) => results.push(Ok(outcome)),
                Err(e) if self.is_broken() => return Err(e),
                Err(e) => results.push(Err(e)),
            }
        }
        Ok(results)
    }

    fn close_prepared(&self, id: u64) -> DbResult<()> {
        if self.broken.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut stream = self.stream.lock().expect("stream poisoned");
        self.send(
            &mut stream,
            req::CLOSE_PREPARED,
            &protocol::encode_close_prepared(id),
        )?;
        let (tag, body) = self.recv(&mut stream)?;
        match tag {
            resp::DONE => Ok(()),
            resp::ERROR => Err(protocol::decode_error(&body)?),
            other => Err(self.fail("CLOSE_PREPARED", format!("unexpected frame {other:#04x}"))),
        }
    }

    fn set_now_unix(&self, now_unix: Option<i64>) {
        let mut now = self.now.lock().expect("now poisoned");
        now.dirty = now.dirty || now.current != now_unix;
        now.current = now_unix;
    }

    fn now_override_unix(&self) -> Option<i64> {
        self.now.lock().expect("now poisoned").current
    }

    fn metrics(&self) -> DbResult<Arc<QueryMetrics>> {
        Err(DbError::unavailable(
            "live metrics handles are in-process only; use metrics_snapshot()",
        ))
    }

    fn metrics_snapshot(&self) -> DbResult<MetricsSnapshot> {
        self.fetch_metrics(req::SESSION_STATS)
    }

    fn server_metrics(&self) -> DbResult<MetricsSnapshot> {
        self.fetch_metrics(req::SERVER_METRICS)
    }

    fn set_slow_query_log(
        &self,
        _threshold: Duration,
        _logger: Box<dyn Fn(&SlowQuery) + Send + Sync>,
    ) -> DbResult<()> {
        Err(DbError::unavailable(
            "slow-query log hooks are in-process only",
        ))
    }

    fn clear_slow_query_log(&self) -> DbResult<()> {
        Err(DbError::unavailable(
            "slow-query log hooks are in-process only",
        ))
    }

    fn endpoint(&self) -> String {
        self.endpoint.clone()
    }
}

impl Drop for RemoteTransport {
    fn drop(&mut self) {
        // Orderly goodbye; best effort, the server also survives an
        // abrupt close.
        if !self.broken.load(Ordering::SeqCst) {
            if let Ok(stream) = self.stream.get_mut() {
                let mut frame = Vec::with_capacity(8);
                if protocol::write_frame(&mut frame, req::BYE, &[]).is_ok() {
                    let _ = io::Write::write_all(stream, &frame);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Replicated
// ---------------------------------------------------------------------

/// `true` for statements that are both *idempotent* (safe to retry on a
/// torn connection) and *servable by a read-only replica*: SELECT
/// (including `AS OF` time travel), EXPLAIN, and SHOW. Everything else
/// — DML, DDL, transactions, SET — routes to the primary and is never
/// auto-retried.
pub fn is_read_only_statement(sql: &str) -> bool {
    matches!(statement_head(sql).as_str(), "select" | "explain" | "show")
}

/// The statement's lower-cased leading keyword (`"select"`, `"begin"`,
/// …) — empty for strings that open with anything non-alphabetic.
fn statement_head(sql: &str) -> String {
    sql.trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Tuning knobs for [`ReplicatedTransport`].
#[derive(Debug, Clone)]
pub struct ReplicatedOptions {
    /// Per-connection handshake/socket options.
    pub connect: ConnectOptions,
    /// Attempts per read-only statement across the replica set before
    /// giving up with a typed `Unavailable`.
    pub read_attempts: usize,
    /// Base backoff between read retries; actual sleeps add up to 100%
    /// jitter.
    pub backoff: Duration,
}

impl Default for ReplicatedOptions {
    fn default() -> ReplicatedOptions {
        ReplicatedOptions {
            connect: ConnectOptions::default(),
            read_attempts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One replica endpoint with its lazily-dialed connection and the
/// newest primary commit sequence it is known to have applied.
struct ReplicaSlot {
    addr: String,
    conn: Mutex<Option<RemoteTransport>>,
    applied_seq: AtomicU64,
}

/// How one replica read attempt went.
enum ReadAttempt {
    Served(StatementOutcome),
    /// The replica is behind the read-your-writes floor.
    Lagging,
    /// Connect or transport fault; the slot was torn down for re-dial.
    Fault(DbError),
}

/// Primary/replica routing over [`RemoteTransport`]s: writes,
/// transactions and DDL go to the primary (and while a BEGIN..COMMIT
/// transaction is open, *all* statements pin there — in-transaction
/// reads must see the transaction's workspace); plain SELECT / AS OF /
/// EXPLAIN / SHOW fan out across replicas round-robin, with bounded
/// jittered retries against other replicas on connection faults and a
/// read-your-writes floor — after a write, reads only land on replicas
/// whose applied sequence has caught up to the primary's durable
/// frontier (lagging replicas are skipped; if none qualify the read is
/// served by the primary).
pub struct ReplicatedTransport {
    registry: Arc<Database>,
    types: tip_blade::TipTypes,
    opts: ReplicatedOptions,
    primary_addr: String,
    primary: Mutex<Option<RemoteTransport>>,
    replicas: Vec<ReplicaSlot>,
    rr: AtomicUsize,
    /// NOW override propagated to whichever connection runs the next
    /// statement (each underlying transport de-dups unchanged values).
    now: Mutex<Option<i64>>,
    /// Read-your-writes floor: the primary's durable commit sequence
    /// observed after this session's most recent write.
    floor: AtomicU64,
    /// Set by a write; the next read refreshes the floor first.
    floor_dirty: AtomicBool,
    /// True while a BEGIN..COMMIT transaction is open on the primary
    /// connection. The transaction's workspace and frozen snapshot live
    /// in that one server session, so *every* statement — reads
    /// included — must pin to the primary until it closes; a replica
    /// would silently serve pre-transaction state.
    in_txn: AtomicBool,
}

impl ReplicatedTransport {
    /// Dials nothing yet: every connection (primary included) is
    /// established on first use and re-dialed after faults.
    pub fn new(
        primary: impl Into<String>,
        replicas: &[&str],
        registry: Arc<Database>,
        types: tip_blade::TipTypes,
        opts: ReplicatedOptions,
    ) -> ReplicatedTransport {
        ReplicatedTransport {
            registry,
            types,
            opts,
            primary_addr: primary.into(),
            primary: Mutex::new(None),
            replicas: replicas
                .iter()
                .map(|a| ReplicaSlot {
                    addr: (*a).to_string(),
                    conn: Mutex::new(None),
                    applied_seq: AtomicU64::new(0),
                })
                .collect(),
            rr: AtomicUsize::new(0),
            now: Mutex::new(None),
            floor: AtomicU64::new(0),
            floor_dirty: AtomicBool::new(false),
            in_txn: AtomicBool::new(false),
        }
    }

    fn current_now(&self) -> Option<i64> {
        *self.now.lock().expect("now poisoned")
    }

    /// Runs `f` against the primary connection, dialing it if needed and
    /// tearing it down after transport faults so the next call re-dials.
    fn with_primary<R>(&self, f: impl FnOnce(&RemoteTransport) -> DbResult<R>) -> DbResult<R> {
        let mut guard = self.primary.lock().expect("primary poisoned");
        if guard.is_none() {
            *guard = Some(RemoteTransport::connect(
                self.primary_addr.as_str(),
                Arc::clone(&self.registry),
                self.types,
                &self.opts.connect,
            )?);
        }
        let t = guard.as_ref().expect("just dialed");
        t.set_now_unix(self.current_now());
        let out = f(t);
        if t.is_broken() {
            *guard = None;
        }
        out
    }

    /// Refreshes the read-your-writes floor after a write: one metrics
    /// round trip to the primary for its durable commit sequence. A
    /// failed refresh keeps the dirty bit so the next read tries again.
    fn refresh_floor(&self) -> u64 {
        if self.floor_dirty.swap(false, Ordering::SeqCst) {
            match self.with_primary(|t| t.server_metrics()) {
                Ok(m) => {
                    self.floor.fetch_max(m.repl_last_seq, Ordering::SeqCst);
                }
                Err(_) => self.floor_dirty.store(true, Ordering::SeqCst),
            }
        }
        self.floor.load(Ordering::SeqCst)
    }

    /// One read attempt against one replica slot.
    fn try_replica(
        &self,
        slot: &ReplicaSlot,
        floor: u64,
        sql: &str,
        params: &[(&str, Value)],
    ) -> DbResult<ReadAttempt> {
        let mut guard = slot.conn.lock().expect("replica slot poisoned");
        if guard.is_none() {
            match RemoteTransport::connect(
                slot.addr.as_str(),
                Arc::clone(&self.registry),
                self.types,
                &self.opts.connect,
            ) {
                Ok(t) => *guard = Some(t),
                Err(e) => return Ok(ReadAttempt::Fault(e)),
            }
        }
        let t = guard.as_ref().expect("just dialed");
        if floor > slot.applied_seq.load(Ordering::SeqCst) {
            // The cached position is behind the floor: ask the replica
            // how far it has applied before trusting it with the read.
            match t.server_metrics() {
                Ok(m) => slot.applied_seq.store(m.repl_last_seq, Ordering::SeqCst),
                Err(e) => {
                    *guard = None;
                    return Ok(ReadAttempt::Fault(e));
                }
            }
            if floor > slot.applied_seq.load(Ordering::SeqCst) {
                return Ok(ReadAttempt::Lagging);
            }
        }
        t.set_now_unix(self.current_now());
        match t.execute(sql, params) {
            Ok(out) => Ok(ReadAttempt::Served(out)),
            Err(e) if t.is_broken() => {
                *guard = None;
                Ok(ReadAttempt::Fault(e))
            }
            // Statement-level error: deterministic, not worth retrying
            // elsewhere — surface it directly.
            Err(e) => Err(e),
        }
    }

    /// Fans a read-only statement across the replica set: round-robin
    /// with bounded jittered retries. Lagging replicas (below the
    /// read-your-writes floor) fall back to the primary; exhausted
    /// connection faults become a typed `Unavailable`.
    fn execute_read(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        let floor = self.refresh_floor();
        let attempts = self.opts.read_attempts.max(1);
        let mut lagging = false;
        let mut last_fault: Option<DbError> = None;
        for attempt in 0..attempts {
            let idx = self.rr.fetch_add(1, Ordering::SeqCst) % self.replicas.len();
            match self.try_replica(&self.replicas[idx], floor, sql, params)? {
                ReadAttempt::Served(out) => return Ok(out),
                ReadAttempt::Lagging => lagging = true,
                ReadAttempt::Fault(e) => {
                    last_fault = Some(e);
                    if attempt + 1 < attempts {
                        backoff_sleep(self.opts.backoff, attempt);
                    }
                }
            }
        }
        if lagging {
            // Read-your-writes beats fan-out: no replica has caught up
            // to this session's last write, so the primary serves it.
            return self.with_primary(|t| t.execute(sql, params));
        }
        let detail = last_fault.map(|e| e.to_string()).unwrap_or_default();
        Err(DbError::unavailable(format!(
            "no replica reachable after {attempts} attempts across {} endpoints: {detail}",
            self.replicas.len()
        )))
    }
}

impl Transport for ReplicatedTransport {
    fn execute(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        // Reads fan out only *outside* transactions: an in-transaction
        // SELECT must see the transaction's own uncommitted writes and
        // frozen snapshot, which exist only in the primary's session.
        if is_read_only_statement(sql)
            && !self.in_txn.load(Ordering::SeqCst)
            && !self.replicas.is_empty()
        {
            return self.execute_read(sql, params);
        }
        let out = self.with_primary(|t| t.execute(sql, params));
        // Mirror the server session's transaction lifecycle: BEGIN
        // opens only on success; COMMIT/ROLLBACK always close it (the
        // server takes the transaction state before the conflict check,
        // so even a failed COMMIT leaves no transaction open).
        match statement_head(sql).as_str() {
            "begin" if out.is_ok() => self.in_txn.store(true, Ordering::SeqCst),
            "commit" | "rollback" => self.in_txn.store(false, Ordering::SeqCst),
            _ => {}
        }
        if out.is_err() && self.primary.lock().expect("primary poisoned").is_none() {
            // The primary connection was torn down; any server-side
            // transaction died with its session.
            self.in_txn.store(false, Ordering::SeqCst);
        }
        let out = out?;
        if !is_read_only_statement(sql) {
            // The write (or transaction control) moved the primary's
            // frontier; the next read must re-establish the floor.
            self.floor_dirty.store(true, Ordering::SeqCst);
        }
        Ok(out)
    }

    fn set_now_unix(&self, now_unix: Option<i64>) {
        *self.now.lock().expect("now poisoned") = now_unix;
    }

    fn now_override_unix(&self) -> Option<i64> {
        self.current_now()
    }

    fn metrics(&self) -> DbResult<Arc<QueryMetrics>> {
        Err(DbError::unavailable(
            "live metrics handles are in-process only; use metrics_snapshot()",
        ))
    }

    fn metrics_snapshot(&self) -> DbResult<MetricsSnapshot> {
        self.with_primary(|t| t.metrics_snapshot())
    }

    fn server_metrics(&self) -> DbResult<MetricsSnapshot> {
        self.with_primary(|t| t.server_metrics())
    }

    fn set_slow_query_log(
        &self,
        _threshold: Duration,
        _logger: Box<dyn Fn(&SlowQuery) + Send + Sync>,
    ) -> DbResult<()> {
        Err(DbError::unavailable(
            "slow-query log hooks are in-process only",
        ))
    }

    fn clear_slow_query_log(&self) -> DbResult<()> {
        Err(DbError::unavailable(
            "slow-query log hooks are in-process only",
        ))
    }

    fn endpoint(&self) -> String {
        format!("{} (+{} replicas)", self.primary_addr, self.replicas.len())
    }
}

/// Sleeps `base * (attempt + 1)` plus up to 100% jitter. The jitter
/// source is the wall clock's subsecond nanos — enough to decorrelate
/// retry storms without a PRNG dependency.
fn backoff_sleep(base: Duration, attempt: usize) {
    let step = base.saturating_mul(attempt as u32 + 1);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    let jitter = Duration::from_millis(nanos % (step.as_millis() as u64).max(1));
    std::thread::sleep(step + jitter);
}

/// Admin: tells the replica at `addr` to promote itself to primary —
/// finish draining its replication stream, open its WAL for append, and
/// start accepting writes. Returns once the server confirms.
pub fn promote_replica(addr: impl ToSocketAddrs) -> DbResult<()> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| DbError::unavailable(format!("connect failed: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    protocol::client_handshake(&mut stream, None)?;
    protocol::write_frame(&mut stream, req::PROMOTE, &[])
        .map_err(|e| DbError::unavailable(format!("send failed: {e}")))?;
    let reply = protocol::read_frame(&mut stream)
        .map_err(|e| DbError::unavailable(format!("receive failed: {e}")))?;
    match reply {
        (resp::DONE, _) => Ok(()),
        (resp::ERROR, body) => Err(protocol::decode_error(&body)?),
        (other, _) => Err(DbError::unavailable(format!(
            "unexpected PROMOTE reply {other:#04x}"
        ))),
    }
}
