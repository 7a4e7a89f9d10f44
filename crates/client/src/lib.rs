//! # tip-client — the TIP client libraries
//!
//! The paper's Figure 1 shows client applications reaching a TIP-enabled
//! database through standard APIs, manipulating TIP datatypes via the
//! *TIP C library* and *TIP Java library*; the Java side uses JDBC 2.0's
//! *customized type mapping* to turn database UDT values into rich host
//! objects. This crate is the Rust analogue:
//!
//! * [`Connection`] — connect to (and optionally bootstrap) a
//!   TIP-enabled database;
//! * [`PreparedStatement`] — SQL with named parameters (`:w`), bound from
//!   host values including `tip-core` objects;
//! * [`Rows`] — a cursor with typed accessors (`get_chronon`,
//!   `get_element`, …);
//! * [`TypeMap`] / [`HostValue`] — customized type mapping: UDT values
//!   convert to first-class host objects, unknown (or unmapped) UDTs
//!   degrade to their text rendering, exactly like an unmapped JDBC
//!   STRUCT.
//!
//! ```
//! use tip_client::Connection;
//! use tip_core::Chronon;
//!
//! let conn = Connection::open_tip_enabled();
//! conn.execute("CREATE TABLE visits (patient CHAR(20), at Chronon)", &[]).unwrap();
//! conn.execute("INSERT INTO visits VALUES ('Mr.Showbiz', '1999-10-01')", &[]).unwrap();
//! let mut rows = conn.query("SELECT at FROM visits", &[]).unwrap();
//! assert!(rows.next());
//! assert_eq!(rows.get_chronon(0).unwrap(), Chronon::from_ymd(1999, 10, 1).unwrap());
//! ```

pub mod bitemporal;
pub mod protocol;
pub mod transport;

use minidb::{
    Database, DbError, DbResult, MetricsSnapshot, QueryMetrics, QueryResult, SlowQuery,
    StatementOutcome, Value,
};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;
use tip_blade::{as_chronon, as_element, as_instant, as_period, as_span, TipBlade, TipTypes};
use tip_core::{Chronon, Element, Instant, Period, Span};
use transport::{
    BatchStatement, ConnectOptions, InProcessTransport, RemoteTransport, ReplicatedOptions,
    ReplicatedTransport, Transport,
};

pub use transport::promote_replica;

/// A host-language view of one SQL value — the result of customized type
/// mapping (JDBC 2.0 style): TIP UDTs arrive as first-class objects.
#[derive(Debug, Clone, PartialEq)]
pub enum HostValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Chronon(Chronon),
    Span(Span),
    Instant(Instant),
    Period(Period),
    Element(Element),
    /// An unmapped UDT, rendered through its text-output function.
    OtherUdt(String),
}

/// The customized type map. The default maps the five TIP types to host
/// objects; [`TypeMap::unmapped`] disables that, so every UDT arrives as
/// text (like removing the entries from a JDBC type map).
#[derive(Debug, Clone)]
pub struct TypeMap {
    map_tip_types: bool,
}

impl Default for TypeMap {
    fn default() -> TypeMap {
        TypeMap {
            map_tip_types: true,
        }
    }
}

impl TypeMap {
    /// A map with no custom entries.
    pub fn unmapped() -> TypeMap {
        TypeMap {
            map_tip_types: false,
        }
    }
}

type DisplayFn = Arc<dyn Fn(&Value) -> String + Send + Sync>;

/// A connection to a TIP-enabled database — embedded in this process or
/// reached over TCP via [`Connection::connect`]. Everything above the
/// [`Transport`] (prepared statements, cursors, type mapping) behaves
/// identically on both paths.
pub struct Connection {
    /// In-process: the actual database. Remote: a client-side registry
    /// database (fresh + TIP blade) used for type ids and display.
    db: Arc<Database>,
    transport: Box<dyn Transport>,
    types: TipTypes,
    type_map: TypeMap,
}

impl Connection {
    /// Creates a fresh in-process database, installs the TIP DataBlade,
    /// and connects — the one-call bootstrap used by examples and tests.
    pub fn open_tip_enabled() -> Connection {
        let db = Database::new();
        db.install_blade(&TipBlade)
            .expect("fresh database accepts the blade");
        Connection::attach(&db).expect("blade just installed")
    }

    /// Connects to an existing database; errors if the TIP blade is not
    /// installed (clients require the TIP types server-side).
    pub fn attach(db: &Arc<Database>) -> DbResult<Connection> {
        let types = db.with_catalog(TipTypes::from_catalog)?;
        Ok(Connection {
            db: Arc::clone(db),
            transport: Box::new(InProcessTransport::new(db.session())),
            types,
            type_map: TypeMap::default(),
        })
    }

    /// Connects to a `tip-server` over TCP with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> DbResult<Connection> {
        Connection::connect_with(addr, &ConnectOptions::default())
    }

    /// Connects to a `tip-server` with explicit handshake options
    /// (initial NOW override, socket timeouts).
    pub fn connect_with(addr: impl ToSocketAddrs, opts: &ConnectOptions) -> DbResult<Connection> {
        // The registry database never stores rows: it exists so the
        // remote path has deterministic TIP type ids to rebuild UDT
        // cells with, and a catalog to render them through.
        let registry = Database::new();
        registry
            .install_blade(&TipBlade)
            .expect("fresh database accepts the blade");
        let types = registry.with_catalog(TipTypes::from_catalog)?;
        let remote = RemoteTransport::connect(addr, Arc::clone(&registry), types, opts)?;
        Ok(Connection {
            db: registry,
            transport: Box::new(remote),
            types,
            type_map: TypeMap::default(),
        })
    }

    /// Connects to a replicated deployment: writes, transactions and
    /// DDL go to `primary`; plain SELECT / AS OF / EXPLAIN / SHOW fan
    /// out across `replicas` (round-robin, bounded jittered retries,
    /// read-your-writes floor). With an empty replica list everything
    /// goes to the primary.
    pub fn connect_replicated(primary: &str, replicas: &[&str]) -> DbResult<Connection> {
        Connection::connect_replicated_with(primary, replicas, ReplicatedOptions::default())
    }

    /// [`Connection::connect_replicated`] with explicit retry/backoff
    /// and handshake options.
    pub fn connect_replicated_with(
        primary: &str,
        replicas: &[&str],
        opts: ReplicatedOptions,
    ) -> DbResult<Connection> {
        let registry = Database::new();
        registry
            .install_blade(&TipBlade)
            .expect("fresh database accepts the blade");
        let types = registry.with_catalog(TipTypes::from_catalog)?;
        let transport =
            ReplicatedTransport::new(primary, replicas, Arc::clone(&registry), types, opts);
        Ok(Connection {
            db: registry,
            transport: Box::new(transport),
            types,
            type_map: TypeMap::default(),
        })
    }

    /// Replaces the customized type map.
    pub fn set_type_map(&mut self, map: TypeMap) {
        self.type_map = map;
    }

    /// The underlying database handle. For remote connections this is
    /// the client-side *type registry* (it holds the TIP catalog, not
    /// the server's data).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Where this connection's statements run ("in-process" or the
    /// server's address).
    pub fn endpoint(&self) -> String {
        self.transport.endpoint()
    }

    /// The TIP type ids of this database (for constructing UDT parameter
    /// values manually).
    pub fn tip_types(&self) -> TipTypes {
        self.types
    }

    /// Overrides `NOW` for subsequent statements (what-if analysis);
    /// `None` restores the wall clock. On remote connections the value
    /// is synced to the server just before the next statement runs.
    pub fn set_now(&self, now: Option<Chronon>) {
        self.transport
            .set_now_unix(now.map(tip_blade::chronon_to_unix));
    }

    /// The current NOW override.
    pub fn now_override(&self) -> Option<Chronon> {
        self.transport
            .now_override_unix()
            .map(tip_blade::now_chronon)
    }

    /// Converts host parameter values to engine values.
    fn lower_param(&self, p: &HostValue) -> Value {
        match p {
            HostValue::Null => Value::Null,
            HostValue::Bool(b) => Value::Bool(*b),
            HostValue::Int(i) => Value::Int(*i),
            HostValue::Float(f) => Value::Float(*f),
            HostValue::Str(s) => Value::Str(s.clone()),
            HostValue::Chronon(c) => self.types.chronon(*c),
            HostValue::Span(s) => self.types.span(*s),
            HostValue::Instant(i) => self.types.instant(*i),
            HostValue::Period(p) => self.types.period(*p),
            HostValue::Element(e) => self.types.element(e.clone()),
            HostValue::OtherUdt(s) => Value::Str(s.clone()),
        }
    }

    /// Executes a non-query statement with named parameters; returns the
    /// affected-row count (0 for DDL).
    pub fn execute(&self, sql: &str, params: &[(&str, HostValue)]) -> DbResult<usize> {
        let lowered: Vec<(&str, Value)> = params
            .iter()
            .map(|(k, v)| (*k, self.lower_param(v)))
            .collect();
        match self.transport.execute(sql, &lowered)? {
            StatementOutcome::Affected(n) => Ok(n),
            StatementOutcome::Done => Ok(0),
            StatementOutcome::Rows(_) => Err(DbError::exec("statement returned rows; use query()")),
        }
    }

    /// Runs a query with named parameters.
    pub fn query(&self, sql: &str, params: &[(&str, HostValue)]) -> DbResult<Rows> {
        let lowered: Vec<(&str, Value)> = params
            .iter()
            .map(|(k, v)| (*k, self.lower_param(v)))
            .collect();
        let result = match self.transport.execute(sql, &lowered)? {
            StatementOutcome::Rows(r) => r,
            StatementOutcome::Affected(_) | StatementOutcome::Done => {
                return Err(DbError::exec("statement returned no rows; use execute()"))
            }
        };
        Ok(self.rows_from(result))
    }

    /// Wraps a raw result set in a cursor with this connection's type
    /// map and display catalog.
    fn rows_from(&self, result: QueryResult) -> Rows {
        let db = Arc::clone(&self.db);
        let display: DisplayFn = Arc::new(move |v| db.with_catalog(|c| c.display_value(v)));
        Rows {
            result,
            cursor: None,
            type_map: self.type_map.clone(),
            display,
        }
    }

    /// Prepares a statement for repeated execution. Over a remote
    /// connection the statement is also registered server-side, so
    /// later executions ship only an id and the parameter values;
    /// in-process connections (and statements the server rejected at
    /// prepare time) resend the text — the engine's plan cache removes
    /// the re-parse/re-plan cost either way.
    pub fn prepare(&self, sql: &str) -> PreparedStatement<'_> {
        // Best-effort: a statement the server rejects here surfaces the
        // same typed error at execute time via the text path.
        let remote_id = self.transport.prepare(sql).unwrap_or(None);
        PreparedStatement {
            conn: self,
            sql: sql.to_owned(),
            params: Vec::new(),
            remote_id,
        }
    }

    /// Handle to the underlying session's query-metrics registry (also
    /// readable in SQL via `SHOW STATS`). In-process only — remote
    /// connections use [`Connection::metrics_snapshot`].
    pub fn metrics(&self) -> DbResult<Arc<QueryMetrics>> {
        self.transport.metrics()
    }

    /// A point-in-time copy of this session's metrics (works on both
    /// transports; remote connections fetch it over the wire).
    pub fn metrics_snapshot(&self) -> DbResult<MetricsSnapshot> {
        self.transport.metrics_snapshot()
    }

    /// Metrics aggregated across every session of the server this
    /// connection talks to. In-process, that is just this session.
    pub fn server_metrics(&self) -> DbResult<MetricsSnapshot> {
        self.transport.server_metrics()
    }

    /// Installs a slow-query log hook: `logger` runs for every statement
    /// at or over `threshold`. In-process only (closures cannot cross
    /// the wire), hence the `DbResult`.
    pub fn set_slow_query_log(
        &self,
        threshold: Duration,
        logger: impl Fn(&SlowQuery) + Send + Sync + 'static,
    ) -> DbResult<()> {
        self.transport
            .set_slow_query_log(threshold, Box::new(logger))
    }

    /// Removes the slow-query log hook.
    pub fn clear_slow_query_log(&self) -> DbResult<()> {
        self.transport.clear_slow_query_log()
    }

    /// Renders one value as SQL text via the catalog.
    pub fn display_value(&self, v: &Value) -> String {
        self.db.with_catalog(|c| c.display_value(v))
    }

    /// Renders a whole result set as an ASCII table.
    pub fn format(&self, rows: &Rows) -> String {
        self.db.format_result(&rows.result)
    }

    /// Starts a statement pipeline: queue several statements with
    /// [`Pipeline::add`] / [`Pipeline::add_prepared`], then ship them in
    /// one batch with [`Pipeline::run`]. Over a remote transport all
    /// queued statements go out in a single write and the responses are
    /// drained afterwards, so a round of N point queries costs one
    /// network round trip instead of N. In-process (and on servers that
    /// predate pipelining) the statements simply run back-to-back —
    /// same results, no batching win.
    ///
    /// Statements execute in submission order on the same session;
    /// statement `i+1` runs after statement `i` finished, exactly as if
    /// issued one at a time.
    pub fn pipeline(&self) -> Pipeline<'_> {
        Pipeline {
            conn: self,
            batch: Vec::new(),
        }
    }
}

/// A prepared statement with named-parameter binding.
pub struct PreparedStatement<'a> {
    conn: &'a Connection,
    sql: String,
    params: Vec<(String, HostValue)>,
    /// Server-side statement id when the transport registered one;
    /// `None` means executions resend the statement text.
    remote_id: Option<u64>,
}

impl PreparedStatement<'_> {
    /// Binds a named parameter (the paper's `:w`); rebinding replaces.
    pub fn bind(mut self, name: &str, value: HostValue) -> Self {
        self.params.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.params.push((name.to_owned(), value));
        self
    }

    /// `true` when the statement is registered server-side; `false` on
    /// the text-resend path.
    pub fn is_server_prepared(&self) -> bool {
        self.remote_id.is_some()
    }

    /// Runs the statement through the fastest path the transport offers.
    fn run(&self) -> DbResult<StatementOutcome> {
        let lowered: Vec<(&str, Value)> = self
            .params
            .iter()
            .map(|(n, v)| (n.as_str(), self.conn.lower_param(v)))
            .collect();
        match self.remote_id {
            Some(id) => self
                .conn
                .transport
                .execute_prepared(id, &self.sql, &lowered),
            None => self.conn.transport.execute(&self.sql, &lowered),
        }
    }

    /// Executes as a query.
    pub fn query(&self) -> DbResult<Rows> {
        match self.run()? {
            StatementOutcome::Rows(r) => Ok(self.conn.rows_from(r)),
            StatementOutcome::Affected(_) | StatementOutcome::Done => {
                Err(DbError::exec("statement returned no rows; use execute()"))
            }
        }
    }

    /// Executes as a non-query statement.
    pub fn execute(&self) -> DbResult<usize> {
        match self.run()? {
            StatementOutcome::Affected(n) => Ok(n),
            StatementOutcome::Done => Ok(0),
            StatementOutcome::Rows(_) => Err(DbError::exec("statement returned rows; use query()")),
        }
    }
}

impl Drop for PreparedStatement<'_> {
    fn drop(&mut self) {
        // Release the server-side slot; best effort, and a no-op on
        // fallback paths.
        if let Some(id) = self.remote_id.take() {
            let _ = self.conn.transport.close_prepared(id);
        }
    }
}

/// A batch of statements submitted together; see [`Connection::pipeline`].
pub struct Pipeline<'a> {
    conn: &'a Connection,
    batch: Vec<BatchStatement>,
}

impl Pipeline<'_> {
    /// Queues a statement with named parameters.
    pub fn add(&mut self, sql: &str, params: &[(&str, HostValue)]) -> &mut Self {
        self.batch.push(BatchStatement {
            sql: sql.to_owned(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), self.conn.lower_param(v)))
                .collect(),
            prepared_id: None,
        });
        self
    }

    /// Queues an execution of a prepared statement, snapshotting its
    /// current bindings. The statement may be re-bound and queued again
    /// in the same batch; each queued execution keeps the values it was
    /// added with.
    pub fn add_prepared(&mut self, stmt: &PreparedStatement<'_>) -> &mut Self {
        self.batch.push(BatchStatement {
            sql: stmt.sql.clone(),
            params: stmt
                .params
                .iter()
                .map(|(n, v)| (n.clone(), self.conn.lower_param(v)))
                .collect(),
            prepared_id: stmt.remote_id,
        });
        self
    }

    /// Number of statements queued so far.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// `true` when nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Ships the batch and drains one result per queued statement, in
    /// submission order. The outer `Err` means the connection itself
    /// failed (broken socket — remaining results unrecoverable); a
    /// per-slot `Err` is an ordinary statement error (the server keeps
    /// the connection and later slots still ran).
    pub fn run(&mut self) -> DbResult<Vec<DbResult<PipelineOutcome>>> {
        let batch = std::mem::take(&mut self.batch);
        let outcomes = self.conn.transport.execute_batch(&batch)?;
        Ok(outcomes
            .into_iter()
            .map(|slot| {
                slot.map(|outcome| match outcome {
                    StatementOutcome::Rows(r) => PipelineOutcome::Rows(self.conn.rows_from(r)),
                    StatementOutcome::Affected(n) => PipelineOutcome::Affected(n),
                    StatementOutcome::Done => PipelineOutcome::Done,
                })
            })
            .collect())
    }
}

/// The result of one pipelined statement.
pub enum PipelineOutcome {
    /// The statement returned rows.
    Rows(Rows),
    /// A DML statement reporting its affected-row count.
    Affected(usize),
    /// A statement with no result (DDL and friends).
    Done,
}

impl PipelineOutcome {
    /// Unwraps a row set, erroring on non-query outcomes.
    pub fn into_rows(self) -> DbResult<Rows> {
        match self {
            PipelineOutcome::Rows(r) => Ok(r),
            _ => Err(DbError::exec("statement returned no rows; use affected()")),
        }
    }

    /// The affected-row count (0 for `Done`), erroring if rows came back.
    pub fn affected(self) -> DbResult<usize> {
        match self {
            PipelineOutcome::Affected(n) => Ok(n),
            PipelineOutcome::Done => Ok(0),
            PipelineOutcome::Rows(_) => Err(DbError::exec("statement returned rows; use query()")),
        }
    }
}

/// A forward-only cursor over a query result with typed accessors.
pub struct Rows {
    result: QueryResult,
    cursor: Option<usize>,
    type_map: TypeMap,
    display: DisplayFn,
}

impl Rows {
    /// Advances to the next row; `false` at the end.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        let next = self.cursor.map_or(0, |c| c + 1);
        if next < self.result.rows.len() {
            self.cursor = Some(next);
            true
        } else {
            self.cursor = Some(self.result.rows.len());
            false
        }
    }

    /// Number of rows in the result.
    pub fn len(&self) -> usize {
        self.result.rows.len()
    }

    /// `true` when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.result.rows.is_empty()
    }

    /// Output column names.
    pub fn column_names(&self) -> Vec<&str> {
        self.result
            .columns
            .iter()
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Column index by name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.result.col_index(name)
    }

    fn current(&self) -> DbResult<&minidb::Row> {
        let i = self
            .cursor
            .ok_or_else(|| DbError::exec("call next() before accessors"))?;
        self.result
            .rows
            .get(i)
            .ok_or_else(|| DbError::exec("cursor is past the last row"))
    }

    fn cell(&self, col: usize) -> DbResult<&Value> {
        self.current()?
            .get(col)
            .ok_or_else(|| DbError::exec(format!("column index {col} out of range")))
    }

    /// The raw engine value.
    pub fn get_raw(&self, col: usize) -> DbResult<Value> {
        self.cell(col).cloned()
    }

    /// The customized-type-mapped host value (`getObject` in JDBC terms).
    pub fn get_object(&self, col: usize) -> DbResult<HostValue> {
        let v = self.cell(col)?;
        Ok(match v {
            Value::Null => HostValue::Null,
            Value::Bool(b) => HostValue::Bool(*b),
            Value::Int(i) => HostValue::Int(*i),
            Value::Float(f) => HostValue::Float(*f),
            Value::Str(s) => HostValue::Str(s.clone()),
            Value::Udt(_) => {
                if self.type_map.map_tip_types {
                    if let Some(c) = as_chronon(v) {
                        return Ok(HostValue::Chronon(c));
                    }
                    if let Some(s) = as_span(v) {
                        return Ok(HostValue::Span(s));
                    }
                    if let Some(i) = as_instant(v) {
                        return Ok(HostValue::Instant(i));
                    }
                    if let Some(p) = as_period(v) {
                        return Ok(HostValue::Period(p));
                    }
                    if let Some(e) = as_element(v) {
                        return Ok(HostValue::Element(e.clone()));
                    }
                }
                HostValue::OtherUdt((self.display)(v))
            }
        })
    }

    /// `true` when the cell is SQL NULL.
    pub fn is_null(&self, col: usize) -> DbResult<bool> {
        Ok(self.cell(col)?.is_null())
    }

    /// Typed accessor: INT.
    pub fn get_int(&self, col: usize) -> DbResult<i64> {
        self.cell(col)?
            .as_int()
            .ok_or_else(|| DbError::exec("column is not INT"))
    }

    /// Typed accessor: FLOAT.
    pub fn get_float(&self, col: usize) -> DbResult<f64> {
        self.cell(col)?
            .as_float()
            .ok_or_else(|| DbError::exec("column is not FLOAT"))
    }

    /// Typed accessor: BOOLEAN.
    pub fn get_bool(&self, col: usize) -> DbResult<bool> {
        self.cell(col)?
            .as_bool()
            .ok_or_else(|| DbError::exec("column is not BOOLEAN"))
    }

    /// Typed accessor: string.
    pub fn get_string(&self, col: usize) -> DbResult<String> {
        self.cell(col)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| DbError::exec("column is not CHAR"))
    }

    /// Typed accessor: Chronon.
    pub fn get_chronon(&self, col: usize) -> DbResult<Chronon> {
        as_chronon(self.cell(col)?).ok_or_else(|| DbError::exec("column is not Chronon"))
    }

    /// Typed accessor: Span.
    pub fn get_span(&self, col: usize) -> DbResult<Span> {
        as_span(self.cell(col)?).ok_or_else(|| DbError::exec("column is not Span"))
    }

    /// Typed accessor: Instant.
    pub fn get_instant(&self, col: usize) -> DbResult<Instant> {
        as_instant(self.cell(col)?).ok_or_else(|| DbError::exec("column is not Instant"))
    }

    /// Typed accessor: Period.
    pub fn get_period(&self, col: usize) -> DbResult<Period> {
        as_period(self.cell(col)?).ok_or_else(|| DbError::exec("column is not Period"))
    }

    /// Typed accessor: Element.
    pub fn get_element(&self, col: usize) -> DbResult<Element> {
        as_element(self.cell(col)?)
            .cloned()
            .ok_or_else(|| DbError::exec("column is not Element"))
    }

    /// The underlying result set (for interop with the browser).
    pub fn into_result(self) -> QueryResult {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_with_demo() -> Connection {
        let conn = Connection::open_tip_enabled();
        conn.set_now(Some(Chronon::from_ymd(1999, 12, 1).unwrap()));
        conn.execute(
            "CREATE TABLE rx (patient CHAR(20), dob Chronon, freq Span, valid Element)",
            &[],
        )
        .unwrap();
        conn.execute(
            "INSERT INTO rx VALUES ('Mr.Showbiz', '1965-04-02', '0 08:00:00', \
             '{[1999-10-01, NOW]}')",
            &[],
        )
        .unwrap();
        conn
    }

    #[test]
    fn typed_accessors() {
        let conn = conn_with_demo();
        let mut rows = conn
            .query("SELECT patient, dob, freq, valid FROM rx", &[])
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows.next());
        assert_eq!(rows.get_string(0).unwrap(), "Mr.Showbiz");
        assert_eq!(
            rows.get_chronon(1).unwrap(),
            Chronon::from_ymd(1965, 4, 2).unwrap()
        );
        assert_eq!(rows.get_span(2).unwrap(), Span::from_hours(8));
        assert_eq!(
            rows.get_element(3).unwrap().to_string(),
            "{[1999-10-01, NOW]}"
        );
        assert!(!rows.next());
    }

    #[test]
    fn accessor_type_mismatch_errors() {
        let conn = conn_with_demo();
        let mut rows = conn.query("SELECT patient FROM rx", &[]).unwrap();
        rows.next();
        assert!(rows.get_chronon(0).is_err());
        assert!(rows.get_int(0).is_err());
        assert!(rows.get_int(5).is_err(), "out-of-range column");
    }

    #[test]
    fn cursor_discipline() {
        let conn = conn_with_demo();
        let rows = conn.query("SELECT patient FROM rx", &[]).unwrap();
        // Accessing before next() is an error.
        assert!(rows.get_string(0).is_err());
    }

    #[test]
    fn customized_type_mapping() {
        let conn = conn_with_demo();
        let mut rows = conn.query("SELECT valid FROM rx", &[]).unwrap();
        rows.next();
        match rows.get_object(0).unwrap() {
            HostValue::Element(e) => assert!(e.is_now_relative()),
            other => panic!("expected mapped Element, got {other:?}"),
        }
    }

    #[test]
    fn unmapped_types_degrade_to_text() {
        let mut conn = conn_with_demo();
        conn.set_type_map(TypeMap::unmapped());
        let mut rows = conn.query("SELECT valid FROM rx", &[]).unwrap();
        rows.next();
        match rows.get_object(0).unwrap() {
            HostValue::OtherUdt(s) => assert_eq!(s, "{[1999-10-01, NOW]}"),
            other => panic!("expected text fallback, got {other:?}"),
        }
    }

    #[test]
    fn prepared_statement_binding() {
        let conn = conn_with_demo();
        let stmt = conn
            .prepare("SELECT patient FROM rx WHERE length(valid) > :minlen")
            .bind("minlen", HostValue::Span(Span::from_days(30)));
        let rows = stmt.query().unwrap();
        assert_eq!(rows.len(), 1);
        // Rebinding replaces the old value.
        let stmt = stmt.bind("minlen", HostValue::Span(Span::from_days(300)));
        assert!(stmt.query().unwrap().is_empty());
    }

    #[test]
    fn tip_object_parameters() {
        let conn = conn_with_demo();
        let rows = conn
            .query(
                "SELECT patient FROM rx WHERE contains(valid, :day)",
                &[(
                    "day",
                    HostValue::Chronon(Chronon::from_ymd(1999, 11, 11).unwrap()),
                )],
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn what_if_now_through_connection() {
        let conn = conn_with_demo();
        let q = "SELECT total_seconds(length(valid)) FROM rx";
        let mut r1 = conn.query(q, &[]).unwrap();
        r1.next();
        let len_dec = r1.get_int(0).unwrap();
        conn.set_now(Some(Chronon::from_ymd(2000, 6, 1).unwrap()));
        assert_eq!(
            conn.now_override(),
            Some(Chronon::from_ymd(2000, 6, 1).unwrap())
        );
        let mut r2 = conn.query(q, &[]).unwrap();
        r2.next();
        assert!(r2.get_int(0).unwrap() > len_dec);
    }

    #[test]
    fn attach_requires_blade() {
        let db = Database::new();
        assert!(Connection::attach(&db).is_err());
        db.install_blade(&TipBlade).unwrap();
        assert!(Connection::attach(&db).is_ok());
    }

    #[test]
    fn execute_rejects_queries_and_vice_versa() {
        let conn = conn_with_demo();
        assert!(conn.execute("SELECT * FROM rx", &[]).is_err());
        assert!(conn.query("DELETE FROM rx", &[]).is_err());
    }

    #[test]
    fn null_handling() {
        let conn = Connection::open_tip_enabled();
        conn.execute("CREATE TABLE t (a INT, c Chronon)", &[])
            .unwrap();
        conn.execute("INSERT INTO t VALUES (NULL, NULL)", &[])
            .unwrap();
        let mut rows = conn.query("SELECT a, c FROM t", &[]).unwrap();
        rows.next();
        assert!(rows.is_null(0).unwrap());
        assert!(rows.is_null(1).unwrap());
        assert_eq!(rows.get_object(1).unwrap(), HostValue::Null);
    }
}
