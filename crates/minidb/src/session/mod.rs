//! Databases, sessions, and statement execution.
//!
//! A [`Database`] owns the catalog and storage behind reader-writer
//! locks; a [`Session`] executes SQL statements against it. Each
//! statement freezes one transaction time (the interpretation of `NOW`),
//! and a session may override it — the hook the TIP Browser's what-if
//! analysis uses (paper §4).

mod ddl;
mod durable;
mod select;
mod txn;
mod write;

use crate::builtin;
use crate::cache::{self, CacheLookup, CachedPlan, PlanCache};
use crate::catalog::{Blade, Catalog, ExecCtx};
use crate::error::{DbError, DbResult};
use crate::obs::{
    Metric, MetricsSnapshot, QueryMetrics, SlowQuery, SlowQueryLogger, StatementKind,
};
use crate::pin::{PinnedTables, TableSet};
use crate::plan::{DmlOp, Planned, Planner};
use crate::sql::ast::Statement;
use crate::sql::parse_statement;
use crate::storage::{self, Storage, Table};
use crate::types::DataType;
use crate::value::{Row, Value};
use durable::Durability;
use parking_lot::{Mutex, RwLock};
use select::{plan_lines, Binding, PlanSource, ReadCut, Render};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
pub use txn::SnapshotPin;
use txn::{MvccState, TxnState};

/// How many versions a table's MVCC chain keeps beyond the oldest
/// pinned snapshot. Bounds memory on write-heavy tables while leaving a
/// window of recent history for `AS OF` queries (history collected past
/// the window reports NotFound).
const DEFAULT_VERSION_RETENTION: u64 = 64;

/// Result rows plus output column metadata.
#[derive(Debug)]
pub struct QueryResult {
    pub columns: Vec<(String, DataType)>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Index of an output column by case-insensitive name.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// What a statement produced.
#[derive(Debug)]
pub enum StatementOutcome {
    /// A SELECT's result set.
    Rows(QueryResult),
    /// Row count of an INSERT/UPDATE/DELETE.
    Affected(usize),
    /// A DDL statement completed.
    Done,
}

/// An in-process database: the catalog and the table registry, each
/// under its own reader-writer lock.
///
/// The registry lock is *short-held*: statements take a read lock only
/// to resolve their [`TableSet`], release it, then block (if at all) on
/// the individual table locks, acquired in sorted-name order. DDL and
/// snapshot restore are the only registry writers. No statement waits
/// on the registry while holding a table lock (except snapshot save,
/// which holds a registry *read* that table-lock holders never oppose),
/// so the two lock levels cannot deadlock against each other.
pub struct Database {
    catalog: RwLock<Catalog>,
    registry: RwLock<Storage>,
    /// Monotonic DDL generation: bumped by every registry write
    /// (CREATE/DROP table/index/view), blade install, and snapshot
    /// restore. Cached plans carry the generation they were built
    /// against and are lazily evicted when it moves on.
    generation: AtomicU64,
    /// The database-wide parameterized plan cache (see [`crate::cache`]).
    plan_cache: Mutex<PlanCache>,
    /// MVCC commit state: the global commit counter and the snapshot
    /// pins that hold back version garbage collection.
    mvcc: MvccState,
    /// MVCC retention window (commits of version history kept beyond
    /// the oldest pin). Defaults to [`DEFAULT_VERSION_RETENTION`];
    /// configurable via [`DurabilityConfig::mvcc_retention`] or
    /// [`Database::set_mvcc_retention`].
    mvcc_retention: AtomicU64,
    /// When `Some(primary)`, this database is a read-only replica:
    /// every write statement is rejected with [`DbError::ReadOnly`]
    /// naming the primary. Cleared by promotion.
    read_only: RwLock<Option<String>>,
    /// Replication counters (chunks/bytes shipped, apply lag,
    /// reconnects) — all zero on nodes that neither ship nor apply.
    repl: crate::repl::ReplStats,
    /// Durability state, present only on databases opened from a data
    /// directory ([`Database::open`]). In-memory databases pay nothing.
    durability: OnceLock<Arc<Durability>>,
    /// The paged cold-row store (`pages.db` behind the evicting buffer
    /// pool), present only on databases opened from a data directory.
    paged: OnceLock<Arc<storage::pages::PagedStore>>,
}

impl Database {
    /// Creates a database with all built-ins installed.
    pub fn new() -> Arc<Database> {
        let mut catalog = Catalog::new();
        builtin::install(&mut catalog);
        Arc::new(Database {
            catalog: RwLock::new(catalog),
            registry: RwLock::new(Storage::new()),
            generation: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::new(PlanCache::DEFAULT_CAP)),
            mvcc: MvccState::new(),
            mvcc_retention: AtomicU64::new(DEFAULT_VERSION_RETENTION),
            read_only: RwLock::new(None),
            repl: crate::repl::ReplStats::default(),
            durability: OnceLock::new(),
            paged: OnceLock::new(),
        })
    }
}

impl Database {
    /// Installs an extension blade (types, routines, casts, aggregates).
    pub fn install_blade(&self, blade: &dyn Blade) -> DbResult<()> {
        self.catalog.write().install_blade(blade)?;
        self.bump_generation();
        Ok(())
    }

    /// The current DDL generation (see the field docs).
    pub fn ddl_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    pub(crate) fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs a closure with read access to the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.catalog.read())
    }

    /// Runs a closure with read access to the table registry (names,
    /// existence, view definitions). Table *data* is behind per-table
    /// locks — use [`Database::with_tables`] for that.
    pub fn with_storage<R>(&self, f: impl FnOnce(&Storage) -> R) -> R {
        f(&self.registry.read())
    }

    /// Runs a closure against every table pinned at the Latest read cut:
    /// a consistent whole-database view (the registry lock itself is
    /// already released by the time the closure runs).
    pub fn with_tables<R>(&self, f: impl FnOnce(&PinnedTables) -> R) -> R {
        let set = TableSet::read_all(&self.registry.read());
        let pinned = self.pin_latest(&set);
        f(&pinned)
    }

    /// Runs a closure holding one table's *write* lock. Used by bulk
    /// loaders and by tests that need to observe blocking behavior.
    pub fn with_table_write<R>(&self, name: &str, f: impl FnOnce(&mut Table) -> R) -> DbResult<R> {
        let shared = self.registry.read().shared_table(name)?;
        let mut guard = shared.write();
        let r = f(&mut guard);
        // Publish the (possibly) mutated state while the guard is still
        // held, so snapshot readers observe the bulk change as one
        // commit.
        let snap = Arc::new(guard.share());
        self.publish_prepared(vec![(Arc::clone(&shared), snap)]);
        drop(guard);
        Ok(r)
    }

    /// Opens a session.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            db: Arc::clone(self),
            now_override: None,
            metrics: QueryMetrics::new(),
            slow_query: None,
            repl_apply: false,
            txn: Mutex::new(None),
        }
    }

    /// Opens the internal session replication replay applies through:
    /// identical to [`Database::session`] except the read-only replica
    /// guard is bypassed, so shipped DDL can execute on a replica.
    pub(crate) fn repl_session(self: &Arc<Self>) -> Session {
        let mut s = self.session();
        s.repl_apply = true;
        s
    }

    /// Serializes all tables to a snapshot. Every table's read guard is
    /// held while serializing, so the snapshot is one consistent
    /// cross-table cut.
    pub fn save_snapshot(&self) -> DbResult<Vec<u8>> {
        storage::save_snapshot(&self.catalog.read(), &self.registry.read())
    }

    /// Replaces all tables with the contents of a snapshot. The same
    /// blades must already be installed. Statements already running
    /// against pre-swap tables finish on the data they pinned.
    pub fn load_snapshot(&self, bytes: &[u8]) -> DbResult<()> {
        let store = self.paged.get();
        let new_storage = storage::load_snapshot_with(&self.catalog.read(), bytes, store)?;
        if let Some(store) = store {
            // The loaded snapshot *is* the durable epoch: rebuild the
            // page allocation state from its references.
            store.adopt_refs(storage::cold_page_refs(&new_storage));
        }
        let mut registry = self.registry.write();
        *registry = new_storage;
        // Bumped under the registry lock, as every DDL bumps it (see
        // `Session::probe_cache`).
        self.bump_generation();
        drop(registry);
        // A wholesale world swap: clear the plan cache outright rather
        // than leaving pre-load plans (possibly against dropped tables)
        // to be discovered stale one lookup at a time.
        self.plan_cache.lock().clear();
        Ok(())
    }

    /// Renders a result set as an ASCII table (uses UDT display
    /// functions). Same output as [`Session::format_result`], without
    /// needing a session.
    pub fn format_result(&self, result: &QueryResult) -> String {
        format_result_with(&self.catalog.read(), result)
    }
}

/// Renders a result set as an ASCII table through a catalog's display
/// functions.
fn format_result_with(catalog: &Catalog, result: &QueryResult) -> String {
    let mut widths: Vec<usize> = result
        .columns
        .iter()
        .map(|(n, _)| n.chars().count())
        .collect();
    let rendered: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|v| catalog.display_value(v)).collect())
        .collect();
    // Zip, not index: a malformed row wider than the header list must
    // not panic — extra cells are simply not measured (and the render
    // loop below drops them the same way).
    for row in &rendered {
        for (cell, w) in row.iter().zip(widths.iter_mut()) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for ((name, _), w) in result.columns.iter().zip(&widths) {
        out.push_str(&format!(" {name:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in &rendered {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// A connection-like handle executing statements against a database.
pub struct Session {
    db: Arc<Database>,
    now_override: Option<i64>,
    metrics: Arc<QueryMetrics>,
    slow_query: Option<(Duration, SlowQueryLogger)>,
    /// Set on the internal session replication replay runs through: WAL
    /// records from the primary must apply (including DDL) even though
    /// the node rejects client writes.
    repl_apply: bool,
    /// The open multi-statement transaction, if any (`BEGIN` …
    /// `COMMIT`/`ROLLBACK`). Behind a mutex so `Session` stays `Sync`.
    txn: Mutex<Option<TxnState>>,
}

impl Session {
    /// Handle to this session's query-metrics registry (also readable in
    /// SQL via `SHOW STATS`). The `Arc` can outlive the session.
    pub fn metrics(&self) -> Arc<QueryMetrics> {
        Arc::clone(&self.metrics)
    }

    /// This session's counters plus the node-wide gauges, as of now —
    /// what `SHOW STATS` lists and a METRICS frame carries.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot().with_node_gauges(&self.db)
    }

    /// Installs a slow-query log hook: `logger` runs for every statement
    /// whose plan-and-execute time reaches `threshold`. Replaces any
    /// previous hook.
    pub fn set_slow_query_log(
        &mut self,
        threshold: Duration,
        logger: impl Fn(&SlowQuery) + Send + Sync + 'static,
    ) {
        self.slow_query = Some((threshold, Arc::new(logger)));
    }

    /// Removes the slow-query log hook.
    pub fn clear_slow_query_log(&mut self) {
        self.slow_query = None;
    }

    /// Slow-query hook shared by every statement kind; `plan` renders
    /// the plan description only when the hook actually fires.
    fn observe_slow(&self, sql: &str, rows: u64, elapsed: Duration, plan: impl FnOnce() -> String) {
        if let Some((threshold, logger)) = &self.slow_query {
            if elapsed >= *threshold {
                self.metrics.add(Metric::slow_queries, 1);
                logger(&SlowQuery {
                    sql: sql.to_owned(),
                    elapsed,
                    rows,
                    plan: plan(),
                });
            }
        }
    }

    /// Overrides the interpretation of `NOW` (Unix seconds) for every
    /// subsequent statement; `None` restores the wall clock. This is the
    /// TIP Browser's what-if knob.
    pub fn set_now_unix(&mut self, now: Option<i64>) {
        self.now_override = now;
    }

    /// The current override, if any.
    pub fn now_override(&self) -> Option<i64> {
        self.now_override
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn statement_ctx(&self, params: Option<&Arc<HashMap<String, Value>>>) -> ExecCtx {
        let txn_time_unix = self.now_override.unwrap_or_else(|| {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs() as i64)
                .unwrap_or(0)
        });
        match params {
            Some(p) => ExecCtx::with_params(txn_time_unix, Arc::clone(p)),
            None => ExecCtx::new(txn_time_unix),
        }
    }

    /// Executes one statement with no parameters.
    pub fn execute(&self, sql: &str) -> DbResult<StatementOutcome> {
        self.execute_with_params(sql, &[])
    }

    /// Validates `sql` and returns a handle for repeat execution. The
    /// statement text is parsed once here for early error reporting;
    /// repeat [`Prepared::execute`] calls hit the database-wide plan
    /// cache, skipping the whole SQL front end.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared<'_>> {
        parse_statement(sql)?;
        Ok(Prepared {
            session: self,
            sql: sql.to_owned(),
        })
    }

    /// Executes one statement with named parameters (the paper's `:w`).
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: &[(&str, Value)],
    ) -> DbResult<StatementOutcome> {
        let result = self.execute_inner(sql, params);
        if result.is_err() {
            self.metrics.add(Metric::errors, 1);
        }
        result
    }

    /// One statement, one path: a cache hit or a parse, then the replica
    /// guard, then one planned statement, then `run_select`, `run_write`,
    /// a DDL or a transaction verb.
    fn execute_inner(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        let params = param_map(params)?;
        let param_sig = param_sig_of(params.as_ref());
        let ctx = self.statement_ctx(params.as_ref());
        // Inside a transaction every statement reads (and writes) the
        // workspace, so the plan cache, whose plans run at the Latest
        // cut, is neither read nor filled until COMMIT/ROLLBACK.
        let in_txn = self.txn.lock().is_some();
        let (is_explain, analyze, key) = cache::split_explain(cache::normalize_sql(sql));
        let render = Render::of(is_explain, analyze);
        let generation = match self.probe_cache(key, &param_sig, in_txn, render)? {
            Probe::Hit(entry, set) => return self.run_cached(sql, entry, set, &ctx, render),
            Probe::Miss(generation) => generation,
        };
        let stmt = parse_statement(sql)?;
        // Replica guard: read-only statements (SELECT, EXPLAIN, SHOW
        // STATS) run locally; everything else — DML, DDL, and
        // transactions — belongs on the primary.
        if !matches!(
            stmt,
            Statement::Select(_) | Statement::Explain { .. } | Statement::ShowStats
        ) {
            self.check_writable()?;
        }
        let kind = match &stmt {
            Statement::Select(_) => StatementKind::Select,
            Statement::Insert { .. } => StatementKind::Insert,
            Statement::Update { .. } => StatementKind::Update,
            Statement::Delete { .. } => StatementKind::Delete,
            Statement::Explain { .. } => StatementKind::Explain,
            Statement::ShowStats => StatementKind::ShowStats,
            Statement::Begin | Statement::Commit | Statement::Rollback => StatementKind::Txn,
            _ => StatementKind::Ddl,
        };
        // Resolve the statement's table set under a *short* registry
        // read lock; the lock is dropped before any table guard is
        // acquired, so registry writers (DDL) are never queued behind a
        // long statement and vice versa.
        let set = TableSet::for_statement(&self.db.registry.read(), &stmt);
        let empty = HashMap::new();
        let binding = Binding {
            params: params.as_deref().unwrap_or(&empty),
            param_sig,
            generation,
            key,
            render,
        };
        let outcome = match stmt {
            Statement::Begin => self.txn_begin(),
            Statement::Commit => self.txn_commit(),
            Statement::Rollback => self.txn_rollback(),
            Statement::ShowStats => Ok(self.show_stats()),
            Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => self.run_fresh(sql, set, stmt, binding, in_txn, &ctx),
            _ if in_txn => Err(DbError::exec(
                "DDL and EXPLAIN are not supported inside a transaction; \
                 COMMIT or ROLLBACK first",
            )),
            Statement::Explain { .. } => self.run_fresh(sql, set, stmt, binding, false, &ctx),
            Statement::CreateTable { name, columns } => self.create_table(sql, name, columns),
            Statement::CreateIndex {
                name,
                table,
                column,
            } => self.create_index(sql, &set, name, &table, &column),
            Statement::DropTable { name, if_exists } => self.drop_table(sql, name, if_exists),
            Statement::CreateView {
                name,
                query,
                body_start,
            } => self.create_view(sql, &set, name, &query, body_start),
            Statement::DropView { name, if_exists } => self.drop_view(sql, name, if_exists),
        };
        if outcome.is_ok() {
            self.metrics.record_statement(kind);
        }
        outcome
    }

    /// Probes the plan cache for `key`.
    fn probe_cache(
        &self,
        key: &str,
        param_sig: &[(String, DataType)],
        in_txn: bool,
        render: Render,
    ) -> DbResult<Probe> {
        // The generation and the tables are read under one registry read
        // lock, and every DDL bumps the generation under its own guard:
        // a hit whose generation still matches re-pins the very tables it
        // was planned against. A DDL racing past this point at worst
        // stamps a fresh plan with an already-stale generation (a
        // conservative replan later), never serves a stale plan.
        let registry = self.db.registry.read();
        let generation = self.db.ddl_generation();
        if in_txn {
            return Ok(Probe::Miss(generation));
        }
        let lookup = self.db.plan_cache.lock().lookup(key, generation, param_sig);
        let entry = match lookup {
            CacheLookup::Hit(entry) => entry,
            CacheLookup::Stale => {
                self.metrics.add(Metric::plan_cache_invalidations, 1);
                return Ok(Probe::Miss(generation));
            }
            CacheLookup::Absent => return Ok(Probe::Miss(generation)),
        };
        // A write re-pins its target for writing. EXPLAIN shares its
        // statement's entry, but EXPLAIN of a write only plans (its target
        // is read, not locked), and the parser admits no EXPLAIN of an
        // INSERT and no EXPLAIN ANALYZE of any write: those go on to the
        // parser for its error, and never run.
        let write = match (&entry.planned, render) {
            (Planned::Select(_), _) => None,
            (Planned::Write(dml), Render::Rows) => Some(dml.table.as_str()),
            (Planned::Write(dml), Render::Plan) if !dml.is_insert() => None,
            (Planned::Write(_), _) => return Ok(Probe::Miss(generation)),
        };
        self.metrics.add(Metric::plan_cache_hits, 1);
        let set = TableSet::for_plan(&registry, &entry.tables, write)?;
        Ok(Probe::Hit(entry, set))
    }

    /// Runs a plan-cache hit through the same replica guard, plan step
    /// and counters as a fresh plan, minus the SQL front end.
    fn run_cached(
        &self,
        sql: &str,
        entry: Arc<CachedPlan>,
        set: TableSet,
        ctx: &ExecCtx,
        render: Render,
    ) -> DbResult<StatementOutcome> {
        let kind = match &entry.planned {
            _ if render != Render::Rows => StatementKind::Explain,
            Planned::Select(_) => StatementKind::Select,
            Planned::Write(dml) => {
                // A SELECT hit takes no lock and makes no allocation here.
                self.check_writable()?;
                match dml.op {
                    DmlOp::Values(_) | DmlOp::Query { .. } => StatementKind::Insert,
                    DmlOp::Update { .. } => StatementKind::Update,
                    DmlOp::Delete { .. } => StatementKind::Delete,
                }
            }
        };
        let source = PlanSource::Cached(entry);
        let outcome = self.run_planned(sql, &set, ReadCut::Latest, source, ctx, render)?;
        self.metrics.record_statement(kind);
        Ok(outcome)
    }

    /// Plans and runs a parsed SELECT or write, bare or under EXPLAIN.
    fn run_fresh(
        &self,
        sql: &str,
        set: TableSet,
        stmt: Statement,
        binding: Binding<'_>,
        in_txn: bool,
        ctx: &ExecCtx,
    ) -> DbResult<StatementOutcome> {
        let (stmt, render) = match stmt {
            Statement::Explain { inner, analyze } => (*inner, Render::of(true, analyze)),
            stmt => (stmt, Render::Rows),
        };
        let cut = match &stmt {
            Statement::Select(sel) => self.read_cut(sel, in_txn, binding.params, ctx)?,
            _ if in_txn => return self.txn_write(sql, set, &stmt, binding.params, ctx),
            _ => ReadCut::Latest,
        };
        // The probe read the render off the text. Where the parse
        // disagrees (a comment before `EXPLAIN` hides it from the text
        // split), the plan is not filled: a later hit on that text would
        // take the text's render and run the write. A write is filled only
        // when it has parameters: literal writes rarely repeat, and each
        // would push a hot plan out of the cache.
        let cacheable = render == binding.render
            && (matches!(stmt, Statement::Select(_)) || !binding.param_sig.is_empty());
        let source = PlanSource::Fresh(&stmt, binding, cacheable);
        self.run_planned(sql, &set, cut, source, ctx, render)
    }

    /// The plan step every SELECT and autocommit write takes: pins `set`
    /// at `cut`, takes the cached plan or plans the statement, then
    /// renders the plan (EXPLAIN), runs the SELECT, or commits the
    /// write. A fresh plan at the Latest cut counts a plan-cache miss
    /// and, if the statement is cacheable, fills the cache once it ran.
    fn run_planned(
        &self,
        sql: &str,
        set: &TableSet,
        cut: ReadCut,
        source: PlanSource<'_>,
        ctx: &ExecCtx,
        render: Render,
    ) -> DbResult<StatementOutcome> {
        let started = Instant::now();
        let pinned = self.pin_cut(set, cut)?;
        let fresh = matches!(source, PlanSource::Fresh(..));
        let (entry, fill) = match source {
            PlanSource::Cached(entry) => (entry, None),
            PlanSource::Fresh(stmt, binding, cacheable) => {
                let latest = matches!(cut, ReadCut::Latest);
                if latest {
                    self.metrics.add(Metric::plan_cache_misses, 1);
                }
                let catalog = self.db.catalog.read();
                let planner = Planner::new(&catalog, &pinned, binding.params, ctx.clone());
                let entry = Arc::new(CachedPlan {
                    planned: planner.plan(stmt)?,
                    param_sig: binding.param_sig,
                    tables: set.table_keys(),
                    generation: binding.generation,
                });
                // EXPLAIN keys the cache by its statement's text, so it
                // warms (and reads) the same entry as the bare statement.
                let fill = (cacheable && latest && set.cacheable()).then_some(binding.key);
                (entry, fill)
            }
        };
        let outcome = match (&entry.planned, render) {
            (planned, Render::Plan) => plan_lines(vec![planned.describe()]),
            (Planned::Select(select), _) => {
                let profile =
                    (render == Render::Profile).then_some(if fresh { "fresh" } else { "cached" });
                self.run_select(sql, select, pinned, ctx, started, profile)?
            }
            (Planned::Write(_), Render::Profile) => {
                return Err(DbError::exec("EXPLAIN ANALYZE never runs a write"))
            }
            (Planned::Write(dml), Render::Rows) => {
                self.run_write(sql, dml, pinned, ctx, started)?
            }
        };
        if let Some(key) = fill {
            self.db.plan_cache.lock().insert(key.to_owned(), entry);
        }
        Ok(outcome)
    }

    /// The replica guard: a read-only node refuses writes, naming its
    /// primary. The replication applier's own session is exempt: shipped
    /// records are the primary's writes arriving.
    fn check_writable(&self) -> DbResult<()> {
        match self.db.read_only_primary() {
            Some(primary) if !self.repl_apply => Err(DbError::ReadOnly { primary }),
            _ => Ok(()),
        }
    }

    /// `SHOW STATS`: this session's counters and the node-wide gauges.
    fn show_stats(&self) -> StatementOutcome {
        let rows = self
            .metrics_snapshot()
            .rows()
            .into_iter()
            .map(|(metric, value)| {
                vec![
                    Value::Str(metric),
                    Value::Int(value.min(i64::MAX as u64) as i64),
                ]
            })
            .collect();
        StatementOutcome::Rows(QueryResult {
            columns: vec![
                ("metric".to_owned(), DataType::Str),
                ("value".to_owned(), DataType::Int),
            ],
            rows,
        })
    }
}

impl Session {
    /// Executes a statement expected to return rows.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.query_with_params(sql, &[])
    }

    /// Executes a parameterized statement expected to return rows.
    pub fn query_with_params(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<QueryResult> {
        match self.execute_with_params(sql, params)? {
            StatementOutcome::Rows(r) => Ok(r),
            other => Err(DbError::exec(format!(
                "statement produced {other:?}, not rows"
            ))),
        }
    }

    /// Renders a result set as an ASCII table (uses UDT display
    /// functions).
    pub fn format_result(&self, result: &QueryResult) -> String {
        format_result_with(&self.db.catalog.read(), result)
    }
}

fn table_not_found(key: &str) -> DbError {
    DbError::NotFound {
        kind: "table",
        name: key.to_owned(),
    }
}

/// A validated statement handle for repeat execution, from
/// [`Session::prepare`]. Holds no plan itself: execution goes through
/// the database-wide plan cache, so every session (and every remote
/// connection) preparing the same text shares one plan.
pub struct Prepared<'a> {
    session: &'a Session,
    sql: String,
}

impl Prepared<'_> {
    /// The statement text this handle was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Executes the statement with the given parameter values.
    pub fn execute(&self, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        self.session.execute_with_params(&self.sql, params)
    }

    /// Executes the statement, expecting rows back.
    pub fn query(&self, params: &[(&str, Value)]) -> DbResult<QueryResult> {
        self.session.query_with_params(&self.sql, params)
    }
}

/// What a plan-cache probe found.
enum Probe {
    /// A usable plan, with the tables it re-pins.
    Hit(Arc<CachedPlan>, TableSet),
    /// No usable plan: parse, and stamp a fresh plan with this DDL
    /// generation.
    Miss(u64),
}

/// A statement's parameters by lowercase name. Names match without
/// case, so two that differ only in case are one name given twice, and
/// are refused rather than one of them silently winning.
fn param_map(params: &[(&str, Value)]) -> DbResult<Option<Arc<HashMap<String, Value>>>> {
    if params.is_empty() {
        return Ok(None);
    }
    let map: HashMap<String, Value> = params
        .iter()
        .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
        .collect();
    if map.len() < params.len() {
        let dup = params
            .iter()
            .enumerate()
            .find(|(i, (k, _))| params[..*i].iter().any(|(p, _)| p.eq_ignore_ascii_case(k)))
            .map_or("", |(_, (k, _))| *k);
        return Err(DbError::binding(format!(
            "parameter :{dup} is given more than once"
        )));
    }
    Ok(Some(Arc::new(map)))
}

/// The sorted `(lowercase name, type)` signature of a parameter set —
/// what decides whether a cached plan (whose overloads were resolved
/// against these types) is reusable.
fn param_sig_of(params: Option<&Arc<HashMap<String, Value>>>) -> Vec<(String, DataType)> {
    let Some(map) = params else {
        return Vec::new();
    };
    let mut sig: Vec<(String, DataType)> = map
        .iter()
        .map(|(k, v)| (k.clone(), v.data_type()))
        .collect();
    sig.sort_by(|a, b| a.0.cmp(&b.0));
    sig
}

#[cfg(test)]
mod tests;
