//! Query observability: per-operator execution profiles backing
//! `EXPLAIN ANALYZE`, the session-level [`QueryMetrics`] registry backing
//! `SHOW STATS`, and the slow-query log hook.
//!
//! Two collection levels exist because they have very different costs:
//!
//! * **access-path accounting** ([`OpProfile::paths_only`]) records, once
//!   per scan open, which access path ran and how many rows it touched —
//!   no per-row work, so every ordinary `SELECT` pays for it;
//! * **full profiling** ([`OpProfile::timed`]) additionally wraps every
//!   operator stream to count `next_row` calls, rows produced, and
//!   cumulative wall time — only `EXPLAIN ANALYZE` pays for it.
//!
//! Reported operator times are *inclusive*: an operator's clock runs
//! while its children produce rows for it, so a parent is always at
//! least as expensive as each child.

use crate::plan::Plan;
use crate::session::Database;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a [`Plan::Scan`] accessed its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Whole-table scan.
    FullScan,
    /// B-tree equality lookup.
    IndexEq,
    /// B-tree range probe.
    IndexRange,
    /// Bucketed interval-index overlap probe.
    IndexOverlap,
}

impl AccessPath {
    /// Stable lowercase label used in EXPLAIN ANALYZE output.
    pub fn label(self) -> &'static str {
        match self {
            AccessPath::FullScan => "full-scan",
            AccessPath::IndexEq => "index-eq",
            AccessPath::IndexRange => "index-range",
            AccessPath::IndexOverlap => "index-overlap",
        }
    }
}

/// Runtime counters for one plan operator, arranged in a tree mirroring
/// the plan shape. Uses `Cell`s: execution is single-threaded and the
/// profile is threaded through operators as a shared borrow.
#[derive(Debug)]
pub struct OpProfile {
    label: String,
    timed: bool,
    rows: Cell<u64>,
    calls: Cell<u64>,
    batches: Cell<u64>,
    nanos: Cell<u64>,
    rows_scanned: Cell<u64>,
    access: Cell<Option<AccessPath>>,
    children: Vec<OpProfile>,
}

impl OpProfile {
    fn for_plan(plan: &Plan, timed: bool) -> OpProfile {
        let children = match plan {
            Plan::Nothing | Plan::Scan { .. } => Vec::new(),
            Plan::HashJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
                vec![
                    OpProfile::for_plan(left, timed),
                    OpProfile::for_plan(right, timed),
                ]
            }
            Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Take { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Offset { input, .. } => vec![OpProfile::for_plan(input, timed)],
            Plan::Union { inputs } => inputs
                .iter()
                .map(|p| OpProfile::for_plan(p, timed))
                .collect(),
        };
        OpProfile {
            label: plan.node_label(),
            timed,
            rows: Cell::new(0),
            calls: Cell::new(0),
            batches: Cell::new(0),
            nanos: Cell::new(0),
            rows_scanned: Cell::new(0),
            access: Cell::new(None),
            children,
        }
    }

    /// A fully instrumented profile for `EXPLAIN ANALYZE`: rows, calls,
    /// and wall time per operator.
    pub fn timed(plan: &Plan) -> OpProfile {
        OpProfile::for_plan(plan, true)
    }

    /// A lightweight profile recording only scan access paths and rows
    /// scanned (no per-row timing cost); feeds [`QueryMetrics`].
    pub fn paths_only(plan: &Plan) -> OpProfile {
        OpProfile::for_plan(plan, false)
    }

    /// Whether streams opened against this profile should be wrapped in
    /// timing instrumentation.
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// The child profile at `i` (mirrors the plan's child order).
    ///
    /// # Panics
    /// Panics if `i` is out of range — the profile tree is built from the
    /// same plan that execution walks, so a mismatch is an engine bug.
    pub fn child(&self, i: usize) -> &OpProfile {
        &self.children[i]
    }

    /// Operator label (e.g. `ixscan(t)[f]`, `hashjoin`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Rows this operator produced.
    pub fn rows(&self) -> u64 {
        self.rows.get()
    }

    /// Pulls made against this operator, the final exhausted one
    /// included.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Column batches this operator produced.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Cumulative wall time (inclusive of children).
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.get())
    }

    /// Rows the scan touched before filtering (scan nodes only).
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.get()
    }

    /// The access path a scan node used (scan nodes only).
    pub fn access_path(&self) -> Option<AccessPath> {
        self.access.get()
    }

    pub(crate) fn record_call(&self, nanos: u64) {
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + nanos);
    }

    pub(crate) fn record_batch(&self, rows: u64) {
        self.batches.set(self.batches.get() + 1);
        self.rows.set(self.rows.get() + rows);
    }

    pub(crate) fn record_open_nanos(&self, nanos: u64) {
        self.nanos.set(self.nanos.get() + nanos);
    }

    pub(crate) fn record_scan(&self, path: AccessPath, rows_scanned: u64) {
        self.access.set(Some(path));
        self.rows_scanned
            .set(self.rows_scanned.get() + rows_scanned);
    }

    /// Renders the profile as an indented tree, one line per operator:
    ///
    /// ```text
    /// project  rows=2 calls=2 batches=1 rows/batch=2 time=41.2µs
    ///   ivscan(p)[f]  rows=2 calls=2 batches=1 rows/batch=2 time=35.0µs scanned=17 path=index-overlap
    /// ```
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let mut line = format!(
            "{:indent$}{}  rows={} calls={}",
            "",
            self.label,
            self.rows.get(),
            self.calls.get(),
            indent = depth * 2
        );
        // How many column batches the operator emitted and their average
        // fill; an operator that produced nothing has neither.
        let batches = self.batches.get();
        if batches > 0 {
            line.push_str(&format!(
                " batches={} rows/batch={}",
                batches,
                self.rows.get().div_ceil(batches)
            ));
        }
        if self.timed {
            line.push_str(&format!(" time={}", fmt_duration(self.elapsed())));
        }
        if let Some(path) = self.access.get() {
            line.push_str(&format!(
                " scanned={} path={}",
                self.rows_scanned.get(),
                path.label()
            ));
        }
        out.push(line);
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Folds every scan node's access-path counters (and any vectorized
    /// batch counts) into `metrics`.
    pub fn charge_scans(&self, metrics: &QueryMetrics) {
        if let Some(path) = self.access.get() {
            metrics.record_scan(path, self.rows_scanned.get());
        }
        let batches = self.batches.get();
        if batches > 0 {
            metrics.add(Metric::vectorized_batches, batches);
        }
        for c in &self.children {
            c.charge_scans(metrics);
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// The statement kinds [`QueryMetrics`] tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    Select,
    Insert,
    Update,
    Delete,
    Ddl,
    Explain,
    ShowStats,
    /// `BEGIN`/`COMMIT`/`ROLLBACK` — tallied in the `txn.*` counters,
    /// not in `statements.*`.
    Txn,
}

/// Number of log2 latency buckets: bucket `i` counts statements whose
/// latency was in `[2^i, 2^(i+1))` microseconds; the last bucket is
/// open-ended.
pub const LATENCY_BUCKETS: usize = 22;

/// Log2 bucket index for a latency: bucket `i` holds `[2^i, 2^(i+1))`
/// microseconds, sub-µs goes in 0, and the last bucket is open-ended.
fn latency_bucket(elapsed: Duration) -> usize {
    let micros = elapsed.as_micros() as u64;
    (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// Merge rule `sum`: per-session counters add up across sessions.
/// Saturating, so a hostile peer cannot make aggregation overflow.
fn sum(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}

/// Merge rule `max`: every snapshot of one node reads the same
/// node-wide value, so aggregating must not multiply it.
fn max(a: u64, b: u64) -> u64 {
    a.max(b)
}

/// The node-wide state the table's `= n => …` sources read, gathered
/// once per snapshot.
struct Node<'a> {
    db: &'a Database,
    wal: crate::wal::WalStatsSnapshot,
    repl: crate::repl::ReplSnapshot,
    pool: crate::storage::pages::PoolStatsSnapshot,
}

/// Generates everything that enumerates the metrics from the one table
/// below: the counter index, [`MetricsSnapshot`], and its snapshot /
/// merge / `SHOW STATS` / wire renderings.
macro_rules! metric_table {
    ($(
        $(@$hist:ident;)?
        $(#[$doc:meta])*
        $field:ident $name:literal $merge:ident $div:literal $(= $n:ident => $node:expr)?;
    )*) => {
        /// One variant per table row, named as its snapshot field: what
        /// [`QueryMetrics::add`] bumps.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        pub(crate) enum Metric {
            $($field,)*
        }

        const METRIC_COUNT: usize = [$(Metric::$field),*].len();

        /// A point-in-time copy of a session's [`QueryMetrics`], with
        /// the node-wide rows filled in by
        /// [`MetricsSnapshot::with_node_gauges`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
            pub latency_buckets: [u64; LATENCY_BUCKETS],
        }

        impl QueryMetrics {
            /// Point-in-time copy of this session's counters; the
            /// node-wide rows stay zero.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
                MetricsSnapshot {
                    $($field: g(&self.counters[Metric::$field as usize]),)*
                    latency_buckets: std::array::from_fn(|i| g(&self.latency_buckets[i])),
                }
            }
        }

        impl MetricsSnapshot {
            /// Folds another snapshot into this one by each row's merge
            /// rule — the server aggregates its sessions this way.
            pub fn absorb(&mut self, other: &MetricsSnapshot) {
                $(self.$field = $merge(self.$field, other.$field);)*
                for (a, b) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
                    *a = sum(*a, *b);
                }
            }

            /// Fills the node-wide rows from `db` as of now. Session
            /// counters plus these are the one snapshot `SHOW STATS`
            /// and the METRICS frame both render.
            pub fn with_node_gauges(mut self, db: &Database) -> MetricsSnapshot {
                let node = Node {
                    db,
                    wal: db.wal_stats(),
                    repl: db.repl_stats().snapshot(),
                    pool: db.bufpool_stats(),
                };
                $($({
                    let $n = &node;
                    self.$field = $node;
                })?)*
                self
            }

            /// The snapshot as `(metric, value)` rows — the body of
            /// `SHOW STATS`. Latency buckets are collapsed to non-empty
            /// ones.
            pub fn rows(&self) -> Vec<(String, u64)> {
                let mut out = Vec::with_capacity(METRIC_COUNT + LATENCY_BUCKETS);
                $(
                    $(for (i, &n) in self.$hist.iter().enumerate() {
                        if n > 0 {
                            let lo = 1u64 << i;
                            out.push((format!("latency.us[{lo}..{})", lo * 2), n));
                        }
                    })?
                    out.push(($name.to_owned(), self.$field / $div));
                )*
                out
            }

            /// Every row as `(field name, raw value)` — what a METRICS
            /// frame carries.
            pub fn fields(&self) -> [(&'static str, u64); METRIC_COUNT] {
                [$((stringify!($field), self.$field)),*]
            }

            /// Sets the row called `field`; a name this build has no row
            /// for (a newer peer's metric) is ignored.
            pub fn set_field(&mut self, field: &str, value: u64) {
                match field {
                    $(stringify!($field) => self.$field = value,)*
                    _ => {}
                }
            }
        }
    };
}

// The one place a metric is declared. Columns: snapshot field, `SHOW
// STATS` name, merge rule across snapshots (`sum` | `max`), divisor
// applied for `SHOW STATS` only, and — for node-wide rows — where the
// value is read from at snapshot time. A row without a source is a
// session counter: it owns an atomic in `QueryMetrics`, bumped through
// `QueryMetrics::add`. Rows appear in `SHOW STATS` order. To add a
// metric, add its row here and the line that bumps it (or the `Node`
// expression that reads it); nothing else lists metrics.
metric_table! {
    selects                  "statements.select"        sum 1;
    inserts                  "statements.insert"        sum 1;
    updates                  "statements.update"        sum 1;
    deletes                  "statements.delete"        sum 1;
    ddl                      "statements.ddl"           sum 1;
    explains                 "statements.explain"       sum 1;
    errors                   "statements.error"         sum 1;
    full_scans               "scans.full"               sum 1;
    index_eq_scans           "scans.index_eq"           sum 1;
    index_range_scans        "scans.index_range"        sum 1;
    index_overlap_scans      "scans.index_overlap"      sum 1;
    rows_scanned             "rows.scanned"             sum 1;
    rows_returned            "rows.returned"            sum 1;
    rows_affected            "rows.affected"            sum 1;
    /// Column batches emitted by batch operators.
    vectorized_batches       "exec.batches"             sum 1;
    select_nanos             "select.total_micros"      sum 1_000;
    dml_nanos                "dml.total_micros"         sum 1_000;
    slow_queries             "select.slow"              sum 1;
    lock_wait_nanos          "lock.wait_micros"         sum 1_000;
    tables_pinned            "lock.tables_pinned"       sum 1;
    plan_cache_hits          "plan_cache.hits"          sum 1;
    plan_cache_misses        "plan_cache.misses"        sum 1;
    plan_cache_invalidations "plan_cache.invalidations" sum 1;
    /// Gauge: plans in the database-wide cache right now.
    plan_cache_entries       "plan_cache.entries"       max 1 = n => n.db.plan_cache_len() as u64;
    txn_begun                "txn.begun"                sum 1;
    txn_committed            "txn.committed"            sum 1;
    txn_rolled_back          "txn.rolled_back"          sum 1;

    // The latency histogram's `SHOW STATS` rows sit here, between the
    // session counters and the node-wide sections.
    @latency_buckets;
    /// WAL counters; all zero on an in-memory database.
    wal_appends              "wal.appends"              max 1 = n => n.wal.appends;
    wal_bytes                "wal.bytes"                max 1 = n => n.wal.bytes;
    wal_commits              "wal.commits"              max 1 = n => n.wal.commits;
    wal_fsyncs               "wal.fsyncs"               max 1 = n => n.wal.fsyncs;
    wal_group_commit_batch   "wal.group_commit_batch"   max 1 = n => n.wal.group_commit_batch;
    wal_replayed             "wal.replayed"             max 1 = n => n.wal.replayed;
    wal_checkpoints          "wal.checkpoints"          max 1 = n => n.wal.checkpoints;
    wal_recovery_micros      "wal.recovery_micros"      max 1 = n => n.wal.recovery_micros;
    /// Gauge: table versions retained across all version chains.
    mvcc_versions            "mvcc.versions"            max 1 = n => n.db.mvcc_versions();
    /// Gauge: snapshot pins currently registered.
    mvcc_snapshots_pinned    "mvcc.snapshots_pinned"    max 1 = n => n.db.snapshots_pinned();
    /// The configured retention window, in commits.
    mvcc_retention           "mvcc.retention"           max 1 = n => n.db.mvcc_retention();
    /// Replication counters; all zero on a node that neither ships nor
    /// applies WAL chunks.
    repl_chunks_shipped      "repl.chunks_shipped"      max 1 = n => n.repl.chunks_shipped;
    repl_bytes_shipped       "repl.bytes_shipped"       max 1 = n => n.repl.bytes_shipped;
    /// Gauge: worst per-replica apply lag in commit sequences (primary).
    repl_apply_lag_seq       "repl.apply_lag_seq"       max 1 = n => n.repl.apply_lag_seq;
    repl_reconnects          "repl.reconnects"          max 1 = n => n.repl.reconnects;
    /// Gauge: newest commit sequence known applied on this node. On a
    /// primary that is its own durable frontier — clients use it as the
    /// read-your-writes floor when fanning reads across replicas.
    repl_last_seq            "repl.last_seq"            max 1
        = n => n.repl.last_seq.max(n.db.wal_progress().map_or(0, |p| p.seq));
    /// Buffer-pool counters; all zero on an in-memory database.
    bufpool_hits             "bufpool.hits"             max 1 = n => n.pool.hits;
    bufpool_misses           "bufpool.misses"           max 1 = n => n.pool.misses;
    bufpool_evictions        "bufpool.evictions"        max 1 = n => n.pool.evictions;
    bufpool_writebacks       "bufpool.writebacks"       max 1 = n => n.pool.writebacks;
    /// Gauge: pages currently resident in the buffer pool.
    bufpool_pages            "bufpool.pages"            max 1 = n => n.pool.pages;
}

/// Session-level query statistics. All counters are atomics, so a
/// `SHOW STATS` from one thread can observe a session driven elsewhere
/// through an `Arc` handle without locks. One slot per table row keeps
/// indexing trivial; the node-wide rows' slots are never written.
#[derive(Debug)]
pub struct QueryMetrics {
    counters: [AtomicU64; METRIC_COUNT],
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for QueryMetrics {
    fn default() -> QueryMetrics {
        QueryMetrics {
            counters: [const { AtomicU64::new(0) }; METRIC_COUNT],
            latency_buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
        }
    }
}

impl QueryMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Arc<QueryMetrics> {
        Arc::new(QueryMetrics::default())
    }

    /// Adds `n` to one session counter.
    pub(crate) fn add(&self, m: Metric, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// One tick in the shared latency histogram.
    fn observe_latency(&self, elapsed: Duration) {
        self.latency_buckets[latency_bucket(elapsed)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_statement(&self, kind: StatementKind) {
        let m = match kind {
            StatementKind::Select => Metric::selects,
            StatementKind::Insert => Metric::inserts,
            StatementKind::Update => Metric::updates,
            StatementKind::Delete => Metric::deletes,
            StatementKind::Ddl => Metric::ddl,
            StatementKind::Explain => Metric::explains,
            StatementKind::ShowStats => return, // reading stats is free
            StatementKind::Txn => return,       // tallied via the txn.* counters
        };
        self.add(m, 1);
    }

    pub(crate) fn record_scan(&self, path: AccessPath, rows_scanned: u64) {
        let m = match path {
            AccessPath::FullScan => Metric::full_scans,
            AccessPath::IndexEq => Metric::index_eq_scans,
            AccessPath::IndexRange => Metric::index_range_scans,
            AccessPath::IndexOverlap => Metric::index_overlap_scans,
        };
        self.add(m, 1);
        self.add(Metric::rows_scanned, rows_scanned);
    }

    pub(crate) fn record_select(&self, rows_returned: u64, elapsed: Duration) {
        self.add(Metric::rows_returned, rows_returned);
        self.add(Metric::select_nanos, elapsed.as_nanos() as u64);
        self.observe_latency(elapsed);
    }

    /// One INSERT/UPDATE/DELETE: affected rows, execution time, and a
    /// tick in the shared latency histogram.
    pub(crate) fn record_dml(&self, rows_affected: u64, elapsed: Duration) {
        self.add(Metric::rows_affected, rows_affected);
        self.add(Metric::dml_nanos, elapsed.as_nanos() as u64);
        self.observe_latency(elapsed);
    }

    /// One statement's table-pin accounting: how many tables it pinned
    /// and how long it was blocked acquiring their locks.
    pub(crate) fn record_lock_wait(&self, tables: u64, wait: Duration) {
        self.add(Metric::tables_pinned, tables);
        self.add(Metric::lock_wait_nanos, wait.as_nanos() as u64);
    }
}

impl MetricsSnapshot {
    /// Total statements of any kind (errors not included).
    pub fn statements(&self) -> u64 {
        self.selects + self.inserts + self.updates + self.deletes + self.ddl + self.explains
    }

    /// Scans that used any index, of any kind.
    pub fn index_scans(&self) -> u64 {
        self.index_eq_scans + self.index_range_scans + self.index_overlap_scans
    }

    /// Fraction of scans served by an index, if any scan ran.
    pub fn index_hit_rate(&self) -> Option<f64> {
        let total = self.index_scans() + self.full_scans;
        (total > 0).then(|| self.index_scans() as f64 / total as f64)
    }
}

/// What the slow-query log hook receives for each statement at or over
/// the configured threshold.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The statement text as submitted.
    pub sql: String,
    /// Wall time spent planning and executing it.
    pub elapsed: Duration,
    /// Rows it returned (SELECT) or affected (INSERT/UPDATE/DELETE).
    pub rows: u64,
    /// Physical plan shape (`Plan::describe`).
    pub plan: String,
}

/// Callback invoked for statements slower than the session's threshold.
pub type SlowQueryLogger = Arc<dyn Fn(&SlowQuery) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_bucketing() {
        let m = QueryMetrics::default();
        m.record_select(1, Duration::from_micros(0)); // sub-µs → bucket 0
        m.record_select(1, Duration::from_micros(1)); // bucket 0
        m.record_select(1, Duration::from_micros(3)); // bucket 1
        m.record_select(1, Duration::from_micros(900)); // bucket 9
        m.record_select(1, Duration::from_secs(3600)); // clamps to last
        let s = m.snapshot();
        assert_eq!(s.latency_buckets[0], 2);
        assert_eq!(s.latency_buckets[1], 1);
        assert_eq!(s.latency_buckets[9], 1);
        assert_eq!(s.latency_buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.rows_returned, 5);
    }

    #[test]
    fn index_hit_rate() {
        let m = QueryMetrics::default();
        assert_eq!(m.snapshot().index_hit_rate(), None);
        m.record_scan(AccessPath::IndexEq, 10);
        m.record_scan(AccessPath::FullScan, 100);
        m.record_scan(AccessPath::IndexOverlap, 5);
        m.record_scan(AccessPath::IndexRange, 7);
        let s = m.snapshot();
        assert_eq!(s.index_scans(), 3);
        assert_eq!(s.index_hit_rate(), Some(0.75));
        assert_eq!(s.rows_scanned, 122);
    }

    #[test]
    fn snapshot_rows_name_every_counter_group() {
        let m = QueryMetrics::default();
        m.record_statement(StatementKind::Select);
        m.record_scan(AccessPath::FullScan, 4);
        m.record_select(4, Duration::from_micros(10));
        let rows = m.snapshot().rows();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"statements.select"));
        assert!(names.contains(&"scans.full"));
        assert!(names.contains(&"rows.scanned"));
        assert!(names.iter().any(|n| n.starts_with("latency.us[")));
    }

    #[test]
    fn absorb_sums_every_counter() {
        let a = QueryMetrics::default();
        a.record_statement(StatementKind::Select);
        a.record_scan(AccessPath::IndexEq, 3);
        a.record_select(2, Duration::from_micros(5));
        let b = QueryMetrics::default();
        b.record_statement(StatementKind::Insert);
        b.record_statement(StatementKind::Select);
        b.record_scan(AccessPath::FullScan, 10);
        b.record_select(7, Duration::from_micros(40));
        b.add(Metric::errors, 1);

        let mut total = MetricsSnapshot::default();
        total.absorb(&a.snapshot());
        total.absorb(&b.snapshot());
        assert_eq!(total.selects, 2);
        assert_eq!(total.inserts, 1);
        assert_eq!(total.errors, 1);
        assert_eq!(total.rows_scanned, 13);
        assert_eq!(total.rows_returned, 9);
        assert_eq!(total.statements(), 3);
        assert_eq!(
            total.latency_buckets.iter().sum::<u64>(),
            a.snapshot().latency_buckets.iter().sum::<u64>()
                + b.snapshot().latency_buckets.iter().sum::<u64>()
        );
    }

    #[test]
    fn dml_and_lock_wait_counters_flow_to_rows_and_absorb() {
        let m = QueryMetrics::default();
        m.record_dml(7, Duration::from_micros(3)); // bucket 1
        m.record_lock_wait(2, Duration::from_micros(2500));
        let s = m.snapshot();
        assert_eq!(s.rows_affected, 7);
        assert_eq!(s.dml_nanos, 3_000);
        assert_eq!(s.lock_wait_nanos, 2_500_000);
        assert_eq!(s.tables_pinned, 2);
        assert_eq!(s.latency_buckets[1], 1, "DML feeds the shared histogram");

        let names: Vec<(String, u64)> = s.rows();
        let get = |n: &str| names.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("rows.affected"), Some(7));
        assert_eq!(get("dml.total_micros"), Some(3));
        assert_eq!(get("lock.wait_micros"), Some(2_500));
        assert_eq!(get("lock.tables_pinned"), Some(2));

        let mut total = MetricsSnapshot::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.rows_affected, 14);
        assert_eq!(total.lock_wait_nanos, 5_000_000);
        assert_eq!(total.tables_pinned, 4);
    }

    #[test]
    fn node_rows_absorb_as_gauges() {
        // Two snapshots of the same node must not double its node-wide
        // rows when aggregated.
        let a = MetricsSnapshot {
            wal_appends: 10,
            repl_last_seq: 37,
            plan_cache_entries: 3,
            ..MetricsSnapshot::default()
        };
        let mut total = MetricsSnapshot::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total, a);
    }

    #[test]
    fn node_gauges_are_read_from_the_database() {
        let db = Database::new();
        db.set_mvcc_retention(5);
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("SELECT a FROM t").unwrap();
        let bare = s.metrics().snapshot();
        assert_eq!((bare.plan_cache_entries, bare.mvcc_retention), (0, 0));
        let full = bare.clone().with_node_gauges(&db);
        assert_eq!(full.plan_cache_entries, db.plan_cache_len() as u64);
        assert_eq!(full.plan_cache_entries, 1);
        assert_eq!(full.mvcc_retention, 5);
        assert_eq!(full.selects, bare.selects);
    }

    #[test]
    fn every_row_round_trips_through_its_field_name() {
        let mut m = MetricsSnapshot::default();
        let names: Vec<&str> = m.fields().iter().map(|(n, _)| *n).collect();
        for (i, name) in names.iter().enumerate() {
            m.set_field(name, i as u64 + 1);
        }
        m.set_field("no_such_metric", 9);
        let values: Vec<u64> = m.fields().iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=names.len() as u64).collect::<Vec<_>>());
        assert_eq!(m.rows().len(), names.len(), "one SHOW STATS row per field");
    }

    #[test]
    fn absorb_saturates_instead_of_overflowing() {
        let mut a = MetricsSnapshot {
            selects: u64::MAX - 1,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            selects: 5,
            ..MetricsSnapshot::default()
        };
        a.absorb(&b);
        assert_eq!(a.selects, u64::MAX);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(15)), "15.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
