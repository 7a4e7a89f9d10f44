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
            metrics.record_batches(batches);
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

/// Session-level query statistics. All counters are atomics, so a
/// `SHOW STATS` from one thread can observe a session driven elsewhere
/// through an `Arc` handle without locks.
#[derive(Debug, Default)]
pub struct QueryMetrics {
    selects: AtomicU64,
    inserts: AtomicU64,
    updates: AtomicU64,
    deletes: AtomicU64,
    ddl: AtomicU64,
    explains: AtomicU64,
    errors: AtomicU64,

    full_scans: AtomicU64,
    index_eq_scans: AtomicU64,
    index_range_scans: AtomicU64,
    index_overlap_scans: AtomicU64,

    rows_scanned: AtomicU64,
    rows_returned: AtomicU64,
    rows_affected: AtomicU64,
    /// Column batches emitted by vectorized operators. Session-local
    /// observability only — deliberately NOT part of the METRICS wire
    /// frame (adding it would bump the protocol metrics version).
    vectorized_batches: AtomicU64,

    select_nanos: AtomicU64,
    dml_nanos: AtomicU64,
    slow_queries: AtomicU64,
    lock_wait_nanos: AtomicU64,
    tables_pinned: AtomicU64,

    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_invalidations: AtomicU64,
    /// Gauge (not a counter): the shared cache's current entry count as
    /// of the last statement that touched it.
    plan_cache_entries: AtomicU64,

    txn_begun: AtomicU64,
    txn_committed: AtomicU64,
    txn_rolled_back: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// Log2 bucket index for a latency: bucket `i` holds `[2^i, 2^(i+1))`
/// microseconds, sub-µs goes in 0, and the last bucket is open-ended.
fn latency_bucket(elapsed: Duration) -> usize {
    let micros = elapsed.as_micros() as u64;
    (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

impl QueryMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Arc<QueryMetrics> {
        Arc::new(QueryMetrics::default())
    }

    pub(crate) fn record_statement(&self, kind: StatementKind) {
        let c = match kind {
            StatementKind::Select => &self.selects,
            StatementKind::Insert => &self.inserts,
            StatementKind::Update => &self.updates,
            StatementKind::Delete => &self.deletes,
            StatementKind::Ddl => &self.ddl,
            StatementKind::Explain => &self.explains,
            StatementKind::ShowStats => return, // reading stats is free
            StatementKind::Txn => return,       // tallied via the txn.* counters
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_scan(&self, path: AccessPath, rows_scanned: u64) {
        let c = match path {
            AccessPath::FullScan => &self.full_scans,
            AccessPath::IndexEq => &self.index_eq_scans,
            AccessPath::IndexRange => &self.index_range_scans,
            AccessPath::IndexOverlap => &self.index_overlap_scans,
        };
        c.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows_scanned, Ordering::Relaxed);
    }

    pub(crate) fn record_batches(&self, batches: u64) {
        self.vectorized_batches
            .fetch_add(batches, Ordering::Relaxed);
    }

    pub(crate) fn record_select(&self, rows_returned: u64, elapsed: Duration) {
        self.rows_returned
            .fetch_add(rows_returned, Ordering::Relaxed);
        self.select_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.latency_buckets[latency_bucket(elapsed)].fetch_add(1, Ordering::Relaxed);
    }

    /// One INSERT/UPDATE/DELETE: affected rows, execution time, and a
    /// tick in the shared latency histogram.
    pub(crate) fn record_dml(&self, rows_affected: u64, elapsed: Duration) {
        self.rows_affected
            .fetch_add(rows_affected, Ordering::Relaxed);
        self.dml_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.latency_buckets[latency_bucket(elapsed)].fetch_add(1, Ordering::Relaxed);
    }

    /// One statement's table-pin accounting: how many tables it pinned
    /// and how long it was blocked acquiring their locks.
    pub(crate) fn record_lock_wait(&self, tables: u64, wait: Duration) {
        self.tables_pinned.fetch_add(tables, Ordering::Relaxed);
        self.lock_wait_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// One SELECT served straight from the shared plan cache.
    pub(crate) fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One SELECT that had to run the full front end (parse/bind/plan).
    pub(crate) fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One cached plan evicted because the DDL generation moved on.
    pub(crate) fn record_plan_cache_invalidation(&self) {
        self.plan_cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the cache-size gauge.
    pub(crate) fn set_plan_cache_entries(&self, entries: u64) {
        self.plan_cache_entries.store(entries, Ordering::Relaxed);
    }

    /// One `BEGIN` that opened a transaction.
    pub(crate) fn record_txn_begun(&self) {
        self.txn_begun.fetch_add(1, Ordering::Relaxed);
    }

    /// One `COMMIT` that made a transaction's writes visible.
    pub(crate) fn record_txn_committed(&self) {
        self.txn_committed.fetch_add(1, Ordering::Relaxed);
    }

    /// One transaction discarded by `ROLLBACK` (or aborted).
    pub(crate) fn record_txn_rolled_back(&self) {
        self.txn_rolled_back.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            selects: g(&self.selects),
            inserts: g(&self.inserts),
            updates: g(&self.updates),
            deletes: g(&self.deletes),
            ddl: g(&self.ddl),
            explains: g(&self.explains),
            errors: g(&self.errors),
            full_scans: g(&self.full_scans),
            index_eq_scans: g(&self.index_eq_scans),
            index_range_scans: g(&self.index_range_scans),
            index_overlap_scans: g(&self.index_overlap_scans),
            rows_scanned: g(&self.rows_scanned),
            rows_returned: g(&self.rows_returned),
            rows_affected: g(&self.rows_affected),
            vectorized_batches: g(&self.vectorized_batches),
            select_nanos: g(&self.select_nanos),
            dml_nanos: g(&self.dml_nanos),
            slow_queries: g(&self.slow_queries),
            lock_wait_nanos: g(&self.lock_wait_nanos),
            tables_pinned: g(&self.tables_pinned),
            plan_cache_hits: g(&self.plan_cache_hits),
            plan_cache_misses: g(&self.plan_cache_misses),
            plan_cache_invalidations: g(&self.plan_cache_invalidations),
            plan_cache_entries: g(&self.plan_cache_entries),
            txn_begun: g(&self.txn_begun),
            txn_committed: g(&self.txn_committed),
            txn_rolled_back: g(&self.txn_rolled_back),
            // WAL counters live on the database, not the session; the
            // server overlays them via `overlay_wal` when encoding. The
            // MVCC gauges likewise come from `overlay_mvcc`.
            wal_appends: 0,
            wal_bytes: 0,
            wal_fsyncs: 0,
            wal_group_commit_batch: 0,
            wal_replayed: 0,
            wal_checkpoints: 0,
            mvcc_versions: 0,
            mvcc_snapshots_pinned: 0,
            repl_chunks_shipped: 0,
            repl_bytes_shipped: 0,
            repl_apply_lag_seq: 0,
            repl_reconnects: 0,
            repl_last_seq: 0,
            bufpool_hits: 0,
            bufpool_misses: 0,
            bufpool_evictions: 0,
            bufpool_writebacks: 0,
            bufpool_pages: 0,
            latency_buckets: std::array::from_fn(|i| g(&self.latency_buckets[i])),
        }
    }
}

/// A point-in-time copy of a session's [`QueryMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub selects: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub ddl: u64,
    pub explains: u64,
    pub errors: u64,
    pub full_scans: u64,
    pub index_eq_scans: u64,
    pub index_range_scans: u64,
    pub index_overlap_scans: u64,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    pub rows_affected: u64,
    /// Column batches emitted by vectorized operators (session-local;
    /// not carried on the METRICS wire frame).
    pub vectorized_batches: u64,
    pub select_nanos: u64,
    pub dml_nanos: u64,
    pub slow_queries: u64,
    pub lock_wait_nanos: u64,
    pub tables_pinned: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub plan_cache_invalidations: u64,
    /// Gauge: current size of the (database-wide) plan cache.
    pub plan_cache_entries: u64,
    pub txn_begun: u64,
    pub txn_committed: u64,
    pub txn_rolled_back: u64,
    /// WAL counters, overlaid from the database's durability layer (see
    /// [`MetricsSnapshot::overlay_wal`]); all zero on in-memory
    /// databases and on sessions that never overlaid them.
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_group_commit_batch: u64,
    pub wal_replayed: u64,
    pub wal_checkpoints: u64,
    /// Gauge: table versions currently retained across all version
    /// chains (database-wide; overlaid via
    /// [`MetricsSnapshot::overlay_mvcc`]).
    pub mvcc_versions: u64,
    /// Gauge: snapshot pins currently registered (database-wide).
    pub mvcc_snapshots_pinned: u64,
    /// Replication counters/gauges, overlaid from the database's
    /// [`crate::repl::ReplStats`] (see [`MetricsSnapshot::overlay_repl`]);
    /// all zero on nodes that neither ship nor apply WAL chunks.
    pub repl_chunks_shipped: u64,
    pub repl_bytes_shipped: u64,
    /// Gauge: worst per-replica apply lag in commit sequences (primary).
    pub repl_apply_lag_seq: u64,
    pub repl_reconnects: u64,
    /// Gauge: newest commit sequence known applied on this node.
    pub repl_last_seq: u64,
    /// Buffer-pool counters, overlaid from the database's paged store
    /// (see [`MetricsSnapshot::overlay_bufpool`]); all zero on
    /// in-memory databases.
    pub bufpool_hits: u64,
    pub bufpool_misses: u64,
    pub bufpool_evictions: u64,
    pub bufpool_writebacks: u64,
    /// Gauge: pages currently resident in the buffer pool.
    pub bufpool_pages: u64,
    pub latency_buckets: [u64; LATENCY_BUCKETS],
}

impl MetricsSnapshot {
    /// Folds another session's counters into this snapshot — the server
    /// uses this to aggregate per-session observability counters across
    /// all live connections. Saturating, so a hostile peer cannot make
    /// aggregation itself overflow.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.selects, other.selects);
        add(&mut self.inserts, other.inserts);
        add(&mut self.updates, other.updates);
        add(&mut self.deletes, other.deletes);
        add(&mut self.ddl, other.ddl);
        add(&mut self.explains, other.explains);
        add(&mut self.errors, other.errors);
        add(&mut self.full_scans, other.full_scans);
        add(&mut self.index_eq_scans, other.index_eq_scans);
        add(&mut self.index_range_scans, other.index_range_scans);
        add(&mut self.index_overlap_scans, other.index_overlap_scans);
        add(&mut self.rows_scanned, other.rows_scanned);
        add(&mut self.rows_returned, other.rows_returned);
        add(&mut self.rows_affected, other.rows_affected);
        add(&mut self.vectorized_batches, other.vectorized_batches);
        add(&mut self.select_nanos, other.select_nanos);
        add(&mut self.dml_nanos, other.dml_nanos);
        add(&mut self.slow_queries, other.slow_queries);
        add(&mut self.lock_wait_nanos, other.lock_wait_nanos);
        add(&mut self.tables_pinned, other.tables_pinned);
        add(&mut self.plan_cache_hits, other.plan_cache_hits);
        add(&mut self.plan_cache_misses, other.plan_cache_misses);
        add(
            &mut self.plan_cache_invalidations,
            other.plan_cache_invalidations,
        );
        add(&mut self.txn_begun, other.txn_begun);
        add(&mut self.txn_committed, other.txn_committed);
        add(&mut self.txn_rolled_back, other.txn_rolled_back);
        // Every session gauges the same shared cache: max, not sum.
        self.plan_cache_entries = self.plan_cache_entries.max(other.plan_cache_entries);
        // WAL counters are database-wide (one WAL per database), so
        // aggregating across sessions must not multiply them: max.
        self.wal_appends = self.wal_appends.max(other.wal_appends);
        self.wal_bytes = self.wal_bytes.max(other.wal_bytes);
        self.wal_fsyncs = self.wal_fsyncs.max(other.wal_fsyncs);
        self.wal_group_commit_batch = self
            .wal_group_commit_batch
            .max(other.wal_group_commit_batch);
        self.wal_replayed = self.wal_replayed.max(other.wal_replayed);
        self.wal_checkpoints = self.wal_checkpoints.max(other.wal_checkpoints);
        // The MVCC gauges are database-wide too: max, not sum.
        self.mvcc_versions = self.mvcc_versions.max(other.mvcc_versions);
        self.mvcc_snapshots_pinned = self.mvcc_snapshots_pinned.max(other.mvcc_snapshots_pinned);
        // Replication state is node-wide (one stream set per database):
        // max, not sum, for the same reason as the WAL counters.
        self.repl_chunks_shipped = self.repl_chunks_shipped.max(other.repl_chunks_shipped);
        self.repl_bytes_shipped = self.repl_bytes_shipped.max(other.repl_bytes_shipped);
        self.repl_apply_lag_seq = self.repl_apply_lag_seq.max(other.repl_apply_lag_seq);
        self.repl_reconnects = self.repl_reconnects.max(other.repl_reconnects);
        self.repl_last_seq = self.repl_last_seq.max(other.repl_last_seq);
        // One buffer pool per database: max, not sum.
        self.bufpool_hits = self.bufpool_hits.max(other.bufpool_hits);
        self.bufpool_misses = self.bufpool_misses.max(other.bufpool_misses);
        self.bufpool_evictions = self.bufpool_evictions.max(other.bufpool_evictions);
        self.bufpool_writebacks = self.bufpool_writebacks.max(other.bufpool_writebacks);
        self.bufpool_pages = self.bufpool_pages.max(other.bufpool_pages);
        for (a, b) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// Copies the database's WAL counters into this snapshot — the
    /// server does this before encoding a METRICS frame so the wire
    /// carries `wal.*` alongside the session counters.
    pub fn overlay_wal(&mut self, w: &crate::wal::WalStatsSnapshot) {
        self.wal_appends = w.appends;
        self.wal_bytes = w.bytes;
        self.wal_fsyncs = w.fsyncs;
        self.wal_group_commit_batch = w.group_commit_batch;
        self.wal_replayed = w.replayed;
        self.wal_checkpoints = w.checkpoints;
    }

    /// Copies the database's MVCC gauges into this snapshot (same idea
    /// as [`MetricsSnapshot::overlay_wal`]).
    pub fn overlay_mvcc(&mut self, versions: u64, snapshots_pinned: u64) {
        self.mvcc_versions = versions;
        self.mvcc_snapshots_pinned = snapshots_pinned;
    }

    /// Copies the database's replication counters into this snapshot
    /// (same idea as [`MetricsSnapshot::overlay_wal`]).
    pub fn overlay_repl(&mut self, r: &crate::repl::ReplSnapshot) {
        self.repl_chunks_shipped = r.chunks_shipped;
        self.repl_bytes_shipped = r.bytes_shipped;
        self.repl_apply_lag_seq = r.apply_lag_seq;
        self.repl_reconnects = r.reconnects;
        self.repl_last_seq = r.last_seq;
    }

    /// Copies the database's buffer-pool counters into this snapshot
    /// (same idea as [`MetricsSnapshot::overlay_wal`]).
    pub fn overlay_bufpool(&mut self, s: &crate::storage::pages::PoolStatsSnapshot) {
        self.bufpool_hits = s.hits;
        self.bufpool_misses = s.misses;
        self.bufpool_evictions = s.evictions;
        self.bufpool_writebacks = s.writebacks;
        self.bufpool_pages = s.pages;
    }

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

    /// The snapshot as `(metric, value)` rows — the body of `SHOW STATS`.
    /// Latency buckets are collapsed to non-empty ones.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("statements.select".to_owned(), self.selects),
            ("statements.insert".to_owned(), self.inserts),
            ("statements.update".to_owned(), self.updates),
            ("statements.delete".to_owned(), self.deletes),
            ("statements.ddl".to_owned(), self.ddl),
            ("statements.explain".to_owned(), self.explains),
            ("statements.error".to_owned(), self.errors),
            ("scans.full".to_owned(), self.full_scans),
            ("scans.index_eq".to_owned(), self.index_eq_scans),
            ("scans.index_range".to_owned(), self.index_range_scans),
            ("scans.index_overlap".to_owned(), self.index_overlap_scans),
            ("rows.scanned".to_owned(), self.rows_scanned),
            ("rows.returned".to_owned(), self.rows_returned),
            ("rows.affected".to_owned(), self.rows_affected),
            ("exec.batches".to_owned(), self.vectorized_batches),
            ("select.total_micros".to_owned(), self.select_nanos / 1_000),
            ("dml.total_micros".to_owned(), self.dml_nanos / 1_000),
            ("select.slow".to_owned(), self.slow_queries),
            ("lock.wait_micros".to_owned(), self.lock_wait_nanos / 1_000),
            ("lock.tables_pinned".to_owned(), self.tables_pinned),
            ("plan_cache.hits".to_owned(), self.plan_cache_hits),
            ("plan_cache.misses".to_owned(), self.plan_cache_misses),
            (
                "plan_cache.invalidations".to_owned(),
                self.plan_cache_invalidations,
            ),
            ("plan_cache.entries".to_owned(), self.plan_cache_entries),
            ("txn.begun".to_owned(), self.txn_begun),
            ("txn.committed".to_owned(), self.txn_committed),
            ("txn.rolled_back".to_owned(), self.txn_rolled_back),
        ];
        for (i, &n) in self.latency_buckets.iter().enumerate() {
            if n > 0 {
                let lo = 1u64 << i;
                out.push((format!("latency.us[{lo}..{})", lo * 2), n));
            }
        }
        out
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
        b.record_error();

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
    fn wal_counters_overlay_and_absorb_as_gauges() {
        let mut a = MetricsSnapshot::default();
        a.overlay_wal(&crate::wal::WalStatsSnapshot {
            appends: 10,
            bytes: 1000,
            fsyncs: 3,
            group_commit_batch: 4,
            replayed: 2,
            checkpoints: 1,
            ..crate::wal::WalStatsSnapshot::default()
        });
        assert_eq!(a.wal_appends, 10);
        assert_eq!(a.wal_group_commit_batch, 4);
        // Two sessions observing the same database-wide WAL must not
        // double its counters when aggregated.
        let b = a.clone();
        let mut total = MetricsSnapshot::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.wal_appends, 10);
        assert_eq!(total.wal_bytes, 1000);
        assert_eq!(total.wal_fsyncs, 3);
        assert_eq!(total.wal_checkpoints, 1);
    }

    #[test]
    fn repl_counters_overlay_and_absorb_as_gauges() {
        let mut a = MetricsSnapshot::default();
        a.overlay_repl(&crate::repl::ReplSnapshot {
            chunks_shipped: 6,
            bytes_shipped: 640,
            apply_lag_seq: 2,
            reconnects: 1,
            last_seq: 37,
        });
        assert_eq!(a.repl_chunks_shipped, 6);
        assert_eq!(a.repl_last_seq, 37);
        // Two sessions observing the same node-wide replication state
        // must not double it when aggregated.
        let b = a.clone();
        let mut total = MetricsSnapshot::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.repl_chunks_shipped, 6);
        assert_eq!(total.repl_bytes_shipped, 640);
        assert_eq!(total.repl_apply_lag_seq, 2);
        assert_eq!(total.repl_reconnects, 1);
        assert_eq!(total.repl_last_seq, 37);
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
