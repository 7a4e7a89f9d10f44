//! Databases, sessions, and statement execution.
//!
//! A [`Database`] owns the catalog and storage behind reader-writer
//! locks; a [`Session`] executes SQL statements against it. Each
//! statement freezes one transaction time (the interpretation of `NOW`),
//! and a session may override it — the hook the TIP Browser's what-if
//! analysis uses (paper §4).

use crate::builtin;
use crate::cache::{self, CacheLookup, CachedPlan, PlanCache};
use crate::catalog::{Blade, Catalog, ExecCtx};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::obs::{
    Metric, MetricsSnapshot, OpProfile, QueryMetrics, SlowQuery, SlowQueryLogger, StatementKind,
};
use crate::pin::{PinnedTables, TableSet, TableSource};
use crate::plan::{DmlPlan, Planner};
use crate::sql::ast::{AsOf, Expr, InsertSource, SelectItem, SelectStmt, Statement};
use crate::sql::parse_statement;
use crate::storage::{self, Column, SharedTable, Storage, Table, TableSchema};
use crate::types::DataType;
use crate::value::{Row, Value};
use crate::wal::{
    self,
    file::{StdWalFile, WalFile},
    record::TxnBuilder,
    DurabilityConfig, RecoveryReport, Wal, WalStatsSnapshot,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Bucket stride of interval indexes created by `CREATE INDEX` on
/// interval-capable columns: 30 days of chronon seconds.
const DEFAULT_INTERVAL_STRIDE: i64 = 30 * 86_400;

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

/// Database-wide MVCC commit state: the global commit counter, the
/// monotone commit-instant clock, and the registry of pinned snapshots.
struct MvccState {
    /// Serializes version publication so commit sequences are dense and
    /// every table's chain appends in global commit order.
    commit_lock: Mutex<()>,
    /// The last published commit sequence; 0 = nothing committed yet.
    commit_seq: AtomicU64,
    /// The last commit instant (unix seconds), clamped monotone so
    /// `AS OF <instant>` cuts stay consistent across tables even if the
    /// wall clock steps backwards.
    last_instant: AtomicI64,
    /// `commit sequence -> pin count` for every live snapshot. Shared
    /// with each [`SnapshotPin`], which unregisters itself on drop.
    pinned: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl MvccState {
    fn new() -> MvccState {
        MvccState {
            commit_lock: Mutex::new(()),
            commit_seq: AtomicU64::new(0),
            last_instant: AtomicI64::new(i64::MIN),
            pinned: Arc::default(),
        }
    }

    /// The wall-clock instant for a commit, never earlier than any
    /// previous commit's. Always the real clock — a session's NOW
    /// override changes query semantics, not when commits happened.
    /// Callers hold `commit_lock`, so load-max-store does not race.
    fn next_instant(&self) -> i64 {
        let now = Self::wall_instant();
        let t = now.max(self.last_instant.load(Ordering::Acquire));
        self.last_instant.store(t, Ordering::Release);
        t
    }

    /// The raw wall clock (unix seconds), without the monotone clamp.
    fn wall_instant() -> i64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs() as i64)
            .unwrap_or(0)
    }
}

/// An RAII registration of one reader's snapshot: while alive, the
/// versions visible at `seq` cannot be garbage-collected. From
/// [`Database::pin_snapshot`].
pub struct SnapshotPin {
    pins: Arc<Mutex<BTreeMap<u64, usize>>>,
    seq: u64,
}

impl SnapshotPin {
    /// The commit sequence this pin reads at.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pinned = self.pins.lock();
        if let Some(n) = pinned.get_mut(&self.seq) {
            *n -= 1;
            if *n == 0 {
                pinned.remove(&self.seq);
            }
        }
    }
}

/// Durable-mode state of a database: the data directory, the running
/// WAL, and checkpoint coordination.
struct Durability {
    dir: PathBuf,
    wal: Arc<Wal>,
    cfg: DurabilityConfig,
    /// Generation of the on-disk checkpoint; the fresh log created by
    /// each checkpoint is stamped with the same number.
    generation: AtomicU64,
    /// The [`wal::WalProgress::rotations`] count that corresponds to
    /// `generation`. When a progress snapshot reports a higher count the
    /// writer has already swapped to the next generation's log but the
    /// checkpoint hasn't published it yet — replication log reads must
    /// not serve (or stamp watermarks) across that window.
    log_rotations: AtomicU64,
    /// Serializes checkpoints (manual, threshold, and close).
    checkpoint_lock: Mutex<()>,
    /// Collapses concurrent threshold triggers into one checkpoint.
    checkpoint_pending: AtomicBool,
    closed: AtomicBool,
    /// Transaction-id allocator for WAL chunks.
    txn_ids: AtomicU64,
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

    /// Opens (or creates) a durable database at `dir` with all built-ins
    /// installed: loads the latest checkpoint, replays the WAL, writes a
    /// fresh checkpoint, and starts the group-commit writer. Returns the
    /// database and a report of what recovery found.
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: DurabilityConfig,
    ) -> DbResult<(Arc<Database>, RecoveryReport)> {
        Database::open_with(dir, cfg, |_| Ok(()))
    }

    /// [`Database::open`] with an install hook that runs *before*
    /// recovery — the place to install blades, so the snapshot and log
    /// can reference their UDTs (just like reconnecting to a
    /// blade-enabled Informix instance).
    pub fn open_with(
        dir: impl AsRef<Path>,
        cfg: DurabilityConfig,
        install: impl FnOnce(&Arc<Database>) -> DbResult<()>,
    ) -> DbResult<(Arc<Database>, RecoveryReport)> {
        Database::open_internal(dir.as_ref(), cfg, install, |path, header| {
            StdWalFile::create(path, header).map(|f| Box::new(f) as Box<dyn WalFile>)
        })
    }

    /// [`Database::open_with`] where the live WAL file comes from `make`
    /// instead of the filesystem — the seam fault-injection tests use to
    /// substitute a [`FailpointFile`](crate::wal::file::FailpointFile).
    /// Not part of the stable API surface.
    #[doc(hidden)]
    pub fn open_with_wal_file(
        dir: impl AsRef<Path>,
        cfg: DurabilityConfig,
        make: impl FnOnce(&Path, &[u8]) -> std::io::Result<Box<dyn WalFile>>,
    ) -> DbResult<(Arc<Database>, RecoveryReport)> {
        Database::open_internal(dir.as_ref(), cfg, |_| Ok(()), make)
    }

    fn open_internal(
        dir: &Path,
        cfg: DurabilityConfig,
        install: impl FnOnce(&Arc<Database>) -> DbResult<()>,
        make: impl FnOnce(&Path, &[u8]) -> std::io::Result<Box<dyn WalFile>>,
    ) -> DbResult<(Arc<Database>, RecoveryReport)> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| DbError::Persist {
            message: format!("create data dir {}: {e}", dir.display()),
        })?;
        let started = Instant::now();
        let db = Database::new();
        install(&db)?;
        // The page store must exist before recovery: a paged (v3)
        // snapshot holds references into `pages.db` rather than row
        // bytes, and loading it faults those pages back in.
        let store = storage::pages::PagedStore::open(&dir, cfg.page_size, cfg.pool_pages)?;
        let _ = db.paged.set(store);
        let (mut report, next_gen) = wal::recover::recover(&db, &dir)?;
        // Recovery applied records to the live tables directly,
        // bypassing version publication; publish the recovered state as
        // one fresh commit so snapshot reads and AS OF line up with it.
        db.republish_all();
        // Checkpoint-at-open: persist the recovered state under the next
        // generation and start a fresh log, so no old log replays twice.
        let w = db.attach_durability_with(&dir, cfg, next_gen, make)?;
        report.elapsed = started.elapsed();
        w.stats()
            .replayed
            .store(report.records_replayed, Ordering::Relaxed);
        w.stats()
            .recovery_micros
            .store(report.elapsed.as_micros() as u64, Ordering::Relaxed);
        Ok((db, report))
    }

    /// Attaches durability to a database that has none yet: writes a
    /// checkpoint snapshot of the *current* in-memory state under
    /// `generation`, starts a fresh WAL, and begins logging subsequent
    /// statements. This is the tail of [`Database::open`] — and the
    /// machinery a promoted replica uses to become a durable primary
    /// without restarting.
    pub fn attach_durability(&self, dir: impl AsRef<Path>, cfg: DurabilityConfig) -> DbResult<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| DbError::Persist {
            message: format!("create data dir {}: {e}", dir.display()),
        })?;
        self.attach_durability_with(dir, cfg, 1, |path, header| {
            StdWalFile::create(path, header).map(|f| Box::new(f) as Box<dyn WalFile>)
        })?;
        Ok(())
    }

    fn attach_durability_with(
        &self,
        dir: &Path,
        cfg: DurabilityConfig,
        generation: u64,
        make: impl FnOnce(&Path, &[u8]) -> std::io::Result<Box<dyn WalFile>>,
    ) -> DbResult<Arc<Wal>> {
        if self.durability.get().is_some() {
            return Err(DbError::Persist {
                message: "durability is already attached".into(),
            });
        }
        // The WAL-before-page rule: pages must be durable before the
        // snapshot that references them hits disk (recovery faults
        // snapshot cold refs straight out of `pages.db`).
        if let Some(store) = self.paged.get() {
            store.flush()?;
        }
        let snap = self.save_snapshot()?;
        wal::recover::write_snapshot_file(dir, generation, &snap)?;
        let _ = std::fs::remove_file(dir.join(wal::recover::WAL_FILE_NEW));
        let log = make(
            &dir.join(wal::recover::WAL_FILE),
            &wal::record::encode_header(generation),
        )
        .map_err(|e| DbError::Persist {
            message: format!("create wal.log: {e}"),
        })?;
        let w = Wal::start(log, cfg.sync_mode);
        if let Some(store) = self.paged.get() {
            // Dirty-page writeback must not overtake the log: the pool
            // forces the WAL through a page's LSN before writing it.
            let wb = Arc::clone(&w);
            store.set_flush_barrier(Arc::new(move |lsn| wb.flush_through(lsn)));
            store.publish_epoch(
                &self
                    .with_storage(storage::cold_page_refs)
                    .into_keys()
                    .collect(),
                self.commit_seq(),
                0,
            );
        }
        w.stats().checkpoints.fetch_add(1, Ordering::Relaxed);
        self.mvcc_retention
            .store(cfg.mvcc_retention, Ordering::Relaxed);
        let _ = self.durability.set(Arc::new(Durability {
            dir: dir.to_path_buf(),
            wal: Arc::clone(&w),
            cfg,
            generation: AtomicU64::new(generation),
            log_rotations: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            checkpoint_pending: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            txn_ids: AtomicU64::new(0),
        }));
        Ok(w)
    }

    /// `true` when this database persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.get().is_some()
    }

    /// WAL counters (all zero on an in-memory database).
    pub fn wal_stats(&self) -> WalStatsSnapshot {
        self.durability
            .get()
            .map(|d| d.wal.stats().snapshot())
            .unwrap_or_default()
    }

    /// Writes a checkpoint: rotates the log, pages historical rows out
    /// to `pages.db`, snapshots all tables, and atomically replaces
    /// `snapshot.db`. A no-op on an in-memory or closed database.
    ///
    /// Protocol (order matters — see `wal::recover` for the crash
    /// matrix): the log rotates *first*, then the snapshot is taken.
    /// The snapshot is therefore a consistent cut containing every
    /// old-log record plus possibly a prefix of the new log; replaying
    /// the new log over it is idempotent (inserts address explicit
    /// rowids), so every crash window recovers to committed state.
    ///
    /// The paged store makes this incremental: row bytes already on a
    /// cold page are *referenced* by the snapshot, not rewritten, so
    /// checkpoint I/O is O(current + newly-spilled), not O(database).
    /// Pages are flushed durable *before* the snapshot that references
    /// them (the page half of the WAL rule), and the epoch publish
    /// afterwards retires the fill page and reclaims pages no pin can
    /// still reach.
    pub fn checkpoint(&self) -> DbResult<()> {
        let Some(d) = self.durability.get() else {
            return Ok(());
        };
        if d.closed.load(Ordering::Acquire) {
            return Ok(());
        }
        let _serial = d.checkpoint_lock.lock();
        let next = d.generation.load(Ordering::Acquire) + 1;
        let new_path = d.dir.join(wal::recover::WAL_FILE_NEW);
        let new_log =
            StdWalFile::create(&new_path, &wal::record::encode_header(next)).map_err(|e| {
                DbError::Persist {
                    message: format!("create wal.log.new: {e}"),
                }
            })?;
        d.wal.rotate(Box::new(new_log))?;
        if d.cfg.spill_cold {
            self.spill_cold(MvccState::wall_instant())?;
        }
        if let Some(store) = self.paged.get() {
            store.flush()?;
        }
        let snap = self.save_snapshot()?;
        wal::recover::write_snapshot_file(&d.dir, next, &snap)?;
        std::fs::rename(&new_path, d.dir.join(wal::recover::WAL_FILE)).map_err(|e| {
            DbError::Persist {
                message: format!("promote wal.log.new: {e}"),
            }
        })?;
        d.generation.store(next, Ordering::Release);
        d.log_rotations.fetch_add(1, Ordering::Release);
        d.wal.stats().checkpoints.fetch_add(1, Ordering::Relaxed);
        self.publish_page_epoch();
        Ok(())
    }

    /// Moves every closed-validity row of every table onto cold pages.
    /// `now` is the instant that decides hot vs cold (a row whose
    /// valid-time interval ended before `now` is historical). Returns
    /// the number of rows spilled. A representation change only — the
    /// row values are untouched, so nothing is WAL-logged; the pages
    /// carry the current WAL sequence as their LSN so dirty writeback
    /// cannot overtake the log. A no-op without a page store.
    pub fn spill_cold(&self, now: i64) -> DbResult<usize> {
        let Some(store) = self.paged.get() else {
            return Ok(0);
        };
        let lsn = self
            .durability
            .get()
            .map(|d| d.wal.progress().seq)
            .unwrap_or(0);
        let cat = self.catalog.read();
        let cells = self.registry.read().shared_tables_sorted();
        // Write-lock in sorted-name order — the same order statements
        // use — and hold all guards through publication so no statement
        // can publish a version that loses the spill.
        let mut guards: Vec<_> = cells.iter().map(|(_, cell)| cell.write()).collect();
        let mut published = Vec::new();
        let mut spilled = 0;
        for (guard, (_, cell)) in guards.iter_mut().zip(&cells) {
            if guard.cold_attach().is_none() {
                let att = storage::cold_attach_for(&cat, &guard.schema, store)?;
                guard.attach_cold(att);
            }
            let n = guard.spill_cold(now, lsn)?;
            if n > 0 {
                spilled += n;
                published.push((Arc::clone(cell), Arc::new(guard.share())));
            }
        }
        self.publish_prepared(published);
        drop(guards);
        Ok(spilled)
    }

    /// Publishes the page-store epoch after a checkpoint: sweeps every
    /// table's version chain down to the GC floor (so dropped versions
    /// release their cold references), then hands the store the set of
    /// pages the durable snapshot references together with the floor,
    /// letting it reclaim pages no recovery and no live pin can reach.
    fn publish_page_epoch(&self) {
        let Some(store) = self.paged.get() else {
            return;
        };
        let seq = self.commit_seq();
        let retention = self.mvcc_retention.load(Ordering::Relaxed);
        let floor = {
            let pinned = self.mvcc.pinned.lock();
            let oldest_pin = pinned.keys().next().copied().unwrap_or(u64::MAX);
            oldest_pin.min(seq.saturating_sub(retention))
        };
        // Sweep quiet tables too: a version published long ago still
        // pins its pages until some commit gc's the chain, which for an
        // idle table would otherwise never happen.
        for (_, cell) in self.registry.read().shared_tables_sorted() {
            cell.gc(floor);
        }
        let refs = self
            .with_storage(storage::cold_page_refs)
            .into_keys()
            .collect();
        store.publish_epoch(&refs, seq, floor);
    }

    /// Threshold checkpoint: fires when the live log outgrows the
    /// configured byte budget. Called by committing statements; the one
    /// that wins the flag pays the checkpoint inline.
    fn maybe_checkpoint(&self) {
        let Some(d) = self.durability.get() else {
            return;
        };
        if d.cfg.checkpoint_bytes == 0
            || d.wal.log_bytes() < d.cfg.checkpoint_bytes
            || d.checkpoint_pending.swap(true, Ordering::AcqRel)
        {
            return;
        }
        // Errors surface through the WAL's sticky-error state on the
        // next commit; don't fail the statement that tripped the
        // threshold.
        let _ = self.checkpoint();
        d.checkpoint_pending.store(false, Ordering::Release);
    }

    /// Cleanly shuts down a durable database: final checkpoint, then
    /// stops the group-commit writer. Idempotent; a no-op on in-memory
    /// databases. Statements executed after `close` fail with a
    /// `Persist` error instead of silently losing durability, even when
    /// the final checkpoint itself failed (its error is returned, and
    /// the log it could not replace still recovers every commit).
    pub fn close(&self) -> DbResult<()> {
        let Some(d) = self.durability.get() else {
            return Ok(());
        };
        if d.closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let result = (|| {
            let _serial = d.checkpoint_lock.lock();
            let next = d.generation.load(Ordering::Acquire) + 1;
            if d.cfg.spill_cold {
                self.spill_cold(MvccState::wall_instant())?;
            }
            if let Some(store) = self.paged.get() {
                store.flush()?;
            }
            let snap = self.save_snapshot()?;
            wal::recover::write_snapshot_file(&d.dir, next, &snap)?;
            d.generation.store(next, Ordering::Release);
            Ok(())
        })();
        d.wal.close();
        result
    }

    /// Appends one statement's WAL chunk while the caller still holds
    /// the statement's table guards (so log order equals lock
    /// serialization order). Returns the commit sequence to pass to
    /// [`Database::wal_wait`] after the guards drop, or `None` when the
    /// database is in-memory or the statement logged no operations.
    pub(crate) fn wal_append(
        &self,
        cat: &Catalog,
        build: impl FnOnce(&mut TxnBuilder<'_>) -> DbResult<()>,
    ) -> DbResult<Option<u64>> {
        let Some(d) = self.durability.get() else {
            return Ok(None);
        };
        let txn = d.txn_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let mut b = TxnBuilder::new(cat, txn);
        build(&mut b)?;
        if b.records() <= 1 {
            return Ok(None); // only BEGIN — nothing worth logging
        }
        let (chunk, n) = b.finish();
        Ok(Some(d.wal.append_chunk(chunk, n)?))
    }

    /// Blocks until the given commit is durable (per the sync mode) and
    /// runs the checkpoint threshold check. Call with the statement's
    /// guards already released.
    pub(crate) fn wal_wait(&self, seq: Option<u64>) -> DbResult<()> {
        let (Some(d), Some(seq)) = (self.durability.get(), seq) else {
            return Ok(());
        };
        d.wal.wait_durable(seq)?;
        self.maybe_checkpoint();
        Ok(())
    }

    // ----- MVCC ------------------------------------------------------

    /// The newest committed sequence number — what `AS OF COMMIT n`
    /// addresses.
    pub fn commit_seq(&self) -> u64 {
        self.mvcc.commit_seq.load(Ordering::Acquire)
    }

    /// Pins the current committed snapshot. Reading the sequence and
    /// registering the pin happen under one lock, so a concurrent
    /// commit can never garbage-collect the versions this pin is about
    /// to read between the two steps.
    pub fn pin_snapshot(&self) -> SnapshotPin {
        let mut pinned = self.mvcc.pinned.lock();
        let seq = self.mvcc.commit_seq.load(Ordering::Acquire);
        *pinned.entry(seq).or_insert(0) += 1;
        drop(pinned);
        SnapshotPin {
            pins: Arc::clone(&self.mvcc.pinned),
            seq,
        }
    }

    /// Pins an explicit (historical) sequence — the `AS OF` path. The
    /// pin blocks garbage collection at or above `seq` for the query's
    /// duration; versions already collected stay collected.
    pub fn pin_snapshot_at(&self, seq: u64) -> SnapshotPin {
        *self.mvcc.pinned.lock().entry(seq).or_insert(0) += 1;
        SnapshotPin {
            pins: Arc::clone(&self.mvcc.pinned),
            seq,
        }
    }

    /// Pins `set` at the Latest read cut: one registered snapshot, every
    /// read entry at its sequence — so a multi-table commit is seen whole
    /// or not at all — and a table created after it at its latest
    /// version (the statement resolved its name *now*).
    pub(crate) fn pin_latest<'s>(&self, set: &'s TableSet) -> PinnedTables<'s> {
        let snap = self.pin_snapshot();
        let seq = snap.seq();
        let Ok(pinned) = set.pin_with(Some(snap), |_, cell| {
            Ok::<_, Infallible>(cell.snapshot_at(seq).unwrap_or_else(|| cell.latest()))
        });
        pinned
    }

    /// Publishes pre-shared `(cell, snapshot)` pairs as one atomic
    /// commit: every table gets the same fresh sequence and instant,
    /// then each chain is garbage-collected down to what live pins and
    /// the retention window still need. Callers must still hold the
    /// write guards the snapshots were shared under (or otherwise have
    /// exclusive access), so chains append in commit order.
    pub(crate) fn publish_prepared(&self, items: Vec<(SharedTable, Arc<Table>)>) {
        if items.is_empty() {
            return;
        }
        let _serial = self.mvcc.commit_lock.lock();
        let seq = self.mvcc.commit_seq.load(Ordering::Acquire) + 1;
        let instant = self.mvcc.next_instant();
        for (cell, snap) in &items {
            cell.publish(seq, instant, Arc::clone(snap));
        }
        self.mvcc.commit_seq.store(seq, Ordering::Release);
        let retention = self.mvcc_retention.load(Ordering::Relaxed);
        let floor = {
            let pinned = self.mvcc.pinned.lock();
            let oldest_pin = pinned.keys().next().copied().unwrap_or(u64::MAX);
            oldest_pin.min(seq.saturating_sub(retention))
        };
        for (cell, _) in &items {
            cell.gc(floor);
        }
    }

    /// Publishes every write-pinned table of a statement's pin set as
    /// one commit (a no-op for read-only pins). Call with the pin still
    /// held.
    pub(crate) fn publish_pinned(&self, pinned: &PinnedTables<'_>) {
        self.publish_prepared(pinned.prepared_publishes());
    }

    /// Stamps a just-created table's initial version with a fresh commit
    /// point, so `AS OF` a time before creation reports NotFound instead
    /// of an empty table. Call under the registry write lock, before any
    /// statement can have pinned the new table.
    pub(crate) fn stamp_creation(&self, cell: &SharedTable) {
        let _serial = self.mvcc.commit_lock.lock();
        let seq = self.mvcc.commit_seq.load(Ordering::Acquire) + 1;
        let instant = self.mvcc.next_instant();
        cell.rebase_creation(seq, instant);
        self.mvcc.commit_seq.store(seq, Ordering::Release);
    }

    /// Re-publishes every table at one fresh commit sequence. Recovery
    /// mutates live tables directly (bypassing version publication);
    /// this brings the chains back in line. Only called while the
    /// database is still single-threaded (open), so no write guards are
    /// needed.
    pub(crate) fn republish_all(&self) {
        let items: Vec<(SharedTable, Arc<Table>)> = self
            .registry
            .read()
            .shared_tables_sorted()
            .into_iter()
            .map(|(_, cell)| {
                let snap = Arc::new(cell.read().share());
                (cell, snap)
            })
            .collect();
        self.publish_prepared(items);
    }

    /// Total retained versions across every table — the `mvcc.versions`
    /// gauge.
    pub fn mvcc_versions(&self) -> u64 {
        self.registry
            .read()
            .shared_tables_sorted()
            .iter()
            .map(|(_, c)| c.version_count() as u64)
            .sum()
    }

    /// Snapshot pins currently registered — the `mvcc.snapshots_pinned`
    /// gauge.
    pub fn snapshots_pinned(&self) -> u64 {
        self.mvcc.pinned.lock().values().map(|&n| n as u64).sum()
    }

    /// The configured MVCC retention window, in commits.
    pub fn mvcc_retention(&self) -> u64 {
        self.mvcc_retention.load(Ordering::Relaxed)
    }

    /// Reconfigures the MVCC retention window at runtime. Takes effect
    /// at the next commit's garbage-collection pass; shrinking the
    /// window never collects versions a live pin still needs.
    pub fn set_mvcc_retention(&self, commits: u64) {
        self.mvcc_retention.store(commits, Ordering::Relaxed);
    }

    // ----- Buffer pool ------------------------------------------------

    /// The paged cold-row store, when this database has one (durable
    /// databases only).
    pub fn paged_store(&self) -> Option<&Arc<storage::pages::PagedStore>> {
        self.paged.get()
    }

    /// Buffer-pool counters (all zero on an in-memory database).
    pub fn bufpool_stats(&self) -> storage::pages::PoolStatsSnapshot {
        self.paged.get().map(|s| s.stats()).unwrap_or_default()
    }

    // ----- Replication ------------------------------------------------

    /// Replication counters (shipping side on a primary, applying side
    /// on a replica).
    pub fn repl_stats(&self) -> &crate::repl::ReplStats {
        &self.repl
    }

    /// Marks this database a read-only replica of `primary`: every
    /// write statement is rejected with [`DbError::ReadOnly`] naming
    /// that address until [`Database::clear_read_only`] (promotion).
    pub fn set_read_only(&self, primary: impl Into<String>) {
        *self.read_only.write() = Some(primary.into());
    }

    /// Lifts the read-only restriction (replica promotion).
    pub fn clear_read_only(&self) {
        *self.read_only.write() = None;
    }

    /// The primary's address when this database is a read-only replica.
    pub fn read_only_primary(&self) -> Option<String> {
        self.read_only.read().clone()
    }

    /// The generation of the current checkpoint/log pair, or `None` on
    /// an in-memory database.
    pub fn wal_generation(&self) -> Option<u64> {
        self.durability
            .get()
            .map(|d| d.generation.load(Ordering::Acquire))
    }

    /// Reads the latest checkpoint snapshot for replica catch-up:
    /// `(generation, snapshot bytes)`. Serialized against checkpoints so
    /// the snapshot and its generation can never be torn.
    pub fn repl_snapshot(&self) -> DbResult<(u64, Vec<u8>)> {
        let d = self.durability.get().ok_or_else(|| DbError::Persist {
            message: "replication requires a durable database".into(),
        })?;
        let _serial = d.checkpoint_lock.lock();
        match wal::recover::read_snapshot_file(&d.dir)? {
            Some((generation, bytes)) => {
                if storage::snapshot_is_paged(&bytes) {
                    // A paged (v3) snapshot references our local
                    // `pages.db`, which the replica does not have.
                    // Materialize the cold rows inline (v2) at the same
                    // generation — self-contained bytes ship over the
                    // wire.
                    let store = self.paged.get().ok_or_else(|| DbError::Persist {
                        message: "paged snapshot without a page store".into(),
                    })?;
                    let cat = self.catalog.read();
                    let temp = storage::load_snapshot_with(&cat, &bytes, Some(store))?;
                    let inline = storage::save_snapshot_with(&cat, &temp, true)?;
                    Ok((generation, inline))
                } else {
                    Ok((generation, bytes))
                }
            }
            None => Err(DbError::Persist {
                message: "no checkpoint snapshot on disk".into(),
            }),
        }
    }

    /// Reads committed WAL bytes for a subscriber positioned at
    /// `(generation, offset)`. Returns at most `max_len` bytes ending on
    /// a framed-chunk boundary (the writer's flush watermark), plus the
    /// commit sequence those bytes reach. `Restart` means the requested
    /// generation has been checkpointed away and the replica must
    /// re-seed from the current snapshot.
    pub fn repl_log_read(
        &self,
        generation: u64,
        offset: u64,
        max_len: usize,
    ) -> DbResult<crate::repl::LogRead> {
        use std::io::{Read as _, Seek as _};
        let d = self.durability.get().ok_or_else(|| DbError::Persist {
            message: "replication requires a durable database".into(),
        })?;
        let p = d.wal.progress();
        if generation != d.generation.load(Ordering::Acquire) {
            return Ok(crate::repl::LogRead::Restart);
        }
        if p.rotations != d.log_rotations.load(Ordering::Acquire) {
            // Mid-checkpoint: the writer already swapped to the next
            // generation's log but the checkpoint hasn't published it.
            // `p.flushed`/`p.seq` describe the *new* file, so neither
            // bytes nor a watermark can be served for this generation;
            // report "nothing yet" and let the next poll restart.
            return Ok(crate::repl::LogRead::Chunk {
                bytes: Vec::new(),
                watermark: 0,
            });
        }
        if offset >= p.flushed {
            // Caught up (or the log rotated under us — the generation
            // check above re-runs next poll and restarts if so).
            return Ok(crate::repl::LogRead::Chunk {
                bytes: Vec::new(),
                watermark: p.seq,
            });
        }
        let path = d.dir.join(wal::recover::WAL_FILE);
        let mut f = std::fs::File::open(&path).map_err(|e| DbError::Persist {
            message: format!("open {}: {e}", path.display()),
        })?;
        // Verify the file on disk is still the generation the subscriber
        // is positioned in: a checkpoint may have renamed a fresh log
        // over it between the progress read and this open.
        let mut header = [0u8; wal::record::LOG_HEADER_LEN];
        f.read_exact(&mut header).map_err(|e| DbError::Persist {
            message: format!("read wal.log header: {e}"),
        })?;
        match wal::record::decode_header(&header) {
            Ok(g) if g == generation => {}
            _ => return Ok(crate::repl::LogRead::Restart),
        }
        let len = (p.flushed - offset).min(max_len as u64) as usize;
        f.seek(std::io::SeekFrom::Start(offset))
            .map_err(|e| DbError::Persist {
                message: format!("seek wal.log: {e}"),
            })?;
        let mut bytes = vec![0u8; len];
        f.read_exact(&mut bytes).map_err(|e| DbError::Persist {
            message: format!("read wal.log: {e}"),
        })?;
        // A partial read below the flush watermark still ends on a chunk
        // boundary only if max_len cut nowhere — trim to whole frames so
        // the replica's applier never buffers across a poll cycle
        // unnecessarily. (Frames are self-describing: len, crc, payload.)
        let whole = wal::record::whole_frames_len(&bytes);
        bytes.truncate(whole);
        Ok(crate::repl::LogRead::Chunk {
            bytes,
            watermark: if offset + whole as u64 >= p.flushed {
                p.seq
            } else {
                // Mid-log chunk: the watermark is unknown at this cut;
                // report the previous commit bound conservatively as 0
                // so the replica only acks real watermarks.
                0
            },
        })
    }

    /// Blocks until WAL progress advances past `last` or `timeout`
    /// elapses (see [`wal::WalProgress`]); returns the current progress.
    /// `None` on in-memory databases.
    pub fn wal_progress_wait(
        &self,
        last: &wal::WalProgress,
        timeout: Duration,
    ) -> Option<wal::WalProgress> {
        self.durability
            .get()
            .map(|d| d.wal.wait_progress(last, timeout))
    }

    /// Current WAL progress, `None` on in-memory databases.
    pub fn wal_progress(&self) -> Option<wal::WalProgress> {
        self.durability.get().map(|d| d.wal.progress())
    }

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
        *self.registry.write() = new_storage;
        // A wholesale world swap: clear the plan cache outright rather
        // than leaving pre-load plans (possibly against dropped tables)
        // to be discovered stale one lookup at a time.
        self.plan_cache.lock().clear();
        self.bump_generation();
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

/// A session's open multi-statement transaction.
struct TxnState {
    /// The snapshot everything in the transaction reads; pinning it
    /// also holds back version garbage collection.
    pin: SnapshotPin,
    /// Workspace copies of every touched table, keyed by lowercase
    /// name. The transaction's statements read and write these; nobody
    /// else sees them until COMMIT.
    tables: HashMap<String, TxnTable>,
    /// Every applied change in order, with its table's canonical name —
    /// COMMIT logs them as one WAL chunk and applies them to the live
    /// tables.
    ops: Vec<(String, Change)>,
}

/// One table's private workspace inside a transaction.
struct TxnTable {
    cell: SharedTable,
    /// Version sequence the workspace detached from. COMMIT refuses
    /// (write-write conflict) if the chain moved past it.
    base_seq: u64,
    /// The private copy all in-transaction statements operate on
    /// ([`Table::detach`]: shared slot chunks, private indexes).
    work: Table,
    /// Canonical table name, for WAL records.
    name: String,
}

/// One row change — what every INSERT, UPDATE and DELETE computes.
/// Autocommit logs a statement's changes and applies them to the live
/// table; a transaction applies them to its workspace and logs them all
/// at COMMIT.
#[derive(Clone)]
enum Change {
    Insert { rowid: usize, row: Row },
    Update { rowid: usize, row: Row },
    Delete { rowid: usize },
}

impl Change {
    fn log(&self, b: &mut TxnBuilder<'_>, table: &str) -> DbResult<()> {
        match self {
            Change::Insert { rowid, row } => b.insert(table, *rowid as u64, row),
            Change::Update { rowid, row } => b.update(table, *rowid as u64, row),
            Change::Delete { rowid } => b.delete(table, *rowid as u64),
        }
    }

    /// Applies the change to the table its set was computed against.
    fn apply(self, t: &mut Table) -> DbResult<()> {
        match self {
            Change::Insert { rowid, row } => {
                let got = t.insert(row);
                debug_assert_eq!(got, rowid, "planned rowid diverged from insert");
            }
            Change::Update { rowid, row } => {
                t.update(rowid, row)?;
            }
            Change::Delete { rowid } => {
                t.delete(rowid)?;
            }
        }
        Ok(())
    }
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

    /// DML observation: affected-row count, latency histogram, and the
    /// slow-query hook — INSERT/UPDATE/DELETE are first-class citizens
    /// of the slow-query log, not just SELECT.
    fn observe_dml(&self, sql: &str, plan: &str, rows: u64, elapsed: Duration) {
        self.metrics.record_dml(rows, elapsed);
        self.observe_slow(sql, rows, elapsed, || plan.to_owned());
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

    fn execute_inner(&self, sql: &str, params: &[(&str, Value)]) -> DbResult<StatementOutcome> {
        // Fast path for the common no-params call: no HashMap build, no
        // per-name lowercase/clone, no Arc allocation.
        let params: Option<Arc<HashMap<String, Value>>> = if params.is_empty() {
            None
        } else {
            Some(Arc::new(
                params
                    .iter()
                    .map(|(k, v)| (k.to_ascii_lowercase(), v.clone()))
                    .collect(),
            ))
        };
        // Read the generation *before* the cache probe and table-set
        // resolution: a DDL racing past this point at worst stamps the
        // filled entry with an already-stale generation (a conservative
        // replan later), never a stale plan served as fresh.
        let generation = self.db.ddl_generation();
        let param_sig = param_sig_of(params.as_ref());
        // Inside a transaction every read must see the workspace, so the
        // plan cache (whose plans read the Latest cut) is not consulted
        // until COMMIT/ROLLBACK.
        let in_txn = self.txn.lock().is_some();
        if !in_txn {
            let (is_explain, analyze, key) = cache::split_explain(cache::normalize_sql(sql));
            let lookup = self
                .db
                .plan_cache
                .lock()
                .lookup(key, generation, &param_sig);
            match lookup {
                CacheLookup::Hit(entry) => {
                    self.metrics.add(Metric::plan_cache_hits, 1);
                    // Re-pin exactly the tables the plan touches. A table
                    // dropped since the fill surfaces here as a typed
                    // NotFound (the racing DROP also bumped the
                    // generation, so the entry dies on its next lookup).
                    let set = TableSet::read_only(&self.db.registry.read(), &entry.tables)?;
                    let ctx = self.statement_ctx(params.as_ref());
                    let render = Render::of(is_explain, analyze);
                    let source = PlanSource::Cached(entry);
                    let outcome =
                        self.run_select(sql, &set, ReadCut::Latest, source, &ctx, render)?;
                    self.metrics.record_statement(if is_explain {
                        StatementKind::Explain
                    } else {
                        StatementKind::Select
                    });
                    return Ok(outcome);
                }
                CacheLookup::Stale => self.metrics.add(Metric::plan_cache_invalidations, 1),
                CacheLookup::Absent => {}
            }
        }
        let stmt = parse_statement(sql)?;
        // Replica guard: read-only statements (SELECT, EXPLAIN, SHOW
        // STATS) run locally; everything else — DML, DDL, and
        // transactions — belongs on the primary. The replication
        // applier's own session is exempt: shipped records are the
        // primary's writes arriving.
        if !self.repl_apply {
            if let Some(primary) = self.db.read_only_primary() {
                match stmt {
                    Statement::Select(_) | Statement::Explain { .. } | Statement::ShowStats => {}
                    _ => return Err(DbError::ReadOnly { primary }),
                }
            }
        }
        let empty_params = HashMap::new();
        let params_map: &HashMap<String, Value> = params.as_deref().unwrap_or(&empty_params);
        let ctx = self.statement_ctx(params.as_ref());
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
        let table_set = TableSet::for_statement(&self.db.registry.read(), &stmt);
        // EXPLAIN [ANALYZE] SELECT runs the SELECT, rendered differently
        // (outside a transaction: inside one it is refused below).
        let (stmt, render) = match stmt {
            Statement::Explain { inner, analyze }
                if !in_txn && matches!(*inner, Statement::Select(_)) =>
            {
                (*inner, Render::of(true, analyze))
            }
            stmt => (stmt, Render::Rows),
        };
        let outcome = match stmt {
            Statement::Begin => self.txn_begin(),
            Statement::Commit => self.txn_commit(),
            Statement::Rollback => self.txn_rollback(),
            ref s @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                let started = Instant::now();
                let (plan, n) = if in_txn {
                    self.txn_dml(table_set, s, params_map, &ctx)?
                } else {
                    self.run_dml(&table_set, s, params_map, &ctx)?
                };
                self.observe_dml(sql, &plan, n as u64, started.elapsed());
                Ok(StatementOutcome::Affected(n))
            }
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. }
            | Statement::CreateView { .. }
            | Statement::DropView { .. }
            | Statement::Explain { .. }
                if in_txn =>
            {
                Err(DbError::exec(
                    "DDL and EXPLAIN are not supported inside a transaction; \
                     COMMIT or ROLLBACK first",
                ))
            }
            Statement::Select(sel) => {
                let cut = self.read_cut(&sel, in_txn, params_map, &ctx)?;
                let source = PlanSource::Fresh {
                    sel: &sel,
                    params: params_map,
                    param_sig,
                    generation,
                };
                self.run_select(sql, &table_set, cut, source, &ctx, render)
            }
            Statement::CreateTable { name, columns } => {
                let catalog = self.db.catalog.read();
                let mut cols = Vec::with_capacity(columns.len());
                for (cname, tyname) in columns {
                    if cols
                        .iter()
                        .any(|c: &Column| c.name.eq_ignore_ascii_case(&cname))
                    {
                        return Err(DbError::Constraint {
                            message: format!("duplicate column {cname}"),
                        });
                    }
                    let ty = catalog.lookup_type_name(&tyname.name)?;
                    cols.push(Column { name: cname, ty });
                }
                let mut registry = self.db.registry.write();
                registry.create_table(TableSchema {
                    name: name.clone(),
                    columns: cols,
                })?;
                // Logged under the registry write lock, so WAL order
                // matches DDL serialization order. On append failure the
                // create is undone before anyone could observe it (the
                // registry write lock is still held): memory never holds
                // a statement the log refused.
                match self.db.wal_append(&catalog, |b| b.ddl(sql)) {
                    Ok(seq) => {
                        // Stamp the new table's initial version with a
                        // fresh commit point, so AS OF before this moment
                        // reports NotFound rather than an empty table.
                        if let Ok(cell) = registry.shared_table(&name) {
                            self.db.stamp_creation(&cell);
                        }
                        drop(registry);
                        drop(catalog);
                        self.db.bump_generation();
                        self.db.wal_wait(seq)?;
                        Ok(StatementOutcome::Done)
                    }
                    Err(e) => {
                        let _ = registry.drop_table(&name);
                        Err(e)
                    }
                }
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                // The collector pinned the target table for writing; no
                // other table (and not the registry) is blocked while
                // the index backfills.
                let mut pinned = self.pin_cut(&table_set, ReadCut::Latest)?;
                let catalog = self.db.catalog.read();
                let t = pinned.table_mut(&table)?;
                let col = t
                    .schema
                    .col_index(&column)
                    .ok_or_else(|| DbError::NotFound {
                        kind: "column",
                        name: format!("{table}.{column}"),
                    })?;
                // Unordered types with interval-bounds support (Period,
                // Element, Instant) get a bucketed interval index that
                // accelerates overlaps/contains; everything else gets a
                // B-tree.
                let interval_bounds = match t.schema.columns[col].ty {
                    DataType::Udt(id) => {
                        let def = catalog.type_def(id)?;
                        if def.ordered {
                            None
                        } else {
                            def.interval_key.clone()
                        }
                    }
                    _ => None,
                };
                // Duplicate names are rejected *before* the WAL append,
                // and the append happens before the index is installed:
                // a chunk that never reaches the log leaves the table
                // untouched, and a logged chunk cannot fail to apply.
                if t.indexes()
                    .iter()
                    .any(|ix| ix.name.eq_ignore_ascii_case(&name))
                {
                    return Err(DbError::AlreadyExists {
                        kind: "index",
                        name,
                    });
                }
                let seq = self.db.wal_append(&catalog, |b| b.ddl(sql))?;
                match interval_bounds {
                    Some(bounds) => {
                        t.create_interval_index(name, col, bounds, DEFAULT_INTERVAL_STRIDE)?
                    }
                    None => t.create_index(name, col)?,
                }
                // Publish while the write guard is held: snapshot
                // readers resolve access paths from published versions,
                // so the new index must enter the chain.
                self.db.publish_pinned(&pinned);
                // Not a registry write, but it changes the best access
                // path: cached plans must replan to see the new index.
                self.db.bump_generation();
                drop(pinned);
                drop(catalog);
                self.db.wal_wait(seq)?;
                Ok(StatementOutcome::Done)
            }
            Statement::DropTable { name, if_exists } => {
                // Registry write only: in-flight statements still hold
                // the table's `Arc` and finish on the data they pinned.
                let catalog = self.db.catalog.read();
                let mut registry = self.db.registry.write();
                // Existence is checked up front so the WAL append comes
                // *before* the removal: an append failure leaves the
                // table in memory, matching what replay will rebuild.
                if !registry.has_table(&name) {
                    if if_exists {
                        Ok(StatementOutcome::Done)
                    } else {
                        Err(DbError::NotFound {
                            kind: "table",
                            name,
                        })
                    }
                } else {
                    let seq = self.db.wal_append(&catalog, |b| b.ddl(sql))?;
                    registry.drop_table(&name)?;
                    drop(registry);
                    drop(catalog);
                    self.db.bump_generation();
                    self.db.wal_wait(seq)?;
                    Ok(StatementOutcome::Done)
                }
            }
            Statement::CreateView {
                name,
                query,
                body_start,
            } => {
                // Validate the view body by planning it once against the
                // pinned base tables before storing the text. The pins are
                // dropped before the registry write lock is taken.
                {
                    let pinned = self.pin_cut(&table_set, ReadCut::Latest)?;
                    let catalog = self.db.catalog.read();
                    let planner = Planner::new(&catalog, &pinned, params_map, ctx);
                    planner.plan_select(&query)?;
                }
                let body_sql = sql
                    .get(body_start..)
                    .unwrap_or("")
                    .trim()
                    .trim_end_matches(';')
                    .to_owned();
                let catalog = self.db.catalog.read();
                let mut registry = self.db.registry.write();
                registry.create_view(crate::storage::ViewDef {
                    name: name.clone(),
                    body_sql,
                })?;
                // As with CREATE TABLE: undo the in-memory create if its
                // chunk never reaches the log.
                match self.db.wal_append(&catalog, |b| b.ddl(sql)) {
                    Ok(seq) => {
                        drop(registry);
                        drop(catalog);
                        self.db.wal_wait(seq)?;
                        Ok(StatementOutcome::Done)
                    }
                    Err(e) => {
                        let _ = registry.drop_view(&name);
                        Err(e)
                    }
                }
            }
            Statement::DropView { name, if_exists } => {
                let catalog = self.db.catalog.read();
                let mut registry = self.db.registry.write();
                // Check-append-remove, as in DROP TABLE: the removal
                // cannot fail after its chunk reached the log.
                if registry.view(&name).is_none() {
                    if if_exists {
                        Ok(StatementOutcome::Done)
                    } else {
                        Err(DbError::NotFound { kind: "view", name })
                    }
                } else {
                    let seq = self.db.wal_append(&catalog, |b| b.ddl(sql))?;
                    registry.drop_view(&name)?;
                    drop(registry);
                    drop(catalog);
                    self.db.wal_wait(seq)?;
                    Ok(StatementOutcome::Done)
                }
            }
            Statement::Explain { inner, .. } => {
                // The parser admits only UPDATE and DELETE here, never
                // under ANALYZE: that would execute the write.
                let pinned = self.pin_cut(&table_set, ReadCut::Latest)?;
                let catalog = self.db.catalog.read();
                let planner = Planner::new_deferred(&catalog, &pinned, params_map, ctx);
                Ok(plan_lines(vec![planner.plan_dml(&inner)?.describe()]))
            }
            Statement::ShowStats => {
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
                Ok(StatementOutcome::Rows(QueryResult {
                    columns: vec![
                        ("metric".to_owned(), DataType::Str),
                        ("value".to_owned(), DataType::Int),
                    ],
                    rows,
                }))
            }
        };
        if outcome.is_ok() {
            self.metrics.record_statement(kind);
        }
        outcome
    }

    /// The one read path: pins `set` at `cut`, takes the cached plan or
    /// plans the statement, executes it, and renders the result rows, the
    /// plan, or the EXPLAIN ANALYZE profile. A fresh plan at the Latest
    /// cut counts a plan-cache miss and, if cacheable, fills the cache
    /// once it has run.
    fn run_select(
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
        let fresh = matches!(source, PlanSource::Fresh { .. });
        let (entry, fill) = match source {
            PlanSource::Cached(entry) => (entry, false),
            PlanSource::Fresh {
                sel,
                params,
                param_sig,
                generation,
            } => {
                let latest = matches!(cut, ReadCut::Latest);
                if latest {
                    self.metrics.add(Metric::plan_cache_misses, 1);
                }
                // Deferred binding keeps `:name` slots in the plan, so
                // the same plan serves later parameter values.
                let catalog = self.db.catalog.read();
                let planner = Planner::new_deferred(&catalog, &pinned, params, ctx.clone());
                let planned = planner.plan_select(sel)?;
                // Only plain SELECT over base tables is cached: the
                // planner freezes subqueries to *values*, and a view's
                // text can change under the same name.
                let fill = latest && !set.uses_views() && !select_has_subquery(sel);
                let entry = Arc::new(CachedPlan {
                    plan: planned.plan,
                    columns: planned.columns,
                    param_sig,
                    tables: set.table_keys(),
                    generation,
                });
                (entry, fill)
            }
        };
        let plan = &entry.plan;
        let mut rows = Vec::new();
        let mut lines = Vec::new();
        if render == Render::Plan {
            lines.push(plan.describe());
        } else {
            // Access-path accounting only, unless EXPLAIN ANALYZE asks
            // for per-operator timing.
            let prof = match render {
                Render::Profile => OpProfile::timed(plan),
                _ => OpProfile::paths_only(plan),
            };
            rows = exec::execute_with(plan, &pinned, ctx, Some(&prof))?;
            prof.charge_scans(&self.metrics);
            self.metrics
                .record_select(rows.len() as u64, started.elapsed());
            if render == Render::Profile {
                lines = prof.render();
                lines.push(format!(
                    "returned {} row(s) in {:.1?} [pinned {} table(s), lock-wait {:.1?}] [plan: {}]",
                    rows.len(),
                    started.elapsed(),
                    pinned.tables_pinned(),
                    pinned.lock_wait(),
                    if fresh { "fresh" } else { "cached" }
                ));
            }
        }
        // Release the pin before the slow-query hook: it is user code and
        // may open its own statements.
        drop(pinned);
        let outcome = if render == Render::Rows {
            self.observe_slow(sql, rows.len() as u64, started.elapsed(), || {
                plan.describe()
            });
            StatementOutcome::Rows(QueryResult {
                columns: entry.columns.clone(),
                rows,
            })
        } else {
            plan_lines(lines)
        };
        if fill {
            // EXPLAIN keys the cache by the *inner* SELECT text, so it
            // warms (and reads) the same entry as the bare query.
            let (_, _, key) = cache::split_explain(cache::normalize_sql(sql));
            self.db.plan_cache.lock().insert(key.to_owned(), entry);
        }
        Ok(outcome)
    }

    /// The cut a SELECT reads at: its `AS OF` clause, else the open
    /// transaction, else the latest commit.
    fn read_cut(
        &self,
        sel: &SelectStmt,
        in_txn: bool,
        params: &HashMap<String, Value>,
        ctx: &ExecCtx,
    ) -> DbResult<ReadCut> {
        let Some(as_of) = &sel.as_of else {
            return Ok(if in_txn {
                ReadCut::Txn
            } else {
                ReadCut::Latest
            });
        };
        // The operand is a table-free scalar: bind it against no tables.
        let catalog = self.db.catalog.read();
        let no_tables = TableSet::default();
        let no_tables = no_tables.pin_with(None, |key, _| Err(table_not_found(key)))?;
        let planner = Planner::new(&catalog, &no_tables, params, ctx.clone());
        let eval = |e: &Expr| -> DbResult<Value> {
            let e = planner.resolve_subqueries(e)?;
            let bound = planner.binder.bind(&e, &crate::binder::Scope::default())?;
            bound.eval(ctx, &[])
        };
        match as_of {
            AsOf::Commit(e) => {
                let n = eval(e)?.as_int().ok_or_else(|| {
                    DbError::type_err("AS OF COMMIT expects an integer commit sequence")
                })?;
                let n = u64::try_from(n).map_err(|_| {
                    DbError::type_err("AS OF COMMIT expects a non-negative commit sequence")
                })?;
                Ok(ReadCut::Commit(n))
            }
            AsOf::Instant(e) => Ok(ReadCut::Instant(instant_of(&catalog, &eval(e)?)?)),
        }
    }

    /// Resolves a read cut into the statement's pinned tables and folds
    /// the pin into the lock-wait counters. An `AS OF`
    /// cut reads committed history only: a table with no version at the
    /// point (not created yet, or collected past the retention window)
    /// is `NotFound`, and an open transaction's workspace stays invisible.
    fn pin_cut<'s>(&self, set: &'s TableSet, cut: ReadCut) -> DbResult<PinnedTables<'s>> {
        let pinned = match cut {
            ReadCut::Latest => self.db.pin_latest(set),
            ReadCut::Txn => {
                let txn = self.txn.lock();
                txn.as_ref().expect("caller checked txn").pin(set)?
            }
            ReadCut::Commit(n) => set.pin_with(Some(self.db.pin_snapshot_at(n)), |key, cell| {
                cell.snapshot_at(n).ok_or_else(|| table_not_found(key))
            })?,
            // An instant does not know its sequence, so the statement pins
            // the whole chain for its duration.
            ReadCut::Instant(t) => {
                set.pin_with(Some(self.db.pin_snapshot_at(0)), |key, cell| {
                    cell.snapshot_at_instant(t)
                        .ok_or_else(|| table_not_found(key))
                })?
            }
        };
        self.metrics
            .record_lock_wait(pinned.tables_pinned() as u64, pinned.lock_wait());
        Ok(pinned)
    }

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

    // ----- DML -------------------------------------------------------

    /// Autocommit INSERT, UPDATE or DELETE: the change set is computed
    /// under the target's write guard, logged as one WAL chunk, applied to
    /// the live table and published. Logging comes first: a chunk that
    /// never reaches the log leaves memory untouched, so the statement is
    /// refused cleanly instead of surviving unlogged. Returns the plan
    /// rendering and the affected-row count.
    fn run_dml(
        &self,
        set: &TableSet,
        stmt: &Statement,
        params: &HashMap<String, Value>,
        ctx: &ExecCtx,
    ) -> DbResult<(String, usize)> {
        let mut pinned = self.pin_cut(set, ReadCut::Latest)?;
        let catalog = self.db.catalog.read();
        let (plan, changes) = self.statement_changes(stmt, &catalog, &pinned, params, ctx)?;
        let t = pinned.table_mut(dml_target(stmt))?;
        let seq = self.db.wal_append(&catalog, |b| {
            changes.iter().try_for_each(|c| c.log(b, &t.schema.name))
        })?;
        let n = changes.len();
        for c in changes {
            c.apply(t)?;
        }
        self.db.publish_pinned(&pinned);
        drop(pinned);
        drop(catalog);
        self.db.wal_wait(seq)?;
        Ok((plan, n))
    }

    /// The change set of one INSERT, UPDATE or DELETE, computed against
    /// `src` — which holds the target table — without mutating anything,
    /// and the plan rendering the slow-query log shows for it.
    fn statement_changes(
        &self,
        stmt: &Statement,
        catalog: &Catalog,
        src: &dyn TableSource,
        params: &HashMap<String, Value>,
        ctx: &ExecCtx,
    ) -> DbResult<(String, Vec<Change>)> {
        let planner = Planner::new(catalog, src, params, ctx.clone());
        let Statement::Insert {
            table,
            columns,
            source,
        } = stmt
        else {
            let dml = planner.plan_dml(stmt)?;
            return Ok((dml.describe(), self.dml_changes(&dml, src, ctx)?));
        };
        let t = src.table(table)?;
        let target_cols = resolve_target_cols(&t.schema, table, columns)?;
        let rows = match source {
            InsertSource::Values(rows) => {
                eval_insert_values(&planner, &t.schema, &target_cols, rows)?
            }
            InsertSource::Query(select) => {
                let (rows, prof) = eval_insert_select(&planner, &t.schema, &target_cols, select)?;
                prof.charge_scans(&self.metrics);
                rows
            }
        };
        // The rowids the inserts will land on (the free list is
        // deterministic), so the changes can be logged before they apply.
        let rowids = t.planned_rowids(rows.len());
        let changes = rowids
            .into_iter()
            .zip(rows)
            .map(|(rowid, row)| Change::Insert { rowid, row })
            .collect();
        Ok((format!("insert({table})"), changes))
    }

    /// An UPDATE's or DELETE's changes: its victims, found by the plan's
    /// scan on the batch engine, which charges its access path to this
    /// session's scan counters like any SELECT's.
    fn dml_changes(
        &self,
        dml: &DmlPlan,
        src: &dyn TableSource,
        ctx: &ExecCtx,
    ) -> DbResult<Vec<Change>> {
        let prof = OpProfile::paths_only(&dml.scan);
        let victims = exec::execute_dml(dml, src, ctx, Some(&prof))?;
        prof.charge_scans(&self.metrics);
        Ok(victims
            .into_iter()
            .map(|(rowid, row)| match row {
                Some(row) => Change::Update { rowid, row },
                None => Change::Delete { rowid },
            })
            .collect())
    }

    // ----- Transactions ----------------------------------------------

    /// `BEGIN`: pins a snapshot and opens a statement-buffering
    /// transaction on this session.
    fn txn_begin(&self) -> DbResult<StatementOutcome> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(DbError::exec(
                "a transaction is already open; COMMIT or ROLLBACK first",
            ));
        }
        *txn = Some(TxnState {
            pin: self.db.pin_snapshot(),
            tables: HashMap::new(),
            ops: Vec::new(),
        });
        self.metrics.add(Metric::txn_begun, 1);
        Ok(StatementOutcome::Done)
    }

    /// `ROLLBACK`: discards the workspace — nothing was applied or
    /// logged, so there is nothing else to undo.
    fn txn_rollback(&self) -> DbResult<StatementOutcome> {
        if self.txn.lock().take().is_none() {
            return Err(DbError::exec("no transaction is open"));
        }
        self.metrics.add(Metric::txn_rolled_back, 1);
        Ok(StatementOutcome::Done)
    }

    /// `COMMIT`: write-write conflict check against each touched
    /// table's base version, one WAL chunk for the whole transaction,
    /// the change list applied to the live tables, then one atomic
    /// publish of them all.
    fn txn_commit(&self) -> DbResult<StatementOutcome> {
        let Some(txn) = self.txn.lock().take() else {
            return Err(DbError::exec("no transaction is open"));
        };
        let TxnState { pin, tables, ops } = txn;
        if ops.is_empty() {
            // Read-only transaction: nothing to log or publish.
            drop(pin);
            self.metrics.add(Metric::txn_committed, 1);
            return Ok(StatementOutcome::Done);
        }
        // Lock every touched table in sorted order (the same order
        // pinned statements use), so commits cannot deadlock.
        let mut entries: Vec<(String, TxnTable)> = tables.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut guards: Vec<_> = entries.iter().map(|(_, tt)| tt.cell.write()).collect();
        // First committer wins: if any chain moved past the version
        // this transaction built on, a concurrent commit got there
        // first. Checked under the write guards, so the answer cannot
        // change before we publish.
        for (_, tt) in &entries {
            if tt.cell.latest_seq() != tt.base_seq {
                self.metrics.add(Metric::txn_rolled_back, 1);
                return Err(DbError::exec(format!(
                    "write-write conflict on table {}: a concurrent commit got there first",
                    tt.name
                )));
            }
        }
        let catalog = self.db.catalog.read();
        // One chunk for the whole transaction: recovery replays all of
        // it or none of it. If the append is refused the in-memory
        // tables were never touched (every write is still buffered in
        // the workspace), so refusing the COMMIT is a clean abort.
        let seq = match self.db.wal_append(&catalog, |b| {
            ops.iter().try_for_each(|(table, c)| c.log(b, table))
        }) {
            Ok(seq) => seq,
            Err(e) => {
                self.metrics.add(Metric::txn_rolled_back, 1);
                return Err(e);
            }
        };
        // Each live table still equals its workspace's base (first
        // committer wins, checked above), so the change list replays onto
        // it through the one apply path autocommit and WAL replay use.
        for (table, c) in ops {
            let i = entries
                .iter()
                .position(|(_, tt)| tt.name == table)
                .expect("every logged change's table is in the workspace");
            c.apply(&mut guards[i])?;
        }
        let publishes = entries
            .iter()
            .zip(&guards)
            .map(|((_, tt), g)| (Arc::clone(&tt.cell), Arc::new(g.share())))
            .collect();
        self.db.publish_prepared(publishes);
        drop(guards);
        drop(entries);
        drop(pin);
        drop(catalog);
        self.db.wal_wait(seq)?;
        self.metrics.add(Metric::txn_committed, 1);
        Ok(StatementOutcome::Done)
    }

    /// Materializes `table` in the transaction workspace on first
    /// touch: a detached copy of the table's version at the transaction
    /// snapshot. Returns the lowercase workspace key.
    fn txn_touch(&self, txn: &mut TxnState, table: &str) -> DbResult<String> {
        let key = table.to_ascii_lowercase();
        if !txn.tables.contains_key(&key) {
            let cell = self.db.registry.read().shared_table(&key)?;
            let (base_seq, snap) = cell.version_at(txn.pin.seq()).ok_or(DbError::NotFound {
                kind: "table",
                name: table.to_owned(),
            })?;
            let name = snap.schema.name.clone();
            txn.tables.insert(
                key.clone(),
                TxnTable {
                    cell,
                    base_seq,
                    work: snap.detach(),
                    name,
                },
            );
        }
        Ok(key)
    }

    /// INSERT, UPDATE or DELETE inside a transaction: the change set is
    /// computed against the workspace and applied to it; COMMIT logs it.
    /// Returns the plan rendering and the affected-row count.
    fn txn_dml(
        &self,
        mut set: TableSet,
        stmt: &Statement,
        params: &HashMap<String, Value>,
        ctx: &ExecCtx,
    ) -> DbResult<(String, usize)> {
        let mut guard = self.txn.lock();
        let txn = guard.as_mut().expect("caller checked txn");
        let key = self.txn_touch(txn, dml_target(stmt))?;
        // The statement reads every table, its target included, at the
        // transaction cut.
        set.demote_writes();
        let pinned = txn.pin(&set)?;
        let catalog = self.db.catalog.read();
        let (plan, changes) = self.statement_changes(stmt, &catalog, &pinned, params, ctx)?;
        drop(pinned);
        let n = changes.len();
        let tt = txn.tables.get_mut(&key).expect("touched above");
        for c in changes {
            c.clone().apply(&mut tt.work)?;
            txn.ops.push((tt.name.clone(), c));
        }
        Ok((plan, n))
    }
}

// ----- Read cuts -----------------------------------------------------

/// The point in time a SELECT reads at.
#[derive(Clone, Copy)]
enum ReadCut {
    /// The newest commit, pinned once for the whole statement.
    Latest,
    /// The open transaction: its workspace over its snapshot.
    Txn,
    /// `AS OF COMMIT n`.
    Commit(u64),
    /// `AS OF <instant>`: the newest commit at or before it.
    Instant(i64),
}

/// Where a SELECT's plan comes from.
enum PlanSource<'q> {
    /// A plan-cache hit.
    Cached(Arc<CachedPlan>),
    /// The parsed statement, to be planned against the pinned tables;
    /// the parameter signature and generation stamp a cache fill.
    Fresh {
        sel: &'q SelectStmt,
        params: &'q HashMap<String, Value>,
        param_sig: Vec<(String, DataType)>,
        generation: u64,
    },
}

/// What a SELECT statement returns.
#[derive(Clone, Copy, PartialEq)]
enum Render {
    /// The result rows.
    Rows,
    /// `EXPLAIN`: the plan, not executed.
    Plan,
    /// `EXPLAIN ANALYZE`: the executed plan's per-operator profile.
    Profile,
}

impl Render {
    fn of(explain: bool, analyze: bool) -> Render {
        match (explain, analyze) {
            (false, _) => Render::Rows,
            (true, false) => Render::Plan,
            (true, true) => Render::Profile,
        }
    }
}

impl TxnState {
    /// Pins `set` at the transaction cut: a table the transaction has
    /// touched reads its workspace, any other its version at the
    /// transaction's snapshot.
    fn pin<'s>(&self, set: &'s TableSet) -> DbResult<PinnedTables<'s>> {
        let seq = self.pin.seq();
        set.pin_with(None, |key, cell| match self.tables.get(key) {
            Some(tt) => Ok(Arc::new(tt.work.share())),
            None => cell.snapshot_at(seq).ok_or_else(|| table_not_found(key)),
        })
    }
}

fn table_not_found(key: &str) -> DbError {
    DbError::NotFound {
        kind: "table",
        name: key.to_owned(),
    }
}

/// A one-column `plan` result: what EXPLAIN returns.
fn plan_lines(lines: Vec<String>) -> StatementOutcome {
    StatementOutcome::Rows(QueryResult {
        columns: vec![("plan".to_owned(), DataType::Str)],
        rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
    })
}

/// Coerces an evaluated `AS OF` operand into Unix seconds: a plain
/// integer, or any temporal UDT with an interval key (its low edge).
fn instant_of(catalog: &Catalog, v: &Value) -> DbResult<i64> {
    if let Some(n) = v.as_int() {
        return Ok(n);
    }
    if let Some(u) = v.as_udt() {
        if let Ok(def) = catalog.type_def(u.type_id()) {
            if let Some(key) = def.interval_key.as_ref() {
                if let Some((lo, _)) = key(u) {
                    return Ok(lo);
                }
            }
        }
    }
    Err(DbError::type_err(
        "AS OF expects unix seconds or a temporal value",
    ))
}

/// Resolves an optional INSERT column list into target column indexes,
/// rejecting unknown and duplicate columns.
fn resolve_target_cols(
    schema: &TableSchema,
    table: &str,
    columns: &Option<Vec<String>>,
) -> DbResult<Vec<usize>> {
    match columns {
        Some(names) => {
            let mut idxs = Vec::with_capacity(names.len());
            for n in names {
                let i = schema.col_index(n).ok_or_else(|| DbError::NotFound {
                    kind: "column",
                    name: format!("{table}.{n}"),
                })?;
                if idxs.contains(&i) {
                    return Err(DbError::Constraint {
                        message: format!("column {n} listed twice"),
                    });
                }
                idxs.push(i);
            }
            Ok(idxs)
        }
        None => Ok((0..schema.columns.len()).collect()),
    }
}

/// The table an INSERT, UPDATE or DELETE writes.
fn dml_target(stmt: &Statement) -> &str {
    match stmt {
        Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. } => table,
        _ => unreachable!("caller routes only DML here"),
    }
}

/// Evaluates INSERT … VALUES rows into full-width rows. Two-phase: any
/// evaluation error leaves nothing applied.
fn eval_insert_values(
    planner: &Planner,
    schema: &TableSchema,
    target_cols: &[usize],
    rows: &[Vec<Expr>],
) -> DbResult<Vec<Row>> {
    let scope = crate::binder::Scope::default();
    let mut out = Vec::with_capacity(rows.len());
    for exprs in rows {
        if exprs.len() != target_cols.len() {
            return Err(DbError::Constraint {
                message: format!(
                    "INSERT has {} value(s) but {} column(s)",
                    exprs.len(),
                    target_cols.len()
                ),
            });
        }
        let mut row: Row = vec![Value::Null; schema.columns.len()];
        for (e, &col) in exprs.iter().zip(target_cols) {
            let e = planner.resolve_subqueries(e)?;
            let bound = planner.binder.bind(&e, &scope)?;
            let coerced = planner
                .binder
                .coerce(bound, schema.columns[col].ty, false)?;
            row[col] = coerced.eval(&planner.ctx, &[])?;
        }
        out.push(row);
    }
    Ok(out)
}

/// Plans and runs the SELECT side of `INSERT … SELECT`, coercing each
/// produced row to the target column types. Returns the rows with the
/// SELECT's scan profile, which the caller charges to the session
/// metrics like any other SELECT's.
fn eval_insert_select(
    planner: &Planner,
    schema: &TableSchema,
    target_cols: &[usize],
    select: &SelectStmt,
) -> DbResult<(Vec<Row>, OpProfile)> {
    let (catalog, ctx) = (planner.catalog, &planner.ctx);
    let planned = planner.plan_select(select)?;
    if planned.columns.len() != target_cols.len() {
        return Err(DbError::Constraint {
            message: format!(
                "INSERT … SELECT produces {} column(s) but {} are targeted",
                planned.columns.len(),
                target_cols.len()
            ),
        });
    }
    // Precompute per-column coercions (identity, or an implicit cast).
    let mut coercions: Vec<Option<crate::catalog::CastFnImpl>> =
        Vec::with_capacity(target_cols.len());
    for ((_, src_ty), &col) in planned.columns.iter().zip(target_cols) {
        let dst_ty = schema.columns[col].ty;
        if *src_ty == dst_ty || *src_ty == DataType::Null {
            coercions.push(None);
        } else {
            let cast =
                catalog
                    .find_cast(*src_ty, dst_ty, false)
                    .ok_or_else(|| DbError::NoOverload {
                        what: format!(
                            "cast {} -> {} for INSERT … SELECT",
                            catalog.type_name(*src_ty),
                            catalog.type_name(dst_ty)
                        ),
                    })?;
            coercions.push(Some(cast.f.clone()));
        }
    }
    let prof = OpProfile::paths_only(&planned.plan);
    let produced = exec::execute_with(&planned.plan, planner.tables, ctx, Some(&prof))?;
    // Two-phase: coerce the whole change set before anything is
    // applied, so a coercion error mid-stream cannot leave a partial
    // insert.
    let mut out = Vec::with_capacity(produced.len());
    for src in produced {
        let mut row: Row = vec![Value::Null; schema.columns.len()];
        for ((v, &col), coerce) in src.into_iter().zip(target_cols).zip(&coercions) {
            row[col] = match (coerce, v.is_null()) {
                (Some(f), false) => f(ctx, &v)?,
                _ => v,
            };
        }
        out.push(row);
    }
    Ok((out, prof))
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

/// `true` when the SELECT contains a subquery anywhere in its AST. The
/// planner freezes subqueries to *values* at plan time, so such plans
/// are single-execution and must not be cached.
fn select_has_subquery(sel: &SelectStmt) -> bool {
    sel.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr_has_subquery(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
    }) || sel.where_clause.as_ref().is_some_and(expr_has_subquery)
        || sel.group_by.iter().any(expr_has_subquery)
        || sel.having.as_ref().is_some_and(expr_has_subquery)
        || sel.order_by.iter().any(|o| expr_has_subquery(&o.expr))
        || sel
            .union
            .as_ref()
            .is_some_and(|(_, next)| select_has_subquery(next))
}

fn expr_has_subquery(e: &Expr) -> bool {
    match e {
        Expr::Subquery(_) | Expr::InSubquery { .. } => true,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            expr_has_subquery(expr)
        }
        Expr::Binary { lhs, rhs, .. } => expr_has_subquery(lhs) || expr_has_subquery(rhs),
        Expr::Between {
            expr, low, high, ..
        } => expr_has_subquery(expr) || expr_has_subquery(low) || expr_has_subquery(high),
        Expr::InList { expr, list, .. } => {
            expr_has_subquery(expr) || list.iter().any(expr_has_subquery)
        }
        Expr::Call { args, .. } => args.iter().any(expr_has_subquery),
        Expr::Like { expr, pattern, .. } => expr_has_subquery(expr) || expr_has_subquery(pattern),
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            operand.as_deref().is_some_and(expr_has_subquery)
                || branches
                    .iter()
                    .any(|(w, t)| expr_has_subquery(w) || expr_has_subquery(t))
                || else_.as_deref().is_some_and(expr_has_subquery)
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) | Expr::BoundValue(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Arc<Database> {
        Database::new()
    }

    fn ints(result: &QueryResult, col: usize) -> Vec<i64> {
        result
            .rows
            .iter()
            .map(|r| r[col].as_int().unwrap())
            .collect()
    }

    #[test]
    fn create_insert_select() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (id INT, name CHAR(20))").unwrap();
        let out = s
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        assert!(matches!(out, StatementOutcome::Affected(3)));
        let r = s
            .query("SELECT id, name FROM t WHERE id >= 2 ORDER BY id DESC")
            .unwrap();
        assert_eq!(ints(&r, 0), vec![3, 2]);
        assert_eq!(r.columns[1].0, "name");
    }

    #[test]
    fn select_without_from() {
        let db = db();
        let s = db.session();
        let r = s.query("SELECT 1 + 2 AS three, 'x'").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_int(), Some(3));
        assert_eq!(r.columns[0].0, "three");
    }

    #[test]
    fn wildcards_and_aliases() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let r = s.query("SELECT * FROM t").unwrap();
        assert_eq!(r.columns.len(), 2);
        let r = s.query("SELECT x.b, x.a FROM t x").unwrap();
        assert_eq!(r.rows[0][0].as_int(), Some(10));
    }

    #[test]
    fn joins_comma_and_explicit() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE a (id INT, v CHAR(5))").unwrap();
        s.execute("CREATE TABLE b (id INT, w CHAR(5))").unwrap();
        s.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        s.execute("INSERT INTO b VALUES (2, 'q'), (3, 'r')")
            .unwrap();
        let r1 = s
            .query("SELECT a.v, b.w FROM a, b WHERE a.id = b.id")
            .unwrap();
        assert_eq!(r1.rows.len(), 1);
        assert_eq!(r1.rows[0][0].as_str(), Some("y"));
        let r2 = s
            .query("SELECT a.v, b.w FROM a JOIN b ON a.id = b.id")
            .unwrap();
        assert_eq!(r2.rows.len(), 1);
        // Cross join.
        let r3 = s.query("SELECT a.id FROM a, b").unwrap();
        assert_eq!(r3.rows.len(), 4);
    }

    #[test]
    fn group_by_and_having() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE sales (region CHAR(5), amount INT)")
            .unwrap();
        s.execute("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5), ('west', 1)")
            .unwrap();
        let r = s
            .query(
                "SELECT region, SUM(amount), COUNT(*) FROM sales \
                 GROUP BY region HAVING SUM(amount) > 10 ORDER BY region",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_str(), Some("east"));
        assert_eq!(r.rows[0][1].as_int(), Some(30));
        assert_eq!(r.rows[0][2].as_int(), Some(2));
    }

    #[test]
    fn global_aggregate_on_empty_table() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        let r = s.query("SELECT COUNT(*), SUM(a), MIN(a) FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_int(), Some(0));
        assert_eq!(r.rows[0][1].as_int(), Some(0));
        assert!(r.rows[0][2].is_null());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (NULL), (3)").unwrap();
        let r = s.query("SELECT COUNT(a), SUM(a), AVG(a) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int(), Some(2));
        assert_eq!(r.rows[0][1].as_int(), Some(4));
        assert_eq!(r.rows[0][2].as_float(), Some(2.0));
    }

    #[test]
    fn distinct_and_limit() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (1), (2), (2), (3)")
            .unwrap();
        let r = s.query("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
        assert_eq!(ints(&r, 0), vec![1, 2, 3]);
        let r = s
            .query("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2")
            .unwrap();
        assert_eq!(ints(&r, 0), vec![1, 2]);
    }

    #[test]
    fn order_by_hidden_column() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 3), (2, 1), (3, 2)")
            .unwrap();
        let r = s.query("SELECT a FROM t ORDER BY b").unwrap();
        assert_eq!(ints(&r, 0), vec![2, 3, 1]);
        assert_eq!(r.columns.len(), 1, "hidden sort column must be stripped");
    }

    #[test]
    fn update_and_delete() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
            .unwrap();
        let out = s.execute("UPDATE t SET b = a * 10 WHERE a >= 2").unwrap();
        assert!(matches!(out, StatementOutcome::Affected(2)));
        let r = s.query("SELECT b FROM t ORDER BY a").unwrap();
        assert_eq!(ints(&r, 0), vec![0, 20, 30]);
        let out = s.execute("DELETE FROM t WHERE b = 0").unwrap();
        assert!(matches!(out, StatementOutcome::Affected(1)));
        let r = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int(), Some(2));
    }

    #[test]
    fn params_flow_through() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute_with_params("INSERT INTO t VALUES (:x)", &[("x", Value::Int(7))])
            .unwrap();
        let r = s
            .query_with_params("SELECT a FROM t WHERE a = :x", &[("x", Value::Int(7))])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let err = s.query("SELECT a FROM t WHERE a = :missing").unwrap_err();
        assert!(matches!(err, DbError::MissingParam { .. }));
    }

    #[test]
    fn index_used_and_correct() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        for i in 0..100 {
            s.execute_with_params(
                "INSERT INTO t VALUES (:i, :j)",
                &[("i", Value::Int(i % 10)), ("j", Value::Int(i))],
            )
            .unwrap();
        }
        s.execute("CREATE INDEX ix_a ON t(a)").unwrap();
        let r = s.query("SELECT COUNT(*) FROM t WHERE a = 3").unwrap();
        assert_eq!(r.rows[0][0].as_int(), Some(10));
        // Plan shape: the scan becomes an index scan.
        db.with_tables(|pinned| {
            db.with_catalog(|cat| {
                let params = HashMap::new();
                let ctx = ExecCtx::new(0);
                let planner = Planner::new(cat, pinned, &params, ctx);
                let Statement::Select(sel) =
                    parse_statement("SELECT b FROM t WHERE a = 3").unwrap()
                else {
                    unreachable!()
                };
                let planned = planner.plan_select(&sel).unwrap();
                assert!(
                    planned.plan.describe().contains("ixscan"),
                    "{}",
                    planned.plan.describe()
                );
            })
        });
    }

    #[test]
    fn hash_join_plan_shape() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE a (id INT)").unwrap();
        s.execute("CREATE TABLE b (id INT)").unwrap();
        db.with_tables(|pinned| {
            db.with_catalog(|cat| {
                let params = HashMap::new();
                let ctx = ExecCtx::new(0);
                let planner = Planner::new(cat, pinned, &params, ctx);
                let Statement::Select(sel) =
                    parse_statement("SELECT a.id FROM a, b WHERE a.id = b.id").unwrap()
                else {
                    unreachable!()
                };
                let planned = planner.plan_select(&sel).unwrap();
                assert!(
                    planned.plan.describe().contains("hashjoin"),
                    "{}",
                    planned.plan.describe()
                );
            })
        });
    }

    #[test]
    fn drop_table() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("DROP TABLE t").unwrap();
        assert!(s.query("SELECT * FROM t").is_err());
        s.execute("DROP TABLE IF EXISTS t").unwrap();
        assert!(s.execute("DROP TABLE t").is_err());
    }

    #[test]
    fn snapshot_round_trip() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, b CHAR(5))").unwrap();
        s.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        s.execute("CREATE INDEX ix ON t(a)").unwrap();
        let snap = db.save_snapshot().unwrap();

        let db2 = Database::new();
        db2.load_snapshot(&snap).unwrap();
        let s2 = db2.session();
        let r = s2.query("SELECT b FROM t WHERE a = 2").unwrap();
        assert_eq!(r.rows[0][0].as_str(), Some("y"));
    }

    #[test]
    fn format_result_renders_table() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT, name CHAR(10))").unwrap();
        s.execute("INSERT INTO t VALUES (1, 'Showbiz')").unwrap();
        let r = s.query("SELECT * FROM t").unwrap();
        let text = s.format_result(&r);
        assert!(text.contains("Showbiz"));
        assert!(text.contains("| a "));
    }

    #[test]
    fn format_result_survives_degenerate_shapes() {
        let db = db();
        let s = db.session();
        // Zero columns, zero rows: still a (degenerate) table frame.
        let empty = QueryResult {
            columns: vec![],
            rows: vec![],
        };
        let text = s.format_result(&empty);
        assert_eq!(text, "+\n|\n+\n+\n");
        // Zero rows with columns: header only, no row lines.
        let headers_only = QueryResult {
            columns: vec![("a".to_owned(), DataType::Int)],
            rows: vec![],
        };
        let text = s.format_result(&headers_only);
        assert!(text.contains("| a |"));
        // Top rule, header, header rule, bottom rule — no row lines.
        assert_eq!(text.lines().count(), 4);
        // A malformed row wider than the header list must not panic;
        // the extra cells are dropped from the rendering.
        let lopsided = QueryResult {
            columns: vec![("a".to_owned(), DataType::Int)],
            rows: vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]],
        };
        let text = s.format_result(&lopsided);
        assert!(text.contains("| 1 |"));
        assert!(!text.contains('2'));
    }

    #[test]
    fn errors_surface() {
        let db = db();
        let s = db.session();
        assert!(matches!(
            s.execute("SELECT * FROM missing"),
            Err(DbError::NotFound { .. })
        ));
        s.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(
            s.execute("CREATE TABLE t (a INT)"),
            Err(DbError::AlreadyExists { .. })
        ));
        assert!(matches!(
            s.execute("INSERT INTO t VALUES (1, 2)"),
            Err(DbError::Constraint { .. })
        ));
        assert!(s.execute("SELECT nosuchfunc(a) FROM t").is_err());
        // Aggregates are rejected in WHERE.
        assert!(s.execute("SELECT a FROM t WHERE SUM(a) > 1").is_err());
        // Non-grouped column in grouped query.
        s.execute("CREATE TABLE g (k INT, v INT)").unwrap();
        assert!(s.execute("SELECT v FROM g GROUP BY k").is_err());
    }

    #[test]
    fn string_coerced_into_column_on_insert() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a FLOAT)").unwrap();
        // INT literal widens to FLOAT implicitly.
        s.execute("INSERT INTO t VALUES (3)").unwrap();
        let r = s.query("SELECT a FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_float(), Some(3.0));
    }

    #[test]
    fn order_by_alias() {
        let db = db();
        let s = db.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (3), (1), (2)").unwrap();
        let r = s
            .query("SELECT a * 2 AS doubled FROM t ORDER BY doubled DESC")
            .unwrap();
        assert_eq!(ints(&r, 0), vec![6, 4, 2]);
    }
}
