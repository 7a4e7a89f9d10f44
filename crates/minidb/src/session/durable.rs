//! Durable mode: the data directory, WAL logging and checkpoints, the
//! paged cold-row store, and the replication log a primary ships.

use super::{Database, MvccState};
use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::storage;
use crate::wal::{
    self,
    file::{StdWalFile, WalFile},
    record::TxnBuilder,
    DurabilityConfig, RecoveryReport, Wal, WalStatsSnapshot,
};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durable-mode state of a database: the data directory, the running
/// WAL, and checkpoint coordination.
pub(super) struct Durability {
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
}

impl Database {
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
}
