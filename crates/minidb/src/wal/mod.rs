//! Durability subsystem: write-ahead log, checkpointing, and recovery.
//!
//! Three cooperating parts (DESIGN.md §8):
//!
//! * **Write-ahead log** — every DML/DDL statement appends one framed
//!   BEGIN..COMMIT chunk ([`record::TxnBuilder`]) to the log *while
//!   still holding its table guards*, so log order equals lock
//!   serialization order. A dedicated group-commit writer thread drains
//!   the append buffer and batches fsyncs under the configured
//!   [`SyncMode`]; committers in `EveryCommit` mode block only until the
//!   batch containing their chunk is durable ([`Wal::wait_durable`]).
//! * **Checkpointing** — [`crate::session::Database::checkpoint`] writes
//!   the snapshot format to `snapshot.db` under the all-table read pin
//!   and rotates the log; a byte threshold triggers it automatically.
//! * **Recovery** — [`crate::session::Database::open_with`] loads the
//!   snapshot, replays surviving logs ([`recover`]), tolerates a
//!   torn/truncated tail, and fails loudly on mid-log corruption.
//!
//! The writer thread coordinates through `std::sync` primitives (the
//! vendored `parking_lot` carries no `Condvar`).

pub mod file;
pub mod record;
pub mod recover;

use crate::error::{DbError, DbResult};
use file::WalFile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When the group-commit writer fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Never fsync (the OS flushes whenever it pleases). Fastest;
    /// survives process kill only as far as the page cache survives.
    Off,
    /// Fsync at most once per interval — a bounded loss window.
    Interval(Duration),
    /// Fsync before acknowledging any commit. Committers block until
    /// the batch holding their records is on stable storage.
    EveryCommit,
}

impl SyncMode {
    /// Parses the `--sync` command-line spelling.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s {
            "off" => Some(SyncMode::Off),
            "every-commit" => Some(SyncMode::EveryCommit),
            other => other
                .strip_prefix("interval:")
                .and_then(|ms| ms.parse::<u64>().ok())
                .map(|ms| SyncMode::Interval(Duration::from_millis(ms.max(1)))),
        }
    }
}

/// Knobs for [`crate::session::Database::open_with`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    pub sync_mode: SyncMode,
    /// Log size (bytes) that triggers an automatic checkpoint after a
    /// commit; `0` disables threshold checkpointing.
    pub checkpoint_bytes: u64,
    /// MVCC retention window: how many commits of version history each
    /// table chain keeps beyond the oldest pinned snapshot. Replicas
    /// want a wider window to absorb replication lag.
    pub mvcc_retention: u64,
    /// Page size of `pages.db` (a property of the file once created).
    pub page_size: usize,
    /// Buffer pool capacity in frames; resident cold-page memory is
    /// bounded by `pool_pages * page_size`.
    pub pool_pages: usize,
    /// Whether checkpoints page historical (valid-time ended) rows out
    /// to `pages.db`. Off keeps every row resident, as before PR 10.
    pub spill_cold: bool,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            sync_mode: SyncMode::EveryCommit,
            checkpoint_bytes: 16 * 1024 * 1024,
            mvcc_retention: 64,
            page_size: crate::storage::pages::DEFAULT_PAGE_SIZE,
            pool_pages: 1024,
            spill_cold: true,
        }
    }
}

/// What [`crate::session::Database::open_with`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// A `snapshot.db` was present and loaded.
    pub snapshot_loaded: bool,
    /// Log files whose records were replayed.
    pub logs_replayed: usize,
    /// CRC-valid records applied.
    pub records_replayed: u64,
    /// Records discarded from a torn/truncated tail (incomplete frames
    /// count as bytes, complete-but-uncommitted transactions as
    /// records).
    pub records_discarded: u64,
    /// Torn-tail bytes dropped from the end of the newest log.
    pub bytes_discarded: u64,
    /// Committed transactions applied.
    pub txns_applied: u64,
    /// Row operations skipped because their table no longer existed
    /// (possible only after an unclean crash in a lossy sync mode).
    pub ops_skipped: u64,
    /// A torn tail was detected (and tolerated).
    pub torn_tail: bool,
    /// Wall time spent loading the snapshot and replaying logs.
    pub elapsed: Duration,
}

impl RecoveryReport {
    /// One-line human summary (the server logs this at startup).
    pub fn summary(&self) -> String {
        format!(
            "recovery: snapshot={} logs={} replayed={} discarded={} txns={} torn_tail={} in {:.1?}",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "none"
            },
            self.logs_replayed,
            self.records_replayed,
            self.records_discarded,
            self.txns_applied,
            self.torn_tail,
            self.elapsed
        )
    }
}

/// WAL counters, all monotonic except the batch gauge.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended (BEGIN/COMMIT included).
    pub appends: AtomicU64,
    /// Bytes appended (framing included).
    pub bytes: AtomicU64,
    /// Commits (statements) logged.
    pub commits: AtomicU64,
    /// Fsyncs issued by the writer.
    pub fsyncs: AtomicU64,
    /// Largest number of commits covered by a single fsync.
    pub group_commit_batch: AtomicU64,
    /// Records replayed at open.
    pub replayed: AtomicU64,
    /// Checkpoints completed (open-time one included).
    pub checkpoints: AtomicU64,
    /// Microseconds spent in recovery at open.
    pub recovery_micros: AtomicU64,
}

/// Point-in-time copy of [`WalStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStatsSnapshot {
    pub appends: u64,
    pub bytes: u64,
    pub commits: u64,
    pub fsyncs: u64,
    pub group_commit_batch: u64,
    pub replayed: u64,
    pub checkpoints: u64,
    pub recovery_micros: u64,
}

impl WalStats {
    /// Reads every counter.
    pub fn snapshot(&self) -> WalStatsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        WalStatsSnapshot {
            appends: g(&self.appends),
            bytes: g(&self.bytes),
            commits: g(&self.commits),
            fsyncs: g(&self.fsyncs),
            group_commit_batch: g(&self.group_commit_batch),
            replayed: g(&self.replayed),
            checkpoints: g(&self.checkpoints),
            recovery_micros: g(&self.recovery_micros),
        }
    }
}

/// State shared between appenders, the writer thread, and rotation.
struct WalShared {
    /// Framed chunks not yet handed to the file.
    buf: Vec<u8>,
    /// Commits represented in `buf`.
    pending_commits: u64,
    /// Sequence of the newest appended commit.
    next_seq: u64,
    /// Sequence through which commits are durable (per the sync mode).
    durable_seq: u64,
    /// Replacement file queued by a checkpoint; the writer flushes and
    /// syncs the old file, then swaps.
    rotate_to: Option<Box<dyn WalFile>>,
    /// Bumped by the writer after each completed swap.
    rotations_done: u64,
    /// Bytes in the *current* log (pending buffer included); reset when
    /// a rotation is queued.
    log_bytes: u64,
    /// Bytes the writer has successfully handed to the current file —
    /// always a chunk boundary, because the writer drains whole framed
    /// chunks. Replication subscribers read the log file up to this
    /// watermark; reset to the new file's length on rotation.
    flushed: u64,
    /// Sequence through which commits are *fsynced* — independent of
    /// the sync mode's durability promise; [`Wal::flush_through`] (the
    /// WAL-before-page barrier) waits on this.
    synced_seq: u64,
    /// An explicit fsync was requested by [`Wal::flush_through`].
    sync_pending: bool,
    shutdown: bool,
    /// Sticky I/O error: after the log breaks, every further logged
    /// statement fails loudly instead of diverging from disk.
    io_error: Option<String>,
}

/// The WAL guts the writer thread co-owns. Split out of [`Wal`] so the
/// thread never holds an `Arc<Wal>`: that cycle would keep the Wal alive
/// forever, and its `Drop` (which joins the thread after a final flush)
/// could never run when the last database handle goes away.
struct Core {
    shared: Mutex<WalShared>,
    /// Signals the writer: new bytes, a rotation, or shutdown.
    work: Condvar,
    /// Signals committers/rotators: durable_seq or rotations_done moved.
    done: Condvar,
    stats: WalStats,
    mode: SyncMode,
}

/// A point-in-time view of how far the WAL has advanced, for
/// replication subscribers tailing the log file. `flushed` is always a
/// framed-chunk boundary (the writer drains whole chunks), so a reader
/// may hand `file[..flushed]` bytes to a replica without ever splitting
/// a record frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalProgress {
    /// Completed log rotations (each rotation starts a new generation).
    pub rotations: u64,
    /// Bytes written to the current log file (header included).
    pub flushed: u64,
    /// Commit sequence covered by `flushed` — the newest commit whose
    /// chunk has been handed to the file. (Commits still in the append
    /// buffer are *not* covered; a subscriber acking this watermark has
    /// everything the log file holds.)
    pub seq: u64,
    /// The WAL has been closed; no further progress will be made.
    pub shutdown: bool,
}

/// The write-ahead log: an append buffer drained by a group-commit
/// writer thread. See the module docs for the protocol.
pub struct Wal {
    core: std::sync::Arc<Core>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl Wal {
    /// Starts the group-commit writer over `file` (which must already
    /// contain a valid header).
    pub fn start(file: Box<dyn WalFile>, mode: SyncMode) -> std::sync::Arc<Wal> {
        let initial_len = file.len();
        let core = std::sync::Arc::new(Core {
            shared: Mutex::new(WalShared {
                buf: Vec::new(),
                pending_commits: 0,
                next_seq: 0,
                durable_seq: 0,
                rotate_to: None,
                rotations_done: 0,
                log_bytes: initial_len,
                flushed: initial_len,
                synced_seq: 0,
                sync_pending: false,
                shutdown: false,
                io_error: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            stats: WalStats::default(),
            mode,
        });
        let thread_core = std::sync::Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("minidb-wal-writer".to_owned())
            .spawn(move || writer_loop(&thread_core, file))
            .expect("spawn wal writer");
        std::sync::Arc::new(Wal {
            core,
            writer: Mutex::new(Some(handle)),
        })
    }

    /// The WAL's counters.
    pub fn stats(&self) -> &WalStats {
        &self.core.stats
    }

    /// Appends one statement's framed chunk ([`record::TxnBuilder::finish`])
    /// and returns its commit sequence, to pass to [`Wal::wait_durable`].
    /// Called while the statement still holds its table guards.
    pub fn append_chunk(&self, chunk: Vec<u8>, records: u64) -> DbResult<u64> {
        let mut s = self.core.shared.lock().unwrap();
        if let Some(e) = &s.io_error {
            return Err(DbError::Persist {
                message: format!("WAL unavailable after I/O error: {e}"),
            });
        }
        if s.shutdown {
            return Err(DbError::Persist {
                message: "WAL is shut down".into(),
            });
        }
        self.core
            .stats
            .appends
            .fetch_add(records, Ordering::Relaxed);
        self.core
            .stats
            .bytes
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        self.core.stats.commits.fetch_add(1, Ordering::Relaxed);
        s.log_bytes += chunk.len() as u64;
        s.buf.extend_from_slice(&chunk);
        s.pending_commits += 1;
        s.next_seq += 1;
        let seq = s.next_seq;
        drop(s);
        self.core.work.notify_all();
        Ok(seq)
    }

    /// Blocks until commit `seq` is durable. A no-op unless the mode is
    /// [`SyncMode::EveryCommit`] — in the lossy modes an acknowledged
    /// commit is allowed to sit in the batch buffer.
    pub fn wait_durable(&self, seq: u64) -> DbResult<()> {
        if self.core.mode != SyncMode::EveryCommit {
            return Ok(());
        }
        let mut s = self.core.shared.lock().unwrap();
        loop {
            if let Some(e) = &s.io_error {
                return Err(DbError::Persist {
                    message: format!("WAL write failed: {e}"),
                });
            }
            if s.durable_seq >= seq {
                return Ok(());
            }
            s = self.core.done.wait(s).unwrap();
        }
    }

    /// Forces the log durable (written *and* fsynced) through commit
    /// `seq`, regardless of sync mode — the WAL-before-page barrier: a
    /// dirty page stamped with LSN `seq` may only reach `pages.db` once
    /// the log through `seq` is on stable storage. Blocks until the
    /// writer thread reports the fsync.
    pub fn flush_through(&self, seq: u64) -> DbResult<()> {
        let mut s = self.core.shared.lock().unwrap();
        loop {
            if let Some(e) = &s.io_error {
                return Err(DbError::Persist {
                    message: format!("WAL flush failed: {e}"),
                });
            }
            if s.synced_seq >= seq {
                return Ok(());
            }
            if s.shutdown {
                return Err(DbError::Persist {
                    message: "WAL is shut down".into(),
                });
            }
            // Re-armed every lap: the writer may consume a request that
            // predates our target sequence.
            s.sync_pending = true;
            self.core.work.notify_all();
            s = self.core.done.wait(s).unwrap();
        }
    }

    /// Bytes in the current log file (pending appends included).
    pub fn log_bytes(&self) -> u64 {
        self.core.shared.lock().unwrap().log_bytes
    }

    /// Current subscriber-visible progress (see [`WalProgress`]).
    pub fn progress(&self) -> WalProgress {
        let s = self.core.shared.lock().unwrap();
        WalProgress {
            rotations: s.rotations_done,
            flushed: s.flushed,
            seq: s.durable_seq,
            shutdown: s.shutdown,
        }
    }

    /// Blocks until progress advances past `last` (more flushed bytes, a
    /// rotation, or shutdown) or `timeout` elapses, and returns the
    /// progress either way. Subscriber threads park here between chunks
    /// instead of busy-polling the log file.
    pub fn wait_progress(&self, last: &WalProgress, timeout: Duration) -> WalProgress {
        let deadline = Instant::now() + timeout;
        let mut s = self.core.shared.lock().unwrap();
        loop {
            let advanced = s.rotations_done != last.rotations
                || s.flushed != last.flushed
                || s.shutdown
                || s.io_error.is_some();
            let now = Instant::now();
            if advanced || now >= deadline {
                return WalProgress {
                    rotations: s.rotations_done,
                    flushed: s.flushed,
                    seq: s.durable_seq,
                    shutdown: s.shutdown,
                };
            }
            s = self.core.done.wait_timeout(s, deadline - now).unwrap().0;
        }
    }

    /// Queues a log rotation and blocks until the writer has flushed and
    /// fsynced the old file and switched appends to `new_file`. Called
    /// by the checkpoint while it holds the all-table read pin, so no
    /// appender can race the rotation point.
    pub fn rotate(&self, new_file: Box<dyn WalFile>) -> DbResult<()> {
        let new_len = new_file.len();
        let mut s = self.core.shared.lock().unwrap();
        if let Some(e) = &s.io_error {
            return Err(DbError::Persist {
                message: format!("WAL unavailable after I/O error: {e}"),
            });
        }
        let target = s.rotations_done + 1;
        s.rotate_to = Some(new_file);
        s.log_bytes = new_len;
        drop(s);
        self.core.work.notify_all();
        let mut s = self.core.shared.lock().unwrap();
        loop {
            if s.rotations_done >= target {
                return Ok(());
            }
            if let Some(e) = &s.io_error {
                return Err(DbError::Persist {
                    message: format!("WAL rotation failed: {e}"),
                });
            }
            s = self.core.done.wait(s).unwrap();
        }
    }

    /// Stops the writer after a final flush (and fsync, unless the mode
    /// is `Off`). Idempotent.
    pub fn close(&self) {
        {
            let mut s = self.core.shared.lock().unwrap();
            s.shutdown = true;
        }
        self.core.work.notify_all();
        let handle = self.writer.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.close();
    }
}

/// The group-commit writer: drains the buffer, writes, and decides per
/// [`SyncMode`] when to fsync. One fsync covers every commit drained
/// since the previous fsync — that count is the group-commit batch.
fn writer_loop(wal: &Core, mut file: Box<dyn WalFile>) {
    let mut last_sync = Instant::now();
    let mut commits_since_sync: u64 = 0;
    loop {
        let (chunk, batch, seq_hi, rotate, shutdown, force_sync) = {
            let mut s = wal.shared.lock().unwrap();
            loop {
                if !s.buf.is_empty() || s.rotate_to.is_some() || s.shutdown || s.sync_pending {
                    break;
                }
                s = match wal.mode {
                    SyncMode::Interval(d) => wal.work.wait_timeout(s, d).unwrap().0,
                    _ => wal.work.wait(s).unwrap(),
                };
            }
            let chunk = std::mem::take(&mut s.buf);
            let batch = std::mem::take(&mut s.pending_commits);
            (
                chunk,
                batch,
                s.next_seq,
                s.rotate_to.take(),
                s.shutdown,
                std::mem::take(&mut s.sync_pending),
            )
        };

        let mut io_failed: Option<String> = None;
        if !chunk.is_empty() {
            if let Err(e) = file.append(&chunk) {
                io_failed = Some(e.to_string());
            }
        }
        commits_since_sync += batch;

        // Sync decision. Rotation and shutdown always seal the old file
        // (unless the mode is Off): records must not exist only in the
        // page cache when the file stops being the live log.
        let want_sync = io_failed.is_none()
            && (force_sync
                || match wal.mode {
                    SyncMode::Off => false,
                    SyncMode::EveryCommit => commits_since_sync > 0,
                    SyncMode::Interval(d) => {
                        commits_since_sync > 0
                            && (last_sync.elapsed() >= d || rotate.is_some() || shutdown)
                    }
                });
        let mut synced = false;
        if want_sync {
            match file.sync() {
                Ok(()) => {
                    wal.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    wal.stats
                        .group_commit_batch
                        .fetch_max(commits_since_sync, Ordering::Relaxed);
                    commits_since_sync = 0;
                    last_sync = Instant::now();
                    synced = true;
                }
                Err(e) => io_failed = Some(e.to_string()),
            }
        }

        let mut s = wal.shared.lock().unwrap();
        if let Some(e) = io_failed {
            if s.io_error.is_none() {
                s.io_error = Some(e);
            }
        } else {
            // In EveryCommit mode durability means "fsynced"; in the
            // lossy modes an acknowledged commit is merely written.
            s.durable_seq = seq_hi;
            if synced {
                s.synced_seq = seq_hi;
            }
            s.flushed += chunk.len() as u64;
            if let Some(new_file) = rotate {
                s.flushed = new_file.len();
                file = new_file;
                s.rotations_done += 1;
                commits_since_sync = 0;
            }
        }
        let stop = s.shutdown && s.buf.is_empty();
        drop(s);
        wal.done.notify_all();
        if stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::file::FailpointFile;
    use super::*;

    #[test]
    fn sync_mode_parses() {
        assert_eq!(SyncMode::parse("off"), Some(SyncMode::Off));
        assert_eq!(SyncMode::parse("every-commit"), Some(SyncMode::EveryCommit));
        assert_eq!(
            SyncMode::parse("interval:50"),
            Some(SyncMode::Interval(Duration::from_millis(50)))
        );
        assert_eq!(SyncMode::parse("nope"), None);
    }

    #[test]
    fn every_commit_waits_for_fsync() {
        let (file, state) = FailpointFile::new(b"H");
        let wal = Wal::start(Box::new(file), SyncMode::EveryCommit);
        let seq = wal.append_chunk(b"chunk-one".to_vec(), 2).unwrap();
        wal.wait_durable(seq).unwrap();
        {
            let s = state.lock().unwrap();
            assert_eq!(&s.bytes[..], b"Hchunk-one");
            assert_eq!(s.synced_len, s.bytes.len());
            assert!(s.syncs >= 1);
        }
        let snap = wal.stats().snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.appends, 2);
        assert!(snap.fsyncs >= 1);
        wal.close();
    }

    #[test]
    fn fsync_failure_is_sticky_and_loud() {
        let (file, state) = FailpointFile::new(b"H");
        state.lock().unwrap().fail_on_sync = Some(1);
        let wal = Wal::start(Box::new(file), SyncMode::EveryCommit);
        let seq = wal.append_chunk(b"doomed".to_vec(), 1).unwrap();
        let err = wal.wait_durable(seq).unwrap_err();
        assert!(matches!(err, DbError::Persist { .. }), "{err}");
        // Sticky: the next append is refused outright.
        assert!(wal.append_chunk(b"more".to_vec(), 1).is_err());
        wal.close();
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let (file, _state) = FailpointFile::new(b"H");
        let wal = Wal::start(Box::new(file), SyncMode::EveryCommit);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let chunk = format!("t{i}c{j}").into_bytes();
                        let seq = wal.append_chunk(chunk, 1).unwrap();
                        wal.wait_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = wal.stats().snapshot();
        assert_eq!(snap.commits, 400);
        assert!(snap.fsyncs >= 1);
        assert!(
            snap.fsyncs <= snap.commits,
            "fsyncs {} > commits {}",
            snap.fsyncs,
            snap.commits
        );
        wal.close();
    }

    #[test]
    fn rotation_seals_old_file_and_switches() {
        let (old, old_state) = FailpointFile::new(b"OLD");
        let (new, new_state) = FailpointFile::new(b"NEW");
        let wal = Wal::start(Box::new(old), SyncMode::EveryCommit);
        let seq = wal.append_chunk(b"-first".to_vec(), 1).unwrap();
        wal.wait_durable(seq).unwrap();
        wal.rotate(Box::new(new)).unwrap();
        let seq = wal.append_chunk(b"-second".to_vec(), 1).unwrap();
        wal.wait_durable(seq).unwrap();
        wal.close();
        assert_eq!(&old_state.lock().unwrap().bytes[..], b"OLD-first");
        assert_eq!(&new_state.lock().unwrap().bytes[..], b"NEW-second");
        let old_s = old_state.lock().unwrap();
        assert_eq!(
            old_s.synced_len,
            old_s.bytes.len(),
            "rotation must seal the old log"
        );
    }

    #[test]
    fn flush_through_forces_fsync_in_off_mode() {
        let (file, state) = FailpointFile::new(b"H");
        let wal = Wal::start(Box::new(file), SyncMode::Off);
        let seq = wal.append_chunk(b"page-barrier".to_vec(), 1).unwrap();
        wal.flush_through(seq).unwrap();
        {
            let s = state.lock().unwrap();
            assert_eq!(&s.bytes[..], b"Hpage-barrier");
            assert_eq!(s.synced_len, s.bytes.len(), "barrier must fsync");
            assert!(s.syncs >= 1);
        }
        // Already-synced sequences return immediately.
        wal.flush_through(seq).unwrap();
        wal.close();
    }

    #[test]
    fn close_flushes_pending_in_off_mode() {
        let (file, state) = FailpointFile::new(b"H");
        let wal = Wal::start(Box::new(file), SyncMode::Off);
        wal.append_chunk(b"tail".to_vec(), 1).unwrap();
        wal.close();
        assert_eq!(&state.lock().unwrap().bytes[..], b"Htail");
    }
}
