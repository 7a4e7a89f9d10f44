//! MVCC commit publication and snapshot pins, and the session's
//! multi-statement transactions (`BEGIN` … `COMMIT`/`ROLLBACK`).

use super::write::Change;
use super::{table_not_found, Database, Session, StatementOutcome};
use crate::error::{DbError, DbResult};
use crate::obs::Metric;
use crate::pin::{PinnedTables, TableSet};
use crate::storage::{SharedTable, Table};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Database-wide MVCC commit state: the global commit counter, the
/// monotone commit-instant clock, and the registry of pinned snapshots.
pub(super) struct MvccState {
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
    pub(super) pinned: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl MvccState {
    pub(super) fn new() -> MvccState {
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
    pub(super) fn wall_instant() -> i64 {
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

impl Database {
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
}

/// A session's open multi-statement transaction.
pub(super) struct TxnState {
    /// The snapshot everything in the transaction reads; pinning it
    /// also holds back version garbage collection.
    pin: SnapshotPin,
    /// Workspace copies of every touched table, keyed by lowercase
    /// name. The transaction's statements read and write these; nobody
    /// else sees them until COMMIT.
    pub(super) tables: HashMap<String, TxnTable>,
    /// Every applied change in order, with its table's canonical name —
    /// COMMIT logs them as one WAL chunk and applies them to the live
    /// tables.
    pub(super) ops: Vec<(String, Change)>,
}

/// One table's private workspace inside a transaction.
pub(super) struct TxnTable {
    cell: SharedTable,
    /// Version sequence the workspace detached from. COMMIT refuses
    /// (write-write conflict) if the chain moved past it.
    base_seq: u64,
    /// The private copy all in-transaction statements operate on
    /// ([`Table::detach`]: shared slot chunks, private indexes).
    pub(super) work: Table,
    /// Canonical table name, for WAL records.
    pub(super) name: String,
}

impl Session {
    // ----- Transactions ----------------------------------------------

    /// `BEGIN`: pins a snapshot and opens a statement-buffering
    /// transaction on this session.
    pub(super) fn txn_begin(&self) -> DbResult<StatementOutcome> {
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
    pub(super) fn txn_rollback(&self) -> DbResult<StatementOutcome> {
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
    pub(super) fn txn_commit(&self) -> DbResult<StatementOutcome> {
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

    /// Materializes the table under the lowercase `key` in the
    /// transaction workspace on first touch: a detached copy of the
    /// table's version at the transaction snapshot.
    pub(super) fn txn_touch(&self, txn: &mut TxnState, key: &str) -> DbResult<()> {
        if txn.tables.contains_key(key) {
            return Ok(());
        }
        let cell = self.db.registry.read().shared_table(key)?;
        let (base_seq, snap) = cell
            .version_at(txn.pin.seq())
            .ok_or_else(|| table_not_found(key))?;
        let name = snap.schema.name.clone();
        txn.tables.insert(
            key.to_owned(),
            TxnTable {
                cell,
                base_seq,
                work: snap.detach(),
                name,
            },
        );
        Ok(())
    }
}

impl TxnState {
    /// Pins `set` at the transaction cut: a table the transaction has
    /// touched reads its workspace, any other its version at the
    /// transaction's snapshot.
    pub(super) fn pin<'s>(&self, set: &'s TableSet) -> DbResult<PinnedTables<'s>> {
        let seq = self.pin.seq();
        set.pin_with(None, |key, cell| match self.tables.get(key) {
            Some(tt) => Ok(Arc::new(tt.work.share())),
            None => cell.snapshot_at(seq).ok_or_else(|| table_not_found(key)),
        })
    }
}
