//! Replication primitives shared by both sides of WAL shipping.
//!
//! A primary streams its log to replicas as raw framed WAL bytes — the
//! exact bytes the group-commit writer flushed, cut at frame boundaries
//! (never mid-frame, thanks to [`crate::wal::record::whole_frames_len`]).
//! This module holds what both ends need:
//!
//! * [`LogRead`] — the primary's answer to "give me log bytes from
//!   `(generation, offset)`": a chunk plus the durable-commit watermark
//!   it reaches, or *restart* when that generation has been checkpointed
//!   away and the replica must re-seed from a snapshot.
//! * [`ReplicaApplier`] — the replica's continuous replay cursor: feed
//!   it chunk bytes in arrival order and it applies every complete
//!   BEGIN..COMMIT transaction through the same code recovery replay
//!   uses, publishing MVCC versions so snapshot reads (and `AS OF`) see
//!   the shipped data. Bytes after the last COMMIT stay buffered until
//!   the rest of the transaction arrives.
//! * [`ReplStats`] — the `repl.*` gauges/counters for `SHOW STATS` and
//!   the wire METRICS frame, maintained by the serving loop on a
//!   primary and the apply loop on a replica.
//!
//! The transport (frames, subscribe/ack handshake, reconnect) lives in
//! the server and client crates; nothing here does I/O.

use crate::error::{DbError, DbResult};
use crate::session::{Database, Session};
use crate::storage::{SharedTable, Table};
use crate::wal::record::{self, MAX_RECORD_LEN};
use crate::wal::{recover, RecoveryReport};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a primary-side log read at `(generation, offset)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRead {
    /// Log bytes from the requested offset, cut at a frame boundary.
    /// `bytes` is empty when the subscriber is caught up (heartbeat).
    /// `watermark` is the newest durable commit sequence the chunk
    /// reaches — `0` when the cut landed short of the durable frontier,
    /// in which case the receiver must not ack a sequence for it.
    Chunk { bytes: Vec<u8>, watermark: u64 },
    /// The requested generation was checkpointed away (or never
    /// existed); the subscriber must re-seed from the current snapshot.
    Restart,
}

/// Point-in-time copy of [`ReplStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplSnapshot {
    pub chunks_shipped: u64,
    pub bytes_shipped: u64,
    pub apply_lag_seq: u64,
    pub reconnects: u64,
    pub last_seq: u64,
}

/// Replication counters and gauges, owned by [`Database`] so `SHOW
/// STATS` and the metrics frame can report them from either role.
///
/// On a primary: `chunks_shipped`/`bytes_shipped` count outbound WAL
/// chunks, `apply_lag_seq` is the worst per-replica lag (durable seq
/// minus acked seq, max across connected replicas), `last_seq` tracks
/// the durable commit frontier. On a replica: `reconnects` counts
/// stream re-establishments and `last_seq` is the newest primary commit
/// sequence known fully applied locally.
#[derive(Debug, Default)]
pub struct ReplStats {
    chunks_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    apply_lag_seq: AtomicU64,
    reconnects: AtomicU64,
    last_seq: AtomicU64,
}

impl ReplStats {
    /// Counts one shipped WAL or snapshot chunk of `bytes` bytes.
    pub fn record_chunk(&self, bytes: u64) {
        self.chunks_shipped.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one replication stream re-establishment.
    pub fn record_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the worst-replica apply lag gauge (commit sequences).
    pub fn set_lag(&self, lag: u64) {
        self.apply_lag_seq.store(lag, Ordering::Relaxed);
    }

    /// Sets the newest commit sequence known applied on this node.
    pub fn set_last_seq(&self, seq: u64) {
        self.last_seq.store(seq, Ordering::Relaxed);
    }

    /// The newest commit sequence known applied on this node.
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every counter/gauge.
    pub fn snapshot(&self) -> ReplSnapshot {
        ReplSnapshot {
            chunks_shipped: self.chunks_shipped.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            apply_lag_seq: self.apply_lag_seq.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            last_seq: self.last_seq.load(Ordering::Relaxed),
        }
    }
}

/// Continuous replay cursor for a replica: feeds shipped WAL bytes into
/// the recovery apply path, transaction by transaction.
///
/// The position `(generation, offset)` names the first log byte not yet
/// applied — offsets count from the start of the log file, so a fresh
/// generation begins at [`record::LOG_HEADER_LEN`]. Fed bytes beyond
/// the last complete COMMIT stay buffered; [`ReplicaApplier::
/// discard_partial`] drops them (torn stream), after which the stream
/// resumes from [`ReplicaApplier::position`].
pub struct ReplicaApplier {
    db: Arc<Database>,
    session: Session,
    generation: u64,
    offset: u64,
    buf: Vec<u8>,
    report: RecoveryReport,
    commits_applied: u64,
}

impl ReplicaApplier {
    /// Creates an applier with no position: generation `0` never
    /// matches a live log (generations start at 1), so the first
    /// subscribe re-seeds from the primary's snapshot.
    pub fn new(db: &Arc<Database>) -> ReplicaApplier {
        ReplicaApplier {
            db: Arc::clone(db),
            session: db.repl_session(),
            generation: 0,
            offset: record::LOG_HEADER_LEN as u64,
            buf: Vec::new(),
            report: RecoveryReport::default(),
            commits_applied: 0,
        }
    }

    /// The resume position: first log byte not yet applied.
    pub fn position(&self) -> (u64, u64) {
        (self.generation, self.offset)
    }

    /// Complete transactions applied over this applier's lifetime.
    pub fn commits_applied(&self) -> u64 {
        self.commits_applied
    }

    /// Cumulative replay report (ops skipped, records replayed).
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// True when every fed byte has been applied — the acked watermark
    /// may advance to the last chunk's watermark only while drained.
    pub fn is_drained(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes fed but not yet applied (the tail of an incomplete
    /// transaction). The next stream bytes must land at
    /// `position().1 + buffered()`.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Drops buffered bytes of an incomplete transaction after a torn
    /// stream; the next subscribe resumes from [`Self::position`].
    pub fn discard_partial(&mut self) {
        self.buf.clear();
    }

    /// Replaces the replica's entire state with a checkpoint snapshot
    /// from the primary and repositions the cursor at the head of that
    /// snapshot's log generation.
    pub fn reset_to_snapshot(&mut self, generation: u64, snapshot: &[u8]) -> DbResult<()> {
        self.db.load_snapshot(snapshot)?;
        self.db.republish_all();
        self.generation = generation;
        self.offset = record::LOG_HEADER_LEN as u64;
        self.buf.clear();
        Ok(())
    }

    /// Feeds the next bytes of the stream (must continue exactly at
    /// `position + buffered`), applying every complete BEGIN..COMMIT
    /// transaction. Returns the number of transactions applied. A
    /// malformed frame or CRC mismatch is fatal: shipped bytes come
    /// from CRC-valid flushed frames, so damage means the stream (or
    /// the primary's log) is corrupt.
    pub fn feed(&mut self, bytes: &[u8]) -> DbResult<u64> {
        self.buf.extend_from_slice(bytes);
        let mut commits = 0u64;
        let mut pos = 0usize; // scan cursor into buf
        let mut consumed = 0usize; // bytes applied (through last COMMIT)
        let mut pending: Vec<record::WalRecord> = Vec::new();
        loop {
            let rest = &self.buf[pos..];
            if rest.len() < 8 {
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            if len == 0 || len > MAX_RECORD_LEN {
                return Err(DbError::Persist {
                    message: format!("replication stream: bad frame length {len}"),
                });
            }
            let len = len as usize;
            if rest.len() < 8 + len {
                break; // incomplete frame: wait for more bytes
            }
            let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let payload = &rest[8..8 + len];
            if record::crc32(payload) != crc {
                return Err(DbError::Persist {
                    message: "replication stream: frame CRC mismatch".into(),
                });
            }
            let rec = self
                .db
                .with_catalog(|cat| record::decode_payload(cat, payload))?;
            pos += 8 + len;
            match rec {
                record::WalRecord::Begin { .. } => {
                    pending.clear();
                    pending.push(rec);
                }
                record::WalRecord::Commit { .. } => {
                    self.apply_txn(std::mem::take(&mut pending));
                    commits += 1;
                    consumed = pos;
                }
                other => pending.push(other),
            }
        }
        self.buf.drain(..consumed);
        self.offset += consumed as u64;
        self.commits_applied += commits;
        Ok(commits)
    }

    /// Applies one committed transaction's records and publishes the
    /// touched tables as a single MVCC commit, mirroring the atomic
    /// publication the primary performed. DDL publishes itself through
    /// the session's normal execution path.
    fn apply_txn(&mut self, ops: Vec<record::WalRecord>) {
        let mut touched: BTreeSet<String> = BTreeSet::new();
        for op in ops {
            match &op {
                record::WalRecord::Insert { table, .. }
                | record::WalRecord::Update { table, .. }
                | record::WalRecord::Delete { table, .. } => {
                    touched.insert(table.clone());
                }
                _ => {}
            }
            recover::apply(&self.db, &self.session, op, &mut self.report);
        }
        let items: Vec<(SharedTable, Arc<Table>)> = touched
            .iter()
            .filter_map(|name| self.db.with_storage(|s| s.shared_table(name)).ok())
            .map(|cell| {
                let snap = Arc::new(cell.read().share());
                (cell, snap)
            })
            .collect();
        self.db.publish_prepared(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    /// Frames one payload exactly as the log writer does.
    fn frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.put_u32_le(payload.len() as u32);
        out.put_u32_le(record::crc32(payload));
        out.put_slice(payload);
    }

    /// An empty transaction chunk: BEGIN(txn) + COMMIT(txn).
    fn empty_txn_chunk(txn: u64) -> Vec<u8> {
        let mut begin = Vec::new();
        begin.put_u8(1); // KIND_BEGIN
        begin.put_u64_le(txn);
        let mut commit = Vec::new();
        commit.put_u8(2); // KIND_COMMIT
        commit.put_u64_le(txn);
        let mut out = Vec::new();
        frame(&mut out, &begin);
        frame(&mut out, &commit);
        out
    }

    #[test]
    fn stats_snapshot() {
        let s = ReplStats::default();
        s.record_chunk(100);
        s.record_chunk(28);
        s.record_reconnect();
        s.set_lag(3);
        s.set_last_seq(41);
        let snap = s.snapshot();
        assert_eq!(snap.chunks_shipped, 2);
        assert_eq!(snap.bytes_shipped, 128);
        assert_eq!(snap.apply_lag_seq, 3);
        assert_eq!(snap.reconnects, 1);
        assert_eq!(snap.last_seq, 41);
    }

    #[test]
    fn feed_buffers_partial_txn_and_advances_on_commit() {
        let db = Database::new();
        let mut a = ReplicaApplier::new(&db);
        let start = a.position();
        let chunk = empty_txn_chunk(7);

        // Half a chunk: nothing applies, position holds, not drained.
        let cut = chunk.len() / 2;
        assert_eq!(a.feed(&chunk[..cut]).unwrap(), 0);
        assert_eq!(a.position(), start);
        assert!(!a.is_drained());

        // The rest: one transaction applies, offset advances past it.
        assert_eq!(a.feed(&chunk[cut..]).unwrap(), 1);
        assert_eq!(a.position(), (start.0, start.1 + chunk.len() as u64));
        assert!(a.is_drained());
        assert_eq!(a.commits_applied(), 1);
    }

    #[test]
    fn discard_partial_rewinds_to_last_commit_boundary() {
        let db = Database::new();
        let mut a = ReplicaApplier::new(&db);
        let first = empty_txn_chunk(1);
        let second = empty_txn_chunk(2);

        let mut stream = first.clone();
        stream.extend_from_slice(&second[..5]); // torn mid-frame
        assert_eq!(a.feed(&stream).unwrap(), 1);
        assert!(!a.is_drained());

        // Torn stream: drop the partial frame, resume at the boundary.
        a.discard_partial();
        assert!(a.is_drained());
        let (_, offset) = a.position();
        assert_eq!(offset, record::LOG_HEADER_LEN as u64 + first.len() as u64);
        assert_eq!(a.feed(&second).unwrap(), 1);
        assert_eq!(a.commits_applied(), 2);
    }

    #[test]
    fn corrupt_frame_is_fatal() {
        let db = Database::new();
        let mut a = ReplicaApplier::new(&db);
        let mut chunk = empty_txn_chunk(3);
        let n = chunk.len();
        chunk[n - 1] ^= 0xFF; // flip a payload byte: CRC mismatch
        assert!(a.feed(&chunk).is_err());
    }
}
