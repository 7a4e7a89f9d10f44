//! INSERT, UPDATE and DELETE: change sets, logged then applied.

use super::{table_not_found, Session, StatementOutcome};
use crate::catalog::ExecCtx;
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::obs::OpProfile;
use crate::pin::{PinnedTables, TableSet, TableSource};
use crate::plan::{DmlPlan, Planner};
use crate::sql::ast::Statement;
use crate::storage::Table;
use crate::value::{Row, Value};
use crate::wal::record::TxnBuilder;
use std::collections::HashMap;
use std::time::Instant;

/// One row change — what every INSERT, UPDATE and DELETE computes.
/// Autocommit logs a statement's changes and applies them to the live
/// table; a transaction applies them to its workspace and logs them all
/// at COMMIT.
#[derive(Clone)]
pub(super) enum Change {
    Insert { rowid: usize, row: Row },
    Update { rowid: usize, row: Row },
    Delete { rowid: usize },
}

impl Change {
    pub(super) fn log(&self, b: &mut TxnBuilder<'_>, table: &str) -> DbResult<()> {
        match self {
            Change::Insert { rowid, row } => b.insert(table, *rowid as u64, row),
            Change::Update { rowid, row } => b.update(table, *rowid as u64, row),
            Change::Delete { rowid } => b.delete(table, *rowid as u64),
        }
    }

    /// Applies the change to the table its set was computed against.
    pub(super) fn apply(self, t: &mut Table) -> DbResult<()> {
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
    /// Commits an autocommit INSERT, UPDATE or DELETE from its plan: the
    /// change set is computed under the target's write guard, logged as
    /// one WAL chunk, applied to the live table and published. Logging
    /// comes first: a chunk that never reaches the log leaves memory
    /// untouched, so the statement is refused cleanly instead of
    /// surviving unlogged. `started` is when the statement began pinning.
    pub(super) fn run_write(
        &self,
        sql: &str,
        dml: &DmlPlan,
        mut pinned: PinnedTables<'_>,
        ctx: &ExecCtx,
        started: Instant,
    ) -> DbResult<StatementOutcome> {
        let catalog = self.db.catalog.read();
        let changes = self.changes(dml, &pinned, ctx)?;
        let t = pinned.table_mut(&dml.table)?;
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
        self.observe_dml(sql, dml, n, started);
        Ok(StatementOutcome::Affected(n))
    }

    /// INSERT, UPDATE or DELETE inside a transaction: planned at the
    /// transaction cut (never cached), its change set computed against
    /// the workspace and applied to it; COMMIT logs it.
    pub(super) fn txn_write(
        &self,
        sql: &str,
        mut set: TableSet,
        stmt: &Statement,
        params: &HashMap<String, Value>,
        ctx: &ExecCtx,
    ) -> DbResult<StatementOutcome> {
        let started = Instant::now();
        let mut guard = self.txn.lock();
        let txn = guard
            .as_mut()
            .ok_or_else(|| DbError::exec("no transaction is open"))?;
        // The statement reads every table, its target included, at the
        // transaction cut; the target is copied into the workspace first.
        if let Some(target) = set.demote_writes() {
            self.txn_touch(txn, &target)?;
        }
        let pinned = txn.pin(&set)?;
        let catalog = self.db.catalog.read();
        let dml = Planner::new(&catalog, &pinned, params, ctx.clone()).plan_dml(stmt)?;
        let changes = self.changes(&dml, &pinned, ctx)?;
        drop(pinned);
        let key = dml.table.to_ascii_lowercase();
        let tt = txn
            .tables
            .get_mut(&key)
            .ok_or_else(|| table_not_found(&key))?;
        let n = changes.len();
        for c in changes {
            c.clone().apply(&mut tt.work)?;
            txn.ops.push((tt.name.clone(), c));
        }
        // The slow-query hook is user code and may run statements itself.
        drop(catalog);
        drop(guard);
        self.observe_dml(sql, &dml, n, started);
        Ok(StatementOutcome::Affected(n))
    }

    /// A write's change set against `src`, which holds the target table,
    /// computed without mutating anything. What it reads — an INSERT's
    /// query, an UPDATE's or DELETE's victim scan — is charged to this
    /// session's scan counters like any SELECT's.
    fn changes(
        &self,
        dml: &DmlPlan,
        src: &dyn TableSource,
        ctx: &ExecCtx,
    ) -> DbResult<Vec<Change>> {
        let prof = dml.input().map(OpProfile::paths_only);
        let rows = exec::execute_dml(dml, src, ctx, prof.as_ref())?;
        if let Some(prof) = prof {
            prof.charge_scans(&self.metrics);
        }
        let insert = dml.is_insert();
        Ok(rows
            .into_iter()
            .map(|(rowid, row)| match row {
                Some(row) if insert => Change::Insert { rowid, row },
                Some(row) => Change::Update { rowid, row },
                None => Change::Delete { rowid },
            })
            .collect())
    }

    /// Write observation: affected-row count, latency histogram, and the
    /// slow-query hook — INSERT/UPDATE/DELETE are first-class citizens
    /// of the slow-query log, not just SELECT.
    fn observe_dml(&self, sql: &str, dml: &DmlPlan, rows: usize, started: Instant) {
        let elapsed = started.elapsed();
        self.metrics.record_dml(rows as u64, elapsed);
        self.observe_slow(sql, rows as u64, elapsed, || dml.describe());
    }
}
