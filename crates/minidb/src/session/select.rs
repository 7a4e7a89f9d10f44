//! The one read path: read cuts, pinning, and executing and rendering
//! every SELECT's plan.

use super::{table_not_found, QueryResult, Session, StatementOutcome};
use crate::binder::{Binder, Scope};
use crate::cache::CachedPlan;
use crate::catalog::{Catalog, ExecCtx};
use crate::error::{DbError, DbResult};
use crate::exec;
use crate::obs::OpProfile;
use crate::pin::{PinnedTables, TableSet};
use crate::plan::PlannedSelect;
use crate::sql::ast::{AsOf, Expr, SelectStmt, Statement};
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

impl Session {
    /// Executes a SELECT's plan against its pinned tables and renders the
    /// result rows or, with `profile` (`"fresh"` or `"cached"`, the plan's
    /// source), the EXPLAIN ANALYZE per-operator profile. `started` is
    /// when the statement began pinning.
    pub(super) fn run_select(
        &self,
        sql: &str,
        select: &PlannedSelect,
        pinned: PinnedTables<'_>,
        ctx: &ExecCtx,
        started: Instant,
        profile: Option<&str>,
    ) -> DbResult<StatementOutcome> {
        let plan = &select.plan;
        // Access-path accounting only, unless EXPLAIN ANALYZE asks for
        // per-operator timing.
        let prof = match profile {
            Some(_) => OpProfile::timed(plan),
            None => OpProfile::paths_only(plan),
        };
        let rows = exec::execute_with(plan, &pinned, ctx, Some(&prof))?;
        prof.charge_scans(&self.metrics);
        self.metrics
            .record_select(rows.len() as u64, started.elapsed());
        if let Some(source) = profile {
            let mut lines = prof.render();
            lines.push(format!(
                "returned {} row(s) in {:.1?} [pinned {} table(s), lock-wait {:.1?}] [plan: {source}]",
                rows.len(),
                started.elapsed(),
                pinned.tables_pinned(),
                pinned.lock_wait(),
            ));
            return Ok(plan_lines(lines));
        }
        // Release the pin before the slow-query hook: it is user code and
        // may open its own statements.
        drop(pinned);
        self.observe_slow(sql, rows.len() as u64, started.elapsed(), || {
            plan.describe()
        });
        Ok(StatementOutcome::Rows(QueryResult {
            columns: select.columns.clone(),
            rows,
        }))
    }

    /// The cut a SELECT reads at: its `AS OF` clause, else the open
    /// transaction, else the latest commit.
    pub(super) fn read_cut(
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
        // The operand is a constant expression: bound against no tables,
        // so the binder refuses a column or a subquery in it.
        let catalog = self.db.catalog.read();
        let binder = Binder::new(&catalog, params);
        let eval = |e: &Expr| binder.bind(e, &Scope::default())?.eval(ctx, &[]);
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
    pub(super) fn pin_cut<'s>(
        &self,
        set: &'s TableSet,
        cut: ReadCut,
    ) -> DbResult<PinnedTables<'s>> {
        let pinned = match cut {
            ReadCut::Latest => self.db.pin_latest(set),
            ReadCut::Txn => {
                let txn = self.txn.lock();
                txn.as_ref()
                    .ok_or_else(|| DbError::exec("no transaction is open"))?
                    .pin(set)?
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
}

/// The point in time a statement reads at.
#[derive(Clone, Copy)]
pub(super) enum ReadCut {
    /// The newest commit, pinned once for the whole statement.
    Latest,
    /// The open transaction: its workspace over its snapshot.
    Txn,
    /// `AS OF COMMIT n`.
    Commit(u64),
    /// `AS OF <instant>`: the newest commit at or before it.
    Instant(i64),
}

/// What a fresh plan is bound with, and the stamps a cache fill of it
/// carries.
pub(super) struct Binding<'q> {
    pub(super) params: &'q HashMap<String, Value>,
    pub(super) param_sig: Vec<(String, DataType)>,
    pub(super) generation: u64,
    /// The key the cache probe missed: the statement text without its
    /// `EXPLAIN [ANALYZE]` prefix.
    pub(super) key: &'q str,
    /// What the text's `EXPLAIN [ANALYZE]` prefix told the probe.
    pub(super) render: Render,
}

/// Where a statement's plan comes from.
pub(super) enum PlanSource<'q> {
    /// A plan-cache hit.
    Cached(Arc<CachedPlan>),
    /// The parsed SELECT or write, to be planned against the pinned
    /// tables, and whether its plan may fill the cache.
    Fresh(&'q Statement, Binding<'q>, bool),
}

/// What a SELECT or write statement returns.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Render {
    /// The result rows, or a write's affected-row count.
    Rows,
    /// `EXPLAIN`: the plan, not executed.
    Plan,
    /// `EXPLAIN ANALYZE`: the executed plan's per-operator profile.
    Profile,
}

impl Render {
    pub(super) fn of(explain: bool, analyze: bool) -> Render {
        match (explain, analyze) {
            (false, _) => Render::Rows,
            (true, false) => Render::Plan,
            (true, true) => Render::Profile,
        }
    }
}

/// A one-column `plan` result: what EXPLAIN returns.
pub(super) fn plan_lines(lines: Vec<String>) -> StatementOutcome {
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
