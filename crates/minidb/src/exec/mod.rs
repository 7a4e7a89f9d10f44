//! Plan execution: a vectorized batch engine over column vectors.
//!
//! Every plan node opens as a [`BatchStream`], and every scalar
//! application in its expressions carries a batch kernel — the one a
//! blade registered, else the scalar behind [`elementwise`] — so there
//! is one executor and no capability check in front of it.
//!
//! [`execute_rows`] runs the same plans on the Volcano row interpreter
//! in `row_fallback`. That interpreter is the reference semantics the
//! batch engine must match byte for byte (the parity tests and the
//! benchmark's replay call it); no statement a session runs reaches it.

pub mod batch;
mod row_fallback;
pub mod vector_ops;

pub use batch::{Batch, BatchStream, Vector, BATCH_ROWS};
pub use vector_ops::{elementwise, Bitmap};

use crate::catalog::ExecCtx;
use crate::error::{DbError, DbResult};
use crate::obs::{AccessPath, OpProfile};
use crate::pin::TableSource;
use crate::plan::Plan;
use crate::value::{GroupKey, Row, Value};
use std::collections::HashMap;
use std::time::Instant;

use batch::{
    aggregate_rows, distinct_rows, drain_rows, sort_rows, BatchChain, BatchFilter, BatchHashJoin,
    BatchLimit, BatchOffset, BatchProject, BatchScan, BatchTake, BatchToRow, ColumnScan,
    MaterializedBatches,
};

/// A pull-based row stream.
pub trait RowStream {
    /// Produces the next row, `None` at end of stream.
    fn next_row(&mut self) -> DbResult<Option<Row>>;
}

/// Executes a plan to completion, materializing all result rows.
pub fn execute(plan: &Plan, src: &dyn TableSource, ctx: &ExecCtx) -> DbResult<Vec<Row>> {
    execute_with(plan, src, ctx, None)
}

/// [`execute`] with an optional operator profile collecting runtime
/// statistics (see [`OpProfile`]); the profile must have been built from
/// this same plan.
pub fn execute_with(
    plan: &Plan,
    src: &dyn TableSource,
    ctx: &ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Vec<Row>> {
    drain_rows(open_batch(plan, src, ctx, prof)?.as_mut())
}

/// Executes a plan on the reference row interpreter instead of the batch
/// engine: the oracle [`execute`] is checked against. A profile, when
/// given, receives each scan's access path and rows touched and nothing
/// else.
pub fn execute_rows(
    plan: &Plan,
    src: &dyn TableSource,
    ctx: &ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Vec<Row>> {
    row_fallback::execute(plan, src, ctx, prof)
}

/// Opens a plan into a row stream over the batch engine. Scans snapshot
/// their table at open time, so DML against the same table during
/// iteration cannot corrupt the stream.
pub fn open<'a>(
    plan: &'a Plan,
    src: &dyn TableSource,
    ctx: &'a ExecCtx,
) -> DbResult<Box<dyn RowStream + 'a>> {
    open_with(plan, src, ctx, None)
}

/// [`open`] with an optional operator profile. Scan nodes record their
/// access path and rows touched into the matching profile node and every
/// operator counts its pulls, batches and rows; when the profile is
/// timed (`EXPLAIN ANALYZE`), inclusive wall time is recorded as well.
pub fn open_with<'a>(
    plan: &'a Plan,
    src: &dyn TableSource,
    ctx: &'a ExecCtx,
    prof: Option<&'a OpProfile>,
) -> DbResult<Box<dyn RowStream + 'a>> {
    Ok(Box::new(BatchToRow::new(open_batch(plan, src, ctx, prof)?)))
}

/// Opens one plan node, and recursively its children, as a batch stream.
fn open_batch<'a>(
    plan: &'a Plan,
    src: &dyn TableSource,
    ctx: &'a ExecCtx,
    prof: Option<&'a OpProfile>,
) -> DbResult<Box<dyn BatchStream + 'a>> {
    // Open-time work (scan materialization, hash build, aggregation) is
    // charged to this node; child opens record their own share, keeping
    // all reported times inclusive.
    let t0 = match prof {
        Some(p) if p.is_timed() => Some(Instant::now()),
        _ => None,
    };
    let child = |p: &'a Plan, i: usize| open_batch(p, src, ctx, prof.map(|pr| pr.child(i)));
    let stream: Box<dyn BatchStream + 'a> = match plan {
        // One row of no columns: `SELECT 1` projects its constants over it.
        Plan::Nothing => Box::new(MaterializedBatches::new(vec![Vec::new()], 0)),
        Plan::Scan {
            table,
            index_eq,
            index_overlap,
            index_range,
            filter,
            project,
            arity,
        } => {
            if index_eq.is_none() && index_overlap.is_none() && index_range.is_none() {
                // Full scans read columns straight out of the table's
                // version slots — no per-row materialization.
                let t = src.table(table)?;
                let (count, cols) = t.scan_columns(project.as_deref())?;
                if let Some(p) = prof {
                    p.record_scan(AccessPath::FullScan, count as u64);
                }
                Box::new(ColumnScan::new(count, cols, filter, ctx))
            } else {
                let (rows, path) = materialize_scan(
                    table,
                    index_eq,
                    index_overlap,
                    index_range,
                    project,
                    src,
                    ctx,
                )?;
                if let Some(p) = prof {
                    p.record_scan(path, rows.len() as u64);
                }
                Box::new(BatchScan {
                    rows,
                    pos: 0,
                    arity: *arity,
                    filter,
                    ctx,
                })
            }
        }
        Plan::Filter { input, pred } => Box::new(BatchFilter {
            input: child(input, 0)?,
            pred,
            ctx,
        }),
        Plan::Project { input, exprs } => Box::new(BatchProject {
            input: child(input, 0)?,
            exprs,
            ctx,
        }),
        Plan::NlJoin {
            left,
            right,
            filter,
        } => {
            // A hash join with no keys: the materialized right side is
            // the one bucket every left row probes, and the join
            // predicate is the residual filter.
            let right_rows = drain_rows(child(right, 1)?.as_mut())?;
            Box::new(BatchHashJoin::new(
                child(left, 0)?,
                HashMap::from([(GroupKey(Vec::new()), right_rows)]),
                &[],
                filter,
                ctx,
                plan.arity(),
            ))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            filter,
        } => {
            // Build on the right, probe with the left.
            let mut table: HashMap<GroupKey, Vec<Row>> = HashMap::new();
            for row in drain_rows(child(right, 1)?.as_mut())? {
                let mut key = Vec::with_capacity(right_keys.len());
                let mut has_null = false;
                for k in right_keys {
                    let v = k.eval(ctx, &row)?;
                    has_null |= v.is_null();
                    key.push(v);
                }
                if has_null {
                    continue; // NULL never matches an equi-join key
                }
                table.entry(GroupKey(key)).or_default().push(row);
            }
            Box::new(BatchHashJoin::new(
                child(left, 0)?,
                table,
                left_keys,
                filter,
                ctx,
                plan.arity(),
            ))
        }
        Plan::Aggregate { input, keys, aggs } => {
            let rows = aggregate_rows(child(input, 0)?.as_mut(), ctx, keys, aggs)?;
            Box::new(MaterializedBatches::new(rows, plan.arity()))
        }
        Plan::Distinct { input, visible } => {
            let rows = distinct_rows(child(input, 0)?.as_mut(), *visible)?;
            Box::new(MaterializedBatches::new(rows, plan.arity()))
        }
        Plan::Sort { input, keys } => {
            let rows = sort_rows(child(input, 0)?.as_mut(), keys)?;
            Box::new(MaterializedBatches::new(rows, plan.arity()))
        }
        Plan::Take { input, keep } => Box::new(BatchTake {
            input: child(input, 0)?,
            keep: *keep,
        }),
        Plan::Limit { input, n } => Box::new(BatchLimit {
            input: child(input, 0)?,
            remaining: *n,
        }),
        Plan::Offset { input, n } => Box::new(BatchOffset {
            input: child(input, 0)?,
            to_skip: *n,
        }),
        Plan::Union { inputs } => {
            let mut streams = Vec::with_capacity(inputs.len());
            for (i, arm) in inputs.iter().enumerate() {
                streams.push(child(arm, i)?);
            }
            Box::new(BatchChain {
                streams,
                current: 0,
            })
        }
    };
    if let (Some(p), Some(t0)) = (prof, t0) {
        p.record_open_nanos(t0.elapsed().as_nanos() as u64);
    }
    // Counting is once per ~1024 rows, so operators are instrumented
    // whenever a profile exists — this is what feeds the `exec.batches`
    // metric even for plain SELECTs.
    Ok(match prof {
        Some(p) => Box::new(InstrumentedBatch {
            inner: stream,
            prof: p,
        }),
        None => stream,
    })
}

/// Materializes the rows a scan node will stream, honoring the planned
/// index probe (with runtime fallback when a deferred parameter can't
/// drive it) and the pushed-down projection. Returns the access path
/// actually taken.
#[allow(clippy::type_complexity)]
fn materialize_scan(
    table: &str,
    index_eq: &Option<(usize, crate::binder::BoundExpr)>,
    index_overlap: &Option<(usize, crate::binder::BoundExpr)>,
    index_range: &Option<Box<crate::plan::IndexRange>>,
    project: &Option<Vec<usize>>,
    src: &dyn TableSource,
    ctx: &ExecCtx,
) -> DbResult<(Vec<Row>, AccessPath)> {
    let t = src.table(table)?;
    let project_row = |mut r: Row| -> Row {
        match project {
            None => r,
            Some(cols) => cols
                .iter()
                .map(|&c| std::mem::replace(&mut r[c], Value::Null))
                .collect(),
        }
    };
    let fetch = |rowids: Vec<usize>| -> DbResult<Vec<Row>> {
        let mut rows = Vec::new();
        for rowid in rowids {
            if let Some(r) = t.get(rowid)? {
                rows.push(project_row((*r).clone()));
            }
        }
        Ok(rows)
    };
    let full_scan = || -> DbResult<Vec<Row>> {
        Ok(t.scan()?.into_iter().map(|(_, r)| project_row(r)).collect())
    };
    // Probe keys may be deferred parameters whose value is only known
    // now; when the runtime value can't drive the planned probe, fall
    // back. The access path recorded is the one actually taken, not the
    // one planned.
    if let Some((col, key_expr)) = index_eq {
        let key = key_expr.eval(ctx, &[])?;
        if key.is_null() {
            // The eq conjunct was consumed by the probe and `col = NULL`
            // is never TRUE: a NULL key matches nothing.
            Ok((Vec::new(), AccessPath::IndexEq))
        } else {
            let ix = t
                .index_on(*col)
                .ok_or_else(|| DbError::exec(format!("planned index on {table}.{col} vanished")))?;
            Ok((fetch(ix.lookup_eq(&key))?, AccessPath::IndexEq))
        }
    } else if let Some(rng) = index_range {
        let lo = match &rng.lo {
            Some((e, inc)) => Some((e.eval(ctx, &[])?, *inc)),
            None => None,
        };
        let hi = match &rng.hi {
            Some((e, inc)) => Some((e.eval(ctx, &[])?, *inc)),
            None => None,
        };
        let null_bound = lo.as_ref().map(|(v, _)| v.is_null()).unwrap_or(false)
            || hi.as_ref().map(|(v, _)| v.is_null()).unwrap_or(false);
        if null_bound {
            // A NULL bound can't order against keys; the range conjuncts
            // stay in the filter as a recheck, so a full scan is still
            // exact.
            Ok((full_scan()?, AccessPath::FullScan))
        } else {
            let ix = t.index_on(rng.column).ok_or_else(|| {
                DbError::exec(format!("planned index on {table}.{} vanished", rng.column))
            })?;
            let hits = ix.lookup_range(
                lo.as_ref().map(|(v, i)| (v, *i)),
                hi.as_ref().map(|(v, i)| (v, *i)),
            );
            Ok((fetch(hits)?, AccessPath::IndexRange))
        }
    } else if let Some((col, probe_expr)) = index_overlap {
        let probe = probe_expr.eval(ctx, &[])?;
        if probe.as_udt().is_none() {
            // A NULL (or otherwise non-UDT) probe can't be bucketed; the
            // overlaps conjunct stays in the filter, so a full scan is
            // still exact.
            Ok((full_scan()?, AccessPath::FullScan))
        } else {
            let ix = t.interval_index_on(*col).ok_or_else(|| {
                DbError::exec(format!("planned interval index on {table}.{col} vanished"))
            })?;
            Ok((
                fetch(ix.lookup_overlaps_value(&probe))?,
                AccessPath::IndexOverlap,
            ))
        }
    } else {
        Ok((full_scan()?, AccessPath::FullScan))
    }
}

/// Counting (and, under EXPLAIN ANALYZE, timing) wrapper around a batch
/// operator stream.
struct InstrumentedBatch<'a> {
    inner: Box<dyn BatchStream + 'a>,
    prof: &'a OpProfile,
}
impl BatchStream for InstrumentedBatch<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let t0 = self.prof.is_timed().then(Instant::now);
        let r = self.inner.next_batch();
        let nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        // The exhausted pull still costs time but is not a batch.
        self.prof.record_call(nanos);
        if let Ok(Some(b)) = &r {
            self.prof.record_batch(b.sel.count() as u64);
        }
        r
    }
}
