//! Plan execution: a vectorized batch engine over column vectors.
//!
//! Every plan node opens as a [`BatchStream`], and every scalar
//! application in its expressions carries the batch form of the overload
//! it resolved to — a hand-written kernel, or the scalar behind
//! [`elementwise`] — so there is one executor and no capability check in
//! front of it.
//!
//! Scans are lazy: each pull reads at most one batch of live rows from
//! the table version the statement pinned, and operators read their
//! values where they are stored. So the contract is the pin's, not the
//! stream's: the statement's pin keeps the version alive for as long as
//! a stream borrows it (`src` outlives every stream opened on it), and
//! every consumer drains its stream before it mutates — DML returns its
//! victims before they are applied, and `INSERT … SELECT` runs its SELECT
//! to completion first.
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

use crate::binder::BoundExpr;
use crate::catalog::ExecCtx;
use crate::error::{DbError, DbResult};
use crate::obs::{AccessPath, OpProfile};
use crate::pin::TableSource;
use crate::plan::{DmlOp, DmlPlan, Plan};
use crate::storage::RowCursor;
use crate::value::{GroupKey, Row, Value};
use std::collections::HashMap;
use std::time::Instant;

use batch::{
    aggregate_rows, distinct_rows, drain_rows, eval_vec, sort_rows, BatchChain, BatchFilter,
    BatchHashJoin, BatchLimit, BatchOffset, BatchProject, BatchTake, ColumnScan,
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

/// Opens one plan node, and recursively its children, as a batch stream.
/// With a profile, scan nodes record their access path and rows read
/// into the matching profile node and every operator counts its pulls,
/// batches and rows; when the profile is timed (`EXPLAIN ANALYZE`),
/// inclusive wall time is recorded as well.
fn open_batch<'a>(
    plan: &'a Plan,
    src: &'a dyn TableSource,
    ctx: &'a ExecCtx,
    prof: Option<&'a OpProfile>,
) -> DbResult<Box<dyn BatchStream + 'a>> {
    // Open-time work (index probe, hash build, aggregation) is charged
    // to this node; child opens record their own share, keeping all
    // reported times inclusive.
    let t0 = match prof {
        Some(p) if p.is_timed() => Some(Instant::now()),
        _ => None,
    };
    let child = |p: &'a Plan, i: usize| open_batch(p, src, ctx, prof.map(|pr| pr.child(i)));
    let stream: Box<dyn BatchStream + 'a> = match plan {
        // One row of no columns: `SELECT 1` projects its constants over it.
        Plan::Nothing => Box::new(MaterializedBatches::new(vec![Vec::new()], 0)),
        Plan::Scan {
            filter,
            project,
            arity,
            ..
        } => {
            let project = project.as_deref();
            let (rows, path) = scan_cursor(plan, src, ctx, project)?;
            let scanned = prof.map(|p| (p, path));
            Box::new(ColumnScan::new(rows, project, *arity, filter, ctx, scanned))
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

/// A write's change set on the batch engine, computed without mutating
/// anything: each row's rowid with its new row, `None` for a DELETE.
/// An INSERT's rows are evaluated (or its query drained and cast) and
/// paired with the rowids they will land on — the free list is
/// deterministic, so the changes can be logged before they apply. An
/// UPDATE or DELETE runs its scan — the access path the planner chose,
/// then the residual WHERE as batch predicates — and evaluates the
/// `SET` expressions over the surviving lanes; only victims are gathered
/// back into rows, in rowid order: the order the changes are logged and
/// applied in, whichever path found them.
pub(crate) fn execute_dml(
    dml: &DmlPlan,
    src: &dyn TableSource,
    ctx: &ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Vec<(usize, Option<Row>)>> {
    let (scan, sets) = match &dml.op {
        DmlOp::Values(rows) => {
            let rows = rows
                .iter()
                .map(|row| row.iter().map(|e| e.eval(ctx, &[])).collect())
                .collect::<DbResult<Vec<Row>>>()?;
            return inserts(dml, src, rows);
        }
        DmlOp::Query { plan, targets } => {
            let width = src.table(&dml.table)?.schema.columns.len();
            let mut rows = Vec::new();
            for produced in execute_with(plan, src, ctx, prof)? {
                let mut row: Row = vec![Value::Null; width];
                for (v, (col, cast)) in produced.into_iter().zip(targets) {
                    row[*col] = match (cast, v.is_null()) {
                        (Some(f), false) => f(ctx, &v)?,
                        _ => v,
                    };
                }
                rows.push(row);
            }
            return inserts(dml, src, rows);
        }
        DmlOp::Update { scan, sets } => (scan, Some(sets)),
        DmlOp::Delete { scan } => (scan, None),
    };
    let Plan::Scan {
        filter,
        project: None,
        arity,
        ..
    } = scan
    else {
        return Err(DbError::exec(
            "a DML plan must read through a full-width scan",
        ));
    };
    // A DELETE reads only its WHERE's columns: a cold row decodes no other.
    let mut read = Vec::new();
    if let (None, Some(f)) = (sets, filter) {
        f.collect_columns(&mut read);
    }
    let decode = sets.is_none().then_some(read.as_slice());
    let (rows, path) = scan_cursor(scan, src, ctx, decode)?;
    let scanned = prof.map(|p| (p, path));
    let mut victims = ColumnScan::new(rows, None, *arity, filter, ctx, scanned);
    let mut out = Vec::new();
    while let Some(batch) = victims.next_batch()? {
        let rowids = &victims.rowids;
        let Some(sets) = sets else {
            out.extend(batch.sel.iter().map(|lane| (rowids[lane], None)));
            continue;
        };
        let mut new_vals = Vec::with_capacity(sets.len());
        for (_, e) in sets {
            new_vals.push(eval_vec(e, ctx, &batch, &batch.sel)?);
        }
        for lane in batch.sel.iter() {
            let mut row = batch.gather(lane);
            for ((col, _), v) in sets.iter().zip(&new_vals) {
                row[*col] = v.get(lane).clone();
            }
            out.push((rowids[lane], Some(row)));
        }
    }
    out.sort_unstable_by_key(|(rowid, _)| *rowid);
    Ok(out)
}

/// Pairs an INSERT's rows with the rowids they will land on.
fn inserts(
    dml: &DmlPlan,
    src: &dyn TableSource,
    rows: Vec<Row>,
) -> DbResult<Vec<(usize, Option<Row>)>> {
    let rowids = src.table(&dml.table)?.planned_rowids(rows.len());
    Ok(rowids.into_iter().zip(rows.into_iter().map(Some)).collect())
}

/// A scan node's candidate rows — what its access path selects, before
/// the residual filter — as a lazy cursor over the pinned version that
/// decodes only the `decode` columns of a cold row (all when `None`),
/// with the access path actually taken.
fn scan_cursor<'a>(
    scan: &'a Plan,
    src: &'a dyn TableSource,
    ctx: &ExecCtx,
    decode: Option<&'a [usize]>,
) -> DbResult<(RowCursor<'a>, AccessPath)> {
    let Plan::Scan {
        table,
        index_eq,
        index_overlap,
        index_range,
        ..
    } = scan
    else {
        return Err(DbError::exec("scan candidates of a non-scan plan"));
    };
    let t = src.table(table)?;
    let (hits, path) = probe(t, table, index_eq, index_overlap, index_range, ctx)?;
    Ok((t.cursor(hits, decode), path))
}

/// Resolves a scan's planned index probe to the rowids it selects, or
/// `None` for every live row, with the access path actually taken. Probe
/// keys may be deferred parameters whose value is only known now; when
/// the runtime value can't drive the planned probe, it falls back to a
/// full scan.
fn probe(
    t: &crate::storage::Table,
    table: &str,
    index_eq: &Option<(usize, BoundExpr)>,
    index_overlap: &Option<(usize, BoundExpr)>,
    index_range: &Option<Box<crate::plan::IndexRange>>,
    ctx: &ExecCtx,
) -> DbResult<(Option<Vec<usize>>, AccessPath)> {
    let vanished = |col: usize| DbError::exec(format!("planned index on {table}.{col} vanished"));
    if let Some((col, key_expr)) = index_eq {
        let key = key_expr.eval(ctx, &[])?;
        if key.is_null() {
            // `col = NULL` is never TRUE: a NULL key matches nothing.
            return Ok((Some(Vec::new()), AccessPath::IndexEq));
        }
        let ix = t.index_on(*col).ok_or_else(|| vanished(*col))?;
        Ok((Some(ix.lookup_eq(&key)), AccessPath::IndexEq))
    } else if let Some(rng) = index_range {
        let lo = match &rng.lo {
            Some((e, inc)) => Some((e.eval(ctx, &[])?, *inc)),
            None => None,
        };
        let hi = match &rng.hi {
            Some((e, inc)) => Some((e.eval(ctx, &[])?, *inc)),
            None => None,
        };
        if [&lo, &hi].into_iter().flatten().any(|(v, _)| v.is_null()) {
            // A NULL bound can't order against keys; the range conjuncts
            // stay in the filter as a recheck, so a full scan is still
            // exact.
            return Ok((None, AccessPath::FullScan));
        }
        let ix = t.index_on(rng.column).ok_or_else(|| vanished(rng.column))?;
        let hits = ix.lookup_range(
            lo.as_ref().map(|(v, i)| (v, *i)),
            hi.as_ref().map(|(v, i)| (v, *i)),
        );
        Ok((Some(hits), AccessPath::IndexRange))
    } else if let Some((col, probe_expr)) = index_overlap {
        let probe = probe_expr.eval(ctx, &[])?;
        if probe.as_udt().is_none() {
            // A NULL (or otherwise non-UDT) probe can't be bucketed; the
            // overlaps conjunct stays in the filter, so a full scan is
            // still exact.
            return Ok((None, AccessPath::FullScan));
        }
        let ix = t.interval_index_on(*col).ok_or_else(|| vanished(*col))?;
        Ok((
            Some(ix.lookup_overlaps_value(&probe)),
            AccessPath::IndexOverlap,
        ))
    } else {
        Ok((None, AccessPath::FullScan))
    }
}

/// The row interpreter's scan source: every row of [`scan_cursor`],
/// copied out and narrowed to the pushed-down projection.
fn materialize_scan(
    scan: &Plan,
    src: &dyn TableSource,
    ctx: &ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Vec<Row>> {
    let project = match scan {
        Plan::Scan { project, .. } => project.as_deref(),
        _ => None,
    };
    let (mut cursor, path) = scan_cursor(scan, src, ctx, project)?;
    let column = |c: usize| project.map_or(c, |p| p[c]);
    let mut rows = Vec::new();
    while let Some(stored) = cursor.next_batch(BATCH_ROWS)? {
        for lane in 0..stored.rowids.len() {
            let row = (0..scan.arity()).map(|c| stored.get(lane, column(c)).clone());
            rows.push(row.collect());
        }
    }
    if let Some(p) = prof {
        p.record_scan(path, rows.len() as u64);
    }
    Ok(rows)
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
