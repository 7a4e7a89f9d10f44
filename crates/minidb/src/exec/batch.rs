//! Column batches, the vectorized expression evaluator, and the batch
//! operator implementations.
//!
//! A [`Batch`] carries ~[`BATCH_ROWS`] rows as column [`Vector`]s plus a
//! selection [`Bitmap`]; operators narrow the selection instead of
//! copying survivors. Expressions are evaluated whole-column at a time
//! by [`eval_vec`], which routes each scalar application through its
//! batch kernel (hand-specialized for the hot temporal predicates, an
//! elementwise wrapper otherwise) and preserves the row evaluator's
//! semantics exactly: strict NULLs, three-valued AND/OR with lane-masked
//! short circuit, first-match CASE.

use crate::binder::{BoundExpr, BoundKind};
use crate::catalog::ExecCtx;
use crate::error::{DbError, DbResult};
use crate::obs::{AccessPath, OpProfile};
use crate::storage::{RowBatch, RowCursor};
use crate::value::{GroupKey, Row, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::vector_ops::Bitmap;

/// Target number of rows per batch.
pub const BATCH_ROWS: usize = 1024;

/// One column of a batch: a constant broadcast to every lane (literals
/// and parameters stay constants all the way through evaluation, so a
/// constant probe — e.g. the window Element of an OVERLAPS selection —
/// is resolved once per batch, not once per row), a computed vector, or
/// a column of the stored rows a scan pulled, read in place.
#[derive(Clone)]
pub enum Vector {
    /// The same value in every lane.
    Const(Value),
    /// One value per lane.
    Vals(Arc<Vec<Value>>),
    /// Column `.1` of the stored rows a scan pulled, one per lane: the
    /// values themselves, copied only when a lane leaves the engine.
    Rows(Arc<RowBatch>, usize),
}

impl Vector {
    /// Wraps a materialized column.
    pub fn vals(v: Vec<Value>) -> Vector {
        Vector::Vals(Arc::new(v))
    }

    /// The value in lane `i`.
    pub fn get(&self, i: usize) -> &Value {
        match self {
            Vector::Const(v) => v,
            Vector::Vals(v) => &v[i],
            Vector::Rows(rows, col) => rows.get(i, *col),
        }
    }
}

/// A column-oriented chunk of rows with a selection bitmap.
pub struct Batch {
    pub cols: Vec<Vector>,
    /// Lane count (every `Vals` column has exactly this many entries).
    pub len: usize,
    /// Which lanes are live.
    pub sel: Bitmap,
}

impl Batch {
    /// Builds a batch from row-major input, consuming the rows.
    pub fn from_rows(rows: &mut [Row], arity: usize) -> Batch {
        let len = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(len)).collect();
        for row in rows.iter_mut() {
            let row = std::mem::take(row);
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        Batch {
            cols: cols.into_iter().map(Vector::vals).collect(),
            len,
            sel: Bitmap::all(len),
        }
    }

    /// Gathers the selected lanes back into rows, moving values out when
    /// this batch holds the only reference to a column.
    pub fn into_rows(self) -> Vec<Row> {
        let idxs: Vec<usize> = self.sel.iter().collect();
        let mut rows: Vec<Row> = idxs
            .iter()
            .map(|_| Vec::with_capacity(self.cols.len()))
            .collect();
        for col in self.cols {
            match col {
                Vector::Const(v) => {
                    for r in rows.iter_mut() {
                        r.push(v.clone());
                    }
                }
                Vector::Vals(arc) => match Arc::try_unwrap(arc) {
                    Ok(vals) => {
                        let mut k = 0;
                        for (i, v) in vals.into_iter().enumerate() {
                            if k < idxs.len() && i == idxs[k] {
                                rows[k].push(v);
                                k += 1;
                            }
                        }
                    }
                    Err(arc) => {
                        for (k, &i) in idxs.iter().enumerate() {
                            rows[k].push(arc[i].clone());
                        }
                    }
                },
                Vector::Rows(stored, c) => {
                    for (k, &i) in idxs.iter().enumerate() {
                        rows[k].push(stored.get(i, c).clone());
                    }
                }
            }
        }
        rows
    }

    /// Clones one lane out as a row.
    pub(super) fn gather(&self, lane: usize) -> Row {
        self.cols.iter().map(|c| c.get(lane).clone()).collect()
    }
}

/// A pull-based batch stream. `next_batch` never returns a batch with an
/// empty selection; operators loop internally instead, so downstream
/// evaluation always sees at least one live lane (this is what keeps
/// error behavior aligned with the row path, which only evaluates
/// expressions when a row actually flows).
pub trait BatchStream {
    fn next_batch(&mut self) -> DbResult<Option<Batch>>;
}

// ----- vectorized expression evaluation -------------------------------------

/// Evaluates `e` over the selected lanes of `batch`. Unselected lanes of
/// the result are unspecified (NULL in practice) and must never be read.
pub fn eval_vec(e: &BoundExpr, ctx: &ExecCtx, batch: &Batch, sel: &Bitmap) -> DbResult<Vector> {
    match &e.kind {
        BoundKind::Literal(v) => Ok(Vector::Const(v.clone())),
        BoundKind::Param { name } => ctx
            .param(name)
            .cloned()
            .map(Vector::Const)
            .ok_or_else(|| DbError::MissingParam { name: name.clone() }),
        BoundKind::ColumnRef(i) => Ok(batch.cols[*i].clone()),
        BoundKind::Apply {
            batch: kernel,
            args,
            ..
        } => {
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_vec(a, ctx, batch, sel)?);
            }
            kernel(ctx, &argv, sel, batch.len)
        }
        BoundKind::Cast { f, arg } => {
            let av = eval_vec(arg, ctx, batch, sel)?;
            if let Vector::Const(v) = &av {
                return Ok(Vector::Const(if v.is_null() {
                    Value::Null
                } else {
                    f(ctx, v)?
                }));
            }
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                let v = av.get(i);
                if !v.is_null() {
                    out[i] = f(ctx, v)?;
                }
            }
            Ok(Vector::vals(out))
        }
        BoundKind::Neg(arg) => {
            let av = eval_vec(arg, ctx, batch, sel)?;
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                out[i] = match av.get(i) {
                    Value::Null => Value::Null,
                    Value::Int(x) => x
                        .checked_neg()
                        .map(Value::Int)
                        .ok_or_else(|| DbError::exec("integer overflow in negation"))?,
                    Value::Float(f) => Value::Float(-f),
                    other => return Err(DbError::exec(format!("cannot negate {other:?}"))),
                };
            }
            Ok(Vector::vals(out))
        }
        BoundKind::And(a, b) => {
            let av = eval_vec(a, ctx, batch, sel)?;
            // The row evaluator only short-circuits the rhs when the lhs
            // is FALSE; mirror that per lane so rhs errors and NULL
            // semantics match exactly.
            let mut rhs_sel = sel.clone();
            for i in sel.iter() {
                if matches!(av.get(i), Value::Bool(false)) {
                    rhs_sel.clear(i);
                }
            }
            let bv = if rhs_sel.any() {
                Some(eval_vec(b, ctx, batch, &rhs_sel)?)
            } else {
                None
            };
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                out[i] = match av.get(i) {
                    Value::Bool(false) => Value::Bool(false),
                    av => match (av, bv.as_ref().expect("rhs evaluated").get(i)) {
                        (_, Value::Bool(false)) => Value::Bool(false),
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        _ => Value::Null,
                    },
                };
            }
            Ok(Vector::vals(out))
        }
        BoundKind::Or(a, b) => {
            let av = eval_vec(a, ctx, batch, sel)?;
            let mut rhs_sel = sel.clone();
            for i in sel.iter() {
                if matches!(av.get(i), Value::Bool(true)) {
                    rhs_sel.clear(i);
                }
            }
            let bv = if rhs_sel.any() {
                Some(eval_vec(b, ctx, batch, &rhs_sel)?)
            } else {
                None
            };
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                out[i] = match av.get(i) {
                    Value::Bool(true) => Value::Bool(true),
                    av => match (av, bv.as_ref().expect("rhs evaluated").get(i)) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    },
                };
            }
            Ok(Vector::vals(out))
        }
        BoundKind::Not(a) => {
            let av = eval_vec(a, ctx, batch, sel)?;
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                out[i] = match av.get(i) {
                    Value::Bool(b) => Value::Bool(!b),
                    Value::Null => Value::Null,
                    other => return Err(DbError::exec(format!("NOT applied to {other:?}"))),
                };
            }
            Ok(Vector::vals(out))
        }
        BoundKind::IsNull { arg, negated } => {
            let av = eval_vec(arg, ctx, batch, sel)?;
            let mut out = vec![Value::Null; batch.len];
            for i in sel.iter() {
                out[i] = Value::Bool(av.get(i).is_null() != *negated);
            }
            Ok(Vector::vals(out))
        }
        BoundKind::Case { branches, else_ } => {
            let mut out = vec![Value::Null; batch.len];
            let mut remaining = sel.clone();
            for (when, then) in branches {
                if !remaining.any() {
                    break;
                }
                let wv = eval_vec(when, ctx, batch, &remaining)?;
                let mut matched = Bitmap::none(batch.len);
                for i in remaining.iter() {
                    if wv.get(i).as_bool() == Some(true) {
                        matched.set(i);
                    }
                }
                for i in matched.iter() {
                    remaining.clear(i);
                }
                if matched.any() {
                    let tv = eval_vec(then, ctx, batch, &matched)?;
                    for i in matched.iter() {
                        out[i] = tv.get(i).clone();
                    }
                }
            }
            if let Some(els) = else_ {
                if remaining.any() {
                    let ev = eval_vec(els, ctx, batch, &remaining)?;
                    for i in remaining.iter() {
                        out[i] = ev.get(i).clone();
                    }
                }
            }
            Ok(Vector::vals(out))
        }
    }
}

/// Narrows the batch's selection to the lanes where `pred` evaluates
/// TRUE. The selection is detached during evaluation (the evaluator only
/// reads columns and length) to keep the borrows disjoint.
fn apply_pred(pred: &BoundExpr, ctx: &ExecCtx, batch: &mut Batch) -> DbResult<()> {
    let mut sel = std::mem::replace(&mut batch.sel, Bitmap::none(0));
    let pv = match eval_vec(pred, ctx, batch, &sel) {
        Ok(v) => v,
        Err(e) => {
            batch.sel = sel;
            return Err(e);
        }
    };
    let lanes: Vec<usize> = sel.iter().collect();
    for i in lanes {
        if pv.get(i).as_bool() != Some(true) {
            sel.clear(i);
        }
    }
    batch.sel = sel;
    Ok(())
}

// ----- batch operators ------------------------------------------------------

/// A scan node: each pull reads at most [`BATCH_ROWS`] candidate rows
/// from the pinned version's [`RowCursor`] — every live row, or the rows
/// an index probe selected — and every output column is a
/// [`Vector::Rows`] view of them, so the residual filter runs before any
/// value is copied. The rows read are counted into the scan's profile
/// node as they are read.
pub(super) struct ColumnScan<'a> {
    rows: RowCursor<'a>,
    /// The table column behind each output column; `None` for all.
    project: Option<&'a [usize]>,
    arity: usize,
    filter: &'a Option<BoundExpr>,
    ctx: &'a ExecCtx,
    scanned: Option<(&'a OpProfile, AccessPath)>,
    /// The rowid of each lane of the batch last returned.
    pub rowids: Vec<usize>,
}

impl<'a> ColumnScan<'a> {
    pub fn new(
        rows: RowCursor<'a>,
        project: Option<&'a [usize]>,
        arity: usize,
        filter: &'a Option<BoundExpr>,
        ctx: &'a ExecCtx,
        scanned: Option<(&'a OpProfile, AccessPath)>,
    ) -> ColumnScan<'a> {
        // The access path counts even when no row is ever pulled.
        if let Some((p, path)) = scanned {
            p.record_scan(path, 0);
        }
        ColumnScan {
            rows,
            project,
            arity,
            filter,
            ctx,
            scanned,
            rowids: Vec::new(),
        }
    }
}

impl BatchStream for ColumnScan<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while let Some(mut rows) = self.rows.next_batch(BATCH_ROWS)? {
            self.rowids = std::mem::take(&mut rows.rowids);
            let n = self.rowids.len();
            if let Some((p, path)) = self.scanned {
                p.record_scan(path, n as u64);
            }
            let rows = Arc::new(rows);
            let cols = (0..self.arity)
                .map(|c| Vector::Rows(Arc::clone(&rows), self.project.map_or(c, |p| p[c])))
                .collect();
            let mut batch = Batch {
                cols,
                len: n,
                sel: Bitmap::all(n),
            };
            if let Some(pred) = self.filter {
                apply_pred(pred, self.ctx, &mut batch)?;
                if !batch.sel.any() {
                    continue;
                }
            }
            return Ok(Some(batch));
        }
        Ok(None)
    }
}

pub(super) struct BatchFilter<'a> {
    pub input: Box<dyn BatchStream + 'a>,
    pub pred: &'a BoundExpr,
    pub ctx: &'a ExecCtx,
}

impl BatchStream for BatchFilter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while let Some(mut batch) = self.input.next_batch()? {
            apply_pred(self.pred, self.ctx, &mut batch)?;
            if batch.sel.any() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

pub(super) struct BatchProject<'a> {
    pub input: Box<dyn BatchStream + 'a>,
    pub exprs: &'a [BoundExpr],
    pub ctx: &'a ExecCtx,
}

impl BatchStream for BatchProject<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        match self.input.next_batch()? {
            Some(batch) => {
                let mut cols = Vec::with_capacity(self.exprs.len());
                for e in self.exprs {
                    cols.push(eval_vec(e, self.ctx, &batch, &batch.sel)?);
                }
                Ok(Some(Batch {
                    cols,
                    len: batch.len,
                    sel: batch.sel,
                }))
            }
            None => Ok(None),
        }
    }
}

pub(super) struct BatchTake<'a> {
    pub input: Box<dyn BatchStream + 'a>,
    pub keep: usize,
}

impl BatchStream for BatchTake<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        match self.input.next_batch()? {
            Some(mut batch) => {
                batch.cols.truncate(self.keep);
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }
}

pub(super) struct BatchLimit<'a> {
    pub input: Box<dyn BatchStream + 'a>,
    pub remaining: u64,
}

impl BatchStream for BatchLimit<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_batch()? {
            Some(mut batch) => {
                let live = batch.sel.count() as u64;
                if live <= self.remaining {
                    self.remaining -= live;
                } else {
                    // Keep only the first `remaining` selected lanes.
                    let mut kept = 0;
                    let lanes: Vec<usize> = batch.sel.iter().collect();
                    for i in lanes {
                        if kept < self.remaining {
                            kept += 1;
                        } else {
                            batch.sel.clear(i);
                        }
                    }
                    self.remaining = 0;
                }
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }
}

pub(super) struct BatchOffset<'a> {
    pub input: Box<dyn BatchStream + 'a>,
    pub to_skip: u64,
}

impl BatchStream for BatchOffset<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while let Some(mut batch) = self.input.next_batch()? {
            if self.to_skip == 0 {
                return Ok(Some(batch));
            }
            let live = batch.sel.count() as u64;
            if live <= self.to_skip {
                self.to_skip -= live;
                continue;
            }
            let lanes: Vec<usize> = batch.sel.iter().collect();
            for i in lanes {
                if self.to_skip == 0 {
                    break;
                }
                batch.sel.clear(i);
                self.to_skip -= 1;
            }
            return Ok(Some(batch));
        }
        Ok(None)
    }
}

pub(super) struct BatchChain<'a> {
    pub streams: Vec<Box<dyn BatchStream + 'a>>,
    pub current: usize,
}

impl BatchStream for BatchChain<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while self.current < self.streams.len() {
            if let Some(batch) = self.streams[self.current].next_batch()? {
                return Ok(Some(batch));
            }
            self.current += 1;
        }
        Ok(None)
    }
}

/// Emits pre-materialized rows (sort/distinct/aggregate output) as
/// batches.
pub(super) struct MaterializedBatches {
    pub rows: Vec<Row>,
    pub pos: usize,
    pub arity: usize,
}

impl MaterializedBatches {
    pub fn new(rows: Vec<Row>, arity: usize) -> MaterializedBatches {
        MaterializedBatches {
            rows,
            pos: 0,
            arity,
        }
    }
}

impl BatchStream for MaterializedBatches {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_ROWS).min(self.rows.len());
        let batch = Batch::from_rows(&mut self.rows[self.pos..end], self.arity);
        self.pos = end;
        Ok(Some(batch))
    }
}

/// Materializing sort: drains the input, gathers survivors, and reuses
/// the row comparator (stable, so ties keep arrival order — identical to
/// the row path).
pub(super) fn sort_rows(input: &mut dyn BatchStream, keys: &[(usize, bool)]) -> DbResult<Vec<Row>> {
    let mut rows = drain_rows(input)?;
    rows.sort_by(|a, b| {
        for (i, desc) in keys {
            let ord = a[*i].cmp_ordering(&b[*i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(rows)
}

/// Materializing distinct over the first `visible` columns, keeping
/// first-seen order.
pub(super) fn distinct_rows(input: &mut dyn BatchStream, visible: usize) -> DbResult<Vec<Row>> {
    let mut seen: HashMap<GroupKey, ()> = HashMap::new();
    let mut out = Vec::new();
    while let Some(batch) = input.next_batch()? {
        for i in batch.sel.iter() {
            let key = GroupKey((0..visible).map(|c| batch.cols[c].get(i).clone()).collect());
            if seen.insert(key, ()).is_none() {
                out.push(batch.gather(i));
            }
        }
    }
    Ok(out)
}

/// Vectorized grouped aggregation: group keys and aggregate arguments
/// are evaluated whole-column, then states step in a tight loop over the
/// selected lanes — no per-row expression dispatch. Group and output
/// ordering (first-seen) matches the row path.
pub(super) fn aggregate_rows(
    input: &mut dyn BatchStream,
    ctx: &ExecCtx,
    keys: &[BoundExpr],
    aggs: &[crate::plan::AggSpec],
) -> DbResult<Vec<Row>> {
    type GroupState = (
        Vec<Box<dyn crate::catalog::AggregateState>>,
        Vec<Option<HashSet<GroupKey>>>,
    );
    let mut groups: HashMap<GroupKey, GroupState> = HashMap::new();
    let mut order: Vec<GroupKey> = Vec::new();
    let fresh = || -> GroupState {
        (
            aggs.iter().map(|a| (a.factory)()).collect(),
            aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
        )
    };
    while let Some(batch) = input.next_batch()? {
        let mut key_vecs = Vec::with_capacity(keys.len());
        for k in keys {
            key_vecs.push(eval_vec(k, ctx, &batch, &batch.sel)?);
        }
        let mut arg_vecs = Vec::with_capacity(aggs.len());
        for a in aggs {
            arg_vecs.push(eval_vec(&a.arg, ctx, &batch, &batch.sel)?);
        }
        for i in batch.sel.iter() {
            let gk = GroupKey(key_vecs.iter().map(|v| v.get(i).clone()).collect());
            let (states, seen) = match groups.get_mut(&gk) {
                Some(s) => s,
                None => {
                    order.push(gk.clone());
                    groups.entry(gk.clone()).or_insert_with(fresh)
                }
            };
            for ((av, st), dedup) in arg_vecs.iter().zip(states.iter_mut()).zip(seen) {
                let v = av.get(i);
                if v.is_null() {
                    continue; // SQL: aggregates skip NULLs
                }
                if let Some(seen_vals) = dedup {
                    if !seen_vals.insert(GroupKey(vec![v.clone()])) {
                        continue; // DISTINCT: already counted
                    }
                }
                st.step(ctx, v)?;
            }
        }
    }
    // Global aggregate over an empty input still yields one row.
    if keys.is_empty() && order.is_empty() {
        let gk = GroupKey(Vec::new());
        order.push(gk.clone());
        groups.insert(gk, fresh());
    }
    let mut out = Vec::with_capacity(order.len());
    for gk in order {
        let (states, _) = groups.remove(&gk).expect("group present");
        let mut row = gk.0;
        for st in states {
            row.push(st.finish(ctx)?);
        }
        out.push(row);
    }
    Ok(out)
}

/// Hash join with vectorized probe-key evaluation. The build side is
/// consumed row-wise at open; the probe side evaluates its keys
/// whole-column and assembles joined rows per match, in left-then-bucket
/// order. The residual filter runs row-wise over each joined row. With
/// no keys every left row probes the one bucket, which is how a
/// nested-loop join runs.
///
/// A pull emits at most [`BATCH_ROWS`] joined rows and the probe cursor
/// resumes where it stopped, so a large bucket (always, for a
/// nested-loop join) costs memory for one batch and a LIMIT above the
/// join stops it early.
pub(super) struct BatchHashJoin<'a> {
    left: Box<dyn BatchStream + 'a>,
    table: HashMap<GroupKey, Vec<Row>>,
    left_keys: &'a [BoundExpr],
    filter: &'a Option<BoundExpr>,
    ctx: &'a ExecCtx,
    arity: usize,
    probe: Option<Probe>,
}

/// Where the probe stands in the current left batch.
struct Probe {
    batch: Batch,
    key_vecs: Vec<Vector>,
    /// Selected lanes of `batch`, and the index of the current one.
    lanes: Vec<usize>,
    lane: usize,
    /// Next row of the current lane's bucket.
    pos: usize,
}

impl<'a> BatchHashJoin<'a> {
    pub fn new(
        left: Box<dyn BatchStream + 'a>,
        table: HashMap<GroupKey, Vec<Row>>,
        left_keys: &'a [BoundExpr],
        filter: &'a Option<BoundExpr>,
        ctx: &'a ExecCtx,
        arity: usize,
    ) -> BatchHashJoin<'a> {
        BatchHashJoin {
            left,
            table,
            left_keys,
            filter,
            ctx,
            arity,
            probe: None,
        }
    }
}

impl BatchStream for BatchHashJoin<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let mut out: Vec<Row> = Vec::new();
        'fill: loop {
            if self.probe.is_none() {
                let Some(batch) = self.left.next_batch()? else {
                    break;
                };
                let mut key_vecs = Vec::with_capacity(self.left_keys.len());
                for k in self.left_keys {
                    key_vecs.push(eval_vec(k, self.ctx, &batch, &batch.sel)?);
                }
                self.probe = Some(Probe {
                    lanes: batch.sel.iter().collect(),
                    batch,
                    key_vecs,
                    lane: 0,
                    pos: 0,
                });
            }
            let p = self.probe.as_mut().expect("probe set above");
            while let Some(&i) = p.lanes.get(p.lane) {
                let key: Vec<Value> = p.key_vecs.iter().map(|kv| kv.get(i).clone()).collect();
                // NULL never matches an equi-join key.
                let bucket = if key.iter().any(Value::is_null) {
                    None
                } else {
                    self.table.get(&GroupKey(key))
                };
                for r in bucket.map_or(&[][..], |b| &b[p.pos..]) {
                    if out.len() == BATCH_ROWS {
                        break 'fill;
                    }
                    p.pos += 1;
                    let mut joined = Vec::with_capacity(self.arity);
                    joined.extend(p.batch.cols.iter().map(|c| c.get(i).clone()));
                    joined.extend_from_slice(r);
                    match self.filter {
                        Some(pred) => {
                            if pred.eval(self.ctx, &joined)?.as_bool() == Some(true) {
                                out.push(joined);
                            }
                        }
                        None => out.push(joined),
                    }
                }
                p.lane += 1;
                p.pos = 0;
            }
            self.probe = None;
        }
        if out.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::from_rows(&mut out, self.arity)))
    }
}

/// Pulls a batch stream to exhaustion, gathering selected lanes.
pub(super) fn drain_rows(stream: &mut dyn BatchStream) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = stream.next_batch()? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}
