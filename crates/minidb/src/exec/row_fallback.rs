//! The reference interpreter: Volcano row operators evaluating every
//! expression with [`BoundExpr::eval`], one row at a time. Semantics here
//! are the reference; the batch engine must match them byte for byte.
//! The only entry is [`execute`] (public as `exec::execute_rows`), and the
//! only code shared with the batch engine is the scan's candidate
//! resolution (`scan_cursor`, via `materialize_scan`), so a bug in a batch
//! operator or kernel cannot hide in both.

use crate::binder::BoundExpr;
use crate::catalog::{AggregateState, ExecCtx};
use crate::error::DbResult;
use crate::obs::OpProfile;
use crate::pin::TableSource;
use crate::plan::Plan;
use crate::value::{GroupKey, Row};
use std::collections::{HashMap, HashSet};

use super::{materialize_scan, RowStream};

/// Runs `plan` to completion on the row operators. A profile, when
/// given, receives each scan's access path and rows touched.
pub(super) fn execute(
    plan: &Plan,
    src: &dyn TableSource,
    ctx: &ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Vec<Row>> {
    drain(open(plan, src, ctx, prof)?)
}

fn drain(mut stream: Box<dyn RowStream + '_>) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(row) = stream.next_row()? {
        out.push(row);
    }
    Ok(out)
}

fn open<'a>(
    plan: &'a Plan,
    src: &dyn TableSource,
    ctx: &'a ExecCtx,
    prof: Option<&OpProfile>,
) -> DbResult<Box<dyn RowStream + 'a>> {
    let child = |p: &'a Plan, i: usize| open(p, src, ctx, prof.map(|pr| pr.child(i)));
    Ok(match plan {
        Plan::Nothing => Box::new(Once { done: false }),
        Plan::Scan { filter, .. } => Box::new(Scan {
            rows: materialize_scan(plan, src, ctx, prof)?.into_iter(),
            filter,
            ctx,
        }),
        Plan::Filter { input, pred } => Box::new(Filter {
            input: child(input, 0)?,
            pred,
            ctx,
        }),
        Plan::Project { input, exprs } => Box::new(Project {
            input: child(input, 0)?,
            exprs,
            ctx,
        }),
        Plan::NlJoin {
            left,
            right,
            filter,
        } => {
            // Materialize the right side once; stream the left.
            let right_rows = drain(child(right, 1)?)?;
            Box::new(NlJoin {
                left: child(left, 0)?,
                right_rows,
                filter,
                ctx,
                cur_left: None,
                right_pos: 0,
            })
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
            for row in drain(child(right, 1)?)? {
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
            Box::new(HashJoin {
                left: child(left, 0)?,
                table,
                left_keys,
                filter,
                ctx,
                cur_left: None,
                matches: Vec::new(),
                match_pos: 0,
            })
        }
        Plan::Aggregate { input, keys, aggs } => {
            let rows = drain(child(input, 0)?)?;
            type GroupState = (Vec<Box<dyn AggregateState>>, Vec<Option<HashSet<GroupKey>>>);
            let mut groups: HashMap<GroupKey, GroupState> = HashMap::new();
            let mut order: Vec<GroupKey> = Vec::new();
            let fresh = || -> GroupState {
                (
                    aggs.iter().map(|a| (a.factory)()).collect(),
                    aggs.iter().map(|a| a.distinct.then(HashSet::new)).collect(),
                )
            };
            for row in &rows {
                let mut kv = Vec::with_capacity(keys.len());
                for k in keys {
                    kv.push(k.eval(ctx, row)?);
                }
                let gk = GroupKey(kv);
                let (states, seen) = match groups.get_mut(&gk) {
                    Some(s) => s,
                    None => {
                        order.push(gk.clone());
                        groups.entry(gk.clone()).or_insert_with(fresh)
                    }
                };
                for ((spec, st), dedup) in aggs.iter().zip(states.iter_mut()).zip(seen) {
                    let v = spec.arg.eval(ctx, row)?;
                    if v.is_null() {
                        continue; // SQL: aggregates skip NULLs
                    }
                    if let Some(seen_vals) = dedup {
                        if !seen_vals.insert(GroupKey(vec![v.clone()])) {
                            continue; // DISTINCT: already counted
                        }
                    }
                    st.step(ctx, &v)?;
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
            Box::new(Materialized {
                rows: out.into_iter(),
            })
        }
        Plan::Distinct { input, visible } => {
            let rows = drain(child(input, 0)?)?;
            let mut seen: HashSet<GroupKey> = HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(GroupKey(row[..*visible].to_vec())) {
                    out.push(row);
                }
            }
            Box::new(Materialized {
                rows: out.into_iter(),
            })
        }
        Plan::Sort { input, keys } => {
            let mut rows = drain(child(input, 0)?)?;
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
            Box::new(Materialized {
                rows: rows.into_iter(),
            })
        }
        Plan::Take { input, keep } => Box::new(Take {
            input: child(input, 0)?,
            keep: *keep,
        }),
        Plan::Limit { input, n } => Box::new(Limit {
            input: child(input, 0)?,
            remaining: *n,
        }),
        Plan::Offset { input, n } => Box::new(Offset {
            input: child(input, 0)?,
            to_skip: *n,
        }),
        Plan::Union { inputs } => {
            let mut streams = Vec::with_capacity(inputs.len());
            for (i, arm) in inputs.iter().enumerate() {
                streams.push(child(arm, i)?);
            }
            Box::new(Chain {
                streams,
                current: 0,
            })
        }
    })
}

struct Once {
    done: bool,
}
impl RowStream for Once {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(Vec::new()))
        }
    }
}

struct Materialized {
    rows: std::vec::IntoIter<Row>,
}
impl RowStream for Materialized {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        Ok(self.rows.next())
    }
}

struct Scan<'a> {
    rows: std::vec::IntoIter<Row>,
    filter: &'a Option<BoundExpr>,
    ctx: &'a ExecCtx,
}
impl RowStream for Scan<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        for row in self.rows.by_ref() {
            match self.filter {
                Some(pred) => {
                    if pred.eval(self.ctx, &row)?.as_bool() == Some(true) {
                        return Ok(Some(row));
                    }
                }
                None => return Ok(Some(row)),
            }
        }
        Ok(None)
    }
}

struct Filter<'a> {
    input: Box<dyn RowStream + 'a>,
    pred: &'a BoundExpr,
    ctx: &'a ExecCtx,
}
impl RowStream for Filter<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        while let Some(row) = self.input.next_row()? {
            if self.pred.eval(self.ctx, &row)?.as_bool() == Some(true) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct Project<'a> {
    input: Box<dyn RowStream + 'a>,
    exprs: &'a [BoundExpr],
    ctx: &'a ExecCtx,
}
impl RowStream for Project<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        match self.input.next_row()? {
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in self.exprs {
                    out.push(e.eval(self.ctx, &row)?);
                }
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }
}

struct NlJoin<'a> {
    left: Box<dyn RowStream + 'a>,
    right_rows: Vec<Row>,
    filter: &'a Option<BoundExpr>,
    ctx: &'a ExecCtx,
    cur_left: Option<Row>,
    right_pos: usize,
}
impl RowStream for NlJoin<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        loop {
            if self.cur_left.is_none() {
                self.cur_left = self.left.next_row()?;
                self.right_pos = 0;
                if self.cur_left.is_none() {
                    return Ok(None);
                }
            }
            let l = self.cur_left.as_ref().expect("set above");
            while self.right_pos < self.right_rows.len() {
                let r = &self.right_rows[self.right_pos];
                self.right_pos += 1;
                let mut joined = Vec::with_capacity(l.len() + r.len());
                joined.extend_from_slice(l);
                joined.extend_from_slice(r);
                match self.filter {
                    Some(pred) => {
                        if pred.eval(self.ctx, &joined)?.as_bool() == Some(true) {
                            return Ok(Some(joined));
                        }
                    }
                    None => return Ok(Some(joined)),
                }
            }
            self.cur_left = None;
        }
    }
}

struct HashJoin<'a> {
    left: Box<dyn RowStream + 'a>,
    table: HashMap<GroupKey, Vec<Row>>,
    left_keys: &'a [BoundExpr],
    filter: &'a Option<BoundExpr>,
    ctx: &'a ExecCtx,
    cur_left: Option<Row>,
    matches: Vec<Row>,
    match_pos: usize,
}
impl RowStream for HashJoin<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        loop {
            if self.cur_left.is_none() {
                let Some(l) = self.left.next_row()? else {
                    return Ok(None);
                };
                let mut key = Vec::with_capacity(self.left_keys.len());
                let mut has_null = false;
                for k in self.left_keys {
                    let v = k.eval(self.ctx, &l)?;
                    has_null |= v.is_null();
                    key.push(v);
                }
                self.matches = if has_null {
                    Vec::new()
                } else {
                    self.table.get(&GroupKey(key)).cloned().unwrap_or_default()
                };
                self.match_pos = 0;
                self.cur_left = Some(l);
            }
            let l = self.cur_left.as_ref().expect("set above");
            while self.match_pos < self.matches.len() {
                let r = &self.matches[self.match_pos];
                self.match_pos += 1;
                let mut joined = Vec::with_capacity(l.len() + r.len());
                joined.extend_from_slice(l);
                joined.extend_from_slice(r);
                match self.filter {
                    Some(pred) => {
                        if pred.eval(self.ctx, &joined)?.as_bool() == Some(true) {
                            return Ok(Some(joined));
                        }
                    }
                    None => return Ok(Some(joined)),
                }
            }
            self.cur_left = None;
        }
    }
}

struct Take<'a> {
    input: Box<dyn RowStream + 'a>,
    keep: usize,
}
impl RowStream for Take<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        match self.input.next_row()? {
            Some(mut row) => {
                row.truncate(self.keep);
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
}

struct Limit<'a> {
    input: Box<dyn RowStream + 'a>,
    remaining: u64,
}
impl RowStream for Limit<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next_row()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
}

struct Offset<'a> {
    input: Box<dyn RowStream + 'a>,
    to_skip: u64,
}
impl RowStream for Offset<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        while self.to_skip > 0 {
            if self.input.next_row()?.is_none() {
                return Ok(None);
            }
            self.to_skip -= 1;
        }
        self.input.next_row()
    }
}

struct Chain<'a> {
    streams: Vec<Box<dyn RowStream + 'a>>,
    current: usize,
}
impl RowStream for Chain<'_> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        while self.current < self.streams.len() {
            if let Some(row) = self.streams[self.current].next_row()? {
                return Ok(Some(row));
            }
            self.current += 1;
        }
        Ok(None)
    }
}
