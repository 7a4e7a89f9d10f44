//! Query planning: lowering parsed statements into executable plans.
//!
//! The planner performs classic rule-based optimization:
//!
//! * **conjunct splitting and predicate pushdown** — single-table WHERE
//!   conjuncts become scan filters;
//! * **hash-join detection** — equality conjuncts across the join frontier
//!   become hash-join keys, everything else stays a join filter;
//! * **index selection** — a pushed-down `col = constant` conjunct over an
//!   indexed column turns the scan into an index lookup;
//! * **constant folding** — column-free expressions are pre-evaluated,
//!   *except* now-dependent ones (anything touching `NOW` must be
//!   evaluated at statement time; folding it into a prepared plan would
//!   change its meaning as time advances).

use crate::binder::{normalize_expr, Binder, BoundExpr, BoundKind, Scope, ScopeCol};
use crate::catalog::{AggregateState, CastFnImpl, Catalog, ExecCtx};
use crate::error::{DbError, DbResult};
use crate::pin::TableSource;
use crate::sql::ast::{Expr, InsertSource, OrderItem, SelectItem, SelectStmt, Statement};
use crate::storage::TableSchema;
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// One aggregate computation within an [`Plan::Aggregate`] node.
pub struct AggSpec {
    /// Argument expression over the aggregate input row.
    pub arg: BoundExpr,
    /// Fresh-state factory from the catalog.
    pub factory: Arc<dyn Fn() -> Box<dyn AggregateState> + Send + Sync>,
    /// Result type.
    pub ret: DataType,
    /// `agg(DISTINCT x)`: feed each distinct argument value once.
    pub distinct: bool,
}

/// An executable (physical) plan node.
pub enum Plan {
    /// Produces exactly one zero-width row (`SELECT` without `FROM`).
    Nothing,
    /// Table scan with pushed-down filter; `index_eq` switches to an
    /// index-equality lookup, `index_overlap` to an interval-index probe.
    /// Every probe returns candidate rows (an index is shared by all
    /// versions of its table, see [`crate::storage::Index`]); the filter
    /// keeps every probed conjunct and rechecks it.
    Scan {
        table: String,
        index_eq: Option<(usize, BoundExpr)>,
        index_overlap: Option<(usize, BoundExpr)>,
        /// Range probe; the originating conjuncts stay in `filter` as a
        /// recheck. Boxed to keep the `Plan` enum small.
        index_range: Option<Box<IndexRange>>,
        filter: Option<BoundExpr>,
        /// When set, only these table columns (by original index, in this
        /// order) are materialized; `arity` is then `project.len()` and
        /// `filter` is expressed over the narrowed row. Index probe
        /// columns stay table-relative (they address the index, not the
        /// materialized row). `None` materializes every column.
        project: Option<Vec<usize>>,
        arity: usize,
    },
    /// Hash join on equality keys plus an optional residual filter over
    /// the concatenated row.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        filter: Option<BoundExpr>,
    },
    /// Nested-loop join with an optional predicate over the concatenated
    /// row (cross product when `filter` is `None`).
    NlJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        filter: Option<BoundExpr>,
    },
    /// Residual row filter.
    Filter { input: Box<Plan>, pred: BoundExpr },
    /// Hash aggregation; output row is `keys ++ aggregate results`. With
    /// no keys, a single global group is produced even on empty input.
    Aggregate {
        input: Box<Plan>,
        keys: Vec<BoundExpr>,
        aggs: Vec<AggSpec>,
    },
    /// Projection.
    Project {
        input: Box<Plan>,
        exprs: Vec<BoundExpr>,
    },
    /// Duplicate elimination over the first `visible` columns.
    Distinct { input: Box<Plan>, visible: usize },
    /// Sort by `(column index, descending)` keys.
    Sort {
        input: Box<Plan>,
        keys: Vec<(usize, bool)>,
    },
    /// Keeps only the first `keep` columns (drops hidden sort columns).
    Take { input: Box<Plan>, keep: usize },
    /// Row-count limit.
    Limit { input: Box<Plan>, n: u64 },
    /// Skips the first `n` rows.
    Offset { input: Box<Plan>, n: u64 },
    /// Bag union of arms with identical arity (UNION ALL; a `Distinct`
    /// on top implements plain UNION).
    Union { inputs: Vec<Plan> },
}

impl Plan {
    /// Output arity of the node.
    pub fn arity(&self) -> usize {
        match self {
            Plan::Nothing => 0,
            Plan::Scan { arity, .. } => *arity,
            Plan::HashJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
                left.arity() + right.arity()
            }
            Plan::Filter { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Offset { input, .. } => input.arity(),
            Plan::Union { inputs } => inputs.first().map_or(0, Plan::arity),
            Plan::Aggregate { keys, aggs, .. } => keys.len() + aggs.len(),
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::Take { keep, .. } => *keep,
        }
    }

    /// The label of this node alone, without children — the same tokens
    /// [`Plan::describe`] uses (`ixscan(t)[f]`, `hashjoin`, …). EXPLAIN
    /// ANALYZE labels its per-operator stat lines with this.
    pub fn node_label(&self) -> String {
        match self {
            Plan::Nothing => "nothing".into(),
            Plan::Scan {
                table,
                index_eq,
                index_overlap,
                index_range,
                filter,
                ..
            } => {
                let mut s = if index_eq.is_some() {
                    format!("ixscan({table})")
                } else if index_overlap.is_some() {
                    format!("ivscan({table})")
                } else if index_range.is_some() {
                    format!("irscan({table})")
                } else {
                    format!("scan({table})")
                };
                if filter.is_some() {
                    s.push_str("[f]");
                }
                s
            }
            Plan::HashJoin { .. } => "hashjoin".into(),
            Plan::NlJoin { .. } => "nljoin".into(),
            Plan::Filter { .. } => "filter".into(),
            Plan::Aggregate { .. } => "agg".into(),
            Plan::Project { .. } => "project".into(),
            Plan::Distinct { .. } => "distinct".into(),
            Plan::Sort { .. } => "sort".into(),
            Plan::Take { .. } => "take".into(),
            Plan::Limit { .. } => "limit".into(),
            Plan::Offset { .. } => "offset".into(),
            Plan::Union { .. } => "union".into(),
        }
    }

    /// A compact single-line description of the plan shape, for tests and
    /// EXPLAIN-style diagnostics (e.g.
    /// `"limit(sort(project(hashjoin(scan(t),scan(u)))))"`).
    pub fn describe(&self) -> String {
        match self {
            Plan::Nothing => "nothing".into(),
            Plan::Scan {
                table,
                index_eq,
                index_overlap,
                index_range,
                filter,
                ..
            } => {
                let mut s = if index_eq.is_some() {
                    format!("ixscan({table})")
                } else if index_overlap.is_some() {
                    format!("ivscan({table})")
                } else if index_range.is_some() {
                    format!("irscan({table})")
                } else {
                    format!("scan({table})")
                };
                if filter.is_some() {
                    s.push_str("[f]");
                }
                s
            }
            Plan::HashJoin { left, right, .. } => {
                format!("hashjoin({},{})", left.describe(), right.describe())
            }
            Plan::NlJoin { left, right, .. } => {
                format!("nljoin({},{})", left.describe(), right.describe())
            }
            Plan::Filter { input, .. } => format!("filter({})", input.describe()),
            Plan::Aggregate { input, .. } => format!("agg({})", input.describe()),
            Plan::Project { input, .. } => format!("project({})", input.describe()),
            Plan::Distinct { input, .. } => format!("distinct({})", input.describe()),
            Plan::Sort { input, .. } => format!("sort({})", input.describe()),
            Plan::Take { input, .. } => format!("take({})", input.describe()),
            Plan::Limit { input, .. } => format!("limit({})", input.describe()),
            Plan::Offset { input, .. } => format!("offset({})", input.describe()),
            Plan::Union { inputs } => {
                let arms: Vec<String> = inputs.iter().map(Plan::describe).collect();
                format!("union({})", arms.join(","))
            }
        }
    }

    /// Whether the plan runs on the batch engine. Every operator shape
    /// opens as a batch stream and every scalar application carries a
    /// kernel (see [`BoundKind::Apply`]), so this holds for every plan;
    /// the method remains for callers that still ask before executing.
    pub fn batch_capable(&self) -> bool {
        true
    }

    /// Projection pushdown: when a `Project` or `Aggregate` sits directly
    /// on a full-width `Scan`, narrow the scan to the columns the parent
    /// (and the scan's own filter) actually read, remapping column
    /// references onto the narrowed row. Conservative on purpose — other
    /// shapes (joins, sorts on hidden columns) keep full rows.
    pub fn pushdown_projections(&mut self) {
        // Recurse first so nested shapes (e.g. Aggregate over Project)
        // are each considered against their own child.
        match self {
            Plan::Nothing | Plan::Scan { .. } => {}
            Plan::HashJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
                left.pushdown_projections();
                right.pushdown_projections();
            }
            Plan::Filter { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Take { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Offset { input, .. } => input.pushdown_projections(),
            Plan::Union { inputs } => {
                for p in inputs {
                    p.pushdown_projections();
                }
            }
        }
        match self {
            Plan::Project { input, exprs } => {
                Plan::narrow_scan_under(input, exprs.iter_mut());
            }
            Plan::Aggregate { input, keys, aggs } => {
                let exprs = keys.iter_mut().chain(aggs.iter_mut().map(|a| &mut a.arg));
                Plan::narrow_scan_under(input, exprs);
            }
            _ => {}
        }
    }

    /// If `child` is a full-width scan, restrict it to the columns read
    /// by `parent_exprs` plus its own filter, and remap both.
    fn narrow_scan_under<'e>(
        child: &mut Plan,
        parent_exprs: impl Iterator<Item = &'e mut BoundExpr>,
    ) {
        let Plan::Scan {
            filter,
            project,
            arity,
            ..
        } = child
        else {
            return;
        };
        if project.is_some() {
            return;
        }
        let mut parent_exprs: Vec<&mut BoundExpr> = parent_exprs.collect();
        let mut used = Vec::new();
        for e in &parent_exprs {
            e.collect_columns(&mut used);
        }
        if let Some(f) = filter.as_ref() {
            f.collect_columns(&mut used);
        }
        used.sort_unstable();
        used.dedup();
        if used.len() == *arity {
            return; // every column is read; nothing to narrow
        }
        let map: HashMap<usize, usize> = used.iter().enumerate().map(|(n, &c)| (c, n)).collect();
        for e in parent_exprs.iter_mut() {
            e.remap_columns(&map);
        }
        if let Some(f) = filter.as_mut() {
            f.remap_columns(&map);
        }
        *arity = used.len();
        *project = Some(used);
    }
}

/// A B-tree range probe for a scan.
pub struct IndexRange {
    pub column: usize,
    pub lo: Option<(BoundExpr, bool)>,
    pub hi: Option<(BoundExpr, bool)>,
}

/// A planned INSERT, UPDATE or DELETE. Rowids are not part of it: an
/// INSERT's are chosen when it runs, from the table it runs against.
pub struct DmlPlan {
    /// Canonical name of the target table.
    pub table: String,
    pub op: DmlOp,
}

/// What a [`DmlPlan`] writes, and what it reads to find it.
pub enum DmlOp {
    /// `INSERT … VALUES`: one full-width row per VALUES row, each
    /// expression coerced to its column's type (NULL where unlisted).
    Values(Vec<Vec<BoundExpr>>),
    /// `INSERT … SELECT`: the query's plan and, per output column, the
    /// column it fills and the implicit cast it needs (`None` when the
    /// types already agree).
    Query {
        plan: Plan,
        targets: Vec<(usize, Option<CastFnImpl>)>,
    },
    /// `UPDATE`: `scan` selects the victims — the plan a single-table
    /// SELECT with the same WHERE would get, index probes included, but
    /// full-width, since applying a change needs the whole old row and
    /// its old index keys. `sets` are the assignments as (column index,
    /// new value over the old row).
    Update {
        scan: Plan,
        sets: Vec<(usize, BoundExpr)>,
    },
    /// `DELETE`: `scan` as for UPDATE.
    Delete { scan: Plan },
}

impl DmlPlan {
    /// The plan the write reads through (a query or a victim scan), if
    /// any — what its access path is charged from.
    pub fn input(&self) -> Option<&Plan> {
        match &self.op {
            DmlOp::Values(_) => None,
            DmlOp::Query { plan: input, .. }
            | DmlOp::Update { scan: input, .. }
            | DmlOp::Delete { scan: input } => Some(input),
        }
    }

    /// `true` for both forms of INSERT.
    pub fn is_insert(&self) -> bool {
        matches!(self.op, DmlOp::Values(_) | DmlOp::Query { .. })
    }

    /// `update(t) over ixscan(t)` — what EXPLAIN and the slow-query log
    /// show.
    pub fn describe(&self) -> String {
        let verb = match self.op {
            DmlOp::Values(_) => return format!("insert({})", self.table),
            DmlOp::Query { .. } => "insert",
            DmlOp::Update { .. } => "update",
            DmlOp::Delete { .. } => "delete",
        };
        let input = self.input().map_or_else(String::new, Plan::describe);
        format!("{verb}({}) over {input}", self.table)
    }
}

/// One planned statement: what the plan cache holds and what a session
/// runs.
pub enum Planned {
    Select(PlannedSelect),
    Write(DmlPlan),
}

impl Planned {
    /// The one-line plan shape EXPLAIN returns.
    pub fn describe(&self) -> String {
        match self {
            Planned::Select(select) => select.plan.describe(),
            Planned::Write(dml) => dml.describe(),
        }
    }
}

/// A planned SELECT: the plan plus output column metadata.
pub struct PlannedSelect {
    pub plan: Plan,
    pub columns: Vec<(String, DataType)>,
}

/// Splits an AST predicate into its top-level conjuncts.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: crate::sql::ast::AstBinOp::And,
            lhs,
            rhs,
        } => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        other => vec![other.clone()],
    }
}

/// Does the AST expression contain an aggregate call (w.r.t. a catalog)?
/// A subquery's own aggregates are its own.
fn contains_aggregate(e: &Expr, cat: &Catalog) -> bool {
    match e {
        Expr::Call { name, star, .. } if *star || cat.has_aggregate(name) => true,
        Expr::InSubquery { .. } => false,
        _ => {
            let mut found = false;
            e.for_each_child(|c| found = found || contains_aggregate(c, cat));
            found
        }
    }
}

/// Collects the distinct aggregate calls of an expression, in first-seen
/// order (normalized for deduplication).
fn collect_aggregates(e: &Expr, cat: &Catalog, out: &mut Vec<Expr>) {
    match e {
        Expr::Call { name, star, .. } if *star || cat.has_aggregate(name) => {
            let norm = normalize_expr(e);
            if !out.contains(&norm) {
                out.push(norm);
            }
        }
        Expr::InSubquery { .. } => {}
        _ => e.for_each_child(|c| collect_aggregates(c, cat, out)),
    }
}

/// Rewrites an expression for the post-aggregation scope: group-key
/// subexpressions become `#post.k<i>` references, aggregate calls become
/// `#post.a<j>` references; any other column reference is an error the
/// binder will report (it won't resolve in the post scope).
fn subst_post_agg(e: &Expr, group_keys: &[Expr], aggs: &[Expr]) -> Expr {
    let norm = normalize_expr(e);
    if let Some(i) = group_keys.iter().position(|g| *g == norm) {
        return Expr::Column {
            qualifier: Some("#post".into()),
            name: format!("k{i}"),
        };
    }
    if let Some(j) = aggs.iter().position(|a| *a == norm) {
        return Expr::Column {
            qualifier: Some("#post".into()),
            name: format!("a{j}"),
        };
    }
    if let Expr::InSubquery { .. } = e {
        return e.clone();
    }
    let Ok(e) = e.try_map_children(|c| Ok::<_, Infallible>(subst_post_agg(c, group_keys, aggs)));
    e
}

/// A display name for an output column without an alias.
fn expr_display_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Call { name, .. } => name.to_ascii_lowercase(),
        Expr::Cast { expr, .. } => expr_display_name(expr),
        _ => "?column?".into(),
    }
}

/// An INSERT's target column indexes: its column list, else every
/// column. Unknown and repeated columns are refused.
fn target_columns(
    schema: &TableSchema,
    table: &str,
    columns: &Option<Vec<String>>,
) -> DbResult<Vec<usize>> {
    let Some(names) = columns else {
        return Ok((0..schema.columns.len()).collect());
    };
    let mut idxs = Vec::with_capacity(names.len());
    for n in names {
        let i = schema.col_index(n).ok_or_else(|| DbError::NotFound {
            kind: "column",
            name: format!("{table}.{n}"),
        })?;
        if idxs.contains(&i) {
            return Err(DbError::Constraint {
                message: format!("column {n} listed twice"),
            });
        }
        idxs.push(i);
    }
    Ok(idxs)
}

/// The query planner for one statement.
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    /// The statement's pinned tables (or any other fixed table set).
    pub tables: &'a dyn TableSource,
    pub binder: Binder<'a>,
    /// Statement context used for constant folding.
    pub ctx: ExecCtx,
    /// Guard against runaway subquery nesting.
    subquery_depth: std::cell::Cell<usize>,
}

/// Maximum subquery nesting depth.
const MAX_SUBQUERY_DEPTH: usize = 16;

impl<'a> Planner<'a> {
    /// Creates a planner.
    pub fn new(
        catalog: &'a Catalog,
        tables: &'a dyn TableSource,
        params: &'a HashMap<String, Value>,
        ctx: ExecCtx,
    ) -> Planner<'a> {
        Planner {
            catalog,
            tables,
            binder: Binder::new(catalog, params),
            ctx,
            subquery_depth: std::cell::Cell::new(0),
        }
    }

    /// [`Planner::new`] under its former name: every planner binds
    /// `:name` as a [`BoundKind::Param`] slot.
    pub fn new_deferred(
        catalog: &'a Catalog,
        tables: &'a dyn TableSource,
        params: &'a HashMap<String, Value>,
        ctx: ExecCtx,
    ) -> Planner<'a> {
        Planner::new(catalog, tables, params, ctx)
    }

    /// Evaluates one uncorrelated subquery to its rows (single output
    /// column enforced by the callers).
    fn eval_subquery(&self, sub: &SelectStmt) -> DbResult<Vec<crate::value::Row>> {
        if self.subquery_depth.get() >= MAX_SUBQUERY_DEPTH {
            return Err(DbError::binding(format!(
                "subquery nesting exceeds the maximum depth of {MAX_SUBQUERY_DEPTH}"
            )));
        }
        self.subquery_depth.set(self.subquery_depth.get() + 1);
        let result = (|| {
            let planned = self.plan_select(sub)?;
            if planned.columns.len() != 1 {
                return Err(DbError::binding(format!(
                    "subquery must return exactly one column, got {}",
                    planned.columns.len()
                )));
            }
            crate::exec::execute(&planned.plan, self.tables, &self.ctx)
        })();
        self.subquery_depth.set(self.subquery_depth.get() - 1);
        result
    }

    /// Replaces every (uncorrelated) subquery in an expression with its
    /// value: a scalar subquery becomes a [`Expr::BoundValue`]; an
    /// `IN (SELECT …)` becomes an IN-list of bound values (or FALSE when
    /// the subquery is empty). Evaluation uses the statement's own
    /// snapshot and transaction time, so the semantics match inline
    /// evaluation.
    pub fn resolve_subqueries(&self, e: &Expr) -> DbResult<Expr> {
        use crate::sql::ast::Lit;
        match e {
            Expr::Subquery(sub) => {
                let rows = self.eval_subquery(sub)?;
                match rows.len() {
                    0 => Ok(Expr::BoundValue(Value::Null)),
                    1 => Ok(Expr::BoundValue(
                        rows.into_iter().next().expect("one").remove(0),
                    )),
                    n => Err(DbError::exec(format!("scalar subquery returned {n} rows"))),
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let lhs = self.resolve_subqueries(expr)?;
                let rows = self.eval_subquery(query)?;
                if rows.is_empty() {
                    // x IN (empty) is FALSE; NOT IN (empty) is TRUE.
                    return Ok(Expr::Literal(Lit::Bool(*negated)));
                }
                let list = rows
                    .into_iter()
                    .map(|mut r| Expr::BoundValue(r.remove(0)))
                    .collect();
                Ok(Expr::InList {
                    expr: Box::new(lhs),
                    list,
                    negated: *negated,
                })
            }
            _ => e.try_map_children(|c| self.resolve_subqueries(c)),
        }
    }

    /// Pre-pass over a whole SELECT: replaces subqueries everywhere an
    /// expression can appear.
    fn resolve_stmt_subqueries(&self, stmt: &SelectStmt) -> DbResult<SelectStmt> {
        let mut out = stmt.clone();
        if let Some(w) = &stmt.where_clause {
            out.where_clause = Some(self.resolve_subqueries(w)?);
        }
        if let Some(h) = &stmt.having {
            out.having = Some(self.resolve_subqueries(h)?);
        }
        for item in &mut out.items {
            if let SelectItem::Expr { expr, .. } = item {
                *expr = self.resolve_subqueries(expr)?;
            }
        }
        for g in &mut out.group_by {
            *g = self.resolve_subqueries(g)?;
        }
        for o in &mut out.order_by {
            o.expr = self.resolve_subqueries(&o.expr)?;
        }
        Ok(out)
    }

    /// Binds an expression and constant-folds it when safe.
    pub fn bind_folded(&self, e: &Expr, scope: &Scope) -> DbResult<BoundExpr> {
        let bound = self.binder.bind(e, scope)?;
        Ok(self.fold(bound))
    }

    /// Constant folding: column-free, non-now-dependent expressions are
    /// evaluated once at plan time. Evaluation errors are left in place
    /// so they surface (or not) under correct runtime semantics.
    pub fn fold(&self, e: BoundExpr) -> BoundExpr {
        if matches!(e.kind, BoundKind::Literal(_)) {
            return e;
        }
        if e.is_column_free() && !e.now_dep && !e.contains_param() {
            if let Ok(v) = e.eval(&self.ctx, &[]) {
                return BoundExpr {
                    ty: e.ty,
                    now_dep: false,
                    kind: BoundKind::Literal(v),
                };
            }
        }
        e
    }

    /// Plans a SELECT statement (dispatching UNION chains).
    pub fn plan_select(&self, stmt: &SelectStmt) -> DbResult<PlannedSelect> {
        let mut planned = if stmt.union.is_some() {
            self.plan_union(stmt)?
        } else {
            self.plan_single_select(stmt)?
        };
        planned.plan.pushdown_projections();
        Ok(planned)
    }

    /// Plans a SELECT or a write.
    pub fn plan(&self, stmt: &Statement) -> DbResult<Planned> {
        match stmt {
            Statement::Select(sel) => Ok(Planned::Select(self.plan_select(sel)?)),
            write => Ok(Planned::Write(self.plan_dml(write)?)),
        }
    }

    /// Plans an INSERT, UPDATE or DELETE. A victim-finding WHERE goes,
    /// its subqueries resolved, through the same scan planning as a
    /// SELECT's conjuncts.
    pub fn plan_dml(&self, stmt: &Statement) -> DbResult<DmlPlan> {
        let (table, where_clause) = match stmt {
            Statement::Insert { table, .. } => (table, &None),
            Statement::Update {
                table,
                where_clause,
                ..
            }
            | Statement::Delete {
                table,
                where_clause,
            } => (table, where_clause),
            _ => {
                return Err(DbError::binding(
                    "only INSERT, UPDATE and DELETE plan as writes",
                ))
            }
        };
        let schema = &self.tables.table(table)?.schema;
        let binding = schema.name.to_ascii_lowercase();
        let scope = Scope::new(
            schema
                .columns
                .iter()
                .map(|c| ScopeCol {
                    binding: Some(binding.clone()),
                    name: c.name.to_ascii_lowercase(),
                    ty: c.ty,
                })
                .collect(),
        );
        let pushed = match where_clause {
            Some(w) if contains_aggregate(w, self.catalog) => {
                return Err(DbError::binding("aggregates are not allowed in WHERE"))
            }
            Some(w) => conjuncts(&self.resolve_subqueries(w)?),
            None => Vec::new(),
        };
        let range = (binding, 0..scope.cols.len());
        let op = match stmt {
            Statement::Insert {
                columns,
                source: InsertSource::Values(rows),
                ..
            } => DmlOp::Values(self.plan_values(
                schema,
                &target_columns(schema, table, columns)?,
                rows,
            )?),
            Statement::Insert {
                columns,
                source: InsertSource::Query(sel),
                ..
            } => self.plan_insert_query(schema, &target_columns(schema, table, columns)?, sel)?,
            Statement::Update { sets, .. } => {
                let mut bound = Vec::with_capacity(sets.len());
                for (name, e) in sets {
                    let col = schema.col_index(name).ok_or_else(|| DbError::NotFound {
                        kind: "column",
                        name: format!("{table}.{name}"),
                    })?;
                    let e = self.binder.bind(&self.resolve_subqueries(e)?, &scope)?;
                    let e = self.binder.coerce(e, schema.columns[col].ty, false)?;
                    bound.push((col, self.fold(e)));
                }
                DmlOp::Update {
                    scan: self.plan_scan(table, &pushed, &range, &scope)?,
                    sets: bound,
                }
            }
            _ => DmlOp::Delete {
                scan: self.plan_scan(table, &pushed, &range, &scope)?,
            },
        };
        Ok(DmlPlan {
            table: schema.name.clone(),
            op,
        })
    }

    /// INSERT … VALUES rows as full-width rows of bound expressions, each
    /// coerced to its target column's type.
    fn plan_values(
        &self,
        schema: &TableSchema,
        targets: &[usize],
        rows: &[Vec<Expr>],
    ) -> DbResult<Vec<Vec<BoundExpr>>> {
        let scope = Scope::default();
        let mut out = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != targets.len() {
                return Err(DbError::Constraint {
                    message: format!(
                        "INSERT has {} value(s) but {} column(s)",
                        exprs.len(),
                        targets.len()
                    ),
                });
            }
            let mut row: Vec<BoundExpr> = (0..schema.columns.len())
                .map(|_| BoundExpr::literal(Value::Null))
                .collect();
            for (e, &col) in exprs.iter().zip(targets) {
                let bound = self.binder.bind(&self.resolve_subqueries(e)?, &scope)?;
                let bound = self.binder.coerce(bound, schema.columns[col].ty, false)?;
                row[col] = self.fold(bound);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// The SELECT side of INSERT … SELECT, with the implicit cast each
    /// produced column needs to land in its target column.
    fn plan_insert_query(
        &self,
        schema: &TableSchema,
        targets: &[usize],
        sel: &SelectStmt,
    ) -> DbResult<DmlOp> {
        let planned = self.plan_select(sel)?;
        if planned.columns.len() != targets.len() {
            return Err(DbError::Constraint {
                message: format!(
                    "INSERT … SELECT produces {} column(s) but {} are targeted",
                    planned.columns.len(),
                    targets.len()
                ),
            });
        }
        let mut casts = Vec::with_capacity(targets.len());
        for ((_, src_ty), &col) in planned.columns.iter().zip(targets) {
            let dst_ty = schema.columns[col].ty;
            let cast = if *src_ty == dst_ty || *src_ty == DataType::Null {
                None
            } else {
                let cast = self
                    .catalog
                    .find_cast(*src_ty, dst_ty, false)
                    .ok_or_else(|| DbError::NoOverload {
                        what: format!(
                            "cast {} -> {} for INSERT … SELECT",
                            self.catalog.type_name(*src_ty),
                            self.catalog.type_name(dst_ty)
                        ),
                    })?;
                Some(cast.f.clone())
            };
            casts.push((col, cast));
        }
        Ok(DmlOp::Query {
            plan: planned.plan,
            targets: casts,
        })
    }

    /// Plans a UNION chain: every arm is planned independently, arities
    /// and types must line up, and ORDER BY keys may only reference
    /// output column names or 1-based ordinals.
    fn plan_union(&self, stmt: &SelectStmt) -> DbResult<PlannedSelect> {
        // Materialize the arm list: the head (stripped of chain-level
        // clauses) followed by the chained arms.
        let mut head = stmt.clone();
        let order_by = std::mem::take(&mut head.order_by);
        let limit = head.limit.take();
        let offset = head.offset.take();
        let mut chain = head.union.take();
        let mut arms = vec![head];
        let mut any_distinct_link = false;
        while let Some((all, next)) = chain {
            any_distinct_link |= !all;
            let mut next = *next;
            chain = next.union.take();
            arms.push(next);
        }
        let mut inputs = Vec::with_capacity(arms.len());
        let mut columns: Option<Vec<(String, DataType)>> = None;
        for arm in &arms {
            let planned = self.plan_single_select(arm)?;
            match &mut columns {
                None => columns = Some(planned.columns),
                Some(cols) => {
                    if cols.len() != planned.columns.len() {
                        return Err(DbError::binding(format!(
                            "UNION arms have {} vs {} columns",
                            cols.len(),
                            planned.columns.len()
                        )));
                    }
                    for ((_, a), (i, (_, b))) in
                        cols.iter_mut().zip(planned.columns.iter().enumerate())
                    {
                        if *a == *b || *b == DataType::Null {
                            continue;
                        }
                        if *a == DataType::Null {
                            *a = *b;
                            continue;
                        }
                        return Err(DbError::type_err(format!(
                            "UNION column {} has incompatible types {a} and {b}",
                            i + 1
                        )));
                    }
                }
            }
            inputs.push(planned.plan);
        }
        let columns = columns.expect("at least one arm");
        let mut plan = Plan::Union { inputs };
        if any_distinct_link {
            plan = Plan::Distinct {
                input: Box::new(plan),
                visible: columns.len(),
            };
        }
        if !order_by.is_empty() {
            let mut keys = Vec::with_capacity(order_by.len());
            for item in &order_by {
                let idx = match &item.expr {
                    Expr::Column {
                        qualifier: None,
                        name,
                    } => columns
                        .iter()
                        .position(|(n, _)| n.eq_ignore_ascii_case(name))
                        .ok_or_else(|| {
                            DbError::binding(format!(
                                "ORDER BY column {name} is not in the UNION output"
                            ))
                        })?,
                    Expr::Literal(crate::sql::ast::Lit::Int(k))
                        if *k >= 1 && (*k as usize) <= columns.len() =>
                    {
                        (*k - 1) as usize
                    }
                    _ => {
                        return Err(DbError::binding(
                            "ORDER BY on a UNION must use output names or ordinals",
                        ))
                    }
                };
                keys.push((idx, item.desc));
            }
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = offset {
            plan = Plan::Offset {
                input: Box::new(plan),
                n,
            };
        }
        if let Some(n) = limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(PlannedSelect { plan, columns })
    }

    /// Plans a plain (non-UNION) SELECT.
    fn plan_single_select(&self, stmt: &SelectStmt) -> DbResult<PlannedSelect> {
        let stmt = &self.resolve_stmt_subqueries(stmt)?;
        // ---- FROM scope -----------------------------------------------
        // Each FROM entry is a base table or a view; views are planned
        // (inlined) here and carried as ready subplans.
        let mut view_plans: Vec<Option<Plan>> = Vec::with_capacity(stmt.from.len());
        let mut scope_cols = Vec::new();
        let mut table_ranges: Vec<(String, std::ops::Range<usize>)> = Vec::new();
        for tref in &stmt.from {
            let binding = tref.binding_name().to_ascii_lowercase();
            if table_ranges.iter().any(|(b, _)| *b == binding) {
                return Err(DbError::binding(format!(
                    "duplicate table binding {binding:?}; use aliases"
                )));
            }
            let start = scope_cols.len();
            if let Ok(table) = self.tables.table(&tref.table) {
                for c in &table.schema.columns {
                    scope_cols.push(ScopeCol {
                        binding: Some(binding.clone()),
                        name: c.name.to_ascii_lowercase(),
                        ty: c.ty,
                    });
                }
                view_plans.push(None);
            } else if let Some(view) = self.tables.view(&tref.table) {
                let planned = self.plan_view(&view.body_sql, &tref.table)?;
                for (name, ty) in &planned.columns {
                    scope_cols.push(ScopeCol {
                        binding: Some(binding.clone()),
                        name: name.to_ascii_lowercase(),
                        ty: *ty,
                    });
                }
                view_plans.push(Some(planned.plan));
            } else {
                return Err(DbError::NotFound {
                    kind: "table or view",
                    name: tref.table.clone(),
                });
            }
            table_ranges.push((binding, start..scope_cols.len()));
        }
        let scope = Scope::new(scope_cols);

        // ---- WHERE conjunct classification -----------------------------
        let mut scan_filters: Vec<Vec<Expr>> = vec![Vec::new(); stmt.from.len()];
        let mut join_conjuncts: Vec<(usize, Expr)> = Vec::new(); // (frontier table, conj)
        if let Some(w) = &stmt.where_clause {
            if contains_aggregate(w, self.catalog) {
                return Err(DbError::binding("aggregates are not allowed in WHERE"));
            }
            for conj in conjuncts(w) {
                // Validate and find referenced tables.
                let bound = self.binder.bind(&conj, &scope)?;
                let mut cols = Vec::new();
                bound.collect_columns(&mut cols);
                let tables_hit: Vec<usize> = table_ranges
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, r))| cols.iter().any(|c| r.contains(c)))
                    .map(|(i, _)| i)
                    .collect();
                match tables_hit.len() {
                    0 => {
                        // Column-free predicate: attach to the first scan
                        // (or the overall filter when there is no table).
                        if stmt.from.is_empty() {
                            join_conjuncts.push((0, conj));
                        } else {
                            scan_filters[0].push(conj);
                        }
                    }
                    1 => scan_filters[tables_hit[0]].push(conj),
                    _ => {
                        let frontier = *tables_hit.iter().max().expect("nonempty");
                        join_conjuncts.push((frontier, conj));
                    }
                }
            }
        }

        // ---- build join tree -------------------------------------------
        let mut plan = if stmt.from.is_empty() {
            Plan::Nothing
        } else {
            self.plan_relation(
                &stmt.from[0].table,
                view_plans[0].take(),
                &scan_filters[0],
                &table_ranges[0],
                &scope,
            )?
        };
        for (i, tref) in stmt.from.iter().enumerate().skip(1) {
            let right = self.plan_relation(
                &tref.table,
                view_plans[i].take(),
                &scan_filters[i],
                &table_ranges[i],
                &scope,
            )?;
            // Partition this step's join conjuncts into hash keys and
            // residual filters.
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut residual: Option<BoundExpr> = None;
            let left_range = 0..table_ranges[i].1.start;
            let right_range = table_ranges[i].1.clone();
            for (frontier, conj) in join_conjuncts.iter().filter(|(f, _)| *f == i) {
                debug_assert_eq!(*frontier, i);
                let mut as_hash_key = false;
                if let Expr::Binary {
                    op: crate::sql::ast::AstBinOp::Eq,
                    lhs,
                    rhs,
                } = conj
                {
                    let bl = self.binder.bind(lhs, &scope)?;
                    let br = self.binder.bind(rhs, &scope)?;
                    let mut lc = Vec::new();
                    let mut rc = Vec::new();
                    bl.collect_columns(&mut lc);
                    br.collect_columns(&mut rc);
                    let l_in_left = lc.iter().all(|c| left_range.contains(c));
                    let l_in_right = lc.iter().all(|c| right_range.contains(c));
                    let r_in_left = rc.iter().all(|c| left_range.contains(c));
                    let r_in_right = rc.iter().all(|c| right_range.contains(c));
                    if l_in_left && r_in_right {
                        left_keys.push(self.fold(bl));
                        right_keys.push(self.rebase(self.fold(br), right_range.start));
                        as_hash_key = true;
                    } else if l_in_right && r_in_left {
                        left_keys.push(self.fold(br));
                        right_keys.push(self.rebase(self.fold(bl), right_range.start));
                        as_hash_key = true;
                    }
                }
                if !as_hash_key {
                    let bound = self.bind_folded(conj, &scope)?;
                    residual = Some(match residual {
                        None => bound,
                        Some(prev) => BoundExpr {
                            ty: DataType::Bool,
                            now_dep: prev.now_dep || bound.now_dep,
                            kind: BoundKind::And(Box::new(prev), Box::new(bound)),
                        },
                    });
                }
            }
            plan = if left_keys.is_empty() {
                Plan::NlJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    filter: residual,
                }
            } else {
                Plan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    left_keys,
                    right_keys,
                    filter: residual,
                }
            };
        }
        // Column-free conjuncts from a FROM-less query.
        if stmt.from.is_empty() {
            for (_, conj) in join_conjuncts {
                let pred = self.bind_folded(&conj, &scope)?;
                plan = Plan::Filter {
                    input: Box::new(plan),
                    pred,
                };
            }
        }

        // ---- aggregation ------------------------------------------------
        let has_agg = !stmt.group_by.is_empty()
            || stmt.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr, self.catalog),
                _ => false,
            })
            || stmt
                .having
                .as_ref()
                .is_some_and(|h| contains_aggregate(h, self.catalog));

        // Expand wildcards into per-column expressions (pre-aggregation
        // scope only).
        let mut item_exprs: Vec<(Expr, String)> = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    if has_agg {
                        return Err(DbError::binding("* is not allowed with GROUP BY"));
                    }
                    for c in &scope.cols {
                        item_exprs.push((
                            Expr::Column {
                                qualifier: c.binding.clone(),
                                name: c.name.clone(),
                            },
                            c.name.clone(),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    if has_agg {
                        return Err(DbError::binding("alias.* is not allowed with GROUP BY"));
                    }
                    let ql = q.to_ascii_lowercase();
                    if !table_ranges.iter().any(|(b, _)| *b == ql) {
                        return Err(DbError::binding(format!("unknown table alias {q}")));
                    }
                    for c in scope
                        .cols
                        .iter()
                        .filter(|c| c.binding.as_deref() == Some(&ql))
                    {
                        item_exprs.push((
                            Expr::Column {
                                qualifier: Some(ql.clone()),
                                name: c.name.clone(),
                            },
                            c.name.clone(),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| expr_display_name(expr));
                    item_exprs.push((expr.clone(), name));
                }
            }
        }

        // ---- bind select items (+ having + order by) --------------------
        let mut bound_items: Vec<BoundExpr>;
        let mut having_bound: Option<BoundExpr> = None;
        // For ORDER BY resolution, remember the (normalized) item exprs.
        let normalized_items: Vec<Expr> =
            item_exprs.iter().map(|(e, _)| normalize_expr(e)).collect();
        let mut order_exprs: Vec<(Expr, bool)> = Vec::new();
        for OrderItem { expr, desc } in &stmt.order_by {
            // Allow ordering by an output alias.
            let resolved = match expr {
                Expr::Column {
                    qualifier: None,
                    name,
                } => item_exprs
                    .iter()
                    .find(|(_, n)| n.eq_ignore_ascii_case(name))
                    .map(|(e, _)| e.clone())
                    .unwrap_or_else(|| expr.clone()),
                other => other.clone(),
            };
            order_exprs.push((resolved, *desc));
        }

        if has_agg {
            // Collect aggregate calls across items, having, order-by.
            let group_norm: Vec<Expr> = stmt.group_by.iter().map(normalize_expr).collect();
            let mut agg_calls: Vec<Expr> = Vec::new();
            for (e, _) in &item_exprs {
                collect_aggregates(e, self.catalog, &mut agg_calls);
            }
            if let Some(h) = &stmt.having {
                collect_aggregates(h, self.catalog, &mut agg_calls);
            }
            for (e, _) in &order_exprs {
                collect_aggregates(e, self.catalog, &mut agg_calls);
            }
            // Bind group keys and aggregate arguments over the input scope.
            let mut key_bound = Vec::new();
            for g in &stmt.group_by {
                key_bound.push(self.bind_folded(g, &scope)?);
            }
            let mut specs = Vec::new();
            let mut post_cols = Vec::new();
            for (i, kb) in key_bound.iter().enumerate() {
                post_cols.push(ScopeCol {
                    binding: Some("#post".into()),
                    name: format!("k{i}"),
                    ty: kb.ty,
                });
            }
            for (j, call) in agg_calls.iter().enumerate() {
                let Expr::Call {
                    name,
                    args,
                    star,
                    distinct,
                } = call
                else {
                    unreachable!()
                };
                let arg_bound = if *star {
                    // COUNT(*): count a constant 1 per row.
                    BoundExpr {
                        ty: DataType::Int,
                        now_dep: false,
                        kind: BoundKind::Literal(Value::Int(1)),
                    }
                } else {
                    if args.len() != 1 {
                        return Err(DbError::binding(format!(
                            "aggregate {name} takes exactly one argument"
                        )));
                    }
                    if contains_aggregate(&args[0], self.catalog) {
                        return Err(DbError::binding("nested aggregates are not allowed"));
                    }
                    self.bind_folded(&args[0], &scope)?
                };
                let ov = self.catalog.resolve_aggregate(name, arg_bound.ty)?;
                let arg = self.binder.coerce(
                    arg_bound,
                    if *star { DataType::Int } else { ov.param },
                    false,
                )?;
                post_cols.push(ScopeCol {
                    binding: Some("#post".into()),
                    name: format!("a{j}"),
                    ty: ov.ret,
                });
                specs.push(AggSpec {
                    arg,
                    factory: ov.factory.clone(),
                    ret: ov.ret,
                    distinct: *distinct,
                });
            }
            let post_scope = Scope::new(post_cols);
            plan = Plan::Aggregate {
                input: Box::new(plan),
                keys: key_bound,
                aggs: specs,
            };
            // HAVING over the post scope.
            if let Some(h) = &stmt.having {
                let subst = subst_post_agg(h, &group_norm, &agg_calls);
                let pred = self.bind_folded(&subst, &post_scope)?;
                if pred.ty != DataType::Bool && pred.ty != DataType::Null {
                    return Err(DbError::type_err("HAVING must be BOOLEAN"));
                }
                having_bound = Some(pred);
            }
            // Items / order keys over the post scope.
            bound_items = Vec::new();
            for (e, _) in &item_exprs {
                let subst = subst_post_agg(e, &group_norm, &agg_calls);
                bound_items.push(self.bind_folded(&subst, &post_scope).map_err(
                    |err| match err {
                        DbError::Binding { message } => DbError::binding(format!(
                            "{message} (expressions outside aggregates must appear in GROUP BY)"
                        )),
                        other => other,
                    },
                )?);
            }
            let mut order_bound = Vec::new();
            for (e, desc) in &order_exprs {
                let subst = subst_post_agg(e, &group_norm, &agg_calls);
                order_bound.push((self.bind_folded(&subst, &post_scope)?, *desc));
            }
            return self.finish_select(
                stmt,
                plan,
                having_bound,
                bound_items,
                item_exprs.iter().map(|(_, n)| n.clone()).collect(),
                normalized_items,
                order_exprs,
                order_bound,
            );
        }

        // Non-aggregating path: bind items and order keys over the scope.
        bound_items = Vec::new();
        for (e, _) in &item_exprs {
            bound_items.push(self.bind_folded(e, &scope)?);
        }
        let mut order_bound = Vec::new();
        for (e, desc) in &order_exprs {
            order_bound.push((self.bind_folded(e, &scope)?, *desc));
        }
        self.finish_select(
            stmt,
            plan,
            having_bound,
            bound_items,
            item_exprs.iter().map(|(_, n)| n.clone()).collect(),
            normalized_items,
            order_exprs,
            order_bound,
        )
    }

    /// Shared tail of SELECT planning: HAVING filter, projection with
    /// hidden order columns, DISTINCT, sort, strip, limit.
    #[allow(clippy::too_many_arguments)]
    fn finish_select(
        &self,
        stmt: &SelectStmt,
        mut plan: Plan,
        having: Option<BoundExpr>,
        bound_items: Vec<BoundExpr>,
        names: Vec<String>,
        normalized_items: Vec<Expr>,
        order_exprs: Vec<(Expr, bool)>,
        order_bound: Vec<(BoundExpr, bool)>,
    ) -> DbResult<PlannedSelect> {
        if let Some(pred) = having {
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        let visible = bound_items.len();
        let columns: Vec<(String, DataType)> = names
            .into_iter()
            .zip(bound_items.iter().map(|b| b.ty))
            .collect();
        // Sort keys: reuse a visible column when the order expression
        // matches a select item syntactically; otherwise append hidden.
        let mut proj = bound_items;
        let mut sort_keys = Vec::new();
        for ((e, desc), bound) in order_exprs.iter().zip(order_bound) {
            let norm = normalize_expr(e);
            if let Some(i) = normalized_items.iter().position(|n| *n == norm) {
                sort_keys.push((i, *desc));
            } else {
                if stmt.distinct {
                    return Err(DbError::binding(
                        "ORDER BY expression must appear in the SELECT list when DISTINCT is used",
                    ));
                }
                sort_keys.push((proj.len(), *desc));
                proj.push(bound.0);
            }
        }
        let hidden = proj.len() - visible;
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: proj,
        };
        if stmt.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
                visible,
            };
        }
        if !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }
        if hidden > 0 {
            plan = Plan::Take {
                input: Box::new(plan),
                keep: visible,
            };
        }
        if let Some(n) = stmt.offset {
            plan = Plan::Offset {
                input: Box::new(plan),
                n,
            };
        }
        if let Some(n) = stmt.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(PlannedSelect { plan, columns })
    }

    /// Plans the body of a view (re-parsed from its stored SQL text),
    /// guarded by the same nesting limit as subqueries.
    fn plan_view(&self, body_sql: &str, name: &str) -> DbResult<PlannedSelect> {
        if self.subquery_depth.get() >= MAX_SUBQUERY_DEPTH {
            return Err(DbError::binding(format!(
                "view nesting exceeds the maximum depth of {MAX_SUBQUERY_DEPTH}"
            )));
        }
        self.subquery_depth.set(self.subquery_depth.get() + 1);
        let result = (|| {
            let stmt = crate::sql::parse_statement(body_sql).map_err(|e| {
                DbError::exec(format!("stored body of view {name} no longer parses: {e}"))
            })?;
            let crate::sql::ast::Statement::Select(sel) = stmt else {
                return Err(DbError::exec(format!("view {name} body is not a SELECT")));
            };
            self.plan_select(&sel)
        })();
        self.subquery_depth.set(self.subquery_depth.get() - 1);
        result
    }

    /// Plans one FROM relation: a base-table scan (with index selection
    /// and pushed-down filters) or an inlined view subplan (with the
    /// pushed conjuncts applied as a filter on top).
    fn plan_relation(
        &self,
        name: &str,
        view_plan: Option<Plan>,
        pushed: &[Expr],
        range: &(String, std::ops::Range<usize>),
        full_scope: &Scope,
    ) -> DbResult<Plan> {
        let Some(mut plan) = view_plan else {
            return self.plan_scan(name, pushed, range, full_scope);
        };
        let local_scope = Scope::new(full_scope.cols[range.1.clone()].to_vec());
        for conj in pushed {
            let pred = self.bind_folded(conj, &local_scope)?;
            if pred.ty != DataType::Bool && pred.ty != DataType::Null {
                return Err(DbError::type_err("WHERE condition must be BOOLEAN"));
            }
            plan = Plan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        Ok(plan)
    }

    /// Examines one pushed conjunct for a `col (cmp) constant` or
    /// `col BETWEEN a AND b` shape over a B-tree-indexed, *ordered*
    /// column, accumulating bounds into `probe`. The conjunct always
    /// stays in the filter, so bounds may be conservative.
    fn try_range_probe(
        &self,
        conj: &Expr,
        table: &crate::storage::Table,
        range: &(String, std::ops::Range<usize>),
        local_scope: &Scope,
        probe: &mut Option<IndexRange>,
    ) -> DbResult<()> {
        use crate::sql::ast::AstBinOp;
        let col_of = |e: &Expr| -> Option<usize> {
            let Expr::Column { qualifier, name } = e else {
                return None;
            };
            let q_ok = qualifier
                .as_ref()
                .map(|q| q.eq_ignore_ascii_case(&range.0))
                .unwrap_or(true);
            if !q_ok {
                return None;
            }
            let idx = table.schema.col_index(name)?;
            // Range probes need a B-tree index over an ordered type.
            if table.index_on(idx).is_none()
                || !self.catalog.is_ordered(table.schema.columns[idx].ty)
            {
                return None;
            }
            Some(idx)
        };
        let bind_const = |e: &Expr, col: usize| -> Option<BoundExpr> {
            let b = self.bind_folded(e, local_scope).ok()?;
            if !b.is_column_free() || b.now_dep {
                return None;
            }
            let b = self
                .binder
                .coerce(b, table.schema.columns[col].ty, false)
                .ok()?;
            Some(self.fold(b))
        };
        let mut add_bound = |col: usize,
                             lo: Option<(BoundExpr, bool)>,
                             hi: Option<(BoundExpr, bool)>| {
            match probe {
                Some(p) if p.column == col => {
                    if p.lo.is_none() {
                        p.lo = lo;
                    }
                    if p.hi.is_none() {
                        p.hi = hi;
                    }
                }
                Some(_) => {}
                None => {
                    *probe = Some(IndexRange {
                        column: col,
                        lo,
                        hi,
                    })
                }
            }
        };
        match conj {
            Expr::Binary { op, lhs, rhs }
                if matches!(
                    op,
                    AstBinOp::Lt | AstBinOp::Le | AstBinOp::Gt | AstBinOp::Ge
                ) =>
            {
                // col (cmp) const — or const (cmp) col, flipped.
                if let Some(col) = col_of(lhs) {
                    if let Some(k) = bind_const(rhs, col) {
                        match op {
                            AstBinOp::Lt => add_bound(col, None, Some((k, false))),
                            AstBinOp::Le => add_bound(col, None, Some((k, true))),
                            AstBinOp::Gt => add_bound(col, Some((k, false)), None),
                            AstBinOp::Ge => add_bound(col, Some((k, true)), None),
                            _ => unreachable!(),
                        }
                    }
                } else if let Some(col) = col_of(rhs) {
                    if let Some(k) = bind_const(lhs, col) {
                        match op {
                            AstBinOp::Lt => add_bound(col, Some((k, false)), None),
                            AstBinOp::Le => add_bound(col, Some((k, true)), None),
                            AstBinOp::Gt => add_bound(col, None, Some((k, false))),
                            AstBinOp::Ge => add_bound(col, None, Some((k, true))),
                            _ => unreachable!(),
                        }
                    }
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                if let Some(col) = col_of(expr) {
                    let lo = bind_const(low, col);
                    let hi = bind_const(high, col);
                    if lo.is_some() || hi.is_some() {
                        add_bound(col, lo.map(|k| (k, true)), hi.map(|k| (k, true)));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Plans one table scan with its pushed-down conjuncts, trying an
    /// index-equality lookup first. Every conjunct stays in the residual
    /// filter, the probed ones included: index answers are supersets.
    fn plan_scan(
        &self,
        table_name: &str,
        pushed: &[Expr],
        range: &(String, std::ops::Range<usize>),
        full_scope: &Scope,
    ) -> DbResult<Plan> {
        let table = self.tables.table(table_name)?;
        // Local scope: the table's own columns at offsets 0..n.
        let local_scope = Scope::new(full_scope.cols[range.1.clone()].to_vec());
        let mut index_eq = None;
        let mut index_overlap = None;
        // Accumulated range bounds per B-tree-indexed column:
        // (col, lo, hi); populated from `col </<=/>/>= const` and
        // `col BETWEEN a AND b` conjuncts, which all stay in the filter
        // as a recheck.
        let mut range_probe: Option<IndexRange> = None;
        let mut residual: Option<BoundExpr> = None;
        for conj in pushed {
            // Try comparisons against a B-tree index for a range probe.
            self.try_range_probe(conj, table, range, &local_scope, &mut range_probe)?;
            // Try `overlaps(col, w)` / `contains(col, w)` against an
            // interval index. The conjunct is *kept* as a residual filter:
            // the bucketed index returns a conservative candidate
            // superset.
            if index_overlap.is_none() {
                if let Expr::Call {
                    name,
                    args,
                    star: false,
                    ..
                } = conj
                {
                    let is_overlaps = name.eq_ignore_ascii_case("overlaps");
                    let is_contains = name.eq_ignore_ascii_case("contains");
                    if (is_overlaps || is_contains) && args.len() == 2 {
                        // For contains(col, x) only the first argument can
                        // be the indexed column; overlaps is symmetric.
                        let sides: &[(usize, usize)] = if is_overlaps {
                            &[(0, 1), (1, 0)]
                        } else {
                            &[(0, 1)]
                        };
                        for &(ci, wi) in sides {
                            let Expr::Column {
                                qualifier,
                                name: col_name,
                            } = &args[ci]
                            else {
                                continue;
                            };
                            let q_ok = qualifier
                                .as_ref()
                                .map(|q| q.eq_ignore_ascii_case(&range.0))
                                .unwrap_or(true);
                            if !q_ok {
                                continue;
                            }
                            let Some(col_idx) = table.schema.col_index(col_name) else {
                                continue;
                            };
                            if table.interval_index_on(col_idx).is_none() {
                                continue;
                            }
                            let Ok(probe) = self.bind_folded(&args[wi], &local_scope) else {
                                continue;
                            };
                            if !probe.is_column_free() {
                                continue;
                            }
                            // The index bounds a probe with its column
                            // type's interval key, so the probe takes
                            // that type (`contains(valid, chronon)`).
                            let col_ty = table.schema.columns[col_idx].ty;
                            let Ok(probe) = self.binder.coerce(probe, col_ty, false) else {
                                continue;
                            };
                            index_overlap = Some((col_idx, self.fold(probe)));
                            break;
                        }
                    }
                }
            }
            // Try `col = constant` (either side) against an index.
            if index_eq.is_none() {
                if let Expr::Binary {
                    op: crate::sql::ast::AstBinOp::Eq,
                    lhs,
                    rhs,
                } = conj
                {
                    for (col_side, const_side) in [(lhs, rhs), (rhs, lhs)] {
                        if let Expr::Column { qualifier, name } = col_side.as_ref() {
                            let q_ok = qualifier
                                .as_ref()
                                .map(|q| q.eq_ignore_ascii_case(&range.0))
                                .unwrap_or(true);
                            if !q_ok {
                                continue;
                            }
                            let Some(col_idx) = table.schema.col_index(name) else {
                                continue;
                            };
                            if table.index_on(col_idx).is_none() {
                                continue;
                            }
                            let key = self.bind_folded(const_side, &local_scope)?;
                            if !key.is_column_free() || key.now_dep {
                                continue;
                            }
                            // Coerce the key to the column type if needed.
                            let key = match self.binder.coerce(
                                key,
                                table.schema.columns[col_idx].ty,
                                false,
                            ) {
                                Ok(k) => self.fold(k),
                                Err(_) => continue,
                            };
                            index_eq = Some((col_idx, key));
                            break;
                        }
                    }
                }
            }
            let bound = self.bind_folded(conj, &local_scope)?;
            if bound.ty != DataType::Bool && bound.ty != DataType::Null {
                return Err(DbError::type_err("WHERE condition must be BOOLEAN"));
            }
            residual = Some(match residual {
                None => bound,
                Some(prev) => BoundExpr {
                    ty: DataType::Bool,
                    now_dep: prev.now_dep || bound.now_dep,
                    kind: BoundKind::And(Box::new(prev), Box::new(bound)),
                },
            });
        }
        // An equality probe is strictly better than a range probe.
        let index_range = if index_eq.is_some() || index_overlap.is_some() {
            None
        } else {
            range_probe.map(Box::new)
        };
        Ok(Plan::Scan {
            table: table.schema.name.clone(),
            index_eq,
            index_overlap,
            index_range,
            filter: residual,
            project: None,
            arity: table.schema.columns.len(),
        })
    }

    /// Shifts column references down by `offset` (used to rebase a
    /// right-side hash key from the concatenated scope onto the right
    /// input's own row).
    fn rebase(&self, mut e: BoundExpr, offset: usize) -> BoundExpr {
        e.map_columns(&mut |i| i - offset);
        e
    }
}
