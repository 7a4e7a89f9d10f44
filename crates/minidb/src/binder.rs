//! The binder: turns unbound AST expressions into typed, executable
//! [`BoundExpr`] trees.
//!
//! This is where the DataBlade machinery meets query processing: column
//! references are resolved against the FROM scope, routine and operator
//! calls are resolved against the catalog's overload registries
//! (considering implicit casts), `::` casts are looked up in the cast
//! registry, and every node records whether it is *now-dependent* so the
//! optimizer never constant-folds an expression whose value changes as
//! time advances.

use crate::catalog::{BatchFnImpl, BinaryOp, CastFnImpl, Catalog, ExecCtx, ScalarFnImpl};
use crate::error::{DbError, DbResult};
use crate::sql::ast::{AstBinOp, Expr, Lit, UnaryOp};
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

/// One column visible to name resolution.
#[derive(Debug, Clone)]
pub struct ScopeCol {
    /// Table binding name (alias or table name), lowercased; `None` for
    /// synthesized columns (aggregate outputs, group keys).
    pub binding: Option<String>,
    /// Column name, lowercased.
    pub name: String,
    pub ty: DataType,
}

/// The set of columns an expression may reference, in row order.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub cols: Vec<ScopeCol>,
}

impl Scope {
    /// Builds a scope from `(binding, name, type)` triples.
    pub fn new(cols: Vec<ScopeCol>) -> Scope {
        Scope { cols }
    }

    /// Resolves a (possibly qualified) column name to its row index.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        let name_l = name.to_ascii_lowercase();
        let qual_l = qualifier.map(str::to_ascii_lowercase);
        let mut hits = self.cols.iter().enumerate().filter(|(_, c)| {
            c.name == name_l
                && match &qual_l {
                    Some(q) => c.binding.as_deref() == Some(q.as_str()),
                    None => true,
                }
        });
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Ok(i),
            (None, _) => Err(DbError::binding(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            (Some(_), Some(_)) => Err(DbError::binding(format!(
                "ambiguous column reference {name}"
            ))),
        }
    }
}

/// Node kinds of a bound expression.
pub enum BoundKind {
    Literal(Value),
    ColumnRef(usize),
    /// Strict scalar routine or operator application.
    Apply {
        f: ScalarFnImpl,
        /// The resolved overload's batch form (its kernel, or `f` run
        /// lane by lane).
        batch: BatchFnImpl,
        args: Vec<BoundExpr>,
    },
    /// Strict cast application.
    Cast {
        f: CastFnImpl,
        arg: Box<BoundExpr>,
    },
    /// Built-in numeric negation.
    Neg(Box<BoundExpr>),
    /// Three-valued logic.
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull {
        arg: Box<BoundExpr>,
        negated: bool,
    },
    /// Non-strict searched CASE (simple CASE is lowered to searched form
    /// during binding).
    Case {
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_: Option<Box<BoundExpr>>,
    },
    /// A named parameter left unresolved through binding and planning,
    /// looked up in the [`ExecCtx`] param map at
    /// evaluation time. `name` is lowercased. This is what makes a
    /// cached plan re-executable with fresh parameter values.
    Param {
        name: String,
    },
}

/// A typed, executable expression.
pub struct BoundExpr {
    pub ty: DataType,
    /// `true` when the value can depend on the transaction time.
    pub now_dep: bool,
    pub kind: BoundKind,
}

impl BoundExpr {
    pub(crate) fn literal(v: Value) -> BoundExpr {
        BoundExpr {
            ty: v.data_type(),
            now_dep: false,
            kind: BoundKind::Literal(v),
        }
    }

    /// Calls `f` on each direct sub-expression, in evaluation order.
    fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a BoundExpr)) {
        match &self.kind {
            BoundKind::Literal(_) | BoundKind::ColumnRef(_) | BoundKind::Param { .. } => {}
            BoundKind::Apply { args, .. } => args.iter().for_each(f),
            BoundKind::Cast { arg, .. }
            | BoundKind::Neg(arg)
            | BoundKind::Not(arg)
            | BoundKind::IsNull { arg, .. } => f(arg),
            BoundKind::And(a, b) | BoundKind::Or(a, b) => {
                f(a);
                f(b);
            }
            BoundKind::Case { branches, else_ } => {
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_ {
                    f(e);
                }
            }
        }
    }

    /// [`BoundExpr::for_each_child`], mutably.
    fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut BoundExpr)) {
        match &mut self.kind {
            BoundKind::Literal(_) | BoundKind::ColumnRef(_) | BoundKind::Param { .. } => {}
            BoundKind::Apply { args, .. } => args.iter_mut().for_each(f),
            BoundKind::Cast { arg, .. }
            | BoundKind::Neg(arg)
            | BoundKind::Not(arg)
            | BoundKind::IsNull { arg, .. } => f(arg),
            BoundKind::And(a, b) | BoundKind::Or(a, b) => {
                f(a);
                f(b);
            }
            BoundKind::Case { branches, else_ } => {
                for (w, t) in branches {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_ {
                    f(e);
                }
            }
        }
    }

    /// `true` when `pred` holds for this node or any node below it.
    fn any(&self, pred: &impl Fn(&BoundKind) -> bool) -> bool {
        let mut found = pred(&self.kind);
        self.for_each_child(|c| found = found || c.any(pred));
        found
    }

    /// `true` when the expression references no columns (candidate for
    /// constant folding, unless now-dependent). A deferred parameter
    /// reads the ExecCtx, not the row, so it stays sargable (index probes
    /// evaluate it once per execution).
    pub fn is_column_free(&self) -> bool {
        !self.any(&|k| matches!(k, BoundKind::ColumnRef(_)))
    }

    /// The column indexes this expression reads.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        if let BoundKind::ColumnRef(i) = self.kind {
            out.push(i);
        }
        self.for_each_child(|c| c.collect_columns(out));
    }

    /// Rewrites every column reference `i` to `f(i)`.
    pub(crate) fn map_columns(&mut self, f: &mut impl FnMut(usize) -> usize) {
        if let BoundKind::ColumnRef(i) = &mut self.kind {
            *i = f(*i);
        }
        self.for_each_child_mut(|c| c.map_columns(f));
    }

    /// Rewrites every column reference through `map` (old index → new
    /// index). Used by projection pushdown when a scan materializes only
    /// a subset of the table's columns.
    pub fn remap_columns(&mut self, map: &std::collections::HashMap<usize, usize>) {
        self.map_columns(&mut |i| *map.get(&i).expect("projection pushdown missed a column"));
    }

    /// `true` when the expression contains a deferred parameter. Such an
    /// expression must never be constant-folded: its value belongs to
    /// one execution, not to the (cacheable) plan.
    pub fn contains_param(&self) -> bool {
        self.any(&|k| matches!(k, BoundKind::Param { .. }))
    }

    /// Evaluates against one input row.
    pub fn eval(&self, ctx: &ExecCtx, row: &[Value]) -> DbResult<Value> {
        match &self.kind {
            BoundKind::Literal(v) => Ok(v.clone()),
            BoundKind::Param { name } => ctx
                .param(name)
                .cloned()
                .ok_or_else(|| DbError::MissingParam { name: name.clone() }),
            BoundKind::ColumnRef(i) => Ok(row[*i].clone()),
            BoundKind::Apply { f, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let v = a.eval(ctx, row)?;
                    if v.is_null() {
                        return Ok(Value::Null); // strict semantics
                    }
                    vals.push(v);
                }
                f(ctx, &vals)
            }
            BoundKind::Cast { f, arg } => {
                let v = arg.eval(ctx, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                f(ctx, &v)
            }
            BoundKind::Neg(arg) => match arg.eval(ctx, row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => i
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| DbError::exec("integer overflow in negation")),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(DbError::exec(format!("cannot negate {other:?}"))),
            },
            BoundKind::And(a, b) => {
                // Three-valued AND with short circuit on FALSE.
                match a.eval(ctx, row)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    av => match (av, b.eval(ctx, row)?) {
                        (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                        (Value::Bool(true), Value::Bool(true)) => Ok(Value::Bool(true)),
                        _ => Ok(Value::Null),
                    },
                }
            }
            BoundKind::Or(a, b) => match a.eval(ctx, row)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                av => match (av, b.eval(ctx, row)?) {
                    (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                    (Value::Bool(false), Value::Bool(false)) => Ok(Value::Bool(false)),
                    _ => Ok(Value::Null),
                },
            },
            BoundKind::Not(a) => match a.eval(ctx, row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::exec(format!("NOT applied to {other:?}"))),
            },
            BoundKind::IsNull { arg, negated } => {
                let v = arg.eval(ctx, row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundKind::Case { branches, else_ } => {
                for (when, then) in branches {
                    if when.eval(ctx, row)?.as_bool() == Some(true) {
                        return then.eval(ctx, row);
                    }
                }
                match else_ {
                    Some(e) => e.eval(ctx, row),
                    None => Ok(Value::Null),
                }
            }
        }
    }
}

/// SQL LIKE matching: `%` matches any run of characters, `_` any single
/// character. Implemented with the classic two-pointer backtracking scan
/// (linear for patterns with a single `%`, worst-case quadratic).
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star, mut t_backtrack) = (None::<usize>, 0usize);
    while ti < t.len() {
        // The '%' wildcard must be handled before the literal branch:
        // a literal '%' in the *text* must not consume a pattern '%'.
        if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            t_backtrack = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            t_backtrack += 1;
            ti = t_backtrack;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// Binds expressions for one statement.
pub struct Binder<'a> {
    pub catalog: &'a Catalog,
    /// The statement's parameter values. They only *type* each `:name`
    /// slot: the value itself is read from the [`ExecCtx`] at execution,
    /// so a plan serves every later value of the same type.
    pub params: &'a HashMap<String, Value>,
}

impl<'a> Binder<'a> {
    /// Creates a binder over a catalog and a set of named parameters.
    pub fn new(catalog: &'a Catalog, params: &'a HashMap<String, Value>) -> Binder<'a> {
        Binder { catalog, params }
    }

    /// Binds a scalar expression against a scope.
    pub fn bind(&self, expr: &Expr, scope: &Scope) -> DbResult<BoundExpr> {
        match expr {
            Expr::Literal(lit) => Ok(BoundExpr::literal(match lit {
                Lit::Int(i) => Value::Int(*i),
                Lit::Float(f) => Value::Float(*f),
                Lit::Str(s) => Value::Str(s.clone()),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Null => Value::Null,
            })),
            Expr::Column { qualifier, name } => {
                let idx = scope.resolve(qualifier.as_deref(), name)?;
                Ok(BoundExpr {
                    ty: scope.cols[idx].ty,
                    now_dep: false,
                    kind: BoundKind::ColumnRef(idx),
                })
            }
            Expr::BoundValue(v) => Ok(BoundExpr::literal(v.clone())),
            // The planner resolves every subquery it plans to a value
            // first; one left here sits where only a constant may.
            Expr::Subquery(_) | Expr::InSubquery { .. } => Err(DbError::binding(
                "a subquery is not allowed here: the operand must be a constant expression",
            )),
            Expr::Param(name) => {
                let key = name.to_ascii_lowercase();
                let v = self
                    .params
                    .get(&key)
                    .ok_or_else(|| DbError::MissingParam { name: name.clone() })?;
                // The provided value types the slot, so overload resolution
                // and coercion see it; the value is read at execution.
                Ok(BoundExpr {
                    ty: v.data_type(),
                    now_dep: false,
                    kind: BoundKind::Param { name: key },
                })
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                let inner = self.bind(expr, scope)?;
                if inner.ty != DataType::Bool && inner.ty != DataType::Null {
                    return Err(DbError::type_err(format!(
                        "NOT requires BOOLEAN, got {}",
                        self.catalog.type_name(inner.ty)
                    )));
                }
                Ok(BoundExpr {
                    ty: DataType::Bool,
                    now_dep: inner.now_dep,
                    kind: BoundKind::Not(Box::new(inner)),
                })
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let inner = self.bind(expr, scope)?;
                if inner.ty.is_numeric() || inner.ty == DataType::Null {
                    let ty = if inner.ty == DataType::Null {
                        DataType::Int
                    } else {
                        inner.ty
                    };
                    return Ok(BoundExpr {
                        ty,
                        now_dep: inner.now_dep,
                        kind: BoundKind::Neg(Box::new(inner)),
                    });
                }
                // Fall back to a registered `neg` routine (e.g. -Span).
                self.bind_call("neg", vec![inner])
            }
            Expr::Binary { op, lhs, rhs } => self.bind_binary(*op, lhs, rhs, scope),
            Expr::IsNull { expr, negated } => {
                let inner = self.bind(expr, scope)?;
                Ok(BoundExpr {
                    ty: DataType::Bool,
                    now_dep: inner.now_dep,
                    kind: BoundKind::IsNull {
                        arg: Box::new(inner),
                        negated: *negated,
                    },
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // x BETWEEN a AND b  ==>  x >= a AND x <= b
                let ge = Expr::binary(AstBinOp::Ge, (**expr).clone(), (**low).clone());
                let le = Expr::binary(AstBinOp::Le, (**expr).clone(), (**high).clone());
                let both = Expr::binary(AstBinOp::And, ge, le);
                let rewritten = if *negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                };
                self.bind(&rewritten, scope)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                // x IN (a, b)  ==>  x = a OR x = b
                let mut it = list.iter();
                let first = it.next().ok_or_else(|| DbError::binding("empty IN list"))?;
                let mut acc = Expr::binary(AstBinOp::Eq, (**expr).clone(), first.clone());
                for item in it {
                    let eq = Expr::binary(AstBinOp::Eq, (**expr).clone(), item.clone());
                    acc = Expr::binary(AstBinOp::Or, acc, eq);
                }
                let rewritten = if *negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(acc),
                    }
                } else {
                    acc
                };
                self.bind(&rewritten, scope)
            }
            Expr::Call {
                name,
                args,
                star,
                distinct,
            } => {
                if *star {
                    return Err(DbError::binding(format!(
                        "{name}(*) is only valid as an aggregate in SELECT/HAVING"
                    )));
                }
                if *distinct {
                    return Err(DbError::binding(format!(
                        "{name}(DISTINCT …) is only valid as an aggregate in SELECT/HAVING"
                    )));
                }
                let mut bound = Vec::with_capacity(args.len());
                for a in args {
                    bound.push(self.bind(a, scope)?);
                }
                self.bind_call(name, bound)
            }
            Expr::Cast { expr, ty } => {
                let inner = self.bind(expr, scope)?;
                let target = self.catalog.lookup_type_name(&ty.name)?;
                self.coerce(inner, target, true)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let text = self.bind(expr, scope)?;
                let pat = self.bind(pattern, scope)?;
                for side in [&text, &pat] {
                    if side.ty != DataType::Str && side.ty != DataType::Null {
                        return Err(DbError::type_err(format!(
                            "LIKE requires strings, got {}",
                            self.catalog.type_name(side.ty)
                        )));
                    }
                }
                let now_dep = text.now_dep || pat.now_dep;
                let matcher: ScalarFnImpl = Arc::new(|_, args: &[Value]| {
                    let (Some(t), Some(p)) = (args[0].as_str(), args[1].as_str()) else {
                        return Err(DbError::exec("LIKE expects strings"));
                    };
                    Ok(Value::Bool(like_match(t, p)))
                });
                let applied = BoundExpr {
                    ty: DataType::Bool,
                    now_dep,
                    kind: BoundKind::Apply {
                        batch: crate::exec::elementwise(matcher.clone()),
                        f: matcher,
                        args: vec![text, pat],
                    },
                };
                Ok(if *negated {
                    BoundExpr {
                        ty: DataType::Bool,
                        now_dep,
                        kind: BoundKind::Not(Box::new(applied)),
                    }
                } else {
                    applied
                })
            }
            Expr::Case {
                operand,
                branches,
                else_,
            } => {
                // Lower simple CASE to searched CASE: each WHEN becomes
                // `operand = when`, reusing operator overload resolution.
                let searched: Vec<(Expr, Expr)> = match operand {
                    Some(op) => branches
                        .iter()
                        .map(|(w, t)| {
                            (
                                Expr::binary(AstBinOp::Eq, (**op).clone(), w.clone()),
                                t.clone(),
                            )
                        })
                        .collect(),
                    None => branches.clone(),
                };
                let mut now_dep = false;
                let mut conds = Vec::with_capacity(searched.len());
                let mut results = Vec::with_capacity(searched.len() + 1);
                for (w, t) in &searched {
                    let cond = self.bind(w, scope)?;
                    if cond.ty != DataType::Bool && cond.ty != DataType::Null {
                        return Err(DbError::type_err("WHEN condition must be BOOLEAN"));
                    }
                    now_dep |= cond.now_dep;
                    conds.push(cond);
                    let result = self.bind(t, scope)?;
                    now_dep |= result.now_dep;
                    results.push(result);
                }
                let bound_else = match else_ {
                    Some(e) => {
                        let b = self.bind(e, scope)?;
                        now_dep |= b.now_dep;
                        Some(b)
                    }
                    None => None,
                };
                // Unify: pick the first result type every other result
                // implicitly casts to (NULLs unify with anything).
                let all_tys: Vec<DataType> = results
                    .iter()
                    .chain(bound_else.as_ref())
                    .map(|r| r.ty)
                    .filter(|t| *t != DataType::Null)
                    .collect();
                let unifies = |target: DataType| {
                    all_tys
                        .iter()
                        .all(|&t| t == target || self.catalog.find_cast(t, target, false).is_some())
                };
                let result_ty = all_tys
                    .iter()
                    .copied()
                    .find(|&t| unifies(t))
                    .unwrap_or(DataType::Null);
                if result_ty == DataType::Null && !all_tys.is_empty() {
                    return Err(DbError::type_err(format!(
                        "CASE branches have irreconcilable types {:?}",
                        all_tys
                            .iter()
                            .map(|t| self.catalog.type_name(*t))
                            .collect::<Vec<_>>()
                    )));
                }
                let coerce_result = |this: &Self, r: BoundExpr| -> DbResult<BoundExpr> {
                    if result_ty == DataType::Null || r.ty == DataType::Null {
                        Ok(r)
                    } else {
                        this.coerce(r, result_ty, false)
                    }
                };
                let mut branches_bound = Vec::with_capacity(conds.len());
                for (cond, result) in conds.into_iter().zip(results) {
                    branches_bound.push((cond, coerce_result(self, result)?));
                }
                let else_bound = match bound_else {
                    Some(b) => Some(Box::new(coerce_result(self, b)?)),
                    None => None,
                };
                Ok(BoundExpr {
                    ty: result_ty,
                    now_dep,
                    kind: BoundKind::Case {
                        branches: branches_bound,
                        else_: else_bound,
                    },
                })
            }
        }
    }

    fn bind_binary(
        &self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        scope: &Scope,
    ) -> DbResult<BoundExpr> {
        match op {
            AstBinOp::And | AstBinOp::Or => {
                let l = self.bind(lhs, scope)?;
                let r = self.bind(rhs, scope)?;
                for side in [&l, &r] {
                    if side.ty != DataType::Bool && side.ty != DataType::Null {
                        return Err(DbError::type_err(format!(
                            "logical operator requires BOOLEAN, got {}",
                            self.catalog.type_name(side.ty)
                        )));
                    }
                }
                let now_dep = l.now_dep || r.now_dep;
                let kind = if op == AstBinOp::And {
                    BoundKind::And(Box::new(l), Box::new(r))
                } else {
                    BoundKind::Or(Box::new(l), Box::new(r))
                };
                Ok(BoundExpr {
                    ty: DataType::Bool,
                    now_dep,
                    kind,
                })
            }
            _ => {
                let cat_op = match op {
                    AstBinOp::Add => BinaryOp::Add,
                    AstBinOp::Sub => BinaryOp::Sub,
                    AstBinOp::Mul => BinaryOp::Mul,
                    AstBinOp::Div => BinaryOp::Div,
                    AstBinOp::Mod => BinaryOp::Mod,
                    AstBinOp::Eq => BinaryOp::Eq,
                    AstBinOp::Ne => BinaryOp::Ne,
                    AstBinOp::Lt => BinaryOp::Lt,
                    AstBinOp::Le => BinaryOp::Le,
                    AstBinOp::Gt => BinaryOp::Gt,
                    AstBinOp::Ge => BinaryOp::Ge,
                    AstBinOp::Concat => BinaryOp::Concat,
                    AstBinOp::And | AstBinOp::Or => unreachable!(),
                };
                let l = self.bind(lhs, scope)?;
                let r = self.bind(rhs, scope)?;
                if l.ty == DataType::Null && r.ty == DataType::Null {
                    // Strict semantics make the result NULL no matter
                    // which overload would be chosen.
                    let ty = if cat_op.is_comparison() {
                        DataType::Bool
                    } else {
                        DataType::Null
                    };
                    return Ok(BoundExpr {
                        ty,
                        now_dep: false,
                        kind: BoundKind::Literal(Value::Null),
                    });
                }
                let ov = self.catalog.resolve_operator(cat_op, l.ty, r.ty)?;
                let l = self.coerce(l, ov.lhs, false)?;
                let r = self.coerce(r, ov.rhs, false)?;
                Ok(BoundExpr {
                    ty: ov.ret,
                    now_dep: ov.now_dependent || l.now_dep || r.now_dep,
                    kind: BoundKind::Apply {
                        f: ov.f.clone(),
                        batch: ov.batch.clone(),
                        args: vec![l, r],
                    },
                })
            }
        }
    }

    /// Resolves and applies a scalar routine to already-bound arguments.
    pub fn bind_call(&self, name: &str, args: Vec<BoundExpr>) -> DbResult<BoundExpr> {
        let arg_types: Vec<DataType> = args.iter().map(|a| a.ty).collect();
        let ov = self.catalog.resolve_function(name, &arg_types)?;
        let mut coerced = Vec::with_capacity(args.len());
        let mut now_dep = ov.now_dependent;
        for (a, &p) in args.into_iter().zip(&ov.params) {
            let a = self.coerce(a, p, false)?;
            now_dep |= a.now_dep;
            coerced.push(a);
        }
        Ok(BoundExpr {
            ty: ov.ret,
            now_dep,
            kind: BoundKind::Apply {
                f: ov.f.clone(),
                batch: ov.batch.clone(),
                args: coerced,
            },
        })
    }

    /// Inserts a cast to `target` when needed. `explicit` selects whether
    /// explicit-only casts may be used (`::`/`CAST` vs automatic
    /// coercion on INSERT/arguments).
    pub fn coerce(&self, e: BoundExpr, target: DataType, explicit: bool) -> DbResult<BoundExpr> {
        if e.ty == target || e.ty == DataType::Null {
            return Ok(e);
        }
        let Some(cast) = self.catalog.find_cast(e.ty, target, explicit) else {
            return Err(DbError::NoOverload {
                what: format!(
                    "cast {} -> {}",
                    self.catalog.type_name(e.ty),
                    self.catalog.type_name(target)
                ),
            });
        };
        let now_dep = e.now_dep || cast.now_dependent;
        Ok(BoundExpr {
            ty: target,
            now_dep,
            kind: BoundKind::Cast {
                f: cast.f.clone(),
                arg: Box::new(e),
            },
        })
    }
}

/// Normalizes an AST expression for syntactic comparison (GROUP BY
/// matching): lowercases identifiers and routine names.
pub fn normalize_expr(e: &Expr) -> Expr {
    let mut out = match e {
        Expr::Subquery(_) | Expr::InSubquery { .. } => return e.clone(),
        _ => {
            let Ok(out) = e.try_map_children(|c| Ok::<_, Infallible>(normalize_expr(c)));
            out
        }
    };
    match &mut out {
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                q.make_ascii_lowercase();
            }
            name.make_ascii_lowercase();
        }
        Expr::Call { name, .. } => name.make_ascii_lowercase(),
        Expr::Cast { ty, .. } => ty.name.make_ascii_lowercase(),
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::sql::parse_expression;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        builtin::install(&mut c);
        c
    }

    fn ctx() -> ExecCtx {
        ExecCtx::new(0)
    }

    fn scope() -> Scope {
        Scope::new(vec![
            ScopeCol {
                binding: Some("t".into()),
                name: "a".into(),
                ty: DataType::Int,
            },
            ScopeCol {
                binding: Some("t".into()),
                name: "b".into(),
                ty: DataType::Str,
            },
            ScopeCol {
                binding: Some("u".into()),
                name: "a".into(),
                ty: DataType::Float,
            },
        ])
    }

    fn eval_const(catalog: &Catalog, text: &str) -> DbResult<Value> {
        let params = HashMap::new();
        let b = Binder::new(catalog, &params);
        let e = b.bind(&parse_expression(text).unwrap(), &Scope::default())?;
        e.eval(&ctx(), &[])
    }

    #[test]
    fn arithmetic_and_precedence() {
        let c = cat();
        assert_eq!(eval_const(&c, "1 + 2 * 3").unwrap().as_int(), Some(7));
        assert_eq!(eval_const(&c, "-(1 + 2)").unwrap().as_int(), Some(-3));
        assert_eq!(eval_const(&c, "7 % 3").unwrap().as_int(), Some(1));
        assert_eq!(eval_const(&c, "1 + 0.5").unwrap().as_float(), Some(1.5));
    }

    #[test]
    fn three_valued_logic() {
        let c = cat();
        assert_eq!(
            eval_const(&c, "NULL AND FALSE").unwrap().as_bool(),
            Some(false)
        );
        assert!(eval_const(&c, "NULL AND TRUE").unwrap().is_null());
        assert_eq!(
            eval_const(&c, "NULL OR TRUE").unwrap().as_bool(),
            Some(true)
        );
        assert!(eval_const(&c, "NULL OR FALSE").unwrap().is_null());
        assert!(eval_const(&c, "NOT NULL").unwrap().is_null());
        assert_eq!(
            eval_const(&c, "NULL IS NULL").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(
            eval_const(&c, "1 IS NOT NULL").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn strictness_of_operators() {
        let c = cat();
        assert!(eval_const(&c, "1 + NULL").unwrap().is_null());
        assert!(eval_const(&c, "NULL = NULL").unwrap().is_null());
        assert!(eval_const(&c, "upper(NULL)").unwrap().is_null());
    }

    #[test]
    fn between_and_in_rewrites() {
        let c = cat();
        assert_eq!(
            eval_const(&c, "2 BETWEEN 1 AND 3").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(
            eval_const(&c, "2 NOT BETWEEN 1 AND 3").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(
            eval_const(&c, "2 IN (1, 2, 3)").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(
            eval_const(&c, "5 NOT IN (1, 2)").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn column_resolution() {
        let c = cat();
        let params = HashMap::new();
        let b = Binder::new(&c, &params);
        let s = scope();
        // Unqualified unique name resolves.
        let e = b.bind(&parse_expression("b").unwrap(), &s).unwrap();
        assert!(matches!(e.kind, BoundKind::ColumnRef(1)));
        // Unqualified ambiguous name errors.
        assert!(matches!(
            b.bind(&parse_expression("a").unwrap(), &s),
            Err(DbError::Binding { .. })
        ));
        // Qualification disambiguates.
        let e = b.bind(&parse_expression("u.a").unwrap(), &s).unwrap();
        assert!(matches!(e.kind, BoundKind::ColumnRef(2)));
        assert_eq!(e.ty, DataType::Float);
        // Unknown column errors.
        assert!(b.bind(&parse_expression("t.zzz").unwrap(), &s).is_err());
    }

    #[test]
    fn params_bind_as_deferred_slots() {
        let c = cat();
        let mut params = HashMap::new();
        params.insert("w".to_owned(), Value::Int(6));
        let b = Binder::new(&c, &params);
        let e = b
            .bind(&parse_expression("1 + :W").unwrap(), &Scope::default())
            .unwrap();
        // The slot is typed from the bind-time value but holds no value:
        // each execution reads its own.
        assert_eq!(e.ty, DataType::Int);
        assert!(e.contains_param());
        let run = |w: i64| {
            let values = Arc::new(HashMap::from([("w".to_owned(), Value::Int(w))]));
            e.eval(&ExecCtx::with_params(0, values), &[]).unwrap()
        };
        assert_eq!(run(6).as_int(), Some(7));
        assert_eq!(run(41).as_int(), Some(42));
        assert!(matches!(
            e.eval(&ctx(), &[]),
            Err(DbError::MissingParam { .. })
        ));
        // Missing param.
        let empty = HashMap::new();
        let b = Binder::new(&c, &empty);
        assert!(matches!(
            b.bind(&parse_expression(":w").unwrap(), &Scope::default()),
            Err(DbError::MissingParam { .. })
        ));
    }

    #[test]
    fn explicit_cast_via_double_colon() {
        let c = cat();
        assert_eq!(eval_const(&c, "'42'::INT").unwrap().as_int(), Some(42));
        assert_eq!(
            eval_const(&c, "CAST(2.9 AS INT)").unwrap().as_int(),
            Some(2)
        );
        // Str -> Int is explicit-only; using it implicitly fails.
        assert!(eval_const(&c, "1 + '42'").is_err());
    }

    #[test]
    fn type_errors_reported() {
        let c = cat();
        assert!(matches!(
            eval_const(&c, "1 AND TRUE"),
            Err(DbError::Type { .. })
        ));
        assert!(matches!(eval_const(&c, "NOT 1"), Err(DbError::Type { .. })));
        // Paper §2: Chronon + Chronon is a type error; for built-ins the
        // analogue is Str + Str.
        assert!(matches!(
            eval_const(&c, "'a' + 'b'"),
            Err(DbError::NoOverload { .. })
        ));
    }

    #[test]
    fn is_column_free_and_collect() {
        let c = cat();
        let params = HashMap::new();
        let b = Binder::new(&c, &params);
        let s = scope();
        let e = b.bind(&parse_expression("t.a + 1").unwrap(), &s).unwrap();
        assert!(!e.is_column_free());
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec![0]);
        let e = b.bind(&parse_expression("1 + 2").unwrap(), &s).unwrap();
        assert!(e.is_column_free());
    }

    #[test]
    fn normalize_for_group_by_matching() {
        let a = normalize_expr(&parse_expression("Patient").unwrap());
        let b = normalize_expr(&parse_expression("patient").unwrap());
        assert_eq!(a, b);
        let a = normalize_expr(&parse_expression("START(Valid)").unwrap());
        let b = normalize_expr(&parse_expression("start(valid)").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn division_by_zero_reported_at_eval() {
        let c = cat();
        assert!(matches!(
            eval_const(&c, "1 / 0"),
            Err(DbError::Execution { .. })
        ));
    }
}
