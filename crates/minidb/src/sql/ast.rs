//! Abstract syntax for the supported SQL dialect.

use crate::value::Value;

/// A literal value as written in the query text.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// A type name with an optional length argument, e.g. `CHAR(20)` or
/// `Element`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeName {
    pub name: String,
    pub arg: Option<u32>,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Binary operators at the AST level (the catalog-level
/// [`BinaryOp`](crate::catalog::BinaryOp) excludes the logical ones,
/// which the binder lowers specially for three-valued logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Concat,
    And,
    Or,
}

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Lit),
    /// `name` or `qualifier.name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// Named parameter `:name`.
    Param(String),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: AstBinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// Routine or aggregate call; `star` marks `COUNT(*)`, `distinct`
    /// marks `agg(DISTINCT expr)`.
    Call {
        name: String,
        args: Vec<Expr>,
        star: bool,
        distinct: bool,
    },
    /// `expr::Type` or `CAST(expr AS Type)`.
    Cast {
        expr: Box<Expr>,
        ty: TypeName,
    },
    /// `expr [NOT] LIKE pattern` (`%` any run, `_` any one character).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Searched or simple CASE expression.
    Case {
        /// `CASE operand WHEN …` (simple form); `None` for searched CASE.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    /// `(SELECT …)` as a scalar value (uncorrelated; evaluated once per
    /// statement by the planner).
    Subquery(Box<SelectStmt>),
    /// `expr [NOT] IN (SELECT …)` (uncorrelated).
    InSubquery {
        expr: Box<Expr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// An engine value injected by the planner (subquery results,
    /// pre-bound parameters). Never produced by the parser.
    BoundValue(Value),
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub fn binary(op: AstBinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for unqualified column refs.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_owned(),
        }
    }

    /// Calls `f` on each direct sub-expression, in source order. A
    /// subquery's clauses are not among them: they belong to its own
    /// [`SelectStmt`].
    pub(crate) fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param(_)
            | Expr::Subquery(_)
            | Expr::BoundValue(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Call { args, .. } => args.iter().for_each(f),
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                branches,
                else_,
            } => {
                if let Some(o) = operand {
                    f(o);
                }
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

    /// The expression rebuilt with each direct sub-expression (as
    /// [`Expr::for_each_child`] lists them) replaced by `f` of it.
    pub(crate) fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut boxed = |e: &Expr| f(e).map(Box::new);
        Ok(match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Param(_)
            | Expr::Subquery(_)
            | Expr::BoundValue(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: boxed(expr)?,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::Cast { expr, ty } => Expr::Cast {
                expr: boxed(expr)?,
                ty: ty.clone(),
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSubquery {
                expr: boxed(expr)?,
                query: query.clone(),
                negated: *negated,
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: boxed(lhs)?,
                rhs: boxed(rhs)?,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: boxed(expr)?,
                list: list
                    .iter()
                    .map(|e| boxed(e).map(|b| *b))
                    .collect::<Result<_, E>>()?,
                negated: *negated,
            },
            Expr::Call {
                name,
                args,
                star,
                distinct,
            } => Expr::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|e| boxed(e).map(|b| *b))
                    .collect::<Result<_, E>>()?,
                star: *star,
                distinct: *distinct,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: boxed(expr)?,
                pattern: boxed(pattern)?,
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_,
            } => Expr::Case {
                operand: operand.as_deref().map(&mut boxed).transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((*boxed(w)?, *boxed(t)?)))
                    .collect::<Result<_, E>>()?,
                else_: else_.as_deref().map(&mut boxed).transpose()?,
            },
        })
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// One table in the FROM clause (explicit `JOIN … ON` is normalized by
/// the parser into the from-list plus WHERE conjuncts).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the table is referred to by in the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// The time-travel point of a `SELECT … AS OF …` query.
#[derive(Debug, Clone, PartialEq)]
pub enum AsOf {
    /// `AS OF COMMIT <expr>` — a global commit sequence number.
    Commit(Expr),
    /// `AS OF <expr>` — a wall-clock instant (unix seconds, a temporal
    /// value with interval bounds, or NOW under a what-if override).
    Instant(Expr),
}

/// A SELECT statement, possibly the head of a UNION chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    /// `UNION [ALL] <next arm>`; ORDER BY/LIMIT/OFFSET of the head apply
    /// to the whole chain.
    pub union: Option<(bool, Box<SelectStmt>)>,
    /// `AS OF …` time travel, only meaningful on the top-level statement.
    pub as_of: Option<AsOf>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …`.
    Query(Box<SelectStmt>),
}

/// Any supported statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<(String, TypeName)>,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Select(Box<SelectStmt>),
    /// `EXPLAIN [ANALYZE] SELECT …` — returns the physical plan shape as
    /// one row; with ANALYZE, executes the query and returns the plan
    /// tree annotated with per-operator row counts and timings.
    Explain {
        inner: Box<Statement>,
        analyze: bool,
    },
    /// `SHOW STATS` — the session's query-metrics counters as
    /// `(metric, value)` rows.
    ShowStats,
    /// `CREATE VIEW name AS SELECT …`. `body_start` is the byte offset of
    /// the SELECT in the original statement text, so the session can
    /// store the view body verbatim.
    CreateView {
        name: String,
        query: Box<SelectStmt>,
        body_start: usize,
    },
    /// `DROP VIEW [IF EXISTS] name`.
    DropView {
        name: String,
        if_exists: bool,
    },
    /// `BEGIN [WORK | TRANSACTION]` — opens a multi-statement
    /// transaction on the session.
    Begin,
    /// `COMMIT [WORK]` — commits the open transaction atomically.
    Commit,
    /// `ROLLBACK [WORK]` — discards the open transaction.
    Rollback,
}
