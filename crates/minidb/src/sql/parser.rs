//! Recursive-descent parser for the supported SQL dialect.
//!
//! Supported statements: `CREATE TABLE`, `CREATE INDEX`, `DROP TABLE`,
//! `INSERT`, `UPDATE`, `DELETE`, and `SELECT` with joins (comma-style and
//! `[INNER] JOIN … ON`, normalized into the from-list plus WHERE
//! conjuncts), `WHERE`, `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`,
//! `DISTINCT`, named parameters `:name`, and both Informix-style
//! `expr::Type` casts (used throughout the paper) and `CAST(expr AS t)`.

use super::ast::*;
use super::lexer::{lex, Token, TokenKind};
use crate::error::{DbError, DbResult};

/// Parses one SQL statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> DbResult<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        i: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a standalone scalar expression (used by tests and by the
/// layered stratum's generated fragments).
pub fn parse_expression(text: &str) -> DbResult<Expr> {
    let tokens = lex(text)?;
    let mut p = Parser {
        tokens,
        i: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum expression nesting depth — guards the recursive-descent
/// parser against stack exhaustion on adversarial input.
const MAX_EXPR_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.i].kind
    }

    fn pos(&self) -> usize {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.i].kind.clone();
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> DbError {
        DbError::Syntax {
            pos: self.pos(),
            message: message.into(),
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        self.peek()
            .ident()
            .is_some_and(|s| s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn at_sym(&self, s: &str) -> bool {
        matches!(self.peek(), TokenKind::Sym(x) if *x == s)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.at_sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> DbResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.peek() {
            TokenKind::Ident(_) => match self.bump() {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&self) -> DbResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input {:?}", self.peek())))
        }
    }

    // ----- statements ----------------------------------------------------

    fn statement(&mut self) -> DbResult<Statement> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            let inner = self.statement()?;
            match inner {
                Statement::Select(_) => {}
                // Analyzing a write would execute it.
                Statement::Update { .. } | Statement::Delete { .. } if !analyze => {}
                _ if analyze => return Err(self.err("EXPLAIN ANALYZE supports SELECT statements")),
                _ => return Err(self.err("EXPLAIN supports SELECT, UPDATE and DELETE statements")),
            }
            return Ok(Statement::Explain {
                inner: Box::new(inner),
                analyze,
            });
        }
        if self.eat_kw("show") {
            self.expect_kw("stats")?;
            return Ok(Statement::ShowStats);
        }
        if self.at_kw("create") {
            self.bump();
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index();
            }
            if self.eat_kw("view") {
                let name = self.expect_ident()?;
                self.expect_kw("as")?;
                let body_start = self.pos();
                let query = self.select()?;
                return Ok(Statement::CreateView {
                    name,
                    query: Box::new(query),
                    body_start,
                });
            }
            return Err(self.err("expected TABLE, INDEX, or VIEW after CREATE"));
        }
        if self.eat_kw("drop") {
            let is_view = if self.eat_kw("table") {
                false
            } else if self.eat_kw("view") {
                true
            } else {
                return Err(self.err("expected TABLE or VIEW after DROP"));
            };
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            return Ok(if is_view {
                Statement::DropView { name, if_exists }
            } else {
                Statement::DropTable { name, if_exists }
            });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            return self.delete();
        }
        if self.eat_kw("begin") {
            if !self.eat_kw("work") {
                self.eat_kw("transaction");
            }
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            self.eat_kw("work");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            self.eat_kw("work");
            return Ok(Statement::Rollback);
        }
        if self.at_kw("select") {
            let mut sel = self.select()?;
            // `AS OF …` time travel binds to the whole statement (after
            // any UNION arms and trailing ORDER BY/LIMIT).
            if self.eat_kw("as") {
                self.expect_kw("of")?;
                sel.as_of = Some(if self.eat_kw("commit") {
                    AsOf::Commit(self.expr()?)
                } else {
                    AsOf::Instant(self.expr()?)
                });
            }
            return Ok(Statement::Select(Box::new(sel)));
        }
        Err(self.err(format!("expected a statement, found {:?}", self.peek())))
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.type_name()?;
            columns.push((col, ty));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> DbResult<Statement> {
        let name = self.expect_ident()?;
        self.expect_kw("on")?;
        let table = self.expect_ident()?;
        self.expect_sym("(")?;
        let column = self.expect_ident()?;
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn type_name(&mut self) -> DbResult<TypeName> {
        let mut name = self.expect_ident()?;
        // Allow `DOUBLE PRECISION`.
        if name.eq_ignore_ascii_case("double") && self.at_kw("precision") {
            self.bump();
            name = "double precision".to_owned();
        }
        let arg = if self.eat_sym("(") {
            let n = match self.bump() {
                TokenKind::Int(n) if n >= 0 => n as u32,
                other => return Err(self.err(format!("expected length, found {other:?}"))),
            };
            self.expect_sym(")")?;
            Some(n)
        } else {
            None
        };
        Ok(TypeName { name, arg })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("into")?;
        let table = self.expect_ident()?;
        let columns = if self.eat_sym("(") {
            let mut cols = vec![self.expect_ident()?];
            while self.eat_sym(",") {
                cols.push(self.expect_ident()?);
            }
            self.expect_sym(")")?;
            Some(cols)
        } else {
            None
        };
        if self.at_kw("select") {
            let source = InsertSource::Query(Box::new(self.select()?));
            return Ok(Statement::Insert {
                table,
                columns,
                source,
            });
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(",") {
                row.push(self.expr()?);
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            source: InsertSource::Values(rows),
        })
    }

    fn update(&mut self) -> DbResult<Statement> {
        let table = self.expect_ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("from")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    /// Parses a SELECT possibly followed by `UNION [ALL] SELECT …`; the
    /// trailing ORDER BY/LIMIT/OFFSET bind to the whole chain.
    fn select(&mut self) -> DbResult<SelectStmt> {
        let mut head = self.select_core()?;
        let mut tail: Vec<(bool, SelectStmt)> = Vec::new();
        while self.eat_kw("union") {
            let all = self.eat_kw("all");
            tail.push((all, self.select_core()?));
        }
        if !tail.is_empty() {
            // ORDER BY/LIMIT may only appear on the final arm; move them
            // to the head, which owns them for the whole chain.
            for (_, arm) in tail
                .iter()
                .take(tail.len() - 1)
                .chain(std::iter::once(&(false, head.clone())))
            {
                if !arm.order_by.is_empty() || arm.limit.is_some() || arm.offset.is_some() {
                    return Err(self.err("ORDER BY/LIMIT in a UNION must follow the last arm"));
                }
            }
            let last = tail.len() - 1;
            head.order_by = tail[last].1.order_by.drain(..).collect();
            head.limit = tail[last].1.limit.take();
            head.offset = tail[last].1.offset.take();
            // Fold the arms into a right-nested chain.
            let mut chain: Option<(bool, Box<SelectStmt>)> = None;
            for (all, arm) in tail.into_iter().rev() {
                let mut arm = arm;
                arm.union = chain;
                chain = Some((all, Box::new(arm)));
            }
            head.union = chain;
        }
        Ok(head)
    }

    /// One SELECT arm (no UNION handling).
    fn select_core(&mut self) -> DbResult<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = vec![self.select_item()?];
        while self.eat_sym(",") {
            items.push(self.select_item()?);
        }
        let mut from = Vec::new();
        let mut join_preds: Vec<Expr> = Vec::new();
        if self.eat_kw("from") {
            from.push(self.table_ref()?);
            loop {
                if self.eat_sym(",") {
                    from.push(self.table_ref()?);
                } else if self.at_kw("join") || self.at_kw("inner") {
                    self.eat_kw("inner");
                    self.expect_kw("join")?;
                    from.push(self.table_ref()?);
                    self.expect_kw("on")?;
                    join_preds.push(self.expr()?);
                } else {
                    break;
                }
            }
        }
        let mut where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        // Fold JOIN … ON conditions into the WHERE clause (inner joins only).
        for p in join_preds {
            where_clause = Some(match where_clause {
                Some(w) => Expr::binary(AstBinOp::And, w, p),
                None => p,
            });
        }
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat_sym(",") {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        let offset = if self.eat_kw("offset") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected OFFSET count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
            union: None,
            as_of: None,
        })
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name) = self.peek().clone() {
            if matches!(
                self.tokens.get(self.i + 1).map(|t| &t.kind),
                Some(TokenKind::Sym("."))
            ) && matches!(
                self.tokens.get(self.i + 2).map(|t| &t.kind),
                Some(TokenKind::Sym("*"))
            ) {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            // See table_ref: `AS OF` is the time-travel clause.
            if self.at_kw("of") {
                self.i -= 1;
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else if let TokenKind::Ident(id) = self.peek() {
            // Bare alias, but not a clause keyword.
            const CLAUSES: [&str; 12] = [
                "from", "where", "group", "having", "order", "limit", "offset", "join", "inner",
                "on", "union", "like",
            ];
            if CLAUSES.iter().any(|k| id.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> DbResult<TableRef> {
        let table = self.expect_ident()?;
        let alias = if self.eat_kw("as") {
            // `… FROM t AS OF <point>`: that AS belongs to the
            // statement-level time-travel clause, not an alias — back
            // off and let the statement parser consume it.
            if self.at_kw("of") {
                self.i -= 1;
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else if let TokenKind::Ident(id) = self.peek() {
            const CLAUSES: [&str; 11] = [
                "where", "group", "having", "order", "limit", "offset", "join", "inner", "on",
                "set", "union",
            ];
            if CLAUSES.iter().any(|k| id.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    // ----- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> DbResult<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nesting exceeds the maximum depth of {MAX_EXPR_DEPTH}"
            )));
        }
        self.depth += 1;
        let r = self.or_expr();
        self.depth -= 1;
        r
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(AstBinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(AstBinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<Expr> {
        let lhs = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] BETWEEN / IN
        let negated = self.eat_kw("not");
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            if self.at_kw("select") {
                let sub = self.select()?;
                self.expect_sym(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query: Box::new(sub),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat_sym(",") {
                list.push(self.expr()?);
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected BETWEEN, IN, or LIKE after NOT"));
        }
        let op = if self.eat_sym("=") {
            AstBinOp::Eq
        } else if self.eat_sym("<>") {
            AstBinOp::Ne
        } else if self.eat_sym("<=") {
            AstBinOp::Le
        } else if self.eat_sym(">=") {
            AstBinOp::Ge
        } else if self.eat_sym("<") {
            AstBinOp::Lt
        } else if self.eat_sym(">") {
            AstBinOp::Gt
        } else {
            return Ok(lhs);
        };
        let rhs = self.additive()?;
        Ok(Expr::binary(op, lhs, rhs))
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                AstBinOp::Add
            } else if self.eat_sym("-") {
                AstBinOp::Sub
            } else if self.eat_sym("||") {
                AstBinOp::Concat
            } else {
                return Ok(lhs);
            };
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = if self.eat_sym("*") {
                AstBinOp::Mul
            } else if self.eat_sym("/") {
                AstBinOp::Div
            } else if self.eat_sym("%") {
                AstBinOp::Mod
            } else {
                return Ok(lhs);
            };
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat_sym("-") {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.postfix()
    }

    /// Postfix `::Type` casts (Informix explicit-cast syntax, paper §2).
    fn postfix(&mut self) -> DbResult<Expr> {
        let mut e = self.primary()?;
        while self.eat_sym("::") {
            let ty = self.type_name()?;
            e = Expr::Cast {
                expr: Box::new(e),
                ty,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Literal(Lit::Int(n)))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok(Expr::Literal(Lit::Float(f)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Lit::Str(s)))
            }
            TokenKind::Param(name) => {
                self.bump();
                Ok(Expr::Param(name))
            }
            TokenKind::Sym("(") => {
                self.bump();
                if self.at_kw("select") {
                    let sub = self.select()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Subquery(Box::new(sub)));
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            TokenKind::Ident(id) => {
                if id.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Literal(Lit::Null));
                }
                if id.eq_ignore_ascii_case("true") {
                    self.bump();
                    return Ok(Expr::Literal(Lit::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expr::Literal(Lit::Bool(false)));
                }
                if id.eq_ignore_ascii_case("case") {
                    self.bump();
                    return self.case_expr();
                }
                const RESERVED: [&str; 25] = [
                    "select", "from", "where", "group", "by", "having", "order", "limit", "and",
                    "or", "not", "join", "inner", "on", "as", "set", "values", "into", "update",
                    "delete", "create", "drop", "table", "between", "distinct",
                ];
                if RESERVED.iter().any(|k| id.eq_ignore_ascii_case(k)) {
                    return Err(self.err(format!("unexpected keyword {id} in expression")));
                }
                if id.eq_ignore_ascii_case("cast") {
                    self.bump();
                    self.expect_sym("(")?;
                    let inner = self.expr()?;
                    self.expect_kw("as")?;
                    let ty = self.type_name()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Cast {
                        expr: Box::new(inner),
                        ty,
                    });
                }
                self.bump();
                // Function call?
                if self.eat_sym("(") {
                    if self.eat_sym("*") {
                        self.expect_sym(")")?;
                        return Ok(Expr::Call {
                            name: id,
                            args: vec![],
                            star: true,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.at_sym(")") {
                        args.push(self.expr()?);
                        while self.eat_sym(",") {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect_sym(")")?;
                    return Ok(Expr::Call {
                        name: id,
                        args,
                        star: false,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat_sym(".") {
                    let name = self.expect_ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(id),
                        name,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name: id,
                })
            }
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

impl Parser {
    /// Parses the remainder of a CASE expression (the `CASE` keyword is
    /// already consumed): simple (`CASE x WHEN v THEN r …`) or searched
    /// (`CASE WHEN cond THEN r …`), with optional ELSE, closed by END.
    fn case_expr(&mut self) -> DbResult<Expr> {
        let operand = if self.at_kw("when") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let w = self.expr()?;
            self.expect_kw("then")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_ = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_create_table() {
        let s = parse_statement(
            "CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), \
             patientDOB Chronon, drug CHAR(20), dosage INT, frequency Span, valid Element)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "Prescription");
                assert_eq!(columns.len(), 7);
                assert_eq!(
                    columns[0].1,
                    TypeName {
                        name: "CHAR".into(),
                        arg: Some(20)
                    }
                );
                assert_eq!(
                    columns[6].1,
                    TypeName {
                        name: "Element".into(),
                        arg: None
                    }
                );
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parses_paper_insert() {
        let s = parse_statement(
            "INSERT INTO Prescription VALUES ('Dr.Pepper', 'Mr.Showbiz', '1955-03-15', \
             'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')",
        )
        .unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                assert_eq!(table, "Prescription");
                assert!(columns.is_none());
                let InsertSource::Values(rows) = source else {
                    panic!("expected VALUES")
                };
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].len(), 7);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parses_paper_tylenol_query() {
        let s = parse_statement(
            "SELECT patient FROM Prescription \
             WHERE drug = 'Tylenol' AND start(valid) - patientDOB < '7 00:00:00'::Span * :w",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("not a select")
        };
        assert_eq!(sel.items.len(), 1);
        let Some(Expr::Binary {
            op: AstBinOp::And,
            rhs,
            ..
        }) = sel.where_clause
        else {
            panic!("expected AND")
        };
        // rhs: start(valid) - patientDOB < cast * :w
        let Expr::Binary {
            op: AstBinOp::Lt,
            rhs: mul,
            ..
        } = *rhs
        else {
            panic!("expected <")
        };
        let Expr::Binary {
            op: AstBinOp::Mul,
            lhs: cast,
            rhs: param,
        } = *mul
        else {
            panic!("expected *")
        };
        assert!(matches!(*cast, Expr::Cast { .. }));
        assert!(matches!(*param, Expr::Param(ref p) if p == "w"));
    }

    #[test]
    fn parses_paper_self_join() {
        let s = parse_statement(
            "SELECT p1.*, p2.*, intersect(p1.valid, p2.valid) \
             FROM Prescription p1, Prescription p2 \
             WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' \
               AND overlaps(p1.valid, p2.valid)",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("not a select")
        };
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[0].binding_name(), "p1");
        assert!(matches!(sel.items[0], SelectItem::QualifiedWildcard(ref q) if q == "p1"));
        assert!(matches!(
            sel.items[2],
            SelectItem::Expr { expr: Expr::Call { ref name, .. }, .. } if name == "intersect"
        ));
    }

    #[test]
    fn parses_paper_group_union() {
        let s = parse_statement(
            "SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient",
        )
        .unwrap();
        let Statement::Select(sel) = s else {
            panic!("not a select")
        };
        assert_eq!(sel.group_by.len(), 1);
    }

    #[test]
    fn join_on_normalized_into_where() {
        let s =
            parse_statement("SELECT a.x FROM t a JOIN u b ON a.id = b.id WHERE a.x > 1").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        // WHERE (a.x > 1) AND (a.id = b.id)
        assert!(matches!(
            sel.where_clause,
            Some(Expr::Binary {
                op: AstBinOp::And,
                ..
            })
        ));
    }

    #[test]
    fn precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        let Expr::Binary {
            op: AstBinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *rhs,
            Expr::Binary {
                op: AstBinOp::Mul,
                ..
            }
        ));

        let e = parse_expression("NOT a = 1 OR b = 2 AND c = 3").unwrap();
        // OR(NOT(a=1), AND(b=2, c=3))
        let Expr::Binary {
            op: AstBinOp::Or,
            lhs,
            rhs,
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *lhs,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
        assert!(matches!(
            *rhs,
            Expr::Binary {
                op: AstBinOp::And,
                ..
            }
        ));
    }

    #[test]
    fn cast_binds_tighter_than_unary_minus() {
        let e = parse_expression("-x::INT").unwrap();
        let Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } = e
        else {
            panic!()
        };
        assert!(matches!(*expr, Expr::Cast { .. }));
    }

    #[test]
    fn chained_casts() {
        let e = parse_expression("'1999-01-01'::Chronon::Period").unwrap();
        let Expr::Cast { expr, ty } = e else { panic!() };
        assert_eq!(ty.name, "Period");
        assert!(matches!(*expr, Expr::Cast { .. }));
    }

    #[test]
    fn between_in_isnull() {
        assert!(matches!(
            parse_expression("x BETWEEN 1 AND 5").unwrap(),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT IN (1, 2, 3)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn count_star_and_cast_call() {
        assert!(matches!(
            parse_expression("COUNT(*)").unwrap(),
            Expr::Call { star: true, .. }
        ));
        let e = parse_expression("CAST(x AS FLOAT)").unwrap();
        assert!(matches!(e, Expr::Cast { ref ty, .. } if ty.name == "FLOAT"));
    }

    #[test]
    fn update_delete_drop() {
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1, b = 'x' WHERE c = 2").unwrap(),
            Statement::Update { ref sets, .. } if sets.len() == 2
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn multi_row_insert_with_columns() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)").unwrap();
        let Statement::Insert {
            columns, source, ..
        } = s
        else {
            panic!()
        };
        assert_eq!(columns.unwrap(), vec!["a", "b"]);
        let InsertSource::Values(rows) = source else {
            panic!("expected VALUES")
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn order_limit_distinct() {
        let s = parse_statement("SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 10").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.distinct);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn select_without_from() {
        let s = parse_statement("SELECT 1 + 1 AS two").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.from.is_empty());
        assert!(matches!(
            sel.items[0],
            SelectItem::Expr { alias: Some(ref a), .. } if a == "two"
        ));
    }

    #[test]
    fn create_index() {
        assert!(matches!(
            parse_statement("CREATE INDEX idx_drug ON Prescription(drug)").unwrap(),
            Statement::CreateIndex { .. }
        ));
    }

    #[test]
    fn syntax_errors_have_positions() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(err, DbError::Syntax { .. }));
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT 1 2").is_err());
        assert!(parse_expression("1 +").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_statement("SELECT 1;").is_ok());
    }

    #[test]
    fn txn_statements() {
        assert!(matches!(
            parse_statement("BEGIN").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("begin work;").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("BEGIN TRANSACTION").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("COMMIT WORK").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("rollback").unwrap(),
            Statement::Rollback
        ));
        assert!(parse_statement("BEGIN SELECT").is_err());
    }

    #[test]
    fn as_of_clause() {
        let s = parse_statement("SELECT * FROM t AS OF COMMIT 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.from[0].alias.is_none());
        assert!(matches!(sel.as_of, Some(AsOf::Commit(_))));

        let s = parse_statement("SELECT * FROM t AS OF 1700000000").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(matches!(sel.as_of, Some(AsOf::Instant(_))));

        // After ORDER BY/LIMIT, and with an aliased table.
        let s = parse_statement("SELECT v FROM t x ORDER BY v LIMIT 2 AS OF COMMIT 7").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].alias.as_deref(), Some("x"));
        assert!(matches!(sel.as_of, Some(AsOf::Commit(_))));

        // A real alias still parses.
        let s = parse_statement("SELECT o.v FROM t AS o").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from[0].alias.as_deref(), Some("o"));
        assert!(sel.as_of.is_none());
    }
}
