//! DDL statements: registry and index changes, logged before they
//! become visible.

use super::{ReadCut, Session, StatementOutcome};
use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::pin::TableSet;
use crate::plan::Planner;
use crate::sql::ast::{SelectStmt, TypeName};
use crate::storage::{Column, TableSchema, ViewDef};
use crate::types::DataType;
use parking_lot::RwLockReadGuard;
use std::collections::HashMap;

/// Bucket stride of interval indexes created by `CREATE INDEX` on
/// interval-capable columns: 30 days of chronon seconds.
const DEFAULT_INTERVAL_STRIDE: i64 = 30 * 86_400;

impl Session {
    /// `CREATE TABLE`.
    pub(super) fn create_table(
        &self,
        sql: &str,
        name: String,
        columns: Vec<(String, TypeName)>,
    ) -> DbResult<StatementOutcome> {
        let catalog = self.db.catalog.read();
        let mut cols = Vec::with_capacity(columns.len());
        for (cname, tyname) in columns {
            if cols
                .iter()
                .any(|c: &Column| c.name.eq_ignore_ascii_case(&cname))
            {
                return Err(DbError::Constraint {
                    message: format!("duplicate column {cname}"),
                });
            }
            let ty = catalog.lookup_type_name(&tyname.name)?;
            cols.push(Column { name: cname, ty });
        }
        let registry = self.db.registry.write();
        registry.check_free("table", &name)?;
        self.commit_ddl(sql, catalog, registry, |registry| {
            registry.create_table(TableSchema {
                name: name.clone(),
                columns: cols,
            })?;
            // Stamp the new table's initial version with a fresh commit
            // point, so AS OF before this moment reports NotFound rather
            // than an empty table.
            self.db.stamp_creation(&registry.shared_table(&name)?);
            Ok(())
        })
    }

    /// `CREATE INDEX`. The collector pinned the target table for
    /// writing; no other table (and not the registry) is blocked while
    /// the index backfills.
    pub(super) fn create_index(
        &self,
        sql: &str,
        set: &TableSet,
        name: String,
        table: &str,
        column: &str,
    ) -> DbResult<StatementOutcome> {
        let mut pinned = self.pin_cut(set, ReadCut::Latest)?;
        let catalog = self.db.catalog.read();
        let t = pinned.table_mut(table)?;
        let col = t
            .schema
            .col_index(column)
            .ok_or_else(|| DbError::NotFound {
                kind: "column",
                name: format!("{table}.{column}"),
            })?;
        // Unordered types with interval-bounds support (Period, Element,
        // Instant) get a bucketed interval index that accelerates
        // overlaps/contains; everything else gets a B-tree.
        let interval_bounds = match t.schema.columns[col].ty {
            DataType::Udt(id) => {
                let def = catalog.type_def(id)?;
                if def.ordered {
                    None
                } else {
                    def.interval_key.clone()
                }
            }
            _ => None,
        };
        if t.indexes()
            .iter()
            .any(|ix| ix.name.eq_ignore_ascii_case(&name))
        {
            return Err(DbError::AlreadyExists {
                kind: "index",
                name,
            });
        }
        self.commit_ddl(sql, catalog, pinned, |pinned| {
            let t = pinned.table_mut(table)?;
            match interval_bounds {
                Some(bounds) => {
                    t.create_interval_index(name, col, bounds, DEFAULT_INTERVAL_STRIDE)?
                }
                None => t.create_index(name, col)?,
            }
            // Publish while the write guard is held: snapshot readers
            // resolve access paths from published versions, so the new
            // index must enter the chain.
            self.db.publish_pinned(pinned);
            Ok(())
        })
    }

    /// `DROP TABLE`. A registry write only: in-flight statements still
    /// hold the table's `Arc` and finish on the data they pinned.
    pub(super) fn drop_table(
        &self,
        sql: &str,
        name: String,
        if_exists: bool,
    ) -> DbResult<StatementOutcome> {
        let catalog = self.db.catalog.read();
        let registry = self.db.registry.write();
        if !registry.has_table(&name) {
            return if if_exists {
                Ok(StatementOutcome::Done)
            } else {
                Err(DbError::NotFound {
                    kind: "table",
                    name,
                })
            };
        }
        self.commit_ddl(sql, catalog, registry, |registry| {
            registry.drop_table(&name)
        })
    }

    /// `CREATE VIEW`. The body is planned once against the pinned base
    /// tables before its text is stored. A view takes no host variables
    /// (nor does an Informix view): recovery and replicas replay its text
    /// with no parameters to bind, so a `:name` in it is refused here,
    /// before anything is logged.
    pub(super) fn create_view(
        &self,
        sql: &str,
        set: &TableSet,
        name: String,
        query: &SelectStmt,
        body_start: usize,
    ) -> DbResult<StatementOutcome> {
        {
            let pinned = self.pin_cut(set, ReadCut::Latest)?;
            let catalog = self.db.catalog.read();
            let no_params = HashMap::new();
            let planner = Planner::new(&catalog, &pinned, &no_params, self.statement_ctx(None));
            planner.plan_select(query).map_err(|e| match e {
                DbError::MissingParam { name } => DbError::binding(format!(
                    "a view body cannot reference the parameter :{name}"
                )),
                e => e,
            })?;
        }
        let body_sql = sql
            .get(body_start..)
            .unwrap_or("")
            .trim()
            .trim_end_matches(';')
            .to_owned();
        let catalog = self.db.catalog.read();
        let registry = self.db.registry.write();
        registry.check_free("view", &name)?;
        self.commit_ddl(sql, catalog, registry, |registry| {
            registry.create_view(ViewDef { name, body_sql })
        })
    }

    /// `DROP VIEW`.
    pub(super) fn drop_view(
        &self,
        sql: &str,
        name: String,
        if_exists: bool,
    ) -> DbResult<StatementOutcome> {
        let catalog = self.db.catalog.read();
        let registry = self.db.registry.write();
        if registry.view(&name).is_none() {
            return if if_exists {
                Ok(StatementOutcome::Done)
            } else {
                Err(DbError::NotFound { kind: "view", name })
            };
        }
        self.commit_ddl(sql, catalog, registry, |registry| registry.drop_view(&name))
    }

    /// The one DDL commit. The caller holds `guard` — the registry write
    /// lock, or the write pin of the table an index is built on — and
    /// has already refused the statement if anything would. The text is
    /// logged first, so a record the log refuses leaves memory untouched;
    /// `apply` then makes the change under the same guard, so the log's
    /// DDL order is the order the changes took. The generation is bumped
    /// before the guard drops, so a cached plan whose generation still
    /// matches never re-pins a table this statement replaced; then the
    /// commit waits until it is durable.
    fn commit_ddl<G>(
        &self,
        sql: &str,
        catalog: RwLockReadGuard<'_, Catalog>,
        mut guard: G,
        apply: impl FnOnce(&mut G) -> DbResult<()>,
    ) -> DbResult<StatementOutcome> {
        let seq = self.db.wal_append(&catalog, |b| b.ddl(sql))?;
        apply(&mut guard)?;
        self.db.bump_generation();
        drop(guard);
        drop(catalog);
        self.db.wal_wait(seq)?;
        Ok(StatementOutcome::Done)
    }
}
