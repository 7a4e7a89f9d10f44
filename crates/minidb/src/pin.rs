//! Statement-scoped table pinning: the concurrency backbone.
//!
//! The [`Storage`](crate::storage::Storage) registry maps names to
//! [`SharedTable`] handles (`Arc<TableCell>` — a live table plus its
//! MVCC version chain). A statement never holds the registry lock while
//! it runs; instead it
//!
//! 1. walks its AST under a *short* registry read lock, resolving every
//!    referenced table (and the tables referenced by any views it uses)
//!    into a [`TableSet`] — `Arc` handles plus the required access mode;
//! 2. releases the registry lock;
//! 3. pins the set at one read cut ([`TableSet::pin_with`]): **write**
//!    entries acquire their per-table write guards in deterministic
//!    sorted-name order (deadlock-free: any two writers acquire common
//!    tables in the same global order), while **read** entries resolve
//!    a published snapshot from the version chain and acquire *no lock
//!    at all* — a SELECT never blocks behind a writer, however long it
//!    runs.
//!
//! The planner and executor then run against the pinned set through the
//! [`TableSource`] trait rather than against `&Storage`.

use crate::error::{DbError, DbResult};
use crate::session::SnapshotPin;
use crate::sql::ast::{Expr, InsertSource, SelectStmt, Statement};
use crate::sql::parse_statement;
use crate::storage::{SharedTable, Storage, Table, ViewDef};
use parking_lot::RwLockWriteGuard;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-only name resolution the planner and executor run against: a
/// statement's pinned tables, or any other fixed set of tables.
pub trait TableSource {
    /// The table `name` refers to, if pinned.
    fn table(&self, name: &str) -> DbResult<&Table>;
    /// The view definition `name` refers to, if any.
    fn view(&self, name: &str) -> Option<&ViewDef>;
}

/// Views nested deeper than this stop contributing tables to the set.
/// Their *definitions* are still recorded so the planner's own depth
/// guard (which fires at the same nesting level) reports the error.
const MAX_VIEW_DEPTH: usize = 16;

struct Entry {
    /// Lowercase lookup key (the registry's own key).
    key: String,
    shared: SharedTable,
    write: bool,
}

/// The tables one statement touches, resolved to shared handles but not
/// yet locked. Building a set requires only a registry read lock;
/// [`TableSet::pin_with`] then blocks on the per-table locks with the
/// registry lock already released.
#[derive(Default)]
pub struct TableSet {
    /// Sorted by `key` — the deterministic acquisition order.
    entries: Vec<Entry>,
    /// Referenced view definitions, cloned out of the registry so the
    /// planner can inline them without re-entering the registry lock.
    views: HashMap<String, ViewDef>,
    /// `true` when the statement holds a subquery anywhere.
    subqueries: bool,
}

impl TableSet {
    /// Resolves every table a statement references: FROM lists (of the
    /// statement, its subqueries, UNION arms, and the bodies of any
    /// views it names) as reads; INSERT/UPDATE/DELETE targets and
    /// CREATE INDEX tables as writes. Names that resolve to nothing are
    /// skipped — the planner reports `NotFound` with full context.
    pub fn for_statement(registry: &Storage, stmt: &Statement) -> TableSet {
        let mut c = Collector {
            registry,
            tables: BTreeMap::new(),
            views: HashMap::new(),
            subqueries: false,
            depth: 0,
        };
        c.stmt(stmt);
        TableSet {
            entries: c
                .tables
                .into_iter()
                .map(|(key, (shared, write))| Entry { key, shared, write })
                .collect(),
            views: c.views,
            subqueries: c.subqueries,
        }
    }

    /// A set covering every table and view in the registry, all as
    /// reads — a whole-database read pin (snapshots, admin inspection).
    pub fn read_all(registry: &Storage) -> TableSet {
        TableSet {
            entries: registry
                .shared_tables_sorted()
                .into_iter()
                .map(|(key, shared)| Entry {
                    key,
                    shared,
                    write: false,
                })
                .collect(),
            views: registry.views_cloned(),
            subqueries: false,
        }
    }

    /// Resolves an explicit list of lowercase table keys — the re-pin
    /// path for a cached plan, which knows exactly which tables it
    /// touches — as reads, but `write` (a write plan's target) for
    /// writing. Unlike [`TableSet::for_statement`], a missing name is a
    /// hard `NotFound`: the cached plan *requires* the table.
    pub fn for_plan(
        registry: &Storage,
        keys: &[String],
        write: Option<&str>,
    ) -> DbResult<TableSet> {
        let mut entries = Vec::with_capacity(keys.len());
        for key in keys {
            entries.push(Entry {
                key: key.clone(),
                shared: registry.shared_table(key)?,
                write: write.is_some_and(|w| w.eq_ignore_ascii_case(key)),
            });
        }
        // `keys` comes from `table_keys()` and is already sorted, but a
        // cached plan's correctness must not hinge on the caller: sort.
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(TableSet {
            entries,
            views: HashMap::new(),
            subqueries: false,
        })
    }

    /// The set's lowercase table keys, in sorted (acquisition) order.
    pub fn table_keys(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.key.clone()).collect()
    }

    /// `true` when a plan of the statement may be cached: it references
    /// no view, whose text can change under the same name, and holds no
    /// subquery, which the planner freezes to its *value*.
    pub fn cacheable(&self) -> bool {
        self.views.is_empty() && !self.subqueries
    }

    /// Marks every entry a read and returns the key of the one that was
    /// a write: a transaction's DML writes its private workspace, never a
    /// live table, so it takes no write guard.
    pub(crate) fn demote_writes(&mut self) -> Option<String> {
        let mut target = None;
        for e in &mut self.entries {
            if std::mem::take(&mut e.write) {
                target = Some(e.key.clone());
            }
        }
        target
    }

    /// Pins the set at one read cut. Write entries acquire their write
    /// guards (in sorted-name order, measuring the time spent blocked);
    /// read entries take the version `read(key, cell)` resolves —
    /// lock-free. `snap` is the registered snapshot the cut reads at,
    /// held until the pin drops so garbage collection keeps its versions.
    pub(crate) fn pin_with<E>(
        &self,
        snap: Option<SnapshotPin>,
        mut read: impl FnMut(&str, &SharedTable) -> Result<Arc<Table>, E>,
    ) -> Result<PinnedTables<'_>, E> {
        let t0 = Instant::now();
        let mut pins = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            pins.push(if e.write {
                Pin::Write(e.shared.write())
            } else {
                Pin::Snap(read(&e.key, &e.shared)?)
            });
        }
        Ok(PinnedTables {
            set: self,
            pins,
            lock_wait: t0.elapsed(),
            _snap: snap,
        })
    }
}

enum Pin<'a> {
    /// A held write guard on the live table.
    Write(RwLockWriteGuard<'a, Table>),
    /// A published immutable snapshot; no lock held.
    Snap(Arc<Table>),
}

impl Pin<'_> {
    fn table(&self) -> &Table {
        match self {
            Pin::Write(g) => g,
            Pin::Snap(t) => t,
        }
    }
}

/// The pinned state of a [`TableSet`] — what a statement actually
/// executes against. Write-pinned tables hold their guards (other
/// writers on those tables wait); read-pinned tables are immutable
/// snapshots, so concurrent writers — even on the same tables — are
/// never blocked and never observed mid-statement.
pub struct PinnedTables<'a> {
    set: &'a TableSet,
    /// Parallel to `set.entries` (sorted lowercase keys).
    pins: Vec<Pin<'a>>,
    lock_wait: Duration,
    _snap: Option<SnapshotPin>,
}

impl PinnedTables<'_> {
    fn position(&self, name: &str) -> Option<usize> {
        let key = name.to_ascii_lowercase();
        self.set
            .entries
            .binary_search_by(|e| e.key.as_str().cmp(key.as_str()))
            .ok()
    }

    /// Mutable access to a write-pinned table. Errors if the table was
    /// not pinned (unknown name) or was pinned read-only (an engine
    /// bug: the collector marks every DML target as a write).
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        match self.position(name) {
            Some(i) => match &mut self.pins[i] {
                Pin::Write(g) => Ok(&mut *g),
                Pin::Snap(_) => Err(DbError::exec(format!("table {name} is pinned read-only"))),
            },
            None => Err(DbError::NotFound {
                kind: "table",
                name: name.to_owned(),
            }),
        }
    }

    /// Number of tables pinned (write guards plus snapshots).
    pub fn tables_pinned(&self) -> usize {
        self.pins.len()
    }

    /// Time spent blocked acquiring the write guards (always zero for a
    /// pure read pin: snapshots are lock-free).
    pub fn lock_wait(&self) -> Duration {
        self.lock_wait
    }

    /// Shares a publishable snapshot of every write-pinned table,
    /// paired with its cell — the input
    /// [`Database::publish_prepared`](crate::session::Database) wants.
    /// Called with the guards still held (they are: they live in
    /// `self`), so the snapshots are exactly what this statement
    /// committed and version chains grow in commit order. Cheap: see
    /// [`Table::share`].
    pub(crate) fn prepared_publishes(&self) -> Vec<(SharedTable, Arc<Table>)> {
        self.pins
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Pin::Write(g) => {
                    Some((Arc::clone(&self.set.entries[i].shared), Arc::new(g.share())))
                }
                Pin::Snap(_) => None,
            })
            .collect()
    }
}

impl TableSource for PinnedTables<'_> {
    fn table(&self, name: &str) -> DbResult<&Table> {
        match self.position(name) {
            Some(i) => Ok(self.pins[i].table()),
            None => Err(DbError::NotFound {
                kind: "table",
                name: name.to_owned(),
            }),
        }
    }

    fn view(&self, name: &str) -> Option<&ViewDef> {
        self.set.views.get(&name.to_ascii_lowercase())
    }
}

// ----- referenced-table collection ------------------------------------------

struct Collector<'a> {
    registry: &'a Storage,
    /// key -> (handle, needs write). `BTreeMap` keeps the sorted
    /// acquisition order for free.
    tables: BTreeMap<String, (SharedTable, bool)>,
    views: HashMap<String, ViewDef>,
    subqueries: bool,
    depth: usize,
}

impl Collector<'_> {
    fn touch(&mut self, name: &str, write: bool) {
        let key = name.to_ascii_lowercase();
        if let Ok(shared) = self.registry.shared_table(&key) {
            let entry = self.tables.entry(key).or_insert((shared, false));
            entry.1 |= write;
        } else if let Some(def) = self.registry.view(&key) {
            if self.views.contains_key(&key) {
                return;
            }
            let def = def.clone();
            let body = def.body_sql.clone();
            // Always record the definition (the planner must be able to
            // *see* an over-deep view to report its depth error), but
            // stop contributing tables past the depth bound.
            self.views.insert(key, def);
            if self.depth >= MAX_VIEW_DEPTH {
                return;
            }
            // A view's body reads its own base tables (and views).
            if let Ok(Statement::Select(sel)) = parse_statement(&body) {
                self.depth += 1;
                self.select(&sel);
                self.depth -= 1;
            }
        }
        // Unknown name: not an error here — the planner reports
        // NotFound with the proper "table or view" context.
    }

    fn stmt(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Select(sel) => self.select(sel),
            Statement::Insert {
                table,
                columns: _,
                source,
            } => {
                self.touch(table, true);
                match source {
                    InsertSource::Values(rows) => {
                        for exprs in rows {
                            for e in exprs {
                                self.expr(e);
                            }
                        }
                    }
                    InsertSource::Query(sel) => self.select(sel),
                }
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                self.touch(table, true);
                for (_, e) in sets {
                    self.expr(e);
                }
                if let Some(w) = where_clause {
                    self.expr(w);
                }
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                self.touch(table, true);
                if let Some(w) = where_clause {
                    self.expr(w);
                }
            }
            Statement::CreateIndex { table, .. } => self.touch(table, true),
            Statement::Explain { inner, .. } => {
                self.stmt(inner);
                // EXPLAIN only plans: a DML target is read, not locked.
                for (_, write) in self.tables.values_mut() {
                    *write = false;
                }
            }
            Statement::CreateView { query, .. } => self.select(query),
            // Pure registry/session operations pin no tables.
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::DropView { .. }
            | Statement::ShowStats
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => {}
        }
    }

    fn select(&mut self, sel: &SelectStmt) {
        for tref in &sel.from {
            self.touch(&tref.table, false);
        }
        for item in &sel.items {
            if let crate::sql::ast::SelectItem::Expr { expr, .. } = item {
                self.expr(expr);
            }
        }
        if let Some(w) = &sel.where_clause {
            self.expr(w);
        }
        for e in &sel.group_by {
            self.expr(e);
        }
        if let Some(h) = &sel.having {
            self.expr(h);
        }
        for o in &sel.order_by {
            self.expr(&o.expr);
        }
        if let Some((_, next)) = &sel.union {
            self.select(next);
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Subquery(query) | Expr::InSubquery { query, .. } => {
                self.subqueries = true;
                self.select(query);
            }
            _ => {}
        }
        e.for_each_child(|c| self.expr(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Column, TableSchema};
    use crate::types::DataType;

    fn registry_with(tables: &[&str]) -> Storage {
        let mut s = Storage::new();
        for name in tables {
            s.create_table(TableSchema {
                name: (*name).to_owned(),
                columns: vec![Column {
                    name: "v".into(),
                    ty: DataType::Int,
                }],
            })
            .unwrap();
        }
        s
    }

    fn set_for(registry: &Storage, sql: &str) -> TableSet {
        TableSet::for_statement(registry, &parse_statement(sql).unwrap())
    }

    fn keys(set: &TableSet) -> Vec<(&str, bool)> {
        set.entries
            .iter()
            .map(|e| (e.key.as_str(), e.write))
            .collect()
    }

    #[test]
    fn select_pins_from_tables_read_only_in_sorted_order() {
        let reg = registry_with(&["zeta", "Alpha", "mid"]);
        let set = set_for(&reg, "SELECT * FROM zeta, Alpha, mid");
        assert_eq!(
            keys(&set),
            vec![("alpha", false), ("mid", false), ("zeta", false)]
        );
    }

    #[test]
    fn dml_targets_pin_write_and_sources_pin_read() {
        let reg = registry_with(&["a", "b"]);
        let set = set_for(&reg, "INSERT INTO a SELECT v FROM b");
        assert_eq!(keys(&set), vec![("a", true), ("b", false)]);
        let set = set_for(&reg, "UPDATE b SET v = (SELECT MAX(v) FROM a)");
        assert_eq!(keys(&set), vec![("a", false), ("b", true)]);
        let set = set_for(&reg, "DELETE FROM a WHERE v IN (SELECT v FROM b)");
        assert_eq!(keys(&set), vec![("a", true), ("b", false)]);
    }

    #[test]
    fn self_referencing_insert_select_upgrades_to_one_write_pin() {
        let reg = registry_with(&["t"]);
        let set = set_for(&reg, "INSERT INTO t SELECT v + 1 FROM t");
        assert_eq!(keys(&set), vec![("t", true)]);
    }

    #[test]
    fn view_bodies_contribute_their_base_tables() {
        let mut reg = registry_with(&["base"]);
        reg.create_view(ViewDef {
            name: "V".into(),
            body_sql: "SELECT v FROM base".into(),
        })
        .unwrap();
        let set = set_for(&reg, "SELECT * FROM v");
        assert_eq!(keys(&set), vec![("base", false)]);
        assert!(set.views.contains_key("v"));
    }

    #[test]
    fn unknown_names_are_skipped_for_the_planner_to_report() {
        let reg = registry_with(&["a"]);
        let set = set_for(&reg, "SELECT * FROM a, missing");
        assert_eq!(keys(&set), vec![("a", false)]);
    }

    #[test]
    fn pinned_set_serves_tables_and_rejects_read_only_mutation() {
        let reg = registry_with(&["a", "b"]);
        let set = set_for(&reg, "INSERT INTO a SELECT v FROM b");
        let mut pinned = set
            .pin_with(None, |_, cell| DbResult::Ok(cell.latest()))
            .unwrap();
        assert_eq!(pinned.tables_pinned(), 2);
        assert_eq!(pinned.table("A").unwrap().schema.name, "a");
        assert!(pinned.table_mut("a").is_ok());
        assert!(pinned.table_mut("b").is_err(), "b is read-pinned");
        assert!(pinned.table("nope").is_err());
    }
}
