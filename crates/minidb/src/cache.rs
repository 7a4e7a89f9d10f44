//! The parameterized plan cache: prepare-once / execute-many.
//!
//! Repeat executions of the same SELECT, INSERT, UPDATE or DELETE skip
//! the entire SQL front end (lex, parse, bind, plan). Plans hold their
//! `:name` parameters as [`BoundKind::Param`](crate::binder::BoundKind)
//! slots evaluated from the [`ExecCtx`](crate::catalog::ExecCtx) at
//! execution time, so one cached plan serves every parameter value.
//!
//! * **Rule** — a statement is cached when it was planned at the Latest
//!   cut outside a transaction and touches no view and no subquery
//!   ([`TableSet::cacheable`](crate::pin::TableSet::cacheable)).
//! * **Key** — the statement text, normalized only by trimming
//!   whitespace and a trailing `;` (SQL is case-sensitive inside string
//!   literals, so no case folding). An `EXPLAIN [ANALYZE]` prefix is
//!   stripped before keying: EXPLAIN shares the cache with the statement
//!   it wraps.
//! * **Invalidation** — the owning [`Database`](crate::session::Database)
//!   bumps a generation counter on every registry write (CREATE/DROP
//!   table/index/view), blade install, and snapshot restore. Lookups
//!   compare generations lazily and evict stale entries on contact.
//! * **Parameter shape** — a plan is only reusable when the sorted
//!   `(name, type)` signature of the supplied parameters matches the one
//!   it was bound with (the types drove overload resolution); a
//!   mismatch replans and replaces the entry.
//! * **Bound** — an LRU capped at [`PlanCache::DEFAULT_CAP`] entries.

use crate::plan::Planned;
use crate::types::DataType;
use std::sync::Arc;

/// A bound, parameter-deferred plan ready for re-execution.
pub struct CachedPlan {
    pub planned: Planned,
    /// Sorted `(lowercase name, type)` signature of the parameters the
    /// plan was bound with.
    pub param_sig: Vec<(String, DataType)>,
    /// Lowercase keys of every table the statement pins, sorted — the
    /// re-pin list for later executions.
    pub tables: Vec<String>,
    /// DDL generation the plan was built against.
    pub generation: u64,
}

/// Outcome of a cache probe.
pub enum CacheLookup {
    /// Reusable plan; already promoted to most-recently-used.
    Hit(Arc<CachedPlan>),
    /// An entry existed but its generation was stale; it has been
    /// evicted (counted as an invalidation).
    Stale,
    /// No usable entry (missing, or parameter shape changed).
    Absent,
}

/// Bounded LRU of [`CachedPlan`]s, keyed by normalized SQL text. Small
/// enough that a `Vec` scan beats hashing for the expected working set.
pub struct PlanCache {
    /// LRU order: most recently used last.
    entries: Vec<(String, Arc<CachedPlan>)>,
    cap: usize,
}

impl PlanCache {
    /// Default entry cap.
    pub const DEFAULT_CAP: usize = 128;

    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            entries: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Probes for `key` at `generation` with the caller's parameter
    /// signature (sorted `(lowercase name, type)` pairs).
    pub fn lookup(
        &mut self,
        key: &str,
        generation: u64,
        param_sig: &[(String, DataType)],
    ) -> CacheLookup {
        let Some(i) = self.entries.iter().position(|(k, _)| k == key) else {
            return CacheLookup::Absent;
        };
        let (k, entry) = self.entries.remove(i);
        if entry.generation != generation {
            // Lazy invalidation: the schema moved on under this entry.
            return CacheLookup::Stale;
        }
        if entry.param_sig != param_sig {
            // Same text, different parameter shape (types drove overload
            // resolution): replan; the fill will replace this entry.
            return CacheLookup::Absent;
        }
        self.entries.push((k, Arc::clone(&entry)));
        CacheLookup::Hit(entry)
    }

    /// Inserts (or replaces) the entry for `key`, evicting the least
    /// recently used entry when full.
    pub fn insert(&mut self, key: String, entry: Arc<CachedPlan>) {
        self.entries.retain(|(k, _)| *k != key);
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        self.entries.push((key, entry));
    }

    /// Current number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached plan — for wholesale world swaps (snapshot
    /// restore), where lazy per-entry staleness discovery is not enough.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Normalizes statement text into a cache key: trims surrounding
/// whitespace and any run of trailing `;` (interleaved with whitespace),
/// so `SELECT 1`, `SELECT 1;;` and `SELECT 1 ;  ` share one entry.
pub fn normalize_sql(sql: &str) -> &str {
    let mut s = sql.trim();
    while let Some(stripped) = s.strip_suffix(';') {
        s = stripped.trim_end();
    }
    s
}

/// Splits a leading `EXPLAIN [ANALYZE]` prefix (case-insensitive, on
/// word boundaries) off normalized statement text, returning
/// `(is_explain, analyze, inner_text)`. The inner text is what keys the
/// cache, so `EXPLAIN q` and `q` share an entry.
pub fn split_explain(sql: &str) -> (bool, bool, &str) {
    let Some(rest) = strip_keyword(sql, "explain") else {
        return (false, false, sql);
    };
    match strip_keyword(rest, "analyze") {
        Some(inner) => (true, true, inner),
        None => (true, false, rest),
    }
}

/// Strips one leading keyword (case-insensitive) followed by at least
/// one whitespace character.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() <= kw.len() || !s.is_char_boundary(kw.len()) {
        return None;
    }
    let (head, tail) = s.split_at(kw.len());
    if head.eq_ignore_ascii_case(kw) && tail.starts_with(char::is_whitespace) {
        Some(tail.trim_start())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlannedSelect};

    fn plan_stub() -> CachedPlan {
        CachedPlan {
            planned: Planned::Select(PlannedSelect {
                plan: Plan::Nothing,
                columns: Vec::new(),
            }),
            param_sig: Vec::new(),
            tables: Vec::new(),
            generation: 1,
        }
    }

    #[test]
    fn normalization_trims_whitespace_and_trailing_semicolons() {
        assert_eq!(normalize_sql("  SELECT 1 ;  "), "SELECT 1");
        assert_eq!(normalize_sql("SELECT 1"), "SELECT 1");
        assert_eq!(normalize_sql("SELECT 1;;"), "SELECT 1");
        assert_eq!(normalize_sql("SELECT 1 ; ; "), "SELECT 1");
        assert_eq!(normalize_sql("SELECT ';'"), "SELECT ';'");
        assert_eq!(normalize_sql("SELECT ';';"), "SELECT ';'");
    }

    #[test]
    fn explain_prefix_is_split_on_word_boundaries() {
        assert_eq!(split_explain("SELECT 1"), (false, false, "SELECT 1"));
        assert_eq!(split_explain("EXPLAIN SELECT 1"), (true, false, "SELECT 1"));
        assert_eq!(
            split_explain("explain   analyze  SELECT 1"),
            (true, true, "SELECT 1")
        );
        // Not keywords: no whitespace boundary.
        assert_eq!(
            split_explain("EXPLAINX SELECT 1"),
            (false, false, "EXPLAINX SELECT 1")
        );
        assert_eq!(
            split_explain("EXPLAIN ANALYZER"),
            (true, false, "ANALYZER"),
            "ANALYZER is the statement, not the ANALYZE keyword"
        );
    }

    #[test]
    fn lru_evicts_oldest_and_promotes_on_hit() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), Arc::new(plan_stub()));
        c.insert("b".into(), Arc::new(plan_stub()));
        // Touch "a" so "b" becomes the eviction candidate.
        assert!(matches!(c.lookup("a", 1, &[]), CacheLookup::Hit(_)));
        c.insert("c".into(), Arc::new(plan_stub()));
        assert_eq!(c.len(), 2);
        assert!(matches!(c.lookup("b", 1, &[]), CacheLookup::Absent));
        assert!(matches!(c.lookup("a", 1, &[]), CacheLookup::Hit(_)));
        assert!(matches!(c.lookup("c", 1, &[]), CacheLookup::Hit(_)));
    }

    #[test]
    fn stale_generation_evicts_and_reports() {
        let mut c = PlanCache::new(4);
        c.insert("q".into(), Arc::new(plan_stub()));
        assert!(matches!(c.lookup("q", 2, &[]), CacheLookup::Stale));
        // The stale entry is gone, not retried.
        assert!(matches!(c.lookup("q", 2, &[]), CacheLookup::Absent));
    }

    #[test]
    fn param_signature_mismatch_is_absent_not_hit() {
        let mut c = PlanCache::new(4);
        c.insert(
            "q".into(),
            Arc::new(CachedPlan {
                param_sig: vec![("w".into(), DataType::Int)],
                ..plan_stub()
            }),
        );
        let other = vec![("w".into(), DataType::Str)];
        assert!(matches!(c.lookup("q", 1, &other), CacheLookup::Absent));
    }
}
