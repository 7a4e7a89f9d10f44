//! The catalog: registries for types, routines, casts, operators and
//! aggregates, plus the DataBlade-style [`Blade`] extension trait.
//!
//! This is the extensibility surface the paper relies on: "Once the TIP
//! DataBlade is installed in Informix, TIP datatypes and routines become
//! available to users as if they were built into the DBMS" (§1). A blade
//! registers opaque types (with text and binary I/O and comparison
//! support), scalar routines, casts (implicit or explicit), operator
//! overloads, and aggregates; the binder then resolves SQL expressions
//! against these registries exactly as it does for built-ins.

use crate::error::{DbError, DbResult};
use crate::types::{DataType, UdtId};
use crate::value::{UdtValue, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Per-statement evaluation context handed to every routine. The engine
/// freezes the transaction time once per statement, which is what gives
/// `NOW` its paper semantics. It also carries the statement's named
/// parameters, so a cached plan containing unresolved
/// [`Param`](crate::binder::BoundKind::Param) slots can be re-executed
/// with fresh values without re-binding.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Statement (transaction) time as Unix seconds.
    pub txn_time_unix: i64,
    /// Named parameter values (keys lowercased), shared so cloning the
    /// context stays cheap. `None` when the statement has no parameters.
    params: Option<Arc<HashMap<String, Value>>>,
}

impl ExecCtx {
    /// A context with no parameters.
    pub fn new(txn_time_unix: i64) -> ExecCtx {
        ExecCtx {
            txn_time_unix,
            params: None,
        }
    }

    /// A context carrying named parameter values (keys must already be
    /// lowercased).
    pub fn with_params(txn_time_unix: i64, params: Arc<HashMap<String, Value>>) -> ExecCtx {
        ExecCtx {
            txn_time_unix,
            params: Some(params),
        }
    }

    /// Looks up a parameter by (lowercase) name.
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.as_ref()?.get(name)
    }
}

/// Implementation of a scalar routine or operator.
pub type ScalarFnImpl = Arc<dyn Fn(&ExecCtx, &[Value]) -> DbResult<Value> + Send + Sync>;

/// Batch (vectorized) implementation of a scalar routine or operator:
/// evaluates one call over the selected lanes of a batch's argument
/// vectors and returns the result vector. Kernels own strict-NULL
/// handling per lane and must only touch selected lanes (a lane filtered
/// out upstream must not be able to raise an error).
pub type BatchFnImpl = Arc<
    dyn Fn(
            &ExecCtx,
            &[crate::exec::Vector],
            &crate::exec::Bitmap,
            usize,
        ) -> DbResult<crate::exec::Vector>
        + Send
        + Sync,
>;

/// Implementation of a cast.
pub type CastFnImpl = Arc<dyn Fn(&ExecCtx, &Value) -> DbResult<Value> + Send + Sync>;

/// Text-input support function of a UDT.
pub type UdtParseFn = Arc<dyn Fn(&str) -> DbResult<UdtValue> + Send + Sync>;

/// Text-output support function of a UDT.
pub type UdtDisplayFn = Arc<dyn Fn(&UdtValue) -> String + Send + Sync>;

/// Binary-send support function of a UDT.
pub type UdtEncodeFn = Arc<dyn Fn(&UdtValue, &mut Vec<u8>) + Send + Sync>;

/// Binary-receive support function of a UDT.
pub type UdtDecodeFn = Arc<dyn Fn(&mut &[u8]) -> DbResult<UdtValue> + Send + Sync>;

/// Interval-bounds support function of a UDT: conservative `[lo, hi]`
/// bounds of the value on some one-dimensional axis (for TIP, raw chronon
/// seconds; `NOW`-relative endpoints map to the axis extremes). Returning
/// `None` means the value covers nothing (e.g. an empty Element). Types
/// providing this function get interval indexes from `CREATE INDEX`,
/// accelerating `overlaps`-style predicates — the "new index" DataBlade
/// capability of the paper's reference [Bliujute et al., ICDE 1999].
pub type UdtIntervalKeyFn = Arc<dyn Fn(&UdtValue) -> Option<(i64, i64)> + Send + Sync>;

/// Support functions for an opaque user-defined type — the minidb
/// analogue of a DataBlade opaque-type definition.
pub struct UdtTypeDef {
    /// Registered id.
    pub id: UdtId,
    /// Canonical (display) name, e.g. `"Element"`.
    pub name: String,
    /// Text input: parse a SQL string literal into a value.
    pub parse: UdtParseFn,
    /// Text output.
    pub display: UdtDisplayFn,
    /// Binary send (storage/wire format).
    pub encode: UdtEncodeFn,
    /// Binary receive.
    pub decode: UdtDecodeFn,
    /// Whether the type has a meaningful total order (enables ORDER BY,
    /// MIN/MAX via comparison, and B-tree indexing).
    pub ordered: bool,
    /// Optional interval-bounds support function; see [`UdtIntervalKeyFn`].
    pub interval_key: Option<UdtIntervalKeyFn>,
}

impl fmt::Debug for UdtTypeDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UdtTypeDef({} = #{}, ordered: {})",
            self.name, self.id.0, self.ordered
        )
    }
}

/// One overload of a scalar routine.
#[derive(Clone)]
pub struct FunctionOverload {
    /// Parameter types.
    pub params: Vec<DataType>,
    /// Return type.
    pub ret: DataType,
    /// `true` when the result depends on the transaction time — such
    /// expressions are never constant-folded.
    pub now_dependent: bool,
    /// The implementation. Routines are *strict*: the engine returns
    /// `NULL` without calling the routine when any argument is `NULL`.
    pub f: ScalarFnImpl,
    /// The same routine over a batch: a hand-written kernel, or `f` run
    /// lane by lane ([`crate::exec::elementwise`], what [`Self::new`]
    /// builds).
    pub batch: BatchFnImpl,
}

impl FunctionOverload {
    /// An overload whose batch form is `f` run lane by lane.
    pub fn new(
        params: Vec<DataType>,
        ret: DataType,
        now_dependent: bool,
        f: ScalarFnImpl,
    ) -> FunctionOverload {
        let batch = crate::exec::elementwise(f.clone());
        FunctionOverload {
            params,
            ret,
            now_dependent,
            f,
            batch,
        }
    }
}

impl fmt::Debug for FunctionOverload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FunctionOverload({:?} -> {:?})", self.params, self.ret)
    }
}

/// A binary operator symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
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
}

impl BinaryOp {
    /// The SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Concat => "||",
        }
    }

    /// `true` for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// The outcome of this comparison for two operands ordered `ord`.
    /// Every comparison overload, scalar or kernel, answers through it.
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            BinaryOp::Eq => ord.is_eq(),
            BinaryOp::Ne => ord.is_ne(),
            BinaryOp::Lt => ord.is_lt(),
            BinaryOp::Le => ord.is_le(),
            BinaryOp::Gt => ord.is_gt(),
            BinaryOp::Ge => ord.is_ge(),
            _ => unreachable!("{} is not a comparison", self.symbol()),
        }
    }
}

/// One overload of a binary operator.
#[derive(Clone)]
pub struct OperatorOverload {
    pub lhs: DataType,
    pub rhs: DataType,
    pub ret: DataType,
    pub now_dependent: bool,
    /// Called with exactly two arguments `[lhs, rhs]`.
    pub f: ScalarFnImpl,
    /// The batch form; see [`FunctionOverload::batch`].
    pub batch: BatchFnImpl,
}

impl OperatorOverload {
    /// An overload whose batch form is `f` run lane by lane.
    pub fn new(
        lhs: DataType,
        rhs: DataType,
        ret: DataType,
        now_dependent: bool,
        f: ScalarFnImpl,
    ) -> OperatorOverload {
        let batch = crate::exec::elementwise(f.clone());
        OperatorOverload {
            lhs,
            rhs,
            ret,
            now_dependent,
            f,
            batch,
        }
    }
}

impl fmt::Debug for OperatorOverload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OperatorOverload({:?}, {:?} -> {:?})",
            self.lhs, self.rhs, self.ret
        )
    }
}

/// A registered cast between two types.
#[derive(Clone)]
pub struct CastDef {
    /// Implicit casts are inserted automatically during overload
    /// resolution and on INSERT/UPDATE; explicit casts require `::` or
    /// `CAST`.
    pub implicit: bool,
    pub now_dependent: bool,
    pub ret: DataType,
    pub f: CastFnImpl,
}

impl fmt::Debug for CastDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CastDef(implicit: {}, -> {:?})", self.implicit, self.ret)
    }
}

/// Running state of one aggregate over one group.
pub trait AggregateState: Send {
    /// Folds one (non-NULL) input value.
    fn step(&mut self, ctx: &ExecCtx, v: &Value) -> DbResult<()>;
    /// Produces the aggregate result.
    fn finish(self: Box<Self>, ctx: &ExecCtx) -> DbResult<Value>;
}

/// One overload of an aggregate function.
#[derive(Clone)]
pub struct AggregateOverload {
    pub param: DataType,
    pub ret: DataType,
    /// Creates a fresh state per group.
    pub factory: Arc<dyn Fn() -> Box<dyn AggregateState> + Send + Sync>,
}

impl fmt::Debug for AggregateOverload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AggregateOverload({:?} -> {:?})", self.param, self.ret)
    }
}

/// An installable extension package (the analogue of a DataBlade module).
pub trait Blade {
    /// Human-readable blade name (e.g. `"TIP"`).
    fn name(&self) -> &str;
    /// Version string.
    fn version(&self) -> &str;
    /// Registers everything the blade provides into the catalog.
    fn register(&self, catalog: &mut Catalog) -> DbResult<()>;
}

/// Record of an installed blade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BladeInfo {
    pub name: String,
    pub version: String,
}

/// How a candidate parameter accepts an argument type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgMatch {
    Exact,
    NullLiteral,
    Implicit,
}

/// The per-database catalog.
#[derive(Default)]
pub struct Catalog {
    types: Vec<UdtTypeDef>,
    types_by_name: HashMap<String, UdtId>,
    functions: HashMap<String, Vec<FunctionOverload>>,
    operators: HashMap<BinaryOp, Vec<OperatorOverload>>,
    casts: HashMap<(DataType, DataType), CastDef>,
    aggregates: HashMap<String, Vec<AggregateOverload>>,
    blades: Vec<BladeInfo>,
}

impl Catalog {
    /// Creates an empty catalog (no built-ins; see
    /// [`builtin::install`](crate::builtin::install)).
    pub fn new() -> Catalog {
        Catalog::default()
    }

    // ----- types ---------------------------------------------------------

    /// The id the *next* registered type will receive. Blades use this
    /// to capture the id inside the type's support-function closures
    /// before calling [`Catalog::register_type`].
    pub fn next_type_id(&self) -> UdtId {
        UdtId(self.types.len() as u32)
    }

    /// Registers an opaque type; the definition's `id` field is assigned
    /// by the catalog and returned.
    pub fn register_type(&mut self, mut def: UdtTypeDef) -> DbResult<UdtId> {
        let key = def.name.to_ascii_lowercase();
        if self.types_by_name.contains_key(&key) {
            return Err(DbError::AlreadyExists {
                kind: "type",
                name: def.name.clone(),
            });
        }
        let id = UdtId(self.types.len() as u32);
        def.id = id;
        self.types_by_name.insert(key, id);
        self.types.push(def);
        Ok(id)
    }

    /// Looks up a type definition by id.
    pub fn type_def(&self, id: UdtId) -> DbResult<&UdtTypeDef> {
        self.types
            .get(id.0 as usize)
            .ok_or_else(|| DbError::NotFound {
                kind: "type",
                name: format!("#{}", id.0),
            })
    }

    /// Resolves a type *name* (as written in DDL or a cast) to a
    /// `DataType`, covering both built-ins and registered UDTs.
    pub fn lookup_type_name(&self, name: &str) -> DbResult<DataType> {
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "int" | "integer" | "bigint" | "smallint" => Ok(DataType::Int),
            "float" | "double" | "real" | "double precision" => Ok(DataType::Float),
            "char" | "varchar" | "text" | "string" => Ok(DataType::Str),
            "boolean" | "bool" => Ok(DataType::Bool),
            _ => self
                .types_by_name
                .get(&lower)
                .map(|&id| DataType::Udt(id))
                .ok_or(DbError::NotFound {
                    kind: "type",
                    name: name.to_owned(),
                }),
        }
    }

    /// The display name of a type.
    pub fn type_name(&self, ty: DataType) -> String {
        match ty {
            DataType::Udt(id) => self
                .type_def(id)
                .map(|d| d.name.clone())
                .unwrap_or_else(|_| ty.to_string()),
            other => other.to_string(),
        }
    }

    /// Renders a value as text, using the UDT's output function when
    /// applicable.
    pub fn display_value(&self, v: &Value) -> String {
        match v {
            Value::Null => "NULL".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Str(s) => s.clone(),
            Value::Udt(u) => match self.type_def(u.type_id()) {
                Ok(def) => (def.display)(u),
                Err(_) => format!("{u:?}"),
            },
        }
    }

    /// `true` when values of the type have a meaningful total order.
    pub fn is_ordered(&self, ty: DataType) -> bool {
        match ty {
            DataType::Udt(id) => self.type_def(id).map(|d| d.ordered).unwrap_or(false),
            DataType::Null => false,
            _ => true,
        }
    }

    // ----- routines ------------------------------------------------------

    /// Registers one overload of a scalar routine.
    pub fn register_function(&mut self, name: &str, ov: FunctionOverload) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        let list = self.functions.entry(key).or_default();
        if list.iter().any(|o| o.params == ov.params) {
            return Err(DbError::AlreadyExists {
                kind: "function overload",
                name: format!("{name}({:?})", ov.params),
            });
        }
        list.push(ov);
        Ok(())
    }

    /// Registers one overload of a binary operator.
    pub fn register_operator(&mut self, op: BinaryOp, ov: OperatorOverload) -> DbResult<()> {
        let list = self.operators.entry(op).or_default();
        if list.iter().any(|o| o.lhs == ov.lhs && o.rhs == ov.rhs) {
            return Err(DbError::AlreadyExists {
                kind: "operator overload",
                name: format!("{} {} {}", ov.lhs, op.symbol(), ov.rhs),
            });
        }
        list.push(ov);
        Ok(())
    }

    /// Registers a cast.
    pub fn register_cast(&mut self, from: DataType, to: DataType, def: CastDef) -> DbResult<()> {
        if self.casts.contains_key(&(from, to)) {
            return Err(DbError::AlreadyExists {
                kind: "cast",
                name: format!("{from} -> {to}"),
            });
        }
        self.casts.insert((from, to), def);
        Ok(())
    }

    /// Registers one overload of an aggregate.
    pub fn register_aggregate(&mut self, name: &str, ov: AggregateOverload) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        let list = self.aggregates.entry(key).or_default();
        if list.iter().any(|o| o.param == ov.param) {
            return Err(DbError::AlreadyExists {
                kind: "aggregate overload",
                name: format!("{name}({})", ov.param),
            });
        }
        list.push(ov);
        Ok(())
    }

    /// Installs a blade, recording it in the catalog.
    pub fn install_blade(&mut self, blade: &dyn Blade) -> DbResult<()> {
        if self.blades.iter().any(|b| b.name == blade.name()) {
            return Err(DbError::AlreadyExists {
                kind: "blade",
                name: blade.name().to_owned(),
            });
        }
        blade.register(self)?;
        self.blades.push(BladeInfo {
            name: blade.name().to_owned(),
            version: blade.version().to_owned(),
        });
        Ok(())
    }

    /// The installed blades.
    pub fn blades(&self) -> &[BladeInfo] {
        &self.blades
    }

    // ----- resolution ----------------------------------------------------

    fn match_arg(&self, arg: DataType, param: DataType) -> Option<ArgMatch> {
        if arg == param {
            Some(ArgMatch::Exact)
        } else if arg == DataType::Null {
            Some(ArgMatch::NullLiteral)
        } else if self.casts.get(&(arg, param)).is_some_and(|c| c.implicit) {
            Some(ArgMatch::Implicit)
        } else {
            None
        }
    }

    fn pick_best<'a, T>(
        &self,
        what: String,
        args: &[DataType],
        candidates: impl Iterator<Item = (&'a T, Vec<ArgMatch>, Vec<DataType>)>,
    ) -> DbResult<&'a T> {
        // Lower score = better. Exact matches are free, NULL literals
        // cheap, implicit casts expensive.
        let mut best: Vec<(&T, Vec<DataType>)> = Vec::new();
        let mut best_score = usize::MAX;
        for (cand, matches, params) in candidates {
            let score: usize = matches
                .iter()
                .map(|m| match m {
                    ArgMatch::Exact => 0,
                    ArgMatch::NullLiteral => 1,
                    ArgMatch::Implicit => 3,
                })
                .sum();
            match score.cmp(&best_score) {
                Ordering::Less => {
                    best_score = score;
                    best = vec![(cand, params)];
                }
                Ordering::Equal => best.push((cand, params)),
                Ordering::Greater => {}
            }
        }
        if best.len() > 1 {
            // PostgreSQL-style tiebreak for NULL literals: prefer the
            // candidate whose NULL-matched parameters share a type with
            // some non-NULL argument (`1 + NULL` resolves to INT + INT).
            let known: Vec<DataType> = args
                .iter()
                .copied()
                .filter(|t| *t != DataType::Null)
                .collect();
            let affinity = |params: &[DataType]| {
                args.iter()
                    .zip(params)
                    .filter(|(a, p)| **a == DataType::Null && known.contains(p))
                    .count()
            };
            let max_aff = best.iter().map(|(_, p)| affinity(p)).max().unwrap_or(0);
            best.retain(|(_, p)| affinity(p) == max_aff);
        }
        match best.len() {
            0 => Err(DbError::NoOverload { what }),
            1 => Ok(best[0].0),
            _ => Err(DbError::AmbiguousOverload { what }),
        }
    }

    /// Resolves a routine call against the registered overloads,
    /// considering implicit casts. Returns the chosen overload.
    pub fn resolve_function(&self, name: &str, args: &[DataType]) -> DbResult<&FunctionOverload> {
        let key = name.to_ascii_lowercase();
        let what = format!(
            "{name}({})",
            args.iter()
                .map(|t| self.type_name(*t))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let Some(list) = self.functions.get(&key) else {
            return Err(DbError::NoOverload { what });
        };
        let candidates = list.iter().filter_map(|ov| {
            if ov.params.len() != args.len() {
                return None;
            }
            let ms: Option<Vec<ArgMatch>> = args
                .iter()
                .zip(&ov.params)
                .map(|(&a, &p)| self.match_arg(a, p))
                .collect();
            ms.map(|ms| (ov, ms, ov.params.clone()))
        });
        self.pick_best(what, args, candidates)
    }

    /// `true` when a routine with this (lowercased) name exists at all.
    pub fn has_function(&self, name: &str) -> bool {
        self.functions.contains_key(&name.to_ascii_lowercase())
    }

    /// Resolves a binary operator application.
    pub fn resolve_operator(
        &self,
        op: BinaryOp,
        lhs: DataType,
        rhs: DataType,
    ) -> DbResult<&OperatorOverload> {
        let what = format!(
            "{} {} {}",
            self.type_name(lhs),
            op.symbol(),
            self.type_name(rhs)
        );
        let Some(list) = self.operators.get(&op) else {
            return Err(DbError::NoOverload { what });
        };
        let candidates = list.iter().filter_map(|ov| {
            let l = self.match_arg(lhs, ov.lhs)?;
            let r = self.match_arg(rhs, ov.rhs)?;
            Some((ov, vec![l, r], vec![ov.lhs, ov.rhs]))
        });
        self.pick_best(what, &[lhs, rhs], candidates)
    }

    /// Finds a cast; `explicit_ok` selects whether explicit-only casts
    /// are acceptable (true for `::`/`CAST`, false for automatic
    /// coercion).
    pub fn find_cast(&self, from: DataType, to: DataType, explicit_ok: bool) -> Option<&CastDef> {
        self.casts
            .get(&(from, to))
            .filter(|c| explicit_ok || c.implicit)
    }

    /// Resolves an aggregate call.
    pub fn resolve_aggregate(&self, name: &str, arg: DataType) -> DbResult<&AggregateOverload> {
        let key = name.to_ascii_lowercase();
        let what = format!("{name}({})", self.type_name(arg));
        let Some(list) = self.aggregates.get(&key) else {
            return Err(DbError::NoOverload { what });
        };
        let candidates = list.iter().filter_map(|ov| {
            self.match_arg(arg, ov.param)
                .map(|m| (ov, vec![m], vec![ov.param]))
        });
        self.pick_best(what, &[arg], candidates)
    }

    /// `true` when an aggregate with this name exists (used by the binder
    /// to distinguish aggregate calls from scalar calls).
    pub fn has_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(&name.to_ascii_lowercase())
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("types", &self.types.len())
            .field("functions", &self.functions.len())
            .field(
                "operators",
                &self.operators.values().map(Vec::len).sum::<usize>(),
            )
            .field("casts", &self.casts.len())
            .field("aggregates", &self.aggregates.len())
            .field("blades", &self.blades)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_fn(ret: Value) -> ScalarFnImpl {
        Arc::new(move |_, _| Ok(ret.clone()))
    }

    fn simple_overload(params: Vec<DataType>, ret: DataType) -> FunctionOverload {
        FunctionOverload::new(params, ret, false, dummy_fn(Value::Null))
    }

    #[test]
    fn function_overload_resolution_prefers_exact() {
        let mut cat = Catalog::new();
        cat.register_function("f", simple_overload(vec![DataType::Int], DataType::Int))
            .unwrap();
        cat.register_function("f", simple_overload(vec![DataType::Float], DataType::Float))
            .unwrap();
        // Implicit Int -> Float cast.
        cat.register_cast(
            DataType::Int,
            DataType::Float,
            CastDef {
                implicit: true,
                now_dependent: false,
                ret: DataType::Float,
                f: Arc::new(|_, v| Ok(Value::Float(v.as_int().unwrap() as f64))),
            },
        )
        .unwrap();
        let ov = cat.resolve_function("f", &[DataType::Int]).unwrap();
        assert_eq!(ov.ret, DataType::Int);
        let ov = cat.resolve_function("F", &[DataType::Float]).unwrap();
        assert_eq!(ov.ret, DataType::Float);
        assert!(cat.resolve_function("f", &[DataType::Str]).is_err());
        assert!(cat.resolve_function("g", &[DataType::Int]).is_err());
    }

    #[test]
    fn implicit_cast_enables_resolution() {
        let mut cat = Catalog::new();
        cat.register_function("g", simple_overload(vec![DataType::Float], DataType::Float))
            .unwrap();
        assert!(cat.resolve_function("g", &[DataType::Int]).is_err());
        cat.register_cast(
            DataType::Int,
            DataType::Float,
            CastDef {
                implicit: true,
                now_dependent: false,
                ret: DataType::Float,
                f: Arc::new(|_, v| Ok(Value::Float(v.as_int().unwrap() as f64))),
            },
        )
        .unwrap();
        assert!(cat.resolve_function("g", &[DataType::Int]).is_ok());
    }

    #[test]
    fn explicit_cast_not_used_implicitly() {
        let mut cat = Catalog::new();
        cat.register_cast(
            DataType::Str,
            DataType::Int,
            CastDef {
                implicit: false,
                now_dependent: false,
                ret: DataType::Int,
                f: Arc::new(|_, _| Ok(Value::Int(0))),
            },
        )
        .unwrap();
        assert!(cat.find_cast(DataType::Str, DataType::Int, false).is_none());
        assert!(cat.find_cast(DataType::Str, DataType::Int, true).is_some());
    }

    #[test]
    fn null_literal_matches_any_param() {
        let mut cat = Catalog::new();
        cat.register_function("h", simple_overload(vec![DataType::Str], DataType::Int))
            .unwrap();
        assert!(cat.resolve_function("h", &[DataType::Null]).is_ok());
    }

    #[test]
    fn ambiguity_detected() {
        let mut cat = Catalog::new();
        cat.register_function("a", simple_overload(vec![DataType::Int], DataType::Int))
            .unwrap();
        cat.register_function("a", simple_overload(vec![DataType::Str], DataType::Str))
            .unwrap();
        // NULL matches both non-exactly.
        let err = cat.resolve_function("a", &[DataType::Null]).unwrap_err();
        assert!(matches!(err, DbError::AmbiguousOverload { .. }));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut cat = Catalog::new();
        cat.register_function("f", simple_overload(vec![DataType::Int], DataType::Int))
            .unwrap();
        assert!(cat
            .register_function("F", simple_overload(vec![DataType::Int], DataType::Float))
            .is_err());
    }

    #[test]
    fn builtin_type_names() {
        let cat = Catalog::new();
        assert_eq!(cat.lookup_type_name("INT").unwrap(), DataType::Int);
        assert_eq!(cat.lookup_type_name("VarChar").unwrap(), DataType::Str);
        assert_eq!(cat.lookup_type_name("double").unwrap(), DataType::Float);
        assert!(cat.lookup_type_name("Element").is_err());
    }

    #[test]
    fn operator_resolution() {
        let mut cat = Catalog::new();
        cat.register_operator(
            BinaryOp::Add,
            OperatorOverload::new(
                DataType::Int,
                DataType::Int,
                DataType::Int,
                false,
                Arc::new(|_, args| {
                    Ok(Value::Int(
                        args[0].as_int().unwrap() + args[1].as_int().unwrap(),
                    ))
                }),
            ),
        )
        .unwrap();
        let ov = cat
            .resolve_operator(BinaryOp::Add, DataType::Int, DataType::Int)
            .unwrap();
        assert_eq!(ov.ret, DataType::Int);
        // Paper §2: "a Chronon plus a Chronon returns a type error" — an
        // unregistered pairing resolves to NoOverload.
        assert!(cat
            .resolve_operator(BinaryOp::Add, DataType::Str, DataType::Str)
            .is_err());
    }

    #[test]
    fn blade_install_records_info() {
        struct TestBlade;
        impl Blade for TestBlade {
            fn name(&self) -> &str {
                "test"
            }
            fn version(&self) -> &str {
                "0.0"
            }
            fn register(&self, cat: &mut Catalog) -> DbResult<()> {
                cat.register_function("tb", simple_overload(vec![], DataType::Int))
            }
        }
        let mut cat = Catalog::new();
        cat.install_blade(&TestBlade).unwrap();
        assert_eq!(cat.blades().len(), 1);
        assert!(cat.has_function("tb"));
        assert!(cat.install_blade(&TestBlade).is_err());
    }
}
