//! The temporal predicates — `overlaps`, `contains` and Allen's
//! operators — each written once over resolved operands.
//!
//! [`predicate`] turns one definition into both forms an overload
//! carries:
//!
//! * the scalar, which resolves its two arguments at the statement's NOW
//!   (left to right) and applies the definition — what a join residual
//!   calls for every matched row;
//! * the batch kernel, which runs the same definition over the selected
//!   lanes. A constant operand (the usual query window, e.g.
//!   `valid OVERLAPS :window`) is resolved once per batch, lazily, at the
//!   first live lane that needs it, so a malformed constant errors exactly
//!   where the scalar would — never on a batch whose other operand is all
//!   NULL.
//!
//! Both are strict (a NULL operand gives NULL), and an empty period
//! satisfies no predicate. Routines without a hand-written kernel run
//! their scalar lane by lane through the engine's `elementwise` wrapper,
//! on the same executor.

use crate::routines::{terr, want_chronon, want_element, want_period};
use crate::types::{now_chronon, TipTypes};
use minidb::catalog::{BatchFnImpl, Catalog, FunctionOverload, ScalarFnImpl};
use minidb::exec::Vector;
use minidb::{DataType, DbResult, Value};
use std::sync::Arc;
use tip_core::{allen, Chronon, Element, Period, ResolvedElement, ResolvedPeriod};

/// An operand kind of a temporal predicate: how a `Value` of that type
/// resolves at the statement's NOW.
pub(crate) trait Operand {
    type Resolved;
    fn resolve(v: &Value, now: Chronon) -> DbResult<Self::Resolved>;
}

impl Operand for Period {
    /// `None` for a period that is empty at NOW.
    type Resolved = Option<ResolvedPeriod>;
    fn resolve(v: &Value, now: Chronon) -> DbResult<Self::Resolved> {
        want_period(v)?.resolve(now).map_err(terr)
    }
}

impl Operand for Element {
    type Resolved = ResolvedElement;
    fn resolve(v: &Value, now: Chronon) -> DbResult<Self::Resolved> {
        want_element(v)?.resolve(now).map_err(terr)
    }
}

impl Operand for Chronon {
    type Resolved = Chronon;
    fn resolve(v: &Value, _now: Chronon) -> DbResult<Chronon> {
        want_chronon(v)
    }
}

/// Resolves lane value `v` into `slot`, unless `slot` already holds the
/// batch's constant operand.
fn fill<'s, O: Operand>(
    slot: &'s mut Option<O::Resolved>,
    v: &Value,
    constant: bool,
    now: Chronon,
) -> DbResult<&'s O::Resolved> {
    if !constant || slot.is_none() {
        *slot = Some(O::resolve(v, now)?);
    }
    Ok(slot.as_ref().expect("filled above"))
}

/// The scalar and the batch form of the predicate `f` over an `A × B`
/// overload.
pub(crate) fn predicate<A: Operand, B: Operand>(
    f: impl Fn(&A::Resolved, &B::Resolved) -> bool + Copy + Send + Sync + 'static,
) -> (ScalarFnImpl, BatchFnImpl) {
    let scalar: ScalarFnImpl = Arc::new(move |ctx, a| {
        let now = now_chronon(ctx.txn_time_unix);
        let x = A::resolve(&a[0], now)?;
        Ok(Value::Bool(f(&x, &B::resolve(&a[1], now)?)))
    });
    let kernel: BatchFnImpl = Arc::new(move |ctx, args, sel, len| {
        let now = now_chronon(ctx.txn_time_unix);
        let constant = |v: &Vector| matches!(v, Vector::Const(_));
        let (ca, cb) = (constant(&args[0]), constant(&args[1]));
        let (mut xa, mut xb) = (None, None);
        let mut out = vec![Value::Null; len];
        for i in sel.iter() {
            let (va, vb) = (args[0].get(i), args[1].get(i));
            if va.is_null() || vb.is_null() {
                continue; // strict NULL: the lane stays NULL
            }
            let x = fill::<A>(&mut xa, va, ca, now)?;
            out[i] = Value::Bool(f(x, fill::<B>(&mut xb, vb, cb, now)?));
        }
        Ok(Vector::vals(out))
    });
    (scalar, kernel)
}

/// A `Period × Period` predicate: FALSE when either period is empty.
fn periods(
    f: fn(ResolvedPeriod, ResolvedPeriod) -> bool,
) -> impl Fn(&Option<ResolvedPeriod>, &Option<ResolvedPeriod>) -> bool + Copy {
    move |x, y| matches!((x, y), (Some(x), Some(y)) if f(*x, *y))
}

/// Registers every temporal predicate, both forms in one overload.
pub(crate) fn register(cat: &mut Catalog, t: TipTypes) -> DbResult<()> {
    let (per, ele, chr) = (
        DataType::Udt(t.period),
        DataType::Udt(t.element),
        DataType::Udt(t.chronon),
    );
    let pp =
        |f: fn(ResolvedPeriod, ResolvedPeriod) -> bool| predicate::<Period, Period>(periods(f));
    let table = [
        ("overlaps", [per, per], pp(ResolvedPeriod::overlaps)),
        ("contains", [per, per], pp(ResolvedPeriod::contains_period)),
        ("before", [per, per], pp(allen::before)),
        ("meets", [per, per], pp(allen::meets)),
        ("overlaps_strict", [per, per], pp(allen::overlaps)),
        ("starts", [per, per], pp(allen::starts)),
        ("during", [per, per], pp(allen::during)),
        ("finishes", [per, per], pp(allen::finishes)),
        ("after", [per, per], pp(|x, y| allen::before(y, x))),
        ("met_by", [per, per], pp(|x, y| allen::meets(y, x))),
        // The paper's temporal self-join predicate.
        (
            "overlaps",
            [ele, ele],
            predicate::<Element, Element>(ResolvedElement::overlaps),
        ),
        (
            "contains",
            [ele, ele],
            predicate::<Element, Element>(ResolvedElement::contains_element),
        ),
        (
            "contains",
            [ele, chr],
            predicate::<Element, Chronon>(|x, c| x.contains_chronon(*c)),
        ),
        (
            "contains",
            [per, chr],
            predicate::<Period, Chronon>(|x, c| x.is_some_and(|p| p.contains_chronon(*c))),
        ),
    ];
    for (name, params, (f, batch)) in table {
        let ov = FunctionOverload {
            params: params.to_vec(),
            ret: DataType::Bool,
            now_dependent: true,
            f,
            batch,
        };
        cat.register_function(name, ov)?;
    }
    Ok(())
}
