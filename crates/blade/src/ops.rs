//! Arithmetic and comparison operator overloads (paper §2).
//!
//! "TIP overloads built-in arithmetic operators (+, -, *, /) and
//! comparison operators (=, <, >, etc.) to operate on TIP datatypes
//! whenever appropriate. For example, a Chronon minus a Chronon returns a
//! Span, but a Chronon plus a Chronon returns a type error." The type
//! error falls out naturally: no `Chronon + Chronon` overload is
//! registered, so the binder reports `NoOverload`.
//!
//! Comparisons involving `Instant` are registered as **now-dependent**:
//! "the result of comparing a Chronon to a NOW-relative Instant may
//! change as time advances."

use crate::predicates::predicate;
use crate::routines::{terr, want_chronon, want_instant, want_span};
use crate::types::{now_chronon, TipTypes};
use minidb::catalog::{BinaryOp, Catalog, OperatorOverload};
use minidb::{DataType, DbError, DbResult, ExecCtx, Value};
use std::sync::Arc;
use tip_core::{Element, Instant, Period};

fn op(
    cat: &mut Catalog,
    o: BinaryOp,
    lhs: DataType,
    rhs: DataType,
    ret: DataType,
    now_dependent: bool,
    f: impl Fn(&ExecCtx, &[Value]) -> DbResult<Value> + Send + Sync + 'static,
) -> DbResult<()> {
    let ov = OperatorOverload::new(lhs, rhs, ret, now_dependent, Arc::new(f));
    cat.register_operator(o, ov)
}

const COMPARISONS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

/// Registers every TIP operator overload.
pub(crate) fn register(cat: &mut Catalog, t: TipTypes) -> DbResult<()> {
    let (chr, spn, ins) = (
        DataType::Udt(t.chronon),
        DataType::Udt(t.span),
        DataType::Udt(t.instant),
    );

    // ---- arithmetic -----------------------------------------------------

    // Chronon - Chronon = Span (the paper's flagship example).
    op(cat, BinaryOp::Sub, chr, chr, spn, false, move |_, a| {
        Ok(t.span(want_chronon(&a[0])? - want_chronon(&a[1])?))
    })?;
    // Chronon ± Span = Chronon.
    op(cat, BinaryOp::Add, chr, spn, chr, false, move |_, a| {
        want_chronon(&a[0])?
            .checked_add(want_span(&a[1])?)
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    op(cat, BinaryOp::Sub, chr, spn, chr, false, move |_, a| {
        want_chronon(&a[0])?
            .checked_sub(want_span(&a[1])?)
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    // Span + Chronon = Chronon (commutative convenience).
    op(cat, BinaryOp::Add, spn, chr, chr, false, move |_, a| {
        want_chronon(&a[1])?
            .checked_add(want_span(&a[0])?)
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    // Span ± Span = Span.
    op(cat, BinaryOp::Add, spn, spn, spn, false, move |_, a| {
        want_span(&a[0])?
            .checked_add(want_span(&a[1])?)
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    op(cat, BinaryOp::Sub, spn, spn, spn, false, move |_, a| {
        want_span(&a[0])?
            .checked_sub(want_span(&a[1])?)
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    // Span * INT and INT * Span (the paper's `'7'::Span * :w`).
    op(
        cat,
        BinaryOp::Mul,
        spn,
        DataType::Int,
        spn,
        false,
        move |_, a| {
            let k = a[1].as_int().ok_or_else(|| DbError::exec("expected INT"))?;
            want_span(&a[0])?
                .checked_mul(k)
                .map(|s| t.span(s))
                .map_err(terr)
        },
    )?;
    op(
        cat,
        BinaryOp::Mul,
        DataType::Int,
        spn,
        spn,
        false,
        move |_, a| {
            let k = a[0].as_int().ok_or_else(|| DbError::exec("expected INT"))?;
            want_span(&a[1])?
                .checked_mul(k)
                .map(|s| t.span(s))
                .map_err(terr)
        },
    )?;
    // Span / INT = Span, Span / Span = FLOAT ratio.
    op(
        cat,
        BinaryOp::Div,
        spn,
        DataType::Int,
        spn,
        false,
        move |_, a| {
            let k = a[1].as_int().ok_or_else(|| DbError::exec("expected INT"))?;
            want_span(&a[0])?
                .checked_div(k)
                .map(|s| t.span(s))
                .map_err(terr)
        },
    )?;
    op(
        cat,
        BinaryOp::Div,
        spn,
        spn,
        DataType::Float,
        false,
        move |_, a| {
            want_span(&a[0])?
                .ratio(want_span(&a[1])?)
                .map(Value::Float)
                .map_err(terr)
        },
    )?;
    // Instant ± Span = Instant (shifts, preserving NOW-relativity).
    op(cat, BinaryOp::Add, ins, spn, ins, false, move |_, a| {
        want_instant(&a[0])?
            .shift(want_span(&a[1])?)
            .map(|i| t.instant(i))
            .map_err(terr)
    })?;
    op(cat, BinaryOp::Sub, ins, spn, ins, false, move |_, a| {
        let by = want_span(&a[1])?.checked_neg().map_err(terr)?;
        want_instant(&a[0])?
            .shift(by)
            .map(|i| t.instant(i))
            .map_err(terr)
    })?;
    // Instant - Instant = Span, evaluated at transaction time.
    op(cat, BinaryOp::Sub, ins, ins, spn, true, move |ctx, a| {
        let now = now_chronon(ctx.txn_time_unix);
        let x = want_instant(&a[0])?.resolve(now).map_err(terr)?;
        let y = want_instant(&a[1])?.resolve(now).map_err(terr)?;
        Ok(t.span(x - y))
    })?;

    // ---- comparisons ----------------------------------------------------

    for o in COMPARISONS {
        // Chronon vs Chronon: fixed, not now-dependent.
        op(cat, o, chr, chr, DataType::Bool, false, move |_, a| {
            Ok(Value::Bool(
                o.holds(want_chronon(&a[0])?.cmp(&want_chronon(&a[1])?)),
            ))
        })?;
        // Span vs Span.
        op(cat, o, spn, spn, DataType::Bool, false, move |_, a| {
            Ok(Value::Bool(
                o.holds(want_span(&a[0])?.cmp(&want_span(&a[1])?)),
            ))
        })?;
        // Instant vs Instant: evaluated under the transaction time.
        op(cat, o, ins, ins, DataType::Bool, true, move |ctx, a| {
            let now = now_chronon(ctx.txn_time_unix);
            let ord = want_instant(&a[0])?.cmp_at(want_instant(&a[1])?, now);
            Ok(Value::Bool(o.holds(ord)))
        })?;
        // Chronon vs Instant and Instant vs Chronon (now-dependent).
        op(cat, o, chr, ins, DataType::Bool, true, move |ctx, a| {
            let now = now_chronon(ctx.txn_time_unix);
            let l = Instant::Fixed(want_chronon(&a[0])?);
            Ok(Value::Bool(o.holds(l.cmp_at(want_instant(&a[1])?, now))))
        })?;
        op(cat, o, ins, chr, DataType::Bool, true, move |ctx, a| {
            let now = now_chronon(ctx.txn_time_unix);
            let r = Instant::Fixed(want_chronon(&a[1])?);
            Ok(Value::Bool(o.holds(want_instant(&a[0])?.cmp_at(r, now))))
        })?;
    }

    // Element and Period equality (set semantics at transaction time).
    let (ele, per) = (DataType::Udt(t.element), DataType::Udt(t.period));
    for o in [BinaryOp::Eq, BinaryOp::Ne] {
        let eq = o == BinaryOp::Eq;
        let forms = [
            (
                ele,
                predicate::<Element, Element>(move |x, y| (x == y) == eq),
            ),
            (per, predicate::<Period, Period>(move |x, y| (x == y) == eq)),
        ];
        for (ty, (f, batch)) in forms {
            let ov = OperatorOverload {
                lhs: ty,
                rhs: ty,
                ret: DataType::Bool,
                now_dependent: true,
                f,
                batch,
            };
            cat.register_operator(o, ov)?;
        }
    }

    Ok(())
}
