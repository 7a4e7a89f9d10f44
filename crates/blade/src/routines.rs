//! TIP-defined routines (paper §2): accessors like `start`, Allen's
//! operators for `Period`s, and the `Element` set algebra — `union`,
//! `intersect`, `difference`, `overlaps`, `contains`, `length`, etc.,
//! "with their expected semantics".
//!
//! Routines that resolve `NOW` against the transaction time are
//! registered as now-dependent so the optimizer never folds them.

use crate::predicates::Operand;
use crate::types::{as_chronon, as_element, as_instant, as_period, as_span, now_chronon, TipTypes};
use minidb::catalog::{Catalog, FunctionOverload};
use minidb::{DataType, DbError, DbResult, ExecCtx, Value};
use std::sync::Arc;
use tip_core::{allen, Chronon, Element, Instant, Period, ResolvedElement, ResolvedPeriod, Span};

fn func(
    cat: &mut Catalog,
    name: &str,
    params: Vec<DataType>,
    ret: DataType,
    now_dependent: bool,
    f: impl Fn(&ExecCtx, &[Value]) -> DbResult<Value> + Send + Sync + 'static,
) -> DbResult<()> {
    cat.register_function(
        name,
        FunctionOverload::new(params, ret, now_dependent, Arc::new(f)),
    )
}

pub(crate) fn terr(e: tip_core::TemporalError) -> DbError {
    DbError::exec(e.to_string())
}

pub(crate) fn want_element(v: &Value) -> DbResult<&Element> {
    as_element(v).ok_or_else(|| DbError::exec("expected Element"))
}

pub(crate) fn want_period(v: &Value) -> DbResult<Period> {
    as_period(v).ok_or_else(|| DbError::exec("expected Period"))
}

pub(crate) fn want_chronon(v: &Value) -> DbResult<Chronon> {
    as_chronon(v).ok_or_else(|| DbError::exec("expected Chronon"))
}

pub(crate) fn want_span(v: &Value) -> DbResult<Span> {
    as_span(v).ok_or_else(|| DbError::exec("expected Span"))
}

pub(crate) fn want_instant(v: &Value) -> DbResult<Instant> {
    as_instant(v).ok_or_else(|| DbError::exec("expected Instant"))
}

fn resolve_el(v: &Value, ctx: &ExecCtx) -> DbResult<ResolvedElement> {
    <Element as Operand>::resolve(v, now_chronon(ctx.txn_time_unix))
}

fn resolve_p(v: &Value, ctx: &ExecCtx) -> DbResult<Option<ResolvedPeriod>> {
    <Period as Operand>::resolve(v, now_chronon(ctx.txn_time_unix))
}

fn need_p(v: &Value, ctx: &ExecCtx) -> DbResult<ResolvedPeriod> {
    resolve_p(v, ctx)?.ok_or_else(|| DbError::exec("period is empty at the current NOW"))
}

/// Registers every TIP routine.
#[allow(clippy::too_many_lines)]
pub(crate) fn register(cat: &mut Catalog, t: TipTypes) -> DbResult<()> {
    let (chr, spn, ins, per, ele) = (
        DataType::Udt(t.chronon),
        DataType::Udt(t.span),
        DataType::Udt(t.instant),
        DataType::Udt(t.period),
        DataType::Udt(t.element),
    );
    let b = DataType::Bool;
    let i = DataType::Int;

    // ---- NOW and construction -------------------------------------------

    // now() -> Chronon: the frozen transaction time.
    func(cat, "now", vec![], chr, true, move |ctx, _| {
        Ok(t.chronon(now_chronon(ctx.txn_time_unix)))
    })?;
    // period(start, end) -> Period.
    func(cat, "period", vec![ins, ins], per, false, move |_, a| {
        Ok(t.period(Period::new(want_instant(&a[0])?, want_instant(&a[1])?)))
    })?;
    // datetime(y, m, d) -> Chronon.
    func(cat, "datetime", vec![i, i, i], chr, false, move |_, a| {
        let [y, mo, d] = [0, 1, 2].map(|k| a[k].as_int().unwrap_or(0));
        // A field no civil date can hold errors; it must not wrap.
        let (Ok(y), Ok(mo), Ok(d)) = (i32::try_from(y), u32::try_from(mo), u32::try_from(d)) else {
            return Err(DbError::exec(format!(
                "invalid civil date {y:04}-{mo:02}-{d:02}"
            )));
        };
        Chronon::from_ymd(y, mo, d)
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    // Span constructors (checked: a hostile count errors instead of
    // overflowing the second counter).
    func(cat, "days", vec![i], spn, false, move |_, a| {
        Span::DAY
            .checked_mul(a[0].as_int().unwrap_or(0))
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    func(cat, "hours", vec![i], spn, false, move |_, a| {
        Span::HOUR
            .checked_mul(a[0].as_int().unwrap_or(0))
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    func(cat, "weeks", vec![i], spn, false, move |_, a| {
        Span::WEEK
            .checked_mul(a[0].as_int().unwrap_or(0))
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    func(cat, "seconds", vec![i], spn, false, move |_, a| {
        Ok(t.span(Span::from_seconds(a[0].as_int().unwrap_or(0))))
    })?;
    // neg(Span) backs the unary minus on spans.
    func(cat, "neg", vec![spn], spn, false, move |_, a| {
        want_span(&a[0])?
            .checked_neg()
            .map(|s| t.span(s))
            .map_err(terr)
    })?;
    func(cat, "abs", vec![spn], spn, false, move |_, a| {
        let s = want_span(&a[0])?;
        let out = if s.is_negative() {
            s.checked_neg().map_err(terr)?
        } else {
            s
        };
        Ok(t.span(out))
    })?;

    // ---- accessors --------------------------------------------------------

    // start/end of an Element (paper: "start is a TIP routine that
    // returns the start time of the first period in an Element").
    func(cat, "start", vec![ele], chr, true, move |ctx, a| {
        resolve_el(&a[0], ctx)?
            .start()
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    func(cat, "finish", vec![ele], chr, true, move |ctx, a| {
        resolve_el(&a[0], ctx)?
            .end()
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    func(cat, "start", vec![per], chr, true, move |ctx, a| {
        Ok(t.chronon(need_p(&a[0], ctx)?.start()))
    })?;
    func(cat, "finish", vec![per], chr, true, move |ctx, a| {
        Ok(t.chronon(need_p(&a[0], ctx)?.end()))
    })?;
    // `end` aliases (END is not reserved in this dialect).
    func(cat, "end", vec![ele], chr, true, move |ctx, a| {
        resolve_el(&a[0], ctx)?
            .end()
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;
    func(cat, "end", vec![per], chr, true, move |ctx, a| {
        Ok(t.chronon(need_p(&a[0], ctx)?.end()))
    })?;
    // first/last/nth period of an Element.
    func(cat, "first", vec![ele], per, true, move |ctx, a| {
        resolve_el(&a[0], ctx)?
            .first()
            .map(|p| t.period(p.into()))
            .map_err(terr)
    })?;
    func(cat, "last", vec![ele], per, true, move |ctx, a| {
        resolve_el(&a[0], ctx)?
            .last()
            .map(|p| t.period(p.into()))
            .map_err(terr)
    })?;
    func(cat, "nth_period", vec![ele, i], per, true, move |ctx, a| {
        let idx = a[1].as_int().unwrap_or(0);
        let idx = usize::try_from(idx)
            .map_err(|_| DbError::exec("nth_period index must be non-negative"))?;
        resolve_el(&a[0], ctx)?
            .nth(idx)
            .map(|p| t.period(p.into()))
            .map_err(terr)
    })?;
    func(cat, "period_count", vec![ele], i, true, move |ctx, a| {
        Ok(Value::Int(resolve_el(&a[0], ctx)?.period_count() as i64))
    })?;
    func(cat, "is_empty", vec![ele], b, true, move |ctx, a| {
        Ok(Value::Bool(resolve_el(&a[0], ctx)?.is_empty()))
    })?;

    // length: total covered time of an Element; duration of a Period.
    func(cat, "length", vec![ele], spn, true, move |ctx, a| {
        Ok(t.span(resolve_el(&a[0], ctx)?.length()))
    })?;
    func(cat, "length", vec![per], spn, true, move |ctx, a| {
        Ok(t.span(resolve_p(&a[0], ctx)?.map_or(Span::ZERO, |p| p.duration())))
    })?;

    // Civil accessors on Chronon.
    func(cat, "year", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.year())))
    })?;
    func(cat, "month", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.month())))
    })?;
    func(cat, "day", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.day())))
    })?;
    func(cat, "hour", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.hour())))
    })?;
    func(cat, "minute", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.minute())))
    })?;
    func(cat, "second", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.second())))
    })?;
    func(cat, "weekday", vec![chr], i, false, move |_, a| {
        Ok(Value::Int(i64::from(want_chronon(&a[0])?.weekday())))
    })?;
    // Span accessors.
    func(cat, "total_seconds", vec![spn], i, false, move |_, a| {
        Ok(Value::Int(want_span(&a[0])?.seconds()))
    })?;
    func(cat, "whole_days", vec![spn], i, false, move |_, a| {
        Ok(Value::Int(want_span(&a[0])?.whole_days()))
    })?;
    // Instant helpers.
    func(cat, "is_now_relative", vec![ins], b, false, move |_, a| {
        Ok(Value::Bool(want_instant(&a[0])?.is_now_relative()))
    })?;
    func(cat, "is_now_relative", vec![ele], b, false, move |_, a| {
        Ok(Value::Bool(want_element(&a[0])?.is_now_relative()))
    })?;
    func(cat, "to_chronon", vec![ins], chr, true, move |ctx, a| {
        want_instant(&a[0])?
            .resolve(now_chronon(ctx.txn_time_unix))
            .map(|c| t.chronon(c))
            .map_err(terr)
    })?;

    // ---- Element set algebra ---------------------------------------------

    macro_rules! binary_element {
        ($name:literal, $method:ident) => {
            func(cat, $name, vec![ele, ele], ele, true, move |ctx, a| {
                let x = resolve_el(&a[0], ctx)?;
                let y = resolve_el(&a[1], ctx)?;
                Ok(t.element(x.$method(&y).into()))
            })?;
        };
    }
    binary_element!("union", union);
    binary_element!("intersect", intersect);
    binary_element!("difference", difference);
    func(cat, "complement", vec![ele], ele, true, move |ctx, a| {
        Ok(t.element(resolve_el(&a[0], ctx)?.complement().into()))
    })?;
    // gaps: uncovered time between an element's periods (e.g. "when was
    // the patient *off* medication, while under treatment overall?").
    func(cat, "gaps", vec![ele], ele, true, move |ctx, a| {
        Ok(t.element(resolve_el(&a[0], ctx)?.gaps().into()))
    })?;

    // window restriction and morphology.
    func(cat, "restrict", vec![ele, per], ele, true, move |ctx, a| {
        let e = resolve_el(&a[0], ctx)?;
        Ok(t.element(match resolve_p(&a[1], ctx)? {
            Some(w) => e.restrict(w).into(),
            None => Element::empty(),
        }))
    })?;
    func(cat, "shift", vec![ele, spn], ele, false, move |_, a| {
        want_element(&a[0])?
            .shift(want_span(&a[1])?)
            .map(|e| t.element(e))
            .map_err(terr)
    })?;
    func(cat, "shift", vec![per, spn], per, false, move |_, a| {
        want_period(&a[0])?
            .shift(want_span(&a[1])?)
            .map(|p| t.period(p))
            .map_err(terr)
    })?;
    func(cat, "extend", vec![ele, spn], ele, true, move |ctx, a| {
        Ok(t.element(resolve_el(&a[0], ctx)?.extend(want_span(&a[1])?).into()))
    })?;

    // ---- Allen's operators on Periods --------------------------------------

    // allen(p, q) -> the relation name, e.g. 'overlapped_by'. The
    // predicates (`before`, `meets`, ...) are in `crate::predicates`.
    func(
        cat,
        "allen",
        vec![per, per],
        DataType::Str,
        true,
        move |ctx, a| match (resolve_p(&a[0], ctx)?, resolve_p(&a[1], ctx)?) {
            (Some(x), Some(y)) => Ok(Value::Str(allen::relation(x, y).name().to_owned())),
            _ => Err(DbError::exec("allen() is undefined for empty periods")),
        },
    )?;

    // ---- granularities (TSQL2-style, paper §5 future work) -----------------

    fn want_granularity(v: &Value) -> DbResult<tip_core::Granularity> {
        let name = v
            .as_str()
            .ok_or_else(|| DbError::exec("expected a granularity name"))?;
        tip_core::Granularity::parse(name)
            .ok_or_else(|| DbError::exec(format!("unknown granularity {name:?}")))
    }

    // trunc('1999-09-23 14:35:27', 'month') -> 1999-09-01.
    func(
        cat,
        "trunc",
        vec![chr, DataType::Str],
        chr,
        false,
        move |_, a| {
            let g = want_granularity(&a[1])?;
            Ok(t.chronon(tip_core::granularity::truncate(want_chronon(&a[0])?, g)))
        },
    )?;
    func(
        cat,
        "next_granule",
        vec![chr, DataType::Str],
        chr,
        false,
        move |_, a| {
            let g = want_granularity(&a[1])?;
            Ok(t.chronon(tip_core::granularity::next_granule(want_chronon(&a[0])?, g)))
        },
    )?;
    // granule('1999-09-23', 'month') -> [1999-09-01, 1999-09-30 23:59:59].
    func(
        cat,
        "granule",
        vec![chr, DataType::Str],
        per,
        false,
        move |_, a| {
            let g = want_granularity(&a[1])?;
            Ok(t.period(tip_core::granularity::granule_of(want_chronon(&a[0])?, g).into()))
        },
    )?;
    // expand_to(p, 'month'): round a period outward to granule boundaries.
    func(
        cat,
        "expand_to",
        vec![per, DataType::Str],
        per,
        true,
        move |ctx, a| {
            let g = want_granularity(&a[1])?;
            let p = need_p(&a[0], ctx)?;
            Ok(t.period(tip_core::granularity::expand_to(p, g).into()))
        },
    )?;
    // granule_count(p, 'month'): how many distinct months a period touches.
    func(
        cat,
        "granule_count",
        vec![per, DataType::Str],
        i,
        true,
        move |ctx, a| {
            let g = want_granularity(&a[1])?;
            let p = need_p(&a[0], ctx)?;
            tip_core::granularity::granule_count(p, g)
                .map(|n| Value::Int(n as i64))
                .map_err(terr)
        },
    )?;

    // ---- MIN/MAX/COUNT support for TIP types -------------------------------

    minidb::builtin::register_minmax_for(cat, chr)?;
    minidb::builtin::register_minmax_for(cat, spn)?;
    for ty in [chr, spn, ins, per, ele] {
        minidb::builtin::register_count_for(cat, ty)?;
    }

    Ok(())
}
