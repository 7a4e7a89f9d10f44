//! Built-in operators, functions, casts and aggregates registered into
//! every new database. Everything here goes through the same registries a
//! blade uses — the built-ins enjoy no special treatment in the binder.

use crate::catalog::{
    AggregateOverload, AggregateState, BinaryOp, CastDef, Catalog, ExecCtx, FunctionOverload,
    OperatorOverload,
};
use crate::error::{DbError, DbResult};
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

type V = Value;

fn op(
    cat: &mut Catalog,
    o: BinaryOp,
    lhs: DataType,
    rhs: DataType,
    ret: DataType,
    f: impl Fn(&ExecCtx, &[Value]) -> DbResult<Value> + Send + Sync + 'static,
) {
    cat.register_operator(o, OperatorOverload::new(lhs, rhs, ret, false, Arc::new(f)))
        .expect("builtin operator registration");
}

fn func(
    cat: &mut Catalog,
    name: &str,
    params: Vec<DataType>,
    ret: DataType,
    f: impl Fn(&ExecCtx, &[Value]) -> DbResult<Value> + Send + Sync + 'static,
) {
    cat.register_function(name, FunctionOverload::new(params, ret, false, Arc::new(f)))
        .expect("builtin function registration");
}

fn num2(args: &[Value]) -> DbResult<(f64, f64)> {
    match (args[0].as_float(), args[1].as_float()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(DbError::exec("expected numeric arguments")),
    }
}

fn int2(args: &[Value]) -> DbResult<(i64, i64)> {
    match (args[0].as_int(), args[1].as_int()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(DbError::exec("expected integer arguments")),
    }
}

fn register_arithmetic(cat: &mut Catalog) {
    use BinaryOp::*;
    // Pure integer arithmetic stays integral.
    op(
        cat,
        Add,
        DataType::Int,
        DataType::Int,
        DataType::Int,
        |_, a| {
            let (x, y) = int2(a)?;
            x.checked_add(y)
                .map(V::Int)
                .ok_or_else(|| DbError::exec("integer overflow in +"))
        },
    );
    op(
        cat,
        Sub,
        DataType::Int,
        DataType::Int,
        DataType::Int,
        |_, a| {
            let (x, y) = int2(a)?;
            x.checked_sub(y)
                .map(V::Int)
                .ok_or_else(|| DbError::exec("integer overflow in -"))
        },
    );
    op(
        cat,
        Mul,
        DataType::Int,
        DataType::Int,
        DataType::Int,
        |_, a| {
            let (x, y) = int2(a)?;
            x.checked_mul(y)
                .map(V::Int)
                .ok_or_else(|| DbError::exec("integer overflow in *"))
        },
    );
    op(
        cat,
        Div,
        DataType::Int,
        DataType::Int,
        DataType::Int,
        |_, a| {
            let (x, y) = int2(a)?;
            if y == 0 {
                Err(DbError::exec("division by zero"))
            } else {
                // checked: i64::MIN / -1 overflows.
                x.checked_div(y)
                    .map(V::Int)
                    .ok_or_else(|| DbError::exec("integer overflow in /"))
            }
        },
    );
    op(
        cat,
        Mod,
        DataType::Int,
        DataType::Int,
        DataType::Int,
        |_, a| {
            let (x, y) = int2(a)?;
            if y == 0 {
                Err(DbError::exec("division by zero"))
            } else {
                x.checked_rem(y)
                    .map(V::Int)
                    .ok_or_else(|| DbError::exec("integer overflow in %"))
            }
        },
    );
    // Mixed/float arithmetic in f64.
    for (l, r) in [
        (DataType::Float, DataType::Float),
        (DataType::Int, DataType::Float),
        (DataType::Float, DataType::Int),
    ] {
        op(cat, Add, l, r, DataType::Float, |_, a| {
            num2(a).map(|(x, y)| V::Float(x + y))
        });
        op(cat, Sub, l, r, DataType::Float, |_, a| {
            num2(a).map(|(x, y)| V::Float(x - y))
        });
        op(cat, Mul, l, r, DataType::Float, |_, a| {
            num2(a).map(|(x, y)| V::Float(x * y))
        });
        op(cat, Div, l, r, DataType::Float, |_, a| {
            let (x, y) = num2(a)?;
            if y == 0.0 {
                Err(DbError::exec("division by zero"))
            } else {
                Ok(V::Float(x / y))
            }
        });
    }
    op(
        cat,
        Concat,
        DataType::Str,
        DataType::Str,
        DataType::Str,
        |_, a| {
            Ok(V::Str(format!(
                "{}{}",
                a[0].as_str().unwrap_or(""),
                a[1].as_str().unwrap_or("")
            )))
        },
    );
}

fn register_comparisons(cat: &mut Catalog) {
    let comparisons = [
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];
    let pairings = [
        (DataType::Int, DataType::Int),
        (DataType::Float, DataType::Float),
        (DataType::Int, DataType::Float),
        (DataType::Float, DataType::Int),
        (DataType::Str, DataType::Str),
        (DataType::Bool, DataType::Bool),
    ];
    for o in comparisons {
        for (l, r) in pairings {
            let ov = OperatorOverload {
                lhs: l,
                rhs: r,
                ret: DataType::Bool,
                now_dependent: false,
                f: Arc::new(move |_, a| Ok(V::Bool(o.holds(a[0].cmp_ordering(&a[1]))))),
                batch: crate::exec::vector_ops::cmp_kernel(o),
            };
            cat.register_operator(o, ov)
                .expect("builtin operator registration");
        }
    }
}

fn register_functions(cat: &mut Catalog) {
    func(cat, "abs", vec![DataType::Int], DataType::Int, |_, a| {
        a[0].as_int()
            .unwrap_or(0)
            .checked_abs()
            .map(V::Int)
            .ok_or_else(|| DbError::exec("integer overflow in abs"))
    });
    func(
        cat,
        "abs",
        vec![DataType::Float],
        DataType::Float,
        |_, a| Ok(V::Float(a[0].as_float().unwrap_or(0.0).abs())),
    );
    func(cat, "upper", vec![DataType::Str], DataType::Str, |_, a| {
        Ok(V::Str(a[0].as_str().unwrap_or("").to_uppercase()))
    });
    func(cat, "lower", vec![DataType::Str], DataType::Str, |_, a| {
        Ok(V::Str(a[0].as_str().unwrap_or("").to_lowercase()))
    });
    func(
        cat,
        "char_length",
        vec![DataType::Str],
        DataType::Int,
        |_, a| Ok(V::Int(a[0].as_str().unwrap_or("").chars().count() as i64)),
    );
    // Two-argument GREATEST/LEAST (needed by layered temporal SQL, which
    // computes period intersections as [greatest(s1,s2), least(e1,e2)]).
    for ty in [DataType::Int, DataType::Float, DataType::Str] {
        func(cat, "greatest", vec![ty, ty], ty, |_, a| {
            Ok(if a[0].cmp_ordering(&a[1]).is_ge() {
                a[0].clone()
            } else {
                a[1].clone()
            })
        });
        func(cat, "least", vec![ty, ty], ty, |_, a| {
            Ok(if a[0].cmp_ordering(&a[1]).is_le() {
                a[0].clone()
            } else {
                a[1].clone()
            })
        });
    }
}

fn register_numeric_casts(cat: &mut Catalog) {
    cat.register_cast(
        DataType::Int,
        DataType::Float,
        CastDef {
            implicit: true,
            now_dependent: false,
            ret: DataType::Float,
            f: Arc::new(|_, v| Ok(V::Float(v.as_int().unwrap_or(0) as f64))),
        },
    )
    .expect("builtin cast");
    cat.register_cast(
        DataType::Float,
        DataType::Int,
        CastDef {
            implicit: false,
            now_dependent: false,
            ret: DataType::Int,
            f: Arc::new(|_, v| Ok(V::Int(v.as_float().unwrap_or(0.0) as i64))),
        },
    )
    .expect("builtin cast");
    cat.register_cast(
        DataType::Int,
        DataType::Str,
        CastDef {
            implicit: false,
            now_dependent: false,
            ret: DataType::Str,
            f: Arc::new(|_, v| Ok(V::Str(v.as_int().unwrap_or(0).to_string()))),
        },
    )
    .expect("builtin cast");
    cat.register_cast(
        DataType::Str,
        DataType::Int,
        CastDef {
            implicit: false,
            now_dependent: false,
            ret: DataType::Int,
            f: Arc::new(|_, v| {
                v.as_str()
                    .and_then(|s| s.trim().parse::<i64>().ok())
                    .map(V::Int)
                    .ok_or_else(|| DbError::exec("cannot cast string to INT"))
            }),
        },
    )
    .expect("builtin cast");
}

// ----- aggregates ---------------------------------------------------------

struct SumInt(i64);
impl AggregateState for SumInt {
    fn step(&mut self, _: &ExecCtx, v: &Value) -> DbResult<()> {
        self.0 = self
            .0
            .checked_add(
                v.as_int()
                    .ok_or_else(|| DbError::exec("SUM(INT): non-integer"))?,
            )
            .ok_or_else(|| DbError::exec("SUM overflow"))?;
        Ok(())
    }
    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(Value::Int(self.0))
    }
}

struct SumFloat(f64);
impl AggregateState for SumFloat {
    fn step(&mut self, _: &ExecCtx, v: &Value) -> DbResult<()> {
        self.0 += v
            .as_float()
            .ok_or_else(|| DbError::exec("SUM(FLOAT): non-numeric"))?;
        Ok(())
    }
    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(Value::Float(self.0))
    }
}

struct Avg {
    sum: f64,
    n: u64,
}
impl AggregateState for Avg {
    fn step(&mut self, _: &ExecCtx, v: &Value) -> DbResult<()> {
        self.sum += v
            .as_float()
            .ok_or_else(|| DbError::exec("AVG: non-numeric"))?;
        self.n += 1;
        Ok(())
    }
    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum / self.n as f64)
        })
    }
}

struct MinMax {
    best: Option<Value>,
    want_max: bool,
}
impl AggregateState for MinMax {
    fn step(&mut self, _: &ExecCtx, v: &Value) -> DbResult<()> {
        let replace = match &self.best {
            None => true,
            Some(b) => {
                let ord = v.cmp_ordering(b);
                if self.want_max {
                    ord == Ordering::Greater
                } else {
                    ord == Ordering::Less
                }
            }
        };
        if replace {
            self.best = Some(v.clone());
        }
        Ok(())
    }
    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(self.best.unwrap_or(Value::Null))
    }
}

/// COUNT of non-NULL inputs (the executor filters NULLs before `step`,
/// per SQL semantics; `COUNT(*)` is synthesized by the binder as a count
/// over a constant).
struct CountAgg(i64);
impl AggregateState for CountAgg {
    fn step(&mut self, _: &ExecCtx, _: &Value) -> DbResult<()> {
        self.0 += 1;
        Ok(())
    }
    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(Value::Int(self.0))
    }
}

fn agg(
    cat: &mut Catalog,
    name: &str,
    param: DataType,
    ret: DataType,
    factory: impl Fn() -> Box<dyn AggregateState> + Send + Sync + 'static,
) {
    cat.register_aggregate(
        name,
        AggregateOverload {
            param,
            ret,
            factory: Arc::new(factory),
        },
    )
    .expect("builtin aggregate registration");
}

fn register_aggregates(cat: &mut Catalog) {
    agg(cat, "sum", DataType::Int, DataType::Int, || {
        Box::new(SumInt(0))
    });
    agg(cat, "sum", DataType::Float, DataType::Float, || {
        Box::new(SumFloat(0.0))
    });
    agg(cat, "avg", DataType::Int, DataType::Float, || {
        Box::new(Avg { sum: 0.0, n: 0 })
    });
    agg(cat, "avg", DataType::Float, DataType::Float, || {
        Box::new(Avg { sum: 0.0, n: 0 })
    });
    for ty in [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
    ] {
        agg(cat, "min", ty, ty, || {
            Box::new(MinMax {
                best: None,
                want_max: false,
            })
        });
        agg(cat, "max", ty, ty, || {
            Box::new(MinMax {
                best: None,
                want_max: true,
            })
        });
        agg(cat, "count", ty, DataType::Int, || Box::new(CountAgg(0)));
    }
}

/// Installs every built-in into a fresh catalog.
pub fn install(cat: &mut Catalog) {
    register_arithmetic(cat);
    register_comparisons(cat);
    register_functions(cat);
    register_numeric_casts(cat);
    register_aggregates(cat);
}

/// Registers a `count` overload for a UDT so `COUNT(udt_column)` works.
/// Blades call this for each type they add.
pub fn register_count_for(cat: &mut Catalog, ty: DataType) -> DbResult<()> {
    cat.register_aggregate(
        "count",
        AggregateOverload {
            param: ty,
            ret: DataType::Int,
            factory: Arc::new(|| Box::new(CountAgg(0))),
        },
    )
}

/// Registers `min`/`max` overloads for an *ordered* UDT.
pub fn register_minmax_for(cat: &mut Catalog, ty: DataType) -> DbResult<()> {
    cat.register_aggregate(
        "min",
        AggregateOverload {
            param: ty,
            ret: ty,
            factory: Arc::new(|| {
                Box::new(MinMax {
                    best: None,
                    want_max: false,
                })
            }),
        },
    )?;
    cat.register_aggregate(
        "max",
        AggregateOverload {
            param: ty,
            ret: ty,
            factory: Arc::new(|| {
                Box::new(MinMax {
                    best: None,
                    want_max: true,
                })
            }),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecCtx {
        ExecCtx::new(0)
    }

    fn fresh() -> Catalog {
        let mut c = Catalog::new();
        install(&mut c);
        c
    }

    #[test]
    fn integer_arithmetic() {
        let cat = fresh();
        let ov = cat
            .resolve_operator(BinaryOp::Add, DataType::Int, DataType::Int)
            .unwrap();
        let v = (ov.f)(&ctx(), &[Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(v.as_int(), Some(5));
        assert_eq!(ov.ret, DataType::Int);
    }

    #[test]
    fn mixed_arithmetic_widens() {
        let cat = fresh();
        let ov = cat
            .resolve_operator(BinaryOp::Mul, DataType::Int, DataType::Float)
            .unwrap();
        assert_eq!(ov.ret, DataType::Float);
        let v = (ov.f)(&ctx(), &[Value::Int(2), Value::Float(1.5)]).unwrap();
        assert_eq!(v.as_float(), Some(3.0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let cat = fresh();
        let ov = cat
            .resolve_operator(BinaryOp::Div, DataType::Int, DataType::Int)
            .unwrap();
        assert!((ov.f)(&ctx(), &[Value::Int(1), Value::Int(0)]).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let cat = fresh();
        let ov = cat
            .resolve_operator(BinaryOp::Add, DataType::Int, DataType::Int)
            .unwrap();
        assert!((ov.f)(&ctx(), &[Value::Int(i64::MAX), Value::Int(1)]).is_err());
    }

    #[test]
    fn string_comparison_and_concat() {
        let cat = fresh();
        let ov = cat
            .resolve_operator(BinaryOp::Lt, DataType::Str, DataType::Str)
            .unwrap();
        let v = (ov.f)(&ctx(), &[Value::Str("a".into()), Value::Str("b".into())]).unwrap();
        assert_eq!(v.as_bool(), Some(true));
        let ov = cat
            .resolve_operator(BinaryOp::Concat, DataType::Str, DataType::Str)
            .unwrap();
        let v = (ov.f)(
            &ctx(),
            &[Value::Str("Dr.".into()), Value::Str("Pepper".into())],
        )
        .unwrap();
        assert_eq!(v.as_str(), Some("Dr.Pepper"));
    }

    #[test]
    fn scalar_functions() {
        let cat = fresh();
        let ov = cat.resolve_function("upper", &[DataType::Str]).unwrap();
        let v = (ov.f)(&ctx(), &[Value::Str("tip".into())]).unwrap();
        assert_eq!(v.as_str(), Some("TIP"));
        let ov = cat.resolve_function("abs", &[DataType::Int]).unwrap();
        assert_eq!((ov.f)(&ctx(), &[Value::Int(-4)]).unwrap().as_int(), Some(4));
    }

    #[test]
    fn sum_and_avg() {
        let cat = fresh();
        let ov = cat.resolve_aggregate("sum", DataType::Int).unwrap();
        let mut st = (ov.factory)();
        for i in 1..=4 {
            st.step(&ctx(), &Value::Int(i)).unwrap();
        }
        assert_eq!(st.finish(&ctx()).unwrap().as_int(), Some(10));

        let ov = cat.resolve_aggregate("avg", DataType::Int).unwrap();
        let mut st = (ov.factory)();
        st.step(&ctx(), &Value::Int(1)).unwrap();
        st.step(&ctx(), &Value::Int(2)).unwrap();
        assert_eq!(st.finish(&ctx()).unwrap().as_float(), Some(1.5));
    }

    #[test]
    fn min_max_count() {
        let cat = fresh();
        let ov = cat.resolve_aggregate("max", DataType::Str).unwrap();
        let mut st = (ov.factory)();
        for s in ["pear", "apple", "plum"] {
            st.step(&ctx(), &Value::Str(s.into())).unwrap();
        }
        assert_eq!(st.finish(&ctx()).unwrap().as_str(), Some("plum"));

        let ov = cat.resolve_aggregate("count", DataType::Int).unwrap();
        let mut st = (ov.factory)();
        st.step(&ctx(), &Value::Int(0)).unwrap();
        st.step(&ctx(), &Value::Int(0)).unwrap();
        assert_eq!(st.finish(&ctx()).unwrap().as_int(), Some(2));
    }

    #[test]
    fn empty_aggregates() {
        let cat = fresh();
        let ov = cat.resolve_aggregate("min", DataType::Int).unwrap();
        assert!(((ov.factory)()).finish(&ctx()).unwrap().is_null());
        let ov = cat.resolve_aggregate("avg", DataType::Int).unwrap();
        assert!(((ov.factory)()).finish(&ctx()).unwrap().is_null());
        let ov = cat.resolve_aggregate("sum", DataType::Int).unwrap();
        assert_eq!(((ov.factory)()).finish(&ctx()).unwrap().as_int(), Some(0));
    }

    #[test]
    fn int_float_implicit_cast_registered() {
        let cat = fresh();
        assert!(cat
            .find_cast(DataType::Int, DataType::Float, false)
            .is_some());
        assert!(cat
            .find_cast(DataType::Float, DataType::Int, false)
            .is_none());
        assert!(cat
            .find_cast(DataType::Float, DataType::Int, true)
            .is_some());
    }
}
