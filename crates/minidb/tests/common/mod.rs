//! Shared test blade: a minimal interval-capable UDT so integration
//! tests can exercise the hot/cold row classifier without depending on
//! the TIP blade (which lives downstream of this crate).

#![allow(dead_code)] // each test crate uses its own subset

use minidb::catalog::{
    AggregateOverload, AggregateState, Blade, Catalog, ExecCtx, FunctionOverload, UdtTypeDef,
};
use minidb::{DataType, DbError, DbResult, UdtId, UdtObject, UdtValue, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A closed validity interval `[lo, hi]` on an abstract second axis.
/// SQL literal form: `'LO..HI'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity(pub i64, pub i64);

impl UdtObject for Validity {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn eq_udt(&self, other: &dyn UdtObject) -> bool {
        other.as_any().downcast_ref::<Validity>() == Some(self)
    }
    fn cmp_udt(&self, other: &dyn UdtObject) -> Option<Ordering> {
        other
            .as_any()
            .downcast_ref::<Validity>()
            .map(|o| (self.0, self.1).cmp(&(o.0, o.1)))
    }
    fn hash_udt(&self) -> u64 {
        (self.0 as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ (self.1 as u64)
    }
}

/// Registers [`Validity`] as the interval-capable type `Validity`.
pub struct ValidityBlade;

impl Blade for ValidityBlade {
    fn name(&self) -> &str {
        "validity-test"
    }
    fn version(&self) -> &str {
        "1.0"
    }
    fn register(&self, catalog: &mut Catalog) -> DbResult<()> {
        register_validity(catalog, "Validity", true).map(drop)
    }
}

/// Registers the same payload as the *unordered* type `Interval`, which
/// `CREATE INDEX` gives an interval index — as it does the TIP blade's
/// Element — an `overlaps(Interval, Interval)` routine that index
/// answers, and a `group_union(Interval)` aggregate.
pub struct IntervalBlade;

impl Blade for IntervalBlade {
    fn name(&self) -> &str {
        "interval-test"
    }
    fn version(&self) -> &str {
        "1.0"
    }
    fn register(&self, catalog: &mut Catalog) -> DbResult<()> {
        let ty = register_validity(catalog, "Interval", false)?;
        catalog.register_function(
            "overlaps",
            FunctionOverload::new(
                vec![ty, ty],
                DataType::Bool,
                false,
                Arc::new(|_, args| {
                    let bounds = |v: &Value| {
                        let v = v.as_udt().and_then(|u| u.downcast::<Validity>());
                        v.map(|v| (v.0, v.1)).expect("Interval argument")
                    };
                    let ((alo, ahi), (blo, bhi)) = (bounds(&args[0]), bounds(&args[1]));
                    Ok(Value::Bool(alo <= bhi && blo <= ahi))
                }),
            ),
        )?;
        let DataType::Udt(id) = ty else {
            unreachable!("register_validity returns a UDT")
        };
        catalog.register_aggregate(
            "group_union",
            AggregateOverload {
                param: ty,
                ret: ty,
                factory: Arc::new(move || Box::new(Hull(id, None))),
            },
        )
    }
}

/// `group_union` over `Interval`s: one interval has no gaps, so the union
/// is coarsened to the smallest interval covering every input.
struct Hull(UdtId, Option<Validity>);

impl AggregateState for Hull {
    fn step(&mut self, _: &ExecCtx, v: &Value) -> DbResult<()> {
        let v = *v
            .as_udt()
            .and_then(|u| u.downcast::<Validity>())
            .expect("Interval argument");
        self.1 = Some(self.1.map_or(v, |h| Validity(h.0.min(v.0), h.1.max(v.1))));
        Ok(())
    }

    fn finish(self: Box<Self>, _: &ExecCtx) -> DbResult<Value> {
        Ok(self.1.map_or(Value::Null, |h| {
            Value::Udt(UdtValue::new(self.0, Arc::new(h)))
        }))
    }
}

fn register_validity(catalog: &mut Catalog, name: &str, ordered: bool) -> DbResult<DataType> {
    let id = catalog.next_type_id();
    catalog.register_type(UdtTypeDef {
        id,
        name: name.into(),
        parse: Arc::new(move |s| {
            let (lo, hi) = s
                .split_once("..")
                .ok_or_else(|| DbError::exec("Validity literal is LO..HI"))?;
            let lo: i64 = lo
                .trim()
                .parse()
                .map_err(|e| DbError::exec(format!("{e}")))?;
            let hi: i64 = hi
                .trim()
                .parse()
                .map_err(|e| DbError::exec(format!("{e}")))?;
            Ok(UdtValue::new(id, Arc::new(Validity(lo, hi))))
        }),
        display: Arc::new(|u| {
            let v = u.downcast::<Validity>().expect("Validity payload");
            format!("{}..{}", v.0, v.1)
        }),
        encode: Arc::new(|u, out| {
            let v = u.downcast::<Validity>().expect("Validity payload");
            out.extend_from_slice(&v.0.to_le_bytes());
            out.extend_from_slice(&v.1.to_le_bytes());
        }),
        decode: Arc::new(move |buf| {
            if buf.len() < 16 {
                return Err(DbError::exec("short Validity payload"));
            }
            let lo = i64::from_le_bytes(buf[..8].try_into().unwrap());
            let hi = i64::from_le_bytes(buf[8..16].try_into().unwrap());
            *buf = &buf[16..];
            Ok(UdtValue::new(id, Arc::new(Validity(lo, hi))))
        }),
        ordered,
        interval_key: Some(Arc::new(|u| u.downcast::<Validity>().map(|v| (v.0, v.1)))),
    })?;
    Ok(DataType::Udt(id))
}
