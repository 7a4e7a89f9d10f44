//! Runtime values, including opaque UDT payloads.

use crate::types::{DataType, UdtId};
use std::any::Any;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Behaviour a user-defined type's payload must provide so the engine can
/// compare, hash, and group it without knowing its structure. This is the
/// minidb analogue of the support functions an Informix DataBlade supplies
/// for an opaque type.
pub trait UdtObject: Any + fmt::Debug + Send + Sync {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Equality against another payload of the *same* UDT.
    fn eq_udt(&self, other: &dyn UdtObject) -> bool;
    /// Ordering against another payload of the same UDT, when the type is
    /// ordered (`None` for unordered types).
    fn cmp_udt(&self, other: &dyn UdtObject) -> Option<Ordering>;
    /// A stable hash of the payload (used for hash joins and GROUP BY).
    fn hash_udt(&self) -> u64;
}

/// An opaque UDT value: the type tag plus a shared payload.
#[derive(Clone)]
pub struct UdtValue {
    type_id: UdtId,
    payload: Arc<dyn UdtObject>,
}

impl UdtValue {
    /// Wraps a payload of the given registered type.
    pub fn new(type_id: UdtId, payload: Arc<dyn UdtObject>) -> UdtValue {
        UdtValue { type_id, payload }
    }

    /// The registered type of this value.
    pub fn type_id(&self) -> UdtId {
        self.type_id
    }

    /// The raw payload.
    pub fn payload(&self) -> &dyn UdtObject {
        self.payload.as_ref()
    }

    /// Downcasts the payload to a concrete Rust type.
    pub fn downcast<T: 'static>(&self) -> Option<&T> {
        self.payload.as_any().downcast_ref::<T>()
    }
}

impl fmt::Debug for UdtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UdtValue(#{}, {:?})", self.type_id.0, self.payload)
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Udt(UdtValue),
}

impl Value {
    /// The value's runtime type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Udt(u) => DataType::Udt(u.type_id()),
        }
    }

    /// `true` for SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL equality with two-valued semantics used for join keys and
    /// grouping: `NULL` equals `NULL` here (grouping semantics), floats
    /// compare by bits for NaN stability.
    pub fn eq_grouping(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Udt(a), Value::Udt(b)) => {
                a.type_id() == b.type_id() && a.payload().eq_udt(b.payload())
            }
            _ => false,
        }
    }

    /// Total ordering used by ORDER BY and B-tree indexes: `NULL` sorts
    /// first; values of the same type compare naturally; unordered UDTs
    /// fall back to hash order (stable within a process).
    pub fn cmp_ordering(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Udt(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Udt(a), Value::Udt(b)) if a.type_id() == b.type_id() => a
                .payload()
                .cmp_udt(b.payload())
                .unwrap_or_else(|| a.payload().hash_udt().cmp(&b.payload().hash_udt())),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Extracts an `i64`, accepting INT only.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts an `f64`, widening INT.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the UDT wrapper.
    pub fn as_udt(&self) -> Option<&UdtValue> {
        match self {
            Value::Udt(u) => Some(u),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    /// Structural equality with grouping semantics (`NULL == NULL`,
    /// floats by bits, UDTs via their `eq_udt` support function). SQL's
    /// three-valued `=` lives in the comparison operators, not here.
    fn eq(&self, other: &Value) -> bool {
        self.eq_grouping(other)
    }
}

/// A hashable/equatable wrapper for grouping keys and hash-join keys.
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &GroupKey) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.eq_grouping(b))
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => 0u8.hash(state),
                Value::Bool(b) => (1u8, b).hash(state),
                Value::Int(i) => (2u8, i).hash(state),
                Value::Float(f) => (3u8, f.to_bits()).hash(state),
                Value::Str(s) => (4u8, s).hash(state),
                Value::Udt(u) => (5u8, u.type_id().0, u.payload().hash_udt()).hash(state),
            }
        }
    }
}

/// One stored or produced tuple.
pub type Row = Vec<Value>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[derive(Debug, PartialEq)]
    pub(crate) struct Tag(pub(crate) i64);
    impl UdtObject for Tag {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn eq_udt(&self, other: &dyn UdtObject) -> bool {
            other
                .as_any()
                .downcast_ref::<Tag>()
                .is_some_and(|o| o.0 == self.0)
        }
        fn cmp_udt(&self, other: &dyn UdtObject) -> Option<Ordering> {
            other
                .as_any()
                .downcast_ref::<Tag>()
                .map(|o| self.0.cmp(&o.0))
        }
        fn hash_udt(&self) -> u64 {
            self.0 as u64
        }
    }

    pub(crate) fn tag(v: i64) -> Value {
        Value::Udt(UdtValue::new(UdtId(1), Arc::new(Tag(v))))
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Null.data_type(), DataType::Null);
        assert_eq!(tag(1).data_type(), DataType::Udt(UdtId(1)));
    }

    #[test]
    fn grouping_equality() {
        assert!(Value::Null.eq_grouping(&Value::Null));
        assert!(Value::Int(3).eq_grouping(&Value::Int(3)));
        assert!(!Value::Int(3).eq_grouping(&Value::Float(3.0)));
        assert!(tag(5).eq_grouping(&tag(5)));
        assert!(!tag(5).eq_grouping(&tag(6)));
    }

    #[test]
    fn ordering() {
        assert_eq!(Value::Null.cmp_ordering(&Value::Int(0)), Ordering::Less);
        assert_eq!(
            Value::Int(2).cmp_ordering(&Value::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Str("a".into()).cmp_ordering(&Value::Str("b".into())),
            Ordering::Less
        );
        assert_eq!(tag(1).cmp_ordering(&tag(2)), Ordering::Less);
    }

    #[test]
    fn group_key_hash_and_eq() {
        let a = GroupKey(vec![Value::Int(1), Value::Str("x".into()), tag(7)]);
        let b = GroupKey(vec![Value::Int(1), Value::Str("x".into()), tag(7)]);
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn downcast() {
        let v = tag(9);
        let u = v.as_udt().unwrap();
        assert_eq!(u.downcast::<Tag>().unwrap().0, 9);
        assert!(u.downcast::<String>().is_none());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert!(Value::Null.as_int().is_none());
        assert!(Value::Null.is_null());
    }
}
