//! The runtime value model.
//!
//! A [`Value`] is what flows between the DML evaluator, the LUC mapper and
//! the storage encoders. Comparison is three-valued (nulls compare
//! `Unknown`), while [`Value::total_cmp`] provides the deterministic total
//! order used for ORDER BY, DISTINCT and index keys (nulls sort first, and
//! are "omitted from uniqueness considerations" by the UNIQUE option at a
//! higher layer — paper §3.2.1).

use crate::date::Date;
use crate::decimal::Decimal;
use crate::error::TypeError;
use crate::surrogate::Surrogate;
use crate::truth::Truth;
use std::cmp::Ordering;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The null marker — both "unknown" and "inapplicable" (paper §3.2.1).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Floating point (the `real` domain and AVG results).
    Float(f64),
    /// Fixed-point `number[p,s]`.
    Decimal(Decimal),
    /// Character string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Calendar date.
    Date(Date),
    /// Symbolic / subrole value: an index into the declaring type's labels.
    Symbol(u16),
    /// A reference to an entity (the value of an EVA).
    Entity(Surrogate),
}

impl Value {
    /// True if this is the null marker.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name for the value's runtime type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "integer",
            Value::Float(_) => "real",
            Value::Decimal(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Date(_) => "date",
            Value::Symbol(_) => "symbolic",
            Value::Entity(_) => "entity",
        }
    }

    /// Numeric view (Int/Float/Decimal) as a `Decimal` when exact, used for
    /// cross-type comparison.
    fn as_decimal(&self) -> Option<Decimal> {
        match self {
            Value::Int(v) => Some(Decimal::from_int(*v)),
            Value::Decimal(d) => Some(*d),
            _ => None,
        }
    }

    /// The surrogate of an entity value.
    pub fn as_entity(&self) -> Option<Surrogate> {
        match self {
            Value::Entity(s) => Some(*s),
            _ => None,
        }
    }

    /// Numeric view as `f64` (for comparisons and AVG).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Decimal(d) => Some(d.to_f64()),
            _ => None,
        }
    }

    /// Three-valued comparison. Returns `Err` for genuinely incomparable
    /// types (string vs integer), `Ok(None)` when null makes the answer
    /// unknown, and `Ok(Some(ordering))` otherwise.
    pub fn compare(&self, other: &Value) -> Result<Option<Ordering>, TypeError> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(None),
            (Int(a), Int(b)) => Ok(Some(a.cmp(b))),
            (Str(a), Str(b)) => Ok(Some(a.cmp(b))),
            (Bool(a), Bool(b)) => Ok(Some(a.cmp(b))),
            (Date(a), Date(b)) => Ok(Some(a.cmp(b))),
            (Symbol(a), Symbol(b)) => Ok(Some(a.cmp(b))),
            (Entity(a), Entity(b)) => Ok(Some(a.cmp(b))),
            (Float(a), Float(b)) => Ok(Some(a.total_cmp(b))),
            // Date literals arrive as strings in the DML; coerce for
            // comparison.
            (Date(a), Str(s)) => Ok(Some(a.cmp(&crate::Date::parse(s)?))),
            (Str(s), Date(b)) => Ok(Some(crate::Date::parse(s)?.cmp(b))),
            // Mixed numerics: exact where both sides are exact, f64 otherwise.
            (a, b) => {
                if let (Some(x), Some(y)) = (a.as_decimal(), b.as_decimal()) {
                    return Ok(Some(x.cmp(&y)));
                }
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => Ok(Some(x.total_cmp(&y))),
                    _ => Err(TypeError::Incompatible(format!(
                        "cannot compare {} with {}",
                        a.type_name(),
                        b.type_name()
                    ))),
                }
            }
        }
    }

    /// Three-valued equality.
    pub fn eq_3vl(&self, other: &Value) -> Result<Truth, TypeError> {
        Ok(match self.compare(other)? {
            None => Truth::Unknown,
            Some(Ordering::Equal) => Truth::True,
            Some(_) => Truth::False,
        })
    }

    /// Three-valued `<` (and friends via `Ordering`).
    pub fn cmp_3vl(&self, other: &Value, accept: fn(Ordering) -> bool) -> Result<Truth, TypeError> {
        Ok(match self.compare(other)? {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(accept(ord)),
        })
    }

    /// A deterministic total order across all values, for ORDER BY, DISTINCT
    /// and duplicate elimination. Nulls sort first; values of different
    /// non-comparable types order by a fixed type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) | Value::Decimal(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
                Value::Date(_) => 4,
                Value::Symbol(_) => 5,
                Value::Entity(_) => 6,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => match (rank(self), rank(other)) {
                (a, b) if a != b => a.cmp(&b),
                _ => self.compare(other).ok().flatten().unwrap_or(Ordering::Equal),
            },
        }
    }

    /// Arithmetic under null propagation: any null operand yields null.
    pub fn arith(&self, op: ArithOp, other: &Value) -> Result<Value, TypeError> {
        use Value::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other) {
            (Int(a), Int(b)) => match op {
                ArithOp::Add => a
                    .checked_add(*b)
                    .map(Int)
                    .ok_or_else(|| TypeError::Arithmetic("integer overflow".into())),
                ArithOp::Sub => a
                    .checked_sub(*b)
                    .map(Int)
                    .ok_or_else(|| TypeError::Arithmetic("integer overflow".into())),
                ArithOp::Mul => a
                    .checked_mul(*b)
                    .map(Int)
                    .ok_or_else(|| TypeError::Arithmetic("integer overflow".into())),
                ArithOp::Div => {
                    if *b == 0 {
                        Err(TypeError::Arithmetic("division by zero".into()))
                    } else {
                        Ok(Int(a / b))
                    }
                }
            },
            (a, b) => {
                if let (Some(x), Some(y)) = (a.as_decimal(), b.as_decimal()) {
                    let r = match op {
                        ArithOp::Add => x.add(y)?,
                        ArithOp::Sub => x.sub(y)?,
                        ArithOp::Mul => x.mul(y)?,
                        ArithOp::Div => x.div(y)?,
                    };
                    return Ok(Decimal(r));
                }
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => {
                                if y == 0.0 {
                                    return Err(TypeError::Arithmetic("division by zero".into()));
                                }
                                x / y
                            }
                        };
                        Ok(Float(r))
                    }
                    _ => Err(TypeError::Incompatible(format!(
                        "cannot apply arithmetic to {} and {}",
                        a.type_name(),
                        b.type_name()
                    ))),
                }
            }
        }
    }

    /// Unary negation under null propagation.
    pub fn negate(&self) -> Result<Value, TypeError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => v
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| TypeError::Arithmetic("integer overflow".into())),
            Value::Float(v) => Ok(Value::Float(-v)),
            Value::Decimal(d) => Ok(Value::Decimal(d.neg())),
            v => Err(TypeError::Incompatible(format!("cannot negate {}", v.type_name()))),
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Symbol(i) => write!(f, "#{i}"),
            Value::Entity(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<Surrogate> for Value {
    fn from(v: Surrogate) -> Value {
        Value::Entity(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Value {
        Value::Date(v)
    }
}

impl From<Decimal> for Value {
    fn from(v: Decimal) -> Value {
        Value::Decimal(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Truth::{False, True, Unknown};

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.eq_3vl(&Value::Int(1)).unwrap(), Unknown);
        assert_eq!(Value::Null.eq_3vl(&Value::Null).unwrap(), Unknown);
        assert_eq!(Value::Int(1).cmp_3vl(&Value::Null, Ordering::is_lt).unwrap(), Unknown);
    }

    #[test]
    fn mixed_numeric_comparison_is_exact() {
        let d = Value::Decimal(Decimal::parse("2.00").unwrap());
        assert_eq!(Value::Int(2).eq_3vl(&d).unwrap(), True);
        assert_eq!(Value::Int(3).eq_3vl(&d).unwrap(), False);
        assert_eq!(
            Value::Decimal(Decimal::parse("2.5").unwrap())
                .cmp_3vl(&Value::Int(3), Ordering::is_lt)
                .unwrap(),
            True
        );
        assert_eq!(Value::Float(2.0).eq_3vl(&Value::Int(2)).unwrap(), True);
    }

    #[test]
    fn incomparable_types_error() {
        assert!(Value::Str("a".into()).compare(&Value::Int(1)).is_err());
        assert!(Value::Bool(true)
            .compare(&Value::Date(Date::from_ymd(2000, 1, 1).unwrap()))
            .is_err());
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert_eq!(Value::Null.arith(ArithOp::Add, &Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).arith(ArithOp::Mul, &Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(Value::Int(6).arith(ArithOp::Mul, &Value::Int(7)).unwrap(), Value::Int(42));
        assert!(Value::Int(1).arith(ArithOp::Div, &Value::Int(0)).is_err());
        assert!(Value::Int(i64::MAX).arith(ArithOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn decimal_salary_raise() {
        // 1.1 * salary from paper example 4.
        let raise = Value::Decimal(Decimal::parse("1.1").unwrap());
        let salary = Value::Decimal(Decimal::parse("40000.00").unwrap());
        let new = raise.arith(ArithOp::Mul, &salary).unwrap();
        assert_eq!(new.eq_3vl(&Value::Decimal(Decimal::parse("44000").unwrap())).unwrap(), True);
    }

    #[test]
    fn total_order_puts_nulls_first() {
        let mut vals = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(super::Value::total_cmp);
        assert_eq!(vals, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn total_order_is_cross_type_stable() {
        let a = Value::Str("a".into());
        let b = Value::Int(1);
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    #[test]
    fn date_comparison() {
        let young = Value::Date(Date::from_ymd(1970, 1, 1).unwrap());
        let old = Value::Date(Date::from_ymd(1940, 1, 1).unwrap());
        // "birthdate of student < birthdate of instructor" (paper example 7)
        assert_eq!(old.cmp_3vl(&young, Ordering::is_lt).unwrap(), True);
    }

    #[test]
    fn negation() {
        assert_eq!(Value::Int(5).negate().unwrap(), Value::Int(-5));
        assert_eq!(Value::Null.negate().unwrap(), Value::Null);
        assert!(Value::Str("x".into()).negate().is_err());
    }
}
