//! Tagged binary encoding of field values inside records.
//!
//! Unlike [`sim_types::ordered`] (which trades compactness for bytewise
//! comparability and is used for index *keys*), this codec is the record
//! *payload* format: compact, self-describing, and able to carry the
//! pointer-mapping hint lists of §5.2.

use crate::error::MapperError;
use sim_storage::RecordId;
use sim_types::{ByteReader, Date, Decimal, Surrogate, Value};
use std::ops::{Deref, DerefMut};

/// One stored field: either a plain value, an embedded array (bounded MV
/// DVAs), or a pointer list (pointer/clustered EVA mappings: partner
/// surrogate plus a record-address hint).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A single value (possibly null).
    Scalar(Value),
    /// An embedded array (MV DVA with MAX).
    Array(Vec<Value>),
    /// Pointer-mapped EVA entries: `(partner surrogate, record hint)`.
    Hints(Vec<(Surrogate, RecordId)>),
}

impl FieldValue {
    /// A null scalar (the default for unset fields).
    pub fn null() -> FieldValue {
        FieldValue::Scalar(Value::Null)
    }
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_DECIMAL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BOOL_FALSE: u8 = 5;
const TAG_BOOL_TRUE: u8 = 6;
const TAG_DATE: u8 = 7;
const TAG_SYMBOL: u8 = 8;
const TAG_ENTITY: u8 = 9;
const TAG_ARRAY: u8 = 10;
const TAG_HINTS: u8 = 11;

/// Append the encoding of one value. Fails (rather than silently
/// truncating the length prefix) when a string exceeds the u32 limit.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) -> Result<(), MapperError> {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(n) => {
            out.push(TAG_INT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(TAG_DECIMAL);
            out.push(d.scale());
            out.extend_from_slice(&d.mantissa().to_le_bytes());
        }
        Value::Str(s) => {
            let len = u32::try_from(s.len()).map_err(|_| {
                MapperError::Codec(format!(
                    "string of {} bytes exceeds the {}-byte field limit",
                    s.len(),
                    u32::MAX
                ))
            })?;
            out.push(TAG_STR);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&d.day_number().to_le_bytes());
        }
        Value::Symbol(i) => {
            out.push(TAG_SYMBOL);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Entity(s) => {
            out.push(TAG_ENTITY);
            out.extend_from_slice(&s.raw().to_le_bytes());
        }
    }
    Ok(())
}

/// Append the encoding of one field. Fails (rather than silently
/// truncating the count prefix) when an array or hint list exceeds the
/// u16 limit.
pub fn encode_field(f: &FieldValue, out: &mut Vec<u8>) -> Result<(), MapperError> {
    match f {
        FieldValue::Scalar(v) => encode_value(v, out)?,
        FieldValue::Array(vals) => {
            let count = u16::try_from(vals.len()).map_err(|_| {
                MapperError::Codec(format!(
                    "array of {} values exceeds the {}-entry field limit",
                    vals.len(),
                    u16::MAX
                ))
            })?;
            out.push(TAG_ARRAY);
            out.extend_from_slice(&count.to_le_bytes());
            for v in vals {
                encode_value(v, out)?;
            }
        }
        FieldValue::Hints(hints) => {
            let count = u16::try_from(hints.len()).map_err(|_| {
                MapperError::Codec(format!(
                    "hint list of {} entries exceeds the {}-entry field limit",
                    hints.len(),
                    u16::MAX
                ))
            })?;
            out.push(TAG_HINTS);
            out.extend_from_slice(&count.to_le_bytes());
            for (surr, rid) in hints {
                out.extend_from_slice(&surr.raw().to_le_bytes());
                out.extend_from_slice(&rid.to_bytes());
            }
        }
    }
    Ok(())
}

/// The value-format decoder over the shared bounded reader; the reader's
/// raw integer reads (record headers) are reachable through `Deref`.
pub struct Decoder<'a>(ByteReader<'a>);

impl<'a> Deref for Decoder<'a> {
    type Target = ByteReader<'a>;
    fn deref(&self) -> &ByteReader<'a> {
        &self.0
    }
}

impl DerefMut for Decoder<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<'a> Decoder<'a> {
    /// Start decoding at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder(ByteReader::new(bytes))
    }

    /// True when all bytes are consumed.
    pub fn at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Decode one value.
    pub fn value(&mut self) -> Result<Value, MapperError> {
        let r = &mut self.0;
        Ok(match r.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(r.array()?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(r.array()?)),
            TAG_DECIMAL => {
                let scale = r.u8()?;
                let mantissa = i128::from_le_bytes(r.array()?);
                Value::Decimal(
                    Decimal::from_parts(mantissa, scale).map_err(|_| corrupt("bad decimal"))?,
                )
            }
            TAG_STR => {
                let len = r.u32()? as usize;
                Value::Str(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| corrupt("bad utf-8 in string field"))?
                        .to_owned(),
                )
            }
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_DATE => Value::Date(Date::from_day_number(i32::from_le_bytes(r.array()?))),
            TAG_SYMBOL => Value::Symbol(r.u16()?),
            TAG_ENTITY => Value::Entity(Surrogate::from_raw(r.u64()?)),
            other => return Err(corrupt(&format!("unknown value tag {other}"))),
        })
    }

    /// Decode one field (value, array or hint list).
    pub fn field(&mut self) -> Result<FieldValue, MapperError> {
        match self.peek() {
            Some(TAG_ARRAY) => {
                self.u8()?;
                let n = self.u16()? as usize;
                let mut vals = Vec::with_capacity(n);
                for _ in 0..n {
                    vals.push(self.value()?);
                }
                Ok(FieldValue::Array(vals))
            }
            Some(TAG_HINTS) => {
                self.u8()?;
                let n = self.u16()? as usize;
                let mut hints = Vec::with_capacity(n);
                for _ in 0..n {
                    let surr = Surrogate::from_raw(self.u64()?);
                    let rid = RecordId::from_bytes(self.take(8)?)?;
                    hints.push((surr, rid));
                }
                Ok(FieldValue::Hints(hints))
            }
            _ => Ok(FieldValue::Scalar(self.value()?)),
        }
    }
}

fn corrupt(msg: &str) -> MapperError {
    MapperError::Storage(sim_storage::StorageError::Corrupt(msg.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_storage::RecordId;

    fn roundtrip_field(f: FieldValue) {
        let mut buf = Vec::new();
        encode_field(&f, &mut buf).unwrap();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.field().unwrap(), f);
        assert!(dec.at_end());
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Decimal(Decimal::parse("12345.67").unwrap()),
            Value::Str("John Doe".into()),
            Value::Str("".into()),
            Value::Str("ünïcødé ✓".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(Date::from_ymd(1988, 6, 1).unwrap()),
            Value::Symbol(3),
            Value::Entity(Surrogate::from_raw(999)),
        ] {
            roundtrip_field(FieldValue::Scalar(v));
        }
    }

    #[test]
    fn array_roundtrips() {
        roundtrip_field(FieldValue::Array(vec![]));
        roundtrip_field(FieldValue::Array(vec![
            Value::Int(1),
            Value::Null,
            Value::Str("x".into()),
        ]));
    }

    #[test]
    fn hints_roundtrip() {
        roundtrip_field(FieldValue::Hints(vec![]));
        roundtrip_field(FieldValue::Hints(vec![
            (
                Surrogate::from_raw(7),
                RecordId::from_bytes(
                    &RecordId { block: sim_storage::disk::BlockId(3), slot: 9 }.to_bytes(),
                )
                .unwrap(),
            ),
            (Surrogate::from_raw(8), RecordId { block: sim_storage::disk::BlockId(12), slot: 0 }),
        ]));
    }

    #[test]
    fn array_at_the_u16_boundary_roundtrips() {
        roundtrip_field(FieldValue::Array(vec![Value::Null; u16::MAX as usize]));
    }

    #[test]
    fn array_past_the_u16_boundary_is_a_typed_error() {
        let mut buf = Vec::new();
        let over = FieldValue::Array(vec![Value::Null; u16::MAX as usize + 1]);
        assert!(matches!(encode_field(&over, &mut buf), Err(MapperError::Codec(_))));
    }

    #[test]
    fn hints_past_the_u16_boundary_are_a_typed_error() {
        let rid = RecordId { block: sim_storage::disk::BlockId(0), slot: 0 };
        let over = FieldValue::Hints(vec![(Surrogate::from_raw(1), rid); u16::MAX as usize + 1]);
        let mut buf = Vec::new();
        assert!(matches!(encode_field(&over, &mut buf), Err(MapperError::Codec(_))));
    }

    #[test]
    fn sequences_decode_in_order() {
        let mut buf = Vec::new();
        encode_field(&FieldValue::Scalar(Value::Int(1)), &mut buf).unwrap();
        encode_field(&FieldValue::Array(vec![Value::Bool(true)]), &mut buf).unwrap();
        encode_field(&FieldValue::Scalar(Value::Str("end".into())), &mut buf).unwrap();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.field().unwrap(), FieldValue::Scalar(Value::Int(1)));
        assert_eq!(dec.field().unwrap(), FieldValue::Array(vec![Value::Bool(true)]));
        assert_eq!(dec.field().unwrap(), FieldValue::Scalar(Value::Str("end".into())));
        assert!(dec.at_end());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        encode_field(&FieldValue::Scalar(Value::Str("hello world".into())), &mut buf).unwrap();
        for cut in [1, 3, buf.len() - 1] {
            let mut dec = Decoder::new(&buf[..cut]);
            assert!(dec.field().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut dec = Decoder::new(&[0xFF]);
        assert!(dec.field().is_err());
    }
}
