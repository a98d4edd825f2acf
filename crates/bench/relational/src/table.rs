//! Table metadata for the relational baseline.

use sim_types::Value;

/// A typed column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name (lower-cased on definition).
    pub name: String,
    /// Unique values (enforced via the unique index).
    pub unique: bool,
    /// Whether an index (unique or secondary) exists.
    pub indexed: bool,
}

/// Handle to a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

/// Tagged row codec: `count u16`, then tagged values.
pub fn encode_row_tagged(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9 + 2);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        encode_value_tagged(v, &mut out);
    }
    out
}

fn encode_value_tagged(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(n) => {
            out.push(1);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => out.push(if *b { 5 } else { 4 }),
        Value::Date(d) => {
            out.push(6);
            out.extend_from_slice(&d.day_number().to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(7);
            out.push(d.scale());
            out.extend_from_slice(&d.mantissa().to_le_bytes());
        }
        Value::Symbol(i) => {
            out.push(8);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Entity(s) => {
            out.push(9);
            out.extend_from_slice(&s.raw().to_le_bytes());
        }
    }
}

/// Decode a row encoded with [`encode_row_tagged`].
pub fn decode_row_tagged(bytes: &[u8]) -> Option<Vec<Value>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        if *pos + n > bytes.len() {
            return None;
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Some(s)
    };
    let count = u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(&mut pos, 1)?[0];
        out.push(match tag {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?)),
            2 => Value::Float(f64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?)),
            3 => {
                let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                Value::Str(String::from_utf8(take(&mut pos, len)?.to_vec()).ok()?)
            }
            4 => Value::Bool(false),
            5 => Value::Bool(true),
            6 => Value::Date(sim_types::Date::from_day_number(i32::from_le_bytes(
                take(&mut pos, 4)?.try_into().ok()?,
            ))),
            7 => {
                let scale = take(&mut pos, 1)?[0];
                let mantissa = i128::from_le_bytes(take(&mut pos, 16)?.try_into().ok()?);
                Value::Decimal(sim_types::Decimal::from_parts(mantissa, scale).ok()?)
            }
            8 => Value::Symbol(u16::from_le_bytes(take(&mut pos, 2)?.try_into().ok()?)),
            9 => Value::Entity(sim_types::Surrogate::from_raw(u64::from_le_bytes(
                take(&mut pos, 8)?.try_into().ok()?,
            ))),
            _ => return None,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{Date, Decimal, Surrogate};

    #[test]
    fn tagged_row_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Int(-5),
            Value::Float(1.5),
            Value::Str("hello".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(Date::from_ymd(1988, 6, 1).unwrap()),
            Value::Decimal(Decimal::parse("12.34").unwrap()),
            Value::Symbol(7),
            Value::Entity(Surrogate::from_raw(42)),
        ];
        let enc = encode_row_tagged(&row);
        assert_eq!(decode_row_tagged(&enc).unwrap(), row);
    }

    #[test]
    fn truncated_rows_fail() {
        let enc = encode_row_tagged(&[Value::Str("long enough".into())]);
        assert!(decode_row_tagged(&enc[..enc.len() - 1]).is_none());
    }
}
