//! The wire protocol: length-prefixed binary frames (DESIGN.md §15).
//!
//! Every message is one frame: a `u32` big-endian payload length followed
//! by that many payload bytes. The payload's first byte is a tag —
//! requests use `0x01..=0x0A`, responses `0x81..=0x83` — followed by the
//! variant's fields. Integers are big-endian; strings are `u32` length +
//! UTF-8 bytes; row values use the tagged codec in [`encode_value`].
//!
//! Rows travel in the `sim-query` normal form: the [`QueryOutput`] is
//! encoded structurally (columns + typed values, or formats + leveled
//! records), so a client reconstructs exactly what an embedded caller
//! would have received — `sim_query::normalize::canonical` and
//! `sim_core::format_output` work unchanged on the decoded value.
//!
//! Frames larger than [`MAX_FRAME`] are malformed by definition: the
//! reader rejects them *before* allocating, so a garbage length prefix
//! cannot balloon server memory.

use sim_query::{QueryOutput, StructRecord};
use sim_types::{ByteReader, Date, Decimal, DecodeError, Surrogate, Value};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (16 MiB). A length prefix beyond
/// this is treated as garbage, not as an allocation request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A malformed frame or payload. The server maps this to `SIM-N001`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one statement; retrieves answer with rows, updates with an ack
    /// carrying the affected-entity count.
    Query(String),
    /// Alias of [`Request::Query`] with its own tag, for callers that know
    /// they are running DML and want the distinction visible on the wire.
    Execute(String),
    /// Prepare one statement; the ack carries the statement id. Retrieve
    /// plans are built, verified and pinned in the plan cache now.
    Prepare(String),
    /// Execute a prepared statement by id.
    ExecPrepared(u64),
    /// Open an explicit transaction.
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Take a savepoint in the open transaction; the ack carries it.
    Savepoint,
    /// Roll back to a savepoint from [`Request::Savepoint`].
    RollbackTo(u64),
    /// Close the connection cleanly (the server acks, then hangs up).
    Close,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with a count: affected entities (query/execute), statement
    /// id (prepare), savepoint (savepoint), or 0.
    Ack(u64),
    /// A retrieve's output.
    Rows {
        /// The plan was served from the plan cache.
        plan_cached: bool,
        /// The retrieve ran as a lock-free snapshot read (no open
        /// transaction on the session).
        snapshot: bool,
        /// The rows, in the `sim-query` normal form.
        output: QueryOutput,
    },
    /// A typed error. The connection stays open unless the error says
    /// otherwise (`SIM-N001`/`SIM-N003` close it).
    Err {
        /// The stable `SIM-*` code, when the error has one.
        code: Option<String>,
        /// Whether re-running the transaction may succeed.
        retryable: bool,
        /// Human-readable message.
        message: String,
    },
}

// ---------------------------------------------------------------- frames

/// Write one frame: `u32` BE length + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary;
/// a length prefix over [`MAX_FRAME`] is an [`io::ErrorKind::InvalidData`]
/// error raised before any allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ------------------------------------------------------------ primitives

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        bad(format!("malformed payload: {e}"))
    }
}

fn string(r: &mut ByteReader<'_>) -> Result<String, ProtoError> {
    let len = u32::from_be_bytes(r.array()?) as usize;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| bad("string is not valid UTF-8"))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------- value codec

/// Append one [`Value`] (tag byte + payload) to `out`.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Decimal(d) => {
            out.push(3);
            out.extend_from_slice(&d.mantissa().to_be_bytes());
            out.push(d.scale());
        }
        Value::Str(s) => {
            out.push(4);
            put_string(out, s);
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(u8::from(*b));
        }
        Value::Date(d) => {
            out.push(6);
            out.extend_from_slice(&d.day_number().to_be_bytes());
        }
        Value::Symbol(s) => {
            out.push(7);
            out.extend_from_slice(&s.to_be_bytes());
        }
        Value::Entity(e) => {
            out.push(8);
            out.extend_from_slice(&e.raw().to_be_bytes());
        }
    }
}

fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, ProtoError> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(i64::from_be_bytes(r.array()?))),
        2 => Ok(Value::Float(f64::from_bits(u64::from_be_bytes(r.array()?)))),
        3 => {
            let mantissa = i128::from_be_bytes(r.array()?);
            let scale = r.u8()?;
            let d = Decimal::from_parts(mantissa, scale)
                .map_err(|e| bad(format!("bad decimal: {e}")))?;
            Ok(Value::Decimal(d))
        }
        4 => Ok(Value::Str(string(r)?)),
        5 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(bad(format!("bad bool byte {other}"))),
        },
        6 => Ok(Value::Date(Date::from_day_number(i32::from_be_bytes(r.array()?)))),
        7 => Ok(Value::Symbol(u16::from_be_bytes(r.array()?))),
        8 => Ok(Value::Entity(Surrogate::from_raw(u64::from_be_bytes(r.array()?)))),
        other => Err(bad(format!("unknown value tag {other}"))),
    }
}

fn encode_output(out: &mut Vec<u8>, output: &QueryOutput) {
    match output {
        QueryOutput::Table { columns, rows } => {
            out.push(0);
            out.extend_from_slice(&(columns.len() as u32).to_be_bytes());
            for col in columns {
                put_string(out, col);
            }
            out.extend_from_slice(&(rows.len() as u32).to_be_bytes());
            for row in rows {
                out.extend_from_slice(&(row.len() as u32).to_be_bytes());
                for value in row {
                    encode_value(out, value);
                }
            }
        }
        QueryOutput::Structure { formats, records } => {
            out.push(1);
            out.extend_from_slice(&(formats.len() as u32).to_be_bytes());
            for format in formats {
                out.extend_from_slice(&(format.len() as u32).to_be_bytes());
                for name in format {
                    put_string(out, name);
                }
            }
            out.extend_from_slice(&(records.len() as u32).to_be_bytes());
            for rec in records {
                out.extend_from_slice(&(rec.format as u32).to_be_bytes());
                out.extend_from_slice(&rec.level.to_be_bytes());
                out.extend_from_slice(&(rec.values.len() as u32).to_be_bytes());
                for value in &rec.values {
                    encode_value(out, value);
                }
            }
        }
    }
}

/// Per-message cap on decoded collection lengths. A garbage count field
/// must not turn into a huge up-front allocation; real outputs reaching
/// this many rows would blow [`MAX_FRAME`] first.
const MAX_COUNT: u32 = 16 * 1024 * 1024;

fn checked_count(r: &mut ByteReader<'_>, what: &str) -> Result<usize, ProtoError> {
    let n = u32::from_be_bytes(r.array()?);
    if n > MAX_COUNT {
        return Err(bad(format!("{what} count {n} is implausible")));
    }
    Ok(n as usize)
}

fn decode_output(r: &mut ByteReader<'_>) -> Result<QueryOutput, ProtoError> {
    match r.u8()? {
        0 => {
            let ncols = checked_count(r, "column")?;
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                columns.push(string(r)?);
            }
            let nrows = checked_count(r, "row")?;
            let mut rows = Vec::with_capacity(nrows.min(1024));
            for _ in 0..nrows {
                let nvals = checked_count(r, "value")?;
                let mut row = Vec::with_capacity(nvals.min(1024));
                for _ in 0..nvals {
                    row.push(decode_value(r)?);
                }
                rows.push(row);
            }
            Ok(QueryOutput::Table { columns, rows })
        }
        1 => {
            let nformats = checked_count(r, "format")?;
            let mut formats = Vec::with_capacity(nformats.min(1024));
            for _ in 0..nformats {
                let nnames = checked_count(r, "format column")?;
                let mut names = Vec::with_capacity(nnames.min(1024));
                for _ in 0..nnames {
                    names.push(string(r)?);
                }
                formats.push(names);
            }
            let nrecords = checked_count(r, "record")?;
            let mut records = Vec::with_capacity(nrecords.min(1024));
            for _ in 0..nrecords {
                let format = checked_count(r, "format index")?;
                let level = u32::from_be_bytes(r.array()?);
                let nvals = checked_count(r, "value")?;
                let mut values = Vec::with_capacity(nvals.min(1024));
                for _ in 0..nvals {
                    values.push(decode_value(r)?);
                }
                records.push(StructRecord { format, level, values });
            }
            Ok(QueryOutput::Structure { formats, records })
        }
        other => Err(bad(format!("unknown output tag {other}"))),
    }
}

// ------------------------------------------------------------- messages

impl Request {
    /// Encode to a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query(text) => {
                out.push(0x01);
                put_string(&mut out, text);
            }
            Request::Execute(text) => {
                out.push(0x02);
                put_string(&mut out, text);
            }
            Request::Prepare(text) => {
                out.push(0x03);
                put_string(&mut out, text);
            }
            Request::ExecPrepared(id) => {
                out.push(0x04);
                out.extend_from_slice(&id.to_be_bytes());
            }
            Request::Begin => out.push(0x05),
            Request::Commit => out.push(0x06),
            Request::Abort => out.push(0x07),
            Request::Savepoint => out.push(0x08),
            Request::RollbackTo(sp) => {
                out.push(0x09);
                out.extend_from_slice(&sp.to_be_bytes());
            }
            Request::Close => out.push(0x0A),
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = ByteReader::new(payload);
        let req = match r.u8()? {
            0x01 => Request::Query(string(&mut r)?),
            0x02 => Request::Execute(string(&mut r)?),
            0x03 => Request::Prepare(string(&mut r)?),
            0x04 => Request::ExecPrepared(u64::from_be_bytes(r.array()?)),
            0x05 => Request::Begin,
            0x06 => Request::Commit,
            0x07 => Request::Abort,
            0x08 => Request::Savepoint,
            0x09 => Request::RollbackTo(u64::from_be_bytes(r.array()?)),
            0x0A => Request::Close,
            other => return Err(bad(format!("unknown request tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ack(n) => {
                out.push(0x81);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Response::Rows { plan_cached, snapshot, output } => {
                out.push(0x82);
                let flags = u8::from(*plan_cached) | (u8::from(*snapshot) << 1);
                out.push(flags);
                encode_output(&mut out, output);
            }
            Response::Err { code, retryable, message } => {
                out.push(0x83);
                let flags = u8::from(code.is_some()) | (u8::from(*retryable) << 1);
                out.push(flags);
                if let Some(code) = code {
                    put_string(&mut out, code);
                }
                put_string(&mut out, message);
            }
        }
        out
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = ByteReader::new(payload);
        let resp = match r.u8()? {
            0x81 => Response::Ack(u64::from_be_bytes(r.array()?)),
            0x82 => {
                let flags = r.u8()?;
                Response::Rows {
                    plan_cached: flags & 1 != 0,
                    snapshot: flags & 2 != 0,
                    output: decode_output(&mut r)?,
                }
            }
            0x83 => {
                let flags = r.u8()?;
                let code = if flags & 1 != 0 { Some(string(&mut r)?) } else { None };
                Response::Err { code, retryable: flags & 2 != 0, message: string(&mut r)? }
            }
            other => return Err(bad(format!("unknown response tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        // QueryOutput is not PartialEq; compare through Debug.
        assert_eq!(format!("{decoded:?}"), format!("{resp:?}"));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Query("From student Retrieve name.".into()));
        roundtrip_req(Request::Execute("Delete student Where name = \"x\".".into()));
        roundtrip_req(Request::Prepare("From s Retrieve n.".into()));
        roundtrip_req(Request::ExecPrepared(42));
        roundtrip_req(Request::Begin);
        roundtrip_req(Request::Commit);
        roundtrip_req(Request::Abort);
        roundtrip_req(Request::Savepoint);
        roundtrip_req(Request::RollbackTo(7));
        roundtrip_req(Request::Close);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ack(12));
        roundtrip_resp(Response::Err {
            code: Some("SIM-C001".into()),
            retryable: true,
            message: "lock timeout".into(),
        });
        roundtrip_resp(Response::Err { code: None, retryable: false, message: "nope".into() });
        roundtrip_resp(Response::Rows {
            plan_cached: true,
            snapshot: false,
            output: QueryOutput::Table {
                columns: vec!["name".into(), "n".into()],
                rows: vec![
                    vec![Value::Str("Ada".into()), Value::Int(-3)],
                    vec![Value::Null, Value::Float(2.5)],
                    vec![
                        Value::Bool(true),
                        Value::Decimal(Decimal::from_parts(-12345, 2).unwrap()),
                    ],
                    vec![
                        Value::Date(Date::from_day_number(8036)),
                        Value::Entity(Surrogate::from_raw(99)),
                    ],
                    vec![Value::Symbol(3), Value::Int(i64::MIN)],
                ],
            },
        });
        roundtrip_resp(Response::Rows {
            plan_cached: false,
            snapshot: true,
            output: QueryOutput::Structure {
                formats: vec![vec!["name".into()], vec!["title".into(), "credits".into()]],
                records: vec![
                    StructRecord { format: 0, level: 1, values: vec![Value::Str("Doe".into())] },
                    StructRecord {
                        format: 1,
                        level: 2,
                        values: vec![Value::Str("Algebra".into()), Value::Int(4)],
                    },
                ],
            },
        });
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // An absurd length prefix errors before allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        assert_eq!(read_frame(&mut &huge[..]).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_and_truncation_error_cleanly() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[0x01, 0, 0, 0, 10, b'x']).is_err(), "truncated string");
        assert!(Request::decode(&[0x05, 0]).is_err(), "trailing bytes");
        assert!(Response::decode(&[0x82, 0, 9]).is_err(), "unknown output tag");
        // A value-count field larger than the payload could ever hold.
        let mut huge_rows = vec![0x82, 0, 0];
        huge_rows.extend_from_slice(&0u32.to_be_bytes()); // no columns
        huge_rows.extend_from_slice(&u32::MAX.to_be_bytes()); // "4 billion rows"
        assert!(Response::decode(&huge_rows).is_err());
    }
}
