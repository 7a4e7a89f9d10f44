//! # The TIP wire protocol
//!
//! A length-prefixed binary protocol spoken between [`crate::Connection`]
//! in remote mode and `tip-server`. Every frame is
//!
//! ```text
//! +----------------+-----+------------------+
//! | u32le length   | tag |  body (length-1) |
//! +----------------+-----+------------------+
//! ```
//!
//! where `length` counts the tag byte plus the body and is capped at
//! [`MAX_FRAME`]. Values travel by *kind byte*, not by catalog id — the
//! five TIP types are encoded with the same `tip_core::binary` codecs the
//! engine uses for storage, built-in scalars with the scalar codecs, and
//! any other UDT degrades to its server-side text rendering (kind
//! [`kind::OTHER`]), exactly like an unmapped JDBC STRUCT. This keeps the
//! protocol independent of the numeric [`UdtId`]s a particular catalog
//! happened to assign.
//!
//! The full frame grammar (handshake, statements, row streaming, typed
//! errors, metrics) is documented in `DESIGN.md`; this module is the
//! single source of truth both sides link against.

use bytes::{Buf, BufMut};
use minidb::obs::LATENCY_BUCKETS;
use minidb::{DataType, DbError, DbResult, MetricsSnapshot, Value};
use std::io::{self, Read, Write};
use tip_blade::{as_chronon, as_element, as_instant, as_period, as_span, TipTypes};
use tip_core::binary;

/// First four bytes of the HELLO body: `"TIP1"`.
pub const MAGIC: u32 = 0x5449_5031;
/// The protocol version this build speaks. The handshake is an
/// equality check ([`check_version`]): both ends must carry this exact
/// number. Adding a METRICS counter does not change it — that frame is
/// self-describing.
pub const VERSION: u16 = 8;
/// Upper bound on one frame (tag + body); anything larger is treated as
/// a malformed stream and kills the connection.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Refuses a parameter list or result header longer than its `u16`
/// count field can say. The encoders write `len() as u16`, so callers
/// check here first: a wrapped count would desynchronize the stream.
pub fn check_count(n: usize, what: &str) -> DbResult<()> {
    if n > u16::MAX as usize {
        return Err(DbError::Constraint {
            message: format!("{n} {what} exceed the wire limit of {}", u16::MAX),
        });
    }
    Ok(())
}

/// Client → server frame tags.
pub mod req {
    /// Handshake: magic, version, optional NOW override.
    pub const HELLO: u8 = 0x01;
    /// One SQL statement with named parameters.
    pub const STMT: u8 = 0x02;
    /// Change the per-connection NOW override.
    pub const SET_NOW: u8 = 0x03;
    /// Ask for this session's metrics snapshot.
    pub const SESSION_STATS: u8 = 0x04;
    /// Ask for server-wide metrics aggregated over all connections.
    pub const SERVER_METRICS: u8 = 0x05;
    /// Orderly goodbye; the server closes after reading it.
    pub const BYE: u8 = 0x06;
    /// Validate a statement and register it under a server-side id.
    pub const PREPARE: u8 = 0x07;
    /// Execute a previously prepared statement id with parameters.
    pub const EXECUTE_PREPARED: u8 = 0x08;
    /// Forget a prepared statement id.
    pub const CLOSE_PREPARED: u8 = 0x09;
    /// Become a replication subscriber, resuming at `(generation,
    /// offset)`; the connection switches to the SNAPSHOT_CHUNK /
    /// WAL_CHUNK streaming dialect.
    pub const SUBSCRIBE: u8 = 0x0A;
    /// A subscriber's progress report — the newest primary commit
    /// sequence fully applied on the replica.
    pub const REPL_ACK: u8 = 0x0B;
    /// Admin order to a replica — stop following the primary and
    /// start accepting writes (failover).
    pub const PROMOTE: u8 = 0x0C;
}

/// Server → client frame tags.
pub mod resp {
    /// Handshake accepted: the server's version + banner.
    pub const HELLO_OK: u8 = 0x81;
    /// Typed error (see [`super::encode_error`]); terminates the exchange.
    pub const ERROR: u8 = 0x82;
    /// Result-set header: column names + kind bytes.
    pub const ROWS_HEADER: u8 = 0x83;
    /// One batch of rows; repeated until [`ROWS_DONE`].
    pub const ROW_BATCH: u8 = 0x84;
    /// End of the result set.
    pub const ROWS_DONE: u8 = 0x85;
    /// Affected-row count of INSERT/UPDATE/DELETE.
    pub const AFFECTED: u8 = 0x86;
    /// DDL (or SET_NOW) completed.
    pub const DONE: u8 = 0x87;
    /// A metrics snapshot (answer to SESSION_STATS / SERVER_METRICS).
    pub const METRICS: u8 = 0x88;
    /// The server is at its connection limit; sent instead of HELLO_OK.
    pub const BUSY: u8 = 0x89;
    /// A PREPARE succeeded; body carries the statement id.
    pub const PREPARED_OK: u8 = 0x8A;
    /// One piece of a checkpoint snapshot, re-seeding a subscriber
    /// whose log position was checkpointed away.
    pub const SNAPSHOT_CHUNK: u8 = 0x8B;
    /// Raw framed WAL bytes from `(generation, offset)`, cut at a
    /// record-frame boundary, plus the durable-commit watermark reached.
    pub const WAL_CHUNK: u8 = 0x8C;
}

/// Value/column kind bytes. Columns of any unlisted UDT degrade to
/// [`kind::OTHER`] and travel as display text.
pub mod kind {
    pub const NULL: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
    pub const CHRONON: u8 = 5;
    pub const SPAN: u8 = 6;
    pub const INSTANT: u8 = 7;
    pub const PERIOD: u8 = 8;
    pub const ELEMENT: u8 = 9;
    pub const OTHER: u8 = 10;
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Writes one frame. The caller flushes (or relies on TCP) as it sees fit.
pub fn write_frame(w: &mut impl Write, tag: u8, body: &[u8]) -> io::Result<()> {
    let len = body.len() + 1;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame, returning `(tag, body)`.
///
/// * `UnexpectedEof` before the first length byte means the peer closed
///   the stream at a frame boundary (an orderly hangup);
/// * `InvalidData` means the stream is malformed (zero/oversized length)
///   and must be abandoned.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok((tag[0], body))
}

/// Incremental, nonblocking-friendly frame decoder: feed it whatever
/// byte runs the socket yields — split mid-length-prefix, mid-body, or
/// with several frames coalesced into one read — and pull complete
/// frames out as they materialize. The reactor in `tip-server` sits on
/// top of this.
///
/// The grammar matches [`read_frame`] exactly: a zero or oversized
/// length prefix poisons the stream (the error is sticky; the
/// connection must be abandoned).
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    pos: usize,
    poisoned: bool,
}

impl FrameAccumulator {
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim consumed space once it dominates, so
        // a long-lived connection doesn't grow its buffer forever.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pulls the next complete frame, if one is buffered.
    ///
    /// * `Ok(Some((tag, body)))` — a whole frame was available;
    /// * `Ok(None)` — more bytes are needed;
    /// * `Err(why)` — the stream is malformed (sticky).
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, String> {
        if self.poisoned {
            return Err("frame stream already poisoned".to_string());
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len4: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4-byte slice");
        let len = u32::from_le_bytes(len4) as usize;
        if len == 0 || len > MAX_FRAME {
            self.poisoned = true;
            return Err(format!("frame length {len} outside 1..={MAX_FRAME}"));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let tag = self.buf[self.pos + 4];
        let body = self.buf[self.pos + 5..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some((tag, body)))
    }

    /// `true` while bytes of an incomplete frame sit in the buffer — a
    /// peer that stalls in this state is mid-frame, not idle.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes currently buffered and not yet consumed by a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the accumulator, returning the unparsed tail — used
    /// when a connection is handed from the reactor to a dedicated
    /// thread (replication subscribers) mid-stream.
    pub fn into_residual(self) -> Vec<u8> {
        self.buf[self.pos..].to_vec()
    }
}

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

fn malformed(what: impl std::fmt::Display) -> DbError {
    DbError::unavailable(format!("protocol error: {what}"))
}

fn need(buf: &&[u8], n: usize, what: &str) -> DbResult<()> {
    if buf.remaining() < n {
        Err(malformed(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

fn get_str(buf: &mut &[u8], what: &str) -> DbResult<String> {
    binary::decode_str(buf).map_err(|e| malformed(format!("bad string in {what}: {e}")))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    binary::encode_str(s, out);
}

/// Fails unless the whole body was consumed — trailing garbage is as
/// malformed as a truncated body.
fn expect_empty(buf: &[u8], what: &str) -> DbResult<()> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(malformed(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

// ---------------------------------------------------------------------
// HELLO / HELLO_OK
// ---------------------------------------------------------------------

/// The client's opening frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    pub version: u16,
    /// Per-connection NOW override (Unix seconds), applied before the
    /// first statement runs.
    pub now_unix: Option<i64>,
}

pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.put_u32_le(MAGIC);
    out.put_u16_le(h.version);
    match h.now_unix {
        Some(now) => {
            out.put_u8(1);
            out.put_i64_le(now);
        }
        None => out.put_u8(0),
    }
    out
}

pub fn decode_hello(mut buf: &[u8]) -> DbResult<Hello> {
    need(&buf, 7, "HELLO")?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(malformed(format!("bad magic {magic:#010x}")));
    }
    let version = buf.get_u16_le();
    let now_unix = match buf.get_u8() {
        0 => None,
        1 => {
            need(&buf, 8, "HELLO now override")?;
            Some(buf.get_i64_le())
        }
        f => return Err(malformed(format!("bad HELLO now flag {f}"))),
    };
    expect_empty(buf, "HELLO")?;
    Ok(Hello { version, now_unix })
}

pub fn encode_hello_ok(version: u16, banner: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + banner.len());
    out.put_u16_le(version);
    put_str(&mut out, banner);
    out
}

pub fn decode_hello_ok(mut buf: &[u8]) -> DbResult<(u16, String)> {
    need(&buf, 2, "HELLO_OK")?;
    let version = buf.get_u16_le();
    let banner = get_str(&mut buf, "HELLO_OK")?;
    expect_empty(buf, "HELLO_OK")?;
    Ok((version, banner))
}

/// The handshake's version rule, applied by the server to HELLO and by
/// every client to HELLO_OK: the peer speaks exactly [`VERSION`] or the
/// connection is refused.
pub fn check_version(peer: u16) -> DbResult<()> {
    if peer == VERSION {
        return Ok(());
    }
    Err(DbError::unavailable(format!(
        "peer offers protocol version {peer}, this build speaks {VERSION}"
    )))
}

/// Reads the server's answer to HELLO: `Ok` only for a HELLO_OK at
/// [`VERSION`]; BUSY, a typed ERROR and anything else are errors.
pub fn hello_reply(tag: u8, body: &[u8]) -> DbResult<()> {
    match tag {
        resp::HELLO_OK => check_version(decode_hello_ok(body)?.0),
        resp::BUSY => Err(DbError::unavailable(decode_busy(body)?)),
        resp::ERROR => Err(decode_error(body)?),
        other => Err(malformed(format!(
            "unexpected handshake frame {other:#04x}"
        ))),
    }
}

/// The client half of the handshake on a blocking stream: HELLO out (as
/// one write), the server's reply in and checked by [`hello_reply`].
pub fn client_handshake(stream: &mut (impl Read + Write), now_unix: Option<i64>) -> DbResult<()> {
    let hello = Hello {
        version: VERSION,
        now_unix,
    };
    let mut frame = Vec::with_capacity(24);
    write_frame(&mut frame, req::HELLO, &encode_hello(&hello))
        .and_then(|()| stream.write_all(&frame))
        .map_err(|e| DbError::unavailable(format!("handshake send failed: {e}")))?;
    let (tag, body) = read_frame(stream)
        .map_err(|e| DbError::unavailable(format!("handshake receive failed: {e}")))?;
    hello_reply(tag, &body)
}

// ---------------------------------------------------------------------
// SET_NOW
// ---------------------------------------------------------------------

pub fn encode_set_now(now_unix: Option<i64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    match now_unix {
        Some(now) => {
            out.put_u8(1);
            out.put_i64_le(now);
        }
        None => out.put_u8(0),
    }
    out
}

pub fn decode_set_now(mut buf: &[u8]) -> DbResult<Option<i64>> {
    need(&buf, 1, "SET_NOW")?;
    let now = match buf.get_u8() {
        0 => None,
        1 => {
            need(&buf, 8, "SET_NOW")?;
            Some(buf.get_i64_le())
        }
        f => return Err(malformed(format!("bad SET_NOW flag {f}"))),
    };
    expect_empty(buf, "SET_NOW")?;
    Ok(now)
}

// ---------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------

/// Encodes one value by kind byte. `display` renders UDTs the protocol
/// has no native codec for (server side: the catalog's text-output
/// function).
pub fn encode_value(v: &Value, display: &dyn Fn(&Value) -> String, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.put_u8(kind::NULL),
        Value::Bool(b) => {
            out.put_u8(kind::BOOL);
            binary::encode_bool(*b, out);
        }
        Value::Int(i) => {
            out.put_u8(kind::INT);
            binary::encode_i64(*i, out);
        }
        Value::Float(f) => {
            out.put_u8(kind::FLOAT);
            binary::encode_f64(*f, out);
        }
        Value::Str(s) => {
            out.put_u8(kind::STR);
            put_str(out, s);
        }
        Value::Udt(_) => {
            if let Some(c) = as_chronon(v) {
                out.put_u8(kind::CHRONON);
                binary::encode_chronon(c, out);
            } else if let Some(s) = as_span(v) {
                out.put_u8(kind::SPAN);
                binary::encode_span(s, out);
            } else if let Some(i) = as_instant(v) {
                out.put_u8(kind::INSTANT);
                binary::encode_instant(i, out);
            } else if let Some(p) = as_period(v) {
                out.put_u8(kind::PERIOD);
                binary::encode_period(p, out);
            } else if let Some(e) = as_element(v) {
                out.put_u8(kind::ELEMENT);
                binary::encode_element(e, out);
            } else {
                out.put_u8(kind::OTHER);
                put_str(out, &display(v));
            }
        }
    }
}

/// Decodes one value, rebuilding TIP UDTs against the receiver's own
/// type registry (`types`); [`kind::OTHER`] arrives as its text form.
pub fn decode_value(buf: &mut &[u8], types: &TipTypes) -> DbResult<Value> {
    need(buf, 1, "value")?;
    let k = buf.get_u8();
    let codec = |e: tip_core::TemporalError| malformed(format!("bad value payload: {e}"));
    Ok(match k {
        kind::NULL => Value::Null,
        kind::BOOL => Value::Bool(binary::decode_bool(buf).map_err(codec)?),
        kind::INT => Value::Int(binary::decode_i64(buf).map_err(codec)?),
        kind::FLOAT => Value::Float(binary::decode_f64(buf).map_err(codec)?),
        kind::STR => Value::Str(get_str(buf, "value")?),
        kind::CHRONON => types.chronon(binary::decode_chronon(buf).map_err(codec)?),
        kind::SPAN => types.span(binary::decode_span(buf).map_err(codec)?),
        kind::INSTANT => types.instant(binary::decode_instant(buf).map_err(codec)?),
        kind::PERIOD => types.period(binary::decode_period(buf).map_err(codec)?),
        kind::ELEMENT => types.element(binary::decode_element(buf).map_err(codec)?),
        kind::OTHER => Value::Str(get_str(buf, "value")?),
        other => return Err(malformed(format!("unknown value kind {other}"))),
    })
}

/// The kind byte a column of `dt` travels as.
pub fn kind_of_type(dt: DataType, types: &TipTypes) -> u8 {
    match dt {
        DataType::Null => kind::NULL,
        DataType::Bool => kind::BOOL,
        DataType::Int => kind::INT,
        DataType::Float => kind::FLOAT,
        DataType::Str => kind::STR,
        DataType::Udt(id) if id == types.chronon => kind::CHRONON,
        DataType::Udt(id) if id == types.span => kind::SPAN,
        DataType::Udt(id) if id == types.instant => kind::INSTANT,
        DataType::Udt(id) if id == types.period => kind::PERIOD,
        DataType::Udt(id) if id == types.element => kind::ELEMENT,
        DataType::Udt(_) => kind::OTHER,
    }
}

/// The receiver-local column type for a kind byte. [`kind::OTHER`]
/// becomes `Str` — those cells arrive as display text.
pub fn type_of_kind(k: u8, types: &TipTypes) -> DbResult<DataType> {
    Ok(match k {
        kind::NULL => DataType::Null,
        kind::BOOL => DataType::Bool,
        kind::INT => DataType::Int,
        kind::FLOAT => DataType::Float,
        kind::STR | kind::OTHER => DataType::Str,
        kind::CHRONON => DataType::Udt(types.chronon),
        kind::SPAN => DataType::Udt(types.span),
        kind::INSTANT => DataType::Udt(types.instant),
        kind::PERIOD => DataType::Udt(types.period),
        kind::ELEMENT => DataType::Udt(types.element),
        other => return Err(malformed(format!("unknown column kind {other}"))),
    })
}

// ---------------------------------------------------------------------
// STMT
// ---------------------------------------------------------------------

/// A decoded statement request.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub params: Vec<(String, Value)>,
}

pub fn encode_stmt(
    sql: &str,
    params: &[(&str, Value)],
    display: &dyn Fn(&Value) -> String,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + sql.len());
    put_str(&mut out, sql);
    out.put_u16_le(params.len() as u16);
    for (name, value) in params {
        put_str(&mut out, name);
        encode_value(value, display, &mut out);
    }
    out
}

pub fn decode_stmt(mut buf: &[u8], types: &TipTypes) -> DbResult<Stmt> {
    let sql = get_str(&mut buf, "STMT")?;
    need(&buf, 2, "STMT param count")?;
    let n = buf.get_u16_le() as usize;
    let mut params = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = get_str(&mut buf, "STMT param name")?;
        let value = decode_value(&mut buf, types)?;
        params.push((name, value));
    }
    expect_empty(buf, "STMT")?;
    Ok(Stmt { sql, params })
}

// ---------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------

/// Body of a PREPARE request: the statement text to validate and pin.
pub fn encode_prepare(sql: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + sql.len());
    put_str(&mut out, sql);
    out
}

pub fn decode_prepare(mut buf: &[u8]) -> DbResult<String> {
    let sql = get_str(&mut buf, "PREPARE")?;
    expect_empty(buf, "PREPARE")?;
    Ok(sql)
}

/// Body of a PREPARED_OK reply: the server-assigned statement id.
pub fn encode_prepared_ok(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.put_u64_le(id);
    out
}

pub fn decode_prepared_ok(mut buf: &[u8]) -> DbResult<u64> {
    need(&buf, 8, "PREPARED_OK")?;
    let id = buf.get_u64_le();
    expect_empty(buf, "PREPARED_OK")?;
    Ok(id)
}

/// Body of an EXECUTE_PREPARED request: statement id plus the same
/// parameter list shape STMT uses.
pub fn encode_execute_prepared(
    id: u64,
    params: &[(&str, Value)],
    display: &dyn Fn(&Value) -> String,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.put_u64_le(id);
    out.put_u16_le(params.len() as u16);
    for (name, value) in params {
        put_str(&mut out, name);
        encode_value(value, display, &mut out);
    }
    out
}

pub fn decode_execute_prepared(
    mut buf: &[u8],
    types: &TipTypes,
) -> DbResult<(u64, Vec<(String, Value)>)> {
    need(&buf, 8, "EXECUTE_PREPARED")?;
    let id = buf.get_u64_le();
    need(&buf, 2, "EXECUTE_PREPARED param count")?;
    let n = buf.get_u16_le() as usize;
    let mut params = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = get_str(&mut buf, "EXECUTE_PREPARED param name")?;
        let value = decode_value(&mut buf, types)?;
        params.push((name, value));
    }
    expect_empty(buf, "EXECUTE_PREPARED")?;
    Ok((id, params))
}

/// Body of a CLOSE_PREPARED request: the statement id to forget.
pub fn encode_close_prepared(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.put_u64_le(id);
    out
}

pub fn decode_close_prepared(mut buf: &[u8]) -> DbResult<u64> {
    need(&buf, 8, "CLOSE_PREPARED")?;
    let id = buf.get_u64_le();
    expect_empty(buf, "CLOSE_PREPARED")?;
    Ok(id)
}

// ---------------------------------------------------------------------
// Result sets
// ---------------------------------------------------------------------

pub fn encode_rows_header(columns: &[(String, DataType)], types: &TipTypes) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + columns.len() * 16);
    out.put_u16_le(columns.len() as u16);
    for (name, dt) in columns {
        put_str(&mut out, name);
        out.put_u8(kind_of_type(*dt, types));
    }
    out
}

pub fn decode_rows_header(mut buf: &[u8], types: &TipTypes) -> DbResult<Vec<(String, DataType)>> {
    need(&buf, 2, "ROWS_HEADER")?;
    let n = buf.get_u16_le() as usize;
    let mut columns = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let name = get_str(&mut buf, "ROWS_HEADER column")?;
        need(&buf, 1, "ROWS_HEADER kind")?;
        columns.push((name, type_of_kind(buf.get_u8(), types)?));
    }
    expect_empty(buf, "ROWS_HEADER")?;
    Ok(columns)
}

pub fn encode_row_batch(
    rows: &[minidb::Row],
    display: &dyn Fn(&Value) -> String,
    types: &TipTypes,
) -> Vec<u8> {
    let _ = types; // row cells carry their own kind bytes
    let mut out = Vec::with_capacity(4 + rows.len() * 32);
    out.put_u16_le(rows.len() as u16);
    for row in rows {
        for cell in row {
            encode_value(cell, display, &mut out);
        }
    }
    out
}

/// Outcome of [`RowBatchBuilder::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPush {
    /// The row was appended to the batch.
    Added,
    /// Appending would exceed the byte budget; the batch is unchanged.
    /// Flush it and push the row into a fresh builder.
    BatchFull,
    /// The encoded row alone exceeds the budget: it cannot travel in
    /// any frame. The batch is unchanged; the carried size is the row's
    /// encoded length in bytes.
    RowTooBig(usize),
}

/// Incrementally assembles a ROW_BATCH body under a byte budget, so a
/// sender can split arbitrarily large result sets across frames instead
/// of overrunning [`MAX_FRAME`]. The leading `u16` row count is
/// reserved up front and patched when the batch is finished.
pub struct RowBatchBuilder {
    buf: Vec<u8>,
    rows: u16,
    budget: usize,
}

impl RowBatchBuilder {
    /// `budget` caps the finished body length in bytes. The caller is
    /// responsible for leaving slack below [`MAX_FRAME`] for the frame
    /// length prefix and tag.
    pub fn new(budget: usize) -> RowBatchBuilder {
        let mut buf = Vec::with_capacity(1024);
        buf.put_u16_le(0); // row count, patched in finish()
        RowBatchBuilder {
            buf,
            rows: 0,
            budget,
        }
    }

    /// Rows currently in the batch.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// `true` when no row has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Tries to append one row, leaving the batch untouched when it
    /// doesn't fit (see [`RowPush`]).
    pub fn push(&mut self, row: &[Value], display: &dyn Fn(&Value) -> String) -> RowPush {
        let mark = self.buf.len();
        for cell in row {
            encode_value(cell, display, &mut self.buf);
        }
        let encoded = self.buf.len() - mark;
        if self.buf.len() > self.budget || self.rows == u16::MAX {
            self.buf.truncate(mark);
            return if self.rows == 0 {
                RowPush::RowTooBig(encoded)
            } else {
                RowPush::BatchFull
            };
        }
        self.rows += 1;
        RowPush::Added
    }

    /// Seals the batch into a ROW_BATCH body.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[..2].copy_from_slice(&self.rows.to_le_bytes());
        self.buf
    }
}

pub fn decode_row_batch(
    mut buf: &[u8],
    ncols: usize,
    types: &TipTypes,
) -> DbResult<Vec<minidb::Row>> {
    need(&buf, 2, "ROW_BATCH")?;
    let n = buf.get_u16_le() as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(&mut buf, types)?);
        }
        rows.push(row);
    }
    expect_empty(buf, "ROW_BATCH")?;
    Ok(rows)
}

pub fn encode_affected(n: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.put_u64_le(n);
    out
}

pub fn decode_affected(mut buf: &[u8]) -> DbResult<u64> {
    need(&buf, 8, "AFFECTED")?;
    let n = buf.get_u64_le();
    expect_empty(buf, "AFFECTED")?;
    Ok(n)
}

// ---------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------

/// Body of a SUBSCRIBE request: the log position the replica wants to
/// resume from. A generation the primary no longer has (including the
/// fresh replica's `0`) makes the primary re-seed the subscriber with
/// SNAPSHOT_CHUNK frames first.
pub fn encode_subscribe(generation: u64, offset: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.put_u64_le(generation);
    out.put_u64_le(offset);
    out
}

pub fn decode_subscribe(mut buf: &[u8]) -> DbResult<(u64, u64)> {
    need(&buf, 16, "SUBSCRIBE")?;
    let generation = buf.get_u64_le();
    let offset = buf.get_u64_le();
    expect_empty(buf, "SUBSCRIBE")?;
    Ok((generation, offset))
}

/// Body of a REPL_ACK: the position the replica has fully applied plus
/// the newest primary commit sequence that position covers (the
/// watermark the primary's lag gauge and semi-sync waits key on).
pub fn encode_repl_ack(generation: u64, offset: u64, watermark: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.put_u64_le(generation);
    out.put_u64_le(offset);
    out.put_u64_le(watermark);
    out
}

pub fn decode_repl_ack(mut buf: &[u8]) -> DbResult<(u64, u64, u64)> {
    need(&buf, 24, "REPL_ACK")?;
    let generation = buf.get_u64_le();
    let offset = buf.get_u64_le();
    let watermark = buf.get_u64_le();
    expect_empty(buf, "REPL_ACK")?;
    Ok((generation, offset, watermark))
}

/// Body of a SNAPSHOT_CHUNK: `generation`, a last-chunk flag, and a
/// piece of the checkpoint payload. The receiver concatenates pieces in
/// order and loads the whole snapshot when `is_last` arrives.
pub fn encode_snapshot_chunk(generation: u64, is_last: bool, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + bytes.len());
    out.put_u64_le(generation);
    out.put_u8(is_last as u8);
    out.put_slice(bytes);
    out
}

pub fn decode_snapshot_chunk(mut buf: &[u8]) -> DbResult<(u64, bool, Vec<u8>)> {
    need(&buf, 9, "SNAPSHOT_CHUNK")?;
    let generation = buf.get_u64_le();
    let is_last = match buf.get_u8() {
        0 => false,
        1 => true,
        f => return Err(malformed(format!("bad SNAPSHOT_CHUNK last flag {f}"))),
    };
    Ok((generation, is_last, buf.to_vec()))
}

/// Body of a WAL_CHUNK: the log position the bytes start at, the
/// durable-commit watermark the chunk reaches (`0` when the cut landed
/// short of the durable frontier — the receiver must not ack a sequence
/// for it), and the raw framed record bytes. Empty bytes are a
/// heartbeat: the subscriber is caught up at `watermark`.
pub fn encode_wal_chunk(generation: u64, offset: u64, watermark: u64, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + bytes.len());
    out.put_u64_le(generation);
    out.put_u64_le(offset);
    out.put_u64_le(watermark);
    out.put_slice(bytes);
    out
}

pub fn decode_wal_chunk(mut buf: &[u8]) -> DbResult<(u64, u64, u64, Vec<u8>)> {
    need(&buf, 24, "WAL_CHUNK")?;
    let generation = buf.get_u64_le();
    let offset = buf.get_u64_le();
    let watermark = buf.get_u64_le();
    Ok((generation, offset, watermark, buf.to_vec()))
}

// ---------------------------------------------------------------------
// BUSY
// ---------------------------------------------------------------------

/// Body of a BUSY reject: one human-readable reason string.
pub fn encode_busy(message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + message.len());
    put_str(&mut out, message);
    out
}

pub fn decode_busy(mut buf: &[u8]) -> DbResult<String> {
    let message = get_str(&mut buf, "BUSY")?;
    expect_empty(buf, "BUSY")?;
    Ok(message)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Catalog-object kinds that survive the wire with their identity; any
/// other string decodes as `"object"`. (`DbError::NotFound` carries a
/// `&'static str`, so the decoder interns against this table.)
const KNOWN_KINDS: &[&str] = &[
    "table",
    "table or view",
    "column",
    "view",
    "index",
    "type",
    "function",
    "function overload",
    "aggregate",
    "aggregate overload",
    "operator",
    "operator overload",
    "cast",
    "parameter",
    "blade",
    "prepared statement",
];

fn intern_kind(s: &str) -> &'static str {
    KNOWN_KINDS
        .iter()
        .find(|k| **k == s)
        .copied()
        .unwrap_or("object")
}

/// Encodes a typed error frame: `u8 code, u64 aux, str a, str b`.
pub fn encode_error(e: &DbError) -> Vec<u8> {
    let (code, aux, a, b): (u8, u64, &str, &str) = match e {
        DbError::Syntax { pos, message } => (1, *pos as u64, message, ""),
        DbError::NotFound { kind, name } => (2, 0, kind, name),
        DbError::AlreadyExists { kind, name } => (3, 0, kind, name),
        DbError::Binding { message } => (4, 0, message, ""),
        DbError::NoOverload { what } => (5, 0, what, ""),
        DbError::AmbiguousOverload { what } => (6, 0, what, ""),
        DbError::Type { message } => (7, 0, message, ""),
        DbError::Execution { message } => (8, 0, message, ""),
        DbError::MissingParam { name } => (9, 0, name, ""),
        DbError::Constraint { message } => (10, 0, message, ""),
        DbError::Persist { message } => (11, 0, message, ""),
        DbError::Unavailable { message } => (12, 0, message, ""),
        DbError::ReadOnly { primary } => (13, 0, primary, ""),
    };
    let mut out = Vec::with_capacity(16 + a.len() + b.len());
    out.put_u8(code);
    out.put_u64_le(aux);
    put_str(&mut out, a);
    put_str(&mut out, b);
    out
}

/// Decodes an error frame back into the same [`DbError`] variant.
pub fn decode_error(mut buf: &[u8]) -> DbResult<DbError> {
    need(&buf, 9, "ERROR")?;
    let code = buf.get_u8();
    let aux = buf.get_u64_le();
    let a = get_str(&mut buf, "ERROR")?;
    let b = get_str(&mut buf, "ERROR")?;
    expect_empty(buf, "ERROR")?;
    Ok(match code {
        1 => DbError::Syntax {
            pos: aux as usize,
            message: a,
        },
        2 => DbError::NotFound {
            kind: intern_kind(&a),
            name: b,
        },
        3 => DbError::AlreadyExists {
            kind: intern_kind(&a),
            name: b,
        },
        4 => DbError::Binding { message: a },
        5 => DbError::NoOverload { what: a },
        6 => DbError::AmbiguousOverload { what: a },
        7 => DbError::Type { message: a },
        8 => DbError::Execution { message: a },
        9 => DbError::MissingParam { name: a },
        10 => DbError::Constraint { message: a },
        11 => DbError::Persist { message: a },
        12 => DbError::Unavailable { message: a },
        13 => DbError::ReadOnly { primary: a },
        other => return Err(malformed(format!("unknown error code {other}"))),
    })
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Encodes a METRICS body: `u32 n`, then `n × (field name, u64)`, then
/// the latency histogram (`u32` bucket count + that many `u64`s). The
/// names come from the one metric table in `minidb::obs`.
pub fn encode_metrics(m: &MetricsSnapshot) -> Vec<u8> {
    let fields = m.fields();
    let mut out = Vec::with_capacity(fields.len() * 32 + 4 + LATENCY_BUCKETS * 8);
    out.put_u32_le(fields.len() as u32);
    for (name, value) in fields {
        put_str(&mut out, name);
        out.put_u64_le(value);
    }
    out.put_u32_le(LATENCY_BUCKETS as u32);
    for b in &m.latency_buckets {
        out.put_u64_le(*b);
    }
    out
}

/// Decodes a METRICS body. The frame describes itself, so peers whose
/// metric tables differ still interoperate: a name this build does not
/// know is skipped, and one the peer did not send stays zero.
pub fn decode_metrics(mut buf: &[u8]) -> DbResult<MetricsSnapshot> {
    need(&buf, 4, "METRICS")?;
    let n = buf.get_u32_le();
    let mut m = MetricsSnapshot::default();
    for _ in 0..n {
        let name = get_str(&mut buf, "METRICS field name")?;
        need(&buf, 8, "METRICS field value")?;
        m.set_field(&name, buf.get_u64_le());
    }
    need(&buf, 4, "METRICS bucket count")?;
    let nbuckets = buf.get_u32_le() as usize;
    if nbuckets != LATENCY_BUCKETS {
        return Err(malformed(format!(
            "peer reports {nbuckets} latency buckets, this build has {LATENCY_BUCKETS}"
        )));
    }
    need(&buf, nbuckets * 8, "METRICS buckets")?;
    for b in m.latency_buckets.iter_mut() {
        *b = buf.get_u64_le();
    }
    expect_empty(buf, "METRICS")?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::Database;
    use tip_blade::TipBlade;
    use tip_core::{Chronon, Element, Instant, Period, Span};

    fn registry() -> (std::sync::Arc<Database>, TipTypes) {
        let db = Database::new();
        db.install_blade(&TipBlade).unwrap();
        let types = db.with_catalog(TipTypes::from_catalog).unwrap();
        (db, types)
    }

    fn no_display(_: &Value) -> String {
        panic!("display should not be needed for native kinds")
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, req::STMT, b"hello").unwrap();
        let (tag, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, req::STMT);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn frame_rejects_bad_lengths() {
        // Zero length.
        let z = 0u32.to_le_bytes().to_vec();
        assert_eq!(
            read_frame(&mut z.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Oversized length.
        let big = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        assert_eq!(
            read_frame(&mut big.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Clean close at a frame boundary.
        assert_eq!(
            read_frame(&mut [].as_slice()).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Three frames of varying sizes for reassembly tests.
    fn sample_frames() -> (Vec<u8>, Vec<(u8, Vec<u8>)>) {
        let frames = vec![
            (req::HELLO, b"h".to_vec()),
            (req::STMT, vec![0xAB; 300]),
            (req::BYE, Vec::new()),
        ];
        let mut wire = Vec::new();
        for (tag, body) in &frames {
            write_frame(&mut wire, *tag, body).unwrap();
        }
        (wire, frames)
    }

    #[test]
    fn accumulator_reassembles_at_every_byte_boundary() {
        let (wire, frames) = sample_frames();
        // Every split point: bytes [0, split) then [split, len).
        for split in 0..=wire.len() {
            let mut acc = FrameAccumulator::new();
            acc.extend(&wire[..split]);
            let mut got = Vec::new();
            while let Some(f) = acc.next_frame().unwrap() {
                got.push(f);
            }
            acc.extend(&wire[split..]);
            while let Some(f) = acc.next_frame().unwrap() {
                got.push(f);
            }
            assert_eq!(got, frames, "split at byte {split}");
            assert!(!acc.has_partial());
        }
    }

    #[test]
    fn accumulator_handles_byte_at_a_time_and_coalesced() {
        let (wire, frames) = sample_frames();
        // One byte per extend.
        let mut acc = FrameAccumulator::new();
        let mut got = Vec::new();
        for b in &wire {
            acc.extend(std::slice::from_ref(b));
            while let Some(f) = acc.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        // All frames coalesced into one extend.
        let mut acc = FrameAccumulator::new();
        acc.extend(&wire);
        let mut got = Vec::new();
        while let Some(f) = acc.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn accumulator_poisons_on_bad_length() {
        for bad in [0u32, (MAX_FRAME + 1) as u32] {
            let mut acc = FrameAccumulator::new();
            acc.extend(&bad.to_le_bytes());
            assert!(acc.next_frame().is_err());
            // Sticky: even appending a valid frame cannot revive it.
            let mut good = Vec::new();
            write_frame(&mut good, req::BYE, &[]).unwrap();
            acc.extend(&good);
            assert!(acc.next_frame().is_err());
        }
    }

    #[test]
    fn accumulator_residual_carries_unparsed_tail() {
        let (wire, _) = sample_frames();
        let mut acc = FrameAccumulator::new();
        acc.extend(&wire[..7]);
        let first = acc.next_frame().unwrap().unwrap();
        assert_eq!(first.0, req::HELLO);
        assert_eq!(acc.into_residual(), wire[6..7].to_vec());
    }

    #[test]
    fn hello_round_trip() {
        for now in [None, Some(946_684_800i64), Some(-5)] {
            let h = Hello {
                version: VERSION,
                now_unix: now,
            };
            assert_eq!(decode_hello(&encode_hello(&h)).unwrap(), h);
        }
        assert!(decode_hello(b"nope").is_err());
        let mut bad = encode_hello(&Hello {
            version: 1,
            now_unix: None,
        });
        bad[0] ^= 0xff; // corrupt the magic
        assert!(decode_hello(&bad).is_err());
    }

    #[test]
    fn value_round_trips_every_kind() {
        let (_db, types) = registry();
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("Mr.Showbiz".into()),
            types.chronon(Chronon::from_ymd(1999, 10, 1).unwrap()),
            types.span(Span::from_hours(8)),
            types.instant(Instant::NowRelative(Span::from_days(-7))),
            types.period(Period::fixed(
                Chronon::from_ymd(1999, 1, 1).unwrap(),
                Chronon::from_ymd(1999, 12, 31).unwrap(),
            )),
            types.element(Element::from_periods(vec![])),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            encode_value(v, &no_display, &mut buf);
            let back = decode_value(&mut buf.as_slice(), &types).unwrap();
            // Compare through the engine's display-independent accessors.
            match v {
                Value::Udt(_) => {
                    assert_eq!(as_chronon(v), as_chronon(&back));
                    assert_eq!(as_span(v), as_span(&back));
                    assert_eq!(as_instant(v), as_instant(&back));
                    assert_eq!(as_period(v), as_period(&back));
                    assert_eq!(as_element(v), as_element(&back));
                }
                _ => assert_eq!(v, &back),
            }
        }
    }

    #[test]
    fn stmt_round_trip() {
        let (_db, types) = registry();
        let params: Vec<(&str, Value)> = vec![
            ("w", types.span(Span::from_days(14))),
            ("who", Value::Str("Mr.Showbiz".into())),
        ];
        let body = encode_stmt("SELECT * FROM rx WHERE f > :w", &params, &no_display);
        let stmt = decode_stmt(&body, &types).unwrap();
        assert_eq!(stmt.sql, "SELECT * FROM rx WHERE f > :w");
        assert_eq!(stmt.params.len(), 2);
        assert_eq!(as_span(&stmt.params[0].1), Some(Span::from_days(14)));
        // Truncation anywhere must error, never panic.
        for cut in 0..body.len() {
            assert!(decode_stmt(&body[..cut], &types).is_err());
        }
    }

    #[test]
    fn error_codes_round_trip() {
        let errors = vec![
            DbError::Syntax {
                pos: 7,
                message: "unexpected ')'".into(),
            },
            DbError::NotFound {
                kind: "table",
                name: "rx".into(),
            },
            DbError::AlreadyExists {
                kind: "index",
                name: "i".into(),
            },
            DbError::binding("x"),
            DbError::NoOverload {
                what: "f(Int)".into(),
            },
            DbError::AmbiguousOverload { what: "g".into() },
            DbError::type_err("t"),
            DbError::exec("e"),
            DbError::MissingParam { name: "w".into() },
            DbError::Constraint {
                message: "c".into(),
            },
            DbError::Persist {
                message: "p".into(),
            },
            DbError::unavailable("shutting down"),
            DbError::read_only("127.0.0.1:5432"),
        ];
        for e in &errors {
            assert_eq!(&decode_error(&encode_error(e)).unwrap(), e);
        }
        // Unknown kinds intern to "object" rather than leaking memory.
        let body = encode_error(&DbError::NotFound {
            kind: "table",
            name: "t".into(),
        });
        // Patch the kind string ("table" at offset 9+4) to something unknown.
        let mut patched = body.clone();
        patched[13..18].copy_from_slice(b"gizmo");
        match decode_error(&patched).unwrap() {
            DbError::NotFound { kind, .. } => assert_eq!(kind, "object"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = MetricsSnapshot {
            selects: 3,
            rows_returned: 99,
            rows_affected: 12,
            dml_nanos: 4_000,
            lock_wait_nanos: 2_500,
            tables_pinned: 6,
            plan_cache_hits: 41,
            plan_cache_misses: 5,
            plan_cache_invalidations: 2,
            plan_cache_entries: 3,
            vectorized_batches: 8,
            wal_commits: 2,
            wal_recovery_micros: 150,
            mvcc_retention: 64,
            bufpool_pages: 5,
            ..Default::default()
        };
        m.latency_buckets[0] = 1;
        m.latency_buckets[LATENCY_BUCKETS - 1] = 7;
        let back = decode_metrics(&encode_metrics(&m)).unwrap();
        assert_eq!(back, m);
        let body = encode_metrics(&m);
        for cut in 0..body.len() {
            assert!(decode_metrics(&body[..cut]).is_err());
        }
    }

    #[test]
    fn metrics_frame_tolerates_unknown_and_missing_names() {
        let sent = MetricsSnapshot {
            selects: 9,
            inserts: 5,
            ..Default::default()
        };
        let mut body = encode_metrics(&sent);
        // The peer's table calls one row "insertz": a name this build
        // has never heard of arrives, and "inserts" does not.
        let at = body.windows(7).position(|w| w == b"inserts").unwrap();
        body[at + 6] = b'z';
        let want = MetricsSnapshot {
            selects: 9,
            ..Default::default()
        };
        assert_eq!(decode_metrics(&body).unwrap(), want);
        body.push(0);
        assert!(decode_metrics(&body).is_err(), "trailing bytes");
    }

    #[test]
    fn hello_reply_accepts_only_hello_ok_at_this_version() {
        assert!(hello_reply(resp::HELLO_OK, &encode_hello_ok(VERSION, "x")).is_ok());
        for other in [0, VERSION - 1, VERSION + 1, u16::MAX] {
            let reply = hello_reply(resp::HELLO_OK, &encode_hello_ok(other, "x"));
            assert!(matches!(reply, Err(DbError::Unavailable { .. })), "{other}");
        }
        let busy = hello_reply(resp::BUSY, &encode_busy("full"));
        assert_eq!(busy, Err(DbError::unavailable("full")));
        let refused = DbError::read_only("10.0.0.1:4000");
        let reply = hello_reply(resp::ERROR, &encode_error(&refused));
        assert_eq!(reply, Err(refused));
        assert!(hello_reply(resp::DONE, &[]).is_err());
    }

    #[test]
    fn replication_frames_round_trip() {
        assert_eq!(
            decode_subscribe(&encode_subscribe(3, 4096)).unwrap(),
            (3, 4096)
        );
        assert_eq!(
            decode_repl_ack(&encode_repl_ack(3, 4096, 77)).unwrap(),
            (3, 4096, 77)
        );
        assert_eq!(
            decode_snapshot_chunk(&encode_snapshot_chunk(2, false, b"abc")).unwrap(),
            (2, false, b"abc".to_vec())
        );
        assert_eq!(
            decode_snapshot_chunk(&encode_snapshot_chunk(2, true, b"")).unwrap(),
            (2, true, Vec::new())
        );
        assert_eq!(
            decode_wal_chunk(&encode_wal_chunk(2, 16, 9, b"\x01\x02")).unwrap(),
            (2, 16, 9, vec![1, 2])
        );
        // Heartbeat: caught up, no bytes, live watermark.
        assert_eq!(
            decode_wal_chunk(&encode_wal_chunk(2, 160, 12, b"")).unwrap(),
            (2, 160, 12, Vec::new())
        );
        // Truncations are typed errors, never panics.
        let body = encode_wal_chunk(1, 2, 3, b"xyz");
        for cut in 0..24 {
            assert!(decode_wal_chunk(&body[..cut]).is_err());
        }
        assert!(decode_subscribe(&encode_subscribe(1, 2)[..7]).is_err());
        assert!(decode_repl_ack(&encode_repl_ack(1, 2, 3)[..23]).is_err());
        assert!(decode_snapshot_chunk(&[0; 8]).is_err());
    }

    #[test]
    fn row_batch_builder_splits_on_byte_budget() {
        let (_db, types) = registry();
        let row = |s: &str| vec![Value::Int(1), Value::Str(s.into())];
        // Each encoded row: 1+8 (int) + 1+4+len (str) = 14+len bytes.
        let mut b = RowBatchBuilder::new(2 + 2 * (14 + 10));
        assert_eq!(b.push(&row(&"x".repeat(10)), &no_display), RowPush::Added);
        assert_eq!(b.push(&row(&"y".repeat(10)), &no_display), RowPush::Added);
        assert_eq!(
            b.push(&row(&"z".repeat(10)), &no_display),
            RowPush::BatchFull,
            "third row exceeds the budget"
        );
        assert_eq!(b.rows(), 2, "the rejected row left the batch intact");
        let body = b.finish();
        let back = decode_row_batch(&body, 2, &types).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0][1], Value::Str("x".repeat(10)));
        assert_eq!(back[1][1], Value::Str("y".repeat(10)));

        // A row that alone busts the budget is reported, not split.
        let mut b = RowBatchBuilder::new(16);
        match b.push(&row(&"w".repeat(64)), &no_display) {
            RowPush::RowTooBig(bytes) => assert_eq!(bytes, 14 + 64),
            other => panic!("unexpected {other:?}"),
        }
        assert!(b.is_empty());
        // An empty finished batch is still a valid (zero-row) body.
        let back = decode_row_batch(&b.finish(), 2, &types).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn prepare_frames_round_trip() {
        let sql = "SELECT * FROM t WHERE id = :id";
        assert_eq!(decode_prepare(&encode_prepare(sql)).unwrap(), sql);
        assert_eq!(decode_prepared_ok(&encode_prepared_ok(7)).unwrap(), 7);
        assert_eq!(
            decode_close_prepared(&encode_close_prepared(u64::MAX)).unwrap(),
            u64::MAX
        );

        let (_db, types) = registry();
        let params: Vec<(&str, Value)> =
            vec![("id", Value::Int(42)), ("who", Value::Str("ada".into()))];
        let body = encode_execute_prepared(9, &params, &no_display);
        let (id, back) = decode_execute_prepared(&body, &types).unwrap();
        assert_eq!(id, 9);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], ("id".to_string(), Value::Int(42)));
        assert_eq!(back[1], ("who".to_string(), Value::Str("ada".into())));
        // Every truncation is a typed decode error, never a panic.
        for cut in 0..body.len() {
            assert!(decode_execute_prepared(&body[..cut], &types).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = body.clone();
        long.push(0);
        assert!(decode_execute_prepared(&long, &types).is_err());
    }

    #[test]
    fn prepared_statement_kind_survives_the_wire() {
        let body = encode_error(&DbError::NotFound {
            kind: "prepared statement",
            name: "42".into(),
        });
        match decode_error(&body).unwrap() {
            DbError::NotFound { kind, name } => {
                assert_eq!(kind, "prepared statement");
                assert_eq!(name, "42");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rows_header_and_batch_round_trip() {
        let (_db, types) = registry();
        let columns = vec![
            ("patient".to_string(), DataType::Str),
            ("dob".to_string(), DataType::Udt(types.chronon)),
            ("n".to_string(), DataType::Int),
        ];
        let header = encode_rows_header(&columns, &types);
        assert_eq!(decode_rows_header(&header, &types).unwrap(), columns);

        let rows: Vec<minidb::Row> = vec![
            vec![
                Value::Str("a".into()),
                types.chronon(Chronon::from_ymd(1965, 4, 2).unwrap()),
                Value::Int(1),
            ],
            vec![Value::Str("b".into()), Value::Null, Value::Int(2)],
        ];
        let batch = encode_row_batch(&rows, &no_display, &types);
        let back = decode_row_batch(&batch, columns.len(), &types).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(as_chronon(&back[0][1]), Chronon::from_ymd(1965, 4, 2).ok());
        assert_eq!(back[1][1], Value::Null);
    }
}
