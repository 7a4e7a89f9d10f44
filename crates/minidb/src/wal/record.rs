//! WAL record framing: length-prefixed, CRC32-checksummed records.
//!
//! On-disk layout of one log file:
//!
//! ```text
//! header:  "TIPWAL01" (8 bytes) | generation u64le
//! record:  len u32le | crc32 u32le | payload (len bytes)
//! payload: kind u8 | body
//! ```
//!
//! The CRC covers only the payload. Record kinds:
//!
//! | kind | body                                             |
//! |------|--------------------------------------------------|
//! | 1 BEGIN  | txn u64le                                    |
//! | 2 COMMIT | txn u64le                                    |
//! | 3 DDL    | sql string                                   |
//! | 4 INSERT | table string, rowid u64le, ncols u32le, vals |
//! | 5 UPDATE | table string, rowid u64le, ncols u32le, vals |
//! | 6 DELETE | table string, rowid u64le                    |
//!
//! Values reuse the snapshot value codec ([`crate::storage`]): UDTs go
//! through their type's binary encode/decode support functions, keyed by
//! type *name* (ids are not stable across processes). Row ids are logged
//! explicitly — the slotted heap's allocation is deterministic, but
//! replay addressing by id is robust against any future change to the
//! free-list policy.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::storage::{decode_value, encode_value, get_str, put_str};
use crate::value::Row;
use bytes::{Buf, BufMut};

/// Magic prefix of every log file.
pub const LOG_MAGIC: &[u8; 8] = b"TIPWAL01";

/// Log header length: magic + generation.
pub const LOG_HEADER_LEN: usize = 8 + 8;

/// Upper bound on a single record's payload; a length field above this
/// is treated as corruption, not as a record to allocate for.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_DDL: u8 = 3;
const KIND_INSERT: u8 = 4;
const KIND_UPDATE: u8 = 5;
const KIND_DELETE: u8 = 6;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Begin {
        txn: u64,
    },
    Commit {
        txn: u64,
    },
    /// A DDL statement, stored as SQL text and replayed through the SQL
    /// front end (the statement parsed successfully when it was logged).
    Ddl {
        sql: String,
    },
    Insert {
        table: String,
        rowid: u64,
        row: Row,
    },
    Update {
        table: String,
        rowid: u64,
        row: Row,
    },
    Delete {
        table: String,
        rowid: u64,
    },
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------

/// Slice-by-16 tables: `T[0]` is the byte-at-a-time table, and `T[k][b]`
/// is the register after byte `b` and then `k` zero bytes, so sixteen
/// table lookups fold a 16-byte block.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Folds `data` into a running CRC32 register (start from `!0`, invert
/// at the end), sixteen bytes per step, so a checksum can span pieces.
pub fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let x = u128::from_le_bytes(*block) ^ c as u128;
        c = (0..16).fold(0, |acc, i| acc ^ t[15 - i][(x >> (8 * i)) as u8 as usize]);
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Writes a log-file header for `generation`.
pub fn encode_header(generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(LOG_HEADER_LEN);
    out.put_slice(LOG_MAGIC);
    out.put_u64_le(generation);
    out
}

/// Parses a log-file header, returning the generation.
pub fn decode_header(bytes: &[u8]) -> DbResult<u64> {
    if bytes.len() < LOG_HEADER_LEN || &bytes[..8] != LOG_MAGIC {
        return Err(DbError::Persist {
            message: "bad WAL header".into(),
        });
    }
    let mut buf = &bytes[8..LOG_HEADER_LEN];
    Ok(buf.get_u64_le())
}

fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(payload));
    out.put_slice(payload);
}

/// Accumulates one statement's records as a single framed byte chunk:
/// BEGIN, the statement's row/DDL records, then COMMIT on
/// [`TxnBuilder::finish`]. The whole chunk is appended to the log
/// atomically (one buffer extend under the WAL lock), so records of
/// concurrent statements never interleave.
pub struct TxnBuilder<'a> {
    cat: &'a Catalog,
    buf: Vec<u8>,
    records: u64,
    txn: u64,
}

impl<'a> TxnBuilder<'a> {
    /// Starts a transaction chunk with a BEGIN record.
    pub fn new(cat: &'a Catalog, txn: u64) -> TxnBuilder<'a> {
        let mut b = TxnBuilder {
            cat,
            buf: Vec::with_capacity(128),
            records: 0,
            txn,
        };
        let mut payload = Vec::with_capacity(9);
        payload.put_u8(KIND_BEGIN);
        payload.put_u64_le(txn);
        frame(&mut b.buf, &payload);
        b.records += 1;
        b
    }

    fn row_record(&mut self, kind: u8, table: &str, rowid: u64, row: &Row) -> DbResult<()> {
        let mut payload = Vec::with_capacity(32 + row.len() * 8);
        payload.put_u8(kind);
        put_str(&mut payload, table);
        payload.put_u64_le(rowid);
        payload.put_u32_le(row.len() as u32);
        for v in row {
            encode_value(self.cat, v, &mut payload)?;
        }
        frame(&mut self.buf, &payload);
        self.records += 1;
        Ok(())
    }

    /// Records an inserted row.
    pub fn insert(&mut self, table: &str, rowid: u64, row: &Row) -> DbResult<()> {
        self.row_record(KIND_INSERT, table, rowid, row)
    }

    /// Records a row replacement.
    pub fn update(&mut self, table: &str, rowid: u64, row: &Row) -> DbResult<()> {
        self.row_record(KIND_UPDATE, table, rowid, row)
    }

    /// Records a row deletion.
    pub fn delete(&mut self, table: &str, rowid: u64) -> DbResult<()> {
        let mut payload = Vec::with_capacity(16 + table.len());
        payload.put_u8(KIND_DELETE);
        put_str(&mut payload, table);
        payload.put_u64_le(rowid);
        frame(&mut self.buf, &payload);
        self.records += 1;
        Ok(())
    }

    /// Records a DDL statement by its SQL text.
    pub fn ddl(&mut self, sql: &str) -> DbResult<()> {
        let mut payload = Vec::with_capacity(5 + sql.len());
        payload.put_u8(KIND_DDL);
        put_str(&mut payload, sql);
        frame(&mut self.buf, &payload);
        self.records += 1;
        Ok(())
    }

    /// Number of records framed so far (including BEGIN).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends the COMMIT record and returns the framed chunk plus its
    /// total record count.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        let mut payload = Vec::with_capacity(9);
        payload.put_u8(KIND_COMMIT);
        payload.put_u64_le(self.txn);
        frame(&mut self.buf, &payload);
        self.records += 1;
        (self.buf, self.records)
    }
}

// ---------------------------------------------------------------------
// Decoding / scanning
// ---------------------------------------------------------------------

/// Decodes one record payload (the bytes the CRC covered).
pub fn decode_payload(cat: &Catalog, payload: &[u8]) -> DbResult<WalRecord> {
    let mut buf = payload;
    if buf.remaining() < 1 {
        return Err(DbError::Persist {
            message: "empty WAL record".into(),
        });
    }
    let kind = buf.get_u8();
    let rec = match kind {
        KIND_BEGIN | KIND_COMMIT => {
            if buf.remaining() < 8 {
                return Err(DbError::Persist {
                    message: "truncated txn id".into(),
                });
            }
            let txn = buf.get_u64_le();
            if kind == KIND_BEGIN {
                WalRecord::Begin { txn }
            } else {
                WalRecord::Commit { txn }
            }
        }
        KIND_DDL => WalRecord::Ddl {
            sql: get_str(&mut buf)?,
        },
        KIND_INSERT | KIND_UPDATE => {
            let table = get_str(&mut buf)?;
            if buf.remaining() < 12 {
                return Err(DbError::Persist {
                    message: "truncated row record".into(),
                });
            }
            let rowid = buf.get_u64_le();
            let ncols = buf.get_u32_le() as usize;
            let mut row = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                row.push(decode_value(cat, &mut buf)?);
            }
            if kind == KIND_INSERT {
                WalRecord::Insert { table, rowid, row }
            } else {
                WalRecord::Update { table, rowid, row }
            }
        }
        KIND_DELETE => {
            let table = get_str(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(DbError::Persist {
                    message: "truncated delete record".into(),
                });
            }
            WalRecord::Delete {
                table,
                rowid: buf.get_u64_le(),
            }
        }
        k => {
            return Err(DbError::Persist {
                message: format!("unknown WAL record kind {k}"),
            })
        }
    };
    if buf.has_remaining() {
        return Err(DbError::Persist {
            message: "trailing bytes in WAL record".into(),
        });
    }
    Ok(rec)
}

/// How a scan of a log's record region ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanEnd {
    /// Every byte was consumed by valid records.
    Clean,
    /// A torn/truncated tail: the bytes from `good_end` on do not form a
    /// complete valid record and nothing valid follows them. They are
    /// the expected residue of a crash mid-append and are discarded.
    TornTail { good_end: usize, bytes: usize },
    /// A record failed its CRC (or is structurally impossible) *before*
    /// the end of the file: real corruption, not a torn append.
    Corrupt { offset: usize, reason: String },
}

/// Result of scanning one log file's record region.
#[derive(Debug)]
pub struct LogScan {
    /// CRC-validated payloads, in log order.
    pub payloads: Vec<Vec<u8>>,
    pub end: ScanEnd,
}

/// Walks the record region of a log (everything after the header),
/// CRC-checking each record. Stops at the first invalid frame and
/// classifies it: a tail that simply ends (short frame, or a bad CRC on
/// the file's final record) is a torn append; a bad record *followed by
/// more data* is mid-log corruption.
pub fn scan_records(region: &[u8]) -> LogScan {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while off < region.len() {
        let rest = &region[off..];
        if rest.len() < 8 {
            return LogScan {
                payloads,
                end: ScanEnd::TornTail {
                    good_end: off,
                    bytes: rest.len(),
                },
            };
        }
        let mut hdr = rest;
        let len = hdr.get_u32_le();
        let crc = hdr.get_u32_le();
        if len == 0 || len > MAX_RECORD_LEN {
            // A garbage length field. A torn append writes a prefix of
            // real bytes, so a nonsense length mid-file is corruption;
            // at the very tail (e.g. zero fill) treat it as torn.
            let end = if rest[8..].iter().all(|&b| b == 0) || len == 0 {
                ScanEnd::TornTail {
                    good_end: off,
                    bytes: rest.len(),
                }
            } else {
                ScanEnd::Corrupt {
                    offset: off,
                    reason: format!("implausible record length {len}"),
                }
            };
            return LogScan { payloads, end };
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            // Incomplete final record: torn append.
            return LogScan {
                payloads,
                end: ScanEnd::TornTail {
                    good_end: off,
                    bytes: rest.len(),
                },
            };
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            let end = if off + 8 + len == region.len() {
                // The file's very last record: a torn write of its tail.
                ScanEnd::TornTail {
                    good_end: off,
                    bytes: rest.len(),
                }
            } else {
                ScanEnd::Corrupt {
                    offset: off,
                    reason: "CRC mismatch with valid data following".into(),
                }
            };
            return LogScan { payloads, end };
        }
        payloads.push(payload.to_vec());
        off += 8 + len;
    }
    LogScan {
        payloads,
        end: ScanEnd::Clean,
    }
}

/// Length of the leading *whole* frames in `bytes` — the largest prefix
/// ending exactly on a frame boundary. Replication uses this to trim a
/// byte-bounded log read so it never ships a split frame.
pub fn whole_frames_len(bytes: &[u8]) -> usize {
    let mut off = 0usize;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        if len == 0 || len > MAX_RECORD_LEN {
            break;
        }
        let len = len as usize;
        if bytes.len() - off < 8 + len {
            break;
        }
        off += 8 + len;
    }
    off
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// The word-wide CRC equals the bitwise definition at every length
    /// and split point (every remainder length, pieces across words).
    #[test]
    fn crc32_word_steps_match_the_bitwise_definition() {
        let bitwise = |data: &[u8]| {
            let mut c = !0u32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        };
        let data: Vec<u8> = (0..67u32).map(|i| (i * 151 + 7) as u8).collect();
        for n in 0..=data.len() {
            let want = bitwise(&data[..n]);
            assert_eq!(crc32(&data[..n]), want, "length {n}");
            for cut in 0..=n {
                let c = crc32_update(crc32_update(!0, &data[..cut]), &data[cut..n]);
                assert_eq!(!c, want, "length {n} split at {cut}");
            }
        }
    }

    #[test]
    fn header_round_trip() {
        let h = encode_header(42);
        assert_eq!(h.len(), LOG_HEADER_LEN);
        assert_eq!(decode_header(&h).unwrap(), 42);
        assert!(decode_header(&h[..10]).is_err());
        let mut bad = h.clone();
        bad[0] = b'X';
        assert!(decode_header(&bad).is_err());
    }

    #[test]
    fn txn_chunk_round_trips() {
        let cat = Catalog::new();
        let mut b = TxnBuilder::new(&cat, 7);
        b.ddl("CREATE TABLE t (a INT)").unwrap();
        b.insert("t", 0, &vec![Value::Int(1)]).unwrap();
        b.update("t", 0, &vec![Value::Int(2)]).unwrap();
        b.delete("t", 0).unwrap();
        let (chunk, n) = b.finish();
        assert_eq!(n, 6);

        let scan = scan_records(&chunk);
        assert_eq!(scan.end, ScanEnd::Clean);
        let recs: Vec<WalRecord> = scan
            .payloads
            .iter()
            .map(|p| decode_payload(&cat, p).unwrap())
            .collect();
        assert_eq!(recs[0], WalRecord::Begin { txn: 7 });
        assert_eq!(
            recs[1],
            WalRecord::Ddl {
                sql: "CREATE TABLE t (a INT)".into()
            }
        );
        assert_eq!(
            recs[2],
            WalRecord::Insert {
                table: "t".into(),
                rowid: 0,
                row: vec![Value::Int(1)]
            }
        );
        assert_eq!(
            recs[4],
            WalRecord::Delete {
                table: "t".into(),
                rowid: 0
            }
        );
        assert_eq!(recs[5], WalRecord::Commit { txn: 7 });
    }

    #[test]
    fn torn_tail_is_classified_not_fatal() {
        let cat = Catalog::new();
        let (chunk, _) = {
            let mut b = TxnBuilder::new(&cat, 1);
            b.insert("t", 0, &vec![Value::Int(1)]).unwrap();
            b.finish()
        };
        // Every strict prefix scans as Clean records + TornTail (or no
        // records at all) — never Corrupt.
        for cut in 0..chunk.len() {
            let scan = scan_records(&chunk[..cut]);
            match scan.end {
                ScanEnd::Clean | ScanEnd::TornTail { .. } => {}
                ScanEnd::Corrupt { offset, ref reason } => {
                    panic!("prefix {cut} classified corrupt at {offset}: {reason}")
                }
            }
        }
    }

    #[test]
    fn midlog_corruption_is_loud() {
        let cat = Catalog::new();
        let mut chunk = {
            let mut b = TxnBuilder::new(&cat, 1);
            b.insert("t", 0, &vec![Value::Int(1)]).unwrap();
            b.insert("t", 1, &vec![Value::Int(2)]).unwrap();
            b.finish().0
        };
        // Flip a payload byte of the *first* record: later records are
        // intact, so this must be Corrupt, not TornTail.
        chunk[9] ^= 0xFF;
        let scan = scan_records(&chunk);
        assert!(
            matches!(scan.end, ScanEnd::Corrupt { offset: 0, .. }),
            "{:?}",
            scan.end
        );
        assert!(scan.payloads.is_empty());
    }

    #[test]
    fn bad_crc_on_final_record_is_torn() {
        let cat = Catalog::new();
        let mut chunk = {
            let mut b = TxnBuilder::new(&cat, 1);
            b.insert("t", 0, &vec![Value::Int(1)]).unwrap();
            b.finish().0
        };
        let last = chunk.len() - 1;
        chunk[last] ^= 0xFF;
        let scan = scan_records(&chunk);
        assert!(
            matches!(scan.end, ScanEnd::TornTail { .. }),
            "{:?}",
            scan.end
        );
        assert_eq!(scan.payloads.len(), 2, "BEGIN and INSERT still decode");
    }
}
