//! What one request frame does: decode it, run it against the
//! connection's session, and encode the reply frames into the outbox.
//! The connection's reactor calls [`dispatch`] on its own thread.

use crate::conn::{ExecState, Outbox, SPILL_BYTES};
use crate::Shared;
use minidb::{DbError, Session, StatementOutcome, Value};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use tip_client::protocol::{self, req, resp};

/// Prepared statements one connection may hold open at once.
const MAX_PREPARED_PER_CONN: usize = 256;

/// What running one request decided about the connection's future.
pub(crate) enum Action {
    /// Run the next request.
    Continue,
    /// Close once the outbox drains (BYE, protocol fault, Shut).
    Close,
    /// A committed write's DONE or AFFECTED (`reply`, already framed)
    /// waits until every acking replica covers commit `seq`.
    Hold { reply: Vec<u8>, seq: u64 },
    /// Hand the connection to a replication subscriber thread.
    Detach { generation: u64, offset: u64 },
}

/// Reply frames go straight into the connection's outbox; a huge result
/// set flushes as it encodes.
pub(crate) struct Emitter<'a> {
    pub out: &'a mut Outbox,
    pub stream: &'a TcpStream,
}

impl Emitter<'_> {
    fn frame(&mut self, tag: u8, body: &[u8]) {
        self.out.frame(tag, body);
    }

    fn error(&mut self, e: &DbError) {
        self.out.error(e);
    }

    /// Mid-stream flush for large result sets.
    fn spill_if_large(&mut self) {
        if self.out.pending() >= SPILL_BYTES {
            self.out.flush(self.stream);
        }
    }
}

/// Handles one request frame, emitting response frames. An
/// undecodable body or an unknown tag answers ERROR and closes; a
/// statement-level error keeps the connection up.
pub(crate) fn dispatch(
    shared: &Shared,
    exec: &mut ExecState,
    em: &mut Emitter<'_>,
    tag: u8,
    body: &[u8],
) -> Action {
    match tag {
        req::STMT => {
            let stmt = match protocol::decode_stmt(body, &shared.types) {
                Ok(s) => s,
                Err(e) => {
                    // Undecodable statement: the stream itself is suspect.
                    em.error(&e);
                    return Action::Close;
                }
            };
            run_statement(shared, &exec.session, em, &stmt.sql, &stmt.params)
        }
        req::PREPARE => {
            let sql = match protocol::decode_prepare(body) {
                Ok(s) => s,
                Err(e) => {
                    em.error(&e);
                    return Action::Close;
                }
            };
            if exec.prepared.len() >= MAX_PREPARED_PER_CONN {
                let e = DbError::unavailable(format!(
                    "too many prepared statements (limit {MAX_PREPARED_PER_CONN}); close some first"
                ));
                em.error(&e);
                return Action::Continue;
            }
            // Validate the text now so EXECUTE_PREPARED never trips a
            // parse error; planning stays lazy in the engine's cache.
            match exec.session.prepare(&sql) {
                // A bad statement is a statement-level error, not a
                // protocol fault: the connection stays up.
                Err(e) => em.error(&e),
                Ok(_) => {
                    let id = exec.next_prepared_id;
                    exec.next_prepared_id += 1;
                    exec.prepared.insert(id, sql);
                    em.frame(resp::PREPARED_OK, &protocol::encode_prepared_ok(id));
                }
            }
            Action::Continue
        }
        req::EXECUTE_PREPARED => {
            let (id, params) = match protocol::decode_execute_prepared(body, &shared.types) {
                Ok(x) => x,
                Err(e) => {
                    em.error(&e);
                    return Action::Close;
                }
            };
            let ExecState {
                session, prepared, ..
            } = exec;
            let Some(sql) = prepared.get(&id) else {
                let e = DbError::NotFound {
                    kind: "prepared statement",
                    name: id.to_string(),
                };
                em.error(&e);
                return Action::Continue;
            };
            run_statement(shared, session, em, sql, &params)
        }
        req::CLOSE_PREPARED => match protocol::decode_close_prepared(body) {
            Ok(id) => {
                // Idempotent: closing an unknown id is a no-op.
                exec.prepared.remove(&id);
                em.frame(resp::DONE, &[]);
                Action::Continue
            }
            Err(e) => {
                em.error(&e);
                Action::Close
            }
        },
        req::SET_NOW => match protocol::decode_set_now(body) {
            Ok(now) => {
                exec.session.set_now_unix(now);
                em.frame(resp::DONE, &[]);
                Action::Continue
            }
            Err(e) => {
                em.error(&e);
                Action::Close
            }
        },
        req::SESSION_STATS => {
            let snap = exec.session.metrics_snapshot();
            em.frame(resp::METRICS, &protocol::encode_metrics(&snap));
            Action::Continue
        }
        req::SERVER_METRICS => {
            let snap = shared.server_metrics();
            em.frame(resp::METRICS, &protocol::encode_metrics(&snap));
            Action::Continue
        }
        req::SUBSCRIBE => match protocol::decode_subscribe(body) {
            Ok((generation, offset)) => {
                // Reserve a subscriber slot atomically; subscribers have
                // their own cap and do not count against client
                // admission once detached.
                let prev = shared.stats.subscribers.fetch_add(1, Ordering::SeqCst);
                if prev >= shared.cfg.max_subscribers {
                    shared.stats.subscribers.fetch_sub(1, Ordering::SeqCst);
                    let e = DbError::unavailable(format!(
                        "too many replication subscribers (limit {})",
                        shared.cfg.max_subscribers
                    ));
                    em.error(&e);
                    return Action::Close;
                }
                Action::Detach { generation, offset }
            }
            Err(e) => {
                em.error(&e);
                Action::Close
            }
        },
        req::PROMOTE => {
            let handler = shared.promote.lock().unwrap();
            match handler.as_ref() {
                None => {
                    let e = DbError::unavailable("this node is not a replica: nothing to promote");
                    em.error(&e);
                }
                Some(f) => match f() {
                    Ok(_applied_seq) => em.frame(resp::DONE, &[]),
                    Err(e) => em.error(&e),
                },
            }
            Action::Continue
        }
        req::BYE => Action::Close,
        other => {
            em.error(&DbError::unavailable(format!(
                "unexpected request tag {other:#04x}"
            )));
            Action::Close
        }
    }
}

/// Executes one statement and emits its outcome; shared by STMT and
/// EXECUTE_PREPARED. Statement-level errors keep the connection up.
fn run_statement(
    shared: &Shared,
    session: &Session,
    em: &mut Emitter<'_>,
    sql: &str,
    params: &[(String, Value)],
) -> Action {
    let params: Vec<(&str, Value)> = params
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let (tag, body) = match session.execute_with_params(sql, &params) {
        Err(e) => {
            em.error(&e);
            return Action::Continue;
        }
        Ok(StatementOutcome::Rows(result)) => {
            stream_rows(shared, em, &result);
            return Action::Continue;
        }
        Ok(StatementOutcome::Done) => (resp::DONE, Vec::new()),
        Ok(StatementOutcome::Affected(n)) => (resp::AFFECTED, protocol::encode_affected(n as u64)),
    };
    // Semi-synchronous replication: a write's success frame waits until
    // every subscriber that has ever acked covers the durable watermark.
    let unacked = if shared.repl.is_empty() {
        None
    } else {
        shared.db.wal_progress().map(|p| p.seq)
    };
    match unacked {
        Some(seq) if !shared.repl.covers(seq) => {
            let mut reply = Vec::new();
            protocol::write_frame(&mut reply, tag, &body).expect("a reply frame fits");
            Action::Hold { reply, seq }
        }
        _ => {
            em.frame(tag, &body);
            Action::Continue
        }
    }
}

/// Slack left under [`protocol::MAX_FRAME`] for the frame length
/// prefix, the tag byte, and headroom against off-by-a-few drift.
const FRAME_SLACK: usize = 1024;

/// Emits a materialized result set: header, row batches, trailer.
///
/// Batches close on whichever bound hits first: `rows_per_batch` rows,
/// or the byte budget that keeps every frame under
/// [`protocol::MAX_FRAME`]. A single row too large for any frame is a
/// statement-level error (the client gets a typed ERROR mid-stream and
/// the connection survives). So is a header wider than its `u16`
/// column count, refused before any frame of the result is sent. Large
/// sets flush as they encode, so the outbox's copy stays bounded.
fn stream_rows(shared: &Shared, em: &mut Emitter<'_>, result: &minidb::QueryResult) {
    if let Err(e) = protocol::check_count(result.columns.len(), "result columns") {
        em.error(&e);
        return;
    }
    let display = |v: &Value| shared.db.with_catalog(|c| c.display_value(v));
    let header = protocol::encode_rows_header(&result.columns, &shared.types);
    em.frame(resp::ROWS_HEADER, &header);
    let max_rows = shared.cfg.rows_per_batch.max(1);
    let budget = protocol::MAX_FRAME - FRAME_SLACK;
    let mut batch = protocol::RowBatchBuilder::new(budget);
    for row in &result.rows {
        match batch.push(row, &display) {
            protocol::RowPush::Added => {}
            protocol::RowPush::BatchFull => {
                em.frame(resp::ROW_BATCH, &batch.finish());
                em.spill_if_large();
                batch = protocol::RowBatchBuilder::new(budget);
                // A row that fails even a fresh batch is unshippable.
                if let protocol::RowPush::RowTooBig(bytes) = batch.push(row, &display) {
                    row_too_big(em, bytes);
                    return;
                }
            }
            protocol::RowPush::RowTooBig(bytes) => {
                row_too_big(em, bytes);
                return;
            }
        }
        if batch.rows() >= max_rows {
            em.frame(resp::ROW_BATCH, &batch.finish());
            em.spill_if_large();
            batch = protocol::RowBatchBuilder::new(budget);
        }
    }
    if !batch.is_empty() {
        em.frame(resp::ROW_BATCH, &batch.finish());
    }
    // An empty result still sends header + trailer so the client sees
    // column names.
    em.frame(resp::ROWS_DONE, &[]);
}

/// Mid-stream refusal of a row no frame can carry: a typed ERROR ends
/// the result set, and the connection stays usable.
fn row_too_big(em: &mut Emitter<'_>, bytes: usize) {
    em.error(&DbError::exec(format!(
        "row of {bytes} bytes exceeds the {} byte frame limit",
        protocol::MAX_FRAME
    )));
}
