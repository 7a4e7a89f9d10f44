//! The fixed worker pool: executes queued statements and commits their
//! responses to the connection outbox.
//!
//! Workers never touch sockets in a blocking way — every response is
//! encoded into a local buffer, appended to the connection's outbox
//! under the queue→out locks, and flushed as far as the nonblocking
//! socket allows. A connection whose outbox exceeds the write budget
//! is *parked* (descheduled) rather than letting a stalled client pin
//! a worker; the reactor unparks it when EPOLLOUT drains the buffer.

use crate::conn::{flush_locked, ConnShared, Control, ControlQueue, Request};
use crate::{wait_replicas_acked, Shared};
use minidb::{DbError, StatementOutcome, Value};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use tip_client::protocol::{self, req, resp};

/// Prepared statements one connection may hold open at once.
const MAX_PREPARED_PER_CONN: usize = 256;

/// Emitter buffers larger than this spill to the outbox mid-statement,
/// bounding the duplicate copy while a huge result set streams.
const SPILL_BYTES: usize = 1 << 20;

/// Connections with runnable work, consumed by the worker pool.
pub(crate) struct RunQueue {
    inner: StdMutex<RunQueueInner>,
    ready: Condvar,
}

struct RunQueueInner {
    queue: VecDeque<Arc<ConnShared>>,
    stop: bool,
}

impl RunQueue {
    pub(crate) fn new() -> RunQueue {
        RunQueue {
            inner: StdMutex::new(RunQueueInner {
                queue: VecDeque::new(),
                stop: false,
            }),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, conn: Arc<ConnShared>) {
        self.inner.lock().unwrap().queue.push_back(conn);
        self.ready.notify_one();
    }

    /// Blocks for the next runnable connection. Even after `stop`,
    /// remaining work is handed out — `None` only once the queue is
    /// empty *and* stopped, so shutdown drains queued statements.
    pub(crate) fn pop(&self) -> Option<Arc<ConnShared>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(conn) = g.queue.pop_front() {
                return Some(conn);
            }
            if g.stop {
                return None;
            }
            g = self.ready.wait(g).unwrap();
        }
    }

    pub(crate) fn stop(&self) {
        self.inner.lock().unwrap().stop = true;
        self.ready.notify_all();
    }
}

/// What servicing one request decided about the connection's future.
enum Action {
    /// Keep servicing the queue.
    Continue,
    /// Close once the outbox drains (BYE, protocol fault, Shut).
    Close,
    /// Hand the connection to a replication subscriber thread.
    Detach { generation: u64, offset: u64 },
}

/// Response frames for the statement in flight, flushed to the outbox
/// at the statement's commit point (or spilled early when large).
struct Emitter<'a> {
    conn: &'a ConnShared,
    ctrl: &'a ControlQueue,
    buf: Vec<u8>,
}

impl<'a> Emitter<'a> {
    fn new(conn: &'a ConnShared, ctrl: &'a ControlQueue) -> Emitter<'a> {
        Emitter {
            conn,
            ctrl,
            buf: Vec::new(),
        }
    }

    fn frame(&mut self, tag: u8, body: &[u8]) {
        protocol::write_frame(&mut self.buf, tag, body)
            .expect("response frames stay under MAX_FRAME by construction");
    }

    fn error(&mut self, e: &DbError) {
        self.frame(resp::ERROR, &protocol::encode_error(e));
    }

    /// Mid-stream spill for large result sets.
    fn spill_if_large(&mut self) {
        if self.buf.len() >= SPILL_BYTES {
            self.conn.spill(&self.buf, self.ctrl);
            self.buf.clear();
        }
    }
}

pub(crate) fn worker_loop(shared: Arc<Shared>, runq: Arc<RunQueue>, ctrl: Arc<ControlQueue>) {
    while let Some(conn) = runq.pop() {
        service(&shared, &ctrl, &conn);
    }
}

/// Services one connection's queue until it empties, parks, closes, or
/// detaches. Exactly one worker runs this per connection at a time
/// (the `scheduled` flag), so statement order per connection is the
/// arrival order — the pipelining guarantee.
///
/// Pipelined statements are drained as a batch: their responses
/// accumulate in one emitter buffer and commit to the socket in a
/// single append + flush, so a burst of N small statements costs one
/// write syscall, not N.
fn service(shared: &Arc<Shared>, ctrl: &ControlQueue, conn: &Arc<ConnShared>) {
    loop {
        let mut em = Emitter::new(conn, ctrl);
        let mut action = Action::Continue;
        let mut processed = false;
        loop {
            let request = {
                let mut q = conn.queue.lock();
                match q.reqs.pop_front() {
                    Some(r) => {
                        if let Request::Frame(_, body) = &r {
                            q.queued_bytes = q.queued_bytes.saturating_sub(body.len());
                        }
                        Some(r)
                    }
                    None => {
                        if !processed {
                            q.scheduled = false;
                            return;
                        }
                        None
                    }
                }
            };
            let Some(request) = request else { break };
            processed = true;
            action = match request {
                Request::Frame(tag, body) => dispatch(shared, conn, &mut em, tag, &body),
                Request::Shut(err) => {
                    if let Some(e) = err {
                        em.error(&e);
                    }
                    Action::Close
                }
            };
            // Close/Detach end the batch; so does a buffer big enough
            // that holding more responses back stops paying for itself.
            if !matches!(action, Action::Continue) || em.buf.len() >= SPILL_BYTES {
                break;
            }
        }

        // Commit point: append + flush + park decision are atomic under
        // queue→out so the reactor's unpark path can't race us into a
        // stranded connection.
        let mut q = conn.queue.lock();
        let mut out = conn.out.lock();
        if !out.dead && !em.buf.is_empty() {
            out.buf.extend_from_slice(&em.buf);
        }
        flush_locked(&conn.wstream, &mut out);
        if out.dead {
            q.scheduled = false;
            drop(out);
            drop(q);
            ctrl.push(Control::Closing(conn.id));
            return;
        }
        let pending = out.pending();
        let mut need_pollout = false;
        if pending > 0 && !out.want_pollout {
            out.want_pollout = true;
            need_pollout = true;
        }
        match action {
            Action::Close => {
                out.closing = true;
                q.scheduled = false;
                drop(out);
                drop(q);
                ctrl.push(Control::Closing(conn.id));
                return;
            }
            Action::Detach { generation, offset } => {
                q.scheduled = false;
                q.detached = true;
                drop(out);
                drop(q);
                ctrl.push(Control::Detach {
                    conn: conn.id,
                    generation,
                    offset,
                });
                return;
            }
            Action::Continue => {}
        }
        let mut resume = false;
        let mut parked = false;
        if pending > shared.cfg.write_budget {
            q.parked = true;
            q.scheduled = false;
            parked = true;
            shared.stats.park_events.fetch_add(1, Ordering::Relaxed);
        } else if q.paused_read && q.can_resume(shared.cfg.max_pipeline) {
            q.paused_read = false;
            resume = true;
        }
        drop(out);
        drop(q);
        if need_pollout {
            ctrl.push(Control::Pollout(conn.id));
        }
        if resume {
            ctrl.push(Control::ResumeRead(conn.id));
        }
        if parked {
            return;
        }
    }
}

/// Handles one request frame, emitting response frames. Mirrors the
/// pre-reactor dispatch arm for arm: the same errors close (or keep)
/// the connection, byte for byte.
fn dispatch(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
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
            run_statement(shared, conn, em, &stmt.sql, &stmt.params)
        }
        req::PREPARE => {
            let sql = match protocol::decode_prepare(body) {
                Ok(s) => s,
                Err(e) => {
                    em.error(&e);
                    return Action::Close;
                }
            };
            let mut exec = conn.exec.lock();
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
            let sql = conn.exec.lock().prepared.get(&id).cloned();
            let Some(sql) = sql else {
                let e = DbError::NotFound {
                    kind: "prepared statement",
                    name: id.to_string(),
                };
                em.error(&e);
                return Action::Continue;
            };
            run_statement(shared, conn, em, &sql, &params)
        }
        req::CLOSE_PREPARED => match protocol::decode_close_prepared(body) {
            Ok(id) => {
                // Idempotent: closing an unknown id is a no-op.
                conn.exec.lock().prepared.remove(&id);
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
                conn.exec.lock().session.set_now_unix(now);
                em.frame(resp::DONE, &[]);
                Action::Continue
            }
            Err(e) => {
                em.error(&e);
                Action::Close
            }
        },
        req::SESSION_STATS => {
            let snap = conn.exec.lock().session.metrics_snapshot();
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
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    em: &mut Emitter<'_>,
    sql: &str,
    params: &[(String, Value)],
) -> Action {
    let params: Vec<(&str, Value)> = params
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let outcome = conn.exec.lock().session.execute_with_params(sql, &params);
    match outcome {
        Err(e) => em.error(&e),
        Ok(StatementOutcome::Done) => {
            wait_replicas_acked(shared);
            em.frame(resp::DONE, &[]);
        }
        Ok(StatementOutcome::Affected(n)) => {
            wait_replicas_acked(shared);
            em.frame(resp::AFFECTED, &protocol::encode_affected(n as u64));
        }
        Ok(StatementOutcome::Rows(result)) => stream_rows(shared, em, &result),
    }
    Action::Continue
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
/// sets spill to the outbox as they encode, so the worker-side copy
/// stays bounded.
fn stream_rows(shared: &Arc<Shared>, em: &mut Emitter<'_>, result: &minidb::QueryResult) {
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
