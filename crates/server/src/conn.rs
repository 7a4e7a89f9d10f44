//! One connection as its reactor owns it: the socket, the frame
//! accumulator, the request queue, the outbox and the session.
//!
//! A connection belongs to one reactor thread from accept to close (or
//! to its hand-off to a replication feed thread), so nothing here is
//! shared or locked. Its life on that thread is *batch, then run*: a
//! readiness event reads the socket and parses complete frames into the
//! queue, up to `max_pipeline` ([`Conn::read_input`]); then
//! [`Conn::run_batch`] runs the queue, puts every reply in the outbox
//! and sends them with one flush.

use crate::dispatch::{self, Action};
use crate::net::{Poller, EV_READ, EV_WRITE};
use crate::Shared;
use minidb::{DbError, Session};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;
use tip_client::protocol::{self, req, resp, FrameAccumulator};

/// Input-queue byte bound: reading pauses once the queued frame bodies
/// pass it. It must exceed MAX_FRAME or a single maximal frame could
/// never be queued.
const INPUT_BYTES_HIGH: usize = 32 << 20;

/// Outbox bytes past which a statement's reply is flushed while it is
/// still being encoded, bounding the copy a huge result set holds.
pub(crate) const SPILL_BYTES: usize = 1 << 20;

/// One unit of work on a connection's request queue.
enum Request {
    /// A decoded request frame: tag + body.
    Frame(u8, Vec<u8>),
    /// End of input. `Some(e)` sends a final typed error (malformed
    /// stream); `None` is a clean EOF. Always the queue's last entry.
    Shut(Option<DbError>),
}

pub(crate) enum Phase {
    /// Waiting for HELLO.
    Handshake,
    /// Over the connection cap: drain one frame, answer BUSY, close.
    Reject,
    /// Negotiated; request frames run against the session.
    Ready(Box<ExecState>),
}

/// Session-scoped execution state.
pub(crate) struct ExecState {
    pub session: Session,
    /// Server-side prepared statements: wire id → validated SQL.
    pub prepared: HashMap<u64, String>,
    pub next_prepared_id: u64,
}

/// Outgoing bytes; `sent` is the flushed prefix of `buf`.
#[derive(Default)]
pub(crate) struct Outbox {
    buf: Vec<u8>,
    sent: usize,
    /// The socket died; all further output is discarded.
    pub dead: bool,
}

impl Outbox {
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }

    pub(crate) fn frame(&mut self, tag: u8, body: &[u8]) {
        if !self.dead {
            protocol::write_frame(&mut self.buf, tag, body)
                .expect("response frames stay under MAX_FRAME by construction");
        }
    }

    pub(crate) fn error(&mut self, e: &DbError) {
        self.frame(resp::ERROR, &protocol::encode_error(e));
    }

    /// Appends bytes already framed (a released held reply).
    fn push_framed(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Writes as much as the socket takes right now; never blocks, and
    /// marks the outbox dead on a hard error. A drained buffer resets
    /// (and gives back a capacity a huge result left behind); otherwise
    /// the sent prefix is trimmed once it passes a megabyte.
    pub(crate) fn flush(&mut self, stream: &TcpStream) {
        while !self.dead && self.sent < self.buf.len() {
            match (&*stream).write(&self.buf[self.sent..]) {
                Ok(0) => self.dead = true,
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.sent == self.buf.len() {
            self.buf.clear();
            self.sent = 0;
            if self.buf.capacity() > SPILL_BYTES {
                self.buf = Vec::new();
            }
        } else if self.sent >= SPILL_BYTES {
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// The unsent tail, for a socket handed to another thread.
    fn into_unsent(mut self) -> Vec<u8> {
        self.buf.drain(..self.sent);
        self.buf
    }
}

/// A DONE or AFFECTED held until every acking replica covers `seq`, or
/// until `deadline`; the connection's later frames wait behind it.
pub(crate) struct Held {
    reply: Vec<u8>,
    seq: u64,
    pub deadline: Instant,
}

/// What a batch left the reactor to do.
pub(crate) enum Step {
    /// Nothing until the next readiness event, ack or unpark.
    Idle,
    /// Parsed frames wait in the queue: run another batch next turn.
    Again,
    /// Close the connection now.
    Close,
    /// SUBSCRIBE accepted: hand the socket to a replication feed thread
    /// starting at (generation, offset).
    Detach { generation: u64, offset: u64 },
}

pub(crate) struct Conn {
    /// Connection id — doubles as the poller token.
    pub id: u64,
    pub stream: TcpStream,
    acc: FrameAccumulator,
    pub phase: Phase,
    queue: VecDeque<Request>,
    /// Total body bytes across queued frames.
    queued_bytes: usize,
    pub out: Outbox,
    /// Registered poller interest.
    interest: u32,
    /// False while reading is paused on a full queue.
    reading: bool,
    /// No further input will ever be consumed (EOF, fault, SUBSCRIBE,
    /// shutdown).
    pub input_done: bool,
    /// Close once the outbox drains (BYE, fault, BUSY).
    closing: bool,
    /// Outbox over the write budget: run nothing until EPOLLOUT drains
    /// it to half.
    parked: bool,
    pub held: Option<Held>,
    /// On the reactor's ready list.
    pub ready: bool,
    pub last_activity: Instant,
}

impl Conn {
    pub(crate) fn new(id: u64, stream: TcpStream, phase: Phase) -> Conn {
        Conn {
            id,
            stream,
            acc: FrameAccumulator::new(),
            phase,
            queue: VecDeque::new(),
            queued_bytes: 0,
            out: Outbox::default(),
            interest: EV_READ,
            reading: true,
            input_done: false,
            closing: false,
            parked: false,
            held: None,
            ready: false,
            last_activity: Instant::now(),
        }
    }

    pub(crate) fn register(&self, poller: &mut Poller) -> io::Result<()> {
        poller.register(self.stream.as_raw_fd(), self.id, self.interest)
    }

    /// Points the poller at what the connection now waits for: input
    /// while it reads, EPOLLOUT while the outbox holds bytes. A
    /// connection wanting neither stays registered with no interest,
    /// which still reports hangups.
    pub(crate) fn sync_interest(&mut self, poller: &mut Poller) {
        let mut want = 0;
        if self.reading && !self.input_done && !self.closing {
            want |= EV_READ;
        }
        if self.out.pending() > 0 {
            want |= EV_WRITE;
        }
        if want != self.interest
            && poller
                .modify(self.stream.as_raw_fd(), self.id, want)
                .is_ok()
        {
            self.interest = want;
        }
    }

    /// True while reading is paused or over: the reactor closes such a
    /// connection on a hangup, which level triggering would otherwise
    /// report forever.
    pub(crate) fn stopped_reading(&self) -> bool {
        !self.reading || self.input_done
    }

    /// Statements are queued, or the outbox or a held reply still owes
    /// the client bytes.
    pub(crate) fn busy(&self) -> bool {
        !self.queue.is_empty() || self.held.is_some() || self.out.pending() > 0
    }

    /// `true` while bytes of an incomplete frame sit in the accumulator.
    pub(crate) fn mid_frame(&self) -> bool {
        self.acc.has_partial() && !self.input_done
    }

    fn queue_full(&self, shared: &Shared) -> bool {
        self.queue.len() >= shared.cfg.max_pipeline || self.queued_bytes > INPUT_BYTES_HIGH
    }

    /// Reads until the socket would block or the queue is full, parsing
    /// frames as they complete. A full queue pauses reading
    /// (`read_pauses`); the frames behind it stay in the accumulator.
    /// Returns true when the connection should close now.
    pub(crate) fn read_input(&mut self, shared: &Shared) -> bool {
        let mut buf = [0u8; 16384];
        loop {
            self.fill(shared);
            if self.input_done || self.closing {
                return false;
            }
            if self.queue_full(shared) {
                if self.reading {
                    self.reading = false;
                    shared.stats.read_pauses.fetch_add(1, Ordering::Relaxed);
                }
                return false;
            }
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    // EOF: a negotiated connection finishes its queued
                    // statements first; a handshake just closes.
                    self.input_done = true;
                    if !matches!(self.phase, Phase::Ready(_)) {
                        return true;
                    }
                    self.queue.push_back(Request::Shut(None));
                    return false;
                }
                Ok(n) => self.acc.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Parses the accumulator's complete frames, phase-aware, until the
    /// queue is full. SUBSCRIBE ends parsing: the bytes behind it belong
    /// to the replication feed.
    fn fill(&mut self, shared: &Shared) {
        while !self.input_done && !self.closing {
            match &self.phase {
                Phase::Reject => {
                    // Drain the client's HELLO first: closing a socket
                    // with unread data RSTs the peer before it can read
                    // BUSY.
                    if let Ok(None) = self.acc.next_frame() {
                        return;
                    }
                    let msg = format!(
                        "server busy: at its limit of {} connections",
                        shared.cfg.max_connections
                    );
                    self.out.frame(resp::BUSY, &protocol::encode_busy(&msg));
                    self.finish();
                }
                Phase::Handshake => match self.acc.next_frame() {
                    Ok(None) => return,
                    Ok(Some((req::HELLO, body))) => self.handshake(&body, shared),
                    Ok(Some(_)) | Err(_) => {
                        self.out
                            .error(&DbError::unavailable("handshake failed: expected HELLO"));
                        self.finish();
                    }
                },
                Phase::Ready(_) => {
                    if self.queue_full(shared) {
                        return;
                    }
                    match self.acc.next_frame() {
                        Ok(None) => return,
                        Err(why) => {
                            let e = DbError::unavailable(format!("malformed frame: {why}"));
                            self.queue.push_back(Request::Shut(Some(e)));
                            self.input_done = true;
                        }
                        Ok(Some((tag, body))) => {
                            if !self.queue.is_empty() || self.parked || self.held.is_some() {
                                shared.stats.pipelined.fetch_add(1, Ordering::Relaxed);
                            }
                            self.queued_bytes += body.len();
                            self.queue.push_back(Request::Frame(tag, body));
                            if tag == req::SUBSCRIBE {
                                self.input_done = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Negotiates the HELLO: a session, its metrics in the live table,
    /// and HELLO_OK first in the outbox.
    fn handshake(&mut self, body: &[u8], shared: &Shared) {
        let hello = match protocol::decode_hello(body) {
            Ok(h) => h,
            Err(e) => {
                self.out.error(&e);
                return self.finish();
            }
        };
        if let Err(e) = protocol::check_version(hello.version) {
            self.out.error(&e);
            return self.finish();
        }
        let mut session = shared.db.session();
        session.set_now_unix(hello.now_unix);
        shared.live.lock().insert(self.id, session.metrics());
        self.out.frame(
            resp::HELLO_OK,
            &protocol::encode_hello_ok(protocol::VERSION, &shared.cfg.banner),
        );
        self.phase = Phase::Ready(Box::new(ExecState {
            session,
            prepared: HashMap::new(),
            next_prepared_id: 1,
        }));
    }

    /// Reads nothing more and closes once the outbox drains.
    fn finish(&mut self) {
        self.closing = true;
        self.input_done = true;
    }

    /// Runs the queue (unless parked, held or closing), then flushes
    /// every reply with one write. A batch ends at an empty queue, a
    /// held reply, an outbox over the write budget, or a close or
    /// detach; once the queue is empty the accumulator's next frames are
    /// parsed and reading resumes.
    pub(crate) fn run_batch(&mut self, shared: &Shared) -> Step {
        let mut detach = None;
        while !(self.parked || self.held.is_some() || self.closing) {
            let Some(request) = self.queue.pop_front() else {
                break;
            };
            let action = match request {
                Request::Frame(tag, body) => {
                    self.queued_bytes -= body.len();
                    self.run_frame(shared, tag, &body)
                }
                Request::Shut(err) => {
                    if let Some(e) = err {
                        self.out.error(&e);
                    }
                    Action::Close
                }
            };
            match action {
                Action::Continue => {}
                Action::Close => self.finish(),
                Action::Hold { reply, seq } => {
                    self.held = Some(Held {
                        reply,
                        seq,
                        deadline: Instant::now() + crate::REPL_ACK_TIMEOUT,
                    });
                }
                Action::Detach { generation, offset } => {
                    detach = Some(Step::Detach { generation, offset });
                    break;
                }
            }
            if self.out.pending() > shared.cfg.write_budget {
                self.out.flush(&self.stream);
                if self.out.pending() > shared.cfg.write_budget {
                    self.parked = true;
                    shared.stats.park_events.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.out.flush(&self.stream);
        // The client may have drained the outbox since the park: no
        // EPOLLOUT would come to unpark it.
        self.unpark_if_drained(shared);
        if let Some(step) = detach {
            return step;
        }
        if self.out.dead || (self.closing && self.out.pending() == 0) {
            return Step::Close;
        }
        if self.parked || self.held.is_some() || self.closing {
            return Step::Idle;
        }
        // The queue ran dry: parse what the accumulator holds and read
        // again unless that filled it.
        self.fill(shared);
        if !self.queue_full(shared) {
            self.reading = true;
        }
        if self.queue.is_empty() {
            Step::Idle
        } else {
            Step::Again
        }
    }

    /// Runs one request frame. A panic in it (a blade routine's bug,
    /// say) answers a typed ERROR and closes this connection only: its
    /// session may be half-updated, and the reactor runs on.
    fn run_frame(&mut self, shared: &Shared, tag: u8, body: &[u8]) -> Action {
        let Phase::Ready(exec) = &mut self.phase else {
            unreachable!("only a negotiated connection queues frames");
        };
        let mut em = dispatch::Emitter {
            out: &mut self.out,
            stream: &self.stream,
        };
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch::dispatch(shared, exec, &mut em, tag, body)
        }));
        run.unwrap_or_else(|_| {
            self.out.error(&DbError::exec(
                "the statement panicked; closing the connection",
            ));
            Action::Close
        })
    }

    /// Flushes on EPOLLOUT.
    pub(crate) fn on_writable(&mut self, shared: &Shared) {
        self.out.flush(&self.stream);
        self.unpark_if_drained(shared);
    }

    /// A parked connection whose outbox drained to half the write
    /// budget runs again.
    fn unpark_if_drained(&mut self, shared: &Shared) {
        if self.parked && self.out.pending() <= shared.cfg.write_budget / 2 {
            self.parked = false;
        }
    }

    /// Releases a held reply if every acking replica covers its commit
    /// or its deadline has passed. Returns true when it was released.
    pub(crate) fn try_release(&mut self, shared: &Shared, now: Instant) -> bool {
        let Some(h) = &self.held else {
            return false;
        };
        if now < h.deadline && !shared.repl.covers(h.seq) {
            return false;
        }
        let h = self.held.take().expect("checked above");
        self.out.push_framed(&h.reply);
        true
    }

    /// Takes the socket apart for a replication feed thread: the stream,
    /// the replies not yet sent, and the input behind SUBSCRIBE.
    pub(crate) fn into_feed_parts(self) -> (TcpStream, Vec<u8>, Vec<u8>) {
        (
            self.stream,
            self.out.into_unsent(),
            self.acc.into_residual(),
        )
    }
}
