//! Per-connection state shared between the reactor and the worker pool.
//!
//! A connection splits in two once its handshake completes: the reactor
//! keeps the read side (socket, frame accumulator) privately, while the
//! [`ConnShared`] here is reachable from both the reactor and whichever
//! worker is servicing the connection's statement queue.
//!
//! **Lock order: `queue` before `out`.** Whenever both mutexes are
//! held, the queue lock is taken first. Park/unpark decisions and the
//! flush that informs them happen inside one queue+out critical
//! section, so a worker deciding to park and the reactor deciding to
//! unpark are linearized by the queue lock — neither can strand a
//! connection with requests queued and nobody scheduled to run them.
//! Taking `out` alone (mid-statement spills, pre-handshake writes) is
//! always allowed.

use minidb::{DbError, Session};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// Non-owning write handle to the connection socket — the whole server
/// spends **one** fd per connection. The reactor (or, after detach,
/// the subscriber thread) owns the `TcpStream`; this is just its raw
/// fd. Safety comes from the `out` lock: every write happens under it,
/// and the owner marks the outbox `dead` under that same lock before
/// closing the fd, so a `WriteHalf` can never touch a closed (or
/// kernel-recycled) descriptor.
pub(crate) struct WriteHalf(RawFd);

impl WriteHalf {
    pub(crate) fn new(stream: &TcpStream) -> WriteHalf {
        WriteHalf(stream.as_raw_fd())
    }

    pub(crate) fn write(&self, buf: &[u8]) -> io::Result<usize> {
        extern "C" {
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
        let n = unsafe { write(self.0, buf.as_ptr(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

/// One unit of work on a connection's statement queue.
pub(crate) enum Request {
    /// A decoded request frame: tag + body.
    Frame(u8, Vec<u8>),
    /// End of input. `Some(e)` sends a final typed error (malformed
    /// stream); `None` is a clean EOF. Always the queue's last entry.
    Shut(Option<DbError>),
}

/// Outgoing bytes for one connection, flushed opportunistically by
/// whoever holds the lock (worker after a statement, reactor on
/// EPOLLOUT). `sent` is the flushed prefix of `buf`.
pub(crate) struct OutBuf {
    pub buf: Vec<u8>,
    pub sent: usize,
    /// The reactor has (or is about to get) EV_WRITE interest armed.
    pub want_pollout: bool,
    /// Close the socket once the buffer drains.
    pub closing: bool,
    /// The socket died; all further output is discarded.
    pub dead: bool,
}

impl OutBuf {
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }
}

/// The statement queue plus the scheduling flags that keep exactly one
/// worker servicing a connection at a time.
pub(crate) struct ReqQueue {
    pub reqs: VecDeque<Request>,
    /// Total body bytes across queued `Frame`s — bounds memory even
    /// when every queued frame is near MAX_FRAME.
    pub queued_bytes: usize,
    /// A worker owns this connection (it is on the run queue or being
    /// serviced). Cleared only by the owning worker.
    pub scheduled: bool,
    /// Output exceeded the write budget: stop servicing until the
    /// reactor drains the outbox below the low-water mark.
    pub parked: bool,
    /// The reactor dropped read interest because the queue is full.
    pub paused_read: bool,
    /// SUBSCRIBE arrived: no further input is parsed as statements.
    pub detached: bool,
}

/// Input-queue byte bounds: stop reading above the high-water mark,
/// resume below the low one. High must exceed MAX_FRAME or a single
/// maximal frame could never be queued.
pub(crate) const INPUT_BYTES_HIGH: usize = 32 << 20;
pub(crate) const INPUT_BYTES_LOW: usize = 16 << 20;

impl ReqQueue {
    /// Queue too full to accept more parsed frames?
    pub(crate) fn is_full(&self, max_pipeline: usize) -> bool {
        self.reqs.len() >= max_pipeline || self.queued_bytes > INPUT_BYTES_HIGH
    }

    /// Drained enough for the reactor to resume reading?
    pub(crate) fn can_resume(&self, max_pipeline: usize) -> bool {
        self.reqs.len() <= max_pipeline / 2 && self.queued_bytes <= INPUT_BYTES_LOW
    }
}

/// Session-scoped execution state. Guarded by a mutex only for `Sync`:
/// the `scheduled` flag already guarantees a single servicer.
pub(crate) struct ExecState {
    pub session: Session,
    /// Server-side prepared statements: wire id → validated SQL.
    pub prepared: HashMap<u64, String>,
    pub next_prepared_id: u64,
}

/// The reactor/worker-shared half of a connection.
pub(crate) struct ConnShared {
    pub id: u64,
    /// Write side of the connection socket: the same fd the reactor
    /// owns for reads (nonblocking), not a dup — one fd per connection.
    pub(crate) wstream: WriteHalf,
    pub out: Mutex<OutBuf>,
    pub queue: Mutex<ReqQueue>,
    pub exec: Mutex<ExecState>,
}

impl ConnShared {
    pub(crate) fn new(id: u64, stream: &TcpStream, session: Session) -> ConnShared {
        ConnShared {
            id,
            wstream: WriteHalf::new(stream),
            out: Mutex::new(OutBuf {
                buf: Vec::new(),
                sent: 0,
                want_pollout: false,
                closing: false,
                dead: false,
            }),
            queue: Mutex::new(ReqQueue {
                reqs: VecDeque::new(),
                queued_bytes: 0,
                scheduled: false,
                parked: false,
                paused_read: false,
                detached: false,
            }),
            exec: Mutex::new(ExecState {
                session,
                prepared: HashMap::new(),
                next_prepared_id: 1,
            }),
        }
    }

    /// Mid-statement output spill: append + best-effort flush without a
    /// parking decision (that happens once per statement, at commit).
    /// Takes only the `out` lock, so it never blocks the reactor's
    /// enqueue path.
    pub(crate) fn spill(&self, bytes: &[u8], ctrl: &ControlQueue) {
        let mut out = self.out.lock();
        if out.dead {
            return;
        }
        out.buf.extend_from_slice(bytes);
        flush_locked(&self.wstream, &mut out);
        if out.pending() > 0 && !out.dead && !out.want_pollout {
            out.want_pollout = true;
            drop(out);
            ctrl.push(Control::Pollout(self.id));
        }
    }
}

/// Writes as much of the outbox as the socket will take right now.
/// Never blocks; marks the buffer dead on hard errors. Fully-flushed
/// buffers reset; otherwise the sent prefix is trimmed once it grows
/// past a megabyte so a slowly-draining outbox doesn't pin its history.
pub(crate) fn flush_locked(stream: &WriteHalf, out: &mut OutBuf) {
    if out.dead {
        return;
    }
    while out.sent < out.buf.len() {
        match stream.write(&out.buf[out.sent..]) {
            Ok(0) => {
                out.dead = true;
                break;
            }
            Ok(n) => out.sent += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                out.dead = true;
                break;
            }
        }
    }
    if out.sent == out.buf.len() {
        out.buf.clear();
        out.sent = 0;
    } else if out.sent >= 1 << 20 {
        out.buf.drain(..out.sent);
        out.sent = 0;
    }
}

/// Worker → reactor notifications, drained on each wake.
pub(crate) enum Control {
    /// Arm EV_WRITE interest for this connection: its outbox has
    /// pending bytes the nonblocking flush couldn't place.
    Pollout(u64),
    /// The statement queue drained below the low-water mark: re-parse
    /// buffered frames and re-arm read interest.
    ResumeRead(u64),
    /// The connection is done (BYE, protocol fault, dead socket):
    /// close it once the outbox drains.
    Closing(u64),
    /// SUBSCRIBE accepted: hand the socket to a dedicated replication
    /// feed thread starting at (generation, offset).
    Detach {
        conn: u64,
        generation: u64,
        offset: u64,
    },
}

/// The reactor's mailbox plus the wake pipe that interrupts its poll.
pub(crate) struct ControlQueue {
    inbox: Mutex<Vec<Control>>,
    /// Nonblocking write end of the wake pipe; a full pipe means the
    /// reactor is already guaranteed to wake, so errors are ignored.
    wake_tx: UnixStream,
}

impl ControlQueue {
    pub(crate) fn new(wake_tx: UnixStream) -> ControlQueue {
        ControlQueue {
            inbox: Mutex::new(Vec::new()),
            wake_tx,
        }
    }

    pub(crate) fn push(&self, c: Control) {
        self.inbox.lock().push(c);
        self.wake();
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Swaps the inbox out under the lock; callers process the batch
    /// without holding it (avoids inversion with conn locks).
    pub(crate) fn drain(&self) -> Vec<Control> {
        std::mem::take(&mut *self.inbox.lock())
    }
}
