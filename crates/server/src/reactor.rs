//! The reactor: one thread owning the listener, every connection
//! socket, and a wake pipe, dispatching readiness events.
//!
//! Reads are nonblocking and feed a per-connection
//! [`FrameAccumulator`]; complete frames enqueue onto the connection's
//! statement queue and the connection is scheduled onto the worker
//! pool. Writes the workers couldn't complete drain here under
//! EPOLLOUT. Admission is an atomic reserve against `live_count`
//! (over-cap connections get the typed BUSY after their HELLO, exactly
//! as before), and graceful shutdown drains queued statements before
//! closing anything.

use crate::conn::{flush_locked, ConnShared, Control, ControlQueue, Request};
use crate::net::{Event, Poller, EV_READ, EV_WRITE};
use crate::worker::RunQueue;
use crate::{retire_metrics, serve_subscriber, Shared};
use minidb::DbError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tip_client::protocol::{self, req, resp, FrameAccumulator};

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Idle/stall sweep cadence.
const SWEEP_INTERVAL: Duration = Duration::from_secs(2);

/// A connection as the reactor sees it. Pre-handshake output (HELLO_OK
/// errors, BUSY) goes through `pre_out`; once `Ready`, all output
/// lives in the shared outbox.
struct ConnIo {
    /// Connection id — doubles as the poller token.
    id: u64,
    stream: TcpStream,
    acc: FrameAccumulator,
    phase: Phase,
    interest: u32,
    /// EV_READ currently wanted (false once paused, detached, or EOF).
    reading: bool,
    /// No further input will ever be consumed (EOF, fault, detach).
    input_done: bool,
    pre_out: Vec<u8>,
    pre_sent: usize,
    /// Close as soon as `pre_out` drains (pre-handshake rejects).
    close_after_flush: bool,
    last_activity: Instant,
}

enum Phase {
    /// Waiting for HELLO.
    Handshake,
    /// Over the connection cap: drain one frame, answer BUSY, close.
    Reject,
    /// Negotiated; statements flow through the queue/worker machinery.
    Ready(Arc<ConnShared>),
}

pub(crate) fn run_reactor(
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    runq: Arc<RunQueue>,
    ctrl: Arc<ControlQueue>,
) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tip-server: reactor poller init failed: {e}");
            return;
        }
    };
    let _ = wake_rx.set_nonblocking(true);
    if poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, EV_READ)
        .is_err()
        || poller
            .register(wake_rx.as_raw_fd(), WAKE_TOKEN, EV_READ)
            .is_err()
    {
        eprintln!("tip-server: reactor registration failed");
        return;
    }

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, ConnIo> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let mut last_sweep = Instant::now();

    loop {
        let timeout = if draining {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(500)
        };
        events.clear();
        let _ = poller.wait(&mut events, Some(timeout));

        for ev in events.iter().copied() {
            match ev.token {
                WAKE_TOKEN => drain_wake(&wake_rx),
                LISTENER_TOKEN => {
                    if let Some(l) = listener.as_ref() {
                        accept_burst(l, &mut conns, &mut poller, &shared);
                    }
                }
                id => handle_conn_event(id, ev, &mut conns, &mut poller, &shared, &runq, &ctrl),
            }
        }

        for c in ctrl.drain() {
            handle_control(c, &mut conns, &mut poller, &shared, &runq, draining);
        }

        if shared.shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            drain_deadline = Instant::now() + shared.cfg.drain_timeout;
            if let Some(l) = listener.take() {
                let _ = poller.deregister(l.as_raw_fd());
            }
            begin_drain(&mut conns, &mut poller, &shared);
        }

        if draining {
            let force = Instant::now() >= drain_deadline;
            reap_drained(&mut conns, &mut poller, &shared, force);
            if conns.is_empty() {
                break;
            }
            continue;
        }

        if last_sweep.elapsed() >= SWEEP_INTERVAL {
            sweep(&mut conns, &mut poller, &shared);
            last_sweep = Instant::now();
        }
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    while let Ok(n) = (&*wake_rx).read(&mut buf) {
        if n < buf.len() {
            break;
        }
    }
}

fn accept_burst(
    listener: &TcpListener,
    conns: &mut HashMap<u64, ConnIo>,
    poller: &mut Poller,
    shared: &Arc<Shared>,
) {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(x) => x,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Atomic admission: reserve the slot, roll back on reject. The
        // reactor is single-threaded, but keeping the reserve atomic
        // means other admitters (none today) can never overshoot.
        let slot = shared.live_count.fetch_add(1, Ordering::SeqCst);
        let phase = if slot >= shared.cfg.max_connections {
            shared.live_count.fetch_sub(1, Ordering::SeqCst);
            shared.stats.busy_rejects.fetch_add(1, Ordering::Relaxed);
            Phase::Reject
        } else {
            Phase::Handshake
        };
        let admitted = matches!(phase, Phase::Handshake);
        let id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let io = ConnIo {
            id,
            stream,
            acc: FrameAccumulator::new(),
            phase,
            interest: EV_READ,
            reading: true,
            input_done: false,
            pre_out: Vec::new(),
            pre_sent: 0,
            close_after_flush: false,
            last_activity: Instant::now(),
        };
        if poller.register(io.stream.as_raw_fd(), id, EV_READ).is_err() {
            if admitted {
                shared.live_count.fetch_sub(1, Ordering::SeqCst);
            }
            continue;
        }
        conns.insert(id, io);
    }
}

fn handle_conn_event(
    id: u64,
    ev: Event,
    conns: &mut HashMap<u64, ConnIo>,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
    ctrl: &Arc<ControlQueue>,
) {
    let close = {
        let Some(io) = conns.get_mut(&id) else {
            return;
        };
        io.last_activity = Instant::now();
        let mut close = false;
        if ev.writable {
            close = on_writable(io, poller, shared, runq);
        }
        if !close && (ev.readable || ev.hangup) {
            if io.reading {
                close = on_readable(io, id, poller, shared, runq, ctrl);
            } else if ev.hangup {
                // Level-triggered HUP on a connection we've stopped
                // reading would spin forever: close it outright.
                close = true;
            }
        }
        close
    };
    if close {
        close_conn(id, conns, poller, shared);
    }
}

/// Flushes what the socket will take. Returns true when the connection
/// should close now (dead socket, or a close-after-flush completed).
fn on_writable(
    io: &mut ConnIo,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
) -> bool {
    match &io.phase {
        Phase::Handshake | Phase::Reject => flush_pre(io, poller),
        Phase::Ready(conn) => {
            let conn = Arc::clone(conn);
            let mut sched = false;
            let (dead, pending, closing) = {
                let mut q = conn.queue.lock();
                let mut out = conn.out.lock();
                flush_locked(&conn.wstream, &mut out);
                let pending = out.pending();
                if pending == 0 {
                    out.want_pollout = false;
                }
                // Unpark under queue→out: linearized with the worker's
                // park decision.
                if q.parked && (out.dead || pending <= shared.cfg.write_budget / 2) {
                    q.parked = false;
                    if !q.reqs.is_empty() && !q.scheduled && !out.dead {
                        q.scheduled = true;
                        sched = true;
                    }
                }
                (out.dead, pending, out.closing)
            };
            if sched {
                runq.push(Arc::clone(&conn));
            }
            if dead || (closing && pending == 0) {
                return true;
            }
            if pending == 0 && io.interest & EV_WRITE != 0 {
                set_interest(io, poller, io.interest & !EV_WRITE);
            }
            false
        }
    }
}

/// Drains `pre_out` (handshake/reject output). Returns true to close.
fn flush_pre(io: &mut ConnIo, poller: &mut Poller) -> bool {
    while io.pre_sent < io.pre_out.len() {
        match (&io.stream).write(&io.pre_out[io.pre_sent..]) {
            Ok(0) => return true,
            Ok(n) => io.pre_sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if io.pre_sent == io.pre_out.len() {
        io.pre_out.clear();
        io.pre_sent = 0;
        if io.close_after_flush {
            return true;
        }
        if io.interest & EV_WRITE != 0 {
            set_interest(io, poller, io.interest & !EV_WRITE);
        }
    } else if io.interest & EV_WRITE == 0 {
        set_interest(io, poller, io.interest | EV_WRITE);
    }
    false
}

/// Reads until the socket would block, parsing frames as they
/// complete. Returns true when the connection should close now.
fn on_readable(
    io: &mut ConnIo,
    id: u64,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
    ctrl: &Arc<ControlQueue>,
) -> bool {
    let mut buf = [0u8; 16384];
    loop {
        if !io.reading {
            return false;
        }
        match (&io.stream).read(&mut buf) {
            Ok(0) => return handle_eof(io, poller, runq),
            Ok(n) => {
                io.acc.extend(&buf[..n]);
                if parse_input(io, id, poller, shared, runq, ctrl) {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Hard read error: close with nothing sent, as before.
                return true;
            }
        }
    }
}

/// EOF at the transport. Pre-handshake connections close immediately;
/// ready connections finish their queued statements first.
fn handle_eof(io: &mut ConnIo, poller: &mut Poller, runq: &Arc<RunQueue>) -> bool {
    io.reading = false;
    io.input_done = true;
    match &io.phase {
        Phase::Handshake | Phase::Reject => true,
        Phase::Ready(conn) => {
            let conn = Arc::clone(conn);
            // A half-closed socket stays EPOLLIN-ready forever under
            // level triggering; without this drop the reactor would
            // busy-spin until the queued statements drain.
            set_interest(io, poller, io.interest & !EV_READ);
            enqueue_shut(&conn, None, runq);
            false
        }
    }
}

/// Parses every complete frame the accumulator holds, phase-aware.
/// Returns true when the connection should close immediately.
fn parse_input(
    io: &mut ConnIo,
    id: u64,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
    ctrl: &Arc<ControlQueue>,
) -> bool {
    loop {
        match &io.phase {
            Phase::Reject => {
                // Drain the client's HELLO first: closing a socket with
                // unread data RSTs the peer before it can read BUSY.
                match io.acc.next_frame() {
                    Ok(None) => return false,
                    Ok(Some(_)) | Err(_) => {
                        let msg = format!(
                            "server busy: at its limit of {} connections",
                            shared.cfg.max_connections
                        );
                        queue_pre_frame(io, resp::BUSY, &protocol::encode_busy(&msg));
                        io.close_after_flush = true;
                        io.reading = false;
                        io.input_done = true;
                        // Any bytes the client sends after its HELLO
                        // would otherwise keep EPOLLIN asserted and
                        // spin the reactor while BUSY drains.
                        set_interest(io, poller, io.interest & !EV_READ);
                        return flush_pre(io, poller);
                    }
                }
            }
            Phase::Handshake => match io.acc.next_frame() {
                Ok(None) => return false,
                Ok(Some((req::HELLO, body))) => {
                    if let Some(close) = finish_handshake(io, id, &body, poller, shared, ctrl) {
                        return close;
                    }
                    // Ready now: loop to parse any pipelined frames that
                    // arrived in the same packet as the HELLO.
                }
                Ok(Some((_, _))) | Err(_) => {
                    return pre_error(
                        io,
                        poller,
                        &DbError::unavailable("handshake failed: expected HELLO"),
                    );
                }
            },
            Phase::Ready(conn) => {
                let conn = Arc::clone(conn);
                // Backpressure: a full queue pauses reading; the worker
                // sends ResumeRead when it drains past the low-water
                // mark.
                {
                    let mut q = conn.queue.lock();
                    if q.detached {
                        io.reading = false;
                        io.input_done = true;
                        set_interest(io, poller, io.interest & !EV_READ);
                        return false;
                    }
                    if q.is_full(shared.cfg.max_pipeline) {
                        if !q.paused_read {
                            q.paused_read = true;
                            shared.stats.read_pauses.fetch_add(1, Ordering::Relaxed);
                        }
                        io.reading = false;
                        set_interest(io, poller, io.interest & !EV_READ);
                        return false;
                    }
                }
                match io.acc.next_frame() {
                    Ok(None) => return false,
                    Err(why) => {
                        enqueue_shut(
                            &conn,
                            Some(DbError::unavailable(format!("malformed frame: {why}"))),
                            runq,
                        );
                        io.reading = false;
                        io.input_done = true;
                        set_interest(io, poller, io.interest & !EV_READ);
                        return false;
                    }
                    Ok(Some((tag, body))) => {
                        let detach = tag == req::SUBSCRIBE;
                        enqueue_frame(&conn, tag, body, detach, shared, runq);
                        if detach {
                            // The socket now belongs to the replication
                            // feed; leave unread bytes in the
                            // accumulator for the subscriber thread.
                            io.reading = false;
                            io.input_done = true;
                            set_interest(io, poller, io.interest & !EV_READ);
                            return false;
                        }
                    }
                }
            }
        }
    }
}

/// Negotiates the HELLO and promotes the connection to `Ready`.
/// `Some(close)` reports a terminal outcome; `None` means promoted.
fn finish_handshake(
    io: &mut ConnIo,
    id: u64,
    body: &[u8],
    poller: &mut Poller,
    shared: &Arc<Shared>,
    ctrl: &Arc<ControlQueue>,
) -> Option<bool> {
    let hello = match protocol::decode_hello(body) {
        Ok(h) => h,
        Err(e) => return Some(pre_error(io, poller, &e)),
    };
    if let Err(e) = protocol::check_version(hello.version) {
        return Some(pre_error(io, poller, &e));
    }
    let mut session = shared.db.session();
    session.set_now_unix(hello.now_unix);
    shared.live.lock().insert(id, session.metrics());
    // The write half shares the reactor's fd (no dup): one fd per
    // connection is what lets a 20k rlimit carry 10k clients with both
    // ends of the loopback in one fd table.
    let conn = Arc::new(ConnShared::new(id, &io.stream, session));

    // HELLO_OK is the first frame on the shared outbox.
    let mut frame = Vec::new();
    let _ = protocol::write_frame(
        &mut frame,
        resp::HELLO_OK,
        &protocol::encode_hello_ok(protocol::VERSION, &shared.cfg.banner),
    );
    conn.spill(&frame, ctrl);
    if conn.out.lock().dead {
        retire_metrics(id, shared);
        return Some(true);
    }
    io.phase = Phase::Ready(conn);
    None
}

/// Queues a pre-handshake error frame and schedules close-after-flush.
/// Returns true when the connection can close right now.
fn pre_error(io: &mut ConnIo, poller: &mut Poller, e: &DbError) -> bool {
    queue_pre_frame(io, resp::ERROR, &protocol::encode_error(e));
    io.close_after_flush = true;
    io.reading = false;
    io.input_done = true;
    set_interest(io, poller, io.interest & !EV_READ);
    flush_pre(io, poller)
}

fn queue_pre_frame(io: &mut ConnIo, tag: u8, body: &[u8]) {
    let _ = protocol::write_frame(&mut io.pre_out, tag, body);
}

/// Enqueues a parsed frame and schedules the connection if no worker
/// owns it (and it isn't parked).
fn enqueue_frame(
    conn: &Arc<ConnShared>,
    tag: u8,
    body: Vec<u8>,
    detach: bool,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
) {
    let mut sched = false;
    {
        let mut q = conn.queue.lock();
        if q.scheduled || !q.reqs.is_empty() {
            shared.stats.pipelined.fetch_add(1, Ordering::Relaxed);
        }
        q.queued_bytes += body.len();
        q.reqs.push_back(Request::Frame(tag, body));
        if detach {
            q.detached = true;
        }
        if !q.scheduled && !q.parked {
            q.scheduled = true;
            sched = true;
        }
    }
    if sched {
        runq.push(Arc::clone(conn));
    }
}

/// Enqueues the terminal `Shut` request (EOF or protocol fault).
fn enqueue_shut(conn: &Arc<ConnShared>, err: Option<DbError>, runq: &Arc<RunQueue>) {
    let mut sched = false;
    {
        let mut q = conn.queue.lock();
        if q.detached {
            return;
        }
        q.reqs.push_back(Request::Shut(err));
        if !q.scheduled && !q.parked {
            q.scheduled = true;
            sched = true;
        }
    }
    if sched {
        runq.push(Arc::clone(conn));
    }
}

fn handle_control(
    c: Control,
    conns: &mut HashMap<u64, ConnIo>,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
    draining: bool,
) {
    match c {
        Control::Pollout(id) => {
            if let Some(io) = conns.get_mut(&id) {
                if io.interest & EV_WRITE == 0 {
                    set_interest(io, poller, io.interest | EV_WRITE);
                }
            }
        }
        Control::ResumeRead(id) => {
            let close = {
                let Some(io) = conns.get_mut(&id) else { return };
                resume_read(io, id, poller, shared, runq, draining)
            };
            if close {
                close_conn(id, conns, poller, shared);
            }
        }
        Control::Closing(id) => {
            let close = {
                let Some(io) = conns.get_mut(&id) else { return };
                if let Phase::Ready(conn) = &io.phase {
                    let out = conn.out.lock();
                    if out.dead || out.pending() == 0 {
                        true
                    } else {
                        // Flush the farewell under EPOLLOUT, then close.
                        drop(out);
                        if io.interest & EV_WRITE == 0 {
                            set_interest(io, poller, io.interest | EV_WRITE);
                        }
                        false
                    }
                } else {
                    true
                }
            };
            if close {
                close_conn(id, conns, poller, shared);
            }
        }
        Control::Detach {
            conn: id,
            generation,
            offset,
        } => {
            let mut handed_off = false;
            if let Some(io) = conns.remove(&id) {
                let _ = poller.deregister(io.stream.as_raw_fd());
                // Subscribers stop counting against the client cap the
                // moment they detach; they hold a subscriber slot
                // instead (reserved by the worker).
                shared.live_count.fetch_sub(1, Ordering::SeqCst);
                if let Phase::Ready(conn) = io.phase {
                    let residual = io.acc.into_residual();
                    spawn_subscriber(io.stream, conn, residual, generation, offset, shared);
                    handed_off = true;
                }
            }
            if !handed_off {
                // The connection died (sweep, hangup, dead socket)
                // between the worker reserving its subscriber slot and
                // this Detach draining; release the slot or the
                // effective max_subscribers cap shrinks forever.
                shared.stats.subscribers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Re-parses buffered frames after the worker drained the queue, then
/// re-arms read interest unless input already ended.
fn resume_read(
    io: &mut ConnIo,
    id: u64,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
    draining: bool,
) -> bool {
    if io.input_done {
        return false;
    }
    io.reading = true;
    // The accumulator may hold complete frames we refused to parse
    // while the queue was full; surface them before touching the
    // socket.
    if parse_input_resume(io, id, poller, shared, runq) {
        return true;
    }
    if io.reading && !draining && io.interest & EV_READ == 0 {
        set_interest(io, poller, io.interest | EV_READ);
    }
    if draining {
        io.reading = false;
    }
    false
}

/// Ready-phase-only re-parse (resume path): the connection is already
/// negotiated, so the handshake arms of `parse_input` cannot fire.
fn parse_input_resume(
    io: &mut ConnIo,
    _id: u64,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    runq: &Arc<RunQueue>,
) -> bool {
    let Phase::Ready(conn) = &io.phase else {
        return false;
    };
    let conn = Arc::clone(conn);
    loop {
        {
            let mut q = conn.queue.lock();
            if q.detached {
                io.reading = false;
                io.input_done = true;
                return false;
            }
            if q.is_full(shared.cfg.max_pipeline) {
                if !q.paused_read {
                    q.paused_read = true;
                    shared.stats.read_pauses.fetch_add(1, Ordering::Relaxed);
                }
                io.reading = false;
                return false;
            }
        }
        match io.acc.next_frame() {
            Ok(None) => return false,
            Err(why) => {
                enqueue_shut(
                    &conn,
                    Some(DbError::unavailable(format!("malformed frame: {why}"))),
                    runq,
                );
                io.reading = false;
                io.input_done = true;
                set_interest(io, poller, io.interest & !EV_READ);
                return false;
            }
            Ok(Some((tag, body))) => {
                let detach = tag == req::SUBSCRIBE;
                enqueue_frame(&conn, tag, body, detach, shared, runq);
                if detach {
                    io.reading = false;
                    io.input_done = true;
                    return false;
                }
            }
        }
    }
}

fn set_interest(io: &mut ConnIo, poller: &mut Poller, interest: u32) {
    if io.interest == interest {
        return;
    }
    // Interest must never go empty while registered (epoll would sit
    // silent but still deliver HUP; poll would report nothing): an
    // interest-less connection stays registered with zero events,
    // which both backends treat as "wait for hangup only".
    let fd = io.stream.as_raw_fd();
    if poller.modify(fd, io.id, interest).is_ok() {
        io.interest = interest;
    }
}

fn close_conn(
    id: u64,
    conns: &mut HashMap<u64, ConnIo>,
    poller: &mut Poller,
    shared: &Arc<Shared>,
) {
    let Some(io) = conns.remove(&id) else { return };
    let _ = poller.deregister(io.stream.as_raw_fd());
    let _ = io.stream.shutdown(Shutdown::Both);
    if let Phase::Ready(conn) = &io.phase {
        conn.out.lock().dead = true;
        retire_metrics(id, shared);
        shared.live_count.fetch_sub(1, Ordering::SeqCst);
    } else if matches!(io.phase, Phase::Handshake) {
        shared.live_count.fetch_sub(1, Ordering::SeqCst);
    }
    // Reject-phase connections never held a slot.
}

/// Hands a detached connection to a dedicated replication-feed thread:
/// flush whatever the pipelined responses left behind, replay residual
/// input frames, then run the blocking subscriber loop.
fn spawn_subscriber(
    stream: TcpStream,
    conn: Arc<ConnShared>,
    residual: Vec<u8>,
    generation: u64,
    offset: u64,
    shared: &Arc<Shared>,
) {
    let thread_shared = Arc::clone(shared);
    let id = conn.id;
    let handle = thread::Builder::new()
        .name(format!("tip-server-sub-{id}"))
        .spawn(move || {
            subscriber_main(stream, conn, residual, generation, offset, &thread_shared);
            // Single cleanup point for every subscriber_main exit —
            // including the early returns before serve_subscriber. A
            // residual REPL_ACK may have registered this conn in the
            // hub; leaving it would stall every primary write for the
            // full ack timeout.
            thread_shared.repl.unregister(id);
            retire_metrics(id, &thread_shared);
            thread_shared
                .stats
                .subscribers
                .fetch_sub(1, Ordering::SeqCst);
        });
    match handle {
        Ok(h) => shared.sub_threads.lock().push(h),
        Err(_) => {
            retire_metrics(id, shared);
            shared.stats.subscribers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn subscriber_main(
    mut stream: TcpStream,
    conn: Arc<ConnShared>,
    residual: Vec<u8>,
    generation: u64,
    offset: u64,
    shared: &Arc<Shared>,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // Responses to statements pipelined ahead of SUBSCRIBE must hit the
    // wire before the first feed frame.
    let leftover = {
        let mut out = conn.out.lock();
        if out.dead {
            return;
        }
        let bytes = out.buf[out.sent..].to_vec();
        out.buf.clear();
        out.sent = 0;
        bytes
    };
    if !leftover.is_empty() && stream.write_all(&leftover).is_err() {
        return;
    }
    // Input that arrived coalesced behind SUBSCRIBE: early REPL_ACKs
    // count; anything else ends the feed.
    let mut acc = FrameAccumulator::new();
    acc.extend(&residual);
    loop {
        match acc.next_frame() {
            Ok(None) => break,
            Ok(Some((req::REPL_ACK, body))) => match protocol::decode_repl_ack(&body) {
                Ok((_gen, _off, watermark)) => shared.repl.note_ack(conn.id, watermark),
                Err(_) => return,
            },
            Ok(Some(_)) | Err(_) => return,
        }
    }
    serve_subscriber(&mut stream, conn.id, shared, generation, offset);
}

/// Shutdown entry: stop reading everywhere, close pre-handshake
/// connections, and let queued statements + outboxes drain.
fn begin_drain(conns: &mut HashMap<u64, ConnIo>, poller: &mut Poller, shared: &Arc<Shared>) {
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        let done = {
            let io = conns.get_mut(&id).unwrap();
            io.reading = false;
            io.input_done = true;
            if io.interest & EV_READ != 0 {
                set_interest(io, poller, io.interest & !EV_READ);
            }
            !matches!(io.phase, Phase::Ready(_))
        };
        if done {
            close_conn(id, conns, poller, shared);
        }
    }
}

/// Closes every connection whose queue and outbox have drained; with
/// `force`, closes everything.
fn reap_drained(
    conns: &mut HashMap<u64, ConnIo>,
    poller: &mut Poller,
    shared: &Arc<Shared>,
    force: bool,
) {
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        let done = {
            let io = conns.get(&id).unwrap();
            if force {
                true
            } else {
                match &io.phase {
                    Phase::Ready(conn) => {
                        let q = conn.queue.lock();
                        let out = conn.out.lock();
                        out.dead || (q.reqs.is_empty() && !q.scheduled && out.pending() == 0)
                    }
                    _ => true,
                }
            }
        };
        if done {
            close_conn(id, conns, poller, shared);
        }
    }
}

/// Periodic stall sweep: handshakes that never complete, mid-frame
/// stalls, and outboxes nobody drains all get closed after their
/// timeout. Idle connections at a frame boundary live forever, exactly
/// like the old per-thread peek loop.
fn sweep(conns: &mut HashMap<u64, ConnIo>, poller: &mut Poller, shared: &Arc<Shared>) {
    let mut doomed: Vec<u64> = Vec::new();
    for (&id, io) in conns.iter() {
        let idle = io.last_activity.elapsed();
        match &io.phase {
            Phase::Handshake | Phase::Reject => {
                if idle > shared.cfg.read_timeout {
                    doomed.push(id);
                }
            }
            Phase::Ready(conn) => {
                if io.acc.has_partial() && !io.input_done && idle > shared.cfg.read_timeout {
                    doomed.push(id);
                    continue;
                }
                let out = conn.out.lock();
                if out.pending() > 0 && idle > shared.cfg.write_timeout {
                    doomed.push(id);
                }
            }
        }
    }
    for id in doomed {
        close_conn(id, conns, poller, shared);
    }
}
