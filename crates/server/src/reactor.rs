//! The reactors: `ServerConfig::workers` threads, each owning a share
//! of the connections from accept to close and running their statements
//! inline.
//!
//! Reactor 0 also owns the listener. It reserves each accepted socket's
//! slot against `live_count` (over-cap connections get the typed BUSY
//! after their HELLO) and hands the socket to the reactor with the
//! fewest live connections, ties to the lowest index, through that
//! reactor's [`Inbox`]. From then on one thread reads, runs and writes
//! for the connection ([`Conn`]), so no connection state is locked.
//!
//! Each turn of a reactor's loop polls, does the I/O its events ask
//! for, releases replies held for replica acks, and then runs one batch
//! for every connection with work: a deep pipeline cannot starve the
//! other connections on the reactor. A statement that waits on this
//! machine (a commit's fsync, a checkpoint, a table's write guard)
//! blocks its reactor; a wait on another machine (the semi-sync replica
//! ack) is a held reply instead. Graceful shutdown drains queued
//! statements before closing anything.

use crate::conn::{Conn, Phase, Step};
use crate::net::{Event, Poller, EV_READ};
use crate::{retire_metrics, serve_subscriber, Shared};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use tip_client::protocol::{self, req, FrameAccumulator};

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Idle/stall sweep cadence.
const SWEEP_INTERVAL: Duration = Duration::from_secs(2);

/// Longest poll wait with nothing ready, held or draining.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Poll wait while draining for shutdown.
const DRAIN_WAIT: Duration = Duration::from_millis(10);

/// A reactor's door: sockets reactor 0 handed to it, the pipe that
/// wakes its poll, and the count of connections it owns.
pub(crate) struct Inbox {
    sockets: Mutex<Vec<(u64, TcpStream)>>,
    /// Nonblocking write end of the wake pipe; a full pipe means the
    /// reactor is already bound to wake, so errors are ignored.
    wake_tx: UnixStream,
    /// Admitted connections this reactor owns, hand-offs in flight
    /// included.
    live: AtomicUsize,
}

impl Inbox {
    /// An empty inbox and the read end of its wake pipe.
    pub(crate) fn new() -> io::Result<(Inbox, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let inbox = Inbox {
            sockets: Mutex::new(Vec::new()),
            wake_tx,
            live: AtomicUsize::new(0),
        };
        Ok((inbox, wake_rx))
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Closes sockets that were handed off but never adopted, releasing
    /// their slots.
    pub(crate) fn discard(&self, shared: &Shared) {
        for _ in self.sockets.lock().drain(..) {
            shared.live_count.fetch_sub(1, Ordering::SeqCst);
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

struct Reactor {
    index: usize,
    shared: Arc<Shared>,
    poller: Poller,
    /// Reactor 0's until shutdown; `None` on the others.
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    /// Connections with a batch to run this turn.
    ready: Vec<u64>,
    /// Connections holding a reply for replica acks.
    held: Vec<u64>,
    /// Set once shutdown began: the force-close deadline.
    drain_deadline: Option<Instant>,
    last_sweep: Instant,
}

/// Runs reactor `index` until shutdown has drained its connections.
pub(crate) fn run(
    index: usize,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tip-server: reactor poller init failed: {e}");
            return;
        }
    };
    let listening = listener.as_ref().map_or(Ok(()), |l| {
        poller.register(l.as_raw_fd(), LISTENER_TOKEN, EV_READ)
    });
    if listening.is_err()
        || poller
            .register(wake_rx.as_raw_fd(), WAKE_TOKEN, EV_READ)
            .is_err()
    {
        eprintln!("tip-server: reactor registration failed");
        return;
    }
    Reactor {
        index,
        shared,
        poller,
        listener,
        wake_rx,
        conns: HashMap::new(),
        ready: Vec::new(),
        held: Vec::new(),
        drain_deadline: None,
        last_sweep: Instant::now(),
    }
    .run();
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            let _ = self.poller.wait(&mut events, Some(self.poll_timeout()));
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_burst(),
                    id => self.on_event(id, *ev),
                }
            }
            self.adopt_inbox();
            self.release_held();
            self.run_ready();

            if self.shared.shutdown.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                self.reap(Instant::now() >= deadline);
                if self.conns.is_empty() {
                    break;
                }
            } else if self.last_sweep.elapsed() >= SWEEP_INTERVAL {
                self.sweep();
                self.last_sweep = Instant::now();
            }
        }
    }

    /// Zero while a batch is ready; otherwise never past the nearest
    /// held reply's deadline.
    fn poll_timeout(&self) -> Duration {
        if !self.ready.is_empty() {
            return Duration::ZERO;
        }
        let mut wait = match self.drain_deadline {
            Some(_) => DRAIN_WAIT,
            None => IDLE_WAIT,
        };
        let now = Instant::now();
        for h in self
            .held
            .iter()
            .filter_map(|id| self.conns.get(id)?.held.as_ref())
        {
            wait = wait.min(h.deadline.saturating_duration_since(now));
        }
        wait
    }

    fn drain_wake(&self) {
        let mut buf = [0u8; 256];
        while let Ok(n) = (&self.wake_rx).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }

    /// Reactor 0: accepts every pending socket, reserves its slot and
    /// hands it to the reactor with the fewest live connections.
    fn accept_burst(&mut self) {
        let shared = Arc::clone(&self.shared);
        while let Some(listener) = &self.listener {
            let Ok((stream, _peer)) = listener.accept() else {
                return;
            };
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
            // Atomic admission: reserve the slot, roll back on reject.
            let slot = shared.live_count.fetch_add(1, Ordering::SeqCst);
            if slot >= shared.cfg.max_connections {
                shared.live_count.fetch_sub(1, Ordering::SeqCst);
                shared.stats.busy_rejects.fetch_add(1, Ordering::Relaxed);
                self.adopt(id, stream, Phase::Reject);
                continue;
            }
            let (target, inbox) = shared
                .reactors
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.live.load(Ordering::SeqCst))
                .expect("at least one reactor");
            inbox.live.fetch_add(1, Ordering::SeqCst);
            if target == self.index {
                self.adopt(id, stream, Phase::Handshake);
            } else {
                inbox.sockets.lock().push((id, stream));
                inbox.wake();
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let handed = std::mem::take(&mut *self.shared.reactors[self.index].sockets.lock());
        for (id, stream) in handed {
            if self.drain_deadline.is_some() {
                self.release_slot(&Phase::Handshake);
                continue;
            }
            self.adopt(id, stream, Phase::Handshake);
        }
    }

    fn adopt(&mut self, id: u64, stream: TcpStream, phase: Phase) {
        let conn = Conn::new(id, stream, phase);
        if conn.register(&mut self.poller).is_err() {
            self.release_slot(&conn.phase);
            return;
        }
        self.conns.insert(id, conn);
    }

    /// Does the I/O an event asks for; the batch runs later this turn.
    fn on_event(&mut self, id: u64, ev: Event) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        c.last_activity = Instant::now();
        let mut close = false;
        if ev.writable {
            c.on_writable(&self.shared);
            close = c.out.dead;
        }
        if !close && (ev.readable || ev.hangup) {
            if !c.stopped_reading() {
                close = c.read_input(&self.shared);
            } else if ev.hangup {
                // A level-triggered hangup on a connection we no longer
                // read would spin forever: close it outright.
                close = true;
            }
        }
        if close {
            self.close(id);
        } else if !c.ready {
            c.ready = true;
            self.ready.push(id);
        }
    }

    /// Releases every held reply its replicas now cover or whose
    /// deadline passed; the connection runs again this turn.
    fn release_held(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let now = Instant::now();
        for id in std::mem::take(&mut self.held) {
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            if !c.try_release(&self.shared, now) {
                self.held.push(id);
            } else if !c.ready {
                c.ready = true;
                self.ready.push(id);
            }
        }
    }

    /// One batch for every connection with work.
    fn run_ready(&mut self) {
        for id in std::mem::take(&mut self.ready) {
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            c.ready = false;
            let was_held = c.held.is_some();
            match c.run_batch(&self.shared) {
                Step::Idle => {}
                Step::Again => {
                    c.ready = true;
                    self.ready.push(id);
                }
                Step::Close => {
                    self.close(id);
                    continue;
                }
                Step::Detach { generation, offset } => {
                    self.detach(id, generation, offset);
                    continue;
                }
            }
            if !was_held && c.held.is_some() {
                self.held.push(id);
            }
            c.sync_interest(&mut self.poller);
        }
    }

    /// Frees an admitted connection's client slot; a BUSY reject never
    /// held one.
    fn release_slot(&self, phase: &Phase) {
        if !matches!(phase, Phase::Reject) {
            self.shared.live_count.fetch_sub(1, Ordering::SeqCst);
            self.shared.reactors[self.index]
                .live
                .fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn close(&mut self, id: u64) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        let _ = c.stream.shutdown(Shutdown::Both);
        if matches!(c.phase, Phase::Ready(_)) {
            retire_metrics(id, &self.shared);
        }
        self.release_slot(&c.phase);
    }

    /// Hands a SUBSCRIBE connection to a replication feed thread. It
    /// stops counting against the client cap: it holds the subscriber
    /// slot its SUBSCRIBE reserved instead.
    fn detach(&mut self, id: u64, generation: u64, offset: u64) {
        let Some(c) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.release_slot(&c.phase);
        let (stream, unsent, residual) = c.into_feed_parts();
        spawn_subscriber(
            stream,
            id,
            unsent,
            residual,
            generation,
            offset,
            &self.shared,
        );
    }

    /// Shutdown entry: stop accepting and reading everywhere, close
    /// pre-handshake connections, and let queued statements, held
    /// replies and outboxes drain.
    fn begin_drain(&mut self) {
        self.drain_deadline = Some(Instant::now() + self.shared.cfg.drain_timeout);
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let c = self.conns.get_mut(&id).expect("listed above");
            c.input_done = true;
            if matches!(c.phase, Phase::Ready(_)) {
                c.sync_interest(&mut self.poller);
            } else {
                self.close(id);
            }
        }
    }

    /// Closes every connection with nothing left to send; with `force`,
    /// closes everything.
    fn reap(&mut self, force: bool) {
        let done: Vec<u64> = self
            .conns
            .values()
            .filter(|c| force || c.out.dead || !c.busy())
            .map(|c| c.id)
            .collect();
        for id in done {
            self.close(id);
        }
    }

    /// Periodic stall sweep: handshakes that never complete, mid-frame
    /// stalls, and outboxes nobody drains all get closed after their
    /// timeout. Idle connections at a frame boundary live forever.
    fn sweep(&mut self) {
        let cfg = &self.shared.cfg;
        let doomed: Vec<u64> = self
            .conns
            .values()
            .filter(|c| {
                let idle = c.last_activity.elapsed();
                match c.phase {
                    Phase::Handshake | Phase::Reject => idle > cfg.read_timeout,
                    Phase::Ready(_) => {
                        (c.mid_frame() && idle > cfg.read_timeout)
                            || (c.out.pending() > 0 && idle > cfg.write_timeout)
                    }
                }
            })
            .map(|c| c.id)
            .collect();
        for id in doomed {
            self.close(id);
        }
    }
}

/// Starts the replication feed thread for a detached connection: flush
/// the replies to statements pipelined ahead of SUBSCRIBE, replay the
/// input behind it, then run the blocking subscriber loop.
fn spawn_subscriber(
    stream: TcpStream,
    id: u64,
    unsent: Vec<u8>,
    residual: Vec<u8>,
    generation: u64,
    offset: u64,
    shared: &Arc<Shared>,
) {
    let thread_shared = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name(format!("tip-server-sub-{id}"))
        .spawn(move || {
            subscriber_main(
                stream,
                id,
                &unsent,
                &residual,
                generation,
                offset,
                &thread_shared,
            );
            // Single cleanup point for every subscriber_main exit —
            // including the early returns before serve_subscriber. A
            // residual REPL_ACK may have registered this conn in the
            // hub; leaving it would hold every primary write for the
            // full ack timeout.
            thread_shared.unregister_subscriber(id);
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
    id: u64,
    unsent: &[u8],
    residual: &[u8],
    generation: u64,
    offset: u64,
    shared: &Arc<Shared>,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // Responses to statements pipelined ahead of SUBSCRIBE must hit the
    // wire before the first feed frame.
    if !unsent.is_empty() && stream.write_all(unsent).is_err() {
        return;
    }
    // Input that arrived coalesced behind SUBSCRIBE: early REPL_ACKs
    // count; anything else ends the feed.
    let mut acc = FrameAccumulator::new();
    acc.extend(residual);
    loop {
        match acc.next_frame() {
            Ok(None) => break,
            Ok(Some((req::REPL_ACK, body))) => match protocol::decode_repl_ack(&body) {
                Ok((_gen, _off, watermark)) => shared.note_ack(id, watermark),
                Err(_) => return,
            },
            Ok(Some(_)) | Err(_) => return,
        }
    }
    serve_subscriber(&mut stream, id, shared, generation, offset);
}
