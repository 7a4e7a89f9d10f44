//! # tip-server — an event-driven wire-protocol server for TIP
//!
//! The paper's Figure 1 places client applications *across a network*
//! from the TIP-enabled database server. This crate supplies that
//! missing tier: a readiness-driven TCP server owning one shared
//! [`Database`], serving many concurrent sessions over the
//! length-prefixed binary protocol defined in [`tip_client::protocol`].
//!
//! Design points:
//!
//! * **N reactors** — `ServerConfig::workers` nonblocking event loops
//!   ([`reactor`]), each owning a share of the connections from accept
//!   to close and running their statements inline on its own thread.
//!   Clients may **pipeline**: on each readiness event a connection's
//!   complete frames are parsed into its queue, run in order, and their
//!   replies flushed with one write;
//! * **per-connection session state** — each connection gets its own
//!   [`Session`], so NOW overrides and metrics are isolated exactly as
//!   they are for in-process sessions;
//! * **admission control and backpressure** — connection slots are
//!   reserved atomically (over-cap peers get a typed BUSY), statement
//!   queues are bounded (reads pause at `max_pipeline`), and a slow
//!   client whose outbox exceeds the write budget is *parked* until it
//!   drains;
//! * **semi-synchronous replication without a blocked thread** — a
//!   write's success frame is *held* until the acking replicas cover
//!   its commit (or a timeout passes) while the reactor runs its other
//!   connections;
//! * **robustness** — malformed frames, and statements that panic, kill
//!   only the offending connection; stalled handshakes and unread
//!   outboxes are swept on a timeout, and shutdown drains queued
//!   statements before the process lets go of the database;
//! * **observability** — a `SERVER_METRICS` request aggregates every
//!   live session's counters plus those of already-closed sessions via
//!   [`MetricsSnapshot::absorb`]; [`Server::stats`] exposes the
//!   reactors' own counters (accepts, rejects, parks, pipelining).

use minidb::{Database, DbError, DbResult, MetricsSnapshot, QueryMetrics};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use tip_blade::TipTypes;
use tip_client::protocol::{self, req, resp};

mod conn;
mod dispatch;
pub mod net;
mod reactor;
pub mod repl;

use reactor::Inbox;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections at or over this limit are rejected with BUSY.
    /// Replication subscribers stop counting against it once detached
    /// (see `max_subscribers`).
    pub max_connections: usize,
    /// How long a connection may sit mid-frame (or mid-handshake)
    /// before the stall sweep closes it. Idle connections at a frame
    /// boundary are never timed out.
    pub read_timeout: Duration,
    /// How long an unread outbox may sit with pending bytes before the
    /// stall sweep closes the connection.
    pub write_timeout: Duration,
    /// Rows per ROW_BATCH frame when streaming result sets.
    pub rows_per_batch: usize,
    /// Free-form banner returned in HELLO_OK.
    pub banner: String,
    /// Reactor threads, each owning a share of the connections and
    /// running their statements; 0 means auto (the machine's available
    /// parallelism, at least 2).
    pub workers: usize,
    /// In-flight statements one connection may queue before the server
    /// stops reading from it (pipelining depth bound).
    pub max_pipeline: usize,
    /// Outbox bytes a connection may accumulate before it is parked
    /// until the client drains responses.
    pub write_budget: usize,
    /// Replication subscribers this node will feed concurrently; they
    /// hold subscriber slots, not client-connection slots.
    pub max_subscribers: usize,
    /// How long shutdown waits for queued statements and outboxes to
    /// drain before force-closing connections.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            rows_per_batch: 256,
            banner: "tip-server".to_string(),
            workers: 0,
            max_pipeline: 128,
            write_budget: 256 * 1024,
            max_subscribers: 8,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    /// The reactor count `workers: 0` resolves to.
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        cores.max(2)
    }
}

/// How often the replication subscriber loop wakes to check for
/// shutdown or new WAL.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Handler invoked by an admin PROMOTE frame: performs the
/// node-specific promotion and returns the last commit sequence the
/// node had applied when it took over.
type PromoteFn = Box<dyn Fn() -> DbResult<u64> + Send + Sync>;

/// Tracks the highest commit sequence each connected WAL subscriber has
/// acknowledged, so a committing statement's success frame can be held
/// until every replica has the bytes (semi-synchronous replication).
///
/// A subscriber only appears in the table once it acks for the first
/// time: a replica still streaming its catch-up snapshot must not stall
/// the primary's writes for the full ack timeout on every commit.
///
/// **Durability window** — this scheme is best-effort semi-sync, not a
/// zero-loss guarantee. Two windows exist in which a write is
/// acknowledged to the client without replica coverage: (1) between a
/// replica's SUBSCRIBE and its *first* REPL_ACK (snapshot catch-up),
/// writes wait on nobody; (2) a replica stalled past
/// [`REPL_ACK_TIMEOUT`] stops delaying commits — availability wins
/// over strictness. A primary crash inside either window can lose
/// writes that were acked but not yet shipped; the promotion test's
/// zero-loss result holds because it acks through a registered, live
/// replica. A strict mode (register at SUBSCRIBE, fail writes instead
/// of timing out) is a deliberate non-goal for now and is documented
/// as such in DESIGN.md §10.
///
/// A change can release held replies, so [`Shared::note_ack`] and
/// [`Shared::unregister_subscriber`] wake every reactor after it.
pub(crate) struct ReplHub {
    /// conn_id → highest watermark acked by that subscriber.
    acked: Mutex<HashMap<u64, u64>>,
}

impl ReplHub {
    pub(crate) fn is_empty(&self) -> bool {
        self.acked.lock().is_empty()
    }

    /// The slowest subscriber's acked watermark, if any have acked.
    fn min_acked(&self) -> Option<u64> {
        self.acked.lock().values().copied().min()
    }

    /// Every registered subscriber has acked at least `target` (true
    /// when none is registered).
    pub(crate) fn covers(&self, target: u64) -> bool {
        self.acked.lock().values().all(|&w| w >= target)
    }
}

/// Reactor counters, all monotonic except `subscribers`.
pub(crate) struct StatsInner {
    pub(crate) accepted: AtomicU64,
    pub(crate) busy_rejects: AtomicU64,
    pub(crate) park_events: AtomicU64,
    pub(crate) read_pauses: AtomicU64,
    pub(crate) pipelined: AtomicU64,
    /// Currently-attached replication subscribers.
    pub(crate) subscribers: AtomicUsize,
}

/// A point-in-time snapshot of the server's own counters (distinct
/// from the per-session query metrics).
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected with BUSY).
    pub accepted: u64,
    /// Connections answered with BUSY because the cap was reached.
    pub busy_rejects: u64,
    /// Times a connection was parked for exceeding the write budget.
    pub park_events: u64,
    /// Times reading from a connection paused on a full statement queue.
    pub read_pauses: u64,
    /// Frames enqueued while the connection already had work in flight
    /// — a direct measure of client pipelining.
    pub pipelined: u64,
    /// Replication subscribers currently attached.
    pub subscribers: usize,
}

pub(crate) struct Shared {
    pub(crate) db: Arc<Database>,
    pub(crate) types: TipTypes,
    pub(crate) cfg: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Live connections' metric registries, keyed by connection id.
    pub(crate) live: Mutex<HashMap<u64, Arc<QueryMetrics>>>,
    /// Folded-in counters of connections that already closed.
    retired: Mutex<MetricsSnapshot>,
    pub(crate) live_count: AtomicUsize,
    pub(crate) next_conn_id: AtomicU64,
    /// Per-subscriber replication ack state (primary role).
    pub(crate) repl: ReplHub,
    /// Promotion handler (replica role); `None` on a plain primary.
    pub(crate) promote: StdMutex<Option<PromoteFn>>,
    pub(crate) stats: StatsInner,
    /// Detached replication-feed threads, joined at shutdown.
    pub(crate) sub_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Each reactor's inbox of handed-off sockets and its wake pipe.
    pub(crate) reactors: Vec<Inbox>,
}

impl Shared {
    /// Records a subscriber's REPL_ACK and wakes the reactors, whose
    /// held replies it may cover.
    pub(crate) fn note_ack(&self, conn_id: u64, watermark: u64) {
        {
            let mut m = self.repl.acked.lock();
            let slot = m.entry(conn_id).or_insert(0);
            *slot = (*slot).max(watermark);
        }
        self.wake_reactors();
    }

    /// Forgets a subscriber that went away; replies held for it release.
    pub(crate) fn unregister_subscriber(&self, conn_id: u64) {
        self.repl.acked.lock().remove(&conn_id);
        self.wake_reactors();
    }

    pub(crate) fn wake_reactors(&self) {
        for r in &self.reactors {
            r.wake();
        }
    }

    /// Server-wide counters — every closed session plus every live
    /// one — with the node's gauges as of now.
    pub(crate) fn server_metrics(&self) -> MetricsSnapshot {
        let mut total = self.retired.lock().clone();
        for metrics in self.live.lock().values() {
            total.absorb(&metrics.snapshot());
        }
        total.with_node_gauges(&self.db)
    }
}

/// Removes a finished connection's metrics from the live table,
/// folding its counters into the retired total. Connection-slot
/// accounting is the caller's business (the reactor frees client slots
/// at close; subscriber slots are freed when the feed thread exits).
pub(crate) fn retire_metrics(conn_id: u64, shared: &Shared) {
    if let Some(metrics) = shared.live.lock().remove(&conn_id) {
        shared.retired.lock().absorb(&metrics.snapshot());
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, drains queued statements, and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections against `db`, which must already have the
    /// TIP blade installed.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: &Arc<Database>,
        cfg: ServerConfig,
    ) -> DbResult<Server> {
        let types = db.with_catalog(TipTypes::from_catalog)?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| DbError::unavailable(format!("bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DbError::unavailable(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DbError::unavailable(format!("set_nonblocking failed: {e}")))?;
        let mut inboxes = Vec::new();
        let mut wake_rxs = Vec::new();
        for _ in 0..cfg.resolved_workers() {
            let (inbox, wake_rx) =
                Inbox::new().map_err(|e| DbError::unavailable(format!("wake pipe failed: {e}")))?;
            inboxes.push(inbox);
            wake_rxs.push(wake_rx);
        }

        let shared = Arc::new(Shared {
            db: Arc::clone(db),
            types,
            cfg,
            shutdown: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            retired: Mutex::new(MetricsSnapshot::default()),
            live_count: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            repl: ReplHub {
                acked: Mutex::new(HashMap::new()),
            },
            promote: StdMutex::new(None),
            stats: StatsInner {
                accepted: AtomicU64::new(0),
                busy_rejects: AtomicU64::new(0),
                park_events: AtomicU64::new(0),
                read_pauses: AtomicU64::new(0),
                pipelined: AtomicU64::new(0),
                subscribers: AtomicUsize::new(0),
            },
            sub_threads: Mutex::new(Vec::new()),
            reactors: inboxes,
        });

        let mut server = Server {
            shared,
            local_addr,
            reactor_threads: Vec::new(),
        };
        // Reactor 0 keeps the listener and hands sockets to the others.
        let mut listener = Some(listener);
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&server.shared);
            let listener = listener.take();
            let spawned = thread::Builder::new()
                .name(format!("tip-server-reactor-{index}"))
                .spawn(move || reactor::run(index, listener, wake_rx, shared));
            match spawned {
                Ok(handle) => server.reactor_threads.push(handle),
                Err(e) => {
                    server.shutdown();
                    return Err(DbError::unavailable(format!("spawn failed: {e}")));
                }
            }
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of client connections currently being served (detached
    /// replication subscribers excluded).
    pub fn connection_count(&self) -> usize {
        self.shared.live_count.load(Ordering::SeqCst)
    }

    /// Server-wide metrics: all closed sessions plus all live ones.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.server_metrics()
    }

    /// The reactors' own counters: admissions, rejects, backpressure
    /// events, and observed pipelining.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            busy_rejects: s.busy_rejects.load(Ordering::Relaxed),
            park_events: s.park_events.load(Ordering::Relaxed),
            read_pauses: s.read_pauses.load(Ordering::Relaxed),
            pipelined: s.pipelined.load(Ordering::Relaxed),
            subscribers: s.subscribers.load(Ordering::SeqCst),
        }
    }

    /// Installs the handler an admin PROMOTE frame invokes. The handler
    /// drains this node's replication stream, opens the WAL for append,
    /// and returns the last commit sequence applied before takeover.
    pub fn set_promote_handler(&self, f: impl Fn() -> DbResult<u64> + Send + Sync + 'static) {
        *self.shared.promote.lock().unwrap() = Some(Box::new(f));
    }

    /// Stops accepting, drains queued statements (bounded by
    /// `drain_timeout`), and joins all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_reactors();
        for t in std::mem::take(&mut self.reactor_threads) {
            let _ = t.join();
        }
        // A socket reactor 0 handed off as another reactor exited was
        // never adopted: close it here.
        for r in &self.shared.reactors {
            r.discard(&self.shared);
        }
        loop {
            let drained: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.sub_threads.lock());
            if drained.is_empty() {
                break;
            }
            for t in drained {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sends one frame as a single write (length, tag and body assembled
/// first so the kernel sees whole frames). Used by the blocking
/// replication paths (the primary's feed, the replica's follower);
/// client traffic goes through the outboxes.
pub(crate) fn send(stream: &mut TcpStream, tag: u8, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(5 + body.len());
    protocol::write_frame(&mut frame, tag, body)?;
    stream.write_all(&frame)
}

/// How long a committed write's success frame is held for every acking
/// replica to cover the durable watermark before it goes to the client
/// anyway.
const REPL_ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// Committed WAL bytes carried by one WAL_CHUNK, and the piece size for
/// snapshot catch-up — both well under [`protocol::MAX_FRAME`].
const REPL_CHUNK_MAX: usize = 1 << 20;

/// What the subscriber poll saw between chunk shipments.
enum SubFrame {
    /// Nothing waiting; go ship more WAL.
    Idle,
    /// REPL_ACK: the replica has applied through this watermark.
    Ack(u64),
    /// BYE, a dead socket, or a frame a subscriber must not send.
    Done,
}

/// Non-blocking-ish poll for a subscriber frame: a 1 ms peek, then a
/// full frame read only once bytes have started arriving.
fn try_subscriber_frame(stream: &mut TcpStream, shared: &Shared) -> SubFrame {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(0) => return SubFrame::Done,
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            return SubFrame::Idle;
        }
        Err(_) => return SubFrame::Done,
    }
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    match protocol::read_frame(stream) {
        Ok((req::REPL_ACK, body)) => match protocol::decode_repl_ack(&body) {
            Ok((_gen, _offset, watermark)) => SubFrame::Ack(watermark),
            Err(_) => SubFrame::Done,
        },
        Ok(_) | Err(_) => SubFrame::Done,
    }
}

/// Runs a replication subscriber to completion: catch-up (snapshot if
/// the requested generation is gone), then continuous WAL tailing with
/// heartbeats, draining REPL_ACKs between shipments. The socket runs
/// blocking on a dedicated thread — the feed is a long-lived
/// sequential stream, a poor fit for a statement reactor, and
/// subscribers hold their own slot class so they can't starve client
/// admission.
pub(crate) fn serve_subscriber(
    stream: &mut TcpStream,
    conn_id: u64,
    shared: &Shared,
    mut generation: u64,
    mut offset: u64,
) {
    let db = &shared.db;
    let stats = db.repl_stats();
    // Highest watermark the replica has been told about; heartbeats
    // fire only when the durable frontier moves past it.
    let mut last_watermark_sent = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match try_subscriber_frame(stream, shared) {
            SubFrame::Idle => {}
            SubFrame::Ack(watermark) => {
                shared.note_ack(conn_id, watermark);
                if let (Some(p), Some(min)) = (db.wal_progress(), shared.repl.min_acked()) {
                    stats.set_lag(p.seq.saturating_sub(min));
                }
                // Drain queued acks before shipping more bytes.
                continue;
            }
            SubFrame::Done => break,
        }
        match db.repl_log_read(generation, offset, REPL_CHUNK_MAX) {
            Err(e) => {
                let _ = send(stream, resp::ERROR, &protocol::encode_error(&e));
                break;
            }
            Ok(minidb::LogRead::Restart) => {
                // The generation the replica wants is gone (it predates
                // the latest checkpoint): resync from the snapshot.
                let (snap_gen, bytes) = match db.repl_snapshot() {
                    Ok(x) => x,
                    Err(e) => {
                        let _ = send(stream, resp::ERROR, &protocol::encode_error(&e));
                        break;
                    }
                };
                let mut start = 0;
                let mut failed = false;
                loop {
                    let end = (start + REPL_CHUNK_MAX).min(bytes.len());
                    let is_last = end == bytes.len();
                    let body =
                        protocol::encode_snapshot_chunk(snap_gen, is_last, &bytes[start..end]);
                    if send(stream, resp::SNAPSHOT_CHUNK, &body).is_err() {
                        failed = true;
                        break;
                    }
                    stats.record_chunk((end - start) as u64);
                    if is_last {
                        break;
                    }
                    start = end;
                }
                if failed {
                    break;
                }
                generation = snap_gen;
                offset = minidb::wal::record::LOG_HEADER_LEN as u64;
            }
            Ok(minidb::LogRead::Chunk { bytes, watermark }) => {
                if !bytes.is_empty() {
                    let body = protocol::encode_wal_chunk(generation, offset, watermark, &bytes);
                    if send(stream, resp::WAL_CHUNK, &body).is_err() {
                        break;
                    }
                    offset += bytes.len() as u64;
                    stats.record_chunk(bytes.len() as u64);
                    if watermark > 0 {
                        last_watermark_sent = last_watermark_sent.max(watermark);
                        stats.set_last_seq(watermark);
                    }
                } else if watermark > last_watermark_sent {
                    // Caught up, but the durable frontier moved (e.g.
                    // commits the replica already has bytes for were
                    // just fsynced): heartbeat so it can ack them.
                    let body = protocol::encode_wal_chunk(generation, offset, watermark, &[]);
                    if send(stream, resp::WAL_CHUNK, &body).is_err() {
                        break;
                    }
                    last_watermark_sent = watermark;
                    stats.set_last_seq(watermark);
                } else if let Some(p) = db.wal_progress() {
                    // Fully caught up: sleep until the WAL moves. The
                    // short timeout keeps ack draining responsive.
                    let _ = db.wal_progress_wait(&p, POLL_INTERVAL);
                } else {
                    thread::sleep(POLL_INTERVAL);
                }
            }
        }
    }
    // Hub unregistration happens in the caller's cleanup (the
    // subscriber thread wrapper), which also covers exits taken
    // before this function is ever reached.
}
