//! Replica-side WAL streaming: a background thread that connects to
//! the primary, subscribes from the last applied `(generation, offset)`,
//! applies shipped chunks through the recovery replay path, and acks
//! applied watermarks so the primary can hold commits semi-synchronously.
//!
//! The connection is re-established with jittered exponential backoff
//! on any failure; a torn mid-chunk stream discards the partial frame
//! and resumes from the applier's committed position, so the replica's
//! state is byte-identical to one that never lost the stream.

use crate::send;
use minidb::{Database, ReplicaApplier};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};
use tip_client::protocol::{self, req, resp};

/// Reconnect backoff: `BASE * 2^attempt` capped at `MAX`, plus jitter.
const BACKOFF_BASE: Duration = Duration::from_millis(100);
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// How long the drain pass keeps reading already-sent frames after a
/// stop/promote request before letting go of the socket.
const DRAIN_WINDOW: Duration = Duration::from_millis(500);

/// A running replication stream. Dropping it stops the thread; use
/// [`ReplicationClient::stop_and_drain`] for an orderly promotion.
pub struct ReplicationClient {
    db: Arc<Database>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicationClient {
    /// Starts streaming from `primary` (a `host:port` address) into
    /// `db`, which should already be marked read-only.
    pub fn start(db: &Arc<Database>, primary: impl Into<String>) -> ReplicationClient {
        let primary = primary.into();
        let stop = Arc::new(AtomicBool::new(false));
        let t_db = Arc::clone(db);
        let t_stop = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("tip-repl-client".to_string())
            .spawn(move || run(t_db, &primary, &t_stop))
            .expect("spawn replication client thread");
        ReplicationClient {
            db: Arc::clone(db),
            stop,
            thread: Some(thread),
        }
    }

    /// Promotion step one: stop the stream after draining every frame
    /// the primary already sent (tolerating a dead primary), and return
    /// the newest primary commit sequence this node has applied.
    pub fn stop_and_drain(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.db.repl_stats().last_seq()
    }
}

impl Drop for ReplicationClient {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Why one subscription attempt ended.
enum StreamEnd {
    /// Stop was requested and the stream has been drained.
    Stop,
    /// Connection failed or died; reconnect from the applier's
    /// position. `progressed` is true when this stream applied at least
    /// one frame before dying — a healthy long-lived stream that tore,
    /// not a primary that keeps refusing us.
    Lost { progressed: bool },
}

fn run(db: Arc<Database>, primary: &str, stop: &AtomicBool) {
    let mut applier = ReplicaApplier::new(&db);
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        match stream_once(&db, primary, &mut applier, stop) {
            StreamEnd::Stop => break,
            StreamEnd::Lost { progressed } => {
                // Anything mid-frame is a torn chunk: drop it and let
                // the next subscription resume at the committed offset.
                applier.discard_partial();
                db.repl_stats().record_reconnect();
                if progressed {
                    // The stream was working before it died: reconnect
                    // eagerly instead of inheriting the backoff ramp of
                    // every disconnect over this replica's lifetime.
                    attempt = 0;
                }
                backoff_sleep(attempt, stop);
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

/// One full subscription: handshake, SUBSCRIBE at the applier's
/// position, then apply/ack until the stream dies or stop is requested.
fn stream_once(
    db: &Arc<Database>,
    primary: &str,
    applier: &mut ReplicaApplier,
    stop: &AtomicBool,
) -> StreamEnd {
    let lost = |progressed| StreamEnd::Lost { progressed };
    let Ok(mut stream) = TcpStream::connect(primary) else {
        return lost(false);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));

    if let Err(e) = protocol::client_handshake(&mut stream, None) {
        eprintln!("tip-server: primary {primary} refused the handshake: {e}");
        return lost(false);
    }

    let (generation, offset) = applier.position();
    if send(
        &mut stream,
        req::SUBSCRIBE,
        &protocol::encode_subscribe(generation, offset),
    )
    .is_err()
    {
        return lost(false);
    }

    // Catch-up snapshot pieces accumulate here until `is_last`.
    let mut snap_buf: Vec<u8> = Vec::new();
    let mut progressed = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            drain(&mut stream, applier, db);
            return StreamEnd::Stop;
        }
        // Short peek so stop requests are noticed while idle; the full
        // read timeout applies once a frame starts arriving.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) => return lost(progressed),
            Ok(_) => {}
            Err(e) if would_block(&e) => continue,
            Err(_) => return lost(progressed),
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let (tag, body) = match protocol::read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => return lost(progressed),
        };
        if !apply_frame(db, applier, &mut stream, &mut snap_buf, tag, &body) {
            return lost(progressed);
        }
        progressed = true;
    }
}

/// Applies one replication frame. Returns `false` when the stream must
/// be abandoned and re-established.
fn apply_frame(
    db: &Arc<Database>,
    applier: &mut ReplicaApplier,
    stream: &mut TcpStream,
    snap_buf: &mut Vec<u8>,
    tag: u8,
    body: &[u8],
) -> bool {
    match tag {
        resp::SNAPSHOT_CHUNK => {
            let Ok((generation, is_last, bytes)) = protocol::decode_snapshot_chunk(body) else {
                return false;
            };
            snap_buf.extend_from_slice(&bytes);
            if is_last {
                let whole = std::mem::take(snap_buf);
                if let Err(e) = applier.reset_to_snapshot(generation, &whole) {
                    eprintln!("tip-server: snapshot catch-up failed: {e}");
                    return false;
                }
            }
            true
        }
        resp::WAL_CHUNK => {
            let Ok((gen, offset, watermark, bytes)) = protocol::decode_wal_chunk(body) else {
                return false;
            };
            // The chunk must continue exactly where the stream left
            // off: the applier's committed position plus any buffered
            // partial-transaction tail. A mismatch means primary-side
            // accounting skew or frame reordering — fail fast and
            // resubscribe from the committed position instead of
            // corrupting state (or dying later on a confusing CRC or
            // decode error).
            let (want_gen, committed) = applier.position();
            let want_offset = committed + applier.buffered() as u64;
            if gen != want_gen || offset != want_offset {
                eprintln!(
                    "tip-server: replication stream discontinuity: chunk at \
                     ({gen}, {offset}), expected ({want_gen}, {want_offset}); resubscribing"
                );
                return false;
            }
            if let Err(e) = applier.feed(&bytes) {
                // Corrupt frame: resync from the committed position (the
                // primary re-reads the log from disk on resubscribe).
                eprintln!("tip-server: replication apply failed: {e}");
                return false;
            }
            // `watermark > 0` means these bytes reach the primary's
            // durable frontier; once every commit in them is applied
            // (nothing buffered), the replica can vouch for them.
            if watermark > 0 && applier.is_drained() {
                let (generation, offset) = applier.position();
                db.repl_stats().set_last_seq(watermark);
                if send(
                    stream,
                    req::REPL_ACK,
                    &protocol::encode_repl_ack(generation, offset, watermark),
                )
                .is_err()
                {
                    return false;
                }
            }
            true
        }
        resp::ERROR => {
            if let Ok(e) = protocol::decode_error(body) {
                eprintln!("tip-server: primary refused replication: {e}");
            }
            false
        }
        _ => false,
    }
}

/// Final pass after a stop/promote request: keep applying frames the
/// primary already sent until the socket runs dry (or the window
/// closes). A dead primary — the promotion case — just runs dry fast.
fn drain(stream: &mut TcpStream, applier: &mut ReplicaApplier, db: &Arc<Database>) {
    let deadline = Instant::now() + DRAIN_WINDOW;
    let mut snap_buf: Vec<u8> = Vec::new();
    while Instant::now() < deadline {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        match protocol::read_frame(stream) {
            Ok((tag, body)) => {
                if !apply_frame(db, applier, stream, &mut snap_buf, tag, &body) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    applier.discard_partial();
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Sleeps `BASE * 2^attempt` (capped) plus up to 50% jitter, waking
/// early on stop. The jitter source is the wall clock's subsecond
/// nanos — enough to decorrelate reconnect storms without a PRNG.
fn backoff_sleep(attempt: u32, stop: &AtomicBool) {
    let base = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(5))
        .min(BACKOFF_MAX);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    let jitter = Duration::from_millis(nanos % (base.as_millis() as u64 / 2).max(1));
    let deadline = Instant::now() + base + jitter;
    while Instant::now() < deadline {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
}
