//! The traced run: one client, every statement executed over the wire
//! and then replayed by calling the layers' public functions in order,
//! a span recorded around each call. The per-layer metrics come from
//! these spans and from the public counters read at the same points.
//!
//! Spans are recorded here, around the calls into each layer; spans
//! inside `minidb` and `tip-server` are a later change.

use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::run::{reply_matches, Env, Wire};
use crate::spans::{self, Tracer, ROOT};
use crate::stats::percentile;
use crate::workloads::{now, now_unix, Kind, Stmt, Workload};
use minidb::plan::{PlannedSelect, Planner};
use minidb::sql::ast::Statement;
use minidb::sql::parse_statement;
use minidb::wal::file::StdWalFile;
use minidb::wal::{record, Wal};
use minidb::{Database, DbError, DbResult, ExecCtx, SyncMode, TableSource, Value};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tip_blade::{TipBlade, TipTypes};
use tip_client::{protocol, Connection, HostValue};

/// Rows per ROW_BATCH frame, as `ServerConfig::default()` streams them.
const ROWS_PER_BATCH: usize = 256;

/// Statements between probes for a page fault.
const FAULT_PROBE_EVERY: u32 = 64;

/// Statements whose spans go to the trace file.
const TRACE_FILE_STMTS: u32 = 200;

pub struct Traced {
    /// Per-layer metric values, in `metrics::PER_LAYER` order.
    pub per_layer: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

fn lower(types: &TipTypes, v: &HostValue) -> Value {
    match v {
        HostValue::Null => Value::Null,
        HostValue::Bool(b) => Value::Bool(*b),
        HostValue::Int(i) => Value::Int(*i),
        HostValue::Float(f) => Value::Float(*f),
        HostValue::Str(s) | HostValue::OtherUdt(s) => Value::Str(s.clone()),
        HostValue::Chronon(c) => types.chronon(*c),
        HostValue::Span(s) => types.span(*s),
        HostValue::Instant(i) => types.instant(*i),
        HostValue::Period(p) => types.period(*p),
        HostValue::Element(e) => types.element(e.clone()),
    }
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 0.5) as f64 / 1e3
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds per input period of Element union and intersect at
/// `periods` periods per operand (`tip-core`, no database involved).
fn element_ns_per_period(periods: usize) -> f64 {
    let elems = tip_workload::random_resolved_elements(7, 64, periods, 3650);
    let budget = Duration::from_millis(20);
    let t = Instant::now();
    let mut ops = 0u64;
    while t.elapsed() < budget {
        for pair in elems.windows(2) {
            std::hint::black_box(pair[0].union(std::hint::black_box(&pair[1])));
            std::hint::black_box(pair[0].intersect(std::hint::black_box(&pair[1])));
            ops += 2;
        }
    }
    t.elapsed().as_nanos() as f64 / (ops * 2 * periods as u64) as f64
}

/// The replay side of the traced run: everything needed to call the
/// layers directly.
struct Replay<'a> {
    db: &'a Arc<Database>,
    types: TipTypes,
    /// The harness's stand-in for the plan cache: prepared classes plan
    /// once, ad-hoc text plans every time.
    plans: HashMap<usize, PlannedSelect>,
    /// In-process session on the real database, for `AS OF` reads.
    session: minidb::Session,
    /// In-memory, non-durable copy the writes are replayed on.
    shadow: Option<(Arc<Database>, minidb::Session)>,
    /// A stand-alone WAL on a file beside the real one.
    wal: Option<Arc<Wal>>,
}

#[derive(Default)]
struct Tally {
    wire: Vec<u64>,
    /// The same statements without the wire: in-process execution for
    /// reads, shadow commit + WAL probe for writes.
    inproc: Vec<u64>,
    /// Denominator of `trace.overhead`: in-process execution (reads) or
    /// the shadow commit (writes).
    opaque: Vec<u64>,
    replay: Vec<u64>,
    codec: Vec<u64>,
    parse: Vec<u64>,
    plan: Vec<u64>,
    exec: Vec<u64>,
    /// `(shadow table rows before the statement, commit ns)`.
    commits: Vec<(usize, u64)>,
    wal_append: Vec<u64>,
    wal_sync: Vec<u64>,
    fault: Vec<u64>,
    reply_bytes: Vec<u64>,
    payload_bytes: u64,
    selects: u64,
    batch_selects: u64,
    snapshot_bytes: u64,
    checkpoint_ns: u64,
    max_stall_ns: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_evictions: u64,
}

impl Replay<'_> {
    fn display(&self) -> impl Fn(&Value) -> String + '_ {
        |v| self.db.with_catalog(|c| c.display_value(v))
    }

    /// Request encode and decode; returns the decoded parameters and the
    /// time spent in the client's half.
    fn request(
        &self,
        tr: &mut Tracer,
        id: u32,
        root: u32,
        stmt: &Stmt,
        tally: &mut Tally,
    ) -> DbResult<(Vec<(String, Value)>, u64)> {
        let display = self.display();
        let span = tr.open("client.encode", id, root);
        let lowered: Vec<(&str, Value)> = stmt
            .params
            .iter()
            .map(|(n, v)| (*n, lower(&self.types, v)))
            .collect();
        let body = if stmt.prepared {
            protocol::encode_execute_prepared(1, &lowered, &display)
        } else {
            protocol::encode_stmt(&stmt.sql, &lowered, &display)
        };
        let encode_ns = tr.close(span);
        if stmt.kind == Kind::Write {
            tally.payload_bytes += body.len() as u64;
        }
        let params = tr.time("server.decode", id, root, || {
            if stmt.prepared {
                protocol::decode_execute_prepared(&body, &self.types).map(|(_, p)| p)
            } else {
                protocol::decode_stmt(&body, &self.types).map(|s| s.params)
            }
        })?;
        Ok((params, encode_ns))
    }

    /// Reply encode and decode for a row set; returns the client's half.
    fn reply_rows(
        &self,
        tr: &mut Tracer,
        id: u32,
        root: u32,
        columns: &[(String, minidb::DataType)],
        rows: &[minidb::Row],
        tally: &mut Tally,
    ) -> DbResult<u64> {
        let display = self.display();
        let frames = tr.time("server.encode_reply", id, root, || {
            let mut frames = vec![protocol::encode_rows_header(columns, &self.types)];
            for chunk in rows.chunks(ROWS_PER_BATCH) {
                frames.push(protocol::encode_row_batch(chunk, &display, &self.types));
            }
            frames
        });
        tally
            .reply_bytes
            .push(frames.iter().map(|f| f.len() as u64).sum());
        let span = tr.open("client.decode_reply", id, root);
        let header = protocol::decode_rows_header(&frames[0], &self.types)?;
        for frame in &frames[1..] {
            std::hint::black_box(protocol::decode_row_batch(
                frame,
                header.len(),
                &self.types,
            )?);
        }
        Ok(tr.close(span))
    }

    /// A plain SELECT, layer by layer.
    fn read(&mut self, tr: &mut Tracer, id: u32, stmt: &Stmt, tally: &mut Tally) -> DbResult<()> {
        let root = tr.open("stmt", id, ROOT);
        let (params, encode_ns) = self.request(tr, id, root, stmt, tally)?;
        let params: Arc<HashMap<String, Value>> = Arc::new(
            params
                .into_iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v))
                .collect(),
        );
        let ctx = ExecCtx::with_params(now_unix(), Arc::clone(&params));
        let mut cached = if stmt.prepared {
            self.plans.remove(&stmt.class)
        } else {
            None
        };
        let (planned, rows) = self.db.with_catalog(|catalog| {
            self.db.with_tables(|pinned| {
                let planned = match cached.take() {
                    Some(p) => p,
                    None => {
                        let span = tr.open("sql.parse", id, root);
                        let ast = parse_statement(&stmt.sql);
                        tally.parse.push(tr.close(span));
                        let Statement::Select(sel) = ast? else {
                            return Err(DbError::exec("a read class must be a SELECT"));
                        };
                        let span = tr.open("plan.bind_plan", id, root);
                        let planned = Planner::new_deferred(catalog, pinned, &params, ctx.clone())
                            .plan_select(&sel);
                        tally.plan.push(tr.close(span));
                        planned?
                    }
                };
                // Routed as `Session` routes it: the batch executor for a
                // batch-capable plan, the row interpreter otherwise.
                let batch = planned.plan.batch_capable();
                tally.selects += 1;
                tally.batch_selects += u64::from(batch);
                let span = tr.open("exec.run", id, root);
                let rows = if batch {
                    minidb::exec::execute(&planned.plan, pinned, &ctx)
                } else {
                    minidb::exec::execute_rows(&planned.plan, pinned, &ctx, None)
                };
                tally.exec.push(tr.close(span));
                Ok((planned, rows?))
            })
        })?;
        let decode_ns = self.reply_rows(tr, id, root, &planned.columns, &rows, tally)?;
        if stmt.prepared {
            self.plans.insert(stmt.class, planned);
        }
        tally.codec.push(encode_ns + decode_ns);
        tally.replay.push(tr.close(root));
        Ok(())
    }

    /// An `AS OF` SELECT: the executor half is one in-process call.
    fn read_as_of(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        stmt: &Stmt,
        tally: &mut Tally,
    ) -> DbResult<()> {
        let root = tr.open("stmt", id, ROOT);
        let (params, encode_ns) = self.request(tr, id, root, stmt, tally)?;
        let params: Vec<(&str, Value)> = params
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let result = tr.time("session.execute", id, root, || {
            self.session.query_with_params(&stmt.sql, &params)
        })?;
        let decode_ns = self.reply_rows(tr, id, root, &result.columns, &result.rows, tally)?;
        tally.codec.push(encode_ns + decode_ns);
        tally.replay.push(tr.close(root));
        Ok(())
    }

    /// A write: committed on the non-durable shadow, then its WAL chunk
    /// (`wal_bytes`, as the real database logged it) appended and synced
    /// on the probe log. Returns the in-process equivalent of the wire
    /// call: shadow commit + append + sync.
    fn write(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        stmt: &Stmt,
        wal_bytes: u64,
        tally: &mut Tally,
    ) -> DbResult<u64> {
        let root = tr.open("stmt", id, ROOT);
        let (params, encode_ns) = self.request(tr, id, root, stmt, tally)?;
        let params: Vec<(&str, Value)> = params
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        // DML is never plan-cached: the session parses it every time.
        let span = tr.open("sql.parse", id, root);
        let parsed = parse_statement(&stmt.sql).map(|_| ());
        let parse_ns = tr.close(span);
        parsed?;
        tally.parse.push(parse_ns);
        let (shadow_db, shadow) = self.shadow.as_ref().expect("write workloads have a shadow");
        let rows = shadow_db.with_tables(|t| t.table("Prescription").map(|t| t.len()))?;
        let span = tr.open("storage.commit", id, root);
        let outcome = shadow.execute_with_params(&stmt.sql, &params);
        let commit_ns = tr.close(span);
        outcome?;
        // The shadow call parsed the text again; the commit is the rest.
        tally
            .commits
            .push((rows, commit_ns.saturating_sub(parse_ns)));
        tally.opaque.push(commit_ns);
        let body = tr.time("server.encode_reply", id, root, || {
            protocol::encode_affected(1)
        });
        tally.reply_bytes.push(body.len() as u64);
        let span = tr.open("client.decode_reply", id, root);
        protocol::decode_affected(&body)?;
        let decode_ns = tr.close(span);
        tally.codec.push(encode_ns + decode_ns);
        tally.replay.push(tr.close(root));

        let wal = self.wal.as_ref().expect("write workloads have a WAL probe");
        let probe = tr.open("wal.probe", id, ROOT);
        let span = tr.open("wal.append", id, probe);
        let seq = wal.append_chunk(vec![0; wal_bytes as usize], 1);
        let append_ns = tr.close(span);
        let span = tr.open("wal.sync", id, probe);
        let synced = wal.wait_durable(seq?);
        let sync_ns = tr.close(span);
        tr.close(probe);
        synced?;
        tally.wal_append.push(append_ns);
        tally.wal_sync.push(sync_ns);
        Ok(commit_ns + append_ns + sync_ns)
    }

    /// Times `PagedStore::read` of one record whose page is not in the
    /// pool, if the first few hundred cold rows have one.
    fn probe_fault(&self, tr: &mut Tracer, id: u32, tally: &mut Tally) {
        let Some(store) = self.db.paged_store() else {
            return;
        };
        let miss = self.db.with_tables(|t| {
            t.table("Prescription").ok().and_then(|t| {
                t.cold_slots()
                    .take(512)
                    .map(|(_, cref)| cref)
                    .find(|cref| !store.page_resident(cref.page))
            })
        });
        if let Some(cref) = miss {
            let span = tr.open("pages.fault", id, ROOT);
            let read = store.read(cref);
            let ns = tr.close(span);
            if read.is_ok() {
                tally.fault.push(ns);
            }
        }
    }
}

pub fn run_traced(
    w: &dyn Workload,
    seconds: f64,
    scratch: &Path,
    trace_file: &Path,
) -> DbResult<Traced> {
    let env = Env::setup(w, scratch)?;
    let durable = w.durability().is_some();
    let io = |e: std::io::Error| DbError::Persist {
        message: format!("WAL probe file: {e}"),
    };
    let mut replay = Replay {
        db: &env.db,
        types: env.db.with_catalog(TipTypes::from_catalog)?,
        plans: HashMap::new(),
        session: {
            let mut s = env.db.session();
            s.set_now_unix(Some(now_unix()));
            s
        },
        shadow: if durable {
            let db = Database::new();
            db.install_blade(&TipBlade)?;
            w.load(&db)?;
            let mut s = db.session();
            s.set_now_unix(Some(now_unix()));
            Some((db, s))
        } else {
            None
        },
        wal: if durable {
            let file = StdWalFile::create(&scratch.join("probe.wal"), &record::encode_header(1))
                .map_err(io)?;
            Some(Wal::start(Box::new(file), SyncMode::EveryCommit))
        } else {
            None
        },
    };
    let conn = env.connect()?;
    let mut wire = Wire::new(&conn);
    let inproc_conn = Connection::attach(&env.db)?;
    inproc_conn.set_now(Some(now()));
    let mut inproc = Wire::new(&inproc_conn);
    let mut clients = vec![w.client(0)];

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let snapshot_len = |env: &Env| {
        env.dir
            .as_ref()
            .and_then(|d| std::fs::metadata(d.join("snapshot.db")).ok())
            .map_or(0, |m| m.len())
    };

    let m0 = env.server.metrics();
    let wal0 = env.db.wal_stats();
    let pool0 = env.db.bufpool_stats();
    let stop_at = Instant::now() + Duration::from_secs_f64(seconds);
    let mut id = 0u32;
    while Instant::now() < stop_at {
        let stmt = clients[0].next(&env.db);
        if stmt.kind == Kind::Checkpoint {
            let span = tr.open("checkpoint", id, ROOT);
            let done = env.db.checkpoint();
            let ns = tr.close(span);
            if let Err(e) = done {
                attempted += 1;
                failed += 1;
                failures.push(format!("checkpoint failed: {e}"));
            }
            tally.checkpoint_ns += ns;
            tally.max_stall_ns = tally.max_stall_ns.max(ns);
            tally.snapshot_bytes += snapshot_len(&env);
            continue;
        }
        attempted += 1;
        let before = env.db.wal_stats();
        let pool_before = env.db.bufpool_stats();
        let span = tr.open("wire", id, ROOT);
        let reply = wire.run(&stmt);
        let wire_ns = tr.close(span);
        let after = env.db.wal_stats();
        // Pool traffic of the wire execution alone: the replays below
        // read the same pages again.
        let pool_after = env.db.bufpool_stats();
        tally.pool_hits += pool_after.hits - pool_before.hits;
        tally.pool_misses += pool_after.misses - pool_before.misses;
        tally.pool_evictions += pool_after.evictions - pool_before.evictions;
        if after.checkpoints > before.checkpoints {
            // An automatic checkpoint ran inside this commit and stalled it.
            tally.checkpoint_ns += wire_ns;
            tally.max_stall_ns = tally.max_stall_ns.max(wire_ns);
            tally.snapshot_bytes += snapshot_len(&env);
        }
        let ok = match reply.map(|mut r| reply_matches(&stmt.expect, &mut r)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("{}: reply is not {:?}", stmt.sql, stmt.expect)),
            Err(e) => Err(format!("{} failed: {e}", stmt.sql)),
        };
        let replayed = ok.and_then(|()| {
            let inproc_ns = match stmt.kind {
                Kind::Write => {
                    replay.write(&mut tr, id, &stmt, after.bytes - before.bytes, &mut tally)
                }
                _ => {
                    // The same statement again, without the wire.
                    let twin = Stmt {
                        sql: stmt.twin.clone().unwrap_or_else(|| stmt.sql.clone()),
                        params: stmt.params.clone(),
                        twin: None,
                        expect: stmt.expect.clone(),
                        ..stmt
                    };
                    let span = tr.open("inproc", id, ROOT);
                    let again = inproc.run(&twin);
                    let ns = tr.close(span);
                    tally.opaque.push(ns);
                    again
                        .and_then(|_| match stmt.kind {
                            Kind::Read => replay.read(&mut tr, id, &twin, &mut tally),
                            _ => replay.read_as_of(&mut tr, id, &twin, &mut tally),
                        })
                        .map(|()| ns)
                }
            };
            inproc_ns.map_err(|e| format!("replay of {} failed: {e}", stmt.sql))
        });
        match replayed {
            Ok(inproc_ns) => {
                tally.wire.push(wire_ns);
                tally.inproc.push(inproc_ns);
            }
            Err(why) => {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(why);
                }
            }
        }
        if id.is_multiple_of(FAULT_PROBE_EVERY) {
            replay.probe_fault(&mut tr, id, &mut tally);
        }
        id += 1;
    }
    let m1 = env.server.metrics();
    let wal1 = env.db.wal_stats();
    let pool1 = env.db.bufpool_stats();
    let mvcc_versions = env.db.mvcc_versions();
    let page_size = env.db.paged_store().map_or(0, |s| s.page_size()) as u64;

    // The same answer checks as the untraced run.
    drop(wire);
    drop(inproc);
    drop(conn);
    if let Some(wal) = &replay.wal {
        wal.close();
    }
    drop(replay);
    let checked = env.check_and_teardown(w, &clients)?;
    let _ = std::fs::remove_file(scratch.join("probe.wal"));
    attempted += checked.attempted;
    failed += checked.failed;
    failures.extend(checked.failures);

    // Commit cost while the table is in the lowest and in the highest
    // tenth of the sizes it took: on a table that does not grow the two
    // agree.
    let lo = tally.commits.iter().map(|c| c.0).min().unwrap_or(0);
    let hi = tally.commits.iter().map(|c| c.0).max().unwrap_or(0);
    let tenth = (hi - lo) / 10;
    let commits_where = |keep: &dyn Fn(usize) -> bool| -> Vec<u64> {
        tally
            .commits
            .iter()
            .filter(|c| keep(c.0))
            .map(|c| c.1)
            .collect()
    };
    let commit_small = mean(&commits_where(&|rows| rows <= lo + tenth)) / 1e3;
    let commit_large = mean(&commits_where(&|rows| rows + tenth >= hi)) / 1e3;

    let totals = spans::totals_by_name(&tr.spans);
    let total_of = |name: &str| totals.get(name).map_or(0, |t| t.0);
    let wal_bytes = wal1.bytes - wal0.bytes;
    let wal_commits = wal1.commits - wal0.commits;
    let writeback_bytes = (pool1.writebacks - pool0.writebacks) * page_size;
    let values: HashMap<&str, f64> = HashMap::from([
        ("client.codec_us", p50_us(&mut tally.codec)),
        ("client.reply_bytes", mean(&tally.reply_bytes)),
        ("trace.wire_p50_us", p50_us(&mut tally.wire)),
        (
            "server.wire_queue_us",
            p50_us(&mut tally.wire) - p50_us(&mut tally.inproc),
        ),
        ("sql.parse_us", p50_us(&mut tally.parse)),
        ("plan.bind_plan_us", p50_us(&mut tally.plan)),
        (
            "cache.hit_ratio",
            ratio(
                m1.plan_cache_hits - m0.plan_cache_hits,
                (m1.plan_cache_hits - m0.plan_cache_hits)
                    + (m1.plan_cache_misses - m0.plan_cache_misses),
            ),
        ),
        ("exec.run_us", p50_us(&mut tally.exec)),
        (
            "exec.run_share",
            ratio(total_of("exec.run"), total_of("stmt")),
        ),
        (
            "exec.rows_scanned_per_returned",
            ratio(
                m1.rows_scanned - m0.rows_scanned,
                m1.rows_returned - m0.rows_returned,
            ),
        ),
        (
            "exec.batch_share",
            ratio(tally.batch_selects, tally.selects),
        ),
        (
            "scans.index_overlap",
            (m1.index_overlap_scans - m0.index_overlap_scans) as f64,
        ),
        ("core.element_ns_per_period_3", element_ns_per_period(3)),
        ("core.element_ns_per_period_256", element_ns_per_period(256)),
        ("storage.commit_us_small_table", commit_small),
        ("storage.commit_us_large_table", commit_large),
        (
            "storage.commit_growth",
            if commit_small > 0.0 {
                commit_large / commit_small
            } else {
                0.0
            },
        ),
        ("storage.mvcc_versions", mvcc_versions as f64),
        ("wal.append_us", p50_us(&mut tally.wal_append)),
        ("wal.sync_us", p50_us(&mut tally.wal_sync)),
        ("wal.bytes_per_commit", ratio(wal_bytes, wal_commits)),
        (
            "wal.commits_per_fsync",
            ratio(wal_commits, wal1.fsyncs - wal0.fsyncs),
        ),
        (
            "write_amp",
            ratio(
                wal_bytes + tally.snapshot_bytes + writeback_bytes,
                tally.payload_bytes,
            ),
        ),
        (
            "checkpoint.count",
            (wal1.checkpoints - wal0.checkpoints) as f64,
        ),
        ("checkpoint.total_s", tally.checkpoint_ns as f64 / 1e9),
        (
            "checkpoint.bytes",
            (tally.snapshot_bytes + writeback_bytes) as f64,
        ),
        ("checkpoint.max_stall_us", tally.max_stall_ns as f64 / 1e3),
        (
            "pages.hit_ratio",
            ratio(tally.pool_hits, tally.pool_hits + tally.pool_misses),
        ),
        (
            "pages.faults_per_stmt",
            ratio(tally.pool_misses, tally.wire.len() as u64),
        ),
        ("pages.fault_us", p50_us(&mut tally.fault)),
        ("pages.evictions", tally.pool_evictions as f64),
        (
            "pages.writebacks",
            (pool1.writebacks - pool0.writebacks) as f64,
        ),
        ("trace.statements", tally.wire.len() as f64),
        // The part of all `stmt` spans no child covers.
        (
            "trace.unattributed_share",
            totals.get("stmt").map_or(0.0, |t| ratio(t.1, t.0)),
        ),
        ("trace.overhead", {
            let opaque = p50_us(&mut tally.opaque);
            if opaque > 0.0 {
                p50_us(&mut tally.replay) / opaque
            } else {
                0.0
            }
        }),
    ]);

    let mut names: Vec<&&str> = totals.keys().collect();
    names.sort();
    let file = Json::obj(vec![
        ("workload", Json::str(w.name())),
        ("statements_traced", Json::Num(f64::from(id))),
        (
            "statements_in_file",
            Json::Num(f64::from(id.min(TRACE_FILE_STMTS))),
        ),
        (
            "totals",
            Json::Obj(
                names
                    .into_iter()
                    .map(|n| {
                        let (total, own) = totals[*n];
                        (
                            (*n).to_owned(),
                            Json::obj(vec![
                                ("total_ns", Json::Num(total as f64)),
                                ("self_ns", Json::Num(own as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("spans", spans::to_json(&tr.spans, TRACE_FILE_STMTS)),
    ]);
    if let Some(parent) = trace_file.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(trace_file, file.compact()) {
        eprintln!("tipbench: cannot write {}: {e}", trace_file.display());
    }

    Ok(Traced {
        per_layer: PER_LAYER.iter().map(|m| values[m.name]).collect(),
        attempted,
        failed,
        failures,
    })
}
