//! The buffer pool bounds resident memory, measured from outside the
//! engine: a dataset many times the pool is faulted through it by full
//! scans and `AS OF` sweeps, and the process's resident set may grow by
//! no more than twice the pool's bytes. The file holds one test so the
//! process's RSS is that test's alone. RSS is read from `/proc`, so the
//! test exists on Linux only.
#![cfg(target_os = "linux")]

use minidb::{DataType, Database, DurabilityConfig, SyncMode, UdtValue, Value};
use std::sync::Arc;

mod common;
use common::{Validity, ValidityBlade};

const ROWS: i64 = 16_000;
const PAGE_SIZE: usize = 4096;
const POOL_PAGES: usize = 64;
const SWEEPS: usize = 9;

/// Resident set size of this process in bytes (`VmRSS`).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb * 1024
}

#[test]
#[ignore = "loads 16,000 rows; run with --release -- --ignored"]
fn cold_sweeps_grow_rss_by_at_most_twice_the_pool() {
    let dir = std::env::temp_dir().join(format!("minidb-paged-rss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig {
        sync_mode: SyncMode::Off,
        checkpoint_bytes: 0, // explicit checkpoints only
        page_size: PAGE_SIZE,
        pool_pages: POOL_PAGES,
        ..DurabilityConfig::default()
    };
    let (db, _) = Database::open_with(&dir, cfg, |db| db.install_blade(&ValidityBlade)).unwrap();
    let s = db.session();
    s.execute("CREATE TABLE load (id INT, pad CHAR(64), v Validity)")
        .unwrap();
    // Closed long before the wall clock: cold at the next checkpoint.
    let closed = match db.with_catalog(|cat| cat.lookup_type_name("Validity").unwrap()) {
        DataType::Udt(id) => Value::Udt(UdtValue::new(id, Arc::new(Validity(0, 10)))),
        other => panic!("Validity resolved to {other:?}"),
    };
    for i in 0..ROWS {
        s.execute_with_params(
            "INSERT INTO load VALUES (:id, :pad, :v)",
            &[
                ("id", Value::Int(i)),
                (
                    "pad",
                    Value::Str("sixty-four-bytes-of-page-resident-pad".into()),
                ),
                ("v", closed.clone()),
            ],
        )
        .unwrap();
    }
    let count = |sql: &str| {
        let r = s.query(sql).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(ROWS), "{sql} sees every row");
    };
    db.checkpoint().unwrap(); // spills every row to pages.db
    let (cold_pages, _, _) = db.paged_store().unwrap().page_counts();
    assert!(
        cold_pages >= 4 * POOL_PAGES,
        "the dataset must be at least 4x the pool: {cold_pages} pages"
    );

    let before = rss_bytes();
    let asof = format!(
        "SELECT COUNT(id) FROM load AS OF COMMIT {}",
        db.commit_seq()
    );
    for _ in 0..SWEEPS {
        count("SELECT COUNT(id) FROM load");
    }
    for _ in 0..SWEEPS {
        count(&asof);
    }
    let growth = rss_bytes().saturating_sub(before);
    let pool_bytes = (POOL_PAGES * PAGE_SIZE) as u64;
    println!("rss growth {growth} B over {cold_pages} cold pages, pool {pool_bytes} B");
    assert!(db.bufpool_stats().evictions > 0);
    // An unbounded cache would grow by the whole dataset, a bounded
    // pool by its frames at most.
    assert!(
        growth <= 2 * pool_bytes,
        "RSS grew {growth} B over the cold sweeps, past 2x the {pool_bytes} B pool"
    );
    drop(s);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
