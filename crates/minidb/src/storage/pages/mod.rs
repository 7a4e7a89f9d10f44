//! Paged storage engine: disk manager, evicting buffer pool, and the
//! [`PagedStore`] that tables allocate cold-row slots from.
//!
//! Layering:
//!
//! * [`layout`] — the slotted page format (CRC + LSN header, slot
//!   directory) over raw byte buffers.
//! * [`disk`] — the single `pages.db` file; torn-page detection on read.
//! * [`pool`] — the bounded frame table with CLOCK eviction, pin
//!   guards, and WAL-barriered dirty writeback.
//! * [`PagedStore`] (here) — page allocation and the epoch life cycle
//!   that makes reuse crash-safe.
//!
//! ## Crash-safe page reuse
//!
//! The durable state is `snapshot.db` (the epoch record: every table's
//! slot layout, with cold rows as `(page, slot)` references) plus the
//! WAL. Pages referenced by the *on-disk* snapshot must stay immutable
//! until the next epoch is durably published — otherwise a crash
//! between a page overwrite and the snapshot rename would leave the old
//! snapshot pointing at bytes it never described. `PagedStore` enforces
//! this with three rules:
//!
//! 1. Records are only appended to pages **not** in `durable_refs` (the
//!    pages the last published epoch references). The current fill page
//!    is retired at every epoch publish, so each page is written during
//!    at most one epoch window.
//! 2. Freed slots are bookkeeping only — page bytes are never mutated
//!    by deletion. A page becomes *dead* when its live count reaches
//!    zero.
//! 3. A dead page returns to the free list only after (a) an epoch that
//!    no longer references it has been published, and (b) the MVCC GC
//!    floor has passed the sequence at which it was stamped dead — so
//!    no retained table version (and no in-flight `AS OF` pin) can
//!    still fault it.

pub mod disk;
pub mod layout;
pub mod pool;

pub use disk::{DiskManager, PAGE_FILE};
pub use layout::{DEFAULT_PAGE_SIZE, FLAG_COLD, MAX_PAGE_SIZE, MIN_PAGE_SIZE};
pub use pool::{BufferPool, FlushBarrier, PoolStatsSnapshot};

use crate::error::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Address of one cold record: page number + slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColdRef {
    pub page: u32,
    pub slot: u16,
}

/// One page's bytes from one pool visit (see [`PagedStore::page`]):
/// every record a reader wants from the page is read from this handle.
pub struct Page {
    no: u32,
    bytes: Arc<Vec<u8>>,
}

impl Page {
    /// The page number.
    pub fn no(&self) -> u32 {
        self.no
    }

    /// The bytes of record `slot`. A tombstoned slot is a typed error: a
    /// table holds the only reference to its records, so a dangling one
    /// is corruption.
    pub fn record(&self, slot: u16) -> DbResult<&[u8]> {
        layout::read_slot(&self.bytes, slot)?.ok_or_else(|| DbError::Persist {
            message: format!("page {} slot {slot} is tombstoned", self.no),
        })
    }
}

#[derive(Default)]
struct StoreMeta {
    /// Next never-allocated page number (page 0 is the file header).
    next_page: u32,
    /// Current fill target for new records; retired at epoch publish.
    open_page: Option<u32>,
    /// Live record count per page still holding current rows.
    live: HashMap<u32, u32>,
    /// Pages cleared for reuse.
    free_pages: Vec<u32>,
    /// Fully dead pages awaiting reclaim: page -> the checkpoint
    /// sequence at which death was durably recorded (`u64::MAX` until
    /// the first publish after death stamps it).
    dead: HashMap<u32, u64>,
    /// Pages the last *published* epoch references — immutable and
    /// unallocatable until a later epoch drops them.
    durable_refs: HashSet<u32>,
}

/// The page allocator over one buffer pool — shared by every table of a
/// database.
pub struct PagedStore {
    pool: Arc<BufferPool>,
    meta: Mutex<StoreMeta>,
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.meta.lock();
        f.debug_struct("PagedStore")
            .field("next_page", &m.next_page)
            .field("live_pages", &m.live.len())
            .field("free_pages", &m.free_pages.len())
            .field("dead_pages", &m.dead.len())
            .finish()
    }
}

impl PagedStore {
    /// Opens (creating as needed) the page file in `dir` behind a pool
    /// of `pool_pages` frames.
    pub fn open(dir: &Path, page_size: usize, pool_pages: usize) -> DbResult<Arc<PagedStore>> {
        let disk = DiskManager::open(dir, page_size)?;
        Ok(Arc::new(PagedStore {
            pool: Arc::new(BufferPool::new(disk, pool_pages)),
            meta: Mutex::new(StoreMeta {
                next_page: 1,
                ..StoreMeta::default()
            }),
        }))
    }

    /// Installs the WAL flush barrier on the pool (one-shot).
    pub fn set_flush_barrier(&self, f: FlushBarrier) {
        self.pool.set_flush_barrier(f);
    }

    /// Largest record a page can hold; bigger rows stay resident.
    pub fn max_record_len(&self) -> usize {
        layout::max_record_len(self.pool.page_size())
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// The pool's frame capacity.
    pub fn pool_pages(&self) -> usize {
        self.pool.capacity()
    }

    /// Pool counter snapshot (`bufpool.*` gauges).
    pub fn stats(&self) -> PoolStatsSnapshot {
        self.pool.stats()
    }

    /// `true` when the page is resident in the pool (tests/benches).
    pub fn page_resident(&self, page: u32) -> bool {
        self.pool.contains(page)
    }

    /// Appends a record, returning its address. Only pages outside the
    /// durable epoch are written (see the module docs), so a crash
    /// before the next snapshot rename can never corrupt what the
    /// current snapshot references.
    pub fn alloc_slot(&self, bytes: &[u8], lsn: u64) -> DbResult<ColdRef> {
        if bytes.len() > self.max_record_len() {
            return Err(DbError::Persist {
                message: format!(
                    "record of {} bytes exceeds page capacity {}",
                    bytes.len(),
                    self.max_record_len()
                ),
            });
        }
        let mut m = self.meta.lock();
        if let Some(page) = m.open_page {
            if let Some(slot) = self.pool.insert_slot(page, bytes, lsn)? {
                *m.live.entry(page).or_insert(0) += 1;
                return Ok(ColdRef { page, slot });
            }
            m.open_page = None; // full: start a new page
        }
        let page = match m.free_pages.pop() {
            Some(p) => p,
            None => {
                let p = m.next_page;
                m.next_page += 1;
                p
            }
        };
        debug_assert!(
            !m.durable_refs.contains(&page),
            "allocated a page the durable epoch still references"
        );
        self.pool.create_page(page, FLAG_COLD, lsn)?;
        let slot = self
            .pool
            .insert_slot(page, bytes, lsn)?
            .expect("fresh page fits a validated record");
        m.open_page = Some(page);
        *m.live.entry(page).or_insert(0) += 1;
        Ok(ColdRef { page, slot })
    }

    /// Drops one record reference. Pure bookkeeping — page bytes are
    /// never rewritten by deletion (rule 2 of the module docs); when a
    /// page's live count reaches zero it is queued for epoch-gated
    /// reclaim.
    pub fn free_slot(&self, cref: ColdRef) {
        let mut m = self.meta.lock();
        let dead = match m.live.get_mut(&cref.page) {
            Some(n) => {
                *n = n.saturating_sub(1);
                *n == 0
            }
            None => false,
        };
        if dead {
            m.live.remove(&cref.page);
            if m.open_page == Some(cref.page) {
                m.open_page = None;
            }
            m.dead.insert(cref.page, u64::MAX);
        }
    }

    /// Page `page_no`, faulted in (and CRC-checked) as needed. The bytes
    /// are shared with the pool frame, not copied, and stay valid after
    /// the frame is evicted.
    pub fn page(&self, page_no: u32) -> DbResult<Page> {
        Ok(Page {
            no: page_no,
            bytes: self.pool.page(page_no)?,
        })
    }

    /// Copies one record's bytes out.
    pub fn read(&self, cref: ColdRef) -> DbResult<Vec<u8>> {
        Ok(self.page(cref.page)?.record(cref.slot)?.to_vec())
    }

    /// Writes every dirty page (WAL barrier first) and fsyncs the page
    /// file — called before the snapshot that references those pages is
    /// published. O(dirty), not O(database).
    pub fn flush(&self) -> DbResult<()> {
        self.pool.flush_dirty()
    }

    /// Publishes an epoch: `refs` are the pages the just-written
    /// snapshot references, `seq` its checkpoint sequence, `floor` the
    /// MVCC GC floor after the checkpoint's version sweep. Stamps
    /// newly-dead pages, reclaims pages dead since before `floor` that
    /// the epoch no longer references, retires the fill page, and
    /// installs `refs` as the new immutable set.
    pub fn publish_epoch(&self, refs: &HashSet<u32>, seq: u64, floor: u64) {
        let mut m = self.meta.lock();
        let mut freed = Vec::new();
        for (&page, dead_at) in m.dead.iter_mut() {
            if *dead_at == u64::MAX {
                *dead_at = seq;
            } else if *dead_at < floor && !refs.contains(&page) {
                freed.push(page);
            }
        }
        for page in freed {
            m.dead.remove(&page);
            m.free_pages.push(page);
        }
        // A page can drop out of the reference set without ever seeing
        // `free_slot` — a DROP TABLE discards cold rows wholesale. Such
        // pages still carry a live count; stamp them dead now so they
        // are reclaimed once the floor passes, instead of leaking until
        // the next restart.
        let orphaned: Vec<u32> = m
            .live
            .keys()
            .filter(|p| !refs.contains(p))
            .copied()
            .collect();
        for page in orphaned {
            m.live.remove(&page);
            m.dead.insert(page, seq);
        }
        // The fill page is now (or may now be) durably referenced:
        // retire it so no later write mutates an epoch-referenced page.
        m.open_page = None;
        m.durable_refs = refs.clone();
    }

    /// Adopts the page references of a just-loaded snapshot — the
    /// recovery path. `live_counts` maps each referenced page to its
    /// record count. Every other page below the high-water mark is
    /// free: the loaded snapshot *is* the durable epoch, so nothing
    /// else can be referenced (a torn checkpoint's half-written pages
    /// land here and are simply overwritten on reuse).
    pub fn adopt_refs(&self, live_counts: HashMap<u32, u32>) {
        let mut m = self.meta.lock();
        m.next_page = live_counts.keys().max().map_or(1, |&p| p + 1);
        m.durable_refs = live_counts.keys().copied().collect();
        m.free_pages = (1..m.next_page)
            .filter(|p| !live_counts.contains_key(p))
            .collect();
        m.live = live_counts;
        m.dead.clear();
        m.open_page = None;
    }

    /// `(live, free, dead)` page counts — observability and tests.
    pub fn page_counts(&self) -> (usize, usize, usize) {
        let m = self.meta.lock();
        (m.live.len(), m.free_pages.len(), m.dead.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minidb-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn alloc_read_free_and_epoch_reclaim() {
        let dir = scratch();
        let store = PagedStore::open(&dir, 512, 8).unwrap();
        let a = store.alloc_slot(b"one", 1).unwrap();
        let b = store.alloc_slot(b"two", 1).unwrap();
        assert_eq!(a.page, b.page, "records pack into the fill page");
        assert_eq!(store.read(a).unwrap(), b"one");
        assert_eq!(store.read(b).unwrap(), b"two");

        // Free both: the page goes dead but is NOT immediately reusable.
        store.free_slot(a);
        store.free_slot(b);
        assert_eq!(store.page_counts(), (0, 0, 1));

        // First publish stamps death at seq 5; the page must survive
        // until the floor passes 5 (a retained MVCC version could still
        // fault it).
        store.publish_epoch(&HashSet::new(), 5, 3);
        assert_eq!(store.page_counts(), (0, 0, 1));
        // Floor moves past 5: reclaimed.
        store.publish_epoch(&HashSet::new(), 9, 8);
        assert_eq!(store.page_counts(), (0, 1, 0));

        // The freed page is reused for the next allocation.
        let c = store.alloc_slot(b"three", 10).unwrap();
        assert_eq!(c.page, a.page);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_referenced_pages_are_never_refilled() {
        let dir = scratch();
        let store = PagedStore::open(&dir, 512, 8).unwrap();
        let a = store.alloc_slot(b"kept", 1).unwrap();
        // Publish an epoch referencing the fill page: it is retired.
        store.publish_epoch(&HashSet::from([a.page]), 2, 1);
        let b = store.alloc_slot(b"next", 3).unwrap();
        assert_ne!(
            a.page, b.page,
            "a durably-referenced page must not take new records"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adopt_refs_rebuilds_allocation_state() {
        let dir = scratch();
        let store = PagedStore::open(&dir, 512, 8).unwrap();
        for _ in 0..3 {
            // Burn through pages 1..=3 by filling each with one big
            // record and retiring the fill page.
            let r = store.alloc_slot(&[7u8; 300], 1).unwrap();
            store.publish_epoch(&HashSet::from([r.page]), 1, 0);
        }
        // Recovery says only page 2 is referenced (2 records). Page 1
        // lands on the free list; page 3 is above the adopted
        // high-water mark and returns to the fresh extent (`next_page`
        // resets to 3), so it is reused by extension, not via the list.
        store.adopt_refs(HashMap::from([(2u32, 2u32)]));
        assert_eq!(store.page_counts(), (1, 1, 0), "page 1 is free");
        let r = store.alloc_slot(b"new", 2).unwrap();
        assert_ne!(r.page, 2, "the referenced page is not allocatable");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
