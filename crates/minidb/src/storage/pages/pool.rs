//! Evicting buffer pool: a bounded frame table over the disk manager.
//!
//! The pool core (frame table + clock hand + disk manager) lives under
//! one mutex — faults, reads, and mutations are short critical sections,
//! so the single lock is simpler and safe: a pin can only be taken under
//! the same lock the eviction scan holds, closing the pin/evict race by
//! construction. A read takes a shared handle on the frame's bytes and
//! decodes outside the lock; writes copy a frame a reader still holds.
//!
//! Eviction is CLOCK over unpinned frames (a referenced bit grants one
//! lap of grace). Evicting a dirty frame honors the WAL rule: the
//! configured flush barrier is invoked with the page's LSN — forcing the
//! WAL durable through that sequence — before the page bytes are
//! written. A pool at capacity with every frame pinned reports a typed
//! [`DbError::Persist`], never a deadlock.

use super::disk::DiskManager;
use super::layout;
use crate::error::{DbError, DbResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Flushes the WAL durable through the given LSN — installed by the
/// durability layer before any dirty page can be evicted.
pub type FlushBarrier = Arc<dyn Fn(u64) -> DbResult<()> + Send + Sync>;

/// Monotonic pool counters plus the resident-page gauge.
#[derive(Default)]
pub struct PoolStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub writebacks: AtomicU64,
    pub pages: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub pages: u64,
}

struct Frame {
    /// Shared with the readers [`BufferPool::page`] handed it to; a
    /// write copies it first if any still hold it.
    data: Arc<Vec<u8>>,
    pin: u32,
    dirty: bool,
    ref_bit: bool,
}

struct Core {
    disk: DiskManager,
    frames: HashMap<u32, Frame>,
    /// Clock order: resident page numbers; stale entries (already
    /// evicted) are skipped and dropped lazily.
    clock: Vec<u32>,
    hand: usize,
}

/// The bounded, evicting page cache.
pub struct BufferPool {
    core: Mutex<Core>,
    capacity: usize,
    page_size: usize,
    stats: PoolStats,
    flush_barrier: OnceLock<FlushBarrier>,
}

impl BufferPool {
    /// Wraps a disk manager with a pool of at most `capacity` frames.
    pub fn new(disk: DiskManager, capacity: usize) -> BufferPool {
        let page_size = disk.page_size();
        BufferPool {
            core: Mutex::new(Core {
                disk,
                frames: HashMap::new(),
                clock: Vec::new(),
                hand: 0,
            }),
            capacity: capacity.max(1),
            page_size,
            stats: PoolStats::default(),
            flush_barrier: OnceLock::new(),
        }
    }

    /// Installs the WAL flush barrier. One-shot; later calls are ignored.
    pub fn set_flush_barrier(&self, f: FlushBarrier) {
        let _ = self.flush_barrier.set(f);
    }

    /// The pool's frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The underlying page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            pages: self.stats.pages.load(Ordering::Relaxed),
        }
    }

    /// `true` when the page is currently resident (tests/benches).
    pub fn contains(&self, page_no: u32) -> bool {
        self.core.lock().frames.contains_key(&page_no)
    }

    fn flush_frame(&self, disk: &mut DiskManager, page_no: u32, frame: &mut Frame) -> DbResult<()> {
        if !frame.dirty {
            return Ok(());
        }
        // WAL rule: the log must be durable through this page's LSN
        // before the page bytes may reach disk.
        if let Some(barrier) = self.flush_barrier.get() {
            barrier(layout::page_lsn(&frame.data))?;
        }
        layout::seal_crc(Arc::make_mut(&mut frame.data).as_mut_slice());
        disk.write_page(page_no, &frame.data)?;
        frame.dirty = false;
        self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Makes room for one more frame, evicting a CLOCK victim if the
    /// pool is full. Errors (typed, no deadlock) when every frame is
    /// pinned.
    fn make_room(&self, core: &mut Core) -> DbResult<()> {
        if core.frames.len() < self.capacity {
            return Ok(());
        }
        // Two laps: the first clears referenced bits, the second takes
        // the first unpinned frame. 2 * clock.len() sweep positions
        // bound the scan; if none qualify, everything is pinned.
        let mut swept = 0usize;
        let max_sweep = 2 * core.clock.len().max(1);
        while swept < max_sweep {
            if core.clock.is_empty() {
                break;
            }
            let i = core.hand % core.clock.len();
            let page_no = core.clock[i];
            match core.frames.get_mut(&page_no) {
                None => {
                    // Stale clock entry: drop it, keep the hand in place.
                    core.clock.swap_remove(i);
                    continue;
                }
                Some(f) if f.pin > 0 => {
                    core.hand = (i + 1) % core.clock.len();
                    swept += 1;
                }
                Some(f) if f.ref_bit => {
                    f.ref_bit = false;
                    core.hand = (i + 1) % core.clock.len();
                    swept += 1;
                }
                Some(_) => {
                    let mut frame = core.frames.remove(&page_no).expect("present");
                    core.clock.swap_remove(i);
                    if core.hand >= core.clock.len() {
                        core.hand = 0;
                    }
                    self.flush_frame(&mut core.disk, page_no, &mut frame)?;
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .pages
                        .store(core.frames.len() as u64, Ordering::Relaxed);
                    return Ok(());
                }
            }
        }
        Err(DbError::Persist {
            message: format!("buffer pool exhausted: all {} frames pinned", self.capacity),
        })
    }

    /// Faults `page_no` into the pool (reading and CRC-checking it from
    /// disk) unless already resident. Returns a mutable ref under the
    /// held core lock.
    fn frame_mut<'a>(&self, core: &'a mut Core, page_no: u32) -> DbResult<&'a mut Frame> {
        if core.frames.contains_key(&page_no) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            self.make_room(core)?;
            let mut data = vec![0u8; self.page_size];
            core.disk.read_page(page_no, &mut data)?;
            core.frames.insert(
                page_no,
                Frame {
                    data: Arc::new(data),
                    pin: 0,
                    dirty: false,
                    ref_bit: false,
                },
            );
            core.clock.push(page_no);
            self.stats
                .pages
                .store(core.frames.len() as u64, Ordering::Relaxed);
        }
        let f = core.frames.get_mut(&page_no).expect("just ensured");
        f.ref_bit = true;
        Ok(f)
    }

    /// Installs a brand-new empty page (never read from disk), dirty
    /// from birth. The caller owns page-number allocation; reusing a
    /// reclaimed page number whose stale frame is still resident
    /// replaces that frame's bytes (the epoch life cycle guarantees no
    /// reader can still want the old ones).
    pub fn create_page(&self, page_no: u32, flags: u8, lsn: u64) -> DbResult<()> {
        let mut core = self.core.lock();
        let mut data = vec![0u8; self.page_size];
        layout::init_page(&mut data, flags);
        layout::set_page_lsn(&mut data, lsn);
        let data = Arc::new(data);
        if let Some(f) = core.frames.get_mut(&page_no) {
            f.data = data;
            f.dirty = true;
            f.ref_bit = true;
            return Ok(());
        }
        self.make_room(&mut core)?;
        core.frames.insert(
            page_no,
            Frame {
                data,
                pin: 0,
                dirty: true,
                ref_bit: true,
            },
        );
        core.clock.push(page_no);
        self.stats
            .pages
            .store(core.frames.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The bytes of `page_no`, faulting it in as needed: one pool visit
    /// serves every record a reader wants from the page. The bytes are
    /// shared with the frame, never copied; a later write to the frame
    /// copies it instead, so they do not change under the reader, who may
    /// keep them past the frame's eviction.
    pub fn page(&self, page_no: u32) -> DbResult<Arc<Vec<u8>>> {
        let mut core = self.core.lock();
        Ok(Arc::clone(&self.frame_mut(&mut core, page_no)?.data))
    }

    /// Appends a record to the page, stamping the page LSN; returns the
    /// slot, or `None` when the record does not fit.
    pub fn insert_slot(&self, page_no: u32, bytes: &[u8], lsn: u64) -> DbResult<Option<u16>> {
        let mut core = self.core.lock();
        let frame = self.frame_mut(&mut core, page_no)?;
        let data = Arc::make_mut(&mut frame.data);
        match layout::insert_slot(data, bytes) {
            Some(slot) => {
                layout::set_page_lsn(data, lsn);
                frame.dirty = true;
                Ok(Some(slot))
            }
            None => Ok(None),
        }
    }

    /// Writes every dirty frame back (WAL barrier first) and fsyncs the
    /// page file — the checkpoint's O(dirty) flush.
    pub fn flush_dirty(&self) -> DbResult<()> {
        let mut core = self.core.lock();
        let dirty: Vec<u32> = core
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&p, _)| p)
            .collect();
        for page_no in dirty {
            let mut frame = core.frames.remove(&page_no).expect("listed");
            self.flush_frame(&mut core.disk, page_no, &mut frame)?;
            core.frames.insert(page_no, frame);
        }
        core.disk.sync()
    }

    /// Pins a page resident (faulting it in as needed). The guard keeps
    /// it unevictable until dropped.
    pub fn pin_page(self: &Arc<Self>, page_no: u32) -> DbResult<PageGuard> {
        let mut core = self.core.lock();
        let frame = self.frame_mut(&mut core, page_no)?;
        frame.pin += 1;
        Ok(PageGuard {
            pool: Arc::clone(self),
            page_no,
        })
    }
}

/// RAII pin on one page: while alive, the page cannot be evicted.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    page_no: u32,
}

impl PageGuard {
    /// The pinned page number.
    pub fn page_no(&self) -> u32 {
        self.page_no
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        let mut core = self.pool.core.lock();
        if let Some(f) = core.frames.get_mut(&self.page_no) {
            f.pin = f.pin.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::disk::DiskManager;
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::AtomicU64 as TestSeq;

    fn scratch() -> PathBuf {
        static SEQ: TestSeq = TestSeq::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minidb-pool-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pool(dir: &Path, capacity: usize) -> Arc<BufferPool> {
        let disk = DiskManager::open(dir, 512).unwrap();
        Arc::new(BufferPool::new(disk, capacity))
    }

    /// Slot 0 of a page, read through one pool visit.
    fn first_record(p: &BufferPool, page_no: u32) -> Vec<u8> {
        let page = p.page(page_no).unwrap();
        layout::read_slot(&page, 0).unwrap().unwrap().to_vec()
    }

    #[test]
    fn spill_and_fault_round_trip() {
        let dir = scratch();
        let p = pool(&dir, 2);
        // Three pages through a 2-frame pool: something must evict.
        for page in 1..=3u32 {
            p.create_page(page, layout::FLAG_COLD, page as u64).unwrap();
            let slot = p
                .insert_slot(page, format!("rec-{page}").as_bytes(), page as u64)
                .unwrap()
                .unwrap();
            assert_eq!(slot, 0);
        }
        let s = p.stats();
        assert!(s.evictions >= 1, "{s:?}");
        assert!(s.pages <= 2);
        // Every record still reads back, faulting from disk as needed.
        for page in 1..=3u32 {
            assert_eq!(first_record(&p, page), format!("rec-{page}").into_bytes());
        }
        assert!(p.stats().misses >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reader's page handle is a stable image: a later append to the
    /// frame copies it, and evicting the frame does not free it.
    #[test]
    fn a_page_handle_outlives_writes_and_eviction() {
        let dir = scratch();
        let p = pool(&dir, 1);
        p.create_page(1, layout::FLAG_COLD, 1).unwrap();
        p.insert_slot(1, b"first", 1).unwrap();
        let held = p.page(1).unwrap();
        p.insert_slot(1, b"second", 2).unwrap();
        assert_eq!(layout::slot_count(&held), 1, "the append copied the frame");
        assert_eq!(layout::slot_count(&p.page(1).unwrap()), 2);
        // A second page in a one-frame pool evicts (and writes back) page 1.
        p.create_page(2, layout::FLAG_COLD, 3).unwrap();
        assert!(!p.contains(1));
        assert_eq!(layout::read_slot(&held, 0).unwrap(), Some(&b"first"[..]));
        assert_eq!(
            layout::read_slot(&p.page(1).unwrap(), 1).unwrap(),
            Some(&b"second"[..])
        );
        let s = p.stats();
        assert_eq!((s.pages, s.writebacks), (1, 2), "{s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_pages_never_evicted_and_full_pool_errors() {
        let dir = scratch();
        let p = pool(&dir, 2);
        p.create_page(1, 0, 1).unwrap();
        p.create_page(2, 0, 1).unwrap();
        let g1 = p.pin_page(1).unwrap();
        let g2 = p.pin_page(2).unwrap();
        // Pool at capacity, all pinned: a third page is a typed error,
        // not a deadlock.
        let err = p.create_page(3, 0, 1).unwrap_err();
        assert!(
            matches!(&err, DbError::Persist { message } if message.contains("exhausted")),
            "{err}"
        );
        assert!(p.contains(1) && p.contains(2));
        // Releasing one pin unblocks eviction; the pinned page survives.
        drop(g2);
        p.create_page(3, 0, 1).unwrap();
        assert!(p.contains(1), "pinned page must never be evicted");
        assert!(!p.contains(2), "unpinned page was the victim");
        drop(g1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_eviction_invokes_wal_barrier_first() {
        let dir = scratch();
        let p = pool(&dir, 1);
        let barrier_lsn = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&barrier_lsn);
        p.set_flush_barrier(Arc::new(move |lsn| {
            seen.fetch_max(lsn, Ordering::SeqCst);
            Ok(())
        }));
        p.create_page(1, 0, 77).unwrap();
        p.insert_slot(1, b"dirty", 77).unwrap();
        // Faulting page 2 evicts dirty page 1 → barrier sees LSN 77.
        p.create_page(2, 0, 78).unwrap();
        assert_eq!(barrier_lsn.load(Ordering::SeqCst), 77);
        assert_eq!(p.stats().writebacks, 1);
        // The evicted page reads back from disk intact.
        assert_eq!(first_record(&p, 1), b"dirty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_dirty_persists_everything() {
        let dir = scratch();
        {
            let p = pool(&dir, 4);
            for page in 1..=3u32 {
                p.create_page(page, 0, 5).unwrap();
                p.insert_slot(page, b"keep", 5).unwrap();
            }
            p.flush_dirty().unwrap();
        }
        // A fresh pool over the same file sees the data.
        let p2 = pool(&dir, 4);
        for page in 1..=3u32 {
            assert_eq!(first_record(&p2, page), b"keep");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
