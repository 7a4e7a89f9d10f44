//! Slotted page layout: the on-disk unit of the paged storage engine.
//!
//! One page is a fixed-size byte buffer:
//!
//! ```text
//! header (24 bytes):
//!   lsn        u64le @ 0   WAL sequence of the last mutation
//!   crc32      u32le @ 8   CRC over the whole page with this field zeroed
//!   slot_count u16le @ 12  directory entries (including tombstones)
//!   free_off   u16le @ 14  next record write offset (grows upward)
//!   flags      u8    @ 16  bit0 = cold (historical valid-time rows)
//!   reserved         @ 17..24
//! records:   grow up from offset 24
//! slot dir:  4-byte entries (offset u16le, len u16le) grow down from
//!            the page tail; slot i lives at page_size - 4*(i+1)
//! ```
//!
//! A tombstoned slot keeps its directory entry with offset
//! [`TOMBSTONE`]; record bytes are not compacted (cold pages are
//! write-once in practice). The CRC is sealed just before a page is
//! written and verified on every read — a mismatch is a torn page and
//! surfaces as a typed [`DbError::Persist`], never as garbage rows.

use crate::error::{DbError, DbResult};
use crate::wal::record::{crc32, crc32_update};

/// Fixed header length.
pub const HDR_LEN: usize = 24;
/// Bytes per slot-directory entry.
pub const SLOT_ENTRY: usize = 4;
/// Directory offset marking a deleted slot.
pub const TOMBSTONE: u16 = u16::MAX;
/// Page flag: the page holds cold (historical) rows.
pub const FLAG_COLD: u8 = 0x01;

/// Default page size (bytes).
pub const DEFAULT_PAGE_SIZE: usize = 8192;
/// Smallest supported page size.
pub const MIN_PAGE_SIZE: usize = 512;
/// Largest supported page size (offsets are u16).
pub const MAX_PAGE_SIZE: usize = 32768;

/// Validates a configured page size: bounds plus 8-byte alignment (so
/// header fields stay aligned and offsets fit in u16).
pub fn validate_page_size(page_size: usize) -> DbResult<()> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) || !page_size.is_multiple_of(8) {
        return Err(DbError::Persist {
            message: format!(
                "page size {page_size} out of range \
                 [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}] or not 8-byte aligned"
            ),
        });
    }
    Ok(())
}

/// Largest single record a page of `page_size` can hold.
pub fn max_record_len(page_size: usize) -> usize {
    page_size - HDR_LEN - SLOT_ENTRY
}

/// Initializes `buf` as an empty page with the given flags.
pub fn init_page(buf: &mut [u8], flags: u8) {
    buf.fill(0);
    buf[16] = flags;
    set_free_off(buf, HDR_LEN as u16);
}

/// The page's last-mutation LSN.
pub fn page_lsn(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"))
}

/// Stamps the page's last-mutation LSN.
pub fn set_page_lsn(buf: &mut [u8], lsn: u64) {
    buf[0..8].copy_from_slice(&lsn.to_le_bytes());
}

/// The page's flag byte.
pub fn page_flags(buf: &[u8]) -> u8 {
    buf[16]
}

/// Number of slot-directory entries (live + tombstoned).
pub fn slot_count(buf: &[u8]) -> u16 {
    u16::from_le_bytes(buf[12..14].try_into().expect("2 bytes"))
}

fn set_slot_count(buf: &mut [u8], n: u16) {
    buf[12..14].copy_from_slice(&n.to_le_bytes());
}

fn free_off(buf: &[u8]) -> u16 {
    u16::from_le_bytes(buf[14..16].try_into().expect("2 bytes"))
}

fn set_free_off(buf: &mut [u8], off: u16) {
    buf[14..16].copy_from_slice(&off.to_le_bytes());
}

fn dir_pos(page_size: usize, slot: u16) -> usize {
    page_size - SLOT_ENTRY * (slot as usize + 1)
}

fn dir_entry(buf: &[u8], slot: u16) -> (u16, u16) {
    let p = dir_pos(buf.len(), slot);
    (
        u16::from_le_bytes(buf[p..p + 2].try_into().expect("2 bytes")),
        u16::from_le_bytes(buf[p + 2..p + 4].try_into().expect("2 bytes")),
    )
}

fn set_dir_entry(buf: &mut [u8], slot: u16, off: u16, len: u16) {
    let p = dir_pos(buf.len(), slot);
    buf[p..p + 2].copy_from_slice(&off.to_le_bytes());
    buf[p + 2..p + 4].copy_from_slice(&len.to_le_bytes());
}

/// Contiguous free bytes between the record heap and the directory.
pub fn free_space(buf: &[u8]) -> usize {
    let dir_top = dir_pos(buf.len(), slot_count(buf)) + SLOT_ENTRY;
    dir_top.saturating_sub(free_off(buf) as usize)
}

/// `true` when a record of `len` bytes (plus its directory entry) fits.
pub fn can_fit(buf: &[u8], len: usize) -> bool {
    free_space(buf) >= len + SLOT_ENTRY
}

/// Appends a record, returning its slot number, or `None` when it does
/// not fit.
pub fn insert_slot(buf: &mut [u8], bytes: &[u8]) -> Option<u16> {
    if !can_fit(buf, bytes.len()) || bytes.len() > u16::MAX as usize {
        return None;
    }
    let slot = slot_count(buf);
    if slot == u16::MAX {
        return None; // directory full (TOMBSTONE is reserved)
    }
    let off = free_off(buf);
    buf[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
    set_dir_entry(buf, slot, off, bytes.len() as u16);
    set_slot_count(buf, slot + 1);
    set_free_off(buf, off + bytes.len() as u16);
    Some(slot)
}

/// The record bytes of a live slot; `Ok(None)` for a tombstoned slot,
/// `Err` for an out-of-range slot or a structurally impossible entry
/// (corruption the CRC did not catch, e.g. a stale mapping).
pub fn read_slot(buf: &[u8], slot: u16) -> DbResult<Option<&[u8]>> {
    if slot >= slot_count(buf) {
        return Err(DbError::Persist {
            message: format!("page slot {slot} out of range ({} slots)", slot_count(buf)),
        });
    }
    let (off, len) = dir_entry(buf, slot);
    if off == TOMBSTONE {
        return Ok(None);
    }
    let (start, end) = (off as usize, off as usize + len as usize);
    if start < HDR_LEN || end > free_off(buf) as usize {
        return Err(DbError::Persist {
            message: format!("page slot {slot} points outside the record heap"),
        });
    }
    Ok(Some(&buf[start..end]))
}

/// Tombstones a slot; returns `true` when it was live.
pub fn delete_slot(buf: &mut [u8], slot: u16) -> bool {
    if slot >= slot_count(buf) {
        return false;
    }
    let (off, len) = dir_entry(buf, slot);
    if off == TOMBSTONE {
        return false;
    }
    set_dir_entry(buf, slot, TOMBSTONE, len);
    true
}

/// Number of live (non-tombstoned) slots.
pub fn live_slots(buf: &[u8]) -> u32 {
    (0..slot_count(buf))
        .filter(|&s| dir_entry(buf, s).0 != TOMBSTONE)
        .count() as u32
}

/// Computes and stores the page CRC (over the whole page with the CRC
/// field itself zeroed). Call just before writing the page out.
pub fn seal_crc(buf: &mut [u8]) {
    buf[8..12].fill(0);
    let crc = crc32(buf);
    buf[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies the stored CRC in place (the CRC field reads as zeros);
/// `false` means a torn or corrupt page.
pub fn verify_crc(buf: &[u8]) -> bool {
    let stored = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    let c = crc32_update(crc32_update(!0, &buf[..8]), &[0; 4]);
    !crc32_update(c, &buf[12..]) == stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_read_delete_round_trip() {
        let mut p = vec![0u8; 1024];
        init_page(&mut p, FLAG_COLD);
        assert_eq!(page_flags(&p), FLAG_COLD);
        let a = insert_slot(&mut p, b"hello").unwrap();
        let b = insert_slot(&mut p, b"").unwrap();
        let c = insert_slot(&mut p, b"world!").unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(read_slot(&p, a).unwrap(), Some(&b"hello"[..]));
        assert_eq!(read_slot(&p, b).unwrap(), Some(&b""[..]));
        assert_eq!(read_slot(&p, c).unwrap(), Some(&b"world!"[..]));
        assert!(delete_slot(&mut p, b));
        assert!(!delete_slot(&mut p, b));
        assert_eq!(read_slot(&p, b).unwrap(), None);
        assert_eq!(live_slots(&p), 2);
        assert!(read_slot(&p, 3).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = vec![0u8; MIN_PAGE_SIZE];
        init_page(&mut p, 0);
        let rec = [7u8; 60];
        let mut n = 0;
        while insert_slot(&mut p, &rec).is_some() {
            n += 1;
        }
        assert!(n >= (MIN_PAGE_SIZE - HDR_LEN) / (60 + SLOT_ENTRY));
        assert!(!can_fit(&p, 60));
        // Smaller records may still fit.
        assert_eq!(
            free_space(&p),
            MIN_PAGE_SIZE - HDR_LEN - n * (60 + SLOT_ENTRY)
        );
    }

    #[test]
    fn crc_seal_and_verify() {
        let mut p = vec![0u8; 512];
        init_page(&mut p, 0);
        insert_slot(&mut p, b"payload").unwrap();
        set_page_lsn(&mut p, 42);
        seal_crc(&mut p);
        assert!(verify_crc(&p));
        assert_eq!(page_lsn(&p), 42);
        // Any flipped byte is caught.
        let mut torn = p.clone();
        torn[100] ^= 0xFF;
        assert!(!verify_crc(&torn));
    }

    /// The in-place check agrees with sealing a zeroed-field copy, leaves
    /// the page untouched, and catches a flipped byte anywhere, the CRC
    /// field included.
    #[test]
    fn verify_crc_in_place_catches_a_flip_at_every_byte() {
        let mut p = vec![0u8; MIN_PAGE_SIZE];
        init_page(&mut p, FLAG_COLD);
        insert_slot(&mut p, b"every byte counts").unwrap();
        set_page_lsn(&mut p, 7);
        seal_crc(&mut p);
        let mut copy = p.clone();
        copy[8..12].fill(0);
        assert_eq!(crc32(&copy).to_le_bytes(), p[8..12]);
        let sealed = p.clone();
        assert!(verify_crc(&p));
        assert_eq!(p, sealed, "verification must not write the page");
        for at in 0..p.len() {
            p[at] ^= 0x40;
            assert!(!verify_crc(&p), "flip at byte {at}");
            p[at] ^= 0x40;
        }
    }

    #[test]
    fn page_size_validation() {
        assert!(validate_page_size(DEFAULT_PAGE_SIZE).is_ok());
        assert!(validate_page_size(MIN_PAGE_SIZE).is_ok());
        assert!(validate_page_size(MAX_PAGE_SIZE).is_ok());
        assert!(validate_page_size(100).is_err());
        assert!(validate_page_size(65536).is_err());
        assert!(validate_page_size(8191).is_err());
    }

    proptest! {
        /// Random insert/delete interleavings round-trip: every record
        /// reads back byte-identical, tombstones stay dead, and the
        /// layout survives a CRC seal + verify cycle.
        #[test]
        fn prop_slotted_round_trip(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..200), 1..40),
            kill in proptest::collection::vec(any::<u16>(), 0..10),
        ) {
            let mut p = vec![0u8; DEFAULT_PAGE_SIZE];
            init_page(&mut p, FLAG_COLD);
            let mut stored: Vec<Option<Vec<u8>>> = Vec::new();
            for rec in &records {
                match insert_slot(&mut p, rec) {
                    Some(slot) => {
                        prop_assert_eq!(slot as usize, stored.len());
                        stored.push(Some(rec.clone()));
                    }
                    None => prop_assert!(!can_fit(&p, rec.len())),
                }
            }
            for &k in &kill {
                if (k as usize) < stored.len() {
                    let was_live = stored[k as usize].take().is_some();
                    prop_assert_eq!(delete_slot(&mut p, k), was_live);
                }
            }
            seal_crc(&mut p);
            prop_assert!(verify_crc(&p));
            prop_assert_eq!(
                live_slots(&p) as usize,
                stored.iter().filter(|s| s.is_some()).count()
            );
            for (i, want) in stored.iter().enumerate() {
                let got = read_slot(&p, i as u16).unwrap();
                prop_assert_eq!(got, want.as_deref());
            }
        }
    }
}
