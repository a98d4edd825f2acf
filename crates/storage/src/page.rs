//! Slotted-page layout.
//!
//! Every data block is a slotted page: a slot table grows forward from the
//! header while record bytes grow backward from the end of the block. Slot
//! numbers are stable for the life of the page (deleted slots are reused but
//! never renumbered), so a [`crate::RecordId`] — `(block, slot)` — is a
//! stable physical address, which is what the paper's "absolute address"
//! EVA mapping points at (§5.2).
//!
//! Layout:
//!
//! ```text
//! [0..2)  live-slot count (u16)      [2..4) data region start (u16)
//! [4..4+4n) slot table: (offset u16, len u16); offset 0 = free slot
//! [data start .. BLOCK_SIZE) record bytes, packed from the end
//! ```

use crate::BLOCK_SIZE;
use sim_types::{ByteReader, DecodeError};

const HEADER: usize = 4;
const SLOT_SIZE: usize = 4;

/// Largest record a single page can hold.
pub const MAX_RECORD: usize = BLOCK_SIZE - HEADER - SLOT_SIZE;

fn get_u16(page: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([page[off], page[off + 1]])
}

fn put_u16(page: &mut [u8], off: usize, v: u16) {
    page[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// A page's slot count and data-region start, checked on read: the slot
/// table ends at or before the data region, which starts inside the block.
/// Every accessor below goes through it, so a damaged header is a
/// [`DecodeError`] rather than an out-of-range index.
#[derive(Clone, Copy)]
struct Header {
    slots: u16,
    data_start: usize,
}

impl Header {
    fn read(page: &[u8; BLOCK_SIZE]) -> Result<Header, DecodeError> {
        let mut r = ByteReader::new(page);
        let slots = r.u16()?;
        let data_start = match r.u16()? {
            0 => BLOCK_SIZE, // uninitialized page
            v => usize::from(v),
        };
        let header = Header { slots, data_start };
        let below_data = ByteReader::new(page).take(data_start)?;
        ByteReader::new(below_data).take(header.table_end())?;
        Ok(header)
    }

    fn table_end(self) -> usize {
        HEADER + usize::from(self.slots) * SLOT_SIZE
    }

    /// Contiguous free bytes between the slot table and the data region.
    fn gap(self) -> usize {
        self.data_start - self.table_end()
    }

    /// Slot `slot`'s `(offset, len)`; offset 0 = free. Requires
    /// `slot < self.slots`, which puts the entry inside the checked table.
    fn entry(self, page: &[u8; BLOCK_SIZE], slot: u16) -> (usize, usize) {
        let base = HEADER + usize::from(slot) * SLOT_SIZE;
        (usize::from(get_u16(page, base)), usize::from(get_u16(page, base + 2)))
    }

    /// A live slot's offset and bytes, checked to lie inside the block;
    /// `None` for a free or out-of-range slot.
    fn record(
        self,
        page: &[u8; BLOCK_SIZE],
        slot: u16,
    ) -> Result<Option<(usize, &[u8])>, DecodeError> {
        if slot >= self.slots {
            return Ok(None);
        }
        let (off, len) = self.entry(page, slot);
        if off == 0 {
            return Ok(None);
        }
        let mut r = ByteReader::new(page);
        r.take(off)?;
        Ok(Some((off, r.take(len)?)))
    }

    fn free_slot(self, page: &[u8; BLOCK_SIZE]) -> Option<u16> {
        (0..self.slots).find(|&s| self.entry(page, s).0 == 0)
    }

    /// Contiguous free bytes for one more record, reserving a new slot-table
    /// entry unless a free slot exists.
    fn free_space(self, page: &[u8; BLOCK_SIZE]) -> usize {
        let reserve = if self.free_slot(page).is_some() { 0 } else { SLOT_SIZE };
        self.gap().saturating_sub(reserve)
    }
}

fn set_slot(page: &mut [u8; BLOCK_SIZE], slot: u16, offset: usize, len: usize) {
    let base = HEADER + slot as usize * SLOT_SIZE;
    put_u16(page, base, offset as u16);
    put_u16(page, base + 2, len as u16);
}

/// Number of slot-table entries (live or free).
pub fn slot_count(page: &[u8; BLOCK_SIZE]) -> Result<u16, DecodeError> {
    Ok(Header::read(page)?.slots)
}

/// Initialize an empty page. Freshly allocated (zeroed) blocks are already
/// valid empty pages, so this is only needed when recycling a block.
pub fn init(page: &mut [u8; BLOCK_SIZE]) {
    page.fill(0);
    put_u16(page, 2, BLOCK_SIZE as u16);
}

/// Insert a record, returning its slot, or `None` if the page cannot hold it
/// even after compaction.
pub fn insert(page: &mut [u8; BLOCK_SIZE], data: &[u8]) -> Result<Option<u16>, DecodeError> {
    if data.len() > MAX_RECORD {
        return Ok(None);
    }
    if Header::read(page)?.free_space(page) < data.len() {
        compact(page)?;
        if Header::read(page)?.free_space(page) < data.len() {
            return Ok(None);
        }
    }
    let header = Header::read(page)?;
    let slot = match header.free_slot(page) {
        Some(s) => s,
        None => {
            put_u16(page, 0, header.slots + 1);
            header.slots
        }
    };
    place(page, slot, data)?;
    Ok(Some(slot))
}

/// Re-occupy a specific (currently free) slot — used by transaction undo to
/// restore a deleted record at its original address.
pub fn insert_at(page: &mut [u8; BLOCK_SIZE], slot: u16, data: &[u8]) -> Result<bool, DecodeError> {
    let header = Header::read(page)?;
    if slot >= header.slots || header.entry(page, slot).0 != 0 || data.len() > MAX_RECORD {
        return Ok(false);
    }
    if header.gap() < data.len() {
        compact(page)?;
        if Header::read(page)?.gap() < data.len() {
            return Ok(false);
        }
    }
    place(page, slot, data)?;
    Ok(true)
}

/// Put `data` at the top of the free gap and point `slot` at it. Callers
/// check the room first; the re-check here keeps a page whose slot entries
/// overlap from underflowing the data-region start.
fn place(page: &mut [u8; BLOCK_SIZE], slot: u16, data: &[u8]) -> Result<(), DecodeError> {
    let header = Header::read(page)?;
    if header.gap() < data.len() {
        return Err(DecodeError {
            offset: header.table_end(),
            wanted: data.len(),
            present: header.gap(),
        });
    }
    let new_start = header.data_start - data.len();
    page[new_start..new_start + data.len()].copy_from_slice(data);
    put_u16(page, 2, new_start as u16);
    set_slot(page, slot, new_start, data.len());
    Ok(())
}

/// Read a record's bytes.
pub fn get(page: &[u8; BLOCK_SIZE], slot: u16) -> Result<Option<&[u8]>, DecodeError> {
    Ok(Header::read(page)?.record(page, slot)?.map(|(_, data)| data))
}

/// Replace a record in place. Fails (returns `false`) if the slot is free or
/// the page cannot hold the new size; the caller then relocates the record.
pub fn update(page: &mut [u8; BLOCK_SIZE], slot: u16, data: &[u8]) -> Result<bool, DecodeError> {
    let header = Header::read(page)?;
    let Some((off, old)) = header.record(page, slot)? else { return Ok(false) };
    if data.len() > MAX_RECORD {
        return Ok(false);
    }
    if data.len() <= old.len() {
        page[off..off + data.len()].copy_from_slice(data);
        set_slot(page, slot, off, data.len());
        return Ok(true);
    }
    // Grow: free the old bytes, then place anew (possibly after compaction).
    let old = old.to_vec();
    set_slot(page, slot, 0, 0);
    if header.gap() < data.len() {
        compact(page)?;
    }
    if Header::read(page)?.gap() < data.len() {
        // Does not fit: put the old record back so the page is unchanged and
        // the caller can relocate atomically.
        place(page, slot, &old)?;
        return Ok(false);
    }
    place(page, slot, data)?;
    Ok(true)
}

/// Delete a record, returning its former bytes.
pub fn delete(page: &mut [u8; BLOCK_SIZE], slot: u16) -> Result<Option<Vec<u8>>, DecodeError> {
    let header = Header::read(page)?;
    let Some((_, data)) = header.record(page, slot)? else { return Ok(None) };
    let data = data.to_vec();
    set_slot(page, slot, 0, 0);
    Ok(Some(data))
}

/// All live `(slot, bytes)` pairs.
pub fn live_records(page: &[u8; BLOCK_SIZE]) -> Result<Vec<(u16, Vec<u8>)>, DecodeError> {
    let header = Header::read(page)?;
    let mut out = Vec::new();
    for slot in 0..header.slots {
        if let Some((_, data)) = header.record(page, slot)? {
            out.push((slot, data.to_vec()));
        }
    }
    Ok(out)
}

/// Rewrite the data region so free bytes are contiguous. Slot numbers are
/// preserved. A page whose live records cannot all fit (overlapping slot
/// entries) is refused before anything is rewritten.
pub fn compact(page: &mut [u8; BLOCK_SIZE]) -> Result<(), DecodeError> {
    let live = live_records(page)?;
    let header = Header::read(page)?;
    let total: usize = live.iter().map(|(_, data)| data.len()).sum();
    let room = BLOCK_SIZE - header.table_end();
    if total > room {
        return Err(DecodeError { offset: header.table_end(), wanted: total, present: room });
    }
    // Clear the data region bookkeeping and re-place from the end.
    put_u16(page, 2, BLOCK_SIZE as u16);
    for s in 0..header.slots {
        set_slot(page, s, 0, 0);
    }
    for (slot, data) in live {
        place(page, slot, &data)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; BLOCK_SIZE]> {
        let mut p = Box::new([0u8; BLOCK_SIZE]);
        init(&mut p);
        p
    }

    #[test]
    fn zeroed_block_is_a_valid_empty_page() {
        let p = Box::new([0u8; BLOCK_SIZE]);
        assert_eq!(slot_count(&p).unwrap(), 0);
        assert!(Header::read(&p).unwrap().free_space(&p) > 4000);
        assert!(get(&p, 0).unwrap().is_none());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let s1 = insert(&mut p, b"hello").unwrap().unwrap();
        let s2 = insert(&mut p, b"world!").unwrap().unwrap();
        assert_ne!(s1, s2);
        assert_eq!(get(&p, s1).unwrap().unwrap(), b"hello");
        assert_eq!(get(&p, s2).unwrap().unwrap(), b"world!");
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = fresh();
        let s1 = insert(&mut p, b"one").unwrap().unwrap();
        let _s2 = insert(&mut p, b"two").unwrap().unwrap();
        assert_eq!(delete(&mut p, s1).unwrap().unwrap(), b"one");
        assert!(get(&p, s1).unwrap().is_none());
        let s3 = insert(&mut p, b"three").unwrap().unwrap();
        assert_eq!(s3, s1, "freed slot should be reused");
        assert_eq!(get(&p, s3).unwrap().unwrap(), b"three");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let s = insert(&mut p, b"abcdef").unwrap().unwrap();
        assert!(update(&mut p, s, b"xy").unwrap());
        assert_eq!(get(&p, s).unwrap().unwrap(), b"xy");
        assert!(update(&mut p, s, b"a much longer record body").unwrap());
        assert_eq!(get(&p, s).unwrap().unwrap(), b"a much longer record body");
    }

    #[test]
    fn page_fills_and_rejects() {
        let mut p = fresh();
        let rec = vec![0xAAu8; 500];
        let mut count = 0;
        while insert(&mut p, &rec).unwrap().is_some() {
            count += 1;
        }
        // 4096 / ~504 ≈ 8 records.
        assert!((7..=8).contains(&count), "unexpected fill count {count}");
        assert!(insert(&mut p, &rec).unwrap().is_none());
        // A small record still fits in the tail space.
        assert!(insert(&mut p, &[1, 2, 3]).unwrap().is_some());
    }

    #[test]
    fn compaction_reclaims_freed_space() {
        let mut p = fresh();
        let rec = vec![0xBBu8; 700];
        let slots: Vec<u16> = (0..5).map(|_| insert(&mut p, &rec).unwrap().unwrap()).collect();
        // Free alternating records: fragmented free space.
        delete(&mut p, slots[0]).unwrap();
        delete(&mut p, slots[2]).unwrap();
        delete(&mut p, slots[4]).unwrap();
        // 2100 bytes are free but fragmented; a 1500-byte record needs compaction.
        let s = insert(&mut p, &vec![0xCCu8; 1500]).unwrap();
        assert!(s.is_some());
        assert_eq!(get(&p, slots[1]).unwrap().unwrap(), &rec[..]);
        assert_eq!(get(&p, slots[3]).unwrap().unwrap(), &rec[..]);
    }

    #[test]
    fn insert_at_restores_exact_slot() {
        let mut p = fresh();
        let s0 = insert(&mut p, b"first").unwrap().unwrap();
        let s1 = insert(&mut p, b"second").unwrap().unwrap();
        delete(&mut p, s0).unwrap();
        assert!(insert_at(&mut p, s0, b"first-again").unwrap());
        assert_eq!(get(&p, s0).unwrap().unwrap(), b"first-again");
        assert_eq!(get(&p, s1).unwrap().unwrap(), b"second");
        // Occupied or out-of-range slots are rejected.
        assert!(!insert_at(&mut p, s1, b"x").unwrap());
        assert!(!insert_at(&mut p, 99, b"x").unwrap());
    }

    #[test]
    fn max_record_is_enforced() {
        let mut p = fresh();
        assert!(insert(&mut p, &vec![0u8; MAX_RECORD + 1]).unwrap().is_none());
        assert!(insert(&mut p, &vec![0u8; MAX_RECORD]).unwrap().is_some());
    }

    #[test]
    fn live_records_lists_only_live() {
        let mut p = fresh();
        let a = insert(&mut p, b"a").unwrap().unwrap();
        let b = insert(&mut p, b"b").unwrap().unwrap();
        delete(&mut p, a).unwrap();
        let live = live_records(&p).unwrap();
        assert_eq!(live, vec![(b, b"b".to_vec())]);
    }

    #[test]
    fn damaged_pages_are_errors_not_panics() {
        let mut good = fresh();
        let s = insert(&mut good, b"record").unwrap().unwrap();
        // A record length past the block end.
        let mut p = good.clone();
        put_u16(&mut p[..], HEADER + 2, 0xFFFF);
        assert!(get(&p, s).is_err());
        assert!(update(&mut p, s, b"longer record").is_err());
        assert!(delete(&mut p, s).is_err());
        assert!(compact(&mut p).is_err());
        // A slot count whose table runs into the data region.
        let mut p = good.clone();
        put_u16(&mut p[..], 0, 2000);
        assert!(slot_count(&p).is_err());
        assert!(insert(&mut p, b"x").is_err());
        // A data-region start past the block end.
        let mut p = good.clone();
        put_u16(&mut p[..], 2, 0xFFFF);
        assert!(get(&p, s).is_err());
        assert!(insert_at(&mut p, s, b"x").is_err());
        // Two live slots claiming the same bytes cannot be compacted.
        let mut p = fresh();
        let big = vec![7u8; 3000];
        let a = insert(&mut p, &big).unwrap().unwrap();
        let b = insert(&mut p, b"tail").unwrap().unwrap();
        let (off, len) = Header::read(&p).unwrap().entry(&p, a);
        set_slot(&mut p, b, off, len);
        let before = p.clone();
        assert!(compact(&mut p).is_err());
        assert_eq!(p, before, "a refused compaction rewrites nothing");
    }

    #[test]
    fn zero_length_records_are_legal() {
        let mut p = fresh();
        let s = insert(&mut p, b"").unwrap().unwrap();
        // Offset is nonzero (points into the data region) so the slot is live.
        assert_eq!(get(&p, s).unwrap().unwrap(), b"");
        assert_eq!(delete(&mut p, s).unwrap().unwrap(), Vec::<u8>::new());
    }
}
