//! Heap files: unordered collections of variable-format records.
//!
//! A heap file is the physical shape of a "storage unit" in the paper's
//! §5.2. Records are opaque byte strings to this layer; the LUC mapper
//! prefixes each with a record-type tag to realize "variable-format records
//! based on record types" for generalization hierarchies.
//!
//! [`HeapFile::insert_near`] implements the *clustering* placement option:
//! a record is co-located in the same block as a given record when space
//! permits, which is what makes the first instance of a clustered
//! relationship cost zero extra I/O (§5.1).

use crate::disk::BlockId;
use crate::error::StorageError;
use crate::page;
use crate::pool::BufferPool;
use sim_types::{ByteReader, DecodeError};
use std::fmt;

/// A stable physical record address: `(block, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// The block holding the record.
    pub block: BlockId,
    /// The slot within the block.
    pub slot: u16,
}

impl RecordId {
    /// Encode to 8 bytes (for storing record addresses inside other records
    /// or index values — the paper's "absolute addresses").
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.block.0.to_le_bytes());
        out[4..6].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Decode from [`RecordId::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<RecordId, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let rid = RecordId { block: BlockId(r.u32()?), slot: r.u16()? };
        r.take(2)?; // padding
        Ok(rid)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block.0, self.slot)
    }
}

/// A heap file: an ordered list of blocks plus placement bookkeeping.
///
/// Structure metadata (the block list, record count) lives in memory rather
/// than in a catalog block — a documented simplification; durability
/// snapshots it into [`crate::meta::EngineMeta`] at every commit. The I/O
/// behaviour of *data* access, which is what the experiments measure, is
/// unaffected.
#[derive(Debug, Default)]
pub struct HeapFile {
    blocks: Vec<BlockId>,
    record_count: usize,
}

impl HeapFile {
    /// An empty heap file.
    pub fn new() -> HeapFile {
        HeapFile::default()
    }

    /// Rebuild from recovered metadata.
    pub(crate) fn from_parts(blocks: Vec<BlockId>, record_count: usize) -> HeapFile {
        HeapFile { blocks, record_count }
    }

    /// Number of live records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Number of blocks the file occupies.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The file's blocks in order (used by scans and by the optimizer's
    /// blocking-factor statistics).
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Insert a record, appending to the last block or growing the file.
    pub fn insert(&mut self, pool: &BufferPool, data: &[u8]) -> Result<RecordId, StorageError> {
        if data.len() > page::MAX_RECORD {
            return Err(StorageError::RecordTooLarge { size: data.len(), max: page::MAX_RECORD });
        }
        if let Some(&last) = self.blocks.last() {
            if let Some(slot) = pool.write_page(last, |p| page::insert(p, data))? {
                self.record_count += 1;
                return Ok(RecordId { block: last, slot });
            }
        }
        let block = pool.allocate()?;
        self.blocks.push(block);
        let slot = pool.write_page(block, |p| page::insert(p, data))?.ok_or_else(|| {
            StorageError::Corrupt("fresh page rejected a record within MAX_RECORD".into())
        })?;
        self.record_count += 1;
        Ok(RecordId { block, slot })
    }

    /// Insert a record, preferring the block that holds `near` (clustering).
    /// Falls back to a normal insert when that block is full.
    pub fn insert_near(
        &mut self,
        pool: &BufferPool,
        near: BlockId,
        data: &[u8],
    ) -> Result<RecordId, StorageError> {
        if data.len() > page::MAX_RECORD {
            return Err(StorageError::RecordTooLarge { size: data.len(), max: page::MAX_RECORD });
        }
        if self.blocks.contains(&near) {
            if let Some(slot) = pool.write_page(near, |p| page::insert(p, data))? {
                self.record_count += 1;
                return Ok(RecordId { block: near, slot });
            }
        }
        self.insert(pool, data)
    }

    /// Read a record.
    pub fn get(&self, pool: &BufferPool, rid: RecordId) -> Result<Option<Vec<u8>>, StorageError> {
        if !self.blocks.contains(&rid.block) {
            return Ok(None);
        }
        pool.read_page(rid.block, |p| Ok(page::get(p, rid.slot)?.map(<[u8]>::to_vec)))
    }

    /// Replace a record's bytes. Returns the (possibly new) record id: when
    /// the page cannot hold the grown record, it relocates to another block.
    pub fn update(
        &mut self,
        pool: &BufferPool,
        rid: RecordId,
        data: &[u8],
    ) -> Result<RecordId, StorageError> {
        if data.len() > page::MAX_RECORD {
            return Err(StorageError::RecordTooLarge { size: data.len(), max: page::MAX_RECORD });
        }
        if !self.blocks.contains(&rid.block) {
            return Err(StorageError::InvalidRecordId(rid.to_string()));
        }
        let updated = pool.write_page(rid.block, |p| {
            if page::get(p, rid.slot)?.is_none() {
                Ok(None)
            } else {
                page::update(p, rid.slot, data).map(Some)
            }
        })?;
        match updated {
            None => Err(StorageError::InvalidRecordId(rid.to_string())),
            Some(true) => Ok(rid),
            Some(false) => {
                // Relocate: remove here, insert elsewhere.
                pool.write_page(rid.block, |p| page::delete(p, rid.slot))?;
                self.record_count -= 1; // insert() will re-count it
                self.insert(pool, data)
            }
        }
    }

    /// Delete a record, returning its former bytes.
    pub fn delete(&mut self, pool: &BufferPool, rid: RecordId) -> Result<Vec<u8>, StorageError> {
        if !self.blocks.contains(&rid.block) {
            return Err(StorageError::InvalidRecordId(rid.to_string()));
        }
        match pool.write_page(rid.block, |p| page::delete(p, rid.slot))? {
            Some(data) => {
                self.record_count -= 1;
                Ok(data)
            }
            None => Err(StorageError::InvalidRecordId(rid.to_string())),
        }
    }

    /// Restore a previously deleted record at its exact old address
    /// (transaction undo). Fails if the slot is occupied.
    pub fn restore(
        &mut self,
        pool: &BufferPool,
        rid: RecordId,
        data: &[u8],
    ) -> Result<(), StorageError> {
        if !self.blocks.contains(&rid.block) {
            return Err(StorageError::InvalidRecordId(rid.to_string()));
        }
        let ok = pool.write_page(rid.block, |p| page::insert_at(p, rid.slot, data))?;
        if ok {
            self.record_count += 1;
            Ok(())
        } else {
            Err(StorageError::SlotOccupied)
        }
    }

    /// A cursor positioned before the first record.
    pub fn cursor(&self) -> HeapCursor {
        HeapCursor { block_index: 0, next_slot: 0 }
    }

    /// Advance a cursor, returning the next live record.
    pub fn cursor_next(
        &self,
        pool: &BufferPool,
        cur: &mut HeapCursor,
    ) -> Result<Option<(RecordId, Vec<u8>)>, StorageError> {
        while cur.block_index < self.blocks.len() {
            let block = self.blocks[cur.block_index];
            let found = pool.read_page(block, |p| {
                let n = page::slot_count(p)?;
                while cur.next_slot < n {
                    let slot = cur.next_slot;
                    cur.next_slot += 1;
                    if let Some(d) = page::get(p, slot)? {
                        return Ok(Some((RecordId { block, slot }, d.to_vec())));
                    }
                }
                Ok(None)
            })?;
            if found.is_some() {
                return Ok(found);
            }
            cur.block_index += 1;
            cur.next_slot = 0;
        }
        Ok(None)
    }

    /// Materialize every live record (convenience for small scans/tests).
    pub fn scan_all(&self, pool: &BufferPool) -> Result<Vec<(RecordId, Vec<u8>)>, StorageError> {
        let mut cur = self.cursor();
        let mut out = Vec::with_capacity(self.record_count);
        while let Some(item) = self.cursor_next(pool, &mut cur)? {
            out.push(item);
        }
        Ok(out)
    }
}

/// Scan position over a heap file.
#[derive(Debug, Clone)]
pub struct HeapCursor {
    block_index: usize,
    next_slot: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::new(16)
    }

    #[test]
    fn insert_get_delete_lifecycle() {
        let pool = pool();
        let mut f = HeapFile::new();
        let rid = f.insert(&pool, b"payload").unwrap();
        assert_eq!(f.record_count(), 1);
        assert_eq!(f.get(&pool, rid).unwrap().unwrap(), b"payload");
        assert_eq!(f.delete(&pool, rid).unwrap(), b"payload");
        assert_eq!(f.record_count(), 0);
        assert!(f.get(&pool, rid).unwrap().is_none());
        assert!(f.delete(&pool, rid).is_err());
    }

    #[test]
    fn file_grows_across_blocks() {
        let pool = pool();
        let mut f = HeapFile::new();
        let rec = vec![7u8; 1000];
        for _ in 0..20 {
            f.insert(&pool, &rec).unwrap();
        }
        assert!(f.block_count() >= 5, "20 x 1KB records need 5+ blocks");
        assert_eq!(f.record_count(), 20);
        assert_eq!(f.scan_all(&pool).unwrap().len(), 20);
    }

    #[test]
    fn scan_returns_insertion_order_within_blocks() {
        let pool = pool();
        let mut f = HeapFile::new();
        let rids: Vec<RecordId> = (0..50u8).map(|i| f.insert(&pool, &[i]).unwrap()).collect();
        let scanned = f.scan_all(&pool).unwrap();
        assert_eq!(scanned.len(), 50);
        for (i, (rid, data)) in scanned.iter().enumerate() {
            assert_eq!(*rid, rids[i]);
            assert_eq!(data, &vec![i as u8]);
        }
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let pool = pool();
        let mut f = HeapFile::new();
        let rid = f.insert(&pool, b"0123456789").unwrap();
        let new_rid = f.update(&pool, rid, b"abc").unwrap();
        assert_eq!(rid, new_rid);
        assert_eq!(f.get(&pool, rid).unwrap().unwrap(), b"abc");
    }

    #[test]
    fn update_relocates_when_page_is_full() {
        let pool = pool();
        let mut f = HeapFile::new();
        // Fill one page almost completely.
        let rid = f.insert(&pool, &vec![1u8; 2000]).unwrap();
        let _fill = f.insert(&pool, &vec![2u8; 2000]).unwrap();
        // Growing the first record cannot fit in-block: it must relocate.
        let new_rid = f.update(&pool, rid, &vec![3u8; 3000]).unwrap();
        assert_ne!(rid.block, new_rid.block);
        assert_eq!(f.get(&pool, new_rid).unwrap().unwrap(), vec![3u8; 3000]);
        assert!(f.get(&pool, rid).unwrap().is_none());
        assert_eq!(f.record_count(), 2);
    }

    #[test]
    fn insert_near_clusters_when_space_allows() {
        let pool = pool();
        let mut f = HeapFile::new();
        let owner = f.insert(&pool, b"owner-record").unwrap();
        // Force the file onto a second block.
        for _ in 0..4 {
            f.insert(&pool, &vec![0u8; 900]).unwrap();
        }
        let member = f.insert_near(&pool, owner.block, b"member").unwrap();
        assert_eq!(member.block, owner.block, "member should cluster with owner");
    }

    #[test]
    fn insert_near_falls_back_when_block_full() {
        let pool = pool();
        let mut f = HeapFile::new();
        let owner = f.insert(&pool, &vec![1u8; 4000]).unwrap();
        let member = f.insert_near(&pool, owner.block, &vec![2u8; 2000]).unwrap();
        assert_ne!(member.block, owner.block);
        assert_eq!(f.get(&pool, member).unwrap().unwrap(), vec![2u8; 2000]);
    }

    #[test]
    fn restore_reoccupies_exact_address() {
        let pool = pool();
        let mut f = HeapFile::new();
        let rid = f.insert(&pool, b"victim").unwrap();
        let keep = f.insert(&pool, b"keeper").unwrap();
        f.delete(&pool, rid).unwrap();
        f.restore(&pool, rid, b"victim").unwrap();
        assert_eq!(f.get(&pool, rid).unwrap().unwrap(), b"victim");
        assert_eq!(f.get(&pool, keep).unwrap().unwrap(), b"keeper");
        // Restoring over a live record fails.
        assert_eq!(f.restore(&pool, keep, b"x"), Err(StorageError::SlotOccupied));
    }

    #[test]
    fn record_id_bytes_roundtrip() {
        let rid = RecordId { block: BlockId(123456), slot: 789 };
        assert_eq!(RecordId::from_bytes(&rid.to_bytes()), Ok(rid));
        assert!(RecordId::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let pool = pool();
        let mut f = HeapFile::new();
        let err = f.insert(&pool, &vec![0u8; 5000]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }
}
