//! A static hash index: the "random keys (based on hashing)" access method
//! of the paper's §5.2.
//!
//! A fixed directory of buckets, each a chain of blocks holding packed
//! `(key, value)` entries. Equality probes cost one block access per chain
//! block touched; there is no order, so the optimizer only offers this
//! method for equality predicates.

use crate::disk::BlockId;
use crate::error::StorageError;
use crate::pool::BufferPool;
use crate::BLOCK_SIZE;
use sim_types::ByteReader;

const NO_BLOCK: u32 = u32::MAX;
/// Chain-block header: next (u32) + entry count (u16).
const HEADER: usize = 6;
/// Maximum serialized entry size that must fit a block.
pub const MAX_ENTRY: usize = BLOCK_SIZE - HEADER - 4;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct ChainBlock {
    next: Option<BlockId>,
    entries: Vec<crate::btree::Entry>,
}

fn read_chain(pool: &BufferPool, id: BlockId) -> Result<ChainBlock, StorageError> {
    pool.read_page(id, |p| {
        let mut r = ByteReader::new(p);
        let next = match r.u32()? {
            NO_BLOCK => None,
            raw => Some(BlockId(raw)),
        };
        let count = usize::from(r.u16()?);
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let klen = usize::from(r.u16()?);
            let vlen = usize::from(r.u16()?);
            entries.push((r.take(klen)?.to_vec(), r.take(vlen)?.to_vec()));
        }
        Ok(ChainBlock { next, entries })
    })
}

fn write_chain(pool: &BufferPool, id: BlockId, cb: &ChainBlock) -> Result<(), StorageError> {
    pool.write(id, |p| {
        p.fill(0);
        let next_raw = cb.next.map_or(NO_BLOCK, |b| b.0);
        p[0..4].copy_from_slice(&next_raw.to_le_bytes());
        p[4..6].copy_from_slice(&(cb.entries.len() as u16).to_le_bytes());
        let mut off = HEADER;
        for (k, v) in &cb.entries {
            p[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            p[off + 2..off + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
            off += 4;
            p[off..off + k.len()].copy_from_slice(k);
            off += k.len();
            p[off..off + v.len()].copy_from_slice(v);
            off += v.len();
        }
    })
}

fn chain_size(entries: &[crate::btree::Entry]) -> usize {
    HEADER + entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum::<usize>()
}

/// A static hash index with chained overflow blocks.
#[derive(Debug)]
pub struct HashIndex {
    buckets: Vec<BlockId>,
    unique: bool,
    entry_count: usize,
}

impl HashIndex {
    /// Create with a fixed number of buckets (rounded up to at least 1).
    pub fn create(
        pool: &BufferPool,
        bucket_count: usize,
        unique: bool,
    ) -> Result<HashIndex, StorageError> {
        let n = bucket_count.max(1);
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let id = pool.allocate()?;
            write_chain(pool, id, &ChainBlock { next: None, entries: Vec::new() })?;
            buckets.push(id);
        }
        Ok(HashIndex { buckets, unique, entry_count: 0 })
    }

    /// Rebuild from recovered metadata.
    pub(crate) fn from_parts(buckets: Vec<BlockId>, unique: bool, entry_count: usize) -> HashIndex {
        HashIndex { buckets, unique, entry_count }
    }

    /// Bucket directory (metadata snapshot).
    pub(crate) fn buckets(&self) -> &[BlockId] {
        &self.buckets
    }

    /// Whether the index enforces key uniqueness.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of live entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    fn bucket_of(&self, key: &[u8]) -> BlockId {
        self.buckets[(fnv1a(key) as usize) % self.buckets.len()]
    }

    /// Insert an entry.
    pub fn insert(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        if 4 + key.len() + value.len() > MAX_ENTRY {
            return Err(StorageError::KeyTooLarge {
                size: 4 + key.len() + value.len(),
                max: MAX_ENTRY,
            });
        }
        if self.unique && !self.get(pool, key)?.is_empty() {
            return Err(StorageError::DuplicateKey);
        }
        let mut id = self.bucket_of(key);
        let mut hops = 0;
        loop {
            pool.count_hop(&mut hops, id)?;
            let mut cb = read_chain(pool, id)?;
            if chain_size(&cb.entries) + 4 + key.len() + value.len() <= BLOCK_SIZE {
                cb.entries.push((key.to_vec(), value.to_vec()));
                write_chain(pool, id, &cb)?;
                self.entry_count += 1;
                return Ok(());
            }
            match cb.next {
                Some(next) => id = next,
                None => {
                    let new_id = pool.allocate()?;
                    write_chain(
                        pool,
                        new_id,
                        &ChainBlock { next: None, entries: vec![(key.to_vec(), value.to_vec())] },
                    )?;
                    cb.next = Some(new_id);
                    write_chain(pool, id, &cb)?;
                    self.entry_count += 1;
                    return Ok(());
                }
            }
        }
    }

    /// All values stored under `key`.
    pub fn get(&self, pool: &BufferPool, key: &[u8]) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut out = Vec::new();
        let (mut id, mut hops) = (Some(self.bucket_of(key)), 0);
        while let Some(block) = id {
            pool.count_hop(&mut hops, block)?;
            let cb = read_chain(pool, block)?;
            for (k, v) in &cb.entries {
                if k == key {
                    out.push(v.clone());
                }
            }
            id = cb.next;
        }
        Ok(out)
    }

    /// Remove the exact `(key, value)` entry. Returns whether it existed.
    pub fn delete(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, StorageError> {
        let (mut id, mut hops) = (Some(self.bucket_of(key)), 0);
        while let Some(block) = id {
            pool.count_hop(&mut hops, block)?;
            let mut cb = read_chain(pool, block)?;
            if let Some(pos) = cb.entries.iter().position(|(k, v)| k == key && v == value) {
                cb.entries.swap_remove(pos);
                write_chain(pool, block, &cb)?;
                self.entry_count -= 1;
                return Ok(true);
            }
            id = cb.next;
        }
        Ok(false)
    }

    /// Remove every entry under `key`; returns the removed values.
    pub fn delete_all(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
    ) -> Result<Vec<Vec<u8>>, StorageError> {
        let values = self.get(pool, key)?;
        for v in &values {
            self.delete(pool, key, v)?;
        }
        Ok(values)
    }

    /// Every entry in the index (unordered). Test/debug helper.
    pub fn scan_all(&self, pool: &BufferPool) -> Result<Vec<crate::btree::Entry>, StorageError> {
        let mut out = Vec::with_capacity(self.entry_count);
        for &bucket in &self.buckets {
            let (mut id, mut hops) = (Some(bucket), 0);
            while let Some(block) = id {
                pool.count_hop(&mut hops, block)?;
                let cb = read_chain(pool, block)?;
                out.extend(cb.entries);
                id = cb.next;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::new(256)
    }

    #[test]
    fn insert_get_delete() {
        let pool = pool();
        let mut h = HashIndex::create(&pool, 8, false).unwrap();
        h.insert(&pool, b"alpha", b"1").unwrap();
        h.insert(&pool, b"beta", b"2").unwrap();
        h.insert(&pool, b"alpha", b"3").unwrap();
        let mut vals = h.get(&pool, b"alpha").unwrap();
        vals.sort();
        assert_eq!(vals, vec![b"1".to_vec(), b"3".to_vec()]);
        assert!(h.delete(&pool, b"alpha", b"1").unwrap());
        assert!(!h.delete(&pool, b"alpha", b"1").unwrap());
        assert_eq!(h.get(&pool, b"alpha").unwrap(), vec![b"3".to_vec()]);
        assert_eq!(h.entry_count(), 2);
    }

    #[test]
    fn unique_enforced() {
        let pool = pool();
        let mut h = HashIndex::create(&pool, 4, true).unwrap();
        h.insert(&pool, b"k", b"v").unwrap();
        assert_eq!(h.insert(&pool, b"k", b"w"), Err(StorageError::DuplicateKey));
    }

    #[test]
    fn overflow_chains_grow_and_work() {
        let pool = pool();
        // One bucket forces chaining.
        let mut h = HashIndex::create(&pool, 1, false).unwrap();
        let value = vec![0u8; 100];
        for i in 0..500u32 {
            h.insert(&pool, &i.to_le_bytes(), &value).unwrap();
        }
        assert_eq!(h.entry_count(), 500);
        for i in (0..500u32).step_by(37) {
            assert_eq!(h.get(&pool, &i.to_le_bytes()).unwrap(), vec![value.clone()]);
        }
        assert_eq!(h.scan_all(&pool).unwrap().len(), 500);
        // Delete across the chain.
        for i in 0..500u32 {
            assert!(h.delete(&pool, &i.to_le_bytes(), &value).unwrap(), "delete {i}");
        }
        assert_eq!(h.entry_count(), 0);
    }

    #[test]
    fn missing_keys_are_empty() {
        let pool = pool();
        let h = HashIndex::create(&pool, 8, false).unwrap();
        assert!(h.get(&pool, b"nothing").unwrap().is_empty());
    }

    #[test]
    fn delete_all_removes_every_duplicate() {
        let pool = pool();
        let mut h = HashIndex::create(&pool, 8, false).unwrap();
        for i in 0..10u8 {
            h.insert(&pool, b"dup", &[i]).unwrap();
        }
        assert_eq!(h.delete_all(&pool, b"dup").unwrap().len(), 10);
        assert!(h.get(&pool, b"dup").unwrap().is_empty());
    }

    #[test]
    fn oversized_entry_rejected() {
        let pool = pool();
        let mut h = HashIndex::create(&pool, 2, false).unwrap();
        assert!(matches!(
            h.insert(&pool, &vec![0u8; 5000], b""),
            Err(StorageError::KeyTooLarge { .. })
        ));
    }
}
