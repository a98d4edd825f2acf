//! Serialized engine metadata.
//!
//! Structure bookkeeping (heap block lists, B-tree roots, hash directories)
//! lives in memory, not in catalog blocks — a documented simplification of
//! the original in-memory engine. Durability therefore snapshots that
//! bookkeeping as an [`EngineMeta`] value carried by every WAL commit
//! record and by the superblock: recovery adopts the metadata of the last
//! committed transaction and the replayed pages match it exactly.
//!
//! `app_meta` is an opaque blob for the layer above the storage engine (the
//! LUC mapper stores its schema text, surrogate high-water mark, and index
//! maps there) so one commit makes the whole stack durable atomically.

use crate::disk::BlockId;
use crate::error::StorageError;
use sim_types::ByteReader;

const MAGIC: &[u8; 4] = b"SIMM";
const VERSION: u16 = 1;

/// Snapshot of one heap file's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapMeta {
    /// The file's blocks in order.
    pub blocks: Vec<BlockId>,
    /// Live record count.
    pub record_count: u64,
}

/// Snapshot of one B-tree's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTreeMeta {
    /// Root block.
    pub root: BlockId,
    /// Uniqueness flag.
    pub unique: bool,
    /// Live entry count.
    pub entry_count: u64,
    /// Height (leaf = 1).
    pub height: u64,
}

/// Snapshot of one hash index's bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashMeta {
    /// Bucket directory.
    pub buckets: Vec<BlockId>,
    /// Uniqueness flag.
    pub unique: bool,
    /// Live entry count.
    pub entry_count: u64,
}

/// Everything needed to rebuild a [`crate::StorageEngine`] over recovered
/// blocks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineMeta {
    /// Allocated blocks at commit time (recovery truncates to this).
    pub block_count: u64,
    /// Next transaction id to hand out.
    pub next_txn: u64,
    /// Heap files, in [`crate::FileId`] order.
    pub files: Vec<HeapMeta>,
    /// B-trees, in [`crate::BTreeId`] order.
    pub btrees: Vec<BTreeMeta>,
    /// Hash indexes, in [`crate::HashIndexId`] order.
    pub hashes: Vec<HashMeta>,
    /// Opaque blob owned by the layer above (the LUC mapper).
    pub app_meta: Vec<u8>,
}

impl EngineMeta {
    /// Serialize to bytes (used in commit records and the superblock).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.app_meta.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.block_count.to_le_bytes());
        out.extend_from_slice(&self.next_txn.to_le_bytes());
        put_len(&mut out, self.files.len());
        for f in &self.files {
            put_blocks(&mut out, &f.blocks);
            out.extend_from_slice(&f.record_count.to_le_bytes());
        }
        put_len(&mut out, self.btrees.len());
        for t in &self.btrees {
            out.extend_from_slice(&t.root.0.to_le_bytes());
            out.push(u8::from(t.unique));
            out.extend_from_slice(&t.entry_count.to_le_bytes());
            out.extend_from_slice(&t.height.to_le_bytes());
        }
        put_len(&mut out, self.hashes.len());
        for h in &self.hashes {
            put_blocks(&mut out, &h.buckets);
            out.push(u8::from(h.unique));
            out.extend_from_slice(&h.entry_count.to_le_bytes());
        }
        put_len(&mut out, self.app_meta.len());
        out.extend_from_slice(&self.app_meta);
        out
    }

    /// Decode bytes produced by [`EngineMeta::encode`].
    pub fn decode(bytes: &[u8]) -> Result<EngineMeta, StorageError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(corrupt("bad metadata magic"));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(corrupt(&format!("unsupported metadata version {version}")));
        }
        let block_count = r.u64()?;
        let next_txn = r.u64()?;
        let mut files = Vec::new();
        for _ in 0..len(&mut r)? {
            let blocks = blocks(&mut r)?;
            let record_count = r.u64()?;
            files.push(HeapMeta { blocks, record_count });
        }
        let mut btrees = Vec::new();
        for _ in 0..len(&mut r)? {
            let root = BlockId(r.u32()?);
            let unique = r.u8()? != 0;
            let entry_count = r.u64()?;
            let height = r.u64()?;
            btrees.push(BTreeMeta { root, unique, entry_count, height });
        }
        let mut hashes = Vec::new();
        for _ in 0..len(&mut r)? {
            let buckets = blocks(&mut r)?;
            let unique = r.u8()? != 0;
            let entry_count = r.u64()?;
            hashes.push(HashMeta { buckets, unique, entry_count });
        }
        let app_len = len(&mut r)?;
        let app_meta = r.take(app_len)?.to_vec();
        r.finish()?;
        Ok(EngineMeta { block_count, next_txn, files, btrees, hashes, app_meta })
    }
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(format!("engine metadata: {msg}"))
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u64).to_le_bytes());
}

fn put_blocks(out: &mut Vec<u8>, blocks: &[BlockId]) {
    put_len(out, blocks.len());
    for b in blocks {
        out.extend_from_slice(&b.0.to_le_bytes());
    }
}

fn len(r: &mut ByteReader<'_>) -> Result<usize, StorageError> {
    usize::try_from(r.u64()?).map_err(|_| corrupt("length overflows usize"))
}

fn blocks(r: &mut ByteReader<'_>) -> Result<Vec<BlockId>, StorageError> {
    let n = len(r)?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(BlockId(r.u32()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let meta = EngineMeta {
            block_count: 42,
            next_txn: 7,
            files: vec![
                HeapMeta { blocks: vec![BlockId(3), BlockId(9)], record_count: 11 },
                HeapMeta { blocks: vec![], record_count: 0 },
            ],
            btrees: vec![BTreeMeta { root: BlockId(1), unique: true, entry_count: 5, height: 2 }],
            hashes: vec![HashMeta {
                buckets: vec![BlockId(4), BlockId(5), BlockId(6)],
                unique: false,
                entry_count: 9,
            }],
            app_meta: b"application state".to_vec(),
        };
        assert_eq!(EngineMeta::decode(&meta.encode()).unwrap(), meta);
    }

    #[test]
    fn empty_roundtrip() {
        let meta = EngineMeta::default();
        assert_eq!(EngineMeta::decode(&meta.encode()).unwrap(), meta);
    }

    #[test]
    fn truncated_and_garbage_are_errors() {
        let bytes = EngineMeta::default().encode();
        assert!(EngineMeta::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(EngineMeta::decode(b"nonsense").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(EngineMeta::decode(&extra).is_err());
    }
}
