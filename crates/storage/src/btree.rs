//! A paged B+-tree: the "index sequential" access method of the paper's
//! §5.2 mapping options.
//!
//! Entries are `(key, value)` byte-string pairs ordered lexicographically by
//! the pair, which gives duplicate-key support for free: a non-unique index
//! stores many `(key, rid)` pairs under the same key, and an equality scan is
//! a range scan over the key prefix. Unique indexes reject a second entry
//! with an equal key.
//!
//! Nodes live in disk blocks behind the buffer pool, so index traversal
//! costs physical I/O when cold — which the optimizer's cost model and the
//! E4/E5 experiments rely on. Nodes are materialized to a small in-memory
//! structure for manipulation and re-serialized on write; this favors
//! clarity over raw speed without changing the I/O pattern.
//!
//! Deletion is lazy: entries are removed from leaves but nodes are not
//! rebalanced; empty leaves remain chained and are skipped by scans. This
//! keeps the structure simple and is the behaviour several production trees
//! (e.g. PostgreSQL's) approximate between vacuums.

use crate::disk::BlockId;
use crate::error::StorageError;
use crate::pool::BufferPool;
use crate::BLOCK_SIZE;
use sim_types::{ByteReader, DecodeError};

/// Maximum serialized size of one `(key, value)` entry, chosen so any node
/// can hold at least four entries.
pub const MAX_ENTRY: usize = (BLOCK_SIZE - 16) / 4;

const NODE_LEAF: u8 = 0;
const NODE_INTERNAL: u8 = 1;
const NO_BLOCK: u32 = u32::MAX;

/// A `(key, value)` entry pair.
pub type Entry = (Vec<u8>, Vec<u8>);

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<Entry>,
        next: Option<BlockId>,
    },
    Internal {
        /// `children.len() == seps.len() + 1`; separator `i` is the smallest
        /// pair in child `i + 1`.
        seps: Vec<Entry>,
        children: Vec<BlockId>,
    },
}

fn pair_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

fn read_node(pool: &BufferPool, id: BlockId) -> Result<Node, StorageError> {
    pool.read_page(id, deserialize)
}

fn write_node(pool: &BufferPool, id: BlockId, node: &Node) -> Result<(), StorageError> {
    pool.write(id, |p| serialize(node, p))
}

/// Decode a node. Every length and count comes from the page, so every read
/// goes through the bounded reader: a damaged node is a [`DecodeError`].
fn deserialize(p: &[u8; BLOCK_SIZE]) -> Result<Node, DecodeError> {
    let mut r = ByteReader::new(p);
    let tag = r.u8()?;
    let count = usize::from(r.u16()?);
    if tag == NODE_LEAF {
        let next = match r.u32()? {
            NO_BLOCK => None,
            raw => Some(BlockId(raw)),
        };
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(read_entry(&mut r)?);
        }
        Ok(Node::Leaf { entries, next })
    } else {
        let mut children = Vec::with_capacity(count + 1);
        children.push(BlockId(r.u32()?));
        let mut seps = Vec::with_capacity(count);
        for _ in 0..count {
            seps.push(read_entry(&mut r)?);
            children.push(BlockId(r.u32()?));
        }
        Ok(Node::Internal { seps, children })
    }
}

/// One `(key, value)` pair, each `u16`-length-prefixed.
fn read_entry(r: &mut ByteReader<'_>) -> Result<Entry, DecodeError> {
    let klen = r.u16()?;
    let key = r.take(usize::from(klen))?.to_vec();
    let vlen = r.u16()?;
    Ok((key, r.take(usize::from(vlen))?.to_vec()))
}

fn serialize(node: &Node, p: &mut [u8; BLOCK_SIZE]) {
    p.fill(0);
    let mut off = 0usize;
    let write_bytes = |p: &mut [u8; BLOCK_SIZE], off: &mut usize, b: &[u8]| {
        p[*off..*off + 2].copy_from_slice(&(b.len() as u16).to_le_bytes());
        *off += 2;
        p[*off..*off + b.len()].copy_from_slice(b);
        *off += b.len();
    };
    match node {
        Node::Leaf { entries, next } => {
            p[off] = NODE_LEAF;
            off += 1;
            p[off..off + 2].copy_from_slice(&(entries.len() as u16).to_le_bytes());
            off += 2;
            let next_raw = next.map_or(NO_BLOCK, |b| b.0);
            p[off..off + 4].copy_from_slice(&next_raw.to_le_bytes());
            off += 4;
            for (k, v) in entries {
                write_bytes(p, &mut off, k);
                write_bytes(p, &mut off, v);
            }
        }
        Node::Internal { seps, children } => {
            p[off] = NODE_INTERNAL;
            off += 1;
            p[off..off + 2].copy_from_slice(&(seps.len() as u16).to_le_bytes());
            off += 2;
            p[off..off + 4].copy_from_slice(&children[0].0.to_le_bytes());
            off += 4;
            for (i, (k, v)) in seps.iter().enumerate() {
                write_bytes(p, &mut off, k);
                write_bytes(p, &mut off, v);
                p[off..off + 4].copy_from_slice(&children[i + 1].0.to_le_bytes());
                off += 4;
            }
        }
    }
}

fn node_size(node: &Node) -> usize {
    match node {
        Node::Leaf { entries, .. } => {
            7 + entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum::<usize>()
        }
        Node::Internal { seps, .. } => {
            7 + seps.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>()
        }
    }
}

/// Where to split an overflowing node: the middle entry by count, unless
/// entries of very different sizes leave a half too big for a block; then
/// the first point at which both halves fit. Each entry costs `per_entry`
/// bytes of framing; an internal node's middle separator `moves_up` into
/// the parent and lands in neither half.
fn split_point(entries: &[Entry], per_entry: usize, moves_up: bool) -> usize {
    let bytes =
        |es: &[Entry]| 7 + es.iter().map(|(k, v)| per_entry + k.len() + v.len()).sum::<usize>();
    let fits = |mid: usize| {
        bytes(&entries[..mid]) <= BLOCK_SIZE
            && bytes(&entries[mid + usize::from(moves_up)..]) <= BLOCK_SIZE
    };
    let mid = entries.len() / 2;
    if fits(mid) {
        return mid;
    }
    (1..entries.len()).find(|&m| fits(m)).unwrap_or(mid)
}

/// A B+-tree over `(key, value)` byte pairs.
#[derive(Debug)]
pub struct BTree {
    root: BlockId,
    unique: bool,
    entry_count: usize,
    height: usize,
}

impl BTree {
    /// Create an empty tree. `unique` rejects duplicate keys on insert.
    pub fn create(pool: &BufferPool, unique: bool) -> Result<BTree, StorageError> {
        let root = pool.allocate()?;
        write_node(pool, root, &Node::Leaf { entries: Vec::new(), next: None })?;
        Ok(BTree { root, unique, entry_count: 0, height: 1 })
    }

    /// Rebuild from recovered metadata.
    pub(crate) fn from_parts(
        root: BlockId,
        unique: bool,
        entry_count: usize,
        height: usize,
    ) -> BTree {
        BTree { root, unique, entry_count, height }
    }

    /// Root block (metadata snapshot).
    pub(crate) fn root(&self) -> BlockId {
        self.root
    }

    /// Whether this index enforces key uniqueness.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of live entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Tree height (leaf = 1); the optimizer prices an index probe at
    /// `height` block accesses when cold.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Insert an entry.
    pub fn insert(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        let entry_size = 4 + key.len() + value.len();
        if entry_size > MAX_ENTRY {
            return Err(StorageError::KeyTooLarge { size: entry_size, max: MAX_ENTRY });
        }
        if self.unique && self.lookup_first(pool, key)?.is_some() {
            return Err(StorageError::DuplicateKey);
        }
        let pair = (key.to_vec(), value.to_vec());
        if let Some((sep, right)) = self.insert_rec(pool, self.root, self.height, &pair)? {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let new_root = pool.allocate()?;
            write_node(
                pool,
                new_root,
                &Node::Internal { seps: vec![sep], children: vec![old_root, right] },
            )?;
            self.root = new_root;
            self.height += 1;
        }
        self.entry_count += 1;
        Ok(())
    }

    /// Insert below `node_id`, which sits `levels` levels above the leaves.
    fn insert_rec(
        &self,
        pool: &BufferPool,
        node_id: BlockId,
        levels: usize,
        pair: &(Vec<u8>, Vec<u8>),
    ) -> Result<Option<(Entry, BlockId)>, StorageError> {
        let mut node = read_node(pool, node_id)?;
        match &mut node {
            Node::Leaf { entries, next: _ } => {
                let pos =
                    entries.partition_point(|e| pair_cmp(e, pair) == std::cmp::Ordering::Less);
                entries.insert(pos, pair.clone());
                if node_size(&node) <= BLOCK_SIZE {
                    write_node(pool, node_id, &node)?;
                    return Ok(None);
                }
                // Split the leaf in half.
                let Node::Leaf { entries, next } = node else { unreachable!() };
                let mid = split_point(&entries, 4, false);
                let mut left_entries = entries;
                let right_entries = left_entries.split_off(mid);
                let right_id = pool.allocate()?;
                let sep = right_entries[0].clone();
                write_node(pool, right_id, &Node::Leaf { entries: right_entries, next })?;
                write_node(
                    pool,
                    node_id,
                    &Node::Leaf { entries: left_entries, next: Some(right_id) },
                )?;
                Ok(Some((sep, right_id)))
            }
            Node::Internal { seps, children } => {
                let child_idx =
                    seps.partition_point(|s| pair_cmp(s, pair) != std::cmp::Ordering::Greater);
                let child = children[child_idx];
                if levels <= 1 {
                    return Err(self.too_deep(child));
                }
                let Some((sep, right)) = self.insert_rec(pool, child, levels - 1, pair)? else {
                    return Ok(None);
                };
                seps.insert(child_idx, sep);
                children.insert(child_idx + 1, right);
                if node_size(&node) <= BLOCK_SIZE {
                    write_node(pool, node_id, &node)?;
                    return Ok(None);
                }
                let Node::Internal { mut seps, mut children } = node else { unreachable!() };
                // Split: middle separator moves up.
                let mid = split_point(&seps, 8, true);
                let up = seps[mid].clone();
                let right_seps = seps.split_off(mid + 1);
                seps.pop(); // `up` moves to the parent
                let right_children = children.split_off(mid + 1);
                let right_id = pool.allocate()?;
                write_node(
                    pool,
                    right_id,
                    &Node::Internal { seps: right_seps, children: right_children },
                )?;
                write_node(pool, node_id, &Node::Internal { seps, children })?;
                Ok(Some((up, right_id)))
            }
        }
    }

    /// Remove the exact `(key, value)` entry. Returns whether it existed.
    pub fn delete(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, StorageError> {
        let pair = (key.to_vec(), value.to_vec());
        let leaf_id = self.descend_to_leaf(pool, &pair)?;
        let mut node = read_node(pool, leaf_id)?;
        if let Node::Leaf { entries, .. } = &mut node {
            if let Ok(pos) = entries.binary_search_by(|e| pair_cmp(e, &pair)) {
                entries.remove(pos);
                write_node(pool, leaf_id, &node)?;
                self.entry_count -= 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Delete every entry with `key`; returns the removed values.
    pub fn delete_all(
        &mut self,
        pool: &BufferPool,
        key: &[u8],
    ) -> Result<Vec<Vec<u8>>, StorageError> {
        let values = self.scan_key(pool, key)?;
        for v in &values {
            self.delete(pool, key, v)?;
        }
        Ok(values)
    }

    /// First value stored under `key`, if any.
    pub fn lookup_first(
        &self,
        pool: &BufferPool,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, StorageError> {
        let mut cur = self.cursor_from(pool, key)?;
        match self.cursor_next(pool, &mut cur)? {
            Some((k, v)) if k == key => Ok(Some(v)),
            _ => Ok(None),
        }
    }

    /// All values stored under `key`, in value order.
    pub fn scan_key(&self, pool: &BufferPool, key: &[u8]) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut out = Vec::new();
        let mut cur = self.cursor_from(pool, key)?;
        while let Some((k, v)) = self.cursor_next(pool, &mut cur)? {
            if k != key {
                break;
            }
            out.push(v);
        }
        Ok(out)
    }

    /// All `(key, value)` entries in key order.
    pub fn scan_all(&self, pool: &BufferPool) -> Result<Vec<Entry>, StorageError> {
        let mut out = Vec::with_capacity(self.entry_count);
        let mut cur = self.cursor_first(pool)?;
        while let Some(kv) = self.cursor_next(pool, &mut cur)? {
            out.push(kv);
        }
        Ok(out)
    }

    /// Entries with `lo <= key < hi` (either bound optional).
    pub fn scan_range(
        &self,
        pool: &BufferPool,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<Vec<Entry>, StorageError> {
        let mut out = Vec::new();
        let mut cur = match lo {
            Some(lo) => self.cursor_from(pool, lo)?,
            None => self.cursor_first(pool)?,
        };
        while let Some((k, v)) = self.cursor_next(pool, &mut cur)? {
            if let Some(hi) = hi {
                if k.as_slice() >= hi {
                    break;
                }
            }
            out.push((k, v));
        }
        Ok(out)
    }

    /// Walk from the root to a leaf, taking child `pick(seps)` at each
    /// internal node. A node still internal below `height` levels (a child
    /// pointer cycle) is corruption, not an endless walk.
    fn descend(
        &self,
        pool: &BufferPool,
        pick: impl Fn(&[Entry]) -> usize,
    ) -> Result<BlockId, StorageError> {
        let mut id = self.root;
        for _ in 0..self.height {
            match read_node(pool, id)? {
                Node::Leaf { .. } => return Ok(id),
                Node::Internal { seps, children } => id = children[pick(&seps)],
            }
        }
        Err(self.too_deep(id))
    }

    fn too_deep(&self, id: BlockId) -> StorageError {
        StorageError::malformed(id, format_args!("B-tree deeper than its height {}", self.height))
    }

    fn descend_to_leaf(
        &self,
        pool: &BufferPool,
        pair: &(Vec<u8>, Vec<u8>),
    ) -> Result<BlockId, StorageError> {
        self.descend(pool, |seps| {
            seps.partition_point(|s| pair_cmp(s, pair) != std::cmp::Ordering::Greater)
        })
    }

    /// A cursor positioned at the first entry whose key is `>= key`.
    pub fn cursor_from(&self, pool: &BufferPool, key: &[u8]) -> Result<BTreeCursor, StorageError> {
        let pair = (key.to_vec(), Vec::new());
        let leaf = self.descend_to_leaf(pool, &pair)?;
        let idx = match read_node(pool, leaf)? {
            Node::Leaf { entries, .. } => {
                entries.partition_point(|e| pair_cmp(e, &pair) == std::cmp::Ordering::Less)
            }
            _ => 0,
        };
        Ok(BTreeCursor { leaf: Some(leaf), index: idx, hops: 0 })
    }

    /// A cursor positioned at the very first entry.
    pub fn cursor_first(&self, pool: &BufferPool) -> Result<BTreeCursor, StorageError> {
        Ok(BTreeCursor { leaf: Some(self.descend(pool, |_| 0)?), index: 0, hops: 0 })
    }

    /// Advance a cursor. Skips empty leaves left behind by lazy deletion.
    pub fn cursor_next(
        &self,
        pool: &BufferPool,
        cur: &mut BTreeCursor,
    ) -> Result<Option<Entry>, StorageError> {
        loop {
            let Some(leaf) = cur.leaf else { return Ok(None) };
            let (entry, next) = pool.read_page(leaf, |p| {
                Ok(match deserialize(p)? {
                    Node::Leaf { entries, next } => (entries.get(cur.index).cloned(), next),
                    Node::Internal { .. } => (None, None),
                })
            })?;
            match entry {
                Some(kv) => {
                    cur.index += 1;
                    return Ok(Some(kv));
                }
                None => {
                    pool.count_hop(&mut cur.hops, leaf)?;
                    cur.leaf = next;
                    cur.index = 0;
                }
            }
        }
    }
}

/// Iteration state over a tree's leaf chain.
#[derive(Debug, Clone)]
pub struct BTreeCursor {
    leaf: Option<BlockId>,
    index: usize,
    /// Leaves left behind so far (bounds a looping chain).
    hops: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::new(256)
    }

    fn k(n: u32) -> Vec<u8> {
        n.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_and_lookup_small() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        t.insert(&pool, b"banana", b"1").unwrap();
        t.insert(&pool, b"apple", b"2").unwrap();
        t.insert(&pool, b"cherry", b"3").unwrap();
        assert_eq!(t.lookup_first(&pool, b"apple").unwrap().unwrap(), b"2");
        assert_eq!(t.lookup_first(&pool, b"banana").unwrap().unwrap(), b"1");
        assert!(t.lookup_first(&pool, b"durian").unwrap().is_none());
        assert_eq!(t.entry_count(), 3);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        t.insert(&pool, b"key", b"v1").unwrap();
        assert_eq!(t.insert(&pool, b"key", b"v2"), Err(StorageError::DuplicateKey));
        assert_eq!(t.entry_count(), 1);
    }

    #[test]
    fn non_unique_stores_duplicates_sorted() {
        let pool = pool();
        let mut t = BTree::create(&pool, false).unwrap();
        t.insert(&pool, b"key", b"v2").unwrap();
        t.insert(&pool, b"key", b"v1").unwrap();
        t.insert(&pool, b"key", b"v3").unwrap();
        t.insert(&pool, b"other", b"x").unwrap();
        assert_eq!(
            t.scan_key(&pool, b"key").unwrap(),
            vec![b"v1".to_vec(), b"v2".to_vec(), b"v3".to_vec()]
        );
    }

    #[test]
    fn large_volume_splits_and_stays_sorted() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        // Insert in pseudo-random order.
        let mut keys: Vec<u32> = (0..5000).collect();
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &n in &keys {
            t.insert(&pool, &k(n), &n.to_le_bytes()).unwrap();
        }
        assert!(t.height() >= 2, "5000 entries must split");
        let all = t.scan_all(&pool).unwrap();
        assert_eq!(all.len(), 5000);
        for (i, (key, _)) in all.iter().enumerate() {
            assert_eq!(key, &k(i as u32));
        }
        for n in (0..5000).step_by(373) {
            assert_eq!(
                t.lookup_first(&pool, &k(n)).unwrap().unwrap(),
                { n }.to_le_bytes().to_vec()
            );
        }
    }

    #[test]
    fn range_scans() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        for n in 0..100u32 {
            t.insert(&pool, &k(n), b"").unwrap();
        }
        let range = t.scan_range(&pool, Some(&k(10)), Some(&k(20))).unwrap();
        assert_eq!(range.len(), 10);
        assert_eq!(range[0].0, k(10));
        assert_eq!(range[9].0, k(19));
        let open_lo = t.scan_range(&pool, None, Some(&k(3))).unwrap();
        assert_eq!(open_lo.len(), 3);
        let open_hi = t.scan_range(&pool, Some(&k(97)), None).unwrap();
        assert_eq!(open_hi.len(), 3);
    }

    #[test]
    fn delete_exact_and_all() {
        let pool = pool();
        let mut t = BTree::create(&pool, false).unwrap();
        t.insert(&pool, b"dup", b"a").unwrap();
        t.insert(&pool, b"dup", b"b").unwrap();
        t.insert(&pool, b"dup", b"c").unwrap();
        assert!(t.delete(&pool, b"dup", b"b").unwrap());
        assert!(!t.delete(&pool, b"dup", b"b").unwrap());
        assert_eq!(t.scan_key(&pool, b"dup").unwrap(), vec![b"a".to_vec(), b"c".to_vec()]);
        let removed = t.delete_all(&pool, b"dup").unwrap();
        assert_eq!(removed.len(), 2);
        assert!(t.scan_key(&pool, b"dup").unwrap().is_empty());
        assert_eq!(t.entry_count(), 0);
    }

    #[test]
    fn delete_then_scan_skips_empty_leaves() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        for n in 0..2000u32 {
            t.insert(&pool, &k(n), b"x").unwrap();
        }
        // Hollow out a middle band spanning whole leaves.
        for n in 500..1500u32 {
            assert!(t.delete(&pool, &k(n), b"x").unwrap());
        }
        let all = t.scan_all(&pool).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all[499].0, k(499));
        assert_eq!(all[500].0, k(1500));
    }

    #[test]
    fn oversized_entry_rejected() {
        let pool = pool();
        let mut t = BTree::create(&pool, true).unwrap();
        let big = vec![0u8; MAX_ENTRY + 1];
        assert!(matches!(t.insert(&pool, &big, b""), Err(StorageError::KeyTooLarge { .. })));
    }

    #[test]
    fn interleaved_insert_delete_random() {
        interleaved_against_model(true);
        interleaved_against_model(false);
    }

    /// Key → values, the `BTreeMap` model every public read is checked
    /// against.
    type Model = std::collections::BTreeMap<Vec<u8>, std::collections::BTreeSet<Vec<u8>>>;

    /// Seeded random inserts and deletes, with every public read compared
    /// to the model every few operations, so scans and cursors run against
    /// trees that writes have just split or hollowed out. Values are never
    /// empty, so separators carry values; one insert in twelve is exactly
    /// [`MAX_ENTRY`] bytes; a non-unique tree draws from few keys, so one
    /// key's duplicates span leaves; band deletes empty whole leaves. The
    /// test fails if any of those shapes never occurs.
    fn interleaved_against_model(unique: bool) {
        let pool = pool();
        let mut t = BTree::create(&pool, unique).unwrap();
        let mut model = Model::new();
        let mut seen = Shape::default();
        let mut state = 999u64;
        let mut rand = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let keys = if unique { 600 } else { 24 };
        for i in 0..2400u32 {
            let key = k(rand(keys) as u32);
            match rand(12) {
                0..=3 => {
                    // Delete one entry: present, or a value never stored.
                    let stored = model.get(&key).and_then(|vs| vs.iter().next().cloned());
                    let value = stored.clone().unwrap_or_else(|| b"absent".to_vec());
                    assert_eq!(t.delete(&pool, &key, &value).unwrap(), stored.is_some(), "op {i}");
                    model_remove(&mut model, &key, &value);
                }
                4 => {
                    // Band delete: every entry in a run of keys, emptying
                    // whole leaves that lazy deletion leaves chained.
                    let hi = k(u32::from_be_bytes(key[..4].try_into().unwrap()) + 40);
                    for (kk, v) in t.scan_range(&pool, Some(&key), Some(&hi)).unwrap() {
                        assert!(t.delete(&pool, &kk, &v).unwrap(), "op {i}");
                        model_remove(&mut model, &kk, &v);
                    }
                }
                5 if !unique => {
                    let removed = t.delete_all(&pool, &key).unwrap();
                    let expected: Vec<_> =
                        model.remove(&key).unwrap_or_default().into_iter().collect();
                    assert_eq!(removed, expected, "op {i}");
                }
                op => {
                    let mut val = i.to_be_bytes().to_vec();
                    let len =
                        if op == 6 { MAX_ENTRY - 4 - key.len() } else { 4 + rand(120) as usize };
                    val.resize(len, b'v');
                    match t.insert(&pool, &key, &val) {
                        Ok(()) => {
                            assert!(!unique || !model.contains_key(&key), "op {i}");
                            model.entry(key.clone()).or_default().insert(val);
                        }
                        Err(StorageError::DuplicateKey) => {
                            assert!(unique && model.contains_key(&key), "op {i}");
                        }
                        Err(e) => panic!("op {i}: unexpected error {e}"),
                    }
                }
            }
            if i % 40 == 39 {
                let probes = [key, k(rand(keys) as u32), k(rand(keys) as u32)];
                check_reads(&t, &pool, &model, &probes);
                seen.merge(shape(&t, &pool));
            }
        }
        check_reads(&t, &pool, &model, &[]);
        assert_eq!(
            t.entry_count(),
            model.values().map(std::collections::BTreeSet::len).sum::<usize>()
        );
        assert!(seen.empty_leaf && seen.max_entry && seen.valued_sep, "unique={unique}: {seen:?}");
        assert!(unique || seen.dup_across_leaves, "no key's duplicates spanned leaves: {seen:?}");
    }

    fn model_remove(model: &mut Model, key: &[u8], value: &[u8]) {
        if let Some(vs) = model.get_mut(key) {
            vs.remove(value);
            if vs.is_empty() {
                model.remove(key);
            }
        }
    }

    /// Every entry with `lo <= key < hi`, in tree order.
    fn model_range(model: &Model, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Vec<Entry> {
        model
            .iter()
            .filter(|(key, _)| lo.is_none_or(|lo| key.as_slice() >= lo))
            .filter(|(key, _)| hi.is_none_or(|hi| key.as_slice() < hi))
            .flat_map(|(key, vs)| vs.iter().map(move |v| (key.clone(), v.clone())))
            .collect()
    }

    fn drain(t: &BTree, pool: &BufferPool, mut cur: BTreeCursor) -> Vec<Entry> {
        std::iter::from_fn(|| t.cursor_next(pool, &mut cur).unwrap()).collect()
    }

    /// `lookup_first`, `scan_key`, `scan_range`, `scan_all` and both cursors
    /// against the model, at each probe key and over the whole tree.
    fn check_reads(t: &BTree, pool: &BufferPool, model: &Model, probes: &[Vec<u8>]) {
        let all = model_range(model, None, None);
        assert_eq!(t.scan_all(pool).unwrap(), all);
        assert_eq!(drain(t, pool, t.cursor_first(pool).unwrap()), all);
        for (n, key) in probes.iter().enumerate() {
            let values: Vec<_> = model.get(key).into_iter().flatten().cloned().collect();
            assert_eq!(t.lookup_first(pool, key).unwrap(), values.first().cloned());
            assert_eq!(t.scan_key(pool, key).unwrap(), values);
            let from = model_range(model, Some(key), None);
            assert_eq!(drain(t, pool, t.cursor_from(pool, key).unwrap()), from);
            let next = &probes[(n + 1) % probes.len()];
            assert_eq!(t.scan_range(pool, Some(key), None).unwrap(), from);
            assert_eq!(
                t.scan_range(pool, None, Some(key)).unwrap(),
                model_range(model, None, Some(key))
            );
            assert_eq!(
                t.scan_range(pool, Some(key), Some(next)).unwrap(),
                model_range(model, Some(key), Some(next))
            );
        }
    }

    /// Which of the model test's target shapes a tree has, read off its
    /// nodes.
    #[derive(Debug, Default)]
    struct Shape {
        empty_leaf: bool,
        dup_across_leaves: bool,
        max_entry: bool,
        valued_sep: bool,
    }

    impl Shape {
        fn merge(&mut self, o: Shape) {
            self.empty_leaf |= o.empty_leaf;
            self.dup_across_leaves |= o.dup_across_leaves;
            self.max_entry |= o.max_entry;
            self.valued_sep |= o.valued_sep;
        }
    }

    fn shape(t: &BTree, pool: &BufferPool) -> Shape {
        let mut s = Shape::default();
        let mut level = vec![t.root];
        while let Some(id) = level.pop() {
            if let Node::Internal { seps, children } = read_node(pool, id).unwrap() {
                s.valued_sep |= seps.iter().any(|(_, v)| !v.is_empty());
                level.extend(children);
            }
        }
        let mut last_key: Option<Vec<u8>> = None;
        let mut leaf = Some(t.descend(pool, |_| 0).unwrap());
        while let Some(id) = leaf {
            let Node::Leaf { entries, next } = read_node(pool, id).unwrap() else { panic!() };
            s.empty_leaf |= entries.is_empty() && t.height > 1;
            s.max_entry |= entries.iter().any(|(k, v)| 4 + k.len() + v.len() == MAX_ENTRY);
            if let (Some(prev), Some((first, _))) = (&last_key, entries.first()) {
                s.dup_across_leaves |= prev == first;
            }
            if let Some((key, _)) = entries.last() {
                last_key = Some(key.clone());
            }
            leaf = next;
        }
        s
    }
}
