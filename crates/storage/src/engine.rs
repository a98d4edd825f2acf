//! The storage engine facade.
//!
//! [`StorageEngine`] owns the buffer pool plus every heap file and index,
//! exposes their operations with transactional undo logging, and hands out
//! the I/O statistics the experiments read. It is the formal interface the
//! LUC Mapper programs against — the equivalent of the DMSII access layer
//! in the paper's Figure 1.
//!
//! Two configurations:
//!
//! * [`StorageEngine::new`] — the original in-memory engine: volatile, no
//!   WAL, exactly the old behaviour (benches and experiments use this).
//! * [`StorageEngine::open`] / [`StorageEngine::open_on`] — a durable
//!   engine: crash recovery runs on open, every commit appends page images
//!   plus a commit record (carrying serialized [`EngineMeta`]) to the WAL
//!   and fsyncs, and [`StorageEngine::close`] checkpoints the log away.

use crate::btree::{BTree, Entry};
use crate::disk::Storage;
use crate::error::StorageError;
use crate::file::FileDisk;
use crate::hash::HashIndex;
use crate::heap::{HeapFile, RecordId};
use crate::lock_table::{LockKey, LockTable};
use crate::meta::{BTreeMeta, EngineMeta, HashMeta, HeapMeta};
use crate::pool::BufferPool;
use crate::recovery::{self, RecoveryOutcome};
use crate::stats::IoSnapshot;
use crate::txn::{Txn, UndoOp};
use crate::version::{ReadTicket, SnapshotView, VersionStore};
use sim_obs::Registry;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buffer-pool frames used by [`StorageEngine::open`].
pub const DEFAULT_POOL_CAPACITY: usize = 256;

/// Handle to a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// Handle to a B-tree index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BTreeId(pub u32);

/// Handle to a hash index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashIndexId(pub u32);

/// Owns all storage structures and the buffer pool.
pub struct StorageEngine {
    pool: BufferPool,
    files: Vec<HeapFile>,
    btrees: Vec<BTree>,
    hashes: Vec<HashIndex>,
    /// Atomic so [`StorageEngine::begin`] allocates ids without `&mut`
    /// (concurrent sessions begin transactions through a shared handle).
    next_txn: AtomicU64,
    app_meta: Vec<u8>,
    /// Structure bookkeeping or app metadata changed since the last
    /// persisted commit record — a commit must carry new [`EngineMeta`]
    /// even if the transaction itself logged no operation.
    meta_dirty: bool,
    /// S/X lock table shared with the session layer (class locks are
    /// taken outside the engine; block locks inside it).
    locks: Arc<LockTable>,
    /// Undo pre-images mirrored for snapshot readers (concurrent mode).
    versions: Arc<VersionStore>,
    /// The snapshot overlay installed for the statement currently
    /// executing, if any: every read method merges it over the live
    /// structures.
    read_view: Mutex<Option<Arc<SnapshotView>>>,
}

impl StorageEngine {
    /// A new volatile engine whose buffer pool holds `pool_capacity`
    /// frames, with a private metrics registry.
    pub fn new(pool_capacity: usize) -> StorageEngine {
        StorageEngine::with_registry(pool_capacity, &Arc::new(Registry::new()))
    }

    /// A new volatile engine publishing its counters into `registry` under
    /// the `storage.*` names.
    pub fn with_registry(pool_capacity: usize, registry: &Arc<Registry>) -> StorageEngine {
        StorageEngine {
            pool: BufferPool::with_registry(pool_capacity, registry),
            files: Vec::new(),
            btrees: Vec::new(),
            hashes: Vec::new(),
            next_txn: AtomicU64::new(1),
            app_meta: Vec::new(),
            meta_dirty: false,
            locks: Arc::new(LockTable::with_registry(registry)),
            versions: Arc::new(VersionStore::with_registry(registry)),
            read_view: Mutex::new(None),
        }
    }

    /// Open (or create) a durable engine over a database directory. Crash
    /// recovery runs before the first access: committed work is replayed
    /// from the write-ahead log, uncommitted work is discarded.
    pub fn open(dir: impl AsRef<Path>) -> Result<StorageEngine, StorageError> {
        StorageEngine::open_with(dir, DEFAULT_POOL_CAPACITY, &Arc::new(Registry::new()))
    }

    /// [`StorageEngine::open`] with an explicit pool capacity and registry.
    pub fn open_with(
        dir: impl AsRef<Path>,
        pool_capacity: usize,
        registry: &Arc<Registry>,
    ) -> Result<StorageEngine, StorageError> {
        StorageEngine::open_on(Box::new(FileDisk::open(dir)?), pool_capacity, registry)
    }

    /// Open a durable engine over an arbitrary [`Storage`] backend — the
    /// fault-injection harness uses this to reopen a shared medium after a
    /// simulated crash.
    pub fn open_on(
        mut disk: Box<dyn Storage>,
        pool_capacity: usize,
        registry: &Arc<Registry>,
    ) -> Result<StorageEngine, StorageError> {
        let events = registry.event_log();
        events.record(sim_obs::Event::RecoveryStart);
        let started = std::time::Instant::now();
        let outcome: RecoveryOutcome = recovery::recover(disk.as_mut())?;
        let pool = BufferPool::with_storage(pool_capacity, registry, disk, true);
        let millis = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        pool.stats().count_recovery(outcome.records_replayed, millis);
        events.record(sim_obs::Event::RecoveryEnd {
            records_replayed: outcome.records_replayed,
            torn_tail: outcome.torn_tail,
        });
        let meta = outcome.meta;
        let files = meta
            .files
            .iter()
            .map(|m| HeapFile::from_parts(m.blocks.clone(), m.record_count as usize))
            .collect();
        let btrees = meta
            .btrees
            .iter()
            .map(|m| BTree::from_parts(m.root, m.unique, m.entry_count as usize, m.height as usize))
            .collect();
        let hashes = meta
            .hashes
            .iter()
            .map(|m| HashIndex::from_parts(m.buckets.clone(), m.unique, m.entry_count as usize))
            .collect();
        Ok(StorageEngine {
            pool,
            files,
            btrees,
            hashes,
            next_txn: AtomicU64::new(meta.next_txn.max(1)),
            app_meta: meta.app_meta,
            meta_dirty: false,
            locks: Arc::new(LockTable::with_registry(registry)),
            versions: Arc::new(VersionStore::with_registry(registry)),
            read_view: Mutex::new(None),
        })
    }

    /// Whether this engine persists commits to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.pool.is_durable()
    }

    /// The buffer pool (for experiments that clear the cache or read stats).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The metrics registry the engine publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        self.pool.registry()
    }

    /// Snapshot the physical I/O counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.pool.io_snapshot()
    }

    /// The opaque application metadata committed with every transaction
    /// (the LUC mapper keeps its catalog and allocator state here).
    pub fn app_meta(&self) -> &[u8] {
        &self.app_meta
    }

    /// Replace the application metadata. Durable only after the next
    /// commit or checkpoint. Setting byte-identical metadata is a no-op —
    /// in particular it does not make a read-only transaction pay for a
    /// commit record (callers re-install unchanged state every commit).
    pub fn set_app_meta(&mut self, bytes: Vec<u8>) {
        if self.app_meta != bytes {
            self.app_meta = bytes;
            self.meta_dirty = true;
        }
    }

    /// Snapshot the engine's structure bookkeeping (what a commit record
    /// carries).
    pub fn meta(&self) -> EngineMeta {
        EngineMeta {
            block_count: self.pool.block_count() as u64,
            next_txn: self.next_txn.load(Ordering::Relaxed),
            files: self
                .files
                .iter()
                .map(|f| HeapMeta {
                    blocks: f.blocks().to_vec(),
                    record_count: f.record_count() as u64,
                })
                .collect(),
            btrees: self
                .btrees
                .iter()
                .map(|t| BTreeMeta {
                    root: t.root(),
                    unique: t.is_unique(),
                    entry_count: t.entry_count() as u64,
                    height: t.height() as u64,
                })
                .collect(),
            hashes: self
                .hashes
                .iter()
                .map(|h| HashMeta {
                    buckets: h.buckets().to_vec(),
                    unique: h.is_unique(),
                    entry_count: h.entry_count() as u64,
                })
                .collect(),
            app_meta: self.app_meta.clone(),
        }
    }

    /// Fold the WAL into the block file and superblock (no-op beyond a
    /// flush for volatile engines). Forces any open group-commit window's
    /// fsync barrier first.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        let meta = self.meta().encode();
        self.pool.checkpoint(&meta)?;
        self.meta_dirty = false;
        self.pool.events().record(sim_obs::Event::Checkpoint);
        Ok(())
    }

    /// Set the group-commit window: how many commits share one WAL fsync.
    /// `1` (the default) makes every `Ok` from [`StorageEngine::commit`]
    /// durable; a larger window amortizes the fsync across up to `window`
    /// back-to-back commits — a crash can lose that many *whole* committed
    /// transactions, never a torn one. [`StorageEngine::sync_wal`],
    /// [`StorageEngine::checkpoint`] and [`StorageEngine::close`] force the
    /// barrier.
    pub fn set_group_commit_window(&self, window: usize) -> Result<(), StorageError> {
        self.pool.set_group_commit_window(window)
    }

    /// The current group-commit window.
    pub fn group_commit_window(&self) -> usize {
        self.pool.group_commit_window()
    }

    /// Force the group-commit fsync barrier: every previously committed
    /// transaction is durable on return.
    pub fn sync_wal(&self) -> Result<(), StorageError> {
        self.pool.sync_log()
    }

    /// Checkpoint and consume the engine. The database directory can be
    /// reopened with [`StorageEngine::open`].
    pub fn close(mut self) -> Result<(), StorageError> {
        self.checkpoint()
    }

    // ----- structure creation ------------------------------------------------

    /// Create an empty heap file.
    pub fn create_file(&mut self) -> Result<FileId, StorageError> {
        self.files.push(HeapFile::new());
        self.meta_dirty = true;
        Ok(FileId(self.files.len() as u32 - 1))
    }

    /// Create an empty B-tree index.
    pub fn create_btree(&mut self, unique: bool) -> Result<BTreeId, StorageError> {
        self.btrees.push(BTree::create(&self.pool, unique)?);
        self.meta_dirty = true;
        Ok(BTreeId(self.btrees.len() as u32 - 1))
    }

    /// Create an empty hash index with `buckets` buckets.
    pub fn create_hash(
        &mut self,
        buckets: usize,
        unique: bool,
    ) -> Result<HashIndexId, StorageError> {
        self.hashes.push(HashIndex::create(&self.pool, buckets, unique)?);
        self.meta_dirty = true;
        Ok(HashIndexId(self.hashes.len() as u32 - 1))
    }

    /// Number of heap files (reopen-time structure rebinding).
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of B-trees (reopen-time structure rebinding).
    pub fn btree_count(&self) -> usize {
        self.btrees.len()
    }

    /// Number of hash indexes (reopen-time structure rebinding).
    pub fn hash_count(&self) -> usize {
        self.hashes.len()
    }

    fn file(&self, id: FileId) -> Result<&HeapFile, StorageError> {
        self.files
            .get(id.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("file {}", id.0)))
    }

    fn btree(&self, id: BTreeId) -> Result<&BTree, StorageError> {
        self.btrees
            .get(id.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("btree {}", id.0)))
    }

    fn hash(&self, id: HashIndexId) -> Result<&HashIndex, StorageError> {
        self.hashes
            .get(id.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("hash {}", id.0)))
    }

    // ----- concurrency --------------------------------------------------------

    /// Switch concurrent mode on or off. On: every transaction's undo
    /// pre-images are mirrored into the version store for snapshot
    /// readers, and heap mutations take non-blocking block locks as a
    /// physical-conflict safety net. Off (the default): both are free.
    pub fn set_concurrent(&self, on: bool) {
        self.versions.set_enabled(on);
    }

    /// Whether concurrent mode is on.
    pub fn is_concurrent(&self) -> bool {
        self.versions.enabled()
    }

    /// The engine's lock table. Shared as an `Arc` so sessions can wait
    /// for class locks without holding any engine-wide mutex.
    pub fn lock_table(&self) -> &Arc<LockTable> {
        &self.locks
    }

    /// The version store (snapshot bookkeeping).
    pub fn versions(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// Register a snapshot reader at the current commit timestamp.
    pub fn begin_read(&self) -> ReadTicket {
        self.versions.begin_read()
    }

    /// Deregister a snapshot reader.
    pub fn end_read(&self, ticket: ReadTicket) {
        self.versions.end_read(ticket);
    }

    /// Build the snapshot overlay for a read at `begin_ts`; changes by
    /// `self_txn` stay visible (a transaction reads its own writes).
    pub fn snapshot_at(&self, begin_ts: u64, self_txn: Option<u64>) -> SnapshotView {
        self.versions.snapshot(begin_ts, self_txn)
    }

    /// Install (or clear, with `None`) the snapshot overlay consulted by
    /// every read method. The session layer installs a view around each
    /// snapshot-read statement; writers run with no view installed.
    pub fn install_read_view(&self, view: Option<Arc<SnapshotView>>) {
        *self.read_view.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = view;
    }

    fn view(&self) -> Option<Arc<SnapshotView>> {
        if !self.versions.enabled() {
            return None;
        }
        self.read_view.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Non-blocking block lock under an open transaction (concurrent
    /// mode only): the safety net against slot reuse across an abort.
    fn lock_block(&self, txn: &Txn, rid: RecordId) -> Result<(), StorageError> {
        if self.versions.enabled() {
            self.locks.try_lock_exclusive(txn.id(), LockKey::Block(rid.block.0))?;
        }
        Ok(())
    }

    // ----- transactions -------------------------------------------------------

    /// Open a transaction. Id allocation is atomic: concurrent sessions
    /// begin transactions through a shared engine handle.
    pub fn begin(&self) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        self.pool.stats().count_txn_begin();
        self.versions.begin(id);
        Txn::new(id)
    }

    /// Commit. A durable engine appends the transaction's page after-images
    /// plus a commit record to the write-ahead log and fsyncs (or defers
    /// the fsync to the group-commit barrier) — with the default window of
    /// 1, `Ok` means the transaction survives any crash. A volatile engine
    /// just drops the undo log.
    ///
    /// Read-only transactions — no logged operation and no metadata change
    /// — skip the WAL entirely: no append, no fsync. Their ids may be
    /// reused after a crash, which is sound because recovery resets the log
    /// (ids only need to be unique within one log lifetime).
    pub fn commit(&mut self, txn: Txn) -> Result<(), StorageError> {
        let id = txn.id();
        let read_only = txn.op_count() == 0 && !self.meta_dirty;
        drop(txn);
        let result = if self.pool.is_durable() && !read_only {
            let meta = self.meta().encode();
            match self.pool.commit_to_wal(id, &meta) {
                Ok(()) => {
                    self.meta_dirty = false;
                    self.pool.events().record(sim_obs::Event::Commit { txn: id });
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            Ok(())
        };
        // Stamp the commit timestamp and release locks even if the WAL
        // write failed: the transaction is over either way (a failed
        // durable commit means the medium crashed; the engine is done).
        self.versions.commit(id);
        self.locks.unlock_all(id);
        self.pool.stats().count_txn_commit();
        result
    }

    /// Roll the transaction back completely.
    pub fn abort(&mut self, mut txn: Txn) -> Result<(), StorageError> {
        self.pool.stats().count_txn_abort();
        let id = txn.id();
        let ops = txn.drain_reverse();
        let result = self.apply_undo(ops);
        self.versions.abort(id);
        self.locks.unlock_all(id);
        result
    }

    /// Roll back to a savepoint taken with [`Txn::savepoint`], keeping the
    /// transaction open. Used for statement-level rollback on integrity
    /// violations (§3.3). Counted as an abort: the statement's work is
    /// discarded even though the enclosing transaction lives on.
    ///
    /// A stale savepoint beyond the undo-log length yields
    /// [`StorageError::BadSavepoint`] without touching anything.
    pub fn rollback_to(&mut self, txn: &mut Txn, savepoint: usize) -> Result<(), StorageError> {
        let ops = txn.drain_to_savepoint(savepoint)?;
        self.pool.stats().count_txn_abort();
        self.versions.rollback_to(txn.id(), savepoint);
        self.apply_undo(ops)
    }

    fn apply_undo(&mut self, ops: Vec<UndoOp>) -> Result<(), StorageError> {
        for op in ops {
            match op {
                UndoOp::HeapInsert { file, rid } => {
                    let pool = &self.pool;
                    self.files[file.0 as usize].delete(pool, rid)?;
                }
                UndoOp::HeapDelete { file, rid, data } => {
                    let pool = &self.pool;
                    self.files[file.0 as usize].restore(pool, rid, &data)?;
                }
                UndoOp::HeapUpdate { file, old_rid, new_rid, old_data } => {
                    let pool = &self.pool;
                    let f = &mut self.files[file.0 as usize];
                    if old_rid == new_rid {
                        let back = f.update(pool, new_rid, &old_data)?;
                        if back != old_rid {
                            return Err(StorageError::Corrupt(
                                "undo relocated a record it should have restored in place".into(),
                            ));
                        }
                    } else {
                        f.delete(pool, new_rid)?;
                        f.restore(pool, old_rid, &old_data)?;
                    }
                }
                UndoOp::BTreeInsert { index, key, value } => {
                    let pool = &self.pool;
                    self.btrees[index.0 as usize].delete(pool, &key, &value)?;
                }
                UndoOp::BTreeDelete { index, key, value } => {
                    let pool = &self.pool;
                    self.btrees[index.0 as usize].insert(pool, &key, &value)?;
                }
                UndoOp::HashInsert { index, key, value } => {
                    let pool = &self.pool;
                    self.hashes[index.0 as usize].delete(pool, &key, &value)?;
                }
                UndoOp::HashDelete { index, key, value } => {
                    let pool = &self.pool;
                    self.hashes[index.0 as usize].insert(pool, &key, &value)?;
                }
            }
        }
        Ok(())
    }

    // ----- heap operations ----------------------------------------------------

    /// Insert a record.
    pub fn heap_insert(
        &mut self,
        txn: &mut Txn,
        file: FileId,
        data: &[u8],
    ) -> Result<RecordId, StorageError> {
        let pool = &self.pool;
        let rid = self
            .files
            .get_mut(file.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("file {}", file.0)))?
            .insert(pool, data)?;
        self.finish_heap_insert(txn, file, rid)
    }

    /// Insert a record clustered near another record's block when possible.
    pub fn heap_insert_near(
        &mut self,
        txn: &mut Txn,
        file: FileId,
        near: RecordId,
        data: &[u8],
    ) -> Result<RecordId, StorageError> {
        let pool = &self.pool;
        let rid = self
            .files
            .get_mut(file.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("file {}", file.0)))?
            .insert_near(pool, near.block, data)?;
        self.finish_heap_insert(txn, file, rid)
    }

    /// Block-lock, version-track and undo-log a fresh heap insert. A lock
    /// conflict (another open transaction freed a slot in this block, so
    /// its abort may need it back) physically removes the record again
    /// and surfaces SIM-C002 — the statement aborts cleanly.
    fn finish_heap_insert(
        &mut self,
        txn: &mut Txn,
        file: FileId,
        rid: RecordId,
    ) -> Result<RecordId, StorageError> {
        if let Err(conflict) = self.lock_block(txn, rid) {
            let pool = &self.pool;
            self.files[file.0 as usize].delete(pool, rid)?;
            return Err(conflict);
        }
        let op = UndoOp::HeapInsert { file, rid };
        self.versions.track(txn.id(), txn.op_count(), &op);
        txn.log(op);
        Ok(rid)
    }

    /// Read a record (through the installed snapshot view, if any).
    pub fn heap_get(&self, file: FileId, rid: RecordId) -> Result<Option<Vec<u8>>, StorageError> {
        if let Some(view) = self.view() {
            if let Some(over) = view.heap_override(file, rid) {
                self.file(file)?; // unknown files must still error
                return Ok(over.clone());
            }
        }
        self.file(file)?.get(&self.pool, rid)
    }

    /// Update a record; the returned id differs from `rid` when the record
    /// had to relocate.
    pub fn heap_update(
        &mut self,
        txn: &mut Txn,
        file: FileId,
        rid: RecordId,
        data: &[u8],
    ) -> Result<RecordId, StorageError> {
        self.lock_block(txn, rid)?;
        let pool = &self.pool;
        let f = self
            .files
            .get_mut(file.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("file {}", file.0)))?;
        let old_data =
            f.get(pool, rid)?.ok_or_else(|| StorageError::InvalidRecordId(rid.to_string()))?;
        let new_rid = f.update(pool, rid, data)?;
        if new_rid != rid {
            // Relocation: the new block needs the safety-net lock too. On
            // conflict, put the record back before surfacing SIM-C002.
            if let Err(conflict) = self.lock_block(txn, new_rid) {
                let f = &mut self.files[file.0 as usize];
                f.delete(pool, new_rid)?;
                f.restore(pool, rid, &old_data)?;
                return Err(conflict);
            }
        }
        let op = UndoOp::HeapUpdate { file, old_rid: rid, new_rid, old_data };
        self.versions.track(txn.id(), txn.op_count(), &op);
        txn.log(op);
        Ok(new_rid)
    }

    /// Delete a record.
    pub fn heap_delete(
        &mut self,
        txn: &mut Txn,
        file: FileId,
        rid: RecordId,
    ) -> Result<Vec<u8>, StorageError> {
        self.lock_block(txn, rid)?;
        let pool = &self.pool;
        let data = self
            .files
            .get_mut(file.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("file {}", file.0)))?
            .delete(pool, rid)?;
        let op = UndoOp::HeapDelete { file, rid, data: data.clone() };
        self.versions.track(txn.id(), txn.op_count(), &op);
        txn.log(op);
        Ok(data)
    }

    /// Materialize a full scan (through the installed snapshot view, if
    /// any).
    pub fn heap_scan_all(&self, file: FileId) -> Result<Vec<(RecordId, Vec<u8>)>, StorageError> {
        let mut rows = self.file(file)?.scan_all(&self.pool)?;
        if let Some(view) = self.view() {
            view.apply_heap_scan(file, &mut rows);
        }
        Ok(rows)
    }

    /// Live record count (optimizer statistic).
    pub fn heap_record_count(&self, file: FileId) -> Result<usize, StorageError> {
        Ok(self.file(file)?.record_count())
    }

    /// Block count (optimizer statistic: scan cost).
    pub fn heap_block_count(&self, file: FileId) -> Result<usize, StorageError> {
        Ok(self.file(file)?.block_count())
    }

    // ----- B-tree operations ----------------------------------------------------

    /// Insert an index entry.
    pub fn btree_insert(
        &mut self,
        txn: &mut Txn,
        index: BTreeId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        let pool = &self.pool;
        self.btrees
            .get_mut(index.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("btree {}", index.0)))?
            .insert(pool, key, value)?;
        let op = UndoOp::BTreeInsert { index, key: key.to_vec(), value: value.to_vec() };
        self.versions.track(txn.id(), txn.op_count(), &op);
        txn.log(op);
        Ok(())
    }

    /// Delete the exact index entry; logs only if something was removed.
    pub fn btree_delete(
        &mut self,
        txn: &mut Txn,
        index: BTreeId,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, StorageError> {
        let pool = &self.pool;
        let existed = self
            .btrees
            .get_mut(index.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("btree {}", index.0)))?
            .delete(pool, key, value)?;
        if existed {
            let op = UndoOp::BTreeDelete { index, key: key.to_vec(), value: value.to_vec() };
            self.versions.track(txn.id(), txn.op_count(), &op);
            txn.log(op);
        }
        Ok(existed)
    }

    /// First value under `key` (through the installed snapshot view, if
    /// any).
    pub fn btree_lookup_first(
        &self,
        index: BTreeId,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, StorageError> {
        if let Some(view) = self.view() {
            let mut values = self.btree(index)?.scan_key(&self.pool, key)?;
            view.apply_btree_key(index, key, &mut values);
            return Ok(values.into_iter().next());
        }
        self.btree(index)?.lookup_first(&self.pool, key)
    }

    /// All values under `key` (through the installed snapshot view, if
    /// any).
    pub fn btree_scan_key(&self, index: BTreeId, key: &[u8]) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut values = self.btree(index)?.scan_key(&self.pool, key)?;
        if let Some(view) = self.view() {
            view.apply_btree_key(index, key, &mut values);
        }
        Ok(values)
    }

    /// Range scan `lo <= key < hi` (through the installed snapshot view,
    /// if any).
    pub fn btree_scan_range(
        &self,
        index: BTreeId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<Vec<Entry>, StorageError> {
        let mut entries = self.btree(index)?.scan_range(&self.pool, lo, hi)?;
        if let Some(view) = self.view() {
            view.apply_btree_entries(index, &mut entries, |key| {
                lo.is_none_or(|lo| key >= lo) && hi.is_none_or(|hi| key < hi)
            });
        }
        Ok(entries)
    }

    /// Every entry in key order (through the installed snapshot view, if
    /// any).
    pub fn btree_scan_all(&self, index: BTreeId) -> Result<Vec<Entry>, StorageError> {
        let mut entries = self.btree(index)?.scan_all(&self.pool)?;
        if let Some(view) = self.view() {
            view.apply_btree_entries(index, &mut entries, |_| true);
        }
        Ok(entries)
    }

    /// Tree height (optimizer statistic: probe cost in block accesses).
    pub fn btree_height(&self, index: BTreeId) -> Result<usize, StorageError> {
        Ok(self.btree(index)?.height())
    }

    // ----- hash-index operations --------------------------------------------------

    /// Insert a hash entry.
    pub fn hash_insert(
        &mut self,
        txn: &mut Txn,
        index: HashIndexId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StorageError> {
        let pool = &self.pool;
        self.hashes
            .get_mut(index.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("hash {}", index.0)))?
            .insert(pool, key, value)?;
        let op = UndoOp::HashInsert { index, key: key.to_vec(), value: value.to_vec() };
        self.versions.track(txn.id(), txn.op_count(), &op);
        txn.log(op);
        Ok(())
    }

    /// Delete the exact hash entry; logs only if something was removed.
    pub fn hash_delete(
        &mut self,
        txn: &mut Txn,
        index: HashIndexId,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool, StorageError> {
        let pool = &self.pool;
        let existed = self
            .hashes
            .get_mut(index.0 as usize)
            .ok_or_else(|| StorageError::UnknownStructure(format!("hash {}", index.0)))?
            .delete(pool, key, value)?;
        if existed {
            let op = UndoOp::HashDelete { index, key: key.to_vec(), value: value.to_vec() };
            self.versions.track(txn.id(), txn.op_count(), &op);
            txn.log(op);
        }
        Ok(existed)
    }

    /// All values under `key` (through the installed snapshot view, if
    /// any).
    pub fn hash_get(&self, index: HashIndexId, key: &[u8]) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut values = self.hash(index)?.get(&self.pool, key)?;
        if let Some(view) = self.view() {
            view.apply_hash_key(index, key, &mut values);
        }
        Ok(values)
    }
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("files", &self.files.len())
            .field("btrees", &self.btrees.len())
            .field("hashes", &self.hashes.len())
            .field("pool", &self.pool)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{BlockId, MemDisk};

    #[test]
    fn abort_undoes_heap_mutations_in_reverse() {
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let mut setup = eng.begin();
        let keep = eng.heap_insert(&mut setup, f, b"keep").unwrap();
        eng.commit(setup).unwrap();

        let mut txn = eng.begin();
        let added = eng.heap_insert(&mut txn, f, b"added").unwrap();
        let moved = eng.heap_update(&mut txn, f, keep, b"changed").unwrap();
        eng.heap_delete(&mut txn, f, moved).unwrap();
        eng.abort(txn).unwrap();

        assert_eq!(eng.heap_get(f, keep).unwrap().unwrap(), b"keep");
        assert!(eng.heap_get(f, added).unwrap().is_none());
        assert_eq!(eng.heap_record_count(f).unwrap(), 1);
    }

    #[test]
    fn abort_undoes_update_with_relocation() {
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let mut setup = eng.begin();
        let rid = eng.heap_insert(&mut setup, f, &vec![1u8; 2000]).unwrap();
        eng.heap_insert(&mut setup, f, &vec![2u8; 2000]).unwrap();
        eng.commit(setup).unwrap();

        let mut txn = eng.begin();
        let new_rid = eng.heap_update(&mut txn, f, rid, &vec![3u8; 3500]).unwrap();
        assert_ne!(rid, new_rid);
        eng.abort(txn).unwrap();
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), vec![1u8; 2000]);
        assert!(eng.heap_get(f, new_rid).unwrap().is_none());
    }

    #[test]
    fn abort_undoes_index_mutations() {
        let mut eng = StorageEngine::new(32);
        let bt = eng.create_btree(false).unwrap();
        let hx = eng.create_hash(4, false).unwrap();
        let mut setup = eng.begin();
        eng.btree_insert(&mut setup, bt, b"stay", b"1").unwrap();
        eng.hash_insert(&mut setup, hx, b"stay", b"1").unwrap();
        eng.commit(setup).unwrap();

        let mut txn = eng.begin();
        eng.btree_insert(&mut txn, bt, b"new", b"2").unwrap();
        eng.btree_delete(&mut txn, bt, b"stay", b"1").unwrap();
        eng.hash_insert(&mut txn, hx, b"new", b"2").unwrap();
        eng.hash_delete(&mut txn, hx, b"stay", b"1").unwrap();
        eng.abort(txn).unwrap();

        assert_eq!(eng.btree_scan_key(bt, b"stay").unwrap(), vec![b"1".to_vec()]);
        assert!(eng.btree_scan_key(bt, b"new").unwrap().is_empty());
        assert_eq!(eng.hash_get(hx, b"stay").unwrap(), vec![b"1".to_vec()]);
        assert!(eng.hash_get(hx, b"new").unwrap().is_empty());
    }

    #[test]
    fn savepoint_rolls_back_partially() {
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let mut txn = eng.begin();
        let first = eng.heap_insert(&mut txn, f, b"first").unwrap();
        let sp = txn.savepoint();
        let second = eng.heap_insert(&mut txn, f, b"second").unwrap();
        eng.rollback_to(&mut txn, sp).unwrap();
        eng.commit(txn).unwrap();
        assert_eq!(eng.heap_get(f, first).unwrap().unwrap(), b"first");
        assert!(eng.heap_get(f, second).unwrap().is_none());
    }

    #[test]
    fn savepoint_restores_heap_btree_and_hash_exactly() {
        // The integrity-rollback path (§3.3): a statement updates a record
        // (relocating it), touches both index kinds, then fails — the
        // savepoint rollback must restore every structure exactly,
        // including the record's original address.
        let mut eng = StorageEngine::new(64);
        let f = eng.create_file().unwrap();
        let bt = eng.create_btree(true).unwrap();
        let hx = eng.create_hash(8, true).unwrap();

        let mut setup = eng.begin();
        let rid = eng.heap_insert(&mut setup, f, &vec![1u8; 2000]).unwrap();
        eng.heap_insert(&mut setup, f, &vec![2u8; 2000]).unwrap();
        eng.btree_insert(&mut setup, bt, b"key", &rid.to_bytes()).unwrap();
        eng.hash_insert(&mut setup, hx, b"key", &rid.to_bytes()).unwrap();
        eng.commit(setup).unwrap();
        let baseline_heap = eng.heap_scan_all(f).unwrap();
        let baseline_bt = eng.btree_scan_all(bt).unwrap();
        let baseline_hx = eng.hash_get(hx, b"key").unwrap();

        let mut txn = eng.begin();
        let sp = txn.savepoint();
        // Growing update forces relocation to a new block.
        let new_rid = eng.heap_update(&mut txn, f, rid, &vec![9u8; 3500]).unwrap();
        assert_ne!(rid, new_rid, "update must relocate for this test to bite");
        // Index maintenance follows the move.
        eng.btree_delete(&mut txn, bt, b"key", &rid.to_bytes()).unwrap();
        eng.btree_insert(&mut txn, bt, b"key", &new_rid.to_bytes()).unwrap();
        eng.hash_delete(&mut txn, hx, b"key", &rid.to_bytes()).unwrap();
        eng.hash_insert(&mut txn, hx, b"key", &new_rid.to_bytes()).unwrap();
        // "VERIFY failed": statement-level rollback.
        eng.rollback_to(&mut txn, sp).unwrap();
        eng.commit(txn).unwrap();

        assert_eq!(eng.heap_scan_all(f).unwrap(), baseline_heap);
        assert_eq!(eng.btree_scan_all(bt).unwrap(), baseline_bt);
        assert_eq!(eng.hash_get(hx, b"key").unwrap(), baseline_hx);
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), vec![1u8; 2000]);
        assert!(eng.heap_get(f, new_rid).unwrap().is_none());
    }

    #[test]
    fn stale_savepoint_is_a_typed_error_not_a_panic() {
        // Regression: a savepoint held across an earlier rollback used to
        // make drain_to_savepoint panic in Vec::split_off. It must now
        // surface StorageError::BadSavepoint and leave the txn usable.
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let mut txn = eng.begin();
        eng.heap_insert(&mut txn, f, b"one").unwrap();
        let stale = txn.savepoint(); // == 1
        eng.heap_insert(&mut txn, f, b"two").unwrap();
        eng.rollback_to(&mut txn, 0).unwrap(); // drains everything
        match eng.rollback_to(&mut txn, stale) {
            Err(StorageError::BadSavepoint { savepoint: 1, len: 0 }) => {}
            other => panic!("expected BadSavepoint, got {other:?}"),
        }
        // The transaction is still usable after the error.
        let rid = eng.heap_insert(&mut txn, f, b"three").unwrap();
        eng.commit(txn).unwrap();
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"three");
    }

    #[test]
    fn snapshot_readers_see_the_begin_timestamp_state() {
        let mut eng = StorageEngine::new(64);
        eng.set_concurrent(true);
        let f = eng.create_file().unwrap();
        let bt = eng.create_btree(true).unwrap();
        let mut setup = eng.begin();
        let rid = eng.heap_insert(&mut setup, f, b"v1").unwrap();
        eng.btree_insert(&mut setup, bt, b"k", &rid.to_bytes()).unwrap();
        eng.commit(setup).unwrap();

        // A reader pins the pre-writer state...
        let ticket = eng.begin_read();
        // ...while a writer updates, deletes the index entry, and inserts
        // a second record — all uncommitted, then committed.
        let mut writer = eng.begin();
        eng.heap_update(&mut writer, f, rid, b"v2").unwrap();
        eng.btree_delete(&mut writer, bt, b"k", &rid.to_bytes()).unwrap();
        let rid2 = eng.heap_insert(&mut writer, f, b"new").unwrap();

        let view = Arc::new(eng.snapshot_at(ticket.ts, None));
        eng.install_read_view(Some(Arc::clone(&view)));
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"v1");
        assert!(eng.heap_get(f, rid2).unwrap().is_none());
        assert_eq!(eng.btree_lookup_first(bt, b"k").unwrap().unwrap(), rid.to_bytes().to_vec());
        assert_eq!(eng.heap_scan_all(f).unwrap(), vec![(rid, b"v1".to_vec())]);
        eng.install_read_view(None);

        // Commit does not change what the pinned snapshot sees.
        eng.commit(writer).unwrap();
        let view = Arc::new(eng.snapshot_at(ticket.ts, None));
        eng.install_read_view(Some(view));
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"v1");
        assert!(eng.heap_get(f, rid2).unwrap().is_none());
        eng.install_read_view(None);
        eng.end_read(ticket);

        // A fresh snapshot sees the committed state, and with no readers
        // left the version store drains.
        let fresh = eng.snapshot_at(eng.versions().commit_ts(), None);
        assert!(fresh.is_empty());
        assert_eq!(eng.versions().retained(), 0);
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn block_locks_catch_slot_reuse_across_open_transactions() {
        // Txn 1 deletes a record (freeing its slot) and stays open; txn 2
        // tries to insert into the same block. Without the block lock,
        // txn 2 could reuse the slot and make txn 1's abort fail with
        // SlotOccupied. With it, txn 2 gets a typed conflict instead.
        let mut eng = StorageEngine::new(32);
        eng.set_concurrent(true);
        let f = eng.create_file().unwrap();
        let mut setup = eng.begin();
        let victim = eng.heap_insert(&mut setup, f, b"victim").unwrap();
        eng.commit(setup).unwrap();

        let mut t1 = eng.begin();
        eng.heap_delete(&mut t1, f, victim).unwrap();
        let mut t2 = eng.begin();
        match eng.heap_insert(&mut t2, f, b"usurper") {
            Err(StorageError::LockConflict { .. }) => {}
            other => panic!("expected LockConflict, got {other:?}"),
        }
        eng.abort(t2).unwrap();
        eng.abort(t1).unwrap(); // restore succeeds: the slot is free
        assert_eq!(eng.heap_get(f, victim).unwrap().unwrap(), b"victim");
        assert_eq!(eng.lock_table().locked_key_count(), 0);
    }

    #[test]
    fn undo_respects_reverse_order_for_slot_reuse() {
        // Delete a record, insert another that reuses its slot, then abort:
        // the insert must be undone first so the restore succeeds.
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let mut setup = eng.begin();
        let victim = eng.heap_insert(&mut setup, f, b"victim").unwrap();
        eng.commit(setup).unwrap();

        let mut txn = eng.begin();
        eng.heap_delete(&mut txn, f, victim).unwrap();
        let usurper = eng.heap_insert(&mut txn, f, b"usurper").unwrap();
        assert_eq!(usurper, victim, "slot should be reused");
        eng.abort(txn).unwrap();
        assert_eq!(eng.heap_get(f, victim).unwrap().unwrap(), b"victim");
    }

    #[test]
    fn commit_keeps_changes() {
        let mut eng = StorageEngine::new(32);
        let f = eng.create_file().unwrap();
        let bt = eng.create_btree(true).unwrap();
        let mut txn = eng.begin();
        let rid = eng.heap_insert(&mut txn, f, b"data").unwrap();
        eng.btree_insert(&mut txn, bt, b"k", &rid.to_bytes()).unwrap();
        eng.commit(txn).unwrap();
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"data");
        assert_eq!(eng.btree_lookup_first(bt, b"k").unwrap().unwrap(), rid.to_bytes().to_vec());
    }

    #[test]
    fn txn_lifecycle_is_counted() {
        let mut eng = StorageEngine::new(16);
        let f = eng.create_file().unwrap();
        let before = eng.io_snapshot();

        let t1 = eng.begin();
        eng.commit(t1).unwrap();
        let mut t2 = eng.begin();
        eng.heap_insert(&mut t2, f, b"x").unwrap();
        eng.abort(t2).unwrap();

        let d = eng.io_snapshot().since(&before);
        assert_eq!((d.txn_begins, d.txn_commits, d.txn_aborts), (2, 1, 1));
    }

    #[test]
    fn unknown_structures_error() {
        let eng = StorageEngine::new(16);
        assert!(eng.heap_get(FileId(9), RecordId::from_bytes(&[0; 8]).unwrap()).is_err());
        assert!(eng.btree_scan_all(BTreeId(3)).is_err());
        assert!(eng.hash_get(HashIndexId(1), b"x").is_err());
    }

    /// A shareable medium: lets a test "crash" an engine (drop it) and
    /// reopen over the same bytes, like a file on disk.
    #[derive(Debug, Clone)]
    struct SharedDisk(std::sync::Arc<std::sync::Mutex<MemDisk>>);

    impl SharedDisk {
        fn new() -> SharedDisk {
            SharedDisk(std::sync::Arc::new(std::sync::Mutex::new(MemDisk::new())))
        }
    }

    impl Storage for SharedDisk {
        fn read_block(
            &mut self,
            id: BlockId,
            buf: &mut [u8; crate::BLOCK_SIZE],
        ) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").read_block(id, buf)
        }
        fn write_block(
            &mut self,
            id: BlockId,
            buf: &[u8; crate::BLOCK_SIZE],
        ) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").write_block(id, buf)
        }
        fn allocate_block(&mut self) -> Result<BlockId, StorageError> {
            self.0.lock().expect("shared disk").allocate_block()
        }
        fn block_count(&self) -> usize {
            self.0.lock().expect("shared disk").block_count()
        }
        fn set_block_count(&mut self, count: usize) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").set_block_count(count)
        }
        fn sync_blocks(&mut self) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").sync_blocks()
        }
        fn log_append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").log_append(bytes)
        }
        fn log_sync(&mut self) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").log_sync()
        }
        fn log_read_all(&mut self) -> Result<Vec<u8>, StorageError> {
            self.0.lock().expect("shared disk").log_read_all()
        }
        fn log_reset(&mut self) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").log_reset()
        }
        fn read_super(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
            self.0.lock().expect("shared disk").read_super()
        }
        fn write_super(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.0.lock().expect("shared disk").write_super(bytes)
        }
    }

    fn open_shared(disk: &SharedDisk) -> StorageEngine {
        StorageEngine::open_on(Box::new(disk.clone()), 32, &Arc::new(Registry::new())).unwrap()
    }

    #[test]
    fn durable_engine_survives_crash_without_checkpoint() {
        let medium = SharedDisk::new();
        let rid;
        let (f, bt);
        {
            let mut eng = open_shared(&medium);
            f = eng.create_file().unwrap();
            bt = eng.create_btree(true).unwrap();
            let mut txn = eng.begin();
            rid = eng.heap_insert(&mut txn, f, b"durable").unwrap();
            eng.btree_insert(&mut txn, bt, b"k", &rid.to_bytes()).unwrap();
            eng.commit(txn).unwrap();
            // Crash: the engine is dropped without close/checkpoint. The
            // commit's WAL images are all that survives.
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"durable");
        assert_eq!(eng.btree_lookup_first(bt, b"k").unwrap().unwrap(), rid.to_bytes().to_vec());
        assert!(eng.io_snapshot().wal_replayed > 0, "recovery replayed the commit");
    }

    #[test]
    fn uncommitted_work_does_not_survive_a_crash() {
        let medium = SharedDisk::new();
        let (f, committed_rid);
        {
            let mut eng = open_shared(&medium);
            f = eng.create_file().unwrap();
            let mut txn = eng.begin();
            committed_rid = eng.heap_insert(&mut txn, f, b"committed").unwrap();
            eng.commit(txn).unwrap();
            let mut open_txn = eng.begin();
            eng.heap_insert(&mut open_txn, f, b"uncommitted").unwrap();
            // Crash with the second transaction still open.
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.heap_record_count(f).unwrap(), 1);
        assert_eq!(eng.heap_get(f, committed_rid).unwrap().unwrap(), b"committed");
    }

    #[test]
    fn close_checkpoints_and_reopen_replays_nothing() {
        let medium = SharedDisk::new();
        let (f, rid);
        {
            let mut eng = open_shared(&medium);
            f = eng.create_file().unwrap();
            let mut txn = eng.begin();
            rid = eng.heap_insert(&mut txn, f, b"x").unwrap();
            eng.commit(txn).unwrap();
            eng.close().unwrap();
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"x");
        assert_eq!(eng.io_snapshot().wal_replayed, 0, "checkpoint folded the log away");
    }

    #[test]
    fn read_only_commit_skips_the_wal_entirely() {
        let medium = SharedDisk::new();
        let mut eng = open_shared(&medium);
        let f = eng.create_file().unwrap();
        let mut txn = eng.begin();
        let rid = eng.heap_insert(&mut txn, f, b"x").unwrap();
        eng.commit(txn).unwrap();

        let before = eng.io_snapshot();
        for _ in 0..10 {
            let txn = eng.begin();
            assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"x");
            eng.commit(txn).unwrap();
        }
        let d = eng.io_snapshot().since(&before);
        assert_eq!(d.txn_commits, 10);
        assert_eq!(
            (d.wal_records, d.wal_bytes, d.fsyncs),
            (0, 0, 0),
            "pure reads must not append or fsync"
        );
    }

    #[test]
    fn empty_commit_after_metadata_change_still_persists() {
        // The mapper commits schema/allocator state via set_app_meta with
        // an otherwise-empty transaction; that must not be mistaken for
        // read-only.
        let medium = SharedDisk::new();
        {
            let mut eng = open_shared(&medium);
            eng.set_app_meta(b"v1".to_vec());
            let txn = eng.begin();
            eng.commit(txn).unwrap();
            // Unchanged bytes on the next commit: read-only again.
            let before = eng.io_snapshot();
            eng.set_app_meta(b"v1".to_vec());
            let txn = eng.begin();
            eng.commit(txn).unwrap();
            assert_eq!(eng.io_snapshot().since(&before).wal_records, 0);
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.app_meta(), b"v1");
    }

    #[test]
    fn grouped_commits_are_durable_after_the_barrier() {
        // MemDisk cannot model losing an unsynced log tail (that scenario
        // lives in the FaultDisk crash matrix); this checks the positive
        // direction: commits inside a window survive once the barrier runs.
        let medium = SharedDisk::new();
        let (f, rid);
        {
            let mut eng = open_shared(&medium);
            f = eng.create_file().unwrap();
            eng.set_group_commit_window(8).unwrap();
            let mut txn = eng.begin();
            rid = eng.heap_insert(&mut txn, f, b"grouped").unwrap();
            eng.commit(txn).unwrap();
            eng.sync_wal().unwrap();
            // Crash (drop without checkpoint): the barrier already ran.
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.heap_get(f, rid).unwrap().unwrap(), b"grouped");
    }

    #[test]
    fn group_window_amortizes_fsyncs_across_commits() {
        let medium = SharedDisk::new();
        let mut eng = open_shared(&medium);
        let f = eng.create_file().unwrap();
        {
            let mut txn = eng.begin();
            eng.heap_insert(&mut txn, f, b"setup").unwrap();
            eng.commit(txn).unwrap();
        }
        eng.set_group_commit_window(10).unwrap();
        let before = eng.io_snapshot();
        for i in 0..20u8 {
            let mut txn = eng.begin();
            eng.heap_insert(&mut txn, f, &[i]).unwrap();
            eng.commit(txn).unwrap();
        }
        eng.sync_wal().unwrap();
        let d = eng.io_snapshot().since(&before);
        assert_eq!(d.txn_commits, 20);
        assert_eq!(d.fsyncs, 2, "20 commits in windows of 10: two barriers");
    }

    #[test]
    fn app_meta_round_trips_through_commit_and_reopen() {
        let medium = SharedDisk::new();
        {
            let mut eng = open_shared(&medium);
            eng.set_app_meta(b"mapper state".to_vec());
            let txn = eng.begin();
            eng.commit(txn).unwrap();
        }
        let eng = open_shared(&medium);
        assert_eq!(eng.app_meta(), b"mapper state");
    }
}
