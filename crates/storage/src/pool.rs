//! The buffer pool: an LRU page cache enforcing write-ahead-log ordering.
//!
//! All structure code accesses blocks through the pool, so the number of
//! *physical* transfers depends on locality — which is exactly the effect
//! the paper's physical-mapping options trade on (§5.2): clustered
//! relationship instances ride along with their owner's block and cost no
//! extra I/O, pointer-mapped ones fault in their own block.
//!
//! ## Durability (the WAL ordering invariant)
//!
//! In durable mode the pool runs a **no-steal** policy: a dirty frame may
//! reach the block file only after its current content has a durable
//! after-image in the write-ahead log (`logged == true`). Frames are marked
//! `logged` by [`BufferPool::commit_to_wal`]; any later modification clears
//! the mark (an aborted transaction's logical undo restores the *logical*
//! content but may leave different physical bytes, so the old image no
//! longer covers the frame). When every evictable frame is dirty-unlogged
//! the pool simply overcommits its capacity rather than violate the
//! invariant. Non-durable pools (the original in-memory configuration) skip
//! all logging and evict/flush dirty frames freely.
//!
//! ## Group commit
//!
//! A `log_sync` is the expensive step of a commit, so the pool can
//! amortize it: with a group-commit window of N
//! ([`BufferPool::set_group_commit_window`]), [`BufferPool::commit_to_wal`]
//! appends each transaction's images + commit record but only issues the
//! fsync barrier once N commits have accumulated (or when
//! [`BufferPool::sync_log`] / [`BufferPool::checkpoint`] forces it). Frames
//! whose images sit in the unsynced log tail are marked `appended`, a third
//! state between dirty-unlogged and `logged`: they stay pinned exactly like
//! unlogged frames (log-before-flush still holds — no frame reaches the
//! block file before the fsync that makes its image durable promotes it to
//! `logged`), and a re-modification drops the mark so the next commit
//! re-images them. A crash inside an open window loses the whole window's
//! commits *atomically per transaction*: recovery sees no commit record (or
//! a torn tail) for them and rolls back to the last synced commit. The
//! default window of 1 preserves commit-is-durable semantics.

use crate::disk::{BlockId, MemDisk, Storage};
use crate::error::StorageError;
use crate::stats::{IoSnapshot, IoStats};
use crate::wal::{encode_record, WalRecord};
use crate::BLOCK_SIZE;
use sim_obs::{Event, EventLog, Registry};
use sim_types::DecodeError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

struct Frame {
    data: Box<[u8; BLOCK_SIZE]>,
    dirty: bool,
    /// The current content has a durable WAL image (durable mode only).
    logged: bool,
    /// The current content's WAL image sits in the unsynced log tail of an
    /// open group-commit window; the next `log_sync` promotes it to
    /// `logged`. Cleared by any modification.
    appended: bool,
    last_used: u64,
}

struct Inner {
    disk: Box<dyn Storage>,
    frames: HashMap<BlockId, Frame>,
    capacity: usize,
    tick: u64,
    /// Commits that share one fsync barrier (1 = sync every commit).
    group_window: usize,
    /// Commit records appended since the last `log_sync`.
    pending_commits: usize,
}

/// An LRU buffer pool. Interior-mutable: all methods take `&self`.
pub struct BufferPool {
    inner: Mutex<Inner>,
    stats: Arc<IoStats>,
    events: Arc<EventLog>,
    durable: bool,
}

impl BufferPool {
    /// A non-durable pool over a fresh [`MemDisk`], holding at most
    /// `capacity` frames, with a private metrics registry.
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool::with_registry(capacity, &Arc::new(Registry::new()))
    }

    /// A non-durable in-memory pool publishing its counters into `registry`
    /// (`storage.*` names).
    pub fn with_registry(capacity: usize, registry: &Arc<Registry>) -> BufferPool {
        BufferPool::with_storage(capacity, registry, Box::new(MemDisk::new()), false)
    }

    /// A pool over an arbitrary backend. `durable` turns on WAL ordering:
    /// dirty frames are never written back before they are logged, and
    /// [`BufferPool::commit_to_wal`] / [`BufferPool::checkpoint`] drive the
    /// log.
    pub fn with_storage(
        capacity: usize,
        registry: &Arc<Registry>,
        disk: Box<dyn Storage>,
        durable: bool,
    ) -> BufferPool {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        let stats = IoStats::with_registry(registry);
        let events = registry.event_log();
        BufferPool {
            events,
            inner: Mutex::new(Inner {
                disk,
                frames: HashMap::with_capacity(capacity),
                capacity,
                tick: 0,
                group_window: 1,
                pending_commits: 0,
            }),
            stats,
            durable,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Page decoders return errors, never panic under the lock.
        self.inner.lock().expect("buffer pool poisoned") // sim-lint: allow(unwrap)
    }

    /// Whether this pool enforces WAL ordering.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Allocate a fresh zeroed block; it enters the cache without a read.
    pub fn allocate(&self) -> Result<BlockId, StorageError> {
        let mut inner = self.lock();
        let id = inner.disk.allocate_block()?;
        self.stats.count_allocation();
        inner.tick += 1;
        let tick = inner.tick;
        self.make_room(&mut inner)?;
        inner.frames.insert(
            id,
            Frame {
                data: Box::new([0u8; BLOCK_SIZE]),
                dirty: false,
                logged: false,
                appended: false,
                last_used: tick,
            },
        );
        Ok(id)
    }

    /// Run `f` over the block's bytes (read-only).
    pub fn read<R>(
        &self,
        id: BlockId,
        f: impl FnOnce(&[u8; BLOCK_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.lock();
        self.fault_in(&mut inner, id)?;
        inner.tick += 1;
        let tick = inner.tick;
        let frame = inner.frames.get_mut(&id).ok_or_else(|| {
            StorageError::Corrupt(format!("block {} vanished after fault-in", id.0))
        })?;
        frame.last_used = tick;
        Ok(f(&frame.data))
    }

    /// Run `f` over the block's bytes mutably; marks the frame dirty (and
    /// in need of re-logging before it may be flushed).
    pub fn write<R>(
        &self,
        id: BlockId,
        f: impl FnOnce(&mut [u8; BLOCK_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        let mut inner = self.lock();
        self.fault_in(&mut inner, id)?;
        inner.tick += 1;
        let tick = inner.tick;
        let frame = inner.frames.get_mut(&id).ok_or_else(|| {
            StorageError::Corrupt(format!("block {} vanished after fault-in", id.0))
        })?;
        frame.last_used = tick;
        frame.dirty = true;
        frame.logged = false;
        frame.appended = false;
        Ok(f(&mut frame.data))
    }

    /// [`BufferPool::read`] through a page decoder that may find the block
    /// malformed: its [`DecodeError`] (a length, offset or count pointing
    /// outside the block) becomes [`StorageError::Corrupt`] naming the
    /// block. The decoder returns rather than panics, so the pool mutex is
    /// released unpoisoned and the pool keeps serving.
    pub(crate) fn read_page<R>(
        &self,
        id: BlockId,
        f: impl FnOnce(&[u8; BLOCK_SIZE]) -> Result<R, DecodeError>,
    ) -> Result<R, StorageError> {
        self.read(id, f)?.map_err(|e| StorageError::malformed(id, e))
    }

    /// [`BufferPool::write`] through a page decoder; see
    /// [`BufferPool::read_page`].
    pub(crate) fn write_page<R>(
        &self,
        id: BlockId,
        f: impl FnOnce(&mut [u8; BLOCK_SIZE]) -> Result<R, DecodeError>,
    ) -> Result<R, StorageError> {
        self.write(id, f)?.map_err(|e| StorageError::malformed(id, e))
    }

    /// Write every *flushable* dirty frame back to disk in ascending
    /// [`BlockId`] order (deterministic; does not evict). In durable mode
    /// only logged frames are flushable — unlogged ones wait for the next
    /// commit, per the WAL ordering invariant.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let mut inner = self.lock();
        self.flush_frames(&mut inner)
    }

    fn flush_frames(&self, inner: &mut Inner) -> Result<(), StorageError> {
        let mut ids: Vec<BlockId> = inner
            .frames
            .iter()
            .filter(|(_, fr)| fr.dirty && (!self.durable || fr.logged))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let Some(data) = inner.frames.get(&id).map(|fr| *fr.data) else { continue };
            inner.disk.write_block(id, &data)?;
            self.stats.count_write();
            if let Some(fr) = inner.frames.get_mut(&id) {
                fr.dirty = false;
            }
        }
        Ok(())
    }

    /// Append after-images of every dirty frame not yet imaged (ascending
    /// block order) plus a commit record carrying `meta`, then fsync the
    /// log — unless an open group-commit window defers the fsync to a later
    /// commit (or to [`BufferPool::sync_log`]). Once the barrier runs, the
    /// window's commits are durable and their frames flushable.
    pub fn commit_to_wal(&self, txn: u64, meta: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.lock();
        let mut ids: Vec<BlockId> = inner
            .frames
            .iter()
            .filter(|(_, fr)| fr.dirty && !fr.logged && !fr.appended)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let Some(data) = inner.frames.get(&id).map(|fr| fr.data.clone()) else { continue };
            let rec = encode_record(&WalRecord::PageImage { txn, block: id, data });
            inner.disk.log_append(&rec)?;
            self.stats.count_wal_record(rec.len() as u64);
            if let Some(fr) = inner.frames.get_mut(&id) {
                fr.appended = true;
            }
        }
        let rec = encode_record(&WalRecord::Commit { txn, meta: meta.to_vec() });
        inner.disk.log_append(&rec)?;
        self.stats.count_wal_record(rec.len() as u64);
        inner.pending_commits += 1;
        if inner.pending_commits >= inner.group_window {
            self.sync_log_inner(&mut inner)?;
        }
        Ok(())
    }

    /// Force the group-commit fsync barrier: sync the log tail and promote
    /// the window's `appended` frames to `logged` (durable, flushable).
    /// No-op when no commit is pending.
    pub fn sync_log(&self) -> Result<(), StorageError> {
        let mut inner = self.lock();
        self.sync_log_inner(&mut inner)
    }

    fn sync_log_inner(&self, inner: &mut Inner) -> Result<(), StorageError> {
        if inner.pending_commits == 0 {
            return Ok(());
        }
        inner.disk.log_sync()?;
        self.stats.count_fsync();
        inner.pending_commits = 0;
        // Only after the sync: the images are durable, the frames flushable.
        // Frames re-modified since their append keep waiting (`appended` was
        // cleared) — their old image is durable but no longer current.
        for fr in inner.frames.values_mut() {
            if fr.appended {
                fr.logged = true;
                fr.appended = false;
            }
        }
        Ok(())
    }

    /// Commits whose fsync barrier has not run yet (open window size).
    pub fn pending_commits(&self) -> usize {
        self.lock().pending_commits
    }

    /// Set the group-commit window: how many commits share one `log_sync`.
    /// `1` (the default) fsyncs every commit — `Ok` from commit means
    /// durable. Larger windows trade that guarantee for throughput: a crash
    /// may lose up to `window` *whole* committed transactions (never a
    /// partial one). Shrinking the window below the pending count forces
    /// the barrier immediately.
    pub fn set_group_commit_window(&self, window: usize) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.group_window = window.max(1);
        if inner.pending_commits >= inner.group_window {
            self.sync_log_inner(&mut inner)?;
        }
        Ok(())
    }

    /// The current group-commit window.
    pub fn group_commit_window(&self) -> usize {
        self.lock().group_window
    }

    /// Fold the log into the block file and superblock: log any remaining
    /// unlogged dirty images under the checkpoint pseudo-transaction (so
    /// the log's final images always match what is about to be flushed —
    /// replaying them after a crash mid-checkpoint is then harmless), flush
    /// and fsync the data blocks, atomically install `meta` as the
    /// superblock, and reset the log. Non-durable pools just flush.
    pub fn checkpoint(&self, meta: &[u8]) -> Result<(), StorageError> {
        if !self.durable {
            return self.flush_all();
        }
        self.commit_to_wal(0, meta)?;
        let mut inner = self.lock();
        // The checkpoint commit may sit in an open group-commit window:
        // force the barrier so every image below is durable before any
        // frame reaches the block file.
        self.sync_log_inner(&mut inner)?;
        self.flush_frames(&mut inner)?;
        inner.disk.sync_blocks()?;
        self.stats.count_fsync();
        inner.disk.write_super(meta)?;
        self.stats.count_fsync();
        inner.disk.log_reset()?;
        self.stats.count_checkpoint();
        Ok(())
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The engine-wide event log this pool reports into.
    pub fn events(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// The metrics registry this pool publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        self.stats.registry()
    }

    /// Convenience: snapshot the counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Number of blocks allocated on the underlying disk.
    pub fn block_count(&self) -> usize {
        self.lock().disk.block_count()
    }

    /// Count one hop of a walk along on-page `next` pointers (leaf chains,
    /// hash chains). A walk with more hops than the disk has blocks has
    /// looped: that is corruption naming `id`, not an endless walk.
    pub(crate) fn count_hop(&self, hops: &mut usize, id: BlockId) -> Result<(), StorageError> {
        *hops += 1;
        if *hops > self.block_count() {
            return Err(StorageError::malformed(id, "its chain loops"));
        }
        Ok(())
    }

    /// Drop every flushed frame (writing flushable dirty ones back first):
    /// makes subsequent accesses cold. The experiments use this to measure
    /// cold-start I/O. In durable mode, dirty-unlogged frames stay resident
    /// — they have nowhere safe to go until the next commit.
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        let mut inner = self.lock();
        self.flush_frames(&mut inner)?;
        inner.frames.retain(|_, fr| fr.dirty);
        Ok(())
    }

    fn fault_in(&self, inner: &mut Inner, id: BlockId) -> Result<(), StorageError> {
        if inner.frames.contains_key(&id) {
            self.stats.count_pool_hit();
            return Ok(());
        }
        self.stats.count_pool_miss();
        self.make_room(inner)?;
        let mut data = Box::new([0u8; BLOCK_SIZE]);
        inner.disk.read_block(id, &mut data)?;
        self.stats.count_read();
        let tick = inner.tick;
        inner.frames.insert(
            id,
            Frame { data, dirty: false, logged: false, appended: false, last_used: tick },
        );
        Ok(())
    }

    fn make_room(&self, inner: &mut Inner) -> Result<(), StorageError> {
        while inner.frames.len() >= inner.capacity {
            // LRU among evictable frames; ties broken by ascending block id
            // so eviction order is deterministic. Durable mode pins
            // dirty-unlogged frames (no-steal).
            let victim = inner
                .frames
                .iter()
                .filter(|(_, fr)| !self.durable || !fr.dirty || fr.logged)
                .min_by_key(|(id, fr)| (fr.last_used, id.0))
                .map(|(id, _)| *id);
            let Some(victim) = victim else {
                // Every frame is pinned by the WAL ordering invariant:
                // overcommit rather than steal an unlogged page.
                return Ok(());
            };
            let Some(frame) = inner.frames.remove(&victim) else {
                return Ok(());
            };
            self.stats.count_pool_eviction();
            self.events.record(Event::CacheEvict { block: u64::from(victim.0) });
            if frame.dirty {
                if let Err(e) = inner.disk.write_block(victim, &frame.data) {
                    inner.frames.insert(victim, frame);
                    return Err(e);
                }
                self.stats.count_write();
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &inner.capacity)
            .field("resident", &inner.frames.len())
            .field("disk_blocks", &inner.disk.block_count())
            .field("durable", &self.durable)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{scan_log, WalRecord};

    #[test]
    fn cached_reads_cost_nothing() {
        let pool = BufferPool::new(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 7).unwrap();
        let before = pool.io_snapshot();
        for _ in 0..100 {
            assert_eq!(pool.read(id, |b| b[0]).unwrap(), 7);
        }
        let delta = pool.io_snapshot().since(&before);
        assert_eq!(delta.reads, 0, "hot reads must not touch the disk");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = BufferPool::new(2);
        let a = pool.allocate().unwrap();
        pool.write(a, |b| b[0] = 1).unwrap();
        // Fill the pool past capacity so `a` is evicted.
        let b = pool.allocate().unwrap();
        let c = pool.allocate().unwrap();
        pool.write(b, |buf| buf[0] = 2).unwrap();
        pool.write(c, |buf| buf[0] = 3).unwrap();
        // Read `a` back: its dirty data must have survived eviction.
        assert_eq!(pool.read(a, |buf| buf[0]).unwrap(), 1);
    }

    #[test]
    fn lru_keeps_the_hot_page() {
        let pool = BufferPool::new(2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.write(a, |buf| buf[0] = 1).unwrap();
        pool.write(b, |buf| buf[0] = 2).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        pool.read(a, |_| ()).unwrap();
        let _c = pool.allocate().unwrap();
        let before = pool.io_snapshot();
        pool.read(a, |_| ()).unwrap(); // should still be resident
        assert_eq!(pool.io_snapshot().since(&before).reads, 0);
        pool.read(b, |_| ()).unwrap(); // was evicted: one physical read
        assert_eq!(pool.io_snapshot().since(&before).reads, 1);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let pool = BufferPool::new(8);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[10] = 42).unwrap();
        pool.clear_cache().unwrap();
        let before = pool.io_snapshot();
        assert_eq!(pool.read(id, |b| b[10]).unwrap(), 42);
        assert_eq!(pool.io_snapshot().since(&before).reads, 1);
    }

    #[test]
    fn counts_hits_misses_and_evictions() {
        let pool = BufferPool::new(2);
        let a = pool.allocate().unwrap();
        pool.write(a, |b| b[0] = 1).unwrap(); // resident: hit
        let before = pool.io_snapshot();
        pool.read(a, |_| ()).unwrap(); // hit
        pool.read(a, |_| ()).unwrap(); // hit
        let d = pool.io_snapshot().since(&before);
        assert_eq!((d.pool_hits, d.pool_misses), (2, 0));
        assert_eq!(d.hit_ratio(), 1.0);

        // Overflow the two-frame pool, then come back cold.
        let _b = pool.allocate().unwrap();
        let _c = pool.allocate().unwrap();
        let before = pool.io_snapshot();
        pool.read(a, |_| ()).unwrap(); // evicted above: miss
        let d = pool.io_snapshot().since(&before);
        assert_eq!(d.pool_misses, 1);
        assert!(pool.io_snapshot().pool_evictions >= 1);
    }

    #[test]
    fn clear_cache_resets_hit_ratio() {
        let pool = BufferPool::new(8);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 5).unwrap();
        pool.clear_cache().unwrap();
        let before = pool.io_snapshot();
        pool.read(id, |_| ()).unwrap(); // cold: miss
        pool.read(id, |_| ()).unwrap(); // warm: hit
        let d = pool.io_snapshot().since(&before);
        assert_eq!((d.pool_hits, d.pool_misses), (1, 1));
    }

    #[test]
    fn flush_is_idempotent() {
        let pool = BufferPool::new(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 9).unwrap();
        pool.flush_all().unwrap();
        let before = pool.io_snapshot();
        pool.flush_all().unwrap(); // nothing dirty: no writes
        assert_eq!(pool.io_snapshot().since(&before).writes, 0);
    }

    #[test]
    fn read_of_unallocated_block_is_typed_error() {
        let pool = BufferPool::new(4);
        assert!(matches!(
            pool.read(BlockId(5), |_| ()),
            Err(StorageError::BadBlock { block: 5, count: 0 })
        ));
    }

    fn durable_pool(capacity: usize) -> BufferPool {
        BufferPool::with_storage(
            capacity,
            &Arc::new(Registry::new()),
            Box::new(MemDisk::new()),
            true,
        )
    }

    #[test]
    fn durable_pool_never_flushes_unlogged_frames() {
        let pool = durable_pool(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        let before = pool.io_snapshot();
        pool.flush_all().unwrap();
        assert_eq!(pool.io_snapshot().since(&before).writes, 0, "unlogged frame must not flush");
        pool.commit_to_wal(1, b"meta").unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.io_snapshot().since(&before).writes, 1, "logged frame flushes");
    }

    #[test]
    fn durable_pool_overcommits_rather_than_steal() {
        let pool = durable_pool(2);
        // Three dirty unlogged frames in a two-frame pool: no eviction may
        // write any of them, so all three stay resident and readable with
        // zero physical reads.
        let ids: Vec<BlockId> = (0..3)
            .map(|i| {
                let id = pool.allocate().unwrap();
                pool.write(id, |b| b[0] = i as u8 + 1).unwrap();
                id
            })
            .collect();
        let before = pool.io_snapshot();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pool.read(*id, |b| b[0]).unwrap(), i as u8 + 1);
        }
        let d = pool.io_snapshot().since(&before);
        assert_eq!((d.reads, d.writes), (0, 0));
    }

    #[test]
    fn rewrite_after_commit_requires_relogging() {
        let pool = durable_pool(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        pool.commit_to_wal(1, b"m1").unwrap();
        // Modify again: the frame is dirty-unlogged once more.
        pool.write(id, |b| b[0] = 2).unwrap();
        let before = pool.io_snapshot();
        pool.flush_all().unwrap();
        assert_eq!(pool.io_snapshot().since(&before).writes, 0);
    }

    #[test]
    fn commit_logs_images_in_block_order_then_commit_record() {
        let pool = durable_pool(8);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        // Touch in reverse order; the log must still be ascending.
        pool.write(b, |buf| buf[0] = 2).unwrap();
        pool.write(a, |buf| buf[0] = 1).unwrap();
        pool.commit_to_wal(7, b"the-meta").unwrap();
        let log = pool.lock().disk.log_read_all().unwrap();
        let scan = scan_log(&log).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(
            matches!(&scan.records[0], WalRecord::PageImage { txn: 7, block, .. } if *block == a)
        );
        assert!(
            matches!(&scan.records[1], WalRecord::PageImage { txn: 7, block, .. } if *block == b)
        );
        assert!(
            matches!(&scan.records[2], WalRecord::Commit { txn: 7, meta } if meta == b"the-meta")
        );
    }

    #[test]
    fn checkpoint_resets_the_log_and_installs_the_superblock() {
        let pool = durable_pool(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 9).unwrap();
        pool.checkpoint(b"super-meta").unwrap();
        let mut inner = pool.lock();
        assert!(inner.disk.log_read_all().unwrap().is_empty());
        assert_eq!(inner.disk.read_super().unwrap().as_deref(), Some(&b"super-meta"[..]));
        let mut buf = [0u8; BLOCK_SIZE];
        inner.disk.read_block(id, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "checkpoint flushed the dirty frame");
    }

    #[test]
    fn group_commit_shares_one_fsync_across_the_window() {
        let pool = durable_pool(8);
        pool.set_group_commit_window(4).unwrap();
        let id = pool.allocate().unwrap();
        let before = pool.io_snapshot();
        for txn in 1..=4u64 {
            pool.write(id, |b| b[0] = txn as u8).unwrap();
            pool.commit_to_wal(txn, b"m").unwrap();
        }
        let d = pool.io_snapshot().since(&before);
        assert_eq!(d.fsyncs, 1, "four commits, one barrier");
        assert_eq!(pool.pending_commits(), 0);
        // All four commit records (and each re-dirtied image) are durable.
        let log = pool.lock().disk.log_read_all().unwrap();
        let commits = scan_log(&log)
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Commit { .. }))
            .count();
        assert_eq!(commits, 4);
    }

    #[test]
    fn open_window_keeps_frames_pinned_until_the_barrier() {
        let pool = durable_pool(8);
        pool.set_group_commit_window(8).unwrap();
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        pool.commit_to_wal(1, b"m").unwrap();
        // Image appended but not synced: log-before-flush forbids flushing.
        let before = pool.io_snapshot();
        pool.flush_all().unwrap();
        let d = pool.io_snapshot().since(&before);
        assert_eq!((d.writes, d.fsyncs), (0, 0), "unsynced image must pin the frame");
        assert_eq!(pool.pending_commits(), 1);
        pool.sync_log().unwrap();
        pool.flush_all().unwrap();
        let d = pool.io_snapshot().since(&before);
        assert_eq!((d.writes, d.fsyncs), (1, 1), "barrier promotes, then the frame flushes");
    }

    #[test]
    fn rewrite_inside_open_window_is_reimaged_by_next_commit() {
        let pool = durable_pool(8);
        pool.set_group_commit_window(8).unwrap();
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        pool.commit_to_wal(1, b"m1").unwrap();
        // Modify the appended frame before the barrier: its first image is
        // stale, the second commit must append a fresh one.
        pool.write(id, |b| b[0] = 2).unwrap();
        pool.commit_to_wal(2, b"m2").unwrap();
        pool.sync_log().unwrap();
        let log = pool.lock().disk.log_read_all().unwrap();
        let images = scan_log(&log)
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::PageImage { .. }))
            .count();
        assert_eq!(images, 2, "one image per content version");
        // After the barrier the frame is flushable with its final content.
        pool.flush_all().unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        pool.lock().disk.read_block(id, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn shrinking_the_window_forces_the_barrier() {
        let pool = durable_pool(8);
        pool.set_group_commit_window(16).unwrap();
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        pool.commit_to_wal(1, b"m").unwrap();
        assert_eq!(pool.pending_commits(), 1);
        pool.set_group_commit_window(1).unwrap();
        assert_eq!(pool.pending_commits(), 0, "shrink below pending syncs immediately");
    }

    #[test]
    fn checkpoint_forces_an_open_window() {
        let pool = durable_pool(8);
        pool.set_group_commit_window(64).unwrap();
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 7).unwrap();
        pool.commit_to_wal(1, b"m").unwrap();
        pool.checkpoint(b"super").unwrap();
        assert_eq!(pool.pending_commits(), 0);
        let mut inner = pool.lock();
        assert!(inner.disk.log_read_all().unwrap().is_empty());
        let mut buf = [0u8; BLOCK_SIZE];
        inner.disk.read_block(id, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn wal_counters_track_bytes_and_fsyncs() {
        let pool = durable_pool(4);
        let id = pool.allocate().unwrap();
        pool.write(id, |b| b[0] = 1).unwrap();
        let before = pool.io_snapshot();
        pool.commit_to_wal(1, b"m").unwrap();
        let d = pool.io_snapshot().since(&before);
        assert_eq!(d.wal_records, 2, "one image + one commit");
        assert!(d.wal_bytes > BLOCK_SIZE as u64);
        assert_eq!(d.fsyncs, 1);
    }
}
