//! The Mapper: construction, entity lifecycle and statistics.
//!
//! Attribute read/write operations and the relationship-link machinery live
//! in [`crate::ops`] (a second `impl Mapper` block).

use crate::error::MapperError;
use crate::layout::{FamilyLayout, PairMapping, PhysicalLayout};
use crate::persist::AppMeta;
use crate::records::{AuxRecord, EntityRecord};
use crate::stats::MapperStats;
use sim_catalog::statistics::StatsStore;
use sim_catalog::{AttrId, Catalog, ClassId};
use sim_obs::Registry;
use sim_storage::{BTreeId, FileId, RecordId, StorageEngine, Txn};
use sim_types::{ByteReader, Surrogate, SurrogateAllocator, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A value supplied to an attribute assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// One value (single-valued attributes; `Value::Entity` for EVAs).
    Scalar(Value),
    /// A full multi-value assignment.
    Multi(Vec<Value>),
}

/// A value read back from an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrOut {
    /// Single-valued result (null when unset).
    Single(Value),
    /// Multi-valued result.
    Multi(Vec<Value>),
}

impl AttrOut {
    /// Flatten to a value list (a single null becomes an empty list).
    pub fn into_values(self) -> Vec<Value> {
        match self {
            AttrOut::Single(Value::Null) => Vec::new(),
            AttrOut::Single(v) => vec![v],
            AttrOut::Multi(vs) => vs,
        }
    }
}

/// Per-family storage handles.
#[derive(Debug)]
pub(crate) struct FamilyStorage {
    /// Main (tree) storage unit.
    pub tree_file: FileId,
    /// Unique index: surrogate (8 B BE) → rid (8 B) ‖ roles (8 B LE).
    pub surr_index: BTreeId,
    /// Per multiply-derived class: its unit + surrogate index.
    pub aux: Vec<(FileId, BTreeId)>,
}

/// An entity loaded from storage, with enough context to write it back.
#[derive(Debug, Clone)]
pub(crate) struct Loaded {
    pub family: usize,
    pub rid: RecordId,
    pub roles_at_load: u64,
    pub rec: EntityRecord,
}

/// The LUC Mapper (see crate docs).
pub struct Mapper {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) layout: PhysicalLayout,
    pub(crate) engine: StorageEngine,
    pub(crate) families: Vec<FamilyStorage>,
    /// Unbounded MV DVA units: owner surrogate (BE) → encoded value.
    pub(crate) mv_dva_trees: HashMap<AttrId, BTreeId>,
    /// The Common EVA Structure: key `rel-id (4 B BE) ‖ surr (8 B BE)`.
    pub(crate) common_fwd: BTreeId,
    pub(crate) common_rev: BTreeId,
    /// Dedicated structures by structure-plan index: key `surr (8 B BE)`.
    pub(crate) dedicated: HashMap<usize, (BTreeId, BTreeId)>,
    /// Indexes on UNIQUE DVAs.
    pub(crate) unique_idx: HashMap<AttrId, BTreeId>,
    /// User-created secondary indexes.
    pub(crate) secondary_idx: HashMap<AttrId, BTreeId>,
    /// User-created hash indexes ("random keys based on hashing", §5.2).
    pub(crate) hash_idx: HashMap<AttrId, sim_storage::HashIndexId>,
    /// One global allocator: surrogates are unique across the whole
    /// database, not just per hierarchy, so `Value::Entity` comparison and
    /// foreign-key self-link detection are unambiguous.
    pub(crate) allocator: SurrogateAllocator,
    /// Optimizer statistics; may drift across aborts (see `recount`).
    pub(crate) class_counts: HashMap<ClassId, usize>,
    /// The schema source (opaque bytes) persisted with every durable commit
    /// so a reopen can rebuild the catalog.
    pub(crate) schema_blob: Vec<u8>,
    /// Operation counters (`luc.*` in the metrics registry).
    pub(crate) stats: MapperStats,
    /// Monotone physical-DDL counter: bumped when a secondary or hash
    /// index is created, so cached plans built before the index existed
    /// are invalidated (see [`Mapper::plan_generation`]).
    pub(crate) ddl_generation: u64,
    /// Optimizer statistics from the last `analyze` (empty before the
    /// first). Persisted inside [`AppMeta`] with every durable commit.
    pub(crate) optimizer_stats: StatsStore,
    /// Monotone analyze counter: bumped by [`Mapper::analyze`] so cached
    /// plans chosen under old statistics are invalidated (see
    /// [`Mapper::plan_generation`]).
    pub(crate) stats_generation: u64,
}

pub(crate) fn surr_key(s: Surrogate) -> [u8; 8] {
    s.raw().to_be_bytes()
}

pub(crate) fn decode_surr_key(bytes: &[u8]) -> Result<Surrogate, MapperError> {
    let mut r = ByteReader::new(bytes);
    let surr = Surrogate::from_raw(u64::from_be_bytes(r.array()?));
    r.finish()?;
    Ok(surr)
}

pub(crate) fn index_value(rid: RecordId, roles: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&rid.to_bytes());
    v.extend_from_slice(&roles.to_le_bytes());
    v
}

/// Decode a surrogate-index value `(rid, roles)`. A damaged entry is a
/// typed error: skipping it would drop its entity from every class scan.
pub(crate) fn decode_index_value(bytes: &[u8]) -> Result<(RecordId, u64), MapperError> {
    let mut r = ByteReader::new(bytes);
    let rid = RecordId::from_bytes(r.take(8)?)?;
    let roles = r.u64()?;
    r.finish()?;
    Ok((rid, roles))
}

impl Mapper {
    /// Plan the physical layout for `catalog` and create all storage
    /// structures. `pool_capacity` sizes the buffer pool (frames of 4 KiB).
    pub fn new(catalog: Arc<Catalog>, pool_capacity: usize) -> Result<Mapper, MapperError> {
        Mapper::with_registry(catalog, pool_capacity, &Arc::new(Registry::new()))
    }

    /// Like [`Mapper::new`], publishing metrics into `registry` (under the
    /// `luc.*` and `storage.*` names).
    pub fn with_registry(
        catalog: Arc<Catalog>,
        pool_capacity: usize,
        registry: &Arc<Registry>,
    ) -> Result<Mapper, MapperError> {
        let engine = StorageEngine::with_registry(pool_capacity, registry);
        Mapper::on_engine(catalog, engine, registry)
    }

    /// Build a mapper over a caller-supplied engine (volatile or durable),
    /// creating every catalog-derived storage structure. The engine must be
    /// empty — use [`Mapper::reopen`] for one holding recovered data.
    pub fn on_engine(
        catalog: Arc<Catalog>,
        mut engine: StorageEngine,
        registry: &Arc<Registry>,
    ) -> Result<Mapper, MapperError> {
        let layout = PhysicalLayout::build(&catalog)?;

        let mut families = Vec::with_capacity(layout.families.len());
        for fam in &layout.families {
            let tree_file = engine.create_file()?;
            let surr_index = engine.create_btree(true)?;
            let mut aux = Vec::with_capacity(fam.aux_classes.len());
            for _ in &fam.aux_classes {
                aux.push((engine.create_file()?, engine.create_btree(true)?));
            }
            families.push(FamilyStorage { tree_file, surr_index, aux });
        }

        let mut mv_dva_trees = HashMap::new();
        for attr in catalog.attributes() {
            if matches!(
                layout.placement(attr.id),
                Some(crate::layout::AttrPlacement::SeparateMvDva)
            ) {
                mv_dva_trees.insert(attr.id, engine.create_btree(false)?);
            }
        }

        let common_fwd = engine.create_btree(false)?;
        let common_rev = engine.create_btree(false)?;
        let mut dedicated = HashMap::new();
        for (idx, plan) in layout.structures.iter().enumerate() {
            if plan.mapping == PairMapping::Dedicated {
                dedicated.insert(idx, (engine.create_btree(false)?, engine.create_btree(false)?));
            }
        }

        let mut unique_idx = HashMap::new();
        for &attr in &layout.unique_attrs {
            unique_idx.insert(attr, engine.create_btree(true)?);
        }

        Ok(Mapper {
            catalog,
            layout,
            engine,
            families,
            mv_dva_trees,
            common_fwd,
            common_rev,
            dedicated,
            unique_idx,
            secondary_idx: HashMap::new(),
            hash_idx: HashMap::new(),
            allocator: SurrogateAllocator::new(),
            class_counts: HashMap::new(),
            schema_blob: Vec::new(),
            stats: MapperStats::new(registry),
            ddl_generation: 0,
            optimizer_stats: StatsStore::default(),
            stats_generation: 0,
        })
    }

    /// Rebind a mapper to a recovered engine. The base structure plan is a
    /// deterministic function of the catalog, so it is rebound by replaying
    /// the creation order symbolically; user-created indexes and the
    /// surrogate high-water mark come from the engine's [`AppMeta`].
    ///
    /// `catalog` must be the same schema the database was created with —
    /// the caller typically re-parses it from [`AppMeta::schema`].
    pub fn reopen(
        catalog: Arc<Catalog>,
        engine: StorageEngine,
        registry: &Arc<Registry>,
    ) -> Result<Mapper, MapperError> {
        let app = AppMeta::decode(engine.app_meta())?;
        let layout = PhysicalLayout::build(&catalog)?;

        // Symbolic replay of the creation order in [`Mapper::on_engine`]:
        // ids are handed out sequentially, so the same walk yields the same
        // binding.
        struct Replay {
            next_file: u32,
            next_btree: u32,
        }
        impl Replay {
            fn file(&mut self) -> FileId {
                self.next_file += 1;
                FileId(self.next_file - 1)
            }
            fn btree(&mut self) -> BTreeId {
                self.next_btree += 1;
                BTreeId(self.next_btree - 1)
            }
        }
        let mut ids = Replay { next_file: 0, next_btree: 0 };

        let mut families = Vec::with_capacity(layout.families.len());
        for fam in &layout.families {
            let tree_file = ids.file();
            let surr_index = ids.btree();
            let mut aux = Vec::with_capacity(fam.aux_classes.len());
            for _ in &fam.aux_classes {
                aux.push((ids.file(), ids.btree()));
            }
            families.push(FamilyStorage { tree_file, surr_index, aux });
        }

        let mut mv_dva_trees = HashMap::new();
        for attr in catalog.attributes() {
            if matches!(
                layout.placement(attr.id),
                Some(crate::layout::AttrPlacement::SeparateMvDva)
            ) {
                mv_dva_trees.insert(attr.id, ids.btree());
            }
        }

        let common_fwd = ids.btree();
        let common_rev = ids.btree();
        let mut dedicated = HashMap::new();
        for (idx, plan) in layout.structures.iter().enumerate() {
            if plan.mapping == PairMapping::Dedicated {
                dedicated.insert(idx, (ids.btree(), ids.btree()));
            }
        }

        let mut unique_idx = HashMap::new();
        for &attr in &layout.unique_attrs {
            unique_idx.insert(attr, ids.btree());
        }

        if (ids.next_file as usize) > engine.file_count()
            || (ids.next_btree as usize) > engine.btree_count()
        {
            return Err(MapperError::Persist(format!(
                "recovered engine has {} files / {} btrees but the schema needs {} / {} — wrong schema for this database?",
                engine.file_count(),
                engine.btree_count(),
                ids.next_file,
                ids.next_btree,
            )));
        }

        let mut secondary_idx = HashMap::new();
        for &(attr, tree) in &app.secondary {
            if (tree as usize) >= engine.btree_count() {
                return Err(MapperError::Persist(format!("secondary index {tree} out of range")));
            }
            secondary_idx.insert(AttrId(attr), BTreeId(tree));
        }
        let mut hash_idx = HashMap::new();
        for &(attr, hidx) in &app.hash {
            if (hidx as usize) >= engine.hash_count() {
                return Err(MapperError::Persist(format!("hash index {hidx} out of range")));
            }
            hash_idx.insert(AttrId(attr), sim_storage::HashIndexId(hidx));
        }

        let optimizer_stats = if app.stats.is_empty() {
            StatsStore::default()
        } else {
            StatsStore::decode(&app.stats)
                .map_err(|e| MapperError::Persist(format!("bad statistics blob: {e}")))?
        };

        let mut mapper = Mapper {
            catalog,
            layout,
            engine,
            families,
            mv_dva_trees,
            common_fwd,
            common_rev,
            dedicated,
            unique_idx,
            secondary_idx,
            hash_idx,
            allocator: SurrogateAllocator::resume_after(app.next_surrogate.saturating_sub(1)),
            class_counts: HashMap::new(),
            schema_blob: app.schema,
            stats: MapperStats::new(registry),
            ddl_generation: 0,
            optimizer_stats,
            stats_generation: 0,
        };
        mapper.recount()?;
        Ok(mapper)
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A shared handle to the schema, for closures that must outlive
    /// `&self` (e.g. the plan-mutation harness's engine hooks).
    pub fn shared_catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// A monotone token covering everything a query plan depends on: the
    /// catalog's schema generation, this mapper's physical-index DDL
    /// counter, and the statistics generation. Two equal observations
    /// prove neither the schema, the set of available indexes, nor the
    /// optimizer statistics changed in between, so a plan cached at the
    /// first observation is still valid at the second.
    pub fn plan_generation(&self) -> u64 {
        // All terms only ever increase, so the sum is monotone.
        self.catalog.generation() + self.ddl_generation + self.stats_generation
    }

    /// The optimizer statistics from the last [`Mapper::analyze`] (empty
    /// before the first, or when the database predates statistics).
    pub fn optimizer_statistics(&self) -> &StatsStore {
        &self.optimizer_stats
    }

    /// Monotone counter of completed analyzes this session (a term of
    /// [`Mapper::plan_generation`]).
    pub fn stats_generation(&self) -> u64 {
        self.stats_generation
    }

    /// The physical plan.
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    /// The storage engine (I/O statistics, cache control).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// The metrics registry this mapper publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        self.engine.registry()
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> Txn {
        self.engine.begin()
    }

    /// The schema source this mapper persists with durable commits.
    pub fn schema_blob(&self) -> &[u8] {
        &self.schema_blob
    }

    /// Set the schema source to persist (the DDL text the catalog was
    /// built from). Call once after creating a durable database.
    pub fn set_schema_blob(&mut self, blob: Vec<u8>) {
        self.schema_blob = blob;
    }

    /// The application metadata a durable commit carries.
    pub(crate) fn app_meta_bytes(&self) -> Vec<u8> {
        let mut secondary: Vec<(u32, u32)> =
            self.secondary_idx.iter().map(|(a, t)| (a.0, t.0)).collect();
        secondary.sort_unstable();
        let mut hash: Vec<(u32, u32)> = self.hash_idx.iter().map(|(a, h)| (a.0, h.0)).collect();
        hash.sort_unstable();
        let stats = if self.optimizer_stats.is_empty() {
            Vec::new()
        } else {
            self.optimizer_stats.encode()
        };
        AppMeta {
            schema: self.schema_blob.clone(),
            next_surrogate: self.allocator.peek(),
            secondary,
            hash,
            stats,
        }
        .encode()
    }

    /// Commit a transaction. On a durable engine this makes it crash-proof:
    /// the mapper's own metadata is folded into the commit record, page
    /// after-images hit the write-ahead log, and the log is fsynced before
    /// `Ok` returns.
    pub fn commit(&mut self, txn: Txn) -> Result<(), MapperError> {
        if self.engine.is_durable() {
            let blob = self.app_meta_bytes();
            self.engine.set_app_meta(blob);
        }
        self.engine.commit(txn)?;
        Ok(())
    }

    /// Checkpoint: fold the write-ahead log into the block file (no-op
    /// beyond a flush for volatile engines).
    pub fn checkpoint(&mut self) -> Result<(), MapperError> {
        if self.engine.is_durable() {
            let blob = self.app_meta_bytes();
            self.engine.set_app_meta(blob);
        }
        self.engine.checkpoint()?;
        Ok(())
    }

    /// Set the WAL group-commit window: how many commits share one fsync
    /// barrier. `1` (the default) makes every commit durable on return;
    /// larger windows amortize the fsync and may lose up to `window` whole
    /// committed transactions in a crash. [`Mapper::sync_wal`],
    /// [`Mapper::checkpoint`] and [`Mapper::close`] force the barrier.
    pub fn set_group_commit_window(&self, window: usize) -> Result<(), MapperError> {
        self.engine.set_group_commit_window(window)?;
        Ok(())
    }

    /// The current WAL group-commit window.
    pub fn group_commit_window(&self) -> usize {
        self.engine.group_commit_window()
    }

    /// Force the group-commit fsync barrier: every previously committed
    /// transaction is durable on return.
    pub fn sync_wal(&self) -> Result<(), MapperError> {
        self.engine.sync_wal()?;
        Ok(())
    }

    /// Checkpoint and consume the mapper; the database directory can be
    /// reopened later.
    pub fn close(mut self) -> Result<(), MapperError> {
        self.checkpoint()
    }

    /// Abort a transaction, undoing its effects. Class-count statistics are
    /// recomputed afterwards (insert/delete deltas are not undo-logged).
    pub fn abort(&mut self, txn: Txn) -> Result<(), MapperError> {
        self.engine.abort(txn)?;
        self.recount()?;
        Ok(())
    }

    /// Roll back to a savepoint (statement-level rollback, §3.3).
    pub fn rollback_to(&mut self, txn: &mut Txn, savepoint: usize) -> Result<(), MapperError> {
        self.engine.rollback_to(txn, savepoint)?;
        self.recount()?;
        Ok(())
    }

    // ----- family / role helpers --------------------------------------------------

    pub(crate) fn family_index(&self, class: ClassId) -> Result<usize, MapperError> {
        self.layout
            .family_of
            .get(&class)
            .copied()
            .ok_or_else(|| MapperError::NoSuchEntity(format!("class {class} has no family")))
    }

    pub(crate) fn family_layout(&self, idx: usize) -> &FamilyLayout {
        &self.layout.families[idx]
    }

    pub(crate) fn bit_of(&self, class: ClassId) -> u64 {
        1u64 << self.layout.class_phys(class).expect("planned class").bit
    }

    /// Bits for a class plus all its ancestors (the roles inserted with it,
    /// §4.8).
    pub(crate) fn bits_with_ancestors(&self, class: ClassId) -> u64 {
        let mut bits = self.bit_of(class);
        for anc in self.catalog.ancestors(class) {
            bits |= self.bit_of(anc);
        }
        bits
    }

    /// Bits for a class plus all its descendants (the roles removed with it,
    /// §4.8).
    pub(crate) fn bits_with_descendants(&self, class: ClassId) -> u64 {
        let mut bits = self.bit_of(class);
        for d in self.catalog.descendants(class) {
            bits |= self.bit_of(d);
        }
        bits
    }

    /// Locate an entity in a family: `(rid, roles)` without reading the
    /// record.
    pub(crate) fn locate(
        &self,
        family: usize,
        surr: Surrogate,
    ) -> Result<Option<(RecordId, u64)>, MapperError> {
        let idx = self.families[family].surr_index;
        self.stats.index_probes_btree.inc();
        match self.engine.btree_lookup_first(idx, &surr_key(surr))? {
            Some(v) => decode_index_value(&v).map(Some),
            None => Ok(None),
        }
    }

    /// Load an entity's main record.
    pub(crate) fn load(&self, family: usize, surr: Surrogate) -> Result<Loaded, MapperError> {
        let (rid, roles) = self
            .locate(family, surr)?
            .ok_or_else(|| MapperError::NoSuchEntity(format!("{surr}")))?;
        let bytes = self
            .engine
            .heap_get(self.families[family].tree_file, rid)?
            .ok_or_else(|| MapperError::NoSuchEntity(format!("{surr} (dangling index)")))?;
        let rec = EntityRecord::decode(&bytes, self.family_layout(family), &self.layout)?;
        self.stats.entity_reads.inc();
        self.stats.record_decodes.inc();
        Ok(Loaded { family, rid, roles_at_load: roles, rec })
    }

    /// Write an entity's record back, maintaining the surrogate index.
    pub(crate) fn store(&mut self, txn: &mut Txn, loaded: Loaded) -> Result<RecordId, MapperError> {
        let Loaded { family, rid, roles_at_load, rec } = loaded;
        let file = self.families[family].tree_file;
        let idx = self.families[family].surr_index;
        let surr = rec.surrogate;
        let roles = rec.roles;
        self.stats.record_encodes.inc();
        let new_rid = self.engine.heap_update(txn, file, rid, &rec.encode()?)?;
        if new_rid != rid || roles != roles_at_load {
            self.engine.btree_delete(
                txn,
                idx,
                &surr_key(surr),
                &index_value(rid, roles_at_load),
            )?;
            self.engine.btree_insert(txn, idx, &surr_key(surr), &index_value(new_rid, roles))?;
        }
        Ok(new_rid)
    }

    /// Load a multiply-derived class's auxiliary record.
    pub(crate) fn load_aux(
        &self,
        family: usize,
        aux: usize,
        surr: Surrogate,
    ) -> Result<(RecordId, AuxRecord), MapperError> {
        let (file, idx) = self.families[family].aux[aux];
        self.stats.index_probes_btree.inc();
        let rid_bytes = self
            .engine
            .btree_lookup_first(idx, &surr_key(surr))?
            .ok_or_else(|| MapperError::NoSuchEntity(format!("{surr} has no auxiliary record")))?;
        let rid = RecordId::from_bytes(&rid_bytes)?;
        let bytes = self
            .engine
            .heap_get(file, rid)?
            .ok_or_else(|| MapperError::NoSuchEntity(format!("{surr} (dangling aux index)")))?;
        self.stats.record_decodes.inc();
        Ok((rid, AuxRecord::decode(&bytes)?))
    }

    pub(crate) fn store_aux(
        &mut self,
        txn: &mut Txn,
        family: usize,
        aux: usize,
        rid: RecordId,
        rec: &AuxRecord,
    ) -> Result<RecordId, MapperError> {
        let (file, idx) = self.families[family].aux[aux];
        self.stats.record_encodes.inc();
        let new_rid = self.engine.heap_update(txn, file, rid, &rec.encode()?)?;
        if new_rid != rid {
            self.engine.btree_delete(txn, idx, &surr_key(rec.surrogate), &rid.to_bytes())?;
            self.engine.btree_insert(txn, idx, &surr_key(rec.surrogate), &new_rid.to_bytes())?;
        }
        Ok(new_rid)
    }

    // ----- entity lifecycle ----------------------------------------------------------

    /// Insert a new entity of `class` (creating its role and every
    /// superclass role up to the base, §4.8), then apply `assigns`.
    pub fn insert_entity(
        &mut self,
        txn: &mut Txn,
        class: ClassId,
        assigns: &[(AttrId, AttrValue)],
    ) -> Result<Surrogate, MapperError> {
        let family = self.family_index(class)?;
        let roles = self.bits_with_ancestors(class);
        let surr = self.allocator.allocate();

        // Clustered placement: if an assignment links this entity through a
        // clustered EVA, put its record in the partner's block (§5.2).
        let near = self.cluster_target(family, assigns)?;

        let rec = EntityRecord::new(surr, roles, self.family_layout(family), &self.layout);
        let file = self.families[family].tree_file;
        self.stats.record_encodes.inc();
        let bytes = rec.encode()?;
        let rid = match near {
            Some(near_rid) => self.engine.heap_insert_near(txn, file, near_rid, &bytes)?,
            None => self.engine.heap_insert(txn, file, &bytes)?,
        };
        let idx = self.families[family].surr_index;
        self.engine.btree_insert(txn, idx, &surr_key(surr), &index_value(rid, roles))?;

        self.create_aux_records(txn, family, surr, roles, 0)?;
        self.bump_counts(roles, family, 1);

        for (attr, value) in assigns {
            self.set_attr(txn, surr, *attr, value.clone())?;
        }
        self.check_required(surr, class, None)?;
        Ok(surr)
    }

    /// Extend an existing entity with a new subclass role
    /// (`INSERT <class> FROM <ancestor> WHERE …`, §4.8), then apply
    /// `assigns`. Roles between `class` and already-held ancestors are
    /// added automatically.
    pub fn extend_role(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        class: ClassId,
        assigns: &[(AttrId, AttrValue)],
    ) -> Result<(), MapperError> {
        let family = self.family_index(class)?;
        let mut loaded = self.load(family, surr)?;
        let wanted = self.bits_with_ancestors(class);
        let new_bits = wanted & !loaded.rec.roles;
        if new_bits != 0 {
            let fam_layout = self.family_layout(family).clone();
            loaded.rec.add_roles(new_bits, &fam_layout, &self.layout);
            self.store(txn, loaded)?;
            self.create_aux_records(txn, family, surr, wanted, wanted & !new_bits)?;
            self.bump_counts(new_bits, family, 1);
        }
        for (attr, value) in assigns {
            self.set_attr(txn, surr, *attr, value.clone())?;
        }
        self.check_required(surr, class, Some(new_bits))?;
        Ok(())
    }

    fn create_aux_records(
        &mut self,
        txn: &mut Txn,
        family: usize,
        surr: Surrogate,
        roles: u64,
        already: u64,
    ) -> Result<(), MapperError> {
        let aux_classes = self.family_layout(family).aux_classes.clone();
        for (aux_idx, class) in aux_classes.iter().enumerate() {
            let bit = self.bit_of(*class);
            if roles & bit != 0 && already & bit == 0 {
                let fields = self.layout.class_phys(*class).expect("planned").fields.len();
                let rec = AuxRecord {
                    surrogate: surr,
                    fields: vec![crate::value_codec::FieldValue::null(); fields],
                };
                let (file, idx) = self.families[family].aux[aux_idx];
                self.stats.record_encodes.inc();
                let rid = self.engine.heap_insert(txn, file, &rec.encode()?)?;
                self.engine.btree_insert(txn, idx, &surr_key(surr), &rid.to_bytes())?;
            }
        }
        Ok(())
    }

    /// Remove a role from an entity: the role, all its subclass roles, and
    /// every relationship instance those roles participate in (§4.8, §5.1).
    /// Removing the base-class role deletes the entity entirely. Returns
    /// the removed roles (`class` and the subclass roles the entity held),
    /// in family order.
    pub fn delete_role(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        class: ClassId,
    ) -> Result<Vec<ClassId>, MapperError> {
        let family = self.family_index(class)?;
        let loaded = self.load(family, surr)?;
        let gone = self.bits_with_descendants(class) & loaded.rec.roles;
        if gone == 0 {
            return Err(MapperError::NoSuchEntity(format!(
                "{surr} does not hold the {} role",
                self.catalog.class(class)?.name
            )));
        }

        // Collect the removed classes (in family order).
        let fam_layout = self.family_layout(family).clone();
        let removed: Vec<ClassId> =
            fam_layout.classes.iter().copied().filter(|c| gone & self.bit_of(*c) != 0).collect();

        // Detach everything owned by the removed roles.
        for &c in &removed {
            self.detach_class_data(txn, surr, c)?;
        }

        // Rewrite or delete the main record.
        let mut loaded = self.load(family, surr)?; // reload: detach may have rewritten it
        loaded.rec.remove_roles(gone, &fam_layout);
        if loaded.rec.roles == 0 {
            let file = self.families[family].tree_file;
            let idx = self.families[family].surr_index;
            self.engine.heap_delete(txn, file, loaded.rid)?;
            self.engine.btree_delete(
                txn,
                idx,
                &surr_key(surr),
                &index_value(loaded.rid, loaded.roles_at_load),
            )?;
        } else {
            self.store(txn, loaded)?;
        }

        // Remove aux records of removed multiply-derived roles.
        for (aux_idx, c) in fam_layout.aux_classes.iter().enumerate() {
            if gone & self.bit_of(*c) != 0 {
                let (file, idx) = self.families[family].aux[aux_idx];
                if let Some(rid_bytes) = self.engine.btree_lookup_first(idx, &surr_key(surr))? {
                    let rid = RecordId::from_bytes(&rid_bytes)?;
                    self.engine.heap_delete(txn, file, rid)?;
                    self.engine.btree_delete(txn, idx, &surr_key(surr), &rid_bytes)?;
                }
            }
        }

        self.bump_counts(gone, family, -1);
        Ok(removed)
    }

    fn bump_counts(&mut self, bits: u64, family: usize, delta: i64) {
        let classes = self.family_layout(family).classes.clone();
        for c in classes {
            if bits & self.bit_of(c) != 0 {
                let e = self.class_counts.entry(c).or_insert(0);
                *e = (*e as i64 + delta).max(0) as usize;
                // Staleness tracking: every row arrival/departure counts as
                // one modification against the class's analyzed snapshot.
                self.optimizer_stats.note_writes(c.0, 1);
            }
        }
    }

    // ----- queries --------------------------------------------------------------------

    /// Does the entity currently hold this class's role?
    pub fn has_role(&self, surr: Surrogate, class: ClassId) -> Result<bool, MapperError> {
        let family = self.family_index(class)?;
        Ok(match self.locate(family, surr)? {
            Some((_, roles)) => roles & self.bit_of(class) != 0,
            None => false,
        })
    }

    /// All entities of a class (including entities of its subclasses), in
    /// surrogate order — the implicit perspective ordering of §5.1.
    pub fn entities_of(&self, class: ClassId) -> Result<Vec<Surrogate>, MapperError> {
        let family = self.family_index(class)?;
        let bit = self.bit_of(class);
        let idx = self.families[family].surr_index;
        let mut out = Vec::new();
        for (key, value) in self.engine.btree_scan_all(idx)? {
            let (_, roles) = decode_index_value(&value)?;
            if roles & bit != 0 {
                out.push(decode_surr_key(&key)?);
            }
        }
        Ok(out)
    }

    /// Entity count for a class (optimizer statistic; may drift after
    /// aborts — call [`Mapper::recount`] for exact numbers).
    pub fn entity_count(&self, class: ClassId) -> usize {
        self.class_counts.get(&class).copied().unwrap_or(0)
    }

    /// Recompute class counts exactly.
    pub fn recount(&mut self) -> Result<(), MapperError> {
        self.class_counts.clear();
        for fam_idx in 0..self.families.len() {
            let idx = self.families[fam_idx].surr_index;
            let classes = self.family_layout(fam_idx).classes.clone();
            for (_, value) in self.engine.btree_scan_all(idx)? {
                let (_, roles) = decode_index_value(&value)?;
                for &c in &classes {
                    if roles & self.bit_of(c) != 0 {
                        *self.class_counts.entry(c).or_insert(0) += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Blocking-factor statistic: blocks in a class's main storage unit.
    pub fn class_block_count(&self, class: ClassId) -> Result<usize, MapperError> {
        let family = self.family_index(class)?;
        Ok(self.engine.heap_block_count(self.families[family].tree_file)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_storage::disk::BlockId;
    use sim_storage::StorageError;

    /// A damaged surrogate-index entry is a typed error on every class
    /// scan: never a silently dropped entity, never a panic.
    #[test]
    fn bad_surrogate_index_entries_are_typed_errors() {
        let catalog = Arc::new(sim_ddl::university_catalog());
        let course = catalog.class_by_name("course").expect("course").id;
        let rid = RecordId { block: BlockId(0), slot: 0 };
        let short_value = (surr_key(Surrogate::from_raw(999)).to_vec(), vec![1, 2, 3]);
        let short_key = (vec![0xAB; 3], index_value(rid, u64::MAX));
        for (key, value) in [short_value, short_key] {
            let mut mapper = Mapper::new(catalog.clone(), 64).expect("mapper");
            let idx = mapper.families[mapper.family_index(course).expect("family")].surr_index;
            let mut txn = mapper.begin();
            mapper.engine.btree_insert(&mut txn, idx, &key, &value).expect("raw insert");
            let corrupt = |r: Result<(), MapperError>| {
                matches!(r, Err(MapperError::Storage(StorageError::Corrupt(_))))
            };
            assert!(corrupt(mapper.entities_of(course).map(drop)), "key {key:?}");
            if value.len() != 16 {
                assert!(corrupt(mapper.recount()), "value {value:?}");
            }
        }
    }
}
