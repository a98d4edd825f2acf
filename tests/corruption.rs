//! A damaged byte is a typed error, never a panic, a hang or a poisoned
//! engine.
//!
//! * Decoder totality: every stored and wire format (B-tree nodes, hash
//!   chain blocks, heap pages and their write paths, engine and
//!   application metadata, optimizer statistics, entity and auxiliary
//!   records, protocol requests and responses) is decoded from a valid
//!   encoding truncated at every length and under seeded random byte
//!   flips. Each case ends in `Ok` or a typed `Err`.
//! * A B-tree whose first key length reads `0xFFFF` is `Corrupt` naming
//!   its block, and the same buffer pool keeps serving.
//! * Engine level: a corrupt secondary-index node on the medium fails the
//!   one retrieve that probes it; the session and a second session keep
//!   working, so no lock leaked and no mutex was poisoned.

use sim::crates::catalog::{AttrStats, ClassStats, FanOutStats, Histogram, StatsStore};
use sim::crates::ddl::{university_catalog, UNIVERSITY_DDL};
use sim::crates::luc::records::{AuxRecord, EntityRecord};
use sim::crates::luc::value_codec::FieldValue;
use sim::crates::luc::{AppMeta, PhysicalLayout};
use sim::crates::query::{QueryOutput, StructRecord};
use sim::crates::server::protocol::{Request, Response};
use sim::crates::storage::btree::BTree;
use sim::crates::storage::hash::HashIndex;
use sim::crates::storage::meta::{BTreeMeta, HashMeta, HeapMeta};
use sim::crates::storage::pool::BufferPool;
use sim::crates::storage::{
    page, BlockId, EngineMeta, MemDisk, RecordId, Storage, StorageError, BLOCK_SIZE,
};
use sim::crates::types::{Date, Decimal, Surrogate, Value};
use sim::Database;
use sim_testkit::{cases, Rng};
use std::sync::{Arc, Mutex};

type Page = [u8; BLOCK_SIZE];

/// XOR 1..=8 random bytes, drawn from `hot` (the positions that carry the
/// format's structure), with random nonzero masks.
fn flip(rng: &mut Rng, bytes: &mut [u8], hot: &[usize]) {
    for _ in 0..rng.range(1, 9) {
        let at = *rng.pick(hot);
        bytes[at] ^= rng.range(1, 256) as u8;
    }
}

/// Every prefix of `bytes` must fail to decode, and every seeded damage
/// must decode to `Ok` or `Err` without panicking.
fn byte_format_is_total<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, String>) {
    assert!(decode(bytes).is_ok(), "the valid encoding decodes");
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
    }
    let hot: Vec<usize> = (0..bytes.len()).collect();
    cases(200, |rng| {
        let mut damaged = bytes.to_vec();
        flip(rng, &mut damaged, &hot);
        let _ = decode(&damaged);
    });
}

/// The positions worth damaging in a page: the first 64 bytes (headers and
/// slot tables) and every byte the valid page sets.
fn hot_positions(page: &Page) -> Vec<usize> {
    (0..BLOCK_SIZE).filter(|&i| i < 64 || page[i] != 0).collect()
}

/// The page's extent: one past its last nonzero byte.
fn extent(page: &Page) -> usize {
    page.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

/// Each damaged variant of the page: zeroed from every length below its
/// extent on ("truncated"), then 300 seeded flips.
fn damaged_pages(valid: &Page, mut check: impl FnMut(&Page)) {
    for len in 0..extent(valid) {
        let mut p = *valid;
        p[len..].fill(0);
        check(&p);
    }
    let hot = hot_positions(valid);
    cases(300, |rng| {
        let mut p = *valid;
        flip(rng, &mut p, &hot);
        check(&p);
    });
}

fn snapshot(pool: &BufferPool, id: BlockId) -> Page {
    pool.read(id, |p| *p).expect("read block")
}

/// Builds a B-tree, installs a damaged image of one node and drives the
/// read and write paths over it; the pool must still serve afterwards.
fn btree_case(entries: &[(Vec<u8>, Vec<u8>)], pick_internal: bool) {
    let build = || {
        let pool = BufferPool::new(64);
        let mut tree = BTree::create(&pool, false).expect("create");
        for (k, v) in entries {
            tree.insert(&pool, k, v).expect("insert");
        }
        (pool, tree)
    };
    let (pool, tree) = build();
    assert_eq!(tree.height() > 1, pick_internal);
    // Block 0 is the first leaf; an internal node carries tag 1.
    let target = (0..pool.block_count() as u32)
        .map(BlockId)
        .find(|&b| pick_internal == (snapshot(&pool, b)[0] == 1))
        .expect("target node");
    let valid = snapshot(&pool, target);
    let probe = &entries[entries.len() / 2].0;
    damaged_pages(&valid, |damaged| {
        let (pool, mut tree) = build();
        pool.write(target, |p| *p = *damaged).expect("install damage");
        let _ = tree.lookup_first(&pool, probe);
        let _ = tree.scan_all(&pool);
        let _ = tree.scan_range(&pool, Some(b"a"), Some(b"m"));
        let _ = tree.insert(&pool, b"new-key", &[9; 40]);
        let _ = tree.delete(&pool, probe, &entries[entries.len() / 2].1);
        pool.read(BlockId(0), |_| ()).expect("the pool keeps serving");
    });
}

#[test]
fn btree_leaf_and_internal_nodes_decode_totally() {
    let small: Vec<_> = (0..8u8).map(|i| (format!("key-{i}").into_bytes(), vec![i; 8])).collect();
    btree_case(&small, false);
    let big: Vec<_> =
        (0..20u8).map(|i| (format!("key-{i:02}").into_bytes(), vec![i; 400])).collect();
    btree_case(&big, true);
}

#[test]
fn hash_chain_blocks_decode_totally() {
    let entries: Vec<_> = (0..12u8).map(|i| (vec![b'k', i], vec![i; 20])).collect();
    let build = || {
        let pool = BufferPool::new(16);
        let mut index = HashIndex::create(&pool, 1, false).expect("create");
        for (k, v) in &entries {
            index.insert(&pool, k, v).expect("insert");
        }
        (pool, index)
    };
    let (pool, _) = build();
    let valid = snapshot(&pool, BlockId(0));
    damaged_pages(&valid, |damaged| {
        let (pool, mut index) = build();
        pool.write(BlockId(0), |p| *p = *damaged).expect("install damage");
        let _ = index.get(&pool, &entries[3].0);
        let _ = index.scan_all(&pool);
        let _ = index.insert(&pool, b"new", b"value");
        let _ = index.delete(&pool, &entries[5].0, &entries[5].1);
        pool.read(BlockId(0), |_| ()).expect("the pool keeps serving");
    });
}

#[test]
fn heap_pages_decode_totally_on_read_and_write_paths() {
    let mut valid = [0u8; BLOCK_SIZE];
    page::init(&mut valid);
    let slots: Vec<u16> = (0..6u8)
        .map(|i| page::insert(&mut valid, &vec![i + 1; 40 + 90 * usize::from(i)]))
        .map(|s| s.expect("valid page").expect("room"))
        .collect();
    page::delete(&mut valid, slots[2]).expect("valid page");
    damaged_pages(&valid, |damaged| {
        let _ = page::slot_count(damaged);
        let _ = page::live_records(damaged);
        for slot in 0..8 {
            let _ = page::get(damaged, slot);
            let _ = page::update(&mut damaged.clone(), slot, &[7; 10]);
            let _ = page::update(&mut damaged.clone(), slot, &[7; 900]);
            let _ = page::delete(&mut damaged.clone(), slot);
            let _ = page::insert_at(&mut damaged.clone(), slot, &[5; 300]);
        }
        let _ = page::insert(&mut damaged.clone(), &[3; 2000]);
        let _ = page::compact(&mut damaged.clone());
    });
}

/// The exact failure the bounded reader exists for: `0xFFFF` written into
/// the first key length (bytes 7..9) of a one-leaf tree.
#[test]
fn oversized_key_length_is_corrupt_naming_the_block_and_the_pool_keeps_serving() {
    let pool = BufferPool::new(16);
    let mut tree = BTree::create(&pool, true).expect("create");
    tree.insert(&pool, b"key", b"value").expect("insert");
    pool.write(BlockId(0), |p| p[7..9].copy_from_slice(&[0xFF, 0xFF])).expect("damage");
    match tree.lookup_first(&pool, b"key") {
        Err(StorageError::Corrupt(msg)) => assert!(msg.contains("block 0"), "{msg}"),
        other => panic!("expected Corrupt naming block 0, got {other:?}"),
    }
    let other = BTree::create(&pool, true).expect("the pool keeps serving");
    assert_eq!(other.lookup_first(&pool, b"key"), Ok(None));
}

#[test]
fn metadata_and_statistics_codecs_are_total() {
    let mut stats = StatsStore::default();
    stats.classes.insert(1, ClassStats { rows: 10, blocks: 2, mods_since_analyze: 3 });
    let histogram = Histogram::build(
        vec![Value::Str("a".into()), Value::Str("b".into()), Value::Str("zz".into())],
        4,
    );
    stats.attrs.insert(7, AttrStats { rows: 10, non_null: 9, distinct: 3, histogram });
    stats.fan_out.insert(9, FanOutStats { owners: 10, links: 25 });
    let stats_bytes = stats.encode();
    byte_format_is_total(&stats_bytes, StatsStore::decode);

    let app = AppMeta {
        schema: UNIVERSITY_DDL.as_bytes()[..64].to_vec(),
        next_surrogate: 42,
        secondary: vec![(3, 17), (9, 21)],
        hash: vec![(4, 0)],
        stats: stats_bytes,
    };
    let app_bytes = app.encode();
    byte_format_is_total(&app_bytes, |b| AppMeta::decode(b).map_err(|e| e.to_string()));

    let engine = EngineMeta {
        block_count: 42,
        next_txn: 7,
        files: vec![HeapMeta { blocks: vec![BlockId(3), BlockId(9)], record_count: 11 }],
        btrees: vec![BTreeMeta { root: BlockId(1), unique: true, entry_count: 5, height: 2 }],
        hashes: vec![HashMeta { buckets: vec![BlockId(4)], unique: false, entry_count: 9 }],
        app_meta: app_bytes,
    };
    byte_format_is_total(&engine.encode(), |b| EngineMeta::decode(b).map_err(|e| e.to_string()));
}

fn sample_fields() -> Vec<FieldValue> {
    let rid = RecordId { block: BlockId(12), slot: 3 };
    vec![
        FieldValue::Scalar(Value::Str("Ada".into())),
        FieldValue::Scalar(Value::Int(-3)),
        FieldValue::Scalar(Value::Decimal(Decimal::from_parts(12345, 2).expect("decimal"))),
        FieldValue::Scalar(Value::Date(Date::from_ymd(1988, 6, 1).expect("date"))),
        FieldValue::Array(vec![Value::Symbol(2), Value::Null, Value::Float(2.5)]),
        FieldValue::Hints(vec![(Surrogate::from_raw(7), rid)]),
    ]
}

#[test]
fn entity_and_aux_records_are_total() {
    let catalog = university_catalog();
    let layout = PhysicalLayout::build(&catalog).expect("layout");
    let family = layout.families.iter().max_by_key(|f| f.classes.len()).expect("family");
    let mut record = EntityRecord::new(Surrogate::from_raw(5), u64::MAX, family, &layout);
    let fields = sample_fields();
    for (_, group) in &mut record.groups {
        for (slot, field) in group.iter_mut().enumerate() {
            *field = fields[slot % fields.len()].clone();
        }
    }
    let bytes = record.encode().expect("encode");
    byte_format_is_total(&bytes, |b| {
        EntityRecord::decode(b, family, &layout).map_err(|e| e.to_string())
    });

    let aux = AuxRecord { surrogate: Surrogate::from_raw(5), fields };
    byte_format_is_total(&aux.encode().expect("encode"), |b| {
        AuxRecord::decode(b).map_err(|e| e.to_string())
    });
}

#[test]
fn protocol_messages_are_total() {
    let requests = [
        Request::Query("From student Retrieve name.".into()),
        Request::ExecPrepared(42),
        Request::RollbackTo(7),
        Request::Close,
    ];
    for req in requests {
        byte_format_is_total(&req.encode(), |b| Request::decode(b).map_err(|e| e.to_string()));
    }
    let responses = [
        Response::Ack(12),
        Response::Err { code: Some("SIM-C001".into()), retryable: true, message: "m".into() },
        Response::Rows {
            plan_cached: true,
            snapshot: false,
            output: QueryOutput::Table {
                columns: vec!["name".into(), "n".into()],
                rows: vec![
                    vec![Value::Str("Ada".into()), Value::Int(-3)],
                    vec![Value::Decimal(Decimal::from_parts(-125, 2).expect("d")), Value::Null],
                    vec![Value::Date(Date::from_day_number(8036)), Value::Symbol(3)],
                    vec![Value::Entity(Surrogate::from_raw(99)), Value::Bool(true)],
                ],
            },
        },
        Response::Rows {
            plan_cached: false,
            snapshot: true,
            output: QueryOutput::Structure {
                formats: vec![vec!["name".into()], vec!["title".into(), "credits".into()]],
                records: vec![StructRecord {
                    format: 1,
                    level: 2,
                    values: vec![Value::Str("Algebra".into()), Value::Float(4.5)],
                }],
            },
        },
    ];
    for resp in responses {
        byte_format_is_total(&resp.encode(), |b| Response::decode(b).map_err(|e| e.to_string()));
    }
}

/// A medium two engine instances can open in turn, like a file on disk.
#[derive(Debug, Clone)]
struct SharedDisk(Arc<Mutex<MemDisk>>);

impl SharedDisk {
    fn disk(&self) -> std::sync::MutexGuard<'_, MemDisk> {
        self.0.lock().expect("shared disk")
    }
}

impl Storage for SharedDisk {
    fn read_block(&mut self, id: BlockId, buf: &mut Page) -> Result<(), StorageError> {
        self.disk().read_block(id, buf)
    }
    fn write_block(&mut self, id: BlockId, buf: &Page) -> Result<(), StorageError> {
        self.disk().write_block(id, buf)
    }
    fn allocate_block(&mut self) -> Result<BlockId, StorageError> {
        self.disk().allocate_block()
    }
    fn block_count(&self) -> usize {
        self.disk().block_count()
    }
    fn set_block_count(&mut self, count: usize) -> Result<(), StorageError> {
        self.disk().set_block_count(count)
    }
    fn sync_blocks(&mut self) -> Result<(), StorageError> {
        self.disk().sync_blocks()
    }
    fn log_append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.disk().log_append(bytes)
    }
    fn log_sync(&mut self) -> Result<(), StorageError> {
        self.disk().log_sync()
    }
    fn log_read_all(&mut self) -> Result<Vec<u8>, StorageError> {
        self.disk().log_read_all()
    }
    fn log_reset(&mut self) -> Result<(), StorageError> {
        self.disk().log_reset()
    }
    fn read_super(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        self.disk().read_super()
    }
    fn write_super(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.disk().write_super(bytes)
    }
}

#[test]
fn corrupt_index_node_fails_one_retrieve_and_both_sessions_keep_serving() {
    let medium = SharedDisk(Arc::new(Mutex::new(MemDisk::new())));
    let mut db = Database::create_on(UNIVERSITY_DDL, Box::new(medium.clone()), 64).expect("db");
    db.set_enforce_verifies(false);
    let mut script = String::from("Insert department(dept-nbr := 100, name := \"Physics\").\n");
    for i in 1..=20 {
        script.push_str(&format!(
            "Insert course(course-no := {i}, title := \"Title-{i}\", credits := 3).\n"
        ));
    }
    db.run(&script).expect("populate");
    db.create_index("course", "title").expect("secondary index");
    db.checkpoint().expect("checkpoint");
    drop(db);

    // Find the title index's root on the medium and damage its first key
    // length. Twenty short titles fit one leaf, so the root is that leaf.
    let root = {
        let mut disk = medium.clone();
        let engine = EngineMeta::decode(&disk.read_super().expect("super").expect("meta"))
            .expect("engine meta");
        let app = AppMeta::decode(&engine.app_meta).expect("app meta");
        let &(_, tree) = app.secondary.first().expect("one secondary index");
        let root = engine.btrees[tree as usize].root;
        let mut block = [0u8; BLOCK_SIZE];
        disk.read_block(root, &mut block).expect("read root");
        assert_eq!(block[0], 0, "the title index is one leaf");
        block[7..9].copy_from_slice(&[0xFF, 0xFF]);
        disk.write_block(root, &block).expect("write damage");
        root
    };

    let cdb = Database::open_on(Box::new(medium), 64).expect("reopen").into_concurrent();
    let mut a = cdb.session();
    let mut b = cdb.session();
    match a.query("From course Retrieve course-no Where title = \"Title-7\".") {
        Err(e) => {
            assert!(!e.is_retryable(), "corruption is not a lock race: {e}");
            let text = e.to_string();
            assert!(text.contains(&format!("block {}", root.0)), "names the block: {text}");
        }
        Ok(out) => panic!("a retrieve through the damaged index succeeded: {out:?}"),
    }
    let depts = a.query("From department Retrieve name.").expect("untouched class");
    assert!(format!("{depts:?}").contains("Physics"));

    b.begin().expect("begin");
    b.run("Modify department(name := \"Optics\") Where dept-nbr = 100.").expect("modify");
    b.commit().expect("commit");
    let depts = a.query("From department Retrieve name.").expect("after the commit");
    assert!(format!("{depts:?}").contains("Optics"));
    let course = b.query("From course Retrieve title Where course-no = 3.").expect("unique index");
    assert!(format!("{course:?}").contains("Title-3"));
}
