//! E5 — §5.2's physical mapping options.
//!
//! (a) Variable-format hierarchy records: "if class and subclass records
//!     are mapped into one physical record, the Mapper will perform one
//!     delete instead of the two operations that may be needed otherwise."
//!     Held in counted physical writes by `tests/paper_claims.rs`.
//!
//! (b) Bounded vs unbounded MV DVAs: MAX-bounded values are embedded
//!     arrays (0 extra structures), unbounded values live in a dependent
//!     structure (extra I/O per access).
//!
//! (c) Relationship structures: dedicated structure vs pointer list for a
//!     1:many EVA — full-partner-set traversal I/O.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{node_parents, node_tree_db};
use sim_core::Database;
use std::hint::black_box;

fn mv_dva_schema(bounded: bool) -> String {
    let max = if bounded { " (max 8)" } else { "" };
    format!("Class Box ( box-id: integer unique required; tags: string[16] mv{max} );")
}

fn bench_mappings(c: &mut Criterion) {
    // ----- (b) embedded array vs dependent structure --------------------------
    let mut group = c.benchmark_group("e5b_mv_dva_access");
    for bounded in [true, false] {
        let name = if bounded { "embedded_max8" } else { "separate_unit" };
        let mut db = Database::create_with_pool(&mv_dva_schema(bounded), 512).unwrap();
        let mut script = String::new();
        for i in 0..200 {
            script.push_str(&format!("Insert box(box-id := {i}).\n"));
            for t in 0..5 {
                script.push_str(&format!(
                    "Modify box (tags := include \"tag-{t}\") Where box-id = {i}.\n"
                ));
            }
        }
        db.run(&script).unwrap();

        // Cold I/O to read one entity's values.
        let mapper = db.mapper();
        let class = mapper.catalog().class_by_name("box").unwrap().id;
        let tags = mapper.catalog().resolve_attr(class, "tags").unwrap();
        let entities = mapper.entities_of(class).unwrap();
        // §5.2's point: with the owner's record already in hand, embedded
        // arrays cost no further I/O while a dependent structure pays its
        // own block accesses. Warm the record (and the index path to it),
        // then measure the MV-DVA read.
        let box_id = mapper.catalog().resolve_attr(class, "box-id").unwrap();
        let mut reads = 0u64;
        for &e in &entities {
            db.clear_cache();
            mapper.read_attr(e, box_id).unwrap(); // owner record now resident
            let before = db.io_snapshot();
            let vals = mapper.read_attr(e, tags).unwrap().into_values();
            assert_eq!(vals.len(), 5);
            reads += db.io_snapshot().since(&before).reads;
        }
        eprintln!(
            "[E5b] {name}: avg extra block reads per MV-DVA access (record resident) = {:.2}",
            reads as f64 / entities.len() as f64
        );

        group.bench_with_input(BenchmarkId::new("hot_read", name), &(), |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let e = entities[i % entities.len()];
                i += 1;
                black_box(mapper.read_attr(e, tags).unwrap())
            })
        });
    }
    group.finish();

    // ----- (c) structure vs pointer full traversal ----------------------------
    let mut group = c.benchmark_group("e5c_traverse_all_children");
    for mapping in ["structure", "pointer", "clustered"] {
        let db = node_tree_db(mapping, 32, 8);
        let (children, parents) = node_parents(&db);
        let mapper = db.mapper();
        let class = mapper.catalog().class_by_name("node").unwrap().id;
        let mut reads = 0u64;
        for &p in &parents {
            db.clear_cache();
            mapper.read_attr(p, mapper.catalog().resolve_attr(class, "payload").unwrap()).unwrap();
            let before = db.io_snapshot();
            let partners = mapper.eva_partners(p, children).unwrap();
            assert_eq!(partners.len(), 8);
            reads += db.io_snapshot().since(&before).reads;
        }
        eprintln!(
            "[E5c] {mapping}: avg cold block reads to list 8 children = {:.2}",
            reads as f64 / parents.len() as f64
        );
        group.bench_with_input(BenchmarkId::new("hot", mapping), &(), |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let p = parents[i % parents.len()];
                i += 1;
                black_box(mapper.eva_partners(p, children).unwrap())
            })
        });
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = e5;
    config = fast_config();
    targets = bench_mappings
}
criterion_main!(e5);
