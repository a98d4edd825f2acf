//! E4 — §5.1's first-instance cost claim.
//!
//! "For example, the I/O cost of accessing the first instance of a
//! relationship will be 0 if the relationship is implemented by clustering
//! and 1 block access if it is implemented by absolute addresses
//! (pointers)."
//!
//! The counted claim (clustered = 0, pointer = 1 block read, each equal to
//! the optimizer's `first_instance_cost`) is held by
//! `tests/paper_claims.rs`; this bench times the same traversal hot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{node_parents, node_tree_db};
use std::hint::black_box;

fn bench_cost_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_first_instance_latency");
    for mapping in ["clustered", "pointer", "structure"] {
        let db = node_tree_db(mapping, 64, 3);
        sim_bench::metrics_dump::dump_metrics(&db, &format!("e4_cost_model_{mapping}"));
        let (children, parents) = node_parents(&db);
        let mapper = db.mapper();
        group.bench_with_input(BenchmarkId::new("hot", mapping), &(), |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let p = parents[i % parents.len()];
                i += 1;
                black_box(mapper.first_instance(p, children).unwrap())
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
    name = e4;
    config = fast_config();
    targets = bench_cost_model
}
criterion_main!(e4);
