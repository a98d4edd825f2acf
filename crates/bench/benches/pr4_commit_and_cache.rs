//! Group-commit WAL and plan cache: latency companion to the counted gate
//! in `tests/smoke_gates.rs` (exact fsyncs per commit at windows 1 and 8,
//! plan-cache hits on every rerun).
//!
//! Two groups:
//!
//! - `pr4_commit`: one committed insert+delete pair per iteration on a
//!   file-backed database, at group-commit window 1 (every commit pays its
//!   own fsync) vs window 8 (up to eight commits share one barrier).
//! - `pr4_plan_cache`: a point retrieve served from the plan cache (`hit`)
//!   vs the same shape with a fresh literal every iteration (`miss`), which
//!   cycles more distinct statements than the cache holds and therefore
//!   pays parse + bind + optimize each time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{populated_university, UniversityScale};
use sim_core::Database;
use sim_ddl::UNIVERSITY_DDL;
use std::hint::black_box;

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("pr4_commit");
    for window in [1usize, 8] {
        let dir =
            std::env::temp_dir().join(format!("sim-pr4-bench-w{window}-{}", std::process::id()));
        let mut db = Database::create_at(UNIVERSITY_DDL, &dir).expect("create file-backed db");
        db.set_enforce_verifies(false);
        db.set_group_commit_window(window).expect("set window");
        let mut next = 500usize;
        group.bench_function(BenchmarkId::new("insert_delete_txns", window), |b| {
            b.iter(|| {
                // dept-nbr is range-checked to 100..999; the delete frees
                // the number for reuse on the next lap.
                next = 500 + (next - 500 + 1) % 400;
                db.run_one(&format!("Insert department(dept-nbr := {next}, name := \"B\")."))
                    .unwrap();
                db.run_one(&format!("Delete department Where dept-nbr = {next}.")).unwrap();
            });
        });
        drop(db);
        let _ = std::fs::remove_dir_all(dir);
    }
    group.finish();
}

fn bench_plan_cache(c: &mut Criterion) {
    let db = populated_university(UniversityScale::small(100), 42);
    let mut group = c.benchmark_group("pr4_plan_cache");
    // Department point queries: execution is a four-entity scan, so the
    // parse + bind + optimize cost the cache removes dominates the delta.
    group.bench_function("hit", |b| {
        b.iter(|| {
            db.query(black_box("From department Retrieve name Where dept-nbr = 102.")).unwrap()
        });
    });
    // 100 distinct literals cycled through a 64-entry LRU: every run evicts
    // before its text comes around again, so each one replans.
    let mut n = 0usize;
    group.bench_function("miss", |b| {
        b.iter(|| {
            n += 1;
            db.query(&format!("From department Retrieve name Where dept-nbr = {}.", 100 + n % 100))
                .unwrap()
        });
    });
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = pr4;
    config = fast_config();
    targets = bench_commit, bench_plan_cache
}
criterion_main!(pr4);
