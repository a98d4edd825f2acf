//! E7 — §3.3/§5.1: integrity enforcement by trigger detection + query
//! augmentation.
//!
//! "Integrity constraints are handled by a trigger detection / query
//! enhancement mechanism that works efficiently for a subset of
//! constraints."
//!
//! Three enforcement regimes on the same update stream (salary raises that
//! keep V2 satisfied):
//!
//! * **off** — no checking (the floor);
//! * **augmented** — the engine's mechanism: only entities reachable from
//!   the write set are re-checked (cost ~O(affected));
//! * **full** — re-evaluate every entity of the constraint's class per
//!   statement (cost O(class)), the naive strawman the paper's mechanism
//!   avoids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{populated_university, UniversityScale};
use std::hint::black_box;

fn bench_integrity(c: &mut Criterion) {
    let scale = UniversityScale {
        students: 200,
        instructors: 200,
        courses: 40,
        departments: 4,
        enrollments_per_student: 2,
    };
    let update = |k: usize| {
        format!(
            "Modify instructor (bonus := 100.00) Where employee-nbr = {}.",
            1001 + (k % scale.instructors)
        )
    };

    let mut group = c.benchmark_group("e7_integrity");
    group.sample_size(20);

    // Regime: off.
    {
        let mut db = populated_university(scale, 7);
        db.set_enforce_verifies(false);
        let mut k = 0usize;
        group.bench_with_input(BenchmarkId::new("update", "off"), &(), |b, _| {
            b.iter(|| {
                k += 1;
                black_box(db.run_one(&update(k)).unwrap())
            })
        });
    }

    // Regime: augmented (the paper's mechanism; the engine default).
    {
        let mut db = populated_university(scale, 7);
        db.set_enforce_verifies(true);
        let mut k = 0usize;
        group.bench_with_input(BenchmarkId::new("update", "augmented"), &(), |b, _| {
            b.iter(|| {
                k += 1;
                black_box(db.run_one(&update(k)).unwrap())
            })
        });
    }

    // Regime: full re-check (strawman): run the update with enforcement
    // off, then evaluate every VERIFY against its whole class.
    {
        let mut db = populated_university(scale, 7);
        db.set_enforce_verifies(false);
        // Fair strawman: fully re-check the constraint the update triggers
        // (V2); V1 is not triggered by bonus writes under either regime.
        let compiled: Vec<_> = sim_query::integrity::compile_all(db.catalog())
            .unwrap()
            .into_iter()
            .filter(|cv| cv.name == "v2")
            .collect();
        let mut k = 0usize;
        group.bench_with_input(BenchmarkId::new("update", "full_recheck"), &(), |b, _| {
            b.iter(|| {
                k += 1;
                db.run_one(&update(k)).unwrap();
                for cv in &compiled {
                    let plan = sim_query::optimizer::plan(db.mapper(), &cv.bound).unwrap();
                    assert!(cv.check(db.mapper(), &cv.bound, &plan, None).unwrap().is_none());
                }
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
    name = e7;
    config = fast_config();
    targets = bench_integrity
}
criterion_main!(e7);
