//! E10 — §1: the semantic formulation vs the fragmented relational one.
//!
//! "It requires that concepts of an application be fragmented to suit the
//! model, forcing the resulting schema and queries on the database to lose
//! their conceptual naturalness."
//!
//! The UNIVERSITY workload, both ways:
//!
//! * Q1 "student names with advisor names" — SIM: one EVA hop; relational:
//!   student ⋈ instructor ⋈ person (the person fragment holds the name).
//! * Q2 "student names with enrolled course titles" — SIM: one MV EVA hop;
//!   relational: student ⋈ enrollment ⋈ course plus the person fragment.
//!
//! Reported: hot wall time for each side. The cold block-read comparison
//! is held by `tests/paper_claims.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{
    populated_university, relational_advisor_names, relational_enrollments, relational_university,
    UniversityScale,
};
use sim_relational::RelationalDb;
use std::hint::black_box;

fn bench_vs_relational(c: &mut Criterion) {
    eprintln!("[E10] UNIVERSITY workload: SIM vs fragmented relational schema");
    eprintln!("[E10] {:>8} {:>6} {:>14} {:>14}", "students", "query", "sim (ms)", "rel (ms)");
    let mut group = c.benchmark_group("e10_vs_relational");
    group.sample_size(10);
    for n in [50usize, 200] {
        let scale = UniversityScale::small(n);
        let db = populated_university(scale, 42);
        let mut rel = relational_university(scale, 42);
        // Give the relational side its junction/join indexes (best case).
        let enrollment = rel.table("enrollment").unwrap();
        rel.create_index(enrollment, "student_ssn").unwrap();

        for (qname, sim_q, rel_f) in [
            (
                "q1",
                "From student Retrieve name, name of advisor.",
                relational_advisor_names as fn(&RelationalDb) -> usize,
            ),
            (
                "q2",
                "From student Retrieve name, title of courses-enrolled.",
                relational_enrollments,
            ),
        ] {
            let t0 = std::time::Instant::now();
            for _ in 0..5 {
                db.query(sim_q).unwrap();
            }
            let sim_ms = t0.elapsed().as_secs_f64() * 200.0;
            let t0 = std::time::Instant::now();
            for _ in 0..5 {
                rel_f(&rel);
            }
            let rel_ms = t0.elapsed().as_secs_f64() * 200.0;
            eprintln!("[E10] {n:>8} {qname:>6} {sim_ms:>14.3} {rel_ms:>14.3}");

            group.bench_with_input(BenchmarkId::new(format!("sim_{qname}"), n), &(), |b, _| {
                b.iter(|| black_box(db.query(sim_q).unwrap()))
            });
            group.bench_with_input(
                BenchmarkId::new(format!("relational_{qname}"), n),
                &(),
                |b, _| b.iter(|| black_box(rel_f(&rel))),
            );
        }
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
    name = e10;
    config = fast_config();
    targets = bench_vs_relational
}
criterion_main!(e10);
