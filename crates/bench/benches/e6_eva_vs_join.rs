//! E6 — §4.1: schema-defined EVAs vs value-based joins.
//!
//! "We strongly recommend the use of EVAs over value-based joins since they
//! represent a static, schema-defined, efficient and natural way of
//! establishing relationships."
//!
//! The same logical question — every student with their advisor's name —
//! asked three ways over the same data:
//!
//! 1. EVA traversal (`name of advisor` — schema-defined relationship);
//! 2. a SIM multi-perspective value-based join
//!    (`From student, instructor … Where employee-nbr-of of student =
//!    employee-nbr of instructor` — emulated via an attribute copy);
//! 3. the relational baseline's join over the fragmented schema.
//!
//! Cardinality sweep shows the shapes: EVA traversal scales with the
//! result, the naive value join with the cross product. The shapes in rows
//! examined are held by `tests/paper_claims.rs`; this bench times them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_bench::workloads::{
    populated_university, relational_advisor_names, relational_university, UniversityScale,
};
use std::hint::black_box;
use std::time::Instant;

fn bench_eva_vs_join(c: &mut Criterion) {
    eprintln!("[E6] students with advisor names — same data, three formulations:");
    eprintln!(
        "[E6] {:>8} {:>14} {:>18} {:>16}",
        "students", "eva (ms)", "value-join (ms)", "relational (ms)"
    );

    let mut group = c.benchmark_group("e6_eva_vs_join");
    group.sample_size(10);
    for n in [50usize, 150, 400] {
        let scale = UniversityScale::small(n);
        let db = populated_university(scale, 42);
        let rel = relational_university(scale, 42);

        let eva_q = "From student Retrieve name, name of advisor.";
        // Value-based join: relate the perspectives by comparing the
        // advisor entity to the instructor perspective (a dynamic
        // relationship established in the WHERE clause, §4.1).
        let join_q = "From student, instructor
                      Retrieve name of student, name of instructor
                      Where advisor of student = instructor.";

        let r1 = db.query(eva_q).unwrap();
        let r2 = db.query(join_q).unwrap();
        assert_eq!(r1.rows().len(), n);
        assert_eq!(r2.rows().len(), n);
        assert_eq!(relational_advisor_names(&rel), n);

        let time_ms = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            let mut iters = 0u32;
            while start.elapsed().as_millis() < 80 {
                f();
                iters += 1;
            }
            start.elapsed().as_secs_f64() * 1000.0 / iters as f64
        };
        let eva_ms = time_ms(&mut || {
            black_box(db.query(eva_q).unwrap());
        });
        let join_ms = time_ms(&mut || {
            black_box(db.query(join_q).unwrap());
        });
        let rel_ms = time_ms(&mut || {
            black_box(relational_advisor_names(&rel));
        });
        eprintln!("[E6] {n:>8} {eva_ms:>14.3} {join_ms:>18.3} {rel_ms:>16.3}");

        group.bench_with_input(BenchmarkId::new("eva_traversal", n), &(), |b, _| {
            b.iter(|| black_box(db.query(eva_q).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("value_join_sim", n), &(), |b, _| {
            b.iter(|| black_box(db.query(join_q).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("relational_join", n), &(), |b, _| {
            b.iter(|| black_box(relational_advisor_names(&rel)))
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
    name = e6;
    config = fast_config();
    targets = bench_eva_vs_join
}
criterion_main!(e6);
