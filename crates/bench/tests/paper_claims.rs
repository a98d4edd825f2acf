//! The paper's quantitative claims, held in counted units (block reads and
//! writes, rows examined, entity reads) rather than time, so a host's noise
//! cannot flip a verdict. Each test pins the value this implementation
//! measures; EXPERIMENTS.md reports the same numbers next to the paper's
//! text. The `benches/` targets keep only the timing loops.

use sim_bench::workloads::{
    node_parents, node_tree_db, populated_university, relational_advisor_names,
    relational_enrollments, relational_university, UniversityScale,
};
use sim_core::Database;

/// Total physical block reads to reach the first child of each of 64
/// parents (cold pool, the parent's record resident), and the optimizer's
/// per-access estimate.
fn first_instance_reads(mapping: &str) -> (u64, f64) {
    let db = node_tree_db(mapping, 64, 3);
    let (children, parents) = node_parents(&db);
    assert_eq!(parents.len(), 64);
    let mapper = db.mapper();
    let node = mapper.catalog().class_by_name("node").unwrap().id;
    let payload = mapper.catalog().resolve_attr(node, "payload").unwrap();
    let mut reads = 0;
    for p in parents {
        db.clear_cache();
        // §5.1 counts the I/O *beyond* the owner's record.
        mapper.read_attr(p, payload).unwrap();
        let before = db.io_snapshot();
        assert!(mapper.first_instance(p, children).unwrap().is_some());
        reads += db.io_snapshot().since(&before).reads;
    }
    (reads, sim_query::optimizer::first_instance_cost(mapper, children))
}

/// E4 — §5.1: "the I/O cost of accessing the first instance of a
/// relationship will be 0 if the relationship is implemented by clustering
/// and 1 block access if it is implemented by absolute addresses".
#[test]
fn e4_first_instance_costs_0_clustered_and_1_by_pointer() {
    for (mapping, per_access) in [("clustered", 0.0), ("pointer", 1.0)] {
        let (reads, estimate) = first_instance_reads(mapping);
        assert_eq!(reads as f64, per_access * 64.0, "{mapping}: measured block reads");
        assert_eq!(estimate, per_access, "{mapping}: optimizer estimate");
    }
    // The index-backed structure pays a B-tree descent on top: 3.97 per access.
    let (reads, estimate) = first_instance_reads("structure");
    assert_eq!((reads, estimate), (254, 4.0), "structure");
}

/// Physical block writes (flushed) to delete one student-instructor,
/// optionally also holding a teaching-assistant role.
fn delete_writes(with_ta: bool) -> u64 {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    db.run(
        r#"Insert student(name := "S", soc-sec-no := 1, student-nbr := 2001).
           Insert instructor From person Where name = "S" (employee-nbr := 1001)."#,
    )
    .unwrap();
    if with_ta {
        db.run(r#"Insert teaching-assistant From person Where name = "S" (teaching-load := 5)."#)
            .unwrap();
    }
    db.clear_cache(); // write the inserts back: count the delete's writes only
    let before = db.io_snapshot();
    db.run(r#"Delete person Where name = "S"."#).unwrap();
    db.clear_cache();
    db.io_snapshot().since(&before).writes
}

/// E5(a) — §5.2: roles mapped into one hierarchy record are deleted by
/// "one delete instead of the two operations that may be needed
/// otherwise". The multiply-derived TA role lives in its own unit, so its
/// entity's delete is a second operation: exactly two more physical
/// writes, the unit's record block and its surrogate-index leaf.
#[test]
fn e5a_separate_role_unit_costs_a_second_delete() {
    assert_eq!(delete_writes(false), 4);
    assert_eq!(delete_writes(true), 4 + 2);
}

/// Rows examined (summed over plan steps), physical block reads and EVA
/// traversals in the mapper of one retrieve run on a cold pool; also checks
/// its answer has `rows` rows.
fn examined(db: &Database, query: &str, rows: usize) -> (u64, u64, u64) {
    db.clear_cache();
    let traversals = db.metrics().counter("luc.eva_traversals");
    let a = db.explain_analyze(query).unwrap();
    assert_eq!(a.output_rows, rows, "{query}");
    let traversals = db.metrics().counter("luc.eva_traversals") - traversals;
    (a.steps.iter().map(|s| s.actuals.rows).sum(), a.io.reads, traversals)
}

/// E6 — §4.1: EVAs over value-based joins. The EVA formulation examines
/// rows in proportion to the result (2 per student) and traverses one EVA
/// per student; the two-perspective value join examines, and traverses,
/// the cross product of students and instructors. Both read the same
/// blocks: the join's extra cost is work, not I/O.
#[test]
fn e6_eva_examines_rows_linear_in_result_value_join_the_cross_product() {
    let eva = "From student Retrieve name, name of advisor.";
    let join = "From student, instructor Retrieve name of student, name of instructor
                Where advisor of student = instructor.";
    // (students, join rows examined, join EVA traversals, block reads)
    for (n, join_rows, join_traversals, blocks) in [(50, 505, 250, 3), (150, 4515, 2250, 8)] {
        let db = populated_university(UniversityScale::small(n), 42);
        let n64 = n as u64;
        assert_eq!(examined(&db, eva, n), (2 * n64, blocks, n64), "EVA at {n} students");
        let expected = (join_rows, blocks, join_traversals);
        assert_eq!(examined(&db, join, n), expected, "value join at {n} students");
    }
}

/// E7 — §3.3: trigger detection with query augmentation re-checks only
/// the entities a write can affect, so a VERIFY-guarded modify reads the
/// same few entities however large the constrained class grows: 3 for the
/// modify itself, 2 more for enforcing V2 on the one instructor it touched.
#[test]
fn e7_augmented_verify_reads_constant_entities_per_modify() {
    const MODIFIES: u64 = 20;
    for n in [100, 200] {
        let scale = UniversityScale {
            students: n,
            instructors: n,
            courses: 40,
            departments: 4,
            enrollments_per_student: 2,
        };
        let mut db = populated_university(scale, 7);
        for (enforce, per_modify) in [(false, 3), (true, 3 + 2)] {
            db.set_enforce_verifies(enforce);
            let before = db.metrics().counter("luc.entity_reads");
            for k in 0..MODIFIES {
                db.run_one(&format!(
                    "Modify instructor (bonus := 100.00) Where employee-nbr = {}.",
                    1001 + k
                ))
                .unwrap();
            }
            let reads = db.metrics().counter("luc.entity_reads") - before;
            assert_eq!(reads, per_modify * MODIFIES, "{n} instructors, enforcement {enforce}");
        }
    }
}

/// E10 — §1: the semantic formulation against the fragmented relational
/// schema. The same answers cost SIM no more cold block reads than the
/// relational join programs, whose fragments and junction table cost
/// extra blocks.
#[test]
fn e10_sim_reads_no_more_cold_blocks_than_the_relational_schema() {
    // (students, [(SIM, relational) reads for advisor names, enrollments])
    for (n, expected) in [(50, [(3, 5), (5, 9)]), (200, [(11, 11), (16, 26)])] {
        let scale = UniversityScale::small(n);
        let db = populated_university(scale, 42);
        let mut rel = relational_university(scale, 42);
        let enrollment = rel.table("enrollment").unwrap();
        rel.create_index(enrollment, "student_ssn").unwrap();
        let queries = [
            (
                "From student Retrieve name, name of advisor.",
                relational_advisor_names as fn(&_) -> _,
            ),
            ("From student Retrieve name, title of courses-enrolled.", relational_enrollments),
        ];
        for ((sim_q, rel_q), (sim_reads, rel_reads)) in queries.into_iter().zip(expected) {
            let rows = rel_q(&rel);
            assert_eq!(examined(&db, sim_q, rows).1, sim_reads, "SIM at {n}: {sim_q}");
            rel.clear_cache();
            let before = rel.io_snapshot();
            rel_q(&rel);
            assert_eq!(rel.io_snapshot().since(&before).reads, rel_reads, "relational at {n}");
            assert!(sim_reads <= rel_reads);
        }
    }
}
