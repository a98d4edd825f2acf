//! Update-statement edge cases: role extension corner cases, EVA set
//! replacement, include/exclude on every mapping shape, and WriteSet-driven
//! integrity triggering through inverse directions.

use sim_ddl::university_catalog;
use sim_luc::Mapper;
use sim_query::{QueryEngine, QueryError};
use sim_types::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

fn s(v: &str) -> Value {
    Value::Str(v.into())
}

fn engine() -> QueryEngine {
    let mapper = Mapper::new(Arc::new(university_catalog()), 256).unwrap();
    let mut e = QueryEngine::new(mapper).unwrap();
    e.enforce_verifies = false;
    e
}

#[test]
fn extend_role_is_idempotent_for_held_roles() {
    let mut e = engine();
    e.run(r#"Insert student(name := "X", soc-sec-no := 1, student-nbr := 2001)."#).unwrap();
    // Extending into a role the entity already holds applies only the
    // assignments.
    let n = e
        .run_one(r#"Insert student From person Where soc-sec-no = 1 (student-nbr := 2002)."#)
        .unwrap()
        .updated();
    assert_eq!(n, 1);
    let out = e.query("From student Retrieve student-nbr.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Int(2002)]]);
    assert_eq!(out.rows().len(), 1, "no duplicate entity appeared");
}

#[test]
fn insert_from_applies_to_every_match() {
    let mut e = engine();
    e.run(
        r#"Insert person(name := "A", soc-sec-no := 1).
           Insert person(name := "B", soc-sec-no := 2).
           Insert person(name := "C", soc-sec-no := 3)."#,
    )
    .unwrap();
    let n = e
        .run_one(r#"Insert student From person Where soc-sec-no < 3 (student-nbr := 2001)."#)
        .unwrap()
        .updated();
    // The paper speaks of "the entity"; we generalize to every match.
    assert_eq!(n, 2);
    let out = e.query("From student Retrieve name.").unwrap();
    assert_eq!(out.rows(), &[vec![s("A")], vec![s("B")]]);
    // Both got the same student-nbr… which is fine (not UNIQUE).
}

#[test]
fn mv_eva_set_assignment_replaces_whole_set() {
    let mut e = engine();
    e.run(
        r#"Insert course(course-no := 1, title := "A", credits := 1).
           Insert course(course-no := 2, title := "B", credits := 1).
           Insert course(course-no := 3, title := "C", credits := 1).
           Insert student(name := "S", soc-sec-no := 1,
               courses-enrolled := course with (course-no < 3))."#,
    )
    .unwrap();
    let out = e.query("From student Retrieve title of courses-enrolled.").unwrap();
    assert_eq!(out.rows().len(), 2);
    // A Set assignment with a new selector replaces, not accumulates.
    e.run_one(
        r#"Modify student (courses-enrolled := course with (course-no = 3))
           Where soc-sec-no = 1."#,
    )
    .unwrap();
    let out = e.query("From student Retrieve title of courses-enrolled.").unwrap();
    assert_eq!(out.rows(), &[vec![s("C")]]);
}

#[test]
fn exclude_by_class_selector_extension() {
    let mut e = engine();
    e.run(
        r#"Insert course(course-no := 1, title := "A", credits := 1).
           Insert course(course-no := 2, title := "B", credits := 1).
           Insert student(name := "S", soc-sec-no := 1,
               courses-enrolled := course with (course-no < 3))."#,
    )
    .unwrap();
    // Exclusion naming the class (lenient extension) rather than the EVA.
    e.run_one(
        r#"Modify student (courses-enrolled := exclude course with (title = "A"))
           Where soc-sec-no = 1."#,
    )
    .unwrap();
    let out = e.query("From student Retrieve title of courses-enrolled.").unwrap();
    assert_eq!(out.rows(), &[vec![s("B")]]);
}

#[test]
fn modify_null_assignment_clears_single_eva() {
    let mut e = engine();
    e.run(
        r#"Insert instructor(name := "I", soc-sec-no := 1, employee-nbr := 1001).
           Insert student(name := "S", soc-sec-no := 2,
               advisor := instructor with (employee-nbr = 1001))."#,
    )
    .unwrap();
    e.run_one(r#"Modify student (advisor := null) Where soc-sec-no = 2."#).unwrap();
    let out = e.query("From student Retrieve name of advisor.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Null]]);
    let out = e.query("From instructor Retrieve count(advisees) of instructor.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Int(0)]], "inverse cleared too");
}

#[test]
fn required_dva_cannot_be_nulled_by_modify() {
    let mut e = engine();
    e.run(r#"Insert course(course-no := 1, title := "Keep", credits := 3)."#).unwrap();
    let err = e.run_one(r#"Modify course (title := null) Where course-no = 1."#).unwrap_err();
    assert!(matches!(err, QueryError::Mapper(_)), "{err}");
    let out = e.query("From course Retrieve title.").unwrap();
    assert_eq!(out.rows(), &[vec![s("Keep")]]);
}

#[test]
fn integrity_triggered_through_inverse_direction() {
    // V1 reads `credits of courses-enrolled` from the student perspective.
    // Enrolling a student FROM THE COURSE SIDE (students-enrolled) must
    // still trigger it: the write set records both EVA directions.
    let mut e = engine();
    e.run(
        r#"Insert course(course-no := 1, title := "Tiny", credits := 1).
           Insert student(name := "S", soc-sec-no := 1)."#,
    )
    .unwrap();
    e.enforce_verifies = true;
    let err = e
        .run_one(
            r#"Modify course (students-enrolled := include student with (soc-sec-no = 1))
               Where course-no = 1."#,
        )
        .unwrap_err();
    assert!(
        matches!(err, QueryError::IntegrityViolation { ref constraint, .. } if constraint == "v1"),
        "{err}"
    );
    // Rolled back: the course has no students.
    let out = e.query("From course Retrieve count(students-enrolled) of course.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Int(0)]]);
}

#[test]
fn update_write_set_covers_fk_partner() {
    // Changing a spouse (FK mapping) records both sides; a VERIFY on the
    // partner side would re-check. Here we just confirm the link semantics
    // through updates.
    let mut e = engine();
    e.run(
        r#"Insert person(name := "A", soc-sec-no := 1).
           Insert person(name := "B", soc-sec-no := 2).
           Insert person(name := "C", soc-sec-no := 3).
           Modify person (spouse := person with (soc-sec-no = 2)) Where soc-sec-no = 1."#,
    )
    .unwrap();
    // Remarry A to C through a single statement.
    e.run_one(r#"Modify person (spouse := person with (soc-sec-no = 3)) Where soc-sec-no = 1."#)
        .unwrap();
    let out = e.query("From person Retrieve name, name of spouse Order By name.").unwrap();
    assert_eq!(
        out.rows(),
        &[vec![s("A"), s("C")], vec![s("B"), Value::Null], vec![s("C"), s("A")],]
    );
}

#[test]
fn delete_everything_and_start_over() {
    let mut e = engine();
    e.run(
        r#"Insert course(course-no := 1, title := "A", credits := 1).
           Insert instructor(name := "I", soc-sec-no := 1, employee-nbr := 1001,
               courses-taught := course with (course-no = 1)).
           Insert student(name := "S", soc-sec-no := 2,
               advisor := instructor with (employee-nbr = 1001),
               courses-enrolled := course with (course-no = 1))."#,
    )
    .unwrap();
    e.run("Delete person. Delete course.").unwrap();
    for class in ["person", "student", "instructor", "course"] {
        let out = e.query(&format!("From {class} Retrieve {class}.")).unwrap();
        assert!(out.rows().is_empty(), "{class} should be empty");
    }
    // The database remains fully usable.
    e.run(r#"Insert course(course-no := 1, title := "Again", credits := 2)."#).unwrap();
    let out = e.query("From course Retrieve title.").unwrap();
    assert_eq!(out.rows(), &[vec![s("Again")]]);
}

#[test]
fn delete_records_the_roles_the_mapper_removed() {
    // A DELETE records in its write set exactly the roles
    // `Mapper::delete_role` returns for each target: the deleted role and
    // every subclass role the entity held. Pinned for two teaching
    // assistants (student and instructor at once).
    let mut e = engine();
    e.run(
        r#"Insert teaching-assistant(name := "T1", soc-sec-no := 1, employee-nbr := 1001).
           Insert teaching-assistant(name := "T2", soc-sec-no := 2, employee-nbr := 1002)."#,
    )
    .unwrap();
    let catalog = e.mapper().shared_catalog();
    let class = |name: &str| catalog.class_by_name(name).unwrap().id;
    let roles = |names: &[&str]| names.iter().map(|n| class(n)).collect::<BTreeSet<_>>();
    let tas = e.mapper().entities_of(class("teaching-assistant")).unwrap();
    let mut txn = e.mapper_mut().begin();

    let removed = e.mapper_mut().delete_role(&mut txn, tas[0], class("student")).unwrap();
    assert_eq!(
        removed.into_iter().collect::<BTreeSet<_>>(),
        roles(&["student", "teaching-assistant"])
    );
    let removed = e.mapper_mut().delete_role(&mut txn, tas[1], class("person")).unwrap();
    assert_eq!(
        removed.into_iter().collect::<BTreeSet<_>>(),
        roles(&["person", "student", "instructor", "teaching-assistant"])
    );
    e.mapper_mut().commit(txn).unwrap();
    let out = e.query("From instructor Retrieve name.").unwrap();
    assert_eq!(out.rows(), &[vec![s("T1")]], "T1 is still an instructor; T2 is gone");
}

#[test]
fn symbolic_dva_values_read_back_as_labels() {
    let catalog = sim_ddl::compile_schema(
        r#"Type degree = symbolic (BS, MBA, MS, PHD);
           Class Graduate ( gid: integer unique required; earned: degree );"#,
    )
    .unwrap();
    let mapper = Mapper::new(Arc::new(catalog), 64).unwrap();
    let mut e = QueryEngine::new(mapper).unwrap();
    e.run(
        r#"Insert graduate(gid := 1, earned := "PHD").
           Insert graduate(gid := 2, earned := "bs")."#,
    )
    .unwrap();
    // Labels come back with their declared spelling; writes were
    // case-insensitive ("PHD" and "bs" both coerced).
    let out = e.query("From graduate Retrieve gid, earned.").unwrap();
    assert_eq!(out.rows()[0][1], s("PHD"));
    assert_eq!(out.rows()[1][1], s("BS"));
    // Comparisons against labels work in WHERE clauses.
    let out = e.query("From graduate Retrieve gid Where earned = \"PHD\".").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Int(1)]]);
    // Bad labels are rejected on write.
    assert!(e.run_one(r#"Modify graduate (earned := "BA") Where gid = 1."#).is_err());
}
