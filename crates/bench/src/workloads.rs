//! Shared workload builders for the experiment harness (DESIGN.md E1–E10).

use sim_catalog::AttrId;
use sim_core::Database;
use sim_relational::RelationalDb;
use sim_testkit::Rng;
use sim_types::{Surrogate, Value};

/// The small, hand-curated UNIVERSITY dataset used throughout the paper's
/// examples (the same population the integration tests use).
pub const UNIVERSITY_DATA: &str = r#"
    Insert department(dept-nbr := 101, name := "Physics").
    Insert department(dept-nbr := 102, name := "Math").

    Insert course(course-no := 201, title := "Algebra I", credits := 4).
    Insert course(course-no := 202, title := "Calculus I", credits := 4).
    Insert course(course-no := 203, title := "Calculus II", credits := 4).
    Insert course(course-no := 204, title := "Quantum Chromodynamics", credits := 5).
    Insert course(course-no := 205, title := "Linear Algebra", credits := 3).

    Modify course (prerequisites := include course with (title = "Algebra I"))
        Where title = "Calculus I".
    Modify course (prerequisites := include course with (title = "Calculus I"))
        Where title = "Calculus II".
    Modify course (prerequisites := include course with (title = "Calculus II"))
        Where title = "Quantum Chromodynamics".
    Modify course (prerequisites := include course with (title = "Linear Algebra"))
        Where title = "Quantum Chromodynamics".
    Modify course (prerequisites := include course with (title = "Algebra I"))
        Where title = "Linear Algebra".

    Insert instructor(name := "Joe Bloke", soc-sec-no := 100000001,
        birthdate := "1950-03-01", employee-nbr := 1001, salary := 50000.00,
        assigned-department := department with (name = "Physics"),
        courses-taught := course with (title = "Calculus I")).
    Insert instructor(name := "Ann Smith", soc-sec-no := 100000002,
        birthdate := "1960-05-02", employee-nbr := 1002, salary := 60000.00,
        bonus := 5000.00,
        assigned-department := department with (name = "Math"),
        courses-taught := course with (title = "Algebra I")).
    Modify instructor (courses-taught := include course with (title = "Linear Algebra"))
        Where name = "Ann Smith".

    Insert student(name := "John Doe", soc-sec-no := 456887766,
        birthdate := "1970-01-15", student-nbr := 2001,
        major-department := department with (name = "Physics"),
        advisor := instructor with (name = "Ann Smith"),
        courses-enrolled := course with (title = "Algebra I")).
    Modify student (courses-enrolled := include course with (title = "Calculus I"))
        Where name = "John Doe".

    Insert student(name := "Mary Major", soc-sec-no := 456887767,
        birthdate := "1940-07-20", student-nbr := 2002,
        major-department := department with (name = "Math"),
        advisor := instructor with (name = "Joe Bloke"),
        courses-enrolled := course with (title = "Calculus I")).

    Insert student(name := "Tim Assistant", soc-sec-no := 456887768,
        birthdate := "1980-02-02", student-nbr := 2003,
        major-department := department with (name = "Physics")).
    Insert instructor From person Where name = "Tim Assistant"
        (employee-nbr := 1003, salary := 20000.00).
    Insert teaching-assistant From person Where name = "Tim Assistant"
        (teaching-load := 5).
"#;

/// The paper's UNIVERSITY database with the example dataset.
pub fn university_db() -> Database {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    db.run(UNIVERSITY_DATA).expect("example dataset loads");
    db
}

/// Scale parameters for the synthetic UNIVERSITY population.
#[derive(Debug, Clone, Copy)]
pub struct UniversityScale {
    /// Number of students.
    pub students: usize,
    /// Number of instructors.
    pub instructors: usize,
    /// Number of courses.
    pub courses: usize,
    /// Number of departments.
    pub departments: usize,
    /// Enrollments per student.
    pub enrollments_per_student: usize,
}

impl UniversityScale {
    /// A moderate benchmark scale.
    pub fn medium() -> UniversityScale {
        UniversityScale {
            students: 400,
            instructors: 40,
            courses: 80,
            departments: 8,
            enrollments_per_student: 3,
        }
    }

    /// A small scale for fast sweeps.
    pub fn small(students: usize) -> UniversityScale {
        UniversityScale {
            students,
            instructors: (students / 10).max(2),
            courses: (students / 5).max(4),
            departments: 4,
            enrollments_per_student: 3,
        }
    }
}

/// A synthetic UNIVERSITY population, deterministic in `seed`.
pub fn populated_university(scale: UniversityScale, seed: u64) -> Database {
    assert!(
        scale.students <= scale.instructors * 10,
        "ADVISEES has MAX 10 (paper schema): need at least students/10 instructors"
    );
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut rng = Rng::new(seed);
    let mut script = String::new();
    for d in 0..scale.departments {
        script.push_str(&format!(
            "Insert department(dept-nbr := {}, name := \"Dept-{d}\").\n",
            100 + d
        ));
    }
    for c in 0..scale.courses {
        script.push_str(&format!(
            "Insert course(course-no := {}, title := \"Course-{c}\", credits := {}).\n",
            c + 1,
            rng.range_i64(1, 7)
        ));
    }
    for i in 0..scale.instructors {
        let dept = rng.range(0, scale.departments);
        script.push_str(&format!(
            "Insert instructor(name := \"Instructor-{i}\", soc-sec-no := {}, \
             employee-nbr := {}, salary := {}.00, birthdate := \"19{}-0{}-1{}\", \
             assigned-department := department with (dept-nbr = {})).\n",
            600_000_000 + i,
            1001 + i,
            30_000 + (i % 50) * 1000,
            40 + i % 40,
            1 + i % 9,
            i % 9,
            100 + dept,
        ));
    }
    db.run(&script).expect("departments/courses/instructors load");

    let mut script = String::new();
    for s in 0..scale.students {
        let dept = rng.range(0, scale.departments);
        // Round-robin advisors: the schema's MAX 10 advisees per instructor
        // must hold.
        let advisor = s % scale.instructors;
        script.push_str(&format!(
            "Insert student(name := \"Student-{s}\", soc-sec-no := {}, \
             student-nbr := {}, birthdate := \"19{}-0{}-1{}\", \
             major-department := department with (dept-nbr = {}), \
             advisor := instructor with (employee-nbr = {})).\n",
            700_000_000 + s,
            2001 + (s % 37_000),
            50 + s % 49,
            1 + s % 9,
            s % 9,
            100 + dept,
            1001 + advisor,
        ));
        let mut chosen = std::collections::HashSet::new();
        for _ in 0..scale.enrollments_per_student {
            let c = rng.range(0, scale.courses);
            if chosen.insert(c) {
                script.push_str(&format!(
                    "Modify student (courses-enrolled := include course with (course-no = {})) \
                     Where soc-sec-no = {}.\n",
                    c + 1,
                    700_000_000 + s,
                ));
            }
        }
        // Load in chunks to bound parser memory.
        if s % 100 == 99 {
            db.run(&script).expect("student batch");
            script.clear();
        }
    }
    if !script.is_empty() {
        db.run(&script).expect("student batch");
    }
    db
}

/// Schema for the E4/E5 mapping experiments: one hierarchy with a reflexive
/// 1:many `children`/`parent` relationship whose physical mapping is
/// selectable (`structure`, `pointer` or `clustered`).
pub fn node_schema(mapping: &str) -> String {
    let clause = if mapping == "structure" { String::new() } else { format!(" mapping {mapping}") };
    format!(
        "Class Node (
            node-id: integer unique required;
            payload: string[4000];
            children: node inverse is parent mv{clause};
            parent: node inverse is children );"
    )
}

/// Build a parent/children forest: `parents` roots, each with
/// `children_per` children.
///
/// Parents are inserted first with a payload sized so each occupies its own
/// block; children are inserted afterwards. Under the default placement the
/// children therefore live in *other* blocks (pointer mapping pays 1 block
/// read per first instance), while the `clustered` mapping pulls each child
/// into its parent's block at link time — reproducing the exact §5.1
/// contrast. With the default `children_per = 3` and a 4 KiB block, a
/// parent plus its children fit one block.
pub fn node_tree_db(mapping: &str, parents: usize, children_per: usize) -> Database {
    let mut db = Database::create_with_pool(&node_schema(mapping), 4096).expect("node schema");
    let parent_payload = "p".repeat(2400); // ~1 parent per block
    let child_payload = "c".repeat(380);
    let mut script = String::new();
    for p in 0..parents {
        script.push_str(&format!(
            "Insert node(node-id := {}, payload := \"{parent_payload}\").\n",
            p + 1
        ));
        if script.len() > 200_000 {
            db.run(&script).expect("parent batch");
            script.clear();
        }
    }
    if !script.is_empty() {
        db.run(&script).expect("parent batch");
        script.clear();
    }
    let mut next_id = parents + 1;
    for p in 0..parents {
        for _ in 0..children_per {
            script.push_str(&format!(
                "Insert node(node-id := {next_id}, payload := \"{child_payload}\", \
                 parent := node with (node-id = {})).\n",
                p + 1
            ));
            next_id += 1;
        }
        if script.len() > 200_000 {
            db.run(&script).expect("child batch");
            script.clear();
        }
    }
    if !script.is_empty() {
        db.run(&script).expect("child batch");
    }
    db
}

/// The `children` attribute of a [`node_tree_db`] forest and its parents
/// (every node that has children), in surrogate order.
pub fn node_parents(db: &Database) -> (AttrId, Vec<Surrogate>) {
    let mapper = db.mapper();
    let class = mapper.catalog().class_by_name("node").expect("node class").id;
    let children = mapper.catalog().resolve_attr(class, "children").expect("children attr");
    let parents = mapper
        .entities_of(class)
        .expect("node entities")
        .into_iter()
        .filter(|&s| !mapper.eva_partners(s, children).expect("partners").is_empty())
        .collect();
    (children, parents)
}

/// Prerequisite chain of `depth` courses: course k+1 requires course k.
pub fn prerequisite_chain_db(depth: usize) -> Database {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut script = String::new();
    for k in 0..depth {
        script.push_str(&format!(
            "Insert course(course-no := {}, title := \"Chain-{k}\", credits := 3).\n",
            k + 1
        ));
    }
    for k in 1..depth {
        script.push_str(&format!(
            "Modify course (prerequisites := include course with (course-no = {}))
             Where course-no = {}.\n",
            k,
            k + 1
        ));
    }
    db.run(&script).expect("chain");
    db
}

/// The fragmented relational mirror of the synthetic UNIVERSITY population
/// (same seed ⇒ same logical data): `person`, `student`, `instructor`,
/// `department`, `course` and an `enrollment` junction table — the schema
/// shape the paper's introduction criticizes.
pub fn relational_university(scale: UniversityScale, seed: u64) -> RelationalDb {
    let mut rng = Rng::new(seed);
    let mut db = RelationalDb::new(4096);
    let dept = db.create_table("department", &[("dept_nbr", true), ("name", false)]).unwrap();
    let course = db
        .create_table("course", &[("course_no", true), ("title", false), ("credits", false)])
        .unwrap();
    let person = db.create_table("person", &[("ssn", true), ("name", false)]).unwrap();
    let instructor = db
        .create_table(
            "instructor",
            &[("employee_nbr", true), ("ssn", false), ("dept_nbr", false), ("salary", false)],
        )
        .unwrap();
    let student = db
        .create_table(
            "student",
            &[
                ("ssn", true),
                ("student_nbr", false),
                ("dept_nbr", false),
                ("advisor_employee_nbr", false),
            ],
        )
        .unwrap();
    let enrollment =
        db.create_table("enrollment", &[("student_ssn", false), ("course_no", false)]).unwrap();

    for d in 0..scale.departments {
        db.insert(dept, &[Value::Int((100 + d) as i64), Value::Str(format!("Dept-{d}"))]).unwrap();
    }
    for c in 0..scale.courses {
        db.insert(
            course,
            &[
                Value::Int((c + 1) as i64),
                Value::Str(format!("Course-{c}")),
                Value::Int(rng.range_i64(1, 7)),
            ],
        )
        .unwrap();
    }
    for i in 0..scale.instructors {
        let d = rng.range(0, scale.departments);
        db.insert(
            person,
            &[Value::Int((600_000_000 + i) as i64), Value::Str(format!("Instructor-{i}"))],
        )
        .unwrap();
        db.insert(
            instructor,
            &[
                Value::Int((1001 + i) as i64),
                Value::Int((600_000_000 + i) as i64),
                Value::Int((100 + d) as i64),
                Value::Int((30_000 + (i % 50) * 1000) as i64),
            ],
        )
        .unwrap();
    }
    for s in 0..scale.students {
        let d = rng.range(0, scale.departments);
        let advisor = s % scale.instructors;
        db.insert(
            person,
            &[Value::Int((700_000_000 + s) as i64), Value::Str(format!("Student-{s}"))],
        )
        .unwrap();
        db.insert(
            student,
            &[
                Value::Int((700_000_000 + s) as i64),
                Value::Int((2001 + (s % 37_000)) as i64),
                Value::Int((100 + d) as i64),
                Value::Int((1001 + advisor) as i64),
            ],
        )
        .unwrap();
        let mut chosen = std::collections::HashSet::new();
        for _ in 0..scale.enrollments_per_student {
            let c = rng.range(0, scale.courses);
            if chosen.insert(c) {
                db.insert(
                    enrollment,
                    &[Value::Int((700_000_000 + s) as i64), Value::Int((c + 1) as i64)],
                )
                .unwrap();
            }
        }
    }
    db
}

/// "Every student with their advisor's name" over the fragmented schema:
/// student ⋈ instructor on the advisor key, then both names through the
/// person fragment (§1's fragmentation). Returns the answer's row count.
pub fn relational_advisor_names(rel: &RelationalDb) -> usize {
    let student = rel.table("student").unwrap();
    let instructor = rel.table("instructor").unwrap();
    let person = rel.table("person").unwrap();
    let joined = rel.join_eq(student, "advisor_employee_nbr", instructor, "employee_nbr").unwrap();
    joined
        .iter()
        .filter(|row| {
            !rel.select_eq(person, "ssn", &row[0]).unwrap().is_empty()
                && !rel.select_eq(person, "ssn", &row[5]).unwrap().is_empty()
        })
        .count()
}

/// "Every student's name with their enrolled course titles" over the
/// fragmented schema: student ⋈ enrollment, then course and the person
/// fragment per row. Returns the answer's row count.
pub fn relational_enrollments(rel: &RelationalDb) -> usize {
    let student = rel.table("student").unwrap();
    let enrollment = rel.table("enrollment").unwrap();
    let course = rel.table("course").unwrap();
    let person = rel.table("person").unwrap();
    let joined = rel.join_eq(student, "ssn", enrollment, "student_ssn").unwrap();
    joined
        .iter()
        .filter(|row| {
            !rel.select_eq(course, "course_no", &row[5]).unwrap().is_empty()
                && !rel.select_eq(person, "ssn", &row[0]).unwrap().is_empty()
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_dataset_loads() {
        let db = university_db();
        assert_eq!(db.entity_count("student").unwrap(), 3);
        assert_eq!(db.entity_count("instructor").unwrap(), 3);
        assert_eq!(db.entity_count("course").unwrap(), 5);
    }

    #[test]
    fn scaled_population_loads() {
        let scale = UniversityScale::small(50);
        let db = populated_university(scale, 42);
        assert_eq!(db.entity_count("student").unwrap(), 50);
        assert_eq!(db.entity_count("instructor").unwrap(), 5);
        let out = db
            .query("From student Retrieve name of advisor Where soc-sec-no = 700000000.")
            .unwrap();
        assert_eq!(out.rows().len(), 1);
    }

    #[test]
    fn node_trees_build_under_all_mappings() {
        for mapping in ["structure", "pointer", "clustered"] {
            let db = node_tree_db(mapping, 5, 4);
            assert_eq!(db.entity_count("node").unwrap(), 25, "{mapping}");
            let out =
                db.query("From node Retrieve count(children) of node Where node-id = 1.").unwrap();
            assert_eq!(out.rows()[0][0], Value::Int(4), "{mapping}");
        }
    }

    #[test]
    fn prerequisite_chain_closure_depth() {
        let db = prerequisite_chain_db(6);
        let out = db
            .query("From course Retrieve count(transitive(prerequisites)) Where course-no = 6.")
            .unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(5));
    }

    #[test]
    fn relational_mirror_matches_logical_size() {
        let scale = UniversityScale::small(30);
        let db = relational_university(scale, 42);
        let student = db.table("student").unwrap();
        assert_eq!(db.row_count(student), 30);
        let rows = db
            .join_eq(
                student,
                "advisor_employee_nbr",
                db.table("instructor").unwrap(),
                "employee_nbr",
            )
            .unwrap();
        assert_eq!(rows.len(), 30);
    }
}
