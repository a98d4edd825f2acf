//! The common UNIVERSITY population and the generator's own model of it.
//!
//! Every workload runs over the paper's §7 schema loaded with the same
//! seed-generated data. [`Model`] is what the generator knows about that
//! data without asking the engine; every statement's expected row count is
//! worked out from it, so a wrong answer is caught by something other than
//! the program under test.

use sim_core::{Database, SimError};
use sim_testkit::Rng;
use std::path::Path;

/// Population and round sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub students: usize,
    pub instructors: usize,
    pub courses: usize,
    pub departments: usize,
    /// Courses per prerequisite chain: course at position `p` of its chain
    /// has `p` transitive prerequisites.
    pub chain_len: usize,
    /// Every per-round statement count below is divided by this.
    pub round_div: usize,
}

impl Scale {
    /// The benchmark's scale (about 190 data blocks).
    pub const BENCH: Scale = Scale {
        students: 1000,
        instructors: 100,
        courses: 200,
        departments: 16,
        chain_len: 10,
        round_div: 1,
    };
    /// A small population and short rounds for the crate's own tests.
    pub const TINY: Scale = Scale {
        students: 60,
        instructors: 6,
        courses: 20,
        departments: 4,
        chain_len: 5,
        round_div: 10,
    };

    /// A per-round statement count at this scale.
    fn per_round(&self, count: usize) -> usize {
        (count / self.round_div).max(1)
    }
}

/// Enrollments per student; with credits in 4..=6 every student carries at
/// least 12 credits, so VERIFY `v1` holds with enforcement on.
pub const ENROLLMENTS: usize = 3;

pub const FIRST_DEPT: usize = 100;
pub const FIRST_COURSE: usize = 1;
pub const FIRST_EMPLOYEE: usize = 1001;
pub const FIRST_STUDENT_NBR: usize = 2001;
pub const FIRST_INSTRUCTOR_SSN: usize = 600_000_000;
pub const FIRST_STUDENT_SSN: usize = 700_000_000;

/// Where the database lives.
#[derive(Debug, Clone, Copy)]
pub enum Backing<'a> {
    /// `MemDisk`: no WAL, no fsync.
    Mem,
    /// `FileDisk` + WAL in this (empty or absent) directory.
    Dir(&'a Path),
}

/// The generator's model of the loaded data. Indices are zero-based
/// positions; the `FIRST_*` constants turn them into key values.
#[derive(Debug, Clone)]
pub struct Model {
    pub scale: Scale,
    pub course_credits: Vec<i64>,
    pub instructor_dept: Vec<usize>,
    pub student_dept: Vec<usize>,
    pub student_courses: Vec<[usize; ENROLLMENTS]>,
}

impl Model {
    /// Draw the population. The same `(scale, seed)` gives the same model.
    pub fn generate(scale: Scale, seed: u64) -> Model {
        assert!(
            scale.students <= scale.instructors * 10,
            "ADVISEES has MAX 10: need at least students/10 instructors"
        );
        assert!(scale.courses >= scale.instructors, "every instructor teaches one course");
        let mut rng = Rng::new(seed);
        let course_credits = (0..scale.courses).map(|_| rng.range_i64(4, 7)).collect();
        let instructor_dept =
            (0..scale.instructors).map(|_| rng.range(0, scale.departments)).collect();
        let mut student_dept = Vec::with_capacity(scale.students);
        let mut student_courses = Vec::with_capacity(scale.students);
        for _ in 0..scale.students {
            student_dept.push(rng.range(0, scale.departments));
            let mut picks = [0usize; ENROLLMENTS];
            let mut n = 0;
            while n < ENROLLMENTS {
                let c = rng.range(0, scale.courses);
                if !picks[..n].contains(&c) {
                    picks[n] = c;
                    n += 1;
                }
            }
            student_courses.push(picks);
        }
        Model { scale, course_credits, instructor_dept, student_dept, student_courses }
    }

    /// Round-robin advisors keep every instructor at or under MAX 10.
    pub fn advisor_of(&self, student: usize) -> usize {
        student % self.scale.instructors
    }

    pub fn advisees_of(&self, instructor: usize) -> impl Iterator<Item = usize> + '_ {
        (instructor..self.scale.students).step_by(self.scale.instructors)
    }

    /// Position of a course in its prerequisite chain = the size of
    /// `transitive(prerequisites)`.
    pub fn chain_pos(&self, course: usize) -> usize {
        course % self.scale.chain_len
    }

    pub fn instructors_in(&self, dept: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.scale.instructors).filter(move |&i| self.instructor_dept[i] == dept)
    }

    pub fn student_name(student: usize) -> String {
        format!("Student-{student}")
    }

    pub fn birthdate(n: usize) -> String {
        format!("19{}-0{}-1{}", 50 + n % 40, 1 + n % 9, n % 9)
    }

    /// The salary instructor `i` is loaded with.
    fn loaded_salary(i: usize) -> usize {
        30_000 + (i % 50) * 1000
    }
}

fn load_script(model: &Model) -> Vec<String> {
    let s = model.scale;
    let mut batches = Vec::new();
    let mut script = String::new();
    for d in 0..s.departments {
        script.push_str(&format!(
            "Insert department(dept-nbr := {}, name := \"Dept-{d}\").\n",
            FIRST_DEPT + d
        ));
    }
    for (c, credits) in model.course_credits.iter().enumerate() {
        script.push_str(&format!(
            "Insert course(course-no := {}, title := \"Course-{c}\", credits := {credits}).\n",
            FIRST_COURSE + c
        ));
    }
    for c in 0..s.courses {
        if model.chain_pos(c) != 0 {
            script.push_str(&format!(
                "Modify course (prerequisites := include course with (course-no = {})) \
                 Where course-no = {}.\n",
                FIRST_COURSE + c - 1,
                FIRST_COURSE + c
            ));
        }
    }
    for (i, dept) in model.instructor_dept.iter().enumerate() {
        script.push_str(&format!(
            "Insert instructor(name := \"Instructor-{i}\", soc-sec-no := {}, \
             employee-nbr := {}, salary := {}.00, birthdate := \"{}\", \
             assigned-department := department with (dept-nbr = {}), \
             courses-taught := course with (course-no = {})).\n",
            FIRST_INSTRUCTOR_SSN + i,
            FIRST_EMPLOYEE + i,
            Model::loaded_salary(i),
            Model::birthdate(i),
            FIRST_DEPT + dept,
            FIRST_COURSE + i,
        ));
    }
    batches.push(std::mem::take(&mut script));
    for st in 0..s.students {
        script.push_str(&format!(
            "Insert student(name := \"{}\", soc-sec-no := {}, student-nbr := {}, \
             birthdate := \"{}\", major-department := department with (dept-nbr = {}), \
             advisor := instructor with (employee-nbr = {})",
            Model::student_name(st),
            FIRST_STUDENT_SSN + st,
            FIRST_STUDENT_NBR + st,
            Model::birthdate(st),
            FIRST_DEPT + model.student_dept[st],
            FIRST_EMPLOYEE + model.advisor_of(st),
        ));
        // All enrollments in the one statement, so the statement-level
        // VERIFY v1 check sees the complete 12+ credit schedule.
        for c in model.student_courses[st] {
            script.push_str(&format!(
                ", courses-enrolled := include course with (course-no = {})",
                FIRST_COURSE + c
            ));
        }
        script.push_str(").\n");
        // Load in chunks to bound parser memory.
        if st % 200 == 199 {
            batches.push(std::mem::take(&mut script));
        }
    }
    if !script.is_empty() {
        batches.push(script);
    }
    batches
}

/// Commits one fsync may cover while a durable database is being loaded;
/// reset to 1 (every commit fsyncs) before any measured window opens.
const LOAD_GROUP_COMMIT_WINDOW: usize = 4096;

/// Build the UNIVERSITY database for `model` on the given backing and pool:
/// load with VERIFY enforcement on, index `student-nbr`, run `analyze()` so
/// the cost-based planner is the path measured, and (durable only) reset
/// the group-commit window to 1 and checkpoint.
pub fn bench_university(
    model: &Model,
    backing: Backing<'_>,
    pool_frames: usize,
) -> Result<Database, SimError> {
    let mut db = match backing {
        Backing::Mem => Database::create_with_pool(sim_ddl::UNIVERSITY_DDL, pool_frames)?,
        Backing::Dir(dir) => {
            Database::create_at_with_pool(sim_ddl::UNIVERSITY_DDL, dir, pool_frames)?
        }
    };
    if db.is_durable() {
        db.set_group_commit_window(LOAD_GROUP_COMMIT_WINDOW)?;
    }
    for batch in load_script(model) {
        db.run(&batch)?;
    }
    db.create_index("student", "student-nbr")?;
    db.analyze()?;
    if db.is_durable() {
        db.set_group_commit_window(1)?;
        db.checkpoint()?;
    }
    Ok(db)
}

// ----- statements -------------------------------------------------------------

/// Statement classes: the unit the executor's time is reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Unique-index probe plus at most one EVA hop.
    Point,
    /// Two-hop EVA outer join.
    Nested,
    /// `some(...)` quantifier.
    Exists,
    /// count/avg over an EVA.
    Aggregate,
    /// `transitive(prerequisites)` closure.
    Transitive,
    /// Full class scan with an un-indexed predicate.
    Scan,
    /// B-tree range scan.
    Range,
    Insert,
    Modify,
    /// Exclude + include on one EVA in one statement.
    Swap,
    Delete,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Nested => "nested",
            Class::Exists => "exists",
            Class::Aggregate => "aggregate",
            Class::Transitive => "transitive",
            Class::Scan => "scan",
            Class::Range => "range",
            Class::Insert => "insert",
            Class::Modify => "modify",
            Class::Swap => "swap",
            Class::Delete => "delete",
        }
    }

    pub fn is_retrieve(self) -> bool {
        self <= Class::Range
    }
}

/// One generated statement and the answer size the model predicts: rows
/// returned for a retrieve, entities updated otherwise.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub text: String,
    pub class: Class,
    pub expect: usize,
}

fn stmt(class: Class, expect: usize, text: String) -> Stmt {
    Stmt { text, class, expect }
}

impl Model {
    pub fn point(&self, student: usize) -> Stmt {
        stmt(
            Class::Point,
            1,
            format!(
                "From student Retrieve name, name of advisor Where soc-sec-no = {}.",
                FIRST_STUDENT_SSN + student
            ),
        )
    }

    /// instructor → advisees → their courses; TYPE 3 (outer-join) nodes, so
    /// an instructor without advisees still yields one row.
    fn nested(&self, instructor: usize) -> Stmt {
        let rows = self.advisees_of(instructor).count() * ENROLLMENTS;
        stmt(
            Class::Nested,
            rows.max(1),
            format!(
                "From instructor Retrieve name, name of advisees, \
                 title of courses-enrolled of advisees Where employee-nbr = {}.",
                FIRST_EMPLOYEE + instructor
            ),
        )
    }

    fn exists(&self, course: usize, dept: usize) -> Stmt {
        let hit = (0..self.scale.students)
            .any(|s| self.student_dept[s] == dept && self.student_courses[s].contains(&course));
        stmt(
            Class::Exists,
            usize::from(hit),
            format!(
                "From course Retrieve title Where course-no = {} and \
                 {} = some(dept-nbr of major-department of students-enrolled).",
                FIRST_COURSE + course,
                FIRST_DEPT + dept
            ),
        )
    }

    fn aggregate(&self, dept: usize) -> Stmt {
        stmt(
            Class::Aggregate,
            1,
            format!(
                "From department Retrieve name, count(instructors-employed), \
                 avg(salary of instructors-employed) Where dept-nbr = {}.",
                FIRST_DEPT + dept
            ),
        )
    }

    fn transitive(&self, course: usize) -> Stmt {
        stmt(
            Class::Transitive,
            self.chain_pos(course).max(1),
            format!(
                "From course Retrieve title, title of transitive(prerequisites) \
                 Where course-no = {}.",
                FIRST_COURSE + course
            ),
        )
    }

    fn scan(&self, student: usize) -> Stmt {
        stmt(
            Class::Scan,
            1,
            format!(
                "From student Retrieve name, student-nbr Where name = \"{}\".",
                Model::student_name(student)
            ),
        )
    }

    /// Give a student the birthdate `Model::birthdate(birth)`.
    fn modify_birthdate(student: usize, birth: usize) -> Stmt {
        stmt(
            Class::Modify,
            1,
            format!(
                "Modify student (birthdate := \"{}\") Where soc-sec-no = {}.",
                Model::birthdate(birth),
                FIRST_STUDENT_SSN + student
            ),
        )
    }

    /// Everybody born before 19`yy`: a full scan of the base class that
    /// returns many rows.
    fn scan_born_before(&self, yy: usize) -> Stmt {
        let cutoff = format!("19{yy}-01-01");
        let born = |n: usize| Model::birthdate(n) < cutoff;
        let rows = (0..self.scale.instructors).filter(|&i| born(i)).count()
            + (0..self.scale.students).filter(|&s| born(s)).count();
        stmt(
            Class::Scan,
            rows,
            format!("From person Retrieve name, birthdate Where birthdate < \"{cutoff}\"."),
        )
    }

    /// The `k` lowest (or highest) student numbers. One-sided and short on
    /// purpose: the cost model prices a range scan per matching row, and
    /// picks the B-tree over the full scan only for short ranges.
    fn range(&self, k: usize, low_end: bool) -> Stmt {
        let predicate = if low_end {
            format!("student-nbr < {}", FIRST_STUDENT_NBR + k)
        } else {
            format!("student-nbr >= {}", FIRST_STUDENT_NBR + self.scale.students - k)
        };
        stmt(Class::Range, k, format!("From student Retrieve name, student-nbr Where {predicate}."))
    }

    /// department → instructors → advisees: hundreds of rows at bench scale.
    fn nested_large(&self, dept: usize) -> Stmt {
        let rows: usize =
            self.instructors_in(dept).map(|i| self.advisees_of(i).count().max(1)).sum();
        stmt(
            Class::Nested,
            rows.max(1),
            format!(
                "From department Retrieve name, name of instructors-employed, \
                 name of advisees of instructors-employed Where dept-nbr = {}.",
                FIRST_DEPT + dept
            ),
        )
    }
}

/// Distinct texts per class in `retrieve_hot`: 6 × 8 = 48 ≤ the engine's
/// 64-entry plan cache, so after the warm-up round every statement hits.
const HOT_TEXTS_PER_CLASS: usize = 8;

/// Executions per class in one `retrieve_hot` round, chosen once at the
/// seed commit so that each class takes 10–25% of the round's wall time.
const HOT_MIX: [(Class, usize); 6] = [
    (Class::Point, 1600),
    (Class::Nested, 48),
    (Class::Exists, 200),
    (Class::Aggregate, 400),
    (Class::Transitive, 160),
    (Class::Scan, 6),
];

/// One round of `retrieve_hot`: the same list every round.
pub fn retrieve_hot_round(model: &Model, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x686f74);
    let s = model.scale;
    let mut out = Vec::new();
    for (class, count) in HOT_MIX {
        let texts: Vec<Stmt> = (0..HOT_TEXTS_PER_CLASS)
            .map(|_| match class {
                Class::Point => model.point(rng.range(0, s.students)),
                Class::Nested => model.nested(rng.range(0, s.instructors)),
                Class::Exists => model.exists(rng.range(0, s.courses), rng.range(0, s.departments)),
                Class::Aggregate => model.aggregate(rng.range(0, s.departments)),
                // The far end of a chain: the closure walks chain_len-1 courses.
                Class::Transitive => model.transitive(
                    rng.range(0, s.courses / s.chain_len) * s.chain_len + s.chain_len - 1,
                ),
                _ => model.scan(rng.range(0, s.students)),
            })
            .collect();
        out.extend((0..s.per_round(count)).map(|i| texts[i % texts.len()].clone()));
    }
    rng.shuffle(&mut out);
    out
}

/// One round of `retrieve_adhoc`: short point retrieves, every text distinct
/// within the round, so the 64-entry plan cache never hits.
pub fn retrieve_adhoc_round(model: &Model, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x6164686f63);
    let s = model.scale;
    let mut out = Vec::new();
    for d in 0..s.departments {
        out.push(stmt(
            Class::Point,
            1,
            format!("From department Retrieve name Where dept-nbr = {}.", FIRST_DEPT + d),
        ));
    }
    for c in 0..s.courses {
        out.push(stmt(
            Class::Point,
            1,
            format!("From course Retrieve title, credits Where course-no = {}.", FIRST_COURSE + c),
        ));
    }
    for i in 0..s.instructors {
        out.push(stmt(
            Class::Point,
            1,
            format!(
                "From instructor Retrieve name, salary Where employee-nbr = {}.",
                FIRST_EMPLOYEE + i
            ),
        ));
    }
    for st in 0..s.students {
        out.push(stmt(
            Class::Point,
            1,
            format!(
                "From student Retrieve name, student-nbr Where soc-sec-no = {}.",
                FIRST_STUDENT_SSN + st
            ),
        ));
    }
    rng.shuffle(&mut out);
    out
}

/// Full scans by name and B-tree range scans per `scan_cold` round. The
/// round also scans for everybody born before each of [`COLD_YEARS`] and
/// runs the large nested retrieve on every department, so the biggest
/// result of a round — which sets `peak_stmt_alloc_mb` — does not depend on
/// which statements a seed happens to draw.
const COLD_NAME_SCANS: usize = 4;
const COLD_RANGES: usize = 96;
const COLD_YEARS: [usize; 4] = [52, 54, 56, 58];

/// One round of `scan_cold`: the same list every round.
pub fn scan_cold_round(model: &Model, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed ^ 0x636f6c64);
    let s = model.scale;
    let mut out = Vec::new();
    for _ in 0..s.per_round(COLD_NAME_SCANS) {
        out.push(model.scan(rng.range(0, s.students)));
    }
    for _ in 0..s.per_round(COLD_RANGES) {
        out.push(model.range(rng.range(4, 9), rng.bool()));
    }
    out.extend(COLD_YEARS.iter().map(|yy| model.scan_born_before(*yy)));
    out.extend((0..s.departments).map(|d| model.nested_large(d)));
    rng.shuffle(&mut out);
    out
}

// ----- updates ----------------------------------------------------------------

pub const FIRST_NEW_EMPLOYEE: usize = 60_001;
pub const FIRST_NEW_SSN: usize = 800_000_000;
pub const FIRST_NEW_COURSE: usize = 1001;
/// `course-no` is declared `integer (1..9999)`.
const LAST_COURSE_NO: usize = 9999;
const NEW_SALARY: usize = 40_000;

/// Statements per `update_durable` round; the harness checkpoints after
/// each round, so one round is one checkpoint cycle (about a second).
const UPDATE_ROUND: usize = 500;

#[derive(Debug, Clone, Copy)]
enum Update {
    InsertCourse,
    InsertInstructor,
    ModifySalary,
    ModifyBirthdate,
    Swap,
    Delete,
}

/// The `update_durable` mix, in statements per 1000: 40% insert, 30% modify
/// a DVA, 20% exclude+include on `courses-enrolled`, 10% delete. Every
/// round holds exactly these shares, shuffled. Instructors are inserted as
/// often as they are deleted, so the person hierarchy — which a delete's
/// cost grows with — keeps its size and every round does the same work.
const UPDATE_MIX: [(Update, usize); 6] = [
    (Update::InsertCourse, 300),
    (Update::InsertInstructor, 100),
    (Update::ModifySalary, 150),
    (Update::ModifyBirthdate, 150),
    (Update::Swap, 200),
    (Update::Delete, 100),
];

/// Generates `update_durable` rounds and tracks what every acknowledged
/// statement did, so the reopened database can be checked against it.
#[derive(Debug, Clone)]
pub struct UpdateGen {
    model: Model,
    rng: Rng,
    /// Current salary of each loaded instructor.
    salary: Vec<usize>,
    /// Current `Model::birthdate` argument of each student.
    birth: Vec<usize>,
    next_person: usize,
    next_course: usize,
    /// Inserted instructors not yet deleted, by insertion number.
    live_new: Vec<usize>,
}

impl UpdateGen {
    pub fn new(model: &Model, seed: u64) -> UpdateGen {
        let s = model.scale;
        UpdateGen {
            model: model.clone(),
            rng: Rng::new(seed ^ 0x757064),
            salary: (0..s.instructors).map(Model::loaded_salary).collect(),
            birth: (0..s.students).collect(),
            next_person: 0,
            next_course: 0,
            live_new: Vec::new(),
        }
    }

    fn insert_course(&mut self) -> Stmt {
        if FIRST_NEW_COURSE + self.next_course > LAST_COURSE_NO {
            return self.insert_instructor();
        }
        let c = self.next_course;
        self.next_course += 1;
        stmt(
            Class::Insert,
            1,
            format!(
                "Insert course(course-no := {}, title := \"New-Course-{c}\", credits := 4).",
                FIRST_NEW_COURSE + c
            ),
        )
    }

    fn insert_instructor(&mut self) -> Stmt {
        let k = self.next_person;
        self.next_person += 1;
        self.live_new.push(k);
        stmt(
            Class::Insert,
            1,
            format!(
                "Insert instructor(name := \"New-Instructor-{k}\", soc-sec-no := {}, \
                 employee-nbr := {}, salary := {NEW_SALARY}.00, \
                 assigned-department := department with (dept-nbr = {})).",
                FIRST_NEW_SSN + k,
                FIRST_NEW_EMPLOYEE + k,
                FIRST_DEPT + self.rng.range(0, self.model.scale.departments)
            ),
        )
    }

    fn modify_salary(&mut self) -> Stmt {
        let i = self.rng.range(0, self.model.scale.instructors);
        // v2 (salary + bonus < 100000) stays true.
        self.salary[i] = 30_000 + self.rng.range(0, 50_000);
        stmt(
            Class::Modify,
            1,
            format!(
                "Modify instructor (salary := {}.00) Where employee-nbr = {}.",
                self.salary[i],
                FIRST_EMPLOYEE + i
            ),
        )
    }

    fn modify_birthdate(&mut self) -> Stmt {
        let st = self.rng.range(0, self.model.scale.students);
        self.birth[st] = self.rng.range(0, 360);
        Model::modify_birthdate(st, self.birth[st])
    }

    /// Drop one enrollment and add another in the same statement: the
    /// student keeps three courses of 4+ credits, so v1 stays true.
    fn swap(&mut self) -> Stmt {
        let s = self.model.scale;
        let st = self.rng.range(0, s.students);
        let slot = self.rng.range(0, ENROLLMENTS);
        let old = self.model.student_courses[st][slot];
        let new = loop {
            let c = self.rng.range(0, s.courses);
            if !self.model.student_courses[st].contains(&c) {
                break c;
            }
        };
        self.model.student_courses[st][slot] = new;
        stmt(
            Class::Swap,
            1,
            format!(
                "Modify student (courses-enrolled := exclude courses-enrolled with \
                 (course-no = {}), courses-enrolled := include course with (course-no = {})) \
                 Where soc-sec-no = {}.",
                FIRST_COURSE + old,
                FIRST_COURSE + new,
                FIRST_STUDENT_SSN + st
            ),
        )
    }

    /// Delete one of the first `eligible` inserted instructors (the whole
    /// person, so space is returned); insert instead when none is eligible.
    fn delete(&mut self, eligible: &mut usize) -> Stmt {
        if *eligible == 0 {
            return self.insert_instructor();
        }
        let k = self.live_new.remove(self.rng.range(0, *eligible));
        *eligible -= 1;
        stmt(Class::Delete, 1, format!("Delete person Where soc-sec-no = {}.", FIRST_NEW_SSN + k))
    }

    /// The next round of statements in the workload's mix.
    pub fn round(&mut self) -> Vec<Stmt> {
        let len = self.model.scale.per_round(UPDATE_ROUND);
        let mut kinds = Vec::with_capacity(len);
        for (kind, per_1000) in UPDATE_MIX {
            kinds.extend(std::iter::repeat_n(kind, per_1000 * len / 1000));
        }
        kinds.resize(len, Update::InsertCourse);
        self.rng.shuffle(&mut kinds);
        // Only instructors of earlier rounds are deleted. The first round
        // has none and inserts instead, which stocks every later round.
        let mut eligible = self.live_new.len();
        kinds
            .into_iter()
            .map(|kind| match kind {
                Update::InsertCourse => self.insert_course(),
                Update::InsertInstructor => self.insert_instructor(),
                Update::ModifySalary => self.modify_salary(),
                Update::ModifyBirthdate => self.modify_birthdate(),
                Update::Swap => self.swap(),
                Update::Delete => self.delete(&mut eligible),
            })
            .collect()
    }

    /// Retrieves that read back everything the workload may have changed,
    /// each with the exact rows (rendered `a|b|c`, sorted) the model holds.
    pub fn final_state(&self) -> Vec<(String, Vec<String>)> {
        let s = self.model.scale;
        let mut instructors: Vec<String> = (0..s.instructors)
            .map(|i| format!("{}|{}.00", FIRST_EMPLOYEE + i, self.salary[i]))
            .chain(
                self.live_new.iter().map(|k| format!("{}|{NEW_SALARY}.00", FIRST_NEW_EMPLOYEE + k)),
            )
            .collect();
        instructors.sort_unstable();
        let mut students = Vec::with_capacity(s.students * ENROLLMENTS);
        for st in 0..s.students {
            for c in self.model.student_courses[st] {
                students.push(format!(
                    "{}|{}|{}",
                    FIRST_STUDENT_SSN + st,
                    Model::birthdate(self.birth[st]),
                    FIRST_COURSE + c
                ));
            }
        }
        students.sort_unstable();
        let mut courses: Vec<String> = (0..s.courses)
            .map(|c| (FIRST_COURSE + c).to_string())
            .chain((0..self.next_course).map(|c| (FIRST_NEW_COURSE + c).to_string()))
            .collect();
        courses.sort_unstable();
        vec![
            ("From instructor Retrieve employee-nbr, salary.".into(), instructors),
            (
                "From student Retrieve soc-sec-no, birthdate, course-no of courses-enrolled."
                    .into(),
                students,
            ),
            ("From course Retrieve course-no.".into(), courses),
        ]
    }
}

// ----- served mix ---------------------------------------------------------------

/// Statements per client per `server_mixed` round.
const SERVER_ROUND: usize = 200;

/// One `server_mixed` client: 90% `point`/`nested` retrieves over the whole
/// database, 10% autocommit modifies on this client's own student range.
#[derive(Debug, Clone)]
pub struct ClientGen {
    model: Model,
    rng: Rng,
    /// The students this client alone writes: `first..first + birth.len()`.
    first: usize,
    /// Current `Model::birthdate` argument of each owned student.
    birth: Vec<usize>,
}

impl ClientGen {
    /// Client `index` of `clients`, owning an equal slice of the students.
    pub fn new(model: &Model, seed: u64, index: usize, clients: usize) -> ClientGen {
        let share = model.scale.students / clients;
        let first = index * share;
        ClientGen {
            model: model.clone(),
            rng: Rng::new(seed ^ (0x636c69 + index as u64)),
            first,
            birth: (first..first + share).collect(),
        }
    }

    /// Exactly five modifies (10%) and one `nested` (2%) in every fifty
    /// statements, the rest `point`, shuffled. With `nested` at 2% the 99th
    /// percentile of latency sits in the middle of the `nested` statements'
    /// latencies; at 10% it sat on their upper edge — behind one statement of
    /// the other client or behind two — and moved by 15% from run to run.
    pub fn round(&mut self) -> Vec<Stmt> {
        let s = self.model.scale;
        // Shuffle the kinds, then generate in sending order: the model must
        // see this client's modifies in the order the server will.
        let mut kinds: Vec<usize> = (0..s.per_round(SERVER_ROUND)).map(|i| i % 50).collect();
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|kind| match kind {
                0..=4 => {
                    let own = self.rng.range(0, self.birth.len());
                    self.birth[own] = self.rng.range(0, 360);
                    Model::modify_birthdate(self.first + own, self.birth[own])
                }
                5 => self.model.nested(self.rng.range(0, s.instructors)),
                _ => self.model.point(self.rng.range(0, s.students)),
            })
            .collect()
    }

    /// The retrieve that reads back this client's range, with the rows the
    /// model holds (rendered `ssn|birthdate`, sorted).
    pub fn final_state(&self) -> (String, Vec<String>) {
        let rows = self
            .birth
            .iter()
            .enumerate()
            .map(|(own, b)| {
                format!("{}|{}", FIRST_STUDENT_SSN + self.first + own, Model::birthdate(*b))
            })
            .collect();
        (
            format!(
                "From student Retrieve soc-sec-no, birthdate Where soc-sec-no >= {} and \
                 soc-sec-no < {}.",
                FIRST_STUDENT_SSN + self.first,
                FIRST_STUDENT_SSN + self.first + self.birth.len()
            ),
            rows,
        )
    }
}
