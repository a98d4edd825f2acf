//! Every plan the engine executes comes from its one plan step (DESIGN.md
//! §10): the EXPLAIN family reports one plan, a plan the verifier rejects
//! is rejected on every route — retrieves, update selections and VERIFY
//! checks alike — and the phase metrics advance once per compile whoever
//! asked.

use sim_core::{Database, MetricsSnapshot, QueryOutput, SimError};
use sim_testkit::PlanBug;

/// Update routes whose selections each host an EVA traversal: WHERE on
/// MODIFY and DELETE, INSERT…FROM, `:= class WITH (…)` and
/// `EXCLUDE eva WITH (…)`. Every other selection they plan has none.
const UPDATE_ROUTES: [(&str, &str); 5] = [
    ("modify where", "Modify student (name := \"X\") Where name of advisor = \"I0\"."),
    ("delete where", "Delete student Where name of advisor = \"I0\"."),
    (
        "insert from",
        "Insert teaching-assistant From student Where name of advisor = \"I0\" \
         (employee-nbr := 1500).",
    ),
    (
        "set with",
        "Modify student (advisor := instructor with (name of advisees = \"S1\")) \
         Where soc-sec-no = 6000.",
    ),
    (
        "exclude with",
        "Modify instructor (advisees := exclude advisees with (name of advisor = \"I0\")) \
         Where employee-nbr = 1001.",
    ),
];

/// What the update routes could change, read without EVA traversal nodes
/// (aggregate chains are not traversal nodes), so the mutator leaves these
/// retrieves alone.
fn university_state(db: &Database) -> Vec<QueryOutput> {
    [
        "From person Retrieve name, soc-sec-no.",
        "From instructor Retrieve name, count(advisees).",
        "From teaching-assistant Retrieve name.",
    ]
    .map(|q| db.query(q).unwrap())
    .to_vec()
}

/// A schema whose VERIFY assertion traverses an EVA (UNIVERSITY's do not).
const BUDGET_DDL: &str =
    "Class Dept ( dept-no: integer unique required; budget: integer; staff: Emp inverse is dept mv );
     Class Emp ( emp-no: integer unique required; salary: integer; dept: Dept inverse is staff );
     Verify within-budget on Emp assert salary <= budget of dept else \"over budget\";";

fn populated_university() -> Database {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut script = String::new();
    for i in 0..4 {
        script.push_str(&format!(
            "Insert instructor(name := \"I{i}\", soc-sec-no := {}, employee-nbr := {}).\n",
            5000 + i,
            1001 + i
        ));
    }
    for s in 0..40 {
        script.push_str(&format!(
            "Insert student(name := \"S{s}\", soc-sec-no := {}, student-nbr := {},
                advisor := instructor with (employee-nbr = {})).\n",
            6000 + s,
            2001 + s,
            1001 + (s % 4)
        ));
    }
    db.run(&script).unwrap();
    db
}

#[test]
fn the_explain_family_reports_one_plan() {
    let mut db = populated_university();
    let q = "From student Retrieve name, name of advisor Where soc-sec-no = 6003.";
    for analyzed in [false, true] {
        if analyzed {
            db.analyze().unwrap();
        }
        let plain = db.explain(q).unwrap();
        let (verified, report) = db.explain_verified(q).unwrap();
        assert!(!report.has_errors(), "{}", report.to_text());
        let executed = db.explain_analyze(q).unwrap().plan;
        for other in [&verified, &executed] {
            assert_eq!(plain.root_order, other.root_order);
            assert_eq!(plain.access, other.access);
            assert_eq!(plain.est_rows, other.est_rows);
            assert_eq!(plain.used_statistics, other.used_statistics);
        }
        assert_eq!(plain.used_statistics, analyzed, "a property of the inputs");
    }
}

#[test]
fn a_plan_the_verifier_rejects_is_rejected_on_every_route() {
    let mut db = populated_university();
    let q = "From student Retrieve name, name of advisor.";
    let bug = PlanBug::EvaDirection;
    db.query(q).unwrap();
    // Installing the mutator clears the plan cache, so every route below
    // compiles afresh.
    db.set_plan_mutator(Some(bug.mutator(&db.mapper().shared_catalog())));

    let (_, report) = db.explain_verified(q).unwrap();
    assert!(
        report.codes().iter().any(|c| c.as_str() == bug.expected_code()),
        "{}",
        report.to_text()
    );
    let assert_rejected = |route: &str, err: SimError| {
        let msg = err.to_string();
        assert!(
            msg.contains("plan verification failed") && msg.contains(bug.expected_code()),
            "{route}: {msg}"
        );
    };
    assert_rejected("explain", db.explain(q).unwrap_err());
    assert_rejected("explain_analyze", db.explain_analyze(q).unwrap_err());
    assert_rejected("query", db.query(q).unwrap_err());
    assert_rejected("run", db.run(q).unwrap_err());
    assert_rejected("open_cursor", db.open_cursor(q).unwrap_err());

    let violations = |db: &Database| db.metrics().counter("query.plan_verify_violations");
    let before = university_state(&db);
    for (route, stmt) in UPDATE_ROUTES {
        let counted = violations(&db);
        assert_rejected(route, db.run_one(stmt).unwrap_err());
        assert_eq!(violations(&db), counted + 1, "{route}");
        assert_eq!(university_state(&db), before, "{route} left the database unchanged");
    }

    let db = db.into_concurrent();
    let mut session = db.session();
    assert_rejected("prepare", session.prepare(q).unwrap_err());
    assert_rejected("session query", session.query(q).unwrap_err());
    assert_eq!(db.metrics().counter("query.plan_verify_violations"), 12);

    // A triggered VERIFY: the statement's own selection hosts no EVA, the
    // constraint's assertion does.
    let mut db = Database::create(BUDGET_DDL).unwrap();
    db.run(
        "Insert dept(dept-no := 1, budget := 100).
         Insert emp(emp-no := 1, salary := 10, dept := dept with (dept-no = 1)).",
    )
    .unwrap();
    db.set_plan_mutator(Some(bug.mutator(&db.mapper().shared_catalog())));
    assert_rejected(
        "verify",
        db.run_one("Modify emp (salary := 20) Where emp-no = 1.").unwrap_err(),
    );
    assert_eq!(violations(&db), 1);
    let salaries = db.query("From emp Retrieve salary.").unwrap();
    assert_eq!(salaries.rows(), &[vec![sim_core::Value::Int(10)]], "rolled back");
}

/// (bind observations, optimize observations, plans counted by estimate
/// source) — each advances exactly once per compile.
fn compiles(m: &MetricsSnapshot) -> (u64, u64, u64) {
    let observed = |name: &str| m.histogram(name).map_or(0, |h| h.count);
    (
        observed("query.bind_micros"),
        observed("query.optimize_micros"),
        m.counter("query.estimate_fallbacks") + m.counter("query.estimate_stats_used"),
    )
}

#[test]
fn phase_metrics_advance_once_per_compile_whoever_compiled() {
    let mut db = populated_university();
    // A distinct text per entry point, so none is served by the plan cache.
    let text = |n: usize| format!("From student Retrieve name Where soc-sec-no = {}.", 6000 + n);
    let expect_one_compile = |route: &str, before: MetricsSnapshot, after: MetricsSnapshot| {
        let (b, a) = (compiles(&before), compiles(&after));
        assert_eq!((a.0 - b.0, a.1 - b.1, a.2 - b.2), (1, 1, 1), "{route}");
    };

    let before = db.metrics();
    db.explain(&text(0)).unwrap();
    expect_one_compile("explain", before, db.metrics());
    let before = db.metrics();
    db.explain_verified(&text(1)).unwrap();
    expect_one_compile("explain_verified", before, db.metrics());
    let before = db.metrics();
    db.verify_plan(&text(2)).unwrap();
    expect_one_compile("verify_plan", before, db.metrics());
    let before = db.metrics();
    db.explain_analyze(&text(3)).unwrap();
    expect_one_compile("explain_analyze", before, db.metrics());
    let before = db.metrics();
    db.query(&text(4)).unwrap();
    expect_one_compile("query", before, db.metrics());
    let before = db.metrics();
    db.run(&text(5)).unwrap();
    expect_one_compile("run", before, db.metrics());
    let before = db.metrics();
    db.open_cursor(&text(6)).unwrap();
    expect_one_compile("open_cursor", before, db.metrics());

    // A cache hit compiles nothing.
    let before = db.metrics();
    db.query(&text(4)).unwrap();
    assert_eq!(compiles(&before), compiles(&db.metrics()));
    assert_eq!(db.metrics().counter("query.estimate_stats_used"), 0, "never analyzed");

    // After analyze() the same counters move, under the other label.
    db.analyze().unwrap();
    let before = db.metrics();
    db.query(&text(4)).unwrap();
    expect_one_compile("query after analyze", before, db.metrics());
    assert_eq!(db.metrics().counter("query.estimate_stats_used"), 1);

    let db = db.into_concurrent();
    let mut session = db.session();
    let before = db.metrics();
    let canonical = session.prepare(&text(7)).unwrap();
    expect_one_compile("prepare", before, db.metrics());
    let before = db.metrics();
    session.query(&canonical).unwrap();
    assert_eq!(compiles(&before), compiles(&db.metrics()), "prepared text hits its pinned plan");
    session.unprepare(&canonical);
}
