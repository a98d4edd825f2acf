//! Optimizer behaviour: join strategies, perspective reordering with the
//! semantics-preserving sort, the default priors an un-analyzed database is
//! priced with, and correctness under a pressured buffer pool.

use sim_ddl::university_catalog;
use sim_luc::Mapper;
use sim_query::{AccessPath, Plan, QueryEngine};
use sim_types::Value;
use std::sync::Arc;

fn engine_with_pool(pool: usize) -> QueryEngine {
    let mapper = Mapper::new(Arc::new(university_catalog()), pool).unwrap();
    let mut e = QueryEngine::new(mapper).unwrap();
    e.enforce_verifies = false;
    e
}

fn populate(e: &mut QueryEngine, students: usize) {
    let mut script = String::new();
    for i in 0..(students / 10).max(1) {
        script.push_str(&format!(
            "Insert instructor(name := \"I{i}\", soc-sec-no := {}, employee-nbr := {}).\n",
            5000 + i,
            1001 + i
        ));
    }
    e.run(&script).unwrap();
    let instructors = (students / 10).max(1);
    let mut script = String::new();
    for s in 0..students {
        script.push_str(&format!(
            "Insert student(name := \"S{s}\", soc-sec-no := {}, student-nbr := {},
                advisor := instructor with (employee-nbr = {})).\n",
            6000 + s,
            2001 + s,
            1001 + (s % instructors)
        ));
    }
    e.run(&script).unwrap();
}

#[test]
fn index_nested_loop_join_between_perspectives() {
    let mut e = engine_with_pool(512);
    populate(&mut e, 60);
    // Value-based join through the UNIQUE (indexed) soc-sec-no: the
    // optimizer should probe the inner perspective instead of scanning it.
    let q = "From student, person
             Retrieve name of student
             Where soc-sec-no of student = soc-sec-no of person.";
    let plan = e.explain(q).unwrap();
    assert!(
        plan.explanation.iter().any(|l| l.contains("index nested-loop join")),
        "{:?}",
        plan.explanation
    );
    let out = e.query(q).unwrap();
    assert_eq!(out.rows().len(), 60, "every student joins itself as a person");
}

#[test]
fn join_order_permutation_requires_restoring_sort() {
    let mut e = engine_with_pool(512);
    populate(&mut e, 40);
    // A selective predicate on the SECOND perspective: iterating it first
    // is cheaper, but the implicit ordering follows the declared order, so
    // the optimizer must either keep the order or charge a sort.
    let q = "From student, instructor
             Retrieve name of student, name of instructor
             Where employee-nbr of instructor = 1001 and advisor of student = instructor.";
    let plan = e.explain(q).unwrap();
    let out = e.query(q).unwrap();
    // Rows must come back in student (declaration-order perspective)
    // surrogate order regardless of the strategy chosen.
    let names: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
    let mut sorted = names.clone();
    sorted.sort_by_key(|n| n[1..].parse::<usize>().unwrap());
    assert_eq!(names, sorted, "perspective ordering preserved (plan: {:?})", plan.explanation);
    assert_eq!(out.rows().len(), 10, "students advised by I0");
}

#[test]
fn explain_reports_cost_reduction_for_selective_plans() {
    let mut e = engine_with_pool(512);
    populate(&mut e, 100);
    let scan_plan = e.explain("From student Retrieve name.").unwrap();
    let probe_plan = e.explain("From student Retrieve name Where soc-sec-no = 6000.").unwrap();
    assert!(probe_plan.estimated_io < scan_plan.estimated_io);
}

#[test]
fn queries_survive_a_tiny_buffer_pool() {
    // A 4-frame pool forces constant eviction through every structure;
    // results must not change.
    let mut small = engine_with_pool(4);
    populate(&mut small, 50);
    let mut large = engine_with_pool(4096);
    populate(&mut large, 50);

    for q in [
        "From student Retrieve name, name of advisor.",
        "From instructor Retrieve name, count(advisees) of instructor.",
        "From student Retrieve name Where soc-sec-no >= 6040.",
        "From person Retrieve Table Distinct profession.",
    ] {
        let a = small.query(q).unwrap();
        let b = large.query(q).unwrap();
        assert_eq!(a.rows(), b.rows(), "{q}");
    }
    // Updates under pressure, including rollback.
    small.enforce_verifies = true;
    let err = small
        .run_one(
            "Modify instructor (salary := 90000.00, bonus := 20000.00) Where employee-nbr = 1001.",
        )
        .unwrap_err();
    assert!(matches!(err, sim_query::QueryError::IntegrityViolation { .. }));
    let out = small.query("From instructor Retrieve salary Where employee-nbr = 1001.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Null]], "rolled back under eviction pressure");
}

#[test]
fn plan_explanations_name_the_strategy() {
    let mut e = engine_with_pool(256);
    populate(&mut e, 30);
    let plan = e.explain("From student Retrieve name.").unwrap();
    assert_eq!(plan.explanation.len(), 2, "strategy line plus estimated-output line");
    assert!(plan.explanation[0].starts_with("perspective 1: scan"));
    assert!(plan.explanation[1].starts_with("estimated output:"));
    let plan = e.explain("From student Retrieve name Where soc-sec-no = 6001.").unwrap();
    assert!(plan.explanation[0].contains("index probe"));
    assert!(plan.estimated_io > 0.0);
}

/// The four probe shapes of the priors test, in a fixed order.
fn prior_probe_plans(e: &QueryEngine) -> [Plan; 4] {
    [
        // UNIQUE attribute: at most one match, known without statistics.
        "From student Retrieve name Where soc-sec-no = 6500.",
        // Secondary index, distinct count unknown until analyzed.
        "From student Retrieve soc-sec-no Where name = \"S500\".",
        // The last 5 of 1000 students.
        "From student Retrieve name Where soc-sec-no >= 6995.",
        // All but the first 100.
        "From student Retrieve name Where soc-sec-no >= 6100.",
    ]
    .map(|q| e.explain(q).unwrap())
}

#[test]
fn one_cost_model_prices_priors_and_statistics_alike() {
    let mut e = engine_with_pool(4096);
    populate(&mut e, 1000);
    let person = e.mapper().catalog().class_by_name("person").unwrap().id;
    let name = e.mapper().catalog().resolve_attr(person, "name").unwrap();
    e.mapper_mut().create_index(name).unwrap();
    let counter = |e: &QueryEngine, name: &str| e.registry().snapshot().counter(name);
    let is_probe = |p: &Plan| matches!(p.access[0], AccessPath::IndexEq { .. });
    let is_scan = |p: &Plan| matches!(p.access[0], AccessPath::FullScan { .. });

    // Populating planned its WITH selectors too: count from here on.
    let fallbacks = counter(&e, "query.estimate_fallbacks");
    let stats_used = counter(&e, "query.estimate_stats_used");

    // Never analyzed: every estimate is a default prior.
    let [unique, secondary, short, wide] = prior_probe_plans(&e);
    for plan in [&unique, &secondary, &short, &wide] {
        assert!(!plan.used_statistics, "{:?}", plan.explanation);
        assert!(plan.explanation.last().unwrap().ends_with("(from default priors)"));
    }
    assert!(is_probe(&unique), "{:?}", unique.explanation);
    assert!(unique.estimated_rows <= 1.0);
    assert!(is_probe(&secondary), "{:?}", secondary.explanation);
    assert_eq!(secondary.estimated_rows, 5.0, "EQ_SELECTIVITY prior: 1000 / 200");
    // No histogram: both ranges are a third of the class, dearer through
    // the index than a scan, so neither can be told short from wide.
    for range in [&short, &wide] {
        assert!(is_scan(range), "{:?}", range.explanation);
        assert!((range.estimated_rows - 1000.0 / 3.0).abs() < 1e-6);
    }
    assert_eq!(counter(&e, "query.estimate_fallbacks"), fallbacks + 4);
    assert_eq!(counter(&e, "query.estimate_stats_used"), stats_used);

    // Analyzed: the same code path, now fed measured inputs.
    e.analyze().unwrap();
    let [unique, secondary, short, wide] = prior_probe_plans(&e);
    for plan in [&unique, &secondary, &short, &wide] {
        assert!(plan.used_statistics, "{:?}", plan.explanation);
        assert!(plan.explanation.last().unwrap().ends_with("(from statistics)"));
    }
    assert!(is_probe(&unique), "{:?}", unique.explanation);
    assert!(is_probe(&secondary), "{:?}", secondary.explanation);
    assert!(secondary.estimated_rows <= 2.0, "measured: every name is distinct");
    assert!(
        matches!(short.access[0], AccessPath::IndexRange { .. }),
        "a short range walks the B-tree: {:?}",
        short.explanation
    );
    assert!(is_scan(&wide), "a wide range scans: {:?}", wide.explanation);
    assert_eq!(counter(&e, "query.estimate_fallbacks"), fallbacks + 4);
    assert_eq!(counter(&e, "query.estimate_stats_used"), stats_used + 4);
}
