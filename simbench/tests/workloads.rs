//! The benchmark checks the engine's answers against its own model of the
//! data; these tests check the benchmark: the population, the model's
//! predictions, failure accounting, crash recovery of the write workload,
//! and — with a round budget, so that results repeat exactly — the digest
//! each workload prints for seed 42.

use simbench::harness::{
    exec_in_process, run_end_to_end, Budget, Measured, Options, Outcome, Workload,
};
use simbench::spec::{MetricSpec, Spec};
use simbench::trace::run_traced;
use simbench::workloads::{
    bench_university, retrieve_adhoc_round, retrieve_hot_round, scan_cold_round, Backing, Class,
    Model, Scale, Stmt, ENROLLMENTS, FIRST_COURSE,
};
use std::path::PathBuf;

fn options(test: &str, seed: u64) -> Options {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    Options { scale: Scale::TINY, seed, budget: Budget::Rounds(2), scratch }
}

fn tiny_db(seed: u64) -> (Model, sim_core::Database) {
    let model = Model::generate(Scale::TINY, seed);
    let db = bench_university(&model, Backing::Mem, 256).expect("population loads");
    (model, db)
}

#[test]
fn population_loads_with_verify_on_and_has_prerequisite_chains() {
    let (model, db) = tiny_db(42);
    assert!(db.enforces_verifies(), "loaded under VERIFY v1, not around it");
    assert_eq!(db.entity_count("student").unwrap(), Scale::TINY.students);
    assert_eq!(db.entity_count("instructor").unwrap(), Scale::TINY.instructors);
    assert_eq!(db.entity_count("course").unwrap(), Scale::TINY.courses);
    assert_eq!(db.entity_count("department").unwrap(), Scale::TINY.departments);

    let enrollments =
        db.query("From student Retrieve soc-sec-no, credits of courses-enrolled.").unwrap();
    assert_eq!(enrollments.len(), Scale::TINY.students * ENROLLMENTS);
    assert!(model.course_credits.iter().all(|c| (4..=6).contains(c)), "so 3 courses >= 12");

    let last_of_first_chain = FIRST_COURSE + Scale::TINY.chain_len - 1;
    let closure = db
        .query(&format!(
            "From course Retrieve title of transitive(prerequisites) \
             Where course-no = {last_of_first_chain}."
        ))
        .unwrap();
    assert_eq!(closure.len(), Scale::TINY.chain_len - 1, "transitive() has real work to do");
}

#[test]
fn every_generated_retrieve_returns_what_the_model_predicts() {
    for seed in [42, 7] {
        let (model, mut db) = tiny_db(seed);
        for (name, list) in [
            ("retrieve_hot", retrieve_hot_round(&model, seed)),
            ("retrieve_adhoc", retrieve_adhoc_round(&model, seed)),
            ("scan_cold", scan_cold_round(&model, seed)),
        ] {
            let mut m = Measured::default();
            m.exec_all(&list, |s| exec_in_process(&mut db, s), None);
            assert_eq!(m.attempted, list.len() as u64);
            assert_eq!(m.failed, 0, "{name} seed {seed}: {:?}", m.failures);
        }
    }
}

#[test]
fn failed_and_wrong_statements_are_counted_not_fatal() {
    let (model, mut db) = tiny_db(42);
    let wrong_size = Stmt { expect: 2, ..model.point(1) };
    let list = [
        model.point(0),
        Stmt { text: "From no-such-class Retrieve name.".into(), class: Class::Point, expect: 1 },
        wrong_size,
        model.point(2),
    ];
    let mut m = Measured::default();
    m.exec_all(&list, |s| exec_in_process(&mut db, s), None);
    assert_eq!((m.attempted, m.failed), (4, 2), "the run went on past both failures");
    assert_eq!(m.lat_ns.len(), 4);
    assert!(m.failures[0].contains("no-such-class"), "{:?}", m.failures);
    assert!(m.failures[1].contains("expected 2 got 1"), "{:?}", m.failures);
}

/// The run is correct and reports only finite metrics that `BENCHMARK.json`
/// declares, each once.
fn assert_reports(outcome: &Outcome, declared: &[MetricSpec], what: &str) {
    assert!(outcome.correct(), "{what}: {} of {} failed", outcome.failed, outcome.attempted);
    let mut names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    assert!(names.windows(2).all(|w| w[0] != w[1]), "{what}: reported twice: {names:?}");
    for name in &names {
        assert!(declared.iter().any(|m| m.name == *name), "{what}: {name} is not declared");
    }
    assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()), "{what}: {:?}", outcome.metrics);
}

/// Both runs of one workload at the test scale; returns the untraced
/// run's digest.
fn run_both_ways(workload: Workload) -> u64 {
    let spec = Spec::load();
    let opts = options(workload.name(), 42);
    let plain = run_end_to_end(workload, &opts).expect("untraced run");
    assert_reports(&plain, &spec.end_to_end, workload.name());
    assert_eq!(plain.metrics.len(), spec.end_to_end.len(), "every end-to-end metric is reported");
    // The heap counters read 0 here: this test binary runs on the system
    // allocator, not the counting one.
    for (name, value) in &plain.metrics {
        assert!(*value > 0.0 || name.contains("alloc"), "{}: {name} is {value}", workload.name());
    }

    let traced = run_traced(workload, &opts).expect("traced run");
    assert_reports(&traced, &spec.per_layer, workload.name());
    let layer = |name: &str| traced.metric(name).unwrap_or(0.0);
    assert_eq!(layer("failed_frac"), 0.0);
    assert_eq!(layer("query.integrity_violations"), 0.0);
    match workload {
        Workload::RetrieveHot | Workload::RetrieveAdhoc | Workload::ScanCold => {
            assert_eq!(traced.digest, plain.digest, "both runs replay one statement list");
            assert_eq!(layer("fsyncs_per_stmt"), 0.0);
            assert_eq!(layer("wal_kb_per_stmt"), 0.0);
            assert!(layer("query.execute_us") > 0.0);
        }
        Workload::UpdateDurable => {
            assert!(layer("fsyncs_per_stmt") >= 1.0, "every commit fsyncs");
            assert!(layer("query.update_us") > 0.0 && layer("storage.recovery_ms") > 0.0);
        }
        Workload::ServerMixed => {
            assert!(layer("wire.roundtrip_us") > 0.0 && layer("session.scaling_2c") > 0.0);
            assert_eq!(layer("session.lock_timeouts"), 0.0);
        }
    }
    let trace = opts.scratch.join(format!("trace_{}.jsonl", workload.name()));
    let lines = std::fs::read_to_string(trace).expect("trace file");
    assert!(lines.lines().count() > 0 && lines.lines().all(|l| l.starts_with("{\"stmt\":")));
    plain.digest
}

// The digests below are those of seed 42 at `Scale::TINY` with two timed
// rounds. They change when the generated statements or the engine's
// answers change — never with timing.

#[test]
fn retrieve_hot_digest_is_pinned() {
    assert_eq!(run_both_ways(Workload::RetrieveHot), 0x3dcc0c203aecbf78);
}

#[test]
fn retrieve_adhoc_digest_is_pinned() {
    assert_eq!(run_both_ways(Workload::RetrieveAdhoc), 0x38e7b2014b75e71a);
}

#[test]
fn scan_cold_digest_is_pinned() {
    assert_eq!(run_both_ways(Workload::ScanCold), 0xa650b25efdad5117);
}

/// The database is dropped without `close()` and reopened; the run is only
/// correct if recovery finds every acknowledged statement's effect.
#[test]
fn update_durable_survives_the_crash_and_its_digest_is_pinned() {
    assert_eq!(run_both_ways(Workload::UpdateDurable), 0x115444f68e461d72);
}

#[test]
fn server_mixed_digest_is_pinned() {
    assert_eq!(run_both_ways(Workload::ServerMixed), 0xeb1b3b1563300d8c);
}
