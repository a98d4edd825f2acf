//! PR 10 smoke bench, check mode: on skewed data the cost-based plans
//! chosen after `\analyze` must beat the priors-only plans chosen before
//! it by at least [`MIN_RATIO`]× in measured block reads. Hard CI gates, dumped as
//! `BENCH_pr10.json` (to `$SIM_METRICS_DIR`, default `target/metrics/`).
//! Run with `--release`.
//!
//! Methodology: two classes, each with a low-cardinality skewed attribute
//! (~90% of entities share one value) and a near-unique attribute, both
//! B-tree indexed, padded so the heap spans many blocks. The probe query
//! puts the skewed conjunct *first*: without statistics the cost model
//! prices every non-unique equality at the same default prior
//! (`priors::EQ_SELECTIVITY`, 0.005), so both probes tie and the tie
//! breaks to the first conjunct — a probe that walks ~90% of the heap. After `analyze()`, per-attribute distinct counts price the
//! skewed probe honestly and the planner switches to the near-unique one.
//! Each plan runs against a cold buffer pool (`clear_cache`) and is
//! charged by `storage.block_reads` / `luc.entity_reads` counter deltas;
//! results must be identical before and after (the oracle's invariant),
//! only the I/O may change.

use sim_bench::metrics_dump::dump_json;
use sim_core::Database;
use sim_obs::json;

/// Entities per class.
const ROWS: usize = 1200;

/// The gate: priors-only-plan block reads over cost-based-plan block reads.
const MIN_RATIO: f64 = 2.0;

/// The two probe queries, skewed conjunct first (the priors-only trap).
const QUERIES: [&str; 2] = [
    "From shipment Retrieve code Where status = \"open\" and code = \"c00042\".",
    "From customer Retrieve tag Where region = \"west\" and tag = \"t00777\".",
];

fn populate(db: &mut Database) {
    let pad = "x".repeat(100);
    let mut batch = String::new();
    for i in 0..ROWS {
        let status = if i % 10 == 0 { "done" } else { "open" };
        let region = if i % 10 == 0 { "east" } else { "west" };
        batch.push_str(&format!(
            "Insert shipment (status := \"{status}\", code := \"c{i:05}\", pad := \"{pad}\").\n\
             Insert customer (region := \"{region}\", tag := \"t{i:05}\", pad := \"{pad}\").\n"
        ));
        if batch.len() > 60_000 {
            db.run(&batch).expect("bulk insert");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        db.run(&batch).expect("bulk insert");
    }
    for (class, attr) in
        [("shipment", "status"), ("shipment", "code"), ("customer", "region"), ("customer", "tag")]
    {
        db.create_index(class, attr).expect("secondary index");
    }
}

/// Run every probe query against a cold pool; returns the summed
/// (`storage.block_reads`, `luc.entity_reads`) counter deltas and the
/// result rows (for the results-must-not-change check).
fn cold_run(db: &Database) -> (u64, u64, Vec<Vec<Vec<sim_core::Value>>>) {
    let (mut blocks, mut entities, mut results) = (0, 0, Vec::new());
    for q in QUERIES {
        db.clear_cache();
        let before = db.metrics();
        let out = db.query(q).expect("probe query");
        let after = db.metrics();
        blocks += after.counter("storage.block_reads") - before.counter("storage.block_reads");
        entities += after.counter("luc.entity_reads") - before.counter("luc.entity_reads");
        results.push(out.rows().to_vec());
    }
    (blocks, entities, results)
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let dir = std::path::Path::new("target").join(format!("pr10-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ddl = "Class shipment ( status: string[8]; code: string[8]; pad: string[120] );\n\
               Class customer ( region: string[8]; tag: string[8]; pad: string[120] );";
    let mut db = Database::create_at(ddl, &dir).expect("durable skewed schema");
    populate(&mut db);

    // The trap must actually spring: before analyze the equal-prior tie
    // breaks to the first (skewed) conjunct's probe.
    let before_plan = db.explain(QUERIES[0]).expect("heuristic plan");
    assert!(!before_plan.used_statistics, "no statistics exist before analyze()");
    assert!(
        before_plan.explanation[0].contains(".status ="),
        "heuristic plan must probe the skewed attribute: {:?}",
        before_plan.explanation
    );

    // Warm the plan cache so the measured window is execution I/O only.
    for q in QUERIES {
        db.query(q).expect("warm plan cache");
    }
    let (heur_blocks, heur_entities, heur_rows) = cold_run(&db);

    let summary = db.analyze().expect("full-scan statistics collection");

    let after_plan = db.explain(QUERIES[0]).expect("cost-based plan");
    assert!(after_plan.used_statistics, "plans after analyze() must be statistics-backed");
    assert!(
        after_plan.explanation[0].contains(".code ="),
        "cost-based plan must switch to the near-unique probe: {:?}",
        after_plan.explanation
    );

    for q in QUERIES {
        db.query(q).expect("warm re-planned cache");
    }
    let (stats_blocks, stats_entities, stats_rows) = cold_run(&db);

    let ratio = heur_blocks as f64 / (stats_blocks as f64).max(1.0);
    println!(
        "probe queries over {ROWS}x2 skewed entities: heuristic plans read {heur_blocks} blocks \
         ({heur_entities} entities), cost-based plans read {stats_blocks} blocks \
         ({stats_entities} entities): {ratio:.1}x fewer"
    );

    dump_json(
        "BENCH_pr10",
        &json::object([
            ("bench", json::string("pr10_cost_based_plan_switch")),
            ("rows_per_class", ROWS.to_string()),
            ("classes_analyzed", summary.classes.to_string()),
            ("attributes_profiled", summary.attributes.to_string()),
            ("histograms_built", summary.histograms.to_string()),
            ("heuristic_block_reads", heur_blocks.to_string()),
            ("heuristic_entity_reads", heur_entities.to_string()),
            ("stats_block_reads", stats_blocks.to_string()),
            ("stats_entity_reads", stats_entities.to_string()),
            ("block_read_ratio", format!("{ratio:.4}")),
        ]),
    );

    db.close().expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);

    // Check mode: the gates.
    assert_eq!(heur_rows, stats_rows, "plan choice must never change query results");
    assert!(
        ratio >= MIN_RATIO,
        "cost-based plans must beat heuristic plans by >= {MIN_RATIO}x block reads \
         (got {heur_blocks} vs {stats_blocks}, {ratio:.2}x)"
    );
    assert!(
        stats_entities < heur_entities,
        "the near-unique probe must touch fewer entities ({stats_entities} vs {heur_entities})"
    );
    println!("PR10 smoke OK");
}
