//! Mechanism gates, one test per mechanism: group commit and the plan
//! cache, plan verification, snapshot readers under a writer, the network
//! server's shared commit barrier, and cost-based plan choice. Each is held
//! in counted units (fsyncs, cache hits, lock acquisitions, block reads).
//!
//! Three claims are wall-clock ratios with no counted equivalent yet. Their
//! tests keep a best-of-N method and run only in an optimized build
//! (`cargo test --release --test smoke_gates`), where a ratio means
//! something.

use sim_bench::workloads::{populated_university, UniversityScale};
use sim_client::SimClient;
use sim_core::{ConcurrentDb, Database, MetricsSnapshot, Session};
use sim_ddl::UNIVERSITY_DDL;
use sim_dml::Statement;
use sim_query::bind::Binder;
use sim_query::optimizer;
use sim_server::{serve, Server, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A scratch directory unique to this process and `name`, emptied first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How far `counter` moved between two snapshots.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, counter: &str) -> u64 {
    after.counter(counter) - before.counter(counter)
}

/// Group commit and the plan cache. At group-commit window 1 each of 64
/// single-statement transactions fsyncs once; at window 8 one fsync covers
/// eight. A repeated statement text skips parse, bind and optimize on every
/// rerun.
#[test]
fn group_commit_amortizes_fsyncs_and_hot_queries_hit_the_plan_cache() {
    const TXNS: usize = 64;
    let dir = scratch_dir("commit");
    for (window, fsyncs) in [(1, TXNS), (8, TXNS / 8)] {
        let mut db = Database::create_at(UNIVERSITY_DDL, dir.join(format!("w{window}"))).unwrap();
        db.set_enforce_verifies(false);
        db.set_group_commit_window(window).unwrap();
        let before = db.metrics();
        for i in 0..TXNS {
            db.run_one(&format!("Insert department(dept-nbr := {}, name := \"D{i}\").", 500 + i))
                .unwrap();
        }
        assert_eq!(
            delta(&before, &db.metrics(), "storage.fsyncs"),
            fsyncs as u64,
            "window {window}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    const RERUNS: u64 = 200;
    let db = populated_university(UniversityScale::small(50), 42);
    let hot = "From department Retrieve name Where dept-nbr = 102.";
    let rows = db.query(hot).unwrap().rows().to_vec();
    let before = db.metrics();
    for _ in 0..RERUNS {
        assert_eq!(db.query(hot).unwrap().rows(), rows.as_slice());
    }
    let after = db.metrics();
    assert_eq!(delta(&before, &after, "query.plan_cache_hits"), RERUNS);
    assert_eq!(delta(&before, &after, "query.plan_cache_misses"), 0);
}

/// Statement constants above every stored soc-sec-no / student-nbr: the
/// probes plan like real queries but match no rows.
const NO_MATCH: usize = 900_000_000;

/// One statement of a three-shape mix: an index-range probe, an EVA
/// traversal and a two-perspective join.
fn plan_mix(i: usize) -> String {
    let c = NO_MATCH + i;
    match i % 3 {
        0 => format!("From student Retrieve name Where soc-sec-no >= {c}."),
        1 => format!("From student Retrieve name, name of advisor Where student-nbr >= {c}."),
        _ => format!(
            "From student, person Retrieve name of student \
             Where advisor of student = person And soc-sec-no of student >= {c}."
        ),
    }
}

/// Plan verification (DESIGN.md §13) runs on every plan-cache miss and
/// rejects nothing the optimizer emits.
#[test]
fn every_plan_cache_miss_is_verified_clean() {
    let db = populated_university(UniversityScale::small(50), 7);
    db.set_observation(true);
    db.reset_metrics();
    for i in 0..100 {
        db.query(&plan_mix(i)).unwrap();
    }
    let snap = db.metrics();
    let misses = snap.counter("query.plan_cache_misses");
    assert!(misses >= 100, "each distinct statement misses the cache ({misses})");
    assert_eq!(snap.histogram("query.plan_verify_micros").map_or(0, |h| h.count), misses);
    assert_eq!(snap.counter("query.plan_verify_violations"), 0);
}

/// Verifying a plan costs under 5% of producing it (parse, bind,
/// optimize). Both sides are timed directly, best of 5 loops of 1000
/// statements, so the ratio does not ride on the difference of two noisy
/// end-to-end sums.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio: run with --release")]
fn plan_verification_costs_under_5_percent_of_planning() {
    const ITERS: usize = 1000;
    const TRIALS: usize = 5;
    const MAX_FRACTION: f64 = 0.05;
    let db = populated_university(UniversityScale::small(50), 7);
    let texts: Vec<String> = (1..=ITERS).map(plan_mix).collect();
    let mapper = db.mapper();
    let prepare = |text: &str| {
        let Some(Statement::Retrieve(r)) =
            sim_dml::parse_statements(text).unwrap().into_iter().next()
        else {
            panic!("a retrieve")
        };
        let q = Binder::bind_retrieve(mapper.catalog(), &r).unwrap();
        let plan = optimizer::plan(mapper, &q).unwrap();
        (q, plan)
    };
    let (mut best_plan, mut best_verify, mut min_clock) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..TRIALS {
        // The cost of one clock pair, subtracted below: each verify batch
        // pays one. The floor is conservative (it leaves the most cost on
        // the verifier).
        let mut clock = 0.0;
        for _ in 0..ITERS {
            let t = Instant::now();
            std::hint::black_box(());
            clock += t.elapsed().as_secs_f64();
        }
        min_clock = min_clock.min(clock);
        let t = Instant::now();
        for text in &texts {
            std::hint::black_box(prepare(text));
        }
        best_plan = best_plan.min(t.elapsed().as_secs_f64());
        // Verify freshly prepared plans in batches of 8: still cache-warm,
        // as on the production miss path, with the clock amortized.
        let mut verify = 0.0;
        for chunk in texts.chunks(8) {
            let prepared: Vec<_> = chunk.iter().map(|t| prepare(t)).collect();
            let t = Instant::now();
            for (q, plan) in &prepared {
                std::hint::black_box(sim_check::verify_plan(mapper, q, plan));
            }
            verify += t.elapsed().as_secs_f64();
        }
        best_verify = best_verify.min(verify);
    }
    let verify = (best_verify - min_clock / 8.0).max(0.0);
    let fraction = verify / best_plan;
    assert!(fraction < MAX_FRACTION, "verification costs {:.2}% of planning", fraction * 100.0);
}

const SNAPSHOT_READ: &str = "From student Retrieve name, soc-sec-no Where soc-sec-no <= 700000009.";

/// A populated database, promoted to sessions.
fn concurrent_university() -> ConcurrentDb {
    populated_university(UniversityScale::small(50), 7).into_concurrent()
}

/// A writer session holding X locks on the student class family through
/// uncommitted modifies of the students `SNAPSHOT_READ` returns.
fn open_writer(cdb: &ConcurrentDb) -> Session {
    let mut writer = cdb.session();
    writer.begin().unwrap();
    for i in 0..10 {
        writer
            .run_one(&format!(
                "Modify student(name := \"Held-{i}\") Where soc-sec-no = {}.",
                700_000_000 + i
            ))
            .unwrap();
    }
    writer
}

/// Snapshot readers under an open writer: while the writer holds its X
/// locks, each reader statement takes one snapshot and no lock, so it
/// neither waits nor times out; after commit the reader sees the writes.
#[test]
fn snapshot_readers_take_no_locks_under_an_open_writer() {
    const READS: u64 = 50;
    let cdb = concurrent_university();
    let mut reader = cdb.session();
    let mut writer = open_writer(&cdb);
    assert!(cdb.metrics().counter("storage.lock_acquisitions") > 0, "the writer takes locks");
    let before = cdb.metrics();
    for _ in 0..READS {
        let out = reader.query(SNAPSHOT_READ).unwrap();
        assert!(!out.rows().is_empty() && !format!("{:?}", out.rows()).contains("Held-"));
    }
    let after = cdb.metrics();
    assert_eq!(delta(&before, &after, "storage.lock_acquisitions"), 0);
    assert_eq!(delta(&before, &after, "storage.lock_timeouts"), 0);
    assert_eq!(delta(&before, &after, "storage.snapshot_reads"), READS);
    writer.commit().unwrap();
    let out = reader.query("From student Retrieve name Where soc-sec-no = 700000000.").unwrap();
    assert!(sim_query::normalize::canonical(&out).contains("Held-0"));
}

/// Snapshot-reader throughput under the open writer stays at least half
/// of idle throughput (best of 5 loops of 300 statements each side).
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio: run with --release")]
fn snapshot_readers_keep_half_their_idle_throughput_under_a_writer() {
    let best_loop = |reader: &mut Session| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..300 {
                    std::hint::black_box(reader.query(SNAPSHOT_READ).unwrap());
                }
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let cdb = concurrent_university();
    let mut reader = cdb.session();
    best_loop(&mut reader); // warm up
    let idle = best_loop(&mut reader);
    let mut writer = open_writer(&cdb);
    let during = best_loop(&mut reader);
    writer.commit().unwrap();
    assert!(idle / during >= 0.5, "under a writer: {:.2}x idle throughput", idle / during);
}

/// Concurrent clients, each owning one class (a lock family of its own).
const CLIENTS: usize = 64;
const TXNS_PER_CLIENT: usize = 25;

/// A live server over a durable database of `CLIENTS` unrelated classes,
/// with the WAL window open so the server's cross-session barrier is the
/// durability point (1 ms coalescing window).
fn disjoint_class_server(dir: &std::path::Path) -> Server {
    let ddl: String =
        (0..CLIENTS).map(|c| format!("Class reg{c} ( id: integer; val: integer );\n")).collect();
    let mut db = Database::create_at(&ddl, dir).unwrap();
    db.set_group_commit_window(4 * CLIENTS).unwrap();
    let config = ServerConfig {
        workers: CLIENTS,
        backlog: CLIENTS,
        commit_delay: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    serve(db.into_concurrent(), config).unwrap()
}

/// `txns` begin/insert/commit transactions on one connection; seconds.
fn txn_loop(server: &Server, class: usize, base_id: usize, txns: usize) -> f64 {
    let mut client = SimClient::connect(server.addr()).unwrap();
    let t = Instant::now();
    for n in 0..txns {
        client.begin().unwrap();
        client.execute(&format!("Insert reg{class}(id := {}, val := {n}).", base_id + n)).unwrap();
        client.commit().unwrap();
    }
    let secs = t.elapsed().as_secs_f64();
    client.close().unwrap();
    secs
}

/// All `CLIENTS` clients at once, each on its own class; seconds.
fn concurrent_window(server: &Server) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || txn_loop(server, c, c * 1_000_000, TXNS_PER_CLIENT));
        }
    });
    t.elapsed().as_secs_f64()
}

/// The server's shared commit barrier: 64 concurrent connections are all
/// admitted, never time out on disjoint lock families, and their 1600
/// durable commits share fsyncs, at most one per three commits.
#[test]
fn concurrent_clients_share_commit_fsyncs() {
    let dir = scratch_dir("server");
    let mut server = disjoint_class_server(&dir);
    let before = server.db().metrics();
    concurrent_window(&server);
    let after = server.db().metrics();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(delta(&before, &after, "server.connections") >= CLIENTS as u64);
    assert_eq!(after.counter("server.rejected_connections"), 0);
    assert_eq!(after.counter("storage.lock_timeouts"), 0);
    let commits = (CLIENTS * TXNS_PER_CLIENT) as u64;
    let fsyncs = delta(&before, &after, "storage.fsyncs");
    assert!(fsyncs <= commits / 3, "{fsyncs} fsyncs for {commits} commits");
}

/// 64 connections commit at least 3x the rate of one connection, whose
/// every commit pays the whole coalescing delay and fsync alone.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio: run with --release")]
fn concurrent_clients_commit_3x_one_connection() {
    const BASE_TXNS: usize = 100;
    let dir = scratch_dir("server-rate");
    let mut server = disjoint_class_server(&dir);
    txn_loop(&server, 0, 10_000_000, BASE_TXNS / 4); // warm up
    let single_rate = BASE_TXNS as f64 / txn_loop(&server, 0, 20_000_000, BASE_TXNS);
    let aggregate_rate = (CLIENTS * TXNS_PER_CLIENT) as f64 / concurrent_window(&server);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = aggregate_rate / single_rate;
    assert!(speedup >= 3.0, "{CLIENTS} connections commit {speedup:.2}x one connection");
}

/// Cost-based plan choice. Two classes, each with a skewed attribute (90%
/// share one value) and a near-unique one, both indexed. The probes put the
/// skewed conjunct first: on priors alone both probes tie and the tie takes
/// the skewed one. After `analyze` the planner switches to the near-unique
/// probe, with identical rows and at least 2x fewer cold block reads.
#[test]
fn analyze_switches_plans_to_cheaper_probes() {
    const ROWS: usize = 1200;
    const QUERIES: [&str; 2] = [
        "From shipment Retrieve code Where status = \"open\" and code = \"c00042\".",
        "From customer Retrieve tag Where region = \"west\" and tag = \"t00777\".",
    ];
    let dir = scratch_dir("analyze");
    let mut db = Database::create_at(
        "Class shipment ( status: string[8]; code: string[8]; pad: string[120] );\n\
         Class customer ( region: string[8]; tag: string[8]; pad: string[120] );",
        &dir,
    )
    .unwrap();
    let pad = "x".repeat(100);
    let mut batch = String::new();
    for i in 0..ROWS {
        let (status, region) = if i % 10 == 0 { ("done", "east") } else { ("open", "west") };
        batch.push_str(&format!(
            "Insert shipment (status := \"{status}\", code := \"c{i:05}\", pad := \"{pad}\").\n\
             Insert customer (region := \"{region}\", tag := \"t{i:05}\", pad := \"{pad}\").\n"
        ));
        if batch.len() > 60_000 || i == ROWS - 1 {
            db.run(&batch).unwrap();
            batch.clear();
        }
    }
    for (class, attr) in
        [("shipment", "status"), ("shipment", "code"), ("customer", "region"), ("customer", "tag")]
    {
        db.create_index(class, attr).unwrap();
    }
    // Cold-pool (block reads, entity reads, rows) of every probe, with the
    // plans already cached so only execution is charged.
    let cold_run = |db: &Database| {
        let (mut blocks, mut entities, mut rows) = (0, 0, Vec::new());
        for q in QUERIES {
            db.query(q).unwrap();
            db.clear_cache();
            let before = db.metrics();
            rows.push(db.query(q).unwrap().rows().to_vec());
            let after = db.metrics();
            blocks += delta(&before, &after, "storage.block_reads");
            entities += delta(&before, &after, "luc.entity_reads");
        }
        (blocks, entities, rows)
    };

    let plan = db.explain(QUERIES[0]).unwrap();
    assert!(!plan.used_statistics);
    assert!(plan.explanation[0].contains(".status ="), "{:?}", plan.explanation);
    let (priors_blocks, priors_entities, priors_rows) = cold_run(&db);

    db.analyze().unwrap();
    let plan = db.explain(QUERIES[0]).unwrap();
    assert!(plan.used_statistics);
    assert!(plan.explanation[0].contains(".code ="), "{:?}", plan.explanation);
    let (stats_blocks, stats_entities, stats_rows) = cold_run(&db);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(priors_rows, stats_rows, "plan choice never changes results");
    assert!(priors_blocks >= 2 * stats_blocks, "{priors_blocks} vs {stats_blocks} block reads");
    assert!(stats_entities < priors_entities, "{stats_entities} vs {priors_entities} entities");
}
