//! The traced run: every per-layer metric of one workload.
//!
//! Layers are measured from outside the engine. Pass A replays the
//! workload through the same calls the untraced run makes and differences
//! `Database::metrics()` snapshots around it. Pass B replays it through a
//! hand-driven pipeline — `parse_statement` → `Binder::bind_retrieve` →
//! `optimizer::plan` → `verify_plan` → `Executor::run` — recording one span
//! per call. Direct-call probes of the mapper, the storage engine and the
//! schema compiler run last. Spans stay in memory and are written as JSON
//! lines when the workload ends.

use crate::harness::{
    check_final_state, run_in_process, run_served, setup, start_server, Budget, Digest, Measured,
    Options, Outcome, Rounds, Workload, CLIENTS, POOL,
};
use crate::stats::mean;
use crate::workloads::{
    Class, ClientGen, Model, Stmt, ENROLLMENTS, FIRST_COURSE, FIRST_NEW_COURSE, FIRST_STUDENT_SSN,
};
use sim_client::SimClient;
use sim_core::{Database, ExecResult, QueryOutput, Value};
use sim_dml::Statement;
use sim_luc::AttrValue;
use sim_obs::{Counter, MetricsSnapshot};
use sim_query::bind::Binder;
use sim_query::exec::Executor;
use sim_query::{optimizer, BoundQuery, Plan};
use sim_storage::{BTreeId, FileId};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Spans kept per traced run (about 50 bytes each in memory).
const SPAN_CAPACITY: usize = 150_000;
/// The engine's plan cache holds this many plans; the hand-driven pipeline
/// keeps as many.
const PLAN_CACHE_ENTRIES: usize = 64;
/// Point retrieves replayed through `Database`, `Session` and the wire to
/// price each facade.
const FACADE_SAMPLE: usize = 200;
/// Calls per direct-call probe.
const PROBE_CALLS: usize = 2000;

const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Statement the call belongs to; spans of one statement share it.
    pub stmt: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub class: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `luc.entity_reads` / `storage.block_reads` inside the span.
    pub entity_reads: u64,
    pub block_reads: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    entity_reads: Arc<Counter>,
    block_reads: Arc<Counter>,
}

impl Tracer {
    fn new(db: &Database) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            entity_reads: db.registry().counter("luc.entity_reads"),
            block_reads: db.registry().counter("storage.block_reads"),
        }
    }

    fn has_room_for(&self, stmts: usize) -> bool {
        // At most 7 spans per statement.
        self.spans.len() + stmts * 7 <= SPAN_CAPACITY
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, stmt: u32, parent: u32, name: &'static str, class: Class) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            stmt,
            id,
            parent,
            name,
            class: class.name(),
            start_ns: self.now(),
            end_ns: 0,
            entity_reads: self.entity_reads.get(),
            block_reads: self.block_reads.get(),
        });
        id
    }

    fn close(&mut self, id: u32) {
        let (now, entity_reads, block_reads) =
            (self.now(), self.entity_reads.get(), self.block_reads.get());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.entity_reads = entity_reads - span.entity_reads;
        span.block_reads = block_reads - span.block_reads;
    }

    fn timed<T>(
        &mut self,
        stmt: u32,
        parent: u32,
        name: &'static str,
        class: Class,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(stmt, parent, name, class);
        let out = call();
        self.close(id);
        out
    }

    /// Total microseconds of spans called `name`, and how many there are.
    fn total_us(&self, name: &str, class: Option<&str>) -> (f64, usize) {
        let mut total = 0u64;
        let mut count = 0;
        for s in &self.spans {
            if s.name == name && class.is_none_or(|c| c == s.class) {
                total += s.end_ns - s.start_ns;
                count += 1;
            }
        }
        (total as f64 / 1e3, count)
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"stmt\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"class\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"entity_reads\":{},\"block_reads\":{}}}",
                s.stmt, s.id, s.name, s.class, s.start_ns, s.end_ns, s.entity_reads, s.block_reads
            )?;
        }
        out.flush()
    }
}

type PlanCache = HashMap<String, (Arc<BoundQuery>, Arc<Plan>)>;

/// One retrieve through the hand-driven pipeline, a span per layer call.
fn hand_retrieve(
    db: &Database,
    tr: &mut Tracer,
    cache: &mut PlanCache,
    id: u32,
    stmt: &Stmt,
) -> Result<QueryOutput, String> {
    let class = stmt.class;
    let root = tr.open(id, NO_PARENT, "statement", class);
    let cached = tr.timed(id, root, "plan-cache", class, || cache.get(&stmt.text).cloned());
    let planned = match cached {
        Some(hit) => Ok(hit),
        None => (|| {
            let parsed = tr
                .timed(id, root, "parse", class, || sim_dml::parse_statement(&stmt.text))
                .map_err(|e| e.to_string())?;
            let Statement::Retrieve(retrieve) = parsed else {
                return Err("not a retrieve".to_string());
            };
            let bound = tr
                .timed(id, root, "bind", class, || Binder::bind_retrieve(db.catalog(), &retrieve))
                .map_err(|e| e.to_string())?;
            let plan = tr
                .timed(id, root, "optimize", class, || optimizer::plan(db.mapper(), &bound))
                .map_err(|e| e.to_string())?;
            let report = tr.timed(id, root, "verify_plan", class, || {
                sim_check::verify_plan(db.mapper(), &bound, &plan)
            });
            if report.has_errors() {
                return Err(report.to_text());
            }
            if cache.len() >= PLAN_CACHE_ENTRIES {
                cache.clear();
            }
            let entry = (Arc::new(bound), Arc::new(plan));
            cache.insert(stmt.text.clone(), entry.clone());
            Ok(entry)
        })(),
    };
    let out = planned.and_then(|(bound, plan)| {
        tr.timed(id, root, "execute", class, || Executor::new(db.mapper(), &bound, &plan).run())
            .map_err(|e| e.to_string())
    });
    tr.close(root);
    out
}

/// One update: a hand-timed parse, then the facade call (which parses the
/// text again — `Database` offers no way in for a parsed statement).
fn hand_update(
    db: &mut Database,
    tr: &mut Tracer,
    id: u32,
    stmt: &Stmt,
) -> Result<ExecResult, String> {
    let class = stmt.class;
    let root = tr.open(id, NO_PARENT, "statement", class);
    let parsed = tr.timed(id, root, "parse", class, || sim_dml::parse_statement(&stmt.text));
    black_box(&parsed);
    let out = tr.timed(id, root, "run_one", class, || db.run_one(&stmt.text));
    tr.close(root);
    out.map_err(|e| e.to_string())
}

/// Pass B for the in-process workloads.
fn hand_driven_pass(
    db: &mut Database,
    rounds: &mut Rounds,
    budget: Budget,
    tr: &mut Tracer,
    digest: &mut Digest,
) -> Measured {
    let mut m = Measured::default();
    let mut cache = PlanCache::new();
    let mut next_id = 0u32;
    let started = Instant::now();
    // Like the untraced run: a warm-up round (it feeds the digest), then
    // measured rounds. Its spans are dropped.
    let mut warm = true;
    while warm || !budget.spent(started, m.rounds.len()) {
        let stmts = rounds.next_round();
        if !tr.has_room_for(stmts.len()) {
            break;
        }
        let mut run = |m: &mut Measured, digest: Option<&mut Digest>| {
            m.exec_all(
                &stmts,
                |s| {
                    next_id += 1;
                    if s.class.is_retrieve() {
                        hand_retrieve(db, tr, &mut cache, next_id, s).map(ExecResult::Rows)
                    } else {
                        hand_update(db, tr, next_id, s)
                    }
                },
                digest,
            );
        };
        if warm {
            run(&mut m, Some(digest));
            m.forget_samples();
            tr.spans.clear();
            warm = false;
        } else {
            m.round(stmts.len(), |m| run(m, None));
        }
    }
    m
}

// ----- direct-call probes -----------------------------------------------------

/// Call `call` `calls` times and report the mean time of one call as
/// `name`, in units of `unit_ns` nanoseconds. A call that fails is counted
/// as a failure of the run, and the metric is left out.
fn probe(
    m: &mut Measured,
    out: &mut Vec<(&'static str, f64)>,
    (name, unit_ns): (&'static str, f64),
    calls: usize,
    mut call: impl FnMut(usize) -> bool,
) {
    let mut ok = true;
    let t = Instant::now();
    for i in 0..calls {
        ok &= black_box(call(i));
    }
    let ns = t.elapsed().as_nanos() as f64 / calls as f64;
    if ok {
        out.push((name, ns / unit_ns));
    } else {
        m.fail(format!("probe {name}: a call failed"));
    }
}

/// Mapper and storage probes on the workload's own database.
fn engine_probes(
    db: &mut Database,
    model: &Model,
    m: &mut Measured,
    out: &mut Vec<(&'static str, f64)>,
) {
    let cat = db.catalog();
    let attr = |class: &str, name: &str| {
        let class = cat.class_by_name(class).expect("UNIVERSITY class").id;
        (class, cat.resolve_attr(class, name).expect("UNIVERSITY attribute"))
    };
    let (_, ssn) = attr("student", "soc-sec-no");
    let (_, name) = attr("student", "name");
    let (_, enrolled) = attr("student", "courses-enrolled");
    let (course, course_no) = attr("course", "course-no");
    let (_, title) = attr("course", "title");
    let (_, credits) = attr("course", "credits");

    let keys: Vec<Value> = (0..model.scale.students.min(256))
        .map(|s| Value::Int((FIRST_STUDENT_SSN + s) as i64))
        .collect();
    let mapper = db.mapper();
    let students: Vec<_> =
        keys.iter().filter_map(|k| mapper.lookup_unique(ssn, k).ok().flatten()).collect();
    // The first heap file and the first B-tree the engine created.
    let engine = mapper.engine();
    let rids: Vec<_> = engine
        .heap_scan_all(FileId(0))
        .map(|records| records.into_iter().take(256).map(|(rid, _)| rid).collect())
        .unwrap_or_default();
    let tree_keys: Vec<_> = engine
        .btree_scan_all(BTreeId(0))
        .map(|entries| entries.into_iter().take(256).map(|(key, _)| key).collect())
        .unwrap_or_default();
    if students.len() != keys.len() || rids.is_empty() || tree_keys.is_empty() {
        return m.fail("probes: the loaded students, heap file 0 or B-tree 0 are missing".into());
    }
    probe(m, out, ("luc.lookup_eq_ns", 1.0), PROBE_CALLS, |i| {
        mapper.lookup_eq(ssn, &keys[i % keys.len()], false).is_ok_and(|found| found.is_some())
    });
    probe(m, out, ("luc.read_attr_ns", 1.0), PROBE_CALLS, |i| {
        mapper.read_attr(students[i % students.len()], name).is_ok()
    });
    probe(m, out, ("luc.eva_partners_ns", 1.0), PROBE_CALLS, |i| {
        mapper
            .eva_partners(students[i % students.len()], enrolled)
            .is_ok_and(|courses| courses.len() == ENROLLMENTS)
    });
    probe(m, out, ("storage.heap_get_ns", 1.0), PROBE_CALLS, |i| {
        engine.heap_get(FileId(0), rids[i % rids.len()]).is_ok_and(|record| record.is_some())
    });
    probe(m, out, ("storage.btree_lookup_ns", 1.0), PROBE_CALLS, |i| {
        engine
            .btree_lookup_first(BTreeId(0), &tree_keys[i % tree_keys.len()])
            .is_ok_and(|value| value.is_some())
    });

    // Insert courses in one transaction, then abort it: the database is
    // left as it was.
    let mapper = db.mapper_mut();
    let mut txn = mapper.begin();
    probe(m, out, ("luc.insert_entity_us", 1e3), PROBE_CALLS / 10, |i| {
        let assigns = [
            (course_no, AttrValue::Scalar(Value::Int((FIRST_NEW_COURSE + 5000 + i) as i64))),
            (title, AttrValue::Scalar(Value::Str(format!("Probe-{i}")))),
            (credits, AttrValue::Scalar(Value::Int(4))),
        ];
        mapper.insert_entity(&mut txn, course, &assigns).is_ok()
    });
    if let Err(e) = mapper.abort(txn) {
        m.fail(format!("probe luc.insert_entity_us: abort: {e}"));
    }
}

/// sim-ddl / sim-catalog: compile the UNIVERSITY schema and an ADDS-scale
/// one (13 base classes, 209 subclasses, 530 DVAs).
fn ddl_probes(m: &mut Measured, out: &mut Vec<(&'static str, f64)>) {
    probe(m, out, ("ddl.compile_university_us", 1e3), 20, |_| {
        sim_ddl::compile_schema(sim_ddl::UNIVERSITY_DDL).is_ok()
    });
    let adds = sim_ddl::render_catalog(&sim_catalog::generator::adds_scale_schema());
    probe(m, out, ("ddl.compile_adds_ms", 1e6), 2, |_| sim_ddl::compile_schema(&adds).is_ok());
}

/// Time a real WAL fsync: widen the group-commit window so that a commit
/// leaves its record unsynced, commit, then time the barrier.
fn fsync_probe(db: &mut Database, m: &mut Measured, out: &mut Vec<(&'static str, f64)>) {
    let mut us = Vec::new();
    for i in 0..10 {
        let commit = format!(
            "Modify course (title := \"Course-0 rev {i}\") Where course-no = {FIRST_COURSE}."
        );
        let pending = db.set_group_commit_window(2).and_then(|()| db.run_one(&commit));
        let t = Instant::now();
        let synced = pending.and_then(|_| db.sync_wal());
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if let Err(e) = synced.and_then(|()| db.set_group_commit_window(1)) {
            return m.fail(format!("probe wal.fsync_us: {e}"));
        }
    }
    out.push(("wal.fsync_us", mean(&us)));
}

fn facade_sample(model: &Model, seed: u64) -> Vec<Stmt> {
    let mut rng = sim_testkit::Rng::new(seed ^ 0x666163);
    (0..FACADE_SAMPLE).map(|_| model.point(rng.range(0, model.scale.students))).collect()
}

/// Mean microseconds per statement of `sample` through `query`.
fn facade_us(
    m: &mut Measured,
    sample: &[Stmt],
    mut query: impl FnMut(&str) -> Result<QueryOutput, String>,
) -> f64 {
    let at = m.lat_ns.len();
    m.exec_all(sample, |s| query(&s.text).map(ExecResult::Rows), None);
    let us = m.lat_ns[at..].iter().sum::<u64>() as f64 / 1e3 / sample.len() as f64;
    m.lat_ns.truncate(at);
    us
}

// ----- assembling the metrics -------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer figures that come from differencing registry snapshots around
/// pass A (`n` statements).
fn counter_metrics(d: &MetricsSnapshot, m: &Measured, out: &mut Vec<(&'static str, f64)>) {
    let c = |name: &str| d.counter(name) as f64;
    let n = m.stmts() as f64;
    let commits = c("storage.txn_commits");
    let (hits, misses) = (c("storage.pool_hits"), c("storage.pool_misses"));
    let (pc_hits, pc_misses) = (c("query.plan_cache_hits"), c("query.plan_cache_misses"));
    out.extend([
        ("block_reads_per_stmt", ratio(c("storage.block_reads"), n)),
        ("wal_kb_per_stmt", ratio(c("storage.wal_bytes") / 1024.0, n)),
        ("fsyncs_per_stmt", ratio(c("storage.fsyncs"), n)),
        ("query.plan_cache_hit_ratio", ratio(pc_hits, pc_hits + pc_misses)),
        ("query.rows_examined_per_row", ratio(c("luc.entity_reads"), m.rows as f64)),
        ("query.integrity_violations", c("query.integrity_violations")),
        ("luc.entity_reads_per_stmt", ratio(c("luc.entity_reads"), n)),
        ("luc.eva_traversals_per_stmt", ratio(c("luc.eva_traversals"), n)),
        (
            "luc.index_probes_per_stmt",
            ratio(c("luc.index_probes_btree") + c("luc.index_probes_hash"), n),
        ),
        ("luc.record_decodes_per_stmt", ratio(c("luc.record_decodes"), n)),
        // No access at all counts as "never missed".
        ("pool.hit_ratio", if hits + misses == 0.0 { 1.0 } else { hits / (hits + misses) }),
        ("pool.evictions_per_stmt", ratio(c("storage.pool_evictions"), n)),
        ("storage.block_writes_per_stmt", ratio(c("storage.block_writes"), n)),
        ("wal.bytes_per_commit", ratio(c("storage.wal_bytes"), commits)),
        ("wal.records_per_commit", ratio(c("storage.wal_records"), commits)),
        ("wal.fsyncs_per_commit", ratio(c("storage.fsyncs"), commits)),
        ("wal.bytes_per_user_byte", ratio(c("storage.wal_bytes"), m.update_text_bytes as f64)),
        ("session.lock_waits_per_kstmt", ratio(c("storage.lock_waits") * 1000.0, n)),
        ("session.lock_timeouts", c("storage.lock_timeouts")),
        ("server.retries", c("server.retries")),
        ("server.rejected_connections", c("server.rejected_connections")),
        (
            "wire.bytes_per_req",
            ratio(c("server.bytes_read") + c("server.bytes_written"), c("server.requests")),
        ),
    ]);
}

/// Per-layer times from the spans of pass B, each amortised over every
/// statement of the pass (so a plan-cache hit counts as 0 front-end time).
fn span_metrics(tr: &Tracer, a: &Measured, b: &Measured, out: &mut Vec<(&'static str, f64)>) {
    let stmts = b.stmts() as f64;
    let per_stmt = |name: &str| ratio(tr.total_us(name, None).0, stmts);
    out.extend([
        ("dml.parse_us", per_stmt("parse")),
        ("query.bind_us", per_stmt("bind")),
        ("query.optimize_us", per_stmt("optimize")),
        ("check.verify_plan_us", per_stmt("verify_plan")),
        ("query.execute_us", per_stmt("execute")),
    ]);
    for (metric, class) in [
        ("query.execute_us.point", "point"),
        ("query.execute_us.nested", "nested"),
        ("query.execute_us.exists", "exists"),
        ("query.execute_us.aggregate", "aggregate"),
        ("query.execute_us.transitive", "transitive"),
        ("query.execute_us.scan", "scan"),
        ("query.execute_us.range", "range"),
    ] {
        let (us, count) = tr.total_us("execute", Some(class));
        out.push((metric, ratio(us, count as f64)));
    }
    // The facade call parses too; what is left is bind + execute +
    // integrity + commit inside `QueryEngine::execute`.
    let (run_us, updates) = tr.total_us("run_one", None);
    if updates > 0 {
        let parse_us = tr.total_us("parse", None).0;
        out.push(("query.update_us", (run_us - parse_us) / updates as f64));
    } else {
        // What `Database::query` spends outside the phases the pipeline
        // drives by hand: cache lookup, trace, flight recorder.
        let hand: f64 =
            ["parse", "bind", "optimize", "verify_plan", "execute"].into_iter().map(per_stmt).sum();
        out.push(("query.driver_us", a.mean_latency_us() - hand));
    }
    let (untraced, traced) = (ratio(a.wall_secs(), a.stmts() as f64), ratio(b.wall_secs(), stmts));
    out.push(("trace.overhead_frac", ratio(traced - untraced, untraced)));
}

/// The traced run: the per-layer metrics of one workload. A metric whose
/// layer is not on the workload's path is left out.
pub fn run_traced(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let model = Model::generate(opts.scale, opts.seed);
    let dir = opts.db_dir(workload);
    let mut db = setup(workload, &model, &dir).map_err(|e| format!("set-up: {e}"))?;
    let mut tr = Tracer::new(&db);
    let mut digest = Digest::default();
    let mut found: Vec<(&'static str, f64)> = Vec::new();
    let sample = facade_sample(&model, opts.seed);
    let mut m;

    if workload == Workload::ServerMixed {
        m = Measured::default();
        engine_probes(&mut db, &model, &mut m, &mut found);
        fsync_probe(&mut db, &mut m, &mut found);
        // Both facades are priced before the server starts its threads: a
        // process that has ever had a second thread allocates more slowly
        // (glibc's malloc starts locking), which is worth ~30% to this engine.
        let database_us = facade_us(&mut m, &sample, |q| db.query(q).map_err(|e| e.to_string()));
        let shared = db.into_concurrent();
        let mut session = shared.session();
        let session_us =
            facade_us(&mut m, &sample, |q| session.query(q).map_err(|e| e.to_string()));
        found.push(("session.overhead_us", session_us - database_us));
        drop(session);
        let mut server = start_server(shared).map_err(|e| format!("serve: {e}"))?;
        let mut gens: Vec<ClientGen> =
            (0..CLIENTS).map(|i| ClientGen::new(&model, opts.seed, i, CLIENTS)).collect();
        // One connection first: it only feeds the scaling figure.
        let one = run_served(&server, &mut gens[..1], opts.budget.part(0.3), || {});
        let mut before = server.db().metrics();
        let all = run_served(&server, &mut gens, opts.budget.part(0.5), || {
            before = server.db().metrics();
        });
        counter_metrics(&server.db().metrics().since(&before), &all, &mut found);
        found.push(("session.scaling_2c", ratio(all.stmt_per_s(), one.stmt_per_s())));
        found.push(("wire.roundtrip_us", all.mean_latency_us()));

        // The same texts through each facade, on an otherwise idle server;
        // the two spans of one text share its statement id.
        let mut session = server.db().session();
        let mut id = 0;
        let session_us = facade_us(&mut m, &sample, |q| {
            id += 1;
            tr.timed(id, NO_PARENT, "session.query", Class::Point, || session.query(q))
                .map_err(|e| e.to_string())
        });
        drop(session);
        match SimClient::connect(server.addr()) {
            Ok(mut client) => {
                let mut id = 0;
                let wire_us = facade_us(&mut m, &sample, |q| {
                    id += 1;
                    tr.timed(id, NO_PARENT, "wire.roundtrip", Class::Point, || client.query(q))
                        .map_err(|e| e.to_string())
                });
                found.push(("wire.overhead_us", wire_us - session_us));
                let expected = gens.iter().map(ClientGen::final_state).collect();
                check_final_state(&mut m, &mut digest, expected, |q| {
                    client.query(q).map_err(|e| e.to_string())
                });
            }
            Err(e) => m.fail(format!("connect: {e}")),
        }
        server.shutdown();
        for part in [one, all] {
            m.attempted += part.attempted;
            m.failed += part.failed;
            m.failures.extend(part.failures);
            m.lat_ns.extend(part.lat_ns);
        }
    } else {
        let mut rounds = Rounds::for_workload(workload, &model, opts.seed);
        let checkpoints = workload == Workload::UpdateDurable;
        // Pass A, through the facade; its timed rounds lie between two
        // registry snapshots.
        let mut before = db.metrics();
        let (a, checkpoints_ms) = run_in_process(
            &mut db,
            &mut rounds,
            checkpoints,
            opts.budget.part(0.4),
            &mut digest,
            |db| before = db.metrics(),
        );
        counter_metrics(&db.metrics().since(&before), &a, &mut found);
        found.push(("wal.checkpoint_ms", mean(&checkpoints_ms)));

        // Pass B, by hand. The retrieve workloads replay the same list, so
        // the two passes must agree on every result.
        let mut digest_b = Digest::default();
        let b =
            hand_driven_pass(&mut db, &mut rounds, opts.budget.part(0.4), &mut tr, &mut digest_b);
        span_metrics(&tr, &a, &b, &mut found);
        m = a;
        m.attempted += b.attempted;
        m.failed += b.failed;
        m.failures.extend(b.failures);
        if matches!(rounds, Rounds::Fixed(_)) && digest_b.0 != digest.0 {
            m.fail(format!(
                "digest of the hand-driven pass {:016x} differs from the facade's {:016x}",
                digest_b.0, digest.0
            ));
        }

        engine_probes(&mut db, &model, &mut m, &mut found);
        if workload.is_durable() {
            fsync_probe(&mut db, &mut m, &mut found);
        }
        let database_us = facade_us(&mut m, &sample, |q| db.query(q).map_err(|e| e.to_string()));
        let shared = db.into_concurrent();
        let mut session = shared.session();
        let session_us =
            facade_us(&mut m, &sample, |q| session.query(q).map_err(|e| e.to_string()));
        found.push(("session.overhead_us", session_us - database_us));
        drop(session);
        if let Rounds::Update(gen) = &rounds {
            // Crash (drop without close), recover, and look for every
            // acknowledged statement.
            drop(shared);
            let t = Instant::now();
            match Database::open_with_pool(&dir, POOL) {
                Ok(reopened) => {
                    found.push(("storage.recovery_ms", t.elapsed().as_secs_f64() * 1e3));
                    check_final_state(&mut m, &mut digest, gen.final_state(), |q| {
                        reopened.query(q).map_err(|e| e.to_string())
                    });
                }
                Err(e) => m.fail(format!("reopen: {e}")),
            }
        }
    }
    ddl_probes(&mut m, &mut found);
    let _ = std::fs::remove_dir_all(&dir);

    let path = opts.scratch.join(format!("trace_{}.jsonl", workload.name()));
    if let Err(e) = tr.write_jsonl(&path) {
        m.fail(format!("{}: {e}", path.display()));
    }
    for f in &m.failures {
        eprintln!("sim-bench: {}: {f}", workload.name());
    }
    found.push(("failed_frac", ratio(m.failed as f64, m.attempted as f64)));
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        digest: digest.0,
        samples: m.lat_ns.len(),
        metrics: found,
    })
}
