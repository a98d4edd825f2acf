//! The [`Database`] facade.

use crate::error::SimError;
use sim_catalog::statistics::AnalyzeSummary;
use sim_catalog::Catalog;
use sim_check::Report as CheckReport;
use sim_luc::Mapper;
use sim_luc::MapperError;
use sim_obs::{EventLog, FlightRecorder, MetricsSnapshot, Registry, StatementRecord, Trace};
use sim_query::{AnalyzedPlan, ExecResult, Plan, QueryEngine, QueryOutput};
use sim_storage::{IoSnapshot, Storage, StorageEngine};
use std::path::Path;
use std::sync::Arc;

/// Default buffer-pool frames (4 KiB each).
pub const DEFAULT_POOL: usize = 1024;

/// One open SIM database.
pub struct Database {
    engine: QueryEngine,
}

/// Build a [`QueryEngine`] with `sim-check`'s plan verifier installed:
/// every freshly optimized plan (each plan-cache miss) runs through the
/// `SIM-P2xx` abstract interpreter before it is cached or executed, so the
/// plan cache only ever holds verified plans. Error-level findings refuse
/// execution with [`sim_query::QueryError::PlanVerify`].
fn build_engine(mapper: Mapper) -> Result<QueryEngine, sim_query::QueryError> {
    let mut engine = QueryEngine::new(mapper)?;
    engine.set_plan_verifier(Arc::new(|mapper, bound, plan| {
        let report = sim_check::verify_plan(mapper, bound, plan);
        if report.has_errors() {
            Err(sim_query::QueryError::PlanVerify(report.to_text()))
        } else {
            Ok(())
        }
    }));
    Ok(engine)
}

impl Database {
    /// Compile a DDL schema and open an empty database for it.
    pub fn create(ddl: &str) -> Result<Database, SimError> {
        Database::create_with_pool(ddl, DEFAULT_POOL)
    }

    /// Like [`Database::create`] with an explicit buffer-pool size.
    pub fn create_with_pool(ddl: &str, pool_frames: usize) -> Result<Database, SimError> {
        let catalog = sim_ddl::compile_schema(ddl)?;
        Database::from_catalog(catalog, pool_frames)
    }

    /// Open a database over an already-built catalog.
    pub fn from_catalog(catalog: Catalog, pool_frames: usize) -> Result<Database, SimError> {
        let mapper = Mapper::new(Arc::new(catalog), pool_frames)?;
        Ok(Database { engine: build_engine(mapper)? })
    }

    /// The paper's §7 UNIVERSITY database, empty.
    pub fn university() -> Database {
        // Safety: the bundled DDL is a compile-time constant covered by
        // tests; failing to compile it is a build defect, not user input.
        Database::create(sim_ddl::UNIVERSITY_DDL).expect("bundled schema") // sim-lint: allow(unwrap)
    }

    /// Compile a DDL schema and create a **durable** database at `dir`
    /// (block file + write-ahead log + superblock). The directory must not
    /// already hold a database. The schema text is persisted alongside the
    /// data, so [`Database::open`] needs only the path.
    pub fn create_at(ddl: &str, dir: impl AsRef<Path>) -> Result<Database, SimError> {
        Database::create_at_with_pool(ddl, dir, DEFAULT_POOL)
    }

    /// Like [`Database::create_at`] with an explicit buffer-pool size.
    pub fn create_at_with_pool(
        ddl: &str,
        dir: impl AsRef<Path>,
        pool_frames: usize,
    ) -> Result<Database, SimError> {
        let catalog = sim_ddl::compile_schema(ddl)?;
        let registry = Arc::new(Registry::new());
        let engine = StorageEngine::open_with(dir, pool_frames, &registry)?;
        if engine.file_count() != 0 || !engine.app_meta().is_empty() {
            return Err(SimError::Mapper(MapperError::Persist(
                "directory already holds a database; use Database::open".into(),
            )));
        }
        let mut mapper = Mapper::on_engine(Arc::new(catalog), engine, &registry)?;
        mapper.set_schema_blob(ddl.as_bytes().to_vec());
        // Checkpoint immediately so the superblock records the schema and
        // the empty structure plan before any statements run.
        mapper.checkpoint()?;
        Ok(Database { engine: build_engine(mapper)? })
    }

    /// Compile a DDL schema and create a database over an arbitrary
    /// [`Storage`] backend — the engine-vs-oracle harness entry point: the
    /// differential driver boots the same workload on `MemDisk`,
    /// `FileDisk` and a fault-injecting disk through this one door. The
    /// backend must be empty (no prior database).
    pub fn create_on(
        ddl: &str,
        disk: Box<dyn Storage>,
        pool_frames: usize,
    ) -> Result<Database, SimError> {
        let catalog = sim_ddl::compile_schema(ddl)?;
        let registry = Arc::new(Registry::new());
        let engine = StorageEngine::open_on(disk, pool_frames, &registry)?;
        if engine.file_count() != 0 || !engine.app_meta().is_empty() {
            return Err(SimError::Mapper(MapperError::Persist(
                "backend already holds a database; use Database::open_on".into(),
            )));
        }
        let mut mapper = Mapper::on_engine(Arc::new(catalog), engine, &registry)?;
        mapper.set_schema_blob(ddl.as_bytes().to_vec());
        mapper.checkpoint()?;
        Ok(Database { engine: build_engine(mapper)? })
    }

    /// Open a database previously created with [`Database::create_on`] (or
    /// any durable backend holding SIM metadata), running crash recovery on
    /// its write-ahead log first. The schema is re-read from the backend's
    /// own metadata, so a cached plan can never outlive the database file
    /// it was built against.
    pub fn open_on(disk: Box<dyn Storage>, pool_frames: usize) -> Result<Database, SimError> {
        let registry = Arc::new(Registry::new());
        let engine = StorageEngine::open_on(disk, pool_frames, &registry)?;
        if engine.app_meta().is_empty() {
            return Err(SimError::Mapper(MapperError::Persist(
                "not a SIM database: no schema metadata".into(),
            )));
        }
        let app = sim_luc::AppMeta::decode(engine.app_meta())?;
        let ddl = std::str::from_utf8(&app.schema).map_err(|_| {
            SimError::Mapper(MapperError::Persist("stored schema is not valid UTF-8".into()))
        })?;
        let catalog = sim_ddl::compile_schema(ddl)?;
        let mapper = Mapper::reopen(Arc::new(catalog), engine, &registry)?;
        Ok(Database { engine: build_engine(mapper)? })
    }

    /// Open a durable database previously created with
    /// [`Database::create_at`], running crash recovery on its write-ahead
    /// log. The schema is re-read from the database's own metadata.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, SimError> {
        Database::open_with_pool(dir, DEFAULT_POOL)
    }

    /// Like [`Database::open`] with an explicit buffer-pool size.
    pub fn open_with_pool(dir: impl AsRef<Path>, pool_frames: usize) -> Result<Database, SimError> {
        let registry = Arc::new(Registry::new());
        let engine = StorageEngine::open_with(dir, pool_frames, &registry)?;
        if engine.app_meta().is_empty() {
            return Err(SimError::Mapper(MapperError::Persist(
                "not a SIM database: no schema metadata (was it created with create_at?)".into(),
            )));
        }
        let app = sim_luc::AppMeta::decode(engine.app_meta())?;
        let ddl = std::str::from_utf8(&app.schema).map_err(|_| {
            SimError::Mapper(MapperError::Persist("stored schema is not valid UTF-8".into()))
        })?;
        let catalog = sim_ddl::compile_schema(ddl)?;
        let mapper = Mapper::reopen(Arc::new(catalog), engine, &registry)?;
        Ok(Database { engine: build_engine(mapper)? })
    }

    /// Open this database for concurrent sessions (DESIGN.md §14): class-
    /// family 2PL for writers, lock-free snapshot reads for standalone
    /// retrieves. Consumes the exclusive handle;
    /// [`crate::ConcurrentDb::into_database`] reverses it.
    pub fn into_concurrent(self) -> crate::ConcurrentDb {
        crate::ConcurrentDb::new(self)
    }

    pub(crate) fn into_engine(self) -> QueryEngine {
        self.engine
    }

    pub(crate) fn from_engine(engine: QueryEngine) -> Database {
        Database { engine }
    }

    /// Whether this database is backed by durable storage (created via
    /// [`Database::create_at`] / [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.engine.mapper().engine().is_durable()
    }

    /// Force a checkpoint: flush all dirty pages, persist the superblock
    /// and truncate the write-ahead log. A no-op on in-memory databases.
    pub fn checkpoint(&mut self) -> Result<(), SimError> {
        self.engine.mapper_mut().checkpoint()?;
        Ok(())
    }

    /// Group-commit window: how many committed transactions may share one
    /// WAL fsync barrier. `1` (the default) syncs every commit; larger
    /// windows amortize the fsync across back-to-back commits at the cost
    /// of losing *whole* unsynced transactions (never torn ones) in a
    /// crash. [`Database::sync_wal`], [`Database::checkpoint`] and
    /// [`Database::close`] all force the barrier.
    pub fn set_group_commit_window(&mut self, window: usize) -> Result<(), SimError> {
        self.engine.mapper().set_group_commit_window(window)?;
        Ok(())
    }

    /// The current group-commit window (1 = sync every commit).
    pub fn group_commit_window(&self) -> usize {
        self.engine.mapper().group_commit_window()
    }

    /// Force the group-commit fsync barrier: every commit accepted so far
    /// becomes durable. A no-op when nothing is pending or the database is
    /// in-memory.
    pub fn sync_wal(&self) -> Result<(), SimError> {
        self.engine.mapper().sync_wal()?;
        Ok(())
    }

    /// Checkpoint and close the database. Dropping a [`Database`] without
    /// closing is crash-safe (committed statements are in the log) but
    /// leaves recovery work for the next open.
    pub fn close(self) -> Result<(), SimError> {
        self.engine.into_mapper().close()?;
        Ok(())
    }

    /// Run a DML script (one or more statements).
    pub fn run(&mut self, dml: &str) -> Result<Vec<ExecResult>, SimError> {
        Ok(self.engine.run(dml)?)
    }

    /// Run exactly one statement.
    pub fn run_one(&mut self, dml: &str) -> Result<ExecResult, SimError> {
        Ok(self.engine.run_one(dml)?)
    }

    /// Run a single retrieve without mutating.
    pub fn query(&self, dml: &str) -> Result<QueryOutput, SimError> {
        Ok(self.engine.query(dml)?)
    }

    /// The optimizer's strategy for a retrieve (EXPLAIN).
    pub fn explain(&self, dml: &str) -> Result<Plan, SimError> {
        Ok(self.engine.explain(dml)?)
    }

    /// EXPLAIN plus static analysis: the optimizer's strategy alongside any
    /// `sim-check` lints for the same statement (tautological or
    /// always-UNKNOWN qualifications, unused perspectives, …).
    pub fn explain_checked(&self, dml: &str) -> Result<(Plan, CheckReport), SimError> {
        let plan = self.engine.explain(dml)?;
        let report = sim_check::check_source(self.catalog(), dml)?;
        Ok((plan, report))
    }

    /// Statically verify the optimizer's plan for a retrieve without
    /// executing it: parse, bind, optimize, then run the `SIM-P2xx`
    /// abstract interpreter and return its report (REPL: `\verify <query>`).
    /// Plans fresh — the plan cache is bypassed, exactly like EXPLAIN.
    pub fn verify_plan(&self, dml: &str) -> Result<CheckReport, SimError> {
        let (bound, plan) = self.engine.prepare_retrieve(dml)?;
        Ok(sim_check::verify_plan(self.engine.mapper(), &bound, &plan))
    }

    /// EXPLAIN plus plan verification: the optimizer's strategy alongside
    /// the `SIM-P2xx` report for that exact plan.
    pub fn explain_verified(&self, dml: &str) -> Result<(Plan, CheckReport), SimError> {
        let (bound, plan) = self.engine.prepare_retrieve(dml)?;
        let report = sim_check::verify_plan(self.engine.mapper(), &bound, &plan);
        Ok((plan, report))
    }

    /// Test-only: install (or clear) a plan mutation applied after the
    /// optimizer and before the verifier. The `sim-testkit` mutation
    /// harness uses it to re-introduce historical planner bugs and assert
    /// the verifier rejects each one.
    #[doc(hidden)]
    pub fn set_plan_mutator(&mut self, mutator: Option<sim_query::PlanMutator>) {
        self.engine.set_plan_mutator(mutator);
    }

    /// Statically analyze a DML script without running it: parse, bind, and
    /// lint every statement (`SIM-Q1xx` rules). Statements that fail to
    /// parse or bind are ordinary errors, not diagnostics.
    pub fn check(&self, dml: &str) -> Result<CheckReport, SimError> {
        Ok(sim_check::check_source(self.catalog(), dml)?)
    }

    /// Statically analyze the installed schema (`SIM-S0xx` rules).
    /// Installation already rejects Error-level findings, so this reports
    /// the surviving warnings and hints.
    pub fn check_schema(&self) -> CheckReport {
        sim_check::check_catalog(self.catalog())
    }

    /// EXPLAIN ANALYZE: execute the retrieve with an instrumented executor
    /// and return the plan annotated with per-step actual row counts,
    /// block-I/O deltas, buffer-pool hits and wall time.
    pub fn explain_analyze(&self, dml: &str) -> Result<AnalyzedPlan, SimError> {
        Ok(self.engine.explain_analyze(dml)?)
    }

    /// Collect optimizer statistics by full scan (`\analyze`):
    /// cardinalities, distinct counts, equi-depth histograms and EVA
    /// fan-outs. Invalidates every cached plan (via the plan generation)
    /// and persists the statistics with the application metadata on
    /// durable databases.
    pub fn analyze(&mut self) -> Result<AnalyzeSummary, SimError> {
        Ok(self.engine.analyze()?)
    }

    /// Resident plans in the engine's plan cache (see `query.plan_cache_*`
    /// counters in [`Database::metrics`] for hit/miss rates).
    pub fn plan_cache_len(&self) -> usize {
        self.engine.plan_cache_len()
    }

    /// Snapshot of every metric in the engine-wide registry: `storage.*`
    /// block/pool/txn counters, `luc.*` mapper counters and `query.*`
    /// phase histograms. Diff two snapshots with
    /// [`MetricsSnapshot::since`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.registry().snapshot()
    }

    /// The shared metrics registry (advanced use: custom metrics).
    pub fn registry(&self) -> &Arc<Registry> {
        self.engine.registry()
    }

    /// Span tree of the most recent completed statement, if any. Reads
    /// the newest flight-recorder entry; while recording is disabled via
    /// [`Database::set_observation`] the recorder keeps (and reports) its
    /// existing history but adds nothing new.
    pub fn last_trace(&self) -> Option<Trace> {
        self.engine.last_trace()
    }

    /// The flight recorder: a ring of the last
    /// [`sim_obs::DEFAULT_RECORDER_CAPACITY`] statements, each with its
    /// full trace, row count, block-I/O deltas, wall time, and
    /// `plan_cached` / `slow` flags (REPL: `\recent`).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        self.engine.flight_recorder()
    }

    /// The most recent `n` statement records, oldest first — convenience
    /// over [`Database::flight_recorder`].
    pub fn recent_statements(&self, n: usize) -> Vec<StatementRecord> {
        self.engine.flight_recorder().recent(n)
    }

    /// The engine-wide structured event log: statement start/end, commits,
    /// checkpoints, recovery, cache evictions, slow statements (REPL:
    /// `\events`).
    pub fn event_log(&self) -> &Arc<EventLog> {
        self.engine.event_log()
    }

    /// Mirror every subsequent event to `path` as JSON lines (the
    /// slow-query log sink, among others). Truncates an existing file.
    pub fn set_event_sink(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.engine.event_log().set_jsonl_sink(path.as_ref())
    }

    /// Set the slow-statement threshold in microseconds (`0` disables).
    /// Statements at or over it are flagged in the recorder, counted in
    /// `obs.slow_statements` and dumped to the event log with their trace.
    pub fn set_slow_query_micros(&self, micros: u64) {
        self.engine.set_slow_query_micros(micros);
    }

    /// The current slow-statement threshold in microseconds.
    pub fn slow_query_micros(&self) -> u64 {
        self.engine.slow_query_micros()
    }

    /// Turn the flight recorder and event log on or off together (metrics
    /// counters always stay on). The `pr6_smoke` bench measures the cost
    /// of leaving them on — well under 5% of statement wall time.
    pub fn set_observation(&self, on: bool) {
        self.engine.set_observation(on);
    }

    /// Render every metric in OpenMetrics/Prometheus text format (REPL:
    /// `\metrics export <path>`). See [`sim_obs::openmetrics`] for the
    /// name mapping.
    pub fn render_openmetrics(&self) -> String {
        sim_obs::render_openmetrics(&self.metrics())
    }

    /// Zero every metric in place (counter/gauge/histogram handles cached
    /// by the layers keep working). Pre-reset snapshots `since()`-compared
    /// across the reset saturate at zero. REPL: `\stats reset`.
    pub fn reset_metrics(&self) {
        self.engine.registry().reset();
    }

    /// Toggle VERIFY enforcement (§3.3); on by default.
    pub fn set_enforce_verifies(&mut self, on: bool) {
        self.engine.enforce_verifies = on;
    }

    /// Whether VERIFY constraints are being enforced.
    pub fn enforces_verifies(&self) -> bool {
        self.engine.enforce_verifies
    }

    /// The schema.
    pub fn catalog(&self) -> &Catalog {
        self.engine.mapper().catalog()
    }

    /// The LUC mapper (advanced use: direct entity access, statistics).
    pub fn mapper(&self) -> &Mapper {
        self.engine.mapper()
    }

    /// Mutable mapper access (index creation, recounting).
    pub fn mapper_mut(&mut self) -> &mut Mapper {
        self.engine.mapper_mut()
    }

    /// Create a secondary index on `class.attribute`.
    pub fn create_index(&mut self, class: &str, attribute: &str) -> Result<(), SimError> {
        let class_id = self
            .catalog()
            .class_by_name(class)
            .ok_or_else(|| {
                SimError::Query(sim_query::QueryError::Analyze(format!("unknown class {class}")))
            })?
            .id;
        let attr = self.catalog().resolve_attr(class_id, attribute).ok_or_else(|| {
            SimError::Query(sim_query::QueryError::Analyze(format!(
                "unknown attribute {attribute} on {class}"
            )))
        })?;
        self.engine.mapper_mut().create_index(attr)?;
        Ok(())
    }

    /// Create a hash index on `class.attribute` — the §5.2 "random keys"
    /// access method: serves equality probes, never ranges.
    pub fn create_hash_index(&mut self, class: &str, attribute: &str) -> Result<(), SimError> {
        let class_id = self
            .catalog()
            .class_by_name(class)
            .ok_or_else(|| {
                SimError::Query(sim_query::QueryError::Analyze(format!("unknown class {class}")))
            })?
            .id;
        let attr = self.catalog().resolve_attr(class_id, attribute).ok_or_else(|| {
            SimError::Query(sim_query::QueryError::Analyze(format!(
                "unknown attribute {attribute} on {class}"
            )))
        })?;
        self.engine.mapper_mut().create_hash_index(attr)?;
        Ok(())
    }

    /// Physical I/O counters (reads/writes/allocations of 4 KiB blocks).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.engine.mapper().engine().io_snapshot()
    }

    /// Drop every cached page so the next access is cold (experiments).
    /// Dirty pages are retained, so this never loses data.
    pub fn clear_cache(&self) {
        let _ = self.engine.mapper().engine().pool().clear_cache();
    }

    /// Entity count of a class (statistics; see [`Mapper::entity_count`]).
    /// Errors on an unknown class name rather than reporting an empty
    /// class.
    pub fn entity_count(&self, class: &str) -> Result<usize, SimError> {
        let c = self.catalog().class_by_name(class).ok_or_else(|| {
            SimError::Query(sim_query::QueryError::Analyze(format!("unknown class {class}")))
        })?;
        Ok(self.engine.mapper().entity_count(c.id))
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("classes", &self.catalog().classes().len())
            .field("verifies", &self.engine.verifies().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::Value;

    #[test]
    fn create_populate_query() {
        let mut db = Database::university();
        db.set_enforce_verifies(false);
        db.run(
            r#"Insert department(dept-nbr := 101, name := "Physics").
               Insert instructor(name := "Ann", soc-sec-no := 1, employee-nbr := 1001,
                   assigned-department := department with (name = "Physics"))."#,
        )
        .unwrap();
        let out = db.query("From instructor Retrieve name, name of assigned-department.").unwrap();
        assert_eq!(out.rows(), &[vec![Value::Str("Ann".into()), Value::Str("Physics".into())]]);
        assert_eq!(db.entity_count("person").unwrap(), 1);
        assert!(db.entity_count("no-such-class").is_err());
    }

    #[test]
    fn bad_ddl_and_dml_error() {
        assert!(Database::create("Class ( );").is_err());
        let mut db = Database::university();
        assert!(db.run("Snorkel.").is_err());
        assert!(db.query("Delete person.").is_err(), "query() rejects updates");
    }

    #[test]
    fn explain_exposes_strategy() {
        let db = Database::university();
        let plan = db.explain("From person Retrieve name.").unwrap();
        assert!(plan.explanation[0].contains("scan"));
    }

    #[test]
    fn integrity_violation_flag() {
        let mut db = Database::university();
        let err = db.run_one(r#"Insert student(name := "S", soc-sec-no := 5)."#).unwrap_err();
        assert!(err.is_integrity_violation(), "V1 fires: 0 credits < 12");
        db.set_enforce_verifies(false);
        db.run_one(r#"Insert student(name := "S", soc-sec-no := 5)."#).unwrap();
    }
}
