//! The Query Driver: the facade that parses, analyzes, optimizes, executes
//! and enforces integrity (Figure 1 of the paper).
//!
//! Every statement takes one route. Every plan the engine executes comes
//! from one plan step (optimize → estimate-source counter → test mutator →
//! plan verifier): a retrieve's after binding, behind the plan-cache
//! lookup of `cached_or_compile`; an update's selections and its triggered
//! VERIFY checks uncached, per statement. An update is compiled, then
//! applied by [`QueryEngine::execute_in`] under a statement-level
//! savepoint that is rolled back on every error exit; autocommit is that
//! plus begin and commit-or-abort.
//!
//! Every statement is measured: phase latencies land in the `query.*`
//! histograms of the engine-wide metrics registry, and the most recent
//! statement's span tree is kept for [`QueryEngine::last_trace`]. EXPLAIN
//! ANALYZE ([`QueryEngine::explain_analyze`]) additionally runs the
//! executor instrumented, yielding per-step actual row counts and I/O.

use crate::analyze::AnalyzedPlan;
use crate::bind::Binder;
use crate::bound::{BoundQuery, QueryOutput};
use crate::cache::{self, CachedPlan, PlanCache};
use crate::error::QueryError;
use crate::exec::Executor;
use crate::integrity::{compile_all, CompiledVerify};
use crate::optimizer::{self, Plan};
use crate::stats::PhaseStats;
use crate::update::{self, WriteSet};
use sim_dml::{parse_statement, parse_statements, RetrieveStmt, Statement};
use sim_luc::Mapper;
use sim_obs::{
    Counter, Event, EventLog, FlightRecorder, Registry, Span, StatementRecord, Trace, TraceBuilder,
};
use sim_storage::Txn;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Resident-plan limit of the per-engine cache — generous for scripts and
/// interactive sessions while bounding memory for adversarial workloads.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Default slow-statement threshold: one second of wall time.
pub const DEFAULT_SLOW_QUERY_MICROS: u64 = 1_000_000;

/// A static plan-verification pass, installed by the embedding layer
/// (`sim-core` wires in `sim-check`'s `SIM-P2xx` abstract interpreter; the
/// closure indirection keeps the crate graph acyclic). Called once per
/// freshly optimized plan — each plan-cache miss, update selection and
/// VERIFY check, making the cache verified-by-construction — and expected
/// to return [`QueryError::PlanVerify`] when the plan must not execute.
pub type PlanVerifier =
    Arc<dyn Fn(&Mapper, &BoundQuery, &Plan) -> Result<(), QueryError> + Send + Sync>;

/// A test-only plan mutation, applied after the optimizer and before the
/// verifier. The mutation harness in `sim-testkit` uses it to re-introduce
/// historical planner bugs and assert the verifier rejects them.
pub type PlanMutator = Arc<dyn Fn(&mut BoundQuery, &mut Plan) + Send + Sync>;

/// The result of one statement.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// A retrieve produced output.
    Rows(QueryOutput),
    /// An update touched this many entities.
    Updated(usize),
}

impl ExecResult {
    /// The output, for tests that know they ran a retrieve.
    pub fn rows(&self) -> &QueryOutput {
        match self {
            ExecResult::Rows(q) => q,
            ExecResult::Updated(_) => panic!("statement was an update"),
        }
    }

    /// The update count, for tests that know they ran an update.
    pub fn updated(&self) -> usize {
        match self {
            ExecResult::Updated(n) => *n,
            ExecResult::Rows(_) => panic!("statement was a retrieve"),
        }
    }
}

/// The SIM query engine: one open database.
pub struct QueryEngine {
    mapper: Mapper,
    verifies: Vec<CompiledVerify>,
    /// Enforce VERIFY constraints on updates (on by default). The paper's
    /// own example 1 would violate V1 (John Doe enrolls in a single course,
    /// well short of 12 credits), so examples/benches sometimes disable it.
    pub enforce_verifies: bool,
    /// Phase histograms and statement counters (`query.*`).
    phase: PhaseStats,
    /// Flight recorder: the last N statement traces with resource
    /// attribution. Each completed statement's trace is *moved* in here
    /// (never cloned on the write path); [`QueryEngine::last_trace`] reads
    /// the newest record back out.
    recorder: Arc<FlightRecorder>,
    /// Engine-wide event log (shared with the storage layer through the
    /// registry); receives statement start/end and slow-statement events.
    events: Arc<EventLog>,
    /// Slow-statement threshold in microseconds; `0` disables flagging.
    slow_micros: AtomicU64,
    /// `obs.slow_statements` counter handle.
    slow_statements: Arc<Counter>,
    /// Bound trees + plans of recent retrieves, keyed on normalized
    /// statement text and invalidated by schema or index DDL (see
    /// [`cache`]).
    plan_cache: PlanCache,
    /// The installed plan-verification pass, if any (see [`PlanVerifier`]).
    plan_verifier: Option<PlanVerifier>,
    /// Test-only plan mutation (see [`PlanMutator`]).
    plan_mutator: Option<PlanMutator>,
    /// Session id stamped into flight-recorder records (0 = unattributed).
    /// Set by the session layer under the engine lock before dispatching.
    current_session: AtomicU64,
    /// Whether the most recently completed statement's plan came from the
    /// plan cache. Statements on one engine are serialized by the caller
    /// (sessions hold the engine lock across execute + read), so this is
    /// race-free where it matters.
    last_plan_cached: AtomicBool,
}

impl QueryEngine {
    /// Open an engine over a mapper, compiling the schema's VERIFY
    /// constraints.
    pub fn new(mapper: Mapper) -> Result<QueryEngine, QueryError> {
        let verifies = compile_all(mapper.catalog())?;
        let registry = mapper.registry();
        let phase = PhaseStats::new(registry);
        let recorder = Arc::new(FlightRecorder::with_counters(
            sim_obs::DEFAULT_RECORDER_CAPACITY,
            Some(registry.counter(sim_obs::recorder::names::RECORDER_RECORDS)),
            Some(registry.counter(sim_obs::recorder::names::RECORDER_EVICTIONS)),
        ));
        let events = registry.event_log();
        let slow_statements = registry.counter(sim_obs::events::names::SLOW_STATEMENTS);
        let plan_cache_evictions = registry.counter(crate::stats::names::PLAN_CACHE_EVICTIONS);
        Ok(QueryEngine {
            mapper,
            verifies,
            enforce_verifies: true,
            phase,
            recorder,
            events,
            slow_micros: AtomicU64::new(DEFAULT_SLOW_QUERY_MICROS),
            slow_statements,
            plan_cache: PlanCache::with_counter(PLAN_CACHE_CAPACITY, Some(plan_cache_evictions)),
            plan_verifier: None,
            plan_mutator: None,
            current_session: AtomicU64::new(0),
            last_plan_cached: AtomicBool::new(false),
        })
    }

    /// Tag subsequent statements with `session` in the flight recorder
    /// (`0` clears the attribution). Callers that share an engine across
    /// sessions must set this under the same lock that serializes
    /// statements.
    pub fn set_session_tag(&self, session: u64) {
        self.current_session.store(session, Ordering::Relaxed);
    }

    /// Whether the most recently completed statement hit the plan cache.
    pub fn last_plan_cached(&self) -> bool {
        self.last_plan_cached.load(Ordering::Relaxed)
    }

    /// Install a plan-verification pass; it runs on each freshly optimized
    /// plan before the plan is cached or executed.
    pub fn set_plan_verifier(&mut self, verifier: PlanVerifier) {
        self.plan_verifier = Some(verifier);
    }

    /// Install a test-only plan mutation, applied after the optimizer and
    /// before the verifier. Clears the plan cache so already-verified plans
    /// cannot mask the mutation.
    #[doc(hidden)]
    pub fn set_plan_mutator(&mut self, mutator: Option<PlanMutator>) {
        self.plan_mutator = mutator;
        self.plan_cache.clear();
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }

    /// Mutable mapper access (index creation, statistics maintenance).
    pub fn mapper_mut(&mut self) -> &mut Mapper {
        &mut self.mapper
    }

    /// Consume the engine, yielding the mapper (used to close a durable
    /// database cleanly).
    pub fn into_mapper(self) -> Mapper {
        self.mapper
    }

    /// Collect optimizer statistics by full scan (`\analyze`). Bumps the
    /// plan generation through the mapper's statistics generation, so
    /// every cached plan is invalidated and re-costed against the fresh
    /// statistics on its next execution.
    pub fn analyze(&mut self) -> Result<sim_catalog::statistics::AnalyzeSummary, QueryError> {
        let started = Instant::now();
        let summary = self.mapper.analyze()?;
        self.phase.analyze.observe_micros(started.elapsed().as_micros() as u64);
        self.phase.analyze_runs.inc();
        Ok(summary)
    }

    /// The compiled constraints.
    pub fn verifies(&self) -> &[CompiledVerify] {
        &self.verifies
    }

    /// The metrics registry shared by every layer of this engine.
    pub fn registry(&self) -> &Arc<Registry> {
        self.mapper.registry()
    }

    /// The span tree of the most recent completed statement, if any —
    /// read from the flight recorder's newest record, so it is `None`
    /// while recording is disabled via [`QueryEngine::set_observation`].
    pub fn last_trace(&self) -> Option<Trace> {
        self.recorder.latest().map(|r| r.trace)
    }

    /// The flight recorder: the last N statements with traces and
    /// per-statement resource attribution.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The engine-wide event log (statement, commit, checkpoint, recovery
    /// and eviction events), shared with the storage layer.
    pub fn event_log(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// Set the slow-statement threshold in microseconds (`0` disables).
    /// Statements at or over the threshold are flagged in the recorder,
    /// counted in `obs.slow_statements`, and dumped to the event log with
    /// their full trace.
    pub fn set_slow_query_micros(&self, micros: u64) {
        self.slow_micros.store(micros, Ordering::Relaxed);
    }

    /// The current slow-statement threshold in microseconds.
    pub fn slow_query_micros(&self) -> u64 {
        self.slow_micros.load(Ordering::Relaxed)
    }

    /// Turn the flight recorder and the event log on or off together.
    /// Off, completed statements record nothing (and
    /// [`QueryEngine::last_trace`] returns `None`); existing records are
    /// retained. Metrics counters are unaffected.
    pub fn set_observation(&self, on: bool) {
        self.recorder.set_enabled(on);
        self.events.set_enabled(on);
    }

    /// Finish a statement: build the trace, flag it if slow, and move it
    /// into the flight recorder with its resource attribution.
    fn record_statement(
        &self,
        tb: TraceBuilder,
        statement: &str,
        rows: u64,
        io: &sim_storage::IoSnapshot,
        plan_cached: bool,
    ) {
        self.last_plan_cached.store(plan_cached, Ordering::Relaxed);
        let trace = tb.build();
        let wall = trace.total_micros();
        let threshold = self.slow_micros.load(Ordering::Relaxed);
        let slow = threshold > 0 && wall >= threshold;
        if slow {
            self.slow_statements.inc();
            if self.events.is_enabled() {
                self.events.record(Event::SlowStatement {
                    statement: statement.to_string(),
                    wall_micros: wall,
                    trace_json: trace.to_json(),
                });
            }
        }
        if self.events.is_enabled() {
            self.events.record(Event::StatementEnd {
                statement: statement.to_string(),
                wall_micros: wall,
                rows,
                plan_cached,
                slow,
            });
        }
        if self.recorder.is_enabled() {
            self.recorder.record(StatementRecord {
                seq: 0,
                statement: statement.to_string(),
                rows,
                wall_micros: wall,
                io_reads: io.reads,
                io_writes: io.writes,
                pool_hits: io.pool_hits,
                plan_cached,
                slow,
                session: self.current_session.load(Ordering::Relaxed),
                trace,
            });
        }
    }

    /// Parse and execute a script of statements, stopping at the first
    /// error.
    pub fn run(&mut self, source: &str) -> Result<Vec<ExecResult>, QueryError> {
        let started = Instant::now();
        let statements = parse_statements(source)?;
        self.phase.parse.observe_micros(started.elapsed().as_micros() as u64);
        let mut out = Vec::with_capacity(statements.len());
        for stmt in &statements {
            out.push(self.execute(stmt)?);
        }
        Ok(out)
    }

    /// Parse and execute a single statement.
    pub fn run_one(&mut self, source: &str) -> Result<ExecResult, QueryError> {
        let stmt = self.parse_one(source)?;
        self.execute(&stmt)
    }

    /// Execute a retrieve without mutating (usable through `&self`). A
    /// plan-cache hit on the normalized statement text skips parse, bind
    /// and optimize entirely.
    pub fn query(&self, source: &str) -> Result<QueryOutput, QueryError> {
        let (out, _) = self.traced_retrieve(None, source, "query()", false)?;
        Ok(out)
    }

    /// Resident plans in this engine's plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Distinct pinned plan-cache keys (live prepared statements).
    pub fn plan_cache_pinned_len(&self) -> usize {
        self.plan_cache.pinned_len()
    }

    /// The plan a retrieve would execute (EXPLAIN): compiled and verified
    /// like any other, but always fresh — EXPLAIN is the tool for auditing
    /// the optimizer, so it must not read (or warm) the plan cache.
    pub fn explain(&self, source: &str) -> Result<Plan, QueryError> {
        let mut tb = TraceBuilder::new(source);
        let (entry, _) = self.cached_or_compile(None, source, "explain()", false, &mut tb)?;
        Ok(Arc::unwrap_or_clone(entry.plan))
    }

    /// EXPLAIN ANALYZE: run the retrieve with an instrumented executor and
    /// return the plan annotated with per-step actual rows, block I/O
    /// deltas, pool hits and wall time. The run's trace (with per-step
    /// child spans) becomes [`QueryEngine::last_trace`]. Participates in
    /// the plan cache; [`AnalyzedPlan::from_cache`] reports whether the
    /// plan was served from it.
    pub fn explain_analyze(&self, source: &str) -> Result<AnalyzedPlan, QueryError> {
        let (_, analyzed) = self.traced_retrieve(None, source, "explain_analyze()", true)?;
        analyzed.ok_or_else(|| {
            QueryError::Internal("instrumented run produced no analyzed plan".into())
        })
    }

    /// Compile — but neither verify nor execute — a single retrieve,
    /// returning the bound tree and the fresh plan exactly as the verifier
    /// would receive them (test-only plan mutator applied), so
    /// `Database::verify_plan` can hand back the verifier's full report
    /// instead of the pass/fail verdict the execution paths act on.
    pub fn prepare_retrieve(&self, source: &str) -> Result<(BoundQuery, Plan), QueryError> {
        let r = self.parse_one_retrieve(source, "prepare_retrieve()")?;
        let mut tb = TraceBuilder::new(source);
        let bound = self.bind(&r, &mut tb)?;
        self.optimize(bound, &mut tb)
    }

    /// Prepare a single statement for repeated execution: parse it,
    /// and — for retrieves — bind, optimize, verify, cache and **pin** the
    /// plan, so it survives LRU pressure for as long as the preparation is
    /// held. Returns the statement's canonical rendering; executing that
    /// text later hits the pinned cache entry (the session layer keys its
    /// exec paths on the same rendering). Release with
    /// [`QueryEngine::release_statement`], passing the returned text.
    ///
    /// Pins do not survive plan-generation invalidation (DDL/index
    /// changes): the entry is dropped with the rest of the cache and
    /// transparently re-planned — and re-protected — on next execution.
    ///
    /// Updates have no cached plans; binding them is per-execution work,
    /// so preparing one only validates its syntax.
    pub fn prepare_statement(&self, source: &str) -> Result<String, QueryError> {
        let stmt = self.parse_one(source)?;
        let canonical = stmt.to_string();
        if let Statement::Retrieve(r) = &stmt {
            let mut tb = TraceBuilder::new(&canonical);
            self.cached_or_compile(Some(r), &canonical, "prepare()", true, &mut tb)?;
            self.plan_cache.pin(&cache::normalize(&canonical));
        }
        Ok(canonical)
    }

    /// Release a preparation made by [`QueryEngine::prepare_statement`]
    /// (pass the canonical text it returned). The plan becomes evictable
    /// again once every preparation over the same text is released.
    pub fn release_statement(&self, canonical: &str) {
        self.plan_cache.unpin(&cache::normalize(canonical));
    }

    /// Parse exactly one statement — the single arity check every
    /// one-statement entry point shares (`sim_dml::parse_statement` rejects
    /// trailing input).
    fn parse_one(&self, source: &str) -> Result<Statement, QueryError> {
        let started = Instant::now();
        let stmt = parse_statement(source)?;
        self.phase.parse.observe_micros(started.elapsed().as_micros() as u64);
        Ok(stmt)
    }

    fn parse_one_retrieve(&self, source: &str, what: &str) -> Result<RetrieveStmt, QueryError> {
        match self.parse_one(source)? {
            Statement::Retrieve(r) => Ok(r),
            _ => Err(QueryError::Analyze(format!("{what} accepts a single retrieve"))),
        }
    }

    /// Bind a retrieve: the `bind` phase in front of the plan step.
    fn bind(&self, r: &RetrieveStmt, tb: &mut TraceBuilder) -> Result<BoundQuery, QueryError> {
        let t = tb.start();
        let bound = Binder::bind_retrieve(self.mapper.catalog(), r)?;
        let micros = tb.finish(t, "bind", vec![("nodes".into(), bound.nodes.len().to_string())]);
        self.phase.bind.observe_micros(micros);
        Ok(bound)
    }

    /// Optimize → count the estimate source → apply the test-only mutator:
    /// the plan step up to the verifier. Only [`QueryEngine::plan`] and
    /// [`QueryEngine::prepare_retrieve`] (which reports rather than gates)
    /// call it.
    fn optimize(
        &self,
        mut bound: BoundQuery,
        tb: &mut TraceBuilder,
    ) -> Result<(BoundQuery, Plan), QueryError> {
        let t = tb.start();
        let mut plan = optimizer::plan(&self.mapper, &bound)?;
        let micros = tb.finish(
            t,
            "optimize",
            vec![("estimated_io".into(), format!("{:.1}", plan.estimated_io))],
        );
        self.phase.optimize.observe_micros(micros);
        if plan.used_statistics {
            self.phase.estimate_stats_used.inc();
        } else {
            self.phase.estimate_fallbacks.inc();
        }

        if let Some(mutator) = &self.plan_mutator {
            mutator(&mut bound, &mut plan);
        }
        Ok((bound, plan))
    }

    /// The one plan step: [`QueryEngine::optimize`], then the plan
    /// verifier. Every plan this engine executes comes from here —
    /// retrieves (behind the plan cache), update selections, partner
    /// filters and VERIFY checks (never cached: their texts carry
    /// per-statement constants).
    pub(crate) fn plan(
        &self,
        bound: BoundQuery,
        tb: &mut TraceBuilder,
    ) -> Result<(BoundQuery, Plan), QueryError> {
        let (bound, plan) = self.optimize(bound, tb)?;
        if let Some(verifier) = &self.plan_verifier {
            let t = tb.start();
            let verdict = verifier(&self.mapper, &bound, &plan);
            // No fields: a failed verdict returns before the trace is
            // recorded, so an ok-flag would always read `true`.
            let micros = tb.finish(t, "plan-verify", Vec::new());
            self.phase.plan_verify.observe_micros(micros);
            if let Err(e) = verdict {
                self.phase.plan_verify_violations.inc();
                return Err(e);
            }
        }
        Ok((bound, plan))
    }

    /// The plan to execute for a retrieve: the cached entry for its
    /// normalized text, else a fresh bind and [`QueryEngine::plan`], so
    /// the cache is verified by construction. `use_cache` off (EXPLAIN)
    /// neither reads nor warms the cache.
    ///
    /// `parsed` carries the statement when the caller already parsed it;
    /// `None` defers parsing until a cache miss proves it necessary, so a
    /// hit on the normalized raw text skips the parser too.
    fn cached_or_compile(
        &self,
        parsed: Option<&RetrieveStmt>,
        source: &str,
        what: &str,
        use_cache: bool,
        tb: &mut TraceBuilder,
    ) -> Result<(CachedPlan, bool), QueryError> {
        let key = cache::normalize(source);
        let generation = self.mapper.plan_generation();
        if use_cache {
            if let Some(hit) = self.plan_cache.get(&key, generation) {
                self.phase.plan_cache_hits.inc();
                let t = tb.start();
                tb.finish(t, "plan-cache", vec![("hit".into(), "true".into())]);
                return Ok((hit, true));
            }
            self.phase.plan_cache_misses.inc();
        }
        let fresh;
        let r = match parsed {
            Some(r) => r,
            None => {
                fresh = self.parse_one_retrieve(source, what)?;
                &fresh
            }
        };
        let bound = self.bind(r, tb)?;
        let (bound, plan) = self.plan(bound, tb)?;
        let entry = CachedPlan { bound: Arc::new(bound), plan: Arc::new(plan) };
        if use_cache {
            self.plan_cache.insert(&key, generation, entry.clone());
        }
        Ok((entry, false))
    }

    /// Compile (or cache-hit) → execute one retrieve, recording phase
    /// latencies and the statement trace; optionally with the instrumented
    /// executor.
    fn traced_retrieve(
        &self,
        parsed: Option<&RetrieveStmt>,
        source: &str,
        what: &str,
        analyze: bool,
    ) -> Result<(QueryOutput, Option<AnalyzedPlan>), QueryError> {
        self.phase.statements.inc();
        self.phase.retrieves.inc();
        let label = source.trim();
        if self.events.is_enabled() {
            self.events.record(Event::StatementStart { statement: label.to_string() });
        }
        let mut tb = TraceBuilder::new(label);
        let (CachedPlan { bound, plan }, from_cache) =
            self.cached_or_compile(parsed, source, what, true, &mut tb)?;

        let executor = Executor::new(&self.mapper, &bound, &plan);
        let executor = if analyze { executor.instrumented() } else { executor };
        let io_before = self.mapper.engine().io_snapshot();
        let t = tb.start();
        let out = executor.run()?;
        let io = self.mapper.engine().io_snapshot().since(&io_before);
        let rows = out.len();
        let wall = tb.finish(
            t,
            "execute",
            vec![
                ("rows".into(), rows.to_string()),
                ("io_reads".into(), io.reads.to_string()),
                ("io_writes".into(), io.writes.to_string()),
                ("pool_hits".into(), io.pool_hits.to_string()),
            ],
        );
        self.phase.execute.observe_micros(wall);

        let analyzed = if analyze {
            let actuals = executor.node_actuals().unwrap_or_default();
            let analyzed = AnalyzedPlan::build(
                &self.mapper,
                &bound,
                (*plan).clone(),
                from_cache,
                actuals,
                rows,
                wall,
                io,
            );
            // Per-step child spans under the execute span, so `\trace`
            // shows the same breakdown EXPLAIN ANALYZE reports.
            if let Some(span) = tb.last_span_mut() {
                for (i, step) in analyzed.steps.iter().enumerate() {
                    let mut child = Span::new(
                        &format!("step[{i}] {}", step.description),
                        span.start_micros,
                        step.actuals.wall_micros,
                    );
                    child.fields.push(("rows".into(), step.actuals.rows.to_string()));
                    child.fields.push(("calls".into(), step.actuals.invocations.to_string()));
                    child.fields.push(("io_reads".into(), step.actuals.io_reads.to_string()));
                    child.fields.push(("pool_hits".into(), step.actuals.pool_hits.to_string()));
                    span.children.push(child);
                }
            }
            Some(analyzed)
        } else {
            None
        };

        self.record_statement(tb, label, rows as u64, &io, from_cache);
        Ok((out, analyzed))
    }

    /// Execute one parsed statement, autocommitted: an update runs in a
    /// transaction of its own through [`QueryEngine::execute_in`], committed
    /// on success and aborted on any error.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecResult, QueryError> {
        if let Statement::Retrieve(r) = stmt {
            return self.execute_retrieve(stmt, r);
        }
        let mut txn = self.mapper.begin();
        match self.execute_in(&mut txn, stmt) {
            Ok(result) => {
                self.mapper.commit(txn)?;
                Ok(result)
            }
            Err(e) => {
                self.mapper.abort(txn)?;
                Err(e)
            }
        }
    }

    /// Execute one parsed statement inside a caller-owned transaction —
    /// the one update path: autocommit ([`QueryEngine::execute`]) and
    /// session transactions (`sim_core::Session`) both end here.
    /// Retrieves read the live engine state, which inside a writer
    /// transaction includes its own uncommitted writes. Updates run under
    /// a statement-level savepoint: any error — from the update itself,
    /// from a VERIFY violation (reported with the constraint's ELSE
    /// message, §3.3), or from *checking* a VERIFY — rolls back exactly this
    /// statement, leaving the transaction's earlier work intact. The
    /// caller commits or aborts `txn`.
    pub fn execute_in(
        &mut self,
        txn: &mut Txn,
        stmt: &Statement,
    ) -> Result<ExecResult, QueryError> {
        if let Statement::Retrieve(r) = stmt {
            return self.execute_retrieve(stmt, r);
        }
        self.phase.statements.inc();
        self.phase.updates.inc();
        let label = stmt.to_string();
        if self.events.is_enabled() {
            self.events.record(Event::StatementStart { statement: label.clone() });
        }
        let io_before = self.mapper.engine().io_snapshot();
        let mut tb = TraceBuilder::new(&label);
        let savepoint = txn.savepoint();
        let outcome = self.apply_update(txn, stmt, &mut tb);
        if outcome.is_err() {
            self.mapper.rollback_to(txn, savepoint)?;
        }
        let io = self.mapper.engine().io_snapshot().since(&io_before);
        let count = *outcome.as_ref().unwrap_or(&0);
        self.record_statement(tb, &label, count as u64, &io, false);
        outcome.map(ExecResult::Updated)
    }

    /// Keyed on the statement's canonical rendering: repeated retrieves in
    /// a script skip bind and optimize.
    fn execute_retrieve(
        &self,
        stmt: &Statement,
        r: &RetrieveStmt,
    ) -> Result<ExecResult, QueryError> {
        let (out, _) = self.traced_retrieve(Some(r), &stmt.to_string(), "execute()", false)?;
        Ok(ExecResult::Rows(out))
    }

    /// Compile one update, apply it to `txn` and check the VERIFY
    /// constraints it triggers. Never rolls back: on `Err` the caller owns
    /// the undo.
    fn apply_update(
        &mut self,
        txn: &mut Txn,
        stmt: &Statement,
        tb: &mut TraceBuilder,
    ) -> Result<usize, QueryError> {
        let compiled = self.compile_update(stmt, tb)?;
        let mut writes = WriteSet::default();
        let t = tb.start();
        let count = update::apply(&mut self.mapper, txn, compiled, &mut writes)?;
        let micros = tb.finish(t, "execute", vec![("updated".into(), count.to_string())]);
        self.phase.execute.observe_micros(micros);
        if self.enforce_verifies {
            let t = tb.start();
            let violation = self.find_violation(&writes, tb)?;
            let micros = tb.finish(
                t,
                "verify",
                vec![("constraints".into(), self.verifies.len().to_string())],
            );
            self.phase.verify.observe_micros(micros);
            if let Some((constraint, message)) = violation {
                self.phase.integrity_violations.inc();
                return Err(QueryError::IntegrityViolation { constraint, message });
            }
        }
        Ok(count)
    }

    /// The first triggered VERIFY constraint the write set violates. Each
    /// check runs a plan from [`QueryEngine::plan`], made unless the
    /// trigger localized to no entity at all.
    fn find_violation(
        &self,
        writes: &WriteSet,
        tb: &mut TraceBuilder,
    ) -> Result<Option<(String, String)>, QueryError> {
        for cv in &self.verifies {
            if !cv.triggered(self.mapper.catalog(), writes) {
                continue;
            }
            let affected = cv.affected_entities(&self.mapper, writes)?;
            if affected.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            let (bound, plan) = self.plan(cv.bound.clone(), tb)?;
            if cv.check(&self.mapper, &bound, &plan, affected)?.is_some() {
                return Ok(Some((cv.name.clone(), cv.message.clone())));
            }
        }
        Ok(None)
    }
}
