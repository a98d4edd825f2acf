//! The five workloads and the untraced (end-to-end) run.
//!
//! Every workload is a closed loop: a client sends its next statement only
//! when the previous reply is in. A run is a sequence of *rounds* — one
//! generated statement list each — repeated until the time budget is spent;
//! throughput and the allocation figures are medians over rounds, latency
//! percentiles pool every statement of the window.

use crate::alloc_stats;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{
    bench_university, retrieve_adhoc_round, retrieve_hot_round, scan_cold_round, Backing,
    ClientGen, Model, Scale, Stmt, UpdateGen,
};
use sim_client::{Reply, SimClient};
use sim_core::{ConcurrentDb, Database, ExecResult, QueryOutput, SimError};
use sim_server::{serve, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Buffer-pool frames where the data fits (the engine's default).
pub const POOL: usize = 1024;
/// Buffer-pool frames of `scan_cold`: the ~190 data blocks are about five
/// times this.
pub const COLD_POOL: usize = 36;
/// Connections (= server workers) in `server_mixed`; the reference sandbox
/// has two cores.
pub const CLIENTS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Rounds run under the counting allocator; the heap metrics are their
/// medians (a peak is a maximum, and one maximum is a noisy thing).
pub const HEAP_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RetrieveHot,
    RetrieveAdhoc,
    ScanCold,
    UpdateDurable,
    ServerMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RetrieveHot,
        Workload::RetrieveAdhoc,
        Workload::ScanCold,
        Workload::UpdateDurable,
        Workload::ServerMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RetrieveHot => "retrieve_hot",
            Workload::RetrieveAdhoc => "retrieve_adhoc",
            Workload::ScanCold => "scan_cold",
            Workload::UpdateDurable => "update_durable",
            Workload::ServerMixed => "server_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_durable(self) -> bool {
        !matches!(self, Workload::RetrieveHot | Workload::RetrieveAdhoc)
    }
}

/// How long a phase runs: the driver gives seconds; the crate's tests give
/// a round count so that results repeat exactly.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Rounds(usize),
}

impl Budget {
    pub fn spent(self, started: Instant, rounds: usize) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rounds >= n,
        }
    }

    /// The same kind of budget, `share` of the size.
    pub fn part(self, share: f64) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s * share),
            Budget::Rounds(n) => Budget::Rounds(((n as f64 * share).ceil() as usize).max(1)),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub scale: Scale,
    pub seed: u64,
    pub budget: Budget,
    /// Directory (inside the checkout) for database files and traces.
    pub scratch: PathBuf,
}

impl Options {
    pub fn db_dir(&self, workload: Workload) -> PathBuf {
        self.scratch.join(format!("db-{}-{}", workload.name(), std::process::id()))
    }
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused or wrong-result statements.
    pub failed: u64,
    /// FNV-1a over the canonical form of every checked result.
    pub digest: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ----- set-up -------------------------------------------------------------------

/// Build, load, analyze and (durable workloads) checkpoint the database;
/// `scan_cold` also closes it and reopens it on the small pool.
pub fn setup(workload: Workload, model: &Model, dir: &Path) -> Result<Database, SimError> {
    let _ = std::fs::remove_dir_all(dir);
    match workload {
        Workload::RetrieveHot | Workload::RetrieveAdhoc => {
            bench_university(model, Backing::Mem, POOL)
        }
        Workload::ScanCold => {
            bench_university(model, Backing::Dir(dir), POOL)?.close()?;
            Database::open_with_pool(dir, COLD_POOL)
        }
        Workload::UpdateDurable | Workload::ServerMixed => {
            bench_university(model, Backing::Dir(dir), POOL)
        }
    }
}

/// Set up `times` times; the last database is the one measured. Returns it
/// with the median set-up time in seconds.
pub fn timed_setups(
    workload: Workload,
    model: &Model,
    dir: &Path,
    times: usize,
) -> Result<(Database, f64), SimError> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(workload, model, dir)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&secs)))
}

pub fn start_server(db: ConcurrentDb) -> std::io::Result<Server> {
    serve(db, ServerConfig { workers: CLIENTS, backlog: CLIENTS, ..ServerConfig::default() })
}

// ----- executing and checking ---------------------------------------------------

/// Where a workload's rounds come from.
pub enum Rounds {
    /// The same list every round (the retrieve workloads).
    Fixed(Vec<Stmt>),
    Update(Box<UpdateGen>),
}

impl Rounds {
    pub fn for_workload(workload: Workload, model: &Model, seed: u64) -> Rounds {
        match workload {
            Workload::RetrieveHot => Rounds::Fixed(retrieve_hot_round(model, seed)),
            Workload::RetrieveAdhoc => Rounds::Fixed(retrieve_adhoc_round(model, seed)),
            Workload::ScanCold => Rounds::Fixed(scan_cold_round(model, seed)),
            Workload::UpdateDurable => Rounds::Update(Box::new(UpdateGen::new(model, seed))),
            Workload::ServerMixed => unreachable!("server_mixed rounds come from ClientGen"),
        }
    }

    pub fn next_round(&mut self) -> std::borrow::Cow<'_, [Stmt]> {
        match self {
            Rounds::Fixed(list) => list.as_slice().into(),
            Rounds::Update(gen) => gen.round().into(),
        }
    }
}

/// Run one statement in process, the way an application program would.
pub fn exec_in_process(db: &mut Database, stmt: &Stmt) -> Result<ExecResult, String> {
    if stmt.class.is_retrieve() {
        db.query(&stmt.text).map(ExecResult::Rows).map_err(|e| e.to_string())
    } else {
        db.run_one(&stmt.text).map_err(|e| e.to_string())
    }
}

fn exec_on_wire(client: &mut SimClient, stmt: &Stmt) -> Result<ExecResult, String> {
    match client.run(&stmt.text) {
        Ok(Reply::Rows { output, .. }) => Ok(ExecResult::Rows(output)),
        Ok(Reply::Ack(n)) => Ok(ExecResult::Updated(n as usize)),
        Err(e) => Err(e.to_string()),
    }
}

/// Everything a measured phase accumulates.
#[derive(Debug, Default)]
pub struct Measured {
    pub lat_ns: Vec<u64>,
    pub rounds: Vec<RoundStat>,
    pub attempted: u64,
    pub failed: u64,
    /// Rows returned by retrieves.
    pub rows: u64,
    /// DML text bytes of update statements.
    pub update_text_bytes: u64,
    /// First few failures, for the operator.
    pub failures: Vec<String>,
    pub heap: Vec<HeapStat>,
}

#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    pub secs: f64,
    pub stmts: usize,
}

/// Heap use of one round run under the counting allocator.
#[derive(Debug, Clone, Copy)]
pub struct HeapStat {
    pub stmts: usize,
    pub alloc_bytes: u64,
    pub peak_bytes: u64,
}

impl Measured {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Check one reply against the model's prediction; a failed, refused or
    /// wrong-sized reply is counted, never fatal. With a digest, the
    /// canonical form of the reply is folded into it.
    fn check(
        &mut self,
        stmt: &Stmt,
        reply: &Result<ExecResult, String>,
        digest: Option<&mut Digest>,
    ) {
        self.attempted += 1;
        let got = match reply {
            Ok(ExecResult::Rows(out)) => {
                self.rows += out.len() as u64;
                if let Some(d) = digest {
                    d.feed(sim_query::normalize::canonical(out).as_bytes());
                }
                out.len()
            }
            Ok(ExecResult::Updated(n)) => {
                self.update_text_bytes += stmt.text.len() as u64;
                *n
            }
            Err(e) => return self.fail(format!("{e}: {}", stmt.text)),
        };
        if got != stmt.expect {
            self.fail(format!("expected {} got {got}: {}", stmt.expect, stmt.text));
        }
    }

    /// Execute a statement list in order, timing each call.
    pub fn exec_all(
        &mut self,
        stmts: &[Stmt],
        mut exec: impl FnMut(&Stmt) -> Result<ExecResult, String>,
        mut digest: Option<&mut Digest>,
    ) {
        for stmt in stmts {
            let t = Instant::now();
            let reply = exec(stmt);
            self.lat_ns.push(t.elapsed().as_nanos() as u64);
            self.check(stmt, &reply, digest.as_deref_mut());
        }
    }

    /// Run `body` as one timed round.
    pub fn round(&mut self, stmts: usize, body: impl FnOnce(&mut Measured)) {
        self.lat_ns.reserve(stmts);
        let t = Instant::now();
        body(self);
        self.rounds.push(RoundStat { secs: t.elapsed().as_secs_f64(), stmts });
    }

    /// Run `body` as a heap-counted round. Counting slows every
    /// allocation, so the round's samples are dropped.
    pub fn heap_round(&mut self, stmts: usize, body: impl FnOnce(&mut Measured)) {
        self.lat_ns.reserve(stmts);
        let heap = alloc_stats::Window::open();
        body(self);
        let (alloc_bytes, peak_bytes) = heap.close();
        self.heap.push(HeapStat { stmts, alloc_bytes, peak_bytes });
        self.forget_samples();
    }

    /// Drop what the untimed rounds sampled; what they attempted and what
    /// failed stays counted.
    pub fn forget_samples(&mut self) {
        self.lat_ns.clear();
        self.rows = 0;
        self.update_text_bytes = 0;
    }

    pub fn stmts(&self) -> usize {
        self.rounds.iter().map(|r| r.stmts).sum()
    }

    pub fn wall_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.secs).sum()
    }

    pub fn mean_latency_us(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e3 / self.lat_ns.len().max(1) as f64
    }

    /// Statements per second: the median over the timed rounds.
    pub fn stmt_per_s(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.stmts as f64 / r.secs).collect::<Vec<_>>())
    }

    /// `stmt_per_s`, `lat_p50_us`, `lat_p99_us`, `peak_stmt_alloc_mb`,
    /// `alloc_kb_per_stmt`.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, f64)> {
        self.lat_ns.sort_unstable();
        let heap = |f: fn(&HeapStat) -> f64| median(&self.heap.iter().map(f).collect::<Vec<_>>());
        vec![
            ("stmt_per_s", self.stmt_per_s()),
            ("lat_p50_us", percentile_sorted(&self.lat_ns, 50.0) as f64 / 1e3),
            ("lat_p99_us", percentile_sorted(&self.lat_ns, 99.0) as f64 / 1e3),
            ("peak_stmt_alloc_mb", heap(|h| h.peak_bytes as f64 / 1_048_576.0)),
            ("alloc_kb_per_stmt", heap(|h| h.alloc_bytes as f64 / 1024.0 / h.stmts as f64)),
        ]
    }
}

/// Render rows the way the generators' `final_state` does: `a|b|c`, sorted.
fn rendered(out: &QueryOutput) -> Vec<String> {
    let mut lines: Vec<String> = out
        .rows()
        .iter()
        .map(|row| row.iter().map(ToString::to_string).collect::<Vec<_>>().join("|"))
        .collect();
    lines.sort_unstable();
    lines
}

/// Read back what a write workload changed and compare it, row for row,
/// with the generator's model. Each query counts as one statement.
pub fn check_final_state(
    m: &mut Measured,
    digest: &mut Digest,
    expected: Vec<(String, Vec<String>)>,
    mut query: impl FnMut(&str) -> Result<QueryOutput, String>,
) {
    for (text, rows) in expected {
        m.attempted += 1;
        match query(&text) {
            Ok(out) => {
                digest.feed(sim_query::normalize::canonical(&out).as_bytes());
                let got = rendered(&out);
                if got != rows {
                    let at = got.iter().zip(&rows).position(|(g, e)| g != e);
                    m.fail(format!(
                        "final state differs ({} rows, model {}; first at {at:?}): {text}",
                        got.len(),
                        rows.len()
                    ));
                }
            }
            Err(e) => m.fail(format!("{e}: {text}")),
        }
    }
}

// ----- the measured loops -------------------------------------------------------

/// Closed loop, one thread, in process. Three kinds of round, in order: a
/// warm-up that fills caches and feeds the digest, [`HEAP_ROUNDS`]
/// heap-counted rounds (after which `after_heap_rounds` may look at the
/// database), then timed rounds until the budget is spent. `update_durable` checkpoints at the
/// end of every round, inside the round's time; the timed rounds'
/// checkpoint durations are returned in milliseconds.
pub fn run_in_process(
    db: &mut Database,
    rounds: &mut Rounds,
    checkpoint_each_round: bool,
    budget: Budget,
    digest: &mut Digest,
    after_heap_rounds: impl FnOnce(&Database),
) -> (Measured, Vec<f64>) {
    let play = |m: &mut Measured, db: &mut Database, stmts: &[Stmt], digest| {
        m.exec_all(stmts, |s| exec_in_process(db, s), digest);
        checkpoint_each_round.then(|| {
            let t = Instant::now();
            if let Err(e) = db.checkpoint() {
                m.fail(format!("checkpoint: {e}"));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
    };
    let mut m = Measured::default();
    play(&mut m, db, &rounds.next_round(), Some(digest));
    m.forget_samples();
    for _ in 0..HEAP_ROUNDS {
        let stmts = rounds.next_round();
        m.heap_round(stmts.len(), |m| {
            play(m, db, &stmts, None);
        });
    }
    after_heap_rounds(db);

    let mut checkpoints_ms = Vec::new();
    let started = Instant::now();
    while !budget.spent(started, m.rounds.len()) {
        let stmts = rounds.next_round();
        m.round(stmts.len(), |m| checkpoints_ms.extend(play(m, db, &stmts, None)));
    }
    (m, checkpoints_ms)
}

/// Closed loops over the wire, one connection and one thread per generator.
/// Rounds start together on a barrier and last until the slowest client is
/// done; the same three kinds of round as in process. The first client's
/// thread leads: it keeps the round statistics and decides when to stop.
pub fn run_served(
    server: &Server,
    gens: &mut [ClientGen],
    budget: Budget,
    after_heap_rounds: impl FnOnce() + Send,
) -> Measured {
    let clients = gens.len();
    let addr = server.addr();
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let parts: Vec<Measured> = std::thread::scope(|scope| {
        let mut after = Some(after_heap_rounds);
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, gen)| {
                let (barrier, stop) = (&barrier, &stop);
                let mut after = if i == 0 { after.take() } else { None };
                scope.spawn(move || {
                    let mut m = Measured::default();
                    let mut client =
                        SimClient::connect(addr).map_err(|e| m.fail(format!("connect: {e}"))).ok();
                    let mut started = Instant::now();
                    for round in 0.. {
                        // The leader stored `stop` before the barrier that
                        // ended the last round, so every client reads the
                        // same value and no generated round goes unsent.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let timed = round > HEAP_ROUNDS;
                        if round == HEAP_ROUNDS + 1 {
                            m.forget_samples();
                        }
                        let stmts = gen.round();
                        m.lat_ns.reserve(stmts.len());
                        barrier.wait();
                        let heap = (i == 0 && round > 0 && !timed).then(alloc_stats::Window::open);
                        let t = Instant::now();
                        m.exec_all(
                            &stmts,
                            |s| match client.as_mut() {
                                Some(c) => exec_on_wire(c, s),
                                None => Err("no connection".into()),
                            },
                            None,
                        );
                        if i == 0 && timed && budget.spent(started, m.rounds.len() + 1) {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if i != 0 {
                            continue;
                        }
                        let stmts = clients * stmts.len();
                        if let Some(heap) = heap {
                            let (alloc_bytes, peak_bytes) = heap.close();
                            m.heap.push(HeapStat { stmts, alloc_bytes, peak_bytes });
                            if round == HEAP_ROUNDS {
                                if let Some(f) = after.take() {
                                    f();
                                }
                                started = Instant::now();
                            }
                        } else if timed {
                            m.rounds.push(RoundStat { secs: t.elapsed().as_secs_f64(), stmts });
                        }
                    }
                    if let Some(c) = client {
                        if let Err(e) = c.close() {
                            m.fail(format!("close: {e}"));
                        }
                    }
                    m
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut total = Measured::default();
    for part in parts {
        total.lat_ns.extend(part.lat_ns);
        total.rounds.extend(part.rounds);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.rows += part.rows;
        total.update_text_bytes += part.update_text_bytes;
        total.failures.extend(part.failures);
        total.heap.extend(part.heap);
    }
    total
}

/// Blocks allocated on the database's disk: the space the data takes.
fn data_blocks(db: &Database) -> f64 {
    db.mapper().engine().pool().block_count() as f64
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let model = Model::generate(opts.scale, opts.seed);
    let dir = opts.db_dir(workload);
    let (mut db, setup_s) =
        timed_setups(workload, &model, &dir, SETUPS).map_err(|e| format!("set-up: {e}"))?;
    let mut digest = Digest::default();
    // Space is read after the heap-counted rounds: a fixed statement count,
    // so it does not depend on how many rounds fit the time budget.
    let mut blocks = data_blocks(&db);

    let mut m = if workload == Workload::ServerMixed {
        // A served database only shows its registry: count from here on.
        let allocated = |s: &sim_obs::MetricsSnapshot| s.counter("storage.block_allocations");
        let before = allocated(&db.metrics());
        let mut server = start_server(db.into_concurrent()).map_err(|e| format!("serve: {e}"))?;
        let mut gens: Vec<ClientGen> =
            (0..CLIENTS).map(|i| ClientGen::new(&model, opts.seed, i, CLIENTS)).collect();
        let mut m = run_served(&server, &mut gens, opts.budget, || {
            blocks += (allocated(&server.db().metrics()) - before) as f64;
        });
        match SimClient::connect(server.addr()) {
            Ok(mut client) => {
                let expected = gens.iter().map(ClientGen::final_state).collect();
                check_final_state(&mut m, &mut digest, expected, |q| {
                    client.query(q).map_err(|e| e.to_string())
                });
            }
            Err(e) => m.fail(format!("connect: {e}")),
        }
        server.shutdown();
        m
    } else {
        let mut rounds = Rounds::for_workload(workload, &model, opts.seed);
        let checkpoints = workload == Workload::UpdateDurable;
        let (mut m, _) =
            run_in_process(&mut db, &mut rounds, checkpoints, opts.budget, &mut digest, |db| {
                blocks = data_blocks(db);
            });
        if let Rounds::Update(gen) = &rounds {
            // A crash, not a shutdown: every acknowledged statement must be
            // found again by recovery.
            drop(db);
            match Database::open_with_pool(&dir, POOL) {
                Ok(reopened) => {
                    check_final_state(&mut m, &mut digest, gen.final_state(), |q| {
                        reopened.query(q).map_err(|e| e.to_string())
                    });
                }
                Err(e) => m.fail(format!("reopen: {e}")),
            }
        }
        m
    };
    let _ = std::fs::remove_dir_all(&dir);

    for f in &m.failures {
        eprintln!("sim-bench: {}: {f}", workload.name());
    }
    let mut metrics = vec![("setup_s", setup_s)];
    metrics.extend(m.end_to_end());
    metrics.push(("data_blocks", blocks));
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        digest: digest.0,
        samples: m.lat_ns.len(),
        metrics,
    })
}
