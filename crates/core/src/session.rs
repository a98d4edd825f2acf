//! Concurrent sessions: many clients, one database (DESIGN.md §14).
//!
//! [`ConcurrentDb`] wraps a [`Database`] for shared use. Statements still
//! execute one at a time under an engine-wide mutex — the paper's SIM
//! delegated physical concurrency to DMSII, and this reproduction keeps
//! the single-threaded executor — but *transactions* interleave freely:
//!
//! * Every [`Session`] can hold an open transaction across statements
//!   (`begin` / `commit` / `abort`), with statement-level savepoint
//!   rollback on errors inside the transaction.
//! * Writers follow strict two-phase locking on class families: before a
//!   statement executes, its session takes S (retrieve) or X (update)
//!   locks on every family in the statement's EVA closure, held to commit.
//!   Lock waits time out (`SIM-C001`) — the timed-out transaction is the
//!   presumed deadlock victim and aborts.
//! * A retrieve outside any transaction takes **no locks at all**: it
//!   pins a begin-timestamp and executes against a [`SnapshotView`] built
//!   from the undo log's pre-images, so readers never block writers and
//!   writers never block readers.
//!
//! Lock granularity note: the lock set of a statement is the *connected
//! EVA component* of its named classes (family roots linked by EVA edges
//! in either direction). That is deliberately conservative — an update to
//! one family can touch backpointers one hop away, and an in-transaction
//! retrieve can traverse arbitrarily deep — and makes the 2PL schedule
//! serializable without predicate locks. Writers on EVA-disjoint families
//! still run concurrently; snapshot readers always do.

use crate::error::SimError;
use crate::Database;
use sim_catalog::Catalog;
use sim_dml::{parse_statement, parse_statements, Statement};
use sim_obs::{Event, MetricsSnapshot, Registry};
use sim_query::{ExecResult, QueryEngine, QueryError, QueryOutput};
use sim_storage::{LockKey, LockMode, LockTable, Txn};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A database opened for concurrent sessions.
pub struct ConcurrentDb {
    shared: Arc<Shared>,
}

struct Shared {
    engine: Mutex<QueryEngine>,
    locks: Arc<LockTable>,
    /// Family root → the sorted family roots of its EVA-connected
    /// component (the statement lock set), precomputed from the schema.
    components: HashMap<u32, Arc<Vec<u32>>>,
    catalog: Arc<Catalog>,
    /// Session-id source; ids start at 1 (0 means "no session" in the
    /// flight recorder's attribution field).
    next_session: AtomicU64,
}

impl Shared {
    /// The executor runs one statement at a time; entering a poisoned lock
    /// is safe because every statement either commits or rolls back to a
    /// savepoint before the guard drops.
    fn lock_engine(&self) -> MutexGuard<'_, QueryEngine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Family roots grouped into EVA-connected components: two families land
/// in one component when any class of one declares an EVA ranging over a
/// class of the other (either direction).
fn eva_components(catalog: &Catalog) -> HashMap<u32, Arc<Vec<u32>>> {
    // Tiny union-find keyed by family-root class id.
    let mut parent: HashMap<u32, u32> = HashMap::new();
    fn find(parent: &mut HashMap<u32, u32>, x: u32) -> u32 {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    for class in catalog.classes() {
        find(&mut parent, catalog.base_of(class.id).0);
    }
    for attr in catalog.attributes() {
        if let Some(range) = attr.eva_range() {
            let a = find(&mut parent, catalog.base_of(attr.owner).0);
            let b = find(&mut parent, catalog.base_of(range).0);
            if a != b {
                parent.insert(a, b);
            }
        }
    }
    let roots: Vec<u32> = parent.keys().copied().collect();
    let mut members: HashMap<u32, BTreeSet<u32>> = HashMap::new();
    for f in roots {
        let rep = find(&mut parent, f);
        members.entry(rep).or_default().insert(f);
    }
    let mut out = HashMap::new();
    for set in members.into_values() {
        let component = Arc::new(set.iter().copied().collect::<Vec<u32>>());
        for f in set {
            out.insert(f, Arc::clone(&component));
        }
    }
    out
}

impl ConcurrentDb {
    pub(crate) fn new(db: Database) -> ConcurrentDb {
        let engine = db.into_engine();
        let storage = engine.mapper().engine();
        storage.set_concurrent(true);
        let locks = Arc::clone(storage.lock_table());
        let catalog = engine.mapper().shared_catalog();
        let components = eva_components(&catalog);
        ConcurrentDb {
            shared: Arc::new(Shared {
                engine: Mutex::new(engine),
                locks,
                components,
                catalog,
                next_session: AtomicU64::new(1),
            }),
        }
    }

    /// Open a new session. Sessions are independent and [`Send`]: hand
    /// them to threads freely. Emits a `session_start` event; the matching
    /// `session_end` is emitted when the session drops.
    pub fn session(&self) -> Session {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.shared.lock_engine().event_log().record(Event::SessionStart { session: id });
        Session {
            shared: Arc::clone(&self.shared),
            txn: None,
            id,
            lock_timeout: None,
            last_plan_cached: false,
            user_savepoints: Vec::new(),
        }
    }

    /// How long a statement waits for a class lock before it is presumed
    /// deadlocked and its transaction aborts with `SIM-C001`.
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.shared.locks.set_timeout(timeout);
    }

    /// The class/block lock table (observability and tests).
    pub fn lock_table(&self) -> &Arc<LockTable> {
        &self.shared.locks
    }

    /// Snapshot of every metric in the shared registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry().snapshot()
    }

    /// The engine-wide metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.shared.lock_engine().registry())
    }

    /// Toggle VERIFY enforcement (§3.3) for every session; on by default.
    pub fn set_enforce_verifies(&self, on: bool) {
        self.shared.lock_engine().enforce_verifies = on;
    }

    /// Whether the underlying database is file-backed (see
    /// [`Database::is_durable`]).
    pub fn is_durable(&self) -> bool {
        self.shared.lock_engine().mapper().engine().is_durable()
    }

    /// Group-commit window shared by every session (see
    /// [`Database::set_group_commit_window`]): how many committed
    /// transactions may share one WAL fsync.
    pub fn set_group_commit_window(&self, window: usize) -> Result<(), SimError> {
        self.shared.lock_engine().mapper().set_group_commit_window(window)?;
        Ok(())
    }

    /// Force the WAL group-commit barrier: every transaction committed (by
    /// any session) before the call is durable on return. A no-op when
    /// nothing is pending or the database is in-memory.
    pub fn sync_wal(&self) -> Result<(), SimError> {
        self.shared.lock_engine().mapper().sync_wal()?;
        Ok(())
    }

    /// Tear down concurrent mode and recover exclusive [`Database`]
    /// access. Fails (returning `self`) while any other session handle or
    /// clone is alive.
    pub fn into_database(self) -> Result<Database, ConcurrentDb> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                let engine = shared.engine.into_inner().unwrap_or_else(PoisonError::into_inner);
                engine.mapper().engine().set_concurrent(false);
                Ok(Database::from_engine(engine))
            }
            Err(shared) => Err(ConcurrentDb { shared }),
        }
    }
}

impl std::fmt::Debug for ConcurrentDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentDb").field("components", &self.shared.components.len()).finish()
    }
}

/// One client's connection to a [`ConcurrentDb`].
///
/// Without an open transaction, updates autocommit and retrieves run as
/// lock-free snapshot reads. Inside `begin()`…`commit()`, every statement
/// joins the session's transaction under strict 2PL.
pub struct Session {
    shared: Arc<Shared>,
    txn: Option<Txn>,
    /// Stable session id (≥ 1), stamped into flight-recorder records and
    /// the `session_start`/`session_end` event pair.
    id: u64,
    /// Per-session lock deadline; `None` uses the table-wide default.
    lock_timeout: Option<Duration>,
    /// Whether this session's most recent retrieve hit the plan cache
    /// (captured under the engine lock, so concurrent sessions cannot
    /// clobber it between execution and the read).
    last_plan_cached: bool,
    /// User savepoints of the open transaction, as undo-log positions.
    /// Statements inside a transaction take internal savepoints of their
    /// own (statement-level rollback), so user-facing numbering must not
    /// expose raw undo-log positions: [`Session::savepoint`] hands out
    /// 1, 2, 3, … per transaction and this vector maps them back.
    user_savepoints: Vec<usize>,
}

impl Session {
    /// This session's id (≥ 1, unique within its [`ConcurrentDb`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Set this session's lock deadline: its statements wait up to
    /// `timeout` for class locks before aborting as a presumed deadlock
    /// victim (`SIM-C001`). `None` restores the table-wide default. Other
    /// sessions are unaffected — a short deadline here never changes a
    /// long-deadline session's behavior.
    pub fn set_lock_timeout(&mut self, timeout: Option<Duration>) {
        self.lock_timeout = timeout;
    }

    /// Whether the most recent retrieve on this session was served from
    /// the plan cache.
    pub fn last_plan_cached(&self) -> bool {
        self.last_plan_cached
    }

    /// Prepare one statement for repeated execution, returning its
    /// canonical text. For retrieves this plans, verifies and **pins** the
    /// plan-cache entry (exempt from LRU eviction, still invalidated by
    /// DDL); executing the returned text hits the pinned plan. Balance
    /// with [`Session::unprepare`].
    pub fn prepare(&mut self, dml: &str) -> Result<String, SimError> {
        Ok(self.shared.lock_engine().prepare_statement(dml)?)
    }

    /// Release a preparation made by [`Session::prepare`] (pass the
    /// canonical text it returned).
    pub fn unprepare(&mut self, canonical: &str) {
        self.shared.lock_engine().release_statement(canonical);
    }
    /// Open a transaction; statements until `commit`/`abort` join it.
    pub fn begin(&mut self) -> Result<(), SimError> {
        if self.txn.is_some() {
            return Err(no_nested());
        }
        let shared = Arc::clone(&self.shared);
        let eng = shared.lock_engine();
        self.txn = Some(eng.mapper().engine().begin());
        self.user_savepoints.clear();
        Ok(())
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Commit the open transaction, releasing its locks.
    pub fn commit(&mut self) -> Result<(), SimError> {
        let txn = self.txn.take().ok_or_else(no_txn)?;
        self.user_savepoints.clear();
        let shared = Arc::clone(&self.shared);
        let mut eng = shared.lock_engine();
        eng.mapper_mut().commit(txn)?;
        Ok(())
    }

    /// Abort the open transaction, undoing it and releasing its locks.
    pub fn abort(&mut self) -> Result<(), SimError> {
        let txn = self.txn.take().ok_or_else(no_txn)?;
        self.user_savepoints.clear();
        let shared = Arc::clone(&self.shared);
        let mut eng = shared.lock_engine();
        eng.mapper_mut().abort(txn)?;
        Ok(())
    }

    /// A savepoint in the open transaction (pass to
    /// [`Session::rollback_to`]). Numbered 1, 2, 3, … per transaction —
    /// stable for users even though statements take internal savepoints
    /// of their own between calls.
    pub fn savepoint(&mut self) -> Result<usize, SimError> {
        let internal = self.txn.as_ref().ok_or_else(no_txn)?.savepoint();
        self.user_savepoints.push(internal);
        Ok(self.user_savepoints.len())
    }

    /// Roll the open transaction back to `savepoint`, invalidating every
    /// savepoint taken after it (`savepoint` itself stays valid and can be
    /// rolled back to again). A stale or never-issued savepoint is a typed
    /// `SIM-C003` error.
    pub fn rollback_to(&mut self, savepoint: usize) -> Result<(), SimError> {
        if self.txn.is_none() {
            return Err(no_txn());
        }
        let Some(&internal) = savepoint.checked_sub(1).and_then(|i| self.user_savepoints.get(i))
        else {
            return Err(SimError::from(sim_storage::StorageError::BadSavepoint {
                savepoint,
                len: self.user_savepoints.len(),
            }));
        };
        let shared = Arc::clone(&self.shared);
        let mut eng = shared.lock_engine();
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        eng.mapper_mut().rollback_to(txn, internal)?;
        self.user_savepoints.truncate(savepoint);
        Ok(())
    }

    /// Run a DML script (one or more statements).
    pub fn run(&mut self, dml: &str) -> Result<Vec<ExecResult>, SimError> {
        let statements = parse_statements(dml).map_err(QueryError::from)?;
        let mut out = Vec::with_capacity(statements.len());
        for stmt in &statements {
            out.push(self.run_stmt(stmt)?);
        }
        Ok(out)
    }

    /// Run exactly one statement.
    pub fn run_one(&mut self, dml: &str) -> Result<ExecResult, SimError> {
        let stmt = parse_statement(dml).map_err(QueryError::from)?;
        self.run_stmt(&stmt)
    }

    /// Run a single retrieve. Outside a transaction this is a snapshot
    /// read: no locks, never blocked by writers.
    pub fn query(&mut self, dml: &str) -> Result<QueryOutput, SimError> {
        match self.run_one(dml)? {
            ExecResult::Rows(out) => Ok(out),
            ExecResult::Updated(_) => Err(SimError::Query(QueryError::Analyze(
                "query() accepts a single retrieve".into(),
            ))),
        }
    }

    fn run_stmt(&mut self, stmt: &Statement) -> Result<ExecResult, SimError> {
        if self.txn.is_some() {
            return self.exec_in_txn(stmt);
        }
        if let Statement::Retrieve(_) = stmt {
            return self.snapshot_query(stmt);
        }
        // Autocommit update: a one-statement transaction.
        self.begin()?;
        match self.exec_in_txn(stmt) {
            Ok(result) => {
                self.commit()?;
                Ok(result)
            }
            Err(e) => {
                // exec_in_txn aborts on lock timeout; otherwise undo here.
                if self.txn.is_some() {
                    self.abort()?;
                }
                Err(e)
            }
        }
    }

    /// Execute one statement inside the open transaction: acquire its
    /// class-family locks (outside the engine mutex, so waiting never
    /// blocks other sessions' statements), then run it.
    fn exec_in_txn(&mut self, stmt: &Statement) -> Result<ExecResult, SimError> {
        let mode = match stmt {
            Statement::Retrieve(_) => LockMode::Shared,
            _ => LockMode::Exclusive,
        };
        let txn_id = self.txn.as_ref().ok_or_else(no_txn)?.id();
        if let Err(e) = self.lock_statement(txn_id, stmt, mode) {
            // Lock timeout: this transaction is the presumed deadlock
            // victim. Strict 2PL offers no partial retreat — abort it.
            self.abort()?;
            return Err(e);
        }
        let shared = Arc::clone(&self.shared);
        let mut eng = shared.lock_engine();
        eng.set_session_tag(self.id);
        let txn = self.txn.as_mut().ok_or_else(no_txn)?;
        let result = eng.execute_in(txn, stmt);
        self.last_plan_cached = eng.last_plan_cached();
        Ok(result?)
    }

    /// Take `mode` locks on the EVA component of every class the
    /// statement names, in sorted order (two statements never cross).
    fn lock_statement(
        &self,
        txn_id: u64,
        stmt: &Statement,
        mode: LockMode,
    ) -> Result<(), SimError> {
        let mut families: BTreeSet<u32> = BTreeSet::new();
        let mut add = |name: &str| {
            if let Some(class) = self.shared.catalog.class_by_name(name) {
                let root = self.shared.catalog.base_of(class.id).0;
                match self.shared.components.get(&root) {
                    Some(component) => families.extend(component.iter().copied()),
                    None => {
                        families.insert(root);
                    }
                }
            }
            // Unknown class names produce a bind error inside the engine;
            // nothing to lock.
        };
        match stmt {
            Statement::Retrieve(r) => {
                for p in &r.perspectives {
                    add(&p.class);
                }
            }
            Statement::Insert(i) => {
                add(&i.class);
                if let Some((ancestor, _)) = &i.from {
                    add(ancestor);
                }
            }
            Statement::Modify(m) => add(&m.class),
            Statement::Delete(d) => add(&d.class),
        }
        for family in families {
            let key = LockKey::Class(family);
            match mode {
                LockMode::Shared => {
                    self.shared.locks.lock_shared_for(txn_id, key, self.lock_timeout)?;
                }
                LockMode::Exclusive => {
                    self.shared.locks.lock_exclusive_for(txn_id, key, self.lock_timeout)?;
                }
            }
        }
        Ok(())
    }

    /// A lock-free snapshot read: pin a begin-timestamp, materialize the
    /// undo pre-images younger than it, and execute against that view.
    fn snapshot_query(&mut self, stmt: &Statement) -> Result<ExecResult, SimError> {
        let shared = Arc::clone(&self.shared);
        let mut eng = shared.lock_engine();
        eng.set_session_tag(self.id);
        let storage = eng.mapper().engine();
        let ticket = storage.begin_read();
        let view = Arc::new(storage.snapshot_at(ticket.ts, None));
        storage.install_read_view(Some(view));
        let result = eng.execute(stmt);
        let storage = eng.mapper().engine();
        storage.install_read_view(None);
        storage.end_read(ticket);
        self.last_plan_cached = eng.last_plan_cached();
        Ok(result?)
    }
}

impl Drop for Session {
    /// A dropped session aborts its open transaction — locks must never
    /// outlive their owner, **unconditionally**: the old code discarded
    /// the abort result, so an abort error left the dead session's locks
    /// in the table until every waiter timed out.
    fn drop(&mut self) {
        let shared = Arc::clone(&self.shared);
        // Engine mutex first (poison-recovering). A waiter that acquires
        // one of the freed class locks below still serializes behind this
        // mutex, so it can never observe state the undo has not finished
        // (or failed) with.
        let mut eng = shared.lock_engine();
        if let Some(txn) = self.txn.take() {
            let txn_id = txn.id();
            // Locks first, then best-effort undo. `abort` releases locks
            // on its own path too (harmless double release), but an abort
            // that errors out early must not strand them.
            shared.locks.unlock_all(txn_id);
            if let Err(e) = eng.mapper_mut().abort(txn) {
                eng.event_log().record(Event::SessionAbortFailed {
                    session: self.id,
                    txn: txn_id,
                    error: e.to_string(),
                });
            }
        }
        eng.event_log().record(Event::SessionEnd { session: self.id });
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("in_txn", &self.in_txn()).finish()
    }
}

fn no_txn() -> SimError {
    SimError::Query(QueryError::Analyze("no open transaction (call begin() first)".into()))
}

fn no_nested() -> SimError {
    SimError::Query(QueryError::Analyze("a transaction is already open".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::Value;

    fn people_db() -> ConcurrentDb {
        Database::create("Class Person ( name: string[30]; soc-sec-no: integer unique required );")
            .unwrap()
            .into_concurrent()
    }

    fn names(out: &QueryOutput) -> Vec<String> {
        let mut v: Vec<String> = out
            .rows()
            .iter()
            .map(|r| match &r[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn snapshot_readers_ignore_open_writers() {
        let db = people_db();
        let mut writer = db.session();
        let mut reader = db.session();
        writer.run_one(r#"Insert person(name := "Ada", soc-sec-no := 1)."#).unwrap();

        writer.begin().unwrap();
        writer.run_one(r#"Insert person(name := "Bob", soc-sec-no := 2)."#).unwrap();
        writer.run_one(r#"Modify person(name := "Ada L") Where soc-sec-no = 1."#).unwrap();

        // The writer's transaction is open and holds X class locks; the
        // reader's snapshot retrieve takes no locks and sees begin-ts state.
        let out = reader.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["Ada".to_string()]);
        // The writer itself reads its own uncommitted writes.
        let own = writer.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&own), vec!["Ada L".to_string(), "Bob".to_string()]);

        writer.commit().unwrap();
        let out = reader.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["Ada L".to_string(), "Bob".to_string()]);
    }

    #[test]
    fn abort_undoes_a_whole_transaction() {
        let db = people_db();
        let mut s = db.session();
        s.run_one(r#"Insert person(name := "Keep", soc-sec-no := 1)."#).unwrap();
        s.begin().unwrap();
        s.run_one(r#"Insert person(name := "Drop", soc-sec-no := 2)."#).unwrap();
        s.run_one("Delete person Where soc-sec-no = 1.").unwrap();
        s.abort().unwrap();
        let out = s.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["Keep".to_string()]);
        assert_eq!(db.lock_table().locked_key_count(), 0);
    }

    #[test]
    fn savepoints_roll_back_statement_suffixes() {
        let db = people_db();
        let mut s = db.session();
        s.begin().unwrap();
        s.run_one(r#"Insert person(name := "A", soc-sec-no := 1)."#).unwrap();
        let sp = s.savepoint().unwrap();
        s.run_one(r#"Insert person(name := "B", soc-sec-no := 2)."#).unwrap();
        s.rollback_to(sp).unwrap();
        s.commit().unwrap();
        let out = s.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["A".to_string()]);
    }

    #[test]
    fn conflicting_writers_time_out_and_abort() {
        let db = people_db();
        db.set_lock_timeout(Duration::ZERO);
        let mut t1 = db.session();
        let mut t2 = db.session();
        t1.begin().unwrap();
        t1.run_one(r#"Insert person(name := "One", soc-sec-no := 1)."#).unwrap();
        t2.begin().unwrap();
        let err = t2.run_one(r#"Insert person(name := "Two", soc-sec-no := 2)."#).unwrap_err();
        assert!(err.to_string().contains("SIM-C001"), "expected lock timeout, got {err}");
        assert!(!t2.in_txn(), "the deadlock victim's transaction aborts");
        t1.commit().unwrap();
        // t2's session is still usable.
        t2.run_one(r#"Insert person(name := "Two", soc-sec-no := 2)."#).unwrap();
        let out = t2.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["One".to_string(), "Two".to_string()]);
    }

    #[test]
    fn duplicate_unique_key_rolls_back_only_the_statement() {
        let db = people_db();
        let mut s = db.session();
        s.begin().unwrap();
        s.run_one(r#"Insert person(name := "A", soc-sec-no := 1)."#).unwrap();
        s.run_one(r#"Insert person(name := "B", soc-sec-no := 1)."#).unwrap_err();
        assert!(s.in_txn(), "statement failure keeps the transaction open");
        s.run_one(r#"Insert person(name := "C", soc-sec-no := 3)."#).unwrap();
        s.commit().unwrap();
        let out = s.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["A".to_string(), "C".to_string()]);
    }

    #[test]
    fn poisoned_engine_drop_still_frees_locks_for_waiters() {
        // Regression: Session::drop used to discard the abort result; any
        // hiccup on that path left the dead session's locks in the table
        // until every waiter timed out. The drop must free the lock set
        // unconditionally — even with the engine mutex poisoned by a
        // panicking statement elsewhere.
        let db = people_db();
        let mut s = db.session();
        s.begin().unwrap();
        s.run_one(r#"Insert person(name := "Ghost", soc-sec-no := 1)."#).unwrap();
        assert!(db.lock_table().locked_key_count() > 0);
        let shared = Arc::clone(&s.shared);
        let panicked = std::thread::spawn(move || {
            let _guard = shared.engine.lock().unwrap();
            panic!("poison the engine mutex");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must have panicked");
        drop(s);
        assert_eq!(db.lock_table().locked_key_count(), 0, "dropped session leaked locks");
        // A waiter acquires promptly: well under its (short) deadline.
        let mut waiter = db.session();
        waiter.set_lock_timeout(Some(Duration::from_millis(200)));
        waiter.run_one(r#"Insert person(name := "Waiter", soc-sec-no := 2)."#).unwrap();
    }

    #[test]
    fn per_session_lock_timeouts_are_independent() {
        let db = people_db();
        db.set_lock_timeout(Duration::from_secs(30));
        let mut holder = db.session();
        holder.begin().unwrap();
        holder.run_one(r#"Insert person(name := "H", soc-sec-no := 1)."#).unwrap();

        // The short-deadline session times out immediately...
        let mut fast = db.session();
        fast.set_lock_timeout(Some(Duration::ZERO));
        fast.begin().unwrap();
        let err = fast.run_one(r#"Insert person(name := "F", soc-sec-no := 2)."#).unwrap_err();
        assert_eq!(err.code(), Some("SIM-C001"));
        assert!(err.is_retryable());
        // ...without changing the table-wide default...
        assert_eq!(db.lock_table().timeout(), Duration::from_secs(30));

        // ...and a long-deadline session still waits out the holder.
        let mut patient = db.session();
        patient.set_lock_timeout(Some(Duration::from_secs(30)));
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            holder.commit().unwrap();
        });
        patient.run_one(r#"Insert person(name := "P", soc-sec-no := 3)."#).unwrap();
        release.join().unwrap();
        let out = patient.query("From person Retrieve name.").unwrap();
        assert_eq!(names(&out), vec!["H".to_string(), "P".to_string()]);
    }

    #[test]
    fn errors_carry_typed_codes() {
        let db = people_db();
        let mut s = db.session();
        s.run_one(r#"Insert person(name := "A", soc-sec-no := 1)."#).unwrap();
        // A constraint violation is not retryable and has no SIM-C code.
        let dup = s.run_one(r#"Insert person(name := "B", soc-sec-no := 1)."#).unwrap_err();
        assert_eq!(dup.code(), None);
        assert!(!dup.is_retryable());
        // A stale savepoint is typed (SIM-C003) but NOT retryable: the
        // caller's savepoint handle is wrong, not the victim of a race.
        s.begin().unwrap();
        // A never-issued savepoint id is SIM-C003 too — statements take
        // internal savepoints, so a raw guess like `1` must not silently
        // roll back to some statement boundary.
        let guessed = s.rollback_to(1).unwrap_err();
        assert_eq!(guessed.code(), Some("SIM-C003"));
        let sp_a = s.savepoint().unwrap();
        assert_eq!(sp_a, 1, "user savepoints number 1, 2, 3, … per transaction");
        s.run_one(r#"Insert person(name := "C", soc-sec-no := 3)."#).unwrap();
        let sp_b = s.savepoint().unwrap();
        assert_eq!(sp_b, 2);
        s.rollback_to(sp_a).unwrap();
        let stale = s.rollback_to(sp_b).unwrap_err();
        assert_eq!(stale.code(), Some("SIM-C003"));
        assert!(!stale.is_retryable());
        s.abort().unwrap();
    }

    #[test]
    fn sessions_emit_lifecycle_events_and_recorder_attribution() {
        let db = people_db();
        let events = db.registry().event_log();
        let mut s = db.session();
        let sid = s.id();
        assert!(sid >= 1);
        s.run_one(r#"Insert person(name := "A", soc-sec-no := 1)."#).unwrap();
        let record = {
            let eng = s.shared.lock_engine();
            eng.flight_recorder().latest().unwrap()
        };
        assert_eq!(record.session, sid, "statements are attributed to their session");
        drop(s);
        let started: Vec<u64> = events
            .of_kind("session_start")
            .iter()
            .filter_map(|e| match e.event {
                Event::SessionStart { session } => Some(session),
                _ => None,
            })
            .collect();
        let ended: Vec<u64> = events
            .of_kind("session_end")
            .iter()
            .filter_map(|e| match e.event {
                Event::SessionEnd { session } => Some(session),
                _ => None,
            })
            .collect();
        assert!(started.contains(&sid));
        assert!(ended.contains(&sid));
    }

    #[test]
    fn prepared_statements_pin_plans_and_report_cache_hits() {
        let db = people_db();
        let mut s = db.session();
        s.run_one(r#"Insert person(name := "A", soc-sec-no := 1)."#).unwrap();
        // An unprepared retrieve misses the cache first, hits it second.
        s.query("From person Retrieve name Where soc-sec-no = 1.").unwrap();
        assert!(!s.last_plan_cached());
        s.query("From person Retrieve name Where soc-sec-no = 1.").unwrap();
        assert!(s.last_plan_cached());
        // A prepared retrieve is planned at prepare time: the very first
        // execution is already a cache hit, and the entry is pinned.
        let canonical = s.prepare("From person Retrieve name.").unwrap();
        assert_eq!(s.shared.lock_engine().plan_cache_pinned_len(), 1);
        let out = s.query(&canonical).unwrap();
        assert_eq!(names(&out), vec!["A".to_string()]);
        assert!(s.last_plan_cached(), "first execution of a prepared statement must hit");
        s.unprepare(&canonical);
        assert_eq!(s.shared.lock_engine().plan_cache_pinned_len(), 0);
    }

    #[test]
    fn dropping_a_session_releases_its_locks() {
        let db = people_db();
        {
            let mut s = db.session();
            s.begin().unwrap();
            s.run_one(r#"Insert person(name := "Ghost", soc-sec-no := 9)."#).unwrap();
            assert!(db.lock_table().locked_key_count() > 0);
        }
        assert_eq!(db.lock_table().locked_key_count(), 0);
        let mut s = db.session();
        let out = s.query("From person Retrieve name.").unwrap();
        assert!(out.rows().is_empty(), "dropped session's transaction aborted");
        drop(s);
        let db = db.into_database().expect("no other handles"); // sim-lint: allow(unwrap)
        assert!(!db.mapper().engine().is_concurrent());
    }
}
