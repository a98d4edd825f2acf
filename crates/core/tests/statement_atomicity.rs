//! A failed VERIFY "must leave the database unchanged" (§3.3) — including
//! when the assertion cannot even be *checked*. `ratio` divides by an
//! attribute the statement sets to zero, so evaluating it raises a type
//! error rather than yielding false; the statement must still be rolled
//! back on every route that reaches the engine's one update path.

use sim_core::{Database, ExecResult, SimError, Value};
use std::path::PathBuf;

const DDL: &str = "Class Acct ( acct-no: integer unique required; total: integer; parts: integer );
     Verify ratio on Acct assert total / parts >= 1 else \"parts exceed total\";";

const ALL: &str = "From acct Retrieve acct-no, total, parts.";
const GOOD_INSERT: &str = "Insert acct(acct-no := 1, total := 10, parts := 2).";
const BAD_INSERT: &str = "Insert acct(acct-no := 9, total := 5, parts := 0).";
const BAD_MODIFY: &str = "Modify acct (parts := 0) Where acct-no = 1.";

fn row(no: i64, total: i64, parts: i64) -> Vec<Value> {
    vec![Value::Int(no), Value::Int(total), Value::Int(parts)]
}

/// The assertion raised instead of evaluating: an error, but not the
/// constraint's own ELSE message.
fn assert_check_error(result: Result<ExecResult, SimError>) {
    let err = result.expect_err("dividing by zero inside VERIFY must fail the statement");
    assert!(!err.is_integrity_violation(), "the check errored, it did not evaluate false: {err}");
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn database_run_one_rolls_back_when_the_check_errors() {
    let mut db = Database::create(DDL).unwrap();
    db.run_one(GOOD_INSERT).unwrap();
    assert_check_error(db.run_one(BAD_INSERT));
    assert_check_error(db.run_one(BAD_MODIFY));
    assert_eq!(db.query(ALL).unwrap().rows(), &[row(1, 10, 2)]);
    // A script stops at the failing statement and keeps what preceded it.
    let script = format!("Insert acct(acct-no := 2, total := 4, parts := 4).\n{BAD_INSERT}");
    assert!(db.run(&script).is_err());
    assert_eq!(db.query(ALL).unwrap().rows(), &[row(1, 10, 2), row(2, 4, 4)]);
}

#[test]
fn session_autocommit_rolls_back_when_the_check_errors() {
    let db = Database::create(DDL).unwrap().into_concurrent();
    let mut s = db.session();
    s.run_one(GOOD_INSERT).unwrap();
    assert_check_error(s.run_one(BAD_INSERT));
    assert_check_error(s.run_one(BAD_MODIFY));
    assert!(!s.in_txn());
    assert_eq!(s.query(ALL).unwrap().rows(), &[row(1, 10, 2)]);
    assert_eq!(
        db.lock_table().locked_key_count(),
        0,
        "the failed autocommits released their locks"
    );
}

#[test]
fn session_transaction_loses_only_the_failed_statement() {
    let db = Database::create(DDL).unwrap().into_concurrent();
    let mut s = db.session();
    s.run_one(GOOD_INSERT).unwrap();

    s.begin().unwrap();
    s.run_one("Insert acct(acct-no := 2, total := 8, parts := 4).").unwrap();
    assert_check_error(s.run_one(BAD_INSERT));
    assert_check_error(s.run_one(BAD_MODIFY));
    assert!(s.in_txn(), "a failed statement keeps the transaction open");
    s.run_one("Modify acct (total := 12) Where acct-no = 1.").unwrap();
    let survivors = [row(1, 12, 2), row(2, 8, 4)];
    assert_eq!(s.query(ALL).unwrap().rows(), &survivors, "inside the transaction");
    s.commit().unwrap();

    // A second session sees exactly the survivors, and so does an aborted
    // retry of the failing statement.
    let mut other = db.session();
    assert_eq!(other.query(ALL).unwrap().rows(), &survivors);
    other.begin().unwrap();
    assert_check_error(other.run_one(BAD_INSERT));
    other.abort().unwrap();
    assert_eq!(other.query(ALL).unwrap().rows(), &survivors);
}

#[test]
fn durable_database_reopens_without_the_failed_statements() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("verify-error-atomicity");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let mut db = Database::create_at(DDL, &dir).unwrap();
    db.run_one(GOOD_INSERT).unwrap();
    assert_check_error(db.run_one(BAD_INSERT));
    assert_check_error(db.run_one(BAD_MODIFY));
    // A later committed statement must not carry the failed ones with it.
    db.run_one("Insert acct(acct-no := 2, total := 6, parts := 3).").unwrap();
    let expected = [row(1, 10, 2), row(2, 6, 3)];
    assert_eq!(db.query(ALL).unwrap().rows(), &expected);
    drop(db); // no close(): recovery replays the log

    let db = Database::open(&dir).unwrap();
    assert_eq!(db.query(ALL).unwrap().rows(), &expected);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
