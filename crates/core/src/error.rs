//! Facade error type.

use sim_ddl::DdlError;
use sim_luc::MapperError;
use sim_query::QueryError;
use sim_storage::StorageError;
use std::fmt;

/// Any error the database facade can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Schema definition failed.
    Ddl(DdlError),
    /// DML analysis/execution failed (including integrity violations).
    Query(QueryError),
    /// Direct mapper operation failed.
    Mapper(MapperError),
    /// Durable-storage operation (open, checkpoint, recovery) failed.
    Storage(StorageError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Ddl(e) => write!(f, "{e}"),
            SimError::Query(e) => write!(f, "{e}"),
            SimError::Mapper(e) => write!(f, "{e}"),
            SimError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<DdlError> for SimError {
    fn from(e: DdlError) -> SimError {
        SimError::Ddl(e)
    }
}

impl From<QueryError> for SimError {
    fn from(e: QueryError) -> SimError {
        SimError::Query(e)
    }
}

impl From<MapperError> for SimError {
    fn from(e: MapperError) -> SimError {
        SimError::Mapper(e)
    }
}

impl From<StorageError> for SimError {
    fn from(e: StorageError) -> SimError {
        SimError::Storage(e)
    }
}

impl SimError {
    /// True when the error is a VERIFY violation (statement rolled back).
    pub fn is_integrity_violation(&self) -> bool {
        matches!(self, SimError::Query(QueryError::IntegrityViolation { .. }))
    }

    /// The error's stable `SIM-*` code, if it has one (DESIGN.md §14):
    /// `SIM-C001` lock timeout, `SIM-C002` lock conflict, `SIM-C003` stale
    /// savepoint. Servers ship the code to clients so "retry the
    /// transaction" is distinguishable from "the statement is wrong"
    /// without parsing the message.
    pub fn code(&self) -> Option<&'static str> {
        self.storage().and_then(StorageError::code)
    }

    /// Whether re-running the failed transaction from the top may succeed:
    /// true exactly for the deadlock/conflict victims (`SIM-C001`,
    /// `SIM-C002`), whose statements were valid but lost a race.
    pub fn is_retryable(&self) -> bool {
        self.storage().is_some_and(StorageError::is_retryable)
    }

    /// The storage error underneath, however many layers wrap it: codes
    /// are assigned only by [`StorageError::code`].
    fn storage(&self) -> Option<&StorageError> {
        match self {
            SimError::Query(QueryError::Mapper(MapperError::Storage(e)))
            | SimError::Mapper(MapperError::Storage(e))
            | SimError::Storage(e) => Some(e),
            _ => None,
        }
    }
}
