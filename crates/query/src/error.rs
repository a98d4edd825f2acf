//! Query-layer errors.

use sim_dml::ParseError;
use sim_luc::MapperError;
use sim_types::TypeError;
use std::fmt;

/// Errors raised while analyzing or executing DML.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic analysis failure (unknown names, ambiguity, shape errors).
    Analyze(String),
    /// Mapper/storage failure.
    Mapper(MapperError),
    /// Expression evaluation failure.
    Type(TypeError),
    /// A VERIFY constraint was violated; the statement was rolled back.
    IntegrityViolation {
        /// The constraint's name (e.g. `v1`).
        constraint: String,
        /// The constraint's ELSE message.
        message: String,
    },
    /// The update's entity selector matched the wrong number of entities.
    Selector(String),
    /// The plan verifier rejected an optimized plan (`SIM-P2xx`): the plan
    /// would compute a wrong answer, so it was never executed. Carries the
    /// verifier's rendered report.
    PlanVerify(String),
    /// A broken internal invariant (a bound tree whose shape the executor
    /// does not recognize). Surfaced as an error instead of a panic so one
    /// bad statement cannot take down an embedding application.
    Internal(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Analyze(m) => write!(f, "analysis error: {m}"),
            QueryError::Mapper(e) => write!(f, "{e}"),
            QueryError::Type(e) => write!(f, "{e}"),
            QueryError::IntegrityViolation { constraint, message } => {
                write!(f, "integrity violation ({constraint}): {message}")
            }
            QueryError::Selector(m) => write!(f, "selector error: {m}"),
            QueryError::PlanVerify(m) => write!(f, "plan verification failed: {m}"),
            QueryError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> QueryError {
        QueryError::Parse(e)
    }
}

impl From<MapperError> for QueryError {
    fn from(e: MapperError) -> QueryError {
        QueryError::Mapper(e)
    }
}

impl From<TypeError> for QueryError {
    fn from(e: TypeError) -> QueryError {
        QueryError::Type(e)
    }
}

impl From<sim_catalog::CatalogError> for QueryError {
    fn from(e: sim_catalog::CatalogError) -> QueryError {
        QueryError::Mapper(MapperError::Catalog(e))
    }
}
