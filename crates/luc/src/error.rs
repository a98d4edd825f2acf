//! Mapper errors.

use sim_catalog::CatalogError;
use sim_storage::StorageError;
use sim_types::{DecodeError, TypeError};
use std::fmt;

/// Errors raised by the LUC mapper.
#[derive(Debug, Clone, PartialEq)]
pub enum MapperError {
    /// A value violated its declared domain.
    Type(TypeError),
    /// A storage-level failure.
    Storage(StorageError),
    /// A catalog lookup failed.
    Catalog(CatalogError),
    /// REQUIRED option violated.
    RequiredViolation(String),
    /// UNIQUE option violated.
    UniqueViolation(String),
    /// MAX cardinality exceeded.
    MaxViolation(String),
    /// Operation on a single-/multi-valued attribute of the wrong shape.
    ShapeMismatch(String),
    /// Unknown surrogate or missing role.
    NoSuchEntity(String),
    /// Attempt to write a system-maintained attribute (surrogates, subroles).
    ReadOnly(String),
    /// Schema shape unsupported by the physical mapping (documented limits).
    Unsupported(String),
    /// Persisted mapper metadata is missing, corrupt, or inconsistent with
    /// the schema.
    Persist(String),
    /// A value exceeded what the record codec can represent.
    Codec(String),
}

impl fmt::Display for MapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapperError::Type(e) => write!(f, "{e}"),
            MapperError::Storage(e) => write!(f, "{e}"),
            MapperError::Catalog(e) => write!(f, "{e}"),
            MapperError::RequiredViolation(m) => write!(f, "required attribute missing: {m}"),
            MapperError::UniqueViolation(m) => write!(f, "uniqueness violated: {m}"),
            MapperError::MaxViolation(m) => write!(f, "MAX cardinality exceeded: {m}"),
            MapperError::ShapeMismatch(m) => write!(f, "wrong attribute shape: {m}"),
            MapperError::NoSuchEntity(m) => write!(f, "no such entity: {m}"),
            MapperError::ReadOnly(m) => write!(f, "attribute is read-only: {m}"),
            MapperError::Unsupported(m) => write!(f, "unsupported mapping: {m}"),
            MapperError::Persist(m) => write!(f, "persistence: {m}"),
            MapperError::Codec(m) => write!(f, "record codec: {m}"),
        }
    }
}

impl std::error::Error for MapperError {}

impl From<TypeError> for MapperError {
    fn from(e: TypeError) -> MapperError {
        MapperError::Type(e)
    }
}

impl From<StorageError> for MapperError {
    fn from(e: StorageError) -> MapperError {
        MapperError::Storage(e)
    }
}

impl From<DecodeError> for MapperError {
    fn from(e: DecodeError) -> MapperError {
        MapperError::Storage(e.into())
    }
}

impl From<CatalogError> for MapperError {
    fn from(e: CatalogError) -> MapperError {
        MapperError::Catalog(e)
    }
}
