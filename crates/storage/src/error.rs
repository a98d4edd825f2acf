//! Storage-layer errors.

use crate::disk::BlockId;
use sim_types::DecodeError;
use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record larger than a page can hold.
    RecordTooLarge { size: usize, max: usize },
    /// A key larger than an index node can hold.
    KeyTooLarge { size: usize, max: usize },
    /// A record id that does not name a live record.
    InvalidRecordId(String),
    /// An unknown file/index identifier.
    UnknownStructure(String),
    /// Unique-index violation.
    DuplicateKey,
    /// Attempt to restore into a slot that is occupied.
    SlotOccupied,
    /// A block id outside the allocated range of the backing store. After
    /// recovery a stale block id must surface as an error, never a panic.
    BadBlock { block: u32, count: usize },
    /// An underlying I/O failure (file-backed stores, injected faults).
    Io(String),
    /// A write-ahead-log record that fails structural or checksum
    /// validation somewhere other than the (legitimately torn) tail.
    WalCorrupt(String),
    /// Internal corruption detected (should never happen).
    Corrupt(String),
    /// A savepoint index beyond the transaction's undo-log length — a stale
    /// savepoint held across an earlier rollback or abort (SIM-C003).
    BadSavepoint { savepoint: usize, len: usize },
    /// A lock request that waited past the deadlock timeout (SIM-C001). The
    /// requesting transaction is the deadlock victim and must abort.
    LockTimeout { txn: u64, key: String },
    /// A non-blocking lock request that found the lock held by another
    /// transaction (SIM-C002).
    LockConflict { txn: u64, holder: u64, key: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::KeyTooLarge { size, max } => {
                write!(f, "key of {size} bytes exceeds index node capacity {max}")
            }
            StorageError::InvalidRecordId(m) => write!(f, "invalid record id: {m}"),
            StorageError::UnknownStructure(m) => write!(f, "unknown storage structure: {m}"),
            StorageError::DuplicateKey => write!(f, "duplicate key in unique index"),
            StorageError::SlotOccupied => write!(f, "slot already occupied"),
            StorageError::BadBlock { block, count } => {
                write!(f, "block {block} is outside the allocated range (0..{count})")
            }
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::WalCorrupt(m) => write!(f, "write-ahead log corrupt: {m}"),
            StorageError::Corrupt(m) => write!(f, "storage corruption: {m}"),
            StorageError::BadSavepoint { savepoint, len } => {
                write!(f, "SIM-C003: savepoint {savepoint} is beyond the undo log (len {len})")
            }
            StorageError::LockTimeout { txn, key } => {
                write!(f, "SIM-C001: transaction {txn} timed out waiting for lock on {key}")
            }
            StorageError::LockConflict { txn, holder, key } => {
                write!(
                    f,
                    "SIM-C002: transaction {txn} conflicts with {holder} holding lock on {key}"
                )
            }
        }
    }
}

impl StorageError {
    /// A block whose bytes do not decode: [`StorageError::Corrupt`] naming it.
    pub(crate) fn malformed(block: BlockId, why: impl fmt::Display) -> StorageError {
        StorageError::Corrupt(format!("block {} is malformed: {why}", block.0))
    }

    /// The stable `SIM-C*` concurrency code of this error, if it has one
    /// (DESIGN.md §14). Network servers ship this to clients so they can
    /// distinguish "retry the transaction" from "the statement is wrong"
    /// without parsing the message.
    pub fn code(&self) -> Option<&'static str> {
        match self {
            StorageError::LockTimeout { .. } => Some("SIM-C001"),
            StorageError::LockConflict { .. } => Some("SIM-C002"),
            StorageError::BadSavepoint { .. } => Some("SIM-C003"),
            _ => None,
        }
    }

    /// Whether re-running the failed transaction from the top may succeed:
    /// true exactly for the deadlock/conflict victims (`SIM-C001`,
    /// `SIM-C002`), whose statements were valid but lost a race.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StorageError::LockTimeout { .. } | StorageError::LockConflict { .. })
    }
}

impl std::error::Error for StorageError {}

impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> StorageError {
        StorageError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}
