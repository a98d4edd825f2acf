//! # sim-relational
//!
//! A minimal relational engine over the same storage substrate, playing the
//! role of the systems the paper positions SIM against (§1): the semantic
//! model's "principal weakness of the relational model" arguments are made
//! concrete by the E6/E10 benchmarks, which run the same logical workload
//! on SIM (EVA traversals, one conceptual entity) and on this engine
//! (fragmented tables, value-based joins).
//!
//! Features: heap-backed tables with typed columns, optional unique /
//! secondary B-tree indexes, row scans, selection, equality index lookup,
//! and nested-loop / index-nested-loop joins — enough to express the
//! UNIVERSITY workload the way a 1988 relational schema would: one table
//! per class fragment plus junction tables for many:many relationships.

#![forbid(unsafe_code)]

pub mod engine;
pub mod table;

pub use engine::RelationalDb;
pub use table::{ColumnDef, TableId};
