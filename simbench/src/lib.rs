//! `sim-bench`: one layered benchmark over the SIM engine. See `README.md`
//! in this directory for the workloads, the metrics and how to read them.
//!
//! The only `unsafe` in this package is the counting allocator in the
//! binary's crate root; everything here is measured through the engine's
//! public API.

#![forbid(unsafe_code)]

pub mod alloc_stats;
pub mod compare;
pub mod harness;
pub mod json;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
