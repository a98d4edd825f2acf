//! # sim-types
//!
//! Foundation types for the SIM semantic database reproduction:
//!
//! * [`Value`] — the runtime value model shared by the DML evaluator, the LUC
//!   mapper and the storage encoders. SIM treats nulls uniformly ("a null is
//!   used to represent both *unknown* and *inapplicable* values", paper §3.2.1)
//!   and evaluates expressions under three-valued logic (§4.9).
//! * [`Truth`] — the three-valued logic lattice used by selection expressions.
//! * [`Domain`] — declared data types (`integer (1001..39999)`,
//!   `string[30]`, `number[9,2]`, `symbolic (BS, MBA, …)`, subroles, dates),
//!   with value validation as required for strong typing (§2).
//! * [`Surrogate`] — the system-maintained entity identifier: unique, non-null
//!   and immutable per base class (§3.1).
//! * [`ordered`] — order-preserving byte encodings so that B-tree indexes over
//!   any value type sort identically to [`Value`]'s comparison order.
//! * [`pattern`] — the DML's string pattern-matching operator.
//! * [`reader`] — the bounded byte reader every stored and wire format
//!   decodes through: a malformed length is a [`DecodeError`], never a
//!   panic.

#![forbid(unsafe_code)]
// Checked, fallible arithmetic is deliberately inherent (`a.add(b)?`) rather
// than `std::ops` impls, and 3VL `and/or/not` mirror that shape.
#![allow(clippy::should_implement_trait)]

pub mod date;
pub mod decimal;
pub mod domain;
pub mod error;
pub mod ordered;
pub mod pattern;
pub mod reader;
pub mod surrogate;
pub mod truth;
pub mod value;

pub use date::Date;
pub use decimal::Decimal;
pub use domain::{Domain, IntRange, SymbolicType};
pub use error::TypeError;
pub use reader::{ByteReader, DecodeError};
pub use surrogate::{Surrogate, SurrogateAllocator};
pub use truth::Truth;
pub use value::{ArithOp, Value};
