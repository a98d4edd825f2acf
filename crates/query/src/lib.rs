//! # sim-query
//!
//! The query layer of the SIM reproduction: everything between the parsed
//! DML and the LUC Mapper. It implements the paper's §4 semantics and §5.1
//! processing architecture:
//!
//! * [`bind`] — semantic analysis: qualification resolution (completing
//!   shortened qualifications, §4.2), binding identically-qualified EVAs and
//!   MV DVAs to shared range variables (§4.4), `AS` role conversion,
//!   `INVERSE(…)`, `TRANSITIVE(…)`, aggregates and quantifiers with their
//!   scope-delimiting parentheses (§4.6–4.7);
//! * [`bound`] — the query tree (QT) with its TYPE 1 / TYPE 2 / TYPE 3 node
//!   labeling (§4.5);
//! * [`eval`] — three-valued expression evaluation over a row context;
//! * [`optimizer`] — access-path enumeration and the §5.1 I/O cost model
//!   (cardinalities, blocking factors, index heights, first-instance
//!   relationship costs), including the semantics-preserving-order check;
//! * [`exec`] — the DAPLEX-style nested-loop program of §4.5, with outer
//!   join (null padding) for TYPE 3 variables, existential iteration for
//!   TYPE 2 variables, perspective-ordered output, `TABLE [DISTINCT]` and
//!   fully `STRUCTURE`d output with level numbers;
//! * [`update`] — INSERT (including role-extension `FROM`), MODIFY with
//!   INCLUDE/EXCLUDE and `WITH (…)` entity selectors, DELETE with subclass
//!   cascade (§4.8);
//! * [`integrity`] — VERIFY constraints enforced by trigger detection plus
//!   query augmentation (§3.3/§5.1), with statement rollback on violation;
//! * [`normalize`] — canonical result renderings for differential
//!   comparison (order-insensitive tables, structural structured output);
//! * [`engine`] — the Query Driver facade tying it all together;
//! * [`analyze`] / [`stats`] — EXPLAIN ANALYZE actuals and the `query.*`
//!   phase metrics published into the engine-wide registry.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod bind;
pub mod bound;
pub(crate) mod cache;
pub mod engine;
pub mod error;
pub mod eval;
pub mod exec;
pub mod integrity;
pub mod normalize;
pub mod optimizer;
pub mod statistics;
pub mod stats;
pub mod update;

pub use analyze::{AnalyzedPlan, NodeActuals, StepActuals};
pub use bound::{BoundQuery, NodeType, QueryOutput, StructRecord};
pub use engine::{ExecResult, PlanMutator, PlanVerifier, QueryEngine};
pub use error::QueryError;
pub use optimizer::{AccessPath, Plan, ProbeMethod};
pub use statistics::Estimator;
pub use stats::PhaseStats;
