//! Root convenience package: re-exports the public facade so examples and
//! integration tests can simply `use sim::...`.

#![forbid(unsafe_code)]

pub use sim_core::*;

/// Lower-level crates, re-exported for examples that want to poke at the
/// substrate directly (storage statistics, catalog introspection, …).
pub mod crates {
    pub use sim_catalog as catalog;
    pub use sim_check as check;
    pub use sim_client as client;
    pub use sim_ddl as ddl;
    pub use sim_dml as dml;
    pub use sim_luc as luc;
    pub use sim_obs as obs;
    pub use sim_oracle as oracle;
    pub use sim_query as query;
    pub use sim_server as server;
    pub use sim_storage as storage;
    pub use sim_types as types;
}
