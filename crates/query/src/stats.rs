//! Query-layer metrics: per-phase latency histograms and statement
//! counters, published under `query.*` names in the engine-wide registry.

use sim_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Registry names of the query-layer metrics.
pub mod names {
    /// Histogram: statement parse time.
    pub const PARSE_MICROS: &str = "query.parse_micros";
    /// Histogram: full-scan statistics collection (`\analyze`) time.
    pub const ANALYZE_MICROS: &str = "query.analyze_micros";
    /// Counter: statistics collection runs completed.
    pub const ANALYZE_RUNS: &str = "query.analyze_runs";
    /// Counter: plans costed from the default priors alone (no statistics
    /// had been collected).
    pub const ESTIMATE_FALLBACKS: &str = "query.estimate_fallbacks";
    /// Counter: plans costed from collected statistics.
    pub const ESTIMATE_STATS_USED: &str = "query.estimate_stats_used";
    /// Histogram: semantic analysis (binding) time per retrieve.
    pub const BIND_MICROS: &str = "query.bind_micros";
    /// Histogram: optimizer planning time per retrieve.
    pub const OPTIMIZE_MICROS: &str = "query.optimize_micros";
    /// Histogram: execution time (loop nest or update application).
    pub const EXECUTE_MICROS: &str = "query.execute_micros";
    /// Histogram: VERIFY constraint checking time per update.
    pub const VERIFY_MICROS: &str = "query.verify_micros";
    /// Counter: statements executed (any kind).
    pub const STATEMENTS: &str = "query.statements";
    /// Counter: retrieves executed.
    pub const RETRIEVES: &str = "query.retrieves";
    /// Counter: updates (insert/modify/delete) executed.
    pub const UPDATES: &str = "query.updates";
    /// Counter: updates rolled back by a VERIFY violation.
    pub const INTEGRITY_VIOLATIONS: &str = "query.integrity_violations";
    /// Counter: retrieves served from the plan cache (parse/bind/optimize
    /// skipped).
    pub const PLAN_CACHE_HITS: &str = "query.plan_cache_hits";
    /// Counter: retrieves that had to be bound and planned from scratch.
    pub const PLAN_CACHE_MISSES: &str = "query.plan_cache_misses";
    /// Counter: plans dropped from the cache — LRU capacity victims plus
    /// entries invalidated by a plan-generation advance.
    pub const PLAN_CACHE_EVICTIONS: &str = "query.plan_cache_evictions";
    /// Histogram: plan-verifier (`SIM-P2xx` static analysis) time per
    /// freshly optimized plan.
    pub const PLAN_VERIFY_MICROS: &str = "query.plan_verify_micros";
    /// Counter: optimized plans the verifier rejected before execution.
    pub const PLAN_VERIFY_VIOLATIONS: &str = "query.plan_verify_violations";
}

/// Cached metric handles for the query driver.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub(crate) parse: Arc<Histogram>,
    pub(crate) analyze: Arc<Histogram>,
    pub(crate) analyze_runs: Arc<Counter>,
    pub(crate) estimate_fallbacks: Arc<Counter>,
    pub(crate) estimate_stats_used: Arc<Counter>,
    pub(crate) bind: Arc<Histogram>,
    pub(crate) optimize: Arc<Histogram>,
    pub(crate) execute: Arc<Histogram>,
    pub(crate) verify: Arc<Histogram>,
    pub(crate) statements: Arc<Counter>,
    pub(crate) retrieves: Arc<Counter>,
    pub(crate) updates: Arc<Counter>,
    pub(crate) integrity_violations: Arc<Counter>,
    pub(crate) plan_cache_hits: Arc<Counter>,
    pub(crate) plan_cache_misses: Arc<Counter>,
    pub(crate) plan_verify: Arc<Histogram>,
    pub(crate) plan_verify_violations: Arc<Counter>,
}

impl PhaseStats {
    /// Handles publishing into `registry` under the `query.*` names.
    pub fn new(registry: &Arc<Registry>) -> PhaseStats {
        PhaseStats {
            parse: registry.histogram(names::PARSE_MICROS),
            analyze: registry.histogram(names::ANALYZE_MICROS),
            analyze_runs: registry.counter(names::ANALYZE_RUNS),
            estimate_fallbacks: registry.counter(names::ESTIMATE_FALLBACKS),
            estimate_stats_used: registry.counter(names::ESTIMATE_STATS_USED),
            bind: registry.histogram(names::BIND_MICROS),
            optimize: registry.histogram(names::OPTIMIZE_MICROS),
            execute: registry.histogram(names::EXECUTE_MICROS),
            verify: registry.histogram(names::VERIFY_MICROS),
            statements: registry.counter(names::STATEMENTS),
            retrieves: registry.counter(names::RETRIEVES),
            updates: registry.counter(names::UPDATES),
            integrity_violations: registry.counter(names::INTEGRITY_VIOLATIONS),
            plan_cache_hits: registry.counter(names::PLAN_CACHE_HITS),
            plan_cache_misses: registry.counter(names::PLAN_CACHE_MISSES),
            plan_verify: registry.histogram(names::PLAN_VERIFY_MICROS),
            plan_verify_violations: registry.counter(names::PLAN_VERIFY_VIOLATIONS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_publish_under_query_names() {
        let registry = Arc::new(Registry::new());
        let phase = PhaseStats::new(&registry);
        phase.parse.observe_micros(7);
        phase.statements.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.histogram(names::PARSE_MICROS).unwrap().count, 1);
        assert_eq!(snap.counter(names::STATEMENTS), 1);
    }
}
