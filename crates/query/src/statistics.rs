//! Cardinality estimation (paper §5.1): collected statistics where they
//! exist, named default priors where they do not.
//!
//! The [`Estimator`] answers "what fraction of a class survives this
//! qualification?" and "how many partners does this EVA reach?" from the
//! [`StatsStore`] a full-scan analyze filled (see `sim_luc::analyze`). A
//! question the store cannot answer — nothing analyzed yet, or a histogram
//! that was never built — gets the matching constant from [`priors`], so
//! the optimizer runs one set of cost formulas whatever it knows.
//!
//! Formulas (cost units are block accesses; see DESIGN.md §16):
//!
//! * `attr = const` → `(non_null / rows) / distinct` (uniform-share over
//!   the distinct values); un-analyzed: `1 / rows` on a UNIQUE attribute,
//!   [`priors::EQ_SELECTIVITY`] otherwise;
//! * `attr < / <= / > / >= const` → histogram range fraction × non-null
//!   fraction (within one equi-depth bucket of exact); no histogram:
//!   [`priors::RANGE_SELECTIVITY`];
//! * `a AND b` → `s(a) · s(b)`; `a OR b` → `s(a) + s(b) − s(a)·s(b)`;
//!   `NOT a` → `1 − s(a)` (independence assumed);
//! * `node isa C` → live subrole membership fraction
//!   `count(C) / count(class(node))`;
//! * EVA / MV-DVA traversal → measured average fan-out `links / owners`;
//!   un-analyzed: [`priors::FAN_OUT`].
//!
//! Row counts scale with the *live* class cardinality (maintained
//! incrementally by the mapper's DML counters), so estimates track inserts
//! and deletes between analyzes; value-distribution facts (distinct
//! counts, histograms) are as of the last analyze, with staleness exposed
//! by `ClassStats::mods_since_analyze`.

use crate::bound::{BExpr, BoundQuery};
use sim_catalog::statistics::StatsStore;
use sim_catalog::{AttrId, ClassId};
use sim_dml::BinOp;
use sim_luc::{Mapper, MapperError};
use sim_types::{Domain, Value};

/// Every number the cost model assumes when no statistic answers — the
/// whole "no statistics" behaviour of the planner is this table.
pub mod priors {
    /// `attr = const` on a non-unique attribute with no distinct count:
    /// 200 distinct values. Low enough that an un-analyzed secondary-index
    /// equality probes rather than scans once the class spans a few blocks.
    pub const EQ_SELECTIVITY: f64 = 0.005;
    /// One-sided range with no histogram: a third of the class — always
    /// dearer through the index than a scan, so un-analyzed ranges scan.
    pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
    /// Partners per owner of an EVA or multi-valued DVA never measured,
    /// and per level of a transitive closure (never measured per depth).
    pub const FAN_OUT: f64 = 2.0;
    /// Residual `=` / `<>` whose shape the model cannot price (operands on
    /// other nodes, attribute-to-attribute comparisons).
    pub const OPAQUE_EQ_SELECTIVITY: f64 = 0.05;
    /// Heap blocks (80 KiB) assumed for a class that was never analyzed, as
    /// a floor under its live block count: a class nobody has measured yet
    /// is usually about to grow, and a plan cached now outlives its first
    /// few inserts, so a one-block class must not lock probes into scans.
    pub const UNANALYZED_CLASS_BLOCKS: f64 = 20.0;
    /// An index whose height cannot be read (hash-only attribute).
    pub const INDEX_HEIGHT: f64 = 2.0;
}

/// Cardinality estimator over one mapper: statistics first, priors else.
pub struct Estimator<'a> {
    mapper: &'a Mapper,
    store: &'a StatsStore,
}

impl<'a> Estimator<'a> {
    /// Build an estimator over the mapper's current statistics store.
    pub fn new(mapper: &'a Mapper) -> Estimator<'a> {
        Estimator { mapper, store: mapper.optimizer_statistics() }
    }

    /// Whether any statistics were ever collected (`Plan::used_statistics`
    /// — a property of the inputs, not a different cost model).
    pub fn has_statistics(&self) -> bool {
        !self.store.is_empty()
    }

    /// Live entity count (incrementally maintained, never below 1 so it can
    /// serve as a multiplier).
    pub fn live_rows(&self, class: ClassId) -> f64 {
        self.mapper.entity_count(class).max(1) as f64
    }

    /// Blocks a full scan of `class` reads: its live heap block count,
    /// floored by [`priors::UNANALYZED_CLASS_BLOCKS`] until analyzed.
    pub fn scan_blocks(&self, class: ClassId) -> Result<f64, MapperError> {
        let live = self.mapper.class_block_count(class)? as f64;
        Ok(match self.store.class(class.0) {
            Some(_) => live,
            None => live.max(priors::UNANALYZED_CLASS_BLOCKS),
        })
    }

    /// Selectivity of `attr = <constant>` over `class`: uniform share of
    /// one distinct value among the non-null fraction. Un-analyzed, a
    /// UNIQUE attribute still matches one entity at most.
    pub fn eq_selectivity(&self, class: ClassId, attr: AttrId) -> f64 {
        match self.store.attr(attr.0) {
            // Analyzed and found no values at all: nothing can match.
            Some(a) if a.distinct == 0 => 0.0,
            Some(a) => a.eq_selectivity(),
            None if self.mapper.catalog().attribute(attr).is_ok_and(|a| a.options.unique) => {
                1.0 / self.live_rows(class)
            }
            None => priors::EQ_SELECTIVITY,
        }
    }

    /// Selectivity of a range predicate on `attr` via its equi-depth
    /// histogram (then scaled by the non-null fraction — the histogram only
    /// covers non-null values).
    pub fn range_selectivity(
        &self,
        attr: AttrId,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> f64 {
        self.histogram_range(attr, lo, hi).unwrap_or(priors::RANGE_SELECTIVITY)
    }

    fn histogram_range(
        &self,
        attr: AttrId,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<f64> {
        let a = self.store.attr(attr.0)?;
        let h = a.histogram.as_ref()?;
        let lo = match lo {
            Some((v, incl)) => Some((self.normalize_probe(attr, v)?, incl)),
            None => None,
        };
        let hi = match hi {
            Some((v, incl)) => Some((self.normalize_probe(attr, v)?, incl)),
            None => None,
        };
        let fraction =
            h.range_fraction(lo.as_ref().map(|(v, i)| (v, *i)), hi.as_ref().map(|(v, i)| (v, *i)));
        let non_null = if a.rows == 0 { 1.0 } else { a.non_null as f64 / a.rows as f64 };
        Some(fraction * non_null)
    }

    /// Average partners per owner for an EVA or multi-valued DVA.
    pub fn fan_out(&self, attr: AttrId) -> f64 {
        self.store.fan_out(attr.0).map_or(priors::FAN_OUT, sim_catalog::FanOutStats::average)
    }

    /// Fraction of `class` entities that also hold the `role` role (subrole
    /// membership fraction, from live counts).
    pub fn role_fraction(&self, class: ClassId, role: ClassId) -> f64 {
        let all = self.mapper.entity_count(class);
        if all == 0 {
            return 1.0;
        }
        (self.mapper.entity_count(role) as f64 / all as f64).clamp(0.0, 1.0)
    }

    /// Selectivity of a conjunct applied at output time (not consumed by an
    /// access path): priced over whichever root it qualifies, else as a
    /// join predicate, else by the opaque-shape priors.
    pub fn residual_selectivity(&self, q: &BoundQuery, conjunct: &BExpr) -> f64 {
        if let Some(s) = q.roots.iter().find_map(|&r| self.conjunct_selectivity(q, r, conjunct)) {
            return s;
        }
        let BExpr::Binary { op, lhs, rhs } = conjunct else { return 1.0 };
        match op {
            BinOp::Eq => {
                // Join predicate between two roots: 1 / max(ndv) when known.
                if let (BExpr::Attr { attr: a, .. }, BExpr::Attr { attr: b, .. }) =
                    (lhs.as_ref(), rhs.as_ref())
                {
                    let ndv = |id: AttrId| self.store.attr(id.0).map(|s| s.distinct.max(1) as f64);
                    if let (Some(da), Some(db)) = (ndv(*a), ndv(*b)) {
                        return 1.0 / da.max(db);
                    }
                }
                priors::OPAQUE_EQ_SELECTIVITY
            }
            BinOp::Ne => 1.0 - priors::OPAQUE_EQ_SELECTIVITY,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => priors::RANGE_SELECTIVITY,
            _ => 1.0,
        }
    }

    /// Estimated selectivity of one selection conjunct *restricted to
    /// predicates over `root`*. `None` when the expression references other
    /// nodes or has a shape the model cannot price.
    pub fn conjunct_selectivity(&self, q: &BoundQuery, root: usize, e: &BExpr) -> Option<f64> {
        match e {
            BExpr::Binary { op: BinOp::And, lhs, rhs } => Some(
                self.conjunct_selectivity(q, root, lhs)?
                    * self.conjunct_selectivity(q, root, rhs)?,
            ),
            BExpr::Binary { op: BinOp::Or, lhs, rhs } => {
                let side =
                    |e| self.conjunct_selectivity(q, root, e).unwrap_or(priors::RANGE_SELECTIVITY);
                let (a, b) = (side(lhs), side(rhs));
                Some(a + b - a * b)
            }
            BExpr::Not(inner) => Some(1.0 - self.conjunct_selectivity(q, root, inner)?),
            BExpr::IsA { node, class } => {
                if *node != root {
                    return None;
                }
                let node_class = q.nodes[root].class?;
                Some(self.role_fraction(node_class, *class))
            }
            BExpr::Binary { op, lhs, rhs } => {
                // Normalize so the local attribute is on the left.
                let (attr, other, op) = match (lhs.as_ref(), rhs.as_ref()) {
                    (BExpr::Attr { node, attr }, other) if *node == root => (*attr, other, *op),
                    (other, BExpr::Attr { node, attr }) if *node == root => {
                        (*attr, other, flip(*op))
                    }
                    _ => return None,
                };
                let BExpr::Const(v) = other else { return None };
                if v.is_null() {
                    // 3VL: comparisons against null never select anything.
                    return Some(0.0);
                }
                let class = q.nodes[root].class?;
                match op {
                    BinOp::Eq => Some(self.eq_selectivity(class, attr)),
                    BinOp::Ne => Some((1.0 - self.eq_selectivity(class, attr)).max(0.0)),
                    BinOp::Lt => Some(self.range_selectivity(attr, None, Some((v, false)))),
                    BinOp::Le => Some(self.range_selectivity(attr, None, Some((v, true)))),
                    BinOp::Gt => Some(self.range_selectivity(attr, Some((v, false)), None)),
                    BinOp::Ge => Some(self.range_selectivity(attr, Some((v, true)), None)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Coerce a probe constant into the representation histogram fences use
    /// (dates may arrive as strings in the DML; `Value::total_cmp` ranks
    /// `Str` and `Date` as different types, so compare like with like).
    fn normalize_probe(&self, attr: AttrId, v: &Value) -> Option<Value> {
        let domain = self.mapper.catalog().attribute(attr).ok()?.dva_domain()?;
        match (domain, v) {
            (Domain::Date, Value::Str(s)) => sim_types::Date::parse(s).ok().map(Value::Date),
            (Domain::Symbolic(_) | Domain::Subrole(_), _) => None, // no histograms there
            _ => Some(v.clone()),
        }
    }
}

/// Mirror a comparison so its operands can swap sides.
pub(crate) fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}
