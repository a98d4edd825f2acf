//! The plan-mutation harness: re-introduce historical optimizer bugs.
//!
//! Each [`PlanBug`] is a *surgical* corruption of an otherwise-correct
//! optimized plan, modeled on a real planner bug class this repository has
//! fixed (PR 5). A verifier worth trusting must reject every one of them
//! with its stable `SIM-P2xx` code; `tests/plan_verifier.rs` asserts
//! exactly that, and the engine's test-only plan-mutator hook
//! (`Database::set_plan_mutator`) lets the same corruptions flow through
//! the engine's *production* plan step to prove the wiring rejects them
//! end-to-end.
//!
//! Injection is schema-driven, not query-specific: each bug inspects the
//! plan/bound tree and the catalog for a site it can corrupt, and leaves a
//! tree that offers none unchanged. An installed mutator sees every plan
//! the engine makes — update selections and VERIFY checks too — so the
//! trees without a site must pass through clean.

use sim_catalog::Catalog;
use sim_query::bound::{BoundQuery, NodeOrigin};
use sim_query::optimizer::{AccessPath, Plan};
use sim_query::{bound::BExpr, PlanMutator};
use sim_types::{Domain, Value};
use std::sync::Arc;

/// A historical planner bug the harness can re-introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBug {
    /// PR 5's symbolic-index bug: a range scan over a symbolic/subrole
    /// domain, whose B-tree key order (declaration codes) differs from the
    /// label order the evaluator compares with. Expected: `SIM-P201`.
    /// Hosted by a perspective class with a symbolic-domained DVA (e.g.
    /// `level: degree`).
    SymbolicRange,
    /// An equality probe keyed with a value outside the indexed
    /// attribute's declared domain — the probe can never coerce, so the
    /// evaluator-faithful answer differs from the index's. Expected:
    /// `SIM-P202`. Hosted by an equality predicate on an indexed attribute
    /// (e.g. a UNIQUE one).
    WrongDomainProbe,
    /// An EVA traversal flipped to the inverse attribute without
    /// re-anchoring: the traversal runs in the wrong direction (PR 5's
    /// EVA-dedup family). Expected: `SIM-P204`. Hosted by an EVA traversal
    /// with a distinct inverse (e.g. `name of advisor`).
    EvaDirection,
}

impl PlanBug {
    /// Every bug the harness knows.
    pub const ALL: [PlanBug; 3] =
        [PlanBug::SymbolicRange, PlanBug::WrongDomainProbe, PlanBug::EvaDirection];

    /// The stable diagnostic code the verifier must fire for this bug.
    pub fn expected_code(self) -> &'static str {
        match self {
            PlanBug::SymbolicRange => "SIM-P201",
            PlanBug::WrongDomainProbe => "SIM-P202",
            PlanBug::EvaDirection => "SIM-P204",
        }
    }

    /// Corrupt `bound`/`plan` in place; a no-op when they offer no
    /// injection site (see each bug's doc for the shape that hosts it).
    pub fn inject(self, catalog: &Catalog, bound: &mut BoundQuery, plan: &mut Plan) {
        match self {
            PlanBug::SymbolicRange => inject_symbolic_range(catalog, bound, plan),
            PlanBug::WrongDomainProbe => inject_wrong_domain_probe(catalog, plan),
            PlanBug::EvaDirection => inject_eva_direction(catalog, bound),
        }
    }

    /// This bug as an engine plan-mutator closure, for wiring through
    /// `Database::set_plan_mutator` / `QueryEngine::set_plan_mutator`.
    pub fn mutator(self, catalog: &Arc<Catalog>) -> PlanMutator {
        let catalog = Arc::clone(catalog);
        Arc::new(move |bound, plan| self.inject(&catalog, bound, plan))
    }
}

/// The first symbolic- or subrole-domained DVA visible on `class`.
fn symbolic_dva_on(catalog: &Catalog, class: sim_catalog::ClassId) -> Option<sim_catalog::AttrId> {
    catalog.all_attributes(class).into_iter().find(|&a| {
        catalog
            .attribute(a)
            .is_ok_and(|a| matches!(a.dva_domain(), Some(Domain::Symbolic(_) | Domain::Subrole(_))))
    })
}

fn inject_symbolic_range(catalog: &Catalog, bound: &mut BoundQuery, plan: &mut Plan) {
    for (pos, &ri) in plan.root_order.iter().enumerate() {
        let Some(class) = bound.nodes[bound.roots[ri]].class else { continue };
        if let Some(attr) = symbolic_dva_on(catalog, class) {
            plan.access[pos] = AccessPath::IndexRange {
                class,
                attr,
                lo: Some(Value::Str("a".into())),
                hi: None,
                hi_inclusive: false,
            };
            return;
        }
    }
}

fn inject_wrong_domain_probe(catalog: &Catalog, plan: &mut Plan) {
    for access in &mut plan.access {
        let AccessPath::IndexEq { attr, value, .. } = access else { continue };
        let Ok(a) = catalog.attribute(*attr) else { continue };
        // A value from the wrong comparison group: the domain can never
        // coerce it, so the probe is statically meaningless.
        *value = match a.dva_domain() {
            Some(Domain::Boolean) => BExpr::Const(Value::Str("neither".into())),
            Some(Domain::Integer { .. } | Domain::Number { .. } | Domain::Real) => {
                BExpr::Const(Value::Bool(true))
            }
            _ => BExpr::Const(Value::Bool(true)),
        };
        return;
    }
}

fn inject_eva_direction(catalog: &Catalog, bound: &mut BoundQuery) {
    for node in &mut bound.nodes {
        let NodeOrigin::Eva { attr } = node.origin else { continue };
        let Ok(a) = catalog.attribute(attr) else { continue };
        let Some(inverse) = a.eva_inverse() else { continue };
        // Self-inverse EVAs (spouse) survive the swap unchanged — skip.
        if inverse == attr {
            continue;
        }
        node.origin = NodeOrigin::Eva { attr: inverse };
        return;
    }
}
