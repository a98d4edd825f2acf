//! VERIFY integrity enforcement: trigger detection plus query augmentation.
//!
//! §3.3: "Based on the terms of the integrity condition, SIM will determine
//! all possible events that may cause this condition to be violated and will
//! make sure it does not happen. Integrity constraints are handled by a
//! trigger detection / query enhancement mechanism that works efficiently
//! for a subset of constraints."
//!
//! For each constraint we compile the assertion (perspective = the VERIFY
//! class) and extract its *trigger paths*: every attribute the assertion
//! reads, together with the forward EVA chain from the perspective to the
//! context where it is read. When a statement writes attribute `a` of entity
//! `e`, the affected perspective entities are found by walking each trigger
//! path backwards over inverse EVAs from `e` — the "query enhancement": only
//! those entities are re-checked. Constraints whose terms range over whole
//! classes (global aggregates) cannot be localized and fall back to a
//! full-class check — mirroring the paper's "arbitrary integrity constraints
//! have only been partially implemented".

use crate::bind::Binder;
use crate::bound::{BExpr, BoundQuery, ChainStep};
use crate::error::QueryError;
use crate::eval::traverse;
use crate::exec::Executor;
use crate::update::WriteSet;
use crate::Plan;
use sim_catalog::{AttrId, Catalog, ClassId, VerifyConstraint};
use sim_dml::parse_expression;
use sim_luc::Mapper;
use sim_types::{Surrogate, Truth};
use std::collections::{HashMap, HashSet};

/// A compiled VERIFY constraint.
#[derive(Debug)]
pub struct CompiledVerify {
    /// The constraint's name.
    pub name: String,
    /// The ELSE message.
    pub message: String,
    /// The perspective class.
    pub class: ClassId,
    /// The bound assertion (selection-only query).
    pub bound: BoundQuery,
    /// Attribute → forward paths from the perspective to where it is read
    /// (EVA and transitive steps only: both reverse over the inverse EVA).
    pub trigger_paths: HashMap<AttrId, Vec<Vec<ChainStep>>>,
    /// The assertion ranges over whole classes (global aggregate): affected
    /// entities cannot be localized.
    pub uses_global: bool,
}

/// Compile a catalog's VERIFY constraints.
pub fn compile_all(catalog: &Catalog) -> Result<Vec<CompiledVerify>, QueryError> {
    catalog.verifies().iter().map(|v| compile(catalog, v)).collect()
}

/// Compile one constraint.
pub fn compile(catalog: &Catalog, v: &VerifyConstraint) -> Result<CompiledVerify, QueryError> {
    let expr = parse_expression(&v.assertion)?;
    let bound = Binder::bind_selection(catalog, v.class, &expr)?;

    let mut trigger_paths: HashMap<AttrId, Vec<Vec<ChainStep>>> = HashMap::new();
    let mut uses_global = false;

    // Path from the root to each node: its EVA and transitive hops (an
    // MV DVA node reaches values, an `AS` restriction the same entity).
    let node_path = |node: usize| -> Vec<ChainStep> {
        let mut steps = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            if let Some(step @ (ChainStep::Eva(_) | ChainStep::Transitive(_))) =
                bound.nodes[n].origin.step()
            {
                steps.push(step);
            }
            cur = bound.nodes[n].parent;
        }
        steps.reverse();
        steps
    };

    // Every EVA edge in the tree is itself a trigger (re-linking can change
    // the assertion's value).
    for node in &bound.nodes {
        if let Some(step) = node.origin.step() {
            let parent = node.parent.ok_or_else(|| {
                QueryError::Internal("traversal node bound without a parent".into())
            })?;
            trigger_paths.entry(step.attr()).or_default().push(node_path(parent));
        }
    }

    // Walk the expression for attribute reads and chains.
    fn walk(
        e: &BExpr,
        node_path: &dyn Fn(usize) -> Vec<ChainStep>,
        trigger_paths: &mut HashMap<AttrId, Vec<Vec<ChainStep>>>,
        uses_global: &mut bool,
    ) {
        match e {
            BExpr::Attr { node, attr } => {
                trigger_paths.entry(*attr).or_default().push(node_path(*node));
            }
            BExpr::Binary { lhs, rhs, .. } => {
                walk(lhs, node_path, trigger_paths, uses_global);
                walk(rhs, node_path, trigger_paths, uses_global);
            }
            BExpr::Not(x) | BExpr::Neg(x) => walk(x, node_path, trigger_paths, uses_global),
            BExpr::Aggregate { chain, .. } | BExpr::Quantified { chain, .. } => {
                if chain.global_class.is_some() {
                    *uses_global = true;
                }
                let base = chain.anchor.map(node_path).unwrap_or_default();
                let mut prefix = base;
                for step in &chain.steps {
                    trigger_paths.entry(step.attr()).or_default().push(prefix.clone());
                    // An MV DVA triggers here but reaches values, not
                    // entities: later reads hang off the same prefix.
                    if !matches!(step, ChainStep::MvDva(_)) {
                        prefix.push(step.clone());
                    }
                }
                if let Some(t) = chain.terminal {
                    trigger_paths.entry(t).or_default().push(prefix);
                }
            }
            BExpr::Const(_) | BExpr::NodeValue(_) | BExpr::IsA { .. } => {}
        }
    }
    if let Some(sel) = &bound.selection {
        walk(sel, &node_path, &mut trigger_paths, &mut uses_global);
    }

    Ok(CompiledVerify {
        name: v.name.clone(),
        message: v.message.clone(),
        class: v.class,
        bound,
        trigger_paths,
        uses_global,
    })
}

impl CompiledVerify {
    /// Does this write set trigger the constraint at all?
    pub fn triggered(&self, catalog: &Catalog, writes: &WriteSet) -> bool {
        if writes.attr_writes.iter().any(|(_, a)| self.trigger_paths.contains_key(a)) {
            return true;
        }
        // New roles of the perspective class (or a descendant) bring new
        // entities under the constraint.
        writes
            .inserts
            .iter()
            .chain(writes.deletes.iter())
            .any(|(_, c)| *c == self.class || catalog.is_ancestor(self.class, *c))
            || !writes.deletes.is_empty() && self.deletes_can_trigger(catalog, writes)
    }

    fn deletes_can_trigger(&self, catalog: &Catalog, writes: &WriteSet) -> bool {
        // A role deletion removes relationship instances of the deleted
        // classes' EVAs, which may be trigger attributes.
        writes.deletes.iter().any(|(_, c)| {
            catalog.class(*c).is_ok_and(|class| {
                class.attributes.iter().any(|a| {
                    self.trigger_paths.contains_key(a)
                        || catalog
                            .attribute(*a)
                            .ok()
                            .and_then(sim_catalog::Attribute::eva_inverse)
                            .is_some_and(|inv| self.trigger_paths.contains_key(&inv))
                })
            })
        })
    }

    /// The perspective entities that must be re-checked; `None` = all
    /// (localization impossible).
    pub fn affected_entities(
        &self,
        mapper: &Mapper,
        writes: &WriteSet,
    ) -> Result<Option<Vec<Surrogate>>, QueryError> {
        if self.uses_global {
            return Ok(None);
        }
        // Deletions remove links whose former partners we no longer know:
        // be conservative and re-check the class when a delete triggered us.
        if self.deletes_can_trigger(mapper.catalog(), writes) {
            return Ok(None);
        }
        let mut affected: HashSet<Surrogate> = HashSet::new();
        for (surr, attr) in &writes.attr_writes {
            let Some(paths) = self.trigger_paths.get(attr) else { continue };
            for path in paths {
                let mut frontier: HashSet<Surrogate> = HashSet::new();
                frontier.insert(*surr);
                for step in path.iter().rev() {
                    let back = reversed(mapper.catalog(), step)?;
                    let mut reached = Vec::new();
                    for s in &frontier {
                        traverse(mapper, *s, &back, None, 1, &mut reached)?;
                    }
                    frontier = reached.iter().filter_map(|(v, _)| v.as_entity()).collect();
                }
                affected.extend(frontier);
            }
        }
        for (surr, class) in &writes.inserts {
            if *class == self.class || mapper.catalog().is_ancestor(self.class, *class) {
                affected.insert(*surr);
            }
        }
        // Only entities that actually hold the perspective role matter.
        let mut out: Vec<Surrogate> = Vec::new();
        for s in affected {
            if mapper.has_role(s, self.class)? {
                out.push(s);
            }
        }
        out.sort();
        Ok(Some(out))
    }

    /// Check the constraint for the given entities (or the whole class)
    /// with `bound`/`plan`: the assertion ([`CompiledVerify::bound`]) as
    /// the engine's plan step planned and verified it. Returns the first
    /// violating entity.
    pub fn check(
        &self,
        mapper: &Mapper,
        bound: &BoundQuery,
        plan: &Plan,
        entities: Option<Vec<Surrogate>>,
    ) -> Result<Option<Surrogate>, QueryError> {
        let list = match entities {
            Some(l) => l,
            None => mapper.entities_of(self.class)?,
        };
        let exec = Executor::new(mapper, bound, plan);
        for surr in list {
            // Unknown passes (benefit of the doubt, as in SQL CHECK).
            if exec.check_entity(surr)? == Truth::False {
                return Ok(Some(surr));
            }
        }
        Ok(None)
    }
}

/// A trigger-path step walked backwards: the same hop over the inverse EVA.
fn reversed(catalog: &Catalog, step: &ChainStep) -> Result<ChainStep, QueryError> {
    let inverse = catalog
        .attribute(step.attr())?
        .eva_inverse()
        .ok_or_else(|| QueryError::Internal("trigger EVA has no inverse".into()))?;
    Ok(match step {
        ChainStep::Transitive(_) => ChainStep::Transitive(inverse),
        ChainStep::Eva(_) | ChainStep::MvDva(_) => ChainStep::Eva(inverse),
    })
}
