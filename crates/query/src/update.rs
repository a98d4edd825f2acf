//! Update-statement execution (§4.8): INSERT (with role-extension FROM),
//! MODIFY (with INCLUDE/EXCLUDE and `WITH (…)` selectors), DELETE (with the
//! subclass-role cascade handled by the Mapper).
//!
//! Compile, then apply. [`QueryEngine::compile_update`] binds every
//! selection a statement needs — the WHERE clause, INSERT…FROM, each
//! `:= class WITH (…)` and each `EXCLUDE eva WITH (…)` — and plans it
//! through the engine's one plan step, so each is optimized and verified
//! like a retrieve before the statement reads or writes any data.
//! [`apply`] then runs those plans and writes.

use crate::bind::Binder;
use crate::bound::BoundQuery;
use crate::engine::QueryEngine;
use crate::error::QueryError;
use crate::exec::Executor;
use crate::Plan;
use sim_catalog::{AttrId, Attribute, ClassId};
use sim_dml::{AssignOp, AssignValue, Assignment, Expr, Statement};
use sim_luc::{AttrValue, Mapper};
use sim_obs::TraceBuilder;
use sim_storage::Txn;
use sim_types::{Surrogate, Value};

/// Everything a statement wrote — consumed by integrity checking.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    /// Attribute writes, including the inverse side of EVA updates.
    pub attr_writes: Vec<(Surrogate, AttrId)>,
    /// Role additions (entity, class).
    pub inserts: Vec<(Surrogate, ClassId)>,
    /// Role removals (entity, class): every role the mapper removed.
    pub deletes: Vec<(Surrogate, ClassId)>,
}

/// A selection predicate bound over one class and planned by the engine's
/// plan step.
pub(crate) struct Selection {
    bound: BoundQuery,
    plan: Plan,
}

impl Selection {
    /// The selected entities (surrogate order).
    fn run(&self, mapper: &Mapper) -> Result<Vec<Surrogate>, QueryError> {
        Executor::new(mapper, &self.bound, &self.plan).select_entities()
    }
}

enum PreparedValue {
    /// A value expression evaluated per target entity.
    Expr(BoundQuery),
    /// `class WITH (pred)`: the selector, run once before the first write;
    /// `selected` holds its entities from then on.
    Entities { selector: Selection, selected: Vec<Surrogate> },
    /// `exclude eva WITH (pred)`: a predicate over the EVA's current
    /// partners, evaluated per partner.
    PartnerFilter { eva: AttrId, filter: Selection },
}

pub(crate) struct PreparedAssign {
    attr: AttrId,
    op: AssignOp,
    value: PreparedValue,
}

/// An INSERT, MODIFY or DELETE with its class resolved and every selection
/// it needs planned — the input of [`apply`].
pub(crate) enum CompiledUpdate<'s> {
    /// `Insert class (…)`, or `Insert class From from Where … (…)`.
    Insert {
        name: &'s str,
        class: ClassId,
        from: Option<(&'s str, Selection)>,
        assigns: Vec<PreparedAssign>,
    },
    /// `Modify class (…) [Where …]`.
    Modify { class: ClassId, targets: Option<Selection>, assigns: Vec<PreparedAssign> },
    /// `Delete class [Where …]`.
    Delete { class: ClassId, targets: Option<Selection> },
}

impl QueryEngine {
    /// Compile an update: resolve its class and bind every selection and
    /// assignment, planning each selection through the engine's plan step.
    /// Reads no entity data; nothing is written until [`apply`].
    pub(crate) fn compile_update<'s>(
        &self,
        stmt: &'s Statement,
        tb: &mut TraceBuilder,
    ) -> Result<CompiledUpdate<'s>, QueryError> {
        let class_named = |name: &str| {
            self.mapper()
                .catalog()
                .class_by_name(name)
                .map(|c| c.id)
                .ok_or_else(|| QueryError::Analyze(format!("unknown class {name}")))
        };
        Ok(match stmt {
            Statement::Insert(i) => {
                let class = class_named(&i.class)?;
                let assigns = i
                    .assignments
                    .iter()
                    .map(|a| self.compile_assignment(class, a, tb))
                    .collect::<Result<_, _>>()?;
                let from = match &i.from {
                    None => None,
                    Some((from_name, pred)) => {
                        let from_class = class_named(from_name)?;
                        if !self.mapper().catalog().is_ancestor(from_class, class) {
                            return Err(QueryError::Analyze(format!(
                                "{from_name} is not an ancestor of {} (INSERT … FROM extends \
                                 roles downward)",
                                i.class
                            )));
                        }
                        Some((from_name.as_str(), self.compile_selection(from_class, pred, tb)?))
                    }
                };
                CompiledUpdate::Insert { name: &i.class, class, from, assigns }
            }
            Statement::Modify(m) => {
                let class = class_named(&m.class)?;
                let targets = match &m.where_clause {
                    Some(e) => Some(self.compile_selection(class, e, tb)?),
                    None => None,
                };
                let assigns = m
                    .assignments
                    .iter()
                    .map(|a| self.compile_assignment(class, a, tb))
                    .collect::<Result<_, _>>()?;
                CompiledUpdate::Modify { class, targets, assigns }
            }
            Statement::Delete(d) => {
                let class = class_named(&d.class)?;
                let targets = match &d.where_clause {
                    Some(e) => Some(self.compile_selection(class, e, tb)?),
                    None => None,
                };
                CompiledUpdate::Delete { class, targets }
            }
            Statement::Retrieve(_) => {
                return Err(QueryError::Internal("retrieve dispatched as update".into()));
            }
        })
    }

    fn compile_selection(
        &self,
        class: ClassId,
        predicate: &Expr,
        tb: &mut TraceBuilder,
    ) -> Result<Selection, QueryError> {
        let bound = Binder::bind_selection(self.mapper().catalog(), class, predicate)?;
        let (bound, plan) = self.plan(bound, tb)?;
        Ok(Selection { bound, plan })
    }

    fn compile_assignment(
        &self,
        class: ClassId,
        a: &Assignment,
        tb: &mut TraceBuilder,
    ) -> Result<PreparedAssign, QueryError> {
        let catalog = self.mapper().catalog();
        let attr_id = catalog.resolve_attr(class, &a.attr).ok_or_else(|| {
            QueryError::Analyze(format!(
                "unknown attribute {} on class {}",
                a.attr,
                catalog.class(class).map(|c| c.name.clone()).unwrap_or_default()
            ))
        })?;
        let attr = catalog.attribute(attr_id)?;
        let value = match &a.value {
            AssignValue::Expr(e) => {
                PreparedValue::Expr(Binder::bind_value_expr(catalog, class, e)?)
            }
            AssignValue::Selector { name, predicate } => {
                if a.op == AssignOp::Exclude {
                    // §4.8: for exclusions the object name refers to the EVA
                    // itself; the predicate filters its current partners.
                    let range = attr
                        .eva_range()
                        .ok_or_else(|| QueryError::Analyze(format!("{} is not an EVA", a.attr)))?;
                    if name.eq_ignore_ascii_case(&attr.name) {
                        let filter = self.compile_selection(range, predicate, tb)?;
                        PreparedValue::PartnerFilter { eva: attr_id, filter }
                    } else {
                        // Lenient extension: a class name selects entities.
                        let sel_class = catalog
                            .class_by_name(name)
                            .ok_or_else(|| {
                                QueryError::Analyze(format!(
                                    "exclude selector {name} is neither the EVA nor a class"
                                ))
                            })?
                            .id;
                        let selector = self.compile_selection(sel_class, predicate, tb)?;
                        PreparedValue::Entities { selector, selected: Vec::new() }
                    }
                } else {
                    // Set/include: the name is the EVA's range class.
                    let sel_class = catalog
                        .class_by_name(name)
                        .ok_or_else(|| QueryError::Analyze(format!("unknown class {name}")))?
                        .id;
                    let range = attr.eva_range().ok_or_else(|| {
                        QueryError::Analyze(format!(
                            "{}: WITH selectors apply to entity-valued attributes",
                            a.attr
                        ))
                    })?;
                    if !catalog.is_same_or_ancestor(range, sel_class)
                        && !catalog.is_same_or_ancestor(sel_class, range)
                    {
                        return Err(QueryError::Analyze(format!(
                            "{name} is not the range class of {}",
                            a.attr
                        )));
                    }
                    let selector = self.compile_selection(sel_class, predicate, tb)?;
                    PreparedValue::Entities { selector, selected: Vec::new() }
                }
            }
        };
        Ok(PreparedAssign { attr: attr_id, op: a.op, value })
    }
}

/// Run every `class WITH (…)` selector once, before the statement's first
/// write.
fn run_selectors(mapper: &Mapper, assigns: &mut [PreparedAssign]) -> Result<(), QueryError> {
    for pa in assigns {
        if let PreparedValue::Entities { selector, selected } = &mut pa.value {
            *selected = selector.run(mapper)?;
        }
    }
    Ok(())
}

/// The value a `WITH` selector's entities assign to `attr`: all of them
/// for a multi-valued EVA, exactly one for a single-valued one.
fn selected_value(attr: &Attribute, es: &[Surrogate]) -> Result<AttrValue, QueryError> {
    if attr.options.multivalued {
        return Ok(AttrValue::Multi(es.iter().map(|s| Value::Entity(*s)).collect()));
    }
    match es {
        [e] => Ok(AttrValue::Scalar(Value::Entity(*e))),
        [] => Err(QueryError::Selector(format!(
            "WITH selector for {} matched no entities",
            attr.name
        ))),
        _ => Err(QueryError::Selector(format!(
            "WITH selector for single-valued {} matched {} entities",
            attr.name,
            es.len()
        ))),
    }
}

fn eval_value_for(
    mapper: &Mapper,
    bound: &BoundQuery,
    entity: Option<Surrogate>,
) -> Result<Value, QueryError> {
    let mut ctx = crate::eval::EvalCtx::new(bound.nodes.len());
    if let Some(s) = entity {
        ctx.instances[bound.roots[0]] = Some(Value::Entity(s));
    }
    crate::eval::eval(mapper, &bound.targets[0], &ctx)
}

fn record_eva_write(
    mapper: &Mapper,
    writes: &mut WriteSet,
    surr: Surrogate,
    attr: AttrId,
    partners: &[Surrogate],
) -> Result<(), QueryError> {
    writes.attr_writes.push((surr, attr));
    if let Some(inv) = mapper.catalog().attribute(attr)?.eva_inverse() {
        for &p in partners {
            writes.attr_writes.push((p, inv));
        }
    }
    Ok(())
}

fn apply_assign(
    mapper: &mut Mapper,
    txn: &mut Txn,
    surr: Surrogate,
    pa: &PreparedAssign,
    writes: &mut WriteSet,
) -> Result<(), QueryError> {
    let attr = mapper.catalog().attribute(pa.attr)?.clone();
    match (&pa.op, &pa.value) {
        (AssignOp::Set, PreparedValue::Expr(bound)) => {
            let v = eval_value_for(mapper, bound, Some(surr))?;
            writes.attr_writes.push((surr, pa.attr));
            if attr.is_eva() {
                let old = mapper.eva_partners(surr, pa.attr)?;
                record_eva_write(mapper, writes, surr, pa.attr, &old)?;
                if let Value::Entity(p) = v {
                    record_eva_write(mapper, writes, surr, pa.attr, &[p])?;
                }
            }
            mapper.set_attr(txn, surr, pa.attr, AttrValue::Scalar(v))?;
        }
        (AssignOp::Set, PreparedValue::Entities { selected: es, .. }) => {
            let old = mapper.eva_partners(surr, pa.attr)?;
            record_eva_write(mapper, writes, surr, pa.attr, &old)?;
            record_eva_write(mapper, writes, surr, pa.attr, es)?;
            mapper.set_attr(txn, surr, pa.attr, selected_value(&attr, es)?)?;
        }
        (op, PreparedValue::Expr(bound)) => {
            let v = eval_value_for(mapper, bound, Some(surr))?;
            if let Value::Entity(p) = &v {
                record_eva_write(mapper, writes, surr, pa.attr, &[*p])?;
            } else {
                writes.attr_writes.push((surr, pa.attr));
            }
            if *op == AssignOp::Include {
                mapper.include_value(txn, surr, pa.attr, v)?;
            } else {
                mapper.exclude_value(txn, surr, pa.attr, &v)?;
            }
        }
        (op, PreparedValue::Entities { selected: es, .. }) => {
            record_eva_write(mapper, writes, surr, pa.attr, es)?;
            for &e in es {
                if *op == AssignOp::Include {
                    mapper.include_value(txn, surr, pa.attr, Value::Entity(e))?;
                } else {
                    mapper.exclude_value(txn, surr, pa.attr, &Value::Entity(e))?;
                }
            }
        }
        (AssignOp::Exclude, PreparedValue::PartnerFilter { eva, filter }) => {
            let partners = mapper.eva_partners(surr, *eva)?;
            let exec = Executor::new(mapper, &filter.bound, &filter.plan);
            let mut to_remove = Vec::new();
            for p in partners {
                if exec.check_entity(p)?.is_true() {
                    to_remove.push(p);
                }
            }
            drop(exec);
            record_eva_write(mapper, writes, surr, *eva, &to_remove)?;
            for p in to_remove {
                mapper.exclude_value(txn, surr, *eva, &Value::Entity(p))?;
            }
        }
        (op, PreparedValue::PartnerFilter { .. }) => {
            return Err(QueryError::Analyze(format!("{op:?} does not take an EVA-name selector")));
        }
    }
    Ok(())
}

/// Apply a compiled update to `txn`, recording what it wrote. Returns the
/// number of entities created, extended, updated or deleted.
pub(crate) fn apply(
    mapper: &mut Mapper,
    txn: &mut Txn,
    update: CompiledUpdate<'_>,
    writes: &mut WriteSet,
) -> Result<usize, QueryError> {
    match update {
        CompiledUpdate::Insert { class, from: None, mut assigns, .. } => {
            run_selectors(mapper, &mut assigns)?;
            exec_insert(mapper, txn, class, &assigns, writes)
        }
        CompiledUpdate::Insert { name, class, from: Some((from_name, from)), mut assigns } => {
            run_selectors(mapper, &mut assigns)?;
            let targets = from.run(mapper)?;
            if targets.is_empty() {
                return Err(QueryError::Selector(format!(
                    "INSERT {name} FROM {from_name}: no entity matched the WHERE clause"
                )));
            }
            for &surr in &targets {
                // Evaluate per entity, then extend the role with the values
                // so REQUIRED checks pass in one step.
                let mut values = Vec::new();
                let mut post = Vec::new();
                for pa in &assigns {
                    match (&pa.op, &pa.value) {
                        (AssignOp::Set, PreparedValue::Expr(bound)) => {
                            let v = eval_value_for(mapper, bound, Some(surr))?;
                            values.push((pa.attr, AttrValue::Scalar(v)));
                        }
                        _ => post.push(pa),
                    }
                }
                mapper.extend_role(txn, surr, class, &values)?;
                writes.inserts.push((surr, class));
                for (attr, _) in &values {
                    writes.attr_writes.push((surr, *attr));
                }
                for pa in post {
                    apply_assign(mapper, txn, surr, pa, writes)?;
                }
            }
            Ok(targets.len())
        }
        CompiledUpdate::Modify { class, targets, mut assigns } => {
            let targets = match targets {
                Some(sel) => sel.run(mapper)?,
                None => mapper.entities_of(class)?,
            };
            run_selectors(mapper, &mut assigns)?;
            for &surr in &targets {
                for pa in &assigns {
                    apply_assign(mapper, txn, surr, pa, writes)?;
                }
            }
            Ok(targets.len())
        }
        CompiledUpdate::Delete { class, targets } => {
            let targets = match targets {
                Some(sel) => sel.run(mapper)?,
                None => mapper.entities_of(class)?,
            };
            for &surr in &targets {
                for removed in mapper.delete_role(txn, surr, class)? {
                    writes.deletes.push((surr, removed));
                }
            }
            Ok(targets.len())
        }
    }
}

/// A plain INSERT: one new entity.
fn exec_insert(
    mapper: &mut Mapper,
    txn: &mut Txn,
    class: ClassId,
    prepared: &[PreparedAssign],
    writes: &mut WriteSet,
) -> Result<usize, QueryError> {
    // Build the assignment list for insert_entity so REQUIRED checks see
    // the assigned values (§4.8: "Immediate attributes of all inserted
    // classes can be assigned values in one INSERT").
    let mut assigns = Vec::new();
    let mut post = Vec::new();
    for pa in prepared {
        match (&pa.op, &pa.value) {
            (AssignOp::Set, PreparedValue::Expr(bound)) => {
                let v = eval_value_for(mapper, bound, None)?;
                assigns.push((pa.attr, AttrValue::Scalar(v)));
            }
            (AssignOp::Set, PreparedValue::Entities { selected, .. }) => {
                let attr = mapper.catalog().attribute(pa.attr)?;
                assigns.push((pa.attr, selected_value(attr, selected)?));
            }
            _ => post.push(pa),
        }
    }
    let surr = mapper.insert_entity(txn, class, &assigns)?;
    writes.inserts.push((surr, class));
    for anc in mapper.catalog().ancestors(class) {
        writes.inserts.push((surr, anc));
    }
    for (attr, v) in &assigns {
        let values = match v {
            AttrValue::Scalar(x) => std::slice::from_ref(x),
            AttrValue::Multi(xs) => xs.as_slice(),
        };
        let partners: Vec<Surrogate> = values.iter().filter_map(Value::as_entity).collect();
        record_eva_write(mapper, writes, surr, *attr, &partners)?;
    }
    for pa in post {
        apply_assign(mapper, txn, surr, pa, writes)?;
    }
    Ok(1)
}
