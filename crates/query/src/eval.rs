//! Three-valued expression evaluation over a row context.
//!
//! Truth values are encoded in [`Value`]: definite truth/falsity as
//! `Bool`, *unknown* as `Null` — which makes the Kleene connectives (§4.9)
//! compose naturally with null propagation in arithmetic.

use crate::bound::{BExpr, BoundChain, ChainStep};
use crate::error::QueryError;
use sim_catalog::{AttrId, ClassId};
use sim_dml::{AggFunc, BinOp, Quantifier};
use sim_luc::{AttrOut, Mapper};
use sim_types::{pattern, ArithOp, Surrogate, Truth, Value};
use std::cmp::Ordering;

/// A row context: the current instance of every query-tree node.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    /// Indexed by node id; `None` = not currently bound.
    pub instances: Vec<Option<Value>>,
}

impl EvalCtx {
    /// A context for `n` nodes, all unbound.
    pub fn new(n: usize) -> EvalCtx {
        EvalCtx { instances: vec![None; n] }
    }

    /// The current instance of a node (null when unbound or padded).
    pub fn instance(&self, node: usize) -> Value {
        self.instances.get(node).cloned().flatten().unwrap_or(Value::Null)
    }
}

fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

/// Interpret a value as a truth value (Bool or Null).
pub fn value_to_truth(v: &Value) -> Truth {
    match v {
        Value::Bool(true) => Truth::True,
        Value::Bool(false) => Truth::False,
        _ => Truth::Unknown,
    }
}

/// Evaluate an expression in a row context.
pub fn eval(mapper: &Mapper, expr: &BExpr, ctx: &EvalCtx) -> Result<Value, QueryError> {
    Ok(match expr {
        BExpr::Const(v) => v.clone(),
        BExpr::NodeValue(n) => ctx.instance(*n),
        BExpr::Attr { node, attr } => match ctx.instance(*node) {
            Value::Entity(s) => match mapper.read_attr(s, *attr)? {
                AttrOut::Single(v) => v,
                AttrOut::Multi(_) => {
                    return Err(QueryError::Analyze(
                        "multi-valued attribute used as a scalar".into(),
                    ));
                }
            },
            // Outer-join padding (§4.5): attributes of the dummy are null.
            _ => Value::Null,
        },
        BExpr::Binary { op, lhs, rhs } => eval_binary(mapper, *op, lhs, rhs, ctx)?,
        BExpr::Not(e) => truth_to_value(value_to_truth(&eval(mapper, e, ctx)?).not()),
        BExpr::Neg(e) => eval(mapper, e, ctx)?.negate()?,
        BExpr::Aggregate { func, distinct, chain } => {
            let values = chain_values(mapper, chain, ctx)?;
            apply_aggregate(*func, *distinct, values)?
        }
        BExpr::Quantified { .. } => {
            return Err(QueryError::Analyze(
                "quantifiers (all/some/no) are only valid as comparison operands".into(),
            ));
        }
        BExpr::IsA { node, class } => match ctx.instance(*node) {
            Value::Entity(s) => Value::Bool(mapper.has_role(s, *class)?),
            _ => Value::Null,
        },
    })
}

fn eval_binary(
    mapper: &Mapper,
    op: BinOp,
    lhs: &BExpr,
    rhs: &BExpr,
    ctx: &EvalCtx,
) -> Result<Value, QueryError> {
    // Quantified operands turn comparisons into quantified comparisons.
    if is_comparison(op) {
        if let BExpr::Quantified { quantifier, chain } = rhs {
            let v = eval(mapper, lhs, ctx)?;
            let set = chain_values(mapper, chain, ctx)?;
            return Ok(truth_to_value(quantified_compare(&v, op, &set, *quantifier, false)?));
        }
        if let BExpr::Quantified { quantifier, chain } = lhs {
            let v = eval(mapper, rhs, ctx)?;
            let set = chain_values(mapper, chain, ctx)?;
            return Ok(truth_to_value(quantified_compare(&v, op, &set, *quantifier, true)?));
        }
    }
    match op {
        BinOp::And => {
            let a = value_to_truth(&eval(mapper, lhs, ctx)?);
            if a == Truth::False {
                return Ok(Value::Bool(false)); // short circuit
            }
            let b = value_to_truth(&eval(mapper, rhs, ctx)?);
            Ok(truth_to_value(a.and(b)))
        }
        BinOp::Or => {
            let a = value_to_truth(&eval(mapper, lhs, ctx)?);
            if a == Truth::True {
                return Ok(Value::Bool(true));
            }
            let b = value_to_truth(&eval(mapper, rhs, ctx)?);
            Ok(truth_to_value(a.or(b)))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let a = eval(mapper, lhs, ctx)?;
            let b = eval(mapper, rhs, ctx)?;
            let arith = match op {
                BinOp::Add => ArithOp::Add,
                BinOp::Sub => ArithOp::Sub,
                BinOp::Mul => ArithOp::Mul,
                _ => ArithOp::Div,
            };
            Ok(a.arith(arith, &b)?)
        }
        BinOp::Matches => {
            let a = eval(mapper, lhs, ctx)?;
            let b = eval(mapper, rhs, ctx)?;
            Ok(truth_to_value(pattern::value_matches(&a, &b)))
        }
        _ => {
            let a = eval(mapper, lhs, ctx)?;
            let b = eval(mapper, rhs, ctx)?;
            Ok(truth_to_value(compare(&a, op, &b)?))
        }
    }
}

fn is_comparison(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Three-valued comparison of two values.
pub fn compare(a: &Value, op: BinOp, b: &Value) -> Result<Truth, QueryError> {
    let t = match op {
        BinOp::Eq => a.eq_3vl(b)?,
        BinOp::Ne => a.eq_3vl(b)?.not(),
        BinOp::Lt => a.cmp_3vl(b, Ordering::is_lt)?,
        BinOp::Le => a.cmp_3vl(b, Ordering::is_le)?,
        BinOp::Gt => a.cmp_3vl(b, Ordering::is_gt)?,
        BinOp::Ge => a.cmp_3vl(b, Ordering::is_ge)?,
        other => {
            return Err(QueryError::Analyze(format!("{other} is not a comparison")));
        }
    };
    Ok(t)
}

fn quantified_compare(
    v: &Value,
    op: BinOp,
    set: &[Value],
    quantifier: Quantifier,
    quantifier_on_lhs: bool,
) -> Result<Truth, QueryError> {
    let mut some = Truth::False;
    let mut all = Truth::True;
    for s in set {
        let t = if quantifier_on_lhs { compare(s, op, v)? } else { compare(v, op, s)? };
        some = some.or(t);
        all = all.and(t);
    }
    Ok(match quantifier {
        Quantifier::Some => some,
        Quantifier::All => all, // vacuously true on the empty set
        Quantifier::No => some.not(),
    })
}

/// Enumerate the value set of an aggregate/quantifier chain for the current
/// context (§4.6: the parentheses delimit the scope).
pub fn chain_values(
    mapper: &Mapper,
    chain: &BoundChain,
    ctx: &EvalCtx,
) -> Result<Vec<Value>, QueryError> {
    let mut current: Vec<Value> = match (chain.anchor, chain.global_class) {
        (Some(node), _) => match ctx.instance(node) {
            Value::Null => Vec::new(),
            v => vec![v],
        },
        (None, Some(class)) => mapper.entities_of(class)?.into_iter().map(Value::Entity).collect(),
        (None, None) => Vec::new(),
    };
    let mut reached = Vec::new();
    for step in &chain.steps {
        for v in &current {
            let Value::Entity(s) = v else { continue };
            traverse(mapper, *s, step, None, 1, &mut reached)?;
        }
        current = reached.drain(..).map(|(v, _)| v).collect();
    }
    if let Some(attr) = chain.terminal {
        let mut out = Vec::with_capacity(current.len());
        for v in current {
            let Value::Entity(s) = v else { continue };
            match mapper.read_attr(s, attr)? {
                AttrOut::Single(x) => out.push(x),
                AttrOut::Multi(xs) => out.extend(xs),
            }
        }
        current = out;
    }
    Ok(current)
}

/// Append to `out` the values one traversal step reaches from entity
/// `from` — EVA partners, MV DVA values, or the transitive closure (§4.4,
/// §4.7) — each with its level: `level` for a single hop, `level + k - 1`
/// at closure depth `k`. The executor's node domains, aggregate chains and
/// VERIFY's inverse trigger walk all enumerate through here. With a `role`
/// filter (an `AS <subclass>` conversion, §4.2) only entities holding it
/// are appended.
pub fn traverse(
    mapper: &Mapper,
    from: Surrogate,
    step: &ChainStep,
    role: Option<ClassId>,
    level: u32,
    out: &mut Vec<(Value, u32)>,
) -> Result<(), QueryError> {
    let start = out.len();
    match step {
        ChainStep::Eva(attr) => {
            let partners = mapper.eva_partners(from, *attr)?;
            out.extend(partners.into_iter().map(|p| (Value::Entity(p), level)));
        }
        ChainStep::MvDva(attr) => {
            let values = mapper.read_attr(from, *attr)?.into_values();
            out.extend(values.into_iter().map(|v| (v, level)));
        }
        ChainStep::Transitive(attr) => {
            let closure = transitive_closure(mapper, from, *attr)?;
            out.extend(closure.into_iter().map(|(e, k)| (Value::Entity(e), level + k - 1)));
        }
    }
    if let Some(role) = role {
        retain_role(mapper, out, start, role, |(v, _)| v.as_entity())?;
    }
    Ok(())
}

/// Keep, in order, the items from `start` on whose entity holds `role`
/// (items without an entity stay). A failed role read is an error, never a
/// silently missing row.
pub fn retain_role<T>(
    mapper: &Mapper,
    items: &mut Vec<T>,
    start: usize,
    role: ClassId,
    entity: impl Fn(&T) -> Option<Surrogate>,
) -> Result<(), QueryError> {
    let mut kept = start;
    for i in start..items.len() {
        if entity(&items[i]).map_or(Ok(true), |e| mapper.has_role(e, role))? {
            items.swap(kept, i);
            kept += 1;
        }
    }
    items.truncate(kept);
    Ok(())
}

/// Transitive closure of an EVA from one entity (§4.7): every *path* from
/// the start is enumerated (so a DAG reached along two paths contributes
/// twice — hence the paper's `count distinct`), with cycles cut when a node
/// already lies on the current path. Levels start at 1.
pub fn transitive_closure(
    mapper: &Mapper,
    start: Surrogate,
    attr: AttrId,
) -> Result<Vec<(Surrogate, u32)>, QueryError> {
    fn rec(
        mapper: &Mapper,
        cur: Surrogate,
        attr: AttrId,
        level: u32,
        path: &mut Vec<Surrogate>,
        out: &mut Vec<(Surrogate, u32)>,
    ) -> Result<(), QueryError> {
        for p in mapper.eva_partners(cur, attr)? {
            if path.contains(&p) {
                continue; // cycle
            }
            out.push((p, level));
            path.push(p);
            rec(mapper, p, attr, level + 1, path, out)?;
            path.pop();
        }
        Ok(())
    }
    let mut out = Vec::new();
    let mut path = vec![start];
    rec(mapper, start, attr, 1, &mut path, &mut out)?;
    Ok(out)
}

/// Apply an aggregate function. Nulls are ignored; `SUM` of nothing is 0
/// (so the paper's V1 — `sum(credits of courses-enrolled) >= 12` — fails
/// for a student with no courses, as intended), `AVG`/`MIN`/`MAX` of
/// nothing are null.
pub fn apply_aggregate(
    func: AggFunc,
    distinct: bool,
    values: Vec<Value>,
) -> Result<Value, QueryError> {
    let mut vals: Vec<Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    if distinct {
        vals.sort_by(sim_types::Value::total_cmp);
        vals.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
    }
    Ok(match func {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum => {
            let mut acc = Value::Int(0);
            for v in &vals {
                acc = acc.arith(ArithOp::Add, v)?;
            }
            acc
        }
        AggFunc::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let mut sum = 0.0;
                for v in &vals {
                    sum += v.as_f64().ok_or_else(|| {
                        QueryError::Analyze(format!("avg over non-numeric value {v}"))
                    })?;
                }
                Value::Float(sum / vals.len() as f64)
            }
        }
        AggFunc::Min => vals.into_iter().min_by(sim_types::Value::total_cmp).unwrap_or(Value::Null),
        AggFunc::Max => vals.into_iter().max_by(sim_types::Value::total_cmp).unwrap_or(Value::Null),
    })
}
