//! Query optimization: access-path selection over the §5.1 cost model.
//!
//! "SIM optimizes a query by building a query graph (whose nodes are LUC
//! objects), enumerating strategies, estimating the cost of processing for
//! each strategy and choosing the one with the least cost. … Cardinality of
//! LUCs and relationships, blocking factors, indexes and the cost of
//! accessing the first and subsequent instances of a relationship are some
//! of the optimization parameters used." (§5.1)
//!
//! The strategy space covered here:
//!
//! * per-perspective access paths — full class scan, unique/secondary index
//!   equality probe (B-tree or hash, chosen by cost), index range scan
//!   (from sargable WHERE conjuncts);
//! * index nested-loop joins between perspectives (value-based joins of
//!   multi-perspective queries, §4.1);
//! * perspective reordering, checked for semantics preservation: a strategy
//!   that permutes the perspective nesting breaks the implicit
//!   surrogate-based output ordering and is charged a sort, exactly as the
//!   paper describes ("Transformation of a query graph for a strategy is
//!   tested to see if it is semantics-preserving, and, if it is not, the
//!   cost of reordering/sorting output is added").
//!
//! There is one cost model. Every candidate is priced in estimated block
//! accesses by the formulas below; the cardinalities they consume come
//! from [`crate::statistics::Estimator`] — histogram selectivities,
//! distinct counts and measured EVA fan-outs after `\analyze`, the named
//! defaults of [`crate::statistics::priors`] before it. Whether statistics
//! existed is recorded on the plan (`used_statistics`) but selects no code
//! path. The plan also records its per-node row estimates (`est_rows`) so
//! EXPLAIN ANALYZE can render estimated-vs-actual side by side.

use crate::bound::{BExpr, BoundQuery, NodeOrigin, NodeType};
use crate::error::QueryError;
use crate::statistics::{flip, priors, Estimator};
use sim_catalog::{AttrId, ClassId};
use sim_dml::BinOp;
use sim_luc::layout::{AttrPlacement, FieldKind, PairMapping};
use sim_luc::Mapper;
use sim_types::{Domain, Value};

/// Which physical index an equality probe descends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMethod {
    /// Unique or secondary B-tree index.
    BTree,
    /// Hash index ("random keys based on hashing", §5.2) — equality only.
    Hash,
}

/// How a perspective's entities are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every entity of the class (via the family surrogate index).
    FullScan {
        /// The class.
        class: ClassId,
    },
    /// Equality probe on an indexed attribute. The probe value may reference
    /// perspectives bound earlier in the chosen order (index nested-loop
    /// join).
    IndexEq {
        /// The class.
        class: ClassId,
        /// The indexed attribute.
        attr: AttrId,
        /// The probe value (constant or outer-perspective attribute).
        value: BExpr,
        /// The index the probe descends.
        method: ProbeMethod,
    },
    /// Range scan on an indexed attribute (constant bounds only).
    IndexRange {
        /// The class.
        class: ClassId,
        /// The indexed attribute.
        attr: AttrId,
        /// Lower bound (inclusive).
        lo: Option<Value>,
        /// Upper bound.
        hi: Option<Value>,
        /// Whether the upper bound is inclusive.
        hi_inclusive: bool,
    },
}

/// A chosen strategy.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Iteration order of the roots (indexes into `BoundQuery::roots`).
    pub root_order: Vec<usize>,
    /// Access path per root, parallel to `root_order`.
    pub access: Vec<AccessPath>,
    /// Estimated block accesses.
    pub estimated_io: f64,
    /// True when the chosen order breaks the implicit perspective ordering
    /// and the output must be re-sorted (its cost is already included).
    pub needs_perspective_sort: bool,
    /// Human-readable strategy description (EXPLAIN).
    pub explanation: Vec<String>,
    /// Estimated rows produced at each query-tree node (indexed by node
    /// id), following the executor's loop nest: a node's estimate is
    /// invocations × its expected domain size.
    pub est_rows: Vec<f64>,
    /// Estimated output rows after the full selection.
    pub estimated_rows: f64,
    /// True when collected statistics existed at planning time (false =
    /// every estimate came from the default priors; the `query.estimate_*`
    /// counters track the split).
    pub used_statistics: bool,
}

/// First-instance relationship access cost in block reads, per the §5.1
/// claim: 0 when clustered, 1 when mapped by absolute addresses (pointers),
/// an index descent otherwise.
pub fn first_instance_cost(mapper: &Mapper, attr: AttrId) -> f64 {
    match mapper.layout().placement(attr) {
        Some(AttrPlacement::Field { kind: FieldKind::PointerEva { clustered, .. }, .. })
            if clustered =>
        {
            0.0
        }
        Some(AttrPlacement::Field { kind: FieldKind::ForeignKeyEva, .. }) => 1.0,
        Some(AttrPlacement::Structure { structure, .. }) => {
            // A descent into the (common or dedicated) structure B-tree,
            // a surrogate-index probe and the partner's block.
            match mapper.layout().structures[structure].mapping {
                PairMapping::Common | PairMapping::Dedicated => 4.0,
                PairMapping::ForeignKey => 1.0,
            }
        }
        _ => 1.0,
    }
}

struct Candidate {
    access: AccessPath,
    cost: f64,
    /// Roots this access path depends on (for join ordering).
    depends_on: Vec<usize>,
    selectivity: f64,
    /// Index into the conjunct list this candidate consumes (None: scan).
    conjunct: Option<usize>,
    description: String,
}

/// Build the plan for a bound query.
pub fn plan(mapper: &Mapper, q: &BoundQuery) -> Result<Plan, QueryError> {
    let conjuncts = match &q.selection {
        Some(sel) => split_conjuncts(sel),
        None => Vec::new(),
    };
    let est = Estimator::new(mapper);

    // Candidate access paths per root.
    let mut candidates: Vec<Vec<Candidate>> = Vec::with_capacity(q.roots.len());
    for &root in q.roots.iter() {
        let class = q.nodes[root]
            .class
            .ok_or_else(|| QueryError::Internal("root node has no class".into()))?;
        let n = mapper.entity_count(class).max(1) as f64;
        let scan_cost = est.scan_blocks(class)? + 1.0;
        let mut cands = vec![Candidate {
            access: AccessPath::FullScan { class },
            cost: scan_cost,
            depends_on: Vec::new(),
            selectivity: 1.0,
            conjunct: None,
            description: format!("scan {} ({n} entities)", class_name(mapper, class)),
        }];
        for (ci, c) in conjuncts.iter().enumerate() {
            index_candidates(mapper, &est, q, root, class, ci, c, &mut cands)?;
        }
        candidates.push(cands);
    }

    // Enumerate root orders (perspective counts are tiny; cap at 4! = 24).
    let k = q.roots.len();
    let orders: Vec<Vec<usize>> = if k <= 1 {
        vec![(0..k).collect()]
    } else if k <= 4 {
        permutations(k)
    } else {
        vec![(0..k).collect()]
    };

    let mut best: Option<Plan> = None;
    for order in orders {
        if let Some(plan) = cost_order(mapper, &est, q, &order, &candidates, &conjuncts)? {
            if best.as_ref().is_none_or(|b| plan.estimated_io < b.estimated_io) {
                best = Some(plan);
            }
        }
    }
    best.ok_or_else(|| QueryError::Analyze("optimizer produced no strategy".into()))
}

/// The root each TYPE 1/3 node belongs to (by parent chain).
fn root_of_map(q: &BoundQuery) -> Vec<usize> {
    let mut root_of = vec![usize::MAX; q.nodes.len()];
    for &node in q.type13_order.iter().chain(q.type2_order.iter()) {
        let mut cur = node;
        while let Some(p) = q.nodes[cur].parent {
            cur = p;
        }
        root_of[node] = cur;
    }
    root_of
}

/// Expected domain-size factor of a non-root node.
fn node_factor(est: &Estimator<'_>, q: &BoundQuery, node: usize) -> f64 {
    let raw = match &q.nodes[node].origin {
        NodeOrigin::Eva { attr } | NodeOrigin::MvDva { attr } => est.fan_out(*attr),
        // The closure multiplies per level; there are no per-depth
        // statistics, so it is always the prior.
        NodeOrigin::Transitive { .. } => priors::FAN_OUT,
        NodeOrigin::Restrict { class } => {
            match q.nodes[node].parent.and_then(|p| q.nodes[p].class) {
                Some(parent_class) => est.role_fraction(parent_class, *class),
                None => 1.0,
            }
        }
        NodeOrigin::Perspective { .. } => 1.0,
    };
    // TYPE 3 nodes null-pad an empty domain: at least one instance per
    // invocation.
    if q.nodes[node].label == NodeType::Type3 {
        raw.max(1.0)
    } else {
        raw
    }
}

fn cost_order(
    mapper: &Mapper,
    est: &Estimator<'_>,
    q: &BoundQuery,
    order: &[usize],
    candidates: &[Vec<Candidate>],
    conjuncts: &[&BExpr],
) -> Result<Option<Plan>, QueryError> {
    let mut access = Vec::with_capacity(order.len());
    let mut explanation = Vec::new();
    let mut chosen_per_pos: Vec<&Candidate> = Vec::with_capacity(order.len());
    let mut total = 0.0;
    let mut outer_rows = 1.0f64;
    for (pos, &ri) in order.iter().enumerate() {
        let bound_before: Vec<usize> = order[..pos].to_vec();
        // Choose the cheapest applicable candidate.
        let mut chosen: Option<&Candidate> = None;
        for cand in &candidates[ri] {
            if cand.depends_on.iter().all(|d| bound_before.contains(d))
                && chosen.is_none_or(|c| cand.cost < c.cost)
            {
                chosen = Some(cand);
            }
        }
        let Some(c) = chosen else { return Ok(None) };
        total += outer_rows * c.cost;
        let root = q.roots[ri];
        let class = q.nodes[root]
            .class
            .ok_or_else(|| QueryError::Internal("root node has no class".into()))?;
        let n = mapper.entity_count(class).max(1) as f64;
        outer_rows *= (n * c.selectivity).max(1.0);
        explanation.push(format!("perspective {}: {}", ri + 1, c.description));
        access.push(c.access.clone());
        chosen_per_pos.push(c);
    }

    // Descendant traversal costs: every TYPE 1/3 non-root node multiplies
    // rows by its fan-out and pays a first-instance cost per outer row.
    for &node in &q.type13_order {
        if q.nodes[node].parent.is_none() {
            continue;
        }
        let factor = node_factor(est, q, node);
        match &q.nodes[node].origin {
            NodeOrigin::Eva { attr } | NodeOrigin::Transitive { attr } => {
                let fc = first_instance_cost(mapper, *attr);
                total += outer_rows * fc;
                outer_rows *= factor;
            }
            NodeOrigin::MvDva { .. } => {
                total += outer_rows; // one dependent-structure access
                outer_rows *= factor;
            }
            NodeOrigin::Restrict { .. } | NodeOrigin::Perspective { .. } => {
                outer_rows *= factor;
            }
        }
    }

    // Per-node row estimates, following the executor's loop nest: each
    // root's subtree is exhausted before the next root's loop opens.
    let root_of = root_of_map(q);
    let mut est_rows = vec![0.0f64; q.nodes.len()];
    let mut cum = 1.0f64;
    for (pos, &ri) in order.iter().enumerate() {
        let root = q.roots[ri];
        let c = chosen_per_pos[pos];
        let class = q.nodes[root].class.unwrap_or(ClassId(0));
        let n = mapper.entity_count(class).max(1) as f64;
        let mut matches = n * c.selectivity;
        if q.nodes[root].label == NodeType::Type3 {
            matches = matches.max(1.0);
        }
        cum *= matches;
        est_rows[root] = cum;
        for &node in &q.type13_order {
            if node == root || root_of[node] != root {
                continue;
            }
            cum *= node_factor(est, q, node);
            est_rows[node] = cum;
        }
    }
    let cum13 = cum;
    // TYPE 2 (existential) nodes: an upper bound ignoring short-circuiting.
    for &node in &q.type2_order {
        let base = match q.nodes[node].parent {
            Some(p) if est_rows[p] > 0.0 => est_rows[p],
            _ => cum13,
        };
        est_rows[node] = base * node_factor(est, q, node);
    }

    // Output estimate: rows through the nest, filtered by every conjunct
    // *not* consumed by a chosen access path.
    let consumed: Vec<usize> = chosen_per_pos.iter().filter_map(|c| c.conjunct).collect();
    let mut estimated_rows = cum13;
    for (ci, c) in conjuncts.iter().enumerate() {
        if consumed.contains(&ci) {
            continue;
        }
        estimated_rows *= est.residual_selectivity(q, c);
    }

    // Semantics preservation (§5.1): without an explicit ORDER BY the output
    // must follow the declaration-order perspective nesting.
    let natural: Vec<usize> = (0..order.len()).collect();
    let mut needs_sort = false;
    if order != natural && q.order_by.is_empty() {
        needs_sort = true;
        let sort_cost = outer_rows * outer_rows.max(2.0).log2() * 0.01;
        total += sort_cost;
        explanation.push(format!(
            "perspective order permuted: adding sort cost {sort_cost:.1} to restore semantics"
        ));
    }
    let used_statistics = est.has_statistics();
    explanation.push(format!(
        "estimated output: {estimated_rows:.1} rows (from {})",
        if used_statistics { "statistics" } else { "default priors" }
    ));
    Ok(Some(Plan {
        root_order: order.to_vec(),
        access,
        estimated_io: total,
        needs_perspective_sort: needs_sort,
        explanation,
        est_rows,
        estimated_rows,
        used_statistics,
    }))
}

/// Push every index candidate this conjunct yields for `root` onto `out`.
#[allow(clippy::too_many_arguments)]
fn index_candidates(
    mapper: &Mapper,
    est: &Estimator<'_>,
    q: &BoundQuery,
    root: usize,
    class: ClassId,
    conjunct_idx: usize,
    conjunct: &BExpr,
    out: &mut Vec<Candidate>,
) -> Result<(), QueryError> {
    let BExpr::Binary { op, lhs, rhs } = conjunct else { return Ok(()) };
    // Normalize so the local attribute is on the left.
    let (attr, other, op) = match (lhs.as_ref(), rhs.as_ref()) {
        (BExpr::Attr { node, attr }, other) if *node == root => (*attr, other, *op),
        (other, BExpr::Attr { node, attr }) if *node == root => (*attr, other, flip(*op)),
        _ => return Ok(()),
    };
    if !mapper.has_index(attr) {
        return Ok(());
    }
    let n = mapper.entity_count(class).max(1) as f64;
    let height = mapper.index_height(attr).map_or(priors::INDEX_HEIGHT, |h| h as f64);
    // Equality probe costs in block accesses: a descent (or one bucket
    // read) plus one heap access per expected match.
    let eq_cost = |selectivity: f64, method: ProbeMethod| {
        let matches = (n * selectivity).max(1.0);
        match method {
            ProbeMethod::BTree => height + matches,
            // One bucket read beats a multi-level descent; ties with
            // shallow B-trees break toward the order-preserving B-tree.
            ProbeMethod::Hash => 1.5 + matches,
        }
    };
    match (op, other) {
        (BinOp::Eq, BExpr::Const(v)) => {
            let selectivity = est.eq_selectivity(class, attr);
            let mut push = |method: ProbeMethod| {
                let verb = if method == ProbeMethod::Hash { "hash probe" } else { "index probe" };
                out.push(Candidate {
                    access: AccessPath::IndexEq {
                        class,
                        attr,
                        value: BExpr::Const(v.clone()),
                        method,
                    },
                    cost: eq_cost(selectivity, method),
                    depends_on: Vec::new(),
                    selectivity,
                    conjunct: Some(conjunct_idx),
                    description: format!(
                        "{verb} {}.{} = {v}",
                        class_name(mapper, class),
                        attr_name(mapper, attr)
                    ),
                });
            };
            if mapper.has_btree_index(attr) {
                push(ProbeMethod::BTree);
            }
            if mapper.has_hash_index(attr) {
                push(ProbeMethod::Hash);
            }
        }
        (BinOp::Eq, BExpr::Attr { node, attr: outer_attr }) => {
            // Join predicate: probe with the outer perspective's value.
            let Some(outer_root_pos) = q.roots.iter().position(|r| r == node) else {
                return Ok(());
            };
            let selectivity = est.eq_selectivity(class, attr);
            let mut push = |method: ProbeMethod| {
                out.push(Candidate {
                    access: AccessPath::IndexEq {
                        class,
                        attr,
                        value: BExpr::Attr { node: *node, attr: *outer_attr },
                        method,
                    },
                    cost: eq_cost(selectivity, method),
                    depends_on: vec![outer_root_pos],
                    selectivity,
                    conjunct: Some(conjunct_idx),
                    description: format!(
                        "index nested-loop join on {}.{}{}",
                        class_name(mapper, class),
                        attr_name(mapper, attr),
                        if method == ProbeMethod::Hash { " (hash)" } else { "" }
                    ),
                });
            };
            if mapper.has_btree_index(attr) {
                push(ProbeMethod::BTree);
            }
            if mapper.has_hash_index(attr) {
                push(ProbeMethod::Hash);
            }
        }
        (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, BExpr::Const(v)) => {
            // A range scan walks the index in key order, which for symbolic
            // domains is symbol-code (declaration) order — not the
            // label-string order the evaluator compares with. Equality
            // probes are still fine (the label↔code mapping is a bijection),
            // but inequalities must fall back to a scan.
            if matches!(
                mapper.catalog().attribute(attr)?.dva_domain(),
                Some(Domain::Symbolic(_) | Domain::Subrole(_))
            ) {
                return Ok(());
            }
            // Only B-trees serve ranges; a hash index cannot.
            if !mapper.has_btree_index(attr) {
                return Ok(());
            }
            let (lo, hi, hi_inclusive) = match op {
                BinOp::Lt => (None, Some(v.clone()), false),
                BinOp::Le => (None, Some(v.clone()), true),
                BinOp::Gt | BinOp::Ge => (Some(v.clone()), None, false),
                _ => return Ok(()),
            };
            let selectivity = est.range_selectivity(
                attr,
                lo.as_ref().map(|v| (v, matches!(op, BinOp::Ge))),
                hi.as_ref().map(|v| (v, hi_inclusive)),
            );
            // Range scans stream matches off consecutive leaves, but each
            // match still costs a heap access plus its share of leaf reads.
            let cost = height + (n * selectivity).max(1.0) * 1.05;
            out.push(Candidate {
                access: AccessPath::IndexRange { class, attr, lo, hi, hi_inclusive },
                cost,
                depends_on: Vec::new(),
                selectivity,
                conjunct: Some(conjunct_idx),
                description: format!(
                    "index range scan on {}.{}",
                    class_name(mapper, class),
                    attr_name(mapper, attr)
                ),
            });
        }
        _ => {}
    }
    Ok(())
}

/// Split a selection into top-level AND conjuncts.
pub fn split_conjuncts(expr: &BExpr) -> Vec<&BExpr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a BExpr, out: &mut Vec<&'a BExpr>) {
        match e {
            BExpr::Binary { op: BinOp::And, lhs, rhs } => {
                rec(lhs, out);
                rec(rhs, out);
            }
            other => out.push(other),
        }
    }
    rec(expr, &mut out);
    out
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..k).collect();
    fn heap(n: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if n == 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..n {
            heap(n - 1, items, out);
            if n.is_multiple_of(2) {
                items.swap(i, n - 1);
            } else {
                items.swap(0, n - 1);
            }
        }
    }
    heap(k, &mut items, &mut out);
    out
}

fn class_name(mapper: &Mapper, class: ClassId) -> String {
    mapper.catalog().class(class).map(|c| c.name.clone()).unwrap_or_else(|_| class.to_string())
}

fn attr_name(mapper: &Mapper, attr: AttrId) -> String {
    mapper.catalog().attribute(attr).map(|a| a.name.clone()).unwrap_or_else(|_| attr.to_string())
}
