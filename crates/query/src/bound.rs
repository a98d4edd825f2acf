//! Bound (analyzed) query representation: the query tree of §4.5.

use sim_catalog::{AttrId, ClassId};
use sim_dml::{AggFunc, BinOp, OutputMode, Quantifier};
use sim_types::Value;

/// The §4.5 node labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeType {
    /// Used (with its descendants) in both clauses, or the perspective.
    Type1,
    /// Used only in the selection expression: existential iteration.
    Type2,
    /// Used only in the target list: outer-join null padding.
    Type3,
}

/// How a query-tree node derives its domain.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOrigin {
    /// A perspective class (a root).
    Perspective {
        /// The class.
        class: ClassId,
    },
    /// An EVA edge from the parent node.
    Eva {
        /// The EVA followed.
        attr: AttrId,
    },
    /// A multi-valued DVA (or MV subrole) edge: values, not entities.
    MvDva {
        /// The attribute.
        attr: AttrId,
    },
    /// `transitive(eva)`: the closure of a cyclic EVA chain (§4.7).
    Transitive {
        /// The EVA closed over.
        attr: AttrId,
    },
    /// An `AS <class>` conversion applied directly to the parent node
    /// (e.g. `teaching-load of Student as Teaching-Assistant`, §4.2): the
    /// same entity, admitted only when it holds the target role.
    Restrict {
        /// The role required.
        class: ClassId,
    },
}

impl NodeOrigin {
    /// The traversal step deriving the node from its parent's instance;
    /// `None` for perspectives and `AS` restrictions.
    pub fn step(&self) -> Option<ChainStep> {
        match self {
            NodeOrigin::Eva { attr } => Some(ChainStep::Eva(*attr)),
            NodeOrigin::MvDva { attr } => Some(ChainStep::MvDva(*attr)),
            NodeOrigin::Transitive { attr } => Some(ChainStep::Transitive(*attr)),
            NodeOrigin::Perspective { .. } | NodeOrigin::Restrict { .. } => None,
        }
    }
}

impl ChainStep {
    /// The attribute the step follows.
    pub fn attr(&self) -> AttrId {
        match self {
            ChainStep::Eva(a) | ChainStep::MvDva(a) | ChainStep::Transitive(a) => *a,
        }
    }
}

/// One range variable of the query tree.
#[derive(Debug, Clone)]
pub struct QtNode {
    /// Node id (index into [`BoundQuery::nodes`]).
    pub id: usize,
    /// Parent node (None for roots).
    pub parent: Option<usize>,
    /// Domain derivation.
    pub origin: NodeOrigin,
    /// The class the node's entities are viewed as (after any `AS`
    /// conversion); `None` for value (MV DVA) nodes.
    pub class: Option<ClassId>,
    /// Role filter from an `AS <subclass>` conversion (§4.2): instances not
    /// holding this role are skipped.
    pub role_filter: Option<ClassId>,
    /// The §4.5 label; assigned by the binder.
    pub label: NodeType,
    /// Depth (roots are 1) — structured-output level numbers.
    pub depth: u32,
}

/// One step of an aggregate/quantifier chain (binding-scope-breaking, §4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum ChainStep {
    /// Follow an EVA.
    Eva(AttrId),
    /// Enumerate a multi-valued DVA's values.
    MvDva(AttrId),
    /// Enumerate a transitive closure.
    Transitive(AttrId),
}

/// A bound aggregate/quantifier argument: where the values come from.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundChain {
    /// The outer node the chain starts from (its current instance).
    pub anchor: Option<usize>,
    /// Or: iterate a whole class (e.g. `avg(salary of instructor)`).
    pub global_class: Option<ClassId>,
    /// The steps from the start to the value set.
    pub steps: Vec<ChainStep>,
    /// Read this single-valued attribute of each reached entity; `None`
    /// aggregates the entities/values themselves.
    pub terminal: Option<AttrId>,
}

/// A bound expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// A constant.
    Const(Value),
    /// The current instance of a query-tree node (entity or MV value).
    NodeValue(usize),
    /// A single-valued attribute of a node's current entity.
    Attr {
        /// The node.
        node: usize,
        /// The attribute (single-valued DVA, EVA or subrole).
        attr: AttrId,
    },
    /// Binary operation under three-valued logic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BExpr>,
        /// Right operand.
        rhs: Box<BExpr>,
    },
    /// Logical negation.
    Not(Box<BExpr>),
    /// Arithmetic negation.
    Neg(Box<BExpr>),
    /// An aggregate over a chain (§4.6).
    Aggregate {
        /// The function.
        func: AggFunc,
        /// Duplicate elimination before aggregation.
        distinct: bool,
        /// The value source.
        chain: BoundChain,
    },
    /// A quantified value set, valid only as a comparison operand (§4.6).
    Quantified {
        /// all / some / no.
        quantifier: Quantifier,
        /// The value source.
        chain: BoundChain,
    },
    /// `<node> isa <class>` role test.
    IsA {
        /// The entity node.
        node: usize,
        /// The class tested for.
        class: ClassId,
    },
}

/// A fully analyzed retrieve query (or selection-only fragment).
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// All range variables; roots first is *not* guaranteed — use
    /// [`BoundQuery::type13_order`].
    pub nodes: Vec<QtNode>,
    /// Root node ids, in perspective order.
    pub roots: Vec<usize>,
    /// Target expressions.
    pub targets: Vec<BExpr>,
    /// Display names for target columns.
    pub target_names: Vec<String>,
    /// The node each target is "homed" at (deepest referenced TYPE 1/3
    /// node) — structured-output format assignment.
    pub target_home: Vec<usize>,
    /// ORDER BY keys.
    pub order_by: Vec<(BExpr, bool)>,
    /// The selection expression.
    pub selection: Option<BExpr>,
    /// Output mode.
    pub mode: OutputMode,
    /// TYPE 1/3 nodes in depth-first order (the loop nest).
    pub type13_order: Vec<usize>,
    /// TYPE 2 nodes in depth-first order (the existential nest).
    pub type2_order: Vec<usize>,
}

/// A structured-output record (§4.5 "fully structured" form).
#[derive(Debug, Clone, PartialEq)]
pub struct StructRecord {
    /// Which format (index into the TYPE 1/3 node order) this record uses.
    pub format: usize,
    /// The level number (node depth; transitive closures count their own
    /// levels, §4.7).
    pub level: u32,
    /// The values of the target items homed at this node.
    pub values: Vec<Value>,
}

/// Query output.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `TABLE [DISTINCT]`: one format describes every record.
    Table {
        /// Column names.
        columns: Vec<String>,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// `STRUCTURE`: multiple record formats with level numbers.
    Structure {
        /// Format descriptions: (node label, column names) per TYPE 1/3
        /// node in loop order.
        formats: Vec<Vec<String>>,
        /// The records, in traversal order.
        records: Vec<StructRecord>,
    },
}

impl QueryOutput {
    /// Row count (tabular) or record count (structured).
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Table { rows, .. } => rows.len(),
            QueryOutput::Structure { records, .. } => records.len(),
        }
    }

    /// True when no rows/records were produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows, if tabular (panics otherwise — test convenience).
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            QueryOutput::Table { rows, .. } => rows,
            QueryOutput::Structure { .. } => panic!("structured output has no flat rows"),
        }
    }
}

impl BExpr {
    /// Collect every node id this expression references directly (including
    /// aggregate/quantifier anchors).
    pub fn referenced_nodes(&self, out: &mut Vec<usize>) {
        self.for_each_referenced_node(&mut |n| out.push(n));
    }

    /// Visit every node id this expression references directly (including
    /// aggregate/quantifier anchors) without materializing them.
    pub fn for_each_referenced_node(&self, visit: &mut impl FnMut(usize)) {
        match self {
            BExpr::Const(_) => {}
            BExpr::NodeValue(n) => visit(*n),
            BExpr::Attr { node, .. } => visit(*node),
            BExpr::Binary { lhs, rhs, .. } => {
                lhs.for_each_referenced_node(visit);
                rhs.for_each_referenced_node(visit);
            }
            BExpr::Not(e) | BExpr::Neg(e) => e.for_each_referenced_node(visit),
            BExpr::Aggregate { chain, .. } | BExpr::Quantified { chain, .. } => {
                if let Some(a) = chain.anchor {
                    visit(a);
                }
            }
            BExpr::IsA { node, .. } => visit(*node),
        }
    }
}
