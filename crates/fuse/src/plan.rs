//! Fusion planner and group compiler.
//!
//! Planning walks the program's statements in order and greedily grows a
//! *fusion group* — a run of statements that one launch may execute. A
//! group is closed (its destinations materialize) at:
//!
//! * an explicit [`Lazy::barrier`](crate::Lazy::barrier);
//! * an **extent change** — statements launch together only over the
//!   exact same iteration space (rank and dims);
//! * a **read-after-write hazard**: a statement *reloads* (raw
//!   [`load`](crate::load), or a forward that degraded to a reload) a
//!   buffer some earlier statement of the group stores. Values must then
//!   flow through memory, not through the graph. Today's node set is
//!   purely same-index elementwise, so this split is conservative — but it
//!   is exactly the rule that stays sound once non-elementwise reads
//!   (stencil shifts, gathers) join the node set, and the fused path
//!   (using the `Expr` returned by `assign`) loses nothing;
//! * a **clobbered forward**: a forward to in-group statement `k` whose
//!   destination a later in-group statement overwrites — eagerly the use
//!   reads the clobbered bytes, so the value may not stay in registers
//!   (see [`blocks_fusion`]);
//! * the **node budget** [`MAX_NODES`]: the per-index interpreter keeps
//!   its value scratch in a fixed array so fused kernels stay
//!   allocation-free per element.
//!
//! Splitting is always semantics-preserving: a program split at every
//! statement *is* the eager front end.
//!
//! Compilation then flattens each group's expression DAGs into a flat
//! node list in topological order, deduplicating shared subexpressions by
//! `Rc` identity (CSE), resolving forwards, and deriving the group's
//! summed [`KernelProfile`] — FLOPs per arithmetic node, 8 bytes read per
//! distinct load, 8 written per store — so the analytic perf model prices
//! the fused launch like the single memory sweep it performs.

use std::collections::HashMap;
use std::rc::Rc;

use racc_core::KernelProfile;

use crate::graph::{AnyView, AnyViewMut, ENode, Extent, LoadRef, StoreRef, UnOp};
use crate::{BinOp, Expr, ReduceKind};

/// Upper bound on compiled nodes per fused group — the size of the
/// per-index value scratch array. A single statement larger than this
/// cannot be executed and panics with advice to split it.
pub const MAX_NODES: usize = 64;

/// One statement: store `expr` into `dst`.
pub(crate) struct Stmt {
    pub dst: StoreRef,
    pub expr: Expr,
}

/// A planned group: statement indices plus an optional terminal reduce.
pub(crate) struct Group {
    pub extent: Extent,
    pub stmts: Vec<usize>,
    pub reduce: Option<(Expr, ReduceKind)>,
}

/// A compiled node, evaluated in index order into the scratch array.
pub(crate) enum CNode {
    Load(AnyView, Extent),
    Scalar(f64),
    Un(UnOp, u16),
    Bin(BinOp, u16, u16),
}

/// An executable group: flat nodes, stores, optional reduce root.
pub(crate) struct Compiled {
    pub extent: Extent,
    pub nodes: Vec<CNode>,
    /// `(destination, value-node)` in statement order.
    pub stores: Vec<(AnyViewMut, Extent, u16)>,
    pub reduce: Option<(u16, ReduceKind)>,
    pub profile: KernelProfile,
    /// Context ids of every array touched, for the cross-context guard.
    pub ctx_ids: Vec<u64>,
}

/// Number of nodes a tree compiles to at most (no cross-statement CSE
/// assumed). Used for the planner's budget check.
fn tree_size(expr: &Expr, seen: &mut HashMap<*const ENode, ()>) -> usize {
    let ptr = Rc::as_ptr(&expr.node);
    if seen.insert(ptr, ()).is_some() {
        return 0;
    }
    match &*expr.node {
        ENode::Load(_) | ENode::Scalar(_) | ENode::Forward { .. } => 1,
        ENode::Unary(_, a) => 1 + tree_size(a, seen),
        ENode::Binary(_, a, b) => 1 + tree_size(a, seen) + tree_size(b, seen),
    }
}

/// Would fusing a statement with this expression into the current group
/// read memory at the wrong time? `store_seq` is `(stmt index, buffer
/// id)` for every store the group performs so far. Two cases split:
///
/// * a **reload** — a raw load, or a forward that degrades to one — of a
///   buffer some group statement stores (read-after-write: the value must
///   flow through memory);
/// * a **clobbered forward** — a forward to in-group statement `k` whose
///   destination a *later* in-group statement overwrites. The eager
///   reading of that forward is "reload `dst(k)`", which by now holds the
///   clobbering statement's bytes, not `k`'s value, so in-register
///   forwarding would diverge.
fn blocks_fusion(expr: &Expr, in_group: &[usize], store_seq: &[(usize, usize)]) -> bool {
    match &*expr.node {
        ENode::Load(l) => store_seq.iter().any(|&(_, id)| id == l.id),
        ENode::Scalar(_) => false,
        ENode::Unary(_, a) => blocks_fusion(a, in_group, store_seq),
        ENode::Binary(_, a, b) => {
            blocks_fusion(a, in_group, store_seq) || blocks_fusion(b, in_group, store_seq)
        }
        ENode::Forward { stmt, reload } => {
            if in_group.contains(stmt) {
                store_seq
                    .iter()
                    .any(|&(sj, id)| id == reload.id && sj > *stmt)
            } else {
                store_seq.iter().any(|&(_, id)| id == reload.id)
            }
        }
    }
}

/// The extent of an expression (the common extent of its leaves), if it
/// touches any array at all. Panics on an in-expression mismatch — that is
/// a malformed zip, not a fusion boundary.
pub(crate) fn expr_extent(expr: &Expr) -> Option<Extent> {
    fn walk(expr: &Expr, found: &mut Option<Extent>) {
        match &*expr.node {
            ENode::Load(l) => merge(found, l.extent),
            ENode::Scalar(_) => {}
            ENode::Unary(_, a) => walk(a, found),
            ENode::Binary(_, a, b) => {
                walk(a, found);
                walk(b, found);
            }
            ENode::Forward { reload, .. } => merge(found, reload.extent),
        }
    }
    fn merge(found: &mut Option<Extent>, e: Extent) {
        match found {
            None => *found = Some(e),
            Some(prev) => assert_eq!(
                *prev, e,
                "fused expression zips arrays of different extents"
            ),
        }
    }
    let mut found = None;
    walk(expr, &mut found);
    found
}

/// Greedy fusion planning over the statement list. `eager` forces one
/// group per statement (the reference semantics).
pub(crate) fn plan(
    stmts: &[Stmt],
    barriers: &[usize],
    terminal: Option<(Expr, ReduceKind)>,
    eager: bool,
) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut cur: Option<Group> = None;
    let mut cur_nodes = 0usize;
    // `(stmt index, dst buffer id)` per store of the open group.
    let mut cur_stores: Vec<(usize, usize)> = Vec::new();

    let mut close =
        |cur: &mut Option<Group>, stores: &mut Vec<(usize, usize)>, nodes: &mut usize| {
            if let Some(g) = cur.take() {
                groups.push(g);
            }
            stores.clear();
            *nodes = 0;
        };

    for (i, stmt) in stmts.iter().enumerate() {
        if barriers.contains(&i) {
            close(&mut cur, &mut cur_stores, &mut cur_nodes);
        }
        let extent = stmt.dst.extent;
        if let Some(e) = expr_extent(&stmt.expr) {
            assert_eq!(
                e, extent,
                "fused statement stores extent {extent:?} from expression extent {e:?}"
            );
        }
        let est = tree_size(&stmt.expr, &mut HashMap::new()) + 1;
        assert!(
            est <= MAX_NODES,
            "a single fused statement needs {est} nodes (max {MAX_NODES}); split the expression"
        );
        let split = match &cur {
            None => true,
            Some(g) => {
                eager
                    || g.extent != extent
                    || cur_nodes + est > MAX_NODES
                    || blocks_fusion(&stmt.expr, &g.stmts, &cur_stores)
            }
        };
        if split {
            close(&mut cur, &mut cur_stores, &mut cur_nodes);
            cur = Some(Group {
                extent,
                stmts: vec![i],
                reduce: None,
            });
            cur_nodes = est;
        } else {
            let g = cur.as_mut().expect("group exists");
            g.stmts.push(i);
            cur_nodes += est;
        }
        cur_stores.push((i, stmt.dst.id));
    }

    if let Some((expr, kind)) = terminal {
        let extent = expr_extent(&expr)
            .expect("a fused reduction needs at least one array in its expression");
        let est = tree_size(&expr, &mut HashMap::new()) + 1;
        assert!(
            est <= MAX_NODES,
            "fused reduction needs {est} nodes (max {MAX_NODES}); split the expression"
        );
        let fits = match &cur {
            Some(g) => {
                !eager
                    && g.extent == extent
                    && cur_nodes + est <= MAX_NODES
                    && !blocks_fusion(&expr, &g.stmts, &cur_stores)
            }
            None => false,
        };
        if fits {
            cur.as_mut().expect("group exists").reduce = Some((expr, kind));
        } else {
            close(&mut cur, &mut cur_stores, &mut cur_nodes);
            cur = Some(Group {
                extent,
                stmts: Vec::new(),
                reduce: Some((expr, kind)),
            });
        }
    }
    close(&mut cur, &mut cur_stores, &mut cur_nodes);
    groups
}

/// Per-group compilation state.
struct GroupCompiler<'p> {
    stmts: &'p [Stmt],
    in_group: &'p [usize],
    /// `Rc` identity → compiled node (CSE).
    memo: HashMap<*const ENode, u16>,
    /// Statement index → its value node, for forward resolution.
    stmt_values: HashMap<usize, u16>,
    nodes: Vec<CNode>,
    loads: usize,
    flops: usize,
    ctx_ids: Vec<u64>,
}

impl GroupCompiler<'_> {
    fn push(&mut self, node: CNode) -> u16 {
        assert!(
            self.nodes.len() < MAX_NODES,
            "fused group exceeded {MAX_NODES} nodes; planner budget violated"
        );
        self.nodes.push(node);
        (self.nodes.len() - 1) as u16
    }

    fn load(&mut self, l: &LoadRef) -> u16 {
        self.loads += 1;
        self.ctx_ids.push(l.ctx_id);
        self.push(CNode::Load(l.view.clone(), l.extent))
    }

    fn compile(&mut self, expr: &Expr) -> u16 {
        let ptr = Rc::as_ptr(&expr.node);
        if let Some(&id) = self.memo.get(&ptr) {
            return id;
        }
        let id = match &*expr.node {
            ENode::Load(l) => self.load(l),
            ENode::Scalar(v) => self.push(CNode::Scalar(*v)),
            ENode::Unary(op, a) => {
                let a = self.compile(a);
                self.flops += 1;
                self.push(CNode::Un(*op, a))
            }
            ENode::Binary(op, a, b) => {
                let a = self.compile(a);
                let b = self.compile(b);
                self.flops += 1;
                self.push(CNode::Bin(*op, a, b))
            }
            ENode::Forward { stmt, reload } => {
                if self.in_group.contains(stmt) {
                    // In-group forward: reuse the statement's value node.
                    // Statements compile in program order, so it exists.
                    *self
                        .stmt_values
                        .get(stmt)
                        .expect("forward target compiled before use")
                } else {
                    self.load(reload)
                }
            }
        };
        self.memo.insert(ptr, id);
        id
    }
}

/// Flattens one planned group into an executable [`Compiled`]. `eager`
/// groups (one statement each) keep an unflagged `expr` profile so their
/// spans stay on the plain kernel/reduction lanes.
pub(crate) fn compile(stmts: &[Stmt], group: &Group, eager: bool) -> Compiled {
    let mut c = GroupCompiler {
        stmts,
        in_group: &group.stmts,
        memo: HashMap::new(),
        stmt_values: HashMap::new(),
        nodes: Vec::new(),
        loads: 0,
        flops: 0,
        ctx_ids: Vec::new(),
    };
    let mut stores = Vec::new();
    for &si in &group.stmts {
        let stmt = &c.stmts[si];
        let value = c.compile(&stmt.expr);
        c.stmt_values.insert(si, value);
        c.ctx_ids.push(stmt.dst.ctx_id);
        stores.push((stmt.dst.view.clone(), stmt.dst.extent, value));
    }
    let reduce = group.reduce.as_ref().map(|(expr, kind)| {
        let root = c.compile(expr);
        // The reduction combine is one more FLOP per element, matching the
        // canonical eager DOT profile (multiply + add = 2).
        c.flops += 1;
        (root, *kind)
    });
    let profile = KernelProfile::new(
        if eager { "expr" } else { "fused" },
        c.flops as f64,
        (c.loads * 8) as f64,
        (stores.len() * 8) as f64,
    );
    let profile = if eager { profile } else { profile.as_fused() };
    Compiled {
        extent: group.extent,
        nodes: c.nodes,
        stores,
        reduce,
        profile,
        ctx_ids: c.ctx_ids,
    }
}
