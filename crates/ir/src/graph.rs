//! The program graph: a directed graph of VLIW instructions (§2).

use crate::ids::{ArrayId, NodeId, OpId, RegId};
use crate::op::Operation;
#[cfg(test)]
use crate::op::{OpKind, Operand};
use crate::tree::{Tree, TreePath};
use std::collections::HashMap;
use std::fmt;

/// Metadata for one memory array.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    /// Debug name, e.g. `"x"`.
    pub name: Box<str>,
    /// Number of elements the simulator allocates.
    pub len: usize,
    /// Element type (see [`crate::ElemKind`] on speculative loads).
    pub elem: crate::value::ElemKind,
}

/// The single innermost loop a kernel builder produced, consumed by the
/// Perfect Pipelining unwinder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// First node of the loop body (target of the back edge).
    pub head: NodeId,
    /// Node containing the loop-control conditional jump (source of the back
    /// edge).
    pub latch: NodeId,
    /// The node preceding the loop (its successor is `head`).
    pub preheader: NodeId,
    /// First node after the loop (the latch's exit successor).
    pub exit: NodeId,
}

/// One VLIW instruction: a tree of conditional jumps with operations
/// attached to tree positions.
#[derive(Clone, Debug)]
pub struct Instruction {
    /// The branch tree (a plain `Leaf` for branch-free instructions).
    pub tree: Tree,
}

/// Cached per-node derived data, rebuilt whenever the node's tree is
/// edited. Because all structural mutation goes through [`Graph`]
/// methods, the cache can never go stale; it turns the scheduler's
/// hottest queries (`node_ops`, `successors`, `node_op_count`) from
/// allocating tree walks into slice reads.
#[derive(Clone, Debug)]
struct NodeCache {
    /// `(position, op)` pairs in pre-order (cjs at their branch position).
    ops: Vec<(TreePath, OpId)>,
    /// Leaf positions with their successors, in pre-order.
    leaves: Vec<(TreePath, Option<NodeId>)>,
    /// Successors with duplicates (leaf order).
    succs: Vec<NodeId>,
    /// Sorted, deduplicated successors.
    uniq: Vec<NodeId>,
    /// Ordinary (non-cj) op count.
    op_count: usize,
    /// Conditional-jump count.
    cj_count: usize,
    /// [`Graph::version`] at the last content change of this node (tree
    /// edit or operand rewrite of a placed op) — per-node dirty bit for
    /// incremental analyses.
    stamp: u64,
}

impl NodeCache {
    fn build(tree: &Tree, stamp: u64) -> NodeCache {
        let ops = tree.placed_ops();
        let leaves = tree.leaves();
        let succs: Vec<NodeId> = leaves.iter().filter_map(|&(_, s)| s).collect();
        let mut uniq = succs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let op_count = tree.op_count();
        let cj_count = tree.cj_count();
        NodeCache { ops, leaves, succs, uniq, op_count, cj_count, stamp }
    }
}

/// A whole program: instruction nodes, an operation arena, register and
/// array books, and the designated entry node.
///
/// All structural mutation goes through `Graph` methods so the op→node
/// placement map stays consistent; transformation code never edits trees
/// behind the graph's back.
#[derive(Clone, Debug)]
pub struct Graph {
    ops: Vec<Operation>,
    nodes: Vec<Option<Instruction>>,
    caches: Vec<Option<NodeCache>>,
    version: u64,
    edge_version: u64,
    placed: Vec<Option<NodeId>>,
    /// Entry instruction.
    pub entry: NodeId,
    next_reg: u32,
    reg_names: Vec<Option<Box<str>>>,
    arrays: Vec<ArrayInfo>,
    /// Registers observable after the program exits (the equivalence checker
    /// compares these plus all memory).
    pub live_out: Vec<RegId>,
    /// The innermost loop, when the program was built as a loop kernel.
    pub loop_info: Option<LoopInfo>,
}

/// Structural consistency failure reported by [`Graph::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateError(pub String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid graph: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty graph with a single empty entry node.
    pub fn new() -> Self {
        let mut g = Graph {
            ops: Vec::new(),
            nodes: Vec::new(),
            caches: Vec::new(),
            version: 0,
            edge_version: 0,
            placed: Vec::new(),
            entry: NodeId::new(0),
            next_reg: 0,
            reg_names: Vec::new(),
            arrays: Vec::new(),
            live_out: Vec::new(),
            loop_info: None,
        };
        g.entry = g.add_node(Tree::leaf(None));
        g
    }

    // ------------------------------------------------------------------
    // Registers and arrays
    // ------------------------------------------------------------------

    /// Monotonic mutation stamp: bumped on *every* change (ops, trees,
    /// edges, registers). Analyses cache against it.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Monotonic control-flow stamp: bumped only when an edge of the
    /// graph changes (split, branch removal, node deletion, redirect).
    /// Reachability-shaped caches key on this — plain op hops between
    /// existing nodes leave it untouched.
    #[inline]
    pub fn edge_version(&self) -> u64 {
        self.edge_version
    }

    /// [`Graph::version`] at the last content change of node `n` (tree
    /// edit, or operand rewrite of an op placed in it).
    #[inline]
    pub fn node_stamp(&self, n: NodeId) -> u64 {
        self.caches[n.index()].as_ref().expect("node deleted").stamp
    }

    /// Rebuild the derived-data cache of `n` after a tree edit.
    fn refresh_cache(&mut self, n: NodeId) {
        self.version += 1;
        self.caches[n.index()] =
            self.nodes[n.index()].as_ref().map(|i| NodeCache::build(&i.tree, self.version));
    }

    /// Exclusive upper bound on node indices ever allocated (deleted slots
    /// included) — the capacity for dense node-indexed side tables.
    #[inline]
    pub fn node_index_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Allocate a fresh virtual register.
    pub fn fresh_reg(&mut self) -> RegId {
        self.version += 1;
        let r = RegId(self.next_reg);
        self.next_reg += 1;
        self.reg_names.push(None);
        r
    }

    /// Allocate a fresh named register (for readable dumps).
    pub fn named_reg(&mut self, name: &str) -> RegId {
        let r = self.fresh_reg();
        self.reg_names[r.index()] = Some(name.into());
        r
    }

    /// Number of registers allocated so far.
    pub fn reg_count(&self) -> usize {
        self.next_reg as usize
    }

    /// Debug name of a register, if one was given.
    pub fn reg_name(&self, r: RegId) -> Option<&str> {
        self.reg_names.get(r.index()).and_then(|n| n.as_deref())
    }

    /// Declare an `f64` memory array of `len` elements.
    pub fn array(&mut self, name: &str, len: usize) -> ArrayId {
        self.array_typed(name, len, crate::value::ElemKind::F)
    }

    /// Declare a memory array with an explicit element type.
    pub fn array_typed(&mut self, name: &str, len: usize, elem: crate::value::ElemKind) -> ArrayId {
        self.arrays.push(ArrayInfo { name: name.into(), len, elem });
        ArrayId::new(self.arrays.len() - 1)
    }

    /// All declared arrays.
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Intern a new operation (not yet placed in any node). Its `orig`
    /// ancestor is itself.
    pub fn add_op(&mut self, mut op: Operation) -> OpId {
        self.version += 1;
        let id = OpId::new(self.ops.len());
        op.orig = id;
        self.ops.push(op);
        self.placed.push(None);
        id
    }

    /// Intern a duplicate of `op` (same `orig` ancestor), unplaced.
    pub fn dup_op(&mut self, op: OpId) -> OpId {
        self.version += 1;
        let cloned = self.ops[op.index()].clone();
        let id = OpId::new(self.ops.len());
        self.ops.push(cloned);
        self.placed.push(None);
        id
    }

    /// The operation behind an id.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Mutable access to an operation. Callers must not change its identity
    /// assumptions (kind/iter/orig) while it is placed; operand rewrites
    /// (copy bypassing, renaming) are fine.
    #[inline]
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        self.version += 1;
        // An operand rewrite changes the holding node's read set; stamp it
        // so per-node analysis caches (liveness use/def) see the change.
        if let Some(n) = self.placed[id.index()] {
            if let Some(c) = self.caches[n.index()].as_mut() {
                c.stamp = self.version;
            }
        }
        &mut self.ops[id.index()]
    }

    /// Number of interned operations (including unplaced/dead ones).
    pub fn op_table_len(&self) -> usize {
        self.ops.len()
    }

    /// Node currently holding `op`, if it is placed.
    #[inline]
    pub fn placement(&self, op: OpId) -> Option<NodeId> {
        self.placed[op.index()]
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Add an instruction node built from `tree`. All ops referenced by the
    /// tree are marked as placed here.
    pub fn add_node(&mut self, tree: Tree) -> NodeId {
        self.version += 1;
        self.edge_version += 1;
        let id = NodeId::new(self.nodes.len());
        for (_, op) in tree.placed_ops() {
            debug_assert!(self.placed[op.index()].is_none(), "{op} already placed");
            self.placed[op.index()] = Some(id);
        }
        self.caches.push(Some(NodeCache::build(&tree, self.version)));
        self.nodes.push(Some(Instruction { tree }));
        id
    }

    /// The instruction at `id`. Panics on deleted nodes.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Instruction {
        self.nodes[id.index()].as_ref().expect("node deleted")
    }

    /// True if the node still exists.
    #[inline]
    pub fn node_exists(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.is_some())
    }

    /// Ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| n.as_ref().map(|_| NodeId::new(i)))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    #[inline]
    fn cache(&self, n: NodeId) -> &NodeCache {
        self.caches[n.index()].as_ref().expect("node deleted")
    }

    /// Successor instructions of `n` (duplicates preserved).
    #[inline]
    pub fn successors(&self, n: NodeId) -> &[NodeId] {
        &self.cache(n).succs
    }

    /// Unique successor instructions of `n` (sorted).
    #[inline]
    pub fn unique_successors(&self, n: NodeId) -> &[NodeId] {
        &self.cache(n).uniq
    }

    /// Leaf positions of `n` with their successors, in pre-order.
    #[inline]
    pub fn node_leaves(&self, n: NodeId) -> &[(TreePath, Option<NodeId>)] {
        &self.cache(n).leaves
    }

    /// Predecessor map for the whole graph (recomputed on demand; graphs in
    /// this system are hundreds of nodes, and scheduling recomputes only at
    /// well-defined points).
    pub fn predecessors(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut preds: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for n in self.node_ids() {
            for &s in self.unique_successors(n) {
                preds.entry(s).or_default().push(n);
            }
        }
        preds
    }

    // ------------------------------------------------------------------
    // Structural edits (keep `placed` consistent)
    // ------------------------------------------------------------------

    /// Remove `op` from node `n` (it becomes unplaced). Returns its old
    /// tree position.
    pub fn remove_op_from(&mut self, n: NodeId, op: OpId) -> TreePath {
        let instr = self.nodes[n.index()].as_mut().expect("node deleted");
        let pos = instr.tree.remove_op(op).expect("op not in node");
        self.placed[op.index()] = None;
        self.refresh_cache(n);
        pos
    }

    /// Attach the unplaced `op` to node `n` at tree position `path`.
    pub fn insert_op_at(&mut self, n: NodeId, path: TreePath, op: OpId) {
        debug_assert!(self.placed[op.index()].is_none(), "{op} already placed");
        let instr = self.nodes[n.index()].as_mut().expect("node deleted");
        instr.tree.insert_op(path, op);
        self.placed[op.index()] = Some(n);
        self.refresh_cache(n);
    }

    /// Split the leaf of `n` at `path` into a branch on the unplaced cj
    /// `cj`, with fresh leaves to `t_succ` / `f_succ`.
    pub fn split_leaf(
        &mut self,
        n: NodeId,
        path: TreePath,
        cj: OpId,
        t_succ: Option<NodeId>,
        f_succ: Option<NodeId>,
    ) {
        debug_assert!(self.placed[cj.index()].is_none(), "{cj} already placed");
        let instr = self.nodes[n.index()].as_mut().expect("node deleted");
        instr.tree.split_leaf(path, cj, t_succ, f_succ);
        self.placed[cj.index()] = Some(n);
        self.edge_version += 1;
        self.refresh_cache(n);
    }

    /// Remove the root-or-interior branch of `n` at `path`, keeping one
    /// side. The removed cj becomes unplaced.
    pub fn remove_branch(&mut self, n: NodeId, path: TreePath, keep_true: bool) -> OpId {
        let instr = self.nodes[n.index()].as_mut().expect("node deleted");
        let cj = instr.tree.remove_branch(path, keep_true);
        self.placed[cj.index()] = None;
        // Ops from the discarded side are gone from the tree; unplace them.
        self.resync_node_placements(n);
        self.edge_version += 1;
        self.refresh_cache(n);
        cj
    }

    /// Recompute placements for a node whose tree was restructured: ops in
    /// the tree are placed here, previously-placed ops that vanished become
    /// unplaced. (Quadratic in node size; node sizes are machine widths.)
    fn resync_node_placements(&mut self, n: NodeId) {
        let in_tree: Vec<OpId> = self.nodes[n.index()]
            .as_ref()
            .expect("node deleted")
            .tree
            .placed_ops()
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        for (i, p) in self.placed.iter_mut().enumerate() {
            if *p == Some(n) && !in_tree.contains(&OpId::new(i)) {
                *p = None;
            }
        }
        for o in in_tree {
            self.placed[o.index()] = Some(n);
        }
    }

    /// Deep-copy node `n`: every op is duplicated via [`Graph::dup_op`]
    /// (preserving `orig` ancestry) and a new node is created with the same
    /// tree shape and successors. Used for node splitting when a moved-from
    /// node has other predecessors.
    pub fn clone_node(&mut self, n: NodeId) -> NodeId {
        fn clone_tree(g: &mut Graph, t: &Tree) -> Tree {
            match t {
                Tree::Leaf { ops, succ } => {
                    Tree::Leaf { ops: ops.iter().map(|&o| g.dup_op(o)).collect(), succ: *succ }
                }
                Tree::Branch { ops, cj, on_true, on_false } => {
                    let ops = ops.iter().map(|&o| g.dup_op(o)).collect();
                    let cj = g.dup_op(*cj);
                    let on_true = Box::new(clone_tree(g, on_true));
                    let on_false = Box::new(clone_tree(g, on_false));
                    Tree::Branch { ops, cj, on_true, on_false }
                }
            }
        }
        let tree = self.nodes[n.index()].as_ref().expect("node deleted").tree.clone();
        let tree = clone_tree(self, &tree);
        self.add_node(tree)
    }

    /// Delete an *empty* pass-through node, rewiring every predecessor edge
    /// to its unique successor. `preds` must list every node with an edge
    /// to `n` (as [`Graph::predecessors`] does, in ascending order); only
    /// those are visited, so the cost is the node's in-degree. Panics if
    /// the node still holds operations or jumps, or is the entry.
    pub fn delete_empty_node(&mut self, n: NodeId, preds: &[NodeId]) {
        assert_ne!(n, self.entry, "cannot delete the entry node");
        let instr = self.nodes[n.index()].as_ref().expect("node deleted");
        assert!(instr.tree.is_empty(), "delete_empty_node: {n} is not empty");
        let succ = match &instr.tree {
            Tree::Leaf { succ, .. } => *succ,
            Tree::Branch { .. } => unreachable!("empty implies leaf"),
        };
        assert_ne!(succ, Some(n), "cannot delete a self-looping node");
        for &p in preds {
            if let Some(instr) = self.nodes[p.index()].as_mut() {
                if instr.tree.redirect(n, succ) > 0 {
                    self.refresh_cache(p);
                }
            }
        }
        debug_assert!(
            self.node_ids().all(|m| m == n || !self.unique_successors(m).contains(&n)),
            "delete_empty_node: predecessor list of {n} is incomplete"
        );
        if self.loop_info.is_some_and(|li| li.head == n || li.latch == n || li.exit == n) {
            // Keep loop metadata meaningful: follow the deleted node.
            let li = self.loop_info.as_mut().expect("checked");
            if let Some(s) = succ {
                if li.head == n {
                    li.head = s;
                }
                if li.exit == n {
                    li.exit = s;
                }
            }
            if li.latch == n {
                // The latch lost its cj before becoming empty; leave as-is.
            }
        }
        self.nodes[n.index()] = None;
        self.caches[n.index()] = None;
        self.version += 1;
        self.edge_version += 1;
    }

    /// Set the successor of the leaf at `path` in node `n`.
    pub fn set_succ(&mut self, n: NodeId, path: TreePath, succ: Option<NodeId>) {
        let instr = self.nodes[n.index()].as_mut().expect("node deleted");
        match instr.tree.get_mut(path) {
            Some(Tree::Leaf { succ: s, .. }) => *s = succ,
            _ => panic!("set_succ: {n}@{path} is not a leaf"),
        }
        self.edge_version += 1;
        self.refresh_cache(n);
    }

    /// Replace every edge `X -> from` in the graph with `X -> to`.
    pub fn redirect_all(&mut self, from: NodeId, to: Option<NodeId>) -> usize {
        let mut n = 0;
        for i in 0..self.nodes.len() {
            if let Some(instr) = self.nodes[i].as_mut() {
                let hits = instr.tree.redirect(from, to);
                if hits > 0 {
                    self.refresh_cache(NodeId::new(i));
                }
                n += hits;
            }
        }
        self.edge_version += 1;
        n
    }

    // ------------------------------------------------------------------
    // Queries used by schedulers
    // ------------------------------------------------------------------

    /// Ordinary-operation count of node `n` (its functional-unit demand).
    #[inline]
    pub fn node_op_count(&self, n: NodeId) -> usize {
        self.cache(n).op_count
    }

    /// Conditional-jump count of node `n`.
    #[inline]
    pub fn node_cj_count(&self, n: NodeId) -> usize {
        self.cache(n).cj_count
    }

    /// All ops placed in `n` with their tree positions (cjs included),
    /// in pre-order.
    #[inline]
    pub fn node_ops(&self, n: NodeId) -> &[(TreePath, OpId)] {
        &self.cache(n).ops
    }

    /// Nodes reachable from `entry`, in a stable breadth-first order.
    pub fn reachable(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::new();
        seen[self.entry.index()] = true;
        queue.push_back(self.entry);
        while let Some(n) = queue.pop_front() {
            out.push(n);
            for &s in self.unique_successors(n) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check structural invariants; transformation tests call this after
    /// every edit.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |m: String| Err(ValidateError(m));
        if !self.node_exists(self.entry) {
            return err("entry node deleted".into());
        }
        let mut seen_ops: HashMap<OpId, NodeId> = HashMap::new();
        for n in self.node_ids() {
            let instr = self.node(n);
            for (_, op) in instr.tree.placed_ops() {
                if op.index() >= self.ops.len() {
                    return err(format!("{n} references unknown {op}"));
                }
                if let Some(prev) = seen_ops.insert(op, n) {
                    return err(format!("{op} placed in both {prev} and {n}"));
                }
                if self.placed[op.index()] != Some(n) {
                    return err(format!(
                        "{op} in {n} but placement map says {:?}",
                        self.placed[op.index()]
                    ));
                }
            }
            // cj fields must be CondJump ops; op arity/dest sanity.
            let mut bad: Option<String> = None;
            instr.tree.walk(&mut |p, t| {
                if bad.is_some() {
                    return;
                }
                if let Tree::Branch { cj, .. } = t {
                    if !self.op(*cj).kind.is_cj() {
                        bad = Some(format!("{n}@{p}: branch op {cj} is not a cjump"));
                    }
                }
                for &o in t.ops() {
                    let op = self.op(o);
                    if op.kind.is_cj() {
                        bad = Some(format!("{n}@{p}: cjump {o} attached as ordinary op"));
                    } else if op.src.len() != op.kind.arity() {
                        bad = Some(format!("{n}@{p}: {o} arity mismatch"));
                    } else if op.dest.is_some() != op.kind.has_dest() {
                        bad = Some(format!("{n}@{p}: {o} dest mismatch"));
                    }
                }
            });
            if let Some(m) = bad {
                return err(m);
            }
            // Successors exist.
            for s in instr.tree.successors() {
                if !self.node_exists(s) {
                    return err(format!("{n} has edge to deleted node {s}"));
                }
            }
            // No double register write along any single path.
            for (leaf, _) in instr.tree.leaves() {
                let mut written: Vec<RegId> = Vec::new();
                let mut dup: Option<String> = None;
                instr.tree.walk(&mut |p, t| {
                    if dup.is_some() || !p.is_prefix_of(leaf) {
                        return;
                    }
                    for &o in t.ops() {
                        if let Some(d) = self.op(o).dest {
                            if written.contains(&d) {
                                dup =
                                    Some(format!("{n}: register {d} written twice on path {leaf}"));
                            }
                            written.push(d);
                        }
                    }
                });
                if let Some(m) = dup {
                    return err(m);
                }
            }
        }
        // Placement map entries must point at nodes that really hold the op.
        for (i, p) in self.placed.iter().enumerate() {
            if let Some(n) = p {
                if !self.node_exists(*n) {
                    return err(format!("op{i} placed in deleted node {n}"));
                }
                if seen_ops.get(&OpId::new(i)) != Some(n) {
                    return err(format!("op{i} placement map stale ({n})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operation;
    use crate::value::Value;

    fn simple_op(g: &mut Graph, dest: RegId) -> OpId {
        g.add_op(Operation::new(OpKind::Copy, Some(dest), vec![Operand::Imm(Value::I(1))]))
    }

    #[test]
    fn build_chain_and_validate() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let op1 = simple_op(&mut g, r);
        let n1 = g.add_node(Tree::Leaf { ops: vec![op1], succ: None });
        // entry -> n1
        let entry = g.entry;
        g.set_succ(entry, TreePath::ROOT, Some(n1));
        g.validate().unwrap();
        assert_eq!(g.successors(entry), [n1]);
        assert_eq!(g.placement(op1), Some(n1));
        assert_eq!(g.reachable(), vec![entry, n1]);
    }

    #[test]
    fn move_between_nodes_keeps_placement() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let op1 = simple_op(&mut g, r);
        let n2 = g.add_node(Tree::leaf(None));
        let n1 = g.add_node(Tree::Leaf { ops: vec![op1], succ: Some(n2) });
        g.set_succ(g.entry, TreePath::ROOT, Some(n1));
        g.validate().unwrap();
        let pos = g.remove_op_from(n1, op1);
        assert_eq!(pos, TreePath::ROOT);
        assert_eq!(g.placement(op1), None);
        g.insert_op_at(n2, TreePath::ROOT, op1);
        assert_eq!(g.placement(op1), Some(n2));
        g.validate().unwrap();
    }

    #[test]
    fn clone_node_duplicates_ops_with_ancestry() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let op1 = simple_op(&mut g, r);
        let n1 = g.add_node(Tree::Leaf { ops: vec![op1], succ: None });
        let n2 = g.clone_node(n1);
        g.validate().unwrap();
        let ops2 = g.node_ops(n2);
        assert_eq!(ops2.len(), 1);
        let dup = ops2[0].1;
        assert_ne!(dup, op1);
        assert_eq!(g.op(dup).orig, op1);
        assert_eq!(g.op(dup).dest, Some(r));
    }

    #[test]
    fn delete_empty_node_rewires() {
        let mut g = Graph::new();
        let n3 = g.add_node(Tree::leaf(None));
        let n2 = g.add_node(Tree::leaf(Some(n3)));
        g.set_succ(g.entry, TreePath::ROOT, Some(n2));
        g.delete_empty_node(n2, &[g.entry]);
        g.validate().unwrap();
        assert_eq!(g.successors(g.entry), [n3]);
        assert!(!g.node_exists(n2));
    }

    #[test]
    fn validate_rejects_double_placement() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let op1 = simple_op(&mut g, r);
        let _n1 = g.add_node(Tree::Leaf { ops: vec![op1], succ: None });
        // Manually corrupt: same op in another node.
        let bad = Instruction { tree: Tree::Leaf { ops: vec![op1], succ: None } };
        g.caches.push(Some(NodeCache::build(&bad.tree, 0)));
        g.nodes.push(Some(bad));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_double_write_on_path() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let a = simple_op(&mut g, r);
        let b = simple_op(&mut g, r);
        let _n = g.add_node(Tree::Leaf { ops: vec![a, b], succ: None });
        let e = g.validate().unwrap_err();
        assert!(e.0.contains("written twice"), "{e}");
    }

    #[test]
    fn predecessors_and_counts() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let c = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(r)]));
        let n2 = g.add_node(Tree::leaf(None));
        let n3 = g.add_node(Tree::leaf(None));
        let n1 = g.add_node(Tree::Branch {
            ops: vec![],
            cj: c,
            on_true: Box::new(Tree::leaf(Some(n2))),
            on_false: Box::new(Tree::leaf(Some(n3))),
        });
        g.set_succ(g.entry, TreePath::ROOT, Some(n1));
        let preds = g.predecessors();
        assert_eq!(preds[&n2], vec![n1]);
        assert_eq!(preds[&n1], vec![g.entry]);
        assert_eq!(g.node_cj_count(n1), 1);
        assert_eq!(g.node_op_count(n1), 0);
    }
}
