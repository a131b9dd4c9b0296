//! Hazard resolution: make every emitted schedule provably stall-free.
//!
//! The simulator's scoreboard (the VM's `run_model`) stalls an
//! instruction until every register it reads has retired from its
//! producer's pipeline: a producer of latency `L` issued at cycle `t`
//! makes its destination readable at cycle `t + L`, so a consumer must
//! sit at least `L` issued instructions downstream on every execution
//! path. GRiP's in-flight `latency_blocked` guard enforces this only for
//! the op being moved, only upward, and only inside the region — hazards
//! inherited from the sequential program, hazards around the loop back
//! edge, and hazards on the exit fix-up chains all survive scheduling and
//! were previously absorbed (and billed) as interlock stalls.
//!
//! This module closes the gap with a post-pass over the *whole* reachable
//! graph:
//!
//! 1. a countdown dataflow (internal `analyze`): for every node, the
//!    per-register number of delay cycles still outstanding at its entry,
//!    computed to a fixpoint with max-merge at joins (so loop back edges
//!    are covered) and per-leaf-path gen/kill inside instruction trees
//!    (a unit-latency redefinition shadows an older in-flight producer,
//!    exactly as the scoreboard's `ready` table does);
//! 2. **padding**: empty delay rows are spliced into precisely the edges
//!    whose source still carries a positive countdown for a register the
//!    target reads, until no hazard remains;
//! 3. **backfill**: ready operations from rows below are pulled up into
//!    open slots (legality via [`grip_percolate::plan_move_op`], landing
//!    re-checked against the countdown state, renaming and speculative
//!    moves excluded), and rows that empty out are deleted — but only
//!    through the hazard-preserving [`delete_would_create_hazard`] check,
//!    because removing a row between a multi-cycle producer and its
//!    consumer shrinks their issue distance by one and can re-introduce a
//!    hazard the schedule already paid for (the re-shrink bug).
//!
//! The invariant after [`resolve_hazards`] (and the roll-side
//! [`pad_hazards`]) is hard: [`scan_hazards`] returns zero, and a
//! `run_model` simulation of the graph charges zero
//! `stall_cycles`. On a unit-latency machine every entry point returns
//! immediately and the schedule is untouched, so the paper's flat model
//! pays nothing.
//!
//! ## Row reclamation
//!
//! Reclaiming a row is incremental; no step of it rebuilds a
//! whole-graph structure:
//!
//! - The predecessor map `ctx.preds` is exact at every deletion.
//!   [`grip_percolate::try_delete_empty_if`] rewires only the row's
//!   predecessors and patches the map in place.
//! - [`delete_would_create_hazard`] is a breadth-first scan over dense,
//!   reused buffers. It visits each node once, at its minimum distance.
//!   The old walk visited a node again at every path length in range, and
//!   this gives the same verdict: the residual `L - a` of a producer `a`
//!   rows up only falls as `a` grows, and the trigger `L - a >= b` for a
//!   consumer `b` rows down only gets harder as `b` grows. So the
//!   shortest distance decides every case.
//! - `backfill` caches each "blocked" verdict with the graph version it
//!   was reached at and its witness. The witness is the row, the path up
//!   to the producer, and the path down to the consumer that blocked it.
//!   A later pass reuses the verdict while no witness node has a newer
//!   [`Graph::node_stamp`] or has been deleted. A deletion restamps every
//!   predecessor it rewires, so this also covers rewiring. While the
//!   witness stands, the producer is at most as far above the row and the
//!   consumer at most as far below. Any other edit can only add producers
//!   or shorten paths, and a "blocked" verdict survives both. In debug
//!   builds every cached skip is re-checked against a fresh scan.
//!
//! Every verdict, and so every schedule, is the same as a full re-check
//! against a freshly rebuilt predecessor map would give.

use grip_ir::{Graph, NodeId, OpId, RegId, Tree, TreePath};
use grip_machine::MachineDesc;
use grip_percolate::{apply_move_op, plan_move_op, try_delete_empty_if, Ctx};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-register outstanding delay cycles at a program point.
type Countdowns = HashMap<RegId, u32>;

/// Counters describing one hazard-resolution run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HazardStats {
    /// Hazardous (producer-too-close) edges found across all rounds.
    pub hazards: u64,
    /// Empty delay rows inserted to restore producer distances.
    pub delay_rows: u64,
    /// Ready operations pulled up from below into open slots.
    pub backfilled: u64,
    /// Subset of `backfilled` that climbed more than one row (multi-hop
    /// moves past resource barriers, see [`resolve_hazards`]).
    pub multihop: u64,
    /// Rows emptied by backfill and deleted (cycles reclaimed).
    pub reclaimed_rows: u64,
    /// Reclamation attempts that ran [`delete_would_create_hazard`].
    pub deletion_checks: u64,
    /// Reclamation attempts answered by a cached "blocked" verdict.
    pub deletion_checks_cached: u64,
}

// ----------------------------------------------------------------------
// Countdown dataflow
// ----------------------------------------------------------------------

/// Predecessor map restricted to reachable nodes.
fn reachable_preds(g: &Graph, nodes: &[NodeId]) -> HashMap<NodeId, Vec<NodeId>> {
    let mut preds: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &n in nodes {
        for &s in g.unique_successors(n) {
            preds.entry(s).or_default().push(n);
        }
    }
    preds
}

/// Max-merge of the out-states of `preds`.
fn merged_input(outs: &HashMap<NodeId, Countdowns>, preds: &[NodeId]) -> Countdowns {
    let mut input = Countdowns::new();
    for p in preds {
        if let Some(out) = outs.get(p) {
            for (&r, &c) in out {
                input.entry(r).and_modify(|v| *v = (*v).max(c)).or_insert(c);
            }
        }
    }
    input
}

/// Transfer `input` through instruction `n`: one issue cycle elapses
/// (every countdown drops by one) and each path's writes install their
/// own countdowns, killing older in-flight producers of the same
/// register on that path. Paths are merged by max, which over-approximates
/// every selectable execution.
fn transfer(g: &Graph, desc: &MachineDesc, n: NodeId, input: &Countdowns) -> Countdowns {
    let decremented: Countdowns =
        input.iter().filter_map(|(&r, &c)| (c > 1).then_some((r, c - 1))).collect();
    let tree = &g.node(n).tree;
    let mut out = Countdowns::new();
    for (leaf, _) in tree.leaves() {
        let mut path_out = decremented.clone();
        tree.walk(&mut |p, t| {
            if !p.is_prefix_of(leaf) {
                return;
            }
            for &o in t.ops() {
                let op = g.op(o);
                if let Some(d) = op.dest {
                    let l = desc.latency_of(op.kind);
                    if l > 1 {
                        path_out.insert(d, l - 1);
                    } else {
                        path_out.remove(&d);
                    }
                }
            }
        });
        for (r, c) in path_out {
            out.entry(r).and_modify(|v| *v = (*v).max(c)).or_insert(c);
        }
    }
    out
}

/// Worklist fixpoint of the countdown dataflow over `nodes` (the
/// reachable set) with its predecessor map; returns each node's
/// *out*-state. Countdowns are bounded by `max_latency - 1` and the
/// transfer is monotone, so the iteration terminates.
fn analyze(
    g: &Graph,
    desc: &MachineDesc,
    nodes: &[NodeId],
    preds: &HashMap<NodeId, Vec<NodeId>>,
) -> HashMap<NodeId, Countdowns> {
    let mut outs: HashMap<NodeId, Countdowns> = HashMap::new();
    let mut queue: VecDeque<NodeId> = nodes.iter().copied().collect();
    let mut queued: HashSet<NodeId> = nodes.iter().copied().collect();
    while let Some(n) = queue.pop_front() {
        queued.remove(&n);
        let input = merged_input(&outs, preds.get(&n).map(Vec::as_slice).unwrap_or(&[]));
        let out = transfer(g, desc, n, &input);
        if outs.get(&n) != Some(&out) {
            outs.insert(n, out);
            for &s in g.unique_successors(n) {
                if queued.insert(s) {
                    queue.push_back(s);
                }
            }
        }
    }
    outs
}

/// Registers fetched by any operation of `n` (conditional-jump sources
/// included — the scoreboard waits on them too).
fn node_reads(g: &Graph, n: NodeId) -> HashSet<RegId> {
    let mut reads = HashSet::new();
    for &(_, op) in g.node_ops(n) {
        reads.extend(g.op(op).reads());
    }
    reads
}

/// Edges whose target still reads a register before its producer retires:
/// `(pred, node, delay rows needed)`.
fn hazard_edges(g: &Graph, desc: &MachineDesc) -> Vec<(NodeId, NodeId, u32)> {
    let nodes = g.reachable();
    let preds = reachable_preds(g, &nodes);
    let outs = analyze(g, desc, &nodes, &preds);
    let mut edges = Vec::new();
    for &n in &nodes {
        let reads = node_reads(g, n);
        if reads.is_empty() {
            continue;
        }
        for &p in preds.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            let Some(out) = outs.get(&p) else { continue };
            let k = reads.iter().filter_map(|r| out.get(r)).copied().max().unwrap_or(0);
            if k > 0 {
                edges.push((p, n, k));
            }
        }
    }
    edges
}

/// Number of hazardous reads left in the graph — the stall-freedom
/// invariant is `scan_hazards(g, desc) == 0`, which implies a model run
/// charges zero interlock stalls.
pub fn scan_hazards(g: &Graph, desc: &MachineDesc) -> usize {
    if desc.max_latency() <= 1 {
        return 0;
    }
    hazard_edges(g, desc).len()
}

// ----------------------------------------------------------------------
// Padding
// ----------------------------------------------------------------------

/// Splice `k` empty delay rows into the edge `p -> n`, keeping `region`'s
/// schedule order consistent when either endpoint belongs to it. Returns
/// the rows in execution order (topmost first).
fn insert_delays(
    g: &mut Graph,
    region: Option<&mut Vec<NodeId>>,
    p: NodeId,
    n: NodeId,
    k: u32,
) -> Vec<NodeId> {
    let mut target = n;
    let mut chain = Vec::with_capacity(k as usize);
    for _ in 0..k {
        let d = g.add_node(Tree::leaf(Some(target)));
        chain.push(d);
        target = d;
    }
    chain.reverse(); // execution order: target (topmost) .. last-before-n
    let paths = g.node(p).tree.leaf_paths_to(n);
    for lp in paths {
        g.set_succ(p, lp, Some(target));
    }
    if let Some(region) = region {
        let pos: HashMap<NodeId, usize> = region.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let at = match (pos.get(&p), pos.get(&n)) {
            // Forward region edge: the rows run just above n.
            (Some(&ip), Some(&ni)) if ip < ni => Some(ni),
            // Back edge (or n outside the region): after the source row.
            (Some(&ip), _) => Some(ip + 1),
            (None, Some(&ni)) => Some(ni),
            (None, None) => None,
        };
        if let Some(at) = at {
            for (i, &d) in chain.iter().enumerate() {
                region.insert((at + i).min(region.len()), d);
            }
        }
    }
    chain
}

/// Pad every hazardous edge with delay rows until the countdown analysis
/// finds nothing left. One round suffices in the acyclic case; back edges
/// may need another look, so the loop re-analyzes (bounded — padding only
/// ever grows distances).
fn pad_to_fixpoint(
    g: &mut Graph,
    mut region: Option<&mut Vec<NodeId>>,
    desc: &MachineDesc,
    stats: &mut HazardStats,
) {
    let rounds = 2 * desc.max_latency().max(2);
    for _ in 0..rounds {
        let edges = hazard_edges(g, desc);
        if edges.is_empty() {
            return;
        }
        for (p, n, k) in edges {
            stats.hazards += 1;
            stats.delay_rows += u64::from(k);
            insert_delays(g, region.as_deref_mut(), p, n, k);
        }
    }
    debug_assert!(
        hazard_edges(g, desc).is_empty(),
        "hazard padding failed to converge on {}",
        desc.name
    );
}

/// Make the whole reachable graph stall-free by padding alone (no region
/// bookkeeping, no backfill). Used after loop re-rolling, whose rotation
/// rows and shortened back edge change every cross-back-edge distance.
pub fn pad_hazards(g: &mut Graph, desc: &MachineDesc) -> HazardStats {
    let mut stats = HazardStats::default();
    if desc.max_latency() <= 1 {
        return stats;
    }
    let _span = grip_obs::span!("hazards");
    pad_to_fixpoint(g, None, desc, &mut stats);
    record_hazard_counters(&stats);
    stats
}

// ----------------------------------------------------------------------
// Hazard-preserving row deletion
// ----------------------------------------------------------------------

/// Reusable buffers of the deletion check: epoch-stamped visited marks
/// (dense by node index), a dense per-register residual table reset
/// through its touched list, and the two breadth-first queues. Queue
/// entries carry the index of the entry that discovered them (`ROOT` for
/// n's direct neighbours), and each hot register remembers the `up` entry
/// that set its residual, so a "blocked" verdict can name its witness.
#[derive(Default)]
struct DeletionScratch {
    epoch: u64,
    seen: Vec<u64>,
    hot: Vec<u32>,
    hot_src: Vec<u32>,
    touched: Vec<RegId>,
    up: Vec<(NodeId, u32)>,
    down: Vec<(NodeId, u32)>,
    /// `down` entry of the read that blocked the last check, and the
    /// register it read.
    hit: Option<(u32, RegId)>,
}

/// Discoverer index of a queue entry adjacent to the checked row.
const ROOT: u32 = u32::MAX;

thread_local! {
    static SCRATCH: RefCell<DeletionScratch> = RefCell::new(DeletionScratch::default());
}

impl DeletionScratch {
    /// Mark `m` visited in the current sweep; false if it already was.
    fn mark(&mut self, m: NodeId) -> bool {
        let slot = &mut self.seen[m.index()];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// [`delete_would_create_hazard`] on a multi-cycle machine, without
    /// allocating once the buffers have grown to the graph.
    fn check(
        &mut self,
        g: &Graph,
        preds: &HashMap<NodeId, Vec<NodeId>>,
        desc: &MachineDesc,
        n: NodeId,
    ) -> bool {
        for r in self.touched.drain(..) {
            self.hot[r.index()] = 0;
        }
        self.up.clear();
        self.down.clear();
        self.hit = None;
        if self.seen.len() < g.node_index_bound() {
            self.seen.resize(g.node_index_bound(), 0);
        }
        if self.hot.len() < g.reg_count() {
            self.hot.resize(g.reg_count(), 0);
            self.hot_src.resize(g.reg_count(), ROOT);
        }
        let lmax = desc.max_latency();
        let no_preds: &[NodeId] = &[];
        // Upward sweep, level by level: `a` is each node's minimum distance
        // above n, and its producers leave the residual countdown `L - a`.
        self.epoch += 1;
        for &p in preds.get(&n).map_or(no_preds, Vec::as_slice) {
            if self.mark(p) {
                self.up.push((p, ROOT));
            }
        }
        let mut cmax = 0;
        let (mut lo, mut a) = (0, 1);
        while lo < self.up.len() && a < lmax {
            let hi = self.up.len();
            for i in lo..hi {
                let m = self.up[i].0;
                if !g.node_exists(m) {
                    continue;
                }
                for &(_, o) in g.node_ops(m) {
                    let op = g.op(o);
                    if let Some(d) = op.dest {
                        let l = desc.latency_of(op.kind);
                        let h = self.hot[d.index()];
                        if l > a && l - a > h {
                            if h == 0 {
                                self.touched.push(d);
                            }
                            self.hot[d.index()] = l - a;
                            self.hot_src[d.index()] = i as u32;
                            cmax = cmax.max(l - a);
                        }
                    }
                }
                if a + 1 < lmax {
                    for &q in preds.get(&m).map_or(no_preds, Vec::as_slice) {
                        if self.mark(q) {
                            self.up.push((q, i as u32));
                        }
                    }
                }
            }
            (lo, a) = (hi, a + 1);
        }
        if cmax == 0 {
            return false;
        }
        // Downward sweep: a read of a hot register within its residual
        // countdown would land too close once n stops issuing.
        self.epoch += 1;
        for &s in g.unique_successors(n) {
            if self.mark(s) {
                self.down.push((s, ROOT));
            }
        }
        let (mut lo, mut b) = (0, 1);
        while lo < self.down.len() && b <= cmax {
            let hi = self.down.len();
            for i in lo..hi {
                let m = self.down[i].0;
                if !g.node_exists(m) {
                    continue;
                }
                for &(_, o) in g.node_ops(m) {
                    if let Some(r) = g.op(o).reads().find(|r| self.hot[r.index()] >= b) {
                        self.hit = Some((i as u32, r));
                        return true;
                    }
                }
                if b < cmax {
                    for &s in g.unique_successors(m) {
                        if self.mark(s) {
                            self.down.push((s, i as u32));
                        }
                    }
                }
            }
            (lo, b) = (hi, b + 1);
        }
        false
    }

    /// The witness of the last check's "blocked" verdict, into `out`: the
    /// row itself, the path up to the producer whose residual the blocking
    /// read hit, and the path down to that read.
    fn witness(&self, n: NodeId, out: &mut Vec<NodeId>) {
        let Some((hit, r)) = self.hit else { return };
        out.push(n);
        for (queue, from) in [(&self.up, self.hot_src[r.index()]), (&self.down, hit)] {
            let mut i = from;
            while i != ROOT {
                let (m, parent) = queue[i as usize];
                out.push(m);
                i = parent;
            }
        }
    }
}

/// Would deleting the empty row `n` re-shrink a producer→consumer issue
/// distance below the producer's latency?
///
/// A producer `a` rows above `n` (any path) with latency `L` and a
/// consumer `b` rows below are `a + b` issue slots apart *through* `n`;
/// deletion makes that `a + b - 1`, which re-introduces a hazard exactly
/// when `b <= L - a`. Both sweeps are breadth-first and visit each node
/// once, at its minimum distance: the residual `L - a` only falls and the
/// trigger `L - a >= b` only gets harder as distances grow, so the minimum
/// decides the verdict for every longer path too. The scan is
/// conservative (it ignores same-register shadowing across paths), so it
/// can only refuse a deletion that was in fact safe — costing one empty
/// row, never a stall.
pub fn delete_would_create_hazard(
    g: &Graph,
    preds: &HashMap<NodeId, Vec<NodeId>>,
    desc: &MachineDesc,
    n: NodeId,
) -> bool {
    if desc.max_latency() <= 1 {
        return false;
    }
    SCRATCH.with(|s| s.borrow_mut().check(g, preds, desc, n))
}

/// A "blocked" deletion verdict, with the graph version it was reached at
/// and its witness: the row, the path up to the producer, and the path
/// down to the consumer that blocked it.
struct Blocked {
    at: u64,
    witness: Vec<NodeId>,
}

impl Blocked {
    /// The verdict still stands when no node of its witness was edited,
    /// rewired or deleted since (a deletion restamps every predecessor it
    /// rewires): the producer is still at most as far above the row, and
    /// the consumer at most as far below. Edits anywhere else can only add
    /// producers or shorten paths, and "blocked" is monotone in both.
    fn holds(&self, g: &Graph) -> bool {
        g.version() == self.at
            || self.witness.iter().all(|&m| g.node_exists(m) && g.node_stamp(m) <= self.at)
    }
}

/// Verdicts of the reclamation sweeps of one `backfill` run: the check
/// buffers plus the rows found blocked, which later passes skip until
/// their witness changes.
#[derive(Default)]
struct Reclaimer {
    scratch: DeletionScratch,
    blocked: HashMap<NodeId, Blocked>,
}

impl Reclaimer {
    /// [`delete_would_create_hazard`] for the empty row `m`, answered from
    /// the cache while a blocked verdict holds.
    fn blocked(
        &mut self,
        g: &Graph,
        preds: &HashMap<NodeId, Vec<NodeId>>,
        desc: &MachineDesc,
        m: NodeId,
        stats: &mut HazardStats,
    ) -> bool {
        if self.blocked.get(&m).is_some_and(|b| b.holds(g)) {
            stats.deletion_checks_cached += 1;
            debug_assert!(
                self.scratch.check(g, preds, desc, m),
                "cached blocked verdict for {m} went stale"
            );
            return true;
        }
        stats.deletion_checks += 1;
        if !self.scratch.check(g, preds, desc, m) {
            self.blocked.remove(&m);
            return false;
        }
        let entry = self.blocked.entry(m).or_insert_with(|| Blocked { at: 0, witness: Vec::new() });
        entry.at = g.version();
        entry.witness.clear();
        self.scratch.witness(m, &mut entry.witness);
        true
    }
}

// ----------------------------------------------------------------------
// Backfill
// ----------------------------------------------------------------------

/// Pull ready operations from each region row into open slots of the live
/// row directly above it, then hazard-safely delete rows that emptied out.
/// Only plain moves are taken (no renaming — a compensation copy would
/// read the moved op's fresh result at distance one — and no speculation),
/// every landing is re-checked against the countdown state at the target's
/// entry, and stale states stay conservative because upward producer
/// motion only ever grows producer→consumer distances.
fn backfill(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &mut Vec<NodeId>,
    stats: &mut HazardStats,
) {
    ctx.refresh(g);
    let mut reclaimer = Reclaimer::default();
    for _pass in 0..64 {
        let nodes = g.reachable();
        let preds = reachable_preds(g, &nodes);
        let outs = analyze(g, desc, &nodes, &preds);
        let mut changed = false;
        let live: Vec<NodeId> = region.iter().copied().filter(|&m| g.node_exists(m)).collect();
        for w in live.windows(2) {
            let (u, v) = (w[0], w[1]);
            if !g.node_exists(u) || !g.node_exists(v) {
                continue;
            }
            // Exactly one entry edge into v, and it must come from u —
            // otherwise the move would clone v (node splitting) or the
            // rows are not execution-adjacent.
            let vpreds = preds.get(&v).map(Vec::as_slice).unwrap_or(&[]);
            let entry_edges: usize =
                vpreds.iter().map(|&q| g.node(q).tree.leaf_paths_to(v).len()).sum();
            if entry_edges != 1 || !vpreds.contains(&u) {
                continue;
            }
            let Some(&path) = g.node(u).tree.leaf_paths_to(v).first() else { continue };
            let in_u = merged_input(&outs, preds.get(&u).map(Vec::as_slice).unwrap_or(&[]));
            let ops: Vec<OpId> = g
                .node_ops(v)
                .iter()
                .filter(|&&(_, o)| !g.op(o).kind.is_cj())
                .map(|&(_, o)| o)
                .collect();
            for op in ops {
                if !desc.has_room(g, u, op) {
                    continue;
                }
                let Ok(plan) = plan_move_op(g, ctx, v, u, op, path, None) else { continue };
                if plan.needs_rename || plan.speculative {
                    continue;
                }
                // Landing check on the *effective* sources (copy bypassing
                // may have rewritten them).
                let mut srcs = g.op(op).src.clone();
                for &(i, operand) in &plan.rewrites {
                    srcs[i] = operand;
                }
                if srcs
                    .iter()
                    .filter_map(|s| s.reg())
                    .any(|r| in_u.get(&r).copied().unwrap_or(0) > 0)
                {
                    continue;
                }
                let out = apply_move_op(g, ctx, v, u, op, path, &plan);
                debug_assert!(out.split.is_none(), "single-entry rows never split");
                stats.backfilled += 1;
                changed = true;
            }
        }
        // Reclaim rows the backfill emptied — through the hazard check, so
        // no reclaimed cycle re-shrinks a producer distance. Deletions keep
        // `ctx.preds` exact, so every check sees the current graph.
        let empties: Vec<NodeId> = region
            .iter()
            .skip(1)
            .copied()
            .filter(|&m| g.node_exists(m) && m != g.entry && g.node(m).tree.is_empty())
            .collect();
        let mut deleted_any = false;
        for m in empties {
            if try_delete_empty_if(g, ctx, m, |g, ctx, m| {
                !reclaimer.blocked(g, &ctx.preds, desc, m, stats)
            }) {
                region.retain(|&x| x != m);
                stats.reclaimed_rows += 1;
                deleted_any = true;
                changed = true;
            }
        }
        if deleted_any {
            ctx.refresh(g);
        }
        if !changed {
            // One-step fixpoint: nothing moved or deleted this pass, so the
            // pass-level `preds` still matches the graph. Ready work deeper
            // down may yet reach open slots past rows the adjacent sweep
            // cannot land in (§3.2 resource barriers) — try multi-hop climbs.
            changed = multihop_sweep(g, ctx, desc, region, &preds, stats);
        }
        if !changed {
            break;
        }
    }
}

/// Multi-hop climb sweep, run only at the one-step fixpoint: a ready op
/// deeper in a straight-line chain can pass *through* full (or hot)
/// intermediate rows on its way to an open slot — a transit never rests,
/// so only the landing row's template and producer distances matter. The
/// 16-cycle corridors of deep-latency machines are the motivating case:
/// the row directly beneath a delay row runs out of movable ops long
/// before the padding is full, while ready work three and four rows down
/// is walled off behind full compute rows.
///
/// Every hop of a climb is validated by [`climb_clear`] before the first
/// edit, so a started climb always reaches its landing row; landings are
/// re-checked against the *current* graph by [`landing_too_hot`] (the
/// pass-start countdown snapshot goes stale as climbed producers move),
/// so a climb never plants a hazard for the closing pad round to re-pay.
/// Rows therefore only ever empty and shrink, never re-pad: the schedule
/// cannot get longer.
fn multihop_sweep(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &[NodeId],
    preds: &HashMap<NodeId, Vec<NodeId>>,
    stats: &mut HazardStats,
) -> bool {
    let mut changed = false;
    let live: Vec<NodeId> = region.iter().copied().filter(|&m| g.node_exists(m)).collect();
    for i in 0..live.len() {
        let u = live[i];
        // The corridor: the maximal run of simple (single-leaf,
        // single-entry, execution-adjacent) rows below u. Each element
        // stores the leaf path of its predecessor targeting it — the
        // `path` argument of the hop that leaves it.
        let mut chain: Vec<(NodeId, TreePath)> = Vec::new();
        let mut prev = u;
        for &v in live.iter().skip(i + 1) {
            let vpreds = preds.get(&v).map(Vec::as_slice).unwrap_or(&[]);
            let entry_edges: usize =
                vpreds.iter().map(|&q| g.node(q).tree.leaf_paths_to(v).len()).sum();
            if entry_edges != 1 || !vpreds.contains(&prev) {
                break;
            }
            let Some(&path) = g.node(prev).tree.leaf_paths_to(v).first() else { break };
            if !matches!(g.node(v).tree, Tree::Leaf { .. }) {
                break;
            }
            chain.push((v, path));
            prev = v;
        }
        // chain[0] is execution-adjacent to u — the one-step sweep already
        // exhausted it. Sources start two rows down.
        for k in 1..chain.len() {
            let w = chain[k].0;
            let ops: Vec<OpId> = g
                .node_ops(w)
                .iter()
                .filter(|&&(_, o)| !g.op(o).kind.is_cj())
                .map(|&(_, o)| o)
                .collect();
            for op in ops {
                if !desc.has_room(g, u, op)
                    || !climb_clear(g, ctx, u, &chain, k, op)
                    || landing_too_hot(g, preds, desc, u, op)
                {
                    continue;
                }
                // Apply the hops bottom-up; `climb_clear` proved each plan
                // comes back plain.
                for t in (0..=k).rev() {
                    let from = chain[t].0;
                    let to = if t == 0 { u } else { chain[t - 1].0 };
                    let path = chain[t].1;
                    let Ok(plan) = plan_move_op(g, ctx, from, to, op, path, None) else {
                        debug_assert!(false, "prechecked climb hop must plan");
                        break;
                    };
                    debug_assert!(
                        plan.rewrites.is_empty() && !plan.needs_rename && !plan.speculative,
                        "prechecked climb hop must be a plain move"
                    );
                    let out = apply_move_op(g, ctx, from, to, op, path, &plan);
                    debug_assert!(out.split.is_none(), "single-entry rows never split");
                    changed = true;
                }
                stats.backfilled += 1;
                stats.multihop += 1;
            }
        }
    }
    changed
}

/// Would every hop of climbing `op` from `chain[k]` through
/// `chain[k-1..=0]` into `u` plan as a plain move (no rename, no operand
/// rewrite, non-speculative)? Mirrors [`plan_move_op`]'s conditions for
/// root-placed ops moving between single-leaf single-entry rows; those
/// conditions depend only on the contents of the rows along the corridor,
/// which the climb itself never alters — so a `true` here guarantees
/// every subsequent plan succeeds.
fn climb_clear(
    g: &Graph,
    ctx: &Ctx<'_>,
    u: NodeId,
    chain: &[(NodeId, TreePath)],
    k: usize,
    op: OpId,
) -> bool {
    let o = g.op(op);
    let reads: Vec<RegId> = o.reads().collect();
    let dest = o.dest;
    let is_mem = o.kind.is_mem();
    let orig = o.orig;
    for t in (0..=k).rev() {
        let leaving = chain[t].0;
        // Ops the hop lands among: for interior targets the whole
        // single-leaf row; for the head row only the ops committing on the
        // entry path — exactly the planner's path set.
        let target_ops: Vec<OpId> = if t == 0 {
            ops_committing_on(g, u, chain[0].1)
        } else {
            g.node_ops(chain[t - 1].0).iter().map(|&(_, p)| p).collect()
        };
        for &p in &target_ops {
            let pr = g.op(p);
            if is_mem && pr.kind.is_mem() && ctx.ddg.mem_dep(pr.orig, orig) {
                return false; // memory dependence
            }
            if pr.dest.is_some_and(|d| reads.contains(&d)) {
                return false; // true dependence (no copy bypass in a climb)
            }
            if dest.is_some() && pr.dest == dest {
                return false; // output conflict would force a rename
            }
        }
        // Move-past-read: a co-resident op reading the mover's dest at
        // entry would observe the new value once the mover leaves upward.
        if let Some(d) = dest {
            if g.node(leaving)
                .tree
                .placed_ops()
                .iter()
                .any(|&(_, q)| q != op && g.op(q).reads_reg(d))
            {
                return false;
            }
        }
    }
    true
}

/// Ops committing on `leaf_path` of `n` (mirror of the move planner's
/// path set).
fn ops_committing_on(g: &Graph, n: NodeId, leaf_path: TreePath) -> Vec<OpId> {
    let mut out = Vec::new();
    g.node(n).tree.walk(&mut |p, t| {
        if p.is_prefix_of(leaf_path) {
            out.extend_from_slice(t.ops());
        }
    });
    out
}

/// Would `op`, landing at `n`, read a register whose producer is still in
/// flight at `n`'s entry? An upward walk over the *current* graph — the
/// multi-hop sweep moves producers between checks, so the pass-start
/// countdown snapshot cannot be trusted. Conservative: any definition
/// within latency range counts, even if a nearer redefinition shadows it.
fn landing_too_hot(
    g: &Graph,
    preds: &HashMap<NodeId, Vec<NodeId>>,
    desc: &MachineDesc,
    n: NodeId,
    op: OpId,
) -> bool {
    let reads: Vec<RegId> = g.op(op).reads().collect();
    if reads.is_empty() {
        return false;
    }
    let lmax = desc.max_latency();
    let mut level: Vec<NodeId> = preds.get(&n).cloned().unwrap_or_default();
    let mut seen: HashSet<(NodeId, u32)> = HashSet::new();
    for b in 1..lmax {
        let mut next = Vec::new();
        for &m in &level {
            if !g.node_exists(m) || !seen.insert((m, b)) {
                continue;
            }
            for &(_, o) in g.node_ops(m) {
                let pr = g.op(o);
                if let Some(d) = pr.dest {
                    if reads.contains(&d) && desc.latency_of(pr.kind) > b {
                        return true;
                    }
                }
            }
            if let Some(ps) = preds.get(&m) {
                next.extend_from_slice(ps);
            }
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    false
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

/// Resolve every latency hazard in the reachable graph: pad, backfill
/// ready work into the padding, pad whatever the backfill exposed, and
/// assert the invariant. `region` is kept in schedule order (delay rows
/// are inserted at their execution position) for downstream pattern
/// detection. No-op on unit-latency machines.
pub fn resolve_hazards(
    g: &mut Graph,
    ctx: &mut Ctx<'_>,
    desc: &MachineDesc,
    region: &mut Vec<NodeId>,
) -> HazardStats {
    let mut stats = HazardStats::default();
    if desc.max_latency() <= 1 {
        return stats;
    }
    let _span = grip_obs::span!("hazards");
    pad_to_fixpoint(g, Some(region), desc, &mut stats);
    backfill(g, ctx, desc, region, &mut stats);
    pad_to_fixpoint(g, Some(region), desc, &mut stats);
    ctx.refresh(g);
    debug_assert_eq!(scan_hazards(g, desc), 0, "schedule not stall-free on {}", desc.name);
    record_hazard_counters(&stats);
    stats
}

/// Fold one resolution run's [`HazardStats`] into the process-wide
/// metrics registry.
fn record_hazard_counters(s: &HazardStats) {
    grip_obs::counter!("grip_hazard_edges_total").add(s.hazards);
    grip_obs::counter!("grip_hazard_delay_rows_total").add(s.delay_rows);
    grip_obs::counter!("grip_hazard_backfills_total").add(s.backfilled);
    grip_obs::counter!("grip_hazard_multihop_total").add(s.multihop);
    grip_obs::counter!("grip_hazard_reclaimed_rows_total").add(s.reclaimed_rows);
    grip_obs::counter!("grip_hazard_deletion_checks_total").add(s.deletion_checks);
    grip_obs::counter!("grip_hazard_deletion_checks_cached_total").add(s.deletion_checks_cached);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grip_analysis::Ddg;
    use grip_ir::{OpKind, Operand, Operation, ProgramBuilder, RegId, Tree, TreePath, Value};
    use grip_machine::LatencyTable;

    /// A flat machine with 3-cycle loads (everything else single-cycle).
    fn mem3(width: usize) -> MachineDesc {
        MachineDesc {
            latency: LatencyTable { alu: 1, fpu: 1, fpu_long: 1, mem: 3, branch: 1 },
            ..MachineDesc::uniform(width)
        }
    }

    /// load t = x[0] ; u = t + 1.0 — a distance-1 use of a 3-cycle load.
    fn load_use_chain() -> (grip_ir::Graph, RegId) {
        let mut b = ProgramBuilder::new();
        let x = b.array("x", 4);
        let t = b.load("t", x, Operand::Imm(Value::I(0)), 0);
        let u = b.binary("u", OpKind::Add, Operand::Reg(t), Operand::Imm(Value::F(1.0)));
        b.live_out(u);
        (b.finish(), u)
    }

    #[test]
    fn padding_restores_producer_distance() {
        let (mut g, _) = load_use_chain();
        let desc = mem3(4);
        assert!(scan_hazards(&g, &desc) > 0, "the sequential chain carries the hazard");
        let before = g.node_count();
        let stats = pad_hazards(&mut g, &desc);
        g.validate().unwrap();
        assert_eq!(stats.delay_rows, 2, "a 3-cycle load needs two rows of slack");
        assert_eq!(g.node_count(), before + 2);
        assert_eq!(scan_hazards(&g, &desc), 0);

        let mut m = grip_vm::Machine::for_graph(&g);
        m.set_array_f(grip_ir::ArrayId::new(0), &[5.0; 4]);
        let stats = m.run_model(&g, &desc).unwrap();
        assert_eq!(stats.stall_cycles, 0, "padding must satisfy the scoreboard");
    }

    #[test]
    fn unit_latency_is_a_no_op() {
        let (mut g, _) = load_use_chain();
        let before = g.node_count();
        let stats = pad_hazards(&mut g, &MachineDesc::uniform(4));
        assert_eq!(stats, HazardStats::default());
        assert_eq!(g.node_count(), before);
    }

    #[test]
    fn backfill_reclaims_independent_work() {
        // load t ; u = t + 1 ; v = k + 1 — the independent ALU op below
        // the hazard can ride up into the delay slack, emptying its row.
        let mut b = ProgramBuilder::new();
        let x = b.array("x", 4);
        let k = b.named_reg("k");
        b.const_i(k, 7);
        let t = b.load("t", x, Operand::Imm(Value::I(0)), 0);
        let u = b.binary("u", OpKind::Add, Operand::Reg(t), Operand::Imm(Value::F(1.0)));
        let v = b.binary("v", OpKind::IAdd, Operand::Reg(k), Operand::Imm(Value::I(1)));
        b.live_out(u);
        b.live_out(v);
        let mut g = b.finish();
        let desc = mem3(4);
        let ddg = Ddg::build(&g, g.entry);
        let mut ctx = Ctx::new(&g, &ddg);
        let mut region: Vec<grip_ir::NodeId> = g.reachable();
        let stats = resolve_hazards(&mut g, &mut ctx, &desc, &mut region);
        g.validate().unwrap();
        assert_eq!(scan_hazards(&g, &desc), 0);
        assert_eq!(stats.delay_rows, 2);
        assert!(stats.backfilled >= 1, "v should ride up into the slack: {stats:?}");
        assert!(stats.reclaimed_rows >= 1, "emptied rows are reclaimed: {stats:?}");
        // Region order still matches execution order.
        let mut m = grip_vm::Machine::for_graph(&g);
        m.set_array_f(grip_ir::ArrayId::new(0), &[5.0; 4]);
        let run = m.run_model(&g, &desc).unwrap();
        assert_eq!(run.stall_cycles, 0);
        assert_eq!(m.reg(u), Some(Value::F(6.0)));
        assert_eq!(m.reg(v), Some(Value::I(8)));
    }

    #[test]
    fn padding_splices_the_loop_back_edge() {
        // t is loaded (4-cycle) one row before the latch and consumed at
        // the loop head: the only hazard runs *around the back edge*, so
        // the delay row must be spliced into the latch's continue side —
        // the same shape a re-rolled loop's rotation rows produce.
        let n = 6i64;
        let mut b = ProgramBuilder::new();
        let x = b.array("x", (n + 8) as usize);
        let t = b.named_reg("t");
        b.const_f(t, 0.5);
        let acc = b.named_reg("acc");
        b.const_f(acc, 1.0);
        let k = b.named_reg("k");
        b.const_i(k, 0);
        b.begin_loop();
        let s = b.binary("s", OpKind::Mul, Operand::Reg(acc), Operand::Reg(t));
        b.emit(Operation::new(
            OpKind::Add,
            Some(acc),
            vec![Operand::Reg(s), Operand::Imm(Value::F(0.25))],
        ));
        b.iadd_imm(k, k, 1);
        b.emit(Operation::new(OpKind::Load(x), Some(t), vec![Operand::Reg(k)]));
        let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(n)));
        b.end_loop(c);
        let mut g = b.finish();
        g.live_out = vec![acc, k];
        let g0 = g.clone();

        let desc = MachineDesc {
            latency: LatencyTable { alu: 1, fpu: 1, fpu_long: 1, mem: 4, branch: 1 },
            ..MachineDesc::uniform(4)
        };
        // load -> cmp -> latch -> (back edge) -> Mul is 3 issue slots; a
        // 4-cycle load needs 4, so exactly one delay row goes in.
        let stats = pad_hazards(&mut g, &desc);
        g.validate().unwrap();
        assert_eq!(stats.delay_rows, 1, "{stats:?}");
        assert_eq!(scan_hazards(&g, &desc), 0);

        let init = |m: &mut grip_vm::Machine| {
            let xs: Vec<f64> = (0..n + 8).map(|i| 0.125 * i as f64).collect();
            m.set_array_f(grip_ir::ArrayId::new(0), &xs);
        };
        let mut m0 = grip_vm::Machine::for_graph(&g0);
        init(&mut m0);
        m0.run(&g0).unwrap();
        let mut m1 = grip_vm::Machine::for_graph(&g);
        init(&mut m1);
        let run = m1.run_model(&g, &desc).unwrap();
        assert_eq!(run.stall_cycles, 0, "the padded back edge satisfies the scoreboard");
        assert!(grip_vm::EquivReport::compare(&g0, &m0, &m1).is_equal());
    }

    #[test]
    fn deletion_guard_catches_the_reshrink() {
        // P(load, 3 cycles) -> E(empty) -> D(empty) -> C(reads the load):
        // the distance is exactly 3; deleting either empty row re-shrinks
        // it below the latency.
        let mut g = grip_ir::Graph::new();
        let x = g.array("x", 4);
        let t = g.named_reg("t");
        let u = g.named_reg("u");
        let ld =
            g.add_op(Operation::new(OpKind::Load(x), Some(t), vec![Operand::Imm(Value::I(0))]));
        let use_ = g.add_op(Operation::new(
            OpKind::Add,
            Some(u),
            vec![Operand::Reg(t), Operand::Imm(Value::F(1.0))],
        ));
        let c = g.add_node(Tree::Leaf { ops: vec![use_], succ: None });
        let d = g.add_node(Tree::leaf(Some(c)));
        let e = g.add_node(Tree::leaf(Some(d)));
        let p = g.add_node(Tree::Leaf { ops: vec![ld], succ: Some(e) });
        g.set_succ(g.entry, TreePath::ROOT, Some(p));
        g.live_out = vec![u];
        g.validate().unwrap();

        let desc = mem3(4);
        let preds = g.predecessors();
        assert!(delete_would_create_hazard(&g, &preds, &desc, e));
        assert!(delete_would_create_hazard(&g, &preds, &desc, d));
        // Under unit latencies the same deletions are free.
        assert!(!delete_would_create_hazard(&g, &preds, &MachineDesc::uniform(4), e));
        // An unrelated consumer does not pin the row.
        let desc1 = mem3(4);
        let mut g2 = g.clone();
        let k = g2.named_reg("k");
        let indep =
            g2.add_op(Operation::new(OpKind::Copy, Some(k), vec![Operand::Imm(Value::I(1))]));
        g2.remove_op_from(c, use_);
        g2.insert_op_at(c, TreePath::ROOT, indep);
        let preds2 = g2.predecessors();
        assert!(!delete_would_create_hazard(&g2, &preds2, &desc1, e));
    }
}
