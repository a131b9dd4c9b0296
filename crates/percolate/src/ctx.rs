//! Shared analysis state threaded through the core transformations.

use grip_analysis::{Ddg, Liveness, LivenessCache};
use grip_ir::{Graph, NodeId};
use std::collections::HashMap;

/// Analysis context for a percolation session: the (immutable) memory
/// dependence graph plus incrementally-maintained liveness and predecessor
/// maps.
///
/// Liveness is maintained *grow-only* between [`Ctx::refresh`] calls, which
/// can only over-approximate (spurious renamings, never unsound motion);
/// callers refresh at convenient boundaries (e.g. after each scheduled
/// node) to regain precision for dead-code removal.
pub struct Ctx<'a> {
    /// Memory dependences, keyed by `orig` op ids (see `grip-analysis`).
    pub ddg: &'a Ddg,
    /// Live-in register sets.
    pub lv: Liveness,
    /// Predecessor map, refreshed after structural edits.
    pub preds: HashMap<NodeId, Vec<NodeId>>,
    /// Per-node use/def summaries reused across liveness recomputes
    /// (stamp-keyed; see [`LivenessCache`]).
    lv_cache: LivenessCache,
}

impl<'a> Ctx<'a> {
    /// Build a context for the current graph state.
    pub fn new(g: &Graph, ddg: &'a Ddg) -> Ctx<'a> {
        let mut lv_cache = LivenessCache::default();
        let lv = Liveness::compute_with(g, &mut lv_cache);
        Ctx { ddg, lv, preds: g.predecessors(), lv_cache }
    }

    /// Fully recompute liveness and predecessors (precision reset).
    pub fn refresh(&mut self, g: &Graph) {
        self.lv = Liveness::compute_with(g, &mut self.lv_cache);
        self.preds = g.predecessors();
    }

    /// Recompute only the predecessor map (after structural edits).
    pub fn refresh_preds(&mut self, g: &Graph) {
        self.preds = g.predecessors();
    }

    /// Patch the predecessor map for the splice-out of the empty node `n`
    /// (whose predecessors were `preds`, already removed from the map) into
    /// its successor `succ`: `succ` trades `n` for `n`'s predecessors. Each
    /// list stays sorted and deduplicated, exactly as
    /// [`Graph::predecessors`] builds it.
    pub(crate) fn splice_out_preds(&mut self, n: NodeId, succ: Option<NodeId>, preds: &[NodeId]) {
        let Some(s) = succ else { return };
        let list = self.preds.entry(s).or_default();
        list.retain(|&m| m != n);
        for &p in preds {
            if let Err(at) = list.binary_search(&p) {
                list.insert(at, p);
            }
        }
        if list.is_empty() {
            self.preds.remove(&s);
        }
    }
}
