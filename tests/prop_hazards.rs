//! Stall-freedom property tests: every schedule GRiP emits must run on
//! its target machine without a single interlock stall, and with the
//! observable state (live-out registers plus all memory) bit-identical
//! to the sequential original.
//!
//! Random loops come from a deterministic splitmix PRNG (the container is
//! offline, so `proptest` is unavailable); every failure reports its case
//! seed, which reproduces the exact program. The kernel sweep covers all
//! machine presets × LL1–LL14 — the same grid as `BENCH_machines.json`.

use grip::prelude::*;
use std::collections::{HashMap, HashSet};

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random loop body mixing all functional-unit classes: loads (MEM),
/// float arithmetic incl. the long-latency divide (FPU), integer ops
/// (ALU), stores, and an optional loop-carried recurrence.
#[derive(Clone, Debug)]
struct LoopRecipe {
    ops: Vec<BodyOp>,
    recurrence: bool,
    trip: i64,
}

#[derive(Clone, Debug)]
enum BodyOp {
    Load(i8),
    Arith(u8, u8, u8),
    Store(u8),
}

fn recipe(rng: &mut Rng) -> LoopRecipe {
    let len = 2 + rng.below(7) as usize;
    let ops = (0..len)
        .map(|_| match rng.below(3) {
            0 => BodyOp::Load(rng.below(4) as i8),
            1 => BodyOp::Arith(rng.below(256) as u8, rng.below(256) as u8, rng.below(5) as u8),
            _ => BodyOp::Store(rng.below(256) as u8),
        })
        .collect();
    LoopRecipe { ops, recurrence: rng.below(2) == 1, trip: 1 + rng.below(23) as i64 }
}

fn build(r: &LoopRecipe) -> Graph {
    let len = (r.trip + 64) as usize;
    let mut b = ProgramBuilder::new();
    let x = b.array("x", len);
    let y = b.array("y", len);
    let acc = b.named_reg("acc");
    b.const_f(acc, 1.0);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let mut pool: Vec<RegId> = vec![acc];
    if r.recurrence {
        b.emit(Operation::new(
            OpKind::Mul,
            Some(acc),
            vec![Operand::Reg(acc), Operand::Imm(Value::F(0.875))],
        ));
    }
    for (i, op) in r.ops.iter().enumerate() {
        match *op {
            BodyOp::Load(d) => {
                let t = b.load(&format!("l{i}"), x, Operand::Reg(k), d.unsigned_abs() as i64);
                pool.push(t);
            }
            BodyOp::Arith(a, bb, kind) => {
                let ra = pool[a as usize % pool.len()];
                let rb = pool[bb as usize % pool.len()];
                // Div exercises the long-latency FPU path (up to 16
                // cycles on epic8): the deepest hazard-scan window.
                let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Min, OpKind::Div];
                let t = b.binary(
                    &format!("a{i}"),
                    kinds[kind as usize % kinds.len()],
                    Operand::Reg(ra),
                    Operand::Reg(rb),
                );
                pool.push(t);
            }
            BodyOp::Store(a) => {
                let ra = pool[a as usize % pool.len()];
                b.store(y, Operand::Reg(k), 0, Operand::Reg(ra));
            }
        }
    }
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(r.trip)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![acc, k];
    g
}

fn init(m: &mut Machine, len: usize) {
    let xs: Vec<f64> = (0..len).map(|i| 0.25 + (i % 17) as f64 * 0.0625).collect();
    m.set_array_f(ArrayId::new(0), &xs);
}

/// Schedule `g0` for `desc`, then check the stall-free invariant and
/// bitwise equivalence against the sequential original.
fn check_stall_free(g0: &Graph, desc: MachineDesc, len: usize, label: &str) {
    let mut g = g0.clone();
    let width = desc.width.min(8);
    perfect_pipeline(
        &mut g,
        PipelineOptions {
            unwind: (width + 2).min(8),
            resources: Resources::machine(desc),
            fold_inductions: true,
            gap_prevention: true,
            dce: true,
            try_roll: false,
            audit: false,
        },
    );
    g.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        grip::core::hazards::scan_hazards(&g, &desc),
        0,
        "{label}: static hazards survive scheduling"
    );

    let mut m0 = Machine::for_graph(g0);
    init(&mut m0, len);
    m0.run(g0).unwrap_or_else(|e| panic!("{label}: sequential: {e}"));
    let mut m1 = Machine::for_graph(&g);
    init(&mut m1, len);
    let stats = m1.run_model(&g, &desc).unwrap_or_else(|e| panic!("{label}: model: {e}"));

    assert_eq!(stats.stall_cycles, 0, "{label}: schedule stalls under the model");
    assert_eq!(stats.template_violations, 0, "{label}: schedule breaks its issue template");
    let rep = EquivReport::compare(g0, &m0, &m1);
    assert!(rep.is_equal(), "{label}: final state diverged: {rep:?}");
}

fn cases() -> u64 {
    if cfg!(debug_assertions) {
        10
    } else {
        24
    }
}

/// Random mixed-class loops are stall-free and exact on every
/// multi-latency preset.
#[test]
fn random_loops_schedule_stall_free_on_all_presets() {
    for case in 0..cases() {
        let mut rng = Rng(0x57A11 ^ (case << 32));
        let r = recipe(&mut rng);
        let g0 = build(&r);
        g0.validate().unwrap();
        let len = (r.trip + 64) as usize;
        for desc in [MachineDesc::clustered(), MachineDesc::mem_bound(), MachineDesc::epic8()] {
            check_stall_free(&g0, desc, len, &format!("case {case} on {} ({r:?})", desc.name));
        }
    }
}

/// The full bench grid: every preset × every Livermore kernel is
/// stall-free, template-clean, and bit-exact.
#[test]
fn kernels_schedule_stall_free_on_all_presets() {
    let n: i64 = if cfg!(debug_assertions) { 12 } else { 32 };
    for desc in MachineDesc::presets() {
        for k in grip::kernels::kernels() {
            let g0 = (k.build)(n);
            let mut g = g0.clone();
            perfect_pipeline(
                &mut g,
                PipelineOptions {
                    unwind: 6,
                    resources: Resources::machine(desc),
                    fold_inductions: true,
                    gap_prevention: true,
                    dce: true,
                    try_roll: false,
                    audit: false,
                },
            );
            let label = format!("{} on {}", k.name, desc.name);
            g.validate().unwrap_or_else(|e| panic!("{label}: {e}"));

            let mut m0 = Machine::for_graph(&g0);
            (k.init)(&g0, &mut m0, n);
            m0.run(&g0).unwrap_or_else(|e| panic!("{label}: sequential: {e}"));
            let mut m1 = Machine::for_graph(&g);
            (k.init)(&g, &mut m1, n);
            let stats = m1.run_model(&g, &desc).unwrap_or_else(|e| panic!("{label}: model: {e}"));

            assert_eq!(stats.stall_cycles, 0, "{label}: stalls");
            assert_eq!(stats.template_violations, 0, "{label}: template");
            let rep = EquivReport::compare(&g0, &m0, &m1);
            assert!(rep.is_equal(), "{label}: diverged: {rep:?}");
        }
    }
}

/// The `(node, level)` walk `delete_would_create_hazard` used before it
/// became a breadth-first scan over dense buffers, kept verbatim as the
/// oracle: it revisits a node at every path length within range instead
/// of once at its minimum distance.
fn reference_deletion_walk(
    g: &Graph,
    preds: &HashMap<NodeId, Vec<NodeId>>,
    desc: &MachineDesc,
    n: NodeId,
) -> bool {
    let lmax = desc.max_latency();
    if lmax <= 1 {
        return false;
    }
    let mut hot: HashMap<RegId, u32> = HashMap::new();
    let mut level: Vec<NodeId> = preds.get(&n).cloned().unwrap_or_default();
    let mut seen_up: HashSet<(NodeId, u32)> = HashSet::new();
    for a in 1..lmax {
        let mut next = Vec::new();
        for &m in &level {
            if !g.node_exists(m) || !seen_up.insert((m, a)) {
                continue;
            }
            for &(_, o) in g.node_ops(m) {
                let op = g.op(o);
                if let Some(d) = op.dest {
                    let l = desc.latency_of(op.kind);
                    if l > a {
                        hot.entry(d).and_modify(|c| *c = (*c).max(l - a)).or_insert(l - a);
                    }
                }
            }
            next.extend(preds.get(&m).cloned().unwrap_or_default());
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    if hot.is_empty() {
        return false;
    }
    let cmax = hot.values().copied().max().unwrap_or(0);
    let mut level: Vec<NodeId> = g.unique_successors(n).to_vec();
    let mut seen_dn: HashSet<(NodeId, u32)> = HashSet::new();
    for b in 1..=cmax {
        let mut next = Vec::new();
        for &m in &level {
            if !g.node_exists(m) || !seen_dn.insert((m, b)) {
                continue;
            }
            for &(_, o) in g.node_ops(m) {
                for r in g.op(o).reads() {
                    if hot.get(&r).copied().unwrap_or(0) >= b {
                        return true;
                    }
                }
            }
            next.extend(g.unique_successors(m));
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    false
}

/// A random multi-cycle latency table (every class may be unit or deep).
fn random_latencies(rng: &mut Rng, width: usize) -> MachineDesc {
    let mut lat = |max: u64| 1 + rng.below(max) as u32;
    let latency =
        LatencyTable { alu: lat(3), fpu: lat(12), fpu_long: lat(24), mem: lat(12), branch: lat(2) };
    MachineDesc { name: "random", latency, ..MachineDesc::uniform(width) }
}

/// The breadth-first deletion check agrees with the old walk on every
/// node of random loops — before scheduling (the back edge, padded delay
/// rows) and after it (unwound, branchy, backfilled) — under random
/// latency tables.
#[test]
fn deletion_check_matches_the_reference_walk() {
    let (mut blocked, mut free) = (0u64, 0u64);
    for case in 0..cases() {
        let mut rng = Rng(0xDE1E7E ^ (case << 32));
        let r = recipe(&mut rng);
        let width = 2 + rng.below(4) as usize;
        let desc = random_latencies(&mut rng, width);
        let mut padded = build(&r);
        grip::core::hazards::pad_hazards(&mut padded, &desc);
        let mut scheduled = build(&r);
        perfect_pipeline(
            &mut scheduled,
            PipelineOptions {
                unwind: 4,
                resources: Resources::machine(desc),
                fold_inductions: true,
                gap_prevention: true,
                dce: true,
                try_roll: false,
                audit: false,
            },
        );
        for g in [&padded, &scheduled] {
            let preds = g.predecessors();
            for n in g.reachable() {
                let want = reference_deletion_walk(g, &preds, &desc, n);
                let got = grip::core::hazards::delete_would_create_hazard(g, &preds, &desc, n);
                assert_eq!(got, want, "case {case}, node {n}, {:?} ({r:?})", desc.latency);
                if want {
                    blocked += 1;
                } else {
                    free += 1;
                }
            }
        }
    }
    assert!(blocked > 0 && free > 0, "both verdicts exercised: {blocked} blocked, {free} free");
}
